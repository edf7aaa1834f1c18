//! Blocking primitives for the live request path: the per-container job
//! queue worker threads pull from, and the one-shot reply slot a parent
//! thread parks on while a child RPC is in flight.

use crate::pool::LiveConnPool;
use sg_core::ids::NodeId;
use sg_core::metadata::RpcMetadata;
use sg_core::time::SimTime;
use sg_telemetry::HopSpan;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Where a finished invocation sends its response.
pub(crate) enum ReplyTo {
    /// Root service: respond to the open-loop client.
    Client {
        /// `(trace, root span id)` when this request is traced: the
        /// completion closure emits the synthetic root "request" span.
        root_span: Option<(u64, u64)>,
    },
    /// Child service: complete the parent's reply slot and return the
    /// parent's connection to `pool` (on response *delivery*, as the sim
    /// does).
    Parent {
        /// Node the parent container runs on (for the latency sample).
        node: NodeId,
        /// Slot the parent thread is parked on.
        slot: Arc<ReplySlot>,
        /// The parent-edge connection pool to release.
        pool: Arc<LiveConnPool>,
    },
}

/// A request on the wire: what `send_request` carries through the delay
/// line to the destination's rx hook.
pub(crate) struct Dispatch {
    /// End-to-end job start (client send time).
    pub req_start: SimTime,
    /// Metadata to deliver.
    pub meta: RpcMetadata,
    /// Present iff this request was sampled for tracing. Boxed: an
    /// overloaded run queues a deep backlog, and an untraced request
    /// should carry a null pointer there, not the 72-byte carrier.
    pub span: Option<Box<HopSpan>>,
    /// Response routing.
    pub reply: ReplyTo,
}

/// One request as seen by a container: everything a worker thread needs to
/// execute it and route the response.
pub(crate) struct Job {
    /// End-to-end job start (client send time).
    pub req_start: SimTime,
    /// Metadata as received.
    pub meta_in: RpcMetadata,
    /// Arrival at this container (stamped by the rx hook).
    pub arrival: SimTime,
    /// Present iff this request was sampled for tracing.
    pub span: Option<Box<HopSpan>>,
    /// Response routing.
    pub reply: ReplyTo,
}

/// Unbounded blocking MPMC queue feeding one container's worker threads.
#[derive(Default)]
pub(crate) struct JobQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    /// Empty open queue.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Enqueue a job; one idle worker wakes.
    pub(crate) fn push(&self, job: Job) {
        let mut s = self.state.lock().unwrap();
        if s.closed {
            return;
        }
        s.jobs.push_back(job);
        drop(s);
        self.cv.notify_one();
    }

    /// Block until a job is available; `None` once the queue is closed.
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut s = self.state.lock().unwrap();
        loop {
            if s.closed {
                return None;
            }
            if let Some(job) = s.jobs.pop_front() {
                return Some(job);
            }
            s = self.cv.wait(s).unwrap();
        }
    }

    /// Close the queue: workers drain out, queued jobs are abandoned.
    pub(crate) fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.cv.notify_all();
    }
}

/// One-shot completion signal for a child RPC.
#[derive(Default)]
pub(crate) struct ReplySlot {
    done: Mutex<bool>,
    cv: Condvar,
}

impl ReplySlot {
    /// Fresh, incomplete slot.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Mark the RPC answered; the waiting parent thread wakes.
    pub(crate) fn complete(&self) {
        *self.done.lock().unwrap() = true;
        self.cv.notify_all();
    }

    /// Park until the response arrives. Polls the run-wide `shutdown` flag
    /// so abandoned requests cannot deadlock teardown; returns `false` if
    /// shutdown struck first.
    pub(crate) fn wait(&self, shutdown: &AtomicBool) -> bool {
        let mut done = self.done.lock().unwrap();
        while !*done {
            if shutdown.load(Ordering::Relaxed) {
                return false;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(done, Duration::from_millis(10))
                .unwrap();
            done = guard;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> Job {
        Job {
            req_start: SimTime::ZERO,
            meta_in: RpcMetadata::new_job(SimTime::ZERO),
            arrival: SimTime::ZERO,
            span: None,
            reply: ReplyTo::Client { root_span: None },
        }
    }

    #[test]
    fn queue_hands_jobs_to_blocked_worker() {
        let q = Arc::new(JobQueue::new());
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop().is_some());
        std::thread::sleep(Duration::from_millis(5));
        q.push(job());
        assert!(h.join().unwrap());
    }

    #[test]
    fn closed_queue_releases_workers() {
        let q = Arc::new(JobQueue::new());
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop().is_none());
        std::thread::sleep(Duration::from_millis(5));
        q.close();
        assert!(h.join().unwrap());
    }

    #[test]
    fn reply_slot_roundtrip_and_shutdown() {
        let slot = Arc::new(ReplySlot::new());
        let shutdown = AtomicBool::new(false);
        let s2 = slot.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            s2.complete();
        });
        assert!(slot.wait(&shutdown));
        h.join().unwrap();

        let fresh = ReplySlot::new();
        shutdown.store(true, Ordering::Relaxed);
        assert!(!fresh.wait(&shutdown));
    }
}
