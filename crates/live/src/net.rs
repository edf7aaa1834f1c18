//! Cross-"node" message transport with injectable latency.
//!
//! All traffic — client arrivals, child RPCs, responses — flows through a
//! single [`DelayLine`]: a thread holding a deadline-ordered heap of
//! pending deliveries. Senders sample a latency from the same
//! `sg_sim::network::Network` model both backends share and submit a
//! closure to run at the deadline. Request deliveries execute the
//! destination node's per-packet rx hook (the FirstResponder site) on this
//! thread, mirroring where the sim runs it: before the container sees the
//! request.

use sg_telemetry::profile::{LiveProfiler, ProfilePhase};
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Work delivered at a deadline.
type Delivery = Box<dyn FnOnce() + Send + 'static>;

struct Entry {
    at: Instant,
    seq: u64,
    run: Delivery,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    /// Reversed so `BinaryHeap` (a max-heap) pops the earliest deadline;
    /// `seq` breaks ties in submission order.
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct DelayInner {
    heap: Mutex<BinaryHeap<Entry>>,
    cv: Condvar,
    stop: AtomicBool,
    seq: AtomicU64,
    delivered: AtomicU64,
    /// Self-profiler for timer slop (actual minus requested fire time);
    /// immutable after construction, `None` costs one branch per pop.
    profiler: Option<Arc<LiveProfiler>>,
}

/// The transport thread plus its submission handle.
pub struct DelayLine {
    inner: Arc<DelayInner>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl DelayLine {
    /// Start the delivery thread.
    pub fn spawn() -> Self {
        Self::spawn_profiled(None)
    }

    /// Like [`DelayLine::spawn`], recording each delivery's timer slop
    /// (actual minus requested fire time) into `profiler` when given.
    pub(crate) fn spawn_profiled(profiler: Option<Arc<LiveProfiler>>) -> Self {
        let inner = Arc::new(DelayInner {
            heap: Mutex::new(BinaryHeap::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            profiler,
        });
        let thread_inner = inner.clone();
        let handle = std::thread::Builder::new()
            .name("sg-live-net".into())
            .spawn(move || Self::deliver_loop(&thread_inner))
            .expect("spawn delay line");
        DelayLine {
            inner,
            handle: Mutex::new(Some(handle)),
        }
    }

    fn deliver_loop(inner: &DelayInner) {
        let mut heap = inner.heap.lock().unwrap();
        loop {
            if inner.stop.load(Ordering::Relaxed) {
                // Drop pending deliveries: in-flight messages at shutdown
                // are abandoned, like events past `cfg.end` in the sim.
                heap.clear();
                return;
            }
            let wait = match heap.peek() {
                None => Duration::from_millis(10),
                Some(e) => {
                    let now = Instant::now();
                    if e.at <= now {
                        let e = heap.pop().expect("peeked entry");
                        drop(heap);
                        if let Some(p) = &inner.profiler {
                            p.record(ProfilePhase::TimerSlop, (now - e.at).as_nanos() as u64);
                        }
                        (e.run)();
                        inner.delivered.fetch_add(1, Ordering::Relaxed);
                        heap = inner.heap.lock().unwrap();
                        continue;
                    }
                    (e.at - now).min(Duration::from_millis(10))
                }
            };
            let (guard, _) = inner.cv.wait_timeout(heap, wait).unwrap();
            heap = guard;
        }
    }

    /// Schedule `run` to execute at instant `at` (immediately if past).
    pub fn submit(&self, at: Instant, run: Delivery) {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        self.inner.heap.lock().unwrap().push(Entry { at, seq, run });
        self.inner.cv.notify_one();
    }

    /// Deliveries executed so far (the live analogue of "events processed").
    pub fn delivered(&self) -> u64 {
        self.inner.delivered.load(Ordering::Relaxed)
    }

    /// Stop the thread, dropping undelivered messages.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        self.inner.cv.notify_all();
        if let Some(h) = self.handle.lock().unwrap().take() {
            let _ = h.join();
        }
    }
}

impl Drop for DelayLine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn delivers_in_deadline_order() {
        let line = DelayLine::spawn();
        let order = Arc::new(Mutex::new(Vec::new()));
        let base = Instant::now() + Duration::from_millis(20);
        for (label, offset_ms) in [(2u32, 10u64), (0, 0), (1, 5)] {
            let order = order.clone();
            line.submit(
                base + Duration::from_millis(offset_ms),
                Box::new(move || order.lock().unwrap().push(label)),
            );
        }
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
        assert_eq!(line.delivered(), 3);
        line.shutdown();
    }

    #[test]
    fn profiled_line_records_timer_slop() {
        let prof = Arc::new(LiveProfiler::new());
        let line = DelayLine::spawn_profiled(Some(Arc::clone(&prof)));
        let done = Arc::new(AtomicUsize::new(0));
        let d = done.clone();
        line.submit(
            Instant::now(),
            Box::new(move || {
                d.fetch_add(1, Ordering::Relaxed);
            }),
        );
        for _ in 0..200 {
            if done.load(Ordering::Relaxed) == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(done.load(Ordering::Relaxed), 1, "delivery ran");
        let report = prof.snapshot(1);
        let slop = report
            .phases
            .iter()
            .find(|p| p.phase == ProfilePhase::TimerSlop)
            .expect("slop recorded");
        assert_eq!(slop.count, 1);
        line.shutdown();
    }

    #[test]
    fn shutdown_drops_pending() {
        let line = DelayLine::spawn();
        let ran = Arc::new(AtomicUsize::new(0));
        let r = ran.clone();
        line.submit(
            Instant::now() + Duration::from_secs(60),
            Box::new(move || {
                r.fetch_add(1, Ordering::Relaxed);
            }),
        );
        line.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }
}
