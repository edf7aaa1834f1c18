//! FirstResponder — the per-packet fast path (paper §IV-A, Figs. 7 & 9).
//!
//! FirstResponder is the paper's kernel module hooked on
//! `netif_receive_skb`: it inspects every incoming RPC packet, computes the
//! per-packet slack (no averaging), and on negative slack immediately
//! boosts the frequency of the destination container and its local
//! downstream containers. A per-path cooldown (~2× the end-to-end latency)
//! suppresses noisy repeat updates.
//!
//! Two layers live here:
//!
//! * [`FirstResponder`] — the pure decision logic, used directly by the
//!   discrete-event simulator (the "kernel hook" is the simulator's packet
//!   delivery event).
//! * [`FrRuntime`] — a real two-thread coordinator/worker implementation of
//!   Fig. 9: the critical-path thread only pushes a work item into a
//!   bounded lock-free queue; an off-path worker thread performs the slow
//!   frequency update (an MSR write on real hardware) and publishes the new
//!   level to the `shFreq` shared-memory analogue. Benchmarks measure the
//!   paper's reported overheads against this implementation.

use crate::ids::{ContainerId, NodeId};
use crate::metadata::RpcMetadata;
use crate::slack::{is_violation, per_packet_slack, CooldownTable};
use crate::time::{SimDuration, SimTime};
use crossbeam::queue::ArrayQueue;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A frequency update produced by the fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreqUpdate {
    /// Node whose rx hook issued the update. DVFS is a node-local register
    /// write, so the apply side re-checks that `container` lives on this
    /// node (decentralization contract).
    pub from: NodeId,
    /// Container whose cores should change frequency.
    pub container: ContainerId,
    /// New DVFS level.
    pub level: u8,
}

/// Decision emitted for one violating packet: boost these containers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoostDecision {
    /// The violating container followed by its local downstream containers.
    pub targets: Vec<ContainerId>,
    /// DVFS level to set (FirstResponder always boosts to maximum — the
    /// violation is already in progress, half measures only prolong it).
    pub level: u8,
}

/// Static, per-node configuration for the fast path.
#[derive(Debug, Clone)]
pub struct FirstResponderConfig {
    /// `expectedTimeFromStart` per local container, dense by container id;
    /// `None` for containers not on this node.
    pub expected_time_from_start: Vec<Option<SimDuration>>,
    /// Local downstream containers per container (same-node only — the
    /// kernel module has no cluster-wide view).
    pub local_downstream: Vec<Vec<ContainerId>>,
    /// Cooldown window per path (~2× end-to-end request latency).
    pub cooldown: SimDuration,
    /// Maximum DVFS level (boost target).
    pub max_freq_level: u8,
}

/// The FirstResponder decision logic for one node.
#[derive(Debug, Clone)]
pub struct FirstResponder {
    cfg: FirstResponderConfig,
    cooldown: CooldownTable,
}

impl FirstResponder {
    /// Build the fast path from its configuration.
    pub fn new(cfg: FirstResponderConfig) -> Self {
        let paths = cfg.expected_time_from_start.len();
        let window = cfg.cooldown;
        FirstResponder {
            cfg,
            cooldown: CooldownTable::new(paths, window),
        }
    }

    /// Inspect one incoming packet destined for `dest` (which must be a
    /// local container). Returns a boost decision if the packet's slack is
    /// negative and the path is not in cooldown.
    ///
    /// This is the hot path: one subtraction, one compare, one `Vec` index.
    #[inline]
    pub fn on_packet(
        &mut self,
        dest: ContainerId,
        meta: RpcMetadata,
        now: SimTime,
    ) -> Option<BoostDecision> {
        let expected = (*self.cfg.expected_time_from_start.get(dest.index())?)?;
        let slack = per_packet_slack(expected, now, meta.start_time);
        if !is_violation(slack) {
            return None;
        }
        if !self.cooldown.try_fire(dest.index(), now) {
            return None;
        }
        let mut targets = Vec::with_capacity(
            1 + self
                .cfg
                .local_downstream
                .get(dest.index())
                .map_or(0, Vec::len),
        );
        targets.push(dest);
        if let Some(ds) = self.cfg.local_downstream.get(dest.index()) {
            targets.extend_from_slice(ds);
        }
        Some(BoostDecision {
            targets,
            level: self.cfg.max_freq_level,
        })
    }
}

// ---------------------------------------------------------------------
// Real two-thread runtime (Fig. 9)
// ---------------------------------------------------------------------

/// The `shFreq` analogue: per-container frequency levels the worker
/// publishes after each applied update (Fig. 9). Nothing reads them back
/// here: on both substrates Escalator reads each container's level from
/// the allocation its observations carry. Atomic bytes — a reader would
/// never block the packet path.
#[derive(Debug)]
pub(crate) struct SharedFreq {
    levels: Vec<AtomicU8>,
}

impl SharedFreq {
    /// All containers start at `initial` level.
    pub(crate) fn new(containers: usize, initial: u8) -> Arc<Self> {
        Arc::new(SharedFreq {
            levels: (0..containers).map(|_| AtomicU8::new(initial)).collect(),
        })
    }

    /// Publish a new level (worker thread).
    pub(crate) fn store(&self, c: ContainerId, level: u8) {
        self.levels[c.index()].store(level, Ordering::Release);
    }
}

/// Coordinator/worker runtime: the coordinator (caller of
/// [`FrRuntime::submit`]) stays on the critical path; the worker thread
/// applies updates off-path and publishes them to `SharedFreq`.
pub struct FrRuntime {
    queue: Arc<ArrayQueue<FreqUpdate>>,
    stop: Arc<AtomicBool>,
    worker: Option<JoinHandle<u64>>,
    /// Updates dropped because the bounded queue was full (never blocks
    /// the packet path; a dropped boost is re-issued by the next violating
    /// packet after cooldown).
    dropped: u64,
}

impl FrRuntime {
    /// Spawn the worker thread. `apply` performs the slow update (the MSR
    /// write on real hardware) and runs on the worker thread only.
    pub fn spawn<F>(containers: usize, initial_level: u8, queue_capacity: usize, apply: F) -> Self
    where
        F: Fn(FreqUpdate) + Send + 'static,
    {
        let queue = Arc::new(ArrayQueue::new(queue_capacity.max(1)));
        let shfreq = SharedFreq::new(containers, initial_level);
        let stop = Arc::new(AtomicBool::new(false));

        let worker = {
            let queue = Arc::clone(&queue);
            let shfreq = Arc::clone(&shfreq);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut applied = 0u64;
                loop {
                    match queue.pop() {
                        Some(update) => {
                            apply(update);
                            shfreq.store(update.container, update.level);
                            applied += 1;
                        }
                        None => {
                            if stop.load(Ordering::Acquire) {
                                return applied;
                            }
                            // The paper pins the worker to the sibling
                            // hyperthread and polls; yielding keeps the
                            // test environment civil.
                            std::thread::yield_now();
                        }
                    }
                }
            })
        };

        FrRuntime {
            queue,
            stop,
            worker: Some(worker),
            dropped: 0,
        }
    }

    /// Enqueue an update from the critical path. Lock-free, never blocks;
    /// returns false (and counts a drop) if the queue is full.
    #[inline]
    pub fn submit(&mut self, update: FreqUpdate) -> bool {
        match self.queue.push(update) {
            Ok(()) => true,
            Err(_) => {
                self.dropped += 1;
                false
            }
        }
    }

    /// Updates dropped due to a full queue.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Stop the worker, draining remaining items first. Returns the number
    /// of updates the worker applied over its lifetime.
    pub fn shutdown(mut self) -> u64 {
        self.stop.store(true, Ordering::Release);
        self.worker
            .take()
            .expect("shutdown called once")
            .join()
            .expect("FirstResponder worker panicked")
    }
}

impl Drop for FrRuntime {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fr(containers: usize, expected_us: u64, cooldown_us: u64) -> FirstResponder {
        FirstResponder::new(FirstResponderConfig {
            expected_time_from_start: vec![Some(SimDuration::from_micros(expected_us)); containers],
            local_downstream: (0..containers)
                .map(|i| {
                    if i + 1 < containers {
                        vec![ContainerId((i + 1) as u32)]
                    } else {
                        vec![]
                    }
                })
                .collect(),
            cooldown: SimDuration::from_micros(cooldown_us),
            max_freq_level: 8,
        })
    }

    #[test]
    fn on_time_packet_triggers_nothing() {
        let mut f = fr(3, 500, 1000);
        let meta = RpcMetadata::new_job(SimTime::from_micros(0));
        let out = f.on_packet(ContainerId(0), meta, SimTime::from_micros(300));
        assert!(out.is_none());
    }

    #[test]
    fn lagging_packet_boosts_dest_and_local_downstream() {
        let mut f = fr(3, 500, 1000);
        let meta = RpcMetadata::new_job(SimTime::from_micros(0));
        let out = f
            .on_packet(ContainerId(1), meta, SimTime::from_micros(800))
            .expect("negative slack must boost");
        assert_eq!(out.targets, vec![ContainerId(1), ContainerId(2)]);
        assert_eq!(out.level, 8);
    }

    #[test]
    fn cooldown_suppresses_repeat_boosts() {
        let mut f = fr(2, 100, 1000);
        let meta = RpcMetadata::new_job(SimTime::from_micros(0));
        assert!(f
            .on_packet(ContainerId(0), meta, SimTime::from_micros(500))
            .is_some());
        assert!(f
            .on_packet(ContainerId(0), meta, SimTime::from_micros(600))
            .is_none());
        // After the window the path can fire again.
        assert!(f
            .on_packet(ContainerId(0), meta, SimTime::from_micros(1600))
            .is_some());
    }

    #[test]
    fn non_local_container_is_ignored() {
        let mut f = FirstResponder::new(FirstResponderConfig {
            expected_time_from_start: vec![Some(SimDuration::from_micros(100)), None],
            local_downstream: vec![vec![], vec![]],
            cooldown: SimDuration::from_micros(100),
            max_freq_level: 8,
        });
        let meta = RpcMetadata::new_job(SimTime::ZERO);
        assert!(f
            .on_packet(ContainerId(1), meta, SimTime::from_secs(1))
            .is_none());
    }

    #[test]
    fn runtime_applies_updates_off_path() {
        use std::sync::atomic::AtomicU64;
        let applied = Arc::new(AtomicU64::new(0));
        let applied2 = Arc::clone(&applied);
        let mut rt = FrRuntime::spawn(4, 0, 64, move |_u| {
            applied2.fetch_add(1, Ordering::Relaxed);
        });
        for i in 0..4u32 {
            assert!(rt.submit(FreqUpdate {
                from: NodeId(0),
                container: ContainerId(i),
                level: 8,
            }));
        }
        let total = rt.shutdown();
        assert_eq!(total, 4);
        assert_eq!(applied.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn runtime_full_queue_drops_not_blocks() {
        use std::sync::mpsc;
        // Worker blocked on a channel so the queue can fill up.
        let (tx, rx) = mpsc::channel::<()>();
        let mut rt = FrRuntime::spawn(1, 0, 2, move |_u| {
            let _ = rx.recv();
        });
        // First item may be grabbed by the worker immediately; pushing
        // capacity+2 guarantees at least one drop.
        let mut ok = 0;
        for _ in 0..4 {
            if rt.submit(FreqUpdate {
                from: NodeId(0),
                container: ContainerId(0),
                level: 1,
            }) {
                ok += 1;
            }
        }
        assert!(rt.dropped() >= 1, "full queue must drop, got {ok} accepted");
        drop(tx);
        rt.shutdown();
    }
}
