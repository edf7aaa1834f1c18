//! Per-container CPU capacity emulation.
//!
//! A [`CoreGate`] is a token bucket that earns *work nanoseconds* at a rate
//! of `alloc_cores × freq_speedup` per wall nanosecond (optionally capped
//! by a memory-bandwidth partition). Worker threads execute a request's
//! work in small chunks: withdraw the chunk from the bucket (blocking while
//! the container is saturated), then sleep `chunk / freq_speedup` of wall
//! time to model the execution itself. One request never runs faster than
//! one boosted core; aggregate throughput never exceeds the allocation —
//! exactly the capacity model the discrete-event container uses, but
//! enforced on real threads so contention, queueing, and controller
//! reactions all happen in real time.

use sg_core::time::SimDuration;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Work chunk granularity (ns). Small enough that capacity changes take
/// effect mid-request, large enough that `thread::sleep` jitter does not
/// dominate: each sleep overshoots by ~50–100 µs on a loaded box, and a
/// request pays that once per chunk, so the quantum bounds the substrate's
/// per-request latency overhead at roughly `work / CHUNK_NS × 100 µs`.
const CHUNK_NS: u64 = 500_000;

/// Token balance may accumulate up to this much wall time of earning while
/// the container idles (bounds post-idle bursts, like a CFS quota period).
const BURST_WALL_NS: f64 = 1_000_000.0;

#[derive(Debug)]
struct GateState {
    /// Work-ns earned per wall-ns: `min(cores, bw_cap) × speedup × fault`.
    rate: f64,
    /// Allocation component of `rate` (before the fault multiplier), so
    /// capacity changes and fault injection compose without clobbering
    /// each other.
    base_rate: f64,
    /// Fault-injection multiplier (1.0 = healthy) — the live analogue of
    /// the sim container's `fault_speed`, applied after cores, DVFS and
    /// the bandwidth cap.
    fault: f64,
    /// DVFS speedup; a single request executes at this rate.
    speedup: f64,
    tokens: f64,
    last: Instant,
    closed: bool,
}

impl GateState {
    fn refill(&mut self) {
        let now = Instant::now();
        let dt = now.duration_since(self.last).as_nanos() as f64;
        self.tokens = (self.tokens + dt * self.rate).min(self.rate * BURST_WALL_NS);
        self.last = now;
    }
}

/// Token-bucket throttle standing in for a container's allocated cores.
#[derive(Debug)]
pub struct CoreGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

fn effective_rate(cores: u32, speedup: f64, bw_cap: Option<f64>) -> f64 {
    let capacity = match bw_cap {
        Some(cap) => (cores as f64).min(cap),
        None => cores as f64,
    };
    (capacity * speedup).max(1e-6)
}

impl CoreGate {
    /// Gate for a container starting with `cores` at DVFS speedup
    /// `speedup`, optionally bandwidth-capped.
    pub fn new(cores: u32, speedup: f64, bw_cap: Option<f64>) -> Self {
        let rate = effective_rate(cores, speedup, bw_cap);
        CoreGate {
            state: Mutex::new(GateState {
                rate,
                base_rate: rate,
                fault: 1.0,
                speedup,
                // Start with a full burst so the first requests of a run
                // are not throttled by an empty bucket.
                tokens: rate * BURST_WALL_NS,
                last: Instant::now(),
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Apply a new allocation (cores / DVFS level / bandwidth cap change).
    /// Preserves any fault-injection multiplier currently in force.
    pub(crate) fn set_capacity(&self, cores: u32, speedup: f64, bw_cap: Option<f64>) {
        let mut s = self.state.lock().unwrap();
        s.refill();
        s.base_rate = effective_rate(cores, speedup, bw_cap);
        s.rate = (s.base_rate * s.fault).max(1e-9);
        s.speedup = speedup;
        drop(s);
        self.cv.notify_all();
    }

    /// Apply a fault-injection speed multiplier (1.0 = healthy). Like the
    /// sim container's `set_fault_speed`: scales the earn rate only, so a
    /// crashed container freezes aggregate progress while shutdown and
    /// capacity changes are still noticed promptly.
    pub(crate) fn set_fault_speed(&self, speed: f64) {
        assert!(speed > 0.0, "fault speed must be positive");
        let mut s = self.state.lock().unwrap();
        s.refill();
        s.fault = speed;
        s.rate = (s.base_rate * s.fault).max(1e-9);
        drop(s);
        self.cv.notify_all();
    }

    /// Unblock all waiters; subsequent `run` calls fail fast.
    pub(crate) fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.cv.notify_all();
    }

    /// Withdraw `need` work-ns, blocking while the container is saturated.
    /// Returns the current speedup, or `None` on close/shutdown.
    fn withdraw(&self, need: f64, shutdown: &AtomicBool) -> Option<f64> {
        let mut s = self.state.lock().unwrap();
        loop {
            if s.closed || shutdown.load(Ordering::Relaxed) {
                return None;
            }
            s.refill();
            if s.tokens >= need {
                s.tokens -= need;
                return Some(s.speedup);
            }
            // Sleep roughly until the deficit is earned; clamped so both
            // capacity changes and shutdown are noticed quickly.
            let wait_ns = ((need - s.tokens) / s.rate).clamp(10_000.0, 5_000_000.0);
            let (guard, _) = self
                .cv
                .wait_timeout(s, Duration::from_nanos(wait_ns as u64))
                .unwrap();
            s = guard;
        }
    }

    /// Execute `work` nanoseconds of CPU work against this gate: blocks
    /// the calling thread for the real execution time plus any wait for
    /// capacity. Returns `false` if aborted by close/shutdown.
    pub fn run(&self, work: SimDuration, shutdown: &AtomicBool) -> bool {
        let mut remaining = work.as_nanos();
        while remaining > 0 {
            let chunk = remaining.min(CHUNK_NS);
            let Some(speedup) = self.withdraw(chunk as f64, shutdown) else {
                return false;
            };
            std::thread::sleep(Duration::from_nanos((chunk as f64 / speedup) as u64));
            remaining -= chunk;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_request_takes_roughly_its_work_time() {
        let gate = CoreGate::new(2, 1.0, None);
        let shutdown = AtomicBool::new(false);
        let t0 = Instant::now();
        assert!(gate.run(SimDuration::from_millis(5), &shutdown));
        let dt = t0.elapsed();
        assert!(dt >= Duration::from_millis(4), "ran too fast: {dt:?}");
        assert!(dt < Duration::from_millis(100), "ran too slow: {dt:?}");
    }

    #[test]
    fn saturated_gate_is_slower_than_idle_gate() {
        // 1 core, two concurrent 10 ms requests: aggregate 20 ms of work
        // cannot finish in much under 20 ms of wall time.
        let gate = Arc::new(CoreGate::new(1, 1.0, None));
        let shutdown = Arc::new(AtomicBool::new(false));
        let t0 = Instant::now();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let g = gate.clone();
                let sd = shutdown.clone();
                std::thread::spawn(move || g.run(SimDuration::from_millis(10), &sd))
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap());
        }
        let dt = t0.elapsed();
        assert!(
            dt >= Duration::from_millis(15),
            "no contention seen: {dt:?}"
        );
    }

    #[test]
    fn fault_speed_throttles_and_recovery_restores() {
        // Crashed (1e-3): 5 ms of work cannot finish in 50 ms of wall
        // time. Restoring the multiplier lets it finish promptly, and the
        // fault factor survives an interleaved capacity change.
        let gate = Arc::new(CoreGate::new(2, 1.0, None));
        gate.set_fault_speed(1e-3);
        gate.set_capacity(4, 1.0, None);
        let shutdown = Arc::new(AtomicBool::new(false));
        let g = gate.clone();
        let sd = shutdown.clone();
        let h = std::thread::spawn(move || g.run(SimDuration::from_millis(5), &sd));
        std::thread::sleep(Duration::from_millis(50));
        assert!(!h.is_finished(), "crashed gate made progress");
        gate.set_fault_speed(1.0);
        assert!(h.join().unwrap());
    }

    #[test]
    fn close_aborts_waiters() {
        let gate = Arc::new(CoreGate::new(1, 1.0, Some(0.1)));
        let shutdown = Arc::new(AtomicBool::new(false));
        let g = gate.clone();
        let sd = shutdown.clone();
        let h = std::thread::spawn(move || g.run(SimDuration::from_secs(60), &sd));
        std::thread::sleep(Duration::from_millis(10));
        gate.close();
        assert!(!h.join().unwrap());
    }
}
