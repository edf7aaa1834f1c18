//! Wall-clock ↔ simulated-time mapping.
//!
//! The live backend runs 1:1 against the wall clock: `SimTime` zero is the
//! instant the run started, and one simulated nanosecond is one real
//! nanosecond. Everything downstream (controllers, metrics, reports) keeps
//! using `SimTime`/`SimDuration`, so results from both substrates are
//! directly comparable.

use sg_core::time::SimTime;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Maximum single sleep slice; threads wake at least this often so stop
/// flags are observed promptly during shutdown.
const SLEEP_SLICE: Duration = Duration::from_millis(20);

/// The run's timebase.
#[derive(Debug, Clone)]
pub(crate) struct LiveClock {
    origin: Instant,
}

impl LiveClock {
    /// Start the clock; `SimTime::ZERO` is *now*.
    pub(crate) fn start() -> Self {
        LiveClock {
            origin: Instant::now(),
        }
    }

    /// Current time on the run's clock.
    #[inline]
    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_nanos(self.origin.elapsed().as_nanos() as u64)
    }

    /// The wall-clock instant corresponding to simulated time `t`.
    #[inline]
    pub(crate) fn instant_at(&self, t: SimTime) -> Instant {
        self.origin + Duration::from_nanos(t.as_nanos())
    }

    /// Sleep until simulated time `t` (returns immediately if already past).
    pub(crate) fn sleep_until(&self, t: SimTime) {
        std::thread::sleep(self.instant_at(t).saturating_duration_since(Instant::now()));
    }

    /// Sleep until `t` in short slices, aborting early when `stop` is set.
    /// Returns `true` if `t` was reached, `false` on stop.
    pub(crate) fn sleep_until_or_stop(&self, t: SimTime, stop: &AtomicBool) -> bool {
        let target = self.instant_at(t);
        loop {
            if stop.load(Ordering::Relaxed) {
                return false;
            }
            let now = Instant::now();
            if now >= target {
                return true;
            }
            std::thread::sleep((target - now).min(SLEEP_SLICE));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone_and_maps_instants() {
        let clock = LiveClock::start();
        let a = clock.now();
        std::thread::sleep(Duration::from_millis(2));
        let b = clock.now();
        assert!(b > a);
        assert!(clock.instant_at(b) > clock.instant_at(a));
    }

    #[test]
    fn sleep_until_reaches_target() {
        let clock = LiveClock::start();
        let t = SimTime::from_millis(5);
        clock.sleep_until(t);
        assert!(clock.now() >= t);
    }

    #[test]
    fn sleep_until_or_stop_honours_stop() {
        let clock = LiveClock::start();
        let stop = AtomicBool::new(true);
        assert!(!clock.sleep_until_or_stop(SimTime::from_secs(60), &stop));
    }
}
