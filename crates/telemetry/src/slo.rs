//! SLO error-budget accounting and multi-window burn-rate alerts.
//!
//! Follows the SRE-workbook multi-burn-rate pattern: an SLO objective
//! (e.g. 99.9% of requests within the QoS deadline) defines an error
//! budget of `1 - objective`; the *burn rate* over a window is the
//! window's bad-request fraction divided by that budget (burn 1.0 =
//! spending the budget exactly at the sustainable rate). Two rules fire
//! alerts: a **fast** burn over a short window (paging-grade: the
//! budget is being torched *now*) and a **slow** burn over a long
//! window (ticket-grade: a sustained leak). The thresholds are the
//! workbook's 14.4× / 6× pair.
//!
//! [`SloTracker`] keeps good/bad counts in coarse time buckets
//! (`BTreeMap<bucket, (total, bad)>`) plus cumulative totals, which
//! makes it a commutative monoid under [`SloTracker::merge`] like the
//! digests in [`crate::agg`] — per-node trackers merge into the exact
//! cluster tracker in any order. Burn rates are then computed on the
//! merged state, never merged themselves (rates do not average
//! soundly; counts do).

use sg_core::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Short alert window (paging-grade burn). The windows are compressed
/// from the SRE workbook's 5 m / 1 h to fit the seconds-scale runs this
/// repo drives (ours).
const FAST_WINDOW: SimDuration = SimDuration::from_secs(5);

/// Long alert window (ticket-grade burn; ours, see `FAST_WINDOW`).
const SLOW_WINDOW: SimDuration = SimDuration::from_secs(60);

/// Fast-burn alert threshold (× the sustainable rate; SRE workbook).
const FAST_BURN: f64 = 14.4;

/// Slow-burn alert threshold (× the sustainable rate; SRE workbook).
const SLOW_BURN: f64 = 6.0;

/// Time-bucket granularity for windowed counts (ours).
const BUCKET: SimDuration = SimDuration::from_millis(250);

/// SLO objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// Target good-request fraction in `(0,1)`, e.g. `0.999`. The error
    /// budget is `1 - objective`.
    pub objective: f64,
}

impl Default for SloConfig {
    /// 99.9% objective.
    fn default() -> Self {
        SloConfig { objective: 0.999 }
    }
}

impl SloConfig {
    /// Objective with `nines`-style percentage (e.g. `99.9`).
    pub fn with_objective_pct(mut self, pct: f64) -> Self {
        assert!(
            pct > 0.0 && pct < 100.0,
            "objective percent must be in (0,100)"
        );
        self.objective = pct / 100.0;
        self
    }

    /// Error budget: allowed bad fraction.
    pub(crate) fn budget(&self) -> f64 {
        1.0 - self.objective
    }
}

/// Multi-window burn verdict at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnVerdict {
    /// Burn rate over the fast window (`None`: no traffic in window).
    pub fast: Option<f64>,
    /// Burn rate over the slow window (`None`: no traffic in window).
    pub slow: Option<f64>,
    /// Fast rule firing (`fast >= 14.4`).
    pub fast_alert: bool,
    /// Slow rule firing (`slow >= 6`).
    pub slow_alert: bool,
    /// Fraction of the whole-run error budget left (can go negative;
    /// 1.0 when no traffic has been observed).
    pub budget_remaining: f64,
}

impl BurnVerdict {
    /// True when either rule is firing.
    pub fn alerting(&self) -> bool {
        self.fast_alert || self.slow_alert
    }
}

/// Windowed good/bad request counts with exact merge.
#[derive(Debug, Clone, PartialEq)]
pub struct SloTracker {
    cfg: SloConfig,
    /// bucket index (`at / BUCKET`) → (total, bad).
    buckets: BTreeMap<u64, (u64, u64)>,
    total: u64,
    bad: u64,
    /// Latest event timestamp seen (ns); the default "now" for verdicts.
    last_ns: u64,
}

impl SloTracker {
    /// Empty tracker.
    pub fn new(cfg: SloConfig) -> Self {
        assert!(
            cfg.objective > 0.0 && cfg.objective < 1.0,
            "objective must be in (0,1)"
        );
        SloTracker {
            cfg,
            buckets: BTreeMap::new(),
            total: 0,
            bad: 0,
            last_ns: 0,
        }
    }

    /// Record one request finishing at `at`.
    #[inline]
    pub(crate) fn record(&mut self, at: SimTime, bad: bool) {
        self.record_counts(at, 1, u64::from(bad));
    }

    /// Record a batch: `total` requests, `bad` of them violating, all
    /// attributed to `at`'s bucket (used when replaying cumulative
    /// `slo` events as deltas in `sg-watch`).
    pub fn record_counts(&mut self, at: SimTime, total: u64, bad: u64) {
        debug_assert!(bad <= total);
        let idx = at.as_nanos() / BUCKET.as_nanos();
        let b = self.buckets.entry(idx).or_insert((0, 0));
        b.0 += total;
        b.1 += bad;
        self.total += total;
        self.bad += bad;
        self.last_ns = self.last_ns.max(at.as_nanos());
    }

    /// Cumulative requests observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Cumulative violations observed.
    pub fn bad(&self) -> u64 {
        self.bad
    }

    /// Latest event timestamp observed.
    pub(crate) fn last_at(&self) -> SimTime {
        SimTime::from_nanos(self.last_ns)
    }

    /// Merge another tracker (same config required): pointwise bucket
    /// sum — exact, associative, commutative.
    pub fn merge(&mut self, other: &SloTracker) {
        assert_eq!(self.cfg, other.cfg, "SLO config mismatch");
        for (&idx, &(t, b)) in &other.buckets {
            let e = self.buckets.entry(idx).or_insert((0, 0));
            e.0 += t;
            e.1 += b;
        }
        self.total += other.total;
        self.bad += other.bad;
        self.last_ns = self.last_ns.max(other.last_ns);
    }

    /// `(total, bad)` over the window ending at `now` (bucket
    /// granularity; buckets overlapping the window count whole).
    fn window_counts(&self, window: SimDuration, now: SimTime) -> (u64, u64) {
        let bucket_ns = BUCKET.as_nanos();
        let start = now.as_nanos().saturating_sub(window.as_nanos()) / bucket_ns;
        let end = now.as_nanos() / bucket_ns;
        let mut total = 0u64;
        let mut bad = 0u64;
        for (_, &(t, b)) in self.buckets.range(start..=end) {
            total += t;
            bad += b;
        }
        (total, bad)
    }

    /// Burn rate over `window` ending at `now`: the window's bad
    /// fraction divided by the error budget. `None` when the window saw
    /// no traffic.
    pub(crate) fn burn_rate(&self, window: SimDuration, now: SimTime) -> Option<f64> {
        let (total, bad) = self.window_counts(window, now);
        (total > 0).then(|| (bad as f64 / total as f64) / self.cfg.budget())
    }

    /// Fraction of the cumulative error budget remaining.
    pub(crate) fn budget_remaining(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        1.0 - (self.bad as f64 / self.total as f64) / self.cfg.budget()
    }

    /// Evaluate both burn rules at `now`.
    pub fn verdict(&self, now: SimTime) -> BurnVerdict {
        let fast = self.burn_rate(FAST_WINDOW, now);
        let slow = self.burn_rate(SLOW_WINDOW, now);
        BurnVerdict {
            fast,
            slow,
            fast_alert: fast.is_some_and(|b| b >= FAST_BURN),
            slow_alert: slow.is_some_and(|b| b >= SLOW_BURN),
            budget_remaining: self.budget_remaining(),
        }
    }

    /// Evaluate both burn rules at the latest observed timestamp.
    pub fn verdict_at_last(&self) -> BurnVerdict {
        self.verdict(self.last_at())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn clean_traffic_burns_nothing() {
        let mut t = SloTracker::new(SloConfig::default());
        for i in 0..1000 {
            t.record(ms(i), false);
        }
        let v = t.verdict_at_last();
        assert_eq!(v.fast, Some(0.0));
        assert!(!v.alerting());
        assert_eq!(v.budget_remaining, 1.0);
    }

    #[test]
    fn heavy_violation_fires_fast_burn() {
        let mut t = SloTracker::new(SloConfig::default());
        // 50% bad at a 0.1% budget → burn 500× ≫ 14.4.
        for i in 0..1000 {
            t.record(ms(i), i % 2 == 0);
        }
        let v = t.verdict_at_last();
        assert!(v.fast_alert && v.slow_alert);
        assert!(v.budget_remaining < 0.0);
    }

    #[test]
    fn fast_window_recovers_when_violations_stop() {
        let cfg = SloConfig::default();
        let mut t = SloTracker::new(cfg.clone());
        // A bad burst early, then a long clean tail well past the fast
        // window: fast burn clears, cumulative budget stays spent.
        for i in 0..100 {
            t.record(ms(i), true);
        }
        for i in 0..10_000 {
            t.record(ms(10_000 + i), false);
        }
        let v = t.verdict_at_last();
        assert_eq!(v.fast, Some(0.0));
        assert!(!v.fast_alert);
        assert!(v.budget_remaining < 1.0);
    }

    #[test]
    fn merge_is_exact_and_order_independent() {
        let cfg = SloConfig::default();
        let mut whole = SloTracker::new(cfg.clone());
        let mut a = SloTracker::new(cfg.clone());
        let mut b = SloTracker::new(cfg.clone());
        for i in 0..5_000u64 {
            let bad = i % 17 == 0;
            whole.record(ms(i), bad);
            if i % 2 == 0 {
                a.record(ms(i), bad);
            } else {
                b.record(ms(i), bad);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab, whole);
        assert_eq!(ab.verdict_at_last(), whole.verdict_at_last());
    }

    #[test]
    fn empty_windows_yield_none() {
        let t = SloTracker::new(SloConfig::default());
        assert_eq!(t.burn_rate(SimDuration::from_secs(5), ms(0)), None);
        let v = t.verdict_at_last();
        assert!(!v.alerting());
        assert_eq!(v.budget_remaining, 1.0);
    }
}
