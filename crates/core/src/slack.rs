//! Per-packet slack tracking — the FirstResponder detection primitive
//! (paper §IV-A, Eqs. 4–5).
//!
//! For every incoming RPC packet, FirstResponder compares the *observed*
//! progress of the end-to-end job against the *expected* progress at this
//! container:
//!
//! ```text
//! observedTimeFromStart = currentTime - pkt.startTime          (Eq. 5)
//! slack = expectedTimeFromStart - observedTimeFromStart        (Eq. 4)
//! ```
//!
//! Negative slack means the request is lagging and an end-to-end QoS
//! violation is likely unless this and downstream containers are upscaled.
//! Because the computation is per-packet (no averaging), a single lagging
//! request is enough to trigger mitigation — this is what gives SurgeGuard
//! its ~0.2 ms-scale reaction to 100 µs surges (Fig. 10a).

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Signed slack in nanoseconds. Negative = request is behind schedule.
pub(crate) type SlackNs = i64;

/// Compute the per-packet slack (Eqs. 4–5).
///
/// `expected_time_from_start` is the per-container parameter; `now` is the
/// packet arrival time at the rx hook; `pkt_start_time` is the job start
/// carried in the packet metadata.
#[inline]
pub fn per_packet_slack(
    expected_time_from_start: SimDuration,
    now: SimTime,
    pkt_start_time: SimTime,
) -> SlackNs {
    let observed = now.signed_delta_ns(pkt_start_time);
    expected_time_from_start.as_nanos() as i64 - observed
}

/// True when `slack` indicates a violation.
#[inline]
pub(crate) fn is_violation(slack: SlackNs) -> bool {
    slack < 0
}

/// What the rx hook saw when a request entered a container: the
/// per-packet slack (Eqs. 4–5) and the DVFS level the hop will execute
/// under. Span tracing stamps this on every hop so post-hoc analysis can
/// distinguish "slow because the work was slow" from "slow because the
/// request was already behind and the boost had not landed yet".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EntryAnnotation {
    /// Per-packet slack at arrival; negative = behind schedule.
    pub slack_ns: SlackNs,
    /// The container's DVFS level at arrival (0 = base frequency).
    pub freq_level: u8,
}

/// Capture the [`EntryAnnotation`] for one arriving request packet. Both
/// execution substrates call this at their rx hook so the stamped values
/// are computed identically.
#[inline]
pub fn annotate_entry(
    expected_time_from_start: SimDuration,
    now: SimTime,
    pkt_start_time: SimTime,
    freq_level: u8,
) -> EntryAnnotation {
    EntryAnnotation {
        slack_ns: per_packet_slack(expected_time_from_start, now, pkt_start_time),
        freq_level,
    }
}

/// Per-path cooldown bookkeeping ("Mitigating Frequent Updates", §IV-A).
///
/// Per-packet slack is noisy; once FirstResponder has upscaled a path it
/// holds that decision for a window (~2× the end-to-end request latency)
/// before allowing another change on the same path. Paths are identified by
/// a small dense index (in this codebase: the container the violating
/// packet was addressed to), so lookups are a single `Vec` access on the
/// packet hot path.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CooldownTable {
    window: SimDuration,
    /// Per-path time before which further updates are suppressed.
    hold_until: Vec<SimTime>,
}

impl CooldownTable {
    /// Create a table for `paths` paths with the given hold window.
    pub fn new(paths: usize, window: SimDuration) -> Self {
        CooldownTable {
            window,
            hold_until: vec![SimTime::ZERO; paths],
        }
    }

    /// Returns true if an update on `path` is currently allowed, and if so
    /// starts a new hold window at `now`. A single combined query+arm call
    /// keeps the hot path to one bounds check and one store.
    #[inline]
    pub fn try_fire(&mut self, path: usize, now: SimTime) -> bool {
        debug_assert!(path < self.hold_until.len(), "path index out of range");
        let slot = &mut self.hold_until[path];
        if now >= *slot {
            *slot = now + self.window;
            true
        } else {
            false
        }
    }

    /// True if `path` is currently held (without arming).
    #[inline]
    pub fn is_held(&self, path: usize, now: SimTime) -> bool {
        now < self.hold_until[path]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slack_positive_when_ahead_of_schedule() {
        // Expected to be 500us into the job; only 200us elapsed → +300us.
        let s = per_packet_slack(
            SimDuration::from_micros(500),
            SimTime::from_micros(1200),
            SimTime::from_micros(1000),
        );
        assert_eq!(s, 300_000);
        assert!(!is_violation(s));
    }

    #[test]
    fn slack_negative_when_lagging() {
        let s = per_packet_slack(
            SimDuration::from_micros(500),
            SimTime::from_micros(1800),
            SimTime::from_micros(1000),
        );
        assert_eq!(s, -300_000);
        assert!(is_violation(s));
    }

    #[test]
    fn zero_slack_is_not_a_violation() {
        let s = per_packet_slack(
            SimDuration::from_micros(500),
            SimTime::from_micros(1500),
            SimTime::from_micros(1000),
        );
        assert_eq!(s, 0);
        assert!(!is_violation(s));
    }

    #[test]
    fn cooldown_suppresses_within_window() {
        let mut t = CooldownTable::new(4, SimDuration::from_millis(2));
        let t0 = SimTime::from_millis(10);
        assert!(t.try_fire(1, t0));
        // Within the 2ms window: held.
        assert!(!t.try_fire(1, t0 + SimDuration::from_millis(1)));
        assert!(t.is_held(1, t0 + SimDuration::from_millis(1)));
        // Window expired: fires again.
        assert!(t.try_fire(1, t0 + SimDuration::from_millis(2)));
    }

    #[test]
    fn cooldown_is_per_path() {
        let mut t = CooldownTable::new(2, SimDuration::from_millis(5));
        let now = SimTime::from_secs(1);
        assert!(t.try_fire(0, now));
        assert!(t.try_fire(1, now), "other paths are unaffected");
        assert!(!t.try_fire(0, now));
    }

    #[test]
    fn entry_annotation_matches_raw_slack() {
        let ann = annotate_entry(
            SimDuration::from_micros(500),
            SimTime::from_micros(1800),
            SimTime::from_micros(1000),
            3,
        );
        assert_eq!(ann.slack_ns, -300_000);
        assert_eq!(ann.freq_level, 3);
        assert!(is_violation(ann.slack_ns));
    }

    #[test]
    fn fresh_table_allows_immediate_fire() {
        let mut t = CooldownTable::new(1, SimDuration::from_secs(1));
        assert!(t.try_fire(0, SimTime::ZERO));
    }
}
