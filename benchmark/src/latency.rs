//! Open-loop client latency, timed from when each request was *due*.
//!
//! The live driver stamps a request when it actually sends it, so its
//! own latency hides the wait a late generator imposes. The schedule
//! says when each request was due; the driver sends in schedule order,
//! so the k-th send (ascending start time) is the k-th due time.
//! Requests that never completed leave no record: as long as they are
//! the last ones sent — true when the run stops with work in flight —
//! matching by rank is exact, and the unmatched due times are the tail.
//!
//! The scored percentiles are medians over one-second windows of the
//! window's percentile: a stall of the host lands in one or two windows
//! and leaves the median alone, where it would own the tail of the run.

use crate::stats;

/// Latencies of one live run, nanoseconds, ascending.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DueLatency {
    /// Completion minus due time, requests due in the window only.
    pub latency_ns: Vec<u64>,
    /// Send minus due time (how late the generator ran), same requests.
    pub late_ns: Vec<u64>,
}

/// Match `served` — `(start, completion)` ascending by start — against
/// the schedule's `due` times and keep requests due at or after
/// `window_start`.
pub fn from_due(due: &[u64], served: &[(u64, u64)], window_start: u64) -> DueLatency {
    let mut out = DueLatency::default();
    for (&due, &(start, done)) in due.iter().zip(served) {
        if due >= window_start {
            out.latency_ns.push(done.saturating_sub(due));
            out.late_ns.push(start.saturating_sub(due));
        }
    }
    out.latency_ns.sort_unstable();
    out.late_ns.sort_unstable();
    out
}

/// Percentile `q` of the latency from due time, per `window_ns`-long
/// window of due times between `from` and `until`; a window the range
/// cuts short is left out.
pub fn window_percentiles(
    due: &[u64],
    served: &[(u64, u64)],
    (from, until): (u64, u64),
    window_ns: u64,
    q: f64,
) -> Vec<u64> {
    let windows = (until.saturating_sub(from) / window_ns) as usize;
    let mut per_window = vec![Vec::new(); windows];
    for (&due, &(_, done)) in due.iter().zip(served) {
        if due >= from {
            if let Some(w) = per_window.get_mut(((due - from) / window_ns) as usize) {
                w.push(done.saturating_sub(due));
            }
        }
    }
    per_window
        .iter_mut()
        .filter_map(|w| {
            w.sort_unstable();
            stats::percentile(w, q)
        })
        .collect()
}

/// Completions per `window_ns`-long window of completion times in
/// `[0, until)`; a last window cut short is left out.
pub fn completions_per_window(served: &[(u64, u64)], until: u64, window_ns: u64) -> Vec<u64> {
    let mut counts = vec![0u64; (until / window_ns) as usize];
    for &(_, done) in served {
        if let Some(c) = counts.get_mut((done / window_ns) as usize) {
            *c += 1;
        }
    }
    counts
}

/// Percentile `q` of the time between consecutive completions, per
/// `window_ns`-long window of completion times in `[from, until)`; a
/// window the range cuts short is left out. Under overload, latency
/// from due time only measures how long the run has lasted; the time
/// until the next request gets served is what the substrate sets.
pub fn window_gap_percentiles(
    served: &[(u64, u64)],
    (from, until): (u64, u64),
    window_ns: u64,
    q: f64,
) -> Vec<u64> {
    let mut done: Vec<u64> = served.iter().map(|&(_, done)| done).collect();
    done.sort_unstable();
    let windows = (until.saturating_sub(from) / window_ns) as usize;
    let mut per_window = vec![Vec::new(); windows];
    for pair in done.windows(2) {
        if pair[1] >= from {
            if let Some(w) = per_window.get_mut(((pair[1] - from) / window_ns) as usize) {
                w.push(pair[1] - pair[0]);
            }
        }
    }
    per_window
        .iter_mut()
        .filter_map(|w| {
            w.sort_unstable();
            stats::percentile(w, q)
        })
        .collect()
}

/// Median of integer samples, as a float; 0 when empty.
pub fn median_of(values: &[u64]) -> f64 {
    let v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    stats::median(&v).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_the_generators_lateness() {
        // Due every 100; the generator sent request 1 late by 30.
        let due = [0, 100, 200, 300];
        let served = [(5, 50), (130, 190), (200, 260), (301, 400)];
        let l = from_due(&due, &served, 0);
        assert_eq!(l.latency_ns, [50, 60, 90, 100]);
        assert_eq!(l.late_ns, [0, 1, 5, 30]);
    }

    #[test]
    fn incomplete_tail_requests_stay_unmatched() {
        let due = [0, 100, 200, 300, 400];
        // The last two were still in flight when the run stopped.
        let served = [(0, 40), (100, 150), (205, 280)];
        let l = from_due(&due, &served, 0);
        assert_eq!(
            l.latency_ns,
            [40, 50, 80],
            "their due times find no partner"
        );
    }

    #[test]
    fn warmup_is_cut_by_due_time() {
        let due = [0, 100, 200];
        let served = [(0, 500), (100, 160), (200, 270)];
        let l = from_due(&due, &served, 100);
        assert_eq!(l.latency_ns, [60, 70], "the request due at 0 is warm-up");
        assert_eq!(l.late_ns, [0, 0]);
    }

    #[test]
    fn windows_group_by_due_time_and_drop_the_cut_one() {
        // Windows of 100 from 100: [100,200), [200,300); [300,350) is cut.
        let due = [0, 100, 150, 199, 200, 299, 300, 340];
        let served: Vec<(u64, u64)> = due.iter().map(|&d| (d, d + 10 + d / 10)).collect();
        let p50 = window_percentiles(&due, &served, (100, 350), 100, 50.0);
        assert_eq!(p50, [25, 30]);
        let p100 = window_percentiles(&due, &served, (100, 350), 100, 100.0);
        assert_eq!(p100, [29, 39]);
        // A stall in one window moves that window only.
        let mut stalled = served.clone();
        stalled[4].1 += 1_000;
        stalled[5].1 += 1_000;
        let p50 = window_percentiles(&due, &stalled, (100, 350), 100, 50.0);
        assert_eq!(p50, [25, 1_030]);
        assert_eq!(median_of(&[25, 26, 1_030]), 26.0);
    }

    #[test]
    fn gaps_between_completions_are_grouped_by_the_later_one() {
        // Completions at 10, 30, 60, 100 | 110, 190 | 250 (cut window).
        let served = [
            (0, 30),
            (0, 10),
            (0, 100),
            (0, 60),
            (0, 110),
            (0, 190),
            (0, 250),
        ];
        let p100 = window_gap_percentiles(&served, (0, 270), 100, 100.0);
        assert_eq!(
            p100,
            [30, 80],
            "gaps 20,30 | 40,10,80; 60 falls in the cut window"
        );
        let p50 = window_gap_percentiles(&served, (0, 270), 100, 50.0);
        assert_eq!(p50, [20, 40]);
        assert!(window_gap_percentiles(&[], (0, 100), 10, 50.0).is_empty());
    }

    #[test]
    fn completions_are_counted_by_completion_time() {
        let served = [(0, 50), (10, 99), (20, 100), (30, 250), (40, 320)];
        assert_eq!(completions_per_window(&served, 350, 100), [2, 1, 1]);
        assert_eq!(median_of(&[]), 0.0);
    }
}
