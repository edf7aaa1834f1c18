//! Streaming arrival schedules.
//!
//! An open-loop load schedule used to be materialized as one `Vec` of
//! timestamps before a run — 80 MB for a 10-million-request spike, all
//! resident for the whole run even though the simulator only ever looks
//! at the *next* arrival. [`ArrivalSource`] inverts that: the simulator
//! pulls arrivals one at a time (or a chunk at a time, for exporters),
//! and the generator keeps only its own cursor state. Generators promise
//! the same contract a materialized schedule had: ascending timestamps,
//! and a byte-identical sequence for the same profile parameters
//! regardless of chunk boundaries (see SCALING.md §3).

use crate::time::SimTime;
use std::sync::Arc;

/// A pull-based, ascending stream of request arrival times.
///
/// `Send` so multi-trial harnesses can move a source onto a worker
/// thread with the simulation that consumes it.
pub trait ArrivalSource: Send {
    /// Next arrival time, or `None` when the schedule is exhausted.
    /// Implementations must yield ascending (non-strictly) timestamps.
    fn next_arrival(&mut self) -> Option<SimTime>;

    /// Pull up to `max` arrivals into `out` (appending), returning how
    /// many were produced. This is the chunked-materialization hook:
    /// exporters fill a reused buffer batch by batch instead of holding
    /// the full schedule.
    fn next_chunk(&mut self, out: &mut Vec<SimTime>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.next_arrival() {
                Some(t) => {
                    out.push(t);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }
}

/// A fully materialized schedule served as a stream — the adapter that
/// lets pre-rendered (or shared, multi-trial) schedules flow through the
/// same [`ArrivalSource`] interface.
#[derive(Debug, Clone)]
pub struct ScheduleSource {
    times: Arc<[SimTime]>,
    cursor: usize,
}

impl ScheduleSource {
    /// Serve `times` (must be ascending) from the start.
    pub fn new(times: Arc<[SimTime]>) -> Self {
        debug_assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "schedule must be sorted"
        );
        ScheduleSource { times, cursor: 0 }
    }
}

impl ArrivalSource for ScheduleSource {
    fn next_arrival(&mut self) -> Option<SimTime> {
        let t = self.times.get(self.cursor).copied()?;
        self.cursor += 1;
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(ts: &[u64]) -> ScheduleSource {
        ScheduleSource::new(ts.iter().map(|&t| SimTime::from_nanos(t)).collect())
    }

    #[test]
    fn schedule_source_drains_in_order() {
        let mut src = s(&[1, 5, 9]);
        assert_eq!(src.next_arrival(), Some(SimTime::from_nanos(1)));
        assert_eq!(src.next_arrival(), Some(SimTime::from_nanos(5)));
        assert_eq!(src.next_arrival(), Some(SimTime::from_nanos(9)));
        assert_eq!(src.next_arrival(), None);
        assert_eq!(src.next_arrival(), None, "stays exhausted");
    }

    #[test]
    fn chunking_is_invisible_in_the_output() {
        let times: Vec<u64> = (0..1000).map(|i| i * 7).collect();
        let mut chunked = Vec::new();
        let mut src = s(&times);
        while src.next_chunk(&mut chunked, 64) > 0 {}
        let full: Vec<SimTime> = times.iter().map(|&t| SimTime::from_nanos(t)).collect();
        assert_eq!(chunked, full);
    }

    #[test]
    fn empty_schedule_yields_nothing() {
        let mut src = s(&[]);
        assert_eq!(src.next_arrival(), None);
        let mut out = Vec::new();
        assert_eq!(src.next_chunk(&mut out, 10), 0);
    }
}
