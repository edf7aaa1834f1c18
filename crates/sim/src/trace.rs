//! Timeline recorders for the per-component analyses (paper Figs. 10 & 14).

use serde::{Deserialize, Serialize};
use sg_core::ids::ContainerId;
use sg_core::time::SimTime;

/// One allocation change.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AllocEvent {
    /// When the change was applied.
    pub at: SimTime,
    /// The container affected.
    pub container: ContainerId,
    /// Logical cores after the change.
    pub cores: u32,
    /// Frequency (GHz) after the change.
    pub freq_ghz: f64,
}

/// Records every allocation/frequency change of a run (opt-in — surge
/// sweeps keep it off to save memory).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AllocTrace {
    /// Changes in application order.
    pub events: Vec<AllocEvent>,
}

impl AllocTrace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one change.
    pub fn record(&mut self, at: SimTime, container: ContainerId, cores: u32, freq_ghz: f64) {
        self.events.push(AllocEvent {
            at,
            container,
            cores,
            freq_ghz,
        });
    }

    /// Step-function core allocation of `container` sampled at `times`
    /// (assumes `events` is time-ordered, which `record` guarantees).
    /// `initial` is the allocation before the first recorded change.
    pub fn cores_at(&self, container: ContainerId, times: &[SimTime], initial: u32) -> Vec<u32> {
        let mut out = Vec::with_capacity(times.len());
        let changes: Vec<&AllocEvent> = self
            .events
            .iter()
            .filter(|e| e.container == container)
            .collect();
        for &t in times {
            let cores = changes
                .iter()
                .take_while(|e| e.at <= t)
                .last()
                .map(|e| e.cores)
                .unwrap_or(initial);
            out.push(cores);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_follows_step_function() {
        let mut tr = AllocTrace::new();
        let c = ContainerId(1);
        tr.record(SimTime::from_secs(1), c, 4, 1.6);
        tr.record(SimTime::from_secs(3), c, 8, 1.6);
        tr.record(SimTime::from_secs(2), ContainerId(2), 16, 1.6); // other container
        let times: Vec<SimTime> = (0..5).map(SimTime::from_secs).collect();
        assert_eq!(tr.cores_at(c, &times, 2), vec![2, 4, 4, 8, 8]);
    }

    #[test]
    fn empty_trace_returns_initial() {
        let tr = AllocTrace::new();
        assert_eq!(
            tr.cores_at(ContainerId(0), &[SimTime::from_secs(9)], 6),
            vec![6]
        );
    }
}
