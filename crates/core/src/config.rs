//! Controller configuration: per-container QoS parameters and the
//! Escalator's ablation switches.
//!
//! SurgeGuard needs two parameters per container (paper §IV, "SurgeGuard
//! Parameters"): the expected execution metric (`expectedExecMetric`) and
//! the expected elapsed time since the start of the job
//! (`expectedTimeFromStart`). Following the paper (and Dirigent/Nightcore),
//! these are obtained by profiling the application at low load and setting
//! the targets to twice the measured values.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Per-container QoS parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContainerParams {
    /// Expected (target) value of `execMetric` for one request at this
    /// container. An observed `execMetric` above
    /// `EXEC_TH × expected_exec_metric` is an execution-time violation.
    pub expected_exec_metric: SimDuration,
    /// Expected elapsed time from job start to the arrival of a request at
    /// this container. Used by FirstResponder's per-packet slack (Eq. 4).
    pub expected_time_from_start: SimDuration,
}

impl ContainerParams {
    /// Derive parameters from low-load profiling measurements using the
    /// paper's rule: target = `factor` × the value measured at low load
    /// (the paper uses `factor = 2`).
    pub fn from_profile(
        measured_exec_metric: SimDuration,
        measured_time_from_start: SimDuration,
        factor: f64,
    ) -> Self {
        ContainerParams {
            expected_exec_metric: measured_exec_metric.mul_f64(factor),
            expected_time_from_start: measured_time_from_start.mul_f64(factor),
        }
    }
}

/// The multiplication factor between profiled low-load values and QoS
/// targets used throughout the paper's evaluation.
pub const PROFILE_TARGET_FACTOR: f64 = 2.0;

/// The Escalator's ablation switches (Fig. 15). Its thresholds are
/// constants next to the code that reads them: the Table II conditions in
/// [`crate::score`], the sensitivity and downscale rules in
/// [`crate::escalator`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EscalatorConfig {
    /// Ablation switch (Fig. 15): when false, Escalator ignores
    /// `queueBuildup`/hints and scores on raw `execTime` like a
    /// per-container controller ("Parties + sensitivity" configuration).
    pub use_new_metrics: bool,
    /// Ablation switch (Fig. 15): when false, Escalator skips
    /// sensitivity-based ranking and revocation
    /// ("Parties + new metrics" configuration).
    pub use_sensitivity: bool,
}

impl Default for EscalatorConfig {
    fn default() -> Self {
        EscalatorConfig {
            use_new_metrics: true,
            use_sensitivity: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_rule_doubles_measured_values() {
        let p = ContainerParams::from_profile(
            SimDuration::from_micros(100),
            SimDuration::from_micros(400),
            PROFILE_TARGET_FACTOR,
        );
        assert_eq!(p.expected_exec_metric, SimDuration::from_micros(200));
        assert_eq!(p.expected_time_from_start, SimDuration::from_micros(800));
    }
}
