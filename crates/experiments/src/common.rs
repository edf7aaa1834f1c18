//! Shared experiment machinery: the run→report pipeline, multi-trial
//! aggregation (parallel over trials, see [`crate::parallel`]), and the
//! quick/full sizing profiles.

use crate::parallel;
use serde::Serialize;
use sg_core::time::{SimDuration, SimTime};
use sg_loadgen::{AggregateReport, RunReport, SpikePattern};
use sg_sim::controller::ControllerFactory;
use sg_sim::runner::{RunResult, Simulation};
use sg_workloads::PreparedWorkload;

/// Experiment sizing: `quick` keeps the whole suite tractable on a
/// laptop-class machine; `full` approaches the paper's protocol (longer
/// measurement windows, 17 trials with best/worst trimming).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ExpProfile {
    /// Trials per configuration (paper: 17).
    pub trials: usize,
    /// Warmup excluded from measurement.
    pub warmup: SimDuration,
    /// Measurement window length.
    pub measure: SimDuration,
    /// Base RNG seed; trial `i` uses `base_seed + i`.
    pub base_seed: u64,
}

impl ExpProfile {
    /// Laptop-scale profile: 3 surge cycles, 5 trials.
    pub fn quick() -> Self {
        ExpProfile {
            trials: 5,
            warmup: SimDuration::from_secs(5),
            measure: SimDuration::from_secs(30),
            base_seed: 1000,
        }
    }

    /// Paper-scale profile: 30 s warmup, 60 s measurement, 17 trials.
    pub fn full() -> Self {
        ExpProfile {
            trials: 17,
            warmup: SimDuration::from_secs(30),
            measure: SimDuration::from_secs(60),
            base_seed: 1000,
        }
    }

    /// Select by flag.
    pub fn new(full: bool) -> Self {
        if full {
            Self::full()
        } else {
            Self::quick()
        }
    }

    /// The RNG seed for trial `i`: `base_seed + i`.
    ///
    /// This is the harness-wide seed-derivation scheme (see DESIGN.md):
    /// a trial's seed depends only on the root seed and the trial index,
    /// never on execution order, so the parallel harness produces the
    /// exact trial set the serial one does — and arm `A`'s trial `i` and
    /// arm `B`'s trial `i` share a seed, giving paired (common random
    /// numbers) comparisons across controllers.
    pub fn trial_seed(&self, i: usize) -> u64 {
        self.base_seed + i as u64
    }
}

/// Run one trial of `pw` under `factory` and `pattern`.
pub fn run_one(
    pw: &PreparedWorkload,
    factory: &dyn ControllerFactory,
    pattern: &SpikePattern,
    warmup: SimDuration,
    measure: SimDuration,
    seed: u64,
    trace: bool,
) -> (RunReport, RunResult) {
    let mut cfg = pw.cfg.clone();
    let w_start = SimTime::ZERO + warmup;
    let w_end = w_start + measure;
    cfg.end = w_end + SimDuration::from_millis(200);
    cfg.measure_start = w_start;
    cfg.seed = seed;
    cfg.trace_allocations = trace;
    let arrivals = pattern.arrivals(SimTime::ZERO, w_end);
    let result = Simulation::new(cfg, factory, arrivals).run();
    let report = RunReport::from_points(
        &result.points,
        pw.qos,
        w_start,
        w_end,
        result.avg_cores,
        result.energy_j,
    );
    (report, result)
}

/// Run `profile.trials` independent trials in parallel and aggregate with
/// the paper's trimmed-mean protocol. Trial `i` runs with
/// [`ExpProfile::trial_seed`], making the report set identical whatever
/// the worker count.
pub fn run_trials(
    pw: &PreparedWorkload,
    factory: &(dyn ControllerFactory + Sync),
    pattern: &SpikePattern,
    profile: &ExpProfile,
) -> AggregateReport {
    let reports: Vec<RunReport> = parallel::par_map((0..profile.trials).collect(), |i| {
        let seed = profile.trial_seed(i);
        run_one(
            pw,
            factory,
            pattern,
            profile.warmup,
            profile.measure,
            seed,
            false,
        )
        .0
    });
    AggregateReport::from_reports(&reports)
}

/// Safe ratio for normalized reporting (paper figures normalize to
/// Parties): returns 1.0 when the baseline is ~zero and the value is too,
/// +inf when only the baseline is ~zero.
pub fn ratio(value: f64, baseline: f64) -> f64 {
    const EPS: f64 = 1e-12;
    if baseline.abs() < EPS {
        if value.abs() < EPS {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        value / baseline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_handles_degenerate_baselines() {
        assert_eq!(ratio(2.0, 4.0), 0.5);
        assert_eq!(ratio(0.0, 0.0), 1.0);
        assert!(ratio(1.0, 0.0).is_infinite());
    }

    #[test]
    fn profiles_differ() {
        let q = ExpProfile::quick();
        let f = ExpProfile::full();
        assert!(f.trials > q.trials);
        assert!(f.measure > q.measure);
        assert_eq!(ExpProfile::new(true).trials, f.trials);
        assert_eq!(ExpProfile::new(false).trials, q.trials);
    }
}
