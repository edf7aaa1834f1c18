//! Online resource-sensitivity profiling (paper §III-C, Design Feature #3).
//!
//! Instead of offline profiling (impractical for microservices, whose
//! sensitivity curves shift with request rate and neighbours' allocations),
//! SurgeGuard keeps an exponential running average of the execution time of
//! each container *at each core count it has actually been observed at*:
//!
//! ```text
//! execAvg[container][#cores] = α·execAvg[container][#cores]
//!                            + (1−α)·newObservedTime[container]
//! ```
//!
//! NOTE on the α convention: the paper writes the update with α multiplying
//! the *old* value but then says "we use a large value of α (α = 0.5) to
//! weight newer execution times quite heavily". At α = 0.5 both conventions
//! coincide; we expose `new_weight` explicitly to avoid the ambiguity.
//!
//! The sensitivity of adding a core is the fractional reduction in average
//! execution time:
//!
//! ```text
//! sens[c][k] = 1 − execAvg[c][k+1] / execAvg[c][k]
//! ```
//!
//! Escalator uses this to (a) prefer upscaling containers with high
//! marginal sensitivity, and (b) *revoke* a core from a container when
//! `sens[c][cores−1] < 0.02` — i.e. when dropping from `cores` to `cores−1`
//! barely changes execution time, preventing containers with flat curves
//! from hogging cores (Fig. 6 right).

use serde::{Deserialize, Serialize};

/// Default cell expiry: with the 100 ms Escalator cycle this is ~5 s of
/// trust in an unrefreshed measurement.
pub(crate) const DEFAULT_MAX_AGE: u32 = 50;

/// Sensitivity matrix for one node's containers.
///
/// Rows are containers (dense ids), columns are core counts. Cells hold an
/// EWMA of observed execution time (in nanoseconds, as f64) at that
/// allocation, or `None` if the container was never observed there.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SensitivityMatrix {
    new_weight: f64,
    max_cores: usize,
    /// Cells expire after this many [`SensitivityMatrix::tick`]s without a
    /// fresh observation: the sensitivity curve of a microservice shifts
    /// with load, so surge-time measurements must not veto steady-state
    /// decisions forever (and vice versa).
    max_age: u32,
    /// `exec_avg[container][cores]` = (EWMA value, age in ticks);
    /// index 0 is unused (0 cores never runs).
    exec_avg: Vec<Vec<Option<(f64, u32)>>>,
}

impl SensitivityMatrix {
    /// Create a matrix for `containers` containers and core counts up to
    /// `max_cores` inclusive. `new_weight` is the EWMA weight given to each
    /// new observation (the paper's configuration corresponds to 0.5).
    pub fn new(containers: usize, max_cores: usize, new_weight: f64) -> Self {
        Self::with_max_age(containers, max_cores, new_weight, DEFAULT_MAX_AGE)
    }

    /// Like [`SensitivityMatrix::new`] with an explicit cell expiry age
    /// (in ticks).
    pub fn with_max_age(
        containers: usize,
        max_cores: usize,
        new_weight: f64,
        max_age: u32,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&new_weight),
            "new_weight must be in [0,1]"
        );
        assert!(max_cores >= 1, "need at least one core column");
        assert!(max_age >= 1, "cells must live at least one tick");
        SensitivityMatrix {
            new_weight,
            max_cores,
            max_age,
            exec_avg: vec![vec![None; max_cores + 1]; containers],
        }
    }

    /// Advance the staleness clock: ages every cell by one decision cycle
    /// and expires those not refreshed within `max_age` cycles.
    pub fn tick(&mut self) {
        for row in &mut self.exec_avg {
            for cell in row {
                if let Some((_, age)) = cell {
                    *age += 1;
                    if *age > self.max_age {
                        *cell = None;
                    }
                }
            }
        }
    }

    /// Record an observed mean execution time (ns) for `container` while it
    /// held `cores` cores. Observations at zero cores or above `max_cores`
    /// are ignored (they cannot arise from a valid allocator).
    pub fn observe(&mut self, container: usize, cores: usize, exec_time_ns: f64) {
        if cores == 0 || cores > self.max_cores || !exec_time_ns.is_finite() || exec_time_ns < 0.0 {
            return;
        }
        let cell = &mut self.exec_avg[container][cores];
        let value = match *cell {
            None => exec_time_ns,
            Some((prev, _)) => self.new_weight * exec_time_ns + (1.0 - self.new_weight) * prev,
        };
        *cell = Some((value, 0));
    }

    /// Age (in ticks since last refresh) of the cell at (`container`,
    /// `cores`), if present.
    pub(crate) fn cell_age(&self, container: usize, cores: usize) -> Option<u32> {
        self.exec_avg
            .get(container)
            .and_then(|row| row.get(cores))
            .copied()
            .flatten()
            .map(|(_, age)| age)
    }

    /// Like [`SensitivityMatrix::revoke_sens_step`] but only when both
    /// cells were measured within `max_age_gap` ticks of each other —
    /// comparing a fresh measurement against one from a different load
    /// regime (e.g. mid-surge vs steady state) predicts nothing.
    pub(crate) fn revoke_sens_step_fresh(
        &self,
        container: usize,
        cores: usize,
        step: usize,
        max_age_gap: u32,
    ) -> Option<f64> {
        if step == 0 || cores <= step {
            return None;
        }
        let age_hi = self.cell_age(container, cores)?;
        let age_lo = self.cell_age(container, cores - step)?;
        if age_hi.abs_diff(age_lo) > max_age_gap {
            return None;
        }
        self.revoke_sens_step(container, cores, step)
    }

    /// The running-average execution time for `container` at `cores`, if
    /// ever observed.
    pub fn exec_avg(&self, container: usize, cores: usize) -> Option<f64> {
        self.exec_avg
            .get(container)
            .and_then(|row| row.get(cores))
            .copied()
            .flatten()
            .map(|(v, _)| v)
    }

    /// Sensitivity of moving `container` from `cores` to `cores + 1`
    /// (fractional exec-time reduction). `None` when either cell has never
    /// been observed.
    pub(crate) fn sens(&self, container: usize, cores: usize) -> Option<f64> {
        let at = self.exec_avg(container, cores)?;
        let plus = self.exec_avg(container, cores + 1)?;
        if at <= 0.0 {
            return None;
        }
        Some(1.0 - plus / at)
    }

    /// Sensitivity *lost* by revoking `step` cores: the fractional
    /// slowdown expected from dropping `container` from `cores` to
    /// `cores − step` (`1 − execAvg[cores] / execAvg[cores − step]`).
    /// `None` when unobserved or when `step` would take the last core.
    /// Needed because real allocators move whole physical cores (two
    /// hyperthreads) at a time, so the single-core cells in between are
    /// never observed.
    pub(crate) fn revoke_sens_step(
        &self,
        container: usize,
        cores: usize,
        step: usize,
    ) -> Option<f64> {
        if step == 0 || cores <= step {
            return None;
        }
        let at = self.exec_avg(container, cores)?;
        let lower = self.exec_avg(container, cores - step)?;
        if lower <= 0.0 {
            return None;
        }
        Some(1.0 - at / lower)
    }

    /// Upscale priority: the fractional exec-time reduction expected from
    /// growing `container` from `cores` by `step`, or `None` if unknown.
    /// Escalator ranks `None` above low-but-known sensitivities, so the
    /// matrix fills in during transients.
    pub(crate) fn upscale_sens_step(
        &self,
        container: usize,
        cores: usize,
        step: usize,
    ) -> Option<f64> {
        let at = self.exec_avg(container, cores)?;
        let higher = self.exec_avg(container, cores + step)?;
        if at <= 0.0 {
            return None;
        }
        Some(1.0 - higher / at)
    }

    /// True when revoking `step` cores from `container` (currently at
    /// `cores`) is predicted to cost less than `threshold` fractional
    /// slowdown.
    ///
    /// Unobserved cells return `false`: without evidence we never revoke,
    /// matching the paper's conservative use of the matrix.
    pub(crate) fn can_revoke_step(
        &self,
        container: usize,
        cores: usize,
        step: usize,
        threshold: f64,
    ) -> bool {
        match self.revoke_sens_step(container, cores, step) {
            Some(s) => s < threshold,
            None => false,
        }
    }

    /// Read-only snapshot of every *known* marginal sensitivity for one
    /// container: `(cores, sens[c][cores])` for each core-count arm with
    /// both cells observed, ascending. This is what the metrics registry
    /// samples each decision cycle — one gauge per arm — so a timeline
    /// can show how the profile filled in and shifted around a surge.
    pub fn sens_arms(&self, container: usize) -> Vec<(usize, f64)> {
        (1..self.max_cores)
            .filter_map(|cores| self.sens(container, cores).map(|s| (cores, s)))
            .collect()
    }

    /// Forget everything about one container (e.g. after re-placement).
    pub(crate) fn reset_container(&mut self, container: usize) {
        for cell in &mut self.exec_avg[container] {
            *cell = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_initializes_cell() {
        let mut m = SensitivityMatrix::new(2, 8, 0.5);
        m.observe(0, 4, 1000.0);
        assert_eq!(m.exec_avg(0, 4), Some(1000.0));
        assert_eq!(m.exec_avg(1, 4), None);
    }

    #[test]
    fn ewma_blends_observations() {
        let mut m = SensitivityMatrix::new(1, 8, 0.5);
        m.observe(0, 4, 1000.0);
        m.observe(0, 4, 2000.0);
        assert_eq!(m.exec_avg(0, 4), Some(1500.0));
    }

    #[test]
    fn sens_measures_marginal_benefit() {
        let mut m = SensitivityMatrix::new(1, 8, 0.5);
        m.observe(0, 4, 1000.0);
        m.observe(0, 5, 800.0); // 20% faster with one more core
        let s = m.sens(0, 4).unwrap();
        assert!((s - 0.2).abs() < 1e-12);
    }

    #[test]
    fn sens_requires_both_cells() {
        let mut m = SensitivityMatrix::new(1, 8, 0.5);
        m.observe(0, 4, 1000.0);
        assert_eq!(m.sens(0, 4), None);
        assert_eq!(m.sens(0, 3), None);
    }

    #[test]
    fn revoke_uses_lower_cell_sensitivity() {
        let mut m = SensitivityMatrix::new(1, 8, 0.5);
        // Flat curve between 6 and 7 cores: 1% difference.
        m.observe(0, 6, 1000.0);
        m.observe(0, 7, 990.0);
        let rs = m.revoke_sens_step(0, 7, 1).unwrap();
        assert!((rs - 0.01).abs() < 1e-9);
        assert!(m.can_revoke_step(0, 7, 1, 0.02));
        assert!(!m.can_revoke_step(0, 7, 1, 0.005));
    }

    #[test]
    fn never_revoke_without_evidence_or_below_one_core() {
        let m = SensitivityMatrix::new(1, 8, 0.5);
        assert!(!m.can_revoke_step(0, 5, 1, 0.02));
        let mut m = SensitivityMatrix::new(1, 8, 0.5);
        m.observe(0, 1, 500.0);
        m.observe(0, 2, 500.0);
        assert!(
            !m.can_revoke_step(0, 1, 1, 0.02),
            "cannot revoke the last core"
        );
    }

    #[test]
    fn out_of_range_observations_ignored() {
        let mut m = SensitivityMatrix::new(1, 4, 0.5);
        m.observe(0, 0, 100.0);
        m.observe(0, 5, 100.0);
        m.observe(0, 2, f64::NAN);
        m.observe(0, 2, -5.0);
        assert_eq!(m.exec_avg(0, 2), None);
        assert_eq!(m.exec_avg(0, 4), None);
    }

    #[test]
    fn negative_sens_possible_when_more_cores_hurt() {
        // Observed slower at higher core count (e.g. measurement during a
        // surge): sensitivity is negative, never a revocation candidate at
        // sane thresholds but correctly ranked last for upscaling.
        let mut m = SensitivityMatrix::new(1, 8, 0.5);
        m.observe(0, 3, 1000.0);
        m.observe(0, 4, 1100.0);
        let s = m.sens(0, 3).unwrap();
        assert!(s < 0.0);
    }

    #[test]
    fn sens_arms_lists_only_known_arms() {
        let mut m = SensitivityMatrix::new(1, 8, 0.5);
        assert!(m.sens_arms(0).is_empty());
        m.observe(0, 4, 1000.0);
        m.observe(0, 5, 800.0);
        m.observe(0, 6, 780.0);
        let arms = m.sens_arms(0);
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[0].0, 4);
        assert!((arms[0].1 - 0.2).abs() < 1e-12);
        assert_eq!(arms[1].0, 5);
    }

    #[test]
    fn reset_container_clears_row() {
        let mut m = SensitivityMatrix::new(2, 4, 0.5);
        m.observe(0, 2, 10.0);
        m.observe(1, 2, 20.0);
        m.reset_container(0);
        assert_eq!(m.exec_avg(0, 2), None);
        assert_eq!(m.exec_avg(1, 2), Some(20.0));
    }
}
