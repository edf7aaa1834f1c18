//! The Escalator decision cycle (paper §IV-B) — the user-space slow path.
//!
//! Each cycle Escalator:
//!
//! 1. updates the online sensitivity matrix with the window's observed
//!    execution times (Design Feature #3),
//! 2. scores every local container against the three Table II conditions
//!    (Design Feature #2),
//! 3. **upscales**: candidates ordered by score (desc), then core
//!    sensitivity (desc), receive one core step each while spare cores
//!    last; candidates that cannot get cores get a frequency step instead,
//! 4. **downscales**: score-zero containers give cores back — first those
//!    whose sensitivity matrix says the marginal core is worthless
//!    (`sens < 0.02`), then Parties-style under-utilization victims,
//! 5. reverses stale frequency boosts on healthy containers.
//!
//! The struct is deliberately free of any simulator or OS dependency: it
//! consumes plain observations and emits plain actions, so the same code
//! drives the discrete-event harness, the unit tests, and (in a real
//! deployment) a cgroups/MSR backend.

use crate::allocator::{
    busy_ns, utilization, AllocAction, AllocConstraints, ContainerAlloc, CoreLedger, FreqTable,
    HoldCounter,
};
use crate::config::EscalatorConfig;
use crate::ids::ContainerId;
use crate::metrics::WindowMetrics;
use crate::score::{score_cycle, ContainerObservation, ScoreBoard};
use crate::sensitivity::SensitivityMatrix;
use crate::time::SimDuration;
use std::collections::HashMap;

/// EWMA coefficient for the sensitivity matrix (paper §IV-B: α = 0.5,
/// weighting new observations heavily so sensitivities track current
/// conditions).
const ALPHA: f64 = 0.5;

/// A core is revoked from a container when the sensitivity of its
/// marginal core falls below this (paper §IV-B: 0.02 "works well").
const SENS_REVOKE_TH: f64 = 0.02;

/// Base-allocator downscale rule (ours): a score-zero container whose
/// `execMetric` stays below `DOWNSCALE_FRAC × expected` for
/// `DOWNSCALE_HOLD_CYCLES` consecutive cycles gives back one core step.
const DOWNSCALE_FRAC: f64 = 0.5;

/// Consecutive under-utilized cycles required before a Parties-style
/// downscale (ours; guards against flapping on transient dips).
///
/// Give-back is deliberately slow (~5 s at the 100 ms cycle): returning
/// surge cores the moment a surge ends re-pays the escalation transient
/// on every recurrence. The paper's resource savings over Parties are
/// small (2–8 %), implying its Escalator also holds between surges.
const DOWNSCALE_HOLD_CYCLES: u32 = 50;

/// Decision cycles before an unrefreshed sensitivity-matrix cell expires
/// (ours; measurements from a different load regime must not steer
/// decisions forever).
const SENS_MAX_AGE_CYCLES: u32 = 150;

/// A core step is taken from a container only while its estimated busy
/// fraction on the cores left stays at or below this (ours): a
/// downstream service fed by a throttled upstream looks idle by latency
/// but not by utilization.
const MAX_SHAVE_UTILIZATION: f64 = 0.8;

/// Per-cycle input for one container: its observation plus current
/// allocation.
#[derive(Debug, Clone)]
pub struct EscalatorObservation {
    /// Metrics, params and local topology.
    pub obs: ContainerObservation,
    /// Current cores and frequency level.
    pub alloc: ContainerAlloc,
}

/// Output of one Escalator cycle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EscalatorDecision {
    /// Allocation changes to apply (absolute targets).
    pub actions: Vec<AllocAction>,
    /// Containers that must set `pkt.upscale` on outgoing RPCs this cycle.
    pub set_hint: Vec<ContainerId>,
    /// The raw scoreboard, exposed for tracing/ablation analysis.
    pub board: ScoreBoard,
}

/// The Escalator controller state for one node.
#[derive(Debug, Clone)]
pub struct Escalator {
    cfg: EscalatorConfig,
    constraints: AllocConstraints,
    freq_table: FreqTable,
    sens: SensitivityMatrix,
    /// Consecutive under-utilized cycles per container (for the
    /// Parties-style downscale hold).
    underutil: HoldCounter<ContainerId>,
    /// Per-container core floors — the calibrated steady-state baseline.
    /// The paper's deployment model reserves the initial allocation for
    /// the foreground application and treats the remaining node cores as
    /// an on-demand surge pool (shared with background work): revocation
    /// returns surge grants to that pool but never digs below baseline.
    floors: HashMap<ContainerId, u32>,
}

impl Escalator {
    /// Create an Escalator for a node.
    ///
    /// `max_container_id` bounds the dense container-id space so the
    /// sensitivity matrix can be `Vec`-indexed.
    pub fn new(
        cfg: EscalatorConfig,
        constraints: AllocConstraints,
        freq_table: FreqTable,
        max_container_id: usize,
    ) -> Self {
        constraints.validate().expect("invalid AllocConstraints");
        let sens = SensitivityMatrix::with_max_age(
            max_container_id + 1,
            constraints.max_cores as usize,
            ALPHA,
            SENS_MAX_AGE_CYCLES,
        );
        Escalator {
            cfg,
            constraints,
            freq_table,
            sens,
            underutil: HoldCounter::new(DOWNSCALE_HOLD_CYCLES),
            floors: HashMap::new(),
        }
    }

    /// Set the per-container baseline floors (typically each container's
    /// initial calibrated allocation). Containers without a floor fall
    /// back to the global `min_cores`.
    pub fn set_floors(&mut self, floors: impl IntoIterator<Item = (ContainerId, u32)>) {
        self.floors = floors.into_iter().collect();
    }

    /// True if a container on `cores` cores can give up one core step
    /// without digging below its floor (falling back to `min_cores`).
    fn above_floor(&self, id: ContainerId, cores: u32) -> bool {
        let floor = self.floors.get(&id).copied().unwrap_or(0);
        cores >= floor.max(self.constraints.min_cores) + self.constraints.core_step
    }

    /// Read-only view of the learned sensitivity matrix (for tracing and
    /// the Fig. 6 experiment).
    pub fn sensitivity(&self) -> &SensitivityMatrix {
        &self.sens
    }

    /// Forget the learned sensitivity profile of one container. Called
    /// after a crash/restart: the stored measurements describe the dead
    /// instance, so the Escalator must re-profile from scratch.
    pub fn reset_sensitivity(&mut self, container: ContainerId) {
        self.sens.reset_container(container.index());
    }

    /// Run one decision cycle over the node's containers. `window` is the
    /// length of the observation window behind each input's metrics (the
    /// decision-cycle period), used for utilization estimates.
    pub fn decide(
        &mut self,
        inputs: &[EscalatorObservation],
        window: SimDuration,
    ) -> EscalatorDecision {
        // Age out stale sensitivity evidence first: measurements taken
        // under a different load regime must not steer decisions forever.
        self.sens.tick();

        // -- 1. learn sensitivities ------------------------------------
        // The matrix tracks execMetric (local compute time): extra cores
        // speed up computation, not waiting for remote connections, so the
        // wait component would only pollute the curve. Windows observed
        // while FirstResponder holds a frequency boost are excluded —
        // Escalator reads the boost level from shFreq (here: the alloc
        // mirror), and a boosted container's execution times would
        // otherwise corrupt the per-core-count averages.
        for inp in inputs {
            let m = &inp.obs.metrics;
            if m.requests > 0 && inp.alloc.freq_level == 0 {
                self.sens.observe(
                    inp.obs.id.index(),
                    inp.alloc.cores as usize,
                    self.exec_signal(m) as f64,
                );
            }
        }

        // -- 2. score against Table II ---------------------------------
        let observations: Vec<ContainerObservation> = inputs
            .iter()
            .map(|i| self.scored_observation(&i.obs))
            .collect();
        let board = score_cycle(&observations);

        // Working copy of allocations, updated as actions accumulate so a
        // container is never granted and revoked within one cycle.
        let mut plan = Plan {
            ledger: CoreLedger::new(self.constraints, inputs.iter().map(|i| &i.alloc)),
            allocs: inputs.iter().map(|i| (i.obs.id, i.alloc)).collect(),
            actions: Vec::new(),
        };

        // -- 3. upscale ------------------------------------------------
        // Candidates ordered by score desc, then sensitivity desc (unknown
        // sensitivity ranks above known-low: worth exploring), then id for
        // determinism.
        let mut candidates: Vec<(ContainerId, u32)> = board
            .scores
            .iter()
            .copied()
            .filter(|(_, s)| *s > 0)
            .collect();
        candidates.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| {
                    let sa = self.upscale_rank(a.0, &plan.allocs);
                    let sb = self.upscale_rank(b.0, &plan.allocs);
                    sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal)
                })
                .then_with(|| a.0.cmp(&b.0))
        });

        let mut starved: Vec<ContainerId> = Vec::new();
        // At most ONE donor shave per cycle: the base allocator moves a
        // single unit at a time (Parties-style). Anything faster can strip
        // a downstream container that merely *looks* idle because the
        // saturated upstream throttles its input — a hole the controller
        // then cannot dig itself out of.
        let mut donor_used = false;
        for &(id, _) in &candidates {
            if plan.grow(id) {
                continue;
            }
            // Try to free a step from a score-zero victim, then retry.
            if !donor_used && self.free_one_step(inputs, &board, window, &mut plan) {
                donor_used = true;
                if plan.grow(id) {
                    continue;
                }
            }
            starved.push(id);
        }

        // Candidates that could not get cores are boosted in frequency
        // instead (Escalator manages both resources, §IV).
        for id in starved {
            let level = plan.allocs[&id].freq_level;
            if level < self.freq_table.max_level() {
                plan.set_freq(id, level + 1);
            }
        }

        // -- 4. downscale healthy containers ----------------------------
        for inp in inputs {
            let id = inp.obs.id;
            if board.score_of(id) > 0 {
                self.underutil.clear(id);
                continue;
            }
            let cur = plan.allocs[&id];

            // -- 3½. frequency→core conversion ---------------------------
            // A container that is healthy only because FirstResponder is
            // holding its frequency up (Escalator reads the boost from
            // shFreq) is really under-provisioned in cores: a frequency
            // boost is an energy-expensive stopgap (P ∝ f³), cores are the
            // sustainable resource. Substitute the boost's full capacity
            // with cores in one cycle — the boost must retire before
            // FirstResponder's next re-boost, or frequencies stay pinned
            // at maximum for the whole surge and the energy advantage of
            // core-based scaling is lost. If spare cores cannot cover the
            // whole capacity, keep the smallest residual boost that does.
            if cur.freq_level > 0 {
                let target_capacity = cur.cores as f64 * self.freq_table.speedup(cur.freq_level);
                // Cap conversion at two steps per cycle: a single spurious
                // boost (noise tail) must not double a container's cores.
                let growth_cap = cur.cores + 2 * self.constraints.core_step;
                let mut grown = cur;
                while (grown.cores as f64) < target_capacity && grown.cores < growth_cap {
                    match plan.ledger.try_grow(&grown) {
                        Some(n) => grown.cores = n,
                        None => break,
                    }
                }
                if grown.cores != cur.cores {
                    plan.set_cores(id, grown.cores);
                }
                let residual = target_capacity / grown.cores as f64;
                let level = if residual <= 1.0 {
                    0
                } else {
                    // Could not fully substitute: keep the smallest boost
                    // that preserves capacity, minus one level so the
                    // boost still trends downward (FirstResponder will
                    // re-raise it if violations persist).
                    self.freq_table
                        .level_for_speedup(residual)
                        .min(cur.freq_level.saturating_sub(1))
                };
                if level != cur.freq_level {
                    plan.set_freq(id, level);
                }
                continue;
            }

            // 4a. sensitivity-based revocation (Design Feature #3). The
            // execAvg comparison can mix load regimes (the lower cell may
            // predate a surge), so the utilization estimate must also
            // clear the revocation.
            let step = self.constraints.core_step as usize;
            if self.cfg.use_sensitivity
                && self.shave_fits(&inp.obs.metrics, window, cur.cores)
                && self.above_floor(id, cur.cores)
                && self
                    .sens
                    .can_revoke_step(id.index(), cur.cores as usize, step, SENS_REVOKE_TH)
            {
                plan.shrink(id);
            } else {
                // 4b. Parties-style under-utilization downscale — vetoed
                // when the sensitivity matrix has *evidence* that the
                // smaller allocation was meaningfully slower (Fig. 6
                // right: exec-time rules alone thrash on the downscale
                // threshold; the execAvg matrix is what stabilizes them).
                // Stale evidence may not BLOCK a downscale: a cell
                // measured mid-surge would otherwise pin the post-surge
                // allocation high until it expires. (Stale evidence may
                // still ENABLE a 4a revocation above — a wrong revoke is
                // self-correcting via the normal upscale path.)
                let vetoed = self.cfg.use_sensitivity
                    && self
                        .sens
                        .revoke_sens_step_fresh(id.index(), cur.cores as usize, step, 5)
                        .is_some_and(|cost| cost >= SENS_REVOKE_TH);
                let m = &inp.obs.metrics;
                let expected = inp.obs.params.expected_exec_metric.as_nanos() as f64;
                // Exec-time slack alone is a noisy downscale signal (a
                // mid-tier container's execMetric is dominated by
                // downstream time); require the post-shave utilization
                // estimate to stay comfortable too.
                let under = !vetoed
                    && self.shave_fits(m, window, cur.cores)
                    && m.requests > 0
                    && expected > 0.0
                    && (self.exec_signal(m) as f64) < DOWNSCALE_FRAC * expected;
                if under {
                    if self.underutil.tick(id, self.above_floor(id, cur.cores)) {
                        plan.shrink(id);
                    }
                } else {
                    self.underutil.clear(id);
                }
            }
        }

        EscalatorDecision {
            actions: plan.actions,
            set_hint: if self.cfg.use_new_metrics {
                board.set_hint.clone()
            } else {
                Vec::new()
            },
            board,
        }
    }

    /// The execution-time signal used for scoring/sensitivity: `execMetric`
    /// normally, raw `execTime` when the new metrics are ablated away.
    fn exec_signal(&self, m: &WindowMetrics) -> u64 {
        if self.cfg.use_new_metrics {
            m.mean_exec_metric.as_nanos()
        } else {
            m.mean_exec_time.as_nanos()
        }
    }

    /// Build the observation actually fed to the Table II scorer, applying
    /// the ablation switches.
    fn scored_observation(&self, obs: &ContainerObservation) -> ContainerObservation {
        if self.cfg.use_new_metrics {
            return obs.clone();
        }
        // Ablated: behave like a per-container controller — raw execTime as
        // the violation signal, no hidden-queue or hint awareness.
        let mut m = obs.metrics;
        m.mean_exec_metric = m.mean_exec_time;
        m.queue_buildup = 1.0;
        m.upscale_hints = 0;
        ContainerObservation {
            id: obs.id,
            metrics: m,
            params: obs.params,
            local_downstream: Vec::new(),
        }
    }

    /// Ranking key for upscale priority among equal scores. Higher is
    /// better; unknown sensitivity ranks above everything (explore).
    fn upscale_rank(&self, id: ContainerId, allocs: &HashMap<ContainerId, ContainerAlloc>) -> f64 {
        if !self.cfg.use_sensitivity {
            return 0.0;
        }
        let cores = allocs[&id].cores as usize;
        let step = self.constraints.core_step as usize;
        self.sens
            .upscale_sens_step(id.index(), cores, step)
            .unwrap_or(f64::INFINITY)
    }

    /// True if a container on `cores` cores can give up one core step and
    /// stay at or below `MAX_SHAVE_UTILIZATION`: total observed
    /// execMetric over the window, spread across the cores left. This
    /// over-estimates for mid-tier services (execMetric includes
    /// downstream RPC time), which errs on the side of *not* raiding them.
    fn shave_fits(&self, m: &WindowMetrics, window: SimDuration, cores: u32) -> bool {
        let after = cores.saturating_sub(self.constraints.core_step);
        after > 0
            && !window.is_zero()
            && utilization(busy_ns(m.mean_exec_metric, m.requests), window, after)
                <= MAX_SHAVE_UTILIZATION
    }

    /// Free one core step from the best score-zero victim. Victim order:
    /// lowest revoke-sensitivity first (when known and the sensitivity
    /// mechanism is enabled), then largest allocation. A container that
    /// fails [`Self::shave_fits`] is never a victim. Returns true if a
    /// step was freed.
    fn free_one_step(
        &self,
        inputs: &[EscalatorObservation],
        board: &ScoreBoard,
        window: SimDuration,
        plan: &mut Plan,
    ) -> bool {
        let allocs = &plan.allocs;
        let mut victims: Vec<ContainerId> = board
            .scores
            .iter()
            .filter(|(_, s)| *s == 0)
            .map(|(id, _)| *id)
            // A frequency-boosted container only *looks* healthy — the
            // boost is an active mitigation. Raiding its cores hands the
            // true bottleneck's resources to the container showing the
            // symptom.
            .filter(|id| allocs[id].freq_level == 0)
            .filter(|id| self.above_floor(*id, allocs[id].cores))
            .filter(|id| {
                let inp = inputs
                    .iter()
                    .find(|i| i.obs.id == *id)
                    .expect("scored id came from inputs");
                self.shave_fits(&inp.obs.metrics, window, allocs[id].cores)
            })
            .collect();
        victims.sort_by(|a, b| {
            let ra = self.victim_rank(*a, allocs);
            let rb = self.victim_rank(*b, allocs);
            ra.partial_cmp(&rb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| allocs[b].cores.cmp(&allocs[a].cores))
                .then_with(|| a.cmp(b))
        });
        victims.first().is_some_and(|&victim| plan.shrink(victim))
    }

    /// Victim ordering key: lower = revoked first.
    fn victim_rank(&self, id: ContainerId, allocs: &HashMap<ContainerId, ContainerAlloc>) -> f64 {
        if !self.cfg.use_sensitivity {
            return 0.0;
        }
        self.sens
            .revoke_sens_step(
                id.index(),
                allocs[&id].cores as usize,
                self.constraints.core_step as usize,
            )
            .unwrap_or(0.5)
    }
}

/// One cycle's working allocations: the core ledger, each container's
/// allocation as actions accumulate, and the actions.
struct Plan {
    ledger: CoreLedger,
    allocs: HashMap<ContainerId, ContainerAlloc>,
    actions: Vec<AllocAction>,
}

impl Plan {
    /// Grant `id` one core step if the ledger allows it.
    fn grow(&mut self, id: ContainerId) -> bool {
        let grown = self.ledger.try_grow(&self.allocs[&id]);
        grown.inspect(|&cores| self.set_cores(id, cores)).is_some()
    }

    /// Take one core step from `id` if the ledger allows it.
    fn shrink(&mut self, id: ContainerId) -> bool {
        let shrunk = self.ledger.try_shrink(&self.allocs[&id]);
        shrunk.inspect(|&cores| self.set_cores(id, cores)).is_some()
    }

    fn set_cores(&mut self, id: ContainerId, cores: u32) {
        self.allocs.get_mut(&id).unwrap().cores = cores;
        self.actions.push(AllocAction::SetCores { id, cores });
    }

    fn set_freq(&mut self, id: ContainerId, level: u8) {
        self.allocs.get_mut(&id).unwrap().freq_level = level;
        self.actions.push(AllocAction::SetFreq { id, level });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ContainerParams;

    fn constraints(total: u32) -> AllocConstraints {
        AllocConstraints {
            total_cores: total,
            min_cores: 2,
            max_cores: 16,
            core_step: 2,
        }
    }

    fn params(expected_us: u64) -> ContainerParams {
        ContainerParams {
            expected_exec_metric: SimDuration::from_micros(expected_us),
            expected_time_from_start: SimDuration::from_micros(expected_us * 4),
        }
    }

    fn make_input(
        id: u32,
        cores: u32,
        exec_metric_us: u64,
        qb: f64,
        hints: u64,
        expected_us: u64,
        downstream: &[u32],
    ) -> EscalatorObservation {
        let exec_time_us = (exec_metric_us as f64 * qb) as u64;
        EscalatorObservation {
            obs: ContainerObservation {
                id: ContainerId(id),
                metrics: WindowMetrics {
                    requests: 50,
                    mean_exec_time: SimDuration::from_micros(exec_time_us),
                    mean_exec_metric: SimDuration::from_micros(exec_metric_us),
                    queue_buildup: qb,
                    upscale_hints: hints,
                },
                params: params(expected_us),
                local_downstream: downstream.iter().map(|&d| ContainerId(d)).collect(),
            },
            alloc: ContainerAlloc {
                id: ContainerId(id),
                cores,
                freq_level: 0,
            },
        }
    }

    fn new_escalator(total_cores: u32) -> Escalator {
        Escalator::new(
            EscalatorConfig::default(),
            constraints(total_cores),
            FreqTable::cascade_lake(),
            8,
        )
    }

    fn cores_assigned(actions: &[AllocAction], id: u32) -> Option<u32> {
        actions.iter().rev().find_map(|a| match a {
            AllocAction::SetCores { id: c, cores } if c.0 == id => Some(*cores),
            _ => None,
        })
    }

    #[test]
    fn healthy_cluster_makes_no_core_grants() {
        let mut e = new_escalator(16);
        let inputs = vec![
            make_input(0, 4, 100, 1.0, 0, 200, &[1]),
            make_input(1, 4, 100, 1.0, 0, 200, &[]),
        ];
        let d = e.decide(&inputs, SimDuration::from_millis(100));
        assert!(!d.board.any_candidates());
        assert!(d
            .actions
            .iter()
            .all(|a| !matches!(a, AllocAction::SetCores { .. })));
    }

    #[test]
    fn fig5c_threadpool_surge_upscales_both_containers() {
        // The paper's Fig. 5(c): c0 has an exec violation (thread
        // contention) AND queue buildup; c1 (downstream) is idle-looking.
        // Both must be upscaled.
        let mut e = new_escalator(32);
        let inputs = vec![
            make_input(0, 4, 450, 2.5, 0, 200, &[1]),
            make_input(1, 4, 150, 1.0, 0, 200, &[]),
        ];
        let d = e.decide(&inputs, SimDuration::from_millis(100));
        assert_eq!(cores_assigned(&d.actions, 0), Some(6), "c0 upscaled");
        assert_eq!(cores_assigned(&d.actions, 1), Some(6), "c1 upscaled");
        assert_eq!(d.set_hint, vec![ContainerId(0)]);
    }

    #[test]
    fn exhausted_pool_frees_from_score_zero_victims() {
        // 12 total cores fully allocated: c0 violating (needs more), c1
        // healthy with plenty. Escalator must shrink c1 to grow c0.
        let mut e = new_escalator(12);
        let inputs = vec![
            make_input(0, 4, 500, 1.0, 0, 200, &[]),
            make_input(1, 8, 50, 1.0, 0, 200, &[]),
        ];
        let d = e.decide(&inputs, SimDuration::from_millis(100));
        assert_eq!(cores_assigned(&d.actions, 0), Some(6));
        assert_eq!(cores_assigned(&d.actions, 1), Some(6));
    }

    #[test]
    fn starved_candidate_gets_frequency_boost() {
        // Pool exhausted and the only other container is also a candidate:
        // no victim to shrink → frequency boost instead.
        let mut e = new_escalator(8);
        let inputs = vec![
            make_input(0, 4, 500, 1.0, 0, 200, &[]),
            make_input(1, 4, 500, 1.0, 0, 200, &[]),
        ];
        let d = e.decide(&inputs, SimDuration::from_millis(100));
        let freq_boosts: Vec<_> = d
            .actions
            .iter()
            .filter(|a| matches!(a, AllocAction::SetFreq { level, .. } if *level > 0))
            .collect();
        assert_eq!(freq_boosts.len(), 2, "both starved candidates boosted");
    }

    #[test]
    fn sensitivity_revocation_frees_flat_curve_containers() {
        let mut e = new_escalator(32);
        // Teach the matrix that c1 is flat between 6 and 8 cores. With
        // core_step 2 the revoke check looks at sens going 8 → 6.
        e.sens.observe(1, 6, 1000.0);
        e.sens.observe(1, 8, 995.0);
        // sens(6→7) unknown; seed 7 too so revoke_sens(8)=sens(7) exists.
        e.sens.observe(1, 7, 998.0);
        let inputs = vec![make_input(1, 8, 100, 1.0, 0, 300, &[])];
        let d = e.decide(&inputs, SimDuration::from_millis(100));
        assert_eq!(
            cores_assigned(&d.actions, 1),
            Some(6),
            "flat-sensitivity container loses a core step"
        );
    }

    #[test]
    fn underutilization_downscale_requires_hold() {
        let cfg = EscalatorConfig {
            use_sensitivity: false, // isolate the Parties-style rule
            ..Default::default()
        };
        let mut e = Escalator::new(cfg, constraints(32), FreqTable::cascade_lake(), 8);
        // exec 40us vs expected 200us → far under 0.5×expected.
        let inputs = vec![make_input(0, 8, 40, 1.0, 0, 200, &[])];
        for cycle in 1..DOWNSCALE_HOLD_CYCLES {
            let d = e.decide(&inputs, SimDuration::from_millis(100));
            assert_eq!(cores_assigned(&d.actions, 0), None, "cycle {cycle}: hold");
        }
        let d = e.decide(&inputs, SimDuration::from_millis(100));
        assert_eq!(cores_assigned(&d.actions, 0), Some(6), "last cycle: shrink");
    }

    #[test]
    fn ablation_no_new_metrics_misses_hidden_dependency() {
        // Fig. 5(b): with the new metrics disabled, only the container with
        // inflated raw execTime (c0) is scaled; the true bottleneck (c1)
        // is missed. This is exactly the failure mode the paper ascribes
        // to per-container controllers.
        let cfg = EscalatorConfig {
            use_new_metrics: false,
            ..Default::default()
        };
        let mut e = Escalator::new(cfg, constraints(32), FreqTable::cascade_lake(), 8);
        // c0: execMetric low (150us < expected) but execTime inflated by
        // conn-wait (qb = 4 → execTime 600us).
        let inputs = vec![
            make_input(0, 4, 150, 4.0, 0, 200, &[1]),
            make_input(1, 4, 150, 1.0, 0, 200, &[]),
        ];
        let d = e.decide(&inputs, SimDuration::from_millis(100));
        assert_eq!(cores_assigned(&d.actions, 0), Some(6), "c0 wrongly scaled");
        assert_eq!(cores_assigned(&d.actions, 1), None, "c1 missed");
        assert!(d.set_hint.is_empty(), "no hints without new metrics");
    }

    #[test]
    fn with_new_metrics_same_scenario_targets_downstream() {
        let mut e = new_escalator(32);
        let inputs = vec![
            make_input(0, 4, 150, 4.0, 0, 200, &[1]),
            make_input(1, 4, 150, 1.0, 0, 200, &[]),
        ];
        let d = e.decide(&inputs, SimDuration::from_millis(100));
        assert_eq!(
            cores_assigned(&d.actions, 0),
            None,
            "c0's execMetric is healthy: not a candidate"
        );
        assert_eq!(cores_assigned(&d.actions, 1), Some(6), "c1 upscaled");
    }

    #[test]
    fn boosted_healthy_container_converts_frequency_into_cores() {
        // Level 3 on 4 cores = 1.375x speedup = 5.5 core-equivalents; with
        // spare cores available the boost is fully substituted: 6 cores at
        // base frequency.
        let mut e = new_escalator(16);
        let mut inp = make_input(0, 4, 100, 1.0, 0, 300, &[]);
        inp.alloc.freq_level = 3;
        let d = e.decide(&[inp], SimDuration::from_millis(100));
        assert!(d
            .actions
            .iter()
            .any(|a| matches!(a, AllocAction::SetCores { cores: 6, .. })));
        assert!(d
            .actions
            .iter()
            .any(|a| matches!(a, AllocAction::SetFreq { level: 0, .. })));
    }

    #[test]
    fn boosted_container_without_spare_cores_decays_slowly() {
        // Pool exhausted by another container: only a one-level decay.
        let mut e = new_escalator(8);
        let mut inp = make_input(0, 4, 100, 1.0, 0, 300, &[]);
        inp.alloc.freq_level = 3;
        let other = make_input(1, 4, 100, 1.0, 0, 300, &[]);
        let d = e.decide(&[inp, other], SimDuration::from_millis(100));
        assert!(d
            .actions
            .iter()
            .any(|a| matches!(a, AllocAction::SetFreq { level: 2, .. })));
        assert!(!d
            .actions
            .iter()
            .any(|a| matches!(a, AllocAction::SetCores { .. })));
    }

    #[test]
    fn higher_score_wins_the_last_core_step() {
        // Only one step spare. c0 fails two conditions (hint + exec), c1
        // fails one (exec). c0 must get the step.
        let mut e = new_escalator(10);
        let inputs = vec![
            make_input(0, 4, 500, 1.0, 3, 200, &[]),
            make_input(1, 4, 500, 1.0, 0, 200, &[]),
        ];
        let d = e.decide(&inputs, SimDuration::from_millis(100));
        assert_eq!(cores_assigned(&d.actions, 0), Some(6));
        assert_eq!(cores_assigned(&d.actions, 1), None);
    }

    #[test]
    fn decisions_are_deterministic() {
        let run = || {
            let mut e = new_escalator(12);
            let inputs = vec![
                make_input(0, 4, 500, 2.0, 1, 200, &[1]),
                make_input(1, 4, 300, 1.0, 0, 200, &[]),
                make_input(2, 4, 100, 1.0, 0, 200, &[]),
            ];
            e.decide(&inputs, SimDuration::from_millis(100))
        };
        assert_eq!(run(), run());
    }
}
