//! A centralized ML-class controller and the hybrid deployment of §VII.
//!
//! The paper's Table I characterizes ML controllers (Sage, Sinan): they
//! model inter-container dependencies and allocate *correctly* for steady
//! state, but a centralized inference server plus cross-node metric
//! collection pushes their decision granularity past one second — far too
//! slow for transient surges. §VII proposes running such a controller for
//! steady-state allocations with SurgeGuard guarding the gaps.
//!
//! [`Centralized`] models that class faithfully in its *timing*, and
//! generously in its *quality*: it sees the global request rate and the
//! true per-service work profile (what a trained model would have
//! learned), computes the demand-proportional allocation, and applies it
//! — but only after the collection + inference + distribution pipeline
//! latency, on a ≥ 1 s cadence.
//!
//! [`Hybrid`] composes it with SurgeGuard per §VII: the centralized brain
//! re-baselines allocations every interval; SurgeGuard handles everything
//! in between.

use parking_lot::Mutex;
use sg_core::ids::ContainerId;
use sg_core::metadata::RpcMetadata;
use sg_core::time::{SimDuration, SimTime};
use sg_sim::controller::{ControlAction, Controller, ControllerFactory, NodeInit, NodeSnapshot};
use std::collections::HashMap;
use std::sync::Arc;

/// Decision cadence (Table I: > 1 s for ML controllers).
const INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Metric collection + inference + decision distribution latency (ours):
/// allocations computed at tick `t` take effect at `t + PIPELINE`.
const PIPELINE: SimDuration = SimDuration::from_millis(500);

/// Target utilization of the computed allocation (ours).
const UTILIZATION: f64 = 0.65;

/// SurgeGuard core decisions are suppressed for this long after an ML
/// re-baseline lands, so the two don't fight over the same cores (ours).
const ML_GRACE: SimDuration = SimDuration::from_millis(200);

/// The global brain shared by every node's instance (the centralized
/// inference server). Nodes submit observed per-container request counts;
/// the brain derives the cluster-wide rate and the demand-proportional
/// allocation.
#[derive(Debug, Default)]
pub(crate) struct Brain {
    /// Most recent per-container request counts per window.
    observed: HashMap<ContainerId, u64>,
}

/// Per-node instance of the centralized controller.
pub(crate) struct Centralized {
    brain: Arc<Mutex<Brain>>,
    /// Per-request work of each local container (the model's knowledge).
    work: HashMap<ContainerId, SimDuration>,
    min_cores: u32,
    max_cores: u32,
    step: u32,
    total_cores: u32,
    /// Decisions waiting out the pipeline latency: `(ready_at, actions)`.
    in_flight: Vec<(SimTime, Vec<ControlAction>)>,
    /// Tick countdown: the controller wakes every `POLL` (to release
    /// delayed decisions) but only decides every `INTERVAL`.
    next_decision: SimTime,
}

/// Poll granularity for releasing pipeline-delayed decisions.
const POLL: SimDuration = SimDuration::from_millis(100);

impl Centralized {
    /// Build a node instance around the shared brain.
    pub(crate) fn new(
        brain: Arc<Mutex<Brain>>,
        init: &NodeInit,
        work: HashMap<ContainerId, SimDuration>,
    ) -> Self {
        Centralized {
            brain,
            work,
            min_cores: init.constraints.min_cores,
            max_cores: init.constraints.max_cores,
            step: init.constraints.core_step,
            total_cores: init.constraints.total_cores,
            in_flight: Vec::new(),
            next_decision: SimTime::ZERO + INTERVAL,
        }
    }

    /// Demand-proportional allocation for the local containers given the
    /// estimated per-container request rate.
    fn plan(&self, rates: &HashMap<ContainerId, f64>) -> Vec<ControlAction> {
        let mut wanted: Vec<(ContainerId, u32)> = self
            .work
            .iter()
            .map(|(&id, &w)| {
                let rate = rates.get(&id).copied().unwrap_or(0.0);
                let cores = (rate * w.as_secs_f64() / UTILIZATION).ceil() as u32;
                let stepped = cores.div_ceil(self.step) * self.step;
                (id, stepped.clamp(self.min_cores, self.max_cores))
            })
            .collect();
        wanted.sort_by_key(|(id, _)| *id);
        // Fit the node budget by shaving the largest allocations.
        let mut total: u32 = wanted.iter().map(|(_, c)| c).sum();
        while total > self.total_cores {
            let (_, c) = wanted
                .iter_mut()
                .max_by_key(|(_, c)| *c)
                .expect("non-empty");
            if *c <= self.min_cores {
                break;
            }
            *c -= self.step;
            total -= self.step;
        }
        wanted
            .into_iter()
            .map(|(id, cores)| ControlAction::SetCores { id, cores })
            .collect()
    }
}

impl Controller for Centralized {
    fn name(&self) -> &'static str {
        "ml-centralized"
    }

    fn tick_interval(&self) -> SimDuration {
        POLL
    }

    fn on_tick(&mut self, now: SimTime, snapshot: &NodeSnapshot) -> Vec<ControlAction> {
        // Submit fresh observations to the brain (cheap model of the
        // metric collection RPCs).
        {
            let mut brain = self.brain.lock();
            for c in &snapshot.containers {
                *brain.observed.entry(c.id).or_insert(0) = c.metrics.requests;
            }
        }

        // Release decisions whose pipeline delay has elapsed.
        let mut out = Vec::new();
        self.in_flight.retain(|(ready, actions)| {
            if *ready <= now {
                out.extend(actions.iter().copied());
                false
            } else {
                true
            }
        });

        if now >= self.next_decision {
            self.next_decision = now + INTERVAL;
            // Per-container rates from the last observation window.
            let rates: HashMap<ContainerId, f64> = {
                let brain = self.brain.lock();
                brain
                    .observed
                    .iter()
                    .map(|(&id, &reqs)| (id, reqs as f64 / POLL.as_secs_f64()))
                    .collect()
            };
            let actions = self.plan(&rates);
            self.in_flight.push((now + PIPELINE, actions));
        }
        out
    }
}

/// Factory for `Centralized`; all node instances share one brain.
#[derive(Clone, Default)]
pub struct CentralizedFactory {
    brain: Arc<Mutex<Brain>>,
}

impl ControllerFactory for CentralizedFactory {
    fn name(&self) -> &'static str {
        "ml-centralized"
    }

    fn make(&self, init: NodeInit) -> Box<dyn Controller> {
        let work = init
            .containers
            .iter()
            .map(|c| {
                // The "model" knows each service's true cost: use the
                // profiled low-load execMetric as its work estimate
                // (includes downstream response time; the utilization
                // target absorbs the overestimate).
                (c.id, c.params.expected_exec_metric.mul_f64(0.5))
            })
            .collect();
        Box::new(Centralized::new(Arc::clone(&self.brain), &init, work))
    }
}

/// §VII hybrid: the centralized controller re-baselines allocations on its
/// slow cadence; SurgeGuard (FirstResponder + Escalator) guards the gaps.
pub struct Hybrid {
    ml: Box<dyn Controller>,
    sg: Box<dyn Controller>,
    last_ml_action: SimTime,
}

impl Controller for Hybrid {
    fn name(&self) -> &'static str {
        "hybrid-ml+surgeguard"
    }

    fn tick_interval(&self) -> SimDuration {
        // The finer of the two cadences drives the tick; the ML side
        // self-paces internally.
        self.sg.tick_interval().min(self.ml.tick_interval())
    }

    fn on_tick(&mut self, now: SimTime, snapshot: &NodeSnapshot) -> Vec<ControlAction> {
        let mut actions = self.sg.on_tick(now, snapshot);
        let ml_actions = self.ml.on_tick(now, snapshot);
        if !ml_actions.is_empty() {
            self.last_ml_action = now;
            // The baseline wins where both spoke this tick: ML actions are
            // applied after (later actions override earlier ones).
            actions.extend(ml_actions);
        } else if now.saturating_since(self.last_ml_action) < ML_GRACE {
            // Drop SurgeGuard *core* decisions inside the grace window;
            // keep its frequency boosts (they are the surge mechanism).
            actions.retain(|a| !matches!(a, ControlAction::SetCores { .. }));
        }
        actions
    }

    fn on_packet(
        &mut self,
        now: SimTime,
        dest: ContainerId,
        meta: RpcMetadata,
    ) -> Vec<ControlAction> {
        self.sg.on_packet(now, dest, meta)
    }
}

/// Factory for [`Hybrid`]; the default pairs a fresh brain with the full
/// SurgeGuard.
#[derive(Clone, Default)]
pub struct HybridFactory {
    /// The centralized side (shared brain).
    pub ml: CentralizedFactory,
    /// The SurgeGuard side.
    pub sg: crate::surgeguard::SurgeGuardFactory,
}

impl ControllerFactory for HybridFactory {
    fn name(&self) -> &'static str {
        "hybrid-ml+surgeguard"
    }

    fn make(&self, init: NodeInit) -> Box<dyn Controller> {
        Box::new(Hybrid {
            ml: self.ml.make(init.clone()),
            sg: self.sg.make(init),
            last_ml_action: SimTime::ZERO,
        })
    }
}
