//! CaladanAlgo — the Caladan core-allocation algorithm (Fried et al.,
//! OSDI'20) ported to a userspace controller, exactly as the paper's
//! evaluation does (§V):
//!
//! > "We implement the Caladan algorithm as a userspace controller. Since
//! > we do not use Caladan's custom networking stack, and lack visibility
//! > into the network queues, we use our proposed `queueBuildup` metric
//! > for the queueing delay measurement of CaladanAlgo."
//!
//! Caladan's algorithm is congestion-driven: grant a core the moment a
//! runtime shows queueing delay, revoke when it goes idle. Two properties
//! matter for the comparison:
//!
//! * it allocates **hyperthreads individually** (core step 1, §V);
//! * with `queueBuildup` as its congestion signal it (a) pours cores into
//!   the container *exhibiting* the queueing — the upstream victim, not
//!   the downstream cause (Fig. 14) — and (b) sees no congestion at all
//!   on connection-per-request workloads, never upscaling them (§VI-B:
//!   this is why its violation volume explodes on hotelReservation while
//!   its energy use is far lower).

use sg_core::allocator::{AllocConstraints, CoreLedger, HoldCounter};
use sg_core::config::ContainerParams;
use sg_core::ids::ContainerId;
use sg_core::time::{SimDuration, SimTime};
use sg_sim::controller::{ControlAction, Controller, ControllerFactory, NodeInit, NodeSnapshot};
use std::collections::HashMap;

/// Decision interval (ours). Real Caladan runs at 5–20 µs inside its
/// custom stack; as a userspace controller on the normal stack the
/// interval is far larger (paper Table I footnote).
const INTERVAL: SimDuration = SimDuration::from_millis(20);

/// Congestion threshold on `queueBuildup` (a ratio ≥ 1; ours, the same
/// value as Escalator's Table II threshold).
const CONGESTION_TH: f64 = 1.3;

/// Idle revocation (ours): revoke when `queueBuildup` is below this AND
/// execution time shows surplus.
const IDLE_TH: f64 = 1.05;

/// Surplus ratio for revocation (ours; execTime below this × target).
const SURPLUS_RATIO: f64 = 0.35;

/// Consecutive idle intervals before revoking a hyperthread (ours).
const REVOKE_HOLD: u32 = 10;

/// CaladanAlgo controller state for one node.
pub struct Caladan {
    params: HashMap<ContainerId, ContainerParams>,
    /// The node's constraints with a core step of one hyperthread.
    constraints: AllocConstraints,
    idle: HoldCounter<ContainerId>,
}

impl Caladan {
    /// Build from the node description.
    pub(crate) fn new(init: &NodeInit) -> Self {
        Caladan {
            params: init.containers.iter().map(|c| (c.id, c.params)).collect(),
            constraints: AllocConstraints {
                core_step: 1,
                ..init.constraints
            },
            idle: HoldCounter::new(REVOKE_HOLD),
        }
    }
}

impl Controller for Caladan {
    fn name(&self) -> &'static str {
        "caladan"
    }

    fn tick_interval(&self) -> SimDuration {
        INTERVAL
    }

    fn on_tick(&mut self, _now: SimTime, snapshot: &NodeSnapshot) -> Vec<ControlAction> {
        let mut actions = Vec::new();
        let mut ledger = CoreLedger::new(
            self.constraints,
            snapshot.containers.iter().map(|c| &c.alloc),
        );

        // Congested containers sorted by buildup severity.
        let mut congested: Vec<_> = snapshot
            .containers
            .iter()
            .filter(|c| c.metrics.requests > 0 && c.metrics.queue_buildup > CONGESTION_TH)
            .collect();
        congested.sort_by(|a, b| {
            b.metrics
                .queue_buildup
                .total_cmp(&a.metrics.queue_buildup)
                .then_with(|| a.id.cmp(&b.id))
        });

        for c in congested {
            self.idle.clear(c.id);
            // Caladan grants ONE hyperthread per congestion signal.
            if let Some(cores) = ledger.try_grow(&c.alloc) {
                actions.push(ControlAction::SetCores { id: c.id, cores });
            }
        }

        // Idle revocation.
        for c in &snapshot.containers {
            if c.metrics.requests == 0 {
                continue;
            }
            if c.metrics.queue_buildup > CONGESTION_TH {
                continue;
            }
            let target = self.params[&c.id].expected_exec_metric.as_nanos() as f64;
            let idle = c.metrics.queue_buildup < IDLE_TH
                && target > 0.0
                && (c.metrics.mean_exec_time.as_nanos() as f64) < SURPLUS_RATIO * target;
            if !idle {
                self.idle.clear(c.id);
            } else if self.idle.tick(c.id, ledger.can_shrink(&c.alloc)) {
                let cores = ledger
                    .try_shrink(&c.alloc)
                    .expect("ready means it can shrink");
                actions.push(ControlAction::SetCores { id: c.id, cores });
            }
        }

        actions
    }
}

/// Factory for [`Caladan`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CaladanFactory;

impl ControllerFactory for CaladanFactory {
    fn name(&self) -> &'static str {
        "caladan"
    }

    fn make(&self, init: NodeInit) -> Box<dyn Controller> {
        Box::new(Caladan::new(&init))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{node, snapshot, snapshot_queued};

    #[test]
    fn congestion_grants_exactly_one_hyperthread() {
        let mut c = Caladan::new(&node(&[(0, 4), (1, 4)], 1000));
        let a = c.on_tick(
            SimTime::from_millis(20),
            &snapshot_queued(&[(0, 4, 2000, 100, 2.0), (1, 4, 500, 100, 1.0)]),
        );
        assert_eq!(
            a,
            vec![ControlAction::SetCores {
                id: ContainerId(0),
                cores: 5
            }],
            "one hyperthread to the congested container, nothing else"
        );
    }

    #[test]
    fn no_congestion_no_upscale_ever() {
        // Massive exec violation but queueBuildup = 1: CaladanAlgo is
        // blind (the paper's hotelReservation failure mode).
        let mut c = Caladan::new(&node(&[(0, 4)], 1000));
        for i in 1..=20 {
            let a = c.on_tick(
                SimTime::from_millis(20 * i),
                &snapshot(&[(0, 4, 50_000, 100)]),
            );
            assert!(
                !a.iter()
                    .any(|x| matches!(x, ControlAction::SetCores { cores, .. } if *cores > 4)),
                "tick {i}: must never upscale without queueing, got {a:?}"
            );
        }
    }

    #[test]
    fn idle_revocation_needs_a_long_quiet_streak() {
        let mut c = Caladan::new(&node(&[(0, 8)], 1000));
        let quiet = snapshot(&[(0, 8, 100, 50)]);
        for i in 1..REVOKE_HOLD as u64 {
            let a = c.on_tick(SimTime::from_millis(20 * i), &quiet);
            assert!(a.is_empty(), "tick {i}: hold, got {a:?}");
        }
        let a = c.on_tick(SimTime::from_millis(20 * 10), &quiet);
        assert_eq!(
            a,
            vec![ControlAction::SetCores {
                id: ContainerId(0),
                cores: 7
            }]
        );
    }

    #[test]
    fn congestion_resets_the_idle_streak() {
        let mut c = Caladan::new(&node(&[(0, 8)], 1000));
        let quiet = snapshot(&[(0, 8, 100, 50)]);
        for i in 1..=5 {
            let _ = c.on_tick(SimTime::from_millis(20 * i), &quiet);
        }
        // Congestion burst resets.
        let _ = c.on_tick(
            SimTime::from_millis(120),
            &snapshot_queued(&[(0, 8, 2000, 100, 3.0)]),
        );
        for i in 7..=12 {
            let a = c.on_tick(SimTime::from_millis(20 * i), &quiet);
            assert!(
                !a.iter()
                    .any(|x| matches!(x, ControlAction::SetCores { cores, .. } if *cores < 9)),
                "tick {i}: streak must have reset"
            );
        }
    }
}
