//! Smart-HPA-style autoscaler: a resource-efficient horizontal pod
//! autoscaler (Ahmad et al., "Smart HPA: A Resource-Efficient Horizontal
//! Pod Auto-scaler for Microservice Architectures", arXiv:2403.07909),
//! adapted to the harness' replica-group actuators.
//!
//! Smart HPA's defining properties, which the zoo comparison depends on:
//!
//! * **the HPA formula per microservice manager**: `desired =
//!   ceil(current_replicas × utilization / target_utilization)`, from
//!   averaged CPU utilization over the decision interval — a purely
//!   horizontal controller (per-replica cores are never touched);
//! * **the resource-efficiency exchange**: under a constrained node
//!   budget the hierarchical manager first *releases* replicas of
//!   overprovisioned groups, then grants scale-outs to the neediest
//!   groups only as far as the (spare + released) budget reaches —
//!   unlike vanilla HPA it never issues demands the node cannot host;
//! * **downscale hysteresis**: a group must be overprovisioned for
//!   several consecutive intervals before its replicas are released.
//!
//! Node-local like the rest of the zoo: it manages the groups whose
//! primary its node hosts, and relies on the engine's drain-then-retire
//! semantics for safe scale-in.

use crate::groups::{local_primaries, GroupLoad};
use sg_core::allocator::HoldCounter;
use sg_core::ids::{ContainerId, ServiceId};
use sg_core::replica::ReplicaLayout;
use sg_core::time::{SimDuration, SimTime};
use sg_sim::controller::{ControlAction, Controller, ControllerFactory, NodeInit, NodeSnapshot};
use std::collections::HashMap;

/// Decision interval (ours).
const INTERVAL: SimDuration = SimDuration::from_millis(500);

/// Target per-group CPU utilization driving the HPA formula (ours).
const TARGET_UTILIZATION: f64 = 0.5;

/// Consecutive overprovisioned intervals before replicas release (ours).
const DOWN_HOLD: u32 = 3;

/// Smart HPA controller state for one node.
pub struct SmartHpaController {
    layout: ReplicaLayout,
    /// Local service groups (by primary), ascending for determinism.
    groups: Vec<ServiceId>,
    /// Cores a fresh replica of each group spawns with (the engine
    /// grants the calibrated initial allocation).
    spawn_cores: HashMap<ServiceId, u32>,
    total_cores: u32,
    down_hold: HoldCounter<ServiceId>,
}

impl SmartHpaController {
    /// Build from the node description.
    pub fn new(init: &NodeInit) -> Self {
        let layout = ReplicaLayout::from_bounds(init.max_container_id, init.max_replicas);
        let primaries = local_primaries(&layout, init);
        SmartHpaController {
            groups: primaries.iter().map(|&(svc, _)| svc).collect(),
            spawn_cores: primaries
                .iter()
                .map(|&(svc, c)| (svc, c.initial.cores))
                .collect(),
            layout,
            total_cores: init.constraints.total_cores,
            down_hold: HoldCounter::new(DOWN_HOLD),
        }
    }
}

impl Controller for SmartHpaController {
    fn name(&self) -> &'static str {
        "smart-hpa"
    }

    fn tick_interval(&self) -> SimDuration {
        INTERVAL
    }

    fn on_tick(&mut self, _now: SimTime, snapshot: &NodeSnapshot) -> Vec<ControlAction> {
        let views = GroupLoad::by_group(&self.layout, snapshot);

        // Microservice managers: the HPA formula per group.
        let mut releases: Vec<(ServiceId, u32, u32)> = Vec::new(); // (svc, desired, freed)
        let mut wants: Vec<(ServiceId, u32, f64)> = Vec::new(); // (svc, desired, util)
        for &svc in &self.groups {
            let Some(g) = views.get(&svc) else { continue };
            let utilization = g.utilization(INTERVAL).unwrap_or(0.0);
            let desired = ((g.replicas as f64 * utilization / TARGET_UTILIZATION).ceil() as u32)
                .clamp(1, self.layout.max_replicas);
            if desired < g.replicas {
                if self.down_hold.tick(svc, true) {
                    // Credit the mean per-replica footprint of the
                    // replicas being drained back to the exchange.
                    let freed = (g.replicas - desired) * (g.cores / g.replicas.max(1));
                    releases.push((svc, desired, freed));
                }
            } else {
                self.down_hold.clear(svc);
                if desired > g.replicas {
                    wants.push((svc, desired, utilization));
                }
            }
        }

        // Resource-efficiency exchange: releases free budget first, then
        // the neediest groups are granted as far as the budget reaches.
        let mut actions = Vec::new();
        let allocated: u32 = snapshot.containers.iter().map(|c| c.alloc.cores).sum();
        let mut budget = self.total_cores.saturating_sub(allocated);
        for &(svc, desired, freed) in &releases {
            budget += freed;
            actions.push(ControlAction::SetReplicas {
                id: ContainerId(self.layout.slot_of(svc, 0) as u32),
                replicas: desired,
            });
        }
        wants.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        for (svc, desired, _) in wants {
            let g = &views[&svc];
            let per_replica = self.spawn_cores.get(&svc).copied().unwrap_or(1).max(1);
            let affordable = budget / per_replica;
            let extra = (desired - g.replicas).min(affordable);
            if extra == 0 {
                continue;
            }
            budget -= extra * per_replica;
            actions.push(ControlAction::SetReplicas {
                id: ContainerId(self.layout.slot_of(svc, 0) as u32),
                replicas: g.replicas + extra,
            });
        }
        actions
    }
}

/// Factory for [`SmartHpaController`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SmartHpaFactory;

impl ControllerFactory for SmartHpaFactory {
    fn name(&self) -> &'static str {
        "smart-hpa"
    }

    fn make(&self, init: NodeInit) -> Box<dyn Controller> {
        Box::new(SmartHpaController::new(&init))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{node, snapshot, NodeInitExt};

    /// Two services, up to 4 replicas each, on a `total`-core node:
    /// slots 0..2 are primaries; replica slots of svc0 are 2..5 and of
    /// svc1 are 5..8.
    fn init(allocs: &[(u32, u32)], total: u32) -> NodeInit {
        node(allocs, 1000).budget(total, 8).replicas(2, 4)
    }

    #[test]
    fn hpa_formula_scales_out_on_high_utilization() {
        let mut h = SmartHpaController::new(&init(&[(0, 4)], 32));
        // 3600 × 500us busy in a 500ms × 4-core window: util 0.9 →
        // desired = ceil(1 × 0.9/0.5) = 2; 28 spare cores afford it.
        let a = h.on_tick(SimTime::from_millis(500), &snapshot(&[(0, 4, 500, 3600)]));
        assert_eq!(
            a,
            vec![ControlAction::SetReplicas {
                id: ContainerId(0),
                replicas: 2
            }]
        );
    }

    #[test]
    fn utilization_on_target_is_stable() {
        let mut h = SmartHpaController::new(&init(&[(0, 4)], 32));
        // 2000 × 500us busy: util exactly 0.5 → desired = current = 1.
        let a = h.on_tick(SimTime::from_millis(500), &snapshot(&[(0, 4, 500, 2000)]));
        assert!(a.is_empty(), "on-target group must not move: {a:?}");
    }

    #[test]
    fn downscale_waits_for_sustained_overprovisioning() {
        let mut h = SmartHpaController::new(&init(&[(0, 4)], 32));
        // Two replicas (slots 0 and 2) at util 0.1 → desired 1, held
        // back for down_hold = 3 intervals.
        let snap = snapshot(&[(0, 4, 500, 400), (2, 4, 500, 400)]);
        for i in 1..=2u64 {
            let a = h.on_tick(SimTime::from_millis(500 * i), &snap);
            assert!(a.is_empty(), "tick {i}: hysteresis must hold, got {a:?}");
        }
        let a = h.on_tick(SimTime::from_millis(1500), &snap);
        assert_eq!(
            a,
            vec![ControlAction::SetReplicas {
                id: ContainerId(0),
                replicas: 1
            }]
        );
    }

    #[test]
    fn scale_out_without_budget_is_withheld() {
        // 8-core node fully allocated to one group: vanilla HPA would
        // demand a third replica anyway; Smart HPA withholds it.
        let mut h = SmartHpaController::new(&init(&[(0, 4)], 8));
        let a = h.on_tick(
            SimTime::from_millis(500),
            &snapshot(&[(0, 4, 500, 3600), (2, 4, 500, 3600)]),
        );
        assert!(a.is_empty(), "no budget → no demand, got {a:?}");
    }

    #[test]
    fn exchange_releases_overprovisioned_before_granting() {
        // 16-core node fully allocated: svc0 (slots 0, 2) saturated,
        // svc1 (slots 1, 5) idle. The exchange drains svc1 and spends
        // the freed cores on svc0 — in that order.
        let mut h = SmartHpaController::new(&init(&[(0, 4), (1, 4)], 16));
        let snap = snapshot(&[
            (0, 4, 500, 3600),
            (2, 4, 500, 3600),
            (1, 4, 500, 10),
            (5, 4, 500, 10),
        ]);
        // While svc1's hysteresis holds there is no budget: nothing moves.
        for i in 1..=2u64 {
            let a = h.on_tick(SimTime::from_millis(500 * i), &snap);
            assert!(a.is_empty(), "tick {i}: exchange not yet open, got {a:?}");
        }
        let a = h.on_tick(SimTime::from_millis(1500), &snap);
        assert_eq!(
            a,
            vec![
                ControlAction::SetReplicas {
                    id: ContainerId(1),
                    replicas: 1
                },
                ControlAction::SetReplicas {
                    id: ContainerId(0),
                    replicas: 3
                },
            ]
        );
    }

    #[test]
    fn idle_windows_are_ignored() {
        let mut h = SmartHpaController::new(&init(&[(0, 4)], 32));
        let a = h.on_tick(SimTime::from_millis(500), &snapshot(&[(0, 4, 99_999, 0)]));
        assert!(a.is_empty());
    }
}
