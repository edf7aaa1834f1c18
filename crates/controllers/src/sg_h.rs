//! SurgeGuard-H: the full SurgeGuard controller (FirstResponder +
//! Escalator, unchanged) extended with horizontal replica scaling for
//! *sustained* capacity shortfall.
//!
//! The division of labour follows the paper's timescale argument (§IV):
//! FirstResponder absorbs microsecond surges with DVFS, Escalator
//! reshuffles cores on the decision cycle — both are intra-node and act
//! within milliseconds. Replica scaling is the slowest tier: only when a
//! service group's aggregate utilization stays beyond threshold for
//! `HOLD` consecutive decision cycles does SurgeGuard-H add (or drain)
//! one replica, leaving every faster correction to the wrapped vertical
//! controller. One step per group per trigger keeps the horizontal tier
//! from oscillating against Escalator's core moves.
//!
//! The inner SurgeGuard is constructed over the *whole* replica-slot
//! space of the node's groups (params and FirstResponder expectations
//! are inherited from each primary), so replicas spawned at runtime get
//! fast-path boosts and Escalator cores exactly like primaries do.

use crate::groups::{local_primaries, GroupLoad};
use crate::surgeguard::{SurgeGuard, SurgeGuardConfig};
use sg_core::allocator::{ContainerAlloc, HoldCounter};
use sg_core::ids::{ContainerId, ServiceId};
use sg_core::metadata::RpcMetadata;
use sg_core::replica::ReplicaLayout;
use sg_core::time::{SimDuration, SimTime};
use sg_sim::controller::{
    ContainerInit, ControlAction, Controller, ControllerFactory, NodeInit, NodeSnapshot,
};
use sg_telemetry::{MetricSample, SharedSink};
use std::collections::HashSet;

/// Group utilization above which a sustained shortfall adds a replica
/// (ours).
const HIGH_UTILIZATION: f64 = 0.75;

/// Group utilization below which a sustained surplus drains one (ours).
const LOW_UTILIZATION: f64 = 0.25;

/// Consecutive decision cycles beyond threshold before acting (ours):
/// 5 × the 100 ms Escalator cycle gives vertical scaling half a second to
/// solve the surge intra-node first.
const HOLD: u32 = 5;

/// The per-node SurgeGuard-H instance.
pub(crate) struct SurgeGuardH {
    inner: SurgeGuard,
    layout: ReplicaLayout,
    /// Local service groups (by primary), ascending for determinism.
    groups: Vec<ServiceId>,
    high_hold: HoldCounter<ServiceId>,
    low_hold: HoldCounter<ServiceId>,
}

impl SurgeGuardH {
    /// Build from the node description.
    pub(crate) fn new(init: &NodeInit) -> Self {
        let layout = ReplicaLayout::from_bounds(init.max_container_id, init.max_replicas);
        // Hand the inner controller every replica slot of the node's
        // groups, not just the initially active ones: replicas inherit
        // the primary's profile, and inactive slots start at a zero-core
        // floor so Escalator revocation can return them fully.
        let known: HashSet<usize> = init.containers.iter().map(|c| c.id.index()).collect();
        let primaries = local_primaries(&layout, init);
        let mut expanded = init.clone();
        for &(svc, c) in &primaries {
            for slot in layout.slots_of(svc) {
                if known.contains(&slot) {
                    continue;
                }
                expanded.containers.push(ContainerInit {
                    id: ContainerId(slot as u32),
                    service: svc,
                    name: c.name.clone(),
                    params: c.params,
                    local_downstream: c.local_downstream.clone(),
                    initial: ContainerAlloc {
                        id: ContainerId(slot as u32),
                        cores: 0,
                        freq_level: 0,
                    },
                });
            }
        }
        SurgeGuardH {
            inner: SurgeGuard::new(SurgeGuardConfig::default(), &expanded),
            layout,
            groups: primaries.iter().map(|&(svc, _)| svc).collect(),
            high_hold: HoldCounter::new(HOLD),
            low_hold: HoldCounter::new(HOLD),
        }
    }
}

impl Controller for SurgeGuardH {
    fn name(&self) -> &'static str {
        "sg-h"
    }

    fn tick_interval(&self) -> SimDuration {
        self.inner.tick_interval()
    }

    fn on_packet(
        &mut self,
        now: SimTime,
        dest: ContainerId,
        meta: RpcMetadata,
    ) -> Vec<ControlAction> {
        self.inner.on_packet(now, dest, meta)
    }

    fn attach_telemetry(&mut self, sink: SharedSink) {
        self.inner.attach_telemetry(sink);
    }

    fn metric_samples(&mut self, now: SimTime, out: &mut Vec<MetricSample>) {
        self.inner.metric_samples(now, out);
    }

    fn on_tick(&mut self, now: SimTime, snapshot: &NodeSnapshot) -> Vec<ControlAction> {
        // The vertical tier runs untouched over all active slots.
        let mut actions = self.inner.on_tick(now, snapshot);

        // The horizontal tier: sustained group-level utilization.
        let views = GroupLoad::by_group(&self.layout, snapshot);
        for &svc in &self.groups {
            let Some(g) = views.get(&svc) else { continue };
            let Some(utilization) = g.utilization(self.tick_interval()) else {
                continue;
            };
            let primary = ContainerId(self.layout.slot_of(svc, 0) as u32);
            if utilization > HIGH_UTILIZATION
                && g.requests > 0
                && g.replicas < self.layout.max_replicas
            {
                self.low_hold.clear(svc);
                if self.high_hold.tick(svc, true) {
                    actions.push(ControlAction::SetReplicas {
                        id: primary,
                        replicas: g.replicas + 1,
                    });
                }
            } else if utilization < LOW_UTILIZATION && g.replicas > 1 {
                self.high_hold.clear(svc);
                if self.low_hold.tick(svc, true) {
                    actions.push(ControlAction::SetReplicas {
                        id: primary,
                        replicas: g.replicas - 1,
                    });
                }
            } else {
                self.high_hold.clear(svc);
                self.low_hold.clear(svc);
            }
        }
        actions
    }
}

/// Factory for `SurgeGuardH`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SurgeGuardHFactory;

impl ControllerFactory for SurgeGuardHFactory {
    fn name(&self) -> &'static str {
        "sg-h"
    }

    fn make(&self, init: NodeInit) -> Box<dyn Controller> {
        Box::new(SurgeGuardH::new(&init))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{chain, snapshot, NodeInitExt};

    /// Two-service chain c0 → c1, up to 2 replicas each: slots 0 and 1
    /// are primaries, slot 2 is svc0's replica, slot 3 svc1's.
    fn init() -> NodeInit {
        chain().budget(16, 8).replicas(2, 2)
    }

    #[test]
    fn late_packet_fast_path_is_preserved() {
        let mut sg = SurgeGuardH::new(&init());
        let meta = RpcMetadata::new_job(SimTime::ZERO);
        let a = sg.on_packet(SimTime::from_millis(5), ContainerId(0), meta);
        assert_eq!(
            a,
            vec![
                ControlAction::SetFreq {
                    id: ContainerId(0),
                    level: 8
                },
                ControlAction::SetFreq {
                    id: ContainerId(1),
                    level: 8
                },
            ]
        );
    }

    #[test]
    fn sustained_saturation_adds_a_replica() {
        let mut sg = SurgeGuardH::new(&init());
        // svc0 at 4 cores with 900 × 500us busy per 100 ms window:
        // utilization 1.125 — saturated, but only after HOLD cycles does
        // the horizontal tier move.
        let snap = snapshot(&[(0, 4, 500, 900), (1, 4, 500, 200)]);
        for i in 1..HOLD as u64 {
            let a = sg.on_tick(SimTime::from_millis(100 * i), &snap);
            assert!(
                !a.iter()
                    .any(|x| matches!(x, ControlAction::SetReplicas { .. })),
                "cycle {i}: vertical tier must get first shot, got {a:?}"
            );
        }
        let a = sg.on_tick(SimTime::from_millis(100 * HOLD as u64), &snap);
        assert!(a.contains(&ControlAction::SetReplicas {
            id: ContainerId(0),
            replicas: 2
        }));
    }

    #[test]
    fn replica_slots_fold_into_their_group() {
        let mut sg = SurgeGuardH::new(&init());
        // svc0 runs primary (slot 0) and replica (slot 2); the group is
        // already at max_replicas, so even sustained saturation cannot
        // add more — and the replica slot's metrics resolve against the
        // primary's inherited profile without panicking.
        let snap = snapshot(&[(0, 4, 500, 900), (2, 4, 500, 900), (1, 4, 500, 200)]);
        for i in 1..=2 * HOLD as u64 {
            let a = sg.on_tick(SimTime::from_millis(100 * i), &snap);
            assert!(
                !a.iter()
                    .any(|x| matches!(x, ControlAction::SetReplicas { .. })),
                "cycle {i}: group at max_replicas, got {a:?}"
            );
        }
    }

    #[test]
    fn sustained_idleness_drains_the_replica() {
        let mut sg = SurgeGuardH::new(&init());
        // svc0's two replicas nearly idle: utilization 0.0125.
        let snap = snapshot(&[(0, 4, 100, 10), (2, 4, 100, 10), (1, 4, 500, 200)]);
        for i in 1..HOLD as u64 {
            let a = sg.on_tick(SimTime::from_millis(100 * i), &snap);
            assert!(
                !a.iter()
                    .any(|x| matches!(x, ControlAction::SetReplicas { .. })),
                "cycle {i}: drain must wait out the hold, got {a:?}"
            );
        }
        let a = sg.on_tick(SimTime::from_millis(100 * HOLD as u64), &snap);
        assert!(a.contains(&ControlAction::SetReplicas {
            id: ContainerId(0),
            replicas: 1
        }));
        // The primary alone is never drained below one replica.
        let solo = snapshot(&[(0, 4, 100, 10), (1, 4, 500, 200)]);
        for i in HOLD as u64 + 1..=4 * HOLD as u64 {
            let a = sg.on_tick(SimTime::from_millis(100 * i), &solo);
            assert!(
                !a.iter()
                    .any(|x| matches!(x, ControlAction::SetReplicas { .. })),
                "cycle {i}: single replica must persist, got {a:?}"
            );
        }
    }
}
