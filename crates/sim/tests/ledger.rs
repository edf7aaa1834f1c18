//! The allocation ledger on its own: the decision rules both substrates
//! share, checked without a substrate.

use proptest::prelude::*;
use sg_core::allocator::AllocConstraints;
use sg_core::ids::{ContainerId, NodeId};
use sg_core::time::SimDuration;
use sg_sim::app::{linear_chain, ConnModel};
use sg_sim::controller::ControlAction;
use sg_sim::ledger::{AllocLedger, ReplicaState};
use sg_sim::{Placement, SimConfig};
use sg_telemetry::ActionOutcome;

/// Three services round-robin on two nodes (0 and 2 on node 0), up to
/// three replicas each, 9 workload cores per node.
fn cfg() -> SimConfig {
    let work = [SimDuration::from_micros(100); 3];
    let graph = linear_chain("p", &work, ConnModel::PerRequest, 0.0);
    let mut cfg = SimConfig::new(graph, Placement::round_robin(3, 2));
    cfg.constraints = AllocConstraints {
        total_cores: 9,
        min_cores: 1,
        max_cores: 6,
        core_step: 1,
    };
    cfg.max_replicas = 3;
    cfg
}

/// From a node that does not host the target, and for an id no slot
/// answers to, every actuator refuses, counts, and leaves nothing to
/// apply. (Budget clamp, DVFS saturation and the owner-side landings
/// are pinned through the live applier in `sg-live`'s `cluster::tests`.)
#[test]
fn every_actuator_refuses_foreign_and_unknown_targets() {
    let mut ledger = AllocLedger::new(&cfg());
    let all_five = |id| {
        [
            ControlAction::SetCores { id, cores: 4 },
            ControlAction::SetFreq { id, level: 8 },
            ControlAction::SetBandwidth { id, units: 10 },
            ControlAction::SetEgressHint { id, hops: 3 },
            ControlAction::SetReplicas { id, replicas: 2 },
        ]
    };
    let foreign = all_five(ContainerId(0)).map(|a| (NodeId(1), a));
    let unknown = all_five(ContainerId(u32::MAX)).map(|a| (NodeId(0), a));
    let mut fx = Vec::new();
    for (n, (from, action)) in foreign.into_iter().chain(unknown).enumerate() {
        let outcome = ledger.decide(from, action, |_| true, &mut fx);
        assert_eq!(outcome, ActionOutcome::RejectedCrossNode, "{action:?}");
        assert!(fx.is_empty(), "{action:?} left effects {fx:?}");
        assert_eq!(ledger.clamped(), n as u64 + 1);
    }
    assert_eq!(ledger.alloc(0).cores, 2);
}

proptest! {
    // The allocation ledger under random action / retire / landed-freq
    // sequences from random nodes against random (sometimes nonexistent)
    // targets: the books always balance.
    #[test]
    fn ledger_books_balance_under_random_actions(
        ops in prop::collection::vec((0u8..7, 0u32..3, 0u32..11, 0u32..14), 1..120),
    ) {
        let cfg = cfg();
        let mut ledger = AllocLedger::new(&cfg);
        let n_slots = ledger.layout().n_slots();
        let mut fx = Vec::new();
        for &(op, from, target, value) in &ops {
            let id = ContainerId(target);
            let slot = target as usize;
            let action = match op {
                0 => Some(ControlAction::SetCores { id, cores: value }),
                1 => Some(ControlAction::SetFreq { id, level: value as u8 }),
                2 => Some(ControlAction::SetBandwidth { id, units: value }),
                3 => Some(ControlAction::SetEgressHint { id, hops: value as u8 }),
                4 => Some(ControlAction::SetReplicas { id, replicas: value % 5 }),
                _ => None,
            };
            match action {
                Some(action) => {
                    let before = ledger.clamped();
                    fx.clear();
                    let idle = |s: usize| (s + value as usize) & 1 == 0;
                    let outcome = ledger.decide(NodeId(from), action, idle, &mut fx);
                    let refused = matches!(
                        outcome,
                        ActionOutcome::Clamped | ActionOutcome::RejectedCrossNode
                    );
                    prop_assert_eq!(ledger.clamped() > before, refused, "{:?} -> {:?}", action, outcome);
                    if outcome == ActionOutcome::RejectedCrossNode {
                        prop_assert!(fx.is_empty());
                    }
                }
                None if slot >= n_slots => {}
                None if op == 5 => drop(ledger.retire(slot)),
                None => drop(ledger.land_freq(id, value as u8)),
            }
            for node in 0..2 {
                let held: u32 = (0..n_slots)
                    .filter(|&s| ledger.node_of(s) == NodeId(node))
                    .map(|s| ledger.alloc(s).cores)
                    .sum();
                prop_assert_eq!(ledger.node_allocated(NodeId(node)), held);
                prop_assert!(held <= cfg.constraints.total_cores);
            }
            for s in 0..n_slots {
                let alloc = ledger.alloc(s);
                if ledger.state(s) == ReplicaState::Inactive {
                    prop_assert_eq!((alloc.cores, alloc.freq_level), (0, 0), "inactive slot {}", s);
                }
                if ledger.layout().is_primary(s) {
                    prop_assert_eq!(ledger.state(s), ReplicaState::Active, "primary {} drained", s);
                }
            }
        }
    }
}
