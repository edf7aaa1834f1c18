//! The Parties controller (Chen et al., ASPLOS'19), reimplemented as the
//! paper does (§V: "We implement the Parties controller ... following the
//! code open-sourced by the authors") and adapted to per-container
//! vertical scaling of cores and frequency.
//!
//! Parties' defining properties, which the comparison depends on:
//!
//! * **averaged metrics** over a 500 ms decision interval — detection of a
//!   surge takes on the order of the interval (paper Table I);
//! * **per-container isolation**: each container's slack is computed from
//!   its own *raw* latency (execTime) against its own target — Parties
//!   has no notion of `timeWaitingForFreeConn`, so threadpool queueing at
//!   an upstream container looks like that container being slow
//!   (Fig. 5b's failure mode);
//! * **one resource unit at a time** with hysteresis: upscale the most
//!   violating container first; when the pool is dry, steal from the
//!   container with the most slack; downscale only after a sustained
//!   surplus.

use sg_core::allocator::{busy_ns, utilization, AllocConstraints, CoreLedger, HoldCounter};
use sg_core::config::ContainerParams;
use sg_core::ids::ContainerId;
use sg_core::time::{SimDuration, SimTime};
use sg_sim::controller::{
    ContainerSnapshot, ControlAction, Controller, ControllerFactory, NodeInit, NodeSnapshot,
};
use std::collections::HashMap;

/// Decision interval (the paper's Table I: 500 ms).
const INTERVAL: SimDuration = SimDuration::from_millis(500);

/// A container violates when `execTime > VIOLATE_RATIO × target`
/// (Parties: any QoS excess).
const VIOLATE_RATIO: f64 = 1.0;

/// A container has surplus slack when `execTime < SURPLUS_RATIO × target`
/// (ours).
const SURPLUS_RATIO: f64 = 0.5;

/// Consecutive surplus intervals before downscaling (ours).
const DOWNSCALE_HOLD: u32 = 3;

/// Utilization guard (ours, not the paper's): a container is only shaved
/// while its estimated busy fraction after the shave stays at or below
/// this.
const MAX_SHAVE_UTILIZATION: f64 = 0.8;

/// Parties controller state for one node.
pub struct Parties {
    params: HashMap<ContainerId, ContainerParams>,
    constraints: AllocConstraints,
    max_freq_level: u8,
    surplus: HoldCounter<ContainerId>,
}

impl Parties {
    /// Build from the node description.
    pub(crate) fn new(init: &NodeInit) -> Self {
        Parties {
            params: init.containers.iter().map(|c| (c.id, c.params)).collect(),
            constraints: init.constraints,
            max_freq_level: init.freq_table.max_level(),
            surplus: HoldCounter::new(DOWNSCALE_HOLD),
        }
    }

    /// Slack of a container: positive = headroom, negative = violating.
    /// Parties uses the RAW execution time — this is the crucial
    /// difference from Escalator.
    fn slack(&self, id: ContainerId, mean_exec_time: SimDuration) -> f64 {
        let target = self.params[&id].expected_exec_metric.as_nanos() as f64;
        if target <= 0.0 {
            return 0.0;
        }
        1.0 - mean_exec_time.as_nanos() as f64 / target
    }

    /// True when taking one step from this container is safe by the
    /// utilization estimate (Parties probes a downscale and rolls back if
    /// QoS degrades; the estimate plays that role here without the
    /// probe's QoS damage).
    fn shave_safe(&self, c: &ContainerSnapshot) -> bool {
        let after = c.alloc.cores.saturating_sub(self.constraints.core_step);
        let m = &c.metrics;
        after >= self.constraints.min_cores
            && utilization(busy_ns(m.mean_exec_time, m.requests), INTERVAL, after)
                <= MAX_SHAVE_UTILIZATION
    }
}

impl Controller for Parties {
    fn name(&self) -> &'static str {
        "parties"
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

        // Classify containers by slack.
        let mut violating: Vec<(&ContainerSnapshot, f64)> = Vec::new();
        let mut surplus: Vec<(&ContainerSnapshot, f64)> = Vec::new();
        for c in &snapshot.containers {
            if c.metrics.requests == 0 {
                continue;
            }
            let s = self.slack(c.id, c.metrics.mean_exec_time);
            if s < 1.0 - VIOLATE_RATIO {
                violating.push((c, s));
            } else if s > 1.0 - SURPLUS_RATIO {
                surplus.push((c, s));
            }
        }

        // Most violating first; most surplus first for stealing.
        violating.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.id.cmp(&b.0.id)));
        surplus.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.id.cmp(&b.0.id)));

        let mut stolen: Vec<ContainerId> = Vec::new();
        for &(c, _) in &violating {
            if let Some(cores) = ledger.try_grow(&c.alloc) {
                actions.push(ControlAction::SetCores { id: c.id, cores });
                continue;
            }
            // Pool dry: steal one unit from the container with the most
            // slack, if this one can take it.
            let victim = surplus
                .iter()
                .find(|(v, _)| !stolen.contains(&v.id) && self.shave_safe(v));
            if let Some(&(v, _)) = victim {
                if let Some((shaved, grown)) = ledger.try_move(&v.alloc, &c.alloc) {
                    stolen.push(v.id);
                    actions.push(ControlAction::SetCores {
                        id: v.id,
                        cores: shaved,
                    });
                    actions.push(ControlAction::SetCores {
                        id: c.id,
                        cores: grown,
                    });
                    continue;
                }
            }
            // No cores to be had: raise frequency one level.
            if c.alloc.freq_level < self.max_freq_level {
                actions.push(ControlAction::SetFreq {
                    id: c.id,
                    level: c.alloc.freq_level + 1,
                });
            }
        }

        // Hysteretic downscale of sustained-surplus containers (that were
        // not just robbed).
        for &(c, _) in &surplus {
            if stolen.contains(&c.id) || !self.surplus.tick(c.id, true) {
                continue;
            }
            if self.shave_safe(c) {
                if let Some(cores) = ledger.try_shrink(&c.alloc) {
                    actions.push(ControlAction::SetCores { id: c.id, cores });
                }
            } else if c.alloc.freq_level > 0 {
                actions.push(ControlAction::SetFreq {
                    id: c.id,
                    level: c.alloc.freq_level - 1,
                });
            }
        }
        // Streaks of containers no longer in surplus start over.
        self.surplus
            .retain(|id| surplus.iter().any(|(c, _)| c.id == id));

        actions
    }
}

/// Factory for [`Parties`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PartiesFactory;

impl ControllerFactory for PartiesFactory {
    fn name(&self) -> &'static str {
        "parties"
    }

    fn make(&self, init: NodeInit) -> Box<dyn Controller> {
        Box::new(Parties::new(&init))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{node, snapshot, NodeInitExt};

    #[test]
    fn violating_container_gets_a_core_step_from_spare() {
        let mut p = Parties::new(&node(&[(0, 4), (1, 4)], 1000));
        // c0 violates (1500 > 1000), c1 healthy-ish; 8 spare cores exist.
        let a = p.on_tick(
            SimTime::from_millis(500),
            &snapshot(&[(0, 4, 1500, 100), (1, 4, 900, 100)]),
        );
        assert!(a.contains(&ControlAction::SetCores {
            id: ContainerId(0),
            cores: 6
        }));
    }

    #[test]
    fn steals_from_surplus_when_pool_dry() {
        // 16 cores fully allocated: c0 violating, c1 has big slack and low
        // utilization.
        let mut p = Parties::new(&node(&[(0, 8), (1, 8)], 1000));
        let a = p.on_tick(
            SimTime::from_millis(500),
            &snapshot(&[(0, 8, 1500, 100), (1, 8, 100, 50)]),
        );
        assert!(a.contains(&ControlAction::SetCores {
            id: ContainerId(1),
            cores: 6
        }));
        assert!(a.contains(&ControlAction::SetCores {
            id: ContainerId(0),
            cores: 10
        }));
    }

    #[test]
    fn steal_blocked_by_utilization_guard_falls_back_to_frequency() {
        // c1 has exec slack but is genuinely busy: 3400 requests of 800us
        // in a 500ms window on 8 cores (busy=0.68; after shave 0.91) —
        // shaving would saturate it.
        let mut p = Parties::new(&node(&[(0, 8), (1, 8)], 2000));
        let a = p.on_tick(
            SimTime::from_millis(500),
            &snapshot(&[(0, 8, 2500, 100), (1, 8, 800, 3400)]),
        );
        assert!(
            !a.iter().any(|x| matches!(
                x,
                ControlAction::SetCores { id, cores } if id.0 == 1 && *cores < 8
            )),
            "busy container must not be robbed: {a:?}"
        );
        assert!(a.contains(&ControlAction::SetFreq {
            id: ContainerId(0),
            level: 1
        }));
    }

    #[test]
    fn downscale_needs_sustained_surplus() {
        let mut p = Parties::new(&node(&[(0, 8)], 1000));
        let snap = snapshot(&[(0, 8, 100, 50)]); // deep surplus, tiny load
        for i in 1..=2 {
            let a = p.on_tick(SimTime::from_millis(500 * i), &snap);
            assert!(a.is_empty(), "tick {i}: hysteresis must hold, got {a:?}");
        }
        let a = p.on_tick(SimTime::from_millis(1500), &snap);
        assert!(a.contains(&ControlAction::SetCores {
            id: ContainerId(0),
            cores: 6
        }));
    }

    #[test]
    fn idle_windows_are_ignored() {
        let mut p = Parties::new(&node(&[(0, 4)], 1000));
        let a = p.on_tick(
            SimTime::from_millis(500),
            &snapshot(&[(0, 4, 99_999, 0)]), // garbage metrics, zero requests
        );
        assert!(a.is_empty());
    }

    #[test]
    fn violator_at_max_cores_is_boosted_and_no_victim_is_shaved() {
        // 16 cores fully allocated, 8 per container at most: c0 violates
        // at its maximum and cannot take a stolen step, so c1 keeps its
        // cores and c0 gets a frequency level instead.
        let mut p = Parties::new(&node(&[(0, 8), (1, 8)], 1000).budget(16, 8));
        let a = p.on_tick(
            SimTime::from_millis(500),
            &snapshot(&[(0, 8, 1500, 100), (1, 8, 100, 50)]),
        );
        assert_eq!(
            a,
            vec![ControlAction::SetFreq {
                id: ContainerId(0),
                level: 1
            }]
        );
    }
}
