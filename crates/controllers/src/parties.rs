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

use sg_core::config::ContainerParams;
use sg_core::ids::ContainerId;
use sg_core::metrics::WindowMetrics;
use sg_core::time::{SimDuration, SimTime};
use sg_sim::controller::{ControlAction, Controller, ControllerFactory, NodeInit, NodeSnapshot};
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
    min_cores: u32,
    max_cores: u32,
    step: u32,
    total_cores: u32,
    max_freq_level: u8,
    surplus_streak: HashMap<ContainerId, u32>,
}

impl Parties {
    /// Build from the node description.
    pub fn new(init: &NodeInit) -> Self {
        Parties {
            params: init.containers.iter().map(|c| (c.id, c.params)).collect(),
            min_cores: init.constraints.min_cores,
            max_cores: init.constraints.max_cores,
            step: init.constraints.core_step,
            total_cores: init.constraints.total_cores,
            max_freq_level: init.freq_table.max_level(),
            surplus_streak: HashMap::new(),
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

    /// Estimated busy fraction at `cores` cores (Parties probes a
    /// downscale and rolls back if QoS degrades; the utilization estimate
    /// plays that role here without the probe's QoS damage).
    fn busy_fraction(&self, m: &WindowMetrics, cores: u32) -> f64 {
        if cores == 0 {
            return 1.0;
        }
        let busy_ns = m.mean_exec_time.as_nanos() as f64 * m.requests as f64;
        busy_ns / (INTERVAL.as_nanos() as f64 * cores as f64)
    }

    /// True when taking one step from this container is safe by the
    /// utilization estimate.
    fn shave_safe(&self, m: &WindowMetrics, cores: u32) -> bool {
        let after = cores.saturating_sub(self.step);
        after >= self.min_cores && self.busy_fraction(m, after) <= MAX_SHAVE_UTILIZATION
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

        // Classify containers by slack.
        let mut violating: Vec<(ContainerId, f64)> = Vec::new();
        let mut surplus: Vec<(ContainerId, f64)> = Vec::new();
        let mut cores: HashMap<ContainerId, u32> = HashMap::new();
        let mut freq: HashMap<ContainerId, u8> = HashMap::new();
        let mut metrics: HashMap<ContainerId, WindowMetrics> = HashMap::new();
        let mut allocated: u32 = 0;
        for c in &snapshot.containers {
            cores.insert(c.id, c.alloc.cores);
            freq.insert(c.id, c.alloc.freq_level);
            metrics.insert(c.id, c.metrics);
            allocated += c.alloc.cores;
            if c.metrics.requests == 0 {
                continue;
            }
            let s = self.slack(c.id, c.metrics.mean_exec_time);
            if s < 1.0 - VIOLATE_RATIO {
                violating.push((c.id, s));
            } else if s > 1.0 - SURPLUS_RATIO {
                surplus.push((c.id, s));
            }
        }
        let mut spare = self.total_cores.saturating_sub(allocated);

        // Most violating first; most surplus first for stealing.
        violating.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        surplus.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

        let mut stolen: Vec<ContainerId> = Vec::new();
        for (id, _) in &violating {
            self.surplus_streak.remove(id);
            let cur = cores[id];
            if cur + self.step <= self.max_cores && spare >= self.step {
                spare -= self.step;
                cores.insert(*id, cur + self.step);
                actions.push(ControlAction::SetCores {
                    id: *id,
                    cores: cur + self.step,
                });
            } else if let Some((victim, _)) = surplus.iter().find(|(v, _)| {
                !stolen.contains(v)
                    && cores[v] >= self.min_cores + self.step
                    && self.shave_safe(&metrics[v], cores[v])
            }) {
                // Steal one unit from the container with the most slack.
                let vcur = cores[victim];
                cores.insert(*victim, vcur - self.step);
                stolen.push(*victim);
                actions.push(ControlAction::SetCores {
                    id: *victim,
                    cores: vcur - self.step,
                });
                if cur + self.step <= self.max_cores {
                    cores.insert(*id, cur + self.step);
                    actions.push(ControlAction::SetCores {
                        id: *id,
                        cores: cur + self.step,
                    });
                }
            } else if freq[id] < self.max_freq_level {
                // No cores to be had: raise frequency one level.
                actions.push(ControlAction::SetFreq {
                    id: *id,
                    level: freq[id] + 1,
                });
            }
        }

        // Hysteretic downscale of sustained-surplus containers (that were
        // not just robbed).
        for (id, _) in &surplus {
            if stolen.contains(id) {
                continue;
            }
            let streak = self.surplus_streak.entry(*id).or_insert(0);
            *streak += 1;
            if *streak >= DOWNSCALE_HOLD {
                *streak = 0;
                let cur = cores[id];
                if cur >= self.min_cores + self.step && self.shave_safe(&metrics[id], cur) {
                    actions.push(ControlAction::SetCores {
                        id: *id,
                        cores: cur - self.step,
                    });
                } else if freq[id] > 0 {
                    actions.push(ControlAction::SetFreq {
                        id: *id,
                        level: freq[id] - 1,
                    });
                }
            }
        }
        // Reset streaks of containers no longer in surplus.
        let surplus_ids: Vec<ContainerId> = surplus.iter().map(|(id, _)| *id).collect();
        self.surplus_streak.retain(|id, _| surplus_ids.contains(id));

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
    use sg_core::allocator::{AllocConstraints, ContainerAlloc, FreqTable};
    use sg_core::ids::NodeId;
    use sg_sim::controller::{ContainerInit, ContainerSnapshot};

    fn init(allocs: &[(u32, u32)], expected_us: u64) -> NodeInit {
        NodeInit {
            node: NodeId(0),
            containers: allocs
                .iter()
                .map(|&(id, cores)| ContainerInit {
                    id: ContainerId(id),
                    service: sg_core::ids::ServiceId(id),
                    name: format!("svc{id}"),
                    params: ContainerParams {
                        expected_exec_metric: SimDuration::from_micros(expected_us),
                        expected_time_from_start: SimDuration::from_micros(expected_us * 4),
                    },
                    local_downstream: vec![],
                    initial: ContainerAlloc {
                        id: ContainerId(id),
                        cores,
                        freq_level: 0,
                    },
                })
                .collect(),
            constraints: AllocConstraints {
                total_cores: 16,
                min_cores: 2,
                max_cores: 16,
                core_step: 2,
            },
            freq_table: FreqTable::cascade_lake(),
            e2e_low_load: SimDuration::from_millis(2),
            max_container_id: 8,
            max_replicas: 1,
        }
    }

    fn snapshot(entries: &[(u32, u32, u64, u64)]) -> NodeSnapshot {
        // (id, cores, exec_us, requests)
        NodeSnapshot {
            node: NodeId(0),
            containers: entries
                .iter()
                .map(|&(id, cores, exec_us, requests)| ContainerSnapshot {
                    id: ContainerId(id),
                    metrics: sg_core::metrics::WindowMetrics {
                        requests,
                        mean_exec_time: SimDuration::from_micros(exec_us),
                        mean_exec_metric: SimDuration::from_micros(exec_us),
                        queue_buildup: 1.0,
                        upscale_hints: 0,
                    },
                    alloc: ContainerAlloc {
                        id: ContainerId(id),
                        cores,
                        freq_level: 0,
                    },
                })
                .collect(),
        }
    }

    #[test]
    fn violating_container_gets_a_core_step_from_spare() {
        let mut p = Parties::new(&init(&[(0, 4), (1, 4)], 1000));
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
        let mut p = Parties::new(&init(&[(0, 8), (1, 8)], 1000));
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
        let mut p = Parties::new(&init(&[(0, 8), (1, 8)], 2000));
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
        let mut p = Parties::new(&init(&[(0, 8)], 1000));
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
        let mut p = Parties::new(&init(&[(0, 4)], 1000));
        let a = p.on_tick(
            SimTime::from_millis(500),
            &snapshot(&[(0, 4, 99_999, 0)]), // garbage metrics, zero requests
        );
        assert!(a.is_empty());
    }
}
