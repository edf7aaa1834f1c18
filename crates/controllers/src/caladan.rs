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
    min_cores: u32,
    max_cores: u32,
    total_cores: u32,
    idle_streak: HashMap<ContainerId, u32>,
}

impl Caladan {
    /// Build from the node description.
    pub fn new(init: &NodeInit) -> Self {
        Caladan {
            params: init.containers.iter().map(|c| (c.id, c.params)).collect(),
            min_cores: init.constraints.min_cores,
            max_cores: init.constraints.max_cores,
            total_cores: init.constraints.total_cores,
            idle_streak: HashMap::new(),
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
        let allocated: u32 = snapshot.containers.iter().map(|c| c.alloc.cores).sum();
        let mut spare = self.total_cores.saturating_sub(allocated);

        // Congested containers sorted by buildup severity.
        let mut congested: Vec<(ContainerId, f64, u32)> = snapshot
            .containers
            .iter()
            .filter(|c| c.metrics.requests > 0 && c.metrics.queue_buildup > CONGESTION_TH)
            .map(|c| (c.id, c.metrics.queue_buildup, c.alloc.cores))
            .collect();
        congested.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

        for (id, _, cores) in &congested {
            self.idle_streak.remove(id);
            // Caladan grants ONE hyperthread per congestion signal.
            if *cores < self.max_cores && spare >= 1 {
                spare -= 1;
                actions.push(ControlAction::SetCores {
                    id: *id,
                    cores: cores + 1,
                });
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
            if idle {
                let streak = self.idle_streak.entry(c.id).or_insert(0);
                *streak += 1;
                if *streak >= REVOKE_HOLD && c.alloc.cores > self.min_cores {
                    *streak = 0;
                    actions.push(ControlAction::SetCores {
                        id: c.id,
                        cores: c.alloc.cores - 1,
                    });
                }
            } else {
                self.idle_streak.remove(&c.id);
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
    use sg_core::allocator::{AllocConstraints, ContainerAlloc, FreqTable};
    use sg_core::ids::NodeId;
    use sg_core::metrics::WindowMetrics;
    use sg_sim::controller::{ContainerInit, ContainerSnapshot};

    fn init(allocs: &[(u32, u32)]) -> NodeInit {
        NodeInit {
            node: NodeId(0),
            containers: allocs
                .iter()
                .map(|&(id, cores)| ContainerInit {
                    id: ContainerId(id),
                    service: sg_core::ids::ServiceId(id),
                    name: format!("svc{id}"),
                    params: ContainerParams {
                        expected_exec_metric: SimDuration::from_micros(1000),
                        expected_time_from_start: SimDuration::from_micros(4000),
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

    fn snap(entries: &[(u32, u32, u64, f64, u64)]) -> NodeSnapshot {
        // (id, cores, exec_us, queue_buildup, requests)
        NodeSnapshot {
            node: NodeId(0),
            containers: entries
                .iter()
                .map(|&(id, cores, exec_us, qb, requests)| ContainerSnapshot {
                    id: ContainerId(id),
                    metrics: WindowMetrics {
                        requests,
                        mean_exec_time: SimDuration::from_micros(exec_us),
                        mean_exec_metric: SimDuration::from_micros((exec_us as f64 / qb) as u64),
                        queue_buildup: qb,
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
    fn congestion_grants_exactly_one_hyperthread() {
        let mut c = Caladan::new(&init(&[(0, 4), (1, 4)]));
        let a = c.on_tick(
            SimTime::from_millis(20),
            &snap(&[(0, 4, 2000, 2.0, 100), (1, 4, 500, 1.0, 100)]),
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
        let mut c = Caladan::new(&init(&[(0, 4)]));
        for i in 1..=20 {
            let a = c.on_tick(
                SimTime::from_millis(20 * i),
                &snap(&[(0, 4, 50_000, 1.0, 100)]),
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
        let mut c = Caladan::new(&init(&[(0, 8)]));
        let quiet = snap(&[(0, 8, 100, 1.0, 50)]);
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
        let mut c = Caladan::new(&init(&[(0, 8)]));
        let quiet = snap(&[(0, 8, 100, 1.0, 50)]);
        for i in 1..=5 {
            let _ = c.on_tick(SimTime::from_millis(20 * i), &quiet);
        }
        // Congestion burst resets.
        let _ = c.on_tick(SimTime::from_millis(120), &snap(&[(0, 8, 2000, 3.0, 100)]));
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
