//! LSRAM-style autoscaler: gradient-descent SLO resource allocation
//! (Hu et al., "LSRAM: A Lightweight Autoscaling and SLO Resource
//! Allocation Framework for Microservices Based on Gradient Descent",
//! arXiv:2411.11493), adapted to the harness' replica-group actuators.
//!
//! LSRAM's defining properties, which the zoo comparison depends on:
//!
//! * **one scalar knob per service group** — a continuous *capacity*
//!   estimate in core-equivalents, updated each interval by a gradient
//!   step on the SLO error instead of by threshold rules;
//! * **asymmetric gains**: the step toward more resources (SLO penalty
//!   gradient) is much larger than the step toward fewer (resource cost
//!   gradient), so violations are corrected in a couple of intervals
//!   while reclaim is gradual;
//! * **joint horizontal + vertical mapping**: the capacity scalar is
//!   materialised as the smallest replica count whose per-replica share
//!   fits under the per-container core cap, then quantised to the core
//!   step — replicas are added only once vertical headroom is exhausted.
//!
//! Like every controller in the zoo it is node-local: it only manages
//! groups whose *primary* lives on its node, which is exactly the set
//! the engine's cross-node contract lets it act on.

use crate::groups::{local_primaries, slots_by_group};
use sg_core::allocator::busy_ns;
use sg_core::config::ContainerParams;
use sg_core::ids::{ContainerId, ServiceId};
use sg_core::replica::ReplicaLayout;
use sg_core::time::{SimDuration, SimTime};
use sg_sim::controller::{ControlAction, Controller, ControllerFactory, NodeInit, NodeSnapshot};
use std::collections::HashMap;

/// Decision interval (ours).
const INTERVAL: SimDuration = SimDuration::from_millis(500);

/// Gradient gain when the group violates its SLO (error > 0; ours).
const GAIN_UP: f64 = 1.0;

/// Gradient gain when the group has slack (error < 0; ours). Kept well
/// below `GAIN_UP`: the paper's cost gradient reclaims slowly.
const GAIN_DOWN: f64 = 0.25;

/// Relative SLO-error dead band inside which no step is taken (ours).
const DEADBAND: f64 = 0.05;

/// Per-tick multiplicative decay of the per-group peak-demand tracker
/// backing the reclaim floor (ours; see `PEAK_FLOOR`).
const PEAK_DECAY: f64 = 0.99;

/// Reclaim floor (ours), as a fraction of the tracked peak demand: slack
/// may not shave the capacity estimate below this. Burst memory — with
/// loose SLO targets the gradient happily reclaims a healthy baseline all
/// the way to the per-container minimum, and the next surge then
/// detonates every pool queue before the estimator can react (chain
/// latency couples the groups, so once queues build the error signal
/// stops identifying the bottleneck). The floor keeps recently-surged
/// groups provisioned; the peak tracker's decay reclaims workloads that
/// genuinely stop surging.
const PEAK_FLOOR: f64 = 0.9;

/// Upper clamp on the per-tick multiplicative growth factor (ours). The
/// chain-inclusive latency signal spikes first and hardest at the chain
/// root, and an unclamped step would hand it the whole node in a single
/// interval while every downstream group still sits at its reclaimed
/// baseline — a winner-take-all overshoot that detonates the downstream
/// queues. Clamped, violating groups grow together and keep their
/// relative ordering.
const STEP_CLAMP: f64 = 1.5;

/// LSRAM controller state for one node.
pub struct LsramController {
    layout: ReplicaLayout,
    /// Local service groups (by primary), ascending for determinism.
    groups: Vec<ServiceId>,
    params: HashMap<ServiceId, ContainerParams>,
    /// The gradient-descended capacity estimate, in core-equivalents.
    capacity: HashMap<ServiceId, f64>,
    /// Decaying peak of the capacity estimate, backing the reclaim
    /// floor (`PEAK_FLOOR`).
    peak: HashMap<ServiceId, f64>,
    min_cores: u32,
    max_cores: u32,
    step: u32,
    total_cores: u32,
}

impl LsramController {
    /// Build from the node description.
    pub fn new(init: &NodeInit) -> Self {
        let layout = ReplicaLayout::from_bounds(init.max_container_id, init.max_replicas);
        let primaries = local_primaries(&layout, init);
        let mut capacity: HashMap<ServiceId, f64> = HashMap::new();
        for c in &init.containers {
            // Initial capacity = everything the group starts with.
            *capacity
                .entry(layout.service_of(c.id.index()))
                .or_insert(0.0) += c.initial.cores as f64;
        }
        let peak = capacity.clone();
        LsramController {
            groups: primaries.iter().map(|&(svc, _)| svc).collect(),
            params: primaries.iter().map(|&(svc, c)| (svc, c.params)).collect(),
            layout,
            capacity,
            peak,
            min_cores: init.constraints.min_cores,
            max_cores: init.constraints.max_cores,
            step: init.constraints.core_step.max(1),
            total_cores: init.constraints.total_cores,
        }
    }

    /// Quantise a per-replica share up to the core step, inside the
    /// per-container bounds.
    fn quantise(&self, cores: u32) -> u32 {
        (cores.div_ceil(self.step) * self.step).clamp(self.min_cores, self.max_cores)
    }
}

impl Controller for LsramController {
    fn name(&self) -> &'static str {
        "lsram"
    }

    fn tick_interval(&self) -> SimDuration {
        INTERVAL
    }

    fn on_tick(&mut self, _now: SimTime, snapshot: &NodeSnapshot) -> Vec<ControlAction> {
        let mut members = slots_by_group(&self.layout, snapshot);

        // Pass 1 — the gradient step per group, accumulating the total
        // capacity demand for the normalisation below.
        struct Plan {
            svc: ServiceId,
            cap: f64,
            queue_buildup: f64,
        }
        let mut plans: Vec<Plan> = Vec::new();
        let mut total_demand = 0.0;
        for &svc in &self.groups {
            let Some(group) = members.get_mut(&svc) else {
                continue;
            };
            group.sort_unstable_by_key(|m| m.id);
            let requests: u64 = group.iter().map(|m| m.metrics.requests).sum();
            if requests == 0 {
                continue;
            }
            // Requests-weighted raw latency vs the profiled SLO: like
            // Parties (and unlike Escalator), LSRAM steers its gradient
            // by the external latency signal alone.
            let exec_ns: f64 = group
                .iter()
                .map(|m| busy_ns(m.metrics.mean_exec_time, m.metrics.requests))
                .sum::<f64>()
                / requests as f64;
            let queue_buildup: f64 = group
                .iter()
                .map(|m| m.metrics.queue_buildup * m.metrics.requests as f64)
                .sum::<f64>()
                / requests as f64;
            let target_ns = self.params[&svc].expected_exec_metric.as_nanos() as f64;
            if target_ns <= 0.0 {
                continue;
            }
            let error = exec_ns / target_ns - 1.0;

            let mut cap = self
                .capacity
                .get(&svc)
                .copied()
                .unwrap_or(self.min_cores as f64);
            if error.abs() >= DEADBAND {
                let gain = if error > 0.0 { GAIN_UP } else { GAIN_DOWN };
                cap *= (1.0 + gain * error).min(STEP_CLAMP);
            }
            let ceiling = self.max_cores as f64 * self.layout.max_replicas as f64;
            cap = cap.clamp(self.min_cores as f64, ceiling);
            // Burst-memory floor (see `PEAK_FLOOR`).
            let peak = self.peak.entry(svc).or_insert(cap);
            *peak = (*peak * PEAK_DECAY).max(cap);
            cap = cap.max(*peak * PEAK_FLOOR).min(ceiling);
            self.capacity.insert(svc, cap);

            total_demand += cap;
            plans.push(Plan {
                svc,
                cap,
                queue_buildup,
            });
        }

        // The constrained-allocation step: LSRAM allocates a *fixed*
        // resource pool, so when the summed demand exceeds the node
        // budget every group's share scales down proportionally —
        // without this, the first group's grows would seize the spare
        // pool and starve the downstream bottleneck.
        let scale = if total_demand > self.total_cores as f64 {
            self.total_cores as f64 / total_demand
        } else {
            1.0
        };

        // Pass 2 — materialise each plan from its *granted* capacity
        // (post scale-down): the fewest replicas whose per-replica
        // share fits under the per-container cap, with the share
        // quantised up to the core step. Sizing replicas off the raw
        // estimate instead would split every saturated group to maximum
        // replicas even when its granted share fits in one container —
        // per-replica pools and minimums then waste the node budget.
        struct Mat {
            svc: ServiceId,
            replicas: u32,
            share: u32,
            queue_buildup: f64,
        }
        let mut mats: Vec<Mat> = plans
            .iter()
            .map(|p| {
                let granted = p.cap * scale;
                let replicas = ((granted / self.max_cores as f64).ceil() as u32)
                    .clamp(1, self.layout.max_replicas);
                let share = self.quantise((granted / replicas as f64).ceil() as u32);
                Mat {
                    svc: p.svc,
                    replicas,
                    share,
                    queue_buildup: p.queue_buildup,
                }
            })
            .collect();

        // Budget repair: quantisation round-up and per-replica core
        // minimums can leave the materialised plan over the node budget
        // even after the proportional scale-down. Left alone, the
        // engine's budget clamp would arbitrate in action order,
        // silently starving whichever group's grows happen to be
        // emitted last. Release capacity deliberately instead, from the
        // group with the least *local* queue buildup first: external
        // latency is chain-inclusive here, so a downstream bottleneck
        // inflates every upstream group's error and the latency signal
        // stops saying who is actually hurting — the pool queue trend
        // does. Prefer share shrinks over replica drops, largest share
        // first and lowest service id on exact ties.
        let mut planned: u32 = mats.iter().map(|m| m.replicas * m.share).sum();
        while planned > self.total_cores {
            let pick = mats
                .iter()
                .enumerate()
                .filter(|(_, m)| m.share > self.min_cores || m.replicas > 1)
                .min_by(|(ai, a), (bi, b)| {
                    a.queue_buildup
                        .total_cmp(&b.queue_buildup)
                        .then(b.share.cmp(&a.share))
                        .then(b.replicas.cmp(&a.replicas))
                        .then(ai.cmp(bi))
                })
                .map(|(i, _)| i);
            let Some(i) = pick else { break };
            let m = &mut mats[i];
            if m.share > self.min_cores {
                let cut = self.step.min(m.share - self.min_cores);
                m.share -= cut;
                planned -= m.replicas * cut;
            } else {
                m.replicas -= 1;
                planned -= m.share;
            }
        }

        // Emit in budget-friendly order: shrinks and drains release
        // cores before spawns and grows spend them.
        let mut shrinks = Vec::new();
        let mut drains = Vec::new();
        let mut spawns = Vec::new();
        let mut grows = Vec::new();

        for Mat {
            svc,
            replicas,
            share,
            ..
        } in mats
        {
            let group = &members[&svc];

            let active = group.len() as u32;
            if replicas != active {
                let primary = ContainerId(self.layout.slot_of(svc, 0) as u32);
                let action = ControlAction::SetReplicas {
                    id: primary,
                    replicas,
                };
                if replicas < active {
                    drains.push(action);
                } else {
                    spawns.push(action);
                }
            }
            for m in group.iter() {
                if m.alloc.cores != share {
                    let action = ControlAction::SetCores {
                        id: m.id,
                        cores: share,
                    };
                    if share < m.alloc.cores {
                        shrinks.push(action);
                    } else {
                        grows.push(action);
                    }
                }
            }
        }

        let mut actions = shrinks;
        actions.extend(drains);
        actions.extend(spawns);
        actions.extend(grows);
        actions
    }
}

/// Factory for [`LsramController`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LsramFactory;

impl ControllerFactory for LsramFactory {
    fn name(&self) -> &'static str {
        "lsram"
    }

    fn make(&self, init: NodeInit) -> Box<dyn Controller> {
        Box::new(LsramController::new(&init))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{node, snapshot, snapshot_queued, NodeInitExt};

    /// Two services, up to 4 replicas each: slots 0..2 are primaries,
    /// slots 2.. the spare replica slots.
    fn init(allocs: &[(u32, u32)], expected_us: u64) -> NodeInit {
        node(allocs, expected_us).budget(32, 8).replicas(2, 4)
    }

    #[test]
    fn violation_grows_vertically_then_scales_out() {
        let mut l = LsramController::new(&init(&[(0, 4)], 1000));
        // 2x the SLO: error = 1.0, step-clamped to a 1.5x growth factor
        // → capacity estimate 4 → 6, still under the 8-core
        // per-container cap → vertical only.
        let a = l.on_tick(SimTime::from_millis(500), &snapshot(&[(0, 4, 2000, 100)]));
        assert_eq!(
            a,
            vec![ControlAction::SetCores {
                id: ContainerId(0),
                cores: 6
            }]
        );
        // Still violating: 6 → 9 core-equivalents spills past the
        // 8-core cap into a second replica.
        let a = l.on_tick(SimTime::from_millis(1000), &snapshot(&[(0, 6, 2000, 100)]));
        assert!(a.contains(&ControlAction::SetReplicas {
            id: ContainerId(0),
            replicas: 2
        }));
    }

    #[test]
    fn slack_reclaims_capacity_gradually() {
        let mut l = LsramController::new(&init(&[(0, 8)], 1000));
        // Deep slack (0.1x SLO): the burst-memory floor paces reclaim
        // at the peak tracker's ~1%-per-interval decay, so the first
        // visible shrink is one quantisation step down and arrives only
        // after many intervals — never a collapse to the minimum.
        let mut first = Vec::new();
        for i in 1..=25u64 {
            let a = l.on_tick(
                SimTime::from_millis(500 * i),
                &snapshot(&[(0, 8, 100, 100)]),
            );
            if !a.is_empty() {
                first = a;
                break;
            }
        }
        assert_eq!(
            first,
            vec![ControlAction::SetCores {
                id: ContainerId(0),
                cores: 6
            }]
        );
    }

    #[test]
    fn scale_in_drains_excess_replicas() {
        let mut l = LsramController::new(&init(&[(0, 8)], 1000));
        // Force the estimate up to two replicas first.
        l.on_tick(SimTime::from_millis(500), &snapshot(&[(0, 8, 2000, 100)]));
        // Group now runs slots 0 and 2; deep slack pulls the capacity
        // scalar back under one replica's cap at the burst-memory
        // floor's pace (~1% per interval), draining the extra replica
        // after a few tens of intervals.
        let mut saw_drain = false;
        for i in 2..80u64 {
            let a = l.on_tick(
                SimTime::from_millis(500 * i),
                &snapshot(&[(0, 8, 100, 100), (2, 8, 100, 100)]),
            );
            if a.contains(&ControlAction::SetReplicas {
                id: ContainerId(0),
                replicas: 1,
            }) {
                saw_drain = true;
                break;
            }
        }
        assert!(saw_drain, "sustained slack must drain the extra replica");
    }

    #[test]
    fn capacity_is_clamped_to_the_group_ceiling() {
        let mut l = LsramController::new(&init(&[(0, 4)], 1000));
        for i in 1..=20u64 {
            let a = l.on_tick(
                SimTime::from_millis(500 * i),
                &snapshot(&[(0, 8, 5000, 100)]),
            );
            for act in a {
                match act {
                    ControlAction::SetReplicas { replicas, .. } => assert!(replicas <= 4),
                    ControlAction::SetCores { cores, .. } => assert!(cores <= 8),
                    other => panic!("unexpected action {other:?}"),
                }
            }
        }
    }

    #[test]
    fn budget_repair_releases_from_the_least_hurting_group() {
        // Three groups violating until every estimate pins at the
        // ceiling: the quantised plan (2 replicas x 6 cores each) then
        // overshoots the 30-core budget, and the repair step must take
        // the excess from the groups with the least *local* queue
        // buildup — the true bottleneck (svc1, whose own pool queue is
        // growing) keeps its share even though chain-inclusive latency
        // inflates every group's error alike.
        // Three primaries need 12 slots at 4 replicas each.
        let mut ni = init(&[(0, 4), (1, 4), (2, 4)], 1000);
        ni.max_container_id = 11;
        ni.constraints.total_cores = 30;
        let mut l = LsramController::new(&ni);
        let mut last = Vec::new();
        for i in 1..=6u64 {
            last = l.on_tick(
                SimTime::from_millis(500 * i),
                &snapshot_queued(&[
                    (0, 4, 30_000, 100, 1.0),
                    (1, 4, 30_000, 100, 9.0),
                    (2, 4, 30_000, 100, 1.0),
                ]),
            );
        }
        // No action for a group means its share already equals the
        // snapshot's 4 cores.
        let share_of = |id: u32| {
            last.iter()
                .find_map(|x| match x {
                    ControlAction::SetCores { id: i, cores } if i.0 == id => Some(*cores),
                    _ => None,
                })
                .unwrap_or(4)
        };
        assert!(
            share_of(1) > share_of(0),
            "bottleneck (svc1) must out-rank svc0 under saturation: {last:?}"
        );
        assert!(
            share_of(1) > share_of(2),
            "bottleneck (svc1) must out-rank svc2 under saturation: {last:?}"
        );
    }

    #[test]
    fn overcommitted_demand_is_shared_proportionally() {
        // Both groups' estimates blow past the 32-core pool together
        // (4096us on a 1000us SLO → error 3.096 → cap 4 → 16.4 → the
        // 32-core ceiling, summed 64 > 32): the constrained-allocation
        // step scales each share down instead of letting svc0 starve
        // svc1.
        let mut l = LsramController::new(&init(&[(0, 4), (1, 4)], 1000));
        let mut a = Vec::new();
        for i in 1..=2u64 {
            a = l.on_tick(
                SimTime::from_millis(500 * i),
                &snapshot(&[(0, 6, 4096, 100), (1, 6, 4096, 100)]),
            );
        }
        let share_of = |id: u32| {
            a.iter().find_map(|x| match x {
                ControlAction::SetCores { id: i, cores } if i.0 == id => Some(*cores),
                _ => None,
            })
        };
        assert_eq!(share_of(0), share_of(1), "equal demand → equal share");
        let replicas_of = |id: u32| {
            a.iter().find_map(|x| match x {
                ControlAction::SetReplicas { id: i, replicas } if i.0 == id => Some(*replicas),
                _ => None,
            })
        };
        // Each group still asks for the replica count its own estimate
        // implies; the engine clamps spawns to what the budget hosts.
        assert_eq!(replicas_of(0), replicas_of(1));
    }

    #[test]
    fn idle_windows_are_ignored() {
        let mut l = LsramController::new(&init(&[(0, 4)], 1000));
        let a = l.on_tick(SimTime::from_millis(500), &snapshot(&[(0, 4, 99_999, 0)]));
        assert!(a.is_empty());
    }
}
