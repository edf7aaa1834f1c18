//! The complete SurgeGuard controller: FirstResponder on the packet hook
//! plus Escalator on the decision cycle (paper §IV, Fig. 7).
//!
//! One instance runs per node and sees only node-local state; cross-node
//! coordination happens exclusively through the `pkt.upscale` hints that
//! piggyback on application RPCs — the decentralization property of
//! Fig. 1.
//!
//! The ablation switches reproduce the paper's component analyses:
//!
//! * `enable_firstresponder = false` → "Escalator alone" (Fig. 10);
//! * `escalator.use_new_metrics` / `escalator.use_sensitivity` → the four
//!   Fig. 15 configurations (Parties-base, +metrics, +sensitivity, full
//!   Escalator).

use sg_core::config::ContainerParams;
use sg_core::escalator::{Escalator, EscalatorObservation};
use sg_core::fault::FaultNotice;
use sg_core::firstresponder::{FirstResponder, FirstResponderConfig};
use sg_core::ids::ContainerId;
use sg_core::ids::NodeId;
use sg_core::metadata::{RpcMetadata, DEFAULT_UPSCALE_HOPS};
use sg_core::score::ContainerObservation;
use sg_core::time::{SimDuration, SimTime};
use sg_core::{AllocAction, EscalatorConfig};
use sg_sim::controller::{ControlAction, Controller, ControllerFactory, NodeInit, NodeSnapshot};
use sg_telemetry::{ActionKind, MetricId, MetricSample, ScoredAction, SharedSink, TelemetryEvent};
use std::collections::{HashMap, HashSet};

/// Escalator decision-cycle period (ours).
///
/// Escalator reuses the Parties ALLOCATION ALGORITHM but runs its own,
/// finer decision cycle — the paper's Table I places SurgeGuard's slow
/// path well under Parties' 500 ms, and the §VI-B claim that Escalator
/// alone captures almost all of SurgeGuard's long-surge benefit requires
/// sub-surge reaction time. FirstResponder covers everything faster than
/// this.
pub const ESCALATOR_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// Minimum FirstResponder cooldown window (ours; the nominal window is
/// 2× the profiled end-to-end latency, §IV-A).
const MIN_COOLDOWN: SimDuration = SimDuration::from_micros(500);

/// Configuration of the full controller: the switches the paper's
/// component analyses turn off.
#[derive(Debug, Clone)]
pub struct SurgeGuardConfig {
    /// Escalator ablation switches.
    pub escalator: EscalatorConfig,
    /// Enable the per-packet fast path.
    pub enable_firstresponder: bool,
}

impl Default for SurgeGuardConfig {
    fn default() -> Self {
        SurgeGuardConfig {
            escalator: EscalatorConfig::default(),
            enable_firstresponder: true,
        }
    }
}

/// The per-node SurgeGuard instance.
pub struct SurgeGuard {
    node: NodeId,
    /// Local container ids, ascending — the metrics hook must iterate in
    /// a deterministic order (HashMap order is not).
    local_ids: Vec<ContainerId>,
    fr: Option<FirstResponder>,
    escalator: Escalator,
    params: HashMap<ContainerId, ContainerParams>,
    local_downstream: HashMap<ContainerId, Vec<ContainerId>>,
    /// Containers whose egress hint is currently set (to emit clears).
    hinted: HashSet<ContainerId>,
    /// Decision-trace sink for scoreboard events (None = telemetry off).
    sink: Option<SharedSink>,
}

impl SurgeGuard {
    /// Build from the node description.
    pub fn new(cfg: SurgeGuardConfig, init: &NodeInit) -> Self {
        let n = init.max_container_id + 1;
        let fr = cfg.enable_firstresponder.then(|| {
            let mut expected = vec![None; n];
            let mut downstream = vec![Vec::new(); n];
            for c in &init.containers {
                expected[c.id.index()] = Some(c.params.expected_time_from_start);
                downstream[c.id.index()] = c.local_downstream.clone();
            }
            let cooldown = (init.e2e_low_load * 2).max(MIN_COOLDOWN);
            FirstResponder::new(FirstResponderConfig {
                expected_time_from_start: expected,
                local_downstream: downstream,
                cooldown,
                max_freq_level: init.freq_table.max_level(),
            })
        });
        let mut escalator = Escalator::new(
            cfg.escalator,
            init.constraints,
            init.freq_table.clone(),
            init.max_container_id,
        );
        // The calibrated initial allocation is the foreground baseline;
        // revocation returns surge grants to the node's spare pool but
        // never below it.
        escalator.set_floors(init.containers.iter().map(|c| (c.id, c.initial.cores)));
        let mut local_ids: Vec<ContainerId> = init.containers.iter().map(|c| c.id).collect();
        local_ids.sort_unstable();
        SurgeGuard {
            node: init.node,
            local_ids,
            fr,
            escalator,
            params: init.containers.iter().map(|c| (c.id, c.params)).collect(),
            local_downstream: init
                .containers
                .iter()
                .map(|c| (c.id, c.local_downstream.clone()))
                .collect(),
            hinted: HashSet::new(),
            sink: None,
        }
    }

    /// Diagnostics: FirstResponder boost count.
    pub fn fr_boosts(&self) -> u64 {
        self.fr.as_ref().map_or(0, |f| f.boosts_issued())
    }
}

impl Controller for SurgeGuard {
    fn name(&self) -> &'static str {
        "surgeguard"
    }

    fn tick_interval(&self) -> SimDuration {
        ESCALATOR_INTERVAL
    }

    fn on_packet(
        &mut self,
        now: SimTime,
        dest: ContainerId,
        meta: RpcMetadata,
    ) -> Vec<ControlAction> {
        let Some(fr) = &mut self.fr else {
            return Vec::new();
        };
        match fr.on_packet(dest, meta, now) {
            Some(boost) => boost
                .targets
                .into_iter()
                .map(|id| ControlAction::SetFreq {
                    id,
                    level: boost.level,
                })
                .collect(),
            None => Vec::new(),
        }
    }

    fn attach_telemetry(&mut self, sink: SharedSink) {
        self.sink = Some(sink);
    }

    /// A restarted container is a fresh instance: the sensitivity row the
    /// Escalator learned about it describes the dead one, so drop it and
    /// re-profile (the paper's re-profiling-on-redeploy requirement).
    fn on_fault(&mut self, _now: SimTime, notice: FaultNotice) {
        match notice {
            FaultNotice::Restarted { container } => {
                self.escalator.reset_sensitivity(container);
            }
        }
    }

    /// The Escalator's sensitivity matrix, one gauge per known
    /// core-count arm: `sg_sensitivity{container, arm}` is the marginal
    /// exec-time reduction of growing `arm` → `arm + 1` cores. Only the
    /// controller can see this — it is the internal state the paper's
    /// Fig. 6 analysis is about.
    fn metric_samples(&mut self, now: SimTime, out: &mut Vec<MetricSample>) {
        let matrix = self.escalator.sensitivity();
        for &id in &self.local_ids {
            for (cores, sens) in matrix.sens_arms(id.index()) {
                out.push(MetricSample {
                    at: now,
                    node: self.node,
                    container: id,
                    metric: MetricId::Sensitivity(cores as u8),
                    value: sens,
                });
            }
        }
    }

    fn on_tick(&mut self, now: SimTime, snapshot: &NodeSnapshot) -> Vec<ControlAction> {
        let inputs: Vec<EscalatorObservation> = snapshot
            .containers
            .iter()
            .map(|c| EscalatorObservation {
                obs: ContainerObservation {
                    id: c.id,
                    metrics: c.metrics,
                    params: self.params[&c.id],
                    local_downstream: self.local_downstream[&c.id].clone(),
                },
                alloc: c.alloc,
            })
            .collect();
        let decision = self.escalator.decide(&inputs, ESCALATOR_INTERVAL);

        let mut actions: Vec<ControlAction> = decision
            .actions
            .into_iter()
            .map(|a| match a {
                AllocAction::SetCores { id, cores } => ControlAction::SetCores { id, cores },
                AllocAction::SetFreq { id, level } => ControlAction::SetFreq { id, level },
            })
            .collect();

        // Refresh egress hints: set for this cycle's queue-builders, clear
        // the ones that recovered.
        let new_hints: HashSet<ContainerId> = decision.set_hint.iter().copied().collect();
        for &id in &new_hints {
            actions.push(ControlAction::SetEgressHint {
                id,
                hops: DEFAULT_UPSCALE_HOPS,
            });
        }
        for &id in self.hinted.difference(&new_hints) {
            actions.push(ControlAction::SetEgressHint { id, hops: 0 });
        }
        self.hinted = new_hints;

        // Record the cycle's scoreboard with a reason per emitted action:
        // the controller is the only place that knows *why* (the paper's
        // Table II candidate scores), so the harness can't derive this.
        if let Some(sink) = &self.sink {
            let score_of: HashMap<ContainerId, u32> =
                decision.board.scores.iter().copied().collect();
            let current: HashMap<ContainerId, (u32, u8)> = snapshot
                .containers
                .iter()
                .map(|c| (c.id, (c.alloc.cores, c.alloc.freq_level)))
                .collect();
            let scored = actions
                .iter()
                .map(|a| {
                    let (container, kind, reason) = match *a {
                        ControlAction::SetCores { id, cores } => {
                            let cur = current.get(&id).map_or(0, |c| c.0);
                            let score = score_of.get(&id).copied().unwrap_or(0);
                            let verb = if cores >= cur { "upscale" } else { "downscale" };
                            (
                                id,
                                ActionKind::SetCores { cores },
                                format!("{verb}: score {score}, cores {cur}->{cores}"),
                            )
                        }
                        ControlAction::SetFreq { id, level } => {
                            let cur = current.get(&id).map_or(0, |c| c.1);
                            let score = score_of.get(&id).copied().unwrap_or(0);
                            let verb = if level >= cur { "boost" } else { "retire" };
                            (
                                id,
                                ActionKind::SetFreq { level },
                                format!("{verb}: score {score}, level {cur}->{level}"),
                            )
                        }
                        ControlAction::SetBandwidth { id, units } => (
                            id,
                            ActionKind::SetBandwidth { units },
                            "bandwidth partition".to_string(),
                        ),
                        ControlAction::SetEgressHint { id, hops } => {
                            let reason = if hops > 0 {
                                "queueBuildup violation: hint off-node downstream".to_string()
                            } else {
                                "recovered: clear egress hint".to_string()
                            };
                            (id, ActionKind::SetEgressHint { hops }, reason)
                        }
                        ControlAction::SetReplicas { id, replicas } => (
                            id,
                            ActionKind::SetReplicas { replicas },
                            format!("horizontal: set replica count {replicas}"),
                        ),
                    };
                    ScoredAction {
                        container,
                        kind,
                        reason,
                    }
                })
                .collect();
            sink.emit(TelemetryEvent::Scoreboard {
                at: now,
                node: snapshot.node,
                scores: decision.board.scores.clone(),
                actions: scored,
            });
        }

        actions
    }
}

/// Factory for [`SurgeGuard`].
#[derive(Debug, Clone, Default)]
pub struct SurgeGuardFactory {
    /// Controller configuration (shared by every node's instance).
    pub cfg: SurgeGuardConfig,
}

impl SurgeGuardFactory {
    /// The full controller (FirstResponder + Escalator).
    pub fn full() -> Self {
        Self::default()
    }

    /// Escalator without the fast path (the Fig. 10 comparison arm).
    pub fn escalator_only() -> Self {
        SurgeGuardFactory {
            cfg: SurgeGuardConfig {
                enable_firstresponder: false,
                ..Default::default()
            },
        }
    }

    /// Fig. 15 ablations over the Parties base allocator.
    pub fn ablation(use_new_metrics: bool, use_sensitivity: bool) -> Self {
        SurgeGuardFactory {
            cfg: SurgeGuardConfig {
                enable_firstresponder: false,
                escalator: EscalatorConfig {
                    use_new_metrics,
                    use_sensitivity,
                },
            },
        }
    }
}

impl ControllerFactory for SurgeGuardFactory {
    fn name(&self) -> &'static str {
        "surgeguard"
    }

    fn make(&self, init: NodeInit) -> Box<dyn Controller> {
        Box::new(SurgeGuard::new(self.cfg.clone(), &init))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{chain, snapshot_queued};
    use sg_core::time::SimTime;

    /// Both chain containers at 100 requests of 500 µs execMetric on 4
    /// cores, c0 with queueBuildup `qb0`.
    fn snap(qb0: f64) -> NodeSnapshot {
        snapshot_queued(&[
            (0, 4, (500.0 * qb0) as u64, 100, qb0),
            (1, 4, 500, 100, 1.0),
        ])
    }

    #[test]
    fn late_packet_boosts_dest_and_local_downstream() {
        let mut sg = SurgeGuard::new(SurgeGuardConfig::default(), &chain());
        let meta = RpcMetadata::new_job(SimTime::ZERO);
        // c0 expects packets within 500us of job start; arrive at 5ms.
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
        assert_eq!(sg.fr_boosts(), 1);
    }

    #[test]
    fn escalator_only_variant_has_no_fast_path() {
        let mut sg = SurgeGuard::new(SurgeGuardFactory::escalator_only().cfg.clone(), &chain());
        let meta = RpcMetadata::new_job(SimTime::ZERO);
        assert!(sg
            .on_packet(SimTime::from_secs(1), ContainerId(0), meta)
            .is_empty());
        assert_eq!(sg.fr_boosts(), 0);
    }

    #[test]
    fn queue_buildup_sets_then_clears_egress_hints() {
        let mut sg = SurgeGuard::new(SurgeGuardConfig::default(), &chain());
        // Cycle 1: c0 shows heavy queue buildup → hint set.
        let a1 = sg.on_tick(SimTime::from_millis(100), &snap(3.0));
        assert!(a1.contains(&ControlAction::SetEgressHint {
            id: ContainerId(0),
            hops: DEFAULT_UPSCALE_HOPS,
        }));
        // Cycle 2: buildup gone → hint cleared exactly once.
        let a2 = sg.on_tick(SimTime::from_millis(200), &snap(1.0));
        assert!(a2.contains(&ControlAction::SetEgressHint {
            id: ContainerId(0),
            hops: 0,
        }));
        let a3 = sg.on_tick(SimTime::from_millis(300), &snap(1.0));
        assert!(!a3
            .iter()
            .any(|a| matches!(a, ControlAction::SetEgressHint { .. })));
    }
}
