//! Trace aggregation behind the `sg-trace` binary.
//!
//! Consumes a stream of [`TelemetryEvent`]s and produces the four views
//! the tentpole asks for: per-container allocation timeline, the
//! boost→retire latency distribution, the decision-cycle action
//! histogram (by origin × kind × outcome), and the clamp/rejection
//! audit, plus the explicit drop count.

use crate::event::{ActionKind, ActionOutcome, EventFamily, TelemetryEvent};
use serde_json::{json, Value};
use sg_core::time::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One step in a container's allocation timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocStep {
    /// When the allocation changed.
    pub at: SimTime,
    /// Cores after the change.
    pub cores: u32,
    /// DVFS level after the change.
    pub freq_level: u8,
    /// Frequency in GHz after the change.
    pub freq_ghz: f64,
}

/// Aggregated view of one trace.
#[derive(Debug, Default)]
pub struct TraceSummary {
    /// Total events consumed (excluding unparseable lines).
    pub events: u64,
    /// Allocation timeline per container, in trace order.
    pub timeline: BTreeMap<u32, Vec<AllocStep>>,
    /// Completed boost episodes (level left 0 → returned to 0) per
    /// container: durations in nanoseconds.
    pub boost_retire_ns: Vec<u64>,
    /// Boost episodes still open when the trace ended.
    pub open_boosts: u64,
    /// FirstResponder boosts observed, with min/sum of triggering slack.
    pub fr_boosts: u64,
    /// Most negative triggering slack seen (ns), if any boost fired.
    pub worst_slack_ns: Option<i64>,
    /// Action counts keyed by `(origin, kind, outcome)` wire names.
    pub action_histogram: BTreeMap<(String, String, String), u64>,
    /// Cross-node rejections per offending `(node, container)` pair.
    pub cross_node_rejections: BTreeMap<(u32, u32), u64>,
    /// Actions clamped to constraints (not cross-node).
    pub clamped: u64,
    /// Decision cycles observed (scoreboard events).
    pub cycles: u64,
    /// Window records observed.
    pub windows: u64,
    /// Events the recording pipeline itself dropped (from `Dropped`
    /// records in the trace), span-family drops excepted: those are
    /// [`crate::critical::SpanReport::dropped`].
    pub dropped: u64,
    /// Span records seen in the stream (summarized separately by
    /// [`crate::critical::SpanReport`]).
    pub spans: u64,
    /// Metrics samples/headers seen in the stream (summarized separately
    /// by [`crate::timeline::TimelineSet`] / `sg-trace timeline`).
    pub metric_samples: u64,
    /// Accepted (`Deferred`) `SetFreq` actions per container.
    pub freq_deferred: BTreeMap<u32, u64>,
    /// Landed (`Applied`/`Clamped`) `SetCores` actions per container.
    pub core_actions: BTreeMap<u32, u64>,
    /// Observed DVFS-level changes per container (baseline level 0).
    pub freq_changes: BTreeMap<u32, u64>,
    /// Observed core-count changes per container (between consecutive
    /// `Alloc` records; the pre-trace baseline is unknowable).
    pub core_changes: BTreeMap<u32, u64>,
    /// Replica-lifecycle transition counts keyed by phase wire name
    /// (`spawned` / `draining` / `retired`).
    pub replica_transitions: BTreeMap<&'static str, u64>,
    /// Fault-injection starts per fault class (`active = true` records;
    /// every fault emits a matching end record not counted here).
    pub fault_starts: BTreeMap<String, u64>,
    /// Schema header strings seen in the stream (`sg-trace/v1` style),
    /// in trace order. `sg-trace` warns on unrecognized values.
    pub schemas: Vec<String>,
    /// Profiler events seen in the stream (summarized separately by
    /// [`crate::profile::ProfileReport`] / `sg-trace --profile`).
    pub profile_events: u64,
    /// Aggregation snapshots (`digest`/`slo`/`topk`) seen in the stream
    /// (summarized separately by `sg-trace watch`).
    pub agg_events: u64,
    /// Active-replica-count steps per service group (keyed by the
    /// group's primary container), in trace order.
    pub replica_timeline: BTreeMap<u32, Vec<(SimTime, u32)>>,
}

/// Incremental [`TraceSummary`] accumulator, so `sg-trace` can fold a
/// multi-gigabyte export one streamed event at a time instead of
/// materializing the file (see [`crate::reader::TraceStream`]).
#[derive(Debug, Default)]
pub struct SummaryBuilder {
    s: TraceSummary,
    /// Per-container open boost episode: start while level > 0.
    open: BTreeMap<u32, SimTime>,
}

impl SummaryBuilder {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one event.
    pub fn push(&mut self, event: TelemetryEvent) {
        let s = &mut self.s;
        let open = &mut self.open;
        s.events += 1;
        {
            match event {
                TelemetryEvent::Action {
                    node,
                    container,
                    origin,
                    kind,
                    outcome,
                    ..
                } => {
                    *s.action_histogram
                        .entry((
                            origin.name().to_string(),
                            kind.name().to_string(),
                            outcome.name().to_string(),
                        ))
                        .or_insert(0) += 1;
                    match outcome {
                        ActionOutcome::RejectedCrossNode => {
                            *s.cross_node_rejections
                                .entry((node.0, container.0))
                                .or_insert(0) += 1;
                        }
                        ActionOutcome::Clamped => s.clamped += 1,
                        _ => {}
                    }
                    match (kind, outcome) {
                        (ActionKind::SetFreq { .. }, ActionOutcome::Deferred) => {
                            *s.freq_deferred.entry(container.0).or_insert(0) += 1;
                        }
                        (
                            ActionKind::SetCores { .. },
                            ActionOutcome::Applied | ActionOutcome::Clamped,
                        ) => {
                            *s.core_actions.entry(container.0).or_insert(0) += 1;
                        }
                        _ => {}
                    }
                }
                TelemetryEvent::Alloc {
                    at,
                    container,
                    cores,
                    freq_level,
                    freq_ghz,
                } => {
                    s.timeline.entry(container.0).or_default().push(AllocStep {
                        at,
                        cores,
                        freq_level,
                        freq_ghz,
                    });
                    if freq_level > 0 {
                        open.entry(container.0).or_insert(at);
                    } else if let Some(start) = open.remove(&container.0) {
                        s.boost_retire_ns
                            .push(at.as_nanos().saturating_sub(start.as_nanos()));
                    }
                }
                TelemetryEvent::FrBoost { slack_ns, .. } => {
                    s.fr_boosts += 1;
                    s.worst_slack_ns = Some(s.worst_slack_ns.map_or(slack_ns, |w| w.min(slack_ns)));
                }
                TelemetryEvent::ReplicaLifecycle {
                    at,
                    service,
                    phase,
                    active,
                    ..
                } => {
                    *s.replica_transitions.entry(phase.name()).or_insert(0) += 1;
                    s.replica_timeline
                        .entry(service.0)
                        .or_default()
                        .push((at, active));
                }
                TelemetryEvent::Window { .. } => s.windows += 1,
                TelemetryEvent::Scoreboard { .. } => s.cycles += 1,
                TelemetryEvent::Span(_) => s.spans += 1,
                TelemetryEvent::Metric(_) | TelemetryEvent::MetricsMeta { .. } => {
                    s.metric_samples += 1
                }
                TelemetryEvent::Fault { fault, active, .. } => {
                    if active {
                        *s.fault_starts.entry(fault).or_insert(0) += 1;
                    }
                }
                // Span-family drops fail the span audit instead (see
                // `SpanReport::dropped`).
                TelemetryEvent::Dropped {
                    family: Some(EventFamily::Span),
                    ..
                } => {}
                TelemetryEvent::Dropped { count, .. } => s.dropped += count,
                TelemetryEvent::Schema { schema } => s.schemas.push(schema),
                TelemetryEvent::ProfileMeta { .. }
                | TelemetryEvent::ProfilePhase { .. }
                | TelemetryEvent::ProfileMark { .. } => s.profile_events += 1,
                TelemetryEvent::Digest { .. }
                | TelemetryEvent::Slo { .. }
                | TelemetryEvent::TopK { .. } => s.agg_events += 1,
            }
        }
    }

    /// Close open episodes, derive the reconciliation inputs, and
    /// return the finished summary.
    pub fn finish(self) -> TraceSummary {
        let SummaryBuilder { mut s, open } = self;
        s.open_boosts = open.len() as u64;
        s.boost_retire_ns.sort_unstable();

        // Reconciliation inputs: how often each container's allocation
        // actually moved. DVFS starts at level 0 on both substrates, so
        // the first boost counts; the initial core count is not in the
        // trace, so only step-to-step core changes count.
        for (container, steps) in &s.timeline {
            let mut level = 0u8;
            let mut cores: Option<u32> = None;
            for step in steps {
                if step.freq_level != level {
                    *s.freq_changes.entry(*container).or_insert(0) += 1;
                    level = step.freq_level;
                }
                if let Some(prev) = cores {
                    if step.cores != prev {
                        *s.core_changes.entry(*container).or_insert(0) += 1;
                    }
                }
                cores = Some(step.cores);
            }
        }
        s
    }
}

impl TraceSummary {
    /// Clamp/reconciliation audit: every observed allocation change must
    /// be explainable by an accepted action in the same trace, and the
    /// recording pipeline must not have dropped events. Returns one line
    /// per mismatch; empty means the trace reconciles.
    pub fn audit(&self) -> Vec<String> {
        let mut issues = Vec::new();
        for (container, changes) in &self.freq_changes {
            let budget = self.freq_deferred.get(container).copied().unwrap_or(0);
            if *changes > budget {
                issues.push(format!(
                    "container {container}: {changes} DVFS change(s) but only {budget} \
                     accepted set_freq action(s)"
                ));
            }
        }
        for (container, changes) in &self.core_changes {
            let budget = self.core_actions.get(container).copied().unwrap_or(0);
            if *changes > budget {
                issues.push(format!(
                    "container {container}: {changes} core change(s) but only {budget} \
                     landed set_cores action(s)"
                ));
            }
        }
        if self.dropped > 0 {
            issues.push(format!(
                "{} event(s) dropped by the recording pipeline",
                self.dropped
            ));
        }
        issues
    }

    /// Machine-readable summary for `sg-trace --json`.
    pub fn to_json(&self) -> Value {
        let histogram: Vec<Value> = self
            .action_histogram
            .iter()
            .map(|((origin, kind, outcome), count)| {
                json!({
                    "origin": origin.as_str(),
                    "kind": kind.as_str(),
                    "outcome": outcome.as_str(),
                    "count": *count,
                })
            })
            .collect();
        let rejections: Vec<Value> = self
            .cross_node_rejections
            .iter()
            .map(|((node, container), count)| {
                json!({ "node": *node, "container": *container, "count": *count })
            })
            .collect();
        let fault_starts: Vec<Value> = self
            .fault_starts
            .iter()
            .map(|(fault, count)| json!({ "fault": fault.as_str(), "count": *count }))
            .collect();
        json!({
            "events": self.events,
            "cycles": self.cycles,
            "windows": self.windows,
            "fr_boosts": self.fr_boosts,
            "worst_slack_ns": self.worst_slack_ns,
            "boost_episodes": self.boost_retire_ns.len(),
            "boost_retire_p50_ns": self.boost_retire_percentile(0.50),
            "boost_retire_p99_ns": self.boost_retire_percentile(0.99),
            "open_boosts": self.open_boosts,
            "clamped": self.clamped,
            "cross_node_rejections": rejections,
            "action_histogram": histogram,
            "dropped": self.dropped,
            "spans": self.spans,
            "metric_samples": self.metric_samples,
            "agg_events": self.agg_events,
            "replica_transitions": self
                .replica_transitions
                .iter()
                .map(|(phase, count)| json!({ "phase": *phase, "count": *count }))
                .collect::<Vec<Value>>(),
            "fault_starts": fault_starts,
            "audit": self.audit(),
        })
    }

    /// Percentile (0.0–1.0) of the boost→retire distribution, ns.
    pub(crate) fn boost_retire_percentile(&self, q: f64) -> Option<u64> {
        if self.boost_retire_ns.is_empty() {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0)) * (self.boost_retire_ns.len() - 1) as f64).round() as usize;
        Some(self.boost_retire_ns[rank])
    }

    /// Total cross-node rejections.
    pub(crate) fn cross_node_total(&self) -> u64 {
        self.cross_node_rejections.values().sum()
    }

    /// Render the human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace: {} events", self.events);
        let _ = writeln!(
            out,
            "  {} decision cycles, {} window records, {} FirstResponder boosts",
            self.cycles, self.windows, self.fr_boosts
        );
        if let Some(worst) = self.worst_slack_ns {
            let _ = writeln!(out, "  worst triggering slack: {worst} ns");
        }
        if self.spans > 0 {
            let _ = writeln!(
                out,
                "  {} span records (see the span report for attribution)",
                self.spans
            );
        }
        if self.metric_samples > 0 {
            let _ = writeln!(
                out,
                "  {} metrics samples (render with sg-trace timeline)",
                self.metric_samples
            );
        }
        if self.agg_events > 0 {
            let _ = writeln!(
                out,
                "  {} aggregation snapshots (render with sg-trace watch)",
                self.agg_events
            );
        }
        if self.profile_events > 0 {
            let _ = writeln!(
                out,
                "  {} profiler records (render with sg-trace --profile)",
                self.profile_events
            );
        }
        if !self.fault_starts.is_empty() {
            let counts: Vec<String> = self
                .fault_starts
                .iter()
                .map(|(fault, count)| format!("{fault}={count}"))
                .collect();
            let _ = writeln!(out, "  faults injected: {}", counts.join(" "));
        }
        if self.dropped > 0 {
            let _ = writeln!(
                out,
                "  !! {} events dropped by the recording pipeline",
                self.dropped
            );
        }

        let _ = writeln!(out, "\nallocation timeline (per container):");
        if self.timeline.is_empty() {
            let _ = writeln!(out, "  (no allocation changes recorded)");
        }
        for (container, steps) in &self.timeline {
            let _ = writeln!(out, "  c{container}: {} changes", steps.len());
            for step in steps {
                let _ = writeln!(
                    out,
                    "    {:>12} ns  cores={:<3} level={:<2} ({:.2} GHz)",
                    step.at.as_nanos(),
                    step.cores,
                    step.freq_level,
                    step.freq_ghz
                );
            }
        }

        if !self.replica_timeline.is_empty() {
            let _ = writeln!(out, "\nreplica timeline (per service group):");
            for (service, steps) in &self.replica_timeline {
                let _ = writeln!(out, "  s{service}: {} transitions", steps.len());
                for (at, active) in steps {
                    let _ = writeln!(out, "    {:>12} ns  active={active}", at.as_nanos());
                }
            }
            let counts: Vec<String> = self
                .replica_transitions
                .iter()
                .map(|(phase, count)| format!("{phase}={count}"))
                .collect();
            let _ = writeln!(out, "  transitions: {}", counts.join(" "));
        }

        let _ = writeln!(out, "\nboost -> retire latency:");
        if self.boost_retire_ns.is_empty() {
            let _ = writeln!(out, "  (no completed boost episodes)");
        } else {
            let n = self.boost_retire_ns.len();
            let mean = self.boost_retire_ns.iter().sum::<u64>() / n as u64;
            let _ = writeln!(out, "  {n} completed episodes, mean {mean} ns");
            for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("max", 1.0)] {
                if let Some(v) = self.boost_retire_percentile(q) {
                    let _ = writeln!(out, "  {label}: {v} ns");
                }
            }
        }
        if self.open_boosts > 0 {
            let _ = writeln!(out, "  ({} episodes still open at end)", self.open_boosts);
        }

        let _ = writeln!(out, "\naction histogram (origin / kind / outcome):");
        if self.action_histogram.is_empty() {
            let _ = writeln!(out, "  (no actions recorded)");
        }
        for ((origin, kind, outcome), count) in &self.action_histogram {
            let _ = writeln!(out, "  {origin:<12} {kind:<16} {outcome:<20} {count:>8}");
        }

        let _ = writeln!(out, "\nclamp audit:");
        let _ = writeln!(out, "  constraint-clamped actions: {}", self.clamped);
        let _ = writeln!(out, "  cross-node rejections: {}", self.cross_node_total());
        for ((node, container), count) in &self.cross_node_rejections {
            let _ = writeln!(out, "    node {node} -> c{container}: {count}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summarize(events: impl IntoIterator<Item = TelemetryEvent>) -> TraceSummary {
        let mut b = SummaryBuilder::new();
        for event in events {
            b.push(event);
        }
        b.finish()
    }
    use crate::event::{ActionKind, ActionOrigin, TelemetryEvent};
    use sg_core::ids::{ContainerId, NodeId};

    fn action(outcome: ActionOutcome) -> TelemetryEvent {
        TelemetryEvent::Action {
            at: SimTime::from_micros(5),
            node: NodeId(1),
            container: ContainerId(0),
            origin: ActionOrigin::Tick,
            kind: ActionKind::SetFreq { level: 3 },
            outcome,
        }
    }

    fn alloc(at_us: u64, level: u8) -> TelemetryEvent {
        TelemetryEvent::Alloc {
            at: SimTime::from_micros(at_us),
            container: ContainerId(2),
            cores: 2,
            freq_level: level,
            freq_ghz: 1.0 + level as f64,
        }
    }

    #[test]
    fn boost_retire_episodes_are_paired() {
        let s = summarize(vec![
            alloc(100, 8), // boost opens
            alloc(150, 8), // still boosted: same episode
            alloc(300, 0), // retires: 200us episode
            alloc(400, 5), // opens again, never retires
        ]);
        assert_eq!(s.boost_retire_ns, vec![200_000]);
        assert_eq!(s.open_boosts, 1);
        assert_eq!(s.timeline[&2].len(), 4);
        assert_eq!(s.boost_retire_percentile(0.5), Some(200_000));
    }

    #[test]
    fn audit_counts_rejections_and_clamps_separately() {
        let s = summarize(vec![
            action(ActionOutcome::Applied),
            action(ActionOutcome::Clamped),
            action(ActionOutcome::RejectedCrossNode),
            action(ActionOutcome::RejectedCrossNode),
            TelemetryEvent::Dropped {
                count: 3,
                family: None,
            },
        ]);
        assert_eq!(s.clamped, 1);
        assert_eq!(s.cross_node_total(), 2);
        assert_eq!(s.cross_node_rejections[&(1, 0)], 2);
        assert_eq!(s.dropped, 3);
        let report = s.render();
        assert!(report.contains("cross-node rejections: 2"));
        assert!(report.contains("dropped"));
    }

    #[test]
    fn render_survives_empty_trace() {
        let report = summarize(vec![]).render();
        assert!(report.contains("0 events"));
    }

    fn deferred_freq(container: u32) -> TelemetryEvent {
        TelemetryEvent::Action {
            at: SimTime::from_micros(1),
            node: NodeId(0),
            container: ContainerId(container),
            origin: ActionOrigin::PacketHook,
            kind: ActionKind::SetFreq { level: 8 },
            outcome: ActionOutcome::Deferred,
        }
    }

    #[test]
    fn reconciled_trace_passes_the_audit() {
        // One accepted boost explains one observed DVFS change.
        let s = summarize(vec![deferred_freq(2), alloc(50, 8), alloc(300, 8)]);
        assert_eq!(s.freq_changes.get(&2), Some(&1));
        assert_eq!(s.freq_deferred.get(&2), Some(&1));
        assert!(s.audit().is_empty(), "{:?}", s.audit());
    }

    #[test]
    fn unexplained_alloc_change_fails_the_audit() {
        // The level moved 0 -> 8 -> 0 (two changes) on one accepted
        // action: the second change has no action to explain it.
        let s = summarize(vec![deferred_freq(2), alloc(50, 8), alloc(300, 0)]);
        assert_eq!(s.freq_changes.get(&2), Some(&2));
        let issues = s.audit();
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(issues[0].contains("DVFS"));

        // Core changes without any landed set_cores.
        let core_events = vec![
            TelemetryEvent::Alloc {
                at: SimTime::from_micros(10),
                container: ContainerId(1),
                cores: 2,
                freq_level: 0,
                freq_ghz: 1.8,
            },
            TelemetryEvent::Alloc {
                at: SimTime::from_micros(20),
                container: ContainerId(1),
                cores: 6,
                freq_level: 0,
                freq_ghz: 1.8,
            },
        ];
        let s = summarize(core_events);
        let issues = s.audit();
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(issues[0].contains("core change"));
    }

    #[test]
    fn dropped_events_fail_the_audit() {
        let s = summarize(vec![TelemetryEvent::Dropped {
            count: 2,
            family: None,
        }]);
        assert!(!s.audit().is_empty());
    }

    /// Untagged and decision-family drops are the decision audit's; a
    /// span-family drop is the span audit's and leaves this one clean.
    #[test]
    fn only_span_family_drops_stay_out_of_the_decision_audit() {
        let dropped = |family| TelemetryEvent::Dropped { count: 1, family };
        let s = summarize(vec![
            dropped(None),
            dropped(Some(EventFamily::Decision)),
            dropped(Some(EventFamily::Metrics)),
        ]);
        assert_eq!(s.dropped, 3);
        let s = summarize(vec![dropped(Some(EventFamily::Span))]);
        assert_eq!(s.dropped, 0);
        assert!(s.audit().is_empty(), "{:?}", s.audit());
    }

    #[test]
    fn replica_lifecycle_builds_a_per_service_timeline() {
        use crate::event::ReplicaPhase;
        let life = |at_ms: u64, phase, active| TelemetryEvent::ReplicaLifecycle {
            at: SimTime::from_millis(at_ms),
            node: NodeId(0),
            container: ContainerId(5),
            service: ContainerId(1),
            replica: 2,
            phase,
            active,
        };
        let s = summarize(vec![
            life(100, ReplicaPhase::Spawned, 2),
            life(500, ReplicaPhase::Draining, 1),
            life(600, ReplicaPhase::Retired, 1),
        ]);
        assert_eq!(s.replica_transitions.get("spawned"), Some(&1));
        assert_eq!(s.replica_transitions.get("draining"), Some(&1));
        assert_eq!(s.replica_transitions.get("retired"), Some(&1));
        assert_eq!(
            s.replica_timeline[&1],
            vec![
                (SimTime::from_millis(100), 2),
                (SimTime::from_millis(500), 1),
                (SimTime::from_millis(600), 1),
            ]
        );
        assert!(s.audit().is_empty(), "{:?}", s.audit());
        let report = s.render();
        assert!(report.contains("replica timeline"), "{report}");
        assert!(report.contains("spawned=1"), "{report}");
    }

    #[test]
    fn fault_events_are_counted_by_class() {
        let fault = |at_ms: u64, fault: &str, active| TelemetryEvent::Fault {
            at: SimTime::from_millis(at_ms),
            fault: fault.to_string(),
            target: "svc:1".to_string(),
            active,
        };
        let s = summarize(vec![
            fault(100, "crash", true),
            fault(200, "crash", false),
            fault(300, "straggler", true),
            fault(350, "crash", true),
        ]);
        assert_eq!(s.fault_starts.get("crash"), Some(&2));
        assert_eq!(s.fault_starts.get("straggler"), Some(&1));
        assert!(s.audit().is_empty(), "{:?}", s.audit());
        let report = s.render();
        assert!(
            report.contains("faults injected: crash=2 straggler=1"),
            "{report}"
        );
    }

    #[test]
    fn json_summary_has_the_key_fields() {
        let s = summarize(vec![
            deferred_freq(2),
            alloc(50, 8),
            TelemetryEvent::Dropped {
                count: 1,
                family: None,
            },
        ]);
        let v = s.to_json();
        assert_eq!(v.get("events").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("dropped").and_then(Value::as_u64), Some(1));
        let audit = v.get("audit").and_then(Value::as_array).unwrap();
        assert_eq!(audit.len(), 1);
    }
}
