//! The typed event taxonomy. Its JSONL encoding is `wire.rs`'s.
//!
//! Every event is one self-describing JSON object per line, keyed by a
//! `"type"` discriminator, so traces stream, concatenate, and survive
//! partial writes. Encoding and decoding round-trip exactly — `sg-trace`
//! reads back what the sinks wrote.

use crate::agg::{LatencyDigest, TopKEntry};
use crate::metrics::MetricSample;
use crate::profile::{ProfileMark, ProfilePhase};
use crate::span::SpanRecord;
use sg_core::fault::FaultKind;
use sg_core::ids::{ContainerId, NodeId};
use sg_core::metrics::WindowMetrics;
use sg_core::time::SimTime;

/// Schema identifier stamped as line 1 of decision-trace JSONL exports
/// (the `sg-bench/v1` naming convention).
pub const TRACE_SCHEMA: &str = "sg-trace/v1";
/// Schema identifier stamped as line 1 of span-trace JSONL exports.
pub const SPANS_SCHEMA: &str = "sg-spans/v1";

/// The per-stream trace an event belongs to. The live relay funnels all
/// three families through one ring; drops are counted and testified per
/// family so each output file accounts for its own losses only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventFamily {
    /// Decision-trace events (actions, allocs, boosts, windows,
    /// scoreboards).
    Decision,
    /// Per-request span records.
    Span,
    /// Metrics time-series samples.
    Metrics,
    /// Runtime self-profile records (phase totals, watermarks).
    Profile,
}

impl EventFamily {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            EventFamily::Decision => "decision",
            EventFamily::Span => "span",
            EventFamily::Metrics => "metrics",
            EventFamily::Profile => "profile",
        }
    }
}

/// What a control action asked for (the action's single argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionKind {
    /// `SetCores { cores }`.
    SetCores {
        /// Absolute core count requested.
        cores: u32,
    },
    /// `SetFreq { level }`.
    SetFreq {
        /// DVFS level requested.
        level: u8,
    },
    /// `SetBandwidth { units }` (tenths of a core-equivalent; 0 uncaps).
    SetBandwidth {
        /// Cap requested.
        units: u32,
    },
    /// `SetEgressHint { hops }` (0 clears).
    SetEgressHint {
        /// Hop count requested.
        hops: u8,
    },
    /// `SetReplicas { replicas }` (absolute replica count for the
    /// target's service group).
    SetReplicas {
        /// Replica count requested.
        replicas: u32,
    },
}

impl ActionKind {
    /// Stable wire name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            ActionKind::SetCores { .. } => "set_cores",
            ActionKind::SetFreq { .. } => "set_freq",
            ActionKind::SetBandwidth { .. } => "set_bandwidth",
            ActionKind::SetEgressHint { .. } => "set_egress_hint",
            ActionKind::SetReplicas { .. } => "set_replicas",
        }
    }

    /// The action's argument as a plain number (for the wire format).
    pub fn arg(self) -> u32 {
        match self {
            ActionKind::SetCores { cores } => cores,
            ActionKind::SetFreq { level } => level as u32,
            ActionKind::SetBandwidth { units } => units,
            ActionKind::SetEgressHint { hops } => hops as u32,
            ActionKind::SetReplicas { replicas } => replicas,
        }
    }

    /// Decode from the wire name and argument; `None` also for an
    /// argument too wide for the kind's field (never truncated).
    pub(crate) fn from_wire(name: &str, arg: u32) -> Option<ActionKind> {
        Some(match name {
            "set_cores" => ActionKind::SetCores { cores: arg },
            "set_freq" => ActionKind::SetFreq {
                level: u8::try_from(arg).ok()?,
            },
            "set_bandwidth" => ActionKind::SetBandwidth { units: arg },
            "set_egress_hint" => ActionKind::SetEgressHint {
                hops: u8::try_from(arg).ok()?,
            },
            "set_replicas" => ActionKind::SetReplicas { replicas: arg },
            _ => return None,
        })
    }
}

/// Which path produced an action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionOrigin {
    /// The controller's decision cycle (`on_tick`).
    Tick,
    /// The per-packet rx hook (`on_packet` — the FirstResponder site).
    PacketHook,
}

impl ActionOrigin {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            ActionOrigin::Tick => "tick",
            ActionOrigin::PacketHook => "packet_hook",
        }
    }
}

/// What the harness's enforcement layer did with an action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionOutcome {
    /// Applied as requested (possibly a no-op if already at the target).
    Applied,
    /// Accepted, but takes effect after the configured apply delay (the
    /// MSR-write latency on `SetFreq`).
    Deferred,
    /// Partially honoured: clamped to min/max bounds or the node's spare
    /// core budget.
    Clamped,
    /// Refused outright: the acting node does not own the target
    /// container (decentralization violation).
    RejectedCrossNode,
}

impl ActionOutcome {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            ActionOutcome::Applied => "applied",
            ActionOutcome::Deferred => "deferred",
            ActionOutcome::Clamped => "clamped",
            ActionOutcome::RejectedCrossNode => "rejected_cross_node",
        }
    }
}

/// A replica's lifecycle transition (see
/// [`TelemetryEvent::ReplicaLifecycle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaPhase {
    /// The replica slot was activated and now accepts load-balanced
    /// traffic.
    Spawned,
    /// The replica stopped taking new work and is finishing what it has.
    Draining,
    /// The replica finished draining; its cores are released and its
    /// allocation is metered at zero.
    Retired,
}

impl ReplicaPhase {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            ReplicaPhase::Spawned => "spawned",
            ReplicaPhase::Draining => "draining",
            ReplicaPhase::Retired => "retired",
        }
    }
}

/// One Escalator action with the score that motivated it and a
/// human-readable reason.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredAction {
    /// Target container.
    pub container: ContainerId,
    /// What was asked.
    pub kind: ActionKind,
    /// Why (e.g. `"upscale: score 3, sensitivity-ranked"`).
    pub reason: String,
}

/// One structured observability event.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// A controller action passing through the harness's enforcement
    /// layer (ownership check, constraint clamp, apply delay).
    Action {
        /// When the harness processed the action.
        at: SimTime,
        /// The node whose controller emitted it.
        node: NodeId,
        /// The targeted container.
        container: ContainerId,
        /// Emitting path.
        origin: ActionOrigin,
        /// The request.
        kind: ActionKind,
        /// What enforcement did with it.
        outcome: ActionOutcome,
    },
    /// An allocation change that actually landed.
    Alloc {
        /// When it took effect.
        at: SimTime,
        /// The container affected.
        container: ContainerId,
        /// Cores after the change.
        cores: u32,
        /// DVFS level after the change.
        freq_level: u8,
        /// Frequency in GHz after the change.
        freq_ghz: f64,
    },
    /// FirstResponder fired from the packet hook.
    FrBoost {
        /// Packet delivery time.
        at: SimTime,
        /// Node whose rx hook fired.
        node: NodeId,
        /// Destination container of the violating packet.
        dest: ContainerId,
        /// The triggering per-packet slack, nanoseconds (negative ⇒
        /// the request is behind its expected progress).
        slack_ns: i64,
        /// Boost level issued.
        level: u8,
        /// Number of containers boosted (dest + local downstream).
        targets: u32,
    },
    /// Per-container window metrics as seen by one decision cycle.
    Window {
        /// Tick time.
        at: SimTime,
        /// Observing node.
        node: NodeId,
        /// The container.
        container: ContainerId,
        /// Requests completed in the window.
        requests: u64,
        /// Mean `execTime`, nanoseconds.
        mean_exec_time_ns: u64,
        /// Mean `execMetric`, nanoseconds.
        mean_exec_metric_ns: u64,
        /// Mean `queueBuildup`.
        queue_buildup: f64,
        /// Requests that arrived carrying an `upscale` hint.
        upscale_hints: u64,
    },
    /// The Escalator's candidate scoreboard for one decision cycle, with
    /// a reason per emitted action.
    Scoreboard {
        /// Tick time.
        at: SimTime,
        /// Deciding node.
        node: NodeId,
        /// `(container, score)` for every observed container; score 0
        /// means "not a candidate".
        scores: Vec<(ContainerId, u32)>,
        /// The cycle's actions with their motivating reasons.
        actions: Vec<ScoredAction>,
    },
    /// A replica of a service group changed lifecycle phase (horizontal
    /// scaling landed).
    ReplicaLifecycle {
        /// When the transition happened.
        at: SimTime,
        /// The node hosting the group.
        node: NodeId,
        /// The replica's own container slot.
        container: ContainerId,
        /// The group's primary container (== the service id).
        service: ContainerId,
        /// Replica index within the group (0 = primary).
        replica: u32,
        /// The transition.
        phase: ReplicaPhase,
        /// Active (non-draining, non-retired) replicas in the group
        /// after the transition.
        active: u32,
    },
    /// A fault-plan injection began or cleared (see `sg_core::fault`).
    Fault {
        /// When the fault state changed.
        at: SimTime,
        /// Fault class: `crash`, `node-loss`, `pool-leak`, `jitter`, or
        /// `straggler`.
        fault: String,
        /// Target label: `svc:1`, `node:0`, `svc:1#2`, or `net`.
        target: String,
        /// `true` at injection, `false` when the fault clears.
        active: bool,
    },
    /// One span of a traced request (see `crate::span`).
    Span(SpanRecord),
    /// One sampled point of an internal-state series (see
    /// [`crate::metrics`]).
    Metric(MetricSample),
    /// Header line of a metrics stream: schema version and the sampling
    /// cadence (`interval_ns = 0` means "every decision cycle", the
    /// simulator's synchronous cadence). Written directly by the CLI
    /// before any relay, so it is always the stream's first line and can
    /// never be dropped.
    MetricsMeta {
        /// Schema version ([`crate::metrics::METRICS_SCHEMA_VERSION`]).
        version: u32,
        /// Sampling interval in nanoseconds; 0 = per decision cycle.
        interval_ns: u64,
    },
    /// Cumulative per-node latency-digest snapshot (see
    /// [`crate::agg::LatencyDigest`]). Snapshots are *state*, not
    /// deltas: readers keep the latest per node and merge across nodes,
    /// so a dropped snapshot only costs staleness, never correctness.
    Digest {
        /// Snapshot time.
        at: SimTime,
        /// The node whose aggregation shard this is.
        node: NodeId,
        /// The digest state.
        digest: LatencyDigest,
    },
    /// Cumulative per-node SLO counters (see [`crate::slo`]). Like
    /// [`TelemetryEvent::Digest`], a cumulative snapshot per node.
    Slo {
        /// Snapshot time.
        at: SimTime,
        /// The node whose aggregation shard this is.
        node: NodeId,
        /// The QoS deadline violations are judged against, nanoseconds.
        qos_ns: u64,
        /// Cumulative requests observed.
        total: u64,
        /// Cumulative requests beyond the deadline.
        bad: u64,
    },
    /// Cumulative per-node heavy-hitter snapshot (see
    /// [`crate::agg::TopK`]).
    TopK {
        /// Snapshot time.
        at: SimTime,
        /// The node whose aggregation shard this is.
        node: NodeId,
        /// Stream capacity of the sketch.
        capacity: u32,
        /// Tracked entries in canonical key order.
        entries: Vec<TopKEntry>,
    },
    /// Events lost in a bounded relay (emitted at shutdown by the live
    /// ring, once per event family with a nonzero drop counter).
    Dropped {
        /// How many events were lost.
        count: u64,
        /// Which family lost them. `None` on legacy traces recorded
        /// before per-family accounting; a demux routes `None` to every
        /// stream.
        family: Option<EventFamily>,
    },
    /// Stream header naming the file's schema (`sg-trace/v1`,
    /// `sg-spans/v1`, `sg-profile/v1`, ... — the `sg-bench/v1`
    /// convention). Written directly by the CLI before any relay, so it
    /// is always line 1 and can never be dropped; readers warn on
    /// unknown values instead of misparsing.
    Schema {
        /// The schema identifier string.
        schema: String,
    },
    /// Header of a self-profile report (see [`crate::profile`]).
    ProfileMeta {
        /// `crate::profile::PROFILE_SCHEMA_VERSION` at write time.
        version: u32,
        /// `"sim"` or `"live"`.
        substrate: String,
        /// Measured wall time of the profiled run, nanoseconds.
        wall_ns: u64,
    },
    /// One phase row of a self-profile report.
    ProfilePhase {
        /// Which phase.
        phase: ProfilePhase,
        /// Times the phase ran.
        count: u64,
        /// How many runs were timed (`== count` when unsampled).
        sampled: u64,
        /// Total nanoseconds (scaled estimate when sampled).
        total_ns: u64,
        /// Median timed duration.
        p50_ns: u64,
        /// 99th-percentile timed duration.
        p99_ns: u64,
        /// Slowest timed duration.
        max_ns: u64,
    },
    /// One watermark/counter of a self-profile report.
    ProfileMark {
        /// Which mark.
        mark: ProfileMark,
        /// Its value.
        value: u64,
    },
}

impl TelemetryEvent {
    /// The `FrBoost` event for one packet whose rx hook issued a
    /// `SetFreq` at each of `levels`: `None` when it issued none, else
    /// one boost episode, `targets` counting them and `level` their
    /// maximum.
    pub fn fr_boost(
        at: SimTime,
        node: NodeId,
        dest: ContainerId,
        slack_ns: i64,
        levels: impl Iterator<Item = u8>,
    ) -> Option<Self> {
        let (targets, level) = levels.fold((0, 0), |(n, max), l| (n + 1, l.max(max)));
        (targets > 0).then_some(TelemetryEvent::FrBoost {
            at,
            node,
            dest,
            slack_ns,
            level,
            targets,
        })
    }

    /// The `Window` event for the window `m` of `container` that `node`'s
    /// decision cycle at `at` consumes.
    pub fn window(at: SimTime, node: NodeId, container: ContainerId, m: &WindowMetrics) -> Self {
        TelemetryEvent::Window {
            at,
            node,
            container,
            requests: m.requests,
            mean_exec_time_ns: m.mean_exec_time.as_nanos(),
            mean_exec_metric_ns: m.mean_exec_metric.as_nanos(),
            queue_buildup: m.queue_buildup,
            upscale_hints: m.upscale_hints,
        }
    }

    /// The `Fault` event for `kind` opening (`active`) or closing at `at`.
    pub fn fault(at: SimTime, kind: &FaultKind, active: bool) -> Self {
        TelemetryEvent::Fault {
            at,
            fault: kind.label().to_string(),
            target: kind.target_label(),
            active,
        }
    }

    /// Append this event to `out` as one compact JSON object (no
    /// trailing newline), allocating nothing: what the sinks call.
    pub fn write_json_line(&self, out: &mut Vec<u8>) {
        crate::wire::encode(self, out);
    }

    /// Encode as one compact JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = Vec::with_capacity(256);
        self.write_json_line(&mut out);
        String::from_utf8(out).expect("the encoder writes UTF-8")
    }

    /// Which per-stream trace this event belongs to (see
    /// [`EventFamily`]). A family-tagged `Dropped` reports for its own
    /// family; an untagged one is a legacy total and classified as
    /// decision traffic. `Schema` headers are written straight to their
    /// file by the CLI and never relayed; their nominal family is
    /// decision.
    pub fn family(&self) -> EventFamily {
        match self {
            TelemetryEvent::Span(_) => EventFamily::Span,
            TelemetryEvent::Metric(_)
            | TelemetryEvent::MetricsMeta { .. }
            | TelemetryEvent::Digest { .. }
            | TelemetryEvent::Slo { .. }
            | TelemetryEvent::TopK { .. } => EventFamily::Metrics,
            TelemetryEvent::ProfileMeta { .. }
            | TelemetryEvent::ProfilePhase { .. }
            | TelemetryEvent::ProfileMark { .. } => EventFamily::Profile,
            TelemetryEvent::Dropped {
                family: Some(f), ..
            } => *f,
            _ => EventFamily::Decision,
        }
    }

    /// Decode one JSON line produced by [`Self::to_json_line`].
    pub fn from_json_line(line: &str) -> Result<TelemetryEvent, String> {
        crate::wire::decode(line)
    }

    /// Decode one line as read from a file: bytes that are not UTF-8
    /// are a decode error like any other.
    pub fn from_json_bytes(line: &[u8]) -> Result<TelemetryEvent, String> {
        let line = std::str::from_utf8(line).map_err(|e| e.to_string())?;
        Self::from_json_line(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricId;
    use sg_core::time::SimDuration;

    fn samples() -> Vec<TelemetryEvent> {
        vec![
            TelemetryEvent::Action {
                at: SimTime::from_micros(1500),
                node: NodeId(1),
                container: ContainerId(3),
                origin: ActionOrigin::PacketHook,
                kind: ActionKind::SetFreq { level: 8 },
                outcome: ActionOutcome::Deferred,
            },
            TelemetryEvent::Action {
                at: SimTime::from_micros(1600),
                node: NodeId(0),
                container: ContainerId(9),
                origin: ActionOrigin::Tick,
                kind: ActionKind::SetEgressHint { hops: 2 },
                outcome: ActionOutcome::RejectedCrossNode,
            },
            TelemetryEvent::Alloc {
                at: SimTime::from_millis(2),
                container: ContainerId(0),
                cores: 4,
                freq_level: 2,
                freq_ghz: 2.2,
            },
            TelemetryEvent::FrBoost {
                at: SimTime::from_millis(3),
                node: NodeId(0),
                dest: ContainerId(1),
                slack_ns: -12_345,
                level: 8,
                targets: 2,
            },
            TelemetryEvent::Window {
                at: SimTime::from_millis(100),
                node: NodeId(0),
                container: ContainerId(1),
                requests: 42,
                mean_exec_time_ns: 812_000,
                mean_exec_metric_ns: 700_000,
                queue_buildup: 1.16,
                upscale_hints: 3,
            },
            TelemetryEvent::Scoreboard {
                at: SimTime::from_millis(100),
                node: NodeId(0),
                scores: vec![(ContainerId(0), 3), (ContainerId(1), 0)],
                actions: vec![ScoredAction {
                    container: ContainerId(0),
                    kind: ActionKind::SetCores { cores: 6 },
                    reason: "upscale: score 3".into(),
                }],
            },
            TelemetryEvent::Action {
                at: SimTime::from_millis(150),
                node: NodeId(0),
                container: ContainerId(1),
                origin: ActionOrigin::Tick,
                kind: ActionKind::SetReplicas { replicas: 3 },
                outcome: ActionOutcome::Applied,
            },
            TelemetryEvent::ReplicaLifecycle {
                at: SimTime::from_millis(150),
                node: NodeId(0),
                container: ContainerId(5),
                service: ContainerId(1),
                replica: 2,
                phase: ReplicaPhase::Spawned,
                active: 3,
            },
            TelemetryEvent::ReplicaLifecycle {
                at: SimTime::from_millis(600),
                node: NodeId(0),
                container: ContainerId(5),
                service: ContainerId(1),
                replica: 2,
                phase: ReplicaPhase::Retired,
                active: 2,
            },
            TelemetryEvent::Fault {
                at: SimTime::from_secs(3),
                fault: "straggler".into(),
                target: "svc:1#2".into(),
                active: true,
            },
            TelemetryEvent::Fault {
                at: SimTime::from_secs(5),
                fault: "pool-leak".into(),
                target: "svc:2".into(),
                active: false,
            },
            TelemetryEvent::Span(SpanRecord {
                trace: 41,
                span: 97,
                parent: Some(96),
                container: Some(ContainerId(1)),
                node: Some(NodeId(0)),
                start: SimTime::from_micros(1200),
                end: SimTime::from_micros(1950),
                net_in: SimDuration::from_micros(20),
                conn_wait: SimDuration::from_micros(410),
                service: SimDuration::from_micros(150),
                downstream: SimDuration::from_micros(600),
                freq_level: 8,
                slack_ns: -77_000,
            }),
            TelemetryEvent::Span(SpanRecord {
                trace: 41,
                span: 96,
                parent: None,
                container: None,
                node: None,
                start: SimTime::from_micros(1180),
                end: SimTime::from_micros(2000),
                net_in: SimDuration::ZERO,
                conn_wait: SimDuration::ZERO,
                service: SimDuration::ZERO,
                downstream: SimDuration::from_micros(820),
                freq_level: 0,
                slack_ns: 0,
            }),
            TelemetryEvent::Metric(MetricSample {
                at: SimTime::from_millis(200),
                node: NodeId(0),
                container: ContainerId(1),
                metric: MetricId::Cores,
                value: 4.0,
            }),
            TelemetryEvent::Metric(MetricSample {
                at: SimTime::from_millis(200),
                node: NodeId(0),
                container: ContainerId(1),
                metric: MetricId::Sensitivity(3),
                value: 0.125,
            }),
            TelemetryEvent::Metric(MetricSample {
                at: SimTime::from_millis(200),
                node: NodeId(1),
                container: ContainerId(2),
                metric: MetricId::SlackP99,
                value: -42_500.0,
            }),
            TelemetryEvent::Metric(MetricSample {
                at: SimTime::from_millis(200),
                node: NodeId(0),
                container: ContainerId(1),
                metric: MetricId::Replicas,
                value: 3.0,
            }),
            TelemetryEvent::MetricsMeta {
                version: 1,
                interval_ns: 100_000_000,
            },
            TelemetryEvent::Digest {
                at: SimTime::from_millis(250),
                node: NodeId(1),
                digest: {
                    let mut d = crate::agg::LatencyDigest::with_default_resolution();
                    d.record(SimDuration::from_micros(120));
                    d.record(SimDuration::from_micros(950));
                    d.record(SimDuration::from_micros(950));
                    d
                },
            },
            TelemetryEvent::Digest {
                at: SimTime::from_millis(250),
                node: NodeId(2),
                digest: crate::agg::LatencyDigest::with_default_resolution(),
            },
            TelemetryEvent::Slo {
                at: SimTime::from_millis(250),
                node: NodeId(1),
                qos_ns: 500_000,
                total: 1_234,
                bad: 5,
            },
            TelemetryEvent::TopK {
                at: SimTime::from_millis(250),
                node: NodeId(1),
                capacity: 8,
                entries: vec![
                    crate::agg::TopKEntry {
                        key: 41,
                        weight: 900_000,
                        err: 0,
                    },
                    crate::agg::TopKEntry {
                        key: 98,
                        weight: 120_000,
                        err: 40_000,
                    },
                ],
            },
            TelemetryEvent::Dropped {
                count: 7,
                family: None,
            },
            TelemetryEvent::Dropped {
                count: 2,
                family: Some(EventFamily::Metrics),
            },
            TelemetryEvent::Dropped {
                count: 1,
                family: Some(EventFamily::Profile),
            },
            TelemetryEvent::Schema {
                schema: "sg-trace/v1".into(),
            },
            TelemetryEvent::ProfileMeta {
                version: 1,
                substrate: "live".into(),
                wall_ns: 400_123_456,
            },
            TelemetryEvent::ProfilePhase {
                phase: ProfilePhase::SimDeliverRequest,
                count: 812_345,
                sampled: 6_347,
                total_ns: 39_000_000,
                p50_ns: 48,
                p99_ns: 96,
                max_ns: 8_100,
            },
            TelemetryEvent::ProfileMark {
                mark: ProfileMark::RingOccupancyHighWater,
                value: 1_024,
            },
        ]
    }

    #[test]
    fn events_round_trip_through_jsonl() {
        for event in samples() {
            let line = event.to_json_line();
            assert!(!line.contains('\n'), "one event per line: {line}");
            let back = TelemetryEvent::from_json_line(&line).expect("parse back");
            assert_eq!(back, event, "line: {line}");
        }
    }

    #[test]
    fn negative_slack_survives() {
        let line = TelemetryEvent::FrBoost {
            at: SimTime::ZERO,
            node: NodeId(0),
            dest: ContainerId(0),
            slack_ns: i64::MIN + 1,
            level: 1,
            targets: 1,
        }
        .to_json_line();
        match TelemetryEvent::from_json_line(&line).unwrap() {
            TelemetryEvent::FrBoost { slack_ns, .. } => assert_eq!(slack_ns, i64::MIN + 1),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn unknown_type_is_an_error() {
        assert!(TelemetryEvent::from_json_line("{\"type\":\"nope\"}").is_err());
        assert!(TelemetryEvent::from_json_line("not json").is_err());
    }

    /// Traces written before per-family drop accounting carry no
    /// `family` field; they must still parse (as the legacy total).
    #[test]
    fn legacy_dropped_line_parses_without_family() {
        let event = TelemetryEvent::from_json_line("{\"type\":\"dropped\",\"count\":9}").unwrap();
        assert_eq!(
            event,
            TelemetryEvent::Dropped {
                count: 9,
                family: None
            }
        );
        assert_eq!(event.family(), EventFamily::Decision);
    }

    #[test]
    fn events_classify_into_their_families() {
        for event in samples() {
            let family = event.family();
            match &event {
                TelemetryEvent::Span(_) => assert_eq!(family, EventFamily::Span),
                TelemetryEvent::Metric(_)
                | TelemetryEvent::MetricsMeta { .. }
                | TelemetryEvent::Digest { .. }
                | TelemetryEvent::Slo { .. }
                | TelemetryEvent::TopK { .. } => {
                    assert_eq!(family, EventFamily::Metrics)
                }
                TelemetryEvent::ProfileMeta { .. }
                | TelemetryEvent::ProfilePhase { .. }
                | TelemetryEvent::ProfileMark { .. } => {
                    assert_eq!(family, EventFamily::Profile)
                }
                TelemetryEvent::Dropped {
                    family: Some(f), ..
                } => assert_eq!(family, *f),
                _ => assert_eq!(family, EventFamily::Decision),
            }
        }
    }
}
