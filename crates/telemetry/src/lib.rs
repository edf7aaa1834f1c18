//! # sg-telemetry — structured observability for SurgeGuard
//!
//! Records *why* every scaling decision happened, on both execution
//! substrates. The harnesses (the discrete-event simulator and the live
//! backend) and the SurgeGuard controller emit typed [`TelemetryEvent`]s
//! into a [`TelemetrySink`]; sinks serialize to JSONL ([`JsonlSink`]),
//! buffer in memory ([`VecSink`]), or relay through a bounded lock-free
//! ring ([`RingSink`]) so the live packet hot path never blocks on I/O.
//!
//! The event taxonomy covers the full decision loop:
//!
//! * [`TelemetryEvent::Action`] — every controller action as it passes
//!   the harness's enforcement layer, with its origin (decision cycle vs
//!   packet hook) and outcome (applied, deferred behind the MSR-write
//!   delay, clamped to constraints, or rejected as a cross-node
//!   violation of the decentralization contract).
//! * [`TelemetryEvent::Alloc`] — every allocation change that actually
//!   landed (cores, DVFS level, GHz).
//! * [`TelemetryEvent::FrBoost`] — FirstResponder packet-hook boosts
//!   with the triggering per-packet slack.
//! * [`TelemetryEvent::Window`] — the per-container window metrics each
//!   decision cycle saw.
//! * [`TelemetryEvent::Scoreboard`] — the Escalator's Table II candidate
//!   scoreboard plus a human-readable reason per emitted action.
//! * [`TelemetryEvent::Span`] — one span of a traced request's RPC call
//!   graph (a [`SpanRecord`]): per-hop arrival, connection-pool wait,
//!   service and downstream time, network delay, and the frequency/slack
//!   state the rx hook saw on entry.
//! * [`TelemetryEvent::Dropped`] — events lost in a bounded relay
//!   (explicit, never silent).
//!
//! Per-request tracing is sampled deterministically
//! ([`SpanSampler`], seeded N-out-of-M) and analyzed by
//! [`SpanReport`]: for every deadline-violating request the
//! span tree is walked to the dominant hop and the loss classified
//! (pool queue vs service vs network vs pre-boost frequency), producing
//! a per-container attribution histogram and folded-stack output for
//! inferno/speedscope.
//!
//! The `sg-trace` binary summarizes a recorded JSONL trace: per-container
//! allocation timeline, boost→retire latency distribution, action
//! histogram, a clamp/reconciliation audit (see [`TraceSummary`]; mismatches
//! exit nonzero), and the span-side critical-path report. Its `watch`
//! subcommand folds a metrics stream into the SLO view ([`Watcher`]) and
//! its `timeline` subcommand charts and reconciles the gauge timelines
//! ([`timeline`]).

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod agg;
mod critical;
mod event;
pub mod metrics;
pub mod profile;
mod reader;
mod ring;
mod sink;
pub mod slo;
mod span;
mod summary;
pub mod timeline;
mod watch;
mod wire;

pub use agg::{topk_unpack, AggConfig, AggRuntime, ClusterAgg, LatencyDigest, TopK, TopKEntry};
pub use critical::{Attribution, LossClass, SpanReport};
pub use event::{
    ActionKind, ActionOrigin, ActionOutcome, EventFamily, ReplicaPhase, ScoredAction,
    TelemetryEvent, SPANS_SCHEMA, TRACE_SCHEMA,
};
pub use metrics::{MetricId, MetricSample, MetricsRegistry, METRICS_SCHEMA_VERSION};
pub use profile::{
    LiveProfiler, ProfileMark, ProfilePhase, ProfileReport, SimProfiler, PROFILE_SCHEMA,
};
pub use reader::{schema_warning, stream_trace, TailStream, TraceStream};
pub use ring::{RingDrainer, RingSink, RingStats};
pub use sink::{DemuxSink, FanoutSink, JsonlSink, SharedSink, TelemetrySink, VecSink};
pub use slo::{SloConfig, SloTracker};
pub use span::{HopSpan, SpanRecord, SpanSampler};
pub use summary::{SummaryBuilder, TraceSummary};
pub use timeline::TimelineSet;
pub use watch::{WatchConfig, Watcher};
