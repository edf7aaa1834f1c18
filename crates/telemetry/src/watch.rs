//! The `sg-trace watch` engine: a rolling cluster view folded from a
//! metrics/span JSONL stream.
//!
//! [`Watcher`] consumes [`TelemetryEvent`]s one at a time (streamed or
//! tailed — see [`crate::reader`]) and maintains:
//!
//! * the **latest cumulative digest per node**, merged across nodes on
//!   demand (snapshots are state, so a dropped snapshot only costs
//!   staleness and the merge stays exact);
//! * **windowed SLO burn rates** rebuilt from the deltas between
//!   consecutive cumulative `slo` snapshots;
//! * the **latest heavy-hitter sketch per node** (whole-request loss
//!   per container), merged on demand;
//! * when the stream carries span records, a
//!   [`StreamingAttributor`] charging each violation's loss to the
//!   dominant hop's `(container, class)` — the critical-path view.
//!
//! The audit is strict about *inconsistency* (cumulative counters
//! moving backwards, malformed sketches, a stream with no aggregation
//! records at all) and lenient about *loss* (testified drops are
//! warnings: cumulative snapshots self-heal).

use crate::agg::{topk_unpack, LatencyDigest, TopK, TopKEntry};
use crate::critical::StreamingAttributor;
use crate::event::TelemetryEvent;
use crate::slo::{BurnVerdict, SloConfig, SloTracker};
use crate::span::SpanRecord;
use serde_json::{json, Value};
use sg_core::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// How many span records may wait for the deadline to become known
/// (from `--qos` or the first `slo` snapshot) before the oldest are
/// discarded.
const PENDING_SPAN_CAP: usize = 10_000;

/// Options for a watch session.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Explicit QoS deadline; `None` adopts the deadline carried by the
    /// stream's `slo` snapshots.
    pub qos: Option<SimDuration>,
    /// SLO objective as a percentage (e.g. `99.9`).
    pub objective_pct: f64,
    /// Heavy-hitter rows to report.
    pub topk: usize,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            qos: None,
            objective_pct: 99.9,
            topk: 8,
        }
    }
}

/// Streaming fold of a metrics/span stream into a cluster view.
#[derive(Debug)]
pub struct Watcher {
    cfg: WatchConfig,
    /// Latest cumulative digest snapshot per node.
    digests: BTreeMap<u32, LatencyDigest>,
    /// Latest cumulative `(total, bad)` per node.
    counters: BTreeMap<u32, (u64, u64)>,
    /// Latest heavy-hitter snapshot per node.
    topks: BTreeMap<u32, TopK>,
    /// Windowed SLO counts rebuilt from snapshot deltas.
    window: SloTracker,
    /// Critical-path attribution, once the deadline is known.
    attributor: Option<StreamingAttributor>,
    pending_spans: VecDeque<SpanRecord>,
    qos_ns: Option<u64>,
    /// Events consumed.
    pub events: u64,
    /// Testified in-flight drops (warning, not audit failure).
    pub dropped: u64,
    /// Cumulative snapshots that moved backwards or failed to rebuild
    /// (audit failure).
    pub regressions: u64,
    /// Span records discarded while the deadline was unknown.
    pub spans_skipped: u64,
    /// Latest timestamp seen on any aggregation snapshot.
    pub last_at: SimTime,
}

impl Watcher {
    /// A watcher with the given options.
    pub fn new(cfg: WatchConfig) -> Self {
        let slo_cfg = SloConfig::default().with_objective_pct(cfg.objective_pct);
        let qos_ns = cfg.qos.map(SimDuration::as_nanos);
        Watcher {
            cfg,
            digests: BTreeMap::new(),
            counters: BTreeMap::new(),
            topks: BTreeMap::new(),
            window: SloTracker::new(slo_cfg),
            attributor: None,
            pending_spans: VecDeque::new(),
            qos_ns,
            events: 0,
            dropped: 0,
            regressions: 0,
            spans_skipped: 0,
            last_at: SimTime::ZERO,
        }
    }

    /// Fold one event.
    pub fn push(&mut self, event: TelemetryEvent) {
        self.events += 1;
        match event {
            TelemetryEvent::Digest { at, node, digest } => {
                self.last_at = self.last_at.max(at);
                match self.digests.get(&node.0) {
                    Some(old)
                        if old.sig_bits() != digest.sig_bits() || old.len() > digest.len() =>
                    {
                        self.regressions += 1;
                    }
                    _ => {
                        self.digests.insert(node.0, digest);
                    }
                }
            }
            TelemetryEvent::Slo {
                at,
                node,
                qos_ns,
                total,
                bad,
            } => {
                self.last_at = self.last_at.max(at);
                if self.qos_ns.is_none() {
                    self.qos_ns = Some(qos_ns);
                    self.drain_pending_spans();
                }
                let (prev_total, prev_bad) = self.counters.get(&node.0).copied().unwrap_or((0, 0));
                if total < prev_total || bad < prev_bad {
                    self.regressions += 1;
                    return;
                }
                self.window
                    .record_counts(at, total - prev_total, bad - prev_bad);
                self.counters.insert(node.0, (total, bad));
            }
            TelemetryEvent::TopK {
                at,
                node,
                capacity,
                entries,
            } => {
                self.last_at = self.last_at.max(at);
                match TopK::from_parts(capacity as usize, entries) {
                    Ok(sketch) => {
                        self.topks.insert(node.0, sketch);
                    }
                    Err(_) => self.regressions += 1,
                }
            }
            TelemetryEvent::Span(record) => match &mut self.attributor {
                Some(a) => a.push(record),
                None => {
                    self.pending_spans.push_back(record);
                    if self.pending_spans.len() > PENDING_SPAN_CAP {
                        self.pending_spans.pop_front();
                        self.spans_skipped += 1;
                    }
                    self.drain_pending_spans();
                }
            },
            TelemetryEvent::Dropped { count, .. } => self.dropped += count,
            _ => {}
        }
    }

    fn drain_pending_spans(&mut self) {
        let Some(qos_ns) = self.qos_ns else { return };
        if self.attributor.is_none() {
            self.attributor = Some(StreamingAttributor::new(
                SimDuration::from_nanos(qos_ns),
                self.cfg.topk.max(8),
                4096,
            ));
        }
        let attributor = self.attributor.as_mut().expect("just created");
        for record in self.pending_spans.drain(..) {
            attributor.push(record);
        }
    }

    /// Merge the latest per-node digests into one cluster digest.
    /// `None` when no digest snapshot has arrived (or resolutions
    /// disagree — counted as a regression).
    pub(crate) fn merged_digest(&mut self) -> Option<LatencyDigest> {
        let mut nodes = self.digests.values();
        let mut merged = nodes.next()?.clone();
        for d in nodes {
            if d.sig_bits() != merged.sig_bits() {
                self.regressions += 1;
                return None;
            }
            merged.merge(d);
        }
        Some(merged)
    }

    /// Cluster-wide cumulative `(total, bad)` from the latest
    /// snapshots.
    pub(crate) fn totals(&self) -> (u64, u64) {
        self.counters
            .values()
            .fold((0, 0), |(t, b), &(nt, nb)| (t + nt, b + nb))
    }

    /// Merged whole-request heavy hitters across nodes.
    pub(crate) fn merged_topk(&self) -> Option<TopK> {
        let mut nodes = self.topks.values();
        let mut merged = nodes.next()?.clone();
        for t in nodes {
            if t.capacity() == merged.capacity() {
                merged.merge(t);
            }
        }
        Some(merged)
    }

    /// Burn-rate verdict at the latest snapshot time.
    pub(crate) fn verdict(&self) -> BurnVerdict {
        self.window.verdict(self.last_at)
    }

    /// True when the stream carried any aggregation snapshots or
    /// attributable spans.
    pub(crate) fn has_data(&self) -> bool {
        !self.digests.is_empty()
            || !self.counters.is_empty()
            || self.attributor.as_ref().is_some_and(|a| a.traces > 0)
    }

    /// Audit findings that should fail an automated gate.
    pub fn audit(&self) -> Vec<String> {
        let mut issues = Vec::new();
        if !self.has_data() {
            issues.push(
                "no aggregation records in the stream (record with sg-loadtest --metrics, \
                 schema v3+)"
                    .into(),
            );
        }
        if self.regressions > 0 {
            issues.push(format!(
                "{} cumulative snapshot(s) regressed or failed to rebuild",
                self.regressions
            ));
        }
        let (total, bad) = self.totals();
        if bad > total {
            issues.push(format!("violations ({bad}) exceed requests ({total})"));
        }
        issues
    }

    fn render_topk_rows(&self, out: &mut String, label: &str, entries: &[TopKEntry]) {
        if entries.is_empty() {
            return;
        }
        let _ = writeln!(out, "  top offenders ({label}):");
        for e in entries {
            let (container, class) = topk_unpack(e.key);
            let class = class.map_or("total", |c| c.name());
            let _ = writeln!(
                out,
                "    {container:>6}  {class:<14} {:>12.3} ms lost  (err {:.3} ms)",
                e.weight as f64 / 1e6,
                e.err as f64 / 1e6,
            );
        }
    }

    /// Render the human-readable rolling report.
    pub fn render(&mut self) -> String {
        let mut out = String::new();
        let merged = self.merged_digest();
        match &merged {
            Some(d) => {
                let p = |q: f64| {
                    d.percentile(q)
                        .map_or("-".into(), |v| format!("{:.3}", v.as_nanos() as f64 / 1e6))
                };
                let _ = writeln!(
                    out,
                    "digest: {} request(s) across {} node(s)  p50 {} ms  p90 {} ms  \
                     p99 {} ms  p99.9 {} ms  max {} ms",
                    d.len(),
                    self.digests.len(),
                    p(50.0),
                    p(90.0),
                    p(99.0),
                    p(99.9),
                    p(100.0),
                );
            }
            None => {
                let _ = writeln!(out, "digest: no snapshots yet");
            }
        }
        let (total, bad) = self.totals();
        if total > 0 {
            let qos_ms = self
                .qos_ns
                .map_or("?".into(), |q| format!("{:.3}", q as f64 / 1e6));
            let _ = writeln!(
                out,
                "slo: {bad}/{total} beyond the {qos_ms} ms deadline ({:.4}% bad), \
                 objective {:.3}%",
                100.0 * bad as f64 / total as f64,
                self.cfg.objective_pct,
            );
            let v = self.verdict();
            let fmt_burn = |b: Option<f64>| b.map_or("-".into(), |x| format!("{x:.2}x"));
            let _ = writeln!(
                out,
                "  burn: fast {}{}  slow {}{}  budget remaining {:.1}%",
                fmt_burn(v.fast),
                if v.fast_alert { " ALERT" } else { "" },
                fmt_burn(v.slow),
                if v.slow_alert { " ALERT" } else { "" },
                100.0 * v.budget_remaining,
            );
        }
        if let Some(t) = self.merged_topk() {
            let rows = t.top(self.cfg.topk);
            self.render_topk_rows(&mut out, "whole-request loss", &rows);
        }
        if let Some(a) = &self.attributor {
            if a.traces > 0 {
                let _ = writeln!(
                    out,
                    "spans: {} trace(s), {} violation(s), {} unattributed, {} evicted",
                    a.traces, a.violations, a.unattributed, a.evicted
                );
                let rows = a.topk.top(self.cfg.topk);
                self.render_topk_rows(&mut out, "critical-path loss", &rows);
            }
        }
        if self.dropped > 0 {
            let _ = writeln!(
                out,
                "  !! {} event(s) dropped in-flight (snapshots self-heal; view may lag)",
                self.dropped
            );
        }
        out
    }

    /// Machine-readable summary (`sg-trace watch --json`).
    pub fn to_json(&mut self) -> Value {
        let digest = self.merged_digest().map(|d| {
            let p = |q: f64| d.percentile(q).map(|v| v.as_nanos());
            json!({
                "count": d.len(),
                "nodes": self.digests.len(),
                "sig_bits": d.sig_bits(),
                "relative_error": d.relative_error(),
                "p50_ns": p(50.0),
                "p90_ns": p(90.0),
                "p99_ns": p(99.0),
                "p999_ns": p(99.9),
                "max_ns": p(100.0),
            })
        });
        let (total, bad) = self.totals();
        let v = self.verdict();
        let topk_json = |entries: &[TopKEntry]| -> Vec<Value> {
            entries
                .iter()
                .map(|e| {
                    let (container, class) = topk_unpack(e.key);
                    json!({
                        "container": container.0,
                        "class": class.map(|c| c.name()),
                        "loss_ns": e.weight,
                        "err_ns": e.err,
                    })
                })
                .collect()
        };
        let topk = self.merged_topk().map(|t| topk_json(&t.top(self.cfg.topk)));
        let spans = self.attributor.as_ref().map(|a| {
            json!({
                "traces": a.traces,
                "violations": a.violations,
                "unattributed": a.unattributed,
                "evicted": a.evicted,
                "skipped": self.spans_skipped,
                "topk": topk_json(&a.topk.top(self.cfg.topk)),
            })
        });
        json!({
            "at_ns": self.last_at.as_nanos(),
            "qos_ns": self.qos_ns,
            "objective_pct": self.cfg.objective_pct,
            "digest": digest,
            "slo": {
                "total": total,
                "bad": bad,
                "burn_fast": v.fast,
                "burn_slow": v.slow,
                "fast_alert": v.fast_alert,
                "slow_alert": v.slow_alert,
                "budget_remaining": v.budget_remaining,
            },
            "topk": topk,
            "spans": spans,
            "dropped": self.dropped,
            "audit": self.audit(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggConfig, AggRuntime};
    use sg_core::ids::{ContainerId, NodeId};

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    /// Feed a runtime's snapshot events back through a watcher: the
    /// round-tripped view must equal the runtime's own merged state.
    #[test]
    fn watcher_roundtrips_runtime_snapshots() {
        let rt = AggRuntime::new(AggConfig::new(us(500)), 3);
        for i in 0..300u64 {
            let node = NodeId((i % 3) as u32);
            let latency = us(100 + 10 * (i % 60)); // some beyond 500us
            rt.record(
                node,
                ContainerId((i % 7) as u32),
                SimTime::from_millis(i),
                latency,
            );
        }
        let mut w = Watcher::new(WatchConfig::default());
        for event in rt.all_node_events(SimTime::from_secs(1)) {
            w.push(event);
        }
        let merged = rt.merged();
        assert_eq!(w.merged_digest().unwrap(), merged.digest);
        assert_eq!(w.totals(), (merged.slo.total(), merged.slo.bad()));
        assert_eq!(w.merged_topk().unwrap(), merged.topk);
        assert_eq!(w.qos_ns, Some(500_000));
        assert!(w.audit().is_empty(), "{:?}", w.audit());
    }

    /// Cumulative snapshots arriving repeatedly (periodic emission) must
    /// not double-count: the watcher keeps state, adds deltas.
    #[test]
    fn repeated_snapshots_do_not_double_count() {
        let rt = AggRuntime::new(AggConfig::new(us(500)), 1);
        let mut w = Watcher::new(WatchConfig::default());
        for i in 0..100u64 {
            rt.record(NodeId(0), ContainerId(0), SimTime::from_millis(i), us(100));
            if i % 10 == 0 {
                for event in rt.all_node_events(SimTime::from_millis(i)) {
                    w.push(event);
                }
            }
        }
        for event in rt.all_node_events(SimTime::from_millis(100)) {
            w.push(event);
        }
        assert_eq!(w.totals().0, 100);
        assert_eq!(w.merged_digest().unwrap().len(), 100);
    }

    #[test]
    fn counter_regression_fails_audit() {
        let mut w = Watcher::new(WatchConfig::default());
        let snap = |total, bad| TelemetryEvent::Slo {
            at: SimTime::from_millis(total),
            node: NodeId(0),
            qos_ns: 500_000,
            total,
            bad,
        };
        w.push(snap(100, 5));
        w.push(snap(90, 5)); // went backwards
        assert_eq!(w.regressions, 1);
        assert!(!w.audit().is_empty());
    }

    /// With no deadline known, the backlog keeps the newest
    /// `PENDING_SPAN_CAP` spans in arrival order and counts the rest.
    #[test]
    fn span_backlog_without_deadline_keeps_the_newest() {
        let mut w = Watcher::new(WatchConfig::default());
        let total = 3 * PENDING_SPAN_CAP as u64;
        for trace in 0..total {
            w.push(TelemetryEvent::Span(SpanRecord {
                trace,
                span: trace,
                parent: None,
                container: None,
                node: None,
                start: SimTime::ZERO,
                end: SimTime::from_micros(1),
                net_in: SimDuration::ZERO,
                conn_wait: SimDuration::ZERO,
                service: SimDuration::ZERO,
                downstream: SimDuration::from_micros(1),
                freq_level: 0,
                slack_ns: 0,
            }));
        }
        assert_eq!(w.spans_skipped, 2 * PENDING_SPAN_CAP as u64);
        let kept: Vec<u64> = w.pending_spans.iter().map(|r| r.trace).collect();
        let newest: Vec<u64> = (total - PENDING_SPAN_CAP as u64..total).collect();
        assert_eq!(kept, newest);
    }

    #[test]
    fn empty_stream_fails_audit() {
        let mut w = Watcher::new(WatchConfig::default());
        w.push(TelemetryEvent::Schema {
            schema: "sg-trace/v1".into(),
        });
        assert!(!w.has_data());
        assert!(!w.audit().is_empty());
    }

    #[test]
    fn violations_drive_burn_alerts_and_render() {
        let rt = AggRuntime::new(AggConfig::new(us(500)), 2);
        for i in 0..1000u64 {
            // Half the traffic violates: burn far beyond both limits.
            let latency = if i % 2 == 0 { us(2_000) } else { us(100) };
            rt.record(
                NodeId((i % 2) as u32),
                ContainerId(3),
                SimTime::from_millis(i),
                latency,
            );
        }
        let mut w = Watcher::new(WatchConfig::default());
        for event in rt.all_node_events(SimTime::from_secs(1)) {
            w.push(event);
        }
        let v = w.verdict();
        assert!(v.fast_alert && v.slow_alert, "{v:?}");
        let text = w.render();
        assert!(text.contains("ALERT"), "{text}");
        assert!(text.contains("top offenders"), "{text}");
        let json = w.to_json();
        let slo = json.get("slo").unwrap();
        assert_eq!(slo.get("fast_alert"), Some(&Value::Bool(true)));
        assert!(json.get("audit").unwrap().as_array().unwrap().is_empty());
    }
}
