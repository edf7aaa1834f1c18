//! Critical-path attribution over recorded span trees.
//!
//! For each deadline-violating request, walk its span tree from the
//! root to the hop that dominated the latency and classify the loss:
//! did the request lose its time in a connection-pool queue, in local
//! service, on the network, or running at base frequency while already
//! behind schedule (the boost had not landed)? The per-container
//! attribution histogram this produces reproduces the paper's Fig. 5b
//! inversion: under threadpool exhaustion the *upstream* container's
//! `execTime` inflates, but the walk descends through the downstream
//! window and charges the loss to the *downstream* container's
//! pool-queue class, where the single-connection edge actually
//! serialized the work.

use crate::agg::{topk_key, LatencyDigest, TopK};
use crate::event::TelemetryEvent;
use crate::span::SpanRecord;
use serde_json::{json, Value};
use sg_core::ids::ContainerId;
use sg_core::time::SimDuration;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Where a violating request lost its time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LossClass {
    /// Queued in a connection pool (the hidden threadpool dependency).
    PoolQueue,
    /// Local CPU work dominated.
    Service,
    /// Local CPU work dominated *and* the hop ran at base frequency with
    /// negative slack: the request was already lagging but the
    /// FirstResponder boost had not landed yet.
    PreBoostFreq,
    /// Network delay into the hop dominated.
    Network,
}

impl LossClass {
    /// Stable name (used in reports and folded-stack frames).
    pub fn name(self) -> &'static str {
        match self {
            LossClass::PoolQueue => "pool_queue",
            LossClass::Service => "service",
            LossClass::PreBoostFreq => "pre_boost_freq",
            LossClass::Network => "network",
        }
    }

    /// Stable small-integer code, used when a class is packed into a
    /// heavy-hitter sketch key (see [`crate::agg::topk_key`]). Code 0 is
    /// reserved for "no class" (whole-request loss).
    pub fn code(self) -> u8 {
        match self {
            LossClass::PoolQueue => 1,
            LossClass::Service => 2,
            LossClass::PreBoostFreq => 3,
            LossClass::Network => 4,
        }
    }

    /// Inverse of [`LossClass::code`]; `None` for 0 or unknown codes.
    pub fn from_code(code: u8) -> Option<LossClass> {
        match code {
            1 => Some(LossClass::PoolQueue),
            2 => Some(LossClass::Service),
            3 => Some(LossClass::PreBoostFreq),
            4 => Some(LossClass::Network),
            _ => None,
        }
    }
}

/// Attribution bucket for one `(container, class)` pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Violating requests whose critical path terminated here.
    pub count: u64,
    /// Total loss (latency beyond the deadline), nanoseconds.
    pub loss_ns: u64,
}

/// The span-side report `sg-trace` renders: tree integrity, violation
/// attribution, and folded stacks for flamegraph tooling.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SpanReport {
    /// Span records consumed.
    pub spans: u64,
    /// Traces whose root request span was recorded.
    pub traces: u64,
    /// Traces with hop spans but no root (request still in flight when
    /// the run ended) — reported, but not an audit failure.
    pub incomplete_traces: u64,
    /// The deadline used to define a violation, nanoseconds.
    pub qos_ns: u64,
    /// True when no deadline was supplied and `qos_ns` was
    /// self-calibrated to the p99 root duration.
    pub qos_derived: bool,
    /// Root spans whose duration exceeded the deadline.
    pub violations: u64,
    /// Violations whose tree was too incomplete to attribute.
    pub unattributed: u64,
    /// Loss histogram keyed by `(container, class)`.
    pub attribution: BTreeMap<(u32, LossClass), Attribution>,
    /// Folded critical-path stacks (`client;c0;c1;pool_queue` → loss ns),
    /// one line per unique path, inferno/speedscope compatible.
    pub folded: BTreeMap<String, u64>,
    /// Sorted root-span durations, ns (for percentile rendering).
    pub root_durations: Vec<u64>,
    /// Structural: child spans not nested inside their parent.
    pub nesting_violations: u64,
    /// Structural: spans with `end < start`.
    pub negative_spans: u64,
    /// Structural: duplicate span ids within a trace.
    pub duplicate_spans: u64,
    /// Structural: traces with more than one root span.
    pub multi_root_traces: u64,
    /// Events the recording pipeline dropped (from `Dropped` records).
    pub dropped: u64,
}

impl SpanReport {
    /// Build a report from a telemetry event stream, keeping span and
    /// drop records and ignoring decision events. `qos` of `None`
    /// self-calibrates the deadline to the p99 root duration.
    pub fn from_events<I: IntoIterator<Item = TelemetryEvent>>(
        events: I,
        qos: Option<SimDuration>,
    ) -> Self {
        let mut records = Vec::new();
        let mut dropped = 0;
        for event in events {
            match event {
                TelemetryEvent::Span(r) => records.push(r),
                TelemetryEvent::Dropped { count, .. } => dropped += count,
                _ => {}
            }
        }
        let mut report = Self::from_records(&records, qos);
        report.dropped = dropped;
        report
    }

    /// Build a report from bare span records.
    pub fn from_records(records: &[SpanRecord], qos: Option<SimDuration>) -> Self {
        let mut report = SpanReport {
            spans: records.len() as u64,
            negative_spans: records.iter().filter(|r| r.end < r.start).count() as u64,
            ..SpanReport::default()
        };

        // Group by trace, in trace order: a stable sort keeps record
        // order within each trace.
        let mut by_trace: Vec<&SpanRecord> = records.iter().collect();
        by_trace.sort_by_key(|r| r.trace);
        let traces = || by_trace.chunk_by(|a, b| a.trace == b.trace);

        // Integrity pass + root-duration collection.
        let mut ids: Vec<u64> = Vec::new();
        for spans in traces() {
            ids.clear();
            ids.extend(spans.iter().map(|s| s.span));
            ids.sort_unstable();
            report.duplicate_spans += ids.windows(2).filter(|w| w[0] == w[1]).count() as u64;

            let mut roots = spans.iter().filter(|s| s.is_root());
            match roots.next() {
                None => report.incomplete_traces += 1,
                Some(root) => {
                    report.traces += 1;
                    report.multi_root_traces += roots.next().is_some() as u64;
                    report.root_durations.push(root.duration().as_nanos());
                }
            }

            for child in spans {
                let Some(parent_id) = child.parent else {
                    continue;
                };
                // A missing parent is an incomplete trace, not a nesting
                // violation (children respond before their parents, so a
                // truncated run records them first).
                if let Some(parent) = spans.iter().find(|s| s.span == parent_id) {
                    if child.start < parent.start || child.end > parent.end {
                        report.nesting_violations += 1;
                    }
                }
            }
        }
        report.root_durations.sort_unstable();

        report.qos_ns = match qos {
            Some(d) => d.as_nanos(),
            None => {
                report.qos_derived = true;
                percentile(&report.root_durations, 0.99).unwrap_or(u64::MAX)
            }
        };

        // Critical-path walk over every violating trace.
        for spans in traces() {
            let Some(root) = spans.iter().find(|s| s.is_root()) else {
                continue;
            };
            let duration = root.duration().as_nanos();
            if duration <= report.qos_ns {
                continue;
            }
            report.violations += 1;
            let excess = duration - report.qos_ns;
            match walk_critical_path(root, spans) {
                Some((container, class, path)) => {
                    let bucket = report.attribution.entry((container, class)).or_default();
                    bucket.count += 1;
                    bucket.loss_ns += excess;
                    let mut stack = String::from("client");
                    for c in path {
                        let _ = write!(stack, ";c{c}");
                    }
                    let _ = write!(stack, ";{}", class.name());
                    *report.folded.entry(stack).or_insert(0) += excess;
                }
                None => report.unattributed += 1,
            }
        }
        report
    }

    /// Total loss across all attributed violations, ns.
    pub fn total_loss_ns(&self) -> u64 {
        self.attribution.values().map(|a| a.loss_ns).sum()
    }

    /// The `(container, class)` bucket carrying the most loss.
    pub fn dominant(&self) -> Option<((u32, LossClass), Attribution)> {
        self.attribution
            .iter()
            .max_by_key(|(_, a)| a.loss_ns)
            .map(|(k, a)| (*k, *a))
    }

    /// Percentile of the root-span duration distribution, ns.
    pub fn root_percentile(&self, q: f64) -> Option<u64> {
        percentile(&self.root_durations, q)
    }

    /// Structural problems that should fail an automated gate. Incomplete
    /// traces are *not* listed — a run cut off mid-request is normal.
    pub fn audit(&self) -> Vec<String> {
        let mut issues = Vec::new();
        if self.negative_spans > 0 {
            issues.push(format!(
                "{} span(s) end before they start",
                self.negative_spans
            ));
        }
        if self.duplicate_spans > 0 {
            issues.push(format!(
                "{} duplicate span id(s) within a trace",
                self.duplicate_spans
            ));
        }
        if self.multi_root_traces > 0 {
            issues.push(format!(
                "{} trace(s) with more than one root span",
                self.multi_root_traces
            ));
        }
        if self.nesting_violations > 0 {
            issues.push(format!(
                "{} child span(s) not nested inside their parent",
                self.nesting_violations
            ));
        }
        if self.dropped > 0 {
            issues.push(format!(
                "{} event(s) dropped by the recording pipeline",
                self.dropped
            ));
        }
        issues
    }

    /// The folded-stack file body (inferno/speedscope `collapse` format).
    pub fn folded_lines(&self) -> String {
        let mut out = String::new();
        for (stack, loss) in &self.folded {
            let _ = writeln!(out, "{stack} {loss}");
        }
        out
    }

    /// Machine-readable summary for `sg-trace --json`.
    pub fn to_json(&self) -> Value {
        let attribution: Vec<Value> = self
            .attribution
            .iter()
            .map(|((container, class), a)| {
                json!({
                    "container": *container,
                    "class": class.name(),
                    "count": a.count,
                    "loss_ns": a.loss_ns,
                })
            })
            .collect();
        let folded: Vec<Value> = self
            .folded
            .iter()
            .map(|(stack, loss)| json!({ "stack": stack.as_str(), "loss_ns": *loss }))
            .collect();
        json!({
            "spans": self.spans,
            "traces": self.traces,
            "incomplete_traces": self.incomplete_traces,
            "qos_ns": self.qos_ns,
            "qos_derived": self.qos_derived,
            "violations": self.violations,
            "unattributed": self.unattributed,
            "total_loss_ns": self.total_loss_ns(),
            "root_p50_ns": self.root_percentile(0.50),
            "root_p99_ns": self.root_percentile(0.99),
            "attribution": attribution,
            "folded": folded,
            "dropped": self.dropped,
            "audit": self.audit(),
        })
    }

    /// Render the human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "spans: {} records, {} complete traces, {} incomplete",
            self.spans, self.traces, self.incomplete_traces
        );
        if let (Some(p50), Some(p99)) = (self.root_percentile(0.50), self.root_percentile(0.99)) {
            let _ = writeln!(out, "  root duration p50 {p50} ns, p99 {p99} ns");
        }
        let _ = writeln!(
            out,
            "  deadline: {} ns{}",
            self.qos_ns,
            if self.qos_derived {
                " (self-calibrated p99)"
            } else {
                ""
            }
        );
        let _ = writeln!(
            out,
            "  {} violating request(s), {} unattributable",
            self.violations, self.unattributed
        );
        if self.dropped > 0 {
            let _ = writeln!(
                out,
                "  !! {} events dropped by the recording pipeline",
                self.dropped
            );
        }

        let _ = writeln!(out, "\ncritical-path attribution (container / class):");
        if self.attribution.is_empty() {
            let _ = writeln!(out, "  (no attributed violations)");
        }
        let total = self.total_loss_ns().max(1);
        for ((container, class), a) in &self.attribution {
            let _ = writeln!(
                out,
                "  c{container:<4} {:<16} {:>8} requests  {:>14} ns lost ({:>5.1}%)",
                class.name(),
                a.count,
                a.loss_ns,
                a.loss_ns as f64 * 100.0 / total as f64
            );
        }

        let _ = writeln!(out, "\ncritical-path stacks (folded):");
        if self.folded.is_empty() {
            let _ = writeln!(out, "  (none)");
        }
        for (stack, loss) in &self.folded {
            let _ = writeln!(out, "  {stack} {loss}");
        }
        out
    }
}

fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0)) * (sorted.len() - 1) as f64).round() as usize;
    Some(sorted[rank])
}

/// Follow the dominant component hop by hop. Returns the terminal
/// `(container, class)` and the container path from the frontend down.
fn walk_critical_path(
    root: &SpanRecord,
    spans: &[&SpanRecord],
) -> Option<(u32, LossClass, Vec<u32>)> {
    let mut path = Vec::new();
    // The request root has exactly one child: the frontend hop.
    let mut current = *dominant_child(root.span, spans)?;
    // A walk down a tree visits each span at most once; a longer one is
    // circling through (corrupt) parent ids and attributes nothing.
    for _ in 0..spans.len() {
        let container = current.container?.0;
        path.push(container);

        let service_class = if current.freq_level == 0 && current.slack_ns < 0 {
            LossClass::PreBoostFreq
        } else {
            LossClass::Service
        };
        let components = [
            (current.net_in.as_nanos(), LossClass::Network),
            (current.conn_wait.as_nanos(), LossClass::PoolQueue),
            (current.service.as_nanos(), service_class),
        ];
        let &(local_max, local_class) = components
            .iter()
            .max_by_key(|(ns, _)| *ns)
            .expect("components is non-empty");

        if current.downstream.as_nanos() > local_max {
            match dominant_child(current.span, spans) {
                Some(child) => {
                    current = *child;
                    continue;
                }
                // Downstream dominated but its spans are missing
                // (truncated run): nothing trustworthy to attribute.
                None => return None,
            }
        }
        return Some((container, local_class, path));
    }
    None
}

/// The child of `parent` with the largest total footprint (its own
/// duration plus the queueing and network spent reaching it).
fn dominant_child<'s>(parent: u64, spans: &'s [&SpanRecord]) -> Option<&'s &'s SpanRecord> {
    spans
        .iter()
        .filter(|s| s.parent == Some(parent))
        .max_by_key(|s| s.net_in.as_nanos() + s.conn_wait.as_nanos() + s.duration().as_nanos())
}

/// Incremental critical-path attribution for unbounded span streams.
///
/// [`SpanReport`] groups a whole trace file in memory before walking
/// critical paths; `sg-trace watch` cannot afford that on a multi-GB
/// (or still-growing) export. This walker buffers spans per trace only
/// until the trace's **root** span arrives — both substrates emit the
/// root last, at client delivery — then finalizes the trace
/// immediately: the root duration feeds a mergeable [`LatencyDigest`]
/// and, when the request violated the deadline, the excess latency is
/// charged to the dominant hop's `(container, class)` key in a
/// [`TopK`] sketch. Traces whose root never arrives are bounded by
/// `max_pending`: the oldest (lowest trace id) is evicted and counted,
/// so memory stays flat no matter how long the tail runs.
#[derive(Debug)]
pub struct StreamingAttributor {
    qos: SimDuration,
    max_pending: usize,
    pending: BTreeMap<u64, Vec<SpanRecord>>,
    /// Root-span duration digest (mergeable; default resolution).
    pub digest: LatencyDigest,
    /// Heavy-hitter sketch over `(container, class)` violation loss.
    pub topk: TopK,
    /// Traces finalized (root span seen).
    pub traces: u64,
    /// Finalized traces beyond the deadline.
    pub violations: u64,
    /// Violations whose tree was too incomplete to attribute.
    pub unattributed: u64,
    /// Rootless traces evicted to bound memory.
    pub evicted: u64,
}

impl StreamingAttributor {
    /// Attributor judging violations against `qos`, tracking
    /// `topk_capacity` heavy hitters and buffering at most
    /// `max_pending` rootless traces.
    pub fn new(qos: SimDuration, topk_capacity: usize, max_pending: usize) -> Self {
        StreamingAttributor {
            qos,
            max_pending: max_pending.max(1),
            pending: BTreeMap::new(),
            digest: LatencyDigest::with_default_resolution(),
            topk: TopK::new(topk_capacity),
            traces: 0,
            violations: 0,
            unattributed: 0,
            evicted: 0,
        }
    }

    /// The deadline violations are judged against.
    pub fn qos(&self) -> SimDuration {
        self.qos
    }

    /// Rootless traces currently buffered.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Feed one span record. Root spans finalize their trace.
    pub fn push(&mut self, record: SpanRecord) {
        if record.is_root() {
            let mut spans = self.pending.remove(&record.trace).unwrap_or_default();
            spans.push(record);
            self.finalize(&spans);
            return;
        }
        self.pending.entry(record.trace).or_default().push(record);
        while self.pending.len() > self.max_pending {
            self.pending.pop_first();
            self.evicted += 1;
        }
    }

    fn finalize(&mut self, spans: &[SpanRecord]) {
        let Some(root) = spans.iter().find(|s| s.is_root()) else {
            return;
        };
        self.traces += 1;
        let duration = root.duration();
        self.digest.record(duration);
        if duration <= self.qos {
            return;
        }
        self.violations += 1;
        let excess = duration.as_nanos() - self.qos.as_nanos();
        let refs: Vec<&SpanRecord> = spans.iter().collect();
        match walk_critical_path(root, &refs) {
            Some((container, class, _path)) => {
                self.topk
                    .observe(topk_key(ContainerId(container), Some(class)), excess);
            }
            None => self.unattributed += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sg_core::ids::{ContainerId, NodeId};
    use sg_core::time::SimTime;

    fn span(
        trace: u64,
        id: u64,
        parent: Option<u64>,
        container: Option<u32>,
        start_us: u64,
        end_us: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace,
            span: id,
            parent,
            container: container.map(ContainerId),
            node: container.map(|_| NodeId(0)),
            start: SimTime::from_micros(start_us),
            end: SimTime::from_micros(end_us),
            net_in: SimDuration::ZERO,
            conn_wait: SimDuration::ZERO,
            service: SimDuration::ZERO,
            downstream: SimDuration::ZERO,
            freq_level: 0,
            slack_ns: 0,
        }
    }

    /// A two-hop trace where the downstream container's pool queue holds
    /// the time: root [0, 2000], frontend hop with small service and a
    /// large downstream window, child hop with a large conn_wait.
    fn pool_queue_trace() -> Vec<SpanRecord> {
        let root = span(5, 0, None, None, 0, 2000);
        let mut front = span(5, 1, Some(0), Some(0), 20, 1980);
        front.net_in = SimDuration::from_micros(20);
        front.service = SimDuration::from_micros(300);
        front.downstream = SimDuration::from_micros(1660);
        let mut child = span(5, 2, Some(1), Some(1), 1600, 1750);
        child.net_in = SimDuration::from_micros(20);
        child.conn_wait = SimDuration::from_micros(1450);
        child.service = SimDuration::from_micros(150);
        vec![root, front, child]
    }

    #[test]
    fn attributes_pool_queue_to_downstream_container() {
        let records = pool_queue_trace();
        let report = SpanReport::from_records(&records, Some(SimDuration::from_millis(1)));
        assert_eq!(report.traces, 1);
        assert_eq!(report.violations, 1);
        assert_eq!(report.unattributed, 0);
        let ((container, class), a) = report.dominant().expect("one bucket");
        assert_eq!(container, 1, "loss must land on the downstream container");
        assert_eq!(class, LossClass::PoolQueue);
        assert_eq!(a.count, 1);
        assert_eq!(a.loss_ns, 1_000_000); // 2ms latency - 1ms deadline
        assert_eq!(report.folded.len(), 1);
        let (stack, loss) = report.folded.iter().next().unwrap();
        assert_eq!(stack, "client;c0;c1;pool_queue");
        assert_eq!(*loss, 1_000_000);
        assert!(report.audit().is_empty(), "{:?}", report.audit());
    }

    #[test]
    fn classifies_pre_boost_frequency_loss() {
        let root = span(1, 0, None, None, 0, 2000);
        let mut hop = span(1, 1, Some(0), Some(0), 20, 1990);
        hop.service = SimDuration::from_micros(1900);
        hop.net_in = SimDuration::from_micros(20);
        hop.freq_level = 0;
        hop.slack_ns = -500_000;
        let report = SpanReport::from_records(&[root, hop], Some(SimDuration::from_millis(1)));
        let ((c, class), _) = report.dominant().unwrap();
        assert_eq!((c, class), (0, LossClass::PreBoostFreq));

        // Same shape but boosted: plain service loss.
        let mut boosted = [root, hop];
        boosted[1].freq_level = 6;
        let report = SpanReport::from_records(&boosted, Some(SimDuration::from_millis(1)));
        let ((_, class), _) = report.dominant().unwrap();
        assert_eq!(class, LossClass::Service);
    }

    #[test]
    fn incomplete_traces_are_counted_not_failed() {
        // Child recorded, root missing (run ended mid-request).
        let orphan = span(9, 3, Some(2), Some(1), 100, 200);
        let report = SpanReport::from_records(&[orphan], Some(SimDuration::from_millis(1)));
        assert_eq!(report.incomplete_traces, 1);
        assert_eq!(report.traces, 0);
        assert!(report.audit().is_empty());
    }

    #[test]
    fn structural_problems_fail_the_audit() {
        let root = span(1, 0, None, None, 100, 200);
        let escapee = span(1, 1, Some(0), Some(0), 50, 300); // outside parent
        let report = SpanReport::from_records(&[root, escapee], Some(SimDuration::from_millis(1)));
        assert_eq!(report.nesting_violations, 1);
        assert!(!report.audit().is_empty());

        let backwards = span(2, 0, None, None, 300, 100);
        let report = SpanReport::from_records(&[backwards], Some(SimDuration::from_millis(1)));
        assert_eq!(report.negative_spans, 1);
        assert!(!report.audit().is_empty());

        let dup_a = span(3, 7, None, None, 0, 10);
        let dup_b = span(3, 7, Some(7), Some(0), 2, 8);
        let report = SpanReport::from_records(&[dup_a, dup_b], Some(SimDuration::from_millis(1)));
        assert_eq!(report.duplicate_spans, 1);
        assert!(!report.audit().is_empty());
    }

    #[test]
    fn qos_self_calibrates_to_p99() {
        let mut records = Vec::new();
        for i in 0..100u64 {
            records.push(span(i, i * 2, None, None, 0, 100 + i));
        }
        let report = SpanReport::from_records(&records, None);
        assert!(report.qos_derived);
        // Nearest-rank p99 over 100 samples: round(0.99 * 99) = index 98.
        assert_eq!(report.qos_ns, (100 + 98) * 1000);
    }

    #[test]
    fn from_events_collects_spans_and_drops() {
        let events = vec![
            TelemetryEvent::Span(span(1, 0, None, None, 0, 100)),
            TelemetryEvent::Dropped {
                count: 4,
                family: None,
            },
        ];
        let report = SpanReport::from_events(events, Some(SimDuration::from_millis(1)));
        assert_eq!(report.spans, 1);
        assert_eq!(report.dropped, 4);
        assert!(!report.audit().is_empty(), "drops must fail the audit");
        let v = report.to_json();
        assert_eq!(v.get("dropped").and_then(Value::as_u64), Some(4));
    }

    #[test]
    fn render_survives_empty_input() {
        let report = SpanReport::from_records(&[], None);
        assert!(report.render().contains("0 records"));
        assert!(report.folded_lines().is_empty());
    }

    /// A span that is its own parent used to send the walk round forever.
    #[test]
    fn a_parent_id_cycle_is_unattributed_not_a_hang() {
        let root = span(4, 0, None, None, 0, 2000);
        let mut front = span(4, 1, Some(0), Some(0), 10, 1990);
        front.downstream = SimDuration::from_micros(1900);
        let mut looped = span(4, 2, Some(2), Some(1), 20, 1980);
        looped.downstream = SimDuration::from_micros(1900);
        let mut into_loop = looped;
        into_loop.parent = Some(1);
        let report = SpanReport::from_records(
            &[root, front, into_loop, looped],
            Some(SimDuration::from_millis(1)),
        );
        assert_eq!((report.violations, report.unattributed), (1, 1));
    }

    /// `from_records` as it grouped before the sort: a map of traces,
    /// roots collected into a vector, a fresh id vector per trace.
    fn grouped_by_map(records: &[SpanRecord], qos: Option<SimDuration>) -> SpanReport {
        let mut report = SpanReport {
            spans: records.len() as u64,
            ..SpanReport::default()
        };
        let mut traces: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        for r in records {
            if r.end < r.start {
                report.negative_spans += 1;
            }
            traces.entry(r.trace).or_default().push(r);
        }
        for spans in traces.values() {
            let mut ids: Vec<u64> = spans.iter().map(|s| s.span).collect();
            ids.sort_unstable();
            report.duplicate_spans += ids.windows(2).filter(|w| w[0] == w[1]).count() as u64;
            let roots: Vec<&&SpanRecord> = spans.iter().filter(|s| s.is_root()).collect();
            match roots.len() {
                0 => report.incomplete_traces += 1,
                1 => {
                    report.traces += 1;
                    report.root_durations.push(roots[0].duration().as_nanos());
                }
                _ => {
                    report.multi_root_traces += 1;
                    report.traces += 1;
                    report.root_durations.push(roots[0].duration().as_nanos());
                }
            }
            for child in spans.iter() {
                let Some(parent_id) = child.parent else {
                    continue;
                };
                if let Some(parent) = spans.iter().find(|s| s.span == parent_id) {
                    if child.start < parent.start || child.end > parent.end {
                        report.nesting_violations += 1;
                    }
                }
            }
        }
        report.root_durations.sort_unstable();
        report.qos_ns = match qos {
            Some(d) => d.as_nanos(),
            None => {
                report.qos_derived = true;
                percentile(&report.root_durations, 0.99).unwrap_or(u64::MAX)
            }
        };
        for spans in traces.values() {
            let Some(root) = spans.iter().find(|s| s.is_root()) else {
                continue;
            };
            let duration = root.duration().as_nanos();
            if duration <= report.qos_ns {
                continue;
            }
            report.violations += 1;
            let excess = duration - report.qos_ns;
            match walk_critical_path(root, spans) {
                Some((container, class, path)) => {
                    let bucket = report.attribution.entry((container, class)).or_default();
                    bucket.count += 1;
                    bucket.loss_ns += excess;
                    let mut stack = String::from("client");
                    for c in path {
                        let _ = write!(stack, ";c{c}");
                    }
                    let _ = write!(stack, ";{}", class.name());
                    *report.folded.entry(stack).or_insert(0) += excess;
                }
                None => report.unattributed += 1,
            }
        }
        report
    }

    /// Records from random words: eight traces in shuffled order, eight
    /// span ids (so duplicates), any number of roots per trace (none,
    /// one, several), times in any order (negative spans, children
    /// outside their parent). A parent id is below the span's own, so
    /// every walk ends.
    fn random_records(words: &[u64]) -> Vec<SpanRecord> {
        words
            .chunks_exact(3)
            .map(|w| {
                let id = w[0] % 8;
                let parent = (id > 0 && w[0] >> 3 & 3 != 0).then(|| (w[0] >> 5) % id);
                let container = (w[0] >> 8 & 7 != 0).then_some((w[0] >> 11) as u32 % 4);
                let mut r = span(
                    w[0] >> 16 & 7,
                    id,
                    parent,
                    container,
                    w[1] % 3000,
                    (w[1] >> 32) % 3000,
                );
                let us = |shift: u32| SimDuration::from_micros(w[2] >> shift & 1023);
                (r.net_in, r.conn_wait, r.service, r.downstream) = (us(0), us(10), us(20), us(30));
                r.freq_level = (w[2] >> 40) as u8 & 1;
                r.slack_ns = (w[2] >> 41 & 0xffff) as i64 - 0x8000;
                r
            })
            .collect()
    }

    proptest! {
        #[test]
        fn sorted_grouping_reports_what_the_map_grouping_did(
            words in prop::collection::vec(any::<u64>(), 0..180),
            qos_us in any::<u64>(),
        ) {
            let records = random_records(&words);
            let qos = (qos_us % 4 != 0).then(|| SimDuration::from_micros(qos_us % 2500));
            prop_assert_eq!(
                SpanReport::from_records(&records, qos),
                grouped_by_map(&records, qos)
            );
        }
    }
}
