//! The sink contract and the two direct (synchronous) sinks.
//!
//! A sink must be cheap when unused: harnesses hold an
//! `Option<SharedSink>` and skip event construction entirely when it is
//! `None`, so a disabled sink costs one branch on the packet hot path.

use crate::event::TelemetryEvent;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Where telemetry events go.
///
/// `emit` must be callable from any thread; implementations choose their
/// own synchronization. Synchronous sinks (this module) may block on I/O
/// and are therefore only suitable for the simulator or for off-path
/// threads; the live packet path must go through
/// [`crate::ring::RingSink`], which never blocks.
///
/// # Example
///
/// A custom sink only needs `emit`; this one counts events:
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use sg_telemetry::{TelemetryEvent, TelemetrySink};
///
/// #[derive(Default)]
/// struct CountingSink(AtomicU64);
///
/// impl TelemetrySink for CountingSink {
///     fn emit(&self, _event: TelemetryEvent) {
///         self.0.fetch_add(1, Ordering::Relaxed);
///     }
/// }
/// ```
pub trait TelemetrySink: Send + Sync {
    /// Record one event.
    fn emit(&self, event: TelemetryEvent);

    /// Make all previously emitted events durable (no-op by default).
    fn flush(&self) {}
}

/// A shareable handle to any sink.
pub type SharedSink = Arc<dyn TelemetrySink>;

/// In-memory sink for tests and programmatic inspection.
#[derive(Debug, Default)]
pub struct VecSink {
    events: Mutex<Vec<TelemetryEvent>>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty sink, pre-wrapped for sharing.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Remove and return everything recorded so far.
    pub fn take(&self) -> Vec<TelemetryEvent> {
        std::mem::take(&mut self.events.lock().expect("VecSink poisoned"))
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.lock().expect("VecSink poisoned").len()
    }

    /// True when nothing has been recorded (or everything was taken).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TelemetrySink for VecSink {
    fn emit(&self, event: TelemetryEvent) {
        self.events.lock().expect("VecSink poisoned").push(event);
    }
}

/// Sink writing one JSON object per line to a buffered file.
///
/// A full disk must not take down the run it is observing, so `emit`
/// never panics or blocks the caller on an error — but it is not silent
/// either: failed writes are counted, the last error message is kept,
/// and dropping the sink flushes the buffer and reports any loss to
/// stderr so tail events are never lost without a trace.
pub struct JsonlSink {
    /// The file, and the buffer a line is encoded into and written from.
    writer: Mutex<(BufWriter<File>, Vec<u8>)>,
    written: AtomicU64,
    write_errors: AtomicU64,
    last_error: Mutex<Option<String>>,
}

impl JsonlSink {
    /// Create (truncating) the file at `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            writer: Mutex::new((BufWriter::with_capacity(64 * 1024, file), Vec::new())),
            written: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            last_error: Mutex::new(None),
        })
    }

    /// Events written so far.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// Write or flush failures so far.
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }

    /// The most recent write/flush error, if any.
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().expect("JsonlSink poisoned").clone()
    }

    fn record_error(&self, e: &std::io::Error) {
        self.write_errors.fetch_add(1, Ordering::Relaxed);
        *self.last_error.lock().expect("JsonlSink poisoned") = Some(e.to_string());
    }

    /// Flush, surfacing the error to the caller (unlike the fire-and-
    /// forget trait `flush`).
    pub fn try_flush(&self) -> std::io::Result<()> {
        let result = self.writer.lock().expect("JsonlSink poisoned").0.flush();
        if let Err(e) = &result {
            self.record_error(e);
        }
        result
    }
}

impl TelemetrySink for JsonlSink {
    fn emit(&self, event: TelemetryEvent) {
        let mut w = self.writer.lock().expect("JsonlSink poisoned");
        let (file, line) = &mut *w;
        line.clear();
        event.write_json_line(line);
        line.push(b'\n');
        match file.write_all(line) {
            Ok(()) => {
                self.written.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                drop(w);
                self.record_error(&e);
            }
        }
    }

    fn flush(&self) {
        let _ = self.try_flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.try_flush();
        let errors = self.write_errors();
        if errors > 0 {
            let detail = self.last_error().unwrap_or_else(|| "unknown".into());
            eprintln!("sg-telemetry: {errors} trace write error(s); last: {detail}");
        }
    }
}

/// Routes events from one relay to per-stream destinations: span records
/// to the span sink, metrics samples to the metrics sink, profile events
/// to the profile sink, decision events to the decision sink. A
/// family-tagged pipeline [`TelemetryEvent::Dropped`] record goes only
/// to its own family's stream, so each output file testifies to exactly
/// its own losses; an untagged (legacy) one is duplicated to every open
/// stream. The live driver funnels every hot-path emitter through a
/// single [`crate::ring::RingSink`] whose inner sink is a `DemuxSink`,
/// keeping the packet path to one lock-free push however many trace
/// files are open.
///
/// The metrics slot carries more than gauge samples: the cumulative
/// aggregation snapshots ([`TelemetryEvent::Digest`] /
/// [`TelemetryEvent::Slo`] / [`TelemetryEvent::TopK`], see
/// [`crate::agg`]) ride the same stream, so one metrics file feeds both
/// `sg-timeline` and `sg-trace watch`.
pub struct DemuxSink {
    decision: Option<SharedSink>,
    span: Option<SharedSink>,
    metrics: Option<SharedSink>,
    profile: Option<SharedSink>,
}

impl DemuxSink {
    /// A demux over the (optional) per-stream destinations.
    pub fn new(
        decision: Option<SharedSink>,
        span: Option<SharedSink>,
        metrics: Option<SharedSink>,
        profile: Option<SharedSink>,
    ) -> Self {
        DemuxSink {
            decision,
            span,
            metrics,
            profile,
        }
    }

    fn stream(&self, family: crate::event::EventFamily) -> Option<&SharedSink> {
        use crate::event::EventFamily;
        match family {
            EventFamily::Decision => self.decision.as_ref(),
            EventFamily::Span => self.span.as_ref(),
            EventFamily::Metrics => self.metrics.as_ref(),
            EventFamily::Profile => self.profile.as_ref(),
        }
    }
}

impl TelemetrySink for DemuxSink {
    fn emit(&self, event: TelemetryEvent) {
        if let TelemetryEvent::Dropped { family: None, .. } = &event {
            // Legacy total: every open stream carries the testimony.
            for sink in [&self.decision, &self.span, &self.metrics, &self.profile]
                .into_iter()
                .flatten()
            {
                sink.emit(event.clone());
            }
            return;
        }
        if let Some(sink) = self.stream(event.family()) {
            sink.emit(event);
        }
    }

    fn flush(&self) {
        for sink in [&self.decision, &self.span, &self.metrics, &self.profile]
            .into_iter()
            .flatten()
        {
            sink.flush();
        }
    }
}

/// Duplicates every event to each inner sink. The live driver uses this
/// to feed the metrics stream into both its JSONL file and the in-memory
/// [`crate::metrics::MetricsRegistry`] behind one demux slot.
pub struct FanoutSink {
    sinks: Vec<SharedSink>,
}

impl FanoutSink {
    /// A fanout over `sinks`, in emit order.
    pub fn new(sinks: Vec<SharedSink>) -> Self {
        FanoutSink { sinks }
    }
}

impl TelemetrySink for FanoutSink {
    fn emit(&self, event: TelemetryEvent) {
        for sink in &self.sinks {
            sink.emit(event.clone());
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_core::time::SimTime;

    fn dropped(count: u64) -> TelemetryEvent {
        TelemetryEvent::Dropped {
            count,
            family: None,
        }
    }

    #[test]
    fn vec_sink_records_and_takes() {
        let sink = VecSink::shared();
        assert!(sink.is_empty());
        sink.emit(dropped(1));
        sink.emit(dropped(2));
        assert_eq!(sink.len(), 2);
        let events = sink.take();
        assert_eq!(events.len(), 2);
        assert!(sink.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path =
            std::env::temp_dir().join(format!("sg-telemetry-test-{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).expect("create trace file");
        sink.emit(TelemetryEvent::Alloc {
            at: SimTime::from_micros(10),
            container: sg_core::ids::ContainerId(2),
            cores: 3,
            freq_level: 1,
            freq_ghz: 1.8,
        });
        sink.emit(dropped(0));
        assert_eq!(sink.written(), 2);
        sink.flush();
        let body = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<_> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            TelemetryEvent::from_json_line(line).expect("every line parses");
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Satellite: dropping the sink without an explicit flush must still
    /// leave a complete, parseable file — tail events survive.
    #[test]
    fn dropped_sink_leaves_complete_parseable_file() {
        let path =
            std::env::temp_dir().join(format!("sg-telemetry-drop-{}.jsonl", std::process::id()));
        let n = 100u64;
        {
            let sink = JsonlSink::create(&path).expect("create trace file");
            for count in 0..n {
                sink.emit(dropped(count));
            }
            assert_eq!(sink.written(), n);
            assert_eq!(sink.write_errors(), 0);
            // No flush: Drop must do it.
        }
        let body = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<_> = body.lines().collect();
        assert_eq!(lines.len(), n as usize, "every buffered event persisted");
        for (i, line) in lines.iter().enumerate() {
            match TelemetryEvent::from_json_line(line).expect("line parses") {
                TelemetryEvent::Dropped { count, .. } => assert_eq!(count, i as u64),
                other => panic!("wrong event: {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Write errors are counted and surfaced, not swallowed.
    #[cfg(target_os = "linux")]
    #[test]
    fn write_errors_are_surfaced() {
        // /dev/full accepts the open but fails every flushed write with
        // ENOSPC — the canonical full-disk stand-in.
        let sink = match JsonlSink::create(Path::new("/dev/full")) {
            Ok(s) => s,
            Err(_) => return, // sandboxed environments may hide /dev/full
        };
        sink.emit(dropped(1));
        assert!(sink.try_flush().is_err(), "flush to /dev/full must fail");
        assert!(sink.write_errors() > 0);
        assert!(sink.last_error().is_some());
    }

    fn span_event() -> TelemetryEvent {
        use crate::span::SpanRecord;
        use sg_core::time::SimDuration;
        TelemetryEvent::Span(SpanRecord {
            trace: 0,
            span: 1,
            parent: None,
            container: None,
            node: None,
            start: SimTime::ZERO,
            end: SimTime::from_micros(5),
            net_in: SimDuration::ZERO,
            conn_wait: SimDuration::ZERO,
            service: SimDuration::ZERO,
            downstream: SimDuration::from_micros(5),
            freq_level: 0,
            slack_ns: 0,
        })
    }

    fn metric_event() -> TelemetryEvent {
        use crate::metrics::{MetricId, MetricSample};
        TelemetryEvent::Metric(MetricSample {
            at: SimTime::from_micros(3),
            node: sg_core::ids::NodeId(0),
            container: sg_core::ids::ContainerId(0),
            metric: MetricId::Cores,
            value: 2.0,
        })
    }

    fn profile_event() -> TelemetryEvent {
        TelemetryEvent::ProfileMark {
            mark: crate::profile::ProfileMark::HeapDepthHighWater,
            value: 42,
        }
    }

    #[test]
    fn demux_routes_four_families_and_duplicates_legacy_drops() {
        let decision = VecSink::shared();
        let span = VecSink::shared();
        let metrics = VecSink::shared();
        let profile = VecSink::shared();
        let demux = DemuxSink::new(
            Some(decision.clone() as SharedSink),
            Some(span.clone() as SharedSink),
            Some(metrics.clone() as SharedSink),
            Some(profile.clone() as SharedSink),
        );
        demux.emit(dropped(3)); // legacy: every stream
        demux.emit(TelemetryEvent::Alloc {
            at: SimTime::from_micros(1),
            container: sg_core::ids::ContainerId(0),
            cores: 2,
            freq_level: 0,
            freq_ghz: 1.8,
        });
        demux.emit(span_event());
        demux.emit(metric_event());
        demux.emit(profile_event());
        let d = decision.take();
        let s = span.take();
        let m = metrics.take();
        let p = profile.take();
        assert_eq!(d.len(), 2, "legacy drop + alloc on the decision stream");
        assert_eq!(s.len(), 2, "legacy drop + span on the span stream");
        assert_eq!(m.len(), 2, "legacy drop + sample on the metrics stream");
        assert_eq!(p.len(), 2, "legacy drop + mark on the profile stream");
        assert!(matches!(d[1], TelemetryEvent::Alloc { .. }));
        assert!(matches!(s[1], TelemetryEvent::Span(_)));
        assert!(matches!(m[1], TelemetryEvent::Metric(_)));
        assert!(matches!(p[1], TelemetryEvent::ProfileMark { .. }));
        for stream in [&d, &s, &m, &p] {
            assert!(matches!(
                stream[0],
                TelemetryEvent::Dropped {
                    count: 3,
                    family: None
                }
            ));
        }
    }

    /// Satellite: a family-tagged drop record lands only on its own
    /// stream — the other trace files stay clean.
    #[test]
    fn family_tagged_drops_reach_only_their_own_stream() {
        use crate::event::EventFamily;
        let decision = VecSink::shared();
        let span = VecSink::shared();
        let metrics = VecSink::shared();
        let profile = VecSink::shared();
        let demux = DemuxSink::new(
            Some(decision.clone() as SharedSink),
            Some(span.clone() as SharedSink),
            Some(metrics.clone() as SharedSink),
            Some(profile.clone() as SharedSink),
        );
        for (family, count) in [
            (EventFamily::Decision, 1),
            (EventFamily::Span, 2),
            (EventFamily::Metrics, 3),
            (EventFamily::Profile, 4),
        ] {
            demux.emit(TelemetryEvent::Dropped {
                count,
                family: Some(family),
            });
        }
        for (sink, family, count) in [
            (&decision, EventFamily::Decision, 1),
            (&span, EventFamily::Span, 2),
            (&metrics, EventFamily::Metrics, 3),
            (&profile, EventFamily::Profile, 4),
        ] {
            let events = sink.take();
            assert_eq!(events.len(), 1, "{family:?} stream sees only its drop");
            assert_eq!(
                events[0],
                TelemetryEvent::Dropped {
                    count,
                    family: Some(family)
                }
            );
        }
    }

    #[test]
    fn fanout_duplicates_to_every_inner_sink() {
        let a = VecSink::shared();
        let b = VecSink::shared();
        let fan = FanoutSink::new(vec![a.clone() as SharedSink, b.clone() as SharedSink]);
        fan.emit(metric_event());
        fan.emit(dropped(1));
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
    }
}
