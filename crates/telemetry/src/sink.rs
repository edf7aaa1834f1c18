//! The sink contract, the in-memory and JSONL file sinks, and the
//! routing sinks.
//!
//! A sink must be cheap when unused: harnesses hold an
//! `Option<SharedSink>` and skip event construction entirely when it is
//! `None`, so a disabled sink costs one branch on the packet hot path.

use crate::event::TelemetryEvent;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Where telemetry events go.
///
/// `emit` must be callable from any thread; implementations choose their
/// own synchronization. The sinks in this module may block (on a lock,
/// or on [`JsonlSink`]'s full queue) and are therefore only suitable for
/// the simulator or for off-path threads; the live packet path must go
/// through [`crate::ring::RingSink`], which never blocks.
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

/// Events `emit` collects before handing them to the writer thread.
const BATCH: usize = 1024;
/// Batches queued for the writer before `emit` blocks.
const QUEUE_DEPTH: usize = 8;

/// Sink writing one JSON object per line to a buffered file, from a
/// writer thread of its own.
///
/// `emit` only appends the event to a batch; full batches go over a
/// bounded queue to the sink's one writer thread, which encodes every
/// line and does every write, so encoding costs the emitting thread
/// nothing. `emit` never drops an event: when the writer falls
/// `QUEUE_DEPTH` batches behind, `emit` blocks until it catches up.
///
/// A full disk must not take down the run it is observing, so write
/// errors never reach `emit` — but they are not silent either: failed
/// writes are counted, the last error message is kept, and dropping the
/// sink writes and flushes everything emitted, joins the writer and
/// reports any loss to stderr, so tail events are never lost without a
/// trace.
pub struct JsonlSink {
    /// The batch being collected and the queue to the writer, under one
    /// lock so batches reach the writer in emit order.
    queue: Mutex<Queue>,
    status: Arc<Status>,
    writer: Option<JoinHandle<()>>,
}

struct Queue {
    batch: Vec<TelemetryEvent>,
    /// `None` once the sink is dropping: closing it stops the writer.
    to_writer: Option<SyncSender<Job>>,
}

/// Work for a [`JsonlSink`]'s writer thread, done in queue order.
enum Job {
    /// Encode and write these events.
    Write(Vec<TelemetryEvent>),
    /// Answer on `done` once everything queued before is written and,
    /// with `flush`, flushed to the file.
    Sync {
        flush: bool,
        done: SyncSender<io::Result<()>>,
    },
}

/// What the writer thread reports.
#[derive(Default)]
struct Status {
    written: AtomicU64,
    write_errors: AtomicU64,
    last_error: Mutex<Option<String>>,
}

impl Status {
    fn record_errors(&self, count: u64, e: &io::Error) {
        self.write_errors.fetch_add(count, Ordering::Relaxed);
        *self.last_error.lock().expect("JsonlSink poisoned") = Some(e.to_string());
    }

    fn record_error(&self, e: &io::Error) {
        self.record_errors(1, e);
    }

    fn last_error(&self) -> Option<String> {
        self.last_error.lock().expect("JsonlSink poisoned").clone()
    }
}

impl Queue {
    /// Hand the collected batch (if any) to the writer.
    fn hand_over(&mut self, status: &Status) {
        if !self.batch.is_empty() {
            let batch = std::mem::replace(&mut self.batch, Vec::with_capacity(BATCH));
            self.send(Job::Write(batch), status);
        }
    }

    /// Queue `job`, blocking while the queue is full. Only a writer that
    /// panicked refuses it; the events it carried count as write errors.
    fn send(&self, job: Job, status: &Status) {
        let refused = self.to_writer.as_ref().and_then(|tx| tx.send(job).err());
        if let Some(mpsc::SendError(Job::Write(events))) = refused {
            status.record_errors(events.len() as u64, &writer_gone());
        }
    }
}

fn writer_gone() -> io::Error {
    io::Error::other("the JSONL writer thread exited")
}

/// The writer thread: encode and write each job's events in order,
/// answer syncs, and flush once the queue closes.
fn write_jobs(jobs: Receiver<Job>, file: File, status: &Status) {
    let mut out = BufWriter::with_capacity(64 * 1024, file);
    let mut line = Vec::new();
    for job in jobs {
        match job {
            Job::Write(events) => {
                for event in &events {
                    line.clear();
                    event.write_json_line(&mut line);
                    line.push(b'\n');
                    match out.write_all(&line) {
                        Ok(()) => {
                            status.written.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => status.record_error(&e),
                    }
                }
            }
            Job::Sync { flush, done } => {
                let result = if flush { out.flush() } else { Ok(()) };
                if let Err(e) = &result {
                    status.record_error(e);
                }
                let _ = done.send(result);
            }
        }
    }
    if let Err(e) = out.flush() {
        status.record_error(&e);
    }
}

impl JsonlSink {
    /// Create (truncating) the file at `path` and start its writer
    /// thread.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = File::create(path)?;
        let status = Arc::new(Status::default());
        let (to_writer, jobs) = mpsc::sync_channel(QUEUE_DEPTH);
        let writer = {
            let status = Arc::clone(&status);
            std::thread::Builder::new()
                .name("sg-jsonl-writer".into())
                .spawn(move || write_jobs(jobs, file, &status))?
        };
        Ok(JsonlSink {
            queue: Mutex::new(Queue {
                batch: Vec::with_capacity(BATCH),
                to_writer: Some(to_writer),
            }),
            status,
            writer: Some(writer),
        })
    }

    /// Events written so far. Waits until the writer has taken every
    /// event emitted before the call.
    pub fn written(&self) -> u64 {
        let _ = self.sync(false);
        self.status.written.load(Ordering::Relaxed)
    }

    /// Write or flush failures so far. Waits like [`JsonlSink::written`].
    pub fn write_errors(&self) -> u64 {
        let _ = self.sync(false);
        self.status.write_errors.load(Ordering::Relaxed)
    }

    /// The most recent write/flush error, if any. Waits like
    /// [`JsonlSink::written`].
    pub fn last_error(&self) -> Option<String> {
        let _ = self.sync(false);
        self.status.last_error()
    }

    /// Write and flush everything emitted before the call, surfacing the
    /// flush error to the caller (unlike the fire-and-forget trait
    /// `flush`).
    pub fn try_flush(&self) -> io::Result<()> {
        self.sync(true)
    }

    /// Queue a sync behind everything emitted so far and wait for the
    /// writer to answer it.
    fn sync(&self, flush: bool) -> io::Result<()> {
        let (done, answer) = mpsc::sync_channel(1);
        {
            let mut queue = self.queue.lock().expect("JsonlSink poisoned");
            queue.hand_over(&self.status);
            queue.send(Job::Sync { flush, done }, &self.status);
        }
        answer.recv().unwrap_or_else(|_| Err(writer_gone()))
    }
}

impl TelemetrySink for JsonlSink {
    fn emit(&self, event: TelemetryEvent) {
        let mut queue = self.queue.lock().expect("JsonlSink poisoned");
        queue.batch.push(event);
        if queue.batch.len() == BATCH {
            queue.hand_over(&self.status);
        }
    }

    fn flush(&self) {
        let _ = self.try_flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let queue = self.queue.get_mut().unwrap_or_else(PoisonError::into_inner);
        queue.hand_over(&self.status);
        // Closing the queue lets the writer finish, flush and exit.
        queue.to_writer = None;
        if let Some(Err(_)) = self.writer.take().map(JoinHandle::join) {
            self.status.record_error(&writer_gone());
        }
        let errors = self.status.write_errors.load(Ordering::Relaxed);
        if errors > 0 {
            let detail = self.status.last_error().unwrap_or_else(|| "unknown".into());
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

    /// What a sink must write for `events`: each one's line and a
    /// newline, in emit order.
    fn lines_of(events: &[TelemetryEvent]) -> Vec<u8> {
        let mut out = Vec::new();
        for event in events {
            event.write_json_line(&mut out);
            out.push(b'\n');
        }
        out
    }

    /// Emit `events` into a fresh file twice: once before a `try_flush`,
    /// once before the drop (nothing else hands that copy's last batch
    /// to the writer). Returns the file's bytes after each.
    fn through_sink(name: &str, events: &[TelemetryEvent]) -> (Vec<u8>, Vec<u8>) {
        let path =
            std::env::temp_dir().join(format!("sg-telemetry-{name}-{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).expect("create trace file");
        let emit_all = || events.iter().for_each(|event| sink.emit(event.clone()));
        emit_all();
        sink.try_flush().expect("flush");
        let flushed = std::fs::read(&path).expect("read back");
        emit_all();
        drop(sink);
        let closed = std::fs::read(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        (flushed, closed)
    }

    #[test]
    fn sink_bytes_are_the_encoded_lines_across_batches() {
        let events: Vec<TelemetryEvent> = (0..3 * BATCH as u64 + 1)
            .map(|i| match i % 4 {
                0 => dropped(i),
                1 => span_event(),
                2 => metric_event(),
                _ => profile_event(),
            })
            .collect();
        let lines = lines_of(&events);
        let (flushed, closed) = through_sink("batches", &events);
        assert_eq!(flushed, lines, "try_flush wrote every line");
        assert_eq!(closed, [&lines[..], &lines].concat(), "so did the drop");
    }

    #[test]
    fn fixture_re_emitted_through_the_sink_keeps_its_bytes() {
        let fixture = include_str!("../tests/fixtures/wire_v1.jsonl");
        let events: Vec<TelemetryEvent> = fixture
            .lines()
            .map(|line| TelemetryEvent::from_json_line(line).expect(line))
            .collect();
        let (flushed, closed) = through_sink("fixture", &events);
        assert_eq!(String::from_utf8(flushed).unwrap(), fixture);
        assert_eq!(String::from_utf8(closed).unwrap(), fixture.repeat(2));
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
