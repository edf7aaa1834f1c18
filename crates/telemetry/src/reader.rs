//! Shared JSONL trace reading for the CLI tools.
//!
//! Every `sg-trace` mode consumes the same wire format; this module is
//! the single open-and-parse loop they all use, so the
//! tolerant-parsing policy (skip blank lines, count — don't fail on —
//! unparseable ones) lives in exactly one place. A trace truncated by a
//! crash should still summarize.
//!
//! Reading is **streaming**: [`TraceStream`] yields one event at a time
//! from a buffered reader, so a multi-gigabyte `cluster_scale` export
//! summarizes in constant memory. [`TraceStream::for_each`] decodes on a
//! reader thread of its own, a few batches ahead of the caller, so
//! decoding overlaps whatever the caller does per event. [`TailStream`]
//! adds a follow mode (`tail -f` semantics: poll for appended lines,
//! hold partial trailing lines until their newline arrives) used by
//! `sg-trace watch --tail`.

use crate::event::{TelemetryEvent, SPANS_SCHEMA, TRACE_SCHEMA};
use crate::metrics::METRICS_SCHEMA_VERSION;
use crate::profile::{PROFILE_SCHEMA, PROFILE_SCHEMA_V1, PROFILE_SCHEMA_VERSION};
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::sync::mpsc::{self, SyncSender};

/// Events the reader thread of [`TraceStream::for_each`] decodes into one
/// batch.
const BATCH: usize = 1024;
/// Batches the reader thread may run ahead of the caller.
const READ_AHEAD: usize = 4;

/// Streaming JSONL event reader: an iterator over parsed events that
/// never holds more than one line in memory ([`TraceStream::for_each`]:
/// a few batches of events).
#[derive(Debug)]
pub struct TraceStream<R> {
    reader: BufReader<R>,
    line: Vec<u8>,
    /// Lines that failed to parse so far (counted, not fatal).
    pub bad_lines: u64,
}

impl TraceStream<std::fs::File> {
    /// Open `path` for streaming.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        Ok(TraceStream::new(std::fs::File::open(path)?))
    }
}

impl<R: Read> TraceStream<R> {
    /// Stream events from any reader.
    pub fn new(inner: R) -> Self {
        TraceStream {
            reader: BufReader::with_capacity(64 * 1024, inner),
            line: Vec::new(),
            bad_lines: 0,
        }
    }

    /// Next parsed event, skipping blank lines and counting bad ones.
    /// `Ok(None)` at end of input; I/O errors are returned to the
    /// caller.
    #[allow(clippy::should_implement_trait)] // fallible next: io::Result
    pub(crate) fn next(&mut self) -> std::io::Result<Option<TelemetryEvent>> {
        loop {
            self.line.clear();
            if self.reader.read_until(b'\n', &mut self.line)? == 0 {
                return Ok(None);
            }
            // A line without a trailing newline is a partial write at
            // the file's end (crash or in-progress append): parse it
            // like any other — at end-of-file it is all we will get.
            if let Some(event) = parse_line(&self.line, &mut self.bad_lines) {
                return Ok(Some(event));
            }
        }
    }

    /// Drain the stream through `f`, on the caller's thread and in file
    /// order, while a scoped reader thread reads and decodes ahead.
    /// Returns the bad-line count; an I/O error is returned after `f`
    /// has seen every event before it. The reader thread is joined
    /// before this returns, also when `f` panics.
    pub fn for_each<F: FnMut(TelemetryEvent)>(self, mut f: F) -> std::io::Result<u64>
    where
        R: Send,
    {
        let (to_caller, batches) = mpsc::sync_channel(READ_AHEAD);
        std::thread::scope(|scope| {
            let reader = scope.spawn(move || self.read_ahead(&to_caller));
            // If `f` panics, unwinding drops `batches` first, so a reader
            // blocked on a full queue wakes up and ends before the scope
            // joins it.
            for batch in batches {
                batch.into_iter().for_each(&mut f);
            }
            reader
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        })
    }

    /// The reader thread of `for_each`: decode batches into `to_caller`
    /// until end of input, an I/O error (sent after the events before
    /// it), or the caller hanging up.
    fn read_ahead(mut self, to_caller: &SyncSender<Vec<TelemetryEvent>>) -> std::io::Result<u64> {
        let mut batch = Vec::with_capacity(BATCH);
        let end = loop {
            match self.next() {
                Ok(Some(event)) => batch.push(event),
                end => break end.map(|_| self.bad_lines),
            }
            if batch.len() == BATCH {
                let full = std::mem::replace(&mut batch, Vec::with_capacity(BATCH));
                if to_caller.send(full).is_err() {
                    return Ok(self.bad_lines); // the caller unwound
                }
            }
        };
        let _ = to_caller.send(batch);
        end
    }
}

/// The tolerant-parsing policy on one line's bytes: a blank line is
/// nothing, an undecodable one (not UTF-8 included) is counted.
fn parse_line(line: &[u8], bad_lines: &mut u64) -> Option<TelemetryEvent> {
    let line = line.trim_ascii();
    if line.is_empty() {
        return None;
    }
    let event = TelemetryEvent::from_json_bytes(line);
    *bad_lines += event.is_err() as u64;
    event.ok()
}

/// Follow mode over an append-only JSONL file: yields complete lines as
/// they are written, holding any partial trailing line until its
/// newline arrives. [`TailStream::poll`] is non-blocking; the caller
/// owns the sleep/stop policy (ctrl-C, quiesce detection).
#[derive(Debug)]
pub struct TailStream {
    file: std::fs::File,
    partial: Vec<u8>,
    /// Lines that failed to parse so far (counted, not fatal).
    pub bad_lines: u64,
}

impl TailStream {
    /// Open `path` for following, starting at the beginning.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        Ok(TailStream {
            file: std::fs::File::open(path)?,
            partial: Vec::new(),
            bad_lines: 0,
        })
    }

    /// Read whatever has been appended since the last poll and parse
    /// every *complete* line in it. Returns the parsed events (empty
    /// when nothing new arrived).
    pub fn poll(&mut self) -> std::io::Result<Vec<TelemetryEvent>> {
        let mut buf = [0u8; 64 * 1024];
        let mut out = Vec::new();
        loop {
            let n = self.file.read(&mut buf)?;
            if n == 0 {
                break;
            }
            let mut lines = buf[..n].split(|&b| b == b'\n');
            let tail = lines.next_back().expect("split yields at least one piece");
            for head in lines {
                self.partial.extend_from_slice(head);
                out.extend(parse_line(&self.partial, &mut self.bad_lines));
                self.partial.clear();
            }
            self.partial.extend_from_slice(tail);
        }
        Ok(out)
    }
}

/// The warning a reader owes for `event` if it is a stream header this
/// build does not know: a `schema` line naming an unknown schema, or a
/// metrics or profile header newer than this build. Readers warn and
/// read on, so a newer export is flagged instead of silently misparsed.
pub fn schema_warning(event: &TelemetryEvent) -> Option<String> {
    const KNOWN: [&str; 4] = [
        TRACE_SCHEMA,
        SPANS_SCHEMA,
        PROFILE_SCHEMA,
        PROFILE_SCHEMA_V1,
    ];
    let (stream, version, known) = match event {
        TelemetryEvent::Schema { schema } if !KNOWN.contains(&schema.as_str()) => {
            return Some(format!(
                "unknown schema '{schema}' (this build understands {TRACE_SCHEMA}, \
                 {SPANS_SCHEMA}, {PROFILE_SCHEMA}); fields may be misread"
            ));
        }
        TelemetryEvent::MetricsMeta { version, .. } => ("metrics", version, METRICS_SCHEMA_VERSION),
        TelemetryEvent::ProfileMeta { version, .. } => ("profile", version, PROFILE_SCHEMA_VERSION),
        _ => return None,
    };
    (*version > known).then(|| {
        format!(
            "{stream} schema v{version} is newer than this build (v{known}); fields may be misread"
        )
    })
}

/// Open a streaming reader over `path` (the constant-memory path the
/// CLI tools use).
pub fn stream_trace(path: &Path) -> std::io::Result<TraceStream<std::fs::File>> {
    TraceStream::open(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn schema_warning_flags_unknown_and_newer_headers() {
        let warning = |line: &str| schema_warning(&TelemetryEvent::from_json_line(line).unwrap());
        let newer_metrics = warning(r#"{"type":"metrics_meta","version":4,"interval_ns":0}"#);
        assert!(newer_metrics
            .unwrap()
            .contains("metrics schema v4 is newer"));
        let newer_profile =
            warning(r#"{"type":"profile_meta","version":3,"substrate":"sim","wall_ns":1}"#);
        assert!(newer_profile
            .unwrap()
            .contains("profile schema v3 is newer"));
        let unknown = warning(r#"{"type":"schema","schema":"sg-trace/v9"}"#);
        assert!(unknown.unwrap().contains("unknown schema 'sg-trace/v9'"));
        for known in [
            r#"{"type":"schema","schema":"sg-spans/v1"}"#,
            r#"{"type":"metrics_meta","version":3,"interval_ns":0}"#,
            r#"{"type":"profile_meta","version":1,"substrate":"live","wall_ns":1}"#,
            r#"{"type":"dropped","count":4}"#,
        ] {
            assert_eq!(warning(known), None, "{known}");
        }
    }

    #[test]
    fn reads_good_lines_and_counts_bad_ones() {
        let path =
            std::env::temp_dir().join(format!("sg-telemetry-reader-{}.jsonl", std::process::id()));
        {
            let mut f = std::fs::File::create(&path).unwrap();
            writeln!(f, "{{\"type\":\"dropped\",\"count\":4}}").unwrap();
            writeln!(f).unwrap(); // blank: skipped
            writeln!(f, "{{\"type\":\"dro").unwrap(); // truncated: counted
            f.write_all(b"{\"type\":\"dro\xff\xfe\n").unwrap(); // not UTF-8: counted, not fatal
            writeln!(
                f,
                "{{\"type\":\"dropped\",\"count\":5,\"family\":\"metrics\"}}"
            )
            .unwrap();
        }
        let mut events = Vec::new();
        let bad_lines = stream_trace(&path)
            .unwrap()
            .for_each(|event| events.push(event))
            .unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(bad_lines, 2);
        assert!(matches!(
            events[0],
            TelemetryEvent::Dropped { count: 4, .. }
        ));
        assert!(matches!(
            events[1],
            TelemetryEvent::Dropped { count: 5, .. }
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        assert!(stream_trace(Path::new("/nonexistent/trace.jsonl")).is_err());
    }

    #[test]
    fn stream_yields_one_event_at_a_time() {
        let input = "{\"type\":\"dropped\",\"count\":1}\n\nbad\n{\"type\":\"dropped\",\"count\":2}";
        let mut stream = TraceStream::new(input.as_bytes());
        assert!(matches!(
            stream.next().unwrap(),
            Some(TelemetryEvent::Dropped { count: 1, .. })
        ));
        // Skips the blank and the bad line; the final unterminated line
        // still parses at end-of-file.
        assert!(matches!(
            stream.next().unwrap(),
            Some(TelemetryEvent::Dropped { count: 2, .. })
        ));
        assert!(stream.next().unwrap().is_none());
        assert_eq!(stream.bad_lines, 1);
    }

    /// The wire fixture repeated over many batches, with blank, truncated
    /// and non-UTF-8 lines mixed in.
    fn long_trace() -> Vec<u8> {
        let fixture = include_str!("../tests/fixtures/wire_v1.jsonl");
        let mut text = Vec::new();
        for _ in 0..120 {
            text.extend_from_slice(fixture.as_bytes());
            text.extend_from_slice(b"\n  \n{\"type\":\"dro\n{\"type\":\"dro\xff\xfe\n");
        }
        text
    }

    fn next_loop(input: &[u8]) -> (Vec<TelemetryEvent>, u64) {
        let mut stream = TraceStream::new(input);
        let mut events = Vec::new();
        while let Some(event) = stream.next().unwrap() {
            events.push(event);
        }
        (events, stream.bad_lines)
    }

    #[test]
    fn for_each_yields_what_a_next_loop_yields() {
        let text = long_trace();
        let (expected, expected_bad) = next_loop(&text);
        assert!(expected.len() > (READ_AHEAD + 2) * BATCH);
        assert_eq!(expected_bad, 240);
        let mut events = Vec::new();
        let bad = TraceStream::new(&text[..])
            .for_each(|event| events.push(event))
            .unwrap();
        assert_eq!(events, expected);
        assert_eq!(bad, expected_bad);
    }

    /// Serves its bytes, then fails every read.
    struct FailsAfter<'a>(&'a [u8]);

    impl Read for FailsAfter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.is_empty() {
                true => Err(std::io::Error::other("disk on fire")),
                false => self.0.read(buf),
            }
        }
    }

    #[test]
    fn io_error_reaches_the_caller_after_the_events_before_it() {
        let text = long_trace();
        let (expected, _) = next_loop(&text);
        let mut events = Vec::new();
        let err = TraceStream::new(FailsAfter(&text))
            .for_each(|event| events.push(event))
            .unwrap_err();
        assert_eq!(err.to_string(), "disk on fire");
        assert_eq!(events, expected);
    }

    #[test]
    fn panicking_callback_unwinds_without_hanging_the_reader() {
        let text = long_trace();
        let mut seen = 0;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            TraceStream::new(&text[..]).for_each(|_| {
                seen += 1;
                assert!(seen < 3, "callback fails on the third event");
            })
        }));
        assert!(result.is_err(), "the callback's panic propagates");
        assert_eq!(seen, 3);
    }

    #[test]
    fn tail_holds_partial_lines_until_newline() {
        let path =
            std::env::temp_dir().join(format!("sg-telemetry-tail-{}.jsonl", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        let mut tail = TailStream::open(&path).unwrap();
        assert!(tail.poll().unwrap().is_empty());

        write!(f, "{{\"type\":\"dropped\",").unwrap();
        f.flush().unwrap();
        // Half a line: nothing yielded yet.
        assert!(tail.poll().unwrap().is_empty());

        writeln!(f, "\"count\":3}}").unwrap();
        f.write_all(b"{\"type\":\"dro\xff\xfe\n\n").unwrap(); // counted; blank skipped
        write!(f, "{{\"type\":\"dropped\",\"count\":4}}\n{{\"type\":").unwrap();
        f.flush().unwrap();
        let events = tail.poll().unwrap();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[0],
            TelemetryEvent::Dropped { count: 3, .. }
        ));
        assert!(matches!(
            events[1],
            TelemetryEvent::Dropped { count: 4, .. }
        ));
        assert_eq!(tail.bad_lines, 1);
        // The new half line is held like the first one was.
        writeln!(f, "\"dropped\",\"count\":5}}").unwrap();
        f.flush().unwrap();
        assert!(matches!(
            tail.poll().unwrap()[..],
            [TelemetryEvent::Dropped { count: 5, .. }]
        ));
        let _ = std::fs::remove_file(&path);
    }
}
