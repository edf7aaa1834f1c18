//! Shared JSONL trace reading for the CLI tools.
//!
//! `sg-trace` and `sg-timeline` consume the same wire format; this
//! module is the single open-and-parse loop both binaries use, so the
//! tolerant-parsing policy (skip blank lines, count — don't fail on —
//! unparseable ones) lives in exactly one place. A trace truncated by a
//! crash should still summarize.
//!
//! Reading is **streaming**: [`TraceStream`] yields one event at a time
//! from a buffered reader, so a multi-gigabyte `cluster_scale` export
//! summarizes in constant memory. [`read_trace`] (collect everything)
//! is a convenience built on top for the small-trace paths that really
//! do need the whole file. [`TailStream`] adds a follow mode
//! (`tail -f` semantics: poll for appended lines, hold partial trailing
//! lines until their newline arrives) used by `sg-trace watch --tail`.

use crate::event::TelemetryEvent;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

/// A fully parsed trace file.
#[derive(Debug, Default)]
pub struct TraceFile {
    /// Parsed events, in file order.
    pub events: Vec<TelemetryEvent>,
    /// Lines that failed to parse (counted, not fatal).
    pub bad_lines: u64,
}

/// Streaming JSONL event reader: an iterator over parsed events that
/// never holds more than one line in memory.
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
    pub fn next(&mut self) -> std::io::Result<Option<TelemetryEvent>> {
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

    /// Drain the stream through `f`. Returns the bad-line count.
    pub fn for_each<F: FnMut(TelemetryEvent)>(mut self, mut f: F) -> std::io::Result<u64> {
        while let Some(event) = self.next()? {
            f(event);
        }
        Ok(self.bad_lines)
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

/// Open a streaming reader over `path` (the constant-memory path the
/// CLI tools use).
pub fn stream_trace(path: &Path) -> std::io::Result<TraceStream<std::fs::File>> {
    TraceStream::open(path)
}

/// Read a whole JSONL trace from `path` into memory. Blank lines are
/// skipped; lines that fail to parse are counted in
/// [`TraceFile::bad_lines`]. I/O errors (missing file, read failure)
/// are returned to the caller. Prefer [`stream_trace`] for anything
/// that can be folded incrementally — cluster-scale exports do not fit
/// in memory.
pub fn read_trace(path: &Path) -> std::io::Result<TraceFile> {
    let mut stream = stream_trace(path)?;
    let mut out = TraceFile::default();
    while let Some(event) = stream.next()? {
        out.events.push(event);
    }
    out.bad_lines = stream.bad_lines;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

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
        let trace = read_trace(&path).unwrap();
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.bad_lines, 2);
        assert!(matches!(
            trace.events[0],
            TelemetryEvent::Dropped { count: 4, .. }
        ));
        assert!(matches!(
            trace.events[1],
            TelemetryEvent::Dropped { count: 5, .. }
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        assert!(read_trace(Path::new("/nonexistent/trace.jsonl")).is_err());
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
