//! Shared JSONL trace reading for the CLI tools.
//!
//! Every `sg-trace` mode consumes the same wire format; this module is
//! the single open-and-parse loop they all use, so the
//! tolerant-parsing policy (skip blank lines, count — don't fail on —
//! unparseable ones) lives in exactly one place. A trace truncated by a
//! crash should still summarize.
//!
//! Reading is **streaming**: [`TraceStream::for_each`] holds a bounded
//! number of blocks in memory, so a multi-gigabyte `cluster_scale`
//! export summarizes in constant memory. A reader thread cuts the input
//! into blocks of whole lines, which it and, given a second CPU, the
//! caller decode, while the callback sees the events in file order on
//! the caller's thread. [`TailStream`] adds a follow mode (`tail -f`
//! semantics: poll for appended lines, hold partial trailing lines
//! until their newline arrives) used by `sg-trace watch --tail`.

use crate::event::{TelemetryEvent, SPANS_SCHEMA, TRACE_SCHEMA};
use crate::metrics::METRICS_SCHEMA_VERSION;
use crate::profile::{PROFILE_SCHEMA, PROFILE_SCHEMA_V1, PROFILE_SCHEMA_VERSION};
use std::io::{BufRead, Read};
use std::path::Path;
use std::sync::mpsc::{self, SyncSender, TrySendError};

/// Bytes the reader thread reads into one block before it cuts the
/// block after its last newline. Small, so what is in flight stays
/// small; a longer line makes its block longer.
const BLOCK: usize = 64 * 1024;
/// Blocks on their way to the caller, at most.
const QUEUE: usize = 4;

/// Streaming JSONL event reader over any [`Read`]; see
/// [`TraceStream::for_each`].
#[derive(Debug)]
pub struct TraceStream<R> {
    inner: R,
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
        TraceStream { inner }
    }

    /// Drain the stream through `f`, on the caller's thread and in file
    /// order. A scoped reader thread cuts the input into blocks of whole
    /// lines. Given a second CPU ([`std::thread::available_parallelism`]),
    /// each block goes raw to the caller, who decodes it, when the
    /// caller's queue has room, and is else decoded on the reader thread;
    /// with one CPU the reader thread decodes everything. Returns the
    /// bad-line count; an I/O error is returned after `f` has seen every
    /// event before it. The reader thread is joined before this returns,
    /// also when `f` panics.
    pub fn for_each<F: FnMut(TelemetryEvent)>(self, f: F) -> std::io::Result<u64>
    where
        R: Send,
    {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.for_each_on(cpus > 1, BLOCK, f)
    }

    /// [`Self::for_each`], with the caller decoding blocks or not, and
    /// cutting blocks after `block` bytes.
    fn for_each_on<F: FnMut(TelemetryEvent)>(
        self,
        caller_decodes: bool,
        block: usize,
        mut f: F,
    ) -> std::io::Result<u64>
    where
        R: Send,
    {
        std::thread::scope(|scope| {
            let (to_caller, blocks) = mpsc::sync_channel(QUEUE);
            let reader = scope.spawn(move || self.deal(block, caller_decodes, &to_caller));
            // The blocks come in file order. When `f` panics, dropping
            // `blocks` wakes a reader thread blocked on a full queue; it
            // ends before the scope joins it.
            let mut bad_lines = 0;
            for block in blocks {
                match block {
                    Block::Raw(block) => bad_lines += decode(&block, &mut f),
                    Block::Decoded { events, bad } => {
                        bad_lines += bad;
                        events.into_iter().for_each(&mut f);
                    }
                }
            }
            let end = reader.join();
            end.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                .map(|()| bad_lines)
        })
    }

    /// The reader thread: cut the input into blocks of whole lines and
    /// hand each one over. Ends at end of input, at an I/O error
    /// (returned once the whole lines read before it are handed over),
    /// or when the caller hangs up.
    fn deal(
        mut self,
        size: usize,
        caller_decodes: bool,
        to_caller: &SyncSender<Block>,
    ) -> std::io::Result<()> {
        let mut carry = Vec::new();
        loop {
            let mut block = Vec::with_capacity(size + carry.len());
            block.append(&mut carry);
            // `carry` holds no newline, so each read need only be searched
            // from where the one before it ended.
            let (cut, end) = loop {
                let searched = block.len();
                let read = (&mut self.inner).take(size as u64).read_to_end(&mut block);
                let newline = block[searched..].iter().rposition(|&b| b == b'\n');
                let cut = newline.map_or(0, |i| searched + i + 1);
                match read {
                    // A last line without a newline is a partial write at
                    // the file's end (crash or in-progress append): parse it
                    // like any other — it is all we will get.
                    Ok(n) if n < size => break (block.len(), Some(Ok(()))),
                    Ok(_) if cut > 0 => break (cut, None),
                    Ok(_) => {}
                    Err(e) => break (cut, Some(Err(e))),
                }
            };
            carry = block.split_off(cut);
            if !block.is_empty() && hand(to_caller, caller_decodes, block).is_err() {
                return Ok(()); // the caller unwound
            }
            if let Some(end) = end {
                return end;
            }
        }
    }
}

/// A block on its way to the caller.
enum Block {
    /// For the caller to decode.
    Raw(Vec<u8>),
    /// Decoded by the reader thread: its events in file order, and its
    /// count of bad lines.
    Decoded {
        events: Vec<TelemetryEvent>,
        bad: u64,
    },
}

/// Hand `block` to the caller: raw if the caller decodes and its queue
/// has room, else decoded on this thread. `Err` when the caller has
/// hung up.
fn hand(to_caller: &SyncSender<Block>, caller_decodes: bool, block: Vec<u8>) -> Result<(), ()> {
    let block = match caller_decodes {
        true => match to_caller.try_send(Block::Raw(block)) {
            Ok(()) => return Ok(()),
            Err(TrySendError::Full(Block::Raw(block))) => block,
            Err(_) => return Err(()),
        },
        false => block,
    };
    let mut events = Vec::with_capacity(block.len() / 200 + 1);
    let bad = decode(&block, |event| events.push(event));
    to_caller.send(Block::Decoded { events, bad }).map_err(drop)
}

/// Decode a block of lines in order into `f`; returns the bad-line count.
fn decode(mut block: &[u8], mut f: impl FnMut(TelemetryEvent)) -> u64 {
    let mut bad_lines = 0;
    while !block.is_empty() {
        let line = block;
        let len = block
            .skip_until(b'\n')
            .expect("a slice reads without error");
        if let Some(event) = parse_line(&line[..len], &mut bad_lines) {
            f(event);
        }
    }
    bad_lines
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
    use proptest::prelude::*;
    use std::io::Write;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

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
        let mut events = Vec::new();
        let bad = TraceStream::new(input.as_bytes())
            .for_each(|event| events.push(event))
            .unwrap();
        // Skips the blank and the bad line; the final unterminated line
        // still parses at end-of-file.
        assert!(matches!(
            events[..],
            [
                TelemetryEvent::Dropped { count: 1, .. },
                TelemetryEvent::Dropped { count: 2, .. }
            ]
        ));
        assert_eq!(bad, 1);
    }

    /// What a read returns: each event encoded, in order, then the
    /// bad-line count or the I/O error's message.
    type Outcome = (Vec<String>, Result<u64, String>);

    /// The reference reader: one line at a time through `read_until`,
    /// blank lines skipped, each other line decoded by `from_json_bytes`
    /// and counted if that fails. `for_each` must read what this reads.
    fn line_by_line(input: impl Read) -> Outcome {
        let mut reader = std::io::BufReader::new(input);
        let (mut events, mut bad, mut line) = (Vec::new(), 0, Vec::new());
        loop {
            line.clear();
            match reader.read_until(b'\n', &mut line) {
                Ok(0) => return (events, Ok(bad)),
                Ok(_) => {}
                Err(e) => return (events, Err(e.to_string())),
            }
            let line = line.trim_ascii();
            if !line.is_empty() {
                match TelemetryEvent::from_json_bytes(line) {
                    Ok(event) => events.push(event.to_json_line()),
                    Err(_) => bad += 1,
                }
            }
        }
    }

    /// `for_each` with the caller decoding blocks or not, and blocks cut
    /// after `block` bytes.
    fn blockwise(input: impl Read + Send, caller_decodes: bool, block: usize) -> Outcome {
        let mut events = Vec::new();
        let end = TraceStream::new(input).for_each_on(caller_decodes, block, |event| {
            events.push(event.to_json_line())
        });
        (events, end.map_err(|e| e.to_string()))
    }

    const FIXTURE: &str = include_str!("../tests/fixtures/wire_v1.jsonl");

    /// One line of test input picked by `word`: a fixture line (every
    /// event type; LF or CRLF), a blank, a truncated line, a line with
    /// bad UTF-8 inside a string value, inside a skipped member or
    /// outside any string, one with good non-ASCII text, or a line of
    /// about 1 KiB.
    fn line(word: u64) -> Vec<u8> {
        let fixture: Vec<&str> = FIXTURE.lines().collect();
        let good = fixture[(word >> 8) as usize % fixture.len()].as_bytes();
        let mut line = match (word & 0xff) % 12 {
            0..=3 => good.to_vec(),
            4 => [good, b"\r"].concat(),
            5 => [&b""[..], b"  ", b"\r", b"\t "][(word >> 8) as usize % 4].to_vec(),
            6 => good[..(word >> 16) as usize % good.len()].to_vec(),
            7 => b"{\"type\":\"fault\",\"at_ns\":1,\"fault\":\"crash\",\"target\":\"svc:\xff1\",\"active\":true}".to_vec(),
            8 => b"{\"type\":\"dropped\",\"count\":4,\"x\":[\"\xfe\xff\"]}".to_vec(),
            9 => b"{\"type\":\"dropped\",\xff\"count\":4}".to_vec(),
            10 => "{\"type\":\"fault\",\"at_ns\":1,\"fault\":\"crash\",\"target\":\"svc:é\",\"active\":true}".into(),
            _ => format!(
                "{{\"type\":\"dropped\",\"count\":{},\"pad\":\"{}\"}}",
                word >> 40,
                "x".repeat(1000 + (word >> 20) as usize % 64)
            )
            .into(),
        };
        line.push(b'\n');
        line
    }

    /// Lines picked by `words`; the last one's newline dropped if
    /// `unterminated`.
    fn input(words: &[u64], unterminated: bool) -> Vec<u8> {
        let mut text: Vec<u8> = words.iter().flat_map(|&w| line(w)).collect();
        if unterminated {
            text.pop();
        }
        text
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn for_each_reads_what_a_line_reader_reads(
            words in prop::collection::vec(any::<u64>(), 0..80),
            unterminated in any::<bool>(),
            caller_decodes in any::<bool>(),
            block in 1usize..1500,
        ) {
            let text = input(&words, unterminated);
            prop_assert_eq!(blockwise(&text[..], caller_decodes, block), line_by_line(&text[..]));
        }
    }

    #[test]
    fn block_boundaries_fall_at_every_offset_of_a_short_file() {
        let text = input(
            &[0, 0x104, 5, 6 << 16 | 6, 7, 8, 9, 10, 0x204, 3 << 8],
            true,
        );
        let expected = line_by_line(&text[..]);
        assert_eq!(expected.0.len(), 5);
        assert_eq!(expected.1, Ok(4));
        for caller_decodes in [false, true] {
            for block in 1..=text.len() + 1 {
                let got = blockwise(&text[..], caller_decodes, block);
                assert_eq!(
                    got, expected,
                    "caller decodes: {caller_decodes}, {block} B blocks"
                );
            }
        }
    }

    #[test]
    fn a_line_longer_than_a_block_is_read_whole() {
        let long = format!(
            "{{\"type\":\"dropped\",\"count\":7,\"pad\":\"{}\"}}\n",
            "y".repeat(2 * BLOCK + 17)
        );
        let text = [FIXTURE, &long, FIXTURE, &long].concat();
        let expected = line_by_line(text.as_bytes());
        assert!(expected
            .0
            .contains(&"{\"type\":\"dropped\",\"count\":7}".to_string()));
        for caller_decodes in [false, true] {
            assert_eq!(blockwise(text.as_bytes(), caller_decodes, BLOCK), expected);
        }
        let mut events = 0;
        let bad = TraceStream::new(text.as_bytes())
            .for_each(|_| events += 1)
            .unwrap();
        assert_eq!((events, Ok(bad)), (expected.0.len(), expected.1));
    }

    /// The wire fixture repeated over many blocks, with blank, truncated
    /// and non-UTF-8 lines mixed in.
    fn long_trace() -> Vec<u8> {
        let mut text = Vec::new();
        for _ in 0..120 {
            text.extend_from_slice(FIXTURE.as_bytes());
            text.extend_from_slice(b"\n  \n{\"type\":\"dro\n{\"type\":\"dro\xff\xfe\n");
        }
        text
    }

    #[test]
    fn for_each_yields_what_a_next_loop_yields() {
        let text = long_trace();
        let expected = line_by_line(&text[..]);
        assert!(text.len() > 3 * BLOCK);
        assert_eq!(expected.1, Ok(240));
        let mut events = Vec::new();
        let bad = TraceStream::new(&text[..])
            .for_each(|event| events.push(event.to_json_line()))
            .unwrap();
        assert_eq!((events, Ok(bad)), expected);
    }

    /// Serves the first `.1` bytes of `.0`, then fails every read.
    struct FailsAfter<'a>(&'a [u8], usize);

    impl Read for FailsAfter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.1);
            let n = self.0.read(&mut buf[..n])?;
            self.1 -= n;
            match n {
                0 if !buf.is_empty() => Err(std::io::Error::other("disk on fire")),
                n => Ok(n),
            }
        }
    }

    #[test]
    fn io_error_reaches_the_caller_after_the_events_before_it() {
        let text = long_trace();
        let line_end = text.iter().position(|&b| b == b'\n').unwrap() + 1;
        let ends = [
            0,
            1,
            line_end - 1,
            line_end,
            BLOCK + 5,
            2 * BLOCK,
            text.len(),
        ];
        for end in ends {
            let expected = line_by_line(FailsAfter(&text, end));
            assert_eq!(expected.1, Err("disk on fire".to_string()));
            for (caller_decodes, block) in [(false, BLOCK), (true, BLOCK), (true, 4096), (true, 7)]
            {
                let got = blockwise(FailsAfter(&text, end), caller_decodes, block);
                assert_eq!(
                    got, expected,
                    "fails after {end} B, caller decodes: {caller_decodes}"
                );
            }
        }
    }

    /// Serves `.0` and raises `.1` when dropped: the reader thread, which
    /// owns it, has ended.
    struct Watched<'a>(&'a [u8], Arc<AtomicBool>);

    impl Read for Watched<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.0.read(buf)
        }
    }

    impl Drop for Watched<'_> {
        fn drop(&mut self) {
            self.1.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn panicking_callback_unwinds_without_hanging_the_reader() {
        let text = long_trace();
        let events = line_by_line(&text[..]).0.len();
        for caller_decodes in [false, true] {
            for fails_at in [1, 3, 1000, events] {
                let ended = Arc::new(AtomicBool::new(false));
                let input = Watched(&text, ended.clone());
                let mut seen = 0;
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    TraceStream::new(input).for_each_on(caller_decodes, 4096, |_| {
                        seen += 1;
                        assert!(seen < fails_at, "callback fails on event {fails_at}");
                    })
                }));
                assert!(result.is_err(), "the callback's panic propagates");
                assert_eq!(seen, fails_at);
                assert!(ended.load(Ordering::SeqCst), "the reader thread ended");
            }
        }
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
