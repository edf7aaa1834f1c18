//! The harness's own tracing: spans around the calls it makes into each
//! layer, and lock-free histograms for the per-call wrappers.
//!
//! Spans carry name, start, end and parent, stay in memory, and are
//! written as JSONL when the run ends. A layer's self time is its
//! span's duration minus the part its child spans cover. With tracing
//! off `span` still returns the elapsed time (two clock reads) but
//! records nothing, so end-to-end numbers never pay for the trace.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder for the single harness thread.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Run `f` as a span named `name`, nested under the span that is
    /// open now. Returns `f`'s result and its duration in nanoseconds.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, u64) {
        if !self.enabled {
            let t0 = Instant::now();
            let r = f(self);
            return (r, t0.elapsed().as_nanos() as u64);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans[id as usize].end_ns = end_ns;
        (r, end_ns - start_ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Duration of `span` minus what its direct children cover.
    pub fn self_ns(&self, span: &Span) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(span.id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// One JSON object per span: name, start, end, self time, parent and
    /// the workload the spans belong to.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(s)
            )?;
        }
        out.flush()
    }
}

/// Sub-buckets per power of two: 1/8 of an octave, ≤ 12.5 % wide.
const SUB: usize = 8;
const BUCKETS: usize = 64 * SUB;

/// Histogram of nanosecond durations that any thread may record into
/// without a lock — the wrappers sit on per-packet paths of the live
/// substrate. `Relaxed` everywhere: the counters publish no other data
/// and are read only after the recording threads are joined.
pub struct NsHist {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for NsHist {
    fn default() -> Self {
        NsHist {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros() as usize;
    let sub = ((ns >> (octave - 3)) & (SUB as u64 - 1)) as usize;
    (octave - 2) * SUB + sub
}

/// Upper edge of bucket `idx` (the value reported for a percentile).
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let octave = idx / SUB + 2;
    let sub = (idx % SUB) as u64;
    ((SUB as u64 + sub + 1) << (octave - 3)) - 1
}

impl NsHist {
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_of(ns).min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum_ns(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Upper edge of the bucket holding percentile `q`; 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q / 100.0) * n as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper(idx);
            }
        }
        bucket_upper(BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let outer = spans[0].end_ns - spans[0].start_ns;
        let inner = t.total_ns("inner");
        assert!(inner >= 2_000_000);
        assert_eq!(t.self_ns(&spans[0]), outer - inner);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, ns) = t.span("x", |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            7
        });
        assert_eq!(v, 7);
        assert!(ns >= 1_000_000);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn histogram_buckets_are_monotone_and_tight() {
        let mut last = 0;
        for ns in [
            0u64,
            1,
            7,
            8,
            9,
            15,
            16,
            100,
            1_000,
            123_456,
            10_000_000_000,
        ] {
            let b = bucket_of(ns);
            assert!(b >= last, "bucket order at {ns}");
            last = b;
            let upper = bucket_upper(b);
            assert!(upper >= ns, "upper edge {upper} below {ns}");
            assert!(
                upper as f64 <= ns as f64 * 1.125 + 1.0,
                "bucket too wide at {ns}"
            );
        }
    }

    #[test]
    fn histogram_percentiles() {
        let h = NsHist::default();
        assert_eq!(h.percentile(50.0), 0);
        for ns in 1..=1000u64 {
            h.record(ns);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum_ns(), 500_500);
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        assert!((500..=563).contains(&p50), "p50 {p50}");
        assert!((990..=1114).contains(&p99), "p99 {p99}");
    }
}
