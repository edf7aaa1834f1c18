//! Per-request distributed tracing: span records and deterministic
//! sampling.
//!
//! A traced request produces one *span tree* over its RPC call graph:
//! a synthetic root "request" span covering `[client send, client
//! delivery]` (no container), plus one hop span per service invocation
//! covering `[rx-hook arrival, response send]`. Every hop span carries
//! the latency decomposition the critical-path analyzer needs —
//! inbound network delay, the connection-pool wait its parent endured
//! to issue the RPC, local service time, the downstream-RPC window —
//! and the frequency/slack state the rx hook observed on entry.
//!
//! Attribution convention: a hop's `conn_wait` is the time the request
//! spent in its **parent's** connection-pool queue waiting for this RPC
//! to be issued. Stamping it on the *callee* span is what lets the
//! analyzer charge threadpool queueing to the container that caused it
//! (the paper's Fig. 5b inversion) instead of the upstream container
//! where the waiting is observed.

use sg_core::ids::{ContainerId, NodeId};
use sg_core::slack::EntryAnnotation;
use sg_core::time::{SimDuration, SimTime};

/// One span of a traced request, as recorded by either substrate.
///
/// The root request span has `parent`, `container` and `node` all unset
/// and its whole duration summarized in `downstream`; hop spans set all
/// three and decompose into `net_in + conn_wait` (before `start`) and
/// `service + downstream` (inside `[start, end]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Trace id: the request's injection index (0-based).
    pub trace: u64,
    /// Span id, unique within the run.
    pub span: u64,
    /// Parent span id; `None` for the root request span.
    pub parent: Option<u64>,
    /// Executing container; `None` for the root request span.
    pub container: Option<ContainerId>,
    /// Node of the executing container; `None` for the root request span.
    pub node: Option<NodeId>,
    /// Span open: rx-hook arrival (hops) or client send (root).
    pub start: SimTime,
    /// Span close: response send (hops) or client delivery (root).
    pub end: SimTime,
    /// Network delay from the sender to this hop (before `start`).
    pub net_in: SimDuration,
    /// Time spent queued in the parent's connection pool before this RPC
    /// could be issued (before `start`; the hidden threadpool queue).
    pub conn_wait: SimDuration,
    /// Local CPU work: pre-call plus post-call slices.
    pub service: SimDuration,
    /// The downstream window: from end of pre-call work to start of
    /// post-call work (child pool waits, child RPCs, networks). For the
    /// root request span this is the end-to-end latency.
    pub downstream: SimDuration,
    /// DVFS level the container ran at when the request arrived.
    pub freq_level: u8,
    /// Per-packet slack the rx hook saw on entry (negative = lagging).
    pub slack_ns: i64,
}

impl SpanRecord {
    /// The record of a finished hop that ran `span` on `container` from
    /// rx-hook arrival `start` to response send `end`.
    pub fn hop(
        span: &HopSpan,
        container: ContainerId,
        node: NodeId,
        start: SimTime,
        end: SimTime,
    ) -> Self {
        SpanRecord {
            trace: span.trace,
            span: span.id,
            parent: Some(span.parent),
            container: Some(container),
            node: Some(node),
            start,
            end,
            net_in: start.saturating_since(span.sent_at),
            conn_wait: span.issue_wait,
            service: span.pre_done.saturating_since(start) + end.saturating_since(span.post_start),
            downstream: span.post_start.saturating_since(span.pre_done),
            freq_level: span.entry.freq_level,
            slack_ns: span.entry.slack_ns,
        }
    }

    /// The synthetic root "request" span `span` of trace `trace`: client
    /// send `start` to client delivery `end`, its whole duration in
    /// `downstream`.
    pub fn request(trace: u64, span: u64, start: SimTime, end: SimTime) -> Self {
        SpanRecord {
            trace,
            span,
            parent: None,
            container: None,
            node: None,
            start,
            end,
            net_in: SimDuration::ZERO,
            conn_wait: SimDuration::ZERO,
            service: SimDuration::ZERO,
            downstream: end.saturating_since(start),
            freq_level: 0,
            slack_ns: 0,
        }
    }

    /// Wall-clock duration of the span.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }

    /// True for the synthetic root request span.
    pub fn is_root(&self) -> bool {
        self.parent.is_none()
    }
}

/// Tracing context a sampled request carries from its caller to the hop
/// that serves it, then through that hop's execution: everything its
/// [`SpanRecord::hop`] needs that the substrate does not already hold.
#[derive(Debug, Clone, Copy)]
pub struct HopSpan {
    /// Trace id (the request's injection index).
    pub trace: u64,
    /// This hop's span id.
    pub id: u64,
    /// Span id of the calling hop (the root request span for the
    /// frontend hop).
    pub parent: u64,
    /// When the caller put the request on the wire.
    pub sent_at: SimTime,
    /// Time the caller waited on its connection pool to issue this RPC
    /// (the hidden-threadpool queue, charged to this hop).
    pub issue_wait: SimDuration,
    /// End of the pre-call work slice.
    pub pre_done: SimTime,
    /// Start of the post-call work slice.
    pub post_start: SimTime,
    /// What the rx hook saw on entry: slack and the pre-boost DVFS level.
    pub entry: EntryAnnotation,
}

impl HopSpan {
    /// A hop's context as its caller sends it, after `waited` on its
    /// pool; the work-slice bounds and the entry stamp are filled in as
    /// the hop runs.
    pub fn new(trace: u64, id: u64, parent: u64, sent_at: SimTime, waited: SimDuration) -> Self {
        HopSpan {
            trace,
            id,
            parent,
            sent_at,
            issue_wait: waited,
            pre_done: SimTime::ZERO,
            post_start: SimTime::ZERO,
            entry: EntryAnnotation::default(),
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic N-out-of-M trace sampler.
///
/// Uses an exact Bresenham spacing — trace `i` is sampled iff
/// `floor((i+p+1)·n/m) > floor((i+p)·n/m)` with a seed-derived phase
/// `p` — so the realized rate over *any* window of `L` consecutive
/// trace ids is within ±1 of `L·n/m`, and the same seed reproduces the
/// same selection bit-for-bit on every run and substrate.
///
/// # Example
///
/// ```
/// use sg_telemetry::SpanSampler;
///
/// let s = SpanSampler::rate(1, 8, 42);
/// // Exactly 1-in-8 over any span-aligned window, regardless of seed:
/// let sampled = (0..8_000u64).filter(|&t| s.sampled(t)).count();
/// assert_eq!(sampled, 1_000);
/// // Same seed, same selection — reproducible across runs/substrates:
/// assert_eq!(s, SpanSampler::rate(1, 8, 42));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSampler {
    n: u64,
    m: u64,
    phase: u64,
}

impl SpanSampler {
    /// Sample every request (the default for short runs and tests).
    pub fn all() -> Self {
        SpanSampler {
            n: 1,
            m: 1,
            phase: 0,
        }
    }

    /// Sample `n` out of every `m` requests, with the selection phase
    /// derived from `seed`. Requires `1 <= m` and `n <= m`.
    pub fn rate(n: u64, m: u64, seed: u64) -> Self {
        assert!(m >= 1, "sampling denominator must be at least 1");
        assert!(n <= m, "cannot sample more than m out of m");
        SpanSampler {
            n,
            m,
            phase: splitmix64(seed) % m,
        }
    }

    /// Should the request with this trace id be traced?
    #[inline]
    pub fn sampled(&self, trace: u64) -> bool {
        if self.n == self.m {
            return true;
        }
        if self.n == 0 {
            return false;
        }
        let i = trace as u128 + self.phase as u128;
        let n = self.n as u128;
        let m = self.m as u128;
        (i + 1) * n / m > i * n / m
    }

    /// Parse a `N/M` ratio string (e.g. `"1/8"`); plain `N` means `N/N`
    /// (sample everything).
    pub fn parse_ratio(s: &str) -> Option<(u64, u64)> {
        match s.split_once('/') {
            Some((n, m)) => {
                let n: u64 = n.trim().parse().ok()?;
                let m: u64 = m.trim().parse().ok()?;
                (m >= 1 && n <= m).then_some((n, m))
            }
            None => {
                let n: u64 = s.trim().parse().ok()?;
                (n >= 1).then_some((n, n))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_samples_everything() {
        let s = SpanSampler::all();
        assert!((0..1000).all(|i| s.sampled(i)));
    }

    #[test]
    fn zero_rate_samples_nothing() {
        let s = SpanSampler::rate(0, 5, 42);
        assert!((0..1000).all(|i| !s.sampled(i)));
    }

    #[test]
    fn rate_is_exact_over_any_window() {
        // ±1 of L·n/m over every window, not just from zero.
        for (n, m) in [(1u64, 7u64), (3, 10), (2, 3), (1, 10_000)] {
            for seed in [0u64, 1, 99] {
                let s = SpanSampler::rate(n, m, seed);
                for window_start in [0u64, 13, 5000] {
                    for len in [100u64, 1001, 10_000] {
                        let count = (window_start..window_start + len)
                            .filter(|&i| s.sampled(i))
                            .count() as f64;
                        let expect = len as f64 * n as f64 / m as f64;
                        assert!(
                            (count - expect).abs() <= 1.0,
                            "{n}/{m} seed {seed}: {count} sampled of {len}, expected {expect}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn same_seed_same_selection() {
        let a = SpanSampler::rate(1, 9, 1234);
        let b = SpanSampler::rate(1, 9, 1234);
        let c = SpanSampler::rate(1, 9, 1235);
        let pick = |s: &SpanSampler| (0..500).filter(|&i| s.sampled(i)).collect::<Vec<_>>();
        assert_eq!(pick(&a), pick(&b));
        // A different seed shifts the phase (not guaranteed for every
        // pair, but these two differ).
        assert_ne!(pick(&a), pick(&c));
    }

    #[test]
    fn ratio_strings_parse() {
        assert_eq!(SpanSampler::parse_ratio("1/8"), Some((1, 8)));
        assert_eq!(SpanSampler::parse_ratio(" 3 / 10 "), Some((3, 10)));
        assert_eq!(SpanSampler::parse_ratio("1"), Some((1, 1)));
        assert_eq!(SpanSampler::parse_ratio("9/8"), None);
        assert_eq!(SpanSampler::parse_ratio("1/0"), None);
        assert_eq!(SpanSampler::parse_ratio("x"), None);
    }

    #[test]
    fn span_duration_and_root() {
        let r = SpanRecord::request(1, 2, SimTime::from_micros(10), SimTime::from_micros(25));
        assert!(r.is_root());
        assert_eq!(r.duration(), SimDuration::from_micros(15));
        assert_eq!(r.downstream, r.duration());
    }
}
