//! HDR-style latency histogram.
//!
//! wrk2 reports latencies from a high-dynamic-range histogram; this is the
//! equivalent: logarithmic buckets with a fixed number of linear
//! sub-buckets per octave, giving a bounded relative error (< 1/64 ≈ 1.6%
//! with the default 6 significant bits) over the full `u64` nanosecond
//! range with O(1) record and modest memory.

use serde::{Deserialize, Serialize};
use sg_core::logbucket;
use sg_core::time::SimDuration;

/// Log-bucketed latency histogram.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Number of mantissa bits preserved (sub-bucket resolution).
    sig_bits: u32,
    /// `counts[bucket]`; bucket layout: values below `2^sig_bits` map 1:1,
    /// above that each octave splits into `2^sig_bits` sub-buckets.
    counts: Vec<u64>,
    total: u64,
    max_ns: u64,
    min_ns: u64,
    sum_ns: u128,
}

impl LatencyHistogram {
    /// Histogram with `sig_bits` significant bits (1.0/2^sig_bits max
    /// relative error). 6 bits is the wrk2-like default.
    pub fn new(sig_bits: u32) -> Self {
        logbucket::assert_sig_bits(sig_bits);
        LatencyHistogram {
            sig_bits,
            counts: vec![0; logbucket::bucket_count(sig_bits)],
            total: 0,
            max_ns: 0,
            min_ns: u64::MAX,
            sum_ns: 0,
        }
    }

    /// Default resolution (6 significant bits ≈ 1.6% relative error).
    pub fn with_default_resolution() -> Self {
        Self::new(6)
    }

    #[inline]
    fn bucket_of(&self, v: u64) -> usize {
        logbucket::bucket_of(self.sig_bits, v)
    }

    /// Highest value equivalent to `bucket` (inclusive upper edge): the
    /// reported representative, matching HdrHistogram/wrk2 semantics so
    /// quantiles never understate the latency they summarize.
    fn bucket_high(&self, bucket: usize) -> u64 {
        logbucket::bucket_high(self.sig_bits, bucket)
    }

    /// Record one latency.
    #[inline]
    pub fn record(&mut self, latency: SimDuration) {
        let v = latency.as_nanos();
        let b = self.bucket_of(v);
        self.counts[b] += 1;
        self.total += 1;
        self.max_ns = self.max_ns.max(v);
        self.min_ns = self.min_ns.min(v);
        self.sum_ns += v as u128;
    }

    /// Total samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact maximum recorded value.
    pub fn max(&self) -> Option<SimDuration> {
        (self.total > 0).then(|| SimDuration::from_nanos(self.max_ns))
    }

    /// Exact minimum recorded value.
    pub fn min(&self) -> Option<SimDuration> {
        (self.total > 0).then(|| SimDuration::from_nanos(self.min_ns))
    }

    /// Exact mean of recorded values.
    pub fn mean(&self) -> Option<SimDuration> {
        (self.total > 0).then(|| SimDuration::from_nanos((self.sum_ns / self.total as u128) as u64))
    }

    /// Quantile `q` in `[0,100]` by cumulative bucket counts. Reports the
    /// highest value equivalent to the rank's bucket (upper edge, clamped
    /// to the exact observed maximum) — HdrHistogram/wrk2 semantics. The
    /// within-bucket error is one-sided: the report never understates the
    /// true quantile, and overstates by at most the bucket width
    /// (≤ 1/2^(sig_bits-1) relative).
    pub fn percentile(&self, q: f64) -> Option<SimDuration> {
        if self.total == 0 {
            return None;
        }
        assert!((0.0..=100.0).contains(&q));
        let rank = ((q / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(SimDuration::from_nanos(
                    self.bucket_high(b).min(self.max_ns),
                ));
            }
        }
        Some(SimDuration::from_nanos(self.max_ns))
    }

    /// Reset to empty while keeping the bucket allocation.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.max_ns = 0;
        self.min_ns = u64::MAX;
        self.sum_ns = 0;
    }

    /// Merge another histogram (must share `sig_bits`).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        assert_eq!(self.sig_bits, other.sig_bits, "resolution mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.sum_ns += other.sum_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn records_and_counts() {
        let mut h = LatencyHistogram::with_default_resolution();
        assert!(h.is_empty());
        for i in 1..=100 {
            h.record(us(i));
        }
        assert_eq!(h.len(), 100);
        assert_eq!(h.min(), Some(us(1)));
        assert_eq!(h.max(), Some(us(100)));
    }

    #[test]
    fn percentiles_within_relative_error() {
        let mut h = LatencyHistogram::with_default_resolution();
        let values: Vec<u64> = (1..=10_000).collect();
        for &v in &values {
            h.record(SimDuration::from_nanos(v * 1_000));
        }
        for q in [50.0, 90.0, 98.0, 99.0, 99.9] {
            let exact = values[((q / 100.0) * values.len() as f64).ceil() as usize - 1] * 1_000;
            let got = h.percentile(q).unwrap().as_nanos();
            // One-sided bound: reported quantiles never understate the
            // exact order statistic and overstate by under a bucket width.
            assert!(got >= exact, "q{q}: got {got} understates exact {exact}");
            let rel = (got as f64 - exact as f64) / exact as f64;
            assert!(rel < 0.04, "q{q}: got {got}, exact {exact}, rel {rel}");
        }
    }

    #[test]
    fn percentile_of_a_single_value_is_exact() {
        // One sample: every quantile is that sample — the upper-edge
        // report must clamp to the observed maximum, not the bucket edge.
        let mut h = LatencyHistogram::with_default_resolution();
        h.record(SimDuration::from_nanos(1_000_003));
        for q in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(q).unwrap().as_nanos(), 1_000_003, "q{q}");
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::with_default_resolution();
        h.record(us(100));
        h.record(us(300));
        assert_eq!(h.mean(), Some(us(200)));
    }

    #[test]
    fn wide_dynamic_range() {
        let mut h = LatencyHistogram::with_default_resolution();
        h.record(SimDuration::from_nanos(3));
        h.record(SimDuration::from_secs(100));
        assert_eq!(h.len(), 2);
        assert_eq!(h.min(), Some(SimDuration::from_nanos(3)));
        assert_eq!(h.max(), Some(SimDuration::from_secs(100)));
        // P100 lands in the top bucket.
        let p100 = h.percentile(100.0).unwrap();
        let rel = (p100.as_nanos() as f64 - 1e11).abs() / 1e11;
        assert!(rel < 0.02, "p100 {p100}");
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyHistogram::with_default_resolution();
        let mut b = LatencyHistogram::with_default_resolution();
        a.record(us(10));
        b.record(us(1000));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.max(), Some(us(1000)));
        assert_eq!(a.min(), Some(us(10)));
    }

    /// `clear` must be indistinguishable from a fresh histogram.
    #[test]
    fn clear_resets_to_fresh_state() {
        let mut h = LatencyHistogram::with_default_resolution();
        for i in 1..=1000 {
            h.record(us(i));
        }
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.percentile(99.0), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.min(), None);
        // Refill: statistics must match a never-cleared histogram.
        let mut fresh = LatencyHistogram::with_default_resolution();
        for i in 500..=600 {
            h.record(us(i));
            fresh.record(us(i));
        }
        for q in [50.0, 98.0, 100.0] {
            assert_eq!(h.percentile(q), fresh.percentile(q), "q{q}");
        }
        assert_eq!(h.mean(), fresh.mean());
        assert_eq!(h.len(), fresh.len());
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = LatencyHistogram::with_default_resolution();
        assert_eq!(h.percentile(99.0), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn bucket_roundtrip_monotone() {
        let h = LatencyHistogram::new(6);
        let mut prev = 0;
        for v in [
            0u64,
            1,
            63,
            64,
            65,
            127,
            128,
            1000,
            65_535,
            1 << 30,
            1 << 50,
        ] {
            let b = h.bucket_of(v);
            assert!(b >= prev, "buckets must be monotone in value");
            prev = b;
            let low = logbucket::bucket_low(6, b);
            assert!(low <= v, "bucket low {low} must not exceed value {v}");
            // Relative error bound.
            if v > 64 {
                assert!((v - low) as f64 / v as f64 <= 1.0 / 32.0, "v={v} low={low}");
            }
        }
    }
}
