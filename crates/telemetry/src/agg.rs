//! Mergeable cluster-scale aggregation: latency digests and
//! heavy-hitter sketches.
//!
//! Every summary the single-stream telemetry pillars produce (span
//! reports, metrics timelines, whole-run percentile passes) assumes one
//! process saw every event. Sharded lookahead and the multi-process
//! `sg-cluster` deployment break that assumption: each shard/node must
//! keep its *own* bounded summary, and the cluster view must be the
//! **merge** of the per-shard states — with the merge exact, so the
//! answer does not depend on how many shards there were or in which
//! order they were combined.
//!
//! Everything in this module is therefore a commutative monoid under
//! `merge`:
//!
//! * [`LatencyDigest`] — a sparse DDSketch-style log-bucket quantile
//!   digest over the shared [`sg_core::logbucket`] scheme. Bucketing is
//!   pure integer math and state is canonically ordered
//!   (`BTreeMap<bucket, count>`), so merging any partition of a sample
//!   stream in any order yields **byte-identical** state (pinned by the
//!   proptest suite in `tests/agg_props.rs`). Quantile error is
//!   one-sided, bounded by γ = `1/2^(sig_bits-1)`
//!   ([`LatencyDigest::relative_error`]).
//! * [`TopK`] — a SpaceSaving heavy-hitter sketch over per-container
//!   QoS-violation loss. Stream updates evict deterministically
//!   (min weight, largest key on ties); `merge` sums the full key union
//!   *without* truncating, so it too is exact/associative/commutative —
//!   truncation to k happens only at query time ([`TopK::top`]).
//! * [`crate::slo::SloTracker`] — windowed good/bad counts for SLO burn
//!   rates, merged the same way.
//!
//! [`AggRuntime`] bundles the three per node behind a mutex shard, is
//! wired into both substrates (the simulator records synchronously at
//! root completion; the live backend records on the delay-line thread
//! and the drainer-side teardown merges), snapshots per-node state into
//! [`TelemetryEvent::Digest`] / [`TelemetryEvent::Slo`] /
//! [`TelemetryEvent::TopK`] events on the metrics stream, and renders
//! the `sg_slo_*` Prometheus series for the live scrape endpoint.

use crate::critical::LossClass;
use crate::event::TelemetryEvent;
use crate::slo::{SloConfig, SloTracker};
use sg_core::ids::{ContainerId, NodeId};
use sg_core::logbucket;
use sg_core::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Sparse mergeable log-bucket latency digest.
///
/// Same bucket layout and quantile semantics as the load generator's
/// dense `LatencyHistogram` (both sit on [`sg_core::logbucket`]), but
/// stored sparsely so an idle shard costs nothing and the wire form
/// stays small. For the same `sig_bits` and the same recorded samples,
/// `percentile` returns **exactly** what `LatencyHistogram::percentile`
/// returns — the conformance suite pins this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyDigest {
    sig_bits: u32,
    /// Canonically ordered sparse counts: bucket index → samples.
    buckets: BTreeMap<u32, u64>,
    total: u64,
    min_ns: u64,
    max_ns: u64,
    /// Saturating sum (saturation keeps merge associative/commutative).
    sum_ns: u64,
}

impl LatencyDigest {
    /// Empty digest with `sig_bits` significant bits.
    pub(crate) fn new(sig_bits: u32) -> Self {
        logbucket::assert_sig_bits(sig_bits);
        LatencyDigest {
            sig_bits,
            buckets: BTreeMap::new(),
            total: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            sum_ns: 0,
        }
    }

    /// Default resolution (6 significant bits, γ = 1/32 ≈ 3.1%).
    pub fn with_default_resolution() -> Self {
        Self::new(6)
    }

    /// Rebuild a digest from its wire parts (the `digest` JSONL event).
    /// Rejects invalid resolutions, out-of-range buckets, and count
    /// sums that disagree with `total`.
    pub(crate) fn from_parts(
        sig_bits: u32,
        buckets: Vec<(u32, u64)>,
        min_ns: u64,
        max_ns: u64,
        sum_ns: u64,
    ) -> Result<Self, String> {
        if !(logbucket::MIN_SIG_BITS..=logbucket::MAX_SIG_BITS).contains(&sig_bits) {
            return Err(format!("digest sig_bits {sig_bits} out of range"));
        }
        let limit = logbucket::bucket_count(sig_bits) as u32;
        let mut map = BTreeMap::new();
        let mut total = 0u64;
        for (b, c) in buckets {
            if b >= limit {
                return Err(format!(
                    "digest bucket {b} out of range for {sig_bits} bits"
                ));
            }
            if c == 0 {
                continue;
            }
            if map.insert(b, c).is_some() {
                return Err(format!("digest bucket {b} repeated"));
            }
            total = total.saturating_add(c);
        }
        Ok(LatencyDigest {
            sig_bits,
            buckets: map,
            total,
            min_ns: if total == 0 { u64::MAX } else { min_ns },
            max_ns,
            sum_ns,
        })
    }

    /// Resolution in significant bits.
    pub fn sig_bits(&self) -> u32 {
        self.sig_bits
    }

    /// One-sided relative error bound γ of reported quantiles.
    pub fn relative_error(&self) -> f64 {
        logbucket::relative_error(self.sig_bits)
    }

    /// Record one latency.
    #[inline]
    pub fn record(&mut self, latency: SimDuration) {
        let v = latency.as_nanos();
        let b = logbucket::bucket_of(self.sig_bits, v) as u32;
        *self.buckets.entry(b).or_insert(0) += 1;
        self.total += 1;
        self.min_ns = self.min_ns.min(v);
        self.max_ns = self.max_ns.max(v);
        self.sum_ns = self.sum_ns.saturating_add(v);
    }

    /// Total samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Quantile `q` in `[0,100]`: upper bucket edge clamped to the
    /// observed maximum — identical semantics (and identical output for
    /// identical inputs) to `LatencyHistogram::percentile`.
    pub fn percentile(&self, q: f64) -> Option<SimDuration> {
        if self.total == 0 {
            return None;
        }
        assert!((0.0..=100.0).contains(&q));
        let rank = ((q / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (&b, &c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return Some(SimDuration::from_nanos(
                    logbucket::bucket_high(self.sig_bits, b as usize).min(self.max_ns),
                ));
            }
        }
        Some(SimDuration::from_nanos(self.max_ns))
    }

    /// Merge another digest (must share `sig_bits`). Exact: pointwise
    /// count addition over canonically ordered state, so any merge order
    /// over any partition of the samples yields byte-identical state.
    pub fn merge(&mut self, other: &LatencyDigest) {
        assert_eq!(self.sig_bits, other.sig_bits, "digest resolution mismatch");
        for (&b, &c) in &other.buckets {
            *self.buckets.entry(b).or_insert(0) += c;
        }
        self.total += other.total;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// Wire parts `(min_ns, max_ns, sum_ns)` (min is `u64::MAX` when
    /// empty; writers normalize to 0 on the wire).
    pub fn bounds(&self) -> (u64, u64, u64) {
        (self.min_ns, self.max_ns, self.sum_ns)
    }

    /// Sparse `(bucket, count)` pairs in canonical (ascending) order.
    pub fn bucket_counts(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.buckets.iter().map(|(&b, &c)| (b, c))
    }
}

/// Pack a heavy-hitter key from a container and an optional loss class.
///
/// Layout: `container << 3 | class_code` (code 0 = whole-request loss,
/// 1–4 = [`LossClass::code`]). Keys order first by container, then by
/// class, which makes tie-breaking and report ordering deterministic.
pub(crate) fn topk_key(container: ContainerId, class: Option<LossClass>) -> u64 {
    ((container.0 as u64) << 3) | class.map_or(0, |c| c.code() as u64)
}

/// Unpack a heavy-hitter key into `(container, class)`.
pub fn topk_unpack(key: u64) -> (ContainerId, Option<LossClass>) {
    (
        ContainerId((key >> 3) as u32),
        LossClass::from_code((key & 0x7) as u8),
    )
}

/// One heavy-hitter entry: estimated weight and overestimation bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKEntry {
    /// Packed key (see `topk_key`).
    pub key: u64,
    /// Estimated total weight charged to this key (upper bound on the
    /// true weight; exact when `err == 0`).
    pub weight: u64,
    /// SpaceSaving overestimation bound: true weight ≥ `weight - err`.
    pub err: u64,
}

/// SpaceSaving top-k heavy-hitter sketch with an exact merge.
///
/// Stream updates are classic SpaceSaving: at most `capacity` keys are
/// tracked; when a new key arrives at a full sketch, the minimum-weight
/// entry is evicted (ties broken toward the **largest** key, so the
/// smallest key survives) and the newcomer inherits its weight as the
/// error bound. `merge` deliberately does **not** re-truncate: it sums
/// weights and errors over the key union, which keeps the operation
/// associative and commutative (and the merged state byte-identical for
/// any merge order). Truncation to the top k happens only in [`top`].
///
/// [`top`]: TopK::top
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopK {
    capacity: usize,
    /// key → (weight, err), canonically ordered.
    entries: BTreeMap<u64, (u64, u64)>,
}

impl TopK {
    /// Empty sketch tracking at most `capacity` keys under stream
    /// updates (`capacity >= 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "top-k capacity must be at least 1");
        TopK {
            capacity,
            entries: BTreeMap::new(),
        }
    }

    /// Stream capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of keys currently tracked (may exceed `capacity` after a
    /// merge; see type docs).
    pub(crate) fn tracked(&self) -> usize {
        self.entries.len()
    }

    /// Rebuild a sketch from wire parts (the `topk` JSONL event).
    pub(crate) fn from_parts(capacity: usize, entries: Vec<TopKEntry>) -> Result<Self, String> {
        if capacity < 1 {
            return Err("topk capacity must be at least 1".into());
        }
        let mut map = BTreeMap::new();
        for e in entries {
            if map.insert(e.key, (e.weight, e.err)).is_some() {
                return Err(format!("topk key {} repeated", e.key));
            }
        }
        Ok(TopK {
            capacity,
            entries: map,
        })
    }

    /// Charge `weight` to `key` (SpaceSaving update).
    pub fn observe(&mut self, key: u64, weight: u64) {
        if let Some((w, _)) = self.entries.get_mut(&key) {
            *w = w.saturating_add(weight);
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.insert(key, (weight, 0));
            return;
        }
        // Evict the min-weight entry; ties break toward the largest key
        // (deterministic regardless of insertion history).
        let (&victim, &(vw, _)) = self
            .entries
            .iter()
            .min_by(|a, b| {
                (a.1 .0, std::cmp::Reverse(*a.0)).cmp(&(b.1 .0, std::cmp::Reverse(*b.0)))
            })
            .expect("capacity >= 1");
        self.entries.remove(&victim);
        self.entries.insert(key, (vw.saturating_add(weight), vw));
    }

    /// Merge another sketch: pointwise sum over the key union, no
    /// truncation. Exact, associative, commutative.
    pub fn merge(&mut self, other: &TopK) {
        assert_eq!(self.capacity, other.capacity, "top-k capacity mismatch");
        for (&k, &(w, e)) in &other.entries {
            let entry = self.entries.entry(k).or_insert((0, 0));
            entry.0 = entry.0.saturating_add(w);
            entry.1 = entry.1.saturating_add(e);
        }
    }

    /// The top `k` entries, sorted by weight descending; ties break by
    /// error ascending (tighter estimates first), then key ascending.
    pub fn top(&self, k: usize) -> Vec<TopKEntry> {
        let mut all: Vec<TopKEntry> = self
            .entries
            .iter()
            .map(|(&key, &(weight, err))| TopKEntry { key, weight, err })
            .collect();
        all.sort_by(|a, b| {
            (std::cmp::Reverse(a.weight), a.err, a.key).cmp(&(
                std::cmp::Reverse(b.weight),
                b.err,
                b.key,
            ))
        });
        all.truncate(k);
        all
    }

    /// All tracked entries in canonical key order (the wire form).
    pub fn entries(&self) -> impl Iterator<Item = TopKEntry> + '_ {
        self.entries
            .iter()
            .map(|(&key, &(weight, err))| TopKEntry { key, weight, err })
    }
}

/// Digest resolution in significant bits (ours): γ = 3.125 %.
const SIG_BITS: u32 = 6;

/// Per-node heavy-hitter stream capacity (ours).
const TOPK_CAPACITY: usize = 8;

/// Configuration for a per-node aggregation runtime.
#[derive(Debug, Clone)]
pub struct AggConfig {
    /// QoS deadline: completions above this are SLO violations and feed
    /// the heavy-hitter sketch with their excess latency.
    pub qos: SimDuration,
    /// SLO objective.
    pub slo: SloConfig,
}

impl AggConfig {
    /// The default 99.9 % objective around the given QoS deadline.
    pub fn new(qos: SimDuration) -> Self {
        AggConfig {
            qos,
            slo: SloConfig::default(),
        }
    }
}

/// One node's aggregation state.
#[derive(Debug)]
struct NodeShard {
    digest: LatencyDigest,
    topk: TopK,
    slo: SloTracker,
}

/// Merged cluster-wide view of all node shards.
#[derive(Debug, Clone)]
pub struct ClusterAgg {
    /// Merged latency digest.
    pub digest: LatencyDigest,
    /// Merged heavy-hitter sketch.
    pub topk: TopK,
    /// Merged SLO tracker.
    pub slo: SloTracker,
}

/// Per-node aggregators behind mutex shards, shared by a substrate's
/// completion path, its metrics sampler, and (live) the scrape server.
///
/// Contention is per *node*, and both substrates complete a given
/// node's requests from one thread at a time, so the mutexes are
/// effectively uncontended; they exist so the live delay-line thread,
/// the sampler thread, and the scrape server can share the state.
#[derive(Debug)]
pub struct AggRuntime {
    cfg: AggConfig,
    shards: Vec<Mutex<NodeShard>>,
}

impl AggRuntime {
    /// Runtime with one shard per node (`nodes` ≥ 1).
    pub fn new(cfg: AggConfig, nodes: usize) -> Self {
        assert!(nodes >= 1, "at least one node shard");
        let shards = (0..nodes)
            .map(|_| {
                Mutex::new(NodeShard {
                    digest: LatencyDigest::new(SIG_BITS),
                    topk: TopK::new(TOPK_CAPACITY),
                    slo: SloTracker::new(cfg.slo.clone()),
                })
            })
            .collect();
        AggRuntime { cfg, shards }
    }

    /// Record one completed request: `container` (the root replica slot)
    /// on `node`, completing at `at` with end-to-end `latency`.
    pub fn record(&self, node: NodeId, container: ContainerId, at: SimTime, latency: SimDuration) {
        let idx = node.index().min(self.shards.len() - 1);
        let mut shard = self.shards[idx].lock().unwrap();
        shard.digest.record(latency);
        let bad = latency > self.cfg.qos;
        shard.slo.record(at, bad);
        if bad {
            let loss = latency.as_nanos() - self.cfg.qos.as_nanos();
            shard.topk.observe(topk_key(container, None), loss);
        }
    }

    /// Snapshot one node's state as cumulative telemetry events
    /// (`digest` + `slo`, plus `topk` when the sketch is non-empty).
    pub fn node_events(&self, node: NodeId, at: SimTime) -> Vec<TelemetryEvent> {
        let idx = node.index().min(self.shards.len() - 1);
        let shard = self.shards[idx].lock().unwrap();
        let mut out = Vec::with_capacity(3);
        if shard.digest.is_empty() && shard.slo.total() == 0 {
            return out;
        }
        out.push(TelemetryEvent::Digest {
            at,
            node,
            digest: shard.digest.clone(),
        });
        out.push(TelemetryEvent::Slo {
            at,
            node,
            qos_ns: self.cfg.qos.as_nanos(),
            total: shard.slo.total(),
            bad: shard.slo.bad(),
        });
        if shard.topk.tracked() > 0 {
            out.push(TelemetryEvent::TopK {
                at,
                node,
                capacity: shard.topk.capacity() as u32,
                entries: shard.topk.entries().collect(),
            });
        }
        out
    }

    /// Snapshot every node's state (teardown emission; also the live
    /// sampler sweep).
    pub fn all_node_events(&self, at: SimTime) -> Vec<TelemetryEvent> {
        (0..self.shards.len())
            .flat_map(|n| self.node_events(NodeId(n as u32), at))
            .collect()
    }

    /// Merge every node shard into one cluster view. Per the merge
    /// contract the result is independent of node order.
    pub fn merged(&self) -> ClusterAgg {
        let mut digest = LatencyDigest::new(SIG_BITS);
        let mut topk = TopK::new(TOPK_CAPACITY);
        let mut slo = SloTracker::new(self.cfg.slo.clone());
        for shard in &self.shards {
            let s = shard.lock().unwrap();
            digest.merge(&s.digest);
            topk.merge(&s.topk);
            slo.merge(&s.slo);
        }
        ClusterAgg { digest, topk, slo }
    }

    /// Append the `sg_slo_*` Prometheus series (text exposition 0.0.4)
    /// for the scrape endpoint: per-node request/violation counters plus
    /// cluster-wide burn rates, budget, and alert gauges.
    pub fn render_prometheus_into(&self, body: &mut String) {
        use std::fmt::Write;
        body.push_str(
            "# HELP sg_slo_requests_total Requests observed by the SLO tracker.\n\
             # TYPE sg_slo_requests_total counter\n",
        );
        for (n, shard) in self.shards.iter().enumerate() {
            let s = shard.lock().unwrap();
            let _ = writeln!(
                body,
                "sg_slo_requests_total{{node=\"{n}\"}} {}",
                s.slo.total()
            );
        }
        body.push_str(
            "# HELP sg_slo_violations_total Requests beyond the QoS deadline.\n\
             # TYPE sg_slo_violations_total counter\n",
        );
        for (n, shard) in self.shards.iter().enumerate() {
            let s = shard.lock().unwrap();
            let _ = writeln!(
                body,
                "sg_slo_violations_total{{node=\"{n}\"}} {}",
                s.slo.bad()
            );
        }
        let merged = self.merged();
        let verdict = merged.slo.verdict_at_last();
        body.push_str(
            "# HELP sg_slo_burn_rate Error-budget burn rate over the alert windows.\n\
             # TYPE sg_slo_burn_rate gauge\n",
        );
        let _ = writeln!(
            body,
            "sg_slo_burn_rate{{window=\"fast\"}} {}",
            verdict.fast.unwrap_or(0.0)
        );
        let _ = writeln!(
            body,
            "sg_slo_burn_rate{{window=\"slow\"}} {}",
            verdict.slow.unwrap_or(0.0)
        );
        body.push_str(
            "# HELP sg_slo_error_budget_remaining Fraction of the error budget left.\n\
             # TYPE sg_slo_error_budget_remaining gauge\n",
        );
        let _ = writeln!(
            body,
            "sg_slo_error_budget_remaining {}",
            verdict.budget_remaining
        );
        body.push_str(
            "# HELP sg_slo_alert Multi-window burn alerts (1 = firing).\n\
             # TYPE sg_slo_alert gauge\n",
        );
        let _ = writeln!(
            body,
            "sg_slo_alert{{severity=\"fast\"}} {}",
            u8::from(verdict.fast_alert)
        );
        let _ = writeln!(
            body,
            "sg_slo_alert{{severity=\"slow\"}} {}",
            u8::from(verdict.slow_alert)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn digest_matches_dense_histogram_semantics() {
        // Mirrors LatencyHistogram::percentile on the same data.
        let mut d = LatencyDigest::with_default_resolution();
        for v in 1..=10_000u64 {
            d.record(SimDuration::from_nanos(v * 1_000));
        }
        for q in [50.0, 90.0, 99.0, 99.9] {
            let exact = ((q / 100.0) * 10_000f64).ceil() as u64 * 1_000;
            let got = d.percentile(q).unwrap().as_nanos();
            assert!(got >= exact, "q{q} understates");
            let rel = (got - exact) as f64 / exact as f64;
            assert!(rel <= d.relative_error(), "q{q} rel {rel}");
        }
    }

    #[test]
    fn digest_single_value_is_exact() {
        let mut d = LatencyDigest::with_default_resolution();
        d.record(SimDuration::from_nanos(1_000_003));
        for q in [0.0, 50.0, 100.0] {
            assert_eq!(d.percentile(q).unwrap().as_nanos(), 1_000_003);
        }
    }

    #[test]
    fn digest_merge_is_order_independent() {
        let values: Vec<u64> = (0..500).map(|i| (i * 7919 + 13) % 2_000_000).collect();
        let mut whole = LatencyDigest::new(6);
        let mut a = LatencyDigest::new(6);
        let mut b = LatencyDigest::new(6);
        for (i, &v) in values.iter().enumerate() {
            whole.record(SimDuration::from_nanos(v));
            if i % 3 == 0 {
                a.record(SimDuration::from_nanos(v));
            } else {
                b.record(SimDuration::from_nanos(v));
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab, whole);
    }

    #[test]
    fn digest_wire_roundtrip() {
        let mut d = LatencyDigest::new(6);
        for v in [3u64, 64, 65, 100_000, u64::MAX] {
            d.record(SimDuration::from_nanos(v));
        }
        let (min_ns, max_ns, sum_ns) = d.bounds();
        let back =
            LatencyDigest::from_parts(6, d.bucket_counts().collect(), min_ns, max_ns, sum_ns)
                .unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn digest_from_parts_rejects_garbage() {
        assert!(LatencyDigest::from_parts(1, vec![], 0, 0, 0).is_err());
        assert!(LatencyDigest::from_parts(6, vec![(u32::MAX, 1)], 0, 0, 0).is_err());
        assert!(LatencyDigest::from_parts(6, vec![(1, 1), (1, 2)], 0, 0, 0).is_err());
    }

    #[test]
    fn topk_tracks_heavy_hitters() {
        let mut t = TopK::new(3);
        for _ in 0..100 {
            t.observe(topk_key(ContainerId(1), None), 10);
        }
        for _ in 0..50 {
            t.observe(topk_key(ContainerId(2), Some(LossClass::PoolQueue)), 10);
        }
        for i in 0..20 {
            t.observe(topk_key(ContainerId(100 + i), None), 1);
        }
        let top = t.top(2);
        assert_eq!(topk_unpack(top[0].key).0, ContainerId(1));
        assert_eq!(
            topk_unpack(top[1].key),
            (ContainerId(2), Some(LossClass::PoolQueue))
        );
        // The heavy hitters' estimates are exact (never evicted).
        assert_eq!(top[0].weight, 1000);
        assert_eq!(top[0].err, 0);
    }

    #[test]
    fn topk_eviction_is_deterministic() {
        let mut a = TopK::new(2);
        a.observe(10, 5);
        a.observe(20, 5);
        a.observe(30, 1); // evicts key 20 (min weight ties → largest key)
        assert!(a.entries.contains_key(&10));
        assert!(a.entries.contains_key(&30));
        assert_eq!(a.entries[&30], (6, 5));
    }

    #[test]
    fn topk_merge_is_exact_and_order_independent() {
        let mut a = TopK::new(4);
        let mut b = TopK::new(4);
        for i in 0..10u64 {
            a.observe(i % 5, i + 1);
            b.observe(i % 7, 2 * i + 1);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        // Union may exceed stream capacity — truncation only at query.
        assert!(ab.tracked() >= 5);
        assert_eq!(ab.top(4).len(), 4);
    }

    #[test]
    fn key_packing_roundtrips() {
        for c in [0u32, 1, 77, u32::MAX] {
            for class in [
                None,
                Some(LossClass::PoolQueue),
                Some(LossClass::Service),
                Some(LossClass::PreBoostFreq),
                Some(LossClass::Network),
            ] {
                let key = topk_key(ContainerId(c), class);
                assert_eq!(topk_unpack(key), (ContainerId(c), class));
            }
        }
    }

    #[test]
    fn runtime_records_and_merges() {
        let rt = AggRuntime::new(AggConfig::new(us(500)), 2);
        rt.record(NodeId(0), ContainerId(0), SimTime::from_millis(1), us(100));
        rt.record(NodeId(1), ContainerId(5), SimTime::from_millis(2), us(900));
        let m = rt.merged();
        assert_eq!(m.digest.len(), 2);
        assert_eq!(m.slo.total(), 2);
        assert_eq!(m.slo.bad(), 1);
        let top = m.topk.top(1);
        assert_eq!(topk_unpack(top[0].key).0, ContainerId(5));
        assert_eq!(top[0].weight, us(400).as_nanos());
    }

    #[test]
    fn runtime_renders_slo_series() {
        let rt = AggRuntime::new(AggConfig::new(us(500)), 1);
        rt.record(NodeId(0), ContainerId(0), SimTime::from_millis(1), us(900));
        let mut body = String::new();
        rt.render_prometheus_into(&mut body);
        assert!(body.contains("sg_slo_requests_total{node=\"0\"} 1"));
        assert!(body.contains("sg_slo_violations_total{node=\"0\"} 1"));
        assert!(body.contains("sg_slo_burn_rate{window=\"fast\"}"));
        assert!(body.contains("sg_slo_error_budget_remaining"));
        assert!(body.contains("sg_slo_alert{severity=\"fast\"} 1"));
    }
}
