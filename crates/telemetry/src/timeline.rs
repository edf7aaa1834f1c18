//! Fig. 7/8-style timeline reconstruction behind `sg-trace timeline`.
//!
//! A metrics JSONL stream (see [`crate::metrics`]) is a flat list of
//! `(at, node, container, metric, value)` samples; [`TimelineSet`]
//! regroups it into per-series time-ordered vectors and renders
//! per-container timeline tables and ASCII/SVG strip charts — the
//! paper's allocation + frequency vs time plots around a surge.
//!
//! [`reconcile`] cross-checks a metrics stream against the decision
//! trace recorded alongside it: every `alloc` event must be visible in
//! the matching `cores`/`freq_level` gauge series at the first sample
//! after it takes effect (unless a later event supersedes it within one
//! sampling interval), and every `fr_boost` event must be covered by a
//! step in the destination container's cumulative `fr_boosts` counter.
//! Counters make boost episodes shorter than the sampling interval
//! reconcilable: the level gauge may have already retired by the next
//! sample, but the counter step is permanent.

use crate::event::TelemetryEvent;
use crate::metrics::MetricId;
use sg_core::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One point of one series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SeriesPoint {
    /// Sample time.
    pub at: SimTime,
    /// Sampled value.
    pub value: f64,
}

/// A metrics stream regrouped into per-`(container, metric)` series.
#[derive(Debug, Default)]
pub struct TimelineSet {
    /// Schema version from the stream header, if present.
    pub version: Option<u32>,
    /// Sampling cadence from the stream header (0 = per decision cycle).
    pub interval_ns: Option<u64>,
    /// Total samples consumed.
    pub samples: u64,
    /// Metrics-family (or legacy untagged) drops testified in-stream.
    pub dropped: u64,
    series: BTreeMap<(u32, MetricId), Vec<SeriesPoint>>,
    node_of: BTreeMap<u32, u32>,
}

impl TimelineSet {
    /// Build from a parsed event stream; non-metrics events are ignored
    /// except drop testimonies.
    pub fn from_events<'a, I: IntoIterator<Item = &'a TelemetryEvent>>(events: I) -> Self {
        let mut set = TimelineSet::default();
        for event in events {
            set.push(event);
        }
        set.seal();
        set
    }

    /// Fold one event (streaming path; call [`TimelineSet::seal`] when
    /// the stream ends).
    pub fn push(&mut self, event: &TelemetryEvent) {
        let set = self;
        {
            match event {
                TelemetryEvent::Metric(s) => {
                    set.samples += 1;
                    set.node_of.insert(s.container.0, s.node.0);
                    set.series
                        .entry((s.container.0, s.metric))
                        .or_default()
                        .push(SeriesPoint {
                            at: s.at,
                            value: s.value,
                        });
                }
                TelemetryEvent::MetricsMeta {
                    version,
                    interval_ns,
                } => {
                    set.version.get_or_insert(*version);
                    set.interval_ns.get_or_insert(*interval_ns);
                }
                // In a metrics file only metrics-family (or legacy
                // untagged) testimonies appear; count both.
                TelemetryEvent::Dropped { count, family }
                    if family.is_none() || *family == Some(crate::event::EventFamily::Metrics) =>
                {
                    set.dropped += count;
                }
                _ => {}
            }
        }
    }

    /// Normalize after the last [`TimelineSet::push`]: the simulator
    /// emits in time order, but the live sampler sweeps can interleave
    /// with relay timing, so sort every series by timestamp.
    pub fn seal(&mut self) {
        for points in self.series.values_mut() {
            points.sort_by_key(|p| p.at);
        }
    }

    /// Containers with at least one series, ascending.
    pub fn containers(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self.series.keys().map(|&(c, _)| c).collect();
        out.dedup();
        out
    }

    /// The node a container was sampled on.
    pub(crate) fn node_of(&self, container: u32) -> Option<u32> {
        self.node_of.get(&container).copied()
    }

    /// One series, time-ordered.
    pub(crate) fn series(&self, container: u32, metric: MetricId) -> Option<&[SeriesPoint]> {
        self.series.get(&(container, metric)).map(|v| v.as_slice())
    }

    /// Last sampled value at or before `t`.
    pub fn value_at(&self, container: u32, metric: MetricId, t: SimTime) -> Option<f64> {
        let s = self.series(container, metric)?;
        let idx = s.partition_point(|p| p.at <= t);
        if idx == 0 {
            None
        } else {
            Some(s[idx - 1].value)
        }
    }

    /// First and last sample time across every series.
    pub(crate) fn time_range(&self) -> Option<(SimTime, SimTime)> {
        let mut range: Option<(SimTime, SimTime)> = None;
        for points in self.series.values() {
            let (Some(first), Some(last)) = (points.first(), points.last()) else {
                continue;
            };
            range = Some(match range {
                None => (first.at, last.at),
                Some((lo, hi)) => (lo.min(first.at), hi.max(last.at)),
            });
        }
        range
    }

    /// Median gap between consecutive samples of the densest series —
    /// the effective sampling interval, measured from the data.
    pub fn median_interval(&self) -> Option<SimDuration> {
        let points = self.series.values().max_by_key(|v| v.len())?;
        if points.len() < 2 {
            return None;
        }
        let mut gaps: Vec<u64> = points
            .windows(2)
            .map(|w| w[1].at.as_nanos().saturating_sub(w[0].at.as_nanos()))
            .collect();
        gaps.sort_unstable();
        Some(SimDuration::from_nanos(gaps[gaps.len() / 2]))
    }

    /// Largest gap between consecutive samples of the densest series —
    /// the worst stall the sampler actually suffered. A wall-clock
    /// reconciliation cannot demand finer temporal resolution than this,
    /// so it is the robust grace choice on a loaded machine.
    pub fn max_interval(&self) -> Option<SimDuration> {
        let points = self.series.values().max_by_key(|v| v.len())?;
        points
            .windows(2)
            .map(|w| w[1].at.as_nanos().saturating_sub(w[0].at.as_nanos()))
            .max()
            .map(SimDuration::from_nanos)
    }

    /// Per-container timeline tables, downsampled to at most `max_rows`
    /// rows per container.
    pub fn render_tables(&self, max_rows: usize) -> String {
        let mut out = String::new();
        for c in self.containers() {
            // The cores gauge carries the sampling cadence; fall back to
            // whichever series the container has.
            let cadence = self.series(c, MetricId::Cores).or_else(|| {
                self.series
                    .range((c, MetricId::Cores)..)
                    .next()
                    .and_then(|((cc, _), v)| if *cc == c { Some(v.as_slice()) } else { None })
            });
            let Some(cadence) = cadence else { continue };
            let node = self.node_of(c).unwrap_or(0);
            let _ = writeln!(out, "\ncontainer c{c} (node {node}):");
            let _ = writeln!(
                out,
                "  {:>10} {:>6} {:>5} {:>12} {:>8} {:>8} {:>12} {:>9}",
                "t_ms", "cores", "freq", "exec_met_us", "queueB", "pool", "slack99_us", "fr_boosts"
            );
            let stride = cadence.len().div_ceil(max_rows.max(1)).max(1);
            for point in cadence.iter().step_by(stride) {
                let t = point.at;
                let cell = |m: MetricId, scale: f64| -> String {
                    match self.value_at(c, m, t) {
                        Some(v) => format!("{:.2}", v * scale),
                        None => "-".to_string(),
                    }
                };
                let _ = writeln!(
                    out,
                    "  {:>10.1} {:>6} {:>5} {:>12} {:>8} {:>8} {:>12} {:>9}",
                    t.as_nanos() as f64 / 1e6,
                    cell(MetricId::Cores, 1.0),
                    cell(MetricId::FreqLevel, 1.0),
                    cell(MetricId::ExecMetric, 1e-3),
                    cell(MetricId::QueueBuildup, 1.0),
                    cell(MetricId::PoolInUse, 1.0),
                    cell(MetricId::SlackP99, 1e-3),
                    cell(MetricId::FrBoosts, 1.0),
                );
            }
        }
        out
    }

    /// ASCII strip charts: one amplitude-ramp line per key series per
    /// container, `width` columns spanning the sampled time range.
    pub fn render_ascii(&self, width: usize) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let Some((t0, t1)) = self.time_range() else {
            return "(no samples)\n".to_string();
        };
        let span = (t1.as_nanos() - t0.as_nanos()).max(1);
        let width = width.max(8);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "strip charts, {:.1} ms – {:.1} ms:",
            t0.as_nanos() as f64 / 1e6,
            t1.as_nanos() as f64 / 1e6
        );
        for c in self.containers() {
            for metric in [
                MetricId::Cores,
                MetricId::FreqLevel,
                MetricId::QueueBuildup,
                MetricId::PoolInUse,
            ] {
                let Some(points) = self.series(c, metric) else {
                    continue;
                };
                let lo = points.iter().map(|p| p.value).fold(f64::INFINITY, f64::min);
                let hi = points
                    .iter()
                    .map(|p| p.value)
                    .fold(f64::NEG_INFINITY, f64::max);
                let mut chart = String::with_capacity(width);
                for col in 0..width {
                    let t =
                        SimTime::from_nanos(t0.as_nanos() + span * (col as u64 + 1) / width as u64);
                    let ch = match self.value_at(c, metric, t) {
                        None => b' ',
                        Some(v) if hi > lo => {
                            let norm = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
                            RAMP[(norm * (RAMP.len() - 1) as f64).round() as usize]
                        }
                        Some(_) => RAMP[RAMP.len() / 2],
                    };
                    chart.push(ch as char);
                }
                let _ = writeln!(
                    out,
                    "c{c:<3} {:<14} [{lo:>8.2}..{hi:<8.2}] |{chart}|",
                    metric.name()
                );
            }
        }
        out
    }

    /// Fig. 7/8-style SVG: one strip per container with step lines for
    /// core allocation (solid) and DVFS level (accent) over time.
    pub fn render_svg(&self) -> String {
        const W: f64 = 900.0;
        const STRIP_H: f64 = 110.0;
        const PAD_L: f64 = 60.0;
        const PAD_R: f64 = 20.0;
        const PAD_TOP: f64 = 40.0;
        const GAP: f64 = 18.0;

        let containers = self.containers();
        let Some((t0, t1)) = self.time_range() else {
            return "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"300\" height=\"40\">\
                    <text x=\"10\" y=\"25\">no samples</text></svg>\n"
                .to_string();
        };
        let span = (t1.as_nanos() - t0.as_nanos()).max(1) as f64;
        let height = PAD_TOP + containers.len() as f64 * (STRIP_H + GAP) + 40.0;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{W}\" height=\"{height:.0}\" \
             font-family=\"monospace\" font-size=\"11\">"
        );
        let _ = writeln!(
            out,
            "  <text x=\"{PAD_L}\" y=\"20\" font-size=\"14\">allocation + frequency vs time \
             (cores solid, DVFS level dashed)</text>"
        );
        let x_of = |t: SimTime| -> f64 {
            PAD_L + (t.as_nanos().saturating_sub(t0.as_nanos())) as f64 / span * (W - PAD_L - PAD_R)
        };
        for (i, &c) in containers.iter().enumerate() {
            let top = PAD_TOP + i as f64 * (STRIP_H + GAP);
            let bottom = top + STRIP_H;
            let _ = writeln!(
                out,
                "  <rect x=\"{PAD_L}\" y=\"{top:.1}\" width=\"{:.1}\" height=\"{STRIP_H}\" \
                 fill=\"#f8fafc\" stroke=\"#cbd5e1\"/>",
                W - PAD_L - PAD_R
            );
            let _ = writeln!(
                out,
                "  <text x=\"8\" y=\"{:.1}\">c{c}</text>",
                top + STRIP_H / 2.0
            );
            for (metric, color, dash) in [
                (MetricId::Cores, "#2563eb", ""),
                (MetricId::FreqLevel, "#f97316", " stroke-dasharray=\"5,3\""),
            ] {
                let Some(points) = self.series(c, metric) else {
                    continue;
                };
                let vmax = points
                    .iter()
                    .map(|p| p.value)
                    .fold(f64::NEG_INFINITY, f64::max)
                    .max(1.0);
                let y_of = |v: f64| -> f64 {
                    bottom - (v / vmax).clamp(0.0, 1.0) * (STRIP_H - 14.0) - 7.0
                };
                let mut path = String::new();
                let mut prev_y: Option<f64> = None;
                for p in points {
                    let x = x_of(p.at);
                    let y = y_of(p.value);
                    if let Some(py) = prev_y {
                        // Step rendering: hold the old value until this
                        // sample's time.
                        let _ = write!(path, "{x:.1},{py:.1} ");
                    }
                    let _ = write!(path, "{x:.1},{y:.1} ");
                    prev_y = Some(y);
                }
                let _ = writeln!(
                    out,
                    "  <polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" \
                     stroke-width=\"1.5\"{dash}/>",
                    path.trim_end()
                );
                let _ = writeln!(
                    out,
                    "  <text x=\"{:.1}\" y=\"{:.1}\" fill=\"{color}\">{} max {vmax:.0}</text>",
                    W - PAD_R - 150.0,
                    top + if metric == MetricId::Cores {
                        14.0
                    } else {
                        28.0
                    },
                    metric.name()
                );
            }
        }
        let _ = writeln!(
            out,
            "  <text x=\"{PAD_L}\" y=\"{:.1}\">{:.1} ms</text>",
            height - 14.0,
            t0.as_nanos() as f64 / 1e6
        );
        let _ = writeln!(
            out,
            "  <text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{:.1} ms</text>",
            W - PAD_R,
            height - 14.0,
            t1.as_nanos() as f64 / 1e6
        );
        let _ = writeln!(out, "</svg>");
        out
    }
}

/// Outcome of cross-checking a metrics stream against a decision trace.
#[derive(Debug, Default)]
pub struct ReconcileReport {
    /// Trace events confirmed visible in the gauge/counter series.
    pub checked: u64,
    /// Events superseded by a later event before the next sample could
    /// observe them (expected around rapid boost/retire churn).
    pub superseded: u64,
    /// Events after the last sample (run ended before the next sweep).
    pub tail_skipped: u64,
    /// Events lost by the metrics recording pipeline (testified
    /// in-stream); nonzero makes reconciliation unsound.
    pub metrics_dropped: u64,
    /// Events lost by the decision-trace pipeline.
    pub trace_dropped: u64,
    /// Hard failures: a trace event whose step never appeared.
    pub mismatches: Vec<String>,
}

impl ReconcileReport {
    /// True when every checkable event reconciled and nothing was
    /// dropped.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty() && self.metrics_dropped == 0 && self.trace_dropped == 0
    }

    /// Human-readable verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "reconcile: {} event(s) confirmed in gauge series, {} superseded, {} after last sample",
            self.checked, self.superseded, self.tail_skipped
        );
        if self.metrics_dropped > 0 || self.trace_dropped > 0 {
            let _ = writeln!(
                out,
                "  !! drops testified: {} metrics, {} trace",
                self.metrics_dropped, self.trace_dropped
            );
        }
        for m in &self.mismatches {
            let _ = writeln!(out, "  MISMATCH: {m}");
        }
        out
    }
}

/// Cross-check `metrics` against the decision `trace` (see the module
/// docs for the exact rules). `grace` absorbs sampler races at window
/// boundaries — one sampling interval is the natural choice.
pub fn reconcile(
    metrics: &TimelineSet,
    trace: &[TelemetryEvent],
    grace: SimDuration,
) -> ReconcileReport {
    let mut r = ReconcileReport {
        metrics_dropped: metrics.dropped,
        ..ReconcileReport::default()
    };
    let grace_ns = grace.as_nanos();

    // Regroup the trace per container, keeping file order (the supersede
    // rule depends on it for same-timestamp events).
    let mut allocs: BTreeMap<u32, Vec<(SimTime, u32, u8)>> = BTreeMap::new();
    let mut boosts: BTreeMap<u32, Vec<SimTime>> = BTreeMap::new();
    for event in trace {
        match event {
            TelemetryEvent::Alloc {
                at,
                container,
                cores,
                freq_level,
                ..
            } => allocs
                .entry(container.0)
                .or_default()
                .push((*at, *cores, *freq_level)),
            TelemetryEvent::FrBoost { at, dest, .. } => boosts.entry(dest.0).or_default().push(*at),
            TelemetryEvent::Dropped { count, .. } => r.trace_dropped += count,
            _ => {}
        }
    }

    // Gauge reconciliation: each alloc event's cores/freq must be the
    // value of the first strictly-later sample, unless a later event for
    // the same container lands before that sample (+grace) — then the
    // sample legitimately shows the newer state.
    for (&c, list) in &allocs {
        for (i, &(at, cores, freq)) in list.iter().enumerate() {
            for (metric, expected) in [
                (MetricId::Cores, cores as f64),
                (MetricId::FreqLevel, freq as f64),
            ] {
                let Some(s) = metrics.series(c, metric) else {
                    r.tail_skipped += 1;
                    continue;
                };
                let idx = s.partition_point(|p| p.at <= at);
                if idx == s.len() {
                    r.tail_skipped += 1;
                    continue;
                }
                let deadline_ns = s[idx].at.as_nanos() + grace_ns;
                if list[i + 1..]
                    .iter()
                    .any(|&(at2, _, _)| at2.as_nanos() <= deadline_ns)
                {
                    r.superseded += 1;
                    continue;
                }
                if (s[idx].value - expected).abs() > 1e-9 {
                    r.mismatches.push(format!(
                        "c{c} {}: event at {} ns set {}, but sample at {} ns reads {}",
                        metric.name(),
                        at.as_nanos(),
                        expected,
                        s[idx].at.as_nanos(),
                        s[idx].value
                    ));
                } else {
                    r.checked += 1;
                }
            }
        }
    }

    // Counter reconciliation, cumulative: by sample `i` the fr_boosts
    // counter must have reached the number of fr_boost events to the
    // container up to that sample (it may read more — downstream targets
    // step it without an event, and a live sweep can already include a
    // boost stamped just after it). Boosts within `grace` of the sweep
    // may surface one sample later.
    for (&c, times) in &boosts {
        let Some(s) = metrics.series(c, MetricId::FrBoosts) else {
            if metrics.samples > 0 {
                r.mismatches
                    .push(format!("c{c}: fr_boost events but no fr_boosts series"));
            } else {
                r.tail_skipped += times.len() as u64;
            }
            continue;
        };
        let mut counts = vec![0u64; s.len()];
        let mut shiftable = vec![0u64; s.len()];
        for &t in times {
            let idx = s.partition_point(|p| p.at < t);
            if idx == s.len() {
                r.tail_skipped += 1;
                continue;
            }
            counts[idx] += 1;
            if t.as_nanos() + grace_ns > s[idx].at.as_nanos() {
                shiftable[idx] += 1;
            }
        }
        // `events`: boosts stamped at or before sample i; `missing`:
        // deficits already reported (one lost step is flagged once).
        let (mut events, mut missing, mut visible) = (0u64, 0u64, 0u64);
        for i in 0..s.len() {
            if i > 0 && s[i].value - s[i - 1].value < -1e-9 {
                r.mismatches.push(format!(
                    "c{c} fr_boosts: counter decreased at {} ns ({} -> {})",
                    s[i].at.as_nanos(),
                    s[i - 1].value,
                    s[i].value
                ));
            }
            events += counts[i];
            visible = s[i].value.round().max(0.0) as u64 + missing;
            let due = events - shiftable[i];
            if visible < due {
                r.mismatches.push(format!(
                    "c{c} fr_boosts: {due} boost event(s) due by {} ns but counter reads {}",
                    s[i].at.as_nanos(),
                    s[i].value
                ));
                missing += due - visible;
                visible = due;
            }
        }
        // Boosts racing the final sweep have no later sample to show in.
        let unseen = events.saturating_sub(visible);
        r.tail_skipped += unseen;
        r.checked += events - missing - unseen;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricSample;
    use sg_core::ids::{ContainerId, NodeId};

    fn metric(at_ms: u64, container: u32, metric: MetricId, value: f64) -> TelemetryEvent {
        TelemetryEvent::Metric(MetricSample {
            at: SimTime::from_millis(at_ms),
            node: NodeId(0),
            container: ContainerId(container),
            metric,
            value,
        })
    }

    fn alloc(at_ms: u64, container: u32, cores: u32, freq: u8) -> TelemetryEvent {
        TelemetryEvent::Alloc {
            at: SimTime::from_millis(at_ms),
            container: ContainerId(container),
            cores,
            freq_level: freq,
            freq_ghz: 1.8,
        }
    }

    fn boost(at_ms: u64, dest: u32) -> TelemetryEvent {
        TelemetryEvent::FrBoost {
            at: SimTime::from_millis(at_ms),
            node: NodeId(0),
            dest: ContainerId(dest),
            slack_ns: -1000,
            level: 8,
            targets: 1,
        }
    }

    fn grace() -> SimDuration {
        SimDuration::from_millis(1)
    }

    #[test]
    fn timeline_set_regroups_and_orders_series() {
        let events = vec![
            TelemetryEvent::MetricsMeta {
                version: 1,
                interval_ns: 100,
            },
            metric(200, 1, MetricId::Cores, 3.0),
            metric(100, 1, MetricId::Cores, 2.0), // out of order: sorted
            metric(100, 2, MetricId::FreqLevel, 0.0),
        ];
        let set = TimelineSet::from_events(&events);
        assert_eq!(set.version, Some(1));
        assert_eq!(set.samples, 3);
        assert_eq!(set.containers(), vec![1, 2]);
        let s = set.series(1, MetricId::Cores).unwrap();
        assert_eq!(s[0].value, 2.0);
        assert_eq!(s[1].value, 3.0);
        assert_eq!(
            set.value_at(1, MetricId::Cores, SimTime::from_millis(150)),
            Some(2.0)
        );
        assert_eq!(
            set.value_at(1, MetricId::Cores, SimTime::from_millis(50)),
            None
        );
        assert_eq!(set.median_interval(), Some(SimDuration::from_millis(100)));
    }

    #[test]
    fn reconcile_confirms_visible_steps() {
        let metrics = TimelineSet::from_events(&[
            metric(100, 0, MetricId::Cores, 2.0),
            metric(100, 0, MetricId::FreqLevel, 0.0),
            metric(200, 0, MetricId::Cores, 4.0),
            metric(200, 0, MetricId::FreqLevel, 0.0),
        ]);
        // Core change at 150 ms is visible in the 200 ms sample.
        let trace = vec![alloc(150, 0, 4, 0)];
        let r = reconcile(&metrics, &trace, grace());
        assert!(r.passed(), "{}", r.render());
        assert_eq!(r.checked, 2);
    }

    #[test]
    fn reconcile_flags_missing_steps() {
        let metrics = TimelineSet::from_events(&[
            metric(100, 0, MetricId::Cores, 2.0),
            metric(200, 0, MetricId::Cores, 2.0), // never moved
        ]);
        let trace = vec![alloc(150, 0, 4, 0)];
        let r = reconcile(&metrics, &trace, grace());
        assert!(!r.passed());
        // One mismatch for the cores gauge; the freq_level series is
        // absent entirely, which counts as unobservable, not wrong.
        assert_eq!(r.mismatches.len(), 1, "{:?}", r.mismatches);
        assert!(r.mismatches[0].contains("cores"));
        assert_eq!(r.tail_skipped, 1);
    }

    #[test]
    fn superseded_events_are_excused() {
        let metrics = TimelineSet::from_events(&[
            metric(100, 0, MetricId::Cores, 2.0),
            metric(200, 0, MetricId::Cores, 6.0),
            metric(100, 0, MetricId::FreqLevel, 0.0),
            metric(200, 0, MetricId::FreqLevel, 0.0),
        ]);
        // 4-core step at 150 ms was overwritten at 170 ms, before the
        // 200 ms sample could see it.
        let trace = vec![alloc(150, 0, 4, 0), alloc(170, 0, 6, 0)];
        let r = reconcile(&metrics, &trace, grace());
        assert!(r.passed(), "{}", r.render());
        assert!(r.superseded >= 1);
    }

    #[test]
    fn events_after_the_last_sample_are_skipped() {
        let metrics = TimelineSet::from_events(&[metric(100, 0, MetricId::Cores, 2.0)]);
        let trace = vec![alloc(150, 0, 4, 0)];
        let r = reconcile(&metrics, &trace, grace());
        assert!(r.passed(), "{}", r.render());
        assert_eq!(r.tail_skipped, 2);
        assert_eq!(r.checked, 0);
    }

    #[test]
    fn boost_counter_steps_cover_boost_events() {
        let metrics = TimelineSet::from_events(&[
            metric(100, 0, MetricId::FrBoosts, 0.0),
            metric(200, 0, MetricId::FrBoosts, 2.0),
            metric(300, 0, MetricId::FrBoosts, 2.0),
        ]);
        let trace = vec![boost(120, 0), boost(130, 0)];
        let r = reconcile(&metrics, &trace, grace());
        assert!(r.passed(), "{}", r.render());
        assert_eq!(r.checked, 2);

        // A third boost with no counter step is a mismatch.
        let trace = vec![boost(120, 0), boost(130, 0), boost(250, 0)];
        let r = reconcile(&metrics, &trace, grace());
        assert!(!r.passed());
        assert!(r.mismatches[0].contains("fr_boosts"), "{:?}", r.mismatches);
    }

    #[test]
    fn boundary_boosts_may_surface_one_window_later() {
        // Boost lands exactly at the 200 ms sweep time; the counter only
        // shows it at 300 ms (the sampler read before the boost landed).
        let metrics = TimelineSet::from_events(&[
            metric(100, 0, MetricId::FrBoosts, 0.0),
            metric(200, 0, MetricId::FrBoosts, 0.0),
            metric(300, 0, MetricId::FrBoosts, 1.0),
        ]);
        let trace = vec![boost(200, 0)];
        let r = reconcile(&metrics, &trace, grace());
        assert!(r.passed(), "{}", r.render());
    }

    #[test]
    fn early_visible_boost_pays_a_later_window() {
        // A live sweep stamped 200 ms reads the counter a little later and
        // already includes the 201 ms boost: a surplus, not a later deficit.
        let metrics = TimelineSet::from_events(&[
            metric(100, 0, MetricId::FrBoosts, 0.0),
            metric(200, 0, MetricId::FrBoosts, 1.0),
            metric(300, 0, MetricId::FrBoosts, 1.0),
            metric(400, 0, MetricId::FrBoosts, 1.0),
        ]);
        for grace in [SimDuration::ZERO, SimDuration::from_millis(150)] {
            let r = reconcile(&metrics, &[boost(201, 0)], grace);
            assert!(r.passed(), "{}", r.render());
            assert_eq!(r.checked, 1);
        }
    }

    #[test]
    fn testified_drops_fail_reconciliation() {
        let metrics = TimelineSet::from_events(&[
            metric(100, 0, MetricId::Cores, 2.0),
            TelemetryEvent::Dropped {
                count: 5,
                family: Some(crate::event::EventFamily::Metrics),
            },
        ]);
        let r = reconcile(&metrics, &[], grace());
        assert!(!r.passed());
        assert_eq!(r.metrics_dropped, 5);
    }

    #[test]
    fn renderings_cover_the_series() {
        let set = TimelineSet::from_events(&[
            metric(100, 0, MetricId::Cores, 2.0),
            metric(200, 0, MetricId::Cores, 4.0),
            metric(100, 0, MetricId::FreqLevel, 0.0),
            metric(200, 0, MetricId::FreqLevel, 8.0),
            metric(100, 0, MetricId::QueueBuildup, 1.0),
            metric(200, 0, MetricId::QueueBuildup, 2.5),
        ]);
        let table = set.render_tables(16);
        assert!(table.contains("container c0"), "{table}");
        assert!(table.contains("cores"), "{table}");
        let ascii = set.render_ascii(40);
        assert!(ascii.contains("cores"), "{ascii}");
        assert!(ascii.contains('|'), "{ascii}");
        let svg = set.render_svg();
        assert!(svg.starts_with("<svg"), "{svg}");
        assert!(svg.contains("polyline"), "{svg}");
        assert!(svg.trim_end().ends_with("</svg>"), "{svg}");
        // Empty set still renders valid stubs.
        let empty = TimelineSet::from_events(&[]);
        assert!(empty.render_svg().contains("no samples"));
        assert!(empty.render_ascii(40).contains("no samples"));
    }
}
