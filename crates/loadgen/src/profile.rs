//! Arrival profiles beyond the periodic spike: diurnal curves, MMPP
//! bursts, and trace-driven load.
//!
//! The paper's evaluation drives every experiment with the wrk2-style
//! periodic spike ([`crate::SpikePattern`]). Real services see other
//! shapes: day/night cycles, bursty status-shifting load (StatuScale,
//! arXiv:2407.10173), and whatever a production trace happened to record.
//! [`ArrivalProfile`] is the common abstraction: every variant renders to
//! a deterministic arrival schedule over `[start, end)` — a pure function
//! of the profile (and its embedded seed), so schedules are byte-identical
//! across reruns and thread counts, matching the parallel-harness
//! determinism contract.
//!
//! Every family renders through [`ArrivalProfile::stream`]: the spike,
//! diurnal and trace shapes decompose into constant-rate segments that
//! the stream paces by arrival index, and MMPP runs its seeded generator
//! there.

use crate::spike::SpikePattern;
use sg_core::arrivals::ArrivalSource;
use sg_core::time::{SimDuration, SimTime};

/// A piecewise-constant day/night request-rate cycle.
///
/// `steps` is one full cycle: `(length, rate)` segments applied in order
/// and repeated forever from time zero. Experiments compress a "day" into
/// tens of seconds; the shape, not the wall duration, is what exercises a
/// scaling policy.
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalCurve {
    steps: Vec<(SimDuration, f64)>,
}

impl DiurnalCurve {
    /// Build a curve from explicit `(length, rate)` steps.
    pub(crate) fn new(steps: Vec<(SimDuration, f64)>) -> Self {
        assert!(!steps.is_empty(), "diurnal curve needs at least one step");
        assert!(
            steps
                .iter()
                .all(|&(len, rate)| !len.is_zero() && rate > 0.0),
            "diurnal steps need positive length and rate"
        );
        DiurnalCurve { steps }
    }

    /// The canonical day/night shape: night trough at `night_rate`, day
    /// plateau at `day_rate`, with half-way ramps in between — four equal
    /// quarters of `cycle` (night, morning, day, evening).
    pub(crate) fn day_night(night_rate: f64, day_rate: f64, cycle: SimDuration) -> Self {
        let quarter = SimDuration::from_nanos((cycle.as_nanos() / 4).max(1));
        let mid = (night_rate + day_rate) / 2.0;
        DiurnalCurve::new(vec![
            (quarter, night_rate),
            (quarter, mid),
            (quarter, day_rate),
            (quarter, mid),
        ])
    }

    /// Length of one full cycle.
    pub(crate) fn cycle_len(&self) -> SimDuration {
        self.steps
            .iter()
            .fold(SimDuration::ZERO, |acc, &(len, _)| acc + len)
    }

    /// Constant-rate segments covering `[start, end)`, clamped to the
    /// window: each step boundary (cycles repeat from time zero) starts a
    /// fresh segment.
    pub(crate) fn segments(&self, start: SimTime, end: SimTime) -> Vec<(SimTime, SimTime, f64)> {
        let mut segs = Vec::new();
        let cycle = self.cycle_len().as_nanos();
        // First step boundary at or before `start`.
        let mut seg_start = SimTime::from_nanos(t_floor(start.as_nanos(), cycle));
        'outer: loop {
            for &(len, rate) in &self.steps {
                let seg_end = seg_start + len;
                if seg_end > start {
                    segs.push((seg_start.max(start), seg_end.min(end), rate));
                }
                seg_start = seg_end;
                if seg_start >= end {
                    break 'outer;
                }
            }
        }
        segs
    }
}

/// Largest multiple of `cycle` that is `<= t`.
fn t_floor(t: u64, cycle: u64) -> u64 {
    (t / cycle) * cycle
}

/// A 2-state Markov-modulated Poisson process: the workhorse bursty
/// arrival model. The process alternates between a low-rate and a
/// high-rate state with exponentially distributed dwell times; within a
/// state, arrivals are Poisson at the state's rate. Fully determined by
/// the embedded seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Mmpp {
    /// Arrival rate (req/s) in the quiet state.
    pub low_rate: f64,
    /// Arrival rate (req/s) in the burst state.
    pub high_rate: f64,
    /// Mean dwell time in the quiet state.
    pub mean_dwell_low: SimDuration,
    /// Mean dwell time in the burst state.
    pub mean_dwell_high: SimDuration,
    /// RNG seed: the schedule is a pure function of `(self, start, end)`.
    pub seed: u64,
}

impl Mmpp {
    /// A bursty profile around `base_rate`: quiet at `0.7×` with 2 s mean
    /// dwell, bursting to `2.2×` for 500 ms mean dwell — the weights are
    /// chosen so the long-run mean rate is exactly `base_rate`.
    pub fn bursty(base_rate: f64, seed: u64) -> Self {
        Mmpp {
            low_rate: 0.7 * base_rate,
            high_rate: 2.2 * base_rate,
            mean_dwell_low: SimDuration::from_secs(2),
            mean_dwell_high: SimDuration::from_millis(500),
            seed,
        }
    }
}

/// A piecewise-constant rate timeline read from a CSV trace — the
/// Google-cluster-trace-style workload input. Each row is
/// `offset_seconds,requests_per_second`; the rate holds from its offset
/// until the next row's. The trace repeats cyclically when the run window
/// outlives it, so a short committed sample can drive a long experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProfile {
    /// `(offset from trace start, rate)` breakpoints, strictly increasing.
    points: Vec<(SimDuration, f64)>,
    /// Total trace length (the last segment is as long as its
    /// predecessor, or 1 s for a single-row trace).
    len: SimDuration,
}

impl TraceProfile {
    /// Parse a trace from CSV text. Lines starting with `#` and a
    /// non-numeric header row are skipped.
    pub(crate) fn from_csv_str(text: &str) -> Result<Self, String> {
        let mut points: Vec<(SimDuration, f64)> = Vec::new();
        let mut last_line = 0;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut cols = line.split(',').map(str::trim);
            let (Some(a), Some(b)) = (cols.next(), cols.next()) else {
                return Err(format!("trace line {}: expected 2 columns", lineno + 1));
            };
            let (Ok(off_s), Ok(rate)) = (a.parse::<f64>(), b.parse::<f64>()) else {
                if points.is_empty() {
                    continue; // header row
                }
                return Err(format!("trace line {}: non-numeric row", lineno + 1));
            };
            if !off_s.is_finite() || off_s < 0.0 || !rate.is_finite() || rate <= 0.0 {
                return Err(format!(
                    "trace line {}: offsets must be finite and >= 0, rates positive",
                    lineno + 1
                ));
            }
            let off = SimDuration::from_secs_f64(off_s);
            if let Some(&(prev, _)) = points.last() {
                if off <= prev {
                    return Err(format!(
                        "trace line {}: offsets must be strictly increasing",
                        lineno + 1
                    ));
                }
            }
            points.push((off, rate));
            last_line = lineno + 1;
        }
        let Some(&(last, _)) = points.last() else {
            return Err("trace has no data rows".into());
        };
        let tail = match points.len() {
            1 => SimDuration::from_secs(1),
            n => last - points[n - 2].0,
        };
        // A huge (but finite) offset saturates `from_secs_f64`; the length
        // must not wrap around it.
        let len = last
            .as_nanos()
            .checked_add(tail.as_nanos())
            .map(SimDuration::from_nanos)
            .ok_or_else(|| format!("trace line {last_line}: offset out of range"))?;
        Ok(TraceProfile { points, len })
    }

    /// Load a trace from a CSV file on disk.
    pub(crate) fn load(path: &str) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read trace {path}: {e}"))?;
        Self::from_csv_str(&text)
    }

    /// Time-weighted mean rate over one trace period.
    pub(crate) fn mean_rate(&self) -> f64 {
        let mut weighted = 0.0;
        for (i, &(off, rate)) in self.points.iter().enumerate() {
            let seg_end = self.points.get(i + 1).map(|&(o, _)| o).unwrap_or(self.len);
            weighted += rate * (seg_end - off).as_secs_f64();
        }
        weighted / self.len.as_secs_f64()
    }

    /// Rescale all rates so the trace's mean rate equals `target` —
    /// calibrated workloads keep their knee-anchored base rate while the
    /// trace contributes only its *shape*.
    pub(crate) fn scaled_to_mean(mut self, target: f64) -> Self {
        assert!(target > 0.0, "target mean rate must be positive");
        let k = target / self.mean_rate();
        for (_, rate) in &mut self.points {
            *rate *= k;
        }
        self
    }

    /// Constant-rate segments covering `[start, end)`, clamped to the
    /// window (the trace repeats cyclically).
    pub(crate) fn segments(&self, start: SimTime, end: SimTime) -> Vec<(SimTime, SimTime, f64)> {
        let mut segs = Vec::new();
        let cycle = self.len.as_nanos();
        let mut cycle_start = SimTime::from_nanos(t_floor(start.as_nanos(), cycle));
        'outer: loop {
            for (i, &(off, rate)) in self.points.iter().enumerate() {
                let seg_start = cycle_start + off;
                let seg_end =
                    cycle_start + self.points.get(i + 1).map(|&(o, _)| o).unwrap_or(self.len);
                if seg_end > start && seg_start < end {
                    segs.push((seg_start.max(start), seg_end.min(end), rate));
                }
                if seg_start >= end {
                    break 'outer;
                }
            }
            cycle_start += self.len;
            if cycle_start >= end {
                break;
            }
        }
        segs
    }
}

/// The profile abstraction behind `--profile`: every variant renders to a
/// deterministic arrival schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProfile {
    /// The paper's periodic-spike protocol (or a constant rate).
    Spike(SpikePattern),
    /// Piecewise day/night cycle.
    Diurnal(DiurnalCurve),
    /// 2-state Markov-modulated Poisson bursts.
    Mmpp(Mmpp),
    /// Trace-driven piecewise-constant rate.
    Trace(TraceProfile),
}

impl ArrivalProfile {
    /// Parse a `--profile` spec: `spike`, `diurnal`, `mmpp`, or
    /// `trace:PATH`. `spike_pattern` supplies the spike protocol (and its
    /// base rate anchors the synthetic variants: diurnal swings
    /// 0.6–1.6×, MMPP bursts 0.7→2.2× with mean exactly 1×, traces are
    /// rescaled so their mean rate equals the base rate).
    pub fn parse(spec: &str, spike_pattern: SpikePattern, seed: u64) -> Result<Self, String> {
        let base = spike_pattern.base_rate;
        match spec {
            "spike" => Ok(ArrivalProfile::Spike(spike_pattern)),
            "diurnal" => Ok(ArrivalProfile::Diurnal(DiurnalCurve::day_night(
                0.6 * base,
                1.6 * base,
                SimDuration::from_secs(60),
            ))),
            "mmpp" => Ok(ArrivalProfile::Mmpp(Mmpp::bursty(base, seed))),
            other => match other.strip_prefix("trace:") {
                Some(path) => {
                    TraceProfile::load(path).map(|t| ArrivalProfile::Trace(t.scaled_to_mean(base)))
                }
                None => Err(format!(
                    "unknown profile '{other}' (expected spike, diurnal, mmpp, or trace:PATH)"
                )),
            },
        }
    }

    /// Profile family name, for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalProfile::Spike(_) => "spike",
            ArrivalProfile::Diurnal(_) => "diurnal",
            ArrivalProfile::Mmpp(_) => "mmpp",
            ArrivalProfile::Trace(_) => "trace",
        }
    }

    /// Render the deterministic arrival schedule over `[start, end)`: the
    /// whole of [`ArrivalProfile::stream`], collected.
    pub fn arrivals(&self, start: SimTime, end: SimTime) -> Vec<SimTime> {
        let mut out = Vec::new();
        self.stream(start, end).next_chunk(&mut out, usize::MAX);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rate of the one segment covering `[s, s + 1 ns)`, `s` in seconds.
    fn rate_at(segs: impl Fn(SimTime, SimTime) -> Vec<(SimTime, SimTime, f64)>, s: u64) -> f64 {
        let t = SimTime::from_secs(s);
        let segs = segs(t, t + SimDuration::from_nanos(1));
        assert_eq!(segs.len(), 1, "{segs:?}");
        segs[0].2
    }

    #[test]
    fn diurnal_rate_follows_steps() {
        let c = DiurnalCurve::day_night(600.0, 1600.0, SimDuration::from_secs(60));
        let at = |s| rate_at(|a, b| c.segments(a, b), s);
        assert_eq!(c.cycle_len(), SimDuration::from_secs(60));
        assert_eq!(at(0), 600.0);
        assert_eq!(at(20), 1100.0);
        assert_eq!(at(35), 1600.0);
        assert_eq!(at(50), 1100.0);
        // Cycles repeat.
        assert_eq!(at(95), 1600.0);
    }

    #[test]
    fn diurnal_mean_rate_converges_within_one_percent() {
        let c = DiurnalCurve::day_night(600.0, 1600.0, SimDuration::from_secs(60));
        let dur = 600.0; // 10 cycles
        let a = ArrivalProfile::Diurnal(c).arrivals(SimTime::ZERO, SimTime::from_secs(600));
        let realized = a.len() as f64 / dur;
        // Four equal quarters at 600, 1100, 1600, 1100 req/s.
        let mean = 1100.0;
        let err = (realized - mean).abs() / mean;
        assert!(err < 0.01, "diurnal mean off by {:.3}%", err * 100.0);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn diurnal_windows_not_aligned_to_cycle() {
        let c = DiurnalCurve::day_night(100.0, 300.0, SimDuration::from_secs(40));
        let c = ArrivalProfile::Diurnal(c);
        let a = c.arrivals(SimTime::from_secs(95), SimTime::from_secs(130));
        assert!(!a.is_empty());
        assert!(*a.first().unwrap() >= SimTime::from_secs(95));
        assert!(*a.last().unwrap() < SimTime::from_secs(130));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        // Suffix property: a window starting mid-cycle reproduces the tail
        // of the full schedule (deterministic pacing is anchored to step
        // boundaries, not the query window).
        let full = c.arrivals(SimTime::ZERO, SimTime::from_secs(130));
        let tail: Vec<_> = full
            .iter()
            .copied()
            .filter(|&t| t >= SimTime::from_secs(95))
            .collect();
        assert_eq!(a, tail);
    }

    #[test]
    fn mmpp_is_seed_deterministic_and_seed_sensitive() {
        let m = ArrivalProfile::Mmpp(Mmpp::bursty(1000.0, 42));
        let a = m.arrivals(SimTime::ZERO, SimTime::from_secs(30));
        let b = m.arrivals(SimTime::ZERO, SimTime::from_secs(30));
        assert_eq!(a, b, "same seed must give byte-identical schedules");
        let c = ArrivalProfile::Mmpp(Mmpp::bursty(1000.0, 43))
            .arrivals(SimTime::ZERO, SimTime::from_secs(30));
        assert_ne!(a, c, "different seeds must differ");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    /// The PR 4 parallel-harness contract: schedules generated on worker
    /// threads are byte-identical to the serial ones.
    #[test]
    fn mmpp_schedules_identical_across_threads() {
        let schedule = || {
            ArrivalProfile::Mmpp(Mmpp::bursty(2000.0, 7))
                .arrivals(SimTime::ZERO, SimTime::from_secs(10))
        };
        let serial = schedule();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let expect = serial.clone();
                std::thread::spawn(move || schedule() == expect)
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap(), "thread-generated schedule diverged");
        }
    }

    #[test]
    fn mmpp_mean_rate_converges_within_one_percent() {
        // Short dwells → many state cycles → tight convergence. The
        // schedule is seeded and thus deterministic; this pins that the
        // generator's realized mean matches its analytic mean.
        let m = ArrivalProfile::Mmpp(Mmpp {
            low_rate: 700.0,
            high_rate: 2200.0,
            mean_dwell_low: SimDuration::from_millis(500),
            mean_dwell_high: SimDuration::from_millis(125),
            seed: 11,
        });
        let dur = 600.0;
        let a = m.arrivals(SimTime::ZERO, SimTime::from_secs(600));
        let realized = a.len() as f64 / dur;
        // Dwell-weighted: (700 × 0.5 + 2200 × 0.125) / 0.625 = 1000.
        let mean = 1000.0;
        let err = (realized - mean).abs() / mean;
        assert!(err < 0.01, "mmpp mean off by {:.3}%", err * 100.0);
    }

    #[test]
    fn trace_parses_scales_and_loops() {
        let t = TraceProfile::from_csv_str("# demo trace\ntime_s,rate\n0,100\n10,300\n20,200\n")
            .unwrap();
        let at = |s| rate_at(|a, b| t.segments(a, b), s);
        assert!((t.mean_rate() - 200.0).abs() < 1e-9);
        assert_eq!(at(5), 100.0);
        assert_eq!(at(15), 300.0);
        assert_eq!(at(25), 200.0);
        // Cyclic repetition: the trace is 30 s long.
        assert_eq!(at(35), 100.0);

        let scaled = t.clone().scaled_to_mean(1000.0);
        assert!((scaled.mean_rate() - 1000.0).abs() < 1e-6);

        // Arrival counts per segment are exact (index pacing).
        let a = ArrivalProfile::Trace(t).arrivals(SimTime::ZERO, SimTime::from_secs(60));
        assert_eq!(a.len(), 2 * (1000 + 3000 + 2000));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn trace_rejects_garbage() {
        assert!(TraceProfile::from_csv_str("").is_err());
        assert!(TraceProfile::from_csv_str("# only comments\n").is_err());
        assert!(
            TraceProfile::from_csv_str("0,100\n0,200\n").is_err(),
            "non-increasing offsets"
        );
        assert!(
            TraceProfile::from_csv_str("0,-5\n").is_err(),
            "negative rate"
        );
        assert!(TraceProfile::from_csv_str("0,100\nbogus,row\n").is_err());
        // Non-finite and saturating offsets: an error, not a wrapped length.
        assert!(TraceProfile::from_csv_str("0,100\ninf,200").is_err());
        assert!(TraceProfile::from_csv_str("nan,100").is_err());
        assert_eq!(
            TraceProfile::from_csv_str("0,100\n1e300,200"),
            Err("trace line 2: offset out of range".into())
        );
    }

    #[test]
    fn profile_parse_dispatches() {
        let spike = SpikePattern::constant(1000.0);
        assert_eq!(
            ArrivalProfile::parse("spike", spike, 1).unwrap().label(),
            "spike"
        );
        let d = ArrivalProfile::parse("diurnal", spike, 1).unwrap();
        assert_eq!(d.label(), "diurnal");
        let m = ArrivalProfile::parse("mmpp", spike, 1).unwrap();
        assert_eq!(m.label(), "mmpp");
        // Quiet 0.7× for 2 s, bursting 2.2× for 0.5 s: a mean of exactly 1×.
        assert_eq!(m, ArrivalProfile::Mmpp(Mmpp::bursty(1000.0, 1)));
        assert!(ArrivalProfile::parse("nope", spike, 1).is_err());
        assert!(ArrivalProfile::parse("trace:/no/such/file.csv", spike, 1).is_err());
    }
}
