//! The five pinned workloads and the run that measures one of them.
//!
//! A run is: set-up several times (median → `setup_s`), one *plain*
//! pass of the timed region with every observer off (→ the end-to-end
//! metrics), and — with `--trace 1` only — a second, *traced* pass with
//! the wrappers, the product's own profilers and the span recorder on,
//! followed by the drills (→ the per-layer metrics). End-to-end numbers
//! never come from the traced pass.
//!
//! Work is sized from `--seconds` with the constants below, measured on
//! the reference host (README.md), so that a run does the same work
//! every time and the sim digests repeat exactly.
//!
//! This host slows down in bursts of about a second that no process
//! counter shows, so every scored rate is built from medians: a sim
//! workload repeats each of its trials and charges each its median
//! time; a live workload takes the median over one-second windows.

use crate::adapter::{self, App, Ctl, CtlTimes, Family, Observe, SimOut, StreamFiles};
use crate::latency;
use crate::procstat;
use crate::spec::Spec;
use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Wall seconds one seed of `sim_trials` (12 trials) takes here.
const TRIALS_WALL_S_PER_SEED: f64 = 6.2;
/// One `sim_cluster` run: 8 simulated seconds (one 2× spike, 0.9 M
/// requests — the points log settles at 2^20 entries with room to
/// spare), which takes this many wall seconds here.
const CLUSTER_SIM_S_PER_RUN: f64 = 8.0;
const CLUSTER_WALL_S_PER_RUN: f64 = 0.9;
/// Wall seconds one `sim_observed` trial takes here, read side included.
const OBSERVED_WALL_S_PER_TRIAL: f64 = 3.0;
/// `setup_s` is the median over at least this many set-ups, and over as
/// many more (up to the cap) as fit in the time budget — a set-up of
/// half a millisecond needs many repetitions to read steadily.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 200;
const SETUP_BUDGET_S: f64 = 1.0;
/// Wall may exceed process CPU by this share before a single-threaded
/// pass counts as disturbed by something else on the host.
const DISTURBED_WALL_OVER_CPU: f64 = 1.10;
const DISTURBED_RETRIES: usize = 2;

/// Where the harness may write: `benchmark/out/` of the checkout that
/// built it.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// The contract's arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one pass over the timed region produced.
#[derive(Default)]
struct Pass {
    attempted: u64,
    failed: u64,
    /// `sim_req_per_s`: completions per wall second of the timed work.
    rate_rps: f64,
    /// `goodput_rps`: useful completions per second of the substrate's
    /// clock (sim: simulated seconds; live: wall seconds).
    goodput_rps: f64,
    /// `lat_p50_us`, `lat_p99_us`: sim — the modelled client latency;
    /// live — client latency from due time.
    lat_p50_us: f64,
    lat_p99_us: f64,
    /// `peak_rss_mb`: `VmHWM` once every kind of unit has run once. Later
    /// repetitions add only allocator fragmentation, which moves the
    /// high-water mark by 10 % from one process to the next.
    peak_rss_mb: f64,
    digest: Option<u64>,
    checks: Vec<String>,
    layer: BTreeMap<&'static str, f64>,
}

/// A pass plus what the driver measured around it.
struct Timed {
    pass: Pass,
    wall_s: f64,
    cpu_s: f64,
}

trait Bench: Sized {
    /// Single-threaded: wall ≈ CPU unless the host disturbed the pass.
    const SINGLE_THREADED: bool;
    fn setup(seed: u64, seconds: f64, tr: &mut Tracer) -> Self;
    fn pass(&self, traced: bool, tr: &mut Tracer) -> Pass;
    fn drills() -> Vec<adapter::DrillCtor>;
}

fn fold_digest(acc: u64, d: u64) -> u64 {
    (acc ^ d)
        .wrapping_mul(0x0000_0100_0000_01b3)
        .rotate_left(17)
}

/// One timed unit of a sim workload: a trial, with everything the
/// workload does for it.
struct Unit {
    /// Units of one kind do the same work (same application, controller
    /// and schedule; the seed differs).
    kind: usize,
    wall_ns: u64,
    out: SimOut,
}

/// Fill in the end-to-end readings of a sim pass from its units. Each
/// kind of unit is charged its median time over the pass's repetitions
/// of it, so a burst of interference that slows one repetition does not
/// move the rate.
fn score_units(units: &[Unit], pass: &mut Pass) {
    let kinds = units.iter().map(|u| u.kind).max().map_or(0, |k| k + 1);
    let (mut completed, mut wall_ns) = (0.0, 0.0);
    for kind in 0..kinds {
        let of_kind = |f: fn(&Unit) -> u64| {
            let v: Vec<u64> = units.iter().filter(|u| u.kind == kind).map(f).collect();
            latency::median_of(&v)
        };
        completed += of_kind(|u| u.out.completed);
        wall_ns += of_kind(|u| u.wall_ns);
    }
    // What the simulator predicted is exact and repeats for a seed, so
    // no median is needed; the geometric mean keeps the one kind of
    // trial with a 100 ms tail from owning the figure.
    let total = |f: fn(&Unit) -> u64| units.iter().map(f).sum::<u64>() as f64;
    let geo_mean_us = |f: fn(&Unit) -> u64| {
        let logs: f64 = units.iter().map(|u| (f(u).max(1) as f64).ln()).sum();
        (logs / units.len().max(1) as f64).exp() / 1e3
    };
    pass.rate_rps = completed / (wall_ns / 1e9);
    pass.goodput_rps = total(|u| u.out.within_qos) / (total(|u| u.out.window_ns) / 1e9);
    pass.lat_p50_us = geo_mean_us(|u| u.out.lat_p50_ns);
    pass.lat_p99_us = geo_mean_us(|u| u.out.lat_p99_ns);
    pass.attempted = units.iter().map(|u| u.out.injected).sum();
    pass.failed = units.iter().map(|u| u.out.injected - u.out.completed).sum();
    pass.digest = Some(
        units
            .iter()
            .fold(0, |acc, u| fold_digest(acc, u.out.digest)),
    );
    for u in units {
        if u.out.completed != u.out.injected || u.out.dropped != 0 {
            pass.checks.push(format!(
                "unit of kind {}: injected {} completed {} dropped {}",
                u.kind, u.out.injected, u.out.completed, u.out.dropped
            ));
        }
    }
}

/// Sums over the sim runs of one pass, and the per-layer metrics every
/// sim workload derives from them.
#[derive(Default)]
struct SimTotals {
    runs: u64,
    injected: u64,
    completed: u64,
    events: u64,
    boosts: u64,
    arrivals_ns: u64,
    new_ns: u64,
    run_ns: u64,
    report_ns: u64,
    phase_ns: BTreeMap<&'static str, u64>,
    pending_high_water: u64,
    invocation_high_water: u64,
}

/// `num / den`, 0 when there was nothing to divide by.
fn per(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl SimTotals {
    fn of(units: &[Unit]) -> SimTotals {
        let mut totals = SimTotals::default();
        for u in units {
            totals.add(&u.out);
        }
        totals
    }

    fn add(&mut self, out: &SimOut) {
        self.runs += 1;
        self.injected += out.injected;
        self.completed += out.completed;
        self.events += out.events;
        self.boosts += out.boosts;
        self.arrivals_ns += out.arrivals_ns;
        self.new_ns += out.new_ns;
        self.run_ns += out.run_ns;
        self.report_ns += out.report_ns;
        if let Some(p) = &out.profile {
            for (name, ns) in &p.phase_ns {
                *self.phase_ns.entry(name).or_default() += ns;
            }
            self.pending_high_water = self.pending_high_water.max(p.pending_high_water);
            self.invocation_high_water = self.invocation_high_water.max(p.invocation_high_water);
        }
    }

    fn layer(&self, layer: &mut BTreeMap<&'static str, f64>) {
        let runs = self.runs.max(1) as f64;
        layer.insert(
            "loadgen.arrivals_ns_per_req",
            per(self.arrivals_ns, self.injected),
        );
        layer.insert("loadgen.report_ms", self.report_ns as f64 / 1e6 / runs);
        layer.insert("sim.new_ms", self.new_ns as f64 / 1e6 / runs);
        layer.insert("sim.run_ms", self.run_ns as f64 / 1e6 / runs);
        layer.insert("sim.events", self.events as f64);
        layer.insert("sim.events_per_req", per(self.events, self.completed));
        layer.insert("sim.ns_per_event", per(self.run_ns, self.events));
        layer.insert(
            "sim.engine.pending_high_water",
            self.pending_high_water as f64,
        );
        layer.insert(
            "sim.runner.invocation_high_water",
            self.invocation_high_water as f64,
        );
        let dispatch: u64 = self.phase_ns.values().sum();
        for (metric, phase) in [
            ("sim.runner.arrival_share", "sim_arrival"),
            ("sim.runner.deliver_request_share", "sim_deliver_request"),
            ("sim.runner.deliver_response_share", "sim_deliver_response"),
            ("sim.runner.phase_complete_share", "sim_phase_complete"),
            ("sim.runner.controller_tick_share", "sim_controller_tick"),
            ("sim.runner.freq_apply_share", "sim_freq_apply"),
        ] {
            let ns = self.phase_ns.get(phase).copied().unwrap_or(0);
            layer.insert(metric, per(ns, dispatch));
        }
    }
}

/// Per-arm controller timings gathered by the wrapper, as metrics.
/// `busy_ns` is the time the substrate ran, the base of the share.
fn controller_layer(
    times: &[(Ctl, Arc<CtlTimes>)],
    boosts: u64,
    busy_ns: u64,
    layer: &mut BTreeMap<&'static str, f64>,
) {
    let (mut ticks, mut packets, mut actions, mut inside_ns) = (0, 0, 0, 0);
    for (ctl, t) in times {
        ticks += t.tick.count();
        packets += t.packet.count();
        actions += t.actions.load(Ordering::Relaxed);
        inside_ns += t.tick.sum_ns() + t.packet.sum_ns();
        let (p50, p99) = match ctl {
            Ctl::SurgeGuard => (
                "controllers.tick_us.surgeguard",
                "controllers.tick_p99_us.surgeguard",
            ),
            Ctl::Parties => (
                "controllers.tick_us.parties",
                "controllers.tick_p99_us.parties",
            ),
            Ctl::Caladan => (
                "controllers.tick_us.caladan",
                "controllers.tick_p99_us.caladan",
            ),
            Ctl::Static => continue,
        };
        layer.insert(p50, t.tick.percentile(50.0) as f64 / 1e3);
        layer.insert(p99, t.tick.percentile(99.0) as f64 / 1e3);
        if *ctl == Ctl::SurgeGuard {
            layer.insert(
                "controllers.packet_ns.surgeguard",
                t.packet.percentile(50.0) as f64,
            );
            layer.insert(
                "controllers.packet_p99_ns.surgeguard",
                t.packet.percentile(99.0) as f64,
            );
        }
    }
    layer.insert("controllers.ticks", ticks as f64);
    layer.insert("controllers.packets", packets as f64);
    layer.insert("controllers.actions", actions as f64);
    layer.insert("controllers.boosts", boosts as f64);
    layer.insert(
        "controllers.share",
        inside_ns as f64 / busy_ns.max(1) as f64,
    );
}

fn arm_times(arms: &[Ctl]) -> Vec<(Ctl, Arc<CtlTimes>)> {
    arms.iter()
        .map(|&ctl| (ctl, Arc::new(CtlTimes::default())))
        .collect()
}

// ---------------------------------------------------------------------
// sim_trials
// ---------------------------------------------------------------------

struct SimTrials {
    apps: Vec<adapter::Prepared>,
    seeds: Vec<u64>,
}

impl Bench for SimTrials {
    const SINGLE_THREADED: bool = true;

    fn setup(seed: u64, seconds: f64, tr: &mut Tracer) -> Self {
        let apps = App::ALL
            .iter()
            .map(|&app| {
                tr.span("workloads:prepare", |_| adapter::prepare(app, seed))
                    .0
            })
            .collect();
        let n = (seconds / TRIALS_WALL_S_PER_SEED).round().max(1.0) as u64;
        SimTrials {
            apps,
            seeds: (0..n).map(|i| seed * 1_000 + i).collect(),
        }
    }

    fn pass(&self, traced: bool, tr: &mut Tracer) -> Pass {
        let times = arm_times(&Ctl::ALL);
        let mut pass = Pass::default();
        let mut units = Vec::new();
        for &seed in &self.seeds {
            for (a, pw) in self.apps.iter().enumerate() {
                for (c, (ctl, ctl_times)) in times.iter().enumerate() {
                    let obs = Observe {
                        ctl_times: traced.then_some(ctl_times),
                        profile: traced,
                        streams: None,
                    };
                    let (out, wall_ns) =
                        tr.span("trial", |tr| adapter::run_trial(pw, *ctl, seed, &obs, tr));
                    units.push(Unit {
                        kind: a * times.len() + c,
                        wall_ns,
                        out,
                    });
                }
            }
            if seed == self.seeds[0] {
                pass.peak_rss_mb = procstat::peak_rss_mb();
            }
        }
        score_units(&units, &mut pass);
        if traced {
            let totals = SimTotals::of(&units);
            totals.layer(&mut pass.layer);
            controller_layer(&times, totals.boosts, totals.run_ns, &mut pass.layer);
        }
        pass
    }

    fn drills() -> Vec<adapter::DrillCtor> {
        adapter::sim_drills()
    }
}

// ---------------------------------------------------------------------
// sim_cluster
// ---------------------------------------------------------------------

struct SimCluster {
    job: adapter::ClusterJob,
    seeds: Vec<u64>,
}

impl Bench for SimCluster {
    const SINGLE_THREADED: bool = true;

    fn setup(seed: u64, seconds: f64, tr: &mut Tracer) -> Self {
        let (job, _) = tr.span("sim:cluster_build", |_| {
            adapter::cluster_build(200, 500.0, CLUSTER_SIM_S_PER_RUN)
        });
        assert_eq!(job.containers(), 5_001);
        let n = (seconds / CLUSTER_WALL_S_PER_RUN).round().max(1.0) as u64;
        SimCluster {
            job,
            seeds: (0..n).map(|i| seed * 1_000 + i).collect(),
        }
    }

    fn pass(&self, traced: bool, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let mut units = Vec::new();
        for &seed in &self.seeds {
            let (out, wall_ns) = tr.span("trial", |tr| {
                adapter::run_cluster(&self.job, seed, traced, tr)
            });
            units.push(Unit {
                kind: 0,
                wall_ns,
                out,
            });
            if seed == self.seeds[0] {
                pass.peak_rss_mb = procstat::peak_rss_mb();
            }
        }
        score_units(&units, &mut pass);
        if traced {
            SimTotals::of(&units).layer(&mut pass.layer);
        }
        pass
    }

    fn drills() -> Vec<adapter::DrillCtor> {
        adapter::sim_drills()
    }
}

// ---------------------------------------------------------------------
// sim_observed
// ---------------------------------------------------------------------

struct SimObserved {
    chain: adapter::Prepared,
    seeds: Vec<u64>,
}

impl Bench for SimObserved {
    const SINGLE_THREADED: bool = true;

    fn setup(seed: u64, seconds: f64, tr: &mut Tracer) -> Self {
        let (chain, _) = tr.span("workloads:prepare", |_| adapter::prepare(App::Chain, seed));
        let n = (seconds / OBSERVED_WALL_S_PER_TRIAL).round().max(1.0) as u64;
        SimObserved {
            chain,
            // The first seeds of `sim_trials`: the same trials, observed.
            seeds: (0..n).map(|i| seed * 1_000 + i).collect(),
        }
    }

    fn pass(&self, traced: bool, tr: &mut Tracer) -> Pass {
        let times = arm_times(&[Ctl::SurgeGuard]);
        let dir = out_dir();
        std::fs::create_dir_all(&dir).expect("create benchmark/out");
        let stem = format!("observed_{}", std::process::id());
        let mut pass = Pass::default();
        let mut units = Vec::new();
        let mut backs = Vec::new();
        let mut emit = [(0u64, 0u64); 4];
        let (mut read_ns, mut unobserved_ns) = (0, 0);
        for &seed in &self.seeds {
            let ((mut out, back), wall_ns) = tr.span("trial", |tr| {
                let files = StreamFiles::create(&dir, &stem, traced).expect("create stream files");
                let obs = Observe {
                    ctl_times: traced.then_some(&times[0].1),
                    profile: false,
                    streams: Some(&files),
                };
                let out = adapter::run_trial(&self.chain, Ctl::SurgeGuard, seed, &obs, tr);
                for (total, family) in emit.iter_mut().zip(Family::ALL) {
                    let (n, ns) = files.emit_times(family);
                    *total = (total.0 + n, total.1 + ns);
                }
                let (back, ns) = tr.span("telemetry:read", |tr| {
                    adapter::read_back(files, &self.chain, traced, tr).expect("read streams back")
                });
                read_ns += ns;
                (out, back)
            });
            out.profile = back.profile.clone();
            for finding in &back.findings {
                pass.checks.push(format!("sim_observed audit: {finding}"));
            }
            if back.bad_lines != 0
                || back.incomplete_traces != 0
                || back.span_traces != out.completed
            {
                pass.checks.push(format!(
                    "sim_observed: {} bad line(s), {} incomplete trace(s), {} span root(s) for {} completion(s)",
                    back.bad_lines, back.incomplete_traces, back.span_traces, out.completed
                ));
            }
            if traced {
                // The same trial with every stream off: what observing
                // costs, and proof that it does not change the result.
                let (plain, _) = tr.span("trial:unobserved", |tr| {
                    adapter::run_trial(&self.chain, Ctl::SurgeGuard, seed, &Observe::default(), tr)
                });
                unobserved_ns += plain.new_ns + plain.run_ns;
                if plain.digest != out.digest {
                    pass.checks.push(format!(
                        "sim_observed: seed {seed} digest {:016x} observed, {:016x} unobserved",
                        out.digest, plain.digest
                    ));
                }
            }
            units.push(Unit {
                kind: 0,
                wall_ns,
                out,
            });
            backs.push(back);
            if seed == self.seeds[0] {
                pass.peak_rss_mb = procstat::peak_rss_mb();
            }
        }
        score_units(&units, &mut pass);
        if traced {
            let totals = SimTotals::of(&units);
            totals.layer(&mut pass.layer);
            controller_layer(&times, totals.boosts, totals.run_ns, &mut pass.layer);
            let sum = |f: fn(&adapter::ReadBack) -> u64| backs.iter().map(f).sum::<u64>();
            let lines: Vec<u64> = (0..4)
                .map(|i| backs.iter().map(|b| b.lines[i]).sum())
                .collect();
            let unit_ns = units.iter().map(|u| u.wall_ns).sum();
            let emit_ns = emit.iter().map(|e| e.1).sum();
            let l = &mut pass.layer;
            l.insert("telemetry.emit_ns.decision", per(emit[0].1, emit[0].0));
            l.insert("telemetry.emit_ns.span", per(emit[1].1, emit[1].0));
            l.insert("telemetry.emit_ns.metric", per(emit[2].1, emit[2].0));
            l.insert("telemetry.events.decision", lines[0] as f64);
            l.insert("telemetry.events.span", lines[1] as f64);
            l.insert("telemetry.events.metric", lines[2] as f64);
            l.insert("telemetry.events.profile", lines[3] as f64);
            l.insert(
                "telemetry.bytes_per_span",
                per(sum(|b| b.span_bytes), lines[1]),
            );
            l.insert("telemetry.emit_share", per(emit_ns, totals.run_ns));
            l.insert(
                "telemetry.read_ns_per_line",
                per(sum(|b| b.parse_ns), lines.iter().sum()),
            );
            l.insert(
                "telemetry.summary_ns_per_event",
                per(sum(|b| b.summary_ns), lines[0]),
            );
            l.insert(
                "telemetry.critical_ns_per_span",
                per(sum(|b| b.critical_ns), lines[1]),
            );
            l.insert(
                "telemetry.timeline_ns_per_sample",
                per(sum(|b| b.timeline_ns), sum(|b| b.samples)),
            );
            l.insert(
                "telemetry.watch_ns_per_event",
                per(sum(|b| b.watch_ns), lines[2]),
            );
            l.insert("telemetry.read_share", per(read_ns, unit_ns));
            l.insert(
                "telemetry.obs_overhead_ratio",
                per(totals.new_ns + totals.run_ns, unobserved_ns),
            );
        }
        pass
    }

    fn drills() -> Vec<adapter::DrillCtor> {
        let mut drills = adapter::sim_drills();
        drills.extend(adapter::telemetry_drills());
        drills
    }
}

// ---------------------------------------------------------------------
// live_steady, live_saturated
// ---------------------------------------------------------------------

struct Live<const SATURATED: bool> {
    job: adapter::LiveJob,
}

/// `live_steady` counts a request towards `goodput_rps` only if it
/// completed within this long of its due time — about 3× the modelled
/// median, past the substrate's p99 here.
const LIVE_QOS_NS: u64 = 1_500_000;

/// Live percentiles and the saturated goodput are medians over windows
/// this long.
const WINDOW_NS: u64 = 1_000_000_000;

/// Highest thread count seen while `f` runs (sampled every 20 ms).
fn with_thread_peak<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let stop = AtomicBool::new(false);
    let peak = AtomicU64::new(0);
    let r = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(procstat::threads(), Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        });
        let r = f();
        stop.store(true, Ordering::Relaxed);
        r
    });
    // The sampler itself is one of the threads it counted.
    (r, peak.load(Ordering::Relaxed).saturating_sub(1))
}

impl<const SATURATED: bool> Bench for Live<SATURATED> {
    const SINGLE_THREADED: bool = false;

    fn setup(seed: u64, seconds: f64, tr: &mut Tracer) -> Self {
        Live {
            job: adapter::live_build(SATURATED, seconds, seed, tr),
        }
    }

    fn pass(&self, traced: bool, tr: &mut Tracer) -> Pass {
        let job = &self.job;
        let times = arm_times(&[Ctl::SurgeGuard]);
        let cpu0 = procstat::cpu_seconds();
        let (out, threads_peak) = if traced {
            with_thread_peak(|| adapter::run_live(job, Some(&times[0].1), true, tr))
        } else {
            (adapter::run_live(job, None, false, tr), 0)
        };
        let cpu_s = procstat::cpu_seconds() - cpu0;
        let horizon_s = job.horizon_ns as f64 / 1e9;
        let due = job.due_ns();
        let lat = latency::from_due(&due, &out.served, job.measure_start_ns);
        // Median over one-second windows of the window's percentile. Under
        // overload, latency from due time only says how long the run has
        // lasted (and amplifies every wobble of the goodput threefold), so
        // there the latency is the time between consecutive completions.
        let window_p = |q| {
            let w = if SATURATED {
                let range = (job.measure_start_ns, job.horizon_ns);
                latency::window_gap_percentiles(&out.served, range, WINDOW_NS, q)
            } else {
                let range = (job.measure_start_ns, job.last_due_ns);
                latency::window_percentiles(&due, &out.served, range, WINDOW_NS, q)
            };
            latency::median_of(&w) / 1e3
        };
        // Useful completions per second: under overload, whatever
        // finishes (no latency limit can hold, and capacity is the
        // question) — the median one-second window; otherwise, what
        // finished within the QoS limit of its due time.
        let goodput_rps = if SATURATED {
            let per_window =
                latency::completions_per_window(&out.served, job.horizon_ns, WINDOW_NS);
            latency::median_of(&per_window[1..]) / (WINDOW_NS as f64 / 1e9)
        } else {
            let within_qos = |(due, (_, done)): &(&u64, &(u64, u64))| done - *due <= LIVE_QOS_NS;
            due.iter().zip(&out.served).filter(within_qos).count() as f64 / horizon_s
        };
        let backlog = out.injected - out.completed - out.dropped;

        let mut pass = Pass {
            attempted: out.injected,
            rate_rps: out.completed as f64 / (out.wall_ns as f64 / 1e9),
            goodput_rps,
            lat_p50_us: window_p(50.0),
            lat_p99_us: window_p(99.0),
            peak_rss_mb: procstat::peak_rss_mb(),
            ..Pass::default()
        };
        let what = if SATURATED {
            "live_saturated"
        } else {
            "live_steady"
        };
        if out.dropped != 0 || out.fr_dropped != 0 {
            pass.checks.push(format!(
                "{what}: {} arrival(s) dropped, {} FR update(s) dropped",
                out.dropped, out.fr_dropped
            ));
        }
        if SATURATED {
            // Work still queued at the horizon is the point of this
            // workload, not a failure; only refused arrivals fail.
            pass.failed = out.dropped;
            if backlog == 0 || pass.goodput_rps >= job.offered_rps {
                pass.checks.push(format!(
                    "live_saturated: not_saturated — goodput {:.0} req/s of {:.0} offered, backlog {backlog}",
                    pass.goodput_rps, job.offered_rps
                ));
            }
        } else {
            pass.failed = out.injected - out.completed;
            if (out.completed as f64) < 0.999 * out.injected as f64 {
                pass.checks.push(format!(
                    "live_steady: completed {} of {} (< 99.9 %)",
                    out.completed, out.injected
                ));
            }
            let p50 = stats::percentile(&lat.latency_ns, 50.0).unwrap_or(0);
            if p50 < job.ref_p50_ns {
                pass.checks.push(format!(
                    "live_steady: p50 {p50} ns is below the simulator's {} ns for the same run",
                    job.ref_p50_ns
                ));
            }
        }
        if traced {
            let l = &mut pass.layer;
            l.insert("live.pkts", out.deliveries as f64);
            l.insert(
                "live.pkts_per_req",
                out.deliveries as f64 / out.completed.max(1) as f64,
            );
            l.insert("live.fr_applied", out.fr_applied as f64);
            l.insert("live.fr_dropped", out.fr_dropped as f64);
            l.insert("live.backlog_end", backlog as f64);
            l.insert("live.ref_sim_p50_us", job.ref_p50_ns as f64 / 1e3);
            l.insert("live.ref_sim_p99_us", job.ref_p99_ns as f64 / 1e3);
            l.insert(
                "live.lat_p999_us",
                stats::percentile(&lat.latency_ns, 99.9).unwrap_or(0) as f64 / 1e3,
            );
            l.insert(
                "live.gen_late_p99_us",
                stats::percentile(&lat.late_ns, 99.0).unwrap_or(0) as f64 / 1e3,
            );
            l.insert(
                "live.teardown_ms",
                out.wall_ns.saturating_sub(job.horizon_ns) as f64 / 1e6,
            );
            l.insert("live.cpu_cores", cpu_s / (out.wall_ns as f64 / 1e9));
            l.insert("live.threads_peak", threads_peak as f64);
            if let Some(p) = &out.profile {
                if p.audit != 0 {
                    pass.checks.push(format!(
                        "{what}: live profile audit has {} finding(s)",
                        p.audit
                    ));
                }
                l.insert("live.prof.fr_hook_p50_ns", p.fr_hook.p50_ns as f64);
                l.insert(
                    "live.prof.pool_wait_p99_us",
                    p.pool_wait.p99_ns as f64 / 1e3,
                );
                l.insert(
                    "live.prof.timer_slop_p50_us",
                    p.timer_slop.p50_ns as f64 / 1e3,
                );
                l.insert(
                    "live.prof.timer_slop_p99_us",
                    p.timer_slop.p99_ns as f64 / 1e3,
                );
                l.insert(
                    "live.prof.worker_service_p50_us",
                    p.worker_service.p50_ns as f64 / 1e3,
                );
                let worker_ns = p.worker_service.total_ns + p.worker_idle.total_ns;
                l.insert(
                    "live.prof.worker_idle_share",
                    p.worker_idle.total_ns as f64 / worker_ns.max(1) as f64,
                );
                l.insert("live.prof.tick_p50_us", p.tick.p50_ns as f64 / 1e3);
            }
            controller_layer(&times, out.boosts, job.horizon_ns, l);
        }
        pass
    }

    fn drills() -> Vec<adapter::DrillCtor> {
        adapter::live_drills()
    }
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

/// One metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Reading>,
    /// Failed output checks; empty means `correct`.
    pub checks: Vec<String>,
    pub digest: Option<u64>,
    pub timed_s: f64,
    pub disturbed_runs: u64,
}

fn timed_pass<B: Bench>(bench: &B, traced: bool, tr: &mut Tracer) -> Timed {
    let cpu0 = procstat::cpu_seconds();
    let (pass, wall_ns) = tr.span("timed_region", |tr| bench.pass(traced, tr));
    Timed {
        pass,
        wall_s: wall_ns as f64 / 1e9,
        cpu_s: procstat::cpu_seconds() - cpu0,
    }
}

/// True when something else on the host took time from a pass that
/// should have kept one CPU busy throughout.
pub fn disturbed(wall_s: f64, cpu_s: f64) -> bool {
    wall_s > cpu_s * DISTURBED_WALL_OVER_CPU
}

/// Median over warm-up + five batches of every drill's metrics.
fn run_drills(drills: Vec<adapter::DrillCtor>, tr: &mut Tracer) -> BTreeMap<&'static str, f64> {
    const BATCHES: usize = 5;
    let mut out = BTreeMap::new();
    for build in drills {
        let mut drill = build();
        let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for batch in 0..=BATCHES {
            let (values, _) = tr.span(drill.span, |_| (drill.batch)());
            if batch > 0 {
                for (name, v) in values {
                    samples.entry(name).or_default().push(v);
                }
            }
        }
        for (name, values) in samples {
            out.insert(name, stats::median(&values).unwrap_or(0.0));
        }
    }
    out
}

fn run<B: Bench>(args: &Args, spec: &Spec) -> Report {
    let mut tr = Tracer::new(args.trace);
    let mut setups = Vec::new();
    let mut bench = None;
    while setups.len() < SETUP_MIN_REPS
        || (setups.len() < SETUP_MAX_REPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let (b, ns) = tr.span("setup", |tr| B::setup(args.seed, args.seconds, tr));
        setups.push(ns as f64 / 1e9);
        bench = Some(b);
    }
    let bench = bench.expect("at least one set-up ran");

    // The plain pass: observers off, repeated if the host got in the way.
    let mut off = Tracer::new(false);
    let mut disturbed_runs = 0;
    let mut plain = timed_pass(&bench, false, &mut off);
    // The high-water mark only means "one repetition" the first time.
    let peak_rss_mb = plain.pass.peak_rss_mb;
    while B::SINGLE_THREADED
        && disturbed(plain.wall_s, plain.cpu_s)
        && disturbed_runs < DISTURBED_RETRIES as u64
    {
        disturbed_runs += 1;
        eprintln!(
            "{}: disturbed pass (wall {:.2} s, cpu {:.2} s), repeating",
            args.workload, plain.wall_s, plain.cpu_s
        );
        plain = timed_pass(&bench, false, &mut off);
    }

    let mut report = Report {
        attempted: plain.pass.attempted,
        failed: plain.pass.failed,
        checks: std::mem::take(&mut plain.pass.checks),
        digest: plain.pass.digest,
        timed_s: plain.wall_s,
        disturbed_runs,
        ..Report::default()
    };

    let values: BTreeMap<&str, f64> = if !args.trace {
        BTreeMap::from([
            ("setup_s", stats::median(&setups).unwrap_or(0.0)),
            ("sim_req_per_s", plain.pass.rate_rps),
            ("peak_rss_mb", peak_rss_mb),
            ("lat_p50_us", plain.pass.lat_p50_us),
            ("lat_p99_us", plain.pass.lat_p99_us),
            ("goodput_rps", plain.pass.goodput_rps),
        ])
    } else {
        let mut traced = timed_pass(&bench, true, &mut tr);
        report.checks.append(&mut traced.pass.checks);
        if traced.pass.digest != plain.pass.digest {
            report.checks.push(format!(
                "{}: result digest differs with the profiler and wrappers on",
                args.workload
            ));
        }
        let mut layer = std::mem::take(&mut traced.pass.layer);
        layer.extend(run_drills(B::drills(), &mut tr));
        let prepares = tr
            .spans()
            .iter()
            .filter(|s| s.name == "workloads:prepare")
            .count();
        if prepares > 0 {
            layer.insert(
                "workloads.prepare_ms",
                tr.total_ns("workloads:prepare") as f64 / 1e6 / prepares as f64,
            );
        }
        layer.insert("bench.trace_overhead_ratio", traced.wall_s / plain.wall_s);
        layer.insert("bench.disturbed_runs", disturbed_runs as f64);
        let dir = out_dir();
        let path = dir.join(format!("trace_{}.jsonl", args.workload));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| tr.write_jsonl(&path, &args.workload))
        {
            report
                .checks
                .push(format!("cannot write {}: {e}", path.display()));
        }
        eprintln!(
            "{}: {} span(s) in {}",
            args.workload,
            tr.spans().len(),
            path.display()
        );
        for name in layer.keys() {
            if !spec.per_layer.iter().any(|m| m.name == *name) {
                report
                    .checks
                    .push(format!("metric {name} is not in BENCHMARK.json"));
            }
        }
        layer
    };

    // Exactly the contract's names, in its order; a layer this workload
    // does not exercise reads 0.
    let wanted = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    report.metrics = wanted
        .iter()
        .map(|m| Reading {
            name: m.name.clone(),
            value: values.get(m.name.as_str()).copied().unwrap_or(0.0),
            unit: m.unit.clone(),
        })
        .collect();
    report
}

/// Run the workload `args` names; `None` if there is no such workload.
pub fn run_workload(args: &Args, spec: &Spec) -> Option<Report> {
    Some(match args.workload.as_str() {
        "sim_trials" => run::<SimTrials>(args, spec),
        "sim_cluster" => run::<SimCluster>(args, spec),
        "sim_observed" => run::<SimObserved>(args, spec),
        "live_steady" => run::<Live<false>>(args, spec),
        "live_saturated" => run::<Live<true>>(args, spec),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(kind: usize, wall_ns: u64, completed: u64) -> Unit {
        Unit {
            kind,
            wall_ns,
            out: SimOut {
                injected: completed,
                completed,
                within_qos: completed / 2,
                window_ns: 1_000_000_000,
                lat_p50_ns: 4_000,
                lat_p99_ns: 9_000,
                digest: kind as u64 + wall_ns,
                ..SimOut::default()
            },
        }
    }

    #[test]
    fn each_kind_of_unit_is_charged_its_median_time() {
        // Kind 0 takes 1 s, kind 1 takes 3 s; one repetition of each hit
        // a slow burst of the host.
        let units = [
            unit(0, 1_000_000_000, 100),
            unit(1, 3_000_000_000, 500),
            unit(0, 1_900_000_000, 100),
            unit(1, 3_000_000_000, 500),
            unit(0, 1_000_000_000, 100),
            unit(1, 7_000_000_000, 500),
        ];
        let mut pass = Pass::default();
        score_units(&units, &mut pass);
        assert_eq!(pass.rate_rps, 600.0 / 4.0, "bursts do not move the rate");
        assert_eq!(
            pass.goodput_rps, 150.0,
            "(50 + 250) within QoS per simulated second of each pair"
        );
        assert!((pass.lat_p50_us - 4.0).abs() < 1e-9 && (pass.lat_p99_us - 9.0).abs() < 1e-9);
        assert_eq!((pass.attempted, pass.failed), (1_800, 0));
        assert!(pass.checks.is_empty());
        let mut reordered = Pass::default();
        let mut shuffled = units;
        shuffled.swap(0, 2);
        score_units(&shuffled, &mut reordered);
        assert_ne!(
            pass.digest, reordered.digest,
            "the digest pins the order of results"
        );
    }

    #[test]
    fn an_incomplete_unit_fails_the_check() {
        let mut bad = unit(0, 1_000_000_000, 100);
        bad.out.injected = 101;
        let mut pass = Pass::default();
        score_units(&[bad], &mut pass);
        assert_eq!(pass.failed, 1);
        assert_eq!(pass.checks.len(), 1);
    }

    #[test]
    fn disturbance_is_wall_beyond_cpu_by_a_tenth() {
        assert!(!disturbed(10.0, 10.0));
        assert!(!disturbed(10.9, 10.0));
        assert!(disturbed(11.1, 10.0));
    }
}
