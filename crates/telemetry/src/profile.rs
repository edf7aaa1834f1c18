//! `sg-profile`: always-on phase-scoped self-profiling.
//!
//! The controller pillars (decision traces, spans, gauge timelines)
//! observe the *workload*; this module observes the *runtime itself* —
//! where cycles go inside the sim event loop and the live driver — so
//! the cluster-scale and hot-path refactors (ROADMAP items 1 and 3)
//! start from measurements instead of guesses.
//!
//! Two recorders share one report shape:
//!
//! * [`SimProfiler`] — owned by the single-threaded simulator. Plain
//!   `u64` counters, with per-phase *sampled* timing: every event is
//!   counted (one increment + mask test), but only 1-in-2^k events per
//!   high-frequency phase pay the two `Instant::now()` calls. Phase
//!   totals are scaled estimates (`sampled_ns × count / sampled`),
//!   which keeps the enabled overhead inside the ≤ 2% `sim_trial`
//!   budget enforced by `sg-bench`.
//! * [`LiveProfiler`] — shared (`Arc`) across the live backend's
//!   threads. Relaxed atomics, every call timed (live call rates are
//!   thousands per second, not millions), log2-bucket histograms for
//!   p50/p99 without storing samples, and a [`LiveProfiler::snapshot`]
//!   cheap enough to serve from the Prometheus scrape mid-run.
//!
//! The disabled guard follows the span-layer discipline: a profiler the
//! caller never constructed is an `Option::None` test on the hot path —
//! one predictable branch, no atomics, no clock reads. `sg-bench`'s
//! profiler-off `fr_hook` and `sim_trial` scenarios pin that contract.
//!
//! A finished report flows through the normal telemetry wire
//! ([`TelemetryEvent::ProfileMeta`] / [`TelemetryEvent::ProfilePhase`] /
//! [`TelemetryEvent::ProfileMark`]) into a schema-versioned JSONL file
//! (`sg-loadtest --profile-out`), and `sg-trace --profile` renders the
//! phase table, watermark summary, folded flamegraph stacks, and the
//! self-overhead line, with an audit that fails the build when the
//! report is inconsistent or (live) phase coverage falls below 90% of
//! wall time.

use crate::event::TelemetryEvent;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Version stamped into [`TelemetryEvent::ProfileMeta`].
///
/// v2 added the per-level timer-wheel occupancy watermarks
/// (`wheel_l*_high_water`, `wheel_overflow_high_water`) when the sim
/// engine's calendar queue became the default backend. v1 files remain
/// readable: every v1 mark kept its wire name — `heap_depth_high_water`
/// now reports the *total pending events* high-water on either queue
/// backend — and readers (`sg-trace`, `sg-timeline`) accept both
/// schema headers.
pub const PROFILE_SCHEMA_VERSION: u32 = 2;

/// Schema string stamped as line 1 of `--profile-out` files.
pub const PROFILE_SCHEMA: &str = "sg-profile/v2";

/// Previous schema string, still accepted by readers.
pub const PROFILE_SCHEMA_V1: &str = "sg-profile/v1";

/// Minimum fraction of wall time the phase totals must cover for a
/// live-substrate report to pass [`ProfileReport::audit`].
pub const LIVE_COVERAGE_FLOOR: f64 = 0.90;

/// A profiled runtime phase. Sim phases partition the event-dispatch
/// loop by event class; live phases cover the hot paths of the
/// wall-clock driver's thread zoo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum ProfilePhase {
    /// Sim: `ClientArrival` dispatch (includes generating the next
    /// open-loop arrival and root invocation setup).
    SimArrival = 0,
    /// Sim: `Deliver(Request)` dispatch — the sim-side FR-hook path.
    SimDeliverRequest = 1,
    /// Sim: `Deliver(Response)` dispatch (pool release, retire checks).
    SimDeliverResponse = 2,
    /// Sim: `PhaseComplete` dispatch (processor-sharing queue pops).
    SimPhaseComplete = 3,
    /// Sim: `ControllerTick` dispatch — one full decision cycle
    /// (snapshot, controller, action application, metrics sweep).
    SimControllerTick = 4,
    /// Sim: `FreqApply` dispatch (deferred DVFS landings).
    SimFreqApply = 5,
    /// Sim: `FaultStart`/`FaultEnd` dispatch.
    SimFault = 6,
    /// Live: one delay-thread FR-hook delivery (slack computation,
    /// `on_packet`, boost application, queue push).
    FrHook = 7,
    /// Live: time a worker spent blocked in `LiveConnPool::acquire`.
    PoolWait = 8,
    /// Live: one `handle_job` execution on a worker thread.
    WorkerService = 9,
    /// Live: worker time blocked waiting for the next job.
    WorkerIdle = 10,
    /// Live: delay-line timer slop — actual minus requested fire time.
    TimerSlop = 11,
    /// Live: one controller tick (snapshot, `on_tick`, apply).
    LiveTick = 12,
}

/// Number of phases (array sizing).
pub const N_PHASES: usize = 13;

impl ProfilePhase {
    /// Every phase, in index order.
    pub const ALL: [ProfilePhase; N_PHASES] = [
        ProfilePhase::SimArrival,
        ProfilePhase::SimDeliverRequest,
        ProfilePhase::SimDeliverResponse,
        ProfilePhase::SimPhaseComplete,
        ProfilePhase::SimControllerTick,
        ProfilePhase::SimFreqApply,
        ProfilePhase::SimFault,
        ProfilePhase::FrHook,
        ProfilePhase::PoolWait,
        ProfilePhase::WorkerService,
        ProfilePhase::WorkerIdle,
        ProfilePhase::TimerSlop,
        ProfilePhase::LiveTick,
    ];

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            ProfilePhase::SimArrival => "sim_arrival",
            ProfilePhase::SimDeliverRequest => "sim_deliver_request",
            ProfilePhase::SimDeliverResponse => "sim_deliver_response",
            ProfilePhase::SimPhaseComplete => "sim_phase_complete",
            ProfilePhase::SimControllerTick => "sim_controller_tick",
            ProfilePhase::SimFreqApply => "sim_freq_apply",
            ProfilePhase::SimFault => "sim_fault",
            ProfilePhase::FrHook => "fr_hook",
            ProfilePhase::PoolWait => "pool_wait",
            ProfilePhase::WorkerService => "worker_service",
            ProfilePhase::WorkerIdle => "worker_idle",
            ProfilePhase::TimerSlop => "timer_slop",
            ProfilePhase::LiveTick => "live_tick",
        }
    }

    /// Folded flamegraph stack for this phase.
    pub fn stack(self) -> &'static str {
        match self {
            ProfilePhase::SimArrival => "sim;dispatch;arrival",
            ProfilePhase::SimDeliverRequest => "sim;dispatch;deliver_request",
            ProfilePhase::SimDeliverResponse => "sim;dispatch;deliver_response",
            ProfilePhase::SimPhaseComplete => "sim;dispatch;phase_complete",
            ProfilePhase::SimControllerTick => "sim;dispatch;controller_tick",
            ProfilePhase::SimFreqApply => "sim;dispatch;freq_apply",
            ProfilePhase::SimFault => "sim;dispatch;fault",
            ProfilePhase::FrHook => "live;delay_line;fr_hook",
            ProfilePhase::PoolWait => "live;worker;call_child;pool_wait",
            ProfilePhase::WorkerService => "live;worker;service",
            ProfilePhase::WorkerIdle => "live;worker;idle",
            ProfilePhase::TimerSlop => "live;delay_line;timer_slop",
            ProfilePhase::LiveTick => "live;tick;controller",
        }
    }

    /// Parse a wire name.
    pub fn from_wire(s: &str) -> Option<ProfilePhase> {
        ProfilePhase::ALL.into_iter().find(|p| p.name() == s)
    }

    /// Whether the phase measures *blocked* time (idle, lock waits,
    /// timer slop) rather than work done. Blocked phases are excluded
    /// from the live coverage sum — a worker's wall is already fully
    /// accounted by service + idle, and slop/pool-wait overlap those.
    pub fn is_blocking(self) -> bool {
        matches!(
            self,
            ProfilePhase::PoolWait | ProfilePhase::TimerSlop | ProfilePhase::WorkerIdle
        )
    }
}

/// A watermark or counter reported alongside the phase table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum ProfileMark {
    /// Sim: pending-event high-water mark (entries), regardless of
    /// queue backend. Named for the original binary-heap engine; under
    /// the timer wheel it is the same quantity (total events pending),
    /// so the wire name is kept for cross-version comparability.
    HeapDepthHighWater = 0,
    /// Sim: invocation-table high-water mark (slots).
    InvocationHighWater = 1,
    /// Live: telemetry-ring occupancy high-water mark (entries).
    RingOccupancyHighWater = 2,
    /// Live: telemetry-ring drops across all families (drop pressure).
    RingDropped = 3,
    /// Estimated profiler self-overhead in nanoseconds (calibrated
    /// timer-pair cost × number of timed sections).
    SelfOverheadNs = 4,
    /// Sim (wheel backend, schema v2+): level-0 slot-occupancy
    /// high-water mark (entries resident across the level's 64 slots).
    WheelL0HighWater = 5,
    /// Sim (wheel): level-1 occupancy high-water mark.
    WheelL1HighWater = 6,
    /// Sim (wheel): level-2 occupancy high-water mark.
    WheelL2HighWater = 7,
    /// Sim (wheel): level-3 occupancy high-water mark.
    WheelL3HighWater = 8,
    /// Sim (wheel): level-4 occupancy high-water mark.
    WheelL4HighWater = 9,
    /// Sim (wheel): level-5 occupancy high-water mark.
    WheelL5HighWater = 10,
    /// Sim (wheel): overflow-bucket occupancy high-water mark (events
    /// beyond the wheel horizon, promoted back in as time advances).
    WheelOverflowHighWater = 11,
}

/// Number of marks (array sizing).
pub const N_MARKS: usize = 12;

impl ProfileMark {
    /// Every mark, in index order.
    pub const ALL: [ProfileMark; N_MARKS] = [
        ProfileMark::HeapDepthHighWater,
        ProfileMark::InvocationHighWater,
        ProfileMark::RingOccupancyHighWater,
        ProfileMark::RingDropped,
        ProfileMark::SelfOverheadNs,
        ProfileMark::WheelL0HighWater,
        ProfileMark::WheelL1HighWater,
        ProfileMark::WheelL2HighWater,
        ProfileMark::WheelL3HighWater,
        ProfileMark::WheelL4HighWater,
        ProfileMark::WheelL5HighWater,
        ProfileMark::WheelOverflowHighWater,
    ];

    /// The per-level wheel-occupancy marks, in level order. Indexable by
    /// engine level so emitters can zip against
    /// `Engine::wheel_high_water()`.
    pub const WHEEL_LEVELS: [ProfileMark; 6] = [
        ProfileMark::WheelL0HighWater,
        ProfileMark::WheelL1HighWater,
        ProfileMark::WheelL2HighWater,
        ProfileMark::WheelL3HighWater,
        ProfileMark::WheelL4HighWater,
        ProfileMark::WheelL5HighWater,
    ];

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            ProfileMark::HeapDepthHighWater => "heap_depth_high_water",
            ProfileMark::InvocationHighWater => "invocation_high_water",
            ProfileMark::RingOccupancyHighWater => "ring_occupancy_high_water",
            ProfileMark::RingDropped => "ring_dropped",
            ProfileMark::SelfOverheadNs => "self_overhead_ns",
            ProfileMark::WheelL0HighWater => "wheel_l0_high_water",
            ProfileMark::WheelL1HighWater => "wheel_l1_high_water",
            ProfileMark::WheelL2HighWater => "wheel_l2_high_water",
            ProfileMark::WheelL3HighWater => "wheel_l3_high_water",
            ProfileMark::WheelL4HighWater => "wheel_l4_high_water",
            ProfileMark::WheelL5HighWater => "wheel_l5_high_water",
            ProfileMark::WheelOverflowHighWater => "wheel_overflow_high_water",
        }
    }

    /// Parse a wire name.
    pub fn from_wire(s: &str) -> Option<ProfileMark> {
        ProfileMark::ALL.into_iter().find(|m| m.name() == s)
    }
}

/// Log2-bucketed latency histogram: bucket `k` holds durations in
/// `[2^(k-1), 2^k)` ns (bucket 0 is exactly 0 ns). Quantiles come back
/// as the geometric midpoint of the covering bucket — ±50% resolution,
/// plenty for a "where do cycles go" report, at 512 bytes per phase.
#[derive(Debug, Clone)]
pub struct Hist {
    buckets: [u64; 64],
}

impl Default for Hist {
    fn default() -> Self {
        Hist { buckets: [0; 64] }
    }
}

fn bucket_of(ns: u64) -> usize {
    (64 - ns.leading_zeros() as usize).min(63)
}

/// Representative value for bucket `idx` (midpoint of its range).
fn bucket_value(idx: usize) -> u64 {
    match idx {
        0 => 0,
        1 => 1,
        _ => {
            let lo = 1u64 << (idx - 1);
            lo + (lo >> 1)
        }
    }
}

impl Hist {
    /// Count one duration.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[bucket_of(ns)] += 1;
    }

    /// Quantile `q` in `[0, 1]` (nearest-rank over buckets); 0 if empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_value(idx);
            }
        }
        bucket_value(63)
    }
}

/// Summary row for one phase in a [`ProfileReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStat {
    /// Which phase.
    pub phase: ProfilePhase,
    /// Times the phase ran.
    pub count: u64,
    /// How many runs were actually timed (`== count` when unsampled).
    pub sampled: u64,
    /// Total nanoseconds; a scaled estimate when `sampled < count`.
    pub total_ns: u64,
    /// Median timed duration (log2-bucket resolution).
    pub p50_ns: u64,
    /// 99th-percentile timed duration (log2-bucket resolution).
    pub p99_ns: u64,
    /// Slowest timed duration (exact).
    pub max_ns: u64,
}

/// A finished self-profile: what `--profile-out` serializes and
/// `sg-trace --profile` renders.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// [`PROFILE_SCHEMA_VERSION`] at write time.
    pub version: u32,
    /// `"sim"` or `"live"`.
    pub substrate: String,
    /// Measured wall time of the run in nanoseconds.
    pub wall_ns: u64,
    /// Phases with `count > 0`, in taxonomy order.
    pub phases: Vec<PhaseStat>,
    /// Watermarks and counters, in taxonomy order.
    pub marks: Vec<(ProfileMark, u64)>,
}

/// Format nanoseconds human-readably (aligned, 9 chars).
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

impl ProfileReport {
    /// Serialize as telemetry events: one meta header, one line per
    /// nonzero phase, one line per mark.
    pub fn events(&self) -> Vec<TelemetryEvent> {
        let mut out = Vec::with_capacity(1 + self.phases.len() + self.marks.len());
        out.push(TelemetryEvent::ProfileMeta {
            version: self.version,
            substrate: self.substrate.clone(),
            wall_ns: self.wall_ns,
        });
        for p in &self.phases {
            out.push(TelemetryEvent::ProfilePhase {
                phase: p.phase,
                count: p.count,
                sampled: p.sampled,
                total_ns: p.total_ns,
                p50_ns: p.p50_ns,
                p99_ns: p.p99_ns,
                max_ns: p.max_ns,
            });
        }
        for &(mark, value) in &self.marks {
            out.push(TelemetryEvent::ProfileMark { mark, value });
        }
        out
    }

    /// Rebuild a report from a parsed event stream (the inverse of
    /// [`ProfileReport::events`]); `None` when no meta header is
    /// present. Later meta headers win so a file with several runs
    /// appended reports the last one — matching JSONL append semantics.
    pub fn from_events(events: &[TelemetryEvent]) -> Option<ProfileReport> {
        let mut report: Option<ProfileReport> = None;
        for event in events {
            match event {
                TelemetryEvent::ProfileMeta {
                    version,
                    substrate,
                    wall_ns,
                } => {
                    report = Some(ProfileReport {
                        version: *version,
                        substrate: substrate.clone(),
                        wall_ns: *wall_ns,
                        phases: Vec::new(),
                        marks: Vec::new(),
                    });
                }
                TelemetryEvent::ProfilePhase {
                    phase,
                    count,
                    sampled,
                    total_ns,
                    p50_ns,
                    p99_ns,
                    max_ns,
                } => {
                    if let Some(r) = &mut report {
                        r.phases.push(PhaseStat {
                            phase: *phase,
                            count: *count,
                            sampled: *sampled,
                            total_ns: *total_ns,
                            p50_ns: *p50_ns,
                            p99_ns: *p99_ns,
                            max_ns: *max_ns,
                        });
                    }
                }
                TelemetryEvent::ProfileMark { mark, value } => {
                    if let Some(r) = &mut report {
                        r.marks.push((*mark, *value));
                    }
                }
                _ => {}
            }
        }
        report
    }

    /// Look up a mark value.
    pub fn mark(&self, mark: ProfileMark) -> Option<u64> {
        self.marks.iter().find(|(m, _)| *m == mark).map(|&(_, v)| v)
    }

    /// Sum of phase totals that represent work (blocking phases — idle,
    /// pool wait, timer slop — excluded) plus idle for worker threads,
    /// used for the coverage audit. For coverage purposes a live worker
    /// is covered by `service + idle`; blocked-only phases overlap them.
    fn coverage_ns(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.phase == ProfilePhase::WorkerIdle || !p.phase.is_blocking())
            .map(|p| p.total_ns)
            .sum()
    }

    /// Structural + coverage audit behind `sg-trace --profile`'s exit
    /// code. Errors (not warnings): zero wall time, a phase row with
    /// `sampled > count` or `sampled == 0 < count` on the live
    /// substrate, and live phase coverage below
    /// [`LIVE_COVERAGE_FLOOR`] of wall. The sim substrate is sampled by
    /// design, so its coverage is reported but not gated.
    pub fn audit(&self) -> Result<(), Vec<String>> {
        let mut errors = Vec::new();
        if self.wall_ns == 0 {
            errors.push("wall_ns is zero — the run never measured time".into());
        }
        for p in &self.phases {
            if p.sampled > p.count {
                errors.push(format!(
                    "phase {}: sampled {} exceeds count {}",
                    p.phase.name(),
                    p.sampled,
                    p.count
                ));
            }
            if self.substrate == "live" && p.count > 0 && p.sampled == 0 {
                errors.push(format!(
                    "phase {}: live phases are always timed but sampled == 0",
                    p.phase.name()
                ));
            }
        }
        if self.substrate == "live" && self.wall_ns > 0 {
            let cov = self.coverage_ns() as f64 / self.wall_ns as f64;
            if cov < LIVE_COVERAGE_FLOOR {
                errors.push(format!(
                    "live phase coverage {:.1}% of wall is below the {:.0}% floor",
                    cov * 100.0,
                    LIVE_COVERAGE_FLOOR * 100.0
                ));
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// Folded flamegraph stacks (`stack total_ns` per nonzero phase),
    /// ready for `flamegraph.pl` / speedscope.
    pub fn folded_lines(&self) -> Vec<String> {
        self.phases
            .iter()
            .filter(|p| p.total_ns > 0)
            .map(|p| format!("{} {}", p.phase.stack(), p.total_ns))
            .collect()
    }

    /// Human-readable report: phase table (% of wall, count, p50/p99),
    /// watermark summary, and the explicit self-overhead line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "sg-profile report — substrate {}, schema v{}, wall {}",
            self.substrate,
            self.version,
            fmt_ns(self.wall_ns)
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "  {:<22} {:>7} {:>10} {:>9} {:>11} {:>10} {:>10} {:>10}",
            "phase", "% wall", "count", "sampled", "total", "p50", "p99", "max"
        );
        for p in &self.phases {
            let pct = if self.wall_ns > 0 {
                p.total_ns as f64 * 100.0 / self.wall_ns as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<22} {:>6.1}% {:>10} {:>9} {:>11} {:>10} {:>10} {:>10}",
                p.phase.name(),
                pct,
                p.count,
                p.sampled,
                fmt_ns(p.total_ns),
                fmt_ns(p.p50_ns),
                fmt_ns(p.p99_ns),
                fmt_ns(p.max_ns),
            );
        }
        let cov = if self.wall_ns > 0 {
            self.coverage_ns() as f64 * 100.0 / self.wall_ns as f64
        } else {
            0.0
        };
        let _ = writeln!(out, "  phase coverage: {cov:.1}% of wall");
        if !self.marks.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "  watermarks:");
            for &(mark, value) in &self.marks {
                if mark == ProfileMark::SelfOverheadNs {
                    continue;
                }
                let _ = writeln!(out, "    {:<28} {}", mark.name(), value);
            }
        }
        let overhead = self.mark(ProfileMark::SelfOverheadNs).unwrap_or(0);
        let pct = if self.wall_ns > 0 {
            overhead as f64 * 100.0 / self.wall_ns as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  self-overhead: {} ({pct:.2}% of wall)",
            fmt_ns(overhead)
        );
        out
    }
}

/// Calibrate the cost of one timed section (two `Instant::now` calls),
/// for the self-overhead estimate.
fn timer_pair_ns() -> u64 {
    const N: u32 = 4096;
    let t0 = Instant::now();
    for _ in 0..N {
        std::hint::black_box(Instant::now());
    }
    let per_call = t0.elapsed().as_nanos() as u64 / N as u64;
    per_call * 2
}

/// Single-threaded sampled recorder for the simulator. See the module
/// docs for the sampling scheme; masks are per phase so rare classes
/// (controller ticks, faults) are always timed while per-packet classes
/// pay only a counter most of the time.
#[derive(Debug)]
pub struct SimProfiler {
    counts: [u64; N_PHASES],
    sampled: [u64; N_PHASES],
    sampled_ns: [u64; N_PHASES],
    max_ns: [u64; N_PHASES],
    mask: [u64; N_PHASES],
    hist: Vec<Hist>,
    marks: [u64; N_MARKS],
}

/// Default sampling period (as a power of two) for the high-frequency
/// dispatch classes. 1-in-128 keeps the enabled `sim_trial` overhead
/// within the 2% gate while still timing tens of thousands of events
/// per trial.
pub const SIM_SAMPLE_SHIFT: u32 = 7;

impl Default for SimProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl SimProfiler {
    /// A profiler with the default per-phase sampling masks.
    pub fn new() -> SimProfiler {
        let mut mask = [0u64; N_PHASES];
        for phase in [
            ProfilePhase::SimArrival,
            ProfilePhase::SimDeliverRequest,
            ProfilePhase::SimDeliverResponse,
            ProfilePhase::SimPhaseComplete,
        ] {
            mask[phase as usize] = (1u64 << SIM_SAMPLE_SHIFT) - 1;
        }
        SimProfiler {
            counts: [0; N_PHASES],
            sampled: [0; N_PHASES],
            sampled_ns: [0; N_PHASES],
            max_ns: [0; N_PHASES],
            mask,
            hist: vec![Hist::default(); N_PHASES],
            marks: [0; N_MARKS],
        }
    }

    /// Count one phase entry; returns a start stamp iff this entry is
    /// in the timed sample.
    #[inline]
    pub fn begin(&mut self, phase: ProfilePhase) -> Option<Instant> {
        let i = phase as usize;
        let c = self.counts[i];
        self.counts[i] = c + 1;
        if c & self.mask[i] == 0 {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Close a timed section opened by [`SimProfiler::begin`].
    #[inline]
    pub fn end(&mut self, phase: ProfilePhase, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            let i = phase as usize;
            self.sampled[i] += 1;
            self.sampled_ns[i] += ns;
            if ns > self.max_ns[i] {
                self.max_ns[i] = ns;
            }
            self.hist[i].record(ns);
        }
    }

    /// Raise a watermark to at least `v`.
    #[inline]
    pub fn mark_max(&mut self, mark: ProfileMark, v: u64) {
        let m = &mut self.marks[mark as usize];
        if v > *m {
            *m = v;
        }
    }

    /// Add to a counter mark.
    #[inline]
    pub fn mark_add(&mut self, mark: ProfileMark, v: u64) {
        self.marks[mark as usize] += v;
    }

    /// Finalize into a report. Phase totals for sampled phases are the
    /// scaled estimate `sampled_ns × count / sampled`; the self-overhead
    /// mark is the calibrated timer-pair cost times the number of timed
    /// sections.
    pub fn report(&self, wall_ns: u64) -> ProfileReport {
        let total_sampled: u64 = self.sampled.iter().sum();
        let overhead = timer_pair_ns() * total_sampled;
        let mut phases = Vec::new();
        for phase in ProfilePhase::ALL {
            let i = phase as usize;
            if self.counts[i] == 0 {
                continue;
            }
            let total_ns = if self.sampled[i] > 0 {
                (self.sampled_ns[i] as u128 * self.counts[i] as u128 / self.sampled[i] as u128)
                    as u64
            } else {
                0
            };
            phases.push(PhaseStat {
                phase,
                count: self.counts[i],
                sampled: self.sampled[i],
                total_ns,
                p50_ns: self.hist[i].quantile(0.50),
                p99_ns: self.hist[i].quantile(0.99),
                max_ns: self.max_ns[i],
            });
        }
        let mut marks: Vec<(ProfileMark, u64)> = ProfileMark::ALL
            .into_iter()
            .filter(|&m| m != ProfileMark::SelfOverheadNs && self.marks[m as usize] > 0)
            .map(|m| (m, self.marks[m as usize]))
            .collect();
        marks.push((ProfileMark::SelfOverheadNs, overhead));
        ProfileReport {
            version: PROFILE_SCHEMA_VERSION,
            substrate: "sim".into(),
            wall_ns,
            phases,
            marks,
        }
    }
}

/// Thread-shared recorder for the live backend: relaxed atomics
/// throughout, every call timed (no sampling — live phase rates are
/// modest), snapshot-able mid-run for the Prometheus scrape.
#[derive(Debug)]
pub struct LiveProfiler {
    counts: [AtomicU64; N_PHASES],
    total_ns: [AtomicU64; N_PHASES],
    max_ns: [AtomicU64; N_PHASES],
    buckets: Vec<[AtomicU64; 64]>,
    marks: [AtomicU64; N_MARKS],
}

impl Default for LiveProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl LiveProfiler {
    /// A fresh all-zero profiler.
    pub fn new() -> LiveProfiler {
        LiveProfiler {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            total_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            max_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            buckets: (0..N_PHASES)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
            marks: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one completed phase execution of `ns` nanoseconds.
    #[inline]
    pub fn record(&self, phase: ProfilePhase, ns: u64) {
        let i = phase as usize;
        self.counts[i].fetch_add(1, Ordering::Relaxed);
        self.total_ns[i].fetch_add(ns, Ordering::Relaxed);
        self.max_ns[i].fetch_max(ns, Ordering::Relaxed);
        self.buckets[i][bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Time `f` and record it under `phase`.
    #[inline]
    pub fn time<R>(&self, phase: ProfilePhase, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.record(phase, t0.elapsed().as_nanos() as u64);
        r
    }

    /// Raise a watermark to at least `v`.
    #[inline]
    pub fn mark_max(&self, mark: ProfileMark, v: u64) {
        self.marks[mark as usize].fetch_max(v, Ordering::Relaxed);
    }

    /// Add to a counter mark.
    #[inline]
    pub fn mark_add(&self, mark: ProfileMark, v: u64) {
        self.marks[mark as usize].fetch_add(v, Ordering::Relaxed);
    }

    /// Point-in-time report (also served mid-run by the scrape).
    pub fn snapshot(&self, wall_ns: u64) -> ProfileReport {
        let total_timed: u64 = self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        let overhead = timer_pair_ns() * total_timed;
        let mut phases = Vec::new();
        for phase in ProfilePhase::ALL {
            let i = phase as usize;
            let count = self.counts[i].load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            let mut hist = Hist::default();
            for (b, slot) in hist.buckets.iter_mut().enumerate() {
                *slot = self.buckets[i][b].load(Ordering::Relaxed);
            }
            phases.push(PhaseStat {
                phase,
                count,
                sampled: count,
                total_ns: self.total_ns[i].load(Ordering::Relaxed),
                p50_ns: hist.quantile(0.50),
                p99_ns: hist.quantile(0.99),
                max_ns: self.max_ns[i].load(Ordering::Relaxed),
            });
        }
        let mut marks: Vec<(ProfileMark, u64)> = ProfileMark::ALL
            .into_iter()
            .filter(|&m| m != ProfileMark::SelfOverheadNs)
            .map(|m| (m, self.marks[m as usize].load(Ordering::Relaxed)))
            .filter(|&(_, v)| v > 0)
            .collect();
        marks.push((ProfileMark::SelfOverheadNs, overhead));
        ProfileReport {
            version: PROFILE_SCHEMA_VERSION,
            substrate: "live".into(),
            wall_ns,
            phases,
            marks,
        }
    }

    /// Append Prometheus exposition lines (`sg_profile_*`) for the live
    /// scrape endpoint.
    pub fn render_prometheus_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "# TYPE sg_profile_phase_count counter");
        for phase in ProfilePhase::ALL {
            let c = self.counts[phase as usize].load(Ordering::Relaxed);
            if c > 0 {
                let _ = writeln!(
                    out,
                    "sg_profile_phase_count{{phase=\"{}\"}} {c}",
                    phase.name()
                );
            }
        }
        let _ = writeln!(out, "# TYPE sg_profile_phase_total_ns counter");
        for phase in ProfilePhase::ALL {
            let t = self.total_ns[phase as usize].load(Ordering::Relaxed);
            if t > 0 {
                let _ = writeln!(
                    out,
                    "sg_profile_phase_total_ns{{phase=\"{}\"}} {t}",
                    phase.name()
                );
            }
        }
        let _ = writeln!(out, "# TYPE sg_profile_mark gauge");
        for mark in ProfileMark::ALL {
            let v = self.marks[mark as usize].load(Ordering::Relaxed);
            if v > 0 {
                let _ = writeln!(out, "sg_profile_mark{{mark=\"{}\"}} {v}", mark.name());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_buckets_and_quantiles() {
        let mut h = Hist::default();
        assert_eq!(h.quantile(0.5), 0);
        for _ in 0..99 {
            h.record(100); // bucket 7: [64, 128)
        }
        h.record(1_000_000); // bucket 20
        let p50 = h.quantile(0.50);
        assert!((64..128).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((64..128).contains(&p99), "p99 {p99}");
        let p100 = h.quantile(1.0);
        assert!((524_288..1_048_576).contains(&p100), "p100 {p100}");
    }

    #[test]
    fn phase_and_mark_wire_names_round_trip() {
        for p in ProfilePhase::ALL {
            assert_eq!(ProfilePhase::from_wire(p.name()), Some(p));
        }
        for m in ProfileMark::ALL {
            assert_eq!(ProfileMark::from_wire(m.name()), Some(m));
        }
        assert_eq!(ProfilePhase::from_wire("nope"), None);
        assert_eq!(ProfileMark::from_wire("nope"), None);
    }

    #[test]
    fn sim_profiler_samples_and_scales() {
        let mut p = SimProfiler::new();
        // 256 deliver-request entries at 1-in-128 sampling: 2 timed.
        for _ in 0..256 {
            let t0 = p.begin(ProfilePhase::SimDeliverRequest);
            p.end(ProfilePhase::SimDeliverRequest, t0);
        }
        // An unsampled phase times every entry.
        for _ in 0..3 {
            let t0 = p.begin(ProfilePhase::SimControllerTick);
            assert!(t0.is_some());
            p.end(ProfilePhase::SimControllerTick, t0);
        }
        p.mark_max(ProfileMark::HeapDepthHighWater, 41);
        p.mark_max(ProfileMark::HeapDepthHighWater, 17); // no-op, lower
        let r = p.report(1_000_000);
        let dr = r
            .phases
            .iter()
            .find(|s| s.phase == ProfilePhase::SimDeliverRequest)
            .unwrap();
        assert_eq!(dr.count, 256);
        assert_eq!(dr.sampled, 2);
        let tick = r
            .phases
            .iter()
            .find(|s| s.phase == ProfilePhase::SimControllerTick)
            .unwrap();
        assert_eq!((tick.count, tick.sampled), (3, 3));
        assert_eq!(r.mark(ProfileMark::HeapDepthHighWater), Some(41));
        assert!(r.mark(ProfileMark::SelfOverheadNs).is_some());
        assert_eq!(r.substrate, "sim");
        // Sim reports are not coverage-gated.
        r.audit().unwrap();
    }

    #[test]
    fn live_profiler_snapshot_and_audit() {
        let p = LiveProfiler::new();
        p.record(ProfilePhase::WorkerService, 600);
        p.record(ProfilePhase::WorkerIdle, 350);
        p.record(ProfilePhase::PoolWait, 10_000); // blocking: not coverage
        p.mark_max(ProfileMark::RingOccupancyHighWater, 7);
        let r = p.snapshot(1_000);
        assert_eq!(r.substrate, "live");
        // service 600 + idle 350 = 95% of wall 1000: passes the floor.
        r.audit().unwrap();
        let starved = p.snapshot(100_000);
        assert!(starved.audit().is_err(), "1% coverage must fail");
        let ws = r
            .phases
            .iter()
            .find(|s| s.phase == ProfilePhase::WorkerService)
            .unwrap();
        assert_eq!((ws.count, ws.sampled, ws.total_ns), (1, 1, 600));
        assert_eq!(r.mark(ProfileMark::RingOccupancyHighWater), Some(7));
    }

    #[test]
    fn report_event_round_trip() {
        let p = LiveProfiler::new();
        p.record(ProfilePhase::FrHook, 120);
        p.record(ProfilePhase::WorkerService, 4_000);
        p.mark_add(ProfileMark::RingDropped, 3);
        let r = p.snapshot(5_000);
        let events = r.events();
        let back = ProfileReport::from_events(&events).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn folded_lines_and_render() {
        let p = LiveProfiler::new();
        p.record(ProfilePhase::FrHook, 500);
        let r = p.snapshot(1_000);
        let folded = r.folded_lines();
        assert_eq!(folded, vec!["live;delay_line;fr_hook 500".to_string()]);
        let text = r.render();
        assert!(text.contains("fr_hook"), "{text}");
        assert!(text.contains("self-overhead"), "{text}");
        assert!(text.contains("substrate live"), "{text}");
    }

    #[test]
    fn zero_wall_fails_audit() {
        let r = LiveProfiler::new().snapshot(0);
        assert!(r.audit().is_err());
    }

    #[test]
    fn schema_v2_reports_wheel_marks_only_when_set() {
        assert_eq!(PROFILE_SCHEMA_VERSION, 2);
        assert_eq!(PROFILE_SCHEMA, "sg-profile/v2");
        // Heap-backend run: no wheel marks recorded, none reported.
        let p = SimProfiler::new();
        let r = p.report(1_000);
        assert_eq!(r.version, 2);
        assert!(ProfileMark::WHEEL_LEVELS
            .iter()
            .all(|&m| r.mark(m).is_none()));
        assert!(r.mark(ProfileMark::WheelOverflowHighWater).is_none());
        // Wheel-backend run: per-level occupancy comes through.
        let mut p = SimProfiler::new();
        for (lvl, &mark) in ProfileMark::WHEEL_LEVELS.iter().enumerate() {
            p.mark_max(mark, (lvl as u64 + 1) * 10);
        }
        p.mark_max(ProfileMark::WheelOverflowHighWater, 3);
        let r = p.report(1_000);
        assert_eq!(r.mark(ProfileMark::WheelL0HighWater), Some(10));
        assert_eq!(r.mark(ProfileMark::WheelL5HighWater), Some(60));
        assert_eq!(r.mark(ProfileMark::WheelOverflowHighWater), Some(3));
        // And they survive the event round trip (wire names parse).
        let back = ProfileReport::from_events(&r.events()).unwrap();
        assert_eq!(back, r);
    }
}
