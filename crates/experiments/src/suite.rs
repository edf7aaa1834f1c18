//! The one runner every batch figure shares: a hashable `BatchKey`
//! names a trial batch, `Suite::run_batches` runs the batches it has
//! not seen yet and hands back the ones it has.
//!
//! Memoising is exact: a trial is a pure function of its key (workload,
//! nodes, tweak, pattern, controller arm, profile) and its seed
//! `base_seed + i`, and every trial builds a fresh controller factory, so
//! a batch read from the memo is the batch a rerun would produce, bit for
//! bit. The memo lives as long as one [`Suite`] — one `sg-experiments`
//! invocation — and cannot be switched off.

use crate::common::{run_one, ExpProfile};
use crate::parallel::par_map;
use crate::{chaos, netsurge, zoo};
use serde_json::Value;
use sg_controllers::{
    CaladanFactory, CentralizedFactory, HybridFactory, LsramFactory, PartiesFactory,
    SmartHpaFactory, SurgeGuardFactory, SurgeGuardHFactory,
};
use sg_core::time::SimDuration;
use sg_loadgen::{short_surge, AggregateReport, RunReport, SpikePattern};
use sg_sim::controller::{ControllerFactory, NoopFactory};
use sg_workloads::{prepare, CalibrationOptions, PreparedWorkload, Workload};
use std::collections::HashMap;
use std::sync::Arc;

/// Every controller the figures evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arm {
    /// Static allocation (no controller).
    Static,
    /// The Parties baseline.
    Parties,
    /// The CaladanAlgo baseline.
    Caladan,
    /// Full SurgeGuard (Escalator + FirstResponder).
    SurgeGuard,
    /// Escalator without FirstResponder (Fig. 10).
    EscalatorOnly,
    /// Fig. 15 ablation over the Parties base allocator.
    Ablation {
        /// Use the new `execMetric`/`queueMetric`.
        metrics: bool,
        /// Use sensitivity-based allocation.
        sens: bool,
    },
    /// SurgeGuard plus a slow replica tier.
    SgH,
    /// LSRAM (gradient-descent SLO allocation).
    Lsram,
    /// Smart HPA.
    SmartHpa,
    /// The ML-class centralized controller (§VII).
    MlCentralized,
    /// ML-class re-baselining with SurgeGuard guarding transients (§VII).
    Hybrid,
}

impl Arm {
    /// The paper's line-up: Parties, CaladanAlgo, SurgeGuard.
    pub(crate) const PAPER: [Arm; 3] = [Arm::Parties, Arm::Caladan, Arm::SurgeGuard];

    /// A fresh factory. Built once per trial, so no controller state —
    /// such as the centralized brain a run's nodes share — crosses runs.
    pub fn factory(self) -> Box<dyn ControllerFactory> {
        match self {
            Arm::Static => Box::new(NoopFactory),
            Arm::Parties => Box::new(PartiesFactory),
            Arm::Caladan => Box::new(CaladanFactory),
            Arm::SurgeGuard => Box::new(SurgeGuardFactory::full()),
            Arm::EscalatorOnly => Box::new(SurgeGuardFactory::escalator_only()),
            Arm::Ablation { metrics, sens } => Box::new(SurgeGuardFactory::ablation(metrics, sens)),
            Arm::SgH => Box::new(SurgeGuardHFactory),
            Arm::Lsram => Box::new(LsramFactory),
            Arm::SmartHpa => Box::new(SmartHpaFactory),
            Arm::MlCentralized => Box::new(CentralizedFactory::default()),
            Arm::Hybrid => Box::new(HybridFactory::default()),
        }
    }

    /// Row label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Arm::Static => "static",
            Arm::Parties => "parties",
            Arm::Caladan => "caladan",
            Arm::SurgeGuard => "surgeguard",
            Arm::EscalatorOnly => "escalator-only",
            Arm::Ablation { metrics, sens } => match (metrics, sens) {
                (false, false) => "parties-base",
                (true, false) => "parties+metrics",
                (false, true) => "parties+sens",
                (true, true) => "escalator",
            },
            Arm::SgH => "sg-h",
            Arm::Lsram => "lsram",
            Arm::SmartHpa => "smart-hpa",
            Arm::MlCentralized => "ml-centralized",
            Arm::Hybrid => "hybrid",
        }
    }
}

/// What a batch changes on top of the calibrated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Tweak {
    /// The calibrated workload as is.
    None,
    /// The zoo's replica ceiling and per-container core cap ([`zoo::cap`]).
    ZooCaps,
    /// One fault of this class ([`chaos::plan_for`]).
    Fault(&'static str),
    /// A fabric latency surge of this many µs ([`netsurge::surge`]).
    LatencySurge(u64),
}

/// A batch's arrival pattern relative to the workload's calibrated base
/// rate, with floats stored as integers so the key hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PatternSpec {
    /// The base rate throughout.
    Constant,
    /// The §VI-B protocol: `milli / 1000 ×` base for `spike_ms`, every 10 s.
    Periodic {
        /// Surge magnitude in thousandths.
        milli: u32,
        /// Surge length.
        spike_ms: u64,
    },
    /// Fig. 10: 20× surges of `us`, with a duty cycle of at most 1 %.
    ShortSurge {
        /// Surge length.
        us: u64,
    },
}

impl PatternSpec {
    /// [`PatternSpec::Periodic`] from a float magnitude.
    pub(crate) fn periodic(magnitude: f64, spike_ms: u64) -> Self {
        PatternSpec::Periodic {
            milli: (magnitude * 1000.0).round() as u32,
            spike_ms,
        }
    }

    /// The concrete pattern for a workload calibrated to `base_rate`.
    pub(crate) fn pattern(self, base_rate: f64) -> SpikePattern {
        match self {
            PatternSpec::Constant => SpikePattern::constant(base_rate),
            PatternSpec::Periodic { milli, spike_ms } => SpikePattern::periodic(
                base_rate,
                milli as f64 / 1000.0,
                SimDuration::from_millis(spike_ms),
            ),
            // Keeping the duty cycle ≤ 1 % holds the *average* rate near
            // the base rate, so only the instantaneous burst matters.
            PatternSpec::ShortSurge { us } => short_surge(
                base_rate,
                SimDuration::from_micros(us),
                SimDuration::from_micros((us * 100).max(100_000)),
            ),
        }
    }
}

/// Everything a trial batch is a function of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BatchKey {
    /// Which workload.
    pub workload: Workload,
    /// Nodes the services spread over.
    pub nodes: u32,
    /// Change on top of the calibrated workload.
    pub tweak: Tweak,
    /// Arrival pattern.
    pub pattern: PatternSpec,
    /// Controller.
    pub arm: Arm,
    /// Trials, windows and seeds.
    pub profile: ExpProfile,
}

impl BatchKey {
    /// A key with no tweak.
    pub(crate) fn new(
        workload: Workload,
        nodes: u32,
        pattern: PatternSpec,
        arm: Arm,
        profile: ExpProfile,
    ) -> Self {
        BatchKey {
            workload,
            nodes,
            tweak: Tweak::None,
            pattern,
            arm,
            profile,
        }
    }

    /// The same key with `tweak` applied.
    pub(crate) fn tweaked(self, tweak: Tweak) -> Self {
        BatchKey { tweak, ..self }
    }
}

/// One batch's per-trial results and their trimmed-mean aggregate,
/// which it derefs to.
#[derive(Debug, Clone)]
pub(crate) struct Batch {
    /// The paper's trimmed-mean aggregate over `reports`.
    pub agg: AggregateReport,
    /// Trial `i`'s report.
    pub reports: Vec<RunReport>,
    /// Trial `i`'s FirstResponder frequency boosts.
    pub boosts: Vec<u64>,
}

impl std::ops::Deref for Batch {
    type Target = AggregateReport;
    fn deref(&self) -> &AggregateReport {
        &self.agg
    }
}

/// What one suite invocation ran and reused.
#[derive(Debug, Clone, Copy, Default)]
pub struct SuiteStats {
    /// Trial batches executed.
    pub batches_run: usize,
    /// Batch requests answered from the memo.
    pub batches_reused: usize,
    /// Workload calibrations (`prepare` calls).
    pub prepares: usize,
}

/// One invocation's profile plus its calibration and batch memos.
#[derive(Debug)]
pub struct Suite {
    /// The invocation's sizing profile.
    pub profile: ExpProfile,
    prepared: HashMap<(Workload, u32), Arc<PreparedWorkload>>,
    batches: HashMap<BatchKey, Arc<Batch>>,
    /// What this suite has run and reused so far.
    pub stats: SuiteStats,
}

impl Suite {
    /// A suite with empty memos.
    pub fn new(profile: ExpProfile) -> Self {
        Suite {
            profile,
            prepared: HashMap::new(),
            batches: HashMap::new(),
            stats: SuiteStats::default(),
        }
    }

    /// `workload` calibrated over `nodes` nodes, once per suite.
    pub(crate) fn prepared(&mut self, workload: Workload, nodes: u32) -> Arc<PreparedWorkload> {
        let stats = &mut self.stats;
        let pw = self.prepared.entry((workload, nodes)).or_insert_with(|| {
            stats.prepares += 1;
            Arc::new(prepare(workload, nodes, CalibrationOptions::default()))
        });
        Arc::clone(pw)
    }

    /// The workload and arrival pattern `key`'s trials run.
    pub(crate) fn scenario(&mut self, key: &BatchKey) -> (PreparedWorkload, SpikePattern) {
        let mut pw = (*self.prepared(key.workload, key.nodes)).clone();
        let profile = &key.profile;
        match key.tweak {
            Tweak::None => {}
            Tweak::ZooCaps => zoo::cap(&mut pw),
            Tweak::Fault(class) => pw.cfg.faults = chaos::plan_for(class, &pw, profile),
            Tweak::LatencySurge(us) => pw.cfg.latency_surge = Some(netsurge::surge(us, profile)),
        }
        let pattern = key.pattern.pattern(pw.base_rate);
        (pw, pattern)
    }

    /// The batch for each key, in order. Batches this suite has not run
    /// yet run now, every trial of every one of them fanned out at once.
    pub(crate) fn run_batches(&mut self, keys: &[BatchKey]) -> Vec<Arc<Batch>> {
        let mut missing: Vec<BatchKey> = Vec::new();
        for key in keys {
            if self.batches.contains_key(key) || missing.contains(key) {
                self.stats.batches_reused += 1;
            } else {
                missing.push(*key);
            }
        }
        let scenarios: Vec<_> = missing.iter().map(|k| self.scenario(k)).collect();
        let trials: Vec<(usize, usize)> = missing
            .iter()
            .enumerate()
            .flat_map(|(b, k)| (0..k.profile.trials).map(move |i| (b, i)))
            .collect();
        self.stats.batches_run += missing.len();
        let results = par_map(trials, |(b, i)| {
            let (key, (pw, pattern)) = (&missing[b], &scenarios[b]);
            let p = &key.profile;
            let factory = key.arm.factory();
            let (report, result) = run_one(
                pw,
                factory.as_ref(),
                pattern,
                p.warmup,
                p.measure,
                p.trial_seed(i),
                false,
            );
            (report, result.packet_freq_boosts)
        });
        let mut results = results.into_iter();
        for key in missing {
            let (reports, boosts): (Vec<RunReport>, Vec<u64>) =
                results.by_ref().take(key.profile.trials).unzip();
            let agg = AggregateReport::from_reports(&reports);
            let batch = Batch {
                agg,
                reports,
                boosts,
            };
            self.batches.insert(key, Arc::new(batch));
        }
        keys.iter().map(|k| Arc::clone(&self.batches[k])).collect()
    }

    /// Run `key(row, arm)` for every row and arm in one fan-out and hand
    /// back each row with its arms' batches, in order.
    pub(crate) fn grid<R: Copy, const N: usize>(
        &mut self,
        rows: impl IntoIterator<Item = R>,
        arms: [Arm; N],
        key: impl Fn(R, Arm) -> BatchKey,
    ) -> Vec<(R, [Arc<Batch>; N])> {
        let rows: Vec<R> = rows.into_iter().collect();
        let keys: Vec<BatchKey> = rows.iter().flat_map(|&r| arms.map(|a| key(r, a))).collect();
        let mut batches = self.run_batches(&keys).into_iter();
        let mut next = |_| batches.next().expect("one batch per key");
        rows.into_iter()
            .map(|r| (r, std::array::from_fn(&mut next)))
            .collect()
    }
}

/// `{arm label: f(batch)}` over `arms`, in order — the per-controller
/// objects of the figures' JSON rows.
pub(crate) fn by_arm(arms: &[Arm], batches: &[Arc<Batch>], f: impl Fn(&Batch) -> f64) -> Value {
    Value::Object(
        arms.iter()
            .zip(batches)
            .map(|(a, b)| (a.label().to_string(), f(b).into()))
            .collect(),
    )
}
