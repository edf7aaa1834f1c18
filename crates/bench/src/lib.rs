//! # sg-bench — the per-layer perf trajectory
//!
//! The [`baseline`] module and the `sg-bench` binary time a pinned
//! scenario set — from one simulated trial down to the per-packet
//! FirstResponder decision the paper budgets in §VI-D — and write it as
//! a machine-readable baseline (`results/BENCH_*.json`); [`compare`] is
//! the `--compare` regression gate over two of them. See BENCH.md. This file holds the two
//! scaled-down workloads those scenarios run: [`BenchScenario`] (one
//! calibrated CHAIN surge trial) and [`ClusterScenario`] (the
//! cluster-scale fan-out).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod compare;

use sg_core::ids::{NodeId, ServiceId};
use sg_core::time::{SimDuration, SimTime};
use sg_loadgen::{ArrivalProfile, SpikePattern};
use sg_sim::app::{CallMode, ConnModel, EdgeSpec, ServiceSpec, TaskGraph};
use sg_sim::cluster::{Placement, SimConfig};
use sg_sim::controller::ControllerFactory;
use sg_sim::runner::{RunResult, Simulation};
use sg_telemetry::{AggConfig, AggRuntime, ClusterAgg};
use sg_workloads::{prepare, CalibrationOptions, PreparedWorkload, Workload};
use std::sync::Arc;

/// A short calibrated scenario: the `sim_trial*` unit of work.
pub struct BenchScenario {
    /// The calibrated workload.
    pub pw: PreparedWorkload,
    /// Surge pattern under test.
    pub pattern: SpikePattern,
    /// Simulated horizon.
    pub horizon: SimTime,
}

impl BenchScenario {
    /// CHAIN with 1.75× surges, 6 s horizon — small enough to iterate,
    /// large enough to exercise every code path.
    pub fn chain_surge() -> Self {
        let pw = prepare(Workload::Chain, 1, CalibrationOptions::default());
        let pattern = SpikePattern {
            base_rate: pw.base_rate,
            spike_rate: pw.base_rate * 1.75,
            spike_len: SimDuration::from_secs(1),
            period: SimDuration::from_secs(3),
            first_spike: SimTime::from_secs(2),
        };
        BenchScenario {
            pw,
            pattern,
            horizon: SimTime::from_secs(6),
        }
    }

    /// The configured simulation (config, rendered arrivals, controllers
    /// from `factory`), ready for `.with_*` observers and `.run()`.
    pub fn simulation(&self, factory: &dyn ControllerFactory, seed: u64) -> Simulation {
        let mut cfg = self.pw.cfg.clone();
        cfg.end = self.horizon + SimDuration::from_millis(100);
        cfg.measure_start = SimTime::from_secs(1);
        cfg.seed = seed;
        let arrivals = self.pattern.arrivals(SimTime::ZERO, self.horizon);
        Simulation::new(cfg, factory, arrivals)
    }
}

/// Backend service groups hosted per node in the cluster-scale
/// scenarios: 25 backends/node + the shared gateway puts exactly
/// 26 × 2 = 52 initial cores on node 0, the default per-node budget —
/// so 200 nodes is 5 001 containers without touching the constraints.
pub const BACKENDS_PER_NODE: u32 = 25;

/// A synthetic cluster-scale workload: one gateway service on node 0
/// fanning out (one backend per request, [`CallMode::OneOf`]) across
/// `25 × nodes` single-purpose backends striped round-robin over the
/// nodes. Per-request event count is constant regardless of cluster
/// size, so events/sec isolates the engine + state-layout cost that the
/// calendar queue and SoA refactors target (SCALING.md §4).
pub struct ClusterScenario {
    /// Cluster size in nodes.
    pub nodes: u32,
    /// Full sim config (5 001 containers at 200 nodes).
    pub cfg: SimConfig,
    /// Open-loop spike pattern (aggregate, all nodes).
    pub pattern: SpikePattern,
    /// Simulated horizon.
    pub horizon: SimTime,
}

impl ClusterScenario {
    /// Build the scenario for a given cluster size. `per_node_rate` is
    /// the base request rate contributed by each node's backend group;
    /// the pattern doubles it during 1 s spikes every 10 s.
    pub fn new(nodes: u32, per_node_rate: f64, horizon: SimTime) -> Self {
        assert!(nodes >= 1);
        let backends = BACKENDS_PER_NODE * nodes;
        let mut services = Vec::with_capacity(backends as usize + 1);
        // The gateway must never be the bottleneck: at the demo scale
        // (200 nodes × 500 req/s, 2× spikes) it sees 200k req/s on its
        // 2 cores, so its per-request work has to stay under 10 µs.
        services.push(ServiceSpec {
            name: "gateway".into(),
            work_mean: SimDuration::from_micros(5),
            work_cv: 0.0,
            pre_fraction: 0.5,
            children: (1..=backends)
                .map(|i| EdgeSpec {
                    child: ServiceId(i),
                    conn: ConnModel::PerRequest,
                })
                .collect(),
            call_mode: CallMode::OneOf,
        });
        for b in 0..backends {
            services.push(ServiceSpec {
                name: format!("backend-{b}"),
                work_mean: SimDuration::from_micros(200),
                work_cv: 0.0,
                pre_fraction: 1.0,
                children: Vec::new(),
                call_mode: CallMode::Sequential,
            });
        }
        let graph = TaskGraph {
            name: format!("cluster-{nodes}n"),
            services,
        };
        let mut node_of = Vec::with_capacity(graph.len());
        node_of.push(NodeId(0)); // gateway
        for b in 0..backends {
            node_of.push(NodeId(b % nodes));
        }
        let placement = Placement { node_of, nodes };
        let mut cfg = SimConfig::new(graph, placement);
        cfg.end = horizon + SimDuration::from_millis(100);
        cfg.measure_start = SimTime::ZERO;
        cfg.seed = 9;
        let base = per_node_rate * nodes as f64;
        let pattern = SpikePattern {
            base_rate: base,
            spike_rate: base * 2.0,
            spike_len: SimDuration::from_secs(1),
            period: SimDuration::from_secs(10),
            first_spike: SimTime::from_secs(1),
        };
        ClusterScenario {
            nodes,
            cfg,
            pattern,
            horizon,
        }
    }

    /// The configured simulation with streamed (batched) arrivals — the
    /// cluster-scale path: the spike schedule is never materialized.
    fn simulation(&self, factory: &dyn ControllerFactory) -> Simulation {
        let stream = ArrivalProfile::Spike(self.pattern).stream(SimTime::ZERO, self.horizon);
        Simulation::new_streaming(self.cfg.clone(), factory, Box::new(stream))
    }

    /// Run once.
    pub fn run(&self, factory: &dyn ControllerFactory) -> RunResult {
        self.simulation(factory).run()
    }

    /// QoS deadline used for the scenario's SLO/heavy-hitter layer: the
    /// per-request path is gateway + one 200 µs backend plus queueing,
    /// so 2 ms marks genuine tail trouble without firing on noise.
    pub fn qos(&self) -> SimDuration {
        SimDuration::from_millis(2)
    }

    /// [`ClusterScenario::run`] with the mergeable aggregation layer on:
    /// every node shard folds its own completions, and the per-node
    /// digests/sketches/windows are merged into one exact cluster view
    /// at teardown (order-independent — see `sg_telemetry::agg`).
    pub fn run_with_agg(&self, factory: &dyn ControllerFactory) -> (RunResult, ClusterAgg) {
        let agg = Arc::new(AggRuntime::new(
            AggConfig::new(self.qos()),
            self.nodes as usize,
        ));
        let result = self.simulation(factory).with_agg(Arc::clone(&agg)).run();
        (result, agg.merged())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_sim::controller::NoopFactory;

    #[test]
    fn bench_scenario_runs() {
        let sc = BenchScenario::chain_surge();
        let r = sc.simulation(&NoopFactory, 1).run();
        assert!(r.completed > 0);
    }

    #[test]
    fn cluster_scenario_shapes() {
        let sc = ClusterScenario::new(4, 100.0, SimTime::from_secs(1));
        assert_eq!(sc.cfg.graph.len(), 101, "gateway + 25 backends/node");
        assert_eq!(sc.cfg.placement.nodes, 4);
        sc.cfg.validate().expect("cluster config must validate");
        let r = sc.run(&NoopFactory);
        assert!(r.completed > 0);
        assert_eq!(r.dropped, 0);
    }

    /// The merged digest must agree with an exact whole-run histogram
    /// built from the same points, within the digest's documented
    /// one-sided relative error γ — the merge contract acceptance check
    /// at small scale (demo_cluster repeats it at 200 nodes).
    #[test]
    fn cluster_agg_digest_matches_exact_histogram() {
        let sc = ClusterScenario::new(4, 100.0, SimTime::from_secs(2));
        let (r, agg) = sc.run_with_agg(&NoopFactory);
        assert!(r.completed > 0);
        assert_eq!(
            agg.digest.len(),
            r.points.len() as u64,
            "every measured completion reaches a shard"
        );
        let mut hist = sg_loadgen::LatencyHistogram::with_default_resolution();
        for p in &r.points {
            hist.record(p.latency);
        }
        let gamma = agg.digest.relative_error();
        for q in [50.0, 90.0, 99.0, 99.9] {
            let exact = hist.percentile(q).expect("nonempty").as_nanos() as f64;
            let approx = agg.digest.percentile(q).expect("nonempty").as_nanos() as f64;
            // Same bucket math on both sides: identical reports. Keep the
            // γ bound as the documented contract being asserted.
            assert!(
                (approx - exact).abs() <= gamma * exact + 1.0,
                "p{q}: digest {approx} vs exact {exact} beyond γ={gamma}"
            );
        }
    }

    #[test]
    fn cluster_scenario_is_backend_identical() {
        // The cluster workload is itself a same-seed equivalence case.
        let run_with = |queue| {
            let mut sc = ClusterScenario::new(2, 200.0, SimTime::from_secs(2));
            sc.cfg.queue = queue;
            sc.run(&NoopFactory)
        };
        let heap = run_with(sg_sim::QueueKind::Heap);
        let wheel = run_with(sg_sim::QueueKind::Wheel);
        assert_eq!(heap.points, wheel.points);
        assert_eq!(heap.events, wheel.events);
        assert_eq!(heap.energy_j.to_bits(), wheel.energy_j.to_bits());
    }
}
