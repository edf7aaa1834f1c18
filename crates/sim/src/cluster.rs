//! Cluster topology: nodes, container placement, and the full simulation
//! configuration.
//!
//! A cluster is `placement.nodes` worker nodes plus one virtual client
//! node ([`Placement::client_node`]) that injects arrivals and receives
//! responses. Every service's container slots live on one worker node
//! (`Placement::node`); controllers are per-node and strictly
//! node-local — all cross-node interaction flows through RPC edges and
//! piggybacked metadata, never shared state. [`SimConfig`] gathers the
//! whole run description (graph, placement, constraints, faults, power,
//! horizon, seed, queue backend); [`SimConfig::validate`] checks the
//! cross-field invariants before a run, and a validated config plus its
//! seed fully determines every event the engine will ever pop (see
//! [`crate::engine`] for the lifecycle and `SCALING.md` for how this
//! scales to hundreds of nodes).

use crate::app::TaskGraph;
use crate::engine::QueueKind;
use crate::network::{LatencySurge, NetworkConfig};
use crate::power::PowerModel;
use serde::{Deserialize, Serialize};
use sg_core::allocator::{AllocConstraints, FreqTable};
use sg_core::config::ContainerParams;
use sg_core::fault::FaultPlan;
use sg_core::ids::{NodeId, ServiceId};
use sg_core::time::{SimDuration, SimTime};

/// Where each service's container runs. This reproduction deploys one
/// container per service (as the paper's single-application experiments
/// do); multi-node placements spread services across nodes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// `node_of[service]` = hosting node.
    pub node_of: Vec<NodeId>,
    /// Number of nodes in the cluster.
    pub nodes: u32,
}

impl Placement {
    /// All services on one node.
    pub fn single_node(n_services: usize) -> Self {
        Placement {
            node_of: vec![NodeId(0); n_services],
            nodes: 1,
        }
    }

    /// Services spread round-robin over `nodes` nodes (the paper's
    /// node-scaling configuration: more nodes = fewer co-resident
    /// containers competing for each node's cores).
    pub fn round_robin(n_services: usize, nodes: u32) -> Self {
        assert!(nodes >= 1);
        Placement {
            node_of: (0..n_services).map(|i| NodeId(i as u32 % nodes)).collect(),
            nodes,
        }
    }

    /// Hosting node of a service.
    pub(crate) fn node(&self, s: ServiceId) -> NodeId {
        self.node_of[s.index()]
    }

    /// The virtual client node (runs the load generator; hosts no
    /// containers, no controller).
    pub fn client_node(&self) -> NodeId {
        NodeId(self.nodes)
    }

    /// Services hosted on `node`.
    pub(crate) fn services_on(&self, node: NodeId) -> Vec<ServiceId> {
        self.node_of
            .iter()
            .enumerate()
            .filter(|(_, &n)| n == node)
            .map(|(i, _)| ServiceId(i as u32))
            .collect()
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The application task graph.
    pub graph: TaskGraph,
    /// Container placement.
    pub placement: Placement,
    /// Initial logical cores per service (container).
    pub initial_cores: Vec<u32>,
    /// Per-container QoS parameters (from profiling).
    pub params: Vec<ContainerParams>,
    /// Per-node allocation constraints (the paper: 52 workload cores,
    /// whole physical cores for most controllers).
    pub constraints: AllocConstraints,
    /// DVFS levels.
    pub freq_table: FreqTable,
    /// Network latency model.
    pub network: NetworkConfig,
    /// Optional fabric latency surge.
    pub latency_surge: Option<LatencySurge>,
    /// Deterministic fault-injection plan (empty = no faults). Injected
    /// identically on both substrates.
    pub faults: FaultPlan,
    /// Optional initial memory-bandwidth caps per service, in
    /// base-frequency core-equivalents (§VII extension). Empty = nobody
    /// is bandwidth-constrained.
    pub bw_caps: Vec<Option<f64>>,
    /// Power model for energy accounting.
    pub power: PowerModel,
    /// Profiled low-load end-to-end latency (controller hint).
    pub e2e_low_load: SimDuration,
    /// Latency applied between a `SetFreq` action and it taking effect
    /// (FirstResponder worker + MSR write, ~3 µs in the paper).
    pub freq_apply_delay: SimDuration,
    /// Simulation end (open-loop arrivals stop here; in-flight requests
    /// past the end are not recorded).
    pub end: SimTime,
    /// Energy/core integration starts here (warmup exclusion).
    pub measure_start: SimTime,
    /// Record the allocation timeline (Fig. 14) — costs memory.
    pub trace_allocations: bool,
    /// RNG seed; every run is a pure function of (config, seed).
    pub seed: u64,
    /// Safety valve: drop new arrivals when this many requests are in
    /// flight (guards against memory blow-up in deliberately overloaded
    /// configurations).
    pub max_in_flight: usize,
    /// Upper bound on replicas per service (horizontal scaling). 1 (the
    /// default) reproduces the paper's one-container-per-service world
    /// exactly — no replica slots, no load balancer, no extra RNG draws.
    pub max_replicas: u32,
    /// Initially active replicas per service. Empty = one replica each;
    /// otherwise one entry per service in `1..=max_replicas`.
    pub initial_replicas: Vec<u32>,
    /// Pending-event queue backend. The timer wheel (default) and the
    /// reference heap pop identical event sequences; the heap stays
    /// selectable for equivalence tests and bisection (SCALING.md §1).
    pub queue: QueueKind,
}

impl SimConfig {
    /// Sensible defaults for everything but the workload-specific fields.
    pub fn new(graph: TaskGraph, placement: Placement) -> Self {
        let n = graph.len();
        assert_eq!(placement.node_of.len(), n, "placement/service mismatch");
        SimConfig {
            graph,
            placement,
            initial_cores: vec![2; n],
            params: vec![
                ContainerParams {
                    expected_exec_metric: SimDuration::from_millis(1),
                    expected_time_from_start: SimDuration::from_millis(10),
                };
                n
            ],
            constraints: AllocConstraints {
                total_cores: 52,
                min_cores: 2,
                max_cores: 52,
                core_step: 2,
            },
            freq_table: FreqTable::cascade_lake(),
            network: NetworkConfig::default(),
            latency_surge: None,
            faults: FaultPlan::default(),
            bw_caps: Vec::new(),
            power: PowerModel::default(),
            e2e_low_load: SimDuration::from_millis(5),
            freq_apply_delay: SimDuration::from_micros(3),
            end: SimTime::from_secs(10),
            measure_start: SimTime::from_secs(2),
            trace_allocations: false,
            seed: 1,
            max_in_flight: 2_000_000,
            max_replicas: 1,
            initial_replicas: Vec::new(),
            queue: QueueKind::default(),
        }
    }

    /// Initially active replicas of service `s` (1 when unspecified).
    pub(crate) fn initial_replicas_of(&self, s: usize) -> u32 {
        self.initial_replicas.get(s).copied().unwrap_or(1)
    }

    /// Validate cross-field invariants.
    pub fn validate(&self) -> Result<(), String> {
        self.graph.validate()?;
        self.constraints.validate()?;
        if self.initial_cores.len() != self.graph.len() {
            return Err("initial_cores length != number of services".into());
        }
        if self.params.len() != self.graph.len() {
            return Err("params length != number of services".into());
        }
        if !self.bw_caps.is_empty() && self.bw_caps.len() != self.graph.len() {
            return Err("bw_caps length != number of services".into());
        }
        if self.bw_caps.iter().flatten().any(|c| *c <= 0.0) {
            return Err("bandwidth caps must be positive".into());
        }
        for (i, &c) in self.initial_cores.iter().enumerate() {
            if c < self.constraints.min_cores || c > self.constraints.max_cores {
                return Err(format!("service {i}: initial cores {c} out of range"));
            }
        }
        if self.max_replicas < 1 {
            return Err("max_replicas must be at least 1".into());
        }
        if !self.initial_replicas.is_empty() {
            if self.initial_replicas.len() != self.graph.len() {
                return Err("initial_replicas length != number of services".into());
            }
            for (i, &r) in self.initial_replicas.iter().enumerate() {
                if r < 1 || r > self.max_replicas {
                    return Err(format!("service {i}: initial replicas {r} out of range"));
                }
            }
        }
        // Per-node initial totals must fit (every initially active replica
        // of a service costs the service's initial cores).
        for node in 0..self.placement.nodes {
            let total: u32 = self
                .placement
                .services_on(NodeId(node))
                .iter()
                .map(|s| self.initial_cores[s.index()] * self.initial_replicas_of(s.index()))
                .sum();
            if total > self.constraints.total_cores {
                return Err(format!(
                    "node {node}: initial allocation {total} exceeds {} workload cores",
                    self.constraints.total_cores
                ));
            }
        }
        if self.measure_start >= self.end {
            return Err("measure_start must precede end".into());
        }
        self.faults
            .validate(self.graph.len(), self.placement.nodes, self.max_replicas)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{linear_chain, ConnModel};

    #[test]
    fn placement_constructors() {
        let p = Placement::single_node(5);
        assert!(p.node_of.iter().all(|&n| n == NodeId(0)));
        assert_eq!(p.client_node(), NodeId(1));
        assert_eq!(p.services_on(NodeId(0)).len(), 5);

        let p = Placement::round_robin(5, 2);
        assert_eq!(p.node(ServiceId(0)), NodeId(0));
        assert_eq!(p.node(ServiceId(1)), NodeId(1));
        assert_eq!(p.node(ServiceId(2)), NodeId(0));
        assert_eq!(p.services_on(NodeId(0)).len(), 3);
        assert_eq!(p.services_on(NodeId(1)).len(), 2);
        assert_eq!(p.client_node(), NodeId(2));
    }

    #[test]
    fn config_validation() {
        let g = linear_chain(
            "t",
            &[SimDuration::from_micros(100); 3],
            ConnModel::PerRequest,
            0.0,
        );
        let mut cfg = SimConfig::new(g, Placement::single_node(3));
        assert!(cfg.validate().is_ok());

        cfg.initial_cores = vec![2; 2];
        assert!(cfg.validate().is_err());

        let g2 = linear_chain(
            "t",
            &[SimDuration::from_micros(100); 3],
            ConnModel::PerRequest,
            0.0,
        );
        let mut cfg = SimConfig::new(g2, Placement::single_node(3));
        cfg.initial_cores = vec![30, 30, 30];
        assert!(cfg.validate().is_err(), "over node capacity");
    }

    #[test]
    fn fault_plan_is_validated_against_the_cluster() {
        use sg_core::fault::{FaultKind, FaultSpec};
        use sg_core::ids::ServiceId;

        let g = linear_chain(
            "t",
            &[SimDuration::from_micros(100); 3],
            ConnModel::PerRequest,
            0.0,
        );
        let mut cfg = SimConfig::new(g, Placement::single_node(3));
        cfg.faults.faults.push(FaultSpec {
            at: SimTime::from_secs(1),
            duration: SimDuration::from_millis(100),
            kind: FaultKind::ContainerCrash {
                service: ServiceId(2),
            },
        });
        assert!(cfg.validate().is_ok());
        cfg.faults.faults[0].kind = FaultKind::ContainerCrash {
            service: ServiceId(7),
        };
        assert!(cfg.validate().is_err(), "service out of range");
        cfg.faults.faults[0].kind = FaultKind::NodeLoss { node: NodeId(1) };
        assert!(cfg.validate().is_err(), "node out of range");
    }
}
