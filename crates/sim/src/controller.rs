//! Controller harness interface.
//!
//! SurgeGuard is decentralized (paper Fig. 1): one controller instance per
//! node, seeing only local containers, locally computed metrics, and the
//! metadata on packets arriving at its node. The harness enforces that
//! boundary structurally — a [`Controller`] is constructed from a
//! [`NodeInit`] describing *its* node only, and its hooks only ever
//! receive node-local views.
//!
//! Two hooks mirror the paper's two paths:
//!
//! * [`Controller::on_packet`] — the FirstResponder site: called for every
//!   RPC *request* packet delivered to the node's receive side, before the
//!   packet reaches its container. Must be cheap.
//! * [`Controller::on_tick`] — the slow path: called every
//!   [`Controller::tick_interval`] with freshly flushed per-container
//!   window metrics (the "shared files" the container runtimes write).

use crate::cluster::SimConfig;
use crate::ledger::{AllocLedger, ReplicaState};
use sg_core::allocator::{AllocConstraints, ContainerAlloc, FreqTable};
use sg_core::config::ContainerParams;
use sg_core::fault::FaultNotice;
use sg_core::ids::{ContainerId, NodeId, ServiceId};
use sg_core::metadata::RpcMetadata;
use sg_core::metrics::WindowMetrics;
use sg_core::time::{SimDuration, SimTime};

/// Static description of one container, given to its node's controller at
/// construction time (the paper's per-service config file).
#[derive(Debug, Clone)]
pub struct ContainerInit {
    /// Cluster-wide container id.
    pub id: ContainerId,
    /// The service the container runs.
    pub service: ServiceId,
    /// Service name, for tracing.
    pub name: String,
    /// Profiled QoS parameters (§IV "SurgeGuard Parameters").
    pub params: ContainerParams,
    /// Downstream containers hosted on the *same* node.
    pub local_downstream: Vec<ContainerId>,
    /// Initial allocation.
    pub initial: ContainerAlloc,
}

/// Everything a per-node controller learns at start-up.
#[derive(Debug, Clone)]
pub struct NodeInit {
    /// This node.
    pub node: NodeId,
    /// Local containers.
    pub containers: Vec<ContainerInit>,
    /// Allocation constraints for this node's workload cores.
    pub constraints: AllocConstraints,
    /// Available DVFS levels.
    pub freq_table: FreqTable,
    /// Profiled low-load end-to-end latency (used e.g. for FirstResponder
    /// cooldown windows: ~2× this value).
    pub e2e_low_load: SimDuration,
    /// Upper bound on container ids in the cluster, for dense tables.
    /// With horizontal scaling enabled this covers every replica *slot*,
    /// active or not.
    pub max_container_id: usize,
    /// Upper bound on replicas per service group (1 = vertical-only).
    pub max_replicas: u32,
}

impl NodeInit {
    /// What `node`'s controller learns at start-up: one [`ContainerInit`]
    /// per initially active replica slot of the services it hosts,
    /// primary-first per service. Both substrates wire controllers
    /// through this, so a factory cannot tell which one it is on.
    pub fn for_node(cfg: &SimConfig, ledger: &AllocLedger, node: NodeId) -> Self {
        let layout = ledger.layout();
        let mut containers = Vec::new();
        for s in cfg.placement.services_on(node) {
            let local_downstream: Vec<ContainerId> = cfg
                .graph
                .children(s)
                .filter(|c| cfg.placement.node(*c) == node)
                .map(|c| ContainerId(c.0))
                .collect();
            for slot in layout.slots_of(s) {
                if ledger.state(slot) == ReplicaState::Active {
                    containers.push(ContainerInit {
                        id: ContainerId(slot as u32),
                        service: s,
                        name: cfg.graph.services[s.index()].name.clone(),
                        params: cfg.params[s.index()],
                        local_downstream: local_downstream.clone(),
                        initial: ledger.alloc(slot),
                    });
                }
            }
        }
        NodeInit {
            node,
            containers,
            constraints: cfg.constraints,
            freq_table: cfg.freq_table.clone(),
            e2e_low_load: cfg.e2e_low_load,
            max_container_id: layout.n_slots() - 1,
            max_replicas: cfg.max_replicas,
        }
    }
}

/// Per-container state at a controller tick.
#[derive(Debug, Clone)]
pub struct ContainerSnapshot {
    /// The container.
    pub id: ContainerId,
    /// Metrics for the window since the previous tick.
    pub metrics: WindowMetrics,
    /// Current allocation.
    pub alloc: ContainerAlloc,
}

/// Node-local view delivered at each tick.
#[derive(Debug, Clone)]
pub struct NodeSnapshot {
    /// The observing node.
    pub node: NodeId,
    /// All local containers.
    pub containers: Vec<ContainerSnapshot>,
}

/// An action a controller asks the harness to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlAction {
    /// Set a container's logical-core allocation (applied immediately —
    /// a cgroup cpuset update).
    SetCores {
        /// Target container.
        id: ContainerId,
        /// Absolute core count.
        cores: u32,
    },
    /// Set a container's DVFS level. Applied after the configured MSR
    /// write latency (the FirstResponder worker-thread path).
    SetFreq {
        /// Target container.
        id: ContainerId,
        /// Absolute frequency level.
        level: u8,
    },
    /// Set a container's memory-bandwidth partition (§VII extension), in
    /// TENTHS of a base-frequency core-equivalent of retire rate
    /// (e.g. `units = 25` caps the container's total execution rate at
    /// 2.5 core-equivalents). `units = 0` removes the cap. Applied
    /// immediately (an MBA/CAT-style register update).
    SetBandwidth {
        /// Target container.
        id: ContainerId,
        /// Cap in tenths of a core-equivalent; 0 = uncapped.
        units: u32,
    },
    /// Configure the container runtime to stamp `pkt.upscale = hops` on
    /// outgoing RPCs (0 clears the hint). This is how `queueBuildup`
    /// violations reach downstream containers on *other* nodes.
    SetEgressHint {
        /// Source container.
        id: ContainerId,
        /// Hop count to stamp; 0 disables.
        hops: u8,
    },
    /// Set the replica count of the target's service group (horizontal
    /// scaling). `id` names any replica of the group — canonically the
    /// primary. Subject to the same node-local contract as every other
    /// action: a controller can only scale groups its node hosts. The
    /// count is clamped to `1..=max_replicas`, and spawns are clamped to
    /// the node's spare core budget. Scale-in drains (never kills) the
    /// highest-numbered replicas; the primary is never drained.
    SetReplicas {
        /// Any replica of the target group (canonically the primary).
        id: ContainerId,
        /// Absolute replica count for the group.
        replicas: u32,
    },
}

/// A per-node resource controller under test.
///
/// `Send` is required so the same controller object can run unmodified on
/// either substrate: single-threaded inside the discrete-event simulator,
/// or owned by a per-node control thread in the wall-clock live backend.
///
/// # Example
///
/// A minimal slow-path-only controller that grants every local container
/// one extra core at each 500 ms tick (the packet hook keeps its no-op
/// default):
///
/// ```
/// use sg_core::time::{SimDuration, SimTime};
/// use sg_sim::controller::{ControlAction, Controller, NodeSnapshot};
///
/// struct OneMoreCore;
///
/// impl Controller for OneMoreCore {
///     fn name(&self) -> &'static str {
///         "one-more-core"
///     }
///
///     fn tick_interval(&self) -> SimDuration {
///         SimDuration::from_millis(500)
///     }
///
///     fn on_tick(&mut self, _now: SimTime, snap: &NodeSnapshot) -> Vec<ControlAction> {
///         snap.containers
///             .iter()
///             .map(|c| ControlAction::SetCores { id: c.id, cores: c.alloc.cores + 1 })
///             .collect()
///     }
/// }
/// ```
pub trait Controller: Send {
    /// Controller name (for reports).
    fn name(&self) -> &'static str;

    /// Decision-cycle period for [`Controller::on_tick`].
    fn tick_interval(&self) -> SimDuration;

    /// Slow-path decision cycle.
    fn on_tick(&mut self, now: SimTime, snapshot: &NodeSnapshot) -> Vec<ControlAction>;

    /// Fast-path packet hook (FirstResponder site). Called for every RPC
    /// request packet delivered to this node; `dest` is the local target
    /// container. Default: no fast path.
    fn on_packet(
        &mut self,
        now: SimTime,
        dest: ContainerId,
        meta: RpcMetadata,
    ) -> Vec<ControlAction> {
        let _ = (now, dest, meta);
        Vec::new()
    }

    /// Fault-recovery hook: delivered when a fault event on this node
    /// requires the controller to react beyond what its metrics already
    /// show — e.g. a local container crashed and restarted, so profiled
    /// state about it (sensitivity measurements) describes the pre-crash
    /// instance. Both substrates deliver the same notices at the same
    /// plan times. Default: ignore.
    fn on_fault(&mut self, now: SimTime, notice: FaultNotice) {
        let _ = (now, notice);
    }

    /// Hand the controller a telemetry sink for decision-trace events the
    /// harness cannot see from the outside (e.g. the Escalator's candidate
    /// scoreboard). Called once per controller, before any hook, and only
    /// when the run has telemetry enabled. Default: ignore the sink.
    fn attach_telemetry(&mut self, sink: sg_telemetry::SharedSink) {
        let _ = sink;
    }

    /// Append gauge samples for controller-internal state the harness
    /// cannot observe (e.g. SurgeGuard's sensitivity-matrix arms). Called
    /// once per sampling sweep, only when the run records metrics;
    /// implementations push complete [`sg_telemetry::MetricSample`]s
    /// stamped at `now`, iterating containers in a deterministic order
    /// (the simulator requires byte-identical metrics across same-seed
    /// reruns). Default: nothing.
    fn metric_samples(&mut self, now: SimTime, out: &mut Vec<sg_telemetry::MetricSample>) {
        let _ = (now, out);
    }
}

/// Builds one [`Controller`] per node. The factory pattern keeps
/// experiment code independent of which controller is being evaluated.
pub trait ControllerFactory {
    /// Controller family name (for reports).
    fn name(&self) -> &'static str;

    /// Construct the controller instance for one node.
    fn make(&self, init: NodeInit) -> Box<dyn Controller>;
}

/// A controller that never acts — the static-allocation baseline used for
/// profiling runs and load–latency calibration.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopController;

impl Controller for NoopController {
    fn name(&self) -> &'static str {
        "static"
    }

    fn tick_interval(&self) -> SimDuration {
        SimDuration::from_millis(500)
    }

    fn on_tick(&mut self, _now: SimTime, _snapshot: &NodeSnapshot) -> Vec<ControlAction> {
        Vec::new()
    }
}

/// Factory for [`NoopController`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopFactory;

impl ControllerFactory for NoopFactory {
    fn name(&self) -> &'static str {
        "static"
    }

    fn make(&self, _init: NodeInit) -> Box<dyn Controller> {
        Box::new(NoopController)
    }
}
