//! The node descriptions and snapshots every controller's unit tests
//! start from.

use sg_core::allocator::{AllocConstraints, ContainerAlloc, FreqTable};
use sg_core::config::ContainerParams;
use sg_core::ids::{ContainerId, NodeId, ServiceId};
use sg_core::metrics::WindowMetrics;
use sg_core::time::SimDuration;
use sg_sim::controller::{ContainerInit, ContainerSnapshot, NodeInit, NodeSnapshot};

/// Node 0 holding one container per `(id, cores)` pair, each the only
/// slot of service `id`, with an execMetric target of `expected_us` µs
/// (time-from-start target 4×), on a 16-core budget (min 2, max 16,
/// step 2), vertical only.
pub(crate) fn node(allocs: &[(u32, u32)], expected_us: u64) -> NodeInit {
    NodeInit {
        node: NodeId(0),
        containers: allocs
            .iter()
            .map(|&(id, cores)| container(id, cores, expected_us, expected_us * 4))
            .collect(),
        constraints: AllocConstraints {
            total_cores: 16,
            min_cores: 2,
            max_cores: 16,
            core_step: 2,
        },
        freq_table: FreqTable::cascade_lake(),
        e2e_low_load: SimDuration::from_millis(2),
        max_container_id: 8,
        max_replicas: 1,
    }
}

/// The two-container chain c0 → c1 on [`node`]'s budget: 4 cores each,
/// 1000 µs execMetric targets, c0 expecting packets within 500 µs of job
/// start and c1 within 2000 µs.
pub(crate) fn chain() -> NodeInit {
    let mut init = node(&[], 1000);
    init.containers = vec![container(0, 4, 1000, 500), container(1, 4, 1000, 2000)];
    init.containers[0].local_downstream = vec![ContainerId(1)];
    init.max_container_id = 1;
    init
}

fn container(id: u32, cores: u32, expected_us: u64, from_start_us: u64) -> ContainerInit {
    ContainerInit {
        id: ContainerId(id),
        service: ServiceId(id),
        name: format!("c{id}"),
        params: ContainerParams {
            expected_exec_metric: SimDuration::from_micros(expected_us),
            expected_time_from_start: SimDuration::from_micros(from_start_us),
        },
        local_downstream: vec![],
        initial: ContainerAlloc {
            id: ContainerId(id),
            cores,
            freq_level: 0,
        },
    }
}

/// Changes to a [`node`] or [`chain`] description.
pub(crate) trait NodeInitExt {
    /// `total_cores` for the node, at most `max_cores` per container.
    fn budget(self, total_cores: u32, max_cores: u32) -> Self;
    /// Replica slots for `services` groups of up to `max_replicas` each:
    /// slots `0..services` are the primaries.
    fn replicas(self, services: usize, max_replicas: u32) -> Self;
}

impl NodeInitExt for NodeInit {
    fn budget(mut self, total_cores: u32, max_cores: u32) -> Self {
        self.constraints.total_cores = total_cores;
        self.constraints.max_cores = max_cores;
        self
    }

    fn replicas(mut self, services: usize, max_replicas: u32) -> Self {
        self.max_container_id = services * max_replicas as usize - 1;
        self.max_replicas = max_replicas;
        self
    }
}

/// A snapshot of node 0 with one `(id, cores, exec_us, requests)` window
/// per container and no queueing (execMetric = execTime).
pub(crate) fn snapshot(entries: &[(u32, u32, u64, u64)]) -> NodeSnapshot {
    let queued: Vec<_> = entries
        .iter()
        .map(|&(id, cores, exec_us, requests)| (id, cores, exec_us, requests, 1.0))
        .collect();
    snapshot_queued(&queued)
}

/// [`snapshot`] with a queueBuildup per container: `(id, cores, exec_us,
/// requests, queue_buildup)`, execMetric = execTime / queueBuildup.
pub(crate) fn snapshot_queued(entries: &[(u32, u32, u64, u64, f64)]) -> NodeSnapshot {
    NodeSnapshot {
        node: NodeId(0),
        containers: entries
            .iter()
            .map(|&(id, cores, exec_us, requests, qb)| ContainerSnapshot {
                id: ContainerId(id),
                metrics: WindowMetrics {
                    requests,
                    mean_exec_time: SimDuration::from_micros(exec_us),
                    mean_exec_metric: SimDuration::from_micros((exec_us as f64 / qb) as u64),
                    queue_buildup: qb,
                    upscale_hints: 0,
                },
                alloc: ContainerAlloc {
                    id: ContainerId(id),
                    cores,
                    freq_level: 0,
                },
            })
            .collect(),
    }
}
