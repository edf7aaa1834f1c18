//! Service-group views shared by the horizontal controllers (LSRAM,
//! Smart HPA, SurgeGuard-H). Each manages the groups whose primary slot
//! its node hosts, and reads a group's load off its active slots.

use sg_core::allocator::{busy_ns, utilization};
use sg_core::ids::ServiceId;
use sg_core::replica::ReplicaLayout;
use sg_core::time::SimDuration;
use sg_sim::controller::{ContainerInit, ContainerSnapshot, NodeInit, NodeSnapshot};
use std::collections::HashMap;

/// The service groups whose primary slot is on this node, ascending for
/// determinism, each with its primary's description.
pub(crate) fn local_primaries<'a>(
    layout: &ReplicaLayout,
    init: &'a NodeInit,
) -> Vec<(ServiceId, &'a ContainerInit)> {
    let mut primaries: Vec<_> = init
        .containers
        .iter()
        .filter(|c| layout.is_primary(c.id.index()))
        .map(|c| (layout.service_of(c.id.index()), c))
        .collect();
    primaries.sort_unstable_by_key(|&(svc, _)| svc);
    primaries
}

/// The snapshot's active slots by service group, each group in snapshot
/// order.
pub(crate) fn slots_by_group<'a>(
    layout: &ReplicaLayout,
    snapshot: &'a NodeSnapshot,
) -> HashMap<ServiceId, Vec<&'a ContainerSnapshot>> {
    let mut groups: HashMap<ServiceId, Vec<&ContainerSnapshot>> = HashMap::new();
    for c in &snapshot.containers {
        groups
            .entry(layout.service_of(c.id.index()))
            .or_default()
            .push(c);
    }
    groups
}

/// What one group's active slots add up to over a window.
pub(crate) struct GroupLoad {
    /// Active slots.
    pub replicas: u32,
    /// Cores across them.
    pub cores: u32,
    /// Busy time across them (execTime × requests), in ns.
    pub busy_ns: f64,
    /// Requests across them.
    pub requests: u64,
}

impl GroupLoad {
    /// Every group's load in `snapshot`.
    pub(crate) fn by_group(
        layout: &ReplicaLayout,
        snapshot: &NodeSnapshot,
    ) -> HashMap<ServiceId, Self> {
        let load = |slots: Vec<&ContainerSnapshot>| GroupLoad {
            replicas: slots.len() as u32,
            cores: slots.iter().map(|c| c.alloc.cores).sum(),
            busy_ns: slots
                .iter()
                .map(|c| busy_ns(c.metrics.mean_exec_time, c.metrics.requests))
                .sum(),
            requests: slots.iter().map(|c| c.metrics.requests).sum(),
        };
        slots_by_group(layout, snapshot)
            .into_iter()
            .map(|(svc, slots)| (svc, load(slots)))
            .collect()
    }

    /// Busy fraction of the group's cores over `window`; `None` when the
    /// group holds no cores.
    pub(crate) fn utilization(&self, window: SimDuration) -> Option<f64> {
        (self.cores > 0).then(|| utilization(self.busy_ns, window, self.cores))
    }
}
