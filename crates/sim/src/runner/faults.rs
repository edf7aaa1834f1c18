//! Fault application: what a fault window does to the simulated
//! cluster when it opens and when it closes.

use super::*;

impl Simulation {
    /// Apply `op` to every connection pool feeding `target` (every caller
    /// edge toward it, every callee-replica pool on that edge), collecting
    /// granted waiters as `(parent_invocation, edge, rep, enqueue_time)`.
    fn for_pools_toward(
        &mut self,
        target: ServiceId,
        op: impl Fn(&mut ConnPool) -> Vec<(InvocationId, SimTime)>,
    ) -> Vec<(InvocationId, u16, u16, SimTime)> {
        let mut granted = Vec::new();
        for caller in 0..self.cfg.graph.len() {
            let edges: Vec<usize> = self.cfg.graph.services[caller]
                .children
                .iter()
                .enumerate()
                .filter(|(_, e)| e.child == target)
                .map(|(i, _)| i)
                .collect();
            if edges.is_empty() {
                continue;
            }
            for slot in self.ledger.layout().slots_of(ServiceId(caller as u32)) {
                for &e in &edges {
                    for rep in 0..self.pools[slot][e].len() {
                        for (inv, enq) in op(&mut self.pools[slot][e][rep]) {
                            granted.push((inv, e as u16, rep as u16, enq));
                        }
                    }
                }
            }
        }
        granted
    }

    fn emit_fault(&self, now: SimTime, kind: FaultKind, active: bool) {
        if let Some(sink) = &self.sink {
            sink.emit(TelemetryEvent::Fault {
                at: now,
                fault: kind.label().to_string(),
                target: kind.target_label(),
                active,
            });
        }
    }

    /// A fault window opens (`active`) or closes.
    pub(super) fn on_fault_edge(&mut self, now: SimTime, idx: u32, active: bool) {
        let kind = self.cfg.faults.faults[idx as usize].kind;
        match kind {
            FaultKind::ContainerCrash { .. }
            | FaultKind::NodeLoss { .. }
            | FaultKind::Straggler { .. } => {
                let speed = match kind {
                    _ if !active => 1.0,
                    FaultKind::Straggler { slowdown, .. } => 1.0 / slowdown,
                    _ => 1.0 / CRASH_SLOWDOWN,
                };
                for (slot, provisioned) in self.ledger.fault_targets(kind) {
                    // Only provisioned slots are slowed; every targeted
                    // slot is restored, whatever became of it meanwhile.
                    if provisioned || !active {
                        self.containers.set_fault_speed(slot, now, speed);
                        self.reschedule(now, ContainerId(slot as u32));
                    }
                    // A crash or node loss ends in a restart: the node's
                    // controller is told its profiled state is stale. A
                    // straggler recovers in place, no notice.
                    if !active && provisioned && !matches!(kind, FaultKind::Straggler { .. }) {
                        let node = self.containers.node(slot);
                        self.controllers[node.index()].on_fault(
                            now,
                            FaultNotice::Restarted {
                                container: ContainerId(slot as u32),
                            },
                        );
                    }
                }
            }
            FaultKind::PoolLeak {
                service,
                connections,
            } if active => {
                self.for_pools_toward(ServiceId(service.0), |pool| {
                    pool.leak(connections);
                    Vec::new()
                });
            }
            FaultKind::PoolLeak {
                service,
                connections,
            } => {
                let granted =
                    self.for_pools_toward(ServiceId(service.0), |pool| pool.unleak(connections));
                for (inv, edge, rep, enq) in granted {
                    let waited = now.saturating_since(enq);
                    self.send_child_rpc(now, inv, edge as usize, rep, waited);
                }
            }
            // Static: the surge window was installed at construction.
            FaultKind::NetworkJitter { .. } => {}
        }
        self.emit_fault(now, kind, active);
    }
}
