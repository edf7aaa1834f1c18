//! Fault application: what a fault window does to the simulated
//! cluster when it opens and when it closes.

use super::*;

impl Simulation {
    /// A fault window opens (`active`) or closes.
    pub(super) fn on_fault_edge(&mut self, now: SimTime, idx: u32, active: bool) {
        let kind = self.cfg.faults.faults[idx as usize].kind;
        for (slot, speed, restarted) in self.ledger.fault_edge(kind, active) {
            let container = ContainerId(slot as u32);
            if let Some(speed) = speed {
                self.containers.set_fault_speed(slot, now, speed);
                self.reschedule(now, container);
            }
            if restarted {
                let node = self.containers.node(slot);
                let notice = FaultNotice::Restarted { container };
                self.controllers[node.index()].on_fault(now, notice);
            }
        }
        // Jitter needs nothing here: its surge window was installed at
        // construction.
        if let FaultKind::PoolLeak {
            service,
            connections,
        } = kind
        {
            let mut granted = Vec::new();
            for (slot, edge) in self.cfg.graph.edges_toward(service, self.ledger.layout()) {
                for (rep, pool) in self.pools[slot][edge].iter_mut().enumerate() {
                    if active {
                        pool.leak(connections);
                    } else {
                        let waiters = pool.unleak(connections).into_iter();
                        granted.extend(waiters.map(|(inv, enq)| (inv, edge, rep as u16, enq)));
                    }
                }
            }
            for (inv, edge, rep, enq) in granted {
                self.send_child_rpc(now, inv, edge, rep, now.saturating_since(enq));
            }
        }
        if let Some(sink) = &self.sink {
            sink.emit(TelemetryEvent::fault(now, &kind, active));
        }
    }
}
