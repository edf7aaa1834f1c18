//! Deterministic fault injection on the live substrate.
//!
//! The driver spawns one injector thread per run (only when the config's
//! [`sg_core::fault::FaultPlan`] is non-empty). The thread walks the
//! plan's start/end boundaries in time order, sleeping on the shared
//! [`crate::clock::LiveClock`] between them, and applies each fault with
//! the same semantics as the simulator's `FaultStart`/`FaultEnd` events:
//!
//! * crash / node loss / straggler — a fault-speed multiplier on the
//!   affected slots' [`crate::throttle::CoreGate`]s (crash and node loss
//!   use `1 / CRASH_SLOWDOWN`, a straggler `1 / slowdown`); clearing a
//!   crash or node loss also delivers [`FaultNotice::Restarted`] to the
//!   owning node's controller, exactly as the sim does;
//! * pool leak — `leak`/`unleak` on every [`crate::pool::LiveConnPool`]
//!   feeding the target service;
//! * network jitter — nothing to do here: the surge windows are installed
//!   statically on the shared `Network` at construction, identical on
//!   both substrates.
//!
//! Because the plan is static data and both substrates read the same
//! `SimConfig::faults`, the injected schedule is identical by
//! construction; only the wall-clock jitter of the sleeps differs.

use crate::worker::LiveCluster;
use sg_core::fault::{FaultKind, FaultNotice, CRASH_SLOWDOWN};
use sg_core::ids::{ContainerId, ServiceId};
use sg_core::time::SimTime;
use sg_telemetry::TelemetryEvent;
use std::sync::Arc;

impl LiveCluster {
    /// Apply `op` to every connection pool feeding `target` (every caller
    /// edge toward it, every callee-replica pool on that edge).
    fn for_pools_toward(&self, target: ServiceId, op: impl Fn(&crate::pool::LiveConnPool)) {
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
            for slot in self.state.layout.slots_of(ServiceId(caller as u32)) {
                for &e in &edges {
                    for pool in &self.pools[slot][e] {
                        op(pool);
                    }
                }
            }
        }
    }

    fn emit_fault(&self, now: SimTime, kind: FaultKind, active: bool) {
        // Counted regardless of telemetry: the scrape endpoint's
        // `sg_fault_events_total` must work on trace-less runs too.
        self.fault_events
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
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
    fn fault_edge(&self, now: SimTime, kind: FaultKind, active: bool) {
        match kind {
            FaultKind::ContainerCrash { .. }
            | FaultKind::NodeLoss { .. }
            | FaultKind::Straggler { .. } => {
                let speed = match kind {
                    _ if !active => 1.0,
                    FaultKind::Straggler { slowdown, .. } => 1.0 / slowdown,
                    _ => 1.0 / CRASH_SLOWDOWN,
                };
                for (slot, provisioned) in self.state.fault_targets(kind) {
                    // Only provisioned slots are slowed; every targeted
                    // slot is restored, whatever became of it meanwhile.
                    if provisioned || !active {
                        self.state.gates[slot].set_fault_speed(speed);
                    }
                    // A crash or node loss ends in a restart: the node's
                    // controller is told its profiled state is stale. A
                    // straggler recovers in place, no notice.
                    if !active && provisioned && !matches!(kind, FaultKind::Straggler { .. }) {
                        let node = self.state.node_of(ContainerId(slot as u32));
                        self.controllers[node.index()].lock().unwrap().on_fault(
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
            } => self.for_pools_toward(ServiceId(service.0), |pool| {
                if active {
                    pool.leak(connections)
                } else {
                    pool.unleak(connections)
                }
            }),
            // Static: the surge window was installed at construction.
            FaultKind::NetworkJitter { .. } => {}
        }
        self.emit_fault(now, kind, active);
    }

    /// Injector thread body: walk every fault boundary in time order
    /// (starts before ends on ties, then plan order — the sim engine's
    /// tie-break), aborting promptly on shutdown.
    pub fn fault_loop(self: Arc<Self>) {
        let mut boundaries: Vec<(SimTime, bool, usize)> = Vec::new();
        for (i, f) in self.cfg.faults.faults.iter().enumerate() {
            boundaries.push((f.at, false, i));
            boundaries.push((f.end(), true, i));
        }
        boundaries.sort_by_key(|&(t, is_end, i)| (t, is_end, i));
        for (t, is_end, i) in boundaries {
            if !self.clock.sleep_until_or_stop(t, &self.shutdown) {
                return;
            }
            let now = self.clock.now();
            let kind = self.cfg.faults.faults[i].kind;
            self.fault_edge(now, kind, !is_end);
        }
    }
}
