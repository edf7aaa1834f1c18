//! Deterministic fault injection on the live substrate.
//!
//! The driver spawns one injector thread per run (only when the config's
//! [`sg_core::fault::FaultPlan`] is non-empty). The thread walks the
//! plan's start/end boundaries in time order, sleeping on the shared
//! [`crate::clock::LiveClock`] between them. What an edge does is decided
//! where the simulator decides it: gate speeds and restart notices by
//! [`sg_sim::ledger::AllocLedger::fault_edge`], the pools a leak holds by
//! [`sg_sim::app::TaskGraph::edges_toward`], jitter windows by
//! [`sg_sim::network::Network::for_config`]. This module applies them to
//! the [`crate::throttle::CoreGate`]s and [`crate::pool::LiveConnPool`]s,
//! so the injected schedule is identical by construction; only the
//! wall-clock jitter of the sleeps differs.

use crate::worker::LiveCluster;
use sg_core::fault::{FaultKind, FaultNotice};
use sg_core::ids::ContainerId;
use sg_core::time::SimTime;
use sg_telemetry::TelemetryEvent;
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl LiveCluster {
    /// A fault window opens (`active`) or closes.
    fn fault_edge(&self, now: SimTime, kind: FaultKind, active: bool) {
        for (slot, speed, restarted) in self.state.fault_edge(kind, active) {
            if let Some(speed) = speed {
                self.state.gates[slot].set_fault_speed(speed);
            }
            if restarted {
                let container = ContainerId(slot as u32);
                let node = self.state.node_of(container);
                let notice = FaultNotice::Restarted { container };
                let mut controller = self.controllers[node.index()].lock().unwrap();
                controller.on_fault(now, notice);
            }
        }
        // Jitter needs nothing here: its surge window was installed at
        // construction.
        if let FaultKind::PoolLeak {
            service,
            connections,
        } = kind
        {
            for (slot, edge) in self.cfg.graph.edges_toward(service, &self.state.layout) {
                for pool in &self.pools[slot][edge] {
                    if active {
                        pool.leak(connections);
                    } else {
                        pool.unleak(connections);
                    }
                }
            }
        }
        // Counted regardless of telemetry: the scrape endpoint's
        // `sg_fault_events_total` must work on trace-less runs too.
        self.fault_events.fetch_add(1, Ordering::Relaxed);
        if let Some(sink) = &self.sink {
            sink.emit(TelemetryEvent::fault(now, &kind, active));
        }
    }

    /// Injector thread body: walk every fault boundary in time order
    /// (starts before ends on ties, then plan order — the sim engine's
    /// tie-break), aborting promptly on shutdown.
    pub(crate) fn fault_loop(self: Arc<Self>) {
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
