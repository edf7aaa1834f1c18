//! Shared allocation state: the live substrate's side of the ledger.
//!
//! Every controller action is *decided* by the substrate-blind
//! [`AllocLedger`] the simulator also uses; [`ClusterState`] only makes
//! the resulting [`Effect`]s real on this substrate — capacity gates, the
//! energy meter, the egress-hint cells, the decision trace — so an
//! unmodified controller sees identical enforcement on both.
//!
//! It is deliberately free of references to the request path so the
//! FirstResponder runtime's apply closure can own an `Arc<ClusterState>`
//! without creating a reference cycle with the rest of the backend.

use crate::clock::LiveClock;
use crate::throttle::CoreGate;
use sg_core::allocator::{ContainerAlloc, FreqTable};
use sg_core::fault::FaultKind;
use sg_core::ids::{ContainerId, NodeId, ServiceId};
use sg_core::replica::ReplicaLayout;
use sg_core::time::SimTime;
use sg_sim::cluster::SimConfig;
use sg_sim::controller::{ControlAction, NodeInit};
use sg_sim::ledger::{AllocLedger, Effect, Ownership, ReplicaState};
use sg_sim::power::EnergyMeter;
use sg_sim::trace::AllocTrace;
use sg_telemetry::{ActionOutcome, ReplicaPhase, SharedSink};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// Everything an effect touches that needs mutual exclusion: decisions
/// and their application happen under this one lock, so cores, DVFS
/// level, budget, gate rate and meter never disagree.
struct Inner {
    ledger: AllocLedger,
    /// Current bandwidth cap per slot (the gate's rate needs it beside
    /// cores and speedup on every change).
    bw_caps: Vec<Option<f64>>,
    meter: EnergyMeter,
    /// The meter demands monotonic timestamps, but window reset and
    /// finish are stamped with *planned* times that an applier's clock
    /// read may already have passed; clamp to a high-water mark.
    meter_high_water: SimTime,
    trace: Option<AllocTrace>,
}

impl Inner {
    fn meter_time(&mut self, now: SimTime) -> SimTime {
        self.meter_high_water = now.max(self.meter_high_water);
        self.meter_high_water
    }
}

/// Cluster-wide allocation state shared by tick threads, the rx hook, and
/// the FirstResponder apply worker.
pub(crate) struct ClusterState {
    clock: LiveClock,
    freq_table: FreqTable,
    /// Service/replica ↔ slot mapping (one slot per container, replicas
    /// included).
    pub layout: ReplicaLayout,
    /// Ownership map and clamp counter, readable without `inner`'s lock.
    owners: Arc<Ownership>,
    /// Lock-free mirror of the ledger's per-slot [`ReplicaState`] for the
    /// load balancer; written only while applying a lifecycle effect.
    replica_state: Vec<AtomicU8>,
    inner: Mutex<Inner>,
    /// One capacity gate per container; workers run request work through
    /// these.
    pub gates: Vec<CoreGate>,
    /// Egress upscale hint per container (SetEgressHint target).
    pub hints: Vec<AtomicU8>,
    /// Decision-trace sink for allocation-change events. On the live
    /// substrate this is the ring front-end, so emitting never blocks.
    sink: Option<SharedSink>,
}

impl ClusterState {
    /// Build from a validated config; gates start at the initial
    /// allocation and base frequency.
    pub(crate) fn new(cfg: &SimConfig, clock: LiveClock) -> Self {
        let ledger = AllocLedger::new(cfg);
        let layout = *ledger.layout();
        let n_slots = layout.n_slots();
        let now = clock.now();
        let mut meter = EnergyMeter::new(cfg.power, n_slots);
        let mut bw_caps = Vec::with_capacity(n_slots);
        let mut gates = Vec::with_capacity(n_slots);
        for slot in 0..n_slots {
            let s = layout.service_of(slot).index();
            let cores = ledger.alloc(slot).cores;
            let bw = cfg.bw_caps.get(s).copied().flatten();
            gates.push(CoreGate::new(cores, cfg.freq_table.speedup(0), bw));
            bw_caps.push(bw);
            meter.set_state(now, slot, cores, cfg.freq_table.ghz(0));
        }
        ClusterState {
            clock,
            freq_table: cfg.freq_table.clone(),
            layout,
            owners: Arc::clone(ledger.owners()),
            replica_state: (0..n_slots)
                .map(|slot| AtomicU8::new(ledger.state(slot) as u8))
                .collect(),
            gates,
            hints: (0..n_slots).map(|_| AtomicU8::new(0)).collect(),
            inner: Mutex::new(Inner {
                ledger,
                bw_caps,
                meter,
                meter_high_water: now,
                trace: cfg.trace_allocations.then(AllocTrace::new),
            }),
            sink: None,
        }
    }

    /// Enable allocation-change telemetry. Call before sharing the state
    /// across threads (the sink handle is immutable afterwards).
    pub(crate) fn with_telemetry(mut self, sink: SharedSink) -> Self {
        self.sink = Some(sink);
        self
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("allocation state poisoned")
    }

    /// True when `slot` is in lifecycle state `state` (lock-free read).
    pub(crate) fn replica_is(&self, slot: usize, state: ReplicaState) -> bool {
        self.replica_state[slot].load(Ordering::SeqCst) == state as u8
    }

    /// Active (non-draining) replicas of a service group (lock-free).
    pub(crate) fn active_replicas(&self, svc: ServiceId) -> u32 {
        self.layout
            .slots_of(svc)
            .filter(|&slot| self.replica_is(slot, ReplicaState::Active))
            .count() as u32
    }

    /// Node a container runs on.
    pub(crate) fn node_of(&self, id: ContainerId) -> NodeId {
        self.owners.node_of(id.index())
    }

    /// Snapshot of a container's current allocation.
    pub(crate) fn alloc_of(&self, id: ContainerId) -> ContainerAlloc {
        self.lock().ledger.alloc(id.index())
    }

    /// Actions clamped or rejected so far.
    pub(crate) fn clamped(&self) -> u64 {
        self.owners.clamped()
    }

    /// What `node`'s controller learns at start-up.
    pub(crate) fn node_init(&self, cfg: &SimConfig, node: NodeId) -> NodeInit {
        NodeInit::for_node(cfg, &self.lock().ledger, node)
    }

    /// What one edge of a fault does to its target slots (see
    /// [`AllocLedger::fault_edge`]).
    pub(crate) fn fault_edge(
        &self,
        kind: FaultKind,
        active: bool,
    ) -> Vec<(usize, Option<f64>, bool)> {
        self.lock().ledger.fault_edge(kind, active)
    }

    /// Reset the energy meter's measurement window (once, at
    /// `measure_start`).
    pub(crate) fn reset_meter_window(&self, at: SimTime) {
        let mut inner = self.lock();
        let at = inner.meter_time(at);
        inner.meter.reset_window(at);
    }

    /// Finalize: average cores and energy over the measurement window,
    /// plus the recorded allocation trace.
    pub(crate) fn finish(
        &self,
        end: SimTime,
        measure_start: SimTime,
    ) -> (f64, f64, Option<AllocTrace>) {
        let mut inner = self.lock();
        let end = inner.meter_time(end);
        let avg_cores = inner.meter.avg_cores(end, measure_start);
        let energy_j = inner.meter.energy_joules(end);
        (avg_cores, energy_j, inner.trace.take())
    }

    /// Decide `action` (issued by `from`'s controller) and apply its
    /// state effects. What is left for the request path — handing a
    /// deferred `SetFreq` to the FirstResponder ring, spawning workers
    /// for a spawned replica — stays in `fx` for the caller. `inflight`
    /// is the caller's per-slot in-flight ledger.
    pub(crate) fn decide(
        &self,
        from: NodeId,
        action: ControlAction,
        inflight: &[AtomicU64],
        fx: &mut Vec<Effect>,
    ) -> ActionOutcome {
        if let ControlAction::SetFreq { id, level } = action {
            // Packet-hook path: ownership is all a SetFreq needs, so it
            // never waits on the allocation lock.
            return self.owners.decide_freq(from, id, level, fx);
        }
        let mut inner = self.lock();
        // A replica is provably idle only once the load balancer can no
        // longer pick it, i.e. after its Draining effect is applied — so
        // nothing retires inside the decision, only right after.
        let outcome = inner.ledger.decide(from, action, |_| false, fx);
        for &effect in fx.iter() {
            self.apply(&mut inner, effect);
            if let Effect::Replica {
                slot,
                phase: ReplicaPhase::Draining,
                ..
            } = effect
            {
                self.retire_if_idle(&mut inner, slot, &inflight[slot]);
            }
        }
        outcome
    }

    /// A deferred `SetFreq` lands (FirstResponder worker thread, after
    /// the configured apply delay).
    pub(crate) fn land_freq(&self, id: ContainerId, level: u8) {
        let mut inner = self.lock();
        if let Some(effect) = inner.ledger.land_freq(id, level) {
            self.apply(&mut inner, effect);
        }
    }

    /// Retire `slot` if it is draining and its in-flight count reached
    /// zero. Called by the request path after each in-flight decrement.
    pub(crate) fn try_retire(&self, slot: usize, inflight: &AtomicU64) {
        if self.replica_is(slot, ReplicaState::Draining) {
            self.retire_if_idle(&mut self.lock(), slot, inflight);
        }
    }

    /// Pairs with `LiveCluster::pick_replica`: the Draining store is
    /// published before this load, and a pick increments `inflight`
    /// before re-reading the state, so (all `SeqCst`) either the count
    /// seen here includes the pick or the pick sees the slot is no longer
    /// active and goes elsewhere.
    fn retire_if_idle(&self, inner: &mut Inner, slot: usize, inflight: &AtomicU64) {
        if inflight.load(Ordering::SeqCst) == 0 {
            for effect in inner.ledger.retire(slot).into_iter().flatten() {
                self.apply(inner, effect);
            }
        }
    }

    /// Make one ledger effect real. Runs under the allocation lock, so
    /// the clock read is ordered with every other applier's.
    fn apply(&self, inner: &mut Inner, effect: Effect) {
        let now = self.clock.now();
        if let Some(sink) = &self.sink {
            if let Some(event) = inner.ledger.effect_event(now, effect) {
                sink.emit(event);
            }
        }
        match effect {
            Effect::Alloc {
                slot,
                alloc,
                record,
            } => {
                let speedup = self.freq_table.speedup(alloc.freq_level);
                self.gates[slot].set_capacity(alloc.cores, speedup, inner.bw_caps[slot]);
                let ghz = self.freq_table.ghz(alloc.freq_level);
                let t = inner.meter_time(now);
                inner.meter.set_state(t, slot, alloc.cores, ghz);
                if let (true, Some(tr)) = (record, &mut inner.trace) {
                    tr.record(now, alloc.id, alloc.cores, ghz);
                }
            }
            Effect::Replica { slot, phase, .. } => {
                let state = match phase {
                    ReplicaPhase::Spawned => ReplicaState::Active,
                    ReplicaPhase::Draining => ReplicaState::Draining,
                    ReplicaPhase::Retired => ReplicaState::Inactive,
                };
                self.replica_state[slot].store(state as u8, Ordering::SeqCst);
            }
            Effect::Bandwidth { slot, cap } => {
                inner.bw_caps[slot] = cap;
                let alloc = inner.ledger.alloc(slot);
                let speedup = self.freq_table.speedup(alloc.freq_level);
                self.gates[slot].set_capacity(alloc.cores, speedup, cap);
            }
            Effect::EgressHint { slot, hops } => self.hints[slot].store(hops, Ordering::Relaxed),
            Effect::DeferFreq { .. } => {}
        }
    }

    /// Close all gates (shutdown).
    pub(crate) fn close_gates(&self) {
        for gate in &self.gates {
            gate.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_core::allocator::AllocConstraints;
    use sg_core::time::SimDuration;
    use sg_sim::app::{linear_chain, ConnModel};
    use sg_sim::cluster::Placement;

    fn state() -> ClusterState {
        let graph = linear_chain(
            "t",
            &[SimDuration::from_micros(100), SimDuration::from_micros(100)],
            ConnModel::PerRequest,
            0.0,
        );
        let placement = Placement::single_node(2);
        let mut cfg = SimConfig::new(graph, placement);
        cfg.constraints = AllocConstraints {
            total_cores: 8,
            min_cores: 1,
            max_cores: 6,
            core_step: 1,
        };
        cfg.initial_cores = vec![2, 2];
        ClusterState::new(&cfg, LiveClock::start())
    }

    fn decide(s: &ClusterState, from: u32, action: ControlAction) -> ActionOutcome {
        let inflight = [AtomicU64::new(0), AtomicU64::new(0)];
        s.decide(NodeId(from), action, &inflight, &mut Vec::new())
    }

    #[test]
    fn cores_clamp_to_node_budget() {
        let s = state();
        // 4 allocated of 8; growing c0 to 10 clamps at max_cores (6),
        // which the spare budget (4) covers exactly → 6, no budget clamp.
        let id = ContainerId(0);
        decide(&s, 0, ControlAction::SetCores { id, cores: 10 });
        assert_eq!(s.alloc_of(id).cores, 6);
        assert_eq!(s.clamped(), 0);
        // Node is now full (8/8): any further growth is budget-clamped.
        let id = ContainerId(1);
        decide(&s, 0, ControlAction::SetCores { id, cores: 4 });
        assert_eq!(s.alloc_of(id).cores, 2);
        assert_eq!(s.clamped(), 1);
    }

    #[test]
    fn remote_actions_are_rejected() {
        let s = state();
        let id = ContainerId(0);
        assert_eq!(
            decide(&s, 1, ControlAction::SetCores { id, cores: 4 }),
            ActionOutcome::RejectedCrossNode
        );
        assert_eq!(s.alloc_of(id).cores, 2);
        assert_eq!(s.clamped(), 1);
    }

    #[test]
    fn remote_freq_and_hint_are_rejected() {
        let s = state();
        let id = ContainerId(0);
        let freq = ControlAction::SetFreq { id, level: 1 };
        let hint = ControlAction::SetEgressHint { id, hops: 3 };
        let bandwidth = ControlAction::SetBandwidth { id, units: 10 };
        for action in [freq, hint, bandwidth] {
            assert_eq!(decide(&s, 1, action), ActionOutcome::RejectedCrossNode);
        }
        assert_eq!(s.hints[0].load(Ordering::Relaxed), 0, "hint unchanged");
        assert_eq!(s.clamped(), 3);
        // The same calls from the owning node land.
        assert_eq!(decide(&s, 0, freq), ActionOutcome::Deferred);
        s.land_freq(id, 1);
        assert_eq!(s.alloc_of(id).freq_level, 1);
        assert_eq!(decide(&s, 0, hint), ActionOutcome::Applied);
        assert_eq!(s.hints[0].load(Ordering::Relaxed), 3);
        assert_eq!(s.clamped(), 3, "no new clamps");
    }

    #[test]
    fn freq_level_saturates_at_table_max() {
        let s = state();
        s.land_freq(ContainerId(1), 250);
        let lvl = s.alloc_of(ContainerId(1)).freq_level;
        assert_eq!(lvl, s.freq_table.max_level());
    }
}
