//! Replica lifecycle and action application: the load balancer's pick,
//! drain-then-retire, and making the ledger's effects real.

use super::*;

impl Simulation {
    /// Power-of-two-choices load balancer: pick an active replica slot of
    /// `svc` by comparing the queue depth (in-flight requests) of two
    /// uniformly drawn candidates; ties go to the lower slot. With exactly
    /// one active replica the pick is forced and consumes no randomness —
    /// single-replica runs stay on the pre-replica RNG stream.
    pub(super) fn pick_replica(&mut self, svc: ServiceId) -> usize {
        let mut count = 0u32;
        let mut only = svc.index();
        for slot in self.ledger.layout().slots_of(svc) {
            if self.ledger.state(slot) == ReplicaState::Active {
                if count == 0 {
                    only = slot;
                }
                count += 1;
            }
        }
        debug_assert!(count > 0, "service {svc:?} has no active replicas");
        if count <= 1 {
            return only;
        }
        let i = self.rng.random::<u32>() % count;
        let j = self.rng.random::<u32>() % count;
        let (mut a, mut b) = (usize::MAX, usize::MAX);
        let mut idx = 0u32;
        for slot in self.ledger.layout().slots_of(svc) {
            if self.ledger.state(slot) == ReplicaState::Active {
                if idx == i {
                    a = slot;
                }
                if idx == j {
                    b = slot;
                }
                idx += 1;
            }
        }
        p2c_winner(a, self.inflight[a] as u64, b, self.inflight[b] as u64)
    }

    /// Retire a draining replica once its last in-flight request (and any
    /// waiter queued on its pools — waiters convert to in-flight on
    /// connection hand-off, so the count cannot bottom out early) drains.
    pub(super) fn maybe_retire(&mut self, now: SimTime, slot: usize) {
        if self.inflight[slot] != 0 || self.ledger.state(slot) != ReplicaState::Draining {
            return;
        }
        for effect in self.ledger.retire(slot).into_iter().flatten() {
            self.apply_effect(now, effect);
        }
    }

    /// Run each action through the ledger, make its effects real, and
    /// record what became of it. A `SetFreq` accepted from the packet
    /// hook is a FirstResponder boost.
    pub(super) fn apply_actions(
        &mut self,
        now: SimTime,
        node: NodeId,
        actions: Vec<ControlAction>,
        origin: ActionOrigin,
    ) {
        let mut fx = std::mem::take(&mut self.fx_scratch);
        for action in actions {
            let inflight = &self.inflight;
            let outcome = self
                .ledger
                .decide(node, action, |slot| inflight[slot] == 0, &mut fx);
            for effect in fx.drain(..) {
                if origin == ActionOrigin::PacketHook && matches!(effect, Effect::DeferFreq { .. })
                {
                    self.packet_freq_boosts += 1;
                }
                self.apply_effect(now, effect);
            }
            if let Some(sink) = &self.sink {
                sink.emit(action_event(now, node, origin, action, outcome));
            }
        }
        self.fx_scratch = fx;
    }

    /// Make one ledger effect real on the simulated cluster.
    pub(super) fn apply_effect(&mut self, now: SimTime, effect: Effect) {
        if let Some(sink) = &self.sink {
            if let Some(event) = self.ledger.effect_event(now, effect) {
                sink.emit(event);
            }
        }
        match effect {
            Effect::Alloc {
                slot,
                alloc,
                record,
            } => {
                let table = &self.cfg.freq_table;
                // The PS server needs >= 1 core even when retired.
                self.containers.set_cores(slot, now, alloc.cores.max(1));
                self.containers
                    .set_freq_speedup(slot, now, table.speedup(alloc.freq_level));
                let ghz = table.ghz(alloc.freq_level);
                self.meter.set_state(now, slot, alloc.cores, ghz);
                if let (true, Some(tr)) = (record, &mut self.trace) {
                    tr.record(now, alloc.id, alloc.cores, ghz);
                }
                self.reschedule(now, alloc.id);
            }
            Effect::Replica { .. } => {}
            Effect::Bandwidth { slot, cap } => {
                self.containers.set_bw_cap(slot, now, cap);
                self.reschedule(now, ContainerId(slot as u32));
            }
            Effect::EgressHint { slot, hops } => self.containers.set_egress_hint(slot, hops),
            Effect::DeferFreq { id, level } => {
                self.engine.schedule(
                    now + self.cfg.freq_apply_delay,
                    Event::FreqApply {
                        container: id,
                        level,
                    },
                );
            }
        }
    }
}
