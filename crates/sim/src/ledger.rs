//! The allocation ledger: one substrate-blind decision procedure for
//! every [`ControlAction`].
//!
//! SurgeGuard's contract is decentralisation — a per-node controller may
//! only actuate containers it owns, inside its node's core budget. The
//! ledger is where that contract is enforced, once: it owns the
//! allocation mirror, the per-node core ledgers, the replica lifecycle
//! state and the clamp counter, *decides* each action (ownership,
//! min/max clamp, budget grant, spawn / un-drain / drain / retire
//! planning, DVFS saturation) and returns an [`ActionOutcome`] plus the
//! [`Effect`]s a substrate must make real. It never touches a container,
//! a clock or a thread; the simulator and the live backend only *apply*.

use crate::cluster::SimConfig;
use crate::controller::ControlAction;
use sg_core::allocator::{AllocConstraints, ContainerAlloc, FreqTable};
use sg_core::fault::FaultKind;
use sg_core::ids::{ContainerId, NodeId, ServiceId};
use sg_core::replica::ReplicaLayout;
use sg_core::time::SimTime;
use sg_telemetry::{ActionKind, ActionOrigin, ActionOutcome, ReplicaPhase, TelemetryEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Lifecycle state of one replica slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaState {
    /// Not provisioned: holds no cores, receives no traffic.
    Inactive,
    /// Serving load-balanced traffic.
    Active,
    /// Finishing in-flight work; excluded from the load balancer and
    /// retired when its last request drains.
    Draining,
}

/// A decided state change the substrate must make real, in the order
/// the ledger emitted it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Effect {
    /// `slot` now holds `alloc`: re-rate the container and the energy
    /// meter. `record` marks changes a landed action explains (they get
    /// an `Alloc` trace event); spawn and retire are carried by their
    /// lifecycle event instead.
    Alloc {
        /// Target slot.
        slot: usize,
        /// Cores and DVFS level now in force.
        alloc: ContainerAlloc,
        /// Whether the change is recorded as an allocation event.
        record: bool,
    },
    /// `slot` went through lifecycle transition `phase`.
    Replica {
        /// Target slot.
        slot: usize,
        /// The transition.
        phase: ReplicaPhase,
        /// Active replicas of the slot's group after the transition.
        active: u32,
    },
    /// New memory-bandwidth cap on `slot` (`None` uncaps).
    Bandwidth {
        /// Target slot.
        slot: usize,
        /// Cap in base-frequency core-equivalents.
        cap: Option<f64>,
    },
    /// New egress upscale hint on `slot` (0 clears).
    EgressHint {
        /// Target slot.
        slot: usize,
        /// Hop count stamped on outgoing RPCs.
        hops: u8,
    },
    /// An accepted `SetFreq`: hand `(id, level)` to the substrate's
    /// apply-delay path, which ends in [`AllocLedger::land_freq`].
    DeferFreq {
        /// Target container.
        id: ContainerId,
        /// Requested DVFS level (saturated when it lands).
        level: u8,
    },
}

/// The immutable half of the ledger — which node owns which slot — plus
/// the clamp counter. Shared behind an `Arc` so a multi-threaded
/// substrate can run the ownership rule (all a `SetFreq` needs) without
/// the lock that guards the mutable half.
#[derive(Debug)]
pub struct Ownership {
    node_of: Vec<NodeId>,
    clamped: AtomicU64,
}

impl Ownership {
    /// Node hosting `slot`.
    #[inline]
    pub fn node_of(&self, slot: usize) -> NodeId {
        self.node_of[slot]
    }

    /// Actions clamped or rejected so far.
    pub fn clamped(&self) -> u64 {
        self.clamped.load(Ordering::Relaxed)
    }

    fn count_clamp(&self) {
        self.clamped.fetch_add(1, Ordering::Relaxed);
    }

    /// The decentralisation rule: `from` may act on `id` only if `id`
    /// names a slot of this cluster hosted on `from`.
    fn check(&self, from: NodeId, id: ContainerId) -> Result<usize, ActionOutcome> {
        if self.node_of.get(id.index()) == Some(&from) {
            return Ok(id.index());
        }
        self.count_clamp();
        Err(ActionOutcome::RejectedCrossNode)
    }

    /// Decide a `SetFreq`: DVFS is a node-local register write, so
    /// ownership is the only rule; an accepted request is deferred.
    pub fn decide_freq(
        &self,
        from: NodeId,
        id: ContainerId,
        level: u8,
        fx: &mut Vec<Effect>,
    ) -> ActionOutcome {
        match self.check(from, id) {
            Ok(_) => {
                fx.push(Effect::DeferFreq { id, level });
                ActionOutcome::Deferred
            }
            Err(rejected) => rejected,
        }
    }
}

/// The allocation state machine shared by both substrates.
#[derive(Debug)]
pub struct AllocLedger {
    constraints: AllocConstraints,
    freq_table: FreqTable,
    layout: ReplicaLayout,
    /// Cores a freshly spawned replica of each service asks for.
    initial_cores: Vec<u32>,
    owners: Arc<Ownership>,
    allocs: Vec<ContainerAlloc>,
    /// Workload cores currently allocated per node.
    node_alloc: Vec<u32>,
    state: Vec<ReplicaState>,
}

impl AllocLedger {
    /// The initial allocation of a validated config: every initially
    /// active replica holds its service's initial cores at base
    /// frequency, everything else is inactive and holds nothing.
    pub fn new(cfg: &SimConfig) -> Self {
        let layout = ReplicaLayout::new(cfg.graph.len(), cfg.max_replicas);
        let n_slots = layout.n_slots();
        let mut node_of = Vec::with_capacity(n_slots);
        let mut allocs = Vec::with_capacity(n_slots);
        let mut state = Vec::with_capacity(n_slots);
        let mut node_alloc = vec![0u32; cfg.placement.nodes as usize];
        for slot in 0..n_slots {
            let svc = layout.service_of(slot);
            let node = cfg.placement.node(svc);
            let (slot_state, cores) =
                if layout.replica_of(slot) < cfg.initial_replicas_of(svc.index()) {
                    (ReplicaState::Active, cfg.initial_cores[svc.index()])
                } else {
                    (ReplicaState::Inactive, 0)
                };
            node_of.push(node);
            allocs.push(ContainerAlloc {
                id: ContainerId(slot as u32),
                cores,
                freq_level: 0,
            });
            node_alloc[node.index()] += cores;
            state.push(slot_state);
        }
        AllocLedger {
            constraints: cfg.constraints,
            freq_table: cfg.freq_table.clone(),
            layout,
            initial_cores: cfg.initial_cores.clone(),
            owners: Arc::new(Ownership {
                node_of,
                clamped: AtomicU64::new(0),
            }),
            allocs,
            node_alloc,
            state,
        }
    }

    /// Service/replica ↔ slot mapping.
    #[inline]
    pub fn layout(&self) -> &ReplicaLayout {
        &self.layout
    }

    /// The shared ownership map (see [`Ownership`]).
    pub fn owners(&self) -> &Arc<Ownership> {
        &self.owners
    }

    /// Node hosting `slot`.
    #[inline]
    pub fn node_of(&self, slot: usize) -> NodeId {
        self.owners.node_of(slot)
    }

    /// Current allocation of `slot`.
    #[inline]
    pub fn alloc(&self, slot: usize) -> ContainerAlloc {
        self.allocs[slot]
    }

    /// Lifecycle state of `slot`.
    #[inline]
    pub fn state(&self, slot: usize) -> ReplicaState {
        self.state[slot]
    }

    /// Workload cores currently allocated on `node`.
    pub fn node_allocated(&self, node: NodeId) -> u32 {
        self.node_alloc[node.index()]
    }

    /// Actions clamped or rejected so far.
    pub fn clamped(&self) -> u64 {
        self.owners.clamped()
    }

    /// Active (non-draining) replicas of a service group.
    pub fn active_replicas(&self, svc: ServiceId) -> u32 {
        self.layout
            .slots_of(svc)
            .filter(|&slot| self.state[slot] == ReplicaState::Active)
            .count() as u32
    }

    /// Decide `action`, issued by `from`'s controller. Mutates the
    /// ledger, appends what the substrate must do to `fx`, and returns
    /// how the request fared. `idle(slot)` tells whether a slot has no
    /// request in flight (a replica drained while idle retires at once).
    pub fn decide(
        &mut self,
        from: NodeId,
        action: ControlAction,
        idle: impl Fn(usize) -> bool,
        fx: &mut Vec<Effect>,
    ) -> ActionOutcome {
        let (id, _) = action_kind(action);
        if let ControlAction::SetFreq { level, .. } = action {
            return self.owners.decide_freq(from, id, level, fx);
        }
        let slot = match self.owners.check(from, id) {
            Ok(slot) => slot,
            Err(rejected) => return rejected,
        };
        match action {
            ControlAction::SetCores { cores, .. } => self.decide_cores(slot, cores, fx),
            ControlAction::SetReplicas { replicas, .. } => {
                self.decide_replicas(slot, replicas, idle, fx)
            }
            ControlAction::SetBandwidth { units, .. } => {
                let cap = (units != 0).then_some(units as f64 / 10.0);
                fx.push(Effect::Bandwidth { slot, cap });
                ActionOutcome::Applied
            }
            ControlAction::SetEgressHint { hops, .. } => {
                fx.push(Effect::EgressHint { slot, hops });
                ActionOutcome::Applied
            }
            ControlAction::SetFreq { .. } => unreachable!("handled above"),
        }
    }

    fn clamp(&self) -> ActionOutcome {
        self.owners.count_clamp();
        ActionOutcome::Clamped
    }

    fn spare(&self, node: NodeId) -> u32 {
        self.constraints.total_cores - self.node_alloc[node.index()]
    }

    fn decide_cores(&mut self, slot: usize, cores: u32, fx: &mut Vec<Effect>) -> ActionOutcome {
        if self.state[slot] == ReplicaState::Inactive {
            // A retired replica holds no cores; stale actions targeting it
            // are clamped, not silently revived. (Draining replicas remain
            // legal targets — FirstResponder may still boost them while
            // their last requests finish.)
            return self.clamp();
        }
        let node = self.node_of(slot);
        let cons = self.constraints;
        let mut target = cores.clamp(cons.min_cores, cons.max_cores);
        let current = self.allocs[slot].cores;
        let mut outcome = ActionOutcome::Applied;
        // Node budget: growing beyond the node's workload cores is clamped
        // to what is actually spare.
        if target > current {
            let grant = (target - current).min(self.spare(node));
            if grant < target - current {
                outcome = self.clamp();
            }
            target = current + grant;
        }
        if target != current {
            self.node_alloc[node.index()] = self.node_alloc[node.index()] + target - current;
            self.allocs[slot].cores = target;
            fx.push(Effect::Alloc {
                slot,
                alloc: self.allocs[slot],
                record: true,
            });
        }
        outcome
    }

    /// Activate or drain replicas of `slot`'s service group. Spawns grant
    /// the service's initial cores, clamped to the node's spare budget;
    /// scale-in drains (never kills) the highest-numbered replicas, and
    /// the primary is never drained.
    fn decide_replicas(
        &mut self,
        slot: usize,
        replicas: u32,
        idle: impl Fn(usize) -> bool,
        fx: &mut Vec<Effect>,
    ) -> ActionOutcome {
        let svc = self.layout.service_of(slot);
        let node = self.node_of(slot);
        // Out-of-range counts clamp silently, like SetCores' min/max.
        let target = replicas.clamp(1, self.layout.max_replicas);
        let mut outcome = ActionOutcome::Applied;
        let mut active = self.active_replicas(svc);
        let layout = self.layout;
        if target > active {
            // Scale out: un-drain draining replicas first (they still hold
            // cores and connections), then activate inactive slots.
            for slot in layout.slots_of(svc) {
                if active >= target {
                    break;
                }
                match self.state[slot] {
                    ReplicaState::Active => continue,
                    ReplicaState::Draining => {}
                    ReplicaState::Inactive => {
                        let cons = self.constraints;
                        let want =
                            self.initial_cores[svc.index()].clamp(cons.min_cores, cons.max_cores);
                        let spare = self.spare(node);
                        if spare < cons.min_cores {
                            // Not even a minimal replica fits.
                            outcome = self.clamp();
                            break;
                        }
                        let grant = want.min(spare);
                        if grant < want {
                            outcome = self.clamp();
                        }
                        self.node_alloc[node.index()] += grant;
                        self.allocs[slot].cores = grant;
                        self.allocs[slot].freq_level = 0;
                        fx.push(Effect::Alloc {
                            slot,
                            alloc: self.allocs[slot],
                            record: false,
                        });
                    }
                }
                self.state[slot] = ReplicaState::Active;
                active += 1;
                fx.push(Effect::Replica {
                    slot,
                    phase: ReplicaPhase::Spawned,
                    active,
                });
            }
        } else {
            // Scale in: drain highest-numbered first; never the primary.
            for r in (1..layout.max_replicas).rev() {
                if active <= target {
                    break;
                }
                let slot = layout.slot_of(svc, r);
                if self.state[slot] != ReplicaState::Active {
                    continue;
                }
                self.state[slot] = ReplicaState::Draining;
                active -= 1;
                fx.push(Effect::Replica {
                    slot,
                    phase: ReplicaPhase::Draining,
                    active,
                });
                if idle(slot) {
                    fx.extend(self.retire(slot).into_iter().flatten());
                }
            }
        }
        outcome
    }

    /// Retire `slot` if it is draining (the caller vouches its last
    /// request has drained): its cores return to the node budget and it
    /// is metered at zero. No `Alloc` is recorded — the lifecycle event
    /// carries the transition, and the clamp audit only counts core
    /// changes explained by landed actions.
    pub fn retire(&mut self, slot: usize) -> Option<[Effect; 2]> {
        if self.state[slot] != ReplicaState::Draining {
            return None;
        }
        self.state[slot] = ReplicaState::Inactive;
        let node = self.node_of(slot);
        self.node_alloc[node.index()] -= self.allocs[slot].cores;
        self.allocs[slot].cores = 0;
        self.allocs[slot].freq_level = 0;
        Some([
            Effect::Alloc {
                slot,
                alloc: self.allocs[slot],
                record: false,
            },
            Effect::Replica {
                slot,
                phase: ReplicaPhase::Retired,
                active: self.active_replicas(self.layout.service_of(slot)),
            },
        ])
    }

    /// A deferred `SetFreq` lands after the substrate's apply delay. One
    /// that outlived its replica is dropped — re-arming a coreless slot
    /// would record an `Alloc` no landed action explains.
    pub fn land_freq(&mut self, id: ContainerId, level: u8) -> Option<Effect> {
        let slot = id.index();
        let level = level.min(self.freq_table.max_level());
        if self.state[slot] == ReplicaState::Inactive || self.allocs[slot].freq_level == level {
            return None;
        }
        self.allocs[slot].freq_level = level;
        Some(Effect::Alloc {
            slot,
            alloc: self.allocs[slot],
            record: true,
        })
    }

    /// Every slot a crash / node-loss / straggler fault targets, paired
    /// with whether it is provisioned right now. Nothing runs on an
    /// inactive slot, so a fault only *slows* the provisioned ones
    /// (draining included); at fault end every targeted slot is restored,
    /// so a replica that retired mid-window does not come back slow.
    pub fn fault_targets(&self, kind: FaultKind) -> Vec<(usize, bool)> {
        let hit = |s: usize| match kind {
            FaultKind::ContainerCrash { service } => self.layout.service_of(s).0 == service.0,
            FaultKind::NodeLoss { node } => self.node_of(s) == node,
            FaultKind::Straggler {
                service, replica, ..
            } => s == self.layout.slot_of(ServiceId(service.0), replica),
            FaultKind::PoolLeak { .. } | FaultKind::NetworkJitter { .. } => false,
        };
        (0..self.state.len())
            .filter(|&s| hit(s))
            .map(|s| (s, self.state[s] != ReplicaState::Inactive))
            .collect()
    }

    /// The decision-trace event recording `effect`, for the effects that
    /// have one (recorded allocation changes and lifecycle transitions).
    pub fn effect_event(&self, at: SimTime, effect: Effect) -> Option<TelemetryEvent> {
        match effect {
            Effect::Alloc {
                alloc,
                record: true,
                ..
            } => Some(TelemetryEvent::Alloc {
                at,
                container: alloc.id,
                cores: alloc.cores,
                freq_level: alloc.freq_level,
                freq_ghz: self.freq_table.ghz(alloc.freq_level),
            }),
            Effect::Replica {
                slot,
                phase,
                active,
            } => Some(TelemetryEvent::ReplicaLifecycle {
                at,
                node: self.node_of(slot),
                container: ContainerId(slot as u32),
                service: ContainerId(self.layout.service_of(slot).0),
                replica: self.layout.replica_of(slot),
                phase,
                active,
            }),
            _ => None,
        }
    }
}

/// Target container and trace-side kind of an action.
fn action_kind(action: ControlAction) -> (ContainerId, ActionKind) {
    match action {
        ControlAction::SetCores { id, cores } => (id, ActionKind::SetCores { cores }),
        ControlAction::SetFreq { id, level } => (id, ActionKind::SetFreq { level }),
        ControlAction::SetBandwidth { id, units } => (id, ActionKind::SetBandwidth { units }),
        ControlAction::SetEgressHint { id, hops } => (id, ActionKind::SetEgressHint { hops }),
        ControlAction::SetReplicas { id, replicas } => (id, ActionKind::SetReplicas { replicas }),
    }
}

/// The decision-trace event recording what became of `action`.
pub fn action_event(
    at: SimTime,
    node: NodeId,
    origin: ActionOrigin,
    action: ControlAction,
    outcome: ActionOutcome,
) -> TelemetryEvent {
    let (container, kind) = action_kind(action);
    TelemetryEvent::Action {
        at,
        node,
        container,
        origin,
        kind,
        outcome,
    }
}
