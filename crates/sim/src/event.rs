//! Event vocabulary for the cluster simulation.
//!
//! Every event payload is a small `Copy` type — the queue backends
//! (see [`crate::engine`]) move events freely between wheel slots,
//! overflow storage, and scratch buffers, so payloads must be cheap to
//! copy and carry no heap state. Anything per-request and variable
//! sized lives in the invocation slab, keyed by [`InvocationId`].
//!
//! Events also derive `Ord`: the engine's total order is `(time, seq)`
//! with `seq` assigned at schedule time, so event *payload* ordering is
//! never consulted for queue order — the derive exists so tests and
//! scratch-buffer sorts can use events as plain values.
//!
//! The variants mirror the simulation's physical moments: open-loop
//! arrivals ([`Event::ClientArrival`] — one in flight at a time, pulled
//! from an `ArrivalSource`, see SCALING.md §3), packet delivery at a
//! node's receive hook ([`Event::Deliver`]), processor-sharing phase
//! completion guarded by per-slot epochs ([`Event::PhaseComplete`]),
//! per-node controller decision points ([`Event::ControllerTick`]),
//! deferred DVFS writes ([`Event::FreqApply`]), and fault-plan
//! boundaries ([`Event::FaultStart`]/[`Event::FaultEnd`]).

use sg_core::ids::{ContainerId, NodeId};
use sg_core::metadata::RpcMetadata;

/// Index of an invocation in the simulation's invocation slab.
pub type InvocationId = u32;

/// What a network packet carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PacketKind {
    /// An RPC request travelling down the task graph.
    Request,
    /// An RPC response travelling back up.
    Response,
}

/// An RPC packet in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Packet {
    /// Request or response.
    pub kind: PacketKind,
    /// The invocation this packet creates (request) or the *parent*
    /// invocation it answers (response).
    pub invocation: InvocationId,
    /// Container the packet is addressed to.
    pub dest: ContainerId,
    /// Index of the parent's child edge this RPC travels on (identifies
    /// which connection pool to release when the response returns).
    pub edge: u16,
    /// Replica index of the callee within its service group — with
    /// `edge`, it identifies the exact per-replica connection pool the
    /// response must release. 0 (the primary) in single-replica runs.
    pub rep: u16,
    /// SurgeGuard metadata fields (Fig. 8). Responses carry the same
    /// `start_time`; only request packets are inspected by FirstResponder.
    pub meta: RpcMetadata,
}

/// A simulation event. Payloads are small `Copy` types; all request state
/// lives in the invocation slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Event {
    /// A client request enters the system (open-loop arrival).
    ClientArrival {
        /// Ordinal of this arrival in the run's open-loop schedule —
        /// the position a materialized schedule would index, preserved
        /// verbatim when arrivals are streamed.
        arrival_idx: u32,
    },
    /// A packet reaches its destination node's receive hook.
    Deliver {
        /// The packet being delivered.
        packet: Packet,
    },
    /// A container's earliest-finishing work phase has come due. The
    /// engine hands one out when the slot's armed completion timer fires
    /// (`Engine::arm`); it is never left on the queue to go stale. The
    /// handler harvests whatever is due and re-arms, so one scheduled by
    /// hand for a slot with nothing due does nothing.
    PhaseComplete {
        /// The container whose processor-sharing queue fired.
        container: ContainerId,
        /// The container epoch the timer was armed under — the slot's
        /// current epoch whenever a timer fires, since every change to
        /// the slot re-arms it. Nothing is decided on it.
        epoch: u64,
    },
    /// Periodic controller decision point for one node.
    ControllerTick {
        /// The node whose controller runs.
        node: NodeId,
    },
    /// A frequency update reaches the hardware (models the FirstResponder
    /// worker-thread latency: the boost decision is instant, the MSR write
    /// lands a few microseconds later).
    FreqApply {
        /// Container whose cores change frequency.
        container: ContainerId,
        /// New DVFS level.
        level: u8,
    },
    /// A scheduled fault from the config's fault plan begins.
    FaultStart {
        /// Index into `SimConfig::faults.faults`.
        idx: u32,
    },
    /// The fault clears (containers restart, leaked connections drain).
    FaultEnd {
        /// Index into `SimConfig::faults.faults`.
        idx: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_core::time::SimTime;

    #[test]
    fn events_are_ordered_and_copyable() {
        let a = Event::ControllerTick { node: NodeId(0) };
        let b = a; // Copy
        assert_eq!(a, b);
        let p = Packet {
            kind: PacketKind::Request,
            invocation: 1,
            dest: ContainerId(2),
            edge: 0,
            rep: 0,
            meta: RpcMetadata::new_job(SimTime::ZERO),
        };
        let d1 = Event::Deliver { packet: p };
        let d2 = Event::Deliver { packet: p };
        assert!(d1 <= d2);
    }
}
