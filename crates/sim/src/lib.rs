//! # sg-sim — deterministic discrete-event microservice cluster
//!
//! The substrate the SurgeGuard reproduction runs on, standing in for the
//! paper's four-node Chameleon testbed (see DESIGN.md for the substitution
//! argument). It models:
//!
//! * **nodes** with logical cores and per-container DVFS
//!   ([`cluster`], [`power`]);
//! * **containers** as egalitarian processor-sharing servers — thread
//!   contention and flat sensitivity curves emerge from the model
//!   ([`container`]);
//! * the two **RPC connection models** whose hidden queues motivate the
//!   paper: connection-per-request and fixed-size threadpool
//!   ([`app`], [`connpool`]);
//! * an inter-node **network** with jitter and optional latency surges
//!   ([`network`]);
//! * per-node **controllers** attached via the same two hooks the real
//!   system uses — a per-packet rx hook (the FirstResponder site) and a
//!   periodic metrics snapshot ([`controller`]), their actions decided
//!   by one substrate-blind allocation ledger ([`ledger`]);
//! * low-load **profiling** and load–latency **calibration** matching the
//!   paper's experimental protocol ([`profile`]).
//!
//! Every run is a pure function of `(SimConfig, seed)`: the event queue
//! breaks timestamp ties by insertion order and all randomness flows from
//! one seeded `SmallRng`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod app;
pub mod cluster;
pub mod connpool;
pub mod container;
pub mod controller;
pub mod engine;
pub mod event;
pub mod ledger;
pub mod network;
pub mod power;
pub mod profile;
pub mod runner;
pub mod trace;

pub use app::{CallMode, ConnModel, EdgeSpec, ServiceSpec, TaskGraph};
pub use cluster::{Placement, SimConfig};
pub use controller::{
    ContainerInit, ContainerSnapshot, ControlAction, Controller, ControllerFactory, NodeInit,
    NodeSnapshot, NoopFactory,
};
pub use engine::{Engine, QueueKind, WHEEL_LEVELS};
pub use event::Event;
pub use ledger::{AllocLedger, Effect, ReplicaState};
pub use network::{LatencySurge, NetworkConfig};
pub use power::PowerModel;
pub use profile::{constant_arrivals, profile_low_load, ProfileOutcome};
pub use runner::{ProfileStats, RunResult, Simulation};
pub use trace::{alloc_trace_csv, latency_csv, AllocTrace};
