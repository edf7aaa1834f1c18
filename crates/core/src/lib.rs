//! # sg-core — SurgeGuard's algorithms
//!
//! Simulator-independent implementation of the mechanisms from
//! *Fast and Efficient Scaling for Microservices with SurgeGuard*
//! (SC 2024):
//!
//! * [`slack`] / [`firstresponder`] — the per-packet fast path
//!   (Design Feature #1): slack tracking against expected progress,
//!   cooldown windows, and the Fig. 9 coordinator/worker runtime.
//! * [`metrics`] — the threading-model-aware metrics `execMetric` and
//!   `queueBuildup` (Design Feature #2, Eqs. 2–3).
//! * [`sensitivity`] — the online `execAvg` sensitivity matrix
//!   (Design Feature #3).
//! * [`score`] / [`escalator`] — the Escalator decision cycle: Table II
//!   candidate scoring, sensitivity-ranked upscaling, and sensitivity/
//!   utilization-based downscaling over a Parties-style base allocator.
//! * [`violation`] — the *violation volume* evaluation metric (§II-D).
//! * [`metadata`] — the RPC metadata fields (`startTime`, `upscale`)
//!   that keep the whole controller decentralized (Fig. 8).
//! * [`allocator`] — node-local core/frequency accounting shared by all
//!   controllers (Parties, CaladanAlgo, SurgeGuard).
//! * [`littles_law`] — threadpool sizing (Eq. 1).
//! * [`logbucket`] — the shared HDR-style log-bucket math behind the
//!   load generator's histogram and the mergeable telemetry digests.
//! * [`fault`] — the deterministic fault-injection plan DSL shared by
//!   both substrates (crash, node loss, pool leak, jitter, straggler).
//!
//! Everything here is pure, deterministic, and free of I/O: the same code
//! drives the discrete-event cluster in `sg-sim`, the live substrate in
//! `sg-live`, the unit tests, and the `sg-bench` scenarios that check the
//! fast path stays in the sub-microsecond regime the paper reports.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod allocator;
pub mod arrivals;
pub mod config;
pub mod escalator;
pub mod fault;
pub mod firstresponder;
pub mod ids;
pub mod littles_law;
pub mod logbucket;
pub mod metadata;
pub mod metrics;
pub mod replica;
pub mod score;
pub mod sensitivity;
pub mod slack;
pub mod time;
pub mod violation;

pub use allocator::{AllocAction, AllocConstraints, ContainerAlloc, FreqTable};
pub use arrivals::{ArrivalSource, ScheduleSource};
pub use config::{ContainerParams, EscalatorConfig, PROFILE_TARGET_FACTOR};
pub use escalator::{Escalator, EscalatorDecision, EscalatorObservation};
pub use fault::{FaultKind, FaultNotice, FaultPlan, FaultSpec};
pub use firstresponder::{BoostDecision, FirstResponder, FirstResponderConfig};
pub use ids::{ContainerId, NodeId, RequestId, ServiceId};
pub use metadata::RpcMetadata;
pub use metrics::{MetricsWindow, RequestSample, WindowMetrics};
pub use replica::ReplicaLayout;
pub use sensitivity::SensitivityMatrix;
pub use time::{SimDuration, SimTime};
pub use violation::{violation_volume, LatencyPoint};
