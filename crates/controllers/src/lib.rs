//! # sg-controllers — the evaluated resource controllers
//!
//! Per-node vertical-scaling controllers plugged into the `sg-sim`
//! harness, matching the paper's §V line-up:
//!
//! * [`surgeguard`] — the paper's contribution: FirstResponder (per-packet
//!   slack → instant frequency boost) + Escalator (threading-model- and
//!   sensitivity-aware core allocation), with ablation switches.
//! * [`parties`] — the Parties baseline: 500 ms interval, per-container
//!   raw-latency slack, one resource unit at a time.
//! * [`caladan`] — CaladanAlgo: congestion-driven hyperthread granting
//!   using `queueBuildup` as its congestion signal (as in §V).
//! * [`oracle`] — the idealized detection-delay controller behind Fig. 4.
//! * [`centralized`] — an ML-class centralized controller (Sage/Sinan
//!   stand-in: global view, >1 s decision pipeline) and the §VII hybrid
//!   that pairs it with SurgeGuard.
//!
//! The horizontal autoscaler zoo drives the `SetReplicas` actuator:
//!
//! * [`lsram`] — gradient-descent SLO resource allocation
//!   (arXiv:2411.11493), one continuous capacity knob per service group.
//! * [`smart_hpa`] — resource-efficient horizontal pod autoscaling
//!   (arXiv:2403.07909), the HPA formula plus a release-before-grant
//!   budget exchange.
//! * [`sg_h`] — SurgeGuard-H: the unchanged vertical SurgeGuard with a
//!   slow horizontal tier for sustained capacity shortfall.
//!
//! `sg_sim::NoopFactory` provides the static-allocation baseline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod caladan;
pub mod centralized;
pub mod lsram;
pub mod oracle;
pub mod parties;
pub mod sg_h;
pub mod smart_hpa;
pub mod surgeguard;

pub use caladan::{Caladan, CaladanFactory};
pub use centralized::{Centralized, CentralizedFactory, Hybrid, HybridFactory};
pub use lsram::{LsramController, LsramFactory};
pub use oracle::{Oracle, OracleConfig, OracleFactory, OracleKnowledge};
pub use parties::{Parties, PartiesFactory};
pub use sg_h::{SurgeGuardH, SurgeGuardHFactory};
pub use smart_hpa::{SmartHpaController, SmartHpaFactory};
pub use surgeguard::{SurgeGuard, SurgeGuardConfig, SurgeGuardFactory};
