//! # sg-controllers — the evaluated resource controllers
//!
//! Per-node vertical-scaling controllers plugged into the `sg-sim`
//! harness, matching the paper's §V line-up:
//!
//! * [`surgeguard`] — the paper's contribution: FirstResponder (per-packet
//!   slack → instant frequency boost) + Escalator (threading-model- and
//!   sensitivity-aware core allocation), with ablation switches.
//! * [`PartiesFactory`] — the Parties baseline: 500 ms interval, per-container
//!   raw-latency slack, one resource unit at a time.
//! * [`CaladanFactory`] — CaladanAlgo: congestion-driven hyperthread granting
//!   using `queueBuildup` as its congestion signal (as in §V).
//! * [`OracleFactory`] — the idealized detection-delay controller behind Fig. 4.
//! * [`CentralizedFactory`] — an ML-class centralized controller
//!   (Sage/Sinan stand-in: global view, >1 s decision pipeline), and
//!   [`HybridFactory`], the §VII hybrid that pairs it with SurgeGuard.
//!
//! The horizontal autoscaler zoo drives the `SetReplicas` actuator:
//!
//! * [`LsramFactory`] — gradient-descent SLO resource allocation
//!   (arXiv:2411.11493), one continuous capacity knob per service group.
//! * [`SmartHpaFactory`] — resource-efficient horizontal pod autoscaling
//!   (arXiv:2403.07909), the HPA formula plus a release-before-grant
//!   budget exchange.
//! * [`SurgeGuardHFactory`] — SurgeGuard-H: the unchanged vertical SurgeGuard with a
//!   slow horizontal tier for sustained capacity shortfall.
//!
//! `sg_sim::NoopFactory` provides the static-allocation baseline.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod caladan;
mod centralized;
#[cfg(test)]
mod fixture;
mod groups;
mod lsram;
mod oracle;
mod parties;
mod sg_h;
mod smart_hpa;
pub mod surgeguard;

pub use caladan::{Caladan, CaladanFactory};
pub use centralized::{CentralizedFactory, Hybrid, HybridFactory};
pub use lsram::LsramFactory;
pub use oracle::{OracleConfig, OracleFactory, OracleKnowledge};
pub use parties::{Parties, PartiesFactory};
pub use sg_h::SurgeGuardHFactory;
pub use smart_hpa::SmartHpaFactory;
pub use surgeguard::{SurgeGuard, SurgeGuardFactory};
