//! # sg-workloads — DeathStarBench-equivalent applications
//!
//! Task-graph models of the five actions the paper evaluates (Table III):
//!
//! | Workload | Action | Depth | RPC | Threadpool |
//! |---|---|---|---|---|
//! | CHAIN | — | 5 | Thrift | fixed |
//! | socialNetwork | ReadUserTimeline | 5 | Thrift | fixed |
//! | socialNetwork | ComposePost | 8 | Thrift | fixed |
//! | hotelReservation | searchHotel | 11 | gRPC | ∞ (per-request) |
//! | hotelReservation | recommendHotel | 5 | gRPC | ∞ (per-request) |
//!
//! plus the synthetic social dataset that sets the storage-tier
//! service-time distributions, and the calibration pipeline ([`setup`])
//! that reproduces the paper's experimental protocol: 34-core initial
//! allocation, base rate below the knee, Little's-law pool provisioning,
//! low-load parameter profiling and QoS-limit selection.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod chain;
mod dataset;
mod hotel;
pub mod setup;
mod social;

pub use setup::{prepare, CalibrationOptions, PreparedWorkload, Workload};

use sg_core::ids::ServiceId;
use sg_core::time::SimDuration;
use sg_sim::app::{CallMode, ConnModel, EdgeSpec, ServiceSpec};

/// Nominal Thrift threadpool size (Table III). The simulator scales pools
/// to the calibrated request rate via Little's law (Eq. 1); see
/// [`setup::scale_pools`].
const NOMINAL_POOL: u32 = 512;

/// One service doing `work_us` of work (coefficient of variation `cv`)
/// that calls `children` (service indices) over connection model
/// `rpc.0` in call mode `rpc.1`.
fn svc(
    rpc: (ConnModel, CallMode),
    name: &str,
    work_us: u64,
    cv: f64,
    children: Vec<u32>,
) -> ServiceSpec {
    let (conn, mode) = rpc;
    ServiceSpec {
        name: name.to_string(),
        work_mean: SimDuration::from_micros(work_us),
        work_cv: cv,
        pre_fraction: 0.7,
        children: children
            .into_iter()
            .map(|c| EdgeSpec {
                child: ServiceId(c),
                conn,
            })
            .collect(),
        call_mode: mode,
    }
}

/// Every edge's connection model, for the Table III threading checks.
#[cfg(test)]
fn edges(g: &sg_sim::app::TaskGraph) -> impl Iterator<Item = ConnModel> + '_ {
    g.services
        .iter()
        .flat_map(|s| s.children.iter().map(|e| e.conn))
}
