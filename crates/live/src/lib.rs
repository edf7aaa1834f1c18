//! `sg-live` — a wall-clock live-execution backend for SurgeGuard.
//!
//! The discrete-event simulator (`sg-sim`) answers "what would the
//! controllers do"; this crate answers "do they still do it when the
//! substrate is real": real worker threads blocked on real connection
//! pools, a real SPSC coordinator/worker pair on the packet hot path, and
//! wall-clock time everywhere. Controllers run **unmodified** — the same
//! `sg_sim::controller::Controller` objects the simulator drives are
//! handed to per-node control threads here, fed `NodeSnapshot`s on their
//! own tick cadence and per-packet rx-hook callbacks, and their actions
//! are enforced with the simulator's exact clamping rules.
//!
//! Substitutions for hardware the test box does not have:
//!
//! | real system              | live backend                              |
//! |--------------------------|-------------------------------------------|
//! | allocated cores × DVFS   | token-bucket [`throttle::CoreGate`]       |
//! | CPU work                 | chunked `thread::sleep` through the gate  |
//! | kernel rx hook           | delivery closure on the [`net::DelayLine`]|
//! | MSR write (freq change)  | `FrRuntime` worker + apply-delay sleep    |
//! | cross-node network       | injected latency from `sg_sim::network`   |
//!
//! Entry point: [`run_live`] (or [`run_live_with_stats`] for substrate
//! diagnostics), returning the same `RunResult` as `Simulation::run`, so
//! every report, figure, and assertion works on either backend. The
//! [`conformance`] module holds the shared directional assertions that
//! `tests/conformance.rs` runs against both substrates.

#![warn(unreachable_pub)]

mod clock;
mod cluster;
pub mod conformance;
mod driver;
mod fault;
pub mod net;
pub mod pool;
mod scrape;
mod sync;
pub mod throttle;
mod worker;

pub use conformance::{run_backend, Backend};
pub use driver::{run_live, run_live_with_stats, LiveOpts, LiveStats};
