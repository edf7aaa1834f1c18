//! # sg-loadgen — open-loop spiking load generation and QoS reporting
//!
//! The equivalent of the paper's modified wrk2 (`wrk2_spike`, artifact
//! A₂):
//!
//! * [`spike`] — deterministic open-loop arrival schedules with periodic
//!   request-rate spikes (`-rate`, `-spikerate`, `-spikelen`), free of
//!   coordinated omission;
//! * [`ArrivalProfile`] — the abstraction over load shapes beyond the
//!   spike protocol: diurnal day/night cycles ([`DiurnalCurve`]), seeded
//!   2-state MMPP bursts ([`Mmpp`]), and trace-driven (CSV) rate
//!   timelines ([`TraceProfile`]);
//! * [`ProfileStream`] — pull-based arrival generation: any profile
//!   served as a `sg_core::arrivals::ArrivalSource`, the one generator
//!   behind every `arrivals()` schedule;
//! * [`histogram`] — an HDR-style latency histogram (wrk2's reporting
//!   structure);
//! * [`report`] — per-run reports (violation volume, tails, cores,
//!   energy) and the paper's 17-trial trimmed-mean aggregation.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod histogram;
mod profile;
pub mod report;
pub mod spike;
mod stream;

pub use histogram::LatencyHistogram;
pub use profile::{ArrivalProfile, DiurnalCurve, Mmpp, TraceProfile};
pub use report::{trimmed_mean, AggregateReport, RunReport};
pub use spike::{short_surge, SpikePattern};
pub use stream::ProfileStream;
