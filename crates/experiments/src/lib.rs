//! # sg-experiments — regenerating every table and figure
//!
//! One module per evaluated artifact of the paper; the `sg-experiments`
//! binary drives them through [`FIGURES`]. Every trial batch goes through
//! one [`Suite`], which runs each distinct batch once per invocation.
//! Mapping (see DESIGN.md for the full index):
//!
//! | module | paper artifact |
//! |---|---|
//! | [`table1`] | Table I — controller comparison |
//! | [`fig04`] | Fig. 4 — detection delay vs violation volume |
//! | [`fig05`] | Fig. 5 — threading-model upscaling demo |
//! | [`fig06`] | Fig. 6 — sensitivity curves |
//! | [`fig07`] | Figs. 7/8 — internal-state timelines during a surge |
//! | [`fig10`] | Fig. 10 — short surges (FirstResponder) |
//! | [`fig11`] | Fig. 11 — long surges across workloads |
//! | [`fig12`] | Fig. 12 — surge-duration sweep |
//! | [`fig13`] | Fig. 13 — node scaling |
//! | [`fig14`] | Fig. 14 — allocation timeline |
//! | [`fig15`] | Fig. 15 — Escalator component breakdown |
//! | [`hybrid`] | §VII extension — ML-class + SurgeGuard hybrid |
//! | [`netsurge`] | extension — network-latency surges (abstract claim) |
//! | [`zoo`] | extension — horizontal autoscalers vs vertical scaling |
//! | [`chaos`] | extension — controllers under fault injection |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod cli;
pub mod common;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod hybrid;
pub mod netsurge;
pub mod output;
pub mod parallel;
pub mod suite;
pub mod table1;
pub mod zoo;

pub use common::{run_one, ExpProfile};
pub use output::{JsonSink, Table};
pub use suite::{Arm, Batch, BatchKey, PatternSpec, Suite, SuiteStats, Tweak};

/// A figure's entry point: run it in `suite`, push its JSON rows to the
/// sink, return its printed tables.
pub type Figure = fn(&mut Suite, &mut JsonSink) -> Vec<Table>;

/// Every experiment by CLI name, in `all` order.
pub const FIGURES: [(&str, Figure); 15] = [
    ("table1", table1::run),
    ("fig4", fig04::run),
    ("fig5", fig05::run),
    ("fig6", fig06::run),
    ("fig7", fig07::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("fig15", fig15::run),
    ("hybrid", hybrid::run),
    ("netsurge", netsurge::run),
    ("zoo", zoo::run),
    ("chaos", chaos::run),
];
