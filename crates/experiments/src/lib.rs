//! # sg-experiments — regenerating every table and figure
//!
//! One module per evaluated artifact of the paper; the `sg-experiments`
//! binary drives them through [`FIGURES`]. Every trial batch goes through
//! one [`Suite`], which runs each distinct batch once per invocation.
//! Mapping (see DESIGN.md for the full index):
//!
//! | module | paper artifact |
//! |---|---|
//! | `table1` | Table I — controller comparison |
//! | `fig04` | Fig. 4 — detection delay vs violation volume |
//! | `fig05` | Fig. 5 — threading-model upscaling demo |
//! | `fig06` | Fig. 6 — sensitivity curves |
//! | `fig07` | Figs. 7/8 — internal-state timelines during a surge |
//! | `fig10` | Fig. 10 — short surges (FirstResponder) |
//! | `fig11` | Fig. 11 — long surges across workloads |
//! | `fig12` | Fig. 12 — surge-duration sweep |
//! | `fig13` | Fig. 13 — node scaling |
//! | `fig14` | Fig. 14 — allocation timeline |
//! | `fig15` | Fig. 15 — Escalator component breakdown |
//! | `hybrid` | §VII extension — ML-class + SurgeGuard hybrid |
//! | `netsurge` | extension — network-latency surges (abstract claim) |
//! | `zoo` | extension — horizontal autoscalers vs vertical scaling |
//! | `chaos` | extension — controllers under fault injection |

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod cli;
mod common;
mod fig04;
pub mod fig05;
mod fig06;
pub mod fig07;
mod fig10;
mod fig11;
pub mod fig12;
mod fig13;
mod fig14;
pub mod fig15;
mod hybrid;
mod netsurge;
mod output;
pub mod parallel;
mod suite;
mod table1;
mod zoo;

pub use common::{run_one, ExpProfile};
pub use output::{JsonSink, Table};
pub use suite::{Arm, Suite, SuiteStats};

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
