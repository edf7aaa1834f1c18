//! The CHAIN microbenchmark (paper §V, Table III).
//!
//! A chain of five services, each performing arithmetic work (a large
//! vector accumulate), connected with the same Thrift-style fixed-size
//! threadpool model as the DeathStarBench workloads. Work is nearly
//! deterministic (a vector accumulate has almost no variance).

use crate::NOMINAL_POOL;
use sg_core::time::SimDuration;
use sg_sim::app::{linear_chain, ConnModel, TaskGraph};

/// Number of services in the chain.
pub(crate) const CHAIN_LEN: usize = 5;

/// Per-service work (single-core time at base frequency).
pub(crate) const CHAIN_WORK: SimDuration = SimDuration::from_micros(1200);

/// Build the CHAIN task graph.
pub(crate) fn chain() -> TaskGraph {
    let mut g = linear_chain(
        "CHAIN",
        &[CHAIN_WORK; CHAIN_LEN],
        ConnModel::FixedPool(NOMINAL_POOL),
        0.05,
    );
    g.name = "CHAIN".to_string();
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_table3() {
        let g = chain();
        assert!(g.validate().is_ok());
        assert_eq!(g.len(), 5);
        assert_eq!(g.depth(), 5, "Table III: depth 5");
        assert!(
            crate::edges(&g).all(|c| c == ConnModel::FixedPool(NOMINAL_POOL)),
            "Thrift fixed pool"
        );
    }

    #[test]
    fn work_is_nearly_deterministic() {
        let g = chain();
        assert!(g.services.iter().all(|s| s.work_cv <= 0.1));
    }
}
