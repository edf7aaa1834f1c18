//! DeathStarBench `hotelReservation` actions (paper Table III).
//!
//! Both actions use gRPC with the **connection-per-request** model
//! (Table III: threadpool size ∞): no hidden queues ever form, which is
//! exactly why `queueBuildup`-driven controllers (CaladanAlgo) fail to
//! upscale these workloads during surges (§VI-B) while sensitivity-aware
//! allocation still helps.
//!
//! * `searchHotel` — depth 11, the deepest task graph evaluated: the
//!   geo → rate → reservation pipeline each with its cache/db tier.
//! * `recommendHotel` — depth 5: recommendation + profile lookup.
//!
//! As with the social graphs, the topology is a simplification of the full
//! DeathStarBench call graph that preserves the Table III depth, framework
//! and threading properties.

use crate::svc;
use sg_sim::app::{CallMode, ConnModel, TaskGraph};

/// Every hotelReservation call is a sequential gRPC call over a
/// connection of its own.
const GRPC: (ConnModel, CallMode) = (ConnModel::PerRequest, CallMode::Sequential);

/// `searchHotel`: depth 11 (a chain through geo, rate and reservation,
/// each with cache and database tiers).
pub(crate) fn search_hotel() -> TaskGraph {
    TaskGraph {
        name: "hotelReservation:searchHotel".to_string(),
        services: vec![
            svc(GRPC, "frontend", 400, 0.1, vec![1]),               // 0
            svc(GRPC, "search", 1000, 0.2, vec![2]),                // 1
            svc(GRPC, "geo", 800, 0.2, vec![3]),                    // 2
            svc(GRPC, "geo-memcached", 400, 0.3, vec![4]),          // 3
            svc(GRPC, "geo-mongodb", 1100, 0.3, vec![5]),           // 4
            svc(GRPC, "rate", 800, 0.2, vec![6]),                   // 5
            svc(GRPC, "rate-memcached", 400, 0.3, vec![7]),         // 6
            svc(GRPC, "rate-mongodb", 1100, 0.3, vec![8]),          // 7
            svc(GRPC, "reservation", 800, 0.2, vec![9]),            // 8
            svc(GRPC, "reservation-memcached", 400, 0.3, vec![10]), // 9
            svc(GRPC, "reservation-mongodb", 1100, 0.3, vec![]),    // 10
        ],
    }
}

/// `recommendHotel`: depth 5.
pub(crate) fn recommend_hotel() -> TaskGraph {
    TaskGraph {
        name: "hotelReservation:recommendHotel".to_string(),
        services: vec![
            svc(GRPC, "frontend", 400, 0.1, vec![1]),          // 0
            svc(GRPC, "recommendation", 1000, 0.2, vec![2]),   // 1
            svc(GRPC, "profile", 800, 0.2, vec![3]),           // 2
            svc(GRPC, "profile-memcached", 500, 0.3, vec![4]), // 3
            svc(GRPC, "profile-mongodb", 1300, 0.3, vec![]),   // 4
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_hotel_matches_table3() {
        let g = search_hotel();
        assert!(g.validate().is_ok());
        assert_eq!(g.depth(), 11, "Table III: depth 11");
    }

    #[test]
    fn recommend_hotel_matches_table3() {
        let g = recommend_hotel();
        assert!(g.validate().is_ok());
        assert_eq!(g.depth(), 5, "Table III: depth 5");
    }

    #[test]
    fn no_fixed_pools_anywhere() {
        for g in [search_hotel(), recommend_hotel()] {
            assert!(crate::edges(&g).all(|c| c == ConnModel::PerRequest));
        }
    }
}
