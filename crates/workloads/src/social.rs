//! DeathStarBench `socialNetwork` actions (paper Table III).
//!
//! Two actions are modelled, both Thrift-based with fixed-size threadpools:
//!
//! * `ReadUserTimeline` — depth 5. The path the paper dissects in Fig. 14:
//!   `nginx → user-timeline-service → post-storage-service →
//!   post-storage-memcached → post-storage-mongodb`, with a
//!   `user-timeline-redis` lookup on the side.
//! * `ComposePost` — depth 8, the deepest Thrift action: text processing,
//!   mention resolution, then the storage pipeline.
//!
//! Topologies are simplified from the full DeathStarBench call graphs but
//! preserve the Table III properties that matter to the controllers:
//! depth, RPC framework, threading model, and which services are
//! compute-heavy vs. cache-light (the source of sensitivity differences,
//! Fig. 6). Service-time dispersion for the storage tier is derived from
//! the synthetic social dataset (`dataset` module).

use crate::dataset::{SocialGraph, SocialGraphConfig};
use crate::{svc, NOMINAL_POOL};
use sg_sim::app::{CallMode, ConnModel, TaskGraph};

/// Every socialNetwork call is a sequential Thrift call over a fixed
/// pool (Table III).
const THRIFT: (ConnModel, CallMode) = (ConnModel::FixedPool(NOMINAL_POOL), CallMode::Sequential);

/// `ReadUserTimeline`: depth 5, 6 services.
///
/// ```text
/// nginx ─► user-timeline-service ─► user-timeline-redis
///                                ─► post-storage-service
///                                      ─► post-storage-memcached
///                                            ─► post-storage-mongodb
/// ```
pub(crate) fn read_user_timeline(dataset_seed: u64) -> TaskGraph {
    let ds = SocialGraph::generate(SocialGraphConfig::default(), dataset_seed);
    let storage_cv = ds.timeline_cost_cv();
    TaskGraph {
        name: "socialNetwork:readUserTimeline".to_string(),
        services: vec![
            // 0: frontend proxy — light, flat sensitivity beyond a couple
            // of cores.
            svc(THRIFT, "nginx", 300, 0.1, vec![1]),
            // 1: the service Fig. 14 shows being over-scaled by Parties.
            svc(THRIFT, "user-timeline-service", 1200, 0.2, vec![2, 3]),
            // 2: redis lookup — cheap.
            svc(THRIFT, "user-timeline-redis", 500, storage_cv, vec![]),
            // 3: the true downstream bottleneck during surges.
            svc(THRIFT, "post-storage-service", 900, 0.2, vec![4]),
            // 4: memcached — light per-hit cost.
            svc(THRIFT, "post-storage-memcached", 500, storage_cv, vec![5]),
            // 5: mongodb — the heavy tail of the chain.
            svc(THRIFT, "post-storage-mongodb", 1500, storage_cv, vec![]),
        ],
    }
}

/// `ComposePost`: depth 8, 10 services.
///
/// ```text
/// nginx ─► compose-post ─► text ─► user-mention ─► user ─► post-storage
///                     │        └► url-shorten          ─► ps-memcached
///                     └► unique-id                        ─► ps-mongodb
/// ```
pub(crate) fn compose_post(dataset_seed: u64) -> TaskGraph {
    let ds = SocialGraph::generate(SocialGraphConfig::default(), dataset_seed);
    let storage_cv = ds.timeline_cost_cv();
    // Post length drives text-processing cost dispersion.
    let text_cv = 0.4;
    TaskGraph {
        name: "socialNetwork:composePost".to_string(),
        services: vec![
            // 0
            svc(THRIFT, "nginx", 300, 0.1, vec![1]),
            // 1
            svc(THRIFT, "compose-post-service", 1000, 0.2, vec![2, 8]),
            // 2
            svc(THRIFT, "text-service", 800, text_cv, vec![3, 9]),
            // 3
            svc(THRIFT, "user-mention-service", 700, text_cv, vec![4]),
            // 4
            svc(THRIFT, "user-service", 800, 0.2, vec![5]),
            // 5
            svc(THRIFT, "post-storage-service", 900, 0.2, vec![6]),
            // 6
            svc(THRIFT, "post-storage-memcached", 500, storage_cv, vec![7]),
            // 7
            svc(THRIFT, "post-storage-mongodb", 1400, storage_cv, vec![]),
            // 8
            svc(THRIFT, "unique-id-service", 300, 0.05, vec![]),
            // 9
            svc(THRIFT, "url-shorten-service", 400, text_cv, vec![]),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_user_timeline_matches_table3() {
        let g = read_user_timeline(42);
        assert!(g.validate().is_ok());
        assert_eq!(g.depth(), 5, "Table III: depth 5");
        assert!(
            crate::edges(&g).all(|c| c == THRIFT.0),
            "Thrift fixed pools"
        );
        assert_eq!(g.len(), 6);
        // Fig. 14 names exist.
        let names: Vec<&str> = g.services.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"user-timeline-service"));
        assert!(names.contains(&"post-storage-service"));
        assert!(names.contains(&"post-storage-memcached"));
    }

    #[test]
    fn compose_post_matches_table3() {
        let g = compose_post(42);
        assert!(g.validate().is_ok());
        assert_eq!(g.depth(), 8, "Table III: depth 8");
        assert!(crate::edges(&g).all(|c| c == THRIFT.0));
        assert_eq!(g.len(), 10);
    }

    #[test]
    fn dataset_seed_controls_dispersion_deterministically() {
        let a = read_user_timeline(1);
        let b = read_user_timeline(1);
        assert_eq!(a, b);
    }

    #[test]
    fn storage_services_inherit_dataset_cv() {
        let g = read_user_timeline(42);
        let mongo = g
            .services
            .iter()
            .find(|s| s.name == "post-storage-mongodb")
            .unwrap();
        assert!(mongo.work_cv > 0.0 && mongo.work_cv <= 1.0);
    }
}
