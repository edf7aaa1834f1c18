//! Application model: services, RPC edges, threading/connection models,
//! and the task graph (paper §II-A, Fig. 2).
//!
//! An application is a tree-shaped task graph rooted at the frontend
//! service. Each service performs local work, calls its children
//! (sequentially or in parallel), finishes with a small amount of
//! post-processing, and replies. Inter-service edges use one of the two
//! connection models the paper studies:
//!
//! * **connection-per-request** (gRPC-style) — unlimited concurrency,
//!   no hidden queues;
//! * **fixed-size threadpool** (Thrift-style) — a bounded pool of
//!   connections per edge; when exhausted, callers queue *inside the
//!   upstream container*, invisible to network-level metrics.

use serde::{Deserialize, Serialize};
use sg_core::ids::ServiceId;
use sg_core::replica::ReplicaLayout;
use sg_core::time::SimDuration;

/// Connection model of an RPC edge (paper §II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConnModel {
    /// A new connection/thread per RPC; never blocks the caller.
    PerRequest,
    /// Fixed pool of `0.0`-cost reusable connections; callers wait FIFO
    /// for a free one when all are in flight.
    FixedPool(u32),
}

impl ConnModel {
    /// Pool capacity; `None` means unlimited.
    pub fn capacity(self) -> Option<u32> {
        match self {
            ConnModel::PerRequest => None,
            ConnModel::FixedPool(n) => Some(n),
        }
    }
}

/// How a service issues calls to its children.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CallMode {
    /// Children are called one after another (each call completes before
    /// the next is issued). Typical of chained business logic.
    #[default]
    Sequential,
    /// All children are called concurrently and joined (scatter-gather).
    Parallel,
    /// Exactly one child edge is called per request, drawn uniformly —
    /// a load-balanced dispatch tier (API gateway in front of backend
    /// pools). This is what lets a cluster-scale workload spread one
    /// entry service's traffic over thousands of backend containers
    /// while keeping per-request event count constant.
    OneOf,
}

/// An RPC edge from a service to one child.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeSpec {
    /// The callee service.
    pub child: ServiceId,
    /// Connection model governing this edge.
    pub conn: ConnModel,
}

/// One service of the application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceSpec {
    /// Human-readable name (e.g. `user-timeline-service`).
    pub name: String,
    /// Mean local CPU work per request, expressed as single-core time at
    /// the base frequency.
    pub work_mean: SimDuration,
    /// Relative dispersion of the work distribution (0 = deterministic;
    /// the sampler uses an exponential mix, see `container::sample_work`).
    pub work_cv: f64,
    /// Fraction of the local work performed *before* child calls are
    /// issued; the remainder runs after all children reply.
    pub pre_fraction: f64,
    /// Outgoing RPC edges.
    pub children: Vec<EdgeSpec>,
    /// Sequential or scatter-gather child calls.
    pub call_mode: CallMode,
}

/// A complete application task graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskGraph {
    /// Application name (e.g. `socialNetwork:readUserTimeline`).
    pub name: String,
    /// Services, indexed by [`ServiceId`]. Service 0 is the frontend.
    pub services: Vec<ServiceSpec>,
}

impl TaskGraph {
    /// The frontend (entry) service.
    pub const ROOT: ServiceId = ServiceId(0);

    /// Number of services.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// True when the graph has no services (invalid for simulation).
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// Validate the graph: non-empty, acyclic (tree/DAG shaped: children
    /// only reference higher ids — the builders construct graphs this
    /// way), in-range child ids, sane fractions.
    pub fn validate(&self) -> Result<(), String> {
        if self.services.is_empty() {
            return Err("task graph has no services".into());
        }
        for (i, s) in self.services.iter().enumerate() {
            if !(0.0..=1.0).contains(&s.pre_fraction) {
                return Err(format!("{}: pre_fraction out of [0,1]", s.name));
            }
            if s.work_cv < 0.0 {
                return Err(format!("{}: negative work_cv", s.name));
            }
            for e in &s.children {
                if e.child.index() >= self.services.len() {
                    return Err(format!("{}: child {} out of range", s.name, e.child));
                }
                if e.child.index() <= i {
                    return Err(format!(
                        "{}: child {} does not increase id (cycle risk)",
                        s.name, e.child
                    ));
                }
                if let ConnModel::FixedPool(0) = e.conn {
                    return Err(format!("{}: zero-capacity pool", s.name));
                }
            }
        }
        Ok(())
    }

    /// Task-graph depth: number of services on the longest root-to-leaf
    /// path (Table III's "Task-graph Depth").
    pub fn depth(&self) -> usize {
        fn depth_of(g: &TaskGraph, s: ServiceId) -> usize {
            1 + g.services[s.index()]
                .children
                .iter()
                .map(|e| depth_of(g, e.child))
                .max()
                .unwrap_or(0)
        }
        if self.is_empty() {
            0
        } else {
            depth_of(self, TaskGraph::ROOT)
        }
    }

    /// Direct children of `s`.
    pub(crate) fn children(&self, s: ServiceId) -> impl Iterator<Item = ServiceId> + '_ {
        self.services[s.index()].children.iter().map(|e| e.child)
    }

    /// Every `(caller slot, edge)` whose connection pools feed `target`:
    /// each replica slot of each caller, each of its edges toward
    /// `target`, in that order (both substrates key their pools by
    /// caller slot, then edge).
    pub fn edges_toward(&self, target: ServiceId, layout: &ReplicaLayout) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (caller, spec) in self.services.iter().enumerate() {
            let edges = || (0..spec.children.len()).filter(|&e| spec.children[e].child == target);
            for slot in layout.slots_of(ServiceId(caller as u32)) {
                out.extend(edges().map(|e| (slot, e)));
            }
        }
        out
    }

    /// Expected low-load end-to-end *critical-path* service time: local
    /// work plus child time (max over children when parallel, sum when
    /// sequential). Ignores network and queueing; a lower bound used for
    /// sizing QoS targets.
    pub fn critical_path_work(&self, s: ServiceId) -> SimDuration {
        let spec = &self.services[s.index()];
        let child_works: Vec<SimDuration> = spec
            .children
            .iter()
            .map(|e| self.critical_path_work(e.child))
            .collect();
        let child_time = match spec.call_mode {
            // OneOf visits a single child; max over children is the
            // conservative (worst-pick) bound for QoS sizing.
            CallMode::Parallel | CallMode::OneOf => {
                child_works.into_iter().max().unwrap_or(SimDuration::ZERO)
            }
            CallMode::Sequential => child_works
                .into_iter()
                .fold(SimDuration::ZERO, |acc, w| acc + w),
        };
        spec.work_mean + child_time
    }
}

/// Convenience builder for linear chains, used by tests and the CHAIN
/// microbenchmark.
pub fn linear_chain(name: &str, works: &[SimDuration], conn: ConnModel, work_cv: f64) -> TaskGraph {
    let n = works.len();
    let services = works
        .iter()
        .enumerate()
        .map(|(i, &w)| ServiceSpec {
            name: format!("{name}-s{i}"),
            work_mean: w,
            work_cv,
            pre_fraction: 0.7,
            children: if i + 1 < n {
                vec![EdgeSpec {
                    child: ServiceId((i + 1) as u32),
                    conn,
                }]
            } else {
                Vec::new()
            },
            call_mode: CallMode::Sequential,
        })
        .collect();
    TaskGraph {
        name: name.to_string(),
        services,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn chain_builder_shapes() {
        let g = linear_chain("chain", &[us(100); 5], ConnModel::FixedPool(64), 0.1);
        assert!(g.validate().is_ok());
        assert_eq!(g.len(), 5);
        assert_eq!(g.depth(), 5);
        assert_eq!(g.critical_path_work(TaskGraph::ROOT), us(500));
    }

    #[test]
    fn parallel_critical_path_takes_max() {
        let mk_leaf = |name: &str, w: u64| ServiceSpec {
            name: name.into(),
            work_mean: us(w),
            work_cv: 0.0,
            pre_fraction: 0.5,
            children: vec![],
            call_mode: CallMode::Sequential,
        };
        let g = TaskGraph {
            name: "fan".into(),
            services: vec![
                ServiceSpec {
                    name: "root".into(),
                    work_mean: us(100),
                    work_cv: 0.0,
                    pre_fraction: 0.5,
                    children: vec![
                        EdgeSpec {
                            child: ServiceId(1),
                            conn: ConnModel::PerRequest,
                        },
                        EdgeSpec {
                            child: ServiceId(2),
                            conn: ConnModel::PerRequest,
                        },
                    ],
                    call_mode: CallMode::Parallel,
                },
                mk_leaf("a", 300),
                mk_leaf("b", 500),
            ],
        };
        assert!(g.validate().is_ok());
        assert_eq!(g.depth(), 2);
        assert_eq!(g.critical_path_work(TaskGraph::ROOT), us(600));
        // Sequential would sum instead.
        let mut g2 = g.clone();
        g2.services[0].call_mode = CallMode::Sequential;
        assert_eq!(g2.critical_path_work(TaskGraph::ROOT), us(900));
    }

    #[test]
    fn validation_catches_bad_graphs() {
        let mut g = linear_chain("g", &[us(10); 3], ConnModel::PerRequest, 0.0);
        g.services[0].pre_fraction = 1.5;
        assert!(g.validate().is_err());

        let mut g = linear_chain("g", &[us(10); 3], ConnModel::PerRequest, 0.0);
        g.services[2].children.push(EdgeSpec {
            child: ServiceId(0),
            conn: ConnModel::PerRequest,
        });
        assert!(g.validate().is_err(), "back-edge rejected");

        let mut g = linear_chain("g", &[us(10); 2], ConnModel::PerRequest, 0.0);
        g.services[0].children[0].conn = ConnModel::FixedPool(0);
        assert!(g.validate().is_err(), "zero pool rejected");

        let empty = TaskGraph {
            name: "empty".into(),
            services: vec![],
        };
        assert!(empty.validate().is_err());
        assert_eq!(empty.depth(), 0);
    }

    #[test]
    fn conn_model_capacity() {
        assert_eq!(ConnModel::PerRequest.capacity(), None);
        assert_eq!(ConnModel::FixedPool(512).capacity(), Some(512));
    }
}
