//! Escalator candidate scoring (paper §IV-B and Table II).
//!
//! At the start of each decision cycle Escalator reads the per-container
//! window metrics and assigns each container a score counting how many of
//! three conditions flag it as an upscaling candidate:
//!
//! | Detected condition at container c      | Upscaling candidates          |
//! |----------------------------------------|-------------------------------|
//! | `pkt.upscale > 0` received             | container c                   |
//! | `queueBuildup` violation               | downstream containers; also   |
//! |                                        | set `pkt.upscale` on egress   |
//! | `execMetric` violation                 | container c                   |
//!
//! Containers failing more checks get higher scores, so the allocator
//! prioritizes them. Containers with score zero are the preferred
//! downscaling victims.

use crate::config::ContainerParams;
use crate::ids::ContainerId;
use crate::metrics::WindowMetrics;
use serde::{Deserialize, Serialize};

/// `queueBuildup` above this value flags hidden-dependency queueing and
/// marks *downstream* containers as upscaling candidates (Table II; the
/// value is ours). `queueBuildup` is a ratio ≥ 1 (Eq. 3), so the threshold
/// is a ratio.
const QUEUE_TH: f64 = 1.3;

/// `execMetric / expectedExecMetric` above this flags a true local
/// slowdown and marks *this* container as an upscaling candidate (Table II:
/// any excess over the expected value).
const EXEC_TH: f64 = 1.0;

/// Everything Escalator knows about one local container at the start of a
/// decision cycle.
#[derive(Debug, Clone)]
pub struct ContainerObservation {
    /// The container being scored.
    pub id: ContainerId,
    /// Window metrics reported by the container runtime.
    pub metrics: WindowMetrics,
    /// QoS parameters for this container.
    pub params: ContainerParams,
    /// Downstream containers *on the same node* (reachable without the
    /// packet-borne hint). Off-node downstream containers are reached by
    /// the `set_hint` flag instead — that is what keeps SurgeGuard
    /// decentralized.
    pub local_downstream: Vec<ContainerId>,
}

/// Result of scoring one decision cycle.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ScoreBoard {
    /// `(container, score)` for every observed container, in input order.
    /// Score 0 means "not a candidate" (preferred downscaling victim).
    pub scores: Vec<(ContainerId, u32)>,
    /// Containers that detected a `queueBuildup` violation and must set
    /// `pkt.upscale` on their outgoing RPCs so *off-node* downstream
    /// containers also learn they are candidates (Table II row 2).
    pub set_hint: Vec<ContainerId>,
}

impl ScoreBoard {
    /// Score of a specific container (0 if not present).
    pub(crate) fn score_of(&self, id: ContainerId) -> u32 {
        self.scores
            .iter()
            .find(|(c, _)| *c == id)
            .map(|(_, s)| *s)
            .unwrap_or(0)
    }
}

/// Evaluate the three Table II conditions for one container.
///
/// Returns `(hinted, queue_violation, exec_violation)`.
#[inline]
pub(crate) fn conditions(m: &WindowMetrics, params: &ContainerParams) -> (bool, bool, bool) {
    // No traffic in the window means no evidence either way.
    if m.requests == 0 {
        return (false, false, false);
    }
    let hinted = m.upscale_hints > 0;
    let queue_violation = m.queue_buildup > QUEUE_TH;
    let expected = params.expected_exec_metric.as_nanos() as f64;
    let exec_violation = if expected > 0.0 {
        m.mean_exec_metric.as_nanos() as f64 / expected > EXEC_TH
    } else {
        false
    };
    (hinted, queue_violation, exec_violation)
}

/// Run Table II over all observed containers and produce the cycle's
/// [`ScoreBoard`].
pub(crate) fn score_cycle(observations: &[ContainerObservation]) -> ScoreBoard {
    let mut board = ScoreBoard {
        scores: observations.iter().map(|o| (o.id, 0u32)).collect(),
        set_hint: Vec::new(),
    };
    // Dense index from ContainerId to scoreboard slot, for the downstream
    // increments. Observations are few (containers on one node), so a
    // linear map keeps things simple; ids are dense but cluster-global.
    let slot_of = |id: ContainerId, board: &ScoreBoard| -> Option<usize> {
        board.scores.iter().position(|(c, _)| *c == id)
    };

    for obs in observations {
        let (hinted, queue_violation, exec_violation) = conditions(&obs.metrics, &obs.params);
        if hinted {
            let i = slot_of(obs.id, &board).expect("own id always present");
            board.scores[i].1 += 1;
        }
        if exec_violation {
            let i = slot_of(obs.id, &board).expect("own id always present");
            board.scores[i].1 += 1;
        }
        if queue_violation {
            // Candidates are the *downstream* containers, not c itself.
            for &d in &obs.local_downstream {
                if let Some(i) = slot_of(d, &board) {
                    board.scores[i].1 += 1;
                }
            }
            board.set_hint.push(obs.id);
        }
    }
    board
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn params(expected_us: u64) -> ContainerParams {
        ContainerParams {
            expected_exec_metric: SimDuration::from_micros(expected_us),
            expected_time_from_start: SimDuration::from_micros(expected_us * 4),
        }
    }

    fn metrics(requests: u64, exec_metric_us: u64, qb: f64, hints: u64) -> WindowMetrics {
        WindowMetrics {
            requests,
            mean_exec_time: SimDuration::from_micros((exec_metric_us as f64 * qb) as u64),
            mean_exec_metric: SimDuration::from_micros(exec_metric_us),
            queue_buildup: qb,
            upscale_hints: hints,
        }
    }

    fn obs(
        id: u32,
        m: WindowMetrics,
        p: ContainerParams,
        downstream: &[u32],
    ) -> ContainerObservation {
        ContainerObservation {
            id: ContainerId(id),
            metrics: m,
            params: p,
            local_downstream: downstream.iter().map(|&d| ContainerId(d)).collect(),
        }
    }

    #[test]
    fn table2_row1_hint_scores_self() {
        let board = score_cycle(&[obs(0, metrics(10, 100, 1.0, 3), params(200), &[])]);
        assert_eq!(board.score_of(ContainerId(0)), 1);
        assert!(board.set_hint.is_empty());
    }

    #[test]
    fn table2_row2_queue_buildup_scores_downstream_and_sets_hint() {
        // c0 has queue buildup; c1 is its local downstream and healthy.
        let board = score_cycle(&[
            obs(0, metrics(10, 100, 3.0, 0), params(200), &[1]),
            obs(1, metrics(10, 100, 1.0, 0), params(200), &[]),
        ]);
        // The paper's Fig. 5(b) scenario: downstream (c1) is the candidate,
        // NOT the container that shows the inflated latency (c0).
        assert_eq!(board.score_of(ContainerId(0)), 0);
        assert_eq!(board.score_of(ContainerId(1)), 1);
        assert_eq!(board.set_hint, vec![ContainerId(0)]);
    }

    #[test]
    fn table2_row3_exec_violation_scores_self() {
        // execMetric 300us vs expected 200us → ratio 1.5 > EXEC_TH (1.0).
        let board = score_cycle(&[obs(0, metrics(10, 300, 1.0, 0), params(200), &[])]);
        assert_eq!(board.score_of(ContainerId(0)), 1);
    }

    #[test]
    fn conditions_stack_to_higher_scores() {
        // c1: receives a hint AND has its own exec violation AND is
        // downstream of a queue-building c0 → score 3.
        let board = score_cycle(&[
            obs(0, metrics(10, 100, 2.0, 0), params(200), &[1]),
            obs(1, metrics(10, 500, 1.0, 2), params(200), &[]),
        ]);
        assert_eq!(board.score_of(ContainerId(1)), 3);
    }

    #[test]
    fn healthy_containers_score_zero() {
        let board = score_cycle(&[
            obs(0, metrics(10, 100, 1.0, 0), params(200), &[1]),
            obs(1, metrics(10, 50, 1.0, 0), params(200), &[]),
        ]);
        assert!(board.scores.iter().all(|&(_, s)| s == 0));
    }

    #[test]
    fn empty_window_never_flags() {
        // Even with absurd metric values, zero requests means no evidence.
        let mut m = metrics(0, 10_000, 99.0, 0);
        m.requests = 0;
        let board = score_cycle(&[obs(0, m, params(1), &[])]);
        assert_eq!(board.score_of(ContainerId(0)), 0);
    }

    #[test]
    fn off_node_downstream_reached_via_hint_only() {
        // c0 queue-builds, but its downstream c9 is NOT local (not in the
        // observation set). Nothing local is scored, but c0 must set the
        // packet hint so node hosting c9 learns about it.
        let board = score_cycle(&[obs(0, metrics(10, 100, 3.0, 0), params(200), &[9])]);
        assert!(board.scores.iter().all(|&(_, s)| s == 0));
        assert_eq!(board.set_hint, vec![ContainerId(0)]);
    }

    #[test]
    fn connection_per_request_never_queue_flags() {
        // Under connection-per-request queueBuildup stays ~1 even during a
        // surge (paper §VI-B: this is why CaladanAlgo fails on hotel
        // workloads). The exec violation still fires.
        let board = score_cycle(&[obs(0, metrics(100, 900, 1.0, 0), params(200), &[1])]);
        assert_eq!(board.score_of(ContainerId(0)), 1, "exec violation only");
        assert!(board.set_hint.is_empty());
    }
}
