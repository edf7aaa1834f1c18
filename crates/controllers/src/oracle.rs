//! The idealized detection-delay controller for the Fig. 4 experiment.
//!
//! Fig. 4 quantifies *why detection latency matters*: an ideal controller
//! that, upon detecting a surge, "allocates the exact amount of cores
//! needed to overcome it (instead of increasing allocations step-by-step
//! as in real controllers)". Its only imperfection is a configurable
//! detection delay. Because queues build while the surge is undetected,
//! a later detection must allocate *more* cores to both sustain the surge
//! and drain the backlog before the surge ends — the paper reports 40–75 %
//! more cores and up to 24× violation volume going from 0.2 ms to 1 s of
//! delay.
//!
//! The oracle knows the surge schedule (it is an analysis instrument, not
//! a deployable controller): at `surge_start + delay` it sets every
//! container to
//!
//! ```text
//! cores_i = ceil( spike_rate·w_i / u  +  backlog_i / drain_window )
//! ```
//!
//! where `backlog_i = max(0, spike_rate − capacity_i) · delay · w_i` is
//! the work queued during the blind window, and reverts to the initial
//! allocation once the surge (plus drain) is over.

use sg_core::ids::ContainerId;
use sg_core::time::{SimDuration, SimTime};
use sg_sim::controller::{ControlAction, Controller, ControllerFactory, NodeInit, NodeSnapshot};

/// Surge knowledge + delay for the oracle.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Surge start time.
    pub surge_start: SimTime,
    /// Surge end time.
    pub surge_end: SimTime,
    /// Request rate during the surge (req/s).
    pub spike_rate: f64,
    /// Base request rate (req/s).
    pub base_rate: f64,
    /// Detection delay to emulate.
    pub delay: SimDuration,
    /// Target utilization for the "exact" allocation.
    pub utilization: f64,
    /// Decision granularity (only bounds detection timing resolution).
    pub interval: SimDuration,
}

/// Per-service work means, supplied by the experiment (the oracle "knows"
/// the application).
#[derive(Debug, Clone)]
pub struct OracleKnowledge {
    /// `work[service] =` mean per-request work.
    pub work: Vec<SimDuration>,
}

/// Oracle controller state for one node.
pub(crate) struct Oracle {
    cfg: OracleConfig,
    knowledge: OracleKnowledge,
    initial: Vec<(ContainerId, u32)>,
    max_cores: u32,
    step: u32,
    engaged: bool,
    reverted: bool,
}

impl Oracle {
    /// Build from the node description.
    pub(crate) fn new(cfg: OracleConfig, knowledge: OracleKnowledge, init: &NodeInit) -> Self {
        Oracle {
            cfg,
            knowledge,
            initial: init
                .containers
                .iter()
                .map(|c| (c.id, c.initial.cores))
                .collect(),
            max_cores: init.constraints.max_cores,
            step: init.constraints.core_step,
            engaged: false,
            reverted: false,
        }
    }

    /// The exact surge allocation for one container.
    fn surge_cores(&self, id: ContainerId, initial: u32) -> u32 {
        let w = self.knowledge.work[id.index()].as_secs_f64();
        let u = self.cfg.utilization;
        // Capacity of the initial allocation, in req/s.
        let capacity = if w > 0.0 {
            initial as f64 / w
        } else {
            f64::MAX
        };
        // Work queued during the blind window (core-seconds).
        let overload = (self.cfg.spike_rate - capacity).max(0.0);
        let backlog = overload * self.cfg.delay.as_secs_f64() * w;
        // Remaining surge time available to drain it.
        let drain = (self.cfg.surge_end - self.cfg.surge_start)
            .saturating_sub(self.cfg.delay)
            .as_secs_f64()
            .max(0.05);
        let cores = self.cfg.spike_rate * w / u + backlog / drain;
        // Round (not ceil) before stepping so a vanishing backlog term
        // does not spill into an extra whole allocation step.
        let stepped = (cores.round() as u32).div_ceil(self.step) * self.step;
        stepped.clamp(initial, self.max_cores)
    }
}

impl Controller for Oracle {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn tick_interval(&self) -> SimDuration {
        self.cfg.interval
    }

    fn on_tick(&mut self, now: SimTime, _snapshot: &NodeSnapshot) -> Vec<ControlAction> {
        let detect_at = self.cfg.surge_start + self.cfg.delay;
        // Hold the surge allocation past the surge end until the backlog
        // drain window closes.
        let release_at = self.cfg.surge_end + self.cfg.delay;
        if !self.engaged && now >= detect_at && now < release_at {
            self.engaged = true;
            return self
                .initial
                .clone()
                .into_iter()
                .map(|(id, init_cores)| ControlAction::SetCores {
                    id,
                    cores: self.surge_cores(id, init_cores),
                })
                .collect();
        }
        if self.engaged && !self.reverted && now >= release_at {
            self.reverted = true;
            return self
                .initial
                .iter()
                .map(|&(id, cores)| ControlAction::SetCores { id, cores })
                .collect();
        }
        Vec::new()
    }
}

/// Factory for `Oracle`.
#[derive(Debug, Clone)]
pub struct OracleFactory {
    /// Surge schedule + delay.
    pub cfg: OracleConfig,
    /// Application knowledge.
    pub knowledge: OracleKnowledge,
}

impl ControllerFactory for OracleFactory {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn make(&self, init: NodeInit) -> Box<dyn Controller> {
        Box::new(Oracle::new(self.cfg, self.knowledge.clone(), &init))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{node, snapshot, NodeInitExt};

    fn init() -> NodeInit {
        node(&[(0, 4)], 1000).budget(64, 64)
    }

    fn cfg(delay_ms: u64) -> OracleConfig {
        OracleConfig {
            surge_start: SimTime::from_secs(10),
            surge_end: SimTime::from_secs(14),
            spike_rate: 8000.0,
            base_rate: 3000.0,
            delay: SimDuration::from_millis(delay_ms),
            utilization: 0.75,
            interval: SimDuration::from_millis(1),
        }
    }

    #[test]
    fn engages_at_surge_start_plus_delay_and_reverts_after() {
        let knowledge = OracleKnowledge {
            work: vec![SimDuration::from_millis(1)],
        };
        let mut o = Oracle::new(cfg(500), knowledge, &init());
        // Before detection: nothing.
        assert!(o
            .on_tick(SimTime::from_millis(10_400), &snapshot(&[]))
            .is_empty());
        // At detection: the exact surge allocation.
        let engage = o.on_tick(SimTime::from_millis(10_500), &snapshot(&[]));
        assert_eq!(engage.len(), 1);
        match engage[0] {
            ControlAction::SetCores { cores, .. } => {
                // 8000 × 1ms / 0.75 ≈ 10.7 + backlog drain → ≥ 12 cores.
                assert!(cores >= 12, "got {cores}");
            }
            _ => panic!("expected SetCores"),
        }
        // Holds through the surge.
        assert!(o
            .on_tick(SimTime::from_millis(13_000), &snapshot(&[]))
            .is_empty());
        // Reverts after surge end + delay.
        let revert = o.on_tick(SimTime::from_millis(14_500), &snapshot(&[]));
        assert_eq!(
            revert,
            vec![ControlAction::SetCores {
                id: ContainerId(0),
                cores: 4
            }]
        );
        // Never acts again.
        assert!(o.on_tick(SimTime::from_secs(20), &snapshot(&[])).is_empty());
    }

    #[test]
    fn longer_delay_allocates_at_least_as_many_cores() {
        let knowledge = OracleKnowledge {
            work: vec![SimDuration::from_millis(1)],
        };
        let grab = |delay_ms: u64| {
            let mut o = Oracle::new(cfg(delay_ms), knowledge.clone(), &init());
            let at = SimTime::from_secs(10) + SimDuration::from_millis(delay_ms);
            let a = o.on_tick(at, &snapshot(&[]));
            match a[0] {
                ControlAction::SetCores { cores, .. } => cores,
                _ => unreachable!(),
            }
        };
        assert!(grab(1000) >= grab(1), "backlog term must grow with delay");
    }
}
