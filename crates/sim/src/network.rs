//! Network latency model.
//!
//! RPCs between containers cross either the node-local loopback (fast) or
//! the cluster fabric (slower). Latency is `base + Exp(jitter_mean)`;
//! packets between the same pair are not forced to arrive in order (the
//! fabric is multi-queue), which the request layer tolerates because each
//! packet fully identifies its invocation.
//!
//! The model also supports *latency surges* — a window during which every
//! fabric hop pays an extra delay — used to reproduce SurgeGuard's claim
//! of guarding against "surges in ... network latency".

use crate::cluster::SimConfig;
use rand::rngs::SmallRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};
use sg_core::fault::FaultKind;
use sg_core::ids::NodeId;
use sg_core::time::{SimDuration, SimTime};

/// Static latency parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Base one-way latency between containers on the same node
    /// (loopback + kernel stack).
    pub local_base: SimDuration,
    /// Base one-way latency across the fabric.
    pub remote_base: SimDuration,
    /// Mean of the exponential jitter added to every hop.
    pub jitter_mean: SimDuration,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            local_base: SimDuration::from_micros(10),
            remote_base: SimDuration::from_micros(50),
            jitter_mean: SimDuration::from_micros(5),
        }
    }
}

/// An optional network-latency surge window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySurge {
    /// Surge start.
    pub start: SimTime,
    /// Surge end.
    pub end: SimTime,
    /// Extra one-way latency during the window.
    pub extra: SimDuration,
}

/// The network model.
#[derive(Debug, Clone)]
pub struct Network {
    cfg: NetworkConfig,
    /// Active surge windows; overlapping windows stack additively. All
    /// windows are installed at construction time (workload surges and
    /// fault-plan jitter alike), keeping the model static data.
    surges: Vec<LatencySurge>,
}

impl Network {
    /// Network with the given parameters and no surge.
    pub fn new(cfg: NetworkConfig) -> Self {
        Network {
            cfg,
            surges: Vec::new(),
        }
    }

    /// The network `cfg` runs on: its parameters, its workload surge, and
    /// one surge window per fault-plan jitter fault. The plan is static
    /// data, so both substrates install every window at construction.
    pub fn for_config(cfg: &SimConfig) -> Self {
        let jitter = cfg.faults.faults.iter().filter_map(|f| match f.kind {
            FaultKind::NetworkJitter { extra } => Some(LatencySurge {
                start: f.at,
                end: f.end(),
                extra,
            }),
            _ => None,
        });
        Network {
            cfg: cfg.network,
            surges: cfg.latency_surge.into_iter().chain(jitter).collect(),
        }
    }

    /// One-way delivery latency for a packet sent at `now` from `src` to
    /// `dst` node.
    pub fn latency(
        &self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        rng: &mut SmallRng,
    ) -> SimDuration {
        let base = if src == dst {
            self.cfg.local_base
        } else {
            self.cfg.remote_base
        };
        let jitter_mean = self.cfg.jitter_mean.as_nanos() as f64;
        let jitter = if jitter_mean > 0.0 {
            let u: f64 = rng.random::<f64>();
            SimDuration::from_nanos((-jitter_mean * (1.0f64 - u).max(1e-12).ln()).round() as u64)
        } else {
            SimDuration::ZERO
        };
        let mut surge_extra = SimDuration::ZERO;
        if src != dst {
            for s in &self.surges {
                if now >= s.start && now < s.end {
                    surge_extra += s.extra;
                }
            }
        }
        base + jitter + surge_extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn local_is_faster_than_remote() {
        let cfg = NetworkConfig {
            jitter_mean: SimDuration::ZERO,
            ..Default::default()
        };
        let net = Network::new(cfg);
        let mut r = rng();
        let local = net.latency(SimTime::ZERO, NodeId(0), NodeId(0), &mut r);
        let remote = net.latency(SimTime::ZERO, NodeId(0), NodeId(1), &mut r);
        assert_eq!(local, cfg.local_base);
        assert_eq!(remote, cfg.remote_base);
        assert!(local < remote);
    }

    #[test]
    fn jitter_is_nonnegative_and_varies() {
        let net = Network::new(NetworkConfig::default());
        let mut r = rng();
        let samples: Vec<SimDuration> = (0..100)
            .map(|_| net.latency(SimTime::ZERO, NodeId(0), NodeId(1), &mut r))
            .collect();
        assert!(samples
            .iter()
            .all(|&s| s >= NetworkConfig::default().remote_base));
        let distinct: std::collections::HashSet<_> = samples.iter().collect();
        assert!(distinct.len() > 10, "jitter should vary");
    }

    #[test]
    fn surge_applies_only_in_window_and_off_node() {
        let cfg = NetworkConfig {
            jitter_mean: SimDuration::ZERO,
            ..Default::default()
        };
        let net = Network {
            cfg,
            surges: vec![LatencySurge {
                start: SimTime::from_millis(10),
                end: SimTime::from_millis(20),
                extra: SimDuration::from_millis(1),
            }],
        };
        let mut r = rng();
        let before = net.latency(SimTime::from_millis(5), NodeId(0), NodeId(1), &mut r);
        let during = net.latency(SimTime::from_millis(15), NodeId(0), NodeId(1), &mut r);
        let after = net.latency(SimTime::from_millis(25), NodeId(0), NodeId(1), &mut r);
        let local_during = net.latency(SimTime::from_millis(15), NodeId(0), NodeId(0), &mut r);
        assert_eq!(before, cfg.remote_base);
        assert_eq!(during, cfg.remote_base + SimDuration::from_millis(1));
        assert_eq!(after, cfg.remote_base);
        assert_eq!(local_during, cfg.local_base, "loopback unaffected");
    }

    #[test]
    fn overlapping_surges_stack() {
        let cfg = NetworkConfig {
            jitter_mean: SimDuration::ZERO,
            ..Default::default()
        };
        let net = Network {
            cfg,
            surges: vec![
                LatencySurge {
                    start: SimTime::from_millis(10),
                    end: SimTime::from_millis(30),
                    extra: SimDuration::from_millis(1),
                },
                LatencySurge {
                    start: SimTime::from_millis(20),
                    end: SimTime::from_millis(40),
                    extra: SimDuration::from_micros(500),
                },
            ],
        };
        let mut r = rng();
        let only_first = net.latency(SimTime::from_millis(15), NodeId(0), NodeId(1), &mut r);
        let both = net.latency(SimTime::from_millis(25), NodeId(0), NodeId(1), &mut r);
        let only_second = net.latency(SimTime::from_millis(35), NodeId(0), NodeId(1), &mut r);
        assert_eq!(only_first, cfg.remote_base + SimDuration::from_millis(1));
        assert_eq!(both, cfg.remote_base + SimDuration::from_micros(1500));
        assert_eq!(only_second, cfg.remote_base + SimDuration::from_micros(500));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let net = Network::new(NetworkConfig::default());
        let a: Vec<_> = {
            let mut r = rng();
            (0..10)
                .map(|_| net.latency(SimTime::ZERO, NodeId(0), NodeId(1), &mut r))
                .collect()
        };
        let b: Vec<_> = {
            let mut r = rng();
            (0..10)
                .map(|_| net.latency(SimTime::ZERO, NodeId(0), NodeId(1), &mut r))
                .collect()
        };
        assert_eq!(a, b);
    }
}
