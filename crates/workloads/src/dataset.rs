//! Synthetic datasets standing in for the DeathStarBench inputs.
//!
//! The paper initializes `socialNetwork` with the `socfb-Reed98` Facebook
//! graph (962 users, power-law-ish degrees) and stores 30 randomly sized
//! posts per user; `hotelReservation` uses the dataset shipped with
//! DeathStarBench. Neither dataset download is available here, so this
//! module generates equivalents with the same *statistical role*: the
//! dataset determines the per-request work distribution of the storage
//! services (a user with more posts/followers costs more to read), i.e. it
//! sets the mean and dispersion of service times.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// A synthetic social graph in the style of `socfb-Reed98`.
#[derive(Debug, Clone)]
pub(crate) struct SocialGraph {
    /// Degree (friend count) per user.
    pub degrees: Vec<u32>,
    /// Stored posts per user (the paper stores 30 per user).
    pub posts_per_user: Vec<u32>,
}

/// Parameters for the synthetic graph generator.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SocialGraphConfig {
    /// Number of users (socfb-Reed98 has 962).
    pub users: usize,
    /// Posts stored per user (the paper uses 30).
    pub posts_per_user: u32,
    /// Pareto shape for the degree distribution (smaller = heavier tail).
    pub degree_alpha: f64,
    /// Minimum degree.
    pub degree_min: u32,
}

impl Default for SocialGraphConfig {
    fn default() -> Self {
        SocialGraphConfig {
            users: 962,
            posts_per_user: 30,
            degree_alpha: 1.8,
            degree_min: 5,
        }
    }
}

impl SocialGraph {
    /// Generate a graph deterministically from `seed`.
    pub(crate) fn generate(cfg: SocialGraphConfig, seed: u64) -> Self {
        assert!(cfg.users > 0 && cfg.degree_alpha > 1.0);
        let mut rng = SmallRng::seed_from_u64(seed);
        let degrees: Vec<u32> = (0..cfg.users)
            .map(|_| {
                // Pareto via inverse CDF: x = x_min / u^(1/alpha).
                let u: f64 = rng.random::<f64>().max(1e-12);
                let d = cfg.degree_min as f64 / u.powf(1.0 / cfg.degree_alpha);
                // Cap at users-1 (cannot befriend more than everyone).
                (d.round() as u32).min(cfg.users as u32 - 1)
            })
            .collect();
        SocialGraph {
            degrees,
            posts_per_user: vec![cfg.posts_per_user; cfg.users],
        }
    }

    /// Coefficient of variation of the per-request "timeline read cost"
    /// proxy: posts × mean post length weighted by degree. This seeds the
    /// `work_cv` of the storage services in the socialNetwork graph.
    pub(crate) fn timeline_cost_cv(&self) -> f64 {
        let costs: Vec<f64> = self
            .degrees
            .iter()
            .zip(&self.posts_per_user)
            .map(|(&d, &p)| (1.0 + (d as f64).ln()) * p as f64)
            .collect();
        let n = costs.len() as f64;
        let mean = costs.iter().sum::<f64>() / n;
        let var = costs.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / n;
        (var.sqrt() / mean).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SocialGraph::generate(SocialGraphConfig::default(), 1);
        let b = SocialGraph::generate(SocialGraphConfig::default(), 1);
        assert_eq!(a.degrees, b.degrees);
        let c = SocialGraph::generate(SocialGraphConfig::default(), 2);
        assert_ne!(a.degrees, c.degrees);
    }

    #[test]
    fn matches_reed98_scale() {
        let g = SocialGraph::generate(SocialGraphConfig::default(), 42);
        assert_eq!(g.degrees.len(), 962);
        assert_eq!(g.posts_per_user, vec![30; 962]);
    }

    #[test]
    fn degrees_have_heavy_tail() {
        let g = SocialGraph::generate(SocialGraphConfig::default(), 42);
        let mean = g.degrees.iter().map(|&d| d as f64).sum::<f64>() / 962.0;
        let max = *g.degrees.iter().max().unwrap() as f64;
        assert!(mean >= 5.0, "mean {mean}");
        assert!(max > 4.0 * mean, "tail should reach well past the mean");
        assert!(g.degrees.iter().all(|&d| (5..962).contains(&d)));
    }

    #[test]
    fn timeline_cost_cv_in_unit_range() {
        let g = SocialGraph::generate(SocialGraphConfig::default(), 42);
        let cv = g.timeline_cost_cv();
        assert!(cv > 0.0 && cv <= 1.0, "cv {cv}");
    }
}
