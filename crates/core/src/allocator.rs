//! Node-local resource-allocation primitives shared by all controllers.
//!
//! SurgeGuard deliberately does not invent a new allocation policy — it
//! identifies *which* containers to scale and *in what order* (paper §IV-B:
//! "Escalator's contribution lies in our techniques for determining these
//! candidates, not in deciding which resources to allocate"), then drives
//! an existing allocator (Parties in the paper). This module provides the
//! shared bookkeeping those allocators need: per-node core accounting with
//! step/min/max constraints ([`CoreLedger`]), the "N windows in a row,
//! then act" hysteresis ([`HoldCounter`]), the busy-fraction estimate
//! ([`utilization`]), frequency levels, and the action vocabulary.

use crate::ids::ContainerId;
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::Hash;

/// DVFS levels available to the controllers. Mirrors the paper's testbed:
/// cores start at 1.6 GHz and can scale to the 3.x GHz turbo range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FreqTable {
    /// Frequencies in GHz, ascending. Index into this table is the "level".
    pub levels_ghz: Vec<f64>,
}

impl FreqTable {
    /// The paper's Cascade Lake range: 1.6–3.2 GHz in 0.2 GHz steps.
    pub fn cascade_lake() -> Self {
        FreqTable {
            levels_ghz: (0..=8).map(|i| 1.6 + 0.2 * i as f64).collect(),
        }
    }

    /// Highest level index.
    pub fn max_level(&self) -> u8 {
        (self.levels_ghz.len() - 1) as u8
    }

    /// Frequency in GHz at `level`, clamped to the table.
    pub fn ghz(&self, level: u8) -> f64 {
        self.levels_ghz[(level as usize).min(self.levels_ghz.len() - 1)]
    }

    /// Speedup factor of `level` relative to the base (level 0) frequency.
    pub fn speedup(&self, level: u8) -> f64 {
        self.ghz(level) / self.levels_ghz[0]
    }

    /// Smallest level whose speedup is at least `needed` (clamped to the
    /// top level when out of range; level 0 for `needed ≤ 1`).
    pub fn level_for_speedup(&self, needed: f64) -> u8 {
        for level in 0..self.levels_ghz.len() as u8 {
            if self.speedup(level) >= needed - 1e-12 {
                return level;
            }
        }
        self.max_level()
    }
}

/// Current allocation state of one container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContainerAlloc {
    /// The container.
    pub id: ContainerId,
    /// Logical cores currently allocated.
    pub cores: u32,
    /// DVFS level (index into a [`FreqTable`]).
    pub freq_level: u8,
}

/// An allocation decision. Targets are absolute, which makes applying a
/// decision idempotent and keeps controller/harness state from drifting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocAction {
    /// Set the container's logical-core allocation.
    SetCores {
        /// Target container.
        id: ContainerId,
        /// New absolute logical-core count.
        cores: u32,
    },
    /// Set the container's DVFS level.
    SetFreq {
        /// Target container.
        id: ContainerId,
        /// New absolute frequency level.
        level: u8,
    },
}

/// Constraints under which a node-local allocator operates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocConstraints {
    /// Total logical cores available to workload containers on this node.
    pub total_cores: u32,
    /// Minimum logical cores any container may hold.
    pub min_cores: u32,
    /// Maximum logical cores any single container may hold.
    pub max_cores: u32,
    /// Granularity of changes in logical cores. The paper allocates both
    /// hyperthreads of a physical core together for Parties and SurgeGuard
    /// (step 2) but lets CaladanAlgo move single hyperthreads (step 1).
    pub core_step: u32,
}

impl AllocConstraints {
    /// Sanity-check the constraint set.
    pub fn validate(&self) -> Result<(), String> {
        if self.core_step == 0 {
            return Err("core_step must be >= 1".into());
        }
        if self.min_cores == 0 {
            return Err("min_cores must be >= 1 (a container cannot run on zero cores)".into());
        }
        if self.max_cores < self.min_cores {
            return Err(format!(
                "max_cores ({}) < min_cores ({})",
                self.max_cores, self.min_cores
            ));
        }
        Ok(())
    }
}

/// Tracks spare cores on a node and enforces [`AllocConstraints`] while a
/// controller builds up a decision. Purely local arithmetic — the simulator
/// harness re-validates when applying actions.
#[derive(Debug, Clone)]
pub struct CoreLedger {
    constraints: AllocConstraints,
    allocated: u32,
}

impl CoreLedger {
    /// Start a ledger from the current allocations.
    pub fn new<'a>(
        constraints: AllocConstraints,
        allocs: impl IntoIterator<Item = &'a ContainerAlloc>,
    ) -> Self {
        let allocated = allocs.into_iter().map(|a| a.cores).sum();
        CoreLedger {
            constraints,
            allocated,
        }
    }

    /// Cores not currently assigned to any container.
    pub(crate) fn spare(&self) -> u32 {
        self.constraints.total_cores.saturating_sub(self.allocated)
    }

    /// Cores currently assigned across all containers.
    pub fn allocated(&self) -> u32 {
        self.allocated
    }

    /// Try to grow `alloc` by one step. Returns the new core count if the
    /// grant fits within the spare pool and per-container maximum.
    pub fn try_grow(&mut self, alloc: &ContainerAlloc) -> Option<u32> {
        let step = self.constraints.core_step;
        let new = alloc.cores + step;
        if new > self.constraints.max_cores || self.spare() < step {
            return None;
        }
        self.allocated += step;
        Some(new)
    }

    /// True if `alloc` can give up one step and stay at or above the
    /// per-container minimum.
    pub fn can_shrink(&self, alloc: &ContainerAlloc) -> bool {
        alloc.cores >= self.constraints.min_cores + self.constraints.core_step
    }

    /// Try to shrink `alloc` by one step. Returns the new core count if the
    /// container stays at or above the per-container minimum.
    pub fn try_shrink(&mut self, alloc: &ContainerAlloc) -> Option<u32> {
        if !self.can_shrink(alloc) {
            return None;
        }
        let step = self.constraints.core_step;
        self.allocated -= step;
        Some(alloc.cores - step)
    }

    /// Move one step from `from` to `to` (a steal when the spare pool is
    /// dry). Returns both new core counts, or `None` — and changes nothing
    /// — unless `from` can shrink and `to` can then grow.
    pub fn try_move(&mut self, from: &ContainerAlloc, to: &ContainerAlloc) -> Option<(u32, u32)> {
        let shrunk = self.try_shrink(from)?;
        let grown = self.try_grow(to);
        if grown.is_none() {
            self.allocated += self.constraints.core_step;
        }
        Some((shrunk, grown?))
    }
}

/// Total busy time behind a window's metrics: `mean × requests`, in ns.
pub fn busy_ns(mean: SimDuration, requests: u64) -> f64 {
    mean.as_nanos() as f64 * requests as f64
}

/// Estimated busy fraction of `cores` cores over `window`:
/// `busy_ns / (window × cores)`. Zero cores or a zero window divide by
/// zero; each caller decides what that means for it.
pub fn utilization(busy_ns: f64, window: SimDuration, cores: u32) -> f64 {
    busy_ns / (window.as_nanos() as f64 * cores as f64)
}

/// Counts consecutive windows in which a condition held, per key: the
/// "`hold` windows in a row, then act" hysteresis threshold controllers
/// put in front of a downscale or a replica move.
#[derive(Debug, Clone)]
pub struct HoldCounter<K> {
    hold: u32,
    streaks: HashMap<K, u32>,
}

impl<K: Copy + Eq + Hash> HoldCounter<K> {
    /// A counter that fires after `hold` consecutive windows.
    pub fn new(hold: u32) -> Self {
        HoldCounter {
            hold,
            streaks: HashMap::new(),
        }
    }

    /// Count one more window in which `key`'s condition held. Returns
    /// true, and restarts the streak, once the streak has reached `hold`
    /// and the caller is `ready` to act; until then the streak keeps
    /// counting past `hold`, so it fires on the first ready window.
    pub fn tick(&mut self, key: K, ready: bool) -> bool {
        let streak = self.streaks.entry(key).or_insert(0);
        *streak += 1;
        let fire = *streak >= self.hold && ready;
        if fire {
            *streak = 0;
        }
        fire
    }

    /// `key`'s condition broke: its streak starts over.
    pub fn clear(&mut self, key: K) {
        self.streaks.remove(&key);
    }

    /// Clear every streak whose key fails `keep`.
    pub fn retain(&mut self, mut keep: impl FnMut(K) -> bool) {
        self.streaks.retain(|k, _| keep(*k));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constraints() -> AllocConstraints {
        AllocConstraints {
            total_cores: 12,
            min_cores: 2,
            max_cores: 8,
            core_step: 2,
        }
    }

    fn alloc(id: u32, cores: u32) -> ContainerAlloc {
        ContainerAlloc {
            id: ContainerId(id),
            cores,
            freq_level: 0,
        }
    }

    #[test]
    fn freq_table_cascade_lake_range() {
        let t = FreqTable::cascade_lake();
        assert_eq!(t.levels_ghz.len(), 9);
        assert!((t.ghz(0) - 1.6).abs() < 1e-12);
        assert!((t.ghz(t.max_level()) - 3.2).abs() < 1e-12);
        assert!((t.speedup(t.max_level()) - 2.0).abs() < 1e-12);
        assert!((t.speedup(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn freq_level_clamps() {
        let t = FreqTable::cascade_lake();
        assert_eq!(t.ghz(200), t.ghz(t.max_level()));
    }

    #[test]
    fn ledger_tracks_spare() {
        let ledger = CoreLedger::new(constraints(), &[alloc(0, 4), alloc(1, 4)]);
        assert_eq!(ledger.allocated(), 8);
        assert_eq!(ledger.spare(), 4);
    }

    #[test]
    fn grow_respects_spare_and_max() {
        let mut ledger = CoreLedger::new(constraints(), &[alloc(0, 4), alloc(1, 4)]);
        assert_eq!(ledger.try_grow(&alloc(0, 4)), Some(6));
        assert_eq!(ledger.try_grow(&alloc(1, 4)), Some(6));
        // Pool exhausted.
        assert_eq!(ledger.try_grow(&alloc(0, 6)), None);
        // Per-container max.
        let mut ledger = CoreLedger::new(constraints(), &[alloc(0, 8)]);
        assert_eq!(ledger.try_grow(&alloc(0, 8)), None);
    }

    #[test]
    fn shrink_respects_min() {
        let mut ledger = CoreLedger::new(constraints(), &[alloc(0, 4)]);
        assert_eq!(ledger.try_shrink(&alloc(0, 4)), Some(2));
        assert_eq!(ledger.try_shrink(&alloc(0, 2)), None, "at minimum");
        // A 3-core container with step 2 cannot shrink below min 2.
        assert_eq!(ledger.try_shrink(&alloc(0, 3)), None);
    }

    #[test]
    fn shrink_then_grow_returns_cores_to_pool() {
        let mut ledger = CoreLedger::new(constraints(), &[alloc(0, 8), alloc(1, 4)]);
        assert_eq!(ledger.spare(), 0);
        assert_eq!(ledger.try_shrink(&alloc(0, 8)), Some(6));
        assert_eq!(ledger.spare(), 2);
        assert_eq!(ledger.try_grow(&alloc(1, 4)), Some(6));
        assert_eq!(ledger.spare(), 0);
    }

    #[test]
    fn move_needs_a_donor_step_and_room_at_the_taker() {
        let mut ledger = CoreLedger::new(constraints(), &[alloc(0, 6), alloc(1, 6)]);
        assert_eq!(ledger.try_move(&alloc(0, 6), &alloc(1, 6)), Some((4, 8)));
        assert_eq!(ledger.spare(), 0);
        // The taker at its maximum: the donor keeps its step.
        assert_eq!(ledger.try_move(&alloc(0, 4), &alloc(1, 8)), None);
        assert_eq!(ledger.allocated(), 12);
        // The donor at its minimum.
        assert_eq!(ledger.try_move(&alloc(0, 2), &alloc(1, 4)), None);
        assert_eq!(ledger.allocated(), 12);
    }

    #[test]
    fn hold_counter_fires_exactly_at_hold_and_restarts() {
        let mut hold = HoldCounter::new(3);
        let fired: Vec<bool> = (0..7).map(|_| hold.tick(ContainerId(0), true)).collect();
        assert_eq!(fired, [false, false, true, false, false, true, false]);
    }

    #[test]
    fn hold_counter_not_ready_keeps_counting_past_hold() {
        let mut hold = HoldCounter::new(3);
        for window in 1..=5 {
            assert!(!hold.tick(ContainerId(0), false), "window {window}");
        }
        assert!(hold.tick(ContainerId(0), true), "first ready window fires");
        assert!(!hold.tick(ContainerId(0), true), "then the streak restarts");
    }

    #[test]
    fn hold_counter_break_clears_the_streak() {
        let mut hold = HoldCounter::new(3);
        hold.tick(ContainerId(0), true);
        hold.tick(ContainerId(0), true);
        hold.tick(ContainerId(1), true);
        hold.tick(ContainerId(1), true);
        hold.clear(ContainerId(0));
        hold.retain(|id| id != ContainerId(1));
        for key in [ContainerId(0), ContainerId(1)] {
            assert!(!hold.tick(key, true));
            assert!(!hold.tick(key, true));
            assert!(
                hold.tick(key, true),
                "{key:?}: a full streak after the break"
            );
        }
    }

    #[test]
    fn utilization_spreads_busy_time_over_window_and_cores() {
        let busy = busy_ns(SimDuration::from_micros(500), 2000);
        assert_eq!(busy, 1e9);
        assert_eq!(utilization(busy, SimDuration::from_millis(500), 4), 0.5);
        assert!(utilization(busy, SimDuration::from_millis(500), 0).is_infinite());
    }

    #[test]
    fn constraint_validation() {
        assert!(constraints().validate().is_ok());
        let mut c = constraints();
        c.core_step = 0;
        assert!(c.validate().is_err());
        let mut c = constraints();
        c.min_cores = 0;
        assert!(c.validate().is_err());
        let mut c = constraints();
        c.max_cores = 1;
        assert!(c.validate().is_err());
    }
}
