//! Energy accounting.
//!
//! The paper measures application energy with `perf`, subtracting idle
//! consumption. The simulator mirrors that with a standard DVFS power
//! model: a core allocated to a container draws
//!
//! ```text
//! P(f) = P_static + P_dyn · (f / f_max)³
//! ```
//!
//! watts (dynamic power scales cubically with frequency at roughly
//! constant voltage-scaling efficiency). Unallocated cores are "idle" and
//! contribute nothing — that is the idle subtraction. Energy integrates
//! `Σ_containers cores·P(f)` over time using exact piecewise-constant
//! segments: the meter is updated lazily whenever an allocation or
//! frequency changes.

use serde::{Deserialize, Serialize};
use sg_core::time::SimTime;

/// Power-model coefficients (watts per core).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Static (leakage + uncore share) power per allocated core.
    pub p_static: f64,
    /// Dynamic power per core at maximum frequency.
    pub p_dyn_max: f64,
    /// Maximum frequency in GHz (the `f_max` of the cubic term).
    pub f_max_ghz: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        // Loosely calibrated to a Cascade Lake core: ~2W static share,
        // ~4W dynamic at 3.2GHz.
        PowerModel {
            p_static: 2.0,
            p_dyn_max: 4.0,
            f_max_ghz: 3.2,
        }
    }
}

impl PowerModel {
    /// Per-core power draw at `f_ghz`.
    pub fn core_power(&self, f_ghz: f64) -> f64 {
        let r = (f_ghz / self.f_max_ghz).clamp(0.0, 1.0);
        self.p_static + self.p_dyn_max * r * r * r
    }
}

/// Integrates cluster energy and average core usage over a run.
///
/// State is structure-of-arrays keyed by container slot id, with the
/// per-slot power product `cores · P(f)` cached at each state change so
/// segment integration never re-evaluates the cubic DVFS term. Totals
/// are re-summed left-to-right over the slot order on demand (dirty
/// flag), which keeps the float summation order — and therefore the
/// reported energy, bit for bit — identical to summing fresh on every
/// segment. True O(1) incremental totals (`total += new − old`) would
/// change the rounding and are deferred to the sharded engine
/// (SCALING.md §5).
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    model: PowerModel,
    /// Cores as last reported, per slot.
    cores: Vec<u32>,
    /// Cached `cores · P(f)` in watts, per slot.
    power_w: Vec<f64>,
    /// Cached Σ power_w; valid when `!dirty`.
    total_power: f64,
    /// Cached Σ cores; valid when `!dirty`.
    total_cores: u32,
    /// A slot changed since the totals were last summed.
    dirty: bool,
    last_update: SimTime,
    energy_j: f64,
    /// ∫ Σcores dt, for average-cores reporting.
    core_seconds: f64,
}

impl EnergyMeter {
    /// Meter over `containers` containers, all starting unallocated; call
    /// [`EnergyMeter::set_state`] with the initial allocations before the
    /// run starts.
    pub fn new(model: PowerModel, containers: usize) -> Self {
        EnergyMeter {
            model,
            cores: vec![0; containers],
            power_w: vec![0.0; containers],
            total_power: 0.0,
            total_cores: 0,
            dirty: false,
            last_update: SimTime::ZERO,
            energy_j: 0.0,
            core_seconds: 0.0,
        }
    }

    /// Total power draw at the current state, in watts.
    pub fn current_power(&self) -> f64 {
        if self.dirty {
            self.power_w.iter().sum()
        } else {
            self.total_power
        }
    }

    /// Total allocated cores at the current state.
    pub fn current_cores(&self) -> u32 {
        if self.dirty {
            self.cores.iter().sum()
        } else {
            self.total_cores
        }
    }

    /// Advance the integrals to `now`.
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "meter clock went backwards");
        if now > self.last_update {
            // Re-sum only for a segment that has length: a burst of
            // state changes at one instant (the initial allocations of
            // a 5 000-slot cluster) costs one pass, not one per change.
            if self.dirty {
                self.total_power = self.power_w.iter().sum();
                self.total_cores = self.cores.iter().sum();
                self.dirty = false;
            }
            let dt = now.saturating_since(self.last_update).as_secs_f64();
            self.energy_j += self.total_power * dt;
            self.core_seconds += self.total_cores as f64 * dt;
            self.last_update = now;
        }
    }

    /// Zero the integrals at `at` (warmup exclusion: measurement windows
    /// start after the system reaches steady state).
    pub fn reset_window(&mut self, at: SimTime) {
        self.advance(at);
        self.energy_j = 0.0;
        self.core_seconds = 0.0;
    }

    /// Report a container's new allocation (advances the integrals first).
    pub fn set_state(&mut self, now: SimTime, container: usize, cores: u32, f_ghz: f64) {
        self.advance(now);
        self.cores[container] = cores;
        // Same expression the old per-segment sum evaluated, computed
        // once here instead of on every advance.
        self.power_w[container] = cores as f64 * self.model.core_power(f_ghz);
        self.dirty = true;
    }

    /// Energy consumed so far, in joules.
    pub fn energy_joules(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        self.energy_j
    }

    /// Time-averaged allocated cores over `[start, now]`.
    pub fn avg_cores(&mut self, now: SimTime, start: SimTime) -> f64 {
        self.advance(now);
        let span = now.saturating_since(start).as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            self.core_seconds / span
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_power_is_monotone_in_frequency() {
        let m = PowerModel::default();
        assert!(m.core_power(1.6) < m.core_power(2.4));
        assert!(m.core_power(2.4) < m.core_power(3.2));
        assert!((m.core_power(3.2) - (2.0 + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn constant_state_integrates_linearly() {
        let mut e = EnergyMeter::new(PowerModel::default(), 1);
        e.set_state(SimTime::ZERO, 0, 4, 3.2);
        // 4 cores × 6W × 10s = 240 J.
        let j = e.energy_joules(SimTime::from_secs(10));
        assert!((j - 240.0).abs() < 1e-9, "got {j}");
        assert!((e.avg_cores(SimTime::from_secs(10), SimTime::ZERO) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn idle_cores_cost_nothing() {
        let mut e = EnergyMeter::new(PowerModel::default(), 2);
        // Only container 0 allocated; container 1 stays at zero cores.
        e.set_state(SimTime::ZERO, 0, 2, 1.6);
        let j = e.energy_joules(SimTime::from_secs(1));
        let expected = 2.0 * PowerModel::default().core_power(1.6);
        assert!((j - expected).abs() < 1e-9);
    }

    #[test]
    fn state_changes_split_the_integral() {
        let m = PowerModel {
            p_static: 1.0,
            p_dyn_max: 0.0,
            f_max_ghz: 3.2,
        };
        let mut e = EnergyMeter::new(m, 1);
        e.set_state(SimTime::ZERO, 0, 2, 1.6); // 2W
        e.set_state(SimTime::from_secs(5), 0, 4, 1.6); // 4W
        let j = e.energy_joules(SimTime::from_secs(10));
        assert!((j - (2.0 * 5.0 + 4.0 * 5.0)).abs() < 1e-9);
        // avg cores: (2×5 + 4×5)/10 = 3.
        assert!((e.avg_cores(SimTime::from_secs(10), SimTime::ZERO) - 3.0).abs() < 1e-9);
    }

    /// The dirty-flag totals are an optimisation only: every reading is
    /// bit-equal to re-summing all slots for every segment, however many
    /// state changes share an instant.
    #[test]
    fn readings_equal_a_per_segment_resum_bit_for_bit() {
        let model = PowerModel::default();
        let slots = 37;
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(15);
        let mut next = move || rand::RngCore::next_u64(&mut rng);
        let mut meter = EnergyMeter::new(model, slots);
        let (mut cores, mut power) = (vec![0u32; slots], vec![0.0f64; slots]);
        let (mut now, mut last, mut energy, mut core_s) = (SimTime::ZERO, SimTime::ZERO, 0.0, 0.0);
        for step in 0..4_000 {
            // Three steps in four stay at the same instant.
            if next() & 3 == 0 {
                now += sg_core::time::SimDuration::from_nanos(next() % 5_000_000);
            }
            if now > last {
                let dt = now.saturating_since(last).as_secs_f64();
                energy += power.iter().sum::<f64>() * dt;
                core_s += cores.iter().sum::<u32>() as f64 * dt;
                last = now;
            }
            if next() & 7 == 0 {
                meter.advance(now);
            } else {
                let (slot, c, f) = (
                    (next() % slots as u64) as usize,
                    (next() % 9) as u32,
                    1.6 + (next() % 17) as f64 / 10.0,
                );
                meter.set_state(now, slot, c, f);
                cores[slot] = c;
                power[slot] = c as f64 * model.core_power(f);
            }
            assert_eq!(
                meter.current_power().to_bits(),
                power.iter().sum::<f64>().to_bits(),
                "step {step}"
            );
            assert_eq!(meter.current_cores(), cores.iter().sum::<u32>());
            if step & 15 == 0 {
                assert_eq!(meter.energy_joules(now).to_bits(), energy.to_bits());
                let span = now.saturating_since(SimTime::ZERO).as_secs_f64();
                let avg = if span <= 0.0 { 0.0 } else { core_s / span };
                assert_eq!(meter.avg_cores(now, SimTime::ZERO).to_bits(), avg.to_bits());
            }
        }
        assert!(energy > 0.0 && now > SimTime::ZERO);
    }

    #[test]
    fn higher_frequency_costs_more_energy() {
        let mut lo = EnergyMeter::new(PowerModel::default(), 1);
        lo.set_state(SimTime::ZERO, 0, 2, 1.6);
        let mut hi = EnergyMeter::new(PowerModel::default(), 1);
        hi.set_state(SimTime::ZERO, 0, 2, 3.2);
        let t = SimTime::from_secs(3);
        assert!(hi.energy_joules(t) > lo.energy_joules(t));
    }
}
