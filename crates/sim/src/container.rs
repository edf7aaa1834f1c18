//! Processor-sharing container execution model, stored structure-of-arrays.
//!
//! Each container runs on `cores` logical cores at a DVFS-scaled speed.
//! Every in-flight request contributes at most one runnable thread (RPC
//! handlers are single-threaded per request); when more threads are active
//! than cores, the cores are shared equally — the classic egalitarian
//! processor-sharing (PS) discipline, which is what CFS converges to for
//! CPU-bound threads of equal weight.
//!
//! The implementation uses the *virtual service time* formulation: a
//! monotone counter `virt` advances at the current per-thread service rate
//! (`speedup × min(1, cores/n)` base-frequency core-nanoseconds per
//! nanosecond); a work phase of size `w` admitted at counter value `v`
//! completes when `virt = v + w`. Rate changes (new threads, departures,
//! reallocation, DVFS) only need an O(1) counter update plus an O(log n)
//! heap operation — no per-job bookkeeping — so open-loop overload with
//! thousands of queued threads stays cheap to simulate.
//!
//! Two behavioural consequences matter for the paper's results and emerge
//! naturally from this model:
//!
//! * when `n ≤ cores`, extra cores do nothing (a thread cannot use more
//!   than one core) — the *flat sensitivity curve* of Fig. 6 (right);
//! * when `n > cores`, service time scales with `n/cores` — the thread
//!   contention that makes surges inflate `execMetric` (Fig. 5a).
//!
//! # Layout
//!
//! Container state lives in [`Containers`], a struct-of-arrays keyed by
//! container slot id: one `Vec` per field instead of a `Vec` of container
//! structs. A cluster-scale run touches a handful of hot fields (`virt`,
//! `last_update`, the rate inputs) for thousands of slots per simulated
//! millisecond; splitting the fields keeps those accesses dense in cache
//! instead of striding over cold per-object state (metric windows,
//! completion heaps). Slot ids are stable for a run's lifetime — slot `i`
//! is `ContainerId(i)` everywhere (replica layout, energy meter,
//! allocation table) — see SCALING.md for the id-slot invariants.

use crate::event::InvocationId;
use sg_core::ids::{NodeId, ServiceId};
use sg_core::metrics::MetricsWindow;
use sg_core::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Totally-ordered f64 wrapper for the completion heap (virtual times are
/// always finite).
#[derive(Debug, Clone, Copy, PartialEq)]
struct VirtTime(f64);

impl Eq for VirtTime {}
impl PartialOrd for VirtTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for VirtTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Tolerance (in base-frequency core-ns) when harvesting completed phases:
/// completion events are scheduled at the ceiling of the true completion
/// time, so `virt` is at or just past the target when they fire.
const VIRT_EPS: f64 = 1e-3;

/// All container slots of a run, structure-of-arrays keyed by slot id.
///
/// Every method that models one container takes the slot index as its
/// first argument; the arithmetic is identical to the former per-object
/// `Container` (same operations in the same order), which keeps
/// same-seed runs byte-identical across the layout change.
#[derive(Debug, Default)]
pub struct Containers {
    /// Hosting node per slot.
    node: Vec<NodeId>,
    /// Service run by each slot.
    service: Vec<ServiceId>,
    /// Escalator-controlled egress hint level: when > 0, outgoing RPCs set
    /// `pkt.upscale` to this many hops (Table II row 2).
    egress_hint: Vec<u8>,
    /// Per-window request metrics, flushed into controller snapshots.
    window: Vec<MetricsWindow>,
    /// Logical cores currently allocated.
    cores: Vec<u32>,
    /// DVFS speedup relative to base frequency.
    freq_speedup: Vec<f64>,
    /// Fault-injection execution multiplier (1.0 = healthy). A crashed
    /// container runs at `1/CRASH_SLOWDOWN`, a straggler at
    /// `1/slowdown` — applied after cores, DVFS and the bandwidth cap so
    /// the whole container slows, not just its CPU side.
    fault_speed: Vec<f64>,
    /// Memory-bandwidth cap on the container's total execution rate, in
    /// base-frequency core-equivalents (§VII extension). `None` = not
    /// bandwidth-constrained.
    bw_cap: Vec<Option<f64>>,
    /// Cumulative per-thread service, in base-frequency core-nanoseconds.
    virt: Vec<f64>,
    last_update: Vec<SimTime>,
    /// Change counter: bumped by everything that can move the slot's
    /// next completion. The runner arms the slot's completion timer under
    /// the epoch it computed the completion from, and re-arms exactly
    /// when the two differ.
    epoch: Vec<u64>,
    /// Min-heap of (completion virtual time, phase) per slot.
    phases: Vec<BinaryHeap<Reverse<(VirtTime, InvocationId)>>>,
}

impl Containers {
    /// No slots yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-size every column for `n` slots.
    pub fn with_capacity(n: usize) -> Self {
        Containers {
            node: Vec::with_capacity(n),
            service: Vec::with_capacity(n),
            egress_hint: Vec::with_capacity(n),
            window: Vec::with_capacity(n),
            cores: Vec::with_capacity(n),
            freq_speedup: Vec::with_capacity(n),
            fault_speed: Vec::with_capacity(n),
            bw_cap: Vec::with_capacity(n),
            virt: Vec::with_capacity(n),
            last_update: Vec::with_capacity(n),
            epoch: Vec::with_capacity(n),
            phases: Vec::with_capacity(n),
        }
    }

    /// Append a new idle container slot; returns its slot id.
    pub fn push(&mut self, node: NodeId, service: ServiceId, cores: u32) -> usize {
        assert!(cores >= 1, "container needs at least one core");
        self.node.push(node);
        self.service.push(service);
        self.egress_hint.push(0);
        self.window.push(MetricsWindow::new());
        self.cores.push(cores);
        self.freq_speedup.push(1.0);
        self.fault_speed.push(1.0);
        self.bw_cap.push(None);
        self.virt.push(0.0);
        self.last_update.push(SimTime::ZERO);
        self.epoch.push(0);
        self.phases.push(BinaryHeap::new());
        self.node.len() - 1
    }

    /// Number of container slots.
    pub fn len(&self) -> usize {
        self.node.len()
    }

    /// True when no slots exist.
    pub fn is_empty(&self) -> bool {
        self.node.is_empty()
    }

    /// Hosting node of slot `i`.
    #[inline]
    pub fn node(&self, i: usize) -> NodeId {
        self.node[i]
    }

    /// Service run by slot `i`.
    #[inline]
    pub fn service(&self, i: usize) -> ServiceId {
        self.service[i]
    }

    /// Egress hint level of slot `i`.
    #[inline]
    pub fn egress_hint(&self, i: usize) -> u8 {
        self.egress_hint[i]
    }

    /// Set the egress hint level of slot `i` (no epoch bump — hints do
    /// not affect the PS schedule).
    #[inline]
    pub fn set_egress_hint(&mut self, i: usize, hops: u8) {
        self.egress_hint[i] = hops;
    }

    /// Mutable metric window of slot `i`.
    #[inline]
    pub fn window_mut(&mut self, i: usize) -> &mut MetricsWindow {
        &mut self.window[i]
    }

    /// Logical cores currently allocated to slot `i`.
    #[inline]
    pub fn cores(&self, i: usize) -> u32 {
        self.cores[i]
    }

    /// Current DVFS speedup of slot `i` relative to base frequency.
    #[inline]
    pub fn freq_speedup(&self, i: usize) -> f64 {
        self.freq_speedup[i]
    }

    /// Current memory-bandwidth cap of slot `i`, if any.
    #[inline]
    pub fn bw_cap(&self, i: usize) -> Option<f64> {
        self.bw_cap[i]
    }

    /// Current fault-injection execution multiplier of slot `i`.
    #[inline]
    pub fn fault_speed(&self, i: usize) -> f64 {
        self.fault_speed[i]
    }

    /// Number of runnable threads (active work phases) of slot `i`.
    #[inline]
    pub fn active_threads(&self, i: usize) -> usize {
        self.phases[i].len()
    }

    /// Change counter of slot `i`: differs from the epoch the slot's
    /// completion timer was armed under iff the slot changed since.
    #[inline]
    pub fn epoch(&self, i: usize) -> u64 {
        self.epoch[i]
    }

    /// Per-thread service rate of slot `i` in base-frequency core-ns/ns.
    #[inline]
    fn rate(&self, i: usize) -> f64 {
        let n = self.phases[i].len();
        if n == 0 {
            return 0.0;
        }
        let share = (self.cores[i] as f64 / n as f64).min(1.0);
        let cpu_rate = self.freq_speedup[i] * share;
        let rate = match self.bw_cap[i] {
            // The memory system bounds the container's TOTAL retire rate;
            // threads share it equally like they share cores.
            Some(b) => cpu_rate.min(b / n as f64),
            None => cpu_rate,
        };
        rate * self.fault_speed[i]
    }

    /// Advance slot `i`'s virtual clock to `now`.
    #[inline]
    pub fn advance(&mut self, i: usize, now: SimTime) {
        debug_assert!(now >= self.last_update[i], "container clock went backwards");
        if now > self.last_update[i] {
            let dt = now.saturating_since(self.last_update[i]).as_nanos() as f64;
            let r = self.rate(i);
            if r > 0.0 {
                self.virt[i] += r * dt;
            }
            self.last_update[i] = now;
        }
    }

    /// Admit a work phase of `work` (single-core base-frequency time) for
    /// `inv` on slot `i`. Bumps the epoch, like every mutation below:
    /// the caller must then re-arm the slot's completion timer from
    /// [`Containers::next_completion`].
    pub fn add_phase(&mut self, i: usize, now: SimTime, inv: InvocationId, work: SimDuration) {
        self.advance(i, now);
        let target = self.virt[i] + work.as_nanos() as f64;
        self.phases[i].push(Reverse((VirtTime(target), inv)));
        self.epoch[i] += 1;
    }

    /// Change slot `i`'s core allocation. Bumps the epoch.
    pub fn set_cores(&mut self, i: usize, now: SimTime, cores: u32) {
        assert!(cores >= 1, "cannot allocate zero cores");
        self.advance(i, now);
        self.cores[i] = cores;
        self.epoch[i] += 1;
    }

    /// Change slot `i`'s memory-bandwidth cap (base-frequency
    /// core-equivalents; `None` removes the cap). Bumps the epoch.
    pub fn set_bw_cap(&mut self, i: usize, now: SimTime, cap: Option<f64>) {
        if let Some(c) = cap {
            assert!(c > 0.0, "bandwidth cap must be positive");
        }
        self.advance(i, now);
        self.bw_cap[i] = cap;
        self.epoch[i] += 1;
    }

    /// Change slot `i`'s fault-injection execution multiplier (1.0 =
    /// healthy; must be positive so in-flight phases keep a finite
    /// completion time). Bumps the epoch.
    pub fn set_fault_speed(&mut self, i: usize, now: SimTime, speed: f64) {
        assert!(speed > 0.0, "fault speed must be positive");
        self.advance(i, now);
        self.fault_speed[i] = speed;
        self.epoch[i] += 1;
    }

    /// Change slot `i`'s DVFS speedup (relative to base frequency). Bumps
    /// the epoch.
    pub fn set_freq_speedup(&mut self, i: usize, now: SimTime, speedup: f64) {
        assert!(speedup > 0.0, "speedup must be positive");
        self.advance(i, now);
        self.freq_speedup[i] = speedup;
        self.epoch[i] += 1;
    }

    /// Absolute time at which slot `i`'s earliest phase completes, given
    /// current membership and capacity. `None` when idle.
    pub fn next_completion(&mut self, i: usize, now: SimTime) -> Option<SimTime> {
        self.advance(i, now);
        let Reverse((VirtTime(target), _)) = *self.phases[i].peek()?;
        let remaining = (target - self.virt[i]).max(0.0);
        let r = self.rate(i);
        debug_assert!(r > 0.0, "non-empty container must have positive rate");
        // Ceil so the event never fires before the true completion.
        let dt = SimDuration::from_nanos((remaining / r).ceil() as u64);
        Some(now + dt)
    }

    /// Harvest slot `i`'s phases completed by `now` (advances the clock),
    /// appending them to `done` in completion order. Bumps the epoch when
    /// anything is harvested. Taking the output buffer keeps the event
    /// hot path allocation-free.
    pub fn pop_completed_into(&mut self, i: usize, now: SimTime, done: &mut Vec<InvocationId>) {
        self.advance(i, now);
        let before = done.len();
        while let Some(&Reverse((VirtTime(target), inv))) = self.phases[i].peek() {
            if target <= self.virt[i] + VIRT_EPS {
                self.phases[i].pop();
                done.push(inv);
            } else {
                break;
            }
        }
        if done.len() > before {
            self.epoch[i] += 1;
        }
    }

    /// Harvest slot `i`'s phases completed by `now` into a fresh vec
    /// (convenience wrapper over [`Containers::pop_completed_into`]).
    pub fn pop_completed(&mut self, i: usize, now: SimTime) -> Vec<InvocationId> {
        let mut done = Vec::new();
        self.pop_completed_into(i, now, &mut done);
        done
    }
}

/// Sample a work size around `mean` with coefficient of variation `cv`.
///
/// Mixes a deterministic floor with an exponential tail:
/// `w = mean·(1 − cv) + Exp(mean·cv)`, which has mean `mean` and
/// cv exactly `cv` for `cv ∈ [0,1]`. `u` must be uniform in (0,1).
pub fn sample_work(mean: SimDuration, cv: f64, u: f64) -> SimDuration {
    debug_assert!((0.0..1.0).contains(&u) || u == 0.0, "u in [0,1)");
    if cv <= 0.0 {
        return mean;
    }
    let cv = cv.min(1.0);
    let m = mean.as_nanos() as f64;
    let det = m * (1.0 - cv);
    // Inverse-CDF sampling of Exp(mean = m·cv); clamp u away from 1.
    let tail = -(m * cv) * (1.0 - u.min(1.0 - 1e-12)).ln();
    SimDuration::from_nanos((det + tail).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-slot column set: slot 0 plays the old per-object `Container`.
    fn c(cores: u32) -> Containers {
        let mut cs = Containers::new();
        cs.push(NodeId(0), ServiceId(0), cores);
        cs
    }

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn single_job_runs_at_full_speed() {
        let mut ct = c(4);
        let t0 = SimTime::from_micros(10);
        ct.add_phase(0, t0, 1, us(100));
        let done_at = ct.next_completion(0, t0).unwrap();
        assert_eq!(done_at, t0 + us(100));
        assert_eq!(ct.pop_completed(0, done_at), vec![1]);
        assert_eq!(ct.active_threads(0), 0);
    }

    #[test]
    fn two_jobs_one_core_share_equally() {
        let mut ct = c(1);
        let t0 = SimTime::ZERO;
        ct.add_phase(0, t0, 1, us(100));
        ct.add_phase(0, t0, 2, us(100));
        // Each progresses at half speed: both finish at 200us.
        let done_at = ct.next_completion(0, t0).unwrap();
        assert_eq!(done_at, SimTime::from_micros(200));
        let done = ct.pop_completed(0, done_at);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn enough_cores_means_no_contention() {
        let mut ct = c(2);
        let t0 = SimTime::ZERO;
        ct.add_phase(0, t0, 1, us(100));
        ct.add_phase(0, t0, 2, us(100));
        assert_eq!(
            ct.next_completion(0, t0).unwrap(),
            SimTime::from_micros(100)
        );
    }

    #[test]
    fn frequency_boost_speeds_execution() {
        let mut ct = c(1);
        let t0 = SimTime::ZERO;
        ct.set_freq_speedup(0, t0, 2.0);
        ct.add_phase(0, t0, 1, us(100));
        assert_eq!(ct.next_completion(0, t0).unwrap(), SimTime::from_micros(50));
    }

    #[test]
    fn midway_core_change_reschedules() {
        let mut ct = c(1);
        let t0 = SimTime::ZERO;
        ct.add_phase(0, t0, 1, us(100));
        ct.add_phase(0, t0, 2, us(100));
        // At t=100us both are half done (50us of work each remains, at
        // half rate). Doubling cores lets both run at full speed.
        let mid = SimTime::from_micros(100);
        ct.set_cores(0, mid, 2);
        assert_eq!(
            ct.next_completion(0, mid).unwrap(),
            SimTime::from_micros(150)
        );
    }

    #[test]
    fn later_arrival_finishes_later() {
        let mut ct = c(1);
        ct.add_phase(0, SimTime::ZERO, 1, us(100));
        ct.add_phase(0, SimTime::from_micros(50), 2, us(100));
        // Job1: 50us alone + shares; at t=50 it has 50us left, job2 100us.
        // Shared rate 0.5: job1 done at 50 + 100 = 150us.
        let t1 = ct.next_completion(0, SimTime::from_micros(50)).unwrap();
        assert_eq!(t1, SimTime::from_micros(150));
        assert_eq!(ct.pop_completed(0, t1), vec![1]);
        // Job2 then runs alone: 50us of work left at t=150 → done at 200.
        let t2 = ct.next_completion(0, t1).unwrap();
        assert_eq!(t2, SimTime::from_micros(200));
        assert_eq!(ct.pop_completed(0, t2), vec![2]);
    }

    #[test]
    fn epoch_bumps_on_every_mutation() {
        let mut ct = c(2);
        let e0 = ct.epoch(0);
        ct.add_phase(0, SimTime::ZERO, 1, us(10));
        assert!(ct.epoch(0) > e0);
        let e1 = ct.epoch(0);
        ct.set_cores(0, SimTime::from_micros(1), 4);
        assert!(ct.epoch(0) > e1);
        let e2 = ct.epoch(0);
        ct.set_freq_speedup(0, SimTime::from_micros(2), 1.5);
        assert!(ct.epoch(0) > e2);
        let e3 = ct.epoch(0);
        let done_at = ct.next_completion(0, SimTime::from_micros(2)).unwrap();
        assert!(!ct.pop_completed(0, done_at).is_empty());
        assert!(ct.epoch(0) > e3);
    }

    #[test]
    fn idle_container_has_no_completion() {
        let mut ct = c(1);
        assert_eq!(ct.next_completion(0, SimTime::ZERO), None);
        assert!(ct.pop_completed(0, SimTime::from_secs(1)).is_empty());
    }

    #[test]
    fn overload_scales_linearly_with_threads() {
        // 8 equal jobs on 2 cores: each runs at 1/4 speed → 400us.
        let mut ct = c(2);
        let t0 = SimTime::ZERO;
        for i in 0..8 {
            ct.add_phase(0, t0, i, us(100));
        }
        assert_eq!(
            ct.next_completion(0, t0).unwrap(),
            SimTime::from_micros(400)
        );
    }

    #[test]
    fn bandwidth_cap_bounds_total_rate() {
        // 4 cores but a 1-core-equivalent memory budget: two 100us jobs
        // finish only at 200us (total rate capped at 1).
        let mut ct = c(4);
        let t0 = SimTime::ZERO;
        ct.set_bw_cap(0, t0, Some(1.0));
        ct.add_phase(0, t0, 1, us(100));
        ct.add_phase(0, t0, 2, us(100));
        assert_eq!(
            ct.next_completion(0, t0).unwrap(),
            SimTime::from_micros(200)
        );
    }

    #[test]
    fn bandwidth_cap_is_inert_when_generous() {
        let mut ct = c(2);
        let t0 = SimTime::ZERO;
        ct.set_bw_cap(0, t0, Some(16.0));
        ct.add_phase(0, t0, 1, us(100));
        assert_eq!(
            ct.next_completion(0, t0).unwrap(),
            SimTime::from_micros(100)
        );
    }

    #[test]
    fn frequency_cannot_outrun_the_memory_system() {
        // Boosting frequency does not help a bandwidth-bound container —
        // the §VII point that FirstResponder should manage bandwidth
        // directly for such services.
        let mut ct = c(2);
        let t0 = SimTime::ZERO;
        ct.set_bw_cap(0, t0, Some(0.5));
        ct.set_freq_speedup(0, t0, 2.0);
        ct.add_phase(0, t0, 1, us(100));
        assert_eq!(
            ct.next_completion(0, t0).unwrap(),
            SimTime::from_micros(200)
        );
        // Raising the cap is what helps.
        ct.set_bw_cap(0, SimTime::from_micros(100), Some(2.0));
        assert_eq!(
            ct.next_completion(0, SimTime::from_micros(100)).unwrap(),
            SimTime::from_micros(125),
        );
    }

    #[test]
    fn fault_speed_slows_and_recovery_restores() {
        let mut ct = c(2);
        let t0 = SimTime::ZERO;
        ct.add_phase(0, t0, 1, us(100));
        // A 4x straggler: the 100us phase takes 400us.
        ct.set_fault_speed(0, t0, 0.25);
        assert_eq!(
            ct.next_completion(0, t0).unwrap(),
            SimTime::from_micros(400)
        );
        // Recovery at 200us: half the work is done, the rest runs at
        // full speed again.
        let mid = SimTime::from_micros(200);
        ct.set_fault_speed(0, mid, 1.0);
        assert_eq!(
            ct.next_completion(0, mid).unwrap(),
            SimTime::from_micros(250)
        );
    }

    #[test]
    fn crash_speed_freezes_progress() {
        let mut ct = c(2);
        let t0 = SimTime::ZERO;
        ct.add_phase(0, t0, 1, us(100));
        ct.set_fault_speed(0, t0, 1.0 / sg_core::fault::CRASH_SLOWDOWN);
        // Over a realistic 500ms fault window the phase is nowhere near
        // done (it would need 100ms of frozen-rate service).
        let end = ct.next_completion(0, t0).unwrap();
        assert!(end >= t0 + SimDuration::from_millis(100));
        assert!(ct.pop_completed(0, SimTime::from_millis(50)).is_empty());
    }

    /// Slots are independent: mutating one never perturbs another.
    #[test]
    fn slots_do_not_interfere() {
        let mut cs = Containers::with_capacity(3);
        for i in 0..3 {
            cs.push(NodeId(i), ServiceId(i), 2);
        }
        let t0 = SimTime::ZERO;
        cs.add_phase(0, t0, 1, us(100));
        cs.add_phase(2, t0, 2, us(100));
        cs.set_freq_speedup(2, t0, 2.0);
        assert_eq!(
            cs.next_completion(0, t0).unwrap(),
            SimTime::from_micros(100)
        );
        assert_eq!(cs.next_completion(2, t0).unwrap(), SimTime::from_micros(50));
        assert_eq!(cs.next_completion(1, t0), None);
        assert_eq!(cs.len(), 3);
        assert_eq!(cs.node(1), NodeId(1));
        assert_eq!(cs.service(2), ServiceId(2));
    }

    #[test]
    fn sample_work_deterministic_when_cv_zero() {
        assert_eq!(sample_work(us(100), 0.0, 0.7), us(100));
    }

    #[test]
    fn sample_work_mean_is_preserved() {
        // Empirical mean over a uniform grid of u should approximate the
        // target mean (integral of the inverse CDF).
        let mean = us(100);
        let n = 10_000;
        let total: f64 = (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                sample_work(mean, 0.5, u).as_nanos() as f64
            })
            .sum();
        let avg = total / n as f64;
        let target = mean.as_nanos() as f64;
        assert!(
            (avg - target).abs() / target < 0.01,
            "avg {avg} vs target {target}"
        );
    }

    #[test]
    fn sample_work_has_deterministic_floor() {
        // With cv=0.5, at least half the mean is deterministic.
        let w = sample_work(us(100), 0.5, 0.0);
        assert!(w >= us(50));
    }
}
