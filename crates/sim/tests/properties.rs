//! Property-based tests over the simulator's building blocks.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sg_core::ids::{ContainerId, NodeId, ServiceId};
use sg_core::time::{SimDuration, SimTime};
use sg_sim::connpool::{Acquire, ConnPool};
use sg_sim::container::{sample_work, Containers};
use sg_sim::engine::Engine;
use sg_sim::event::Event;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The engine this one replaced, as a model too simple to be wrong: one
/// `(time, seq)` heap in which a completion timer is an ordinary entry
/// stamped with its slot's generation. Arming pushes a fresh entry under
/// a bumped generation and cancelling only bumps it; entries left behind
/// under an old generation are tombstones, skipped when popped.
#[derive(Default)]
struct Tombstones {
    heap: BinaryHeap<Reverse<ModelEntry>>,
    generation: [u64; SLOTS],
    armed: [bool; SLOTS],
    next_seq: u64,
    now: SimTime,
    pending: usize,
    live_pops: u64,
}

/// `(time, seq, Some((slot, generation)) for a timer, tick id)`.
type ModelEntry = (SimTime, u64, Option<(u32, u64)>, u32);

/// Completion-timer slots the oracle test arms.
const SLOTS: usize = 5;

impl Tombstones {
    fn push(&mut self, at: SimTime, timer: Option<(u32, u64)>, id: u32) {
        self.heap.push(Reverse((at, self.next_seq, timer, id)));
        self.next_seq += 1;
    }

    fn schedule(&mut self, at: SimTime, id: u32) {
        self.push(at, None, id);
        self.pending += 1;
    }

    /// Returns the generation the timer is armed under.
    fn arm(&mut self, slot: u32, at: SimTime) -> u64 {
        let s = slot as usize;
        self.generation[s] += 1;
        self.pending += usize::from(!self.armed[s]);
        self.armed[s] = true;
        self.push(at, Some((slot, self.generation[s])), 0);
        self.generation[s]
    }

    fn disarm(&mut self, slot: u32) {
        let s = slot as usize;
        self.generation[s] += 1;
        self.pending -= usize::from(self.armed[s]);
        self.armed[s] = false;
    }

    fn pop(&mut self) -> Option<(SimTime, Event)> {
        loop {
            let Reverse((at, _, timer, id)) = self.heap.pop()?;
            let event = match timer {
                Some((slot, generation)) if generation == self.generation[slot as usize] => {
                    self.armed[slot as usize] = false;
                    Event::PhaseComplete {
                        container: ContainerId(slot),
                        epoch: generation,
                    }
                }
                Some(_) => continue,
                None => Event::ControllerTick { node: NodeId(id) },
            };
            self.now = at;
            self.pending -= 1;
            self.live_pops += 1;
            return Some((at, event));
        }
    }

    /// Time of the earliest scheduled (non-timer) entry.
    fn next_scheduled(&self) -> Option<SimTime> {
        self.heap
            .iter()
            .filter(|Reverse(e)| e.2.is_none())
            .map(|Reverse(e)| e.0)
            .min()
    }
}

/// Both queue backends and the model, driven in lockstep.
struct Trio {
    heap: Engine,
    wheel: Engine,
    model: Tombstones,
    next_id: u32,
}

impl Trio {
    fn new() -> Self {
        Trio {
            heap: Engine::new_with(sg_sim::QueueKind::Heap),
            wheel: Engine::new_with(sg_sim::QueueKind::Wheel),
            model: Tombstones::default(),
            next_id: 0,
        }
    }

    /// All three share `now` (checked after every pop), so scheduling
    /// relative to one is scheduling relative to all.
    fn now(&self) -> SimTime {
        self.model.now
    }

    fn schedule(&mut self, at: SimTime) {
        let id = self.next_id;
        self.next_id += 1;
        let ev = Event::ControllerTick { node: NodeId(id) };
        self.heap.schedule(at, ev);
        self.wheel.schedule(at, ev);
        self.model.schedule(at, id);
    }

    fn arm(&mut self, slot: u32, at: SimTime) {
        let epoch = self.model.arm(slot, at);
        self.heap.arm(ContainerId(slot), at, epoch);
        self.wheel.arm(ContainerId(slot), at, epoch);
    }

    fn disarm(&mut self, slot: u32) {
        self.model.disarm(slot);
        self.heap.disarm(ContainerId(slot));
        self.wheel.disarm(ContainerId(slot));
    }

    /// Pop all three and require agreement on the event, the clock after
    /// it, what is still pending and which slots are still armed.
    fn pop(&mut self) -> Result<Option<(SimTime, Event)>, TestCaseError> {
        let expect = self.model.pop();
        for engine in [&mut self.heap, &mut self.wheel] {
            prop_assert_eq!(engine.pop(), expect);
            prop_assert_eq!(engine.now(), self.model.now);
            prop_assert_eq!(engine.pending(), self.model.pending);
            for slot in 0..SLOTS {
                let armed = self.model.armed[slot].then_some(self.model.generation[slot]);
                prop_assert_eq!(engine.armed_epoch(ContainerId(slot as u32)), armed);
            }
        }
        Ok(expect)
    }

    /// Drive the engines through the hold-back register on purpose: fire
    /// a timer that is earlier than the next scheduled entry (which the
    /// engine must pull out of its backend to know that), then schedule
    /// before, at the same instant as, and after the entry it now holds,
    /// re-arm a timer to before it, and cancel the earliest timer.
    fn hold_back_sequence(&mut self) -> Result<(), TestCaseError> {
        let Some(held) = self.model.next_scheduled() else {
            return Ok(());
        };
        let gap = held.saturating_since(self.now()).as_nanos();
        self.arm(0, self.now() + SimDuration::from_nanos(gap / 2));
        self.pop()?;
        let now = self.now();
        if now > held {
            return Ok(());
        }
        let gap = held.saturating_since(now).as_nanos();
        self.schedule(now + SimDuration::from_nanos(gap / 3));
        self.schedule(now + SimDuration::from_nanos(gap.saturating_sub(1)));
        self.schedule(held);
        self.schedule(held + SimDuration::from_nanos(gap + 1));
        self.arm(1, held + SimDuration::from_nanos(gap));
        self.arm(1, now + SimDuration::from_nanos(gap / 2));
        self.arm(2, now);
        self.disarm(2);
        self.pop()?;
        self.pop()?;
        Ok(())
    }
}

proptest! {
    #[test]
    fn engine_pops_in_nondecreasing_time_order(
        times in prop::collection::vec(0u64..1_000_000_000u64, 1..200),
    ) {
        let mut e = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            e.schedule(
                SimTime::from_nanos(t),
                Event::ControllerTick { node: NodeId(i as u32) },
            );
        }
        let mut prev = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = e.pop() {
            prop_assert!(t >= prev);
            prev = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    // The timer-wheel backend pops the exact sequence the heap backend
    // does — same times, same events, same total order — on random
    // streams that interleave scheduling with draining (so events land
    // in past-relative, near-future, outer-level, and overflow
    // positions) and with arming, re-arming and cancelling completion
    // timers; and both pop what the tombstoning engine they replaced
    // would have popped *live* (`Tombstones`, above). This is the
    // engine-level leg of the same-seed equivalence argument
    // (SCALING.md §1).
    #[test]
    fn wheel_pops_exactly_match_heap(
        // (time offset exponent, offset mantissa, pops between batches,
        // inserts, timer ops): exponentially distributed offsets exercise
        // every wheel level and the overflow bucket (2^38 ns ≈ 4.6 min
        // past the horizon). A timer op is (slot, arm-or-disarm, offset
        // exponent, offset mantissa).
        batches in prop::collection::vec(
            (
                0u32..39,
                0u64..1024,
                0usize..4,
                1usize..6,
                prop::collection::vec((0u32..5, 0u32..4, 0u32..39, 0u64..1024), 0..4),
            ),
            1..40,
        ),
    ) {
        let mut trio = Trio::new();
        let offset = |exp: u32, mantissa: u64| {
            SimDuration::from_nanos((1u64 << exp) + mantissa * ((1u64 << exp) / 1024).max(1))
        };
        for (exp, mantissa, pops, inserts, timer_ops) in &batches {
            for _ in 0..*inserts {
                trio.schedule(trio.now() + offset(*exp, *mantissa));
            }
            for &(slot, op, texp, tmant) in timer_ops {
                match op {
                    0 => trio.disarm(slot),
                    _ => trio.arm(slot, trio.now() + offset(texp, tmant)),
                }
            }
            for _ in 0..*pops {
                trio.pop()?;
            }
            trio.hold_back_sequence()?;
        }
        while trio.pop()?.is_some() {}
        prop_assert_eq!(trio.heap.processed(), trio.model.live_pops);
    }

    #[test]
    fn conn_pool_never_exceeds_capacity(
        cap in 1u32..16,
        ops in prop::collection::vec(any::<bool>(), 1..300),
    ) {
        let mut p = ConnPool::new(Some(cap));
        let mut outstanding: u32 = 0; // held connections we must release
        for (i, op) in ops.iter().enumerate() {
            if *op {
                match p.acquire(SimTime::from_nanos(i as u64), i as u32) {
                    Acquire::Granted => outstanding += 1,
                    Acquire::Queued => {}
                }
            } else if outstanding > 0 {
                if p.release().is_some() {
                    // Connection handed to a waiter: still outstanding.
                } else {
                    outstanding -= 1;
                }
            }
            prop_assert!(p.in_use() <= cap);
            prop_assert_eq!(p.in_use(), outstanding);
        }
    }

    #[test]
    fn conn_pool_grants_waiters_fifo(
        cap in 1u32..4,
        waiters in 2usize..20,
    ) {
        let mut p = ConnPool::new(Some(cap));
        for i in 0..cap {
            prop_assert_eq!(p.acquire(SimTime::ZERO, i), Acquire::Granted);
        }
        for w in 0..waiters {
            prop_assert_eq!(
                p.acquire(SimTime::from_nanos(w as u64), 1000 + w as u32),
                Acquire::Queued
            );
        }
        for w in 0..waiters {
            let (inv, _) = p.release().unwrap();
            prop_assert_eq!(inv, 1000 + w as u32, "grants must be FIFO");
        }
    }

    #[test]
    fn processor_sharing_conserves_work(
        works in prop::collection::vec(1u64..1_000_000u64, 1..30),
        cores in 1u32..8,
    ) {
        // All phases admitted at t=0 must complete by total_work/cores
        // (perfect sharing) and no earlier than max(total/capacity, longest
        // job alone).
        let mut c = Containers::new();
        c.push(NodeId(0), ServiceId(0), cores);
        let t0 = SimTime::ZERO;
        for (i, &w) in works.iter().enumerate() {
            c.add_phase(0, t0, i as u32, SimDuration::from_nanos(w));
        }
        let mut done = Vec::new();
        let mut now = t0;
        let mut guard = 0;
        while let Some(next) = c.next_completion(0, now) {
            now = next;
            c.pop_completed_into(0, now, &mut done);
            guard += 1;
            prop_assert!(guard < 10_000, "must terminate");
        }
        prop_assert_eq!(done.len(), works.len());
        let total: u64 = works.iter().sum();
        let lower = total.div_ceil(cores as u64);
        // Finish time >= work-conservation bound; <= bound + per-event
        // ceil rounding slack (1ns per completion event).
        prop_assert!(now.as_nanos() + 1 >= lower);
        prop_assert!(now.as_nanos() <= total + works.len() as u64 + 1);
    }

    #[test]
    fn processor_sharing_completion_order_follows_work(
        w1 in 1u64..1_000_000u64,
        extra in 1u64..1_000_000u64,
    ) {
        // Two phases admitted together on one core: the smaller finishes
        // first (equal share => order by remaining work).
        let mut c = Containers::new();
        c.push(NodeId(0), ServiceId(0), 1);
        c.add_phase(0, SimTime::ZERO, 1, SimDuration::from_nanos(w1));
        c.add_phase(0, SimTime::ZERO, 2, SimDuration::from_nanos(w1 + extra));
        let t1 = c.next_completion(0, SimTime::ZERO).unwrap();
        let first = c.pop_completed(0, t1);
        prop_assert_eq!(first, vec![1]);
    }

    #[test]
    fn sample_work_is_positive_and_bounded_below(
        mean_us in 1u64..100_000u64,
        cv in 0.0f64..1.0,
        u in 0.0f64..1.0,
    ) {
        let mean = SimDuration::from_micros(mean_us);
        let w = sample_work(mean, cv, u);
        // Deterministic floor: mean·(1−cv).
        let floor = mean.mul_f64(1.0 - cv);
        prop_assert!(w >= floor.saturating_sub(SimDuration::from_nanos(1)));
    }

    #[test]
    fn faster_container_finishes_sooner(
        work in 1_000u64..10_000_000u64,
        speedup_tenths in 11u64..30,
    ) {
        let speedup = speedup_tenths as f64 / 10.0;
        let run = |s: f64| {
            let mut c = Containers::new();
            c.push(NodeId(0), ServiceId(0), 2);
            c.set_freq_speedup(0, SimTime::ZERO, s);
            c.add_phase(0, SimTime::ZERO, 1, SimDuration::from_nanos(work));
            c.next_completion(0, SimTime::ZERO).unwrap()
        };
        prop_assert!(run(speedup) <= run(1.0));
    }
}
