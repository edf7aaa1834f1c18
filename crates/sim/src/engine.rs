//! Deterministic discrete-event engine: clock + pending-event queue.
//!
//! # Event lifecycle
//!
//! Every future action in the simulator — an arrival, an RPC delivery, a
//! phase completion, a controller tick, a fault edge — is an [`Event`]
//! scheduled at an absolute [`SimTime`]. The runner's main loop is
//! `while let Some((t, ev)) = engine.pop()`: popping advances the clock
//! to the event's timestamp and hands the event to the dispatcher, which
//! may schedule more events (always at `t' >= now`). Time never moves
//! backwards and nothing happens between events; the whole simulation is
//! a pure fold over the popped event sequence.
//!
//! # Ordering contract
//!
//! Events are totally ordered by `(time, seq)` where `seq` is a
//! monotonically increasing insertion counter. The `seq` tie-breaker
//! makes simultaneous events pop in insertion order, which — together
//! with a single seeded RNG — makes every simulation a pure function of
//! `(config, seed)`. The test suite, the 17-trial experiment protocol,
//! and the byte-identical golden pins all rely on this.
//!
//! # Queue backends
//!
//! Two interchangeable backends implement the contract ([`QueueKind`]):
//!
//! * **[`QueueKind::Wheel`]** (default) — a hierarchical timer wheel
//!   (calendar queue): [`WHEEL_LEVELS`] levels of 64 slots each, with a
//!   slot granularity of 2^[`WHEEL_GRANULARITY_BITS`] ns at level 0 and
//!   64× coarser per level, giving O(1) amortized insert and pop. Events
//!   beyond the ~19.5 h wheel horizon go to an overflow heap and are
//!   promoted back as the clock approaches them. Slot occupancy per
//!   level is exposed to the profiler via
//!   [`Engine::wheel_high_water`].
//! * **[`QueueKind::Heap`]** — the original global binary heap, kept as
//!   the reference implementation; equivalence tests pin that both
//!   backends pop the identical `(time, seq)` sequence (see
//!   `crates/sim/tests/equivalence.rs` and `SCALING.md`).
//!
//! ```
//! use sg_sim::{Engine, Event, QueueKind};
//! use sg_core::{time::SimTime, NodeId};
//!
//! // Same schedule through both backends: identical pop order.
//! let mut order = Vec::new();
//! for kind in [QueueKind::Wheel, QueueKind::Heap] {
//!     let mut e = Engine::new_with(kind);
//!     e.schedule(SimTime::from_micros(20), Event::ControllerTick { node: NodeId(2) });
//!     e.schedule(SimTime::from_micros(10), Event::ControllerTick { node: NodeId(1) });
//!     e.schedule(SimTime::from_micros(10), Event::ControllerTick { node: NodeId(3) });
//!     let mut popped = Vec::new();
//!     while let Some((t, _)) = e.pop() {
//!         popped.push(t);
//!     }
//!     assert_eq!(popped.windows(2).filter(|w| w[0] > w[1]).count(), 0);
//!     order.push(popped);
//! }
//! assert_eq!(order[0], order[1]);
//! ```

use crate::event::Event;
use sg_core::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which pending-event queue implementation an [`Engine`] uses.
///
/// Both backends are observably identical (same pop order, same
/// watermarks); the wheel is O(1) amortized and is the default. The heap
/// remains selectable (`SimConfig::queue`) as the reference
/// implementation for equivalence tests and bisection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// Hierarchical timer wheel / calendar queue (default).
    #[default]
    Wheel,
    /// Global `(time, seq)` binary heap (reference implementation).
    Heap,
}

/// Number of levels in the timer wheel. Level `l` slots are
/// `2^(WHEEL_GRANULARITY_BITS + 6l)` ns wide; six levels of 64 slots
/// cover ~19.5 simulated hours before the overflow heap takes over.
pub const WHEEL_LEVELS: usize = 6;

/// log2 of the level-0 slot width in nanoseconds (1024 ns). Events
/// closer together than this share a slot and are ordered by `seq` when
/// the slot is drained.
pub const WHEEL_GRANULARITY_BITS: u32 = 10;

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS; // 64
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Wheel horizon in level-0 ticks: 64^6 ticks = 2^46 ns ≈ 19.5 h.
const HORIZON_TICKS: u64 = 1 << (SLOT_BITS * WHEEL_LEVELS as u32);
/// Overflow promotion cadence in ticks (one top-level slot width). The
/// tick cursor never jumps past `promo_anchor + PROMO_STEP` while the
/// overflow heap is non-empty, so far-future events are folded back into
/// the wheel before the clock can pass them.
const PROMO_STEP: u64 = 1 << (SLOT_BITS * (WHEEL_LEVELS as u32 - 1));

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapKey {
    time: SimTime,
    seq: u64,
}

type Entry = (HeapKey, Event);

/// Hierarchical timer wheel: the O(1)-amortized queue backend.
///
/// Slots hold unsorted `(key, event)` entries; a level-0 slot is sorted
/// (by `(time, seq)`) only when the cursor reaches it. Higher-level slots cascade into
/// lower levels as the tick cursor `cur` crosses their window
/// boundaries, so each event is touched at most `WHEEL_LEVELS` times
/// between insert and pop.
#[derive(Debug)]
struct Wheel {
    /// Occupancy bitmaps, one bit per slot, per level.
    maps: [u64; WHEEL_LEVELS],
    /// `WHEEL_LEVELS * 64` slot vecs, level-major.
    slots: Vec<Vec<Entry>>,
    /// The level-0 slot currently being drained, sorted by `(time, seq)`.
    active: Vec<Entry>,
    /// Next un-popped index into `active`.
    cursor: usize,
    /// True while `active` corresponds to tick `cur` (new same-tick
    /// inserts splice into its sorted remainder).
    active_live: bool,
    /// Tick cursor: `now >> WHEEL_GRANULARITY_BITS` between pops; may run
    /// ahead of `now` transiently while scanning for the next event.
    cur: u64,
    /// Far-future events (≥ `HORIZON_TICKS` ahead at insert time).
    overflow: BinaryHeap<Reverse<Entry>>,
    /// Tick of the last overflow-promotion check, aligned to `PROMO_STEP`.
    promo_anchor: u64,
    /// Scratch buffer for cascading a slot without losing its allocation.
    scratch: Vec<Entry>,
    /// Current entries per level (level 0 includes the live active slot).
    level_count: [usize; WHEEL_LEVELS],
    level_high: [usize; WHEEL_LEVELS],
    overflow_high: usize,
}

impl Wheel {
    fn new() -> Self {
        Wheel {
            maps: [0; WHEEL_LEVELS],
            slots: (0..WHEEL_LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            active: Vec::new(),
            cursor: 0,
            active_live: false,
            cur: 0,
            overflow: BinaryHeap::new(),
            promo_anchor: 0,
            scratch: Vec::new(),
            level_count: [0; WHEEL_LEVELS],
            level_high: [0; WHEEL_LEVELS],
            overflow_high: 0,
        }
    }

    #[inline]
    fn tick_of(key: &HeapKey) -> u64 {
        key.time.as_nanos() >> WHEEL_GRANULARITY_BITS
    }

    /// Insert an entry. `self.cur` equals the current clock tick at every
    /// call site (schedule only happens between pops), so `delta` is the
    /// non-negative distance to the event in ticks.
    fn insert(&mut self, entry: Entry) {
        let tick = Self::tick_of(&entry.0);
        debug_assert!(tick >= self.cur, "insert behind the tick cursor");
        let delta = tick - self.cur;
        if delta >= HORIZON_TICKS {
            self.overflow.push(Reverse(entry));
            self.overflow_high = self.overflow_high.max(self.overflow.len());
            return;
        }
        if delta == 0 && self.active_live {
            // Same tick as the slot being drained: splice the entry into
            // the sorted remainder. Its key exceeds every already-popped
            // key (`time >= now`, `seq` larger than any resident's), so
            // the insertion point is always at or past the cursor.
            let pos = self.active.partition_point(|e| e.0 < entry.0);
            debug_assert!(pos >= self.cursor, "insert before drain cursor");
            self.active.insert(pos, entry);
            self.bump(0);
            return;
        }
        let level = Self::level_for(delta);
        let slot = ((tick >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        self.slots[level * SLOTS + slot].push(entry);
        self.maps[level] |= 1 << slot;
        self.bump(level);
    }

    #[inline]
    fn bump(&mut self, level: usize) {
        self.level_count[level] += 1;
        self.level_high[level] = self.level_high[level].max(self.level_count[level]);
    }

    /// Smallest level whose slot width separates an event `delta` ticks
    /// away from the cursor: level `l` iff `delta < 64^(l+1)`.
    #[inline]
    fn level_for(delta: u64) -> usize {
        debug_assert!(delta < HORIZON_TICKS);
        let bits = 64 - (delta | 1).leading_zeros();
        ((bits - 1) / SLOT_BITS) as usize
    }

    /// Pop the earliest entry, or `None` if the wheel (including the
    /// overflow heap) is empty.
    fn pop(&mut self) -> Option<Entry> {
        if self.cursor >= self.active.len() && !self.advance() {
            return None;
        }
        let entry = self.active[self.cursor];
        self.cursor += 1;
        self.level_count[0] -= 1;
        self.cur = Self::tick_of(&entry.0);
        Some(entry)
    }

    /// Move `cur` to the next non-empty level-0 slot, cascading
    /// higher-level slots downward as their windows open, and activate
    /// it. Returns false iff no events remain anywhere.
    fn advance(&mut self) -> bool {
        self.active_live = false;
        'outer: loop {
            if !self.overflow.is_empty() && self.cur >= self.promo_anchor + PROMO_STEP {
                self.promote();
            }
            // Level-0 slots at or after the cursor's slot hold the events
            // of the current level-1 window; earlier (wrapped) bits
            // belong to the next window and are found after crossing.
            let s0 = (self.cur & SLOT_MASK) as u32;
            let m0 = self.maps[0] & (!0u64 << s0);
            if m0 != 0 {
                let j = m0.trailing_zeros() as u64;
                self.cur = (self.cur & !SLOT_MASK) | j;
                self.activate(j as usize);
                return true;
            }
            for lvl in 1..WHEEL_LEVELS {
                let shift = SLOT_BITS * lvl as u32;
                if self.maps[lvl - 1] != 0 {
                    // Wrapped events one level down: they live in the
                    // window that starts at the next level-`lvl` boundary.
                    let target = ((self.cur >> shift) + 1) << shift;
                    self.step_to(target);
                    continue 'outer;
                }
                // A set bit at this level's *current* slot can only be a
                // wrapped (next-cycle) entry — in-window events were
                // cascaded out when the window opened — so scan strictly
                // past it.
                let s = ((self.cur >> shift) & SLOT_MASK) as u32;
                let m = if s + 1 < SLOTS as u32 {
                    self.maps[lvl] & (!0u64 << (s + 1))
                } else {
                    0
                };
                if m != 0 {
                    let j = m.trailing_zeros() as u64;
                    let base = (self.cur >> (shift + SLOT_BITS)) << (shift + SLOT_BITS);
                    self.step_to(base | (j << shift));
                    continue 'outer;
                }
            }
            if self.maps[WHEEL_LEVELS - 1] != 0 {
                // Only wrapped top-level bits remain: next top cycle.
                let shift = SLOT_BITS * WHEEL_LEVELS as u32;
                let target = ((self.cur >> shift) + 1) << shift;
                self.step_to(target);
                continue 'outer;
            }
            if let Some(Reverse((k, _))) = self.overflow.peek() {
                // Wheel empty: jump straight to the overflow minimum's
                // promotion window and fold it (and its neighbours) in.
                let tmin = Self::tick_of(k);
                self.cur = self.cur.max(tmin & !(PROMO_STEP - 1));
                self.promote();
                continue 'outer;
            }
            return false;
        }
    }

    /// Move the tick cursor to `target`, never past the next overflow
    /// promotion boundary, cascading every slot whose window the move
    /// opens (top level first, so chains cascade all the way to L0).
    fn step_to(&mut self, mut target: u64) {
        if !self.overflow.is_empty() {
            target = target.min(self.promo_anchor + PROMO_STEP);
        }
        let old = self.cur;
        self.cur = target;
        for lvl in (1..WHEEL_LEVELS).rev() {
            let shift = SLOT_BITS * lvl as u32;
            if old >> shift != target >> shift {
                let s = ((target >> shift) & SLOT_MASK) as usize;
                if self.maps[lvl] & (1 << s) != 0 {
                    self.cascade(lvl, s);
                }
            }
        }
    }

    /// Re-insert every entry of `slots[lvl][s]` relative to the current
    /// cursor. In-window entries drop to lower levels; wrapped
    /// (next-cycle) entries land back in the same slot.
    fn cascade(&mut self, lvl: usize, s: usize) {
        let idx = lvl * SLOTS + s;
        debug_assert!(self.scratch.is_empty());
        std::mem::swap(&mut self.scratch, &mut self.slots[idx]);
        self.maps[lvl] &= !(1 << s);
        self.level_count[lvl] -= self.scratch.len();
        let mut moved = std::mem::take(&mut self.scratch);
        for entry in moved.drain(..) {
            self.insert(entry);
        }
        self.scratch = moved;
    }

    /// Take the level-0 slot `j` as the active slot and sort it by the
    /// full `(time, seq)` key. Every resident shares tick `cur` (a
    /// level-0 slot is one tick wide and past residents are impossible —
    /// slots are drained in tick order), but times still differ *within*
    /// the tick, so `seq` alone is not enough.
    fn activate(&mut self, j: usize) {
        self.active.clear();
        std::mem::swap(&mut self.active, &mut self.slots[j]);
        self.maps[0] &= !(1 << j);
        self.active.sort_unstable_by_key(|e| e.0);
        debug_assert!(self.active.iter().all(|e| Self::tick_of(&e.0) == self.cur));
        self.cursor = 0;
        self.active_live = true;
    }

    /// Fold overflow entries that now fit the wheel horizon back in and
    /// advance the promotion anchor to the cursor's window.
    fn promote(&mut self) {
        self.promo_anchor = self.cur & !(PROMO_STEP - 1);
        while let Some(Reverse((k, _))) = self.overflow.peek() {
            if Self::tick_of(k) - self.cur >= HORIZON_TICKS {
                break;
            }
            let Reverse(entry) = self.overflow.pop().expect("peeked");
            self.insert(entry);
        }
    }
}

/// The pending-event queue backend: reference heap or timer wheel.
// One `Queue` exists per `Engine`, so the heap variant riding along
// at the wheel's footprint costs nothing worth an indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Queue {
    Heap(BinaryHeap<Reverse<Entry>>),
    Wheel(Wheel),
}

/// The event queue / clock pair.
#[derive(Debug)]
pub struct Engine {
    queue: Queue,
    now: SimTime,
    next_seq: u64,
    processed: u64,
    len: usize,
    high_water: usize,
}

impl Engine {
    /// Empty engine at time zero with the default queue backend.
    pub fn new() -> Self {
        Self::new_with(QueueKind::default())
    }

    /// Empty engine at time zero with an explicit queue backend.
    pub fn new_with(kind: QueueKind) -> Self {
        let queue = match kind {
            QueueKind::Heap => Queue::Heap(BinaryHeap::new()),
            QueueKind::Wheel => Queue::Wheel(Wheel::new()),
        };
        Engine {
            queue,
            now: SimTime::ZERO,
            next_seq: 0,
            processed: 0,
            len: 0,
            high_water: 0,
        }
    }

    /// Which queue backend this engine runs on.
    pub fn queue_kind(&self) -> QueueKind {
        match self.queue {
            Queue::Heap(_) => QueueKind::Heap,
            Queue::Wheel(_) => QueueKind::Wheel,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still queued.
    pub fn pending(&self) -> usize {
        self.len
    }

    /// Deepest the pending-event queue has been since construction
    /// (events, not bytes), regardless of backend. The name predates the
    /// wheel backend and is kept for profile-schema continuity.
    pub fn heap_high_water(&self) -> usize {
        self.high_water
    }

    /// Per-level slot-occupancy high-water marks of the wheel backend
    /// (level 0 first), or `None` on the heap backend. Feeds the
    /// profiler's `wheel_l*_high_water` marks.
    pub fn wheel_high_water(&self) -> Option<[usize; WHEEL_LEVELS]> {
        match &self.queue {
            Queue::Heap(_) => None,
            Queue::Wheel(w) => Some(w.level_high),
        }
    }

    /// High-water mark of the wheel's far-future overflow heap, or
    /// `None` on the heap backend.
    pub fn wheel_overflow_high_water(&self) -> Option<usize> {
        match &self.queue {
            Queue::Heap(_) => None,
            Queue::Wheel(w) => Some(w.overflow_high),
        }
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past is a
    /// logic error and panics in debug builds; in release the event fires
    /// "now" to keep time monotone.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let at = at.max(self.now);
        let key = HeapKey {
            time: at,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        match &mut self.queue {
            Queue::Heap(heap) => heap.push(Reverse((key, event))),
            Queue::Wheel(wheel) => wheel.insert((key, event)),
        }
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let (key, event) = match &mut self.queue {
            Queue::Heap(heap) => {
                let Reverse(entry) = heap.pop()?;
                entry
            }
            Queue::Wheel(wheel) => wheel.pop()?,
        };
        debug_assert!(key.time >= self.now, "event queue went backwards");
        self.now = key.time;
        self.len -= 1;
        self.processed += 1;
        Some((key.time, event))
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_core::ids::NodeId;

    fn tick(node: u32) -> Event {
        Event::ControllerTick { node: NodeId(node) }
    }

    fn both() -> [Engine; 2] {
        [
            Engine::new_with(QueueKind::Wheel),
            Engine::new_with(QueueKind::Heap),
        ]
    }

    #[test]
    fn pops_in_time_order() {
        for mut e in both() {
            e.schedule(SimTime::from_micros(30), tick(3));
            e.schedule(SimTime::from_micros(10), tick(1));
            e.schedule(SimTime::from_micros(20), tick(2));
            let order: Vec<u32> = std::iter::from_fn(|| e.pop())
                .map(|(_, ev)| match ev {
                    Event::ControllerTick { node } => node.0,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(order, vec![1, 2, 3]);
            assert_eq!(e.now(), SimTime::from_micros(30));
            assert_eq!(e.processed(), 3);
            assert_eq!(e.heap_high_water(), 3, "all three were queued at once");
        }
    }

    #[test]
    fn simultaneous_events_pop_in_insertion_order() {
        for mut e in both() {
            let t = SimTime::from_millis(5);
            for i in 0..10 {
                e.schedule(t, tick(i));
            }
            let order: Vec<u32> = std::iter::from_fn(|| e.pop())
                .map(|(_, ev)| match ev {
                    Event::ControllerTick { node } => node.0,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(order, (0..10).collect::<Vec<_>>());
        }
    }

    /// Events live inline in the queue entries — no per-event boxing. A
    /// pointer-sized `Event` here would mean someone re-introduced an
    /// indirection; a huge one would mean an oversized variant should be
    /// boxed at the variant level instead.
    #[test]
    fn events_stay_small_enough_to_store_inline() {
        let sz = std::mem::size_of::<Event>();
        assert!(
            sz > std::mem::size_of::<usize>(),
            "Event ({sz} B) looks like a pointer — it must be stored by value"
        );
        assert!(
            sz <= 64,
            "Event grew to {sz} B; box the oversized variant's payload instead"
        );
    }

    #[test]
    fn clock_advances_monotonically() {
        for mut e in both() {
            e.schedule(SimTime::from_micros(10), tick(0));
            e.schedule(SimTime::from_micros(5), tick(1));
            let (t1, _) = e.pop().unwrap();
            let (t2, _) = e.pop().unwrap();
            assert!(t2 >= t1);
            assert_eq!(e.pending(), 0);
        }
    }

    /// Far-future events cross the wheel horizon into the overflow heap
    /// and still pop in global time order.
    #[test]
    fn overflow_events_pop_in_order() {
        let mut e = Engine::new_with(QueueKind::Wheel);
        let day = SimTime::from_secs(86_400); // well past the ~19.5 h horizon
        e.schedule(day, tick(3));
        e.schedule(SimTime::from_micros(1), tick(1));
        e.schedule(SimTime::from_secs(60), tick(2));
        assert!(e.wheel_overflow_high_water().unwrap() >= 1);
        let order: Vec<u32> = std::iter::from_fn(|| e.pop())
            .map(|(_, ev)| match ev {
                Event::ControllerTick { node } => node.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(e.now(), day);
    }

    /// Regression for the overflow/wheel interleaving hazard: an event
    /// parked in overflow must pop before a *later* event that was
    /// inserted directly into the wheel once the clock had advanced
    /// enough to bring both within the horizon.
    #[test]
    fn overflow_interleaves_with_direct_inserts() {
        let mut e = Engine::new_with(QueueKind::Wheel);
        let h20 = SimTime::from_secs(20 * 3600);
        let h21 = SimTime::from_secs(21 * 3600);
        e.schedule(h20, tick(20)); // beyond horizon from t=0 → overflow
        e.schedule(SimTime::from_secs(2 * 3600), tick(2));
        let (t, _) = e.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(2 * 3600));
        e.schedule(h21, tick(21)); // within horizon of now=2 h → wheel
        let (t1, ev1) = e.pop().unwrap();
        let (t2, ev2) = e.pop().unwrap();
        assert_eq!((t1, t2), (h20, h21));
        assert!(matches!(ev1, Event::ControllerTick { node: NodeId(20) }));
        assert!(matches!(ev2, Event::ControllerTick { node: NodeId(21) }));
    }

    /// Inserting an event for the tick currently being drained must slot
    /// it behind the remaining same-tick residents (its seq is larger).
    #[test]
    fn insert_during_drain_of_current_tick() {
        for mut e in both() {
            let t = SimTime::from_nanos(5000);
            e.schedule(t, tick(0));
            e.schedule(t, tick(1));
            let (_, ev) = e.pop().unwrap();
            assert!(matches!(ev, Event::ControllerTick { node: NodeId(0) }));
            // Same timestamp as the half-drained slot.
            e.schedule(t, tick(2));
            let order: Vec<u32> = std::iter::from_fn(|| e.pop())
                .map(|(_, ev)| match ev {
                    Event::ControllerTick { node } => node.0,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(order, vec![1, 2]);
        }
    }

    /// The two backends pop byte-identical `(time, node)` sequences on a
    /// pseudo-random workload that spans every wheel level and the
    /// overflow heap, with interleaved inserts and pops.
    #[test]
    fn wheel_matches_heap_on_mixed_workload() {
        let mut wheel = Engine::new_with(QueueKind::Wheel);
        let mut heap = Engine::new_with(QueueKind::Heap);
        // Deterministic xorshift so the test needs no external RNG.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut popped = 0u32;
        for round in 0..2000u32 {
            let r = next();
            // Span 1 ns .. ~39 h ahead so every level and the overflow
            // heap see traffic.
            let magnitude = 1u64 << (r % 48);
            let offset = next() % magnitude + 1;
            let at_w = wheel.now() + sg_core::time::SimDuration::from_nanos(offset);
            let at_h = heap.now() + sg_core::time::SimDuration::from_nanos(offset);
            assert_eq!(at_w, at_h);
            wheel.schedule(at_w, tick(round));
            heap.schedule(at_h, tick(round));
            if next() % 3 == 0 {
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a, b, "pop #{popped} diverged");
                popped += 1;
            }
        }
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            assert_eq!(a, b, "drain pop #{popped} diverged");
            if a.is_none() {
                break;
            }
            popped += 1;
        }
        assert_eq!(u64::from(popped), wheel.processed());
        assert!(wheel.wheel_overflow_high_water().unwrap() > 0);
    }
}
