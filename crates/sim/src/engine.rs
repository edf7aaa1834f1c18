//! Deterministic discrete-event engine: clock + pending-event queue.
//!
//! # Event lifecycle
//!
//! Every future action in the simulator — an arrival, an RPC delivery, a
//! phase completion, a controller tick, a fault edge — is an [`Event`]
//! due at an absolute [`SimTime`]. The runner's main loop is
//! `while let Some((t, ev)) = engine.pop()`: popping advances the clock
//! to the event's timestamp and hands the event to the dispatcher, which
//! may schedule more events (always at `t' >= now`). Time never moves
//! backwards and nothing happens between events; the whole simulation is
//! a pure fold over the popped event sequence.
//!
//! An event reaches `pop` one of two ways. [`Engine::schedule`] puts it
//! on the pending-event queue, where it stays until it pops: scheduled
//! events are never withdrawn. A container's next phase completion is
//! different — it moves every time the container's rate or membership
//! changes — so it is not queued but *armed*: [`Engine::arm`] sets the
//! slot's one completion timer, replacing the previous setting, and
//! [`Engine::disarm`] cancels it. `pop` merges the timer table with the
//! queue and hands a due timer out as [`Event::PhaseComplete`]. Every
//! popped event is live; nothing is popped to be thrown away, and
//! [`Engine::pending`] counts work that will really happen.
//!
//! # Ordering contract
//!
//! Events are totally ordered by `(time, seq)` where `seq` is a
//! monotonically increasing counter that `schedule` and `arm` both draw
//! from: a timer pops exactly where an event scheduled by the same call
//! would, and a re-arm takes a fresh `seq` rather than inheriting the
//! old one. The `seq` tie-breaker makes simultaneous events pop in
//! call order, which — together with a single seeded RNG — makes every
//! simulation a pure function of `(config, seed)`. The test suite, the
//! 17-trial experiment protocol, and the byte-identical golden pins all
//! rely on this.
//!
//! # Timers sit above the queue
//!
//! The timer table and the merge live in `Engine`, above both queue
//! backends, so the backends stay insert-and-pop-only and share the
//! feature by construction. The price is that the wheel cannot be
//! peeked — finding its minimum moves the tick cursor — so when `pop`
//! has to compare a timer with the queue it pulls the queue's earliest
//! entry out. If the timer is earlier, that entry waits in a one-slot
//! *hold-back register*, and until it pops anything scheduled before it
//! goes to a small side heap that `pop` drains first (the backend's
//! cursor already stands at the held entry's tick, and inserts behind
//! the cursor are not allowed). Order: side heap < held entry < backend.
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
//!   `crates/sim/tests/properties.rs`,
//!   `crates/experiments/tests/equivalence.rs` and `SCALING.md`).
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
use sg_core::ids::ContainerId;
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

impl HeapKey {
    /// `self < other`, as one wide integer comparison: the timer heap
    /// picks the earlier of two children with it, which must not cost a
    /// mispredicted branch a level.
    #[inline]
    fn precedes(self, other: HeapKey) -> bool {
        let wide = |k: HeapKey| (u128::from(k.time.as_nanos()) << 64) | u128::from(k.seq);
        wide(self) < wide(other)
    }
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
    /// Tick cursor: the tick of the last entry popped; runs ahead of
    /// that transiently while scanning for the next event, and ahead of
    /// the engine's clock while that entry is held back behind a timer.
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

    /// Insert an entry. `self.cur` is the tick of the last entry popped,
    /// and the engine only inserts entries that sort after that one (it
    /// keeps the rest in its side heap while the popped entry is held
    /// back), so `delta` is the non-negative distance to the event in
    /// ticks.
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
            // key (it sorts after the last one popped, see above), so the
            // insertion point is always at or past the cursor.
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

impl Queue {
    #[inline]
    fn insert(&mut self, entry: Entry) {
        match self {
            Queue::Heap(heap) => heap.push(Reverse(entry)),
            Queue::Wheel(wheel) => wheel.insert(entry),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<Entry> {
        match self {
            Queue::Heap(heap) => heap.pop().map(|Reverse(entry)| entry),
            Queue::Wheel(wheel) => wheel.pop(),
        }
    }
}

/// `Timers::pos` value of a slot with no armed timer.
const DISARMED: u32 = u32::MAX;

/// One armed completion timer.
#[derive(Debug, Clone, Copy)]
struct Timer {
    key: HeapKey,
    /// The container epoch the timer was armed under.
    epoch: u64,
    slot: u32,
}

/// The completion-timer table: an indexed binary min-heap holding at
/// most one [`Timer`] per container slot, so a timer can be moved or
/// removed in O(log armed) instead of being left behind as a dead queue
/// entry.
#[derive(Debug, Default)]
struct Timers {
    /// Min-heap on `key`; `pos` tracks where each slot's timer sits.
    heap: Vec<Timer>,
    /// Heap index of each slot's timer, or [`DISARMED`].
    pos: Vec<u32>,
}

impl Timers {
    #[inline]
    fn front(&self) -> Option<HeapKey> {
        self.heap.first().map(|timer| timer.key)
    }

    #[inline]
    fn armed_epoch(&self, slot: usize) -> Option<u64> {
        match self.pos.get(slot) {
            Some(&p) if p != DISARMED => Some(self.heap[p as usize].epoch),
            _ => None,
        }
    }

    /// Arm `slot`, moving its timer in place if it has one. Returns true
    /// iff the slot was disarmed before.
    fn arm(&mut self, slot: usize, key: HeapKey, epoch: u64) -> bool {
        if slot >= self.pos.len() {
            self.pos.resize(slot + 1, DISARMED);
        }
        let timer = Timer {
            key,
            epoch,
            slot: slot as u32,
        };
        match self.pos[slot] {
            DISARMED => {
                self.heap.push(timer);
                self.sift_up(self.heap.len() - 1, timer);
                true
            }
            p => {
                self.sink(p as usize, timer);
                false
            }
        }
    }

    /// Remove `slot`'s timer. Returns true iff it had one.
    fn disarm(&mut self, slot: usize) -> bool {
        match self.pos.get(slot) {
            Some(&p) if p != DISARMED => {
                self.remove(p as usize);
                true
            }
            _ => false,
        }
    }

    /// Remove and return the earliest timer.
    fn pop(&mut self) -> Timer {
        self.remove(0)
    }

    fn remove(&mut self, i: usize) -> Timer {
        let removed = self.heap[i];
        self.pos[removed.slot as usize] = DISARMED;
        let last = self.heap.pop().expect("index is in the heap");
        if i < self.heap.len() {
            self.sink(i, last);
        }
        removed
    }

    /// Put `timer` where it belongs at or above the vacant index `i`.
    fn sift_up(&mut self, mut i: usize, timer: Timer) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !timer.key.precedes(self.heap[parent].key) {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, timer);
    }

    /// Put `timer` where it belongs given the vacant index `i`, above or
    /// below: walk the vacancy down to a leaf along the earlier child —
    /// one comparison a level, none of them against `timer` and none a
    /// branch — and sift up from there, which is short for a timer that
    /// belongs near the bottom, as a re-armed or formerly last one
    /// usually does.
    fn sink(&mut self, mut i: usize, timer: Timer) {
        let len = self.heap.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= len {
                break;
            }
            let right_first =
                child + 1 < len && self.heap[child + 1].key.precedes(self.heap[child].key);
            child += usize::from(right_first);
            self.place(i, self.heap[child]);
            i = child;
        }
        self.sift_up(i, timer);
    }

    #[inline]
    fn place(&mut self, i: usize, timer: Timer) {
        self.heap[i] = timer;
        self.pos[timer.slot as usize] = i as u32;
    }
}

/// The event queue / clock pair.
#[derive(Debug)]
pub struct Engine {
    queue: Queue,
    /// Armed completion timers; [`Engine::pop`] merges them with `queue`.
    timers: Timers,
    /// Hold-back register: the one entry `pop` pulled out of `queue` to
    /// compare with a timer and found to be the later of the two. The
    /// wheel cannot be peeked without moving its tick cursor, so the
    /// entry waits here, outside the backend, until it is the earliest.
    held: Option<Entry>,
    /// Entries scheduled before `held` while it waits. The backend's
    /// cursor already sits at `held`'s tick and only accepts inserts at
    /// or after it, so these stay in this side heap; `pop` drains it
    /// first. Non-empty only while `held` is occupied.
    side: BinaryHeap<Reverse<Entry>>,
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
            timers: Timers::default(),
            held: None,
            side: BinaryHeap::new(),
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

    /// Events that will still pop: scheduled entries (wherever `pop` has
    /// parked them) plus armed timers. A replaced or cancelled timer is
    /// gone, not pending.
    pub fn pending(&self) -> usize {
        self.len
    }

    /// Most events ever [`pending`](Engine::pending) at once since
    /// construction (events, not bytes), regardless of backend. The name
    /// predates the wheel backend and is kept for profile-schema
    /// continuity.
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
        let key = self.next_key(at);
        match self.held {
            Some((held, _)) if key < held => self.side.push(Reverse((key, event))),
            _ => self.queue.insert((key, event)),
        }
        self.grow();
    }

    /// Arm container slot `slot`'s completion timer to fire at `at` as
    /// `Event::PhaseComplete { container: slot, epoch }`, replacing the
    /// slot's armed timer if it has one (the old one never fires). The
    /// timer takes its `seq` from the counter [`Engine::schedule`] uses,
    /// so it pops exactly where an event scheduled by this call would.
    #[inline]
    pub fn arm(&mut self, slot: ContainerId, at: SimTime, epoch: u64) {
        let key = self.next_key(at);
        if self.timers.arm(slot.index(), key, epoch) {
            self.grow();
        }
    }

    /// Cancel `slot`'s completion timer, if armed.
    #[inline]
    pub fn disarm(&mut self, slot: ContainerId) {
        if self.timers.disarm(slot.index()) {
            self.len -= 1;
        }
    }

    /// The epoch `slot`'s timer was armed under, or `None` when disarmed
    /// (never armed, cancelled, or already fired).
    #[inline]
    pub fn armed_epoch(&self, slot: ContainerId) -> Option<u64> {
        self.timers.armed_epoch(slot.index())
    }

    #[inline]
    fn next_key(&mut self, at: SimTime) -> HeapKey {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let key = HeapKey {
            time: at.max(self.now),
            seq: self.next_seq,
        };
        self.next_seq += 1;
        key
    }

    #[inline]
    fn grow(&mut self) {
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let timer = self.timers.front();
        let (key, event) = match self.held {
            // Nothing is held back, so the backend's minimum is the
            // earliest scheduled entry. Pull it out; if a timer is due
            // before it, it becomes the held entry.
            None => match (self.queue.pop(), timer) {
                (Some(entry), Some(timer)) if timer < entry.0 => {
                    self.held = Some(entry);
                    self.fire()
                }
                (Some(entry), _) => entry,
                (None, Some(_)) => self.fire(),
                (None, None) => return None,
            },
            // Everything in `side` sorts before `held`, and `held` before
            // everything left in the backend.
            Some((held, _)) => {
                let queued = self.side.peek().map_or(held, |Reverse((key, _))| *key);
                match timer {
                    Some(timer) if timer < queued => self.fire(),
                    _ => match self.side.pop() {
                        Some(Reverse(entry)) => entry,
                        None => self.held.take().expect("matched as occupied"),
                    },
                }
            }
        };
        debug_assert!(key.time >= self.now, "event queue went backwards");
        self.now = key.time;
        self.len -= 1;
        self.processed += 1;
        Some((key.time, event))
    }

    /// Take the earliest timer out of the table as the event it stands for.
    #[inline]
    fn fire(&mut self) -> Entry {
        let Timer { key, epoch, slot } = self.timers.pop();
        let container = ContainerId(slot);
        (key, Event::PhaseComplete { container, epoch })
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

    /// The hold-back path, step by step: a timer earlier than the next
    /// scheduled entry fires first and leaves that entry in the hold-back
    /// register; entries scheduled before it, at its very instant and
    /// after it, a timer re-armed to before it and a cancelled earliest
    /// timer then all pop (or do not) in `(time, seq)` order.
    #[test]
    fn timers_merge_with_the_queue_around_a_held_entry() {
        let at = SimTime::from_nanos;
        let timer = |slot: u32, epoch: u64| Event::PhaseComplete {
            container: ContainerId(slot),
            epoch,
        };
        for mut e in both() {
            e.schedule(at(100_000), tick(0));
            e.arm(ContainerId(0), at(50_000), 7);
            assert_eq!(e.armed_epoch(ContainerId(0)), Some(7));
            assert_eq!(e.pending(), 2);
            // The timer wins; the tick is now held outside the backend.
            assert_eq!(e.pop(), Some((at(50_000), timer(0, 7))));
            assert_eq!(e.armed_epoch(ContainerId(0)), None, "fired = disarmed");
            e.schedule(at(60_000), tick(1)); // before the held entry
            e.schedule(at(99_999), tick(2)); // its tick, an earlier time
            e.schedule(at(100_000), tick(3)); // its instant: later seq
            e.schedule(at(150_000), tick(4)); // after it
            e.arm(ContainerId(1), at(120_000), 1);
            e.arm(ContainerId(1), at(70_000), 2); // re-arm to before it
            e.arm(ContainerId(2), at(55_000), 1);
            e.disarm(ContainerId(2)); // cancel the earliest timer
            e.disarm(ContainerId(3)); // never armed: nothing to cancel
            assert_eq!(e.pending(), 6);
            assert_eq!(e.heap_high_water(), 7, "live work only");
            let popped: Vec<_> = std::iter::from_fn(|| e.pop()).collect();
            let expect = [
                (at(60_000), tick(1)),
                (at(70_000), timer(1, 2)),
                (at(99_999), tick(2)),
                (at(100_000), tick(0)),
                (at(100_000), tick(3)),
                (at(150_000), tick(4)),
            ];
            assert_eq!(popped, expect);
            assert_eq!(e.processed(), 7);
            assert_eq!(e.pending(), 0);
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
