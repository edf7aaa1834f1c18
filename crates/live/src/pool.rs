//! Blocking connection pools.
//!
//! The discrete-event simulator queues invocations on a
//! [`sg_sim::connpool::ConnPool`] data structure; here the pool actually
//! blocks the calling worker thread, which is precisely the hidden
//! threadpool queue the paper's metrics section is about (§III-B): while a
//! parent waits for a free downstream connection its `execTime` inflates
//! but its `execMetric` does not.
//!
//! Fault injection leaks connections: a leaked connection is held by
//! nobody but still counts against the capacity, so `in_use + leaked`
//! must stay below the cap for an acquire to proceed — the same effective
//! capacity rule the sim pool applies.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug)]
struct PoolState {
    /// Pool capacity; `None` = unlimited (connection-per-request).
    capacity: Option<u32>,
    /// Connections currently held by callers.
    in_use: u32,
    /// Connections lost to an injected leak (held by nobody, counted
    /// against the capacity until the fault clears).
    leaked: u32,
    /// Threads currently blocked in [`LiveConnPool::acquire`].
    waiters: u32,
    /// Cumulative acquires that had to wait at least once.
    queued_total: u64,
    closed: bool,
}

impl PoolState {
    /// Whether an acquire can proceed (ignoring `closed`).
    fn has_free(&self) -> bool {
        match self.capacity {
            None => true,
            Some(cap) => self.in_use + self.leaked < cap,
        }
    }
}

/// Point-in-time occupancy of a pool, for the metrics sampler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Connections currently held.
    pub in_use: u32,
    /// Threads currently blocked waiting for one.
    pub waiters: u32,
    /// Cumulative acquires that blocked (counter).
    pub queued_total: u64,
}

/// A fixed pool of reusable connections for one parent→child edge, or an
/// unlimited connection-per-request edge.
#[derive(Debug)]
pub struct LiveConnPool {
    state: Mutex<PoolState>,
    cv: Condvar,
}

impl LiveConnPool {
    /// `capacity = None` models connection-per-request (never blocks).
    pub fn new(capacity: Option<u32>) -> Self {
        LiveConnPool {
            state: Mutex::new(PoolState {
                capacity,
                in_use: 0,
                leaked: 0,
                waiters: 0,
                queued_total: 0,
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Take a connection, blocking the thread until one is free. Returns
    /// how long the caller waited, or `None` once the pool is closed.
    pub fn acquire(&self) -> Option<Duration> {
        let start = Instant::now();
        let mut s = self.state.lock().unwrap();
        let mut waiting = false;
        loop {
            if s.closed {
                if waiting {
                    s.waiters -= 1;
                }
                return None;
            }
            if s.has_free() {
                s.in_use += 1;
                if waiting {
                    s.waiters -= 1;
                    return Some(start.elapsed());
                }
                // Connection-per-request (and an uncontended fixed pool)
                // never waits; report exactly zero for the `None` case so
                // `execMetric == execTime` holds on this substrate just as
                // it does in the sim.
                return Some(if s.capacity.is_none() {
                    Duration::ZERO
                } else {
                    start.elapsed()
                });
            }
            if !waiting {
                waiting = true;
                s.waiters += 1;
                s.queued_total += 1;
            }
            let (guard, _) = self.cv.wait_timeout(s, Duration::from_millis(10)).unwrap();
            s = guard;
        }
    }

    /// Return a connection; one blocked waiter proceeds (unless a leak
    /// has pushed the pool over its effective capacity, in which case the
    /// release is absorbed by the leak instead).
    pub fn release(&self) {
        let mut s = self.state.lock().unwrap();
        s.in_use = s.in_use.saturating_sub(1);
        drop(s);
        self.cv.notify_one();
    }

    /// Fault injection: leak `n` connections, shrinking the effective
    /// capacity to `cap - leaked`. Saturates at the capacity (a fully
    /// leaked pool admits nothing); no-op on unbounded pools — there is
    /// nothing to exhaust, same as the sim.
    pub(crate) fn leak(&self, n: u32) {
        let mut s = self.state.lock().unwrap();
        if let Some(cap) = s.capacity {
            s.leaked = (s.leaked + n).min(cap);
        }
    }

    /// The leak's fault window ends: reclaim `n` leaked connections and
    /// wake waiters that now fit under the effective capacity.
    pub(crate) fn unleak(&self, n: u32) {
        let mut s = self.state.lock().unwrap();
        s.leaked = s.leaked.saturating_sub(n);
        drop(s);
        self.cv.notify_all();
    }

    /// Occupancy snapshot for the metrics sampler.
    pub fn stats(&self) -> PoolStats {
        let s = self.state.lock().unwrap();
        PoolStats {
            in_use: s.in_use,
            waiters: s.waiters,
            queued_total: s.queued_total,
        }
    }

    /// Unblock all waiters; subsequent acquires fail fast.
    pub(crate) fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn unlimited_never_waits() {
        let p = LiveConnPool::new(None);
        for _ in 0..100 {
            let waited = p.acquire().unwrap();
            assert!(waited < Duration::from_millis(5));
        }
    }

    #[test]
    fn fixed_pool_blocks_until_release() {
        let p = Arc::new(LiveConnPool::new(Some(1)));
        assert!(p.acquire().is_some());
        let p2 = p.clone();
        let h = std::thread::spawn(move || p2.acquire().unwrap());
        std::thread::sleep(Duration::from_millis(20));
        p.release();
        let waited = h.join().unwrap();
        assert!(waited >= Duration::from_millis(10), "waited {waited:?}");
    }

    #[test]
    fn stats_track_occupancy_and_queueing() {
        let p = Arc::new(LiveConnPool::new(Some(1)));
        assert_eq!(p.stats(), PoolStats::default());
        p.acquire().unwrap();
        assert_eq!(p.stats().in_use, 1);
        let p2 = p.clone();
        let h = std::thread::spawn(move || p2.acquire().unwrap());
        // Wait until the second acquire is visibly blocked.
        while p.stats().waiters == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(p.stats().queued_total, 1);
        p.release();
        h.join().unwrap();
        let s = p.stats();
        assert_eq!((s.in_use, s.waiters, s.queued_total), (1, 0, 1));
        p.release();
        assert_eq!(p.stats().in_use, 0);
        // Unlimited pools still track occupancy (release is unconditional).
        let u = LiveConnPool::new(None);
        u.acquire().unwrap();
        assert_eq!(u.stats().in_use, 1);
        u.release();
        assert_eq!(u.stats().in_use, 0);
    }

    #[test]
    fn close_unblocks_waiters() {
        let p = Arc::new(LiveConnPool::new(Some(0)));
        let p2 = p.clone();
        let h = std::thread::spawn(move || p2.acquire());
        std::thread::sleep(Duration::from_millis(5));
        p.close();
        assert!(h.join().unwrap().is_none());
    }

    #[test]
    fn leak_shrinks_capacity_and_unleak_restores() {
        // Capacity 2, one leaked: only one acquire fits.
        let p = Arc::new(LiveConnPool::new(Some(2)));
        p.leak(1);
        assert!(p.acquire().is_some());
        let p2 = p.clone();
        let h = std::thread::spawn(move || p2.acquire().unwrap());
        while p.stats().waiters == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Reclaiming the leaked connection admits the waiter.
        p.unleak(1);
        h.join().unwrap();
        assert_eq!(p.stats().in_use, 2);
    }

    #[test]
    fn leak_is_inert_on_unbounded_pools() {
        let p = LiveConnPool::new(None);
        p.leak(10);
        assert!(p.acquire().unwrap() < Duration::from_millis(5));
    }

    #[test]
    fn release_is_absorbed_while_over_leaked_capacity() {
        // Saturate capacity 1, then leak it out from under the holder:
        // the release must not admit the waiter — the leak holds the slot
        // until the fault clears.
        let p = Arc::new(LiveConnPool::new(Some(1)));
        p.acquire().unwrap();
        p.leak(1);
        let p2 = p.clone();
        let h = std::thread::spawn(move || p2.acquire().unwrap());
        while p.stats().waiters == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        p.release();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(p.stats().waiters, 1, "waiter admitted past the leak");
        p.unleak(1);
        h.join().unwrap();
        assert_eq!(p.stats().in_use, 1);
    }
}
