//! Per-edge connection pools — the source of the paper's *hidden
//! dependencies* (§III-B, Fig. 5).
//!
//! A fixed-size pool caps how many RPCs can be in flight from one
//! container to one downstream container. When the pool is exhausted the
//! calling thread queues FIFO *inside the upstream container*: it holds no
//! CPU, generates no network traffic, and shows up in no network queue —
//! invisible to controllers like Caladan that watch explicit queues. The
//! time spent here is `timeWaitingForFreeConn`, the quantity Eq. 2
//! subtracts out of `execTime`.

use crate::event::InvocationId;
use sg_core::time::SimTime;
use std::collections::VecDeque;

/// Result of an acquire attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// A connection was free; the RPC can be issued immediately.
    Granted,
    /// All connections in use; the caller is queued FIFO and will be
    /// granted on a future release.
    Queued,
}

/// A connection pool for one RPC edge.
#[derive(Debug)]
pub struct ConnPool {
    /// `None` = connection-per-request (unbounded).
    capacity: Option<u32>,
    in_use: u32,
    /// Connections held by a fault injection (leaked: nobody can release
    /// them until the fault clears). Always 0 on unbounded pools.
    leaked: u32,
    waiters: VecDeque<(InvocationId, SimTime)>,
    /// Lifetime statistics: how many acquires had to queue.
    queued_total: u64,
    /// Peak simultaneous connections in use.
    peak_in_use: u32,
}

impl ConnPool {
    /// Pool with the given capacity (`None` = unbounded).
    pub fn new(capacity: Option<u32>) -> Self {
        if let Some(c) = capacity {
            assert!(c > 0, "pool capacity must be positive");
        }
        ConnPool {
            capacity,
            in_use: 0,
            leaked: 0,
            waiters: VecDeque::new(),
            queued_total: 0,
            peak_in_use: 0,
        }
    }

    /// Connections currently held.
    pub fn in_use(&self) -> u32 {
        self.in_use
    }

    /// Invocations queued waiting for a connection.
    pub(crate) fn queue_len(&self) -> usize {
        self.waiters.len()
    }

    /// Lifetime count of acquires that had to queue.
    pub(crate) fn queued_total(&self) -> u64 {
        self.queued_total
    }

    /// Leak `n` connections: they count against capacity but nobody can
    /// release them. Capped at the pool capacity; a no-op on unbounded
    /// pools (connection-per-request callers have nothing to leak).
    pub(crate) fn leak(&mut self, n: u32) {
        if let Some(cap) = self.capacity {
            self.leaked = (self.leaked + n).min(cap);
        }
    }

    /// Reclaim up to `n` leaked connections, handing freed capacity to
    /// FIFO waiters. Returns the granted `(waiter, enqueue_time)` pairs —
    /// each now holds a connection and the caller must issue its RPC.
    pub(crate) fn unleak(&mut self, n: u32) -> Vec<(InvocationId, SimTime)> {
        self.leaked = self.leaked.saturating_sub(n);
        let mut granted = Vec::new();
        if let Some(cap) = self.capacity {
            while self.in_use + self.leaked < cap {
                match self.waiters.pop_front() {
                    Some(w) => {
                        self.in_use += 1;
                        self.peak_in_use = self.peak_in_use.max(self.in_use);
                        granted.push(w);
                    }
                    None => break,
                }
            }
        }
        granted
    }

    /// Attempt to take a connection for `inv` at `now`.
    pub fn acquire(&mut self, now: SimTime, inv: InvocationId) -> Acquire {
        match self.capacity {
            Some(cap) if self.in_use + self.leaked >= cap => {
                self.waiters.push_back((inv, now));
                self.queued_total += 1;
                Acquire::Queued
            }
            _ => {
                self.in_use += 1;
                self.peak_in_use = self.peak_in_use.max(self.in_use);
                Acquire::Granted
            }
        }
    }

    /// Return a connection. If a waiter is queued, the connection is
    /// handed to it directly (the pool never dips below saturation while
    /// there is demand) and `(waiter, enqueue_time)` is returned so the
    /// caller can account the wait and issue the RPC.
    pub fn release(&mut self) -> Option<(InvocationId, SimTime)> {
        debug_assert!(self.in_use > 0, "release without acquire");
        // A leak can push `in_use + leaked` over capacity (connections
        // granted before the fault stay granted); while over, releases
        // shrink the pool instead of handing to a waiter.
        if let Some(cap) = self.capacity {
            if self.in_use + self.leaked > cap {
                self.in_use -= 1;
                return None;
            }
        }
        match self.waiters.pop_front() {
            Some(w) => {
                // Connection transfers to the waiter: in_use unchanged.
                Some(w)
            }
            None => {
                self.in_use = self.in_use.saturating_sub(1);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn unbounded_pool_always_grants() {
        let mut p = ConnPool::new(None);
        for i in 0..1000 {
            assert_eq!(p.acquire(t(i), i as InvocationId), Acquire::Granted);
        }
        assert_eq!(p.in_use(), 1000);
        assert_eq!(p.queued_total(), 0);
    }

    #[test]
    fn bounded_pool_queues_past_capacity() {
        let mut p = ConnPool::new(Some(2));
        assert_eq!(p.acquire(t(0), 1), Acquire::Granted);
        assert_eq!(p.acquire(t(0), 2), Acquire::Granted);
        assert_eq!(p.acquire(t(1), 3), Acquire::Queued);
        assert_eq!(p.acquire(t(2), 4), Acquire::Queued);
        assert_eq!(p.in_use(), 2);
        assert_eq!(p.queue_len(), 2);
        assert_eq!(p.queued_total(), 2);
    }

    #[test]
    fn release_hands_connection_to_fifo_waiter() {
        let mut p = ConnPool::new(Some(1));
        assert_eq!(p.acquire(t(0), 1), Acquire::Granted);
        assert_eq!(p.acquire(t(5), 2), Acquire::Queued);
        assert_eq!(p.acquire(t(7), 3), Acquire::Queued);
        // FIFO: 2 first, with its enqueue time for wait accounting.
        assert_eq!(p.release(), Some((2, t(5))));
        assert_eq!(p.in_use(), 1, "connection transferred, not freed");
        assert_eq!(p.release(), Some((3, t(7))));
        assert_eq!(p.release(), None);
        assert_eq!(p.in_use(), 0);
    }

    #[test]
    fn conservation_under_churn() {
        // acquires == releases → in_use returns to zero, waiters drained.
        let mut p = ConnPool::new(Some(3));
        let mut granted = 0u32;
        for i in 0..10 {
            if p.acquire(t(i), i as InvocationId) == Acquire::Granted {
                granted += 1;
            }
        }
        assert_eq!(granted, 3);
        // One release per acquire: the first 7 hand the connection to a
        // waiter (in_use stays 3), the last 3 actually free it.
        let mut handed = 0;
        for i in 0..10 {
            match p.release() {
                Some(_) => {
                    handed += 1;
                    assert_eq!(p.in_use(), 3);
                }
                None => assert_eq!(p.in_use(), 3 - (i - 7) - 1),
            }
        }
        assert_eq!(handed, 7);
        assert_eq!(p.in_use(), 0);
        assert_eq!(p.queue_len(), 0);
    }

    #[test]
    fn peak_tracking() {
        let mut p = ConnPool::new(Some(8));
        for i in 0..5 {
            p.acquire(t(0), i);
        }
        p.release();
        p.release();
        assert_eq!(p.in_use(), 3);
        assert_eq!(p.peak_in_use, 5);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = ConnPool::new(Some(0));
    }

    #[test]
    fn leaked_connections_shrink_capacity() {
        let mut p = ConnPool::new(Some(4));
        p.leak(2);
        assert_eq!(p.acquire(t(0), 1), Acquire::Granted);
        assert_eq!(p.acquire(t(0), 2), Acquire::Granted);
        assert_eq!(p.acquire(t(1), 3), Acquire::Queued, "leak shrank the pool");
        // Reclaiming hands the freed connection straight to the waiter.
        let granted = p.unleak(2);
        assert_eq!(granted, vec![(3, t(1))]);
        assert_eq!(p.in_use(), 3);
        assert_eq!(p.leaked, 0);
        assert_eq!(p.acquire(t(2), 4), Acquire::Granted, "full capacity back");
    }

    #[test]
    fn leak_with_pool_saturated_drains_via_releases() {
        let mut p = ConnPool::new(Some(2));
        assert_eq!(p.acquire(t(0), 1), Acquire::Granted);
        assert_eq!(p.acquire(t(0), 2), Acquire::Granted);
        p.leak(1);
        assert_eq!(p.acquire(t(1), 3), Acquire::Queued);
        // Over effective capacity: the first release shrinks the pool
        // (the waiter must not be granted a connection the leak holds).
        assert_eq!(p.release(), None);
        assert_eq!(p.in_use(), 1);
        assert_eq!(p.queue_len(), 1);
        // Back at effective capacity: the next release hands off FIFO.
        assert_eq!(p.release(), Some((3, t(1))));
    }

    #[test]
    fn leak_is_inert_on_unbounded_pools() {
        let mut p = ConnPool::new(None);
        p.leak(100);
        assert_eq!(p.leaked, 0);
        assert_eq!(p.acquire(t(0), 1), Acquire::Granted);
        assert!(p.unleak(100).is_empty());
    }

    #[test]
    fn leak_saturates_at_capacity() {
        let mut p = ConnPool::new(Some(3));
        p.leak(10);
        assert_eq!(p.leaked, 3);
        assert_eq!(p.acquire(t(0), 1), Acquire::Queued, "fully leaked");
        let granted = p.unleak(10);
        assert_eq!(granted, vec![(1, t(0))]);
    }
}
