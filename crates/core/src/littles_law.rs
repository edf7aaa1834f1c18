//! Threadpool sizing via Little's Law (paper Eq. 1).
//!
//! RPC frameworks recommend provisioning a fixed connection pool as
//! `ThPoolSize = DesiredReqRate × DownstreamLatency`: the average number of
//! in-flight downstream requests at the target rate. Undersizing creates
//! exactly the hidden queueing SurgeGuard's `queueBuildup` metric detects;
//! the workloads crate uses this helper to size its Thrift-style pools.

use crate::time::SimDuration;

/// Pool size needed to sustain `req_rate` requests/second when each
/// downstream call holds a connection for `downstream_latency`
/// (Eq. 1, rounded up; at least 1).
pub fn threadpool_size(req_rate: f64, downstream_latency: SimDuration) -> u32 {
    assert!(
        req_rate.is_finite() && req_rate >= 0.0,
        "request rate must be non-negative"
    );
    let in_flight = req_rate * downstream_latency.as_secs_f64();
    (in_flight.ceil() as u32).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_sizing() {
        // 1000 rps × 10ms = 10 in-flight connections.
        assert_eq!(threadpool_size(1000.0, SimDuration::from_millis(10)), 10);
    }

    #[test]
    fn rounds_up_and_floors_at_one() {
        assert_eq!(threadpool_size(150.0, SimDuration::from_millis(10)), 2);
        assert_eq!(threadpool_size(1.0, SimDuration::from_micros(1)), 1);
        assert_eq!(threadpool_size(0.0, SimDuration::from_secs(1)), 1);
    }

    #[test]
    fn table3_pool_at_its_rate() {
        // 512 connections each held 5 ms carry exactly 102 400 req/s.
        assert_eq!(threadpool_size(102_400.0, SimDuration::from_millis(5)), 512);
    }
}
