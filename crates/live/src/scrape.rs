//! Prometheus-style live scrape endpoint.
//!
//! When `sg-loadtest --backend live --metrics-listen ADDR` is given, the
//! run keeps a [`MetricsRegistry`] updated off the hot path (the ring
//! drainer tees samples into it) and serves its current state as
//! text-exposition-format over a minimal blocking HTTP listener — no
//! framework, std only. One accept thread, one request per connection,
//! `Connection: close`: a scrape every few seconds costs microseconds
//! and never touches a worker thread.
//!
//! Two routes:
//!
//! * `/metrics` — the registry's gauges plus pipeline-health counters
//!   (`sg_ring_dropped_total` per event family, `sg_fault_events_total`,
//!   `sg_uptime_seconds`), the live profiler's `sg_profile_*` series
//!   when the run is profiled, and the `sg_slo_*` series (per-node
//!   request/violation totals, cluster burn rates, error budget,
//!   alerts) when the aggregation layer is on.
//! * `/healthz` — plain-text liveness: `200 ok` with an uptime/drop
//!   summary, so orchestration probes don't need a Prometheus parser.
//!
//! Anything else is 404. This endpoint is live-only by design: the
//! simulator has no wall-clock for an external scraper to exist in.

use sg_telemetry::profile::LiveProfiler;
use sg_telemetry::{AggRuntime, EventFamily, MetricsRegistry, RingSink};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Runtime-health inputs served alongside the registry: uptime, ring
/// drop pressure, fault-boundary count, and (when profiling) the live
/// profiler snapshot.
pub(crate) struct ScrapeHealth {
    /// When the run started (uptime reference).
    pub started: Instant,
    /// The telemetry relay ring, for drop counters (None on trace-less
    /// runs — the drop series then reads zero).
    pub ring: Option<Arc<RingSink>>,
    /// Fault boundaries (starts + ends) applied so far.
    pub fault_events: Arc<AtomicU64>,
    /// Live self-profiler, for the `sg_profile_*` series.
    pub profiler: Option<Arc<LiveProfiler>>,
    /// Mergeable aggregation layer, for the `sg_slo_*` series (per-node
    /// request/violation counters, cluster burn rates, budget, alerts).
    pub agg: Option<Arc<AggRuntime>>,
}

impl Default for ScrapeHealth {
    fn default() -> Self {
        ScrapeHealth {
            started: Instant::now(),
            ring: None,
            fault_events: Arc::new(AtomicU64::new(0)),
            profiler: None,
            agg: None,
        }
    }
}

impl ScrapeHealth {
    fn ring_dropped_total(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.dropped())
    }
}

/// A running scrape listener.
pub(crate) struct MetricsServer {
    local_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9184`, or port 0 for ephemeral) and
    /// serve `registry` + `health` until [`MetricsServer::shutdown`].
    pub(crate) fn bind(
        addr: &str,
        registry: Arc<MetricsRegistry>,
        health: ScrapeHealth,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Non-blocking accept + sleep poll: lets the thread notice the
        // stop flag without platform-specific listener shutdown tricks.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("sg-metrics-http".into())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        match listener.accept() {
                            Ok((stream, _)) => serve_one(stream, &registry, &health),
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(25));
                            }
                            Err(_) => std::thread::sleep(Duration::from_millis(25)),
                        }
                    }
                })
                .expect("spawn scrape listener")
        };
        Ok(MetricsServer {
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub(crate) fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Stop accepting and join the listener thread.
    pub(crate) fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Request path from an HTTP request head (`GET /metrics HTTP/1.1`),
/// query string stripped; `/` when unparseable (legacy scrapers).
fn request_path(head: &str) -> &str {
    let path = head
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    path.split('?').next().unwrap_or("/")
}

fn metrics_body(registry: &MetricsRegistry, health: &ScrapeHealth) -> String {
    let mut body = registry.render_prometheus();
    let _ = writeln!(body, "# TYPE sg_uptime_seconds counter");
    let _ = writeln!(
        body,
        "sg_uptime_seconds {:.3}",
        health.started.elapsed().as_secs_f64()
    );
    let _ = writeln!(body, "# TYPE sg_ring_dropped_total counter");
    for family in [
        EventFamily::Decision,
        EventFamily::Span,
        EventFamily::Metrics,
        EventFamily::Profile,
    ] {
        let dropped = health.ring.as_ref().map_or(0, |r| r.dropped_for(family));
        let _ = writeln!(
            body,
            "sg_ring_dropped_total{{family=\"{}\"}} {dropped}",
            family.name()
        );
    }
    let _ = writeln!(body, "# TYPE sg_fault_events_total counter");
    let _ = writeln!(
        body,
        "sg_fault_events_total {}",
        health.fault_events.load(Ordering::Relaxed)
    );
    if let Some(profiler) = &health.profiler {
        profiler.render_prometheus_into(&mut body);
    }
    if let Some(agg) = &health.agg {
        agg.render_prometheus_into(&mut body);
    }
    body
}

fn healthz_body(health: &ScrapeHealth) -> String {
    format!(
        "ok\nuptime_seconds {:.3}\nring_dropped {}\nfault_events {}\n",
        health.started.elapsed().as_secs_f64(),
        health.ring_dropped_total(),
        health.fault_events.load(Ordering::Relaxed),
    )
}

/// Answer one scrape: read the request head, route on its path.
fn serve_one(mut stream: std::net::TcpStream, registry: &MetricsRegistry, health: &ScrapeHealth) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    // One buffer of request head is plenty for a scraper's GET line.
    let mut buf = [0u8; 2048];
    let n = stream.read(&mut buf).unwrap_or(0);
    let head = String::from_utf8_lossy(&buf[..n]);
    let (status, body) = match request_path(&head) {
        "/metrics" | "/" => ("200 OK", metrics_body(registry, health)),
        "/healthz" => ("200 OK", healthz_body(health)),
        _ => ("404 Not Found", "not found\n".to_string()),
    };
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_core::ids::{ContainerId, NodeId};
    use sg_core::time::SimTime;
    use sg_telemetry::{MetricId, MetricSample};

    fn get(addr: std::net::SocketAddr, path: &str) -> String {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn serves_registry_snapshot_over_http() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.record(&MetricSample {
            at: SimTime::from_millis(100),
            node: NodeId(0),
            container: ContainerId(2),
            metric: MetricId::Cores,
            value: 6.0,
        });
        let health = ScrapeHealth::default();
        health.fault_events.store(3, Ordering::Relaxed);
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&registry), health).unwrap();
        let addr = server.local_addr();

        let response = get(addr, "/metrics");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("text/plain"), "{response}");
        assert!(
            response.contains("sg_cores{node=\"0\",container=\"2\"} 6"),
            "{response}"
        );
        assert!(
            response.contains("sg_ring_dropped_total{family=\"decision\"} 0"),
            "{response}"
        );
        assert!(response.contains("sg_fault_events_total 3"), "{response}");
        assert!(response.contains("sg_uptime_seconds"), "{response}");
        server.shutdown();
    }

    #[test]
    fn healthz_and_unknown_paths_route_correctly() {
        let registry = Arc::new(MetricsRegistry::new());
        let server = MetricsServer::bind("127.0.0.1:0", registry, ScrapeHealth::default()).unwrap();
        let addr = server.local_addr();

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.contains("ok\nuptime_seconds"), "{health}");
        assert!(health.contains("ring_dropped 0"), "{health}");
        assert!(health.contains("fault_events 0"), "{health}");

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        server.shutdown();
    }

    #[test]
    fn profiled_scrape_exposes_sg_profile_series() {
        use sg_telemetry::profile::ProfilePhase;
        let registry = Arc::new(MetricsRegistry::new());
        let profiler = Arc::new(LiveProfiler::new());
        profiler.record(ProfilePhase::FrHook, 250);
        let health = ScrapeHealth {
            profiler: Some(Arc::clone(&profiler)),
            ..ScrapeHealth::default()
        };
        let server = MetricsServer::bind("127.0.0.1:0", registry, health).unwrap();
        let response = get(server.local_addr(), "/metrics");
        assert!(
            response.contains("sg_profile_phase_count{phase=\"fr_hook\"} 1"),
            "{response}"
        );
        server.shutdown();
    }
}
