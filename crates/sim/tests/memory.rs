//! What a run holds on the heap: the completion log, and a small,
//! bounded working set beside it. The allocator's counters are
//! process-wide, so this file holds one test.

use sg_core::ids::{NodeId, ServiceId};
use sg_core::time::{SimDuration, SimTime};
use sg_core::violation::LatencyPoint;
use sg_loadgen::{ArrivalProfile, SpikePattern};
use sg_sim::app::{CallMode, ConnModel, EdgeSpec, ServiceSpec, TaskGraph};
use sg_sim::cluster::{Placement, SimConfig};
use sg_sim::controller::NoopFactory;
use sg_sim::runner::Simulation;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the bytes live now and the most live
/// since the last [`reset_peak`].
struct Counting;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = CURRENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// keeps the `GlobalAlloc` contract, and returns what `System` returned;
// the counters only read the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                CURRENT.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Live bytes now; the peak restarts from here.
fn reset_peak() -> usize {
    let now = CURRENT.load(Ordering::Relaxed);
    PEAK.store(now, Ordering::Relaxed);
    now
}

/// A two-node gateway fan-out (one of 50 backends per request) under a
/// constant 50 000 req/s for 2 s: 100 000 requests, streamed.
fn cluster() -> Simulation {
    let backends = 50u32;
    let mut services = vec![ServiceSpec {
        name: "gateway".into(),
        work_mean: SimDuration::from_micros(5),
        work_cv: 0.0,
        pre_fraction: 0.5,
        children: (1..=backends)
            .map(|i| EdgeSpec {
                child: ServiceId(i),
                conn: ConnModel::PerRequest,
            })
            .collect(),
        call_mode: CallMode::OneOf,
    }];
    services.extend((0..backends).map(|b| ServiceSpec {
        name: format!("backend-{b}"),
        work_mean: SimDuration::from_micros(200),
        work_cv: 0.5,
        pre_fraction: 1.0,
        children: Vec::new(),
        call_mode: CallMode::Sequential,
    }));
    let graph = TaskGraph {
        name: "memory".into(),
        services,
    };
    let node_of = std::iter::once(NodeId(0))
        .chain((0..backends).map(|b| NodeId(b % 2)))
        .collect();
    let horizon = SimTime::from_secs(2);
    let mut cfg = SimConfig::new(graph, Placement { node_of, nodes: 2 });
    cfg.end = horizon + SimDuration::from_millis(100);
    cfg.measure_start = SimTime::ZERO;
    cfg.seed = 3;
    let arrivals =
        ArrivalProfile::Spike(SpikePattern::constant(50_000.0)).stream(SimTime::ZERO, horizon);
    Simulation::new_streaming(cfg, &NoopFactory, Box::new(arrivals))
}

/// The only thing a run keeps per request is its completion point, and
/// it keeps the log in completion order as it writes it, so the run's
/// peak heap above its start is the log plus a working set sized by
/// what is in flight (at most 25 requests at once here), not by how many
/// requests ran. `WORKING_SET` bounds that working set:
/// - the event queue: its 6 × 64 wheel slots keep the capacity they grew
///   to. A 2 s run turns the lowest three levels (192 slots) and a few
///   slots above; each has room for 4 entries of 48 B (a 16 B key and a
///   32 B event): 192 × 4 × 48 B = 36 KiB, plus what a slot held beyond
///   that at once (a few events per request in flight): under 8 KiB;
/// - the invocation table and its free list: two invocations per request
///   in flight, under 200 B each: under 16 KiB with `Vec` doubling;
/// - a decision cycle's snapshot: one window per container, 51
///   containers: under 16 KiB.
///
/// That is under 76 KiB; the bound is 128 KiB. A stable sort of the log
/// at the end of the run would add a scratch of `n × 16 B`, 1.6 MB here.
#[test]
fn a_run_holds_its_completion_log_and_a_bounded_working_set() {
    const WORKING_SET: usize = 128 << 10;
    let sim = cluster();
    let start = reset_peak();
    let result = sim.run();
    let peak = PEAK.load(Ordering::Relaxed) - start;
    let log = result.points.capacity() * std::mem::size_of::<LatencyPoint>();
    assert_eq!(result.points.len(), 100_000, "every request completes");
    assert!(result.peak_in_flight <= 25, "{}", result.peak_in_flight);
    assert!(
        peak <= log + WORKING_SET,
        "peak {peak} B above the start: the log is {log} B, the rest {} B",
        peak - log
    );
}
