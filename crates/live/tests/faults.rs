//! Fault-injection backend conformance (this PR's tentpole): each of the
//! five fault classes must degrade service the **same direction** on the
//! discrete-event simulator and on the wall-clock live backend. The
//! comparison is always "identical scenario with vs without the fault"
//! on the *same* substrate, so real scheduler jitter on the live side
//! cannot mask the directional contract.
//!
//! Every test injects one fault over `[100 ms, 250 ms)` of a 400 ms run:
//! enough clean runway before the window to establish the baseline
//! behaviour and enough after it to observe recovery draining the
//! backlog into the recorded completions.

use sg_controllers::SurgeGuardFactory;
use sg_core::fault::{FaultKind, FaultPlan, FaultSpec};
use sg_core::ids::{ContainerId, NodeId, ServiceId};
use sg_core::time::{SimDuration, SimTime};
use sg_live::conformance::{
    assert_fault_degrades, mean_latency, run_backend, run_backend_with_opts, two_node_cfg,
    two_stage_cfg, upstream_conn_wait, Backend,
};
use sg_live::LiveOpts;
use sg_sim::app::ConnModel;
use sg_sim::controller::{
    ControlAction, Controller, ControllerFactory, NodeInit, NodeSnapshot, NoopFactory,
};
use sg_sim::profile::constant_arrivals;

/// One fault over `[100 ms, 250 ms)`.
fn one_fault(kind: FaultKind) -> FaultPlan {
    FaultPlan {
        faults: vec![FaultSpec {
            at: SimTime::from_millis(100),
            duration: SimDuration::from_millis(150),
            kind,
        }],
    }
}

/// Container crash: the downstream service freezes for the fault window,
/// so requests stall behind it and drain late after the restart. Runs
/// under the full SurgeGuard stack so the restart notice also exercises
/// the sensitivity-reset re-profiling path on both substrates.
#[test]
fn container_crash_degrades_on_both_backends() {
    let end = SimTime::from_millis(400);
    for backend in Backend::both() {
        let arrivals = constant_arrivals(500.0, SimTime::ZERO, end);
        let (clean, _) = run_backend(
            backend,
            two_stage_cfg(ConnModel::PerRequest, end),
            &SurgeGuardFactory::full(),
            arrivals.clone(),
        );
        let mut cfg = two_stage_cfg(ConnModel::PerRequest, end);
        cfg.faults = one_fault(FaultKind::ContainerCrash {
            service: ServiceId(1),
        });
        let (faulted, _) = run_backend(backend, cfg, &SurgeGuardFactory::full(), arrivals);
        assert_fault_degrades(backend, &clean, &faulted, "crash");
    }
}

/// Node loss: every container on node 1 (services 1 and 3 of the
/// four-stage cross-node chain) freezes together, stalling the whole
/// chain for the window.
#[test]
fn node_loss_degrades_on_both_backends() {
    let end = SimTime::from_millis(400);
    for backend in Backend::both() {
        let arrivals = constant_arrivals(300.0, SimTime::ZERO, end);
        let (clean, _) = run_backend(backend, two_node_cfg(end), &NoopFactory, arrivals.clone());
        let mut cfg = two_node_cfg(end);
        cfg.faults = one_fault(FaultKind::NodeLoss { node: NodeId(1) });
        let (faulted, _) = run_backend(backend, cfg, &NoopFactory, arrivals);
        assert_fault_degrades(backend, &clean, &faulted, "node-loss");
    }
}

/// Pool leak: leaking both connections of the parent→child `FixedPool(2)`
/// edge makes its effective capacity zero for the window, so the §III-B
/// hidden-queue signal — parent `execTime` inflating past `execMetric` —
/// must appear on both substrates, not just end-to-end latency.
#[test]
fn pool_leak_inflates_upstream_wait_on_both_backends() {
    let end = SimTime::from_millis(400);
    for backend in Backend::both() {
        // Parents hold their worker thread through the connection wait on
        // the live side; size the pool so the blocked window cannot starve
        // the service of workers entirely.
        let opts = LiveOpts {
            workers_per_container: 32,
            ..LiveOpts::default()
        };
        let arrivals = constant_arrivals(400.0, SimTime::ZERO, end);
        let (clean, _) = run_backend_with_opts(
            backend,
            two_stage_cfg(ConnModel::FixedPool(2), end),
            &NoopFactory,
            arrivals.clone(),
            opts.clone(),
        );
        let mut cfg = two_stage_cfg(ConnModel::FixedPool(2), end);
        cfg.faults = one_fault(FaultKind::PoolLeak {
            service: ServiceId(1),
            connections: 2,
        });
        let (faulted, _) = run_backend_with_opts(backend, cfg, &NoopFactory, arrivals, opts);
        assert_fault_degrades(backend, &clean, &faulted, "pool-leak");
        let wait_clean = upstream_conn_wait(&clean);
        let wait_faulted = upstream_conn_wait(&faulted);
        assert!(
            wait_faulted > wait_clean,
            "[{}] pool leak did not inflate upstream connection wait: clean {wait_clean} vs \
             faulted {wait_faulted}",
            backend.label()
        );
    }
}

/// Network jitter: 2 ms of extra one-way latency on remote hops. The
/// four-stage chain crosses nodes on every edge, so every in-window
/// request pays the surcharge several times over.
#[test]
fn network_jitter_degrades_on_both_backends() {
    let end = SimTime::from_millis(400);
    for backend in Backend::both() {
        let arrivals = constant_arrivals(300.0, SimTime::ZERO, end);
        let (clean, _) = run_backend(backend, two_node_cfg(end), &NoopFactory, arrivals.clone());
        let mut cfg = two_node_cfg(end);
        cfg.faults = one_fault(FaultKind::NetworkJitter {
            extra: SimDuration::from_millis(2),
        });
        let (faulted, _) = run_backend(backend, cfg, &NoopFactory, arrivals);
        assert_fault_degrades(backend, &clean, &faulted, "jitter");
    }
}

/// Straggler: one replica of the two-replica downstream group runs 50×
/// slow for the window. The per-edge balancer still sends it a share of
/// traffic (power-of-two-choices picks the same candidate twice a
/// quarter of the time), so those requests crawl and the mean degrades
/// — but the service as a whole keeps completing through the healthy
/// peer.
#[test]
fn straggler_replica_degrades_on_both_backends() {
    let end = SimTime::from_millis(400);
    for backend in Backend::both() {
        let arrivals = constant_arrivals(500.0, SimTime::ZERO, end);
        let mut base = two_stage_cfg(ConnModel::PerRequest, end);
        base.max_replicas = 2;
        base.initial_replicas = vec![1, 2];
        let (clean, _) = run_backend(backend, base.clone(), &NoopFactory, arrivals.clone());
        let mut cfg = base;
        cfg.faults = one_fault(FaultKind::Straggler {
            service: ServiceId(1),
            replica: 1,
            slowdown: 50.0,
        });
        let (faulted, _) = run_backend(backend, cfg, &NoopFactory, arrivals);
        assert_fault_degrades(backend, &clean, &faulted, "straggler");
    }
}

/// Emits `SetReplicas` for the straggling group at scripted times; its
/// own factory (every node gets a copy, only the owner's lands).
#[derive(Clone)]
struct ReplicaScript(Vec<(SimTime, u32)>);

impl Controller for ReplicaScript {
    fn name(&self) -> &'static str {
        "replica-script"
    }
    fn tick_interval(&self) -> SimDuration {
        SimDuration::from_millis(10)
    }
    fn on_tick(&mut self, now: SimTime, _s: &NodeSnapshot) -> Vec<ControlAction> {
        let due = self.0.iter().take_while(|(at, _)| *at <= now).count();
        let id = ContainerId(1);
        self.0
            .drain(..due)
            .map(|(_, replicas)| ControlAction::SetReplicas { id, replicas })
            .collect()
    }
}

impl ControllerFactory for ReplicaScript {
    fn name(&self) -> &'static str {
        "replica-script"
    }
    fn make(&self, _init: NodeInit) -> Box<dyn Controller> {
        Box::new(self.clone())
    }
}

/// A straggler window must not outlive the replica it hit: replica 1 is
/// scaled in (idle, so it retires at once) while its window is open and
/// scaled back out after the window closed, and must then serve at full
/// speed. Traffic only starts after the respawn, so every request sees
/// the respawned replica; the run must look like the same scale-in/out
/// without the fault.
///
/// Signal and noise, per substrate. The signal is what a respawned
/// replica left at 1/50 speed does; the noise is what eight correct runs
/// did with two CPU hogs beside the test on a 2-vCPU host:
/// - *Live:* a gate left at 1/50 earns tokens too slowly to ever admit
///   a request, so the symptom is lost completions: 30 of 1 000 complete
///   (97 % lost), against 1 000 of 1 000 in every correct run. The mean
///   latency of what does complete reads 0.98× the clean mean, but its
///   wall-clock noise at this load stays under the 2× bound: 0.80–1.37×.
/// - *Sim:* every request completes, slowly: the mean reads 9.5× the
///   clean mean at this load. The simulator is deterministic, so its
///   noise is nil.
#[test]
fn straggler_speed_does_not_outlive_a_retired_replica_on_both_backends() {
    // 1 000 requests over [320 ms, 1 320 ms), 200 ms to drain.
    let (start, stop) = (SimTime::from_millis(320), SimTime::from_millis(1_320));
    let end = SimTime::from_millis(1_520);
    let script = || {
        ReplicaScript(vec![
            (SimTime::from_millis(120), 1),
            (SimTime::from_millis(300), 2),
        ])
    };
    let mut failures = Vec::new();
    for backend in Backend::both() {
        let mut arrivals = constant_arrivals(1_000.0, SimTime::ZERO, stop);
        arrivals.retain(|&t| t >= start);
        let mut base = two_stage_cfg(ConnModel::PerRequest, end);
        base.max_replicas = 2;
        base.initial_replicas = vec![1, 2];
        let (clean, _) = run_backend(backend, base.clone(), &script(), arrivals.clone());
        let mut cfg = base;
        cfg.faults = one_fault(FaultKind::Straggler {
            service: ServiceId(1),
            replica: 1,
            slowdown: 50.0,
        });
        let (faulted, _) = run_backend(backend, cfg, &script(), arrivals);
        let label = backend.label();
        assert!(clean.completed > 900, "[{label}] scenario too thin");
        if faulted.completed * 10 < clean.completed * 9 {
            failures.push(format!(
                "[{label}] respawned replica lost requests: {} completed vs {} without the fault",
                faulted.completed, clean.completed
            ));
        }
        let (clean_mean, faulted_mean) = (mean_latency(&clean), mean_latency(&faulted));
        if faulted_mean >= clean_mean * 2 {
            failures.push(format!(
                "[{label}] respawned replica still runs slow: mean {faulted_mean} vs \
                 {clean_mean} without the fault"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("; "));
}
