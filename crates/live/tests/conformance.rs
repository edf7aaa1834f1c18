//! Backend-conformance suite (ISSUE tentpole acceptance): the same
//! directional assertions must hold on the discrete-event simulator and
//! on the wall-clock live backend. Absolute latencies differ between the
//! substrates — these checks are about *behaviour*: where queueing shows
//! up, whether the fast path fires, whether boosts converge back down.

use sg_controllers::SurgeGuardFactory;
use sg_core::ids::ContainerId;
use sg_core::time::{SimDuration, SimTime};
use sg_live::conformance::{
    assert_boost_retires, assert_cross_node_control_rejected, assert_first_responder_reacted,
    assert_pool_exhaustion_queues_upstream, assert_scale_out_drains_upstream_pool,
    assert_span_tree_conformance, run_backend, run_backend_with_agg, run_backend_with_opts,
    run_backend_with_spans, surge_arrivals, two_node_cfg, two_stage_cfg, Backend,
    CrossNodeMeddlerFactory, ScaleOutOnceFactory,
};
use sg_sim::app::ConnModel;
use sg_sim::controller::NoopFactory;
use sg_sim::profile::constant_arrivals;
use sg_telemetry::{LossClass, SpanReport, SpanSampler, TelemetryEvent};

/// With a `FixedPool(1)` parent→child edge under steady load, connection
/// wait shows up *upstream* (the parent's `execTime` inflates past its
/// `execMetric`); with connection-per-request edges it does not. This is
/// the paper's §III-B observation and must hold on both substrates.
#[test]
fn pool_exhaustion_queues_upstream_on_both_backends() {
    let end = SimTime::from_millis(400);
    for backend in Backend::both() {
        let arrivals = constant_arrivals(4000.0, SimTime::ZERO, end);
        let (fixed, _) = run_backend(
            backend,
            two_stage_cfg(ConnModel::FixedPool(1), end),
            &NoopFactory,
            arrivals.clone(),
        );
        let (per_request, _) = run_backend(
            backend,
            two_stage_cfg(ConnModel::PerRequest, end),
            &NoopFactory,
            arrivals,
        );
        assert_pool_exhaustion_queues_upstream(backend, &fixed, &per_request);
    }
}

/// A 20× surge saturates the two-stage chain; SurgeGuard's FirstResponder
/// must react on the per-packet rx-hook path (not just the tick) on both
/// substrates.
#[test]
fn first_responder_reacts_on_both_backends() {
    let end = SimTime::from_millis(400);
    for backend in Backend::both() {
        let cfg = two_stage_cfg(ConnModel::PerRequest, end);
        let (result, stats) = run_backend(
            backend,
            cfg,
            &SurgeGuardFactory::full(),
            surge_arrivals(400.0, end),
        );
        assert_first_responder_reacted(backend, &result);
        if let Some(stats) = stats {
            assert_eq!(
                stats.fr_dropped, 0,
                "[live] FirstResponder SPSC queue overflowed"
            );
            assert!(
                stats.fr_applied > 0,
                "[live] no frequency update reached the apply worker"
            );
        }
    }
}

/// Decentralization contract (this PR's ownership bugfix): a controller
/// emitting cross-node `SetFreq`, `SetEgressHint` and `SetReplicas` must
/// see every one of them rejected and counted in `clamped_actions`,
/// identically on both substrates — and the rejected boosts must never
/// reach the packet-boost counter or the victim's allocation.
/// `max_replicas` is raised above 1 so the requested replica count is
/// in-range and locality is the *only* reason the scale-out is refused.
#[test]
fn cross_node_freq_and_hint_rejected_on_both_backends() {
    use std::sync::atomic::Ordering;
    let end = SimTime::from_millis(400);
    for backend in Backend::both() {
        let mut cfg = two_node_cfg(end);
        cfg.max_replicas = 2;
        cfg.trace_allocations = true;
        let factory = CrossNodeMeddlerFactory::new();
        let (result, _) = run_backend(
            backend,
            cfg,
            &factory,
            constant_arrivals(200.0, SimTime::ZERO, end),
        );
        assert!(
            result.completed > 0,
            "[{}] two-node scenario completed no requests",
            backend.label()
        );
        let emitted = factory.emitted.load(Ordering::Relaxed);
        assert_cross_node_control_rejected(backend, &result, emitted);
    }
}

/// SetReplicas conformance (this PR's tentpole): scaling the downstream
/// group out adds a second connection pool behind the per-edge load
/// balancer, so the upstream pool queue drains — the parent's connection
/// wait under a saturated `FixedPool(1)` edge must strictly shrink
/// versus the identical single-replica run. On BOTH substrates.
#[test]
fn scale_out_drains_upstream_pool_on_both_backends() {
    let end = SimTime::from_millis(400);
    for backend in Backend::both() {
        // The Fig. 5b operating point: both services have slack cores, the
        // child's work is stretched so the single shared connection sits
        // at ~0.9 occupancy (the live backend runs at a lower rate to land
        // the same occupancy despite sleep overshoot — the contract is
        // behavioural, not absolute-latency).
        let rate = match backend {
            Backend::Sim => 1400.0,
            Backend::Live => 950.0,
        };
        let mut cfg = two_stage_cfg(ConnModel::FixedPool(1), end);
        cfg.initial_cores = vec![4, 4];
        cfg.graph.services[1].work_mean = SimDuration::from_micros(600);
        cfg.max_replicas = 2;
        let opts = || sg_live::LiveOpts {
            // Parents hold a worker thread for the whole pool wait.
            workers_per_container: 32,
            ..sg_live::LiveOpts::default()
        };
        let arrivals = constant_arrivals(rate, SimTime::ZERO, end);
        let (single, _) =
            run_backend_with_opts(backend, cfg.clone(), &NoopFactory, arrivals.clone(), opts());
        let (scaled, _) = run_backend_with_opts(
            backend,
            cfg,
            &ScaleOutOnceFactory {
                target: ContainerId(1),
                replicas: 2,
            },
            arrivals,
            opts(),
        );
        let label = backend.label();
        assert!(
            scaled.completed > 0,
            "[{label}] scale-out scenario completed no requests"
        );
        assert_scale_out_drains_upstream_pool(backend, &single, &scaled);
    }
}

/// After the surge passes, the Escalator substitutes cores for the
/// emergency frequency boost: every container that was boosted must end
/// the run back at base frequency, on both substrates.
#[test]
fn boosts_retire_after_surge_on_both_backends() {
    // Traffic stops at 400 ms but the run continues to 800 ms: the quiet
    // tail guarantees several Escalator ticks with a healthy window, so
    // retirement cannot be raced by a tail-latency re-boost right at the
    // end of the run.
    let end = SimTime::from_millis(800);
    let traffic_end = SimTime::from_millis(400);
    for backend in Backend::both() {
        let mut cfg = two_stage_cfg(ConnModel::PerRequest, end);
        cfg.trace_allocations = true;
        let base_ghz = cfg.freq_table.ghz(0);
        let (result, _) = run_backend(
            backend,
            cfg,
            &SurgeGuardFactory::full(),
            surge_arrivals(400.0, traffic_end),
        );
        assert!(
            result.completed > 0,
            "[{}] surge scenario completed no requests",
            backend.label()
        );
        assert_boost_retires(backend, &result, base_ghz);
    }
}

/// Span-tree conformance (tentpole): on both substrates, every traced
/// request's synthetic root span carries exactly the `(completion,
/// latency)` pair of its `LatencyPoint`, each trace has one root, and
/// child spans nest inside their parents.
#[test]
fn span_trees_conform_on_both_backends() {
    let end = SimTime::from_millis(400);
    for backend in Backend::both() {
        let cfg = two_stage_cfg(ConnModel::PerRequest, end);
        let (result, records) = run_backend_with_spans(
            backend,
            cfg,
            &SurgeGuardFactory::full(),
            surge_arrivals(400.0, end),
            SpanSampler::all(),
            sg_live::LiveOpts::default(),
        );
        assert!(
            result.completed > 0,
            "[{}] span scenario completed no requests",
            backend.label()
        );
        assert_span_tree_conformance(backend, &result, &records);
    }
}

/// Fig. 5b inversion (ISSUE acceptance): with a `FixedPool(1)` edge under
/// steady overload, the wait surfaces in the *parent's* execTime, but the
/// critical-path analyzer must attribute the loss to the *downstream*
/// container's pool-queue class — the inversion the paper's Fig. 5b
/// shows — and that class must carry the majority of the violation loss.
/// On BOTH substrates.
#[test]
fn threadpool_surge_attributes_downstream_pool_queue_on_both_backends() {
    let end = SimTime::from_millis(400);
    let qos = SimDuration::from_micros(1800);
    for backend in Backend::both() {
        // Give both services slack cores so processor-sharing stretch is
        // negligible and the single shared connection is the only
        // congested resource: with the child's work stretched to 600 us
        // the connection is held ~630 us per RPC on the simulator, so
        // 1400 req/s puts it at ~0.88 occupancy (millisecond queue
        // waits) while neither container's CPU exceeds ~0.25 — violator
        // overshoot is dominated by pool-queue wait, not service time.
        // The wall-clock substrate holds the connection longer (each
        // 500 us work chunk and each network hop is a `thread::sleep`
        // that overshoots by tens of microseconds), so the live rate is
        // lowered to land the *same* ~0.9 occupancy operating point —
        // the conformance contract is behavioural, not absolute-latency.
        let rate = match backend {
            Backend::Sim => 1400.0,
            Backend::Live => 950.0,
        };
        let mut cfg = two_stage_cfg(ConnModel::FixedPool(1), end);
        cfg.initial_cores = vec![4, 4];
        cfg.graph.services[1].work_mean = SimDuration::from_micros(600);
        let opts = sg_live::LiveOpts {
            // Parents hold a worker thread for the whole pool wait;
            // size the pool of threads so the job queue never backs up.
            workers_per_container: 32,
            ..sg_live::LiveOpts::default()
        };
        let (result, records) = run_backend_with_spans(
            backend,
            cfg,
            &NoopFactory,
            constant_arrivals(rate, SimTime::ZERO, end),
            SpanSampler::all(),
            opts,
        );
        let label = backend.label();
        assert!(result.completed > 0, "[{label}] no requests completed");
        let report = SpanReport::from_records(&records, Some(qos));
        assert!(
            report.violations > 0,
            "[{label}] overload produced no QoS violations to attribute"
        );
        let ((container, class), attr) = report
            .dominant()
            .unwrap_or_else(|| panic!("[{label}] no attribution recorded"));
        assert_eq!(
            (container, class),
            (1, LossClass::PoolQueue),
            "[{label}] dominant loss must be the downstream container's pool queue, got \
             container {container} class {class:?}"
        );
        assert!(
            attr.loss_ns * 2 > report.total_loss_ns(),
            "[{label}] pool-queue class must carry the majority of violation loss: {} of {}",
            attr.loss_ns,
            report.total_loss_ns()
        );
    }
}

/// Deterministic sampling (satellite): the same seed and workload must
/// produce byte-identical span output on the simulator.
#[test]
fn sim_span_output_is_byte_identical_across_runs() {
    let end = SimTime::from_millis(300);
    let run = || {
        let (_, records) = run_backend_with_spans(
            Backend::Sim,
            two_stage_cfg(ConnModel::PerRequest, end),
            &SurgeGuardFactory::full(),
            surge_arrivals(400.0, end),
            SpanSampler::rate(1, 3, 42),
            sg_live::LiveOpts::default(),
        );
        records
            .into_iter()
            .map(|r| TelemetryEvent::Span(r).to_json_line())
            .collect::<Vec<String>>()
    };
    let first = run();
    let second = run();
    assert!(!first.is_empty(), "sampled run produced no spans");
    assert_eq!(first, second, "span output must be byte-identical");
}

/// Deterministic sampling (satellite): the N-out-of-M sampler must land
/// within ±1 of the exact rate over the whole run.
#[test]
fn sim_sampling_rate_is_within_one_of_exact() {
    // Arrivals stop 50 ms before the run ends so every injected request
    // completes (and therefore emits its root span) before the cutoff.
    let end = SimTime::from_secs(3);
    let traffic_end = SimTime::from_millis(2950);
    let (result, records) = run_backend_with_spans(
        Backend::Sim,
        two_stage_cfg(ConnModel::PerRequest, end),
        &NoopFactory,
        constant_arrivals(4000.0, SimTime::ZERO, traffic_end),
        SpanSampler::rate(1, 7, 42),
        sg_live::LiveOpts::default(),
    );
    assert_eq!(result.dropped, 0, "safety valve must not distort the count");
    assert_eq!(
        result.completed, result.injected,
        "every injected request must complete for an exact census"
    );
    assert!(result.injected > 10_000, "want a long census");
    let roots = records.iter().filter(|r| r.is_root()).count() as i64;
    let exact = (result.injected as i64) / 7;
    assert!(
        (roots - exact).abs() <= 1,
        "sampled {roots} roots over {} requests; want {exact} +/- 1",
        result.injected
    );
}

/// Mergeable-digest conformance (this PR's tentpole): on BOTH substrates
/// the merged per-node digest must cover *exactly* the warmup-trimmed
/// completion set, and its percentiles must agree with an exact
/// [`sg_loadgen::LatencyHistogram`] built from the same points within
/// the digest's documented one-sided relative error γ (the two share the
/// same bucket math, so in practice they agree bucket-for-bucket — the
/// assertion pins the published contract, not the implementation).
#[test]
fn agg_digest_matches_exact_histogram_on_both_backends() {
    let end = SimTime::from_millis(400);
    for backend in Backend::both() {
        let cfg = two_stage_cfg(ConnModel::PerRequest, end);
        let (result, agg) = run_backend_with_agg(
            backend,
            cfg,
            &NoopFactory,
            constant_arrivals(1000.0, SimTime::ZERO, end),
            SimDuration::from_millis(5),
        );
        let label = backend.label();
        assert!(result.completed > 0, "[{label}] no completions");
        assert_eq!(
            agg.digest.len(),
            result.points.len() as u64,
            "[{label}] digest population != measured completion set"
        );
        let mut hist = sg_loadgen::LatencyHistogram::with_default_resolution();
        for p in &result.points {
            hist.record(p.latency);
        }
        let gamma = agg.digest.relative_error();
        for q in [50.0, 90.0, 99.0] {
            let exact = hist.percentile(q).expect("nonempty").as_nanos() as f64;
            let approx = agg.digest.percentile(q).expect("nonempty").as_nanos() as f64;
            assert!(
                (approx - exact).abs() <= gamma * exact + 1.0,
                "[{label}] p{q}: digest {approx} vs exact {exact} beyond γ={gamma}"
            );
        }
    }
}

/// SLO burn-rate conformance, directional: a QoS bound that every
/// request violates must drive both substrates into a multi-window burn
/// alert with the whole error budget gone, and a QoS bound nothing can
/// violate must leave both substrates quiet with the budget intact.
/// (Absolute latencies differ wildly between the substrates — the burn
/// *verdict* is the conformance surface, never the latency numbers.)
#[test]
fn slo_burn_verdicts_agree_directionally_on_both_backends() {
    let end = SimTime::from_millis(400);
    for backend in Backend::both() {
        let label = backend.label();
        let cfg = two_stage_cfg(ConnModel::PerRequest, end);
        // Everything violates a 1 ns deadline.
        let (result, hot) = run_backend_with_agg(
            backend,
            cfg.clone(),
            &NoopFactory,
            constant_arrivals(1000.0, SimTime::ZERO, end),
            SimDuration::from_nanos(1),
        );
        assert!(result.completed > 0, "[{label}] no completions");
        assert_eq!(
            hot.slo.total(),
            result.points.len() as u64,
            "[{label}] SLO window missed completions"
        );
        assert_eq!(hot.slo.bad(), hot.slo.total(), "[{label}] all must violate");
        let verdict = hot.slo.verdict_at_last();
        assert!(
            verdict.alerting(),
            "[{label}] 100% violation rate must fire a burn alert: {verdict:?}"
        );
        assert!(
            verdict.budget_remaining < 0.0,
            "[{label}] burning everything must exhaust the error budget"
        );
        assert!(
            !hot.topk.top(3).is_empty(),
            "[{label}] violations must surface heavy hitters"
        );

        // Nothing violates a 10 minute deadline.
        let (result, calm) = run_backend_with_agg(
            backend,
            cfg,
            &NoopFactory,
            constant_arrivals(1000.0, SimTime::ZERO, end),
            SimDuration::from_secs(600),
        );
        assert!(result.completed > 0, "[{label}] no completions");
        assert_eq!(calm.slo.bad(), 0, "[{label}] nothing may violate 10 min");
        let verdict = calm.slo.verdict_at_last();
        assert!(
            !verdict.alerting(),
            "[{label}] zero violations must stay quiet: {verdict:?}"
        );
        assert!(
            (verdict.budget_remaining - 1.0).abs() < 1e-9,
            "[{label}] untouched budget must stay at 1.0"
        );
        assert!(
            calm.topk.top(3).is_empty(),
            "[{label}] no violations, no heavy hitters"
        );
    }
}
