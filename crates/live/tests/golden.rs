//! Replica-blind regression anchor: with the default single-replica
//! configuration, the engine must produce output byte-identical to the
//! pre-replica engine. The constants below were captured from the tree
//! immediately before the replica subsystem landed; any drift means the
//! 1-replica degenerate path is no longer free.

use sg_controllers::{SurgeGuardConfig, SurgeGuardFactory};
use sg_core::time::SimTime;
use sg_live::conformance::{surge_arrivals, two_stage_cfg};
use sg_sim::app::ConnModel;
use sg_sim::runner::Simulation;

/// FNV-1a over a stream of u64 words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[test]
fn one_replica_run_is_byte_identical_to_pre_replica_engine() {
    let end = SimTime::from_millis(400);
    let cfg = two_stage_cfg(ConnModel::FixedPool(2), end);
    let r = Simulation::new(cfg, &SurgeGuardFactory::full(), surge_arrivals(400.0, end)).run();
    let digest = fnv1a(
        r.points
            .iter()
            .flat_map(|p| [p.completion.as_nanos(), p.latency.as_nanos()]),
    );
    assert_eq!(r.injected, 920);
    assert_eq!(r.completed, 920);
    assert_eq!(r.dropped, 0);
    assert_eq!(r.events, 7429);
    // Why that count is 7 429 and no longer 10 312: every popped event is
    // now live. On this chain a request costs at most 8 (1 arrival, 2
    // request deliveries, 1 response, <= 4 phase completions); the rest
    // is the control plane — one tick per Escalator interval, one
    // `FreqApply` per FirstResponder boost and at most one per container
    // per tick — plus the pop past `end` that stops the loop. There are
    // no fault edges. Tombstoned completions (11.2 events per request)
    // do not fit under this.
    let ticks = end.as_nanos() / SurgeGuardConfig::default().escalator_interval.as_nanos();
    let control = ticks + r.packet_freq_boosts + ticks * r.profile.len() as u64 + 1;
    assert!(
        r.events <= 8 * r.injected + control,
        "{} events for {} requests and {control} control events",
        r.events,
        r.injected
    );
    assert_eq!(r.clamped_actions, 0);
    assert_eq!(r.packet_freq_boosts, 62);
    assert_eq!(r.energy_j.to_bits(), 0x4023244f797eb5d7, "energy drifted");
    assert_eq!(
        r.avg_cores.to_bits(),
        0x401e000000000000,
        "avg_cores drifted"
    );
    assert_eq!(digest, 0x0c614b0f7de8824c, "latency points drifted");
}
