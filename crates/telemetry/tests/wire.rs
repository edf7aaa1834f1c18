//! Pins the JSONL wire format across code changes.
//!
//! `fixtures/wire_v1.jsonl` was written by the `serde_json::Value`-tree
//! encoder this crate had before `src/wire.rs` (parent commit d37c57b:
//! the unit-test samples of `event.rs` plus edge values — `u64::MAX`,
//! `i64::MIN + 1`, null parents, floats such as `1e-7`, `0.1 + 0.2`,
//! `1e21` and `f64::MAX`, strings with quotes, backslashes, control
//! bytes and non-ASCII, empty arrays, tagged and legacy `dropped`).
//! The codec must read every line and write back the same bytes, and
//! must agree with [`reference`] — that old encoder, kept here as the
//! oracle — on every event, so a mistake mirrored in both directions of
//! the new codec still shows.

use proptest::prelude::*;
use serde_json::{json, Value};
use sg_core::ids::{ContainerId, NodeId};
use sg_core::time::{SimDuration, SimTime};
use sg_telemetry::profile::{ProfileMark, ProfilePhase};
use sg_telemetry::{
    ActionKind, ActionOrigin, ActionOutcome, EventFamily, LatencyDigest, MetricId, MetricSample,
    ReplicaPhase, ScoredAction, SpanRecord, TelemetryEvent, TopKEntry,
};

const FIXTURE: &str = include_str!("fixtures/wire_v1.jsonl");

/// Every `"type"` on the wire; also the variant index space of
/// [`arbitrary`].
const TYPES: [&str; 19] = [
    "action",
    "alloc",
    "fr_boost",
    "window",
    "scoreboard",
    "replica",
    "fault",
    "span",
    "metric",
    "metrics_meta",
    "digest",
    "slo",
    "topk",
    "dropped",
    "schema",
    "profile_meta",
    "profile_phase",
    "profile_mark",
    "dropped",
];

fn encode(event: &TelemetryEvent) -> String {
    let mut out = b"kept:".to_vec();
    event.write_json_line(&mut out);
    let line = String::from_utf8(out).expect("UTF-8").split_off(5);
    assert_eq!(line, event.to_json_line(), "the two encoder entries agree");
    line
}

/// The encoder this crate had before the direct codec: one
/// `serde_json::Value` object per event, rendered by the shim.
fn reference(event: &TelemetryEvent) -> Value {
    match event {
        TelemetryEvent::Action {
            at,
            node,
            container,
            origin,
            kind,
            outcome,
        } => json!({
            "type": "action",
            "at_ns": at.as_nanos(),
            "node": node.0,
            "container": container.0,
            "origin": origin.name(),
            "kind": kind.name(),
            "arg": kind.arg(),
            "outcome": outcome.name(),
        }),
        TelemetryEvent::Alloc {
            at,
            container,
            cores,
            freq_level,
            freq_ghz,
        } => json!({
            "type": "alloc",
            "at_ns": at.as_nanos(),
            "container": container.0,
            "cores": *cores,
            "freq_level": *freq_level,
            "freq_ghz": *freq_ghz,
        }),
        TelemetryEvent::FrBoost {
            at,
            node,
            dest,
            slack_ns,
            level,
            targets,
        } => json!({
            "type": "fr_boost",
            "at_ns": at.as_nanos(),
            "node": node.0,
            "dest": dest.0,
            "slack_ns": *slack_ns,
            "level": *level,
            "targets": *targets,
        }),
        TelemetryEvent::Window {
            at,
            node,
            container,
            requests,
            mean_exec_time_ns,
            mean_exec_metric_ns,
            queue_buildup,
            upscale_hints,
        } => json!({
            "type": "window",
            "at_ns": at.as_nanos(),
            "node": node.0,
            "container": container.0,
            "requests": *requests,
            "mean_exec_time_ns": *mean_exec_time_ns,
            "mean_exec_metric_ns": *mean_exec_metric_ns,
            "queue_buildup": *queue_buildup,
            "upscale_hints": *upscale_hints,
        }),
        TelemetryEvent::Scoreboard {
            at,
            node,
            scores,
            actions,
        } => {
            let scores: Vec<Value> = scores
                .iter()
                .map(|(c, s)| Value::Array(vec![Value::from(c.0), Value::from(*s)]))
                .collect();
            let actions: Vec<Value> = actions
                .iter()
                .map(|a| {
                    json!({
                        "container": a.container.0,
                        "kind": a.kind.name(),
                        "arg": a.kind.arg(),
                        "reason": a.reason.as_str(),
                    })
                })
                .collect();
            json!({
                "type": "scoreboard",
                "at_ns": at.as_nanos(),
                "node": node.0,
                "scores": scores,
                "actions": actions,
            })
        }
        TelemetryEvent::ReplicaLifecycle {
            at,
            node,
            container,
            service,
            replica,
            phase,
            active,
        } => json!({
            "type": "replica",
            "at_ns": at.as_nanos(),
            "node": node.0,
            "container": container.0,
            "service": service.0,
            "replica": *replica,
            "phase": phase.name(),
            "active": *active,
        }),
        TelemetryEvent::Fault {
            at,
            fault,
            target,
            active,
        } => json!({
            "type": "fault",
            "at_ns": at.as_nanos(),
            "fault": fault.as_str(),
            "target": target.as_str(),
            "active": *active,
        }),
        TelemetryEvent::Span(s) => json!({
            "type": "span",
            "trace": s.trace,
            "span": s.span,
            "parent": s.parent,
            "container": s.container.map(|c| c.0),
            "node": s.node.map(|n| n.0),
            "start_ns": s.start.as_nanos(),
            "end_ns": s.end.as_nanos(),
            "net_in_ns": s.net_in.as_nanos(),
            "conn_wait_ns": s.conn_wait.as_nanos(),
            "service_ns": s.service.as_nanos(),
            "downstream_ns": s.downstream.as_nanos(),
            "freq_level": s.freq_level,
            "slack_ns": s.slack_ns,
        }),
        TelemetryEvent::Metric(s) => match s.metric.arm() {
            Some(arm) => json!({
                "type": "metric",
                "at_ns": s.at.as_nanos(),
                "node": s.node.0,
                "container": s.container.0,
                "metric": s.metric.name(),
                "arm": arm,
                "value": s.value,
            }),
            None => json!({
                "type": "metric",
                "at_ns": s.at.as_nanos(),
                "node": s.node.0,
                "container": s.container.0,
                "metric": s.metric.name(),
                "value": s.value,
            }),
        },
        TelemetryEvent::MetricsMeta {
            version,
            interval_ns,
        } => json!({
            "type": "metrics_meta",
            "version": *version,
            "interval_ns": *interval_ns,
        }),
        TelemetryEvent::Digest { at, node, digest } => {
            let (min_ns, max_ns, sum_ns) = digest.bounds();
            let buckets: Vec<Value> = digest
                .bucket_counts()
                .map(|(b, c)| json!([u64::from(b), c]))
                .collect();
            json!({
                "type": "digest",
                "at_ns": at.as_nanos(),
                "node": node.0,
                "sig_bits": digest.sig_bits(),
                "count": digest.len(),
                "min_ns": if digest.is_empty() { 0 } else { min_ns },
                "max_ns": max_ns,
                "sum_ns": sum_ns,
                "buckets": buckets,
            })
        }
        TelemetryEvent::Slo {
            at,
            node,
            qos_ns,
            total,
            bad,
        } => json!({
            "type": "slo",
            "at_ns": at.as_nanos(),
            "node": node.0,
            "qos_ns": *qos_ns,
            "total": *total,
            "bad": *bad,
        }),
        TelemetryEvent::TopK {
            at,
            node,
            capacity,
            entries,
        } => {
            let entries: Vec<Value> = entries
                .iter()
                .map(|e| json!([e.key, e.weight, e.err]))
                .collect();
            json!({
                "type": "topk",
                "at_ns": at.as_nanos(),
                "node": node.0,
                "capacity": *capacity,
                "entries": entries,
            })
        }
        TelemetryEvent::Dropped { count, family } => match family {
            Some(f) => json!({
                "type": "dropped",
                "count": *count,
                "family": f.name(),
            }),
            None => json!({
                "type": "dropped",
                "count": *count,
            }),
        },
        TelemetryEvent::Schema { schema } => json!({
            "type": "schema",
            "schema": schema.as_str(),
        }),
        TelemetryEvent::ProfileMeta {
            version,
            substrate,
            wall_ns,
        } => json!({
            "type": "profile_meta",
            "version": *version,
            "substrate": substrate.as_str(),
            "wall_ns": *wall_ns,
        }),
        TelemetryEvent::ProfilePhase {
            phase,
            count,
            sampled,
            total_ns,
            p50_ns,
            p99_ns,
            max_ns,
        } => json!({
            "type": "profile_phase",
            "phase": phase.name(),
            "count": *count,
            "sampled": *sampled,
            "total_ns": *total_ns,
            "p50_ns": *p50_ns,
            "p99_ns": *p99_ns,
            "max_ns": *max_ns,
        }),
        TelemetryEvent::ProfileMark { mark, value } => json!({
            "type": "profile_mark",
            "mark": mark.name(),
            "value": *value,
        }),
    }
}

#[test]
fn fixture_round_trips_byte_identically() {
    let mut seen = std::collections::BTreeSet::new();
    for line in FIXTURE.lines() {
        let event = TelemetryEvent::from_json_line(line).expect(line);
        assert_eq!(encode(&event), line);
        assert_eq!(
            TelemetryEvent::from_json_bytes(line.as_bytes()).as_ref(),
            Ok(&event)
        );
        let typ = serde_json::from_str(line).expect("fixture is JSON");
        seen.insert(typ.get("type").and_then(Value::as_str).unwrap().to_owned());
    }
    for typ in TYPES {
        assert!(seen.contains(typ), "fixture lacks a '{typ}' line");
    }
}

#[test]
fn encoder_agrees_with_the_value_tree_oracle() {
    for line in FIXTURE.lines() {
        let event = TelemetryEvent::from_json_line(line).expect(line);
        let oracle = reference(&event);
        assert_eq!(oracle.to_string(), line);
        // Integral floats print without a dot and read back as
        // integers, so compare through one more parse.
        assert_eq!(
            serde_json::from_str(&encode(&event)).ok(),
            serde_json::from_str(&oracle.to_string()).ok()
        );
    }
    // Non-finite floats are `null` on the wire (and do not read back).
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let event = TelemetryEvent::Alloc {
            at: SimTime::ZERO,
            container: ContainerId(0),
            cores: 1,
            freq_level: 0,
            freq_ghz: bad,
        };
        assert_eq!(encode(&event), reference(&event).to_string());
        assert!(TelemetryEvent::from_json_line(&encode(&event)).is_err());
    }
}

#[test]
fn decoder_takes_any_order_whitespace_and_unknown_members() {
    let plain = "{\"type\":\"alloc\",\"at_ns\":1,\"container\":2,\"cores\":3,\"freq_level\":4,\"freq_ghz\":2.2}";
    let loose = " {\t\"future\" : {\"a\":[1,{\"b\":null}],\"c\":\"}\\\"\"} , \"freq_ghz\":22e-1,\r\n \"cores\" : 3 ,\
                 \"freq_level\":4,\"container\":2, \"ty\\u0070e\":\"alloc\",\"at_ns\":1,\"more\":[true,false] } \n";
    assert_eq!(
        TelemetryEvent::from_json_line(loose),
        TelemetryEvent::from_json_line(plain)
    );
    for bad in [
        "{\"type\":\"alloc\",\"at_ns\":1,\"container\":2,\"cores\":3,\"freq_level\":4}", // member missing
        "{\"type\":\"alloc\",\"at_ns\":1.0,\"container\":2,\"cores\":3,\"freq_level\":4,\"freq_ghz\":2.2}",
        "{\"type\":\"alloc\",\"at_ns\":-1,\"container\":2,\"cores\":3,\"freq_level\":4,\"freq_ghz\":2.2}",
        "{\"type\":\"alloc\",\"at_ns\":18446744073709551616,\"container\":2,\"cores\":3,\"freq_level\":4,\"freq_ghz\":2.2}",
        "{\"type\":\"alloc\",\"at_ns\":1,\"container\":2,\"cores\":3,\"freq_level\":4,\"freq_ghz\":2.2} x",
        "{\"type\":\"alloc\",\"at_ns\":1,\"container\":2,\"cores\":3,\"freq_level\":4,\"freq_ghz\":2.2,}",
        "{\"type\":\"alloc\",\"at_ns\":1,\"container\":2,\"cores\":3,\"freq_level\":4,\"freq_ghz\":2.2,\"x\":[1,}",
        "{\"type\":\"alloc\",\"at_ns\":1,\"container\":2,\"cores\":3,\"freq_level\":4,\"freq_ghz\":null}",
        "{\"type\":\"span\",\"trace\":1}",
        "{\"type\":\"dropped\",\"count\":1,\"family\":null}",
        "{\"type\":\"metric\",\"at_ns\":1,\"node\":0,\"container\":0,\"metric\":\"cores\",\"arm\":1,\"value\":1}",
        "{\"at_ns\":1}",
        "[]",
        "",
    ] {
        assert!(TelemetryEvent::from_json_line(bad).is_err(), "{bad}");
    }
    let deep = format!(
        "{{\"type\":\"dropped\",\"count\":1,\"x\":{}{}}}",
        "[".repeat(100_000),
        "]".repeat(100_000)
    );
    assert!(TelemetryEvent::from_json_line(&deep).is_err());
}

/// Narrow fields used to be cut with `as`: this line read back as
/// container 1, cores 2, freq_level 44.
#[test]
fn out_of_range_narrow_fields_are_rejected() {
    for bad in [
        "{\"type\":\"alloc\",\"at_ns\":1,\"container\":4294967297,\"cores\":4294967298,\"freq_level\":300,\"freq_ghz\":2.2}",
        "{\"type\":\"alloc\",\"at_ns\":1,\"container\":1,\"cores\":4294967296,\"freq_level\":0,\"freq_ghz\":2.2}",
        "{\"type\":\"alloc\",\"at_ns\":1,\"container\":1,\"cores\":2,\"freq_level\":256,\"freq_ghz\":2.2}",
        "{\"type\":\"fr_boost\",\"at_ns\":0,\"node\":0,\"dest\":0,\"slack_ns\":-9223372036854775809,\"level\":1,\"targets\":1}",
        "{\"type\":\"fr_boost\",\"at_ns\":0,\"node\":0,\"dest\":0,\"slack_ns\":9223372036854775808,\"level\":1,\"targets\":1}",
        "{\"type\":\"action\",\"at_ns\":1,\"node\":0,\"container\":0,\"origin\":\"tick\",\"kind\":\"set_freq\",\"arg\":256,\"outcome\":\"applied\"}",
        "{\"type\":\"metric\",\"at_ns\":1,\"node\":0,\"container\":0,\"metric\":\"sensitivity\",\"arm\":256,\"value\":1}",
        "{\"type\":\"scoreboard\",\"at_ns\":1,\"node\":0,\"scores\":[[4294967296,1]],\"actions\":[]}",
        "{\"type\":\"digest\",\"at_ns\":1,\"node\":0,\"sig_bits\":4294967302,\"count\":0,\"min_ns\":0,\"max_ns\":0,\"sum_ns\":0,\"buckets\":[]}",
    ] {
        assert!(TelemetryEvent::from_json_line(bad).is_err(), "{bad}");
    }
    let ok = "{\"type\":\"fr_boost\",\"at_ns\":0,\"node\":0,\"dest\":0,\"slack_ns\":-9223372036854775808,\"level\":255,\"targets\":4294967295}";
    assert!(matches!(
        TelemetryEvent::from_json_line(ok),
        Ok(TelemetryEvent::FrBoost {
            slack_ns: i64::MIN,
            level: u8::MAX,
            targets: u32::MAX,
            ..
        })
    ));
}

/// A repeated key keeps its first occurrence (what `Value::get` did);
/// later ones are still syntax-checked.
#[test]
fn first_duplicate_key_wins() {
    let line = "{\"type\":\"dropped\",\"count\":4,\"count\":9,\"type\":\"schema\",\"count\":\"x\"}";
    assert_eq!(
        TelemetryEvent::from_json_line(line),
        Ok(TelemetryEvent::Dropped {
            count: 4,
            family: None
        })
    );
    let first_is_bad = "{\"type\":\"dropped\",\"count\":\"x\",\"count\":9}";
    assert!(TelemetryEvent::from_json_line(first_is_bad).is_err());
    let later_is_broken = "{\"type\":\"dropped\",\"count\":4,\"count\":}";
    assert!(TelemetryEvent::from_json_line(later_is_broken).is_err());
}

/// A pool of random words handed out one at a time.
struct Words(Vec<u64>, usize);

impl Words {
    fn next(&mut self) -> u64 {
        self.1 += 1;
        self.0[self.1 % self.0.len()].rotate_left(self.1 as u32)
    }

    /// Mostly small, sometimes the whole range.
    fn int(&mut self) -> u64 {
        let w = self.next();
        match w % 4 {
            0 => w,
            1 => w >> 32,
            _ => (w >> 8) % 1000,
        }
    }

    fn float(&mut self) -> f64 {
        let w = self.next();
        let f = f64::from_bits(w);
        match w % 3 {
            0 if f.is_finite() => f,
            1 => (w >> 40) as f64,
            _ => (w >> 11) as f64 / 1e6 - 4e6,
        }
    }

    fn text(&mut self) -> String {
        let n = self.next() % 12;
        (0..n)
            .map(|_| {
                let w = self.next();
                match w % 8 {
                    0 => '"',
                    1 => '\\',
                    2 => char::from((w >> 8) as u8 % 0x20),
                    3 => char::from_u32((w >> 8) as u32 % 0x11_0000).unwrap_or('\u{fffd}'),
                    _ => char::from(b' ' + (w >> 8) as u8 % 95),
                }
            })
            .collect()
    }

    fn kind(&mut self) -> ActionKind {
        let arg = self.int() as u32;
        match self.next() % 5 {
            0 => ActionKind::SetCores { cores: arg },
            1 => ActionKind::SetFreq { level: arg as u8 },
            2 => ActionKind::SetBandwidth { units: arg },
            3 => ActionKind::SetEgressHint { hops: arg as u8 },
            _ => ActionKind::SetReplicas { replicas: arg },
        }
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.next() as usize % from.len()]
    }
}

/// A random event of the variant `TYPES[variant]` names.
fn arbitrary(variant: usize, w: &mut Words) -> TelemetryEvent {
    let at = SimTime::from_nanos(w.int());
    let node = NodeId(w.int() as u32);
    let container = ContainerId(w.int() as u32);
    match variant {
        0 => TelemetryEvent::Action {
            at,
            node,
            container,
            origin: w.pick(&[ActionOrigin::Tick, ActionOrigin::PacketHook]),
            kind: w.kind(),
            outcome: w.pick(&[
                ActionOutcome::Applied,
                ActionOutcome::Deferred,
                ActionOutcome::Clamped,
                ActionOutcome::RejectedCrossNode,
            ]),
        },
        1 => TelemetryEvent::Alloc {
            at,
            container,
            cores: w.int() as u32,
            freq_level: w.int() as u8,
            freq_ghz: w.float(),
        },
        2 => TelemetryEvent::FrBoost {
            at,
            node,
            dest: container,
            slack_ns: w.int() as i64,
            level: w.int() as u8,
            targets: w.int() as u32,
        },
        3 => TelemetryEvent::Window {
            at,
            node,
            container,
            requests: w.int(),
            mean_exec_time_ns: w.int(),
            mean_exec_metric_ns: w.int(),
            queue_buildup: w.float(),
            upscale_hints: w.int(),
        },
        4 => TelemetryEvent::Scoreboard {
            at,
            node,
            scores: (0..w.next() % 4)
                .map(|_| (ContainerId(w.int() as u32), w.int() as u32))
                .collect(),
            actions: (0..w.next() % 3)
                .map(|_| ScoredAction {
                    container: ContainerId(w.int() as u32),
                    kind: w.kind(),
                    reason: w.text(),
                })
                .collect(),
        },
        5 => TelemetryEvent::ReplicaLifecycle {
            at,
            node,
            container,
            service: ContainerId(w.int() as u32),
            replica: w.int() as u32,
            phase: w.pick(&[
                ReplicaPhase::Spawned,
                ReplicaPhase::Draining,
                ReplicaPhase::Retired,
            ]),
            active: w.int() as u32,
        },
        6 => TelemetryEvent::Fault {
            at,
            fault: w.text(),
            target: w.text(),
            active: w.next() & 1 == 1,
        },
        7 => TelemetryEvent::Span(SpanRecord {
            trace: w.int(),
            span: w.int(),
            parent: (w.next() % 3 != 1).then(|| w.int()),
            container: (w.next() % 3 != 1).then_some(container),
            node: (w.next() % 3 != 1).then_some(node),
            start: at,
            end: SimTime::from_nanos(w.int()),
            net_in: SimDuration::from_nanos(w.int()),
            conn_wait: SimDuration::from_nanos(w.int()),
            service: SimDuration::from_nanos(w.int()),
            downstream: SimDuration::from_nanos(w.int()),
            freq_level: w.int() as u8,
            slack_ns: w.int() as i64,
        }),
        8 => TelemetryEvent::Metric(MetricSample {
            at,
            node,
            container,
            metric: [
                MetricId::Cores,
                MetricId::FreqLevel,
                MetricId::FrBoosts,
                MetricId::ExecMetric,
                MetricId::QueueBuildup,
                MetricId::WindowRequests,
                MetricId::UpscaleHints,
                MetricId::Sensitivity(w.int() as u8),
                MetricId::PoolInUse,
                MetricId::PoolWaiters,
                MetricId::PoolQueuedTotal,
                MetricId::SlackP50,
                MetricId::SlackP99,
                MetricId::Replicas,
            ][w.next() as usize % 14],
            value: w.float(),
        }),
        9 => TelemetryEvent::MetricsMeta {
            version: w.int() as u32,
            interval_ns: w.int(),
        },
        10 => TelemetryEvent::Digest {
            at,
            node,
            digest: {
                let mut d = LatencyDigest::with_default_resolution();
                for _ in 0..w.next() % 5 {
                    d.record(SimDuration::from_nanos(w.int() >> 4));
                }
                d
            },
        },
        11 => {
            let total = w.int();
            TelemetryEvent::Slo {
                at,
                node,
                qos_ns: w.int(),
                total,
                bad: w.int().min(total),
            }
        }
        12 => TelemetryEvent::TopK {
            at,
            node,
            capacity: w.int() as u32,
            entries: (0..w.next() % 4)
                .map(|_| TopKEntry {
                    key: w.int(),
                    weight: w.int(),
                    err: w.int(),
                })
                .collect(),
        },
        13 => TelemetryEvent::Dropped {
            count: w.int(),
            family: Some(w.pick(&[
                EventFamily::Decision,
                EventFamily::Span,
                EventFamily::Metrics,
                EventFamily::Profile,
            ])),
        },
        14 => TelemetryEvent::Schema { schema: w.text() },
        15 => TelemetryEvent::ProfileMeta {
            version: w.int() as u32,
            substrate: w.text(),
            wall_ns: w.int(),
        },
        16 => TelemetryEvent::ProfilePhase {
            phase: w.pick(&ProfilePhase::ALL),
            count: w.int(),
            sampled: w.int(),
            total_ns: w.int(),
            p50_ns: w.int(),
            p99_ns: w.int(),
            max_ns: w.int(),
        },
        17 => TelemetryEvent::ProfileMark {
            mark: w.pick(&ProfileMark::ALL),
            value: w.int(),
        },
        _ => TelemetryEvent::Dropped {
            count: w.int(),
            family: None,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40 * TYPES.len() as u32))]

    #[test]
    fn random_events_round_trip_and_match_the_oracle(
        variant in 0usize..TYPES.len(),
        words in prop::collection::vec(any::<u64>(), 48),
    ) {
        let event = arbitrary(variant, &mut Words(words, 0));
        let line = encode(&event);
        prop_assert_eq!(&line, &reference(&event).to_string());
        let lead = format!("{{\"type\":\"{}\",", TYPES[variant]);
        prop_assert!(line.starts_with(&lead));
        prop_assert_eq!(TelemetryEvent::from_json_line(&line), Ok(event));
    }

    // Damaged lines decode or fail; they never panic.
    #[test]
    fn mutated_lines_never_panic(
        variant in 0usize..TYPES.len(),
        words in prop::collection::vec(any::<u64>(), 48),
        edits in prop::collection::vec((any::<u64>(), any::<u8>()), 1..6),
    ) {
        let mut line = encode(&arbitrary(variant, &mut Words(words, 0))).into_bytes();
        for (at, byte) in edits {
            let i = at as usize % line.len().max(1);
            match at >> 62 {
                _ if line.is_empty() => line.push(byte),
                0 => line[i] = byte,
                1 => line.insert(i, byte),
                2 => drop(line.remove(i)),
                _ => line.truncate(i),
            }
        }
        let decoded = TelemetryEvent::from_json_bytes(&line);
        if let Ok(text) = std::str::from_utf8(&line) {
            prop_assert_eq!(&TelemetryEvent::from_json_line(text), &decoded);
        } else {
            prop_assert!(decoded.is_err());
        }
        // What still decodes is a well-formed event: it survives its own
        // round trip.
        if let Ok(event) = decoded {
            prop_assert_eq!(TelemetryEvent::from_json_line(&encode(&event)), Ok(event));
        }
    }
}
