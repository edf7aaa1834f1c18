//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is a list of timed faults — `at <t> inject <fault> on
//! <target> for <dur>` — loaded from JSON or a TOML subset and injected
//! *identically* on both substrates: the discrete-event simulator
//! schedules fault start/end events on its clock, the live backend
//! replays the same timeline from a dedicated injector thread. Five
//! fault classes cover the churn modes the autoscaling literature calls
//! least-evaluated:
//!
//! * `crash` — a service's containers freeze (no forward progress) for
//!   the fault window, then restart; controllers are notified via
//!   [`FaultNotice::Restarted`] so profiled state (e.g. SurgeGuard's
//!   sensitivity matrix) can be re-learned.
//! * `node-loss` — every container on a node freezes, then restarts.
//! * `pool-leak` — `connections` connections of every pool feeding the
//!   target service are leaked (held, never released) for the window.
//! * `jitter` — extra fabric latency on remote hops for the window.
//! * `straggler` — one replica of a service runs `slowdown×` slower.
//!
//! Plans are static data: everything is known before the run starts, so
//! both substrates can derive identical state (e.g. network-jitter
//! windows) at construction time, and a run remains a pure function of
//! `(config, seed)`.

use crate::ids::{ContainerId, NodeId, ServiceId};
use crate::time::{SimDuration, SimTime};

/// Slowdown factor modelling a crashed container: progress is scaled by
/// `1/CRASH_SLOWDOWN`, which freezes any realistic fault window while
/// keeping the substrates' progress math finite (a true zero rate would
/// produce unschedulable infinitely-far completion events).
pub const CRASH_SLOWDOWN: f64 = 1000.0;

/// What to break.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Freeze all active containers of a service, then restart them.
    ContainerCrash {
        /// The crashed service.
        service: ServiceId,
    },
    /// Freeze every container hosted on a node, then restart them.
    NodeLoss {
        /// The lost node.
        node: NodeId,
    },
    /// Leak connections from every pool feeding a service.
    PoolLeak {
        /// The downstream (callee) service whose pools leak.
        service: ServiceId,
        /// Connections held per pool for the fault window.
        connections: u32,
    },
    /// Extra fabric latency on remote hops.
    NetworkJitter {
        /// Added one-way latency while the fault is active.
        extra: SimDuration,
    },
    /// One replica of a service runs slower than its peers.
    Straggler {
        /// The straggling service.
        service: ServiceId,
        /// Replica index within the service group (0 = primary).
        replica: u32,
        /// Execution slowdown factor (> 1).
        slowdown: f64,
    },
}

impl FaultKind {
    /// Fault-class name, as used in plan files and telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::ContainerCrash { .. } => "crash",
            FaultKind::NodeLoss { .. } => "node-loss",
            FaultKind::PoolLeak { .. } => "pool-leak",
            FaultKind::NetworkJitter { .. } => "jitter",
            FaultKind::Straggler { .. } => "straggler",
        }
    }

    /// Target description, as used in plan files and telemetry.
    pub fn target_label(&self) -> String {
        match self {
            FaultKind::ContainerCrash { service } => format!("svc:{}", service.0),
            FaultKind::NodeLoss { node } => format!("node:{}", node.0),
            FaultKind::PoolLeak { service, .. } => format!("svc:{}", service.0),
            FaultKind::NetworkJitter { .. } => "net".to_string(),
            FaultKind::Straggler {
                service, replica, ..
            } => format!("svc:{}#{replica}", service.0),
        }
    }

    /// Execution speed one edge of this fault sets on the slots it
    /// targets: `1/CRASH_SLOWDOWN` while a crash or node loss is active,
    /// `1/slowdown` while a straggler is, 1 when either clears. `None`
    /// for pool leaks and jitter, which slow no slot.
    pub fn gate_speed(&self, active: bool) -> Option<f64> {
        match *self {
            FaultKind::PoolLeak { .. } | FaultKind::NetworkJitter { .. } => None,
            _ if !active => Some(1.0),
            FaultKind::Straggler { slowdown, .. } => Some(1.0 / slowdown),
            _ => Some(1.0 / CRASH_SLOWDOWN),
        }
    }

    /// True when clearing this fault restarts its targets: a crash or
    /// node loss ends in a restart, whose [`FaultNotice::Restarted`]
    /// tells the node's controller its profiled state is stale. A
    /// straggler recovers in place.
    pub fn restarts(&self) -> bool {
        matches!(
            self,
            FaultKind::ContainerCrash { .. } | FaultKind::NodeLoss { .. }
        )
    }
}

/// One scheduled fault: `at <t> inject <kind> for <duration>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Injection time.
    pub at: SimTime,
    /// Fault duration (the fault clears at `at + duration`).
    pub duration: SimDuration,
    /// What breaks.
    pub kind: FaultKind,
}

impl FaultSpec {
    /// The instant the fault clears.
    pub fn end(&self) -> SimTime {
        self.at + self.duration
    }
}

/// A deterministic fault-injection timeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled faults, in file order (need not be sorted).
    pub faults: Vec<FaultSpec>,
}

/// Notification delivered to a node's controller when a fault event
/// requires it to react (beyond what its metrics already show).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultNotice {
    /// A local container crashed and has just restarted: profiled state
    /// about it (sensitivity measurements, learned curves) describes the
    /// pre-crash instance and must be re-learned.
    Restarted {
        /// The restarted container (replica slot).
        container: ContainerId,
    },
}

/// Parse a duration literal: `250ns`, `15us`, `500ms`, `1.5s`, or a bare
/// number meaning milliseconds.
pub(crate) fn parse_duration(text: &str) -> Result<SimDuration, String> {
    let t = text.trim();
    let (num, scale_ns) = if let Some(v) = t.strip_suffix("ns") {
        (v, 1.0)
    } else if let Some(v) = t.strip_suffix("us") {
        (v, 1e3)
    } else if let Some(v) = t.strip_suffix("ms") {
        (v, 1e6)
    } else if let Some(v) = t.strip_suffix('s') {
        (v, 1e9)
    } else {
        (t, 1e6) // bare number = milliseconds
    };
    let v: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("bad duration '{text}'"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("bad duration '{text}'"));
    }
    Ok(SimDuration::from_nanos((v * scale_ns).round() as u64))
}

/// A raw key/value field from a plan file, before typing.
#[derive(Debug, Clone, PartialEq)]
enum RawVal {
    Str(String),
    Num(f64),
}

impl RawVal {
    fn as_duration(&self, key: &str) -> Result<SimDuration, String> {
        match self {
            RawVal::Str(s) => parse_duration(s),
            RawVal::Num(ms) if ms.is_finite() && *ms >= 0.0 => {
                Ok(SimDuration::from_nanos((ms * 1e6).round() as u64))
            }
            RawVal::Num(_) => Err(format!("bad duration for '{key}'")),
        }
    }

    fn as_str(&self, key: &str) -> Result<&str, String> {
        match self {
            RawVal::Str(s) => Ok(s),
            RawVal::Num(_) => Err(format!("'{key}' must be a string")),
        }
    }

    fn as_u32(&self, key: &str) -> Result<u32, String> {
        match self {
            RawVal::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => {
                Ok(*n as u32)
            }
            _ => Err(format!("'{key}' must be a non-negative integer")),
        }
    }

    fn as_f64(&self, key: &str) -> Result<f64, String> {
        match self {
            RawVal::Num(n) if n.is_finite() => Ok(*n),
            _ => Err(format!("'{key}' must be a number")),
        }
    }
}

/// One fault entry as a bag of raw fields (shared by the JSON and TOML
/// front ends).
#[derive(Debug, Default)]
struct RawFault {
    fields: Vec<(String, RawVal)>,
}

impl RawFault {
    fn get(&self, key: &str) -> Option<&RawVal> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn require(&self, key: &str) -> Result<&RawVal, String> {
        self.get(key).ok_or_else(|| format!("missing '{key}'"))
    }

    fn build(&self) -> Result<FaultSpec, String> {
        let at = SimTime::ZERO + self.require("at")?.as_duration("at")?;
        let duration = self.require("for")?.as_duration("for")?;
        let inject = self.require("inject")?.as_str("inject")?;
        let on = self.require("on")?.as_str("on")?;
        let kind = match inject {
            "crash" => FaultKind::ContainerCrash {
                service: parse_service(on)?,
            },
            "node-loss" => FaultKind::NodeLoss {
                node: parse_node(on)?,
            },
            "pool-leak" => FaultKind::PoolLeak {
                service: parse_service(on)?,
                connections: self.require("connections")?.as_u32("connections")?,
            },
            "jitter" => FaultKind::NetworkJitter {
                extra: self.require("extra")?.as_duration("extra")?,
            },
            "straggler" => {
                let (service, replica) = parse_replica(on)?;
                FaultKind::Straggler {
                    service,
                    replica,
                    slowdown: self.require("slowdown")?.as_f64("slowdown")?,
                }
            }
            other => {
                return Err(format!(
                    "unknown fault '{other}' (expected crash, node-loss, pool-leak, jitter, \
                     or straggler)"
                ))
            }
        };
        Ok(FaultSpec { at, duration, kind })
    }
}

fn parse_service(on: &str) -> Result<ServiceId, String> {
    on.strip_prefix("svc:")
        .and_then(|v| v.parse::<u32>().ok())
        .map(ServiceId)
        .ok_or_else(|| format!("bad target '{on}' (expected svc:<id>)"))
}

fn parse_node(on: &str) -> Result<NodeId, String> {
    on.strip_prefix("node:")
        .and_then(|v| v.parse::<u32>().ok())
        .map(NodeId)
        .ok_or_else(|| format!("bad target '{on}' (expected node:<id>)"))
}

fn parse_replica(on: &str) -> Result<(ServiceId, u32), String> {
    let err = || format!("bad target '{on}' (expected svc:<id>#<replica>)");
    let rest = on.strip_prefix("svc:").ok_or_else(err)?;
    let (svc, rep) = rest.split_once('#').ok_or_else(err)?;
    Ok((
        ServiceId(svc.parse::<u32>().map_err(|_| err())?),
        rep.parse::<u32>().map_err(|_| err())?,
    ))
}

impl FaultPlan {
    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Parse a JSON plan: `{"faults": [{"at": "1s", "inject": "crash",
    /// "on": "svc:1", "for": "500ms"}, ...]}`. Durations are strings with
    /// units or bare numbers in milliseconds.
    pub(crate) fn from_json(text: &str) -> Result<Self, String> {
        let root = serde_json::from_str(text).map_err(|e| format!("bad JSON: {e:?}"))?;
        let faults = root
            .get("faults")
            .and_then(|f| f.as_array())
            .ok_or("plan must contain a 'faults' array")?;
        let mut plan = FaultPlan::default();
        for (i, entry) in faults.iter().enumerate() {
            let obj = match entry {
                serde_json::Value::Object(fields) => fields,
                _ => return Err(format!("fault {i}: must be an object")),
            };
            let mut raw = RawFault::default();
            for (k, v) in obj {
                let val = if let Some(s) = v.as_str() {
                    RawVal::Str(s.to_string())
                } else if let Some(n) = v.as_f64() {
                    RawVal::Num(n)
                } else {
                    return Err(format!("fault {i}: field '{k}' must be string or number"));
                };
                raw.fields.push((k.clone(), val));
            }
            plan.faults
                .push(raw.build().map_err(|e| format!("fault {i}: {e}"))?);
        }
        Ok(plan)
    }

    /// Parse a TOML-subset plan: repeated `[[fault]]` tables of
    /// `key = value` lines (quoted strings, numbers, `#` comments).
    pub(crate) fn from_toml(text: &str) -> Result<Self, String> {
        let mut tables: Vec<RawFault> = Vec::new();
        for (lineno, raw_line) in text.lines().enumerate() {
            let line = match raw_line.split_once('#') {
                // A '#' inside a quoted value is part of the value, not a
                // comment (targets like "svc:1#2" need this).
                Some((head, _)) if head.matches('"').count() % 2 == 0 => head.trim(),
                _ => raw_line.trim(),
            };
            if line.is_empty() {
                continue;
            }
            if line == "[[fault]]" {
                tables.push(RawFault::default());
                continue;
            }
            if line.starts_with('[') {
                return Err(format!(
                    "line {}: only [[fault]] tables allowed",
                    lineno + 1
                ));
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected key = value", lineno + 1))?;
            let table = tables
                .last_mut()
                .ok_or_else(|| format!("line {}: key outside [[fault]] table", lineno + 1))?;
            let value = value.trim();
            let val = if let Some(stripped) = value.strip_prefix('"') {
                let inner = stripped
                    .strip_suffix('"')
                    .ok_or_else(|| format!("line {}: unterminated string", lineno + 1))?;
                RawVal::Str(inner.to_string())
            } else {
                RawVal::Num(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("line {}: bad value '{value}'", lineno + 1))?,
                )
            };
            table.fields.push((key.trim().to_string(), val));
        }
        let mut plan = FaultPlan::default();
        for (i, t) in tables.iter().enumerate() {
            plan.faults
                .push(t.build().map_err(|e| format!("fault {i}: {e}"))?);
        }
        if plan.is_empty() {
            return Err("plan has no [[fault]] tables".into());
        }
        Ok(plan)
    }

    /// Parse a plan from text, auto-detecting JSON (`{`-first) vs TOML.
    pub fn parse(text: &str) -> Result<Self, String> {
        if text.trim_start().starts_with('{') {
            Self::from_json(text)
        } else {
            Self::from_toml(text)
        }
    }

    /// Validate every fault against a cluster shape.
    pub fn validate(&self, services: usize, nodes: u32, max_replicas: u32) -> Result<(), String> {
        for (i, f) in self.faults.iter().enumerate() {
            if f.duration.is_zero() {
                return Err(format!("fault {i}: duration must be positive"));
            }
            match f.kind {
                FaultKind::ContainerCrash { service } | FaultKind::PoolLeak { service, .. } => {
                    if service.index() >= services {
                        return Err(format!("fault {i}: service {} out of range", service.0));
                    }
                }
                FaultKind::NodeLoss { node } => {
                    if node.0 >= nodes {
                        return Err(format!("fault {i}: node {} out of range", node.0));
                    }
                }
                FaultKind::NetworkJitter { extra } => {
                    if extra.is_zero() {
                        return Err(format!("fault {i}: jitter extra must be positive"));
                    }
                }
                FaultKind::Straggler {
                    service,
                    replica,
                    slowdown,
                } => {
                    if service.index() >= services {
                        return Err(format!("fault {i}: service {} out of range", service.0));
                    }
                    if replica >= max_replicas {
                        return Err(format!(
                            "fault {i}: replica {replica} out of range (max_replicas \
                             {max_replicas})"
                        ));
                    }
                    if !slowdown.is_finite() || slowdown <= 1.0 {
                        return Err(format!("fault {i}: slowdown must be > 1"));
                    }
                }
            }
            if let FaultKind::PoolLeak { connections, .. } = f.kind {
                if connections == 0 {
                    return Err(format!("fault {i}: must leak at least one connection"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_literals() {
        assert_eq!(
            parse_duration("250ns").unwrap(),
            SimDuration::from_nanos(250)
        );
        assert_eq!(
            parse_duration("15us").unwrap(),
            SimDuration::from_micros(15)
        );
        assert_eq!(
            parse_duration("500ms").unwrap(),
            SimDuration::from_millis(500)
        );
        assert_eq!(
            parse_duration("1.5s").unwrap(),
            SimDuration::from_millis(1500)
        );
        assert_eq!(
            parse_duration("250").unwrap(),
            SimDuration::from_millis(250)
        );
        assert!(parse_duration("fast").is_err());
        assert!(parse_duration("-1s").is_err());
    }

    #[test]
    fn json_plan_round_trips_all_five_classes() {
        let plan = FaultPlan::from_json(
            r#"{"faults": [
                {"at": "1s", "inject": "crash", "on": "svc:1", "for": "500ms"},
                {"at": "2s", "inject": "node-loss", "on": "node:0", "for": 250},
                {"at": "3s", "inject": "pool-leak", "on": "svc:2", "for": "1s", "connections": 4},
                {"at": "4s", "inject": "jitter", "on": "net", "for": "1s", "extra": "200us"},
                {"at": "5s", "inject": "straggler", "on": "svc:1#1", "for": "2s", "slowdown": 4.0}
            ]}"#,
        )
        .unwrap();
        assert_eq!(plan.faults.len(), 5);
        assert_eq!(plan.faults[0].at, SimTime::from_secs(1));
        assert_eq!(plan.faults[0].end(), SimTime::from_millis(1500));
        assert_eq!(
            plan.faults[0].kind,
            FaultKind::ContainerCrash {
                service: ServiceId(1)
            }
        );
        assert_eq!(plan.faults[1].duration, SimDuration::from_millis(250));
        assert_eq!(plan.faults[1].kind, FaultKind::NodeLoss { node: NodeId(0) });
        assert_eq!(
            plan.faults[2].kind,
            FaultKind::PoolLeak {
                service: ServiceId(2),
                connections: 4
            }
        );
        assert_eq!(
            plan.faults[3].kind,
            FaultKind::NetworkJitter {
                extra: SimDuration::from_micros(200)
            }
        );
        assert_eq!(
            plan.faults[4].kind,
            FaultKind::Straggler {
                service: ServiceId(1),
                replica: 1,
                slowdown: 4.0
            }
        );
        assert!(plan.validate(3, 1, 2).is_ok());
    }

    #[test]
    fn toml_plan_parses() {
        let plan = FaultPlan::parse(
            r#"
            # a two-fault chaos scenario
            [[fault]]
            at = "1s"
            inject = "crash"
            on = "svc:0"
            for = "500ms"

            [[fault]]
            at = "2s"          # straggler right after
            inject = "straggler"
            on = "svc:1#1"
            for = "1s"
            slowdown = 3.5
            "#,
        )
        .unwrap();
        assert_eq!(plan.faults.len(), 2);
        assert_eq!(
            plan.faults[0].kind,
            FaultKind::ContainerCrash {
                service: ServiceId(0)
            }
        );
        assert_eq!(
            plan.faults[1].kind,
            FaultKind::Straggler {
                service: ServiceId(1),
                replica: 1,
                slowdown: 3.5
            }
        );
    }

    #[test]
    fn labels_round_trip_targets() {
        let k = FaultKind::Straggler {
            service: ServiceId(1),
            replica: 2,
            slowdown: 4.0,
        };
        assert_eq!(k.label(), "straggler");
        assert_eq!(k.target_label(), "svc:1#2");
        assert_eq!(
            FaultKind::NodeLoss { node: NodeId(3) }.target_label(),
            "node:3"
        );
    }

    #[test]
    fn malformed_plans_are_rejected() {
        assert!(FaultPlan::from_json("{}").is_err(), "missing faults array");
        assert!(
            FaultPlan::from_json(
                r#"{"faults":[{"at":"1s","inject":"melt","on":"svc:0","for":"1s"}]}"#
            )
            .is_err(),
            "unknown fault class"
        );
        assert!(
            FaultPlan::from_json(r#"{"faults":[{"inject":"crash","on":"svc:0","for":"1s"}]}"#)
                .is_err(),
            "missing at"
        );
        assert!(
            FaultPlan::from_json(
                r#"{"faults":[{"at":"1s","inject":"pool-leak","on":"svc:0","for":"1s"}]}"#
            )
            .is_err(),
            "pool-leak needs connections"
        );
        assert!(
            FaultPlan::from_toml("at = \"1s\"").is_err(),
            "key outside table"
        );
        assert!(FaultPlan::from_toml("# nothing\n").is_err(), "empty plan");
    }

    #[test]
    fn validation_catches_out_of_range_targets() {
        let mk = |kind| FaultPlan {
            faults: vec![FaultSpec {
                at: SimTime::from_secs(1),
                duration: SimDuration::from_millis(100),
                kind,
            }],
        };
        assert!(mk(FaultKind::ContainerCrash {
            service: ServiceId(5)
        })
        .validate(3, 1, 1)
        .is_err());
        assert!(mk(FaultKind::NodeLoss { node: NodeId(2) })
            .validate(3, 2, 1)
            .is_err());
        assert!(
            mk(FaultKind::Straggler {
                service: ServiceId(0),
                replica: 1,
                slowdown: 2.0
            })
            .validate(3, 1, 1)
            .is_err(),
            "replica beyond max_replicas"
        );
        assert!(
            mk(FaultKind::Straggler {
                service: ServiceId(0),
                replica: 0,
                slowdown: 1.0
            })
            .validate(3, 1, 1)
            .is_err(),
            "slowdown must exceed 1"
        );
        assert!(mk(FaultKind::PoolLeak {
            service: ServiceId(0),
            connections: 0
        })
        .validate(3, 1, 1)
        .is_err());
        let mut zero = mk(FaultKind::NodeLoss { node: NodeId(0) });
        zero.faults[0].duration = SimDuration::ZERO;
        assert!(zero.validate(3, 1, 1).is_err());
    }
}
