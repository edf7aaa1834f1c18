//! The JSONL wire format of [`TelemetryEvent`] — the only module that
//! knows it (contract: DESIGN.md, crates/telemetry, "Wire format";
//! bytes pinned by `tests/wire.rs`). Each variant's members are declared
//! once, in the `events!` table; encoder and decoder both expand from
//! that row. Encoding appends to a caller-owned buffer and allocates
//! nothing; decoding is one pass that allocates only for `String`/`Vec`
//! fields.

use crate::agg::{LatencyDigest, TopKEntry};
use crate::event::{
    ActionKind, ActionOrigin, ActionOutcome, EventFamily, ReplicaPhase, ScoredAction,
    TelemetryEvent as E,
};
use crate::metrics::{MetricId, MetricSample};
use crate::profile::{ProfileMark, ProfilePhase};
use crate::span::SpanRecord;
use sg_core::ids::{ContainerId, NodeId};
use sg_core::time::{SimDuration, SimTime};
use std::borrow::Cow;
use std::io::Write as _;

/// A decode error: a boxed message, so that an integer reader's result
/// stays two words wide and comes back in registers. Errors are built
/// out of line: the readers are inlined into each event's decoder, and
/// their error paths would swamp it.
#[derive(Debug)]
struct Error(Box<str>);

impl Error {
    #[cold]
    #[inline(never)]
    fn new(message: std::fmt::Arguments<'_>) -> Self {
        Error(message.to_string().into())
    }
}

/// A decode error from a `format!` message.
macro_rules! fail {
    ($($message:tt)*) => {
        Error::new(format_args!($($message)*))
    };
}

/// A type with a wire form.
trait Wire<'a>: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut Reader<'a>) -> Result<Self, Error>;

    /// Append as an object member; `member` is the pre-rendered `"key":`.
    fn put_member(&self, member: &str, out: &mut Vec<u8>) {
        out.extend_from_slice(member.as_bytes());
        self.put(out);
        out.push(b',');
    }

    /// The value of a member the object does not have.
    fn absent(key: &str) -> Result<Self, Error> {
        Err(fail!("missing field '{key}'"))
    }
}

/// A member left out of the object — not written `null` — when it has
/// no value (`arm` of a metric, `family` of a legacy `dropped`).
struct Omit<T>(Option<T>);

/// Cursor over one line's bytes. Structure is ASCII, so only string
/// contents are checked for UTF-8, when [`Reader::string`] reads one.
struct Reader<'a> {
    s: &'a [u8],
    pos: usize,
}

/// `bytes` as text, or the decode error for a line that is not UTF-8.
fn utf8(bytes: &[u8]) -> Result<&str, Error> {
    std::str::from_utf8(bytes).map_err(|e| fail!("{e}"))
}

impl<'a> Reader<'a> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += hit as usize;
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        match self.eat(b) {
            true => Ok(()),
            false => Err(fail!("expected '{}' at byte {}", b as char, self.pos)),
        }
    }

    // Always inlined, like `u64`: with the member key a constant, the
    // match compiles to a few integer compares instead of a `bcmp` call.
    #[inline(always)]
    fn literal(&mut self, lit: &str) -> bool {
        let hit = self.s[self.pos.min(self.s.len())..].starts_with(lit.as_bytes());
        self.pos += if hit { lit.len() } else { 0 };
        hit
    }

    /// The unescaped `"type"` value a line opens with, as the encoder
    /// writes it (`{"type":"`), leaving the cursor after its closing
    /// quote; `None`, with the cursor moved, for any other opening.
    fn leading_type(&mut self) -> Option<&'a [u8]> {
        if !self.literal("{\"type\":\"") {
            return None;
        }
        let start = self.pos;
        let len = self.s[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')?;
        self.pos += len + 1;
        (self.s[start + len] == b'"').then_some(&self.s[start..start + len])
    }

    /// The `"type"` of an object not opened as the encoder opens it.
    /// Leaves the cursor after it if it leads, else back at the first
    /// member, and says whether a member has been consumed.
    fn find_type(&mut self) -> Result<(Cow<'a, [u8]>, bool), Error> {
        self.pos = 0;
        self.ws();
        self.expect(b'{')?;
        let (start, mut first, mut leads) = (self.pos, true, true);
        let typ = loop {
            match self.key(&mut first)? {
                None => return Err(fail!("missing field 'type'")),
                Some(key) if key == "type" => match self.string()? {
                    Cow::Borrowed(typ) => break Cow::Borrowed(typ.as_bytes()),
                    Cow::Owned(typ) => break Cow::Owned(typ.into_bytes()),
                },
                Some(_) => self.skip(0)?,
            }
            leads = false;
        };
        if !leads {
            (self.pos, first) = (start, true);
        }
        Ok((typ, first))
    }

    /// Inside an array or object: step to the next element, or consume
    /// `close` and return `false`.
    fn more(&mut self, first: &mut bool, close: u8) -> Result<bool, Error> {
        self.ws();
        if self.eat(close) {
            return Ok(false);
        }
        if !std::mem::replace(first, false) {
            self.expect(b',')?;
            self.ws();
        }
        Ok(true)
    }

    /// Inside an object: the next member's key, leaving the cursor on
    /// its value; `None` once the closing `}` is consumed.
    fn key(&mut self, first: &mut bool) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.more(first, b'}')? {
            return Ok(None);
        }
        let key = self.string()?;
        self.ws();
        self.expect(b':')?;
        self.ws();
        Ok(Some(key))
    }

    /// A string, borrowed from the line unless it has escapes. Lone
    /// surrogates read as U+FFFD.
    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let (bytes, start) = (self.s, self.pos);
        let (mut run, mut owned) = (start, String::new());
        loop {
            match bytes.get(self.pos) {
                None => return Err(fail!("unterminated string")),
                Some(b'"') => {
                    let tail = utf8(&bytes[run..self.pos])?;
                    self.pos += 1;
                    return Ok(if run == start {
                        Cow::Borrowed(tail)
                    } else {
                        owned.push_str(tail);
                        Cow::Owned(owned)
                    });
                }
                Some(b'\\') => {
                    owned.push_str(utf8(&bytes[run..self.pos])?);
                    let esc = bytes
                        .get(self.pos + 1)
                        .ok_or_else(|| fail!("unterminated escape"))?;
                    self.pos += 2;
                    owned.push(match *esc {
                        b'"' | b'\\' | b'/' => *esc as char,
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let code = bytes
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| u32::from_str_radix(utf8(h).ok()?, 16).ok())
                                .ok_or_else(|| fail!("invalid \\u escape"))?;
                            self.pos += 4;
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(fail!("unknown escape at byte {}", self.pos - 1)),
                    });
                    run = self.pos;
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// The longest run of the JSON number alphabet, as `f64` parses it.
    fn f64(&mut self) -> Result<f64, Error> {
        let start = self.pos;
        while let Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') = self.peek() {
            self.pos += 1;
        }
        let parsed = utf8(&self.s[start..self.pos])
            .ok()
            .and_then(|t| t.parse().ok());
        parsed.ok_or_else(|| fail!("expected a number at byte {start}"))
    }

    /// An unsigned integer; a fraction, exponent or overflow is an error.
    #[inline(always)]
    fn u64(&mut self) -> Result<u64, Error> {
        let start = self.pos;
        let mut v = 0u64;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            let next = v
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(d - b'0')));
            v = next.ok_or_else(|| fail!("integer at byte {start} overflows"))?;
            self.pos += 1;
        }
        if self.pos == start || matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(fail!("expected an unsigned integer at byte {start}"));
        }
        Ok(v)
    }

    /// Any value, checked for syntax and dropped.
    fn skip(&mut self, depth: u32) -> Result<(), Error> {
        let close = match self.peek() {
            Some(b'"') => return self.string().map(drop),
            Some(b'-' | b'0'..=b'9') => return self.f64().map(drop),
            Some(b'{') => b'}',
            Some(b'[') => b']',
            Some(b'n' | b't' | b'f') => return Option::<bool>::get(self).map(drop),
            _ => return Err(fail!("expected a value at byte {}", self.pos)),
        };
        // The skipper recurses: hostile input must not pick the stack depth.
        if depth == 32 {
            return Err(fail!("value nested too deeply"));
        }
        self.pos += 1;
        let mut first = true;
        loop {
            let more = match close {
                b'}' => self.key(&mut first)?.is_some(),
                _ => self.more(&mut first, close)?,
            };
            if !more {
                return Ok(());
            }
            self.skip(depth + 1)?;
        }
    }
}

fn put_u64(mut v: u64, out: &mut Vec<u8>) {
    let mut buf = [0u8; 20];
    let mut i = buf.len() - 1;
    while v >= 10 {
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        i -= 1;
    }
    buf[i] = b'0' + v as u8;
    out.extend_from_slice(&buf[i..]);
}

impl<'a> Wire<'a> for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(*self, out);
    }
    #[inline(always)]
    fn get(r: &mut Reader<'a>) -> Result<Self, Error> {
        r.u64()
    }
}

impl<'a> Wire<'a> for i64 {
    fn put(&self, out: &mut Vec<u8>) {
        if *self < 0 {
            out.push(b'-');
        }
        put_u64(self.unsigned_abs(), out);
    }
    #[inline(always)]
    fn get(r: &mut Reader<'a>) -> Result<Self, Error> {
        let (negative, magnitude) = (r.eat(b'-'), r.u64()?);
        let value = match negative {
            true => 0i64.checked_sub_unsigned(magnitude),
            false => i64::try_from(magnitude).ok(),
        };
        value.ok_or_else(|| fail!("{magnitude} does not fit an i64"))
    }
}

impl<'a> Wire<'a> for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        if self.is_finite() {
            write!(out, "{self}").expect("writing to a Vec cannot fail");
        } else {
            out.extend_from_slice(b"null");
        }
    }
    fn get(r: &mut Reader<'a>) -> Result<Self, Error> {
        r.f64()
    }
}

impl<'a> Wire<'a> for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(if *self { b"true" } else { b"false" });
    }
    fn get(r: &mut Reader<'a>) -> Result<Self, Error> {
        let value = r.literal("true");
        match value || r.literal("false") {
            true => Ok(value),
            false => Err(fail!("expected a boolean at byte {}", r.pos)),
        }
    }
}

fn put_str(s: &str, out: &mut Vec<u8>) {
    out.push(b'"');
    let mut rest = s.as_bytes();
    let special = |b: &u8| *b < 0x20 || *b == b'"' || *b == b'\\';
    while let Some(i) = rest.iter().position(special) {
        out.extend_from_slice(&rest[..i]);
        match rest[i] {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b => write!(out, "\\u{b:04x}").expect("writing to a Vec cannot fail"),
        }
        rest = &rest[i + 1..];
    }
    out.extend_from_slice(rest);
    out.push(b'"');
}

impl<'a> Wire<'a> for Cow<'a, str> {
    fn put(&self, out: &mut Vec<u8>) {
        put_str(self, out);
    }
    fn get(r: &mut Reader<'a>) -> Result<Self, Error> {
        r.string()
    }
}

impl<'a, T: Wire<'a>> Wire<'a> for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Some(v) => v.put(out),
            None => out.extend_from_slice(b"null"),
        }
    }
    #[inline(always)]
    fn get(r: &mut Reader<'a>) -> Result<Self, Error> {
        match r.literal("null") {
            true => Ok(None),
            false => T::get(r).map(Some),
        }
    }
}

impl<'a, T: Wire<'a>> Wire<'a> for Omit<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }
    fn get(r: &mut Reader<'a>) -> Result<Self, Error> {
        T::get(r).map(|v| Omit(Some(v)))
    }
    fn put_member(&self, member: &str, out: &mut Vec<u8>) {
        if let Some(v) = &self.0 {
            v.put_member(member, out);
        }
    }
    fn absent(_key: &str) -> Result<Self, Error> {
        Ok(Omit(None))
    }
}

impl<'a, T: Wire<'a>> Wire<'a> for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(b'[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            v.put(out);
        }
        out.push(b']');
    }
    fn get(r: &mut Reader<'a>) -> Result<Self, Error> {
        r.expect(b'[')?;
        let (mut out, mut first) = (Vec::new(), true);
        while r.more(&mut first, b']')? {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

/// Fixed-arity arrays (`[container, score]`, `[key, weight, err]`);
/// further elements are skipped, as unknown members are.
macro_rules! wire_tuple {
    ($($t:ident),+) => {
        #[allow(non_snake_case)]
        impl<'a, $($t: Wire<'a>),+> Wire<'a> for ($($t,)+) {
            fn put(&self, out: &mut Vec<u8>) {
                let ($($t,)+) = self;
                out.push(b'[');
                $(
                    $t.put(out);
                    out.push(b',');
                )+
                *out.last_mut().expect("just pushed") = b']';
            }
            fn get(r: &mut Reader<'a>) -> Result<Self, Error> {
                r.expect(b'[')?;
                let mut first = true;
                let v = ($(
                    match r.more(&mut first, b']')? {
                        true => $t::get(r)?,
                        false => return Err(fail!("array too short")),
                    },
                )+);
                while r.more(&mut first, b']')? {
                    r.skip(0)?;
                }
                Ok(v)
            }
        }
    };
}
wire_tuple!(A, B);
wire_tuple!(A, B, C);

/// A type carried as another: a narrow integer as `u64` (too wide a
/// value is an error), `SimTime` as nanoseconds, an enumeration by name.
macro_rules! wire_as {
    ($($t:ty as $w:ty: |$v:ident| $to:expr, $from:expr;)*) => {$(
        impl<'a> Wire<'a> for $t {
            fn put(&self, out: &mut Vec<u8>) {
                let $v = self;
                Wire::put(&$to, out);
            }
            #[inline(always)]
            fn get(r: &mut Reader<'a>) -> Result<Self, Error> {
                <$w>::get(r).and_then($from)
            }
        }
    )*};
}

/// Look a wire name up among `all` values of an enumeration.
fn named<T: Copy>(all: &[T], name_of: fn(T) -> &'static str, name: &str) -> Result<T, Error> {
    let found = all.iter().copied().find(|&v| name_of(v) == name);
    found.ok_or_else(|| fail!("unknown name '{name}'"))
}

wire_as! {
    u8 as u64: |v| u64::from(*v), |v| u8::try_from(v).map_err(|_| fail!("{v} is not a u8"));
    u32 as u64: |v| u64::from(*v), |v| u32::try_from(v).map_err(|_| fail!("{v} is not a u32"));
    String as Cow<'a, str>: |s| Cow::from(s.as_str()), |s| Ok(s.into_owned());
    SimTime as u64: |t| t.as_nanos(), |v| Ok(SimTime::from_nanos(v));
    SimDuration as u64: |d| d.as_nanos(), |v| Ok(SimDuration::from_nanos(v));
    NodeId as u32: |n| n.0, |v| Ok(NodeId(v));
    ContainerId as u32: |c| c.0, |v| Ok(ContainerId(v));
    TopKEntry as (u64, u64, u64): |e| (e.key, e.weight, e.err),
        |(key, weight, err)| Ok(TopKEntry { key, weight, err });
    EventFamily as Cow<'a, str>: |f| Cow::from(f.name()), |s| {
        use EventFamily::*;
        named(&[Decision, Span, Metrics, Profile], EventFamily::name, &s)
    };
    ActionOrigin as Cow<'a, str>: |o| Cow::from(o.name()),
        |s| named(&[ActionOrigin::Tick, ActionOrigin::PacketHook], ActionOrigin::name, &s);
    ActionOutcome as Cow<'a, str>: |o| Cow::from(o.name()), |s| {
        use ActionOutcome::*;
        named(&[Applied, Deferred, Clamped, RejectedCrossNode], ActionOutcome::name, &s)
    };
    ReplicaPhase as Cow<'a, str>: |p| Cow::from(p.name()), |s| {
        use ReplicaPhase::*;
        named(&[Spawned, Draining, Retired], ReplicaPhase::name, &s)
    };
    ProfilePhase as Cow<'a, str>: |p| Cow::from(p.name()),
        |s| ProfilePhase::from_wire(&s).ok_or_else(|| fail!("unknown profile phase '{s}'"));
    ProfileMark as Cow<'a, str>: |m| Cow::from(m.name()),
        |s| ProfileMark::from_wire(&s).ok_or_else(|| fail!("unknown profile mark '{s}'"));
}

/// Append the declared members and close the object. Each member
/// leaves a trailing comma; the last one becomes the `}`.
macro_rules! put_members {
    ($out:ident; $($name:ident : $key:literal $ty:ty $(= $enc:expr)?),*) => {
        $({
            $(let $name = &$enc;)?
            Wire::put_member($name, concat!("\"", $key, "\":"), $out);
        })*
        *$out.last_mut().expect("an object has members") = b'}';
    };
}

/// Read the rest of an object into one local per declared member. A
/// member where the encoder puts it (next, compact) is taken without a
/// key search; the loop takes the rest: first wins, unknown are skipped.
macro_rules! get_members {
    ($r:ident, $first:ident; $($name:ident : $key:literal $ty:ty $(= $enc:expr)?),*) => {
        $(let mut $name: Option<$ty> = None;)*
        $(if !$first && $r.literal(concat!(",\"", $key, "\":")) {
            $name = Some(<$ty as Wire>::get($r)?);
        })*
        // An encoder line closes right after its last member.
        if !$r.eat(b'}') {
            while let Some(key) = $r.key(&mut $first)? {
                match &*key {
                    $($key if $name.is_none() => $name = Some(<$ty as Wire>::get($r)?),)*
                    _ => $r.skip(0)?,
                }
            }
        }
        $(let $name = match $name {
            Some(v) => v,
            None => <$ty as Wire>::absent($key)?,
        };)*
    };
}

/// The event table, one row per variant:
/// `"type" [pattern] { local: "key" WireType (= value to write)?, ... } { statements }`
/// The pattern destructures the event for writing; a member without
/// `= value` writes the binding of its own name. Decoding fills one
/// local per member, runs the statements (checks; locals the pattern
/// names that no member supplies) and reads the pattern as the event.
macro_rules! events {
    ($($typ:literal [$($shape:tt)*] { $($members:tt)* } { $($finish:tt)* })*) => {
        /// Append `event` as one compact JSON object (no newline).
        pub(crate) fn encode(event: &E, out: &mut Vec<u8>) {
            match event {$(
                $($shape)* => {
                    out.extend_from_slice(concat!("{\"type\":\"", $typ, "\",").as_bytes());
                    put_members!(out; $($members)*);
                }
            )*}
        }

        /// Decode the members of a `typ` event; `r` is inside the object
        /// and `first` says whether it has consumed a member yet.
        #[inline(always)]
        fn members(typ: &[u8], r: &mut Reader<'_>, mut first: bool) -> Result<E, Error> {
            match typ {
                $(t if t == $typ.as_bytes() => {
                    get_members!(r, first; $($members)*);
                    $($finish)*
                    Ok($($shape)*)
                })*
                other => Err(fail!("unknown event type '{}'", String::from_utf8_lossy(other))),
            }
        }
    };
}

events! {
    "action" [E::Action { at, node, container, origin, kind, outcome }] {
        at: "at_ns" SimTime, node: "node" NodeId, container: "container" ContainerId,
        origin: "origin" ActionOrigin, name: "kind" Cow<str> = Cow::from(kind.name()),
        arg: "arg" u32 = kind.arg(), outcome: "outcome" ActionOutcome
    } { let kind = ActionKind::from_wire(&name, arg).ok_or_else(|| fail!("bad action kind or argument"))?; }
    "alloc" [E::Alloc { at, container, cores, freq_level, freq_ghz }] {
        at: "at_ns" SimTime, container: "container" ContainerId, cores: "cores" u32,
        freq_level: "freq_level" u8, freq_ghz: "freq_ghz" f64
    } {}
    "fr_boost" [E::FrBoost { at, node, dest, slack_ns, level, targets }] {
        at: "at_ns" SimTime, node: "node" NodeId, dest: "dest" ContainerId,
        slack_ns: "slack_ns" i64, level: "level" u8, targets: "targets" u32
    } {}
    "window" [E::Window {
        at, node, container, requests, mean_exec_time_ns, mean_exec_metric_ns, queue_buildup,
        upscale_hints,
    }] {
        at: "at_ns" SimTime, node: "node" NodeId, container: "container" ContainerId,
        requests: "requests" u64, mean_exec_time_ns: "mean_exec_time_ns" u64,
        mean_exec_metric_ns: "mean_exec_metric_ns" u64, queue_buildup: "queue_buildup" f64,
        upscale_hints: "upscale_hints" u64
    } {}
    "scoreboard" [E::Scoreboard { at, node, scores, actions }] {
        at: "at_ns" SimTime, node: "node" NodeId, scores: "scores" Vec<(ContainerId, u32)>,
        actions: "actions" Vec<ScoredAction>
    } {}
    "replica" [E::ReplicaLifecycle { at, node, container, service, replica, phase, active }] {
        at: "at_ns" SimTime, node: "node" NodeId, container: "container" ContainerId,
        service: "service" ContainerId, replica: "replica" u32, phase: "phase" ReplicaPhase,
        active: "active" u32
    } {}
    "fault" [E::Fault { at, fault, target, active }] {
        at: "at_ns" SimTime, fault: "fault" String, target: "target" String, active: "active" bool
    } {}
    "span" [E::Span(SpanRecord {
        trace, span, parent, container, node, start, end, net_in, conn_wait, service,
        downstream, freq_level, slack_ns,
    })] {
        trace: "trace" u64, span: "span" u64, parent: "parent" Option<u64>,
        container: "container" Option<ContainerId>, node: "node" Option<NodeId>,
        start: "start_ns" SimTime, end: "end_ns" SimTime, net_in: "net_in_ns" SimDuration,
        conn_wait: "conn_wait_ns" SimDuration, service: "service_ns" SimDuration,
        downstream: "downstream_ns" SimDuration, freq_level: "freq_level" u8,
        slack_ns: "slack_ns" i64
    } {}
    "metric" [E::Metric(MetricSample { at, node, container, metric, value })] {
        at: "at_ns" SimTime, node: "node" NodeId, container: "container" ContainerId,
        name: "metric" Cow<str> = Cow::from(metric.name()),
        arm: "arm" Omit<u8> = Omit(metric.arm()), value: "value" f64
    } { let metric = MetricId::from_wire(&name, arm.0).ok_or_else(|| fail!("unknown metric or arm"))?; }
    "metrics_meta" [E::MetricsMeta { version, interval_ns }] {
        version: "version" u32, interval_ns: "interval_ns" u64
    } {}
    "digest" [E::Digest { at, node, digest }] {
        at: "at_ns" SimTime, node: "node" NodeId, sig_bits: "sig_bits" u32 = digest.sig_bits(),
        count: "count" u64 = digest.len(),
        min_ns: "min_ns" u64 = if digest.is_empty() { 0 } else { digest.bounds().0 },
        max_ns: "max_ns" u64 = digest.bounds().1, sum_ns: "sum_ns" u64 = digest.bounds().2,
        buckets: "buckets" Vec<(u32, u64)> = digest.bucket_counts().collect::<Vec<_>>()
    } {
        let digest = LatencyDigest::from_parts(sig_bits, buckets, min_ns, max_ns, sum_ns)
            .map_err(|e| fail!("{e}"))?;
        if digest.len() != count {
            return Err(fail!("digest bucket counts disagree with 'count'"));
        }
    }
    "slo" [E::Slo { at, node, qos_ns, total, bad }] {
        at: "at_ns" SimTime, node: "node" NodeId, qos_ns: "qos_ns" u64, total: "total" u64,
        bad: "bad" u64
    } {
        if bad > total {
            return Err(fail!("slo 'bad' exceeds 'total'"));
        }
    }
    "topk" [E::TopK { at, node, capacity, entries }] {
        at: "at_ns" SimTime, node: "node" NodeId, capacity: "capacity" u32,
        entries: "entries" Vec<TopKEntry>
    } {}
    "dropped" [E::Dropped { count, family }] {
        count: "count" u64, family: "family" Omit<EventFamily> = Omit(*family)
    } { let family = family.0; }
    "schema" [E::Schema { schema }] { schema: "schema" String } {}
    "profile_meta" [E::ProfileMeta { version, substrate, wall_ns }] {
        version: "version" u32, substrate: "substrate" String, wall_ns: "wall_ns" u64
    } {}
    "profile_phase" [E::ProfilePhase { phase, count, sampled, total_ns, p50_ns, p99_ns, max_ns }] {
        phase: "phase" ProfilePhase, count: "count" u64, sampled: "sampled" u64,
        total_ns: "total_ns" u64, p50_ns: "p50_ns" u64, p99_ns: "p99_ns" u64,
        max_ns: "max_ns" u64
    } {}
    "profile_mark" [E::ProfileMark { mark, value }] {
        mark: "mark" ProfileMark, value: "value" u64
    } {}
}

impl<'a> Wire<'a> for ScoredAction {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(b'{');
        put_members!(out; container: "container" ContainerId = self.container,
            name: "kind" Cow<str> = Cow::from(self.kind.name()), arg: "arg" u32 = self.kind.arg(),
            reason: "reason" String = self.reason);
    }
    fn get(r: &mut Reader<'a>) -> Result<Self, Error> {
        r.expect(b'{')?;
        let mut first = true;
        get_members!(r, first; container: "container" ContainerId, name: "kind" Cow<str>,
            arg: "arg" u32, reason: "reason" String);
        let kind = ActionKind::from_wire(&name, arg)
            .ok_or_else(|| fail!("bad action kind or argument"))?;
        Ok(ScoredAction {
            container,
            kind,
            reason,
        })
    }
}

/// Decode one line. `"type"` leads every line [`encode`] writes, so its
/// value is taken by a prefix compare and the members are read in the
/// same pass; a type found later (or escaped) is looked up by key and
/// the object is reread.
pub(crate) fn decode(s: &[u8]) -> Result<E, String> {
    let mut r = Reader { s, pos: 0 };
    let (typ, first) = match r.leading_type() {
        Some(typ) => (Cow::Borrowed(typ), false),
        None => r.find_type().map_err(|e| String::from(e.0))?,
    };
    let event = members(&typ, &mut r, first).map_err(|e| String::from(e.0))?;
    r.ws();
    if r.pos != s.len() {
        return Err(format!("trailing characters at byte {}", r.pos));
    }
    Ok(event)
}
