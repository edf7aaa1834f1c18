//! What the kernel knows about this process: peak resident set, CPU
//! time and thread count, read from `/proc/self`.

use std::fs;

/// Kernel clock ticks per second for `/proc/self/stat` (fixed at 100 on
/// every Linux ABI this runs on).
const TICKS_PER_S: f64 = 100.0;

fn status_field(key: &str) -> Option<u64> {
    let text = fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// `VmHWM` — the high-water mark of resident memory, in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Threads alive in this process right now.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(1)
}

/// User + system CPU seconds consumed by every thread of this process.
pub fn cpu_seconds() -> f64 {
    let Ok(text) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line, 12th and 13th after ")".
    let Some((_, rest)) = text.rsplit_once(')') else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_S
}
