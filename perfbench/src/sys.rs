//! Process facts read from `/proc/self` (Linux): peak resident memory
//! and the bytes passed through `read`/`write` system calls.

use std::fs;

fn status_kib(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size of this process so far, megabytes (10^6
/// bytes, from `VmHWM`); 0 when the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 * 1024.0 / 1e6)
}

/// Cumulative bytes this process has read and written through system
/// calls (`rchar`, `wchar` of `/proc/self/io`, all threads included);
/// `(0, 0)` when unavailable.
pub fn io_bytes() -> (u64, u64) {
    let Ok(io) = fs::read_to_string("/proc/self/io") else {
        return (0, 0);
    };
    let field = |name: &str| {
        io.lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0)
    };
    (field("rchar:"), field("wchar:"))
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
