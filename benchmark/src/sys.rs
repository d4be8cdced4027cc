//! What the harness asks of the operating system: process CPU time, peak
//! resident memory, the counting allocator and the host fingerprint.

use crate::json::Json;
use std::alloc::{GlobalAlloc, Layout, System};

/// Counts allocations into `sdm_metrics::alloc_hook` while a
/// `CountingScope` is open; otherwise a relaxed load on top of `System`.
pub struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a call into the
// allocation hook, which touches atomics only and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        sdm_metrics::alloc_hook::note_alloc(layout.size());
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        sdm_metrics::alloc_hook::note_alloc(layout.size());
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        sdm_metrics::alloc_hook::note_alloc(new_size);
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`;
        // the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Kernel clock ticks per second for `/proc/self/stat` (USER_HZ). It is a
/// kernel ABI constant of 100 on every Linux architecture Rust targets.
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

/// CPU seconds (user + system) this process has used, all threads, ended
/// ones included. `None` where `/proc` is missing.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_cpu_ticks(&stat).map(|ticks| ticks as f64 / CLOCK_TICKS_PER_SECOND)
}

/// utime + stime from one `/proc/<pid>/stat` line. The command name (field
/// 2) may contain spaces and parentheses, so fields are counted from the
/// last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // after_comm starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Everything that has to match before two runs' host-clock numbers may be
/// compared, plus the seed and size that make their inputs equal.
pub fn fingerprint(seed: u64, smoke: bool) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("nproc", Json::Num(cores as f64)),
        ("cpu_features", Json::str(cpu_features())),
        (
            "pool_kernel",
            Json::str(embedding::kernels::auto_kernel().name()),
        ),
        ("rustc", Json::str(rustc)),
        ("size", Json::str(if smoke { "smoke" } else { "full" })),
        ("seed", Json::Num(seed as f64)),
    ])
}

fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut found = Vec::new();
        if std::is_x86_feature_detected!("sse2") {
            found.push("sse2");
        }
        if std::is_x86_feature_detected!("avx2") {
            found.push("avx2");
        }
        if std::is_x86_feature_detected!("fma") {
            found.push("fma");
        }
        if std::is_x86_feature_detected!("avx512f") {
            found.push("avx512f");
        }
        found.join("+")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        std::env::consts::ARCH.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_awkward_command_names() {
        let line = "4242 (a b) c)) S 1 2 3 4 5 6 7 8 9 10 120 30 0 0 20 0 1 0 99 1 2";
        assert_eq!(parse_cpu_ticks(line), Some(150));
        assert_eq!(parse_cpu_ticks("garbage"), None);
        assert_eq!(parse_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn this_process_reports_cpu_and_memory() {
        // Linux-only surfaces; elsewhere the readers say `None` and the
        // harness reports the metric as unavailable instead of inventing it.
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(process_cpu_seconds().is_some());
            assert!(peak_rss_mib().is_some_and(|mib| mib > 0.0));
        }
    }
}
