//! What the benchmark reads from the host: heap allocations through a
//! counting global allocator, and memory / CPU figures from `/proc`.
//! Every `/proc` reader returns `None` off Linux.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Where the benchmark writes: `benchmark/out/`, inside the checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory under [`out_dir`], private to this process and
/// removed when dropped.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Result<Self, String> {
        let dir = out_dir().join(format!("scratch-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Counts every heap allocation of the process, on every thread, the way
/// `tests/zero_alloc.rs` does. Installed as the binary's
/// `#[global_allocator]`.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic
// that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap allocations (including reallocations) since process start.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn status_kib(text: &str, field: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    status_kib(&text, "VmHWM:").map(|kib| kib as f64 / 1024.0)
}

/// CPU seconds (user + system) of the whole process, exited threads
/// included, from `/proc/self/stat`. The tick is the 100 Hz `USER_HZ`
/// every Linux ABI exposes there.
pub fn process_cpu_s() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_stat_cpu_ticks(&text).map(|ticks| ticks as f64 / 100.0)
}

fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3; utime and stime are fields 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `(on_cpu_ns, runqueue_wait_ns)` of the main thread from
/// `/proc/self/schedstat`. The wait is time spent runnable but not
/// running: a direct reading of neighbour contention.
pub fn main_thread_schedstat() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    parse_schedstat(&text)
}

fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_whitespace();
    Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_formats() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(status_kib(status, "VmHWM:"), Some(5120));
        assert_eq!(status_kib(status, "VmSwap:"), None);
        let stat = "42 (a b) c) S 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 100 1 2";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(300));
        assert_eq!(parse_schedstat("123456 789 10\n"), Some((123_456, 789)));
        assert_eq!(parse_schedstat(""), None);
    }
}
