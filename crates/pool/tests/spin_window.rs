//! The worker's spin window only postpones parking: batches submitted while
//! a worker still polls and long after it parked both run every index
//! exactly once, and an idle pool burns no CPU.
//!
//! One test in a binary of its own: the CPU-time reading is the whole
//! process's, so nothing else may be running in it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use zfgan_pool::parallel_for;

/// Nanoseconds every thread of this process has spent on a CPU so far
/// (`/proc/self/task/*/schedstat`, first field), or `None` where the
/// kernel does not say.
fn process_cpu_ns() -> Option<u64> {
    let mut total = 0u64;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let stat = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
        total += stat.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(total)
}

fn run_batch_once(n: usize) {
    let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    parallel_for(n, |i| {
        hits[i].fetch_add(1, Ordering::SeqCst);
    })
    .expect("no task panics");
    assert!(
        hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
        "every index of a {n}-task batch runs exactly once"
    );
}

#[test]
fn batches_inside_and_after_the_spin_window_complete_and_an_idle_pool_parks() {
    // Back to back: each batch lands while the workers of the one before
    // are still polling.
    for n in [2, 64, 3, 257] {
        run_batch_once(n);
    }
    // Well past the window: every worker has parked and must be woken
    // through the version bump.
    for n in [2, 64] {
        std::thread::sleep(Duration::from_millis(50));
        run_batch_once(n);
    }

    // Idle: the workers poll for a fraction of a millisecond, then park on
    // the condvar (its 50 ms timeout wakes each a handful of times here).
    let Some(before) = process_cpu_ns() else {
        eprintln!("skipped: /proc/self/task/*/schedstat is unreadable");
        return;
    };
    std::thread::sleep(Duration::from_millis(300));
    let spent = process_cpu_ns().expect("readable a moment ago") - before;
    assert!(
        spent < 30_000_000,
        "an idle pool spent {spent} ns of CPU in 300 ms: a worker is not parking"
    );
}
