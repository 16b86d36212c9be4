//! The telemetry allocation contract, measured with a counting
//! `#[global_allocator]` (which is why this test lives in its own binary
//! with a single `#[test]`). The count is per thread, so the harness's own
//! bookkeeping on its main thread while the test starts does not show.
//!
//! - After one warm-up update per series, updates to existing counter,
//!   gauge and histogram series allocate nothing — labelled or not, with
//!   the labels in either order, through the [`Registry`] methods and
//!   through the scoped free functions.
//! - A span allocates only its record's path and attribute storage (plus
//!   the registry's amortised record list).
//! - The deterministic export renders without copying the registry: a
//!   handful of allocations however many series and spans it holds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use zfgan_telemetry::{Class, Registry};

/// Counts every allocation event (alloc, alloc_zeroed, realloc) of the
/// calling thread and otherwise defers to the system allocator.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates from inside the allocator.
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn alloc_events() -> u64 {
    ALLOC_EVENTS.try_with(Cell::get).unwrap_or(0)
}

fn count() {
    let _ = ALLOC_EVENTS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// This thread's allocation events while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = alloc_events();
    f();
    alloc_events() - before
}

const BOUNDS: [f64; 3] = [1.0, 8.0, 64.0];
const AB: [(&str, &str); 2] = [("arch", "zfost"), ("phase", "s_conv")];
const BA: [(&str, &str); 2] = [("phase", "s_conv"), ("arch", "zfost")];

/// One update to each series, the labels in the order `labels` gives.
fn update_all(reg: &Registry, labels: &[(&str, &str)], i: u64) {
    reg.add(Class::Deterministic, "cycles_total", &[], i);
    reg.add(Class::Deterministic, "cycles_total", labels, i);
    reg.add(Class::WallClock, "steals_total", labels, 1);
    reg.set_gauge(Class::Deterministic, "util", &[], i as f64);
    reg.set_gauge(Class::Deterministic, "util", labels, 0.5);
    reg.observe(Class::Deterministic, "words", &[], &BOUNDS, i as f64);
    reg.observe(Class::WallClock, "words", labels, &BOUNDS, 3.0);
    zfgan_telemetry::count("scoped_total", labels, 1);
    zfgan_telemetry::gauge("scoped_gauge", &[], 2.0);
    zfgan_telemetry::observe("scoped_hist", labels, &BOUNDS, 9.0);
}

#[test]
fn telemetry_updates_spans_and_export_keep_their_allocation_contract() {
    let reg = Arc::new(Registry::new());
    let _scope = zfgan_telemetry::scope(Arc::clone(&reg));

    // Updates to existing series: one warm-up, then none allocate.
    update_all(&reg, &AB, 0);
    let series = reg.snapshot();
    let updates = allocs_during(|| {
        for i in 0..1000 {
            update_all(&reg, if i % 2 == 0 { &BA } else { &AB }, i);
        }
    });
    assert_eq!(updates, 0, "updates to existing series allocated");
    // Label order did not split a series: the warm-up made every one.
    let after = reg.snapshot();
    assert_eq!(after.counters.len(), series.counters.len());
    assert_eq!(after.gauges.len(), series.gauges.len());
    assert_eq!(after.histograms.len(), series.histograms.len());
    assert_eq!(after.counters.len() + after.gauges.len(), 7);
    assert_eq!(after.histograms.len(), 3);

    // Spans: the record's path and its attribute list, once the thread's
    // path buffer has grown; the record list grows amortised.
    {
        let mut warm = zfgan_telemetry::span!("warm/{}", "up");
        warm.record("cycles", 1);
    }
    const SPANS: u64 = 1000;
    let spans = allocs_during(|| {
        let _root = zfgan_telemetry::span!("fig15");
        for i in 0..SPANS {
            let mut span = zfgan_telemetry::span!("cell/{i}");
            span.record("cycles", i);
        }
    });
    assert!(
        spans <= 2 * (SPANS + 1) + 16,
        "{spans} allocations for {} spans",
        SPANS + 1
    );

    // Export: the output string, its one regrowth for the span part and
    // the span order — not a copy of every series and span.
    let mut det = String::new();
    let export = allocs_during(|| det = zfgan_telemetry::export::deterministic_section(&reg));
    assert!(det.contains("\"cycles_total{arch=\\\"zfost\\\",phase=\\\"s_conv\\\"}\":"));
    assert!(export <= 4, "{export} allocations for one export");
}
