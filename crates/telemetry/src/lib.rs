//! `zfgan-telemetry` — the unified observability layer every zfgan subsystem
//! feeds: labelled counters / gauges / fixed-bucket histograms, hierarchical
//! timed spans, and three exporters (Chrome-trace/Perfetto JSON, Prometheus
//! text exposition, human summary table).
//!
//! # Determinism contract
//!
//! Every metric and span attribute carries a [`Class`]:
//! [`Class::Deterministic`] quantities (cycles, accesses, bytes, retries)
//! must be byte-stable across two runs with the same seed, and
//! [`export::deterministic_section`] serialises exactly those — sorted,
//! canonical — so CI can `diff` them byte-for-byte. Wall-clock timings
//! (span durations, latency histograms) live next to them but are exported
//! separately and never mix into the deterministic section.
//!
//! # Allocation contract
//!
//! An update to an existing series allocates nothing: [`Registry::add`],
//! [`Registry::set_gauge`] and [`Registry::observe`] (and the scoped
//! helpers over them) find the series by the borrowed name and labels,
//! and build an owned [`MetricKey`] only when they insert a new one. A
//! span allocates only its record's path and attribute storage, and
//! [`export::deterministic_section`] renders from the registry without
//! copying it.
//!
//! # Activation model
//!
//! Instrumentation is off by default and free-ish when off (one
//! thread-local check). The one way to turn it on is [`scope`]: it pushes
//! a [`Registry`] onto a thread-local stack, and the innermost scope
//! receives the thread's events until its guard drops. A task that runs on
//! another thread on behalf of a scoped one re-enters the caller's
//! registry there ([`current_scope`]), so parallel work lands in one place
//! and parallel cargo test threads never share counters.
//!
//! ```
//! use std::sync::Arc;
//! let reg = Arc::new(zfgan_telemetry::Registry::new());
//! let _guard = zfgan_telemetry::scope(Arc::clone(&reg));
//! {
//!     let mut span = zfgan_telemetry::span!("fig15/zfost/conv3");
//!     span.record("cycles", 1234);
//!     zfgan_telemetry::count("gemm_blocks", &[("backend", "zero_free")], 8);
//! }
//! assert_eq!(reg.snapshot().counters[0].2, 8);
//! ```

#![deny(missing_docs)]

mod registry;
mod span;

pub mod export;
pub mod http;

pub use registry::{Class, HistogramSnapshot, MetricKey, Registry, Snapshot};
pub use span::{Span, SpanRecord};

use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    static SCOPE: RefCell<Vec<Arc<Registry>>> = const { RefCell::new(Vec::new()) };
}

/// Whether this thread holds a [`scope`], i.e. whether a registry is
/// receiving its events.
pub fn enabled() -> bool {
    SCOPE.with(|s| !s.borrow().is_empty())
}

/// RAII guard returned by [`scope`]; pops the registry on drop.
pub struct ScopeGuard {
    _priv: (),
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPE.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Route this thread's instrumentation to `reg` until the guard drops.
/// Scopes nest; the innermost wins.
pub fn scope(reg: Arc<Registry>) -> ScopeGuard {
    SCOPE.with(|s| s.borrow_mut().push(reg));
    ScopeGuard { _priv: () }
}

/// The registry this thread's innermost [`scope`] routes to, if any. A
/// task that runs on another thread on behalf of this one (a pool task)
/// hands it to [`scope`] there, so its events land where they would have
/// landed had the calling thread run the work itself.
pub fn current_scope() -> Option<Arc<Registry>> {
    SCOPE.with(|s| s.borrow().last().cloned())
}

/// Run `f` on the innermost scope's registry, if any, without touching its
/// reference count.
fn in_scope(f: impl FnOnce(&Registry)) {
    SCOPE.with(|s| {
        if let Some(reg) = s.borrow().last() {
            f(reg);
        }
    });
}

/// Add `delta` to the deterministic counter `name{labels}` (no-op when
/// telemetry is off).
pub fn count(name: &str, labels: &[(&str, &str)], delta: u64) {
    in_scope(|reg| reg.add(Class::Deterministic, name, labels, delta));
}

/// Set the deterministic gauge `name{labels}` (no-op when telemetry is off).
pub fn gauge(name: &str, labels: &[(&str, &str)], value: f64) {
    in_scope(|reg| reg.set_gauge(Class::Deterministic, name, labels, value));
}

/// Add `delta` to the wall-clock counter `name{labels}` — excluded from the
/// deterministic export section (no-op when telemetry is off). For
/// scheduling-dependent quantities (work steals, queue churn) that must
/// never enter the byte-diffed section.
pub fn count_wall(name: &str, labels: &[(&str, &str)], delta: u64) {
    in_scope(|reg| reg.add(Class::WallClock, name, labels, delta));
}

/// Set the wall-clock gauge `name{labels}` — excluded from the deterministic
/// export section (no-op when telemetry is off).
pub fn gauge_wall(name: &str, labels: &[(&str, &str)], value: f64) {
    in_scope(|reg| reg.set_gauge(Class::WallClock, name, labels, value));
}

/// Observe into the deterministic histogram `name{labels}` with fixed
/// `bounds` (no-op when telemetry is off).
pub fn observe(name: &str, labels: &[(&str, &str)], bounds: &[f64], value: f64) {
    in_scope(|reg| reg.observe(Class::Deterministic, name, labels, bounds, value));
}

/// Observe into a wall-clock histogram — excluded from the deterministic
/// export section (no-op when telemetry is off).
pub fn observe_wall(name: &str, labels: &[(&str, &str)], bounds: &[f64], value: f64) {
    in_scope(|reg| reg.observe(Class::WallClock, name, labels, bounds, value));
}

/// Open a hierarchical timed span: `span!("fig15/zfost/conv3")` or with
/// `format!`-style arguments (`span!("schedule/{arch}/{phase}")`), written
/// straight into the thread's span path. Returns a [`Span`] guard; attach
/// deterministic attributes with [`Span::record`]. Inert (no formatting,
/// no allocation, no registry traffic) when telemetry is off.
#[macro_export]
macro_rules! span {
    ($($arg:tt)*) => {
        if $crate::enabled() {
            $crate::Span::enter(::std::format_args!($($arg)*))
        } else {
            $crate::Span::disabled()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_means_no_target_and_inert_spans() {
        assert!(!enabled());
        let s = span!("ignored/{}", 1);
        assert!(!s.is_active());
        count("nothing", &[], 1); // no registry to land in
    }

    #[test]
    fn innermost_scope_wins() {
        let outer = Arc::new(Registry::new());
        let inner = Arc::new(Registry::new());
        let _a = scope(Arc::clone(&outer));
        {
            let _b = scope(Arc::clone(&inner));
            count("c", &[], 1);
        }
        count("c", &[], 10);
        assert_eq!(inner.snapshot().counters[0].2, 1);
        assert_eq!(outer.snapshot().counters[0].2, 10);
    }

    #[test]
    fn wall_helpers_stay_out_of_deterministic_section() {
        let reg = Arc::new(Registry::new());
        let _g = scope(Arc::clone(&reg));
        count_wall("pool_steals_total", &[], 2);
        gauge_wall("pool_queue_depth", &[], 3.0);
        count("det_counter", &[], 1);
        let sec = export::deterministic_section(&reg);
        assert!(sec.contains("det_counter"));
        assert!(!sec.contains("pool_steals_total"));
        assert!(!sec.contains("pool_queue_depth"));
    }

    #[test]
    fn a_scope_reentered_on_another_thread_collects_its_events() {
        let reg = Arc::new(Registry::new());
        let _g = scope(Arc::clone(&reg));
        let handed = current_scope();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _lane = handed.clone().map(scope);
                count("c", &[], 2);
            });
        });
        count("c", &[], 1);
        assert_eq!(reg.snapshot().counters[0].2, 3);
        drop(_g);
        assert!(current_scope().is_none());
    }

    #[test]
    fn scoped_threads_do_not_leak_across() {
        let reg = Arc::new(Registry::new());
        let _g = scope(Arc::clone(&reg));
        // A fresh thread has no scope, so it sees telemetry off.
        assert!(!std::thread::spawn(enabled).join().unwrap());
        count("c", &[], 3);
        assert_eq!(reg.snapshot().counters[0].2, 3);
    }
}
