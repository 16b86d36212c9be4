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
//! # Activation model
//!
//! Instrumentation is off by default and free-ish when off (one thread-local
//! + one atomic check). Two ways to turn it on:
//!
//! - [`set_enabled`]`(true)` routes events to the process-wide [`global`]
//!   registry — what CLI flags and bench bins use.
//! - [`scope`] pushes a private [`Registry`] onto a thread-local stack; the
//!   innermost scope wins over the global. Tests use this so parallel cargo
//!   test threads never share counters.
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

static GLOBAL: OnceLock<Registry> = OnceLock::new();
static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static SCOPE: RefCell<Vec<Arc<Registry>>> = const { RefCell::new(Vec::new()) };
}

/// The process-wide registry (created on first touch, lives forever).
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Route instrumentation to the [`global`] registry (CLI `--telemetry`,
/// bench bins). A thread-local [`scope`] still takes precedence.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether any registry is currently receiving events on this thread.
pub fn enabled() -> bool {
    SCOPE.with(|s| !s.borrow().is_empty()) || ENABLED.load(Ordering::Relaxed)
}

/// Where an event goes: the innermost thread-local scope, else the global
/// registry when enabled.
pub(crate) enum Target {
    Global(&'static Registry),
    Scoped(Arc<Registry>),
}

impl Target {
    pub(crate) fn registry(&self) -> &Registry {
        match self {
            Target::Global(r) => r,
            Target::Scoped(r) => r,
        }
    }
}

pub(crate) fn target() -> Option<Target> {
    if let Some(reg) = current_scope() {
        return Some(Target::Scoped(reg));
    }
    if ENABLED.load(Ordering::Relaxed) {
        return Some(Target::Global(global()));
    }
    None
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
/// Scopes nest; the innermost wins. This is how tests stay hermetic under
/// cargo's parallel test threads.
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

/// Add `delta` to the deterministic counter `name{labels}` (no-op when
/// telemetry is off).
pub fn count(name: &str, labels: &[(&str, &str)], delta: u64) {
    if let Some(t) = target() {
        t.registry().add(Class::Deterministic, name, labels, delta);
    }
}

/// Set the deterministic gauge `name{labels}` (no-op when telemetry is off).
pub fn gauge(name: &str, labels: &[(&str, &str)], value: f64) {
    if let Some(t) = target() {
        t.registry()
            .set_gauge(Class::Deterministic, name, labels, value);
    }
}

/// Add `delta` to the wall-clock counter `name{labels}` — excluded from the
/// deterministic export section (no-op when telemetry is off). For
/// scheduling-dependent quantities (work steals, queue churn) that must
/// never enter the byte-diffed section.
pub fn count_wall(name: &str, labels: &[(&str, &str)], delta: u64) {
    if let Some(t) = target() {
        t.registry().add(Class::WallClock, name, labels, delta);
    }
}

/// Set the wall-clock gauge `name{labels}` — excluded from the deterministic
/// export section (no-op when telemetry is off).
pub fn gauge_wall(name: &str, labels: &[(&str, &str)], value: f64) {
    if let Some(t) = target() {
        t.registry()
            .set_gauge(Class::WallClock, name, labels, value);
    }
}

/// Observe into the deterministic histogram `name{labels}` with fixed
/// `bounds` (no-op when telemetry is off).
pub fn observe(name: &str, labels: &[(&str, &str)], bounds: &[f64], value: f64) {
    if let Some(t) = target() {
        t.registry()
            .observe(Class::Deterministic, name, labels, bounds, value);
    }
}

/// Observe into a wall-clock histogram — excluded from the deterministic
/// export section (no-op when telemetry is off).
pub fn observe_wall(name: &str, labels: &[(&str, &str)], bounds: &[f64], value: f64) {
    if let Some(t) = target() {
        t.registry()
            .observe(Class::WallClock, name, labels, bounds, value);
    }
}

/// Open a hierarchical timed span: `span!("fig15/zfost/conv3")` or with
/// `format!`-style arguments (`span!("schedule/{arch}/{phase}")`). Returns a
/// [`Span`] guard; attach deterministic attributes with [`Span::record`].
/// Inert (no allocation, no registry traffic) when telemetry is off.
#[macro_export]
macro_rules! span {
    ($($arg:tt)*) => {
        if $crate::enabled() {
            $crate::Span::enter(::std::format!($($arg)*))
        } else {
            $crate::Span::disabled()
        }
    };
}

/// Serialises the lib tests that read or flip the process-global
/// [`ENABLED`] switch (`cargo test` runs tests on parallel threads): the
/// guard holds a lock for the test's duration and switches telemetry back
/// off when dropped, so a test that asserts "disabled" never observes
/// another test's `set_enabled(true)`.
#[cfg(test)]
pub(crate) struct GlobalSwitchGuard {
    _lock: std::sync::MutexGuard<'static, ()>,
}

#[cfg(test)]
impl GlobalSwitchGuard {
    pub(crate) fn lock() -> Self {
        static SWITCH_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());
        // The lock guards no data, so a holder that panicked left nothing
        // half-updated.
        Self {
            _lock: SWITCH_TESTS
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        }
    }
}

#[cfg(test)]
impl Drop for GlobalSwitchGuard {
    fn drop(&mut self) {
        set_enabled(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_means_no_target_and_inert_spans() {
        let _switch = GlobalSwitchGuard::lock();
        // Scoped stack empty on this thread and nobody holds the switch on.
        assert!(SCOPE.with(|s| s.borrow().is_empty()));
        let s = span!("ignored/{}", 1);
        assert!(!s.is_active());
        count("nothing", &[], 1); // must not create the global registry series
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
        let handle = std::thread::spawn(enabled);
        // A fresh thread has no scope; unless the global flag is set by a
        // parallel test it sees telemetry off.
        let _ = handle.join();
        count("c", &[], 3);
        assert_eq!(reg.snapshot().counters[0].2, 3);
    }
}
