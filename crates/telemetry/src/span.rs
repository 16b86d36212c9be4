//! Hierarchical timed spans.
//!
//! A [`Span`] is an RAII guard: entering appends a path segment to a
//! thread-local path (so nested spans get `parent/child` paths), dropping
//! records a [`SpanRecord`] into the active registry. Wall-clock duration is
//! always captured; deterministic quantities (cycles, accesses, bytes) are
//! attached explicitly via [`Span::record`] and exported separately. A
//! span allocates only its record's path and attribute storage.

use std::cell::RefCell;
use std::fmt::{self, Write};
use std::sync::Arc;

use crate::Registry;

/// A finished span as stored in the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// `/`-joined path of enclosing span names, e.g. `fig15/zfost/conv3`.
    pub path: String,
    /// Nesting depth (0 for a root span).
    pub depth: u32,
    /// Creation order within the registry.
    pub seq: u64,
    /// Start, nanoseconds since registry creation (wall clock).
    pub start_ns: u64,
    /// Duration in nanoseconds (wall clock).
    pub dur_ns: u64,
    /// Deterministic attributes, in `record` order: cycles, bytes, …
    pub attrs: Vec<(&'static str, u64)>,
}

/// This thread's open spans: their `/`-joined path, and the offset at
/// which each span's segment (with its leading `/`) starts.
struct OpenPath {
    path: String,
    starts: Vec<usize>,
}

thread_local! {
    static PATH: RefCell<OpenPath> = const {
        RefCell::new(OpenPath {
            path: String::new(),
            starts: Vec::new(),
        })
    };
}

struct Inner {
    reg: Arc<Registry>,
    path: String,
    depth: u32,
    seq: u64,
    start_ns: u64,
    attrs: Vec<(&'static str, u64)>,
}

/// RAII span guard; create with [`Span::enter`] or the [`crate::span!`] macro.
///
/// When telemetry is disabled the guard is inert: no allocation, no
/// registry traffic.
pub struct Span {
    inner: Option<Inner>,
}

impl Span {
    /// Open a span named `name` under the current thread's span stack.
    /// Returns an inert guard, without formatting `name`, when no registry
    /// is active.
    pub fn enter(name: impl fmt::Display) -> Span {
        let Some(reg) = crate::current_scope() else {
            return Span { inner: None };
        };
        let (path, depth) = PATH.with(|p| {
            let open = &mut *p.borrow_mut();
            open.starts.push(open.path.len());
            if open.starts.len() > 1 {
                open.path.push('/');
            }
            write!(open.path, "{name}").expect("a String accepts every write");
            (open.path.clone(), open.starts.len() as u32 - 1)
        });
        let seq = reg.next_seq();
        let start_ns = reg.elapsed_ns();
        Span {
            inner: Some(Inner {
                reg,
                path,
                depth,
                seq,
                start_ns,
                attrs: Vec::new(),
            }),
        }
    }

    /// An inert guard (used by the `span!` macro's disabled arm).
    pub fn disabled() -> Span {
        Span { inner: None }
    }

    /// Attach a deterministic attribute (cycles, accesses, bytes, retries).
    pub fn record(&mut self, key: &'static str, value: u64) {
        if let Some(inner) = self.inner.as_mut() {
            inner.attrs.push((key, value));
        }
    }

    /// Whether this guard is live (a registry was active at `enter`).
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        // Close the innermost open segment, as a stack of names would.
        PATH.with(|p| {
            let open = &mut *p.borrow_mut();
            if let Some(start) = open.starts.pop() {
                open.path.truncate(start);
            }
        });
        let reg = inner.reg;
        let dur_ns = reg.elapsed_ns().saturating_sub(inner.start_ns);
        reg.record_span(SpanRecord {
            path: inner.path,
            depth: inner.depth,
            seq: inner.seq,
            start_ns: inner.start_ns,
            dur_ns,
            attrs: inner.attrs,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_join_paths_and_record_attrs() {
        let reg = Arc::new(Registry::new());
        let _scope = crate::scope(Arc::clone(&reg));
        {
            let mut outer = Span::enter("outer");
            outer.record("cycles", 10);
            {
                let _inner = Span::enter("inner");
            }
        }
        let spans = reg.spans();
        assert_eq!(spans.len(), 2);
        // Inner closes first.
        assert_eq!(spans[0].path, "outer/inner");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[1].path, "outer");
        assert_eq!(spans[1].depth, 0);
        assert_eq!(spans[1].attrs, vec![("cycles", 10)]);
    }

    #[test]
    fn disabled_span_is_inert() {
        let s = Span::enter("nobody-listening");
        assert!(!s.is_active());
    }
}
