//! In-memory spans around every call the traced run makes into a product
//! layer. Spans are recorded from the benchmark's own code only, kept in
//! memory, and written out once when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval: `{name, start_ns, end_ns, parent, op}`. `parent`
/// indexes the span that was open when this one started; `op` is the
/// identifier all spans of one operation share.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span that is never exited records no end time"]
pub struct SpanId(usize);

/// The span recorder of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(16),
            op: 0,
        }
    }

    /// Sets the operation identifier stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` (and any span still open inside it).
    pub fn exit(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id.0 {
                break;
            }
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// The p10 of the spans named `name`, in milliseconds, if there are any.
    pub fn p10_ms(&self, name: &str) -> Option<f64> {
        let d = self.durations_ms(name);
        (!d.is_empty()).then(|| crate::stats::p10(&d))
    }

    /// Total self time in milliseconds by span name, largest first: where
    /// the traced run's time went, every nanosecond counted once.
    pub fn self_ms_by_name(&self) -> Vec<(&'static str, f64)> {
        let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            *by_name.entry(s.name).or_default() += self_ns as f64 / 1e6;
        }
        let mut out: Vec<_> = by_name.into_iter().collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// The spans as one JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span(0, 100, None),    // 0: root
            span(10, 40, Some(0)), // 1: child, 30 long
            span(50, 90, Some(0)), // 2: child, 40 long
            span(55, 70, Some(2)), // 3: grandchild, 15 long
            span(60, 65, Some(3)), // 4: great-grandchild
            span(200, 260, None),  // 5: second root, leaf
        ];
        assert_eq!(self_times_ns(&spans), [30, 30, 25, 10, 5, 60]);
        // The parts sum to the roots' durations.
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100 + 60);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(40, 80, Some(0)),  // overlaps the first child by 20
            span(90, 150, Some(0)), // hangs over the parent's end by 50
        ];
        // Covered: 10..80 and 90..100 = 80.
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn tracer_nests_spans_and_stamps_the_op() {
        let mut t = Tracer::new();
        t.set_op(7);
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        t.exit(inner);
        t.exit(outer);
        t.set_op(8);
        let next = t.enter("next");
        t.exit(next);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("outer", None, 7));
        assert_eq!((s[1].name, s[1].parent, s[1].op), ("inner", Some(0), 7));
        assert_eq!((s[2].name, s[2].parent, s[2].op), ("next", None, 8));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.durations_ms("inner").len(), 1);
        assert!(t.p10_ms("inner").is_some() && t.p10_ms("absent").is_none());
        let total_self: f64 = t.self_ms_by_name().iter().map(|(_, ms)| ms).sum();
        let roots = (s[0].duration_ns() + s[2].duration_ns()) as f64 / 1e6;
        assert!((total_self - roots).abs() < 1e-9);
        let json = t.to_json("w");
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"parent\":0"));
    }
}
