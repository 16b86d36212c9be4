//! Metric registry: named counters, gauges and fixed-bucket histograms with
//! label support and a deterministic / wall-clock classification that
//! drives the exporters.
//!
//! An update to an existing series allocates nothing: the series are kept
//! per metric name, sorted by label set, and a lookup finds the name by
//! `&str` and the labels by a binary search with the caller's labels
//! sorted on the stack. Owned strings are built only when a series is
//! first inserted.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use crate::span::SpanRecord;

/// Classification of a metric or span attribute.
///
/// `Deterministic` quantities (cycles, accesses, bytes, retries) are part of
/// the byte-stability contract: two runs with the same seed must produce
/// identical values, and CI diffs them byte-for-byte. `WallClock` quantities
/// (step latency, export duration) vary run to run and are excluded from the
/// deterministic export section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Byte-stable across same-seed runs.
    Deterministic,
    /// Host timing; varies run to run.
    WallClock,
}

/// Identity of a metric: a name plus sorted `(key, value)` label pairs, so
/// `gemm_blocks{backend="zero_free"}` and `gemm_blocks{backend="blocked"}`
/// are distinct time series.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name, e.g. `gemm_blocks`.
    pub name: String,
    /// Label pairs, sorted by key then value.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Build a key from a name and unsorted label slice.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }

    /// Render as `name` or `name{k="v",...}` (Prometheus style).
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let body: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        format!("{}{{{}}}", self.name, body.join(","))
    }
}

/// Label pairs a lookup sorts on the stack; a call with more sorts a heap
/// copy instead.
const INLINE_LABELS: usize = 8;

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bucket bounds (a final implicit `+Inf` bucket follows).
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts; `buckets.len() == bounds.len() + 1`.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
    }
}

/// The value of one series; a histogram is kept in its snapshot form.
pub(crate) enum Value {
    Counter(u64),
    Gauge(f64),
    Histogram(HistogramSnapshot),
}

/// One series of a metric name: its sorted labels, its class (fixed at
/// first use) and its value.
pub(crate) struct Series {
    pub(crate) labels: Vec<(String, String)>,
    pub(crate) class: Class,
    pub(crate) value: Value,
}

/// Every metric of a registry: per name, its series sorted by labels, so
/// walking the map visits series in [`MetricKey`] order.
pub(crate) type Metrics = BTreeMap<String, Vec<Series>>;

/// Point-in-time copy of every metric in a registry, sorted by key.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Monotonic counters.
    pub counters: Vec<(MetricKey, Class, u64)>,
    /// Last-write-wins gauges.
    pub gauges: Vec<(MetricKey, Class, f64)>,
    /// Fixed-bucket histograms.
    pub histograms: Vec<(MetricKey, Class, HistogramSnapshot)>,
}

/// A process- or scope-wide collection of metrics and finished spans.
///
/// Every update takes the map lock, finds its series by the borrowed name
/// and labels, and changes the value in place; an update to an existing
/// series allocates nothing.
pub struct Registry {
    t0: Instant,
    seq: AtomicU64,
    metrics: Mutex<Metrics>,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Registry {
    /// Create an empty registry; `t0` for span timestamps is `now`.
    pub fn new() -> Self {
        Registry {
            t0: Instant::now(),
            seq: AtomicU64::new(0),
            metrics: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the registry was created (span clock).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Next span sequence number (creation order).
    pub(crate) fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Apply `update` to the series `name{labels}`, inserting `class` and
    /// `first()` when the series is new.
    fn update(
        &self,
        class: Class,
        name: &str,
        labels: &[(&str, &str)],
        first: impl FnOnce() -> Value,
        update: impl FnOnce(&mut Value),
    ) {
        let (mut inline, mut heap) = ([("", ""); INLINE_LABELS], Vec::new());
        let sorted = if labels.len() <= INLINE_LABELS {
            inline[..labels.len()].copy_from_slice(labels);
            &mut inline[..labels.len()]
        } else {
            heap.extend_from_slice(labels);
            &mut heap[..]
        };
        sorted.sort_unstable();
        let sorted = &*sorted;
        let search = |family: &[Series]| {
            family.binary_search_by(|series| {
                let stored = series.labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
                stored.cmp(sorted.iter().copied())
            })
        };
        let mut map = lock(&self.metrics);
        if let Some(family) = map.get_mut(name) {
            if let Ok(i) = search(family) {
                update(&mut family[i].value);
                return;
            }
        }
        let family = map.entry(name.to_string()).or_default();
        let at = search(family).unwrap_err();
        let mut value = first();
        update(&mut value);
        let labels = sorted
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        family.insert(
            at,
            Series {
                labels,
                class,
                value,
            },
        );
    }

    /// Add `delta` to the counter `name{labels}` (created on first use).
    pub fn add(&self, class: Class, name: &str, labels: &[(&str, &str)], delta: u64) {
        self.update(
            class,
            name,
            labels,
            || Value::Counter(0),
            |value| {
                // A name reused with a different type drops the update.
                if let Value::Counter(v) = value {
                    *v += delta;
                }
            },
        );
    }

    /// Set the gauge `name{labels}` to `value` (created on first use).
    pub fn set_gauge(&self, class: Class, name: &str, labels: &[(&str, &str)], value: f64) {
        self.update(
            class,
            name,
            labels,
            || Value::Gauge(0.0),
            |cell| {
                if let Value::Gauge(v) = cell {
                    *v = value;
                }
            },
        );
    }

    /// Record `value` into the histogram `name{labels}`.
    ///
    /// `bounds` (upper bucket edges, ascending; a `+Inf` bucket is implicit)
    /// are fixed by the first call; later calls reuse the existing buckets.
    pub fn observe(
        &self,
        class: Class,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
        value: f64,
    ) {
        self.update(
            class,
            name,
            labels,
            || {
                Value::Histogram(HistogramSnapshot {
                    bounds: bounds.to_vec(),
                    buckets: vec![0; bounds.len() + 1],
                    count: 0,
                    sum: 0.0,
                })
            },
            |cell| {
                if let Value::Histogram(h) = cell {
                    h.observe(value);
                }
            },
        );
    }

    /// Append a finished span (called by the [`crate::Span`] guard on drop).
    pub fn record_span(&self, rec: SpanRecord) {
        lock(&self.spans).push(rec);
    }

    /// All finished spans, in recording order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        lock(&self.spans).clone()
    }

    /// Run `f` over every metric under the map lock: the exporters' walk,
    /// which copies nothing.
    pub(crate) fn with_metrics<R>(&self, f: impl FnOnce(&Metrics) -> R) -> R {
        f(&lock(&self.metrics))
    }

    /// Run `f` over every finished span in creation (`seq`) order under
    /// the span lock, borrowing the records rather than copying them.
    pub(crate) fn with_spans_by_seq<R>(&self, f: impl FnOnce(&[&SpanRecord]) -> R) -> R {
        let spans = lock(&self.spans);
        let mut by_seq: Vec<&SpanRecord> = spans.iter().collect();
        by_seq.sort_by_key(|s| s.seq);
        f(&by_seq)
    }

    /// Copy every metric out, sorted by key, so exporters produce
    /// byte-stable output for deterministic values.
    pub fn snapshot(&self) -> Snapshot {
        let map = lock(&self.metrics);
        let mut snap = Snapshot::default();
        for (name, family) in map.iter() {
            for series in family {
                let key = MetricKey {
                    name: name.clone(),
                    labels: series.labels.clone(),
                };
                let class = series.class;
                match &series.value {
                    Value::Counter(v) => snap.counters.push((key, class, *v)),
                    Value::Gauge(v) => snap.gauges.push((key, class, *v)),
                    Value::Histogram(h) => snap.histograms.push((key, class, h.clone())),
                }
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_sorted_and_rendered() {
        let k = MetricKey::new("m", &[("z", "1"), ("a", "2")]);
        assert_eq!(k.render(), "m{a=\"2\",z=\"1\"}");
        assert_eq!(MetricKey::new("m", &[]).render(), "m");
        // Label order at the call site does not split the series.
        assert_eq!(k, MetricKey::new("m", &[("a", "2"), ("z", "1")]));
    }

    #[test]
    fn counters_accumulate_per_label_set() {
        let r = Registry::new();
        r.add(Class::Deterministic, "c", &[("b", "x")], 2);
        r.add(Class::Deterministic, "c", &[("b", "x")], 3);
        r.add(Class::Deterministic, "c", &[("b", "y")], 7);
        let snap = r.snapshot();
        let vals: Vec<u64> = snap.counters.iter().map(|(_, _, v)| *v).collect();
        assert_eq!(vals, vec![5, 7]);
    }

    #[test]
    fn label_order_never_splits_a_series_and_series_walk_in_key_order() {
        let r = Registry::new();
        // Past the stack array, the lookup sorts a heap copy instead.
        let many: Vec<(String, String)> = (0..=INLINE_LABELS)
            .map(|i| (format!("k{i}"), i.to_string()))
            .collect();
        let mut labels: Vec<(&str, &str)> =
            many.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        for n in [INLINE_LABELS + 1, 2, 0, INLINE_LABELS, 1] {
            r.add(Class::Deterministic, "c", &labels[..n], 1);
            labels[..n].reverse();
            r.add(Class::Deterministic, "c", &labels[..n], 1);
            labels[..n].reverse();
        }
        r.add(Class::Deterministic, "b", &[("z", "1")], 1);
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 6);
        assert!(snap.counters[1..].iter().all(|(_, _, v)| *v == 2));
        let keys: Vec<&MetricKey> = snap.counters.iter().map(|(k, _, _)| k).collect();
        assert!(keys.windows(2).all(|pair| pair[0] < pair[1]), "{keys:?}");
        assert_eq!(keys[2], &MetricKey::new("c", &labels[..1]));
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let r = Registry::new();
        for v in [0.5, 1.0, 3.0, 100.0] {
            r.observe(Class::Deterministic, "h", &[], &[1.0, 2.0, 4.0], v);
        }
        let snap = r.snapshot();
        let (_, _, h) = &snap.histograms[0];
        assert_eq!(h.buckets, vec![2, 0, 1, 1]);
        assert_eq!(h.count, 4);
        assert!((h.sum - 104.5).abs() < 1e-9);
    }

    #[test]
    fn type_mismatch_is_dropped_not_panicked() {
        let r = Registry::new();
        r.add(Class::Deterministic, "m", &[], 1);
        r.observe(Class::Deterministic, "m", &[], &[1.0], 0.5);
        r.set_gauge(Class::Deterministic, "m", &[], 9.0);
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters[0].2, 1);
        assert!(snap.histograms.is_empty());
        assert!(snap.gauges.is_empty());
    }
}
