//! Exporters: Chrome-trace/Perfetto JSON, Prometheus text exposition, a
//! human-readable summary table, and the canonical deterministic section.
//!
//! All JSON here is hand-rolled (the crate is dependency-free) and, for the
//! deterministic section, canonical: metrics sorted by key, spans sorted by
//! creation order, integers only or Rust's shortest-roundtrip float display.
//! That is what lets CI diff two runs byte-for-byte.

use std::fmt::{self, Write};

use crate::registry::{Class, Metrics, Registry, Snapshot, Value};
use crate::span::SpanRecord;

/// Append formatted text (`format_args!`) to `out`.
fn push_fmt(out: &mut String, args: fmt::Arguments<'_>) {
    out.write_fmt(args).expect("a String accepts every write");
}

/// Append each of `items` through `render`, comma-separated.
fn push_joined<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut render: impl FnMut(&mut String, T),
) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        render(out, item);
    }
}

/// Append `s` escaped for inclusion inside a JSON string literal.
fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => push_fmt(out, format_args!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Append the series key `name{k="v",...}` escaped for a JSON string
/// literal, without rendering it first.
fn push_escaped_key(out: &mut String, name: &str, labels: &[(String, String)]) {
    push_escaped(out, name);
    if labels.is_empty() {
        return;
    }
    out.push('{');
    push_joined(out, labels, |out, (k, v)| {
        push_escaped(out, k);
        out.push_str("=\\\"");
        push_escaped(out, v);
        out.push_str("\\\"");
    });
    out.push('}');
}

/// Shortest-roundtrip float display; integral values print without `.0`
/// noise beyond Rust's default (`1` stays `1`, `1.5` stays `1.5`).
fn push_f64(out: &mut String, v: f64) {
    if v == v.trunc() && v.abs() < 1e15 {
        push_fmt(out, format_args!("{}", v as i64));
    } else {
        push_fmt(out, format_args!("{v}"));
    }
}

/// [`push_f64`] into a fresh string, for the text exporters.
fn fmt_f64(v: f64) -> String {
    let mut out = String::new();
    push_f64(&mut out, v);
    out
}

/// [`push_f64`] for a JSON member: NaN and ±∞ have no JSON number form and
/// print as `null` (what the serde shim prints), so a section holding one
/// still parses — cell payloads embed it and `report --check` re-reads it.
fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        push_f64(out, v);
    } else {
        out.push_str("null");
    }
}

/// Append nanoseconds as fractional microseconds (Chrome-trace `ts`/`dur`).
fn push_us(out: &mut String, ns: u64) {
    push_fmt(out, format_args!("{}.{:03}", ns / 1000, ns % 1000));
}

/// Append a span's attributes as a JSON object, in `record` order.
fn push_span_attrs(out: &mut String, rec: &SpanRecord) {
    out.push('{');
    push_joined(out, &rec.attrs, |out, (k, v)| {
        out.push('"');
        push_escaped(out, k);
        push_fmt(out, format_args!("\":{v}"));
    });
    out.push('}');
}

/// Append `"key":value` for every deterministic series whose value `pick`
/// accepts, comma-separated in key order.
fn push_members<'a, V>(
    out: &mut String,
    metrics: &'a Metrics,
    pick: impl Fn(&'a Value) -> Option<V>,
    mut render: impl FnMut(&mut String, V),
) {
    let pick = &pick;
    let members = metrics.iter().flat_map(|(name, family)| {
        family
            .iter()
            .filter(|series| series.class == Class::Deterministic)
            .filter_map(move |series| Some((name, &series.labels, pick(&series.value)?)))
    });
    push_joined(out, members, |out, (name, labels, value)| {
        out.push('"');
        push_escaped_key(out, name, labels);
        out.push_str("\":");
        render(out, value);
    });
}

/// Bytes reserved per series and per span: about what one renders to in a
/// DSE cell's section, so a section seldom regrows its string.
const ENTRY_BYTES: usize = 128;

/// Append the deterministic section to `out`: rendered straight from the
/// registry under its locks, copying no metric or span.
fn push_deterministic(out: &mut String, reg: &Registry) {
    reg.with_metrics(|metrics| {
        out.reserve(ENTRY_BYTES * (1 + metrics.values().map(Vec::len).sum::<usize>()));
        out.push_str("{\"counters\":{");
        push_members(
            out,
            metrics,
            |value| match value {
                Value::Counter(v) => Some(*v),
                _ => None,
            },
            |out, v| push_fmt(out, format_args!("{v}")),
        );
        out.push_str("},\"gauges\":{");
        push_members(
            out,
            metrics,
            |value| match value {
                Value::Gauge(v) => Some(*v),
                _ => None,
            },
            push_json_f64,
        );
        out.push_str("},\"histograms\":{");
        push_members(
            out,
            metrics,
            |value| match value {
                Value::Histogram(h) => Some(h),
                _ => None,
            },
            |out, h| {
                out.push_str("{\"bounds\":[");
                push_joined(out, &h.bounds, |out, b| push_json_f64(out, *b));
                out.push_str("],\"buckets\":[");
                push_joined(out, &h.buckets, |out, b| push_fmt(out, format_args!("{b}")));
                push_fmt(out, format_args!("],\"count\":{}}}", h.count));
            },
        );
    });
    out.push_str("},\"spans\":[");
    reg.with_spans_by_seq(|spans| {
        out.reserve(ENTRY_BYTES * spans.len());
        push_joined(out, spans, |out, s| {
            out.push_str("{\"path\":\"");
            push_escaped(out, &s.path);
            out.push_str("\",\"attrs\":");
            push_span_attrs(out, s);
            out.push('}');
        });
    });
    out.push_str("]}");
}

/// The canonical byte-stable JSON object holding every deterministic
/// quantity in the registry: deterministic-class counters, gauges and
/// histograms (bucket counts), plus each span's path and deterministic
/// attributes. Wall-clock values never appear here.
pub fn deterministic_section(reg: &Registry) -> String {
    let mut out = String::new();
    push_deterministic(&mut out, reg);
    out
}

/// Chrome trace event format (object form), loadable in Perfetto /
/// `chrome://tracing`.
///
/// - pid 1: wall-clock spans as `"X"` complete events (`ts`/`dur` in µs).
/// - pid 2: cycle-domain instant events, one thread per entry of
///   `cycle_tracks` (`ts` is the simulated cycle, not a real time).
/// - The top-level `"deterministic"` key embeds [`deterministic_section`];
///   trace viewers ignore unknown keys.
pub fn chrome_trace(reg: &Registry, cycle_tracks: &[(String, Vec<(u64, String)>)]) -> String {
    // Every event after this first one opens with its `,\n` separator.
    let mut out = String::from(
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
         {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"wall-clock spans\"}}",
    );
    reg.with_spans_by_seq(|spans| {
        for s in spans {
            out.push_str(",\n{\"name\":\"");
            push_escaped(&mut out, &s.path);
            out.push_str("\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":");
            push_us(&mut out, s.start_ns);
            out.push_str(",\"dur\":");
            push_us(&mut out, s.dur_ns);
            out.push_str(",\"pid\":1,\"tid\":0,\"args\":");
            push_span_attrs(&mut out, s);
            out.push('}');
        }
    });
    if !cycle_tracks.is_empty() {
        out.push_str(
            ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\
             \"args\":{\"name\":\"cycle domain\"}}",
        );
    }
    for (tid, (track, points)) in cycle_tracks.iter().enumerate() {
        push_fmt(
            &mut out,
            format_args!(
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":{tid},\
                 \"args\":{{\"name\":\""
            ),
        );
        push_escaped(&mut out, track);
        out.push_str("\"}}");
        for (cycle, label) in points {
            out.push_str(",\n{\"name\":\"");
            push_escaped(&mut out, label);
            push_fmt(
                &mut out,
                format_args!(
                    "\",\"cat\":\"cycle\",\"ph\":\"i\",\"ts\":{cycle},\
                     \"pid\":2,\"tid\":{tid},\"s\":\"t\"}}"
                ),
            );
        }
    }
    out.push_str("\n],\n\"deterministic\":");
    push_deterministic(&mut out, reg);
    out.push_str("}\n");
    out
}

/// Escape a Prometheus label *value*: the text exposition format requires
/// `\` → `\\`, `"` → `\"` and newline → `\n` inside the double-quoted
/// value (label names and metric names never need escaping).
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render `name{k="v",...}` with escaped label values; `extra` label pairs
/// (e.g. `le`) are appended after the key's own sorted labels.
fn prom_series(name: &str, labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return name.to_string();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{name}{{{}}}", body.join(","))
}

/// Prometheus text exposition format (`# TYPE` lines, `_bucket`/`_sum`/
/// `_count` histogram series with `le` labels). Label values are escaped
/// per the exposition-format rules (backslash, quote, newline).
pub fn prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (key, _, v) in &snap.counters {
        out.push_str(&format!(
            "# TYPE {} counter\n{} {v}\n",
            key.name,
            prom_series(&key.name, &key.labels, &[])
        ));
    }
    for (key, _, v) in &snap.gauges {
        out.push_str(&format!(
            "# TYPE {} gauge\n{} {}\n",
            key.name,
            prom_series(&key.name, &key.labels, &[]),
            fmt_f64(*v)
        ));
    }
    for (key, _, h) in &snap.histograms {
        out.push_str(&format!("# TYPE {} histogram\n", key.name));
        let bucket_name = format!("{}_bucket", key.name);
        let mut cumulative = 0u64;
        for (i, bucket) in h.buckets.iter().enumerate() {
            cumulative += bucket;
            let le = if i < h.bounds.len() {
                fmt_f64(h.bounds[i])
            } else {
                "+Inf".to_string()
            };
            out.push_str(&format!(
                "{} {cumulative}\n",
                prom_series(&bucket_name, &key.labels, &[("le", &le)])
            ));
        }
        out.push_str(&format!(
            "{} {}\n",
            prom_series(&format!("{}_sum", key.name), &key.labels, &[]),
            fmt_f64(h.sum)
        ));
        out.push_str(&format!(
            "{} {}\n",
            prom_series(&format!("{}_count", key.name), &key.labels, &[]),
            h.count
        ));
    }
    out
}

/// Collapsed-stack export of the span tree (`inferno` / speedscope /
/// `flamegraph.pl` input): one line per distinct span path, semicolons
/// joining the ancestry, the weight being the path's total *self* time in
/// nanoseconds (duration minus the durations of direct children).
///
/// The tree is reconstructed from `(seq, depth)`: spans are creation-
/// ordered, so a span's parent is the nearest earlier span one level
/// shallower — exact for the single-threaded span stacks the CLI flows
/// produce (a thread-local [`crate::scope`] never captures worker-thread
/// spans). Lines are sorted by path, so the output is stable for a fixed
/// span tree; weights are wall-clock and belong next to the other
/// wall-clock exports, never in the deterministic section.
pub fn collapsed_stacks(reg: &Registry) -> String {
    reg.with_spans_by_seq(|spans| {
        // child_sum[i]: total duration of span i's direct children.
        let mut child_sum = vec![0u64; spans.len()];
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..spans.len() {
            while stack
                .last()
                .is_some_and(|&top| spans[top].depth >= spans[i].depth)
            {
                stack.pop();
            }
            if let Some(&parent) = stack.last() {
                child_sum[parent] += spans[i].dur_ns;
            }
            stack.push(i);
        }
        let mut weights: std::collections::BTreeMap<String, u64> =
            std::collections::BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let self_ns = s.dur_ns.saturating_sub(child_sum[i]);
            *weights.entry(s.path.replace('/', ";")).or_insert(0) += self_ns;
        }
        let mut out = String::new();
        for (path, w) in &weights {
            out.push_str(&format!("{path} {w}\n"));
        }
        out
    })
}

/// Human-readable summary table: counters, gauges, histograms, then the
/// span tree with wall-clock durations and deterministic attributes.
pub fn summary(reg: &Registry) -> String {
    let snap = reg.snapshot();
    let mut out = String::from("telemetry summary\n");
    if !snap.counters.is_empty() {
        out.push_str("  counters:\n");
        let width = snap
            .counters
            .iter()
            .map(|(k, _, _)| k.render().len())
            .max()
            .unwrap_or(0);
        for (key, class, v) in &snap.counters {
            out.push_str(&format!(
                "    {:<width$}  {v}{}\n",
                key.render(),
                class_tag(*class),
            ));
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str("  gauges:\n");
        for (key, class, v) in &snap.gauges {
            out.push_str(&format!(
                "    {}  {}{}\n",
                key.render(),
                fmt_f64(*v),
                class_tag(*class)
            ));
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str("  histograms:\n");
        for (key, class, h) in &snap.histograms {
            let buckets: Vec<String> = h
                .bounds
                .iter()
                .map(|b| fmt_f64(*b))
                .chain(std::iter::once("+Inf".to_string()))
                .zip(h.buckets.iter())
                .map(|(le, n)| format!("le {le}: {n}"))
                .collect();
            out.push_str(&format!(
                "    {}  count={} sum={}{}\n      [{}]\n",
                key.render(),
                h.count,
                fmt_f64(h.sum),
                class_tag(*class),
                buckets.join(", ")
            ));
        }
    }
    reg.with_spans_by_seq(|spans| {
        if spans.is_empty() {
            return;
        }
        out.push_str("  spans:\n");
        for s in spans {
            let attrs: Vec<String> = s.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let attrs = if attrs.is_empty() {
                String::new()
            } else {
                format!("  [{}]", attrs.join(" "))
            };
            out.push_str(&format!(
                "    {:indent$}{}  {:.3} ms{attrs}\n",
                "",
                s.path,
                s.dur_ns as f64 / 1e6,
                indent = 2 * s.depth as usize,
            ));
        }
    });
    out
}

fn class_tag(class: Class) -> &'static str {
    match class {
        Class::Deterministic => "",
        Class::WallClock => "  (wall)",
    }
}

/// Sum of every wall-clock-class counter whose metric name is `name`
/// (across all label sets). Zero when the counter never fired — handy
/// for asserting store/cache activity without parsing an export.
pub fn counter_total(reg: &Registry, name: &str) -> u64 {
    reg.with_metrics(|metrics| {
        metrics.get(name).map_or(0, |family| {
            family
                .iter()
                .map(|series| match series.value {
                    Value::Counter(v) => v,
                    _ => 0,
                })
                .sum()
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample() -> Arc<Registry> {
        let reg = Arc::new(Registry::new());
        let _scope = crate::scope(Arc::clone(&reg));
        reg.add(
            Class::Deterministic,
            "cycles_total",
            &[("arch", "zfost")],
            42,
        );
        reg.add(Class::WallClock, "export_runs", &[], 1);
        reg.observe(Class::Deterministic, "latency_words", &[], &[1.0, 8.0], 3.0);
        {
            let mut s = crate::Span::enter("phase");
            s.record("cycles", 42);
        }
        reg
    }

    #[test]
    fn deterministic_section_excludes_wall_clock_and_is_stable() {
        let reg = sample();
        let det = deterministic_section(&reg);
        assert!(det.contains("\"cycles_total{arch=\\\"zfost\\\"}\":42"));
        assert!(!det.contains("export_runs"));
        assert!(det.contains("\"buckets\":[0,1,0]"));
        assert!(det.contains("{\"path\":\"phase\",\"attrs\":{\"cycles\":42}}"));
        assert_eq!(det, deterministic_section(&reg));
    }

    /// A non-finite deterministic gauge or histogram bound used to print
    /// as `NaN` / `inf`, which no JSON parser accepts.
    #[test]
    fn non_finite_values_export_as_json_null() {
        let reg = sample();
        reg.set_gauge(Class::Deterministic, "ratio", &[("of", "nan")], f64::NAN);
        reg.set_gauge(
            Class::Deterministic,
            "ratio",
            &[("of", "inf")],
            f64::INFINITY,
        );
        reg.set_gauge(Class::Deterministic, "ratio", &[("of", "one")], 1.0);
        let inf_bound = [1.0, f64::INFINITY];
        reg.observe(Class::Deterministic, "open_ended", &[], &inf_bound, 2.0);
        reg.observe(Class::WallClock, "wall_sum", &[], &[1.0], f64::NEG_INFINITY);
        let det = deterministic_section(&reg);
        assert!(det.contains("\"ratio{of=\\\"nan\\\"}\":null"), "{det}");
        assert!(det.contains("\"ratio{of=\\\"inf\\\"}\":null"), "{det}");
        assert!(det.contains("\"ratio{of=\\\"one\\\"}\":1"), "{det}");
        assert!(det.contains("\"bounds\":[1,null]"), "{det}");
        for json in [det, chrome_trace(&reg, &[])] {
            let parsed: serde_json::Value =
                serde_json::from_str(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
            assert!(parsed.as_object().is_some());
        }
        // The text exposition keeps Prometheus' own spellings.
        assert!(prometheus(&reg.snapshot()).contains("ratio{of=\"nan\"} NaN"));
    }

    #[test]
    fn chrome_trace_has_events_and_embedded_det_section() {
        let reg = sample();
        let tracks = vec![(
            "zfost".to_string(),
            vec![(0, "phase".to_string()), (7, "mac".to_string())],
        )];
        let json = chrome_trace(&reg, &tracks);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\",\"ts\":7"));
        assert!(json.contains("\"deterministic\":{\"counters\""));
    }

    #[test]
    fn prometheus_histogram_series_are_cumulative() {
        let reg = sample();
        let text = prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE latency_words histogram"));
        assert!(text.contains("latency_words_bucket{le=\"1\"} 0"));
        assert!(text.contains("latency_words_bucket{le=\"8\"} 1"));
        assert!(text.contains("latency_words_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("latency_words_count 1"));
        assert!(text.contains("cycles_total{arch=\"zfost\"} 42"));
    }

    #[test]
    fn summary_renders_all_sections() {
        let reg = sample();
        let s = summary(&reg);
        assert!(s.contains("counters:"));
        assert!(s.contains("histograms:"));
        assert!(s.contains("spans:"));
        assert!(s.contains("phase"));
    }
}
