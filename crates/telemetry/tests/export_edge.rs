//! Exporter edge cases: Prometheus label-value escaping, `+Inf` bucket
//! emission, empty-registry output, and a property-based round-trip for
//! the collapsed-stack (flamegraph) exporter — every span contributes its
//! self-time to exactly one output line.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use zfgan_telemetry::export::{collapsed_stacks, prometheus};
use zfgan_telemetry::{Class, Registry, Span, SpanRecord};

#[test]
fn prometheus_escapes_label_values() {
    let reg = Registry::new();
    reg.add(
        Class::Deterministic,
        "escapes_total",
        &[("path", "a\"b\\c\nd")],
        3,
    );
    let text = prometheus(&reg.snapshot());
    assert!(
        text.contains("escapes_total{path=\"a\\\"b\\\\c\\nd\"} 3"),
        "{text}"
    );
    // The escaped value must contain no raw newline inside the quotes: the
    // exposition format is line-oriented, so every series stays one line.
    let series_lines: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("escapes_total"))
        .collect();
    assert_eq!(series_lines.len(), 1, "{text}");
}

#[test]
fn prometheus_escapes_histogram_and_gauge_labels() {
    let reg = Registry::new();
    reg.set_gauge(Class::WallClock, "g", &[("q", "say \"hi\"")], 1.5);
    reg.observe(
        Class::WallClock,
        "lat",
        &[("who", "back\\slash")],
        &[1.0],
        0.5,
    );
    let text = prometheus(&reg.snapshot());
    assert!(text.contains("g{q=\"say \\\"hi\\\"\"} 1.5"), "{text}");
    assert!(
        text.contains("lat_bucket{who=\"back\\\\slash\",le=\"1\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("lat_sum{who=\"back\\\\slash\"} 0.5"),
        "{text}"
    );
    assert!(
        text.contains("lat_count{who=\"back\\\\slash\"} 1"),
        "{text}"
    );
}

#[test]
fn prometheus_emits_the_inf_bucket_even_when_empty() {
    let reg = Registry::new();
    reg.observe(Class::Deterministic, "h", &[], &[1.0, 8.0], 0.5);
    let text = prometheus(&reg.snapshot());
    assert!(text.contains("h_bucket{le=\"1\"} 1"), "{text}");
    assert!(text.contains("h_bucket{le=\"8\"} 1"), "{text}");
    // The +Inf bucket is always present and cumulative == count.
    assert!(text.contains("h_bucket{le=\"+Inf\"} 1"), "{text}");
    assert!(text.contains("h_count 1"), "{text}");
}

#[test]
fn prometheus_of_an_empty_registry_is_empty() {
    let reg = Registry::new();
    assert_eq!(prometheus(&reg.snapshot()), "");
}

#[test]
fn collapsed_stacks_of_an_empty_registry_is_empty() {
    let reg = Registry::new();
    assert_eq!(collapsed_stacks(&reg), "");
}

#[test]
fn collapsed_stacks_subtracts_direct_children() {
    let reg = Arc::new(Registry::new());
    {
        let _scope = zfgan_telemetry::scope(Arc::clone(&reg));
        let _root = Span::enter("root");
        {
            let _a = Span::enter("a");
            let _leaf = Span::enter("leaf");
        }
        let _b = Span::enter("b");
    }
    let out = collapsed_stacks(&reg);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 4, "{out}");
    for prefix in ["root ", "root;a ", "root;a;leaf ", "root;b "] {
        assert!(
            lines.iter().any(|l| l.starts_with(prefix)),
            "missing {prefix:?} in {out}"
        );
    }
    // Self-times are consistent: every line parses, and the root line's
    // weight is its duration minus its direct children's.
    let weight = |p: &str| -> u64 {
        lines
            .iter()
            .find(|l| l.rsplit_once(' ').is_some_and(|(path, _)| path == p))
            .and_then(|l| l.rsplit_once(' '))
            .and_then(|(_, w)| w.parse().ok())
            .expect("line present and numeric")
    };
    let spans = reg.spans();
    let dur = |p: &str| spans.iter().find(|s| s.path == p).unwrap().dur_ns;
    assert_eq!(
        weight("root"),
        dur("root").saturating_sub(dur("root/a") + dur("root/b"))
    );
    assert_eq!(
        weight("root;a"),
        dur("root/a").saturating_sub(dur("root/a/leaf"))
    );
}

/// Build a random span tree (unique node names, so each span owns one
/// collapsed path) and return the registry holding it.
fn random_tree(seed: u64, n: usize) -> Arc<Registry> {
    let reg = Arc::new(Registry::new());
    let _scope = zfgan_telemetry::scope(Arc::clone(&reg));
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut next_id = 0usize;
    // A stack of live guards: each step either opens a child under the
    // current innermost span or closes one level.
    let mut guards: Vec<Span> = Vec::new();
    for _ in 0..n {
        let open = guards.is_empty() || (guards.len() < 6 && rng.gen_range(0..3) > 0);
        if open {
            guards.push(Span::enter(format!("n{next_id}")));
            next_id += 1;
        } else {
            guards.pop();
        }
    }
    drop(guards);
    reg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round-trip: every recorded span appears on exactly one collapsed
    /// line, and each line's weight equals that span's duration minus the
    /// total duration of its direct children (self-time).
    #[test]
    fn collapsed_stacks_round_trip(seed in 0u64..1024, n in 1usize..40) {
        let reg = random_tree(seed, n);
        let spans = reg.spans();
        let out = collapsed_stacks(&reg);
        let mut lines: Vec<(&str, u64)> = Vec::new();
        for line in out.lines() {
            let (path, w) = line.rsplit_once(' ').expect("path weight");
            lines.push((path, w.parse().expect("numeric weight")));
        }
        prop_assert_eq!(lines.len(), spans.len(), "one line per unique-path span");
        for s in &spans {
            let collapsed = s.path.replace('/', ";");
            let matched: Vec<&(&str, u64)> =
                lines.iter().filter(|(p, _)| *p == collapsed).collect();
            prop_assert_eq!(matched.len(), 1, "span {} appears once", s.path);
            // Direct children: unique paths make prefix+depth matching exact.
            let child_prefix = format!("{}/", s.path);
            let child_dur: u64 = spans
                .iter()
                .filter(|c| c.depth == s.depth + 1 && c.path.starts_with(&child_prefix))
                .map(|c| c.dur_ns)
                .sum();
            prop_assert_eq!(
                matched[0].1,
                s.dur_ns.saturating_sub(child_dur),
                "self-time of {}",
                s.path
            );
        }
    }
}

/// One registry touching every branch of the deterministic renderer:
/// escaped label values (quote, backslash, newline, tab, a control byte),
/// labels given out of order, a NaN and an infinite gauge, integral and
/// fractional values, a histogram with an open-ended bound, nested span
/// paths with attributes, and a wall-clock counter, gauge and histogram
/// that must stay out.
fn golden_registry() -> Arc<Registry> {
    let reg = Arc::new(Registry::new());
    let _scope = zfgan_telemetry::scope(Arc::clone(&reg));
    reg.add(Class::Deterministic, "cycles_total", &[], 7);
    reg.add(
        Class::Deterministic,
        "cycles_total",
        &[("phase", "s_conv"), ("arch", "zfost")],
        40,
    );
    reg.add(
        Class::Deterministic,
        "cycles_total",
        &[("arch", "zfost"), ("phase", "s_conv")],
        2,
    );
    reg.add(
        Class::Deterministic,
        "escapes_total",
        &[("path", "a\"b\\c\nd\te\u{1}f")],
        3,
    );
    reg.add(Class::WallClock, "pool_steals_total", &[], 9);
    reg.set_gauge(Class::Deterministic, "ratio", &[("of", "nan")], f64::NAN);
    reg.set_gauge(
        Class::Deterministic,
        "ratio",
        &[("of", "inf")],
        f64::INFINITY,
    );
    reg.set_gauge(Class::Deterministic, "ratio", &[("of", "half")], 0.5);
    reg.set_gauge(Class::Deterministic, "ratio", &[("of", "big")], 3e15);
    reg.set_gauge(Class::Deterministic, "util", &[], -2.0);
    reg.set_gauge(Class::WallClock, "queue_depth", &[], 4.0);
    for v in [0.5, 1.0, 2.0, 9.0, 1e9] {
        reg.observe(
            Class::Deterministic,
            "words",
            &[("buf", "ifmap")],
            &[1.0, 2.5, 8.0, f64::INFINITY],
            v,
        );
    }
    reg.observe(Class::WallClock, "latency_ms", &[], &[1.0], 0.3);
    {
        let mut root = Span::enter("fig15");
        root.record("cells", 2);
        {
            let mut arch = Span::enter("zfost");
            arch.record("cycles", 1234);
            arch.record("dram_bytes", 0);
            let _leaf = Span::enter("conv\"3\"");
        }
        let _empty = Span::enter("ost");
    }
    reg
}

/// The deterministic section's exact bytes: cell payloads embed it and
/// caches written by earlier builds are served as hits, so a renderer
/// change must not move a byte. Captured from the snapshot-based renderer.
#[test]
fn deterministic_section_golden_bytes() {
    let det = zfgan_telemetry::export::deterministic_section(&golden_registry());
    assert_eq!(
        det,
        concat!(
            r#"{"counters":{"cycles_total":7,"cycles_total{arch=\"zfost\",phase=\"s_conv\"}":42,"escapes_total{path=\"a\"b\\c\nd\te\u0001f\"}":3},"#,
            r#""gauges":{"ratio{of=\"big\"}":3000000000000000,"ratio{of=\"half\"}":0.5,"ratio{of=\"inf\"}":null,"ratio{of=\"nan\"}":null,"util":-2},"#,
            r#""histograms":{"words{buf=\"ifmap\"}":{"bounds":[1,2.5,8,null],"buckets":[2,1,0,2,0],"count":5}},"#,
            r#""spans":[{"path":"fig15","attrs":{"cells":2}},"#,
            r#"{"path":"fig15/zfost","attrs":{"cycles":1234,"dram_bytes":0}},"#,
            r#"{"path":"fig15/zfost/conv\"3\"","attrs":{}},"#,
            r#"{"path":"fig15/ost","attrs":{}}]}"#,
        )
    );
}

/// Chrome trace's exact bytes for spans with fixed timestamps (recorded
/// directly, so the wall-clock fields are stable) and two cycle tracks.
#[test]
fn chrome_trace_golden_bytes() {
    let reg = Registry::new();
    for (seq, path, depth, start_ns, dur_ns, attrs) in [
        (1, "run/step", 1, 1_500, 250, vec![("cycles", 9)]),
        (
            0,
            "run",
            0,
            1_000,
            2_000_001,
            vec![("ops", 2), ("bytes", 64)],
        ),
        (2, "run/\\tail", 1, 1_999_000, 7, vec![]),
    ] {
        reg.record_span(SpanRecord {
            path: path.to_string(),
            depth,
            seq,
            start_ns,
            dur_ns,
            attrs,
        });
    }
    reg.add(Class::Deterministic, "c", &[], 1);
    let tracks = vec![
        (
            "zfost".to_string(),
            vec![(0, "phase".to_string()), (7, "mac\"x".to_string())],
        ),
        ("ost".to_string(), vec![]),
    ];
    let json = zfgan_telemetry::export::chrome_trace(&reg, &tracks);
    assert_eq!(
        json,
        concat!(
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n",
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"wall-clock spans\"}},\n",
            "{\"name\":\"run\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":1.000,\"dur\":2000.001,\"pid\":1,\"tid\":0,\"args\":{\"ops\":2,\"bytes\":64}},\n",
            "{\"name\":\"run/step\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":1.500,\"dur\":0.250,\"pid\":1,\"tid\":0,\"args\":{\"cycles\":9}},\n",
            "{\"name\":\"run/\\\\tail\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":1999.000,\"dur\":0.007,\"pid\":1,\"tid\":0,\"args\":{}},\n",
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\"args\":{\"name\":\"cycle domain\"}},\n",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\"args\":{\"name\":\"zfost\"}},\n",
            "{\"name\":\"phase\",\"cat\":\"cycle\",\"ph\":\"i\",\"ts\":0,\"pid\":2,\"tid\":0,\"s\":\"t\"},\n",
            "{\"name\":\"mac\\\"x\",\"cat\":\"cycle\",\"ph\":\"i\",\"ts\":7,\"pid\":2,\"tid\":0,\"s\":\"t\"},\n",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":1,\"args\":{\"name\":\"ost\"}}\n",
            "],\n",
            "\"deterministic\":{\"counters\":{\"c\":1},\"gauges\":{},\"histograms\":{},\"spans\":[{\"path\":\"run\",\"attrs\":{\"ops\":2,\"bytes\":64}},{\"path\":\"run/step\",\"attrs\":{\"cycles\":9}},{\"path\":\"run/\\\\tail\",\"attrs\":{}}]}}\n",
        )
    );
}
