//! Telemetry acceptance tests: `zfgan report --trace-out` emits valid
//! Chrome-trace JSON whose deterministic section is byte-identical across
//! same-seed runs and equal to the one in the same run's `--out` report,
//! and `sweep --trace-out` produces a parseable trace.

use serde_json::Value;
use zfgan::cli::run;

fn args(s: &[&str]) -> Vec<String> {
    s.iter().map(|s| s.to_string()).collect()
}

fn tmp(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "zfgan-telemetry-test-{}-{name}",
        std::process::id()
    ));
    p.to_string_lossy().into_owned()
}

/// Parses a trace file and returns its canonical deterministic section.
fn deterministic_of(path: &str) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    let v: Value = serde_json::from_str(&text).unwrap();
    let obj = v.as_object().unwrap();
    assert!(
        obj.get("traceEvents").and_then(Value::as_array).is_some(),
        "{path}: no traceEvents array"
    );
    obj.get("deterministic")
        .expect("deterministic section present")
        .to_string()
}

#[test]
fn report_trace_out_is_byte_deterministic_across_runs() {
    let (p1, p2) = (tmp("trace-1.json"), tmp("trace-2.json"));
    run(&args(&["report", "--seed", "7", "--trace-out", &p1])).unwrap();
    run(&args(&["report", "--seed", "7", "--trace-out", &p2])).unwrap();
    let (d1, d2) = (deterministic_of(&p1), deterministic_of(&p2));
    assert!(!d1.is_empty());
    assert_eq!(d1, d2, "same-seed runs must agree byte-for-byte");
    // A different seed changes the operands but not the cycle counts of
    // these dense executors, so the deterministic sections still agree —
    // the zero-skipping GEMM counters would differ only via sparsity.
    assert!(d1.contains("exec_cycles_total"), "{d1}");
    assert!(d1.contains("\"spans\""), "{d1}");
    let _ = std::fs::remove_file(&p1);
    let _ = std::fs::remove_file(&p2);
}

#[test]
fn report_check_validates_and_rejects() {
    let p = tmp("trace-check.json");
    run(&args(&["report", "--arch", "zfost", "--trace-out", &p])).unwrap();
    let out = run(&args(&["report", "--check", &p])).unwrap();
    assert!(out.contains("valid Chrome trace"), "{out}");
    assert!(out.contains("deterministic:{"), "{out}");

    std::fs::write(&p, "{not json").unwrap();
    let err = run(&args(&["report", "--check", &p])).unwrap_err();
    assert!(err.contains("invalid JSON"), "{err}");

    std::fs::write(&p, "{\"traceEvents\":[]}").unwrap();
    let err = run(&args(&["report", "--check", &p])).unwrap_err();
    assert!(err.contains("deterministic"), "{err}");
    let _ = std::fs::remove_file(&p);
}

#[test]
fn report_out_and_trace_out_read_one_registry() {
    let (r, t) = (tmp("one-reg-report.json"), tmp("one-reg-trace.json"));
    run(&args(&[
        "report",
        "--arch",
        "zfost",
        "--out",
        &r,
        "--trace-out",
        &t,
    ]))
    .unwrap();
    let line = |path: &str| {
        let out = run(&args(&["report", "--check", path])).unwrap();
        let det = out.lines().find(|l| l.starts_with("deterministic:"));
        det.expect("a deterministic line").to_string()
    };
    assert_eq!(line(&r), line(&t));
    // One cycle-domain track per executor the report ran.
    let text = std::fs::read_to_string(&t).unwrap();
    for executor in ["zfost/s_conv", "zfost/t_conv"] {
        assert!(
            text.contains(&format!("\"args\":{{\"name\":\"{executor}\"}}")),
            "no track for {executor}"
        );
    }
    let _ = std::fs::remove_file(&r);
    let _ = std::fs::remove_file(&t);
}

#[test]
fn sweep_trace_out_is_valid_perfetto_loadable_json() {
    let p = tmp("sweep.json");
    let out = run(&args(&["sweep", "cgan", "--trace-out", &p])).unwrap();
    assert!(out.contains("trace written"), "{out}");
    let text = std::fs::read_to_string(&p).unwrap();
    let v: Value = serde_json::from_str(&text).unwrap();
    let obj = v.as_object().unwrap();
    // The two invariants Perfetto needs: an object with a traceEvents
    // array (extra top-level keys are ignored by the viewer).
    let events = obj.get("traceEvents").and_then(Value::as_array).unwrap();
    assert!(!events.is_empty());
    // Every event is an object with the mandatory "ph" field.
    for e in events {
        assert!(e.as_object().and_then(|m| m.get("ph")).is_some(), "{e}");
    }
    // The schedule spans of the sweep landed in the trace.
    assert!(text.contains("schedule/"), "no schedule spans in trace");
    let _ = std::fs::remove_file(&p);
}

#[test]
fn faults_telemetry_reports_detection_latency_histogram() {
    let out = run(&args(&["faults", "--seed", "2024", "--telemetry"])).unwrap();
    assert!(out.contains("ABFT detection latency"), "{out}");
    assert!(out.contains("abft_detection_latency_words"), "{out}");
    assert!(out.contains("supervisor_rollbacks_total"), "{out}");
}
