//! `zfgan perf` — the committed performance ledger: ingest the result file
//! `zfgan-benchmark run --out` writes, render the series, and gate the
//! newest ingest against the previous one of the same host.
//!
//! `results/ledger.jsonl` is tracked, append-only JSONL: one [`Row`] per
//! workload × end-to-end metric of an ingest, holding the median over the
//! file's untraced runs, the commit and a host fingerprint
//! (`arch-os/nproc/simd-label`; no hostname, container hostnames never
//! repeat). Rows whose `source` is not `"benchmark"` (the medians
//! backfilled from CHANGES.md) render in the series and are never a
//! baseline.
//!
//! `--check` is a function of the ledger alone: per series, the last
//! measured row of the newest ingest's host against the measured row of
//! that host before it, worse by more than the metric's `bound` in the
//! direction its `better` names — both read from `BENCHMARK.json`, the
//! rule `zfgan-benchmark compare` applies to medians. With no earlier
//! ingest of that host it says so instead of passing silently.

use std::collections::BTreeMap;
use std::path::Path;

use serde::{Deserialize, Serialize, Value};

/// The benchmark's contract; this reads its `end_to_end` list.
const MANIFEST: &str = include_str!("../BENCHMARK.json");
const DEFAULT_LEDGER: &str = "results/ledger.jsonl";
/// `source` of a row `--ingest` measured.
const MEASURED: &str = "benchmark";

#[derive(Deserialize)]
struct Manifest {
    end_to_end: Vec<MetricDef>,
}

#[derive(Deserialize)]
struct MetricDef {
    name: String,
    /// `"lower"` or `"higher"`.
    better: String,
    /// Largest tolerated worsening, as a share of the baseline median.
    bound: f64,
}

fn end_to_end() -> Vec<MetricDef> {
    let manifest: Manifest = serde_json::from_str(MANIFEST).expect("BENCHMARK.json is checked in");
    manifest.end_to_end
}

/// One ledger line.
#[derive(Debug, Serialize, Deserialize)]
struct Row {
    sha: String,
    host: String,
    workload: String,
    metric: String,
    unit: String,
    median: f64,
    runs: usize,
    source: String,
}

#[derive(Deserialize)]
struct RunsFile {
    runs: Vec<Run>,
}

#[derive(Deserialize)]
struct Run {
    workload: String,
    trace: u64,
    result: RunResult,
}

#[derive(Deserialize)]
struct RunResult {
    correct: bool,
    failed: u64,
    /// `{name: {value, unit}}`
    metrics: Value,
}

#[derive(Deserialize)]
struct Reading {
    value: f64,
    unit: String,
}

/// The tree under measurement: `git describe --always --dirty` (a short
/// sha, `-dirty` when tracked files differ from it), else `"unknown"`.
fn git_sha() -> String {
    let git = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output();
    match git {
        Ok(out) if out.status.success() && !out.stdout.is_empty() => {
            String::from_utf8_lossy(&out.stdout).trim().to_string()
        }
        _ => "unknown".to_string(),
    }
}

/// What makes two hosts' wall times comparable: `arch-os/nproc/simd-label`.
fn host_fingerprint() -> String {
    format!(
        "{}-{}/{}/{}",
        std::env::consts::ARCH,
        std::env::consts::OS,
        std::thread::available_parallelism().map_or(0, usize::from),
        zfgan_tensor::microkernel::simd_label()
    )
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The rows the runs file `text` contributes: per workload and end-to-end
/// metric, the median over the untraced runs.
fn ingest_rows(text: &str) -> Result<Vec<Row>, String> {
    let file: RunsFile = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let failed = |r: &&Run| !r.result.correct || r.result.failed > 0;
    if let Some(bad) = file.runs.iter().find(failed) {
        return Err(format!(
            "a {} run has {} failed ops and \"correct\":{}",
            bad.workload, bad.result.failed, bad.result.correct
        ));
    }
    let defs = end_to_end();
    let mut cells: BTreeMap<(&str, usize), Vec<Reading>> = BTreeMap::new();
    for run in file.runs.iter().filter(|r| r.trace == 0) {
        let metrics = run.result.metrics.as_object();
        for (i, def) in defs.iter().enumerate() {
            if let Some(v) = metrics.and_then(|m| m.get(&def.name)) {
                let reading = Reading::from_value(v)
                    .map_err(|e| format!("{} {}: {e}", run.workload, def.name))?;
                cells.entry((&run.workload, i)).or_default().push(reading);
            }
        }
    }
    if cells.is_empty() {
        return Err("no untraced run with an end-to-end metric".to_string());
    }
    let (sha, host) = (git_sha(), host_fingerprint());
    Ok(cells
        .into_iter()
        .map(|((workload, i), readings)| Row {
            sha: sha.clone(),
            host: host.clone(),
            workload: workload.to_string(),
            metric: defs[i].name.clone(),
            unit: readings[0].unit.clone(),
            runs: readings.len(),
            median: median(readings.iter().map(|r| r.value).collect()),
            source: MEASURED.to_string(),
        })
        .collect())
}

/// Parses ledger `text`; `name` prefixes the line number of a bad line.
fn parse_ledger(name: &str, text: &str) -> Result<Vec<Row>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| serde_json::from_str(line).map_err(|e| format!("{name}:{}: {e}", i + 1)))
        .collect()
}

/// The rows of each `(workload, metric)` series, in ledger order.
fn series(rows: &[Row]) -> BTreeMap<(&str, &str), Vec<&Row>> {
    let mut map: BTreeMap<_, Vec<&Row>> = BTreeMap::new();
    for row in rows {
        map.entry((row.workload.as_str(), row.metric.as_str()))
            .or_default()
            .push(row);
    }
    map
}

/// One line per series, oldest point first; `*` marks a measured point.
fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    for ((workload, metric), points) in series(rows) {
        out.push_str(&format!("{workload} {metric} ({}):", points[0].unit));
        for p in points {
            let mark = if p.source == MEASURED { "*" } else { "" };
            out.push_str(&format!("  {}={:.4}{mark}", p.sha, p.median));
        }
        out.push('\n');
    }
    out
}

/// The `--check` verdict over `rows`: `Ok` with a summary line, `Err` with
/// one line per series that got worse than its bound allows.
fn check(rows: &[Row]) -> Result<String, String> {
    let measured = |r: &&Row| r.source == MEASURED;
    let Some(host) = rows.iter().rfind(measured).map(|r| r.host.as_str()) else {
        return Ok("perf check: no baseline for this host (no measured ingest)\n".to_string());
    };
    let defs = end_to_end();
    let (mut compared, mut worse) = (0, Vec::new());
    for ((workload, metric), points) in series(rows) {
        let mut points = points
            .into_iter()
            .filter(|r| measured(r) && r.host == host)
            .rev();
        let (Some(new), Some(base)) = (points.next(), points.next()) else {
            continue;
        };
        let Some(def) = defs.iter().find(|d| d.name == metric) else {
            continue;
        };
        compared += 1;
        let delta = match def.better.as_str() {
            "higher" => base.median - new.median,
            _ => new.median - base.median,
        };
        if delta > def.bound * base.median.abs() {
            let (n, b, unit, pct) = (new.median, base.median, &new.unit, def.bound * 100.0);
            worse.push(format!(
                "  - {workload} {metric}: {n:.4} {unit} at {} vs {b:.4} {unit} at {}, \
                 beyond the {pct:.0} % bound ({} is better)",
                new.sha, base.sha, def.better
            ));
        }
    }
    if compared == 0 {
        Ok(format!("perf check: no baseline for this host ({host})\n"))
    } else if worse.is_empty() {
        Ok(format!(
            "perf check: OK ({compared} series within bound of the last ingest on {host})\n"
        ))
    } else {
        Err(format!("PERF REGRESSIONS on {host}:\n{}", worse.join("\n")))
    }
}

/// `zfgan perf [--ingest RUNS.json] [--check] [--ledger PATH]`: append the
/// medians of a benchmark result file to the ledger, render every series,
/// and with `check` fail if the newest ingest is worse than the previous
/// ingest of its host by more than a metric's bound.
///
/// # Errors
///
/// Returns an error when the runs file holds an incorrect or failed run,
/// when the ledger is missing or has a malformed line, or — under `check`
/// — when at least one series regressed.
pub fn run_perf(
    ingest: Option<&Path>,
    check: bool,
    ledger: Option<&Path>,
) -> Result<String, String> {
    let ledger = ledger.unwrap_or(Path::new(DEFAULT_LEDGER));
    let at = |flag: &str, path: &Path, e: &dyn std::fmt::Display| {
        format!("{flag} {}: {e}", path.display())
    };
    let mut out = String::new();
    if let Some(runs) = ingest {
        let text = std::fs::read_to_string(runs).map_err(|e| at("--ingest", runs, &e))?;
        let rows = ingest_rows(&text).map_err(|e| at("--ingest", runs, &e))?;
        let mut lines = String::new();
        for row in &rows {
            lines.push_str(&serde_json::to_string(row).map_err(|e| e.to_string())?);
            lines.push('\n');
        }
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(ledger)
            .and_then(|mut f| std::io::Write::write_all(&mut f, lines.as_bytes()))
            .map_err(|e| at("--ledger", ledger, &e))?;
        let (n, first) = (rows.len(), &rows[0]);
        out.push_str(&format!(
            "ingested {n} rows at {} on {}\n",
            first.sha, first.host
        ));
    }
    let text = std::fs::read_to_string(ledger).map_err(|e| at("--ledger", ledger, &e))?;
    let name = ledger.display().to_string();
    let rows = parse_ledger(&name, &text)?;
    let n = rows.len();
    out.push_str(&format!(
        "perf ledger: {name} ({n} rows; sha=median, * measured)\n"
    ));
    out.push_str(&render(&rows));
    if check {
        match self::check(&rows) {
            Ok(verdict) => out.push_str(&verdict),
            Err(regressions) => return Err(format!("{out}{regressions}")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOST: &str = "x86_64-linux/2/avx2";

    /// One run in the `--out` shape with all five end-to-end metrics at
    /// `scale` times (10, 100, 3, 50, 0.5).
    fn run(workload: &str, trace: u8, correct: bool, failed: u64, scale: f64) -> String {
        let metric = |name: &str, unit: &str, v: f64| {
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", v * scale)
        };
        format!(
            "{{\"workload\":\"{workload}\",\"trace\":{trace},\"seed\":1,\"sim_digest\":\"ab\",\
             \"result\":{{\"correct\":{correct},\"attempted\":40,\"failed\":{failed},\
             \"metrics\":{{{},{},{},{},{}}}}}}}",
            metric("op_quiet_ms", "ms", 10.0),
            metric("units_per_s", "1/s", 100.0),
            metric("allocs_plus1_per_op", "count", 3.0),
            metric("peak_rss_mb", "MiB", 50.0),
            metric("setup_s", "s", 0.5)
        )
    }

    /// The five workloads, once per `(trace, scale)` pass, as a runs file.
    fn runs_file(passes: &[(u8, f64)], extra: &[String]) -> String {
        let workloads = "train_mnist train_dcgan dse_explore_cold dse_paper_warm exec_zero_free";
        let mut runs: Vec<String> = extra.to_vec();
        for &(trace, scale) in passes {
            runs.extend(workloads.split(' ').map(|w| run(w, trace, true, 0, scale)));
        }
        format!("{{\"runs\":[\n{}\n]}}\n", runs.join(",\n"))
    }

    /// A `train_mnist` ledger line.
    fn row(sha: &str, host: &str, source: &str, metric: &str, median: f64) -> String {
        format!(
            "{{\"sha\":\"{sha}\",\"host\":\"{host}\",\"workload\":\"train_mnist\",\"metric\":\"{metric}\",\
             \"unit\":\"u\",\"median\":{median},\"runs\":3,\"source\":\"{source}\"}}\n"
        )
    }

    /// A line `--ingest` wrote on `HOST`.
    fn measured(sha: &str, metric: &str, median: f64) -> String {
        row(sha, HOST, MEASURED, metric, median)
    }

    fn check_text(ledger: &str) -> Result<String, String> {
        check(&parse_ledger("ledger.jsonl", ledger)?)
    }

    #[test]
    fn an_ingest_appends_one_median_row_per_workload_and_metric() {
        let dir = std::env::temp_dir().join(format!("zfgan-perf-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (runs, ledger) = (dir.join("runs.json"), dir.join("ledger.jsonl"));
        let _ = std::fs::remove_file(&ledger);
        // `--repeat 3`: three untraced suites whose median is the scale-2
        // one, plus a traced suite that must not count.
        std::fs::write(
            &runs,
            runs_file(&[(0, 1.0), (0, 3.0), (0, 2.0), (1, 100.0)], &[]),
        )
        .unwrap();
        let out = run_perf(Some(&runs), true, Some(&ledger)).unwrap();
        assert!(out.contains("ingested 25 rows"), "{out}");
        assert!(out.contains("no baseline for this host"), "{out}");
        let rows = parse_ledger("l", &std::fs::read_to_string(&ledger).unwrap()).unwrap();
        assert_eq!(rows.len(), 25);
        assert!(rows.iter().all(|r| r.runs == 3 && r.source == MEASURED));
        assert!(rows.iter().all(|r| r.host == host_fingerprint()));
        let quiet = series(&rows)[&("train_dcgan", "op_quiet_ms")][0];
        assert_eq!((quiet.median, quiet.unit.as_str()), (20.0, "ms"));
        // The identical file again: 50 rows, and the pair passes the check.
        let out = run_perf(Some(&runs), true, Some(&ledger)).unwrap();
        assert_eq!(
            std::fs::read_to_string(&ledger).unwrap().lines().count(),
            50
        );
        assert!(out.contains("perf check: OK (25 series"), "{out}");
        assert!(out.contains("train_dcgan op_quiet_ms (ms):"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_incorrect_or_failed_run_is_refused() {
        for (correct, failed) in [(false, 0), (true, 2)] {
            let bad = run("exec_zero_free", 1, correct, failed, 1.0);
            let err = ingest_rows(&runs_file(&[(0, 1.0)], &[bad])).unwrap_err();
            assert!(err.contains("a exec_zero_free run has"), "{err}");
        }
    }

    #[test]
    fn a_lower_is_better_metric_worse_than_its_bound_fails() {
        let base = measured("aaa", "op_quiet_ms", 10.0);
        let out = check_text(&(base.clone() + &measured("bbb", "op_quiet_ms", 12.4)));
        assert!(out.unwrap().contains("perf check: OK (1 series"));
        let err = check_text(&(base + &measured("bbb", "op_quiet_ms", 12.6))).unwrap_err();
        let line = err.lines().last().unwrap();
        for part in [
            "train_mnist op_quiet_ms",
            "12.6000 u at bbb",
            "10.0000 u at aaa",
            "25 % bound",
        ] {
            assert!(line.contains(part), "{err}");
        }
    }

    #[test]
    fn a_higher_is_better_metric_fails_on_a_drop_and_passes_on_a_rise() {
        let base = measured("aaa", "units_per_s", 100.0);
        let err = check_text(&(base.clone() + &measured("bbb", "units_per_s", 70.0))).unwrap_err();
        assert!(err.contains("train_mnist units_per_s: 70.0000"), "{err}");
        assert!(err.contains("higher is better"), "{err}");
        let out = check_text(&(base + &measured("bbb", "units_per_s", 300.0)));
        assert!(out.unwrap().contains("perf check: OK"));
    }

    #[test]
    fn another_host_or_a_backfilled_row_is_never_a_baseline() {
        let ledger = row("aaa", "x86_64-linux/8/avx2", MEASURED, "op_quiet_ms", 1.0)
            + &row("bbb", "unrecorded", "CHANGES.md", "op_quiet_ms", 1.0)
            + &measured("ccc", "op_quiet_ms", 99.0);
        let out = check_text(&ledger).unwrap();
        assert!(
            out.contains(&format!("no baseline for this host ({HOST})")),
            "{out}"
        );
        let rendered = render(&parse_ledger("l", &ledger).unwrap());
        assert!(
            rendered.contains("aaa=1.0000*  bbb=1.0000  ccc=99.0000*"),
            "{rendered}"
        );
    }

    #[test]
    fn a_malformed_ledger_line_is_a_one_line_error_with_its_number() {
        let good = measured("aaa", "op_quiet_ms", 1.0);
        let err = check_text(&format!("{good}{{\"sha\":\n{good}")).unwrap_err();
        assert_eq!(err.lines().count(), 1, "{err}");
        assert!(err.starts_with("ledger.jsonl:2:"), "{err}");
    }
}
