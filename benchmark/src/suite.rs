//! Everything that spans more than one workload process: the `run` driver
//! that gives each workload a fresh process, set-up probes, `compare` and
//! `calibrate`, and the reading of `BENCHMARK.json`.
//!
//! One process per workload keeps peak RSS, `setup_s` and the
//! process-global telemetry switch that `run_batch` flips from leaking
//! between workloads.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use serde_json::Value;

use crate::adapter::WORKLOADS;
use crate::stats::{self, Verdict};
use crate::workload::{RunArgs, END_TO_END};

/// `BENCHMARK.json`, at the root of the checkout.
fn manifest_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug)]
pub struct Manifest {
    pub run_seconds: f64,
    /// Regression bound of each end-to-end metric, as a share of the
    /// baseline's median.
    pub bounds: BTreeMap<String, f64>,
}

impl Manifest {
    pub fn load() -> Result<Self, String> {
        let path = manifest_path();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text)
    }

    fn parse(text: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let run_seconds = v
            .as_object()
            .and_then(|o| o.get("run_seconds"))
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json: no run_seconds")?;
        let mut bounds = BTreeMap::new();
        for m in field_array(&v, "end_to_end")? {
            let name = field_str(m, "name")?;
            let bound = m
                .as_object()
                .and_then(|o| o.get("bound"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("BENCHMARK.json: {name} has no bound"))?;
            bounds.insert(name.to_string(), bound);
        }
        Ok(Manifest {
            run_seconds,
            bounds,
        })
    }
}

fn field_array<'a>(v: &'a Value, key: &str) -> Result<&'a Vec<Value>, String> {
    v.as_object()
        .and_then(|o| o.get(key))
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing array '{key}'"))
}

fn field_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.as_object()
        .and_then(|o| o.get(key))
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string '{key}'"))
}

fn this_binary() -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(Command::new(exe))
}

/// Sets the workload up in a fresh process and returns that process's
/// time from start to the first timed op, oracle checks excluded.
pub fn setup_probe(args: &RunArgs) -> Result<f64, String> {
    let out = this_binary()?
        .args(["setup-probe", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("setup probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("setup probe exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("setup probe printed no time: {e}"))
}

/// What one workload process printed.
#[derive(Debug, Clone)]
pub struct ChildRun {
    pub workload: String,
    pub trace: bool,
    pub seed: u64,
    pub sim_digest: String,
    /// The result line, verbatim.
    pub result: String,
    pub correct: bool,
    pub metrics: BTreeMap<String, f64>,
}

impl ChildRun {
    fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"trace\":{},\"seed\":{},\"sim_digest\":\"{}\",\"result\":{}}}",
            self.workload,
            u8::from(self.trace),
            self.seed,
            self.sim_digest,
            self.result
        )
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        let o = v.as_object().ok_or("run is not an object")?;
        let result = o.get("result").ok_or("run has no result")?;
        let (correct, metrics) = parse_result(result)?;
        Ok(ChildRun {
            workload: field_str(v, "workload")?.to_string(),
            trace: o.get("trace").and_then(Value::as_u64) == Some(1),
            seed: o.get("seed").and_then(Value::as_u64).unwrap_or(0),
            sim_digest: field_str(v, "sim_digest")?.to_string(),
            result: serde_json::to_string(result).map_err(|e| e.to_string())?,
            correct,
            metrics,
        })
    }
}

/// `(correct, metric values)` of a result line.
fn parse_result(v: &Value) -> Result<(bool, BTreeMap<String, f64>), String> {
    let o = v.as_object().ok_or("result is not an object")?;
    let correct = matches!(o.get("correct"), Some(Value::Bool(true)));
    let metrics = o
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result has no metrics")?
        .iter()
        .filter_map(|(k, m)| {
            let value = m.as_object()?.get("value")?.as_f64()?;
            Some((k.clone(), value))
        })
        .collect();
    Ok((correct, metrics))
}

/// Runs one workload in a fresh process, relays what it prints, and
/// returns its result.
fn run_child(args: &RunArgs) -> Result<ChildRun, String> {
    let mut cmd = this_binary()?;
    cmd.args(["run", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", args.workload))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!("{} exited with {}", args.workload, out.status));
    }
    let result = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{} printed nothing", args.workload))?;
    let parsed: Value =
        serde_json::from_str(result).map_err(|e| format!("{}: {e}", args.workload))?;
    let (correct, metrics) = parse_result(&parsed)?;
    let sim_digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("sim_digest = "))
        .ok_or_else(|| format!("{} printed no sim_digest", args.workload))?;
    Ok(ChildRun {
        workload: args.workload.clone(),
        trace: args.trace,
        seed: args.seed,
        sim_digest: sim_digest.trim().to_string(),
        result: result.to_string(),
        correct,
        metrics,
    })
}

/// Every workload, each in a fresh process, once per entry of `passes`
/// (`false`: untraced, `true`: traced). A traced run must reproduce the
/// untraced run's digest.
pub fn run_suite(base: &RunArgs, passes: &[bool]) -> Result<Vec<ChildRun>, String> {
    let mut runs: Vec<ChildRun> = Vec::new();
    for &trace in passes {
        for (name, _) in WORKLOADS {
            let args = RunArgs {
                workload: (*name).to_string(),
                trace,
                ..base.clone()
            };
            let run = run_child(&args)?;
            if !run.correct {
                return Err(format!("{name}: an output check failed"));
            }
            if let Some(untraced) = runs.iter().find(|r| r.workload == *name && !r.trace) {
                if untraced.sim_digest != run.sim_digest {
                    return Err(format!(
                        "{name}: traced digest {} differs from untraced {}",
                        run.sim_digest, untraced.sim_digest
                    ));
                }
            }
            runs.push(run);
        }
    }
    Ok(runs)
}

/// Writes `runs` as the file `compare` reads.
pub fn write_runs(path: &Path, runs: &[ChildRun]) -> Result<(), String> {
    let body: Vec<String> = runs.iter().map(ChildRun::to_json).collect();
    std::fs::write(path, format!("{{\"runs\":[\n{}\n]}}\n", body.join(",\n")))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn read_runs(path: &Path) -> Result<Vec<ChildRun>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    field_array(&v, "runs")?
        .iter()
        .map(ChildRun::from_json)
        .collect()
}

/// Values of one end-to-end metric over the untraced runs of `workload`.
fn series(runs: &[ChildRun], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && !r.trace)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// `compare A.json B.json`: for each workload × end-to-end metric, whether
/// B is better, worse, within the bound or unresolved against A. Returns
/// whether anything got worse.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let manifest = Manifest::load()?;
    let (runs_a, runs_b) = (read_runs(a)?, read_runs(b)?);
    let mut any_worse = false;
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for (workload, _) in WORKLOADS {
        for def in END_TO_END {
            let (va, vb) = (
                series(&runs_a, workload, def.name),
                series(&runs_b, workload, def.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = *manifest
                .bounds
                .get(def.name)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", def.name))?;
            let verdict = stats::verdict(&va, &vb, def.better, bound);
            any_worse |= verdict == Verdict::Worse;
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            println!(
                "{:<18} {:<22} {:>14.4} {:>14.4} {:>+7.1}% {:>6.0}%  {} ({}+{} runs)",
                workload,
                def.name,
                ma,
                mb,
                (mb / ma - 1.0) * 100.0,
                bound * 100.0,
                verdict.label(),
                va.len(),
                vb.len()
            );
        }
        let digests = |runs: &[ChildRun]| -> Vec<(u64, String)> {
            let mut d: Vec<_> = runs
                .iter()
                .filter(|r| r.workload == *workload)
                .map(|r| (r.seed, r.sim_digest.clone()))
                .collect();
            d.sort();
            d.dedup();
            d
        };
        let (da, db) = (digests(&runs_a), digests(&runs_b));
        let shared: Vec<_> = da
            .iter()
            .filter(|(s, _)| db.iter().any(|(t, _)| s == t))
            .collect();
        if !shared.is_empty() {
            let same = shared.iter().all(|d| db.contains(d));
            println!(
                "{:<18} sim_digest {}",
                workload,
                if same { "identical" } else { "DIFFERS" }
            );
            any_worse |= !same;
        }
    }
    Ok(any_worse)
}

/// `calibrate N`: the untraced suite on N seeds, then each metric's spread
/// (first to third quartile, as a share of the median) against its bound.
/// A spread above a third of the bound calls for a longer run, not for a
/// wider bound.
pub fn calibrate(base: &RunArgs, n: usize) -> Result<(), String> {
    let manifest = Manifest::load()?;
    let mut runs = Vec::new();
    for i in 0..n {
        let args = RunArgs {
            seed: base.seed + i as u64,
            ..base.clone()
        };
        runs.extend(run_suite(&args, &[false])?);
    }
    println!(
        "\n{:<18} {:<22} {:>14} {:>9} {:>7}  reading",
        "workload", "metric", "median", "spread", "bound"
    );
    for (workload, _) in WORKLOADS {
        for def in END_TO_END {
            let values = series(&runs, workload, def.name);
            let bound = manifest.bounds.get(def.name).copied().unwrap_or(0.0);
            let spread = if values.len() >= 2 {
                stats::spread(&values)
            } else {
                0.0
            };
            let reading = if spread > bound {
                "OVER THE BOUND"
            } else if spread > bound / 3.0 {
                "above a third of the bound"
            } else {
                "steady"
            };
            println!(
                "{:<18} {:<22} {:>14.4} {:>8.2}% {:>6.0}%  {}",
                workload,
                def.name,
                stats::median(&values),
                spread * 100.0,
                bound * 100.0,
                reading
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Better;
    use crate::workload::PER_LAYER;

    fn manifest_value() -> Value {
        let text = std::fs::read_to_string(manifest_path()).expect("BENCHMARK.json is readable");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn better_of(v: &Value) -> Better {
        match field_str(v, "better").expect("metric has a direction") {
            "lower" => Better::Lower,
            "higher" => Better::Higher,
            other => panic!("unknown direction {other}"),
        }
    }

    #[test]
    fn benchmark_json_lists_what_the_binary_prints() {
        let v = manifest_value();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = field_array(&v, key).expect("metric list");
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (m, def) in listed.iter().zip(defs) {
                assert_eq!(field_str(m, "name").unwrap(), def.name);
                assert_eq!(field_str(m, "unit").unwrap(), def.unit, "{}", def.name);
                assert_eq!(better_of(m), def.better, "{}", def.name);
            }
        }
        let listed = field_array(&v, "workloads").expect("workload list");
        assert_eq!(listed.len(), WORKLOADS.len());
        for (w, (name, why)) in listed.iter().zip(WORKLOADS) {
            assert_eq!(field_str(w, "name").unwrap(), *name);
            assert_eq!(field_str(w, "why").unwrap(), *why);
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn manifest_bounds_stay_inside_the_contract() {
        let m = Manifest::load().expect("BENCHMARK.json loads");
        assert!((1.0..=60.0).contains(&m.run_seconds) && m.run_seconds.fract() == 0.0);
        for def in END_TO_END {
            let bound = m.bounds[def.name];
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", def.name);
        }
        // Set-up time gets the widest bound.
        assert!(m.bounds.values().all(|b| *b <= m.bounds["setup_s"]));
    }

    #[test]
    fn runs_round_trip_through_the_compare_file() {
        let run = ChildRun {
            workload: "train_mnist".to_string(),
            trace: false,
            seed: 7,
            sim_digest: "0x00000000000000ff".to_string(),
            result: "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
                     \"op_quiet_ms\":{\"value\":1.5,\"unit\":\"ms\"}}}"
                .to_string(),
            correct: true,
            metrics: BTreeMap::new(),
        };
        let v: Value = serde_json::from_str(&run.to_json()).expect("run encodes as JSON");
        let back = ChildRun::from_json(&v).expect("run decodes");
        assert_eq!(back.workload, "train_mnist");
        assert_eq!((back.trace, back.seed, back.correct), (false, 7, true));
        assert_eq!(back.sim_digest, run.sim_digest);
        assert_eq!(back.metrics["op_quiet_ms"], 1.5);
        assert_eq!(series(&[back], "train_mnist", "op_quiet_ms"), [1.5]);
    }
}
