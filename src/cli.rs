//! The `zfgan` command-line interface — a single entry point over the
//! library for the workflows a user reaches for most often.
//!
//! The heavy lifting lives in [`run`], which is pure (arguments in,
//! rendered text out) and therefore directly testable; `src/main.rs` is a
//! thin shell around it.
//!
//! Argument errors are *targeted*: an unknown flag or a malformed value
//! produces a one-line message naming the flag and the accepted
//! alternatives, not a full usage dump — the dump is reserved for `help`
//! and an empty invocation.

use std::net::TcpListener;
use std::sync::Arc;

use crate::accel::{datasheet, AccelConfig, GanAccelerator, MemoryAnalysis};
use crate::crashtest;
use crate::faults::{self, CampaignConfig};
use crate::telemetry::{export, Registry};
use crate::train::{CrashPhase, CrashSpec, TrainArgs};
use crate::workloads::GanSpec;
use serde_json::Value;

/// Executes one CLI invocation and returns the text to print.
///
/// # Errors
///
/// Returns a descriptive error string when the arguments do not name a
/// valid command or carry malformed flags; the caller prints it to stderr
/// and exits non-zero.
pub fn run(args: &[String]) -> Result<String, String> {
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    match argv.split_first() {
        None => Ok(usage()),
        Some((&"help", _)) | Some((&"--help", _)) | Some((&"-h", _)) => Ok(usage()),
        Some((&"list", rest)) => {
            parse_flags(rest, &[])?;
            Ok(list_workloads())
        }
        Some((&"datasheet", rest)) => {
            let (gan, rest) = positional(rest, "datasheet", "<gan>")?;
            let flags = parse_flags(rest, &observed(&[("--pes", true)]))?;
            let pes = flag_num(&flags, "--pes")?;
            with_telemetry(&flags, || datasheet_cmd(gan, pes))
        }
        Some((&"memory", rest)) => {
            let (gan, rest) = positional(rest, "memory", "<gan>")?;
            let flags = parse_flags(rest, &[("--batch", true)])?;
            memory_cmd(gan, flag_num(&flags, "--batch")?.unwrap_or(256))
        }
        Some((&"sweep", rest)) => {
            let (gan, rest) = match rest.split_first() {
                Some((&g, more)) if !g.starts_with("--") => (g, more),
                _ => ("cgan", rest),
            };
            let flags = parse_flags(rest, &OBSERVE)?;
            with_telemetry(&flags, || sweep_cmd(gan))
        }
        Some((&"faults", rest)) => {
            let flags = parse_flags(
                rest,
                &observed(&[("--seed", true), ("--smoke", false), ("--full", false)]),
            )?;
            faults_cmd(&flags)
        }
        Some((&"train", rest)) => {
            let flags = parse_flags(
                rest,
                &observed(&[
                    ("--seed", true),
                    ("--iters", true),
                    ("--batch", true),
                    ("--gan", true),
                    ("--dir", true),
                    ("--every", true),
                    ("--keep", true),
                    ("--resume", false),
                    ("--crash-iter", true),
                    ("--crash-phase", true),
                    ("--crash-bytes", true),
                ]),
            )?;
            with_telemetry(&flags, || train_cmd(&flags))
        }
        Some((&"crashtest", rest)) => {
            let flags = parse_flags(
                rest,
                &observed(&[
                    ("--seed", true),
                    ("--iters", true),
                    ("--points", true),
                    ("--trials", true),
                    ("--dir", true),
                ]),
            )?;
            with_telemetry(&flags, || crashtest_cmd(&flags))
        }
        Some((&"trace", rest)) => {
            let flags = parse_flags(
                rest,
                &[
                    ("--arch", true),
                    ("--seed", true),
                    ("--capacity", true),
                    ("--out", true),
                    ("--check", true),
                    ("--flame-out", true),
                ],
            )?;
            trace_cmd(&flags)
        }
        Some((&"report", rest)) => {
            let flags = parse_flags(
                rest,
                &[
                    ("--arch", true),
                    ("--seed", true),
                    ("--capacity", true),
                    ("--out", true),
                    ("--flame-out", true),
                ],
            )?;
            report_cmd(&flags)
        }
        Some((&"perf", rest)) => {
            let flags = parse_flags(
                rest,
                &[("--check", false), ("--ingest", true), ("--ledger", true)],
            )?;
            crate::perf::run_perf(
                flag_str(&flags, "--ingest").map(std::path::Path::new),
                flag_set(&flags, "--check"),
                flag_str(&flags, "--ledger").map(std::path::Path::new),
            )
        }
        Some((&"dse", rest)) => {
            let (sweep, rest) = positional(rest, "dse", "<sweep>")?;
            let flags = parse_flags(
                rest,
                &observed(&[
                    ("--cache", true),
                    ("--out", true),
                    ("--verify", true),
                    ("--window", true),
                    ("--shards", true),
                    ("--shard-index", true),
                    ("--shard-count", true),
                ]),
            )?;
            let verify = match flag_str(&flags, "--verify") {
                None | Some("trust") => zfgan_dse::VerifyPolicy::Trust,
                Some("all") => zfgan_dse::VerifyPolicy::All,
                Some(other) => return Err(format!("--verify {other}: expected 'trust' or 'all'")),
            };
            let args = crate::dse::DseArgs {
                sweep: sweep.to_string(),
                cache: flag_str(&flags, "--cache").map(std::path::PathBuf::from),
                out: flag_str(&flags, "--out").map(std::path::PathBuf::from),
                verify,
                window: flag_num(&flags, "--window")?,
                shards: flag_num(&flags, "--shards")?,
                shard_index: flag_num(&flags, "--shard-index")?,
                shard_count: flag_num(&flags, "--shard-count")?,
            };
            with_telemetry(&flags, || crate::dse::run_dse(&args))
        }
        Some((&"serve-metrics", rest)) => {
            let flags = parse_flags(
                rest,
                &[
                    ("--addr", true),
                    ("--max-requests", true),
                    ("--scrape", true),
                    ("--path", true),
                ],
            )?;
            serve_cmd(&flags)
        }
        Some((&other, _)) => Err(format!("unknown command '{other}'\n{}", usage())),
    }
}

fn usage() -> String {
    "zfgan — cycle-level reproduction of the HPCA'18 zero-free GAN accelerator\n\
     \n\
     USAGE: zfgan <command> [options]\n\
     \n\
     COMMANDS:\n\
     \x20 list                       the built-in GAN workloads\n\
     \x20 datasheet <gan> [--pes N]  full accelerator summary for a workload\n\
     \x20 memory <gan> [--batch N]   Section III-A buffering analysis\n\
     \x20 sweep [<gan>]              PE-count scaling study\n\
     \x20 faults [--seed N] [--smoke|--full]\n\
     \x20                            fault-injection campaign: rate x site x dataflow\n\
     \x20 trace [--arch A] [--seed N] [--capacity N] [--out PATH]\n\
     \x20                            run the cycle-accurate executors and export a\n\
     \x20                            Chrome-trace / Perfetto JSON timeline\n\
     \x20 trace --check PATH         validate a trace or report file; print its\n\
     \x20                            deterministic section\n\
     \x20 report [--arch A] [--seed N] [--capacity N] [--out PATH]\n\
     \x20                            per-dataflow cycle attribution (MAC / DRAM / buffer /\n\
     \x20                            idle) with PE utilization and roofline position; the\n\
     \x20                            components sum exactly to the engine's total cycles\n\
     \x20 perf [--ingest RUNS.json] [--check] [--ledger PATH]\n\
     \x20                            render the results/ledger.jsonl series; --ingest\n\
     \x20                            appends the medians of a `zfgan-benchmark run --out`\n\
     \x20                            file; --check fails if the newest ingest is worse than\n\
     \x20                            the previous one of its host by a BENCHMARK.json bound\n\
     \x20 dse <sweep> [--cache PATH] [--out PATH] [--verify trust|all]\n\
     \x20     [--window N] [--shards N]\n\
     \x20                            serve a figure sweep (fig15..fig19) as a query batch:\n\
     \x20                            dedup, content-addressed result cache (also via\n\
     \x20                            ZFGAN_DSE_CACHE), JSONL cell stream with incremental\n\
     \x20                            Pareto frontier; --shards N fans the key space out\n\
     \x20                            across child processes sharing the cache\n\
     \x20 serve-metrics [--addr A] [--max-requests N]\n\
     \x20                            HTTP endpoint exposing /metrics (Prometheus text\n\
     \x20                            format) and /health; --scrape ADDR [--path P] is the\n\
     \x20                            matching one-shot client\n\
     \x20 train [--seed N] [--iters N] [--batch N] [--gan G] [--dir PATH]\n\
     \x20       [--every N] [--keep K] [--resume]\n\
     \x20                            deterministic supervised training with durable,\n\
     \x20                            crash-consistent checkpoints; --resume continues\n\
     \x20                            bit-identically from the newest valid snapshot;\n\
     \x20                            --gan trains a paper workload (no --dir), not the\n\
     \x20                            tiny pair\n\
     \x20 crashtest [--seed N] [--iters N] [--points N] [--trials N] [--dir PATH]\n\
     \x20                            crash-injection campaign: kill training children at\n\
     \x20                            seeded points (incl. torn mid-write), corrupt stored\n\
     \x20                            checkpoints, prove resume is byte-identical\n\
     \x20 help                       this text\n\
     \n\
     <gan> is one of: mnist, dcgan, cgan (or a case-insensitive prefix).\n\
     datasheet/sweep/faults/train/crashtest/dse also accept --telemetry (print a\n\
     metrics summary), --trace-out PATH (write a Chrome-trace JSON of the run)\n\
     and --flame-out PATH (write a collapsed-stack flamegraph of the run's\n\
     spans, loadable by inferno / speedscope).\n\
     The full per-figure evaluation lives in `cargo run -p zfgan-bench --bin <figN|tableN|...>`.\n"
        .to_string()
}

/// The observability flags every long-running command accepts (see
/// [`with_telemetry`]), as `(flag, takes_value)` pairs.
const OBSERVE: [(&str, bool); 3] = [
    ("--telemetry", false),
    ("--trace-out", true),
    ("--flame-out", true),
];

/// A command's own flag spec with [`OBSERVE`] spliced in after it.
fn observed(own: &[(&'static str, bool)]) -> Vec<(&'static str, bool)> {
    [own, &OBSERVE].concat()
}

/// One parsed flag occurrence: `(name, value)`.
type Flags<'a> = Vec<(&'a str, Option<&'a str>)>;

/// Takes the command's required leading positional argument.
fn positional<'a, 'b>(
    rest: &'b [&'a str],
    cmd: &str,
    what: &str,
) -> Result<(&'a str, &'b [&'a str]), String> {
    match rest.split_first() {
        Some((&first, more)) if !first.starts_with("--") => Ok((first, more)),
        _ => Err(format!("{cmd}: missing {what}\n{}", usage())),
    }
}

/// Parses `rest` against a spec of `(flag, takes_value)` pairs, rejecting
/// anything else with a one-line error naming the alternatives.
fn parse_flags<'a>(rest: &[&'a str], spec: &[(&str, bool)]) -> Result<Flags<'a>, String> {
    let expected = || -> String {
        if spec.is_empty() {
            "this command takes no flags".to_string()
        } else {
            format!(
                "expected one of: {}",
                spec.iter().map(|(f, _)| *f).collect::<Vec<_>>().join(", ")
            )
        }
    };
    let mut out = Flags::new();
    let mut it = rest.iter();
    while let Some(&arg) = it.next() {
        let Some(&(flag, takes_value)) = spec.iter().find(|(f, _)| *f == arg) else {
            return Err(format!("unknown flag '{arg}' ({})", expected()));
        };
        if takes_value {
            let Some(&value) = it.next() else {
                return Err(format!("{flag} needs a value"));
            };
            out.push((arg, Some(value)));
        } else {
            out.push((arg, None));
        }
    }
    Ok(out)
}

/// The last numeric value of `flag`, if present.
fn flag_num(flags: &Flags<'_>, flag: &str) -> Result<Option<usize>, String> {
    match flags.iter().rev().find(|(f, _)| *f == flag) {
        None => Ok(None),
        Some((_, Some(v))) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{flag}: '{v}' is not a number")),
        Some((_, None)) => Ok(None),
    }
}

fn flag_set(flags: &Flags<'_>, flag: &str) -> bool {
    flags.iter().any(|(f, _)| *f == flag)
}

/// The last string value of `flag`, if present.
fn flag_str<'a>(flags: &Flags<'a>, flag: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(f, _)| *f == flag)
        .and_then(|(_, v)| *v)
}

/// Runs `body` under a fresh scoped telemetry registry when `--telemetry`,
/// `--trace-out` or `--flame-out` is present, then appends the metrics
/// summary and/or writes the Chrome-trace JSON / collapsed-stack
/// flamegraph. Without any of the flags, `body` runs bare.
fn with_telemetry(
    flags: &Flags<'_>,
    body: impl FnOnce() -> Result<String, String>,
) -> Result<String, String> {
    let want_summary = flag_set(flags, "--telemetry");
    let trace_out = flag_str(flags, "--trace-out");
    let flame_out = flag_str(flags, "--flame-out");
    if !want_summary && trace_out.is_none() && flame_out.is_none() {
        return body();
    }
    let reg = Arc::new(Registry::new());
    let result = {
        let _guard = crate::telemetry::scope(Arc::clone(&reg));
        body()
    };
    let mut out = result?;
    if let Some(path) = trace_out {
        let json = export::chrome_trace(&reg, &[]);
        std::fs::write(path, &json).map_err(|e| format!("--trace-out {path}: {e}"))?;
        out.push_str(&format!(
            "\ntrace written to {path} ({} bytes)\n",
            json.len()
        ));
    }
    if let Some(path) = flame_out {
        let folded = export::collapsed_stacks(&reg);
        std::fs::write(path, &folded).map_err(|e| format!("--flame-out {path}: {e}"))?;
        out.push_str(&format!(
            "\nflamegraph (collapsed stacks) written to {path} ({} lines)\n",
            folded.lines().count()
        ));
    }
    if want_summary {
        out.push('\n');
        out.push_str(&export::summary(&reg));
    }
    Ok(out)
}

/// The executor `zfgan trace` draws for an architecture: its `T-CONV`
/// where it runs one, else its `S-CONV`.
fn trace_executor(arch: &str) -> Result<&'static str, String> {
    let family = crate::report::selected_executors(Some(arch))?;
    let t_conv = family.iter().find(|e| e.ends_with("/t_conv"));
    Ok(t_conv.copied().unwrap_or(family[0]))
}

/// `zfgan trace`: run the traced executors under a scoped registry and
/// export one Chrome-trace JSON with a cycle-domain track per
/// architecture; `--check PATH` instead validates an existing file.
fn trace_cmd(flags: &Flags<'_>) -> Result<String, String> {
    if let Some(path) = flag_str(flags, "--check") {
        return trace_check(path);
    }
    let seed = flag_num(flags, "--seed")?.unwrap_or(2024) as u64;
    let capacity = flag_num(flags, "--capacity")?.unwrap_or(4096);
    if capacity == 0 {
        return Err("--capacity must be non-zero".to_string());
    }
    let arch = flag_str(flags, "--arch").unwrap_or("all");
    let selected: Vec<&str> = if arch == "all" {
        vec!["nlr", "wst", "ost", "zfost", "zfwst"]
    } else {
        vec![arch]
    };

    let reg = Arc::new(Registry::new());
    let mut tracks: Vec<(String, Vec<(u64, String)>)> = Vec::new();
    let mut out = format!("trace: seed {seed}, capacity {capacity}/arch\n");
    {
        let _guard = crate::telemetry::scope(Arc::clone(&reg));
        for name in &selected {
            let (_, buf, ..) = crate::report::run_executor(trace_executor(name)?, seed, capacity)?;
            out.push_str(&format!(
                "  {name:<6} {} events retained, {} evicted\n",
                buf.len(),
                buf.evicted()
            ));
            tracks.push((
                (*name).to_string(),
                buf.iter().map(|(c, e)| (c, e.to_string())).collect(),
            ));
        }
    }

    let json = export::chrome_trace(&reg, &tracks);
    match flag_str(flags, "--out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("--out {path}: {e}"))?;
            out.push_str(&format!(
                "trace written to {path} ({} bytes) — open in https://ui.perfetto.dev\n",
                json.len()
            ));
        }
        None => {
            out.push('\n');
            out.push_str(&export::summary(&reg));
        }
    }
    if let Some(path) = flag_str(flags, "--flame-out") {
        let folded = export::collapsed_stacks(&reg);
        std::fs::write(path, &folded).map_err(|e| format!("--flame-out {path}: {e}"))?;
        out.push_str(&format!(
            "flamegraph (collapsed stacks) written to {path} ({} lines)\n",
            folded.lines().count()
        ));
    }
    Ok(out)
}

/// `zfgan trace --check PATH`: the shared artifact validator. Accepts
/// both Chrome-trace files (a `traceEvents` array) and `zfgan report`
/// files (an `attribution` array); either way the file must carry a valid
/// `deterministic` object, which is printed in canonical form — the line
/// the CI gate diffs between two same-seed runs. One code path, one error
/// vocabulary, for both artifact kinds.
fn trace_check(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("--check {path}: {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let obj = v
        .as_object()
        .ok_or_else(|| format!("{path}: top level is not a JSON object"))?;
    let (kind, what, n) = if let Some(events) = obj.get("traceEvents").and_then(Value::as_array) {
        ("Chrome trace", "events", events.len())
    } else if let Some(rows) = obj.get("attribution").and_then(Value::as_array) {
        ("attribution report", "executors", rows.len())
    } else {
        return Err(format!(
            "{path}: missing 'traceEvents' (trace) or 'attribution' (report) array"
        ));
    };
    let det = obj
        .get("deterministic")
        .ok_or_else(|| format!("{path}: missing 'deterministic' section"))?;
    if det.as_object().is_none() {
        return Err(format!("{path}: 'deterministic' is not an object"));
    }
    Ok(format!(
        "{path}: valid {kind}, {n} {what}\ndeterministic:{det}\n"
    ))
}

/// `zfgan report`: build the per-dataflow cycle-attribution report and
/// optionally write the byte-stable JSON (`--out`) and the
/// collapsed-stack flamegraph (`--flame-out`).
fn report_cmd(flags: &Flags<'_>) -> Result<String, String> {
    let seed = flag_num(flags, "--seed")?.unwrap_or(crate::report::DEFAULT_SEED as usize) as u64;
    let capacity = flag_num(flags, "--capacity")?.unwrap_or(crate::report::DEFAULT_CAPACITY);
    let report = crate::report::build_report(flag_str(flags, "--arch"), seed, capacity)?;
    let mut out = report.render();
    if let Some(path) = flag_str(flags, "--out") {
        let json = report.to_json();
        std::fs::write(path, &json).map_err(|e| format!("--out {path}: {e}"))?;
        out.push_str(&format!(
            "report written to {path} ({} bytes)\n",
            json.len()
        ));
    }
    if let Some(path) = flag_str(flags, "--flame-out") {
        std::fs::write(path, &report.collapsed).map_err(|e| format!("--flame-out {path}: {e}"))?;
        out.push_str(&format!(
            "flamegraph (collapsed stacks) written to {path} ({} lines)\n",
            report.collapsed.lines().count()
        ));
    }
    Ok(out)
}

/// `zfgan serve-metrics`: either serve the process-global registry over
/// HTTP, or (with `--scrape`) act as the matching one-shot client.
fn serve_cmd(flags: &Flags<'_>) -> Result<String, String> {
    if let Some(addr) = flag_str(flags, "--scrape") {
        let path = flag_str(flags, "--path").unwrap_or("/metrics");
        return crate::telemetry::http::scrape(addr, path);
    }
    if flag_str(flags, "--path").is_some() {
        return Err("--path needs --scrape".to_string());
    }
    let addr = flag_str(flags, "--addr").unwrap_or("127.0.0.1:9898");
    let max = flag_num(flags, "--max-requests")?.map(|n| n as u64);
    // The bound address is printed before serving, so a scraper knows where
    // to connect even with `--addr 127.0.0.1:0`.
    let listener = TcpListener::bind(addr).map_err(|e| format!("--addr {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("--addr {addr}: {e}"))?;
    println!("serving metrics on http://{local}/metrics (also /health); ctrl-c to stop");
    crate::telemetry::http::serve_on(listener, max)
}

fn lookup(gan: &str) -> Result<GanSpec, String> {
    let needle = gan.to_ascii_lowercase();
    GanSpec::all_paper_gans()
        .into_iter()
        .find(|s| s.name().to_ascii_lowercase().starts_with(&needle))
        .ok_or_else(|| format!("unknown GAN '{gan}' (try: mnist, dcgan, cgan)"))
}

fn list_workloads() -> String {
    let mut out = String::from("Built-in workloads (Discriminator ladders, Table IV / Fig. 1):\n");
    for spec in GanSpec::all_paper_gans() {
        let (c, h, w) = spec.image_shape();
        out.push_str(&format!(
            "  {:10} {}x{}x{} image, {} layers, {:.2} GOP per training sample\n",
            spec.name(),
            c,
            h,
            w,
            spec.layers().len(),
            spec.iteration_ops() as f64 / 1e9
        ));
    }
    out
}

fn datasheet_cmd(gan: &str, pes: Option<usize>) -> Result<String, String> {
    let spec = lookup(gan)?;
    let config = match pes {
        Some(n) if n < 32 => return Err(format!("--pes {n} is too small (need ≥ 32)")),
        Some(n) => AccelConfig::with_total_pes(n),
        None => AccelConfig::vcu118(),
    };
    Ok(datasheet(&GanAccelerator::new(config, spec), 64))
}

fn memory_cmd(gan: &str, batch: usize) -> Result<String, String> {
    if batch == 0 {
        return Err("--batch must be non-zero".to_string());
    }
    let spec = lookup(gan)?;
    let m = MemoryAnalysis::analyse(&spec, batch, 2);
    Ok(format!(
        "{} @ batch {batch} (16-bit data):\n\
         \x20 synchronized buffering : {:>12} bytes ({}on chip)\n\
         \x20 deferred buffering     : {:>12} bytes ({}on chip)\n\
         \x20 reduction              : {:.0}x (= 2 x batch)\n",
        spec.name(),
        m.synchronized_bytes,
        if m.synchronized_fits_on_chip {
            "fits "
        } else {
            "does NOT fit "
        },
        m.deferred_bytes,
        if m.deferred_fits_on_chip {
            "fits "
        } else {
            "does NOT fit "
        },
        m.reduction_factor(),
    ))
}

fn sweep_cmd(gan: &str) -> Result<String, String> {
    let spec = lookup(gan)?;
    let mut out = format!(
        "PE sweep on {} (deferred, VCU118 bandwidth):\n",
        spec.name()
    );
    out.push_str("  PEs     cyc/sample      GOPS   bound\n");
    for total in [512usize, 1024, 1680, 2048, 4096] {
        let accel = GanAccelerator::new(AccelConfig::with_total_pes(total), spec.clone());
        let r = accel.iteration_report(8);
        out.push_str(&format!(
            "  {:5}  {:>12}  {:>8.0}   {}\n",
            accel.config().total_pes(),
            accel.iteration_cycles_per_sample(),
            r.gops,
            if accel.is_bandwidth_bound() {
                "DRAM"
            } else {
                "compute"
            }
        ));
    }
    Ok(out)
}

fn faults_cmd(flags: &Flags<'_>) -> Result<String, String> {
    if flag_set(flags, "--smoke") && flag_set(flags, "--full") {
        return Err("--smoke and --full are mutually exclusive".to_string());
    }
    let seed = flag_num(flags, "--seed")?.unwrap_or(2024) as u64;
    let cfg = if flag_set(flags, "--full") {
        CampaignConfig::full(seed)
    } else {
        CampaignConfig::smoke(seed)
    };
    // The campaign always runs under its own scoped registry so the ABFT
    // detection-latency histogram and the supervisor counters are captured
    // even without --telemetry; the flags only control what gets exported.
    let reg = Arc::new(Registry::new());
    let result = {
        let _guard = crate::telemetry::scope(Arc::clone(&reg));
        faults::run_campaign(&cfg).map_err(|e| format!("campaign failed: {e}"))?
    };
    let mut summary = faults::render_summary(&result);
    if let Some(path) = flag_str(flags, "--trace-out") {
        let json = export::chrome_trace(&reg, &[]);
        std::fs::write(path, &json).map_err(|e| format!("--trace-out {path}: {e}"))?;
        summary.push_str(&format!(
            "\ntrace written to {path} ({} bytes)\n",
            json.len()
        ));
    }
    if let Some(path) = flag_str(flags, "--flame-out") {
        let folded = export::collapsed_stacks(&reg);
        std::fs::write(path, &folded).map_err(|e| format!("--flame-out {path}: {e}"))?;
        summary.push_str(&format!(
            "\nflamegraph (collapsed stacks) written to {path} ({} lines)\n",
            folded.lines().count()
        ));
    }
    if flag_set(flags, "--telemetry") {
        summary.push('\n');
        summary.push_str(&export::summary(&reg));
    }
    let violations = faults::smoke_violations(&result);
    if violations.is_empty() {
        Ok(summary)
    } else {
        Err(format!(
            "{summary}\nRESILIENCE INVARIANTS VIOLATED:\n{}",
            violations
                .iter()
                .map(|v| format!("  - {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        ))
    }
}

/// `zfgan train`: parse flags into [`TrainArgs`] and run the durable
/// training loop.
fn train_cmd(flags: &Flags<'_>) -> Result<String, String> {
    let mut args = TrainArgs::default();
    if let Some(seed) = flag_num(flags, "--seed")? {
        args.seed = seed as u64;
    }
    if let Some(iters) = flag_num(flags, "--iters")? {
        args.iters = iters as u64;
    }
    if let Some(batch) = flag_num(flags, "--batch")? {
        args.batch = batch;
    }
    if let Some(every) = flag_num(flags, "--every")? {
        args.every = every as u64;
    }
    if let Some(keep) = flag_num(flags, "--keep")? {
        args.keep = keep;
    }
    args.gan = flag_str(flags, "--gan").map(lookup).transpose()?;
    args.dir = flag_str(flags, "--dir").map(std::path::PathBuf::from);
    args.resume = flag_set(flags, "--resume");
    if let Some(iter) = flag_num(flags, "--crash-iter")? {
        let phase = match flag_str(flags, "--crash-phase") {
            Some(s) => CrashPhase::parse(s)?,
            None => return Err("--crash-iter needs --crash-phase".to_string()),
        };
        args.crash = Some(CrashSpec {
            iteration: iter as u64,
            phase,
            bytes: flag_num(flags, "--crash-bytes")?.unwrap_or(0),
        });
    } else if flag_str(flags, "--crash-phase").is_some() {
        return Err("--crash-phase needs --crash-iter".to_string());
    }
    crate::train::run_train(&args)
}

/// `zfgan crashtest`: run the crash-injection campaign with real child
/// processes, failing (non-zero exit) when any durability invariant is
/// violated.
fn crashtest_cmd(flags: &Flags<'_>) -> Result<String, String> {
    let seed = flag_num(flags, "--seed")?.unwrap_or(2024) as u64;
    let mut cfg = crashtest::CrashtestConfig::smoke(seed);
    if let Some(iters) = flag_num(flags, "--iters")? {
        cfg.iters = iters as u64;
    }
    if let Some(points) = flag_num(flags, "--points")? {
        cfg.points = points;
    }
    if let Some(trials) = flag_num(flags, "--trials")? {
        cfg.trials = trials;
    }
    let dir = match flag_str(flags, "--dir") {
        Some(d) => std::path::PathBuf::from(d),
        None => std::env::temp_dir().join(format!("zfgan-crashtest-{}", std::process::id())),
    };
    let result = crashtest::run_campaign(&cfg, &crashtest::ExeRunner, &dir)
        .map_err(|e| format!("campaign failed: {e}"))?;
    let summary = crashtest::render_summary(&result);
    let violations = crashtest::violations(&result);
    if violations.is_empty() {
        Ok(summary)
    } else {
        Err(format!(
            "{summary}\nDURABILITY INVARIANTS VIOLATED:\n{}",
            violations
                .iter()
                .map(|v| format!("  - {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_lists_all_commands() {
        let out = run(&args(&["help"])).unwrap();
        for cmd in ["list", "datasheet", "memory", "sweep", "faults"] {
            assert!(out.contains(cmd), "usage missing {cmd}");
        }
        assert_eq!(run(&[]).unwrap(), out);
    }

    #[test]
    fn list_names_the_three_gans() {
        let out = run(&args(&["list"])).unwrap();
        for gan in ["MNIST-GAN", "DCGAN", "cGAN"] {
            assert!(out.contains(gan));
        }
    }

    #[test]
    fn datasheet_resolves_prefixes() {
        let out = run(&args(&["datasheet", "mnist"])).unwrap();
        assert!(out.contains("MNIST-GAN"));
        assert!(out.contains("GOPS"));
    }

    #[test]
    fn datasheet_respects_pes_flag() {
        let out = run(&args(&["datasheet", "cgan", "--pes", "512"])).unwrap();
        assert!(out.contains("cGAN"));
        // 512-PE split: 23 ST channels × 16 PEs.
        assert!(out.contains("4x4x23"), "{out}");
    }

    #[test]
    fn memory_reports_the_126_mb_figure() {
        let out = run(&args(&["memory", "dcgan"])).unwrap();
        assert!(out.contains("125829120"), "{out}");
        assert!(out.contains("512x"));
    }

    #[test]
    fn sweep_runs_and_mentions_bounds() {
        let out = run(&args(&["sweep", "cgan"])).unwrap();
        assert!(out.contains("compute"));
        assert!(out.lines().count() >= 6);
    }

    #[test]
    fn faults_smoke_campaign_passes_its_invariants() {
        let out = run(&args(&["faults", "--seed", "2024"])).unwrap();
        assert!(out.contains("gemm-accumulator"), "{out}");
        assert!(out.contains("Supervised training"), "{out}");
        assert!(out.contains("completed: true"), "{out}");
    }

    #[test]
    fn train_runs_and_prints_a_deterministic_line() {
        let out = run(&args(&["train", "--iters", "2"])).unwrap();
        assert!(out.contains("deterministic:{\"seed\":2024"), "{out}");
        let again = run(&args(&["train", "--iters", "2"])).unwrap();
        assert_eq!(out, again, "same flags must reproduce the same output");
    }

    #[test]
    fn train_flag_validation() {
        let err = run(&args(&["train", "--resume"])).unwrap_err();
        assert_eq!(err, "--resume requires --dir");
        let err = run(&args(&["train", "--crash-iter", "1"])).unwrap_err();
        assert_eq!(err, "--crash-iter needs --crash-phase");
        let err = run(&args(&["train", "--gan", "nope"])).unwrap_err();
        assert!(err.contains("unknown GAN 'nope'"), "{err}");
        let err = run(&args(&["train", "--crash-phase", "mid-write"])).unwrap_err();
        assert_eq!(err, "--crash-phase needs --crash-iter");
        let err = run(&args(&[
            "train",
            "--crash-iter",
            "1",
            "--crash-phase",
            "sideways",
        ]))
        .unwrap_err();
        assert!(err.contains("before-publish"), "{err}");
    }

    #[test]
    fn report_is_deterministic_and_names_the_selected_executors() {
        let out = run(&args(&["report", "--arch", "zfost"])).unwrap();
        assert!(out.contains("zfost/s_conv"), "{out}");
        assert!(out.contains("zfost/t_conv"), "{out}");
        let again = run(&args(&["report", "--arch", "zfost"])).unwrap();
        assert_eq!(out, again, "same-seed reports must be byte-identical");
    }

    #[test]
    fn trace_check_validates_report_files_through_the_shared_path() {
        let dir = std::env::temp_dir().join(format!("zfgan-cli-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let p = path.to_str().unwrap();
        run(&args(&["report", "--arch", "nlr", "--out", p])).unwrap();
        let out = run(&args(&["trace", "--check", p])).unwrap();
        assert!(
            out.contains("valid attribution report, 1 executors"),
            "{out}"
        );
        assert!(out.contains("deterministic:{"), "{out}");
        // A file with neither array is rejected with the shared error.
        std::fs::write(&path, "{\"deterministic\":{}}").unwrap();
        let err = run(&args(&["trace", "--check", p])).unwrap_err();
        assert!(
            err.contains("'traceEvents' (trace) or 'attribution' (report)"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn perf_and_serve_flag_validation() {
        let err = run(&args(&["perf", "--ledger", "/nonexistent/ledger.jsonl"])).unwrap_err();
        assert!(err.contains("--ledger /nonexistent/ledger.jsonl"), "{err}");
        for (flag, value) in [("--window", "8"), ("--tolerance", "35"), ("--file", "x")] {
            let err = run(&args(&["perf", flag, value])).unwrap_err();
            assert!(err.contains(&format!("unknown flag '{flag}'")), "{err}");
        }
        let err = run(&args(&["serve-metrics", "--path", "/health"])).unwrap_err();
        assert_eq!(err, "--path needs --scrape");
        let err = run(&args(&["serve-metrics", "--scrape", "127.0.0.1:1"])).unwrap_err();
        assert!(err.contains("connect"), "{err}");
    }

    #[test]
    fn errors_are_informative() {
        assert!(run(&args(&["bogus"]))
            .unwrap_err()
            .contains("unknown command"));
        assert!(run(&args(&["datasheet"])).unwrap_err().contains("missing"));
        assert!(run(&args(&["datasheet", "nope"]))
            .unwrap_err()
            .contains("unknown GAN"));
        assert!(run(&args(&["memory", "dcgan", "--batch", "x"]))
            .unwrap_err()
            .contains("not a number"));
        assert!(run(&args(&["datasheet", "cgan", "--pes", "8"]))
            .unwrap_err()
            .contains("too small"));
    }

    #[test]
    fn flag_errors_are_one_line_and_targeted() {
        // Unknown flag: names the flag and the accepted alternatives —
        // no usage dump.
        let err = run(&args(&["datasheet", "cgan", "--pse", "512"])).unwrap_err();
        assert_eq!(err.lines().count(), 1, "{err}");
        assert!(err.contains("unknown flag '--pse'"), "{err}");
        assert!(err.contains("--pes"), "{err}");

        let err = run(&args(&["memory", "dcgan", "--pes", "4"])).unwrap_err();
        assert_eq!(err.lines().count(), 1, "{err}");
        assert!(err.contains("--batch"), "{err}");

        // Malformed value: names flag and offending token.
        let err = run(&args(&["datasheet", "cgan", "--pes", "many"])).unwrap_err();
        assert_eq!(err, "--pes: 'many' is not a number");

        // Missing value.
        let err = run(&args(&["memory", "dcgan", "--batch"])).unwrap_err();
        assert_eq!(err, "--batch needs a value");

        // Commands without flags reject stray ones.
        let err = run(&args(&["list", "--verbose"])).unwrap_err();
        assert!(err.contains("takes no flags"), "{err}");
        let err = run(&args(&["sweep", "cgan", "--fast"])).unwrap_err();
        assert!(err.contains("unknown flag '--fast'"), "{err}");
        assert!(err.contains("--telemetry"), "{err}");

        // faults: flag validation.
        let err = run(&args(&["faults", "--smoke", "--full"])).unwrap_err();
        assert_eq!(err, "--smoke and --full are mutually exclusive");
        let err = run(&args(&["faults", "--seed", "NaN"])).unwrap_err();
        assert_eq!(err, "--seed: 'NaN' is not a number");
    }

    #[test]
    fn dse_serves_a_sweep_and_validates_flags() {
        // Cacheless serve: canonical stream on stdout plus the summary.
        let out = run(&args(&["dse", "fig16"])).unwrap();
        assert!(out.contains("{\"cell\":\"D (S-CONV)|1200\""), "{out}");
        assert!(out.contains("{\"pareto\":["), "{out}");
        assert!(
            out.contains("fig16: 4 unique cells (0 duplicates folded)"),
            "{out}"
        );

        // Unknown sweep: targeted error naming the alternatives.
        let err = run(&args(&["dse", "fig99"])).unwrap_err();
        assert!(err.contains("unknown sweep 'fig99'"), "{err}");
        assert!(err.contains("fig15"), "{err}");

        // Missing positional.
        let err = run(&args(&["dse"])).unwrap_err();
        assert!(err.contains("dse: missing <sweep>"), "{err}");

        // Verify policy validation.
        let err = run(&args(&["dse", "fig16", "--verify", "maybe"])).unwrap_err();
        assert_eq!(err, "--verify maybe: expected 'trust' or 'all'");

        // Shard flags go together, and a shard needs a cache.
        let err = run(&args(&["dse", "fig16", "--shard-index", "0"])).unwrap_err();
        assert_eq!(err, "--shard-index and --shard-count go together");
        let err = run(&args(&[
            "dse",
            "fig16",
            "--shard-index",
            "3",
            "--shard-count",
            "2",
        ]))
        .unwrap_err();
        assert_eq!(err, "--shard-index 3 out of range for --shard-count 2");
        let err = run(&args(&[
            "dse",
            "fig16",
            "--shard-index",
            "0",
            "--shard-count",
            "2",
        ]))
        .unwrap_err();
        assert!(err.contains("needs a cache"), "{err}");
    }

    #[test]
    fn dse_cold_then_warm_is_byte_identical_with_hit_counters() {
        let dir = std::env::temp_dir().join(format!("zfgan-cli-dse-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = dir.to_string_lossy().to_string();
        let cold = run(&args(&["dse", "fig16", "--cache", &cache, "--telemetry"])).unwrap();
        assert!(
            cold.contains("dse_cache_misses_total{namespace=\"fig16\"}"),
            "{cold}"
        );
        assert!(cold.contains("dse_published_total"), "{cold}");
        let warm = run(&args(&["dse", "fig16", "--cache", &cache, "--telemetry"])).unwrap();
        assert!(
            warm.contains("dse_cache_hits_total{namespace=\"fig16\"}"),
            "{warm}"
        );
        // The stream part (everything before the telemetry summary) is
        // byte-identical: split at the summary marker.
        let stream_of = |s: &str| s.split("\n    dse_").next().unwrap().to_string();
        assert_eq!(stream_of(&cold), stream_of(&warm));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
