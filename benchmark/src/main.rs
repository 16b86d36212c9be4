//! The repo benchmark. See `benchmark/README.md` for the workloads, the
//! metrics and what each is expected to move.
//!
//! ```text
//! zfgan-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                     [--smoke] [--repeat N] [--out FILE]
//! zfgan-benchmark compare A.json B.json
//! zfgan-benchmark calibrate N [--seed N] [--seconds S]
//! ```
//!
//! `run --workload W` measures one workload in this process and prints its
//! result as the last line. Without `--workload`, `run` gives every
//! workload a fresh process, untraced and then traced.

mod adapter;
mod reference;
mod stats;
mod suite;
mod sys;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use workload::{Outcome, RunArgs};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Fresh processes that set the workload up before the measured one does,
/// so that `setup_s` is a median of start-to-first-op times and not one
/// reading: at least `MIN`, and up to `MAX` while they have taken less
/// than `BUDGET_S` together, so that a set-up of a few tens of
/// milliseconds is sampled often enough to repeat.
const SETUP_PROBES_MIN: usize = 4;
const SETUP_PROBES_MAX: usize = 24;
const SETUP_PROBES_BUDGET_S: f64 = 2.0;

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args, started) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// The flags after the subcommand, as `--name value` pairs (`--smoke`
/// takes no value) plus positional arguments.
struct Flags {
    named: Vec<(String, String)>,
    positional: Vec<String>,
    smoke: bool,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = Flags {
            named: Vec::new(),
            positional: Vec::new(),
            smoke: false,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--smoke" {
                flags.smoke = true;
            } else if let Some(name) = arg.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.named.push((name.to_string(), value.clone()));
            } else {
                flags.positional.push(arg.clone());
            }
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.named
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: '{v}' is not a number"))
            })
            .transpose()
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self
            .named
            .iter()
            .find(|(n, _)| !known.contains(&n.as_str()))
        {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }
}

fn dispatch(args: &[String], started: Instant) -> Result<ExitCode, String> {
    let (command, rest) = args
        .split_first()
        .ok_or("expected a subcommand: run, compare or calibrate")?;
    let flags = Flags::parse(rest)?;
    match command.as_str() {
        "run" => {
            flags.reject_unknown(&["workload", "seed", "seconds", "trace", "out", "repeat"])?;
            let trace = match flags.get("trace") {
                None => None,
                Some("0") => Some(false),
                Some("1") => Some(true),
                Some(other) => return Err(format!("--trace takes 0 or 1, not '{other}'")),
            };
            // `--smoke` keeps a twentieth of the op floor (see `workload`)
            // and a fortieth of the time window, to end within 15 s.
            let seconds = match flags.number::<f64>("seconds")? {
                Some(s) if s > 0.0 => s,
                Some(s) => return Err(format!("--seconds must be positive, not {s}")),
                None if flags.smoke => suite::Manifest::load()?.run_seconds / 40.0,
                None => suite::Manifest::load()?.run_seconds,
            };
            let run = RunArgs {
                workload: flags.get("workload").unwrap_or_default().to_string(),
                seed: flags.number("seed")?.unwrap_or(1),
                seconds,
                trace: trace.unwrap_or(false),
                smoke: flags.smoke,
            };
            if !run.workload.is_empty() {
                return run_workload(&run, started);
            }
            let passes: &[bool] = match trace {
                None => &[false, true],
                Some(false) => &[false],
                Some(true) => &[true],
            };
            let mut runs = Vec::new();
            for _ in 0..flags.number::<usize>("repeat")?.unwrap_or(1) {
                runs.extend(suite::run_suite(&run, passes)?);
            }
            if let Some(out) = flags.get("out") {
                suite::write_runs(&PathBuf::from(out), &runs)?;
            }
            println!("{} workload runs, every output check passed", runs.len());
            Ok(ExitCode::SUCCESS)
        }
        "setup-probe" => {
            flags.reject_unknown(&["workload", "seed"])?;
            let workload = flags
                .get("workload")
                .ok_or("setup-probe needs --workload")?;
            let setup = adapter::setup(workload, flags.number("seed")?.unwrap_or(1), false)?;
            println!("{}", started.elapsed().as_secs_f64() - setup.check_s);
            Ok(ExitCode::SUCCESS)
        }
        "compare" => {
            let [a, b] = flags.positional.as_slice() else {
                return Err("usage: compare A.json B.json".to_string());
            };
            let any_worse = suite::compare(&PathBuf::from(a), &PathBuf::from(b))?;
            Ok(if any_worse {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            })
        }
        "calibrate" => {
            flags.reject_unknown(&["seed", "seconds"])?;
            let n: usize = match flags.positional.as_slice() {
                [n] => n.parse().map_err(|_| format!("'{n}' is not a run count"))?,
                _ => return Err("usage: calibrate N".to_string()),
            };
            let base = RunArgs {
                workload: String::new(),
                seed: flags.number("seed")?.unwrap_or(1),
                seconds: match flags.number("seconds")? {
                    Some(s) => s,
                    None => suite::Manifest::load()?.run_seconds,
                },
                trace: false,
                smoke: false,
            };
            suite::calibrate(&base, n)?;
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!(
            "unknown subcommand '{other}' (expected run, compare or calibrate)"
        )),
    }
}

/// Measures one workload in this process and prints its report, the
/// result line last.
fn run_workload(args: &RunArgs, started: Instant) -> Result<ExitCode, String> {
    let boot_s = started.elapsed().as_secs_f64();
    let outcome = if args.trace {
        let setup = adapter::setup(&args.workload, args.seed, args.smoke)?;
        let (outcome, tracer) = workload::run_traced(setup, args);
        let dir = sys::out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace_{}.json", args.workload));
        std::fs::write(&path, tracer.to_json(&args.workload))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        outcome
    } else {
        // Set-up several times, each in a process of its own, and report
        // the median: one reading of a sub-second time is mostly noise.
        let mut setup_samples = Vec::new();
        let probing = Instant::now();
        while !args.smoke
            && (setup_samples.len() < SETUP_PROBES_MIN
                || (setup_samples.len() < SETUP_PROBES_MAX
                    && probing.elapsed().as_secs_f64() < SETUP_PROBES_BUDGET_S))
        {
            setup_samples.push(suite::setup_probe(args)?);
        }
        let setting_up = Instant::now();
        let setup = adapter::setup(&args.workload, args.seed, args.smoke)?;
        setup_samples.push(boot_s + setting_up.elapsed().as_secs_f64() - setup.check_s);
        workload::run_untraced(setup, setup_samples, args)
    };
    print_report(args, &outcome);
    Ok(ExitCode::SUCCESS)
}

fn print_report(args: &RunArgs, outcome: &Outcome) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "workload {} seed {} seconds {} trace {} smoke {} nproc {} {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        nproc,
        adapter::host_line()
    );
    for (def, value) in &outcome.metrics {
        println!(
            "{:<42} = {} {}",
            def.name,
            workload::json_number(*value),
            def.unit
        );
    }
    for (name, value) in &outcome.notes {
        println!("{name:<42} : {value}");
    }
    println!(
        "failed_ops_share = {} ({} of {} ops)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!("sim_digest = {:#018x}", outcome.sim_digest);
    println!("{}", outcome.result_line());
}
