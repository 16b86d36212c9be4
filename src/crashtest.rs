//! `zfgan crashtest` — the deterministic crash-injection campaign that
//! *proves* the durability layer's contract end to end.
//!
//! The campaign runs real child processes (re-invoking the current
//! executable's `train` command), kills them at seeded points — including
//! mid-write, with only a torn prefix of the checkpoint envelope on disk
//! — resumes from the surviving store, and asserts the resumed run's
//! `deterministic:` line is **byte-identical** to an uninterrupted
//! baseline. A second section corrupts published checkpoint files
//! directly (seeded bit-flips and truncations chosen by the
//! [`FaultSite::CheckpointWrite`] plan) and asserts every corruption is
//! detected and survived by falling back to an older generation — never
//! silently loaded.
//!
//! Everything derives from one seed: the kill points, the corruption
//! bytes, the training trajectories. The same seed reproduces the same
//! campaign byte for byte.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;
use std::process::Command;

use serde::{Deserialize, Serialize};

use crate::nn::durable::run_config_hash;
use crate::nn::{DurableCheckpointer, TrainerConfig};
use crate::tensor::fault::{FaultKind, FaultPlan, FaultSite};

/// Splitmix64 — the campaign's only entropy source, so every kill point
/// and corruption choice is a pure function of the seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Parameters of one crash-injection campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashtestConfig {
    /// Master seed: kill points, corruption choices and the training
    /// trajectory all derive from it.
    pub seed: u64,
    /// Iterations of every training run.
    pub iters: u64,
    /// Batch size of every training run.
    pub batch: usize,
    /// Crash/resume points to inject (phases cycle through
    /// before-publish, mid-write, after-publish).
    pub points: usize,
    /// Corruption trials against a completed store (bit-flips and
    /// truncations alternate).
    pub trials: usize,
}

impl CrashtestConfig {
    /// The CI campaign: every phase at least once, a handful of
    /// corruption trials — seconds, not minutes.
    pub fn smoke(seed: u64) -> Self {
        Self {
            seed,
            iters: 5,
            batch: 2,
            points: 3,
            trials: 4,
        }
    }
}

/// How one injected crash point went.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashPointResult {
    /// Point index within the campaign.
    pub point: usize,
    /// The iteration the crash fired at.
    pub iteration: u64,
    /// The crash phase spelling (`before-publish` | `mid-write` |
    /// `after-publish`).
    pub phase: String,
    /// For mid-write: envelope bytes on disk before the simulated power
    /// loss.
    pub bytes: usize,
    /// Whether the crashed child exited abnormally (it must — the crash
    /// is a `process::abort`).
    pub crashed: bool,
    /// Whether the resume child exited successfully.
    pub resumed: bool,
    /// Whether the resume run's `deterministic:` line matched the
    /// uninterrupted baseline byte for byte.
    pub bit_identical: bool,
}

/// How one corruption trial went.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorruptionTrialResult {
    /// Trial index within the campaign.
    pub trial: usize,
    /// What was done to the newest generation file (`bit-flip` |
    /// `truncate`).
    pub kind: String,
    /// Corrupted byte offset (bit-flip) or truncated length (truncate).
    pub at: usize,
    /// Whether the parent-side load detected the corruption and fell
    /// back to an older generation.
    pub detected_and_recovered: bool,
    /// Whether a resume child run from the corrupted store still matched
    /// the baseline byte for byte.
    pub bit_identical: bool,
}

/// Everything one campaign measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashtestResult {
    /// The configuration that produced this result.
    pub config: CrashtestConfig,
    /// The uninterrupted baseline's `deterministic:` line.
    pub baseline: String,
    /// One row per injected crash point.
    pub points: Vec<CrashPointResult>,
    /// One row per corruption trial.
    pub trials: Vec<CorruptionTrialResult>,
}

/// Runs `train` invocations as child processes. The indirection exists so
/// the campaign logic stays a pure function of `(config, runner)` — tests
/// exercise the derivation and verdict code without forking.
pub trait ChildRunner {
    /// Runs the current executable with `args`, returning
    /// `(exited_normally, stdout)`.
    ///
    /// # Errors
    ///
    /// Returns an error only when the child could not be *spawned* — an
    /// abnormal exit is a normal, reportable outcome.
    fn run(&self, args: &[String]) -> Result<(bool, String), String>;
}

/// The real runner: re-invokes [`std::env::current_exe`], the `zfgan`
/// binary, whose CLI runs a leading `train` argument as the child.
#[derive(Debug, Default)]
pub struct ExeRunner;

impl ChildRunner for ExeRunner {
    fn run(&self, args: &[String]) -> Result<(bool, String), String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let output = Command::new(&exe)
            .args(args)
            .output()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        Ok((
            output.status.success(),
            String::from_utf8_lossy(&output.stdout).into_owned(),
        ))
    }
}

/// The `deterministic:` line of a train run's stdout, if present.
fn det_line(stdout: &str) -> Option<&str> {
    stdout.lines().find(|l| l.starts_with("deterministic:"))
}

fn train_args(cfg: &CrashtestConfig, extra: &[String]) -> Vec<String> {
    let mut args = vec![
        "train".to_string(),
        "--seed".to_string(),
        cfg.seed.to_string(),
        "--iters".to_string(),
        cfg.iters.to_string(),
        "--batch".to_string(),
        cfg.batch.to_string(),
    ];
    args.extend_from_slice(extra);
    args
}

/// Derives crash point `p`: iteration in `1..=iters`, phase cycling
/// through the three spellings, torn-write length within the envelope of
/// a realistic snapshot.
fn derive_point(cfg: &CrashtestConfig, p: usize) -> (u64, &'static str, usize) {
    let h = splitmix64(cfg.seed ^ (p as u64).wrapping_mul(0x0fc9_4e3b_de1f_5cd5));
    // Crash strictly before the final iteration so the resume has work
    // left to do (a resume with nothing to replay would vacuously pass).
    let iteration = 1 + h % cfg.iters.saturating_sub(1).max(1);
    let phase = ["before-publish", "mid-write", "after-publish"][p % 3];
    // Torn prefixes from 0 bytes (nothing landed) through the 32-byte
    // header into the payload.
    let bytes = (splitmix64(h) % 200) as usize;
    (iteration, phase, bytes)
}

/// Runs one crash point: crash child, resume child, verdict.
fn run_point(
    cfg: &CrashtestConfig,
    runner: &dyn ChildRunner,
    dir: &Path,
    baseline: &str,
    p: usize,
) -> Result<CrashPointResult, String> {
    let (iteration, phase, bytes) = derive_point(cfg, p);
    let point_dir = dir.join(format!("point-{p}"));
    let point_dir_s = point_dir.to_string_lossy().into_owned();

    let mut crash_extra = vec![
        "--dir".to_string(),
        point_dir_s.clone(),
        "--crash-iter".to_string(),
        iteration.to_string(),
        "--crash-phase".to_string(),
        phase.to_string(),
    ];
    if phase == "mid-write" {
        crash_extra.push("--crash-bytes".to_string());
        crash_extra.push(bytes.to_string());
    }
    let (crash_ok, _) = runner.run(&train_args(cfg, &crash_extra))?;

    let resume_extra = vec!["--dir".to_string(), point_dir_s, "--resume".to_string()];
    let (resume_ok, resume_out) = runner.run(&train_args(cfg, &resume_extra))?;
    let bit_identical = det_line(&resume_out) == Some(baseline);
    Ok(CrashPointResult {
        point: p,
        iteration,
        phase: phase.to_string(),
        bytes: if phase == "mid-write" { bytes } else { 0 },
        crashed: !crash_ok,
        resumed: resume_ok,
        bit_identical,
    })
}

/// Runs one corruption trial against the completed store in `dir`:
/// corrupt the newest generation file in place (choice seeded through the
/// [`FaultSite::CheckpointWrite`] plan), verify the parent-side load
/// detects it and falls back, verify a child resume still reproduces the
/// baseline, then restore the original bytes.
fn run_trial(
    cfg: &CrashtestConfig,
    runner: &dyn ChildRunner,
    dir: &Path,
    baseline: &str,
    t: usize,
) -> Result<CorruptionTrialResult, String> {
    let plan = FaultPlan::new(
        cfg.seed,
        1.0,
        FaultSite::CheckpointWrite,
        FaultKind::BitFlip { bit: 0 },
    )
    .map_err(|e| e.to_string())?;
    let config_hash = run_config_hash(
        &TrainerConfig {
            n_critic: 1,
            ..TrainerConfig::default()
        },
        cfg.seed,
        cfg.batch,
    );
    let mut cp = DurableCheckpointer::open_dir(dir, "train", config_hash, 1, 4)
        .map_err(|e| e.to_string())?;

    let generations = cp
        .store_mut()
        .generations("train")
        .map_err(|e| e.to_string())?;
    let &newest = generations
        .last()
        .ok_or_else(|| "corruption trial: store has no generations".to_string())?;
    let path = cp.store_mut().generation_path("train", newest);
    let pristine = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;

    // Seeded corruption choice: even trials flip one bit, odd trials
    // truncate. `pick` derives byte/bit/length from (seed, trial).
    let idx = t as u64;
    let (kind, at) = if t.is_multiple_of(2) {
        let byte = plan.pick(idx, 0x62_79_74_65, pristine.len());
        let bit = plan.pick(idx, 0x62_69_74_73, 8) as u8;
        let mut bad = pristine.clone();
        bad[byte] ^= 1 << bit;
        std::fs::write(&path, &bad).map_err(|e| format!("{}: {e}", path.display()))?;
        ("bit-flip", byte)
    } else {
        let len = plan.pick(idx, 0x74_72_75_6e, pristine.len());
        std::fs::write(&path, &pristine[..len]).map_err(|e| format!("{}: {e}", path.display()))?;
        ("truncate", len)
    };

    // Parent-side load: must detect the corrupt newest generation and
    // fall back to an older one (populating the store's telemetry
    // counters along the way).
    let detected_and_recovered = match cp.load_latest() {
        Ok(Some((generation, _, skipped))) => generation < newest && !skipped.is_empty(),
        _ => false,
    };

    // Child resume from the corrupted store: the fallback generation is
    // an earlier iteration of the same trajectory, so the resumed run
    // must still land on the baseline.
    let resume_extra = vec![
        "--dir".to_string(),
        dir.to_string_lossy().into_owned(),
        "--resume".to_string(),
    ];
    let (resume_ok, resume_out) = runner.run(&train_args(cfg, &resume_extra))?;
    let bit_identical = resume_ok && det_line(&resume_out) == Some(baseline);

    std::fs::write(&path, &pristine).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(CorruptionTrialResult {
        trial: t,
        kind: kind.to_string(),
        at,
        detected_and_recovered,
        bit_identical,
    })
}

/// Runs the whole campaign under `dir` (created if needed; every run gets
/// its own subdirectory).
///
/// # Errors
///
/// Returns an error when a child cannot be spawned, the baseline run
/// fails, or the store cannot be read — not when an invariant is
/// violated; violations are data (see [`violations`]).
pub fn run_campaign(
    cfg: &CrashtestConfig,
    runner: &dyn ChildRunner,
    dir: &Path,
) -> Result<CrashtestResult, String> {
    if cfg.iters < 2 || cfg.batch == 0 {
        return Err("crashtest needs --iters >= 2 and a non-zero batch".to_string());
    }
    let (baseline_ok, baseline_out) = runner.run(&train_args(cfg, &[]))?;
    if !baseline_ok {
        return Err(format!("baseline run failed:\n{baseline_out}"));
    }
    let baseline = det_line(&baseline_out)
        .ok_or_else(|| "baseline run printed no deterministic line".to_string())?
        .to_string();

    let mut points = Vec::new();
    for p in 0..cfg.points {
        points.push(run_point(cfg, runner, dir, &baseline, p)?);
    }

    let mut trials = Vec::new();
    if cfg.trials > 0 {
        // One completed run seeds the store the corruption trials attack.
        let trial_dir = dir.join("corruption");
        let extra = vec![
            "--dir".to_string(),
            trial_dir.to_string_lossy().into_owned(),
        ];
        let (seed_ok, seed_out) = runner.run(&train_args(cfg, &extra))?;
        if !seed_ok {
            return Err(format!("store-seeding run failed:\n{seed_out}"));
        }
        for t in 0..cfg.trials {
            trials.push(run_trial(cfg, runner, &trial_dir, &baseline, t)?);
        }
    }

    Ok(CrashtestResult {
        config: cfg.clone(),
        baseline,
        points,
        trials,
    })
}

/// The invariants the campaign enforces. An empty vector means the
/// durability layer held up.
pub fn violations(result: &CrashtestResult) -> Vec<String> {
    let mut v = Vec::new();
    for p in &result.points {
        if !p.crashed {
            v.push(format!(
                "point {}: injected crash at iteration {} ({}) did not kill the child",
                p.point, p.iteration, p.phase
            ));
        }
        if !p.resumed {
            v.push(format!(
                "point {}: resume after {} crash at iteration {} failed",
                p.point, p.phase, p.iteration
            ));
        }
        if !p.bit_identical {
            v.push(format!(
                "point {}: resumed run diverged from the uninterrupted baseline ({} crash at iteration {})",
                p.point, p.phase, p.iteration
            ));
        }
    }
    for t in &result.trials {
        if !t.detected_and_recovered {
            v.push(format!(
                "trial {}: {} at {} was not detected with fallback — a corrupt checkpoint could load silently",
                t.trial, t.kind, t.at
            ));
        }
        if !t.bit_identical {
            v.push(format!(
                "trial {}: resume from corrupted store diverged from the baseline ({} at {})",
                t.trial, t.kind, t.at
            ));
        }
    }
    v
}

/// Renders the campaign as aligned text tables, for the CLI.
pub fn render_summary(result: &CrashtestResult) -> String {
    let mut out = String::from(
        "Crash-injection campaign (seeded kills + checkpoint corruption, child processes):\n\n",
    );
    out.push_str(&format!(
        "{:<6} {:>9} {:<15} {:>6} {:>8} {:>8} {:>14}\n",
        "point", "iteration", "phase", "bytes", "crashed", "resumed", "bit-identical"
    ));
    for p in &result.points {
        out.push_str(&format!(
            "{:<6} {:>9} {:<15} {:>6} {:>8} {:>8} {:>14}\n",
            p.point, p.iteration, p.phase, p.bytes, p.crashed, p.resumed, p.bit_identical
        ));
    }
    if !result.trials.is_empty() {
        out.push_str(&format!(
            "\n{:<6} {:<9} {:>6} {:>20} {:>14}\n",
            "trial", "kind", "at", "detected+recovered", "bit-identical"
        ));
        for t in &result.trials {
            out.push_str(&format!(
                "{:<6} {:<9} {:>6} {:>20} {:>14}\n",
                t.trial, t.kind, t.at, t.detected_and_recovered, t.bit_identical
            ));
        }
    }
    out.push_str(&format!(
        "\nbaseline {}\n",
        &result.baseline[..result.baseline.len().min(72)]
    ));
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn derived_points_cover_every_phase_and_stay_in_range() {
        let cfg = CrashtestConfig::smoke(2024);
        let mut phases = std::collections::BTreeSet::new();
        for p in 0..cfg.points {
            let (iteration, phase, _bytes) = derive_point(&cfg, p);
            assert!((1..cfg.iters).contains(&iteration), "iteration {iteration}");
            phases.insert(phase);
            // Determinism: the same (seed, p) derives the same point.
            assert_eq!(derive_point(&cfg, p), derive_point(&cfg, p));
        }
        assert_eq!(
            phases.len(),
            3.min(cfg.points),
            "phases must cycle: {phases:?}"
        );
    }

    #[test]
    fn violations_flag_every_failure_mode() {
        let good = CrashtestResult {
            config: CrashtestConfig::smoke(1),
            baseline: "deterministic:{}".to_string(),
            points: vec![CrashPointResult {
                point: 0,
                iteration: 2,
                phase: "mid-write".to_string(),
                bytes: 17,
                crashed: true,
                resumed: true,
                bit_identical: true,
            }],
            trials: vec![CorruptionTrialResult {
                trial: 0,
                kind: "bit-flip".to_string(),
                at: 40,
                detected_and_recovered: true,
                bit_identical: true,
            }],
        };
        assert!(violations(&good).is_empty());

        let mut bad = good.clone();
        bad.points[0].crashed = false;
        bad.points[0].bit_identical = false;
        bad.trials[0].detected_and_recovered = false;
        let v = violations(&bad);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().any(|m| m.contains("did not kill")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("diverged")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("load silently")), "{v:?}");
    }

    #[test]
    fn summary_renders_points_and_trials() {
        let result = CrashtestResult {
            config: CrashtestConfig::smoke(1),
            baseline: "deterministic:{\"seed\":1}".to_string(),
            points: vec![CrashPointResult {
                point: 0,
                iteration: 3,
                phase: "before-publish".to_string(),
                bytes: 0,
                crashed: true,
                resumed: true,
                bit_identical: true,
            }],
            trials: vec![CorruptionTrialResult {
                trial: 1,
                kind: "truncate".to_string(),
                at: 12,
                detected_and_recovered: true,
                bit_identical: true,
            }],
        };
        let text = render_summary(&result);
        assert!(text.contains("before-publish"));
        assert!(text.contains("truncate"));
        assert!(text.contains("bit-identical"));
    }

    /// A scripted runner standing in for real child processes: the
    /// campaign's control flow and verdicts are exercised without forks.
    struct ScriptedRunner;

    impl ChildRunner for ScriptedRunner {
        fn run(&self, args: &[String]) -> Result<(bool, String), String> {
            assert_eq!(args[0], "train");
            if args.iter().any(|a| a == "--crash-iter") {
                // Crash children die without a deterministic line.
                return Ok((false, String::new()));
            }
            // Baseline, store-seeding and resume children all land on
            // the same trajectory.
            Ok((true, "train: ...\ndeterministic:{\"seed\":9}\n".to_string()))
        }
    }

    #[test]
    fn campaign_with_scripted_runner_passes_point_invariants() {
        let cfg = CrashtestConfig {
            trials: 0, // corruption trials need a real on-disk store
            ..CrashtestConfig::smoke(9)
        };
        let dir =
            std::env::temp_dir().join(format!("zfgan-crashtest-scripted-{}", std::process::id()));
        let result = run_campaign(&cfg, &ScriptedRunner, &dir).unwrap();
        assert_eq!(result.points.len(), cfg.points);
        assert!(violations(&result).is_empty(), "{:?}", violations(&result));
        assert_eq!(result.baseline, "deterministic:{\"seed\":9}");
    }
}
