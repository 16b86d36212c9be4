//! `zfgan train` — a deterministic supervised training run with durable,
//! crash-consistent checkpointing and bit-identical resume.
//!
//! The run is small by design (the tiny 8×8 GAN unless `--gan` names a
//! paper workload): its purpose is to be a *provable* durability and
//! determinism harness, not to train a useful model. Everything
//! that influences the trajectory — initial weights, step RNG, optimizer
//! moments, loss records — lives in the [`DurableSnapshot`] published to
//! the store, so a `--resume` after any crash replays the exact same
//! trajectory as an uninterrupted run.
//!
//! The final stdout line is the machine-checkable contract:
//!
//! ```text
//! deterministic:{"seed":…,"iters":…,"batch":…,"records":[…],"final_digest":"0x…"}
//! ```
//!
//! Two runs that print the same `deterministic:` line went through
//! byte-identical weight/optimizer/RNG states. The crash-injection
//! campaign (`zfgan crashtest`) diffs exactly this line between crashed +
//! resumed runs and an uninterrupted baseline.
//!
//! Crash injection (used by the campaign; all deterministic):
//!
//! * `--crash-iter K --crash-phase before-publish` — abort after training
//!   iteration K but before its snapshot publish,
//! * `--crash-phase mid-write --crash-bytes B` — arm the store to write
//!   only the first B envelope bytes, fsync the torn prefix, then abort
//!   before the atomic rename (power loss mid-write),
//! * `--crash-phase after-publish` — abort right after the publish.

use std::path::PathBuf;

use crate::nn::{
    DurableCheckpointer, DurableSnapshot, GanPair, GanTrainer, SupervisedTrainer, SupervisorConfig,
    TrainRecord, TrainerConfig,
};
use crate::store::{fnv64, WriteCrash};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Salt separating the weight-initialisation RNG stream from the
/// step-sampling stream (both derive from the user seed).
const STEP_RNG_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Where in the iteration the injected crash fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPhase {
    /// After training the iteration, before its snapshot publish.
    BeforePublish,
    /// During the publish: torn temp-file write, abort before rename.
    MidWrite,
    /// After the publish completes.
    AfterPublish,
}

impl CrashPhase {
    /// Parses the `--crash-phase` spelling.
    ///
    /// # Errors
    ///
    /// Names the accepted spellings when `s` is not one of them.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "before-publish" => Ok(Self::BeforePublish),
            "mid-write" => Ok(Self::MidWrite),
            "after-publish" => Ok(Self::AfterPublish),
            other => Err(format!(
                "--crash-phase '{other}' unknown (expected one of: before-publish, mid-write, after-publish)"
            )),
        }
    }
}

/// A deterministic injected crash: at iteration `iteration`, in `phase`.
#[derive(Debug, Clone, Copy)]
pub struct CrashSpec {
    /// The 1-based iteration the crash fires at.
    pub iteration: u64,
    /// Where in the iteration it fires.
    pub phase: CrashPhase,
    /// For [`CrashPhase::MidWrite`]: how many envelope bytes land on disk
    /// before the simulated power loss.
    pub bytes: usize,
}

/// Parsed `zfgan train` invocation.
#[derive(Debug, Clone)]
pub struct TrainArgs {
    /// Run seed: fixes initial weights and the sampling stream.
    pub seed: u64,
    /// Total iterations the run should reach.
    pub iters: u64,
    /// Batch size per step.
    pub batch: usize,
    /// The paper workload to train (`--gan`, store-less runs only); `None`
    /// is the tiny 8×8 pair. A paper-sized network is what reaches the wide
    /// packed GEMM shapes (CI diffs its digest across SIMD levels).
    pub gan: Option<crate::workloads::GanSpec>,
    /// Checkpoint store directory; `None` disables durability.
    pub dir: Option<PathBuf>,
    /// Publish a snapshot every this many iterations.
    pub every: u64,
    /// Retained snapshot generations.
    pub keep: usize,
    /// Resume from the newest valid snapshot in `dir` instead of
    /// starting fresh.
    pub resume: bool,
    /// Optional injected crash.
    pub crash: Option<CrashSpec>,
}

impl Default for TrainArgs {
    fn default() -> Self {
        Self {
            seed: 2024,
            iters: 6,
            batch: 2,
            gan: None,
            dir: None,
            every: 1,
            keep: 4,
            resume: false,
            crash: None,
        }
    }
}

/// The fixed trainer configuration of `zfgan train` runs. One critic step
/// per iteration keeps the harness fast; the config still participates in
/// the store's config hash, so snapshots from a different configuration
/// are never resumed.
fn train_config() -> TrainerConfig {
    TrainerConfig {
        n_critic: 1,
        ..TrainerConfig::default()
    }
}

/// Runs the training loop and renders its report. See the module docs for
/// the crash-injection and determinism contract.
///
/// # Errors
///
/// Returns a one-line message on argument, store, or checkpoint errors —
/// including the typed invariant a corrupt snapshot failed.
pub fn run_train(args: &TrainArgs) -> Result<String, String> {
    if args.batch == 0 {
        return Err("--batch must be non-zero".to_string());
    }
    if args.every == 0 {
        return Err("--every must be non-zero".to_string());
    }
    if args.keep == 0 {
        return Err("--keep must be non-zero".to_string());
    }
    if args.resume && args.dir.is_none() {
        return Err("--resume requires --dir".to_string());
    }
    if args.gan.is_some() && args.dir.is_some() {
        // The store's config hash does not name the network.
        return Err("--gan runs keep no store; drop --dir".to_string());
    }
    if let Some(crash) = &args.crash {
        if args.dir.is_none() {
            return Err("--crash-iter requires --dir".to_string());
        }
        if crash.iteration == 0 || crash.iteration > args.iters {
            return Err(format!(
                "--crash-iter {} out of range (1..={})",
                crash.iteration, args.iters
            ));
        }
    }

    let config = train_config();
    let config_hash = crate::nn::durable::run_config_hash(&config, args.seed, args.batch);
    let gan_name = args.gan.as_ref().map(|spec| spec.name());
    // The SIMD level is host context, not part of the contract below:
    // every level must print the same `deterministic:` line.
    let mut out = format!(
        "train: seed {}, iters {}, batch {}, simd {}{}\n",
        args.seed,
        args.iters,
        args.batch,
        crate::tensor::microkernel::simd_label(),
        gan_name.map_or(String::new(), |name| format!(", gan {name}"))
    );

    // Either resume from the newest valid snapshot or start fresh.
    let mut resumed: Option<(u64, DurableSnapshot, Vec<String>)> = None;
    let mut checkpointer = match &args.dir {
        Some(dir) => {
            let mut cp = DurableCheckpointer::open_dir(
                dir.clone(),
                "train",
                config_hash,
                args.every,
                args.keep,
            )
            .map_err(|e| e.to_string())?;
            if args.resume {
                resumed = cp.load_latest().map_err(|e| e.to_string())?;
            }
            Some(cp)
        }
        None => None,
    };

    let (trainer, mut rng, start_iter, mut records) = match resumed.take() {
        Some((generation, snapshot, skipped)) => {
            for note in &skipped {
                out.push_str(&format!("  fallback: {note}\n"));
            }
            let (trainer, rng, iter, records) = snapshot.resume().map_err(|e| e.to_string())?;
            out.push_str(&format!(
                "  resumed from generation {generation} at iteration {iter}\n"
            ));
            (trainer, rng, iter, records)
        }
        None => {
            if args.resume {
                out.push_str("  no snapshot found; starting fresh\n");
            }
            let mut init_rng = SmallRng::seed_from_u64(args.seed);
            let pair = match &args.gan {
                Some(spec) => spec
                    .build_pair(0.05, &mut init_rng)
                    .map_err(|e| e.to_string())?,
                None => GanPair::tiny(&mut init_rng),
            };
            let trainer = GanTrainer::new(pair, config);
            let rng = SmallRng::seed_from_u64(args.seed ^ STEP_RNG_SALT);
            (trainer, rng, 0, Vec::new())
        }
    };

    let mut sup =
        SupervisedTrainer::new(trainer, SupervisorConfig::default()).map_err(|e| e.to_string())?;
    if let Some(cp) = checkpointer.take() {
        sup.set_checkpointer(cp);
    }

    let mut published = 0u64;
    for i in start_iter + 1..=args.iters {
        let (dis, gen) = sup
            .train_iteration(args.batch, &mut rng)
            .map_err(|e| format!("iteration {i}: {e}"))?;
        records.push(TrainRecord {
            iteration: i,
            dis_loss: dis.dis_loss,
            gen_loss: gen.gen_loss,
            wasserstein: dis.wasserstein_estimate,
        });
        if let Some(crash) = &args.crash {
            if crash.iteration == i {
                match crash.phase {
                    CrashPhase::BeforePublish => std::process::abort(),
                    CrashPhase::MidWrite => {
                        if let Some(cp) = sup.checkpointer_mut() {
                            cp.store_mut()
                                .set_crash_on_next_publish(Some(WriteCrash::TruncateAt(
                                    crash.bytes,
                                )));
                        }
                    }
                    CrashPhase::AfterPublish => {}
                }
            }
        }
        if let Some(generation) = sup
            .maybe_publish(i, &rng, &records)
            .map_err(|e| format!("publish at iteration {i}: {e}"))?
        {
            published = generation;
        }
        if let Some(crash) = &args.crash {
            if crash.iteration == i && crash.phase == CrashPhase::AfterPublish {
                std::process::abort();
            }
        }
    }

    if published > 0 {
        out.push_str(&format!(
            "  published up to generation {published} (every {}, keep {})\n",
            args.every, args.keep
        ));
    }

    // The determinism contract: a digest of the complete final state plus
    // the full record list. Two runs printing the same line went through
    // bit-identical states.
    let final_snapshot = DurableSnapshot::capture(
        &sup.trainer().snapshot(),
        sup.trainer().config(),
        &rng,
        args.iters,
        &records,
    );
    let digest = fnv64(final_snapshot.to_json().as_bytes());
    let records_json =
        serde_json::to_string(&records).map_err(|e| format!("record serialisation: {e}"))?;
    out.push_str(&format!(
        "deterministic:{{\"seed\":{},\"iters\":{},\"batch\":{},\"records\":{records_json},\"final_digest\":\"{digest:#018x}\"}}\n",
        args.seed, args.iters, args.batch
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    /// A fresh directory under the temp root, removed with its contents
    /// when the guard drops — on a failing test's panic path too.
    struct TempDir(PathBuf);

    impl TempDir {
        fn path(&self) -> PathBuf {
            self.0.clone()
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn temp_dir(tag: &str) -> TempDir {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("zfgan-train-test-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn det_line(out: &str) -> &str {
        out.lines()
            .find(|l| l.starts_with("deterministic:"))
            .expect("deterministic line")
    }

    #[test]
    fn same_seed_same_deterministic_line() {
        let args = TrainArgs {
            iters: 3,
            ..TrainArgs::default()
        };
        let a = run_train(&args).expect("run a");
        let b = run_train(&args).expect("run b");
        assert_eq!(det_line(&a), det_line(&b));
        let other = run_train(&TrainArgs {
            seed: 7,
            iters: 3,
            ..TrainArgs::default()
        })
        .expect("other seed");
        assert_ne!(det_line(&a), det_line(&other));
    }

    #[test]
    fn resume_matches_uninterrupted_run() {
        let baseline = run_train(&TrainArgs {
            iters: 5,
            ..TrainArgs::default()
        })
        .expect("baseline");

        // Run the first 3 iterations into a store, then resume to 5.
        let dir = temp_dir("resume");
        let part = TrainArgs {
            iters: 3,
            dir: Some(dir.path()),
            ..TrainArgs::default()
        };
        run_train(&part).expect("partial");
        let resumed = run_train(&TrainArgs {
            iters: 5,
            dir: Some(dir.path()),
            resume: true,
            ..TrainArgs::default()
        })
        .expect("resumed");
        assert!(resumed.contains("resumed from generation"), "{resumed}");
        assert_eq!(det_line(&baseline), det_line(&resumed));
    }

    #[test]
    fn gan_option_trains_a_paper_workload_without_a_store() {
        let tiny = TrainArgs {
            iters: 1,
            ..TrainArgs::default()
        };
        let mnist = TrainArgs {
            gan: Some(crate::workloads::GanSpec::mnist_gan()),
            ..tiny.clone()
        };
        let out = run_train(&mnist).expect("MNIST-GAN run");
        let header = out.lines().next().expect("header line");
        assert!(header.ends_with(", gan MNIST-GAN"), "{header}");
        assert_ne!(
            det_line(&run_train(&tiny).expect("tiny run")),
            det_line(&out)
        );
        let err = run_train(&TrainArgs {
            dir: Some(PathBuf::from("never-created")),
            ..mnist
        })
        .unwrap_err();
        assert!(err.contains("drop --dir"), "{err}");
    }

    #[test]
    fn resume_without_snapshot_starts_fresh() {
        let dir = temp_dir("fresh");
        let out = run_train(&TrainArgs {
            iters: 2,
            dir: Some(dir.path()),
            resume: true,
            ..TrainArgs::default()
        })
        .expect("run");
        assert!(out.contains("no snapshot found"), "{out}");
        let baseline = run_train(&TrainArgs {
            iters: 2,
            ..TrainArgs::default()
        })
        .expect("baseline");
        assert_eq!(det_line(&baseline), det_line(&out));
    }

    #[test]
    fn argument_validation() {
        let badcrash = temp_dir("badcrash");
        let bad = TrainArgs {
            resume: true,
            ..TrainArgs::default()
        };
        assert!(run_train(&bad).unwrap_err().contains("--resume requires"));
        let bad = TrainArgs {
            batch: 0,
            ..TrainArgs::default()
        };
        assert!(run_train(&bad).unwrap_err().contains("--batch"));
        let bad = TrainArgs {
            crash: Some(CrashSpec {
                iteration: 99,
                phase: CrashPhase::MidWrite,
                bytes: 10,
            }),
            dir: Some(badcrash.path()),
            ..TrainArgs::default()
        };
        assert!(run_train(&bad).unwrap_err().contains("out of range"));
        assert!(CrashPhase::parse("sideways").is_err());
        assert_eq!(
            CrashPhase::parse("mid-write").expect("parse"),
            CrashPhase::MidWrite
        );
    }
}
