//! Durable training state: everything needed to resume an interrupted
//! training run **bit-identically**, serialised through the
//! crash-consistent `zfgan-store` envelope.
//!
//! A [`DurableSnapshot`] is the closure of a training run's deterministic
//! state: the trainer configuration, both networks, both optimizers'
//! moment accumulators, the step RNG's raw state words, and the loss
//! records produced so far. [`DurableSnapshot::resume`] revalidates every
//! piece with a typed [`CheckpointError`], so a tampered or
//! cross-configuration snapshot is a one-line diagnosis, never a silently
//! different trajectory.
//!
//! [`DurableCheckpointer`] owns the store plumbing: it publishes a
//! snapshot every `every` iterations under one key, retains the last few
//! generations, and on load walks the fallback ladder past corrupt or
//! invalid generations.

use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};
use zfgan_store::{fnv64, Store, StoreConfig};

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::optimizer::Optimizer;
use crate::trainer::{GanTrainer, TrainerConfig, TrainerState};

/// One completed training iteration's losses — the deterministic record a
/// resumed run must reproduce exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainRecord {
    /// 1-based iteration number.
    pub iteration: u64,
    /// Critic loss of the iteration's last critic update.
    pub dis_loss: f64,
    /// Generator loss.
    pub gen_loss: f64,
    /// Wasserstein estimate of the iteration's last critic update.
    pub wasserstein: f64,
}

/// A complete, serialisable snapshot of a training run at an iteration
/// boundary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DurableSnapshot {
    /// Completed iterations at capture time.
    pub iteration: u64,
    /// The trainer configuration the run was started with.
    pub config: TrainerConfig,
    /// Both networks.
    pub checkpoint: Checkpoint,
    /// Generator optimizer (moment accumulators and step count).
    pub opt_g: Optimizer,
    /// Discriminator optimizer.
    pub opt_d: Optimizer,
    /// The step RNG's xoshiro256++ state words (as `(s0, s1, s2, s3)`).
    pub rng: (u64, u64, u64, u64),
    /// Loss records of every completed iteration, in order.
    pub records: Vec<TrainRecord>,
}

impl DurableSnapshot {
    /// Captures a snapshot from a known-good [`TrainerState`] plus the
    /// run's step RNG and records.
    pub fn capture(
        state: &TrainerState,
        config: &TrainerConfig,
        rng: &SmallRng,
        iteration: u64,
        records: &[TrainRecord],
    ) -> Self {
        let (opt_g, opt_d) = state.optimizers();
        let s = rng.state();
        Self {
            iteration,
            config: *config,
            checkpoint: Checkpoint::from_pair(state.gan()),
            opt_g: opt_g.clone(),
            opt_d: opt_d.clone(),
            rng: (s[0], s[1], s[2], s[3]),
            records: records.to_vec(),
        }
    }

    /// Serialises to the canonical JSON payload published to the store.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialisation is infallible")
    }

    /// Parses a snapshot payload (structural only — [`resume`] does the
    /// semantic validation).
    ///
    /// [`resume`]: DurableSnapshot::resume
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Parse`] if the JSON does not parse.
    pub fn from_json(json: &str) -> Result<Self, CheckpointError> {
        serde_json::from_str(json).map_err(|e| CheckpointError::Parse(e.to_string()))
    }

    /// Validates every piece and rebuilds the run: a trainer whose
    /// networks and optimizer moments are bit-identical to the captured
    /// state, the step RNG positioned exactly where it was, and the
    /// completed-iteration count and records.
    ///
    /// # Errors
    ///
    /// A typed [`CheckpointError`] naming the failing invariant: network
    /// validation, pair compatibility, config validity, optimizer shape,
    /// record continuity, or a degenerate RNG state.
    #[allow(clippy::type_complexity)]
    pub fn resume(self) -> Result<(GanTrainer, SmallRng, u64, Vec<TrainRecord>), CheckpointError> {
        self.config
            .validate()
            .map_err(|e| CheckpointError::InvalidState {
                what: "config",
                reason: e.to_string(),
            })?;
        if self.rng == (0, 0, 0, 0) {
            return Err(CheckpointError::InvalidState {
                what: "rng",
                reason: "all-zero xoshiro state is degenerate".into(),
            });
        }
        if self.records.len() as u64 != self.iteration {
            return Err(CheckpointError::InvalidState {
                what: "records",
                reason: format!(
                    "{} records for {} completed iterations",
                    self.records.len(),
                    self.iteration
                ),
            });
        }
        for (i, r) in self.records.iter().enumerate() {
            if r.iteration != i as u64 + 1 {
                return Err(CheckpointError::InvalidState {
                    what: "records",
                    reason: format!(
                        "record {i} is iteration {}, expected {}",
                        r.iteration,
                        i + 1
                    ),
                });
            }
        }
        let pair = self.checkpoint.into_pair()?;
        let trainer =
            GanTrainer::from_parts(pair, self.config, self.opt_g, self.opt_d).map_err(|e| {
                CheckpointError::InvalidState {
                    what: "optimizer",
                    reason: e.to_string(),
                }
            })?;
        let (s0, s1, s2, s3) = self.rng;
        let rng = SmallRng::from_state([s0, s1, s2, s3]);
        Ok((trainer, rng, self.iteration, self.records))
    }
}

/// Canonical config hash of a training run: FNV-64 over the serialised
/// trainer config plus the run's seed and batch size. Snapshots published
/// under a different hash are skipped on resume — a resumed run never
/// continues someone else's trajectory.
pub fn run_config_hash(config: &TrainerConfig, seed: u64, batch: usize) -> u64 {
    let canonical = format!(
        "{}|seed={seed}|batch={batch}",
        serde_json::to_string(config).expect("config serialisation is infallible")
    );
    fnv64(canonical.as_bytes())
}

/// Store plumbing for periodic snapshot publication and resume.
#[derive(Debug)]
pub struct DurableCheckpointer {
    store: Store,
    key: String,
    config_hash: u64,
    every: u64,
}

impl DurableCheckpointer {
    /// Wraps an open store. `every` is the publication period in
    /// iterations (1 = every iteration).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::InvalidState`] if `every == 0`.
    pub fn new(
        store: Store,
        key: impl Into<String>,
        config_hash: u64,
        every: u64,
    ) -> Result<Self, CheckpointError> {
        if every == 0 {
            return Err(CheckpointError::InvalidState {
                what: "checkpointer",
                reason: "publication period must be >= 1".into(),
            });
        }
        Ok(Self {
            store,
            key: key.into(),
            config_hash,
            every,
        })
    }

    /// Opens (creating) a store under `dir` with `keep` retained
    /// generations and wraps it.
    ///
    /// # Errors
    ///
    /// Propagates store-open failures as [`CheckpointError::Store`].
    pub fn open_dir(
        dir: impl Into<std::path::PathBuf>,
        key: impl Into<String>,
        config_hash: u64,
        every: u64,
        keep: usize,
    ) -> Result<Self, CheckpointError> {
        let store = Store::open(
            dir,
            StoreConfig {
                keep,
                ..StoreConfig::default()
            },
        )
        .map_err(|e| CheckpointError::Store(e.to_string()))?;
        Self::new(store, key, config_hash, every)
    }

    /// Whether iteration `iteration` is a publication point.
    pub fn is_due(&self, iteration: u64) -> bool {
        iteration.is_multiple_of(self.every)
    }

    /// Publishes a snapshot as the next generation, returning its number.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Store`] if the durability layer fails.
    pub fn publish(&mut self, snapshot: &DurableSnapshot) -> Result<u64, CheckpointError> {
        self.store
            .publish(&self.key, self.config_hash, snapshot.to_json().as_bytes())
            .map_err(|e| CheckpointError::Store(e.to_string()))
    }

    /// Loads the newest snapshot generation that (a) passes the envelope
    /// CRCs, (b) was published under this checkpointer's config hash and
    /// (c) parses as a snapshot whose networks validate — falling back
    /// past generations that fail any of those. Returns the generation, the snapshot, and
    /// one-line notes for every skipped generation (newest first).
    ///
    /// `Ok(None)` means the key has never been published.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Store`] if generations exist but none
    /// is valid, or on I/O failure.
    #[allow(clippy::type_complexity)]
    pub fn load_latest(
        &mut self,
    ) -> Result<Option<(u64, DurableSnapshot, Vec<String>)>, CheckpointError> {
        let expected = self.config_hash;
        let loaded = self
            .store
            .load_latest_where(&self.key, |env| {
                if env.config_hash != expected {
                    return Err(format!(
                        "config hash {:#018x} does not match expected {expected:#018x}",
                        env.config_hash
                    ));
                }
                let json = std::str::from_utf8(env.payload)
                    .map_err(|e| format!("payload is not UTF-8: {e}"))?;
                DurableSnapshot::from_json(json)
                    .and_then(|snapshot| snapshot.checkpoint.validate())
                    .map_err(|e| e.to_string())
            })
            .map_err(|e| CheckpointError::Store(e.to_string()))?;
        let Some(loaded) = loaded else {
            return Ok(None);
        };
        let json = std::str::from_utf8(&loaded.payload)
            .map_err(|e| CheckpointError::Parse(format!("payload is not UTF-8: {e}")))?;
        let snapshot = DurableSnapshot::from_json(json)?;
        let skipped = loaded
            .skipped
            .iter()
            .map(|(g, why)| format!("generation {g} skipped: {why}"))
            .collect();
        Ok(Some((loaded.generation, snapshot, skipped)))
    }

    /// The underlying store (crash hooks, corruption campaigns).
    pub fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::GanPair;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    /// A fresh directory under the temp root, removed with its contents
    /// when the guard drops — on a failing test's panic path too.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn path(&self) -> &std::path::Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn temp_dir(tag: &str) -> TempDir {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "zfgan-durable-test-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn small_trainer(seed: u64) -> GanTrainer {
        let mut rng = SmallRng::seed_from_u64(seed);
        GanTrainer::new(
            GanPair::tiny(&mut rng),
            TrainerConfig {
                n_critic: 1,
                ..TrainerConfig::default()
            },
        )
    }

    #[test]
    fn snapshot_resume_is_bit_identical() {
        let mut trainer = small_trainer(42);
        let mut rng = SmallRng::seed_from_u64(43);
        let mut records = Vec::new();
        for i in 1..=3u64 {
            let (d, g) = trainer.train_iteration(2, &mut rng);
            records.push(TrainRecord {
                iteration: i,
                dis_loss: d.dis_loss,
                gen_loss: g.gen_loss,
                wasserstein: d.wasserstein_estimate,
            });
        }
        let state = trainer.snapshot();
        let snap = DurableSnapshot::capture(&state, trainer.config(), &rng, 3, &records);

        // Round-trip through JSON (what the store persists).
        let snap = DurableSnapshot::from_json(&snap.to_json()).expect("round trip");
        let (mut resumed, mut resumed_rng, iter, resumed_records) = snap.resume().expect("resume");
        assert_eq!(iter, 3);
        assert_eq!(resumed_records, records);

        // Both trajectories must agree bit-for-bit from here on.
        let (d1, g1) = trainer.train_iteration(2, &mut rng);
        let (d2, g2) = resumed.train_iteration(2, &mut resumed_rng);
        assert_eq!(d1, d2);
        assert_eq!(g1, g2);
        assert_eq!(rng.state(), resumed_rng.state(), "RNG streams diverged");
    }

    #[test]
    fn tampered_snapshots_fail_with_typed_errors() {
        let trainer = small_trainer(50);
        let rng = SmallRng::seed_from_u64(51);
        let state = trainer.snapshot();
        let good = DurableSnapshot::capture(&state, trainer.config(), &rng, 0, &[]);

        let mut zero_rng = good.clone();
        zero_rng.rng = (0, 0, 0, 0);
        assert!(matches!(
            zero_rng.resume(),
            Err(CheckpointError::InvalidState { what: "rng", .. })
        ));

        let mut bad_records = good.clone();
        bad_records.iteration = 5;
        assert!(matches!(
            bad_records.resume(),
            Err(CheckpointError::InvalidState {
                what: "records",
                ..
            })
        ));

        let mut bad_config = good;
        bad_config.config.n_critic = 0;
        assert!(matches!(
            bad_config.resume(),
            Err(CheckpointError::InvalidState { what: "config", .. })
        ));
    }

    #[test]
    fn checkpointer_publishes_and_reloads() {
        let trainer = small_trainer(60);
        let rng = SmallRng::seed_from_u64(61);
        let hash = run_config_hash(trainer.config(), 60, 2);
        let dir = temp_dir("pubload");
        let mut cp = DurableCheckpointer::open_dir(dir.path(), "train", hash, 2, 3).expect("open");
        assert!(cp.is_due(2) && cp.is_due(4) && !cp.is_due(3));
        assert!(cp.load_latest().expect("empty load").is_none());

        let snap = DurableSnapshot::capture(&trainer.snapshot(), trainer.config(), &rng, 0, &[]);
        let gen = cp.publish(&snap).expect("publish");
        assert_eq!(gen, 1);
        let (g, loaded, skipped) = cp.load_latest().expect("load").expect("present");
        assert_eq!(g, 1);
        assert!(skipped.is_empty());
        assert_eq!(loaded.to_json(), snap.to_json(), "payload must round-trip");
    }

    #[test]
    fn checkpointer_skips_foreign_config_hash() {
        let trainer = small_trainer(70);
        let rng = SmallRng::seed_from_u64(71);
        let snap = DurableSnapshot::capture(&trainer.snapshot(), trainer.config(), &rng, 0, &[]);
        let dir = temp_dir("foreign");
        {
            let mut other =
                DurableCheckpointer::open_dir(dir.path(), "train", 0xdead, 1, 3).expect("open");
            other.publish(&snap).expect("publish under foreign hash");
        }
        let mut cp =
            DurableCheckpointer::open_dir(dir.path(), "train", 0xbeef, 1, 3).expect("open");
        match cp.load_latest() {
            Err(CheckpointError::Store(msg)) => {
                assert!(msg.contains("no valid generation"), "{msg}")
            }
            other => panic!("foreign-hash generation must not load: {other:?}"),
        }
    }

    #[test]
    fn invalid_networks_are_skipped_and_the_ladder_falls_back() {
        let trainer = small_trainer(80);
        let rng = SmallRng::seed_from_u64(81);
        let snap = DurableSnapshot::capture(&trainer.snapshot(), trainer.config(), &rng, 0, &[]);
        let dir = temp_dir("semantic");
        let mut cp = DurableCheckpointer::open_dir(dir.path(), "train", 7, 1, 3).expect("open");
        cp.publish(&snap).expect("publish");
        // A valid envelope around a snapshot that parses but whose critic
        // has a zero stride: the validator must skip it.
        let bad = snap.to_json().replacen("\"stride\":2", "\"stride\":0", 1);
        assert_ne!(bad, snap.to_json(), "fixture lost its stride field");
        cp.store_mut()
            .publish("train", 7, bad.as_bytes())
            .expect("publish the bad generation");
        let (g, loaded, skipped) = cp.load_latest().expect("load").expect("fallback exists");
        assert_eq!(g, 1, "must fall back past the invalid generation");
        assert_eq!(loaded.to_json(), snap.to_json());
        assert_eq!(skipped.len(), 1, "{skipped:?}");
        assert!(skipped[0].contains("stride"), "{skipped:?}");
    }

    #[test]
    fn a_key_with_no_valid_generation_is_a_typed_store_error() {
        let dir = temp_dir("garbage");
        let mut cp = DurableCheckpointer::open_dir(dir.path(), "train", 9, 1, 3).expect("open");
        // Valid envelopes under the right hash, non-snapshot payloads.
        for payload in [&b"garbage"[..], b"{}"] {
            cp.store_mut()
                .publish("train", 9, payload)
                .expect("publish");
        }
        match cp.load_latest() {
            Err(CheckpointError::Store(msg)) => {
                assert!(msg.contains("no valid generation"), "{msg}")
            }
            other => panic!("expected a Store error, got {other:?}"),
        }
    }

    #[test]
    fn run_config_hash_separates_runs() {
        let cfg = TrainerConfig::default();
        let base = run_config_hash(&cfg, 1, 2);
        assert_ne!(base, run_config_hash(&cfg, 2, 2), "seed must change hash");
        assert_ne!(base, run_config_hash(&cfg, 1, 4), "batch must change hash");
        let mut other = cfg;
        other.n_critic += 1;
        assert_ne!(
            base,
            run_config_hash(&other, 1, 2),
            "config must change hash"
        );
        assert_eq!(base, run_config_hash(&TrainerConfig::default(), 1, 2));
    }
}
