//! Supervised training: a watchdog wrapper around [`GanTrainer`] that
//! turns transient faults into bounded retries instead of ruined runs.
//!
//! The paper's accelerator trains for hours on end; a single flipped bit
//! in a parameter word, a diverging critic, or a panicking worker thread
//! would otherwise waste the whole run. [`SupervisedTrainer`] wraps each
//! [`GanTrainer::train_iteration`] in a recovery loop:
//!
//! 1. **Checkpoint** — before an iteration, the last known-good
//!    [`TrainerState`] (networks *and* optimizer moments) and the RNG
//!    state are held, so a rollback re-executes the step bit-identically.
//! 2. **Execute** — the iteration runs under `catch_unwind`, so a worker
//!    panic is contained. Optionally a [`FaultPlan`] at
//!    [`FaultSite::TrainerStep`] corrupts one critic parameter per step,
//!    which is how campaigns measure end-to-end resilience.
//! 3. **Check** — losses must be finite and bounded, the Wasserstein
//!    estimate must not collapse, every parameter must be finite and
//!    bounded.
//! 4. **Recover** — on any anomaly: roll back, restore the RNG, retry
//!    (bounded by [`SupervisorConfig::max_retries`]). A contained panic
//!    is one more anomaly: the retry runs on the same backend and the
//!    same pool (how wide a GEMM runs is the packed engine's decision, and
//!    `ZFGAN_THREADS=1` is the one way to make a process serial).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::Rng;
use serde::{Deserialize, Serialize};
use zfgan_tensor::fault::{FaultPlan, FaultSite};

use crate::checkpoint::CheckpointError;
use crate::durable::{DurableCheckpointer, DurableSnapshot, TrainRecord};
use crate::trainer::{ConfigError, DisStepReport, GanTrainer, GenStepReport, TrainerState};

/// Configuration of a [`SupervisedTrainer`]'s watchdogs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SupervisorConfig {
    /// How many times one iteration may be rolled back and re-executed
    /// before the supervisor gives up.
    pub max_retries: usize,
    /// `|loss|` above this is flagged as [`Anomaly::Divergence`].
    pub divergence_threshold: f64,
    /// `|parameter|` above this (or any non-finite parameter) is flagged
    /// as [`Anomaly::CorruptWeights`].
    pub weight_limit: f32,
    /// A Wasserstein estimate below `-collapse_threshold` is flagged as
    /// [`Anomaly::CriticCollapse`].
    pub collapse_threshold: f64,
    /// Optional fault population injected into the critic's parameters,
    /// one word per step, at [`FaultSite::TrainerStep`].
    pub fault: Option<FaultPlan>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            max_retries: 3,
            divergence_threshold: 1e6,
            weight_limit: 1e6,
            collapse_threshold: 1e6,
            fault: None,
        }
    }
}

impl SupervisorConfig {
    /// Checks the thresholds for validity.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.divergence_threshold.is_finite() || self.divergence_threshold <= 0.0 {
            return Err(ConfigError::new(format!(
                "divergence_threshold must be positive and finite, got {}",
                self.divergence_threshold
            )));
        }
        if !self.weight_limit.is_finite() || self.weight_limit <= 0.0 {
            return Err(ConfigError::new(format!(
                "weight_limit must be positive and finite, got {}",
                self.weight_limit
            )));
        }
        if !self.collapse_threshold.is_finite() || self.collapse_threshold <= 0.0 {
            return Err(ConfigError::new(format!(
                "collapse_threshold must be positive and finite, got {}",
                self.collapse_threshold
            )));
        }
        Ok(())
    }
}

/// A condition the supervisor's health checks flag after an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Anomaly {
    /// A loss or the Wasserstein estimate came back NaN or infinite.
    NonFiniteLoss,
    /// A loss magnitude exceeded the divergence threshold.
    Divergence,
    /// A parameter is non-finite or exceeds the weight limit.
    CorruptWeights,
    /// The Wasserstein estimate collapsed below `-collapse_threshold`.
    CriticCollapse,
    /// The iteration itself panicked (e.g. a dead worker thread).
    WorkerPanic,
}

impl Anomaly {
    /// Short stable name for logs and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Anomaly::NonFiniteLoss => "non-finite-loss",
            Anomaly::Divergence => "divergence",
            Anomaly::CorruptWeights => "corrupt-weights",
            Anomaly::CriticCollapse => "critic-collapse",
            Anomaly::WorkerPanic => "worker-panic",
        }
    }
}

/// Counters describing everything a [`SupervisedTrainer`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupervisorStats {
    /// Iterations that completed healthily.
    pub iterations: u64,
    /// Faults the configured plan actually fired into parameters.
    pub faults_injected: u64,
    /// Health-check failures and panics observed (before retries).
    pub anomalies: u64,
    /// Rollbacks to the last known-good state.
    pub rollbacks: u64,
    /// Re-executions after a rollback.
    pub retries: u64,
}

/// Why supervised training stopped.
#[derive(Debug, Clone, PartialEq)]
pub enum SupervisorError {
    /// The supervisor configuration is invalid.
    Config(ConfigError),
    /// One iteration stayed anomalous through every allowed retry.
    RetriesExhausted {
        /// Attempts spent on the failing iteration (`1 + max_retries`).
        attempts: usize,
        /// The anomaly observed on the final attempt.
        last_anomaly: Anomaly,
    },
}

impl fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupervisorError::Config(e) => write!(f, "{e}"),
            SupervisorError::RetriesExhausted {
                attempts,
                last_anomaly,
            } => write!(
                f,
                "iteration still anomalous ({}) after {attempts} attempts",
                last_anomaly.name()
            ),
        }
    }
}

impl Error for SupervisorError {}

/// Runs a closure with panic containment, mapping a panic to
/// [`Anomaly::WorkerPanic`] — the primitive behind the supervisor's
/// step execution, usable standalone for guarding auxiliary work
/// (metric computation, checkpoint serialisation, …).
///
/// # Errors
///
/// Returns [`Anomaly::WorkerPanic`] if the closure panics.
pub fn run_guarded<T>(f: impl FnOnce() -> T) -> Result<T, Anomaly> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|_| Anomaly::WorkerPanic)
}

/// A [`GanTrainer`] wrapped in checkpoint/rollback/retry supervision.
#[derive(Debug)]
pub struct SupervisedTrainer {
    trainer: GanTrainer,
    config: SupervisorConfig,
    last_good: TrainerState,
    /// Global step-attempt counter: the fault plan's index space, so
    /// injection is deterministic across retries and runs.
    attempts: u64,
    stats: SupervisorStats,
    checkpointer: Option<DurableCheckpointer>,
}

impl SupervisedTrainer {
    /// Wraps a trainer, snapshotting its current state as the first
    /// known-good checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`SupervisorError::Config`] if the thresholds are invalid.
    pub fn new(trainer: GanTrainer, config: SupervisorConfig) -> Result<Self, SupervisorError> {
        config.validate().map_err(SupervisorError::Config)?;
        let last_good = trainer.snapshot();
        Ok(Self {
            trainer,
            config,
            last_good,
            attempts: 0,
            stats: SupervisorStats::default(),
            checkpointer: None,
        })
    }

    /// The wrapped trainer.
    pub fn trainer(&self) -> &GanTrainer {
        &self.trainer
    }

    /// Attaches a durable checkpointer: [`maybe_publish`] will persist the
    /// last-good state to its store at the checkpointer's cadence.
    ///
    /// [`maybe_publish`]: SupervisedTrainer::maybe_publish
    pub fn set_checkpointer(&mut self, checkpointer: DurableCheckpointer) {
        self.checkpointer = Some(checkpointer);
    }

    /// The attached checkpointer, if any (crash hooks, corruption
    /// campaigns, direct store access).
    pub fn checkpointer_mut(&mut self) -> Option<&mut DurableCheckpointer> {
        self.checkpointer.as_mut()
    }

    /// Publishes the **last-good** state as a durable snapshot if a
    /// checkpointer is attached and `iteration` is one of its publication
    /// points. Returns the published generation, or `None` when not due
    /// (or no checkpointer is attached).
    ///
    /// The snapshot captures the supervisor's rollback checkpoint — the
    /// state every retry path converges to — plus the step RNG and the
    /// run's loss records, so a resume replays the exact trajectory.
    ///
    /// # Errors
    ///
    /// Propagates durability-layer failures as [`CheckpointError`].
    pub fn maybe_publish(
        &mut self,
        iteration: u64,
        rng: &rand::rngs::SmallRng,
        records: &[TrainRecord],
    ) -> Result<Option<u64>, CheckpointError> {
        let Some(cp) = self.checkpointer.as_mut() else {
            return Ok(None);
        };
        if !cp.is_due(iteration) {
            return Ok(None);
        }
        let snapshot = DurableSnapshot::capture(
            &self.last_good,
            self.trainer.config(),
            rng,
            iteration,
            records,
        );
        cp.publish(&snapshot).map(Some)
    }

    /// The supervision counters so far.
    pub fn stats(&self) -> &SupervisorStats {
        &self.stats
    }

    /// Unwraps the supervised trainer.
    pub fn into_inner(self) -> GanTrainer {
        self.trainer
    }

    /// One supervised WGAN iteration: execute under panic containment,
    /// inject the configured fault, health-check, and roll back + retry
    /// on any anomaly. The RNG is restored together with the trainer
    /// state, so a clean retry replays the exact step.
    ///
    /// # Errors
    ///
    /// Returns [`SupervisorError::RetriesExhausted`] if the iteration is
    /// still anomalous after `max_retries` rollbacks.
    pub fn train_iteration<R: Rng + Clone>(
        &mut self,
        batch: usize,
        rng: &mut R,
    ) -> Result<(DisStepReport, GenStepReport), SupervisorError> {
        let mut attempts_this_step = 0usize;
        loop {
            let rng_checkpoint = rng.clone();
            let step_index = self.attempts;
            self.attempts += 1;
            attempts_this_step += 1;

            let trainer = &mut self.trainer;
            let outcome = catch_unwind(AssertUnwindSafe(|| trainer.train_iteration(batch, rng)));

            let anomaly = match outcome {
                Err(_) => {
                    // The trainer may be mid-update; only the rollback
                    // below makes its state trustworthy again.
                    Some(Anomaly::WorkerPanic)
                }
                Ok(reports) => {
                    self.inject_fault(step_index);
                    match self.health_check(&reports.0, &reports.1) {
                        None => {
                            self.last_good = self.trainer.snapshot();
                            self.stats.iterations += 1;
                            zfgan_telemetry::count("supervisor_iterations_total", &[], 1);
                            return Ok(reports);
                        }
                        Some(a) => Some(a),
                    }
                }
            };

            if let Some(a) = anomaly {
                self.stats.anomalies += 1;
                self.stats.rollbacks += 1;
                zfgan_telemetry::count("supervisor_anomalies_total", &[("kind", a.name())], 1);
                zfgan_telemetry::count("supervisor_rollbacks_total", &[], 1);
                self.trainer.restore(&self.last_good);
                *rng = rng_checkpoint;
                if attempts_this_step > self.config.max_retries {
                    return Err(SupervisorError::RetriesExhausted {
                        attempts: attempts_this_step,
                        last_anomaly: a,
                    });
                }
                self.stats.retries += 1;
                zfgan_telemetry::count("supervisor_retries_total", &[], 1);
            }
        }
    }

    /// Fires the configured [`FaultSite::TrainerStep`] plan for this step
    /// index, corrupting one deterministic critic parameter.
    fn inject_fault(&mut self, step_index: u64) {
        let Some(plan) = self.config.fault else {
            return;
        };
        if !plan.fires(FaultSite::TrainerStep, step_index) {
            return;
        }
        let critic = self.trainer.gan_mut().discriminator_mut();
        let n_layers = critic.layers().len();
        let layer_idx = plan.pick(step_index, 0x6c61_7965_7200_0000, n_layers);
        let Some(layer) = critic.layers_mut().get_mut(layer_idx) else {
            return;
        };
        let mut weights = layer.weights_mut();
        let words = weights.as_mut_slice();
        if words.is_empty() {
            return;
        }
        let word_idx = plan.pick(step_index, 0x776f_7264_0000_0000, words.len());
        words[word_idx] = plan.apply(words[word_idx]);
        self.stats.faults_injected += 1;
        zfgan_telemetry::count("supervisor_faults_injected_total", &[], 1);
    }

    /// Post-iteration health checks, cheapest first.
    fn health_check(&self, dis: &DisStepReport, gen: &GenStepReport) -> Option<Anomaly> {
        let losses = [dis.dis_loss, dis.wasserstein_estimate, gen.gen_loss];
        if losses.iter().any(|l| !l.is_finite()) {
            return Some(Anomaly::NonFiniteLoss);
        }
        if dis.dis_loss.abs() > self.config.divergence_threshold
            || gen.gen_loss.abs() > self.config.divergence_threshold
        {
            return Some(Anomaly::Divergence);
        }
        if dis.wasserstein_estimate < -self.config.collapse_threshold {
            return Some(Anomaly::CriticCollapse);
        }
        let nets = [
            self.trainer.gan().generator(),
            self.trainer.gan().discriminator(),
        ];
        for net in nets {
            for layer in net.layers() {
                for &w in layer.weights().as_slice().iter().chain(layer.bias().iter()) {
                    if !w.is_finite() || w.abs() > self.config.weight_limit {
                        return Some(Anomaly::CorruptWeights);
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::trainer::{GanPair, TrainerConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use zfgan_tensor::fault::FaultKind;
    use zfgan_tensor::ConvBackend;

    fn supervised(seed: u64, fault: Option<FaultPlan>) -> SupervisedTrainer {
        let mut rng = SmallRng::seed_from_u64(seed);
        let trainer = GanTrainer::new(
            GanPair::tiny(&mut rng),
            TrainerConfig {
                n_critic: 1,
                ..TrainerConfig::default()
            },
        );
        SupervisedTrainer::new(
            trainer,
            SupervisorConfig {
                fault,
                ..SupervisorConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn clean_training_matches_unsupervised() {
        let mut rng_a = SmallRng::seed_from_u64(30);
        let mut sup = supervised(31, None);
        let mut plain = GanTrainer::new(
            GanPair::tiny(&mut SmallRng::seed_from_u64(31)),
            TrainerConfig {
                n_critic: 1,
                ..TrainerConfig::default()
            },
        );
        let mut rng_b = rng_a.clone();
        for _ in 0..3 {
            let (d_sup, g_sup) = sup.train_iteration(2, &mut rng_a).unwrap();
            let (d, g) = plain.train_iteration(2, &mut rng_b);
            assert_eq!(d_sup, d);
            assert_eq!(g_sup, g);
        }
        assert_eq!(sup.stats().iterations, 3);
        assert_eq!(sup.stats().anomalies, 0);
    }

    #[test]
    fn injected_faults_trigger_rollback_and_training_completes() {
        // Bit 30 on a clipped weight (|w| ≤ 0.01) always produces a huge
        // magnitude, so every effective injection must be caught.
        let plan = FaultPlan::new(
            77,
            0.7,
            FaultSite::TrainerStep,
            FaultKind::BitFlip { bit: 30 },
        )
        .unwrap();
        let mut sup = supervised(32, Some(plan));
        let mut rng = SmallRng::seed_from_u64(33);
        let mut completed = 0;
        for _ in 0..6 {
            match sup.train_iteration(2, &mut rng) {
                Ok((d, g)) => {
                    assert!(d.dis_loss.is_finite());
                    assert!(g.gen_loss.is_finite());
                    completed += 1;
                }
                Err(SupervisorError::RetriesExhausted { .. }) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let stats = *sup.stats();
        assert!(stats.faults_injected > 0, "{stats:?}");
        assert!(stats.rollbacks > 0, "{stats:?}");
        assert_eq!(stats.rollbacks, stats.anomalies, "{stats:?}");
        assert!(completed > 0, "{stats:?}");
        // After supervision every surviving parameter is healthy.
        for net in [
            sup.trainer().gan().generator(),
            sup.trainer().gan().discriminator(),
        ] {
            for layer in net.layers() {
                assert!(layer.weights().as_slice().iter().all(|w| w.is_finite()));
            }
        }
    }

    #[test]
    fn nan_weights_roll_back_to_last_good_state() {
        let mut sup = supervised(34, None);
        let mut rng = SmallRng::seed_from_u64(35);
        sup.train_iteration(2, &mut rng).unwrap();
        let good = sup.trainer().gan().discriminator().layers()[0]
            .weights()
            .clone();
        // Corrupt a parameter behind the supervisor's back; the next
        // iteration's health check must roll it back.
        sup.trainer.gan_mut().discriminator_mut().layers_mut()[0]
            .weights_mut()
            .as_mut_slice()[0] = f32::NAN;
        let out = sup.train_iteration(2, &mut rng);
        assert!(out.is_ok(), "{out:?}");
        assert!(sup.stats().rollbacks >= 1);
        // The corrupted word never survived into the resumed trajectory.
        let now = &sup.trainer().gan().discriminator().layers()[0];
        assert!(now.weights().as_slice()[0].is_finite());
        let _ = good;
    }

    #[test]
    fn a_rollback_keeps_the_backend_the_pair_trains_on() {
        let mut rng = SmallRng::seed_from_u64(40);
        let mut trainer = GanTrainer::new(
            GanPair::tiny(&mut rng),
            TrainerConfig {
                n_critic: 1,
                ..TrainerConfig::default()
            },
        );
        trainer.gan_mut().set_backend(ConvBackend::GoldenDirect);
        let mut sup = SupervisedTrainer::new(trainer, SupervisorConfig::default()).unwrap();
        sup.trainer.gan_mut().discriminator_mut().layers_mut()[0]
            .weights_mut()
            .as_mut_slice()[0] = f32::NAN;
        sup.train_iteration(2, &mut rng).unwrap();
        assert!(sup.stats().rollbacks >= 1);
        for net in [
            sup.trainer().gan().generator(),
            sup.trainer().gan().discriminator(),
        ] {
            for layer in net.layers() {
                assert_eq!(layer.backend(), ConvBackend::GoldenDirect);
            }
        }
    }

    #[test]
    fn retries_exhausted_is_reported_with_the_anomaly() {
        // Rate 1.0: the fault fires on every attempt, so no retry can
        // ever pass the health check.
        let plan = FaultPlan::new(
            1,
            1.0,
            FaultSite::TrainerStep,
            FaultKind::BitFlip { bit: 30 },
        )
        .unwrap();
        let mut sup = supervised(36, Some(plan));
        let mut rng = SmallRng::seed_from_u64(37);
        let err = sup.train_iteration(2, &mut rng).unwrap_err();
        match err {
            SupervisorError::RetriesExhausted {
                attempts,
                last_anomaly,
            } => {
                assert_eq!(attempts, 1 + SupervisorConfig::default().max_retries);
                assert_eq!(last_anomaly, Anomaly::CorruptWeights);
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn run_guarded_contains_panics() {
        assert_eq!(run_guarded(|| 2 + 2), Ok(4));
        let mut calls = 0;
        let result = run_guarded(|| {
            calls += 1;
            panic!("boom");
        });
        assert_eq!(result, Err(Anomaly::WorkerPanic));
        assert_eq!(calls, 1);
    }

    #[test]
    fn bad_thresholds_are_rejected() {
        let mut rng = SmallRng::seed_from_u64(39);
        let trainer = GanTrainer::new(GanPair::tiny(&mut rng), TrainerConfig::default());
        let err = SupervisedTrainer::new(
            trainer,
            SupervisorConfig {
                weight_limit: 0.0,
                ..SupervisorConfig::default()
            },
        )
        .map(|_| ())
        .unwrap_err();
        assert!(err.to_string().contains("weight_limit"), "{err}");
    }
}
