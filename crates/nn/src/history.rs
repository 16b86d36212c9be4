//! A structured multi-iteration training driver with metric history.

use rand::Rng;
use serde::{Deserialize, Serialize};
use zfgan_tensor::Fmaps;

use crate::metrics;
use crate::trainer::GanTrainer;

/// Per-iteration metric snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// Iteration index.
    pub iteration: usize,
    /// Critic loss of the last critic step.
    pub dis_loss: f64,
    /// Generator loss of the generator step.
    pub gen_loss: f64,
    /// Held-out critic separation margin (Wasserstein estimate).
    pub separation: f64,
    /// Held-out ranking accuracy.
    pub ranking_accuracy: f64,
    /// Moment distance between generated and real held-out batches.
    pub moment_distance: f64,
}

/// The metric history of one training run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainingHistory {
    records: Vec<IterationRecord>,
}

impl TrainingHistory {
    /// The per-iteration records, oldest first.
    pub fn records(&self) -> &[IterationRecord] {
        &self.records
    }

    /// Whether the critic's held-out separation improved from the first to
    /// the last recorded iteration.
    pub fn separation_improved(&self) -> bool {
        match (self.records.first(), self.records.last()) {
            (Some(a), Some(b)) => b.separation > a.separation,
            _ => false,
        }
    }

    /// The final record, if any iterations ran.
    pub fn last(&self) -> Option<&IterationRecord> {
        self.records.last()
    }
}

/// Runs `iterations` full WGAN iterations (each `n_critic` critic steps +
/// one generator step), evaluating held-out metrics after each, with real
/// batches drawn from `sample_reals`.
///
/// # Panics
///
/// Panics if `iterations`, `batch` or `eval_batch` is zero.
pub fn fit<R: Rng>(
    trainer: &mut GanTrainer,
    iterations: usize,
    batch: usize,
    eval_batch: usize,
    mut sample_reals: impl FnMut(usize, &mut R) -> Vec<Fmaps<f32>>,
    rng: &mut R,
) -> TrainingHistory {
    assert!(
        iterations > 0 && batch > 0 && eval_batch > 0,
        "sizes must be non-zero"
    );
    let mut history = TrainingHistory::default();
    for iteration in 0..iterations {
        let mut dis_loss = 0.0;
        for _ in 0..trainer.config().n_critic {
            let reals = sample_reals(batch, rng);
            dis_loss = trainer.step_discriminator(&reals, rng).dis_loss;
        }
        let gen_loss = trainer.step_generator(batch, rng).gen_loss;

        // Held-out evaluation.
        let reals = sample_reals(eval_batch, rng);
        let fakes = trainer.gan().generate_batch(eval_batch, rng);
        history.records.push(IterationRecord {
            iteration,
            dis_loss,
            gen_loss,
            separation: metrics::critic_separation(trainer.gan().discriminator(), &reals, &fakes),
            ranking_accuracy: metrics::ranking_accuracy(
                trainer.gan().discriminator(),
                &reals,
                &fakes,
            ),
            moment_distance: metrics::moment_distance(&fakes, &reals),
        });
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{GanPair, LossKind, SyncMode, TrainerConfig};
    use crate::OptimizerKind;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn fit_produces_a_history_and_the_critic_learns() {
        let mut rng = SmallRng::seed_from_u64(77);
        let pair = GanPair::tiny(&mut rng);
        let mut trainer = GanTrainer::new(
            pair,
            TrainerConfig {
                mode: SyncMode::Deferred,
                loss: LossKind::Wasserstein,
                optimizer: OptimizerKind::wgan_default(),
                learning_rate: 2e-3,
                weight_clip: Some(0.05),
                n_critic: 2,
            },
        );
        let history = fit(
            &mut trainer,
            12,
            6,
            8,
            |n, rng| {
                // Re-borrow the spec's sampler through a fresh pair shape.
                GanPair::tiny(&mut SmallRng::seed_from_u64(1)).sample_real_batch(n, rng)
            },
            &mut rng,
        );
        assert_eq!(history.records().len(), 12);
        assert!(
            history.separation_improved(),
            "history: {:?}",
            history.records().last()
        );
        let last = history.last().expect("non-empty");
        assert!(
            last.ranking_accuracy >= 0.5,
            "accuracy {}",
            last.ranking_accuracy
        );
        assert!(last.dis_loss.is_finite() && last.gen_loss.is_finite());
    }

    #[test]
    fn empty_history_reports_no_improvement() {
        let h = TrainingHistory::default();
        assert!(!h.separation_improved());
        assert!(h.last().is_none());
    }
}
