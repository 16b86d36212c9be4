//! From-scratch GAN training for the `zfgan` reproduction.
//!
//! This crate implements everything the paper's *algorithm* side needs:
//!
//! * [`Activation`] — LeakyReLU / ReLU / Tanh / identity with derivatives,
//! * [`ConvLayer`] / [`ConvNet`] — strided (`S-CONV`) and transposed
//!   (`T-CONV`) convolutional layers with full backpropagation (paper
//!   Eqs. 3–4),
//! * [`wgan`] — the Wasserstein losses of paper Eqs. 1–2 and their output
//!   errors (Eq. 6),
//! * [`Optimizer`] — SGD and RMSProp (the WGAN default),
//! * [`GanTrainer`] — one-stop Discriminator/Generator updates, one
//!   schedule run on the pool's sample lanes in either
//!   [`SyncMode::Synchronized`] (the original algorithm: a barrier after
//!   every sample's forward pass, all of them buffered, before any
//!   backward pass) or [`SyncMode::Deferred`] (the paper's Section IV-A
//!   transformation: no barrier, per-sample backward passes with `∇wᵢ`
//!   accumulation).
//!
//! The two modes are *exactly* equivalent because the WGAN loss is linear in
//! the critic outputs; [`GanTrainer`] exposes the buffered-intermediate
//! high-water mark of each mode so the paper's 2·batch → 1 memory claim is a
//! measurable fact rather than an assertion (see this crate's tests and
//! `zfgan paper memory`).
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use zfgan_nn::{GanPair, GanTrainer, SyncMode, TrainerConfig};
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
//! // A tiny two-layer GAN over 8×8 single-channel images.
//! let pair = GanPair::tiny(&mut rng);
//! let mut trainer = GanTrainer::new(pair, TrainerConfig {
//!     mode: SyncMode::Deferred,
//!     ..TrainerConfig::default()
//! });
//! let reals = trainer.gan().sample_real_batch(4, &mut rng);
//! let report = trainer.step_discriminator(&reals, &mut rng);
//! assert!(report.wasserstein_estimate.is_finite());
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod activation;
pub mod batchnorm;
mod checkpoint;
pub mod durable;
pub mod history;
mod layer;
pub mod metrics;
mod network;
mod optimizer;
pub mod supervisor;
mod trainer;
pub mod wgan;

pub use activation::Activation;
pub use batchnorm::{BatchNorm, BnCache};
pub use checkpoint::{Checkpoint, CheckpointError};
pub use durable::{DurableCheckpointer, DurableSnapshot, TrainRecord};
pub use history::{fit, IterationRecord, TrainingHistory};
pub use layer::{ConvLayer, Direction, LayerGrads, WeightsMut};
pub use network::{ConvNet, Trace};
pub use optimizer::{Optimizer, OptimizerKind};
pub use supervisor::{
    Anomaly, SupervisedTrainer, SupervisorConfig, SupervisorError, SupervisorStats,
};
pub use trainer::{
    ConfigError, DisStepReport, GanPair, GanTrainer, GenStepReport, LossKind, SyncMode,
    TrainerConfig, TrainerState,
};
