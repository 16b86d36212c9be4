//! GAN training loops: the original batch-synchronized algorithm and the
//! paper's deferred-synchronization transformation (Section IV-A).
//!
//! Both trainers compute mathematically identical weight updates — the WGAN
//! loss is a linear average, so each sample's output-layer error is the
//! constant `∓1/m` of Eq. 6 — but they differ in *when* backward passes run:
//!
//! * [`SyncMode::Synchronized`] finishes **all** `2·m` forward passes first
//!   (the loss-synchronization barrier of paper Fig. 2 steps ③/⑦), holding
//!   every sample's intermediate trace alive until the barrier clears.
//! * [`SyncMode::Deferred`] backpropagates each sample immediately after its
//!   own forward pass and accumulates `∇wᵢ` into `∇W`, so at most one trace
//!   is ever alive.
//!
//! The [`DisStepReport::peak_buffered_elems`] /
//! [`GenStepReport::peak_buffered_elems`] fields measure the resulting
//! memory high-water marks, reproducing the paper's `2 × batch → 1`
//! reduction.

use std::error::Error;
use std::fmt;

use rand::Rng;
use serde::{Deserialize, Serialize};
use zfgan_tensor::{ConvBackend, ConvWorkspace, Fmaps, ShapeError, TensorResult};

use crate::layer::{LayerGrads, Wants};
use crate::network::{ConvNet, Trace};
use crate::optimizer::{Optimizer, OptimizerKind};
use crate::wgan;

/// When backward passes are allowed to start relative to the loss
/// synchronization point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyncMode {
    /// Original algorithm: all forward passes complete (and stay buffered)
    /// before any backward pass.
    Synchronized,
    /// Paper Section IV-A: per-sample backward immediately after the
    /// sample's forward; gradients accumulate across the batch.
    Deferred,
}

/// Which adversarial objective the trainer optimises.
///
/// Both are sums of per-sample terms, so both admit the paper's deferred
/// synchronization exactly; the Wasserstein form is what the paper (and
/// its Eq. 1–2) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LossKind {
    /// WGAN critic loss (paper Eqs. 1–2): linear in the scores, constant
    /// per-sample errors (Eq. 6).
    Wasserstein,
    /// The original minimax GAN with the non-saturating generator
    /// objective: per-sample errors depend on the sample's own logit only.
    MinimaxNonSaturating,
}

/// Configuration of a [`GanTrainer`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Synchronization strategy (the paper's co-design lever).
    pub mode: SyncMode,
    /// The adversarial objective.
    pub loss: LossKind,
    /// Update rule for both networks.
    pub optimizer: OptimizerKind,
    /// Learning rate for both networks.
    pub learning_rate: f32,
    /// WGAN weight-clipping bound for the critic (`None` disables).
    pub weight_clip: Option<f32>,
    /// Critic updates per Generator update (WGAN's `n_critic`).
    pub n_critic: usize,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            mode: SyncMode::Deferred,
            loss: LossKind::Wasserstein,
            optimizer: OptimizerKind::wgan_default(),
            learning_rate: 5e-5,
            weight_clip: Some(0.01),
            n_critic: 5,
        }
    }
}

/// An invalid [`TrainerConfig`], with a field-specific explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid trainer config: {}", self.message)
    }
}

impl Error for ConfigError {}

impl TrainerConfig {
    /// Checks every field for validity, so bad configuration surfaces as a
    /// descriptive error at construction instead of a panic deep inside
    /// training (`clamp_weights` asserts a positive clip bound, optimizer
    /// updates assume a positive finite learning rate).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.learning_rate.is_finite() || self.learning_rate <= 0.0 {
            return Err(ConfigError::new(format!(
                "learning_rate must be positive and finite, got {}",
                self.learning_rate
            )));
        }
        if let Some(c) = self.weight_clip {
            if !c.is_finite() || c <= 0.0 {
                return Err(ConfigError::new(format!(
                    "weight_clip must be positive and finite, got {c}"
                )));
            }
        }
        if self.n_critic == 0 {
            return Err(ConfigError::new("n_critic must be at least 1"));
        }
        Ok(())
    }
}

/// A Generator/Discriminator pair with compatible shapes.
#[derive(Debug, Clone)]
pub struct GanPair {
    generator: ConvNet,
    discriminator: ConvNet,
}

impl GanPair {
    /// Pairs a Generator and a Discriminator (critic).
    ///
    /// # Errors
    ///
    /// Returns an error if the Generator's output shape is not the
    /// Discriminator's input shape, or the Discriminator does not end in a
    /// `1×1×1` scalar critic output.
    pub fn new(generator: ConvNet, discriminator: ConvNet) -> TensorResult<Self> {
        if generator.out_shape() != discriminator.in_shape() {
            return Err(ShapeError::new(format!(
                "generator produces {:?}, discriminator expects {:?}",
                generator.out_shape(),
                discriminator.in_shape()
            )));
        }
        if discriminator.out_shape() != (1, 1, 1) {
            return Err(ShapeError::new(format!(
                "critic must output a 1×1×1 scalar, got {:?}",
                discriminator.out_shape()
            )));
        }
        Ok(Self {
            generator,
            discriminator,
        })
    }

    /// A tiny 8×8 single-channel GAN for tests and the quickstart example:
    /// a two-layer Generator mirrored by a two-layer critic.
    pub fn tiny<R: Rng>(rng: &mut R) -> Self {
        use crate::activation::Activation;
        use crate::layer::{ConvLayer, Direction};
        use zfgan_tensor::ConvGeom;

        let head = ConvGeom::down(4, 4, 4, 4, 1, 1, 1).expect("static geometry");
        let body = ConvGeom::down(8, 8, 4, 4, 2, 4, 4).expect("static geometry");
        let scale = 0.25;
        let g = ConvNet::new(vec![
            ConvLayer::random(
                Direction::Up,
                head,
                8,
                4,
                Activation::Relu,
                (8, 1, 1),
                scale,
                rng,
            )
            .expect("static shapes"),
            ConvLayer::random(
                Direction::Up,
                body,
                4,
                1,
                Activation::Tanh,
                (4, 4, 4),
                scale,
                rng,
            )
            .expect("static shapes"),
        ])
        .expect("static stack");
        let d = ConvNet::new(vec![
            ConvLayer::random(
                Direction::Down,
                body,
                4,
                1,
                Activation::LeakyRelu { alpha: 0.2 },
                (1, 8, 8),
                scale,
                rng,
            )
            .expect("static shapes"),
            ConvLayer::random(
                Direction::Down,
                head,
                1,
                4,
                Activation::Identity,
                (4, 4, 4),
                scale,
                rng,
            )
            .expect("static shapes"),
        ])
        .expect("static stack");
        Self::new(g, d).expect("tiny pair is consistent")
    }

    /// The Generator network.
    pub fn generator(&self) -> &ConvNet {
        &self.generator
    }

    /// The Discriminator (critic) network.
    pub fn discriminator(&self) -> &ConvNet {
        &self.discriminator
    }

    /// Mutable access to the Generator (fault injection, custom updates).
    pub fn generator_mut(&mut self) -> &mut ConvNet {
        &mut self.generator
    }

    /// Mutable access to the Discriminator.
    pub fn discriminator_mut(&mut self) -> &mut ConvNet {
        &mut self.discriminator
    }

    /// Selects the convolution backend for both networks. All backends
    /// are bit-identical, so the training trajectory does not change.
    pub fn set_backend(&mut self, backend: ConvBackend) {
        self.generator.set_backend(backend);
        self.discriminator.set_backend(backend);
    }

    /// `(channels, height, width)` of the latent input `z`.
    pub fn z_shape(&self) -> (usize, usize, usize) {
        self.generator.in_shape()
    }

    /// `(channels, height, width)` of generated / real images.
    pub fn image_shape(&self) -> (usize, usize, usize) {
        self.generator.out_shape()
    }

    /// Generates one image from a latent vector (a plain Generator forward
    /// pass, trace discarded).
    ///
    /// # Panics
    ///
    /// Panics if `z` does not match the Generator's input shape.
    pub fn generate(&self, z: &Fmaps<f32>) -> Fmaps<f32> {
        self.generator
            .forward(z)
            .expect("z shape matches generator")
            .output()
            .clone()
    }

    /// Generates a batch of images from fresh latent vectors.
    pub fn generate_batch<R: Rng>(&self, batch: usize, rng: &mut R) -> Vec<Fmaps<f32>> {
        self.sample_z_batch(batch, rng)
            .iter()
            .map(|z| self.generate(z))
            .collect()
    }

    /// Draws a batch of latent vectors `z ~ U[-1, 1]`.
    pub fn sample_z_batch<R: Rng>(&self, batch: usize, rng: &mut R) -> Vec<Fmaps<f32>> {
        let (c, h, w) = self.z_shape();
        (0..batch)
            .map(|_| Fmaps::random(c, h, w, 1.0, rng))
            .collect()
    }

    /// Draws a batch from a synthetic "real" distribution: smooth Gaussian
    /// bumps with random centres, mapped into `[-1, 1]` — structured enough
    /// for the critic to separate from noise, cheap enough for tests.
    pub fn sample_real_batch<R: Rng>(&self, batch: usize, rng: &mut R) -> Vec<Fmaps<f32>> {
        let (c, h, w) = self.image_shape();
        (0..batch)
            .map(|_| {
                let cy = rng.gen_range(0.25..0.75) * h as f32;
                let cx = rng.gen_range(0.25..0.75) * w as f32;
                let sigma = 0.35 * h.min(w) as f32;
                let mut img = Fmaps::zeros(c, h, w);
                for ch in 0..c {
                    for y in 0..h {
                        for x in 0..w {
                            let d2 = (y as f32 - cy).powi(2) + (x as f32 - cx).powi(2);
                            *img.at_mut(ch, y, x) = 2.0 * (-d2 / (2.0 * sigma * sigma)).exp() - 1.0;
                        }
                    }
                }
                img
            })
            .collect()
    }
}

/// Result of one Discriminator update.
#[derive(Debug, Clone, PartialEq)]
pub struct DisStepReport {
    /// Critic loss (paper Eq. 1).
    pub dis_loss: f64,
    /// The Wasserstein estimate `(1/m)Σ[D(x) − D(x̃)]`.
    pub wasserstein_estimate: f64,
    /// High-water mark of simultaneously buffered intermediate elements.
    pub peak_buffered_elems: usize,
    /// Number of traces alive at the memory peak (`2·m` synchronized, `1`
    /// deferred).
    pub peak_live_traces: usize,
}

/// Result of one Generator update.
#[derive(Debug, Clone, PartialEq)]
pub struct GenStepReport {
    /// Generator loss (paper Eq. 2).
    pub gen_loss: f64,
    /// High-water mark of simultaneously buffered intermediate elements.
    pub peak_buffered_elems: usize,
    /// Number of traces alive at the memory peak.
    pub peak_live_traces: usize,
}

/// A complete snapshot of a [`GanTrainer`]'s mutable state — both networks
/// **and** both optimizers' moment estimates. Restoring it resumes
/// training bit-identically, which is what the supervisor's rollback
/// relies on ([`GanTrainer::snapshot`] / [`GanTrainer::restore`]).
#[derive(Debug, Clone)]
pub struct TrainerState {
    gan: GanPair,
    opt_g: Optimizer,
    opt_d: Optimizer,
}

impl TrainerState {
    /// The snapshotted GAN pair.
    pub fn gan(&self) -> &GanPair {
        &self.gan
    }

    /// The snapshotted `(generator, discriminator)` optimizers.
    pub fn optimizers(&self) -> (&Optimizer, &Optimizer) {
        (&self.opt_g, &self.opt_d)
    }
}

/// Drives WGAN training of a [`GanPair`] under a chosen [`SyncMode`].
///
/// The trainer owns a [`ConvWorkspace`] through which every step's conv
/// transients are drawn, so a steady-state step performs no heap
/// allocation in the conv hot path (see `tests/zero_alloc.rs`). The
/// workspace is scratch, not state: it is deliberately **not** part of
/// [`TrainerState`], and its contents never affect results (all workspace
/// paths are bit-identical to the allocating ones).
#[derive(Debug)]
pub struct GanTrainer {
    gan: GanPair,
    config: TrainerConfig,
    opt_g: Optimizer,
    opt_d: Optimizer,
    workspace: ConvWorkspace<f32>,
}

impl GanTrainer {
    /// Creates a trainer, allocating optimizer state for both networks.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid — use
    /// [`GanTrainer::try_new`] to handle that as an error.
    pub fn new(gan: GanPair, config: TrainerConfig) -> Self {
        match Self::try_new(gan, config) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a trainer after validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field (bad learning
    /// rate, non-positive `weight_clip`, zero `n_critic`).
    pub fn try_new(gan: GanPair, config: TrainerConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let opt_g = Optimizer::new(config.optimizer, config.learning_rate, gan.generator());
        let opt_d = Optimizer::new(config.optimizer, config.learning_rate, gan.discriminator());
        Ok(Self {
            gan,
            config,
            opt_g,
            opt_d,
            workspace: ConvWorkspace::new(),
        })
    }

    /// Rebuilds a trainer from restored state — networks **and** optimizer
    /// moments — so training resumed from a durable snapshot continues the
    /// exact trajectory (same updates, bit for bit) the interrupted run
    /// would have taken.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is invalid or either
    /// optimizer's accumulators are not shaped for its network (a durable
    /// snapshot assembled from mismatched generations).
    pub fn from_parts(
        gan: GanPair,
        config: TrainerConfig,
        opt_g: Optimizer,
        opt_d: Optimizer,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        opt_g
            .validate_for(gan.generator())
            .map_err(|e| ConfigError::new(format!("generator optimizer: {e}")))?;
        opt_d
            .validate_for(gan.discriminator())
            .map_err(|e| ConfigError::new(format!("discriminator optimizer: {e}")))?;
        Ok(Self {
            gan,
            config,
            opt_g,
            opt_d,
            workspace: ConvWorkspace::new(),
        })
    }

    /// Toggles the training workspace's buffer reuse. `true` (the default)
    /// recycles conv scratch across steps; `false` allocates freshly per
    /// take — the honest allocating baseline the `trainstep` bench
    /// measures. Results are bit-identical either way.
    pub fn set_workspace_reuse(&mut self, reuse: bool) {
        self.workspace.set_reuse(reuse);
    }

    /// The trainer's conv scratch workspace.
    pub fn workspace(&self) -> &ConvWorkspace<f32> {
        &self.workspace
    }

    /// The GAN being trained.
    pub fn gan(&self) -> &GanPair {
        &self.gan
    }

    /// Mutable access to the GAN (fault injection, backend changes).
    pub fn gan_mut(&mut self) -> &mut GanPair {
        &mut self.gan
    }

    /// The trainer configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Snapshots networks and optimizer state for later [`restore`].
    ///
    /// [`restore`]: GanTrainer::restore
    pub fn snapshot(&self) -> TrainerState {
        zfgan_telemetry::count("trainer_snapshots_total", &[], 1);
        TrainerState {
            gan: self.gan.clone(),
            opt_g: self.opt_g.clone(),
            opt_d: self.opt_d.clone(),
        }
    }

    /// Rolls networks and optimizer state back to a snapshot. Training
    /// resumed from here (with the same RNG state and data) is
    /// bit-identical to training resumed from the moment the snapshot was
    /// taken.
    pub fn restore(&mut self, state: &TrainerState) {
        zfgan_telemetry::count("trainer_restores_total", &[], 1);
        self.gan = state.gan.clone();
        self.opt_g = state.opt_g.clone();
        self.opt_d = state.opt_d.clone();
    }

    /// One Discriminator (critic) update over `reals` plus an equal number
    /// of freshly generated fakes — paper Fig. 2 steps ①–④ (or the
    /// per-sample loops of Fig. 8a when deferred).
    ///
    /// # Panics
    ///
    /// Panics if `reals` is empty or contains a wrongly-shaped image.
    pub fn step_discriminator<R: Rng>(
        &mut self,
        reals: &[Fmaps<f32>],
        rng: &mut R,
    ) -> DisStepReport {
        assert!(!reals.is_empty(), "batch must be non-empty");
        let m = reals.len();
        let ws = &mut self.workspace;
        // Step ①: Generator produces the fake batch (forward only; its
        // trace is not needed for a Discriminator update). Same RNG
        // consumption and arithmetic as `GanPair::generate_batch`, with
        // the forward transients drawn from the workspace.
        let zs = self.gan.sample_z_batch(m, rng);
        let mut fakes = Vec::with_capacity(m);
        for z in &zs {
            let gt = self.gan.generator.forward_ws(z, ws).expect("z shape");
            fakes.push(gt.into_output(ws));
        }
        drop(zs);

        let mut grads = self.gan.discriminator.zero_grads_ws(ws);
        let mut real_scores = Vec::with_capacity(m);
        let mut fake_scores = Vec::with_capacity(m);
        let mut peak_elems = 0usize;
        let mut peak_traces = 0usize;

        match self.config.mode {
            SyncMode::Synchronized => {
                // All 2·m forward passes complete and stay buffered before
                // the loss synchronization point allows any backward pass.
                let real_traces: Vec<Trace> = reals
                    .iter()
                    .map(|x| {
                        self.gan
                            .discriminator
                            .forward_ws(x, ws)
                            .expect("image shape")
                    })
                    .collect();
                let fake_traces: Vec<Trace> = fakes
                    .iter()
                    .map(|x| {
                        self.gan
                            .discriminator
                            .forward_ws(x, ws)
                            .expect("image shape")
                    })
                    .collect();
                peak_elems = real_traces
                    .iter()
                    .chain(&fake_traces)
                    .map(Trace::buffered_elems)
                    .sum();
                peak_traces = 2 * m;
                for t in &real_traces {
                    real_scores.push(wgan::score(t.output()));
                }
                for t in &fake_traces {
                    fake_scores.push(wgan::score(t.output()));
                }
                // Synchronization cleared: backward passes may now run.
                for (t, score) in real_traces.iter().zip(&real_scores) {
                    let delta = wgan::scalar_error(real_delta(self.config.loss, *score, m));
                    accumulate_ws(&mut grads, &self.gan.discriminator, t, &delta, ws);
                }
                for (t, score) in fake_traces.iter().zip(&fake_scores) {
                    let delta = wgan::scalar_error(fake_delta(self.config.loss, *score, m));
                    accumulate_ws(&mut grads, &self.gan.discriminator, t, &delta, ws);
                }
                for t in real_traces.into_iter().chain(fake_traces) {
                    t.recycle(ws);
                }
            }
            SyncMode::Deferred => {
                // Eq. 6: each sample's output error is a constant ∓1/m, so
                // its backward pass runs as soon as its forward pass ends.
                for x in reals {
                    let t = self
                        .gan
                        .discriminator
                        .forward_ws(x, ws)
                        .expect("image shape");
                    peak_elems = peak_elems.max(t.buffered_elems());
                    peak_traces = peak_traces.max(1);
                    let score = wgan::score(t.output());
                    real_scores.push(score);
                    let delta = wgan::scalar_error(real_delta(self.config.loss, score, m));
                    accumulate_ws(&mut grads, &self.gan.discriminator, &t, &delta, ws);
                    t.recycle(ws);
                }
                for x in &fakes {
                    let t = self
                        .gan
                        .discriminator
                        .forward_ws(x, ws)
                        .expect("image shape");
                    peak_elems = peak_elems.max(t.buffered_elems());
                    let score = wgan::score(t.output());
                    fake_scores.push(score);
                    let delta = wgan::scalar_error(fake_delta(self.config.loss, score, m));
                    accumulate_ws(&mut grads, &self.gan.discriminator, &t, &delta, ws);
                    t.recycle(ws);
                }
            }
        }
        for f in fakes {
            ws.give_fmaps(f);
        }

        let clip = self.config.weight_clip;
        self.opt_d
            .step_clipped(&mut self.gan.discriminator, &grads, clip);
        for g in grads {
            g.recycle(&mut self.workspace);
        }
        let dis_loss = match self.config.loss {
            LossKind::Wasserstein => wgan::dis_loss(&real_scores, &fake_scores),
            LossKind::MinimaxNonSaturating => wgan::vanilla_dis_loss(&real_scores, &fake_scores),
        };
        DisStepReport {
            dis_loss,
            wasserstein_estimate: wgan::wasserstein_estimate(&real_scores, &fake_scores),
            peak_buffered_elems: peak_elems,
            peak_live_traces: peak_traces,
        }
    }

    /// One Generator update over `batch` fresh latent vectors — paper
    /// Fig. 2 steps ⑤–⑨ (or Fig. 8b when deferred).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn step_generator<R: Rng>(&mut self, batch: usize, rng: &mut R) -> GenStepReport {
        assert!(batch > 0, "batch must be non-zero");
        let ws = &mut self.workspace;
        let zs = self.gan.sample_z_batch(batch, rng);
        let mut grads = self.gan.generator.zero_grads_ws(ws);
        let mut fake_scores = Vec::with_capacity(batch);
        let mut peak_elems = 0usize;
        let mut peak_traces = 0usize;

        let loss = self.config.loss;
        let backward_one = |gan: &GanPair,
                            grads: &mut Vec<LayerGrads>,
                            g_trace: &Trace,
                            d_trace: &Trace,
                            m: usize,
                            ws: &mut ConvWorkspace<f32>| {
            let score = wgan::score(d_trace.output());
            let delta = wgan::scalar_error(gen_delta(loss, score, m));
            // Error flows back through the (frozen) critic into the
            // Generator — Fig. 2 step ⑧: only the error on the image is
            // wanted, the critic's own gradients are never built.
            let through_critic = Wants {
                weight_grads: false,
                input_error: true,
            };
            let (_, delta_image) = gan
                .discriminator
                .backward_wanted_ws(d_trace, &delta, through_critic, ws)
                .expect("trace produced by this network");
            let delta_image = delta_image.expect("image error was wanted");
            accumulate_ws(grads, &gan.generator, g_trace, &delta_image, ws);
            ws.give_fmaps(delta_image);
        };

        match self.config.mode {
            SyncMode::Synchronized => {
                let traces: Vec<(Trace, Trace)> = zs
                    .iter()
                    .map(|z| {
                        let gt = self.gan.generator.forward_ws(z, ws).expect("z shape");
                        let dt = self
                            .gan
                            .discriminator
                            .forward_ws(gt.output(), ws)
                            .expect("image shape");
                        (gt, dt)
                    })
                    .collect();
                peak_elems = traces
                    .iter()
                    .map(|(g, d)| g.buffered_elems() + d.buffered_elems())
                    .sum();
                peak_traces = 2 * batch;
                for (_, dt) in &traces {
                    fake_scores.push(wgan::score(dt.output()));
                }
                for (gt, dt) in &traces {
                    backward_one(&self.gan, &mut grads, gt, dt, batch, ws);
                }
                for (gt, dt) in traces {
                    gt.recycle(ws);
                    dt.recycle(ws);
                }
            }
            SyncMode::Deferred => {
                for z in &zs {
                    let gt = self.gan.generator.forward_ws(z, ws).expect("z shape");
                    let dt = self
                        .gan
                        .discriminator
                        .forward_ws(gt.output(), ws)
                        .expect("image shape");
                    peak_elems = peak_elems.max(gt.buffered_elems() + dt.buffered_elems());
                    peak_traces = peak_traces.max(2);
                    fake_scores.push(wgan::score(dt.output()));
                    backward_one(&self.gan, &mut grads, &gt, &dt, batch, ws);
                    gt.recycle(ws);
                    dt.recycle(ws);
                }
            }
        }

        self.opt_g.step(&mut self.gan.generator, &grads);
        for g in grads {
            g.recycle(&mut self.workspace);
        }
        let gen_loss = match loss {
            LossKind::Wasserstein => wgan::gen_loss(&fake_scores),
            LossKind::MinimaxNonSaturating => wgan::vanilla_gen_loss(&fake_scores),
        };
        GenStepReport {
            gen_loss,
            peak_buffered_elems: peak_elems,
            peak_live_traces: peak_traces,
        }
    }

    /// One full WGAN iteration: `n_critic` Discriminator updates followed by
    /// one Generator update. Returns the last critic report and the
    /// Generator report.
    pub fn train_iteration<R: Rng>(
        &mut self,
        batch: usize,
        rng: &mut R,
    ) -> (DisStepReport, GenStepReport) {
        let mut span = zfgan_telemetry::span!("train/iteration");
        let t0 = std::time::Instant::now();
        let mut last = None;
        for _ in 0..self.config.n_critic.max(1) {
            let reals = self.gan.sample_real_batch(batch, rng);
            last = Some(self.step_discriminator(&reals, rng));
        }
        let gen = self.step_generator(batch, rng);
        if span.is_active() {
            span.record("batch", batch as u64);
            span.record("critic_updates", self.config.n_critic.max(1) as u64);
            zfgan_telemetry::count("trainer_steps_total", &[], 1);
            zfgan_telemetry::observe_wall(
                "trainer_step_seconds",
                &[],
                &[1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0],
                t0.elapsed().as_secs_f64(),
            );
        }
        (last.expect("n_critic ≥ 1"), gen)
    }
}

/// Per-sample output error of a real sample under `loss`, given the
/// sample's own critic output (score for WGAN, logit for minimax).
fn real_delta(loss: LossKind, score: f64, m: usize) -> f32 {
    match loss {
        LossKind::Wasserstein => wgan::dis_output_error_real(m),
        LossKind::MinimaxNonSaturating => wgan::vanilla_output_error_real(score, m),
    }
}

/// Per-sample output error of a fake sample during a Discriminator update.
fn fake_delta(loss: LossKind, score: f64, m: usize) -> f32 {
    match loss {
        LossKind::Wasserstein => wgan::dis_output_error_fake(m),
        LossKind::MinimaxNonSaturating => wgan::vanilla_output_error_fake(score, m),
    }
}

/// Per-sample output error of a fake sample during a Generator update.
fn gen_delta(loss: LossKind, score: f64, m: usize) -> f32 {
    match loss {
        LossKind::Wasserstein => wgan::gen_output_error(m),
        LossKind::MinimaxNonSaturating => wgan::vanilla_gen_output_error(score, m),
    }
}

/// Backpropagates one sample through `net`, adding its gradients into
/// `grads` (`∇W += ∇wᵢ`, in the `W-CONV`'s own epilogue — no per-sample
/// gradient exists) and drawing every transient from the workspace. The
/// error on the network input (the image, or `z`) has no consumer, so it
/// is not computed.
fn accumulate_ws(
    grads: &mut [LayerGrads],
    net: &ConvNet,
    trace: &Trace,
    delta: &Fmaps<f32>,
    ws: &mut ConvWorkspace<f32>,
) {
    net.backward_accumulate_ws(trace, delta, grads, ws)
        .expect("trace produced by this network");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn trainer(mode: SyncMode, seed: u64) -> GanTrainer {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pair = GanPair::tiny(&mut rng);
        GanTrainer::new(
            pair,
            TrainerConfig {
                mode,
                optimizer: OptimizerKind::Sgd,
                ..TrainerConfig::default()
            },
        )
    }

    #[test]
    fn bad_configs_are_rejected_with_field_specific_errors() {
        let mut rng = SmallRng::seed_from_u64(60);
        let cases: [(TrainerConfig, &str); 4] = [
            (
                TrainerConfig {
                    weight_clip: Some(0.0),
                    ..TrainerConfig::default()
                },
                "weight_clip",
            ),
            (
                TrainerConfig {
                    weight_clip: Some(f32::NAN),
                    ..TrainerConfig::default()
                },
                "weight_clip",
            ),
            (
                TrainerConfig {
                    learning_rate: -1e-3,
                    ..TrainerConfig::default()
                },
                "learning_rate",
            ),
            (
                TrainerConfig {
                    n_critic: 0,
                    ..TrainerConfig::default()
                },
                "n_critic",
            ),
        ];
        for (cfg, field) in cases {
            assert!(cfg.validate().is_err());
            let err = GanTrainer::try_new(GanPair::tiny(&mut rng), cfg).unwrap_err();
            assert!(err.to_string().contains(field), "{err}");
        }
        assert!(TrainerConfig::default().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "weight_clip")]
    fn new_panics_with_the_descriptive_message() {
        let mut rng = SmallRng::seed_from_u64(61);
        let _ = GanTrainer::new(
            GanPair::tiny(&mut rng),
            TrainerConfig {
                weight_clip: Some(-1.0),
                ..TrainerConfig::default()
            },
        );
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let mut t = trainer(SyncMode::Deferred, 70);
        let mut rng = SmallRng::seed_from_u64(71);
        // Warm up so optimizer state is non-trivial.
        let _ = t.train_iteration(2, &mut rng);
        let state = t.snapshot();
        let rng_state = rng.clone();
        let (d1, g1) = t.train_iteration(2, &mut rng);
        // Diverge further, then roll back and replay.
        let _ = t.train_iteration(2, &mut rng);
        t.restore(&state);
        let mut rng2 = rng_state;
        let (d2, g2) = t.train_iteration(2, &mut rng2);
        assert_eq!(d1, d2);
        assert_eq!(g1, g2);
    }

    #[test]
    fn tiny_pair_shapes_are_consistent() {
        let mut rng = SmallRng::seed_from_u64(0);
        let pair = GanPair::tiny(&mut rng);
        assert_eq!(pair.z_shape(), (8, 1, 1));
        assert_eq!(pair.image_shape(), (1, 8, 8));
        assert_eq!(pair.discriminator().out_shape(), (1, 1, 1));
    }

    #[test]
    fn pair_validation_rejects_mismatches() {
        let mut rng = SmallRng::seed_from_u64(0);
        let a = GanPair::tiny(&mut rng);
        let b = GanPair::tiny(&mut rng);
        // Discriminator as generator: output is 1×1×1, not an image.
        assert!(GanPair::new(a.discriminator().clone(), b.discriminator().clone()).is_err());
        // Generator as critic: output is an image, not a scalar.
        assert!(GanPair::new(a.generator().clone(), b.generator().clone()).is_err());
    }

    /// Deferred synchronization is exact for the *original* GAN loss too —
    /// non-linear in the score, but still a per-sample sum.
    #[test]
    fn deferred_equals_synchronized_under_the_original_gan_loss() {
        let make = |mode| {
            let mut rng = SmallRng::seed_from_u64(55);
            let pair = GanPair::tiny(&mut rng);
            GanTrainer::new(
                pair,
                TrainerConfig {
                    mode,
                    loss: LossKind::MinimaxNonSaturating,
                    optimizer: OptimizerKind::Sgd,
                    ..TrainerConfig::default()
                },
            )
        };
        let mut t_sync = make(SyncMode::Synchronized);
        let mut t_def = make(SyncMode::Deferred);
        let mut data_rng = SmallRng::seed_from_u64(7);
        let reals = t_sync.gan().sample_real_batch(5, &mut data_rng);
        let mut ra = SmallRng::seed_from_u64(3);
        let mut rb = SmallRng::seed_from_u64(3);
        let a = t_sync.step_discriminator(&reals, &mut ra);
        let b = t_def.step_discriminator(&reals, &mut rb);
        assert_eq!(a.dis_loss, b.dis_loss);
        for (ls, ld) in t_sync
            .gan()
            .discriminator()
            .layers()
            .iter()
            .zip(t_def.gan().discriminator().layers())
        {
            assert_eq!(ls.weights().max_abs_diff(ld.weights()), 0.0);
        }
        // Generator step too.
        let ga = t_sync.step_generator(4, &mut ra);
        let gb = t_def.step_generator(4, &mut rb);
        assert_eq!(ga.gen_loss, gb.gen_loss);
    }

    #[test]
    fn vanilla_loss_trains_the_critic_too() {
        let mut rng = SmallRng::seed_from_u64(2030);
        let pair = GanPair::tiny(&mut rng);
        let mut trainer = GanTrainer::new(
            pair,
            TrainerConfig {
                mode: SyncMode::Deferred,
                loss: LossKind::MinimaxNonSaturating,
                optimizer: OptimizerKind::wgan_default(),
                learning_rate: 2e-3,
                weight_clip: None,
                n_critic: 1,
            },
        );
        let mut first = None;
        let mut last = 0.0;
        for i in 0..25 {
            let reals = trainer.gan().sample_real_batch(8, &mut rng);
            let rep = trainer.step_discriminator(&reals, &mut rng);
            if i == 0 {
                first = Some(rep.dis_loss);
            }
            last = rep.dis_loss;
        }
        // The minimax loss (−log-likelihood) must fall.
        assert!(last < first.unwrap() - 1e-4, "first={first:?} last={last}");
    }

    /// The paper's core algorithmic claim: deferred synchronization computes
    /// the *same* update as the original algorithm.
    #[test]
    fn deferred_equals_synchronized_discriminator_update() {
        let mut t_sync = trainer(SyncMode::Synchronized, 99);
        let mut t_def = trainer(SyncMode::Deferred, 99);
        // Identical starting weights (same seed) and identical inputs.
        let mut rng_data = SmallRng::seed_from_u64(1234);
        let reals = t_sync.gan().sample_real_batch(6, &mut rng_data);
        let mut rng_a = SmallRng::seed_from_u64(77);
        let mut rng_b = SmallRng::seed_from_u64(77);
        let ra = t_sync.step_discriminator(&reals, &mut rng_a);
        let rb = t_def.step_discriminator(&reals, &mut rng_b);
        assert_eq!(ra.dis_loss, rb.dis_loss);
        for (ls, ld) in t_sync
            .gan()
            .discriminator()
            .layers()
            .iter()
            .zip(t_def.gan().discriminator().layers())
        {
            assert_eq!(
                ls.weights().max_abs_diff(ld.weights()),
                0.0,
                "weights diverged between sync modes"
            );
        }
    }

    #[test]
    fn deferred_equals_synchronized_generator_update() {
        let mut t_sync = trainer(SyncMode::Synchronized, 5);
        let mut t_def = trainer(SyncMode::Deferred, 5);
        let mut rng_a = SmallRng::seed_from_u64(42);
        let mut rng_b = SmallRng::seed_from_u64(42);
        let ra = t_sync.step_generator(5, &mut rng_a);
        let rb = t_def.step_generator(5, &mut rng_b);
        assert_eq!(ra.gen_loss, rb.gen_loss);
        for (ls, ld) in t_sync
            .gan()
            .generator()
            .layers()
            .iter()
            .zip(t_def.gan().generator().layers())
        {
            assert_eq!(ls.weights().max_abs_diff(ld.weights()), 0.0);
        }
    }

    /// The paper's memory claim: synchronized buffering grows with 2·m,
    /// deferred buffering does not grow with the batch at all.
    #[test]
    fn deferred_memory_is_batch_independent() {
        for m in [2usize, 4, 8] {
            let mut t_sync = trainer(SyncMode::Synchronized, 11);
            let mut t_def = trainer(SyncMode::Deferred, 11);
            let mut rng = SmallRng::seed_from_u64(m as u64);
            let reals = t_sync.gan().sample_real_batch(m, &mut rng);
            let mut ra_rng = SmallRng::seed_from_u64(1);
            let mut rb_rng = SmallRng::seed_from_u64(1);
            let ra = t_sync.step_discriminator(&reals, &mut ra_rng);
            let rb = t_def.step_discriminator(&reals, &mut rb_rng);
            assert_eq!(ra.peak_live_traces, 2 * m);
            assert_eq!(rb.peak_live_traces, 1);
            assert_eq!(ra.peak_buffered_elems, 2 * m * rb.peak_buffered_elems);
        }
    }

    #[test]
    fn critic_learns_to_separate_real_from_fake() {
        let mut rng = SmallRng::seed_from_u64(2024);
        let pair = GanPair::tiny(&mut rng);
        let mut trainer = GanTrainer::new(
            pair,
            TrainerConfig {
                mode: SyncMode::Deferred,
                loss: LossKind::Wasserstein,
                optimizer: OptimizerKind::wgan_default(),
                learning_rate: 2e-3,
                weight_clip: Some(0.05),
                n_critic: 1,
            },
        );
        let mut first = None;
        let mut last = 0.0;
        for i in 0..30 {
            let reals = trainer.gan().sample_real_batch(8, &mut rng);
            let rep = trainer.step_discriminator(&reals, &mut rng);
            if i == 0 {
                first = Some(rep.wasserstein_estimate);
            }
            last = rep.wasserstein_estimate;
        }
        // The Wasserstein estimate (critic's separation margin) must grow.
        assert!(
            last > first.unwrap() + 1e-4,
            "critic did not learn: first={:?} last={last}",
            first
        );
    }

    #[test]
    fn train_iteration_runs_both_phases() {
        let mut rng = SmallRng::seed_from_u64(3);
        let pair = GanPair::tiny(&mut rng);
        let mut trainer = GanTrainer::new(
            pair,
            TrainerConfig {
                n_critic: 2,
                ..TrainerConfig::default()
            },
        );
        let (d, g) = trainer.train_iteration(3, &mut rng);
        assert!(d.dis_loss.is_finite());
        assert!(g.gen_loss.is_finite());
        assert!(g.peak_buffered_elems > 0);
    }

    #[test]
    fn generate_matches_a_manual_forward() {
        let mut rng = SmallRng::seed_from_u64(6);
        let pair = GanPair::tiny(&mut rng);
        let z = zfgan_tensor::Fmaps::random(8, 1, 1, 1.0, &mut rng);
        let a = pair.generate(&z);
        let b = pair.generator().forward(&z).unwrap().output().clone();
        assert_eq!(a, b);
        assert_eq!(pair.generate_batch(3, &mut rng).len(), 3);
    }

    #[test]
    fn real_samples_are_in_tanh_range() {
        let mut rng = SmallRng::seed_from_u64(4);
        let pair = GanPair::tiny(&mut rng);
        for img in pair.sample_real_batch(4, &mut rng) {
            assert!(img.as_slice().iter().all(|v| (-1.0..=1.0).contains(v)));
        }
    }
}
