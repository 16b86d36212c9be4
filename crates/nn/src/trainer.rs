//! GAN training loops: the original batch-synchronized algorithm and the
//! paper's deferred-synchronization transformation (Section IV-A).
//!
//! Both trainers compute mathematically identical weight updates — the WGAN
//! loss is a linear average, so each sample's output-layer error is the
//! constant `∓1/m` of Eq. 6 — and both run one schedule: every sample's
//! forward pass and score, its error walk, then its W walk. They differ
//! only in where the loss-synchronization barrier sits:
//!
//! * [`SyncMode::Synchronized`] puts it after **all** `2·m` forward passes
//!   (paper Fig. 2 steps ③/⑦): every sample's intermediate trace stays
//!   alive until the barrier clears, and only then do error walks start.
//! * [`SyncMode::Deferred`] has none: each sample backpropagates right
//!   after its own forward pass and accumulates `∇wᵢ` into `∇W`, so one
//!   trace per lane is alive, independent of the batch.
//!
//! # Lanes
//!
//! Every sample's forward pass and error chain is independent of every
//! other sample's until `∇W += ∇wᵢ`. The paper spends that independence in
//! time, on one pipeline whose W-ARCH consumes the errors in order (§IV,
//! Figs. 9–10); the trainer spends it on the pool. Its three sample loops —
//! the fake batch's Generator forwards (step ①), the critic's real+fake
//! loop and the Generator's loop — run on `min(pool width, samples)` lanes,
//! sample `i` on lane `i mod width`: each lane owns a [`ConvWorkspace`] and
//! runs its samples' forward passes, scores and error chains (the error
//! walk of [`ConvNet`]) as tasks of pool batches, one group of lanes at a
//! time. When a group's error chains have joined, the calling thread lands
//! the group's `W-CONV`s and bias sums into the accumulators in sample
//! order, each through the same `AddTo` epilogue and with that sample's
//! lane workspace. Every accumulator sees the same chains in the same order
//! in both modes and at every width, so the bits depend on neither; at
//! width 1 the one lane runs on the calling thread.
//!
//! The [`DisStepReport::peak_buffered_elems`] /
//! [`GenStepReport::peak_buffered_elems`] fields measure the resulting
//! memory high-water marks, reproducing the paper's `2 × batch → 1`
//! reduction per lane.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use rand::Rng;
use serde::{Deserialize, Serialize};
use zfgan_tensor::{ConvBackend, ConvWorkspace, Fmaps, ShapeError, TensorResult};

use crate::layer::LayerGrads;
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
    /// High-water mark of simultaneously buffered intermediate elements,
    /// over every lane's trace alive at once.
    pub peak_buffered_elems: usize,
    /// Number of traces alive at the memory peak: `2·m` synchronized; one
    /// trace per lane deferred, independent of the batch.
    pub peak_live_traces: usize,
}

/// Result of one Generator update.
#[derive(Debug, Clone, PartialEq)]
pub struct GenStepReport {
    /// Generator loss (paper Eq. 2).
    pub gen_loss: f64,
    /// High-water mark of simultaneously buffered intermediate elements,
    /// over every lane's traces alive at once.
    pub peak_buffered_elems: usize,
    /// Number of traces alive at the memory peak: `2·batch` synchronized;
    /// deferred, a Generator and a critic trace per lane, independent of
    /// the batch.
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
/// The trainer owns one lane per pool thread (see the module docs), each
/// with a [`ConvWorkspace`] through which its conv transients are drawn,
/// so a steady-state step performs no heap allocation in the conv hot path
/// (see `tests/zero_alloc.rs`). The lanes are scratch, not state: they are
/// deliberately **not** part of [`TrainerState`], and their contents never
/// affect results (all workspace paths are bit-identical to the allocating
/// ones).
#[derive(Debug)]
pub struct GanTrainer {
    gan: GanPair,
    config: TrainerConfig,
    opt_g: Optimizer,
    opt_d: Optimizer,
    lanes: Vec<Lane>,
}

/// One lane of the trainer's sample loops: a workspace, and what the
/// samples it ran leave for the calling thread to land.
#[derive(Debug, Default)]
struct Lane {
    /// Scratch of every pass the lane runs and of the `W-CONV`s landed from
    /// it: a buffer goes back to the workspace that handed it out.
    ws: ConvWorkspace<f32>,
    /// The lane's samples whose W walk is still to land, in sample order:
    /// one deferred, all of the step's until the barrier synchronized.
    held: VecDeque<Sample>,
    /// Every layer's `δ_pre` of the sample at the front of `held`, last
    /// layer first.
    deltas: Vec<Fmaps<f32>>,
}

impl Lane {
    /// Gives back to the lane's workspace whatever a step that panicked
    /// left behind, so the lane starts every run empty.
    fn clear(&mut self) {
        for s in self.held.drain(..) {
            s.trace.recycle(&mut self.ws);
            if let Some(t) = s.critic {
                t.recycle(&mut self.ws);
            }
        }
        for d in self.deltas.drain(..) {
            self.ws.give_fmaps(d);
        }
    }
}

/// What one sample's forward job leaves for its error job and landing.
#[derive(Debug)]
struct Sample {
    /// The trace whose W walk lands (or, in step ①, the Generator trace
    /// whose output is the fake).
    trace: Trace,
    /// The Generator step's critic trace, until the error job has walked
    /// the image error back through it.
    critic: Option<Trace>,
    /// The sample's critic output (0 in step ①, which runs no critic).
    score: f64,
    /// Elements the sample's traces buffer.
    buffered: usize,
}

impl Sample {
    fn new(trace: Trace, critic: Option<Trace>, score: f64) -> Self {
        let buffered = trace.buffered_elems() + critic.as_ref().map_or(0, Trace::buffered_elems);
        Self {
            trace,
            critic,
            score,
            buffered,
        }
    }
}

/// One lane per pool thread, each with a fresh workspace.
fn new_lanes() -> Vec<Lane> {
    (0..zfgan_pool::pool_threads())
        .map(|_| Lane::default())
        .collect()
}

/// Runs one sample loop on the lanes: `n` samples, sample `i` on lane
/// `i mod lanes.len()`, one pool batch per group of `lanes.len()` samples.
/// `forward(i, ws)` runs sample `i`'s forward pass and scores it,
/// `error(i, sample, deltas, ws)` runs its error walk, and once a group's
/// error jobs have joined, `land(i, sample, lane)` runs on the calling
/// thread, in sample order. [`SyncMode::Synchronized`] puts the barrier
/// between the two: every group's forward jobs run, and every sample stays
/// held, before any error job. [`SyncMode::Deferred`] has none: one task
/// runs a sample's forward job and then its error job. Every job re-enters
/// the calling thread's telemetry scope, so the counters its passes record
/// land where a serial loop's would. Returns the most samples and the most
/// [`Sample::buffered`] elements the lanes held at once.
///
/// # Panics
///
/// Panics once a group has drained if one of its jobs panicked. The next
/// run first gives back whatever the lanes still hold.
fn run_lanes(
    lanes: &mut [Lane],
    mode: SyncMode,
    n: usize,
    forward: impl Fn(usize, &mut ConvWorkspace<f32>) -> Sample + Sync,
    error: impl Fn(usize, &mut Sample, &mut Vec<Fmaps<f32>>, &mut ConvWorkspace<f32>) + Sync,
    mut land: impl FnMut(usize, Sample, &mut Lane),
) -> (usize, usize) {
    let scope = zfgan_telemetry::current_scope();
    let (width, barrier) = (lanes.len(), mode == SyncMode::Synchronized);
    let forward_job = |i: usize, lane: &mut Lane| lane.held.push_back(forward(i, &mut lane.ws));
    let error_job = |i: usize, lane: &mut Lane| {
        let sample = lane.held.front_mut().expect("the lane holds the sample");
        error(i, sample, &mut lane.deltas, &mut lane.ws);
    };
    let both = |i: usize, lane: &mut Lane| {
        forward_job(i, lane);
        error_job(i, lane);
    };
    let mut peak = (0, 0);
    let mut run = |lanes: &mut [Lane], start: usize, job: &(dyn Fn(usize, &mut Lane) + Sync)| {
        let group = &mut lanes[..width.min(n - start)];
        zfgan_pool::parallel_chunks_for(group, 1, |j, lane| {
            let _scope = scope.clone().map(zfgan_telemetry::scope);
            job(start + j, &mut lane[0]);
        })
        .unwrap_or_else(|e| panic!("a sample lane panicked: {e}"));
        let held = lanes.iter().flat_map(|l| &l.held);
        let buffered = held.clone().map(|s| s.buffered).sum::<usize>();
        peak = (peak.0.max(held.count()), peak.1.max(buffered));
    };
    lanes.iter_mut().for_each(Lane::clear);
    if barrier {
        for start in (0..n).step_by(width) {
            run(lanes, start, &forward_job);
        }
    }
    for start in (0..n).step_by(width) {
        run(lanes, start, if barrier { &error_job } else { &both });
        for (j, lane) in lanes[..width.min(n - start)].iter_mut().enumerate() {
            let sample = lane.held.pop_front().expect("the lane holds the sample");
            land(start + j, sample, lane);
        }
    }
    peak
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
            lanes: new_lanes(),
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
            lanes: new_lanes(),
        })
    }

    /// The first lane's conv scratch workspace: sample 0's in every sample
    /// loop of either mode (every sample's at pool width 1), and the one
    /// the gradient accumulators come from.
    pub fn workspace(&self) -> &ConvWorkspace<f32> {
        &self.lanes[0].ws
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
        let (m, mode, loss) = (reals.len(), self.config.mode, self.config.loss);
        // Step ①: Generator produces the fake batch (forward only; its
        // trace is not needed for a Discriminator update, and there is no
        // loss to wait for). Same RNG consumption and arithmetic as
        // `GanPair::generate_batch`, with the forward transients drawn from
        // the lanes' workspaces.
        let zs = self.gan.sample_z_batch(m, rng);
        let (gen, critic) = (&self.gan.generator, &self.gan.discriminator);
        let mut fakes = Vec::with_capacity(m);
        run_lanes(
            &mut self.lanes,
            SyncMode::Deferred,
            m,
            |i, ws| Sample::new(gen.forward_ws(&zs[i], ws).expect("z shape"), None, 0.0),
            |_, _, _, _| {},
            |_, s, lane| fakes.push(s.trace.into_output(&mut lane.ws)),
        );
        drop(zs);

        let mut grads = critic.zero_grads_ws(&mut self.lanes[0].ws);
        let mut real_scores = Vec::with_capacity(m);
        let mut fake_scores = Vec::with_capacity(m);
        // Eq. 6: each sample's output error is a constant ∓1/m (or a
        // function of its own score), so its error walk needs no other
        // sample; its W walk lands in sample order: all reals, then all
        // fakes.
        let (peak_traces, peak_elems) = run_lanes(
            &mut self.lanes,
            mode,
            2 * m,
            |i, ws| {
                let x = reals.get(i).unwrap_or_else(|| &fakes[i - m]);
                let t = critic.forward_ws(x, ws).expect("image shape");
                let score = wgan::score(t.output());
                Sample::new(t, None, score)
            },
            |i, s, deltas, ws| {
                let delta = dis_delta(loss, i < m, s.score, m);
                critic
                    .backward_errors(
                        &s.trace,
                        &wgan::scalar_error(delta),
                        false,
                        Some(deltas),
                        ws,
                    )
                    .expect("trace produced by this network");
            },
            |i, s, lane| {
                land_weights(&mut grads, critic, s.trace, lane);
                let scores = if i < m {
                    &mut real_scores
                } else {
                    &mut fake_scores
                };
                scores.push(s.score);
            },
        );
        // Each fake goes back to the lane whose workspace made it.
        let width = self.lanes.len().min(m);
        for (k, f) in fakes.into_iter().enumerate() {
            self.lanes[k % width].ws.give_fmaps(f);
        }

        let clip = self.config.weight_clip;
        self.opt_d
            .step_clipped(&mut self.gan.discriminator, &grads, clip);
        for g in grads {
            g.recycle(&mut self.lanes[0].ws);
        }
        let dis_loss = match loss {
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
        let loss = self.config.loss;
        let zs = self.gan.sample_z_batch(batch, rng);
        let (gen, critic) = (&self.gan.generator, &self.gan.discriminator);
        let mut grads = gen.zero_grads_ws(&mut self.lanes[0].ws);
        let mut fake_scores = Vec::with_capacity(batch);
        let (peak_samples, peak_elems) = run_lanes(
            &mut self.lanes,
            self.config.mode,
            batch,
            |i, ws| {
                let gt = gen.forward_ws(&zs[i], ws).expect("z shape");
                let dt = critic.forward_ws(gt.output(), ws).expect("image shape");
                let score = wgan::score(dt.output());
                Sample::new(gt, Some(dt), score)
            },
            |_, s, deltas, ws| {
                // Error flows back through the (frozen) critic into the
                // Generator — Fig. 2 step ⑧: only the error on the image is
                // wanted, the critic's own gradients are never built.
                let dt = s.critic.take().expect("the forward job kept it");
                let delta = wgan::scalar_error(gen_delta(loss, s.score, batch));
                let delta_image = critic
                    .backward_errors(&dt, &delta, true, None, ws)
                    .expect("trace produced by this network")
                    .expect("image error was wanted");
                dt.recycle(ws);
                gen.backward_errors(&s.trace, &delta_image, false, Some(deltas), ws)
                    .expect("trace produced by this network");
                ws.give_fmaps(delta_image);
            },
            |_, s, lane| {
                land_weights(&mut grads, gen, s.trace, lane);
                fake_scores.push(s.score);
            },
        );

        self.opt_g.step(&mut self.gan.generator, &grads);
        for g in grads {
            g.recycle(&mut self.lanes[0].ws);
        }
        let gen_loss = match loss {
            LossKind::Wasserstein => wgan::gen_loss(&fake_scores),
            LossKind::MinimaxNonSaturating => wgan::vanilla_gen_loss(&fake_scores),
        };
        GenStepReport {
            gen_loss,
            peak_buffered_elems: peak_elems,
            // A sample holds its Generator and critic traces at once.
            peak_live_traces: 2 * peak_samples,
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
        for _ in 0..self.config.n_critic {
            let reals = self.gan.sample_real_batch(batch, rng);
            last = Some(self.step_discriminator(&reals, rng));
        }
        let gen = self.step_generator(batch, rng);
        if span.is_active() {
            span.record("batch", batch as u64);
            span.record("critic_updates", self.config.n_critic as u64);
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

/// Per-sample output error of a real (or fake) sample during a
/// Discriminator update under `loss`, given the sample's own critic output
/// (score for WGAN, logit for minimax).
fn dis_delta(loss: LossKind, real: bool, score: f64, m: usize) -> f32 {
    match (loss, real) {
        (LossKind::Wasserstein, true) => wgan::dis_output_error_real(m),
        (LossKind::Wasserstein, false) => wgan::dis_output_error_fake(m),
        (LossKind::MinimaxNonSaturating, true) => wgan::vanilla_output_error_real(score, m),
        (LossKind::MinimaxNonSaturating, false) => wgan::vanilla_output_error_fake(score, m),
    }
}

/// Per-sample output error of a fake sample during a Generator update.
fn gen_delta(loss: LossKind, score: f64, m: usize) -> f32 {
    match loss {
        LossKind::Wasserstein => wgan::gen_output_error(m),
        LossKind::MinimaxNonSaturating => wgan::vanilla_gen_output_error(score, m),
    }
}

/// Lands the W walk of a sample — its trace and the lane's `δ_pre` of it —
/// into `grads`, with the lane's workspace, and gives the trace back to it.
fn land_weights(grads: &mut [LayerGrads], net: &ConvNet, trace: Trace, lane: &mut Lane) {
    net.backward_weights(&trace, &mut lane.deltas, Some(grads), &mut lane.ws)
        .expect("trace produced by this network");
    trace.recycle(&mut lane.ws);
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
    /// deferred buffering holds one trace per lane, independent of the
    /// batch.
    #[test]
    fn deferred_memory_is_batch_independent() {
        for m in [2usize, 4, 8] {
            let lanes = zfgan_pool::pool_threads().min(2 * m);
            let mut t_sync = trainer(SyncMode::Synchronized, 11);
            let mut t_def = trainer(SyncMode::Deferred, 11);
            let mut rng = SmallRng::seed_from_u64(m as u64);
            let reals = t_sync.gan().sample_real_batch(m, &mut rng);
            let mut ra_rng = SmallRng::seed_from_u64(1);
            let mut rb_rng = SmallRng::seed_from_u64(1);
            let ra = t_sync.step_discriminator(&reals, &mut ra_rng);
            let rb = t_def.step_discriminator(&reals, &mut rb_rng);
            assert_eq!(ra.peak_live_traces, 2 * m);
            assert_eq!(rb.peak_live_traces, lanes);
            assert_eq!(
                ra.peak_buffered_elems * lanes,
                2 * m * rb.peak_buffered_elems
            );
        }
    }

    /// Whatever the lane count and mode, every sample's forward and error
    /// jobs run once, on lane `i mod lanes`, and the landings follow in
    /// sample order after their group — a short last group included. With
    /// the barrier every forward job runs before any error job and the peak
    /// is all `n` samples; without it, the fullest group.
    #[test]
    fn run_lanes_lands_every_sample_in_order_after_its_group() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut rng = SmallRng::seed_from_u64(8);
        let pair = GanPair::tiny(&mut rng);
        let x = pair.sample_real_batch(1, &mut rng).remove(0);
        let trace = pair.discriminator().forward(&x).expect("image shape");
        for mode in [SyncMode::Synchronized, SyncMode::Deferred] {
            for (width, n) in [(1, 3), (3, 7), (4, 4), (8, 3)] {
                let mut lanes: Vec<Lane> = (0..width).map(|_| Lane::default()).collect();
                let lane_of: Vec<usize> =
                    lanes.iter().map(|l| &l.ws as *const _ as usize).collect();
                let on_lane = |i: usize, ws: &ConvWorkspace<f32>| {
                    assert_eq!(
                        ws as *const _ as usize,
                        lane_of[i % width],
                        "{mode:?}: lane of {i}"
                    );
                };
                let (forwards, errors) = (AtomicUsize::new(0), AtomicUsize::new(0));
                let mut landed = Vec::new();
                let (most_samples, most_elems) = run_lanes(
                    &mut lanes,
                    mode,
                    n,
                    |i, ws| {
                        on_lane(i, ws);
                        forwards.fetch_add(1, Ordering::Relaxed);
                        let (trace, critic, score) = (trace.clone(), None, i as f64);
                        Sample {
                            trace,
                            critic,
                            score,
                            buffered: 10 + i,
                        }
                    },
                    |i, s, _, ws| {
                        on_lane(i, ws);
                        assert_eq!(s.score, i as f64, "{mode:?}: sample of error job {i}");
                        if mode == SyncMode::Synchronized {
                            let ran = forwards.load(Ordering::Relaxed);
                            assert_eq!(ran, n, "error job {i} ran before the barrier");
                        }
                        errors.fetch_add(1, Ordering::Relaxed);
                    },
                    |i, s, lane| {
                        on_lane(i, &lane.ws);
                        assert_eq!(s.score, i as f64, "{mode:?}: sample landed as {i}");
                        let ran = errors.load(Ordering::Relaxed);
                        assert_eq!(ran, n.min((i / width + 1) * width), "{mode:?}: {i}");
                        landed.push(i);
                    },
                );
                assert_eq!(landed, (0..n).collect::<Vec<_>>(), "{mode:?}");
                let elems = |g: usize| (g..n.min(g + width)).map(|i| 10 + i).sum::<usize>();
                let want = if mode == SyncMode::Synchronized {
                    (n, (0..n).map(|i| 10 + i).sum())
                } else {
                    let most = (0..n).step_by(width).map(elems).max();
                    (width.min(n), most.expect("n > 0"))
                };
                assert_eq!(
                    (most_samples, most_elems),
                    want,
                    "{mode:?}, {width} lanes, {n}"
                );
                assert!(lanes.iter().all(|l| l.held.is_empty()), "{mode:?}");
            }
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
