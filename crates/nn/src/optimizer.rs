//! Parameter-update rules: plain SGD, RMSProp (the WGAN default) and Adam
//! (the DCGAN default).
//!
//! # Parameter traffic
//!
//! [`Optimizer::step`] updates in place. Per element it reads the gradient
//! and the moment estimates, writes the moments back and subtracts the
//! update from the weight in one loop: gradient, moments and weights are
//! each streamed once, and no update tensor exists in between (the old
//! step cloned every gradient, rewrote the clone, and subtracted it in a
//! second pass). The arithmetic per element is unchanged, operation for
//! operation, so training trajectories are bit-identical.
//!
//! A weight tensor of [`zfgan_pool::PASS_FAN_OUT_MIN_ELEMS`] elements or
//! more is updated as one pool batch: `(w, v, m)` and the gradient are cut
//! into the same chunks, two per pool thread, and each chunk runs the
//! serial loop. With DCGAN's 9.4 M parameters in a 300 MiB L3, the pass is
//! not bound by DRAM: on a two-vCPU AVX-512 host the critic's clipped
//! RMSProp step went 2.8–3.6 → 1.7–1.8 ms on two threads, the
//! Generator's 3.3–3.4 → 1.7–1.9 ms. Bias vectors, smaller tensors and a
//! serial pool keep the serial loop on the calling thread. Every element
//! goes through the same operations either way, so the bits do not depend
//! on the pool width.

use serde::{Deserialize, Serialize};
use zfgan_tensor::Kernels;

use crate::layer::LayerGrads;
use crate::network::ConvNet;

/// Which update rule an [`Optimizer`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// `θ ← θ − lr · g`.
    Sgd,
    /// RMSProp: `v ← ρ·v + (1−ρ)·g²`, `θ ← θ − lr · g / (√v + ε)` — the
    /// optimizer the WGAN paper prescribes.
    RmsProp {
        /// Decay rate `ρ` of the squared-gradient moving average.
        rho: f32,
        /// Numerical-stability constant `ε`.
        epsilon: f32,
    },
    /// Adam with bias correction — the optimizer the DCGAN paper uses.
    Adam {
        /// First-moment decay `β₁`.
        beta1: f32,
        /// Second-moment decay `β₂`.
        beta2: f32,
        /// Numerical-stability constant `ε`.
        epsilon: f32,
    },
}

impl OptimizerKind {
    /// The WGAN paper's recommended RMSProp configuration.
    pub fn wgan_default() -> Self {
        OptimizerKind::RmsProp {
            rho: 0.9,
            epsilon: 1e-8,
        }
    }

    /// The DCGAN paper's Adam configuration (`β₁ = 0.5`, `β₂ = 0.999`).
    pub fn dcgan_adam() -> Self {
        OptimizerKind::Adam {
            beta1: 0.5,
            beta2: 0.999,
            epsilon: 1e-8,
        }
    }
}

/// Per-network optimizer state.
///
/// Holds one squared-gradient accumulator per parameter tensor (RMSProp) and
/// applies updates to a [`ConvNet`] in place.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use zfgan_nn::{GanPair, Optimizer, OptimizerKind};
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// let pair = GanPair::tiny(&mut rng);
/// let mut opt = Optimizer::new(OptimizerKind::Sgd, 5e-4, pair.discriminator());
/// # let _ = opt;
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Optimizer {
    kind: OptimizerKind,
    learning_rate: f32,
    weight_v: Vec<Kernels<f32>>,
    bias_v: Vec<Vec<f32>>,
    weight_m: Vec<Kernels<f32>>,
    bias_m: Vec<Vec<f32>>,
    steps: u32,
}

impl Optimizer {
    /// Creates optimizer state sized for `net`.
    pub fn new(kind: OptimizerKind, learning_rate: f32, net: &ConvNet) -> Self {
        let weight_v: Vec<Kernels<f32>> = net
            .layers()
            .iter()
            .map(|l| {
                let w = l.weights();
                Kernels::zeros(w.n_of(), w.n_if(), w.kh(), w.kw())
            })
            .collect();
        let bias_v: Vec<Vec<f32>> = net
            .layers()
            .iter()
            .map(|l| vec![0.0; l.out_shape().0])
            .collect();
        let weight_m = weight_v.clone();
        let bias_m = bias_v.clone();
        Self {
            kind,
            learning_rate,
            weight_v,
            bias_v,
            weight_m,
            bias_m,
            steps: 0,
        }
    }

    /// The configured update rule.
    pub fn kind(&self) -> OptimizerKind {
        self.kind
    }

    /// The learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.learning_rate
    }

    /// Update steps applied so far (drives Adam's bias correction — part
    /// of the state a bit-identical resume must restore).
    pub fn steps(&self) -> u32 {
        self.steps
    }

    /// Checks that this optimizer's moment accumulators are shaped for
    /// `net` — the guard a deserialised optimizer must pass before a
    /// resumed training run may use it.
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the first mismatch (layer count,
    /// weight-moment shape, or bias-moment length).
    pub fn validate_for(&self, net: &ConvNet) -> Result<(), String> {
        let layers = net.layers();
        for (name, ks) in [("weight_v", &self.weight_v), ("weight_m", &self.weight_m)] {
            if ks.len() != layers.len() {
                return Err(format!(
                    "{name} has {} layers, network has {}",
                    ks.len(),
                    layers.len()
                ));
            }
            for (l, (k, layer)) in ks.iter().zip(layers).enumerate() {
                let w = layer.weights();
                let want = (w.n_of(), w.n_if(), w.kh(), w.kw());
                let got = (k.n_of(), k.n_if(), k.kh(), k.kw());
                if got != want {
                    return Err(format!(
                        "{name}[{l}] is {got:?}, layer weights are {want:?}"
                    ));
                }
            }
        }
        for (name, bs) in [("bias_v", &self.bias_v), ("bias_m", &self.bias_m)] {
            if bs.len() != layers.len() {
                return Err(format!(
                    "{name} has {} layers, network has {}",
                    bs.len(),
                    layers.len()
                ));
            }
            for (l, (b, layer)) in bs.iter().zip(layers).enumerate() {
                if b.len() != layer.out_shape().0 {
                    return Err(format!(
                        "{name}[{l}] has {} entries, layer has {} output channels",
                        b.len(),
                        layer.out_shape().0
                    ));
                }
            }
        }
        if !self.learning_rate.is_finite() || self.learning_rate <= 0.0 {
            return Err(format!(
                "learning_rate must be positive and finite, got {}",
                self.learning_rate
            ));
        }
        Ok(())
    }

    /// Applies one step of averaged gradients to `net`, in place: each
    /// parameter's update is computed from `(g, v[, m])` and subtracted in
    /// the same loop, so a step streams every parameter-sized tensor once
    /// and allocates nothing (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not have one entry per layer with matching
    /// shapes (which indicates a bug in the caller, not bad data).
    pub fn step(&mut self, net: &mut ConvNet, grads: &[LayerGrads]) {
        self.step_clipped(net, grads, None);
    }

    /// [`Optimizer::step`], then every weight (not the biases) clamped into
    /// `[-c, c]` when `clip` holds a bound `c` — the WGAN critic update,
    /// whose weight clipping enforces the Lipschitz constraint. The clamp
    /// is applied to each weight as it is written, so the weights are not
    /// streamed a second time; bit-identical to stepping and then calling
    /// [`ConvLayer::clamp_weights`](crate::ConvLayer::clamp_weights) on
    /// every layer.
    ///
    /// # Panics
    ///
    /// As [`Optimizer::step`]; also if the bound is not positive.
    pub fn step_clipped(&mut self, net: &mut ConvNet, grads: &[LayerGrads], clip: Option<f32>) {
        assert_eq!(
            grads.len(),
            net.layers().len(),
            "one gradient set per layer"
        );
        assert!(clip.is_none_or(|c| c > 0.0), "clip bound must be positive");
        self.steps += 1;
        let rule = (self.kind, self.learning_rate, self.steps);
        for (l, (layer, g)) in net.layers_mut().iter_mut().zip(grads).enumerate() {
            let (mut weights, bias) = layer.params_mut();
            assert_eq!(
                g.weights.shape(),
                weights.shape(),
                "weight update shape mismatch"
            );
            let (w, gw) = (weights.as_mut_slice(), g.weights.as_slice());
            let (v, m) = (
                self.weight_v[l].as_mut_slice(),
                self.weight_m[l].as_mut_slice(),
            );
            let pieces = zfgan_pool::pass_pieces(w.len());
            match clip {
                Some(c) => update_in_pieces(pieces, rule, w, gw, v, m, |w| w.clamp(-c, c)),
                None => update_in_pieces(pieces, rule, w, gw, v, m, |w| w),
            }
            assert_eq!(g.bias.len(), bias.len(), "bias update length mismatch");
            let (v, m) = (&mut self.bias_v[l], &mut self.bias_m[l]);
            update_in_place(rule, bias, &g.bias, v, m, |b| b);
        }
    }
}

/// [`update_in_place`] cut into `pieces` chunks of `(params, v, m)` (and
/// the matching slices of `grads`) that run as one pool batch; one piece is
/// the serial loop on the calling thread. Every element still goes through
/// the same operations in the same order, so the bits do not depend on
/// `pieces` (pinned by `fanned_update_is_the_serial_loop_bit_for_bit`).
fn update_in_pieces(
    pieces: usize,
    rule: (OptimizerKind, f32, u32),
    params: &mut [f32],
    grads: &[f32],
    v: &mut [f32],
    m: &mut [f32],
    finish: impl Fn(f32) -> f32 + Sync,
) {
    if pieces <= 1 {
        return update_in_place(rule, params, grads, v, m, finish);
    }
    // Whole cache lines per chunk, so no two tasks write one line.
    let chunk = params.len().div_ceil(pieces).next_multiple_of(16);
    let bufs = [(params, chunk), (v, chunk), (m, chunk)];
    zfgan_pool::parallel_zip_chunks_for(bufs, |i, mut chunks| {
        let mut chunks = chunks.iter_mut();
        let mut next = || chunks.next().expect("one chunk of each buffer");
        let (p, v, m) = (next(), next(), next());
        let g = &grads[i * chunk..][..p.len()];
        update_in_place(rule, p, g, v, m, &finish);
    })
    .expect("optimizer task panicked");
}

/// `θ ← finish(θ − update(g, v, m))` element by element under `kind` at
/// step `steps`, moments updated on the way; `finish` is the identity or
/// the WGAN clamp. Per element these are the textbook operations in the
/// textbook order — the update is rounded to `f32` before it is
/// subtracted, as if it had been stored — so the result is bit-identical
/// to building the whole update tensor first (pinned by
/// `in_place_step_matches_the_clone_then_apply_formula`).
fn update_in_place(
    (kind, lr, steps): (OptimizerKind, f32, u32),
    params: &mut [f32],
    grads: &[f32],
    v: &mut [f32],
    m: &mut [f32],
    finish: impl Fn(f32) -> f32,
) {
    match kind {
        OptimizerKind::Sgd => {
            for (p, &g) in params.iter_mut().zip(grads) {
                *p = finish(*p - g * lr);
            }
        }
        OptimizerKind::RmsProp { rho, epsilon } => {
            for ((p, &g), vv) in params.iter_mut().zip(grads).zip(v) {
                *vv = rho * *vv + (1.0 - rho) * g * g;
                *p = finish(*p - lr * g / (vv.sqrt() + epsilon));
            }
        }
        OptimizerKind::Adam {
            beta1,
            beta2,
            epsilon,
        } => {
            let bc1 = 1.0 - beta1.powi(steps as i32);
            let bc2 = 1.0 - beta2.powi(steps as i32);
            for (((p, &g), vv), mm) in params.iter_mut().zip(grads).zip(v).zip(m) {
                *mm = beta1 * *mm + (1.0 - beta1) * g;
                *vv = beta2 * *vv + (1.0 - beta2) * g * g;
                let m_hat = *mm / bc1;
                let v_hat = *vv / bc2;
                *p = finish(*p - lr * m_hat / (v_hat.sqrt() + epsilon));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::GanPair;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use zfgan_tensor::ConvWorkspace;

    fn net(rng: &mut SmallRng) -> ConvNet {
        GanPair::tiny(rng).discriminator().clone()
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut d = net(&mut rng);
        let before = d.layers()[0].weights().clone();
        let mut grads = d.zero_grads_ws(&mut ConvWorkspace::new());
        *grads[0].weights.at_mut(0, 0, 0, 0) = 2.0;
        let mut opt = Optimizer::new(OptimizerKind::Sgd, 0.1, &d);
        opt.step(&mut d, &grads);
        let after = d.layers()[0].weights();
        let moved = *after.at(0, 0, 0, 0) - *before.at(0, 0, 0, 0);
        assert!((moved + 0.2).abs() < 1e-6, "moved {moved}");
        // Untouched weight stays put.
        assert_eq!(*after.at(0, 0, 1, 1), *before.at(0, 0, 1, 1));
    }

    #[test]
    fn rmsprop_normalises_step_size() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut d = net(&mut rng);
        let mut grads = d.zero_grads_ws(&mut ConvWorkspace::new());
        *grads[0].weights.at_mut(0, 0, 0, 0) = 100.0;
        *grads[0].weights.at_mut(0, 0, 0, 1) = 0.01;
        let before = d.layers()[0].weights().clone();
        let mut opt = Optimizer::new(OptimizerKind::wgan_default(), 0.01, &d);
        opt.step(&mut d, &grads);
        let after = d.layers()[0].weights();
        let step_big = (*after.at(0, 0, 0, 0) - *before.at(0, 0, 0, 0)).abs();
        let step_small = (*after.at(0, 0, 0, 1) - *before.at(0, 0, 0, 1)).abs();
        // RMSProp's first step is ≈ lr/√(1−ρ) for any gradient magnitude.
        assert!(
            (step_big - step_small).abs() < 1e-4,
            "big={step_big} small={step_small}"
        );
    }

    /// The update rule as the textbook states it — and as `step` used to
    /// run it: build the whole update tensor from a copy of the gradient,
    /// moments updated on the way, then subtract it.
    struct Textbook {
        kind: OptimizerKind,
        lr: f32,
        steps: u32,
        v: Vec<Vec<f32>>,
        m: Vec<Vec<f32>>,
    }

    impl Textbook {
        /// One step on parameter tensor `t`.
        fn step(&mut self, t: usize, params: &mut [f32], grads: &[f32]) {
            let lr = self.lr;
            let mut delta = grads.to_vec();
            match self.kind {
                OptimizerKind::Sgd => delta.iter_mut().for_each(|d| *d *= lr),
                OptimizerKind::RmsProp { rho, epsilon } => {
                    for (d, vv) in delta.iter_mut().zip(&mut self.v[t]) {
                        *vv = rho * *vv + (1.0 - rho) * *d * *d;
                        *d = lr * *d / (vv.sqrt() + epsilon);
                    }
                }
                OptimizerKind::Adam {
                    beta1,
                    beta2,
                    epsilon,
                } => {
                    let bc1 = 1.0 - beta1.powi(self.steps as i32);
                    let bc2 = 1.0 - beta2.powi(self.steps as i32);
                    for ((d, vv), mm) in delta.iter_mut().zip(&mut self.v[t]).zip(&mut self.m[t]) {
                        *mm = beta1 * *mm + (1.0 - beta1) * *d;
                        *vv = beta2 * *vv + (1.0 - beta2) * *d * *d;
                        let m_hat = *mm / bc1;
                        let v_hat = *vv / bc2;
                        *d = lr * m_hat / (v_hat.sqrt() + epsilon);
                    }
                }
            }
            for (p, d) in params.iter_mut().zip(&delta) {
                *p -= d;
            }
        }
    }

    fn to_bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The in-place step is the textbook clone-then-apply step, bit for
    /// bit, for every rule over several steps: weights, biases and both
    /// moment estimates. Reordering an operation of the fused loop (say
    /// `lr * (g / ..)` for `lr * g / ..`) fails here.
    #[test]
    fn in_place_step_matches_the_clone_then_apply_formula() {
        for (k, kind) in [
            OptimizerKind::Sgd,
            OptimizerKind::wgan_default(),
            OptimizerKind::dcgan_adam(),
        ]
        .into_iter()
        .enumerate()
        {
            let mut rng = SmallRng::seed_from_u64(20 + k as u64);
            let mut d = net(&mut rng);
            d.jitter(0.3, &mut rng);
            let mut opt = Optimizer::new(kind, 0.01, &d);
            // Tensor 2·l is layer l's weights, 2·l + 1 its bias.
            let mut params: Vec<Vec<f32>> = d
                .layers()
                .iter()
                .flat_map(|l| [l.weights().as_slice().to_vec(), l.bias().to_vec()])
                .collect();
            let zeros: Vec<Vec<f32>> = params.iter().map(|p| vec![0.0; p.len()]).collect();
            let mut textbook = Textbook {
                kind,
                lr: 0.01,
                steps: 0,
                v: zeros.clone(),
                m: zeros,
            };
            for step in 0..5 {
                let mut grads = d.zero_grads_ws(&mut ConvWorkspace::new());
                for g in &mut grads {
                    let values = g.weights.as_mut_slice().iter_mut().chain(&mut g.bias);
                    for v in values {
                        *v = rng.gen_range(-1.0f32..1.0);
                    }
                }
                opt.step(&mut d, &grads);
                textbook.steps += 1;
                for (l, g) in grads.iter().enumerate() {
                    textbook.step(2 * l, &mut params[2 * l], g.weights.as_slice());
                    textbook.step(2 * l + 1, &mut params[2 * l + 1], &g.bias);
                }
                for (l, layer) in d.layers().iter().enumerate() {
                    let at = format!("{kind:?}, step {step}, layer {l}");
                    assert_eq!(
                        to_bits(layer.weights().as_slice()),
                        to_bits(&params[2 * l]),
                        "{at}"
                    );
                    assert_eq!(to_bits(layer.bias()), to_bits(&params[2 * l + 1]), "{at}");
                    assert_eq!(
                        to_bits(opt.weight_v[l].as_slice()),
                        to_bits(&textbook.v[2 * l]),
                        "{at}"
                    );
                    assert_eq!(
                        to_bits(opt.weight_m[l].as_slice()),
                        to_bits(&textbook.m[2 * l]),
                        "{at}"
                    );
                    assert_eq!(
                        to_bits(&opt.bias_v[l]),
                        to_bits(&textbook.v[2 * l + 1]),
                        "{at}"
                    );
                    assert_eq!(
                        to_bits(&opt.bias_m[l]),
                        to_bits(&textbook.m[2 * l + 1]),
                        "{at}"
                    );
                }
            }
        }
    }

    /// The clipped step bounds every weight, and is the plain step followed
    /// by a clamp of every layer's weights (biases untouched), bit for bit.
    #[test]
    fn clipped_step_is_step_then_clamp() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut clipped = net(&mut rng);
        clipped.jitter(5.0, &mut rng);
        let mut stepped = clipped.clone();
        let grads: Vec<LayerGrads> = clipped
            .layers()
            .iter()
            .map(|l| {
                let mut weights = l.weights().clone();
                weights.scale(0.5);
                LayerGrads {
                    weights,
                    bias: vec![0.25; l.bias().len()],
                }
            })
            .collect();
        let mut opt = Optimizer::new(OptimizerKind::wgan_default(), 0.01, &clipped);
        opt.clone().step_clipped(&mut clipped, &grads, Some(0.01));
        opt.step(&mut stepped, &grads);
        for layer in stepped.layers_mut() {
            layer.clamp_weights(0.01);
        }
        for (c, s) in clipped.layers().iter().zip(stepped.layers()) {
            assert!(c.weights().as_slice().iter().all(|v| v.abs() <= 0.01));
            assert_eq!(
                to_bits(c.weights().as_slice()),
                to_bits(s.weights().as_slice())
            );
            assert_eq!(to_bits(c.bias()), to_bits(s.bias()));
        }
    }

    /// The fanned update is the serial loop, bit for bit, for every rule
    /// with and without the clamp, over three steps (so the moments carry
    /// history): at lengths either side of the fan-out threshold and at one
    /// that leaves a ragged last chunk, cut into a pool-width number of
    /// pieces and into a fixed four even on a serial pool.
    #[test]
    fn fanned_update_is_the_serial_loop_bit_for_bit() {
        use zfgan_pool::{pass_pieces, PASS_FAN_OUT_MIN_ELEMS as T};
        let mut rng = SmallRng::seed_from_u64(6);
        for kind in [
            OptimizerKind::Sgd,
            OptimizerKind::wgan_default(),
            OptimizerKind::dcgan_adam(),
        ] {
            for clip in [None, Some(0.05f32)] {
                for len in [T - 1, T, T + 1, 3 * T + 37] {
                    let mut random = |n: usize, scale: f32| -> Vec<f32> {
                        (0..n).map(|_| rng.gen_range(-scale..scale)).collect()
                    };
                    let params = random(len, 0.1);
                    let serial = (params.clone(), vec![0.0; len], vec![0.0; len]);
                    let mut runs = [serial.clone(), serial.clone(), serial];
                    for steps in 1..=3 {
                        let grads = random(len, 1.0);
                        let rule = (kind, 0.01, steps);
                        let finish = |w: f32| clip.map_or(w, |c| w.clamp(-c, c));
                        for (run, pieces) in runs.iter_mut().zip([1, pass_pieces(len), 4]) {
                            let (p, v, m) = run;
                            update_in_pieces(pieces, rule, p, &grads, v, m, finish);
                        }
                    }
                    let [serial, wide, four] = &runs;
                    for (name, run) in [("pool width", wide), ("four pieces", four)] {
                        let at = format!("{kind:?}, clip {clip:?}, len {len}, {name}");
                        assert_eq!(to_bits(&run.0), to_bits(&serial.0), "weights, {at}");
                        assert_eq!(to_bits(&run.1), to_bits(&serial.1), "v, {at}");
                        assert_eq!(to_bits(&run.2), to_bits(&serial.2), "m, {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn adam_first_step_is_lr_sized_and_direction_correct() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut d = net(&mut rng);
        let mut grads = d.zero_grads_ws(&mut ConvWorkspace::new());
        *grads[0].weights.at_mut(0, 0, 0, 0) = 3.0;
        *grads[0].weights.at_mut(0, 0, 0, 1) = -0.001;
        let before = d.layers()[0].weights().clone();
        let mut opt = Optimizer::new(OptimizerKind::dcgan_adam(), 0.01, &d);
        opt.step(&mut d, &grads);
        let after = d.layers()[0].weights();
        // Bias correction makes the very first step ≈ lr regardless of the
        // gradient magnitude, in the opposite direction of the gradient.
        let step_big = *after.at(0, 0, 0, 0) - *before.at(0, 0, 0, 0);
        let step_small = *after.at(0, 0, 0, 1) - *before.at(0, 0, 0, 1);
        assert!((step_big + 0.01).abs() < 1e-4, "step {step_big}");
        assert!((step_small - 0.01).abs() < 1e-4, "step {step_small}");
    }

    #[test]
    fn adam_converges_on_a_quadratic() {
        // Minimise ||w||² with gradients 2w: Adam should shrink the norm.
        let mut rng = SmallRng::seed_from_u64(5);
        let mut d = net(&mut rng);
        d.jitter(0.5, &mut rng);
        let mut opt = Optimizer::new(OptimizerKind::dcgan_adam(), 0.05, &d);
        let norm = |n: &ConvNet| -> f64 {
            n.layers()
                .iter()
                .flat_map(|l| l.weights().as_slice())
                .map(|w| f64::from(w * w))
                .sum()
        };
        let start = norm(&d);
        for _ in 0..50 {
            let grads: Vec<_> = d
                .layers()
                .iter()
                .map(|l| {
                    let mut g = l.weights().clone();
                    g.scale(2.0);
                    crate::layer::LayerGrads {
                        weights: g,
                        bias: vec![0.0; l.out_shape().0],
                    }
                })
                .collect();
            opt.step(&mut d, &grads);
        }
        assert!(norm(&d) < 0.2 * start, "norm {} vs start {start}", norm(&d));
    }

    #[test]
    fn accessors_report_config() {
        let mut rng = SmallRng::seed_from_u64(3);
        let d = net(&mut rng);
        let opt = Optimizer::new(OptimizerKind::Sgd, 0.05, &d);
        assert_eq!(opt.kind(), OptimizerKind::Sgd);
        assert_eq!(opt.learning_rate(), 0.05);
    }
}
