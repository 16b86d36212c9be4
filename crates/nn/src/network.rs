//! A stack of convolutional layers with full backpropagation.

use rand::Rng;
use serde::{Deserialize, Serialize};
use zfgan_tensor::{ConvBackend, ConvWorkspace, Fmaps, ShapeError, TensorResult};

use crate::layer::{ConvLayer, LayerGrads};

/// Cached forward-pass tensors of one sample — the paper's "intermediate
/// data" (`d^l`) that `W-CONV` needs during the backward pass.
///
/// Its size is exactly what the paper's Section III-A memory analysis is
/// about: the synchronized algorithm must hold `2 × batch` of these, the
/// deferred algorithm only one.
#[derive(Debug, Clone)]
pub struct Trace {
    input: Fmaps<f32>,
    pre: Vec<Fmaps<f32>>,
    post: Vec<Fmaps<f32>>,
}

impl Trace {
    /// The network input that produced this trace.
    pub fn input(&self) -> &Fmaps<f32> {
        &self.input
    }

    /// The final network output.
    pub fn output(&self) -> &Fmaps<f32> {
        self.post.last().unwrap_or(&self.input)
    }

    /// Post-activation output of layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn post(&self, l: usize) -> &Fmaps<f32> {
        &self.post[l]
    }

    /// Total number of buffered elements (input + all pre/post activations)
    /// — the memory-accounting currency of the Section III-A experiment.
    pub fn buffered_elems(&self) -> usize {
        self.input.len()
            + self.pre.iter().map(Fmaps::len).sum::<usize>()
            + self.post.iter().map(Fmaps::len).sum::<usize>()
    }

    /// Number of buffered elements counting only what weight updating needs:
    /// each layer's *input* activation (`d^{l-1}`), i.e. the network input
    /// plus every post-activation except the last. This matches the paper's
    /// accounting for the ~126 MB DCGAN figure.
    pub fn weight_update_elems(&self) -> usize {
        let mut total = self.input.len();
        for p in &self.post[..self.post.len().saturating_sub(1)] {
            total += p.len();
        }
        total
    }

    /// Returns every buffered tensor to a workspace, so the next forward
    /// pass reuses them instead of allocating.
    pub fn recycle(self, ws: &mut ConvWorkspace<f32>) {
        ws.give_fmaps(self.input);
        for p in self.pre {
            ws.give_fmaps(p);
        }
        for p in self.post {
            ws.give_fmaps(p);
        }
    }

    /// Consumes the trace, keeping only the final network output; every
    /// other buffered tensor returns to the workspace. (For a one-layer-or-
    /// more network the output is the last post-activation; the degenerate
    /// zero-layer case cannot occur — construction requires a layer.)
    pub fn into_output(mut self, ws: &mut ConvWorkspace<f32>) -> Fmaps<f32> {
        let out = self.post.pop().unwrap_or_else(|| self.input.clone());
        ws.give_fmaps(self.input);
        for p in self.pre {
            ws.give_fmaps(p);
        }
        for p in self.post {
            ws.give_fmaps(p);
        }
        out
    }
}

/// A feed-forward stack of [`ConvLayer`]s — one Generator or Discriminator.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use zfgan_nn::{Activation, ConvLayer, ConvNet, Direction};
/// use zfgan_tensor::{ConvGeom, Fmaps};
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// let geom = ConvGeom::down(8, 8, 4, 4, 2, 4, 4)?;
/// let layer = ConvLayer::random(
///     Direction::Down, geom, 4, 1, Activation::Identity, (1, 8, 8), 0.1, &mut rng,
/// )?;
/// let net = ConvNet::new(vec![layer])?;
/// let x = Fmaps::random(1, 8, 8, 1.0, &mut rng);
/// let trace = net.forward(&x)?;
/// assert_eq!(trace.output().shape(), (4, 4, 4));
/// # Ok::<(), zfgan_tensor::ShapeError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConvNet {
    layers: Vec<ConvLayer>,
}

impl ConvNet {
    /// Creates a network, validating that consecutive layer shapes chain.
    ///
    /// # Errors
    ///
    /// Returns an error if the stack is empty or a layer's input shape does
    /// not equal the previous layer's output shape.
    pub fn new(layers: Vec<ConvLayer>) -> TensorResult<Self> {
        if layers.is_empty() {
            return Err(ShapeError::new("a network needs at least one layer"));
        }
        for (i, pair) in layers.windows(2).enumerate() {
            if pair[0].out_shape() != pair[1].in_shape() {
                return Err(ShapeError::new(format!(
                    "layer {i} outputs {:?} but layer {} expects {:?}",
                    pair[0].out_shape(),
                    i + 1,
                    pair[1].in_shape()
                )));
            }
        }
        Ok(Self { layers })
    }

    /// The layers, in forward order.
    pub fn layers(&self) -> &[ConvLayer] {
        &self.layers
    }

    /// Checks every invariant a freshly **deserialized** network must
    /// satisfy: each layer's internal consistency ([`ConvLayer::validate`])
    /// plus the shape chaining [`ConvNet::new`] enforces. Checkpoint
    /// loading calls this so corrupted payloads surface as errors instead
    /// of panics mid-inference.
    ///
    /// # Errors
    ///
    /// Returns a descriptive error naming the first offending layer.
    pub fn validate(&self) -> TensorResult<()> {
        if self.layers.is_empty() {
            return Err(ShapeError::new("a network needs at least one layer"));
        }
        for (i, layer) in self.layers.iter().enumerate() {
            layer
                .validate()
                .map_err(|e| ShapeError::new(format!("layer {i}: {e}")))?;
        }
        for (i, pair) in self.layers.windows(2).enumerate() {
            if pair[0].out_shape() != pair[1].in_shape() {
                return Err(ShapeError::new(format!(
                    "layer {i} outputs {:?} but layer {} expects {:?}",
                    pair[0].out_shape(),
                    i + 1,
                    pair[1].in_shape()
                )));
            }
        }
        Ok(())
    }

    /// Selects the convolution backend for every layer. All backends are
    /// bit-identical (see [`ConvBackend`]); this only trades speed.
    pub fn set_backend(&mut self, backend: ConvBackend) {
        for layer in &mut self.layers {
            layer.set_backend(backend);
        }
    }

    /// Mutable access to the layers (used by optimizers).
    pub fn layers_mut(&mut self) -> &mut [ConvLayer] {
        &mut self.layers
    }

    /// `(channels, height, width)` the network consumes.
    pub fn in_shape(&self) -> (usize, usize, usize) {
        self.layers[0].in_shape()
    }

    /// `(channels, height, width)` the network produces.
    pub fn out_shape(&self) -> (usize, usize, usize) {
        self.layers.last().expect("validated non-empty").out_shape()
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(ConvLayer::param_count).sum()
    }

    /// Forward pass, caching every intermediate tensor for the backward
    /// pass.
    ///
    /// # Errors
    ///
    /// Returns an error if `input` does not match the network's input shape.
    pub fn forward(&self, input: &Fmaps<f32>) -> TensorResult<Trace> {
        self.forward_ws(input, &mut ConvWorkspace::new())
    }

    /// [`ConvNet::forward`] with all transients drawn from the workspace.
    /// Bit-identical; feeds each layer the cached post-activation directly
    /// (no per-layer clone), so a warm workspace makes the whole pass
    /// allocation-free. Recycle the returned trace via [`Trace::recycle`]
    /// or [`Trace::into_output`].
    ///
    /// # Errors
    ///
    /// Returns an error if `input` does not match the network's input shape.
    pub fn forward_ws(
        &self,
        input: &Fmaps<f32>,
        ws: &mut ConvWorkspace<f32>,
    ) -> TensorResult<Trace> {
        let mut pre = Vec::with_capacity(self.layers.len());
        let mut post: Vec<Fmaps<f32>> = Vec::with_capacity(self.layers.len());
        for (l, layer) in self.layers.iter().enumerate() {
            let cur = if l == 0 { input } else { &post[l - 1] };
            let (p, a) = layer.forward_ws(cur, ws)?;
            pre.push(p);
            post.push(a);
        }
        let (c, h, w) = input.shape();
        let mut own_input = ws.take_fmaps(c, h, w);
        own_input.as_mut_slice().copy_from_slice(input.as_slice());
        Ok(Trace {
            input: own_input,
            pre,
            post,
        })
    }

    /// [`ConvNet::backward`] with all transients drawn from the workspace:
    /// [`ConvNet::backward_errors`], then [`ConvNet::backward_weights`].
    /// Bit-identical; intermediate per-layer errors return to the workspace
    /// as soon as they have been consumed. Recycle the returned gradients
    /// via [`crate::LayerGrads::recycle`] and the input error via
    /// [`ConvWorkspace::give_fmaps`].
    ///
    /// # Errors
    ///
    /// Returns an error if `delta_out` does not match the output shape.
    pub fn backward_ws(
        &self,
        trace: &Trace,
        delta_out: &Fmaps<f32>,
        ws: &mut ConvWorkspace<f32>,
    ) -> TensorResult<(Vec<LayerGrads>, Fmaps<f32>)> {
        let mut deltas = Vec::with_capacity(self.layers.len());
        let dx = self.backward_errors(trace, delta_out, true, Some(&mut deltas), ws)?;
        let grads = self.backward_weights(trace, &mut deltas, None, ws)?;
        Ok((grads, dx.expect("input error was asked for")))
    }

    /// The error walk of a backward pass (the error chain of paper Fig. 8):
    /// `delta_out` goes back through every layer, last to first, each
    /// layer's error half ([`ConvLayer`]'s `δ_pre`, then the error on its
    /// input). Each `δ_pre` is pushed onto `deltas` for
    /// [`ConvNet::backward_weights`] — last layer first — when `deltas` is
    /// given, and goes back to the workspace otherwise; each error between
    /// layers goes back as soon as the layer below has consumed it. The
    /// error on the network input is returned when `input_error` asks for
    /// it.
    ///
    /// # Errors
    ///
    /// Returns an error if `delta_out` does not match the output shape.
    pub fn backward_errors(
        &self,
        trace: &Trace,
        delta_out: &Fmaps<f32>,
        input_error: bool,
        mut deltas: Option<&mut Vec<Fmaps<f32>>>,
        ws: &mut ConvWorkspace<f32>,
    ) -> TensorResult<Option<Fmaps<f32>>> {
        if delta_out.shape() != self.out_shape() {
            return Err(ShapeError::new(format!(
                "delta shape {:?} does not match output {:?}",
                delta_out.shape(),
                self.out_shape()
            )));
        }
        let (c, h, w) = delta_out.shape();
        let mut delta = ws.take_fmaps(c, h, w);
        delta.as_mut_slice().copy_from_slice(delta_out.as_slice());
        let mut delta = Some(delta);
        for (l, layer) in self.layers.iter().enumerate().rev() {
            let above = delta.take().expect("inner layers propagate their error");
            let (delta_pre, dx) =
                layer.backward_error(&above, &trace.pre[l], l > 0 || input_error, ws)?;
            ws.give_fmaps(above);
            match deltas.as_deref_mut() {
                Some(kept) => kept.push(delta_pre),
                None => ws.give_fmaps(delta_pre),
            }
            delta = dx;
        }
        Ok(delta)
    }

    /// The W walk of a backward pass: every layer's `W-CONV` and bias
    /// gradient, first layer first, from its input in `trace` and its
    /// `δ_pre`, popped off `deltas` as [`ConvNet::backward_errors`] left
    /// them and given back to the workspace. The gradients are added into
    /// `acc` (one accumulator per layer, forward order — the paper's
    /// `∇W += ∇wᵢ` in each `W-CONV`'s own epilogue) when there is one, and
    /// returned fresh, in forward order, otherwise.
    ///
    /// # Errors
    ///
    /// Returns an error if `acc` does not hold one accumulator per layer
    /// or a layer's accumulator does not match it.
    ///
    /// # Panics
    ///
    /// Panics if `deltas` holds fewer errors than the network has layers.
    pub fn backward_weights(
        &self,
        trace: &Trace,
        deltas: &mut Vec<Fmaps<f32>>,
        mut acc: Option<&mut [LayerGrads]>,
        ws: &mut ConvWorkspace<f32>,
    ) -> TensorResult<Vec<LayerGrads>> {
        if let Some(a) = acc.as_deref().filter(|a| a.len() != self.layers.len()) {
            return Err(ShapeError::new(format!(
                "{} gradient accumulators for {} layers",
                a.len(),
                self.layers.len()
            )));
        }
        let mut grads = Vec::with_capacity(if acc.is_none() { self.layers.len() } else { 0 });
        for (l, layer) in self.layers.iter().enumerate() {
            let delta_pre = deltas
                .pop()
                .expect("the error walk kept every layer's error");
            let input = if l == 0 {
                &trace.input
            } else {
                &trace.post[l - 1]
            };
            let layer_acc = acc.as_deref_mut().map(|a| &mut a[l]);
            let g = layer.backward_weights(input, &delta_pre, layer_acc, ws);
            ws.give_fmaps(delta_pre);
            grads.extend(g?);
        }
        Ok(grads)
    }

    /// Backward pass: propagates `delta_out` (error on the network output)
    /// through every layer, returning per-layer gradients (forward order)
    /// and the error on the network input.
    ///
    /// # Errors
    ///
    /// Returns an error if `delta_out` does not match the output shape.
    pub fn backward(
        &self,
        trace: &Trace,
        delta_out: &Fmaps<f32>,
    ) -> TensorResult<(Vec<LayerGrads>, Fmaps<f32>)> {
        self.backward_ws(trace, delta_out, &mut ConvWorkspace::new())
    }

    /// Zero-valued gradient accumulators matching every layer, drawn from
    /// the workspace (zero-filled by [`ConvWorkspace::take_kernels`], on
    /// the pool for a large layer).
    pub fn zero_grads_ws(&self, ws: &mut ConvWorkspace<f32>) -> Vec<LayerGrads> {
        self.layers
            .iter()
            .map(|l| LayerGrads {
                weights: ws.take_kernels(
                    l.weights().n_of(),
                    l.weights().n_if(),
                    l.weights().kh(),
                    l.weights().kw(),
                ),
                bias: ws.take(l.out_shape().0),
            })
            .collect()
    }

    /// Renders a torchsummary-style table of the network: one row per
    /// layer with direction, shapes and parameter count.
    pub fn summary(&self) -> String {
        let mut out = String::from(
            "layer  dir   in (CxHxW)        out (CxHxW)       params
",
        );
        for (i, l) in self.layers.iter().enumerate() {
            let (ic, ih, iw) = l.in_shape();
            let (oc, oh, ow) = l.out_shape();
            let dir = match l.direction() {
                crate::layer::Direction::Down => "down",
                crate::layer::Direction::Up => "up  ",
            };
            out.push_str(&format!(
                "{:<6} {dir}  {:<16} {:<16} {}
",
                i + 1,
                format!("{ic}x{ih}x{iw}"),
                format!("{oc}x{oh}x{ow}"),
                l.param_count()
            ));
        }
        out.push_str(&format!(
            "total parameters: {}
",
            self.param_count()
        ));
        out
    }

    /// Adds uniform noise in `[-scale, scale]` to every parameter — handy
    /// for perturbation tests.
    pub fn jitter<R: Rng>(&mut self, scale: f32, rng: &mut R) {
        for layer in &mut self.layers {
            let mut w = layer.weights().clone();
            for v in w.as_mut_slice() {
                *v += rng.gen_range(-scale..=scale);
            }
            let delta = layer.weights().clone();
            // apply_update subtracts, so feed (old − new).
            let mut d = delta;
            for (dv, nv) in d.as_mut_slice().iter_mut().zip(w.as_slice()) {
                *dv -= nv;
            }
            let zero_bias = vec![0.0; layer.out_shape().0];
            layer.apply_update(&d, &zero_bias);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::layer::Direction;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use zfgan_tensor::ConvGeom;

    fn two_layer_net(rng: &mut SmallRng) -> ConvNet {
        let g1 = ConvGeom::down(8, 8, 4, 4, 2, 4, 4).unwrap();
        let g2 = ConvGeom::down(4, 4, 4, 4, 1, 1, 1).unwrap();
        let l1 = ConvLayer::random(
            Direction::Down,
            g1,
            4,
            1,
            Activation::LeakyRelu { alpha: 0.2 },
            (1, 8, 8),
            0.3,
            rng,
        )
        .unwrap();
        let l2 = ConvLayer::random(
            Direction::Down,
            g2,
            1,
            4,
            Activation::Identity,
            (4, 4, 4),
            0.3,
            rng,
        )
        .unwrap();
        ConvNet::new(vec![l1, l2]).unwrap()
    }

    #[test]
    fn forward_chains_shapes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let net = two_layer_net(&mut rng);
        assert_eq!(net.in_shape(), (1, 8, 8));
        assert_eq!(net.out_shape(), (1, 1, 1));
        let x = Fmaps::random(1, 8, 8, 1.0, &mut rng);
        let trace = net.forward(&x).unwrap();
        assert_eq!(trace.output().shape(), (1, 1, 1));
        assert_eq!(trace.post(0).shape(), (4, 4, 4));
        assert_eq!(trace.input().shape(), (1, 8, 8));
    }

    #[test]
    fn rejects_mismatched_stack() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g1 = ConvGeom::down(8, 8, 4, 4, 2, 4, 4).unwrap();
        let l1 = ConvLayer::random(
            Direction::Down,
            g1,
            4,
            1,
            Activation::Identity,
            (1, 8, 8),
            0.1,
            &mut rng,
        )
        .unwrap();
        let l_bad = ConvLayer::random(
            Direction::Down,
            g1,
            2,
            3, // expects 3 input maps, previous layer makes 4
            Activation::Identity,
            (3, 8, 8),
            0.1,
            &mut rng,
        )
        .unwrap();
        assert!(ConvNet::new(vec![l1, l_bad]).is_err());
        assert!(ConvNet::new(vec![]).is_err());
    }

    #[test]
    fn backward_whole_net_matches_finite_differences() {
        let mut rng = SmallRng::seed_from_u64(7);
        let net = two_layer_net(&mut rng);
        let x = Fmaps::random(1, 8, 8, 1.0, &mut rng);
        let trace = net.forward(&x).unwrap();
        let delta = Fmaps::from_vec(1, 1, 1, vec![1.0]);
        let (grads, dx) = net.backward(&trace, &delta).unwrap();
        let base = trace.output().sum_f64();
        let eps = 1e-3f32;
        // Input gradient at a few points.
        for (y, xx) in [(0usize, 0usize), (4, 4), (7, 2)] {
            let mut xp = x.clone();
            *xp.at_mut(0, y, xx) += eps;
            let fd = (net.forward(&xp).unwrap().output().sum_f64() - base) / f64::from(eps);
            assert!(
                (fd - f64::from(*dx.at(0, y, xx))).abs() < 2e-2,
                "dx[{y}][{xx}] fd={fd} an={}",
                dx.at(0, y, xx)
            );
        }
        // First-layer weight gradient (propagates through layer 2).
        let mut netp = net.clone();
        {
            let w = netp.layers_mut()[0].weights().clone();
            let mut d = zfgan_tensor::Kernels::zeros(w.n_of(), w.n_if(), w.kh(), w.kw());
            *d.at_mut(2, 0, 1, 1) = -eps; // apply_update subtracts
            let zero_bias = vec![0.0; 4];
            netp.layers_mut()[0].apply_update(&d, &zero_bias);
        }
        let fd = (netp.forward(&x).unwrap().output().sum_f64() - base) / f64::from(eps);
        assert!(
            (fd - f64::from(*grads[0].weights.at(2, 0, 1, 1))).abs() < 2e-2,
            "fd={fd} an={}",
            grads[0].weights.at(2, 0, 1, 1)
        );
    }

    /// `backward_ws` is the error walk then the W walk, bit for bit, and
    /// the error walk checks the output error's shape before it walks.
    #[test]
    fn backward_ws_is_the_error_walk_then_the_w_walk() {
        let mut rng = SmallRng::seed_from_u64(12);
        let net = two_layer_net(&mut rng);
        let x = Fmaps::random(1, 8, 8, 1.0, &mut rng);
        let mut ws = ConvWorkspace::new();
        let trace = net.forward_ws(&x, &mut ws).unwrap();
        let delta = Fmaps::from_vec(1, 1, 1, vec![0.75]);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();

        let (want, want_dx) = net.backward_ws(&trace, &delta, &mut ws).unwrap();
        let mut deltas = Vec::new();
        let dx = net
            .backward_errors(&trace, &delta, true, Some(&mut deltas), &mut ws)
            .unwrap()
            .expect("input error was asked for");
        assert_eq!(deltas.len(), 2, "one kept error per layer");
        let got = net
            .backward_weights(&trace, &mut deltas, None, &mut ws)
            .unwrap();
        assert!(deltas.is_empty(), "the W walk consumed every error");
        assert_eq!(bits(dx.as_slice()), bits(want_dx.as_slice()));
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(bits(g.weights.as_slice()), bits(w.weights.as_slice()));
            assert_eq!(bits(&g.bias), bits(&w.bias));
        }

        let wrong = Fmaps::zeros(1, 2, 2);
        let err = net
            .backward_errors(&trace, &wrong, true, Some(&mut deltas), &mut ws)
            .expect_err("output error of the wrong shape");
        assert!(err.to_string().contains("does not match output"), "{err}");
        assert!(deltas.is_empty(), "a rejected walk keeps nothing");
    }

    #[test]
    fn buffered_elems_counts_everything() {
        let mut rng = SmallRng::seed_from_u64(3);
        let net = two_layer_net(&mut rng);
        let x = Fmaps::random(1, 8, 8, 1.0, &mut rng);
        let trace = net.forward(&x).unwrap();
        // input 64 + (pre+post) of layer1 (2·64) + layer2 (2·1).
        assert_eq!(trace.buffered_elems(), 64 + 128 + 2);
        // weight-update accounting: input + post(0).
        assert_eq!(trace.weight_update_elems(), 64 + 64);
    }

    #[test]
    fn zero_grads_match_layer_shapes() {
        let mut rng = SmallRng::seed_from_u64(4);
        let net = two_layer_net(&mut rng);
        let zg = net.zero_grads_ws(&mut ConvWorkspace::new());
        assert_eq!(zg.len(), 2);
        assert_eq!(zg[0].weights.shape(), net.layers()[0].weights().shape());
        assert!(zg[0].weights.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(zg[1].bias.len(), 1);
    }

    #[test]
    fn summary_lists_every_layer_and_totals() {
        let mut rng = SmallRng::seed_from_u64(8);
        let net = two_layer_net(&mut rng);
        let s = net.summary();
        assert!(s.contains("down"));
        assert!(s.contains("1x8x8"));
        assert!(s.contains(&format!("total parameters: {}", net.param_count())));
        assert_eq!(s.lines().count(), 1 + 2 + 1);
    }

    #[test]
    fn jitter_changes_weights() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut net = two_layer_net(&mut rng);
        let before = net.layers()[0].weights().clone();
        net.jitter(0.1, &mut rng);
        assert!(net.layers()[0].weights().max_abs_diff(&before) > 0.0);
    }
}
