//! Every path that can change a layer's weights must invalidate the
//! layer's gathered zero-free sub-kernels
//! ([`zfgan_tensor::PhaseKernelCache`]): after any of them, the next
//! forward and backward pass must equal — bit for bit — what a layer
//! freshly constructed from the new weights computes. A path that forgets
//! would keep multiplying by the *previous* weight version in the T-CONV
//! forward of an `Up` layer and the input-error pass of a `Down` layer.
//!
//! Each case primes the cache (a forward and a backward pass) before it
//! mutates, so a missed invalidation cannot hide behind a cold cache.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use zfgan_nn::{
    Activation, ConvLayer, ConvNet, Direction, GanPair, GanTrainer, SupervisedTrainer,
    SupervisorConfig, TrainerConfig,
};
use zfgan_tensor::fault::{FaultKind, FaultPlan, FaultSite};
use zfgan_tensor::{ConvGeom, ConvWorkspace, Fmaps, Kernels};

/// The raw bits of one forward and one backward pass through `layer` on
/// fixed inputs: pre- and post-activation, input error, weight and bias
/// gradients. Runs the layer's own (cache-holding) entry points.
fn passes(layer: &ConvLayer) -> Vec<Vec<u32>> {
    let mut rng = SmallRng::seed_from_u64(0xfeed);
    let (c, h, w) = layer.in_shape();
    let x = Fmaps::random(c, h, w, 1.0, &mut rng);
    let (oc, oh, ow) = layer.out_shape();
    let delta = Fmaps::random(oc, oh, ow, 1.0, &mut rng);
    let mut ws = ConvWorkspace::new();
    let (pre, post) = layer.forward_ws(&x, &mut ws).expect("fixed shapes");
    let (dx, grads) = layer
        .backward_ws(&delta, &pre, &x, &mut ws)
        .expect("fixed shapes");
    // The allocating entries share the cache with the workspace ones.
    let (pre_alloc, _) = layer.forward(&x).expect("fixed shapes");
    let (dx_alloc, _) = layer.backward(&delta, &pre, &x).expect("fixed shapes");
    [
        pre.as_slice(),
        post.as_slice(),
        dx.as_slice(),
        grads.weights.as_slice(),
        &grads.bias,
        pre_alloc.as_slice(),
        dx_alloc.as_slice(),
    ]
    .iter()
    .map(|v| v.iter().map(|f| f.to_bits()).collect())
    .collect()
}

/// A layer built from scratch with `layer`'s parameters: its cache has
/// never seen any other weight version.
fn rebuilt(layer: &ConvLayer) -> ConvLayer {
    let mut fresh = ConvLayer::new(
        layer.direction(),
        *layer.geom(),
        layer.weights().clone(),
        layer.activation(),
        layer.in_shape(),
    )
    .expect("parameters of a valid layer");
    let (n_of, n_if, kh, kw) = layer.weights().shape();
    let no_change = Kernels::zeros(n_of, n_if, kh, kw);
    // `apply_update` subtracts.
    let minus_bias: Vec<f32> = layer.bias().iter().map(|b| -b).collect();
    fresh.apply_update(&no_change, &minus_bias);
    fresh.set_backend(layer.backend());
    fresh
}

fn assert_fresh(layer: &ConvLayer, what: &str) {
    assert_eq!(
        passes(layer),
        passes(&rebuilt(layer)),
        "{what}: {:?} layer served a stale weight version",
        layer.direction()
    );
}

fn assert_nets_fresh(pair: &GanPair, what: &str) {
    for net in [pair.generator(), pair.discriminator()] {
        for layer in net.layers() {
            assert_fresh(layer, what);
        }
    }
}

/// One stride-2 layer per direction: both go through the phase lowering
/// (`8×8 ↔ 4×4`, `k = 4`), neither through the `1×1` collapse.
fn layers(rng: &mut SmallRng) -> Vec<ConvLayer> {
    let geom = ConvGeom::down(8, 8, 4, 4, 2, 4, 4).expect("static geometry");
    [(Direction::Down, (3, 8, 8)), (Direction::Up, (5, 4, 4))]
        .into_iter()
        .map(|(dir, in_shape)| {
            let act = Activation::LeakyRelu { alpha: 0.2 };
            ConvLayer::random(dir, geom, 5, 3, act, in_shape, 0.5, rng).expect("static shapes")
        })
        .collect()
}

#[test]
fn layer_level_mutations_invalidate() {
    let mut rng = SmallRng::seed_from_u64(1);
    for mut layer in layers(&mut rng) {
        passes(&layer);
        layer.weights_mut().as_mut_slice()[7] = 0.75;
        assert_fresh(&layer, "weights_mut");

        let (n_of, n_if, kh, kw) = layer.weights().shape();
        let delta = Kernels::random(n_of, n_if, kh, kw, 0.1, &mut rng);
        let bias_delta: Vec<f32> = (0..layer.bias().len())
            .map(|_| rng.gen_range(-0.1f32..0.1))
            .collect();
        layer.apply_update(&delta, &bias_delta);
        assert_fresh(&layer, "apply_update");

        layer.clamp_weights(0.2);
        assert_fresh(&layer, "clamp_weights");

        // A clone must not inherit a gathered version it could outlive.
        let mut twin = layer.clone();
        twin.weights_mut().as_mut_slice()[0] = -0.5;
        assert_fresh(&twin, "clone + weights_mut");
        assert_fresh(&layer, "the clone's original");
    }
}

#[test]
fn jitter_invalidates() {
    let mut rng = SmallRng::seed_from_u64(2);
    let mut pair = GanPair::tiny(&mut rng);
    assert_nets_fresh(&pair, "construction");
    pair.generator_mut().jitter(0.05, &mut rng);
    pair.discriminator_mut().jitter(0.05, &mut rng);
    assert_nets_fresh(&pair, "jitter");
}

#[test]
fn serde_round_trip_starts_stale() {
    let mut rng = SmallRng::seed_from_u64(3);
    let pair = GanPair::tiny(&mut rng);
    for net in [pair.generator(), pair.discriminator()] {
        net.layers().iter().for_each(|l| drop(passes(l)));
        let json = serde_json::to_string(net).expect("networks serialise");
        assert!(
            !json.contains("sub_kernels"),
            "derived data leaked into the checkpoint format"
        );
        let mut back: ConvNet = serde_json::from_str(&json).expect("round trip");
        for layer in back.layers() {
            assert_fresh(layer, "deserialised");
        }
        // And a deserialised layer invalidates like any other.
        back.jitter(0.05, &mut rng);
        for layer in back.layers() {
            assert_fresh(layer, "deserialised + jitter");
        }
    }
}

fn trainer(rng: &mut SmallRng) -> GanTrainer {
    let config = TrainerConfig {
        n_critic: 1,
        ..TrainerConfig::default()
    };
    GanTrainer::new(GanPair::tiny(rng), config)
}

#[test]
fn optimizer_steps_and_restore_invalidate() {
    let mut rng = SmallRng::seed_from_u64(4);
    let mut t = trainer(&mut rng);
    let state = t.snapshot();
    // Every step gathers, then updates (and clips) the weights.
    for step in 0..2 {
        t.train_iteration(2, &mut rng);
        assert_nets_fresh(t.gan(), &format!("train_iteration {step}"));
    }
    t.restore(&state);
    assert_nets_fresh(t.gan(), "GanTrainer::restore");
    assert_nets_fresh(state.gan(), "the snapshot itself");
}

#[test]
fn supervisor_fault_injection_invalidates() {
    let mut rng = SmallRng::seed_from_u64(5);
    // A mantissa bit: the corrupted weight passes every health check, so
    // training carries on with it instead of rolling back.
    let kind = FaultKind::BitFlip { bit: 20 };
    let plan = FaultPlan::new(11, 1.0, FaultSite::TrainerStep, kind).expect("valid plan");
    let config = SupervisorConfig {
        fault: Some(plan),
        ..SupervisorConfig::default()
    };
    let mut sup = SupervisedTrainer::new(trainer(&mut rng), config).expect("valid config");
    let mut hit_a_gathering_layer = false;
    for step in 0..8 {
        // The same iteration without the fault, to learn where it landed.
        let before = sup.trainer().snapshot();
        let (opt_g, opt_d) = before.optimizers();
        let mut clean = GanTrainer::from_parts(
            before.gan().clone(),
            *sup.trainer().config(),
            opt_g.clone(),
            opt_d.clone(),
        )
        .expect("a live trainer's parts");
        clean.train_iteration(2, &mut rng.clone());

        sup.train_iteration(2, &mut rng)
            .expect("benign faults pass");
        assert_eq!(sup.stats().faults_injected, step + 1);
        assert_eq!(sup.stats().rollbacks, 0);
        let critic = sup.trainer().gan().discriminator();
        // Layer 0 is the stride-2 body, whose input-error pass gathers;
        // the head's `1×1` error takes the collapsed route.
        hit_a_gathering_layer |=
            critic.layers()[0].weights() != clean.gan().discriminator().layers()[0].weights();
        assert_nets_fresh(
            sup.trainer().gan(),
            &format!("fault injection, step {step}"),
        );
    }
    assert!(
        hit_a_gathering_layer,
        "no fault landed on the layer that gathers sub-kernels: pick another plan seed"
    );
}
