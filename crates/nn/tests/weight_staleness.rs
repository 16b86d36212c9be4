//! Every path that writes a layer's weights goes through its
//! [`zfgan_nn::WeightsMut`] guard, whose drop rewrites the layer's gathered
//! zero-free sub-kernels ([`zfgan_tensor::PhaseKernels`]): after any of
//! them, the next forward and backward pass must equal — bit for bit —
//! what a layer freshly constructed from the new weights computes. A path
//! that got round the guard would keep multiplying by the *previous* weight
//! version in the T-CONV forward of an `Up` layer and the input-error pass
//! of a `Down` layer.
//!
//! Each case runs the passes before it writes, so a write that left the
//! sub-kernels behind cannot hide behind a first use.

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
/// gradients. Runs the layer's own (sub-kernel reading) entry points.
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
    // The allocating entries read the same sub-kernels as the workspace ones.
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

/// A layer built from scratch with `layer`'s parameters: its sub-kernels
/// have never seen any other weight version.
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
fn layer_level_writes_refresh() {
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

        // A clone carries its own copy of the sub-kernels: writing one
        // side leaves the other serving its own weights.
        let mut twin = layer.clone();
        assert_fresh(&twin, "clone");
        twin.weights_mut().as_mut_slice()[0] = -0.5;
        assert_fresh(&twin, "clone + weights_mut");
        assert_fresh(&layer, "the clone's original");
        layer.weights_mut().as_mut_slice()[1] = 0.25;
        assert_fresh(&layer, "the original written after its clone");
        assert_fresh(&twin, "the clone after its original's write");
    }
}

/// A write that panics half way still leaves the sub-kernels equal to a
/// gather of whatever the weights then hold: the guard rewrites them as it
/// drops during the unwind.
#[test]
fn a_panicking_write_still_refreshes() {
    let mut rng = SmallRng::seed_from_u64(6);
    for mut layer in layers(&mut rng) {
        passes(&layer);
        let write = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut weights = layer.weights_mut();
            weights.as_mut_slice()[5] = 0.625;
            panic!("a write interrupted half way");
        }));
        assert!(write.is_err());
        assert_eq!(layer.weights().as_slice()[5], 0.625);
        assert_fresh(&layer, "a panicking write");
    }
}

/// A `1×1` grid — the Generator's projection, the input error of a critic
/// head with a `1×1` output — gathers nothing: its pass reads the kernel
/// in place, and a forced-packed pass, which keeps the classic phase
/// route, gathers per call into the workspace. Both equal a fresh layer's
/// passes bit for bit, before and after a write.
#[test]
fn one_by_one_grids_read_the_kernel_or_gather_per_call() {
    use zfgan_tensor::microkernel::{set_forced_path, GemmPath};
    let mut rng = SmallRng::seed_from_u64(7);
    let geom = ConvGeom::down(4, 4, 4, 4, 1, 1, 1).expect("static geometry");
    let act = Activation::LeakyRelu { alpha: 0.2 };
    for (dir, in_shape) in [(Direction::Up, (5, 1, 1)), (Direction::Down, (3, 4, 4))] {
        let mut layer = ConvLayer::random(dir, geom, 5, 3, act, in_shape, 0.5, &mut rng)
            .expect("static shapes");
        for round in 0..2 {
            // Forcing a path is bit-neutral for every GEMM in the process,
            // so tests running alongside are unaffected.
            set_forced_path(Some(GemmPath::Packed));
            let forced = passes(&layer);
            set_forced_path(None);
            assert_eq!(forced, passes(&layer), "{dir:?}, round {round}");
            assert_fresh(&layer, "a 1×1 grid");
            layer.weights_mut().as_mut_slice()[2] = -0.375;
        }
    }
}

#[test]
fn jitter_refreshes() {
    let mut rng = SmallRng::seed_from_u64(2);
    let mut pair = GanPair::tiny(&mut rng);
    assert_nets_fresh(&pair, "construction");
    pair.generator_mut().jitter(0.05, &mut rng);
    pair.discriminator_mut().jitter(0.05, &mut rng);
    assert_nets_fresh(&pair, "jitter");
}

#[test]
fn serde_round_trip_then_a_write_refreshes() {
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
        // A deserialised layer's first write fills its sub-kernels, and
        // it refreshes like any other after that.
        for layer in back.layers_mut() {
            layer.weights_mut().as_mut_slice()[3] = 0.125;
            assert_fresh(layer, "deserialised + weights_mut");
        }
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
fn optimizer_steps_and_restore_refresh() {
    let mut rng = SmallRng::seed_from_u64(4);
    let mut t = trainer(&mut rng);
    let state = t.snapshot();
    // Every optimizer step updates (and clips) the weights, and rewrites
    // the sub-kernels as its guards drop.
    for step in 0..2 {
        t.train_iteration(2, &mut rng);
        assert_nets_fresh(t.gan(), &format!("train_iteration {step}"));
    }
    t.restore(&state);
    assert_nets_fresh(t.gan(), "GanTrainer::restore");
    assert_nets_fresh(state.gan(), "the snapshot itself");
}

#[test]
fn supervisor_fault_injection_refreshes() {
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
    let mut hit_a_layer_with_sub_kernels = false;
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
        // Layer 0 is the stride-2 body, whose input-error pass reads its
        // sub-kernels; the head's `1×1` error takes the collapsed route.
        hit_a_layer_with_sub_kernels |=
            critic.layers()[0].weights() != clean.gan().discriminator().layers()[0].weights();
        assert_nets_fresh(
            sup.trainer().gan(),
            &format!("fault injection, step {step}"),
        );
    }
    assert!(
        hit_a_layer_with_sub_kernels,
        "no fault landed on the layer with sub-kernels: pick another plan seed"
    );
}
