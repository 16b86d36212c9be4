//! The accumulating backward entry — `∇W += ∇wᵢ` inside the `W-CONV`'s own
//! GEMM epilogue — must be **bit-identical** to the per-sample form it
//! replaced: `backward_ws` into a fresh gradient, then
//! `LayerGrads::add_assign`. Pinned with `to_bits` equality over random
//! geometries, both directions, 1–4 samples, reduction lengths on both
//! sides of the packed engine's `k`-chunk (so the epilogue and the
//! scratch-and-add fallback both run), a one-map critic head (the streamed
//! small-`m` route), every backend, and accumulators that already hold
//! arbitrary values, `-0.0` included. An epilogue that started its chain
//! from the accumulator instead of adding the finished chain to it would
//! round differently (and keep a `-0.0` a true add turns into `+0.0`), and
//! fails here.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use zfgan_nn::{Activation, ConvLayer, ConvNet, Direction, GanPair, LayerGrads};
use zfgan_tensor::microkernel::KC;
use zfgan_tensor::{ConvBackend, ConvGeom, ConvWorkspace, Fmaps, Kernels};

/// Small-side map sizes: `W-CONV` reduces over the small side's pixels, so
/// these put `kk` at 4, 9, 25 (one chunk: the epilogue serves) and 529
/// (two chunks: scratch, then one add pass).
const SMALL_HW: [usize; 4] = [2, 3, 5, 23];

const BACKENDS: [ConvBackend; 3] = [
    ConvBackend::LoweredZeroFree,
    ConvBackend::LoweredGemm,
    ConvBackend::GoldenDirect,
];

#[derive(Debug, Clone, Copy)]
struct Cfg {
    up: bool,
    stride: usize,
    small_hw: usize,
    small_c: usize,
    large_c: usize,
    samples: usize,
    backend: ConvBackend,
    dirty_accumulator: bool,
    seed: u64,
}

fn arb_cfg() -> impl Strategy<Value = Cfg> {
    (
        // Direction × stride (1 or 2).
        0usize..4,
        0usize..SMALL_HW.len(),
        // 1 is the critic head: a one-row GEMM on the streamed route.
        1usize..=7,
        1usize..=3,
        1usize..=4,
        0usize..BACKENDS.len(),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(
            |(dir_stride, hw, small_c, large_c, samples, backend, dirty_accumulator, seed)| Cfg {
                up: dir_stride % 2 == 1,
                stride: 1 + dir_stride / 2,
                small_hw: SMALL_HW[hw],
                small_c,
                large_c,
                samples,
                backend: BACKENDS[backend],
                dirty_accumulator,
                seed,
            },
        )
}

/// Post-ReLU-like maps: about half the entries exactly zero, so some
/// products are exact zeros.
fn sparse_maps((c, h, w): (usize, usize, usize), rng: &mut SmallRng) -> Fmaps<f32> {
    Fmaps::random(c, h, w, 1.0, rng).map(|v| if v > 0.0 { v } else { 0.0 })
}

/// An accumulator that already holds something: random values, with
/// `+0.0` and `-0.0` sprinkled in.
fn dirty_grads(layer: &ConvLayer, rng: &mut SmallRng) -> LayerGrads {
    let mut draw = |_| match rng.gen_range(0..4) {
        0 => -0.0f32,
        1 => 0.0,
        _ => rng.gen_range(-2.0f32..2.0),
    };
    let (n_of, n_if, kh, kw) = layer.weights().shape();
    LayerGrads {
        weights: Kernels::from_vec(
            n_of,
            n_if,
            kh,
            kw,
            (0..layer.weights().len()).map(&mut draw).collect(),
        ),
        bias: (0..layer.bias().len()).map(&mut draw).collect(),
    }
}

fn zero_grads(layer: &ConvLayer) -> LayerGrads {
    let (n_of, n_if, kh, kw) = layer.weights().shape();
    LayerGrads {
        weights: Kernels::zeros(n_of, n_if, kh, kw),
        bias: vec![0.0; layer.bias().len()],
    }
}

fn bits(g: &LayerGrads) -> Vec<u32> {
    g.weights
        .as_slice()
        .iter()
        .chain(&g.bias)
        .map(|v| v.to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn accumulating_backward_equals_backward_then_add_assign(cfg in arb_cfg()) {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let k = 3;
        let large_hw = cfg.small_hw * cfg.stride;
        let geom = ConvGeom::down(large_hw, large_hw, k, k, cfg.stride, cfg.small_hw, cfg.small_hw)
            .expect("valid by construction");
        let (direction, in_shape) = if cfg.up {
            (Direction::Up, (cfg.small_c, cfg.small_hw, cfg.small_hw))
        } else {
            (Direction::Down, (cfg.large_c, large_hw, large_hw))
        };
        let mut layer = ConvLayer::random(
            direction,
            geom,
            cfg.small_c,
            cfg.large_c,
            Activation::LeakyRelu { alpha: 0.2 },
            in_shape,
            0.5,
            &mut rng,
        )
        .expect("consistent construction");
        layer.set_backend(cfg.backend);

        let mut want = if cfg.dirty_accumulator {
            dirty_grads(&layer, &mut rng)
        } else {
            zero_grads(&layer)
        };
        let mut got = want.clone();
        // One workspace per side, reused (dirty) across the samples.
        let (mut ws_want, mut ws_got) = (ConvWorkspace::new(), ConvWorkspace::new());
        for sample in 0..cfg.samples {
            let x = sparse_maps(in_shape, &mut rng);
            let (pre, post) = layer.forward(&x).unwrap();
            let delta = sparse_maps(post.shape(), &mut rng).map(|v| v - 0.25);

            let (dx_want, g) = layer.backward_ws(&delta, &pre, &x, &mut ws_want).unwrap();
            want.add_assign(&g);
            g.recycle(&mut ws_want);

            let input_error = sample % 2 == 0;
            let dx_got = layer
                .backward_accumulate_ws(&delta, &pre, &x, input_error, &mut got, &mut ws_got)
                .unwrap();
            prop_assert_eq!(dx_got.is_some(), input_error);
            if let Some(dx) = dx_got {
                prop_assert_eq!(&dx, &dx_want, "input error, sample {}", sample);
                ws_got.give_fmaps(dx);
            }
            ws_want.give_fmaps(dx_want);
            prop_assert_eq!(bits(&got), bits(&want), "after sample {} of {:?}", sample, cfg);
        }
    }
}

/// The reduction lengths above really straddle the packed engine's chunk.
#[test]
fn the_geometries_put_kk_on_both_sides_of_the_k_chunk() {
    assert!(SMALL_HW.iter().any(|hw| hw * hw > KC));
    assert!(SMALL_HW.iter().any(|hw| hw * hw > 8 && hw * hw <= KC));
}

fn net_grad_bits(grads: &[LayerGrads]) -> Vec<Vec<u32>> {
    grads.iter().map(bits).collect()
}

/// Whole networks, the way the trainer uses the entry: from
/// `zero_grads`, one to four samples, Generator (T-CONV layers behind a
/// `1×1` projection) and critic (S-CONV layers ending in the one-map head).
#[test]
fn network_accumulation_equals_per_sample_gradients_added_up() {
    for seed in 0..4u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pair = GanPair::tiny(&mut rng);
        let nets: [&ConvNet; 2] = [pair.generator(), pair.discriminator()];
        for net in nets {
            let samples = 1 + seed as usize;
            let mut want = net.zero_grads();
            let mut got = net.zero_grads();
            let mut ws = ConvWorkspace::new();
            for _ in 0..samples {
                let (c, h, w) = net.in_shape();
                let x = Fmaps::random(c, h, w, 1.0, &mut rng);
                let trace = net.forward_ws(&x, &mut ws).unwrap();
                let (oc, oh, ow) = net.out_shape();
                let delta = Fmaps::random(oc, oh, ow, 1.0, &mut rng);

                let (grads, dx) = net.backward_ws(&trace, &delta, &mut ws).unwrap();
                for (acc, g) in want.iter_mut().zip(&grads) {
                    acc.add_assign(g);
                }
                ws.give_fmaps(dx);
                for g in grads {
                    g.recycle(&mut ws);
                }

                net.backward_accumulate_ws(&trace, &delta, &mut got, &mut ws)
                    .unwrap();
                trace.recycle(&mut ws);
            }
            assert_eq!(net_grad_bits(&got), net_grad_bits(&want), "seed {seed}");
        }
    }
}

/// A wrongly shaped accumulator is an error, not a silent partial update.
#[test]
fn mismatched_accumulators_are_rejected() {
    let mut rng = SmallRng::seed_from_u64(9);
    let pair = GanPair::tiny(&mut rng);
    let net = pair.discriminator();
    let (c, h, w) = net.in_shape();
    let x = Fmaps::random(c, h, w, 1.0, &mut rng);
    let mut ws = ConvWorkspace::new();
    let trace = net.forward_ws(&x, &mut ws).unwrap();
    let delta = Fmaps::from_vec(1, 1, 1, vec![1.0]);

    let mut too_few = net.zero_grads();
    too_few.pop();
    assert!(net
        .backward_accumulate_ws(&trace, &delta, &mut too_few, &mut ws)
        .is_err());

    let mut swapped = net.zero_grads();
    swapped.reverse();
    assert!(net
        .backward_accumulate_ws(&trace, &delta, &mut swapped, &mut ws)
        .is_err());
}
