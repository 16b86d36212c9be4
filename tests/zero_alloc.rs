//! Proof of the zero-allocation training hot path: once a
//! [`ConvWorkspace`] has warmed up, steady-state `forward_ws` /
//! `backward_ws` / `backward_error` + `backward_weights` passes through
//! both conv directions perform **zero** heap allocations — also a weight
//! update,
//! which rewrites the layers' phase sub-kernels into their own buffers, and
//! the pass after it, which gathers nothing — two consecutive
//! `train_iteration`s, optimizer steps included, allocate nothing the size
//! of a conv buffer, and warm optimizer steps allocate nothing at all; on a
//! pool of two or more threads the rewrites, steps and zero fills of the
//! layers past the fan-out threshold run fanned out.
//! Measured with a counting `#[global_allocator]`, which is why this test
//! lives in its own binary with a single `#[test]` — no other test threads
//! can pollute the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use zfgan::nn::{
    Activation, ConvLayer, ConvNet, Direction, GanPair, GanTrainer, LayerGrads, Optimizer,
    OptimizerKind, TrainerConfig,
};
use zfgan::pool::PASS_FAN_OUT_MIN_ELEMS;
use zfgan::tensor::{ConvBackend, ConvGeom, ConvWorkspace, Fmaps, Kernels};

/// Counts every allocation event (alloc, alloc_zeroed, realloc) and
/// otherwise defers to the system allocator.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Allocation events of at least [`CONV_BUFFER_BYTES`].
static LARGE_ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Smaller than every conv-path buffer of [`wide_pair`] (weights, gathered
/// sub-kernels, patch matrices, maps: 2 KiB and up), larger than anything
/// a train step allocates by design (images and latent vectors of 256 B,
/// a handful of per-layer `Vec`s).
const CONV_BUFFER_BYTES: usize = 1024;

fn count(bytes: usize) {
    ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
    if bytes >= CONV_BUFFER_BYTES {
        LARGE_ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

/// A layer with its input, the error on its output and a gradient
/// accumulator.
type Case = (ConvLayer, Fmaps<f32>, Fmaps<f32>, LayerGrads);

/// One full forward + backward through both layers — the backward once
/// into a fresh gradient and once as its two halves, the error half and
/// the W half into the accumulator — recycling every buffer back into the
/// workspace. Returns the allocation-event delta.
fn round_trip(layers: &mut [Case], ws: &mut ConvWorkspace<f32>) -> u64 {
    let before = alloc_events();
    for (layer, x, delta, acc) in layers {
        let (pre, post) = layer.forward_ws(x, ws).expect("shapes fixed at build time");
        let (dx, grads) = layer
            .backward_ws(delta, &pre, x, ws)
            .expect("shapes fixed at build time");
        let (delta_pre, _) = layer
            .backward_error(delta, &pre, false, ws)
            .expect("shapes fixed at build time");
        layer
            .backward_weights(x, &delta_pre, Some(acc), ws)
            .expect("shapes fixed at build time");
        ws.give_fmaps(delta_pre);
        ws.give_fmaps(pre);
        ws.give_fmaps(post);
        ws.give_fmaps(dx);
        grads.recycle(ws);
    }
    alloc_events() - before
}

/// An `8×8` single-channel GAN shaped like [`GanPair::tiny`] but many maps
/// wide, so every conv-path buffer is at least 2 KiB while images stay
/// 256 B (see [`CONV_BUFFER_BYTES`]). Its `128 ↔ 64`-map middle layers hold
/// more weights than [`PASS_FAN_OUT_MIN_ELEMS`], so on a pool of two or
/// more threads their optimizer step, the sub-kernel rewrite that step
/// makes and their gradient accumulators' zero fill all fan out.
fn wide_pair(rng: &mut SmallRng) -> GanPair {
    let head = ConvGeom::down(2, 2, 2, 2, 1, 1, 1).expect("static geometry");
    let mid = ConvGeom::down(4, 4, 4, 4, 2, 2, 2).expect("static geometry");
    let body = ConvGeom::down(8, 8, 4, 4, 2, 4, 4).expect("static geometry");
    let mut layer = |dir, geom, small_c, large_c, act, in_shape| {
        ConvLayer::random(dir, geom, small_c, large_c, act, in_shape, 0.25, rng)
            .expect("static shapes")
    };
    let g = ConvNet::new(vec![
        layer(Direction::Up, head, 16, 128, Activation::Relu, (16, 1, 1)),
        layer(Direction::Up, mid, 128, 64, Activation::Relu, (128, 2, 2)),
        layer(Direction::Up, body, 64, 1, Activation::Tanh, (64, 4, 4)),
    ]);
    let leaky = Activation::LeakyRelu { alpha: 0.2 };
    let d = ConvNet::new(vec![
        layer(Direction::Down, body, 64, 1, leaky, (1, 8, 8)),
        layer(Direction::Down, mid, 128, 64, leaky, (64, 4, 4)),
        layer(
            Direction::Down,
            head,
            1,
            128,
            Activation::Identity,
            (128, 2, 2),
        ),
    ]);
    GanPair::new(g.expect("static stack"), d.expect("static stack")).expect("consistent pair")
}

#[test]
fn warm_workspace_passes_allocate_nothing() {
    let mut rng = SmallRng::seed_from_u64(41);
    // MNIST-GAN layer-2 geometry (14×14 ↔ 7×7, k=5, s=2): one layer per
    // conv direction so the steady-state claim covers S-, T- and both
    // W-CONV lowerings on the default zero-free backend — once a few maps
    // wide, where every GEMM runs inline, and once at the spec's own
    // 64 ↔ 128 maps, where on a pool of two or more threads the GEMM rows,
    // the `B` pack and the lowering fills all fan out (`ci.sh` runs this
    // binary under `ZFGAN_THREADS=2` as well as at the host's width).
    let geom = ConvGeom::down(14, 14, 5, 5, 2, 7, 7).expect("static geometry");
    let mut layers = Vec::new();
    for (dir, in_shape, w) in [
        (
            Direction::Down,
            (3usize, 14usize, 14usize),
            Kernels::random(5, 3, 5, 5, 0.25, &mut rng),
        ),
        (
            Direction::Up,
            (5, 7, 7),
            Kernels::random(5, 3, 5, 5, 0.25, &mut rng),
        ),
        (
            Direction::Down,
            (64, 14, 14),
            Kernels::random(128, 64, 5, 5, 0.05, &mut rng),
        ),
        (
            Direction::Up,
            (128, 7, 7),
            Kernels::random(128, 64, 5, 5, 0.05, &mut rng),
        ),
    ] {
        let mut layer =
            ConvLayer::new(dir, geom, w, Activation::LeakyRelu { alpha: 0.2 }, in_shape)
                .expect("consistent construction");
        layer.set_backend(ConvBackend::LoweredZeroFree);
        let x = Fmaps::random(in_shape.0, in_shape.1, in_shape.2, 1.0, &mut rng);
        let (_, out_h, out_w) = layer.out_shape();
        let delta = Fmaps::random(layer.out_shape().0, out_h, out_w, 1.0, &mut rng);
        let acc = LayerGrads {
            weights: layer.weights().clone(),
            bias: layer.bias().to_vec(),
        };
        layers.push((layer, x, delta, acc));
    }

    let mut ws: ConvWorkspace<f32> = ConvWorkspace::new();
    // Warm-up: grows every scratch buffer to its steady-state size.
    for _ in 0..2 {
        round_trip(&mut layers, &mut ws);
    }

    for step in 0..5 {
        let delta = round_trip(&mut layers, &mut ws);
        assert_eq!(
            delta, 0,
            "steady-state pass {step} allocated {delta} times; the conv hot \
             path must be allocation-free once the workspace is warm"
        );
    }

    // A weight update rewrites the layers' phase sub-kernels into the
    // buffers they already hold, and the pass after it gathers nothing.
    let steps: Vec<_> = layers
        .iter()
        .map(|(layer, ..)| {
            let (n_of, n_if, kh, kw) = layer.weights().shape();
            let step = Kernels::random(n_of, n_if, kh, kw, 0.01, &mut rng);
            (step, vec![0.0; layer.bias().len()])
        })
        .collect();
    let before = alloc_events();
    for ((layer, ..), (step, bias_step)) in layers.iter_mut().zip(&steps) {
        layer.apply_update(step, bias_step);
    }
    let delta = alloc_events() - before + round_trip(&mut layers, &mut ws);
    assert_eq!(
        delta, 0,
        "a weight update and the pass after it allocated {delta} times; \
         the sub-kernel rewrite must reuse its buffer"
    );

    // The same through the trainer: `train_iteration` allocates its
    // samples and a few per-layer `Vec`s by design; once warm, nothing is
    // the size of a conv buffer — gradients accumulate in the W-CONV's own
    // epilogue, the optimizer updates in place, and the sub-kernel rewrite
    // every optimizer step makes reuses its buffer. The pair's middle
    // layers take the fanned passes.
    let pair = wide_pair(&mut rng);
    for net in [pair.generator(), pair.discriminator()] {
        let widest = net.layers().iter().map(|l| l.weights().len()).max();
        assert!(
            widest >= Some(PASS_FAN_OUT_MIN_ELEMS),
            "a layer must fan out"
        );
    }
    let mut trainer = GanTrainer::new(
        pair,
        TrainerConfig {
            n_critic: 1,
            ..TrainerConfig::default()
        },
    );
    for _ in 0..2 {
        trainer.train_iteration(2, &mut rng);
    }
    let before = LARGE_ALLOC_EVENTS.load(Ordering::Relaxed);
    for _ in 0..2 {
        trainer.train_iteration(2, &mut rng);
    }
    let large = LARGE_ALLOC_EVENTS.load(Ordering::Relaxed) - before;
    assert_eq!(
        large, 0,
        "two warm train iterations made {large} allocations of \
         {CONV_BUFFER_BYTES} B or more; a warm train step must make none"
    );

    // A warm optimizer step makes no allocation of any size, fanned out or
    // not: the clipped critic step over every layer, sub-kernel rewrites
    // included.
    let mut critic = trainer.gan().discriminator().clone();
    let grads = critic.zero_grads_ws(&mut ConvWorkspace::new());
    let mut opt = Optimizer::new(OptimizerKind::wgan_default(), 5e-5, &critic);
    opt.step_clipped(&mut critic, &grads, Some(0.01));
    let before = alloc_events();
    for _ in 0..3 {
        opt.step_clipped(&mut critic, &grads, Some(0.01));
    }
    let steps = alloc_events() - before;
    assert_eq!(
        steps, 0,
        "three warm optimizer steps allocated {steps} times"
    );

    // Sanity check that the counter actually works: the same passes
    // through a cold workspace must allocate.
    let delta = round_trip(&mut layers, &mut ConvWorkspace::new());
    assert!(
        delta > 0,
        "a cold workspace reported zero allocations — counter broken?"
    );
}
