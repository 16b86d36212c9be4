//! Full GAN training-step ratio gates: on the MNIST-GAN spec, the shape
//! dispatcher over the packed-only engine, and on DCGAN's parameter-sized
//! passes, fanned out over their serial loops.
//!
//! Every variant computes bit-identical updates to the others
//! (`tests/determinism.rs`, the optimizer's and the gather's unit tests).
//! Every gate is one [`paired_ratio`] of one train step (or one pass set) a
//! side; the absolute step times are the `train_mnist` and `train_dcgan`
//! workloads of `BENCHMARK.json`.

use std::cell::RefCell;

use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;
use zfgan_bench::{fan_out_gate, gate, paired_ratio, paired_ratio_with_capacity};
use zfgan_nn::{ConvNet, GanTrainer, LayerGrads, Optimizer, TrainerConfig};
use zfgan_tensor::microkernel::{set_forced_path, simd_label, simd_level, GemmPath, SimdLevel};
use zfgan_tensor::{ConvWorkspace, Fmaps};
use zfgan_workloads::GanSpec;

/// Rounds behind each paired ratio: two train steps each (35-70 ms a round).
const PAIRED_ROUNDS: usize = 15;

/// One seeded MNIST-GAN trainer (1 critic step + 1 Generator step, batch
/// 2 an iteration), warmed by one iteration, as a closure that runs the
/// next iteration under `forced`.
fn stepper() -> impl Fn(Option<GemmPath>) {
    let mut rng = SmallRng::seed_from_u64(29);
    let pair = GanSpec::mnist_gan()
        .build_pair(0.05, &mut rng)
        .expect("built-in spec is consistent");
    let config = TrainerConfig {
        n_critic: 1,
        ..TrainerConfig::default()
    };
    let state = RefCell::new((GanTrainer::new(pair, config), rng));
    let step = move |forced| {
        set_forced_path(forced);
        let (trainer, rng) = &mut *state.borrow_mut();
        std::hint::black_box(trainer.train_iteration(2, rng));
        set_forced_path(None);
    };
    step(None);
    step
}

/// Floor of `fanout/param_step`. Ten fresh processes on the two-vCPU
/// AVX-512 CI host read 1.50-1.64x at host capacities of 1.72-1.97x; a
/// pass set that stopped fanning out reads 1.00x.
const PARAM_STEP_FLOOR: f64 = 1.3;

/// `fanout/param_step`: DCGAN's parameter-sized passes — both networks'
/// RMSProp steps (the critic's with the WGAN clamp) and the phase
/// sub-kernel rewrites those steps make, then the input-error pass that
/// carries the Generator's error through the critic — fanned out as
/// `zfgan_pool::pass_pieces` decides, against the same calls held to their
/// serial loops by `zfgan_pool::serial_passes`. The pass's GEMMs fan out in
/// both arms. The host-capacity reading beside it says whether a red came
/// from the host or the pool.
fn gate_param_step() {
    if zfgan_pool::pool_threads() < 2 {
        println!("gate fanout/param_step: skipped at pool width 1");
        return;
    }
    let mut rng = SmallRng::seed_from_u64(31);
    let pair = GanSpec::dcgan()
        .build_pair(0.05, &mut rng)
        .expect("built-in spec is consistent");
    let config = TrainerConfig::default();
    let mut grads = |net: &ConvNet| -> Vec<LayerGrads> {
        let mut grads = net.zero_grads_ws(&mut ConvWorkspace::new());
        for g in &mut grads {
            let values = g.weights.as_mut_slice().iter_mut().chain(&mut g.bias);
            values.for_each(|v| *v = rng.gen_range(-1e-3f32..1e-3));
        }
        grads
    };
    let (g_grads, d_grads) = (grads(pair.generator()), grads(pair.discriminator()));
    let (mut g, mut d) = (pair.generator().clone(), pair.discriminator().clone());
    let opt = |net: &ConvNet| Optimizer::new(config.optimizer, config.learning_rate, net);
    let (mut opt_g, mut opt_d) = (opt(&g), opt(&d));
    let mut ws = ConvWorkspace::new();
    let image = Fmaps::random(3, 64, 64, 1.0, &mut rng);
    let trace = d.forward_ws(&image, &mut ws).expect("image shape");
    let delta = zfgan_nn::wgan::scalar_error(1.0);
    let mut step = || {
        opt_d.step_clipped(&mut d, &d_grads, config.weight_clip);
        opt_g.step(&mut g, &g_grads);
        let dx = d
            .backward_errors(&trace, &delta, true, None, &mut ws)
            .expect("trace produced by this network");
        ws.give_fmaps(dx.expect("input error was asked for"));
    };
    step();
    let step = RefCell::new(step);
    let reading = paired_ratio_with_capacity(
        PAIRED_ROUNDS,
        || zfgan_pool::serial_passes(|| (step.borrow_mut())()),
        || (step.borrow_mut())(),
    );
    fan_out_gate("fanout/param_step", PARAM_STEP_FLOOR, reading);
}

fn main() {
    println!("simd: {}", simd_label());
    // The speed floors bind on the SIMD levels only: the scalar fallback
    // (`ZFGAN_NO_SIMD=1`) exists for determinism checks.
    let simd_floor = |floor| {
        if simd_level() == SimdLevel::Scalar {
            0.0
        } else {
            floor
        }
    };
    // The shape-aware dispatcher (the small-m engine's pack bypass and
    // streamed lowering) must buy the full train step >=1.15x over the
    // pre-dispatch engine: identical code with every GEMM forced through
    // the packed panel path, toggled between alternating steps of one
    // trainer. It reads ~1.4x on the AVX2 tile and 1.48-1.62x on a
    // two-vCPU AVX-512 host.
    let step = stepper();
    let s = paired_ratio(
        PAIRED_ROUNDS,
        || step(Some(GemmPath::Packed)),
        || step(None),
    );
    gate("trainstep/dispatched_vs_packed_only", simd_floor(1.15), s);

    gate_param_step();
}
