//! Full GAN training-step ratio gates on the MNIST-GAN spec: workspace
//! reuse over allocating scratch, and the shape dispatcher over the
//! packed-only engine.
//!
//! Every variant computes bit-identical updates to the others
//! (`tests/determinism.rs`). Every gate is one [`paired_ratio`] of one
//! train step a side; the absolute step time is the `train_mnist` workload
//! of `BENCHMARK.json`.

use std::cell::RefCell;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use zfgan_bench::{gate, paired_ratio};
use zfgan_nn::{GanTrainer, TrainerConfig};
use zfgan_tensor::microkernel::{set_forced_path, simd_label, simd_level, GemmPath, SimdLevel};
use zfgan_tensor::ConvBackend;
use zfgan_workloads::GanSpec;

/// Rounds behind each paired ratio: two train steps each (35-70 ms a round).
const PAIRED_ROUNDS: usize = 15;

/// One seeded MNIST-GAN trainer (1 critic step + 1 Generator step, batch
/// 2 an iteration), warmed by one iteration, as a closure that runs the
/// next iteration under `forced`. Two steppers stay on identical weights
/// as long as they are stepped in turn.
fn stepper(backend: ConvBackend, reuse: bool) -> impl Fn(Option<GemmPath>) {
    let mut rng = SmallRng::seed_from_u64(29);
    let mut pair = GanSpec::mnist_gan()
        .build_pair(0.05, &mut rng)
        .expect("built-in spec is consistent");
    pair.set_backend(backend);
    let config = TrainerConfig {
        n_critic: 1,
        ..TrainerConfig::default()
    };
    let mut trainer = GanTrainer::new(pair, config);
    trainer.set_workspace_reuse(reuse);
    let state = RefCell::new((trainer, rng));
    let step = move |forced| {
        set_forced_path(forced);
        let (trainer, rng) = &mut *state.borrow_mut();
        std::hint::black_box(trainer.train_iteration(2, rng));
        set_forced_path(None);
    };
    step(None);
    step
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
    // Workspace reuse must beat allocating scratch on the same engine.
    let alloc_packed = stepper(ConvBackend::default(), false);
    let ws_packed = stepper(ConvBackend::default(), true);
    let s = paired_ratio(PAIRED_ROUNDS, || alloc_packed(None), || ws_packed(None));
    gate("trainstep/ws_vs_alloc", 1.0, s);

    // The shape-aware dispatcher (ikj pack bypass + small-m streamed
    // lowering) must buy the full train step >=1.15x over the pre-dispatch
    // engine: identical code with every GEMM forced through the packed
    // panel path, toggled between alternating steps of one trainer. The
    // wide AVX-512 tile halves what forcing the load-bound small-m shapes
    // through the packed tile costs, so the ratio reads 1.15-1.27x there
    // against ~1.4x on the AVX2 tile.
    let ws_packed = stepper(ConvBackend::default(), true);
    let s = paired_ratio(
        PAIRED_ROUNDS,
        || ws_packed(Some(GemmPath::Packed)),
        || ws_packed(None),
    );
    gate("trainstep/dispatched_vs_packed_only", simd_floor(1.15), s);
}
