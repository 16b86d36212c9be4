//! Full GAN training-step latency on the MNIST-GAN spec: scalar vs packed
//! SIMD GEMM, allocating vs workspace-reusing conv scratch, sequential vs
//! pooled GEMM.
//!
//! The scalar reference (`ws_scalar`, [`ConvBackend::ScalarRef`]) is the
//! *reference engine* end to end: the specification fill/reshape loops
//! (see `MatmulKind::is_reference`) over the retained blocked-scalar GEMM,
//! with workspace reuse. That keeps its cost model pinned to the
//! pre-microkernel engine, so its ratio to `ws_pool2` measures what this
//! engine — cache-aware fills plus the packed SIMD microkernel — buys the
//! full train step. The packed variants compute bit-identical updates to
//! each other (`tests/determinism.rs`); `ws_scalar` agrees within the
//! fused-accumulation bound. Emits
//! `results/BENCH_trainstep.json` via [`zfgan_bench::emit`] with
//! min/mean/stddev per row (the host is a noisy shared core — `min_ns`
//! carries the stable signal) plus thread-count and SIMD-level metadata.

use std::time::Duration;

use criterion::Criterion;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use zfgan_bench::{emit_bench, fmt_x, paired_ratio, BenchRow, TextTable};
use zfgan_nn::{GanTrainer, TrainerConfig};
use zfgan_tensor::microkernel::{set_forced_path, simd_label, simd_level, GemmPath, SimdLevel};
use zfgan_tensor::ConvBackend;
use zfgan_workloads::GanSpec;

/// Rounds of the paired dispatched-over-packed-only measurement: two train
/// steps each (about 35 ms a round).
const DISPATCH_ROUNDS: usize = 15;

/// Per-benchmark measurement window: `ZFGAN_BENCH_MS` overrides the
/// 400 ms default (CI smoke runs use a small value; the full train step
/// is slow enough that a bigger default window buys real sample counts).
fn measurement_ms() -> u64 {
    std::env::var("ZFGAN_BENCH_MS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .filter(|&ms| ms > 0)
        .unwrap_or(400)
}

fn main() {
    // Anchor at the workspace root so `emit` writes the tracked top-level
    // `results/` sidecar.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let _ = std::env::set_current_dir(root);

    let spec = GanSpec::mnist_gan();
    let config = TrainerConfig {
        n_critic: 1,
        ..TrainerConfig::default()
    };
    let mut c = Criterion::default().measurement_time(Duration::from_millis(measurement_ms()));
    let mut group = c.benchmark_group("trainstep");
    for (name, backend, reuse) in [
        ("alloc_seq", ConvBackend::LoweredZeroFree, false),
        ("ws_scalar", ConvBackend::ScalarRef, true),
        ("ws_seq", ConvBackend::LoweredZeroFree, true),
        ("alloc_pool2", ConvBackend::Parallel(2), false),
        ("ws_pool2", ConvBackend::Parallel(2), true),
    ] {
        let mut rng = SmallRng::seed_from_u64(29);
        let mut pair = spec
            .build_pair(0.05, &mut rng)
            .expect("built-in spec is consistent");
        pair.set_backend(backend);
        let mut trainer = GanTrainer::new(pair, config);
        trainer.set_workspace_reuse(reuse);
        group.bench_function(name, |bch| {
            bch.iter(|| trainer.train_iteration(2, &mut rng))
        });
    }
    group.finish();

    let measurements = c.take_results();
    let base = measurements
        .iter()
        .find(|m| m.id == "trainstep/alloc_seq")
        .expect("baseline bench runs first")
        .mean_ns;
    let threads_of = |id: &str| if id.ends_with("pool2") { 2 } else { 1 };
    let mut rows: Vec<BenchRow> = measurements
        .iter()
        .map(|m| BenchRow {
            bench: "trainstep".to_string(),
            id: m.id.clone(),
            mean_ns: m.mean_ns,
            min_ns: m.min_ns,
            stddev_ns: m.stddev_ns,
            iters: m.iters,
            threads: threads_of(&m.id),
            simd: simd_label().to_string(),
            speedup: base / m.mean_ns,
            git_sha: String::new(),
            host: String::new(),
            run_id: 0,
        })
        .collect();

    let mut table = TextTable::new(["Benchmark", "ns/iter", "Speedup vs alloc_seq"]);
    for r in &rows {
        table.row([r.id.clone(), format!("{:.0}", r.mean_ns), fmt_x(r.speedup)]);
    }
    emit_bench(
        "BENCH_trainstep",
        "GAN training step: scalar vs packed SIMD, allocating vs workspace scratch, sequential vs pooled GEMM",
        &table,
        &mut rows,
    );

    let headline = |id: &str| rows.iter().find(|r| r.id == id).map_or(0.0, |r| r.speedup);
    println!(
        "Training-step speedup over allocating sequential: scalar-ref {} | ws {} | ws+pool2 {}",
        fmt_x(headline("trainstep/ws_scalar")),
        fmt_x(headline("trainstep/ws_seq")),
        fmt_x(headline("trainstep/ws_pool2")),
    );

    let min_of = |id: &str| {
        rows.iter()
            .find(|r| r.id == id)
            .map_or(f64::INFINITY, |r| r.min_ns)
    };

    // Regression gate: workspace reuse must beat allocating scratch at
    // identical threading (pool2 vs pool2). Comparing against `alloc_seq`
    // instead would entangle the workspace win with the pool's fixed
    // dispatch overhead, which on a one-core CI host is pure penalty and
    // now outweighs the reuse margin since dispatch shrank the compute
    // under it. Fastest-sample ratio for the usual noisy-host reason.
    let s = min_of("trainstep/alloc_pool2") / min_of("trainstep/ws_pool2");
    assert!(
        s > 1.0,
        "workspace+pool training step lost to its allocating twin: {}",
        fmt_x(s)
    );

    // Tentpole gate: the packed engine (cache-aware fills + SIMD
    // microkernel) must buy the *full train step* >=2x over the reference
    // engine (specification fills + blocked-scalar GEMM, same workspace
    // reuse). Fastest-sample ratio for the same noisy-host reason as the
    // gemm bench gates; exempt under ZFGAN_NO_SIMD=1.
    let s = min_of("trainstep/ws_scalar") / min_of("trainstep/ws_pool2");
    println!(
        "Packed train-step gate ws_pool2 vs ws_scalar: {} vs >=2x (simd: {})",
        fmt_x(s),
        simd_label()
    );
    assert!(
        simd_level() == SimdLevel::Scalar || s >= 2.0,
        "packed train step speedup {} over the scalar reference fell below the 2x gate",
        fmt_x(s)
    );

    // Dispatch gate: the shape-aware dispatcher (ikj pack bypass +
    // small-m streamed lowering) must buy the full train step >=1.15x
    // over the pre-dispatch engine: identical code with every GEMM forced
    // through the packed panel path. SIMD levels only, as above. Paired
    // in-process (one `ws_pool2` trainer, the forced path toggled between
    // alternating steps) rather than a ratio of two criterion rows: the
    // wide AVX-512 tile halves what forcing the load-bound small-m shapes
    // through the packed tile costs, so the ratio reads 1.15-1.27x there
    // against ~1.4x on the AVX2 tile, and two rows' unpaired minima read
    // anything from 0.94x to 1.33x around that.
    let mut rng = SmallRng::seed_from_u64(29);
    let mut pair = spec
        .build_pair(0.05, &mut rng)
        .expect("built-in spec is consistent");
    pair.set_backend(ConvBackend::Parallel(2));
    let trainer = std::cell::RefCell::new((GanTrainer::new(pair, config), rng));
    let step = |forced: Option<GemmPath>| {
        set_forced_path(forced);
        let (trainer, rng) = &mut *trainer.borrow_mut();
        std::hint::black_box(trainer.train_iteration(2, rng));
        set_forced_path(None);
    };
    step(None);
    let s = paired_ratio(
        DISPATCH_ROUNDS,
        || step(Some(GemmPath::Packed)),
        || step(None),
    );
    println!(
        "Dispatch train-step gate dispatched vs packed-only (paired, {DISPATCH_ROUNDS} rounds): {} vs >=1.15x (simd: {})",
        fmt_x(s),
        simd_label()
    );
    assert!(
        simd_level() == SimdLevel::Scalar || s >= 1.15,
        "shape-dispatch train step speedup {} over the packed-only engine fell below the 1.15x gate",
        fmt_x(s)
    );
}
