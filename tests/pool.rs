//! Cross-crate pool and workspace properties: everything that runs on the
//! persistent pool or draws scratch from a [`ConvWorkspace`] must be
//! **bit-identical** to its sequential / allocating counterpart, and pool
//! panics must surface as typed errors.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use zfgan::nn::{Activation, ConvLayer, Direction};
use zfgan::pool::{parallel_map, PoolError};
use zfgan::tensor::gemm::{matmul_blocked, matmul_chunked};
use zfgan::tensor::im2col::Matrix;
use zfgan::tensor::microkernel::simd_level;
use zfgan::tensor::{ConvGeom, ConvWorkspace, Fmaps, Kernels};

/// A random matmul shape (both operands post-ReLU sparse like real
/// activations) plus a row-chunk length and seed.
fn arb_matmul() -> impl Strategy<Value = (usize, usize, usize, usize, u64)> {
    (
        1usize..=24,
        1usize..=16,
        1usize..=20,
        1usize..=6,
        any::<u64>(),
    )
}

fn sparse_matrix(rows: usize, cols: usize, rng: &mut SmallRng) -> Matrix<f32> {
    let f = Fmaps::random(1, rows, cols, 1.0, rng).map(|v| if v > 0.0 { v } else { 0.0 });
    Matrix::from_vec(rows, cols, f.as_slice().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A packed GEMM fanned out over the pool in explicit row chunks
    /// equals the default engine bit for bit over random shapes and chunk
    /// lengths (same fused accumulation order however rows are
    /// partitioned, and whichever pool thread runs a chunk).
    #[test]
    fn pooled_matmul_is_bit_identical((m, k, n, rows_per_chunk, seed) in arb_matmul()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = sparse_matrix(m, k, &mut rng);
        let b = sparse_matrix(k, n, &mut rng);
        let seq = matmul_blocked(&a, &b).unwrap();
        let mut par = Matrix::zeros(m, n);
        let (level, ws) = (simd_level(), &mut ConvWorkspace::new());
        matmul_chunked(&a, &b, &mut par, false, level, None, rows_per_chunk, ws);
        prop_assert_eq!(seq, par);
    }

    /// Pooled `parallel_map` preserves order and values exactly.
    #[test]
    fn parallel_map_matches_sequential_map(n in 0usize..200, seed in any::<u64>()) {
        let xs: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(seed | 1)).collect();
        let seq: Vec<u64> = xs.iter().map(|x| x.rotate_left(7) ^ 0xabcd).collect();
        let par = parallel_map(xs.len(), |i| xs[i].rotate_left(7) ^ 0xabcd).unwrap();
        prop_assert_eq!(seq, par);
    }
}

/// A random layer (direction, geometry, channels) for the workspace
/// round-trip property.
fn arb_layer() -> impl Strategy<Value = (bool, usize, usize, usize, usize, u64)> {
    (
        any::<bool>(),
        1usize..=3, // stride selector
        1usize..=3, // small-side channels
        1usize..=3, // large-side channels
        2usize..=4, // small-side spatial half-size
        any::<u64>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A layer's workspace-fed forward/backward equals the allocating pair
    /// bit for bit over random directions and geometries, through one
    /// workspace reused (dirty) across all cases of the run.
    #[test]
    fn workspace_layer_passes_are_bit_identical(
        (up, stride, small_c, large_c, half, seed) in arb_layer()
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let k = (stride + 2).min(4);
        let small_hw = half * 2;
        let large_hw = small_hw * stride;
        let geom = ConvGeom::down(large_hw, large_hw, k, k, stride, small_hw, small_hw)
            .expect("constructed to be valid");
        let (dir, in_shape) = if up {
            (Direction::Up, (small_c, small_hw, small_hw))
        } else {
            (Direction::Down, (large_c, large_hw, large_hw))
        };
        let weights = Kernels::random(small_c, large_c, k, k, 0.5, &mut rng);
        let layer = ConvLayer::new(
            dir,
            geom,
            weights,
            Activation::LeakyRelu { alpha: 0.2 },
            in_shape,
        )
        .expect("consistent construction");
        let x = Fmaps::random(in_shape.0, in_shape.1, in_shape.2, 1.0, &mut rng);

        let mut ws: ConvWorkspace<f32> = ConvWorkspace::new();
        // Round 2 runs on recycled buffers — the dirty-reuse state.
        for round in 0..2 {
            let (pre, post) = layer.forward(&x).unwrap();
            let (pre_w, post_w) = layer.forward_ws(&x, &mut ws).unwrap();
            prop_assert_eq!(&pre, &pre_w, "pre r{}", round);
            prop_assert_eq!(&post, &post_w, "post r{}", round);

            let delta = post.map(|v| v * 0.5 - 0.1);
            let (dx, grads) = layer.backward(&delta, &pre, &x).unwrap();
            let (dx_w, grads_w) = layer.backward_ws(&delta, &pre, &x, &mut ws).unwrap();
            prop_assert_eq!(&dx, &dx_w, "dx r{}", round);
            prop_assert_eq!(&grads.weights, &grads_w.weights, "dw r{}", round);
            prop_assert_eq!(&grads.bias, &grads_w.bias, "db r{}", round);

            ws.give_fmaps(pre_w);
            ws.give_fmaps(post_w);
            ws.give_fmaps(dx_w);
            grads_w.recycle(&mut ws);
        }
    }
}

/// A worker panic inside a pool batch surfaces as the typed
/// [`PoolError::TaskPanicked`] — with the failure count — and does not
/// poison the pool for later batches.
#[test]
fn pool_panics_become_typed_errors() {
    let err = parallel_map(8, |i| {
        assert!(i != 3 && i != 5, "injected failure");
        i * 2
    })
    .unwrap_err();
    match err {
        PoolError::TaskPanicked { failed, total } => {
            assert_eq!(failed, 2);
            assert_eq!(total, 8);
        }
    }
    assert!(err.to_string().contains("pool tasks panicked"));
    // The pool keeps working after a panicked batch.
    let ok = parallel_map(16, |i| i + 1).unwrap();
    assert_eq!(ok, (1..=16).collect::<Vec<_>>());
}

/// A sample whose shape does not match the critic panics its lane; the
/// panic reaches `step_discriminator` on the calling thread once the
/// lane's group has drained, as a panic a supervisor can contain. The
/// trainer stays usable: rolled back to a snapshot it takes the next step
/// exactly as a fresh trainer does — none of the samples its lanes held
/// for the failed step survives into it — and a supervised iteration on it
/// completes. Run in both modes; synchronized, the step panics in its
/// forward phase, before any error walk.
#[test]
fn a_panicking_lane_panics_the_step_after_its_group_drains() {
    use zfgan::nn::SyncMode;
    for mode in [SyncMode::Deferred, SyncMode::Synchronized] {
        panicking_lane(mode);
    }
}

/// One run of [`a_panicking_lane_panics_the_step_after_its_group_drains`]
/// in `mode`.
fn panicking_lane(mode: zfgan::nn::SyncMode) {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    use zfgan::nn::{
        GanPair, GanTrainer, SupervisedTrainer, SupervisorConfig, SyncMode, TrainerConfig,
    };
    use zfgan::telemetry::{export::counter_total, Registry};
    let trainer = || {
        let pair = GanPair::tiny(&mut SmallRng::seed_from_u64(40));
        let config = TrainerConfig {
            mode,
            ..TrainerConfig::default()
        };
        GanTrainer::new(pair, config)
    };
    let mut rng = SmallRng::seed_from_u64(41);
    let mut reals = trainer().gan().sample_real_batch(4, &mut rng);
    let good = reals.clone();
    let bad = 2;
    reals[bad] = Fmaps::zeros(1, 4, 4);

    let mut hurt = trainer();
    let before = hurt.snapshot();
    // The GEMMs each pass runs, counted under a scope of their own.
    let gemm_calls = |pass: &mut dyn FnMut()| {
        let reg = Arc::new(Registry::new());
        {
            let _scope = zfgan::telemetry::scope(Arc::clone(&reg));
            pass();
        }
        counter_total(&reg, "gemm_calls")
    };
    let mut panic = None;
    let failed_step_calls = gemm_calls(&mut || {
        let step = || hurt.step_discriminator(&reals, &mut SmallRng::seed_from_u64(42));
        panic = catch_unwind(AssertUnwindSafe(step)).err();
    });
    let panic = panic.expect("a mis-shaped sample must panic the step");
    let message = panic
        .downcast_ref::<String>()
        .expect("the step panics with a message");
    assert!(
        message.contains("sample lane panicked"),
        "{mode:?}: {message}"
    );
    if mode == SyncMode::Synchronized {
        // The barrier: the step ran the fakes' Generator forwards and the
        // critic forwards of every group up to the bad sample's, and
        // nothing else.
        let gan = before.gan();
        let z = gan
            .sample_z_batch(1, &mut SmallRng::seed_from_u64(43))
            .remove(0);
        let gen_forward = gemm_calls(&mut || drop(gan.generator().forward(&z)));
        let critic_forward = gemm_calls(&mut || drop(gan.discriminator().forward(&good[0])));
        let width = zfgan::pool::pool_threads();
        let ran = (good.len() * 2).min((bad / width + 1) * width) - 1;
        assert_eq!(
            failed_step_calls,
            good.len() as u64 * gen_forward + ran as u64 * critic_forward,
            "the synchronized step ran more than forward passes"
        );
    }

    hurt.restore(&before);
    let mut fresh = trainer();
    let a = hurt.step_discriminator(&good, &mut SmallRng::seed_from_u64(42));
    let b = fresh.step_discriminator(&good, &mut SmallRng::seed_from_u64(42));
    assert_eq!(a, b, "{mode:?}");
    for (x, y) in hurt
        .gan()
        .discriminator()
        .layers()
        .iter()
        .zip(fresh.gan().discriminator().layers())
    {
        assert_eq!(x.weights(), y.weights(), "{mode:?}");
    }

    let mut supervised =
        SupervisedTrainer::new(hurt, SupervisorConfig::default()).expect("default config");
    let (dis, gen) = supervised
        .train_iteration(4, &mut rng)
        .expect("a clean iteration passes its health check");
    assert!(dis.dis_loss.is_finite() && gen.gen_loss.is_finite());
}

/// Deferred ≡ synchronized around fanned passes: after every optimizer
/// step the stepped network's middle layer rewrites its phase sub-kernels
/// fanned out over the pool (it holds more weights than the fan-out
/// threshold), and the next sample loop runs passes over that network on
/// several lanes at once. Both modes run their samples on the lanes of the
/// pool width the test runs at, the synchronized one behind its barrier,
/// and must land on the same weights bit for bit.
///
/// Run twice: on 8×8 images the critic's GEMMs stay inline, so only the
/// rewrites and optimizer steps fan out; on 16×16 images the middle
/// layer's GEMMs fan out too, from inside the lanes.
#[test]
fn deferred_matches_synchronized_around_fanned_passes() {
    for side in [8, 16] {
        lanes_around_fanned_passes(side);
    }
}

/// One run of [`deferred_matches_synchronized_around_fanned_passes`] on
/// `side × side` images.
fn lanes_around_fanned_passes(side: usize) {
    use zfgan::nn::{ConvNet, GanPair, GanTrainer, SyncMode, TrainerConfig};
    use zfgan::tensor::microkernel::FAN_OUT_MIN_MACS;
    let mut rng = SmallRng::seed_from_u64(44);
    let (body_out, mid_out) = (side / 2, side / 4);
    let body = ConvGeom::down(side, side, 4, 4, 2, body_out, body_out).expect("static geometry");
    let mid = ConvGeom::down(body_out, body_out, 4, 4, 2, mid_out, mid_out).expect("static");
    let head = ConvGeom::down(mid_out, mid_out, mid_out, mid_out, 1, 1, 1).expect("static");
    let leaky = Activation::LeakyRelu { alpha: 0.2 };
    let mut layer = |dir, geom, small_c, large_c, act, in_shape| {
        ConvLayer::random(dir, geom, small_c, large_c, act, in_shape, 0.25, &mut rng)
            .expect("static shapes")
    };
    let (down, up) = (Direction::Down, Direction::Up);
    let generator = ConvNet::new(vec![
        layer(up, head, 16, 128, Activation::Relu, (16, 1, 1)),
        layer(up, mid, 128, 64, Activation::Relu, (128, mid_out, mid_out)),
        layer(up, body, 64, 1, Activation::Tanh, (64, body_out, body_out)),
    ])
    .expect("static stack");
    let critic = ConvNet::new(vec![
        layer(down, body, 64, 1, leaky, (1, side, side)),
        layer(down, mid, 128, 64, leaky, (64, body_out, body_out)),
        layer(
            down,
            head,
            1,
            128,
            Activation::Identity,
            (128, mid_out, mid_out),
        ),
    ])
    .expect("static stack");
    let mid_weights = critic.layers()[1].weights().len();
    assert!(mid_weights >= zfgan::pool::PASS_FAN_OUT_MIN_ELEMS);
    // The middle layer's forward GEMM: 128 maps × 64·4·4 taps × its pixels.
    let mid_macs = mid_weights * mid_out * mid_out;
    assert_eq!(mid_macs >= FAN_OUT_MIN_MACS, side == 16, "side {side}");
    let pair = GanPair::new(generator, critic).expect("consistent pair");
    let trainer = |mode| {
        let config = TrainerConfig {
            mode,
            n_critic: 1,
            ..TrainerConfig::default()
        };
        GanTrainer::new(pair.clone(), config)
    };
    let (mut deferred, mut synced) = (trainer(SyncMode::Deferred), trainer(SyncMode::Synchronized));
    let (mut rng_a, mut rng_b) = (SmallRng::seed_from_u64(45), SmallRng::seed_from_u64(45));
    for round in 0..3 {
        let got = deferred.train_iteration(4, &mut rng_a);
        let want = synced.train_iteration(4, &mut rng_b);
        assert_eq!(
            (got.0.dis_loss, got.1.gen_loss),
            (want.0.dis_loss, want.1.gen_loss),
            "side {side}, round {round}"
        );
        let nets = |t: &GanTrainer| [t.gan().generator().clone(), t.gan().discriminator().clone()];
        for (g, w) in nets(&deferred).iter().zip(&nets(&synced)) {
            for (lg, lw) in g.layers().iter().zip(w.layers()) {
                assert_eq!(lg.weights(), lw.weights(), "side {side}, round {round}");
                assert_eq!(lg.bias(), lw.bias(), "side {side}, round {round}");
            }
        }
    }
}

/// Runs test `name` of this binary alone in a child process at pool width
/// `threads` (the pool's width is fixed once per process), under a timeout
/// that turns a deadlock into a failure, and returns its captured output.
fn run_at_width(name: &str, threads: &str) -> String {
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = Command::new(&exe)
        .args([name, "--exact", "--test-threads=1", "--nocapture"])
        .env("ZFGAN_THREADS", threads)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the test binary");
    let started = Instant::now();
    while child.try_wait().expect("poll the child").is_none() {
        if started.elapsed() > Duration::from_secs(300) {
            child.kill().expect("kill the stuck child");
            panic!("{name} at pool width {threads} did not finish in 300 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("child output");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "{name} at pool width {threads}: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// [`deferred_matches_synchronized_around_fanned_passes`] at pool widths 2
/// and 8.
#[test]
fn lanes_around_fanned_passes_match_at_pool_widths_2_and_8() {
    for threads in ["2", "8"] {
        run_at_width(
            "deferred_matches_synchronized_around_fanned_passes",
            threads,
        );
    }
}

/// MNIST-GAN at batch 4 under a telemetry scope, in each mode (two
/// deferred iterations, one synchronized): prints a digest of every weight
/// and bias of both networks (with the losses) and the scope's
/// deterministic section, one line each per mode, for the width
/// comparisons below.
#[test]
fn lane_training_digest_and_telemetry() {
    use std::sync::Arc;
    use zfgan::nn::{GanTrainer, SyncMode, TrainerConfig};
    use zfgan::telemetry::{export::deterministic_section, Registry};
    for (mode, iterations) in [(SyncMode::Deferred, 2), (SyncMode::Synchronized, 1)] {
        let mut rng = SmallRng::seed_from_u64(2024);
        let pair = zfgan::workloads::GanSpec::mnist_gan()
            .build_pair(0.05, &mut rng)
            .expect("paper spec builds");
        let config = TrainerConfig {
            mode,
            n_critic: 1,
            ..TrainerConfig::default()
        };
        let mut trainer = GanTrainer::new(pair, config);
        let reg = Arc::new(Registry::new());
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bits: u64| digest = (digest ^ bits).wrapping_mul(0x0100_0000_01b3);
        {
            let _scope = zfgan::telemetry::scope(Arc::clone(&reg));
            for _ in 0..iterations {
                let (dis, gen) = trainer.train_iteration(4, &mut rng);
                eat(dis.dis_loss.to_bits());
                eat(gen.gen_loss.to_bits());
            }
        }
        let gan = trainer.gan();
        for net in [gan.generator(), gan.discriminator()] {
            for layer in net.layers() {
                for v in layer.weights().as_slice().iter().chain(layer.bias()) {
                    eat(u64::from(v.to_bits()));
                }
            }
        }
        let section = deterministic_section(&reg);
        assert!(section.contains("gemm_calls"), "{section}");
        println!("lane digest {mode:?} {digest:#018x}");
        println!("lane telemetry {mode:?} {section}");
    }
}

/// What [`lane_training_digest_and_telemetry`] prints from `prefix` to the
/// end of its line, run at pool width `threads`.
/// Both tests below read the same children: one run per width.
fn lane_output(prefix: &str, threads: &str) -> String {
    use std::collections::BTreeMap;
    use std::sync::{Mutex, PoisonError};
    static RUNS: Mutex<BTreeMap<String, String>> = Mutex::new(BTreeMap::new());
    let out = RUNS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .entry(threads.to_string())
        .or_insert_with(|| run_at_width("lane_training_digest_and_telemetry", threads))
        .clone();
    out.lines()
        .find_map(|l| l.find(prefix).map(|at| l[at..].to_string()))
        .unwrap_or_else(|| panic!("no '{prefix}' line at width {threads}: {out}"))
}

/// Sample lanes land every weight gradient in sample order, so a batch-4
/// trainer at pool widths 2 and 8 ends on the weights and losses of a
/// serial (`ZFGAN_THREADS=1`) child, bit for bit, in either mode.
#[test]
fn lanes_train_bit_identically_at_pool_widths_2_and_8() {
    for mode in ["Deferred", "Synchronized"] {
        let prefix = format!("lane digest {mode} ");
        let serial = lane_output(&prefix, "1");
        for threads in ["2", "8"] {
            let lanes = lane_output(&prefix, threads);
            assert_eq!(serial, lanes, "{mode}, width {threads}");
        }
    }
}

/// Every lane re-enters the submitter's telemetry scope, so a batch-4
/// train run at pool width 2 records the deterministic section of a
/// serial (`ZFGAN_THREADS=1`) child byte for byte, in either mode.
#[test]
fn lane_telemetry_matches_a_serial_child() {
    for mode in ["Deferred", "Synchronized"] {
        let prefix = format!("lane telemetry {mode} ");
        assert_eq!(
            lane_output(&prefix, "1"),
            lane_output(&prefix, "2"),
            "{mode}"
        );
    }
}
