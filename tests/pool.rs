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

/// The nn parallel helper maps pool panics onto its own typed
/// [`ParallelError::WorkerPanicked`] ladder (pinned in-crate too; this
/// checks the cross-crate wiring end to end).
#[test]
fn nn_parallel_error_ladder_survives_the_pool() {
    use zfgan::nn::parallel::ParallelError;
    let mut rng = SmallRng::seed_from_u64(40);
    let pair = zfgan::nn::GanPair::tiny(&mut rng);
    // Wrong image shape → forward panics inside the workers.
    let bad = vec![Fmaps::<f32>::zeros(1, 4, 4); 2];
    let err = zfgan::nn::parallel::try_parallel_dis_grads_with(pair.discriminator(), &bad, &bad, 2)
        .unwrap_err();
    match err {
        ParallelError::WorkerPanicked { failed, spawned } => {
            assert!(failed >= 1 && failed <= spawned);
        }
    }
}

/// The hazard of a fanned sub-kernel re-gather: a layer gathers under its
/// cache's write guard and reads it under the read guard, and the
/// per-sample fan-out runs critic passes over one network on several pool
/// threads at once, every one of which needs that lock. The critic's middle
/// layer holds more weights than the re-gather's fan-out threshold, so the
/// per-sample tasks are still queued when the first of them re-gathers.
/// Right after every layer's weights were handed out mutably, eight
/// concurrent backward passes must finish, and match the sequential path
/// bit for bit. A submitter that helped with another batch's task while
/// holding either guard would deadlock on itself here.
///
/// Run twice: on 8×8 images the critic's GEMMs stay inline, so only the
/// gather fans out under the write guard; on 16×16 images the middle
/// layer's GEMMs fan out too, from inside the read guard.
#[test]
fn concurrent_critic_passes_after_a_weight_change_finish() {
    for side in [8, 16] {
        concurrent_critic_passes(side);
    }
}

/// One run of [`concurrent_critic_passes_after_a_weight_change_finish`] on
/// `side × side` images.
fn concurrent_critic_passes(side: usize) {
    use zfgan::nn::parallel::{sequential_dis_grads, try_parallel_dis_grads_with};
    use zfgan::nn::ConvNet;
    use zfgan::tensor::microkernel::FAN_OUT_MIN_MACS;
    let mut rng = SmallRng::seed_from_u64(44);
    let (body_out, mid_out) = (side / 2, side / 4);
    let body = ConvGeom::down(side, side, 4, 4, 2, body_out, body_out).expect("static geometry");
    let mid = ConvGeom::down(body_out, body_out, 4, 4, 2, mid_out, mid_out).expect("static");
    let head = ConvGeom::down(mid_out, mid_out, mid_out, mid_out, 1, 1, 1).expect("static");
    let leaky = Activation::LeakyRelu { alpha: 0.2 };
    let mut layer = |geom, small_c, large_c, act, in_shape| {
        ConvLayer::random(
            Direction::Down,
            geom,
            small_c,
            large_c,
            act,
            in_shape,
            0.25,
            &mut rng,
        )
        .expect("static shapes")
    };
    let mut critic = ConvNet::new(vec![
        layer(body, 64, 1, leaky, (1, side, side)),
        layer(mid, 128, 64, leaky, (64, body_out, body_out)),
        layer(head, 1, 128, Activation::Identity, (128, mid_out, mid_out)),
    ])
    .expect("static stack");
    let mid_weights = critic.layers()[1].weights().len();
    assert!(mid_weights >= zfgan::pool::PASS_FAN_OUT_MIN_ELEMS);
    // The middle layer's forward GEMM: 128 maps × 64·4·4 taps × its pixels.
    let mid_macs = mid_weights * mid_out * mid_out;
    assert_eq!(mid_macs >= FAN_OUT_MIN_MACS, side == 16, "side {side}");
    let images = |rng: &mut SmallRng| -> Vec<Fmaps<f32>> {
        (0..4)
            .map(|_| Fmaps::random(1, side, side, 1.0, rng))
            .collect()
    };
    let (reals, fakes) = (images(&mut rng), images(&mut rng));
    for round in 0..8 {
        for layer in critic.layers_mut() {
            layer.weights_mut().as_mut_slice()[round] += 0.001;
        }
        let (grads, real, fake) =
            try_parallel_dis_grads_with(&critic, &reals, &fakes, 8).expect("no pool task panicked");
        for layer in critic.layers_mut() {
            layer.weights_mut();
        }
        let (want, want_real, want_fake) = sequential_dis_grads(&critic, &reals, &fakes);
        assert_eq!(
            (real, fake),
            (want_real, want_fake),
            "side {side}, round {round}"
        );
        for (g, w) in grads.iter().zip(&want) {
            assert_eq!(g.weights, w.weights, "side {side}, round {round}");
            assert_eq!(g.bias, w.bias, "side {side}, round {round}");
        }
    }
}

/// [`concurrent_critic_passes_after_a_weight_change_finish`] in a child
/// process of this test binary at pool widths 2 and 8 (the pool's width is
/// fixed once per process), each under a timeout that turns a deadlock
/// into a failure.
#[test]
fn concurrent_critic_passes_finish_at_pool_widths_2_and_8() {
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};
    let exe = std::env::current_exe().expect("test binary path");
    let name = "concurrent_critic_passes_after_a_weight_change_finish";
    for threads in ["2", "8"] {
        let mut child = Command::new(&exe)
            .args([name, "--exact", "--test-threads=1"])
            .env("ZFGAN_THREADS", threads)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn the test binary");
        let started = Instant::now();
        while child.try_wait().expect("poll the child").is_none() {
            if started.elapsed() > Duration::from_secs(300) {
                child.kill().expect("kill the stuck child");
                panic!("critic passes at pool width {threads} did not finish in 300 s");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("child output");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "pool width {threads}: {stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
