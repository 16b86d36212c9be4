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
