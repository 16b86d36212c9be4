//! GEMM fast-path ratio gates on paper GAN layer shapes: the packed kernel
//! over the naive triple loop, the engine's own pool fan-out over the same
//! engine held to one inline chunk, the dispatcher's engines over the
//! forced packed path, and the AVX-512 tile over the AVX2 tile.
//!
//! Every gate is one [`paired_ratio`] of two variants that agree
//! numerically per the family contracts pinned by `tests/fast_conv.rs`
//! (packed f32 kernels mutually bit-identical and within the fused
//! accumulation bound of naive; Q8.8 bit-identical everywhere), so every
//! ratio is pure speed. Absolute times are the `train_mnist` /
//! `train_dcgan` workloads of `BENCHMARK.json`.

use std::cell::RefCell;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use zfgan_bench::{gate, paired_ratio};
use zfgan_tensor::gemm::{matmul_blocked, matmul_blocked_into, matmul_chunked};
use zfgan_tensor::im2col::{im2col_s, weights_as_matrix_s, Matrix};
use zfgan_tensor::microkernel::{choose_path, simd_label, simd_level, GemmPath, SimdLevel};
use zfgan_tensor::{ConvGeom, ConvWorkspace, Fmaps, Fx, Kernels};

/// Rounds behind every paired ratio here.
const PAIRED_ROUNDS: usize = 21;

/// Floor of the paired packed-over-naive ratio on the dense batch shape.
/// The unpaired min-vs-min ratio of this pair read 3.7-4.1x on the CI host
/// and needed retry rounds at a 4x gate; the paired ratio read 3.69-4.52x
/// over 12 fresh processes there (what is left is per-process operand
/// placement, which pairing cannot cancel), so the floor sits a tenth
/// under its observed range.
const BATCH_FLOOR: f64 = 3.3;

/// A speed floor that binds on the SIMD levels only: the scalar fallback
/// (`ZFGAN_NO_SIMD=1`) exists for determinism checks, not speed.
fn simd_floor(floor: f64) -> f64 {
    if simd_level() == SimdLevel::Scalar {
        0.0
    } else {
        floor
    }
}

/// MNIST-GAN layer 2 (Table IV): 64 → 128 maps, 14×14 → 7×7, 5×5, stride 2.
fn mnist_layer2() -> ConvGeom {
    ConvGeom::down(14, 14, 5, 5, 2, 7, 7).expect("static geometry")
}

/// Gates `fast(a, b)` over the naive triple loop ([`Matrix::matmul`]) on
/// `a × b`.
fn gate_over_naive<T: zfgan_tensor::Num>(
    name: &str,
    floor: f64,
    fast: impl Fn(&Matrix<T>, &Matrix<T>) -> zfgan_tensor::TensorResult<Matrix<T>>,
    a: &Matrix<T>,
    b: &Matrix<T>,
) {
    let naive = || {
        std::hint::black_box(a.matmul(b).expect("conforming operands"));
    };
    let fast = || {
        std::hint::black_box(fast(a, b).expect("conforming operands"));
    };
    gate(name, floor, paired_ratio(PAIRED_ROUNDS, naive, fast));
}

/// The packed kernel over naive on the lowered MNIST-GAN S-CONV: a
/// 49×1600 patch matrix against a 1600×128 weight matrix.
fn gate_matmul_kinds() {
    let mut rng = SmallRng::seed_from_u64(21);
    let geom = mnist_layer2();
    // Post-ReLU activations: roughly half the entries are exact zeros, so
    // the naive loop's per-word zero skip halves its own work and the
    // packed kernel must win by 2x while doing twice the arithmetic.
    let input = Fmaps::random(64, 14, 14, 1.0, &mut rng).map(|v| if v > 0.0 { v } else { 0.0 });
    let k = Kernels::random(128, 64, 5, 5, 0.25, &mut rng);
    let a: Matrix<f32> = im2col_s(&input, &geom).patches;
    let b = weights_as_matrix_s(&k);
    gate_over_naive("matmul/blocked", simd_floor(2.0), matmul_blocked, &a, &b);

    // Batch-4 dense activations (pre-ReLU / post-BatchNorm maps carry no
    // structural zeros): the naive loop's zero skip buys nothing on this
    // batch-lowered 196×1600 patch matrix, so the ratio is raw kernel
    // throughput.
    let mut data = Vec::new();
    for _ in 0..4 {
        let dense = Fmaps::random(64, 14, 14, 1.0, &mut rng);
        data.extend_from_slice(im2col_s(&dense, &geom).patches.as_slice());
    }
    let ab: Matrix<f32> = Matrix::from_vec(data.len() / a.cols(), a.cols(), data);
    gate_over_naive(
        "matmul_batch/blocked",
        simd_floor(BATCH_FLOOR),
        matmul_blocked,
        &ab,
        &b,
    );

    // The single-image shape in Q8.8: the vectorized saturating i16 kernel
    // against the naive triple loop.
    let to_fx = |m: &Matrix<f32>| {
        Matrix::from_vec(
            m.rows(),
            m.cols(),
            m.as_slice().iter().map(|v| Fx::from_f32(*v)).collect(),
        )
    };
    gate_over_naive(
        "matmul_fx/blocked",
        simd_floor(2.0),
        matmul_blocked,
        &to_fx(&a),
        &to_fx(&b),
    );
}

/// Gates route `fast` over route `base` of the packed engine's test handle
/// (`matmul_chunked` at an explicit level and path, one inline chunk) on
/// `a × b` (`m×kk×n`). Both sides write one output through one workspace,
/// so where the allocator put them is the same on both sides, and make
/// enough calls a timing that one takes a few milliseconds.
fn gate_routes(
    name: &str,
    floor: f64,
    [base, fast]: [(SimdLevel, GemmPath); 2],
    (a, b): (&[f32], &[f32]),
    (m, kk, n): (usize, usize, usize),
) {
    let reps = (1.0e8 / (m * kk * n) as f64).ceil() as usize;
    let (a, b) = (
        Matrix::from_vec(m, kk, a.to_vec()),
        Matrix::from_vec(kk, n, b.to_vec()),
    );
    let buffers = RefCell::new((Matrix::zeros(m, n), ConvWorkspace::new()));
    let side = |(level, path)| {
        let (a, b, buffers) = (&a, &b, &buffers);
        move || {
            let (out, ws) = &mut *buffers.borrow_mut();
            for _ in 0..reps {
                matmul_chunked(a, b, out, false, level, Some(path), m, ws);
                std::hint::black_box(&mut *out);
            }
        }
    };
    gate(
        name,
        floor,
        paired_ratio(PAIRED_ROUNDS, side(base), side(fast)),
    );
}

/// Gates the engine the dispatcher picks for `a × b` at >=2x over the
/// packed panel path: the pack bypass (ikj) and the pack + fill bypass
/// (small-m streaming) are the whole point of routing these shapes away
/// from the panel kernel.
fn gate_dispatch(name: &str, picked: GemmPath, a: &[f32], b: &[f32], dims: (usize, usize, usize)) {
    let zeros = a.iter().filter(|v| **v == 0.0).count() as u64;
    assert_eq!(
        choose_path(dims.0, dims.1, dims.2, zeros),
        picked,
        "dispatcher must route the {name} shape to {picked:?}"
    );
    let routes = [GemmPath::Packed, picked].map(|path| (simd_level(), path));
    gate_routes(name, simd_floor(2.0), routes, (a, b), dims);
}

/// The shapes the dispatcher exists for:
///
/// * the MNIST-GAN projection GEMM — 49×4900×128 at ~2% density whose
///   live columns recur at stride 49 (one pixel per source channel), so
///   every KP=8 panel straddles a nonzero and the packed kernel's masks
///   skip nothing → broadcast-FMA `ikj`, which skips element-wise and
///   never packs `B`;
/// * the `m = 1` input-grad GEMM — 1×6272×100 on a ~50% ReLU-sparse
///   row, where packing 627k words of `B` for one output row dwarfs the
///   arithmetic → the small-`m` streaming engine.
fn gate_dispatch_shapes() {
    let mut rng = SmallRng::seed_from_u64(24);

    // Projection t-conv forward: row r is live only at columns ch·49 + r.
    let (pm, pkk, pn) = (49usize, 4900usize, 128usize);
    let mut a_proj = vec![0.0f32; pm * pkk];
    for r in 0..pm {
        for ch in 0..100 {
            a_proj[r * pkk + ch * pm + r] = rng.gen_range(0.1f32..1.0);
        }
    }
    let b_proj: Vec<f32> = (0..pkk * pn).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    gate_dispatch(
        "dispatch_proj/ikj",
        GemmPath::Ikj,
        &a_proj,
        &b_proj,
        (pm, pkk, pn),
    );

    // m = 1 input-grad: one ReLU-sparse error row against a wide B.
    let (gm, gkk, gn) = (1usize, 6272usize, 100usize);
    let a_grad: Vec<f32> = (0..gm * gkk)
        .map(|_| rng.gen_range(-1.0f32..1.0).max(0.0))
        .collect();
    let b_grad: Vec<f32> = (0..gkk * gn).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    gate_dispatch(
        "dispatch_m1/smallm",
        GemmPath::SmallM,
        &a_grad,
        &b_grad,
        (gm, gkk, gn),
    );
}

/// The distinct packed GEMM shapes of the two train workloads plus two
/// wide ones, each with the floor its AVX-512-over-AVX2 paired ratio must
/// hold: 1.2x where the pair tile has whole panel pairs and a long `k` to
/// run over, "not slower" (0.97x) everywhere else — the single-panel
/// `n = 16` shape and the 3-row shape are bound by streaming `A` and by
/// the `B` pack, which the tile width does not touch.
const WIDE_TILE_SHAPES: [(usize, usize, usize, f64); 9] = [
    (256, 3200, 256, 1.2),
    (64, 75, 4096, 1.2),
    (512, 16, 6400, 0.97),
    (256, 3200, 64, 0.97),
    (128, 1600, 256, 0.97),
    (64, 75, 1024, 0.97),
    (3, 384, 1024, 0.97),
    (512, 6400, 16, 0.97),
    (64, 1024, 75, 0.97),
];

/// Gates the AVX-512 pair tile against the AVX2 tile, both through the
/// test handle's explicit-level packed route (scan + pack + tile, so the
/// ratio is the one a train step sees). Skipped unless AVX-512 is the process level.
fn gate_wide_tile() {
    if simd_level() != SimdLevel::Avx512 {
        println!("wide_tile gates skipped (simd: {})", simd_label());
        return;
    }
    let mut rng = SmallRng::seed_from_u64(25);
    for (m, kk, n, floor) in WIDE_TILE_SHAPES {
        let a: Vec<f32> = (0..m * kk).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b: Vec<f32> = (0..kk * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let routes = [SimdLevel::Avx2Fma, SimdLevel::Avx512].map(|level| (level, GemmPath::Packed));
        let name = format!("wide_tile/{m}x{kk}x{n}");
        gate_routes(&name, floor, routes, (&a, &b), (m, kk, n));
    }
}

/// Floor of the fan-out gates. Ten fresh processes on the two-core CI host
/// read 1.15-1.36x (`256x3200x64`, eight of them 1.31-1.32x) and 1.24-1.44x
/// (`128x1600x256`): what is missing from 2x is the serial `A` scan, the
/// memory both threads stream `B` through, and — the low readings — a
/// worker the kernel woke on the submitter's own core and migrated
/// milliseconds later. A fan-out that stopped fanning out reads 1.00x.
const FAN_OUT_FLOOR: f64 = 1.1;

/// The default engine — scan, pack and tile, fanned out as
/// `microkernel::fan_out_rows` decides — over the same engine held to one
/// inline chunk (`matmul_chunked` at `rows_per_chunk = m`), on two DCGAN
/// shapes past `FAN_OUT_MIN_MACS` and one MNIST-GAN shape under it. Past
/// the threshold a second pool thread must buy [`FAN_OUT_FLOOR`]; under it
/// the default engine *is* the inline one, and must read so within 5 %
/// either way (0.99-1.01x over the same ten processes).
fn gate_fan_out() {
    let mut rng = SmallRng::seed_from_u64(26);
    let fans_out = zfgan_pool::pool_threads() >= 2;
    for (m, kk, n, over) in [
        (256usize, 3200usize, 64usize, true),
        (128, 1600, 256, true),
        (64, 512, 49, false),
    ] {
        let name = format!("fanout/{m}x{kk}x{n}");
        if over && !fans_out {
            println!("gate {name}: skipped at pool width 1");
            continue;
        }
        let mut draw = |rows: usize, cols: usize| {
            let data = (0..rows * cols)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect();
            Matrix::from_vec(rows, cols, data)
        };
        let (a, b) = (draw(m, kk), draw(kk, n));
        let reps = (1.0e8 / (m * kk * n) as f64).ceil() as usize;
        let buffers = RefCell::new((Matrix::zeros(m, n), ConvWorkspace::new()));
        let inline = || {
            let (out, ws) = &mut *buffers.borrow_mut();
            for _ in 0..reps {
                matmul_chunked(&a, &b, out, false, simd_level(), None, m, ws);
                std::hint::black_box(&mut *out);
            }
        };
        let default = || {
            let (out, _) = &mut *buffers.borrow_mut();
            for _ in 0..reps {
                matmul_blocked_into(&a, &b, out).expect("conforming operands");
                std::hint::black_box(&mut *out);
            }
        };
        let ratio = paired_ratio(PAIRED_ROUNDS, inline, default);
        if over {
            gate(&name, simd_floor(FAN_OUT_FLOOR), ratio);
        } else {
            gate(&name, 0.95, ratio);
            assert!(ratio <= 1.05, "{name}: an inline GEMM must not move");
        }
    }
}

fn main() {
    println!("simd: {}", simd_label());
    // The tile gates go first: their "not slower" floors have the thinnest
    // margins, and what the earlier gates leave on the heap moves the 3-row
    // shape's reading by several percent (the pack scratch is not 64-byte
    // aligned, which a `zmm` load feels more than a `ymm` load).
    gate_wide_tile();
    gate_matmul_kinds();
    gate_fan_out();
    gate_dispatch_shapes();
}
