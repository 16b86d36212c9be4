//! GEMM fast-path ratio gates on paper GAN layer shapes: the packed kernel
//! over the naive triple loop, the engine's own pool fan-out over the same
//! engine held to one inline chunk, the dispatcher's engines over the
//! forced packed path, the AVX-512 tile over the AVX2 tile, and the thin
//! convolutions (the critic's score layer over its golden nest, the image
//! layer's streamed phases over the materialized ones).
//!
//! Every gate is one [`paired_ratio`] of two variants that agree
//! numerically per the family contracts pinned by `tests/fast_conv.rs`
//! (packed f32 kernels mutually bit-identical and within the fused
//! accumulation bound of naive), so every ratio is pure speed. Absolute times are the `train_mnist` /
//! `train_dcgan` workloads of `BENCHMARK.json`.

use std::cell::RefCell;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use zfgan_bench::{fan_out_gate, gate, paired_ratio, paired_ratio_with_capacity};
use zfgan_tensor::gemm::{matmul_blocked, matmul_blocked_into, matmul_chunked};
use zfgan_tensor::im2col::{im2col_s, weights_as_matrix_s, Matrix};
use zfgan_tensor::microkernel::{
    choose_path, set_forced_path, simd_label, simd_level, GemmPath, SimdLevel,
};
use zfgan_tensor::{ConvBackend, ConvGeom, ConvWorkspace, Fmaps, Kernels, PhaseKernels};

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
fn gate_over_naive(
    name: &str,
    floor: f64,
    fast: impl Fn(&Matrix<f32>, &Matrix<f32>) -> zfgan_tensor::TensorResult<Matrix<f32>>,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
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

/// Gates the engine the dispatcher picks for the shape it exists for at
/// 2x or more over the packed panel path: the `m = 1` input-grad GEMM —
/// 1×6272×100 on a ~50% ReLU-sparse row, where packing 627k words of `B`
/// for one output row dwarfs the arithmetic → the small-`m` broadcast
/// engine, which never packs `B`.
fn gate_dispatch() {
    let mut rng = SmallRng::seed_from_u64(24);
    let dims @ (m, kk, n) = (1usize, 6272usize, 100usize);
    let a: Vec<f32> = (0..m * kk)
        .map(|_| rng.gen_range(-1.0f32..1.0).max(0.0))
        .collect();
    let b: Vec<f32> = (0..kk * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let (name, picked) = ("dispatch_m1/smallm", GemmPath::SmallM);
    assert_eq!(
        choose_path(m, n, false),
        picked,
        "dispatcher must route the {name} shape to {picked:?}"
    );
    let routes = [GemmPath::Packed, picked].map(|path| (simd_level(), path));
    gate_routes(name, simd_floor(2.0), routes, (&a, &b), dims);
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
        let reading = paired_ratio_with_capacity(PAIRED_ROUNDS, inline, default);
        if over {
            fan_out_gate(&name, simd_floor(FAN_OUT_FLOOR), reading);
        } else {
            fan_out_gate(&name, 0.95, reading);
            assert!(reading.0 <= 1.05, "{name}: an inline GEMM must not move");
        }
    }
}

/// Floor of the score-layer gates: the dispatched forward is never slower
/// than its golden nest (see [`gate_thin`] for the readings).
const SCORE_HEAD_FLOOR: f64 = 1.0;

/// Floor of the image-layer gate (see [`gate_thin`] for the readings).
const IMAGE_TCONV_FLOOR: f64 = 1.7;

/// The thin convolutions, each one warm workspace pass a call:
///
/// * `thin/score_head/*`: the critic's score layer (a window over its
///   whole input map, one output pixel) on the default backend — `B` read
///   in place, one fused chain per output — against `GoldenDirect`, on
///   the MNIST-GAN (`128×7×7`) and DCGAN (`512×4×4`) heads. The input is
///   LeakyReLU'd like the critic's, so it holds no zeros to skip. Ten
///   fresh processes on the two-vCPU AVX-512 CI host read 1.15-1.96x and
///   1.21-2.29x (each process lands near one end or the other); the floor
///   is the oracle itself.
/// * `thin/image_tconv`: DCGAN's image layer (`64×32×32 → 3×64×64`,
///   5×5, stride 2) through cached sub-kernels, dispatched (three-row
///   phase GEMMs stream `B`) against forced packed (every phase patch
///   matrix built and packed). The same ten processes read 1.89-2.24x, so
///   the floor sits a tenth under that range.
fn gate_thin() {
    let mut rng = SmallRng::seed_from_u64(27);
    let leaky = |v: f32| if v > 0.0 { v } else { 0.2 * v };
    let ws = RefCell::new(ConvWorkspace::new());
    for (c, hw) in [(128usize, 7usize), (512, 4)] {
        let geom = ConvGeom::new(hw, hw, 1, 0, 0, 0, 0).expect("static geometry");
        let x = Fmaps::random(c, hw, hw, 1.0, &mut rng).map(leaky);
        let k = Kernels::random(1, c, hw, hw, 0.1, &mut rng);
        // Only the workspace's own maps go back to it: the golden nest
        // allocates its output.
        let side = |backend: ConvBackend| {
            let (x, k, geom, ws) = (&x, &k, &geom, &ws);
            move || {
                let ws = &mut *ws.borrow_mut();
                for _ in 0..200 {
                    let y = backend
                        .s_conv_ws(x, k, geom, ws)
                        .expect("conforming operands");
                    if backend != ConvBackend::GoldenDirect {
                        ws.give_fmaps(std::hint::black_box(y));
                    }
                }
            }
        };
        let ratio = paired_ratio(
            PAIRED_ROUNDS,
            side(ConvBackend::GoldenDirect),
            side(ConvBackend::default()),
        );
        let name = format!("thin/score_head/{c}x{hw}x{hw}");
        gate(&name, simd_floor(SCORE_HEAD_FLOOR), ratio);
    }

    let geom = ConvGeom::down(64, 64, 5, 5, 2, 32, 32).expect("static geometry");
    let x = Fmaps::random(64, 32, 32, 1.0, &mut rng).map(|v: f32| v.max(0.0));
    let k = Kernels::random(64, 3, 5, 5, 0.1, &mut rng);
    let mut sub = PhaseKernels::default();
    sub.write(&k, &geom, (32, 32), (64, 64));
    let side = |forced: Option<GemmPath>| {
        let (x, k, geom, ws, sub) = (&x, &k, &geom, &ws, &sub);
        move || {
            set_forced_path(forced);
            let ws = &mut *ws.borrow_mut();
            for _ in 0..5 {
                let y = ConvBackend::default()
                    .t_conv_gathered_ws(x, k, sub, geom, ws)
                    .expect("conforming operands");
                ws.give_fmaps(std::hint::black_box(y));
            }
            set_forced_path(None);
        }
    };
    let ratio = paired_ratio(PAIRED_ROUNDS, side(Some(GemmPath::Packed)), side(None));
    gate("thin/image_tconv", simd_floor(IMAGE_TCONV_FLOOR), ratio);
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
    gate_dispatch();
    gate_thin();
}
