//! Bit-identity contracts of the fast convolution backends, split by
//! element type (see `zfgan_tensor::gemm` module docs):
//!
//! * **`f32`** — every lowered backend (dense- or zero-free-lowered, under
//!   any row partition of its GEMMs) produces *one* identical result: the
//!   packed f32 kernel's fused accumulation order is deterministic, and it
//!   stays within the fused accumulation-error bound of the golden nests.
//! * **`f64`** — there is no packed f64 kernel; the scalar blocked
//!   fallback keeps the naive chain, so every lowered backend reproduces
//!   the golden loop nests *bit for bit*, for every family the layers
//!   dispatch (S-CONV, T-CONV, both input-gradient passes, both W-CONVs).
//!   This is what pins "the compact lowering carries golden's terms in
//!   golden's order".
//! * **Fixed point** — [`Fx`] (Q8.8) runs the same scalar blocked kernel
//!   as `f64`, the scalar saturating chain, so *every* backend matches
//!   golden exactly.
//!
//! This is the contract that lets training default to the zero-free path
//! while the golden nests stay the validation oracle.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use zfgan::tensor::gemm::{matmul_blocked, matmul_chunked};
use zfgan::tensor::im2col::Matrix;
use zfgan::tensor::microkernel::simd_level;
use zfgan::tensor::{ConvBackend, ConvGeom, ConvWorkspace, Fmaps, Fx, Kernels};

/// The lowered backends (the packed microkernel for `f32`, the scalar
/// blocked kernel otherwise): mutually bit-identical for every element
/// type, and bit-identical to golden for `Fx`.
const PACKED: [ConvBackend; 2] = [ConvBackend::LoweredGemm, ConvBackend::LoweredZeroFree];

/// Allowed f32 drift between the packed fused accumulation order and the
/// golden nests on these tiny layers (reductions of at most a few hundred
/// unit-scale terms; the worst observed drift is orders below this).
const ACC_BOUND: f64 = 1e-4;

/// A randomly drawn layer: geometry plus channel counts, with the input
/// size chosen as an exact multiple of the stride so both directions of
/// the geometry are exercised (the same construction the dataflow
/// property tests use).
#[derive(Debug, Clone)]
struct ArbLayer {
    geom: ConvGeom,
    in_hw: usize,
    out_hw: usize,
    small_c: usize,
    large_c: usize,
    seed: u64,
}

fn arb_layer() -> impl Strategy<Value = ArbLayer> {
    (
        1usize..=3,
        1usize..=5,
        // From a single output pixel (a critic head, `n = 1` in the
        // weight-stationary GEMMs) up.
        1usize..=5,
        1usize..=3,
        // The zero-free phase GEMMs have `large_c` rows: from one row up,
        // across one register tile (`MR_F32 = 6`), so they take both the
        // streamed thin route and the materialized packed one.
        1usize..=8,
        any::<u64>(),
    )
        .prop_map(|(stride, k, out, small_c, large_c, seed)| {
            let k = k.max(stride);
            let in_hw = stride * out;
            let geom = ConvGeom::down(in_hw, in_hw, k, k, stride, out, out)
                .expect("constructed to be valid");
            ArbLayer {
                geom,
                in_hw,
                out_hw: out,
                small_c,
                large_c,
                seed,
            }
        })
}

/// Post-ReLU-like operand: roughly half exact zeros, so the zero-skipping
/// paths actually take their skip branches.
fn sparse(c: usize, h: usize, w: usize, rng: &mut SmallRng) -> Fmaps<f32> {
    Fmaps::random(c, h, w, 1.0, rng).map(|v| if v > 0.0 { v } else { 0.0 })
}

/// The six convolution passes the layers dispatch, evaluated on one
/// backend through a fresh workspace, as a uniform list for family-wise
/// comparison.
fn six_passes<T: zfgan::tensor::Num>(
    b: ConvBackend,
    x: &Fmaps<T>,
    z: &Fmaps<T>,
    k: &Kernels<T>,
    g: &ConvGeom,
    in_hw: usize,
) -> (Vec<Fmaps<T>>, Vec<Kernels<T>>) {
    let ws = &mut ConvWorkspace::new();
    let y = b.s_conv_ws(x, k, g, ws).unwrap();
    let up = b.t_conv_ws(z, k, g, ws).unwrap();
    let sig = b.s_conv_input_grad_ws(&y, k, g, in_hw, in_hw, ws).unwrap();
    let tig = b.t_conv_input_grad_ws(&up, k, g, ws).unwrap();
    let dws = b.w_conv_for_s_layer_ws(x, &y, g, ws).unwrap();
    let dwt = b.w_conv_for_t_layer_ws(z, &up, g, ws).unwrap();
    (vec![y, up, sig, tig], vec![dws, dwt])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Family-wise backend contract on all six dispatched convolution
    /// passes: on `f32` the packed backends are bit-identical to each
    /// other and within the accumulation bound of golden; on an `f64` draw
    /// of the same layer both are bit-identical to golden.
    #[test]
    fn backends_are_bit_identical_within_their_family(layer in arb_layer()) {
        let mut rng = SmallRng::seed_from_u64(layer.seed);
        let g = &layer.geom;
        let x = sparse(layer.large_c, layer.in_hw, layer.in_hw, &mut rng);
        let z = sparse(layer.small_c, layer.out_hw, layer.out_hw, &mut rng);
        let k = Kernels::random(layer.small_c, layer.large_c, g.kh(), g.kw(), 0.5, &mut rng);

        let (gf, gk) = six_passes(ConvBackend::GoldenDirect, &x, &z, &k, g, layer.in_hw);

        // f64: exact golden reproduction on every packed backend.
        let (xd, zd, kd) = (x.map(f64::from), z.map(f64::from), k.map(f64::from));
        let golden_d = six_passes(ConvBackend::GoldenDirect, &xd, &zd, &kd, g, layer.in_hw);
        for b in PACKED {
            let got = six_passes(b, &xd, &zd, &kd, g, layer.in_hw);
            prop_assert_eq!(&golden_d, &got, "{:?} diverged from golden on f64", b);
        }

        // Packed family: one deterministic result, near golden.
        let (pf, pk) = six_passes(PACKED[0], &x, &z, &k, g, layer.in_hw);
        for (gold, packed) in gf.iter().zip(&pf) {
            prop_assert!(gold.max_abs_diff(packed) <= ACC_BOUND, "packed fmaps pass drifted");
        }
        for (gold, packed) in gk.iter().zip(&pk) {
            prop_assert!(gold.max_abs_diff(packed) <= ACC_BOUND, "packed w-conv pass drifted");
        }
        for b in &PACKED[1..] {
            let (bf, bk) = six_passes(*b, &x, &z, &k, g, layer.in_hw);
            prop_assert_eq!(&pf, &bf, "{:?} fmaps passes diverged from packed family", b);
            prop_assert_eq!(&pk, &bk, "{:?} w-conv passes diverged from packed family", b);
        }
    }

    /// With Q8.8 fixed-point operands the lowered backends run the scalar
    /// saturating chain exactly, so every backend is bit-identical to
    /// golden.
    #[test]
    fn fx_backends_are_bit_identical_to_golden(layer in arb_layer()) {
        let mut rng = SmallRng::seed_from_u64(layer.seed ^ 0x5eed);
        let g = &layer.geom;
        let x = sparse(layer.large_c, layer.in_hw, layer.in_hw, &mut rng).map(Fx::from_f32);
        let z = sparse(layer.small_c, layer.out_hw, layer.out_hw, &mut rng).map(Fx::from_f32);
        let k = Kernels::random(layer.small_c, layer.large_c, g.kh(), g.kw(), 0.5, &mut rng)
            .map(Fx::from_f32);

        let golden = six_passes(ConvBackend::GoldenDirect, &x, &z, &k, g, layer.in_hw);
        for b in PACKED {
            let got = six_passes(b, &x, &z, &k, g, layer.in_hw);
            prop_assert_eq!(&golden, &got, "{:?} diverged from golden on Fx", b);
        }
    }

    /// GEMM kernel contracts, for any shape, sparsity and row partition:
    /// the packed f32 kernel matches *itself* bit for bit however its
    /// output rows are chunked and stays within the fused
    /// accumulation-error bound of the naive triple loop; the scalar
    /// blocked kernel that `f64` and Q8.8 run matches the naive loop bit
    /// for bit.
    #[test]
    fn gemm_kernels_honor_their_family_contracts(
        m in 1usize..=40,
        kk in 1usize..=48,
        n in 1usize..=70,
        rows_per_chunk in 1usize..=41,
        zero_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut draw = |rows: usize, cols: usize| {
            let data = (0..rows * cols)
                .map(|_| {
                    if rng.gen_range(0.0..1.0) < zero_frac {
                        0.0
                    } else {
                        rng.gen_range(-1.0f32..1.0)
                    }
                })
                .collect();
            Matrix::from_vec(rows, cols, data)
        };
        let a = draw(m, kk);
        let b = draw(kk, n);
        let naive = a.matmul(&b).unwrap();
        let blocked = matmul_blocked(&a, &b).unwrap();
        let mut chunked = Matrix::zeros(m, n);
        let ws = &mut ConvWorkspace::new();
        matmul_chunked(&a, &b, &mut chunked, false, simd_level(), None, rows_per_chunk, ws);
        prop_assert_eq!(&blocked, &chunked);
        // Operands are in [-1, 1], so each output element is a reduction
        // of kk unit-scale terms: |fused - naive| <= 2 * kk^2 * eps.
        let bound = f64::from(2.0 * (kk * kk) as f32 * f32::EPSILON).max(1e-6);
        for (nv, bv) in naive.as_slice().iter().zip(blocked.as_slice()) {
            prop_assert!(
                (f64::from(*nv) - f64::from(*bv)).abs() <= bound,
                "packed f32 strayed beyond the accumulation bound"
            );
        }

        let ad = Matrix::from_vec(m, kk, a.as_slice().iter().map(|v| f64::from(*v)).collect());
        let bd = Matrix::from_vec(kk, n, b.as_slice().iter().map(|v| f64::from(*v)).collect());
        prop_assert_eq!(ad.matmul(&bd).unwrap(), matmul_blocked(&ad, &bd).unwrap());

        let afx = Matrix::from_vec(m, kk, a.as_slice().iter().map(|v| Fx::from_f32(*v)).collect());
        let bfx = Matrix::from_vec(kk, n, b.as_slice().iter().map(|v| Fx::from_f32(*v)).collect());
        let naive_fx = afx.matmul(&bfx).unwrap();
        prop_assert_eq!(&naive_fx, &matmul_blocked(&afx, &bfx).unwrap());
    }

    /// The two dispatch engines (packed panel, small-`m` broadcast-FMA
    /// `ikj`) both compute one k-ascending fused chain per output
    /// element, so forcing either engine at any SIMD level must
    /// reproduce the dispatched result *bit for bit* — including the
    /// degenerate shapes the dispatcher exists for (`m = 1`, all-zero
    /// rows, `n` below one register tile).
    #[test]
    fn f32_dispatch_paths_are_bit_identical(
        m in 1usize..=19,
        kk in 1usize..=48,
        n in 1usize..=70,
        zero_frac in 0.0f64..1.0,
        zero_rows in 0usize..=3,
        seed in any::<u64>(),
    ) {
        use zfgan::tensor::microkernel::{GemmPath, SimdLevel};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut a: Vec<f32> = (0..m * kk)
            .map(|_| {
                if rng.gen_range(0.0..1.0) < zero_frac {
                    0.0
                } else {
                    rng.gen_range(-1.0f32..1.0)
                }
            })
            .collect();
        // Whole zero rows so the element- and panel-skip branches engage.
        for r in 0..zero_rows.min(m) {
            a[r * kk..(r + 1) * kk].fill(0.0);
        }
        let b: Vec<f32> = (0..kk * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let (a, b) = (Matrix::from_vec(m, kk, a), Matrix::from_vec(kk, n, b));

        let ws = &mut ConvWorkspace::new();
        let mut dispatched = Matrix::zeros(m, n);
        matmul_chunked(&a, &b, &mut dispatched, false, simd_level(), None, m, ws);
        let want = bits(dispatched.as_slice());
        for level in SimdLevel::supported() {
            for path in [GemmPath::Packed, GemmPath::SmallM] {
                let mut out = Matrix::zeros(m, n);
                matmul_chunked(&a, &b, &mut out, false, level, Some(path), m, ws);
                let got = bits(out.as_slice());
                prop_assert_eq!(&want, &got, "path {:?} at {:?} diverged bitwise", path, level);
            }
        }
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The weight-stationary lowering on the shapes the random geometries
/// above are too small to reach: the MNIST-GAN pixel counts that are not
/// multiples of the 16-lane panel (49 and 196), thin sides (`n_if = 1` and
/// the DCGAN image side's 3 maps: phase GEMMs under one register tile of
/// rows, whose `B` is streamed), single-pixel maps (`n = 1`) — a score
/// window read in place, and one larger than its map, which is not — and a
/// whole-map window whose padding makes a second output row.
/// Both contracts, on the allocating and the workspace entries alike
/// (cold and warm workspace): f32 within the accumulation bound of golden
/// and bit-equal (`to_bits`) across every packed backend; `Fx` and `f64`
/// bit-equal to golden on every backend.
#[test]
fn weight_stationary_lowering_keeps_both_contracts_on_gan_shapes() {
    // (stride, kernel, in_hw, out, small_c, large_c)
    let shapes = [
        (2, 5, 14, 7, 3, 2),  // 196 → 49 pixels: MNIST-GAN layer 2
        (2, 5, 28, 14, 2, 1), // 784 → 196 pixels, single-channel image side
        (2, 5, 32, 16, 4, 3), // three-map image side, pad 1: DCGAN's
        (2, 4, 14, 7, 1, 3),  // single-channel small side
        (7, 7, 7, 1, 3, 2),   // one output pixel: the latent projection
        (1, 4, 4, 1, 1, 4),   // one output pixel, stride 1: the critic head
        (1, 4, 3, 1, 2, 3),   // one output pixel of a window past the map
        (1, 2, 2, 2, 2, 3),   // a whole-map window padded below: two rows out
    ];
    for (stride, k, in_hw, out, small_c, large_c) in shapes {
        let g = ConvGeom::down(in_hw, in_hw, k, k, stride, out, out).expect("valid geometry");
        let mut rng = SmallRng::seed_from_u64((in_hw * 31 + small_c) as u64);
        let x = sparse(large_c, in_hw, in_hw, &mut rng);
        let z = sparse(small_c, out, out, &mut rng);
        let kern = Kernels::random(small_c, large_c, k, k, 0.5, &mut rng);

        // f32: near golden, one result across the packed family.
        let (gf, gk) = six_passes(ConvBackend::GoldenDirect, &x, &z, &kern, &g, in_hw);
        let (pf, pk) = six_passes(PACKED[0], &x, &z, &kern, &g, in_hw);
        // Reductions run over at most `in_hw²` unit-scale terms.
        let terms = (in_hw * in_hw).max(large_c.max(small_c) * k * k) as f64;
        let bound = (2.0 * terms * terms * f64::from(f32::EPSILON)).max(1e-6);
        for (gold, packed) in gf.iter().zip(&pf) {
            assert!(
                gold.max_abs_diff(packed) <= bound,
                "{g:?}: fmaps pass drifted"
            );
        }
        for (gold, packed) in gk.iter().zip(&pk) {
            assert!(
                gold.max_abs_diff(packed) <= bound,
                "{g:?}: w-conv pass drifted"
            );
        }
        for b in PACKED {
            let (bf, _) = six_passes(b, &x, &z, &kern, &g, in_hw);
            for (want, got) in pf.iter().zip(&bf) {
                assert_eq!(bits(want.as_slice()), bits(got.as_slice()), "{b:?} {g:?}");
            }
            let mut ws = ConvWorkspace::new();
            for round in 0..2 {
                let fast = [
                    b.s_conv_ws(&x, &kern, &g, &mut ws).unwrap(),
                    b.t_conv_ws(&z, &kern, &g, &mut ws).unwrap(),
                    b.s_conv_input_grad_ws(&pf[0], &kern, &g, in_hw, in_hw, &mut ws)
                        .unwrap(),
                    b.t_conv_input_grad_ws(&pf[1], &kern, &g, &mut ws).unwrap(),
                ];
                for (want, got) in pf.iter().zip(fast) {
                    assert_eq!(
                        bits(want.as_slice()),
                        bits(got.as_slice()),
                        "{b:?} {g:?} workspace round {round}"
                    );
                    ws.give_fmaps(got);
                }
            }
        }

        // Fx and f64: exact golden reproduction on every backend.
        let (xq, zq, kq) = (
            x.map(Fx::from_f32),
            z.map(Fx::from_f32),
            kern.map(Fx::from_f32),
        );
        let (xd, zd, kd) = (x.map(f64::from), z.map(f64::from), kern.map(f64::from));
        let golden_q = six_passes(ConvBackend::GoldenDirect, &xq, &zq, &kq, &g, in_hw);
        let golden_d = six_passes(ConvBackend::GoldenDirect, &xd, &zd, &kd, &g, in_hw);
        for b in PACKED {
            assert_eq!(
                golden_q,
                six_passes(b, &xq, &zq, &kq, &g, in_hw),
                "{b:?} {g:?} Fx"
            );
            assert_eq!(
                golden_d,
                six_passes(b, &xd, &zd, &kd, &g, in_hw),
                "{b:?} {g:?} f64"
            );
        }
    }
}

/// The packed engine walks its tiles in one of two orders, picked per
/// `k`-chunk from the chunk's packed-`B` footprint (`for_each_tile` in
/// `zfgan_tensor::microkernel`): one register tile of rows across all
/// column panels while the chunk is cache-resident, 72-row blocks per panel
/// otherwise. The order never touches a per-element chain, so every shape
/// must reproduce the plain fused `k`-ascending chain *bit for bit* — on
/// every SIMD level, on every forced dispatch path and for any row
/// partition (`matmul_chunked`: chunks of one row, under, at and over a
/// register tile, ragged, whole — more partitions than pool widths ever
/// produced), storing the product and adding it to an accumulator. Shapes:
/// short-`k` wide-`n` (the deep W-CONV shape class, all resident, ragged
/// last panel), one whose first chunk is over the residency limit and whose
/// second is under it (both orders in one GEMM, more rows than one 72-row
/// block), a small ragged one, and two one-column products (`n = 1`, where
/// the packed engine runs each row as one chain against `B` in place), one
/// within a `k`-chunk and one across two.
#[test]
fn packed_block_order_is_bit_neutral() {
    use zfgan::tensor::microkernel::{GemmPath, SimdLevel, KC};
    let mut rng = SmallRng::seed_from_u64(77);
    for (m, kk, n) in [
        (40, 16, 700),
        (75, KC + 8, 530),
        (13, 100, 33),
        (9, 300, 1),
        (2, KC + 40, 1),
    ] {
        let a: Vec<f32> = (0..m * kk).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b: Vec<f32> = (0..kk * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut want = vec![0u32; m * n];
        for i in 0..m {
            for j in 0..n {
                let chain = (0..kk).fold(0.0f32, |acc, k| a[i * kk + k].mul_add(b[k * n + j], acc));
                want[i * n + j] = chain.to_bits();
            }
        }
        let (am, bm) = (Matrix::from_vec(m, kk, a), Matrix::from_vec(kk, n, b));
        let mut ws = ConvWorkspace::new();
        for level in SimdLevel::supported() {
            for path in [GemmPath::Packed, GemmPath::SmallM] {
                let mut out = Matrix::from_vec(m, n, vec![f32::NAN; m * n]);
                matmul_chunked(&am, &bm, &mut out, false, level, Some(path), m, &mut ws);
                let got = bits(out.as_slice());
                assert_eq!(got, want, "{m}×{kk}×{n} {path:?} at {level:?}");
            }
        }
        let acc: Vec<f32> = (0..m * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let want_added: Vec<u32> = (acc.iter().zip(&want))
            .map(|(a, chain)| (a + f32::from_bits(*chain)).to_bits())
            .collect();
        let level = simd_level();
        for path in [GemmPath::Packed, GemmPath::SmallM] {
            for rows in [1, 5, 6, 7, 13, m] {
                let route = format!("{m}×{kk}×{n} {path:?} in {rows}-row chunks");
                let mut out = Matrix::from_vec(m, n, vec![f32::NAN; m * n]);
                let path = Some(path);
                matmul_chunked(&am, &bm, &mut out, false, level, path, rows, &mut ws);
                assert_eq!(bits(out.as_slice()), want, "{route}");
                let mut out = Matrix::from_vec(m, n, acc.clone());
                matmul_chunked(&am, &bm, &mut out, true, level, path, rows, &mut ws);
                assert_eq!(bits(out.as_slice()), want_added, "{route}, added");
            }
        }
    }
}

/// Products, gradients, streamed operand rows and the packed S-CONV's
/// output maps (the forward pass and, through it, the T-layer input error)
/// are drawn from the workspace *without* its zero fill
/// (`ConvWorkspace::take_dirty`), on the promise that every element is
/// overwritten before it is read. Poison the free list — NaN for f32 and
/// f64, a saturating value for Q8.8 — and every workspace entry, the two
/// accumulating `W-CONV`s included, must still equal its allocating twin
/// bit for bit. The `f64` case runs the scalar fallback, which lands its
/// product from such a buffer with no intermediate matrix.
#[test]
fn poisoned_workspace_buffers_never_leak_into_results() {
    use zfgan::tensor::Num;
    fn poison<T: Num>(ws: &mut ConvWorkspace<T>, with: T) {
        for len in [8, 64, 512, 4096, 40_000] {
            for _ in 0..4 {
                ws.give(vec![with; len]);
            }
        }
    }
    fn check<T: Num>(x: &Fmaps<T>, z: &Fmaps<T>, k: &Kernels<T>, g: &ConvGeom, with: T) {
        let in_hw = x.height();
        for b in PACKED {
            let (maps, grads) = six_passes(b, x, z, k, g, in_hw);
            let mut ws = ConvWorkspace::new();
            poison(&mut ws, with);
            let (y, up) = (&maps[0], &maps[1]);
            // First take after the poisoning: the S-CONV's output maps are
            // a poisoned buffer, cut to size.
            assert_eq!(maps[0], b.s_conv_ws(x, k, g, &mut ws).unwrap(), "{b:?}");
            assert_eq!(maps[1], b.t_conv_ws(z, k, g, &mut ws).unwrap(), "{b:?}");
            let sig = b.s_conv_input_grad_ws(y, k, g, in_hw, in_hw, &mut ws);
            assert_eq!(maps[2], sig.unwrap(), "{b:?}");
            assert_eq!(
                maps[3],
                b.t_conv_input_grad_ws(up, k, g, &mut ws).unwrap(),
                "{b:?}"
            );
            assert_eq!(
                grads[0],
                b.w_conv_for_s_layer_ws(x, y, g, &mut ws).unwrap(),
                "{b:?}"
            );
            assert_eq!(
                grads[1],
                b.w_conv_for_t_layer_ws(z, up, g, &mut ws).unwrap(),
                "{b:?}"
            );
            // Accumulating entries: from a copy of the weights, not zero.
            let mut want = k.clone();
            want.add_assign(&grads[0]);
            let mut got = k.clone();
            b.w_conv_for_s_layer_accumulate_ws(x, y, g, &mut got, &mut ws)
                .unwrap();
            assert_eq!(want, got, "{b:?} accumulating S-layer W-CONV");
            let mut want = k.clone();
            want.add_assign(&grads[1]);
            let mut got = k.clone();
            b.w_conv_for_t_layer_accumulate_ws(z, up, g, &mut got, &mut ws)
                .unwrap();
            assert_eq!(want, got, "{b:?} accumulating T-layer W-CONV");
        }
    }
    // (stride, kernel, out, small_c, large_c): a packed-route layer, a
    // one-map critic head (the streamed route), and one whose W-CONV
    // reduces over more pixels than one `k`-chunk holds.
    for (stride, kdim, out, small_c, large_c) in
        [(2, 5, 7, 3, 2), (1, 4, 1, 1, 4), (1, 3, 23, 2, 1)]
    {
        let in_hw = if out == 1 { kdim } else { stride * out };
        let g = ConvGeom::down(in_hw, in_hw, kdim, kdim, stride, out, out).expect("valid geometry");
        let mut rng = SmallRng::seed_from_u64((kdim * 13 + out) as u64);
        let x = sparse(large_c, in_hw, in_hw, &mut rng);
        let z = sparse(small_c, out, out, &mut rng);
        let k = Kernels::random(small_c, large_c, kdim, kdim, 0.5, &mut rng);
        check(&x, &z, &k, &g, f32::NAN);
        let (xq, zq, kq) = (
            x.map(Fx::from_f32),
            z.map(Fx::from_f32),
            k.map(Fx::from_f32),
        );
        check(&xq, &zq, &kq, &g, Fx::from_f32(100.0));
        let (xd, zd, kd) = (x.map(f64::from), z.map(f64::from), k.map(f64::from));
        check(&xd, &zd, &kd, &g, f64::NAN);
    }
}

/// The generator's latent projection: a T-CONV whose input map is `1×1`.
/// The driver collapses it to a single `1 × n_of` GEMM against the kernel
/// tensor read zero-copy — unless the dispatcher is forced onto the packed
/// engine, which keeps the classic phase lowering. Pins the collapsed path
/// bit-identical to the classic one for both element families — including
/// a padded geometry whose scatter crops boundary taps — and every Fx
/// backend to golden exactly.
#[test]
fn one_by_one_t_conv_collapses_bit_identically() {
    use zfgan::tensor::microkernel::{set_forced_path, GemmPath};
    let mut rng = SmallRng::seed_from_u64(4242);
    let geoms = [
        // The MNIST-GAN projection: 1×1 → 7×7 through a 7×7 kernel.
        ConvGeom::down(7, 7, 7, 7, 7, 1, 1).unwrap(),
        // Padded: some taps map outside the 1×1-up output and are cropped.
        ConvGeom::down(2, 2, 3, 3, 2, 1, 1).unwrap(),
        // Degenerate 1×1 kernel.
        ConvGeom::down(1, 1, 1, 1, 1, 1, 1).unwrap(),
    ];
    for g in &geoms {
        for small_c in [1usize, 3, 100] {
            let z = sparse(small_c, 1, 1, &mut rng);
            let k = Kernels::random(small_c, 5, g.kh(), g.kw(), 0.5, &mut rng);
            let zq = z.map(Fx::from_f32);
            let kq = k.map(Fx::from_f32);
            let gold = ConvBackend::GoldenDirect;
            let golden_fx = gold
                .t_conv_ws(&zq, &kq, g, &mut ConvWorkspace::new())
                .unwrap();
            for b in PACKED {
                // Forcing a path is bit-neutral for every GEMM in the
                // process, so tests running alongside are unaffected.
                set_forced_path(Some(GemmPath::Packed));
                let classic = b.t_conv_ws(&z, &k, g, &mut ConvWorkspace::new());
                set_forced_path(None);
                let classic = classic.unwrap();
                let mut ws = ConvWorkspace::new();
                let mut ws_fx = ConvWorkspace::new();
                // Twice: once cold, once with a warm workspace.
                for round in 0..2 {
                    let fast = b.t_conv_ws(&z, &k, g, &mut ws).unwrap();
                    assert_eq!(
                        classic.as_slice(),
                        fast.as_slice(),
                        "collapsed 1×1 f32 T-CONV diverged from classic \
                         ({b:?}, round {round})"
                    );
                    let fast_fx = b.t_conv_ws(&zq, &kq, g, &mut ws_fx).unwrap();
                    assert_eq!(
                        golden_fx.as_slice(),
                        fast_fx.as_slice(),
                        "collapsed 1×1 Fx T-CONV diverged from golden \
                         ({b:?}, round {round})"
                    );
                    ws.give_fmaps(fast);
                    ws_fx.give_fmaps(fast_fx);
                }
            }
        }
    }
}
