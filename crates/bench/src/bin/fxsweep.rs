//! Deterministic Q8.8 fixed-point conv sweep — the SIMD byte-identity
//! probe.
//!
//! Runs every conv op (S/T forward, both input-grads, both W-CONV
//! gradients) in Q8.8 fixed point over MNIST-GAN-shaped and
//! boundary-heavy geometries through the packed engine, then one Q8.8 GEMM
//! under every explicit row partition (`gemm::matmul_chunked`: chunks of
//! one row, around a register tile, ragged, whole — storing and adding),
//! and prints an FNV-1a digest of each result's raw `i16` payload plus a
//! few sampled raw values.
//!
//! The output is a pure function of the fixed seed: no timestamps, no
//! timings, no SIMD/thread metadata on stdout. `scripts/ci.sh` runs this
//! binary twice — once with the runtime-detected SIMD kernels, once under
//! `ZFGAN_NO_SIMD=1` — and diffs the two transcripts. A byte-identical
//! diff proves the vectorized Q8.8 microkernel reproduces the scalar
//! `Fx` semantics (widened i32 lanes, round-half-up at every
//! multiply, saturating adds) bit-for-bit end to end, not just on the
//! proptest corpus.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use zfgan_tensor::gemm::matmul_chunked;
use zfgan_tensor::im2col::Matrix;
use zfgan_tensor::microkernel::simd_level;
use zfgan_tensor::{ConvBackend, ConvGeom, ConvWorkspace, Fmaps, Fx, Kernels};

/// FNV-1a over the little-endian bytes of the raw Q8.8 words.
fn digest(raw: impl Iterator<Item = i16>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in raw {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn report(label: &str, backend: &str, raw: &[Fx]) {
    let head: Vec<i16> = raw.iter().take(4).map(|v| v.raw()).collect();
    println!(
        "{label:<28} {backend:<6} digest {:016x}  head {head:?}",
        digest(raw.iter().map(|v| v.raw()))
    );
}

fn rand_fmaps(c: usize, h: usize, w: usize, rng: &mut SmallRng) -> Fmaps<Fx> {
    let mut f = Fmaps::zeros(c, h, w);
    for ch in 0..c {
        for y in 0..h {
            for x in 0..w {
                *f.at_mut(ch, y, x) = Fx::from_f32(rng.gen_range(-2.0f32..2.0));
            }
        }
    }
    f
}

fn rand_kernels(n_of: usize, n_if: usize, kh: usize, kw: usize, rng: &mut SmallRng) -> Kernels<Fx> {
    let mut k = Kernels::zeros(n_of, n_if, kh, kw);
    for a in 0..n_of {
        for b in 0..n_if {
            for y in 0..kh {
                for x in 0..kw {
                    *k.at_mut(a, b, y, x) = Fx::from_f32(rng.gen_range(-0.5f32..0.5));
                }
            }
        }
    }
    k
}

/// All six conv ops for one geometry on the default backend. `(ih, iw)` is
/// the large-side (S-CONV input) spatial size; the T-CONV direction feeds
/// the small side back up.
fn sweep_geom(tag: &str, geom: &ConvGeom, n_small: usize, n_large: usize, ih: usize, iw: usize) {
    let mut ws: ConvWorkspace<Fx> = ConvWorkspace::new();
    let (bname, be) = ("seq", ConvBackend::LoweredZeroFree);
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    let x = rand_fmaps(n_large, ih, iw, &mut rng);
    let k = rand_kernels(n_small, n_large, geom.kh(), geom.kw(), &mut rng);
    let (oh, ow) = geom.down_out(ih, iw);
    let d_small = rand_fmaps(n_small, oh, ow, &mut rng);

    let fwd = be.s_conv_ws(&x, &k, geom, &mut ws).unwrap();
    report(&format!("{tag}/s_conv"), bname, fwd.as_slice());
    let dg = be
        .s_conv_input_grad_ws(&d_small, &k, geom, ih, iw, &mut ws)
        .unwrap();
    report(&format!("{tag}/s_input_grad"), bname, dg.as_slice());
    let wg = be
        .w_conv_for_s_layer_ws(&x, &d_small, geom, &mut ws)
        .unwrap();
    report(&format!("{tag}/s_wgrad"), bname, wg.as_slice());
    ws.give_fmaps(dg);

    let up = be.t_conv_ws(&fwd, &k, geom, &mut ws).unwrap();
    report(&format!("{tag}/t_conv"), bname, up.as_slice());
    let d_large = rand_fmaps(n_large, up.height(), up.width(), &mut rng);
    let tg = be
        .t_conv_input_grad_ws(&d_large, &k, geom, &mut ws)
        .unwrap();
    report(&format!("{tag}/t_input_grad"), bname, tg.as_slice());
    let wt = be
        .w_conv_for_t_layer_ws(&fwd, &d_large, geom, &mut ws)
        .unwrap();
    report(&format!("{tag}/t_wgrad"), bname, wt.as_slice());
    ws.give_fmaps(fwd);
    ws.give_fmaps(up);
    ws.give_fmaps(tg);
}

/// One Q8.8 GEMM (two `k`-chunks deep, a ragged last panel) under every
/// explicit row partition: the digests of one destination must agree line
/// for line, at every SIMD level and on every forced path.
fn sweep_partitions() {
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    let (m, kk, n) = (37, 600, 75);
    let mut draw = |rows: usize, cols: usize| {
        let data = (0..rows * cols)
            .map(|_| Fx::from_f32(rng.gen_range(-0.25f32..0.25)))
            .collect();
        Matrix::from_vec(rows, cols, data)
    };
    let (a, b, acc) = (draw(m, kk), draw(kk, n), draw(m, n));
    let mut ws: ConvWorkspace<Fx> = ConvWorkspace::new();
    for (tag, add) in [("gemm/store", false), ("gemm/add", true)] {
        for rows_per_chunk in [1, 5, 6, 7, 13, m] {
            let mut out = acc.clone();
            let level = simd_level();
            matmul_chunked(&a, &b, &mut out, add, level, None, rows_per_chunk, &mut ws);
            report(tag, &format!("r{rows_per_chunk}"), out.as_slice());
        }
    }
}

fn main() {
    // MNIST-GAN layer shapes (channel counts trimmed to keep the sweep
    // fast) plus a boundary-heavy odd-stride geometry.
    sweep_geom(
        "g28",
        &ConvGeom::down(28, 28, 5, 5, 2, 14, 14).unwrap(),
        16,
        8,
        28,
        28,
    );
    sweep_geom(
        "g14",
        &ConvGeom::down(14, 14, 5, 5, 2, 7, 7).unwrap(),
        24,
        16,
        14,
        14,
    );
    sweep_geom(
        "head",
        &ConvGeom::new(7, 7, 1, 0, 0, 0, 0).unwrap(),
        8,
        32,
        7,
        7,
    );
    sweep_geom(
        "odd",
        &ConvGeom::down(7, 7, 3, 3, 3, 3, 3).unwrap(),
        5,
        3,
        7,
        7,
    );
    sweep_partitions();
}
