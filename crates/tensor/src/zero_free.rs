//! Zero-free convolution lowerings — the software mirror of the paper's
//! ZFOST/ZFWST dataflows.
//!
//! The Caffe-style lowering in [`crate::im2col`] materialises every zero
//! the zero-inserting transformations create: `T-CONV` patches are ~3/4
//! inserted zeros at stride 2, and the `W-CONV` of a T-CONV layer
//! correlates a zero-inserted input. The hardware answer in the paper is
//! to *reorganise the computation* so those zeros are never fetched; this
//! module is the same idea in software.
//!
//! For `T-CONV`, the output pixels are split into `stride²` phases by
//! their coordinates mod the stride. Within one phase every output pixel
//! uses the *same* subset of (flipped) kernel taps — exactly the
//! observation behind ZFOST's zero-free output-stationary schedule — so
//! the phase lowers to a compact patch matrix whose columns enumerate
//! only the kept taps. Inserted zeros are never materialised; only
//! boundary (padding) zeros remain, and they are skipped by the GEMM's
//! zero-operand test. [`im2col_t_zero_free`] exposes the compact patch
//! matrices so the residual zero share is measurable through
//! [`Lowered::zero_fraction`], next to the dense lowering's.
//!
//! For `W-CONV` of a T-CONV layer, the gradient is a GEMM between the
//! *compact* input (as a channels × pixels matrix) and a patch matrix of
//! the output error — the zero-inserted input of the textbook formulation
//! ([`w_conv_t_via_zero_insert_gemm`]) never exists, mirroring ZFWST's
//! "zero-inserting in input" elimination. For `W-CONV` of an S-CONV layer
//! the dilated-error operand is likewise never built.
//!
//! The *lowering* itself never changes results: per output element the
//! compact operands carry the same terms in the same order as the golden
//! loop nests, with only exact-zero terms (which cannot change a finite
//! accumulation) skipped. Run with a scalar GEMM
//! ([`MatmulKind::Naive`]/[`MatmulKind::BlockedScalar`]), every function
//! here is therefore **bit-identical** to its golden nest in
//! [`crate::conv`]. Run with the packed microkernel
//! ([`MatmulKind::Blocked`]), the f32 results
//! follow the kernel's own fused accumulation order instead (still
//! deterministic; see [`crate::microkernel`]), while `Fx` and `f64` stay
//! bit-identical to golden. `tests/fast_conv.rs` pins both contracts over
//! random geometries.
//!
//! # Orientation
//!
//! The scalar (reference) kinds multiply **patch-major**: one patch row
//! per output pixel times a `K × maps` weight matrix, the product
//! transposed into the maps — the lowering as it is specified, kept as the
//! oracle. The packed kinds multiply **weight-stationary**: `A` is the
//! weights with one row per output map, `B` the transposed patch matrix
//! (`K × pixels`, the only operand lowered per call), and the product's
//! rows are the output maps. For the whole-map passes `A` is the kernel
//! tensor read in place ([`crate::im2col::s_conv_via_gemm_ws`], which also
//! serves the T-CONV input error); for the phase passes here it is the
//! phase's sub-kernel matrix, gathered once per weight version into a
//! [`PhaseKernelCache`] by the owner of the weights, or per call into
//! workspace scratch by callers that only hold a `&Kernels`.
//!
//! The two orientations agree bit for bit per element type: the chain per
//! output element is the same (`k` ascending, one multiply–add per term),
//! only the two factors of each product trade places, and multiplication
//! commutes in every element type — `fma(a, b, c) = fma(b, a, c)`, the
//! Q8.8 term is `sat(round(a·b))`. Which exact-zero terms are skipped may
//! differ, and that never changes bits either (see [`crate::gemm`]).

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

use crate::error::{ShapeError, TensorResult};
use crate::fmaps::Fmaps;
use crate::gemm::{fill_b_rows, matmul_slices_ws, matmul_streamed_ws, AScan, MatmulKind, Product};
use crate::im2col::{fill_im2col_s_row, im2col_s_ws, s_conv_via_gemm_ws, Lowered, Matrix};
use crate::kernels::Kernels;
use crate::num::Num;
use crate::shape::ConvGeom;
use crate::workspace::ConvWorkspace;
use crate::zeros::insert_zeros;

/// One stride-phase of a zero-free `T-CONV`: the output pixels with
/// `oy ≡ ry`, `ox ≡ rx (mod stride)` and the kernel taps that can reach
/// them.
#[derive(Debug)]
struct TPhase {
    /// Output rows of this phase, ascending.
    oys: Vec<usize>,
    /// Output columns of this phase, ascending.
    oxs: Vec<usize>,
    /// Kept flipped-kernel row indices `ky′`, ascending — ascending `ky′`
    /// is ascending source row `iy`, the golden scatter's order.
    kys: Vec<usize>,
    /// Kept flipped-kernel column indices `kx′`, ascending.
    kxs: Vec<usize>,
    /// The gather's index table: for every kept tap, in `(ky′, kx′)` order,
    /// the offset of its (unflipped) weight inside a kernel's `kh·kw`
    /// block, `(kh−1−ky′)·kw + (kw−1−kx′)`.
    tap_offsets: Vec<usize>,
}

impl TPhase {
    /// Kept taps per source channel, `|kys|·|kxs|`. Zero when no kernel
    /// tap reaches this phase: its outputs stay zero, exactly as the
    /// golden scatter leaves them, and every lowering skips it.
    fn taps(&self) -> usize {
        self.tap_offsets.len()
    }
}

/// Enumerates the `stride²` phases of a `T-CONV` output of size `oh × ow`.
fn t_phases(geom: &ConvGeom, oh: usize, ow: usize) -> Vec<TPhase> {
    let s = geom.stride();
    let (pt, _, pl, _) = geom.t_conv_pads();
    let keep = |r: usize, pad: usize, kdim: usize| -> Vec<usize> {
        (0..kdim)
            .filter(|&k| (r as isize + k as isize - pad as isize).rem_euclid(s as isize) == 0)
            .collect()
    };
    let mut phases = Vec::with_capacity(s * s);
    for ry in 0..s {
        for rx in 0..s {
            let oys: Vec<usize> = (ry..oh).step_by(s).collect();
            let oxs: Vec<usize> = (rx..ow).step_by(s).collect();
            if oys.is_empty() || oxs.is_empty() {
                continue;
            }
            let (kh, kw) = (geom.kh(), geom.kw());
            let (kys, kxs) = (keep(ry, pt, kh), keep(rx, pl, kw));
            let tap_offsets = kys
                .iter()
                .flat_map(|&ky| {
                    kxs.iter()
                        .map(move |&kx| (kh - 1 - ky) * kw + (kw - 1 - kx))
                })
                .collect();
            phases.push(TPhase {
                oys,
                oxs,
                kys,
                kxs,
                tap_offsets,
            });
        }
    }
    phases
}

/// Everything [`t_phases`] reads: `(stride, pad_top, pad_left, kh, kw, oh,
/// ow)`. Keys the phase memo, and names the decomposition a
/// [`PhaseKernelCache`] was gathered for.
type PhaseKey = (usize, usize, usize, usize, usize, usize, usize);

fn phase_key(geom: &ConvGeom, oh: usize, ow: usize) -> PhaseKey {
    let (pt, _, pl, _) = geom.t_conv_pads();
    (geom.stride(), pt, pl, geom.kh(), geom.kw(), oh, ow)
}

/// Shape-keyed memo of [`t_phases`] decompositions, embedded in
/// [`ConvWorkspace`]. A GAN's layer geometries repeat every step, and
/// `t_phases` allocates a handful of index vectors per call — caching them
/// behind `Arc`s removes the last per-call allocation from the zero-free
/// T-CONV hot path (`Arc` rather than `Rc` keeps the workspace `Send`).
#[derive(Debug, Default)]
pub(crate) struct PhaseCache {
    map: HashMap<PhaseKey, Arc<Vec<TPhase>>>,
}

impl PhaseCache {
    /// The phase decomposition for `(geom, oh, ow)`, computed at most once
    /// per distinct shape.
    fn get(&mut self, geom: &ConvGeom, oh: usize, ow: usize) -> Arc<Vec<TPhase>> {
        Arc::clone(
            self.map
                .entry(phase_key(geom, oh, ow))
                .or_insert_with(|| Arc::new(t_phases(geom, oh, ow))),
        )
    }
}

/// The phases for one zero-free T-CONV call: memoized through the
/// workspace when reuse is on, computed fresh (like the pre-workspace
/// code) when it is off.
fn phases_for<T>(
    ws: &mut ConvWorkspace<T>,
    geom: &ConvGeom,
    oh: usize,
    ow: usize,
) -> Arc<Vec<TPhase>> {
    if ws.reuse() {
        ws.phases.get(geom, oh, ow)
    } else {
        Arc::new(t_phases(geom, oh, ow))
    }
}

/// The patch-major fill loop of [`t_phase_patches`]. Writes only in-bounds
/// entries, so `patches` **must** start zero-filled.
fn fill_t_phase_patches<T: Num>(
    patches: &mut Matrix<T>,
    input: &Fmaps<T>,
    geom: &ConvGeom,
    phase: &TPhase,
) {
    let s = geom.stride() as isize;
    let su = geom.stride();
    let (pt, _, pl, _) = geom.t_conv_pads();
    let (ih, iw) = (input.height() as isize, input.width() as isize);
    let iw_s = iw * s;
    let (nky, nkx) = (phase.kys.len(), phase.kxs.len());
    let data = input.as_slice();
    let ch_stride = (ih * iw) as usize;
    // zy/zx ≡ 0 (mod s) by construction of the kept taps; a tap is a real
    // source pixel iff it lands inside the map. Row-major traversal with
    // flat-slice writes: each output row is written contiguously, the
    // y-axis division is hoisted out of the inner tap loop, and the
    // strided reads stay inside one `sf` channel block per row group —
    // small enough to sit in cache. No scratch is allocated (the conv hot
    // path is zero-allocation in steady state, `tests/zero_alloc.rs`).
    for (ri, &oy) in phase.oys.iter().enumerate() {
        for (rj, &ox) in phase.oxs.iter().enumerate() {
            let row = ri * phase.oxs.len() + rj;
            let dst = patches.row_mut(row);
            for (sf, dchunk) in dst.chunks_exact_mut(nky * nkx).enumerate() {
                let cbase = sf * ch_stride;
                for (kyi, &ky) in phase.kys.iter().enumerate() {
                    let zy = oy as isize + ky as isize - pt as isize;
                    if zy < 0 || zy / s >= ih {
                        continue;
                    }
                    let src = cbase + (zy / s) as usize * iw as usize;
                    let db = kyi * nkx;
                    for (kxi, &kx) in phase.kxs.iter().enumerate() {
                        let zx = ox as isize + kx as isize - pl as isize;
                        if zx >= 0 && zx < iw_s {
                            dchunk[db + kxi] = data[src + zx as usize / su];
                        }
                    }
                }
            }
        }
    }
}

/// Specification form of [`fill_t_phase_patches`]: one bounds check and
/// stride division per matrix entry, written exactly as the lowering is
/// defined. The reference engines ([`MatmulKind::is_reference`]) run this
/// loop so their cost model stays that of the pre-microkernel engine;
/// tests pin it bit-identical to the table-driven fill.
fn fill_t_phase_patches_ref<T: Num>(
    patches: &mut Matrix<T>,
    input: &Fmaps<T>,
    geom: &ConvGeom,
    phase: &TPhase,
) {
    let s = geom.stride() as isize;
    let (pt, _, pl, _) = geom.t_conv_pads();
    let (ih, iw) = (input.height() as isize, input.width() as isize);
    for (ri, &oy) in phase.oys.iter().enumerate() {
        for (rj, &ox) in phase.oxs.iter().enumerate() {
            let row = ri * phase.oxs.len() + rj;
            let mut col = 0;
            for sf in 0..input.channels() {
                for &ky in &phase.kys {
                    // zy ≡ 0 (mod s) by construction of the kept taps; it
                    // is a real source pixel iff it lands inside the map.
                    let zy = oy as isize + ky as isize - pt as isize;
                    for &kx in &phase.kxs {
                        let zx = ox as isize + kx as isize - pl as isize;
                        if zy >= 0 && zx >= 0 && zy / s < ih && zx / s < iw {
                            *patches.at_mut(row, col) =
                                *input.at(sf, (zy / s) as usize, (zx / s) as usize);
                        }
                        col += 1;
                    }
                }
            }
        }
    }
}

/// The transposed phase patch fill of the weight-stationary lowering: `b`
/// is `(N_sf·|kys|·|kxs|) × (phase pixels)`, the transpose of
/// [`fill_t_phase_patches`]. Output pixel `(ri, rj)` of the phase meets
/// tap `(ky′, kx′)` at source pixel `(ri + dy, rj + dx)` for per-tap
/// constants `dy`, `dx` (the kept taps are exactly those whose zero-inserted
/// coordinate is a multiple of the stride), so every row of `b` is a
/// *shifted copy* of one input plane: contiguous reads, contiguous writes.
/// Writes only in-bounds entries, so `b` **must** start zero-filled. `m` is
/// the row count of the GEMM `b` feeds ([`fill_b_rows`]).
fn fill_t_phase_patches_transposed<T: Num>(
    b: &mut Matrix<T>,
    input: &Fmaps<T>,
    geom: &ConvGeom,
    phase: &TPhase,
    m: usize,
) {
    let s = geom.stride() as isize;
    let (pt, _, pl, _) = geom.t_conv_pads();
    let (ih, iw) = (input.height(), input.width());
    let (noy, nox) = (phase.oys.len(), phase.oxs.len());
    let nkx = phase.kxs.len();
    debug_assert_eq!(b.rows(), input.channels() * phase.taps());
    debug_assert_eq!(b.cols(), noy * nox);
    fill_b_rows(b, m, |row, dst| {
        let (c, tap) = (row / phase.taps(), row % phase.taps());
        let plane = &input.as_slice()[c * ih * iw..(c + 1) * ih * iw];
        let (ky, kx) = (phase.kys[tap / nkx], phase.kxs[tap % nkx]);
        let dy = (phase.oys[0] as isize + ky as isize - pt as isize) / s;
        let dx = (phase.oxs[0] as isize + kx as isize - pl as isize) / s;
        // Phase columns whose source lands inside the map.
        let rj_lo = (-dx).max(0) as usize;
        let rj_hi = (iw as isize - dx).clamp(0, nox as isize) as usize;
        if rj_lo >= rj_hi {
            return;
        }
        let (src_lo, src_hi) = (
            (rj_lo as isize + dx) as usize,
            (rj_hi as isize + dx) as usize,
        );
        for ri in 0..noy {
            let iy = ri as isize + dy;
            if iy < 0 || iy >= ih as isize {
                continue;
            }
            let src = &plane[iy as usize * iw..(iy as usize + 1) * iw];
            dst[ri * nox + rj_lo..ri * nox + rj_hi].copy_from_slice(&src[src_lo..src_hi]);
        }
    });
}

/// Builds one phase's compact patch matrix. Rows enumerate the phase's
/// output pixels (row-major); columns enumerate `(sf, ky′, kx′)` over the
/// kept taps. Entries outside the real input (boundary, not inserted) are
/// zero.
fn t_phase_patches<T: Num>(input: &Fmaps<T>, geom: &ConvGeom, phase: &TPhase) -> Matrix<T> {
    let cols = input.channels() * phase.kys.len() * phase.kxs.len();
    let mut patches = Matrix::zeros(phase.oys.len() * phase.oxs.len(), cols);
    fill_t_phase_patches(&mut patches, input, geom, phase);
    patches
}

/// The weight fill loop of [`t_phase_weights`]. Writes every cell of `m`.
fn fill_t_phase_weights<T: Num>(m: &mut Matrix<T>, k: &Kernels<T>, phase: &TPhase) {
    // Row-major traversal: each output row `(sf, ky′, kx′)` is written
    // contiguously across the `lf` columns, and the strided kernel reads
    // stay inside one `sf` block (`n_if·kh·kw` elements) that is revisited
    // for every kept tap — small enough to sit in cache.
    let (n_if, kh, kw) = (k.n_if(), k.kh(), k.kw());
    let kdata = k.as_slice();
    let mut row = 0;
    for sf in 0..k.n_of() {
        for &ky in &phase.kys {
            for &kx in &phase.kxs {
                let tap = (kh - 1 - ky) * kw + (kw - 1 - kx);
                let base = sf * n_if * kh * kw + tap;
                for (lf, d) in m.row_mut(row).iter_mut().enumerate() {
                    *d = kdata[base + lf * kh * kw];
                }
                row += 1;
            }
        }
    }
}

/// Specification form of [`fill_t_phase_weights`]: column-major traversal
/// through the kernel accessor, written exactly as the reshape is defined.
/// The reference engines run this loop (see [`MatmulKind::is_reference`]);
/// tests pin it bit-identical to the row-major fill.
fn fill_t_phase_weights_ref<T: Num>(m: &mut Matrix<T>, k: &Kernels<T>, phase: &TPhase) {
    let (kh, kw) = (k.kh(), k.kw());
    for lf in 0..k.n_if() {
        let mut row = 0;
        for sf in 0..k.n_of() {
            for &ky in &phase.kys {
                for &kx in &phase.kxs {
                    *m.at_mut(row, lf) = *k.at(sf, lf, kh - 1 - ky, kw - 1 - kx);
                    row += 1;
                }
            }
        }
    }
}

/// The row subset of [`crate::im2col::weights_as_matrix_t`] matching one
/// phase's kept taps: rows are `(sf, ky′, kx′)`, columns the large-side
/// output channels.
fn t_phase_weights<T: Num>(k: &Kernels<T>, phase: &TPhase) -> Matrix<T> {
    let rows = k.n_of() * phase.kys.len() * phase.kxs.len();
    let mut m = Matrix::zeros(rows, k.n_if());
    fill_t_phase_weights(&mut m, k, phase);
    m
}

/// The compact per-phase patch matrices of a zero-free `T-CONV` lowering,
/// for ineffectual-operand accounting: compare these matrices'
/// [`Lowered::zero_fraction`] (only boundary zeros remain) with
/// [`crate::im2col::im2col_t`]'s (inserted zeros dominate). Each entry's
/// `out_hw` is the phase's output grid. Phases with no reachable kernel
/// taps produce no patches.
pub fn im2col_t_zero_free<T: Num>(input: &Fmaps<T>, geom: &ConvGeom) -> Vec<Lowered<T>> {
    let (oh, ow) = geom.up_out(input.height(), input.width());
    t_phases(geom, oh, ow)
        .iter()
        .filter(|p| !p.kys.is_empty() && !p.kxs.is_empty())
        .map(|p| Lowered {
            patches: t_phase_patches(input, geom, p),
            out_hw: (p.oys.len(), p.oxs.len()),
        })
        .collect()
}

/// The per-phase patch-major GEMM operand pairs `(patches, weights)` of a
/// zero-free `T-CONV` — the matrices the specification lowering multiplies
/// (the packed kinds multiply their transposes, see the module docs),
/// exposed so fault-injection campaigns can drive each phase's GEMM
/// through instrumented kernels (ABFT checks, accumulator corruption)
/// without re-deriving the dataflow. Phases with no reachable kernel taps
/// are omitted, matching [`im2col_t_zero_free`].
///
/// # Errors
///
/// Returns an error if `k.n_of() != input.channels()`.
pub fn t_zero_free_gemm_operands<T: Num>(
    input: &Fmaps<T>,
    k: &Kernels<T>,
    geom: &ConvGeom,
) -> TensorResult<Vec<(Matrix<T>, Matrix<T>)>> {
    if k.n_of() != input.channels() {
        return Err(ShapeError::new(format!(
            "kernel's down-direction output side is {} maps, t_conv input has {}",
            k.n_of(),
            input.channels()
        )));
    }
    let (oh, ow) = geom.up_out(input.height(), input.width());
    Ok(t_phases(geom, oh, ow)
        .iter()
        .filter(|p| !p.kys.is_empty() && !p.kxs.is_empty())
        .map(|p| (t_phase_patches(input, geom, p), t_phase_weights(k, p)))
        .collect())
}

/// The gathered per-phase sub-kernel matrices of one weight tensor — the
/// stationary `A` operands of the zero-free phase GEMMs, built once per
/// weight version instead of once per call.
///
/// Phase `p`'s matrix is `N_if × (N_of·|kys|·|kxs|)`: row `lf` holds, for
/// every `(sf, ky′, kx′)` over the phase's kept taps, the flipped-kernel
/// weight `k[sf][lf][kh−1−ky′][kw−1−kx′]`. Every tap belongs to exactly one
/// phase, so all phases together hold each weight once: the cache costs
/// one extra copy of the layer's parameters.
///
/// # Lifetime and invalidation
///
/// The owner of the weights (a `ConvLayer`) owns one cache next to them
/// and must call [`PhaseKernelCache::invalidate`] on **every** path that
/// hands out `&mut` access to the weights; a `Default`/cloned/deserialised
/// cache starts stale. The first pass after that re-gathers — into the
/// same buffer, which is kept across invalidations, so a steady-state
/// train step never reallocates it. Reads go through an `RwLock`, so a
/// network shared by reference across pool workers gathers once and then
/// runs its passes concurrently.
#[derive(Debug)]
pub struct PhaseKernelCache<T> {
    state: RwLock<Gathered<T>>,
}

/// `data` holds the phase matrices of `key`'s decomposition back to back;
/// `key` is `None` while stale — including for the duration of a gather,
/// so a gather that panics leaves the cache stale, never half-valid.
#[derive(Debug)]
struct Gathered<T> {
    key: Option<PhaseKey>,
    data: Vec<T>,
}

impl<T> Default for PhaseKernelCache<T> {
    /// An empty, stale cache.
    fn default() -> Self {
        Self {
            state: RwLock::new(Gathered {
                key: None,
                data: Vec::new(),
            }),
        }
    }
}

impl<T> Clone for PhaseKernelCache<T> {
    /// A clone starts stale and empty: always correct, and snapshots of a
    /// network don't pay for a second copy of its parameters.
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<T: Num> PhaseKernelCache<T> {
    /// Marks the gathered sub-kernels stale; the buffer is kept for the
    /// re-gather. Call whenever the weights may have changed.
    pub fn invalidate(&mut self) {
        // No update ever leaves the pair inconsistent (see `Gathered`), so
        // a poisoned lock still guards valid data.
        self.state
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .key = None;
    }

    /// Runs `f` on the sub-kernels of `k` for the decomposition `key`,
    /// gathering them first if the cache is stale or was gathered for
    /// another decomposition.
    fn with_gathered<R>(
        &self,
        k: &Kernels<T>,
        key: PhaseKey,
        phases: &[TPhase],
        f: impl FnOnce(&[T]) -> R,
    ) -> R {
        loop {
            let fresh = self.state.read().unwrap_or_else(PoisonError::into_inner);
            if fresh.key == Some(key) {
                return f(&fresh.data);
            }
            drop(fresh);
            let mut stale = self.state.write().unwrap_or_else(PoisonError::into_inner);
            if stale.key != Some(key) {
                stale.key = None;
                let len = k.len();
                if stale.data.len() != len {
                    stale.data.clear();
                    stale.data.resize(len, T::zero());
                }
                gather_phase_kernels(&mut stale.data, k, phases);
                stale.key = Some(key);
            }
        }
    }
}

/// Gathers every live phase's sub-kernel matrix (see [`PhaseKernelCache`]
/// for the layout) into `out`, which must hold `k.len()` elements; the
/// first `Σ taps · N_if · N_of` are written (all of them, unless some phase
/// is missing from a tiny output grid).
///
/// The kernel tensor is read front to back, [`GATHER_SF_TILE`] `sf` slabs
/// at a time: inside a tile the `lf` walk advances that many sequential
/// read streams, each `kh·kw` block is dealt to the phases through their
/// tap tables while it is cache-hot, and every phase matrix receives one
/// contiguous `tile × taps` run per `lf`. (The `lf`-outer order read the
/// tensor at an `N_if·kh·kw` stride — one page-crossing per block.)
/// Allocates nothing.
fn gather_phase_kernels<T: Num>(out: &mut [T], k: &Kernels<T>, phases: &[TPhase]) {
    let (n_of, n_if, kh, kw) = k.shape();
    let block_len = kh * kw;
    let kdata = k.as_slice();
    for sf0 in (0..n_of).step_by(GATHER_SF_TILE) {
        let sf1 = (sf0 + GATHER_SF_TILE).min(n_of);
        for lf in 0..n_if {
            let mut base = 0;
            for phase in phases.iter().filter(|p| p.taps() > 0) {
                let taps = phase.taps();
                let run =
                    &mut out[base + (lf * n_of + sf0) * taps..base + (lf * n_of + sf1) * taps];
                for (sf, slots) in (sf0..sf1).zip(run.chunks_exact_mut(taps)) {
                    let block = &kdata[(sf * n_if + lf) * block_len..][..block_len];
                    for (slot, &tap) in slots.iter_mut().zip(&phase.tap_offsets) {
                        *slot = block[tap];
                    }
                }
                base += n_if * n_of * taps;
            }
        }
    }
}

/// `sf` slabs gathered together: few enough read streams for the hardware
/// prefetchers to follow, enough that a phase's write run spans whole
/// cache lines.
const GATHER_SF_TILE: usize = 32;

/// Zero-free `T-CONV`: compact per-phase lowering + GEMM, bit-identical
/// to [`crate::t_conv`] under the scalar kinds (see the module docs).
///
/// # Errors
///
/// Returns an error if `k.n_of() != input.channels()`.
pub fn t_conv_zero_free<T: Num>(
    input: &Fmaps<T>,
    k: &Kernels<T>,
    geom: &ConvGeom,
    mm: MatmulKind,
) -> TensorResult<Fmaps<T>> {
    t_conv_zero_free_ws(input, k, geom, mm, &mut ConvWorkspace::new())
}

/// [`t_conv_zero_free`] with an explicit output size (the backward error
/// pass of an S-CONV layer needs the original input size back).
///
/// # Errors
///
/// Returns an error if `k.n_of() != input.channels()`.
pub fn t_conv_zero_free_sized<T: Num>(
    input: &Fmaps<T>,
    k: &Kernels<T>,
    geom: &ConvGeom,
    oh: usize,
    ow: usize,
    mm: MatmulKind,
) -> TensorResult<Fmaps<T>> {
    t_conv_zero_free_sized_ws(input, k, geom, oh, ow, mm, &mut ConvWorkspace::new())
}

/// [`t_conv_zero_free`] with every transient drawn from the workspace.
/// Bit-identical; the returned maps belong to the caller.
///
/// # Errors
///
/// Returns an error if `k.n_of() != input.channels()`.
pub fn t_conv_zero_free_ws<T: Num>(
    input: &Fmaps<T>,
    k: &Kernels<T>,
    geom: &ConvGeom,
    mm: MatmulKind,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<Fmaps<T>> {
    let (oh, ow) = geom.up_out(input.height(), input.width());
    t_conv_zero_free_sized_ws(input, k, geom, oh, ow, mm, ws)
}

/// [`t_conv_zero_free_sized`] with every transient (phase patch matrices,
/// GEMM products, output maps, and the phase sub-kernels, gathered afresh
/// for this call) drawn from the workspace, and the phase decomposition
/// memoized through its [`PhaseCache`]. Bit-identical to the allocating
/// form.
///
/// # Errors
///
/// Returns an error if `k.n_of() != input.channels()`.
pub fn t_conv_zero_free_sized_ws<T: Num>(
    input: &Fmaps<T>,
    k: &Kernels<T>,
    geom: &ConvGeom,
    oh: usize,
    ow: usize,
    mm: MatmulKind,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<Fmaps<T>> {
    t_conv_zero_free_driver(input, k, None, geom, oh, ow, mm, ws)
}

/// [`t_conv_zero_free_sized_ws`] for a caller that owns the weights: the
/// phase sub-kernels come from (and on first use after an invalidation are
/// gathered into) `sub_kernels`, which must belong to `k` — see
/// [`PhaseKernelCache`] for the invalidation rule. Bit-identical.
///
/// # Errors
///
/// Returns an error if `k.n_of() != input.channels()`.
#[allow(clippy::too_many_arguments)]
pub fn t_conv_zero_free_cached_ws<T: Num>(
    input: &Fmaps<T>,
    k: &Kernels<T>,
    sub_kernels: &PhaseKernelCache<T>,
    geom: &ConvGeom,
    oh: usize,
    ow: usize,
    mm: MatmulKind,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<Fmaps<T>> {
    t_conv_zero_free_driver(input, k, Some(sub_kernels), geom, oh, ow, mm, ws)
}

/// The one zero-free `T-CONV` driver behind every entry above.
///
/// The packed kinds run each phase **weight-stationary**: `A` is the
/// phase's gathered sub-kernel matrix (one row per output map), `B` the
/// transposed phase patch matrix — the only operand lowered per call — and
/// row `lf` of the product is output map `lf` restricted to the phase's
/// pixels, interleaved back by row. Per output element that is the
/// patch-major chain with each product's factors swapped: bit-neutral.
/// Reference kinds keep the patch-major specification lowering.
#[allow(clippy::too_many_arguments)]
fn t_conv_zero_free_driver<T: Num>(
    input: &Fmaps<T>,
    k: &Kernels<T>,
    sub_kernels: Option<&PhaseKernelCache<T>>,
    geom: &ConvGeom,
    oh: usize,
    ow: usize,
    mm: MatmulKind,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<Fmaps<T>> {
    if k.n_of() != input.channels() {
        return Err(ShapeError::new(format!(
            "kernel's down-direction output side is {} maps, t_conv input has {}",
            k.n_of(),
            input.channels()
        )));
    }
    if input.height() == 1 && input.width() == 1 {
        if let Some(out) = t_conv_one_by_one_ws(input, k, geom, oh, ow, mm, ws)? {
            return Ok(out);
        }
    }
    let phases = phases_for(ws, geom, oh, ow);
    // take_fmaps zero-fills: phases without reachable taps leave their
    // outputs zero, exactly as the golden scatter does.
    let mut out = ws.take_fmaps(k.n_if(), oh, ow);
    if mm.is_reference() {
        t_phases_patch_major(&mut out, input, k, geom, &phases, mm, ws)?;
    } else if let Some(cache) = sub_kernels {
        cache.with_gathered(k, phase_key(geom, oh, ow), &phases, |sub| {
            t_phases_weight_stationary(&mut out, input, sub, geom, &phases, mm, ws)
        })?;
    } else {
        let mut sub = ws.take(k.len());
        gather_phase_kernels(&mut sub, k, &phases);
        t_phases_weight_stationary(&mut out, input, &sub, geom, &phases, mm, ws)?;
        ws.give(sub);
    }
    Ok(out)
}

/// The reference kinds' phase loop: patch-major operands built by the
/// specification fills, product transposed into the maps.
fn t_phases_patch_major<T: Num>(
    out: &mut Fmaps<T>,
    input: &Fmaps<T>,
    k: &Kernels<T>,
    geom: &ConvGeom,
    phases: &[TPhase],
    mm: MatmulKind,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<()> {
    for phase in phases.iter().filter(|p| p.taps() > 0) {
        let kk = k.n_of() * phase.taps();
        // take_matrix zero-fills — required: the patch fill writes only
        // in-bounds entries.
        let mut patches = ws.take_matrix(phase.oys.len() * phase.oxs.len(), kk);
        fill_t_phase_patches_ref(&mut patches, input, geom, phase);
        let mut weights = ws.take_matrix(kk, k.n_if());
        fill_t_phase_weights_ref(&mut weights, k, phase);
        let product = mm.run_ws(&patches, &weights, ws)?;
        ws.give_matrix(weights);
        ws.give_matrix(patches);
        for lf in 0..k.n_if() {
            for (ri, &oy) in phase.oys.iter().enumerate() {
                for (rj, &ox) in phase.oxs.iter().enumerate() {
                    *out.at_mut(lf, oy, ox) = *product.at(ri * phase.oxs.len() + rj, lf);
                }
            }
        }
        ws.give_matrix(product);
    }
    Ok(())
}

/// The packed kinds' phase loop over gathered sub-kernels `sub` (laid out
/// as [`gather_phase_kernels`] writes them).
fn t_phases_weight_stationary<T: Num>(
    out: &mut Fmaps<T>,
    input: &Fmaps<T>,
    sub: &[T],
    geom: &ConvGeom,
    phases: &[TPhase],
    mm: MatmulKind,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<()> {
    let (n_if, oh, ow) = out.shape();
    let s = geom.stride();
    let mut base = 0;
    for phase in phases.iter().filter(|p| p.taps() > 0) {
        let kk = input.channels() * phase.taps();
        let a = &sub[base..base + n_if * kk];
        base += n_if * kk;
        let (noy, nox) = (phase.oys.len(), phase.oxs.len());
        // take_matrix zero-fills — required: the patch fill writes only
        // in-bounds entries.
        let mut b = ws.take_matrix(kk, noy * nox);
        fill_t_phase_patches_transposed(&mut b, input, geom, phase, n_if);
        let mut product = ws.take_dirty(n_if * noy * nox);
        let store = Product::Store(&mut product);
        matmul_slices_ws(mm, a, n_if, &b, AScan::Dense, store, ws)?;
        ws.give_matrix(b);
        // Row `lf` of the product is map `lf` on this phase's pixel grid:
        // deal its rows back into the map at the phase's stride.
        let maps = out.as_mut_slice().chunks_exact_mut(oh * ow);
        for (map, pmap) in maps.zip(product.chunks_exact(noy * nox)) {
            for (&oy, prow) in phase.oys.iter().zip(pmap.chunks_exact(nox)) {
                let orow = &mut map[oy * ow + phase.oxs[0]..(oy + 1) * ow];
                for (o, v) in orow.iter_mut().step_by(s).zip(prow) {
                    *o = *v;
                }
            }
        }
        ws.give(product);
    }
    Ok(())
}

/// Collapsed lowering for a `1×1` input map (the generator's latent
/// projection): every live patch entry is just `z[sf]` — the single input
/// pixel — so the whole phase decomposition collapses to **one**
/// `1 × n_of` GEMM against the kernel tensor itself, read zero-copy as
/// the `n_of × (n_if·kh·kw)` row-major matrix it already is. No patch
/// matrix, no `m·kk`-word `A` scan, no weight reshape: the only remaining
/// traffic is one streamed pass over the weights.
///
/// Bit-identity: in the classic phase GEMM each channel `sf` contributes
/// exactly one live tap per output pixel, so the per-element chain is
/// `Σ_sf z[sf]·k[sf][lf][ky][kx]` with `sf` ascending — precisely element
/// `(lf, ky, kx)` of the collapsed GEMM, the same fused (f32) /
/// saturating (Q8.8) chain in the same order. Output pixels no tap
/// reaches stay zero under every engine.
///
/// Returns `None` when the dispatch layer routes the collapsed GEMM to
/// the packed engine (forced-packed runs), the kind is a reference kind,
/// or the element type has no packed kernels: the caller then takes the
/// classic phase route, so a forced-packed baseline keeps the PR-8 cost
/// model unchanged.
fn t_conv_one_by_one_ws<T: Num>(
    input: &Fmaps<T>,
    k: &Kernels<T>,
    geom: &ConvGeom,
    oh: usize,
    ow: usize,
    mm: MatmulKind,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<Option<Fmaps<T>>> {
    let (n_if, kh, kw) = (k.n_if(), k.kh(), k.kw());
    let mut z = ws.take_matrix(1, k.n_of());
    z.as_mut_slice().copy_from_slice(input.as_slice());
    let product = crate::gemm::matmul_inline_b_ws(mm, &z, k.as_slice(), n_if * kh * kw, ws)?;
    ws.give_matrix(z);
    let Some(product) = product else {
        return Ok(None);
    };
    // Scatter: kernel tap `(ky, kx)` — flipped index `(kh−1−ky, kw−1−kx)`
    // — reaches exactly the output pixel whose source lands on the single
    // input pixel: `oy = pt − (kh−1−ky)`, `ox = pl − (kw−1−kx)`. Taps
    // mapping outside the output grid are boundary-cropped; pixels no tap
    // reaches stay zero (take_fmaps zero-fills).
    let (pt, _, pl, _) = geom.t_conv_pads();
    let mut out = ws.take_fmaps(n_if, oh, ow);
    let p = product.as_slice();
    for lf in 0..n_if {
        for ky in 0..kh {
            let oy = pt as isize - (kh - 1 - ky) as isize;
            if oy < 0 || oy as usize >= oh {
                continue;
            }
            for kx in 0..kw {
                let ox = pl as isize - (kw - 1 - kx) as isize;
                if ox < 0 || ox as usize >= ow {
                    continue;
                }
                *out.at_mut(lf, oy as usize, ox as usize) = p[(lf * kh + ky) * kw + kx];
            }
        }
    }
    ws.give_matrix(product);
    Ok(Some(out))
}

/// Backward error pass of a T-CONV layer by lowering: a plain strided
/// `im2col` of the error GEMMed against the kernel tensor read as
/// `N_of × (N_if·K_h·K_w)` — which is, operand for operand, the `S-CONV`
/// lowering ([`s_conv_via_gemm_ws`]) applied to the error maps.
/// Bit-identical to [`crate::t_conv_input_grad`] under the scalar kinds. No
/// zero-inserting is involved in either formulation, so this is also the
/// zero-free form.
///
/// # Errors
///
/// Returns an error if `delta_out.channels() != k.n_if()`.
pub fn t_conv_input_grad_via_gemm<T: Num>(
    delta_out: &Fmaps<T>,
    k: &Kernels<T>,
    geom: &ConvGeom,
    mm: MatmulKind,
) -> TensorResult<Fmaps<T>> {
    t_conv_input_grad_via_gemm_ws(delta_out, k, geom, mm, &mut ConvWorkspace::new())
}

/// [`t_conv_input_grad_via_gemm`] with every transient drawn from the
/// workspace. Bit-identical; the returned maps belong to the caller.
///
/// # Errors
///
/// Returns an error if `delta_out.channels() != k.n_if()`.
pub fn t_conv_input_grad_via_gemm_ws<T: Num>(
    delta_out: &Fmaps<T>,
    k: &Kernels<T>,
    geom: &ConvGeom,
    mm: MatmulKind,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<Fmaps<T>> {
    if k.n_if() != delta_out.channels() {
        return Err(ShapeError::new(format!(
            "kernel's up-direction side is {} maps, error has {}",
            k.n_if(),
            delta_out.channels()
        )));
    }
    s_conv_via_gemm_ws(delta_out, k, geom, mm, ws)
}

/// Checks that a `W-CONV`'s error maps have the spatial size the geometry
/// gives the layer's output.
fn check_error_map<T: Num>(delta_out: &Fmaps<T>, expected: (usize, usize)) -> TensorResult<()> {
    if (delta_out.height(), delta_out.width()) == expected {
        return Ok(());
    }
    Err(ShapeError::new(format!(
        "error map is {}×{}, expected {}×{} for this geometry",
        delta_out.height(),
        delta_out.width(),
        expected.0,
        expected.1
    )))
}

/// Runs a `W-CONV` lowering into a gradient tensor drawn from the
/// workspace. The lowering's product *is* the gradient — `rows ×
/// (cols·ky·kx)` row-major is the kernel tensor's flat layout — so the
/// GEMM writes the tensor's own storage (taken without a zero fill: every
/// element is overwritten) and nothing is copied afterwards.
fn w_conv_stored<T: Num>(
    (n_of, n_if, kh, kw): (usize, usize, usize, usize),
    ws: &mut ConvWorkspace<T>,
    lower: impl FnOnce(Product<'_, T>, &mut ConvWorkspace<T>) -> TensorResult<()>,
) -> TensorResult<Kernels<T>> {
    let mut grad = Kernels::from_vec(n_of, n_if, kh, kw, ws.take_dirty(n_of * n_if * kh * kw));
    match lower(Product::Store(grad.as_mut_slice()), ws) {
        Ok(()) => Ok(grad),
        Err(e) => {
            ws.give_kernels(grad);
            Err(e)
        }
    }
}

/// Checks that a gradient accumulator is shaped like the gradient a
/// `W-CONV` is about to add into it.
pub(crate) fn check_accumulator<T: Num>(
    acc: &Kernels<T>,
    shape: (usize, usize, usize, usize),
) -> TensorResult<()> {
    if acc.shape() == shape {
        return Ok(());
    }
    Err(ShapeError::new(format!(
        "gradient accumulator is {:?}, this layer's gradient is {shape:?}",
        acc.shape()
    )))
}

/// `W-CONV` of an S-CONV layer by lowering: the error (as a channels ×
/// pixels matrix) GEMMed against the forward pass's `im2col` patches.
/// Bit-identical to [`crate::w_conv_for_s_layer`].
///
/// This is the form Caffe actually executes — the "zero-inserting in
/// kernel" dilation of the textbook description never materialises, so
/// the same routine serves both the dense-lowered and zero-free backends.
///
/// # Errors
///
/// Returns an error if `delta_out`'s spatial size does not match this
/// geometry's forward output.
pub fn w_conv_s_via_gemm<T: Num>(
    input: &Fmaps<T>,
    delta_out: &Fmaps<T>,
    geom: &ConvGeom,
    mm: MatmulKind,
) -> TensorResult<Kernels<T>> {
    w_conv_s_via_gemm_ws(input, delta_out, geom, mm, &mut ConvWorkspace::new())
}

/// [`w_conv_s_via_gemm`] with every transient drawn from the workspace.
/// Bit-identical; the returned gradient belongs to the caller.
///
/// # Errors
///
/// Returns an error if `delta_out`'s spatial size does not match this
/// geometry's forward output.
pub fn w_conv_s_via_gemm_ws<T: Num>(
    input: &Fmaps<T>,
    delta_out: &Fmaps<T>,
    geom: &ConvGeom,
    mm: MatmulKind,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<Kernels<T>> {
    let shape = (delta_out.channels(), input.channels(), geom.kh(), geom.kw());
    w_conv_stored(shape, ws, |grad, ws| {
        w_conv_s_lowered(input, delta_out, geom, mm, grad, ws)
    })
}

/// [`w_conv_s_via_gemm_ws`] adding the gradient into `acc` instead of
/// returning it: `acc[i] = acc[i] + grad[i]`, bit for bit what
/// `acc.add_assign(&grad)` computes, with no `grad` — where the packed
/// engine's epilogue serves the shape the accumulator is the only
/// gradient-sized tensor touched (see [`crate::gemm`]).
///
/// # Errors
///
/// Returns an error if `delta_out`'s spatial size does not match this
/// geometry's forward output or `acc` is not shaped like the gradient.
pub fn w_conv_s_via_gemm_accumulate_ws<T: Num>(
    input: &Fmaps<T>,
    delta_out: &Fmaps<T>,
    geom: &ConvGeom,
    mm: MatmulKind,
    acc: &mut Kernels<T>,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<()> {
    check_accumulator(
        acc,
        (delta_out.channels(), input.channels(), geom.kh(), geom.kw()),
    )?;
    let grad = Product::AddTo(acc.as_mut_slice());
    w_conv_s_lowered(input, delta_out, geom, mm, grad, ws)
}

/// The one S-layer `W-CONV` lowering behind the entries above: `A` is the
/// error maps read in place, `B` the forward patches.
fn w_conv_s_lowered<T: Num>(
    input: &Fmaps<T>,
    delta_out: &Fmaps<T>,
    geom: &ConvGeom,
    mm: MatmulKind,
    grad: Product<'_, T>,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<()> {
    check_error_map(delta_out, geom.down_out(input.height(), input.width()))?;
    let (delta, m) = (delta_out.as_slice(), delta_out.channels());
    if mm.is_reference() {
        let lowered = im2col_s_ws(input, geom, ws);
        let done = matmul_slices_ws(mm, delta, m, &lowered.patches, AScan::Scan, grad, ws);
        ws.give_matrix(lowered.patches);
        return done;
    }
    // Streamed lowering: patch rows of the forward input are produced on
    // demand, so for few-channel error maps (the critic head) the small-m
    // streamed engine skips the whole `im2col` fill for every patch
    // position whose error column is zero.
    let ow = delta_out.width();
    let dims = (
        delta_out.height() * ow,
        input.channels() * geom.kh() * geom.kw(),
    );
    let patch_row = |r: usize, row: &mut [T]| fill_im2col_s_row(input, geom, ow, r, row);
    matmul_streamed_ws(mm, delta, m, dims, &patch_row, grad, ws)
}

/// Zero-free `W-CONV` of a T-CONV layer: the compact input (channels ×
/// pixels) GEMMed against a patch matrix of the error — rows the layer's
/// *compact* input pixels `(iy, ix)`, columns `(lf, ky, kx)`, each entry the
/// output error the pixel meets under that tap (zero outside the map). The
/// zero-inserted input of the textbook formulation is never built —
/// ZFWST's elimination, in software. Bit-identical to
/// [`crate::w_conv_for_t_layer`].
///
/// # Errors
///
/// Returns an error if `delta_out`'s spatial size is not the up-sampled
/// size of `input` under this geometry.
pub fn w_conv_t_zero_free<T: Num>(
    input: &Fmaps<T>,
    delta_out: &Fmaps<T>,
    geom: &ConvGeom,
    mm: MatmulKind,
) -> TensorResult<Kernels<T>> {
    w_conv_t_zero_free_ws(input, delta_out, geom, mm, &mut ConvWorkspace::new())
}

/// [`w_conv_t_zero_free`] with every transient drawn from the workspace.
/// Bit-identical; the returned gradient belongs to the caller.
///
/// # Errors
///
/// Returns an error if `delta_out`'s spatial size is not the up-sampled
/// size of `input` under this geometry.
pub fn w_conv_t_zero_free_ws<T: Num>(
    input: &Fmaps<T>,
    delta_out: &Fmaps<T>,
    geom: &ConvGeom,
    mm: MatmulKind,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<Kernels<T>> {
    let shape = (input.channels(), delta_out.channels(), geom.kh(), geom.kw());
    w_conv_stored(shape, ws, |grad, ws| {
        w_conv_t_lowered(input, delta_out, geom, mm, grad, ws)
    })
}

/// [`w_conv_t_zero_free_ws`] adding the gradient into `acc` instead of
/// returning it — the T-layer twin of [`w_conv_s_via_gemm_accumulate_ws`].
///
/// # Errors
///
/// Returns an error if `delta_out`'s spatial size is not the up-sampled
/// size of `input` under this geometry or `acc` is not shaped like the
/// gradient.
pub fn w_conv_t_zero_free_accumulate_ws<T: Num>(
    input: &Fmaps<T>,
    delta_out: &Fmaps<T>,
    geom: &ConvGeom,
    mm: MatmulKind,
    acc: &mut Kernels<T>,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<()> {
    check_accumulator(
        acc,
        (input.channels(), delta_out.channels(), geom.kh(), geom.kw()),
    )?;
    let grad = Product::AddTo(acc.as_mut_slice());
    w_conv_t_lowered(input, delta_out, geom, mm, grad, ws)
}

/// The one T-layer `W-CONV` lowering behind the entries above: `A` is the
/// layer's input maps read in place, `B` the error patches.
fn w_conv_t_lowered<T: Num>(
    input: &Fmaps<T>,
    delta_out: &Fmaps<T>,
    geom: &ConvGeom,
    mm: MatmulKind,
    grad: Product<'_, T>,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<()> {
    let (ih, iw) = (input.height(), input.width());
    check_error_map(delta_out, geom.up_out(ih, iw))?;
    let cols = delta_out.channels() * geom.kh() * geom.kw();
    // The error patches a compact input pixel meets are the S-CONV patch
    // of the error maps at that pixel. The fill writes every cell.
    let mut patches = ws.take_matrix_dirty(ih * iw, cols);
    let (a, m) = (input.as_slice(), input.channels());
    fill_b_rows(&mut patches, m, |r, row| {
        fill_im2col_s_row(delta_out, geom, iw, r, row)
    });
    let done = matmul_slices_ws(mm, a, m, &patches, AScan::Scan, grad, ws);
    ws.give_matrix(patches);
    done
}

/// `W-CONV` of a T-CONV layer the textbook way: materialise the
/// zero-inserted input, then GEMM it against unit-stride error patches.
/// Bit-identical to [`crate::w_conv_for_t_layer`] (the GEMM's zero skip
/// drops exactly the inserted rows), but pays for every inserted zero in
/// memory and operand traffic — the dense-lowered backend's cost model,
/// and the baseline the zero-free path is measured against.
///
/// # Errors
///
/// Returns an error if `delta_out`'s spatial size is not the up-sampled
/// size of `input` under this geometry.
pub fn w_conv_t_via_zero_insert_gemm<T: Num>(
    input: &Fmaps<T>,
    delta_out: &Fmaps<T>,
    geom: &ConvGeom,
    mm: MatmulKind,
) -> TensorResult<Kernels<T>> {
    check_error_map(delta_out, geom.up_out(input.height(), input.width()))?;
    let zi = insert_zeros(input, geom.stride());
    let (zh, zw) = (zi.height(), zi.width());
    let zi_mat = Matrix::from_vec(zi.channels(), zh * zw, zi.as_slice().to_vec());
    // Unit-stride patches of the error over the zero-inserted grid: the
    // original pixel (iy, ix) sits at (s·iy, s·ix), so the taps match the
    // golden nest's `s·iy + ky − pt` exactly.
    let (pt, pl) = (geom.pad_top() as isize, geom.pad_left() as isize);
    let cols = delta_out.channels() * geom.kh() * geom.kw();
    let mut patches = Matrix::zeros(zh * zw, cols);
    for zy in 0..zh {
        for zx in 0..zw {
            let row = zy * zw + zx;
            let mut col = 0;
            for lf in 0..delta_out.channels() {
                for ky in 0..geom.kh() {
                    for kx in 0..geom.kw() {
                        let ty = zy as isize + ky as isize - pt;
                        let tx = zx as isize + kx as isize - pl;
                        *patches.at_mut(row, col) = delta_out.at_padded(lf, ty, tx);
                        col += 1;
                    }
                }
            }
        }
    }
    let product = mm.run(&zi_mat, &patches)?;
    let mut grad = Kernels::zeros(input.channels(), delta_out.channels(), geom.kh(), geom.kw());
    for sf in 0..input.channels() {
        let mut col = 0;
        for lf in 0..delta_out.channels() {
            for ky in 0..geom.kh() {
                for kx in 0..geom.kw() {
                    *grad.at_mut(sf, lf, ky, kx) = *product.at(sf, col);
                    col += 1;
                }
            }
        }
    }
    Ok(grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{t_conv, t_conv_input_grad, w_conv_for_s_layer, w_conv_for_t_layer};
    use crate::im2col::im2col_t;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn geom() -> ConvGeom {
        ConvGeom::down(12, 12, 4, 4, 2, 6, 6).unwrap()
    }

    #[test]
    fn zero_free_t_conv_is_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(20);
        let x: Fmaps<f32> = Fmaps::random(5, 6, 6, 1.0, &mut rng);
        let k: Kernels<f32> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
        let golden = t_conv(&x, &k, &geom()).unwrap();
        for mm in [MatmulKind::Naive, MatmulKind::BlockedScalar] {
            let fast = t_conv_zero_free(&x, &k, &geom(), mm).unwrap();
            assert_eq!(golden, fast, "{mm:?}");
        }
    }

    #[test]
    fn zero_free_patches_drop_the_inserted_zeros() {
        let mut rng = SmallRng::seed_from_u64(21);
        let x: Fmaps<f64> = Fmaps::random(2, 6, 6, 1.0, &mut rng);
        let dense = im2col_t(&x, &geom());
        let compact = im2col_t_zero_free(&x, &geom());
        let frac = |zeros: f64, total: f64| zeros / total;
        let compact_zeros: f64 = compact
            .iter()
            .map(|l| l.zero_fraction() * (l.patches.rows() * l.patches.cols()) as f64)
            .sum();
        let compact_total: f64 = compact
            .iter()
            .map(|l| (l.patches.rows() * l.patches.cols()) as f64)
            .sum();
        assert!(dense.zero_fraction() > 0.65);
        assert!(
            frac(compact_zeros, compact_total) < 0.35,
            "compact fraction {}",
            frac(compact_zeros, compact_total)
        );
        // The compact lowering covers every output pixel exactly once.
        let (oh, ow) = geom().up_out(6, 6);
        let covered: usize = compact.iter().map(|l| l.out_hw.0 * l.out_hw.1).sum();
        assert_eq!(covered, oh * ow);
    }

    #[test]
    fn wgrad_lowerings_are_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(22);
        let g = geom();
        // S layer: input 12×12 → delta 6×6.
        let x: Fmaps<f32> = Fmaps::random(3, 12, 12, 1.0, &mut rng);
        let d: Fmaps<f32> = Fmaps::random(4, 6, 6, 1.0, &mut rng);
        let golden_s = w_conv_for_s_layer(&x, &d, &g).unwrap();
        assert_eq!(
            golden_s,
            w_conv_s_via_gemm(&x, &d, &g, MatmulKind::BlockedScalar).unwrap()
        );
        // T layer: input 6×6 → delta 12×12.
        let xt: Fmaps<f32> = Fmaps::random(4, 6, 6, 1.0, &mut rng);
        let dt: Fmaps<f32> = Fmaps::random(3, 12, 12, 1.0, &mut rng);
        let golden_t = w_conv_for_t_layer(&xt, &dt, &g).unwrap();
        assert_eq!(
            golden_t,
            w_conv_t_zero_free(&xt, &dt, &g, MatmulKind::BlockedScalar).unwrap()
        );
        assert_eq!(
            golden_t,
            w_conv_t_via_zero_insert_gemm(&xt, &dt, &g, MatmulKind::BlockedScalar).unwrap()
        );
    }

    #[test]
    fn t_input_grad_lowering_is_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(23);
        let g = geom();
        let d: Fmaps<f32> = Fmaps::random(3, 12, 12, 1.0, &mut rng);
        let k: Kernels<f32> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
        let golden = t_conv_input_grad(&d, &k, &g).unwrap();
        let fast = t_conv_input_grad_via_gemm(&d, &k, &g, MatmulKind::BlockedScalar).unwrap();
        assert_eq!(golden, fast);
    }

    #[test]
    fn gemm_operands_mirror_the_zero_free_phases() {
        let mut rng = SmallRng::seed_from_u64(24);
        let x: Fmaps<f32> = Fmaps::random(5, 6, 6, 1.0, &mut rng);
        let k: Kernels<f32> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
        let pairs = t_zero_free_gemm_operands(&x, &k, &geom()).unwrap();
        let lowered = im2col_t_zero_free(&x, &geom());
        assert_eq!(pairs.len(), lowered.len());
        for ((patches, weights), l) in pairs.iter().zip(&lowered) {
            assert_eq!(patches, &l.patches);
            assert_eq!(patches.cols(), weights.rows(), "GEMM-compatible pair");
            assert_eq!(weights.cols(), k.n_if());
        }
        let bad: Fmaps<f32> = Fmaps::zeros(2, 6, 6);
        assert!(t_zero_free_gemm_operands(&bad, &k, &geom()).is_err());
    }

    /// The reference (specification) fills and the cache-tuned fills must
    /// produce bit-identical matrices — they are the same reshape, only
    /// the traversal order differs. Covers boundary-heavy geometries
    /// where the patch fill's bounds checks matter.
    #[test]
    fn reference_and_tuned_fills_are_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(25);
        let geoms = [
            (ConvGeom::down(12, 12, 4, 4, 2, 6, 6).unwrap(), 6, 6),
            (ConvGeom::down(14, 14, 5, 5, 2, 7, 7).unwrap(), 7, 7),
            (ConvGeom::down(7, 7, 3, 3, 3, 3, 3).unwrap(), 3, 3),
            (ConvGeom::new(7, 7, 1, 0, 0, 0, 0).unwrap(), 1, 1),
        ];
        for (g, ih, iw) in &geoms {
            let (ih, iw) = (*ih, *iw);
            let x: Fmaps<f32> = Fmaps::random(3, ih, iw, 1.0, &mut rng);
            let k: Kernels<f32> = Kernels::random(3, 4, g.kh(), g.kw(), 1.0, &mut rng);
            let (oh, ow) = g.up_out(ih, iw);
            for phase in t_phases(g, oh, ow) {
                if phase.kys.is_empty() || phase.kxs.is_empty() {
                    continue;
                }
                let cols = x.channels() * phase.kys.len() * phase.kxs.len();
                let rows = phase.oys.len() * phase.oxs.len();
                let mut tuned = Matrix::zeros(rows, cols);
                fill_t_phase_patches(&mut tuned, &x, g, &phase);
                let mut reference = Matrix::zeros(rows, cols);
                fill_t_phase_patches_ref(&mut reference, &x, g, &phase);
                assert_eq!(tuned, reference, "patches, {g:?}");

                let wrows = k.n_of() * phase.kys.len() * phase.kxs.len();
                let mut tuned = Matrix::zeros(wrows, k.n_if());
                fill_t_phase_weights(&mut tuned, &k, &phase);
                let mut reference = Matrix::zeros(wrows, k.n_if());
                fill_t_phase_weights_ref(&mut reference, &k, &phase);
                assert_eq!(tuned, reference, "weights, {g:?}");
            }
        }
    }

    fn transpose(m: &Matrix<f32>) -> Matrix<f32> {
        let mut t = Matrix::zeros(m.cols(), m.rows());
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                *t.at_mut(c, r) = *m.at(r, c);
            }
        }
        t
    }

    /// The weight-stationary operands are exactly the transposes of the
    /// patch-major specification operands, phase by phase: the transposed
    /// patch fill against the reference patch fill, the gathered
    /// sub-kernels against the reference phase weights. Covers padded,
    /// stride-3, stride-1 and `1×1`-input geometries and a single-channel
    /// side.
    #[test]
    fn weight_stationary_operands_are_the_transposed_specification_operands() {
        let mut rng = SmallRng::seed_from_u64(26);
        let geoms = [
            (ConvGeom::down(12, 12, 4, 4, 2, 6, 6).unwrap(), 6, 6),
            (ConvGeom::down(14, 14, 5, 5, 2, 7, 7).unwrap(), 7, 7),
            (ConvGeom::down(7, 7, 3, 3, 3, 3, 3).unwrap(), 3, 3),
            (ConvGeom::down(4, 4, 4, 4, 1, 1, 1).unwrap(), 1, 1),
            (ConvGeom::new(7, 7, 1, 0, 0, 0, 0).unwrap(), 1, 1),
        ];
        for (g, ih, iw) in &geoms {
            let (ih, iw) = (*ih, *iw);
            for (n_of, n_if) in [(3, 4), (2, 1)] {
                let x: Fmaps<f32> = Fmaps::random(n_of, ih, iw, 1.0, &mut rng);
                let k: Kernels<f32> = Kernels::random(n_of, n_if, g.kh(), g.kw(), 1.0, &mut rng);
                let (oh, ow) = g.up_out(ih, iw);
                let phases = t_phases(g, oh, ow);
                let mut sub = vec![0.0f32; k.len()];
                gather_phase_kernels(&mut sub, &k, &phases);
                let mut base = 0;
                for phase in phases.iter().filter(|p| p.taps() > 0) {
                    let kk = n_of * phase.taps();
                    let npix = phase.oys.len() * phase.oxs.len();
                    let mut reference = Matrix::zeros(npix, kk);
                    fill_t_phase_patches_ref(&mut reference, &x, g, phase);
                    let mut b = Matrix::zeros(kk, npix);
                    fill_t_phase_patches_transposed(&mut b, &x, g, phase, k.n_if());
                    assert_eq!(b, transpose(&reference), "patches, {g:?}");

                    let mut weights = Matrix::zeros(kk, n_if);
                    fill_t_phase_weights_ref(&mut weights, &k, phase);
                    let a = Matrix::from_vec(n_if, kk, sub[base..base + n_if * kk].to_vec());
                    assert_eq!(a, transpose(&weights), "sub-kernels, {g:?}");
                    base += n_if * kk;
                }
            }
        }
    }

    /// The tiled gather against the specification reshape, phase by phase,
    /// for every stride 1–3 × kernel 3–5 and channel counts below, at and
    /// across the `sf` tile — into a poisoned buffer, so a slot the gather
    /// skipped shows up as a NaN.
    #[test]
    fn gather_matches_the_specification_fill_for_every_stride_and_kernel() {
        let mut rng = SmallRng::seed_from_u64(28);
        let tile = GATHER_SF_TILE;
        for stride in 1..=3 {
            for kdim in 3..=5 {
                let g = ConvGeom::down(3 * stride, 3 * stride, kdim, kdim, stride, 3, 3).unwrap();
                let (oh, ow) = g.up_out(3, 3);
                let phases = t_phases(&g, oh, ow);
                for (n_of, n_if) in [(1, 1), (3, 4), (tile, 2), (tile + 3, 3), (2 * tile + 1, 1)] {
                    let k: Kernels<f32> = Kernels::random(n_of, n_if, kdim, kdim, 1.0, &mut rng);
                    let mut sub = vec![f32::NAN; k.len()];
                    gather_phase_kernels(&mut sub, &k, &phases);
                    let mut base = 0;
                    for phase in phases.iter().filter(|p| p.taps() > 0) {
                        let kk = n_of * phase.taps();
                        let mut weights = Matrix::zeros(kk, n_if);
                        fill_t_phase_weights_ref(&mut weights, &k, phase);
                        let a = Matrix::from_vec(n_if, kk, sub[base..base + n_if * kk].to_vec());
                        assert_eq!(a, transpose(&weights), "s{stride} k{kdim} {n_of}x{n_if}");
                        base += n_if * kk;
                    }
                    assert_eq!(base, k.len(), "every tap belongs to exactly one phase");
                }
            }
        }
    }

    /// A cache gathers on first use, serves later calls from the gathered
    /// buffer, and re-gathers into the *same* buffer after `invalidate` —
    /// never serving a stale weight version.
    #[test]
    fn phase_kernel_cache_regathers_after_invalidation_into_the_same_buffer() {
        let mut rng = SmallRng::seed_from_u64(27);
        let g = geom();
        let x: Fmaps<f32> = Fmaps::random(5, 6, 6, 1.0, &mut rng);
        let mut k: Kernels<f32> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
        let mut ws = ConvWorkspace::new();
        let mut cache = PhaseKernelCache::default();
        let run = |k: &Kernels<f32>, cache: &PhaseKernelCache<f32>, ws: &mut ConvWorkspace<f32>| {
            t_conv_zero_free_cached_ws(&x, k, cache, &g, 12, 12, MatmulKind::Blocked, ws).unwrap()
        };
        let fresh = |k: &Kernels<f32>| t_conv_zero_free(&x, k, &g, MatmulKind::Blocked).unwrap();
        assert_eq!(run(&k, &cache, &mut ws), fresh(&k));
        let buffer = cache.state.read().unwrap().data.as_ptr();
        assert_eq!(run(&k, &cache, &mut ws), fresh(&k), "served from the cache");

        k.as_mut_slice().iter_mut().for_each(|w| *w *= -0.5);
        cache.invalidate();
        assert_eq!(run(&k, &cache, &mut ws), fresh(&k), "re-gathered");
        assert_eq!(buffer, cache.state.read().unwrap().data.as_ptr());

        // Another decomposition of the same weights re-keys the cache.
        let small: Fmaps<f32> = Fmaps::random(5, 3, 3, 1.0, &mut rng);
        let got =
            t_conv_zero_free_cached_ws(&small, &k, &cache, &g, 6, 6, MatmulKind::Blocked, &mut ws);
        let want = t_conv_zero_free_sized(&small, &k, &g, 6, 6, MatmulKind::Blocked);
        assert_eq!(got.unwrap(), want.unwrap());
        assert_eq!(run(&k, &cache, &mut ws), fresh(&k));
    }

    #[test]
    fn shape_errors_match_the_golden_nests() {
        let g = geom();
        let x: Fmaps<f32> = Fmaps::zeros(2, 6, 6);
        let k: Kernels<f32> = Kernels::zeros(5, 3, 4, 4);
        assert!(t_conv_zero_free(&x, &k, &g, MatmulKind::Blocked).is_err());
        let bad: Fmaps<f32> = Fmaps::zeros(3, 5, 5);
        assert!(w_conv_s_via_gemm(&x, &bad, &g, MatmulKind::Blocked).is_err());
        assert!(w_conv_t_zero_free(&x, &bad, &g, MatmulKind::Blocked).is_err());
        assert!(w_conv_t_via_zero_insert_gemm(&x, &bad, &g, MatmulKind::Blocked).is_err());
    }
}
