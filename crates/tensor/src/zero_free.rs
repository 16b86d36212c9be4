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
//! zero-operand test. [`t_zero_free_gemm_operands`] exposes the compact
//! patch matrices so the residual zero share is measurable, next to the
//! dense lowering's.
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
//! accumulation) skipped. Every function here runs on the GEMM engine
//! ([`crate::gemm`]): `Fx` and `f64` (the scalar blocked kernel) are
//! therefore **bit-identical** to their golden nests ([`crate::t_conv`],
//! [`crate::w_conv_for_t_layer`], …), while `f32` follows the packed
//! kernel's own fused accumulation order (still deterministic; see
//! [`crate::microkernel`]). `tests/fast_conv.rs` pins both contracts over
//! random geometries.
//!
//! # Orientation
//!
//! One orientation is left: **weight-stationary**. `A` is the weights with
//! one row per output map, `B` the transposed patch matrix (`K × pixels`,
//! the only operand lowered per call), and the product's rows are the
//! output maps. For the whole-map passes `A` is the kernel tensor read in
//! place ([`crate::im2col::s_conv_via_gemm_ws`], which also serves the
//! T-CONV input error); for the phase passes here it is the phase's
//! sub-kernel matrix, written into a [`PhaseKernels`] by the owner of the
//! weights whenever it writes the weights, or gathered per call into
//! workspace scratch by callers that only hold a `&Kernels`. The lowering
//! as it is specified — one patch row per output pixel times a `K × maps`
//! weight matrix ([`t_zero_free_gemm_operands`]) — is its transpose.
//!
//! The two orientations agree bit for bit per element type: the chain per
//! output element is the same (`k` ascending, one multiply–add per term),
//! only the two factors of each product trade places, and multiplication
//! commutes in every element type — `fma(a, b, c) = fma(b, a, c)`, the
//! Q8.8 term is `sat(round(a·b))`. Which exact-zero terms are skipped may
//! differ, and that never changes bits either (see [`crate::gemm`]).

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{ShapeError, TensorResult};
use crate::fmaps::Fmaps;
use crate::gemm::{matmul_blocked, matmul_streamed_ws, AScan, Product};
use crate::im2col::{fill_im2col_s_row, Matrix};
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
    /// The gather's index table: for every kept flipped-kernel tap, in
    /// ascending `(ky′, kx′)` order (ascending `ky′` is ascending source row
    /// `iy`, the golden scatter's order), the offset of its (unflipped)
    /// weight inside a kernel's `kh·kw` block, `(kh−1−ky′)·kw + (kw−1−kx′)`.
    tap_offsets: Vec<usize>,
    /// For every kept tap, in the same order, the source-pixel shift
    /// `(dy, dx)`: phase pixel `(ri, rj)` meets the tap at input pixel
    /// `(ri + dy, rj + dx)` — the row writer's only per-tap quantities.
    /// Dividing per row instead makes the MNIST image layer's phase pass
    /// (`14×14` rows) ~1.2× slower on one AVX-512 thread.
    shifts: Vec<(isize, isize)>,
}

impl TPhase {
    /// Kept taps per source channel, `|ky′|·|kx′|`. Zero when no kernel
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
            let taps = || {
                kys.iter()
                    .flat_map(|&ky| kxs.iter().map(move |&kx| (ky, kx)))
            };
            let tap_offsets = taps()
                .map(|(ky, kx)| (kh - 1 - ky) * kw + (kw - 1 - kx))
                .collect();
            // `ry + ky − pt` is a multiple of the stride for a kept tap, so
            // the divisions are exact.
            let shift = |r: usize, k: usize, pad: usize| (r + k) as isize - pad as isize;
            let shifts = taps()
                .map(|(ky, kx)| {
                    (
                        shift(ry, ky, pt) / s as isize,
                        shift(rx, kx, pl) / s as isize,
                    )
                })
                .collect();
            phases.push(TPhase {
                oys,
                oxs,
                tap_offsets,
                shifts,
            });
        }
    }
    phases
}

/// Everything [`t_phases`] reads: `(stride, pad_top, pad_left, kh, kw, oh,
/// ow)`. Keys the phase memo.
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

/// Row `row` of one phase's transposed patch matrix — the `B` operand of
/// the weight-stationary phase GEMM, `(N_sf·taps) × (phase pixels)`,
/// the transpose of a phase's patch matrix: tap `(sf, ky′, kx′)` across
/// every output pixel of the phase. Output pixel `(ri, rj)` meets the tap
/// at source pixel `(ri + dy, rj + dx)` for the per-tap constants
/// `TPhase::shifts`, so the row is a *shifted copy* of input plane `sf`:
/// contiguous reads, contiguous writes. Writes every element of `dst`
/// (taps that fall outside the map get an explicit zero), so `dst` need not
/// start zeroed. The one writer of the phase operand: the streamed GEMM
/// calls it per live row into its one-tile buffer, the materialized route
/// per row of `B`, and [`t_zero_free_gemm_operands`] per row before it
/// transposes.
fn fill_t_phase_row<T: Num>(input: &Fmaps<T>, phase: &TPhase, row: usize, dst: &mut [T]) {
    let (ih, iw) = (input.height(), input.width());
    let nox = phase.oxs.len();
    debug_assert_eq!(dst.len(), phase.oys.len() * nox);
    let (c, tap) = (row / phase.taps(), row % phase.taps());
    let plane = &input.as_slice()[c * ih * iw..(c + 1) * ih * iw];
    let (dy, dx) = phase.shifts[tap];
    // Phase columns whose source lands inside the map.
    let rj_lo = (-dx).max(0) as usize;
    let rj_hi = (iw as isize - dx).clamp(0, nox as isize) as usize;
    if rj_lo >= rj_hi {
        dst.fill(T::zero());
        return;
    }
    // Phase rows whose source lands inside the map.
    let ri_lo = (-dy).max(0) as usize;
    let ri_hi = (ih as isize - dy).clamp(0, phase.oys.len() as isize) as usize;
    if ri_lo >= ri_hi {
        dst.fill(T::zero());
        return;
    }
    if nox == iw {
        // A phase row is as wide as an input row (an up-sampling by
        // exactly the stride: every GAN layer), so the whole shifted
        // window is one run of the plane. Copy it in one piece; in between
        // rows the run wraps through the columns no source reaches
        // (`|dx|` of them), which are zeroed after. The per-row loop below
        // pays one short copy per phase row: on one AVX-512 thread it makes
        // the image layer's phase pass ~1.35× slower on DCGAN, ~2.2× on MNIST.
        let (lo, hi) = (ri_lo * nox + rj_lo, (ri_hi - 1) * nox + rj_hi);
        let src = ((ri_lo as isize + dy) * iw as isize + rj_lo as isize + dx) as usize;
        dst[..lo].fill(T::zero());
        dst[lo..hi].copy_from_slice(&plane[src..src + (hi - lo)]);
        dst[hi..].fill(T::zero());
        for col in (0..rj_lo).chain(rj_hi..nox) {
            let first = (ri_lo * nox + col).min(hi);
            for d in dst[first..hi].iter_mut().step_by(nox) {
                *d = T::zero();
            }
        }
        return;
    }
    let src_lo = (rj_lo as isize + dx) as usize;
    for (ri, drow) in dst.chunks_exact_mut(nox).enumerate() {
        let iy = ri as isize + dy;
        if iy < 0 || iy >= ih as isize {
            drow.fill(T::zero());
            continue;
        }
        let src = &plane[iy as usize * iw + src_lo..][..rj_hi - rj_lo];
        drow[..rj_lo].fill(T::zero());
        drow[rj_lo..rj_hi].copy_from_slice(src);
        drow[rj_hi..].fill(T::zero());
    }
}

/// The per-phase patch-major GEMM operand pairs `(patches, weights)` of a
/// zero-free `T-CONV` — the matrices the specification lowering multiplies
/// (the conv drivers multiply their transposes, see the module docs),
/// exposed so fault-injection campaigns can drive each phase's GEMM
/// through instrumented kernels (ABFT checks, accumulator corruption)
/// without re-deriving the dataflow, and for ineffectual-operand
/// accounting: the compact patches' [`Matrix::zero_fraction`] (only
/// boundary zeros remain) against [`crate::im2col::im2col_t`]'s (inserted
/// zeros dominate). A phase's patches have one row per output pixel of the
/// phase; phases with no reachable kernel taps are omitted. Both are the
/// production operands transposed: the phase row writer's `B` and the
/// gathered sub-kernels' `A`.
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
    let phases = t_phases(geom, oh, ow);
    let mut sub = vec![T::zero(); k.len()];
    gather_phase_kernels(&mut sub, k, &phases, 1);
    let mut rest = &sub[..];
    let live = phases.iter().filter(|p| p.taps() > 0);
    Ok(live
        .map(|p| {
            let kk = input.channels() * p.taps();
            let mut b = Matrix::zeros(kk, p.oys.len() * p.oxs.len());
            for row in 0..kk {
                fill_t_phase_row(input, p, row, b.row_mut(row));
            }
            let (a, tail) = rest.split_at(k.n_if() * kk);
            rest = tail;
            (
                transposed(&b),
                transposed(&Matrix::from_vec(k.n_if(), kk, a.to_vec())),
            )
        })
        .collect())
}

/// `m`ᵀ.
fn transposed<T: Num>(m: &Matrix<T>) -> Matrix<T> {
    let mut t = Matrix::zeros(m.cols(), m.rows());
    for r in 0..m.rows() {
        for (c, &v) in m.row(r).iter().enumerate() {
            *t.at_mut(c, r) = v;
        }
    }
    t
}

/// A weight tensor's gathered per-phase sub-kernel matrices — the
/// stationary `A` operands of the zero-free phase GEMMs, written when the
/// weights are written instead of once per call.
///
/// Phase `p`'s matrix is `N_if × (N_of·taps)`: row `lf` holds, for
/// every `(sf, ky′, kx′)` over the phase's kept taps, the flipped-kernel
/// weight `k[sf][lf][kh−1−ky′][kw−1−kx′]`. Every tap belongs to exactly one
/// phase, so all phases together hold each weight once: one extra copy of
/// the layer's parameters.
///
/// A plain owned value: the owner of the weights (a `ConvLayer`) calls
/// [`PhaseKernels::write`] whenever it writes them, and every pass reads
/// the result through `&self`. A `Default` value is empty, and a pass over
/// empty kernels gathers into workspace scratch per call.
#[derive(Debug, Clone, Default)]
pub struct PhaseKernels<T> {
    /// The decomposition `data` is laid out for, derived on the first write.
    phases: Arc<Vec<TPhase>>,
    /// The phase matrices back to back; empty until the first write.
    data: Vec<T>,
}

impl<T: Num> PhaseKernels<T> {
    /// Writes the sub-kernels of `k` that a zero-free `T-CONV` from an
    /// `input`-sized map onto an `output`-sized grid reads: into the buffer
    /// the last write filled, so a train step never reallocates it. A `1×1`
    /// input's pass reads `k` in place, so nothing is written for one.
    /// Nothing is written either for a kernel whose taps do not match
    /// `geom` (a pass over it gathers per call, as the raw entries do): this
    /// runs in a weight guard's `drop`, where a panic would abort an
    /// unwinding thread.
    pub fn write(
        &mut self,
        k: &Kernels<T>,
        geom: &ConvGeom,
        input: (usize, usize),
        (oh, ow): (usize, usize),
    ) {
        if input == (1, 1) || (k.kh(), k.kw()) != (geom.kh(), geom.kw()) {
            self.data.clear();
            return;
        }
        if self.data.len() != k.len() {
            self.phases = Arc::new(t_phases(geom, oh, ow));
            self.data = vec![T::zero(); k.len()];
        }
        let pieces = zfgan_pool::pass_pieces(k.len());
        gather_phase_kernels(&mut self.data, k, &self.phases, pieces);
    }
}

/// Gathers every live phase's sub-kernel matrix (see [`PhaseKernels`] for
/// the layout) into `out`, which must hold `k.len()` elements; the
/// first `Σ taps · N_if · N_of` are written (all of them, unless some phase
/// is missing from a tiny output grid).
///
/// The kernel tensor is read front to back, [`GATHER_SF_TILE`] `sf` slabs
/// at a time: inside a tile the `lf` walk advances that many sequential
/// read streams, each `kh·kw` block is dealt to the phases through their
/// tap tables while it is cache-hot, and every phase matrix receives one
/// contiguous `tile × taps` run per `lf`. (The `lf`-outer order read the
/// tensor at an `N_if·kh·kw` stride — one page-crossing per block.)
///
/// The `lf` range is cut into `pieces` (one: the whole loop on the calling
/// thread); a piece writes rows `lf` of every phase matrix for its own
/// range only, so the pieces' writes are disjoint and they run as one pool
/// batch, each through the same loop. A pure copy: the result does not
/// depend on `pieces`. Allocates nothing.
fn gather_phase_kernels<T: Num>(out: &mut [T], k: &Kernels<T>, phases: &[TPhase], pieces: usize) {
    let (n_of, n_if, kh, kw) = k.shape();
    let block_len = kh * kw;
    let kdata = k.as_slice();
    let lf_per_piece = n_if.div_ceil(pieces);
    let mut rest = out;
    for group in phases.chunks(zfgan_pool::ZIP_MAX_BUFFERS) {
        let live = || group.iter().filter(|p| p.taps() > 0);
        let regions = live().map(|p| {
            let (region, tail) = std::mem::take(&mut rest).split_at_mut(n_if * n_of * p.taps());
            rest = tail;
            (region, lf_per_piece * n_of * p.taps())
        });
        zfgan_pool::parallel_zip_chunks_for(regions, |piece, mut rows| {
            let lf0 = piece * lf_per_piece;
            let lfs = lf0..(lf0 + lf_per_piece).min(n_if);
            for sf0 in (0..n_of).step_by(GATHER_SF_TILE) {
                let sf1 = (sf0 + GATHER_SF_TILE).min(n_of);
                for lf in lfs.clone() {
                    let row = lf - lf0;
                    for (phase, region) in live().zip(rows.iter_mut()) {
                        let taps = phase.taps();
                        let run = &mut region[(row * n_of + sf0) * taps..(row * n_of + sf1) * taps];
                        for (sf, slots) in (sf0..sf1).zip(run.chunks_exact_mut(taps)) {
                            let block = &kdata[(sf * n_if + lf) * block_len..][..block_len];
                            for (slot, &tap) in slots.iter_mut().zip(&phase.tap_offsets) {
                                *slot = block[tap];
                            }
                        }
                    }
                }
            }
        })
        .expect("sub-kernel gather task panicked");
    }
}

/// `sf` slabs gathered together: few enough read streams for the hardware
/// prefetchers to follow, enough that a phase's write run spans whole
/// cache lines.
const GATHER_SF_TILE: usize = 32;

/// Zero-free `T-CONV` of output size `oh × ow` by compact per-phase
/// lowering and GEMM (see the module docs). The backward error pass of an
/// S-CONV layer is the same computation at the layer's original input
/// size, which a strided down-sampling may have quantised away, so the
/// size is explicit.
///
/// Each phase runs **weight-stationary**: `A` is the phase's gathered
/// sub-kernel matrix (one row per output map), `B` the transposed phase
/// patch matrix — the only operand lowered per call — and row `lf` of the
/// product is output map `lf` restricted to the phase's pixels, interleaved
/// back by row. Per output element that is the patch-major chain with each
/// product's factors swapped: bit-neutral. `B` goes through the streamed
/// GEMM entry, so a thin side (fewer output maps than one register tile:
/// the generator's image layer, the critic's first-layer input error)
/// never builds it — its rows are written into a one-tile buffer as the
/// broadcast engine reaches them; wider sides materialize and pack it.
///
/// The sub-kernels and the decomposition come from `sub_kernels` when the
/// caller owns the weights and has written them (they must be `k`'s, for
/// this grid, see [`PhaseKernels`]); otherwise they are gathered afresh
/// into workspace scratch. Every other transient (phase patch
/// matrices, GEMM products, output maps) is drawn from the workspace too,
/// and the phase decomposition is memoized through its [`PhaseCache`]; the
/// returned maps belong to the caller.
///
/// # Errors
///
/// Returns an error if `k.n_of() != input.channels()`.
pub(crate) fn t_conv_zero_free<T: Num>(
    input: &Fmaps<T>,
    k: &Kernels<T>,
    sub_kernels: Option<&PhaseKernels<T>>,
    geom: &ConvGeom,
    (oh, ow): (usize, usize),
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
        if let Some(out) = t_conv_one_by_one_ws(input, k, geom, oh, ow, ws)? {
            return Ok(out);
        }
    }
    // take_fmaps zero-fills: phases without reachable taps leave their
    // outputs zero, exactly as the golden scatter does.
    if let Some(sub) = sub_kernels.filter(|s| !s.data.is_empty()) {
        debug_assert_eq!(sub.data.len(), k.len(), "sub-kernels of another tensor");
        let mut out = ws.take_fmaps(k.n_if(), oh, ow);
        t_phases_weight_stationary(&mut out, input, &sub.data, geom, &sub.phases, ws)?;
        Ok(out)
    } else {
        let phases = ws.phases.get(geom, oh, ow);
        let mut out = ws.take_fmaps(k.n_if(), oh, ow);
        let mut sub = ws.take(k.len());
        gather_phase_kernels(&mut sub, k, &phases, zfgan_pool::pass_pieces(k.len()));
        t_phases_weight_stationary(&mut out, input, &sub, geom, &phases, ws)?;
        ws.give(sub);
        Ok(out)
    }
}

/// The phase loop over gathered sub-kernels `sub` (laid out as
/// [`gather_phase_kernels`] writes them).
fn t_phases_weight_stationary<T: Num>(
    out: &mut Fmaps<T>,
    input: &Fmaps<T>,
    sub: &[T],
    geom: &ConvGeom,
    phases: &[TPhase],
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
        let mut product = ws.take_dirty(n_if * noy * nox);
        let patch_row = |row: usize, dst: &mut [T]| fill_t_phase_row(input, phase, row, dst);
        let store = Product::Store(&mut product);
        matmul_streamed_ws(
            a,
            n_if,
            (kk, noy * nox),
            &patch_row,
            AScan::Dense,
            store,
            ws,
        )?;
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
/// the packed engine (forced-packed runs) or the element type has no
/// packed kernels: the caller then takes the classic phase route, so a
/// forced-packed baseline keeps the classic route's cost model.
fn t_conv_one_by_one_ws<T: Num>(
    input: &Fmaps<T>,
    k: &Kernels<T>,
    geom: &ConvGeom,
    oh: usize,
    ow: usize,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<Option<Fmaps<T>>> {
    let (n_if, kh, kw) = (k.n_if(), k.kh(), k.kw());
    let mut z = ws.take_matrix(1, k.n_of());
    z.as_mut_slice().copy_from_slice(input.as_slice());
    let product = crate::gemm::matmul_inline_b_ws(&z, k.as_slice(), n_if * kh * kw, ws)?;
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
/// pixels matrix) GEMMed against the forward pass's `im2col` patches, with
/// every transient drawn from the workspace; the returned gradient belongs
/// to the caller.
///
/// This is the form Caffe actually executes — the "zero-inserting in
/// kernel" dilation of the textbook description never materialises, so
/// the same routine serves both the dense-lowered and zero-free backends.
///
/// # Errors
///
/// Returns an error if `delta_out`'s spatial size does not match this
/// geometry's forward output.
pub fn w_conv_s_via_gemm_ws<T: Num>(
    input: &Fmaps<T>,
    delta_out: &Fmaps<T>,
    geom: &ConvGeom,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<Kernels<T>> {
    let shape = (delta_out.channels(), input.channels(), geom.kh(), geom.kw());
    w_conv_stored(shape, ws, |grad, ws| {
        w_conv_s_lowered(input, delta_out, geom, grad, ws)
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
    acc: &mut Kernels<T>,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<()> {
    check_accumulator(
        acc,
        (delta_out.channels(), input.channels(), geom.kh(), geom.kw()),
    )?;
    let grad = Product::AddTo(acc.as_mut_slice());
    w_conv_s_lowered(input, delta_out, geom, grad, ws)
}

/// The one S-layer `W-CONV` lowering behind the entries above: `A` is the
/// error maps read in place, `B` the forward patches.
fn w_conv_s_lowered<T: Num>(
    input: &Fmaps<T>,
    delta_out: &Fmaps<T>,
    geom: &ConvGeom,
    grad: Product<'_, T>,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<()> {
    check_error_map(delta_out, geom.down_out(input.height(), input.width()))?;
    let (delta, m) = (delta_out.as_slice(), delta_out.channels());
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
    matmul_streamed_ws(delta, m, dims, &patch_row, AScan::Scan, grad, ws)
}

/// Zero-free `W-CONV` of a T-CONV layer: the compact input (channels ×
/// pixels) GEMMed against a patch matrix of the error — rows the layer's
/// *compact* input pixels `(iy, ix)`, columns `(lf, ky, kx)`, each entry the
/// output error the pixel meets under that tap (zero outside the map). The
/// zero-inserted input of the textbook formulation is never built —
/// ZFWST's elimination, in software. Every transient is drawn from the
/// workspace; the returned gradient belongs to the caller.
///
/// # Errors
///
/// Returns an error if `delta_out`'s spatial size is not the up-sampled
/// size of `input` under this geometry.
pub fn w_conv_t_zero_free_ws<T: Num>(
    input: &Fmaps<T>,
    delta_out: &Fmaps<T>,
    geom: &ConvGeom,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<Kernels<T>> {
    let shape = (input.channels(), delta_out.channels(), geom.kh(), geom.kw());
    w_conv_stored(shape, ws, |grad, ws| {
        w_conv_t_lowered(input, delta_out, geom, grad, ws)
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
    acc: &mut Kernels<T>,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<()> {
    check_accumulator(
        acc,
        (input.channels(), delta_out.channels(), geom.kh(), geom.kw()),
    )?;
    let grad = Product::AddTo(acc.as_mut_slice());
    w_conv_t_lowered(input, delta_out, geom, grad, ws)
}

/// The one T-layer `W-CONV` lowering behind the entries above: `A` is the
/// layer's input maps read in place, `B` the error patches.
fn w_conv_t_lowered<T: Num>(
    input: &Fmaps<T>,
    delta_out: &Fmaps<T>,
    geom: &ConvGeom,
    grad: Product<'_, T>,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<()> {
    let (ih, iw) = (input.height(), input.width());
    check_error_map(delta_out, geom.up_out(ih, iw))?;
    let cols = delta_out.channels() * geom.kh() * geom.kw();
    // The error patches a compact input pixel meets are the S-CONV patch
    // of the error maps at that pixel.
    let (a, m) = (input.as_slice(), input.channels());
    let patch_row = |r: usize, row: &mut [T]| fill_im2col_s_row(delta_out, geom, iw, r, row);
    matmul_streamed_ws(a, m, (ih * iw, cols), &patch_row, AScan::Scan, grad, ws)
}

/// `W-CONV` of a T-CONV layer the textbook way: materialise the
/// zero-inserted input, then GEMM it against unit-stride error patches.
/// Bit-identical to [`crate::w_conv_for_t_layer`] for `f64` and `Fx` (the
/// GEMM's zero skip drops exactly the inserted rows), but pays for every
/// inserted zero in memory and operand traffic — the dense-lowered
/// backend's cost model, and the baseline the zero-free path is measured
/// against.
///
/// # Errors
///
/// Returns an error if `delta_out`'s spatial size is not the up-sampled
/// size of `input` under this geometry.
pub fn w_conv_t_via_zero_insert_gemm<T: Num>(
    input: &Fmaps<T>,
    delta_out: &Fmaps<T>,
    geom: &ConvGeom,
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
    let product = matmul_blocked(&zi_mat, &patches)?;
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
    use crate::ConvBackend;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn geom() -> ConvGeom {
        ConvGeom::down(12, 12, 4, 4, 2, 6, 6).unwrap()
    }

    /// The kept flipped-kernel rows and columns `(ky′, kx′)` of `phase`,
    /// ascending: the taps `k` with `r + k − pad ≡ 0 (mod stride)` for the
    /// phase's output rows and columns `r`.
    fn kept_taps(geom: &ConvGeom, phase: &TPhase) -> (Vec<usize>, Vec<usize>) {
        let s = geom.stride() as isize;
        let (pt, _, pl, _) = geom.t_conv_pads();
        let keep = |r: usize, pad: usize, kdim: usize| -> Vec<usize> {
            (0..kdim)
                .filter(|&k| (r as isize + k as isize - pad as isize).rem_euclid(s) == 0)
                .collect()
        };
        (
            keep(phase.oys[0], pt, geom.kh()),
            keep(phase.oxs[0], pl, geom.kw()),
        )
    }

    /// Specification of a phase's patch matrix: one bounds check and stride
    /// division per matrix entry, written exactly as the lowering is
    /// defined.
    fn fill_t_phase_patches_ref<T: Num>(
        patches: &mut Matrix<T>,
        input: &Fmaps<T>,
        geom: &ConvGeom,
        phase: &TPhase,
    ) {
        let s = geom.stride() as isize;
        let (pt, _, pl, _) = geom.t_conv_pads();
        let (ih, iw) = (input.height() as isize, input.width() as isize);
        let (kys, kxs) = kept_taps(geom, phase);
        for (ri, &oy) in phase.oys.iter().enumerate() {
            for (rj, &ox) in phase.oxs.iter().enumerate() {
                let row = ri * phase.oxs.len() + rj;
                let mut col = 0;
                for sf in 0..input.channels() {
                    for &ky in &kys {
                        // zy ≡ 0 (mod s) by construction of the kept taps; it
                        // is a real source pixel iff it lands inside the map.
                        let zy = oy as isize + ky as isize - pt as isize;
                        for &kx in &kxs {
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

    /// Specification of a phase's weight matrix (the row subset of
    /// [`crate::im2col::weights_as_matrix_t`] matching the phase's kept taps):
    /// column-major traversal through the kernel accessor, written exactly as
    /// the reshape is defined.
    fn fill_t_phase_weights_ref<T: Num>(
        m: &mut Matrix<T>,
        k: &Kernels<T>,
        geom: &ConvGeom,
        phase: &TPhase,
    ) {
        let (kh, kw) = (k.kh(), k.kw());
        let (kys, kxs) = kept_taps(geom, phase);
        for lf in 0..k.n_if() {
            let mut row = 0;
            for sf in 0..k.n_of() {
                for &ky in &kys {
                    for &kx in &kxs {
                        *m.at_mut(row, lf) = *k.at(sf, lf, kh - 1 - ky, kw - 1 - kx);
                        row += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn zero_free_t_conv_is_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(20);
        let x: Fmaps<f64> = Fmaps::random(5, 6, 6, 1.0, &mut rng);
        let k: Kernels<f64> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
        let golden = t_conv(&x, &k, &geom()).unwrap();
        let ws = &mut ConvWorkspace::new();
        let fast = t_conv_zero_free(&x, &k, None, &geom(), (12, 12), ws).unwrap();
        assert_eq!(golden, fast);
    }

    #[test]
    fn zero_free_patches_drop_the_inserted_zeros() {
        let mut rng = SmallRng::seed_from_u64(21);
        let x: Fmaps<f64> = Fmaps::random(2, 6, 6, 1.0, &mut rng);
        let k: Kernels<f64> = Kernels::random(2, 3, 4, 4, 1.0, &mut rng);
        let dense = im2col_t(&x, &geom());
        let compact: Vec<Matrix<f64>> = t_zero_free_gemm_operands(&x, &k, &geom())
            .unwrap()
            .into_iter()
            .map(|(patches, _)| patches)
            .collect();
        let frac = |zeros: f64, total: f64| zeros / total;
        let compact_zeros: f64 = compact
            .iter()
            .map(|p| p.zero_fraction() * (p.rows() * p.cols()) as f64)
            .sum();
        let compact_total: f64 = compact.iter().map(|p| (p.rows() * p.cols()) as f64).sum();
        assert!(dense.zero_fraction() > 0.65);
        assert!(
            frac(compact_zeros, compact_total) < 0.35,
            "compact fraction {}",
            frac(compact_zeros, compact_total)
        );
        // The compact lowering covers every output pixel exactly once.
        let (oh, ow) = geom().up_out(6, 6);
        let covered: usize = compact.iter().map(Matrix::rows).sum();
        assert_eq!(covered, oh * ow);
    }

    #[test]
    fn wgrad_lowerings_are_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(22);
        let g = geom();
        // S layer: input 12×12 → delta 6×6.
        let ws = &mut ConvWorkspace::new();
        let x: Fmaps<f64> = Fmaps::random(3, 12, 12, 1.0, &mut rng);
        let d: Fmaps<f64> = Fmaps::random(4, 6, 6, 1.0, &mut rng);
        let golden_s = w_conv_for_s_layer(&x, &d, &g).unwrap();
        assert_eq!(golden_s, w_conv_s_via_gemm_ws(&x, &d, &g, ws).unwrap());
        // T layer: input 6×6 → delta 12×12.
        let xt: Fmaps<f64> = Fmaps::random(4, 6, 6, 1.0, &mut rng);
        let dt: Fmaps<f64> = Fmaps::random(3, 12, 12, 1.0, &mut rng);
        let golden_t = w_conv_for_t_layer(&xt, &dt, &g).unwrap();
        assert_eq!(golden_t, w_conv_t_zero_free_ws(&xt, &dt, &g, ws).unwrap());
        assert_eq!(
            golden_t,
            w_conv_t_via_zero_insert_gemm(&xt, &dt, &g).unwrap()
        );
    }

    #[test]
    fn t_input_grad_lowering_is_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(23);
        let g = geom();
        let d: Fmaps<f64> = Fmaps::random(3, 12, 12, 1.0, &mut rng);
        let k: Kernels<f64> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
        let golden = t_conv_input_grad(&d, &k, &g).unwrap();
        let ws = &mut ConvWorkspace::new();
        for b in [ConvBackend::LoweredGemm, ConvBackend::LoweredZeroFree] {
            assert_eq!(
                golden,
                b.t_conv_input_grad_ws(&d, &k, &g, ws).unwrap(),
                "{b:?}"
            );
        }
    }

    #[test]
    fn gemm_operands_mirror_the_zero_free_phases() {
        let mut rng = SmallRng::seed_from_u64(24);
        let x: Fmaps<f32> = Fmaps::random(5, 6, 6, 1.0, &mut rng);
        let k: Kernels<f32> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
        let pairs = t_zero_free_gemm_operands(&x, &k, &geom()).unwrap();
        let phases = t_phases(&geom(), 12, 12);
        let live: Vec<&TPhase> = phases.iter().filter(|p| p.taps() > 0).collect();
        assert_eq!(pairs.len(), live.len());
        for ((patches, weights), phase) in pairs.iter().zip(live) {
            let npix = phase.oys.len() * phase.oxs.len();
            let mut want = Matrix::zeros(npix, x.channels() * phase.taps());
            fill_t_phase_patches_ref(&mut want, &x, &geom(), phase);
            assert_eq!(patches, &want);
            let mut want = Matrix::zeros(k.n_of() * phase.taps(), k.n_if());
            fill_t_phase_weights_ref(&mut want, &k, &geom(), phase);
            assert_eq!(weights, &want, "GEMM-compatible pair");
        }
        let bad: Fmaps<f32> = Fmaps::zeros(2, 6, 6);
        assert!(t_zero_free_gemm_operands(&bad, &k, &geom()).is_err());
    }

    /// The specification fills and the production writers the operands are
    /// built from (the phase row writer and the gather, each transposed)
    /// must produce bit-identical matrices — they are the same reshape, only
    /// the traversal order differs. Covers boundary-heavy geometries where
    /// the patch fill's bounds checks matter, and a `1×1` input.
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
            let phases = t_phases(g, oh, ow);
            let live: Vec<&TPhase> = phases.iter().filter(|p| p.taps() > 0).collect();
            let pairs = t_zero_free_gemm_operands(&x, &k, g).unwrap();
            assert_eq!(pairs.len(), live.len(), "{g:?}");
            for ((tuned_patches, tuned_weights), phase) in pairs.iter().zip(live) {
                let cols = x.channels() * phase.taps();
                let rows = phase.oys.len() * phase.oxs.len();
                let mut reference = Matrix::zeros(rows, cols);
                fill_t_phase_patches_ref(&mut reference, &x, g, phase);
                assert_eq!(tuned_patches, &reference, "patches, {g:?}");

                let mut reference = Matrix::zeros(k.n_of() * phase.taps(), k.n_if());
                fill_t_phase_weights_ref(&mut reference, &k, g, phase);
                assert_eq!(tuned_weights, &reference, "weights, {g:?}");
            }
        }
    }

    /// The weight-stationary operands are exactly the transposes of the
    /// patch-major specification operands, phase by phase: the phase row
    /// writer (into a poisoned matrix, so a cell it skipped shows up as a
    /// NaN) against the reference patch fill, the gathered
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
                gather_phase_kernels(&mut sub, &k, &phases, 1);
                let mut base = 0;
                for phase in phases.iter().filter(|p| p.taps() > 0) {
                    let kk = n_of * phase.taps();
                    let npix = phase.oys.len() * phase.oxs.len();
                    let mut reference = Matrix::zeros(npix, kk);
                    fill_t_phase_patches_ref(&mut reference, &x, g, phase);
                    let mut b = Matrix::from_vec(kk, npix, vec![f32::NAN; kk * npix]);
                    for row in 0..kk {
                        fill_t_phase_row(&x, phase, row, b.row_mut(row));
                    }
                    assert_eq!(b, transposed(&reference), "patches, {g:?}");

                    let mut weights = Matrix::zeros(kk, n_if);
                    fill_t_phase_weights_ref(&mut weights, &k, g, phase);
                    let a = Matrix::from_vec(n_if, kk, sub[base..base + n_if * kk].to_vec());
                    assert_eq!(a, transposed(&weights), "sub-kernels, {g:?}");
                    base += n_if * kk;
                }
            }
        }
    }

    /// The tiled gather against the specification reshape, phase by phase,
    /// for every stride 1–3 × kernel 3–5 and channel counts below, at and
    /// across the `sf` tile, and past the fan-out threshold with `n_if`
    /// values that leave the `lf` pieces ragged — into a poisoned buffer,
    /// so a slot the gather skipped shows up as a NaN. Each is cut the way
    /// the pool width cuts it, and into four and seven pieces on any pool.
    #[test]
    fn gather_matches_the_specification_fill_for_every_stride_and_kernel() {
        let mut rng = SmallRng::seed_from_u64(28);
        let tile = GATHER_SF_TILE;
        for stride in 1..=3 {
            for kdim in 3..=5 {
                let g = ConvGeom::down(3 * stride, 3 * stride, kdim, kdim, stride, 3, 3).unwrap();
                let (oh, ow) = g.up_out(3, 3);
                let phases = t_phases(&g, oh, ow);
                let mut sizes = vec![(1, 1), (3, 4), (tile, 2), (tile + 3, 3), (2 * tile + 1, 1)];
                for n_if in [1, 3, 33, 257] {
                    let n_of = zfgan_pool::PASS_FAN_OUT_MIN_ELEMS.div_ceil(n_if * kdim * kdim);
                    sizes.push((n_of | 1, n_if));
                }
                for (n_of, n_if) in sizes {
                    let k: Kernels<f32> = Kernels::random(n_of, n_if, kdim, kdim, 1.0, &mut rng);
                    let mut spec = Vec::new();
                    for phase in phases.iter().filter(|p| p.taps() > 0) {
                        let mut weights = Matrix::zeros(n_of * phase.taps(), n_if);
                        fill_t_phase_weights_ref(&mut weights, &k, &g, phase);
                        spec.extend_from_slice(transposed(&weights).as_slice());
                    }
                    assert_eq!(
                        spec.len(),
                        k.len(),
                        "every tap belongs to exactly one phase"
                    );
                    for pieces in [zfgan_pool::pass_pieces(k.len()), 4, 7] {
                        let mut sub = vec![f32::NAN; k.len()];
                        gather_phase_kernels(&mut sub, &k, &phases, pieces);
                        let at = format!("s{stride} k{kdim} {n_of}x{n_if}, {pieces} pieces");
                        assert!(sub == spec, "{at}");
                    }
                }
            }
        }
    }

    /// Kernels written from the weights serve the passes, and a rewrite
    /// after the weights change lands in the *same* buffer. Empty kernels
    /// (a deserialized layer's) take the per-call gather; a `1×1` input and
    /// a kernel whose taps misfit the geometry write nothing.
    #[test]
    fn phase_kernels_rewrite_reuses_their_buffer() {
        let mut rng = SmallRng::seed_from_u64(27);
        let g = geom();
        let x: Fmaps<f32> = Fmaps::random(5, 6, 6, 1.0, &mut rng);
        let mut k: Kernels<f32> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
        let mut ws = ConvWorkspace::new();
        let run = |k: &Kernels<f32>, sub: &PhaseKernels<f32>, ws: &mut ConvWorkspace<f32>| {
            t_conv_zero_free(&x, k, Some(sub), &g, (12, 12), ws).unwrap()
        };
        let fresh = |k: &Kernels<f32>| {
            t_conv_zero_free(&x, k, None, &g, (12, 12), &mut ConvWorkspace::new()).unwrap()
        };
        let mut sub = PhaseKernels::default();
        assert_eq!(run(&k, &sub, &mut ws), fresh(&k), "empty kernels");
        sub.write(&k, &g, (6, 6), (12, 12));
        assert_eq!(run(&k, &sub, &mut ws), fresh(&k), "written");
        let buffer = sub.data.as_ptr();

        k.as_mut_slice().iter_mut().for_each(|w| *w *= -0.5);
        sub.write(&k, &g, (6, 6), (12, 12));
        assert_eq!(run(&k, &sub, &mut ws), fresh(&k), "rewritten");
        assert_eq!(buffer, sub.data.as_ptr());

        let mut one = PhaseKernels::default();
        one.write(&k, &g, (1, 1), g.up_out(1, 1));
        assert!(one.data.is_empty(), "a 1×1 input writes nothing");
        let other_taps: Kernels<f32> = Kernels::random(5, 3, 3, 3, 1.0, &mut rng);
        sub.write(&other_taps, &g, (6, 6), (12, 12));
        assert!(sub.data.is_empty(), "a kernel that misfits the geometry");
    }

    #[test]
    fn shape_errors_match_the_golden_nests() {
        let g = geom();
        let x: Fmaps<f32> = Fmaps::zeros(2, 6, 6);
        let k: Kernels<f32> = Kernels::zeros(5, 3, 4, 4);
        let ws = &mut ConvWorkspace::new();
        assert!(t_conv_zero_free(&x, &k, None, &g, (12, 12), ws).is_err());
        let bad: Fmaps<f32> = Fmaps::zeros(3, 5, 5);
        assert!(w_conv_s_via_gemm_ws(&x, &bad, &g, ws).is_err());
        assert!(w_conv_t_zero_free_ws(&x, &bad, &g, ws).is_err());
        assert!(w_conv_t_via_zero_insert_gemm(&x, &bad, &g).is_err());
    }
}
