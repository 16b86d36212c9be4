//! `im2col + GEMM` — the convolution lowering Caffe (the paper's CPU/GPU
//! baseline software) actually executes.
//!
//! Lowering a convolution to a matrix multiply materialises one input patch
//! per output position. For `S-CONV` that is merely redundant; for `T-CONV`
//! the patches come from the **zero-inserted** map, so the GEMM multiplies
//! through every inserted zero — this module makes that cost measurable
//! ([`Lowered::zero_fraction`]) and is the concrete justification for the
//! lower `T-CONV` efficiency factors in `zfgan-platforms`.
//!
//! Everything here is validated against the direct loop nests of
//! [`crate::s_conv`] / [`crate::t_conv`].

use crate::error::{ShapeError, TensorResult};
use crate::fmaps::Fmaps;
use crate::gemm::{fill_b_rows, matmul_slices_ws, Product};
use crate::kernels::Kernels;
use crate::num::Num;
use crate::shape::ConvGeom;
use crate::workspace::ConvWorkspace;
use crate::zeros::insert_zeros;

/// A dense row-major matrix — just enough linear algebra for the lowering.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Num> Matrix<T> {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> &T {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }

    /// Mutably borrow element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut T {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or either dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}×{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Flat row-major view.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Consumes the matrix, returning its flat buffer — how matrices give
    /// their storage back to a [`crate::ConvWorkspace`].
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Flat mutable row-major view.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrow row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Fraction of elements that are exactly zero.
    pub fn zero_fraction(&self) -> f64 {
        self.data.iter().filter(|v| v.is_zero()).count() as f64 / self.data.len() as f64
    }

    /// Plain triple-loop GEMM: `self × rhs` — the naive oracle the packed
    /// engine is measured and bounded against.
    ///
    /// # Errors
    ///
    /// Returns an error if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix<T>) -> TensorResult<Matrix<T>> {
        if self.cols != rhs.rows {
            return Err(ShapeError::new(format!(
                "matmul inner dimensions disagree: {}×{} vs {}×{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a.is_zero() {
                    continue;
                }
                for j in 0..rhs.cols {
                    out.data[i * rhs.cols + j] += a * rhs.data[k * rhs.cols + j];
                }
            }
        }
        Ok(out)
    }
}

/// The lowered form of one convolution: the patch matrix plus bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct Lowered<T> {
    /// Patch matrix: one row per output position, `N_if·K_h·K_w` columns.
    pub patches: Matrix<T>,
    /// Output spatial size `(oh, ow)`.
    pub out_hw: (usize, usize),
}

impl<T: Num> Lowered<T> {
    /// Fraction of the patch matrix that is zeros — the ineffectual-operand
    /// share a GEMM grinds through.
    pub fn zero_fraction(&self) -> f64 {
        self.patches.zero_fraction()
    }
}

/// The `S-CONV` patch fill loop, shared by the allocating and workspace
/// lowerings. Writes every cell of `patches`.
pub(crate) fn fill_im2col_s<T: Num>(
    patches: &mut Matrix<T>,
    input: &Fmaps<T>,
    geom: &ConvGeom,
    oh: usize,
    ow: usize,
) {
    let stride = geom.stride() as isize;
    let (pt, pl) = (geom.pad_top() as isize, geom.pad_left() as isize);
    for oy in 0..oh {
        for ox in 0..ow {
            let row = oy * ow + ox;
            let mut col = 0;
            for c in 0..input.channels() {
                for ky in 0..geom.kh() {
                    for kx in 0..geom.kw() {
                        let iy = stride * oy as isize + ky as isize - pt;
                        let ix = stride * ox as isize + kx as isize - pl;
                        *patches.at_mut(row, col) = input.at_padded(c, iy, ix);
                        col += 1;
                    }
                }
            }
        }
    }
}

/// The transposed `S-CONV` patch fill of the weight-stationary lowering:
/// `b` is `(N_if·K_h·K_w) × (oh·ow)` — row `(c, ky, kx)` holds, for every
/// output pixel, the input value that tap meets (Caffe's own `im2col`
/// layout). Each row is a strided copy of one input plane, so writes are
/// contiguous and the per-tap bounds are resolved once per row instead of
/// once per element. Writes every cell (padding taps get an explicit
/// zero), so `b` need not start zeroed. `m` is the row count of the GEMM
/// `b` feeds, which decides whether the rows are filled on the pool
/// ([`fill_b_rows`]).
pub(crate) fn fill_im2col_s_transposed<T: Num>(
    b: &mut Matrix<T>,
    input: &Fmaps<T>,
    geom: &ConvGeom,
    (oh, ow): (usize, usize),
    m: usize,
) {
    let s = geom.stride();
    let (pt, pl) = (geom.pad_top(), geom.pad_left());
    let (ih, iw) = (input.height(), input.width());
    let (kh, kw) = (geom.kh(), geom.kw());
    debug_assert_eq!(b.rows(), input.channels() * kh * kw);
    debug_assert_eq!(b.cols(), oh * ow);
    fill_b_rows(b, m, |row, dst| {
        let (c, ky, kx) = (row / (kh * kw), row / kw % kh, row % kw);
        let plane = &input.as_slice()[c * ih * iw..(c + 1) * ih * iw];
        // Output columns whose tap lands inside the map:
        // 0 ≤ s·ox + kx − pl < iw.
        let ox_lo = pl.saturating_sub(kx).div_ceil(s);
        let ox_hi = if iw + pl > kx {
            ((iw + pl - kx - 1) / s + 1).min(ow)
        } else {
            0
        };
        if ox_lo >= ox_hi {
            dst.fill(T::zero());
            return;
        }
        let ix0 = s * ox_lo + kx - pl;
        for (oy, drow) in dst.chunks_exact_mut(ow).enumerate() {
            let Some(iy) = (s * oy + ky).checked_sub(pt).filter(|&iy| iy < ih) else {
                drow.fill(T::zero());
                continue;
            };
            let src = &plane[iy * iw..(iy + 1) * iw];
            drow[..ox_lo].fill(T::zero());
            for (dv, sv) in drow[ox_lo..ox_hi]
                .iter_mut()
                .zip(src[ix0..].iter().step_by(s))
            {
                *dv = *sv;
            }
            drow[ox_hi..].fill(T::zero());
        }
    });
}

/// Lowers an `S-CONV` input into patch-matrix form.
pub fn im2col_s<T: Num>(input: &Fmaps<T>, geom: &ConvGeom) -> Lowered<T> {
    let (oh, ow) = geom.down_out(input.height(), input.width());
    let cols = input.channels() * geom.kh() * geom.kw();
    let mut patches = Matrix::zeros(oh * ow, cols);
    fill_im2col_s(&mut patches, input, geom, oh, ow);
    Lowered {
        patches,
        out_hw: (oh, ow),
    }
}

/// [`im2col_s`] drawing the patch matrix from a [`ConvWorkspace`] instead
/// of allocating it. Bit-identical to [`im2col_s`]; return the patches via
/// [`ConvWorkspace::give_matrix`] when done.
pub fn im2col_s_ws<T: Num>(
    input: &Fmaps<T>,
    geom: &ConvGeom,
    ws: &mut ConvWorkspace<T>,
) -> Lowered<T> {
    let (oh, ow) = geom.down_out(input.height(), input.width());
    let cols = input.channels() * geom.kh() * geom.kw();
    let mut patches = ws.take_matrix_dirty(oh * ow, cols);
    fill_im2col_s(&mut patches, input, geom, oh, ow);
    Lowered {
        patches,
        out_hw: (oh, ow),
    }
}

/// Lowers a `T-CONV` input the way Caffe's deconvolution path effectively
/// does: zero-insert, then unit-stride `im2col` with the flipped-kernel
/// padding. The resulting patch matrix is mostly zeros.
pub fn im2col_t<T: Num>(input: &Fmaps<T>, geom: &ConvGeom) -> Lowered<T> {
    let (oh, ow) = geom.up_out(input.height(), input.width());
    im2col_t_with_output_size(input, geom, oh, ow)
}

/// [`im2col_t`] with an explicit output size — the backward error pass of
/// an S-CONV layer must recreate the layer's original input size, which a
/// strided down-sampling may have quantised away.
pub fn im2col_t_with_output_size<T: Num>(
    input: &Fmaps<T>,
    geom: &ConvGeom,
    oh: usize,
    ow: usize,
) -> Lowered<T> {
    let zi = insert_zeros(input, geom.stride());
    let (pt, _, pl, _) = geom.t_conv_pads();
    let cols = input.channels() * geom.kh() * geom.kw();
    let mut patches = Matrix::zeros(oh * ow, cols);
    for oy in 0..oh {
        for ox in 0..ow {
            let row = oy * ow + ox;
            let mut col = 0;
            for c in 0..input.channels() {
                for ky in 0..geom.kh() {
                    for kx in 0..geom.kw() {
                        let zy = oy as isize + ky as isize - pt as isize;
                        let zx = ox as isize + kx as isize - pl as isize;
                        *patches.at_mut(row, col) = zi.at_padded(c, zy, zx);
                        col += 1;
                    }
                }
            }
        }
    }
    Lowered {
        patches,
        out_hw: (oh, ow),
    }
}

/// The `S-CONV` weight-matrix fill, shared by the allocating and workspace
/// reshapes. Writes every cell of `m`.
pub(crate) fn fill_weights_as_matrix_s<T: Num>(m: &mut Matrix<T>, k: &Kernels<T>) {
    // Row-major traversal: contiguous writes per output row; for a fixed
    // `if_` the strided reads revisit the same few cache lines of every
    // `of` block across the `(ky, kx)` sweep, so the kernel tensor
    // streams through cache once instead of once per output column.
    let (n_if, kh, kw) = (k.n_if(), k.kh(), k.kw());
    let kdata = k.as_slice();
    let mut row = 0;
    for if_ in 0..n_if {
        for ky in 0..kh {
            for kx in 0..kw {
                let off = (if_ * kh + ky) * kw + kx;
                let dst = m.row_mut(row);
                for (of, d) in dst.iter_mut().enumerate() {
                    *d = kdata[of * n_if * kh * kw + off];
                }
                row += 1;
            }
        }
    }
}

/// Fills one row `r` (output position `oy·ow + ox`) of the
/// [`fill_im2col_s`] patch matrix — the per-row form both `W-CONV`
/// lowerings build their `B` operand from (streamed, for an S-CONV layer).
/// Entry `(c, ky, kx)` is `input[c][s·oy + ky − pt][s·ox + kx − pl]`, zero
/// outside the map. For a fixed position the in-bounds taps are one `(ky,
/// kx)` box, the same for every channel, and each of its rows is a
/// contiguous run of an input row: the bounds are solved once per position
/// and the runs copied as slices. Writes every element of `row`
/// (out-of-bounds taps get an explicit zero), so it need not start zeroed.
pub(crate) fn fill_im2col_s_row<T: Num>(
    input: &Fmaps<T>,
    geom: &ConvGeom,
    ow: usize,
    r: usize,
    row: &mut [T],
) {
    let s = geom.stride();
    let (kh, kw) = (geom.kh(), geom.kw());
    let (ih, iw) = (input.height(), input.width());
    let (oy, ox) = (r / ow, r % ow);
    // Taps `k` with `0 ≤ s·o + k − pad < extent`, clamped to the kernel.
    let live = |o: usize, pad: usize, extent: usize, kdim: usize| {
        let lo = pad.saturating_sub(s * o).min(kdim);
        let hi = (extent + pad).saturating_sub(s * o).min(kdim);
        (lo, hi)
    };
    let (ky_lo, ky_hi) = live(oy, geom.pad_top(), ih, kh);
    let (kx_lo, kx_hi) = live(ox, geom.pad_left(), iw, kw);
    let run = kx_hi.saturating_sub(kx_lo);
    let whole = (ky_lo, ky_hi, run) == (0, kh, kw);
    let planes = input.as_slice().chunks_exact(ih * iw);
    for (taps, plane) in row.chunks_exact_mut(kh * kw).zip(planes) {
        if !whole {
            taps.fill(T::zero());
        }
        if run == 0 {
            continue;
        }
        for ky in ky_lo..ky_hi {
            let src = (s * oy + ky - geom.pad_top()) * iw + s * ox + kx_lo - geom.pad_left();
            taps[ky * kw + kx_lo..ky * kw + kx_hi].copy_from_slice(&plane[src..src + run]);
        }
    }
}

/// Reshapes an `S-CONV` weight tensor into the `(N_if·K_h·K_w) × N_of` GEMM
/// operand.
pub fn weights_as_matrix_s<T: Num>(k: &Kernels<T>) -> Matrix<T> {
    let mut m = Matrix::zeros(k.n_if() * k.kh() * k.kw(), k.n_of());
    fill_weights_as_matrix_s(&mut m, k);
    m
}

/// [`weights_as_matrix_s`] drawing its matrix from a [`ConvWorkspace`].
pub fn weights_as_matrix_s_ws<T: Num>(k: &Kernels<T>, ws: &mut ConvWorkspace<T>) -> Matrix<T> {
    let mut m = ws.take_matrix(k.n_if() * k.kh() * k.kw(), k.n_of());
    fill_weights_as_matrix_s(&mut m, k);
    m
}

/// Reshapes a (down-layout) weight tensor for the `T-CONV` GEMM: the
/// flipped kernels, indexed by the transposed channel roles.
pub fn weights_as_matrix_t<T: Num>(k: &Kernels<T>) -> Matrix<T> {
    // Row-major traversal for the same cache-behaviour reason as
    // [`fill_weights_as_matrix_s`]: contiguous writes, reads confined to
    // one `sf` block per row group.
    let (n_if, kh, kw) = (k.n_if(), k.kh(), k.kw());
    let mut m = Matrix::zeros(k.n_of() * kh * kw, n_if);
    let kdata = k.as_slice();
    let mut row = 0;
    for sf in 0..k.n_of() {
        for ky in 0..kh {
            for kx in 0..kw {
                let tap = (kh - 1 - ky) * kw + (kw - 1 - kx);
                let base = sf * n_if * kh * kw + tap;
                let dst = m.row_mut(row);
                for (lf, d) in dst.iter_mut().enumerate() {
                    *d = kdata[base + lf * kh * kw];
                }
                row += 1;
            }
        }
    }
    m
}

/// `S-CONV` by lowering onto the packed GEMM engine, drawing every
/// transient from the workspace; the returned maps belong to the caller
/// (recycle them via [`ConvWorkspace::give_fmaps`]).
///
/// The lowering runs **weight-stationary**: the kernel tensor, read in
/// place as the `N_of × (N_if·K_h·K_w)` matrix it already is, is the
/// GEMM's `A` operand; `B` is the transposed patch matrix
/// (`fill_im2col_s_transposed`), the only operand lowered per call; and
/// the product's rows *are* the output maps, written straight into their
/// storage. Per output element that is the same `k`-ascending chain as the
/// patch-major form with each product's two factors swapped — bit-neutral,
/// multiplication being commutative in every element type.
///
/// A score window — one that covers the whole input map with no padding,
/// so the output is one pixel: the critic's last layer — lowers to nothing
/// at all. Its transposed patch matrix is `kk × 1` with row `(c, ky, kx)`
/// holding `input[c][ky][kx]`: the input maps in raster order. The GEMM
/// reads them in place as `B`, and the packed engine runs each output map
/// as one chain against them (see [`crate::microkernel::run_plan_rows`]).
/// Filling the `kk × 1` matrix instead costs one row-writer call per tap:
/// on one AVX-512 thread `128×7×7→1` takes 166 µs filled, 10 µs in place.
///
/// The backward error pass of a T-CONV layer is this very computation on
/// the error maps (see [`crate::ConvBackend::t_conv_input_grad_ws`]).
///
/// # Errors
///
/// Returns an error if `k` does not match `input`'s channel count.
pub fn s_conv_via_gemm_ws<T: Num>(
    input: &Fmaps<T>,
    k: &Kernels<T>,
    geom: &ConvGeom,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<Fmaps<T>> {
    if k.n_if() != input.channels() {
        return Err(ShapeError::new("kernel/input channel mismatch"));
    }
    let (oh, ow) = geom.down_out(input.height(), input.width());
    let kk = k.n_if() * k.kh() * k.kw();
    // The maps are the first buffer taken: the workspace hands out best
    // fits, so the order of takes decides which buffers grow. The stored
    // product overwrites every element: no zero fill.
    let mut out = Fmaps::from_vec(k.n_of(), oh, ow, ws.take_dirty(k.n_of() * oh * ow));
    let store = Product::Store(out.as_mut_slice());
    let (a, m) = (k.as_slice(), k.n_of());
    let score_window = (oh, ow) == (1, 1)
        && (geom.kh(), geom.kw()) == (input.height(), input.width())
        && (geom.pad_top(), geom.pad_left()) == (0, 0);
    let done = if score_window {
        matmul_slices_ws(a, m, input.as_slice(), (kk, 1), store, ws)
    } else {
        let mut b = ws.take_matrix_dirty(kk, oh * ow);
        fill_im2col_s_transposed(&mut b, input, geom, (oh, ow), m);
        let done = matmul_slices_ws(a, m, b.as_slice(), (kk, oh * ow), store, ws);
        ws.give_matrix(b);
        done
    };
    done.map(|()| out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{s_conv, t_conv};
    use crate::ConvBackend;

    /// The shipped dense lowerings: `S-CONV` and the zero-inserting
    /// `T-CONV` of [`ConvBackend::LoweredGemm`].
    fn s_conv_lowered(x: &Fmaps<f64>, k: &Kernels<f64>, g: &ConvGeom) -> TensorResult<Fmaps<f64>> {
        ConvBackend::LoweredGemm.s_conv_ws(x, k, g, &mut ConvWorkspace::new())
    }

    fn t_conv_lowered(x: &Fmaps<f64>, k: &Kernels<f64>, g: &ConvGeom) -> TensorResult<Fmaps<f64>> {
        ConvBackend::LoweredGemm.t_conv_ws(x, k, g, &mut ConvWorkspace::new())
    }
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn geom() -> ConvGeom {
        ConvGeom::down(12, 12, 4, 4, 2, 6, 6).unwrap()
    }

    /// Specification form of [`fill_weights_as_matrix_s`]: column-major
    /// traversal through the kernel accessor, as the reshape is defined.
    fn fill_weights_as_matrix_s_ref<T: Num>(m: &mut Matrix<T>, k: &Kernels<T>) {
        for of in 0..k.n_of() {
            let mut row = 0;
            for if_ in 0..k.n_if() {
                for ky in 0..k.kh() {
                    for kx in 0..k.kw() {
                        *m.at_mut(row, of) = *k.at(of, if_, ky, kx);
                        row += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_known_values() {
        let mut a: Matrix<f64> = Matrix::zeros(2, 2);
        *a.at_mut(0, 0) = 1.0;
        *a.at_mut(0, 1) = 2.0;
        *a.at_mut(1, 0) = 3.0;
        *a.at_mut(1, 1) = 4.0;
        let b = a.clone();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[7.0, 10.0, 15.0, 22.0]);
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a: Matrix<f64> = Matrix::zeros(2, 3);
        let b: Matrix<f64> = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    /// The slice-run row fill against the specification patch fill, row by
    /// row, for every stride 1–3 × kernel 3–5 (padded borders on every
    /// side, and a map smaller than the kernel) — into poisoned rows, so a
    /// cell the fill skipped shows up as a NaN.
    #[test]
    fn row_fill_matches_the_specification_patch_fill() {
        let mut rng = SmallRng::seed_from_u64(12);
        for stride in 1..=3 {
            for kdim in 3..=5 {
                for small in [1, 3, 4] {
                    let large = small * stride;
                    let g = ConvGeom::down(large, large, kdim, kdim, stride, small, small).unwrap();
                    let x: Fmaps<f32> = Fmaps::random(3, large, large, 1.0, &mut rng);
                    let want = im2col_s(&x, &g).patches;
                    let mut got = Matrix::from_vec(
                        want.rows(),
                        want.cols(),
                        vec![f32::NAN; want.rows() * want.cols()],
                    );
                    for r in 0..want.rows() {
                        fill_im2col_s_row(&x, &g, small, r, got.row_mut(r));
                    }
                    assert_eq!(got, want, "s{stride} k{kdim} {large}→{small}");
                }
            }
        }
    }

    /// The specification fill and the cache-tuned fill are the same
    /// reshape in different traversal orders — bit-identical results.
    #[test]
    fn weight_fill_families_are_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(9);
        for (n_of, n_if, kh, kw) in [(5, 3, 4, 4), (1, 7, 5, 5), (8, 1, 7, 7), (2, 2, 1, 1)] {
            let k: Kernels<f32> = Kernels::random(n_of, n_if, kh, kw, 1.0, &mut rng);
            let mut tuned = Matrix::zeros(n_if * kh * kw, n_of);
            fill_weights_as_matrix_s(&mut tuned, &k);
            let mut reference = Matrix::zeros(n_if * kh * kw, n_of);
            fill_weights_as_matrix_s_ref(&mut reference, &k);
            assert_eq!(tuned, reference, "{n_of}x{n_if}x{kh}x{kw}");
        }
    }

    /// The weight-stationary `B` operand is the transposed patch matrix,
    /// for strides 1–3, asymmetric padding and a kernel wider than the
    /// padded map's interior — filled into a poisoned matrix, so a cell the
    /// fill skipped shows up as a NaN.
    #[test]
    fn transposed_patch_fill_is_the_transposed_patch_matrix() {
        let mut rng = SmallRng::seed_from_u64(10);
        for (g, ih, iw) in [
            (geom(), 12, 12),
            (ConvGeom::down(14, 14, 5, 5, 2, 7, 7).unwrap(), 14, 14),
            (ConvGeom::down(9, 9, 3, 3, 3, 3, 3).unwrap(), 9, 9),
            (ConvGeom::down(4, 4, 4, 4, 1, 1, 1).unwrap(), 4, 4),
            (ConvGeom::new(3, 3, 1, 2, 1, 0, 2).unwrap(), 2, 5),
        ] {
            let x: Fmaps<f32> = Fmaps::random(3, ih, iw, 1.0, &mut rng);
            let lowered = im2col_s(&x, &g);
            let (oh, ow) = lowered.out_hw;
            let (rows, cols) = (lowered.patches.cols(), oh * ow);
            let mut b = Matrix::from_vec(rows, cols, vec![f32::NAN; rows * cols]);
            fill_im2col_s_transposed(&mut b, &x, &g, (oh, ow), 4);
            for r in 0..b.rows() {
                for c in 0..b.cols() {
                    assert_eq!(b.at(r, c), lowered.patches.at(c, r), "{g:?} ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn s_conv_gemm_matches_direct() {
        let mut rng = SmallRng::seed_from_u64(1);
        let x: Fmaps<f64> = Fmaps::random(3, 12, 12, 1.0, &mut rng);
        let k: Kernels<f64> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
        let direct = s_conv(&x, &k, &geom()).unwrap();
        let gemm = s_conv_lowered(&x, &k, &geom()).unwrap();
        assert_eq!(direct, gemm);
    }

    #[test]
    fn t_conv_gemm_matches_direct() {
        let mut rng = SmallRng::seed_from_u64(2);
        let x: Fmaps<f64> = Fmaps::random(5, 6, 6, 1.0, &mut rng);
        let k: Kernels<f64> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
        let direct = t_conv(&x, &k, &geom()).unwrap();
        let gemm = t_conv_lowered(&x, &k, &geom()).unwrap();
        assert_eq!(direct, gemm);
    }

    #[test]
    fn t_conv_patches_are_mostly_zeros() {
        // The Caffe-cost story: the T-CONV patch matrix is ~3/4 zeros for
        // stride 2 (plus padding), while the S-CONV one has only padding
        // zeros.
        let mut rng = SmallRng::seed_from_u64(3);
        let dense: Fmaps<f64> = Fmaps::random(2, 6, 6, 1.0, &mut rng);
        let t = im2col_t(&dense, &geom());
        assert!(t.zero_fraction() > 0.65, "T fraction {}", t.zero_fraction());
        let big: Fmaps<f64> = Fmaps::random(2, 12, 12, 1.0, &mut rng);
        let s = im2col_s(&big, &geom());
        assert!(s.zero_fraction() < 0.2, "S fraction {}", s.zero_fraction());
    }

    #[test]
    fn gemm_rejects_channel_mismatch() {
        let x: Fmaps<f64> = Fmaps::zeros(2, 12, 12);
        let k: Kernels<f64> = Kernels::zeros(5, 3, 4, 4);
        assert!(s_conv_lowered(&x, &k, &geom()).is_err());
        let z: Fmaps<f64> = Fmaps::zeros(2, 6, 6);
        assert!(t_conv_lowered(&z, &k, &geom()).is_err());
    }

    #[test]
    fn asymmetric_padding_also_matches() {
        let g = ConvGeom::down(14, 14, 5, 5, 2, 7, 7).unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        let x: Fmaps<f64> = Fmaps::random(2, 14, 14, 1.0, &mut rng);
        let k: Kernels<f64> = Kernels::random(4, 2, 5, 5, 1.0, &mut rng);
        let a = s_conv(&x, &k, &g).unwrap();
        let b = s_conv_lowered(&x, &k, &g).unwrap();
        assert_eq!(a, b);
        let z: Fmaps<f64> = Fmaps::random(4, 7, 7, 1.0, &mut rng);
        let c = t_conv(&z, &k, &g).unwrap();
        let d = t_conv_lowered(&z, &k, &g).unwrap();
        assert_eq!(c, d);
    }
}
