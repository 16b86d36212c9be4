//! GEMM kernels for the lowered convolution fast path.
//!
//! One engine, one driver, one oracle, one test handle:
//!
//! * [`Matrix::matmul`] — the plain triple loop, the naive oracle.
//! * [`matmul_blocked`] and the crate-internal lowering entries — the
//!   **packed SIMD microkernel** ([`crate::microkernel`]) for `f32` and
//!   [`Fx`] operands, every GEMM planned once and run chunk by chunk
//!   through the one driver, [`microkernel::run_plan_rows`], at the
//!   process's SIMD level. Other element types (the `f64` validation
//!   paths) fall back to a cache-blocked scalar kernel that is
//!   **bit-identical** to the naive loop: blocking tiles only the `i`/`j`
//!   (output) dimensions while each element's `k` reduction stays
//!   sequential in ascending order with the same `a.is_zero()` operand
//!   skip.
//! * [`matmul_chunked`] — the `#[doc(hidden)]` test handle: the same
//!   driver at an explicit SIMD level, engine and row partition, which
//!   every bit-equality suite, bench gate and the `fxsweep` transcript
//!   pin through.
//!
//! # Packed-kernel semantics
//!
//! The packed f32 kernel defines its *own* fixed accumulation order — per
//! output element a single fused-multiply-add chain over `k` ascending —
//! rather than reproducing the naive two-rounding sum. That order is
//! deterministic and invariant across pool widths, `ZFGAN_NO_SIMD`, and
//! AVX2-vs-scalar dispatch (the scalar fallback uses the correctly-rounded
//! [`f32::mul_add`], the same operation as one `vfmadd` lane), and it
//! matches the naive oracle within the standard accumulation-error bound.
//! The packed Q8.8 kernel is **bit-identical** to the naive [`Fx`] chain:
//! saturating multiply and add are reproduced exactly, lane for lane.
//!
//! Zero-operand skipping is bit-neutral at *any* granularity under both
//! packed kernels — `fma(0, b, acc) = acc` exactly for finite operands,
//! and the Q8.8 term of a zero operand is exactly zero — so the per-panel
//! structural-zero masks (the paper's zero-free scheduling composed with
//! SIMD) are pure performance freedom, never a semantics choice.
//!
//! # Who decides the width
//!
//! The packed engine does, per GEMM, from a work estimate — there is no
//! parallel kind to ask for. A GEMM of fewer than
//! [`microkernel::FAN_OUT_MIN_MACS`] multiply–accumulates runs on the
//! calling thread and touches the pool not at all. A larger one splits its
//! *output rows* into register-tile-aligned chunks, about two per pool
//! thread ([`microkernel::fan_out_rows`]), dispatched as one
//! allocation-free pool batch; its `B` operand is packed over disjoint
//! panel ranges and filled over disjoint rows (`fill_b_rows`) under the
//! same criterion. Panels run along `k` within a row, so every output
//! element is one `k`-ascending chain computed by one thread and any
//! partition preserves bits; `ZFGAN_THREADS=1` makes the process serial.
//!
//! # Operand order
//!
//! Every kernel here computes `A × B` with the zero skip on `A`. The conv
//! lowerings put the layer's **weights** in `A` (one row per output map,
//! borrowed in place — `matmul_slices_ws`) and the transposed patch
//! matrix in `B`; the golden nests and the Caffe-style patch-major
//! lowerings have the patches on the left. Per output element both are the
//! same `k`-ascending chain with each product's factors swapped, and
//! multiplication commutes in every element type, so the two orders agree
//! bit for bit (f32 fused chain, Q8.8 saturating chain, scalar
//! `acc += a·b`). A weight operand is dense, so its `A` scan is skipped:
//! no panel is masked and the dispatch keys on the shape alone —
//! bit-neutral like every zero skip.
//!
//! # Where the product lands
//!
//! A GEMM either **stores** its product or **adds** it to what the
//! destination holds (`Product`). Adding is how the deferred trainer
//! accumulates weight gradients (`∇W += ∇wᵢ`, paper Fig. 8): the `W-CONV`
//! lowerings hand the accumulator itself to the GEMM, and the packed f32
//! engine's epilogue writes `acc[i] = acc[i] + chain[i]` as each tile's
//! `k`-ascending chain completes ([`microkernel::Epilogue::Accumulate`]).
//! That is exactly `Kernels::add_assign` of the finished product — the
//! chain starts from zero, never from the accumulator, and its end is
//! rounded to `f32` before the add, so signed zeros and every rounding
//! agree — minus the product tensor, its zero fill, the copy into a
//! gradient tensor and the separate add pass. Shapes the epilogue cannot
//! serve (`kk > KC`: partial chains live in the output between chunks;
//! the broadcast engines; Q8.8; the scalar `f64` fallback) run the product
//! into non-zeroed workspace scratch and add it in one pass — the same
//! arithmetic, one more stream.
//!
//! Caveat: the "skipping a zero operand is bit-neutral" argument assumes
//! finite values. A zero operand times an infinite/NaN one would produce
//! NaN where the skipping path produces 0 — GAN training here never
//! manufactures non-finite weights (WGAN weight clipping bounds them), and
//! the golden nests skip zeros the same way.
//!
//! [`Fx`]: crate::Fx

use std::cell::RefCell;

use crate::error::{ShapeError, TensorResult};
use crate::fault::{FaultLog, FaultPlan, FaultSite};
use crate::im2col::Matrix;
use crate::microkernel::{
    self, simd_level, Epilogue, GemmPath, GemmPlan, PackScratch, PackedKind, SimdLevel,
};
use crate::num::Num;
use crate::workspace::ConvWorkspace;

/// Row-block height of the scalar blocked kernel: output rows processed
/// per cache tile.
const ROW_BLOCK: usize = 16;
/// Column-block width of the scalar blocked kernel: output columns
/// accumulated in registers per tile. Sized to cover the widest
/// lowered-GAN output-feature count (128) in a single tile: every extra
/// tile re-walks the sparse `a` row, and on the ~50%-zero activations the
/// repeated `is_zero` branches cost more than the tile buys.
const COL_BLOCK: usize = 128;

thread_local! {
    // Packed-kernel scratch for the allocating (non-workspace) entry
    // points: steady-state packing reuse without threading a workspace
    // through every call site. Workspace callers use the workspace's own
    // scratch instead (`ConvWorkspace::pack_scratch`).
    static PACK_TLS: RefCell<PackScratch> = RefCell::new(PackScratch::new());
}

/// Publish one kernel invocation's deterministic telemetry: call/tile
/// counts plus the operand-word traffic and how much of it zero skipping
/// elided. For the packed kernels both counts are pure functions of the
/// `a` operand and the shape (panel-mask words), so they are identical
/// for every pool width and SIMD level — and so is `path`, the
/// shape-dispatch decision recorded as the `gemm_dispatch{path}` series
/// (`None` for kernels the dispatch layer doesn't route). How many chunks
/// the GEMM ran as is scheduling and is not recorded: the packed family is
/// the one label `"blocked"` at every width.
fn record_gemm(
    backend: &'static str,
    m: usize,
    n: usize,
    skipped: u64,
    visited: u64,
    path: Option<GemmPath>,
) {
    if !zfgan_telemetry::enabled() {
        return;
    }
    let labels: &[(&str, &str)] = &[("backend", backend)];
    let blocks = (m.div_ceil(ROW_BLOCK) * n.div_ceil(COL_BLOCK)) as u64;
    zfgan_telemetry::count("gemm_calls", labels, 1);
    zfgan_telemetry::count("gemm_blocks", labels, blocks);
    zfgan_telemetry::count("gemm_operand_words", labels, visited);
    zfgan_telemetry::count("gemm_zero_skipped_words", labels, skipped);
    if let Some(p) = path {
        zfgan_telemetry::count("gemm_dispatch", &[("path", p.label())], 1);
    }
}

/// The scalar blocked kernel over a row range of the output.
///
/// `a` holds `m_local` rows of length `kk`; `out` holds the matching
/// `m_local × n` output rows. Per element the reduction is `k`-ascending
/// with the naive path's `a.is_zero()` skip — bit-identical to
/// [`Matrix::matmul`].
///
/// Records the call under the `"blocked"` label, with how many `a` words
/// the zero skip elided versus how many were walked in total.
fn gemm_rows<T: Num>(a: &[T], b: &[T], out: &mut [T], kk: usize, n: usize) {
    let m = out.len() / n;
    debug_assert_eq!(a.len(), m * kk);
    debug_assert_eq!(out.len(), m * n);
    let mut acc = [T::zero(); COL_BLOCK];
    let mut skipped = 0u64;
    let mut visited = 0u64;
    for ib in (0..m).step_by(ROW_BLOCK) {
        let ie = (ib + ROW_BLOCK).min(m);
        let mut jb = 0;
        while jb < n {
            let je = (jb + COL_BLOCK).min(n);
            let width = je - jb;
            for i in ib..ie {
                let a_row = &a[i * kk..(i + 1) * kk];
                let tile = &mut acc[..width];
                tile.fill(T::zero());
                visited += kk as u64;
                for (k, &aik) in a_row.iter().enumerate() {
                    if aik.is_zero() {
                        skipped += 1;
                        continue;
                    }
                    let b_row = &b[k * n + jb..k * n + je];
                    for (t, &bv) in tile.iter_mut().zip(b_row) {
                        *t += aik * bv;
                    }
                }
                out[i * n + jb..i * n + je].copy_from_slice(tile);
            }
            jb = je;
        }
    }
    record_gemm("blocked", m, n, skipped, visited, None);
}

/// Validates `a × b = out` shapes for the `_into` kernels.
fn check_matmul_shapes<T: Num>(a: &Matrix<T>, b: &Matrix<T>, out: &Matrix<T>) -> TensorResult<()> {
    if a.cols() != b.rows() {
        return Err(ShapeError::new(format!(
            "matmul inner dimensions disagree: {}×{} vs {}×{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        )));
    }
    if out.rows() != a.rows() || out.cols() != b.cols() {
        return Err(ShapeError::new(format!(
            "matmul output shape {}×{} does not match {}×{}",
            out.rows(),
            out.cols(),
            a.rows(),
            b.cols()
        )));
    }
    Ok(())
}

/// Packed SIMD microkernel GEMM: `a × b` through [`crate::microkernel`]
/// for `f32`/[`Fx`](crate::Fx) operands (scalar blocked fallback for
/// other element types). Deterministic for every SIMD level; see the
/// module docs for how it relates to the naive oracle.
///
/// # Errors
///
/// Returns an error if the inner dimensions disagree.
pub fn matmul_blocked<T: Num>(a: &Matrix<T>, b: &Matrix<T>) -> TensorResult<Matrix<T>> {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    matmul_blocked_into(a, b, &mut out)?;
    Ok(out)
}

/// [`matmul_blocked`] into a caller-provided output matrix (every element
/// is overwritten; no pre-zeroing required), packing into thread-local
/// scratch. The workspace conv path packs into the workspace's scratch
/// instead.
///
/// # Errors
///
/// Returns an error if the inner dimensions disagree or `out` has the wrong
/// shape.
pub fn matmul_blocked_into<T: Num>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    out: &mut Matrix<T>,
) -> TensorResult<()> {
    check_matmul_shapes(a, b, out)?;
    let dims @ (_, kk, n) = (a.rows(), a.cols(), b.cols());
    let (a, b, out) = (a.as_slice(), b.as_slice(), out.as_mut_slice());
    match microkernel::packed_kind::<T>() {
        Some(kind) => PACK_TLS.with(|s| {
            let scratch = &mut s.borrow_mut();
            let plan = plan_for(a, b, dims, kind, AScan::Scan, scratch);
            let (level, store) = (simd_level(), Epilogue::Store);
            run_planned(level, &plan, kind, a, b, out, dims, store, scratch);
        }),
        None => gemm_rows(a, b, out, kk, n),
    }
    Ok(())
}

/// Whether a packed-family GEMM scans its `A` operand for structural
/// zeros before dispatching.
#[derive(Clone, Copy)]
pub(crate) enum AScan {
    /// Scan `A` into panel masks: activations, patches, errors — operands
    /// whose zeros (ReLU, padding) are worth skipping and steer dispatch.
    Scan,
    /// `A` is a layer's weights: dense by construction, so the scan (a full
    /// extra pass over a multi-megabyte operand per call) is skipped, no
    /// panel is masked and dispatch keys on the shape alone. Bit-neutral,
    /// like every zero skip (see the module docs).
    Dense,
}

/// Scans (or, for a dense weight operand, declines to scan) `A`, picks the
/// dispatch path and packs `B` when the packed engine won.
fn plan_for<T: Num>(
    a: &[T],
    b: &[T],
    (m, kk, n): (usize, usize, usize),
    kind: PackedKind,
    scan: AScan,
    scratch: &mut PackScratch,
) -> GemmPlan {
    match scan {
        AScan::Scan => microkernel::plan_gemm(a, b, m, kk, n, kind, scratch),
        AScan::Dense => microkernel::plan_gemm_dense_a(b, m, kk, n, kind, scratch),
    }
}

/// Runs one planned packed-family GEMM at `level` on raw row-major slices
/// — `a` is `m × kk`, `b` is `kk × n`, `out` is `m × n` — over the plan's
/// row chunks (one inline chunk, or a pool batch) and records it. Every
/// chunk runs [`microkernel::run_plan_rows`], the one driver. One plan per
/// GEMM means one telemetry record and an identical engine for every
/// chunk: bit-neutral under any partition, since every engine's chains run
/// along `k`. The workers only read `scratch`, which the plan filled before
/// the batch was submitted.
#[allow(clippy::too_many_arguments)]
fn run_planned<T: Num>(
    level: SimdLevel,
    plan: &GemmPlan,
    kind: PackedKind,
    a: &[T],
    b: &[T],
    out: &mut [T],
    (m, kk, n): (usize, usize, usize),
    epilogue: Epilogue,
    scratch: &PackScratch,
) {
    let rows_per = plan.rows_per_chunk;
    microkernel::for_chunks(out, rows_per * n, |c, out_chunk| {
        let row0 = c * rows_per;
        microkernel::run_plan_rows(
            level, plan.path, a, b, scratch, out_chunk, row0, kk, n, kind, epilogue,
        )
    });
    record_gemm("blocked", m, n, plan.skipped, plan.visited, Some(plan.path));
}

/// Writes every row of a GEMM's `B` operand through `fill(k, row)` — over
/// disjoint row ranges on the pool when the `m`-row GEMM the operand feeds
/// is large enough to fan out ([`microkernel::fan_out_pieces`]), on the
/// calling thread otherwise. Each row is written by one call either way.
pub(crate) fn fill_b_rows<T: Num>(
    b: &mut Matrix<T>,
    m: usize,
    fill: impl Fn(usize, &mut [T]) + Sync,
) {
    let (kk, n) = (b.rows(), b.cols());
    if n == 0 {
        return;
    }
    let pieces = microkernel::fan_out_pieces(m * kk * n, zfgan_pool::pool_threads());
    let rows_per = kk.div_ceil(pieces);
    microkernel::for_chunks(b.as_mut_slice(), rows_per * n, |c, rows| {
        for (i, row) in rows.chunks_exact_mut(n).enumerate() {
            fill(c * rows_per + i, row);
        }
    });
}

/// Where a GEMM's product lands.
pub(crate) enum Product<'a, T> {
    /// It overwrites the slice (no pre-zeroing required).
    Store(&'a mut [T]),
    /// It is added to the slice, `acc[i] = acc[i] + product[i]`, each
    /// product element complete before its add — the deferred trainer's
    /// `∇W += ∇wᵢ` without a `∇wᵢ` (see [`Epilogue::Accumulate`]).
    AddTo(&'a mut [T]),
}

impl<T: Num> Product<'_, T> {
    fn len(&self) -> usize {
        match self {
            Product::Store(out) | Product::AddTo(out) => out.len(),
        }
    }

    /// Lands a product that was computed somewhere else.
    fn land(self, product: &[T]) {
        match self {
            Product::Store(out) => out.copy_from_slice(product),
            Product::AddTo(acc) => {
                for (a, p) in acc.iter_mut().zip(product) {
                    *a += *p;
                }
            }
        }
    }

    /// Lands the product of an engine that can only overwrite its output:
    /// `compute` writes every element of the slice it is handed — the
    /// destination itself, or for an accumulating destination non-zeroed
    /// workspace scratch that is then added in one pass.
    fn via_store(
        self,
        ws: &mut ConvWorkspace<T>,
        compute: impl FnOnce(&mut [T], &mut ConvWorkspace<T>),
    ) {
        match self {
            Product::Store(out) => compute(out, ws),
            Product::AddTo(_) => {
                let mut product = ws.take_dirty(self.len());
                compute(&mut product, ws);
                self.land(&product);
                ws.give(product);
            }
        }
    }
}

/// Runs a planned packed-family GEMM at `level` into `dest`. An
/// accumulating destination the engine's epilogue can serve is added to in
/// place; any other shape (`kk >` [`microkernel::KC`], the broadcast
/// engines, Q8.8) goes [`Product::via_store`] — the same arithmetic either
/// way.
#[allow(clippy::too_many_arguments)]
fn run_planned_into<T: Num>(
    level: SimdLevel,
    plan: &GemmPlan,
    kind: PackedKind,
    a: &[T],
    b: &[T],
    dest: Product<'_, T>,
    dims: (usize, usize, usize),
    ws: &mut ConvWorkspace<T>,
) {
    match dest {
        Product::AddTo(acc) if microkernel::epilogue_accumulates(kind, plan.path, dims.1) => {
            let (add, scratch) = (Epilogue::Accumulate, ws.pack_scratch_ref());
            run_planned(level, plan, kind, a, b, acc, dims, add, scratch);
        }
        dest => dest.via_store(ws, |out, ws| {
            let (store, scratch) = (Epilogue::Store, ws.pack_scratch_ref());
            run_planned(level, plan, kind, a, b, out, dims, store, scratch);
        }),
    }
}

/// The test handle of the packed engine: `a × b` stored into (or, with
/// `add`, added to) `out` at an explicit SIMD `level` (one of
/// [`SimdLevel::supported`]), through one explicit engine (`None`: the
/// dispatched one), over explicit `rows_per_chunk`-row chunks with `B`
/// packed in as many pieces — every level the host has and every partition
/// a pool width could produce (and many none does), without touching the
/// process-wide level or width. It runs the production driver; only the
/// level, the engine and the partition are pinned. One chunk
/// (`rows_per_chunk = a.rows()`) is the fully inline engine the bench gates
/// measure the default fan-out against.
///
/// # Panics
///
/// Panics on an element type without packed kernels, disagreeing shapes or
/// `rows_per_chunk == 0`.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn matmul_chunked<T: Num>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    out: &mut Matrix<T>,
    add: bool,
    level: SimdLevel,
    path: Option<GemmPath>,
    rows_per_chunk: usize,
    ws: &mut ConvWorkspace<T>,
) {
    check_matmul_shapes(a, b, out).expect("chunked matmul shapes");
    assert!(rows_per_chunk > 0, "rows_per_chunk must be positive");
    let kind = microkernel::packed_kind::<T>().expect("packed element types only");
    let dims @ (m, kk, n) = (a.rows(), a.cols(), b.cols());
    let (a, b) = (a.as_slice(), b.as_slice());
    let mut plan = microkernel::scan_gemm(a, m, kk, n, ws.pack_scratch());
    plan.path = path.unwrap_or(plan.path);
    plan.rows_per_chunk = rows_per_chunk;
    microkernel::pack_for_plan(&plan, b, dims, kind, ws.pack_scratch());
    let dest = if add {
        Product::AddTo(out.as_mut_slice())
    } else {
        Product::Store(out.as_mut_slice())
    };
    run_planned_into(level, &plan, kind, a, b, dest, dims, ws);
}

/// `a × b → dest` with `A` **borrowed in place** as an `m × b.rows()`
/// row-major slice — the GEMM behind the conv lowerings whose `A` operand
/// already lives inside another tensor:
///
/// * the weight-stationary passes ([`AScan::Dense`]): `a` is the kernel
///   tensor itself or a gathered phase sub-kernel matrix, `b` the
///   transposed patch matrix (one column per output pixel), and the
///   product is stored straight into its destination — for whole-map
///   passes the output maps' own storage, so nothing is scattered
///   afterwards;
/// * the `W-CONV` of a T-CONV layer ([`AScan::Scan`]): `a` is the layer's
///   input maps, `b` the error patches, and the product is the weight
///   gradient, stored into the gradient tensor or added into the caller's
///   accumulator ([`Product::AddTo`]).
///
/// Runs the same engines as [`matmul_blocked`], so each output element is
/// the usual `k`-ascending chain. Element types without packed kernels run
/// the scalar blocked kernel on the borrowed slices.
///
/// # Errors
///
/// Returns an error if `a` or `dest` do not hold `m` rows.
pub(crate) fn matmul_slices_ws<T: Num>(
    a: &[T],
    m: usize,
    b: &Matrix<T>,
    scan: AScan,
    dest: Product<'_, T>,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<()> {
    let dims @ (_, kk, n) = (m, b.rows(), b.cols());
    if a.len() != m * kk || dest.len() != m * n {
        return Err(ShapeError::new(format!(
            "in-place matmul: {} operand words and {} output words for {m}×{kk}×{n}",
            a.len(),
            dest.len()
        )));
    }
    let b = b.as_slice();
    match microkernel::packed_kind::<T>() {
        Some(kind) => {
            let plan = plan_for(a, b, dims, kind, scan, ws.pack_scratch());
            run_planned_into(simd_level(), &plan, kind, a, b, dest, dims, ws);
        }
        None => dest.via_store(ws, |out, _| gemm_rows(a, b, out, kk, n)),
    }
    Ok(())
}

/// GEMM with `B` produced on demand — the streamed-lowering entry for the
/// workspace conv drivers: `a × B → dest`, `a` borrowed in place as an
/// `m × kk` row-major slice. `fill_row(k, row)` must write every element of
/// row `k` of the virtual `kk × n` operand `B` (the buffer it receives is
/// reused across rows and never zeroed, so a partial write would leak a
/// previous row).
///
/// The `A` scan runs **before** `B` exists: when the dispatch layer picks
/// a broadcast path (small-`m` or ikj), `B` is never materialized — rows
/// stream through a one-`k`-tile workspace buffer, `k` ascending, each
/// live `(i, k)` pair applying one axpy update of the ikj tile kernels,
/// and `B` rows whose `A` column is entirely zero are never even
/// generated. That is the same per-element operation chain as every other
/// engine (the f32 fused chain / the saturating Q8.8 chain, zero terms
/// skipped), so the result is bit-identical to materializing `B` and
/// calling [`matmul_slices_ws`] — which is exactly what the remaining
/// paths (packed, non-packed element types) do here.
///
/// Its one caller is the `W-CONV` of an S-CONV layer (`B` = the forward
/// patches).
///
/// # Errors
///
/// Returns an error if `a` or `dest` do not hold `m` rows.
pub(crate) fn matmul_streamed_ws<T: Num>(
    a: &[T],
    m: usize,
    (kk, n): (usize, usize),
    fill_row: &(dyn Fn(usize, &mut [T]) + Sync),
    dest: Product<'_, T>,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<()> {
    if a.len() != m * kk || dest.len() != m * n {
        return Err(ShapeError::new(format!(
            "streamed matmul: {} operand words and {} output words for {m}×{kk}×{n}",
            a.len(),
            dest.len()
        )));
    }
    if let Some(kind) = microkernel::packed_kind::<T>() {
        let plan = microkernel::scan_gemm(a, m, kk, n, ws.pack_scratch());
        if matches!(plan.path, GemmPath::SmallM | GemmPath::Ikj) {
            // One k-tile of `B` rows — or fewer when the whole operand is
            // shorter than a tile (`kk = 1` input-grad reshapes).
            let mut rowbuf = ws.take_dirty(microkernel::IKJ_KB.min(kk) * n);
            dest.via_store(ws, |out, ws| {
                let masks = ws.pack_scratch_ref().masks();
                broadcast_streamed(kind, a, masks, m, kk, n, out, &mut rowbuf, fill_row);
            });
            ws.give(rowbuf);
            record_gemm("blocked", m, n, plan.skipped, plan.visited, Some(plan.path));
            return Ok(());
        }
    }
    // The packed path wants `B` whole (it packs it into column panels):
    // materialize it row by row into workspace scratch — the same bytes
    // the cache-tuned fills produce — and run the normal kernel. Non-
    // packed element types land here too.
    let mut b = ws.take_matrix_dirty(kk, n);
    fill_b_rows(&mut b, m, fill_row);
    let result = matmul_slices_ws(a, m, &b, AScan::Scan, dest, ws);
    ws.give_matrix(b);
    result
}

/// The streamed broadcast engine behind both non-packed dispatch paths:
/// the same [`microkernel::IKJ_KB`]-tiled `kb`/`i`/`k` nest as the ikj
/// kernels, but over `B` rows generated on demand into a one-tile row
/// buffer instead of a materialized operand. Per tile it scans column
/// liveness through the panel masks (masked `A` panels are never read),
/// fills only the live `B` rows — dead columns skip row generation
/// entirely — then runs the *shared* fused tile kernel
/// ([`microkernel::ikj_tile_packed`]) against the L1-hot buffer. Each
/// output element's term chain still runs `k` ascending (tiles ascend,
/// `k` ascends within a tile), so the result is bit-identical to the
/// in-memory ikj kernels (exact round trips — see the microkernel module
/// docs).
#[allow(clippy::too_many_arguments)]
fn broadcast_streamed<T: Num>(
    kind: PackedKind,
    a: &[T],
    masks: &[u64],
    m: usize,
    kk: usize,
    n: usize,
    out: &mut [T],
    rowbuf: &mut [T],
    fill_row: &dyn Fn(usize, &mut [T]),
) {
    const KP: usize = microkernel::KP;
    const KB: usize = microkernel::IKJ_KB;
    let wpr = microkernel::mask_geometry(kk).1;
    debug_assert_eq!(masks.len(), m * wpr);
    out.fill(T::zero());
    for kb in (0..kk).step_by(KB) {
        let kend = (kb + KB).min(kk);
        // Column-liveness scan for this tile: walk each row's tile words
        // panel-wise so masked panels cost one bit test, not `KP` loads.
        let mut live = [false; KB];
        for i in 0..m {
            let mrow = &masks[i * wpr..(i + 1) * wpr];
            let mut k = kb;
            while k < kend {
                let p = k / KP;
                let pend = (p * KP + KP).min(kend);
                if microkernel::mask_hit(mrow, p) {
                    k = pend;
                    continue;
                }
                while k < pend {
                    if !a[i * kk + k].is_zero() {
                        live[k - kb] = true;
                    }
                    k += 1;
                }
            }
        }
        for (t, &is_live) in live[..kend - kb].iter().enumerate() {
            if is_live {
                fill_row(kb + t, &mut rowbuf[t * n..(t + 1) * n]);
            }
        }
        microkernel::ikj_tile_packed(
            kind,
            a,
            masks,
            &rowbuf[..(kend - kb) * n],
            out,
            kk,
            n,
            kb,
            kend,
        );
    }
}

/// GEMM against an in-memory `B` borrowed as a raw row-major slice — the
/// entry for lowering fast paths whose `B` operand already exists inside
/// another tensor (the `1×1`-input T-CONV reads the kernel tensor itself
/// as its weight matrix, zero-copy). The dispatch layer decides exactly
/// as the materialized entries would; when it picks the packed engine
/// (forced or by shape), or the element type has no packed kernels, the
/// call returns `Ok(None)` untouched and the caller falls back to its
/// classic lowering — so a forced-packed run keeps the classic route's cost
/// model, the baseline the dispatch gate measures against.
///
/// # Errors
///
/// Returns an error if `b` is not a `a.cols() × n` operand.
pub(crate) fn matmul_inline_b_ws<T: Num>(
    a: &Matrix<T>,
    b: &[T],
    n: usize,
    ws: &mut ConvWorkspace<T>,
) -> TensorResult<Option<Matrix<T>>> {
    let (m, kk) = (a.rows(), a.cols());
    if b.len() != kk * n {
        return Err(ShapeError::new(format!(
            "inline-B matmul operand holds {} words, expected {kk}×{n}",
            b.len()
        )));
    }
    let Some(kind) = microkernel::packed_kind::<T>() else {
        return Ok(None);
    };
    let plan = microkernel::scan_gemm(a.as_slice(), m, kk, n, ws.pack_scratch());
    if plan.path == GemmPath::Packed {
        return Ok(None);
    }
    // The broadcast engines zero their output themselves.
    let mut out = ws.take_matrix_dirty(m, n);
    let (store, scratch) = (Epilogue::Store, ws.pack_scratch_ref());
    run_planned(
        simd_level(),
        &plan,
        kind,
        a.as_slice(),
        b,
        out.as_mut_slice(),
        (m, kk, n),
        store,
        scratch,
    );
    Ok(Some(out))
}

/// GEMM with deterministic accumulator-fault injection: runs
/// [`matmul_blocked`], then corrupts each output element the plan fires on — modelling
/// a transient upset of the PE's partial-sum register at writeback.
///
/// Output element `(i, j)` is word `base + i·n + j` of the
/// [`FaultSite::GemmAccumulator`] index space, so injection is positional:
/// the same plan fires on the same elements for every thread count,
/// keeping campaigns bit-reproducible.
///
/// # Errors
///
/// Returns an error if the inner dimensions disagree.
pub fn matmul_with_faults(
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    plan: &FaultPlan,
    base: u64,
    log: &mut FaultLog,
) -> TensorResult<Matrix<f32>> {
    let mut out = matmul_blocked(a, b)?;
    plan.corrupt_slice(FaultSite::GemmAccumulator, base, out.as_mut_slice(), log);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use crate::fixed::Fx;
    use crate::microkernel::GemmPath;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rows: usize, cols: usize, zero_frac: f64, rng: &mut SmallRng) -> Matrix<f32> {
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
    }

    /// Standard accumulation-error bound between the fused `k`-chain and
    /// the naive two-rounding chain: `2·γ_kk·Σ|a·b| ≤ 2·kk²·ε` for the
    /// unit-magnitude test operands.
    fn assert_within_accumulation_bound(naive: &Matrix<f32>, packed: &Matrix<f32>, kk: usize) {
        let bound = (2.0 * (kk as f32) * (kk as f32) * f32::EPSILON).max(1e-6);
        for (i, (x, y)) in naive.as_slice().iter().zip(packed.as_slice()).enumerate() {
            assert!(
                (x - y).abs() <= bound,
                "element {i}: naive {x} vs packed {y} exceeds bound {bound}"
            );
        }
    }

    #[test]
    fn packed_f32_matches_naive_within_the_accumulation_bound() {
        let mut rng = SmallRng::seed_from_u64(10);
        for (m, k, n) in [(1, 1, 1), (3, 7, 5), (17, 33, 65), (40, 100, 130)] {
            let a = random_matrix(m, k, 0.4, &mut rng);
            let b = random_matrix(k, n, 0.1, &mut rng);
            let naive = a.matmul(&b).unwrap();
            let packed = matmul_blocked(&a, &b).unwrap();
            assert_within_accumulation_bound(&naive, &packed, k);
        }
    }

    #[test]
    fn packed_fx_is_bit_identical_to_naive_fx() {
        let mut rng = SmallRng::seed_from_u64(14);
        for (m, k, n) in [(1, 1, 1), (5, 9, 7), (19, 40, 33)] {
            let draw = |rows: usize, cols: usize, rng: &mut SmallRng| {
                let data = (0..rows * cols)
                    .map(|_| {
                        if rng.gen_range(0.0..1.0) < 0.4 {
                            Fx::ZERO
                        } else {
                            Fx::from_f32(rng.gen_range(-4.0f32..4.0))
                        }
                    })
                    .collect();
                Matrix::from_vec(rows, cols, data)
            };
            let a = draw(m, k, &mut rng);
            let b = draw(k, n, &mut rng);
            let naive = a.matmul(&b).unwrap();
            assert_eq!(naive, matmul_blocked(&a, &b).unwrap(), "{m}×{k}×{n}");
        }
    }

    /// Every row partition — chunks of one row, under, at and over a
    /// register tile, ragged, whole — on every engine, storing and adding,
    /// f32 and Q8.8: one result, the single-chunk one. The shape spans two
    /// `k`-chunks for f32's store and one for its in-place add.
    #[test]
    fn every_row_partition_is_bit_identical_to_one_chunk() {
        fn check<T: Num>(a: &Matrix<T>, b: &Matrix<T>, acc: &Matrix<T>) {
            let m = a.rows();
            let mut ws = ConvWorkspace::new();
            let level = simd_level();
            for path in [GemmPath::Packed, GemmPath::Ikj, GemmPath::SmallM] {
                for add in [false, true] {
                    let mut want = acc.clone();
                    matmul_chunked(a, b, &mut want, add, level, Some(path), m, &mut ws);
                    for rows in [1, 5, 6, 7, 13] {
                        let mut got = acc.clone();
                        matmul_chunked(a, b, &mut got, add, level, Some(path), rows, &mut ws);
                        assert_eq!(want, got, "{path:?} add={add} rows={rows}");
                    }
                }
            }
        }
        let mut rng = SmallRng::seed_from_u64(11);
        for kk in [50, microkernel::KC + 9] {
            let a = random_matrix(37, kk, 0.5, &mut rng);
            let b = random_matrix(kk, 39, 0.0, &mut rng);
            let acc = random_matrix(37, 39, 0.0, &mut rng);
            assert_eq!(matmul_blocked(&a, &b).unwrap(), {
                let (mut one, ws) = (acc.clone(), &mut ConvWorkspace::new());
                matmul_chunked(&a, &b, &mut one, false, simd_level(), None, 37, ws);
                one
            });
            check(&a, &b, &acc);
            let fx = |m: &Matrix<f32>| {
                let data = m
                    .as_slice()
                    .iter()
                    .map(|v| Fx::from_f32(*v * 4.0))
                    .collect();
                Matrix::from_vec(m.rows(), m.cols(), data)
            };
            check(&fx(&a), &fx(&b), &fx(&acc));
        }
    }

    /// One GEMM stored or added at every SIMD level the host has, on every
    /// engine, in chunks of one row, one register tile and all rows: one
    /// result, the inline scalar one — for f32 and Q8.8, on shapes with
    /// ragged tiles and panels and (one case in four) a chain spanning two
    /// `k`-chunks.
    fn check_every_level_path_and_partition<T: Num>(a: &Matrix<T>, b: &Matrix<T>, acc: &Matrix<T>) {
        let m = a.rows();
        let mut ws = ConvWorkspace::new();
        for add in [false, true] {
            let (mut want, scalar) = (acc.clone(), SimdLevel::Scalar);
            matmul_chunked(a, b, &mut want, add, scalar, None, m, &mut ws);
            for level in SimdLevel::supported() {
                for path in [GemmPath::Packed, GemmPath::Ikj, GemmPath::SmallM] {
                    for rows in [1, microkernel::MR_F32, m] {
                        let mut got = acc.clone();
                        matmul_chunked(a, b, &mut got, add, level, Some(path), rows, &mut ws);
                        assert_eq!(want, got, "{level:?} {path:?} add={add} rows={rows}");
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(16))]
        #[test]
        fn every_level_path_and_partition_is_bit_identical_to_one_scalar_chunk(
            m in 1usize..15,
            kk in 1usize..60,
            deep in 0usize..4,
            n in 1usize..41,
            seed in 0u64..1 << 32,
        ) {
            let kk = if deep == 0 { microkernel::KC + kk } else { kk };
            let mut rng = SmallRng::seed_from_u64(seed);
            let a = random_matrix(m, kk, 0.5, &mut rng);
            let b = random_matrix(kk, n, 0.1, &mut rng);
            let acc = random_matrix(m, n, 0.2, &mut rng);
            check_every_level_path_and_partition(&a, &b, &acc);
            let fx = |m: &Matrix<f32>| {
                let data = m.as_slice().iter().map(|v| Fx::from_f32(*v * 64.0)).collect();
                Matrix::from_vec(m.rows(), m.cols(), data)
            };
            check_every_level_path_and_partition(&fx(&a), &fx(&b), &fx(&acc));
        }
    }

    /// `f64` has no packed kernel: it runs the scalar blocked fallback,
    /// which keeps the naive loop's bits — across row and column blocks
    /// and through the zero skip.
    #[test]
    fn f64_fallback_is_bit_identical_to_naive() {
        let mut rng = SmallRng::seed_from_u64(15);
        let f64s = |m: &Matrix<f32>| {
            let data = m.as_slice().iter().map(|v| f64::from(*v) / 3.0).collect();
            Matrix::from_vec(m.rows(), m.cols(), data)
        };
        for (m, k, n) in [(1, 1, 1), (3, 7, 5), (17, 33, 65), (40, 100, 130)] {
            let a = f64s(&random_matrix(m, k, 0.4, &mut rng));
            let b = f64s(&random_matrix(k, n, 0.1, &mut rng));
            assert_eq!(
                a.matmul(&b).unwrap(),
                matmul_blocked(&a, &b).unwrap(),
                "{m}×{k}×{n}"
            );
        }
    }

    /// The workspace entry's `f64` fallback writes every product word, into
    /// the destination or (accumulating) into dirty scratch that is then
    /// added: NaN-poisoned buffers never reach the result.
    #[test]
    fn f64_workspace_fallback_stores_and_adds_over_poisoned_buffers() {
        let mut rng = SmallRng::seed_from_u64(17);
        let f64s = |m: &Matrix<f32>| {
            let data = m.as_slice().iter().map(|v| f64::from(*v) / 3.0).collect();
            Matrix::from_vec(m.rows(), m.cols(), data)
        };
        let (m, k, n) = (13, 21, 9);
        let a = f64s(&random_matrix(m, k, 0.4, &mut rng));
        let b = f64s(&random_matrix(k, n, 0.0, &mut rng));
        let acc = f64s(&random_matrix(m, n, 0.0, &mut rng));
        let naive = a.matmul(&b).unwrap();
        let mut ws: ConvWorkspace<f64> = ConvWorkspace::new();
        let mut stored = Matrix::from_vec(m, n, vec![f64::NAN; m * n]);
        let store = Product::Store(stored.as_mut_slice());
        matmul_slices_ws(a.as_slice(), m, &b, AScan::Scan, store, &mut ws).unwrap();
        assert_eq!(naive, stored);
        ws.give(vec![f64::NAN; m * n]);
        let mut added = acc.clone();
        let add = Product::AddTo(added.as_mut_slice());
        matmul_slices_ws(a.as_slice(), m, &b, AScan::Scan, add, &mut ws).unwrap();
        let want: Vec<f64> = acc
            .as_slice()
            .iter()
            .zip(naive.as_slice())
            .map(|(x, p)| x + p)
            .collect();
        assert_eq!(Matrix::from_vec(m, n, want), added);
    }

    #[test]
    fn kernels_reject_dimension_mismatch() {
        let a: Matrix<f32> = Matrix::zeros(2, 3);
        let b: Matrix<f32> = Matrix::zeros(2, 3);
        assert!(matmul_blocked(&a, &b).is_err());
    }

    #[test]
    fn fault_injection_is_positional() {
        let mut rng = SmallRng::seed_from_u64(13);
        let a = random_matrix(19, 30, 0.3, &mut rng);
        let b = random_matrix(30, 21, 0.0, &mut rng);
        let plan = FaultPlan::new(
            77,
            0.02,
            FaultSite::GemmAccumulator,
            FaultKind::BitFlip { bit: 30 },
        )
        .unwrap();
        let mut reference_log = FaultLog::default();
        matmul_with_faults(&a, &b, &plan, 100, &mut reference_log).unwrap();
        assert!(reference_log.fired > 0, "plan should fire in 399 elements");
        // Other operands of the same shape: the fault *sites* (positions)
        // agree.
        let (a2, b2) = (
            random_matrix(19, 30, 0.6, &mut rng),
            random_matrix(30, 21, 0.0, &mut rng),
        );
        let mut log = FaultLog::default();
        matmul_with_faults(&a2, &b2, &plan, 100, &mut log).unwrap();
        assert_eq!(log.attempts, reference_log.attempts);
        assert_eq!(log.fired, reference_log.fired);
        assert_eq!(
            log.records.iter().map(|r| r.index).collect::<Vec<_>>(),
            reference_log
                .records
                .iter()
                .map(|r| r.index)
                .collect::<Vec<_>>(),
        );
        // A different base shifts the fault pattern: same plan, new words.
        let mut other_log = FaultLog::default();
        matmul_with_faults(&a, &b, &plan, 100_000, &mut other_log).unwrap();
        assert_ne!(
            reference_log
                .records
                .iter()
                .map(|r| r.index)
                .collect::<Vec<_>>(),
            other_log
                .records
                .iter()
                .map(|r| r.index)
                .collect::<Vec<_>>(),
            "base offset must move the fault sites"
        );
    }

    #[test]
    fn workspace_scratch_matches_thread_local_scratch() {
        let mut rng = SmallRng::seed_from_u64(16);
        let a = random_matrix(12, 40, 0.5, &mut rng);
        let b = random_matrix(40, 17, 0.0, &mut rng);
        let mut ws: ConvWorkspace<f32> = ConvWorkspace::new();
        let plain = matmul_blocked(&a, &b).unwrap();
        // Twice: the second call runs on warm (dirty) scratch.
        for round in 0..2 {
            let mut ws_out = ws.take_matrix_dirty(12, 17);
            let store = Product::Store(ws_out.as_mut_slice());
            matmul_slices_ws(a.as_slice(), 12, &b, AScan::Scan, store, &mut ws).unwrap();
            assert_eq!(plain, ws_out, "round {round}");
            ws.give_matrix(ws_out);
        }
    }
}
