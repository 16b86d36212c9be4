//! Packed SIMD microkernel GEMM — the software analogue of the paper's
//! dense 16-bit MAC datapath.
//!
//! A scalar blocked kernel (the `f64` fallback in [`crate::gemm`]) walks
//! the sparse `A` operand element by element with a branch per word. That
//! shape is exactly what defeats wide SIMD lanes, so this module
//! restructures the multiply the way a BLIS-style microkernel (and the
//! paper's PE array) does:
//!
//! * **`B` is packed** into contiguous column panels of [`NR_F32`] /
//!   [`NR_FX`] lanes (zero-padded tails), so the inner loop issues nothing
//!   but sequential full-width loads.
//! * **`A` is scanned once** into per-row *k-panel structural-zero masks*
//!   ([`KP`] words per panel, one bit per panel): the zero-free lowerings
//!   produce patch matrices whose residual (boundary) zeros cluster, and a
//!   masked panel is skipped without any per-element branch in the vector
//!   loop — the paper's zero-free scheduling composed with SIMD instead of
//!   defeated by it.
//! * The **inner kernel** is explicit `std::arch` SIMD with a portable
//!   scalar fallback. f32 is an [`MR_F32`]-row register tile, one body
//!   (`f32_simd_tile!`) instantiated per vector width — 6 rows of `A`
//!   share every `B` load, feeding 12 independent fused multiply–add
//!   chains:
//!
//!   | [`SimdLevel`] | tile | vectors of a row | registers (acc + `B` + broadcast) |
//!   |---|---|---|---|
//!   | `Avx2Fma` | 6×16 | 2 `ymm`: both halves of one [`NR_F32`] panel | 12 + 2 + 1 of 16 |
//!   | `Avx512` | 6×32 | 2 `zmm`: one each from two *adjacent* panels | 12 + 2 + 2 of 32 |
//!   | `Avx512`, odd last panel | 6×16 | 1 `zmm` | 6 + 1 + 1 of 32 |
//!
//!   The packed-`B` layout is the same for every level, so the wider tile
//!   is a different walk over the same panels, not a different pack. Q8.8
//!   (16-lane `i16` multiply with exact widened-`i32` rounding and
//!   saturating accumulate) and the broadcast engines below have AVX2
//!   bodies only, which every level from `Avx2Fma` up runs. The level is
//!   chosen **once** per process ([`simd_level`]): `ZFGAN_NO_SIMD=1`
//!   forces the fallback, otherwise `is_x86_feature_detected!` picks the
//!   widest of AVX2+FMA and AVX-512F the host has.
//!
//! # Shape-aware dispatch
//!
//! Packing pays for itself only when enough rows of `A` reuse the packed
//! panels and the panel masks actually elide work. Two GAN shapes break
//! both assumptions: the projection GEMM (49×4900×128, ~2 % density with
//! stride-49 nonzero columns) defeats the KP-panel masks because every
//! row's few live words sit in distinct panels, and the `m = 1`
//! input-grad GEMMs amortize a full `B` pack over a single output row.
//! Each GEMM is therefore planned ([`plan_gemm`]: one `A` scan, then
//! [`choose_path`]) onto one of three engines ([`GemmPath`]):
//!
//! * [`GemmPath::Packed`] — the packed panel kernel above (the default).
//! * [`GemmPath::Ikj`] — a broadcast-FMA `ikj` kernel over **unpacked**
//!   `B` rows: zero `A` words are skipped element-wise (no mask
//!   granularity to defeat) and `B` is never packed.
//! * [`GemmPath::SmallM`] — the same register tile as the packed kernel
//!   run directly over unpacked `B` columns for `m ≤ `[`MR_F32`]: one
//!   pass over `B`, no pack. The `W-CONV` lowering additionally streams
//!   `B` rows on the fly through this path
//!   (`crate::gemm::matmul_streamed_ws`) so its small-`m` sites skip the
//!   materialized patch fill entirely.
//!
//! The decision is a pure function of `(m, kk, n, zero-word count)` — all
//! thread- and SIMD-invariant — and `ZFGAN_FORCE_KERNEL=packed|ikj|smallm`
//! (or [`set_forced_path`]) pins it for testing. Every engine computes the
//! same per-element operation chain (see below), so dispatch is never a
//! semantics choice.
//!
//! One driver runs every plan: [`run_plan_rows`] executes the planned
//! engine over one chunk of output rows at the [`SimdLevel`] it is handed.
//! Production hands it [`simd_level`]; the one test handle,
//! [`crate::gemm::matmul_chunked`], pins the level, the engine and the row
//! partition and runs the same driver, so the bit-equality suites cover
//! every level the host has through the code training runs.
//!
//! # Fan-out
//!
//! Next to the engine, a plan carries how many output rows one pool task
//! takes ([`GemmPlan::rows_per_chunk`]): [`fan_out_rows`], a pure function
//! of `(m, kk, n, pool width)`. Under [`FAN_OUT_MIN_MACS`]
//! multiply–accumulates, on a serial pool, or for the broadcast engines it
//! is `m` — one inline chunk, the pool untouched; past it the rows go out
//! in register-tile-aligned chunks, two per pool thread, and `B` is packed
//! over as many disjoint panel ranges as there are chunks. Nobody asks for
//! threads: width is the pool's business (`ZFGAN_THREADS`), the threshold
//! is that one constant, and the choice is scheduling only — recorded in no
//! telemetry, and bit-neutral by the argument under *Determinism*.
//!
//! # Loop order and epilogue
//!
//! Both packed engines walk their tiles through one nest
//! (`for_each_tile`): `k`-chunks of [`KC`], then row blocks, column
//! panels and register tiles. The row block is picked per chunk from the
//! chunk's packed-`B` footprint — one [`MR_F32`]-row tile across all panels
//! while the chunk is cache-resident (short-`k`, wide-`n` products write
//! their output as six sequential streams), [`MC`] rows per panel
//! otherwise. The f32 tile ends in one of three ways (`TileOut`):
//! overwrite, resume the chain a previous chunk left in the output, or —
//! [`Epilogue::Accumulate`], single-chunk GEMMs only — add the finished
//! chain to what the output holds. None of this reorders a per-element
//! chain, so all of it is bit-neutral.
//!
//! # Determinism
//!
//! The packed f32 kernel defines its **own fixed accumulation order**: per
//! output element a single fused-multiply-add chain over `k` ascending.
//! The scalar fallback uses [`f32::mul_add`] — IEEE-754 correctly-rounded,
//! the same operation as one `vfmadd` lane at either vector width — so
//! every [`SimdLevel`] produces **bit-identical** results by construction
//! (a wider tile only changes which lanes run side by side, never the
//! order within one element's chain), and any zero term
//! may be skipped at any granularity without changing bits
//! (`fma(0, b, acc) = acc` exactly for finite `b`). How the output rows
//! are partitioned over pool tasks therefore cannot change results either:
//! panels run along `k`, never across rows, so every output element is one
//! chain computed by one thread. The naive oracle ([`Matrix::matmul`])
//! differs only by the usual fused-vs-separate rounding, bounded by the
//! standard accumulation error bound (pinned by `tests/fast_conv.rs`).
//!
//! The Q8.8 kernel is **bit-identical** to scalar [`Fx`] semantics, not
//! merely close: each term is widened to `i32`, rounded to nearest (ties
//! toward +∞) and saturated exactly as [`Fx`]'s `Mul`, then accumulated
//! with [`Fx`]'s saturating `Add`, in `k`-ascending order
//! (`crates/tensor/tests/fx_semantics.rs` pins the contract).
//!
//! [`Fx`]: crate::Fx
//! [`Matrix::matmul`]: crate::im2col::Matrix::matmul

use std::sync::OnceLock;

use crate::fixed::{Fx, FRAC_BITS};
use crate::num::Num;

/// `k`-panel width: the granularity of the structural-zero masks. One mask
/// bit covers [`KP`] consecutive `A` words of one row.
pub const KP: usize = 8;

/// f32 column-panel width: 8 AVX2 lanes × 2 accumulator vectors per row
/// of the register tile, or one 16-lane AVX-512 vector (whose tile spans
/// two panels).
pub const NR_F32: usize = 16;

/// f32 register-tile height: [`MR_F32`] rows of `A` share every packed-`B`
/// load, giving `MR_F32 × 2` = 12 independent FMA chains (comfortably
/// past the ~8–10 needed to hide fused-add latency on two FMA ports) from
/// just 2 loads + 6 broadcasts per `k`-step. The module docs' tile table
/// has the register budget per level.
pub const MR_F32: usize = 6;

/// Q8.8 column-panel width: 16 `i16` lanes × 2 saturating accumulator
/// vectors (the widened-`i32` rounding runs in registers between them).
pub const NR_FX: usize = 32;

/// `k`-chunk depth (a multiple of [`KP`]): the row-tile loop runs inside
/// each `KC × NR` block of packed `B`, so the block stays cache-resident
/// and is streamed from memory once per GEMM instead of once per row tile
/// (f32: `512 × 16 × 4 B` = 32 KB, innermost-cache-resident). Chunking is
/// bit-neutral: the per-element accumulator is stored to `out` between
/// chunks and reloaded exactly (an f32 register↔memory round trip is
/// exact, and the Q8.8 accumulator is saturated back into `i16` range
/// after every step), so the operation chain per element is identical to a
/// single pass.
pub const KC: usize = 512;

const _: () = assert!(
    KC.is_multiple_of(KP),
    "chunks must start on a mask-panel boundary"
);

/// Which inner kernel the process selected. Ordered by what the level
/// may execute: every level runs the bodies of the levels below it, so the
/// selectors that have no wider body of their own (ikj, axpy, Q8.8) ask
/// `level >= Avx2Fma`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar fallback (`f32::mul_add` / scalar `i32` lanes) —
    /// bit-identical to the SIMD kernels by construction.
    Scalar,
    /// Explicit AVX2 + FMA `std::arch` kernels.
    Avx2Fma,
    /// AVX-512F on top of AVX2 + FMA: the packed f32 tile runs 16-lane
    /// vectors over pairs of adjacent `B` panels; every other engine keeps
    /// its AVX2 body.
    Avx512,
}

impl SimdLevel {
    /// `Scalar`, then each level this host verifies, ascending — what a
    /// bit-equality test must cover (the process-selected [`simd_level`]
    /// alone would leave AVX2 unexercised on an AVX-512 host).
    pub fn supported() -> impl Iterator<Item = SimdLevel> {
        let top = detect_level();
        [SimdLevel::Scalar, SimdLevel::Avx2Fma, SimdLevel::Avx512]
            .into_iter()
            .filter(move |&level| level <= top)
    }

    /// The feature tag the bench JSON records carry.
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2Fma => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

/// Inner-kernel signatures. f32 runs an [`MR_F32`]-row register tile
/// (see [`F32Tile`]); Q8.8 runs one row's `k`-chunk at a time:
/// `(a_chunk, masks_row, panel0, packed_chunk, out, w, accumulate)`,
/// continuing the accumulation already in `out` when `accumulate` is set.
/// The pointers are `unsafe fn` because the SIMD entries require the
/// features [`detect_level`] verified at selection time; the scalar
/// entries coerce in safely.
type F32TileFn = unsafe fn(&F32Tile, &mut [f32]);
type FxPanelFn = unsafe fn(&[i16], &[u64], usize, &[i16], &mut [i16], usize, bool);

/// The selected level, fixed once per process, then only read.
/// [`f32_tile_for`] / [`fx_panel_for`] map a level onto the inner-kernel
/// pointers.
static LEVEL: OnceLock<SimdLevel> = OnceLock::new();

/// Resolves the f32 tile kernel for a level, and whether its tiles take
/// pairs of adjacent [`NR_F32`] panels. The process-selected level
/// always resolves to a kernel whose feature requirements were verified
/// by [`detect_level`].
fn f32_tile_for(level: SimdLevel) -> (F32TileFn, bool) {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => (f32_tile_avx512, true),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => (f32_tile_avx2, false),
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx512 | SimdLevel::Avx2Fma => (f32_tile_scalar, false),
        SimdLevel::Scalar => (f32_tile_scalar, false),
    }
}

/// Resolves the Q8.8 row-panel kernel for a level (see [`f32_tile_for`]).
fn fx_panel_for(level: SimdLevel) -> FxPanelFn {
    match level {
        #[cfg(target_arch = "x86_64")]
        l if l >= SimdLevel::Avx2Fma => fx_row_panel_avx2,
        _ => fx_row_panel_scalar,
    }
}

#[cfg(target_arch = "x86_64")]
fn detect_level() -> SimdLevel {
    if !(is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")) {
        SimdLevel::Scalar
    } else if is_x86_feature_detected!("avx512f") {
        SimdLevel::Avx512
    } else {
        SimdLevel::Avx2Fma
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_level() -> SimdLevel {
    SimdLevel::Scalar
}

/// The inner-kernel implementation this process selected (respecting
/// `ZFGAN_NO_SIMD=1` and runtime feature detection), fixed for the
/// process lifetime.
pub fn simd_level() -> SimdLevel {
    *LEVEL.get_or_init(|| {
        let forced_off = std::env::var("ZFGAN_NO_SIMD")
            .map(|v| !v.trim().is_empty() && v.trim() != "0")
            .unwrap_or(false);
        if forced_off {
            SimdLevel::Scalar
        } else {
            detect_level()
        }
    })
}

/// `"avx512"`, `"avx2"` or `"scalar"` — [`SimdLevel::label`] of the
/// process-selected level.
pub fn simd_label() -> &'static str {
    simd_level().label()
}

/// Which GEMM engine the shape/density dispatch selected for one call
/// (see the module docs' dispatch section). All paths compute the same
/// per-element operation chain; the choice is pure performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmPath {
    /// The packed panel kernel: pack `B`, scan `A` into panel masks, run
    /// the register tile over packed panels.
    Packed,
    /// Broadcast-FMA `ikj` over unpacked `B` rows with an element-wise
    /// `a == 0` skip; bypasses the `B` pack entirely.
    Ikj,
    /// The register tile run directly over unpacked `B` columns — one
    /// streamed pass over `B`, no pack. Chosen for `m ≤ `[`MR_F32`].
    SmallM,
}

impl GemmPath {
    /// The telemetry / bench / `ZFGAN_FORCE_KERNEL` tag for this path.
    pub fn label(self) -> &'static str {
        match self {
            GemmPath::Packed => "packed",
            GemmPath::Ikj => "ikj",
            GemmPath::SmallM => "smallm",
        }
    }
}

/// Runtime forced-path override (bench harnesses): 0 = none, else
/// `GemmPath` discriminant + 1. Takes precedence over the env override.
static FORCED_RT: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

/// `ZFGAN_FORCE_KERNEL` parse, fixed once per process like the kernel
/// table.
static FORCED_ENV: OnceLock<Option<GemmPath>> = OnceLock::new();

/// Forces every dispatch decision in this process to `path` (`None`
/// restores normal dispatch). A bench/test knob — the trainstep harness
/// uses it to measure the always-packed baseline in-process; concurrent
/// GEMM callers see the change on their next dispatch.
pub fn set_forced_path(path: Option<GemmPath>) {
    let v = match path {
        None => 0,
        Some(GemmPath::Packed) => 1,
        Some(GemmPath::Ikj) => 2,
        Some(GemmPath::SmallM) => 3,
    };
    FORCED_RT.store(v, std::sync::atomic::Ordering::Relaxed);
}

/// The forced dispatch path, if any: [`set_forced_path`] wins over
/// `ZFGAN_FORCE_KERNEL=packed|ikj|smallm` (unset or empty forces nothing).
///
/// # Panics
///
/// Panics on any other `ZFGAN_FORCE_KERNEL` value, naming the accepted
/// ones: a misspelt path must not quietly test the dispatched default.
pub fn forced_path() -> Option<GemmPath> {
    match FORCED_RT.load(std::sync::atomic::Ordering::Relaxed) {
        1 => return Some(GemmPath::Packed),
        2 => return Some(GemmPath::Ikj),
        3 => return Some(GemmPath::SmallM),
        _ => {}
    }
    *FORCED_ENV.get_or_init(|| {
        let value = std::env::var("ZFGAN_FORCE_KERNEL").unwrap_or_default();
        parse_forced_path(&value).unwrap_or_else(|e| panic!("{e}"))
    })
}

/// Parses a `ZFGAN_FORCE_KERNEL` value: blank forces nothing, a
/// [`GemmPath::label`] forces that path, anything else is an error naming
/// the accepted values.
fn parse_forced_path(value: &str) -> Result<Option<GemmPath>, String> {
    let value = value.trim();
    if value.is_empty() {
        return Ok(None);
    }
    [GemmPath::Packed, GemmPath::Ikj, GemmPath::SmallM]
        .into_iter()
        .find(|p| p.label() == value)
        .map(Some)
        .ok_or_else(|| format!("ZFGAN_FORCE_KERNEL={value:?}: expected packed|ikj|smallm"))
}

/// `Ikj` is chosen when at least [`IKJ_ZERO_NUM`]`/`[`IKJ_ZERO_DEN`] of
/// the `A` words are exactly zero. The threshold is deliberately high:
/// measured on the MNIST-GAN shapes, the packed tile still wins at 85–90 %
/// scattered zeros (its dense 6×16 FMA throughput beats the element skip),
/// and the broadcast engine only pulls ahead near the structural ~98 %
/// sparsity of the zero-free t-conv lowerings.
const IKJ_ZERO_NUM: u64 = 15;
const IKJ_ZERO_DEN: u64 = 16;

/// Minimum output width for any broadcast engine: below half a register
/// tile the per-live-element axpy overhead dominates and the packed tile
/// wins even on 98 %-sparse or single-row operands (measured at `n = 1`:
/// packed is 7–8× faster on the dense backward shapes).
const BROADCAST_MIN_N: usize = NR_F32 / 2;

/// Shape/density dispatch: a pure function of the GEMM shape and the
/// exact zero-word count of `A` (as counted by the panel-mask scan), so
/// the decision — and the `gemm_dispatch` telemetry derived from it — is
/// identical for every thread count and SIMD level. Thresholds are from
/// per-shape engine timings on the MNIST-GAN train step:
///
/// * `n ≥ 8` gates every broadcast route — narrower outputs can't
///   amortize a broadcast axpy;
/// * `m = 1`: packing `B` for one output row dwarfs the arithmetic →
///   `SmallM` (and the streamed drivers skip materializing `B` at all);
/// * `kk ≤ 2`: the pack writes ≥ `B`'s whole size for one or two axpys
///   per output row → `Ikj`;
/// * `A` ≥ 15/16 zero: element-wise skipping beats the dense tile →
///   `Ikj`.
pub fn choose_path(m: usize, kk: usize, n: usize, zero_words: u64) -> GemmPath {
    if n >= BROADCAST_MIN_N {
        if m == 1 {
            return GemmPath::SmallM;
        }
        if kk <= 2 && kk > 0 {
            return GemmPath::Ikj;
        }
        let total = (m * kk) as u64;
        if total > 0 && IKJ_ZERO_DEN * zero_words >= IKJ_ZERO_NUM * total {
            return GemmPath::Ikj;
        }
    }
    GemmPath::Packed
}

/// Below this many multiply–accumulates a GEMM — and the `B` fill and pack
/// that feed it — runs inline on the calling thread: about 50 µs of packed
/// tile, under which a pool batch costs more than it shares out. The
/// MNIST-GAN step's 10–55 µs GEMMs sit below it.
pub const FAN_OUT_MIN_MACS: usize = 2 << 20;

/// How many pieces the work of a `macs`-MAC GEMM (its row chunks, its `B`
/// panels, its `B` rows) is cut into at pool width `threads`: one below
/// [`FAN_OUT_MIN_MACS`] or on a serial pool, else two per thread — so the
/// share of a worker that arrives late is stolen by the helping submitter.
pub(crate) fn fan_out_pieces(macs: usize, threads: usize) -> usize {
    if threads <= 1 || macs < FAN_OUT_MIN_MACS {
        1
    } else {
        2 * threads
    }
}

/// The output-row chunk length a packed `m × kk × n` GEMM fans out by at
/// pool width `threads`: `m` (one inline chunk) under
/// [`FAN_OUT_MIN_MACS`], on a serial pool or when the rows fill no more
/// than one register tile, otherwise a multiple of [`MR_F32`], so every
/// chunk but the last is whole tiles.
/// Scheduling only: each output element is one `k`-ascending chain computed
/// by one thread, so bits do not depend on the value returned.
pub fn fan_out_rows(m: usize, kk: usize, n: usize, threads: usize) -> usize {
    let pieces = fan_out_pieces(m * kk * n, threads);
    m.div_ceil(pieces).next_multiple_of(MR_F32).min(m)
}

/// `f(chunk_index, chunk)` over consecutive `chunk_len` pieces of `data`
/// (the last may be shorter): on the calling thread when one piece covers
/// it, as one allocation-free pool batch otherwise.
pub(crate) fn for_chunks<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    if chunk_len >= data.len() {
        f(0, data);
    } else {
        zfgan_pool::parallel_chunks_for(data, chunk_len, f).expect("GEMM worker panicked");
    }
}

/// [`choose_path`] with the forced override applied — the decision the
/// drivers actually run.
fn dispatch_path(m: usize, kk: usize, n: usize, zero_words: u64) -> GemmPath {
    forced_path().unwrap_or_else(|| choose_path(m, kk, n, zero_words))
}

/// Element types the packed microkernel accelerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedKind {
    /// 32-bit float: AVX2/FMA f32x8 panels.
    F32,
    /// Q8.8 fixed point: widened-i32 8-lane panels.
    Fx,
}

/// Whether `T` has a packed kernel (`f32` and [`crate::Fx`] do; `f64` and
/// other [`Num`] types keep the scalar blocked path).
pub fn packed_kind<T: 'static>() -> Option<PackedKind> {
    use std::any::TypeId;
    let t = TypeId::of::<T>();
    if t == TypeId::of::<f32>() {
        Some(PackedKind::F32)
    } else if t == TypeId::of::<Fx>() {
        Some(PackedKind::Fx)
    } else {
        None
    }
}

/// Reusable packing scratch: the packed `B` panels and the per-row `A`
/// panel masks. Owned by a [`crate::ConvWorkspace`] on the workspace hot
/// path (steady-state zero allocation) and by a thread-local for the
/// allocating entry points.
#[derive(Debug, Default)]
pub struct PackScratch {
    /// Packed f32 `B` panels, `[panel][k][lane]`, tails zero-padded.
    bf32: LineAligned<f32>,
    /// Packed Q8.8 raw-`i16` `B` panels, same layout.
    bi16: LineAligned<i16>,
    /// Per-row panel masks, `words_per_row` `u64`s per row; a set bit
    /// marks an all-zero `A` panel.
    masks: Vec<u64>,
}

/// A reusable buffer whose live window starts on a 64-byte cache-line
/// boundary. Every panel row of packed `B` is a whole number of lines
/// (`NR_F32 × 4 B` = `NR_FX × 2 B` = 64), so from an aligned start no
/// vector load of the tile kernels straddles two lines; from the 16-byte
/// alignment the allocator gives, every AVX-512 load does, and which one a
/// process got used to move the MNIST-GAN train step by 13 % between
/// builds (17.2 vs 19.5 ms) with the heap layout.
#[derive(Debug, Default)]
struct LineAligned<T> {
    buf: Vec<T>,
    start: usize,
}

impl<T: Copy + Default> LineAligned<T> {
    /// Sizes the window to `len` elements (contents unspecified) and
    /// returns it.
    fn resize(&mut self, len: usize) -> &mut [T] {
        let pad = 64 / std::mem::size_of::<T>();
        self.buf.resize(len + pad, T::default());
        // `align_offset` may decline (it never does outside const
        // evaluation); the window is then in bounds and merely unaligned.
        self.start = self.buf.as_ptr().align_offset(64).min(pad);
        &mut self.buf[self.start..self.start + len]
    }

    /// The window the last [`Self::resize`] returned, and what follows it.
    fn get(&self) -> &[T] {
        &self.buf[self.start..]
    }
}

impl PackScratch {
    /// Creates empty scratch (buffers grow on first use and are reused).
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-row panel masks built by the last [`scan_gemm`] /
    /// [`plan_gemm`] call: `mask_geometry(kk).1` words per `A` row, a set
    /// bit marking an all-zero panel. The streamed-lowering driver reads
    /// these to skip dead `A` panels without touching the operand again.
    pub(crate) fn masks(&self) -> &[u64] {
        &self.masks
    }
}

/// Panel-mask geometry for a `m × kk` operand.
#[inline]
pub(crate) fn mask_geometry(kk: usize) -> (usize, usize) {
    let n_panels = kk.div_ceil(KP);
    (n_panels, n_panels.div_ceil(64))
}

/// Scans `A` into per-row panel masks. Returns `(skipped, zeros)`: how
/// many operand words the masked panels elide, and how many words are
/// exactly zero (the dispatch layer's density measurement — scattered
/// zeros count here even when no whole panel is maskable). Both are pure
/// functions of `A` and its shape, so the derived telemetry and the
/// dispatch decision are identical for every thread count and SIMD level.
fn build_masks<T: Num>(a: &[T], m: usize, kk: usize, masks: &mut Vec<u64>) -> (u64, u64) {
    let (n_panels, words_per_row) = mask_geometry(kk);
    masks.clear();
    masks.resize(m * words_per_row, 0);
    let mut skipped = 0u64;
    let mut zeros = 0u64;
    for i in 0..m {
        let row = &a[i * kk..(i + 1) * kk];
        let mrow = &mut masks[i * words_per_row..(i + 1) * words_per_row];
        for p in 0..n_panels {
            let k0 = p * KP;
            let k1 = (k0 + KP).min(kk);
            let zc = row[k0..k1].iter().filter(|v| v.is_zero()).count();
            zeros += zc as u64;
            if zc == k1 - k0 {
                mrow[p / 64] |= 1u64 << (p % 64);
                skipped += (k1 - k0) as u64;
            }
        }
    }
    (skipped, zeros)
}

#[inline]
pub(crate) fn mask_hit(masks_row: &[u64], panel: usize) -> bool {
    masks_row[panel / 64] & (1u64 << (panel % 64)) != 0
}

/// Packs `B` (`kk × n`, row-major) into `NR`-wide column panels,
/// `[panel][k][lane]`, zero-padding the tail panel so the kernels always
/// run full width. Panels are disjoint runs of `out`, so they are packed
/// in `pieces` ranges (one per row chunk of the GEMM, see
/// [`pack_for_plan`]) — the same bytes either way.
fn pack_b<T: Copy + Default + Send + Sync, const NR: usize>(
    b: &[T],
    kk: usize,
    n: usize,
    pieces: usize,
    out: &mut LineAligned<T>,
) {
    let n_jp = n.div_ceil(NR);
    // Resize without a clear: every full lane is overwritten below and only
    // the tail panel's padding needs explicit zeros, so the buffer is never
    // bulk-zeroed first (that pre-pass used to double the write traffic).
    let out = out.resize(n_jp * kk * NR);
    if out.is_empty() {
        return;
    }
    let panels_per = n_jp.div_ceil(pieces);
    for_chunks(out, panels_per * kk * NR, |c, range| {
        pack_panels::<T, NR>(b, kk, n, c * panels_per, range)
    });
}

/// Packs the consecutive panels `range` holds, the first being panel `jp0`.
fn pack_panels<T: Copy + Default, const NR: usize>(
    b: &[T],
    kk: usize,
    n: usize,
    jp0: usize,
    range: &mut [T],
) {
    for (p, panel) in range.chunks_exact_mut(kk * NR).enumerate() {
        let j0 = (jp0 + p) * NR;
        let w = (n - j0).min(NR);
        if w == NR {
            // Full-width panels are the hot path: a compile-time-sized
            // array copy per `k` row compiles to straight vector moves
            // instead of a runtime-length memcpy call.
            for k in 0..kk {
                let dst: &mut [T; NR] = (&mut panel[k * NR..(k + 1) * NR])
                    .try_into()
                    .expect("chunk is exactly NR wide");
                let src: &[T; NR] = b[k * n + j0..k * n + j0 + NR]
                    .try_into()
                    .expect("chunk is exactly NR wide");
                *dst = *src;
            }
        } else {
            for k in 0..kk {
                let dst = &mut panel[k * NR..(k + 1) * NR];
                dst[..w].copy_from_slice(&b[k * n + j0..k * n + j0 + w]);
                dst[w..].fill(T::default());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// f32 kernels
// ---------------------------------------------------------------------------

/// How a packed GEMM's product meets the memory it is written to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Epilogue {
    /// The product overwrites the output (no pre-zeroing required).
    Store,
    /// The product is **added** to what the output already holds:
    /// `out[i] = out[i] + product[i]`, once element `i`'s `k`-ascending
    /// chain is complete — bit for bit what storing the product and adding
    /// it in a second pass computes (the chain never starts from `out[i]`,
    /// and an `f32` register↔memory round trip is exact), minus that pass.
    /// Only [`epilogue_accumulates`] shapes can be served.
    Accumulate,
}

/// Whether the packed engine can serve [`Epilogue::Accumulate`] for this
/// GEMM: the f32 tile kernel, with the whole `k` chain inside one [`KC`]
/// chunk — between chunks the partial chain lives in the output, which is
/// exactly where the accumulator's old value would have to survive. Callers
/// run every other shape into scratch and add it in one pass.
pub fn epilogue_accumulates(kind: PackedKind, path: GemmPath, kk: usize) -> bool {
    kind == PackedKind::F32 && path == GemmPath::Packed && kk <= KC
}

/// What one f32 tile does with the output elements it covers.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TileOut {
    /// First `k`-chunk: the chain starts from zero, the tile overwrites.
    Overwrite,
    /// Later `k`-chunk: the chain resumes from the value in the output.
    Resume,
    /// The only `k`-chunk of an [`Epilogue::Accumulate`] GEMM: the chain
    /// starts from zero and its end is added to the output.
    AddTo,
}

/// One f32 register-tile task: up to [`MR_F32`] consecutive rows of `A`
/// against the `klen`-deep chunks of one packed `B` panel, or of two
/// adjacent ones; `out` says how the chain starts and where it ends.
///
/// `a_rows`, `masks` and the output slice all cover the same row range
/// (`i0` is relative to it); `kc0`/`klen` select the `k`-chunk and
/// `panel0` is the absolute mask-panel index of its first (KP-aligned)
/// panel. `bchunks[p]` holds rows `kc0..kc0 + klen` of column panel
/// `j0 / NR_F32 + p`, [`NR_F32`] words a row; `bchunks[1]` is empty for a
/// one-panel tile. `w` counts the live output columns from `j0`.
struct F32Tile<'a> {
    a_rows: &'a [f32],
    masks: &'a [u64],
    bchunks: [&'a [f32]; 2],
    kk: usize,
    wpr: usize,
    i0: usize,
    rows: usize,
    kc0: usize,
    klen: usize,
    panel0: usize,
    n: usize,
    j0: usize,
    w: usize,
    out: TileOut,
}

/// Portable f32 tile kernel: per output element a single `mul_add` chain
/// over `k` ascending (resumed from the output across chunks), panels
/// masked in every tile row and zero `A` words skipped (all bit-neutral —
/// see the module docs). The row grouping cannot change bits either: each
/// element's chain never crosses rows.
fn f32_tile_scalar(t: &F32Tile, out_rows: &mut [f32]) {
    let mut acc = [[0.0f32; NR_F32]; MR_F32];
    if t.out == TileOut::Resume {
        for (r, acc_r) in acc.iter_mut().enumerate().take(t.rows) {
            let o = &out_rows[(t.i0 + r) * t.n + t.j0..][..t.w];
            acc_r[..t.w].copy_from_slice(o);
        }
    }
    let n_panels = t.klen.div_ceil(KP);
    for p in 0..n_panels {
        let live = (0..t.rows).any(|r| !mask_hit(&t.masks[(t.i0 + r) * t.wpr..], t.panel0 + p));
        if !live {
            continue;
        }
        let k0 = p * KP;
        let k1 = (k0 + KP).min(t.klen);
        for k in k0..k1 {
            let b_row = &t.bchunks[0][k * NR_F32..k * NR_F32 + t.w];
            for (r, acc_r) in acc.iter_mut().enumerate().take(t.rows) {
                let av = t.a_rows[(t.i0 + r) * t.kk + t.kc0 + k];
                if av == 0.0 {
                    continue;
                }
                for (acc_v, &bv) in acc_r[..t.w].iter_mut().zip(b_row) {
                    *acc_v = <f32 as Num>::fused_mul_add(*acc_v, av, bv);
                }
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate().take(t.rows) {
        let o = &mut out_rows[(t.i0 + r) * t.n + t.j0..][..t.w];
        if t.out == TileOut::AddTo {
            for (ov, &v) in o.iter_mut().zip(&acc_r[..t.w]) {
                *ov += v;
            }
        } else {
            o.copy_from_slice(&acc_r[..t.w]);
        }
    }
}

/// The SIMD f32 tile, one body per vector width: `$entry` is the level's
/// [`F32TileFn`], `$body::<R, NV>` the `R`-row tile with `NV` vectors of
/// `$lanes` lanes per row — two, or `[$single]` where that many span a
/// tile's only panel (`[]`: never). Every `k`-step loads the `NV` `B`
/// vectors once and feeds `R` broadcast `vfmadd`s each — `NV·R`
/// independent chains, `k` ascending. The levels differ only in where
/// vector `j` of a row loads from: tile column `j·$lanes` is lane
/// `j·$lanes mod NR_F32` of panel chunk `j·$lanes / NR_F32` (AVX2: both
/// halves of one panel; AVX-512: one panel each). Lane-for-lane the same
/// operation sequence as [`f32_tile_scalar`] minus its (bit-neutral)
/// per-element zero skip: a row whose word is zero contributes
/// `fma(0, b, acc) = acc` exactly. The [`TileOut::AddTo`] epilogue is one
/// `vaddps(out, chain)` per vector — the scalar tile's `out + chain`,
/// operand order included.
///
/// # Safety (both functions)
///
/// Caller must have verified `$feat`. Everything else is checked here:
/// the tile's rows, `A` chunk and output strip are sliced (bounds-checked)
/// before any pointer is taken from them, and every `B` chunk a vector
/// reads is asserted to hold [`NR_F32`] words at each of the `klen` rows
/// (every `k`-step loads full width regardless of `t.w`; packed panels pad
/// their tails).
#[cfg(target_arch = "x86_64")]
macro_rules! f32_simd_tile {
    ($entry:ident, $body:ident, $feat:literal, $lanes:literal, [$($single:literal)?],
     $zero:ident, $load:ident, $splat:ident, $fma:ident, $add:ident, $store:ident) => {
        #[target_feature(enable = $feat)]
        unsafe fn $entry(t: &F32Tile, out_rows: &mut [f32]) {
            macro_rules! by_rows {
                ($nv:literal) => {
                    match t.rows {
                        6 => $body::<6, $nv>(t, out_rows),
                        5 => $body::<5, $nv>(t, out_rows),
                        4 => $body::<4, $nv>(t, out_rows),
                        3 => $body::<3, $nv>(t, out_rows),
                        2 => $body::<2, $nv>(t, out_rows),
                        _ => $body::<1, $nv>(t, out_rows),
                    }
                };
            }
            // Where `$single` vectors already span a panel, a tile with
            // only one takes them; two vectors per row otherwise.
            $(if t.bchunks[1].is_empty() {
                return by_rows!($single);
            })?
            by_rows!(2)
        }

        #[target_feature(enable = $feat)]
        unsafe fn $body<const R: usize, const NV: usize>(t: &F32Tile, out_rows: &mut [f32]) {
            use std::arch::x86_64::*;
            const L: usize = $lanes;
            // A row spans at most the two chunks; no vector straddles them.
            const { assert!(NV * L <= 2 * NR_F32 && NR_F32 % L == 0) };
            assert!(R <= t.rows && t.w <= NV * L, "tile shape");
            let out_at = |r: usize| (t.i0 + r) * t.n + t.j0;
            // Vector `j`'s column of `B`: `NR_F32 - L` words into its
            // chunk at most, so a full-width load at row `k < klen` ends
            // inside the `klen · NR_F32` words asserted here (`min`: the
            // empty chunk of a `klen = 0` tile has no such offset).
            let mut bcol = [std::ptr::null::<f32>(); NV];
            for (j, col) in bcol.iter_mut().enumerate() {
                let chunk = t.bchunks[j * L / NR_F32];
                assert!(
                    chunk.len() >= t.klen * NR_F32,
                    "B chunk shorter than the tile's k range"
                );
                *col = chunk[(j * L % NR_F32).min(chunk.len())..].as_ptr();
            }
            let mut acc = [[$zero(); NV]; R];
            if t.out == TileOut::Resume {
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let mut lanes = [0.0f32; 2 * NR_F32];
                    lanes[..t.w].copy_from_slice(&out_rows[out_at(r)..][..t.w]);
                    for (j, v) in acc_r.iter_mut().enumerate() {
                        // SAFETY: `lanes` holds `2·NR_F32 >= NV·L` floats
                        // (const-asserted): vector `j` loads inside it.
                        *v = $load(lanes.as_ptr().add(j * L));
                    }
                }
            }
            // Hoist the per-row `A` chunk base pointers and mask-row slices
            // out of the k loop. Each pointer comes from a slice of exactly
            // `klen` words. (Plain loops, here and for `bcol`: a closure in
            // a `target_feature` function is a real call from the
            // feature-less `array::from_fn`, once per element per tile.)
            let (mut arow, mut mrow) = ([std::ptr::null::<f32>(); R], [&t.masks[..0]; R]);
            for (r, (ar, mr)) in arow.iter_mut().zip(&mut mrow).enumerate() {
                *ar = t.a_rows[(t.i0 + r) * t.kk + t.kc0..][..t.klen].as_ptr();
                *mr = &t.masks[(t.i0 + r) * t.wpr..];
            }
            for p in 0..t.klen.div_ceil(KP) {
                let mut all_masked = true;
                for mr in &mrow {
                    all_masked &= mask_hit(mr, t.panel0 + p);
                }
                if all_masked {
                    continue;
                }
                let k0 = p * KP;
                for k in k0..(k0 + KP).min(t.klen) {
                    let mut bv = [$zero(); NV];
                    for (v, col) in bv.iter_mut().zip(bcol) {
                        // SAFETY: `k < klen`, so `col + k·NR_F32` has `L`
                        // readable words (see `bcol`).
                        *v = $load(col.add(k * NR_F32));
                    }
                    for (r, acc_r) in acc.iter_mut().enumerate() {
                        // SAFETY: `arow[r]` points at `klen` words, `k < klen`.
                        let av = $splat(*arow[r].add(k));
                        for (a, &b) in acc_r.iter_mut().zip(&bv) {
                            *a = $fma(av, b, *a);
                        }
                    }
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                let o = &mut out_rows[out_at(r)..][..t.w];
                for (j, &chain) in acc_r.iter().enumerate() {
                    let lo = (j * L).min(t.w);
                    if let Some(full) = o.get_mut(lo..lo + L) {
                        let mut v = chain;
                        // SAFETY: `full` is exactly `L` floats: one load
                        // and one store stay inside it.
                        if t.out == TileOut::AddTo {
                            v = $add($load(full.as_ptr()), v);
                        }
                        $store(full.as_mut_ptr(), v);
                    } else {
                        // The ragged tail vector (or one wholly past `w`).
                        let mut lanes = [0.0f32; L];
                        // SAFETY: `lanes` is `L` floats: one vector store.
                        $store(lanes.as_mut_ptr(), chain);
                        for (ov, &v) in o[lo..].iter_mut().zip(&lanes) {
                            *ov = if t.out == TileOut::AddTo { *ov + v } else { v };
                        }
                    }
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
f32_simd_tile!(
    f32_tile_avx2,
    f32_tile_avx2_rows,
    "avx2,fma",
    8,
    [],
    _mm256_setzero_ps,
    _mm256_loadu_ps,
    _mm256_set1_ps,
    _mm256_fmadd_ps,
    _mm256_add_ps,
    _mm256_storeu_ps
);
#[cfg(target_arch = "x86_64")]
f32_simd_tile!(
    f32_tile_avx512,
    f32_tile_avx512_rows,
    "avx512f",
    16,
    [1],
    _mm512_setzero_ps,
    _mm512_loadu_ps,
    _mm512_set1_ps,
    _mm512_fmadd_ps,
    _mm512_add_ps,
    _mm512_storeu_ps
);

/// Row-block height for the cache loop when a `k`-chunk of packed `B` is
/// too large to stay cache-resident: inside the chunk, [`MC`] rows of `A`
/// (≤ `MC × KC × 4 B` = 144 KB, L2-resident) are run against every column
/// panel before the next block, so neither operand re-streams from memory
/// as `m` grows.
pub const MC: usize = 72;

/// A `k`-chunk of packed `B` at most this large counts as cache-resident
/// (half of a 2 MiB L2, leaving room for the `A` rows and the output).
const B_CHUNK_RESIDENT_BYTES: usize = 1 << 20;

/// The packed engines' loop nest: [`KC`] `k`-chunks → row blocks → column
/// panels → `tile_rows`-row tiles, calling `tile(kc0, kc1, jp, i0, rows)`.
///
/// The row block is picked per chunk from the operand footprint. While the
/// chunk's packed `B` (`klen × n_panels` panel rows of `panel_row_bytes`)
/// is cache-resident, the block is one [`MR_F32`]-row register tile walked
/// across *all* column panels: the output is written as 6 sequential row
/// streams and each `A` tile is read once, which is what a short-`k`,
/// wide-`n` product (the deep `W-CONV`s: `512×16×6400`) needs — under the
/// [`MC`] block it wrote 72 streams a whole output row apart and ran at a
/// quarter of the engine's speed. A larger chunk keeps the [`MC`] block, so
/// each panel chunk (L1-sized) is reused by twelve tiles before the next
/// one streams in. Like all blocking here the choice is bit-neutral: the
/// order over (row, column panel) never touches a per-element chain.
fn for_each_tile(
    (m, kk, n_panels): (usize, usize, usize),
    panel_row_bytes: usize,
    tile_rows: usize,
    mut tile: impl FnMut(usize, usize, usize, usize, usize),
) {
    let mut kc0 = 0;
    while kc0 < kk {
        let kc1 = (kc0 + KC).min(kk);
        let resident = (kc1 - kc0) * n_panels * panel_row_bytes <= B_CHUNK_RESIDENT_BYTES;
        let row_block = if resident { MR_F32 } else { MC };
        let mut ib0 = 0;
        while ib0 < m {
            let ib1 = (ib0 + row_block).min(m);
            for jp in 0..n_panels {
                let mut i0 = ib0;
                while i0 < ib1 {
                    let rows = (ib1 - i0).min(tile_rows);
                    tile(kc0, kc1, jp, i0, rows);
                    i0 += rows;
                }
            }
            ib0 = ib1;
        }
        kc0 = kc1;
    }
}

/// Packed f32 GEMM over a contiguous row range: `a_rows` holds the rows'
/// `A` data, `masks` their panel masks, `packed_b` the full packed `B`.
/// Covers every element of `out_rows` — overwriting it, or adding the
/// product to it under [`Epilogue::Accumulate`] (which needs
/// [`epilogue_accumulates`]) — in `for_each_tile`'s order. Bit-identical
/// for every [`SimdLevel`].
///
/// # Panics
///
/// Panics if the operand lengths disagree with `(kk, n)`, or if the
/// accumulate epilogue is asked of a `kk` that spans several chunks.
#[allow(clippy::too_many_arguments)]
fn f32_rows(
    level: SimdLevel,
    a_rows: &[f32],
    masks: &[u64],
    packed_b: &[f32],
    out_rows: &mut [f32],
    kk: usize,
    n: usize,
    epilogue: Epilogue,
) {
    let m = a_rows.len().checked_div(kk).unwrap_or(0);
    let (_, wpr) = mask_geometry(kk);
    let n_jp = n.div_ceil(NR_F32);
    // The tile kernels index through raw pointers derived from these
    // lengths, so they are checked here, once per call, in release too.
    assert!(
        a_rows.len() == m * kk
            && out_rows.len() == m * n
            && masks.len() >= m * wpr
            && packed_b.len() >= n_jp * kk * NR_F32,
        "packed f32 operands disagree with {m}×{kk}×{n}"
    );
    assert!(
        epilogue == Epilogue::Store || kk <= KC,
        "the accumulate epilogue needs the whole chain in one k-chunk"
    );
    let (kernel, pairs) = f32_tile_for(level);
    let chunk_of = |jp: usize, kc0: usize, kc1: usize| {
        let base = jp * kk * NR_F32;
        &packed_b[base + kc0 * NR_F32..base + kc1 * NR_F32]
    };
    for_each_tile(
        (m, kk, n_jp),
        NR_F32 * std::mem::size_of::<f32>(),
        MR_F32,
        |kc0, kc1, jp, i0, rows| {
            // A pair tile starts at every even panel and takes the odd one
            // behind it along; an odd last panel runs alone.
            if pairs && jp % 2 == 1 {
                return;
            }
            let j0 = jp * NR_F32;
            let paired = pairs && jp + 1 < n_jp;
            let tile = F32Tile {
                a_rows,
                masks,
                bchunks: [
                    chunk_of(jp, kc0, kc1),
                    if paired {
                        chunk_of(jp + 1, kc0, kc1)
                    } else {
                        &[]
                    },
                ],
                kk,
                wpr,
                i0,
                rows,
                kc0,
                klen: kc1 - kc0,
                panel0: kc0 / KP,
                n,
                j0,
                w: (n - j0).min(if paired { 2 * NR_F32 } else { NR_F32 }),
                out: match epilogue {
                    Epilogue::Accumulate => TileOut::AddTo,
                    Epilogue::Store if kc0 > 0 => TileOut::Resume,
                    Epilogue::Store => TileOut::Overwrite,
                },
            };
            // SAFETY: `f32_tile_for` only returns a feature-gated kernel
            // for a SIMD level, which is only selected (or handed to tests
            // by `SimdLevel::supported`) after `detect_level` verified its
            // features.
            unsafe { kernel(&tile, out_rows) };
        },
    );
}

/// Portable f32 axpy: `out[j] = fma(av, b[j], out[j])` — the same
/// correctly-rounded operation as one `vfmadd` lane of the AVX2 ikj tile,
/// so both levels are bit-identical.
fn f32_axpy_scalar(av: f32, b_row: &[f32], out_row: &mut [f32]) {
    for (o, &bv) in out_row.iter_mut().zip(b_row) {
        *o = <f32 as Num>::fused_mul_add(*o, av, bv);
    }
}

/// Broadcast-FMA `ikj`-chain f32 GEMM over a contiguous row range, on
/// **unpacked** `B` (row-major, `kk × n`). Zero the output, then walk `k`
/// outermost: each live `A` word contributes one axpy of its `B` row —
/// exactly the packed kernel's per-element fused chain over `k` ascending
/// (the loop interchange reorders only *between* output elements, never
/// within one element's chain; bit-neutral, see the module docs), with
/// the accumulator round-tripping through `out` between `k` steps
/// (exact). Zero words skip element-wise, and a `B` row whose `A` column
/// is entirely zero is never read at all. `k` outermost means `B` is
/// streamed **sequentially, exactly once** — on the stride-49 projection
/// shape the i-outer order re-walks `B` in page-sized jumps and is
/// memory-latency-bound instead. The `k` loop is additionally tiled by
/// [`IKJ_KB`] (one f32 cache line) with the row loop inside the tile, so
/// each `A` line is loaded once and serves all [`IKJ_KB`] of its `k`
/// values instead of missing per element on large-`kk` column walks, and
/// the per-row [`KP`]-panel masks from the dispatch scan skip dead `A`
/// panels without touching `A` at all — on a ~2%-dense projection matrix
/// most of `A` is never re-read after the scan. Every output element
/// still sees its contributions over `k` ascending (tile-outer,
/// row-middle, `k`-inner), so the interchange stays bit-neutral.
/// Bit-identical for every [`SimdLevel`].
fn f32_ikj_rows(
    level: SimdLevel,
    a_rows: &[f32],
    masks: &[u64],
    b: &[f32],
    out_rows: &mut [f32],
    kk: usize,
    n: usize,
) {
    let m = a_rows.len().checked_div(kk).unwrap_or(0);
    let (_, wpr) = mask_geometry(kk);
    debug_assert_eq!(out_rows.len(), m * n);
    debug_assert_eq!(b.len(), kk * n);
    debug_assert_eq!(masks.len(), m * wpr);
    out_rows.fill(0.0);
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a level from `Avx2Fma` up is only selected after
        // `detect_level` verified avx2+fma (see `f32_rows`); lengths were
        // just asserted.
        l if l >= SimdLevel::Avx2Fma => unsafe {
            f32_ikj_rows_avx2(a_rows, masks, wpr, b, out_rows, m, kk, n)
        },
        _ => {
            for kb in (0..kk).step_by(IKJ_KB) {
                let kend = (kb + IKJ_KB).min(kk);
                f32_ikj_tile_scalar(
                    a_rows,
                    masks,
                    wpr,
                    &b[kb * n..kend * n],
                    out_rows,
                    m,
                    kk,
                    n,
                    kb,
                    kend,
                );
            }
        }
    }
}

/// One `k`-tile of [`f32_ikj_rows`]'s portable nest: `btile` holds rows
/// `kb..kend` of the (possibly virtual) `B` operand, row `k` at offset
/// `(k − kb)·n` — the streamed-lowering driver points this at its
/// on-demand row buffer. Accumulates into `out_rows` without zeroing;
/// callers zero once before the first tile.
#[allow(clippy::too_many_arguments)]
fn f32_ikj_tile_scalar(
    a_rows: &[f32],
    masks: &[u64],
    wpr: usize,
    btile: &[f32],
    out_rows: &mut [f32],
    m: usize,
    kk: usize,
    n: usize,
    kb: usize,
    kend: usize,
) {
    for i in 0..m {
        let mrow = &masks[i * wpr..(i + 1) * wpr];
        let mut k = kb;
        while k < kend {
            let p = k / KP;
            let pend = (p * KP + KP).min(kend);
            if mask_hit(mrow, p) {
                k = pend;
                continue;
            }
            while k < pend {
                let av = a_rows[i * kk + k];
                if av != 0.0 {
                    let b_row = &btile[(k - kb) * n..(k - kb + 1) * n];
                    f32_axpy_scalar(av, b_row, &mut out_rows[i * n..(i + 1) * n]);
                }
                k += 1;
            }
        }
    }
}

/// `k`-tile width for the ikj kernels: 16 f32 / 32 `Fx` words — one
/// 64-byte cache line of `A` per row per tile for f32, and a whole number
/// of [`KP`]-panels so mask skips never straddle a tile. Shared with the
/// streamed-lowering driver (`gemm::broadcast_streamed`) so its on-demand
/// `B` row buffer covers exactly one tile.
pub(crate) const IKJ_KB: usize = 16;

/// The fused AVX2/FMA form of [`f32_ikj_rows`]'s loop nest: the axpy
/// body inlined into the tiled `k`/`i` walk, so the hot path pays no
/// per-live-element indirect call or slice construction. Same operations
/// in the same order as the scalar nest — bit-identical.
///
/// # Safety
///
/// Caller must have verified `avx2` and `fma` are available, and that
/// `a_rows.len() == m·kk`, `b.len() == kk·n`, `out_rows.len() == m·n`,
/// `masks.len() == m·wpr` with `wpr = mask_geometry(kk).1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn f32_ikj_rows_avx2(
    a_rows: &[f32],
    masks: &[u64],
    wpr: usize,
    b: &[f32],
    out_rows: &mut [f32],
    m: usize,
    kk: usize,
    n: usize,
) {
    let mut kb = 0;
    while kb < kk {
        let kend = (kb + IKJ_KB).min(kk);
        f32_ikj_tile_avx2(
            a_rows,
            masks,
            wpr,
            &b[kb * n..kend * n],
            out_rows,
            m,
            kk,
            n,
            kb,
            kend,
        );
        kb = kend;
    }
}

/// The fused AVX2/FMA form of [`f32_ikj_tile_scalar`]: one `k`-tile over
/// `btile` (row `k` at offset `(k − kb)·n`), the axpy body inlined so the
/// hot path pays no per-live-element indirect call or slice construction.
/// Same operations in the same order as the scalar tile — bit-identical.
/// Accumulates; callers zero `out_rows` once before the first tile.
///
/// # Safety
///
/// Caller must have verified `avx2` and `fma` are available, and that
/// `a_rows.len() == m·kk`, `btile.len() == (kend − kb)·n`,
/// `out_rows.len() == m·n`, `masks.len() == m·wpr` with
/// `wpr = mask_geometry(kk).1`, `kb ≤ kend ≤ kk`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn f32_ikj_tile_avx2(
    a_rows: &[f32],
    masks: &[u64],
    wpr: usize,
    btile: &[f32],
    out_rows: &mut [f32],
    m: usize,
    kk: usize,
    n: usize,
    kb: usize,
    kend: usize,
) {
    use std::arch::x86_64::*;
    let ap = a_rows.as_ptr();
    let op0 = out_rows.as_mut_ptr();
    for i in 0..m {
        let mrow = &masks[i * wpr..(i + 1) * wpr];
        let arow = ap.add(i * kk);
        let op = op0.add(i * n);
        // Liveness-aware prefetch: live `A` panels land scattered (the
        // column-order walk defeats the hardware prefetcher), so pull
        // the *next* tile's line for this row now — but only when its
        // panels are live; prefetching dead lines would re-create the
        // traffic the mask skip exists to avoid.
        if kend < kk {
            let pn = kend / KP;
            if !mask_hit(mrow, pn)
                || (pn + 1 < wpr * 64 && (pn + 1) * KP < kk && !mask_hit(mrow, pn + 1))
            {
                _mm_prefetch(arow.add(kend) as *const i8, _MM_HINT_T0);
            }
        }
        let mut k = kb;
        while k < kend {
            let p = k / KP;
            let pend = (p * KP + KP).min(kend);
            if mask_hit(mrow, p) {
                k = pend;
                continue;
            }
            while k < pend {
                let av = *arow.add(k);
                k += 1;
                if av == 0.0 {
                    continue;
                }
                let bp = btile.as_ptr().add((k - 1 - kb) * n);
                let avv = _mm256_set1_ps(av);
                let mut j = 0;
                while j + 8 <= n {
                    let bv = _mm256_loadu_ps(bp.add(j));
                    let o = _mm256_loadu_ps(op.add(j));
                    _mm256_storeu_ps(op.add(j), _mm256_fmadd_ps(avv, bv, o));
                    j += 8;
                }
                while j < n {
                    *op.add(j) = av.mul_add(*bp.add(j), *op.add(j));
                    j += 1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Q8.8 kernels
// ---------------------------------------------------------------------------

const FX_HALF: i32 = 1 << (FRAC_BITS - 1);
const FX_MAX: i32 = i16::MAX as i32;
const FX_MIN: i32 = i16::MIN as i32;

#[inline]
fn fx_clamp(v: i32) -> i32 {
    v.clamp(FX_MIN, FX_MAX)
}

/// One scalar Q8.8 term + saturating accumulate — exactly [`Fx`]'s
/// `Mul` (widen, round to nearest with ties toward +∞, saturate) followed
/// by [`Fx`]'s saturating `Add`.
#[inline]
fn fx_mac(acc: i32, a: i16, b: i16) -> i32 {
    let term = fx_clamp((i32::from(a) * i32::from(b) + FX_HALF) >> FRAC_BITS);
    fx_clamp(acc + term)
}

/// Portable Q8.8 row kernel over one `k`-chunk of one packed column
/// panel, bit-identical to a `k`-ascending chain of scalar [`Fx`]
/// multiply–adds (resumed from `out` across chunks — exact, because the
/// saturated accumulator always fits `i16`).
#[allow(clippy::too_many_arguments)]
fn fx_row_panel_scalar(
    a_chunk: &[i16],
    masks_row: &[u64],
    panel0: usize,
    bchunk: &[i16],
    out: &mut [i16],
    w: usize,
    accumulate: bool,
) {
    let klen = a_chunk.len();
    let mut acc = [0i32; NR_FX];
    if accumulate {
        for (t, &o) in acc[..w].iter_mut().zip(&out[..w]) {
            *t = i32::from(o);
        }
    }
    let n_panels = klen.div_ceil(KP);
    for p in 0..n_panels {
        if mask_hit(masks_row, panel0 + p) {
            continue;
        }
        let k0 = p * KP;
        let k1 = (k0 + KP).min(klen);
        for k in k0..k1 {
            let av = a_chunk[k];
            if av == 0 {
                // A zero operand's term is (0 + half) >> 8 = 0, and a
                // saturating add of 0 is the identity: the skip is exact.
                continue;
            }
            let b_row = &bchunk[k * NR_FX..k * NR_FX + w];
            for (t, &bv) in acc[..w].iter_mut().zip(b_row) {
                *t = fx_mac(*t, av, bv);
            }
        }
    }
    for (o, &v) in out[..w].iter_mut().zip(&acc[..w]) {
        *o = v as i16;
    }
}

/// AVX2 Q8.8 row kernel: 16 `i16` lanes per vector, 2 saturating
/// accumulator vectors. Each lane performs exactly the scalar [`Fx`]
/// operation chain, with the i16-native instruction mix:
///
/// * `vpmullw`/`vpmulhw` + interleave reconstruct the exact widened
///   `i32` products (16 at a time, no slow `vpmulld`),
/// * add-half + `vpsrad` is [`Fx`]'s round-to-nearest (ties toward +∞),
/// * `vpackssdw` narrows with **saturation** — exactly the `Mul` clamp —
///   and restores lane order (unpack lo/hi then pack is order-preserving
///   within each 128-bit half),
/// * `vpaddsw` is exactly [`Fx`]'s saturating `Add`, so the accumulator
///   itself stays in i16 lanes (resuming from `out` across `k`-chunks is
///   a plain load).
///
/// # Safety
///
/// Caller must have verified `avx2` is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn fx_row_panel_avx2(
    a_chunk: &[i16],
    masks_row: &[u64],
    panel0: usize,
    bchunk: &[i16],
    out: &mut [i16],
    w: usize,
    accumulate: bool,
) {
    use std::arch::x86_64::*;
    let klen = a_chunk.len();
    let half = _mm256_set1_epi32(FX_HALF);
    let mut acc = [_mm256_setzero_si256(); NR_FX / 16];
    if accumulate {
        if w == NR_FX {
            for (v, a) in acc.iter_mut().enumerate() {
                *a = _mm256_loadu_si256(out.as_ptr().add(v * 16) as *const __m256i);
            }
        } else {
            let mut tmp = [0i16; NR_FX];
            tmp[..w].copy_from_slice(&out[..w]);
            for (v, a) in acc.iter_mut().enumerate() {
                *a = _mm256_loadu_si256(tmp.as_ptr().add(v * 16) as *const __m256i);
            }
        }
    }
    let n_panels = klen.div_ceil(KP);
    for p in 0..n_panels {
        if mask_hit(masks_row, panel0 + p) {
            continue;
        }
        let k0 = p * KP;
        let k1 = (k0 + KP).min(klen);
        for k in k0..k1 {
            // No per-element zero skip here (unlike the scalar kernel):
            // a zero word's term is exactly 0 either way, and a
            // data-dependent branch per `k` costs more in mispredictions
            // than the saved arithmetic on the vector path. Structural
            // zeros are handled at panel granularity by the masks.
            let av = _mm256_set1_epi16(*a_chunk.get_unchecked(k));
            let base = bchunk.as_ptr().add(k * NR_FX);
            for (v, a) in acc.iter_mut().enumerate() {
                let bv = _mm256_loadu_si256(base.add(v * 16) as *const __m256i);
                let lo = _mm256_mullo_epi16(av, bv);
                let hi = _mm256_mulhi_epi16(av, bv);
                // Exact i32 products: lanes 0–3/8–11 and 4–7/12–15.
                let p0 = _mm256_unpacklo_epi16(lo, hi);
                let p1 = _mm256_unpackhi_epi16(lo, hi);
                let t0 = _mm256_srai_epi32::<{ FRAC_BITS as i32 }>(_mm256_add_epi32(p0, half));
                let t1 = _mm256_srai_epi32::<{ FRAC_BITS as i32 }>(_mm256_add_epi32(p1, half));
                let term = _mm256_packs_epi32(t0, t1);
                *a = _mm256_adds_epi16(*a, term);
            }
        }
    }
    if w == NR_FX {
        for (v, a) in acc.iter().enumerate() {
            _mm256_storeu_si256(out.as_mut_ptr().add(v * 16) as *mut __m256i, *a);
        }
    } else {
        let mut tmp = [0i16; NR_FX];
        for (v, a) in acc.iter().enumerate() {
            _mm256_storeu_si256(tmp.as_mut_ptr().add(v * 16) as *mut __m256i, *a);
        }
        out[..w].copy_from_slice(&tmp[..w]);
    }
}

/// Packed Q8.8 GEMM over a contiguous row range (raw-`i16` views of
/// [`Fx`] data), in the same `for_each_tile` order as [`f32_rows`] with
/// one-row tiles. Writes every element of `out_rows`. Bit-identical to
/// scalar [`Fx`] semantics for every [`SimdLevel`].
fn fx_rows(
    level: SimdLevel,
    a_rows: &[i16],
    masks: &[u64],
    packed_b: &[i16],
    out_rows: &mut [i16],
    kk: usize,
    n: usize,
) {
    let m = a_rows.len().checked_div(kk).unwrap_or(0);
    debug_assert_eq!(out_rows.len(), m * n);
    let (_, words_per_row) = mask_geometry(kk);
    let kernel = fx_panel_for(level);
    for_each_tile(
        (m, kk, n.div_ceil(NR_FX)),
        NR_FX * std::mem::size_of::<i16>(),
        1,
        |kc0, kc1, jp, i, _| {
            let j0 = jp * NR_FX;
            let w = (n - j0).min(NR_FX);
            let base = jp * kk * NR_FX;
            let bchunk = &packed_b[base + kc0 * NR_FX..base + kc1 * NR_FX];
            let a_chunk = &a_rows[i * kk + kc0..i * kk + kc1];
            let masks_row = &masks[i * words_per_row..(i + 1) * words_per_row];
            let out = &mut out_rows[i * n + j0..i * n + j0 + w];
            // SAFETY: as in `f32_rows` — feature-gated kernels are only
            // resolved for levels whose features were detected; every
            // operand is a bounds-checked slice of its chunk.
            unsafe { kernel(a_chunk, masks_row, kc0 / KP, bchunk, out, w, kc0 > 0) };
        },
    );
}

/// Q8.8 axpy signature (raw `i16`): `out_row = sat(out_row + round(av ·
/// b_row))` per element — one scalar [`Fx`] multiply–add step.
type FxAxpyFn = unsafe fn(i16, &[i16], &mut [i16]);

fn fx_axpy_for(level: SimdLevel) -> FxAxpyFn {
    match level {
        #[cfg(target_arch = "x86_64")]
        l if l >= SimdLevel::Avx2Fma => fx_axpy_avx2,
        _ => fx_axpy_scalar,
    }
}

/// Portable Q8.8 axpy: one [`fx_mac`] per element, the accumulator
/// saturated back into `i16` each step (so resuming from memory between
/// `k` steps is exact — the same argument as the packed kernel's chunk
/// round trips).
fn fx_axpy_scalar(av: i16, b_row: &[i16], out_row: &mut [i16]) {
    for (o, &bv) in out_row.iter_mut().zip(b_row) {
        *o = fx_mac(i32::from(*o), av, bv) as i16;
    }
}

/// AVX2 Q8.8 axpy: the identical instruction mix as [`fx_row_panel_avx2`]
/// — `vpmullw`/`vpmulhw` exact widened products, add-half + `vpsrad`
/// rounding, `vpackssdw` saturating narrow, `vpaddsw` saturating
/// accumulate — applied to one unpacked `B` row, with an [`fx_mac`]
/// scalar tail (the same operation per lane).
///
/// # Safety
///
/// Caller must have verified `avx2` is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fx_axpy_avx2(av: i16, b_row: &[i16], out_row: &mut [i16]) {
    use std::arch::x86_64::*;
    let n = out_row.len().min(b_row.len());
    let half = _mm256_set1_epi32(FX_HALF);
    let avv = _mm256_set1_epi16(av);
    let bp = b_row.as_ptr();
    let op = out_row.as_mut_ptr();
    let mut j = 0;
    while j + 16 <= n {
        let bv = _mm256_loadu_si256(bp.add(j) as *const __m256i);
        let acc = _mm256_loadu_si256(op.add(j) as *const __m256i);
        let lo = _mm256_mullo_epi16(avv, bv);
        let hi = _mm256_mulhi_epi16(avv, bv);
        let p0 = _mm256_unpacklo_epi16(lo, hi);
        let p1 = _mm256_unpackhi_epi16(lo, hi);
        let t0 = _mm256_srai_epi32::<{ FRAC_BITS as i32 }>(_mm256_add_epi32(p0, half));
        let t1 = _mm256_srai_epi32::<{ FRAC_BITS as i32 }>(_mm256_add_epi32(p1, half));
        let term = _mm256_packs_epi32(t0, t1);
        _mm256_storeu_si256(op.add(j) as *mut __m256i, _mm256_adds_epi16(acc, term));
        j += 16;
    }
    while j < n {
        *op.add(j) = fx_mac(i32::from(*op.add(j)), av, *bp.add(j)) as i16;
        j += 1;
    }
}

/// Broadcast `ikj`-chain Q8.8 GEMM over a contiguous row range on
/// unpacked `B` (raw-`i16`, row-major `kk × n`): the non-packed
/// counterpart of [`fx_rows`], serving both the [`GemmPath::Ikj`] and
/// [`GemmPath::SmallM`] dispatch paths (byte-identity to scalar [`Fx`]
/// semantics is the only Q8.8 contract, and every order here is the same
/// `k`-ascending saturating chain per output element). `k` outermost
/// streams `B` sequentially exactly once, as in [`f32_ikj_rows`], with
/// the same [`IKJ_KB`]-tiled walk and [`KP`]-panel mask skips so dead `A`
/// panels are never re-read after the dispatch scan; zero `A` words skip
/// element-wise — exact, since a zero operand's term is exactly zero.
fn fx_ikj_rows(
    level: SimdLevel,
    a_rows: &[i16],
    masks: &[u64],
    b: &[i16],
    out_rows: &mut [i16],
    kk: usize,
    n: usize,
) {
    let m = a_rows.len().checked_div(kk).unwrap_or(0);
    let (_, wpr) = mask_geometry(kk);
    debug_assert_eq!(out_rows.len(), m * n);
    debug_assert_eq!(b.len(), kk * n);
    debug_assert_eq!(masks.len(), m * wpr);
    let axpy = fx_axpy_for(level);
    out_rows.fill(0);
    for kb in (0..kk).step_by(IKJ_KB) {
        let kend = (kb + IKJ_KB).min(kk);
        fx_ikj_tile(
            axpy,
            a_rows,
            masks,
            wpr,
            &b[kb * n..kend * n],
            out_rows,
            m,
            kk,
            n,
            kb,
            kend,
        );
    }
}

/// One `k`-tile of [`fx_ikj_rows`]'s nest over `btile` (row `k` at offset
/// `(k − kb)·n`) — the Q8.8 counterpart of [`f32_ikj_tile_scalar`],
/// applying the level-resolved axpy per live `A` word. Accumulates;
/// callers zero `out_rows` once before the first tile.
#[allow(clippy::too_many_arguments)]
fn fx_ikj_tile(
    axpy: FxAxpyFn,
    a_rows: &[i16],
    masks: &[u64],
    wpr: usize,
    btile: &[i16],
    out_rows: &mut [i16],
    m: usize,
    kk: usize,
    n: usize,
    kb: usize,
    kend: usize,
) {
    for i in 0..m {
        let mrow = &masks[i * wpr..(i + 1) * wpr];
        let mut k = kb;
        while k < kend {
            let p = k / KP;
            let pend = (p * KP + KP).min(kend);
            if mask_hit(mrow, p) {
                k = pend;
                continue;
            }
            while k < pend {
                let av = a_rows[i * kk + k];
                k += 1;
                if av == 0 {
                    continue;
                }
                let b_row = &btile[(k - 1 - kb) * n..(k - kb) * n];
                // SAFETY: feature-gated kernels are only resolved for levels
                // whose features were detected (see `fx_rows`).
                unsafe { axpy(av, b_row, &mut out_rows[i * n..(i + 1) * n]) };
            }
        }
    }
}

/// One `k`-tile of the broadcast engines for the streamed-lowering driver
/// in [`crate::gemm`]: `btile` is its on-demand row buffer holding rows
/// `kb..kend` of the virtual `B` operand (row `k` at offset `(k − kb)·n`).
/// Dispatches to the same fused/level-resolved tile kernels the in-memory
/// ikj engines run, so streaming changes *where `B` rows come from*, never
/// the per-element operation chain — bit-identity (f32) and byte-identity
/// (Q8.8) with the materialized paths follow from the tile kernels being
/// literally shared. Accumulates; zero `out` before the first tile.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ikj_tile_packed<T: Num>(
    kind: PackedKind,
    a: &[T],
    masks: &[u64],
    btile: &[T],
    out: &mut [T],
    kk: usize,
    n: usize,
    kb: usize,
    kend: usize,
) {
    let m = a.len().checked_div(kk).unwrap_or(0);
    let (_, wpr) = mask_geometry(kk);
    debug_assert_eq!(masks.len(), m * wpr);
    debug_assert_eq!(btile.len(), (kend - kb) * n);
    debug_assert_eq!(out.len(), m * n);
    match kind {
        PackedKind::F32 => {
            // SAFETY: `kind` proves `T == f32` (see `plan_gemm`).
            let (af, bf, of) = unsafe {
                (
                    std::slice::from_raw_parts(a.as_ptr() as *const f32, a.len()),
                    std::slice::from_raw_parts(btile.as_ptr() as *const f32, btile.len()),
                    std::slice::from_raw_parts_mut(out.as_mut_ptr() as *mut f32, out.len()),
                )
            };
            match simd_level() {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: a level from `Avx2Fma` up is only selected after
                // `detect_level` verified avx2+fma.
                l if l >= SimdLevel::Avx2Fma => unsafe {
                    f32_ikj_tile_avx2(af, masks, wpr, bf, of, m, kk, n, kb, kend)
                },
                _ => f32_ikj_tile_scalar(af, masks, wpr, bf, of, m, kk, n, kb, kend),
            }
        }
        PackedKind::Fx => {
            // SAFETY: `kind` proves `T == Fx`, `repr(transparent)` over i16.
            let (ai, bi, oi) = unsafe {
                (
                    std::slice::from_raw_parts(a.as_ptr() as *const i16, a.len()),
                    std::slice::from_raw_parts(btile.as_ptr() as *const i16, btile.len()),
                    std::slice::from_raw_parts_mut(out.as_mut_ptr() as *mut i16, out.len()),
                )
            };
            fx_ikj_tile(
                fx_axpy_for(simd_level()),
                ai,
                masks,
                wpr,
                bi,
                oi,
                m,
                kk,
                n,
                kb,
                kend,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Whole-matrix drivers
// ---------------------------------------------------------------------------

/// One GEMM's dispatch decision plus the zero-scan statistics it was
/// derived from — everything the caller needs to run row chunks and
/// record telemetry. `path`, `skipped` and `visited` are pure functions of
/// `A`, the shape and the forced override, so they (and the telemetry
/// recorded from them) are identical for every pool width and SIMD level;
/// `rows_per_chunk` is scheduling and is recorded nowhere.
#[derive(Debug, Clone, Copy)]
pub struct GemmPlan {
    /// The engine every row chunk of this GEMM must run.
    pub path: GemmPath,
    /// Operand words the panel masks elide (the structural-zero
    /// statistic, reported for every path).
    pub skipped: u64,
    /// Total `A` operand words (`m · kk`).
    pub visited: u64,
    /// Output rows per pool task: [`fan_out_rows`] for the packed engine,
    /// `m` (one inline chunk) for the broadcast engines, whose work is the
    /// live share of the MACs and not known from the shape.
    pub rows_per_chunk: usize,
}

impl GemmPlan {
    fn new(m: usize, kk: usize, n: usize, skipped: u64, zeros: u64) -> Self {
        let path = dispatch_path(m, kk, n, zeros);
        GemmPlan {
            path,
            skipped,
            visited: (m * kk) as u64,
            rows_per_chunk: match path {
                GemmPath::Packed => fan_out_rows(m, kk, n, zfgan_pool::pool_threads()),
                GemmPath::Ikj | GemmPath::SmallM => m,
            },
        }
    }
}

/// Scans `A` into the scratch panel masks and picks the dispatch path —
/// without touching `B` (the streamed lowering driver decides whether `B`
/// needs to be materialized at all based on the returned path). Follow
/// with [`plan_gemm`]-style packing or [`run_plan_rows`] as appropriate.
pub fn scan_gemm<T: Num>(
    a: &[T],
    m: usize,
    kk: usize,
    n: usize,
    scratch: &mut PackScratch,
) -> GemmPlan {
    let (skipped, zeros) = build_masks(a, m, kk, &mut scratch.masks);
    GemmPlan::new(m, kk, n, skipped, zeros)
}

/// Shared planning for the packed-family drivers: scans `A`, picks the
/// path and — only when the packed engine won — packs `B`. The calling
/// thread or the pool's workers then run [`run_plan_rows`] over disjoint
/// row chunks against the shared scratch.
pub fn plan_gemm<T: Num>(
    a: &[T],
    b: &[T],
    m: usize,
    kk: usize,
    n: usize,
    kind: PackedKind,
    scratch: &mut PackScratch,
) -> GemmPlan {
    let plan = scan_gemm(a, m, kk, n, scratch);
    pack_for_plan(&plan, b, (m, kk, n), kind, scratch);
    plan
}

/// [`plan_gemm`] for an `A` operand the caller knows to be dense — the
/// weight-stationary conv lowerings, whose `A` is a layer's weights: the
/// zero scan is skipped (it would be a full extra pass over a
/// multi-megabyte operand per call, to find nothing), every panel mask
/// stays clear and the dispatch keys on the shape alone. Masks are only
/// ever a licence to skip, so a clear mask is correct for any `A`.
pub fn plan_gemm_dense_a<T: Num>(
    b: &[T],
    m: usize,
    kk: usize,
    n: usize,
    kind: PackedKind,
    scratch: &mut PackScratch,
) -> GemmPlan {
    let (_, words_per_row) = mask_geometry(kk);
    scratch.masks.clear();
    scratch.masks.resize(m * words_per_row, 0);
    let plan = GemmPlan::new(m, kk, n, 0, 0);
    pack_for_plan(&plan, b, (m, kk, n), kind, scratch);
    plan
}

/// Packs `B` into the scratch panels when (and only when) `plan` runs the
/// packed engine, over as many disjoint panel ranges as the plan has row
/// chunks.
pub(crate) fn pack_for_plan<T: Num>(
    plan: &GemmPlan,
    b: &[T],
    (m, kk, n): (usize, usize, usize),
    kind: PackedKind,
    scratch: &mut PackScratch,
) {
    if plan.path == GemmPath::Packed {
        let pieces = m.div_ceil(plan.rows_per_chunk.max(1)).max(1);
        match kind {
            PackedKind::F32 => {
                // SAFETY: `kind` is only `F32` when `T == f32`
                // (TypeId-checked by `packed_kind`).
                let bf: &[f32] =
                    unsafe { std::slice::from_raw_parts(b.as_ptr() as *const f32, b.len()) };
                pack_b::<_, NR_F32>(bf, kk, n, pieces, &mut scratch.bf32);
            }
            PackedKind::Fx => {
                // SAFETY: `kind` is only `Fx` when `T == Fx`
                // (repr(transparent) over i16).
                let bi: &[i16] =
                    unsafe { std::slice::from_raw_parts(b.as_ptr() as *const i16, b.len()) };
                pack_b::<_, NR_FX>(bi, kk, n, pieces, &mut scratch.bi16);
            }
        }
    }
}

/// The one GEMM driver: runs one planned GEMM's engine at `level` over a
/// contiguous row chunk. `row0` is the absolute first row of the chunk;
/// `b` is the **unpacked** `B` (the packed path reads the panels packed
/// into `scratch` by [`plan_gemm`] instead). Production passes
/// [`simd_level`]; a test handle passes any level of
/// [`SimdLevel::supported`]. Bit-neutral under any row partition and at
/// every level: every engine's per-element chain runs along `k`, never
/// across rows.
///
/// # Panics
///
/// Panics if `epilogue` is [`Epilogue::Accumulate`] and
/// [`epilogue_accumulates`] does not hold for this plan.
#[allow(clippy::too_many_arguments)]
pub fn run_plan_rows<T: Num>(
    level: SimdLevel,
    path: GemmPath,
    a: &[T],
    b: &[T],
    scratch: &PackScratch,
    out_chunk: &mut [T],
    row0: usize,
    kk: usize,
    n: usize,
    kind: PackedKind,
    epilogue: Epilogue,
) {
    assert!(
        epilogue == Epilogue::Store || epilogue_accumulates(kind, path, kk),
        "only the packed f32 engine adds into its output"
    );
    let rows_here = out_chunk.len().checked_div(n).unwrap_or(0);
    let (_, wpr) = mask_geometry(kk);
    let masks = &scratch.masks[row0 * wpr..(row0 + rows_here) * wpr];
    match kind {
        PackedKind::F32 => {
            // SAFETY: `kind` proves `T == f32` (see `plan_gemm`), so each
            // cast reinterprets a slice as itself.
            let (af, bf, of) = unsafe {
                (
                    std::slice::from_raw_parts(a.as_ptr() as *const f32, a.len()),
                    std::slice::from_raw_parts(b.as_ptr() as *const f32, b.len()),
                    std::slice::from_raw_parts_mut(
                        out_chunk.as_mut_ptr() as *mut f32,
                        out_chunk.len(),
                    ),
                )
            };
            let a_rows = &af[row0 * kk..(row0 + rows_here) * kk];
            match path {
                GemmPath::Packed => {
                    f32_rows(
                        level,
                        a_rows,
                        masks,
                        scratch.bf32.get(),
                        of,
                        kk,
                        n,
                        epilogue,
                    );
                }
                GemmPath::Ikj | GemmPath::SmallM => {
                    f32_ikj_rows(level, a_rows, masks, bf, of, kk, n);
                }
            }
        }
        PackedKind::Fx => {
            // SAFETY: `kind` proves `T == Fx`, `repr(transparent)` over i16.
            let (ai, bi, oi) = unsafe {
                (
                    std::slice::from_raw_parts(a.as_ptr() as *const i16, a.len()),
                    std::slice::from_raw_parts(b.as_ptr() as *const i16, b.len()),
                    std::slice::from_raw_parts_mut(
                        out_chunk.as_mut_ptr() as *mut i16,
                        out_chunk.len(),
                    ),
                )
            };
            let a_rows = &ai[row0 * kk..(row0 + rows_here) * kk];
            match path {
                GemmPath::Packed => {
                    fx_rows(level, a_rows, masks, scratch.bi16.get(), oi, kk, n);
                }
                GemmPath::Ikj | GemmPath::SmallM => {
                    fx_ikj_rows(level, a_rows, masks, bi, oi, kk, n);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::im2col::Matrix;
    use crate::ConvWorkspace;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_f32(len: usize, zero_frac: f64, rng: &mut SmallRng) -> Vec<f32> {
        (0..len)
            .map(|_| {
                if rng.gen_range(0.0..1.0) < zero_frac {
                    0.0
                } else {
                    rng.gen_range(-1.0f32..1.0)
                }
            })
            .collect()
    }

    /// Naive fused reference: one `mul_add` chain per element, `k`
    /// ascending — the semantics both levels must hit bit-for-bit.
    fn fused_reference(a: &[f32], b: &[f32], m: usize, kk: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for k in 0..kk {
                    acc = a[i * kk + k].mul_add(b[k * n + j], acc);
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `a × b` stored over `out` at `level` through `path` (`None`: the
    /// dispatched engine), in one inline chunk of the packed engine's test
    /// handle.
    fn chunked<T: Num>(
        (level, path): (SimdLevel, Option<GemmPath>),
        a: &[T],
        b: &[T],
        out: Vec<T>,
        (m, kk, n): (usize, usize, usize),
    ) -> Vec<T> {
        let a = Matrix::from_vec(m, kk, a.to_vec());
        let b = Matrix::from_vec(kk, n, b.to_vec());
        let (mut out, ws) = (Matrix::from_vec(m, n, out), &mut ConvWorkspace::new());
        crate::gemm::matmul_chunked(&a, &b, &mut out, false, level, path, m, ws);
        out.into_vec()
    }

    /// [`chunked`] on raw Q8.8 words.
    fn chunked_fx(
        route: (SimdLevel, Option<GemmPath>),
        a: &[i16],
        b: &[i16],
        dims: (usize, usize, usize),
    ) -> Vec<i16> {
        let fx = |raw: &[i16]| raw.iter().map(|&r| Fx::from_raw(r)).collect::<Vec<_>>();
        let out = vec![Fx::ZERO; dims.0 * dims.2];
        let got = chunked(route, &fx(a), &fx(b), out, dims);
        got.iter().map(|v| v.raw()).collect()
    }

    #[test]
    fn f32_levels_are_bit_identical_and_match_the_fused_chain() {
        let mut rng = SmallRng::seed_from_u64(91);
        for (m, kk, n) in [
            (1, 1, 1),
            (3, 9, 5),
            (17, 70, 65),
            (5, 8, 64),
            (7, 129, 67),
            (3, 700, 70),
        ] {
            let a = random_f32(m * kk, 0.5, &mut rng);
            let b = random_f32(kk * n, 0.1, &mut rng);
            let reference = fused_reference(&a, &b, m, kk, n);
            for level in SimdLevel::supported() {
                let out = chunked((level, None), &a, &b, vec![0.0; m * n], (m, kk, n));
                assert_eq!(bits(&reference), bits(&out), "{level:?} {m}x{kk}x{n}");
            }
        }
    }

    /// The accumulate epilogue is `out + chain` with the chain finished
    /// first — on both levels, on full-width and ragged panels, at the
    /// largest `kk` one chunk holds, and over accumulators holding `-0.0`
    /// (which a chain *started* from the accumulator would keep, and a
    /// true add of `+0.0` does not).
    #[test]
    fn accumulate_epilogue_adds_the_finished_chain_on_every_level() {
        let mut rng = SmallRng::seed_from_u64(95);
        for (m, kk, n) in [(1, 1, 1), (7, 40, 16), (13, KC, 37), (6, 9, 100)] {
            let a = random_f32(m * kk, 0.5, &mut rng);
            let b = random_f32(kk * n, 0.5, &mut rng);
            let held: Vec<f32> = random_f32(m * n, 0.3, &mut rng)
                .into_iter()
                .map(|v| if v == 0.0 { -0.0 } else { v })
                .collect();
            let want: Vec<u32> = fused_reference(&a, &b, m, kk, n)
                .iter()
                .zip(&held)
                .map(|(chain, h)| (h + chain).to_bits())
                .collect();
            let mut scratch = PackScratch::new();
            build_masks(&a, m, kk, &mut scratch.masks);
            pack_b::<_, NR_F32>(&b, kk, n, 3, &mut scratch.bf32);
            for level in SimdLevel::supported() {
                let mut out = held.clone();
                let add = Epilogue::Accumulate;
                f32_rows(
                    level,
                    &a,
                    &scratch.masks,
                    scratch.bf32.get(),
                    &mut out,
                    kk,
                    n,
                    add,
                );
                assert_eq!(bits(&out), want, "{level:?} {m}x{kk}x{n}");
            }
        }
        assert!(epilogue_accumulates(PackedKind::F32, GemmPath::Packed, KC));
        assert!(!epilogue_accumulates(
            PackedKind::F32,
            GemmPath::Packed,
            KC + 1
        ));
        assert!(!epilogue_accumulates(PackedKind::F32, GemmPath::Ikj, 8));
        assert!(!epilogue_accumulates(PackedKind::Fx, GemmPath::Packed, 8));
    }

    /// Between `k`-chunks the partial chain lives in the output, so a
    /// multi-chunk GEMM cannot also keep an accumulator there.
    #[test]
    #[should_panic(expected = "one k-chunk")]
    fn accumulate_epilogue_refuses_a_chain_spanning_chunks() {
        let (m, kk, n) = (2, KC + 1, 16);
        let (a, b) = (vec![1.0f32; m * kk], vec![1.0f32; kk * n]);
        let mut scratch = PackScratch::new();
        build_masks(&a, m, kk, &mut scratch.masks);
        pack_b::<_, NR_F32>(&b, kk, n, 3, &mut scratch.bf32);
        let mut out = vec![0.0f32; m * n];
        let add = Epilogue::Accumulate;
        f32_rows(
            SimdLevel::Scalar,
            &a,
            &scratch.masks,
            scratch.bf32.get(),
            &mut out,
            kk,
            n,
            add,
        );
    }

    /// The operand checks that the tile kernels' pointer arithmetic rests
    /// on hold in release builds too.
    #[test]
    #[should_panic(expected = "operands disagree")]
    fn f32_rows_rejects_a_short_packed_operand() {
        let (m, kk, n) = (2, 8, 16);
        let a = vec![1.0f32; m * kk];
        let mut masks = Vec::new();
        build_masks(&a, m, kk, &mut masks);
        let short_b = vec![1.0f32; kk * n - 1];
        let mut out = vec![0.0f32; m * n];
        f32_rows(
            detect_level(),
            &a,
            &masks,
            &short_b,
            &mut out,
            kk,
            n,
            Epilogue::Store,
        );
    }

    /// The distinct packed GEMM shapes of the two train workloads (DCGAN
    /// and MNIST-GAN; `n = 33` adds an odd panel count), on every level the
    /// host has: the AVX-512 pair tile, its one-panel variant on the odd
    /// last panel and on the `n = 16` shapes, ragged second panels
    /// (`n = 75`), and multi-chunk resumes. `Accumulate` runs where the
    /// chain fits one chunk.
    #[test]
    fn train_step_shapes_are_bit_identical_on_every_level() {
        let mut rng = SmallRng::seed_from_u64(96);
        for (m, kk, n) in [
            (512, 16, 6400),
            (256, 3200, 64),
            (128, 1600, 256),
            (64, 75, 1024),
            (3, 384, 1024),
            (512, 6400, 16),
            (64, 1024, 75),
            (7, 40, 33),
        ] {
            // Zeros in `A` only thin the scalar level's work (it skips
            // them one by one; no whole 6-row panel ever masks out here).
            let a = random_f32(m * kk, 0.7, &mut rng);
            let b = random_f32(kk * n, 0.0, &mut rng);
            let held = random_f32(m * n, 0.0, &mut rng);
            let mut scratch = PackScratch::new();
            build_masks(&a, m, kk, &mut scratch.masks);
            pack_b::<_, NR_F32>(&b, kk, n, 3, &mut scratch.bf32);
            let mut epilogues = vec![Epilogue::Store];
            if epilogue_accumulates(PackedKind::F32, GemmPath::Packed, kk) {
                epilogues.push(Epilogue::Accumulate);
            }
            for epilogue in epilogues {
                let mut want: Option<Vec<u32>> = None;
                for level in SimdLevel::supported() {
                    let mut out = held.clone();
                    f32_rows(
                        level,
                        &a,
                        &scratch.masks,
                        scratch.bf32.get(),
                        &mut out,
                        kk,
                        n,
                        epilogue,
                    );
                    let got = bits(&out);
                    let want = want.get_or_insert_with(|| got.clone());
                    assert!(*want == got, "{level:?} {epilogue:?} {m}x{kk}x{n}");
                }
            }
        }
    }

    /// A chain that spans `k`-chunks resumes from the output through the
    /// pair tile's ragged second panel (`n = 27`: 16 + 11 columns) and
    /// through a ragged pair behind a full one (`n = 59`).
    #[test]
    fn multi_chunk_resume_through_a_ragged_second_panel() {
        let mut rng = SmallRng::seed_from_u64(97);
        for (m, kk, n) in [(7, KC + 100, 27), (13, 2 * KC + 5, 59)] {
            let a = random_f32(m * kk, 0.5, &mut rng);
            let b = random_f32(kk * n, 0.1, &mut rng);
            let reference = bits(&fused_reference(&a, &b, m, kk, n));
            for level in SimdLevel::supported() {
                let route = (level, Some(GemmPath::Packed));
                let out = chunked(route, &a, &b, vec![f32::NAN; m * n], (m, kk, n));
                assert!(reference == bits(&out), "{level:?} {m}x{kk}x{n}");
            }
        }
    }

    /// Every SIMD tile this host has checks each `B` chunk it takes a
    /// pointer into — the pair tile its second panel's chunk too. (The
    /// scalar tile slices what it reads; a scalar-only host has no level to
    /// loop over.)
    #[test]
    fn simd_tiles_reject_a_last_b_chunk_one_word_short() {
        let (rows, klen) = (MR_F32, 2 * KP);
        let a = vec![1.0f32; rows * klen];
        let mut masks = Vec::new();
        build_masks(&a, rows, klen, &mut masks);
        let chunk = vec![1.0f32; klen * NR_F32];
        for level in SimdLevel::supported().filter(|&l| l > SimdLevel::Scalar) {
            let (kernel, pairs) = f32_tile_for(level);
            let span = if pairs { 2 } else { 1 };
            let mut bchunks: [&[f32]; 2] = [&chunk, &[]];
            bchunks[span - 1] = &chunk[..chunk.len() - 1];
            let n = span * NR_F32;
            let tile = F32Tile {
                a_rows: &a,
                masks: &masks,
                bchunks,
                kk: klen,
                wpr: mask_geometry(klen).1,
                i0: 0,
                rows,
                kc0: 0,
                klen,
                panel0: 0,
                n,
                j0: 0,
                w: n,
                out: TileOut::Overwrite,
            };
            let mut out = vec![0.0f32; rows * n];
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // SAFETY: `supported` verified the kernel's features.
                unsafe { kernel(&tile, &mut out) }
            }));
            let payload = caught.expect_err("a short B chunk must be refused");
            let msg = payload.downcast_ref::<&str>().copied();
            assert_eq!(
                msg,
                Some("B chunk shorter than the tile's k range"),
                "{level:?}"
            );
        }
    }

    #[test]
    fn fx_levels_match_scalar_fx_semantics_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(92);
        for (m, kk, n) in [(1, 1, 1), (4, 9, 5), (9, 33, 40), (3, 8, 32), (2, 300, 33)] {
            // Large magnitudes so saturation actually fires.
            let a: Vec<i16> = (0..m * kk)
                .map(|_| {
                    if rng.gen_range(0.0..1.0) < 0.4 {
                        0
                    } else {
                        rng.gen_range(i16::MIN..=i16::MAX)
                    }
                })
                .collect();
            let b: Vec<i16> = (0..kk * n)
                .map(|_| rng.gen_range(i16::MIN..=i16::MAX))
                .collect();
            // Scalar Fx oracle: k-ascending saturating multiply-add chain.
            let mut reference = vec![0i16; m * n];
            for i in 0..m {
                for j in 0..n {
                    let mut acc = Fx::ZERO;
                    for k in 0..kk {
                        acc += Fx::from_raw(a[i * kk + k]) * Fx::from_raw(b[k * n + j]);
                    }
                    reference[i * n + j] = acc.raw();
                }
            }
            for level in SimdLevel::supported() {
                let out = chunked_fx((level, None), &a, &b, (m, kk, n));
                assert_eq!(reference, out, "{level:?} {m}x{kk}x{n}");
            }
        }
    }

    #[test]
    fn forced_path_values_parse_or_name_the_accepted_ones() {
        assert_eq!(parse_forced_path(""), Ok(None));
        assert_eq!(parse_forced_path("  "), Ok(None));
        assert_eq!(parse_forced_path("packed"), Ok(Some(GemmPath::Packed)));
        assert_eq!(parse_forced_path(" ikj\n"), Ok(Some(GemmPath::Ikj)));
        assert_eq!(parse_forced_path("smallm"), Ok(Some(GemmPath::SmallM)));
        for typo in ["pakced", "Packed", "small-m", "none"] {
            let err = parse_forced_path(typo).expect_err(typo);
            assert!(
                err.contains(typo) && err.contains("packed|ikj|smallm"),
                "{err}"
            );
        }
    }

    #[test]
    fn masks_count_elided_and_zero_words_exactly() {
        // Row of 10 words, KP=8: panel 0 = words 0..8, panel 1 = words 8..10.
        let mut a = vec![0.0f32; 10];
        a[9] = 1.0; // panel 1 live, panel 0 all-zero
        let mut masks = Vec::new();
        let (skipped, zeros) = build_masks(&a, 1, 10, &mut masks);
        assert_eq!(skipped, 8, "only the all-zero panel is elidable");
        assert_eq!(zeros, 9, "every zero word counts toward density");
        assert!(mask_hit(&masks, 0));
        assert!(!mask_hit(&masks, 1));
    }

    #[test]
    fn choose_path_keys_on_shape_and_density() {
        // A single output row with a wide-enough output streams B.
        assert_eq!(choose_path(1, 6272, 100, 0), GemmPath::SmallM);
        // Multi-row dense shapes keep the packed engine even below one
        // register tile of rows — the dense 6×16 tile wins from m = 2 up.
        assert_eq!(choose_path(MR_F32, 100, 128, 0), GemmPath::Packed);
        assert_eq!(choose_path(49, 1600, 128, 0), GemmPath::Packed);
        // Degenerate-kk shapes dodge the pack entirely.
        assert_eq!(choose_path(100, 1, 6272, 0), GemmPath::Ikj);
        assert_eq!(choose_path(100, 3, 6272, 0), GemmPath::Packed);
        // The projection shape: ~98% zeros scattered across panels.
        let total = 49u64 * 4900;
        assert_eq!(
            choose_path(49, 4900, 128, total - 49 * 100),
            GemmPath::Ikj,
            "sparse-A shapes take the element-skipping path"
        );
        // Exactly at the 15/16 threshold the ikj path still wins.
        assert_eq!(choose_path(8, 100, 128, 750), GemmPath::Ikj);
        assert_eq!(choose_path(8, 100, 128, 749), GemmPath::Packed);
        // The weight-stationary conv shapes (`m` = output maps, `n` =
        // pixels, dense weights so a zero count of 0): a single-channel
        // side makes one-row phase GEMMs, which stream `B`; every other
        // layer keeps the packed tile, down to 16 pixels; nothing lands on
        // ikj by density.
        assert_eq!(choose_path(1, 64 * 9, 196, 0), GemmPath::SmallM);
        assert_eq!(choose_path(64, 25, 196, 0), GemmPath::Packed);
        assert_eq!(choose_path(128, 1600, 49, 0), GemmPath::Packed);
        assert_eq!(choose_path(512, 6400, 16, 0), GemmPath::Packed);
        // Narrow outputs can't amortize a broadcast axpy: everything
        // below n = 8 stays packed no matter the shape or density.
        assert_eq!(choose_path(49, 6272, 1, 49 * 6272 - 49), GemmPath::Packed);
        assert_eq!(choose_path(1, 6272, 7, 0), GemmPath::Packed);
        assert_eq!(choose_path(1, 6272, 8, 0), GemmPath::SmallM);
    }

    proptest::proptest! {
        /// The fan-out function tiles `0..m` exactly with chunks that start
        /// on register-tile boundaries, and returns one chunk under the
        /// threshold and on a serial pool.
        #[test]
        fn fan_out_rows_tiles_the_rows_in_register_tile_steps(
            m in 0usize..700,
            kk in 0usize..3000,
            n in 0usize..3000,
            threads in 0usize..40,
        ) {
            let rows = fan_out_rows(m, kk, n, threads);
            proptest::prop_assert!(rows <= m && (rows > 0 || m == 0));
            if rows < m {
                proptest::prop_assert_eq!(rows % MR_F32, 0, "chunks start on tile boundaries");
                proptest::prop_assert!(threads > 1 && m * kk * n >= FAN_OUT_MIN_MACS);
                let chunks = m.div_ceil(rows);
                proptest::prop_assert!((chunks - 1) * rows < m && chunks * rows >= m);
                proptest::prop_assert!(chunks <= 2 * threads, "about two chunks a thread");
            }
            proptest::prop_assert_eq!(fan_out_rows(m, kk, n, 1), m);
        }
    }

    #[test]
    fn fan_out_keeps_the_train_step_small_shapes_inline() {
        // MNIST-GAN's short GEMMs (10-55 µs) and DCGAN's three-row
        // image-layer GEMMs stay on the calling thread at any width; the
        // deep layers of both fan out.
        for (m, kk, n) in [(64, 25, 196), (64, 196, 25), (64, 512, 49), (3, 384, 1024)] {
            assert_eq!(fan_out_rows(m, kk, n, 8), m, "{m}×{kk}×{n}");
        }
        assert_eq!(fan_out_rows(128, 1600, 49, 2), 36);
        assert_eq!(fan_out_rows(512, 16, 6400, 2), 132);
        assert_eq!(fan_out_rows(256, 3200, 64, 2), 66);
        assert_eq!(fan_out_rows(64, 768, 256, 2), 18);
    }

    const ALL_PATHS: [GemmPath; 3] = [GemmPath::Packed, GemmPath::Ikj, GemmPath::SmallM];

    #[test]
    fn f32_paths_are_bit_identical_on_every_level() {
        let mut rng = SmallRng::seed_from_u64(93);
        // Degenerate shapes on purpose: m = 1, m > MR, n < NR, long k.
        for (m, kk, n, zf) in [
            (1, 1, 1, 0.0),
            (1, 700, 100, 0.5),
            (3, 40, 7, 0.9),
            (17, 70, 65, 0.98),
            (7, 129, 67, 0.0),
            (40, 50, 3, 0.3),
        ] {
            let a = random_f32(m * kk, zf, &mut rng);
            let b = random_f32(kk * n, 0.1, &mut rng);
            let reference = fused_reference(&a, &b, m, kk, n);
            for path in ALL_PATHS {
                for level in SimdLevel::supported() {
                    let route = (level, Some(path));
                    let out = chunked(route, &a, &b, vec![0.0; m * n], (m, kk, n));
                    let same = reference
                        .iter()
                        .zip(&out)
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(same, "{path:?} {level:?} diverged on {m}x{kk}x{n}");
                }
            }
        }
    }

    #[test]
    fn fx_paths_match_scalar_fx_semantics_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(94);
        for (m, kk, n) in [(1, 1, 1), (1, 300, 33), (4, 9, 5), (9, 33, 40), (8, 40, 3)] {
            let a: Vec<i16> = (0..m * kk)
                .map(|_| {
                    if rng.gen_range(0.0..1.0) < 0.6 {
                        0
                    } else {
                        rng.gen_range(i16::MIN..=i16::MAX)
                    }
                })
                .collect();
            let b: Vec<i16> = (0..kk * n)
                .map(|_| rng.gen_range(i16::MIN..=i16::MAX))
                .collect();
            let mut reference = vec![0i16; m * n];
            for i in 0..m {
                for j in 0..n {
                    let mut acc = Fx::ZERO;
                    for k in 0..kk {
                        acc += Fx::from_raw(a[i * kk + k]) * Fx::from_raw(b[k * n + j]);
                    }
                    reference[i * n + j] = acc.raw();
                }
            }
            for path in ALL_PATHS {
                for level in SimdLevel::supported() {
                    let out = chunked_fx((level, Some(path)), &a, &b, (m, kk, n));
                    assert_eq!(reference, out, "{path:?} {level:?} {m}x{kk}x{n}");
                }
            }
        }
    }

    #[test]
    fn simd_label_matches_level() {
        assert_eq!(simd_label(), simd_level().label());
        let levels: Vec<SimdLevel> = SimdLevel::supported().collect();
        assert_eq!(levels[0], SimdLevel::Scalar);
        assert_eq!(levels.last(), Some(&detect_level()));
        assert!(levels.contains(&simd_level()));
        assert!(levels.is_sorted(), "ascending, so `>=` selectors hold");
        let labels: Vec<&str> = levels.iter().map(|l| l.label()).collect();
        assert_eq!(labels, ["scalar", "avx2", "avx512"][..levels.len()]);
    }
}
