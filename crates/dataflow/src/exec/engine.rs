//! The fast executor engine: one lane kernel under nine executors, pooled
//! position blocks, and batched trace emission.
//!
//! Every function here is the drop-in fast twin of the same-named oracle in
//! [`super::scalar`], bit-identical in output tensors, cycle counts, access
//! counters, and (expanded) trace streams. Three mechanisms, layered:
//!
//! 1. **Channel lanes innermost.** The `P_of` PE lanes of every array see
//!    one broadcast operand per beat and differ only in their weights, and
//!    the channels of different groups are independent, so every output
//!    channel is a lane. Per call the operand that differs across lanes is
//!    transposed so a block of [`LANES`] channels is contiguous (kernels →
//!    `[in-channel][tap][out-channel]`, the W-CONV's large-side map →
//!    `[pixel][channel]`), and the taps each output position reads are
//!    tabulated once as `u32` pixel offsets. Each position then holds one
//!    lane block of accumulators in registers across the oracle's whole
//!    term sequence for that position; every term is `broadcast × weight
//!    row`. The seven convolutions are one kernel, [`conv_lanes`], and
//!    differ in three things only: the table their feed builds (which taps,
//!    in which order — OST's is ZFOST's T-CONV table), how many *segments*
//!    a position's taps come in (one, but WST's `P_ky × P_kx` grid blocks),
//!    and the [`Fold`] a term goes through on its way to the accumulator
//!    (none; ZFWST's `grid`-tap adder tree; NLR's `P_if`-channel one). The
//!    W-CONV accumulator is flushed every `grid` positions, where the
//!    oracle folds it. Per output element the *term order* is the oracle's,
//!    so results are bit-identical for `f32`, `f64` and `Fx`, not just
//!    close. What a baseline pays for its dataflow — OST's multiplications
//!    by inserted zeros, WST's partial-sum traffic, NLR's weight fetches —
//!    is counted from the table or in closed form, never performed.
//!
//!    **Precondition: finite operands.** Where the oracle multiplies a
//!    zero the dataflow put there (`at_padded` in ZFOST and NLR S-CONV and
//!    the D̄w W-CONV, OST's inserted and padded zeros) the engine skips the
//!    term. `acc + 0·w` leaves `acc` unchanged bit for bit only while `0·w`
//!    is a zero, that is for finite `w`; an accumulator that starts at `+0`
//!    never becomes `-0`, so the sign of the skipped zero cannot matter.
//!    ZFWST S-CONV keeps multiplying its padded zeros inside the tree, as
//!    the oracle does, and WST never presents padding to its grid at all.
//!
//! 2. **Pooled position blocks.** Results land in a position-major
//!    scratch, `[position][lane]`, that [`zfgan_pool::parallel_chunks_for`]
//!    splits into a handful of contiguous position blocks per pool thread
//!    ([`for_position_blocks`], the one fan-out all nine share); no task
//!    writes outside its block and no result depends on the partition, so
//!    outputs are byte-identical at any `ZFGAN_THREADS`. One transpose then
//!    writes the arena's `Fmaps` / `Kernels`. All scratch comes from the
//!    recycled [`ExecWorkspace`], keeping the steady-state untraced pass
//!    zero-allocation (`tests/exec_zero_alloc.rs`).
//!
//! 3. **Batched traces.** Cycle counts and the entire event stream of every
//!    executor are *structural* — fixed by geometry before any data is
//!    touched (the one data-dependent stream, ZFWST T-CONV's tap thinning,
//!    is fixed by the tap table). So the traced variants do not thread a
//!    per-cycle sink through the compute at all: the engine computes
//!    untraced, then emits the identical stream as run-length segments
//!    ([`TraceBuffer::record_run`] / [`TraceBuffer::record_block`]) whose
//!    lazy expansion reproduces the oracle's per-cycle events exactly.
//!
//! The closed-form cycle counts used here are the same chunk/group
//! enumeration the oracle performs (`groups × per_group`), asserted equal
//! to the oracle's by the proptests in `tests/exec_engine.rs` and to
//! [`crate::Dataflow::schedule`]'s by the in-crate tests.

use std::ops::Range;
use std::sync::Arc;

use zfgan_pool::{parallel_chunks_for, pool_threads};
use zfgan_sim::trace::{TraceBuffer, TraceEvent};
use zfgan_sim::{ConvKind, ConvShape};
use zfgan_tensor::{ConvGeom, ConvWorkspace, Fmaps, Kernels, Num, ShapeError, TensorResult};

use super::{check_kind, kernel_parity_order_into, record_exec, ExecOutcome};
use crate::nlr::Nlr;
use crate::ost::Ost;
use crate::wst::Wst;
use crate::zfost::Zfost;
use crate::zfwst::Zfwst;

/// Channels per lane block: the accumulators one output position keeps in
/// registers. Lane rows are padded to a multiple of this.
const LANES: usize = 16;

/// Offset-table entry of a tap that reads padding.
const PAD: u32 = u32::MAX;

/// Position blocks queued per pool thread: enough that a thread that
/// starts late still finds work, few enough that a block stays thousands
/// of MACs.
const BLOCKS_PER_THREAD: usize = 4;

/// Recycled scratch for the fast executors.
///
/// Holds the lane scratch and output-tensor arena all nine executors
/// share and ZFOST's parity feed order, all reused across calls so a
/// warmed-up untraced executor pass performs no heap allocation. Return
/// finished outputs via [`ExecWorkspace::give_fmaps`] /
/// [`ExecWorkspace::give_kernels`] to keep the arena warm.
pub struct ExecWorkspace<T: Num> {
    parity: Vec<(usize, usize)>,
    pub(super) lane: LaneScratch<T>,
}

/// What every executor call reuses: three buffers, the output arena and
/// the position-block count.
pub(super) struct LaneScratch<T: Num> {
    /// The operand that differs across lanes, transposed so that one lane
    /// block is contiguous: kernels as `[in-channel][tap][lane]`, the
    /// W-CONV's large-side map as `[pixel][lane]`.
    operand: Vec<T>,
    /// Position-major results, `[position][lane]`.
    rows: Vec<T>,
    /// Tap-offset table. Convolutions: `rows + 1` row starts, one row per
    /// `(position, segment)`, then `(weight tap, input pixel)` pairs in
    /// feed order. W-CONV: the large-side pixel of `[tap][position]`.
    /// [`PAD`] marks padding.
    offs: Vec<u32>,
    /// Where the output tensors come from and go back to.
    arena: ConvWorkspace<T>,
    /// Position blocks per call; `None` follows the pool width.
    blocks: Option<usize>,
}

impl<T: Num> ExecWorkspace<T> {
    /// Creates an empty workspace; buffers grow on first use and are
    /// recycled afterwards.
    pub fn new() -> Self {
        ExecWorkspace {
            parity: Vec::new(),
            lane: LaneScratch {
                operand: Vec::new(),
                rows: Vec::new(),
                offs: Vec::new(),
                arena: ConvWorkspace::new(),
                blocks: None,
            },
        }
    }

    /// A workspace whose executors split their positions into `blocks`
    /// blocks whatever the pool width (partition tests).
    #[cfg(test)]
    pub(super) fn with_position_blocks(blocks: usize) -> Self {
        let mut ws = Self::new();
        ws.lane.blocks = Some(blocks);
        ws
    }

    /// Returns a feature-map output to the arena for reuse.
    pub fn give_fmaps(&mut self, f: Fmaps<T>) {
        self.lane.arena.give_fmaps(f);
    }

    /// Returns a kernel-gradient output to the arena for reuse.
    pub fn give_kernels(&mut self, k: Kernels<T>) {
        self.lane.arena.give_kernels(k);
    }
}

impl<T: Num> Default for ExecWorkspace<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Num> std::fmt::Debug for ExecWorkspace<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecWorkspace")
            .field("parity_len", &self.parity.len())
            .field("lane_operand_len", &self.lane.operand.len())
            .field("lane_rows_len", &self.lane.rows.len())
            .field("lane_offs_len", &self.lane.offs.len())
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// The lane kernel and its driver
// ---------------------------------------------------------------------------

/// `acc[l] += x · row[l]`, the oracle's `mul_add_assign` on every lane.
#[inline(always)]
fn mac_lanes<T: Num>(acc: &mut [T; LANES], x: T, row: &[T; LANES]) {
    for (a, w) in acc.iter_mut().zip(row) {
        a.mul_add_assign(x, *w);
    }
}

/// `acc[l] += part[l]`: an adder-tree or position-chunk flush.
#[inline(always)]
fn add_lanes<T: Num>(acc: &mut [T; LANES], part: &[T; LANES]) {
    for (a, p) in acc.iter_mut().zip(part) {
        *a += *p;
    }
}

/// One adder-tree beat, as the oracle's `tree`: the `input × weight row`
/// products of `terms` summed from zero, the sum added to `acc`.
#[inline(always)]
fn tree_lanes<'a, T: Num>(acc: &mut [T; LANES], terms: impl Iterator<Item = (T, &'a [T; LANES])>) {
    let mut sum = [T::zero(); LANES];
    for (x, row) in terms {
        for (s, w) in sum.iter_mut().zip(row) {
            *s += x * *w;
        }
    }
    add_lanes(acc, &sum);
}

/// Pixel `px` of a channel, a [`PAD`] tap reading an explicit zero.
#[inline(always)]
fn padded<T: Num>(x_ch: &[T], px: u32) -> T {
    x_ch.get(px as usize).copied().unwrap_or(T::zero())
}

/// The lane block starting at `at`.
#[inline(always)]
fn lane_block<T>(operand: &[T], at: usize) -> &[T; LANES] {
    operand[at..at + LANES]
        .try_into()
        .expect("a lane block is LANES wide")
}

/// Transposes `src`, `[outer][lanes][inner]`, into `dst` as
/// `[outer][inner][cp]` with the `cp - lanes` padding lanes zero.
fn gather_lanes<T: Num>(src: &[T], lanes: usize, inner: usize, cp: usize, dst: &mut Vec<T>) {
    dst.clear();
    dst.resize(src.len() / lanes * cp, T::zero());
    for (s_outer, d_outer) in src
        .chunks_exact(lanes * inner)
        .zip(dst.chunks_exact_mut(inner * cp))
    {
        for (l, s_lane) in s_outer.chunks_exact(inner).enumerate() {
            for (i, v) in s_lane.iter().enumerate() {
                d_outer[i * cp + l] = *v;
            }
        }
    }
}

/// Inverse of [`gather_lanes`]: position-major `rows`,
/// `[outer][inner][cp]`, into the channel-major `out`,
/// `[outer][lanes][inner]`, dropping the padding lanes.
fn scatter_lanes<T: Num>(rows: &[T], cp: usize, lanes: usize, inner: usize, out: &mut [T]) {
    for (r_outer, o_outer) in rows
        .chunks_exact(inner * cp)
        .zip(out.chunks_exact_mut(lanes * inner))
    {
        for (l, o_lane) in o_outer.chunks_exact_mut(inner).enumerate() {
            for (i, o) in o_lane.iter_mut().enumerate() {
                *o = r_outer[i * cp + l];
            }
        }
    }
}

/// Runs `body(first_position, rows_of_the_block)` over `n_pos` result rows
/// of `cp` lanes, split into at most `blocks` contiguous position blocks
/// on the pool. `body` overwrites every row it is handed.
fn for_position_blocks<T: Num>(
    rows: &mut Vec<T>,
    n_pos: usize,
    cp: usize,
    blocks: Option<usize>,
    body: impl Fn(usize, &mut [T]) + Sync,
) {
    rows.resize(n_pos * cp, T::zero());
    let blocks = blocks.unwrap_or_else(|| BLOCKS_PER_THREAD * pool_threads());
    let per_block = n_pos.div_ceil(blocks.clamp(1, n_pos));
    parallel_chunks_for(rows, per_block * cp, |b, block| body(b * per_block, block))
        .expect("executor position block panicked");
}

/// Input pixel an S-direction tap `k` reads for output `o`:
/// `stride·o + k − pad`, or [`PAD`] outside the `h × w` map.
fn s_pixel(geom: &ConvGeom, (h, w): (usize, usize), o: (usize, usize), k: (usize, usize)) -> u32 {
    let s = geom.stride();
    match (
        (s * o.0 + k.0).checked_sub(geom.pad_top()),
        (s * o.1 + k.1).checked_sub(geom.pad_left()),
    ) {
        (Some(y), Some(x)) if y < h && x < w => (y * w + x) as u32,
        _ => PAD,
    }
}

/// Real (neither inserted nor padded) input pixel a T-direction tap `k`
/// reads for output `o`: `(o + k − pad) / stride` where the division is
/// exact and lands inside the `h × w` map, else [`PAD`].
fn t_pixel(geom: &ConvGeom, (h, w): (usize, usize), o: (usize, usize), k: (usize, usize)) -> u32 {
    let s = geom.stride();
    let (pt, _, pl, _) = geom.t_conv_pads();
    match ((o.0 + k.0).checked_sub(pt), (o.1 + k.1).checked_sub(pl)) {
        (Some(zy), Some(zx)) if zy % s == 0 && zx % s == 0 && zy / s < h && zx / s < w => {
            (zy / s * w + zx / s) as u32
        }
        _ => PAD,
    }
}

/// Fills the convolution tap table: `feed(row, table)` pushes that row's
/// `(weight tap, input pixel)` pairs in the oracle's feed order. Row
/// `pos · segs + seg` is segment `seg` of output position `pos`.
fn tap_table(offs: &mut Vec<u32>, n_rows: usize, mut feed: impl FnMut(usize, &mut Vec<u32>)) {
    offs.clear();
    offs.resize(n_rows + 1, 0);
    for row in 0..n_rows {
        feed(row, offs);
        offs[row + 1] = ((offs.len() - n_rows - 1) / 2) as u32;
    }
}

/// Taps tabulated for `row` by [`tap_table`].
fn taps_of(offs: &[u32], n_rows: usize, row: usize) -> &[u32] {
    let pairs = &offs[n_rows + 1..];
    &pairs[2 * offs[row] as usize..2 * offs[row + 1] as usize]
}

/// Every `(weight tap, input pixel)` pair of an `n_rows`-row table.
fn table_pairs(offs: &[u32], n_rows: usize) -> impl Iterator<Item = (usize, usize)> + Clone + '_ {
    let pair = |t: &[u32]| (t[0] as usize, t[1] as usize);
    offs[n_rows + 1..].chunks_exact(2).map(pair)
}

/// Kernel taps in raster order.
fn raster_taps(kh: usize, kw: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..kh).flat_map(move |ky| (0..kw).map(move |kx| (ky, kx)))
}

/// Pushes the S-direction pairs of output position `pos` for `taps` in the
/// order given. A tap that reads padding is pushed as [`PAD`] when
/// `keep_pad`, otherwise left out.
fn push_s_taps(
    offs: &mut Vec<u32>,
    phase: &ConvShape,
    pos: usize,
    taps: impl Iterator<Item = (usize, usize)>,
    keep_pad: bool,
) {
    let (geom, sw) = (phase.geom(), phase.small_hw().1);
    for (ky, kx) in taps {
        let px = s_pixel(geom, phase.large_hw(), (pos / sw, pos % sw), (ky, kx));
        if keep_pad || px != PAD {
            offs.extend([(ky * geom.kw() + kx) as u32, px]);
        }
    }
}

/// Operand checks shared by the seven convolutions: `input` on the side
/// the direction reads, `kernels` as `[small][large][kh][kw]`.
fn check_conv<T: Num>(
    phase: &ConvShape,
    kind: ConvKind,
    input: &Fmaps<T>,
    kernels: &Kernels<T>,
) -> TensorResult<()> {
    check_kind(phase, kind)?;
    let (c, (h, w), side) = match kind {
        ConvKind::S => (phase.large(), phase.large_hw(), "large"),
        _ => (phase.small(), phase.small_hw(), "small"),
    };
    if input.shape() != (c, h, w) {
        return Err(ShapeError::new(format!(
            "input does not match phase's {side} side"
        )));
    }
    let geom = phase.geom();
    if kernels.shape() != (phase.small(), phase.large(), geom.kh(), geom.kw()) {
        return Err(ShapeError::new("kernels do not match phase channels"));
    }
    Ok(())
}

/// What a position's terms go through before they reach its accumulators.
#[derive(Clone, Copy)]
pub(super) enum Fold {
    /// Nothing: every term is accumulated as it comes (ZFOST, OST, WST).
    None,
    /// An adder tree over this many taps of one channel (ZFWST).
    Taps(usize),
    /// An adder tree over this many channels of one tap (NLR).
    Channels(usize),
}

/// The shared convolution kernel, on operands [`check_conv`] accepted.
/// `feed` tabulates the taps of each output position's `segs` segments
/// ([`tap_table`]); the kernels are transposed to `[in-channel][tap][lane]`.
/// Every output position then walks segment → in-channel → tap in table
/// order with the output channels as lanes, its terms folded as `fold`
/// says (a tree's channel blocks go outside its taps). Inside a tree a
/// [`PAD`] tap multiplies an explicit zero.
pub(super) fn conv_lanes<T: Num>(
    lane: &mut LaneScratch<T>,
    phase: &ConvShape,
    input: &Fmaps<T>,
    kernels: &Kernels<T>,
    segs: usize,
    fold: Fold,
    feed: impl FnMut(usize, &mut Vec<u32>),
) -> Fmaps<T> {
    let ntaps = kernels.kh() * kernels.kw();
    // Kernels are `[small][large][tap]`: S-CONV's lanes are the outer
    // dimension, T-CONV's the middle one.
    let (n_out, (oh, ow), k_inner) = match phase.kind() {
        ConvKind::S => (phase.small(), phase.small_hw(), phase.large() * ntaps),
        _ => (phase.large(), phase.large_hw(), ntaps),
    };
    let (n_pos, cp) = (oh * ow, n_out.next_multiple_of(LANES));
    let n_rows = n_pos * segs;
    tap_table(&mut lane.offs, n_rows, feed);
    gather_lanes(kernels.as_slice(), n_out, k_inner, cp, &mut lane.operand);

    let (in_px, w_ch_len) = (input.height() * input.width(), ntaps * cp);
    assert!(in_px < PAD as usize, "pixel offsets are u32");
    let (x, weights, offs) = (input.as_slice(), &lane.operand, &lane.offs);
    let channels = || x.chunks_exact(in_px).zip(weights.chunks_exact(w_ch_len));
    // The last block of a tree over channels may be short.
    let blocks = |n| x.chunks(n * in_px).zip(weights.chunks(n * w_ch_len));
    for_position_blocks(&mut lane.rows, n_pos, cp, lane.blocks, |pos0, rows| {
        for (i, row) in rows.chunks_exact_mut(cp).enumerate() {
            for (b, lanes) in row.chunks_exact_mut(LANES).enumerate() {
                let w = |w_ch, tap: u32| lane_block(w_ch, tap as usize * cp + b * LANES);
                let mut acc = [T::zero(); LANES];
                for seg in 0..segs {
                    let taps = taps_of(offs, n_rows, (pos0 + i) * segs + seg);
                    match fold {
                        Fold::None => {
                            for (x_ch, w_ch) in channels() {
                                for t in taps.chunks_exact(2) {
                                    mac_lanes(&mut acc, x_ch[t[1] as usize], w(w_ch, t[0]));
                                }
                            }
                        }
                        Fold::Taps(n) => {
                            for (x_ch, w_ch) in channels() {
                                for beat in taps.chunks(2 * n) {
                                    let terms = beat.chunks_exact(2);
                                    let terms = terms.map(|t| (padded(x_ch, t[1]), w(w_ch, t[0])));
                                    tree_lanes(&mut acc, terms);
                                }
                            }
                        }
                        Fold::Channels(n) => {
                            for (x_blk, w_blk) in blocks(n) {
                                for t in taps.chunks_exact(2) {
                                    let block = x_blk.chunks_exact(in_px);
                                    let block = block.zip(w_blk.chunks_exact(w_ch_len));
                                    let terms =
                                        block.map(|(x, w_ch)| (padded(x, t[1]), w(w_ch, t[0])));
                                    tree_lanes(&mut acc, terms);
                                }
                            }
                        }
                    }
                }
                lanes.copy_from_slice(&acc);
            }
        }
    });
    // Every element is written by the transpose, so the arena's fill is skipped.
    let mut out = Fmaps::from_vec(n_out, oh, ow, lane.arena.take_dirty(n_out * n_pos));
    scatter_lanes(&lane.rows, cp, n_out, n_pos, out.as_mut_slice());
    out
}

/// The T-direction tap feed of both architectures: raster `(ky, kx)`, only
/// the taps that land on a real input pixel, reading the flipped weight.
fn t_feed(phase: &ConvShape) -> impl FnMut(usize, &mut Vec<u32>) {
    let geom = *phase.geom();
    let (small_hw, lw) = (phase.small_hw(), phase.large_hw().1);
    let (kh, kw) = (geom.kh(), geom.kw());
    move |pos, offs| {
        for (ky, kx) in raster_taps(kh, kw) {
            let px = t_pixel(&geom, small_hw, (pos / lw, pos % lw), (ky, kx));
            if px != PAD {
                offs.extend([((kh - 1 - ky) * kw + (kw - 1 - kx)) as u32, px]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ZFOST S-CONV / T-CONV
// ---------------------------------------------------------------------------

#[allow(clippy::type_complexity)]
pub(super) fn zfost_s<T: Num>(
    zf: &Zfost,
    phase: &ConvShape,
    input: &Fmaps<T>,
    kernels: &Kernels<T>,
    ws: &mut ExecWorkspace<T>,
    trace_capacity: Option<usize>,
) -> TensorResult<(ExecOutcome<Fmaps<T>>, Option<TraceBuffer>)> {
    check_conv(phase, ConvKind::S, input, kernels)?;
    let geom = *phase.geom();
    let (small, large) = (phase.small(), phase.large());
    let (sh, sw) = phase.small_hw();
    let (p_oy, p_ox, p_of) = zf.factors();
    let (kh, kw) = (geom.kh(), geom.kw());
    kernel_parity_order_into(kh, kw, geom.stride(), &mut ws.parity);
    let fold = (p_of / small).max(1);
    let n_chunks = (sh.div_ceil(p_oy) * sw.div_ceil(p_ox)).div_ceil(fold) as u64;
    let groups = small.div_ceil(p_of);
    let per_chunk = (large * kh * kw) as u64;
    let cycles = groups as u64 * n_chunks * per_chunk;

    // The oracle's tile loop is orthogonal to the per-element term order:
    // each output sees its terms in `(if_, parity)` order however cells are
    // grouped. A tap whose input is padding is a zero term and is skipped.
    let parity: &[(usize, usize)] = &ws.parity;
    let feed = |pos: usize, offs: &mut Vec<u32>| {
        push_s_taps(offs, phase, pos, parity.iter().copied(), false);
    };
    let output = conv_lanes(&mut ws.lane, phase, input, kernels, 1, Fold::None, feed);
    record_exec("zfost/s_conv", cycles);

    let trace = trace_capacity.map(|cap| {
        chunked_feed_trace(cap, groups, per_chunk, n_chunks, || {
            let mut events = Vec::with_capacity(large * parity.len());
            for if_ in 0..large {
                for &(ky, kx) in parity {
                    events.push((
                        events.len() as u64,
                        TraceEvent::Mac {
                            ch: if_ as u16,
                            row: ky as u16,
                            col: kx as u16,
                        },
                    ));
                }
            }
            events.into()
        })
    });
    Ok((ExecOutcome { output, cycles }, trace))
}

#[allow(clippy::type_complexity)]
pub(super) fn zfost_t<T: Num>(
    zf: &Zfost,
    phase: &ConvShape,
    input: &Fmaps<T>,
    kernels: &Kernels<T>,
    ws: &mut ExecWorkspace<T>,
    trace_capacity: Option<usize>,
) -> TensorResult<(ExecOutcome<Fmaps<T>>, Option<TraceBuffer>)> {
    check_conv(phase, ConvKind::T, input, kernels)?;
    let geom = *phase.geom();
    let (small, large) = (phase.small(), phase.large());
    let (lh, lw) = phase.large_hw();
    let (p_oy, p_ox, p_of) = zf.factors();
    let s = geom.stride();
    let (kh, kw) = (geom.kh(), geom.kw());
    let fold = (p_of / large).max(1);
    let n_chunks = (lh.div_ceil(s * p_oy) * lw.div_ceil(s * p_ox)).div_ceil(fold) as u64;
    let groups = large.div_ceil(p_of);
    let per_chunk = (small * kh * kw) as u64;
    let cycles = groups as u64 * n_chunks * per_chunk;

    // As in the S direction the tile loop is orthogonal to the per-element
    // `(sf, ky, kx)` term order, and the outputs a kernel position is
    // effective for (its parity class, minus the clipped edges) are exactly
    // those whose tap lands on a real input pixel.
    let feed = t_feed(phase);
    let output = conv_lanes(&mut ws.lane, phase, input, kernels, 1, Fold::None, feed);
    record_exec("zfost/t_conv", cycles);

    let trace = trace_capacity.map(|cap| {
        chunked_feed_trace(cap, groups, per_chunk, n_chunks, || {
            mac_raster_events(small, kh, kw)
        })
    });
    Ok((ExecOutcome { output, cycles }, trace))
}

/// One `PhaseStart` per group, then `n_chunks` repeats of the per-chunk
/// `events` template: the stream shape of both ZFOST directions.
fn chunked_feed_trace(
    cap: usize,
    groups: usize,
    per_chunk: u64,
    n_chunks: u64,
    events: impl FnOnce() -> Arc<[(u64, TraceEvent)]>,
) -> TraceBuffer {
    let per_group = n_chunks * per_chunk;
    let mut buf = TraceBuffer::with_expected(cap, groups as u64 * (1 + per_group));
    if buf.enabled() {
        let events = events();
        for g in 0..groups {
            let base = g as u64 * per_group;
            buf.record(base, TraceEvent::PhaseStart { label: g as u16 });
            buf.record_block(base, per_chunk, n_chunks, Arc::clone(&events));
        }
    }
    buf
}

/// One `Mac{sf, ky, kx}` per relative cycle in `sf → ky → kx` raster order:
/// the per-chunk feed template shared by the T-CONV executors.
fn mac_raster_events(small: usize, kh: usize, kw: usize) -> Arc<[(u64, TraceEvent)]> {
    let mut events = Vec::with_capacity(small * kh * kw);
    for sf in 0..small {
        for ky in 0..kh {
            for kx in 0..kw {
                events.push((
                    ((sf * kh + ky) * kw + kx) as u64,
                    TraceEvent::Mac {
                        ch: sf as u16,
                        row: ky as u16,
                        col: kx as u16,
                    },
                ));
            }
        }
    }
    events.into()
}

// ---------------------------------------------------------------------------
// ZFWST W-CONV (one walk serves both directions)
// ---------------------------------------------------------------------------

#[allow(clippy::type_complexity)]
pub(super) fn wgrad_s<T: Num>(
    zf: &Zfwst,
    phase: &ConvShape,
    data: &Fmaps<T>,
    error: &Fmaps<T>,
    ws: &mut ExecWorkspace<T>,
    trace_capacity: Option<usize>,
) -> TensorResult<(ExecOutcome<Kernels<T>>, Option<TraceBuffer>)> {
    check_kind(phase, ConvKind::WGradS)?;
    let ((sh, sw), (lh, lw)) = (phase.small_hw(), phase.large_hw());
    if data.shape() != (phase.large(), lh, lw) {
        return Err(ShapeError::new("data does not match phase's large side"));
    }
    if error.shape() != (phase.small(), sh, sw) {
        return Err(ShapeError::new("error does not match phase's small side"));
    }
    Ok(wgrad(zf, phase, error, data, ws, trace_capacity))
}

#[allow(clippy::type_complexity)]
pub(super) fn wgrad_t<T: Num>(
    zf: &Zfwst,
    phase: &ConvShape,
    data: &Fmaps<T>,
    error: &Fmaps<T>,
    ws: &mut ExecWorkspace<T>,
    trace_capacity: Option<usize>,
) -> TensorResult<(ExecOutcome<Kernels<T>>, Option<TraceBuffer>)> {
    check_kind(phase, ConvKind::WGradT)?;
    let ((sh, sw), (lh, lw)) = (phase.small_hw(), phase.large_hw());
    if data.shape() != (phase.small(), sh, sw) {
        return Err(ShapeError::new("data does not match phase's small side"));
    }
    if error.shape() != (phase.large(), lh, lw) {
        return Err(ShapeError::new("error does not match phase's large side"));
    }
    Ok(wgrad(zf, phase, data, error, ws, trace_capacity))
}

/// Both W-CONV directions are one computation on checked operands:
/// `∇w[sc][lc][ky][kx] = Σ small_side[sc][p] · large_side[lc][stride·p + k − pad]`
/// over the small side's raster positions `p`, the accumulator flushed into
/// the gradient every `grid` positions. D̄w's small side is the error and
/// its large side the data, Ḡw's the other way round, and in both the
/// oracle multiplies small by large. A position whose large-side pixel is
/// padding is a zero term in D̄w and no term in Ḡw: skipped either way. The
/// large side's channels are the lanes; a "position" of the driver is one
/// `(sc, tap)` gradient row.
fn wgrad<T: Num>(
    zf: &Zfwst,
    phase: &ConvShape,
    small_side: &Fmaps<T>,
    large_side: &Fmaps<T>,
    ws: &mut ExecWorkspace<T>,
    trace_capacity: Option<usize>,
) -> (ExecOutcome<Kernels<T>>, Option<TraceBuffer>) {
    let geom = *phase.geom();
    let (small, large) = (phase.small(), phase.large());
    let (sh, sw) = phase.small_hw();
    let large_hw = phase.large_hw();
    let (p_ky, p_kx, p_of) = zf.factors();
    let grid = p_ky * p_kx;
    let (kh, kw) = (geom.kh(), geom.kw());
    let (ntaps, s_px) = (kh * kw, sh * sw);
    let n_pos_chunks = s_px.div_ceil(grid);
    let groups = (small * large).div_ceil(p_of);
    let cycles = (groups * ntaps * n_pos_chunks) as u64;

    let lane = &mut ws.lane;
    let (l_px, cp) = (large_hw.0 * large_hw.1, large.next_multiple_of(LANES));
    assert!(l_px < PAD as usize, "pixel offsets are u32");
    gather_lanes(large_side.as_slice(), large, l_px, cp, &mut lane.operand);
    lane.offs.clear();
    for k in 0..ntaps {
        let px = |p: usize| s_pixel(&geom, large_hw, (p / sw, p % sw), (k / kw, k % kw));
        lane.offs.extend((0..s_px).map(px));
    }
    let (xs, pixels, offs) = (small_side.as_slice(), &lane.operand, &lane.offs);
    let n_rows = small * ntaps;
    for_position_blocks(&mut lane.rows, n_rows, cp, lane.blocks, |row0, rows| {
        for (i, row) in rows.chunks_exact_mut(cp).enumerate() {
            let (sc, tap) = ((row0 + i) / ntaps, (row0 + i) % ntaps);
            let x_ch = &xs[sc * s_px..(sc + 1) * s_px];
            let px_tap = &offs[tap * s_px..(tap + 1) * s_px];
            for (b, lanes) in row.chunks_exact_mut(LANES).enumerate() {
                let mut grad = [T::zero(); LANES];
                for (x_chunk, px_chunk) in x_ch.chunks(grid).zip(px_tap.chunks(grid)) {
                    let mut acc = [T::zero(); LANES];
                    for (&x, &px) in x_chunk.iter().zip(px_chunk) {
                        if px != PAD {
                            let at = px as usize * cp + b * LANES;
                            mac_lanes(&mut acc, x, lane_block(pixels, at));
                        }
                    }
                    add_lanes(&mut grad, &acc);
                }
                lanes.copy_from_slice(&grad);
            }
        }
    });
    // Every element is written by the transpose, so the arena's fill is skipped.
    let grad = lane.arena.take_dirty(small * large * ntaps);
    let mut output = Kernels::from_vec(small, large, kh, kw, grad);
    scatter_lanes(&lane.rows, cp, large, ntaps, output.as_mut_slice());
    record_exec(
        match phase.kind() {
            ConvKind::WGradS => "zfwst/wgrad_s",
            _ => "zfwst/wgrad_t",
        },
        cycles,
    );

    let trace = trace_capacity.map(|cap| wgrad_trace(cap, groups, kh, kw, n_pos_chunks as u64));
    (ExecOutcome { output, cycles }, trace)
}

/// Both W-CONV directions share the same structural stream: per group one
/// `PhaseStart`, then per kernel position a run of `Mac` + psum
/// `BufferWrite` beats, one per position chunk.
fn wgrad_trace(cap: usize, groups: usize, kh: usize, kw: usize, npc: u64) -> TraceBuffer {
    let per_group = (kh * kw) as u64 * npc;
    let mut buf = TraceBuffer::with_expected(cap, groups as u64 * (1 + 2 * per_group));
    if !buf.enabled() {
        return buf;
    }
    for g in 0..groups {
        let base = g as u64 * per_group;
        buf.record(base, TraceEvent::PhaseStart { label: g as u16 });
        let mut cursor = base;
        for ky in 0..kh {
            for kx in 0..kw {
                let events: Arc<[(u64, TraceEvent)]> = vec![
                    (
                        0,
                        TraceEvent::Mac {
                            ch: g as u16,
                            row: ky as u16,
                            col: kx as u16,
                        },
                    ),
                    (0, TraceEvent::BufferWrite { buffer: 3 }),
                ]
                .into();
                buf.record_block(cursor, 1, npc, events);
                cursor += npc;
            }
        }
    }
    buf
}

// ---------------------------------------------------------------------------
// The baselines: OST T-CONV, WST S-CONV, NLR S-CONV
// ---------------------------------------------------------------------------

/// OST multiplies the zero-inserted map tap by tap, so per output element
/// the only terms that can change the accumulator are ZFOST T-CONV's: the
/// same table, the same walk. What the zeros cost is counted, not computed.
#[allow(clippy::type_complexity)]
pub(super) fn ost_t<T: Num>(
    ost: &Ost,
    phase: &ConvShape,
    input: &Fmaps<T>,
    kernels: &Kernels<T>,
    ws: &mut ExecWorkspace<T>,
    trace_capacity: Option<usize>,
) -> TensorResult<((ExecOutcome<Fmaps<T>>, (u64, u64)), Option<TraceBuffer>)> {
    check_conv(phase, ConvKind::T, input, kernels)?;
    let geom = *phase.geom();
    let (small, large) = (phase.small(), phase.large());
    let (lh, lw) = phase.large_hw();
    let (p_oy, p_ox, p_of) = ost.factors();
    let (kh, kw) = (geom.kh(), geom.kw());
    let fold = (p_of / large).max(1);
    let n_chunks = (lh.div_ceil(p_oy) * lw.div_ceil(p_ox)).div_ceil(fold) as u64;
    let groups = large.div_ceil(p_of);
    let per_chunk = (small * kh * kw) as u64;
    let cycles = groups as u64 * n_chunks * per_chunk;

    let feed = t_feed(phase);
    let output = conv_lanes(&mut ws.lane, phase, input, kernels, 1, Fold::None, feed);
    record_exec("ost/t_conv", cycles);

    // The array fires every `(of, output, sf, tap)` MAC; one is effectual
    // when its tap reads a real pixel (a pair of the table) that is not
    // itself zero.
    let pairs = table_pairs(&ws.lane.offs, lh * lw);
    let in_px = input.height() * input.width();
    let nonzero = |x_ch: &[T]| pairs.clone().filter(|&(_, px)| !x_ch[px].is_zero()).count();
    let real: usize = input.as_slice().chunks_exact(in_px).map(nonzero).sum();
    let effectual = (large * real) as u64;
    let ineffectual = (small * large * lh * lw * kh * kw) as u64 - effectual;

    let trace = trace_capacity.map(|cap| {
        chunked_feed_trace(cap, groups, per_chunk, n_chunks, || {
            mac_raster_events(small, kh, kw)
        })
    });
    Ok((
        (ExecOutcome { output, cycles }, (effectual, ineffectual)),
        trace,
    ))
}

/// How many of `taps` read stream pixel `i` of an S-direction axis for
/// some output `o < out`: `i == stride·o + k − pad`.
fn fired(i: usize, taps: Range<usize>, pad: usize, stride: usize, out: usize) -> usize {
    let reads = |k: &usize| {
        (i + pad)
            .checked_sub(*k)
            .is_some_and(|n| n % stride == 0 && n / stride < out)
    };
    taps.filter(reads).count()
}

/// WST holds one `P_ky × P_kx` block of every kernel at a time and streams
/// the whole input past it, so an output sees its terms block by block:
/// one table segment per block in `(ky_base, kx_base)` order, the raster of
/// the stream putting a block's taps in `(ky, kx)` order. A tap outside the
/// map never fires, so it is no term at all — and no partial-sum access.
#[allow(clippy::type_complexity)]
pub(super) fn wst_s<T: Num>(
    wst: &Wst,
    phase: &ConvShape,
    input: &Fmaps<T>,
    kernels: &Kernels<T>,
    ws: &mut ExecWorkspace<T>,
    trace_capacity: Option<usize>,
) -> TensorResult<((ExecOutcome<Fmaps<T>>, (u64, u64)), Option<TraceBuffer>)> {
    check_conv(phase, ConvKind::S, input, kernels)?;
    let geom = *phase.geom();
    let (small, large) = (phase.small(), phase.large());
    let (sh, sw) = phase.small_hw();
    let (lh, lw) = phase.large_hw();
    let (p_ky, p_kx, p_of) = wst.factors();
    let stride = geom.stride();
    let (kh, kw) = (geom.kh(), geom.kw());
    let (pt, pl) = (geom.pad_top(), geom.pad_left());
    let groups = small.div_ceil(p_of);
    let nxb = kw.div_ceil(p_kx);
    let segs = kh.div_ceil(p_ky) * nxb;
    let per_group = (segs * large * lh * lw) as u64;
    let cycles = groups as u64 * per_group;

    let feed = |row: usize, offs: &mut Vec<u32>| {
        let (pos, seg) = (row / segs, row % segs);
        let (kyb, kxb) = (seg / nxb * p_ky, seg % nxb * p_kx);
        let block = (kyb..(kyb + p_ky).min(kh))
            .flat_map(|ky| (kxb..(kxb + p_kx).min(kw)).map(move |kx| (ky, kx)));
        push_s_taps(offs, phase, pos, block, false);
    };
    let output = conv_lanes(&mut ws.lane, phase, input, kernels, segs, Fold::None, feed);
    record_exec("wst/s_conv", cycles);
    // No stationary psum: every MAC that fires is one read-modify-write
    // through the buffer, per `(of, if)` pair.
    let psums = (small * large * table_pairs(&ws.lane.offs, sh * sw * segs).count()) as u64;

    let trace = trace_capacity.map(|cap| {
        let expected = groups as u64 * (1 + per_group) + 2 * psums;
        let mut buf = TraceBuffer::with_expected(cap, expected);
        if buf.enabled() {
            // Per input position: one stream read, then one psum
            // read/write pair per MAC the grid fires that cycle.
            for g in 0..groups {
                let base = g as u64 * per_group;
                buf.record(base, TraceEvent::PhaseStart { label: g as u16 });
                let n_of = (g * p_of + p_of).min(small) - g * p_of;
                let mut block_base = base;
                for kyb in (0..kh).step_by(p_ky) {
                    for kxb in (0..kw).step_by(p_kx) {
                        let mut events = Vec::new();
                        for iy in 0..lh {
                            let cy = fired(iy, kyb..(kyb + p_ky).min(kh), pt, stride, sh);
                            for ix in 0..lw {
                                let cx = fired(ix, kxb..(kxb + p_kx).min(kw), pl, stride, sw);
                                let rel = (iy * lw + ix) as u64;
                                events.push((rel, TraceEvent::BufferRead { buffer: 1 }));
                                for _ in 0..n_of * cy * cx {
                                    events.push((rel, TraceEvent::BufferRead { buffer: 2 }));
                                    events.push((rel, TraceEvent::BufferWrite { buffer: 2 }));
                                }
                            }
                        }
                        buf.record_block(block_base, (lh * lw) as u64, large as u64, events.into());
                        block_base += (large * lh * lw) as u64;
                    }
                }
            }
        }
        buf
    });
    Ok(((ExecOutcome { output, cycles }, (psums, psums)), trace))
}

/// NLR folds `P_if` input channels of one tap through its adder tree each
/// cycle: channel block → tap → channels. A tap that reads padding is a
/// tree of zeros added to an accumulator that is never `-0`, and is
/// skipped (finite operands, module docs); its weights are still fetched.
#[allow(clippy::type_complexity)]
pub(super) fn nlr_s<T: Num>(
    nlr: &Nlr,
    phase: &ConvShape,
    input: &Fmaps<T>,
    kernels: &Kernels<T>,
    ws: &mut ExecWorkspace<T>,
    trace_capacity: Option<usize>,
) -> TensorResult<((ExecOutcome<Fmaps<T>>, u64), Option<TraceBuffer>)> {
    check_conv(phase, ConvKind::S, input, kernels)?;
    let geom = *phase.geom();
    let (small, large) = (phase.small(), phase.large());
    let (sh, sw) = phase.small_hw();
    let (p_if, p_of) = (nlr.p_if(), nlr.p_of());
    let (kh, kw) = (geom.kh(), geom.kw());
    let groups = small.div_ceil(p_of);
    let nib = large.div_ceil(p_if);
    let per_group = (nib * sh * sw * kh * kw) as u64;
    let cycles = groups as u64 * per_group;
    let weight_fetches = (small * large * sh * sw * kh * kw) as u64;

    let feed = |pos: usize, offs: &mut Vec<u32>| {
        push_s_taps(offs, phase, pos, raster_taps(kh, kw), false);
    };
    let fold = Fold::Channels(p_if);
    let output = conv_lanes(&mut ws.lane, phase, input, kernels, 1, fold, feed);
    record_exec("nlr/s_conv", cycles);

    let trace = trace_capacity.map(|cap| {
        let expected = groups as u64 * (1 + per_group) + weight_fetches;
        let mut buf = TraceBuffer::with_expected(cap, expected);
        if buf.enabled() {
            for g in 0..groups {
                let base = g as u64 * per_group;
                buf.record(base, TraceEvent::PhaseStart { label: g as u16 });
                let n_of = (g * p_of + p_of).min(small) - g * p_of;
                let mut cursor = base;
                for ib in 0..nib {
                    let if_base = ib * p_if;
                    let lanes = (if_base + p_if).min(large) - if_base;
                    for oy in 0..sh {
                        for ox in 0..sw {
                            let mut events = Vec::with_capacity(1 + n_of * lanes);
                            events.push((
                                0,
                                TraceEvent::Mac {
                                    ch: if_base as u16,
                                    row: oy as u16,
                                    col: ox as u16,
                                },
                            ));
                            for _ in 0..n_of * lanes {
                                events.push((0, TraceEvent::BufferRead { buffer: 0 }));
                            }
                            buf.record_block(cursor, 1, (kh * kw) as u64, events.into());
                            cursor += (kh * kw) as u64;
                        }
                    }
                }
            }
        }
        buf
    });
    Ok(((ExecOutcome { output, cycles }, weight_fetches), trace))
}

// ---------------------------------------------------------------------------
// ZFWST S-CONV / T-CONV
// ---------------------------------------------------------------------------

#[allow(clippy::type_complexity)]
pub(super) fn zfwst_s<T: Num>(
    zf: &Zfwst,
    phase: &ConvShape,
    input: &Fmaps<T>,
    kernels: &Kernels<T>,
    ws: &mut ExecWorkspace<T>,
    trace_capacity: Option<usize>,
) -> TensorResult<(ExecOutcome<Fmaps<T>>, Option<TraceBuffer>)> {
    check_conv(phase, ConvKind::S, input, kernels)?;
    let geom = *phase.geom();
    let (small, large) = (phase.small(), phase.large());
    let (sh, sw) = phase.small_hw();
    let (p_ky, p_kx, p_of) = zf.factors();
    let grid = p_ky * p_kx;
    let (kh, kw) = (geom.kh(), geom.kw());
    let pc = (kh * kw).div_ceil(grid);
    let groups = small.div_ceil(p_of);
    let per_group = (sh * sw * large * pc) as u64;
    let cycles = groups as u64 * per_group;

    // Raster taps in chunks of `grid`; a padded tap keeps its slot in the
    // chunk and multiplies a zero inside the tree, as the oracle does.
    let feed = |pos: usize, offs: &mut Vec<u32>| {
        push_s_taps(offs, phase, pos, raster_taps(kh, kw), true);
    };
    let fold = Fold::Taps(grid);
    let output = conv_lanes(&mut ws.lane, phase, input, kernels, 1, fold, feed);
    record_exec("zfwst/s_conv", cycles);

    let trace = trace_capacity.map(|cap| {
        let mut buf = TraceBuffer::with_expected(cap, groups as u64 * (1 + per_group));
        if buf.enabled() {
            for g in 0..groups {
                let base = g as u64 * per_group;
                buf.record(base, TraceEvent::PhaseStart { label: g as u16 });
                let mut cursor = base;
                for oy in 0..sh {
                    for ox in 0..sw {
                        for if_ in 0..large {
                            buf.record_run(
                                cursor,
                                1,
                                pc as u64,
                                TraceEvent::Mac {
                                    ch: if_ as u16,
                                    row: oy as u16,
                                    col: ox as u16,
                                },
                            );
                            cursor += pc as u64;
                        }
                    }
                }
            }
        }
        buf
    });
    Ok((ExecOutcome { output, cycles }, trace))
}

#[allow(clippy::type_complexity)]
pub(super) fn zfwst_t<T: Num>(
    zf: &Zfwst,
    phase: &ConvShape,
    input: &Fmaps<T>,
    kernels: &Kernels<T>,
    ws: &mut ExecWorkspace<T>,
    trace_capacity: Option<usize>,
) -> TensorResult<(ExecOutcome<Fmaps<T>>, Option<TraceBuffer>)> {
    check_conv(phase, ConvKind::T, input, kernels)?;
    let geom = *phase.geom();
    let (small, large) = (phase.small(), phase.large());
    let (lh, lw) = phase.large_hw();
    let (p_ky, p_kx, p_of) = zf.factors();
    let grid = (p_ky * p_kx) as u64;
    let s = geom.stride();
    let passes = (geom.kh().div_ceil(s) * geom.kw().div_ceil(s)).div_ceil(grid as usize) as u64;
    let groups = large.div_ceil(p_of);
    let per_group = (lh * lw * small) as u64 * passes;
    let cycles = groups as u64 * per_group;

    // Only the non-zero taps of each output's parity class, `grid` at a
    // time through the tree.
    let feed = t_feed(phase);
    let fold = Fold::Taps(grid as usize);
    let output = conv_lanes(&mut ws.lane, phase, input, kernels, 1, fold, feed);
    record_exec("zfwst/t_conv", cycles);

    let trace = trace_capacity.map(|cap| {
        // Beats an output really uses: its tabulated taps, `grid` per beat.
        let offs = &ws.lane.offs;
        let used = |pos: usize| u64::from(offs[pos + 1] - offs[pos]).div_ceil(grid);
        let used_total: u64 = (0..lh * lw).map(used).sum();
        let expected = groups as u64 * (1 + small as u64 * used_total);
        let mut buf = TraceBuffer::with_expected(cap, expected);
        if buf.enabled() {
            for g in 0..groups {
                let base = g as u64 * per_group;
                buf.record(base, TraceEvent::PhaseStart { label: g as u16 });
                let mut cursor = base;
                for oy in 0..lh {
                    for ox in 0..lw {
                        for sf in 0..small {
                            buf.record_run(
                                cursor,
                                1,
                                used(oy * lw + ox),
                                TraceEvent::Mac {
                                    ch: sf as u16,
                                    row: oy as u16,
                                    col: ox as u16,
                                },
                            );
                            cursor += passes;
                        }
                    }
                }
            }
        }
        buf
    });
    Ok((ExecOutcome { output, cycles }, trace))
}
