//! Register-transfer-level model of the ZFOST array (paper Fig. 11).
//!
//! The closed-form schedules count cycles; the functional executors verify
//! the numerics; this module goes one level deeper and models the
//! *hardware state* the paper draws:
//!
//! * an **input register lattice** shared by all PE channels — one register
//!   per PE plus a halo ring. Adjacent registers hold input pixels
//!   `stride` apart (the output-stationary spacing), and data moves
//!   between them only by unit shifts along the register chains (the
//!   arrows of Fig. 12) or by explicit loads from the on-chip buffer;
//! * one **weight broadcast bus** per channel;
//! * a `P_oy × P_ox` grid of PEs per channel, each hard-wired to one fixed
//!   register tap and owning one stationary output accumulator.
//!
//! Each cycle the controller may shift the lattice (concurrent with
//! compute, no cycle cost), loads any tap whose required value the shift
//! network could not deliver (each load is an on-chip buffer read — the
//! Fig. 16 currency), then broadcasts one weight per channel and fires the
//! MACs.
//!
//! The decisive physics: a shift moves every register's content by
//! `stride` input pixels. Kernel-position steps of `±stride` (what the
//! parity-reordered feed produces within a class) are therefore one shift;
//! steps of `±1` (raster order on a strided layer) are *unrepresentable*
//! on the lattice and force a full reload. Running both orders through
//! this machine **measures** the load explosion the paper describes in
//! §III-C3 instead of assuming it.

use zfgan_sim::trace::{TraceBuffer, TraceEvent};
use zfgan_sim::{ConvKind, ConvShape};
use zfgan_tensor::{Fmaps, Kernels, Num, ShapeError, TensorResult};

use crate::zfost::Zfost;

/// Observed hardware-event counters of an RTL run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RtlCounters {
    /// Input-buffer reads (register loads the shift network couldn't cover).
    pub input_loads: u64,
    /// Lattice shift operations (free in hardware; counted for interest).
    pub shifts: u64,
    /// MAC operations fired.
    pub macs: u64,
    /// Cycles elapsed.
    pub cycles: u64,
}

/// Outcome of an RTL run: the computed output plus the observed counters
/// and, when requested, a bounded event trace.
#[derive(Debug, Clone)]
pub struct RtlOutcome<T> {
    /// The computed output feature maps.
    pub output: Fmaps<T>,
    /// Observed hardware-event counters.
    pub counters: RtlCounters,
    /// Cycle-stamped event trace (present for `rtl_s_conv_traced`).
    pub trace: Option<TraceBuffer>,
}

/// One register of the lattice: the input coordinate it holds plus the
/// value (None = invalid / not yet loaded).
type Reg<T> = Option<(isize, isize, T)>;

struct Lattice<T> {
    rows: usize,
    cols: usize,
    regs: Vec<Reg<T>>,
    counters: RtlCounters,
    trace: Option<TraceBuffer>,
}

impl<T: Num> Lattice<T> {
    fn new(rows: usize, cols: usize, trace_capacity: Option<usize>) -> Self {
        Self {
            rows,
            cols,
            regs: vec![None; rows * cols],
            counters: RtlCounters::default(),
            trace: trace_capacity.map(TraceBuffer::new),
        }
    }

    fn invalidate(&mut self) {
        for r in &mut self.regs {
            *r = None;
        }
    }

    fn at(&self, ry: usize, rx: usize) -> Reg<T> {
        self.regs[ry * self.cols + rx]
    }

    fn set(&mut self, ry: usize, rx: usize, v: Reg<T>) {
        self.regs[ry * self.cols + rx] = v;
    }

    /// Moves every register's content one lattice position; entering-edge
    /// registers become invalid (their loads are charged when used).
    fn shift(&mut self, dy: isize, dx: isize) {
        debug_assert!(
            dy.abs() <= 1 && dx.abs() <= 1,
            "register chains shift by one"
        );
        if dy == 0 && dx == 0 {
            return;
        }
        self.counters.shifts += 1;
        if let Some(t) = &mut self.trace {
            t.record(
                self.counters.cycles,
                TraceEvent::Shift {
                    dy: dy as i8,
                    dx: dx as i8,
                },
            );
        }
        let mut next = vec![None; self.regs.len()];
        for ry in 0..self.rows {
            for rx in 0..self.cols {
                let ty = ry as isize - dy;
                let tx = rx as isize - dx;
                if ty >= 0 && tx >= 0 && (ty as usize) < self.rows && (tx as usize) < self.cols {
                    next[ty as usize * self.cols + tx as usize] = self.at(ry, rx);
                }
            }
        }
        self.regs = next;
    }

    /// Makes the tap `(ry, rx)` hold input `(iy, ix)`, loading from the
    /// buffer (and counting it) if the shift network didn't deliver it.
    fn ensure(
        &mut self,
        input: &Fmaps<T>,
        ch: usize,
        ry: usize,
        rx: usize,
        iy: isize,
        ix: isize,
    ) -> T {
        if let Some((cy, cx, v)) = self.at(ry, rx) {
            if cy == iy && cx == ix {
                return v;
            }
        }
        self.counters.input_loads += 1;
        if let Some(t) = &mut self.trace {
            t.record(self.counters.cycles, TraceEvent::BufferRead { buffer: 0 });
        }
        let v = input.at_padded(ch, iy, ix);
        self.set(ry, rx, Some((iy, ix, v)));
        v
    }
}

/// Runs an `S-CONV` phase through the RTL array.
///
/// `reordered` selects the paper's parity kernel-feed order (Fig. 12a);
/// `false` feeds the kernel in raster order, reproducing the broken-reuse
/// baseline of §III-C3. Both orders compute identical results; only the
/// observed load counts differ.
///
/// # Errors
///
/// Returns an error if operands do not match `phase`.
pub fn rtl_s_conv<T: Num>(
    zf: &Zfost,
    phase: &ConvShape,
    input: &Fmaps<T>,
    kernels: &Kernels<T>,
    reordered: bool,
) -> TensorResult<RtlOutcome<T>> {
    rtl_s_conv_inner(zf, phase, input, kernels, reordered, None)
}

/// [`rtl_s_conv`] with a bounded event trace of up to `trace_capacity`
/// shift/load events attached to the outcome.
///
/// # Errors
///
/// Same conditions as [`rtl_s_conv`].
pub fn rtl_s_conv_traced<T: Num>(
    zf: &Zfost,
    phase: &ConvShape,
    input: &Fmaps<T>,
    kernels: &Kernels<T>,
    reordered: bool,
    trace_capacity: usize,
) -> TensorResult<RtlOutcome<T>> {
    rtl_s_conv_inner(zf, phase, input, kernels, reordered, Some(trace_capacity))
}

fn rtl_s_conv_inner<T: Num>(
    zf: &Zfost,
    phase: &ConvShape,
    input: &Fmaps<T>,
    kernels: &Kernels<T>,
    reordered: bool,
    trace_capacity: Option<usize>,
) -> TensorResult<RtlOutcome<T>> {
    if phase.kind() != ConvKind::S {
        return Err(ShapeError::new("rtl_s_conv expects an S phase"));
    }
    let geom = *phase.geom();
    let (small, large) = (phase.small(), phase.large());
    let (sh, sw) = phase.small_hw();
    let (lh, lw) = phase.large_hw();
    if input.shape() != (large, lh, lw) {
        return Err(ShapeError::new("input does not match phase's large side"));
    }
    if kernels.shape() != (small, large, geom.kh(), geom.kw()) {
        return Err(ShapeError::new("kernels do not match phase channels"));
    }
    let s = geom.stride() as isize;
    let (kh, kw) = (geom.kh(), geom.kw());
    let (pt, pl) = (geom.pad_top() as isize, geom.pad_left() as isize);
    let (p_oy, p_ox, p_of) = zf.factors();

    let order: Vec<(usize, usize)> = if reordered {
        crate::exec::kernel_parity_order(kh, kw, geom.stride())
    } else {
        (0..kh)
            .flat_map(|ky| (0..kw).map(move |kx| (ky, kx)))
            .collect()
    };

    let mut lattice: Lattice<T> = Lattice::new(p_oy, p_ox, trace_capacity);
    let mut out: Fmaps<T> = Fmaps::zeros(small, sh, sw);
    let mut acc = vec![vec![T::zero(); p_oy * p_ox]; p_of];

    for of_base in (0..small).step_by(p_of) {
        let of_end = (of_base + p_of).min(small);
        for ty in 0..sh.div_ceil(p_oy) {
            for tx in 0..sw.div_ceil(p_ox) {
                for if_ in 0..large {
                    for ch in &mut acc {
                        for a in ch.iter_mut() {
                            *a = T::zero();
                        }
                    }
                    // New (tile, map): lattice contents are stale.
                    lattice.invalidate();
                    let mut prev: Option<(usize, usize)> = None;
                    for &(ky, kx) in &order {
                        // The lattice can absorb a kernel step of exactly
                        // ±stride per axis with one shift; anything else
                        // (the raster order's ±1 on a strided layer, or a
                        // parity-class change) leaves the taps stale and
                        // they reload below.
                        if let Some((pky, pkx)) = prev {
                            let dy = ky as isize - pky as isize;
                            let dx = kx as isize - pkx as isize;
                            let sy = if dy.abs() == s { dy.signum() } else { 0 };
                            let sx = if dx.abs() == s { dx.signum() } else { 0 };
                            if (sy != 0 || sx != 0)
                                && (dy == 0 || dy.abs() == s)
                                && (dx == 0 || dx.abs() == s)
                            {
                                lattice.shift(sy, sx);
                            }
                        }
                        prev = Some((ky, kx));
                        lattice.counters.cycles += 1;
                        for (ci, of) in (of_base..of_end).enumerate() {
                            let w = *kernels.at(of, if_, ky, kx);
                            for py in 0..p_oy {
                                let oy = ty * p_oy + py;
                                if oy >= sh {
                                    continue;
                                }
                                for px in 0..p_ox {
                                    let ox = tx * p_ox + px;
                                    if ox >= sw {
                                        continue;
                                    }
                                    let iy = s * oy as isize + ky as isize - pt;
                                    let ix = s * ox as isize + kx as isize - pl;
                                    // The lattice is one physical structure
                                    // broadcast to every channel: only the
                                    // first channel touches the buffer.
                                    let v = if ci == 0 {
                                        lattice.ensure(input, if_, py, px, iy, ix)
                                    } else {
                                        lattice
                                            .at(py, px)
                                            .map(|(_, _, v)| v)
                                            .unwrap_or_else(T::zero)
                                    };
                                    lattice.counters.macs += 1;
                                    acc[ci][py * p_ox + px].mul_add_assign(v, w);
                                }
                            }
                        }
                    }
                    // Stationary outputs accumulate across input maps.
                    for (ci, of) in (of_base..of_end).enumerate() {
                        for py in 0..p_oy {
                            let oy = ty * p_oy + py;
                            if oy >= sh {
                                continue;
                            }
                            for px in 0..p_ox {
                                let ox = tx * p_ox + px;
                                if ox >= sw {
                                    continue;
                                }
                                *out.at_mut(of, oy, ox) += acc[ci][py * p_ox + px];
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(RtlOutcome {
        output: out,
        counters: lattice.counters,
        trace: lattice.trace,
    })
}

/// Runs both feed orders on the same operands and returns
/// `(reordered_loads, raster_loads)`.
///
/// # Errors
///
/// Propagates operand mismatches from [`rtl_s_conv`].
pub fn reorder_load_comparison<T: Num>(
    zf: &Zfost,
    phase: &ConvShape,
    input: &Fmaps<T>,
    kernels: &Kernels<T>,
) -> TensorResult<(u64, u64)> {
    let a = rtl_s_conv(zf, phase, input, kernels, true)?;
    let b = rtl_s_conv(zf, phase, input, kernels, false)?;
    // The two feed orders add the same products in different orders, so
    // their float outputs agree up to rounding, which scales with the sums.
    debug_assert!({
        let scale = a
            .output
            .iter()
            .map(|v| v.to_f64().abs())
            .fold(1.0, f64::max);
        a.output.max_abs_diff(&b.output) <= 1e-5 * scale
    });
    Ok((a.counters.input_loads, b.counters.input_loads))
}

/// RTL model of the ZFWST array (paper Fig. 13): a `P_ky × P_kx` grid of
/// stationary-operand registers feeding a binary **adder tree**, one tree
/// per channel, with a ping-pong partial-sum register at the root.
///
/// The tree is modelled structurally — a reduction over explicit levels —
/// so the cycle semantics ("all the PEs contribute to one output neuron
/// using the adder tree") is executable rather than asserted: every cycle
/// consumes one grid-full of (stationary × streamed) products per channel
/// and emits exactly one partial sum.
#[derive(Debug)]
pub struct ZfwstTree<T> {
    grid: usize,
    stationary: Vec<T>,
    counters: RtlCounters,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Num> ZfwstTree<T> {
    /// Builds a tree for a `p_ky × p_kx` grid.
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty.
    pub fn new(p_ky: usize, p_kx: usize) -> Self {
        assert!(p_ky > 0 && p_kx > 0, "grid must be non-empty");
        Self {
            grid: p_ky * p_kx,
            stationary: vec![T::zero(); p_ky * p_kx],
            counters: RtlCounters::default(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Loads a chunk of stationary operands into the PE registers (each
    /// load is a buffer read). Slots beyond `values.len()` hold zero —
    /// idle PEs, visible as utilization loss.
    pub fn load_stationary(&mut self, values: &[T]) {
        assert!(values.len() <= self.grid, "chunk exceeds the grid");
        for (slot, v) in self.stationary.iter_mut().zip(values) {
            *slot = *v;
            self.counters.input_loads += 1;
        }
        for slot in self.stationary.iter_mut().skip(values.len()) {
            *slot = T::zero();
        }
    }

    /// One cycle: multiply each stationary register with its streamed
    /// operand and fold the products through the adder tree, returning the
    /// root's partial sum.
    ///
    /// # Panics
    ///
    /// Panics if `streamed` does not cover the grid.
    pub fn cycle(&mut self, streamed: &[T]) -> T {
        assert!(streamed.len() <= self.grid, "stream exceeds the grid");
        self.counters.cycles += 1;
        // Level 0: the PE multipliers.
        let mut level: Vec<T> = self
            .stationary
            .iter()
            .zip(streamed.iter().chain(std::iter::repeat(&T::zero())))
            .map(|(&a, &b)| {
                self.counters.macs += 1;
                a * b
            })
            .collect();
        // Reduction levels: pairwise adds until one value remains — the
        // structural adder tree.
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| pair.iter().fold(T::zero(), |s, &v| s + v))
                .collect();
        }
        level[0]
    }

    /// The counters accumulated so far.
    pub fn counters(&self) -> RtlCounters {
        self.counters
    }
}

/// Computes one `D̄w` gradient neuron through the [`ZfwstTree`], streaming
/// the real error values in grid-sized chunks with their matching data
/// operands — the Fig. 13 dataflow for a single `(of, if, ky, kx)` output.
///
/// Returns `(value, cycles_used)`. The caller loops this over the gradient
/// tensor; the per-output cycles equal `⌈sh·sw / grid⌉`, the closed-form
/// model's inner factor.
pub fn tree_wgrad_neuron<T: Num>(
    tree: &mut ZfwstTree<T>,
    err_chunked: &[T],
    data_chunked: &[T],
    grid: usize,
) -> (T, u64) {
    assert_eq!(
        err_chunked.len(),
        data_chunked.len(),
        "operand streams must pair up"
    );
    let mut acc = T::zero();
    let mut cycles = 0u64;
    for (e_chunk, d_chunk) in err_chunked.chunks(grid).zip(data_chunked.chunks(grid)) {
        tree.load_stationary(e_chunk);
        acc += tree.cycle(d_chunk);
        cycles += 1;
    }
    (acc, cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Dataflow;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use zfgan_tensor::{s_conv, ConvGeom};

    fn setup() -> (ConvShape, Fmaps<f64>, Kernels<f64>, Zfost) {
        let mut rng = SmallRng::seed_from_u64(5);
        let geom = ConvGeom::down(16, 16, 4, 4, 2, 8, 8).unwrap();
        let phase = ConvShape::new(ConvKind::S, geom, 6, 2, 16, 16);
        let x: Fmaps<f64> = Fmaps::random(2, 16, 16, 1.0, &mut rng);
        let k: Kernels<f64> = Kernels::random(6, 2, 4, 4, 1.0, &mut rng);
        (phase, x, k, Zfost::new(4, 4, 3))
    }

    #[test]
    fn rtl_computes_the_reference_result() {
        let (phase, x, k, zf) = setup();
        for reordered in [true, false] {
            let rtl = rtl_s_conv(&zf, &phase, &x, &k, reordered).unwrap();
            let reference = s_conv(&x, &k, phase.geom()).unwrap();
            assert!(
                rtl.output.max_abs_diff(&reference) < 1e-9,
                "reordered={reordered}: diff {}",
                rtl.output.max_abs_diff(&reference)
            );
        }
    }

    #[test]
    fn rtl_cycles_and_macs_match_the_models() {
        let (phase, x, k, zf) = setup();
        let rtl = rtl_s_conv(&zf, &phase, &x, &k, true).unwrap();
        assert_eq!(rtl.counters.cycles, zf.schedule(&phase).cycles);
        // Every effectual MAC fires exactly once (edge PEs idle off-range).
        assert_eq!(rtl.counters.macs, phase.effectual_macs());
    }

    #[test]
    fn reorder_slashes_the_observed_loads() {
        let (phase, x, k, zf) = setup();
        let (reordered, raster) = reorder_load_comparison(&zf, &phase, &x, &k).unwrap();
        // Raster order reloads all 16 taps nearly every cycle; the parity
        // order shifts within classes and reloads only on class changes.
        assert!(
            raster as f64 / reordered as f64 > 1.5,
            "raster {raster} vs reordered {reordered}"
        );
        // Sanity floor: the reordered machine still loads each tile's
        // working set at least once.
        assert!(reordered >= phase.real_input_count() / 4);
    }

    #[test]
    fn shifts_only_happen_under_reordering() {
        let (phase, x, k, zf) = setup();
        let a = rtl_s_conv(&zf, &phase, &x, &k, true).unwrap();
        let b = rtl_s_conv(&zf, &phase, &x, &k, false).unwrap();
        assert!(
            a.counters.shifts > 0,
            "parity order should exploit the chains"
        );
        assert_eq!(
            b.counters.shifts, 0,
            "raster steps of ±1 are unrepresentable on the stride-2 lattice"
        );
    }

    #[test]
    fn traced_run_records_shift_and_load_events() {
        let (phase, x, k, zf) = setup();
        let rtl = rtl_s_conv_traced(&zf, &phase, &x, &k, true, 64).unwrap();
        let trace = rtl.trace.expect("trace requested");
        assert!(!trace.is_empty());
        let has_shift = trace
            .iter()
            .any(|(_, e)| matches!(e, zfgan_sim::trace::TraceEvent::Shift { .. }));
        let has_load = trace
            .iter()
            .any(|(_, e)| matches!(e, zfgan_sim::trace::TraceEvent::BufferRead { .. }));
        assert!(has_shift && has_load, "trace:\n{}", trace.render());
        // The capacity bound keeps memory flat while keeping truncation
        // visible.
        assert!(trace.len() <= 64);
        assert!(trace.evicted() > 0);
    }

    #[test]
    fn adder_tree_folds_a_dot_product_per_cycle() {
        let mut tree: ZfwstTree<f64> = ZfwstTree::new(4, 4);
        let a: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..16).map(|i| (i as f64) * 0.5).collect();
        tree.load_stationary(&a);
        let got = tree.cycle(&b);
        let want: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((got - want).abs() < 1e-12);
        assert_eq!(tree.counters().cycles, 1);
        assert_eq!(tree.counters().macs, 16);
    }

    #[test]
    fn tree_wgrad_matches_reference_and_cycle_model() {
        // One ∇W neuron of the D̄w phase: dot product of the error map with
        // stride-aligned data, folded 16 values per cycle.
        let mut rng = SmallRng::seed_from_u64(9);
        let geom = ConvGeom::down(16, 16, 4, 4, 2, 8, 8).unwrap();
        let data: Fmaps<f64> = Fmaps::random(1, 16, 16, 1.0, &mut rng);
        let err: Fmaps<f64> = Fmaps::random(1, 8, 8, 1.0, &mut rng);
        let (ky, kx) = (1usize, 2usize);
        let mut e_stream = Vec::new();
        let mut d_stream = Vec::new();
        for oy in 0..8 {
            for ox in 0..8 {
                e_stream.push(*err.at(0, oy, ox));
                let iy = 2 * oy as isize + ky as isize - 1;
                let ix = 2 * ox as isize + kx as isize - 1;
                d_stream.push(data.at_padded(0, iy, ix));
            }
        }
        let mut tree: ZfwstTree<f64> = ZfwstTree::new(4, 4);
        let (value, cycles) = tree_wgrad_neuron(&mut tree, &e_stream, &d_stream, 16);
        let reference = zfgan_tensor::w_conv_for_s_layer(&data, &err, &geom).unwrap();
        assert!((value - reference.at(0, 0, ky, kx).to_f64()).abs() < 1e-9);
        // ⌈64/16⌉ = 4 cycles per output neuron — the closed-form inner term.
        assert_eq!(cycles, 4);
    }

    #[test]
    fn partially_filled_tree_shows_idle_lanes() {
        let mut tree: ZfwstTree<f64> = ZfwstTree::new(4, 4);
        tree.load_stationary(&[1.0, 2.0]);
        let got = tree.cycle(&[10.0, 100.0]);
        assert_eq!(got, 210.0);
        // MACs still fire on idle lanes (zeros) — that is the utilization
        // loss the schedules report.
        assert_eq!(tree.counters().macs, 16);
    }

    #[test]
    fn unit_stride_layers_shift_in_any_order() {
        // With stride 1 the lattice spacing matches raster steps, so even
        // the naive order reuses via shifts — OST's classical behaviour on
        // traditional CNN layers (paper Fig. 7a).
        let mut rng = SmallRng::seed_from_u64(6);
        let geom = ConvGeom::symmetric(3, 3, 1, 1).unwrap();
        let phase = ConvShape::new(ConvKind::S, geom, 4, 2, 8, 8);
        let x: Fmaps<f64> = Fmaps::random(2, 8, 8, 1.0, &mut rng);
        let k: Kernels<f64> = Kernels::random(4, 2, 3, 3, 1.0, &mut rng);
        let zf = Zfost::new(4, 4, 2);
        let raster = rtl_s_conv(&zf, &phase, &x, &k, false).unwrap();
        assert!(raster.counters.shifts > 0);
        let reference = s_conv(&x, &k, &geom).unwrap();
        assert!(raster.output.max_abs_diff(&reference) < 1e-9);
    }
}
