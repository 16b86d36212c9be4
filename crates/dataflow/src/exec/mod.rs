//! Functional executors: the ZFOST / ZFWST dataflows walked tile by tile on
//! real data.
//!
//! Each executor is the cycle-enumerated twin of the corresponding
//! closed-form schedule: it iterates groups → tiles → operand feeds exactly
//! as the hardware would, incrementing a cycle counter per feed and
//! performing the real multiply-accumulates. Two invariants are enforced by
//! the test suite (including property tests over random shapes):
//!
//! * the numerical output equals the `zfgan-tensor` golden reference;
//! * the enumerated cycle count equals [`crate::Dataflow::schedule`]'s
//!   closed form.
//!
//! This is what makes the simulator a *simulator* rather than a spreadsheet:
//! the cycle counts are properties of an executable schedule.
//!
//! # The fast engine and the scalar oracle
//!
//! Two implementations coexist:
//!
//! * [`scalar`] — the original guarded per-element loops, retained verbatim
//!   as the *oracle*. Every access goes through bounds-checked `at()` /
//!   `at_padded()` and every traced event through a per-cycle
//!   `TraceSink::emit`.
//! * `engine` (private; reached through the public entry points below) —
//!   the fast path. All nine executors walk position-major with the
//!   channel lanes innermost: the operand that differs across lanes is
//!   transposed once per call, each output position's taps are tabulated
//!   once, and a 16-wide block of lane accumulators stays in registers
//!   across the oracle's whole term sequence for that position, every
//!   term a broadcast input times a contiguous weight row. The seven
//!   convolutions are one kernel and differ only in their tap table, in
//!   how many segments a position's taps come in, and in the adder tree
//!   (if any) a term passes through; what a baseline's dataflow wastes is
//!   counted, not performed. Contiguous blocks of positions fan out
//!   across the `zfgan-pool` workers. Traced runs emit run-length batches
//!   ([`TraceBuffer::record_run`] / [`TraceBuffer::record_block`]) instead
//!   of per-MAC events.
//!
//! The engine is bit-identical and cycle-identical to the oracle by
//! construction — no executor reorders the sequence of terms an output
//! element accumulates, adder-tree chunks and W-CONV flushes fall where
//! the oracle puts them, tasks own disjoint outputs, cycle counts follow
//! the same closed forms, and the batched trace expands to the identical
//! event stream — and by proptest (`tests/exec_engine.rs` diffs all nine
//! executors against [`scalar`] across adversarial geometries, channel
//! counts around the lane width, and `f64` / `f32` / `Fx`).
//! `benches/exec.rs` gates the resulting speedup on paired ratios.
//!
//! # Precondition: finite operands
//!
//! Where the oracle multiplies a zero the dataflow put there (`at_padded`
//! in ZFOST and NLR S-CONV and the D̄w W-CONV, the inserted and padded
//! zeros of OST T-CONV) the engine skips the term. That is the same bits
//! only while `0 · w` is a zero, i.e. for finite `w`: with an infinite or
//! NaN operand next to such a zero the oracle yields NaN and the engine
//! does not. ZFWST S-CONV multiplies its padded zeros as the oracle does.

use zfgan_sim::trace::{TraceBuffer, TraceEvent};
use zfgan_sim::{ConvKind, ConvShape};
use zfgan_tensor::{Fmaps, Kernels, Num, ShapeError, TensorResult};

use crate::nlr::Nlr;
use crate::ost::Ost;
use crate::wst::Wst;
use crate::zfost::Zfost;
use crate::zfwst::Zfwst;

mod attr;
mod engine;
pub mod scalar;

pub use attr::{attribute_cycles, CycleAttribution};
pub use engine::ExecWorkspace;

/// Result of a functional execution: the computed tensor plus the
/// enumerated cycle count.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome<T> {
    /// The computed output.
    pub output: T,
    /// Cycles counted while walking the schedule.
    pub cycles: u64,
}

/// Optional cycle-stamped event sink threaded through the scalar oracle.
///
/// The untraced entry points pass [`TraceSink::off`] — a null sink whose
/// `emit` is a branch on `None` — so tracing costs nothing unless a
/// `*_traced` wrapper installed a bounded [`TraceBuffer`]. Cycle stamps are
/// emitted in nondecreasing order, the invariant
/// [`TraceBuffer::window`]'s binary search relies on.
pub(crate) struct TraceSink<'a> {
    buf: Option<&'a mut TraceBuffer>,
}

impl<'a> TraceSink<'a> {
    pub(crate) fn off() -> Self {
        TraceSink { buf: None }
    }

    pub(crate) fn to(buf: &'a mut TraceBuffer) -> Self {
        TraceSink { buf: Some(buf) }
    }

    #[inline]
    pub(crate) fn emit(&mut self, cycle: u64, event: TraceEvent) {
        if let Some(buf) = self.buf.as_mut() {
            buf.record(cycle, event);
        }
    }
}

/// Publish one executor run to the telemetry layer: an
/// `exec/<arch>/<kind>` span carrying the enumerated cycle count. No-op
/// when telemetry is off.
pub(crate) fn record_exec(path: &str, cycles: u64) {
    if !zfgan_telemetry::enabled() {
        return;
    }
    let mut span = zfgan_telemetry::span!("exec/{path}");
    span.record("cycles", cycles);
    zfgan_telemetry::count("exec_runs_total", &[("executor", path)], 1);
    zfgan_telemetry::count("exec_cycles_total", &[("executor", path)], cycles);
}

/// Kernel positions in the parity-class feed order of paper Fig. 12(a).
pub(crate) fn kernel_parity_order(kh: usize, kw: usize, stride: usize) -> Vec<(usize, usize)> {
    let mut order = Vec::with_capacity(kh * kw);
    kernel_parity_order_into(kh, kw, stride, &mut order);
    order
}

/// [`kernel_parity_order`] into a caller-provided buffer (cleared first),
/// so the hot path can reuse one allocation per workspace.
pub(crate) fn kernel_parity_order_into(
    kh: usize,
    kw: usize,
    stride: usize,
    order: &mut Vec<(usize, usize)>,
) {
    order.clear();
    order.reserve(kh * kw);
    for ry in 0..stride.min(kh) {
        for rx in 0..stride.min(kw) {
            for ky in (ry..kh).step_by(stride) {
                for kx in (rx..kw).step_by(stride) {
                    order.push((ky, kx));
                }
            }
        }
    }
}

pub(crate) fn check_kind(phase: &ConvShape, expected: ConvKind) -> TensorResult<()> {
    if phase.kind() != expected {
        return Err(ShapeError::new(format!(
            "executor expects a {expected:?} phase, got {:?}",
            phase.kind()
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Public entry points. Every executor has three forms:
//
//   foo(...)            — allocate scratch internally, run the fast engine;
//   foo_ws(..., ws)     — recycle an `ExecWorkspace` (zero-allocation in
//                         steady state; give the returned output back to
//                         the workspace to keep it warm);
//   foo_traced(..., n)  — additionally collect a bounded cycle-stamped
//                         event trace of up to `n` events. A capacity of 0
//                         disables retention entirely: the returned buffer
//                         stays empty (`len() == 0`, `evicted() == 0`)
//                         while the computation and cycle count are
//                         unchanged — the documented tracing-off contract.
// ---------------------------------------------------------------------------

macro_rules! exec_entry {
    (
        $(#[$doc:meta])*
        fn $name:ident / $name_ws:ident / $name_traced:ident,
        engine = $engine:path,
        arch = $arch:ty,
        a = $a:ident : $aty:ty,
        b = $b:ident : $bty:ty,
        out = $out:ty
    ) => {
        $(#[$doc])*
        ///
        /// # Errors
        ///
        /// Returns an error if the operands do not match `phase`.
        pub fn $name<T: Num>(
            arch: &$arch,
            phase: &ConvShape,
            $a: &$aty,
            $b: &$bty,
        ) -> TensorResult<$out> {
            let mut ws = ExecWorkspace::new();
            $name_ws(arch, phase, $a, $b, &mut ws)
        }

        $(#[$doc])*
        ///
        /// This variant recycles `ws` scratch (and draws the output tensor
        /// from it): give the output back via [`ExecWorkspace::give_fmaps`]
        /// / [`ExecWorkspace::give_kernels`] and the steady-state pass
        /// performs zero heap allocations (pinned by `tests/exec_zero_alloc.rs`).
        ///
        /// # Errors
        ///
        /// Returns an error if the operands do not match `phase`.
        pub fn $name_ws<T: Num>(
            arch: &$arch,
            phase: &ConvShape,
            $a: &$aty,
            $b: &$bty,
            ws: &mut ExecWorkspace<T>,
        ) -> TensorResult<$out> {
            Ok($engine(arch, phase, $a, $b, ws, None)?.0)
        }

        $(#[$doc])*
        ///
        /// This variant additionally records a bounded cycle-stamped event
        /// trace of up to `trace_capacity` events (phase starts, operand
        /// feeds, buffer traffic), returned alongside the outcome. Passing
        /// a `trace_capacity` of **0** turns tracing off: the returned
        /// buffer is the disabled [`TraceBuffer`] (empty, nothing counted
        /// as evicted) and the execution itself is unchanged.
        ///
        /// # Errors
        ///
        /// Returns an error if the operands do not match `phase`.
        pub fn $name_traced<T: Num>(
            arch: &$arch,
            phase: &ConvShape,
            $a: &$aty,
            $b: &$bty,
            trace_capacity: usize,
        ) -> TensorResult<($out, TraceBuffer)> {
            let mut ws = ExecWorkspace::new();
            let (outcome, trace) = $engine(arch, phase, $a, $b, &mut ws, Some(trace_capacity))?;
            Ok((outcome, trace.expect("engine returns a buffer when requested")))
        }
    };
}

exec_entry! {
    /// Executes an `S-CONV` phase on a [`Zfost`] array.
    ///
    /// Kernel weights are fed in the parity-reordered order of paper
    /// Fig. 12(a) — `(even,even)`, `(even,odd)`, `(odd,even)`, `(odd,odd)`
    /// — which for `S-CONV` changes the input-register shift pattern but
    /// not the result.
    ///
    /// Bit-identical to [`scalar::zfost_s_conv`] for finite operands: taps
    /// that read padding are skipped, not multiplied (module docs).
    fn zfost_s_conv / zfost_s_conv_ws / zfost_s_conv_traced,
    engine = engine::zfost_s,
    arch = Zfost,
    a = input: Fmaps<T>,
    b = kernels: Kernels<T>,
    out = ExecOutcome<Fmaps<T>>
}

exec_entry! {
    /// Executes a `T-CONV` phase on a [`Zfost`] array.
    ///
    /// One sweep of the `N_ky × N_kx` kernel feeds completes an
    /// `(s·P_oy) × (s·P_ox)` output region: during the feed of kernel
    /// position `(ky, kx)` the PEs compute the output parity class that
    /// position is effective for (paper Fig. 12b), so no inserted zero is
    /// ever multiplied.
    fn zfost_t_conv / zfost_t_conv_ws / zfost_t_conv_traced,
    engine = engine::zfost_t,
    arch = Zfost,
    a = input: Fmaps<T>,
    b = kernels: Kernels<T>,
    out = ExecOutcome<Fmaps<T>>
}

exec_entry! {
    /// Executes the Discriminator-side `W-CONV` (`D̄w`) on a [`Zfwst`]
    /// array: every cycle the adder tree folds `P_ky × P_kx` real error
    /// positions into one `∇W` neuron per channel group.
    ///
    /// Bit-identical to [`scalar::zfwst_wgrad_s`] for finite operands:
    /// positions whose data pixel is padding are skipped, not multiplied
    /// (module docs).
    fn zfwst_wgrad_s / zfwst_wgrad_s_ws / zfwst_wgrad_s_traced,
    engine = engine::wgrad_s,
    arch = Zfwst,
    a = data: Fmaps<T>,
    b = error: Fmaps<T>,
    out = ExecOutcome<Kernels<T>>
}

exec_entry! {
    /// Executes the Generator-side `W-CONV` (`Ḡw`) on a [`Zfwst`] array:
    /// only the real (non-inserted) data pixels are loaded into the
    /// register array and folded through the adder tree.
    fn zfwst_wgrad_t / zfwst_wgrad_t_ws / zfwst_wgrad_t_traced,
    engine = engine::wgrad_t,
    arch = Zfwst,
    a = data: Fmaps<T>,
    b = error: Fmaps<T>,
    out = ExecOutcome<Kernels<T>>
}

exec_entry! {
    /// Executes a `T-CONV` phase on a plain [`Ost`] array — the *baseline*
    /// behaviour the zero-free design fixes. The naive dataflow walks the
    /// zero-inserted input and multiplies whatever it finds; this executor
    /// counts how many of those multiplications had a zero operand, so the
    /// analytical ineffectual-operation census ([`ConvShape::naive_muls`])
    /// is validated against an actual execution.
    ///
    /// Returns the output, the enumerated cycles, and
    /// `(effectual, ineffectual)` multiplication counts.
    ///
    /// Bit-identical to [`scalar::ost_t_conv`] for finite operands: the
    /// multiplications by inserted and padded zeros are counted, not
    /// performed (module docs).
    fn ost_t_conv / ost_t_conv_ws / ost_t_conv_traced,
    engine = engine::ost_t,
    arch = Ost,
    a = input: Fmaps<T>,
    b = kernels: Kernels<T>,
    out = (ExecOutcome<Fmaps<T>>, (u64, u64))
}

exec_entry! {
    /// Executes an `S-CONV` phase on a [`Wst`] array: weights stationary
    /// in the `P_ky × P_kx` grid, one input neuron broadcast per cycle,
    /// partial sums accumulated through the output buffer (counted —
    /// WST's defining cost).
    ///
    /// Returns the output, enumerated cycles, and the observed partial-sum
    /// buffer accesses `(reads, writes)`.
    fn wst_s_conv / wst_s_conv_ws / wst_s_conv_traced,
    engine = engine::wst_s,
    arch = Wst,
    a = input: Fmaps<T>,
    b = kernels: Kernels<T>,
    out = (ExecOutcome<Fmaps<T>>, (u64, u64))
}

exec_entry! {
    /// Executes an `S-CONV` phase on an [`Nlr`] array: `P_if` input lanes
    /// fold through the adder tree into `P_of` output channels; no operand
    /// is kept locally, so every cycle re-fetches its weights (the counted
    /// cost).
    ///
    /// Returns the output, enumerated cycles and the observed weight
    /// fetches.
    ///
    /// Bit-identical to [`scalar::nlr_s_conv`] for finite operands: a tap
    /// that reads padding is skipped, not multiplied (module docs).
    fn nlr_s_conv / nlr_s_conv_ws / nlr_s_conv_traced,
    engine = engine::nlr_s,
    arch = Nlr,
    a = input: Fmaps<T>,
    b = kernels: Kernels<T>,
    out = (ExecOutcome<Fmaps<T>>, u64)
}

exec_entry! {
    /// Executes an `S-CONV` phase on a [`Zfwst`] array (the
    /// cross-assignment the paper evaluates in Fig. 15): the layer kernel
    /// is held stationary in the `P_ky × P_kx` grid and the adder tree
    /// folds one output neuron's worth of products per cycle per channel,
    /// accumulating across input maps.
    fn zfwst_s_conv / zfwst_s_conv_ws / zfwst_s_conv_traced,
    engine = engine::zfwst_s,
    arch = Zfwst,
    a = input: Fmaps<T>,
    b = kernels: Kernels<T>,
    out = ExecOutcome<Fmaps<T>>
}

exec_entry! {
    /// Executes a `T-CONV` phase on a [`Zfwst`] array: only the non-zero
    /// kernel taps of each output's parity class are made stationary
    /// ("we only allocate non-zero kernel weights to PEs"), so the tree
    /// folds ~`k²/s²` effective taps per output instead of `k²`.
    fn zfwst_t_conv / zfwst_t_conv_ws / zfwst_t_conv_traced,
    engine = engine::zfwst_t,
    arch = Zfwst,
    a = input: Fmaps<T>,
    b = kernels: Kernels<T>,
    out = ExecOutcome<Fmaps<T>>
}

#[cfg(test)]
mod tests;
