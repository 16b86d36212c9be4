//! RS — Row-Stationary (Eyeriss-style), an *extension* beyond the paper's
//! evaluated baselines.
//!
//! The paper's related-work section argues that Eyeriss' row-stationary
//! dataflow, although excellent at data reuse, "could not handle the
//! zero-inserting in the kernel for W-CONV" — it *gates* zero computations
//! (saving energy) but cannot *skip* them (saving cycles). This module
//! models that behaviour so the claim is checkable against ZFOST/ZFWST.
//!
//! Mapping: a `P_h × P_w` grid where each PE runs a 1-D convolution
//! primitive — one kernel row stationary per PE row, input rows reused
//! diagonally, partial sums accumulated vertically — with `P_of` grid
//! copies across output channels:
//!
//! ```text
//! cycles(S/T) = N_oy · ⌈N_ox/P_w⌉ · N_kx · ⌈N_ky/P_h⌉ · N_if · ⌈N_of/P_of⌉
//! ```
//!
//! Zeros in a zero-inserted operand are **gated**: their MACs still occupy
//! a cycle slot, but their energy (and the operand fetch) is suppressed,
//! which the access counts reflect.

use zfgan_sim::{AccessCounts, ConvKind, ConvShape, PhaseStats};

use crate::arch::{ceil_div, ArchKind, Dataflow};

/// A row-stationary configuration (`P_h` kernel-row lanes × `P_w` output
/// columns × `P_of` channel copies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowStationary {
    p_h: u64,
    p_w: u64,
    p_of: u64,
}

impl RowStationary {
    /// Creates a row-stationary array.
    ///
    /// # Panics
    ///
    /// Panics if any factor is zero.
    pub fn new(p_h: usize, p_w: usize, p_of: usize) -> Self {
        assert!(
            p_h > 0 && p_w > 0 && p_of > 0,
            "unrolling factors must be non-zero"
        );
        Self {
            p_h: p_h as u64,
            p_w: p_w as u64,
            p_of: p_of as u64,
        }
    }

    /// `(P_h, P_w, P_of)`.
    pub fn factors(&self) -> (usize, usize, usize) {
        (self.p_h as usize, self.p_w as usize, self.p_of as usize)
    }
}

impl Dataflow for RowStationary {
    fn kind(&self) -> ArchKind {
        // Reported under the OST family for display purposes; RS is an
        // extension, not one of the paper's five.
        ArchKind::Ost
    }

    fn n_pes(&self) -> u64 {
        self.p_h * self.p_w * self.p_of
    }

    /// Unrecorded: `schedule/*` telemetry under the borrowed OST label would
    /// pass an extension off as one of the paper's five.
    fn schedule(&self, phase: &ConvShape) -> PhaseStats {
        self.model(phase, phase.effectual_macs())
    }

    fn model(&self, phase: &ConvShape, effectual_macs: u64) -> PhaseStats {
        let geom = *phase.geom();
        let (kh, kw) = (geom.kh() as u64, geom.kw() as u64);
        let stride = geom.stride() as u64;
        let (sh, sw) = phase.small_hw();
        let (lh, lw) = phase.large_hw();
        let (zh, zw) = geom.zero_inserted(sh, sw);
        let (small, large) = (phase.small() as u64, phase.large() as u64);
        let pairs = small * large;
        let row_passes = ceil_div(kh, self.p_h);

        let (cycles, real_inputs) = match phase.kind() {
            ConvKind::S => {
                let groups = ceil_div(small, self.p_of);
                let c =
                    sh as u64 * ceil_div(sw as u64, self.p_w) * kw * row_passes * large * groups;
                (c, large * (lh * lw) as u64 * groups)
            }
            // Zero-inserted input: gated, not skipped — the full inserted
            // grid is walked.
            ConvKind::T => {
                let groups = ceil_div(large, self.p_of);
                let c =
                    lh as u64 * ceil_div(lw as u64, self.p_w) * kw * row_passes * small * groups;
                (c, small * (sh * sw) as u64 * groups)
            }
            // W-CONV: gradient rows stationary; the dilated error (D̄w) or
            // zero-inserted data (Ḡw) is walked in full (gated, not
            // skipped).
            ConvKind::WGradS => {
                let (dh, dw) = (stride * (sh as u64 - 1) + 1, stride * (sw as u64 - 1) + 1);
                let groups = ceil_div(pairs, self.p_of);
                let cycles = ceil_div(kh, self.p_h) * ceil_div(kw, self.p_w) * dh * dw * groups;
                (cycles, large * (lh * lw) as u64 * groups)
            }
            ConvKind::WGradT => {
                let groups = ceil_div(pairs, self.p_of);
                let cycles =
                    ceil_div(kh, self.p_h) * ceil_div(kw, self.p_w) * (zh * zw) as u64 * groups;
                (cycles, small * (sh * sw) as u64 * groups)
            }
        };

        PhaseStats {
            cycles,
            effectual_macs,
            n_pes: self.n_pes(),
            access: AccessCounts {
                // One kernel row set per pass, stationary afterwards.
                weight_reads: pairs * kh * kw,
                // Diagonal reuse: each *real* input value enters once per
                // group (gating suppresses fetches of inserted zeros).
                input_reads: real_inputs,
                // Vertical psum accumulation: one spill per row pass.
                output_reads: phase.output_count() * (row_passes - 1),
                output_writes: phase.output_count() * row_passes,
            },
            dram: Default::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zfost::Zfost;
    use crate::zfwst::Zfwst;
    use zfgan_tensor::ConvGeom;

    fn dcgan_l1(kind: ConvKind) -> ConvShape {
        let geom = ConvGeom::down(64, 64, 4, 4, 2, 32, 32).unwrap();
        ConvShape::new(kind, geom, 64, 3, 64, 64)
    }

    fn rs() -> RowStationary {
        // 4 kernel rows × 4 columns × 75 channels = 1200 PEs.
        RowStationary::new(4, 4, 75)
    }

    #[test]
    fn s_conv_cycles_follow_closed_form() {
        let s = rs().schedule(&dcgan_l1(ConvKind::S));
        // 32 rows · ⌈32/4⌉ cols · 4 kx · 1 row-pass · 3 maps · 1 group.
        assert_eq!(s.cycles, 32 * 8 * 4 * 3);
        assert!(s.utilization() > 0.8);
    }

    #[test]
    fn gates_but_cannot_skip_inserted_zeros() {
        // The related-work claim: RS walks the zero-inserted grid, so
        // ZFOST's cycle count is ~4× better on T-CONV…
        let t = dcgan_l1(ConvKind::T);
        let rs_t = rs().schedule(&t);
        let zf_t = Zfost::new(4, 4, 75).schedule(&t);
        assert!(rs_t.cycles as f64 / zf_t.cycles as f64 > 3.0);
        // …and ZFWST is far better on Ḡw.
        let gw = dcgan_l1(ConvKind::WGradT);
        let rs_gw = RowStationary::new(4, 4, 30).schedule(&gw);
        let zf_gw = Zfwst::new(4, 4, 30).schedule(&gw);
        assert!(rs_gw.cycles as f64 / zf_gw.cycles as f64 > 3.0);
    }

    #[test]
    fn gating_keeps_input_reads_low() {
        // Unlike OST-on-S, RS keeps its diagonal reuse: input reads stay
        // near one per real input value.
        let s = rs().schedule(&dcgan_l1(ConvKind::S));
        assert_eq!(s.access.input_reads, 3 * 64 * 64);
        let t = rs().schedule(&dcgan_l1(ConvKind::T));
        assert_eq!(t.access.input_reads, 64 * 32 * 32);
    }

    #[test]
    fn psums_spill_once_per_extra_row_pass() {
        // A 5×5 kernel on a 4-row array needs 2 passes ⇒ 1 psum round trip.
        let geom = ConvGeom::down(28, 28, 5, 5, 2, 14, 14).unwrap();
        let phase = ConvShape::new(ConvKind::S, geom, 8, 1, 28, 28);
        let s = RowStationary::new(4, 4, 8).schedule(&phase);
        assert_eq!(s.access.output_writes, 2 * phase.output_count());
        assert_eq!(s.access.output_reads, phase.output_count());
    }
}
