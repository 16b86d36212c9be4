//! NLR — No-Local-Reuse (paper Fig. 5a), improved with zero-skipping.
//!
//! NLR unrolls Loop-1: `P_if` multipliers per output channel feed an adder
//! tree, `P_of` channels run in parallel, and one input neuron is spatially
//! shared by all `P_of` channels. No operand is kept in a PE register, so
//! every multiply re-reads its weight from the on-chip buffer.
//!
//! Per the paper's evaluation methodology ("we optimize the dataflow of NLR
//! so that it can skip over zeros in its input data and kernel weights"),
//! this model charges NLR only for *effectual* multiplications on `S-CONV`
//! and `T-CONV`:
//!
//! ```text
//! cycles(S/T) = ⌈N_of/P_of⌉ · ⌈N_if/P_if⌉ · E_pair
//! ```
//!
//! where `E_pair` is the effectual multiplications per (input map, output
//! map) pair. For the four-dimensional `W-CONV`, each output neuron sums
//! contributions of a *single* input map, so the adder tree is useless and
//! only `P_of` of the `P_if × P_of` multipliers do work (paper §III-C1):
//!
//! ```text
//! cycles(W) = ⌈E_total / P_of⌉
//! ```

use zfgan_sim::{AccessCounts, ConvKind, ConvShape, PhaseStats};

use crate::arch::{ceil_div, ArchKind, Dataflow};

/// An NLR configuration (`P_if × P_of` multipliers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Nlr {
    p_if: u64,
    p_of: u64,
}

impl Nlr {
    /// Creates an NLR array with `p_if` input-map lanes and `p_of` output
    /// channels.
    ///
    /// # Panics
    ///
    /// Panics if either factor is zero.
    pub fn new(p_if: usize, p_of: usize) -> Self {
        assert!(p_if > 0 && p_of > 0, "unrolling factors must be non-zero");
        Self {
            p_if: p_if as u64,
            p_of: p_of as u64,
        }
    }

    /// The `P_if` unrolling factor.
    pub fn p_if(&self) -> usize {
        self.p_if as usize
    }

    /// The `P_of` unrolling factor.
    pub fn p_of(&self) -> usize {
        self.p_of as usize
    }
}

impl Dataflow for Nlr {
    fn kind(&self) -> ArchKind {
        ArchKind::Nlr
    }

    fn n_pes(&self) -> u64 {
        self.p_if * self.p_of
    }

    fn model(&self, phase: &ConvShape, e_total: u64) -> PhaseStats {
        // The census is per (input map, output map) pair, so this is exact.
        let e_pair = e_total / (phase.small() * phase.large()) as u64;
        let (cycles, out_traffic) = match phase.kind() {
            ConvKind::S | ConvKind::T => {
                let (n_if, n_of) = match phase.kind() {
                    ConvKind::S => (phase.large() as u64, phase.small() as u64),
                    _ => (phase.small() as u64, phase.large() as u64),
                };
                let cycles = ceil_div(n_of, self.p_of) * ceil_div(n_if, self.p_if) * e_pair;
                // The adder tree folds P_if lanes; a partial sum is written
                // (and later re-read) once per input-map chunk.
                let chunks = ceil_div(n_if, self.p_if);
                let psum = phase.output_count() * chunks;
                (cycles, (psum.saturating_sub(phase.output_count()), psum))
            }
            ConvKind::WGradS | ConvKind::WGradT => {
                // Adder tree idle: P_of multipliers stream one MAC each per
                // cycle, accumulating straight into the ∇W buffer.
                (ceil_div(e_total, self.p_of), (e_total, e_total))
            }
        };
        PhaseStats {
            cycles,
            effectual_macs: e_total,
            n_pes: self.n_pes(),
            access: AccessCounts {
                // No local reuse: every effectual multiply re-fetches its
                // weight operand.
                weight_reads: e_total,
                // One input neuron is spatially shared across P_of channels.
                input_reads: ceil_div(e_total, self.p_of),
                output_reads: out_traffic.0,
                output_writes: out_traffic.1,
            },
            dram: Default::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zfgan_tensor::ConvGeom;

    fn dcgan_l1(kind: ConvKind) -> ConvShape {
        let geom = ConvGeom::down(64, 64, 4, 4, 2, 32, 32).unwrap();
        ConvShape::new(kind, geom, 64, 3, 64, 64)
    }

    #[test]
    fn s_conv_cycles_follow_closed_form() {
        let nlr = Nlr::new(16, 75);
        let s = nlr.schedule(&dcgan_l1(ConvKind::S));
        // ⌈64/75⌉ · ⌈3/16⌉ · 16·1024 = 16384.
        assert_eq!(s.cycles, 16384);
        assert_eq!(s.n_pes, 1200);
        assert_eq!(s.effectual_macs, 64 * 3 * 16 * 1024);
    }

    #[test]
    fn w_conv_idles_the_adder_tree() {
        let nlr = Nlr::new(16, 30);
        let s = nlr.schedule(&dcgan_l1(ConvKind::WGradS));
        // Only P_of = 30 multipliers active: utilization ≈ 1/16.
        assert!(
            (s.utilization() - 1.0 / 16.0).abs() < 1e-3,
            "util {}",
            s.utilization()
        );
    }

    #[test]
    fn interior_t_conv_matches_zero_free_ideal() {
        // When N_if and N_of divide the unrolling evenly, improved NLR
        // reaches full multiplier utilization on T-CONV (the paper's Fig. 15
        // shows NLR tying ZFOST on Ḡ).
        let geom = ConvGeom::down(8, 8, 4, 4, 2, 4, 4).unwrap();
        let phase = ConvShape::new(ConvKind::T, geom, 64, 32, 8, 8);
        let nlr = Nlr::new(16, 32);
        let s = nlr.schedule(&phase);
        assert!(s.utilization() > 0.95, "util {}", s.utilization());
    }

    #[test]
    fn weight_reads_equal_effectual_macs() {
        let nlr = Nlr::new(8, 8);
        let s = nlr.schedule(&dcgan_l1(ConvKind::S));
        assert_eq!(s.access.weight_reads, s.effectual_macs);
        assert_eq!(s.access.input_reads, s.effectual_macs / 8);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_unroll_rejected() {
        let _ = Nlr::new(0, 8);
    }
}
