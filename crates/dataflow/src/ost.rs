//! OST — Output-Stationary (paper Fig. 5c).
//!
//! OST unrolls Loop-2: a `P_oy × P_ox` grid of PEs each owns one output
//! neuron; every cycle one kernel weight is broadcast to the grid and each
//! PE accumulates `weight × its-own-input` locally. `P_of` channel copies
//! run in parallel. Partial sums never leave the PE, so output traffic is
//! one write per finished neuron — OST's defining advantage.
//!
//! The cycle count is set by the kernel feed:
//!
//! ```text
//! cycles(S/T) = ⌈N_oy/P_oy⌉ · ⌈N_ox/P_ox⌉ · ⌈N_of/P_of⌉ · N_if · N_ky · N_kx
//! ```
//!
//! Paper §III-C3's two pathologies appear directly in the model:
//!
//! * **S-CONV breaks input sharing**: with stride 2, neighbouring PEs need
//!   inputs two pixels apart, so the register-shift reuse of Fig. 7(a)
//!   disappears and every PE fetches a fresh input each cycle
//!   (`input_reads = cycles · P_oy · P_ox`).
//! * **T-CONV cannot skip inserted zeros**: all `N_ky × N_kx` kernel
//!   positions are fed even though ~3/4 of the products are ineffectual, so
//!   the cycle count is ~4× the zero-free ideal.
//!
//! For `W-CONV` the grid holds the `K_h × K_w` gradient tile stationary and
//! the *error* operand is fed sequentially — including the inserted zeros of
//! the dilated error kernel in the Discriminator case.

use zfgan_sim::{AccessCounts, ConvKind, ConvShape, PhaseStats};

use crate::arch::{ceil_div, ArchKind, Dataflow};

/// An OST configuration (`P_oy × P_ox` output tile × `P_of` channels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ost {
    p_oy: u64,
    p_ox: u64,
    p_of: u64,
}

impl Ost {
    /// Creates an OST array.
    ///
    /// # Panics
    ///
    /// Panics if any factor is zero.
    pub fn new(p_oy: usize, p_ox: usize, p_of: usize) -> Self {
        assert!(
            p_oy > 0 && p_ox > 0 && p_of > 0,
            "unrolling factors must be non-zero"
        );
        Self {
            p_oy: p_oy as u64,
            p_ox: p_ox as u64,
            p_of: p_of as u64,
        }
    }

    /// `(P_oy, P_ox, P_of)`.
    pub fn factors(&self) -> (usize, usize, usize) {
        (self.p_oy as usize, self.p_ox as usize, self.p_of as usize)
    }
}

impl Dataflow for Ost {
    fn kind(&self) -> ArchKind {
        ArchKind::Ost
    }

    fn n_pes(&self) -> u64 {
        self.p_oy * self.p_ox * self.p_of
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

        let (cycles, group_passes, input_reads_per_sched) = match phase.kind() {
            ConvKind::S => {
                // Surplus channel groups fold over additional spatial tiles
                // when a layer has fewer output maps than P_of.
                let tiles = ceil_div(sh as u64, self.p_oy) * ceil_div(sw as u64, self.p_ox);
                let fold = (self.p_of / small).max(1);
                let groups = ceil_div(small, self.p_of);
                let cycles = ceil_div(tiles, fold) * groups * large * kh * kw;
                // Strided access breaks the register-shift reuse: each PE
                // fetches its own input every cycle.
                (cycles, groups, cycles * self.p_oy * self.p_ox)
            }
            ConvKind::T => {
                let tiles = ceil_div(lh as u64, self.p_oy) * ceil_div(lw as u64, self.p_ox);
                let fold = (self.p_of / large).max(1);
                let groups = ceil_div(large, self.p_of);
                let cycles = ceil_div(tiles, fold) * groups * small * kh * kw;
                // Unit-stride over the zero-inserted map keeps shift reuse,
                // but the zeros are streamed like real data.
                (cycles, groups, small * (zh * zw) as u64 * groups)
            }
            ConvKind::WGradS => {
                // Gradient tile stationary; the dilated error kernel
                // (inserted zeros included) is fed one value per cycle.
                let (dh, dw) = (stride * (sh as u64 - 1) + 1, stride * (sw as u64 - 1) + 1);
                let tiles = ceil_div(kh, self.p_oy) * ceil_div(kw, self.p_ox);
                let groups = ceil_div(pairs, self.p_of);
                let cycles = tiles * groups * dh * dw;
                (cycles, groups, large * (lh * lw) as u64 * groups)
            }
            ConvKind::WGradT => {
                // Error operand is dense; the zero-inserted data operand is
                // what the PEs consume — streamed zeros included.
                let tiles = ceil_div(kh, self.p_oy) * ceil_div(kw, self.p_ox);
                let groups = ceil_div(pairs, self.p_of);
                let cycles = tiles * groups * (lh * lw) as u64;
                (cycles, groups, small * (zh * zw) as u64 * groups)
            }
        };
        let _ = group_passes;

        PhaseStats {
            cycles,
            effectual_macs,
            n_pes: self.n_pes(),
            access: AccessCounts {
                // One kernel value per cycle per channel copy.
                weight_reads: cycles * self.p_of,
                input_reads: input_reads_per_sched,
                // Outputs stay in their PE until complete.
                output_reads: 0,
                output_writes: phase.output_count(),
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
    fn s_conv_is_ost_home_turf() {
        let ost = Ost::new(4, 4, 75);
        let s = ost.schedule(&dcgan_l1(ConvKind::S));
        // 8·8 tiles · 1 group · 3 maps · 16 = 3072 cycles.
        assert_eq!(s.cycles, 3072);
        assert!(s.utilization() > 0.8, "util {}", s.utilization());
    }

    #[test]
    fn t_conv_wastes_three_quarters() {
        let ost = Ost::new(4, 4, 75);
        let s = ost.schedule(&dcgan_l1(ConvKind::T));
        // 16·16 tiles folded 25× over the 3-map output: ⌈256/25⌉ = 11
        // sweeps · 64 maps · 16 kernel feeds; still only ~1/4 of products
        // are effectual because the inserted zeros are streamed.
        assert_eq!(s.cycles, 11 * 64 * 16);
        assert!(s.utilization() < 0.3, "util {}", s.utilization());
    }

    #[test]
    fn s_conv_input_reads_blow_up() {
        let ost = Ost::new(4, 4, 1);
        let s = ost.schedule(&dcgan_l1(ConvKind::S));
        assert_eq!(s.access.input_reads, s.cycles * 16);
        let t = ost.schedule(&dcgan_l1(ConvKind::T));
        // T-CONV keeps shift reuse: far fewer reads per cycle.
        assert!(t.access.input_reads < t.cycles * 4);
    }

    #[test]
    fn wgrad_s_pays_for_dilated_error() {
        let ost = Ost::new(5, 5, 19);
        let s = ost.schedule(&dcgan_l1(ConvKind::WGradS));
        // Dilated error is 63×63; gradient tile 4×4 fits in 5×5.
        assert_eq!(s.cycles, ceil_div(192, 19) * 63 * 63);
        assert!(s.utilization() < 0.25);
    }

    #[test]
    fn outputs_written_exactly_once() {
        let ost = Ost::new(4, 4, 8);
        for kind in [ConvKind::S, ConvKind::T, ConvKind::WGradS, ConvKind::WGradT] {
            let s = ost.schedule(&dcgan_l1(kind));
            assert_eq!(s.access.output_reads, 0, "{kind:?}");
            assert_eq!(
                s.access.output_writes,
                dcgan_l1(kind).output_count(),
                "{kind:?}"
            );
        }
    }
}
