//! ZFOST — Zero-Free Output-Stationary, the paper's ST-ARCH design
//! (Figs. 11–12).
//!
//! ZFOST keeps OST's output-stationary mapping (`P_oy × P_ox` outputs per
//! channel, `P_of` channels, one kernel weight broadcast per cycle) and adds
//! two mechanisms:
//!
//! 1. **Kernel-feed reordering** (Fig. 12a): weights enter in parity classes
//!    `(even,even), (even,odd), (odd,even), (odd,odd)`. For `S-CONV` this
//!    restores the register-shift temporal reuse of input neurons that the
//!    stride had broken — same cycles as OST, ~`P_oy·P_ox`× fewer input
//!    fetches.
//! 2. **Zero skipping** (Fig. 12b): on zero-inserted operands each parity
//!    class touches only real input pixels, so one pass of `N_ky × N_kx`
//!    feeds completes an `s·P_oy × s·P_ox` output region — "we can calculate
//!    4X output neurons within the same time":
//!
//! ```text
//! cycles(T) = ⌈N_oy/(s·P_oy)⌉ · ⌈N_ox/(s·P_ox)⌉ · ⌈N_of/P_of⌉ · N_if · N_ky·N_kx
//! ```
//!
//! For `W-CONV`, the gradient tile is stationary and only *real* error /
//! data values are streamed (`sh·sw` instead of the dilated/zero-inserted
//! sizes).

use zfgan_sim::{AccessCounts, ConvKind, ConvShape, PhaseStats};

use crate::arch::{ceil_div, ArchKind, Dataflow};

/// A ZFOST configuration (`P_oy × P_ox` output tile × `P_of` channels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Zfost {
    p_oy: u64,
    p_ox: u64,
    p_of: u64,
    reorder: bool,
}

impl Zfost {
    /// Creates a ZFOST array.
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
            reorder: true,
        }
    }

    /// Ablation variant: ZFOST *without* the parity kernel-feed reordering
    /// of paper Fig. 12(a). The zero-skip machinery for `S-CONV` input
    /// reuse and the 4× `T-CONV` output coverage both depend on the
    /// reorder, so this variant regresses to OST behaviour on those phases
    /// — quantifying exactly what the reorder buys.
    ///
    /// # Panics
    ///
    /// Panics if any factor is zero.
    pub fn without_reorder(p_oy: usize, p_ox: usize, p_of: usize) -> Self {
        let mut zf = Self::new(p_oy, p_ox, p_of);
        zf.reorder = false;
        zf
    }

    /// Whether the parity kernel-feed reordering is enabled.
    pub fn reorders_kernel_feed(&self) -> bool {
        self.reorder
    }

    /// `(P_oy, P_ox, P_of)`.
    pub fn factors(&self) -> (usize, usize, usize) {
        (self.p_oy as usize, self.p_ox as usize, self.p_of as usize)
    }
}

impl Dataflow for Zfost {
    fn kind(&self) -> ArchKind {
        ArchKind::Zfost
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
        let (small, large) = (phase.small() as u64, phase.large() as u64);
        let pairs = small * large;

        let (cycles, input_reads) = match phase.kind() {
            ConvKind::S => {
                // When the layer has fewer output maps than P_of channels
                // (the image-sized first/last layers), the surplus channel
                // groups fold over additional spatial tiles.
                let tiles = ceil_div(sh as u64, self.p_oy) * ceil_div(sw as u64, self.p_ox);
                let fold = (self.p_of / small).max(1);
                let groups = ceil_div(small, self.p_of);
                let cycles = ceil_div(tiles, fold) * groups * large * kh * kw;
                // Reordered feed restores shift reuse: each real input is
                // loaded into the register array once per group pass.
                // Without the reorder the stride breaks the shift pattern
                // and every PE fetches its own input each cycle (the OST
                // pathology of paper Fig. 7b).
                let reads = if self.reorder {
                    large * (lh * lw) as u64 * groups
                } else {
                    cycles * self.p_oy * self.p_ox
                };
                (cycles, reads)
            }
            ConvKind::T => {
                // One kernel sweep finishes an (s·P_oy)×(s·P_ox) region —
                // the reorder assigns each parity class its own sweep
                // phase. Without it the region shrinks to P_oy×P_ox and the
                // inserted zeros are multiplied like real data (OST
                // behaviour).
                let region = if self.reorder { stride } else { 1 };
                let tiles = ceil_div(lh as u64, region * self.p_oy)
                    * ceil_div(lw as u64, region * self.p_ox);
                let fold = (self.p_of / large).max(1);
                let groups = ceil_div(large, self.p_of);
                let cycles = ceil_div(tiles, fold) * groups * small * kh * kw;
                // Only real (non-inserted) inputs ever enter the registers.
                (cycles, small * (sh * sw) as u64 * groups)
            }
            ConvKind::WGradS => {
                // Gradient tile stationary; only the sh·sw real error values
                // are fed (zeros in the dilated kernel skipped). Feeding
                // with stride-spaced data breaks the register-shift reuse,
                // so every PE fetches its own input each cycle.
                let tiles = ceil_div(kh, self.p_oy) * ceil_div(kw, self.p_ox);
                let groups = ceil_div(pairs, self.p_of);
                let cycles = tiles * groups * (sh * sw) as u64;
                (cycles, cycles * self.p_oy * self.p_ox)
            }
            ConvKind::WGradT => {
                // Ḡw is ZFOST's blind spot: the inserted zeros live in the
                // *data* operand that pairs with the dense streamed error.
                // A fed error value aligns with real data for only ~1/s² of
                // the stationary gradient positions, and the unit-shift
                // register network cannot re-route stride-spaced data to
                // parity-split PE subsets, so the zeros are not skippable —
                // exactly why the paper assigns Ḡw to ZFWST. The full
                // gradient tile stays resident while the dense error
                // streams.
                let tiles = ceil_div(kh * kw, self.p_oy * self.p_ox);
                let groups = ceil_div(pairs, self.p_of);
                let cycles = tiles * groups * (lh * lw) as u64;
                (
                    cycles,
                    small * (sh * sw) as u64 * ceil_div(large, self.p_of),
                )
            }
        };

        PhaseStats {
            cycles,
            effectual_macs,
            n_pes: self.n_pes(),
            access: AccessCounts {
                weight_reads: cycles * self.p_of,
                input_reads,
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
    use crate::ost::Ost;
    use zfgan_tensor::ConvGeom;

    fn dcgan_l1(kind: ConvKind) -> ConvShape {
        let geom = ConvGeom::down(64, 64, 4, 4, 2, 32, 32).unwrap();
        ConvShape::new(kind, geom, 64, 3, 64, 64)
    }

    #[test]
    fn matches_ost_on_s_conv_with_fewer_reads() {
        let zf = Zfost::new(4, 4, 75);
        let ost = Ost::new(4, 4, 75);
        let s_zf = zf.schedule(&dcgan_l1(ConvKind::S));
        let s_ost = ost.schedule(&dcgan_l1(ConvKind::S));
        assert_eq!(s_zf.cycles, s_ost.cycles);
        assert!(s_zf.access.input_reads * 4 <= s_ost.access.input_reads);
    }

    #[test]
    fn t_conv_speedup_is_about_4x() {
        let zf = Zfost::new(4, 4, 75);
        let ost = Ost::new(4, 4, 75);
        let t_zf = zf.schedule(&dcgan_l1(ConvKind::T));
        let t_ost = ost.schedule(&dcgan_l1(ConvKind::T));
        let speedup = t_ost.cycles as f64 / t_zf.cycles as f64;
        assert!((3.5..=4.5).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn t_conv_cycles_closed_form() {
        let zf = Zfost::new(4, 4, 75);
        let s = zf.schedule(&dcgan_l1(ConvKind::T));
        // ⌈64/8⌉² = 64 regions folded 25× over the 3-map output:
        // ⌈64/25⌉ = 3 sweeps · 64 maps · 16 kernel feeds.
        assert_eq!(s.cycles, 3 * 64 * 16);
    }

    #[test]
    fn wgrad_skips_all_inserted_zeros() {
        let zf = Zfost::new(5, 5, 19);
        let ost = Ost::new(5, 5, 19);
        let zf_s = zf.schedule(&dcgan_l1(ConvKind::WGradS));
        let ost_s = ost.schedule(&dcgan_l1(ConvKind::WGradS));
        // 63² dilated feed vs 32² real feed: ~3.9×.
        let speedup = ost_s.cycles as f64 / zf_s.cycles as f64;
        assert!(speedup > 3.5, "speedup {speedup}");
    }

    #[test]
    fn reorder_ablation_quantifies_the_tricks() {
        // Without the parity reorder, S-CONV loses its input reuse (~16×
        // more reads at a 4×4 tile) and T-CONV loses its 4× cycle win.
        let with = Zfost::new(4, 4, 75);
        let without = Zfost::without_reorder(4, 4, 75);
        assert!(with.reorders_kernel_feed());
        assert!(!without.reorders_kernel_feed());
        let s_with = with.schedule(&dcgan_l1(ConvKind::S));
        let s_without = without.schedule(&dcgan_l1(ConvKind::S));
        assert_eq!(
            s_with.cycles, s_without.cycles,
            "reorder does not change S cycles"
        );
        assert!(s_without.access.input_reads >= 4 * s_with.access.input_reads);
        let t_with = with.schedule(&dcgan_l1(ConvKind::T));
        let t_without = without.schedule(&dcgan_l1(ConvKind::T));
        let ratio = t_without.cycles as f64 / t_with.cycles as f64;
        assert!(
            (3.0..=4.5).contains(&ratio),
            "T speedup from reorder: {ratio}"
        );
    }

    #[test]
    fn utilization_is_high_except_on_gw() {
        // With generous channel counts ZFOST keeps PEs busy on S, T and D̄w;
        // Ḡw is its blind spot (zeros in the stationary-side pairing cannot
        // be skipped), which is why the paper assigns Ḡw to ZFWST.
        let geom = ConvGeom::down(16, 16, 4, 4, 2, 8, 8).unwrap();
        let phase = ConvShape::new(ConvKind::S, geom, 64, 32, 16, 16);
        for kind in [ConvKind::S, ConvKind::T, ConvKind::WGradS] {
            let s = Zfost::new(4, 4, 8).schedule(&phase.with_kind(kind));
            assert!(s.utilization() > 0.5, "{kind:?}: util {}", s.utilization());
        }
        let gw = Zfost::new(4, 4, 8).schedule(&phase.with_kind(ConvKind::WGradT));
        assert!(gw.utilization() < 0.35, "Ḡw util {}", gw.utilization());
    }
}
