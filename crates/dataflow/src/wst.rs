//! WST — Weight-Stationary (paper Fig. 5b).
//!
//! WST unrolls Loop-3: a `P_ky × P_kx` grid of PEs holds kernel weights in
//! local registers; every cycle one input neuron is broadcast to the whole
//! grid, and each PE multiplies it with its stationary weight. `P_of`
//! channel copies share the broadcast.
//!
//! Consequences (paper §III-C2):
//!
//! * the cycle count is set by the number of *input* neurons streamed —
//!   including inserted zeros, which WST cannot skip:
//!
//!   ```text
//!   cycles(S/T) = N_if · N_iy · N_ix · ⌈N_of/P_of⌉ · ⌈N_ky/P_ky⌉ · ⌈N_kx/P_kx⌉
//!   ```
//!
//! * PE utilization collapses to `(N_oy·N_ox)/(N_iy·N_ix)` (Eq. 5) whenever
//!   the output is smaller than the input — i.e. on `S-CONV` and `W-CONV`;
//! * partial sums have no stationary home, so every effectual MAC costs an
//!   output-buffer read + write.
//!
//! For `W-CONV` the PE grid holds the `K_h × K_w` gradient accumulators'
//! positions and streams the data operand; the per-pair loop structure is
//! the same, with the error operand fetched per PE.

use zfgan_sim::{AccessCounts, ConvKind, ConvShape, PhaseStats};

use crate::arch::{ceil_div, ArchKind, Dataflow};

/// A WST configuration (`P_ky × P_kx` weight grid × `P_of` channels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Wst {
    p_ky: u64,
    p_kx: u64,
    p_of: u64,
}

impl Wst {
    /// Creates a WST array.
    ///
    /// # Panics
    ///
    /// Panics if any factor is zero.
    pub fn new(p_ky: usize, p_kx: usize, p_of: usize) -> Self {
        assert!(
            p_ky > 0 && p_kx > 0 && p_of > 0,
            "unrolling factors must be non-zero"
        );
        Self {
            p_ky: p_ky as u64,
            p_kx: p_kx as u64,
            p_of: p_of as u64,
        }
    }

    /// `(P_ky, P_kx, P_of)`.
    pub fn factors(&self) -> (usize, usize, usize) {
        (self.p_ky as usize, self.p_kx as usize, self.p_of as usize)
    }

    fn kernel_passes(&self, kh: u64, kw: u64) -> u64 {
        ceil_div(kh, self.p_ky) * ceil_div(kw, self.p_kx)
    }
}

impl Dataflow for Wst {
    fn kind(&self) -> ArchKind {
        ArchKind::Wst
    }

    fn n_pes(&self) -> u64 {
        self.p_ky * self.p_kx * self.p_of
    }

    fn model(&self, phase: &ConvShape, e_total: u64) -> PhaseStats {
        let geom = *phase.geom();
        let (kh, kw) = (geom.kh() as u64, geom.kw() as u64);
        let passes = self.kernel_passes(kh, kw);
        let (sh, sw) = phase.small_hw();
        let (lh, lw) = phase.large_hw();
        let (zh, zw) = geom.zero_inserted(sh, sw);
        let (small, large) = (phase.small() as u64, phase.large() as u64);
        let pairs = small * large;

        let cycles = match phase.kind() {
            // Input = large side (no zeros), output groups over small side.
            ConvKind::S => large * (lh * lw) as u64 * ceil_div(small, self.p_of) * passes,
            // Input = zero-inserted small side; zeros are streamed too.
            ConvKind::T => small * (zh * zw) as u64 * ceil_div(large, self.p_of) * passes,
            // Data operand = layer input (large side, real); the per-pair
            // gradient grid is kh×kw; channel groups over the error side.
            ConvKind::WGradS => large * (lh * lw) as u64 * ceil_div(small, self.p_of) * passes,
            // Data operand = zero-inserted small-side activations.
            ConvKind::WGradT => small * (zh * zw) as u64 * ceil_div(large, self.p_of) * passes,
        };

        // Whether layer weights (S/T) or the error operand (W-CONV), the
        // stationary set is loaded once per element.
        let stationary_loads = pairs * kh * kw;
        PhaseStats {
            cycles,
            effectual_macs: e_total,
            n_pes: self.n_pes(),
            access: AccessCounts {
                weight_reads: stationary_loads,
                // One broadcast per cycle, shared by the whole grid.
                input_reads: cycles,
                // No stationary partial sums: every effectual MAC
                // accumulates through the output buffer.
                output_reads: e_total,
                output_writes: e_total,
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
    fn s_conv_utilization_matches_eq5_envelope() {
        // Eq. 5: util ≤ (N_oy·N_ox)/(N_iy·N_ix) = 1/4 for stride 2.
        let wst = Wst::new(4, 4, 4);
        let phase = {
            let geom = ConvGeom::down(64, 64, 4, 4, 2, 32, 32).unwrap();
            ConvShape::new(ConvKind::S, geom, 64, 64, 64, 64)
        };
        let s = wst.schedule(&phase);
        let util = s.utilization();
        assert!((0.2..=0.26).contains(&util), "util {util} should be ≈ 1/4");
    }

    #[test]
    fn t_conv_streams_inserted_zeros() {
        // T-CONV input is the 63×63 zero-inserted map: cycles scale with
        // the naive size, not the 32×32 real one.
        let wst = Wst::new(4, 4, 75);
        let s = wst.schedule(&dcgan_l1(ConvKind::T));
        assert_eq!(s.cycles, 64 * (63 * 63));
    }

    #[test]
    fn oversize_kernel_needs_multiple_passes() {
        let geom = ConvGeom::down(28, 28, 5, 5, 2, 14, 14).unwrap();
        let phase = ConvShape::new(ConvKind::S, geom, 64, 1, 28, 28);
        let small_grid = Wst::new(4, 4, 1).schedule(&phase);
        let full_grid = Wst::new(5, 5, 1).schedule(&phase);
        assert_eq!(small_grid.cycles, 4 * full_grid.cycles);
    }

    #[test]
    fn output_traffic_dominates() {
        // WST's defining cost: psum read+write per MAC.
        let wst = Wst::new(4, 4, 30);
        let s = wst.schedule(&dcgan_l1(ConvKind::WGradS));
        assert_eq!(s.access.output_reads, s.effectual_macs);
        assert_eq!(s.access.output_writes, s.effectual_macs);
        assert!(s.access.total() > 2 * s.effectual_macs);
    }

    #[test]
    fn n_pes_is_grid_times_channels() {
        assert_eq!(Wst::new(5, 5, 48).n_pes(), 1200);
        assert_eq!(Wst::new(4, 4, 30).n_pes(), 480);
    }
}
