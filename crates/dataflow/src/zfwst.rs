//! ZFWST — Zero-Free Weight-Stationary, the paper's W-ARCH design
//! (Fig. 13).
//!
//! ZFWST unrolls Loop-3 like WST, but PEs feed an **adder tree** so the
//! whole `P_ky × P_kx` grid contributes to *one* output neuron per cycle per
//! channel — the natural fit for `W-CONV`, whose four-dimensional output has
//! no cross-input-map accumulation. Only non-zero values are ever made
//! stationary ("we only allocate non-zero kernel weights to PEs") and only
//! non-zero inputs are loaded into the shared register array.
//!
//! For the weight-gradient phases, each `∇W[of][if][ky][kx]` output neuron
//! is a dot product over the `sh·sw` real error (D̄w) or data (Ḡw)
//! positions, folded `P_ky·P_kx` at a time through the adder tree:
//!
//! ```text
//! cycles(W) = ⌈pairs/P_of⌉ · K_h·K_w · ⌈sh·sw / (P_ky·P_kx)⌉
//! ```
//!
//! For `S-CONV`/`T-CONV` (evaluated in Fig. 15 for completeness) the grid
//! holds the layer's kernel — only its non-zero taps for the transposed
//! case — and produces one output neuron per `⌈K_eff/(P_ky·P_kx)⌉` cycles
//! per input map.

use zfgan_sim::{AccessCounts, ConvKind, ConvShape, PhaseStats};

use crate::arch::{ceil_div, ArchKind, Dataflow};

/// A ZFWST configuration (`P_ky × P_kx` stationary grid × `P_of` channels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Zfwst {
    p_ky: u64,
    p_kx: u64,
    p_of: u64,
}

impl Zfwst {
    /// Creates a ZFWST array.
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

    fn grid(&self) -> u64 {
        self.p_ky * self.p_kx
    }
}

impl Dataflow for Zfwst {
    fn kind(&self) -> ArchKind {
        ArchKind::Zfwst
    }

    fn n_pes(&self) -> u64 {
        self.grid() * self.p_of
    }

    fn model(&self, phase: &ConvShape, effectual_macs: u64) -> PhaseStats {
        let geom = *phase.geom();
        let (kh, kw) = (geom.kh() as u64, geom.kw() as u64);
        let stride = geom.stride() as u64;
        let (sh, sw) = phase.small_hw();
        let (lh, lw) = phase.large_hw();
        let (small, large) = (phase.small() as u64, phase.large() as u64);
        let pairs = small * large;

        let (cycles, passes_per_output, input_reads) = match phase.kind() {
            ConvKind::S => {
                // Full kernel stationary; one output per ⌈k²/grid⌉ cycles
                // per input map.
                let passes = ceil_div(kh * kw, self.grid());
                let groups = ceil_div(small, self.p_of);
                let cycles = groups * (sh * sw) as u64 * large * passes;
                (cycles, passes * large, large * (lh * lw) as u64 * groups)
            }
            ConvKind::T => {
                // Only the ~k²/s² non-zero taps per output parity class are
                // made stationary.
                let eff_kh = ceil_div(kh, stride);
                let eff_kw = ceil_div(kw, stride);
                let passes = ceil_div(eff_kh * eff_kw, self.grid());
                let groups = ceil_div(large, self.p_of);
                let cycles = groups * (lh * lw) as u64 * small * passes;
                (cycles, passes * small, small * (sh * sw) as u64 * groups)
            }
            ConvKind::WGradS | ConvKind::WGradT => {
                // ∇W neuron = dot product over sh·sw real positions, folded
                // grid-wide per cycle.
                let passes = ceil_div((sh * sw) as u64, self.grid());
                let groups = ceil_div(pairs, self.p_of);
                let cycles = groups * kh * kw * passes;
                let reads = match phase.kind() {
                    ConvKind::WGradS => large * (lh * lw) as u64 * ceil_div(small, self.p_of),
                    _ => small * (sh * sw) as u64 * ceil_div(large, self.p_of),
                };
                (cycles, passes, reads)
            }
        };

        // Stationary operand loads: each non-zero stationary value enters a
        // register once per group that uses it.
        let stationary_loads = match phase.kind() {
            ConvKind::S => pairs * kh * kw,
            ConvKind::T => pairs * ceil_div(kh, stride) * ceil_div(kw, stride) * stride * stride,
            // The real error (D̄w) / data values cycle through as the
            // "weights" of the gradient dot products.
            ConvKind::WGradS => small * (sh * sw) as u64,
            ConvKind::WGradT => large * (lh * lw) as u64,
        };
        // Partial sums ping-pong through the ∇W buffer when an output needs
        // more than one pass.
        let outputs = phase.output_count();
        let output_writes = outputs * passes_per_output.max(1);
        let output_reads = outputs * (passes_per_output.max(1) - 1);

        PhaseStats {
            cycles,
            effectual_macs,
            n_pes: self.n_pes(),
            access: AccessCounts {
                weight_reads: stationary_loads,
                input_reads,
                output_reads,
                output_writes,
            },
            dram: Default::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ost::Ost;
    use crate::zfost::Zfost;
    use zfgan_tensor::ConvGeom;

    fn dcgan_l1(kind: ConvKind) -> ConvShape {
        let geom = ConvGeom::down(64, 64, 4, 4, 2, 32, 32).unwrap();
        ConvShape::new(kind, geom, 64, 3, 64, 64)
    }

    #[test]
    fn wgrad_cycles_closed_form() {
        let zf = Zfwst::new(4, 4, 30);
        let s = zf.schedule(&dcgan_l1(ConvKind::WGradS));
        // ⌈192/30⌉ · 16 · ⌈1024/16⌉ = 7 · 16 · 64 = 7168.
        assert_eq!(s.cycles, 7 * 16 * 64);
        assert!(s.utilization() > 0.85, "util {}", s.utilization());
    }

    #[test]
    fn zfwst_beats_everything_on_weight_gradients() {
        // Paper Fig. 15: ZFWST yields the optimal performance on D̄w/Ḡw.
        let budget_configs: [(Box<dyn crate::Dataflow>, &str); 3] = [
            (Box::new(Zfwst::new(4, 4, 30)), "zfwst"),
            (Box::new(Zfost::new(5, 5, 19)), "zfost"),
            (Box::new(Ost::new(5, 5, 19)), "ost"),
        ];
        for kind in [ConvKind::WGradS, ConvKind::WGradT] {
            let phase = dcgan_l1(kind);
            let zfwst_cycles = budget_configs[0].0.schedule(&phase).cycles;
            for (arch, name) in &budget_configs[1..] {
                assert!(
                    zfwst_cycles <= arch.schedule(&phase).cycles,
                    "{kind:?}: ZFWST ({zfwst_cycles}) should beat {name}"
                );
            }
        }
    }

    #[test]
    fn t_conv_uses_only_nonzero_taps() {
        // 4×4 kernel, stride 2 ⇒ 2×2 effective taps fit a 3×3 grid in one
        // pass.
        let zf = Zfwst::new(3, 3, 133);
        let s = zf.schedule(&dcgan_l1(ConvKind::T));
        // 1 group · 64·64 outputs · 64 maps · 1 pass.
        assert_eq!(s.cycles, 64 * 64 * 64);
    }

    #[test]
    fn multi_pass_outputs_ping_pong_the_buffer() {
        let zf = Zfwst::new(4, 4, 30);
        let s = zf.schedule(&dcgan_l1(ConvKind::WGradS));
        let outputs = dcgan_l1(ConvKind::WGradS).output_count();
        assert_eq!(s.access.output_writes, outputs * 64);
        assert_eq!(s.access.output_reads, outputs * 63);
    }

    #[test]
    fn n_pes_matches_table_v() {
        assert_eq!(Zfwst::new(5, 5, 48).n_pes(), 1200);
        assert_eq!(Zfwst::new(4, 4, 30).n_pes(), 480);
    }
}
