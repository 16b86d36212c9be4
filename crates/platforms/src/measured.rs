//! A real (measured) CPU data point.
//!
//! The analytical models in [`crate::Platform`] are calibrated from
//! published device constants; this module grounds the CPU side by actually
//! executing the golden-reference convolutions single-threaded and timing
//! them. `zfgan paper fig19` prints it as a "measured Rust CPU" point
//! under the analytical Caffe-CPU rows; it is wall time, so it is printed
//! only and kept out of `results/fig19.json`.

use std::time::Instant;

use zfgan_sim::{ConvKind, ConvShape};
use zfgan_tensor::{s_conv, t_conv, w_conv_for_s_layer, w_conv_for_t_layer, Fmaps, Kernels};

/// Outcome of a measured reference execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Effectual operations performed (2 per MAC).
    pub ops: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Sustained GOPS.
    pub gops: f64,
}

/// Executes one phase with the golden-reference loop nest on the current
/// thread and measures sustained throughput.
///
/// Operand values are deterministic pseudo-data; the timing is
/// data-independent.
///
/// # Panics
///
/// Panics only on internal shape inconsistencies (a bug, not input).
pub fn measure_phase(phase: &ConvShape) -> Measurement {
    let geom = *phase.geom();
    let (small, large) = (phase.small(), phase.large());
    let (sh, sw) = phase.small_hw();
    let (lh, lw) = phase.large_hw();
    let fill = |n: usize| -> Vec<f32> { (0..n).map(|i| ((i % 17) as f32 - 8.0) / 8.0).collect() };
    let kernels = Kernels::from_vec(
        small,
        large,
        geom.kh(),
        geom.kw(),
        fill(small * large * geom.kh() * geom.kw()),
    );
    let start = Instant::now();
    match phase.kind() {
        ConvKind::S => {
            let x = Fmaps::from_vec(large, lh, lw, fill(large * lh * lw));
            let y = s_conv(&x, &kernels, &geom).expect("phase-consistent operands");
            std::hint::black_box(y);
        }
        ConvKind::T => {
            let x = Fmaps::from_vec(small, sh, sw, fill(small * sh * sw));
            let y = t_conv(&x, &kernels, &geom).expect("phase-consistent operands");
            std::hint::black_box(y);
        }
        ConvKind::WGradS => {
            let x = Fmaps::from_vec(large, lh, lw, fill(large * lh * lw));
            let e = Fmaps::from_vec(small, sh, sw, fill(small * sh * sw));
            let g = w_conv_for_s_layer(&x, &e, &geom).expect("phase-consistent operands");
            std::hint::black_box(g);
        }
        ConvKind::WGradT => {
            let x = Fmaps::from_vec(small, sh, sw, fill(small * sh * sw));
            let e = Fmaps::from_vec(large, lh, lw, fill(large * lh * lw));
            let g = w_conv_for_t_layer(&x, &e, &geom).expect("phase-consistent operands");
            std::hint::black_box(g);
        }
    }
    let seconds = start.elapsed().as_secs_f64().max(1e-9);
    let ops = 2 * phase.effectual_macs();
    Measurement {
        ops,
        seconds,
        gops: ops as f64 / seconds / 1e9,
    }
}

/// Measures a list of phases back-to-back.
///
/// # Panics
///
/// Panics if `phases` is empty.
pub fn measure_phases(phases: &[ConvShape]) -> Measurement {
    assert!(!phases.is_empty(), "need at least one phase");
    let mut ops = 0u64;
    let mut seconds = 0.0f64;
    for p in phases {
        let m = measure_phase(p);
        ops += m.ops;
        seconds += m.seconds;
    }
    Measurement {
        ops,
        seconds,
        gops: ops as f64 / seconds / 1e9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zfgan_tensor::ConvGeom;

    #[test]
    fn measures_all_phase_kinds() {
        let geom = ConvGeom::down(16, 16, 4, 4, 2, 8, 8).unwrap();
        for kind in [ConvKind::S, ConvKind::T, ConvKind::WGradS, ConvKind::WGradT] {
            let phase = ConvShape::new(kind, geom, 8, 4, 16, 16);
            let m = measure_phase(&phase);
            assert_eq!(m.ops, 2 * phase.effectual_macs(), "{kind:?}");
            assert!(m.seconds > 0.0 && m.gops > 0.0, "{kind:?}");
        }
    }

    #[test]
    fn aggregate_sums_ops() {
        let geom = ConvGeom::down(8, 8, 4, 4, 2, 4, 4).unwrap();
        let p = ConvShape::new(ConvKind::S, geom, 4, 2, 8, 8);
        let m = measure_phases(&[p, p]);
        assert_eq!(m.ops, 4 * p.effectual_macs());
    }
}
