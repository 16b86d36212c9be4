//! Fast executor engine vs the scalar oracle across all nine
//! cycle-accurate executors on a DCGAN-shaped phase (5×5 kernel, stride 2,
//! 16×16 ↔ 8×8, 16/32 channels).
//!
//! Both sides compute bit-identical outputs, cycles, and counters
//! (`tests/exec_engine.rs` proves it property-wise), so the ratios here
//! are pure speed: what the lane-parallel position walk all nine share
//! buys over the guarded per-element loops — and, for the baselines, what
//! counting a dataflow's wasted work buys over performing it. The gates
//! sit on [`paired_ratio`] (one scalar and one engine call back to back
//! per round, median round ratio): every executor must hold ≥3× over its
//! oracle. Absolute times are the `exec_zero_free` workload of
//! `BENCHMARK.json`.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use zfgan_bench::{gate, paired_ratio};
use zfgan_dataflow::exec::{self, scalar};
use zfgan_dataflow::{ExecWorkspace, Nlr, Ost, Wst, Zfost, Zfwst};
use zfgan_sim::{ConvKind, ConvShape};
use zfgan_tensor::{ConvGeom, Fmaps, Kernels};

/// Rounds behind each gate's paired ratio: one scalar and one engine call
/// a round.
const PAIRED_ROUNDS: usize = 15;

/// Floor of the paired scalar-over-engine ratio, for all nine.
const FLOOR: f64 = 3.0;

fn main() {
    // DCGAN-shaped phase: 5×5 kernel, stride 2, asymmetric SAME padding.
    let geom = ConvGeom::down(16, 16, 5, 5, 2, 8, 8).expect("static geometry");
    let (small, large) = (32usize, 16usize);
    let s_phase = ConvShape::new(ConvKind::S, geom, small, large, 16, 16);
    let t_phase = ConvShape::new(ConvKind::T, geom, small, large, 16, 16);
    let ws_phase = ConvShape::new(ConvKind::WGradS, geom, small, large, 16, 16);
    let wt_phase = ConvShape::new(ConvKind::WGradT, geom, small, large, 16, 16);

    let mut rng = SmallRng::seed_from_u64(7);
    let big: Fmaps<f32> = Fmaps::random(large, 16, 16, 1.0, &mut rng);
    let smallx: Fmaps<f32> = Fmaps::random(small, 8, 8, 1.0, &mut rng);
    let k: Kernels<f32> = Kernels::random(small, large, 5, 5, 0.25, &mut rng);

    let zfost = Zfost::new(4, 4, 2);
    let zfwst = Zfwst::new(2, 2, 2);
    let ost = Ost::new(4, 4, 2);
    let wst = Wst::new(4, 4, 2);
    let nlr = Nlr::new(3, 5);

    let mut ws: ExecWorkspace<f32> = ExecWorkspace::new();
    macro_rules! pair {
        ($name:literal, $floor:expr, $fast:expr, $slow:expr) => {
            let ratio = paired_ratio(
                PAIRED_ROUNDS,
                || {
                    std::hint::black_box($slow);
                },
                || $fast,
            );
            gate(concat!("exec/", $name), $floor, ratio);
        };
    }

    pair!(
        "zfost_s",
        FLOOR,
        {
            let out = exec::zfost_s_conv_ws(&zfost, &s_phase, &big, &k, &mut ws).unwrap();
            ws.give_fmaps(out.output);
        },
        scalar::zfost_s_conv(&zfost, &s_phase, &big, &k).unwrap()
    );
    pair!(
        "zfost_t",
        FLOOR,
        {
            let out = exec::zfost_t_conv_ws(&zfost, &t_phase, &smallx, &k, &mut ws).unwrap();
            ws.give_fmaps(out.output);
        },
        scalar::zfost_t_conv(&zfost, &t_phase, &smallx, &k).unwrap()
    );
    pair!(
        "wgrad_s",
        FLOOR,
        {
            let g = exec::zfwst_wgrad_s_ws(&zfwst, &ws_phase, &big, &smallx, &mut ws).unwrap();
            ws.give_kernels(g.output);
        },
        scalar::zfwst_wgrad_s(&zfwst, &ws_phase, &big, &smallx).unwrap()
    );
    pair!(
        "wgrad_t",
        FLOOR,
        {
            let g = exec::zfwst_wgrad_t_ws(&zfwst, &wt_phase, &smallx, &big, &mut ws).unwrap();
            ws.give_kernels(g.output);
        },
        scalar::zfwst_wgrad_t(&zfwst, &wt_phase, &smallx, &big).unwrap()
    );
    pair!(
        "ost_t",
        FLOOR,
        {
            let (out, _) = exec::ost_t_conv_ws(&ost, &t_phase, &smallx, &k, &mut ws).unwrap();
            ws.give_fmaps(out.output);
        },
        scalar::ost_t_conv(&ost, &t_phase, &smallx, &k).unwrap()
    );
    pair!(
        "wst_s",
        FLOOR,
        {
            let (out, _) = exec::wst_s_conv_ws(&wst, &s_phase, &big, &k, &mut ws).unwrap();
            ws.give_fmaps(out.output);
        },
        scalar::wst_s_conv(&wst, &s_phase, &big, &k).unwrap()
    );
    pair!(
        "nlr_s",
        FLOOR,
        {
            let (out, _) = exec::nlr_s_conv_ws(&nlr, &s_phase, &big, &k, &mut ws).unwrap();
            ws.give_fmaps(out.output);
        },
        scalar::nlr_s_conv(&nlr, &s_phase, &big, &k).unwrap()
    );
    pair!(
        "zfwst_s",
        FLOOR,
        {
            let out = exec::zfwst_s_conv_ws(&zfwst, &s_phase, &big, &k, &mut ws).unwrap();
            ws.give_fmaps(out.output);
        },
        scalar::zfwst_s_conv(&zfwst, &s_phase, &big, &k).unwrap()
    );
    pair!(
        "zfwst_t",
        FLOOR,
        {
            let out = exec::zfwst_t_conv_ws(&zfwst, &t_phase, &smallx, &k, &mut ws).unwrap();
            ws.give_fmaps(out.output);
        },
        scalar::zfwst_t_conv(&zfwst, &t_phase, &smallx, &k).unwrap()
    );
}
