use super::*;
use crate::arch::Dataflow;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use zfgan_tensor::{s_conv, t_conv, w_conv_for_s_layer, w_conv_for_t_layer, ConvGeom};

fn phase(kind: ConvKind) -> ConvShape {
    let geom = ConvGeom::down(12, 12, 4, 4, 2, 6, 6).unwrap();
    ConvShape::new(kind, geom, 5, 3, 12, 12)
}

#[test]
fn parity_order_is_a_permutation() {
    let mut order = kernel_parity_order(4, 4, 2);
    assert_eq!(order.len(), 16);
    order.sort_unstable();
    order.dedup();
    assert_eq!(order.len(), 16);
    // Stride 1: plain raster order.
    assert_eq!(
        kernel_parity_order(2, 2, 1),
        vec![(0, 0), (0, 1), (1, 0), (1, 1)]
    );
}

#[test]
fn zfost_s_conv_matches_reference_and_schedule() {
    let mut rng = SmallRng::seed_from_u64(1);
    let p = phase(ConvKind::S);
    let x: Fmaps<f64> = Fmaps::random(3, 12, 12, 1.0, &mut rng);
    let k: Kernels<f64> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
    let zf = Zfost::new(4, 4, 2);
    let out = zfost_s_conv(&zf, &p, &x, &k).unwrap();
    let reference = s_conv(&x, &k, p.geom()).unwrap();
    assert!(out.output.max_abs_diff(&reference) < 1e-9);
    assert_eq!(out.cycles, zf.schedule(&p).cycles);
}

#[test]
fn zfost_t_conv_matches_reference_and_schedule() {
    let mut rng = SmallRng::seed_from_u64(2);
    let p = phase(ConvKind::T);
    let x: Fmaps<f64> = Fmaps::random(5, 6, 6, 1.0, &mut rng);
    let k: Kernels<f64> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
    let zf = Zfost::new(2, 3, 2);
    let out = zfost_t_conv(&zf, &p, &x, &k).unwrap();
    let reference = t_conv(&x, &k, p.geom()).unwrap();
    assert!(
        out.output.max_abs_diff(&reference) < 1e-9,
        "diff {}",
        out.output.max_abs_diff(&reference)
    );
    assert_eq!(out.cycles, zf.schedule(&p).cycles);
}

#[test]
fn zfwst_wgrad_s_matches_reference_and_schedule() {
    let mut rng = SmallRng::seed_from_u64(3);
    let p = phase(ConvKind::WGradS);
    let data: Fmaps<f64> = Fmaps::random(3, 12, 12, 1.0, &mut rng);
    let err: Fmaps<f64> = Fmaps::random(5, 6, 6, 1.0, &mut rng);
    let zf = Zfwst::new(3, 3, 4);
    let out = zfwst_wgrad_s(&zf, &p, &data, &err).unwrap();
    let reference = w_conv_for_s_layer(&data, &err, p.geom()).unwrap();
    assert!(out.output.max_abs_diff(&reference) < 1e-9);
    assert_eq!(out.cycles, zf.schedule(&p).cycles);
}

#[test]
fn zfwst_wgrad_t_matches_reference_and_schedule() {
    let mut rng = SmallRng::seed_from_u64(4);
    let p = phase(ConvKind::WGradT);
    let data: Fmaps<f64> = Fmaps::random(5, 6, 6, 1.0, &mut rng);
    let err: Fmaps<f64> = Fmaps::random(3, 12, 12, 1.0, &mut rng);
    let zf = Zfwst::new(4, 2, 3);
    let out = zfwst_wgrad_t(&zf, &p, &data, &err).unwrap();
    let reference = w_conv_for_t_layer(&data, &err, p.geom()).unwrap();
    assert!(out.output.max_abs_diff(&reference) < 1e-9);
    assert_eq!(out.cycles, zf.schedule(&p).cycles);
}

#[test]
fn executors_reject_wrong_kinds_and_shapes() {
    let mut rng = SmallRng::seed_from_u64(5);
    let x: Fmaps<f64> = Fmaps::random(3, 12, 12, 1.0, &mut rng);
    let k: Kernels<f64> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
    let zf = Zfost::new(4, 4, 2);
    assert!(zfost_s_conv(&zf, &phase(ConvKind::T), &x, &k).is_err());
    let wrong: Fmaps<f64> = Fmaps::random(2, 12, 12, 1.0, &mut rng);
    assert!(zfost_s_conv(&zf, &phase(ConvKind::S), &wrong, &k).is_err());
}

#[test]
fn zfwst_s_executor_matches_reference_and_schedule() {
    let mut rng = SmallRng::seed_from_u64(21);
    let p = phase(ConvKind::S);
    let x: Fmaps<f64> = Fmaps::random(3, 12, 12, 1.0, &mut rng);
    let k: Kernels<f64> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
    let zf = Zfwst::new(3, 3, 2);
    let out = zfwst_s_conv(&zf, &p, &x, &k).unwrap();
    let reference = s_conv(&x, &k, p.geom()).unwrap();
    assert!(out.output.max_abs_diff(&reference) < 1e-9);
    assert_eq!(out.cycles, zf.schedule(&p).cycles);
}

#[test]
fn zfwst_t_executor_matches_reference_and_schedule() {
    let mut rng = SmallRng::seed_from_u64(22);
    let p = phase(ConvKind::T);
    let x: Fmaps<f64> = Fmaps::random(5, 6, 6, 1.0, &mut rng);
    let k: Kernels<f64> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
    let zf = Zfwst::new(2, 2, 2);
    let out = zfwst_t_conv(&zf, &p, &x, &k).unwrap();
    let reference = t_conv(&x, &k, p.geom()).unwrap();
    assert!(
        out.output.max_abs_diff(&reference) < 1e-9,
        "diff {}",
        out.output.max_abs_diff(&reference)
    );
    assert_eq!(out.cycles, zf.schedule(&p).cycles);
}

#[test]
fn wst_executor_matches_reference_and_schedule() {
    let mut rng = SmallRng::seed_from_u64(11);
    let p = phase(ConvKind::S);
    let x: Fmaps<f64> = Fmaps::random(3, 12, 12, 1.0, &mut rng);
    let k: Kernels<f64> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
    let wst = crate::Wst::new(4, 4, 2);
    let (out, (pr, pw)) = wst_s_conv(&wst, &p, &x, &k).unwrap();
    let reference = s_conv(&x, &k, p.geom()).unwrap();
    assert!(out.output.max_abs_diff(&reference) < 1e-9);
    assert_eq!(out.cycles, wst.schedule(&p).cycles);
    // Observed psum traffic: one read+write per MAC actually fired.
    // The stream never presents padding pixels, so the count sits just
    // below the census (which includes zero-padding MACs).
    assert_eq!(pr, pw);
    assert!(pr <= p.effectual_macs());
    assert!(
        pr * 10 >= p.effectual_macs() * 8,
        "pr {pr} vs census {}",
        p.effectual_macs()
    );
}

#[test]
fn nlr_executor_matches_reference_and_schedule() {
    let mut rng = SmallRng::seed_from_u64(12);
    let p = phase(ConvKind::S);
    let x: Fmaps<f64> = Fmaps::random(3, 12, 12, 1.0, &mut rng);
    let k: Kernels<f64> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
    let nlr = crate::Nlr::new(3, 5);
    let (out, weight_fetches) = nlr_s_conv(&nlr, &p, &x, &k).unwrap();
    let reference = s_conv(&x, &k, p.geom()).unwrap();
    assert!(out.output.max_abs_diff(&reference) < 1e-9);
    assert_eq!(out.cycles, nlr.schedule(&p).cycles);
    // No local reuse: every MAC fetched its weight.
    assert_eq!(weight_fetches, p.effectual_macs());
}

#[test]
fn ost_t_executor_counts_the_wasted_work() {
    // The baseline executor really multiplies the inserted zeros: its
    // effectual count equals the phase's analytical census and the
    // total equals `naive_muls`.
    let mut rng = SmallRng::seed_from_u64(9);
    let p = phase(ConvKind::T);
    let x: Fmaps<f64> = Fmaps::random(5, 6, 6, 1.0, &mut rng);
    let k: Kernels<f64> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
    let ost = crate::Ost::new(4, 4, 2);
    let (out, (effectual, ineffectual)) = ost_t_conv(&ost, &p, &x, &k).unwrap();
    let reference = t_conv(&x, &k, p.geom()).unwrap();
    assert!(out.output.max_abs_diff(&reference) < 1e-9);
    assert_eq!(out.cycles, ost.schedule(&p).cycles);
    assert_eq!(effectual, p.effectual_macs());
    assert_eq!(effectual + ineffectual, p.naive_muls());
    // ~3/4 of the baseline's multiplications are wasted.
    let frac = ineffectual as f64 / (effectual + ineffectual) as f64;
    assert!((0.6..0.85).contains(&frac), "wasted fraction {frac}");
}

#[test]
fn traced_executor_streams_nondecreasing_events_and_matches_untraced() {
    let mut rng = SmallRng::seed_from_u64(7);
    let p = phase(ConvKind::S);
    let x: Fmaps<f64> = Fmaps::random(3, 12, 12, 1.0, &mut rng);
    let k: Kernels<f64> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
    let zf = Zfost::new(4, 4, 2);
    let (out, trace) = zfost_s_conv_traced(&zf, &p, &x, &k, 4096).unwrap();
    // Tracing never changes results or cycle counts.
    assert_eq!(out, zfost_s_conv(&zf, &p, &x, &k).unwrap());
    assert!(!trace.is_empty());
    let mut last = 0u64;
    for (c, _) in trace.iter() {
        assert!(c >= last, "cycle stamps must be nondecreasing");
        last = c;
    }
    assert!(trace
        .iter()
        .any(|(_, e)| matches!(e, TraceEvent::PhaseStart { .. })));
    assert!(trace
        .iter()
        .any(|(_, e)| matches!(e, TraceEvent::Mac { .. })));
    // The binary-search window over the traced run sees everything.
    assert_eq!(trace.window(0, out.cycles + 1).len(), trace.len());
}

#[test]
fn every_traced_variant_emits_events() {
    let mut rng = SmallRng::seed_from_u64(8);
    let x: Fmaps<f64> = Fmaps::random(3, 12, 12, 1.0, &mut rng);
    let small_x: Fmaps<f64> = Fmaps::random(5, 6, 6, 1.0, &mut rng);
    let k: Kernels<f64> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
    let err_small: Fmaps<f64> = Fmaps::random(5, 6, 6, 1.0, &mut rng);
    let err_big: Fmaps<f64> = Fmaps::random(3, 12, 12, 1.0, &mut rng);
    let cap = 512;
    let traces = vec![
        zfost_s_conv_traced(&Zfost::new(4, 4, 2), &phase(ConvKind::S), &x, &k, cap)
            .unwrap()
            .1,
        zfost_t_conv_traced(&Zfost::new(2, 3, 2), &phase(ConvKind::T), &small_x, &k, cap)
            .unwrap()
            .1,
        zfwst_wgrad_s_traced(
            &Zfwst::new(3, 3, 4),
            &phase(ConvKind::WGradS),
            &x,
            &err_small,
            cap,
        )
        .unwrap()
        .1,
        zfwst_wgrad_t_traced(
            &Zfwst::new(4, 2, 3),
            &phase(ConvKind::WGradT),
            &small_x,
            &err_big,
            cap,
        )
        .unwrap()
        .1,
        ost_t_conv_traced(&Ost::new(4, 4, 2), &phase(ConvKind::T), &small_x, &k, cap)
            .unwrap()
            .1,
        wst_s_conv_traced(&Wst::new(4, 4, 2), &phase(ConvKind::S), &x, &k, cap)
            .unwrap()
            .1,
        nlr_s_conv_traced(&Nlr::new(3, 5), &phase(ConvKind::S), &x, &k, cap)
            .unwrap()
            .1,
        zfwst_s_conv_traced(&Zfwst::new(3, 3, 2), &phase(ConvKind::S), &x, &k, cap)
            .unwrap()
            .1,
        zfwst_t_conv_traced(&Zfwst::new(2, 2, 2), &phase(ConvKind::T), &small_x, &k, cap)
            .unwrap()
            .1,
    ];
    for (i, t) in traces.iter().enumerate() {
        assert!(!t.is_empty(), "executor {i} recorded nothing");
        let mut last = 0u64;
        for (c, _) in t.iter() {
            assert!(c >= last, "executor {i}: stamps must be nondecreasing");
            last = c;
        }
    }
}

#[test]
fn zero_trace_capacity_disables_retention_without_changing_results() {
    // The documented capacity-0 contract on the `*_traced` APIs.
    let mut rng = SmallRng::seed_from_u64(13);
    let p = phase(ConvKind::S);
    let x: Fmaps<f64> = Fmaps::random(3, 12, 12, 1.0, &mut rng);
    let k: Kernels<f64> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
    let zf = Zfost::new(4, 4, 2);
    let (out, trace) = zfost_s_conv_traced(&zf, &p, &x, &k, 0).unwrap();
    assert_eq!(out, zfost_s_conv(&zf, &p, &x, &k).unwrap());
    assert!(!trace.enabled());
    assert!(trace.is_empty());
    assert_eq!(trace.evicted(), 0);
}

#[test]
fn workspace_variant_matches_and_reuses_buffers() {
    let mut rng = SmallRng::seed_from_u64(14);
    let p = phase(ConvKind::S);
    let x: Fmaps<f64> = Fmaps::random(3, 12, 12, 1.0, &mut rng);
    let k: Kernels<f64> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
    let zf = Zfost::new(4, 4, 2);
    let baseline = zfost_s_conv(&zf, &p, &x, &k).unwrap();
    let mut ws = ExecWorkspace::new();
    for _ in 0..3 {
        let out = zfost_s_conv_ws(&zf, &p, &x, &k, &mut ws).unwrap();
        assert_eq!(out, baseline);
        ws.give_fmaps(out.output);
    }
}

#[test]
fn schedule_telemetry_lands_in_scoped_registry() {
    let reg = std::sync::Arc::new(zfgan_telemetry::Registry::new());
    let _g = zfgan_telemetry::scope(std::sync::Arc::clone(&reg));
    let zf = Zfost::new(4, 4, 2);
    let stats = zf.schedule(&phase(ConvKind::S));
    let snap = reg.snapshot();
    let cycles = snap
        .counters
        .iter()
        .find(|(k, _, _)| k.render() == "schedule_cycles_total{arch=\"ZFOST\"}")
        .map(|(_, _, v)| *v);
    assert_eq!(cycles, Some(stats.cycles));
    assert!(reg.spans().iter().any(|s| {
        s.path == "schedule/ZFOST/s_conv" && s.attrs.contains(&("cycles", stats.cycles))
    }));
}

#[test]
fn asymmetric_padding_t_conv_matches() {
    // MNIST-GAN geometry: 5×5 kernel, pads (1,2,1,2).
    let mut rng = SmallRng::seed_from_u64(6);
    let geom = ConvGeom::down(28, 28, 5, 5, 2, 14, 14).unwrap();
    let p = ConvShape::new(ConvKind::T, geom, 4, 2, 28, 28);
    let x: Fmaps<f64> = Fmaps::random(4, 14, 14, 1.0, &mut rng);
    let k: Kernels<f64> = Kernels::random(4, 2, 5, 5, 1.0, &mut rng);
    let zf = Zfost::new(4, 4, 2);
    let out = zfost_t_conv(&zf, &p, &x, &k).unwrap();
    let reference = t_conv(&x, &k, &geom).unwrap();
    assert!(out.output.max_abs_diff(&reference) < 1e-9);
    assert_eq!(out.cycles, zf.schedule(&p).cycles);
}

#[test]
fn engine_matches_scalar_oracle_on_the_dcgan_phase() {
    // The engine entry points are diffed exhaustively in
    // `tests/exec_engine.rs`; this is the in-crate smoke over one shape,
    // covering outputs, cycles, and the expanded trace stream.
    let mut rng = SmallRng::seed_from_u64(15);
    let p = phase(ConvKind::S);
    let x: Fmaps<f64> = Fmaps::random(3, 12, 12, 1.0, &mut rng);
    let k: Kernels<f64> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
    let zf = Zfost::new(4, 4, 2);
    let (fast, fast_trace) = zfost_s_conv_traced(&zf, &p, &x, &k, 1 << 20).unwrap();
    let (slow, slow_trace) = scalar::zfost_s_conv_traced(&zf, &p, &x, &k, 1 << 20).unwrap();
    assert_eq!(fast, slow);
    assert_eq!(
        fast_trace.iter().collect::<Vec<_>>(),
        slow_trace.iter().collect::<Vec<_>>()
    );
}

#[test]
fn position_block_count_never_changes_a_byte() {
    // The engine splits positions into a number of blocks that follows the
    // pool width. Pin it instead: 25 and 100 positions and 425 gradient
    // rows under 1..=7 blocks cover counts that divide, that do not, and
    // blocks of unequal length; 17 channels leave a one-lane tail block.
    let mut rng = SmallRng::seed_from_u64(16);
    let geom = ConvGeom::down(10, 10, 5, 5, 2, 5, 5).unwrap();
    let p = |kind| ConvShape::new(kind, geom, 17, 3, 10, 10);
    let big: Fmaps<f32> = Fmaps::random(3, 10, 10, 1.0, &mut rng);
    let small: Fmaps<f32> = Fmaps::random(17, 5, 5, 1.0, &mut rng);
    let k: Kernels<f32> = Kernels::random(17, 3, 5, 5, 1.0, &mut rng);
    let (zfost, zfwst) = (Zfost::new(2, 2, 4), Zfwst::new(2, 2, 4));
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    // `$counted` splits a result into `(outcome, counters)`: the six
    // return a bare outcome, the baselines already a pair.
    macro_rules! check {
        ($engine:ident, $oracle:ident, $arch:expr, $kind:expr, $a:expr, $b:expr) => {
            check!($engine, $oracle, $arch, $kind, $a, $b, |r| (r, ()))
        };
        ($engine:ident, $oracle:ident, $arch:expr, $kind:expr, $a:expr, $b:expr, $counted:expr) => {{
            let (want, want_counters) =
                $counted(scalar::$oracle($arch, &p($kind), $a, $b).unwrap());
            for blocks in 1..=7 {
                let mut ws = ExecWorkspace::with_position_blocks(blocks);
                let (got, _) = engine::$engine($arch, &p($kind), $a, $b, &mut ws, None).unwrap();
                let (got, counters) = $counted(got);
                assert_eq!(counters, want_counters, "{} blocks", blocks);
                assert_eq!(got.cycles, want.cycles, "{} blocks", blocks);
                assert_eq!(
                    bits(got.output.as_slice()),
                    bits(want.output.as_slice()),
                    "{} at {} blocks",
                    stringify!($engine),
                    blocks
                );
            }
        }};
    }
    check!(zfost_s, zfost_s_conv, &zfost, ConvKind::S, &big, &k);
    check!(zfost_t, zfost_t_conv, &zfost, ConvKind::T, &small, &k);
    check!(zfwst_s, zfwst_s_conv, &zfwst, ConvKind::S, &big, &k);
    check!(zfwst_t, zfwst_t_conv, &zfwst, ConvKind::T, &small, &k);
    check!(
        wgrad_s,
        zfwst_wgrad_s,
        &zfwst,
        ConvKind::WGradS,
        &big,
        &small
    );
    check!(
        wgrad_t,
        zfwst_wgrad_t,
        &zfwst,
        ConvKind::WGradT,
        &small,
        &big
    );
    let (ost, wst, nlr) = (Ost::new(2, 3, 4), Wst::new(2, 3, 4), Nlr::new(2, 4));
    check!(ost_t, ost_t_conv, &ost, ConvKind::T, &small, &k, |r| r);
    check!(wst_s, wst_s_conv, &wst, ConvKind::S, &big, &k, |r| r);
    check!(nlr_s, nlr_s_conv, &nlr, ConvKind::S, &big, &k, |r| r);
}

/// A TDC-style table (Colbert et al.): a stride-`s` T-CONV is `s²`
/// stride-1 convolutions of the real input, each with the sub-kernel of
/// the taps `ky ≡ ry, kx ≡ rx (mod s)`; an output belongs to the
/// sub-convolution its position selects. No tap of the table ever sees an
/// inserted zero, so it lists only what lands inside the map.
fn tdc_feed(phase: &ConvShape) -> impl FnMut(usize, &mut Vec<u32>) {
    let geom = *phase.geom();
    let (s, kh, kw) = (geom.stride(), geom.kh(), geom.kw());
    let (pt, _, pl, _) = geom.t_conv_pads();
    let ((sh, sw), lw) = (phase.small_hw(), phase.large_hw().1);
    // The sub-kernel residue of output coordinate `o`, then the taps of
    // that sub-kernel as `(tap, pixel)` of its stride-1 window.
    let axis = move |o: usize, pad: usize, k: usize, len: usize| {
        let r = (pad + (s - 1) * o) % s;
        let first = ((o + r) as isize - pad as isize) / s as isize;
        (r..k).step_by(s).enumerate().filter_map(move |(j, tap)| {
            let px = usize::try_from(first + j as isize).ok()?;
            (px < len).then_some((tap, px))
        })
    };
    move |pos, offs| {
        for (ky, iy) in axis(pos / lw, pt, kh, sh) {
            for (kx, ix) in axis(pos % lw, pl, kw, sw) {
                let flipped = (kh - 1 - ky) * kw + (kw - 1 - kx);
                offs.extend([flipped as u32, (iy * sw + ix) as u32]);
            }
        }
    }
}

#[test]
fn a_tdc_table_on_the_lane_kernel_is_zfost_t_conv() {
    // The seam a tenth dataflow would use: nothing but a table builder.
    // (kernel, stride, out_h, out_w, pad_y, pad_x) from the families
    // `tests/exec_engine.rs` draws.
    let cases = [
        (5, 2, 5, 7, 3, 2),
        (4, 2, 6, 3, 2, 2),
        (5, 3, 4, 5, 4, 1),
        (4, 1, 3, 6, 3, 0),
        (1, 2, 4, 4, 0, 0),
    ];
    let mut rng = SmallRng::seed_from_u64(17);
    for (k, s, oh, ow, py, px) in cases {
        let (lh, lw) = ((oh - 1) * s + k - py, (ow - 1) * s + k - px);
        let geom = ConvGeom::down(lh, lw, k, k, s, oh, ow).unwrap();
        let p = ConvShape::new(ConvKind::T, geom, 17, 3, lh, lw);
        let x: Fmaps<f32> = Fmaps::random(17, oh, ow, 1.0, &mut rng);
        let w: Kernels<f32> = Kernels::random(17, 3, k, k, 1.0, &mut rng);
        let want = scalar::zfost_t_conv(&Zfost::new(2, 2, 4), &p, &x, &w).unwrap();
        let mut ws = ExecWorkspace::new();
        let got = engine::conv_lanes(
            &mut ws.lane,
            &p,
            &x,
            &w,
            1,
            engine::Fold::None,
            tdc_feed(&p),
        );
        let bits = |f: &Fmaps<f32>| f.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.shape(), want.output.shape());
        assert_eq!(
            bits(&got),
            bits(&want.output),
            "k{k} s{s} {oh}x{ow} pad {py},{px}"
        );
    }
}
