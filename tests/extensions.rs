//! Integration tests for the beyond-the-paper extensions: the RTL models,
//! the im2col lowering, parallel training, the fit driver, and the
//! datasheet/roofline machinery.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use zfgan::accel::gantt::BatchSchedule;
use zfgan::accel::{datasheet, AccelConfig, GanAccelerator};
use zfgan::dataflow::rtl::{reorder_load_comparison, rtl_s_conv};
use zfgan::dataflow::{Dataflow, RowStationary, Zfost, Zfwst};
use zfgan::nn::parallel::parallel_dis_grads_with;
use zfgan::nn::{fit, GanPair, GanTrainer, SyncMode, TrainerConfig};
use zfgan::sim::{ConvKind, ConvShape};
use zfgan::tensor::im2col::im2col_t;
use zfgan::tensor::{s_conv, t_conv, ConvBackend, ConvGeom, ConvWorkspace, Fmaps, Kernels};
use zfgan::workloads::{GanSpec, PhaseSeq};

/// The RTL register-lattice machine, the functional executor, the GEMM
/// lowering and the plain loop nest all compute the same convolution.
#[test]
fn four_independent_implementations_agree() {
    let mut rng = SmallRng::seed_from_u64(42);
    let geom = ConvGeom::down(16, 16, 4, 4, 2, 8, 8).expect("static geometry");
    let phase = ConvShape::new(ConvKind::S, geom, 6, 3, 16, 16);
    let x: Fmaps<f64> = Fmaps::random(3, 16, 16, 1.0, &mut rng);
    let k: Kernels<f64> = Kernels::random(6, 3, 4, 4, 0.5, &mut rng);

    let direct = s_conv(&x, &k, &geom).expect("operands match");
    let gemm = ConvBackend::LoweredGemm
        .s_conv_ws(&x, &k, &geom, &mut ConvWorkspace::new())
        .expect("operands match");
    let exec = zfgan::dataflow::exec::zfost_s_conv(&Zfost::new(4, 4, 3), &phase, &x, &k)
        .expect("operands match");
    let rtl = rtl_s_conv(&Zfost::new(4, 4, 3), &phase, &x, &k, true).expect("operands match");

    assert!(direct.max_abs_diff(&gemm) < 1e-9);
    assert!(direct.max_abs_diff(&exec.output) < 1e-9);
    assert!(direct.max_abs_diff(&rtl.output) < 1e-9);
}

/// The im2col patch matrix for T-CONV carries the ineffectual-operand
/// fraction the platform models charge Caffe for.
#[test]
fn caffe_lowering_materialises_the_zeros() {
    let mut rng = SmallRng::seed_from_u64(1);
    let geom = ConvGeom::down(16, 16, 4, 4, 2, 8, 8).expect("static geometry");
    let x: Fmaps<f64> = Fmaps::random(4, 8, 8, 1.0, &mut rng);
    let k: Kernels<f64> = Kernels::random(4, 2, 4, 4, 0.5, &mut rng);
    let lowered = im2col_t(&x, &geom);
    assert!(
        lowered.zero_fraction() > 0.6,
        "fraction {}",
        lowered.zero_fraction()
    );
    // And the shipped Caffe-style lowering still computes the right answer.
    let direct = t_conv(&x, &k, &geom).expect("operands match");
    let gemm = ConvBackend::LoweredGemm
        .t_conv_ws(&x, &k, &geom, &mut ConvWorkspace::new())
        .expect("operands match");
    assert!(direct.max_abs_diff(&gemm) < 1e-9);
}

/// RTL measurement backs the access models: raster feed loads ≥1.5× more
/// than the parity-reordered feed on a strided layer.
#[test]
fn rtl_confirms_the_reorder_claim() {
    let mut rng = SmallRng::seed_from_u64(2);
    let geom = ConvGeom::down(24, 24, 4, 4, 2, 12, 12).expect("static geometry");
    let phase = ConvShape::new(ConvKind::S, geom, 8, 2, 24, 24);
    let x: Fmaps<f64> = Fmaps::random(2, 24, 24, 1.0, &mut rng);
    let k: Kernels<f64> = Kernels::random(8, 2, 4, 4, 0.5, &mut rng);
    let (reordered, raster) =
        reorder_load_comparison(&Zfost::new(4, 4, 4), &phase, &x, &k).expect("operands match");
    assert!(
        raster as f64 > 1.5 * reordered as f64,
        "raster {raster} reordered {reordered}"
    );
}

/// Parallel gradient computation is bit-identical across thread counts and
/// matches what a sequential synchronized trainer would apply.
#[test]
fn parallel_training_is_deterministic() {
    let mut rng = SmallRng::seed_from_u64(3);
    let pair = GanPair::tiny(&mut rng);
    let reals = pair.sample_real_batch(5, &mut rng);
    let fakes = pair.sample_real_batch(5, &mut rng);
    let (g1, s1, f1) = parallel_dis_grads_with(pair.discriminator(), &reals, &fakes, 1);
    let (g4, s4, f4) = parallel_dis_grads_with(pair.discriminator(), &reals, &fakes, 4);
    assert_eq!(s1, s4);
    assert_eq!(f1, f4);
    for (a, b) in g1.iter().zip(&g4) {
        assert_eq!(a.max_abs_diff(b), 0.0);
    }
}

/// The fit driver trains the tiny GAN to a separating critic under the
/// deferred algorithm.
#[test]
fn fit_driver_reaches_a_separating_critic() {
    let mut rng = SmallRng::seed_from_u64(4);
    let pair = GanPair::tiny(&mut rng);
    let mut trainer = GanTrainer::new(
        pair,
        TrainerConfig {
            mode: SyncMode::Deferred,
            learning_rate: 2e-3,
            weight_clip: Some(0.05),
            n_critic: 1,
            ..TrainerConfig::default()
        },
    );
    let history = fit(
        &mut trainer,
        10,
        6,
        8,
        |n, rng| GanPair::tiny(&mut SmallRng::seed_from_u64(9)).sample_real_batch(n, rng),
        &mut rng,
    );
    assert!(history.separation_improved());
}

/// The datasheet, the gantt simulation and the design evaluation agree on
/// the same per-sample cycle numbers.
#[test]
fn datasheet_gantt_and_design_agree() {
    let spec = GanSpec::cgan();
    let accel = GanAccelerator::new(AccelConfig::vcu118(), spec.clone());
    let (st, w) = accel.update_stats(PhaseSeq::DisUpdate);
    // Gantt steady state == the accelerator's deferred model.
    let sched = BatchSchedule::deferred(st.cycles, w.cycles, 16);
    let expected = 16 * st.cycles.max(w.cycles) + st.cycles.min(w.cycles);
    assert_eq!(sched.makespan, expected);
    assert_eq!(
        accel.update_cycles(PhaseSeq::DisUpdate),
        st.cycles.max(w.cycles)
    );
    // The datasheet repeats those numbers.
    let sheet = datasheet(&accel, 16);
    assert!(sheet.contains(&st.cycles.to_string()));
    assert!(sheet.contains(&w.cycles.to_string()));
}

/// Row-stationary gates zeros: same MAC count visible as low utilization
/// where the zero-free designs reclaim cycles.
#[test]
fn gating_vs_skipping_across_all_workloads() {
    for spec in GanSpec::all_paper_gans() {
        let t_phases = spec.phase_set(ConvKind::T);
        let rs = RowStationary::new(4, 4, 75).schedule_all(&t_phases);
        let zf = Zfost::new(4, 4, 75).schedule_all(&t_phases);
        assert!(rs.cycles > 3 * zf.cycles, "{}", spec.name());
        let w_phases = spec.phase_set(ConvKind::WGradT);
        let rs_w = RowStationary::new(4, 4, 30).schedule_all(&w_phases);
        let zf_w = Zfwst::new(4, 4, 30).schedule_all(&w_phases);
        assert!(rs_w.cycles > 3 * zf_w.cycles, "{}", spec.name());
    }
}
