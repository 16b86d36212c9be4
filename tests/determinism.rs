//! Run-to-run determinism: every simulator-side result in this repository
//! must be a pure function of its inputs — re-running any evaluation
//! produces identical numbers (this is what makes the JSON sidecars
//! diffable and the parallel implementations trustworthy).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use zfgan::accel::{AccelConfig, Design, GanAccelerator, SyncPolicy};
use zfgan::dataflow::{ArchKind, Dataflow, PhaseTuned, UnrollChoice};
use zfgan::nn::{GanPair, GanTrainer, TrainerConfig};
use zfgan::sim::ConvKind;
use zfgan::tensor::{ConvBackend, Fmaps};
use zfgan::workloads::{GanSpec, PhaseSeq};

#[test]
fn unroll_search_is_deterministic_despite_parallelism() {
    // The search scores candidates on worker threads; the ordered argmin
    // must make the result identical across invocations.
    let phases = GanSpec::cgan().phase_set(ConvKind::T);
    let first = UnrollChoice::search(ArchKind::Zfost, 1200, &phases);
    for _ in 0..5 {
        assert_eq!(UnrollChoice::search(ArchKind::Zfost, 1200, &phases), first);
    }
}

#[test]
fn design_evaluation_is_reproducible() {
    let spec = GanSpec::dcgan();
    let combo = Design::Combo {
        st: ArchKind::Zfost,
        w: ArchKind::Zfwst,
    };
    let a = combo.evaluate(&spec, PhaseSeq::DisUpdate, SyncPolicy::Deferred, 1680);
    let b = combo.evaluate(&spec, PhaseSeq::DisUpdate, SyncPolicy::Deferred, 1680);
    assert_eq!(a, b);
}

#[test]
fn accelerator_reports_are_reproducible() {
    let accel = GanAccelerator::new(AccelConfig::vcu118(), GanSpec::mnist_gan());
    let a = accel.iteration_report(32);
    let b = accel.iteration_report(32);
    assert_eq!(a, b);
}

#[test]
fn training_trajectory_is_backend_invariant() {
    // Two WGAN iterations from identical seeds must land on bit-identical
    // weights within each kernel family: both packed-microkernel backends
    // (dense- and zero-free-lowered) land on one identical trajectory of
    // their own — the packed f32 kernel's fused accumulation order is
    // deterministic, not an approximation knob.
    let run = |backend: ConvBackend| -> Fmaps<f32> {
        let mut pair = GanPair::tiny(&mut SmallRng::seed_from_u64(40));
        pair.set_backend(backend);
        let config = TrainerConfig {
            n_critic: 1,
            ..TrainerConfig::default()
        };
        let mut trainer = GanTrainer::new(pair, config);
        let mut rng = SmallRng::seed_from_u64(41);
        for _ in 0..2 {
            trainer.train_iteration(2, &mut rng);
        }
        let z = trainer
            .gan()
            .sample_z_batch(1, &mut SmallRng::seed_from_u64(42));
        trainer.gan().generate(&z[0])
    };
    let golden = run(ConvBackend::GoldenDirect);
    let packed = run(ConvBackend::LoweredZeroFree);
    // Sanity: packed stays in the golden trajectory's neighbourhood (it
    // differs only by fused-vs-separate rounding per accumulation step).
    assert!(
        golden.max_abs_diff(&packed) < 1e-3,
        "packed trajectory strayed {} from golden",
        golden.max_abs_diff(&packed)
    );
    assert_eq!(
        packed,
        run(ConvBackend::LoweredGemm),
        "LoweredGemm diverged from the packed trajectory"
    );
}

/// The deterministic telemetry section must not learn how a GEMM was
/// scheduled: the packed family records under the one label `"blocked"`
/// whether it ran as one inline chunk or fanned out, so a `--telemetry`
/// section is the same bytes at every pool width. Checked where the
/// partition can be chosen in-process (one GEMM past the fan-out
/// threshold, whole against one-tile and one-row chunks) and on a two-step
/// train of the tiny pair, whose section must repeat exactly and carry no
/// other packed label.
#[test]
fn deterministic_telemetry_does_not_learn_the_partition() {
    use std::sync::Arc;
    use zfgan::telemetry::export::deterministic_section;
    use zfgan::telemetry::Registry;
    use zfgan::tensor::gemm::matmul_chunked;
    use zfgan::tensor::im2col::Matrix;
    use zfgan::tensor::microkernel::simd_level;
    use zfgan::tensor::ConvWorkspace;

    let scoped = |work: &mut dyn FnMut()| {
        let reg = Arc::new(Registry::new());
        {
            let _scope = zfgan::telemetry::scope(Arc::clone(&reg));
            work();
        }
        deterministic_section(&reg)
    };

    let (m, kk, n) = (96, 600, 40);
    let mut rng = SmallRng::seed_from_u64(43);
    let a: Matrix<f32> = Matrix::from_vec(m, kk, Fmaps::random(1, m, kk, 1.0, &mut rng).into_vec());
    let b = Matrix::from_vec(kk, n, Fmaps::random(1, kk, n, 1.0, &mut rng).into_vec());
    let gemm_section = |rows_per_chunk: usize| {
        scoped(&mut || {
            let mut out = Matrix::zeros(m, n);
            let ws = &mut ConvWorkspace::new();
            matmul_chunked(
                &a,
                &b,
                &mut out,
                false,
                simd_level(),
                None,
                rows_per_chunk,
                ws,
            );
        })
    };
    let whole = gemm_section(m);
    assert!(
        whole.contains(r#"gemm_calls{backend=\"blocked\"}"#),
        "{whole}"
    );
    for rows_per_chunk in [6, 1] {
        assert_eq!(
            whole,
            gemm_section(rows_per_chunk),
            "{rows_per_chunk}-row chunks"
        );
    }

    let train_section = || {
        scoped(&mut || {
            let pair = GanPair::tiny(&mut SmallRng::seed_from_u64(40));
            let config = TrainerConfig {
                n_critic: 1,
                ..TrainerConfig::default()
            };
            let mut trainer = GanTrainer::new(pair, config);
            let mut rng = SmallRng::seed_from_u64(41);
            for _ in 0..2 {
                trainer.train_iteration(2, &mut rng);
            }
        })
    };
    let first = train_section();
    assert!(
        first.contains(r#"gemm_calls{backend=\"blocked\"}"#),
        "{first}"
    );
    assert!(!first.contains(r#"backend=\"parallel\""#), "{first}");
    assert_eq!(first, train_section());
}

#[test]
fn tuned_schedules_are_reproducible() {
    let phases = GanSpec::cgan().iteration_phases();
    let t1 = PhaseTuned::tune(ArchKind::Zfwst, 480, &phases);
    let t2 = PhaseTuned::tune(ArchKind::Zfwst, 480, &phases);
    for p in &phases {
        assert_eq!(t1.schedule(p), t2.schedule(p));
    }
}
