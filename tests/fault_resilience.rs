//! End-to-end resilience acceptance tests: campaign determinism, ABFT
//! coverage of accumulator faults, and supervised-training rollback.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use zfgan::faults::{run_campaign, smoke_violations, CampaignConfig};
use zfgan::nn::{GanPair, GanTrainer, SupervisedTrainer, SupervisorConfig, TrainerConfig};
use zfgan::tensor::fault::{FaultKind, FaultPlan, FaultSite};

/// Same seed → byte-identical campaign JSON (the `results/faults.json`
/// reproducibility contract).
#[test]
fn campaign_json_is_byte_deterministic() {
    let cfg = CampaignConfig::smoke(2024);
    let a = serde_json::to_string(&run_campaign(&cfg).unwrap()).unwrap();
    let b = serde_json::to_string(&run_campaign(&cfg).unwrap()).unwrap();
    assert_eq!(a, b);
}

/// The ABFT-checked GEMM detects every injected accumulator fault above
/// quantization noise: zero silent corruptions at that site, nonzero
/// detections overall.
#[test]
fn abft_catches_all_accumulator_faults_in_the_smoke_campaign() {
    let result = run_campaign(&CampaignConfig::smoke(2024)).unwrap();
    let mut detected_at_accumulator = 0u64;
    for cell in result.cells.iter().filter(|c| c.site == "gemm-accumulator") {
        assert_eq!(cell.silent, 0, "silent corruption escaped ABFT: {cell:?}");
        detected_at_accumulator += cell.detected;
    }
    assert!(detected_at_accumulator > 0, "campaign injected nothing");
    assert!(
        smoke_violations(&result).is_empty(),
        "{:?}",
        smoke_violations(&result)
    );
}

/// The supervisor's telemetry counters mirror its own `SupervisorStats`
/// exactly when an injected-fault scenario runs under a scoped registry:
/// one observability channel, no drift between the two books.
#[test]
fn supervisor_telemetry_counters_match_injected_fault_stats() {
    let plan = FaultPlan::new(
        99,
        0.5,
        FaultSite::TrainerStep,
        FaultKind::BitFlip { bit: 30 },
    )
    .unwrap();
    let mut rng = SmallRng::seed_from_u64(100);
    let trainer = GanTrainer::try_new(
        GanPair::tiny(&mut rng),
        TrainerConfig {
            n_critic: 1,
            ..TrainerConfig::default()
        },
    )
    .unwrap();
    let mut sup = SupervisedTrainer::new(
        trainer,
        SupervisorConfig {
            fault: Some(plan),
            max_retries: 8,
            ..SupervisorConfig::default()
        },
    )
    .unwrap();

    let reg = std::sync::Arc::new(zfgan::telemetry::Registry::new());
    let mut step_rng = SmallRng::seed_from_u64(101);
    {
        let _guard = zfgan::telemetry::scope(std::sync::Arc::clone(&reg));
        for _ in 0..5 {
            sup.train_iteration(2, &mut step_rng).unwrap();
        }
    }

    let stats = *sup.stats();
    assert!(stats.faults_injected > 0, "{stats:?}");
    assert!(stats.rollbacks > 0, "{stats:?}");

    let snap = reg.snapshot();
    let counter = |name: &str| -> u64 {
        snap.counters
            .iter()
            .filter(|(k, _, _)| k.name == name)
            .map(|(_, _, v)| *v)
            .sum()
    };
    assert_eq!(counter("supervisor_iterations_total"), stats.iterations);
    assert_eq!(
        counter("supervisor_faults_injected_total"),
        stats.faults_injected
    );
    assert_eq!(counter("supervisor_anomalies_total"), stats.anomalies);
    assert_eq!(counter("supervisor_rollbacks_total"), stats.rollbacks);
    assert_eq!(counter("supervisor_retries_total"), stats.retries);
    // Every rollback restored a snapshot; one more snapshot per healthy
    // iteration was taken as the new last-good state.
    assert_eq!(counter("trainer_restores_total"), stats.rollbacks);
    assert_eq!(counter("trainer_snapshots_total"), stats.iterations);
    // The anomaly counter is labelled by kind; the label values must be
    // real anomaly names, not free text.
    for (k, _, _) in snap
        .counters
        .iter()
        .filter(|(k, _, _)| k.name == "supervisor_anomalies_total")
    {
        assert_eq!(k.labels.len(), 1, "{k:?}");
        assert_eq!(k.labels[0].0, "kind");
    }
}

/// An injected NaN during training triggers rollback + retry and the run
/// still completes with finite losses.
#[test]
fn nan_injection_rolls_back_and_training_finishes_finite() {
    // Sign-and-exponent havoc: bit 30 flips on clipped weights always
    // produce magnitudes around 1e36 — instantly unhealthy.
    let plan = FaultPlan::new(
        99,
        0.5,
        FaultSite::TrainerStep,
        FaultKind::BitFlip { bit: 30 },
    )
    .unwrap();
    let mut rng = SmallRng::seed_from_u64(100);
    let trainer = GanTrainer::try_new(
        GanPair::tiny(&mut rng),
        TrainerConfig {
            n_critic: 1,
            ..TrainerConfig::default()
        },
    )
    .unwrap();
    let mut sup = SupervisedTrainer::new(
        trainer,
        SupervisorConfig {
            fault: Some(plan),
            max_retries: 8,
            ..SupervisorConfig::default()
        },
    )
    .unwrap();

    let mut step_rng = SmallRng::seed_from_u64(101);
    let mut last = None;
    for _ in 0..5 {
        last = Some(sup.train_iteration(2, &mut step_rng).unwrap());
    }
    let (d, g) = last.unwrap();
    assert!(d.dis_loss.is_finite());
    assert!(g.gen_loss.is_finite());
    let stats = sup.stats();
    assert!(stats.faults_injected > 0, "{stats:?}");
    assert!(stats.rollbacks > 0, "{stats:?}");
    assert_eq!(stats.iterations, 5, "{stats:?}");
    // Every parameter the run ends with is healthy.
    for net in [
        sup.trainer().gan().generator(),
        sup.trainer().gan().discriminator(),
    ] {
        for layer in net.layers() {
            assert!(layer.weights().as_slice().iter().all(|w| w.is_finite()));
            assert!(layer.bias().iter().all(|b| b.is_finite()));
        }
    }
}

/// Store round-trip + resume preserves the RNG stream bit-for-bit: the
/// resumed trainer, optimizers and step RNG continue the exact trajectory
/// of the uninterrupted run.
#[test]
fn store_round_trip_resume_preserves_rng_streams_bit_for_bit() {
    use zfgan::nn::durable::run_config_hash;
    use zfgan::nn::{DurableCheckpointer, DurableSnapshot, TrainRecord};

    let dir = std::env::temp_dir().join(format!("zfgan-resilience-rng-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let config = TrainerConfig {
        n_critic: 1,
        ..TrainerConfig::default()
    };
    let mut init_rng = SmallRng::seed_from_u64(77);
    let mut trainer = GanTrainer::new(GanPair::tiny(&mut init_rng), config);
    let mut rng = SmallRng::seed_from_u64(78);

    // Train 3 iterations, snapshot through the store, train 3 more.
    let mut records = Vec::new();
    for i in 1..=3u64 {
        let (d, g) = trainer.train_iteration(2, &mut rng);
        records.push(TrainRecord {
            iteration: i,
            dis_loss: d.dis_loss,
            gen_loss: g.gen_loss,
            wasserstein: d.wasserstein_estimate,
        });
    }
    let hash = run_config_hash(trainer.config(), 77, 2);
    let mut cp = DurableCheckpointer::open_dir(&dir, "rng", hash, 1, 4).unwrap();
    let snap = DurableSnapshot::capture(&trainer.snapshot(), trainer.config(), &rng, 3, &records);
    cp.publish(&snap).unwrap();

    // Resume from disk into a *fresh* trainer/RNG.
    let (_, loaded, skipped) = cp.load_latest().unwrap().unwrap();
    assert!(skipped.is_empty());
    let (mut resumed, mut resumed_rng, iter, _) = loaded.resume().unwrap();
    assert_eq!(iter, 3);
    assert_eq!(
        rng.state(),
        resumed_rng.state(),
        "restored RNG must carry the exact xoshiro state words"
    );

    // Both trajectories must stay bit-identical — losses AND RNG words.
    for _ in 0..3 {
        let (d1, g1) = trainer.train_iteration(2, &mut rng);
        let (d2, g2) = resumed.train_iteration(2, &mut resumed_rng);
        assert_eq!(d1, d2);
        assert_eq!(g1, g2);
        assert_eq!(rng.state(), resumed_rng.state(), "RNG streams diverged");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The supervisor's periodic durable publish persists exactly its
/// last-good state: what `maybe_publish` wrote equals what `capture` on
/// the live state produces, and corrupting the newest generation falls
/// back to the previous publish instead of loading garbage.
#[test]
fn supervisor_durable_publish_persists_last_good_state() {
    use zfgan::nn::durable::run_config_hash;
    use zfgan::nn::{DurableCheckpointer, DurableSnapshot, TrainRecord};

    let dir = std::env::temp_dir().join(format!("zfgan-resilience-publish-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let config = TrainerConfig {
        n_critic: 1,
        ..TrainerConfig::default()
    };
    let mut init_rng = SmallRng::seed_from_u64(90);
    let trainer = GanTrainer::new(GanPair::tiny(&mut init_rng), config);
    let hash = run_config_hash(&config, 90, 2);
    let mut sup = SupervisedTrainer::new(trainer, SupervisorConfig::default()).unwrap();
    sup.set_checkpointer(DurableCheckpointer::open_dir(&dir, "train", hash, 1, 4).unwrap());

    let mut rng = SmallRng::seed_from_u64(91);
    let mut records: Vec<TrainRecord> = Vec::new();
    let mut generations = Vec::new();
    for i in 1..=3u64 {
        let (d, g) = sup.train_iteration(2, &mut rng).unwrap();
        records.push(TrainRecord {
            iteration: i,
            dis_loss: d.dis_loss,
            gen_loss: g.gen_loss,
            wasserstein: d.wasserstein_estimate,
        });
        generations.push(sup.maybe_publish(i, &rng, &records).unwrap().unwrap());
    }
    assert_eq!(generations, vec![1, 2, 3]);

    // What landed on disk is exactly the live last-good state.
    let expected = DurableSnapshot::capture(
        &sup.trainer().snapshot(),
        sup.trainer().config(),
        &rng,
        3,
        &records,
    );
    let cp = sup.checkpointer_mut().unwrap();
    let (generation, loaded, _) = cp.load_latest().unwrap().unwrap();
    assert_eq!(generation, 3);
    assert_eq!(loaded.to_json(), expected.to_json());

    // Flip one byte of the newest generation: load must fall back to
    // generation 2 — iteration 2's state — never load the corrupt bytes.
    let path = cp.store_mut().generation_path("train", 3);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let (generation, fallback, skipped) = cp.load_latest().unwrap().unwrap();
    assert_eq!(generation, 2);
    assert_eq!(fallback.iteration, 2);
    assert!(
        !skipped.is_empty(),
        "the skipped corrupt generation must be reported"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
