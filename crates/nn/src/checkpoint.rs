//! Checkpointing: serialise a trained [`GanPair`] and restore it later.
//!
//! Both networks are plain serde data structures, so any serde format
//! works; the round-trip re-validates the pair's shape contract on load.
//! On disk a checkpoint travels inside a [`crate::DurableSnapshot`], which
//! [`crate::DurableCheckpointer`] persists through the crash-consistent
//! `zfgan-store` envelope (CRC'd, atomically renamed, generation-retained),
//! so an on-disk checkpoint is either bit-exact or a typed
//! [`CheckpointError`] — never silently wrong weights.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::network::ConvNet;
use crate::trainer::GanPair;

/// Why a checkpoint could not be restored — each variant names the
/// invariant that failed, so a CLI can print a one-line diagnosis
/// (payload truncation vs bad header vs shape mismatch) instead of a
/// generic shape error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The payload did not parse as checkpoint JSON (truncation, editing,
    /// or the store returned bytes of a different artifact).
    Parse(String),
    /// One network parsed but violates its own internal invariants.
    InvalidNetwork {
        /// Which network: `"generator"` or `"discriminator"`.
        network: &'static str,
        /// The layer-level reason reported by the network validator.
        reason: String,
    },
    /// Both networks are individually valid but do not form a compatible
    /// Generator/Discriminator pair.
    PairMismatch(String),
    /// The durability layer failed: corrupt envelope, I/O error, no valid
    /// generation. The message is the store's one-line diagnosis.
    Store(String),
    /// A non-network portion of a durable snapshot is invalid (optimizer
    /// shape, RNG state, trainer config).
    InvalidState {
        /// Which portion: `"optimizer"`, `"rng"`, `"config"`, ….
        what: &'static str,
        /// Why it was rejected.
        reason: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Parse(msg) => write!(f, "checkpoint parse error: {msg}"),
            CheckpointError::InvalidNetwork { network, reason } => {
                write!(f, "checkpoint {network} invalid: {reason}")
            }
            CheckpointError::PairMismatch(msg) => {
                write!(f, "checkpoint pair mismatch: {msg}")
            }
            CheckpointError::Store(msg) => write!(f, "checkpoint store: {msg}"),
            CheckpointError::InvalidState { what, reason } => {
                write!(f, "checkpoint {what} invalid: {reason}")
            }
        }
    }
}

impl Error for CheckpointError {}

/// A serialisable snapshot of a Generator/Discriminator pair.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use zfgan_nn::{Checkpoint, GanPair};
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// let pair = GanPair::tiny(&mut rng);
/// let snapshot = Checkpoint::from_pair(&pair);
/// let restored = snapshot.into_pair()?;
/// assert_eq!(restored.image_shape(), pair.image_shape());
/// # Ok::<(), zfgan_nn::CheckpointError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    generator: ConvNet,
    discriminator: ConvNet,
}

impl Checkpoint {
    /// Snapshots a pair (clones both networks).
    pub fn from_pair(pair: &GanPair) -> Self {
        Self {
            generator: pair.generator().clone(),
            discriminator: pair.discriminator().clone(),
        }
    }

    /// Restores the pair, re-validating both networks' internal invariants
    /// and their shape compatibility.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::InvalidNetwork`] if a network violates its own
    /// invariants (the error names which network and why);
    /// [`CheckpointError::PairMismatch`] if both are valid but do not
    /// compose into a GAN.
    pub fn into_pair(self) -> Result<GanPair, CheckpointError> {
        self.validate()?;
        GanPair::new(self.generator, self.discriminator)
            .map_err(|e| CheckpointError::PairMismatch(e.to_string()))
    }

    /// Checks every invariant of both snapshotted networks — the guard that
    /// turns corrupted payloads into errors instead of panics. Called by
    /// [`Checkpoint::into_pair`] and [`Checkpoint::from_json`].
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::InvalidNetwork`] naming the offending
    /// network and layer.
    pub fn validate(&self) -> Result<(), CheckpointError> {
        self.generator
            .validate()
            .map_err(|e| CheckpointError::InvalidNetwork {
                network: "generator",
                reason: e.to_string(),
            })?;
        self.discriminator
            .validate()
            .map_err(|e| CheckpointError::InvalidNetwork {
                network: "discriminator",
                reason: e.to_string(),
            })
    }

    /// Serialises the checkpoint to JSON (bit-exact float round-trip).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serialisation is infallible")
    }

    /// Parses and fully validates a JSON checkpoint. Truncated, edited or
    /// shape-mismatched payloads return an error — never a panic.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Parse`] if the JSON does not parse;
    /// [`CheckpointError::InvalidNetwork`] if the parsed networks violate
    /// any invariant.
    pub fn from_json(json: &str) -> Result<Self, CheckpointError> {
        let cp: Self =
            serde_json::from_str(json).map_err(|e| CheckpointError::Parse(e.to_string()))?;
        cp.validate()?;
        Ok(cp)
    }

    /// The snapshotted Generator.
    pub fn generator(&self) -> &ConvNet {
        &self.generator
    }

    /// The snapshotted Discriminator.
    pub fn discriminator(&self) -> &ConvNet {
        &self.discriminator
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use zfgan_tensor::Fmaps;

    #[test]
    fn json_round_trip_preserves_behaviour() {
        let mut rng = SmallRng::seed_from_u64(7);
        let pair = GanPair::tiny(&mut rng);
        let z = Fmaps::random(8, 1, 1, 1.0, &mut rng);
        let before = pair.generator().forward(&z).unwrap().output().clone();

        let json = serde_json::to_string(&Checkpoint::from_pair(&pair)).unwrap();
        let restored: Checkpoint = serde_json::from_str(&json).unwrap();
        let restored = restored.into_pair().unwrap();
        let after = restored.generator().forward(&z).unwrap().output().clone();
        assert_eq!(before, after, "restored generator must be bit-identical");
    }

    #[test]
    fn mismatched_networks_fail_to_restore() {
        let mut rng = SmallRng::seed_from_u64(8);
        let a = GanPair::tiny(&mut rng);
        let bad = Checkpoint {
            generator: a.discriminator().clone(), // wrong role
            discriminator: a.discriminator().clone(),
        };
        match bad.into_pair() {
            Err(CheckpointError::PairMismatch(msg)) => {
                assert!(msg.contains("generator produces"), "{msg}")
            }
            other => panic!("expected PairMismatch, got {other:?}"),
        }
    }

    #[test]
    fn parse_and_network_errors_are_distinguished() {
        let mut rng = SmallRng::seed_from_u64(9);
        let json = Checkpoint::from_pair(&GanPair::tiny(&mut rng)).to_json();

        assert!(matches!(
            Checkpoint::from_json(&json[..json.len() / 2]),
            Err(CheckpointError::Parse(_))
        ));

        let zero_stride = json.replacen("\"stride\":2", "\"stride\":0", 1);
        assert_ne!(zero_stride, json);
        match Checkpoint::from_json(&zero_stride) {
            Err(CheckpointError::InvalidNetwork { reason, .. }) => {
                assert!(reason.contains("stride"), "{reason}")
            }
            other => panic!("expected InvalidNetwork, got {other:?}"),
        }
    }
}
