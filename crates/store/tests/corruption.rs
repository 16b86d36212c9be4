//! Corruption-detection contract: **no single bit flip and no truncation**
//! of a stored envelope can ever decode successfully — a load either
//! returns exactly the published bytes or a typed error. This is the
//! property the durability layer's fallback ladder is built on.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use zfgan_store::{crc32, decode_envelope, encode_envelope, Store, StoreConfig};

/// Deterministic filler (splitmix64) so payload bytes vary with the seed
/// without depending on the rand shim.
fn payload_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

/// The bytewise table-free CRC-32 (IEEE, reflected `0xEDB88320`) the
/// store's slicing-by-8 `crc32` must agree with on every input.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    crc ^ 0xFFFF_FFFF
}

/// Every remainder length around the 8-byte stride (0..=67 covers eight
/// full strides plus each tail) at every start alignment.
#[test]
fn slicing_crc_matches_bytewise_at_every_length_and_offset() {
    let buf = payload_bytes(0x5eed, 67 + 8);
    for offset in 0..8 {
        for len in 0..=67 {
            let slice = &buf[offset..offset + len];
            assert_eq!(
                crc32(slice),
                crc32_bytewise(slice),
                "offset {offset}, length {len}"
            );
        }
    }
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

/// An envelope written by the bytewise-CRC encoder this crate shipped
/// before slicing-by-8 (config hash `0x0123456789abcdef`, 48-byte
/// payload). Stores on disk hold these bytes; they must keep decoding,
/// and encoding must keep producing them.
const GOLDEN_ENVELOPE: &[u8] = b"ZFCK\x01\x00\x00\x00\xef\xcd\xab\x89\x67\x45\x23\x01\
\x30\x00\x00\x00\x00\x00\x00\x00\xbe\x04\x33\x6b\x36\x1c\x44\x6f\
{\"golden\":\"zfgan-store envelope v1\",\"n\":[1,2,3]}";

#[test]
fn golden_envelope_from_the_bytewise_encoder_still_round_trips() {
    let env = decode_envelope(GOLDEN_ENVELOPE).expect("golden envelope decodes");
    assert_eq!(env.config_hash, 0x0123_4567_89ab_cdef);
    assert_eq!(
        env.payload,
        b"{\"golden\":\"zfgan-store envelope v1\",\"n\":[1,2,3]}"
    );
    assert_eq!(
        encode_envelope(env.config_hash, &env.payload),
        GOLDEN_ENVELOPE
    );
}

/// A one-record publish writes exactly the bytes the single-envelope
/// layout wrote: a checkpoint generation is byte for byte what it was
/// before generations could hold many records.
#[test]
fn one_record_generation_is_the_golden_envelope() {
    let (_root, mut store) = temp_store("golden");
    let env = decode_envelope(GOLDEN_ENVELOPE).expect("golden envelope decodes");
    let generation = store.publish("k", env.config_hash, &env.payload);
    assert_eq!(generation.ok(), Some(1));
    let written = std::fs::read(store.generation_path("k", 1)).expect("generation reads");
    assert_eq!(written, GOLDEN_ENVELOPE);
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh directory under the temp root, removed with its contents when
/// the guard drops — on a failing case's panic path too.
struct TempRoot(PathBuf);

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A store in a directory its guard removes.
fn temp_store(tag: &str) -> (TempRoot, Store) {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let root =
        std::env::temp_dir().join(format!("zfgan-store-prop-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let root = TempRoot(root);
    match Store::open(&root.0, StoreConfig::default()) {
        Ok(s) => (root, s),
        Err(e) => panic!("open store: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random buffers, long enough to take many 8-byte strides, at a
    /// random start alignment.
    #[test]
    fn slicing_crc_matches_bytewise_on_random_buffers(
        (seed, len, offset) in (any::<u64>(), 0usize..4096, 0usize..8)
    ) {
        let buf = payload_bytes(seed, len + offset);
        prop_assert_eq!(crc32(&buf[offset..]), crc32_bytewise(&buf[offset..]));
    }

    /// Flipping any single bit anywhere in the envelope (header or
    /// payload) is detected by the CRC/shape checks.
    #[test]
    fn any_single_bit_flip_is_detected(
        (seed, len, flip) in (any::<u64>(), 0usize..160, any::<u64>())
    ) {
        let payload = payload_bytes(seed, len);
        let config_hash = seed ^ 0x5bd1_e995;
        let mut bytes = encode_envelope(config_hash, &payload);
        let bit_count = bytes.len() * 8;
        let target = (flip % bit_count as u64) as usize;
        bytes[target / 8] ^= 1 << (target % 8);
        prop_assert!(
            decode_envelope(&bytes).is_err(),
            "bit {} of {} decoded despite the flip",
            target,
            bit_count
        );
    }

    /// Any strict truncation of the envelope is detected — including cuts
    /// inside the header and cuts that leave a valid header but a short
    /// payload.
    #[test]
    fn any_truncation_is_detected(
        (seed, len, cut) in (any::<u64>(), 0usize..160, any::<u64>())
    ) {
        let payload = payload_bytes(seed, len);
        let bytes = encode_envelope(seed, &payload);
        let keep = (cut % bytes.len() as u64) as usize;
        prop_assert!(
            decode_envelope(&bytes[..keep]).is_err(),
            "truncation to {} of {} bytes decoded",
            keep,
            bytes.len()
        );
    }

    /// The intact envelope round-trips the payload and config hash
    /// exactly.
    #[test]
    fn intact_envelope_round_trips((seed, len) in (any::<u64>(), 0usize..160)) {
        let payload = payload_bytes(seed, len);
        let bytes = encode_envelope(seed, &payload);
        let env = match decode_envelope(&bytes) {
            Ok(e) => e,
            Err(e) => return Err(TestCaseError::fail(format!("decode failed: {e}"))),
        };
        prop_assert_eq!(env.config_hash, seed);
        prop_assert_eq!(env.payload, payload);
    }

    /// Damage to a k-record generation costs exactly the records it
    /// touches: a flipped byte — header bytes included, thanks to the
    /// resync — loses the record holding it, a truncation every record it
    /// cuts. Every other payload loads byte-identical, and no load returns
    /// bytes that were not published.
    #[test]
    fn damage_costs_exactly_the_records_it_touches(
        (seed, k, at, truncate) in (any::<u64>(), 1usize..6, any::<u64>(), any::<bool>())
    ) {
        let (_root, mut store) = temp_store("records");
        let payloads: Vec<Vec<u8>> = (0..k)
            .map(|i| payload_bytes(seed ^ i as u64, (seed >> (8 * i)) as usize % 97))
            .collect();
        let records: Vec<(u64, &[u8])> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u64, p.as_slice()))
            .collect();
        prop_assert_eq!(store.publish_many("k", &records).ok(), Some(1));

        let path = store.generation_path("k", 1);
        let mut bytes = std::fs::read(&path)
            .map_err(|e| TestCaseError::fail(format!("read: {e}")))?;
        let at = (at % bytes.len() as u64) as usize;
        let mut end = 0;
        let hit = payloads
            .iter()
            .position(|p| {
                end += zfgan_store::HEADER_LEN + p.len();
                at < end
            })
            .unwrap_or(k);
        let survivors: Vec<usize> = if truncate {
            bytes.truncate(at);
            (0..hit).collect()
        } else {
            bytes[at] ^= 1 << (seed % 8);
            (0..k).filter(|&i| i != hit).collect()
        };
        std::fs::write(&path, &bytes)
            .map_err(|e| TestCaseError::fail(format!("write: {e}")))?;

        let loaded: Vec<(u64, Vec<u8>)> = match store.load_records("k") {
            Ok(Some(found)) => found
                .iter()
                .map(|r| (r.config_hash, r.payload.to_vec()))
                .collect(),
            Err(zfgan_store::StoreError::NoValidGeneration { .. }) => Vec::new(),
            other => return Err(TestCaseError::fail(format!("load: {other:?}"))),
        };
        let expected: Vec<(u64, Vec<u8>)> = survivors
            .iter()
            .map(|&i| (i as u64, payloads[i].clone()))
            .collect();
        prop_assert_eq!(loaded, expected);
    }

    /// End to end through the store: corrupting the newest generation on
    /// disk (bit flip at an arbitrary position) never yields its bytes —
    /// the load falls back to the older intact generation.
    #[test]
    fn store_bit_flip_falls_back_never_lies(
        (seed, len, flip) in (any::<u64>(), 1usize..120, any::<u64>())
    ) {
        let (_root, mut store) = temp_store("flip");
        let old = payload_bytes(seed, len);
        let new = payload_bytes(seed ^ 1, len);
        let g1 = store.publish("k", 7, &old).map_err(|e| e.to_string());
        let g2 = store.publish("k", 7, &new).map_err(|e| e.to_string());
        prop_assert_eq!(g1, Ok(1));
        prop_assert_eq!(g2, Ok(2));

        let path = store.generation_path("k", 2);
        let mut bytes = std::fs::read(&path)
            .map_err(|e| TestCaseError::fail(format!("read: {e}")))?;
        let bit_count = bytes.len() * 8;
        let target = (flip % bit_count as u64) as usize;
        bytes[target / 8] ^= 1 << (target % 8);
        std::fs::write(&path, &bytes)
            .map_err(|e| TestCaseError::fail(format!("write: {e}")))?;

        match store.load_latest("k") {
            Ok(Some(loaded)) => {
                prop_assert_eq!(loaded.generation, 1);
                prop_assert_eq!(loaded.payload, old);
                prop_assert_eq!(loaded.skipped.len(), 1);
            }
            other => {
                return Err(TestCaseError::fail(format!(
                    "expected fallback to generation 1, got {other:?}"
                )))
            }
        }
    }
}
