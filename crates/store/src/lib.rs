//! Crash-consistent on-disk artifact store.
//!
//! The store holds *generations* of a keyed artifact (a checkpoint, a wave
//! of sweep cells, …) as individual files under `<root>/<key>/gen-<n>.zfc`.
//! A generation is one or more *records* back to back, each a
//! self-validating binary envelope (magic, format version, canonical config
//! hash, payload length, CRC32 of the payload, CRC32 of the header itself):
//! a checkpoint publishes one record per generation, a DSE wave all of its
//! cells in one ([`Store::publish_many`]). A reader can always tell a
//! complete record from a torn, truncated or bit-rotted one — there is no
//! state in which a load silently returns wrong bytes.
//!
//! Durability protocol (per publish, however many records it carries):
//!
//! 0. create the key directory if it is new, then `fsync` the root so the
//!    directory entry itself is durable ([`Store::create_key`]);
//! 1. scan the key directory once: sweep stale temp files, take the next
//!    generation number, keep the list for step 5;
//! 2. write every envelope to `<key>/.tmp-<n>` and `fsync` the file;
//! 3. atomically `rename` the temp file onto `gen-<n>.zfc`;
//! 4. `fsync` the key directory so the rename itself is durable;
//! 5. prune generations older than the retention window (the scanned list
//!    plus the new generation — no second look at the directory).
//!
//! A whole key goes with [`Store::remove_key`], which the DSE engine uses
//! to delete waves it has carried forward.
//!
//! A crash before (3) leaves only a temp file, which readers never look at
//! and the next publish sweeps away. A crash after (3) leaves a complete
//! generation. The envelope CRCs cover the remaining failure mode — torn or
//! rotted bytes inside a generation — by demoting each record they touch to
//! "corrupt", which loads skip, falling back to the newest valid record.
//!
//! A load reads a generation into one buffer and walks its records by their
//! header lengths, each header checked by its CRC before its length is
//! trusted; after a corrupt header the walk resumes at the next header that
//! checks out, so one flipped byte costs one record. Both CRCs are
//! slicing-by-8 over compile-time tables; a payload of 512 bytes or more
//! runs four independent chains over its quarters, joined by GF(2) shifts
//! into the value one chain computes, so stores on disk stay valid. A
//! loaded payload is never copied.
//!
//! Transient I/O errors (`Interrupted`, `WouldBlock`, `TimedOut`) are
//! retried a bounded number of times with deterministic exponential
//! backoff. Everything observable is counted through `zfgan-telemetry`
//! wall-clock counters (`store_*_total`), which keeps the deterministic
//! export section byte-stable across crash/resume and cache hit/miss.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Envelope magic: "ZFCK" (zero-free checkpoint).
pub const MAGIC: [u8; 4] = *b"ZFCK";
/// Current envelope format version.
pub const FORMAT_VERSION: u32 = 1;
/// Fixed envelope header length in bytes.
pub const HEADER_LEN: usize = 32;

const TMP_PREFIX: &str = ".tmp-";
const GEN_PREFIX: &str = "gen-";
const GEN_SUFFIX: &str = ".zfc";

// ---------------------------------------------------------------------------
// Hashing primitives (dependency-free)
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) slicing-by-8
/// lookup tables, built at compile time. `[0]` is the classic bytewise
/// table; `[k][b]` is the CRC of byte `b` followed by `k` zero bytes, which
/// lets [`crc32`] fold eight input bytes per step, and [`crc32_mulmod`]
/// reduce a product by advancing it over four zero bytes.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// `x^(2^k) mod P` for `k` in `0..32`, in the reflected bit order of the
/// CRC register (bit 31 is `x^0`), built at compile time: the powers
/// [`crc32_shift`] multiplies together.
const CRC32_X2N: [u32; 32] = {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = crc32_mulmod(p, p);
        k += 1;
    }
    table
};

/// Inputs shorter than this run one chain: below it, the shifts that
/// combine four chains cost more than the chains save.
const CRC32_FOUR_CHAIN_MIN: usize = 512;

/// CRC-32 (IEEE) of `bytes`. An input of `CRC32_FOUR_CHAIN_MIN` bytes or
/// more runs four independent slicing-by-8 chains over equal quarters, each
/// a whole number of 8-byte steps, so the table lookups of one chain
/// overlap the others' instead of each step waiting on the last. The
/// chains are joined by GF(2) shifts (zlib's `crc32_combine`), the tail of
/// under 32 bytes runs after them, and the value is the one a single chain
/// computes.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let crc = if bytes.len() < CRC32_FOUR_CHAIN_MIN {
        crc32_update(0xFFFF_FFFF, bytes)
    } else {
        let steps = bytes.len() / 32; // 8-byte steps per chain
        let (body, tail) = bytes.split_at(32 * steps);
        let (words, _) = body.as_chunks::<8>();
        let (a, rest) = words.split_at(steps);
        let (b, rest) = rest.split_at(steps);
        let (c, d) = rest.split_at(steps);
        let mut crc = [0xFFFF_FFFF, 0, 0, 0];
        for (((a, b), c), d) in a.iter().zip(b).zip(c).zip(d) {
            crc = [
                crc32_step(crc[0], a),
                crc32_step(crc[1], b),
                crc32_step(crc[2], c),
                crc32_step(crc[3], d),
            ];
        }
        // The register is linear in its input: the CRC of two pieces is the
        // first's register shifted over the second's length, XOR the
        // second's from a zero register — which is how chains 1..3 start.
        let shift = crc32_shift(8 * steps);
        let joined = crc[1..]
            .iter()
            .fold(crc[0], |acc, &next| crc32_mulmod(acc, shift) ^ next);
        crc32_update(joined, tail)
    };
    crc ^ 0xFFFF_FFFF
}

/// One slicing-by-8 step: the register `crc` advanced over the eight bytes
/// of `c`.
#[inline(always)]
fn crc32_step(crc: u32, c: &[u8; 8]) -> u32 {
    let t = &CRC32_TABLES;
    let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// The register `crc` advanced over `bytes`: eight bytes per step, then
/// the rest one at a time.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let (chunks, rest) = bytes.as_chunks();
    for c in chunks {
        crc = crc32_step(crc, c);
    }
    for &b in rest {
        crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// `a · b mod P` over GF(2), both in the register's reflected bit order:
/// a carry-less multiply, whose reflected 64-bit product holds `x^0..x^31`
/// in its high half, then the low half (`x^32..x^63`) reduced by advancing
/// it over four zero bytes with the slicing tables.
const fn crc32_mulmod(a: u32, b: u32) -> u32 {
    let mut product = 0u64;
    let mut bit = 0;
    while bit < 32 {
        product ^= ((b as u64) << bit) & 0u64.wrapping_sub(((a >> bit) & 1) as u64);
        bit += 1;
    }
    let t = &CRC32_TABLES;
    let (high, low) = ((product >> 31) as u32, (product << 1) as u32);
    high ^ t[3][(low & 0xFF) as usize]
        ^ t[2][((low >> 8) & 0xFF) as usize]
        ^ t[1][((low >> 16) & 0xFF) as usize]
        ^ t[0][(low >> 24) as usize]
}

/// `x^(8·len) mod P`: multiplying a register by it advances the register
/// over `len` zero bytes. The powers repeat every 32 (`x^(2^32) = x mod
/// P`), so the table index wraps.
fn crc32_shift(len: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    let mut n = len;
    let mut k = 3; // one byte is x^(2^3)
    while n != 0 {
        if n & 1 != 0 {
            p = crc32_mulmod(p, CRC32_X2N[k % 32]);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// FNV-1a 64-bit hash of `bytes` — the workspace's canonical config hash.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64-bit hash with a caller-supplied salt folded in first (used
/// where two independent hashes of the same bytes are wanted).
#[must_use]
pub fn fnv64_salted(salt: u64, bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ salt;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a stored envelope failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The file is shorter than expected (header or payload cut off).
    Truncated {
        /// Bytes required for a complete envelope (or header).
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The magic bytes do not match [`MAGIC`].
    BadMagic,
    /// The header CRC does not match — the header itself is corrupt.
    HeaderCorrupt,
    /// The format version is newer than this reader understands.
    UnsupportedVersion(u32),
    /// The file is longer than `HEADER_LEN + payload_len`.
    TrailingGarbage {
        /// Bytes beyond the declared envelope end.
        extra: usize,
    },
    /// The payload CRC does not match the header's payload CRC.
    PayloadCorrupt,
    /// The stored config hash does not match the caller's expectation.
    ConfigHashMismatch {
        /// Hash the caller expected.
        expected: u64,
        /// Hash stored in the envelope.
        got: u64,
    },
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::Truncated { expected, got } => {
                write!(f, "truncated envelope: need {expected} bytes, have {got}")
            }
            EnvelopeError::BadMagic => write!(f, "bad magic (not a zfgan-store envelope)"),
            EnvelopeError::HeaderCorrupt => write!(f, "header CRC mismatch"),
            EnvelopeError::UnsupportedVersion(v) => {
                write!(f, "unsupported format version {v} (max {FORMAT_VERSION})")
            }
            EnvelopeError::TrailingGarbage { extra } => {
                write!(f, "{extra} trailing bytes beyond declared payload")
            }
            EnvelopeError::PayloadCorrupt => write!(f, "payload CRC mismatch"),
            EnvelopeError::ConfigHashMismatch { expected, got } => {
                write!(
                    f,
                    "config hash {got:#018x} does not match expected {expected:#018x}"
                )
            }
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// A store operation failure.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation failed (after exhausting any retries).
    Io {
        /// What the store was doing ("create-dir", "write", "rename", …).
        op: &'static str,
        /// Path the operation targeted.
        path: PathBuf,
        /// Underlying error.
        source: io::Error,
    },
    /// Generations exist for the key but none survived validation.
    NoValidGeneration {
        /// The key that was loaded.
        key: String,
        /// Every record that was tried, newest first, with its generation
        /// and failure.
        skipped: Vec<(u64, String)>,
    },
    /// The key contains characters outside `[A-Za-z0-9._-]`.
    InvalidKey(String),
    /// The store configuration is invalid (e.g. `keep == 0`).
    InvalidConfig(String),
    /// A publish to this key carried no records.
    NoRecords(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, source } => {
                write!(f, "{op} failed for {}: {source}", path.display())
            }
            StoreError::NoValidGeneration { key, skipped } => {
                write!(
                    f,
                    "no valid generation for key '{key}' ({} tried)",
                    skipped.len()
                )
            }
            StoreError::InvalidKey(k) => {
                write!(f, "invalid store key '{k}' (allowed: [A-Za-z0-9._-])")
            }
            StoreError::InvalidConfig(msg) => write!(f, "invalid store config: {msg}"),
            StoreError::NoRecords(k) => write!(f, "a publish to '{k}' carried no records"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Envelope encode / decode
// ---------------------------------------------------------------------------

/// Builds a complete envelope (header + payload) around `payload`.
///
/// Header layout (little-endian):
///
/// | bytes  | field                         |
/// |--------|-------------------------------|
/// | 0..4   | magic `"ZFCK"`                |
/// | 4..8   | format version (u32)          |
/// | 8..16  | canonical config hash (u64)   |
/// | 16..24 | payload length (u64)          |
/// | 24..28 | payload CRC32 (u32)           |
/// | 28..32 | header CRC32 over bytes 0..28 |
#[must_use]
pub fn encode_envelope(config_hash: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&envelope_header(config_hash, payload));
    out.extend_from_slice(payload);
    out
}

/// The header [`encode_envelope`] puts in front of `payload`.
fn envelope_header(config_hash: u64, payload: &[u8]) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(&MAGIC);
    h[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&config_hash.to_le_bytes());
    h[16..24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    h[24..28].copy_from_slice(&crc32(payload).to_le_bytes());
    let header_crc = crc32(&h[..28]);
    h[28..].copy_from_slice(&header_crc.to_le_bytes());
    h
}

/// A validated envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Canonical config hash stored by the writer.
    pub config_hash: u64,
    /// The validated payload bytes.
    pub payload: Vec<u8>,
}

/// A record that passed every envelope check, borrowed from the buffer its
/// generation was read into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record<'a> {
    /// Canonical config hash stored by the writer.
    pub config_hash: u64,
    /// The validated payload bytes.
    pub payload: &'a [u8],
}

/// Validates and decodes an envelope produced by [`encode_envelope`].
///
/// # Errors
///
/// Returns an [`EnvelopeError`] describing exactly which invariant failed
/// (truncation, bad magic, header corruption, version skew, trailing bytes,
/// payload corruption). Any single bit flip or truncation of the stored
/// bytes is detected.
pub fn decode_envelope(bytes: &[u8]) -> Result<Envelope, EnvelopeError> {
    let header = parse_header(bytes)?;
    let end = HEADER_LEN + header.payload_len;
    if bytes.len() > end {
        return Err(EnvelopeError::TrailingGarbage {
            extra: bytes.len() - end,
        });
    }
    check_payload(bytes, &header)?;
    Ok(Envelope {
        config_hash: header.config_hash,
        payload: bytes[HEADER_LEN..].to_vec(),
    })
}

/// A header whose magic, CRC and version checked out, so its fields can be
/// trusted.
struct Header {
    config_hash: u64,
    payload_len: usize,
    payload_crc: u32,
}

/// Checks the header at the front of `bytes`.
fn parse_header(bytes: &[u8]) -> Result<Header, EnvelopeError> {
    if bytes.len() < HEADER_LEN {
        return Err(EnvelopeError::Truncated {
            expected: HEADER_LEN,
            got: bytes.len(),
        });
    }
    let u32le = |off: usize| {
        u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
    };
    let u64le = |off: usize| u64::from(u32le(off)) | u64::from(u32le(off + 4)) << 32;
    // A corrupted magic/version/length/CRC field all fail the header CRC;
    // check magic first so a "not our file at all" case reads better.
    if bytes[..4] != MAGIC {
        return Err(EnvelopeError::BadMagic);
    }
    if crc32(&bytes[..28]) != u32le(28) {
        return Err(EnvelopeError::HeaderCorrupt);
    }
    let version = u32le(4);
    if version != FORMAT_VERSION {
        return Err(EnvelopeError::UnsupportedVersion(version));
    }
    let payload_len = usize::try_from(u64le(16))
        .ok()
        .filter(|len| len.checked_add(HEADER_LEN).is_some())
        .ok_or(EnvelopeError::HeaderCorrupt)?;
    Ok(Header {
        config_hash: u64le(8),
        payload_len,
        payload_crc: u32le(24),
    })
}

/// Checks the payload `header` announces at the front of `record` — present
/// in full, CRC matching — and returns where the record ends.
fn check_payload(record: &[u8], header: &Header) -> Result<usize, EnvelopeError> {
    let end = HEADER_LEN + header.payload_len;
    if record.len() < end {
        return Err(EnvelopeError::Truncated {
            expected: end,
            got: record.len(),
        });
    }
    if crc32(&record[HEADER_LEN..end]) != header.payload_crc {
        return Err(EnvelopeError::PayloadCorrupt);
    }
    Ok(end)
}

/// One record of a generation: its config hash and payload range, or why it
/// cannot be served (with its config hash when its header checked out).
type Frame = Result<(u64, Range<usize>), (Option<u64>, EnvelopeError)>;

/// Walks a generation's records by their header lengths, checking every
/// header and payload. After a header that fails, the walk resumes at the
/// next offset holding a header that checks out, so a corrupt header costs
/// only its own record. An empty generation is one truncated record.
fn split_records(bytes: &[u8]) -> Vec<Frame> {
    let mut frames = Vec::new();
    let mut at = 0;
    while at < bytes.len() || frames.is_empty() {
        let rest = &bytes[at..];
        match parse_header(rest) {
            Ok(header) => {
                frames.push(
                    check_payload(rest, &header)
                        .map(|end| (header.config_hash, at + HEADER_LEN..at + end))
                        .map_err(|err| (Some(header.config_hash), err)),
                );
                at = at.saturating_add(HEADER_LEN + header.payload_len);
            }
            Err(err) => {
                frames.push(Err((None, err)));
                at = (at + 1..bytes.len())
                    .find(|&o| bytes[o..].starts_with(&MAGIC) && parse_header(&bytes[o..]).is_ok())
                    .unwrap_or(bytes.len());
            }
        }
    }
    frames
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

/// Store tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Generations retained per key (older ones are pruned). Must be >= 1.
    pub keep: usize,
    /// Retries per I/O operation on transient errors.
    pub max_retries: u32,
    /// Base backoff; attempt `n` sleeps `base << n` (deterministic ladder).
    pub backoff_base: Duration,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            keep: 4,
            max_retries: 3,
            backoff_base: Duration::from_millis(1),
        }
    }
}

/// Crash injected into the next publish, for crash-consistency testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteCrash {
    /// Leave only the first `n` bytes of the generation (its envelopes,
    /// concatenated) in the temp file, fsync them so the torn prefix is
    /// really on disk, then abort the process before the rename —
    /// simulating power loss mid-write.
    TruncateAt(usize),
}

/// Deterministic I/O fault hook: given the operation name, return
/// `Some(kind)` to make the next attempt of that operation fail with an
/// injected error of that kind (used to exercise the retry ladder).
pub type IoFaultHook = Box<dyn FnMut(&'static str) -> Option<io::ErrorKind> + Send>;

/// Result of a successful [`Store::load_latest`].
#[derive(Debug, Clone)]
pub struct Loaded {
    /// Generation the payload came from.
    pub generation: u64,
    /// Config hash stored alongside the payload.
    pub config_hash: u64,
    /// The validated payload.
    pub payload: Vec<u8>,
    /// Newer records that were skipped as corrupt/rejected, newest first,
    /// with their generations and one-line reasons.
    pub skipped: Vec<(u64, String)>,
}

/// Every valid record of one generation ([`Store::load_records`]), sharing
/// the buffer the generation was read into.
#[derive(Debug)]
pub struct Records {
    /// Records skipped on the way — this generation's corrupt ones and
    /// every record of newer generations without a valid one — newest
    /// first, with their generations and one-line reasons.
    pub skipped: Vec<(u64, String)>,
    /// The config hashes of the skipped records whose header checked out
    /// (their payload did not), so the caller knows whose copy was lost.
    pub damaged: Vec<u64>,
    bytes: Vec<u8>,
    records: Vec<(u64, Range<usize>)>,
}

impl Records {
    /// The valid records, in the order they were published.
    pub fn iter(&self) -> impl Iterator<Item = Record<'_>> {
        self.records.iter().map(|(config_hash, range)| Record {
            config_hash: *config_hash,
            payload: &self.bytes[range.clone()],
        })
    }
}

/// A crash-consistent, generation-retained artifact store rooted at a
/// directory.
pub struct Store {
    root: PathBuf,
    cfg: StoreConfig,
    crash: Option<WriteCrash>,
    io_fault: Option<IoFaultHook>,
    /// Sleep function — swapped out in tests so backoff is instant.
    sleep: fn(Duration),
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("root", &self.root)
            .field("cfg", &self.cfg)
            .field("crash", &self.crash)
            .field("io_fault", &self.io_fault.is_some())
            .finish()
    }
}

fn valid_key(key: &str) -> bool {
    !key.is_empty()
        && key.len() <= 128
        && key
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
        && !key.starts_with('.')
}

fn transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// The entries of `dir` (a missing directory has none).
fn list_dir(dir: &Path) -> Result<Vec<fs::DirEntry>, StoreError> {
    match fs::read_dir(dir) {
        Ok(entries) => Ok(entries.filter_map(Result::ok).collect()),
        Err(err) if err.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(source) => Err(StoreError::Io {
            op: "read-dir",
            path: dir.to_path_buf(),
            source,
        }),
    }
}

/// One `read_dir` pass over a key directory: the generation numbers
/// present, ascending (a missing directory means none). With `sweep_temps`
/// the same pass deletes the temp files crashed publishes left behind.
fn scan_key_dir(dir: &Path, sweep_temps: bool) -> Result<Vec<u64>, StoreError> {
    let mut gens = Vec::new();
    for entry in list_dir(dir)? {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(stem) = name
            .strip_prefix(GEN_PREFIX)
            .and_then(|n| n.strip_suffix(GEN_SUFFIX))
        {
            gens.extend(stem.parse::<u64>().ok());
        } else if sweep_temps && name.starts_with(TMP_PREFIX) {
            let _ = fs::remove_file(entry.path());
        }
    }
    gens.sort_unstable();
    gens.dedup();
    Ok(gens)
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidConfig`] if `cfg.keep == 0`, or an I/O
    /// error if the root directory cannot be created.
    pub fn open(root: impl Into<PathBuf>, cfg: StoreConfig) -> Result<Self, StoreError> {
        if cfg.keep == 0 {
            return Err(StoreError::InvalidConfig("keep must be >= 1".into()));
        }
        let root = root.into();
        fs::create_dir_all(&root).map_err(|source| StoreError::Io {
            op: "create-dir",
            path: root.clone(),
            source,
        })?;
        Ok(Store {
            root,
            cfg,
            crash: None,
            io_fault: None,
            sleep: std::thread::sleep,
        })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Arms a crash to be injected into the next [`Store::publish`].
    pub fn set_crash_on_next_publish(&mut self, crash: Option<WriteCrash>) {
        self.crash = crash;
    }

    /// Installs a deterministic I/O fault hook (see [`IoFaultHook`]).
    pub fn set_io_fault(&mut self, hook: Option<IoFaultHook>) {
        self.io_fault = hook;
    }

    /// Replaces the backoff sleep function (tests use a no-op).
    pub fn set_sleep(&mut self, sleep: fn(Duration)) {
        self.sleep = sleep;
    }

    fn key_dir(&self, key: &str) -> PathBuf {
        self.root.join(key)
    }

    /// Path of generation `generation` under `key` (exists only if
    /// published and not yet pruned).
    #[must_use]
    pub fn generation_path(&self, key: &str, generation: u64) -> PathBuf {
        self.key_dir(key)
            .join(format!("{GEN_PREFIX}{generation:08}{GEN_SUFFIX}"))
    }

    /// Runs `f` with bounded retry on transient I/O errors, deterministic
    /// exponential backoff between attempts.
    fn with_retry<T>(
        &mut self,
        op: &'static str,
        path: &Path,
        mut f: impl FnMut() -> io::Result<T>,
    ) -> Result<T, StoreError> {
        let mut attempt = 0u32;
        loop {
            let injected = self
                .io_fault
                .as_mut()
                .and_then(|hook| hook(op))
                .map(|kind| io::Error::new(kind, format!("injected {op} fault")));
            let result = match injected {
                Some(err) => Err(err),
                None => f(),
            };
            match result {
                Ok(v) => return Ok(v),
                Err(source) => {
                    if attempt < self.cfg.max_retries && transient(source.kind()) {
                        zfgan_telemetry::count_wall("store_retries_total", &[("op", op)], 1);
                        (self.sleep)(self.cfg.backoff_base.saturating_mul(1 << attempt.min(16)));
                        attempt += 1;
                        continue;
                    }
                    return Err(StoreError::Io {
                        op,
                        path: path.to_path_buf(),
                        source,
                    });
                }
            }
        }
    }

    /// Every key present in the store, in no particular order: one listing
    /// of the root.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the root cannot be read.
    pub fn keys(&self) -> Result<Vec<String>, StoreError> {
        Ok(list_dir(&self.root)?
            .into_iter()
            .filter_map(|entry| entry.file_name().into_string().ok())
            .filter(|key| valid_key(key))
            .collect())
    }

    /// Creates the directory of `key`, `fsync`ing the root so the entry is
    /// durable; `false` if the key exists. Of several writers racing to
    /// create one key exactly one gets `true`.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid keys or when an I/O operation fails
    /// after exhausting retries.
    pub fn create_key(&mut self, key: &str) -> Result<bool, StoreError> {
        if !valid_key(key) {
            return Err(StoreError::InvalidKey(key.to_string()));
        }
        let dir = self.key_dir(key);
        let created =
            self.with_retry("create-dir", &dir.clone(), || match fs::create_dir(&dir) {
                Err(err) if err.kind() == io::ErrorKind::AlreadyExists => Ok(false),
                made => made.map(|()| true),
            })?;
        if created {
            let root = self.root.clone();
            self.with_retry("fsync-root", &root.clone(), || {
                File::open(&root).and_then(|d| d.sync_all())
            })?;
            zfgan_telemetry::count_wall("store_fsyncs_total", &[], 1);
        }
        Ok(created)
    }

    /// Deletes `key` with every generation it holds (a missing key is not
    /// an error). Best effort: a key whose removal is lost in a crash is
    /// still there, whole, afterwards.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid keys or when the removal fails.
    pub fn remove_key(&mut self, key: &str) -> Result<(), StoreError> {
        if !valid_key(key) {
            return Err(StoreError::InvalidKey(key.to_string()));
        }
        let dir = self.key_dir(key);
        match fs::remove_dir_all(&dir) {
            Err(err) if err.kind() != io::ErrorKind::NotFound => Err(StoreError::Io {
                op: "remove-dir",
                path: dir,
                source: err,
            }),
            _ => Ok(()),
        }
    }

    /// Generation numbers present for `key`, ascending. Missing key
    /// directory means no generations.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the key is invalid or the directory cannot
    /// be read.
    pub fn generations(&mut self, key: &str) -> Result<Vec<u64>, StoreError> {
        if !valid_key(key) {
            return Err(StoreError::InvalidKey(key.to_string()));
        }
        scan_key_dir(&self.key_dir(key), false)
    }

    /// Publishes `payload` as the next generation of `key` (a one-record
    /// [`Store::publish_many`]), returning the new generation number.
    ///
    /// # Errors
    ///
    /// Same as [`Store::publish_many`].
    pub fn publish(
        &mut self,
        key: &str,
        config_hash: u64,
        payload: &[u8],
    ) -> Result<u64, StoreError> {
        self.publish_many(key, &[(config_hash, payload)])
    }

    /// Publishes `(config hash, payload)` records as one new generation of
    /// `key` — one fsync pair however many — and returns its number.
    /// Atomic: a crash leaves the previous generation or the whole new one.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid keys, on an empty `records` slice (no
    /// load could ever serve that generation) or when an I/O operation
    /// fails after exhausting retries.
    pub fn publish_many(&mut self, key: &str, records: &[(u64, &[u8])]) -> Result<u64, StoreError> {
        if records.is_empty() {
            return Err(StoreError::NoRecords(key.to_string()));
        }
        self.create_key(key)?;
        let dir = self.key_dir(key);
        // The publish's one directory scan: sweeps the temp files crashed
        // publishes left behind, numbers the new generation, and is the
        // list retention prunes from below.
        let mut gens = scan_key_dir(&dir, true)?;

        let generation = gens.last().map_or(1, |g| g + 1);
        let tmp = dir.join(format!("{TMP_PREFIX}{generation:08}"));
        let dest = self.generation_path(key, generation);

        let crash = self.crash.take();
        self.with_retry("write", &tmp.clone(), || {
            let f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            // The envelopes stream out through one small buffer: the
            // generation is never assembled in memory.
            let mut out = io::BufWriter::with_capacity(1 << 16, &f);
            for &(config_hash, payload) in records {
                out.write_all(&envelope_header(config_hash, payload))?;
                out.write_all(payload)?;
            }
            out.flush()?;
            drop(out);
            if let Some(WriteCrash::TruncateAt(n)) = crash {
                // Torn write: keep a prefix on real disk, then die before
                // the rename. The truncated temp file is all a resumer will
                // find of this generation.
                f.set_len(f.metadata()?.len().min(n as u64))?;
                f.sync_all()?;
                zfgan_telemetry::count_wall("store_fsyncs_total", &[], 1);
                std::process::abort();
            }
            f.sync_all()
        })?;
        zfgan_telemetry::count_wall("store_fsyncs_total", &[], 1);

        self.with_retry("rename", &dest.clone(), || fs::rename(&tmp, &dest))?;
        // Make the rename durable: fsync the containing directory.
        self.with_retry("fsync-dir", &dir.clone(), || {
            File::open(&dir).and_then(|d| d.sync_all())
        })?;
        zfgan_telemetry::count_wall("store_fsyncs_total", &[], 1);
        zfgan_telemetry::count_wall("store_publishes_total", &[], 1);

        // Retention (best effort per file; the newest `keep` always
        // survive), only after the new generation is durable.
        gens.push(generation);
        let excess = gens.len().saturating_sub(self.cfg.keep);
        for &g in &gens[..excess] {
            if fs::remove_file(self.generation_path(key, g)).is_ok() {
                zfgan_telemetry::count_wall("store_prunes_total", &[], 1);
            }
        }
        Ok(generation)
    }

    /// Loads the newest valid record of `key`: the last valid one of the
    /// newest generation that has one.
    ///
    /// Walks records newest-first; corrupt ones are recorded in
    /// [`Loaded::skipped`] and the walk falls back to the next older
    /// record. `Ok(None)` means the key has no generations at all.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoValidGeneration`] if generations exist but every
    /// record failed validation; I/O errors if a file cannot be read after
    /// retries.
    pub fn load_latest(&mut self, key: &str) -> Result<Option<Loaded>, StoreError> {
        self.load_latest_where(key, |_| Ok(()))
    }

    /// Like [`Store::load_latest`], but also requires the stored config
    /// hash to equal `expected_hash` (mismatches are skipped like corrupt
    /// records — they belong to a different configuration).
    ///
    /// # Errors
    ///
    /// Same as [`Store::load_latest`].
    pub fn load_latest_for(
        &mut self,
        key: &str,
        expected_hash: u64,
    ) -> Result<Option<Loaded>, StoreError> {
        self.load_latest_where(key, |record| {
            if record.config_hash == expected_hash {
                Ok(())
            } else {
                Err(EnvelopeError::ConfigHashMismatch {
                    expected: expected_hash,
                    got: record.config_hash,
                }
                .to_string())
            }
        })
    }

    /// The general fallback-ladder load: walks records newest-first,
    /// skipping any whose envelope fails validation **or** whose payload
    /// `accept` rejects (semantic validation — e.g. a checkpoint that
    /// parses but fails shape checks falls back too).
    ///
    /// # Errors
    ///
    /// Same as [`Store::load_latest`].
    pub fn load_latest_where(
        &mut self,
        key: &str,
        mut accept: impl FnMut(Record<'_>) -> Result<(), String>,
    ) -> Result<Option<Loaded>, StoreError> {
        let found = self.ladder(key, |generation, mut bytes, frames, skipped| {
            for frame in frames.into_iter().rev() {
                let reason = match frame {
                    Ok((config_hash, range)) => {
                        let record = Record {
                            config_hash,
                            payload: &bytes[range.clone()],
                        };
                        match accept(record) {
                            Ok(()) => {
                                // The buffer that was read becomes the
                                // payload: cut the record out in place
                                // instead of copying it.
                                bytes.truncate(range.end);
                                bytes.drain(..range.start);
                                return Some((generation, config_hash, bytes));
                            }
                            Err(reason) => reason,
                        }
                    }
                    Err((_, err)) => err.to_string(),
                };
                skipped.push((generation, reason));
            }
            None
        })?;
        Ok(
            found.map(|((generation, config_hash, payload), skipped)| Loaded {
                generation,
                config_hash,
                payload,
                skipped,
            }),
        )
    }

    /// Loads every valid record of the newest generation of `key` that has
    /// one, through the same fallback ladder as [`Store::load_latest`].
    /// `Ok(None)` means the key has no generations at all.
    ///
    /// # Errors
    ///
    /// Same as [`Store::load_latest`].
    pub fn load_records(&mut self, key: &str) -> Result<Option<Records>, StoreError> {
        let mut damaged = Vec::new();
        let found = self.ladder(key, |generation, bytes, frames, skipped| {
            let mut records = Vec::with_capacity(frames.len());
            for frame in frames {
                match frame {
                    Ok(record) => records.push(record),
                    Err((hash, err)) => {
                        damaged.extend(hash);
                        skipped.push((generation, err.to_string()));
                    }
                }
            }
            (!records.is_empty()).then_some((bytes, records))
        })?;
        Ok(found.map(|((bytes, records), skipped)| Records {
            skipped,
            damaged,
            bytes,
            records,
        }))
    }

    /// The one fallback ladder: reads the generations of `key`
    /// newest-first, splits each into its records and offers them to
    /// `take`, which either keeps the generation or notes in `skipped` why
    /// each record was refused, and the walk falls back to the next older
    /// generation.
    #[allow(clippy::type_complexity)]
    fn ladder<T>(
        &mut self,
        key: &str,
        mut take: impl FnMut(u64, Vec<u8>, Vec<Frame>, &mut Vec<(u64, String)>) -> Option<T>,
    ) -> Result<Option<(T, Vec<(u64, String)>)>, StoreError> {
        let gens = self.generations(key)?;
        if gens.is_empty() {
            return Ok(None);
        }
        let mut skipped: Vec<(u64, String)> = Vec::new();
        let mut found = None;
        for &generation in gens.iter().rev() {
            let path = self.generation_path(key, generation);
            let bytes = self.with_retry("read", &path.clone(), || fs::read(&path))?;
            let frames = split_records(&bytes);
            found = take(generation, bytes, frames, &mut skipped);
            if found.is_some() {
                break;
            }
        }
        if !skipped.is_empty() {
            let n = skipped.len() as u64;
            zfgan_telemetry::count_wall("store_corrupt_detected_total", &[], n);
            zfgan_telemetry::count_wall("store_fallbacks_total", &[], n);
        }
        match found {
            Some(found) => {
                zfgan_telemetry::count_wall("store_loads_total", &[], 1);
                Ok(Some((found, skipped)))
            }
            None => Err(StoreError::NoValidGeneration {
                key: key.to_string(),
                skipped,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    /// A fresh directory under the temp root, removed with its contents
    /// when the guard drops — on a failing test's panic path too.
    struct TempRoot(PathBuf);

    impl Drop for TempRoot {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn temp_root(tag: &str) -> TempRoot {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("zfgan-store-test-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        TempRoot(dir)
    }

    /// A store with no backoff sleeps, in a directory its guard removes.
    fn open(tag: &str) -> (TempRoot, Store) {
        let root = temp_root(tag);
        match Store::open(&root.0, StoreConfig::default()) {
            Ok(mut s) => {
                s.set_sleep(|_| {});
                (root, s)
            }
            Err(e) => panic!("open store: {e}"),
        }
    }

    #[test]
    fn round_trip_single_generation() {
        let (_root, mut s) = open("roundtrip");
        let payload = b"hello durable world".to_vec();
        let gen = s
            .publish("ckpt", 0xabcd, &payload)
            .map_err(|e| e.to_string());
        assert_eq!(gen, Ok(1));
        let loaded = s.load_latest("ckpt").ok().flatten();
        let loaded = match loaded {
            Some(l) => l,
            None => panic!("expected a generation"),
        };
        assert_eq!(loaded.generation, 1);
        assert_eq!(loaded.config_hash, 0xabcd);
        assert_eq!(loaded.payload, payload);
        assert!(loaded.skipped.is_empty());
    }

    #[test]
    fn generations_increment_and_prune() {
        let (_root, mut s) = open("prune");
        for i in 0..7u8 {
            if let Err(e) = s.publish("k", 1, &[i]) {
                panic!("publish {i}: {e}");
            }
        }
        let gens = s.generations("k").unwrap_or_default();
        // keep = 4 (default): generations 4..=7 survive.
        assert_eq!(gens, vec![4, 5, 6, 7]);
        let l = s.load_latest("k").ok().flatten();
        assert_eq!(l.map(|l| l.payload), Some(vec![6u8]));
    }

    #[test]
    fn load_missing_key_is_none() {
        let (_root, mut s) = open("missing");
        assert!(matches!(s.load_latest("nothing"), Ok(None)));
        assert!(matches!(s.load_records("nothing"), Ok(None)));
    }

    #[test]
    fn corrupt_latest_falls_back_to_prior() {
        let (_root, mut s) = open("fallback");
        let _ = s.publish("k", 7, b"old-good");
        let _ = s.publish("k", 7, b"new-corrupt");
        let path = s.generation_path("k", 2);
        let mut bytes = fs::read(&path).unwrap_or_default();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).ok();
        let l = match s.load_latest("k") {
            Ok(Some(l)) => l,
            other => panic!("expected fallback load, got {other:?}"),
        };
        assert_eq!(l.generation, 1);
        assert_eq!(l.payload, b"old-good");
        assert_eq!(l.skipped.len(), 1);
        assert_eq!(l.skipped[0].0, 2);
    }

    #[test]
    fn all_corrupt_is_no_valid_generation() {
        let (_root, mut s) = open("allcorrupt");
        let _ = s.publish("k", 7, b"a");
        let _ = s.publish("k", 7, b"b");
        for g in [1u64, 2] {
            let path = s.generation_path("k", g);
            fs::write(&path, b"garbage").ok();
        }
        match s.load_latest("k") {
            Err(StoreError::NoValidGeneration { skipped, .. }) => {
                assert_eq!(skipped.len(), 2)
            }
            other => panic!("expected NoValidGeneration, got {other:?}"),
        }
    }

    #[test]
    fn config_hash_mismatch_skips_generation() {
        let (_root, mut s) = open("hashmatch");
        let _ = s.publish("k", 0x1111, b"old-config");
        let _ = s.publish("k", 0x2222, b"new-config");
        let l = s.load_latest_for("k", 0x1111).ok().flatten();
        let l = match l {
            Some(l) => l,
            None => panic!("expected fallback to matching hash"),
        };
        assert_eq!(l.generation, 1);
        assert_eq!(l.payload, b"old-config");
        assert_eq!(l.skipped.len(), 1);
    }

    #[test]
    fn semantic_reject_falls_back() {
        let (_root, mut s) = open("semantic");
        let _ = s.publish("k", 1, b"valid-json");
        let _ = s.publish("k", 1, b"parses-but-bad");
        let l = s.load_latest_where("k", |record| {
            if record.payload == b"parses-but-bad" {
                Err("shape mismatch".into())
            } else {
                Ok(())
            }
        });
        let l = match l {
            Ok(Some(l)) => l,
            other => panic!("expected semantic fallback, got {other:?}"),
        };
        assert_eq!(l.payload, b"valid-json");
        assert_eq!(l.skipped[0].1, "shape mismatch");
    }

    /// A many-record generation: the ladder serves its last record first
    /// and falls back record by record; `load_records` serves them all.
    #[test]
    fn many_records_share_one_generation() {
        let (_root, mut s) = open("many");
        let records: [(u64, &[u8]); 3] = [(1, b"one"), (2, b"two"), (1, b"one-again")];
        assert_eq!(s.publish_many("k", &records).ok(), Some(1));
        assert_eq!(s.generations("k").ok(), Some(vec![1]));
        let latest = s.load_latest("k").ok().flatten().map(|l| l.payload);
        assert_eq!(latest.as_deref(), Some(&b"one-again"[..]));
        let two = s.load_latest_for("k", 2).ok().flatten();
        assert_eq!(
            two.map(|l| (l.payload, l.skipped.len())),
            Some((b"two".to_vec(), 1))
        );
        let all = match s.load_records("k") {
            Ok(Some(all)) => all,
            other => panic!("expected records, got {other:?}"),
        };
        let got: Vec<(u64, &[u8])> = all.iter().map(|r| (r.config_hash, r.payload)).collect();
        assert_eq!(got, records);
        assert!(all.skipped.is_empty());
    }

    /// A record whose payload is damaged names its config hash; an empty
    /// publish is refused before anything is created; a removed key is
    /// gone with its generations, and removing it again is no error.
    #[test]
    fn damaged_records_name_their_hash_and_keys_remove() {
        let (_root, mut s) = open("remove");
        assert!(matches!(
            s.publish_many("k", &[]),
            Err(StoreError::NoRecords(_))
        ));
        assert_eq!(s.keys().ok(), Some(vec![]));
        let records: [(u64, &[u8]); 2] = [(1, b"one"), (2, b"two")];
        assert_eq!(s.publish_many("k", &records).ok(), Some(1));
        let path = s.generation_path("k", 1);
        let mut bytes = fs::read(&path).unwrap_or_default();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).ok();
        let loaded = match s.load_records("k") {
            Ok(Some(loaded)) => loaded,
            other => panic!("expected records, got {other:?}"),
        };
        let served: Vec<u64> = loaded.iter().map(|r| r.config_hash).collect();
        assert_eq!((served, loaded.damaged), (vec![1], vec![2]));
        assert!(s.remove_key("k").is_ok());
        assert_eq!(s.keys().ok(), Some(vec![]));
        assert!(matches!(s.load_records("k"), Ok(None)));
        assert!(s.remove_key("k").is_ok());
    }

    /// The first publish of a key makes its directory entry durable too:
    /// three fsyncs (root, file, key directory), then two per publish.
    #[test]
    fn a_new_key_fsyncs_its_parent_once() {
        let (_root, mut s) = open("rootsync");
        let reg = std::sync::Arc::new(zfgan_telemetry::Registry::new());
        let fsyncs = |reg: &zfgan_telemetry::Registry| {
            zfgan_telemetry::export::counter_total(reg, "store_fsyncs_total")
        };
        let _guard = zfgan_telemetry::scope(std::sync::Arc::clone(&reg));
        assert!(s.publish("k", 1, b"first").is_ok());
        assert_eq!(fsyncs(&reg), 3);
        assert!(s.publish("k", 1, b"second").is_ok());
        assert_eq!(fsyncs(&reg), 5);
        assert_eq!(s.create_key("k").ok(), Some(false));
        assert_eq!(s.create_key("fresh").ok(), Some(true));
        assert_eq!(fsyncs(&reg), 6);
        let mut keys = s.keys().unwrap_or_default();
        keys.sort();
        assert_eq!(keys, ["fresh", "k"]);
    }

    #[test]
    fn transient_io_errors_are_retried() {
        let (_root, mut s) = open("retry");
        let mut budget = 2u32;
        s.set_io_fault(Some(Box::new(move |op| {
            if op == "write" && budget > 0 {
                budget -= 1;
                Some(io::ErrorKind::Interrupted)
            } else {
                None
            }
        })));
        assert!(s.publish("k", 1, b"eventually").is_ok());
        let l = s.load_latest("k").ok().flatten();
        assert_eq!(l.map(|l| l.payload), Some(b"eventually".to_vec()));
    }

    #[test]
    fn persistent_io_error_exhausts_retries() {
        let (_root, mut s) = open("exhaust");
        s.set_io_fault(Some(Box::new(|op| {
            (op == "write").then_some(io::ErrorKind::Interrupted)
        })));
        match s.publish("k", 1, b"never") {
            Err(StoreError::Io { op: "write", .. }) => {}
            other => panic!("expected write Io error, got {other:?}"),
        }
    }

    #[test]
    fn non_transient_error_fails_immediately() {
        let (_root, mut s) = open("hard");
        let mut calls = 0u32;
        s.set_io_fault(Some(Box::new(move |op| {
            if op == "write" {
                calls += 1;
                assert_eq!(calls, 1, "non-transient errors must not retry");
                Some(io::ErrorKind::PermissionDenied)
            } else {
                None
            }
        })));
        assert!(matches!(
            s.publish("k", 1, b"x"),
            Err(StoreError::Io { op: "write", .. })
        ));
    }

    #[test]
    fn stale_temp_files_are_swept() {
        let (_root, mut s) = open("sweep");
        let _ = s.publish("k", 1, b"one");
        let stale = s.key_dir("k").join(format!("{TMP_PREFIX}00000099"));
        fs::write(&stale, b"torn").ok();
        let _ = s.publish("k", 1, b"two");
        assert!(!stale.exists(), "stale temp should be swept on publish");
    }

    #[test]
    fn invalid_keys_rejected() {
        let (_root, mut s) = open("keys");
        for bad in ["", "a/b", "..", ".hidden", "sp ace", "x\u{e9}"] {
            assert!(
                matches!(s.publish(bad, 0, b"x"), Err(StoreError::InvalidKey(_))),
                "key {bad:?} should be rejected"
            );
        }
        assert!(s.publish("Ok-key_1.v2", 0, b"x").is_ok());
    }

    #[test]
    fn envelope_detects_every_truncation_length() {
        let bytes = encode_envelope(42, b"some payload bytes");
        for len in 0..bytes.len() {
            assert!(
                decode_envelope(&bytes[..len]).is_err(),
                "truncation to {len} bytes must not decode"
            );
        }
        assert!(decode_envelope(&bytes).is_ok());
    }

    #[test]
    fn envelope_detects_trailing_garbage() {
        let mut bytes = encode_envelope(42, b"payload");
        bytes.push(0);
        assert_eq!(
            decode_envelope(&bytes),
            Err(EnvelopeError::TrailingGarbage { extra: 1 })
        );
    }

    #[test]
    fn envelope_reports_bad_magic_and_version() {
        let good = encode_envelope(1, b"p");
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(decode_envelope(&bad_magic), Err(EnvelopeError::BadMagic));

        // A re-encoded envelope with a bumped version decodes the header
        // fine but must be refused as unsupported.
        let mut v2 = good;
        v2[4..8].copy_from_slice(&2u32.to_le_bytes());
        let hdr = crc32(&v2[..28]);
        v2[28..32].copy_from_slice(&hdr.to_le_bytes());
        assert_eq!(
            decode_envelope(&v2),
            Err(EnvelopeError::UnsupportedVersion(2))
        );
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// A shift advances a register over zero bytes, and the table of
    /// powers may wrap because `x^(2^32) = x mod P`.
    #[test]
    fn crc32_shift_advances_over_zero_bytes() {
        assert_eq!(crc32_mulmod(CRC32_X2N[31], CRC32_X2N[31]), CRC32_X2N[0]);
        for len in [0, 1, 7, 8, 100, 4096] {
            let reg = 0x1234_5678;
            let zeros = vec![0; len];
            assert_eq!(
                crc32_mulmod(reg, crc32_shift(len)),
                crc32_update(reg, &zeros)
            );
        }
    }

    #[test]
    fn fnv64_known_vector() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"a"), fnv64_salted(1, b"a"));
    }
}
