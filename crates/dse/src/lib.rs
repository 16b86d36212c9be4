//! Design-space exploration engine: sweeps as served query batches.
//!
//! A sweep is a batch of *(arch config × phase geometry)* queries. This
//! crate turns each batch into:
//!
//! 1. **Canonical cell keys** — the caller's stable key string per query,
//!    folded with a namespace and a code-version salt into the config hash
//!    of a content-addressed on-disk cache built on `zfgan-store`'s
//!    crash-consistent envelopes ([`DseConfig`]).
//! 2. **A deduped, windowed execution core** — duplicate keys evaluate
//!    once; misses fan out over `zfgan-pool` in bounded waves
//!    ([`DseConfig::window`]) so a huge batch never holds more than one
//!    wave of unpublished results in flight ([`run_batch`]). Each wave is
//!    published as one store generation under a wave key of its own
//!    (`{namespace}-{salt}-w{n}`), and a batch finds its namespace's cells
//!    with one listing of the cache root and one read per wave — a load
//!    costs what the namespace stores, not what the batch asks for. A load
//!    that finds records no load can serve (shadowed, damaged, another
//!    salt's) or more than 16 waves rewrites the live records as one wave
//!    and deletes the rest.
//! 3. **Verifiable hits** — every computed cell is published together
//!    with its byte-stable deterministic telemetry section, so a cache
//!    hit can be re-derived and byte-compared ([`VerifyPolicy::All`]).
//!    The payload is `{"result":<result_json>,"det":<section>}` (v3): the
//!    section is embedded as the JSON object it already is, so publishing
//!    concatenates, and a hit parses only the result and frames the section
//!    without reading it. The result is parsed and converted to `R` once:
//!    validating the payload builds the value the merge moves into the
//!    first item asking for the cell, which the sweep's objectives read
//!    ([`CellRecord::first`]); only a duplicate item converts again.
//! 4. **Canonical result streams** — per-cell JSONL in sorted-key order
//!    plus an incrementally maintained Pareto frontier over
//!    *(cycles × energy × buffer capacity)* ([`sweeps`], [`pareto`]).
//!
//! The stream contains no hit/miss or wall-clock information, so a cold
//! run, a warm rerun and a corrupted-then-recomputed run are
//! byte-identical — the CI gate diffs exactly that. Cache traffic is
//! observable instead through wall-clock-class telemetry counters
//! (`dse_*_total`), recorded into the caller's telemetry scope.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod pareto;
pub mod sweeps;

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use zfgan_store::{fnv64, fnv64_salted, Records, Store, StoreConfig, StoreError};

/// The code-version salt folded into every cell's config hash. Bump the
/// string when the cached payload semantics change: every existing cell
/// then misses (foreign version) and is recomputed and republished —
/// stale generations can never be served. `v3` is the payload layout
/// change (result first, section embedded as an object): a cache written
/// under `v2` misses, recomputes and republishes once.
pub fn code_salt() -> u64 {
    fnv64(b"zfgan-dse-payload-v3")
}

/// Default bounded in-flight window: cells computed per pool wave before
/// their results are published and the next wave starts.
pub const DEFAULT_WINDOW: usize = 64;

/// How cache hits are checked against their stored deterministic
/// telemetry sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyPolicy {
    /// Trust the envelope checksums (CRC32 + config hash) alone.
    Trust,
    /// Recompute every hit and byte-compare the full payload — result
    /// JSON *and* deterministic telemetry section. A mismatch counts in
    /// `dse_verify_failures_total` and the recomputed cell replaces and
    /// republishes the stored one.
    All,
}

/// One batch execution's configuration.
#[derive(Debug, Clone)]
pub struct DseConfig {
    /// Cache namespace (e.g. the sweep name); the prefix of its wave keys
    /// and part of the config hash, so two sweeps never read each other's
    /// cells.
    pub namespace: String,
    /// Cell cache directory; `None` disables caching (every cell
    /// computes).
    pub cache_dir: Option<PathBuf>,
    /// Code-version salt folded into every config hash.
    pub salt: u64,
    /// Bounded in-flight window (cells per pool wave); the batch's
    /// backpressure knob.
    pub window: usize,
    /// Hit-verification policy.
    pub verify: VerifyPolicy,
}

impl DseConfig {
    /// A cache-less config for `namespace` with default window and salt.
    pub fn new(namespace: impl Into<String>) -> Self {
        Self {
            namespace: namespace.into(),
            cache_dir: None,
            salt: code_salt(),
            window: DEFAULT_WINDOW,
            verify: VerifyPolicy::Trust,
        }
    }
}

/// One unique cell's outcome, in canonical (sorted-key) order inside
/// [`Batch::cells`].
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// The caller's canonical cell key.
    pub key: String,
    /// Canonical JSON of the cell result (the serde shim serialises
    /// floats bit-exactly, so this string is byte-stable).
    pub result_json: String,
    /// The cell's deterministic telemetry section, captured under a
    /// scoped per-cell registry on the worker that computed it: what the
    /// cell's final `schedule_all` passes record, with or without a cache
    /// and whatever the process-wide search memo already holds.
    pub det: String,
    /// Index of the first input item that asked for this cell;
    /// [`Batch::results`]`[first]` is the cell's reconstructed result.
    pub first: usize,
}

/// Result of [`run_batch`].
#[derive(Debug)]
pub struct Batch<R> {
    /// One result per input item, in input order. Every result — hit or
    /// fresh — is reconstructed from its canonical JSON, so the values
    /// are independent of cache state.
    pub results: Vec<R>,
    /// Unique cells in canonical (sorted-key) order.
    pub cells: Vec<CellRecord>,
    /// Number of unique cells in the batch.
    pub unique: usize,
    /// Number of input items folded away by dedup.
    pub duplicates: usize,
}

/// A namespace is compacted into one wave once a load finds more waves
/// than this, so a load opens a bounded number of files.
const MAX_WAVES: usize = 16;

/// The store key of wave `seq` of a namespace under code-version `salt`:
/// each wave a batch computes is published as one generation under a key
/// of its own.
fn wave_key(namespace: &str, salt: u64, seq: u64) -> String {
    format!("{namespace}-{salt:016x}-w{seq:08}")
}

/// What a cache key is to a namespace.
#[derive(Debug, PartialEq)]
enum Owned {
    /// One of its waves: `(salt, wave number)`.
    Wave(u64, u64),
    /// A cell of the old per-cell layout (`{namespace}-{16 hex}`).
    Legacy,
}

/// Whether `key` belongs to `namespace`, and as what: removing
/// `{namespace}-` must leave exactly `{16 hex}-w{digits}` or `{16 hex}`.
fn owned(namespace: &str, key: &str) -> Option<Owned> {
    let hex = |s: &str| {
        (s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit()))
            .then(|| u64::from_str_radix(s, 16).ok())
            .flatten()
    };
    let rest = key.strip_prefix(namespace)?.strip_prefix('-')?;
    let Some((salt, seq)) = rest.split_once("-w") else {
        return hex(rest).map(|_| Owned::Legacy);
    };
    let seq = seq
        .bytes()
        .all(|b| b.is_ascii_digit())
        .then(|| seq.parse().ok())
        .flatten()?;
    Some(Owned::Wave(hex(salt)?, seq))
}

/// The content address: code-version salt, namespace and canonical key
/// folded into one hash. A cell published under a different salt or
/// namespace never matches — it is skipped like a corrupt generation.
fn config_hash(cfg: &DseConfig, key: &str) -> u64 {
    fnv64_salted(
        fnv64_salted(cfg.salt, cfg.namespace.as_bytes()),
        key.as_bytes(),
    )
}

/// A unique cell resolved to its canonical bytes, with the result rebuilt
/// from `result_json` that the canonical merge moves into the first item
/// asking for the cell.
struct Resolved<R> {
    result_json: String,
    det: String,
    result: Option<R>,
}

/// Rebuilds a cell's result from its canonical JSON.
fn rebuild<R: Deserialize>(result_json: &str) -> R {
    serde_json::from_str(result_json).expect("canonical cell JSON reconstructs the result")
}

const PAYLOAD_OPEN: &str = "{\"result\":";
const PAYLOAD_DET: &str = ",\"det\":";

/// Encodes the cached payload (v3): `{"result":<result_json>,"det":<det>}`,
/// the deterministic telemetry section embedded as the JSON object it
/// already is, so hits are verifiable byte-for-byte and encoding is plain
/// concatenation.
fn encode_payload(det: &str, result_json: &str) -> String {
    [PAYLOAD_OPEN, result_json, PAYLOAD_DET, det, "}"].concat()
}

/// Decodes a cached payload, validating that the result parses as `R`.
/// Only the result is parsed (a few hundred bytes; the prefix parse says
/// where it ended), and the `R` that validation builds is the one the
/// merge hands out, so a hit converts its result once. A hit serves the
/// stored bytes of that parse as its `result_json`: they are the bytes the
/// build that wrote them encoded, so a change to what a cell's payload
/// bytes are — its result's encoding included — needs a [`code_salt`]
/// bump, or old cells keep being served as they were stored (a
/// [`VerifyPolicy::All`] run still catches and republishes them). The
/// section is whatever the delimiters frame, required to open and close as
/// an object but never built into a tree: as under v2, its interior is
/// vouched for by the envelope's CRC and salted hash, and byte-compared
/// under [`VerifyPolicy::All`]. Any malformation → `None` (the cell is
/// treated as a miss and recomputed).
fn decode_payload<R: Deserialize>(payload: &[u8]) -> Option<Resolved<R>> {
    let text = std::str::from_utf8(payload).ok()?;
    let rest = text.strip_prefix(PAYLOAD_OPEN)?;
    let (value, end) = serde_json::from_str_prefix(rest).ok()?;
    let result = R::from_value(&value).ok()?;
    let det = rest[end..].strip_prefix(PAYLOAD_DET)?.strip_suffix('}')?;
    (det.starts_with('{') && det.ends_with('}')).then(|| Resolved {
        result_json: rest[..end].to_string(),
        det: det.to_string(),
        result: Some(result),
    })
}

/// Escapes a string into a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Records a wall-clock-class engine counter labelled by namespace (wall
/// class keeps the counters out of the deterministic sections the CI
/// byte-diffs).
fn count(name: &'static str, namespace: &str, delta: u64) {
    if delta > 0 {
        zfgan_telemetry::count_wall(name, &[("namespace", namespace)], delta);
    }
}

/// Computes one cell on the current thread under a fresh scoped
/// telemetry registry and returns `(result_json, det_section)`.
fn compute_cell<T, R, F>(eval: &F, item: &T) -> (String, String)
where
    R: Serialize,
    F: Fn(&T) -> R,
{
    let reg = Arc::new(zfgan_telemetry::Registry::new());
    let result = {
        let _guard = zfgan_telemetry::scope(Arc::clone(&reg));
        eval(item)
    };
    let det = zfgan_telemetry::export::deterministic_section(&reg);
    let json = serde_json::to_string(&result).expect("cell result must serialise");
    (json, det)
}

/// Publishes one wave's records as one generation under the next free wave
/// key of the namespace. Creating a key is atomic, so concurrent writers
/// (`--shards` children) each claim keys of their own and never share a
/// directory or a temp file.
fn publish_wave(
    store: &mut Store,
    cfg: &DseConfig,
    next: &mut u64,
    records: &[(u64, &[u8])],
) -> Result<u64, StoreError> {
    let key = |seq| wave_key(&cfg.namespace, cfg.salt, seq);
    while !store.create_key(&key(*next))? {
        *next += 1;
    }
    *next += 1;
    store.publish_many(&key(*next - 1), records)
}

/// Serves one batch of queries: dedup → cache load → verify → windowed
/// compute on the pool → publish → canonical merge.
///
/// `key_of` must be a *canonical* key: equal keys mean equal cells. The
/// returned [`Batch`] carries input-order results and sorted-key unique
/// cells; both are byte-stable across thread counts, shard counts, item
/// permutation and cache state.
///
/// Store failures only ever cost recomputation — a corrupt, truncated or
/// foreign-version record is skipped (or rejected by payload validation
/// here), recomputed and republished, and its wave reclaimed.
///
/// # Panics
///
/// Panics if a pool worker panics or a result fails to serialise.
pub fn run_batch<T, R, K, F>(cfg: &DseConfig, items: &[T], key_of: K, eval: F) -> Batch<R>
where
    T: Sync,
    R: Send + Sync + Serialize + Deserialize,
    K: Fn(&T) -> String,
    F: Fn(&T) -> R + Sync,
{
    let ns = cfg.namespace.clone();
    let keys: Vec<String> = items.iter().map(&key_of).collect();

    // Dedup: first item index per unique key, in canonical sorted order.
    let mut first: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, k) in keys.iter().enumerate() {
        first.entry(k.as_str()).or_insert(i);
    }
    let uniques: Vec<(&str, usize)> = first.iter().map(|(k, i)| (*k, *i)).collect();
    count("dse_cells_total", &ns, uniques.len() as u64);
    count("dse_dedup_total", &ns, (items.len() - uniques.len()) as u64);

    let mut store = cfg.cache_dir.as_ref().and_then(|dir| {
        Store::open(dir.clone(), StoreConfig::default())
            .map_err(|err| eprintln!("warning: dse cache unavailable ({err}); recomputing"))
            .ok()
    });

    // Load pass: one listing of the cache root finds the namespace's waves.
    // Waves of another code-version salt and cells of the old per-cell
    // layout can never be served, so they are deleted. Each wave of this
    // salt is read once and its records indexed by config hash, a newer
    // wave's record replacing an older one's — that is how a recomputed
    // cell is republished over. Corrupt records are skipped by the store,
    // undecodable payloads are rejected here — either way the cell
    // recomputes below. A hit keeps the result its validation built.
    let mut cells: Vec<Option<Resolved<R>>> = uniques.iter().map(|_| None).collect();
    let mut next_wave = 1;
    if let Some(store) = store.as_mut() {
        let mut waves: Vec<(u64, String)> = Vec::new();
        for key in store.keys().unwrap_or_else(|err| {
            eprintln!("warning: dse cache unreadable ({err}); recomputing");
            Vec::new()
        }) {
            match owned(&ns, &key) {
                Some(Owned::Wave(salt, seq)) if salt == cfg.salt => waves.push((seq, key)),
                Some(_) => {
                    let _ = store.remove_key(&key);
                }
                None => {}
            }
        }
        waves.sort_unstable();
        next_wave = waves.last().map_or(1, |(seq, _)| seq + 1);
        // The waves read (one without a generation yet is still being
        // published by another writer and is left alone), and how many
        // records they hold that no load will serve: damaged ones, whole
        // waves without a valid one, and shadowed ones (counted below).
        let mut read: Vec<&str> = Vec::new();
        let mut loaded: Vec<(u64, Records)> = Vec::new();
        let mut garbage = 0;
        for (seq, key) in &waves {
            match store.load_records(key) {
                Ok(Some(records)) => {
                    garbage += records.skipped.len();
                    loaded.push((*seq, records));
                }
                Err(StoreError::NoValidGeneration { .. }) => garbage += 1,
                Ok(None) | Err(_) => continue,
            }
            read.push(key);
        }
        let mut stored: HashMap<u64, (u64, &[u8])> = HashMap::new();
        let mut damaged: HashMap<u64, u64> = HashMap::new();
        for (seq, records) in &loaded {
            for record in records.iter() {
                let shadowed = stored.insert(record.config_hash, (*seq, record.payload));
                garbage += usize::from(shadowed.is_some());
            }
            damaged.extend(records.damaged.iter().map(|&hash| (hash, *seq)));
        }
        let mut fallbacks = 0;
        for (slot, (key, _)) in cells.iter_mut().zip(&uniques) {
            let hash = config_hash(cfg, key);
            let copy = stored.get(&hash).copied();
            *slot = copy.and_then(|(_, payload)| decode_payload::<R>(payload));
            count("dse_cache_hits_total", &ns, u64::from(slot.is_some()));
            count("dse_cache_misses_total", &ns, u64::from(slot.is_none()));
            // A hit served from an older copy because a newer one of the
            // same cell was damaged.
            let newer_damage = damaged.get(&hash).copied() > copy.map(|(seq, _)| seq);
            fallbacks += u64::from(slot.is_some() && newer_damage);
            if slot.is_none() {
                // Recomputed and republished below, so not carried.
                stored.remove(&hash);
            }
        }
        count("dse_cache_fallbacks_total", &ns, fallbacks);
        // Reclaim: once the namespace holds records no load will serve, or
        // too many waves, carry its live records into one new wave and
        // delete every wave that was read. A crash in between leaves
        // copies that the next load reclaims.
        if garbage > 0 || read.len() > MAX_WAVES {
            let mut live: Vec<(u64, &[u8])> = stored
                .into_iter()
                .map(|(hash, (_, payload))| (hash, payload))
                .collect();
            live.sort_unstable_by_key(|&(hash, _)| hash);
            if live.is_empty() || publish_wave(store, cfg, &mut next_wave, &live).is_ok() {
                for key in read {
                    let _ = store.remove_key(key);
                }
            }
        }
    } else {
        count("dse_cache_misses_total", &ns, uniques.len() as u64);
    }

    // Compute pass: misses, plus every hit under VerifyPolicy::All. The
    // bounded window is the batch's backpressure: one wave of results in
    // flight at a time. The pool computes and encodes a wave; this thread
    // then publishes it as one generation under a fresh wave key — three
    // fsyncs however many cells — before the next wave starts. Tasks run
    // on unscoped pool threads, so this thread does the counting.
    let verify_hits = store.is_some() && cfg.verify == VerifyPolicy::All;
    let to_compute: Vec<usize> = (0..uniques.len())
        .filter(|&u| cells[u].is_none() || verify_hits)
        .collect();
    for wave in to_compute.chunks(cfg.window.max(1)) {
        let outs = zfgan_pool::parallel_map(wave.len(), |j| {
            let (_, item) = uniques[wave[j]];
            let (result_json, det) = compute_cell(&eval, &items[item]);
            let payload = encode_payload(&det, &result_json);
            // A hit being verified: byte-compare the full payload.
            let verified = cells[wave[j]]
                .as_ref()
                .map(|hit| encode_payload(&hit.det, &hit.result_json) == payload);
            // Only the payload travels: the result and section are cut out
            // of it once it is published, so a wave is held once in memory.
            (payload, result_json.len(), verified)
        })
        .expect("dse worker panicked");
        // Every cell but a verified hit goes into the wave's generation.
        let fresh: Vec<(u64, &[u8])> = wave
            .iter()
            .zip(&outs)
            .filter(|(_, out)| out.2 != Some(true))
            .map(|(&u, out)| (config_hash(cfg, uniques[u].0), out.0.as_bytes()))
            .collect();
        let published = !fresh.is_empty()
            && store.as_mut().is_some_and(|store| {
                publish_wave(store, cfg, &mut next_wave, &fresh)
                    .map_err(|err| eprintln!("warning: dse publish of a {ns} wave failed: {err}"))
                    .is_ok()
            });
        count(
            "dse_published_total",
            &ns,
            if published { fresh.len() as u64 } else { 0 },
        );
        for (&u, (payload, result_len, verified)) in wave.iter().zip(outs) {
            count("dse_verified_total", &ns, u64::from(verified == Some(true)));
            count(
                "dse_verify_failures_total",
                &ns,
                u64::from(verified == Some(false)),
            );
            if verified != Some(true) {
                // `encode_payload`'s layout, read back by its known seams.
                let body = &payload[PAYLOAD_OPEN.len()..payload.len() - 1];
                let (result_json, det) = body.split_at(result_len);
                cells[u] = Some(Resolved {
                    result_json: result_json.to_string(),
                    det: det[PAYLOAD_DET.len()..].to_string(),
                    result: Some(rebuild(result_json)),
                });
            }
        }
    }

    // Canonical merge: results per input item, each rebuilt once from its
    // cell's canonical JSON — a hit's when its payload was decoded, a fresh
    // cell's when its wave landed — and moved into the first item asking
    // for the cell. A duplicate item rebuilds its own.
    let by_key: BTreeMap<&str, usize> = uniques
        .iter()
        .enumerate()
        .map(|(u, (k, _))| (*k, u))
        .collect();
    let mut resolved: Vec<Resolved<R>> = cells
        .into_iter()
        .map(|c| c.expect("every unique cell resolved"))
        .collect();
    let results: Vec<R> = keys
        .iter()
        .map(|k| {
            let cell = &mut resolved[by_key[k.as_str()]];
            cell.result
                .take()
                .unwrap_or_else(|| rebuild(&cell.result_json))
        })
        .collect();
    let cells: Vec<CellRecord> = uniques
        .iter()
        .zip(resolved)
        .map(|(&(key, first), cell)| CellRecord {
            key: key.to_string(),
            result_json: cell.result_json,
            det: cell.det,
            first,
        })
        .collect();
    Batch {
        results,
        unique: cells.len(),
        duplicates: items.len() - cells.len(),
        cells,
    }
}

/// True when `key` belongs to shard `index` of `count` — the key-space
/// partition the cross-process work-unit protocol uses. Keys hash-route
/// (FNV-1a), so every shard gets a similar share regardless of batch
/// order, and the union over all shards is exactly the batch.
pub fn key_in_shard(key: &str, index: usize, count: usize) -> bool {
    count <= 1 || (fnv64(key.as_bytes()) % count as u64) as usize == index
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    struct Out {
        n: u64,
        half: f64,
    }

    fn eval(i: &u64) -> Out {
        Out {
            n: i * 3,
            half: *i as f64 / 2.0,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("zfgan-dse-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn cacheless_batch_dedupes_and_preserves_input_order() {
        let items = [4u64, 7, 4, 1, 7, 4];
        let calls = AtomicUsize::new(0);
        let batch = run_batch(
            &DseConfig::new("t-dedup"),
            &items,
            |i| format!("cell-{i}"),
            |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                eval(i)
            },
        );
        assert_eq!(calls.load(Ordering::Relaxed), 3, "one eval per unique cell");
        assert_eq!(batch.unique, 3);
        assert_eq!(batch.duplicates, 3);
        let expect: Vec<Out> = items.iter().map(eval).collect();
        assert_eq!(batch.results, expect);
        // Canonical order is sorted by key, independent of input order.
        let keys: Vec<&str> = batch.cells.iter().map(|c| c.key.as_str()).collect();
        assert_eq!(keys, ["cell-1", "cell-4", "cell-7"]);
    }

    #[test]
    fn warm_batch_hits_and_returns_identical_cells() {
        let dir = temp_dir("warm");
        let mut cfg = DseConfig::new("t-warm");
        cfg.cache_dir = Some(dir.clone());
        let items: Vec<u64> = (0..5).collect();
        let cold = run_batch(&cfg, &items, |i| format!("c{i}"), eval);
        let calls = AtomicUsize::new(0);
        let warm = run_batch(
            &cfg,
            &items,
            |i| format!("c{i}"),
            |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                eval(i)
            },
        );
        assert_eq!(calls.load(Ordering::Relaxed), 0, "warm run must not eval");
        assert_eq!(cold.results, warm.results);
        for (a, b) in cold.cells.iter().zip(&warm.cells) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.result_json, b.result_json);
            assert_eq!(a.det, b.det);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    static CONVERSIONS: AtomicUsize = AtomicUsize::new(0);

    /// An [`Out`] that counts its conversions from a JSON tree.
    #[derive(PartialEq, Debug)]
    struct Counted(Out);

    impl Serialize for Counted {
        fn to_value(&self) -> serde_json::Value {
            self.0.to_value()
        }
    }

    impl Deserialize for Counted {
        fn from_value(v: &serde_json::Value) -> Result<Self, serde_json::Error> {
            CONVERSIONS.fetch_add(1, Ordering::Relaxed);
            Out::from_value(v).map(Counted)
        }
    }

    /// A result is converted from its JSON once per unique cell — a hit's
    /// by the validation of its payload, a fresh cell's when its wave
    /// lands — plus once per duplicate item, cold or warm.
    #[test]
    fn a_result_converts_once_per_cell_plus_once_per_duplicate() {
        let dir = temp_dir("convert");
        let mut cfg = DseConfig::new("t-convert");
        cfg.cache_dir = Some(dir.clone());
        let items = [3u64, 1, 3, 2, 3, 1];
        let evals = AtomicUsize::new(0);
        let batch = |cfg: &DseConfig| {
            let before = CONVERSIONS.load(Ordering::Relaxed);
            let batch = run_batch(
                cfg,
                &items,
                |i| format!("x{i}"),
                |i| {
                    evals.fetch_add(1, Ordering::Relaxed);
                    Counted(eval(i))
                },
            );
            (batch, CONVERSIONS.load(Ordering::Relaxed) - before)
        };
        let (cold, cold_conversions) = batch(&cfg);
        let (warm, warm_conversions) = batch(&cfg);
        assert_eq!(evals.load(Ordering::Relaxed), 3, "the warm batch only hits");
        assert_eq!((warm.unique, warm.duplicates), (3, 3));
        assert_eq!(cold_conversions, 3 + 3);
        assert_eq!(warm_conversions, 3 + 3);
        let expect: Vec<Counted> = items.iter().map(|i| Counted(eval(i))).collect();
        assert_eq!(warm.results, expect);
        assert_eq!(
            serde_json::to_string(&warm.results).expect("serialises"),
            serde_json::to_string(&cold.results).expect("serialises")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_all_recomputes_hits_and_counts_agreement() {
        let dir = temp_dir("verify");
        let mut cfg = DseConfig::new("t-verify");
        cfg.cache_dir = Some(dir.clone());
        let items: Vec<u64> = (0..3).collect();
        run_batch(&cfg, &items, |i| format!("v{i}"), eval);
        cfg.verify = VerifyPolicy::All;
        let calls = AtomicUsize::new(0);
        let reg = Arc::new(zfgan_telemetry::Registry::new());
        let batch = {
            let _guard = zfgan_telemetry::scope(Arc::clone(&reg));
            run_batch(
                &cfg,
                &items,
                |i| format!("v{i}"),
                |i| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    eval(i)
                },
            )
        };
        assert_eq!(calls.load(Ordering::Relaxed), 3, "verify recomputes hits");
        assert_eq!(batch.results.len(), 3);
        assert_eq!(
            zfgan_telemetry::export::counter_total(&reg, "dse_verified_total"),
            3
        );
        assert_eq!(
            zfgan_telemetry::export::counter_total(&reg, "dse_verify_failures_total"),
            0
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A hit serves the result bytes it stored, not a re-encoding of them:
    /// a valid result stored with non-canonical spacing streams as stored,
    /// until a verified run counts it as a failure and republishes the
    /// canonical bytes, which the next trusting run then streams.
    #[test]
    fn hits_serve_their_stored_bytes_until_verify_republishes_them() {
        let dir = temp_dir("stored");
        let mut cfg = DseConfig::new("t-stored");
        cfg.cache_dir = Some(dir.clone());
        let (canonical, det) = compute_cell(&eval, &5);
        let spaced = canonical.replace(':', ": ").replace(',', ", ");
        assert_ne!(spaced, canonical);
        let payload = encode_payload(&det, &spaced);
        let mut store = Store::open(dir.clone(), StoreConfig::default()).expect("open");
        let record = (config_hash(&cfg, "n5"), payload.as_bytes());
        publish_wave(&mut store, &cfg, &mut 1, &[record]).expect("publish");

        let batch_counting = |cfg: &DseConfig| {
            let (calls, reg) = (
                AtomicUsize::new(0),
                Arc::new(zfgan_telemetry::Registry::new()),
            );
            let batch = {
                let _guard = zfgan_telemetry::scope(Arc::clone(&reg));
                run_batch(
                    cfg,
                    &[5u64],
                    |i| format!("n{i}"),
                    |i| {
                        calls.fetch_add(1, Ordering::Relaxed);
                        eval(i)
                    },
                )
            };
            assert_eq!(batch.results, vec![eval(&5)]);
            let count = |name| zfgan_telemetry::export::counter_total(&reg, name);
            let counts = [
                calls.load(Ordering::Relaxed) as u64,
                count("dse_verify_failures_total"),
                count("dse_published_total"),
            ];
            (batch.cells[0].result_json.clone(), counts)
        };
        assert_eq!(batch_counting(&cfg), (spaced, [0, 0, 0]));
        cfg.verify = VerifyPolicy::All;
        assert_eq!(batch_counting(&cfg), (canonical.clone(), [1, 1, 1]));
        cfg.verify = VerifyPolicy::Trust;
        assert_eq!(batch_counting(&cfg), (canonical, [0, 0, 0]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_salt_cells_are_recomputed_not_served() {
        let dir = temp_dir("salt");
        let mut cfg = DseConfig::new("t-salt");
        cfg.cache_dir = Some(dir.clone());
        cfg.salt = 1;
        let items = [9u64];
        run_batch(&cfg, &items, |i| format!("s{i}"), eval);
        // Same cells under a new code-version salt: must recompute.
        cfg.salt = 2;
        let calls = AtomicUsize::new(0);
        let batch = run_batch(
            &cfg,
            &items,
            |i| format!("s{i}"),
            |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                eval(i)
            },
        );
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(batch.results, vec![eval(&9)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A wave is one generation under a wave key of its own: a cold batch
    /// pays the same three fsyncs (root, file, wave directory) for one cell
    /// as for thirty.
    #[test]
    fn a_cold_wave_costs_three_fsyncs_whatever_its_size() {
        for cells in [1u64, 30] {
            let dir = temp_dir(&format!("fsync{cells}"));
            let mut cfg = DseConfig::new("t-fsync");
            cfg.cache_dir = Some(dir.clone());
            let items: Vec<u64> = (0..cells).collect();
            let reg = Arc::new(zfgan_telemetry::Registry::new());
            {
                let _guard = zfgan_telemetry::scope(Arc::clone(&reg));
                run_batch(&cfg, &items, |i| format!("f{i}"), eval);
            }
            let fsyncs = zfgan_telemetry::export::counter_total(&reg, "store_fsyncs_total");
            assert_eq!(fsyncs, 3, "{cells} cells");
            let store = Store::open(dir.clone(), StoreConfig::default()).expect("open");
            assert_eq!(
                store.keys().expect("keys"),
                [wave_key("t-fsync", code_salt(), 1)]
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn only_the_namespace_s_own_keys_are_claimed() {
        assert_eq!(
            owned("fig1", &wave_key("fig1", 0xab, 7)),
            Some(Owned::Wave(0xab, 7))
        );
        assert_eq!(owned("fig1", "fig1-00000000000000ab"), Some(Owned::Legacy));
        for other in [
            &wave_key("fig15", 0xab, 1),
            "fig1-w00000001",
            "fig1-00000000000000ab-w",
            "fig1-00000000000000ab-w12x",
            "fig1-00000000000000ab-w-3",
            "fig1-0000000000000ab",
            "fig1-00000000000000ag",
        ] {
            assert_eq!(owned("fig1", other), None, "{other}");
        }
    }

    /// Runs a batch of `items` under `cfg`, returning the evaluations it
    /// made and the cache's keys afterwards, sorted.
    fn evals_and_keys(
        cfg: &DseConfig,
        items: &[u64],
        eval: fn(&u64) -> Out,
    ) -> (usize, Vec<String>) {
        let calls = AtomicUsize::new(0);
        run_batch(
            cfg,
            items,
            |i| format!("r{i}"),
            |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                eval(i)
            },
        );
        let dir = cfg.cache_dir.clone().expect("a cache");
        let mut keys = Store::open(dir, StoreConfig::default())
            .and_then(|store| store.keys())
            .expect("list the cache");
        keys.sort();
        (calls.load(Ordering::Relaxed), keys)
    }

    /// What no load can serve is deleted: another salt's waves and the old
    /// per-cell layout at once, and shadowed records or too many waves by
    /// carrying the live records into one new wave.
    #[test]
    fn superseded_waves_are_reclaimed() {
        let dir = temp_dir("reclaim");
        let mut cfg = DseConfig::new("t-reclaim");
        cfg.cache_dir = Some(dir.clone());
        let items: Vec<u64> = (0..6).collect();
        let wave = |seq| wave_key("t-reclaim", 2, seq);
        cfg.salt = 1;
        assert_eq!(evals_and_keys(&cfg, &items, eval).0, 6);
        let mut store = Store::open(dir.clone(), StoreConfig::default()).expect("open");
        store
            .publish("t-reclaim-00000000000000ab", 1, b"old layout")
            .expect("publish");

        cfg.salt = 2;
        assert_eq!(evals_and_keys(&cfg, &items[..3], eval), (3, vec![wave(1)]));
        assert_eq!(
            evals_and_keys(&cfg, &items, eval),
            (3, vec![wave(1), wave(2)])
        );

        // A verify mismatch republishes one cell over its wave-1 record.
        cfg.verify = VerifyPolicy::All;
        let other = |i: &u64| Out {
            n: i + 100,
            half: 0.0,
        };
        let (evals, keys) = evals_and_keys(&cfg, &items[..1], other);
        assert_eq!((evals, keys.len()), (1, 3));
        cfg.verify = VerifyPolicy::Trust;
        assert_eq!(evals_and_keys(&cfg, &items, eval), (0, vec![wave(4)]));
        assert_eq!(evals_and_keys(&cfg, &items, eval), (0, vec![wave(4)]));

        // One wave per cell: past MAX_WAVES the next load compacts.
        cfg.window = 1;
        let many: Vec<u64> = (0..MAX_WAVES as u64 + 6).collect();
        let (evals, keys) = evals_and_keys(&cfg, &many, eval);
        assert_eq!((evals, keys.len()), (MAX_WAVES, MAX_WAVES + 1));
        let (evals, keys) = evals_and_keys(&cfg, &many, eval);
        assert_eq!((evals, keys), (0, vec![wave(5 + MAX_WAVES as u64)]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_routing_partitions_the_key_space() {
        let keys: Vec<String> = (0..100).map(|i| format!("k{i}")).collect();
        for count in [1usize, 2, 3, 7] {
            let total: usize = (0..count)
                .map(|idx| keys.iter().filter(|k| key_in_shard(k, idx, count)).count())
                .sum();
            assert_eq!(total, keys.len(), "shards must partition exactly");
        }
        assert!(keys.iter().all(|k| key_in_shard(k, 0, 1)));
    }

    /// splitmix64 step: the codec property below draws its sections and
    /// results from a seed (the proptest shim has no collection strategy).
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A random JSON tree whose strings are full of the bytes that frame a
    /// payload: quotes, backslashes, brackets, the `,"det":` marker itself.
    fn random_value(state: &mut u64, depth: usize) -> serde_json::Value {
        use serde_json::{Map, Number, Value};
        const WORDS: [&str; 8] = [
            "plain",
            "schedule_phases_total{arch=\"zfost\"}",
            "}]}",
            "{[\"",
            "back\\slash\\",
            ",\"det\":{",
            "tab\tnew\nline\u{1}",
            "\u{e9}\u{4e16}",
        ];
        let word = |state: &mut u64| WORDS[(next(state) % 8) as usize].to_string();
        let kind = if depth == 0 {
            next(state) % 4
        } else {
            next(state) % 7
        };
        match kind {
            0 => Value::Null,
            1 => Value::Bool(next(state) & 1 == 0),
            2 => Value::Number(Number::from_u64(next(state) >> 20)),
            3 => Value::String(word(state)),
            4 => Value::Number(Number::from_f64(next(state) as f64 / 1024.0)),
            5 => Value::Array(
                (0..next(state) % 4)
                    .map(|_| random_value(state, depth - 1))
                    .collect(),
            ),
            _ => {
                let mut map = Map::new();
                for n in 0..next(state) % 4 {
                    map.insert(
                        format!("{}{n}", word(state)),
                        random_value(state, depth - 1),
                    );
                }
                Value::Object(map)
            }
        }
    }

    proptest::proptest! {
        /// The codec is an exact inverse on every (section, result) pair a
        /// publisher can produce, whatever the section's strings contain.
        #[test]
        fn payload_codec_round_trips(seed in proptest::prelude::any::<u64>()) {
            let mut state = seed;
            let mut section = serde_json::Map::new();
            for name in ["counters", "gauges", "spans"] {
                section.insert(name, random_value(&mut state, 4));
            }
            let det = serde_json::Value::Object(section).to_string();
            let out = eval(&(next(&mut state) >> 12));
            let json = serde_json::to_string(&out).expect("serialises");

            let payload = encode_payload(&det, &json);
            let whole: serde_json::Value =
                serde_json::from_str(&payload).expect("a payload is valid JSON");
            let back = decode_payload::<Out>(payload.as_bytes()).expect("decodes");
            proptest::prop_assert_eq!(&back.det, &det);
            proptest::prop_assert_eq!(&back.result_json, &json);
            proptest::prop_assert_eq!(back.result, Some(out));
            let obj = whole.as_object().expect("object");
            proptest::prop_assert_eq!(
                obj.get("result"),
                Some(&serde_json::from_str::<serde_json::Value>(&json).expect("result"))
            );
            proptest::prop_assert_eq!(
                obj.get("det"),
                Some(&serde_json::from_str::<serde_json::Value>(&det).expect("section"))
            );
        }
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_escape("plain"), "\"plain\"");
    }
}
