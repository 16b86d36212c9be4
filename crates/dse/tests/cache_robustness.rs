//! Cache-robustness contract, mirroring `zfgan-store`'s fallback-ladder
//! tests one layer up: a flipped byte, a truncated generation or a
//! foreign-version cell in the DSE cache is *detected* (checksum /
//! envelope / config-hash validation), *recomputed* (the cell evaluates
//! again) and *republished* (the next run hits) — and the canonical
//! result stream never changes, so corruption can never poison the
//! Pareto frontier. The same holds one level in: a payload that passes
//! every envelope check but is not a v3 cell payload is a miss too.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use zfgan_dse::sweeps::{self, fig16};
use zfgan_dse::{code_salt, DseConfig, VerifyPolicy};
use zfgan_store::{fnv64, fnv64_salted, Store, StoreConfig};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("zfgan-dse-robust-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Out {
    n: u64,
    scaled: f64,
}

fn eval(i: &u64) -> Out {
    Out {
        n: i.wrapping_mul(7),
        scaled: *i as f64 * 0.125,
    }
}

const CELLS: u64 = 6;

fn items() -> Vec<u64> {
    (0..CELLS).collect()
}

fn key_of(i: &u64) -> String {
    format!("cell-{i}")
}

/// The on-disk path of one cell's first generation (the engine's store
/// key is `namespace-<fnv64(key)>`).
fn cell_path(dir: &std::path::Path, namespace: &str, key: &str) -> PathBuf {
    let store = Store::open(dir.to_path_buf(), StoreConfig::default()).expect("open store");
    store.generation_path(&format!("{namespace}-{:016x}", fnv64(key.as_bytes())), 1)
}

/// Runs the batch counting evaluations; returns (results, evals).
fn run_counting(cfg: &DseConfig) -> (Vec<Out>, usize) {
    let calls = AtomicUsize::new(0);
    let batch = zfgan_dse::run_batch(cfg, &items(), key_of, |i| {
        calls.fetch_add(1, Ordering::Relaxed);
        eval(i)
    });
    (batch.results, calls.load(Ordering::Relaxed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any single-byte flip or truncation of one cell's stored generation
    /// is detected and only that cell recomputes; a foreign-version salt
    /// invalidates (and recomputes) every cell. In all cases the results
    /// are unchanged and the damage is republished away: the following
    /// run is pure hits.
    #[test]
    fn damaged_cells_recompute_republish_and_heal(
        (victim, damage, at) in (0u64..CELLS, 0usize..3, 0usize..4096)
    ) {
        let dir = temp_dir("prop");
        let mut cfg = DseConfig::new("robust");
        cfg.cache_dir = Some(dir.clone());

        let (cold, cold_evals) = run_counting(&cfg);
        prop_assert_eq!(cold_evals, CELLS as usize);

        // Inflict the damage.
        let expected_evals = match damage {
            0 | 1 => {
                let path = cell_path(&dir, "robust", &key_of(&victim));
                let mut bytes = std::fs::read(&path)
                    .map_err(|e| TestCaseError::fail(format!("read {}: {e}", path.display())))?;
                if damage == 0 {
                    let i = at % bytes.len();
                    bytes[i] ^= 0x40;
                } else {
                    bytes.truncate(at % bytes.len());
                }
                std::fs::write(&path, &bytes)
                    .map_err(|e| TestCaseError::fail(format!("write {}: {e}", path.display())))?;
                1 // only the victim recomputes
            }
            _ => {
                // Foreign code version: every stored cell stops matching.
                cfg.salt = cfg.salt.wrapping_add(1);
                CELLS as usize
            }
        };

        let reg = Arc::new(zfgan_telemetry::Registry::new());
        let (warm, warm_evals) = {
            let _guard = zfgan_telemetry::scope(Arc::clone(&reg));
            run_counting(&cfg)
        };
        prop_assert_eq!(warm_evals, expected_evals, "detected damage recomputes");
        prop_assert_eq!(&warm, &cold, "results never change");
        prop_assert_eq!(
            zfgan_telemetry::export::counter_total(&reg, "dse_cache_misses_total"),
            expected_evals as u64
        );
        prop_assert_eq!(
            zfgan_telemetry::export::counter_total(&reg, "dse_published_total"),
            expected_evals as u64,
            "recomputed cells republish"
        );

        // Healed: the republished generation serves the next run fully.
        let (healed, healed_evals) = run_counting(&cfg);
        prop_assert_eq!(healed_evals, 0, "republished cache is pure hits");
        prop_assert_eq!(&healed, &cold);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A corrupted cell must not poison the Pareto stream of a real sweep:
/// the fig16 canonical JSONL (cells, `pareto_add` lines, final frontier)
/// is byte-identical across cold, corrupted-then-recomputed and warm
/// runs.
#[test]
fn corruption_does_not_poison_the_pareto_stream() {
    let dir = temp_dir("stream");
    let mut cfg = DseConfig::new("ignored");
    cfg.cache_dir = Some(dir.clone());

    let cold = fig16::run(&cfg);
    assert_eq!(cold.unique, 4);

    // Flip one byte inside every cell's stored generation.
    let ns_prefix = format!("{}-", fig16::NAME);
    let mut damaged = 0;
    for entry in walk(&dir) {
        if entry
            .file_name()
            .is_some_and(|n| n.to_string_lossy().ends_with(".zfc"))
            && entry.to_string_lossy().contains(&ns_prefix)
        {
            let mut bytes = std::fs::read(&entry).expect("read generation");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            std::fs::write(&entry, &bytes).expect("write generation");
            damaged += 1;
        }
    }
    assert!(damaged > 0, "no generation files found under {dir:?}");

    let recomputed = fig16::run(&cfg);
    assert_eq!(
        cold.stream, recomputed.stream,
        "corrupted cells recompute into the identical stream"
    );
    let warm = fig16::run(&cfg);
    assert_eq!(cold.stream, warm.stream, "healed cache streams identically");

    let _ = std::fs::remove_dir_all(&dir);
}

/// One `dse_*_total` counter of a scoped run.
fn counter(reg: &zfgan_telemetry::Registry, name: &str) -> u64 {
    zfgan_telemetry::export::counter_total(reg, name)
}

/// Runs fig16 under a scoped registry; returns (stream, its counters).
fn fig16_scoped(cfg: &DseConfig) -> (String, Arc<zfgan_telemetry::Registry>) {
    let reg = Arc::new(zfgan_telemetry::Registry::new());
    let run = {
        let _guard = zfgan_telemetry::scope(Arc::clone(&reg));
        fig16::run(cfg)
    };
    (run.stream, reg)
}

/// Direct store access to one published fig16 cell, the way the engine
/// addresses it: `(store, store key, config hash, current payload text)`.
fn fig16_cell(dir: &std::path::Path, key: &str) -> (Store, String, u64, String) {
    let store_key = format!("{}-{:016x}", fig16::NAME, fnv64(key.as_bytes()));
    let hash = fnv64_salted(
        fnv64_salted(code_salt(), fig16::NAME.as_bytes()),
        key.as_bytes(),
    );
    let mut store = Store::open(dir.to_path_buf(), StoreConfig::default()).expect("open store");
    let payload = store
        .load_latest_for(&store_key, hash)
        .expect("load")
        .expect("the cell is published")
        .payload;
    let text = String::from_utf8(payload).expect("payloads are JSON text");
    (store, store_key, hash, text)
}

const PAYLOAD_OPEN: &str = "{\"result\":";

/// Splits a v3 payload at the codec's own seams: `(result text, section
/// text)`.
fn split_payload(text: &str) -> (&str, &str) {
    let rest = text.strip_prefix(PAYLOAD_OPEN).expect("result first");
    let (_, end) = serde_json::from_str_prefix(rest).expect("result parses off the front");
    let det = rest[end..]
        .strip_prefix(",\"det\":")
        .and_then(|d| d.strip_suffix('}'))
        .expect("section last");
    (&rest[..end], det)
}

/// The envelope can only vouch for bytes, not for what they mean. Publish
/// payloads straight through `Store` under the victim cell's own key and
/// config hash — every envelope check passes — that are not v3 cell
/// payloads: each must cost exactly one miss, be recomputed and
/// republished over, leave the next run a pure hit and the canonical
/// stream untouched, and never panic.
#[test]
fn well_enveloped_malformed_payloads_are_misses_not_hits() {
    let dir = temp_dir("hostile");
    let mut cfg = DseConfig::new("ignored");
    cfg.cache_dir = Some(dir.clone());
    let cold = fig16::run(&cfg);
    assert_eq!(cold.unique, 4);

    let (mut store, store_key, hash, good) = fig16_cell(&dir, "D (S-CONV)|1200");
    let (result, det) = split_payload(&good);
    let (open, result_len) = (PAYLOAD_OPEN, result.len());
    assert!(
        det.contains("schedule_phases_total"),
        "a real section: {det}"
    );

    let with_byte = |at: usize, byte: u8| {
        let mut bytes = good.clone().into_bytes();
        bytes[at] = byte;
        bytes
    };
    let hostile: Vec<(&str, Vec<u8>)> = vec![
        (
            "v2 layout (section as an escaped string, first)",
            format!(
                "{{\"det\":{},\"result\":{result}}}",
                serde_json::to_string(det).expect("escapes")
            )
            .into_bytes(),
        ),
        (
            "payload cut inside the result",
            good.as_bytes()[..open.len() + result_len / 2].to_vec(),
        ),
        (
            "result cut short, section intact",
            format!("{open}{},\"det\":{det}}}", &result[..result_len / 2]).into_bytes(),
        ),
        (
            "result of another shape",
            format!("{open}{{\"n\":1,\"scaled\":0.5}},\"det\":{det}}}").into_bytes(),
        ),
        (
            "result of another type",
            format!("{open}[1,2,3],\"det\":{det}}}").into_bytes(),
        ),
        (
            "no section member",
            format!("{open}{result}}}").into_bytes(),
        ),
        (
            "section under another name",
            format!("{open}{result},\"dat\":{det}}}").into_bytes(),
        ),
        (
            "section is not an object",
            format!("{open}{result},\"det\":\"text\"}}").into_bytes(),
        ),
        (
            "final brace missing",
            good.as_bytes()[..good.len() - 1].to_vec(),
        ),
        (
            "newline after the final brace",
            format!("{good}\n").into_bytes(),
        ),
        (
            "text after the final brace",
            format!("{good} trailing").into_bytes(),
        ),
        (
            "a second value after it",
            format!("{good}{{}}x").into_bytes(),
        ),
        ("whitespace before it", format!(" {good}").into_bytes()),
        (
            "non-UTF-8 byte in the section",
            with_byte(good.len() - 10, 0xff),
        ),
        (
            "non-UTF-8 byte in the result",
            with_byte(open.len() + result_len / 2, 0xc0),
        ),
        ("empty payload", Vec::new()),
        ("just the opening", open.as_bytes().to_vec()),
    ];

    for (what, payload) in hostile {
        store
            .publish(&store_key, hash, &payload)
            .unwrap_or_else(|e| panic!("{what}: publish: {e}"));

        let (stream, reg) = fig16_scoped(&cfg);
        assert_eq!(counter(&reg, "dse_cache_misses_total"), 1, "{what}");
        assert_eq!(counter(&reg, "dse_cache_hits_total"), 3, "{what}");
        assert_eq!(counter(&reg, "dse_published_total"), 1, "{what}");
        assert_eq!(stream, cold.stream, "{what}");

        let (stream, reg) = fig16_scoped(&cfg);
        assert_eq!(counter(&reg, "dse_cache_hits_total"), 4, "{what}: healed");
        assert_eq!(counter(&reg, "dse_cache_misses_total"), 0, "{what}: healed");
        assert_eq!(counter(&reg, "dse_published_total"), 0, "{what}: healed");
        assert_eq!(stream, cold.stream, "{what}: healed");

        // What healed it is the republished payload, byte for byte the
        // cold one.
        let now = store
            .load_latest_for(&store_key, hash)
            .expect("load")
            .expect("republished");
        assert_eq!(now.payload, good.as_bytes(), "{what}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The codec frames the section; it does not parse it. A well-enveloped
/// v3 payload whose section was rewritten is therefore a hit under
/// `--verify trust` (the stream, which carries no section, is unchanged)
/// and is what `--verify all` exists to catch: one failure, republished,
/// clean on the next pass.
#[test]
fn a_rewritten_section_is_served_on_trust_and_caught_by_verify_all() {
    let dir = temp_dir("rewritten");
    let mut cfg = DseConfig::new("ignored");
    cfg.cache_dir = Some(dir.clone());
    let cold = fig16::run(&cfg);

    let (mut store, store_key, hash, good) = fig16_cell(&dir, "G (T-CONV)|1200");
    let rewritten = format!("{},\"extra\":1}}}}", &good[..good.len() - 2]);
    assert!(serde_json::from_str::<serde_json::Value>(&rewritten).is_ok());
    store
        .publish(&store_key, hash, rewritten.as_bytes())
        .expect("publish");

    let (stream, reg) = fig16_scoped(&cfg);
    assert_eq!(counter(&reg, "dse_cache_hits_total"), 4, "trusted");
    assert_eq!(stream, cold.stream);

    cfg.verify = VerifyPolicy::All;
    let (stream, reg) = fig16_scoped(&cfg);
    assert_eq!(counter(&reg, "dse_verify_failures_total"), 1);
    assert_eq!(counter(&reg, "dse_verified_total"), 3);
    assert_eq!(counter(&reg, "dse_published_total"), 1);
    assert_eq!(stream, cold.stream);
    let (stream, reg) = fig16_scoped(&cfg);
    assert_eq!(counter(&reg, "dse_verify_failures_total"), 0);
    assert_eq!(counter(&reg, "dse_verified_total"), 4);
    assert_eq!(stream, cold.stream);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every cell the five paper sweeps publish is one JSON object with
/// exactly a `result` and a `det` member, and the `det` member *is* the
/// deterministic section — the text the codec frames parses to the same
/// tree. Tools that read a cache (the repo benchmark's replay does) rely
/// on payloads being plain JSON.
#[test]
fn published_paper_cells_are_json_with_the_section_embedded() {
    let dir = temp_dir("paper");
    let mut cfg = DseConfig::new("ignored");
    cfg.cache_dir = Some(dir.clone());
    let mut cells = 0;
    for name in sweeps::SWEEP_NAMES {
        cells += sweeps::run_sweep(name, &cfg).expect("a paper sweep").unique;
    }

    let mut store = Store::open(dir.clone(), StoreConfig::default()).expect("open store");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("cache dir").flatten() {
        let key = entry
            .file_name()
            .into_string()
            .expect("store keys are ASCII");
        let payload = store
            .load_latest(&key)
            .expect("load")
            .expect("published")
            .payload;
        let text = std::str::from_utf8(&payload).expect("payloads are JSON text");
        let whole: serde_json::Value = serde_json::from_str(text).expect("payload parses");
        let obj = whole.as_object().expect("payload is an object");
        assert_eq!(obj.keys().collect::<Vec<_>>(), ["result", "det"], "{key}");

        let (result, det) = split_payload(text);
        let result: serde_json::Value = serde_json::from_str(result).expect("result parses");
        assert_eq!(obj.get("result"), Some(&result), "{key}");
        let section: serde_json::Value = serde_json::from_str(det).expect("section parses");
        assert_eq!(obj.get("det"), Some(&section), "{key}");
        assert!(section
            .as_object()
            .is_some_and(|s| s.get("spans").is_some()));
        seen += 1;
    }
    assert_eq!(seen, cells, "one published payload per unique cell");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under `--verify all`, hits that byte-match their recomputation count
/// as verified; a tampered *valid-envelope* payload cannot occur without
/// a checksum break, so verification failures stay at zero here.
#[test]
fn verify_all_confirms_stored_cells_byte_for_byte() {
    let dir = temp_dir("verify");
    let mut cfg = DseConfig::new("verify");
    cfg.cache_dir = Some(dir.clone());
    run_counting(&cfg);

    cfg.verify = VerifyPolicy::All;
    let reg = Arc::new(zfgan_telemetry::Registry::new());
    let (results, evals) = {
        let _guard = zfgan_telemetry::scope(Arc::clone(&reg));
        run_counting(&cfg)
    };
    assert_eq!(evals, CELLS as usize, "verify recomputes every hit");
    assert_eq!(results, items().iter().map(eval).collect::<Vec<_>>());
    assert_eq!(
        zfgan_telemetry::export::counter_total(&reg, "dse_verified_total"),
        CELLS
    );
    assert_eq!(
        zfgan_telemetry::export::counter_total(&reg, "dse_verify_failures_total"),
        0
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recursively lists the files under `dir`.
fn walk(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(walk(&path));
        } else {
            out.push(path);
        }
    }
    out
}
