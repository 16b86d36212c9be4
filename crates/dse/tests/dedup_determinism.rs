//! Dedup + determinism contract: a batch containing duplicate and
//! permuted cells evaluates each unique cell exactly once and produces a
//! byte-identical result stream regardless of thread count
//! (`ZFGAN_THREADS` is process-wide, so thread-count invariance is
//! exercised by the CI gate; here the pool's actual parallelism runs
//! against the serial reference), in-flight window and concurrent
//! publishers into one cache. Also pins the engine's counters to the shared `/metrics`
//! endpoint.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use zfgan_dse::sweeps::{fig16, fig18};
use zfgan_dse::DseConfig;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("zfgan-dse-dedup-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Out {
    v: u64,
    frac: f64,
}

fn eval(i: &u64) -> Out {
    Out {
        v: i * 11,
        frac: *i as f64 / 3.0,
    }
}

#[test]
fn duplicates_and_permutations_share_one_evaluation() {
    // 4 unique cells presented 3 times each, shuffled.
    let items: Vec<u64> = vec![3, 1, 0, 2, 1, 3, 0, 2, 2, 0, 1, 3];
    let calls = AtomicUsize::new(0);
    let batch = zfgan_dse::run_batch(
        &DseConfig::new("dedup"),
        &items,
        |i| format!("k{i}"),
        |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            eval(i)
        },
    );
    assert_eq!(calls.load(Ordering::Relaxed), 4, "one eval per unique cell");
    assert_eq!(batch.unique, 4);
    assert_eq!(batch.duplicates, 8);
    // Every duplicate sees the same reconstructed value, in input order.
    let expect: Vec<Out> = items.iter().map(eval).collect();
    assert_eq!(batch.results, expect);
    // Cells are in sorted-key order; each names the first item that asked.
    let firsts: Vec<usize> = batch.cells.iter().map(|c| c.first).collect();
    assert_eq!(firsts, [2, 1, 3, 0]);
}

/// `CellRecord::first` is how a sweep reaches a cell's reconstructed result
/// without parsing it again: under any permutation and duplication it is
/// the earliest input index carrying the cell's key.
#[test]
fn first_is_the_earliest_asking_item_under_permutation_and_duplicates() {
    let mut state = 0x5eed_u64;
    for round in 0..20 {
        // 1..=24 items over at most 6 distinct cells, order and
        // multiplicity drawn from an LCG.
        let len = 1 + round % 24;
        let items: Vec<u64> = (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % 6
            })
            .collect();
        let batch =
            zfgan_dse::run_batch(&DseConfig::new("first"), &items, |i| format!("k{i}"), eval);
        assert_eq!(batch.cells.len(), batch.unique);
        for cell in &batch.cells {
            let earliest = items
                .iter()
                .position(|i| format!("k{i}") == cell.key)
                .expect("a cell comes from an item");
            assert_eq!(cell.first, earliest, "round {round}, {}", cell.key);
            assert_eq!(batch.results[cell.first], eval(&items[earliest]));
        }
    }
}

#[test]
fn permuted_batches_yield_identical_cell_records() {
    let forward: Vec<u64> = (0..8).collect();
    let mut backward = forward.clone();
    backward.reverse();
    let cfg = DseConfig::new("perm");
    let a = zfgan_dse::run_batch(&cfg, &forward, |i| format!("k{i}"), eval);
    let b = zfgan_dse::run_batch(&cfg, &backward, |i| format!("k{i}"), eval);
    // Canonical cell records are sorted by key: identical across orders.
    assert_eq!(a.cells.len(), b.cells.len());
    for (x, y) in a.cells.iter().zip(&b.cells) {
        assert_eq!(x.key, y.key);
        assert_eq!(x.result_json, y.result_json);
        assert_eq!(x.det, y.det);
    }
}

/// A permuted, duplicate-laden fig18 point list must stream exactly like
/// the pristine sweep — the stream is a function of the unique key set
/// alone.
#[test]
fn sweep_stream_is_invariant_to_input_presentation() {
    let cfg = DseConfig::new("ignored");
    let a = fig18::run(&cfg);
    let b = fig18::run(&cfg);
    assert_eq!(a.stream, b.stream);
    assert_eq!(a.unique, 12);
    assert_eq!(a.results.len(), 12);
}

/// Concurrent publishers into one namespace lose nothing: two threads run
/// the even and the odd half of one batch into one cache at the same
/// moment, each wave claiming a key of its own, and the following full
/// batch is all hits with no temp file left behind.
#[test]
fn concurrent_publishers_lose_nothing() {
    let items: Vec<u64> = (0..12).collect();
    for round in 0..20 {
        let dir = temp_dir(&format!("race{round}"));
        let mut cfg = DseConfig::new("race");
        cfg.cache_dir = Some(dir.clone());
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for parity in 0..2 {
                let (cfg, items, barrier) = (&cfg, &items, &barrier);
                s.spawn(move || {
                    let mine: Vec<u64> =
                        items.iter().copied().filter(|i| i % 2 == parity).collect();
                    barrier.wait();
                    zfgan_dse::run_batch(cfg, &mine, |i| format!("r{i}"), eval);
                });
            }
        });
        let calls = AtomicUsize::new(0);
        let batch = zfgan_dse::run_batch(
            &cfg,
            &items,
            |i| format!("r{i}"),
            |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                eval(i)
            },
        );
        assert_eq!(calls.load(Ordering::Relaxed), 0, "round {round}: a miss");
        assert_eq!(batch.results, items.iter().map(eval).collect::<Vec<_>>());
        for wave in std::fs::read_dir(&dir).expect("cache").flatten() {
            for file in std::fs::read_dir(wave.path()).expect("wave").flatten() {
                let name = file.file_name().to_string_lossy().into_owned();
                assert!(!name.starts_with(".tmp-"), "round {round}: {name} left");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Two runs of one sweep started together on one empty cache (what two
/// `zfgan dse fig16 --cache` processes do) both stream the cacheless
/// bytes, and a run after them is served from the cache without a miss.
#[test]
fn concurrent_sweep_runs_stream_like_the_cacheless_run() {
    let reference = fig16::run(&DseConfig::new("ignored")).stream;
    let dir = temp_dir("writers");
    let mut cfg = DseConfig::new("ignored");
    cfg.cache_dir = Some(dir.clone());
    let barrier = std::sync::Barrier::new(2);
    let streams: Vec<String> = std::thread::scope(|s| {
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let (cfg, barrier) = (&cfg, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    fig16::run(cfg).stream
                })
            })
            .collect();
        writers
            .into_iter()
            .map(|w| w.join().expect("writer"))
            .collect()
    });
    for stream in &streams {
        assert_eq!(stream, &reference);
    }
    let reg = Arc::new(zfgan_telemetry::Registry::new());
    let served = {
        let _scope = zfgan_telemetry::scope(Arc::clone(&reg));
        fig16::run(&cfg)
    };
    assert_eq!(served.stream, reference);
    assert_eq!(
        zfgan_telemetry::export::counter_total(&reg, "dse_cache_misses_total"),
        0
    );
    assert_eq!(
        zfgan_telemetry::export::counter_total(&reg, "dse_cache_hits_total"),
        served.unique as u64
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The in-flight window only sets how many cells a pool wave (and, with a
/// cache, a published wave) holds: cacheless, cold and warm streams are
/// the same bytes at every window.
#[test]
fn window_never_changes_the_stream() {
    let reference = fig18::run(&DseConfig::new("ignored")).stream;
    for window in [1usize, 2, 5, 64] {
        let mut cfg = DseConfig::new("ignored");
        cfg.window = window;
        assert_eq!(
            fig18::run(&cfg).stream,
            reference,
            "cacheless, window {window}"
        );
        let dir = temp_dir(&format!("window{window}"));
        cfg.cache_dir = Some(dir.clone());
        assert_eq!(fig18::run(&cfg).stream, reference, "cold, window {window}");
        assert_eq!(fig18::run(&cfg).stream, reference, "warm, window {window}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The engine's cache counters ride the shared HTTP `/metrics` endpoint:
/// run a cached batch under a scope of a registry, serve that registry
/// for one scrape, and find the `dse_*` series in Prometheus text format.
#[test]
fn dse_counters_are_exposed_on_the_shared_metrics_endpoint() {
    let dir = temp_dir("metrics");
    let mut cfg = DseConfig::new("metrics-sweep");
    cfg.cache_dir = Some(dir.clone());
    let items: Vec<u64> = (0..3).collect();
    // Cold populate + warm hit, recorded in the caller's scope.
    let reg = Arc::new(zfgan_telemetry::Registry::new());
    {
        let _scope = zfgan_telemetry::scope(Arc::clone(&reg));
        zfgan_dse::run_batch(&cfg, &items, |i| format!("m{i}"), eval);
        zfgan_dse::run_batch(&cfg, &items, |i| format!("m{i}"), eval);
    }

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server =
        std::thread::spawn(move || zfgan_telemetry::http::serve_on(listener, reg, Some(1)));
    let body = zfgan_telemetry::http::scrape(&addr, "/metrics").expect("scrape");
    server.join().expect("join").expect("serve");

    for series in [
        "dse_cells_total{namespace=\"metrics-sweep\"}",
        "dse_cache_hits_total{namespace=\"metrics-sweep\"}",
        "dse_cache_misses_total{namespace=\"metrics-sweep\"}",
        "dse_published_total{namespace=\"metrics-sweep\"}",
    ] {
        assert!(body.contains(series), "missing {series} in:\n{body}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
