//! DSE engine cache gate: a warm-cache full fig15 sweep must be at least
//! 10× faster than the cold run that populated the cache, and the
//! canonical result stream must be byte-identical between the two.
//!
//! The ratio is gated again. It was relaxed to "warm < cold" when the cold
//! path got cheap (a miss ≈ 0.5 ms) while a hit still cost a quarter of
//! that: four JSON parses of a payload whose 21 KB section rode inside an
//! escaped string, a bytewise CRC and a payload copy. A hit now reads,
//! checks a slicing-by-8 CRC and parses the few hundred bytes of result
//! once (payload v3, DESIGN.md §8), which measures 24–42× in-process; the
//! floor sits well under that so host noise on the single cold sample
//! cannot trip it. Absolute speed of both paths is the `dse_explore_cold`
//! / `dse_paper_warm` pair of `BENCHMARK.json`.
//!
//! A cheaper cold path shrinks the ratio by design. Once a cold cell's
//! telemetry stopped costing more than its evaluation, the cold run fell
//! to 3–4 ms against a 0.3–0.5 ms warm run on a 2-vCPU host, and the
//! reading to 7–10× when fsync is fast, under the floor (ROADMAP item 6:
//! the warm hit has to get cheaper). The cold and warm milliseconds print
//! beside the gate, so a low reading shows which side moved.
//!
//! This one gate is not a [`zfgan_bench::paired_ratio`]: only the first
//! run in a process is cold (it both pays the tuning cost and fills the
//! cache), so it is one cold sample against the fastest warm repetition.

use std::time::Instant;

use zfgan_bench::gate;
use zfgan_dse::sweeps::fig15;
use zfgan_dse::DseConfig;

/// Warm repetitions; the minimum carries the stable signal.
const WARM_REPS: usize = 5;

/// Gate floor for cold / warm (see the module doc for the margin).
const MIN_WARM_SPEEDUP: f64 = 10.0;

fn main() {
    let dir = std::env::temp_dir().join(format!("zfgan-dse-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = DseConfig::new(fig15::NAME);
    cfg.cache_dir = Some(dir.clone());

    // Cold: an empty cache directory — every cell computes and publishes.
    let started = Instant::now();
    let cold = fig15::run(&cfg);
    let cold_ns = started.elapsed().as_nanos() as f64;

    // Warm: every cell is a verified-checksum hit; keep the fastest rep.
    let mut warm_ns = f64::INFINITY;
    for _ in 0..WARM_REPS {
        let started = Instant::now();
        let warm = fig15::run(&cfg);
        warm_ns = warm_ns.min(started.elapsed().as_nanos() as f64);
        assert_eq!(
            cold.stream, warm.stream,
            "warm stream must be byte-identical to cold"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "fig15: {} unique cells, cold {:.2} ms, warm {:.2} ms (fastest of {WARM_REPS})",
        cold.unique,
        cold_ns / 1e6,
        warm_ns / 1e6
    );
    gate(
        "dse/fig15_warm_vs_cold",
        MIN_WARM_SPEEDUP,
        cold_ns / warm_ns,
    );
}
