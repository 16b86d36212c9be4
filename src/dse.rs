//! `zfgan dse` — the design-space exploration service CLI.
//!
//! One invocation serves one named sweep (fig15–fig19) as a query batch
//! through [`zfgan_dse`]: dedup, content-addressed cache lookup, windowed
//! computation of the misses on the pool, publication, and the canonical
//! JSONL stream (per-cell results plus the incremental Pareto frontier).
//! Several invocations may share one `--cache`: each publishes its waves
//! under keys of its own.
//!
//! The stream carries no hit/miss or timing information, so cold, warm
//! and corrupted-then-recomputed runs are byte-identical. Cache traffic
//! is visible through the `dse_*_total` counters instead: pass
//! `--telemetry` for a summary of this invocation's counters.

use std::path::PathBuf;

use zfgan_dse::sweeps::run_sweep;
use zfgan_dse::{DseConfig, VerifyPolicy};

/// Parsed arguments of one `zfgan dse` invocation.
#[derive(Debug)]
pub struct DseArgs {
    /// The sweep to serve (one of [`zfgan_dse::sweeps::SWEEP_NAMES`]).
    pub sweep: String,
    /// Cache directory (`--cache`); none runs every cell uncached.
    pub cache: Option<PathBuf>,
    /// Write the canonical stream here instead of stdout.
    pub out: Option<PathBuf>,
    /// Hit-verification policy.
    pub verify: VerifyPolicy,
    /// Bounded in-flight window override.
    pub window: Option<usize>,
}

/// Executes one `zfgan dse` invocation and returns the text to print.
///
/// # Errors
///
/// Returns a descriptive error for an unknown sweep, `--verify all`
/// without a cache, or an unwritable `--out` path.
pub fn run_dse(a: &DseArgs) -> Result<String, String> {
    // Only cache hits are verified: without a cache there is nothing to check.
    if a.verify == VerifyPolicy::All && a.cache.is_none() {
        return Err("--verify all needs --cache PATH".to_string());
    }
    let mut cfg = DseConfig::new("dse");
    cfg.cache_dir = a.cache.clone();
    if let Some(w) = a.window {
        cfg.window = w;
    }
    cfg.verify = a.verify;

    let run = run_sweep(&a.sweep, &cfg)?;
    let mut out = String::new();
    match &a.out {
        Some(path) => {
            std::fs::write(path, &run.stream)
                .map_err(|e| format!("--out {}: {e}", path.display()))?;
            out.push_str(&format!(
                "stream written to {} ({} bytes)\n",
                path.display(),
                run.stream.len()
            ));
        }
        None => out.push_str(&run.stream),
    }
    out.push_str(&format!(
        "{}: {} unique cells ({} duplicates folded), pareto frontier {}\n",
        a.sweep, run.unique, run.duplicates, run.frontier_len
    ));
    Ok(out)
}
