//! `zfgan dse` — the design-space exploration service CLI.
//!
//! One invocation serves one named sweep (fig15–fig19) as a query batch
//! through [`zfgan_dse`]: dedup, content-addressed cache lookup, windowed
//! computation of the misses, publication, and the canonical JSONL stream
//! (per-cell results plus the incremental Pareto frontier).
//!
//! With `--shards N` the parent spawns `N` children of the current
//! executable — the same work-unit protocol `zfgan crashtest` uses — each
//! computing and publishing one hash-routed partition of the key space
//! into the shared cache; the parent then serves the whole batch (all
//! hits by construction) and streams it. A child is selected with
//! `--shard-index I --shard-count N`.
//!
//! The stream carries no hit/miss or timing information, so cold, warm
//! and corrupted-then-recomputed runs are byte-identical. Cache traffic
//! is visible through the `dse_*_total` counters instead: pass
//! `--telemetry` for a summary of this invocation's counters.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use zfgan_dse::sweeps::{run_sweep, run_sweep_shard};
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
    /// Parent mode: spawn this many child shards before serving.
    pub shards: Option<usize>,
    /// Child mode: this process computes shard `shard_index`…
    pub shard_index: Option<usize>,
    /// …of `shard_count` hash-routed partitions.
    pub shard_count: Option<usize>,
}

/// Executes one `zfgan dse` invocation and returns the text to print.
///
/// # Errors
///
/// Returns a descriptive error for an unknown sweep, inconsistent shard
/// flags, sharding without a cache, an unwritable `--out` path, or a
/// failed child shard.
pub fn run_dse(a: &DseArgs) -> Result<String, String> {
    let mut cfg = DseConfig::new("dse");
    cfg.cache_dir = a.cache.clone();
    if let Some(w) = a.window {
        cfg.window = w;
    }
    cfg.verify = a.verify;

    // Child mode: compute and publish one partition, nothing else.
    match (a.shard_index, a.shard_count) {
        (Some(index), Some(count)) => {
            if count == 0 || index >= count {
                return Err(format!(
                    "--shard-index {index} out of range for --shard-count {count}"
                ));
            }
            if cfg.cache_dir.is_none() {
                return Err("a shard needs a cache to publish into (--cache PATH)".to_string());
            }
            let n = run_sweep_shard(&a.sweep, &cfg, index, count)?;
            return Ok(format!(
                "{}: shard {index}/{count} computed and published {n} cells\n",
                a.sweep
            ));
        }
        (None, None) => {}
        _ => return Err("--shard-index and --shard-count go together".to_string()),
    }

    // Parent mode: fan the key space out across child processes first;
    // the shared cache is the rendezvous, so the serving pass below then
    // finds every cell already published.
    if let Some(shards) = a.shards.filter(|&n| n > 1) {
        let dir = cfg
            .cache_dir
            .clone()
            .ok_or_else(|| "--shards needs a cache to rendezvous in (--cache PATH)".to_string())?;
        spawn_shards(&a.sweep, &dir, shards, a.window)?;
    }

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

/// Spawns the child shards (re-invoking the current executable, like
/// `zfgan crashtest`'s runner) and waits for all of them.
fn spawn_shards(
    sweep: &str,
    dir: &std::path::Path,
    shards: usize,
    window: Option<usize>,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut children: Vec<(usize, Child)> = Vec::new();
    for index in 0..shards {
        let mut cmd = Command::new(&exe);
        cmd.arg("dse")
            .arg(sweep)
            .arg("--cache")
            .arg(dir)
            .arg("--shard-index")
            .arg(index.to_string())
            .arg("--shard-count")
            .arg(shards.to_string())
            // Shard summaries would interleave with the parent's stream.
            .stdout(Stdio::null());
        if let Some(w) = window {
            cmd.arg("--window").arg(w.to_string());
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawning shard {index}: {e}"))?;
        children.push((index, child));
    }
    for (index, mut child) in children {
        let status = child
            .wait()
            .map_err(|e| format!("waiting for shard {index}: {e}"))?;
        if !status.success() {
            return Err(format!("dse shard {index}/{shards} failed ({status})"));
        }
    }
    Ok(())
}
