//! A cell's cached bytes depend on the cell alone, and computing it leaves
//! nothing behind in the process: the unroll search behind
//! `Design::evaluate` scores its candidates on the pure cycle model, so
//! neither the process-wide search memo nor the caller's telemetry
//! registry can tell whether a cell has been computed before.
//!
//! This binary never shares a budget with another test, so every search
//! below is a memo miss the first time it runs.

use std::sync::Arc;

use zfgan_accel::{Design, DesignReport, SyncPolicy};
use zfgan_dataflow::ArchKind;
use zfgan_dse::{run_batch, Batch, DseConfig};
use zfgan_telemetry::Registry;
use zfgan_workloads::{GanSpec, PhaseSeq};

/// One cell per architecture: DCGAN's Discriminator update on `pes` PEs.
fn batch(cfg: &DseConfig, pes: usize) -> Batch<DesignReport> {
    let spec = GanSpec::dcgan();
    run_batch(
        cfg,
        &ArchKind::ALL,
        |arch| format!("{}|{pes}", arch.name()),
        |arch| {
            Design::Unique(*arch).evaluate(&spec, PhaseSeq::DisUpdate, SyncPolicy::Deferred, pes)
        },
    )
}

/// An NLR cell used to carry its search candidates' `schedule_*` counters
/// when its search missed the memo and not when it hit, so two pool
/// threads sharing a search key raced for which cell got them and
/// `--verify all` could report a mismatch that was not there.
#[test]
fn deterministic_sections_do_not_depend_on_the_search_memo() {
    let cfg = DseConfig::new("purity-memo");
    // `run_batch` computes every cell under a fresh scoped registry.
    let (miss, hit) = (batch(&cfg, 1531), batch(&cfg, 1531));
    assert_eq!(miss.cells.len(), ArchKind::ALL.len());
    for (a, b) in miss.cells.iter().zip(&hit.cells) {
        assert_eq!(a.key, b.key);
        assert_eq!(a.result_json, b.result_json);
        assert_eq!(a.det, b.det, "{}: section differs, miss vs hit", a.key);
        assert!(a.det.contains("schedule_phases_total"), "{}", a.det);
    }
}

/// With telemetry on (a `--telemetry` run, a served `/metrics`), a cold
/// batch used to leave every candidate schedule of every fresh search in
/// the caller's never-drained registry: 18 MiB per 30-cell batch.
#[test]
fn a_cold_cached_batch_leaves_no_spans_in_the_callers_registry() {
    let dir = std::env::temp_dir().join(format!("zfgan-dse-purity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = DseConfig::new("purity-spans");
    cfg.cache_dir = Some(dir.clone());
    let reg = Arc::new(Registry::new());
    let _scope = zfgan_telemetry::scope(Arc::clone(&reg));
    let cold = batch(&cfg, 1789);
    assert_eq!(cold.unique, ArchKind::ALL.len());
    assert!(reg.spans().is_empty(), "{:?}", reg.spans());
    let _ = std::fs::remove_dir_all(&dir);
}
