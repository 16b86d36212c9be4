//! `zfgan report` — per-dataflow cycle-attribution tables from the
//! cycle-accurate executors.
//!
//! One report run drives all nine traced executors (or one architecture's
//! subset) on the shared scaled-down DCGAN layer, folds each run's event
//! trace into an **exact partition** of its engine cycle count via
//! [`zfgan_dataflow::exec::attribute_cycles`] — MAC cycles, DRAM-stall
//! cycles, buffer-only cycles, idle, untraced — and pairs that with the
//! architecture's analytical schedule (PE utilization, operand words,
//! DRAM bytes, roofline position). The components are a partition, so for
//! every executor they sum to the engine's total cycles; the run fails
//! loudly if they ever do not.
//!
//! All quantities are integers derived from seeded integer/cycle state,
//! so the rendered table and the `--out` JSON are byte-identical across
//! same-seed runs — the CI gate diffs two of them. The report opens no
//! telemetry scope of its own (scopes nest innermost-wins, so one would
//! hide the executors from the command's registry): its executors record
//! into the caller's, and [`Report::to_json`] embeds that registry's
//! canonical [`export::deterministic_section`]. `zfgan report --check`
//! validates the JSON with the same code path as the `--trace-out` trace.

use crate::dataflow::exec::{self, CycleAttribution};
use crate::dataflow::{Dataflow, Nlr, Ost, Wst, Zfost, Zfwst};
use crate::sim::trace::TraceBuffer;
use crate::sim::{ConvKind, ConvShape};
use crate::telemetry::{export, Registry};
use crate::tensor::{ConvGeom, Fmaps, Kernels};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Default trace capacity: large enough that none of the nine executors
/// evicts history on the report phase, so `untraced` stays zero.
pub const DEFAULT_CAPACITY: usize = 1 << 20;
/// Default operand seed.
pub const DEFAULT_SEED: u64 = 2024;

/// One executor's row: the engine-cycle partition plus the architecture's
/// analytical schedule for the same phase.
#[derive(Debug, Clone)]
pub struct ReportRow {
    /// Executor path as recorded in telemetry, e.g. `zfost/s_conv`.
    pub executor: String,
    /// Engine total cycles (the attribution components sum to this).
    pub cycles: u64,
    /// Exact cycle partition from the event trace.
    pub attr: CycleAttribution,
    /// Schedule-model PE utilization in parts-per-million.
    pub util_ppm: u64,
    /// Schedule-model effectual MACs for the phase.
    pub effectual_macs: u64,
    /// PEs the configuration instantiates (roofline peak MACs/cycle).
    pub n_pes: u64,
    /// On-chip operand words moved (schedule-model buffer accesses).
    pub operand_words: u64,
    /// Off-chip traffic in bytes (schedule model).
    pub dram_bytes: u64,
    /// Achieved MACs per 1000 schedule cycles (roofline position; peak is
    /// `n_pes * 1000`).
    pub macs_per_kcycle: u64,
    /// Roofline verdict: `compute` when utilization ≥ 50 %, else `feed`.
    pub bound: &'static str,
    /// The executor's event trace, which `attr` partitions.
    pub(crate) trace: TraceBuffer,
}

/// The full report: one row per executor, in presentation order.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operand seed the run used.
    pub seed: u64,
    /// Trace capacity per executor.
    pub capacity: usize,
    /// One row per executor, in the paper's architecture order.
    pub rows: Vec<ReportRow>,
}

/// The report phase every run uses: the scaled-down DCGAN layer
/// (6×6 ↔ 12×12, 4×4 kernel, stride 2) shared with the fault campaigns.
fn report_phase(kind: ConvKind) -> Result<ConvShape, String> {
    let geom = ConvGeom::down(12, 12, 4, 4, 2, 6, 6).map_err(|e| e.to_string())?;
    Ok(ConvShape::new(kind, geom, 5, 3, 12, 12))
}

/// Which executors `--arch` selects. `all` (or `None`) runs all nine.
fn selected_executors(arch: Option<&str>) -> Result<Vec<&'static str>, String> {
    const ALL: [&str; 9] = [
        "nlr/s_conv",
        "wst/s_conv",
        "ost/t_conv",
        "zfost/s_conv",
        "zfost/t_conv",
        "zfwst/s_conv",
        "zfwst/t_conv",
        "zfwst/wgrad_s",
        "zfwst/wgrad_t",
    ];
    match arch.unwrap_or("all") {
        "all" => Ok(ALL.to_vec()),
        a @ ("nlr" | "wst" | "ost" | "zfost" | "zfwst") => Ok(ALL
            .iter()
            .copied()
            .filter(|e| e.starts_with(a) && e.as_bytes()[a.len()] == b'/')
            .collect()),
        other => Err(format!(
            "--arch '{other}' unknown (expected one of: nlr, wst, ost, zfost, zfwst, all)"
        )),
    }
}

/// Runs one executor with tracing and returns `(engine cycles, trace,
/// the array that ran, its phase)`; the report puts the array's schedule
/// model on top.
fn run_executor(
    executor: &str,
    seed: u64,
    capacity: usize,
) -> Result<(u64, TraceBuffer, Box<dyn Dataflow>, ConvShape), String> {
    // The seeded operands: a 3-channel 12×12 input, a 5-channel 6×6 small
    // map, 5×3 4×4 kernels.
    let mut rng = SmallRng::seed_from_u64(seed);
    let x: Fmaps<f64> = Fmaps::random(3, 12, 12, 1.0, &mut rng);
    let small_x: Fmaps<f64> = Fmaps::random(5, 6, 6, 1.0, &mut rng);
    let k: Kernels<f64> = Kernels::random(5, 3, 4, 4, 1.0, &mut rng);
    let err = |e: crate::tensor::ShapeError| e.to_string();

    let zfost = Zfost::new(4, 4, 2);
    let zfwst = Zfwst::new(2, 2, 2);
    let ost = Ost::new(4, 4, 2);
    let wst = Wst::new(4, 4, 2);
    let nlr = Nlr::new(3, 5);

    match executor {
        "nlr/s_conv" => {
            let p = report_phase(ConvKind::S)?;
            let ((out, _), trace) =
                exec::nlr_s_conv_traced(&nlr, &p, &x, &k, capacity).map_err(err)?;
            Ok((out.cycles, trace, Box::new(nlr), p))
        }
        "wst/s_conv" => {
            let p = report_phase(ConvKind::S)?;
            let ((out, _), trace) =
                exec::wst_s_conv_traced(&wst, &p, &x, &k, capacity).map_err(err)?;
            Ok((out.cycles, trace, Box::new(wst), p))
        }
        "ost/t_conv" => {
            let p = report_phase(ConvKind::T)?;
            let ((out, _), trace) =
                exec::ost_t_conv_traced(&ost, &p, &small_x, &k, capacity).map_err(err)?;
            Ok((out.cycles, trace, Box::new(ost), p))
        }
        "zfost/s_conv" => {
            let p = report_phase(ConvKind::S)?;
            let (out, trace) =
                exec::zfost_s_conv_traced(&zfost, &p, &x, &k, capacity).map_err(err)?;
            Ok((out.cycles, trace, Box::new(zfost), p))
        }
        "zfost/t_conv" => {
            let p = report_phase(ConvKind::T)?;
            let (out, trace) =
                exec::zfost_t_conv_traced(&zfost, &p, &small_x, &k, capacity).map_err(err)?;
            Ok((out.cycles, trace, Box::new(zfost), p))
        }
        "zfwst/s_conv" => {
            let p = report_phase(ConvKind::S)?;
            let (out, trace) =
                exec::zfwst_s_conv_traced(&zfwst, &p, &x, &k, capacity).map_err(err)?;
            Ok((out.cycles, trace, Box::new(zfwst), p))
        }
        "zfwst/t_conv" => {
            let p = report_phase(ConvKind::T)?;
            let (out, trace) =
                exec::zfwst_t_conv_traced(&zfwst, &p, &small_x, &k, capacity).map_err(err)?;
            Ok((out.cycles, trace, Box::new(zfwst), p))
        }
        "zfwst/wgrad_s" => {
            let p = report_phase(ConvKind::WGradS)?;
            let (out, trace) =
                exec::zfwst_wgrad_s_traced(&zfwst, &p, &x, &small_x, capacity).map_err(err)?;
            Ok((out.cycles, trace, Box::new(zfwst), p))
        }
        "zfwst/wgrad_t" => {
            let p = report_phase(ConvKind::WGradT)?;
            let (out, trace) =
                exec::zfwst_wgrad_t_traced(&zfwst, &p, &small_x, &x, capacity).map_err(err)?;
            Ok((out.cycles, trace, Box::new(zfwst), p))
        }
        other => Err(format!("internal: unknown executor '{other}'")),
    }
}

/// Builds the full report: run the selected executors and attribute their
/// cycles. Their telemetry lands in the caller's scope, if any.
///
/// # Errors
///
/// Returns an error for an unknown `--arch`, a zero capacity, a failing
/// executor, or — the invariant this command exists to watch — an
/// attribution whose components do not sum to the engine's total cycles.
pub fn build_report(arch: Option<&str>, seed: u64, capacity: usize) -> Result<Report, String> {
    if capacity == 0 {
        return Err("--capacity must be non-zero".to_string());
    }
    let executors = selected_executors(arch)?;
    let mut rows = Vec::with_capacity(executors.len());
    for executor in executors {
        let (cycles, trace, arch, phase) = run_executor(executor, seed, capacity)?;
        let stats = arch.schedule(&phase);
        let attr = exec::attribute_cycles(&trace, cycles);
        if attr.total() != cycles {
            return Err(format!(
                "{executor}: cycle attribution {} does not sum to engine total {cycles}",
                attr.total()
            ));
        }
        for (component, c) in attr.components() {
            crate::telemetry::count(
                "report_cycles_total",
                &[("component", component), ("executor", executor)],
                c,
            );
        }
        let util_ppm = (stats.utilization() * 1e6) as u64;
        rows.push(ReportRow {
            executor: executor.to_string(),
            cycles,
            attr,
            util_ppm,
            effectual_macs: stats.effectual_macs,
            n_pes: stats.n_pes,
            operand_words: stats.access.total(),
            dram_bytes: stats.dram.total_bytes(),
            macs_per_kcycle: (stats.effectual_macs * 1000)
                .checked_div(stats.cycles)
                .unwrap_or(0),
            bound: if stats.utilization() >= 0.5 {
                "compute"
            } else {
                "feed"
            },
            trace,
        });
    }
    Ok(Report {
        seed,
        capacity,
        rows,
    })
}

impl Report {
    /// Renders the human-readable attribution table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "cycle attribution report: seed {}, trace capacity {}/executor\n\
             (engine cycles partition exactly: mac + dram + buffer + idle + untraced = total)\n\n",
            self.seed, self.capacity
        );
        out.push_str(&format!(
            "{:<14} {:>7} {:>6} {:>5} {:>7} {:>6} {:>5}  {:>8} {:>9} {:>6}  bound\n",
            "executor",
            "cycles",
            "mac",
            "dram",
            "buffer",
            "idle",
            "untr",
            "util_ppm",
            "macs/kcyc",
            "words",
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<14} {:>7} {:>6} {:>5} {:>7} {:>6} {:>5}  {:>8} {:>9} {:>6}  {}\n",
                r.executor,
                r.cycles,
                r.attr.mac_cycles,
                r.attr.dram_cycles,
                r.attr.buffer_cycles,
                r.attr.idle_cycles,
                r.attr.untraced_cycles,
                r.util_ppm,
                r.macs_per_kcycle,
                r.operand_words,
                r.bound,
            ));
        }
        out.push_str(&format!(
            "\n{} executors; roofline peak is n_pes×1000 macs/kcyc; \
             'feed' marks utilization below 50%\n",
            self.rows.len()
        ));
        out
    }

    /// Renders the byte-stable JSON document: the attribution rows (all
    /// integer fields, fixed key order) plus the canonical deterministic
    /// section of `reg`, the registry the report was built under. Two
    /// same-seed runs produce identical bytes.
    pub fn to_json(&self, reg: &Registry) -> String {
        let mut out = format!(
            "{{\"schema\":\"zfgan-report-v1\",\"seed\":{},\"capacity\":{},\"attribution\":[",
            self.seed, self.capacity
        );
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"executor\":\"{}\",\"cycles\":{},\"mac_cycles\":{},\"dram_cycles\":{},\
                 \"buffer_cycles\":{},\"idle_cycles\":{},\"untraced_cycles\":{},\
                 \"util_ppm\":{},\"effectual_macs\":{},\"n_pes\":{},\"operand_words\":{},\
                 \"dram_bytes\":{},\"macs_per_kcycle\":{},\"bound\":\"{}\"}}",
                r.executor,
                r.cycles,
                r.attr.mac_cycles,
                r.attr.dram_cycles,
                r.attr.buffer_cycles,
                r.attr.idle_cycles,
                r.attr.untraced_cycles,
                r.util_ppm,
                r.effectual_macs,
                r.n_pes,
                r.operand_words,
                r.dram_bytes,
                r.macs_per_kcycle,
                r.bound,
            ));
        }
        out.push_str("],\"deterministic\":");
        out.push_str(&export::deterministic_section(reg));
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// [`build_report`] under a registry of its own, returned beside it.
    fn scoped_report(arch: Option<&str>, seed: u64) -> (Report, Arc<Registry>) {
        let reg = Arc::new(Registry::new());
        let _guard = crate::telemetry::scope(Arc::clone(&reg));
        (build_report(arch, seed, DEFAULT_CAPACITY).unwrap(), reg)
    }

    #[test]
    fn all_nine_executors_partition_exactly() {
        let report = build_report(None, DEFAULT_SEED, DEFAULT_CAPACITY).unwrap();
        assert_eq!(report.rows.len(), 9);
        for r in &report.rows {
            assert_eq!(r.attr.total(), r.cycles, "{}", r.executor);
            assert_eq!(
                r.attr.untraced_cycles, 0,
                "{} evicted at default capacity",
                r.executor
            );
            // WST's trace models operand movement only (no Mac events), so
            // assert traced activity rather than MAC cycles specifically.
            assert!(
                r.attr.mac_cycles + r.attr.buffer_cycles > 0,
                "{} ran no traced cycles",
                r.executor
            );
        }
    }

    #[test]
    fn same_seed_reports_are_byte_identical() {
        let (a, reg_a) = scoped_report(None, 7);
        let (b, reg_b) = scoped_report(None, 7);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.to_json(&reg_a), b.to_json(&reg_b));
    }

    #[test]
    fn arch_filter_selects_the_family() {
        let report = build_report(Some("zfwst"), DEFAULT_SEED, DEFAULT_CAPACITY).unwrap();
        let names: Vec<&str> = report.rows.iter().map(|r| r.executor.as_str()).collect();
        assert_eq!(
            names,
            [
                "zfwst/s_conv",
                "zfwst/t_conv",
                "zfwst/wgrad_s",
                "zfwst/wgrad_t"
            ]
        );
        let one = build_report(Some("nlr"), DEFAULT_SEED, DEFAULT_CAPACITY).unwrap();
        assert_eq!(one.rows.len(), 1);
    }

    #[test]
    fn unknown_arch_and_zero_capacity_error() {
        let err = build_report(Some("systolic"), DEFAULT_SEED, DEFAULT_CAPACITY).unwrap_err();
        assert!(err.contains("--arch 'systolic' unknown"), "{err}");
        let err = build_report(None, DEFAULT_SEED, 0).unwrap_err();
        assert_eq!(err, "--capacity must be non-zero");
    }

    #[test]
    fn json_carries_the_deterministic_section_and_parses() {
        let (report, reg) = scoped_report(Some("zfost"), DEFAULT_SEED);
        let v: serde_json::Value = serde_json::from_str(&report.to_json(&reg)).unwrap();
        let obj = v.as_object().unwrap();
        assert!(obj.get("attribution").unwrap().as_array().is_some());
        // The report counters land in the deterministic section.
        let det = obj.get("deterministic").unwrap();
        assert!(det.as_object().is_some());
        assert!(det.to_string().contains("report_cycles_total"), "{det}");
    }

    #[test]
    fn tiny_capacity_reports_untraced_cycles_but_still_sums() {
        let report = build_report(None, DEFAULT_SEED, 32).unwrap();
        assert!(report.rows.iter().any(|r| r.attr.untraced_cycles > 0));
        for r in &report.rows {
            assert_eq!(r.attr.total(), r.cycles, "{}", r.executor);
        }
    }
}
