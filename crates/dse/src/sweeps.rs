//! The paper's five figure sweeps (figs. 15–19) as engine clients.
//!
//! Each sweep module owns its point list, canonical cell key, evaluator
//! and per-cell objective vector. The private `drive` turns a sweep into a
//! [`SweepRun`]: the input-order results the figure renderers consume,
//! plus the canonical JSONL stream — one line per unique cell in
//! sorted-key order, a `pareto_add` line whenever a cell joins the
//! incrementally maintained frontier, and the final frontier summary.
//!
//! The stream carries no hit/miss or timing information, so cold, warm
//! and corrupted-then-recomputed runs are byte-identical; that is the
//! invariant the CI gate byte-diffs.

use serde::{Deserialize, Serialize};
use zfgan_accel::{AccelConfig, Design, GanAccelerator, SyncPolicy};
use zfgan_dataflow::{ArchKind, Dataflow, PhaseTuned};
use zfgan_platforms::Platform;
use zfgan_sim::{ConvKind, ConvShape, EnergyModel, PhaseStats};
use zfgan_workloads::{GanSpec, PhaseSeq};

use crate::pareto::{Objectives, ParetoFrontier};
use crate::{json_escape, key_in_shard, run_batch, DseConfig};

/// The sweeps [`run_sweep`] knows, in figure order.
pub const SWEEP_NAMES: [&str; 5] = ["fig15", "fig16", "fig17", "fig18", "fig19"];

/// One driven sweep: input-order results plus the canonical stream.
#[derive(Debug)]
pub struct SweepRun<C> {
    /// One cell result per sweep point, in point order.
    pub results: Vec<C>,
    /// Canonical JSONL: per-cell lines (sorted by key), `pareto_add`
    /// admission lines, then the final frontier summary line.
    pub stream: String,
    /// Unique cells served.
    pub unique: usize,
    /// Input points folded away by dedup.
    pub duplicates: usize,
    /// Size of the final Pareto frontier.
    pub frontier_len: usize,
}

/// A type-erased [`SweepRun`] for callers that only consume the stream
/// (the `zfgan dse` CLI).
#[derive(Debug)]
pub struct SweepStream {
    /// Canonical JSONL stream (see [`SweepRun::stream`]).
    pub stream: String,
    /// Unique cells served.
    pub unique: usize,
    /// Input points folded away by dedup.
    pub duplicates: usize,
    /// Size of the final Pareto frontier.
    pub frontier_len: usize,
}

/// Runs one named sweep end to end and returns its canonical stream.
///
/// The sweep name becomes the cache namespace, so `cfg.namespace` is
/// ignored; every other knob (cache dir, salt, window, verify policy)
/// applies as given.
///
/// # Errors
///
/// Returns a message naming the valid sweeps when `name` is unknown.
pub fn run_sweep(name: &str, cfg: &DseConfig) -> Result<SweepStream, String> {
    fn erase<C>(run: SweepRun<C>) -> SweepStream {
        SweepStream {
            stream: run.stream,
            unique: run.unique,
            duplicates: run.duplicates,
            frontier_len: run.frontier_len,
        }
    }
    match name {
        "fig15" => Ok(erase(fig15::run(cfg))),
        "fig16" => Ok(erase(fig16::run(cfg))),
        "fig17" => Ok(erase(fig17::run(cfg))),
        "fig18" => Ok(erase(fig18::run(cfg))),
        "fig19" => Ok(erase(fig19::run(cfg))),
        other => Err(format!(
            "unknown sweep '{other}' (expected one of: {})",
            SWEEP_NAMES.join(", ")
        )),
    }
}

/// Computes and publishes one shard of a named sweep — the work-unit
/// protocol a child process runs. Returns the number of cells routed to
/// this shard.
///
/// # Errors
///
/// Returns a message naming the valid sweeps when `name` is unknown.
pub fn run_sweep_shard(
    name: &str,
    cfg: &DseConfig,
    index: usize,
    count: usize,
) -> Result<usize, String> {
    match name {
        "fig15" => Ok(fig15::shard(cfg, index, count)),
        "fig16" => Ok(fig16::shard(cfg, index, count)),
        "fig17" => Ok(fig17::shard(cfg, index, count)),
        "fig18" => Ok(fig18::shard(cfg, index, count)),
        "fig19" => Ok(fig19::shard(cfg, index, count)),
        other => Err(format!(
            "unknown sweep '{other}' (expected one of: {})",
            SWEEP_NAMES.join(", ")
        )),
    }
}

/// A copy of `cfg` with the namespace forced to the sweep's own name, so
/// two sweeps sharing one cache directory never read each other's cells.
fn named(cfg: &DseConfig, namespace: &str) -> DseConfig {
    let mut out = cfg.clone();
    out.namespace = namespace.to_string();
    out
}

/// Serves the batch and folds the cells into the canonical stream plus
/// the incremental Pareto frontier.
fn drive<P, C, K, F, O>(cfg: &DseConfig, points: &[P], key_of: K, eval: F, obj: O) -> SweepRun<C>
where
    P: Sync,
    C: Send + Sync + Serialize + Deserialize,
    K: Fn(&P) -> String,
    F: Fn(&P) -> C + Sync,
    O: Fn(&C) -> Objectives,
{
    let batch = run_batch(cfg, points, key_of, eval);
    let mut frontier = ParetoFrontier::new();
    let mut stream = String::new();
    for cell in &batch.cells {
        // Objectives derive from the reconstructed cell, so a cached cell
        // streams exactly what the cold computation streamed.
        let o = obj(&batch.results[cell.first]);
        stream.push_str("{\"cell\":");
        stream.push_str(&json_escape(&cell.key));
        stream.push_str(",\"objectives\":");
        stream.push_str(&o.to_json());
        stream.push_str(",\"result\":");
        stream.push_str(&cell.result_json);
        stream.push_str("}\n");
        if let Some(evicted) = frontier.insert(&cell.key, o) {
            let ev: Vec<String> = evicted.iter().map(|k| json_escape(k)).collect();
            stream.push_str("{\"pareto_add\":");
            stream.push_str(&json_escape(&cell.key));
            stream.push_str(",\"evicted\":[");
            stream.push_str(&ev.join(","));
            stream.push_str("]}\n");
        }
    }
    stream.push_str(&frontier.to_json());
    stream.push('\n');
    SweepRun {
        results: batch.results,
        stream,
        unique: batch.unique,
        duplicates: batch.duplicates,
        frontier_len: frontier.len(),
    }
}

/// Computes and publishes the cells of one shard: filters the point list
/// by key routing, then runs the filtered batch against the shared cache.
fn shard_batch<P, C, K, F>(
    cfg: &DseConfig,
    points: Vec<P>,
    key_of: K,
    eval: F,
    index: usize,
    count: usize,
) -> usize
where
    P: Sync,
    C: Send + Sync + Serialize + Deserialize,
    K: Fn(&P) -> String,
    F: Fn(&P) -> C + Sync,
{
    let mine: Vec<P> = points
        .into_iter()
        .filter(|p| key_in_shard(&key_of(p), index, count))
        .collect();
    let n = mine.len();
    let _ = run_batch(cfg, &mine, key_of, eval);
    n
}

/// The four computing-phase groups of figs. 15/16 with their PE budgets
/// (ST phases: 1200 PEs, W phases: 480 PEs).
const PHASE_GROUPS: [(&str, ConvKind, usize); 4] = [
    ("D (S-CONV)", ConvKind::S, 1200),
    ("G (T-CONV)", ConvKind::T, 1200),
    ("Dw (W-CONV)", ConvKind::WGradS, 480),
    ("Gw (W-CONV)", ConvKind::WGradT, 480),
];

/// Peak on-chip working set over a phase set: weights + real inputs +
/// outputs of the widest phase, two bytes per 16-bit element. This is the
/// buffer-capacity axis of the Pareto frontier.
fn working_set_bytes(phases: &[ConvShape]) -> u64 {
    phases
        .iter()
        .map(|p| (p.weight_count() + p.real_input_count() + p.output_count()) * 2)
        .max()
        .unwrap_or(0)
}

/// The tuned stats whose cycles are minimal across the five
/// architectures for one phase set — the configuration the cell's
/// objectives describe.
fn best_arch_stats(phases: &[ConvShape], budget: usize) -> PhaseStats {
    let mut best: Option<PhaseStats> = None;
    for arch in ArchKind::ALL {
        let stats = PhaseTuned::tune(arch, budget, phases).schedule_all(phases);
        let better = match best {
            Some(b) => stats.cycles < b.cycles,
            None => true,
        };
        if better {
            best = Some(stats);
        }
    }
    best.expect("at least one architecture")
}

/// Energy of one update on a design, mirroring `Design::evaluate`'s exact
/// tuning (including the Eq. 8 combo budget split). Energy is linear in
/// the event counts, so per-array breakdowns sum exactly.
fn design_energy_pj(design: &Design, spec: &GanSpec, seq: PhaseSeq, total_pes: usize) -> f64 {
    let model = EnergyModel::default();
    let st_phases = spec.st_phases(seq);
    let w_phases = spec.w_phases(seq);
    let (st_stats, w_stats) = match design {
        Design::Unique(arch) => {
            let all: Vec<ConvShape> = st_phases.iter().chain(&w_phases).copied().collect();
            let tuned = PhaseTuned::tune(*arch, total_pes, &all);
            (
                tuned.schedule_all(&st_phases),
                tuned.schedule_all(&w_phases),
            )
        }
        Design::Combo { st, w } => {
            let st_budget =
                ((total_pes as f64) * AccelConfig::ST_TO_W_RATIO / 3.5).round() as usize;
            let w_budget = total_pes - st_budget;
            (
                PhaseTuned::tune(*st, st_budget, &st_phases).schedule_all(&st_phases),
                PhaseTuned::tune(*w, w_budget, &w_phases).schedule_all(&w_phases),
            )
        }
    };
    model.phase_energy(&st_stats).total_pj() + model.phase_energy(&w_stats).total_pj()
}

/// Fig. 15 — per-architecture throughput on the four computing phases.
pub mod fig15 {
    use super::*;

    /// Cache namespace and CLI name of this sweep.
    pub const NAME: &str = "fig15";

    type Point = (GanSpec, &'static str, ConvKind, usize);

    /// One figure row: an architecture's throughput on one (GAN, phase
    /// group). Field order is the `results/fig15.json` byte layout.
    #[derive(Debug, Serialize, Deserialize)]
    pub struct Row {
        /// Workload name.
        pub gan: String,
        /// Phase-group label.
        pub phase: &'static str,
        /// Architecture name.
        pub arch: &'static str,
        /// Cycles of the tuned schedule.
        pub cycles: u64,
        /// Speedup over improved NLR at the same budget.
        pub speedup_vs_nlr: f64,
        /// PE utilization (paper Eq. 5).
        pub utilization: f64,
    }

    /// One cell: every architecture on one (GAN, phase group), plus the
    /// best configuration's objective vector.
    #[derive(Debug, Serialize, Deserialize)]
    pub struct Cell {
        /// Per-architecture rows, in `ArchKind::ALL` order.
        pub rows: Vec<Row>,
        /// Cycles of the fastest architecture.
        pub cycles: u64,
        /// Energy of that configuration, picojoules.
        pub energy_pj: f64,
        /// Peak working-set buffer capacity, bytes.
        pub buffer_bytes: u64,
    }

    fn points() -> Vec<Point> {
        let mut points = Vec::new();
        for spec in GanSpec::all_paper_gans() {
            for (label, kind, budget) in PHASE_GROUPS {
                points.push((spec.clone(), label, kind, budget));
            }
        }
        points
    }

    fn key(p: &Point) -> String {
        let (spec, label, _, budget) = p;
        format!("{}|{label}|{budget}", spec.name())
    }

    fn eval(p: &Point) -> Cell {
        let (spec, label, kind, budget) = p;
        let phases: Vec<ConvShape> = spec.phase_set(*kind);
        let nlr_cycles = PhaseTuned::tune(ArchKind::Nlr, *budget, &phases)
            .schedule_all(&phases)
            .cycles;
        let rows = ArchKind::ALL
            .into_iter()
            .map(|arch| {
                let stats = PhaseTuned::tune(arch, *budget, &phases).schedule_all(&phases);
                Row {
                    gan: spec.name().to_string(),
                    phase: label,
                    arch: arch.name(),
                    cycles: stats.cycles,
                    speedup_vs_nlr: nlr_cycles as f64 / stats.cycles as f64,
                    utilization: stats.utilization(),
                }
            })
            .collect();
        let best = best_arch_stats(&phases, *budget);
        Cell {
            rows,
            cycles: best.cycles,
            energy_pj: EnergyModel::default().phase_energy(&best).total_pj(),
            buffer_bytes: working_set_bytes(&phases),
        }
    }

    fn obj(c: &Cell) -> Objectives {
        Objectives {
            cycles: c.cycles,
            energy_pj: c.energy_pj,
            buffer_bytes: c.buffer_bytes,
        }
    }

    /// Runs the sweep through the engine.
    pub fn run(cfg: &DseConfig) -> SweepRun<Cell> {
        drive(&named(cfg, NAME), &points(), key, eval, obj)
    }

    /// The figure's rows, flattened in point order.
    pub fn rows(cfg: &DseConfig) -> Vec<Row> {
        run(cfg).results.into_iter().flat_map(|c| c.rows).collect()
    }

    /// Computes and publishes this shard's cells (work-unit protocol).
    pub fn shard(cfg: &DseConfig, index: usize, count: usize) -> usize {
        shard_batch::<_, Cell, _, _>(&named(cfg, NAME), points(), key, eval, index, count)
    }
}

/// Fig. 16 — DCGAN on-chip data-access breakdown.
pub mod fig16 {
    use super::*;

    /// Cache namespace and CLI name of this sweep.
    pub const NAME: &str = "fig16";

    type Point = (&'static str, ConvKind, usize);

    /// One figure row: an architecture's buffer-access breakdown on one
    /// phase group. Field order is the `results/fig16.json` byte layout.
    #[derive(Debug, Serialize, Deserialize)]
    pub struct Row {
        /// Phase-group label.
        pub phase: &'static str,
        /// Architecture name.
        pub arch: &'static str,
        /// Kernel-weight buffer reads.
        pub weight_reads: u64,
        /// Input-neuron buffer reads.
        pub input_reads: u64,
        /// Output reads plus writes.
        pub output_rw: u64,
        /// All on-chip accesses.
        pub total: u64,
    }

    /// One cell: every architecture on one DCGAN phase group.
    #[derive(Debug, Serialize, Deserialize)]
    pub struct Cell {
        /// Per-architecture rows, in `ArchKind::ALL` order.
        pub rows: Vec<Row>,
        /// Cycles of the fastest architecture.
        pub cycles: u64,
        /// Energy of that configuration, picojoules.
        pub energy_pj: f64,
        /// Peak working-set buffer capacity, bytes.
        pub buffer_bytes: u64,
    }

    fn points() -> Vec<Point> {
        PHASE_GROUPS.to_vec()
    }

    fn key(p: &Point) -> String {
        let (label, _, budget) = p;
        format!("{label}|{budget}")
    }

    fn eval(p: &Point) -> Cell {
        let (label, kind, budget) = p;
        let spec = GanSpec::dcgan();
        let phases = spec.phase_set(*kind);
        let rows = ArchKind::ALL
            .into_iter()
            .map(|arch| {
                let s = PhaseTuned::tune(arch, *budget, &phases).schedule_all(&phases);
                Row {
                    phase: label,
                    arch: arch.name(),
                    weight_reads: s.access.weight_reads,
                    input_reads: s.access.input_reads,
                    output_rw: s.access.output_reads + s.access.output_writes,
                    total: s.access.total(),
                }
            })
            .collect();
        let best = best_arch_stats(&phases, *budget);
        Cell {
            rows,
            cycles: best.cycles,
            energy_pj: EnergyModel::default().phase_energy(&best).total_pj(),
            buffer_bytes: working_set_bytes(&phases),
        }
    }

    fn obj(c: &Cell) -> Objectives {
        Objectives {
            cycles: c.cycles,
            energy_pj: c.energy_pj,
            buffer_bytes: c.buffer_bytes,
        }
    }

    /// Runs the sweep through the engine.
    pub fn run(cfg: &DseConfig) -> SweepRun<Cell> {
        drive(&named(cfg, NAME), &points(), key, eval, obj)
    }

    /// The figure's rows, flattened in point order.
    pub fn rows(cfg: &DseConfig) -> Vec<Row> {
        run(cfg).results.into_iter().flat_map(|c| c.rows).collect()
    }

    /// Computes and publishes this shard's cells (work-unit protocol).
    pub fn shard(cfg: &DseConfig, index: usize, count: usize) -> usize {
        shard_batch::<_, Cell, _, _>(&named(cfg, NAME), points(), key, eval, index, count)
    }
}

/// Fig. 17 — the five designs on D and G updates at 1680 PEs.
pub mod fig17 {
    use super::*;

    /// Cache namespace and CLI name of this sweep.
    pub const NAME: &str = "fig17";

    /// The figure's PE budget.
    pub const PES: usize = 1680;

    type Point = (GanSpec, &'static str, PhaseSeq);

    /// One figure row: a (design, policy) on one (GAN, update). Field
    /// order is the `results/fig17.json` byte layout.
    #[derive(Debug, Serialize, Deserialize)]
    pub struct Row {
        /// Workload name.
        pub gan: String,
        /// Update pass label (`D` or `G`).
        pub update: &'static str,
        /// Design name.
        pub design: String,
        /// Synchronization policy label.
        pub policy: &'static str,
        /// Total cycles per sample for this update.
        pub cycles: u64,
        /// Speedup over unique OST under synchronization.
        pub speedup_vs_ost_sync: f64,
    }

    /// One cell: every (design, policy) on one (GAN, update), plus the
    /// winning design's objective vector.
    #[derive(Debug, Serialize, Deserialize)]
    pub struct Cell {
        /// Rows in `Design::paper_designs()` × (sync, deferred) order.
        pub rows: Vec<Row>,
        /// Cycles of the fastest (design, policy).
        pub cycles: u64,
        /// Energy of that design's update, picojoules.
        pub energy_pj: f64,
        /// Deferred-update buffer capacity of the workload, bytes.
        pub buffer_bytes: u64,
    }

    fn points() -> Vec<Point> {
        let mut points = Vec::new();
        for spec in GanSpec::all_paper_gans() {
            for (update, seq) in [("D", PhaseSeq::DisUpdate), ("G", PhaseSeq::GenUpdate)] {
                points.push((spec.clone(), update, seq));
            }
        }
        points
    }

    fn key(p: &Point) -> String {
        let (spec, update, _) = p;
        format!("{}|{update}|{PES}", spec.name())
    }

    fn eval(p: &Point) -> Cell {
        let (spec, update, seq) = p;
        let baseline = Design::paper_designs()[0]
            .evaluate(spec, *seq, SyncPolicy::Synchronized, PES)
            .total_cycles;
        let mut rows = Vec::new();
        let mut best: Option<(u64, Design)> = None;
        for design in Design::paper_designs() {
            for (pname, policy) in [
                ("sync", SyncPolicy::Synchronized),
                ("deferred", SyncPolicy::Deferred),
            ] {
                let r = design.evaluate(spec, *seq, policy, PES);
                let better = match best {
                    Some((c, _)) => r.total_cycles < c,
                    None => true,
                };
                if better {
                    best = Some((r.total_cycles, design));
                }
                rows.push(Row {
                    gan: spec.name().to_string(),
                    update,
                    design: design.name(),
                    policy: pname,
                    cycles: r.total_cycles,
                    speedup_vs_ost_sync: baseline as f64 / r.total_cycles as f64,
                });
            }
        }
        let (cycles, winner) = best.expect("at least one design");
        Cell {
            rows,
            cycles,
            energy_pj: design_energy_pj(&winner, spec, *seq, PES),
            buffer_bytes: spec.deferred_buffer_bytes(2),
        }
    }

    fn obj(c: &Cell) -> Objectives {
        Objectives {
            cycles: c.cycles,
            energy_pj: c.energy_pj,
            buffer_bytes: c.buffer_bytes,
        }
    }

    /// Runs the sweep through the engine.
    pub fn run(cfg: &DseConfig) -> SweepRun<Cell> {
        drive(&named(cfg, NAME), &points(), key, eval, obj)
    }

    /// The figure's rows, flattened in point order.
    pub fn rows(cfg: &DseConfig) -> Vec<Row> {
        run(cfg).results.into_iter().flat_map(|c| c.rows).collect()
    }

    /// Computes and publishes this shard's cells (work-unit protocol).
    pub fn shard(cfg: &DseConfig, index: usize, count: usize) -> usize {
        shard_batch::<_, Cell, _, _>(&named(cfg, NAME), points(), key, eval, index, count)
    }
}

/// Fig. 18 — the top three designs across the 512 → 2048 PE sweep.
pub mod fig18 {
    use super::*;

    /// Cache namespace and CLI name of this sweep.
    pub const NAME: &str = "fig18";

    /// The swept PE counts.
    pub const PE_SWEEP: [usize; 4] = [512, 1024, 1680, 2048];

    type Point = (Design, usize);

    /// One figure row: a design's full-iteration cycles at one PE count.
    /// Field order is the `results/fig18.json` byte layout.
    #[derive(Debug, Serialize, Deserialize)]
    pub struct Row {
        /// Design name.
        pub design: String,
        /// PE budget.
        pub pes: usize,
        /// Cycles per training sample (D + G update, deferred).
        pub cycles_per_sample: u64,
        /// Throughput relative to NLR-OST at 512 PEs.
        pub perf_vs_512_nlr_ost: f64,
    }

    /// One cell: a single (design, PE count) evaluation.
    #[derive(Debug, Serialize, Deserialize)]
    pub struct Cell {
        /// The figure row.
        pub row: Row,
        /// Cycles per training sample.
        pub cycles: u64,
        /// Energy of one training iteration, picojoules.
        pub energy_pj: f64,
        /// Deferred-update buffer capacity of DCGAN, bytes.
        pub buffer_bytes: u64,
    }

    /// The compared designs, in figure order.
    pub fn designs() -> [Design; 3] {
        [
            Design::Combo {
                st: ArchKind::Nlr,
                w: ArchKind::Ost,
            },
            Design::Unique(ArchKind::Zfost),
            Design::Combo {
                st: ArchKind::Zfost,
                w: ArchKind::Zfwst,
            },
        ]
    }

    fn points() -> Vec<Point> {
        let mut points = Vec::new();
        for design in designs() {
            for pes in PE_SWEEP {
                points.push((design, pes));
            }
        }
        points
    }

    fn key(p: &Point) -> String {
        let (design, pes) = p;
        format!("{}|{pes}", design.name())
    }

    fn eval(p: &Point) -> Cell {
        let (design, pes) = p;
        let spec = GanSpec::dcgan();
        // The baseline is part of the cell so cells are self-contained
        // (tuning is memoized process-wide; this re-derivation is cheap).
        let baseline = designs()[0].iteration_cycles(&spec, SyncPolicy::Deferred, PE_SWEEP[0]);
        let cycles = design.iteration_cycles(&spec, SyncPolicy::Deferred, *pes);
        let energy_pj = design_energy_pj(design, &spec, PhaseSeq::DisUpdate, *pes)
            + design_energy_pj(design, &spec, PhaseSeq::GenUpdate, *pes);
        Cell {
            row: Row {
                design: design.name(),
                pes: *pes,
                cycles_per_sample: cycles,
                perf_vs_512_nlr_ost: baseline as f64 / cycles as f64,
            },
            cycles,
            energy_pj,
            buffer_bytes: spec.deferred_buffer_bytes(2),
        }
    }

    fn obj(c: &Cell) -> Objectives {
        Objectives {
            cycles: c.cycles,
            energy_pj: c.energy_pj,
            buffer_bytes: c.buffer_bytes,
        }
    }

    /// Runs the sweep through the engine.
    pub fn run(cfg: &DseConfig) -> SweepRun<Cell> {
        drive(&named(cfg, NAME), &points(), key, eval, obj)
    }

    /// The figure's rows, in point order.
    pub fn rows(cfg: &DseConfig) -> Vec<Row> {
        run(cfg).results.into_iter().map(|c| c.row).collect()
    }

    /// Computes and publishes this shard's cells (work-unit protocol).
    pub fn shard(cfg: &DseConfig, index: usize, count: usize) -> usize {
        shard_batch::<_, Cell, _, _>(&named(cfg, NAME), points(), key, eval, index, count)
    }
}

/// Fig. 19 — accelerator vs CPU/GPU platforms on full training iterations.
pub mod fig19 {
    use super::*;

    /// Cache namespace and CLI name of this sweep.
    pub const NAME: &str = "fig19";

    type Point = GanSpec;

    /// One figure row: a platform's throughput and efficiency on one GAN.
    /// Field order is the `results/fig19.json` byte layout.
    #[derive(Debug, Serialize, Deserialize)]
    pub struct Row {
        /// Workload name.
        pub gan: String,
        /// Platform name.
        pub platform: String,
        /// Throughput in GOPS.
        pub gops: f64,
        /// Power in watts.
        pub watts: f64,
        /// Energy efficiency in GOPS per watt.
        pub gops_per_watt: f64,
    }

    /// One cell: our accelerator plus every analytical platform on one
    /// GAN, with the accelerator's objective vector.
    #[derive(Debug, Serialize, Deserialize)]
    pub struct Cell {
        /// FPGA row first, then the paper platforms in their order.
        pub rows: Vec<Row>,
        /// Accelerator cycles per training sample.
        pub cycles: u64,
        /// Accelerator energy per operation, picojoules.
        pub energy_pj: f64,
        /// Deferred-update buffer capacity of the workload, bytes.
        pub buffer_bytes: u64,
    }

    fn points() -> Vec<Point> {
        GanSpec::all_paper_gans()
    }

    fn key(p: &Point) -> String {
        p.name().to_string()
    }

    fn eval(spec: &Point) -> Cell {
        let phases = spec.iteration_phases();
        let mut rows = Vec::new();
        let accel = GanAccelerator::new(AccelConfig::vcu118(), spec.clone());
        let r = accel.iteration_report(64);
        rows.push(Row {
            gan: spec.name().to_string(),
            platform: "FPGA (ours)".to_string(),
            gops: r.gops,
            watts: r.watts,
            gops_per_watt: r.gops_per_watt,
        });
        for p in Platform::all_paper_platforms() {
            let pr = p.run(&phases);
            rows.push(Row {
                gan: spec.name().to_string(),
                platform: p.name().to_string(),
                gops: pr.gops,
                watts: p.power_watts(),
                gops_per_watt: pr.gops_per_watt,
            });
        }
        Cell {
            rows,
            cycles: accel.iteration_cycles_per_sample(),
            // W / GOPS = J per 10⁹ ops → 10³ pJ per op.
            energy_pj: r.watts / r.gops * 1000.0,
            buffer_bytes: spec.deferred_buffer_bytes(2),
        }
    }

    fn obj(c: &Cell) -> Objectives {
        Objectives {
            cycles: c.cycles,
            energy_pj: c.energy_pj,
            buffer_bytes: c.buffer_bytes,
        }
    }

    /// Runs the sweep through the engine.
    pub fn run(cfg: &DseConfig) -> SweepRun<Cell> {
        drive(&named(cfg, NAME), &points(), key, eval, obj)
    }

    /// The figure's rows, flattened in point order.
    pub fn rows(cfg: &DseConfig) -> Vec<Row> {
        run(cfg).results.into_iter().flat_map(|c| c.rows).collect()
    }

    /// Computes and publishes this shard's cells (work-unit protocol).
    pub fn shard(cfg: &DseConfig, index: usize, count: usize) -> usize {
        shard_batch::<_, Cell, _, _>(&named(cfg, NAME), points(), key, eval, index, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_sweep_rejects_unknown_names() {
        let err = run_sweep("fig99", &DseConfig::new("x")).unwrap_err();
        assert!(err.contains("fig15"), "{err}");
        let err = run_sweep_shard("nope", &DseConfig::new("x"), 0, 2).unwrap_err();
        assert!(err.contains("fig19"), "{err}");
    }

    #[test]
    fn fig16_stream_is_canonical_and_repeatable() {
        let cfg = DseConfig::new("ignored");
        let a = fig16::run(&cfg);
        let b = fig16::run(&cfg);
        assert_eq!(a.stream, b.stream);
        assert_eq!(a.unique, 4);
        assert_eq!(a.duplicates, 0);
        assert!(a.frontier_len >= 1);
        let last = a.stream.lines().last().unwrap();
        assert!(last.starts_with("{\"pareto\":["), "{last}");
        // Per-cell lines come in sorted-key order.
        let cells: Vec<&str> = a
            .stream
            .lines()
            .filter(|l| l.starts_with("{\"cell\":"))
            .collect();
        assert_eq!(cells.len(), 4);
        let mut sorted = cells.clone();
        sorted.sort();
        assert_eq!(cells, sorted);
    }

    #[test]
    fn fig18_rows_match_direct_evaluation() {
        let rows = fig18::rows(&DseConfig::new("ignored"));
        assert_eq!(rows.len(), 12);
        let spec = GanSpec::dcgan();
        let direct = fig18::designs()[1].iteration_cycles(&spec, SyncPolicy::Deferred, 1024);
        let row = rows
            .iter()
            .find(|r| r.design == "ZFOST" && r.pes == 1024)
            .expect("present");
        assert_eq!(row.cycles_per_sample, direct);
    }
}
