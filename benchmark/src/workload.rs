//! One workload, one process: the closed loop that times ops, the traced
//! run that replays the layers, and the report both print. Everything
//! here goes through the [`Workload`] trait; `adapter.rs` implements it
//! on the product.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::reference::{self, Reference, REFERENCE_QUIET_MS};
use crate::stats::{self, Better};
use crate::sys;
use crate::trace::Tracer;

/// A metric the benchmark reports: its name, unit and good direction.
/// `BENCHMARK.json` repeats these with the regression bounds; a test
/// keeps the two in step.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees; printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    lower("op_quiet_ms", "ms"),
    higher("units_per_s", "1/s"),
    lower("allocs_plus1_per_op", "count"),
    lower("peak_rss_mb", "MiB"),
    lower("setup_s", "s"),
];

/// What the traced run prints. A time whose name ends in `_ms`, `.ms` or
/// `_us` is the p10 of the spans named by the rest of the name, unless
/// the workload reports the value itself. A metric of a layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    higher("run.ops", "count"),
    lower("run.op_p50_ms", "ms"),
    lower("run.op_p90_ms", "ms"),
    lower("run.op_max_ms", "ms"),
    lower("run.cpu_ms_per_op", "ms"),
    higher("run.cores_busy", "ratio"),
    lower("run.trace_overhead_share", "ratio"),
    lower("run.unattributed_share", "ratio"),
    lower("nn.trainer.dis_step_ms", "ms"),
    lower("nn.trainer.gen_step_ms", "ms"),
    lower("nn.trainer.sample_ms", "ms"),
    lower("nn.network.gen_forward_ms", "ms"),
    lower("nn.network.dis_forward_ms", "ms"),
    lower("nn.network.gen_backward_ms", "ms"),
    lower("nn.network.dis_backward_ms", "ms"),
    lower("nn.optimizer.step_ms", "ms"),
    lower("nn.optimizer.ns_per_param", "ns/param"),
    lower("tensor.backend.s_conv_ms", "ms"),
    lower("tensor.backend.t_conv_ms", "ms"),
    lower("tensor.backend.s_input_grad_ms", "ms"),
    lower("tensor.backend.t_input_grad_ms", "ms"),
    lower("tensor.backend.w_conv_s_ms", "ms"),
    lower("tensor.backend.w_conv_t_ms", "ms"),
    lower("tensor.backend.ns_per_mac", "ns/MAC"),
    lower("tensor.gemm.ns_per_mac", "ns/MAC"),
    higher("tensor.gemm.gflops", "GFLOP/s"),
    lower("tensor.gemm.calls_per_op", "count"),
    lower("tensor.gemm.dispatch_packed_per_op", "count"),
    lower("tensor.gemm.dispatch_ikj_per_op", "count"),
    lower("tensor.gemm.dispatch_smallm_per_op", "count"),
    lower("tensor.gemm.operand_words_per_op", "count"),
    higher("tensor.gemm.zero_skipped_words_per_op", "count"),
    lower("tensor.lowering.fill_ms", "ms"),
    lower("tensor.lowering.bytes_per_op", "B"),
    lower("tensor.workspace.free_elems", "count"),
    lower("dse.run_batch_ms", "ms"),
    higher("dse.cells_per_op", "count"),
    higher("dse.cache_hits_per_op", "count"),
    lower("dse.cache_misses_per_op", "count"),
    lower("dse.published_per_op", "count"),
    lower("dse.pareto.insert_us", "us"),
    lower("dse.sweeps.stream_bytes_per_op", "B"),
    lower("accel.design.evaluate_ms", "ms"),
    lower("dataflow.unroll.search_ms", "ms"),
    lower("dataflow.unroll.searches_per_op", "count"),
    lower("dataflow.schedule.schedule_all_us", "us"),
    lower("store.publish_ms", "ms"),
    lower("store.publish_p90_ms", "ms"),
    lower("store.publish_bytes", "B"),
    lower("store.load_ms", "ms"),
    lower("serde_json.to_string_ns_per_byte", "ns/B"),
    lower("serde_json.from_str_ns_per_byte", "ns/B"),
    lower("pool.parallel_map.empty_task_us", "us"),
    higher("pool.parallel_map.efficiency", "ratio"),
    lower("telemetry.deterministic_section_us", "us"),
    lower("dataflow.exec.nlr_s.ms", "ms"),
    lower("dataflow.exec.wst_s.ms", "ms"),
    lower("dataflow.exec.ost_t.ms", "ms"),
    lower("dataflow.exec.zfost_s.ms", "ms"),
    lower("dataflow.exec.zfost_t.ms", "ms"),
    lower("dataflow.exec.zfwst_s.ms", "ms"),
    lower("dataflow.exec.zfwst_t.ms", "ms"),
    lower("dataflow.exec.wgrad_s.ms", "ms"),
    lower("dataflow.exec.wgrad_t.ms", "ms"),
    higher("dataflow.exec.nlr_s.x_vs_scalar", "ratio"),
    higher("dataflow.exec.wst_s.x_vs_scalar", "ratio"),
    higher("dataflow.exec.ost_t.x_vs_scalar", "ratio"),
    higher("dataflow.exec.zfost_s.x_vs_scalar", "ratio"),
    higher("dataflow.exec.zfost_t.x_vs_scalar", "ratio"),
    higher("dataflow.exec.zfwst_s.x_vs_scalar", "ratio"),
    higher("dataflow.exec.zfwst_t.x_vs_scalar", "ratio"),
    higher("dataflow.exec.wgrad_s.x_vs_scalar", "ratio"),
    higher("dataflow.exec.wgrad_t.x_vs_scalar", "ratio"),
    lower("dataflow.exec.sim_cycles_per_op", "count"),
    higher("dataflow.exec.sim_macs_per_op", "count"),
    lower("dataflow.exec.traced_overhead_share", "ratio"),
    lower("dataflow.exec.attribute_cycles_us", "us"),
    lower("sim.trace.events_per_op", "count"),
];

/// What a workload's layer replay hands back beside its spans.
#[derive(Debug, Default)]
pub struct Layers {
    /// Counts, ratios and derived rates, by `PER_LAYER` name.
    pub values: BTreeMap<&'static str, f64>,
    /// `(span name, calls per op)`: the replayed layers that make up one
    /// op. Their p10s, weighted by the calls, are the attributed part of
    /// `op_quiet_ms`; the rest is `run.unattributed_share`.
    pub attribution: Vec<(&'static str, f64)>,
}

/// One of the five workloads, set up and ready for its first timed op.
pub trait Workload {
    /// Workload units one op processes: training samples, DSE cells or
    /// simulated effectual MACs.
    fn units_per_op(&self) -> f64;

    /// Ops the closed loop must reach before it may stop. Allocations and
    /// peak RSS are read after exactly this many, the digest after a
    /// quarter of it, so neither depends on how long the loop ran.
    fn min_ops(&self) -> usize;

    /// Ops after which the workload has no fresh input left.
    fn max_ops(&self) -> usize {
        usize::MAX
    }

    /// The timed operation.
    fn op(&mut self) -> Result<(), String>;

    /// The same operation with a span around each call into the product.
    fn op_traced(&mut self, t: &mut Tracer) -> Result<(), String>;

    /// Checks the output of the op that just ran against the oracle.
    /// Untimed.
    fn check(&mut self, i: usize) -> Result<(), String>;

    /// Digest of the simulated statistics of the ops checked so far.
    fn digest(&mut self) -> u64;

    /// Times calls into each layer's public functions on this workload's
    /// shapes, for about `slice`.
    fn replay(&mut self, t: &mut Tracer, slice: Duration) -> Layers;
}

/// Result of setting a workload up.
pub struct Setup {
    pub workload: Box<dyn Workload>,
    /// Seconds of the set-up spent in oracle checks; not part of `setup_s`.
    pub check_s: f64,
}

/// One workload run's arguments.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// What one workload process measured.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(MetricDef, f64)>,
    pub sim_digest: u64,
    /// Diagnostics printed beside the metrics of an untraced run.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The last line of a run: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(def, v)| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    def.name,
                    json_number(*v),
                    def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A finite number with all its digits; anything else reads 0 so the
/// line stays valid JSON (and fails the run's own sanity check).
pub fn json_number(v: f64) -> String {
    if v.is_finite() && v != 0.0 {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The reference kernel is timed again once the ops since its last
/// reading have taken this long: after every op of a long workload, after
/// a dozen of a short one, so that the reading never costs a short
/// workload more than a tenth of its time or lets its pool go cold
/// between ops.
const REFERENCE_EVERY_MS: f64 = 50.0;

/// Runs `op` once, turning a panic into a failed op.
fn guarded(f: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "op panicked".to_string())),
    }
}

struct LoopStats {
    times_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl LoopStats {
    fn new() -> Self {
        LoopStats {
            times_ms: Vec::with_capacity(1 << 14),
            attempted: 0,
            failed: 0,
            first_failure: None,
        }
    }

    fn record(&mut self, ms: f64, result: Result<(), String>) {
        self.attempted += 1;
        self.times_ms.push(ms);
        if let Err(why) = result {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }
}

/// The untraced closed loop: one client, ops back to back for `seconds`
/// (and at least `min_ops`), tracing and telemetry off, the reference
/// kernel timed between every two ops.
pub fn run_untraced(mut setup: Setup, setup_samples: Vec<f64>, args: &RunArgs) -> Outcome {
    let w = setup.workload.as_mut();
    let min_ops = scaled(w.min_ops(), args.smoke);
    let digest_ops = (min_ops / 4).max(1);
    let mut stats = LoopStats::new();
    let mut op_allocs = 0u64;
    let mut rss = None;
    let mut digest = 0u64;

    let mut reference = Reference::new();
    // The first reading also pages the kernel in.
    reference.time_ms();
    let cpu0 = sys::process_cpu_s();
    let sched0 = sys::main_thread_schedstat();
    let started = Instant::now();
    let mut busy = Duration::ZERO;
    let mut ref_ms = vec![reference.time_ms()];
    // Mean op time of each stretch of ops between two reference readings.
    let mut stretch_ms: Vec<f64> = Vec::new();
    let (mut stretch_sum, mut stretch_ops) = (0.0, 0usize);
    for i in 0..w.max_ops() {
        if i >= min_ops && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let allocs0 = sys::allocs();
        let t = Instant::now();
        let mut result = guarded(|| w.op());
        let dt = t.elapsed();
        let allocs1 = sys::allocs();
        busy += dt;
        if i < min_ops {
            op_allocs += allocs1 - allocs0;
        }
        if result.is_ok() {
            result = guarded(|| w.check(i));
        }
        stats.record(dt.as_secs_f64() * 1e3, result);
        if i + 1 == digest_ops {
            digest = w.digest();
        }
        if i + 1 == min_ops {
            rss = sys::peak_rss_mib();
        }
        stretch_sum += dt.as_secs_f64() * 1e3;
        stretch_ops += 1;
        if stretch_sum >= REFERENCE_EVERY_MS {
            stretch_ms.push(stretch_sum / stretch_ops as f64);
            (stretch_sum, stretch_ops) = (0.0, 0);
            ref_ms.push(reference.time_ms());
        }
    }
    if stretch_ops > 0 {
        stretch_ms.push(stretch_sum / stretch_ops as f64);
        ref_ms.push(reference.time_ms());
    }
    let wall = started.elapsed().as_secs_f64();
    let cpu = sys::process_cpu_s().zip(cpu0).map(|(a, b)| a - b);
    let sched = sys::main_thread_schedstat().zip(sched0);

    let counted_ops = stats.times_ms.len().min(min_ops).max(1);
    // Each op's time in units of the reference kernel's time around it,
    // the median of those, and back to milliseconds of a quiet host.
    let op_quiet_ms = REFERENCE_QUIET_MS * stats::median(&reference::ratios(&stretch_ms, &ref_ms));
    let values = [
        op_quiet_ms,
        stats::units_per_s(w.units_per_op(), op_quiet_ms),
        1.0 + op_allocs as f64 / counted_ops as f64,
        rss.unwrap_or(0.0),
        stats::median(&setup_samples),
    ];
    let sorted = stats::sorted(&stats.times_ms);
    let or_null = |v: Option<f64>| v.map_or("null".to_string(), |v| format!("{v:.4}"));
    // The low decile of each fifth of the run: drift within the run shows
    // as a trend here.
    let by_fifth: Vec<f64> = stats
        .times_ms
        .chunks(stats.times_ms.len().div_ceil(5))
        .map(stats::p10)
        .collect();
    let mut notes: Vec<(String, String)> = [
        ("run.ops", format!("{}", stats.attempted)),
        (
            "run.op_p50_ms",
            format!("{:.4}", stats::percentile(&sorted, 0.5)),
        ),
        (
            "run.op_p90_ms",
            format!("{:.4}", stats::percentile(&sorted, 0.9)),
        ),
        ("run.op_max_ms", format!("{:.4}", sorted[sorted.len() - 1])),
        (
            "run.op_p10_ms",
            format!("{:.4}", stats::percentile(&sorted, 0.1)),
        ),
        (
            "run.reference_p10_p50_ms",
            format!("{:.4} {:.4}", stats::p10(&ref_ms), stats::median(&ref_ms)),
        ),
        ("run.op_quiet_by_fifth_ms", format!("{by_fifth:.4?}")),
        (
            "run.op_busy_share",
            format!("{:.4}", busy.as_secs_f64() / wall),
        ),
        (
            "run.cpu_ms_per_op",
            or_null(cpu.map(|c| c * 1e3 / stats.attempted as f64)),
        ),
        ("run.cores_busy", or_null(cpu.map(|c| c / wall))),
        (
            "run.runqueue_wait_share",
            or_null(sched.map(|((_, w1), (_, w0))| (w1 - w0) as f64 / 1e9 / wall)),
        ),
        ("run.setup_samples_s", format!("{setup_samples:.4?}")),
        ("run.setup_check_s", format!("{:.4}", setup.check_s)),
        (
            "run.counted_ops",
            format!("{counted_ops} (allocations, RSS), {digest_ops} (digest)"),
        ),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect();
    if let Some(why) = &stats.first_failure {
        notes.push(("run.first_failure".to_string(), why.clone()));
    }
    Outcome {
        attempted: stats.attempted,
        failed: stats.failed,
        metrics: END_TO_END.iter().copied().zip(values).collect(),
        sim_digest: digest,
        notes,
    }
}

/// The traced run. A quarter of the time goes to ops, alternately plain
/// and spanned so that the tracing overhead is read within one process;
/// the rest to the layer replay. Returns the outcome and the tracer, whose
/// spans the caller writes out.
pub fn run_traced(mut setup: Setup, args: &RunArgs) -> (Outcome, Tracer) {
    let w = setup.workload.as_mut();
    let digest_ops = (scaled(w.min_ops(), args.smoke) / 4).max(1);
    // Both kinds of op must be sampled often enough for a p10.
    let min_ops = digest_ops.max(if args.smoke { 2 } else { 8 });
    let mut tracer = Tracer::new();
    let mut stats = LoopStats::new();
    let (mut plain_ms, mut spanned_ms) = (Vec::new(), Vec::new());
    let mut digest = 0u64;

    let cpu0 = sys::process_cpu_s();
    let started = Instant::now();
    for i in 0..w.max_ops() {
        if i >= min_ops && started.elapsed().as_secs_f64() >= args.seconds / 4.0 {
            break;
        }
        let spanned = i % 2 == 1;
        tracer.set_op(i as u64);
        let t = Instant::now();
        let mut result = if spanned {
            let id = tracer.enter("op");
            let r = guarded(|| w.op_traced(&mut tracer));
            tracer.exit(id);
            r
        } else {
            guarded(|| w.op())
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if spanned {
            spanned_ms.push(ms);
        } else {
            plain_ms.push(ms);
        }
        if result.is_ok() {
            result = guarded(|| w.check(i));
        }
        stats.record(ms, result);
        if i + 1 == digest_ops {
            digest = w.digest();
        }
    }
    let wall = started.elapsed().as_secs_f64();
    let cpu = sys::process_cpu_s().zip(cpu0).map(|(a, b)| a - b);

    tracer.set_op(u64::MAX);
    let slice = Duration::from_secs_f64(args.seconds * 0.75);
    let replay_id = tracer.enter("replay");
    let layers = w.replay(&mut tracer, slice);
    tracer.exit(replay_id);

    let span_p10 = |name: &str| tracer.p10_ms(name);
    let op_quiet_ms = stats::p10(&plain_ms);
    let attributed_ms: f64 = layers
        .attribution
        .iter()
        .map(|(name, calls)| span_p10(name).unwrap_or(0.0) * calls)
        .sum();
    let sorted = stats::sorted(&stats.times_ms);
    let mut values = layers.values;
    values.insert("run.ops", stats.attempted as f64);
    values.insert("run.op_p50_ms", stats::percentile(&sorted, 0.5));
    values.insert("run.op_p90_ms", stats::percentile(&sorted, 0.9));
    values.insert("run.op_max_ms", sorted[sorted.len() - 1]);
    if let Some(c) = cpu {
        values.insert("run.cpu_ms_per_op", c * 1e3 / stats.attempted as f64);
        values.insert("run.cores_busy", c / wall);
    }
    values.insert(
        "run.trace_overhead_share",
        stats::p10(&spanned_ms) / op_quiet_ms - 1.0,
    );
    values.insert("run.unattributed_share", 1.0 - attributed_ms / op_quiet_ms);

    let metrics = PER_LAYER
        .iter()
        .map(|def| {
            let from_spans = || {
                let (base, scale) = span_source(def.name)?;
                span_p10(base).map(|ms| ms * scale)
            };
            let v = values
                .get(def.name)
                .copied()
                .or_else(from_spans)
                .unwrap_or(0.0);
            (*def, v)
        })
        .collect();
    // Where the traced run's time went, by self time: the spans a layer
    // metric does not name (scalar oracles, the replay's own bookkeeping)
    // show here too.
    let self_ms = tracer.self_ms_by_name();
    let total_ms: f64 = self_ms.iter().map(|(_, ms)| ms).sum();
    let mut notes: Vec<(String, String)> = self_ms
        .iter()
        .map(|(name, ms)| {
            (
                format!("self.{name}"),
                format!("{ms:.3} ms ({:.1} %)", 100.0 * ms / total_ms),
            )
        })
        .collect();
    if let Some(why) = &stats.first_failure {
        notes.push(("run.first_failure".to_string(), why.clone()));
    }
    let outcome = Outcome {
        attempted: stats.attempted,
        failed: stats.failed,
        metrics,
        sim_digest: digest,
        notes,
    };
    (outcome, tracer)
}

/// The span a time metric is the p10 of, and the factor from milliseconds
/// to its unit.
fn span_source(metric: &str) -> Option<(&str, f64)> {
    if let Some(base) = metric.strip_suffix("_ms").or(metric.strip_suffix(".ms")) {
        Some((base, 1.0))
    } else {
        metric.strip_suffix("_us").map(|base| (base, 1e3))
    }
}

/// `--smoke` runs a twentieth of the ops, with every check still on.
fn scaled(min_ops: usize, smoke: bool) -> usize {
    if smoke {
        (min_ops / 20).max(1)
    } else {
        min_ops
    }
}

/// Repeats `f` for about `slice`, at least `min_rounds` times; once, when
/// the slice is that of a smoke run. `MAX_ROUNDS` are plenty for a p10 and
/// keep the spans of a microsecond-sized layer from filling memory.
pub fn rounds(slice: Duration, min_rounds: usize, mut f: impl FnMut()) {
    const MAX_ROUNDS: usize = 2_000;
    let min_rounds = if slice < Duration::from_millis(250) {
        1
    } else {
        min_rounds
    };
    let started = Instant::now();
    let mut done = 0;
    while done < min_rounds || (done < MAX_ROUNDS && started.elapsed() < slice) {
        f();
        done += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_metrics_name_their_spans() {
        assert_eq!(
            span_source("nn.trainer.dis_step_ms"),
            Some(("nn.trainer.dis_step", 1.0))
        );
        assert_eq!(
            span_source("dataflow.exec.zfost_s.ms"),
            Some(("dataflow.exec.zfost_s", 1.0))
        );
        assert_eq!(
            span_source("dse.pareto.insert_us"),
            Some(("dse.pareto.insert", 1e3))
        );
        assert_eq!(span_source("tensor.gemm.gflops"), None);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![(END_TO_END[0], 1.25), (END_TO_END[4], 0.5)],
            sim_digest: 1,
            notes: Vec::new(),
        };
        assert_eq!(
            outcome.result_line(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
             \"op_quiet_ms\":{\"value\":1.25,\"unit\":\"ms\"},\
             \"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
    }
}
