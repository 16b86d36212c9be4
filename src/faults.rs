//! Fault-injection campaigns: sweep fault rate × site × dataflow over the
//! zero-free convolution pipeline and measure what the detection layers
//! (ABFT checksums, transfer checksums, finite guards) actually catch.
//!
//! A campaign cell pins one `(dataflow, site, rate, bit)` combination and
//! runs `ops_per_cell` seeded transposed convolutions through the
//! instrumented path:
//!
//! * weights cross the modelled DRAM channel ([`zfgan_sim::DramModel::burst`]),
//! * patches are read through the on-chip buffer
//!   ([`zfgan_sim::OnChipBuffer::read_through`]),
//! * every per-phase GEMM runs under ABFT
//!   ([`zfgan_tensor::abft::checked_matmul_with_faults`]).
//!
//! Each effective fault is classified as **detected** (a guard flagged
//! it), **benign** (it fired but the output stayed within the ABFT
//! tolerance — below quantization noise), or **silent** (the output is
//! materially wrong and nothing noticed). The whole campaign is a pure
//! function of its [`CampaignConfig`], so the same seed reproduces the
//! same JSON byte for byte.
//!
//! A final section trains a tiny WGAN under a
//! [`zfgan_nn::SupervisedTrainer`] while a `TrainerStep` plan corrupts
//! critic parameters, demonstrating rollback-and-retry end to end.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::nn::{GanPair, GanTrainer, SupervisedTrainer, SupervisorConfig, TrainerConfig};
use crate::sim::{BufferSpec, DramModel, OnChipBuffer};
use crate::tensor::abft::{self};
use crate::tensor::fault::{FaultKind, FaultLog, FaultPlan, FaultSite};
use crate::tensor::gemm::matmul_blocked;
use crate::tensor::im2col::{im2col_t, weights_as_matrix_t, Matrix};
use crate::tensor::zero_free::t_zero_free_gemm_operands;
use crate::tensor::{ConvGeom, Fmaps, Kernels, ShapeError, TensorResult};

/// Upper bucket bounds (accumulator words) of the ABFT detection-latency
/// histogram; a final `+Inf` bucket is implicit. Shared by the local
/// per-cell buckets and the `abft_detection_latency_words` registry
/// histogram so the two views always agree.
pub const DETECTION_LATENCY_BOUNDS: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// Which lowering feeds the instrumented GEMMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Dataflow {
    /// Caffe-style dense lowering: inserted zeros are materialised.
    TConvDense,
    /// The paper's zero-free per-phase lowering (ZFOST/ZFWST mirror).
    TConvZeroFree,
}

impl Dataflow {
    /// Stable name for tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Dataflow::TConvDense => "t-conv-dense",
            Dataflow::TConvZeroFree => "t-conv-zero-free",
        }
    }
}

/// Parameters of one campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Master seed; every cell derives its own sub-seed from it.
    pub seed: u64,
    /// Per-word fault rates to sweep.
    pub rates: Vec<f64>,
    /// Bit positions to flip (bit 30 = top exponent bit: loud; low
    /// mantissa bits: quiet).
    pub bits: Vec<u8>,
    /// Transposed convolutions per cell.
    pub ops_per_cell: usize,
    /// Supervised-training iterations in the resilience section.
    pub trainer_iterations: usize,
    /// Batch size of those iterations.
    pub trainer_batch: usize,
}

impl CampaignConfig {
    /// The CI smoke campaign: one loud rate/bit, a handful of ops —
    /// seconds, not minutes.
    pub fn smoke(seed: u64) -> Self {
        Self {
            seed,
            rates: vec![0.01],
            bits: vec![30],
            ops_per_cell: 6,
            trainer_iterations: 6,
            trainer_batch: 2,
        }
    }

    /// The full sweep: three rates × three bit positions.
    pub fn full(seed: u64) -> Self {
        Self {
            seed,
            rates: vec![1e-3, 1e-2, 5e-2],
            bits: vec![1, 22, 30],
            ops_per_cell: 10,
            trainer_iterations: 8,
            trainer_batch: 2,
        }
    }
}

/// Outcome counters of one `(dataflow, site, rate, bit)` cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// Lowering under test.
    pub dataflow: String,
    /// Fault site name (see [`FaultSite::name`]).
    pub site: String,
    /// Per-word fault rate.
    pub rate: f64,
    /// Flipped bit position.
    pub bit: u8,
    /// Words exposed to the plan.
    pub attempts: u64,
    /// Faults that fired.
    pub fired: u64,
    /// Fired faults that changed a bit pattern.
    pub effective: u64,
    /// Effective faults a guard flagged.
    pub detected: u64,
    /// Effective faults whose output deviation stayed within the ABFT
    /// tolerance (below quantization noise).
    pub benign: u64,
    /// Effective faults that corrupted the output with no guard firing.
    pub silent: u64,
    /// Mean accumulator words computed between an accumulator fault and
    /// its post-GEMM ABFT check (0 when no accumulator fault detected).
    pub mean_detection_latency_words: f64,
    /// Detection-latency histogram: one count per
    /// [`DETECTION_LATENCY_BOUNDS`] bucket plus a final `+Inf` bucket.
    pub detection_latency_buckets: Vec<u64>,
}

/// Outcome of the supervised-training resilience section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainerResilienceResult {
    /// Fault rate of the `TrainerStep` plan.
    pub rate: f64,
    /// Flipped bit position.
    pub bit: u8,
    /// Parameter faults actually injected.
    pub faults_injected: u64,
    /// Health-check failures and panics observed.
    pub anomalies: u64,
    /// Rollbacks to the last good checkpoint.
    pub rollbacks: u64,
    /// Re-executions after rollback.
    pub retries: u64,
    /// Iterations that completed healthily.
    pub completed_iterations: u64,
    /// Whether the whole run finished with finite losses.
    pub completed: bool,
    /// Final critic loss.
    pub final_dis_loss: f64,
    /// Final generator loss.
    pub final_gen_loss: f64,
}

/// Everything one campaign measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// The configuration that produced this result.
    pub config: CampaignConfig,
    /// One row per `(dataflow, site, rate, bit)` cell.
    pub cells: Vec<CellResult>,
    /// The end-to-end supervised-training section.
    pub trainer: TrainerResilienceResult,
}

/// The T-CONV geometry every campaign op uses: 6×6 → 12×12, 4×4 kernel,
/// stride 2 — the DCGAN layer shape scaled down to keep cells fast.
fn campaign_geom() -> TensorResult<ConvGeom> {
    ConvGeom::down(12, 12, 4, 4, 2, 6, 6)
}

/// One op's GEMM operand pairs under the chosen dataflow.
fn operand_pairs(
    dataflow: Dataflow,
    input: &Fmaps<f32>,
    k: &Kernels<f32>,
    geom: &ConvGeom,
) -> TensorResult<Vec<(Matrix<f32>, Matrix<f32>)>> {
    match dataflow {
        Dataflow::TConvDense => {
            let lowered = im2col_t(input, geom);
            Ok(vec![(lowered.patches, weights_as_matrix_t(k))])
        }
        Dataflow::TConvZeroFree => t_zero_free_gemm_operands(input, k, geom),
    }
}

/// Drives one cell: `ops_per_cell` seeded T-CONVs through buffer, DRAM
/// and ABFT-checked GEMM, classifying every effective fault.
#[allow(clippy::too_many_lines)]
fn run_cell(
    cfg: &CampaignConfig,
    dataflow: Dataflow,
    site: FaultSite,
    rate: f64,
    bit: u8,
) -> TensorResult<CellResult> {
    let plan = FaultPlan::new(cfg.seed, rate, site, FaultKind::BitFlip { bit })
        .map_err(|e| ShapeError::new(e.to_string()))?;
    let geom = campaign_geom()?;
    let dram = DramModel::vcu118();
    let mut buffer = OnChipBuffer::new(BufferSpec::new("campaign", 1 << 20));

    let mut log = FaultLog::default();
    let mut detected = 0u64;
    let mut benign = 0u64;
    let mut silent = 0u64;
    let mut latency_sum = 0.0f64;
    let mut latency_n = 0u64;
    let mut latency_buckets = vec![0u64; DETECTION_LATENCY_BOUNDS.len() + 1];
    // Per-site word counters: every word of the campaign gets a unique
    // index, so replaying the config replays the exact fault pattern.
    let mut next_word: u64 = 0;

    // Cell sub-seed: decorrelate the problem data across cells without
    // touching the plan's own (seed, site, index) fault stream.
    let cell_salt = (dataflow.name().len() as u64) << 32 | u64::from(bit);

    for op in 0..cfg.ops_per_cell {
        let mut rng = SmallRng::seed_from_u64(
            cfg.seed ^ cell_salt ^ (op as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let k = Kernels::random(4, 3, 4, 4, 0.5, &mut rng);
        let input = Fmaps::random(4, 6, 6, 1.0, &mut rng);

        for (patches, weights) in operand_pairs(dataflow, &input, &k, &geom)? {
            // Golden product on pristine operands.
            let golden = matmul_blocked(&patches, &weights)?;

            // Transport: weights cross DRAM, patches cross the on-chip
            // buffer. A checksum around each transfer is the detector.
            let mut w_data = weights.as_slice().to_vec();
            let w_before = abft::slice_checksum(&w_data);
            let w_base = next_word;
            next_word += w_data.len() as u64;
            let mut transfer_log = FaultLog::default();
            let _cycles = dram.burst(w_base, &mut w_data, 4, &plan, &mut transfer_log);
            let w_caught = abft::slice_checksum(&w_data).to_bits() != w_before.to_bits();

            let mut p_data = patches.as_slice().to_vec();
            let p_before = abft::slice_checksum(&p_data);
            let p_base = next_word;
            next_word += p_data.len() as u64;
            buffer.read_through(p_base, &mut p_data, &plan, &mut transfer_log);
            let p_caught = abft::slice_checksum(&p_data).to_bits() != p_before.to_bits();

            let transfer_effective: u64 = transfer_log
                .records
                .iter()
                .filter(|r| r.effective())
                .count() as u64;

            let faulty_w = Matrix::from_vec(weights.rows(), weights.cols(), w_data);
            let faulty_p = Matrix::from_vec(patches.rows(), patches.cols(), p_data);

            // Compute: ABFT-guarded GEMM, accumulator faults injected at
            // writeback.
            let gemm_base = next_word;
            let mut gemm_log = FaultLog::default();
            let (product, report) = abft::checked_matmul_with_faults(
                &faulty_p,
                &faulty_w,
                &plan,
                gemm_base,
                &mut gemm_log,
            )?;
            let n = product.cols();
            let gemm_words = (product.rows() * n) as u64;
            next_word += gemm_words;

            // How far the output actually strayed from the golden product
            // (operand corruption propagates here too).
            let max_dev = golden
                .as_slice()
                .iter()
                .zip(product.as_slice())
                .map(|(&g, &c)| {
                    if c.is_finite() {
                        (f64::from(g) - f64::from(c)).abs()
                    } else {
                        f64::INFINITY
                    }
                })
                .fold(0.0f64, f64::max);
            let tol = abft::tolerance(&faulty_p, &faulty_w);
            let material = max_dev > tol;
            let guard_fired =
                !report.clean() || abft::first_non_finite(product.as_slice()).is_some();

            // Accumulator faults: attribute each record to its output
            // coordinate and ask the ABFT report whether it was localised.
            for rec in gemm_log.records.iter().filter(|r| r.effective()) {
                let rel = rec.index - gemm_base;
                let (row, col) = ((rel / n as u64) as usize, (rel % n as u64) as usize);
                if report.implicates(row, col) {
                    detected += 1;
                    let latency = (gemm_words - rel) as f64;
                    latency_sum += latency;
                    latency_n += 1;
                    let bucket = DETECTION_LATENCY_BOUNDS
                        .iter()
                        .position(|b| latency <= *b)
                        .unwrap_or(DETECTION_LATENCY_BOUNDS.len());
                    latency_buckets[bucket] += 1;
                    crate::telemetry::observe(
                        "abft_detection_latency_words",
                        &[("dataflow", dataflow.name())],
                        &DETECTION_LATENCY_BOUNDS,
                        latency,
                    );
                } else if material {
                    silent += 1;
                } else {
                    benign += 1;
                }
            }

            // Operand faults: the transfer checksum is the detector; the
            // ABFT check may *also* notice the product of corrupted
            // operands drifting, but the checksum alone decides.
            if transfer_effective > 0 {
                let caught = w_caught || p_caught;
                if caught {
                    detected += transfer_effective;
                } else if material && !guard_fired {
                    silent += transfer_effective;
                } else {
                    benign += transfer_effective;
                }
            }

            log.absorb(&transfer_log);
            log.absorb(&gemm_log);
        }
    }

    Ok(CellResult {
        dataflow: dataflow.name().to_string(),
        site: site.name().to_string(),
        rate,
        bit,
        attempts: log.attempts,
        fired: log.fired,
        effective: log.effective,
        detected,
        benign,
        silent,
        mean_detection_latency_words: if latency_n > 0 {
            latency_sum / latency_n as f64
        } else {
            0.0
        },
        detection_latency_buckets: latency_buckets,
    })
}

/// The end-to-end section: a tiny WGAN trains under supervision while a
/// `TrainerStep` plan flips critic parameter bits.
fn run_trainer_section(cfg: &CampaignConfig) -> TensorResult<TrainerResilienceResult> {
    let rate = 0.65;
    let bit = 30u8;
    let plan = FaultPlan::new(
        cfg.seed ^ 0x7472_6169_6e00_0000,
        rate,
        FaultSite::TrainerStep,
        FaultKind::BitFlip { bit },
    )
    .map_err(|e| ShapeError::new(e.to_string()))?;

    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x6761_6e00);
    let trainer = GanTrainer::try_new(
        GanPair::tiny(&mut rng),
        TrainerConfig {
            n_critic: 1,
            ..TrainerConfig::default()
        },
    )
    .map_err(|e| ShapeError::new(e.to_string()))?;
    let mut sup = SupervisedTrainer::new(
        trainer,
        SupervisorConfig {
            fault: Some(plan),
            ..SupervisorConfig::default()
        },
    )
    .map_err(|e| ShapeError::new(e.to_string()))?;

    let mut step_rng = SmallRng::seed_from_u64(cfg.seed ^ 0x7374_6570);
    let mut final_dis = f64::NAN;
    let mut final_gen = f64::NAN;
    for _ in 0..cfg.trainer_iterations {
        // On Err (retries exhausted) the supervisor has already rolled
        // back to the last good state, so the run continues — the fault
        // stream has advanced, so the retry pattern differs on the next
        // iteration.
        if let Ok((d, g)) = sup.train_iteration(cfg.trainer_batch, &mut step_rng) {
            final_dis = d.dis_loss;
            final_gen = g.gen_loss;
        }
    }
    let stats = *sup.stats();
    // Completion means the run ended on healthy parameters with at least
    // one finite-loss iteration — precisely what an unsupervised trainer
    // under the same fault stream cannot deliver.
    let completed = stats.iterations > 0 && final_dis.is_finite() && final_gen.is_finite();
    Ok(TrainerResilienceResult {
        rate,
        bit,
        faults_injected: stats.faults_injected,
        anomalies: stats.anomalies,
        rollbacks: stats.rollbacks,
        retries: stats.retries,
        completed_iterations: stats.iterations,
        completed,
        final_dis_loss: final_dis,
        final_gen_loss: final_gen,
    })
}

/// Runs a full campaign: every `(dataflow, site, rate, bit)` cell plus
/// the supervised-training section.
///
/// # Errors
///
/// Returns an error only on internal shape violations (a campaign bug,
/// not a fault effect — injected faults are data, never structure).
pub fn run_campaign(cfg: &CampaignConfig) -> TensorResult<CampaignResult> {
    let mut cells = Vec::new();
    for dataflow in [Dataflow::TConvDense, Dataflow::TConvZeroFree] {
        for site in [
            FaultSite::GemmAccumulator,
            FaultSite::BufferRead,
            FaultSite::DramBurst,
        ] {
            for &rate in &cfg.rates {
                for &bit in &cfg.bits {
                    cells.push(run_cell(cfg, dataflow, site, rate, bit)?);
                }
            }
        }
    }
    let trainer = run_trainer_section(cfg)?;
    Ok(CampaignResult {
        config: cfg.clone(),
        cells,
        trainer,
    })
}

/// Renders the campaign as an aligned text table plus the trainer
/// section, for the CLI.
pub fn render_summary(result: &CampaignResult) -> String {
    let mut out = String::from(
        "Fault-injection campaign (bit-flip faults, ABFT + checksum + finite guards):\n\n",
    );
    out.push_str(&format!(
        "{:<18} {:<17} {:>7} {:>4} {:>9} {:>6} {:>9} {:>9} {:>7} {:>7} {:>12}\n",
        "dataflow",
        "site",
        "rate",
        "bit",
        "attempts",
        "fired",
        "effective",
        "detected",
        "benign",
        "silent",
        "latency(wd)"
    ));
    for c in &result.cells {
        out.push_str(&format!(
            "{:<18} {:<17} {:>7} {:>4} {:>9} {:>6} {:>9} {:>9} {:>7} {:>7} {:>12.1}\n",
            c.dataflow,
            c.site,
            c.rate,
            c.bit,
            c.attempts,
            c.fired,
            c.effective,
            c.detected,
            c.benign,
            c.silent,
            c.mean_detection_latency_words,
        ));
    }
    // Detection-latency histogram, aggregated per dataflow across cells.
    let mut per_dataflow: Vec<(String, Vec<u64>)> = Vec::new();
    for c in &result.cells {
        if c.detection_latency_buckets.iter().all(|&b| b == 0) {
            continue;
        }
        match per_dataflow.iter_mut().find(|(d, _)| *d == c.dataflow) {
            Some((_, acc)) => {
                for (a, b) in acc.iter_mut().zip(&c.detection_latency_buckets) {
                    *a += b;
                }
            }
            None => per_dataflow.push((c.dataflow.clone(), c.detection_latency_buckets.clone())),
        }
    }
    if !per_dataflow.is_empty() {
        out.push_str("\nABFT detection latency (accumulator words between fault and check):\n");
        let mut header = format!("{:<18}", "dataflow");
        for b in DETECTION_LATENCY_BOUNDS {
            header.push_str(&format!(" {:>6}", format!("<={b}")));
        }
        header.push_str(&format!(" {:>6}\n", "+Inf"));
        out.push_str(&header);
        for (dataflow, buckets) in &per_dataflow {
            out.push_str(&format!("{dataflow:<18}"));
            for b in buckets {
                out.push_str(&format!(" {b:>6}"));
            }
            out.push('\n');
        }
    }
    let t = &result.trainer;
    out.push_str(&format!(
        "\nSupervised training under trainer-step faults (rate {}, bit {}):\n\
         \x20 injected {}  anomalies {}  rollbacks {}  retries {}  healthy iterations {}\n\
         \x20 completed: {}  final losses: D {:.4}  G {:.4}\n",
        t.rate,
        t.bit,
        t.faults_injected,
        t.anomalies,
        t.rollbacks,
        t.retries,
        t.completed_iterations,
        t.completed,
        t.final_dis_loss,
        t.final_gen_loss,
    ));
    out
}

/// Checks the invariants the CI smoke campaign enforces. An empty vector
/// means the run is healthy.
pub fn smoke_violations(result: &CampaignResult) -> Vec<String> {
    let mut v = Vec::new();
    let total_detected: u64 = result.cells.iter().map(|c| c.detected).sum();
    if total_detected == 0 {
        v.push("no faults were detected anywhere in the campaign".to_string());
    }
    let total_fired: u64 = result.cells.iter().map(|c| c.fired).sum();
    if total_fired == 0 {
        v.push("no faults fired — the plan rates are too low for the cell size".to_string());
    }
    for c in &result.cells {
        if c.site == FaultSite::GemmAccumulator.name() && c.silent > 0 {
            v.push(format!(
                "{} @ {} rate {} bit {}: {} silent corruption(s) escaped the ABFT check",
                c.dataflow, c.site, c.rate, c.bit, c.silent
            ));
        }
    }
    let t = &result.trainer;
    if !t.completed {
        v.push("supervised training did not complete with finite losses".to_string());
    }
    if t.faults_injected > 0 && t.rollbacks == 0 {
        v.push("trainer faults were injected but no rollback ever happened".to_string());
    }
    v
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_is_deterministic_and_clean() {
        let cfg = CampaignConfig::smoke(2024);
        let a = run_campaign(&cfg).unwrap();
        let b = run_campaign(&cfg).unwrap();
        let ja = serde_json::to_string(&a).unwrap();
        let jb = serde_json::to_string(&b).unwrap();
        assert_eq!(ja, jb, "same config must reproduce byte-identical JSON");
        assert!(
            smoke_violations(&a).is_empty(),
            "{:?}",
            smoke_violations(&a)
        );
    }

    #[test]
    fn accumulator_cells_detect_every_material_fault() {
        let cfg = CampaignConfig::smoke(7);
        let result = run_campaign(&cfg).unwrap();
        let acc_cells: Vec<_> = result
            .cells
            .iter()
            .filter(|c| c.site == "gemm-accumulator")
            .collect();
        assert!(!acc_cells.is_empty());
        let fired: u64 = acc_cells.iter().map(|c| c.fired).sum();
        assert!(fired > 0, "smoke rate must fire at this cell size");
        for c in acc_cells {
            assert_eq!(c.silent, 0, "{c:?}");
        }
    }

    #[test]
    fn trainer_section_rolls_back_and_completes() {
        let cfg = CampaignConfig::smoke(11);
        let t = run_trainer_section(&cfg).unwrap();
        assert!(t.completed, "{t:?}");
        assert!(t.faults_injected > 0, "{t:?}");
        assert!(t.rollbacks > 0, "{t:?}");
        assert!(t.final_dis_loss.is_finite() && t.final_gen_loss.is_finite());
    }

    #[test]
    fn different_seeds_draw_different_fault_patterns() {
        let a = run_campaign(&CampaignConfig::smoke(1)).unwrap();
        let b = run_campaign(&CampaignConfig::smoke(2)).unwrap();
        assert_ne!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn summary_renders_every_cell() {
        let result = run_campaign(&CampaignConfig::smoke(3)).unwrap();
        let text = render_summary(&result);
        assert!(text.contains("gemm-accumulator"));
        assert!(text.contains("t-conv-zero-free"));
        assert!(text.contains("Supervised training"));
    }
}
