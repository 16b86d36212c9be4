//! Section III-A — intermediate-data buffering: synchronized (2×batch)
//! vs deferred (1 sample), analytically for the paper networks and
//! measured live on a trainable GAN.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;
use zfgan_accel::MemoryAnalysis;
use zfgan_bench::{emit, fmt_bytes, fmt_x, TextTable};
use zfgan_nn::{GanPair, GanTrainer, SyncMode, TrainerConfig};
use zfgan_workloads::GanSpec;

#[derive(Serialize)]
struct Row {
    gan: String,
    batch: usize,
    sync_bytes: u64,
    deferred_bytes: u64,
    reduction: f64,
    sync_fits_on_chip: bool,
    deferred_fits_on_chip: bool,
}

fn main() {
    let mut rows = Vec::new();
    for spec in GanSpec::all_paper_gans() {
        for batch in [64usize, 256] {
            let m = MemoryAnalysis::analyse(&spec, batch, 2);
            rows.push(Row {
                gan: spec.name().to_string(),
                batch,
                sync_bytes: m.synchronized_bytes,
                deferred_bytes: m.deferred_bytes,
                reduction: m.reduction_factor(),
                sync_fits_on_chip: m.synchronized_fits_on_chip,
                deferred_fits_on_chip: m.deferred_fits_on_chip,
            });
        }
    }
    let mut table = TextTable::new([
        "GAN",
        "Batch",
        "Synchronized",
        "Deferred",
        "Reduction",
        "Sync fits BRAM",
        "Deferred fits BRAM",
    ]);
    for r in &rows {
        table.row([
            r.gan.clone(),
            r.batch.to_string(),
            fmt_bytes(r.sync_bytes),
            fmt_bytes(r.deferred_bytes),
            fmt_x(r.reduction),
            r.sync_fits_on_chip.to_string(),
            r.deferred_fits_on_chip.to_string(),
        ]);
    }
    emit(
        "memory",
        "Section III-A: intermediate-data buffering",
        &table,
        &rows,
    );

    // Live measurement: run both trainers on a small GAN and report the
    // actual buffered-trace high-water marks.
    let mut rng = SmallRng::seed_from_u64(0);
    let batch = 8;
    let reals = {
        let pair = GanPair::tiny(&mut rng);
        pair.sample_real_batch(batch, &mut rng)
    };
    let mut measured = TextTable::new(["Trainer", "Peak live traces", "Peak buffered elems"]);
    for (name, mode) in [
        ("synchronized", SyncMode::Synchronized),
        ("deferred", SyncMode::Deferred),
    ] {
        let mut rng_w = SmallRng::seed_from_u64(1);
        let pair = GanPair::tiny(&mut rng_w);
        let mut trainer = GanTrainer::new(
            pair,
            TrainerConfig {
                mode,
                ..TrainerConfig::default()
            },
        );
        let mut rng_step = SmallRng::seed_from_u64(2);
        let rep = trainer.step_discriminator(&reals, &mut rng_step);
        measured.row([
            name.to_string(),
            rep.peak_live_traces.to_string(),
            rep.peak_buffered_elems.to_string(),
        ]);
    }
    println!("== Measured on a live trainer (batch {batch}) ==");
    println!("{}", measured.render());
    println!(
        "deferred: one trace per lane, independent of the batch ({} lanes at pool width {})",
        zfgan_pool::pool_threads().min(2 * batch),
        zfgan_pool::pool_threads()
    );
}
