//! Fig. 15 — throughput of the five architectures on the four computing
//! phases (`D̄/Ḡ`, `Ḡ/D̄`, `D̄w`, `Ḡw`), normalized to improved NLR,
//! at equal PE budgets (ST phases: 1200 PEs, W phases: 480 PEs).
//!
//! The sweep itself is served by the DSE engine
//! ([`zfgan_dse::sweeps::fig15`]): point list, cell evaluation and the
//! content-addressed cache (`ZFGAN_DSE_CACHE`) all live there — this bin
//! only renders the rows.

use zfgan_bench::{emit, fmt_x, TextTable};
use zfgan_dataflow::ArchKind;
use zfgan_dse::sweeps::fig15::{self, Row};
use zfgan_dse::DseConfig;

fn main() {
    let rows: Vec<Row> = fig15::rows(&DseConfig::from_env(fig15::NAME));
    let mut table = TextTable::new([
        "GAN",
        "Phase",
        "Arch",
        "Cycles",
        "Speedup vs NLR",
        "PE util",
    ]);
    for r in &rows {
        table.row([
            r.gan.clone(),
            r.phase.to_string(),
            r.arch.to_string(),
            r.cycles.to_string(),
            fmt_x(r.speedup_vs_nlr),
            format!("{:.2}", r.utilization),
        ]);
    }
    emit(
        "fig15",
        "Fig. 15: performance comparison on the four computing phases",
        &table,
        &rows,
    );

    // Geometric-mean summary across GANs, like the paper's bars.
    let mut summary = TextTable::new(["Phase", "NLR", "WST", "OST", "ZFOST", "ZFWST"]);
    for label in ["D (S-CONV)", "G (T-CONV)", "Dw (W-CONV)", "Gw (W-CONV)"] {
        let mut cells = vec![label.to_string()];
        for arch in ArchKind::ALL {
            let vals: Vec<f64> = rows
                .iter()
                .filter(|r| r.phase == label && r.arch == arch.name())
                .map(|r| r.speedup_vs_nlr)
                .collect();
            let gm = (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp();
            cells.push(fmt_x(gm));
        }
        summary.row(cells);
    }
    println!("== Fig. 15 summary (geomean speedup over NLR across GANs) ==");
    println!("{}", summary.render());
}
