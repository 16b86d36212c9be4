//! Every GEMM route upholds the bit-equality contract on its own: one
//! MNIST-GAN train iteration prints the same `deterministic:` line
//! dispatched, forced down the packed engine and forced down the small-m
//! engine. Its own test binary, because the forced path is process-global.

use zfgan::cli::run;
use zfgan::tensor::microkernel::{set_forced_path, GemmPath};

/// One `train --gan mnist --seed 2024 --iters 1 --telemetry` under
/// `forced`: its `deterministic:` line and its `gemm_dispatch` counts
/// (packed, smallm).
fn train(forced: Option<GemmPath>) -> (String, u64, u64) {
    let argv = [
        "train",
        "--gan",
        "mnist",
        "--seed",
        "2024",
        "--iters",
        "1",
        "--telemetry",
    ];
    let args: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    set_forced_path(forced);
    let out = run(&args);
    set_forced_path(None);
    let out = out.unwrap();
    let line = |prefix: &str| out.lines().find(|l| l.trim_start().starts_with(prefix));
    let count = |path: &str| {
        line(&format!("gemm_dispatch{{path=\"{path}\"}}"))
            .map_or(0, |l| l.split_whitespace().last().unwrap().parse().unwrap())
    };
    let det = line("deterministic:").expect("a deterministic line");
    (det.to_string(), count("packed"), count("smallm"))
}

#[test]
fn every_forced_route_trains_bit_identically_to_dispatch() {
    let (dispatched, packed, smallm) = train(None);
    assert!(
        packed > 0 && smallm > 0,
        "dispatch must take both routes: packed {packed}, smallm {smallm}"
    );
    let (forced, packed_only, none) = train(Some(GemmPath::Packed));
    assert_eq!(forced, dispatched, "forced packed");
    assert_eq!((packed_only, none), (packed + smallm, 0));
    let (forced, none, smallm_only) = train(Some(GemmPath::SmallM));
    assert_eq!(forced, dispatched, "forced smallm");
    assert_eq!((none, smallm_only), (0, packed + smallm));
}
