//! `zfgan` — a faithful, cycle-level reproduction of *"Towards Efficient
//! Microarchitectural Design for Accelerating Unsupervised GAN-based Deep
//! Learning"* (Song, Zhang, Chen & Li, HPCA 2018).
//!
//! This facade crate re-exports the whole workspace under one name:
//!
//! * [`tensor`] — 4-D tensors, Q8.8 fixed point and the golden-reference
//!   convolutions (`S-CONV`, `T-CONV`, `W-CONV`).
//! * [`nn`] — from-scratch GAN training: layers, WGAN loss, backprop and the
//!   paper's **deferred-synchronization** trainer.
//! * [`sim`] — the microarchitecture substrate: PE arrays, on-chip buffers,
//!   DRAM bandwidth and energy accounting.
//! * [`dataflow`] — schedulers for the baseline architectures (NLR, WST,
//!   OST) and the paper's zero-free designs (**ZFOST**, **ZFWST**).
//! * [`accel`] — the full time-multiplexed accelerator of paper Fig. 14.
//! * [`workloads`] — DCGAN / MNIST-GAN / cGAN network specifications.
//! * [`platforms`] — analytical CPU/GPU models for the Fig. 19 comparison.
//! * [`pool`] — the persistent work-stealing thread pool behind every
//!   parallel execution path (deterministic, panic-safe, zero spawns in
//!   steady state).
//! * [`store`] — the crash-consistent checkpoint store (atomic
//!   checksummed generations) behind `zfgan train --resume` and the
//!   `zfgan crashtest` crash-injection campaign.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs`, or run
//! `cargo run --release --example quickstart`.

pub mod cli;
pub mod crashtest;
pub mod dse;
pub mod faults;
pub mod paper;
pub mod perf;
pub mod report;
pub mod train;

pub use zfgan_accel as accel;
pub use zfgan_dataflow as dataflow;
pub use zfgan_nn as nn;
pub use zfgan_platforms as platforms;
pub use zfgan_pool as pool;
pub use zfgan_sim as sim;
pub use zfgan_store as store;
pub use zfgan_telemetry as telemetry;
pub use zfgan_tensor as tensor;
pub use zfgan_workloads as workloads;
