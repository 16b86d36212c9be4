//! The only file that names product APIs. The five workloads are built
//! here on the product's public functions, and so is the layer replay of
//! the traced run; the runner, the statistics and the tracer see them
//! through [`Workload`] alone.
//!
//! Training uses the library-default convolution backend: whatever
//! `ConvLayer::backend()` returns after `GanSpec::build_pair`. The only
//! backend named is the golden oracle.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use zfgan_accel::{AccelConfig, Design, DesignReport, SyncPolicy};
use zfgan_dataflow::exec::{self, attribute_cycles, scalar, ExecOutcome};
use zfgan_dataflow::{
    ArchKind, Dataflow, ExecWorkspace, Nlr, Ost, PhaseTuned, UnrollChoice, Wst, Zfost, Zfwst,
};
use zfgan_dse::pareto::{Objectives, ParetoFrontier};
use zfgan_dse::sweeps::{fig15, fig16, fig17, fig18, fig19};
use zfgan_dse::{run_batch, Batch, DseConfig};
use zfgan_nn::{ConvLayer, ConvNet, Direction, GanTrainer, LayerGrads, Optimizer, TrainerConfig};
use zfgan_sim::{ConvKind, ConvShape};
use zfgan_store::{Store, StoreConfig};
use zfgan_telemetry::Registry;
use zfgan_tensor::im2col::{im2col_s_ws, weights_as_matrix_s_ws, Matrix};
use zfgan_tensor::zero_free::t_zero_free_gemm_operands;
use zfgan_tensor::{gemm, ConvBackend, ConvGeom, ConvWorkspace, Fmaps, Kernels};
use zfgan_workloads::{GanSpec, PhaseSeq};

use crate::stats::{self, Fnv64};
use crate::sys::Scratch;
use crate::trace::Tracer;
use crate::workload::{rounds, Layers, Setup, Workload};

/// The workloads, with the reason each is here (`BENCHMARK.json` repeats
/// both).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "train_mnist",
        "the ROADMAP train step: MNIST-GAN at batch 4, mixed packed/smallm/ikj GEMM dispatch; tensor and nn do all the work",
    ),
    (
        "train_dcgan",
        "paper Fig. 1 DCGAN at batch 1: large-k packed GEMMs, a workspace beyond L2, ten times the parameters, so optimizer and fills carry weight",
    ),
    (
        "dse_explore_cold",
        "30 never-seen DSE cells per op into an empty cache: store publish (fsync) dominates, plus memo-miss unroll search on the pool",
    ),
    (
        "dse_paper_warm",
        "the five paper sweeps against a filled cache, all hits: store load, CRC, JSON parse, Pareto and stream render",
    ),
    (
        "exec_zero_free",
        "the six zero-free cycle-accurate executors on a DCGAN-shaped phase: the paper's contribution, dataflow.exec does all the work",
    ),
];

/// One line describing the host as the product sees it.
pub fn host_line() -> String {
    format!(
        "pool_threads {} simd {}",
        zfgan_pool::pool_threads(),
        zfgan_tensor::microkernel::simd_label()
    )
}

/// Sets `name` up from `seed`, through its warm-up ops, ready for the
/// first timed op. A smoke run warms the train workloads up with one op.
pub fn setup(name: &str, seed: u64, smoke: bool) -> Result<Setup, String> {
    let warmups = |n: usize| if smoke { 1 } else { n };
    match name {
        "train_mnist" => Train::setup(GanSpec::mnist_gan(), 4, warmups(10), 40, seed),
        "train_dcgan" => Train::setup(GanSpec::dcgan(), 1, warmups(2), 8, seed),
        "dse_explore_cold" => Explore::setup(seed),
        "dse_paper_warm" => Warm::setup(),
        "exec_zero_free" => Exec::setup(seed),
        other => Err(format!(
            "unknown workload '{other}' (expected one of: {})",
            WORKLOADS
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

fn p10_ms(t: &Tracer, span: &str) -> f64 {
    t.p10_ms(span).unwrap_or(0.0)
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Sum of the counters named `name` in `reg` whose labels include `label`.
fn counter(reg: &Registry, name: &str, label: Option<(&str, &str)>) -> f64 {
    reg.snapshot()
        .counters
        .iter()
        .filter(|(key, _, _)| {
            key.name == name
                && label.is_none_or(|(k, v)| key.labels.iter().any(|(lk, lv)| lk == k && lv == v))
        })
        .map(|(_, _, v)| *v as f64)
        .sum()
}

// ---------------------------------------------------------------------------
// train_mnist / train_dcgan
// ---------------------------------------------------------------------------

struct Train {
    trainer: GanTrainer,
    rng: SmallRng,
    batch: usize,
    min_ops: usize,
    losses: (f64, f64),
}

/// Forward output, input error and weight gradient of one layer.
type ConvOutputs = (Fmaps<f32>, Fmaps<f32>, Kernels<f32>);

/// One convolution layer with the operands its three convolutions take.
struct LayerCase<'a> {
    layer: &'a ConvLayer,
    input: Fmaps<f32>,
    delta: Fmaps<f32>,
    macs: u64,
}

impl<'a> LayerCase<'a> {
    fn new(layer: &'a ConvLayer, input: Fmaps<f32>, rng: &mut SmallRng) -> Self {
        let (ic, ih, iw) = layer.in_shape();
        let (oc, oh, ow) = layer.out_shape();
        let macs = match layer.direction() {
            Direction::Down => layer.geom().down_macs(ic, oc, ih, iw),
            Direction::Up => layer.geom().down_macs(oc, ic, oh, ow),
        };
        LayerCase {
            layer,
            input,
            delta: Fmaps::random(oc, oh, ow, 1.0, rng),
            macs,
        }
    }

    /// Forward pass, input-error pass and weight-gradient pass of this
    /// layer on `backend`.
    fn convs(
        &self,
        backend: ConvBackend,
        ws: &mut ConvWorkspace<f32>,
    ) -> Result<ConvOutputs, String> {
        let (l, x, d) = (self.layer, &self.input, &self.delta);
        let (_, ih, iw) = l.in_shape();
        let out = match l.direction() {
            Direction::Down => (
                backend.s_conv_ws(x, l.weights(), l.geom(), ws),
                backend.s_conv_input_grad_ws(d, l.weights(), l.geom(), ih, iw, ws),
                backend.w_conv_for_s_layer_ws(x, d, l.geom(), ws),
            ),
            Direction::Up => (
                backend.t_conv_ws(x, l.weights(), l.geom(), ws),
                backend.t_conv_input_grad_ws(d, l.weights(), l.geom(), ws),
                backend.w_conv_for_t_layer_ws(x, d, l.geom(), ws),
            ),
        };
        match out {
            (Ok(f), Ok(g), Ok(w)) => Ok((f, g, w)),
            (f, g, w) => Err(format!(
                "conv failed: {:?} {:?} {:?}",
                f.err(),
                g.err(),
                w.err()
            )),
        }
    }
}

/// The layers of `net` with the activations a real forward pass feeds
/// them (ReLU zeros included), so zero skipping sees what training sees.
fn layer_cases<'a>(
    net: &'a ConvNet,
    input: &Fmaps<f32>,
    rng: &mut SmallRng,
) -> Result<Vec<LayerCase<'a>>, String> {
    let trace = net.forward(input).map_err(|e| e.to_string())?;
    Ok(net
        .layers()
        .iter()
        .enumerate()
        .map(|(l, layer)| {
            let x = if l == 0 {
                trace.input()
            } else {
                trace.post(l - 1)
            };
            LayerCase::new(layer, x.clone(), rng)
        })
        .collect())
}

fn max_abs(v: &[f32]) -> f64 {
    v.iter().fold(0.0f64, |m, x| m.max(f64::from(x.abs())))
}

impl Train {
    fn setup(
        spec: GanSpec,
        batch: usize,
        warmups: usize,
        min_ops: usize,
        seed: u64,
    ) -> Result<Setup, String> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pair = spec.build_pair(0.05, &mut rng).map_err(|e| e.to_string())?;
        let config = TrainerConfig {
            n_critic: 1,
            ..TrainerConfig::default()
        };
        let trainer = GanTrainer::try_new(pair, config).map_err(|e| e.to_string())?;
        let mut w = Train {
            trainer,
            rng,
            batch,
            min_ops,
            losses: (0.0, 0.0),
        };
        let checking = Instant::now();
        w.golden_check(seed)?;
        let check_s = checking.elapsed().as_secs_f64();
        for i in 0..warmups {
            w.op()?;
            w.check(i)?;
        }
        Ok(Setup {
            workload: Box::new(w),
            check_s,
        })
    }

    /// One S-, T- and W-CONV pass per network on the training backend
    /// against the golden loop nests, within the documented accumulation
    /// bound `2·k²·ε` per unit-scale term of a length-`k` reduction.
    fn golden_check(&self, seed: u64) -> Result<(), String> {
        // Golden nests run near 1 GMAC/s: cap the checked layer's size so
        // the check stays a small part of set-up.
        const MAC_CAP: u64 = 12_000_000;
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let gan = self.trainer.gan();
        let z = gan.sample_z_batch(1, &mut rng).remove(0);
        let image = gan.sample_real_batch(1, &mut rng).remove(0);
        let mut ws = ConvWorkspace::new();
        for (net, input) in [(gan.generator(), &z), (gan.discriminator(), &image)] {
            let cases = layer_cases(net, input, &mut rng)?;
            let case = cases
                .iter()
                .filter(|c| c.macs <= MAC_CAP)
                .max_by_key(|c| c.macs)
                .or(cases.iter().min_by_key(|c| c.macs))
                .ok_or("network has no layers")?;
            let fast = case.convs(case.layer.backend(), &mut ws)?;
            let gold = case.convs(ConvBackend::GoldenDirect, &mut ws)?;
            let (ic, ih, iw) = case.layer.in_shape();
            let (oc, oh, ow) = case.layer.out_shape();
            let taps = case.layer.geom().kh() * case.layer.geom().kw();
            let (x, d, k) = (
                max_abs(case.input.as_slice()),
                max_abs(case.delta.as_slice()),
                max_abs(case.layer.weights().as_slice()),
            );
            let bound = |terms: usize, scale: f64| {
                (2.0 * (terms * terms) as f64 * f64::from(f32::EPSILON) * scale).max(1e-6)
            };
            let diffs = [
                (
                    "forward",
                    fast.0.max_abs_diff(&gold.0),
                    bound(ic * taps, x * k),
                ),
                (
                    "input error",
                    fast.1.max_abs_diff(&gold.1),
                    bound(oc * taps, d * k),
                ),
                (
                    "weight gradient",
                    fast.2.max_abs_diff(&gold.2),
                    bound((oh * ow).max(ih * iw), x * d),
                ),
            ];
            for (what, diff, bound) in diffs {
                if diff.is_nan() || diff > bound {
                    return Err(format!(
                        "{what} pass strays {diff:e} from the golden nests (bound {bound:e})"
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Workload for Train {
    fn units_per_op(&self) -> f64 {
        self.batch as f64
    }

    fn min_ops(&self) -> usize {
        self.min_ops
    }

    fn op(&mut self) -> Result<(), String> {
        let (dis, gen) = self.trainer.train_iteration(self.batch, &mut self.rng);
        self.losses = (dis.dis_loss, gen.gen_loss);
        Ok(())
    }

    /// `train_iteration` at `n_critic: 1`, call by call.
    fn op_traced(&mut self, t: &mut Tracer) -> Result<(), String> {
        let id = t.enter("nn.trainer.sample");
        let reals = self
            .trainer
            .gan()
            .sample_real_batch(self.batch, &mut self.rng);
        t.exit(id);
        let id = t.enter("nn.trainer.dis_step");
        let dis = self.trainer.step_discriminator(&reals, &mut self.rng);
        t.exit(id);
        let id = t.enter("nn.trainer.gen_step");
        let gen = self.trainer.step_generator(self.batch, &mut self.rng);
        t.exit(id);
        self.losses = (dis.dis_loss, gen.gen_loss);
        Ok(())
    }

    fn check(&mut self, i: usize) -> Result<(), String> {
        let (d, g) = self.losses;
        if d.is_finite() && g.is_finite() {
            Ok(())
        } else {
            Err(format!("op {i}: losses are not finite (dis {d}, gen {g})"))
        }
    }

    /// Every weight and bias of both networks, bit for bit, with the
    /// latest losses.
    fn digest(&mut self) -> u64 {
        let mut h = Fnv64::default();
        let gan = self.trainer.gan();
        for net in [gan.generator(), gan.discriminator()] {
            for layer in net.layers() {
                h.f32s(layer.weights().as_slice());
                h.f32s(layer.bias());
            }
        }
        h.u64(self.losses.0.to_bits());
        h.u64(self.losses.1.to_bits());
        h.0
    }

    fn replay(&mut self, t: &mut Tracer, slice: Duration) -> Layers {
        let mut values = BTreeMap::new();
        let per_group = slice / 4;
        let batch = self.batch as f64;
        // The replay works on a copy, so the ops' trajectory is untouched.
        let gan = self.trainer.gan().clone();
        let (gen, dis) = (gan.generator(), gan.discriminator());
        let mut ws = ConvWorkspace::<f32>::new();
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        let z = gan.sample_z_batch(1, &mut rng).remove(0);
        let image = gan.sample_real_batch(1, &mut rng).remove(0);

        // nn.network: one sample through both networks, forward and back.
        let (_, oh, ow) = dis.out_shape();
        let mut delta_out = Fmaps::zeros(dis.out_shape().0, oh, ow);
        delta_out.as_mut_slice().fill(1.0);
        let mut kept: Option<(Vec<LayerGrads>, Vec<LayerGrads>)> = None;
        rounds(per_group, 3, || {
            let id = t.enter("nn.network.gen_forward");
            let gt = gen
                .forward_ws(&z, &mut ws)
                .expect("z has the generator's shape");
            t.exit(id);
            let id = t.enter("nn.network.dis_forward");
            let dt = dis
                .forward_ws(gt.output(), &mut ws)
                .expect("generated image has the critic's shape");
            t.exit(id);
            let id = t.enter("nn.network.dis_backward");
            let (gd, dx) = dis
                .backward_ws(&dt, &delta_out, &mut ws)
                .expect("delta has the critic's output shape");
            t.exit(id);
            let id = t.enter("nn.network.gen_backward");
            let (gg, dz) = gen
                .backward_ws(&gt, &dx, &mut ws)
                .expect("image error has the generator's output shape");
            t.exit(id);
            ws.give_fmaps(dx);
            ws.give_fmaps(dz);
            gt.recycle(&mut ws);
            dt.recycle(&mut ws);
            if let Some((d, g)) = kept.replace((gd, gg)) {
                for grads in d.into_iter().chain(g) {
                    grads.recycle(&mut ws);
                }
            }
        });

        // nn.optimizer: both networks' update on the gradients just made.
        let (grads_d, grads_g) = kept.expect("the network replay ran at least once");
        let config = *self.trainer.config();
        let mut stepped = gan.clone();
        let mut opt_d = Optimizer::new(config.optimizer, config.learning_rate, dis);
        let mut opt_g = Optimizer::new(config.optimizer, config.learning_rate, gen);
        rounds(per_group / 2, 3, || {
            let id = t.enter("nn.optimizer.step");
            opt_d.step(stepped.discriminator_mut(), &grads_d);
            opt_g.step(stepped.generator_mut(), &grads_g);
            t.exit(id);
        });
        let params = (gen.param_count() + dis.param_count()) as f64;
        values.insert(
            "nn.optimizer.ns_per_param",
            p10_ms(t, "nn.optimizer.step") * 1e6 / params,
        );

        // tensor.backend: the six workspace entries of the training
        // backend, each summed over the layers of both networks.
        let mut cases = layer_cases(gen, &z, &mut rng).expect("z has the generator's shape");
        cases.extend(layer_cases(dis, &image, &mut rng).expect("image has the critic's shape"));
        let conv_spans = [
            ("tensor.backend.s_conv", Direction::Down, 0),
            ("tensor.backend.t_conv", Direction::Up, 0),
            ("tensor.backend.s_input_grad", Direction::Down, 1),
            ("tensor.backend.t_input_grad", Direction::Up, 1),
            ("tensor.backend.w_conv_s", Direction::Down, 2),
            ("tensor.backend.w_conv_t", Direction::Up, 2),
        ];
        rounds(per_group, 3, || {
            for (name, dir, which) in conv_spans {
                let id = t.enter(name);
                for c in cases.iter().filter(|c| c.layer.direction() == dir) {
                    let (l, b) = (c.layer, c.layer.backend());
                    let (_, ih, iw) = l.in_shape();
                    match (dir, which) {
                        (Direction::Down, 0) => {
                            let out = b
                                .s_conv_ws(&c.input, l.weights(), l.geom(), &mut ws)
                                .expect("layer shapes");
                            ws.give_fmaps(out);
                        }
                        (Direction::Up, 0) => {
                            let out = b
                                .t_conv_ws(&c.input, l.weights(), l.geom(), &mut ws)
                                .expect("layer shapes");
                            ws.give_fmaps(out);
                        }
                        (Direction::Down, 1) => {
                            let out = b
                                .s_conv_input_grad_ws(
                                    &c.delta,
                                    l.weights(),
                                    l.geom(),
                                    ih,
                                    iw,
                                    &mut ws,
                                )
                                .expect("layer shapes");
                            ws.give_fmaps(out);
                        }
                        (Direction::Up, 1) => {
                            let out = b
                                .t_conv_input_grad_ws(&c.delta, l.weights(), l.geom(), &mut ws)
                                .expect("layer shapes");
                            ws.give_fmaps(out);
                        }
                        (Direction::Down, _) => {
                            let out = b
                                .w_conv_for_s_layer_ws(&c.input, &c.delta, l.geom(), &mut ws)
                                .expect("layer shapes");
                            ws.give_kernels(out);
                        }
                        (Direction::Up, _) => {
                            let out = b
                                .w_conv_for_t_layer_ws(&c.input, &c.delta, l.geom(), &mut ws)
                                .expect("layer shapes");
                            ws.give_kernels(out);
                        }
                    }
                }
                t.exit(id);
            }
        });
        let conv_ms: f64 = conv_spans.iter().map(|(name, _, _)| p10_ms(t, name)).sum();
        let conv_macs = 3.0 * cases.iter().map(|c| c.macs as f64).sum::<f64>();
        values.insert("tensor.backend.ns_per_mac", conv_ms * 1e6 / conv_macs);

        // tensor.lowering and tensor.gemm: the forward lowerings of both
        // networks (im2col for S-CONV, the zero-free phase operands for
        // T-CONV) and the default GEMM on exactly those (m, k, n).
        let mut gemm_macs = 0.0;
        let mut fill_bytes = 0.0;
        rounds(per_group, 3, || {
            let id = t.enter("tensor.lowering.fill");
            let mut operands: Vec<(Matrix<f32>, Matrix<f32>, f64)> = Vec::new();
            for c in &cases {
                // A train op runs the generator forward 2·batch times and
                // the critic forward 3·batch times.
                let (l, per_op) = (c.layer, batch);
                match l.direction() {
                    Direction::Down => operands.push((
                        im2col_s_ws(&c.input, l.geom(), &mut ws).patches,
                        weights_as_matrix_s_ws(l.weights(), &mut ws),
                        3.0 * per_op,
                    )),
                    Direction::Up => operands.extend(
                        t_zero_free_gemm_operands(&c.input, l.weights(), l.geom())
                            .expect("layer shapes")
                            .into_iter()
                            .map(|(a, b)| (a, b, 2.0 * per_op)),
                    ),
                }
            }
            t.exit(id);
            let id = t.enter("tensor.gemm.matmul");
            for (a, b, _) in &operands {
                let mut out = ws.take_matrix(a.rows(), b.cols());
                gemm::matmul_blocked_into(a, b, &mut out).expect("lowered operands agree");
                ws.give_matrix(out);
            }
            t.exit(id);
            gemm_macs = operands
                .iter()
                .map(|(a, b, _)| (a.rows() * a.cols() * b.cols()) as f64)
                .sum();
            fill_bytes = operands
                .iter()
                .map(|(a, b, calls)| 4.0 * calls * (a.as_slice().len() + b.as_slice().len()) as f64)
                .sum();
            for (a, b, _) in operands {
                ws.give_matrix(a);
                ws.give_matrix(b);
            }
        });
        let gemm_ms = p10_ms(t, "tensor.gemm.matmul");
        values.insert("tensor.gemm.ns_per_mac", gemm_ms * 1e6 / gemm_macs);
        values.insert("tensor.gemm.gflops", 2.0 * gemm_macs / (gemm_ms * 1e6));
        values.insert("tensor.lowering.bytes_per_op", fill_bytes);

        // The deterministic GEMM counters of one op, read through a scoped
        // registry (the default backend runs on the calling thread).
        let reg = Arc::new(Registry::new());
        {
            let _scope = zfgan_telemetry::scope(Arc::clone(&reg));
            self.op().expect("a train op cannot fail");
        }
        for (name, counter_name, label) in [
            ("tensor.gemm.calls_per_op", "gemm_calls", None),
            (
                "tensor.gemm.dispatch_packed_per_op",
                "gemm_dispatch",
                Some(("path", "packed")),
            ),
            (
                "tensor.gemm.dispatch_ikj_per_op",
                "gemm_dispatch",
                Some(("path", "ikj")),
            ),
            (
                "tensor.gemm.dispatch_smallm_per_op",
                "gemm_dispatch",
                Some(("path", "smallm")),
            ),
            (
                "tensor.gemm.operand_words_per_op",
                "gemm_operand_words",
                None,
            ),
            (
                "tensor.gemm.zero_skipped_words_per_op",
                "gemm_zero_skipped_words",
                None,
            ),
        ] {
            values.insert(name, counter(&reg, counter_name, label));
        }
        values.insert(
            "tensor.workspace.free_elems",
            self.trainer.workspace().free_elems() as f64,
        );

        Layers {
            values,
            attribution: vec![
                ("nn.trainer.sample", 1.0),
                ("nn.network.gen_forward", 2.0 * batch),
                ("nn.network.dis_forward", 3.0 * batch),
                ("nn.network.dis_backward", 3.0 * batch),
                ("nn.network.gen_backward", batch),
                ("nn.optimizer.step", 1.0),
            ],
        }
    }
}

// ---------------------------------------------------------------------------
// Layers both DSE workloads and the executors replay
// ---------------------------------------------------------------------------

/// `pool`: dispatch cost of an empty task, and how much of the pool's
/// width a fixed spin task gets.
fn replay_pool(t: &mut Tracer, slice: Duration, values: &mut BTreeMap<&'static str, f64>) {
    const EMPTY_TASKS: usize = 1024;
    fn spin(seed: usize) -> u64 {
        let mut x = seed as u64 | 1;
        for _ in 0..200_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        x
    }
    let threads = zfgan_pool::pool_threads();
    let tasks = 8 * threads;
    rounds(slice, 5, || {
        let id = t.enter("pool.parallel_map.empty");
        black_box(zfgan_pool::parallel_map(EMPTY_TASKS, |i| i).expect("no task panics"));
        t.exit(id);
        let id = t.enter("pool.parallel_map.sequential");
        black_box((0..tasks).map(spin).collect::<Vec<_>>());
        t.exit(id);
        let id = t.enter("pool.parallel_map.spin");
        black_box(zfgan_pool::parallel_map(tasks, spin).expect("no task panics"));
        t.exit(id);
    });
    values.insert(
        "pool.parallel_map.empty_task_us",
        p10_ms(t, "pool.parallel_map.empty") * 1e3 / EMPTY_TASKS as f64,
    );
    values.insert(
        "pool.parallel_map.efficiency",
        p10_ms(t, "pool.parallel_map.sequential")
            / (p10_ms(t, "pool.parallel_map.spin") * threads as f64),
    );
}

/// The payloads a cell cache holds, read back through the store.
fn cached_payloads(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut store = Store::open(dir, StoreConfig::default()).expect("cache directory opens");
    let mut keys: Vec<String> = std::fs::read_dir(dir)
        .expect("cache directory lists")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    keys.sort();
    keys.into_iter()
        .filter_map(|k| {
            let loaded = store.load_latest(&k).ok().flatten()?;
            Some((k, loaded.payload))
        })
        .collect()
}

/// `store` and `serde_json` on real cell payloads: publish each under a
/// fresh key (as a cold batch does), load it back, parse and re-encode it.
fn replay_store_and_json(
    t: &mut Tracer,
    slice: Duration,
    payloads: &[(String, Vec<u8>)],
    scratch: &Path,
    values: &mut BTreeMap<&'static str, f64>,
) {
    let dir = scratch.join("store-replay");
    let mut store = Store::open(&dir, StoreConfig::default()).expect("replay store opens");
    let mut round = 0usize;
    rounds(slice / 2, 2, || {
        for (k, (_, payload)) in payloads.iter().enumerate() {
            let key = format!("replay-{round}-{k}");
            let id = t.enter("store.publish");
            store
                .publish(&key, k as u64, payload)
                .expect("replay publish succeeds");
            t.exit(id);
            let id = t.enter("store.load");
            let loaded = store.load_latest_for(&key, k as u64);
            t.exit(id);
            assert!(
                matches!(loaded, Ok(Some(l)) if l.payload == *payload),
                "a published payload loads back unchanged"
            );
        }
        round += 1;
    });
    let _ = std::fs::remove_dir_all(&dir);
    let publishes = stats::sorted(&t.durations_ms("store.publish"));
    values.insert("store.publish_p90_ms", stats::percentile(&publishes, 0.9));
    let bytes: usize = payloads.iter().map(|(_, p)| p.len()).sum();
    values.insert("store.publish_bytes", bytes as f64 / payloads.len() as f64);

    let texts: Vec<&str> = payloads
        .iter()
        .map(|(_, p)| std::str::from_utf8(p).expect("cell payloads are JSON text"))
        .collect();
    rounds(slice / 2, 3, || {
        let id = t.enter("serde_json.from_str");
        let parsed: Vec<serde_json::Value> = texts
            .iter()
            .map(|s| serde_json::from_str(s).expect("cell payloads parse"))
            .collect();
        t.exit(id);
        let id = t.enter("serde_json.to_string");
        for v in &parsed {
            black_box(serde_json::to_string(v).expect("values encode"));
        }
        t.exit(id);
    });
    values.insert(
        "serde_json.from_str_ns_per_byte",
        p10_ms(t, "serde_json.from_str") * 1e6 / bytes as f64,
    );
    values.insert(
        "serde_json.to_string_ns_per_byte",
        p10_ms(t, "serde_json.to_string") * 1e6 / bytes as f64,
    );
}

/// The `dse_*_total` counters one batch left in `reg`.
fn dse_counters(reg: &Registry, values: &mut BTreeMap<&'static str, f64>) {
    for (name, counter_name) in [
        ("dse.cells_per_op", "dse_cells_total"),
        ("dse.cache_hits_per_op", "dse_cache_hits_total"),
        ("dse.cache_misses_per_op", "dse_cache_misses_total"),
        ("dse.published_per_op", "dse_published_total"),
    ] {
        values.insert(name, counter(reg, counter_name, None));
    }
}

// ---------------------------------------------------------------------------
// dse_explore_cold
// ---------------------------------------------------------------------------

/// `(spec index, design, update, PE budget)`.
type Cell = (usize, Design, PhaseSeq, usize);
type SearchKey = (ArchKind, usize, Vec<ConvShape>);

struct Explore {
    specs: Vec<GanSpec>,
    designs: Vec<Design>,
    /// A seeded permutation of 512..=4096: no budget is drawn twice, so the
    /// process-wide unroll-search memo cannot serve a repeated op.
    budgets: Vec<usize>,
    ops: usize,
    scratch: Scratch,
    last: Option<(PathBuf, usize, Batch<DesignReport>)>,
    /// Every unroll-search key this process has asked for.
    searched: HashSet<SearchKey>,
    fresh_searches: usize,
    digest: Fnv64,
}

/// Budgets at the end of the permutation kept for set-up and the replay.
const EXPLORE_RESERVE: usize = 64;

impl Explore {
    fn setup(seed: u64) -> Result<Setup, String> {
        let mut w = Explore {
            specs: GanSpec::all_paper_gans(),
            designs: Design::paper_designs(),
            budgets: stats::permutation(seed, 512, 4096),
            ops: 0,
            scratch: Scratch::new("dse_explore_cold")?,
            last: None,
            searched: HashSet::new(),
            fresh_searches: 0,
            digest: Fnv64::default(),
        };
        // One op on a reserved budget spawns the pool and touches every
        // code path before timing starts.
        let warm = w.budgets[w.budgets.len() - 1];
        let dir = w.scratch.path().join("warm-up");
        let batch = w.batch(Some(&dir), warm);
        w.last = Some((dir, warm, batch));
        let checking = Instant::now();
        w.check(0)?;
        w.digest = Fnv64::default();
        Ok(Setup {
            workload: Box::new(w),
            check_s: checking.elapsed().as_secs_f64(),
        })
    }

    fn cells(&self, pes: usize) -> Vec<Cell> {
        let mut cells = Vec::with_capacity(30);
        for spec in 0..self.specs.len() {
            for &design in &self.designs {
                for seq in [PhaseSeq::DisUpdate, PhaseSeq::GenUpdate] {
                    cells.push((spec, design, seq, pes));
                }
            }
        }
        cells
    }

    fn evaluate(&self, c: &Cell) -> DesignReport {
        c.1.evaluate(&self.specs[c.0], c.2, SyncPolicy::Deferred, c.3)
    }

    fn batch(&self, cache: Option<&Path>, pes: usize) -> Batch<DesignReport> {
        let mut cfg = DseConfig::new("explore");
        cfg.cache_dir = cache.map(Path::to_path_buf);
        run_batch(
            &cfg,
            &self.cells(pes),
            |c| {
                format!(
                    "{}|{}|{:?}|{}",
                    self.specs[c.0].name(),
                    c.1.name(),
                    c.2,
                    c.3
                )
            },
            |c| self.evaluate(c),
        )
    }

    /// The unroll searches `Design::evaluate` asks for on one cell: one
    /// per phase kind present, on the whole budget for a unique design and
    /// on the Eq. 8 split for a combinational one.
    fn search_keys(&self, c: &Cell) -> Vec<SearchKey> {
        let (spec, design, seq, pes) = (&self.specs[c.0], c.1, c.2, c.3);
        let (st, w) = (spec.st_phases(seq), spec.w_phases(seq));
        let tuned: Vec<(ArchKind, usize, Vec<ConvShape>)> = match design {
            Design::Unique(arch) => vec![(arch, pes, [st, w].concat())],
            Design::Combo {
                st: st_arch,
                w: w_arch,
            } => {
                let st_pes = ((pes as f64) * AccelConfig::ST_TO_W_RATIO / 3.5).round() as usize;
                vec![(st_arch, st_pes, st), (w_arch, pes - st_pes, w)]
            }
        };
        let mut keys = Vec::new();
        for (arch, budget, phases) in tuned {
            for kind in [ConvKind::S, ConvKind::T, ConvKind::WGradS, ConvKind::WGradT] {
                let subset: Vec<ConvShape> = phases
                    .iter()
                    .filter(|p| p.kind() == kind)
                    .copied()
                    .collect();
                if !subset.is_empty() {
                    keys.push((arch, budget, subset));
                }
            }
        }
        keys
    }
}

impl Workload for Explore {
    fn units_per_op(&self) -> f64 {
        (self.specs.len() * self.designs.len() * 2) as f64
    }

    fn min_ops(&self) -> usize {
        32
    }

    fn max_ops(&self) -> usize {
        self.budgets.len() - EXPLORE_RESERVE
    }

    fn op(&mut self) -> Result<(), String> {
        let pes = self.budgets[self.ops];
        let dir = self.scratch.path().join(format!("op{}", self.ops));
        self.ops += 1;
        let batch = self.batch(Some(&dir), pes);
        self.last = Some((dir, pes, batch));
        Ok(())
    }

    fn op_traced(&mut self, t: &mut Tracer) -> Result<(), String> {
        let id = t.enter("dse.run_batch");
        let r = self.op();
        t.exit(id);
        r
    }

    fn check(&mut self, i: usize) -> Result<(), String> {
        let (dir, pes, cold) = self.last.take().ok_or("no batch to check")?;
        if cold.unique != self.cells(pes).len() {
            return Err(format!("op {i}: {} unique cells", cold.unique));
        }
        // A warm re-run must serve byte-identical cells from the cache.
        let warm = self.batch(Some(&dir), pes);
        let same =
            cold.cells.len() == warm.cells.len()
                && cold.cells.iter().zip(&warm.cells).all(|(a, b)| {
                    a.key == b.key && a.result_json == b.result_json && a.det == b.det
                });
        if !same {
            return Err(format!("op {i}: warm re-run differs from the cold batch"));
        }
        if self.ops <= 1 && cold.results != self.batch(None, pes).results {
            return Err(format!(
                "op {i}: cached results differ from a cache-less recompute"
            ));
        }
        std::fs::remove_dir_all(&dir).map_err(|e| format!("op {i}: {e}"))?;
        // The op must have paid for its unroll searches, or it measured
        // the memo and not the search.
        self.fresh_searches = 0;
        for c in self.cells(pes) {
            for key in self.search_keys(&c) {
                self.fresh_searches += usize::from(self.searched.insert(key));
            }
        }
        if self.fresh_searches == 0 {
            return Err(format!("op {i}: every unroll search was already memoized"));
        }
        for cell in &cold.cells {
            self.digest.bytes(cell.key.as_bytes());
            self.digest.bytes(cell.result_json.as_bytes());
        }
        Ok(())
    }

    fn digest(&mut self) -> u64 {
        self.digest.0
    }

    fn replay(&mut self, t: &mut Tracer, slice: Duration) -> Layers {
        let mut values = BTreeMap::new();
        let per_group = slice / 4;

        // One more op under a scoped registry: `run_batch` counts on the
        // calling thread. Its cache is harvested for real payloads before
        // the check removes it.
        let reg = Arc::new(Registry::new());
        {
            let _scope = zfgan_telemetry::scope(Arc::clone(&reg));
            self.op().expect("a batch cannot fail");
        }
        dse_counters(&reg, &mut values);
        let dir = self.last.as_ref().expect("the op left its batch").0.clone();
        let payloads = cached_payloads(&dir);
        self.check(0).expect("the replayed op checks out");
        values.insert(
            "dataflow.unroll.searches_per_op",
            self.fresh_searches as f64,
        );

        // accel.design and dataflow.unroll on budgets no op has used, so
        // every search misses the memo. The reserve bounds the rounds.
        let reserve: Vec<usize> = self.budgets[self.max_ops()..self.budgets.len() - 1].to_vec();
        let dcgan = GanSpec::dcgan();
        let phases = dcgan.phase_set(ConvKind::S);
        let archs = [
            ArchKind::Ost,
            ArchKind::Zfwst,
            ArchKind::Zfost,
            ArchKind::Nlr,
        ];
        let started = Instant::now();
        for (n, &pes) in reserve.iter().enumerate() {
            if n >= 3 && started.elapsed() > per_group {
                break;
            }
            if n % 3 == 0 {
                let cells = self.cells(pes);
                let id = t.enter("accel.design.evaluate_all");
                for c in &cells {
                    black_box(self.evaluate(c));
                }
                t.exit(id);
            } else if n % 3 == 1 {
                // The op without its cache: searches, pool waves, per-cell
                // telemetry scope and JSON, but no store.
                let id = t.enter("dse.run_batch_nocache");
                black_box(self.batch(None, pes));
                t.exit(id);
            } else {
                let id = t.enter("dataflow.unroll.search_all");
                for arch in archs {
                    black_box(UnrollChoice::search(arch, pes, &phases));
                }
                t.exit(id);
                let tuned = PhaseTuned::tune(ArchKind::Zfost, pes, &phases);
                let id = t.enter("dataflow.schedule.schedule_all");
                black_box(tuned.schedule_all(&phases));
                t.exit(id);
            }
        }
        values.insert(
            "accel.design.evaluate_ms",
            p10_ms(t, "accel.design.evaluate_all") / self.units_per_op(),
        );
        values.insert(
            "dataflow.unroll.search_ms",
            p10_ms(t, "dataflow.unroll.search_all") / archs.len() as f64,
        );

        replay_store_and_json(t, per_group, &payloads, self.scratch.path(), &mut values);
        replay_pool(t, per_group / 2, &mut values);

        // telemetry: the byte-stable section `run_batch` renders per cell.
        let cell_reg = Arc::new(Registry::new());
        {
            let _scope = zfgan_telemetry::scope(Arc::clone(&cell_reg));
            black_box(self.evaluate(&self.cells(reserve[0])[0]));
        }
        rounds(per_group / 2, 5, || {
            let id = t.enter("telemetry.deterministic_section");
            black_box(zfgan_telemetry::export::deterministic_section(&cell_reg));
            t.exit(id);
        });

        let published = values.get("dse.published_per_op").copied().unwrap_or(0.0);
        Layers {
            values,
            attribution: vec![("store.publish", published), ("dse.run_batch_nocache", 1.0)],
        }
    }
}

// ---------------------------------------------------------------------------
// dse_paper_warm
// ---------------------------------------------------------------------------

struct Warm {
    cfg: DseConfig,
    scratch: Scratch,
    cold: [String; 5],
    last: Option<[String; 5]>,
    cells: usize,
}

/// The five paper sweeps through the engine: their streams and the number
/// of unique cells served.
fn paper_sweeps(cfg: &DseConfig) -> ([String; 5], usize) {
    let (a, b, c, d, e) = (
        fig15::run(cfg),
        fig16::run(cfg),
        fig17::run(cfg),
        fig18::run(cfg),
        fig19::run(cfg),
    );
    let cells = a.unique + b.unique + c.unique + d.unique + e.unique;
    ([a.stream, b.stream, c.stream, d.stream, e.stream], cells)
}

impl Warm {
    fn setup() -> Result<Setup, String> {
        let scratch = Scratch::new("dse_paper_warm")?;
        let mut cfg = DseConfig::new("paper");
        cfg.cache_dir = Some(scratch.path().join("cache"));
        // The cold first pass fills the cache; its streams are the oracle.
        let (cold, cells) = paper_sweeps(&cfg);
        let mut w = Warm {
            cfg,
            scratch,
            cold,
            last: None,
            cells,
        };
        for i in 0..3 {
            w.op()?;
            w.check(i)?;
        }
        Ok(Setup {
            workload: Box::new(w),
            check_s: 0.0,
        })
    }
}

impl Workload for Warm {
    fn units_per_op(&self) -> f64 {
        self.cells as f64
    }

    fn min_ops(&self) -> usize {
        200
    }

    fn op(&mut self) -> Result<(), String> {
        self.last = Some(paper_sweeps(&self.cfg).0);
        Ok(())
    }

    fn op_traced(&mut self, t: &mut Tracer) -> Result<(), String> {
        let id = t.enter("dse.run_batch");
        let r = self.op();
        t.exit(id);
        r
    }

    fn check(&mut self, i: usize) -> Result<(), String> {
        let warm = self.last.take().ok_or("no streams to check")?;
        if warm == self.cold {
            Ok(())
        } else {
            Err(format!("op {i}: a warm stream differs from the cold pass"))
        }
    }

    fn digest(&mut self) -> u64 {
        let mut h = Fnv64::default();
        for s in &self.cold {
            h.bytes(s.as_bytes());
        }
        h.0
    }

    fn replay(&mut self, t: &mut Tracer, slice: Duration) -> Layers {
        let mut values = BTreeMap::new();
        let per_group = slice / 3;

        let reg = Arc::new(Registry::new());
        {
            let _scope = zfgan_telemetry::scope(Arc::clone(&reg));
            self.op().expect("a sweep cannot fail");
        }
        self.check(0).expect("the replayed op checks out");
        dse_counters(&reg, &mut values);
        values.insert(
            "dse.sweeps.stream_bytes_per_op",
            self.cold.iter().map(String::len).sum::<usize>() as f64,
        );

        let cache = self.cfg.cache_dir.clone().expect("the workload caches");
        let payloads = cached_payloads(&cache);
        replay_store_and_json(t, per_group, &payloads, self.scratch.path(), &mut values);

        // The load side on the workload's own cache: every key, newest
        // generation, checksums verified.
        let mut store = Store::open(&cache, StoreConfig::default()).expect("cache opens");
        rounds(per_group, 3, || {
            for (key, _) in &payloads {
                let id = t.enter("store.load");
                black_box(store.load_latest(key).expect("cached cell loads"));
                t.exit(id);
            }
        });

        // dse.pareto: the incremental frontier over fig. 15's cells.
        let objectives: Vec<Objectives> = fig15::run(&self.cfg)
            .results
            .iter()
            .map(|c| Objectives {
                cycles: c.cycles,
                energy_pj: c.energy_pj,
                buffer_bytes: c.buffer_bytes,
            })
            .collect();
        rounds(per_group, 5, || {
            let id = t.enter("dse.pareto.insert_all");
            let mut frontier = ParetoFrontier::new();
            for (n, o) in objectives.iter().enumerate() {
                black_box(frontier.insert(&format!("cell-{n}"), *o));
            }
            t.exit(id);
        });
        values.insert(
            "dse.pareto.insert_us",
            p10_ms(t, "dse.pareto.insert_all") * 1e3 / objectives.len() as f64,
        );

        Layers {
            values,
            attribution: vec![
                ("store.load", self.cells as f64),
                ("serde_json.from_str", 1.0),
                ("dse.pareto.insert_all", 1.0),
            ],
        }
    }
}

// ---------------------------------------------------------------------------
// exec_zero_free
// ---------------------------------------------------------------------------

/// The outputs of the six zero-free executors.
struct Six {
    zfost_s: ExecOutcome<Fmaps<f32>>,
    zfost_t: ExecOutcome<Fmaps<f32>>,
    zfwst_s: ExecOutcome<Fmaps<f32>>,
    zfwst_t: ExecOutcome<Fmaps<f32>>,
    wgrad_s: ExecOutcome<Kernels<f32>>,
    wgrad_t: ExecOutcome<Kernels<f32>>,
}

impl Six {
    fn parts(&self) -> [(&'static str, u64, &[f32]); 6] {
        [
            (
                "zfost_s",
                self.zfost_s.cycles,
                self.zfost_s.output.as_slice(),
            ),
            (
                "zfost_t",
                self.zfost_t.cycles,
                self.zfost_t.output.as_slice(),
            ),
            (
                "zfwst_s",
                self.zfwst_s.cycles,
                self.zfwst_s.output.as_slice(),
            ),
            (
                "zfwst_t",
                self.zfwst_t.cycles,
                self.zfwst_t.output.as_slice(),
            ),
            (
                "wgrad_s",
                self.wgrad_s.cycles,
                self.wgrad_s.output.as_slice(),
            ),
            (
                "wgrad_t",
                self.wgrad_t.cycles,
                self.wgrad_t.output.as_slice(),
            ),
        ]
    }
}

/// The DCGAN-shaped phase of `benches/exec.rs`: 5×5 kernel, stride 2,
/// 16×16 ↔ 8×8, 16/32 channels.
struct Exec {
    zfost: Zfost,
    zfwst: Zfwst,
    s_phase: ConvShape,
    t_phase: ConvShape,
    ws_phase: ConvShape,
    wt_phase: ConvShape,
    big: Fmaps<f32>,
    small: Fmaps<f32>,
    k: Kernels<f32>,
    ws: ExecWorkspace<f32>,
    oracle: Six,
    last: Option<Six>,
    macs: u64,
}

impl Exec {
    fn setup(seed: u64) -> Result<Setup, String> {
        let geom = ConvGeom::down(16, 16, 5, 5, 2, 8, 8).map_err(|e| e.to_string())?;
        let (small_c, large_c) = (32usize, 16usize);
        let phase = |kind| ConvShape::new(kind, geom, small_c, large_c, 16, 16);
        let (s_phase, t_phase) = (phase(ConvKind::S), phase(ConvKind::T));
        let (ws_phase, wt_phase) = (phase(ConvKind::WGradS), phase(ConvKind::WGradT));
        let mut rng = SmallRng::seed_from_u64(seed);
        let big: Fmaps<f32> = Fmaps::random(large_c, 16, 16, 1.0, &mut rng);
        let small: Fmaps<f32> = Fmaps::random(small_c, 8, 8, 1.0, &mut rng);
        let k: Kernels<f32> = Kernels::random(small_c, large_c, 5, 5, 0.25, &mut rng);
        let (zfost, zfwst) = (Zfost::new(4, 4, 2), Zfwst::new(2, 2, 2));

        let checking = Instant::now();
        fn e<T>(r: Result<T, zfgan_tensor::ShapeError>) -> Result<T, String> {
            r.map_err(|e| e.to_string())
        }
        let oracle = Six {
            zfost_s: e(scalar::zfost_s_conv(&zfost, &s_phase, &big, &k))?,
            zfost_t: e(scalar::zfost_t_conv(&zfost, &t_phase, &small, &k))?,
            zfwst_s: e(scalar::zfwst_s_conv(&zfwst, &s_phase, &big, &k))?,
            zfwst_t: e(scalar::zfwst_t_conv(&zfwst, &t_phase, &small, &k))?,
            wgrad_s: e(scalar::zfwst_wgrad_s(&zfwst, &ws_phase, &big, &small))?,
            wgrad_t: e(scalar::zfwst_wgrad_t(&zfwst, &wt_phase, &small, &big))?,
        };
        let check_s = checking.elapsed().as_secs_f64();
        let macs = 2 * s_phase.effectual_macs()
            + 2 * t_phase.effectual_macs()
            + ws_phase.effectual_macs()
            + wt_phase.effectual_macs();
        let mut w = Exec {
            zfost,
            zfwst,
            s_phase,
            t_phase,
            ws_phase,
            wt_phase,
            big,
            small,
            k,
            ws: ExecWorkspace::new(),
            oracle,
            last: None,
            macs,
        };
        for i in 0..5 {
            w.op()?;
            w.check(i)?;
        }
        Ok(Setup {
            workload: Box::new(w),
            check_s,
        })
    }

    /// One call of each executor; `t` wraps each in its span.
    fn six(&mut self, mut t: Option<&mut Tracer>) -> Result<Six, String> {
        macro_rules! call {
            ($name:literal, $f:expr) => {{
                let id = t
                    .as_deref_mut()
                    .map(|t| t.enter(concat!("dataflow.exec.", $name)));
                let out = $f.map_err(|e| format!("{}: {e}", $name));
                if let (Some(t), Some(id)) = (t.as_deref_mut(), id) {
                    t.exit(id);
                }
                out?
            }};
        }
        let (ws, k) = (&mut self.ws, &self.k);
        Ok(Six {
            zfost_s: call!(
                "zfost_s",
                exec::zfost_s_conv_ws(&self.zfost, &self.s_phase, &self.big, k, ws)
            ),
            zfost_t: call!(
                "zfost_t",
                exec::zfost_t_conv_ws(&self.zfost, &self.t_phase, &self.small, k, ws)
            ),
            zfwst_s: call!(
                "zfwst_s",
                exec::zfwst_s_conv_ws(&self.zfwst, &self.s_phase, &self.big, k, ws)
            ),
            zfwst_t: call!(
                "zfwst_t",
                exec::zfwst_t_conv_ws(&self.zfwst, &self.t_phase, &self.small, k, ws)
            ),
            wgrad_s: call!(
                "wgrad_s",
                exec::zfwst_wgrad_s_ws(&self.zfwst, &self.ws_phase, &self.big, &self.small, ws)
            ),
            wgrad_t: call!(
                "wgrad_t",
                exec::zfwst_wgrad_t_ws(&self.zfwst, &self.wt_phase, &self.small, &self.big, ws)
            ),
        })
    }
}

impl Workload for Exec {
    fn units_per_op(&self) -> f64 {
        self.macs as f64
    }

    fn min_ops(&self) -> usize {
        200
    }

    fn op(&mut self) -> Result<(), String> {
        self.last = Some(self.six(None)?);
        Ok(())
    }

    fn op_traced(&mut self, t: &mut Tracer) -> Result<(), String> {
        self.last = Some(self.six(Some(t))?);
        Ok(())
    }

    /// Output bits and cycle counts against the scalar oracle; the outputs
    /// then go back to the workspace, which keeps the next op
    /// allocation-free.
    fn check(&mut self, i: usize) -> Result<(), String> {
        let got = self.last.take().ok_or("no outputs to check")?;
        let mut verdict = Ok(());
        for ((name, cycles, bits), (_, want_cycles, want_bits)) in
            got.parts().into_iter().zip(self.oracle.parts())
        {
            if cycles != want_cycles || !same_bits(bits, want_bits) {
                verdict = Err(format!("op {i}: {name} differs from the scalar oracle"));
            }
        }
        self.ws.give_fmaps(got.zfost_s.output);
        self.ws.give_fmaps(got.zfost_t.output);
        self.ws.give_fmaps(got.zfwst_s.output);
        self.ws.give_fmaps(got.zfwst_t.output);
        self.ws.give_kernels(got.wgrad_s.output);
        self.ws.give_kernels(got.wgrad_t.output);
        verdict
    }

    fn digest(&mut self) -> u64 {
        let mut h = Fnv64::default();
        for (_, cycles, bits) in self.oracle.parts() {
            h.u64(cycles);
            h.f32s(bits);
        }
        h.0
    }

    fn replay(&mut self, t: &mut Tracer, slice: Duration) -> Layers {
        let mut values = BTreeMap::new();
        let per_exec = slice / 12;
        let (zfost, zfwst) = (self.zfost, self.zfwst);
        let (ost, wst, nlr) = (Ost::new(4, 4, 2), Wst::new(4, 4, 2), Nlr::new(3, 5));
        let (s, tp, wsp, wtp) = (self.s_phase, self.t_phase, self.ws_phase, self.wt_phase);
        let (big, small, k) = (&self.big, &self.small, &self.k);
        let ws = &mut self.ws;

        // Each executor's fast engine (workspace form, output recycled)
        // against its scalar oracle on the same operands.
        macro_rules! pair {
            ($name:literal, $engine:expr, $scalar:expr) => {
                rounds(per_exec * 3 / 4, 5, || {
                    let id = t.enter(concat!("dataflow.exec.", $name));
                    $engine;
                    t.exit(id);
                });
                rounds(per_exec / 4, 3, || {
                    let id = t.enter(concat!("dataflow.exec.", $name, ".scalar"));
                    black_box($scalar.expect("operands match the phase"));
                    t.exit(id);
                });
                values.insert(
                    concat!("dataflow.exec.", $name, ".x_vs_scalar"),
                    p10_ms(t, concat!("dataflow.exec.", $name, ".scalar"))
                        / p10_ms(t, concat!("dataflow.exec.", $name)),
                );
            };
        }
        pair!(
            "zfost_s",
            {
                let out = exec::zfost_s_conv_ws(&zfost, &s, big, k, ws)
                    .expect("phase")
                    .output;
                ws.give_fmaps(out);
            },
            scalar::zfost_s_conv(&zfost, &s, big, k)
        );
        pair!(
            "zfost_t",
            {
                let out = exec::zfost_t_conv_ws(&zfost, &tp, small, k, ws)
                    .expect("phase")
                    .output;
                ws.give_fmaps(out);
            },
            scalar::zfost_t_conv(&zfost, &tp, small, k)
        );
        pair!(
            "zfwst_s",
            {
                let out = exec::zfwst_s_conv_ws(&zfwst, &s, big, k, ws)
                    .expect("phase")
                    .output;
                ws.give_fmaps(out);
            },
            scalar::zfwst_s_conv(&zfwst, &s, big, k)
        );
        pair!(
            "zfwst_t",
            {
                let out = exec::zfwst_t_conv_ws(&zfwst, &tp, small, k, ws)
                    .expect("phase")
                    .output;
                ws.give_fmaps(out);
            },
            scalar::zfwst_t_conv(&zfwst, &tp, small, k)
        );
        pair!(
            "wgrad_s",
            {
                let out = exec::zfwst_wgrad_s_ws(&zfwst, &wsp, big, small, ws)
                    .expect("phase")
                    .output;
                ws.give_kernels(out);
            },
            scalar::zfwst_wgrad_s(&zfwst, &wsp, big, small)
        );
        pair!(
            "wgrad_t",
            {
                let out = exec::zfwst_wgrad_t_ws(&zfwst, &wtp, small, big, ws)
                    .expect("phase")
                    .output;
                ws.give_kernels(out);
            },
            scalar::zfwst_wgrad_t(&zfwst, &wtp, small, big)
        );
        pair!(
            "ost_t",
            {
                let out = exec::ost_t_conv_ws(&ost, &tp, small, k, ws)
                    .expect("phase")
                    .0
                    .output;
                ws.give_fmaps(out);
            },
            scalar::ost_t_conv(&ost, &tp, small, k)
        );
        pair!(
            "wst_s",
            {
                let out = exec::wst_s_conv_ws(&wst, &s, big, k, ws)
                    .expect("phase")
                    .0
                    .output;
                ws.give_fmaps(out);
            },
            scalar::wst_s_conv(&wst, &s, big, k)
        );
        pair!(
            "nlr_s",
            {
                let out = exec::nlr_s_conv_ws(&nlr, &s, big, k, ws)
                    .expect("phase")
                    .0
                    .output;
                ws.give_fmaps(out);
            },
            scalar::nlr_s_conv(&nlr, &s, big, k)
        );
        // The traced engine against the untraced allocating form, the
        // cycle attribution over its trace, and the events it kept.
        const TRACE_CAPACITY: usize = 1 << 20;
        let mut events = 0.0;
        rounds(per_exec, 5, || {
            let id = t.enter("dataflow.exec.zfost_s.alloc");
            black_box(exec::zfost_s_conv(&zfost, &s, big, k).expect("phase"));
            t.exit(id);
            let id = t.enter("dataflow.exec.zfost_s.traced");
            let (out, trace) =
                exec::zfost_s_conv_traced(&zfost, &s, big, k, TRACE_CAPACITY).expect("phase");
            t.exit(id);
            let id = t.enter("dataflow.exec.attribute_cycles");
            let parts = attribute_cycles(&trace, out.cycles);
            t.exit(id);
            assert_eq!(
                parts.total(),
                out.cycles,
                "attribution partitions the cycles"
            );
            events = trace.len() as f64 + trace.evicted() as f64;
        });
        values.insert(
            "dataflow.exec.traced_overhead_share",
            p10_ms(t, "dataflow.exec.zfost_s.traced") / p10_ms(t, "dataflow.exec.zfost_s.alloc")
                - 1.0,
        );
        values.insert("sim.trace.events_per_op", events);
        values.insert(
            "dataflow.exec.sim_cycles_per_op",
            self.oracle.parts().iter().map(|p| p.1 as f64).sum(),
        );
        values.insert("dataflow.exec.sim_macs_per_op", self.macs as f64);

        replay_pool(t, per_exec * 2, &mut values);

        Layers {
            values,
            attribution: vec![
                ("dataflow.exec.zfost_s", 1.0),
                ("dataflow.exec.zfost_t", 1.0),
                ("dataflow.exec.zfwst_s", 1.0),
                ("dataflow.exec.zfwst_t", 1.0),
                ("dataflow.exec.wgrad_s", 1.0),
                ("dataflow.exec.wgrad_t", 1.0),
            ],
        }
    }
}
