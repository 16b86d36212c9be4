//! Backend selection for the three convolution families.
//!
//! [`ConvBackend`] picks how a convolution is *computed* without changing
//! what it computes. [`ConvBackend::GoldenDirect`] is the golden loop nests
//! in [`crate::conv`]. The two lowered backends
//! ([`ConvBackend::LoweredGemm`], [`ConvBackend::LoweredZeroFree`]) run on
//! the one GEMM engine ([`crate::gemm`]: packed for `f32`, the scalar
//! blocked kernel for `Fx` and `f64`) and are bit-identical to
//! *each other* for every pool width and SIMD level — how wide a GEMM runs
//! is the packed engine's own decision, not a backend — bit-identical to
//! golden for `Fx` and `f64` (see [`crate::zero_free`] for why skipping the
//! inserted zeros preserves bits), and within the fused-accumulation error
//! bound of golden for `f32` — the packed f32 kernel owns its accumulation
//! order (see [`crate::microkernel`]). The golden nests stay the oracle the
//! dataflow executors validate against; the lowered backends are what
//! training actually runs.

use serde::{Deserialize, Serialize};

use crate::error::TensorResult;
use crate::fmaps::Fmaps;
use crate::gemm::matmul_blocked;
use crate::im2col::{im2col_t_with_output_size, s_conv_via_gemm_ws, weights_as_matrix_t};
use crate::kernels::Kernels;
use crate::num::Num;
use crate::shape::ConvGeom;
use crate::workspace::ConvWorkspace;
use crate::zero_free::{self, PhaseKernels};
use crate::{conv, ShapeError};

/// How a convolution layer executes its forward and backward passes.
///
/// See the module docs for which variants are bit-identical to which;
/// they differ in speed and in whether the zero-inserting transformations
/// are materialised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConvBackend {
    /// The golden loop nests — the slow, obviously-correct oracle.
    GoldenDirect,
    /// `im2col + packed GEMM`, materialising inserted zeros the way
    /// Caffe's deconvolution path does (the paper's software baseline).
    LoweredGemm,
    /// Compact zero-free lowering + packed SIMD microkernel GEMM:
    /// inserted zeros are never built — the software mirror of
    /// ZFOST/ZFWST.
    LoweredZeroFree,
}

impl Default for ConvBackend {
    /// Zero-free is the default: it is bit-identical to the golden nests
    /// and strictly cheaper than the dense lowering.
    fn default() -> Self {
        ConvBackend::LoweredZeroFree
    }
}

// Every pass draws its transients from `ws` and returns them there, so
// with a long-lived workspace a steady-state call allocates nothing
// (pinned by `tests/zero_alloc.rs` on the default backend); a one-off call
// passes `&mut ConvWorkspace::new()`. `GoldenDirect` and the `LoweredGemm`
// zero-inserting T paths ignore the workspace: they are comparison
// baselines, not the training hot path, and keeping them allocating keeps
// their cost model honest.
impl ConvBackend {
    /// Strided convolution (`S-CONV`) — see [`crate::s_conv`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::s_conv`].
    pub fn s_conv_ws<T: Num>(
        self,
        input: &Fmaps<T>,
        k: &Kernels<T>,
        geom: &ConvGeom,
        ws: &mut ConvWorkspace<T>,
    ) -> TensorResult<Fmaps<T>> {
        match self {
            ConvBackend::GoldenDirect => conv::s_conv(input, k, geom),
            _ => s_conv_via_gemm_ws(input, k, geom, ws),
        }
    }

    /// Transposed convolution (`T-CONV`) — see [`crate::t_conv`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::t_conv`].
    pub fn t_conv_ws<T: Num>(
        self,
        input: &Fmaps<T>,
        k: &Kernels<T>,
        geom: &ConvGeom,
        ws: &mut ConvWorkspace<T>,
    ) -> TensorResult<Fmaps<T>> {
        match self {
            ConvBackend::GoldenDirect => conv::t_conv(input, k, geom),
            ConvBackend::LoweredGemm => {
                if k.n_of() != input.channels() {
                    return Err(ShapeError::new("kernel/input channel mismatch"));
                }
                t_conv_zero_inserted(input, k, geom, geom.up_out(input.height(), input.width()))
            }
            ConvBackend::LoweredZeroFree => {
                let (oh, ow) = geom.up_out(input.height(), input.width());
                zero_free::t_conv_zero_free(input, k, None, geom, (oh, ow), ws)
            }
        }
    }

    /// [`ConvBackend::t_conv_ws`] for a caller that owns the weights and
    /// keeps their gathered phase sub-kernels in `sub_kernels` (see
    /// [`PhaseKernels`]); backends that gather nothing ignore it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::t_conv`].
    pub fn t_conv_gathered_ws<T: Num>(
        self,
        input: &Fmaps<T>,
        k: &Kernels<T>,
        sub_kernels: &PhaseKernels<T>,
        geom: &ConvGeom,
        ws: &mut ConvWorkspace<T>,
    ) -> TensorResult<Fmaps<T>> {
        match self {
            ConvBackend::LoweredZeroFree => {
                let out_hw = geom.up_out(input.height(), input.width());
                zero_free::t_conv_zero_free(input, k, Some(sub_kernels), geom, out_hw, ws)
            }
            _ => self.t_conv_ws(input, k, geom, ws),
        }
    }

    /// Backward error pass of an `S-CONV` layer — see
    /// [`crate::s_conv_input_grad`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::s_conv_input_grad`].
    pub fn s_conv_input_grad_ws<T: Num>(
        self,
        delta_out: &Fmaps<T>,
        k: &Kernels<T>,
        geom: &ConvGeom,
        in_h: usize,
        in_w: usize,
        ws: &mut ConvWorkspace<T>,
    ) -> TensorResult<Fmaps<T>> {
        match self {
            ConvBackend::GoldenDirect => conv::s_conv_input_grad(delta_out, k, geom, in_h, in_w),
            ConvBackend::LoweredGemm => {
                if k.n_of() != delta_out.channels() {
                    return Err(ShapeError::new("kernel/error channel mismatch"));
                }
                t_conv_zero_inserted(delta_out, k, geom, (in_h, in_w))
            }
            ConvBackend::LoweredZeroFree => {
                zero_free::t_conv_zero_free(delta_out, k, None, geom, (in_h, in_w), ws)
            }
        }
    }

    /// [`ConvBackend::s_conv_input_grad_ws`] for a caller that owns the
    /// weights — the S-CONV twin of [`ConvBackend::t_conv_gathered_ws`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::s_conv_input_grad`].
    #[allow(clippy::too_many_arguments)]
    pub fn s_conv_input_grad_gathered_ws<T: Num>(
        self,
        delta_out: &Fmaps<T>,
        k: &Kernels<T>,
        sub_kernels: &PhaseKernels<T>,
        geom: &ConvGeom,
        in_h: usize,
        in_w: usize,
        ws: &mut ConvWorkspace<T>,
    ) -> TensorResult<Fmaps<T>> {
        match self {
            ConvBackend::LoweredZeroFree => {
                let sub = Some(sub_kernels);
                zero_free::t_conv_zero_free(delta_out, k, sub, geom, (in_h, in_w), ws)
            }
            _ => self.s_conv_input_grad_ws(delta_out, k, geom, in_h, in_w, ws),
        }
    }

    /// Backward error pass of a `T-CONV` layer — see
    /// [`crate::t_conv_input_grad`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::t_conv_input_grad`].
    pub fn t_conv_input_grad_ws<T: Num>(
        self,
        delta_out: &Fmaps<T>,
        k: &Kernels<T>,
        geom: &ConvGeom,
        ws: &mut ConvWorkspace<T>,
    ) -> TensorResult<Fmaps<T>> {
        match self {
            ConvBackend::GoldenDirect => conv::t_conv_input_grad(delta_out, k, geom),
            // A plain strided `im2col` of the error against the kernel tensor
            // read as `N_of × (N_if·K_h·K_w)`: operand for operand the
            // `S-CONV` lowering applied to the error maps. No zero-inserting
            // is involved in either formulation, so dense-lowered and
            // zero-free share one GEMM.
            _ => {
                if k.n_if() != delta_out.channels() {
                    return Err(ShapeError::new(format!(
                        "kernel's up-direction side is {} maps, error has {}",
                        k.n_if(),
                        delta_out.channels()
                    )));
                }
                s_conv_via_gemm_ws(delta_out, k, geom, ws)
            }
        }
    }

    /// `W-CONV` of an `S-CONV` layer — see [`crate::w_conv_for_s_layer`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::w_conv_for_s_layer`].
    pub fn w_conv_for_s_layer_ws<T: Num>(
        self,
        input: &Fmaps<T>,
        delta_out: &Fmaps<T>,
        geom: &ConvGeom,
        ws: &mut ConvWorkspace<T>,
    ) -> TensorResult<Kernels<T>> {
        match self {
            ConvBackend::GoldenDirect => conv::w_conv_for_s_layer(input, delta_out, geom),
            // Caffe computes exactly this GEMM — the dilated ("zero-
            // inserted in kernel") error operand never materialises — so
            // it serves the dense-lowered backend too.
            _ => zero_free::w_conv_s_via_gemm_ws(input, delta_out, geom, ws),
        }
    }

    /// `W-CONV` of a `T-CONV` layer — see [`crate::w_conv_for_t_layer`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::w_conv_for_t_layer`].
    pub fn w_conv_for_t_layer_ws<T: Num>(
        self,
        input: &Fmaps<T>,
        delta_out: &Fmaps<T>,
        geom: &ConvGeom,
        ws: &mut ConvWorkspace<T>,
    ) -> TensorResult<Kernels<T>> {
        match self {
            ConvBackend::GoldenDirect => conv::w_conv_for_t_layer(input, delta_out, geom),
            ConvBackend::LoweredGemm => {
                zero_free::w_conv_t_via_zero_insert_gemm(input, delta_out, geom)
            }
            ConvBackend::LoweredZeroFree => {
                zero_free::w_conv_t_zero_free_ws(input, delta_out, geom, ws)
            }
        }
    }

    /// [`ConvBackend::w_conv_for_s_layer_ws`] adding the gradient into the
    /// caller's accumulator, `acc[i] = acc[i] + grad[i]` — bit for bit what
    /// `acc.add_assign(&grad)` computes, but the lowered backends never
    /// build `grad` (see [`zero_free::w_conv_s_via_gemm_accumulate_ws`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::w_conv_for_s_layer`], plus an `acc` that
    /// is not shaped like the gradient.
    pub fn w_conv_for_s_layer_accumulate_ws<T: Num>(
        self,
        input: &Fmaps<T>,
        delta_out: &Fmaps<T>,
        geom: &ConvGeom,
        acc: &mut Kernels<T>,
        ws: &mut ConvWorkspace<T>,
    ) -> TensorResult<()> {
        match self {
            ConvBackend::GoldenDirect => {
                add_gradient(acc, &conv::w_conv_for_s_layer(input, delta_out, geom)?)
            }
            _ => zero_free::w_conv_s_via_gemm_accumulate_ws(input, delta_out, geom, acc, ws),
        }
    }

    /// [`ConvBackend::w_conv_for_t_layer_ws`] adding the gradient into the
    /// caller's accumulator — the T-layer twin of
    /// [`ConvBackend::w_conv_for_s_layer_accumulate_ws`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::w_conv_for_t_layer`], plus an `acc` that
    /// is not shaped like the gradient.
    pub fn w_conv_for_t_layer_accumulate_ws<T: Num>(
        self,
        input: &Fmaps<T>,
        delta_out: &Fmaps<T>,
        geom: &ConvGeom,
        acc: &mut Kernels<T>,
        ws: &mut ConvWorkspace<T>,
    ) -> TensorResult<()> {
        match self {
            ConvBackend::GoldenDirect | ConvBackend::LoweredGemm => add_gradient(
                acc,
                &self.w_conv_for_t_layer_ws(input, delta_out, geom, ws)?,
            ),
            ConvBackend::LoweredZeroFree => {
                zero_free::w_conv_t_zero_free_accumulate_ws(input, delta_out, geom, acc, ws)
            }
        }
    }
}

/// A `T-CONV` of size `oh × ow` (the S-layer input error is the same
/// computation) through zero-insert + `im2col + GEMM` — the Caffe
/// deconvolution cost model the dense-lowered backend keeps.
fn t_conv_zero_inserted<T: Num>(
    input: &Fmaps<T>,
    k: &Kernels<T>,
    geom: &ConvGeom,
    (oh, ow): (usize, usize),
) -> TensorResult<Fmaps<T>> {
    let lowered = im2col_t_with_output_size(input, geom, oh, ow);
    let product = matmul_blocked(&lowered.patches, &weights_as_matrix_t(k))?;
    let mut out = Fmaps::zeros(k.n_if(), oh, ow);
    for lf in 0..k.n_if() {
        for oy in 0..oh {
            for ox in 0..ow {
                *out.at_mut(lf, oy, ox) = *product.at(oy * ow + ox, lf);
            }
        }
    }
    Ok(out)
}

/// `acc += grad` for the baseline backends that build their gradient.
fn add_gradient<T: Num>(acc: &mut Kernels<T>, grad: &Kernels<T>) -> TensorResult<()> {
    zero_free::check_accumulator(acc, grad.shape())?;
    acc.add_assign(grad);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const ALL: [ConvBackend; 3] = [
        ConvBackend::GoldenDirect,
        ConvBackend::LoweredGemm,
        ConvBackend::LoweredZeroFree,
    ];

    /// The packed-microkernel family: bit-identical to each other, within
    /// the fused-accumulation bound of golden for f32.
    const PACKED: [ConvBackend; 2] = [ConvBackend::LoweredGemm, ConvBackend::LoweredZeroFree];

    fn geom() -> ConvGeom {
        ConvGeom::down(10, 10, 4, 4, 2, 5, 5).unwrap()
    }

    /// Loose fused-vs-unfused accumulation bound for these unit-magnitude
    /// operands and short (≤ 48-term) reductions.
    const ACC_BOUND: f64 = 1e-4;

    #[test]
    fn every_backend_matches_golden_on_every_family() {
        let mut rng = SmallRng::seed_from_u64(30);
        let g = geom();
        let ws = &mut ConvWorkspace::new();
        let x: Fmaps<f32> = Fmaps::random(3, 10, 10, 1.0, &mut rng);
        let k: Kernels<f32> = Kernels::random(4, 3, 4, 4, 1.0, &mut rng);
        let z: Fmaps<f32> = Fmaps::random(4, 5, 5, 1.0, &mut rng);
        let gold = ConvBackend::GoldenDirect;
        let golden = passes(gold, (&x, &z, &k), &g, ws);

        // On f64 every lowered backend reproduces golden bit for bit.
        let (xd, zd, kd) = (x.map(f64::from), z.map(f64::from), k.map(f64::from));
        let wsd = &mut ConvWorkspace::new();
        let golden_f64 = passes(gold, (&xd, &zd, &kd), &g, wsd);
        for b in PACKED {
            assert_eq!(golden_f64, passes(b, (&xd, &zd, &kd), &g, wsd), "{b:?}");
        }

        // The packed backends agree with each other bit for bit (the
        // single fused accumulation order) and with golden within the
        // accumulation bound.
        let packed = passes(ConvBackend::LoweredZeroFree, (&x, &z, &k), &g, ws);
        let (maps, grads) = (&golden.0, &golden.1);
        for (i, (gm, pm)) in maps.iter().zip(&packed.0).enumerate() {
            assert!(
                gm.max_abs_diff(pm) <= ACC_BOUND,
                "packed map pass {i} vs golden"
            );
        }
        for (i, (gw, pw)) in grads.iter().zip(&packed.1).enumerate() {
            assert!(
                gw.max_abs_diff(pw) <= ACC_BOUND,
                "packed W-CONV {i} vs golden"
            );
        }
        assert_eq!(
            packed,
            passes(ConvBackend::LoweredGemm, (&x, &z, &k), &g, ws)
        );
    }

    /// The six passes of backend `b` on a down layer `x → y` and an up
    /// layer `z → up` sharing `k`: maps `[s_conv, t_conv, s_input_grad,
    /// t_input_grad]` and gradients `[w_conv_s, w_conv_t]`. The backward
    /// passes read the golden forward results, so every backend sees the
    /// same operands.
    fn passes<T: Num>(
        b: ConvBackend,
        (x, z, k): (&Fmaps<T>, &Fmaps<T>, &Kernels<T>),
        g: &ConvGeom,
        ws: &mut ConvWorkspace<T>,
    ) -> ([Fmaps<T>; 4], [Kernels<T>; 2]) {
        let gold = ConvBackend::GoldenDirect;
        let y = gold.s_conv_ws(x, k, g, ws).unwrap();
        let up = gold.t_conv_ws(z, k, g, ws).unwrap();
        let (h, w) = (x.height(), x.width());
        (
            [
                b.s_conv_ws(x, k, g, ws).unwrap(),
                b.t_conv_ws(z, k, g, ws).unwrap(),
                b.s_conv_input_grad_ws(&y, k, g, h, w, ws).unwrap(),
                b.t_conv_input_grad_ws(&up, k, g, ws).unwrap(),
            ],
            [
                b.w_conv_for_s_layer_ws(x, &y, g, ws).unwrap(),
                b.w_conv_for_t_layer_ws(z, &up, g, ws).unwrap(),
            ],
        )
    }

    #[test]
    fn workspace_variants_match_allocating_ones_on_every_backend() {
        let mut rng = SmallRng::seed_from_u64(31);
        let g = geom();
        let x: Fmaps<f32> = Fmaps::random(3, 10, 10, 1.0, &mut rng);
        let k: Kernels<f32> = Kernels::random(4, 3, 4, 4, 1.0, &mut rng);
        let z: Fmaps<f32> = Fmaps::random(4, 5, 5, 1.0, &mut rng);
        let mut ws: ConvWorkspace<f32> = ConvWorkspace::new();
        // Two rounds through one workspace: round two runs on recycled
        // (dirty) buffers, which is the state the zero-fill rules protect;
        // a fresh workspace per pass is the allocating baseline.
        for round in 0..2 {
            for b in ALL {
                let fresh = passes(b, (&x, &z, &k), &g, &mut ConvWorkspace::new());
                assert_eq!(
                    fresh,
                    passes(b, (&x, &z, &k), &g, &mut ws),
                    "{b:?} r{round}"
                );
            }
        }
    }

    #[test]
    fn default_is_zero_free() {
        assert_eq!(ConvBackend::default(), ConvBackend::LoweredZeroFree);
    }

    #[test]
    fn backends_propagate_shape_errors() {
        let g = geom();
        let x: Fmaps<f32> = Fmaps::zeros(2, 10, 10);
        let k: Kernels<f32> = Kernels::zeros(4, 3, 4, 4);
        let ws = &mut ConvWorkspace::new();
        for b in ALL {
            assert!(b.s_conv_ws(&x, &k, &g, ws).is_err(), "{b:?}");
            assert!(b.t_conv_ws(&x, &k, &g, ws).is_err(), "{b:?}");
        }
    }
}
