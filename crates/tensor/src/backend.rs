//! Backend selection for the three convolution families.
//!
//! [`ConvBackend`] picks how a convolution is *computed* without changing
//! what it computes. [`ConvBackend::GoldenDirect`] is the golden loop nests
//! in [`crate::conv`]. The two lowered backends
//! ([`ConvBackend::LoweredGemm`], [`ConvBackend::LoweredZeroFree`]) run on
//! the one packed GEMM engine ([`crate::gemm`]) and are bit-identical to
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
use crate::zero_free::{self, PhaseKernelCache};
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

// Each allocating method runs its workspace-fed sibling over a fresh
// workspace. With a long-lived workspace the transients come from (and
// return to) `ws`, so a steady-state call allocates nothing (pinned by
// `tests/zero_alloc.rs` on the default backend). `GoldenDirect` and the
// `LoweredGemm` zero-inserting T paths ignore the workspace: they are
// comparison baselines, not the training hot path, and keeping them
// allocating keeps their cost model honest.
impl ConvBackend {
    /// Strided convolution (`S-CONV`) — see [`crate::s_conv`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::s_conv`].
    pub fn s_conv<T: Num>(
        self,
        input: &Fmaps<T>,
        k: &Kernels<T>,
        geom: &ConvGeom,
    ) -> TensorResult<Fmaps<T>> {
        self.s_conv_ws(input, k, geom, &mut ConvWorkspace::new())
    }

    /// Transposed convolution (`T-CONV`) — see [`crate::t_conv`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::t_conv`].
    pub fn t_conv<T: Num>(
        self,
        input: &Fmaps<T>,
        k: &Kernels<T>,
        geom: &ConvGeom,
    ) -> TensorResult<Fmaps<T>> {
        self.t_conv_ws(input, k, geom, &mut ConvWorkspace::new())
    }

    /// Backward error pass of an `S-CONV` layer — see
    /// [`crate::s_conv_input_grad`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::s_conv_input_grad`].
    pub fn s_conv_input_grad<T: Num>(
        self,
        delta_out: &Fmaps<T>,
        k: &Kernels<T>,
        geom: &ConvGeom,
        in_h: usize,
        in_w: usize,
    ) -> TensorResult<Fmaps<T>> {
        let ws = &mut ConvWorkspace::new();
        self.s_conv_input_grad_ws(delta_out, k, geom, in_h, in_w, ws)
    }

    /// Backward error pass of a `T-CONV` layer — see
    /// [`crate::t_conv_input_grad`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::t_conv_input_grad`].
    pub fn t_conv_input_grad<T: Num>(
        self,
        delta_out: &Fmaps<T>,
        k: &Kernels<T>,
        geom: &ConvGeom,
    ) -> TensorResult<Fmaps<T>> {
        self.t_conv_input_grad_ws(delta_out, k, geom, &mut ConvWorkspace::new())
    }

    /// `W-CONV` of an `S-CONV` layer — see [`crate::w_conv_for_s_layer`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::w_conv_for_s_layer`].
    pub fn w_conv_for_s_layer<T: Num>(
        self,
        input: &Fmaps<T>,
        delta_out: &Fmaps<T>,
        geom: &ConvGeom,
    ) -> TensorResult<Kernels<T>> {
        self.w_conv_for_s_layer_ws(input, delta_out, geom, &mut ConvWorkspace::new())
    }

    /// `W-CONV` of a `T-CONV` layer — see [`crate::w_conv_for_t_layer`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::w_conv_for_t_layer`].
    pub fn w_conv_for_t_layer<T: Num>(
        self,
        input: &Fmaps<T>,
        delta_out: &Fmaps<T>,
        geom: &ConvGeom,
    ) -> TensorResult<Kernels<T>> {
        self.w_conv_for_t_layer_ws(input, delta_out, geom, &mut ConvWorkspace::new())
    }

    /// [`ConvBackend::s_conv`] with transients drawn from the workspace.
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

    /// [`ConvBackend::t_conv`] with transients drawn from the workspace.
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
            ConvBackend::LoweredZeroFree => zero_free::t_conv_zero_free_ws(input, k, geom, ws),
        }
    }

    /// [`ConvBackend::t_conv_ws`] for a caller that owns the weights and
    /// keeps their gathered phase sub-kernels in `sub_kernels` (see
    /// [`PhaseKernelCache`]); backends that gather nothing ignore it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::t_conv`].
    pub fn t_conv_cached_ws<T: Num>(
        self,
        input: &Fmaps<T>,
        k: &Kernels<T>,
        sub_kernels: &PhaseKernelCache<T>,
        geom: &ConvGeom,
        ws: &mut ConvWorkspace<T>,
    ) -> TensorResult<Fmaps<T>> {
        match self {
            ConvBackend::LoweredZeroFree => {
                let (oh, ow) = geom.up_out(input.height(), input.width());
                zero_free::t_conv_zero_free_cached_ws(input, k, sub_kernels, geom, oh, ow, ws)
            }
            _ => self.t_conv_ws(input, k, geom, ws),
        }
    }

    /// [`ConvBackend::s_conv_input_grad`] with transients drawn from the
    /// workspace.
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
                zero_free::t_conv_zero_free_sized_ws(delta_out, k, geom, in_h, in_w, ws)
            }
        }
    }

    /// [`ConvBackend::s_conv_input_grad_ws`] for a caller that owns the
    /// weights — the S-CONV twin of [`ConvBackend::t_conv_cached_ws`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::s_conv_input_grad`].
    #[allow(clippy::too_many_arguments)]
    pub fn s_conv_input_grad_cached_ws<T: Num>(
        self,
        delta_out: &Fmaps<T>,
        k: &Kernels<T>,
        sub_kernels: &PhaseKernelCache<T>,
        geom: &ConvGeom,
        in_h: usize,
        in_w: usize,
        ws: &mut ConvWorkspace<T>,
    ) -> TensorResult<Fmaps<T>> {
        match self {
            ConvBackend::LoweredZeroFree => zero_free::t_conv_zero_free_cached_ws(
                delta_out,
                k,
                sub_kernels,
                geom,
                in_h,
                in_w,
                ws,
            ),
            _ => self.s_conv_input_grad_ws(delta_out, k, geom, in_h, in_w, ws),
        }
    }

    /// [`ConvBackend::t_conv_input_grad`] with transients drawn from the
    /// workspace.
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
            // This pass involves no zero-inserting in either formulation,
            // so dense-lowered and zero-free share one GEMM.
            _ => zero_free::t_conv_input_grad_via_gemm_ws(delta_out, k, geom, ws),
        }
    }

    /// [`ConvBackend::w_conv_for_s_layer`] with transients drawn from the
    /// workspace.
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

    /// [`ConvBackend::w_conv_for_t_layer`] with transients drawn from the
    /// workspace.
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
        let x: Fmaps<f32> = Fmaps::random(3, 10, 10, 1.0, &mut rng);
        let k: Kernels<f32> = Kernels::random(4, 3, 4, 4, 1.0, &mut rng);
        let y = ConvBackend::GoldenDirect.s_conv(&x, &k, &g).unwrap();
        let z: Fmaps<f32> = Fmaps::random(4, 5, 5, 1.0, &mut rng);
        let up = ConvBackend::GoldenDirect.t_conv(&z, &k, &g).unwrap();
        let sig = ConvBackend::GoldenDirect
            .s_conv_input_grad(&y, &k, &g, 10, 10)
            .unwrap();
        let tig = ConvBackend::GoldenDirect
            .t_conv_input_grad(&up, &k, &g)
            .unwrap();
        let ws = ConvBackend::GoldenDirect
            .w_conv_for_s_layer(&x, &y, &g)
            .unwrap();
        let wt = ConvBackend::GoldenDirect
            .w_conv_for_t_layer(&z, &up, &g)
            .unwrap();

        // On f64 every lowered backend reproduces golden bit for bit.
        let (xd, zd, kd) = (x.map(f64::from), z.map(f64::from), k.map(f64::from));
        let gold = ConvBackend::GoldenDirect;
        let yd = gold.s_conv(&xd, &kd, &g).unwrap();
        let upd = gold.t_conv(&zd, &kd, &g).unwrap();
        for b in PACKED {
            assert_eq!(yd, b.s_conv(&xd, &kd, &g).unwrap(), "{b:?} s_conv");
            assert_eq!(upd, b.t_conv(&zd, &kd, &g).unwrap(), "{b:?} t_conv");
            assert_eq!(
                gold.s_conv_input_grad(&yd, &kd, &g, 10, 10).unwrap(),
                b.s_conv_input_grad(&yd, &kd, &g, 10, 10).unwrap(),
                "{b:?} s_conv_input_grad"
            );
            assert_eq!(
                gold.t_conv_input_grad(&upd, &kd, &g).unwrap(),
                b.t_conv_input_grad(&upd, &kd, &g).unwrap(),
                "{b:?} t_conv_input_grad"
            );
            assert_eq!(
                gold.w_conv_for_s_layer(&xd, &yd, &g).unwrap(),
                b.w_conv_for_s_layer(&xd, &yd, &g).unwrap(),
                "{b:?} w_conv_for_s_layer"
            );
            assert_eq!(
                gold.w_conv_for_t_layer(&zd, &upd, &g).unwrap(),
                b.w_conv_for_t_layer(&zd, &upd, &g).unwrap(),
                "{b:?} w_conv_for_t_layer"
            );
        }

        // The packed backends agree with each other bit for bit (the
        // single fused accumulation order) and with golden within the
        // accumulation bound.
        let ref_b = ConvBackend::LoweredZeroFree;
        let py = ref_b.s_conv(&x, &k, &g).unwrap();
        let pup = ref_b.t_conv(&z, &k, &g).unwrap();
        let psig = ref_b.s_conv_input_grad(&y, &k, &g, 10, 10).unwrap();
        let ptig = ref_b.t_conv_input_grad(&up, &k, &g).unwrap();
        let pws = ref_b.w_conv_for_s_layer(&x, &y, &g).unwrap();
        let pwt = ref_b.w_conv_for_t_layer(&z, &up, &g).unwrap();
        assert!(y.max_abs_diff(&py) <= ACC_BOUND, "packed s_conv vs golden");
        assert!(
            up.max_abs_diff(&pup) <= ACC_BOUND,
            "packed t_conv vs golden"
        );
        assert!(sig.max_abs_diff(&psig) <= ACC_BOUND, "packed sig vs golden");
        assert!(tig.max_abs_diff(&ptig) <= ACC_BOUND, "packed tig vs golden");
        assert!(ws.max_abs_diff(&pws) <= ACC_BOUND, "packed ws vs golden");
        assert!(wt.max_abs_diff(&pwt) <= ACC_BOUND, "packed wt vs golden");
        for b in PACKED {
            assert_eq!(py, b.s_conv(&x, &k, &g).unwrap(), "{b:?} s_conv");
            assert_eq!(pup, b.t_conv(&z, &k, &g).unwrap(), "{b:?} t_conv");
            assert_eq!(
                psig,
                b.s_conv_input_grad(&y, &k, &g, 10, 10).unwrap(),
                "{b:?} s_conv_input_grad"
            );
            assert_eq!(
                ptig,
                b.t_conv_input_grad(&up, &k, &g).unwrap(),
                "{b:?} t_conv_input_grad"
            );
            assert_eq!(
                pws,
                b.w_conv_for_s_layer(&x, &y, &g).unwrap(),
                "{b:?} w_conv_for_s_layer"
            );
            assert_eq!(
                pwt,
                b.w_conv_for_t_layer(&z, &up, &g).unwrap(),
                "{b:?} w_conv_for_t_layer"
            );
        }
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
        // (dirty) buffers, which is the state the zero-fill rules protect.
        for round in 0..2 {
            for b in ALL {
                let y = b.s_conv(&x, &k, &g).unwrap();
                assert_eq!(
                    y,
                    b.s_conv_ws(&x, &k, &g, &mut ws).unwrap(),
                    "{b:?} r{round}"
                );
                let up = b.t_conv(&z, &k, &g).unwrap();
                assert_eq!(
                    up,
                    b.t_conv_ws(&z, &k, &g, &mut ws).unwrap(),
                    "{b:?} r{round}"
                );
                assert_eq!(
                    b.s_conv_input_grad(&y, &k, &g, 10, 10).unwrap(),
                    b.s_conv_input_grad_ws(&y, &k, &g, 10, 10, &mut ws).unwrap(),
                    "{b:?} r{round}"
                );
                assert_eq!(
                    b.t_conv_input_grad(&up, &k, &g).unwrap(),
                    b.t_conv_input_grad_ws(&up, &k, &g, &mut ws).unwrap(),
                    "{b:?} r{round}"
                );
                assert_eq!(
                    b.w_conv_for_s_layer(&x, &y, &g).unwrap(),
                    b.w_conv_for_s_layer_ws(&x, &y, &g, &mut ws).unwrap(),
                    "{b:?} r{round}"
                );
                assert_eq!(
                    b.w_conv_for_t_layer(&z, &up, &g).unwrap(),
                    b.w_conv_for_t_layer_ws(&z, &up, &g, &mut ws).unwrap(),
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
        for b in ALL {
            assert!(b.s_conv(&x, &k, &g).is_err(), "{b:?}");
            assert!(b.t_conv(&x, &k, &g).is_err(), "{b:?}");
        }
    }
}
