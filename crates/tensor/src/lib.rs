//! Golden-reference tensor math for the `zfgan` reproduction of the HPCA'18
//! zero-free GAN accelerator.
//!
//! This crate is the *numerical substrate* of the project. It provides
//!
//! * [`Fmaps`] — a set of 2-D feature maps (`C × H × W`) holding one sample's
//!   activations or errors,
//! * [`Kernels`] — a 4-D weight tensor (`OF × IF × KH × KW`),
//! * [`Fx`] — the Q8.8 16-bit fixed-point element type matching the paper's
//!   datapath ("the width of data is 16 in our system"),
//! * [`ConvGeom`] — convolution geometry (kernel size, stride, asymmetric
//!   padding) with shape inference for down- and up-sampling layers, and
//! * the three convolution families of the paper, implemented as
//!   straightforward loop nests that serve as the golden reference for the
//!   cycle-level simulator:
//!   [`s_conv`] (strided convolution, Discriminator forward),
//!   [`t_conv`] (transposed convolution with zero-inserting, Generator
//!   forward / Discriminator backward) and
//!   [`w_conv_for_s_layer`] / [`w_conv_for_t_layer`] (the four-dimensional
//!   weight-gradient convolution, `W-CONV`).
//!
//! The [`zeros`] module exposes the zero-inserting transformation explicitly
//! together with counters for *ineffectual* (zero-operand) multiplications —
//! the quantity the paper reports as "about 64% and 75% of total
//! multiplications" for the Generator and `D̄w` phases.
//!
//! # Example
//!
//! ```
//! use zfgan_tensor::{ConvGeom, Fmaps, Kernels, s_conv, t_conv};
//!
//! // A DCGAN-style down-sampling layer: 3×64×64 → 64×32×32, 4×4 kernel, stride 2.
//! let geom = ConvGeom::down(64, 64, 4, 4, 2, 32, 32).unwrap();
//! let x: Fmaps<f32> = Fmaps::zeros(3, 64, 64);
//! let k: Kernels<f32> = Kernels::zeros(64, 3, 4, 4);
//! let y = s_conv(&x, &k, &geom).unwrap();
//! assert_eq!((y.channels(), y.height(), y.width()), (64, 32, 32));
//!
//! // The matching up-sampling layer runs the geometry in reverse.
//! let kt: Kernels<f32> = Kernels::zeros(64, 3, 4, 4);
//! let up = t_conv(&y_as_input(&y), &kt, &geom).unwrap();
//! assert_eq!((up.channels(), up.height(), up.width()), (3, 64, 64));
//! # fn y_as_input(y: &Fmaps<f32>) -> Fmaps<f32> { Fmaps::zeros(64, 32, 32) }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod abft;
mod backend;
mod conv;
mod error;
pub mod fault;
mod fixed;
mod fmaps;
pub mod gemm;
pub mod im2col;
mod kernels;
pub mod microkernel;
mod num;
mod shape;
mod workspace;
pub mod zero_free;
pub mod zeros;

pub use backend::ConvBackend;
pub use conv::{
    s_conv, s_conv_input_grad, t_conv, t_conv_input_grad, t_conv_via_zero_insert,
    w_conv_for_s_layer, w_conv_for_t_layer,
};
pub use error::{ShapeError, TensorResult};
pub use fixed::{Fx, FRAC_BITS};
pub use fmaps::Fmaps;
pub use kernels::Kernels;
pub use num::Num;
pub use shape::ConvGeom;
pub use workspace::ConvWorkspace;
pub use zero_free::PhaseKernels;
