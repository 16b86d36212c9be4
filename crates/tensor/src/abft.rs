//! Algorithm-based fault tolerance (ABFT) for the lowered-GEMM paths.
//!
//! Huang & Abraham's classic scheme: for `C = A·B`, the column sums of `C`
//! must equal `(eᵀA)·B` and the row sums must equal `A·(Be)`. Both sides
//! are recomputed here in `f64` from the *inputs*, so a corrupted PE
//! accumulator shows up as a row/column whose sum disagrees beyond a
//! quantization-noise tolerance — and the intersection of a flagged row
//! and column localises the faulty element. The check is `O(mn + mk + kn)`
//! against the GEMM's `O(mkn)` multiplies, i.e. asymptotically free, which
//! is why accelerator reliability work standardises on it.
//!
//! The tolerance is the crux: the checked product is computed in `f32`
//! (the functional stand-in for the paper's Q8.8 datapath) while the
//! checksums accumulate in `f64`, so an honest GEMM still disagrees by
//! rounding error that grows with the reduction length and operand
//! magnitude. [`tolerance`] bounds that drift; campaign faults *above* the
//! bound are detectable, faults below it are indistinguishable from
//! quantization noise by construction (the campaign classifies those as
//! `benign`, not `silent`).
//!
//! Complementing ABFT (which guards *compute*) the module carries the two
//! cheap guards that protect *transfers and state*: [`slice_checksum`]
//! for before/after comparison of a buffer or DRAM move, and
//! [`first_non_finite`] / [`first_out_of_range`] for NaN/Inf/runaway
//! screens over activations and weights.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::error::TensorResult;
use crate::fault::{FaultLog, FaultPlan};
use crate::gemm::{matmul_blocked, matmul_with_faults};
use crate::im2col::Matrix;

/// Outcome of an ABFT check over one GEMM.
#[derive(Debug, Clone, PartialEq)]
pub struct AbftReport {
    /// Detection threshold used for both row and column residuals.
    pub tolerance: f64,
    /// Output columns whose checksum residual exceeded the tolerance.
    pub faulty_cols: Vec<usize>,
    /// Output rows whose checksum residual exceeded the tolerance.
    pub faulty_rows: Vec<usize>,
    /// Largest column residual observed.
    pub max_col_residual: f64,
    /// Largest row residual observed.
    pub max_row_residual: f64,
}

impl AbftReport {
    /// Whether the product passed both checksum tests.
    pub fn clean(&self) -> bool {
        self.faulty_cols.is_empty() && self.faulty_rows.is_empty()
    }

    /// Whether the element at `(row, col)` lies on a flagged row or column
    /// — the localisation ABFT gives for free.
    pub fn implicates(&self, row: usize, col: usize) -> bool {
        self.faulty_rows.contains(&row) || self.faulty_cols.contains(&col)
    }
}

/// Detection threshold separating `f32`-vs-`f64` accumulation drift from
/// genuine corruption, for a product `A(m×k) · B(k×n)`.
///
/// Each output element is a length-`k` `f32` reduction, so its error is
/// bounded by `k · ε · k·max|a|·max|b|`; a row/column sum of up to
/// `max(m, n)` such elements adds another factor. A small safety margin
/// absorbs the checksum's own (much smaller) `f64` rounding.
pub fn tolerance(a: &Matrix<f32>, b: &Matrix<f32>) -> f64 {
    let amax = a
        .as_slice()
        .iter()
        .fold(0.0f64, |m, &v| m.max(f64::from(v.abs())));
    let bmax = b
        .as_slice()
        .iter()
        .fold(0.0f64, |m, &v| m.max(f64::from(v.abs())));
    let k = a.cols() as f64;
    let span = a.rows().max(b.cols()) as f64;
    let elem_bound = k * amax * bmax;
    (k + span) * f64::from(f32::EPSILON) * elem_bound * 8.0 + f64::MIN_POSITIVE
}

/// Runs the row/column checksum test on a computed product.
///
/// The caller guarantees `c` was produced (possibly faultily) from
/// `a × b`; shape agreement is assumed.
pub fn verify(a: &Matrix<f32>, b: &Matrix<f32>, c: &Matrix<f32>) -> AbftReport {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let tol = tolerance(a, b);

    // Column test: (eᵀA)·B vs column sums of C.
    let mut col_weights = vec![0.0f64; k];
    for i in 0..m {
        for (kk, w) in col_weights.iter_mut().enumerate() {
            *w += f64::from(*a.at(i, kk));
        }
    }
    let mut expected_cols = vec![0.0f64; n];
    for (kk, &w) in col_weights.iter().enumerate() {
        if w == 0.0 {
            continue;
        }
        for (j, e) in expected_cols.iter_mut().enumerate() {
            *e += w * f64::from(*b.at(kk, j));
        }
    }
    let mut actual_cols = vec![0.0f64; n];
    for i in 0..m {
        for (j, s) in actual_cols.iter_mut().enumerate() {
            *s += f64::from(*c.at(i, j));
        }
    }

    // Row test: A·(Be) vs row sums of C.
    let mut row_weights = vec![0.0f64; k];
    for (kk, w) in row_weights.iter_mut().enumerate() {
        for j in 0..n {
            *w += f64::from(*b.at(kk, j));
        }
    }
    let mut faulty_rows = Vec::new();
    let mut max_row_residual = 0.0f64;
    for i in 0..m {
        let mut expected = 0.0f64;
        for (kk, &w) in row_weights.iter().enumerate() {
            expected += f64::from(*a.at(i, kk)) * w;
        }
        let mut actual = 0.0f64;
        for j in 0..n {
            actual += f64::from(*c.at(i, j));
        }
        let residual = residual_of(expected, actual);
        max_row_residual = max_row_residual.max(residual);
        if residual > tol {
            faulty_rows.push(i);
        }
    }

    let mut faulty_cols = Vec::new();
    let mut max_col_residual = 0.0f64;
    for j in 0..n {
        let residual = residual_of(expected_cols[j], actual_cols[j]);
        max_col_residual = max_col_residual.max(residual);
        if residual > tol {
            faulty_cols.push(j);
        }
    }

    let report = AbftReport {
        tolerance: tol,
        faulty_cols,
        faulty_rows,
        max_col_residual,
        max_row_residual,
    };
    if zfgan_telemetry::enabled() {
        zfgan_telemetry::count("abft_checks_total", &[], 1);
        if !report.clean() {
            zfgan_telemetry::count("abft_detections_total", &[], 1);
        }
        zfgan_telemetry::count(
            "abft_flagged_rows_total",
            &[],
            report.faulty_rows.len() as u64,
        );
        zfgan_telemetry::count(
            "abft_flagged_cols_total",
            &[],
            report.faulty_cols.len() as u64,
        );
    }
    report
}

/// Residual between an expected and an actual checksum; a non-finite
/// actual sum (a NaN/Inf reached the output) is an unconditional detect.
fn residual_of(expected: f64, actual: f64) -> f64 {
    if actual.is_finite() {
        (expected - actual).abs()
    } else {
        f64::INFINITY
    }
}

/// GEMM with the ABFT check bolted on: computes `a × b` with
/// [`matmul_blocked`] and verifies it against the input checksums.
///
/// # Errors
///
/// Returns an error if the inner dimensions disagree.
pub fn checked_matmul(a: &Matrix<f32>, b: &Matrix<f32>) -> TensorResult<(Matrix<f32>, AbftReport)> {
    let c = matmul_blocked(a, b)?;
    let report = verify(a, b, &c);
    Ok((c, report))
}

/// [`checked_matmul`] over the fault-injecting GEMM entry point — the
/// campaign's ABFT-guarded backend.
///
/// # Errors
///
/// Returns an error if the inner dimensions disagree.
pub fn checked_matmul_with_faults(
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    plan: &FaultPlan,
    base: u64,
    log: &mut FaultLog,
) -> TensorResult<(Matrix<f32>, AbftReport)> {
    let c = matmul_with_faults(a, b, plan, base, log)?;
    let report = verify(a, b, &c);
    Ok((c, report))
}

/// Index of the first non-finite element, if any — the cheapest guard
/// against escaped NaN/Inf corruption.
pub fn first_non_finite(xs: &[f32]) -> Option<usize> {
    xs.iter().position(|v| !v.is_finite())
}

/// Index of the first element with `|x| > limit`, if any — a range guard
/// for values with a known bound (e.g. clipped WGAN weights).
pub fn first_out_of_range(xs: &[f32], limit: f32) -> Option<usize> {
    xs.iter().position(|v| !v.is_finite() || v.abs() > limit)
}

/// Order-sensitive `f64` checksum of a word stream, for before/after
/// comparison around a modelled transfer (bitwise equality of the two
/// sums detects any effective single-word corruption; position weighting
/// additionally catches reorderings).
pub fn slice_checksum(xs: &[f32]) -> f64 {
    xs.iter()
        .enumerate()
        .fold(0.0f64, |acc, (i, &v)| acc + (i as f64 + 1.0) * f64::from(v))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultSite};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rows: usize, cols: usize, rng: &mut SmallRng) -> Matrix<f32> {
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn clean_gemm_passes_for_all_kernels() {
        let mut rng = SmallRng::seed_from_u64(21);
        for (m, k, n) in [(1, 1, 1), (9, 31, 17), (40, 100, 64)] {
            let a = random_matrix(m, k, &mut rng);
            let b = random_matrix(k, n, &mut rng);
            let (_, report) = checked_matmul(&a, &b).unwrap();
            assert!(report.clean(), "{m}×{k}×{n} packed: {report:?}");
            let naive = verify(&a, &b, &a.matmul(&b).unwrap());
            assert!(naive.clean(), "{m}×{k}×{n} naive: {naive:?}");
        }
    }

    #[test]
    fn single_element_corruption_is_localised() {
        let mut rng = SmallRng::seed_from_u64(22);
        let a = random_matrix(12, 20, &mut rng);
        let b = random_matrix(20, 15, &mut rng);
        let mut c = matmul_blocked(&a, &b).unwrap();
        *c.at_mut(7, 4) += 1.0; // far above quantization noise
        let report = verify(&a, &b, &c);
        assert_eq!(report.faulty_rows, vec![7]);
        assert_eq!(report.faulty_cols, vec![4]);
        assert!(report.implicates(7, 4));
        assert!(!report.implicates(3, 3));
    }

    #[test]
    fn nan_in_product_is_detected() {
        let mut rng = SmallRng::seed_from_u64(23);
        let a = random_matrix(5, 8, &mut rng);
        let b = random_matrix(8, 6, &mut rng);
        let mut c = matmul_blocked(&a, &b).unwrap();
        *c.at_mut(2, 2) = f32::NAN;
        let report = verify(&a, &b, &c);
        assert!(report.implicates(2, 2));
    }

    #[test]
    fn injected_high_bit_flips_are_always_detected() {
        let mut rng = SmallRng::seed_from_u64(24);
        let a = random_matrix(16, 40, &mut rng);
        let b = random_matrix(40, 24, &mut rng);
        let plan = FaultPlan::new(
            5,
            0.01,
            FaultSite::GemmAccumulator,
            FaultKind::BitFlip { bit: 30 },
        )
        .unwrap();
        let mut log = FaultLog::default();
        let (_, report) = checked_matmul_with_faults(&a, &b, &plan, 0, &mut log).unwrap();
        assert!(log.effective > 0, "plan should fire in 384 elements");
        for rec in &log.records {
            if rec.effective() {
                let (row, col) = ((rec.index / 24) as usize, (rec.index % 24) as usize);
                assert!(report.implicates(row, col), "missed fault at {rec:?}");
            }
        }
    }

    #[test]
    fn guards_catch_non_finite_and_range() {
        assert_eq!(first_non_finite(&[1.0, 2.0]), None);
        assert_eq!(first_non_finite(&[1.0, f32::NAN, 2.0]), Some(1));
        assert_eq!(first_out_of_range(&[0.5, -3.0], 1.0), Some(1));
        assert_eq!(first_out_of_range(&[0.5, -0.5], 1.0), None);
    }

    #[test]
    fn slice_checksum_catches_corruption_and_swaps() {
        let xs = [0.5f32, -1.25, 3.0, 0.0];
        let base = slice_checksum(&xs);
        let mut corrupted = xs;
        corrupted[2] = 3.0000002;
        assert_ne!(base.to_bits(), slice_checksum(&corrupted).to_bits());
        let swapped = [xs[1], xs[0], xs[2], xs[3]];
        assert_ne!(base.to_bits(), slice_checksum(&swapped).to_bits());
        assert_eq!(base.to_bits(), slice_checksum(&xs).to_bits());
    }
}
