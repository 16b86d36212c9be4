//! The Q8.8 fixed-point contract that the vectorized microkernel must
//! honor bit for bit. Each property here pins one edge of the scalar
//! [`Fx`] semantics — saturation at the rail values, round-to-nearest
//! with ties toward +∞ at the ±0.5-LSB boundary, and the *per-step*
//! saturating accumulate (a widened i32 product, narrowed and clamped
//! after every multiply-add, never a wide running sum) — and the final
//! property checks that the packed kernel reproduces exactly that chain
//! at every SIMD level.

use proptest::prelude::*;
use zfgan_tensor::gemm::matmul_chunked;
use zfgan_tensor::im2col::Matrix;
use zfgan_tensor::microkernel::{GemmPath, SimdLevel};
use zfgan_tensor::{ConvWorkspace, Fx, FRAC_BITS};

/// `a × b` on raw Q8.8 words at `level` through `path` (`None`: the
/// dispatched engine), in one inline chunk of the packed engine's test
/// handle.
fn matmul_raw(
    (level, path): (SimdLevel, Option<GemmPath>),
    a: &[i16],
    b: &[i16],
    (m, kk, n): (usize, usize, usize),
) -> Vec<i16> {
    let fx = |raw: &[i16], rows, cols| {
        Matrix::from_vec(rows, cols, raw.iter().map(|&r| Fx::from_raw(r)).collect())
    };
    let (a, b) = (fx(a, m, kk), fx(b, kk, n));
    let (mut out, ws) = (Matrix::zeros(m, n), &mut ConvWorkspace::new());
    matmul_chunked(&a, &b, &mut out, false, level, path, m, ws);
    out.as_slice().iter().map(|v| v.raw()).collect()
}

/// The scalar reference for one multiply: widen to i32, add the rounding
/// half, arithmetic-shift (floor), then clamp to the i16 rails.
fn ref_mul(a: i16, b: i16) -> i16 {
    let wide = (i32::from(a) * i32::from(b) + (1 << (FRAC_BITS - 1))) >> FRAC_BITS;
    wide.clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16
}

/// The scalar reference for one add: widen, clamp.
fn ref_add(a: i16, b: i16) -> i16 {
    (i32::from(a) + i32::from(b)).clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16
}

/// The per-step saturating dot product — the exact chain the microkernel
/// contract requires (k ascending, saturate after every step).
fn ref_dot(a: &[i16], b: &[i16]) -> i16 {
    let mut acc: i16 = 0;
    for (&x, &y) in a.iter().zip(b) {
        acc = ref_add(acc, ref_mul(x, y));
    }
    acc
}

#[test]
fn rail_products_saturate_instead_of_wrapping() {
    // MIN·MIN exceeds the positive rail; MIN·MAX the negative one. A
    // wrapping implementation would flip the sign on both.
    assert_eq!(Fx::MIN * Fx::MIN, Fx::MAX);
    assert_eq!(Fx::MIN * Fx::MAX, Fx::MIN);
    assert_eq!(Fx::MAX * Fx::MAX, Fx::MAX);
    assert_eq!(Fx::MAX + Fx::MAX, Fx::MAX);
    assert_eq!(Fx::MIN + Fx::MIN, Fx::MIN);
    assert_eq!(-Fx::MIN, Fx::MAX);
}

#[test]
fn half_lsb_ties_round_toward_positive_infinity() {
    // raw 1 × raw 128 = 128/65536 = exactly +0.5 LSB → rounds up to 1.
    assert_eq!((Fx::from_raw(1) * Fx::from_raw(128)).raw(), 1);
    // raw -1 × raw 128 = exactly -0.5 LSB → ties toward +∞ give 0.
    assert_eq!((Fx::from_raw(-1) * Fx::from_raw(128)).raw(), 0);
    // Just past the tie in each direction.
    assert_eq!((Fx::from_raw(1) * Fx::from_raw(129)).raw(), 1);
    assert_eq!((Fx::from_raw(-1) * Fx::from_raw(129)).raw(), -1);
    assert_eq!((Fx::from_raw(1) * Fx::from_raw(127)).raw(), 0);
    assert_eq!((Fx::from_raw(-1) * Fx::from_raw(127)).raw(), 0);
}

#[test]
fn accumulation_saturates_per_step_not_at_the_end() {
    // +rail, +rail, −rail: a wide accumulator would land near +rail, but
    // the per-step chain clamps at MAX first and the subtraction then
    // pulls a full rail off. This asymmetry is the observable difference
    // between the two designs, and the kernel must show it.
    let a = [Fx::MAX.raw(), Fx::MAX.raw(), Fx::MIN.raw()];
    let b = [Fx::ONE.raw(), Fx::ONE.raw(), Fx::ONE.raw()];
    let stepwise = ref_dot(&a, &b);
    assert_eq!(
        stepwise,
        ref_add(i16::MAX, ref_mul(Fx::MIN.raw(), Fx::ONE.raw()))
    );
    let wide: i32 = a
        .iter()
        .zip(&b)
        .map(|(&x, &y)| i32::from(ref_mul(x, y)))
        .sum();
    assert_ne!(
        i32::from(stepwise),
        wide,
        "chain must differ from wide sum here"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `Fx` multiply equals widen → +half → floor-shift → clamp for every
    /// raw operand pair, including both rails.
    #[test]
    fn mul_matches_the_widened_rounded_clamped_reference(a in any::<i16>(), b in any::<i16>()) {
        prop_assert_eq!((Fx::from_raw(a) * Fx::from_raw(b)).raw(), ref_mul(a, b));
    }

    /// `Fx` add/sub equal widen → clamp for every raw operand pair.
    #[test]
    fn add_sub_match_the_widened_clamped_reference(a in any::<i16>(), b in any::<i16>()) {
        prop_assert_eq!((Fx::from_raw(a) + Fx::from_raw(b)).raw(), ref_add(a, b));
        let sub = (i32::from(a) - i32::from(b))
            .clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16;
        prop_assert_eq!((Fx::from_raw(a) - Fx::from_raw(b)).raw(), sub);
    }

    /// The packed Q8.8 GEMM is bit-identical to the per-step saturating
    /// reference chain at every SIMD level — full raw range, so the
    /// property covers saturation and rounding inside the kernel, not
    /// just on in-range training data.
    #[test]
    fn packed_fx_gemm_is_bit_identical_to_the_stepwise_chain(
        m in 1usize..=6,
        kk in 1usize..=40,
        n in 1usize..=70,
        raw0 in any::<i16>(),
        raw1 in any::<i16>(),
        seed in any::<u64>(),
    ) {
        // Cheap deterministic fill (xorshift) over the full i16 range,
        // with some exact zeros so the panel-skip masks engage.
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state % 5 == 0 { 0i16 } else { (state >> 16) as i16 }
        };
        let mut a: Vec<i16> = (0..m * kk).map(|_| next()).collect();
        let b: Vec<i16> = (0..kk * n).map(|_| next()).collect();
        // Splice the proptest-drawn raws (often rails under shrinking)
        // into A so edge operands definitely appear.
        a[0] = raw0;
        let last = a.len() - 1;
        a[last] = raw1;

        let mut expect = vec![0i16; m * n];
        for i in 0..m {
            for j in 0..n {
                let row = &a[i * kk..(i + 1) * kk];
                let col: Vec<i16> = (0..kk).map(|k| b[k * n + j]).collect();
                expect[i * n + j] = ref_dot(row, &col);
            }
        }

        for level in SimdLevel::supported() {
            let out = matmul_raw((level, None), &a, &b, (m, kk, n));
            prop_assert_eq!(&out, &expect, "level {:?} broke the Q8.8 chain", level);
        }
    }

    /// Every dispatch engine of the Q8.8 GEMM — packed panel, broadcast
    /// `ikj` over unpacked rows, and the small-`m` streaming variant —
    /// reproduces the per-step saturating scalar chain byte for byte at
    /// every SIMD level, including degenerate shapes (`m = 1`, all-zero
    /// rows, `n` below one register tile). This is what makes the shape
    /// dispatcher free to choose by cost alone.
    #[test]
    fn every_fx_dispatch_path_matches_the_stepwise_chain(
        m in 1usize..=9,
        kk in 1usize..=40,
        n in 1usize..=70,
        zero_rows in 0usize..=2,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state % 5 == 0 { 0i16 } else { (state >> 16) as i16 }
        };
        let mut a: Vec<i16> = (0..m * kk).map(|_| next()).collect();
        let b: Vec<i16> = (0..kk * n).map(|_| next()).collect();
        // Whole zero rows so the element- and panel-skip branches engage.
        for r in 0..zero_rows.min(m) {
            a[r * kk..(r + 1) * kk].fill(0);
        }

        let mut expect = vec![0i16; m * n];
        for i in 0..m {
            for j in 0..n {
                let row = &a[i * kk..(i + 1) * kk];
                let col: Vec<i16> = (0..kk).map(|k| b[k * n + j]).collect();
                expect[i * n + j] = ref_dot(row, &col);
            }
        }

        for level in SimdLevel::supported() {
            for path in [GemmPath::Packed, GemmPath::Ikj, GemmPath::SmallM] {
                let out = matmul_raw((level, Some(path)), &a, &b, (m, kk, n));
                prop_assert_eq!(
                    &out, &expect,
                    "path {:?} at {:?} broke the Q8.8 chain", path, level
                );
            }
        }
    }
}
