//! The Q8.8 fixed-point contract every Q8.8 GEMM honors bit for bit. Each
//! property here pins one edge of the scalar [`Fx`] semantics — saturation
//! at the rail values, round-to-nearest with ties toward +∞ at the
//! ±0.5-LSB boundary, and the *per-step* saturating accumulate (a widened
//! i32 product, narrowed and clamped after every multiply-add, never a wide
//! running sum) — and the final properties check that every GEMM entry Q8.8
//! runs reproduces exactly that chain: [`matmul_blocked`] and the workspace
//! conv lowerings, which run the scalar blocked kernel for every element
//! type but `f32`.

use proptest::prelude::*;
use zfgan_tensor::gemm::matmul_blocked;
use zfgan_tensor::im2col::Matrix;
use zfgan_tensor::microkernel::KC;
use zfgan_tensor::{ConvBackend, ConvGeom, ConvWorkspace, Fmaps, Fx, Kernels, FRAC_BITS};

fn fx(raw: &[i16]) -> Vec<Fx> {
    raw.iter().map(|&r| Fx::from_raw(r)).collect()
}

fn raw(v: &[Fx]) -> Vec<i16> {
    v.iter().map(|x| x.raw()).collect()
}

/// `a × b` on raw Q8.8 words through [`matmul_blocked`].
fn matmul_raw(a: &[i16], b: &[i16], (m, kk, n): (usize, usize, usize)) -> Vec<i16> {
    let (a, b) = (
        Matrix::from_vec(m, kk, fx(a)),
        Matrix::from_vec(kk, n, fx(b)),
    );
    raw(matmul_blocked(&a, &b).unwrap().as_slice())
}

/// The backends every conv pass runs through: the golden nests and both
/// workspace lowerings.
const BACKENDS: [ConvBackend; 3] = [
    ConvBackend::GoldenDirect,
    ConvBackend::LoweredGemm,
    ConvBackend::LoweredZeroFree,
];

/// `a × b` (`m × kk` by `kk × n`) through the conv passes that are exactly
/// this GEMM on `backend`, one chain per output element over `k`
/// ascending: a 1×1, stride-1 S-CONV of the `kk`-map, `1 × n` image `b`
/// under the weights `a` (at `n = 1` its one-pixel window is the score
/// window, read in place), and the T-CONV of the same image under the
/// transposed weights (the streamed route). Returns both products.
fn conv_products(
    backend: ConvBackend,
    a: &[i16],
    b: &[i16],
    (m, kk, n): (usize, usize, usize),
    ws: &mut ConvWorkspace<Fx>,
) -> [Vec<i16>; 2] {
    let geom = ConvGeom::new(1, 1, 1, 0, 0, 0, 0).unwrap();
    let image = Fmaps::from_vec(kk, 1, n, fx(b));
    let weights = Kernels::from_vec(m, kk, 1, 1, fx(a));
    let s = backend.s_conv_ws(&image, &weights, &geom, ws).unwrap();
    let at: Vec<i16> = (0..kk * m).map(|t| a[(t % m) * kk + t / m]).collect();
    let weights_t = Kernels::from_vec(kk, m, 1, 1, fx(&at));
    let t = backend.t_conv_ws(&image, &weights_t, &geom, ws).unwrap();
    [raw(s.as_slice()), raw(t.as_slice())]
}

/// `held + a × b` through the accumulating W-CONV of a 1×1, stride-1
/// S-layer on `backend`: the error maps are `a`'s `m` rows and the layer
/// input the `n` columns of `b`, each a `1 × kk` map, so weight `(i, j)`
/// is `held[i·n + j]` plus row `i` of `a` dotted with column `j` of `b`.
fn w_conv_accumulated(
    backend: ConvBackend,
    (a, b, held): (&[i16], &[i16], &[i16]),
    (m, kk, n): (usize, usize, usize),
    ws: &mut ConvWorkspace<Fx>,
) -> Vec<i16> {
    let geom = ConvGeom::new(1, 1, 1, 0, 0, 0, 0).unwrap();
    let delta = Fmaps::from_vec(m, 1, kk, fx(a));
    let bt: Vec<i16> = (0..n * kk).map(|t| b[(t % kk) * n + t / kk]).collect();
    let input = Fmaps::from_vec(n, 1, kk, fx(&bt));
    let mut acc = Kernels::from_vec(m, n, 1, 1, fx(held));
    backend
        .w_conv_for_s_layer_accumulate_ws(&input, &delta, &geom, &mut acc, ws)
        .unwrap();
    raw(acc.as_slice())
}

/// Full-range operand words (xorshift over every `i16`), one in five an
/// exact zero so the zero skips engage.
fn draws(seed: u64) -> impl FnMut() -> i16 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        if state.is_multiple_of(5) {
            0
        } else {
            (state >> 16) as i16
        }
    }
}

/// `a × b` as the per-step saturating reference chain, element by element.
fn stepwise(a: &[i16], b: &[i16], (m, kk, n): (usize, usize, usize)) -> Vec<i16> {
    let mut expect = vec![0i16; m * n];
    for i in 0..m {
        for j in 0..n {
            let row = &a[i * kk..(i + 1) * kk];
            let col: Vec<i16> = (0..kk).map(|k| b[k * n + j]).collect();
            expect[i * n + j] = ref_dot(row, &col);
        }
    }
    expect
}

/// Every Q8.8 GEMM entry on one operand pair (and held accumulator) must
/// give the stepwise chain: `matmul_blocked`, and on every backend the
/// S-CONV, the T-CONV and the accumulating W-CONV.
fn check_every_entry(
    a: &[i16],
    b: &[i16],
    held: &[i16],
    dims: (usize, usize, usize),
) -> Result<(), TestCaseError> {
    let expect = stepwise(a, b, dims);
    prop_assert_eq!(&matmul_raw(a, b, dims), &expect, "matmul_blocked");
    let added: Vec<i16> = held
        .iter()
        .zip(&expect)
        .map(|(&h, &p)| ref_add(h, p))
        .collect();
    let ws = &mut ConvWorkspace::new();
    for backend in BACKENDS {
        let [s, t] = conv_products(backend, a, b, dims, ws);
        prop_assert_eq!(&s, &expect, "{:?} S-CONV", backend);
        prop_assert_eq!(&t, &expect, "{:?} T-CONV", backend);
        let w = w_conv_accumulated(backend, (a, b, held), dims, ws);
        prop_assert_eq!(&w, &added, "{:?} accumulating W-CONV", backend);
    }
    Ok(())
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

    /// The Q8.8 GEMM is bit-identical to the per-step saturating reference
    /// chain — full raw range, so the property covers saturation and
    /// rounding inside the kernel, not just on in-range training data.
    #[test]
    fn fx_gemm_is_bit_identical_to_the_stepwise_chain(
        m in 1usize..=6,
        kk in 1usize..=40,
        n in 1usize..=70,
        raw0 in any::<i16>(),
        raw1 in any::<i16>(),
        seed in any::<u64>(),
    ) {
        let mut next = draws(seed);
        let mut a: Vec<i16> = (0..m * kk).map(|_| next()).collect();
        let b: Vec<i16> = (0..kk * n).map(|_| next()).collect();
        // Splice the proptest-drawn raws (often rails under shrinking)
        // into A so edge operands definitely appear.
        a[0] = raw0;
        let last = a.len() - 1;
        a[last] = raw1;
        prop_assert_eq!(matmul_raw(&a, &b, (m, kk, n)), stepwise(&a, &b, (m, kk, n)));
    }

    /// Every GEMM entry Q8.8 runs — `matmul_blocked`, and the S-CONV,
    /// T-CONV and accumulating W-CONV of the golden nests and of both
    /// workspace lowerings — reproduces the per-step saturating scalar
    /// chain byte for byte, including degenerate shapes (`m = 1`, all-zero
    /// rows, one output column).
    #[test]
    fn every_fx_gemm_entry_matches_the_stepwise_chain(
        m in 1usize..=9,
        kk in 1usize..=40,
        n in 1usize..=70,
        zero_rows in 0usize..=2,
        seed in any::<u64>(),
    ) {
        let mut next = draws(seed);
        let mut a: Vec<i16> = (0..m * kk).map(|_| next()).collect();
        let b: Vec<i16> = (0..kk * n).map(|_| next()).collect();
        let held: Vec<i16> = (0..m * n).map(|_| next()).collect();
        // Whole zero rows so the element-skip branches engage.
        for r in 0..zero_rows.min(m) {
            a[r * kk..(r + 1) * kk].fill(0);
        }
        check_every_entry(&a, &b, &held, (m, kk, n))?;
    }
}

/// The shapes that once had code of their own in a Q8.8 SIMD engine, on
/// every entry: one output column (a per-row chain against `B` in place,
/// the S-CONV's score window), chains longer than one [`KC`] chunk (a
/// chain resumed from the output between chunks), both at once, and an
/// accumulating W-CONV on each — with rail and half-LSB tie operands
/// spliced into the full-range draws, and rail-valued held weights so the
/// final add saturates too.
#[test]
fn fx_entries_match_the_stepwise_chain_on_one_column_and_multi_chunk_shapes() {
    let ties = [Fx::MAX.raw(), Fx::MIN.raw(), 128, -128, 1, -1];
    for (seed, dims @ (m, kk, n)) in [
        (1, (5, 37, 1)),
        (2, (3, KC + 37, 20)),
        (3, (4, 2 * KC + 3, 1)),
    ] {
        let mut next = draws(seed);
        let mut a: Vec<i16> = (0..m * kk).map(|_| next()).collect();
        let mut b: Vec<i16> = (0..kk * n).map(|_| next()).collect();
        let (a_len, b_len) = (a.len(), b.len());
        for (t, &v) in ties.iter().enumerate() {
            a[t * 7 % a_len] = v;
            b[t * 5 % b_len] = ties[(t + 1) % ties.len()];
        }
        let held: Vec<i16> = (0..m * n).map(|j| ties[j % 2]).collect();
        check_every_entry(&a, &b, &held, dims).unwrap_or_else(|e| panic!("{m}x{kk}x{n}: {e}"));
    }
}
