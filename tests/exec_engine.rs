//! The fast executor engine against its scalar oracle, adversarially.
//!
//! Every one of the nine cycle-accurate executors in
//! `zfgan::dataflow::exec` is the fast twin of a deliberately simple
//! scalar loop in `zfgan::dataflow::exec::scalar`. The engine's claim is
//! not "numerically close" — it is **bit-identical**: same output tensor
//! bytes, same cycle count, same access counters, and the same expanded
//! trace event stream. These proptests drive both implementations over
//! adversarial geometries — stride 1 to 3, asymmetric SAME-style
//! padding, 1×1 / 4×4 / 5×5 kernels, unrolling factors that leave partial
//! edge tiles in both spatial dimensions, `p_of` larger than the channel
//! count (fold > 1), and channel counts on both sides of the engine's
//! 16-wide lane block — and require exact equality everywhere, on `f64`,
//! `f32` and `Fx`.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use zfgan::dataflow::exec::{self, scalar};
use zfgan::dataflow::{Nlr, Ost, Wst, Zfost, Zfwst};
use zfgan::sim::trace::{TraceBuffer, TraceEvent};
use zfgan::sim::{ConvKind, ConvShape};
use zfgan::tensor::{ConvGeom, Fmaps, Fx, Kernels, Num};

/// Retain everything: large enough that no adversarial geometry here ever
/// evicts, so stream comparison covers the full execution.
const CAP: usize = 1 << 22;

/// Channel counts: the small ones, and those that leave the engine's
/// 16-wide lane block one short, full, one over, and two blocks plus one.
const CHANNELS: [usize; 7] = [1, 2, 3, 15, 16, 17, 33];

/// One adversarial setup: geometry, channel counts, unroll factors, seed.
#[derive(Debug, Clone)]
struct Setup {
    geom: ConvGeom,
    small: usize,
    large: usize,
    lh: usize,
    lw: usize,
    f: (usize, usize, usize),
    seed: u64,
}

impl Setup {
    fn phase(&self, kind: ConvKind) -> ConvShape {
        ConvShape::new(kind, self.geom, self.small, self.large, self.lh, self.lw)
    }

    /// Random maps on the large and the small side, and kernels.
    fn operands<T: Num>(&self) -> (Fmaps<T>, Fmaps<T>, Kernels<T>) {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let (sh, sw) = self.geom.down_out(self.lh, self.lw);
        let big = Fmaps::random(self.large, self.lh, self.lw, 1.0, &mut rng);
        let small = Fmaps::random(self.small, sh, sw, 1.0, &mut rng);
        let (kh, kw) = (self.geom.kh(), self.geom.kw());
        let k = Kernels::random(self.small, self.large, kh, kw, 1.0, &mut rng);
        (big, small, k)
    }
}

fn arb_setup() -> impl Strategy<Value = Setup> {
    (
        // kernel selector (1×1, 4×4, 5×5), stride, out_h, out_w
        // (out_h ≠ out_w → partial edge tiles in both dimensions)
        (0usize..=2, 1usize..=3, 3usize..=7, 3usize..=7),
        // total pad y/x, clamped below the kernel — odd totals split
        // asymmetrically (SAME-style: extra unit on the bottom/right)
        (0usize..=4, 0usize..=4),
        // small/large channel counts, as indices into `CHANNELS`
        (0usize..CHANNELS.len(), 0usize..CHANNELS.len()),
        // unroll factors (p_of > channels → fold > 1)
        (1usize..=5, 1usize..=5, 1usize..=5),
        any::<u64>(),
    )
        .prop_map(|((ksel, s, oh, ow), (py, px), (small, large), f, seed)| {
            let k = [1usize, 4, 5][ksel];
            let (py, px) = (py.min(k - 1), px.min(k - 1));
            let lh = (oh - 1) * s + k - py;
            let lw = (ow - 1) * s + k - px;
            let geom = ConvGeom::down(lh, lw, k, k, s, oh, ow).expect("padding below kernel");
            Setup {
                geom,
                small: CHANNELS[small],
                large: CHANNELS[large],
                lh,
                lw,
                f,
                seed,
            }
        })
}

fn events(t: &TraceBuffer) -> Vec<(u64, TraceEvent)> {
    t.iter().collect()
}

/// `x` with a seeded third of its pixels `+0.0` or `-0.0`: real pixels
/// that are themselves zero, which `Fmaps::random` never draws on a float.
fn with_zeros<T: Num>(mut x: Fmaps<T>, seed: u64) -> Fmaps<T> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x2e70);
    for v in x.as_mut_slice() {
        match rng.gen_range(0..6u32) {
            0 => *v = T::from_f32(0.0),
            1 => *v = T::from_f32(-0.0),
            _ => {}
        }
    }
    x
}

// The nine executors, generic over the element type: outcome (output and
// cycles), counters and expanded trace stream against the oracle's.

fn zfost_s_case<T: Num>(su: &Setup) -> Result<(), TestCaseError> {
    let (phase, (x, _, k)) = (su.phase(ConvKind::S), su.operands::<T>());
    let zf = Zfost::new(su.f.0, su.f.1, su.f.2);
    let (fast, ft) = exec::zfost_s_conv_traced(&zf, &phase, &x, &k, CAP).unwrap();
    let (slow, st) = scalar::zfost_s_conv_traced(&zf, &phase, &x, &k, CAP).unwrap();
    prop_assert_eq!(fast, slow);
    prop_assert_eq!(events(&ft), events(&st));
    Ok(())
}

fn zfost_t_case<T: Num>(su: &Setup) -> Result<(), TestCaseError> {
    let (phase, (_, x, k)) = (su.phase(ConvKind::T), su.operands::<T>());
    let zf = Zfost::new(su.f.0, su.f.1, su.f.2);
    let (fast, ft) = exec::zfost_t_conv_traced(&zf, &phase, &x, &k, CAP).unwrap();
    let (slow, st) = scalar::zfost_t_conv_traced(&zf, &phase, &x, &k, CAP).unwrap();
    prop_assert_eq!(fast, slow);
    prop_assert_eq!(events(&ft), events(&st));
    Ok(())
}

fn wgrad_s_case<T: Num>(su: &Setup) -> Result<(), TestCaseError> {
    let (phase, (data, err, _)) = (su.phase(ConvKind::WGradS), su.operands::<T>());
    let zf = Zfwst::new(su.f.0, su.f.1, su.f.2);
    let (fast, ft) = exec::zfwst_wgrad_s_traced(&zf, &phase, &data, &err, CAP).unwrap();
    let (slow, st) = scalar::zfwst_wgrad_s_traced(&zf, &phase, &data, &err, CAP).unwrap();
    prop_assert_eq!(fast, slow);
    prop_assert_eq!(events(&ft), events(&st));
    Ok(())
}

fn wgrad_t_case<T: Num>(su: &Setup) -> Result<(), TestCaseError> {
    let (phase, (err, data, _)) = (su.phase(ConvKind::WGradT), su.operands::<T>());
    let zf = Zfwst::new(su.f.0, su.f.1, su.f.2);
    let (fast, ft) = exec::zfwst_wgrad_t_traced(&zf, &phase, &data, &err, CAP).unwrap();
    let (slow, st) = scalar::zfwst_wgrad_t_traced(&zf, &phase, &data, &err, CAP).unwrap();
    prop_assert_eq!(fast, slow);
    prop_assert_eq!(events(&ft), events(&st));
    Ok(())
}

fn zfwst_s_case<T: Num>(su: &Setup) -> Result<(), TestCaseError> {
    let (phase, (x, _, k)) = (su.phase(ConvKind::S), su.operands::<T>());
    let zf = Zfwst::new(su.f.0, su.f.1, su.f.2);
    let (fast, ft) = exec::zfwst_s_conv_traced(&zf, &phase, &x, &k, CAP).unwrap();
    let (slow, st) = scalar::zfwst_s_conv_traced(&zf, &phase, &x, &k, CAP).unwrap();
    prop_assert_eq!(fast, slow);
    prop_assert_eq!(events(&ft), events(&st));
    Ok(())
}

fn zfwst_t_case<T: Num>(su: &Setup) -> Result<(), TestCaseError> {
    let (phase, (_, x, k)) = (su.phase(ConvKind::T), su.operands::<T>());
    let zf = Zfwst::new(su.f.0, su.f.1, su.f.2);
    let (fast, ft) = exec::zfwst_t_conv_traced(&zf, &phase, &x, &k, CAP).unwrap();
    let (slow, st) = scalar::zfwst_t_conv_traced(&zf, &phase, &x, &k, CAP).unwrap();
    prop_assert_eq!(fast, slow);
    prop_assert_eq!(events(&ft), events(&st));
    Ok(())
}

fn ost_t_case<T: Num>(su: &Setup) -> Result<(), TestCaseError> {
    let (phase, (_, x, k)) = (su.phase(ConvKind::T), su.operands::<T>());
    let ost = Ost::new(su.f.0, su.f.1, su.f.2);
    // The census counts zero operands wherever they come from: inserted,
    // padded, or a real pixel that happens to be zero.
    for x in [with_zeros(x.clone(), su.seed), x] {
        let ((fast, fc), ft) = exec::ost_t_conv_traced(&ost, &phase, &x, &k, CAP).unwrap();
        let ((slow, sc), st) = scalar::ost_t_conv_traced(&ost, &phase, &x, &k, CAP).unwrap();
        prop_assert_eq!(fast, slow);
        prop_assert_eq!(fc, sc, "effectual/ineffectual census diverged");
        prop_assert_eq!(events(&ft), events(&st));
    }
    Ok(())
}

fn wst_s_case<T: Num>(su: &Setup) -> Result<(), TestCaseError> {
    let (phase, (x, _, k)) = (su.phase(ConvKind::S), su.operands::<T>());
    let wst = Wst::new(su.f.0, su.f.1, su.f.2);
    let ((fast, fc), ft) = exec::wst_s_conv_traced(&wst, &phase, &x, &k, CAP).unwrap();
    let ((slow, sc), st) = scalar::wst_s_conv_traced(&wst, &phase, &x, &k, CAP).unwrap();
    prop_assert_eq!(fast, slow);
    prop_assert_eq!(fc, sc, "psum read/write census diverged");
    prop_assert_eq!(events(&ft), events(&st));
    Ok(())
}

fn nlr_s_case<T: Num>(su: &Setup) -> Result<(), TestCaseError> {
    let (phase, (x, _, k)) = (su.phase(ConvKind::S), su.operands::<T>());
    let nlr = Nlr::new(su.f.0, su.f.2);
    let ((fast, fc), ft) = exec::nlr_s_conv_traced(&nlr, &phase, &x, &k, CAP).unwrap();
    let ((slow, sc), st) = scalar::nlr_s_conv_traced(&nlr, &phase, &x, &k, CAP).unwrap();
    prop_assert_eq!(fast, slow);
    prop_assert_eq!(fc, sc, "weight-fetch census diverged");
    prop_assert_eq!(events(&ft), events(&st));
    Ok(())
}

/// Runs a generic case on every element type the engine serves.
macro_rules! on_every_type {
    ($case:ident, $su:expr) => {{
        $case::<f64>($su)?;
        $case::<f32>($su)?;
        $case::<Fx>($su)?;
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn zfost_s_is_bit_identical(su in arb_setup()) {
        on_every_type!(zfost_s_case, &su);
    }

    #[test]
    fn zfost_t_is_bit_identical(su in arb_setup()) {
        on_every_type!(zfost_t_case, &su);
    }

    #[test]
    fn zfwst_wgrad_s_is_bit_identical(su in arb_setup()) {
        on_every_type!(wgrad_s_case, &su);
    }

    #[test]
    fn zfwst_wgrad_t_is_bit_identical(su in arb_setup()) {
        on_every_type!(wgrad_t_case, &su);
    }

    #[test]
    fn zfwst_s_is_bit_identical(su in arb_setup()) {
        on_every_type!(zfwst_s_case, &su);
    }

    #[test]
    fn zfwst_t_is_bit_identical(su in arb_setup()) {
        on_every_type!(zfwst_t_case, &su);
    }

    #[test]
    fn ost_t_is_bit_identical(su in arb_setup()) {
        on_every_type!(ost_t_case, &su);
    }

    #[test]
    fn wst_s_is_bit_identical(su in arb_setup()) {
        on_every_type!(wst_s_case, &su);
    }

    #[test]
    fn nlr_s_is_bit_identical(su in arb_setup()) {
        on_every_type!(nlr_s_case, &su);
    }
}

/// The padding skip (and OST's inserted-zero skip) leans on zero-sign
/// algebra (`acc + ±0 == acc` bit for bit while `acc` is never `-0`):
/// operands full of `+0.0`, `-0.0`, subnormals and their negations must
/// give the oracle's exact bits — `==` would call `-0.0` and `+0.0` equal,
/// so compare `to_bits` — and its exact counters, OST's census calling
/// both zeros ineffectual and every subnormal effectual.
#[test]
fn signed_zeros_and_subnormals_keep_the_oracles_bits() {
    const VALUES: [f32; 8] = [
        0.0,
        -0.0,
        f32::MIN_POSITIVE / 2.0,
        -f32::MIN_POSITIVE / 4.0,
        1.0e-40,
        -1.5,
        f32::MIN_POSITIVE,
        0.75,
    ];
    // 5×5 kernel, stride 2, padding on every side; 17 channels leave a
    // one-lane tail in the second block.
    let geom = ConvGeom::down(9, 10, 5, 5, 2, 5, 5).expect("static geometry");
    let (small, large) = (17usize, 3usize);
    let phase = |kind| ConvShape::new(kind, geom, small, large, 9, 10);
    let fill = |len: usize, salt: usize| -> Vec<f32> {
        (0..len)
            .map(|i| VALUES[(i * 7 + i / 5 + salt) % VALUES.len()])
            .collect()
    };
    let big = Fmaps::from_vec(large, 9, 10, fill(large * 90, 0));
    let smallx = Fmaps::from_vec(small, 5, 5, fill(small * 25, 3));
    let k = Kernels::from_vec(small, large, 5, 5, fill(small * large * 25, 5));
    let (zfost, zfwst) = (Zfost::new(2, 3, 4), Zfwst::new(2, 2, 3));
    let (ost, wst, nlr) = (Ost::new(2, 3, 4), Wst::new(2, 2, 3), Nlr::new(2, 3));
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    // `$counted` splits a result into `(outcome, counters)`: the six
    // return a bare outcome, the baselines already a pair.
    macro_rules! same_bits {
        ($name:ident, $arch:expr, $kind:expr, $a:expr, $b:expr) => {
            same_bits!($name, $arch, $kind, $a, $b, |r| (r, ()))
        };
        ($name:ident, $arch:expr, $kind:expr, $a:expr, $b:expr, $counted:expr) => {{
            let (fast, fc) = $counted(exec::$name($arch, &phase($kind), $a, $b).unwrap());
            let (slow, sc) = $counted(scalar::$name($arch, &phase($kind), $a, $b).unwrap());
            assert_eq!(fc, sc, stringify!($name));
            assert_eq!(fast.cycles, slow.cycles, stringify!($name));
            assert_eq!(
                bits(fast.output.as_slice()),
                bits(slow.output.as_slice()),
                stringify!($name)
            );
        }};
    }
    same_bits!(zfost_s_conv, &zfost, ConvKind::S, &big, &k);
    same_bits!(zfost_t_conv, &zfost, ConvKind::T, &smallx, &k);
    same_bits!(zfwst_s_conv, &zfwst, ConvKind::S, &big, &k);
    same_bits!(zfwst_t_conv, &zfwst, ConvKind::T, &smallx, &k);
    same_bits!(zfwst_wgrad_s, &zfwst, ConvKind::WGradS, &big, &smallx);
    same_bits!(zfwst_wgrad_t, &zfwst, ConvKind::WGradT, &smallx, &big);
    same_bits!(ost_t_conv, &ost, ConvKind::T, &smallx, &k, |r| r);
    same_bits!(wst_s_conv, &wst, ConvKind::S, &big, &k, |r| r);
    same_bits!(nlr_s_conv, &nlr, ConvKind::S, &big, &k, |r| r);
}
