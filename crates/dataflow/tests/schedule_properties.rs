//! Property-based invariants every dataflow schedule must satisfy, over
//! randomly drawn phases and unrolling configurations.

use proptest::prelude::*;
use zfgan_dataflow::{
    ArchKind, Dataflow, Nlr, Ost, RowStationary, UnrollChoice, Wst, Zfost, Zfwst,
};
use zfgan_sim::{ConvKind, ConvShape};
use zfgan_tensor::ConvGeom;

fn arb_phase() -> impl Strategy<Value = ConvShape> {
    (
        1usize..=2,
        2usize..=5,
        2usize..=6,
        1usize..=8,
        1usize..=8,
        0usize..4,
    )
        .prop_map(|(stride_sel, k, out, small, large, kind_sel)| {
            let stride = stride_sel + 1; // 2 or 3
                                         // A kernel smaller than the stride cannot cover the input with
                                         // padding below the kernel size; clamp to keep geometry valid.
            let k = k.max(stride);
            let in_hw = stride * out;
            let geom = ConvGeom::down(in_hw, in_hw, k, k, stride, out, out)
                .expect("constructed to be valid");
            let kind = match kind_sel {
                0 => ConvKind::S,
                1 => ConvKind::T,
                2 => ConvKind::WGradS,
                _ => ConvKind::WGradT,
            };
            ConvShape::new(kind, geom, small, large, in_hw, in_hw)
        })
}

fn arb_factors() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..=5, 1usize..=5, 1usize..=16)
}

/// A non-empty subset of one paper GAN's layer ladder (Table IV: MNIST-GAN,
/// DCGAN, cGAN) under one convolution family — the phase sets
/// `PhaseTuned::tune` hands to the search.
fn arb_paper_phases() -> impl Strategy<Value = Vec<ConvShape>> {
    (0usize..3, 0usize..4, 1usize..16).prop_map(|(gan, kind_sel, mask)| {
        // (input maps, input size) of the first layer, ladder depth, kernel.
        let (img_c, img_hw, depth, kernel) = [(1, 28, 2, 5), (3, 64, 4, 5), (3, 64, 4, 4)][gan];
        let kind = [ConvKind::S, ConvKind::T, ConvKind::WGradS, ConvKind::WGradT][kind_sel];
        let ladder: Vec<ConvShape> = (0..depth)
            .map(|l| {
                let (large, small) = (if l == 0 { img_c } else { 32 << l }, 64 << l);
                let hw = img_hw >> l;
                let geom = ConvGeom::down(hw, hw, kernel, kernel, 2, hw / 2, hw / 2)
                    .expect("paper layers are valid");
                ConvShape::new(kind, geom, small, large, hw, hw)
            })
            .collect();
        let picked: Vec<ConvShape> = (0..depth)
            .filter(|l| mask >> l & 1 == 1)
            .map(|l| ladder[l])
            .collect();
        if picked.is_empty() {
            ladder
        } else {
            picked
        }
    })
}

/// The search space of `UnrollChoice::search`, in its candidate order.
fn candidates(arch: ArchKind, budget: usize) -> Vec<UnrollChoice> {
    let grid: Vec<(usize, usize)> = match arch {
        ArchKind::Nlr => [8, 16, 32, 64].into_iter().map(|p_if| (p_if, 1)).collect(),
        _ => (1..=8).flat_map(|y| (1..=8).map(move |x| (y, x))).collect(),
    };
    grid.into_iter()
        .filter(|(y, x)| budget / (y * x) > 0)
        .map(|(p_y, p_x)| UnrollChoice {
            arch,
            p_y,
            p_x,
            p_of: budget / (p_y * p_x),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// No schedule is super-efficient: utilization ≤ 1 everywhere, i.e.
    /// cycles × nPEs ≥ effectual MACs.
    #[test]
    fn no_architecture_exceeds_unit_utilization(
        phase in arb_phase(),
        (py, px, pof) in arb_factors(),
    ) {
        let archs: Vec<Box<dyn Dataflow>> = vec![
            Box::new(Nlr::new(py * px, pof)),
            Box::new(Wst::new(py, px, pof)),
            Box::new(Ost::new(py, px, pof)),
            Box::new(Zfost::new(py, px, pof)),
            Box::new(Zfwst::new(py, px, pof)),
            Box::new(RowStationary::new(py, px, pof)),
        ];
        for arch in archs {
            let s = arch.schedule(&phase);
            prop_assert!(s.cycles > 0, "{:?} produced zero cycles", arch.kind());
            prop_assert!(
                s.utilization() <= 1.0 + 1e-9,
                "{:?} on {:?}: util {} > 1",
                arch.kind(),
                phase.kind(),
                s.utilization()
            );
        }
    }

    /// The zero-free designs never lose to their direct baselines at equal
    /// configuration.
    #[test]
    fn zero_free_dominates_pointwise(
        phase in arb_phase(),
        (py, px, pof) in arb_factors(),
    ) {
        let ost = Ost::new(py, px, pof).schedule(&phase);
        let zfost = Zfost::new(py, px, pof).schedule(&phase);
        prop_assert!(
            zfost.cycles <= ost.cycles,
            "ZFOST {} > OST {} on {:?}",
            zfost.cycles,
            ost.cycles,
            phase.kind()
        );
        // ZFWST folds its whole grid into ONE ∇W neuron per cycle, so it
        // only dominates dense WST when each pass has a full fold of work
        // (sh·sw ≥ grid). Table V always sizes grids that way; a grid
        // larger than the dot-product length leaves the adder tree idle
        // while WST keeps every PE on a distinct neuron.
        let (sh, sw) = phase.small_hw();
        if phase.kind().is_weight_grad() && sh * sw >= py * px {
            let wst = Wst::new(py, px, pof).schedule(&phase);
            let zfwst = Zfwst::new(py, px, pof).schedule(&phase);
            prop_assert!(
                zfwst.cycles <= wst.cycles,
                "ZFWST {} > WST {} on {:?}",
                zfwst.cycles,
                wst.cycles,
                phase.kind()
            );
        }
    }

    /// Effectual MACs are an architecture-independent phase property.
    #[test]
    fn effectual_macs_do_not_depend_on_the_architecture(
        phase in arb_phase(),
        (py, px, pof) in arb_factors(),
    ) {
        let a = Ost::new(py, px, pof).schedule(&phase).effectual_macs;
        let b = Zfwst::new(py, px, pof).schedule(&phase).effectual_macs;
        let c = Nlr::new(py * px, pof).schedule(&phase).effectual_macs;
        prop_assert_eq!(a, phase.effectual_macs());
        prop_assert_eq!(b, a);
        prop_assert_eq!(c, a);
    }

    /// More channels never slow a schedule down (monotonicity in P_of).
    #[test]
    fn channel_unrolling_is_monotone(
        phase in arb_phase(),
        (py, px, pof) in arb_factors(),
    ) {
        type Maker = fn(usize, usize, usize) -> Box<dyn Dataflow>;
        let makers: [Maker; 3] = [
            |y, x, c| Box::new(Ost::new(y, x, c)),
            |y, x, c| Box::new(Zfost::new(y, x, c)),
            |y, x, c| Box::new(Zfwst::new(y, x, c)),
        ];
        for make in makers {
            let small = make(py, px, pof).schedule(&phase).cycles;
            let big = make(py, px, pof * 2).schedule(&phase).cycles;
            prop_assert!(big <= small, "doubling P_of slowed {:?}", phase.kind());
        }
    }

    /// Access totals are positive and outputs are written at least once.
    #[test]
    fn schedules_account_for_their_outputs(
        phase in arb_phase(),
        (py, px, pof) in arb_factors(),
    ) {
        for arch in [
            Box::new(Ost::new(py, px, pof)) as Box<dyn Dataflow>,
            Box::new(Zfost::new(py, px, pof)),
            Box::new(Zfwst::new(py, px, pof)),
        ] {
            let s = arch.schedule(&phase);
            prop_assert!(s.access.output_writes >= phase.output_count());
            prop_assert!(s.access.total() > 0);
        }
    }

    /// The search scores candidates on the pure cycle model; the result must
    /// be the argmin a caller would find through the public, instrumented
    /// `schedule_all`, ties going to fewer accesses, then fewer PEs, then
    /// the earlier candidate. Pins model == schedule and the candidate order.
    #[test]
    fn search_equals_brute_force_over_instrumented_schedules(
        arch_sel in 0usize..5,
        phases in arb_paper_phases(),
        budget in 32usize..=4096,
    ) {
        let arch = ArchKind::ALL[arch_sel];
        let brute = candidates(arch, budget)
            .into_iter()
            .enumerate()
            .min_by_key(|(i, c)| {
                let stats = c.build().schedule_all(&phases);
                (stats.cycles, stats.access.total(), c.n_pes(), *i)
            })
            .map(|(_, c)| c)
            .expect("budgets of 32 and up leave every arch a candidate");
        prop_assert_eq!(UnrollChoice::search(arch, budget, &phases), brute);
    }
}
