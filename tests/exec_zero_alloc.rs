//! Proof of the zero-allocation executor hot path: once an
//! [`ExecWorkspace`] has warmed up, steady-state **untraced** `*_ws`
//! passes through all nine cycle-accurate executors perform **zero** heap
//! allocations — the output arena, the lane and parity scratch, and the
//! pool's task fan-out are all recycled, and the baselines' counters are
//! read off the tap table. Measured with a counting
//! `#[global_allocator]`, which is why this test lives in its own binary
//! with a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use zfgan::dataflow::exec::{
    nlr_s_conv_ws, ost_t_conv_ws, wst_s_conv_ws, zfost_s_conv_ws, zfost_t_conv_ws, zfwst_s_conv_ws,
    zfwst_t_conv_ws, zfwst_wgrad_s_ws, zfwst_wgrad_t_ws,
};
use zfgan::dataflow::{ExecWorkspace, Nlr, Ost, Wst, Zfost, Zfwst};
use zfgan::sim::{ConvKind, ConvShape};
use zfgan::tensor::{ConvGeom, Fmaps, Kernels};

struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

/// One untraced pass through all nine executors, recycling every output
/// back into the workspace. Returns the allocation-event delta.
#[allow(clippy::too_many_arguments)]
fn full_sweep(
    s_phase: &ConvShape,
    t_phase: &ConvShape,
    ws_phase: &ConvShape,
    wt_phase: &ConvShape,
    big: &Fmaps<f32>,
    smallx: &Fmaps<f32>,
    k: &Kernels<f32>,
    ws: &mut ExecWorkspace<f32>,
) -> u64 {
    let zfost = Zfost::new(4, 4, 2);
    let zfwst = Zfwst::new(2, 2, 2);
    let ost = Ost::new(4, 4, 2);
    let wst = Wst::new(2, 2, 2);
    let nlr = Nlr::new(2, 2);
    let before = alloc_events();

    let out = zfost_s_conv_ws(&zfost, s_phase, big, k, ws).unwrap();
    ws.give_fmaps(out.output);
    let out = zfost_t_conv_ws(&zfost, t_phase, smallx, k, ws).unwrap();
    ws.give_fmaps(out.output);
    let grad = zfwst_wgrad_s_ws(&zfwst, ws_phase, big, smallx, ws).unwrap();
    ws.give_kernels(grad.output);
    let grad = zfwst_wgrad_t_ws(&zfwst, wt_phase, smallx, big, ws).unwrap();
    ws.give_kernels(grad.output);
    let (out, _census) = ost_t_conv_ws(&ost, t_phase, smallx, k, ws).unwrap();
    ws.give_fmaps(out.output);
    let (out, _psums) = wst_s_conv_ws(&wst, s_phase, big, k, ws).unwrap();
    ws.give_fmaps(out.output);
    let (out, _fetches) = nlr_s_conv_ws(&nlr, s_phase, big, k, ws).unwrap();
    ws.give_fmaps(out.output);
    let out = zfwst_s_conv_ws(&zfwst, s_phase, big, k, ws).unwrap();
    ws.give_fmaps(out.output);
    let out = zfwst_t_conv_ws(&zfwst, t_phase, smallx, k, ws).unwrap();
    ws.give_fmaps(out.output);

    alloc_events() - before
}

#[test]
fn warm_executor_passes_allocate_nothing() {
    let mut rng = SmallRng::seed_from_u64(77);
    // MNIST-GAN layer-2 geometry (14×14 ↔ 7×7, k=5, s=2) with asymmetric
    // padding, exercising edge tiles on every side.
    let geom = ConvGeom::down(14, 14, 5, 5, 2, 7, 7).expect("static geometry");
    let (small, large) = (5usize, 3usize);
    let s_phase = ConvShape::new(ConvKind::S, geom, small, large, 14, 14);
    let t_phase = ConvShape::new(ConvKind::T, geom, small, large, 14, 14);
    let ws_phase = ConvShape::new(ConvKind::WGradS, geom, small, large, 14, 14);
    let wt_phase = ConvShape::new(ConvKind::WGradT, geom, small, large, 14, 14);
    let big = Fmaps::random(large, 14, 14, 1.0, &mut rng);
    let smallx = Fmaps::random(small, 7, 7, 1.0, &mut rng);
    let k = Kernels::random(small, large, 5, 5, 0.25, &mut rng);

    let mut ws: ExecWorkspace<f32> = ExecWorkspace::new();
    // Warm-up: grows the arena and geometry scratch to steady-state size
    // (two rounds so best-fit reuse settles).
    for _ in 0..2 {
        full_sweep(
            &s_phase, &t_phase, &ws_phase, &wt_phase, &big, &smallx, &k, &mut ws,
        );
    }

    for step in 0..5 {
        let delta = full_sweep(
            &s_phase, &t_phase, &ws_phase, &wt_phase, &big, &smallx, &k, &mut ws,
        );
        assert_eq!(
            delta, 0,
            "steady-state executor sweep {step} allocated {delta} times; the \
             untraced fast path must be allocation-free once the workspace is \
             warm"
        );
    }

    // Sanity check that the counter actually works: a cold workspace (and
    // the traced variant's buffer) must allocate.
    let before = alloc_events();
    let mut cold: ExecWorkspace<f32> = ExecWorkspace::new();
    let out = zfost_s_conv_ws(&Zfost::new(4, 4, 2), &s_phase, &big, &k, &mut cold).unwrap();
    drop(out);
    assert!(
        alloc_events() - before > 0,
        "cold-workspace pass reported zero allocations — counter broken?"
    );
}
