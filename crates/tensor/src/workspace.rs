//! A reusable scratch arena for the conv hot path.
//!
//! Every lowered convolution needs the same transient buffers — the
//! (transposed) patch matrix, phase GEMM products, and the output maps.
//! Allocating them from scratch per call is where a training step's heap
//! traffic comes from; [`ConvWorkspace`] keeps the buffers on a free list
//! instead, so after a warm-up step the conv hot path performs **zero heap
//! allocation** (pinned by `tests/zero_alloc.rs` with a
//! counting global allocator).
//!
//! The weights are *not* among the transients: the packed lowerings read
//! the kernel tensor in place, and a layer's gathered phase sub-kernels
//! live with the layer ([`crate::PhaseKernels`] — written with the weights,
//! they outlive a step). Only callers holding a bare `&Kernels` gather
//! sub-kernels into workspace scratch, per call.
//!
//! # Lifetime rules
//!
//! - `take_*` hands out a buffer of the exact requested shape, zero-filled
//!   (several fill loops — phase patches, scatter-skipped outputs — rely
//!   on starting from zeros). [`ConvWorkspace::take_dirty`] is the one
//!   exception: no fill, for buffers whose every element is overwritten
//!   before it is read (GEMM products, streamed operand rows, gradients
//!   that are a product).
//! - `give_*` returns a buffer to the free list. Returning is optional for
//!   correctness (a dropped buffer is just an allocation next time) and
//!   mandatory for the zero-allocation guarantee.
//! - Buffers grow monotonically: `take` picks the smallest free buffer
//!   whose capacity already fits (best fit), so a steady-state workload
//!   stops allocating once every distinct size has been seen.
//! - A workspace is plain owned data (`Send`): one per trainer, never
//!   shared across threads. Pool workers inside a fanned-out GEMM, pack or
//!   fill only write caller-partitioned slices (and read the pack scratch
//!   the plan filled before the batch), never the workspace itself.

use crate::fmaps::Fmaps;
use crate::im2col::Matrix;
use crate::kernels::Kernels;
use crate::microkernel::PackScratch;
use crate::num::Num;
use crate::zero_free::PhaseCache;

/// Free-list arena for conv-sized `Vec<T>` buffers plus the memoized
/// T-CONV phase decompositions. See the module docs for the lifetime and
/// zero-fill rules.
#[derive(Debug)]
pub struct ConvWorkspace<T> {
    free: Vec<Vec<T>>,
    /// Memoized `stride²`-phase decompositions for the zero-free T-CONV
    /// lowering (shape-keyed; shared out as `Arc` clones so the hot path
    /// never recomputes or reallocates them).
    pub(crate) phases: PhaseCache,
    /// Packed-microkernel scratch (packed `B` panels + `A` zero masks),
    /// reused across GEMMs so the packed fast path stays allocation-free
    /// once warm.
    pack: PackScratch,
}

impl<T> Default for ConvWorkspace<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ConvWorkspace<T> {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self {
            free: Vec::new(),
            phases: PhaseCache::default(),
            pack: PackScratch::new(),
        }
    }

    /// The packed-microkernel scratch: a GEMM's plan writes its `A` masks
    /// here and its later steps (packing a `B` generated after the plan)
    /// pack into it.
    pub(crate) fn pack_scratch(&mut self) -> &mut PackScratch {
        &mut self.pack
    }

    /// Read-only view of the scratch as the last [`Self::pack_scratch`]
    /// caller left it: the `A` masks a just-run scan built.
    pub(crate) fn pack_scratch_ref(&self) -> &PackScratch {
        &self.pack
    }

    /// Number of buffers currently parked on the free list.
    pub fn free_buffers(&self) -> usize {
        self.free.len()
    }

    /// Total capacity (in elements) parked on the free list.
    pub fn free_elems(&self) -> usize {
        self.free.iter().map(Vec::capacity).sum()
    }
}

impl<T: Num> ConvWorkspace<T> {
    /// Takes a zero-filled buffer of exactly `len` elements, recycling the
    /// best-fitting free buffer.
    pub fn take(&mut self, len: usize) -> Vec<T> {
        let mut v = self.pick(len);
        v.clear();
        v.resize(len, T::zero());
        v
    }

    /// [`ConvWorkspace::take`] without the zero fill: the `len` elements
    /// hold whatever the recycled buffer last held (zeros where it had to
    /// grow). Only for buffers whose **every** element is overwritten
    /// before it is read — GEMM products, streamed `B` rows, gradients
    /// that are a product — where the fill would be a wasted pass over a
    /// parameter-sized tensor.
    pub fn take_dirty(&mut self, len: usize) -> Vec<T> {
        let mut v = self.pick(len);
        v.truncate(len);
        v.resize(len, T::zero());
        v
    }

    /// Removes the buffer that serves a `len`-element take from the free
    /// list (contents and length as they were given back): the smallest
    /// free buffer whose capacity suffices (best fit); otherwise the
    /// largest available one, which then grows once and serves this size
    /// forever after; a fresh empty one when the list is empty.
    fn pick(&mut self, len: usize) -> Vec<T> {
        let mut best: Option<usize> = None;
        let mut largest: Option<usize> = None;
        for (i, buf) in self.free.iter().enumerate() {
            if buf.capacity() >= len {
                if best.is_none_or(|b| buf.capacity() < self.free[b].capacity()) {
                    best = Some(i);
                }
            } else if largest.is_none_or(|l| buf.capacity() > self.free[l].capacity()) {
                largest = Some(i);
            }
        }
        match best.or(largest) {
            Some(i) => self.free.swap_remove(i),
            None => Vec::new(),
        }
    }

    /// Returns a buffer to the free list.
    pub fn give(&mut self, v: Vec<T>) {
        if v.capacity() > 0 {
            self.free.push(v);
        }
    }

    /// Takes a zero [`Matrix`] of the given shape from the arena.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero (as [`Matrix::zeros`] does).
    pub fn take_matrix(&mut self, rows: usize, cols: usize) -> Matrix<T> {
        Matrix::from_vec(rows, cols, self.take(rows * cols))
    }

    /// [`ConvWorkspace::take_matrix`] through [`ConvWorkspace::take_dirty`]:
    /// for a matrix whose every element is overwritten before it is read.
    pub(crate) fn take_matrix_dirty(&mut self, rows: usize, cols: usize) -> Matrix<T> {
        Matrix::from_vec(rows, cols, self.take_dirty(rows * cols))
    }

    /// Returns a matrix's buffer to the arena.
    pub fn give_matrix(&mut self, m: Matrix<T>) {
        self.give(m.into_vec());
    }

    /// Takes zero [`Fmaps`] of the given shape from the arena.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero (as [`Fmaps::zeros`] does).
    pub fn take_fmaps(&mut self, channels: usize, height: usize, width: usize) -> Fmaps<T> {
        Fmaps::from_vec(
            channels,
            height,
            width,
            self.take(channels * height * width),
        )
    }

    /// Returns a feature-map buffer to the arena.
    pub fn give_fmaps(&mut self, f: Fmaps<T>) {
        self.give(f.into_vec());
    }

    /// Takes zero [`Kernels`] of the given shape from the arena: a
    /// gradient accumulator (`ConvNet::zero_grads_ws`), the size of a
    /// layer's weights. One of [`zfgan_pool::PASS_FAN_OUT_MIN_ELEMS`]
    /// elements or more zeroes what the recycled buffer held in chunks on
    /// the pool. Every other take keeps [`ConvWorkspace::take`]'s serial
    /// fill: the fan-out was timed on DCGAN's accumulators (17 + 20 MB an
    /// op), not on the feature maps and patch matrices the passes take.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero (as [`Kernels::zeros`] does).
    pub fn take_kernels(&mut self, n_of: usize, n_if: usize, kh: usize, kw: usize) -> Kernels<T> {
        let len = n_of * n_if * kh * kw;
        let pieces = zfgan_pool::pass_pieces(len);
        if pieces == 1 {
            return Kernels::from_vec(n_of, n_if, kh, kw, self.take(len));
        }
        // Only growth is zero-extended here; the old contents are
        // overwritten by the pool, in chunks of whole cache lines.
        let mut v = self.pick(len);
        let dirty = v.len().min(len);
        v.truncate(len);
        v.resize(len, T::zero());
        let chunk = dirty.div_ceil(pieces).next_multiple_of(16);
        zfgan_pool::parallel_chunks_for(&mut v[..dirty], chunk, |_, c| c.fill(T::zero()))
            .expect("zero fill task panicked");
        Kernels::from_vec(n_of, n_if, kh, kw, v)
    }

    /// Returns a kernel buffer to the arena.
    pub fn give_kernels(&mut self, k: Kernels<T>) {
        self.give(k.into_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zero_filled_even_after_dirty_give() {
        let mut ws: ConvWorkspace<f32> = ConvWorkspace::new();
        let mut a = ws.take(8);
        a.iter_mut().for_each(|v| *v = 7.0);
        ws.give(a);
        let b = ws.take(4);
        assert_eq!(b, vec![0.0; 4]);
    }

    /// Past the fan-out threshold an accumulator's fill runs on the pool:
    /// every element of the take is zero whether the recycled buffer was
    /// longer (its tail cut off), shorter than the take (grown in place) or
    /// exactly as long.
    #[test]
    fn large_kernel_takes_are_zero_filled_on_the_pool() {
        let t = zfgan_pool::PASS_FAN_OUT_MIN_ELEMS;
        for (held, n_of) in [(2 * t, t + 3), (t, 2 * t + 5), (t + 1, t + 1)] {
            let mut ws: ConvWorkspace<f32> = ConvWorkspace::new();
            let mut dirty = Vec::with_capacity(3 * t);
            dirty.resize(held, 7.0);
            ws.give(dirty);
            let k = ws.take_kernels(n_of, 1, 1, 1);
            assert_eq!(k.len(), n_of);
            assert!(
                k.as_slice().iter().all(|&x| x == 0.0),
                "held {held}, took {n_of}"
            );
            assert!(
                k.into_vec().capacity() >= 3 * t,
                "recycled, not reallocated"
            );
        }
    }

    #[test]
    fn take_dirty_skips_the_fill_and_only_zero_extends() {
        let mut ws: ConvWorkspace<f32> = ConvWorkspace::new();
        let mut a = ws.take(4);
        a.iter_mut().for_each(|v| *v = 7.0);
        ws.give(a);
        // Old contents survive where they fit; growth is zero-extended.
        assert_eq!(ws.take_dirty(6), vec![7.0, 7.0, 7.0, 7.0, 0.0, 0.0]);
        let mut b = ws.take(6);
        b.iter_mut().for_each(|v| *v = 9.0);
        ws.give(b);
        assert_eq!(ws.take_dirty(2), vec![9.0, 9.0]);
    }

    #[test]
    fn steady_state_reuses_instead_of_allocating() {
        let mut ws: ConvWorkspace<f32> = ConvWorkspace::new();
        let warm = ws.take(100);
        ws.give(warm);
        let cap_before = ws.free_elems();
        for _ in 0..10 {
            let v = ws.take(100);
            assert!(v.capacity() >= 100);
            ws.give(v);
        }
        assert_eq!(ws.free_elems(), cap_before);
        assert_eq!(ws.free_buffers(), 1);
    }

    #[test]
    fn best_fit_prefers_the_smallest_sufficient_buffer() {
        let mut ws: ConvWorkspace<f32> = ConvWorkspace::new();
        ws.give(Vec::with_capacity(1000));
        ws.give(Vec::with_capacity(10));
        let v = ws.take(5);
        assert!(v.capacity() < 1000, "took the big buffer for a small job");
        ws.give(v);
    }

    #[test]
    fn typed_takes_have_the_right_shapes() {
        let mut ws: ConvWorkspace<f32> = ConvWorkspace::new();
        let m = ws.take_matrix(3, 4);
        let f = ws.take_fmaps(2, 3, 4);
        let k = ws.take_kernels(2, 3, 4, 5);
        assert_eq!((m.rows(), m.cols()), (3, 4));
        assert_eq!(f.shape(), (2, 3, 4));
        assert_eq!(k.shape(), (2, 3, 4, 5));
        ws.give_matrix(m);
        ws.give_fmaps(f);
        ws.give_kernels(k);
        assert_eq!(ws.free_buffers(), 3);
    }
}
