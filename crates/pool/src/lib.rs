//! `zfgan-pool` — a persistent, lazily-initialized, process-global worker
//! pool for the data-parallel hot paths: the packed GEMM's row chunks, `B`
//! packing and lowering fills (`zfgan-tensor`), the zero-free executors'
//! lane chunks (`zfgan-dataflow`), the DSE unroll search and cell waves
//! (`zfgan-dse`), and the sweep maps behind `zfgan paper`.
//!
//! Before this crate existed every parallel call site spawned and joined
//! fresh OS threads, which made a parallel GEMM *slower* than the naive
//! loop at layer-sized shapes. The pool spawns `pool_threads() - 1` workers
//! once, on first use. Between batches a worker polls for `SPIN_WINDOW`
//! and then parks on a condvar, so a batch that follows another within the
//! window is picked up in about a microsecond, and an idle process burns no
//! CPU; a submitter whose last tasks are still running on workers polls for
//! the same window before it blocks. Width is the pool's business: `ZFGAN_THREADS` (or the host's core
//! count) is the only thing that sets it, and callers decide *whether* a
//! piece of work is worth a batch, never how wide the machine is.
//!
//! # Execution model
//!
//! A batch is `n` index-tasks over a caller-provided `Fn(usize) + Sync`
//! closure. Tasks are distributed round-robin over per-worker deques; idle
//! workers pop their own queue front-first and steal from other queues
//! back-first. The submitting thread never blocks idly while its batch is in
//! flight: it *helps*, running queued tasks of its own batch — found
//! anywhere in any queue, never another batch's — until every task of its
//! batch has finished. This makes nested submission safe: a pooled job whose
//! conv layers fan their GEMMs out on the same pool cannot deadlock, because
//! a blocked submitter can run every task it waits for that no other thread
//! has started, and tasks only ever wait on batches they submitted
//! themselves. Helping with its own batch only also means a submitter
//! never picks up another batch's task (a whole sample lane, say), so it
//! returns as soon as its own batch has finished.
//!
//! # Determinism contract
//!
//! The pool assigns each index to exactly one executor; callers partition
//! output buffers so each element is written once, with the same per-element
//! reduction order as the sequential reference. Scheduling affects only
//! *which thread* computes an element, never the arithmetic — so pooled
//! results are bit-identical to sequential ones and the fig15–fig19 sweeps
//! stay byte-stable. Pool telemetry (tasks, batches, steals, queue depth) is
//! scheduling-dependent and therefore emitted via the wall-clock metric
//! class, which the deterministic export section excludes.
//!
//! # Panic semantics
//!
//! Each task runs under `catch_unwind`; a panicking task is counted and the
//! batch completes the remaining work, returning
//! [`PoolError::TaskPanicked`], so a caller decides what a failed task
//! means only after its batch has drained (the trainer's sample
//! lanes panic the step on the calling thread then, where the training
//! supervisor contains it). The
//! sequential fallback (one hardware thread, one task, or an uninitialized
//! pool) uses the same per-index `catch_unwind`, so error semantics do not
//! depend on where the batch ran.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Error returned when one or more tasks of a batch panicked. The batch
/// still ran to completion (every non-panicking task finished), mirroring
/// the semantics callers need to degrade gracefully.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// `failed` of `total` tasks panicked.
    TaskPanicked {
        /// Number of tasks whose closure panicked.
        failed: usize,
        /// Total number of tasks in the batch.
        total: usize,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::TaskPanicked { failed, total } => {
                write!(f, "{failed} of {total} pool tasks panicked")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Parses a `ZFGAN_THREADS`-style override, falling back to the detected
/// hardware parallelism. Factored out of [`pool_threads`] so the parse rules
/// are unit-testable despite the process-wide `OnceLock` cache.
fn threads_from(env: Option<&str>, fallback: usize) -> usize {
    match env.and_then(|s| s.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => fallback.max(1),
    }
}

/// The process-wide thread budget: `ZFGAN_THREADS` if set to a positive
/// integer, else `std::thread::available_parallelism()`. Computed once per
/// process and cached — call sites must never re-query the OS per call.
pub fn pool_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let fallback = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        threads_from(std::env::var("ZFGAN_THREADS").ok().as_deref(), fallback)
    })
}

/// Header of an in-flight batch. Lives on the submitter's stack; the
/// completion protocol below guarantees no task (or worker) touches it after
/// the submitter returns.
struct BatchHeader {
    /// Monomorphized trampoline: calls the `Fn(usize)` behind `ctx`.
    run: unsafe fn(*const (), usize),
    /// Type-erased pointer to the caller's closure (`&F`, `F: Sync`).
    ctx: *const (),
    /// Tasks not yet finished. The executor of the last task performs the
    /// `done` handoff.
    remaining: AtomicUsize,
    /// Tasks whose closure panicked.
    panicked: AtomicUsize,
    /// Completion flag. Set to `true` — and signalled — *while holding the
    /// mutex* by whichever thread finishes the last task; the submitter only
    /// returns after observing `true` under the same mutex. This handoff is
    /// what makes the stack-resident header sound: `remaining == 0` alone
    /// would let the submitter free the header while the finishing worker is
    /// still about to signal it.
    done: Mutex<bool>,
    done_cv: Condvar,
}

/// One unit of work: an index into some batch.
#[derive(Clone, Copy)]
struct Task {
    header: *const BatchHeader,
    index: usize,
}

// SAFETY: the raw header pointer is only dereferenced while the batch is in
// flight; the submitter keeps the header alive until the `done` handoff
// (see `BatchHeader::done`), after which no `Task` for it exists anywhere.
unsafe impl Send for Task {}

/// Shared pool state: one deque per worker, a version counter + condvar for
/// idle parking, and a round-robin cursor for task placement.
struct Shared {
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Tasks currently queued (approximate; used only for the depth gauge).
    pending: AtomicUsize,
    /// Bumped on every submission; parked workers wake when it changes.
    version: Mutex<u64>,
    work_cv: Condvar,
    /// Rotates the starting queue between submissions to spread load.
    rr: AtomicUsize,
}

impl Shared {
    fn new(n_queues: usize) -> Self {
        Shared {
            // Pre-sized: the allocation-free callers queue a few tasks per
            // thread and batch, and how deep a queue gets before a worker
            // pops depends on scheduling — a deque that grew on demand made
            // "a warm pass allocates nothing" a race.
            queues: (0..n_queues)
                .map(|_| Mutex::new(VecDeque::with_capacity(64)))
                .collect(),
            pending: AtomicUsize::new(0),
            version: Mutex::new(0),
            work_cv: Condvar::new(),
            rr: AtomicUsize::new(0),
        }
    }
}

/// Executes one task: catch the panic, count it, and perform the completion
/// handoff if this was the batch's last task.
fn run_task(t: Task) {
    // SAFETY: the batch is in flight (this Task was just popped), so the
    // header is alive; `run`/`ctx` were built from a `&F` with `F: Sync`.
    let header = unsafe { &*t.header };
    let ok = catch_unwind(AssertUnwindSafe(|| unsafe {
        (header.run)(header.ctx, t.index)
    }))
    .is_ok();
    if !ok {
        header.panicked.fetch_add(1, Ordering::SeqCst);
    }
    if header.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
        // Last task: flip `done` and signal while still holding the lock —
        // after the guard drops the submitter may free the header, so no
        // header access is allowed past this block.
        let mut d = header.done.lock().unwrap();
        *d = true;
        header.done_cv.notify_all();
    }
}

/// Steals a task from any queue other than `me` (back-first, so owners and
/// thieves contend on opposite ends).
fn steal(shared: &Shared, me: usize) -> Option<Task> {
    for (i, qm) in shared.queues.iter().enumerate() {
        if i == me {
            continue;
        }
        if let Some(t) = qm.lock().unwrap().pop_back() {
            zfgan_telemetry::count_wall("pool_steals_total", &[], 1);
            return Some(t);
        }
    }
    None
}

/// How long a worker that found every queue empty keeps polling before it
/// parks, and a submitter whose batch is finishing on other threads before
/// it blocks. A train step submits its batches in bursts (pack, GEMM, next
/// fill) a few microseconds apart, and waking a parked worker costs more
/// than a 20 µs task takes; the gaps *between* bursts (a figure's serial
/// section) are milliseconds, and those park.
const SPIN_WINDOW: Duration = Duration::from_micros(200);

fn worker_loop(shared: &'static Shared, me: usize) {
    let mut seen_version = 0u64;
    let mut ran_task = false;
    loop {
        // Two statements: the guard on our own queue must drop before we
        // steal, or two workers stealing from each other deadlock.
        let own = shared.queues[me].lock().unwrap().pop_front();
        if let Some(t) = own.or_else(|| steal(shared, me)) {
            shared.pending.fetch_sub(1, Ordering::Relaxed);
            run_task(t);
            ran_task = true;
            continue;
        }
        // Spin before parking, one bounded window per stretch of work (a
        // worker that ran nothing since it last polled or parked goes
        // straight to the condvar, so an idle pool costs what it did). This only
        // *postpones* the park path below and adds no state between
        // submitter and worker: `run_batch` counts a batch into `pending`,
        // queues every task, and only then bumps `version`, so a task
        // counted in `pending` is reachable from a queue before the bump
        // that a parked worker waits for. A poll that sees `pending > 0`
        // goes back to the queues; a poll that never does falls through to
        // the version check under the lock exactly as if it had not spun.
        // `Relaxed` is enough: the load publishes nothing, the queue mutexes
        // do. The yield hands the core to any runnable thread (the kernel's
        // journal threads during a store `fsync`, a sibling process).
        if std::mem::take(&mut ran_task) {
            let idle_since = Instant::now();
            let mut queued = false;
            while !queued && idle_since.elapsed() < SPIN_WINDOW {
                std::thread::yield_now();
                queued = shared.pending.load(Ordering::Relaxed) > 0;
            }
            if queued {
                continue;
            }
        }
        let v = shared.version.lock().unwrap();
        if *v != seen_version {
            seen_version = *v;
            continue;
        }
        // Timeout is belt-and-suspenders against a missed wakeup; the
        // version counter is the real signal.
        let (v, _) = shared
            .work_cv
            .wait_timeout(v, Duration::from_millis(50))
            .unwrap();
        seen_version = *v;
    }
}

/// The lazily-created global pool. `None` when the thread budget is 1 —
/// every batch then runs inline. Worker spawn failures are tolerated: a
/// submitting thread's help loop runs whatever of its batch no worker took,
/// so a pool with zero live workers still completes every batch (just
/// sequentially).
fn pool() -> Option<&'static Shared> {
    static POOL: OnceLock<Option<&'static Shared>> = OnceLock::new();
    *POOL.get_or_init(|| {
        let threads = pool_threads();
        if threads <= 1 {
            return None;
        }
        let shared: &'static Shared = Box::leak(Box::new(Shared::new(threads - 1)));
        for i in 0..threads - 1 {
            let _ = std::thread::Builder::new()
                .name(format!("zfgan-pool-{i}"))
                .spawn(move || worker_loop(shared, i));
        }
        Some(shared)
    })
}

/// Runs `n` tasks inline on the calling thread with pooled panic semantics.
fn run_inline<F: Fn(usize) + Sync>(n: usize, f: &F) -> Result<(), PoolError> {
    let mut failed = 0;
    for i in 0..n {
        if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
            failed += 1;
        }
    }
    if failed > 0 {
        Err(PoolError::TaskPanicked { failed, total: n })
    } else {
        Ok(())
    }
}

/// Pops a queued task of batch `own` from anywhere in any queue — the help
/// step of a submitter, which never runs another batch's task (see the
/// crate docs). Looking past the queue fronts matters: a worker blocked
/// inside another batch's task leaves whatever sits behind it in its queue
/// to the submitter.
fn pop_own(shared: &Shared, own: *const BatchHeader) -> Option<Task> {
    shared.queues.iter().find_map(|qm| {
        let mut q = qm.lock().expect("no task runs under a queue lock");
        let at = q.iter().position(|t| std::ptr::eq(t.header, own))?;
        q.remove(at)
    })
}

/// Runs `f(0..n)` as a batch on the global pool, returning once every index
/// has executed exactly once. Falls back to an inline sequential loop when
/// the thread budget is 1 or the batch is trivial. See the crate docs for
/// the determinism and panic contracts.
pub fn run_batch<F: Fn(usize) + Sync>(n: usize, f: &F) -> Result<(), PoolError> {
    if n == 0 {
        return Ok(());
    }
    zfgan_telemetry::count_wall("pool_batches_total", &[], 1);
    zfgan_telemetry::count_wall("pool_tasks_total", &[], n as u64);
    let shared = if n > 1 { pool() } else { None };
    let Some(shared) = shared else {
        return run_inline(n, f);
    };

    /// Monomorphized trampoline; `ctx` is a `&F` in disguise.
    unsafe fn call<F: Fn(usize) + Sync>(ctx: *const (), index: usize) {
        let f = &*(ctx as *const F);
        f(index);
    }

    let header = BatchHeader {
        run: call::<F>,
        ctx: f as *const F as *const (),
        remaining: AtomicUsize::new(n),
        panicked: AtomicUsize::new(0),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    };
    let hp: *const BatchHeader = &header;

    // Count the tasks before any becomes poppable: a worker that popped one
    // ahead of this add would take the gauge below zero.
    let depth = shared.pending.fetch_add(n, Ordering::Relaxed) + n;
    zfgan_telemetry::gauge_wall("pool_queue_depth", &[], depth as f64);
    let nq = shared.queues.len();
    let start = shared.rr.fetch_add(1, Ordering::Relaxed);
    for i in 0..n {
        shared.queues[(start + i) % nq]
            .lock()
            .unwrap()
            .push_back(Task {
                header: hp,
                index: i,
            });
    }
    {
        let mut v = shared.version.lock().unwrap();
        *v = v.wrapping_add(1);
        shared.work_cv.notify_all();
    }

    // Help until our batch completes: run our queued tasks, and only park —
    // briefly — when none is left in any queue, which means our remaining
    // tasks are executing on workers right now.
    loop {
        if *header.done.lock().unwrap() {
            break;
        }
        if let Some(t) = pop_own(shared, hp) {
            shared.pending.fetch_sub(1, Ordering::Relaxed);
            run_task(t);
            continue;
        }
        // What is left of our batch is running on workers right now,
        // typically for less time than a futex wake takes. Poll for the same
        // bounded window a worker does before blocking; the `done` handoff
        // under the mutex below stays the only exit.
        let waiting_since = Instant::now();
        while header.remaining.load(Ordering::SeqCst) > 0 && waiting_since.elapsed() < SPIN_WINDOW {
            std::thread::yield_now();
        }
        let d = header.done.lock().unwrap();
        if *d {
            break;
        }
        if header.remaining.load(Ordering::SeqCst) == 0 {
            // The last task is between its decrement and the handoff.
            continue;
        }
        let (d, _) = header
            .done_cv
            .wait_timeout(d, Duration::from_millis(1))
            .unwrap();
        if *d {
            break;
        }
    }

    let failed = header.panicked.load(Ordering::SeqCst);
    if failed > 0 {
        Err(PoolError::TaskPanicked { failed, total: n })
    } else {
        Ok(())
    }
}

/// Scoped parallel for: `f(i)` for every `i in 0..n`, each exactly once.
pub fn parallel_for<F: Fn(usize) + Sync>(n: usize, f: F) -> Result<(), PoolError> {
    run_batch(n, &f)
}

/// Raw-pointer wrapper for handing disjoint output slots to pool tasks.
#[derive(Debug)]
struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Offsets the base pointer. A method (rather than field access) so
    /// closures capture the whole `Sync` wrapper, not the raw `.0` field —
    /// edition-2021 precise capture would otherwise grab the bare pointer
    /// and un-`Sync` the closure.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds of the allocation behind the base pointer.
    unsafe fn add(self, i: usize) -> *mut T {
        self.0.add(i)
    }
}

// SAFETY: every use partitions the pointee so each task touches a disjoint
// element/range; the buffer outlives the batch (it is owned by the caller
// of run_batch, which blocks until completion).
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// Maps `f` over `0..n` on the pool and returns the results in index order.
/// If any task panics the surviving results are dropped and the typed error
/// is returned.
pub fn parallel_map<R, F>(n: usize, f: F) -> Result<Vec<R>, PoolError>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let out = SendPtr(slots.as_mut_ptr());
    run_batch(n, &|i| {
        let r = f(i);
        // SAFETY: each index writes only its own slot; `slots` outlives the
        // batch because run_batch blocks until completion.
        unsafe { *out.add(i) = Some(r) };
    })?;
    Ok(slots
        .into_iter()
        .map(|s| s.expect("every pool task fills its slot"))
        .collect())
}

/// Splits `data` into consecutive chunks of `chunk_len` (the last may be
/// shorter; the chunking is identical to `data.chunks_mut(chunk_len)`) and
/// runs `f(chunk_index, chunk)` for each on the pool. Returns nothing, so
/// the call itself performs **no heap allocation** — the primitive the
/// zero-allocation executor hot path in `zfgan-dataflow` fans out on.
/// Tasks that need to report back do so through caller-owned state
/// (disjoint chunk writes, or commutative atomics).
///
/// # Panics
///
/// Panics if `chunk_len == 0` and `data` is non-empty.
pub fn parallel_chunks_for<T, F>(data: &mut [T], chunk_len: usize, f: F) -> Result<(), PoolError>
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return Ok(());
    }
    assert!(chunk_len > 0, "chunk_len must be positive");
    let len = data.len();
    let n = len.div_ceil(chunk_len);
    let base = SendPtr(data.as_mut_ptr());
    run_batch(n, &|i| {
        let start = i * chunk_len;
        let end = (start + chunk_len).min(len);
        // SAFETY: chunks [start, end) are pairwise disjoint across indices
        // and in bounds; `data` outlives the batch.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.add(start), end - start) };
        f(i, chunk);
    })
}

/// Element count under which a pass the size of a layer's parameters — an
/// optimizer step over one weight tensor, a layer's sub-kernel re-gather, a
/// zero-filled gradient accumulator — stays one serial loop on the calling
/// thread. On a two-vCPU AVX-512 host an RMSProp pass costs 0.6–0.9 ns an
/// element on one thread. Fanned out over two threads it wins from 16 Ki
/// elements while the workers still spin from the previous batch, and
/// breaks even at 64 Ki when they have parked (1 ms idle before each
/// pass): the threshold sits at that break-even.
pub const PASS_FAN_OUT_MIN_ELEMS: usize = 1 << 16;

/// How many pieces a parameter-sized pass over `elems` elements is cut
/// into: one under [`PASS_FAN_OUT_MIN_ELEMS`] or on a serial pool, else two
/// per pool thread, so the share of a worker that arrives late is taken
/// over by the submitter. Scheduling only: the passes it cuts are
/// elementwise or pure copies, so the bits never depend on it.
pub fn pass_pieces(elems: usize) -> usize {
    let threads = pool_threads();
    if threads <= 1 || elems < PASS_FAN_OUT_MIN_ELEMS || SERIAL_PASSES.get() {
        1
    } else {
        2 * threads
    }
}

thread_local! {
    /// Set on a thread while [`serial_passes`] runs there.
    static SERIAL_PASSES: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with every parameter-sized pass it starts on the calling
/// thread held to its serial loop ([`pass_pieces`] returns 1). It exists
/// only for the serial arm of the `fanout/param_step` bench gate, which
/// cannot reach those loops otherwise (the sub-kernel rewrite runs in a
/// layer's weight guard as it drops); no production caller sets it, and
/// hidden from the docs, it is not part of the pool's API. Passes that
/// other threads start are unaffected. The previous setting comes back
/// when `f` returns or unwinds.
#[doc(hidden)]
pub fn serial_passes<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            SERIAL_PASSES.set(self.0);
        }
    }
    let _restore = Restore(SERIAL_PASSES.replace(true));
    f()
}

/// The most buffers one [`parallel_zip_chunks_for`] call can cut: the
/// sixteen stride phases of a stride-4 kernel.
pub const ZIP_MAX_BUFFERS: usize = 16;

/// One buffer of a [`parallel_zip_chunks_for`] batch: where it starts, how
/// long it is, and how long its chunks are.
#[derive(Debug)]
struct ZipBuf<T> {
    base: SendPtr<T>,
    len: usize,
    chunk: usize,
}

impl<T> Clone for ZipBuf<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ZipBuf<T> {}

/// Task `i`'s share of a [`parallel_zip_chunks_for`] batch: the `i`-th chunk
/// of every buffer, in the order the buffers were passed.
#[derive(Debug)]
pub struct ZipChunks<'a, T> {
    bufs: &'a [ZipBuf<T>],
    index: usize,
}

impl<T> ZipChunks<'_, T> {
    /// The task's chunk of every buffer, in order. A buffer with fewer
    /// chunks than the batch has tasks yields an empty slice past its end.
    /// Call it again to walk the same chunks once more.
    pub fn iter_mut(&mut self) -> impl ExactSizeIterator<Item = &mut [T]> + '_ {
        let index = self.index;
        self.bufs.iter().map(move |b| {
            let start = index.saturating_mul(b.chunk).min(b.len);
            let end = start.saturating_add(b.chunk).min(b.len);
            // SAFETY: `[start, end)` lies inside buffer `b`, which was a
            // live `&mut [T]` handed to `parallel_zip_chunks_for` and
            // outlives the batch (the call blocks until every task is
            // done). The slice is disjoint from every other live slice:
            // another buffer is another `&mut` borrow, another task has
            // another index and so another chunk of the same buffer, and
            // the slices this task got from an earlier `iter_mut` are dead
            // because that call borrowed `self` mutably for as long as they
            // lived.
            unsafe { std::slice::from_raw_parts_mut(b.base.add(start), end - start) }
        })
    }
}

/// Runs `f(i, chunks)` for every task `i`, where `chunks` hands out the
/// `i`-th chunk of each of several disjoint buffers, each cut at its own
/// chunk length (the last chunk may be shorter): an elementwise pass over
/// tensors that belong together — a weight tensor and its moment
/// estimates, the phase matrices of one gather — split so each task owns
/// the same slice of all of them. There are as many tasks as the buffer
/// with the most chunks has. Allocates nothing.
///
/// As with every batch, the submitter helps with its own tasks only, so a
/// caller may run this while holding a lock that another batch's tasks
/// take (a layer's sub-kernel cache, whose write guard is held across the
/// gather): with the tasks of `f` taking no locks, the batch finishes even
/// if every worker is blocked on that lock, because the submitter can run
/// every one of its tasks itself.
///
/// # Panics
///
/// Panics if more than [`ZIP_MAX_BUFFERS`] buffers are passed, or if a
/// non-empty buffer has a chunk length of zero.
pub fn parallel_zip_chunks_for<'a, T, I, F>(bufs: I, f: F) -> Result<(), PoolError>
where
    T: Send + 'a,
    I: IntoIterator<Item = (&'a mut [T], usize)>,
    F: Fn(usize, ZipChunks<'_, T>) + Sync,
{
    let unused = ZipBuf {
        base: SendPtr(std::ptr::null_mut()),
        len: 0,
        chunk: 1,
    };
    let mut table = [unused; ZIP_MAX_BUFFERS];
    let (mut count, mut tasks) = (0, 0);
    for (buf, chunk) in bufs {
        assert!(count < ZIP_MAX_BUFFERS, "at most {ZIP_MAX_BUFFERS} buffers");
        assert!(chunk > 0 || buf.is_empty(), "chunk length must be positive");
        let chunk = chunk.max(1);
        tasks = buf.len().div_ceil(chunk).max(tasks);
        table[count] = ZipBuf {
            base: SendPtr(buf.as_mut_ptr()),
            len: buf.len(),
            chunk,
        };
        count += 1;
    }
    let bufs = &table[..count];
    run_batch(tasks, &|index| f(index, ZipChunks { bufs, index }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn threads_from_parses_override() {
        assert_eq!(threads_from(Some("3"), 8), 3);
        assert_eq!(threads_from(Some(" 2 "), 8), 2);
        assert_eq!(threads_from(Some("0"), 8), 8);
        assert_eq!(threads_from(Some("nope"), 8), 8);
        assert_eq!(threads_from(None, 8), 8);
        assert_eq!(threads_from(None, 0), 1);
    }

    #[test]
    fn pool_threads_is_stable() {
        assert_eq!(pool_threads(), pool_threads());
        assert!(pool_threads() >= 1);
    }

    #[test]
    fn parallel_for_runs_every_index_once() {
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(100, |i| i * i).unwrap();
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert!(parallel_map(0, |i| i).unwrap().is_empty());
    }

    #[test]
    fn chunks_for_visits_every_chunk_once() {
        let mut data: Vec<u64> = vec![0; 103];
        let visits = AtomicU64::new(0);
        parallel_chunks_for(&mut data, 10, |ci, chunk| {
            visits.fetch_add(1, Ordering::SeqCst);
            for v in chunk.iter_mut() {
                *v = ci as u64 + 1;
            }
        })
        .unwrap();
        assert_eq!(visits.load(Ordering::SeqCst), 11);
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, (i / 10) as u64 + 1, "element {i} missed its chunk");
        }
        let mut empty: Vec<u64> = Vec::new();
        parallel_chunks_for(&mut empty, 4, |_, _| unreachable!()).unwrap();
    }

    #[test]
    fn chunks_for_writes_each_element_once_with_a_ragged_tail() {
        // (len, chunk_len): a short last chunk, a chunk longer than the
        // data (one inline task), and an exact fit.
        for (len, chunk_len) in [(25usize, 7usize), (103, 10), (5, 9), (1, 1), (64, 16)] {
            let mut data = vec![0u64; len];
            parallel_chunks_for(&mut data, chunk_len, |ci, chunk| {
                let start = ci * chunk_len;
                assert_eq!(chunk.len(), chunk_len.min(len - start), "chunk {ci}");
                for (i, v) in chunk.iter_mut().enumerate() {
                    // Adds, not stores: a chunk handed out twice would show.
                    *v += 1 + ((start + i) as u64) * 2;
                }
            })
            .unwrap();
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, 1 + i as u64 * 2, "len {len} chunk {chunk_len} at {i}");
            }
        }
    }

    #[test]
    fn panics_become_typed_errors_and_batch_completes() {
        let done = AtomicU64::new(0);
        let err = parallel_for(16, |i| {
            if i % 4 == 0 {
                panic!("task {i} exploded");
            }
            done.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap_err();
        assert_eq!(
            err,
            PoolError::TaskPanicked {
                failed: 4,
                total: 16
            }
        );
        assert_eq!(done.load(Ordering::SeqCst), 12);
    }

    #[test]
    fn nested_batches_do_not_deadlock() {
        let total = AtomicU64::new(0);
        parallel_for(8, |_| {
            let inner = parallel_map(8, |j| j as u64).unwrap();
            total.fetch_add(inner.iter().sum::<u64>(), Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(total.load(Ordering::SeqCst), 8 * 28);
    }

    /// Every buffer is cut at its own chunk length, the last chunk of each
    /// ragged; a buffer with fewer chunks than the batch has tasks hands the
    /// extra tasks an empty slice; and every element is visited exactly
    /// once, by the task whose chunk holds it, however often a task walks
    /// its chunks.
    #[test]
    fn zip_chunks_cut_each_buffer_at_its_own_length() {
        // (len, chunk_len): ragged, ragged to one element, exact, and a
        // buffer with two chunks in a four-task batch.
        let shapes = [(25usize, 7usize), (13, 4), (40, 10), (5, 3)];
        let mut bufs: Vec<Vec<u64>> = shapes.iter().map(|&(len, _)| vec![0; len]).collect();
        let visits = AtomicU64::new(0);
        let zipped = bufs
            .iter_mut()
            .zip(shapes)
            .map(|(b, (_, c))| (&mut b[..], c));
        parallel_zip_chunks_for(zipped, |i, mut chunks| {
            visits.fetch_add(1, Ordering::SeqCst);
            assert_eq!(chunks.iter_mut().len(), shapes.len());
            for pass in 0..2u64 {
                for (chunk, &(len, c)) in chunks.iter_mut().zip(&shapes) {
                    let start = (i * c).min(len);
                    assert_eq!(chunk.len(), c.min(len - start), "task {i}, {len}/{c}");
                    for (j, v) in chunk.iter_mut().enumerate() {
                        // Adds, not stores: a chunk handed out twice shows.
                        *v += (1 + pass) * (1 + 2 * (start + j) as u64);
                    }
                }
            }
        })
        .unwrap();
        assert_eq!(
            visits.load(Ordering::SeqCst),
            4,
            "the most chunks any buffer has"
        );
        for (b, &(len, c)) in bufs.iter().zip(&shapes) {
            let want: Vec<u64> = (0..len as u64).map(|j| 3 * (1 + 2 * j)).collect();
            assert_eq!(b, &want, "{len}/{c}");
        }
        let mut empty: Vec<u64> = Vec::new();
        parallel_zip_chunks_for([(&mut empty[..], 0)], |_, _| unreachable!()).unwrap();
    }

    /// A panicking zip task surfaces as the typed error with its count, and
    /// every other task still ran.
    #[test]
    fn zip_task_panics_become_typed_errors() {
        let (mut a, mut b) = (vec![0u32; 40], vec![0u32; 80]);
        let err = parallel_zip_chunks_for([(&mut a[..], 5), (&mut b[..], 10)], |i, mut c| {
            assert!(i % 3 != 1, "task {i} exploded");
            for chunk in c.iter_mut() {
                chunk.fill(1);
            }
        })
        .unwrap_err();
        assert_eq!(
            err,
            PoolError::TaskPanicked {
                failed: 3,
                total: 8
            }
        );
        for (i, chunk) in a.chunks(5).enumerate() {
            let want = u32::from(i % 3 != 1);
            assert!(chunk.iter().all(|&v| v == want), "task {i}");
        }
        assert_eq!(b.iter().filter(|&&v| v == 1).count(), 50);
    }

    /// A submitter helps only with its own tasks: while another thread
    /// keeps the queues full of its own batches, none of those tasks ever
    /// runs on the submitting thread during a zip batch or a plain one. (If
    /// one could, a caller holding a lock that such a task takes — a
    /// layer's sub-kernel cache during its re-gather, or while a critic
    /// pass reads it — would deadlock on itself.)
    #[test]
    fn submitters_never_run_another_batchs_task() {
        use std::sync::atomic::AtomicBool;
        let spin = |micros: u64| {
            let t = Instant::now();
            while t.elapsed() < Duration::from_micros(micros) {
                std::hint::spin_loop();
            }
        };
        let me = std::thread::current().id();
        let (inside, stop) = (AtomicBool::new(false), AtomicBool::new(false));
        let (foreign, stolen) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    parallel_for(8, |_| {
                        foreign.fetch_add(1, Ordering::SeqCst);
                        if std::thread::current().id() == me && inside.load(Ordering::SeqCst) {
                            stolen.fetch_add(1, Ordering::SeqCst);
                        }
                        spin(30);
                    })
                    .unwrap();
                }
            });
            let mut data = [0u8; 64];
            for round in 0..300 {
                inside.store(true, Ordering::SeqCst);
                if round % 2 == 0 {
                    parallel_zip_chunks_for([(&mut data[..], 8)], |_, mut c| {
                        c.iter_mut().for_each(|chunk| chunk.fill(1));
                        spin(20);
                    })
                    .unwrap();
                } else {
                    parallel_for(8, |_| spin(20)).unwrap();
                }
                inside.store(false, Ordering::SeqCst);
            }
            stop.store(true, Ordering::SeqCst);
        });
        assert!(foreign.load(Ordering::SeqCst) > 0);
        assert_eq!(
            stolen.load(Ordering::SeqCst),
            0,
            "a submitter ran a foreign task"
        );
    }

    #[test]
    fn pass_pieces_is_one_under_the_threshold_or_on_a_serial_pool() {
        assert_eq!(pass_pieces(0), 1);
        assert_eq!(pass_pieces(PASS_FAN_OUT_MIN_ELEMS - 1), 1);
        let wide = if pool_threads() > 1 {
            2 * pool_threads()
        } else {
            1
        };
        assert_eq!(pass_pieces(PASS_FAN_OUT_MIN_ELEMS), wide);
        assert_eq!(pass_pieces(usize::MAX), wide);
        let nested = serial_passes(|| {
            let inner = serial_passes(|| pass_pieces(usize::MAX));
            (inner, pass_pieces(usize::MAX))
        });
        assert_eq!(nested, (1, 1), "held serial, nested or not");
        assert_eq!(pass_pieces(usize::MAX), wide, "restored on return");
    }

    #[test]
    fn single_task_runs_inline() {
        let mut x = 0u64;
        let xp = &mut x as *mut u64 as usize;
        parallel_for(1, |_| {
            // SAFETY: n == 1, runs inline on this thread.
            unsafe { *(xp as *mut u64) += 7 };
        })
        .unwrap();
        assert_eq!(x, 7);
    }

    /// Regression for two races that tiny batches from several submitters
    /// hit within milliseconds. `run_batch` used to count its tasks into the
    /// depth gauge after enqueueing them, so a worker that popped one first
    /// wrapped the gauge and the submitter's `fetch_add(n) + n` overflowed: a
    /// panic in debug builds, roughly one tier-1 run in two. And a worker
    /// used to steal while still holding its own queue's lock, so two
    /// workers stealing from each other deadlocked (needs `ZFGAN_THREADS`
    /// >= 3 for two workers; the CI repeat loop runs 2, 4 and 8).
    #[test]
    fn tiny_batches_from_racing_submitters_all_complete() {
        std::thread::scope(|s| {
            for t in 0..4usize {
                s.spawn(move || {
                    for round in 0..5_000 {
                        let out = parallel_map(2, |i| t + round + i).unwrap();
                        assert_eq!(out, [t + round, t + round + 1]);
                    }
                });
            }
        });
    }
}
