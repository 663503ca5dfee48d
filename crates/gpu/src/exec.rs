//! Data-parallel kernel-body execution on the host.
//!
//! Kernel bodies are real Rust code. This module runs them over index
//! ranges on one persistent worker pool — the same chunked grid/block
//! shape a CUDA kernel would use — so the implementations stay faithful to
//! their GPU formulation (independent blocks, no cross-block mutation)
//! while the simulated cost comes from the `device` module, not from wall
//! time.
//!
//! # Execution contract
//!
//! Every helper here hands each block to exactly one worker, and blocks
//! never share mutable state. Combined with a fixed block decomposition
//! (blocks are split by index arithmetic, never by load), any kernel body
//! that is a pure function of its block is **deterministic**: the output is
//! identical whatever `worker_count()` returns, including 1. The hot paths
//! in `tensornet`, `qcf-core`, `compressors` and `codec-kit` rely on this
//! to keep parallel output bit-identical to serial output.
//!
//! # The pool
//!
//! Like a GPU's resident workers, the pool is started once: on the first
//! call with more than one share of work, it spawns the configured worker
//! count minus one threads (the calling thread is the last worker), and
//! they live for the rest of the process. A call splits its blocks into
//! at most `worker_count()` contiguous *shares*. The calling thread runs
//! share 0 and then claims unstarted shares alongside the woken workers,
//! and it returns (or re-raises a block's panic) only after every share
//! has finished. Idle workers park on a condition variable; nothing
//! spins. The job lives on the caller's stack, so handing work over
//! allocates nothing.
//!
//! The pool serves one call at a time. A call made while another is in
//! flight runs all its shares inline on its own thread: that covers calls
//! nested inside a block (which run on the worker or caller executing that
//! block) and calls from unrelated threads, so no call ever waits for a
//! worker that is itself waiting, and nesting cannot deadlock.
//! [`threads_spawned`] counts every thread the engine has started.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

use qcf_telemetry::lock_unpoisoned;

/// When set, `worker_count()` reports 1 regardless of the host — see
/// [`with_serial_workers`].
static FORCE_SERIAL: AtomicBool = AtomicBool::new(false);

/// Threads started by the engine; see [`threads_spawned`].
static THREADS_SPAWNED: AtomicU64 = AtomicU64::new(0);

/// The process's executor pool, started on first parallel use.
static POOL: Pool = Pool::new(configured_pool_threads);

/// The configured worker count, ignoring [`with_serial_workers`]: the
/// `QCF_WORKERS` setting, else the host's parallelism.
fn configured_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        qcf_telemetry::config::config().workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    })
}

/// Threads [`POOL`] starts: the calling thread is the last worker.
fn configured_pool_threads() -> usize {
    configured_workers() - 1
}

/// Number of worker threads used for kernel bodies (the host's parallelism,
/// not the simulated GPU's).
///
/// Overridable with the `QCF_WORKERS` environment variable (a positive
/// integer, read once per process through `qcf_telemetry::config`). This
/// matters on single-core CI hosts: setting `QCF_WORKERS=4` forces the
/// multi-threaded code paths so the determinism contract is actually
/// exercised there.
pub fn worker_count() -> usize {
    if FORCE_SERIAL.load(Ordering::Relaxed) {
        return 1;
    }
    configured_workers()
}

/// Runs `f` with `worker_count()` pinned to 1 — the serial baseline for
/// speedup measurements.
///
/// The executor's block decomposition is worker-count independent, so the
/// serial run computes bit-identical output; only the scheduling changes.
/// The pin is **process-global** (benches and the report's speedup probe
/// are single-threaded at the top level, which is the intended use); the
/// previous state is restored even if `f` panics. The pool itself keeps
/// the size it was started with; pinned calls simply never wake it.
pub fn with_serial_workers<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCE_SERIAL.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(FORCE_SERIAL.swap(true, Ordering::Relaxed));
    f()
}

/// Threads the engine has started in this process: the pool's workers and
/// any dedicated I/O threads (the spill prefetcher's). Readable with
/// telemetry off; [`count_thread_spawn`] also mirrors each start into the
/// `exec.threads_spawned` registry counter. A warm operation adds nothing
/// here.
pub fn threads_spawned() -> u64 {
    THREADS_SPAWNED.load(Ordering::Relaxed)
}

/// Records one thread start in [`threads_spawned`] and the
/// `exec.threads_spawned` counter. Every engine thread spawn calls it.
pub fn count_thread_spawn() {
    THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
    qcf_telemetry::registry()
        .counter("exec.threads_spawned")
        .inc();
}

/// First panic payload captured across worker blocks.
///
/// Every block body runs under [`catch_unwind`](panic::catch_unwind), so a
/// poisoned block takes down neither its worker thread nor the blocks
/// queued behind it: the remaining blocks all execute, each panic bumps
/// the `exec.worker.panics` counter, and the caller re-raises the *first*
/// payload once every share has finished. Callers that can degrade
/// gracefully (the compressed-state chunk loop) catch that single panic
/// and fail only the affected chunk; everyone else keeps the old
/// fail-fast behaviour.
struct PanicSlot(Mutex<Option<Box<dyn Any + Send>>>);

impl PanicSlot {
    fn new() -> Self {
        PanicSlot(Mutex::new(None))
    }

    /// Runs one block body under the unwind guard. The injected
    /// `exec.worker.panic` fault fires inside the guard so chaos runs
    /// exercise exactly the recovery path real kernel panics take.
    fn run(&self, b: usize, f: impl FnOnce()) {
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            if qcf_telemetry::faults::inject("exec.worker.panic").is_some() {
                panic!("injected fault: exec.worker.panic at block {b}");
            }
            f()
        }));
        if let Err(payload) = caught {
            qcf_telemetry::registry()
                .counter("exec.worker.panics")
                .inc();
            lock_unpoisoned(&self.0).get_or_insert(payload);
        }
    }

    /// Re-raises the first captured panic, if any.
    fn resume(self) {
        if let Some(payload) = self.0.into_inner().unwrap_or_else(|e| e.into_inner()) {
            panic::resume_unwind(payload);
        }
    }
}

/// One call's work as the pool sees it: shares `0..shares`, claimed in
/// order from `next`, each run by `run`. `run` never unwinds: every
/// caller catches its panics per block.
struct Job<'a> {
    run: &'a (dyn Fn(usize) + Sync),
    shares: usize,
    next: AtomicUsize,
}

impl Job<'_> {
    /// Claims and runs shares until none is left.
    fn drain(&self) {
        loop {
            // Relaxed: the counter only hands out indices; the job's data
            // reaches the workers through the pool lock.
            let s = self.next.fetch_add(1, Ordering::Relaxed);
            if s >= self.shares {
                return;
            }
            (self.run)(s);
        }
    }
}

/// A published [`Job`] with its lifetime erased. Workers dereference it
/// only between joining it (under the pool lock, while it is published)
/// and leaving it; [`Pool::run`] retracts it and waits for every worker to
/// leave before the job's stack frame ends.
#[derive(Clone, Copy)]
struct JobRef(*const Job<'static>);

// SAFETY: a `Job` is `Sync` (a `Sync` closure and an atomic), and the
// pointer is only dereferenced while the job is alive (see `JobRef`).
unsafe impl Send for JobRef {}

/// What the pool lock guards.
struct Board {
    /// The call in flight, if any.
    job: Option<JobRef>,
    /// Bumped per published job, so a worker joins each job at most once.
    epoch: u64,
    /// Workers that joined the current job and have not left it yet.
    active: usize,
    /// Workers that have started serving.
    ready: usize,
}

/// A fixed set of parked worker threads plus the calling thread.
struct Pool {
    /// Threads to start on first parallel use.
    size: fn() -> usize,
    /// Threads actually started (set once, on first parallel use).
    threads: OnceLock<usize>,
    /// A call is in flight: any other call runs inline. Taken with
    /// Acquire, released with Release by [`Pool::run`]'s retract guard,
    /// so a call starts only after the previous one has fully finished.
    busy: AtomicBool,
    board: Mutex<Board>,
    /// Workers park here between jobs.
    work: Condvar,
    /// The caller parks here until the last worker leaves its job (and
    /// the starting thread until every worker is serving).
    done: Condvar,
}

impl Pool {
    const fn new(size: fn() -> usize) -> Pool {
        Pool {
            size,
            threads: OnceLock::new(),
            busy: AtomicBool::new(false),
            board: Mutex::new(Board {
                job: None,
                epoch: 0,
                active: 0,
                ready: 0,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        }
    }

    /// Starts the workers once and waits until every one is serving, so
    /// their start-up is over before the first job; returns how many run.
    /// The join handles are dropped on purpose: workers never exit, and a
    /// share cannot unwind into them (see [`Job`]).
    fn start(&'static self) -> usize {
        *self.threads.get_or_init(|| {
            let n = (self.size)();
            for i in 0..n {
                std::thread::Builder::new()
                    .name(format!("qcf-exec-{i}"))
                    .spawn(move || self.serve())
                    .expect("start an executor worker thread");
                count_thread_spawn();
            }
            let mut board = lock_unpoisoned(&self.board);
            while board.ready < n {
                board = self.done.wait(board).unwrap_or_else(|e| e.into_inner());
            }
            n
        })
    }

    /// A worker's life: report ready, then park until a new job is
    /// published, help drain it, leave it, repeat.
    fn serve(&self) {
        let mut seen = 0u64;
        let mut board = lock_unpoisoned(&self.board);
        board.ready += 1;
        self.done.notify_all();
        loop {
            match board.job {
                Some(job) if board.epoch != seen => {
                    seen = board.epoch;
                    board.active += 1;
                    drop(board);
                    // SAFETY: the job stays alive until `active` is back
                    // to zero (see `Pool::run`).
                    unsafe { &*job.0 }.drain();
                    board = lock_unpoisoned(&self.board);
                    board.active -= 1;
                    if board.active == 0 {
                        self.done.notify_one();
                    }
                }
                _ => board = self.work.wait(board).unwrap_or_else(|e| e.into_inner()),
            }
        }
    }

    /// Runs `run(s)` for every share `s` in `0..shares` and returns when
    /// all have finished: inline when there is one share, no worker, or
    /// another call in flight; otherwise the caller runs share 0 and
    /// drains the rest alongside up to `shares - 1` woken workers. `run`
    /// must not unwind (callers catch per block).
    fn run(&'static self, shares: usize, run: &(dyn Fn(usize) + Sync)) {
        let threads = if shares > 1 { self.start() } else { 0 };
        if threads == 0 || self.busy.swap(true, Ordering::Acquire) {
            (0..shares).for_each(run);
            return;
        }
        let job = Job {
            run,
            shares,
            next: AtomicUsize::new(1),
        };
        /// Retracts the job and waits out its workers, on return and on
        /// unwind alike, before `job` goes out of scope.
        struct Retract(&'static Pool);
        impl Drop for Retract {
            fn drop(&mut self) {
                let pool = self.0;
                let mut board = lock_unpoisoned(&pool.board);
                board.job = None;
                while board.active > 0 {
                    board = pool.done.wait(board).unwrap_or_else(|e| e.into_inner());
                }
                drop(board);
                pool.busy.store(false, Ordering::Release);
            }
        }
        {
            let mut board = lock_unpoisoned(&self.board);
            board.job = Some(JobRef(std::ptr::from_ref(&job).cast()));
            board.epoch += 1;
        }
        let _retract = Retract(self);
        for _ in 1..shares.min(threads + 1) {
            self.work.notify_one();
        }
        run(0);
        job.drain();
    }
}

/// A pool and the worker count its calls split their blocks for. The
/// public helpers use [`Exec::current`]; tests drive a private pool at
/// chosen worker counts.
#[derive(Clone, Copy)]
struct Exec {
    pool: &'static Pool,
    workers: usize,
}

impl Exec {
    fn current() -> Exec {
        Exec {
            pool: &POOL,
            workers: worker_count(),
        }
    }

    fn for_blocks(self, n_items: usize, n_blocks: usize, body: &(dyn Fn(usize, Range) + Sync)) {
        assert!(n_blocks > 0, "need at least one block");
        // Blocks of `per` items; the empty ones all trail, so blocks
        // `0..live` are exactly the non-empty ones.
        let per = n_items.div_ceil(n_blocks);
        let live = if per == 0 { 0 } else { n_items.div_ceil(per) };
        let per_share = live.div_ceil(self.workers.min(live).max(1));
        let shares = if live == 0 {
            0
        } else {
            live.div_ceil(per_share)
        };
        let slot = PanicSlot::new();
        self.pool.run(shares, &|s| {
            for b in s * per_share..((s + 1) * per_share).min(live) {
                slot.run(b, || body(b, b * per..((b + 1) * per).min(n_items)));
            }
        });
        slot.resume();
    }

    fn map_blocks<T: Sync, R: Send + Default + Clone>(
        self,
        input: &[T],
        block_len: usize,
        f: impl Fn(usize, &[T]) -> R + Sync,
    ) -> Vec<R> {
        assert!(block_len > 0, "block length must be positive");
        if input.is_empty() {
            return Vec::new();
        }
        let n_blocks = input.len().div_ceil(block_len);
        let mut out = vec![R::default(); n_blocks];
        let out_ptr = SyncSlice(out.as_mut_ptr());
        self.for_blocks(n_blocks, n_blocks, &|_, range| {
            for b in range {
                let lo = b * block_len;
                let hi = (lo + block_len).min(input.len());
                let val = f(b, &input[lo..hi]);
                // SAFETY: each block index b is visited exactly once across
                // all workers (for_blocks hands out disjoint ranges), so
                // each out[b] slot is written by exactly one thread.
                unsafe { *out_ptr.get().add(b) = val };
            }
        });
        out
    }

    fn chunks_mut<T: Send>(
        self,
        data: &mut [T],
        block_len: usize,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        assert!(block_len > 0, "block length must be positive");
        if data.is_empty() {
            return;
        }
        let len = data.len();
        let n_blocks = len.div_ceil(block_len);
        let base = SyncSlice(data.as_mut_ptr());
        // One block per chunk, so each chunk passes the panic guard alone.
        self.for_blocks(n_blocks, n_blocks, &|_, range| {
            for b in range {
                let lo = b * block_len;
                let hi = (lo + block_len).min(len);
                // SAFETY: chunk b is `lo..hi` of `data`, which stays
                // mutably borrowed for this call; for_blocks visits each b
                // once, so the chunks handed out never overlap.
                let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(lo), hi - lo) };
                f(b, chunk);
            }
        });
    }

    fn map_chunks_mut<T: Send, R: Send + Default + Clone>(
        self,
        data: &mut [T],
        block_len: usize,
        f: impl Fn(usize, &mut [T]) -> R + Sync,
    ) -> Vec<R> {
        assert!(block_len > 0, "block length must be positive");
        if data.is_empty() {
            return Vec::new();
        }
        let n_blocks = data.len().div_ceil(block_len);
        let mut out = vec![R::default(); n_blocks];
        let out_ptr = SyncSlice(out.as_mut_ptr());
        self.chunks_mut(data, block_len, |b, chunk| {
            let val = f(b, chunk);
            // SAFETY: chunks_mut hands each block index b to exactly one
            // worker, so each out[b] slot is written by exactly one thread.
            unsafe { *out_ptr.get().add(b) = val };
        });
        out
    }

    fn fill_blocks<T: Send>(
        self,
        out: &mut [T],
        block_len: usize,
        f: impl Fn(usize, Range, &mut [T]) + Sync,
    ) {
        self.chunks_mut(out, block_len, |b, chunk| {
            let lo = b * block_len;
            f(b, lo..lo + chunk.len(), chunk);
        });
    }

    fn join<RA: Send, RB: Send>(
        self,
        a: impl FnOnce() -> RA + Send,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB) {
        let (a, b) = (Mutex::new(Some(a)), Mutex::new(Some(b)));
        let (ra, rb) = (Mutex::new(None), Mutex::new(None));
        let share = |s: usize| {
            if s == 0 {
                let f = lock_unpoisoned(&a).take().expect("share 0 runs once");
                *lock_unpoisoned(&ra) = Some(panic::catch_unwind(AssertUnwindSafe(f)));
            } else {
                let f = lock_unpoisoned(&b).take().expect("share 1 runs once");
                *lock_unpoisoned(&rb) = Some(panic::catch_unwind(AssertUnwindSafe(f)));
            }
        };
        if self.workers > 1 {
            self.pool.run(2, &share);
        } else {
            share(0);
            share(1);
        }
        fn take<R>(r: Mutex<Option<std::thread::Result<R>>>) -> std::thread::Result<R> {
            r.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every share ran")
        }
        match (take(ra), take(rb)) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            (Err(p), _) | (_, Err(p)) => panic::resume_unwind(p),
        }
    }
}

/// An item range: one block's span of indices.
type Range = std::ops::Range<usize>;

/// Runs `body(block_index, start..end)` over `n_items` split into
/// `n_blocks` contiguous blocks, in parallel when workers are available.
///
/// The body must be pure per block (no shared mutation) — identical to the
/// constraint CUDA thread blocks live under. Nested invocation is allowed:
/// it runs inline on the thread executing the outer block (see the module
/// docs). A panic in any block is caught per block: every other block
/// still runs, and the first panic payload is re-raised to the caller once
/// every share has finished (see [`PanicSlot`]).
pub fn par_for_blocks<F>(n_items: usize, n_blocks: usize, body: F)
where
    F: Fn(usize, Range) + Sync,
{
    Exec::current().for_blocks(n_items, n_blocks, &body);
}

/// Runs `body(block_index)` for blocks `0..n_blocks` serially on the
/// caller thread, under the same per-block panic guard — including the
/// `exec.worker.panic` fault point — as the parallel helpers.
///
/// Single-worker fast paths (e.g. a codec streaming every block into one
/// shared writer) use this so that chaos runs and panic accounting see the
/// exact same per-block events as the data-parallel path; a block panic is
/// still caught, counted, and re-raised after the remaining blocks run.
/// The body may mutate captured state (`FnMut`): on the serial path each
/// block finishes before the next starts, and after a panic the partial
/// state is discarded by the re-raise.
pub fn serial_for_blocks(n_blocks: usize, mut body: impl FnMut(usize)) {
    let slot = PanicSlot::new();
    for b in 0..n_blocks {
        slot.run(b, || body(b));
    }
    slot.resume();
}

/// Maps each block of `input` (chunks of `block_len`) to an output value,
/// in parallel; the result vector preserves block order.
pub fn par_map_blocks<T: Sync, R: Send + Default + Clone>(
    input: &[T],
    block_len: usize,
    f: impl Fn(usize, &[T]) -> R + Sync,
) -> Vec<R> {
    Exec::current().map_blocks(input, block_len, f)
}

/// Runs `f(block_index, chunk)` over disjoint mutable chunks of `data`
/// (`block_len` elements each, last one possibly shorter), in parallel.
///
/// This is the in-place mutation analogue of [`par_map_blocks`]: each
/// chunk is owned by exactly one worker, so kernels like zero-collapse or
/// a per-chunk Huffman encode can write their slice without
/// synchronization.
pub fn par_chunks_mut<T: Send, F>(data: &mut [T], block_len: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    Exec::current().chunks_mut(data, block_len, f);
}

/// Like [`par_chunks_mut`], but each block body also returns a value; the
/// result vector preserves block order.
///
/// This is the shape of a scatter-plus-reduce kernel: every block writes
/// its disjoint chunk of `data` in place and hands back a small per-block
/// summary (the vectorized dual-quant kernel writes symbols and returns
/// the block's outlier list).
pub fn par_map_chunks_mut<T: Send, R: Send + Default + Clone>(
    data: &mut [T],
    block_len: usize,
    f: impl Fn(usize, &mut [T]) -> R + Sync,
) -> Vec<R> {
    Exec::current().map_chunks_mut(data, block_len, f)
}

/// Fills `out` block-by-block: `f(block_index, range, chunk)` writes each
/// `block_len`-sized chunk of `out`, where `range` is the index span of
/// the chunk in the full slice. Parallel over blocks.
///
/// A convenience over [`par_chunks_mut`] for gather-style kernels
/// (de-interleave, broadcast products, axis sums) that need the absolute
/// offset.
pub fn par_fill_blocks<T: Send, F>(out: &mut [T], block_len: usize, f: F)
where
    F: Fn(usize, Range, &mut [T]) + Sync,
{
    Exec::current().fill_blocks(out, block_len, f);
}

/// Runs `a` on the calling thread and `b` on a pool worker, and returns
/// both results once both have finished. With one worker, or while the
/// pool serves another call, `b` runs after `a` on the caller. A panic in
/// either closure is re-raised on the caller after both have finished
/// (`a`'s first); unlike the block helpers, `join` is not a fault site.
pub fn join<RA: Send, RB: Send>(
    a: impl FnOnce() -> RA + Send,
    b: impl FnOnce() -> RB + Send,
) -> (RA, RB) {
    Exec::current().join(a, b)
}

/// Pointer wrapper asserting disjoint-write safety across threads. Accessed
/// only through [`SyncSlice::get`] so closures capture the whole wrapper
/// (edition-2021 disjoint capture would otherwise grab the bare pointer).
struct SyncSlice<R>(*mut R);

impl<R> SyncSlice<R> {
    fn get(&self) -> *mut R {
        self.0
    }
}

// SAFETY: the wrapper is only used with disjoint indices per thread.
unsafe impl<R> Sync for SyncSlice<R> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_item_once() {
        let n = 10_001;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for_blocks(n, 64, |_, range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn handles_fewer_items_than_blocks() {
        let count = AtomicUsize::new(0);
        par_for_blocks(3, 16, |_, range| {
            count.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn zero_items_is_a_noop() {
        par_for_blocks(0, 8, |_, _| panic!("must not run"));
    }

    #[test]
    fn map_blocks_preserves_order() {
        let data: Vec<u32> = (0..1000).collect();
        let sums = par_map_blocks(&data, 100, |b, chunk| (b, chunk.iter().sum::<u32>()));
        assert_eq!(sums.len(), 10);
        for (b, (idx, _)) in sums.iter().enumerate() {
            assert_eq!(b, *idx);
        }
        let total: u32 = sums.iter().map(|(_, s)| s).sum();
        assert_eq!(total, 499_500);
    }

    #[test]
    fn map_blocks_empty_input() {
        let data: [u32; 0] = [];
        let out = par_map_blocks(&data, 8, |_, _| -> usize { panic!("must not run") });
        assert!(out.is_empty());
    }

    #[test]
    fn map_blocks_partial_tail() {
        let data = [1u32, 2, 3, 4, 5];
        let lens = par_map_blocks(&data, 2, |_, chunk| chunk.len());
        assert_eq!(lens, vec![2, 2, 1]);
    }

    #[test]
    fn chunks_mut_writes_every_chunk_once() {
        let mut data = vec![0u32; 10_007];
        par_chunks_mut(&mut data, 64, |b, chunk| {
            for v in chunk.iter_mut() {
                *v += 1 + b as u32;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, 1 + (i / 64) as u32, "chunk of item {i}");
        }
    }

    #[test]
    fn chunks_mut_handles_empty_and_tiny() {
        let mut empty: Vec<u8> = vec![];
        par_chunks_mut(&mut empty, 8, |_, _| panic!("must not run"));
        let mut one = [7u8];
        par_chunks_mut(&mut one, 8, |b, chunk| {
            assert_eq!(b, 0);
            chunk[0] = 9;
        });
        assert_eq!(one, [9]);
    }

    #[test]
    fn map_chunks_mut_writes_and_returns_in_order() {
        let mut data = vec![1u32; 10_007];
        let sums = par_map_chunks_mut(&mut data, 64, |b, chunk| {
            for v in chunk.iter_mut() {
                *v += b as u32;
            }
            chunk.iter().map(|&v| v as usize).sum::<usize>()
        });
        assert_eq!(sums.len(), 10_007usize.div_ceil(64));
        for (b, s) in sums.iter().enumerate() {
            let len = 64.min(10_007 - b * 64);
            assert_eq!(*s, len * (1 + b), "block {b}");
        }
        let mut empty: Vec<u32> = vec![];
        let none = par_map_chunks_mut(&mut empty, 8, |_, _| -> usize { panic!("must not run") });
        assert!(none.is_empty());
    }

    #[test]
    fn fill_blocks_sees_absolute_ranges() {
        let mut out = vec![0usize; 1000];
        par_fill_blocks(&mut out, 96, |_, range, chunk| {
            for (i, v) in range.zip(chunk.iter_mut()) {
                *v = i * 3;
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_for_blocks(1024, 16, |b, _| {
                if b == 7 {
                    panic!("block 7 exploded");
                }
            });
        }));
        assert!(caught.is_err(), "panic in a worker must reach the caller");
    }

    #[test]
    fn other_blocks_complete_despite_one_panic() {
        // The unwind guard must isolate the poisoned block: all the others
        // run to completion before the panic reaches the caller.
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_for_blocks(64, 64, |b, range| {
                if b == 3 {
                    panic!("block 3 exploded");
                }
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
        }));
        assert!(caught.is_err());
        for (i, h) in hits.iter().enumerate() {
            let expect = usize::from(i != 3);
            assert_eq!(h.load(Ordering::Relaxed), expect, "block {i}");
        }
    }

    #[test]
    fn nested_invocations_lose_no_blocks() {
        // Outer blocks hold the pool's workers while their inner calls
        // run: those must run inline rather than wait for a worker.
        let n_outer = 8;
        let n_inner = 100;
        let hits: Vec<AtomicUsize> = (0..n_outer * n_inner)
            .map(|_| AtomicUsize::new(0))
            .collect();
        par_for_blocks(n_outer, n_outer, |_, outer| {
            for o in outer {
                par_for_blocks(n_inner, 4, |_, inner| {
                    for i in inner {
                        hits[o * n_inner + i].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    /// A private three-thread pool, so pool behaviour is tested whatever
    /// the configured worker count.
    static TEST_POOL: Pool = Pool::new(three_threads);

    fn three_threads() -> usize {
        3
    }

    fn on_pool_worker() -> bool {
        std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("qcf-exec-"))
    }

    fn payload_text(p: &(dyn Any + Send)) -> String {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn a_panic_on_a_pool_worker_spares_every_other_block_and_the_pool() {
        // Its own pool: a concurrent test keeping the pool busy would
        // run this call inline, and no block would reach a worker.
        static POOL: Pool = Pool::new(three_threads);
        let exec = Exec {
            pool: &POOL,
            workers: 4,
        };
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let killed = AtomicUsize::new(usize::MAX);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            exec.for_blocks(64, 64, &|b, range| {
                if b == 0 {
                    // Share 0 is the caller's: hold it until a worker has
                    // taken a block, so the panic below lands on a worker.
                    let start = std::time::Instant::now();
                    while killed.load(Ordering::SeqCst) == usize::MAX {
                        assert!(start.elapsed().as_secs() < 60, "no worker woke");
                        std::thread::yield_now();
                    }
                }
                if on_pool_worker()
                    && killed
                        .compare_exchange(usize::MAX, b, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                {
                    panic!("block {b} exploded on a pool worker");
                }
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
        }));
        let payload = caught.expect_err("the worker's panic must reach the caller");
        let killed = killed.load(Ordering::SeqCst);
        assert!(killed >= 16, "block {killed} is in the caller's share");
        assert_eq!(
            payload_text(&*payload),
            format!("block {killed} exploded on a pool worker")
        );
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(
                h.load(Ordering::Relaxed),
                usize::from(i != killed),
                "block {i}"
            );
        }
        // The worker survived and the pool takes the next call whole.
        let again: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        exec.for_blocks(1000, 64, &|_, range| {
            for i in range {
                again[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(again.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn nested_calls_on_pool_workers_run_inline() {
        let exec = Exec {
            pool: &TEST_POOL,
            workers: 4,
        };
        let (n_outer, n_inner) = (8, 100);
        let hits: Vec<AtomicUsize> = (0..n_outer * n_inner)
            .map(|_| AtomicUsize::new(0))
            .collect();
        exec.for_blocks(n_outer, n_outer, &|_, outer| {
            for o in outer {
                exec.for_blocks(n_inner, 4, &|_, inner| {
                    for i in inner {
                        hits[o * n_inner + i].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn every_helper_matches_serial_at_one_two_and_four_workers() {
        let data: Vec<f64> = (0..10_007).map(|i| (i as f64 * 0.37).sin()).collect();
        let sums: Vec<u64> = data
            .chunks(96)
            .map(|c| c.iter().sum::<f64>().to_bits())
            .collect();
        let scaled: Vec<u64> = data
            .iter()
            .enumerate()
            .map(|(i, v)| (v * (i / 96) as f64 + i as f64).to_bits())
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for workers in [1, 2, 4] {
            let exec = Exec {
                pool: &TEST_POOL,
                workers,
            };
            let hits: Vec<AtomicUsize> = (0..data.len()).map(|_| AtomicUsize::new(0)).collect();
            exec.for_blocks(data.len(), 37, &|_, range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{workers}"
            );

            let got = exec.map_blocks(&data, 96, |_, c| c.iter().sum::<f64>().to_bits());
            assert_eq!(got, sums, "map_blocks at {workers} workers");

            let mut out = data.clone();
            exec.chunks_mut(&mut out, 96, |b, c| {
                c.iter_mut().for_each(|v| *v *= b as f64)
            });
            exec.fill_blocks(&mut out, 96, |_, range, c| {
                for (i, v) in range.zip(c.iter_mut()) {
                    *v += i as f64;
                }
            });
            assert_eq!(
                bits(&out),
                scaled,
                "chunks_mut + fill_blocks at {workers} workers"
            );

            let mut out = data.clone();
            let got = exec.map_chunks_mut(&mut out, 96, |b, c| {
                c.iter_mut().for_each(|v| *v += b as f64);
                c.iter().map(|v| v - b as f64).sum::<f64>().to_bits()
            });
            let want: Vec<u64> = data
                .chunks(96)
                .enumerate()
                .map(|(b, c)| {
                    c.iter()
                        .map(|v| v + b as f64 - b as f64)
                        .sum::<f64>()
                        .to_bits()
                })
                .collect();
            assert_eq!(got, want, "map_chunks_mut at {workers} workers");

            assert_eq!(exec.join(|| sums.len(), || "plane"), (sums.len(), "plane"));
        }
    }

    #[test]
    fn join_reraises_a_panic_only_after_both_sides_finish() {
        for workers in [1, 2] {
            let exec = Exec {
                pool: &TEST_POOL,
                workers,
            };
            let b_done = AtomicUsize::new(0);
            let done = &b_done;
            // `b` finishes only after `a` has started to panic.
            let (tx, rx) = std::sync::mpsc::channel();
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                exec.join(
                    move || -> u8 {
                        tx.send(()).expect("b is listening");
                        panic!("caller side")
                    },
                    move || {
                        rx.recv().expect("a sends before it panics");
                        done.fetch_add(1, Ordering::SeqCst);
                    },
                )
            }));
            assert_eq!(payload_text(&*caught.unwrap_err()), "caller side");
            assert_eq!(b_done.load(Ordering::SeqCst), 1, "b finished first");
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                exec.join(|| 7, || -> u8 { panic!("plane b exploded") })
            }));
            assert_eq!(payload_text(&*caught.unwrap_err()), "plane b exploded");
            assert_eq!(exec.join(|| 1, || 2), (1, 2), "usable after a panic");
        }
    }

    #[test]
    fn deterministic_against_serial_reference() {
        // Same decomposition arithmetic as the executor: results must not
        // depend on how blocks land on workers.
        let data: Vec<f64> = (0..4096).map(|i| (i as f64).sin()).collect();
        let serial: Vec<f64> = data.chunks(128).map(|c| c.iter().sum()).collect();
        let parallel = par_map_blocks(&data, 128, |_, c| c.iter().sum::<f64>());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
