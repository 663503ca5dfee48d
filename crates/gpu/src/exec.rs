//! Data-parallel kernel-body execution on the host.
//!
//! Kernel bodies are real Rust code. This module runs them over index
//! ranges with std scoped threads — the same chunked grid/block shape a
//! CUDA kernel would use — so the implementations stay faithful to their
//! GPU formulation (independent blocks, no cross-block mutation) while the
//! simulated cost comes from the `device` module, not from wall time.
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

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// When set, `worker_count()` reports 1 regardless of the host — see
/// [`with_serial_workers`].
static FORCE_SERIAL: AtomicBool = AtomicBool::new(false);

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
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        qcf_telemetry::config::config().workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    })
}

/// Runs `f` with `worker_count()` pinned to 1 — the serial baseline for
/// speedup measurements.
///
/// The executor's block decomposition is worker-count independent, so the
/// serial run computes bit-identical output; only the scheduling changes.
/// The pin is **process-global** (benches and the report's speedup probe
/// are single-threaded at the top level, which is the intended use); the
/// previous state is restored even if `f` panics.
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

/// First panic payload captured across worker blocks.
///
/// Every block body runs under [`catch_unwind`](panic::catch_unwind), so a
/// poisoned block takes down neither its worker thread nor the blocks
/// queued behind it: the remaining blocks all execute, each panic bumps
/// the `exec.worker.panics` counter, and the caller re-raises the *first*
/// payload once after the join. Callers that can degrade gracefully (the
/// compressed-state chunk loop) catch that single panic and fail only the
/// affected chunk; everyone else keeps the old fail-fast behaviour.
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
            let mut slot = qcf_telemetry::lock_unpoisoned(&self.0);
            slot.get_or_insert(payload);
        }
    }

    /// Re-raises the first captured panic, if any.
    fn resume(self) {
        if let Some(payload) = self.0.into_inner().unwrap_or_else(|e| e.into_inner()) {
            panic::resume_unwind(payload);
        }
    }
}

/// Block index range decomposition shared by all the helpers: `n_items`
/// split into `n_blocks` contiguous, disjoint, order-preserving ranges
/// (empty trailing ranges dropped).
fn block_ranges(n_items: usize, n_blocks: usize) -> Vec<(usize, std::ops::Range<usize>)> {
    assert!(n_blocks > 0, "need at least one block");
    let per = n_items.div_ceil(n_blocks);
    (0..n_blocks)
        .map(|b| (b, (b * per).min(n_items)..((b + 1) * per).min(n_items)))
        .filter(|(_, r)| !r.is_empty())
        .collect()
}

/// Runs `body(block_index, start..end)` over `n_items` split into
/// `n_blocks` contiguous blocks, in parallel when workers are available.
///
/// The body must be pure per block (no shared mutation) — identical to the
/// constraint CUDA thread blocks live under. Nested invocation is allowed
/// (scoped threads spawn freely; there is no fixed pool to deadlock). A
/// panic in any block is caught per block: every other block still runs,
/// and the first panic payload is re-raised to the caller after all
/// workers join (see [`PanicSlot`]).
pub fn par_for_blocks<F>(n_items: usize, n_blocks: usize, body: F)
where
    F: Fn(usize, std::ops::Range<usize>) + Sync,
{
    let blocks = block_ranges(n_items, n_blocks);
    let workers = worker_count().min(blocks.len()).max(1);
    let slot = PanicSlot::new();
    if workers == 1 {
        for (b, r) in blocks {
            slot.run(b, || body(b, r));
        }
        slot.resume();
        return;
    }
    // Split the block list over workers; each worker owns a disjoint chunk.
    let chunk = blocks.len().div_ceil(workers);
    let body = &body;
    let slot_ref = &slot;
    std::thread::scope(|s| {
        for w in blocks.chunks(chunk) {
            s.spawn(move || {
                for (b, r) in w {
                    slot_ref.run(*b, || body(*b, r.clone()));
                }
            });
        }
    });
    slot.resume();
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
    assert!(block_len > 0, "block length must be positive");
    if input.is_empty() {
        return Vec::new();
    }
    let n_blocks = input.len().div_ceil(block_len);
    let mut out = vec![R::default(); n_blocks];
    let out_ptr = SyncSlice(out.as_mut_ptr());
    par_for_blocks(n_blocks, n_blocks, |_, range| {
        for b in range {
            let lo = b * block_len;
            let hi = (lo + block_len).min(input.len());
            let val = f(b, &input[lo..hi]);
            // SAFETY: each block index b is visited exactly once across all
            // workers (par_for_blocks hands out disjoint ranges), so each
            // out[b] slot is written by exactly one thread.
            unsafe { *out_ptr.get().add(b) = val };
        }
    });
    out
}

/// Runs `f(block_index, chunk)` over disjoint mutable chunks of `data`
/// (`block_len` elements each, last one possibly shorter), in parallel.
///
/// This is the in-place mutation analogue of [`par_map_blocks`]: each
/// chunk is owned by exactly one worker, so kernels like zero-collapse or
/// a GEMM row loop can write their slice without synchronization.
pub fn par_chunks_mut<T: Send, F>(data: &mut [T], block_len: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(block_len > 0, "block length must be positive");
    let n_blocks = data.len().div_ceil(block_len.max(1)).max(1);
    let workers = worker_count().min(n_blocks);
    let slot = PanicSlot::new();
    if workers <= 1 {
        for (b, chunk) in data.chunks_mut(block_len).enumerate() {
            slot.run(b, || f(b, chunk));
        }
        slot.resume();
        return;
    }
    // Hand each worker a contiguous run of chunks, fully safely: the
    // borrow splitter peels per-worker sub-slices off the front.
    let chunks_per_worker = n_blocks.div_ceil(workers);
    let f = &f;
    let slot_ref = &slot;
    std::thread::scope(|s| {
        let mut rest = data;
        let mut next_block = 0usize;
        while !rest.is_empty() {
            let take = (chunks_per_worker * block_len).min(rest.len());
            let (mine, tail) = std::mem::take(&mut rest).split_at_mut(take);
            rest = tail;
            let first_block = next_block;
            next_block += mine.len().div_ceil(block_len);
            s.spawn(move || {
                for (i, chunk) in mine.chunks_mut(block_len).enumerate() {
                    slot_ref.run(first_block + i, || f(first_block + i, chunk));
                }
            });
        }
    });
    slot.resume();
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
    assert!(block_len > 0, "block length must be positive");
    if data.is_empty() {
        return Vec::new();
    }
    let n_blocks = data.len().div_ceil(block_len);
    let mut out = vec![R::default(); n_blocks];
    let out_ptr = SyncSlice(out.as_mut_ptr());
    par_chunks_mut(data, block_len, |b, chunk| {
        let val = f(b, chunk);
        // SAFETY: par_chunks_mut hands each block index b to exactly one
        // worker, so each out[b] slot is written by exactly one thread.
        unsafe { *out_ptr.get().add(b) = val };
    });
    out
}

/// Fills `out` block-by-block: `f(block_index, range, chunk)` writes each
/// `block_len`-sized chunk of `out`, where `range` is the index span of
/// the chunk in the full slice. Parallel over blocks.
///
/// A convenience over [`par_chunks_mut`] for gather-style kernels
/// (de-interleave, permutation) that need the absolute offset.
pub fn par_fill_blocks<T: Send, F>(out: &mut [T], block_len: usize, f: F)
where
    F: Fn(usize, std::ops::Range<usize>, &mut [T]) + Sync,
{
    par_chunks_mut(out, block_len, |b, chunk| {
        let lo = b * block_len;
        f(b, lo..lo + chunk.len(), chunk);
    });
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
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        // A fixed pool would deadlock here (outer blocks hold workers while
        // inner calls wait for them); scoped threads must not.
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
