//! Chunked-Huffman table pooling guard (cuSZ's warm compress path).
//!
//! Installs a counting global allocator and asserts that, once the
//! scratch pools and the codec's encode pool are warm, a cuSZ
//! `compress_raw_into` allocates at most once per call: the dual-quant
//! kernel's per-block outlier table, which is the only remaining cold
//! structure. Everything the chunked-Huffman stage
//! used to allocate per call — partial histograms, the merged frequency
//! table, the code-length/code tables (heap, parent links, counting
//! arrays) and the per-chunk payload writers — now lives in the codec's
//! thread-local `EncodePool` and must stay out of the warm loop. A
//! regression there adds ~15 allocations per round and fails loudly.
//!
//! Keep this file to a single `#[test]`: the counter only counts the
//! opted-in test thread, but a sibling test reusing that thread would
//! still show up in the delta.

use compressors::cusz::CuSz;
use compressors::{Compressor, ErrorBound};
use gpu_model::exec::with_serial_workers;
use gpu_model::{DeviceSpec, Stream};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped with an allocation-event counter; only the
/// opted-in test thread is counted (see `alloc_cuszx.rs` for why).
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNT_THIS_THREAD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn count() {
    if COUNT_THIS_THREAD.with(|c| c.get()) {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn warm_cusz_compress_tables_come_from_the_pool() {
    COUNT_THIS_THREAD.with(|c| c.set(true));
    // The pooled contract is the single-worker fast path; scoped worker
    // threads allocate stacks by construction, so pin it.
    with_serial_workers(warm_compress_rounds);
}

fn warm_compress_rounds() {
    let comp = CuSz::default();
    let stream = Stream::new(DeviceSpec::a100());
    // Smooth signal: small Lorenzo deltas, zero outliers — the outlier
    // list itself stays empty and unallocated, isolating the one counted
    // allocation below to the per-block outlier result table.
    let n = 1usize << 16;
    let data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin() * 0.8).collect();
    let bound = ErrorBound::Abs(1e-3);
    let mut bytes = Vec::new();

    // Warm-up: grow the pooled symbol plane and payload buffer, the
    // codec's thread-local encode pool and the stream's event log. 40
    // rounds of 5 launches put the event log's doubling capacity (256)
    // well past the measured window below.
    for _ in 0..40 {
        bytes.clear();
        comp.compress_raw_into(&data, bound, &stream, &mut bytes)
            .unwrap();
    }

    let before = ALLOC_EVENTS.load(Ordering::SeqCst);
    const ROUNDS: u64 = 5;
    for _ in 0..ROUNDS {
        bytes.clear();
        comp.compress_raw_into(&data, bound, &stream, &mut bytes)
            .unwrap();
    }
    let delta = ALLOC_EVENTS.load(Ordering::SeqCst) - before;
    // One allocation per round is tolerated: `par_map_chunks_mut` collects
    // the dual-quant blocks' (empty) outlier lists into a fresh result
    // vector. The Huffman code tables must contribute zero.
    assert!(
        delta <= ROUNDS,
        "warm cuSZ compress performed {delta} heap allocations over {ROUNDS} rounds \
         (expected ≤ {ROUNDS}: the chunked-Huffman tables must come from the pool)"
    );

    // The stream actually exercised the chunked-Huffman stage.
    assert!(stream.time_in("huffman_encode") > 0.0);
}
