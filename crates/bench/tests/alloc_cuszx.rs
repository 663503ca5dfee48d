//! Pool-backed warm-path allocation guard for cuSZx.
//!
//! Installs a counting global allocator and asserts that, once the
//! scratch pools and the stream's event log are warm, a full cuSZx
//! `compress_raw_into`/`decompress_raw_into` round trip performs ZERO heap
//! allocations: block-code scratch comes from the `u64` scratch pool, the
//! payload writer from the `u8` pool, the output buffers are the caller's,
//! and the serial single-worker fast path never spawns.
//!
//! (cuSZ's warm path takes its symbol plane from the `u32` pool; its
//! chunked-Huffman table construction is pooled in the codec's
//! thread-local encode pool and gated separately in
//! `alloc_cusz_table.rs`.)
//!
//! Keep this file to a single `#[test]`: the counter only counts the
//! opted-in test thread, but a sibling test reusing that thread would
//! still show up in the delta.

use compressors::cuszx::CuSzx;
use compressors::{scratch, Compressor, ErrorBound};
use gpu_model::exec::with_serial_workers;
use gpu_model::{DeviceSpec, Stream};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped with an allocation-event counter. Frees are
/// not counted — the guard is about *new* heap traffic in the hot loop.
///
/// Only allocations made by the test thread itself are counted: the
/// libtest harness's main thread blocks on an mpsc `recv` while the test
/// runs, and its lazily-initialized channel context can allocate at an
/// arbitrary point — a race that lands inside the measured window on some
/// runs. The round trip under test is strictly single-threaded (the test
/// pins the executor to one worker), so thread-filtering loses nothing.
/// The flag is a const-initialized native TLS cell, which is itself
/// allocation-free to access.
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
fn warm_cuszx_round_trip_allocates_nothing() {
    COUNT_THIS_THREAD.with(|c| c.set(true));
    // The zero-allocation contract is the single-worker fast path; scoped
    // worker threads allocate stacks by construction, so pin it.
    with_serial_workers(warm_round_trips);
}

fn warm_round_trips() {
    let comp = CuSzx::default();
    let stream = Stream::new(DeviceSpec::a100());
    let n = 1usize << 14;
    let data: Vec<f64> = (0..n)
        .map(|i| {
            if i % 5 == 0 {
                (i as f64 * 0.3).sin() * 0.5
            } else {
                1e-8 * (i as f64)
            }
        })
        .collect();
    let bound = ErrorBound::Abs(1e-6);
    let mut bytes = Vec::new();
    let mut out = Vec::new();

    // Warm-up: grow the scratch pools, the output buffers, and the
    // stream's kernel-event log (a Vec that doubles; 24 rounds of 2
    // launches land its capacity well past the measured window below).
    for _ in 0..24 {
        bytes.clear();
        comp.compress_raw_into(&data, bound, &stream, &mut bytes)
            .unwrap();
        comp.decompress_raw_into(&bytes, &stream, &mut out).unwrap();
    }

    let (hits_before, misses_before) = scratch::u64s().stats();
    let before = ALLOC_EVENTS.load(Ordering::SeqCst);
    const ROUNDS: u64 = 5;
    for _ in 0..ROUNDS {
        bytes.clear();
        comp.compress_raw_into(&data, bound, &stream, &mut bytes)
            .unwrap();
        comp.decompress_raw_into(&bytes, &stream, &mut out).unwrap();
    }
    let delta = ALLOC_EVENTS.load(Ordering::SeqCst) - before;
    assert_eq!(
        delta, 0,
        "warm cuSZx round trips performed {delta} heap allocations over {ROUNDS} rounds"
    );
    assert_eq!(out.len(), n);

    // The `u64` pool actually carried the block scratch: one reuse per
    // compress, and no fresh buffer once warm.
    let (hits, misses) = scratch::u64s().stats();
    assert_eq!(
        hits - hits_before,
        ROUNDS,
        "block scratch must come from the u64 pool once per compress"
    );
    assert_eq!(misses, misses_before, "warm u64 pool must not miss");
}
