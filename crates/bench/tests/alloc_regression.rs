//! Steady-state allocation regression guard.
//!
//! Installs a counting global allocator and asserts that, once its
//! buffers are warm, `CompressedState::apply` performs ZERO heap
//! allocations per gate under a lossless codec: each one-gate stage
//! decodes every chunk straight into the persistent group buffer through
//! the reused interleaved scratch, encodes and seals it back into the
//! chunk's own byte buffer (capacity reused), gate matrices come from the
//! fixed-size `qubits_array`/`matrix_array` accessors, and stages are cut
//! without allocating.
//!
//! Keep this file to a single `#[test]`: the counter only counts the
//! opted-in test thread, but a sibling test reusing that thread would
//! still show up in the delta.

use compressors::dummy::Memcpy;
use compressors::ErrorBound;
use qcircuit::Gate;
use qtensor::CompressedState;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped with an allocation-event counter. Frees are
/// not counted — the guard is about *new* heap traffic in the hot loop.
///
/// Only allocations made by the test thread itself are counted: the
/// libtest harness's main thread blocks on an mpsc `recv` while the test
/// runs, and its lazily-initialized channel context can allocate at an
/// arbitrary point — a race that lands inside the measured window on some
/// runs. The warm apply loop under test is strictly single-threaded, so
/// thread-filtering loses nothing. The flag is a const-initialized native
/// TLS cell, which is itself allocation-free to access.
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
fn warm_apply_loop_allocates_nothing() {
    COUNT_THIS_THREAD.with(|c| c.set(true));
    let comp = Memcpy;
    // 2^10 amplitudes in 16 chunks of 2^6.
    const CHUNKS: u64 = 16;
    let mut cs = CompressedState::zero(10, 6, &comp, ErrorBound::Abs(1e-6)).unwrap();

    // Mix of low-qubit (per-chunk), one-high and two-high (grouped) gates.
    let gates = [
        Gate::H(0),
        Gate::Rx(3, 0.41),
        Gate::Cnot(0, 5),
        Gate::Cnot(5, 8),    // one high qubit
        Gate::Zz(2, 9, 0.3), // one high qubit
        Gate::Swap(7, 9),    // two high qubits
        Gate::Ry(1, 0.9),
    ];

    // Warm-up: grows the scratch, group and chunk byte buffers to their
    // steady-state capacities.
    for _ in 0..2 {
        for g in &gates {
            cs.apply(g).unwrap();
        }
    }

    let (decodes, encodes) = (cs.stats.decompressions, cs.stats.recompressions);
    let before = ALLOC_EVENTS.load(Ordering::SeqCst);
    const ROUNDS: u64 = 5;
    for _ in 0..ROUNDS {
        for g in &gates {
            cs.apply(g).unwrap();
        }
    }
    let delta = ALLOC_EVENTS.load(Ordering::SeqCst) - before;
    assert_eq!(
        delta,
        0,
        "steady-state apply loop performed {delta} heap allocations over {} gate applications",
        ROUNDS * gates.len() as u64
    );

    // The loop above really ran the codec: every one-gate stage decoded
    // and re-encoded all 16 chunks once.
    let applied = ROUNDS * gates.len() as u64;
    assert_eq!(cs.stats.decompressions - decodes, CHUNKS * applied);
    assert_eq!(cs.stats.recompressions - encodes, CHUNKS * applied);
}
