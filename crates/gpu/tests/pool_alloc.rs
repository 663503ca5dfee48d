//! Handing work to the executor pool allocates nothing once it is warm.
//!
//! A counting global allocator counts every thread's allocation events,
//! so this file runs without the libtest harness (whose own threads would
//! allocate at arbitrary points): `main` is the only caller, and the
//! pool's workers are the only other threads. With more than one worker
//! configured, each call below splits its blocks over the pool; after a
//! warm-up that starts the pool, a thousand more calls must allocate
//! nothing. With one worker the same loop runs inline and must not
//! allocate either.

use gpu_model::exec::{join, par_chunks_mut, par_for_blocks, threads_spawned, worker_count};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

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
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn calls(data: &mut [u64], sum: &AtomicUsize) {
    par_for_blocks(4096, 64, |_, range| {
        sum.fetch_add(range.len(), Ordering::Relaxed);
    });
    par_chunks_mut(data, 256, |b, chunk| {
        chunk.iter_mut().for_each(|v| *v += b as u64)
    });
    let (a, b) = join(|| 1usize, || 2usize);
    sum.fetch_add(a + b, Ordering::Relaxed);
}

fn main() {
    let mut data = vec![0u64; 4096];
    let sum = AtomicUsize::new(0);
    const WARMUP: usize = 1;
    for _ in 0..WARMUP {
        calls(&mut data, &sum); // starts the pool
    }
    let spawned = threads_spawned();
    let before = ALLOC_EVENTS.load(Ordering::SeqCst);
    const ROUNDS: usize = 1000;
    for _ in 0..ROUNDS {
        calls(&mut data, &sum);
    }
    let delta = ALLOC_EVENTS.load(Ordering::SeqCst) - before;
    assert_eq!(
        delta, 0,
        "{ROUNDS} warm rounds of pool calls made {delta} allocations"
    );
    assert_eq!(threads_spawned(), spawned, "a warm call started a thread");
    let calls_made = ROUNDS + WARMUP;
    assert_eq!(sum.load(Ordering::Relaxed), calls_made * (4096 + 3));
    assert!(data
        .iter()
        .enumerate()
        .all(|(i, &v)| v == (calls_made * (i / 256)) as u64));
    println!(
        "pool_alloc: {ROUNDS} warm rounds at {} workers ({spawned} pool threads): 0 allocations",
        worker_count()
    );
}
