//! Allocation-free pipeline benches: the write-through compressed-state
//! apply loop (decompress/apply/recompress per chunk per stage), and
//! `*_into` buffer-reusing round trips vs the allocating
//! `compress`/`decompress` entry points.
//!
//! A counting global allocator reports allocation *events* (alloc /
//! alloc_zeroed / realloc; frees excluded) per measured configuration, so
//! the numbers recorded in `BENCH_alloc.json` carry both wall time and
//! heap traffic.

use compressors::{Compressor, ErrorBound};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use gpu_model::{DeviceSpec, Stream};
use qcf_core::QcfCompressor;
use qcircuit::{qaoa_circuit, Graph, QaoaParams};
use qtensor::CompressedState;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Runs `f` once and reports its allocation-event count under `label`.
fn count_allocs<R>(label: &str, mut f: impl FnMut() -> R) -> R {
    let before = ALLOC_EVENTS.load(Ordering::SeqCst);
    let r = f();
    let delta = ALLOC_EVENTS.load(Ordering::SeqCst) - before;
    eprintln!("alloc-count {label}: {delta} allocation events");
    r
}

fn qaoa_gates(nodes: usize, seed: u64) -> (Graph, Vec<qcircuit::Gate>) {
    let g = Graph::random_regular(nodes, 3, seed);
    let c = qaoa_circuit(&g, &QaoaParams::fixed_angles_3reg_p1());
    let gates = c.gates().to_vec();
    (g, gates)
}

/// Full QAOA sweep over a compressed state, one gate at a time.
fn apply_sweep(cs: &mut CompressedState, gates: &[qcircuit::Gate]) {
    for g in gates {
        cs.apply(g).unwrap();
    }
}

fn bench_apply_loop(c: &mut Criterion) {
    let nodes = 12;
    let (_g, gates) = qaoa_gates(nodes, 7);
    let comp = QcfCompressor::speed();
    let bound = ErrorBound::Abs(1e-8);
    // 2^9-amplitude chunks -> 8 chunks.
    let chunk = nodes - 3;

    let mut group = c.benchmark_group("alloc/apply_loop");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(gates.len() as u64));

    group.bench_function("write_through", |bch| {
        let mut cs = CompressedState::zero(nodes, chunk, &comp, bound).unwrap();
        apply_sweep(&mut cs, &gates); // warm scratch buffers
        bch.iter(|| apply_sweep(black_box(&mut cs), &gates));
    });
    group.finish();

    // One instrumented sweep for the recorded count.
    let mut cs = CompressedState::zero(nodes, chunk, &comp, bound).unwrap();
    apply_sweep(&mut cs, &gates);
    count_allocs("apply_loop/write_through (1 sweep)", || {
        apply_sweep(&mut cs, &gates)
    });
}

fn bench_round_trip(c: &mut Criterion) {
    let n = 1usize << 16;
    let data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.013).sin() * 0.4).collect();
    let bound = ErrorBound::Abs(1e-4);
    let comp = QcfCompressor::speed();
    let stream = Stream::new(DeviceSpec::a100());

    let mut group = c.benchmark_group("alloc/round_trip");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Bytes((n * 8) as u64));

    group.bench_function("allocating", |bch| {
        bch.iter(|| {
            let bytes = comp.compress(black_box(&data), bound, &stream).unwrap();
            comp.decompress(&bytes, &stream).unwrap()
        })
    });
    group.bench_function("into_reused", |bch| {
        let mut bytes = Vec::new();
        let mut out = Vec::new();
        // Grow both buffers to steady-state capacity before measuring.
        comp.compress_into(&data, bound, &stream, &mut bytes)
            .unwrap();
        comp.decompress_into(&bytes, &stream, &mut out).unwrap();
        bch.iter(|| {
            comp.compress_into(black_box(&data), bound, &stream, &mut bytes)
                .unwrap();
            comp.decompress_into(&bytes, &stream, &mut out).unwrap();
            out.len()
        })
    });
    group.finish();

    count_allocs("round_trip/allocating (1 trip)", || {
        let bytes = comp.compress(&data, bound, &stream).unwrap();
        comp.decompress(&bytes, &stream).unwrap()
    });
    let mut bytes = Vec::new();
    let mut out = Vec::new();
    comp.compress_into(&data, bound, &stream, &mut bytes)
        .unwrap();
    comp.decompress_into(&bytes, &stream, &mut out).unwrap();
    count_allocs("round_trip/into_reused (1 trip)", || {
        comp.compress_into(&data, bound, &stream, &mut bytes)
            .unwrap();
        comp.decompress_into(&bytes, &stream, &mut out).unwrap();
    });
}

fn report_context(c: &mut Criterion) {
    eprintln!(
        "alloc bench context: worker_count={}",
        gpu_model::exec::worker_count()
    );
    let _ = c;
}

criterion_group!(benches, report_context, bench_apply_loop, bench_round_trip);
criterion_main!(benches);
