//! Thread-spawn regression guard.
//!
//! Kernel bodies run on the executor's persistent pool, which starts its
//! threads once, on first parallel use. After one warm-up of each
//! operation below, repeating it must start no thread at all:
//! `gpu_model::exec::threads_spawned` stays where the warm-up left it,
//! which is exactly the pool's size. The operations are the benchmark
//! workloads' hot paths: QCF-ratio and QCF-speed round trips, a p=2
//! tensor-network energy with every intermediate compressed, and a
//! compressed-state stage run without prefetch. A budgeted, prefetched
//! stage run starts its two dedicated spill readers and nothing else,
//! every time. Run it in release with `QCF_WORKERS=4` so the pool really
//! has workers; at one worker it still checks that nothing else spawns.
//!
//! Keep this file to a single `#[test]`: the spawn count is process-wide.

use compressors::{Compressor, ErrorBound};
use gpu_model::exec::{threads_spawned, worker_count};
use gpu_model::{DeviceSpec, Stream};
use qcf_core::QcfCompressor;
use qcircuit::{qaoa_circuit, Graph, QaoaParams};
use qtensor::compressed::CompressingHook;
use qtensor::{CompressedState, Simulator};

fn round_trip(codec: &QcfCompressor) {
    let data: Vec<f64> = (0..1 << 16)
        .map(|i| ((i as f64) * 0.0137).sin() * 0.3 + ((i * 7919 % 1009) as f64) * 1e-6)
        .collect();
    let stream = Stream::new(DeviceSpec::a100());
    let bytes = codec
        .compress(&data, ErrorBound::Abs(1e-6), &stream)
        .unwrap();
    let back = codec.decompress(&bytes, &stream).unwrap();
    assert_eq!(back.len(), data.len());
}

fn tn_energy() {
    let graph = Graph::random_regular(12, 3, 5);
    let codec = QcfCompressor::ratio();
    let mut hook = CompressingHook::new(&codec, ErrorBound::Rel(1e-3), 16);
    let report = Simulator::default()
        .energy_with_hook(&graph, &QaoaParams::fixed_angles_3reg_p2(), &mut hook)
        .unwrap();
    assert!(report.energy.is_finite());
    assert!(hook.stats.tensors_compressed > 0);
}

/// A stage run; `prefetch` also sets an all-spill budget, so the run
/// reads every chunk back through the spill readers.
fn state_stages(prefetch: bool) {
    let graph = Graph::random_regular(12, 3, 7);
    let circuit = qaoa_circuit(&graph, &QaoaParams::fixed_angles_3reg_p1());
    let codec = QcfCompressor::speed();
    let mut cs = CompressedState::zero(12, 9, &codec, ErrorBound::Rel(1e-3)).unwrap();
    if prefetch {
        cs.set_mem_budget(Some(0));
    }
    cs.run_scheduled(circuit.gates(), prefetch).unwrap();
    assert_eq!(cs.stats.prefetch_hits > 0, prefetch);
    assert!(cs.maxcut_energy(&graph).unwrap().is_finite());
}

#[test]
fn warm_operations_spawn_no_threads() {
    let ratio = QcfCompressor::ratio();
    let speed = QcfCompressor::speed();
    let ops: [(&str, &dyn Fn()); 4] = [
        ("QCF-ratio round trip of 2^16 values", &|| {
            round_trip(&ratio)
        }),
        ("QCF-speed round trip of 2^16 values", &|| {
            round_trip(&speed)
        }),
        ("p=2 CompressingHook energy", &tn_energy),
        ("CompressedState stage run without prefetch", &|| {
            state_stages(false)
        }),
    ];
    for (_, op) in &ops {
        op();
    }
    assert_eq!(
        threads_spawned(),
        worker_count() as u64 - 1,
        "the warm-up starts the pool and nothing else"
    );
    for (name, op) in &ops {
        let before = threads_spawned();
        op();
        let spawned = threads_spawned() - before;
        assert_eq!(spawned, 0, "warm {name} started {spawned} threads");
    }
    state_stages(true);
    let before = threads_spawned();
    state_stages(true);
    let spawned = threads_spawned() - before;
    assert_eq!(
        spawned, 2,
        "warm prefetched stage run started {spawned} threads"
    );
    if qcf_telemetry::enabled() {
        let mirrored = qcf_telemetry::registry()
            .counter("exec.threads_spawned")
            .get();
        assert_eq!(mirrored, threads_spawned(), "registry mirror");
    }
}
