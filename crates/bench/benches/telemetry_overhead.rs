//! Telemetry overhead: the same contraction + compression hot path with
//! `QCF_TELEMETRY` disabled vs enabled.
//!
//! The disabled path must stay under 5% overhead — every span and metric
//! mutation is gated on a single relaxed atomic load, so "off" should be
//! indistinguishable from never instrumenting at all. The enabled cost is
//! recorded for honesty but is not bounded: it buys the trace. Results
//! feed `BENCH_telemetry.json` at the repo root.

use compressors::{Compressor, ErrorBound};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use qcf_core::QcfCompressor;
use qcircuit::{Graph, QaoaParams};
use qtensor::Simulator;

/// Drains the bounded span buffer so the enabled side never measures the
/// buffer-full early-out instead of the real recording cost.
fn drain_spans() {
    qcf_telemetry::span::reset();
}

fn bench_contraction(c: &mut Criterion) {
    let g = Graph::random_regular(12, 3, 7);
    let params = QaoaParams::fixed_angles_3reg_p1();
    let sim = Simulator::default();
    let mut group = c.benchmark_group("telemetry/contraction");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(3));
    for (label, on) in [("disabled", false), ("enabled", true)] {
        group.bench_function(label, |bch| {
            qcf_telemetry::set_enabled(on);
            bch.iter(|| {
                drain_spans();
                sim.energy(black_box(&g), black_box(&params))
                    .unwrap()
                    .energy
            })
        });
    }
    group.finish();
    qcf_telemetry::set_enabled(false);
}

fn bench_compress(c: &mut Criterion) {
    // Same workload as parallel.rs's qcf_compress/ratio so the disabled
    // side is directly comparable to the pre-telemetry BENCH_parallel.json.
    let n = 1usize << 18;
    let data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.013).sin() * 0.4).collect();
    let comp = QcfCompressor::ratio();
    let mut group = c.benchmark_group("telemetry/qcf_compress");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.throughput(Throughput::Bytes((n * 8) as u64));
    for (label, on) in [("disabled", false), ("enabled", true)] {
        group.bench_function(label, |bch| {
            qcf_telemetry::set_enabled(on);
            let stream = gpu_model::Stream::new(gpu_model::DeviceSpec::a100());
            bch.iter(|| {
                drain_spans();
                comp.compress(black_box(&data), ErrorBound::Abs(1e-4), &stream)
                    .unwrap()
            })
        });
    }
    group.finish();
    qcf_telemetry::set_enabled(false);
}

fn bench_state_apply(c: &mut Criterion) {
    // The compressed-state apply path (each one-gate stage decodes and
    // re-encodes all 16 chunks) carries the error-budget ledger, the
    // latency histograms and the state counters. With telemetry disabled
    // they must stay local bookkeeping only — this group pins that:
    // disabled vs enabled apply the same gates, and any ledger/registry
    // cost is the difference.
    use compressors::cuszx::CuSzx;
    use qcircuit::Gate;
    use qtensor::CompressedState;

    let comp = CuSzx::default();
    let gates: Vec<Gate> = (0..6)
        .flat_map(|q| [Gate::H(q), Gate::Rx(q, 0.31), Gate::T(q)])
        .collect();
    let mut group = c.benchmark_group("telemetry/state_apply");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(3));
    for (label, on) in [("disabled", false), ("enabled", true)] {
        group.bench_function(label, |bch| {
            qcf_telemetry::set_enabled(on);
            let mut cs = CompressedState::zero(10, 6, &comp, ErrorBound::Abs(1e-7)).unwrap();
            bch.iter(|| {
                drain_spans();
                for g in &gates {
                    cs.apply(black_box(g)).unwrap();
                }
                cs.stats.recompressions
            })
        });
    }
    group.finish();
    qcf_telemetry::set_enabled(false);
}

fn bench_state_apply_armed(c: &mut Criterion) {
    // The continuous-telemetry extras on top of "enabled": the per-chunk
    // causal journal (one bounded ring push per lifecycle event: a decode,
    // an encode and a requant per chunk per stage) and the time-series
    // sampler (its own thread snapshots
    // the registry; the workload thread pays nothing beyond registry
    // contention). Same workload as telemetry/state_apply so the three
    // figures are directly comparable to its "enabled" side.
    use compressors::cuszx::CuSzx;
    use qcircuit::Gate;
    use qtensor::CompressedState;

    let comp = CuSzx::default();
    let gates: Vec<Gate> = (0..6)
        .flat_map(|q| [Gate::H(q), Gate::Rx(q, 0.31), Gate::T(q)])
        .collect();
    let mut group = c.benchmark_group("telemetry/state_apply_armed");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(3));
    for (label, journal_on, sample_ms) in [
        ("journal", true, None),
        ("sampler", false, Some(5u64)),
        ("journal+sampler", true, Some(5)),
    ] {
        group.bench_function(label, |bch| {
            qcf_telemetry::set_enabled(true);
            qcf_telemetry::journal::reset();
            qcf_telemetry::journal::set_enabled(journal_on);
            qcf_telemetry::timeseries::stop();
            qcf_telemetry::timeseries::reset();
            if let Some(ms) = sample_ms {
                qcf_telemetry::timeseries::start(ms);
            }
            let mut cs = CompressedState::zero(10, 6, &comp, ErrorBound::Abs(1e-7)).unwrap();
            bch.iter(|| {
                drain_spans();
                for g in &gates {
                    cs.apply(black_box(g)).unwrap();
                }
                cs.stats.recompressions
            });
            qcf_telemetry::timeseries::stop();
            qcf_telemetry::journal::set_enabled(false);
        });
    }
    group.finish();
    qcf_telemetry::set_enabled(false);
}

fn bench_slo_replay(c: &mut Criterion) {
    // What one `qcfz top` frame pays for its alerts pane: the default spec
    // replayed over a full sampler ring (`timeseries::CAPACITY` samples),
    // each a registry snapshot taken after one more gate of a 10-qubit
    // compressed-state run, so window evaluation walks real key sets.
    use compressors::cuszx::CuSzx;
    use qcf_telemetry::slo::{evaluate_ring, SloSpec};
    use qcf_telemetry::timeseries::{Sample, CAPACITY};
    use qcircuit::Gate;
    use qtensor::CompressedState;

    qcf_telemetry::set_enabled(true);
    qcf_telemetry::metrics::registry().reset_values();
    let comp = CuSzx::default();
    let mut cs = CompressedState::zero(10, 6, &comp, ErrorBound::Abs(1e-7)).unwrap();
    let gates = [Gate::H(0), Gate::Rx(1, 0.31), Gate::T(2)];
    let ring: Vec<Sample> = (0..CAPACITY)
        .map(|i| {
            cs.apply(&gates[i % gates.len()]).unwrap();
            Sample {
                t_us: (i as u64 + 1) * 1000,
                metrics: qcf_telemetry::metrics::registry().snapshot(),
            }
        })
        .collect();
    qcf_telemetry::set_enabled(false);
    let spec = SloSpec::defaults();

    let mut group = c.benchmark_group("telemetry/slo");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("replay", |bch| {
        bch.iter(|| evaluate_ring(black_box(&spec), black_box(&ring)).ticks)
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_contraction,
    bench_compress,
    bench_state_apply,
    bench_state_apply_armed,
    bench_slo_replay
);
criterion_main!(benches);
