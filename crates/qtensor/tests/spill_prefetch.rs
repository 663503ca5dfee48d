//! The point of the spill readahead: disk latency overlaps gate
//! compute instead of serializing with it. With a simulated per-read
//! device latency (the `QCF_SPILL_LATENCY_US` knob, set here
//! programmatically so the test is filesystem-independent), the
//! scheduled async run must be measurably faster than the
//! synchronous-fetch-on-miss run at the same budget — and, of course,
//! bit-identical to it.

use compressors::dummy::Memcpy;
use compressors::lz4::Lz4;
use compressors::ErrorBound;
use qcircuit::{qaoa_circuit, Graph, QaoaParams};
use qtensor::{CompressedState, StateVector};
use std::sync::Mutex;
use std::time::Instant;

const LATENCY_US: u64 = 250;

/// The tests of this binary never overlap: the timing test compares two
/// wall-clock runs, and the other test's all-spill run on a small host
/// would slow whichever of them it overlapped.
static SERIAL: Mutex<()> = Mutex::new(());

fn timed_run(prefetch: bool) -> (std::time::Duration, CompressedState<'static>) {
    static MEMCPY: Memcpy = Memcpy;
    let graph = Graph::random_regular(8, 3, 33);
    let circuit = qaoa_circuit(&graph, &QaoaParams::fixed_angles_3reg_p1());
    let mut cs = CompressedState::zero(8, 3, &MEMCPY, ErrorBound::Abs(0.0)).unwrap();
    cs.set_mem_budget(Some(0)); // all-spill: every miss pays the device
    cs.set_spill_latency_us(LATENCY_US);
    let t0 = Instant::now();
    cs.run_scheduled(circuit.gates(), prefetch).unwrap();
    (t0.elapsed(), cs)
}

/// Timed runs of each side; their medians are compared.
const RUNS: usize = 5;

/// Everything a pair of runs must show apart from its clocks: the same
/// disk-tier work, a prefetch that mostly hits, less stall, and identical
/// physics.
fn check_pair(sync_cs: &CompressedState, async_cs: &CompressedState) {
    // Both runs did real disk-tier work at the same budget.
    assert!(sync_cs.stats.fetches > 50, "workload too small to time");
    assert_eq!(
        sync_cs.stats.fetches, async_cs.stats.fetches,
        "same schedule, same fetch count"
    );
    assert_eq!(sync_cs.stats.prefetch_hits, 0, "sync path never prefetches");
    let hits = async_cs.stats.prefetch_hits;
    let misses = async_cs.stats.prefetch_misses;
    assert!(
        hits * 10 >= (hits + misses) * 8,
        "prefetch hit rate below 80%: {hits} hits / {misses} misses"
    );
    // Stall accounting agrees: the async run blocked for less total time.
    assert!(
        async_cs.stats.prefetch_stall_us < sync_cs.stats.prefetch_stall_us,
        "async stalled {} µs vs sync {} µs",
        async_cs.stats.prefetch_stall_us,
        sync_cs.stats.prefetch_stall_us
    );

    // And identical physics, bit for bit.
    let a = async_cs.to_statevector().unwrap();
    let s = sync_cs.to_statevector().unwrap();
    for (x, y) in a.amplitudes().iter().zip(s.amplitudes()) {
        assert_eq!(x.re.to_bits(), y.re.to_bits());
        assert_eq!(x.im.to_bits(), y.im.to_bits());
    }
}

fn median(mut walls: Vec<f64>) -> f64 {
    walls.sort_by(f64::total_cmp);
    walls[walls.len() / 2]
}

#[test]
fn async_prefetch_beats_synchronous_fetch_on_miss() {
    let _serial = qcf_telemetry::lock_unpoisoned(&SERIAL);
    // Warm-up pass absorbs one-time costs (file creation, allocator).
    let _ = timed_run(false);
    let (mut sync_walls, mut async_walls) = (Vec::new(), Vec::new());
    for run in 0..RUNS {
        // Alternate which side goes first, so load that comes and goes on
        // the host falls on both sides alike.
        let ((sync_wall, sync_cs), (async_wall, async_cs)) = if run % 2 == 0 {
            let sync = timed_run(false);
            (sync, timed_run(true))
        } else {
            let prefetched = timed_run(true);
            (timed_run(false), prefetched)
        };
        check_pair(&sync_cs, &async_cs);
        sync_walls.push(sync_wall.as_secs_f64());
        async_walls.push(async_wall.as_secs_f64());
    }

    // Two spill readers overlap reads with compute and with each other:
    // ideal async wall ≈ sync/2. Assert a conservative 0.85 on the
    // medians of the runs, which one slow run cannot move.
    let (sync_s, async_s) = (median(sync_walls), median(async_walls));
    assert!(
        async_s < sync_s * 0.85,
        "async median {async_s:.4} s not faster than sync median {sync_s:.4} s"
    );
}

#[test]
fn prefetched_run_compacts_its_spill_log_mid_run() {
    let _serial = qcf_telemetry::lock_unpoisoned(&SERIAL);
    let graph = Graph::random_regular(10, 3, 21);
    let circuit = qaoa_circuit(&graph, &QaoaParams::fixed_angles_3reg_p1());
    let comp = Lz4;
    let mut cs = CompressedState::zero(10, 3, &comp, ErrorBound::Abs(0.0)).unwrap();
    cs.set_mem_budget(Some(0)); // all-spill: every stage churns the log
    cs.run_scheduled(circuit.gates(), true).unwrap();
    // Reads in flight keep the handle of the log they were requested
    // from, so the log compacts while the run goes on, not once after it.
    assert!(
        cs.stats.compactions >= 2,
        "{} compactions in one prefetched run",
        cs.stats.compactions
    );
    assert_eq!(
        cs.stats.prefetch_misses, 0,
        "a compaction made a read stale"
    );
    let dense = StateVector::run(&circuit);
    for (x, y) in cs
        .to_statevector()
        .unwrap()
        .amplitudes()
        .iter()
        .zip(dense.amplitudes())
    {
        assert_eq!(
            (x.re.to_bits(), x.im.to_bits()),
            (y.re.to_bits(), y.im.to_bits())
        );
    }
}
