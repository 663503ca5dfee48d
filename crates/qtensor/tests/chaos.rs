//! Chaos suite: full QAOA compressed-state runs under deterministic
//! injected faults (`qcf_telemetry::faults`).
//!
//! Every test arms the process-global fault plan, so all of them serialize
//! through `chaos_guard` and disarm before asserting. The dense reference
//! is always computed *before* arming — the oracle must not be chaosed.
//!
//! What the suite pins down, per the fault model:
//!
//! * the run **completes** (degraded, never dead) under every fault kind;
//! * `state.faults.*` accounting is exact against `faults::injected_count`;
//! * `verify()` detects 100% of injected storage corruptions;
//! * energy drift stays within the quarantine-adjusted bound.

use compressors::dummy::Memcpy;
use compressors::{Compressor, ErrorBound};
use qcf_telemetry::faults;
use qcircuit::{qaoa_circuit, Circuit, Graph, QaoaParams};
use qtensor::{CompressedState, StateVector};

fn qaoa(n: usize, seed: u64) -> (Circuit, Graph) {
    let g = Graph::random_regular(n, 3, seed);
    let c = qaoa_circuit(&g, &QaoaParams::fixed_angles_3reg_p1());
    (c, g)
}

/// Runs `circuit` gate by gate on a fresh compressed state; every gate
/// must succeed (degraded is fine, dead is not).
fn run_chaos<'a>(
    circuit: &Circuit,
    comp: &'a dyn Compressor,
    bound: ErrorBound,
) -> CompressedState<'a> {
    let mut cs = CompressedState::zero(circuit.n_qubits(), 3, comp, bound).expect("zero state");
    for g in circuit.gates() {
        cs.apply(g)
            .expect("chaos run must complete degraded, not die");
    }
    cs
}

#[test]
fn injected_decode_error_heals_by_retry() {
    let _g = faults::chaos_guard();
    let (circuit, graph) = qaoa(8, 3);
    let dense = StateVector::run(&circuit);
    let reference = dense.maxcut_energy(&graph);

    faults::arm_from_spec("seed=7,codec.decode@5").unwrap();
    let comp = Memcpy;
    let cs = run_chaos(&circuit, &comp, ErrorBound::Abs(0.0));
    let injected = faults::injected_count("codec.decode");
    faults::disarm();

    assert_eq!(injected, 1, "@5 fires exactly once");
    // A transient decode error heals on the immediate retry: no data was
    // lost, nothing was quarantined, and the state is bit-exact.
    assert_eq!(cs.faults.decode_errors, 1);
    assert_eq!(cs.faults.retries_ok, 1);
    assert_eq!(cs.faults.quarantines, 0);
    assert!(!cs.degraded());
    let e = cs.maxcut_energy(&graph).unwrap();
    assert!(
        (e - reference).abs() < 1e-10,
        "lossless run drifted: {e} vs {reference}"
    );
}

#[test]
fn bitflip_is_detected_and_recovered() {
    let _g = faults::chaos_guard();
    let (circuit, graph) = qaoa(8, 5);
    let dense = StateVector::run(&circuit);
    let reference = dense.maxcut_energy(&graph);

    faults::arm_from_spec("seed=11,state.chunk.bitflip@2").unwrap();
    let comp = Memcpy;
    let mut cs = run_chaos(&circuit, &comp, ErrorBound::Abs(0.0));
    let report = cs.verify().unwrap();
    let injected = faults::injected_count("state.chunk.bitflip");
    faults::disarm();

    assert_eq!(injected, 1, "@2 fires exactly once");
    // The flipped bit is persistent corruption: the integrity frame must
    // flag it (during the run or in the scrub), and recovery is a
    // quarantine — never a silent pass.
    assert!(cs.faults.decode_errors >= 1, "corruption went undetected");
    assert_eq!(
        cs.faults.retries_ok, 0,
        "persistent corruption must not pass a retry"
    );
    let recovered = cs.faults.quarantines;
    assert_eq!(recovered, 1, "exactly the one corrupted chunk recovers");
    // After the scrub the state is internally consistent again.
    assert!(cs.verify().unwrap().all_clean());
    let _ = report;
    // Quarantine-adjusted energy bound: each lost unit of squared norm can
    // move each edge term by at most that much (|zz| ≤ norm²), plus slack.
    let e = cs.maxcut_energy(&graph).unwrap();
    let bound = graph.edges().len() as f64 * cs.faults.lost_norm_sq + 1e-10;
    assert!(
        (e - reference).abs() <= bound,
        "energy drift {} exceeds quarantine-adjusted bound {bound}",
        (e - reference).abs()
    );
}

#[test]
fn worker_panic_fails_the_chunk_not_the_process() {
    let _g = faults::chaos_guard();
    let (circuit, graph) = qaoa(8, 9);
    let dense = StateVector::run(&circuit);
    let reference = dense.maxcut_energy(&graph);

    // Worker-block events fire inside the data-parallel executor, so use a
    // codec whose kernels actually run through it (cuSZx quantization).
    faults::arm_from_spec("seed=3,exec.worker.panic@5").unwrap();
    let comp = compressors::cuszx::CuSzx::default();
    let mut cs = run_chaos(&circuit, &comp, ErrorBound::Abs(1e-7));
    let injected = faults::injected_count("exec.worker.panic");
    faults::disarm();

    assert_eq!(injected, 1, "@5 fires exactly once");
    assert_eq!(
        cs.faults.worker_panics, 1,
        "the panic was converted, not escaped"
    );
    // The panic either hit a codec kernel (healed by retry) or a gate
    // kernel (chunk quarantined); both leave the run alive.
    assert_eq!(cs.faults.retries_ok + cs.faults.quarantines, 1);
    assert!(cs.verify().unwrap().ledger_breaches == 0);
    let e = cs.maxcut_energy(&graph).unwrap();
    // Quarantine loss plus ordinary lossy-codec drift at this tight bound.
    let bound = graph.edges().len() as f64 * cs.faults.lost_norm_sq + 0.01 * reference.abs();
    assert!(
        (e - reference).abs() <= bound,
        "energy drift {} exceeds bound {bound}",
        (e - reference).abs()
    );
}

#[test]
fn sustained_fault_storm_completes_with_exact_accounting() {
    let _g = faults::chaos_guard();
    let (circuit, graph) = qaoa(8, 13);
    let dense = StateVector::run(&circuit);
    let reference = dense.maxcut_energy(&graph);

    faults::arm_from_spec("seed=42,state.chunk.bitflip%0.05,codec.decode%0.02").unwrap();
    let comp = Memcpy;
    let mut cs = run_chaos(&circuit, &comp, ErrorBound::Abs(0.0));
    // Scrub until clean: each pass heals or quarantines what it finds (a
    // scrub's own write-backs can be re-corrupted while faults are armed).
    for _ in 0..20 {
        if cs.verify().unwrap().all_clean() {
            break;
        }
    }
    let flips = faults::injected_count("state.chunk.bitflip");
    let decode_faults = faults::injected_count("codec.decode");
    faults::disarm();
    assert!(cs.verify().unwrap().all_clean(), "storm never settled");

    assert!(flips > 0, "5% over hundreds of write-backs must fire");
    // Exact accounting: every observed decode failure traces back to an
    // injected fault, and every injected decode error is observed (each
    // fires an error the moment that chunk is next decoded; bit flips may
    // additionally surface as extra checksum failures).
    assert!(
        cs.faults.decode_errors >= decode_faults,
        "decode errors {} < injected decode faults {decode_faults}",
        cs.faults.decode_errors
    );
    // Every failure was absorbed by exactly one recovery outcome. Persistent
    // corruption retries once (failing) before quarantine, and a retry of
    // an injected decode error can itself draw a new injected error, so
    // outcomes ≤ errors ≤ injected + retries.
    let outcomes = cs.faults.retries_ok + cs.faults.quarantines;
    assert!(outcomes > 0);
    assert!(
        outcomes <= cs.faults.decode_errors,
        "more recoveries than failures"
    );
    // Degraded, not wrong: energy within the quarantine-adjusted bound.
    let e = cs.maxcut_energy(&graph).unwrap();
    let bound = graph.edges().len() as f64 * cs.faults.lost_norm_sq + 1e-10;
    assert!(
        (e - reference).abs() <= bound,
        "energy drift {} exceeds quarantine-adjusted bound {bound} \
         (lost norm² {})",
        (e - reference).abs(),
        cs.faults.lost_norm_sq
    );
    let s = cs.ledger_summary();
    assert_eq!(
        s.total_quarantines, cs.faults.quarantines,
        "ledger and fault stats must agree on quarantines"
    );
}

#[test]
fn spilled_frame_bitflip_is_detected_at_fetch() {
    let _g = faults::chaos_guard();
    let (circuit, graph) = qaoa(8, 21);
    let dense = StateVector::run(&circuit);
    let reference = dense.maxcut_energy(&graph);

    faults::arm_from_spec("seed=29,state.spill.bitflip@3").unwrap();
    let comp = Memcpy;
    let mut cs = CompressedState::zero(8, 3, &comp, ErrorBound::Abs(0.0)).expect("zero state");
    cs.set_mem_budget(Some(0)); // all-spill: every write-back hits disk
    for g in circuit.gates() {
        cs.apply(g)
            .expect("chaos run must complete degraded, not die");
    }
    // The scrub fetches every spilled frame through the normal recovery
    // chain — the disk tier is covered by exactly the same code path.
    let first = cs.verify().unwrap();
    let injected = faults::injected_count("state.spill.bitflip");
    faults::disarm();
    // Scrub once more disarmed: verify()'s own re-tiering spills again,
    // which while armed could inject fresh flips.
    for _ in 0..5 {
        if cs.verify().unwrap().all_clean() {
            break;
        }
    }

    assert!(injected >= 1, "@3 must fire");
    assert!(cs.stats.spills >= 3, "all-spill run spilled plenty");
    assert!(cs.stats.fetches > 0);
    // On-disk corruption is persistent, so the only recovery is
    // quarantine — exactly one per flipped record, never a silent pass.
    assert!(cs.faults.decode_errors >= injected, "flip went undetected");
    assert_eq!(
        cs.faults.quarantines, cs.faults.decode_errors,
        "each corrupted record quarantines exactly once"
    );
    assert!(cs.verify().unwrap().all_clean(), "scrub never settled");
    let _ = first;
    let e = cs.maxcut_energy(&graph).unwrap();
    let bound = graph.edges().len() as f64 * cs.faults.lost_norm_sq + 1e-10;
    assert!(
        (e - reference).abs() <= bound,
        "energy drift {} exceeds quarantine-adjusted bound {bound}",
        (e - reference).abs()
    );
}

#[test]
fn spill_fault_storm_completes_with_exact_accounting() {
    let _g = faults::chaos_guard();
    let (circuit, graph) = qaoa(8, 25);
    let dense = StateVector::run(&circuit);
    let reference = dense.maxcut_energy(&graph);

    // Gate by gate, and as one prefetched run whose readers read ahead of
    // the stage loop: either way every decode stays on the main thread.
    for prefetch in [false, true] {
        // Only the spill site armed: every decode error must trace back to
        // a flipped on-disk record, making the accounting exactly closed.
        faults::arm_from_spec("seed=57,state.spill.bitflip%0.05").unwrap();
        let comp = Memcpy;
        let mut cs = CompressedState::zero(8, 3, &comp, ErrorBound::Abs(0.0)).expect("zero state");
        cs.set_mem_budget(Some(0));
        if prefetch {
            cs.run_scheduled(circuit.gates(), true)
                .expect("chaos run must complete degraded, not die");
            assert!(cs.stats.prefetch_hits > 0, "the readers never read ahead");
        } else {
            for g in circuit.gates() {
                cs.apply(g)
                    .expect("chaos run must complete degraded, not die");
            }
        }
        let flips = faults::injected_count("state.spill.bitflip");
        faults::disarm();
        // Disarmed scrub (injects nothing more): fetches every remaining —
        // possibly corrupt — record exactly once.
        for _ in 0..5 {
            if cs.verify().unwrap().all_clean() {
                break;
            }
        }

        assert!(flips > 0, "5% over hundreds of spills must fire");
        // Exact accounting: every *fetched* corrupt record fails its frame
        // checksum exactly once and quarantines exactly once. Flips can
        // exceed detections only via records that a fresh write-back
        // superseded before any fetch: corruption of already-dead bytes,
        // which by definition can never reach the state.
        assert!(cs.faults.decode_errors > 0, "no corruption detected");
        assert!(
            cs.faults.decode_errors <= flips,
            "more detections than injected flips"
        );
        assert_eq!(
            cs.faults.retries_ok, 0,
            "persistent corruption never retries clean"
        );
        assert_eq!(cs.faults.quarantines, cs.faults.decode_errors);
        assert!(cs.verify().unwrap().all_clean(), "storm never settled");
        let s = cs.ledger_summary();
        assert_eq!(s.total_quarantines, cs.faults.quarantines);
        let e = cs.maxcut_energy(&graph).unwrap();
        let bound = graph.edges().len() as f64 * cs.faults.lost_norm_sq + 1e-10;
        assert!(
            (e - reference).abs() <= bound,
            "prefetch={prefetch}: energy drift {} exceeds quarantine-adjusted bound {bound} \
             (lost norm² {})",
            (e - reference).abs(),
            cs.faults.lost_norm_sq
        );
    }
}

#[test]
fn verify_on_a_healthy_state_is_all_clean_and_free() {
    let _g = faults::chaos_guard();
    faults::disarm();
    let (circuit, _) = qaoa(8, 17);
    let comp = Memcpy;
    let mut cs = run_chaos(&circuit, &comp, ErrorBound::Abs(0.0));
    let report = cs.verify().unwrap();
    assert!(report.all_clean());
    assert_eq!(report.chunks, 32);
    assert_eq!(report.detected(), 0);
    assert_eq!(cs.faults, qtensor::FaultStats::default());
    assert!(!cs.degraded());
}
