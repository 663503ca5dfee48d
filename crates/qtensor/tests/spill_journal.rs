//! Journal coverage of the disk tier: every spill and fetch shows up in
//! the per-chunk causal chain (`qcfz state --chunk <id>` renders it),
//! and the journal-vs-ledger verdict — requant and quarantine counts
//! matching exactly — still holds on a heavily spilled run.
//!
//! Own integration-test binary for the same reason as
//! `journal_consistency.rs`: the journal is process-global.

use compressors::cuszx::CuSzx;
use compressors::ErrorBound;
use qcf_telemetry::journal::{self, EventKind};
use qcircuit::{qaoa_circuit, Graph, QaoaParams};
use qtensor::CompressedState;

#[test]
fn spill_and_fetch_events_join_the_causal_chain() {
    qcf_telemetry::set_enabled(true);
    journal::set_enabled(true);
    journal::reset();

    let n = 10usize;
    let chunk_qubits = 5usize;
    let graph = Graph::random_regular(n, 3, 7);
    let circuit = qaoa_circuit(&graph, &QaoaParams::fixed_angles_3reg_p1());
    let comp = CuSzx::default();
    let mut cs = CompressedState::zero(n, chunk_qubits, &comp, ErrorBound::Abs(1e-7)).unwrap();
    cs.set_mem_budget(Some(0)); // all-spill
    cs.run_scheduled(circuit.gates(), true).unwrap();

    let n_chunks = 1usize << (n - chunk_qubits);
    let mut spill_events = 0u64;
    let mut fetch_events = 0u64;
    for id in 0..n_chunks {
        let counts = journal::kind_counts(id as u64);
        let rec = cs.ledger().chunk(id);
        // The spill tier must not disturb the established verdict: the
        // journal still explains the ledger exactly.
        assert_eq!(
            counts[EventKind::WritebackRequant.index()],
            rec.requants,
            "chunk {id}: journal requants vs ledger"
        );
        assert_eq!(
            counts[EventKind::Quarantine.index()],
            rec.quarantines,
            "chunk {id}: journal quarantines vs ledger"
        );
        // Every chunk of an all-spill run was spilled and fetched.
        assert!(
            counts[EventKind::Spill.index()] > 0,
            "chunk {id}: no spill event at budget 0"
        );
        assert!(
            counts[EventKind::Fetch.index()] > 0,
            "chunk {id}: no fetch event at budget 0"
        );
        spill_events += counts[EventKind::Spill.index()];
        fetch_events += counts[EventKind::Fetch.index()];
    }
    // Journal totals equal the exact run stats.
    assert_eq!(spill_events, cs.stats.spills, "journal spills vs stats");
    assert_eq!(fetch_events, cs.stats.fetches, "journal fetches vs stats");

    journal::set_enabled(false);
}
