//! Journal ⇄ ledger consistency: the per-chunk causal journal must
//! *explain* the error ledger — for every chunk, the journal's requant and
//! quarantine event counts equal the ledger's, and its zero+encode events
//! equal the ledger's total encodes. This is the contract behind
//! `qcfz state --chunk <id>`: the printed causal chain accounts for every
//! number in the chunk's ledger row.
//!
//! Lives in its own integration-test binary: the journal is process-global
//! and armed for the whole test, so sibling unit tests sharing a process
//! would write foreign events into the same chunk-id rings.

use compressors::cuszx::CuSzx;
use compressors::ErrorBound;
use qcf_telemetry::journal::{self, EventKind};
use qcircuit::{qaoa_circuit, Graph, QaoaParams};
use qtensor::CompressedState;

#[test]
fn journal_event_counts_match_the_ledger() {
    qcf_telemetry::set_enabled(true);
    journal::set_enabled(true);
    journal::reset();

    let n = 10usize;
    let chunk_qubits = 5usize;
    let graph = Graph::random_regular(n, 3, 5);
    let circuit = qaoa_circuit(&graph, &QaoaParams::fixed_angles_3reg_p1());
    let comp = CuSzx::default();
    let cs = CompressedState::run(&circuit, chunk_qubits, &comp, ErrorBound::Abs(1e-7)).unwrap();

    let n_chunks = 1usize << (n - chunk_qubits);
    let mut total_requants = 0u64;
    for id in 0..n_chunks {
        let counts = journal::kind_counts(id as u64);
        let rec = cs.ledger().chunk(id);
        assert_eq!(
            counts[EventKind::WritebackRequant.index()],
            rec.requants,
            "chunk {id}: journal requant events vs ledger requants"
        );
        assert_eq!(
            counts[EventKind::Quarantine.index()],
            rec.quarantines,
            "chunk {id}: journal quarantine events vs ledger quarantines"
        );
        assert_eq!(
            counts[EventKind::Zero.index()] + counts[EventKind::Encode.index()],
            rec.encodes,
            "chunk {id}: journal zero+encode events vs ledger encodes"
        );
        assert_eq!(counts[EventKind::Zero.index()], 1, "chunk {id}: one birth");
        total_requants += rec.requants;

        // Sequence numbers within a chunk's ring are strictly increasing —
        // the causal order `qcfz state --chunk` prints is well-defined.
        let events = journal::events(id as u64);
        assert!(!events.is_empty(), "chunk {id}: journal ring is empty");
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq, "chunk {id}: seq not monotone");
        }
    }
    // A lossy codec under real gate traffic actually requantized things —
    // the equalities above are not vacuous.
    assert!(total_requants > 0, "expected lossy requants in this run");
    assert_eq!(
        total_requants,
        cs.ledger_summary().total_requants,
        "per-chunk requants must sum to the ledger summary"
    );

    journal::set_enabled(false);
}
