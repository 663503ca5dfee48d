//! The differential contract of the compressed state engine: random
//! circuits over all 13 gate types, through every knob the engine has —
//! cache capacity 0/1/8, compressed-RAM budget none/0/tiny, prefetch
//! on/off, the entry point (`apply` per gate, `run_scheduled`, `run`) and
//! an optional checkpoint + `resume` at a random gate — checked against
//! the dense [`StateVector`] reference.
//!
//! * **Lossless** codecs (`Memcpy`, LZ4 at `Abs(0)`): amplitudes and
//!   `maxcut_energy` equal the dense reference's bit for bit, signed
//!   zeros included.
//! * **Lossy** codecs (cuSZx, QCF-speed): the per-chunk journal explains
//!   the ledger (requant events == ledger requants), `run_scheduled` lands
//!   on the same bits at every budget and prefetch setting, and the state
//!   keeps a high *normalized* fidelity with a small norm drift.
//!
//! Registers have 7–8 qubits and chunks 2–5 qubits, so two-qubit gates,
//! `Cz`, `Cnot` and the one-qubit diagonals all land on chunk-id qubits.
//! The journal is process-global, so every case holds [`serial`] while it
//! runs.

use compressors::cuszx::CuSzx;
use compressors::dummy::Memcpy;
use compressors::lz4::Lz4;
use compressors::{Compressor, ErrorBound};
use proptest::prelude::*;
use proptest::TestCaseError;
use qcf_core::QcfCompressor;
use qcf_telemetry::journal::{self, EventKind};
use qcircuit::{Circuit, Gate, Graph};
use qtensor::{CompressedState, StateVector};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Every gate type over an `n`-qubit register; two-qubit gates draw
/// distinct qubits as `(a, a + off mod n)`.
fn gate_strategy(n: usize) -> impl Strategy<Value = Gate> {
    let pair = move |a: usize, off: usize| (a, (a + off) % n);
    prop_oneof![
        (0..n).prop_map(Gate::H),
        (0..n).prop_map(Gate::X),
        (0..n).prop_map(Gate::Y),
        (0..n).prop_map(Gate::Z),
        (0..n).prop_map(Gate::S),
        (0..n).prop_map(Gate::T),
        (0..n, -3.0f64..3.0).prop_map(|(q, th)| Gate::Rx(q, th)),
        (0..n, -3.0f64..3.0).prop_map(|(q, th)| Gate::Ry(q, th)),
        (0..n, -3.0f64..3.0).prop_map(|(q, th)| Gate::Rz(q, th)),
        (0..n, 1..n).prop_map(move |(a, off)| {
            let (a, b) = pair(a, off);
            Gate::Cnot(a, b)
        }),
        (0..n, 1..n).prop_map(move |(a, off)| {
            let (a, b) = pair(a, off);
            Gate::Cz(a, b)
        }),
        (0..n, 1..n, -3.0f64..3.0).prop_map(move |(a, off, th)| {
            let (a, b) = pair(a, off);
            Gate::Zz(a, b, th)
        }),
        (0..n, 1..n).prop_map(move |(a, off)| {
            let (a, b) = pair(a, off);
            Gate::Swap(a, b)
        }),
    ]
}

/// A random circuit: 7 or 8 qubits, 1–40 gates.
fn circuit_strategy() -> impl Strategy<Value = Circuit> {
    prop_oneof![
        prop::collection::vec(gate_strategy(7), 1..40).prop_map(|g| build(7, g)),
        prop::collection::vec(gate_strategy(8), 1..40).prop_map(|g| build(8, g)),
    ]
}

fn build(n: usize, gates: Vec<Gate>) -> Circuit {
    gates.into_iter().fold(Circuit::new(n), Circuit::with)
}

/// How the gates reach the state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    /// `apply` once per gate.
    ApplyLoop,
    /// `run_scheduled(gates, prefetch)`.
    Scheduled,
    /// `CompressedState::run` (environment-configured cache, no budget,
    /// no checkpoint).
    Run,
}

/// One knob set.
#[derive(Debug, Clone, Copy)]
struct Knobs {
    chunk: usize,
    cache: usize,
    budget: Option<usize>,
    prefetch: bool,
    entry: Entry,
    /// Checkpoint, then resume from the snapshot, after this many gates.
    ckpt_at: Option<usize>,
}

fn knobs_strategy() -> impl Strategy<Value = Knobs> {
    (
        2usize..6,
        0usize..3,
        0usize..3,
        any::<bool>(),
        0usize..3,
        (any::<bool>(), 0usize..40),
    )
        .prop_map(
            |(chunk, cache, budget, prefetch, entry, (ckpt, at))| Knobs {
                chunk,
                cache: [0, 1, 8][cache],
                budget: [None, Some(0), Some(300)][budget],
                prefetch,
                entry: [Entry::ApplyLoop, Entry::Scheduled, Entry::Run][entry],
                ckpt_at: ckpt.then_some(at),
            },
        )
}

/// Serializes the cases of this binary: the journal is process-global.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A unique snapshot path per run.
fn snap_path() -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("qcf-differential");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "case-{}-{}.qcfs",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn configure(cs: &mut CompressedState<'_>, k: &Knobs) {
    cs.set_cache_capacity(k.cache).unwrap();
    cs.set_mem_budget(k.budget);
}

fn advance(cs: &mut CompressedState<'_>, gates: &[Gate], k: &Knobs) {
    match k.entry {
        Entry::ApplyLoop => gates.iter().for_each(|g| cs.apply(g).unwrap()),
        _ => cs.run_scheduled(gates, k.prefetch).unwrap(),
    }
}

/// Runs `circuit` under `k` and returns the final state.
fn simulate<'a>(
    circuit: &Circuit,
    comp: &'a dyn Compressor,
    bound: ErrorBound,
    k: &Knobs,
) -> CompressedState<'a> {
    let n = circuit.n_qubits();
    if k.entry == Entry::Run {
        return CompressedState::run(circuit, k.chunk, comp, bound).unwrap();
    }
    let gates = circuit.gates();
    let mut cs = CompressedState::zero(n, k.chunk, comp, bound).unwrap();
    configure(&mut cs, k);
    let Some(at) = k.ckpt_at.map(|at| at.min(gates.len())) else {
        advance(&mut cs, gates, k);
        return cs;
    };
    advance(&mut cs, &gates[..at], k);
    let path = snap_path();
    cs.checkpoint(&path, b"differential").unwrap();
    drop(cs);
    let (mut cs, meta) = CompressedState::resume(&path, comp).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(meta, b"differential");
    configure(&mut cs, k);
    advance(&mut cs, &gates[at..], k);
    cs
}

/// Bit-for-bit amplitude equality, signed zeros included.
fn same_bits(a: &StateVector, b: &StateVector, what: &str) -> Result<(), TestCaseError> {
    for (i, (x, y)) in a.amplitudes().iter().zip(b.amplitudes()).enumerate() {
        prop_assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{}: amplitude {} is {:?}, want {:?}",
            what,
            i,
            (x.re, x.im),
            (y.re, y.im)
        );
    }
    Ok(())
}

/// Journal ⇄ ledger: every chunk's requant events equal its ledger
/// requants (the journal is reset when the run starts).
fn journal_explains_ledger(cs: &CompressedState<'_>) -> Result<(), TestCaseError> {
    for id in 0..cs.ledger().n_chunks() {
        let counts = journal::kind_counts(id as u64);
        prop_assert_eq!(
            counts[EventKind::WritebackRequant.index()],
            cs.ledger().chunk(id).requants,
            "chunk {}: journal requants vs ledger requants",
            id
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn lossless_runs_equal_the_dense_reference_bit_for_bit(
        circuit in circuit_strategy(),
        k in knobs_strategy(),
        lz4 in any::<bool>(),
    ) {
        let _serial = serial();
        let (memcpy, lz) = (Memcpy, Lz4);
        let comp: &dyn Compressor = if lz4 { &lz } else { &memcpy };
        let dense = StateVector::run(&circuit);
        let graph = Graph::complete(circuit.n_qubits());
        let cs = simulate(&circuit, comp, ErrorBound::Abs(0.0), &k);
        let what = format!("{} {:?}", comp.name(), k);
        same_bits(&cs.to_statevector().unwrap(), &dense, &what)?;
        let (e, want) = (cs.maxcut_energy(&graph).unwrap(), dense.maxcut_energy(&graph));
        prop_assert_eq!(e.to_bits(), want.to_bits(), "{}: energy {} vs {}", what, e, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn lossy_runs_keep_the_ledger_and_ignore_the_tiers(
        circuit in circuit_strategy(),
        k in knobs_strategy(),
        qcf in any::<bool>(),
    ) {
        let _serial = serial();
        let (cuszx, speed) = (CuSzx::default(), QcfCompressor::speed());
        let (comp, bound): (&dyn Compressor, _) = if qcf {
            (&speed, ErrorBound::Rel(1e-3))
        } else {
            (&cuszx, ErrorBound::Abs(1e-5))
        };
        let dense = StateVector::run(&circuit);
        qcf_telemetry::set_enabled(true);
        journal::set_enabled(true);
        let mut reference: Option<StateVector> = None;
        for budget in [None, Some(0), Some(300)] {
            for prefetch in [false, true] {
                let k = Knobs { budget, prefetch, entry: Entry::Scheduled, ..k };
                journal::reset();
                let mut cs = simulate(&circuit, comp, bound, &k);
                cs.flush().unwrap();
                let what = format!("{} {:?}", comp.name(), k);
                journal_explains_ledger(&cs)?;
                let sv = cs.to_statevector().unwrap();
                let f = sv.fidelity_normalized(&dense);
                prop_assert!(f > 0.999, "{}: normalized fidelity {}", what, f);
                let drift = (sv.norm_sq() - 1.0).abs();
                prop_assert!(drift < 0.01, "{}: norm drift {}", what, drift);
                match &reference {
                    None => reference = Some(sv),
                    Some(r) => same_bits(&sv, r, &what)?,
                }
            }
        }
        journal::set_enabled(false);
    }
}
