//! The differential contract of the compressed state engine: random
//! circuits over all 13 gate types, through every knob the engine has —
//! compressed-RAM budget none/0/tiny, prefetch on/off, the entry point
//! (`apply` per gate, `run_scheduled`, `run`) and an optional checkpoint +
//! `resume` at a random gate — checked against the dense [`StateVector`]
//! reference.
//!
//! * **Lossless** codecs (`Memcpy`, LZ4 at `Abs(0)`): amplitudes and
//!   `maxcut_energy` equal the dense reference's bit for bit, signed
//!   zeros included; the ledger stays all-zero while counting every
//!   encode; an all-spill budget really goes through the disk tier; and a
//!   resumed run's ledger equals the uninterrupted run's.
//! * **Lossy** codecs (cuSZx, QCF-speed): the per-chunk journal explains
//!   the ledger (requant events == ledger requants), every encode is
//!   exactly one requant, `run_scheduled` lands on the same bits and the
//!   same ledger at every budget and prefetch setting — with or without a
//!   checkpoint + resume, against the uninterrupted run cut at the same
//!   gate — and the state keeps a high *normalized* fidelity with a small
//!   norm drift.
//!
//! Registers have 5–8 qubits and chunks 2–5 qubits, so two-qubit gates,
//! `Cz`, `Cnot` and the one-qubit diagonals land on chunk-id qubits (and,
//! at 5 qubits in 5-qubit chunks, on a single chunk). The journal is
//! process-global, so every case holds [`serial`] while it runs.

use compressors::cuszx::CuSzx;
use compressors::dummy::Memcpy;
use compressors::lz4::Lz4;
use compressors::{Compressor, ErrorBound};
use proptest::prelude::*;
use proptest::TestCaseError;
use qcf_core::QcfCompressor;
use qcf_telemetry::journal::{self, EventKind};
use qcircuit::{Circuit, Gate, Graph};
use qtensor::{CompressedState, StateStats, StateVector};
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

/// A random circuit: 5 to 8 qubits, 1–40 gates.
fn circuit_strategy() -> impl Strategy<Value = Circuit> {
    prop_oneof![
        prop::collection::vec(gate_strategy(5), 1..40).prop_map(|g| build(5, g)),
        prop::collection::vec(gate_strategy(6), 1..40).prop_map(|g| build(6, g)),
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
    /// `CompressedState::run` (no budget, no checkpoint).
    Run,
}

/// One knob set.
#[derive(Debug, Clone, Copy)]
struct Knobs {
    chunk: usize,
    budget: Option<usize>,
    prefetch: bool,
    entry: Entry,
    /// Split the gate list after this many gates: the second half goes
    /// through its own `apply`/`run_scheduled` calls.
    ckpt_at: Option<usize>,
    /// At the split, checkpoint and resume from the snapshot; `false`
    /// continues on the same state (the uninterrupted reference).
    resume: bool,
}

fn knobs_strategy() -> impl Strategy<Value = Knobs> {
    (
        2usize..6,
        0usize..3,
        any::<bool>(),
        0usize..3,
        (any::<bool>(), 0usize..40),
    )
        .prop_map(|(chunk, budget, prefetch, entry, (ckpt, at))| Knobs {
            chunk,
            budget: [None, Some(0), Some(300)][budget],
            prefetch,
            entry: [Entry::ApplyLoop, Entry::Scheduled, Entry::Run][entry],
            ckpt_at: ckpt.then_some(at),
            resume: ckpt,
        })
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
    cs.set_mem_budget(k.budget);
}

fn advance(cs: &mut CompressedState<'_>, gates: &[Gate], k: &Knobs) {
    match k.entry {
        Entry::ApplyLoop => gates.iter().for_each(|g| cs.apply(g).unwrap()),
        _ => cs.run_scheduled(gates, k.prefetch).unwrap(),
    }
}

/// A run's final state, with the stats of the state it resumed from (a
/// resumed state's [`StateStats`] start at zero; default without a
/// resume).
struct Simulated<'a> {
    cs: CompressedState<'a>,
    before: StateStats,
}

impl Simulated<'_> {
    /// Chunk encodes of the whole run, across a resume.
    fn recompressions(&self) -> u64 {
        self.before.recompressions + self.cs.stats.recompressions
    }
}

/// Runs `circuit` under `k`.
fn simulate<'a>(
    circuit: &Circuit,
    comp: &'a dyn Compressor,
    bound: ErrorBound,
    k: &Knobs,
) -> Simulated<'a> {
    let n = circuit.n_qubits();
    let before = StateStats::default();
    if k.entry == Entry::Run {
        let cs = CompressedState::run(circuit, k.chunk, comp, bound).unwrap();
        return Simulated { cs, before };
    }
    let gates = circuit.gates();
    let mut cs = CompressedState::zero(n, k.chunk, comp, bound).unwrap();
    configure(&mut cs, k);
    let Some(at) = k.ckpt_at.map(|at| at.min(gates.len())) else {
        advance(&mut cs, gates, k);
        return Simulated { cs, before };
    };
    advance(&mut cs, &gates[..at], k);
    if !k.resume {
        advance(&mut cs, &gates[at..], k);
        return Simulated { cs, before };
    }
    let path = snap_path();
    cs.checkpoint(&path, b"differential").unwrap();
    let before = cs.stats.clone();
    drop(cs);
    let (mut cs, meta) = CompressedState::resume(&path, comp).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(meta, b"differential");
    configure(&mut cs, k);
    advance(&mut cs, &gates[at..], k);
    Simulated { cs, before }
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

/// A lossy ledger is exact: every encode of the run (across a resume) is
/// one requant, each chunk absorbed its initial quantization, and the
/// accumulated bounds are positive with the state RSS above every chunk's.
fn lossy_ledger_is_exact(run: &Simulated<'_>, what: &str) -> Result<(), TestCaseError> {
    let cs = &run.cs;
    let s = cs.ledger_summary();
    prop_assert_eq!(
        s.total_requants,
        run.recompressions(),
        "{}: ledger requants vs recompressions",
        what
    );
    prop_assert!(s.max_requants <= s.total_requants, "{}", what);
    prop_assert_eq!(
        s.chunks << cs.chunk_len().trailing_zeros(),
        1 << cs.n_qubits(),
        "{}",
        what
    );
    prop_assert!(cs.ledger().lossy_events() >= s.chunks as u64, "{}", what);
    prop_assert!(s.lossy, "{}", what);
    prop_assert!(s.max_accumulated_bound > 0.0, "{}", what);
    prop_assert!(s.accumulated_rss >= s.max_accumulated_bound, "{}", what);
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
        let run = simulate(&circuit, comp, ErrorBound::Abs(0.0), &k);
        let cs = &run.cs;
        let what = format!("{} {:?}", comp.name(), k);
        same_bits(&cs.to_statevector().unwrap(), &dense, &what)?;
        let (e, want) = (cs.maxcut_energy(&graph).unwrap(), dense.maxcut_energy(&graph));
        prop_assert_eq!(e.to_bits(), want.to_bits(), "{}: energy {} vs {}", what, e, want);
        // The ledger stays all-zero, but counts every encode: one per
        // chunk at preparation plus one per recompression.
        let s = cs.ledger_summary();
        prop_assert_eq!(s.total_requants, 0u64, "{}", what);
        prop_assert_eq!(s.max_requants, 0u64, "{}", what);
        prop_assert_eq!(s.max_accumulated_bound, 0.0, "{}", what);
        prop_assert_eq!(s.mean_accumulated_bound, 0.0, "{}", what);
        prop_assert_eq!(s.accumulated_rss, 0.0, "{}", what);
        prop_assert_eq!(s.max_measured_err, 0.0, "{}", what);
        prop_assert!(!s.lossy, "{}", what);
        prop_assert_eq!(
            s.total_encodes,
            s.chunks as u64 + run.recompressions(),
            "{}: encodes vs chunks + recompressions",
            what
        );
        // An all-spill budget really moves every frame through the disk
        // tier, and the gates read them back.
        if k.budget == Some(0) && k.entry != Entry::Run {
            prop_assert!(cs.stats.spills > 0, "{}: budget 0 never spilled", what);
            let fetches = run.before.fetches + cs.stats.fetches;
            prop_assert!(fetches > 0, "{}: budget 0 never fetched", what);
        }
        // A resume restores the ledger the uninterrupted run keeps.
        if k.resume {
            let straight = simulate(&circuit, comp, ErrorBound::Abs(0.0), &Knobs { resume: false, ..k });
            prop_assert_eq!(s, straight.cs.ledger_summary(), "{}: resumed ledger", what);
        }
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
        // The reference: in RAM, no checkpoint, cut at the same gate.
        let k = Knobs { entry: Entry::Scheduled, ..k };
        let plain = Knobs { budget: None, prefetch: false, resume: false, ..k };
        journal::reset();
        let straight = simulate(&circuit, comp, bound, &plain);
        let what = format!("{} {:?}", comp.name(), plain);
        journal_explains_ledger(&straight.cs)?;
        lossy_ledger_is_exact(&straight, &what)?;
        let reference = straight.cs.to_statevector().unwrap();
        let reference_ledger = straight.cs.ledger_summary();
        for budget in [None, Some(0), Some(300)] {
            for prefetch in [false, true] {
                let k = Knobs { budget, prefetch, ..k };
                journal::reset();
                let run = simulate(&circuit, comp, bound, &k);
                let what = format!("{} {:?}", comp.name(), k);
                journal_explains_ledger(&run.cs)?;
                lossy_ledger_is_exact(&run, &what)?;
                let sv = run.cs.to_statevector().unwrap();
                let f = sv.fidelity_normalized(&dense);
                prop_assert!(f > 0.999, "{}: normalized fidelity {}", what, f);
                let drift = (sv.norm_sq() - 1.0).abs();
                prop_assert!(drift < 0.01, "{}: norm drift {}", what, drift);
                same_bits(&sv, &reference, &what)?;
                prop_assert_eq!(
                    run.cs.ledger_summary(),
                    reference_ledger.clone(),
                    "{}: ledger vs the uninterrupted in-RAM run",
                    what
                );
            }
        }
        journal::set_enabled(false);
    }
}
