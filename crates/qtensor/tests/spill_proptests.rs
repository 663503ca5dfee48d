//! The disk tier is a pure *placement* layer: a memory budget decides
//! where sealed frames live, never what they contain. Any budget — 0
//! (all-spill), tiny (thrashing), or unbounded — must therefore produce
//! bit-identical amplitudes to the in-RAM run, with or without the async
//! prefetch pipeline, under lossless *and* lossy codecs (spill sits
//! below the codec layer, so even requantization sequences are
//! unchanged). `tests/differential.rs` checks that on random circuits
//! against the dense reference; this file keeps what it does not: the
//! identity after a scrub re-tiers everything, a full QAOA instance, and
//! timing-independent prefetch accounting.

use compressors::dummy::Memcpy;
use compressors::{Compressor, ErrorBound};
use proptest::prelude::*;
use qcircuit::{qaoa_circuit, Gate, Graph, QaoaParams};
use qtensor::CompressedState;

/// Random gates over an `n`-qubit register, mixing low (intra-chunk) and
/// high (grouped, cross-chunk) qubits.
fn gate_strategy(n: usize) -> impl Strategy<Value = Gate> {
    let pair = move |s: (usize, usize)| (s.0, (s.0 + s.1) % n);
    prop_oneof![
        (0..n).prop_map(Gate::H),
        (0..n, -3.0f64..3.0).prop_map(|(q, th)| Gate::Rx(q, th)),
        (0..n, -3.0f64..3.0).prop_map(|(q, th)| Gate::Ry(q, th)),
        (0..n).prop_map(Gate::T),
        (0..n, 1..n, -3.0f64..3.0).prop_map(move |(a, off, th)| {
            let (a, b) = pair((a, off));
            Gate::Zz(a, b, th)
        }),
        (0..n, 1..n).prop_map(move |(a, off)| {
            let (a, b) = pair((a, off));
            Gate::Cnot(a, b)
        }),
        (0..n, 1..n).prop_map(move |(a, off)| {
            let (a, b) = pair((a, off));
            Gate::Swap(a, b)
        }),
    ]
}

fn assert_bits_equal(a: &qtensor::StateVector, b: &qtensor::StateVector, label: &str) {
    for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "{label} diverges");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "{label} diverges");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn mem_budget_never_changes_amplitudes(
        gates in prop::collection::vec(gate_strategy(7), 1..20),
        chunk in 3usize..5,
    ) {
        let comp = Memcpy;
        // Budgets: unbounded (reference), tiny (partial spill, thrash),
        // zero (all-spill); the only variable is frame *placement*.
        let budgets = [None, Some(512usize), Some(0)];
        let mut states: Vec<CompressedState> = budgets
            .iter()
            .map(|&budget| {
                let mut cs =
                    CompressedState::zero(7, chunk, &comp, ErrorBound::Abs(0.0)).unwrap();
                cs.set_mem_budget(budget);
                cs
            })
            .collect();
        for g in &gates {
            for cs in &mut states {
                cs.apply(g).unwrap();
            }
        }
        // The zero-budget run must actually exercise the disk tier.
        prop_assert!(states[2].stats.spills > 0, "budget 0 never spilled");
        prop_assert!(states[2].stats.fetches > 0, "budget 0 never fetched");
        let reference = states[0].to_statevector().unwrap();
        for (cs, budget) in states.iter_mut().zip(budgets).skip(1) {
            let sv = cs.to_statevector().unwrap();
            for (a, b) in reference.amplitudes().iter().zip(sv.amplitudes()) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits(), "budget {:?}", budget);
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits(), "budget {:?}", budget);
            }
            // And after a scrub (which fetches + re-tiers everything).
            prop_assert!(cs.verify().unwrap().all_clean());
            let sv = cs.to_statevector().unwrap();
            for (a, b) in reference.amplitudes().iter().zip(sv.amplitudes()) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits(), "post-verify {:?}", budget);
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits(), "post-verify {:?}", budget);
            }
        }
    }
}

/// Full QAOA run: every budget (and the prefetched path) lands on the
/// same bits as the unbounded run, for a lossless *and* a lossy codec.
#[test]
fn full_qaoa_is_bit_identical_across_budgets() {
    let graph = Graph::random_regular(10, 3, 21);
    let circuit = qaoa_circuit(&graph, &QaoaParams::fixed_angles_3reg_p1());
    let lossless = Memcpy;
    let lossy = compressors::cuszx::CuSzx::default();
    let codecs: [(&dyn Compressor, ErrorBound, &str); 2] = [
        (&lossless, ErrorBound::Abs(0.0), "memcpy"),
        (&lossy, ErrorBound::Abs(1e-7), "cuszx"),
    ];
    for (comp, bound, name) in codecs {
        let run = |budget: Option<usize>, prefetch: bool| {
            let mut cs = CompressedState::zero(10, 5, comp, bound).unwrap();
            cs.set_mem_budget(budget);
            cs.run_scheduled(circuit.gates(), prefetch).unwrap();
            cs
        };
        let reference = run(None, false);
        let ref_sv = reference.to_statevector().unwrap();
        for (budget, prefetch) in [(Some(0), false), (Some(0), true), (Some(1024), true)] {
            let cs = run(budget, prefetch);
            assert!(
                cs.stats.spills > 0,
                "{name}: budget {budget:?} exercised no spills"
            );
            let sv = cs.to_statevector().unwrap();
            assert_bits_equal(
                &ref_sv,
                &sv,
                &format!("{name} budget={budget:?} prefetch={prefetch}"),
            );
            // Energy read through the disk tier in place (&self scan).
            let e_ref = reference.maxcut_energy(&graph).unwrap();
            let e = cs.maxcut_energy(&graph).unwrap();
            assert_eq!(e_ref.to_bits(), e.to_bits(), "{name}: energy diverges");
        }
    }
}

/// Prefetch hit/miss counts are functions of the deterministic touch
/// schedule, not of I/O timing: two identical runs agree exactly.
#[test]
fn prefetch_accounting_is_deterministic() {
    let graph = Graph::random_regular(8, 3, 5);
    let circuit = qaoa_circuit(&graph, &QaoaParams::fixed_angles_3reg_p1());
    let comp = Memcpy;
    let run = || {
        let mut cs = CompressedState::zero(8, 3, &comp, ErrorBound::Abs(0.0)).unwrap();
        cs.set_mem_budget(Some(0));
        cs.run_scheduled(circuit.gates(), true).unwrap();
        (
            cs.stats.prefetch_hits,
            cs.stats.prefetch_misses,
            cs.stats.spills,
            cs.stats.fetches,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "prefetch accounting must be timing-independent");
    assert!(a.0 > 0, "scheduled run should score prefetch hits");
    assert_eq!(a.0 + a.1, a.3, "every fetch is a hit or a miss");
}
