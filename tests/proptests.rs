//! Workspace-level property tests: the invariants that must hold for *any*
//! input, not just the evaluation corpus.

use proptest::prelude::*;
use qcf::prelude::*;
use qcf::tensornet::einsum::multiply_sum;
use qcf::tensornet::{contract, contract_serial, multiply_keep, multiply_keep_serial};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A tensor with the given labels, label-dims drawn from `dim_of`, and
/// seeded random complex data.
fn random_tensor(labels: &[u32], dim_of: &[usize], seed: u64) -> Tensor {
    let dims: Vec<usize> = labels.iter().map(|&l| dim_of[l as usize]).collect();
    let total: usize = dims.iter().product();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let data: Vec<Complex64> = (0..total)
        .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    Tensor::new(labels.to_vec(), dims, data).unwrap()
}

fn assert_tensors_bit_identical(par: &Tensor, ser: &Tensor, what: &str) {
    assert_eq!(par.indices(), ser.indices(), "{what}: labels differ");
    assert_eq!(par.dims(), ser.dims(), "{what}: dims differ");
    for (i, (x, y)) in par.data().iter().zip(ser.data()).enumerate() {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}: re differs at {i}");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}: im differs at {i}");
    }
}

/// `multiply_sum(a, b, var)` against the fold it replaces:
/// `multiply_keep_serial(a, b)` then `sum_over(var)`.
fn assert_fused_sum_bit_identical(a: &Tensor, b: &Tensor, var: u32) {
    let fused = multiply_sum(a, b, var).unwrap();
    let fold = multiply_keep_serial(a, b).unwrap().sum_over(var).unwrap();
    assert_tensors_bit_identical(&fused, &fold, &format!("multiply_sum over {var}"));
}

/// Forces the block-parallel GEMM, permute and broadcast kernels (well past
/// `PAR_MIN_ELEMS`) and checks them bit-for-bit against the serial walk.
#[test]
fn large_contract_and_multiply_bit_identical_to_serial() {
    let dim_of = [32usize, 16, 16, 32, 2, 2];
    let a = random_tensor(&[0, 1, 2], &dim_of, 11); // 8192 elements
    let b = random_tensor(&[2, 3], &dim_of, 12); // 512 elements, shares label 2
    assert_tensors_bit_identical(
        &contract(&a, &b).unwrap(),
        &contract_serial(&a, &b).unwrap(),
        "contract",
    );
    // Union output: 32·16·16·32 = 262144 elements — dozens of blocks.
    assert_tensors_bit_identical(
        &multiply_keep(&a, &b).unwrap(),
        &multiply_keep_serial(&a, &b).unwrap(),
        "multiply_keep",
    );
    // The fused last step past `PAR_MIN_ELEMS`: a dim-2 label shared by
    // both sides summed out of a 32·16·16·32 = 262144-element output
    // (dozens of blocks), then each label of a and b (8192 or 16384
    // output elements of 16 or 32 terms).
    let a4 = random_tensor(&[0, 1, 2, 4], &dim_of, 13);
    let b4 = random_tensor(&[3, 4, 2], &dim_of, 14);
    assert_fused_sum_bit_identical(&a4, &b4, 4);
    for var in [2, 1, 3] {
        assert_fused_sum_bit_identical(&a, &b, var);
    }
    // Permuted operands (no identity fast path on either side).
    let ap = a.permuted(&[2, 0, 1]).unwrap();
    let bp = b.permuted(&[3, 2]).unwrap();
    assert_tensors_bit_identical(
        &contract(&ap, &bp).unwrap(),
        &contract_serial(&ap, &bp).unwrap(),
        "contract permuted",
    );
}

fn any_f64_buffer() -> impl Strategy<Value = Vec<f64>> {
    // Finite values across magnitudes, plus heavy repetition and zeros —
    // the regimes the compressors branch on.
    let val = prop_oneof![
        4 => -1.0f64..1.0,
        2 => Just(0.0f64),
        1 => -1e-9f64..1e-9,
        1 => -1e6f64..1e6,
        1 => 0.24f64..0.26,
    ];
    prop::collection::vec(val, 0..700)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn parallel_tensor_ops_bit_identical_to_serial(
        dim_picks in prop::collection::vec(2usize..5, 6..7),
        a_mask in 1u8..64,
        b_mask in 1u8..64,
        seed in 0u64..1_000_000,
    ) {
        // Random label subsets of a 6-label universe (dims 2..=4 each), with
        // b's axis order shuffled so permutation paths are exercised. Output
        // sizes stay ≤ 4096, bracketing the parallel cutover threshold.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let labels_a: Vec<u32> = (0..6).filter(|i| a_mask & (1 << i) != 0).collect();
        let mut labels_b: Vec<u32> = (0..6).filter(|i| b_mask & (1 << i) != 0).collect();
        labels_b.shuffle(&mut rng);
        let a = random_tensor(&labels_a, &dim_picks, seed.wrapping_mul(2) + 1);
        let b = random_tensor(&labels_b, &dim_picks, seed.wrapping_mul(2) + 2);

        let par = contract(&a, &b).unwrap();
        let ser = contract_serial(&a, &b).unwrap();
        assert_tensors_bit_identical(&par, &ser, "contract");

        let par = multiply_keep(&a, &b).unwrap();
        let ser = multiply_keep_serial(&a, &b).unwrap();
        assert_tensors_bit_identical(&par, &ser, "multiply_keep");

        // Every label of a ∪ b summed out by the fused kernel; runs of
        // labels both operands hold in the same order exercise the merge.
        for var in (0..6).filter(|i| (a_mask | b_mask) & (1 << i) != 0) {
            assert_fused_sum_bit_identical(&a, &b, var);
        }
    }

    #[test]
    fn error_bounded_compressors_respect_any_abs_bound(
        data in any_f64_buffer(),
        eb_exp in -8i32..-1,
    ) {
        let eb = 10f64.powi(eb_exp);
        let bound = ErrorBound::Abs(eb);
        let mut comps: Vec<Box<dyn Compressor>> = vec![
            by_name("cuSZ").unwrap(),
            by_name("cuSZx").unwrap(),
            by_name("cuZFP").unwrap(),
            Box::new(QcfCompressor::ratio()),
            Box::new(QcfCompressor::speed()),
        ];
        comps.push(Box::new(QcfCompressor::with_stages(
            qcf_core::Mode::Ratio,
            qcf_core::StageToggles::none(),
        )));
        for comp in &comps {
            let r = round_trip(comp.as_ref(), &data, bound).expect("round trip");
            prop_assert_eq!(r.reconstructed.len(), data.len());
            // eb plus buffer-magnitude ULP slack (fp rounding of the
            // reconstruction arithmetic; see metrics::assert_bound).
            let max_abs = data
                .iter()
                .chain(&r.reconstructed)
                .fold(0.0f64, |m, &v| m.max(v.abs()));
            let tol = eb * (1.0 + 1e-9) + max_abs * 16.0 * f64::EPSILON;
            for (i, (a, b)) in data.iter().zip(&r.reconstructed).enumerate() {
                prop_assert!(
                    (a - b).abs() <= tol,
                    "{} at {}: |{} - {}| > {}", comp.name(), i, a, b, eb
                );
            }
        }
    }

    #[test]
    fn lossless_compressors_are_bit_exact_on_anything(data in any_f64_buffer()) {
        for name in ["LZ4", "Snappy", "GDeflate", "Cascaded", "Bitcomp", "memcpy"] {
            let comp = by_name(name).unwrap();
            let r = round_trip(comp.as_ref(), &data, ErrorBound::Abs(1e-3)).expect("round trip");
            for (a, b) in data.iter().zip(&r.reconstructed) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{} altered bits", name);
            }
        }
    }

    #[test]
    fn truncated_streams_never_panic(
        data in prop::collection::vec(-1.0f64..1.0, 1..200),
        cut_frac in 0.0f64..1.0,
    ) {
        let stream = Stream::new(DeviceSpec::a100());
        let mut comps = all_compressors();
        comps.push(Box::new(QcfCompressor::ratio()));
        comps.push(Box::new(QcfCompressor::speed()));
        for comp in &comps {
            let bytes = comp.compress(&data, ErrorBound::Abs(1e-3), &stream).unwrap();
            let cut = ((bytes.len() as f64) * cut_frac) as usize;
            // Must return an error or wrong-length data — never panic.
            let _ = comp.decompress(&bytes[..cut.min(bytes.len().saturating_sub(1))], &stream);
        }
    }

    #[test]
    fn random_circuit_energy_matches_statevector(
        seed in 0u64..500,
        n in 4usize..9,
    ) {
        let graph = Graph::erdos_renyi(n, 0.5, seed);
        if graph.m() == 0 {
            return Ok(());
        }
        let params = QaoaParams::new(vec![0.3 + (seed % 7) as f64 * 0.1], vec![0.2]);
        let circuit = qcircuit::qaoa_circuit(&graph, &params);
        let sv = StateVector::run(&circuit);
        let tn = Simulator::default().energy(&graph, &params).unwrap().energy;
        prop_assert!((sv.maxcut_energy(&graph) - tn).abs() < 1e-8);
    }

    #[test]
    fn compressed_energy_error_bounded_by_loose_envelope(
        seed in 0u64..100,
    ) {
        let graph = Graph::random_regular(8, 3, seed);
        let params = QaoaParams::fixed_angles_3reg_p1();
        let sim = Simulator::default();
        let exact = sim.energy(&graph, &params).unwrap().energy;
        let framework = QcfCompressor::speed();
        let mut hook = CompressingHook::new(&framework, ErrorBound::Abs(1e-5), 2);
        let e = sim.energy_with_hook(&graph, &params, &mut hook).unwrap().energy;
        // Loose envelope: 1e-5 pointwise noise cannot move a p=1 energy of a
        // dozen edges by a percent.
        prop_assert!((e - exact).abs() / exact < 0.01);
    }
}
