//! Property tests on the framework crate: bound contracts and stream
//! well-formedness under arbitrary inputs and stage configurations.

use compressors::{Compressor, ErrorBound};
use gpu_model::{DeviceSpec, Stream};
use proptest::prelude::*;
use qcf_core::{dict, Mode, QcfCompressor, StageToggles};

fn stream() -> Stream {
    Stream::new(DeviceSpec::a100())
}

/// Buffers spanning the regimes the pipeline branches on: tiny alphabets,
/// dense noise, zeros, mixed magnitudes, odd lengths.
fn plane_strategy() -> impl Strategy<Value = Vec<f64>> {
    let val = prop_oneof![
        3 => (0u8..12).prop_map(|k| k as f64 * 0.07 - 0.4), // small alphabet
        2 => Just(0.0f64),
        2 => -1.0f64..1.0,                                  // dense noise
        1 => -1e-9f64..1e-9,
        1 => -1e5f64..1e5,
    ];
    prop::collection::vec(val, 0..600)
}

fn toggle_strategy() -> impl Strategy<Value = StageToggles> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(deinterleave, zero_collapse, dictionary, dedup, lossless_tail)| StageToggles {
                deinterleave,
                zero_collapse,
                dictionary,
                dedup,
                lossless_tail,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn any_stage_combination_honours_the_bound(
        data in plane_strategy(),
        toggles in toggle_strategy(),
        ratio_mode in any::<bool>(),
        eb_exp in -7i32..-1,
    ) {
        let eb = 10f64.powi(eb_exp);
        let mode = if ratio_mode { Mode::Ratio } else { Mode::Speed };
        let comp = QcfCompressor::with_stages(mode, toggles);
        let s = stream();
        let bytes = comp.compress(&data, ErrorBound::Abs(eb), &s).unwrap();
        let rec = comp.decompress(&bytes, &s).unwrap();
        prop_assert_eq!(rec.len(), data.len());
        let max_abs = data.iter().chain(&rec).fold(0.0f64, |m, &v| m.max(v.abs()));
        let tol = eb * (1.0 + 1e-9) + max_abs * 16.0 * f64::EPSILON;
        for (i, (a, b)) in data.iter().zip(&rec).enumerate() {
            prop_assert!(
                (a - b).abs() <= tol,
                "mode {:?} toggles {:?} at {}: |{} - {}| > {}", mode, toggles, i, a, b, eb
            );
        }
    }

    #[test]
    fn dictionary_quantization_is_idempotent(
        data in plane_strategy(),
        eb_exp in -6i32..-1,
    ) {
        // Quantizing an already-quantized plane must reproduce it exactly:
        // every reconstructed value is q·2eb, which re-quantizes to q.
        let eb = 10f64.powi(eb_exp);
        if let Some(q1) = dict::quantize(&data, eb) {
            let twoeb = 2.0 * eb;
            let rec: Vec<f64> = q1.indices.iter().map(|&i| q1.table[i as usize] as f64 * twoeb).collect();
            let q2 = dict::quantize(&rec, eb).expect("requantize");
            let rec2: Vec<f64> =
                q2.indices.iter().map(|&i| q2.table[i as usize] as f64 * twoeb).collect();
            for (a, b) in rec.iter().zip(&rec2) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn speed_and_ratio_flavours_agree_on_values(
        data in plane_strategy(),
    ) {
        // Both flavours reconstruct from the same quantization, so their
        // outputs must agree exactly (they differ only in index coding).
        let eb = 1e-4;
        if let Some(q) = dict::quantize(&data, eb) {
            if data.is_empty() {
                return Ok(());
            }
            let mut ratio = Vec::new();
            dict::encode_ratio(&q, eb, &mut ratio);
            let mut speed = Vec::new();
            dict::encode_speed(&q, eb, &mut speed);
            let mut pos = 0;
            let mut r1 = Vec::new();
            dict::decode_ratio(&ratio, &mut pos, &mut r1).unwrap();
            // A dirty caller buffer must be cleared, not appended to.
            let mut pos = 0;
            let mut r2 = vec![f64::NAN; 7];
            dict::decode_speed(&speed, &mut pos, &mut r2).unwrap();
            prop_assert_eq!(r1.len(), r2.len());
            for (a, b) in r1.iter().zip(&r2) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn into_variants_bit_identical_for_any_stage_combination(
        data in plane_strategy(),
        toggles in toggle_strategy(),
        ratio_mode in any::<bool>(),
        garbage in prop::collection::vec(any::<u8>(), 0..256),
        dirt in prop::collection::vec(-1e3f64..1e3, 0..128),
    ) {
        // The pool-backed compress_into/decompress_into must reproduce
        // the allocating entry points bit for bit, even into dirty buffers,
        // for every stage combination in both flavours.
        let mode = if ratio_mode { Mode::Ratio } else { Mode::Speed };
        let comp = QcfCompressor::with_stages(mode, toggles);
        let s = stream();
        let fresh = comp.compress(&data, ErrorBound::Abs(1e-4), &s).unwrap();
        let mut reused = garbage;
        comp.compress_into(&data, ErrorBound::Abs(1e-4), &s, &mut reused).unwrap();
        prop_assert_eq!(&fresh, &reused, "compress_into diverges ({:?}/{:?})", mode, toggles);

        let dec_fresh = comp.decompress(&fresh, &s).unwrap();
        let mut dec_reused = dirt;
        comp.decompress_into(&fresh, &s, &mut dec_reused).unwrap();
        prop_assert_eq!(
            dec_fresh.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            dec_reused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "decompress_into diverges ({:?}/{:?})", mode, toggles
        );
    }

    #[test]
    fn framework_streams_never_panic_on_mutation(
        data in prop::collection::vec(-1.0f64..1.0, 1..200),
        flips in prop::collection::vec((0usize..4096, any::<u8>()), 1..8),
    ) {
        let comp = QcfCompressor::ratio();
        let s = stream();
        let mut bytes = comp.compress(&data, ErrorBound::Abs(1e-3), &s).unwrap();
        for &(pos, val) in &flips {
            let len = bytes.len();
            bytes[pos % len] ^= val;
        }
        let _ = comp.decompress(&bytes, &s); // error or garbage, never panic
    }
}
