//! Property tests on the framework crate: bound contracts and stream
//! well-formedness under arbitrary inputs and stage configurations.

use codec_kit::varint::{read_ivarint, read_uvarint};
use compressors::{Compressor, ErrorBound};
use gpu_model::{DeviceSpec, Stream};
use proptest::prelude::*;
use qcf_core::{dict, Mode, QcfCompressor, StageToggles};
use rand::{Rng, SeedableRng};

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

/// Asserts the dictionary kernels agree with their scalar references on
/// `plane`: `quantize` in every field (and on `None`), `encode_speed` in
/// every byte. Returns the speed layout's mode byte when the dictionary
/// applies.
fn assert_kernels_match_reference(plane: &[f64], eb: f64) -> Option<u8> {
    let reference = dict::quantize_scalar(plane, eb);
    assert!(
        dict::quantize(plane, eb) == reference,
        "quantize diverged from the reference (n {}, eb {eb})",
        plane.len()
    );
    let reference = reference?;
    let (mut a, mut b) = (vec![0xAB], vec![0xAB]);
    dict::encode_speed(&reference, eb, &mut a);
    dict::encode_speed_scalar(&reference, eb, &mut b);
    assert_eq!(
        a,
        b,
        "encode_speed bytes (n {}, d {})",
        plane.len(),
        reference.table.len()
    );
    Some(speed_layout(&a[1..]))
}

/// The layout byte of a speed-flavour body: 0 plain, 1 hot/cold, 2 stride.
fn speed_layout(body: &[u8]) -> u8 {
    let mut pos = 0;
    read_uvarint(body, &mut pos).unwrap();
    pos += 8;
    for _ in 0..read_uvarint(body, &mut pos).unwrap() {
        read_ivarint(body, &mut pos).unwrap();
    }
    body[pos]
}

/// Values at `eb = 0.5` (so `v / 2eb == v`) around every edge of the
/// quantizer: NaN, ±inf, ±0, a subnormal, codes just below, at and half a
/// step under the 4.5e15 bail-out, and a rounding tie.
const EDGE_VALUES: [f64; 12] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    5e-324,
    4.5e15 - 1.0,
    -(4.5e15 - 1.0),
    4.5e15 - 0.5,
    4.5e15,
    -4.5e15,
    2.5,
];

/// A plane of `kind` (see the match arms), `len` values, drawn from
/// `seed`, with the bound to quantize it at.
fn reference_plane(kind: u8, seed: u64, len: usize) -> (Vec<f64>, f64) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let eb = 1e-4;
    let sym = |k: usize| k as f64 * 2e-4 * 7.0 - 0.3;
    let plane = match kind {
        // Stride-RLE wins: a short pattern tiled at a power-of-two period,
        // with rare noise.
        0 => {
            let period = 1usize << rng.gen_range(0..13u32);
            let pattern: Vec<usize> = (0..period).map(|_| rng.gen_range(0..40)).collect();
            (0..len)
                .map(|i| {
                    if rng.gen::<f64>() < 0.02 {
                        sym(rng.gen_range(0..40))
                    } else {
                        sym(pattern[i % period])
                    }
                })
                .collect()
        }
        // Hot/cold wins: eight hot symbols carry 90 % of the values, with
        // few repeats at any stride.
        1 => (0..len)
            .map(|_| {
                if rng.gen::<f64>() < 0.9 {
                    sym(rng.gen_range(0..8))
                } else {
                    sym(rng.gen_range(8..300))
                }
            })
            .collect(),
        // Plain wins: uniform over 2^k symbols.
        2 => {
            let k = rng.gen_range(1..=8u32);
            (0..len)
                .map(|_| sym(rng.gen_range(0..1usize << k)))
                .collect()
        }
        // Edge values mixed into a small alphabet.
        3 => {
            return (
                (0..len)
                    .map(|_| {
                        if rng.gen::<f64>() < 0.05 {
                            EDGE_VALUES[rng.gen_range(0..EDGE_VALUES.len())]
                        } else {
                            rng.gen_range(0..20) as f64 - 10.0
                        }
                    })
                    .collect(),
                0.5,
            )
        }
        // Around the dictionary cap: 4095-4097 distinct codes, shuffled,
        // then repeats.
        4 => {
            let d = rng.gen_range(4095..=4097usize);
            let mut plane: Vec<f64> = (0..d).map(|k| (k as f64 - 2000.0) * 2.0 * eb).collect();
            for i in (1..d).rev() {
                plane.swap(i, rng.gen_range(0..=i));
            }
            let repeats: Vec<f64> = (0..len).map(|_| plane[rng.gen_range(0..d)]).collect();
            plane.extend(repeats);
            plane
        }
        // One distinct value (any length, including none).
        5 => vec![sym(rng.gen_range(0..40)); len],
        // Stride-RLE wins with long match runs: blocks of one symbol, some
        // longer than a 256-value run chunk.
        6 => {
            let mut plane = Vec::with_capacity(len);
            while plane.len() < len {
                let run = rng.gen_range(1..1500usize).min(len - plane.len());
                plane.extend(std::iter::repeat_n(sym(rng.gen_range(0..6)), run));
            }
            plane
        }
        // Dense noise: usually past the cap.
        _ => (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    };
    (plane, eb)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn dictionary_kernels_match_scalar_references(
        kind in 0u8..8,
        seed in any::<u64>(),
        len in prop_oneof![3 => 0usize..40, 3 => 40usize..4200, 1 => 4200usize..20_000],
    ) {
        let (plane, eb) = reference_plane(kind, seed, len);
        assert_kernels_match_reference(&plane, eb);
    }
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
            dict::decode_ratio(&ratio, &mut pos, data.len(), &mut r1).unwrap();
            // A dirty caller buffer must be cleared, not appended to.
            let mut pos = 0;
            let mut r2 = vec![f64::NAN; 7];
            dict::decode_speed(&speed, &mut pos, data.len(), &mut r2).unwrap();
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

/// The cases the reference proptest must cover, each pinned: the edge
/// values one by one, exactly 4096 and 4097 distinct codes, one distinct
/// value, an empty plane, a length shorter than each stride, and a plane
/// on which each speed layout wins.
#[test]
fn dictionary_kernels_match_scalar_references_on_pinned_cases() {
    for &v in &EDGE_VALUES {
        let got = assert_kernels_match_reference(&[1.0, v, 3.0], 0.5);
        assert_eq!(got.is_some(), v.abs() < 4.5e15, "edge value {v}");
    }
    for d in [4096usize, 4097] {
        let eb = 1e-3;
        let plane: Vec<f64> = (0..d).map(|k| (k as f64 - 2000.0) * 2.0 * eb).collect();
        let got = assert_kernels_match_reference(&plane, eb);
        assert_eq!(got.is_some(), d <= dict::DICT_CAP, "{d} distinct codes");
    }
    for len in [0usize, 1, 5000] {
        assert!(assert_kernels_match_reference(&vec![0.37; len], 1e-4).is_some());
    }
    for len in [1usize, 2, 3, 7, 100, 1000, 4095] {
        for kind in 0..3 {
            let (plane, eb) = reference_plane(kind, len as u64, len);
            assert_kernels_match_reference(&plane, eb);
        }
    }
    // Runs straddling the 256-value chunk boundary.
    for run in [255usize, 256, 257, 511, 512, 513, 4096] {
        let plane: Vec<f64> = (0..3 * run).map(|i| (i / run % 2) as f64).collect();
        assert_eq!(
            assert_kernels_match_reference(&plane, 1e-3),
            Some(2),
            "runs of {run}"
        );
    }
    for (kind, layout) in [(2u8, 0u8), (1, 1), (0, 2), (6, 2)] {
        let (plane, eb) = reference_plane(kind, 7, 4096);
        assert_eq!(
            assert_kernels_match_reference(&plane, eb),
            Some(layout),
            "plane kind {kind} must pick layout {layout}"
        );
    }
}
