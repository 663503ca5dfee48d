//! Decode-path fuzzing of the framework's own streams: QCF-ratio and
//! QCF-speed through both `decompress` (sealed frames) and `decompress_raw`
//! (bare streams, which carry no checksum, so every corrupt byte reaches
//! the plane decoders).
//!
//! The contract: every case returns values or an error — no panic and no
//! abort from a reservation sized by a forged count. A mutated sealed
//! stream must fail its frame check or decode bit-exactly; a truncated one
//! must fail.

use codec_kit::frame::seal_in_place;
use codec_kit::varint::{write_ivarint, write_uvarint};
use compressors::traits::stream_header_into;
use compressors::{Compressor, ErrorBound};
use gpu_model::{DeviceSpec, Stream};
use proptest::prelude::*;
use qcf_core::{QcfCompressor, QCF_RATIO_ID, QCF_SPEED_ID};

fn stream() -> Stream {
    Stream::new(DeviceSpec::a100())
}

fn codecs() -> [QcfCompressor; 2] {
    [QcfCompressor::ratio(), QcfCompressor::speed()]
}

/// Interleaved-complex payloads spanning the framework's routes: small
/// alphabets (dictionary), dense noise (backend fallback), constants and
/// zeros (degenerate tables), odd lengths (no split).
fn value_payload() -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        3 => prop::collection::vec((0u8..9).prop_map(|k| k as f64 * 0.125 - 0.5), 0..800),
        2 => prop::collection::vec(-1.0f64..1.0, 0..600),
        1 => (any::<f64>(), 1usize..600).prop_map(|(v, n)| {
            let v = if v.is_finite() { v } else { 0.0 };
            vec![v; n]
        }),
        1 => (1usize..500).prop_map(|n| (0..n).map(|i| (i as f64 * 0.37).sin() * 1e-3).collect()),
    ]
}

/// Feeds `bytes` to every decode entry point of `codec`; returns what the
/// sealed-frame entry point decoded, if it succeeded.
fn decode_all(codec: &QcfCompressor, bytes: &[u8]) -> Option<Vec<f64>> {
    let s = stream();
    let _ = codec.decompress_raw(bytes, &s);
    let mut out = vec![f64::NAN; 3];
    let _ = codec.decompress_raw_into(bytes, &s, &mut out);
    codec.decompress(bytes, &s).ok()
}

/// A bare stream of `id` declaring `n` values, unsplit, whose one plane is
/// a speed-dictionary body (plane flag 16).
fn raw_speed_stream(n: usize, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    stream_header_into(QCF_SPEED_ID, n, &mut out);
    out.push(0); // no split
    out.extend_from_slice(&1.0f64.to_le_bytes());
    out.push(16);
    out.extend_from_slice(body);
    out
}

/// A speed-dictionary body: declared count, eb 1.0, `table`, plain mode,
/// empty payload, zero-padded to `len` bytes.
fn forged_speed_body(count: u64, table: &[i64], len: usize) -> Vec<u8> {
    let mut body = Vec::new();
    write_uvarint(&mut body, count);
    body.extend_from_slice(&1.0f64.to_le_bytes());
    write_uvarint(&mut body, table.len() as u64);
    for &q in table {
        write_ivarint(&mut body, q);
    }
    body.push(0); // plain mode
    write_uvarint(&mut body, 0); // payload length
    body.resize(len.max(body.len()), 0);
    body
}

#[test]
fn forged_counts_error_instead_of_aborting() {
    // 2^40 one-bit indices over a two-entry table: at 140,000 bytes the
    // dictionary's own input guard admits the count, so only the count
    // check (and the unpacker's) stand between it and an 8 TiB reservation.
    let wide = forged_speed_body(1 << 40, &[0, 1], 140_000);
    // A one-entry table is zero bits per index: any count "fits" the
    // payload, so the count must match the plane length the header bounded.
    let one = 1u64 << 16;
    let narrow = forged_speed_body(one + 64 * (1 << 23), &[5], 64);
    let speed = QcfCompressor::speed();
    for body in [&wide, &narrow] {
        for n in [16usize, 4096] {
            let mut raw = raw_speed_stream(n, body);
            let s = stream();
            assert!(speed.decompress_raw(&raw, &s).is_err());
            assert!(speed.decompress(&raw, &s).is_err());
            seal_in_place(&mut raw);
            assert!(speed.decompress(&raw, &s).is_err());
        }
    }
    // The same bodies under a ratio-mode plane flag must be refused too.
    let mut ratio = raw_speed_stream(4096, &wide);
    ratio[0] = QCF_RATIO_ID;
    let flag_at = ratio.len() - wide.len() - 1;
    ratio[flag_at] = 8;
    assert!(QcfCompressor::ratio()
        .decompress_raw(&ratio, &stream())
        .is_err());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    // Garbage, bare and behind a valid-looking prologue: the header, split
    // flag, bound and (optionally) the plane's value count are well formed,
    // so the bytes reach the dictionary tables and layouts and the backend
    // decoders.
    #[test]
    fn qcf_decoders_survive_arbitrary_bytes(
        garbage in prop::collection::vec(any::<u8>(), 0..400),
        n in 0usize..1200,
        split in 0u8..2,
        flags in prop_oneof![Just(0u8), Just(2), Just(4), Just(8), Just(16), Just(20), any::<u8>()],
        declare_count in any::<bool>(),
    ) {
        for codec in codecs() {
            decode_all(&codec, &garbage);
            let mut raw = Vec::new();
            stream_header_into(codec.id(), n, &mut raw);
            raw.push(split);
            raw.extend_from_slice(&1e-3f64.to_le_bytes());
            raw.push(flags);
            if declare_count {
                write_uvarint(&mut raw, if split == 1 { n / 2 } else { n } as u64);
            }
            raw.extend_from_slice(&garbage);
            decode_all(&codec, &raw);
            seal_in_place(&mut raw);
            decode_all(&codec, &raw);
        }
    }

    // Single-byte mutations of real streams. Sealed: the frame check
    // catches the mutation or the decode is bit-exact. Bare: anything but
    // a panic or an abort.
    #[test]
    fn mutated_qcf_streams_error_or_roundtrip(
        data in value_payload(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
        eb_exp in -7i32..-2,
    ) {
        let s = stream();
        for codec in codecs() {
            let mut raw = Vec::new();
            let bound = ErrorBound::Abs(10f64.powi(eb_exp));
            if codec.compress_raw_into(&data, bound, &s, &mut raw).is_err() {
                continue;
            }
            let baseline = codec.decompress_raw(&raw, &s).unwrap();
            let idx = ((raw.len() as f64) * pos_frac) as usize % raw.len();
            let mut bad_raw = raw.clone();
            bad_raw[idx] ^= flip;
            decode_all(&codec, &bad_raw);

            let mut sealed = raw.clone();
            seal_in_place(&mut sealed);
            let idx = ((sealed.len() as f64) * pos_frac) as usize % sealed.len();
            // Keep the frame flag: clearing it makes a bare-stream
            // lookalike, which the bare mutations above already cover.
            let mask = if idx == 0 { flip & 0x7f } else { flip };
            if mask == 0 {
                continue;
            }
            sealed[idx] ^= mask;
            if let Some(vals) = decode_all(&codec, &sealed) {
                prop_assert_eq!(
                    vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    baseline.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{} decoded a mutated sealed stream to different values",
                    codec.name()
                );
            }
        }
    }

    // Truncations: a sealed stream declares its exact length, so every
    // cut must fail; a bare one must not panic.
    #[test]
    fn truncated_qcf_streams_error(
        data in value_payload(),
        cut_frac in 0.0f64..0.999,
    ) {
        let s = stream();
        for codec in codecs() {
            let Ok(sealed) = codec.compress(&data, ErrorBound::Abs(1e-4), &s) else {
                continue;
            };
            let cut = ((sealed.len() as f64) * cut_frac) as usize;
            prop_assert!(
                decode_all(&codec, &sealed[..cut]).is_none(),
                "{} accepted a truncated sealed stream",
                codec.name()
            );
            let raw = codec.compress_raw(&data, ErrorBound::Abs(1e-4), &s).unwrap();
            let cut = ((raw.len() as f64) * cut_frac) as usize;
            let _ = codec.decompress_raw(&raw[..cut], &s);
        }
    }
}
