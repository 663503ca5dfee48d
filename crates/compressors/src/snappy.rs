//! Snappy — byte-oriented lossless compression (nvCOMP port of Google's).
//!
//! Faithful Snappy raw format: a varint uncompressed length, then tagged
//! elements — literals (tag `00`) and copies with 1-, 2- or 4-byte offsets
//! (tags `01`, `10`, `11`). The encoder uses the shared LZ77 parse and emits
//! tag-01 copies when the offset and length allow (Snappy's cheapest copy),
//! falling back to tag-10.

use crate::traits::{read_stream_header, stream_header, Compressor, CompressorKind, ErrorBound};
use codec_kit::lz77::{copy_match, find_matches, LzConfig, LzToken};
use codec_kit::varint::{read_uvarint, write_uvarint};
use codec_kit::CodecError;
use gpu_model::{KernelSpec, MemoryPattern, Stream};

/// Stream id of Snappy.
pub const SNAPPY_ID: u8 = 5;

/// The Snappy compressor.
#[derive(Debug, Clone, Default)]
pub struct Snappy;

fn emit_literal(out: &mut Vec<u8>, lit: &[u8]) {
    let mut rest = lit;
    while !rest.is_empty() {
        let take = rest.len().min(1 << 16); // keep extensions to ≤2 bytes
        let n = take - 1;
        if n < 60 {
            out.push((n as u8) << 2);
        } else if n < 256 {
            out.push(60 << 2);
            out.push(n as u8);
        } else {
            out.push(61 << 2);
            out.extend_from_slice(&(n as u16).to_le_bytes());
        }
        out.extend_from_slice(&rest[..take]);
        rest = &rest[take..];
    }
}

fn emit_copy(out: &mut Vec<u8>, mut len: usize, dist: usize) {
    debug_assert!((1..=65_535).contains(&dist));
    while len > 0 {
        // tag 01: len 4..=11, offset < 2048
        if (4..=11).contains(&len) && dist < 2048 {
            out.push(0b01 | (((len - 4) as u8) << 2) | (((dist >> 8) as u8) << 5));
            out.push((dist & 0xFF) as u8);
            return;
        }
        // tag 10: len 1..=64, 16-bit offset
        let take = len.min(64);
        if len - take != 0 && len - take < 4 {
            // Don't leave a tail shorter than a legal copy; rebalance.
            let take = len - 4;
            out.push(0b10 | (((take - 1) as u8) << 2));
            out.extend_from_slice(&(dist as u16).to_le_bytes());
            len -= take;
            continue;
        }
        out.push(0b10 | (((take - 1) as u8) << 2));
        out.extend_from_slice(&(dist as u16).to_le_bytes());
        len -= take;
    }
}

/// Encodes `data` in Snappy raw format.
pub(crate) fn snappy_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    write_uvarint(&mut out, data.len() as u64);
    let cfg = LzConfig {
        min_match: 4,
        max_match: 1 << 20,
        window: 65_535,
        max_chain: 32,
    };
    for token in find_matches(data, &cfg) {
        match token {
            LzToken::Literal { start, len } => emit_literal(&mut out, &data[start..start + len]),
            LzToken::Match { len, dist } => emit_copy(&mut out, len, dist),
        }
    }
    out
}

/// Decodes a Snappy raw stream.
pub(crate) fn snappy_decode(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut pos = 0usize;
    let expected = read_uvarint(data, &mut pos)? as usize;
    if expected > 1 << 34 {
        return Err(CodecError::Corrupt("absurd snappy length"));
    }
    // Pre-allocation guard: the densest legal stream is a chain of tag-10
    // copies (3 bytes → 64 out, ~22×), so a declared length beyond 64× the
    // input (plus a floor for tiny streams) is forged.
    if expected > (1 << 16) + data.len().saturating_mul(64) {
        return Err(CodecError::Corrupt(
            "declared length exceeds remaining input",
        ));
    }
    let mut out = Vec::with_capacity(expected);
    while out.len() < expected {
        let tag = *data.get(pos).ok_or(CodecError::UnexpectedEof)?;
        pos += 1;
        match tag & 0b11 {
            0b00 => {
                let mut n = (tag >> 2) as usize;
                if n >= 60 {
                    let extra_bytes = n - 59;
                    if extra_bytes > 4 || pos + extra_bytes > data.len() {
                        return Err(CodecError::UnexpectedEof);
                    }
                    let mut v = 0usize;
                    for (k, &b) in data[pos..pos + extra_bytes].iter().enumerate() {
                        v |= (b as usize) << (8 * k);
                    }
                    pos += extra_bytes;
                    n = v;
                }
                let len = n + 1;
                if pos + len > data.len() {
                    return Err(CodecError::UnexpectedEof);
                }
                out.extend_from_slice(&data[pos..pos + len]);
                pos += len;
            }
            0b01 => {
                let len = 4 + ((tag >> 2) & 0x7) as usize;
                let hi = (tag >> 5) as usize;
                let lo = *data.get(pos).ok_or(CodecError::UnexpectedEof)? as usize;
                pos += 1;
                copy_back(&mut out, len, (hi << 8) | lo, expected)?;
            }
            0b10 => {
                let len = 1 + (tag >> 2) as usize;
                if pos + 2 > data.len() {
                    return Err(CodecError::UnexpectedEof);
                }
                let dist = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
                pos += 2;
                copy_back(&mut out, len, dist, expected)?;
            }
            _ => {
                let len = 1 + (tag >> 2) as usize;
                if pos + 4 > data.len() {
                    return Err(CodecError::UnexpectedEof);
                }
                let dist = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
                pos += 4;
                copy_back(&mut out, len, dist, expected)?;
            }
        }
    }
    if out.len() != expected {
        return Err(CodecError::Corrupt("snappy output length mismatch"));
    }
    Ok(out)
}

fn copy_back(
    out: &mut Vec<u8>,
    len: usize,
    dist: usize,
    expected: usize,
) -> Result<(), CodecError> {
    if dist == 0 || dist > out.len() {
        return Err(CodecError::Corrupt("snappy offset out of window"));
    }
    if out.len() + len > expected {
        return Err(CodecError::Corrupt("snappy copy overruns output"));
    }
    copy_match(out, dist, len);
    Ok(())
}

impl Compressor for Snappy {
    fn name(&self) -> &'static str {
        "Snappy"
    }

    fn id(&self) -> u8 {
        SNAPPY_ID
    }

    fn kind(&self) -> CompressorKind {
        CompressorKind::Lossless
    }

    fn compress_raw(
        &self,
        data: &[f64],
        _bound: ErrorBound,
        stream: &Stream,
    ) -> Result<Vec<u8>, CodecError> {
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut out = stream_header(SNAPPY_ID, data.len());
        let payload = stream.launch(
            &KernelSpec::streaming(
                "snappy::match_and_emit",
                (bytes.len() * 3) as u64,
                bytes.len() as u64,
            )
            .with_pattern(MemoryPattern::Random),
            || snappy_encode(&bytes),
        );
        write_uvarint(&mut out, payload.len() as u64);
        out.extend_from_slice(&payload);
        Ok(out)
    }

    fn decompress_raw(&self, bytes: &[u8], stream: &Stream) -> Result<Vec<f64>, CodecError> {
        let (n, mut pos) = read_stream_header(bytes, SNAPPY_ID)?;
        let payload_len = read_uvarint(bytes, &mut pos)? as usize;
        if bytes.len() < pos + payload_len {
            return Err(CodecError::UnexpectedEof);
        }
        let raw = stream.launch(
            &KernelSpec::streaming("snappy::decode", payload_len as u64, (n * 8) as u64)
                .with_pattern(MemoryPattern::Strided),
            || snappy_decode(&bytes[pos..pos + payload_len]),
        )?;
        if raw.len() != n * 8 {
            return Err(CodecError::Corrupt("snappy payload length mismatch"));
        }
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_model::DeviceSpec;
    use rand::{Rng, SeedableRng};

    fn stream() -> Stream {
        Stream::new(DeviceSpec::a100())
    }

    fn roundtrip_bytes(data: &[u8]) -> usize {
        let enc = snappy_encode(data);
        assert_eq!(snappy_decode(&enc).unwrap(), data, "byte roundtrip failed");
        enc.len()
    }

    #[test]
    fn byte_layer_assorted() {
        roundtrip_bytes(b"");
        roundtrip_bytes(b"x");
        roundtrip_bytes(b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
        roundtrip_bytes(b"abcabcabcabcabcabcabcabcabc");
        // Snappy copies cap at 64 bytes, so a 100 KB run needs ~1600 copies.
        let long = vec![7u8; 100_000];
        assert!(roundtrip_bytes(&long) < 8_000);
    }

    #[test]
    fn long_literals_use_extension_bytes() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(8);
        let data: Vec<u8> = (0..70_000).map(|_| rng.gen()).collect();
        roundtrip_bytes(&data);
    }

    #[test]
    fn float_roundtrip_bit_exact() {
        let c = Snappy;
        let v: Vec<f64> = (0..4096).map(|i| ((i * 37) % 91) as f64 * 0.25).collect();
        let bytes = c.compress(&v, ErrorBound::Abs(0.0), &stream()).unwrap();
        let rec = c.decompress(&bytes, &stream()).unwrap();
        for (a, b) in v.iter().zip(&rec) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn random_floats_near_ratio_one() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(6);
        let v: Vec<f64> = (0..8192).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let c = Snappy;
        let bytes = c.compress(&v, ErrorBound::Abs(0.0), &stream()).unwrap();
        let cr = (v.len() * 8) as f64 / bytes.len() as f64;
        assert!(cr < 1.2 && cr > 0.8, "CR={cr:.2}");
    }

    #[test]
    fn corrupt_input_errors() {
        let c = Snappy;
        let v: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let bytes = c.compress(&v, ErrorBound::Abs(0.0), &stream()).unwrap();
        for cut in [0, 1, 4, bytes.len() - 2] {
            assert!(c.decompress(&bytes[..cut], &stream()).is_err());
        }
        // bogus copy offset
        assert!(snappy_decode(&[4, 0b10 | (3 << 2), 9, 0]).is_err());
    }
}
