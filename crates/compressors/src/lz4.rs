//! LZ4 — byte-oriented lossless compression (nvCOMP's fastest general codec).
//!
//! Faithful LZ4 *block format*: sequences of a token byte (literal-length
//! nibble + match-length nibble, 15 = continued in 255-run extension bytes),
//! literal bytes, and a 2-byte little-endian match offset. The paper's
//! takeaway for this class of compressor — ratio ≈ 1 on floating-point
//! tensors — is a property of byte-granular matching that this
//! implementation reproduces exactly.

use crate::traits::{read_stream_header, stream_header, Compressor, CompressorKind, ErrorBound};
use codec_kit::lz77::{copy_match, find_matches, LzConfig, LzToken};
use codec_kit::varint::{read_uvarint, write_uvarint};
use codec_kit::CodecError;
use gpu_model::{KernelSpec, MemoryPattern, Stream};

/// Stream id of LZ4.
pub const LZ4_ID: u8 = 4;

/// The LZ4 compressor.
#[derive(Debug, Clone, Default)]
pub struct Lz4;

/// Encodes an LZ4 block from an LZ77 parse. Public because the framework's
/// optional lossless tail pass reuses it on already-compressed bytes.
pub fn lz4_encode_block(data: &[u8], out: &mut Vec<u8>) {
    let cfg = LzConfig {
        min_match: 4,
        max_match: 1 << 20,
        window: 65_535,
        max_chain: 32,
    };
    let tokens = find_matches(data, &cfg);

    // LZ4 sequences alternate (literals, match); coalesce the parse into
    // that shape, with a possibly match-less final sequence.
    let mut i = 0usize;
    while i < tokens.len() {
        let (lit_start, lit_len) = match tokens[i] {
            LzToken::Literal { start, len } => {
                i += 1;
                (start, len)
            }
            LzToken::Match { .. } => (0, 0),
        };
        let m = if i < tokens.len() {
            match tokens[i] {
                LzToken::Match { len, dist } => {
                    i += 1;
                    Some((len, dist))
                }
                LzToken::Literal { .. } => None, // cannot happen: parser coalesces
            }
        } else {
            None
        };
        write_sequence(out, &data[lit_start..lit_start + lit_len], m);
    }
    if tokens.is_empty() {
        write_sequence(out, &[], None);
    }
}

fn write_sequence(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    let lit_nib = literals.len().min(15) as u8;
    let (match_nib, rest) = match m {
        Some((len, _)) => {
            debug_assert!(len >= 4);
            let ml = len - 4;
            (ml.min(15) as u8, Some(ml))
        }
        None => (0, None),
    };
    out.push((lit_nib << 4) | match_nib);
    if literals.len() >= 15 {
        write_ext_len(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if let Some((_, dist)) = m {
        debug_assert!((1..=65_535).contains(&dist));
        out.extend_from_slice(&(dist as u16).to_le_bytes());
        if let Some(ml) = rest {
            if ml >= 15 {
                write_ext_len(out, ml - 15);
            }
        }
    }
}

fn write_ext_len(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

fn read_ext_len(data: &[u8], pos: &mut usize) -> Result<usize, CodecError> {
    let mut total = 0usize;
    loop {
        let b = *data.get(*pos).ok_or(CodecError::UnexpectedEof)?;
        *pos += 1;
        total += b as usize;
        if b != 255 {
            return Ok(total);
        }
        if total > 1 << 30 {
            return Err(CodecError::Corrupt("absurd LZ4 length"));
        }
    }
}

/// Decodes an LZ4 block into exactly `expected_len` bytes.
pub fn lz4_decode_block(data: &[u8], expected_len: usize) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(expected_len);
    let mut pos = 0usize;
    while out.len() < expected_len {
        let token = *data.get(pos).ok_or(CodecError::UnexpectedEof)?;
        pos += 1;
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len += read_ext_len(data, &mut pos)?;
        }
        if pos + lit_len > data.len() {
            return Err(CodecError::UnexpectedEof);
        }
        out.extend_from_slice(&data[pos..pos + lit_len]);
        pos += lit_len;
        if out.len() >= expected_len {
            break; // final literal-only sequence
        }
        if pos + 2 > data.len() {
            return Err(CodecError::UnexpectedEof);
        }
        let dist = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
        pos += 2;
        if dist == 0 || dist > out.len() {
            return Err(CodecError::Corrupt("LZ4 offset out of window"));
        }
        let mut match_len = (token & 0x0F) as usize;
        if match_len == 15 {
            match_len += read_ext_len(data, &mut pos)?;
        }
        match_len += 4;
        if out.len() + match_len > expected_len {
            return Err(CodecError::Corrupt("LZ4 match overruns output"));
        }
        copy_match(&mut out, dist, match_len);
    }
    if out.len() != expected_len {
        return Err(CodecError::Corrupt("LZ4 output length mismatch"));
    }
    Ok(out)
}

impl Compressor for Lz4 {
    fn name(&self) -> &'static str {
        "LZ4"
    }

    fn id(&self) -> u8 {
        LZ4_ID
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
        let mut out = stream_header(LZ4_ID, data.len());
        let payload = stream.launch(
            // Hash-table probing is data-dependent gather: Random pattern,
            // ~3 touched bytes per input byte.
            &KernelSpec::streaming(
                "lz4::match_and_emit",
                (bytes.len() * 3) as u64,
                bytes.len() as u64,
            )
            .with_pattern(MemoryPattern::Random),
            || {
                let mut payload = Vec::with_capacity(bytes.len() / 2 + 64);
                lz4_encode_block(&bytes, &mut payload);
                payload
            },
        );
        write_uvarint(&mut out, payload.len() as u64);
        out.extend_from_slice(&payload);
        Ok(out)
    }

    fn decompress_raw(&self, bytes: &[u8], stream: &Stream) -> Result<Vec<f64>, CodecError> {
        let (n, mut pos) = read_stream_header(bytes, LZ4_ID)?;
        let payload_len = read_uvarint(bytes, &mut pos)? as usize;
        if bytes.len() < pos + payload_len {
            return Err(CodecError::UnexpectedEof);
        }
        let raw = stream.launch(
            &KernelSpec::streaming("lz4::decode", payload_len as u64, (n * 8) as u64)
                .with_pattern(MemoryPattern::Strided),
            || lz4_decode_block(&bytes[pos..pos + payload_len], n * 8),
        )?;
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

    fn stream() -> Stream {
        Stream::new(DeviceSpec::a100())
    }

    fn roundtrip(data: &[f64]) -> usize {
        let c = Lz4;
        let bytes = c.compress(data, ErrorBound::Abs(0.0), &stream()).unwrap();
        let rec = c.decompress(&bytes, &stream()).unwrap();
        assert_eq!(rec.len(), data.len());
        for (a, b) in data.iter().zip(&rec) {
            assert_eq!(a.to_bits(), b.to_bits(), "lossless must be bit-exact");
        }
        bytes.len()
    }

    #[test]
    fn bit_exact_on_assorted_data() {
        roundtrip(&[]);
        roundtrip(&[1.5]);
        roundtrip(&[0.0; 1000]);
        let v: Vec<f64> = (0..997).map(|i| (i % 10) as f64 * 0.5).collect();
        roundtrip(&v);
    }

    #[test]
    fn repetitive_data_compresses() {
        let v = vec![std::f64::consts::PI; 10_000];
        let n = roundtrip(&v);
        assert!(n < 2000, "constant doubles took {n} bytes");
    }

    #[test]
    fn random_floats_do_not_compress() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let v: Vec<f64> = (0..8192).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let n = roundtrip(&v);
        let cr = (v.len() * 8) as f64 / n as f64;
        assert!(cr < 1.2, "random doubles should not compress, CR={cr:.2}");
    }

    #[test]
    fn nan_and_inf_preserved() {
        roundtrip(&[
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            f64::MIN_POSITIVE,
        ]);
    }

    #[test]
    fn negative_zero_bit_preserved() {
        let c = Lz4;
        let bytes = c
            .compress(&[-0.0], ErrorBound::Abs(0.0), &stream())
            .unwrap();
        let rec = c.decompress(&bytes, &stream()).unwrap();
        assert_eq!(rec[0].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn corrupt_stream_errors() {
        let c = Lz4;
        let v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let bytes = c.compress(&v, ErrorBound::Abs(0.0), &stream()).unwrap();
        for cut in [0, 1, 3, bytes.len() / 2] {
            assert!(c.decompress(&bytes[..cut], &stream()).is_err());
        }
        let mut bad = bytes.clone();
        if let Some(b) = bad.last_mut() {
            *b ^= 0xFF;
        }
        let _ = c.decompress(&bad, &stream()); // must not panic
    }

    #[test]
    fn raw_block_layer_roundtrips_bytes() {
        let data = b"the quick brown fox jumps over the lazy dog; the quick brown fox";
        let mut enc = Vec::new();
        lz4_encode_block(data, &mut enc);
        assert_eq!(lz4_decode_block(&enc, data.len()).unwrap(), data);
    }
}
