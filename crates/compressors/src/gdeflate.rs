//! GDeflate — DEFLATE-class lossless compression (nvCOMP's GPU deflate).
//!
//! LZ77 parse + two dynamic canonical Huffman codes, using DEFLATE's
//! length/distance bucketing (base + extra bits). The container differs
//! from RFC1951 in one way, chosen for clarity: code-length tables are
//! serialized with `codec-kit`'s zero-run format instead of DEFLATE's
//! meta-Huffman — same information, simpler framing. nvCOMP's GDeflate also
//! deviates from RFC1951 framing (for GPU-parallel decode), so fidelity here
//! is to the compressor *class*: highest lossless ratio, lowest throughput.

use crate::traits::{read_stream_header, stream_header, Compressor, CompressorKind, ErrorBound};
use codec_kit::bitio::{BitReader, BitWriter};
use codec_kit::huffman::{HuffmanDecoder, HuffmanEncoder};
use codec_kit::lz77::{copy_match, find_matches, LzConfig, LzToken};
use codec_kit::varint::{read_uvarint, write_uvarint};
use codec_kit::CodecError;
use gpu_model::{KernelSpec, MemoryPattern, Stream};

/// Stream id of GDeflate.
pub const GDEFLATE_ID: u8 = 6;

/// End-of-block symbol in the literal/length alphabet.
const EOB: u32 = 256;
/// Literal/length alphabet size (DEFLATE: 0..=285).
const LITLEN_SYMS: usize = 286;
/// Distance alphabet size (DEFLATE: 0..=29).
const DIST_SYMS: usize = 30;

/// DEFLATE length code table: `(base, extra_bits)` for symbols 257..=284;
/// symbol 285 is the fixed length 258.
const LEN_TABLE: [(usize, u32); 28] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
];

/// DEFLATE distance code table: `(base, extra_bits)` for symbols 0..=29.
const DIST_TABLE: [(usize, u32); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

fn length_symbol(len: usize) -> (u32, u32, u64) {
    debug_assert!((3..=258).contains(&len));
    if len == 258 {
        return (285, 0, 0);
    }
    for (i, &(base, extra)) in LEN_TABLE.iter().enumerate().rev() {
        if len >= base {
            return (257 + i as u32, extra, (len - base) as u64);
        }
    }
    unreachable!("length below 3");
}

fn dist_symbol(dist: usize) -> (u32, u32, u64) {
    debug_assert!((1..=32768).contains(&dist));
    for (i, &(base, extra)) in DIST_TABLE.iter().enumerate().rev() {
        if dist >= base {
            return (i as u32, extra, (dist - base) as u64);
        }
    }
    unreachable!("distance below 1");
}

/// The GDeflate compressor.
#[derive(Debug, Clone, Default)]
pub struct GDeflate;

/// Byte-level DEFLATE-style compression (LZ77 + two dynamic canonical
/// Huffman codes). Public because the framework's ratio-mode dictionary
/// stage entropy-codes its index stream with it. The parse (32 KiB window,
/// 64-deep chains, matches of 4–258 bytes) is [`find_matches`], held to
/// the plain matcher's tokens, so the output bytes are fixed by that parse.
pub fn deflate_bytes(bytes: &[u8]) -> Vec<u8> {
    let cfg = LzConfig {
        min_match: 4,
        max_match: 258,
        window: 32_768,
        max_chain: 64,
    };
    let tokens = find_matches(bytes, &cfg);

    let mut litlen_hist = vec![0u64; LITLEN_SYMS];
    let mut dist_hist = vec![0u64; DIST_SYMS];
    for t in &tokens {
        match *t {
            LzToken::Literal { start, len } => {
                for &b in &bytes[start..start + len] {
                    litlen_hist[b as usize] += 1;
                }
            }
            LzToken::Match { len, dist } => {
                litlen_hist[length_symbol(len).0 as usize] += 1;
                dist_hist[dist_symbol(dist).0 as usize] += 1;
            }
        }
    }
    litlen_hist[EOB as usize] += 1;
    if dist_hist.iter().all(|&f| f == 0) {
        dist_hist[0] = 1;
    }
    let litlen_enc = HuffmanEncoder::from_freqs(&litlen_hist);
    let dist_enc = HuffmanEncoder::from_freqs(&dist_hist);

    let mut out = Vec::with_capacity(bytes.len() / 2 + 64);
    litlen_enc.write_table(&mut out);
    dist_enc.write_table(&mut out);
    let mut w = BitWriter::with_capacity(bytes.len() / 2 + 64);
    for t in &tokens {
        match *t {
            LzToken::Literal { start, len } => {
                for &b in &bytes[start..start + len] {
                    litlen_enc.encode_symbol(&mut w, b as u32);
                }
            }
            LzToken::Match { len, dist } => {
                let (sym, extra, extra_val) = length_symbol(len);
                litlen_enc.encode_symbol(&mut w, sym);
                w.write_bits(extra_val, extra);
                let (dsym, dextra, dval) = dist_symbol(dist);
                dist_enc.encode_symbol(&mut w, dsym);
                w.write_bits(dval, dextra);
            }
        }
    }
    litlen_enc.encode_symbol(&mut w, EOB);
    let payload = w.finish();
    write_uvarint(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    out
}

/// Inverse of [`deflate_bytes`]: decodes exactly `expected` bytes.
pub fn inflate_bytes(data: &[u8], pos: &mut usize, expected: usize) -> Result<Vec<u8>, CodecError> {
    let litlen_dec = HuffmanDecoder::read_table(data, pos)?;
    let dist_dec = HuffmanDecoder::read_table(data, pos)?;
    let payload_len = read_uvarint(data, pos)? as usize;
    if data.len() < *pos + payload_len {
        return Err(CodecError::UnexpectedEof);
    }
    let payload = &data[*pos..*pos + payload_len];
    *pos += payload_len;
    let mut r = BitReader::new(payload);
    // Cap the up-front reservation: `expected` is caller-declared and may be
    // forged far beyond what this payload can produce (a match emits ≤ 258
    // bytes per ~2 payload bits). Honest outputs still land via growth.
    let mut out: Vec<u8> =
        Vec::with_capacity(expected.min(payload.len().saturating_mul(1032).max(1 << 16)));
    loop {
        let sym = litlen_dec.decode_symbol(&mut r)?;
        if sym < 256 {
            if out.len() >= expected {
                return Err(CodecError::Corrupt("literal overruns output"));
            }
            out.push(sym as u8);
        } else if sym == EOB {
            break;
        } else {
            let idx = (sym - 257) as usize;
            let len = if sym == 285 {
                258
            } else {
                let (base, extra) = *LEN_TABLE
                    .get(idx)
                    .ok_or(CodecError::Corrupt("bad length symbol"))?;
                base + r.read_bits(extra)? as usize
            };
            let dsym = dist_dec.decode_symbol(&mut r)? as usize;
            let (dbase, dextra) = *DIST_TABLE
                .get(dsym)
                .ok_or(CodecError::Corrupt("bad distance symbol"))?;
            let dist = dbase + r.read_bits(dextra)? as usize;
            if dist == 0 || dist > out.len() {
                return Err(CodecError::Corrupt("deflate offset out of window"));
            }
            if out.len() + len > expected {
                return Err(CodecError::Corrupt("deflate match overruns output"));
            }
            copy_match(&mut out, dist, len);
        }
    }
    if out.len() != expected {
        return Err(CodecError::Corrupt("deflate output length mismatch"));
    }
    Ok(out)
}

impl Compressor for GDeflate {
    fn name(&self) -> &'static str {
        "GDeflate"
    }

    fn id(&self) -> u8 {
        GDEFLATE_ID
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
        let mut out = stream_header(GDEFLATE_ID, data.len());

        // Charge the three kernel stages of a GPU deflate, then run the
        // byte codec (the host computation happens once, in the last one).
        stream.launch(
            &KernelSpec::streaming(
                "gdeflate::lz_parse",
                (bytes.len() * 3) as u64,
                bytes.len() as u64,
            )
            .with_pattern(MemoryPattern::Random),
            || (),
        );
        stream.launch(
            &KernelSpec::streaming("gdeflate::histogram_build", bytes.len() as u64, 4096)
                .with_pattern(MemoryPattern::Random)
                .with_serial_fraction(0.01),
            || (),
        );
        let payload = stream.launch(
            &KernelSpec::streaming(
                "gdeflate::huffman_emit",
                bytes.len() as u64,
                bytes.len() as u64 / 2,
            )
            .with_pattern(MemoryPattern::BitSerial),
            || deflate_bytes(&bytes),
        );
        out.extend_from_slice(&payload);
        Ok(out)
    }

    fn decompress_raw(&self, bytes: &[u8], stream: &Stream) -> Result<Vec<f64>, CodecError> {
        let (n, mut pos) = read_stream_header(bytes, GDEFLATE_ID)?;
        let expected = n * 8;
        let raw = stream.launch(
            &KernelSpec::streaming(
                "gdeflate::decode",
                (bytes.len() - pos) as u64,
                expected as u64,
            )
            .with_pattern(MemoryPattern::BitSerial),
            || inflate_bytes(bytes, &mut pos, expected),
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
    use rand::{Rng, SeedableRng};

    fn stream() -> Stream {
        Stream::new(DeviceSpec::a100())
    }

    fn roundtrip(data: &[f64]) -> usize {
        let c = GDeflate;
        let bytes = c.compress(data, ErrorBound::Abs(0.0), &stream()).unwrap();
        let rec = c.decompress(&bytes, &stream()).unwrap();
        assert_eq!(rec.len(), data.len());
        for (a, b) in data.iter().zip(&rec) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        bytes.len()
    }

    #[test]
    fn symbol_tables_cover_ranges() {
        for len in 3..=258usize {
            let (sym, extra, val) = length_symbol(len);
            assert!((257..=285).contains(&sym));
            let recovered = if sym == 285 {
                258
            } else {
                LEN_TABLE[(sym - 257) as usize].0 + val as usize
            };
            assert_eq!(recovered, len, "length {len}");
            assert!(val < (1 << extra.max(1)));
        }
        for dist in [1usize, 2, 4, 5, 100, 1024, 32_768] {
            let (sym, _, val) = dist_symbol(dist);
            assert_eq!(
                DIST_TABLE[sym as usize].0 + val as usize,
                dist,
                "dist {dist}"
            );
        }
    }

    #[test]
    fn assorted_roundtrips() {
        roundtrip(&[]);
        roundtrip(&[42.0]);
        roundtrip(&vec![1.25; 5000]);
        let v: Vec<f64> = (0..3000).map(|i| ((i * 13) % 17) as f64).collect();
        roundtrip(&v);
    }

    #[test]
    fn beats_lz4_on_match_poor_skewed_data() {
        // Random doubles in [0.5, 1): almost no byte matches, but the sign/
        // exponent byte is constant and mantissa-top bytes are skewed —
        // entropy coding wins where pure LZ cannot.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let v: Vec<f64> = (0..16_384).map(|_| rng.gen_range(0.5..1.0)).collect();
        let g = roundtrip(&v);
        let l = {
            let c = crate::lz4::Lz4;
            c.compress(&v, ErrorBound::Abs(0.0), &stream())
                .unwrap()
                .len()
        };
        assert!(g < l, "gdeflate {g} should beat lz4 {l} on match-poor data");
    }

    #[test]
    fn random_floats_ratio_near_one() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(10);
        let v: Vec<f64> = (0..8192).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let n = roundtrip(&v);
        let cr = (v.len() * 8) as f64 / n as f64;
        assert!(cr < 1.35, "random doubles CR={cr:.2}");
    }

    #[test]
    fn slowest_lossless_on_gpu_model() {
        let v: Vec<f64> = (0..(1 << 16)).map(|i| (i % 256) as f64).collect();
        let g = stream();
        GDeflate.compress(&v, ErrorBound::Abs(0.0), &g).unwrap();
        let l = stream();
        crate::lz4::Lz4
            .compress(&v, ErrorBound::Abs(0.0), &l)
            .unwrap();
        assert!(
            g.elapsed_s() > l.elapsed_s(),
            "deflate must cost more than lz4"
        );
    }

    #[test]
    fn corrupt_stream_errors() {
        let v: Vec<f64> = (0..256).map(|i| i as f64).collect();
        let c = GDeflate;
        let bytes = c.compress(&v, ErrorBound::Abs(0.0), &stream()).unwrap();
        for cut in [0, 1, 2, 10, bytes.len() / 2] {
            assert!(c.decompress(&bytes[..cut], &stream()).is_err());
        }
    }
}
