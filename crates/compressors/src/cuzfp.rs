//! cuZFP — transform-based fixed-accuracy compression (1D ZFP).
//!
//! ZFP operates on blocks of 4 values (1D): align the block to a common
//! exponent (block-floating-point into 62-bit ints), apply the reversible
//! integer lifting transform, map to negabinary, and emit bit planes from
//! most significant down, stopping at the precision the error tolerance
//! requires. This implementation is faithful to that structure with one
//! simplification, documented here: bit planes are emitted raw (no
//! group-testing flags), costing some ratio on small-magnitude planes but
//! preserving the error-bound contract and the performance profile.

use crate::scratch;
use crate::traits::{
    read_stream_header, stream_header_into, value_range, Compressor, CompressorKind, ErrorBound,
};
use codec_kit::bitio::{BitReader, BitWriter};
use codec_kit::varint::{read_uvarint, write_uvarint};
use codec_kit::CodecError;
use gpu_model::{KernelSpec, MemoryPattern, Stream};

/// Stream id of cuZFP.
pub const CUZFP_ID: u8 = 3;

/// Values per 1D block.
const BLOCK: usize = 4;
/// Integer precision after block-floating-point conversion.
const INT_PREC: u32 = 62;
/// Exponent bias for the 12-bit stored emax.
const EMAX_BIAS: i32 = 1200;
/// Guard bits covering truncation slack (+1 plane), the inverse-transform
/// error gain (≤ 2 per Haar level, 2 levels) and block-floating-point
/// rounding. Truncating to `maxprec = emax − e_tol + GUARD_BITS` planes
/// keeps the reconstruction within `2^e_tol ≤ eb`. (Like real zfp, bounds
/// tighter than ~2^(emax−53) are below what 62-bit ints can honour.)
const GUARD_BITS: i32 = 9;

/// The cuZFP compressor (fixed-accuracy mode).
#[derive(Debug, Clone, Default)]
pub struct CuZfp;

impl Compressor for CuZfp {
    fn name(&self) -> &'static str {
        "cuZFP"
    }

    fn id(&self) -> u8 {
        CUZFP_ID
    }

    fn kind(&self) -> CompressorKind {
        CompressorKind::ErrorBounded
    }

    fn compress_raw(
        &self,
        data: &[f64],
        bound: ErrorBound,
        stream: &Stream,
    ) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        self.compress_raw_into(data, bound, stream, &mut out)?;
        Ok(out)
    }

    fn compress_raw_into(
        &self,
        data: &[f64],
        bound: ErrorBound,
        stream: &Stream,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let (min, max) = value_range(data);
        let eb = bound.to_abs(max - min);
        if eb.is_nan() || eb <= 0.0 {
            return Err(CodecError::Unsupported("error bound must be positive"));
        }
        let n = data.len();
        let e_tol = eb.log2().floor() as i32;

        stream_header_into(CUZFP_ID, n, out);
        out.extend_from_slice(&eb.to_le_bytes());

        let payload = stream.launch(
            &KernelSpec::streaming("zfp::block_encode", (n * 8) as u64, (n * 3) as u64)
                .with_pattern(MemoryPattern::Strided)
                .with_flops((n * 12) as u64),
            || {
                let mut w = BitWriter::from_vec(scratch::u8s().take_spare(n * 3));
                for chunk in data.chunks(BLOCK) {
                    let mut block = [0.0f64; BLOCK];
                    block[..chunk.len()].copy_from_slice(chunk);
                    encode_block(&block, e_tol, &mut w);
                }
                w.finish()
            },
        );
        write_uvarint(out, payload.len() as u64);
        out.extend_from_slice(&payload);
        scratch::u8s().put(payload);
        Ok(())
    }

    fn decompress_raw(&self, bytes: &[u8], stream: &Stream) -> Result<Vec<f64>, CodecError> {
        let mut out = Vec::new();
        self.decompress_raw_into(bytes, stream, &mut out)?;
        Ok(out)
    }

    fn decompress_raw_into(
        &self,
        bytes: &[u8],
        stream: &Stream,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        let (n, mut pos) = read_stream_header(bytes, CUZFP_ID)?;
        if bytes.len() < pos + 8 {
            return Err(CodecError::UnexpectedEof);
        }
        let eb = f64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
        pos += 8;
        if eb.is_nan() || eb <= 0.0 || !eb.is_finite() {
            return Err(CodecError::Corrupt("bad error bound"));
        }
        let payload_len = read_uvarint(bytes, &mut pos)? as usize;
        if bytes.len() < pos + payload_len {
            return Err(CodecError::UnexpectedEof);
        }
        let payload = &bytes[pos..pos + payload_len];

        stream.launch(
            &KernelSpec::streaming("zfp::block_decode", payload_len as u64, (n * 8) as u64)
                .with_pattern(MemoryPattern::Strided)
                .with_flops((n * 12) as u64),
            || {
                let mut r = BitReader::new(payload);
                out.clear();
                out.reserve(n + BLOCK);
                let blocks = n.div_ceil(BLOCK);
                for _ in 0..blocks {
                    let block = decode_block(&mut r)?;
                    out.extend_from_slice(&block);
                }
                out.truncate(n);
                Ok(())
            },
        )
    }
}

fn encode_block(block: &[f64; BLOCK], e_tol: i32, w: &mut BitWriter) {
    let maxabs = block.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    if maxabs == 0.0 {
        w.write_bit(true); // zero block
        return;
    }
    w.write_bit(false);

    // Block-floating-point: common exponent, 62-bit signed ints.
    let emax = exponent_of(maxabs);
    let k = INT_PREC as i32 - 4 - emax;
    let mut ints = [0i64; BLOCK];
    for (i, &v) in block.iter().enumerate() {
        ints[i] = mul_pow2(v, k).round() as i64;
    }
    forward_lift(&mut ints);

    // Negabinary: order-preserving unsigned mapping friendly to truncation.
    let neg: [u64; BLOCK] = ints.map(int_to_negabinary);

    // Precision needed for the tolerance (see GUARD_BITS analysis).
    let maxprec = (emax - e_tol + GUARD_BITS).clamp(0, INT_PREC as i32) as u32;
    w.write_bits((emax + EMAX_BIAS) as u64, 12);
    w.write_bits(maxprec as u64, 6);

    // Bit planes, MSB first: plane p holds bit (INT_PREC-1-p) of each value.
    for p in 0..maxprec {
        let bit = INT_PREC - 1 - p;
        let mut plane = 0u64;
        for (i, &v) in neg.iter().enumerate() {
            plane |= ((v >> bit) & 1) << i;
        }
        w.write_bits(plane, BLOCK as u32);
    }
}

fn decode_block(r: &mut BitReader<'_>) -> Result<[f64; BLOCK], CodecError> {
    if r.read_bit()? {
        return Ok([0.0; BLOCK]);
    }
    let emax = r.read_bits(12)? as i32 - EMAX_BIAS;
    if !(-1100..=1100).contains(&emax) {
        return Err(CodecError::Corrupt("zfp emax out of range"));
    }
    let maxprec = r.read_bits(6)? as u32;
    if maxprec > INT_PREC {
        return Err(CodecError::Corrupt("zfp precision out of range"));
    }
    let mut neg = [0u64; BLOCK];
    for p in 0..maxprec {
        let bit = INT_PREC - 1 - p;
        let plane = r.read_bits(BLOCK as u32)?;
        for (i, v) in neg.iter_mut().enumerate() {
            *v |= ((plane >> i) & 1) << bit;
        }
    }
    let mut ints = neg.map(negabinary_to_int);
    inverse_lift(&mut ints);
    let k = INT_PREC as i32 - 4 - emax;
    Ok(ints.map(|i| mul_pow2(i as f64, -k)))
}

/// Forward decorrelating transform: a two-level integer S-transform
/// (Haar with exact integer lifting).
///
/// zfp's own lift is only approximately invertible in integer arithmetic
/// (its inverse differs by rounding, absorbed into zfp's guard bits); we use
/// the exactly-invertible S-transform instead so the error analysis has a
/// single source of loss — bit-plane truncation. Decorrelation quality on
/// smooth data is comparable.
///
/// Pair rule: `s = (a + b) >> 1`, `d = a − b`; output `[ss, ds, d0, d1]`.
fn forward_lift(p: &mut [i64; BLOCK]) {
    let [x, y, z, w] = *p;
    let (s0, d0) = ((x + y) >> 1, x - y);
    let (s1, d1) = ((z + w) >> 1, z - w);
    let (ss, ds) = ((s0 + s1) >> 1, s0 - s1);
    *p = [ss, ds, d0, d1];
}

/// Exact inverse of [`forward_lift`]: `a = s + ((d + 1) >> 1)`, `b = a − d`.
///
/// Wrapping: decoded coefficients come from untrusted bit-planes and can sit
/// near the i64 edges, where the exact sums would overflow (debug panic).
/// Honest streams never wrap — the encoder's inputs are bounded well below
/// 2^62 — and corrupted ones produce garbage the frame checksum catches.
fn inverse_lift(p: &mut [i64; BLOCK]) {
    let [ss, ds, d0, d1] = *p;
    let s0 = ss.wrapping_add((ds.wrapping_add(1)) >> 1);
    let s1 = s0.wrapping_sub(ds);
    let x = s0.wrapping_add((d0.wrapping_add(1)) >> 1);
    let y = x.wrapping_sub(d0);
    let z = s1.wrapping_add((d1.wrapping_add(1)) >> 1);
    let w = z.wrapping_sub(d1);
    *p = [x, y, z, w];
}

const NBMASK: u64 = 0xAAAA_AAAA_AAAA_AAAA;

#[inline]
fn int_to_negabinary(v: i64) -> u64 {
    ((v as u64).wrapping_add(NBMASK)) ^ NBMASK
}

#[inline]
fn negabinary_to_int(v: u64) -> i64 {
    (v ^ NBMASK).wrapping_sub(NBMASK) as i64
}

/// IEEE exponent of a positive value: smallest `e` with `|v| < 2^(e+1)`.
#[inline]
fn exponent_of(v: f64) -> i32 {
    let (_, exp) = frexp(v);
    exp - 1
}

/// `(mantissa, exponent)` with `v = m · 2^e`, `0.5 ≤ |m| < 1`.
fn frexp(v: f64) -> (f64, i32) {
    if v == 0.0 || !v.is_finite() {
        return (v, 0);
    }
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7FF) as i32;
    if biased == 0 {
        // subnormal: normalize through multiplication
        let (m, e) = frexp(v * pow2(64));
        (m, e - 64)
    } else {
        let e = biased - 1022;
        let m = f64::from_bits((bits & !(0x7FFu64 << 52)) | (1022u64 << 52));
        (m, e)
    }
}

/// `2^e` as f64 for `e` in the normal range (clamped outside it; use
/// [`mul_pow2`] when the exponent may exceed ±1022).
#[inline]
fn pow2(e: i32) -> f64 {
    f64::from_bits(((e + 1023).clamp(1, 2046) as u64) << 52)
}

/// `v · 2^e` without overflow/underflow of the scale itself: split into two
/// half-steps so subnormal blocks scale exactly (ldexp semantics).
#[inline]
fn mul_pow2(v: f64, e: i32) -> f64 {
    let h1 = e / 2;
    let h2 = e - h1;
    v * pow2(h1) * pow2(h2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::assert_bound;
    use gpu_model::DeviceSpec;
    use rand::{Rng, SeedableRng};

    fn stream() -> Stream {
        Stream::new(DeviceSpec::a100())
    }

    #[test]
    fn lift_is_invertible() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        for _ in 0..1000 {
            let orig: [i64; 4] = [
                rng.gen_range(-(1i64 << 60)..(1i64 << 60)),
                rng.gen_range(-(1i64 << 60)..(1i64 << 60)),
                rng.gen_range(-(1i64 << 60)..(1i64 << 60)),
                rng.gen_range(-(1i64 << 60)..(1i64 << 60)),
            ];
            let mut p = orig;
            forward_lift(&mut p);
            inverse_lift(&mut p);
            assert_eq!(p, orig);
        }
    }

    #[test]
    fn negabinary_roundtrip() {
        for v in [0i64, 1, -1, 42, -1000, i64::MAX / 4, i64::MIN / 4] {
            assert_eq!(negabinary_to_int(int_to_negabinary(v)), v);
        }
    }

    #[test]
    fn frexp_matches_libm_semantics() {
        for v in [1.0f64, 0.5, 0.75, 2.0, 1e-300, 1e300, 3.9375] {
            let (m, e) = frexp(v);
            assert!((0.5..1.0).contains(&m.abs()), "m={m} for {v}");
            assert!((m * pow2(e) - v).abs() <= v.abs() * 1e-15);
        }
        assert_eq!(exponent_of(1.0), 0);
        assert_eq!(exponent_of(0.5), -1);
        assert_eq!(exponent_of(4.0), 2);
    }

    #[test]
    fn roundtrip_within_bound_smooth() {
        let data: Vec<f64> = (0..8192).map(|i| (i as f64 * 0.005).sin()).collect();
        let c = CuZfp;
        for eb in [1e-2, 1e-4, 1e-6] {
            let bytes = c.compress(&data, ErrorBound::Abs(eb), &stream()).unwrap();
            let rec = c.decompress(&bytes, &stream()).unwrap();
            assert_bound(&data, &rec, eb);
        }
    }

    #[test]
    fn roundtrip_within_bound_random_blocks() {
        // Worst-case stress of the GUARD_BITS analysis: wild magnitudes.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        let mut data = Vec::new();
        for _ in 0..4000 {
            let mag = 10f64.powi(rng.gen_range(-8..6));
            data.push(rng.gen_range(-1.0..1.0) * mag);
        }
        let c = CuZfp;
        for eb in [1e-3, 1e-7] {
            let bytes = c.compress(&data, ErrorBound::Abs(eb), &stream()).unwrap();
            let rec = c.decompress(&bytes, &stream()).unwrap();
            assert_bound(&data, &rec, eb);
        }
    }

    #[test]
    fn zero_blocks_nearly_free() {
        let data = vec![0.0f64; 1 << 16];
        let bytes = CuZfp
            .compress(&data, ErrorBound::Abs(1e-6), &stream())
            .unwrap();
        // 1 bit per 4 values + headers
        assert!(
            bytes.len() < 4096,
            "{} bytes for all-zero input",
            bytes.len()
        );
    }

    #[test]
    fn partial_tail_handled() {
        let data: Vec<f64> = (0..13).map(|i| i as f64 * 0.1).collect();
        let bytes = CuZfp
            .compress(&data, ErrorBound::Abs(1e-5), &stream())
            .unwrap();
        let rec = CuZfp.decompress(&bytes, &stream()).unwrap();
        assert_eq!(rec.len(), 13);
        assert_bound(&data, &rec, 1e-5);
    }

    #[test]
    fn looser_bound_smaller_stream() {
        let data: Vec<f64> = (0..65_536).map(|i| (i as f64 * 0.01).sin()).collect();
        let loose = CuZfp
            .compress(&data, ErrorBound::Abs(1e-2), &stream())
            .unwrap();
        let tight = CuZfp
            .compress(&data, ErrorBound::Abs(1e-8), &stream())
            .unwrap();
        assert!(loose.len() < tight.len());
    }

    #[test]
    fn corrupt_stream_errors() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let bytes = CuZfp
            .compress(&data, ErrorBound::Abs(1e-4), &stream())
            .unwrap();
        for cut in [0, 1, 9, bytes.len() - 1] {
            let _ = CuZfp.decompress(&bytes[..cut], &stream());
        }
    }

    #[test]
    fn subnormal_inputs_do_not_break_bound() {
        let data = vec![1e-310f64, -1e-312, 0.0, 1e-308];
        let bytes = CuZfp
            .compress(&data, ErrorBound::Abs(1e-6), &stream())
            .unwrap();
        let rec = CuZfp.decompress(&bytes, &stream()).unwrap();
        assert_bound(&data, &rec, 1e-6);
    }
}
