//! cuSZ — prediction-based error-bounded lossy compression (Tian et al.).
//!
//! The ratio-oriented GPU compressor the paper's framework builds on. The
//! pipeline is cuSZ's dual-quantization formulation:
//!
//! 1. **Pre-quantization**: `ep_i = round(x_i / 2eb)` — after this every
//!    reconstruction `ep_i · 2eb` is within `eb` of `x_i` by construction.
//! 2. **Lorenzo prediction** (1D): `δ_i = ep_i − ep_{i−1}`; smooth data gives
//!    δ concentrated around 0.
//! 3. **Quant-code clamping**: |δ| < `radius` becomes symbol `δ + radius`;
//!    anything else is an *outlier* stored exactly in a sparse side list
//!    (symbol 0 marks its position).
//! 4. **Canonical Huffman** over the symbol stream.
//!
//! GPU cost: a streaming dual-quant kernel, an atomic histogram kernel, a
//! (partly serial) codebook build, and a bit-serial Huffman emission kernel —
//! the same stage structure cuSZ profiles on an A100. Symbols are coded in
//! chunks with a gap array ([`codec_kit::chunked`]), matching cuSZ's
//! thread-block-parallel decode layout.

use crate::scratch;
use crate::traits::{
    read_stream_header, stream_header_into, value_range, Compressor, CompressorKind, ErrorBound,
};
use codec_kit::chunked::{decode_chunked_into_slice, encode_chunked_into, DEFAULT_CHUNK};
use codec_kit::varint::{read_ivarint, read_uvarint, write_ivarint, write_uvarint};
use codec_kit::CodecError;
use gpu_model::exec::par_map_chunks_mut;
use gpu_model::{KernelSpec, MemoryPattern, Stream};

/// Stream id of cuSZ.
pub const CUSZ_ID: u8 = 1;

/// Quant-code radius: codes live in `(-radius, radius)`, alphabet `2·radius`.
const DEFAULT_RADIUS: i64 = 512;

/// The cuSZ compressor.
#[derive(Debug, Clone)]
pub struct CuSz {
    radius: i64,
}

impl Default for CuSz {
    fn default() -> Self {
        CuSz {
            radius: DEFAULT_RADIUS,
        }
    }
}

impl CuSz {
    /// Creates cuSZ with a custom quant-code radius (alphabet = 2·radius).
    ///
    /// # Panics
    /// Panics unless `8 ≤ radius ≤ 2^20`.
    pub fn with_radius(radius: i64) -> Self {
        assert!((8..=1 << 20).contains(&radius), "radius out of range");
        CuSz { radius }
    }

    /// The quant-code radius (alphabet = 2·radius).
    pub fn radius(&self) -> i64 {
        self.radius
    }
}

/// Values per parallel dual-quant block.
const QUANT_BLOCK: usize = 1 << 14;

/// Width of the unrolled dual-quant inner loop.
const LANES: usize = 8;

/// Pre-quantization: `ep = round(x / 2eb)`. Deltas use wrapping arithmetic
/// everywhere (kernel, scalar reference, reconstruction) so non-finite
/// inputs — whose `as i64` casts saturate at the integer edges — quantize
/// without overflow panics in debug builds.
#[inline]
fn quantize(x: f64, twoeb: f64) -> i64 {
    (x / twoeb).round() as i64
}

/// Scalar reference for [`dual_quant_into`]: the serial single-pass walk.
///
/// This is the *definition* of the dual-quant output; the vectorized
/// kernel must stay bit-identical to it on every input (proptested in
/// `tests/kernel_proptests.rs`). Keep it boring.
pub fn dual_quant_scalar(data: &[f64], twoeb: f64, radius: i64) -> (Vec<u32>, Vec<(usize, i64)>) {
    let mut symbols = Vec::with_capacity(data.len());
    let mut outliers = Vec::new();
    let mut prev_ep = 0i64;
    for (i, &x) in data.iter().enumerate() {
        let ep = quantize(x, twoeb);
        let delta = ep.wrapping_sub(prev_ep);
        if delta > -radius && delta < radius {
            symbols.push((delta + radius) as u32);
        } else {
            symbols.push(0);
            outliers.push((i, ep));
        }
        prev_ep = ep;
    }
    (symbols, outliers)
}

/// Quantizes `data` into `symbols` (same length) and returns the sparse
/// outlier list. Bit-identical to [`dual_quant_scalar`].
///
/// Block-parallel: `δ_i` depends only on `ep_i` and `ep_{i−1}`, both pure
/// functions of the input, so each block re-derives its predecessor's `ep`
/// from `data[lo−1]` and proceeds independently; blocks concatenate in
/// index order. Within a block the loop is unrolled [`LANES`] wide with
/// branchless clamp/select — the out-of-range test for all eight lanes is
/// accumulated into one `u64` bitmask and only the (rare) set bits take
/// the outlier path, via `trailing_zeros`/`mask &= mask - 1`.
pub fn dual_quant_into(
    data: &[f64],
    twoeb: f64,
    radius: i64,
    symbols: &mut [u32],
) -> Vec<(usize, i64)> {
    assert_eq!(symbols.len(), data.len(), "symbol buffer length mismatch");
    let parts = par_map_chunks_mut(symbols, QUANT_BLOCK, |b, sym| {
        let base = b * QUANT_BLOCK;
        let chunk = &data[base..base + sym.len()];
        let prev_ep = if base == 0 {
            0i64
        } else {
            quantize(data[base - 1], twoeb)
        };
        dual_quant_block(chunk, twoeb, radius, prev_ep, base, sym)
    });
    let mut outliers = Vec::new();
    for o in &parts {
        outliers.extend_from_slice(o);
    }
    outliers
}

/// One block of the vectorized dual-quant kernel: writes `sym_out`
/// (`chunk.len()` symbols), returns the block's outliers at absolute
/// indices (`base +` local offset).
fn dual_quant_block(
    chunk: &[f64],
    twoeb: f64,
    radius: i64,
    mut prev_ep: i64,
    base: usize,
    sym_out: &mut [u32],
) -> Vec<(usize, i64)> {
    debug_assert_eq!(chunk.len(), sym_out.len());
    let mut outliers = Vec::new();
    let mut i = 0usize;
    while i + LANES <= chunk.len() {
        let mut ep = [0i64; LANES];
        for j in 0..LANES {
            ep[j] = quantize(chunk[i + j], twoeb);
        }
        let mut mask: u64 = 0;
        for j in 0..LANES {
            let pred = if j == 0 { prev_ep } else { ep[j - 1] };
            let delta = ep[j].wrapping_sub(pred);
            // Branchless select: symbol = δ + radius when in range, else 0
            // (the outlier marker). `ok as u32` negated gives an all-ones /
            // all-zeros mask; the wrapping add keeps out-of-range lanes
            // defined — their value is discarded by the mask anyway.
            let ok = (delta > -radius) & (delta < radius);
            sym_out[i + j] = (delta.wrapping_add(radius) as u32) & (ok as u32).wrapping_neg();
            mask |= ((!ok) as u64) << j;
        }
        // Rare path: visit only the set (outlier) bits.
        while mask != 0 {
            let j = mask.trailing_zeros() as usize;
            outliers.push((base + i + j, ep[j]));
            mask &= mask - 1;
        }
        prev_ep = ep[LANES - 1];
        i += LANES;
    }
    // Scalar tail, same arithmetic.
    while i < chunk.len() {
        let ep = quantize(chunk[i], twoeb);
        let delta = ep.wrapping_sub(prev_ep);
        if delta > -radius && delta < radius {
            sym_out[i] = (delta + radius) as u32;
        } else {
            sym_out[i] = 0;
            outliers.push((base + i, ep));
        }
        prev_ep = ep;
        i += 1;
    }
    outliers
}

impl Compressor for CuSz {
    fn name(&self) -> &'static str {
        "cuSZ"
    }

    fn id(&self) -> u8 {
        CUSZ_ID
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
        let twoeb = 2.0 * eb;
        let n = data.len();
        let nbytes = (n * 8) as u64;

        // Kernel 1: fused pre-quant + Lorenzo delta (streaming; writes u16
        // codes into a pooled symbol plane and the sparse outlier list).
        let mut symbols = scratch::u32s().take(n);
        let outliers = stream.launch(
            &KernelSpec::streaming("cusz::dual_quant", nbytes, (n * 2) as u64)
                .with_flops((n * 4) as u64),
            || dual_quant_into(data, twoeb, self.radius, &mut symbols),
        );

        // Kernel 2: histogram (shared-memory atomics → Random pattern).
        let alphabet = (2 * self.radius) as usize;
        stream.launch(
            &KernelSpec::streaming("cusz::histogram", (n * 2) as u64, 4 * alphabet as u64)
                .with_pattern(MemoryPattern::Random),
            || (),
        );

        // Kernel 3: codebook construction — tiny but partially serial.
        stream.launch(
            &KernelSpec::streaming("cusz::huffman_build", 8 * alphabet as u64, alphabet as u64)
                .with_serial_fraction(0.02),
            || (),
        );

        stream_header_into(CUSZ_ID, n, out);
        out.extend_from_slice(&eb.to_le_bytes());
        write_uvarint(out, self.radius as u64);

        // Kernel 4: Huffman emission — the bit-serial stage that dominates.
        // Chunked with a gap array, as real cuSZ lays it out for
        // block-parallel decode (the codebook build above feeds it).
        let mut payload = scratch::u8s().take_spare(n / 2 + 64);
        stream.launch(
            &KernelSpec::streaming("cusz::huffman_encode", (n * 2) as u64, n as u64 / 2)
                .with_pattern(MemoryPattern::BitSerial),
            || encode_chunked_into(&symbols, alphabet, DEFAULT_CHUNK, &mut payload),
        );
        scratch::u32s().put(symbols);
        write_uvarint(out, payload.len() as u64);
        out.extend_from_slice(&payload);
        scratch::u8s().put(payload);

        // Outliers: gather kernel (sparse, Random).
        stream.launch(
            &KernelSpec::streaming("cusz::outlier_gather", 0, (outliers.len() * 12) as u64)
                .with_pattern(MemoryPattern::Random),
            || (),
        );
        write_uvarint(out, outliers.len() as u64);
        let mut last_idx = 0usize;
        for &(idx, ep) in &outliers {
            write_uvarint(out, (idx - last_idx) as u64);
            write_ivarint(out, ep);
            last_idx = idx;
        }
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
        let (n, mut pos) = read_stream_header(bytes, CUSZ_ID)?;
        if bytes.len() < pos + 8 {
            return Err(CodecError::UnexpectedEof);
        }
        let eb = f64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
        pos += 8;
        if eb.is_nan() || eb <= 0.0 || !eb.is_finite() {
            return Err(CodecError::Corrupt("bad error bound"));
        }
        let radius = read_uvarint(bytes, &mut pos)? as i64;
        if !(8..=1 << 20).contains(&radius) {
            return Err(CodecError::Corrupt("bad radius"));
        }
        let payload_len = read_uvarint(bytes, &mut pos)? as usize;
        if bytes.len() < pos + payload_len {
            return Err(CodecError::UnexpectedEof);
        }
        let payload = &bytes[pos..pos + payload_len];
        pos += payload_len;

        // Kernel 1: Huffman decode — chunk-parallel thanks to the gap
        // array, written straight into a pooled symbol plane. Error returns
        // below simply drop the plane; the pool misses once next call.
        let mut symbols = scratch::u32s().take(n);
        stream.launch(
            &KernelSpec::streaming("cusz::huffman_decode", payload_len as u64, (n * 2) as u64)
                .with_pattern(MemoryPattern::BitSerial),
            || decode_chunked_into_slice(payload, &mut symbols),
        )?;

        // Outlier scatter.
        let outlier_count = read_uvarint(bytes, &mut pos)? as usize;
        if outlier_count > n {
            return Err(CodecError::Corrupt("more outliers than elements"));
        }
        let mut outliers = Vec::with_capacity(outlier_count);
        let mut idx = 0usize;
        for k in 0..outlier_count {
            let delta = read_uvarint(bytes, &mut pos)? as usize;
            // checked_add: a forged delta must not overflow (debug panic)
            // before the range check fires.
            idx = idx
                .checked_add(delta)
                .filter(|&i| i < n)
                .ok_or(CodecError::Corrupt("outlier index out of range"))?;
            if k > 0 && delta == 0 {
                return Err(CodecError::Corrupt("duplicate outlier index"));
            }
            let ep = read_ivarint(bytes, &mut pos)?;
            outliers.push((idx, ep));
        }

        // Kernel 2: inverse Lorenzo (a prefix-sum; block-scan → Strided).
        let twoeb = 2.0 * eb;
        let res = stream.launch(
            &KernelSpec::streaming("cusz::lorenzo_reconstruct", (n * 2) as u64, (n * 8) as u64)
                .with_pattern(MemoryPattern::Strided)
                .with_flops((n * 2) as u64),
            || {
                out.clear();
                out.reserve(n);
                let mut ep = 0i64;
                let mut next_outlier = 0usize;
                for (i, &sym) in symbols.iter().enumerate() {
                    if sym == 0 {
                        if next_outlier >= outliers.len() || outliers[next_outlier].0 != i {
                            return Err(CodecError::Corrupt("missing outlier record"));
                        }
                        ep = outliers[next_outlier].1;
                        next_outlier += 1;
                    } else {
                        // Wrapping: forged outlier levels can sit at the i64
                        // edges; reconstruction must not panic on overflow
                        // (the values are garbage either way and the
                        // checksum layer catches real corruption).
                        ep = ep.wrapping_add(sym as i64 - radius);
                    }
                    out.push(ep as f64 * twoeb);
                }
                Ok(())
            },
        );
        scratch::u32s().put(symbols);
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::assert_bound;
    use gpu_model::DeviceSpec;

    fn stream() -> Stream {
        Stream::new(DeviceSpec::a100())
    }

    fn smooth_signal(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.01).sin() * 0.8).collect()
    }

    #[test]
    fn roundtrip_within_bound_smooth() {
        let data = smooth_signal(10_000);
        let c = CuSz::default();
        for eb in [1e-2, 1e-3, 1e-4] {
            let bytes = c.compress(&data, ErrorBound::Abs(eb), &stream()).unwrap();
            let rec = c.decompress(&bytes, &stream()).unwrap();
            assert_bound(&data, &rec, eb);
        }
    }

    #[test]
    fn smooth_data_compresses_well() {
        let data = smooth_signal(100_000);
        let c = CuSz::default();
        let bytes = c.compress(&data, ErrorBound::Abs(1e-3), &stream()).unwrap();
        let cr = (data.len() * 8) as f64 / bytes.len() as f64;
        assert!(cr > 8.0, "smooth data CR only {cr:.1}");
    }

    #[test]
    fn random_data_generates_outliers_but_respects_bound() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let data: Vec<f64> = (0..5_000).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let c = CuSz::default();
        let eb = 1e-5; // tight bound on noise → many outliers
        let bytes = c.compress(&data, ErrorBound::Abs(eb), &stream()).unwrap();
        let rec = c.decompress(&bytes, &stream()).unwrap();
        assert_bound(&data, &rec, eb);
    }

    #[test]
    fn relative_bound_resolved_against_range() {
        let data: Vec<f64> = (0..1000).map(|i| i as f64).collect(); // range 999
        let c = CuSz::default();
        let bytes = c.compress(&data, ErrorBound::Rel(1e-3), &stream()).unwrap();
        let rec = c.decompress(&bytes, &stream()).unwrap();
        assert_bound(&data, &rec, 0.999);
    }

    #[test]
    fn empty_and_single_element() {
        let c = CuSz::default();
        for data in [vec![], vec![0.5f64]] {
            let bytes = c.compress(&data, ErrorBound::Abs(1e-3), &stream()).unwrap();
            let rec = c.decompress(&bytes, &stream()).unwrap();
            assert_eq!(rec.len(), data.len());
            assert_bound(&data, &rec, 1e-3);
        }
    }

    #[test]
    fn constant_data_is_tiny() {
        let data = vec![0.25f64; 65_536];
        let c = CuSz::default();
        let bytes = c.compress(&data, ErrorBound::Abs(1e-4), &stream()).unwrap();
        assert!(
            bytes.len() < 20_000,
            "constant data took {} bytes",
            bytes.len()
        );
        let rec = c.decompress(&bytes, &stream()).unwrap();
        assert_bound(&data, &rec, 1e-4);
    }

    #[test]
    fn zero_bound_rejected() {
        let c = CuSz::default();
        assert!(c.compress(&[1.0], ErrorBound::Abs(0.0), &stream()).is_err());
    }

    #[test]
    fn corrupt_stream_errors_not_panics() {
        let c = CuSz::default();
        let data = smooth_signal(1000);
        let mut bytes = c.compress(&data, ErrorBound::Abs(1e-3), &stream()).unwrap();
        // Truncations at every prefix must error or return wrong-length data,
        // never panic.
        for cut in [0, 1, 5, bytes.len() / 2, bytes.len() - 1] {
            let _ = c.decompress(&bytes[..cut], &stream());
        }
        // Flip bits in the payload region.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let _ = c.decompress(&bytes, &stream());
    }

    #[test]
    fn gpu_time_dominated_by_huffman_encode() {
        let data = smooth_signal(1 << 18);
        let c = CuSz::default();
        let s = stream();
        c.compress(&data, ErrorBound::Abs(1e-3), &s).unwrap();
        let huff = s.time_in("huffman_encode");
        let quant = s.time_in("dual_quant");
        assert!(
            huff > quant,
            "expected Huffman ({huff}) to dominate quant ({quant})"
        );
    }

    #[test]
    fn custom_radius_roundtrip() {
        let data = smooth_signal(4096);
        let c = CuSz::with_radius(64);
        let bytes = c.compress(&data, ErrorBound::Abs(1e-4), &stream()).unwrap();
        let rec = c.decompress(&bytes, &stream()).unwrap();
        assert_bound(&data, &rec, 1e-4);
    }
}
