//! cuSZx — ultra-fast block-wise error-bounded compression (Yu et al., SZx).
//!
//! The throughput-oriented GPU compressor the paper's *speed mode* builds
//! on. No prediction and no entropy coding — just two cheap decisions per
//! fixed-size block:
//!
//! * **Constant block**: every value within `eb` of the block mean → store
//!   the mean alone (8 bytes for 128 values).
//! * **Nonconstant block**: quantize deviations from the mean at `2eb`
//!   granularity and bit-pack them at the block's required width.
//!
//! Both paths are branch-light single-pass streaming work, which is exactly
//! why SZx tops out near memory bandwidth on real GPUs.

use crate::scratch;
use crate::traits::{
    read_stream_header, stream_header_into, value_range, Compressor, CompressorKind, ErrorBound,
};
use codec_kit::bitio::{BitReader, BitWriter};
use codec_kit::bitpack::unpack;
use codec_kit::varint::{read_uvarint, write_uvarint};
use codec_kit::varint::{unzigzag, zigzag};
use codec_kit::CodecError;
use gpu_model::exec::{par_map_blocks, serial_for_blocks, worker_count};
use gpu_model::{KernelSpec, MemoryPattern, Stream};

/// Stream id of cuSZx.
pub const CUSZX_ID: u8 = 2;

/// The cuSZx compressor.
#[derive(Debug, Clone)]
pub struct CuSzx {
    block_size: usize,
}

impl Default for CuSzx {
    fn default() -> Self {
        CuSzx { block_size: 128 }
    }
}

impl CuSzx {
    /// Creates cuSZx with a custom block size.
    ///
    /// # Panics
    /// Panics unless `16 ≤ block_size ≤ 65536`.
    pub fn with_block_size(block_size: usize) -> Self {
        assert!(
            (16..=65_536).contains(&block_size),
            "block size out of range"
        );
        CuSzx { block_size }
    }
}

impl Compressor for CuSzx {
    fn name(&self) -> &'static str {
        "cuSZx"
    }

    fn id(&self) -> u8 {
        CUSZX_ID
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
        let bs = self.block_size;
        let nbytes = (n * 8) as u64;

        stream_header_into(CUSZX_ID, n, out);
        out.extend_from_slice(&eb.to_le_bytes());
        write_uvarint(out, bs as u64);

        // Single fused kernel: block stats + classification + packing.
        // SZx reads each value twice (stats pass, emit pass) within the
        // block — still streaming-class traffic. Each block encodes into a
        // private writer in parallel; blocks are not byte-aligned in the
        // stream, so the writers concatenate at bit granularity
        // (`BitWriter::append`), reproducing the serial stream exactly.
        // The concatenation writer emits into a pooled buffer.
        let payload = stream.launch(
            &KernelSpec::streaming("szx::fused_block_encode", 2 * nbytes, nbytes / 3)
                .with_pattern(MemoryPattern::Strided)
                .with_flops((n * 3) as u64),
            || {
                let twoeb = 2.0 * eb;
                if worker_count() == 1 {
                    // Serial fast path: every block encodes straight into
                    // the pooled output writer, with one pooled code
                    // scratch reused across blocks — zero heap allocation
                    // on the warm path. `BitWriter::append` is bit-exact,
                    // so this emits the same stream as the parallel path,
                    // and `serial_for_blocks` keeps the per-block fault
                    // point and panic accounting of the executor.
                    let mut codes = scratch::u64s().take(bs.min(n));
                    let mut w = BitWriter::from_vec(scratch::u8s().take_spare(n));
                    let mut blocks = data.chunks(bs);
                    serial_for_blocks(n.div_ceil(bs), |_| {
                        let block = blocks.next().expect("block count matches chunks");
                        encode_block(block, eb, twoeb, &mut codes, &mut w);
                    });
                    scratch::u64s().put(codes);
                    return w.finish();
                }
                let parts = par_map_blocks(data, bs, |_, block| {
                    let mut scratch = vec![0u64; block.len()];
                    let mut w = BitWriter::with_capacity(block.len());
                    encode_block(block, eb, twoeb, &mut scratch, &mut w);
                    w
                });
                let mut w = BitWriter::from_vec(scratch::u8s().take_spare(n));
                for part in &parts {
                    w.append(part);
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
        let (n, mut pos) = read_stream_header(bytes, CUSZX_ID)?;
        if bytes.len() < pos + 8 {
            return Err(CodecError::UnexpectedEof);
        }
        let eb = f64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
        pos += 8;
        if eb.is_nan() || eb <= 0.0 || !eb.is_finite() {
            return Err(CodecError::Corrupt("bad error bound"));
        }
        let bs = read_uvarint(bytes, &mut pos)? as usize;
        if !(16..=65_536).contains(&bs) {
            return Err(CodecError::Corrupt("bad block size"));
        }
        let payload_len = read_uvarint(bytes, &mut pos)? as usize;
        if bytes.len() < pos + payload_len {
            return Err(CodecError::UnexpectedEof);
        }
        let payload = &bytes[pos..pos + payload_len];

        stream.launch(
            &KernelSpec::streaming("szx::block_decode", payload_len as u64, (n * 8) as u64)
                .with_pattern(MemoryPattern::Strided)
                .with_flops((n * 2) as u64),
            || {
                let mut r = BitReader::new(payload);
                let twoeb = 2.0 * eb;
                out.clear();
                out.reserve(n);
                let mut remaining = n;
                while remaining > 0 {
                    let len = remaining.min(bs);
                    decode_block(&mut r, len, twoeb, out)?;
                    remaining -= len;
                }
                Ok(())
            },
        )
    }
}

/// Width of the unrolled block-kernel inner loops.
const LANES: usize = 8;

/// Block mean via an eight-lane sum tree.
///
/// This reduction order — lane `j` accumulates elements `j`, `j+8`,
/// `j+16`, … and the lanes combine pairwise `((0+1)+(2+3)) +
/// ((4+5)+(6+7))` — **is** the stream format's definition of the block
/// mean. Both the scalar reference and the unrolled kernel implement
/// exactly this order, so they are bit-identical; the unrolled kernel's
/// accumulators carry no loop dependency, which is what lets the adds
/// pipeline.
///
/// A NaN mean (a block holding a NaN, or both infinities) is stored as
/// [`f64::NAN`]: Rust leaves the sign and payload of a NaN produced by
/// arithmetic unspecified, so two sum trees may disagree on them once
/// optimized. Finite means are untouched.
pub fn block_mean(block: &[f64]) -> f64 {
    let mut lanes = [0.0f64; LANES];
    for (i, &v) in block.iter().enumerate() {
        lanes[i % LANES] += v;
    }
    let s = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    canonical_nan(s / block.len() as f64)
}

/// `v`, with any NaN replaced by [`f64::NAN`] (see [`block_mean`]).
#[inline]
fn canonical_nan(v: f64) -> f64 {
    if v.is_nan() {
        f64::NAN
    } else {
        v
    }
}

#[inline]
fn quant_dev(v: f64, mean: f64, twoeb: f64) -> u64 {
    zigzag(((v - mean) / twoeb).round() as i64)
}

/// Scalar reference for [`encode_block`]: simple loops, same stream bytes
/// (proptested in `tests/kernel_proptests.rs`).
///
/// The block radius is a `max` fold, which is order-insensitive down to
/// the bit level (`|v − mean|` never yields `-0.0`, and `f64::max`
/// ignores NaN operands in any association), so the reference keeps the
/// plain sequential fold. Deviations are emitted with `write_bits` —
/// which masks to the emitted width — rather than `bitpack::pack`: at the
/// capped width of 57 an adversarial deviation can exceed the width and
/// `pack`'s debug assertion would reject what is identical masked output
/// in release builds.
pub fn encode_block_scalar(block: &[f64], eb: f64, twoeb: f64, w: &mut BitWriter) {
    let mean = block_mean(block);
    let radius = block.iter().map(|&v| (v - mean).abs()).fold(0.0, f64::max);
    if radius <= eb {
        w.write_bit(true); // constant block
        w.write_u64(mean.to_bits());
        return;
    }
    w.write_bit(false);
    w.write_u64(mean.to_bits());
    let codes: Vec<u64> = block.iter().map(|&v| quant_dev(v, mean, twoeb)).collect();
    let width = codes
        .iter()
        .map(|&c| 64 - c.leading_zeros())
        .max()
        .unwrap_or(0)
        .min(57);
    w.write_bits(width as u64, 6);
    for &c in &codes {
        w.write_bits(c, width);
    }
}

/// The vectorized cuSZx block encoder: eight-lane unrolled stats and
/// emission, bit-identical to [`encode_block_scalar`].
///
/// `scratch` holds the zigzag codes (`len ≥ block.len()`; pooled or
/// per-block by the callers, so the kernel itself performs no heap
/// allocation). Three passes, all width-8: lane-tree sum (see
/// [`block_mean`]; a NaN mean is canonicalized once after the tree, as
/// there), radius via eight independent `max` accumulators, and
/// code emission with an OR-accumulated width — `64 −
/// leading_zeros(OR of all codes)` equals the max per-code width, one
/// `u64` bit-trick instead of a per-element compare. When two codes fit
/// the 57-bit writer limit they are fused into one `write_bits` call.
pub fn encode_block(block: &[f64], eb: f64, twoeb: f64, scratch: &mut [u64], w: &mut BitWriter) {
    let codes = &mut scratch[..block.len()];
    let n = block.len();

    // Pass 1: lane-tree mean.
    let mut sum = [0.0f64; LANES];
    let mut i = 0usize;
    while i + LANES <= n {
        for j in 0..LANES {
            sum[j] += block[i + j];
        }
        i += LANES;
    }
    let mut j = 0usize;
    while i < n {
        sum[j] += block[i];
        i += 1;
        j += 1;
    }
    let mean = canonical_nan(
        (((sum[0] + sum[1]) + (sum[2] + sum[3])) + ((sum[4] + sum[5]) + (sum[6] + sum[7])))
            / n as f64,
    );

    // Pass 2: radius, eight max accumulators (order-insensitive; see the
    // scalar reference).
    let mut rad = [0.0f64; LANES];
    let mut i = 0usize;
    while i + LANES <= n {
        for j in 0..LANES {
            rad[j] = rad[j].max((block[i + j] - mean).abs());
        }
        i += LANES;
    }
    while i < n {
        rad[0] = rad[0].max((block[i] - mean).abs());
        i += 1;
    }
    let radius = (rad[0].max(rad[1]))
        .max(rad[2].max(rad[3]))
        .max((rad[4].max(rad[5])).max(rad[6].max(rad[7])));

    if radius <= eb {
        w.write_bit(true); // constant block
        w.write_u64(mean.to_bits());
        return;
    }
    w.write_bit(false);
    w.write_u64(mean.to_bits());

    // Pass 3: zigzag codes with OR-accumulated width.
    let mut acc = [0u64; LANES];
    let mut i = 0usize;
    while i + LANES <= n {
        for j in 0..LANES {
            let c = quant_dev(block[i + j], mean, twoeb);
            codes[i + j] = c;
            acc[j] |= c;
        }
        i += LANES;
    }
    let mut orall =
        ((acc[0] | acc[1]) | (acc[2] | acc[3])) | ((acc[4] | acc[5]) | (acc[6] | acc[7]));
    while i < n {
        let c = quant_dev(block[i], mean, twoeb);
        codes[i] = c;
        orall |= c;
        i += 1;
    }
    let width = (64 - orall.leading_zeros()).min(57);
    w.write_bits(width as u64, 6);
    if width == 0 {
        return; // all-zero deviations pack to zero bits
    }
    let mut k = 0usize;
    if 2 * width <= 57 {
        // Fused pair emission: LSB-first concatenation makes
        // `write_bits(lo | hi << width, 2·width)` bit-identical to two
        // single writes (write_bits masks each operand to `width`).
        let m = u64::MAX >> (64 - width);
        while k + 2 <= n {
            w.write_bits((codes[k] & m) | ((codes[k + 1] & m) << width), 2 * width);
            k += 2;
        }
    }
    while k < n {
        w.write_bits(codes[k], width);
        k += 1;
    }
}

/// Scalar reference for [`decode_block`]: header, `bitpack::unpack` into a
/// vector, then dequantize. Same values and same error cases as the fused
/// kernel (proptested).
pub fn decode_block_scalar(
    r: &mut BitReader<'_>,
    len: usize,
    twoeb: f64,
    out: &mut Vec<f64>,
) -> Result<(), CodecError> {
    let constant = r.read_bit()?;
    let mean = f64::from_bits(r.read_u64()?);
    if !mean.is_finite() {
        return Err(CodecError::Corrupt("non-finite block mean"));
    }
    if constant {
        out.extend(std::iter::repeat_n(mean, len));
        return Ok(());
    }
    let width = r.read_bits(6)? as u32;
    let codes = unpack(r, width, len)?;
    for c in codes {
        out.push(mean + unzigzag(c) as f64 * twoeb);
    }
    Ok(())
}

/// The vectorized cuSZx block decoder: fused unpack + dequantize in
/// eight-element groups with no intermediate code vector, reading fused
/// bit pairs exactly as [`encode_block`] emits them. Bit-identical output
/// to [`decode_block_scalar`].
pub fn decode_block(
    r: &mut BitReader<'_>,
    len: usize,
    twoeb: f64,
    out: &mut Vec<f64>,
) -> Result<(), CodecError> {
    let constant = r.read_bit()?;
    let mean = f64::from_bits(r.read_u64()?);
    if !mean.is_finite() {
        return Err(CodecError::Corrupt("non-finite block mean"));
    }
    if constant {
        out.extend(std::iter::repeat_n(mean, len));
        return Ok(());
    }
    let width = r.read_bits(6)? as u32;
    if width > 57 {
        return Err(CodecError::Corrupt("pack width out of range"));
    }
    let mut rem = len;
    if width > 0 && 2 * width <= 57 {
        let m = u64::MAX >> (64 - width);
        while rem >= LANES {
            let mut c = [0u64; LANES];
            for j in 0..LANES / 2 {
                let v = r.read_bits(2 * width)?;
                c[2 * j] = v & m;
                c[2 * j + 1] = v >> width;
            }
            for &cj in &c {
                out.push(mean + unzigzag(cj) as f64 * twoeb);
            }
            rem -= LANES;
        }
    } else {
        while rem >= LANES {
            let mut c = [0u64; LANES];
            for cj in &mut c {
                *cj = r.read_bits(width)?;
            }
            for &cj in &c {
                out.push(mean + unzigzag(cj) as f64 * twoeb);
            }
            rem -= LANES;
        }
    }
    while rem > 0 {
        let c = r.read_bits(width)?;
        out.push(mean + unzigzag(c) as f64 * twoeb);
        rem -= 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::assert_bound;
    use gpu_model::DeviceSpec;

    fn stream() -> Stream {
        Stream::new(DeviceSpec::a100())
    }

    #[test]
    fn roundtrip_within_bound() {
        let data: Vec<f64> = (0..10_000).map(|i| (i as f64 * 0.02).cos() * 0.5).collect();
        let c = CuSzx::default();
        for eb in [1e-2, 1e-3, 1e-5] {
            let bytes = c.compress(&data, ErrorBound::Abs(eb), &stream()).unwrap();
            let rec = c.decompress(&bytes, &stream()).unwrap();
            assert_bound(&data, &rec, eb);
        }
    }

    #[test]
    fn mostly_zero_data_hits_constant_blocks() {
        let mut data = vec![0.0f64; 100_000];
        for i in (0..data.len()).step_by(1000) {
            data[i] = 0.5; // sparse spikes keep some blocks nonconstant
        }
        let c = CuSzx::default();
        let bytes = c.compress(&data, ErrorBound::Abs(1e-4), &stream()).unwrap();
        let cr = (data.len() * 8) as f64 / bytes.len() as f64;
        assert!(cr > 20.0, "zero-dominated data CR only {cr:.1}");
        let rec = c.decompress(&bytes, &stream()).unwrap();
        assert_bound(&data, &rec, 1e-4);
    }

    #[test]
    fn partial_tail_block() {
        let data: Vec<f64> = (0..333).map(|i| i as f64 * 1e-3).collect();
        let c = CuSzx::with_block_size(128);
        let bytes = c.compress(&data, ErrorBound::Abs(1e-4), &stream()).unwrap();
        let rec = c.decompress(&bytes, &stream()).unwrap();
        assert_eq!(rec.len(), 333);
        assert_bound(&data, &rec, 1e-4);
    }

    #[test]
    fn empty_input() {
        let c = CuSzx::default();
        let bytes = c.compress(&[], ErrorBound::Abs(1e-3), &stream()).unwrap();
        assert!(c.decompress(&bytes, &stream()).unwrap().is_empty());
    }

    #[test]
    fn faster_than_cusz_on_model() {
        let data: Vec<f64> = (0..(1 << 18)).map(|i| (i as f64 * 0.01).sin()).collect();
        let szx_stream = stream();
        CuSzx::default()
            .compress(&data, ErrorBound::Abs(1e-3), &szx_stream)
            .unwrap();
        let sz_stream = stream();
        crate::cusz::CuSz::default()
            .compress(&data, ErrorBound::Abs(1e-3), &sz_stream)
            .unwrap();
        assert!(
            szx_stream.elapsed_s() < sz_stream.elapsed_s() / 2.0,
            "szx {} vs sz {}",
            szx_stream.elapsed_s(),
            sz_stream.elapsed_s()
        );
    }

    #[test]
    fn relative_bound() {
        let data: Vec<f64> = (0..4096).map(|i| (i % 37) as f64).collect();
        let c = CuSzx::default();
        let bytes = c.compress(&data, ErrorBound::Rel(1e-2), &stream()).unwrap();
        let rec = c.decompress(&bytes, &stream()).unwrap();
        assert_bound(&data, &rec, 0.36);
    }

    #[test]
    fn corrupt_streams_error() {
        let data: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let c = CuSzx::default();
        let bytes = c.compress(&data, ErrorBound::Abs(1e-3), &stream()).unwrap();
        for cut in [0, 1, 8, bytes.len() / 2] {
            let _ = c.decompress(&bytes[..cut], &stream());
        }
        let mut bad = bytes.clone();
        // corrupt the declared block size
        bad[bytes.len() - 1] ^= 0x55;
        let _ = c.decompress(&bad, &stream());
    }

    #[test]
    fn nan_block_mean_is_the_canonical_nan() {
        let block = [f64::INFINITY, f64::NEG_INFINITY];
        assert_eq!(block_mean(&block).to_bits(), f64::NAN.to_bits());
        // Both encoders store that mean, so their streams agree.
        let mut scalar = BitWriter::new();
        encode_block_scalar(&block, 1e-3, 2e-3, &mut scalar);
        let mut vector = BitWriter::new();
        encode_block(&block, 1e-3, 2e-3, &mut [0; 2], &mut vector);
        assert_eq!(scalar.finish(), vector.finish());
    }

    #[test]
    fn block_size_affects_ratio_on_piecewise_constant() {
        let mut data = Vec::new();
        for seg in 0..64 {
            data.extend(std::iter::repeat_n(seg as f64 * 0.1, 512));
        }
        let small = CuSzx::with_block_size(32);
        let large = CuSzx::with_block_size(512);
        let b_small = small
            .compress(&data, ErrorBound::Abs(1e-6), &stream())
            .unwrap();
        let b_large = large
            .compress(&data, ErrorBound::Abs(1e-6), &stream())
            .unwrap();
        // Piecewise-constant segments aligned with large blocks: larger
        // blocks amortize the per-block mean better.
        assert!(b_large.len() < b_small.len());
    }
}
