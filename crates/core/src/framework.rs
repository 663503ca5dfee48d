//! The configurable compression framework (contribution 3).
//!
//! Two operating points over the same stage pipeline:
//!
//! * **Ratio mode** — P1 de-interleave → P3 quantization dictionary with
//!   Huffman-coded indices (`dict`); when the dictionary is inapplicable
//!   (too many distinct values), fall back to P2 zero collapse → P4 block
//!   dedup → cuSZ. An optional LZ4 tail pass wraps either route.
//! * **Speed mode** — the same dictionary, its index stream coded in
//!   whichever layout costs the fewest bits, computed exactly: plain
//!   fixed-width, frequency-sorted hot/cold, or stride-predicted runs with
//!   hot/cold misses (`dict::encode_speed`: a frequency pass, one compare
//!   per candidate stride, one miss-and-run count, one emission pass;
//!   `dict::encode_speed_scalar` is the format definition). De-interleave
//!   is charged as flops inside that kernel, not as a memory pass;
//!   fallback is collapse → cuSZx.
//!
//! Error budgeting: the dictionary route quantizes once at the full user
//! bound. On the fallback route, zero collapse spends half the bound
//! (threshold `eb/2`) and the backend gets the other half — either way the
//! end-to-end pointwise guarantee is exactly the user's bound.
//!
//! Every stage can be toggled individually — that is what the paper's
//! ablation (E4) sweeps.

use crate::dict;
use crate::stages::{
    dedup_blocks, deinterleave_into, interleave_into, read_refs, reassemble_blocks_into,
    write_refs, zero_collapse, zero_frac,
};
use codec_kit::varint::{read_uvarint, write_uvarint};
use codec_kit::CodecError;
use compressors::cusz::CuSz;
use compressors::cuszx::CuSzx;
use compressors::lz4::{lz4_decode_block, lz4_encode_block};
use compressors::traits::{read_stream_header, stream_header_into, value_range};
use compressors::{decompress_any_into, scratch, Compressor, CompressorKind, ErrorBound};
use gpu_model::{KernelSpec, MemoryPattern, Stream};
use std::borrow::Cow;

/// Stream id of the ratio-mode framework.
pub const QCF_RATIO_ID: u8 = 10;
/// Stream id of the speed-mode framework.
pub const QCF_SPEED_ID: u8 = 11;

/// Which backend/stage preset the framework runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// cuSZ backend, all stages (maximum compression ratio).
    Ratio,
    /// cuSZx backend, single-pass stages only (maximum throughput).
    Speed,
}

/// Individual stage switches (the ablation axes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageToggles {
    /// P1: split interleaved complex input into real/imag planes.
    pub deinterleave: bool,
    /// P2: flush `|v| ≤ eb/2` to exact zero (fallback route; spends half
    /// the bound).
    pub zero_collapse: bool,
    /// P3: quantization dictionary (repeated-value extraction).
    pub dictionary: bool,
    /// P4: deduplicate bit-identical blocks before the backend (fallback
    /// route).
    pub dedup: bool,
    /// Tail: LZ4 pass over each plane's payload when it shrinks it.
    pub lossless_tail: bool,
}

impl StageToggles {
    /// Everything off — the framework degenerates to its bare backend.
    pub fn none() -> Self {
        StageToggles {
            deinterleave: false,
            zero_collapse: false,
            dictionary: false,
            dedup: false,
            lossless_tail: false,
        }
    }

    /// Everything on (ratio mode's default).
    pub fn all() -> Self {
        StageToggles {
            deinterleave: true,
            zero_collapse: true,
            dictionary: true,
            dedup: true,
            lossless_tail: true,
        }
    }

    /// Single-pass-friendly stages only (speed mode's default).
    pub fn single_pass() -> Self {
        StageToggles {
            deinterleave: true,
            zero_collapse: true,
            dictionary: true,
            dedup: false,
            lossless_tail: false,
        }
    }
}

/// Dedup block size (complex-plane f64 values per block).
const DEDUP_BLOCK: usize = 256;
/// Dedup engages when at least this fraction of blocks are duplicates.
const DEDUP_MIN_FRAC: f64 = 0.05;
/// Zero collapse engages when at least this fraction would flush.
const COLLAPSE_MIN_FRAC: f64 = 0.05;

/// The paper's compression framework, usable anywhere a [`Compressor`] is.
///
/// Input buffers are treated as interleaved complex (`re, im, …`) when
/// `deinterleave` is on and the length is even — the layout tensors have.
#[derive(Debug, Clone)]
pub struct QcfCompressor {
    mode: Mode,
    stages: StageToggles,
    /// Cached `stage.encode_us` / `stage.decode_us` latency histograms so
    /// per-call observation never takes the registry lock.
    lat_encode: std::sync::Arc<qcf_telemetry::Histogram>,
    lat_decode: std::sync::Arc<qcf_telemetry::Histogram>,
}

/// Microsecond bucket bounds for the framework's whole-call latency
/// histograms (`stage.encode_us` / `stage.decode_us`): log-spaced from
/// small-plane calls to the multi-ms tail of ratio-mode dedup sweeps.
const STAGE_LATENCY_BOUNDS_US: [f64; 10] = [
    10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
];

/// Starts a whole-call latency measurement iff telemetry is enabled.
#[inline]
fn lat_start() -> Option<std::time::Instant> {
    if qcf_telemetry::enabled() {
        Some(std::time::Instant::now())
    } else {
        None
    }
}

impl QcfCompressor {
    /// Ratio mode with all stages.
    pub fn ratio() -> Self {
        QcfCompressor::with_stages(Mode::Ratio, StageToggles::all())
    }

    /// Speed mode with single-pass stages.
    pub fn speed() -> Self {
        QcfCompressor::with_stages(Mode::Speed, StageToggles::single_pass())
    }

    /// Custom stage configuration (ablation studies).
    pub fn with_stages(mode: Mode, stages: StageToggles) -> Self {
        let reg = qcf_telemetry::registry();
        QcfCompressor {
            mode,
            stages,
            lat_encode: reg.histogram("stage.encode_us", &STAGE_LATENCY_BOUNDS_US),
            lat_decode: reg.histogram("stage.decode_us", &STAGE_LATENCY_BOUNDS_US),
        }
    }

    /// The active stage toggles.
    pub fn stages(&self) -> StageToggles {
        self.stages
    }

    /// The active mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    fn backend(&self) -> Box<dyn Compressor> {
        match self.mode {
            Mode::Ratio => Box::new(CuSz::default()),
            Mode::Speed => Box::new(CuSzx::default()),
        }
    }

    /// Encodes one plane: optional collapse → optional dedup → backend →
    /// optional tail. Writes a self-describing plane stream to `out`.
    ///
    /// The plane stays borrowed until zero collapse actually engages —
    /// only then is a mutable copy materialized (`Cow::to_mut`); owned
    /// planes are collapsed in place with no copy at all. Taking the `Cow`
    /// by `&mut` lets the caller recover an owned plane buffer afterwards
    /// and check it back into the `f64` scratch pool.
    fn encode_plane(
        &self,
        plane: &mut Cow<'_, [f64]>,
        abs_eb: f64,
        stream: &Stream,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let nbytes = (plane.len() * 8) as u64;
        let mut flags = 0u8;
        let mut backend_eb = abs_eb;

        // P3: quantization dictionary — the preferred route whenever the
        // plane's distinct-value count is small (E1 shows it almost always
        // is for QTensor tensors).
        if self.stages.dictionary && !plane.is_empty() {
            let _span = qcf_telemetry::span!("stage.dict");
            let quantized = match self.mode {
                // Ratio: a dedicated build pass (read values, write indices).
                Mode::Ratio => stream.launch(
                    &KernelSpec::streaming("qcf::dict_build", nbytes, nbytes / 2)
                        .with_flops(2 * plane.len() as u64),
                    || dict::quantize(&plane[..], abs_eb),
                ),
                // Speed: quantize + table insert + emission fuse into one
                // kernel below; the build itself is charged there.
                Mode::Speed => dict::quantize(&plane[..], abs_eb),
            };
            if let Some(q) = quantized {
                if qcf_telemetry::enabled() {
                    qcf_telemetry::registry()
                        .counter("stage.dict.engaged")
                        .inc();
                }
                let mut body = scratch::u8s().take_spare(plane.len() / 4 + 64);
                match self.mode {
                    Mode::Ratio => {
                        flags |= 8;
                        stream.launch(
                            &KernelSpec::streaming(
                                "qcf::dict_huffman_emit",
                                nbytes / 2,
                                nbytes / 16 + 64,
                            )
                            .with_pattern(MemoryPattern::BitSerial),
                            || dict::encode_ratio(&q, abs_eb, &mut body),
                        );
                    }
                    Mode::Speed => {
                        flags |= 16;
                        // Two effective passes over the values (table build,
                        // then emission) — the same pass structure as cuSZx.
                        stream.launch(
                            &KernelSpec::streaming(
                                "qcf::fused_dict_encode",
                                2 * nbytes,
                                nbytes / 8 + 64,
                            )
                            .with_pattern(MemoryPattern::Strided)
                            .with_flops(3 * plane.len() as u64),
                            || dict::encode_speed(&q, abs_eb, &mut body),
                        );
                    }
                }
                let finished = self.finish_plane(flags, &body, stream, out);
                scratch::u8s().put(body);
                return finished;
            }
        }

        // P2: zero collapse — engage only when it will pay for its half of
        // the error budget.
        if self.stages.zero_collapse {
            let _span = qcf_telemetry::span!("stage.zero_collapse");
            let threshold = abs_eb / 2.0;
            let frac = stream.launch(&KernelSpec::streaming("qcf::zero_probe", nbytes, 0), || {
                zero_frac(&plane[..], threshold)
            });
            if frac >= COLLAPSE_MIN_FRAC {
                if qcf_telemetry::enabled() {
                    qcf_telemetry::registry()
                        .counter("stage.zero_collapse.engaged")
                        .inc();
                }
                stream.launch(
                    &KernelSpec::streaming("qcf::zero_collapse", nbytes, nbytes),
                    || zero_collapse(plane.to_mut(), threshold),
                );
                backend_eb = abs_eb / 2.0;
                flags |= 1;
            }
        }

        // P3: block dedup — engage when enough blocks repeat.
        let backend = self.backend();
        let mut deduped = None;
        if self.stages.dedup {
            let _span = qcf_telemetry::span!("stage.dedup");
            let d = stream.launch(
                &KernelSpec::streaming("qcf::dedup_hash", nbytes, nbytes / 64)
                    .with_pattern(MemoryPattern::Strided),
                || dedup_blocks(&plane[..], DEDUP_BLOCK),
            );
            if d.dup_frac() >= DEDUP_MIN_FRAC {
                if qcf_telemetry::enabled() {
                    qcf_telemetry::registry()
                        .counter("stage.dedup.engaged")
                        .inc();
                }
                flags |= 2;
                deduped = Some(d);
            }
        }

        let mut backend_stream = scratch::u8s().take_spare(plane.len() + 64);
        {
            let _span = qcf_telemetry::span!("stage.backend");
            let input = match &deduped {
                Some(d) => &d.unique[..],
                None => &plane[..],
            };
            backend.compress_into(
                input,
                ErrorBound::Abs(backend_eb),
                stream,
                &mut backend_stream,
            )?;
        }

        let mut body = scratch::u8s().take_spare(backend_stream.len() + 64);
        if let Some(d) = &deduped {
            write_uvarint(&mut body, d.block_size as u64);
            write_refs(&d.refs, d.n_unique, &mut body);
        }
        write_uvarint(&mut body, backend_stream.len() as u64);
        body.extend_from_slice(&backend_stream);
        scratch::u8s().put(backend_stream);
        let finished = self.finish_plane(flags, &body, stream, out);
        scratch::u8s().put(body);
        finished
    }

    /// Applies the optional LZ4 tail pass and writes the plane stream.
    fn finish_plane(
        &self,
        mut flags: u8,
        body: &[u8],
        stream: &Stream,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        if self.stages.lossless_tail {
            let _span = qcf_telemetry::span!("stage.tail");
            let tailed = stream.launch(
                &KernelSpec::streaming("qcf::tail_lz4", (body.len() * 3) as u64, body.len() as u64)
                    .with_pattern(MemoryPattern::Random),
                || {
                    let mut t = scratch::u8s().take_spare(body.len());
                    lz4_encode_block(body, &mut t);
                    t
                },
            );
            let wins = tailed.len() + 10 < body.len();
            if wins {
                if qcf_telemetry::enabled() {
                    qcf_telemetry::registry()
                        .counter("stage.tail.engaged")
                        .inc();
                }
                flags |= 4;
                out.push(flags);
                write_uvarint(out, body.len() as u64);
                write_uvarint(out, tailed.len() as u64);
                out.extend_from_slice(&tailed);
            }
            scratch::u8s().put(tailed);
            if wins {
                return Ok(());
            }
        }
        out.push(flags);
        out.extend_from_slice(body);
        Ok(())
    }

    /// Decodes one plane stream into `out` (cleared first, capacity
    /// reused); `n` is the plane's value count.
    fn decode_plane_into(
        &self,
        bytes: &[u8],
        pos: &mut usize,
        n: usize,
        stream: &Stream,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        let flags = *bytes.get(*pos).ok_or(CodecError::UnexpectedEof)?;
        *pos += 1;
        if flags & !31 != 0 || (flags & 8 != 0 && flags & 16 != 0) {
            return Err(CodecError::Corrupt("unknown plane flags"));
        }

        // Undo the tail pass first.
        let body_storage;
        let (body, body_pos): (&[u8], usize) = if flags & 4 != 0 {
            let raw_len = read_uvarint(bytes, pos)? as usize;
            if raw_len > n * 16 + 4096 {
                return Err(CodecError::Corrupt("absurd tail length"));
            }
            let tailed_len = read_uvarint(bytes, pos)? as usize;
            if bytes.len() < *pos + tailed_len {
                return Err(CodecError::UnexpectedEof);
            }
            body_storage = stream.launch(
                &KernelSpec::streaming("qcf::untail_lz4", tailed_len as u64, raw_len as u64),
                || lz4_decode_block(&bytes[*pos..*pos + tailed_len], raw_len),
            )?;
            *pos += tailed_len;
            (&body_storage[..], 0)
        } else {
            (bytes, *pos)
        };
        let mut p = body_pos;

        if flags & 8 != 0 {
            stream.launch(
                &KernelSpec::streaming("qcf::dict_huffman_decode", (n * 2) as u64, (n * 8) as u64)
                    .with_pattern(MemoryPattern::BitSerial),
                || dict::decode_ratio(body, &mut p, n, out),
            )?;
        } else if flags & 16 != 0 {
            stream.launch(
                &KernelSpec::streaming("qcf::fused_dict_decode", (n * 2) as u64, (n * 8) as u64)
                    .with_pattern(MemoryPattern::Strided)
                    .with_flops(2 * n as u64),
                || dict::decode_speed(body, &mut p, n, out),
            )?;
        } else if flags & 2 != 0 {
            let block_size = read_uvarint(body, &mut p)? as usize;
            if block_size == 0 || block_size > 1 << 20 {
                return Err(CodecError::Corrupt("bad dedup block size"));
            }
            let refs = read_refs(body, &mut p, n.div_ceil(block_size))?;
            let backend_len = read_uvarint(body, &mut p)? as usize;
            if body.len() < p + backend_len {
                return Err(CodecError::UnexpectedEof);
            }
            let mut unique = scratch::f64s().take_spare(n);
            decompress_any_into(&body[p..p + backend_len], stream, &mut unique)?;
            p += backend_len;
            stream.launch(
                &KernelSpec::streaming(
                    "qcf::dedup_scatter",
                    (unique.len() * 8) as u64,
                    (n * 8) as u64,
                )
                .with_pattern(MemoryPattern::Strided),
                || reassemble_blocks_into(&unique, &refs, block_size, n, out),
            )?;
            scratch::f64s().put(unique);
        } else {
            let backend_len = read_uvarint(body, &mut p)? as usize;
            if body.len() < p + backend_len {
                return Err(CodecError::UnexpectedEof);
            }
            decompress_any_into(&body[p..p + backend_len], stream, out)?;
            p += backend_len;
        }
        if out.len() != n {
            return Err(CodecError::Corrupt("plane length mismatch"));
        }
        if flags & 4 == 0 {
            *pos = p;
        }
        Ok(())
    }

    /// The whole compress pipeline: header, optional P1 split, one
    /// [`encode_plane`](Self::encode_plane) per plane.
    fn encode(
        &self,
        data: &[f64],
        bound: ErrorBound,
        stream: &Stream,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let (min, max) = value_range(data);
        let abs_eb = bound.to_abs(max - min);
        if abs_eb.is_nan() || abs_eb <= 0.0 {
            return Err(CodecError::Unsupported("error bound must be positive"));
        }
        let n = data.len();
        let split = self.stages.deinterleave && n.is_multiple_of(2) && n > 0;

        stream_header_into(self.id(), n, out);
        out.push(split as u8);
        out.extend_from_slice(&abs_eb.to_le_bytes());

        if split {
            // P1: de-interleave into pooled planes. Ratio mode materializes
            // the planes (one streaming pass); speed mode folds the gather
            // into its fused encode kernel, so only flops are charged here.
            let deint_span = qcf_telemetry::span!("stage.deinterleave");
            let deint_spec = match self.mode {
                Mode::Ratio => {
                    KernelSpec::streaming("qcf::deinterleave", (n * 8) as u64, (n * 8) as u64)
                }
                Mode::Speed => {
                    KernelSpec::streaming("qcf::deinterleave_fused", 0, 0).with_flops(n as u64)
                }
            };
            let mut re = scratch::f64s().take_spare(n / 2);
            let mut im = scratch::f64s().take_spare(n / 2);
            stream.launch(&deint_spec, || deinterleave_into(data, &mut re, &mut im));
            drop(deint_span);
            // The planes are fully independent after the split, so encode
            // them concurrently (the imaginary plane on an executor pool
            // worker; after the real one on this thread when there is one
            // worker) into separate buffers and concatenate — the same
            // bytes in the same order either way. Stream time is charged
            // at submission (see `gpu_model::Stream`), so the virtual clock
            // is unaffected by the overlap. Each branch recovers its owned
            // plane into the pool once encoding is done; a panic in either
            // is re-raised here once both have finished.
            let encode = |half: Vec<f64>| {
                let mut plane = Cow::Owned(half);
                let mut buf = scratch::u8s().take_spare(n * 4 + 64);
                let res = self
                    .encode_plane(&mut plane, abs_eb, stream, &mut buf)
                    .map(|()| buf);
                if let Cow::Owned(v) = plane {
                    scratch::f64s().put(v);
                }
                res
            };
            let (re_buf, im_buf) = gpu_model::exec::join(|| encode(re), || encode(im));
            let (re_buf, im_buf) = (re_buf?, im_buf?);
            out.extend_from_slice(&re_buf);
            out.extend_from_slice(&im_buf);
            scratch::u8s().put(re_buf);
            scratch::u8s().put(im_buf);
        } else {
            // Borrowed view: encode_plane copies only if zero collapse
            // actually engages, instead of cloning the whole input up front;
            // if it did copy, the copy is pooled for next time.
            let mut plane = Cow::Borrowed(data);
            let res = self.encode_plane(&mut plane, abs_eb, stream, out);
            if let Cow::Owned(v) = plane {
                scratch::f64s().put(v);
            }
            res?;
        }
        if qcf_telemetry::enabled() && !out.is_empty() {
            qcf_telemetry::registry()
                .float_gauge(&format!("compressor.{}.cr", self.name()))
                .set((n * 8) as f64 / out.len() as f64);
        }
        Ok(())
    }

    /// Inverse of [`encode`](Self::encode).
    fn decode(&self, bytes: &[u8], stream: &Stream, out: &mut Vec<f64>) -> Result<(), CodecError> {
        let (n, mut pos) = read_stream_header(bytes, self.id())?;
        let split = *bytes.get(pos).ok_or(CodecError::UnexpectedEof)?;
        pos += 1;
        if split > 1 || (split == 1 && n % 2 != 0) {
            return Err(CodecError::Corrupt("bad split flag"));
        }
        if bytes.len() < pos + 8 {
            return Err(CodecError::UnexpectedEof);
        }
        pos += 8; // abs_eb: informational in the header, not needed to decode

        if split == 1 {
            let mut re = scratch::f64s().take_spare(n / 2);
            let mut im = scratch::f64s().take_spare(n / 2);
            self.decode_plane_into(bytes, &mut pos, n / 2, stream, &mut re)?;
            self.decode_plane_into(bytes, &mut pos, n / 2, stream, &mut im)?;
            stream.launch(
                &KernelSpec::streaming("qcf::interleave", (n * 8) as u64, (n * 8) as u64),
                || interleave_into(&re, &im, out),
            );
            scratch::f64s().put(re);
            scratch::f64s().put(im);
            Ok(())
        } else {
            self.decode_plane_into(bytes, &mut pos, n, stream, out)
        }
    }
}

impl Compressor for QcfCompressor {
    fn name(&self) -> &'static str {
        match self.mode {
            Mode::Ratio => "QCF-ratio",
            Mode::Speed => "QCF-speed",
        }
    }

    fn id(&self) -> u8 {
        match self.mode {
            Mode::Ratio => QCF_RATIO_ID,
            Mode::Speed => QCF_SPEED_ID,
        }
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
        let t0 = lat_start();
        let res = self.encode(data, bound, stream, out);
        if let Some(t0) = t0 {
            self.lat_encode.observe(t0.elapsed().as_secs_f64() * 1e6);
        }
        res
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
        let t0 = lat_start();
        let res = self.decode(bytes, stream, out);
        if let Some(t0) = t0 {
            self.lat_decode.observe(t0.elapsed().as_secs_f64() * 1e6);
        }
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compressors::metrics::assert_bound;
    use gpu_model::DeviceSpec;
    use rand::{Rng, SeedableRng};

    fn stream() -> Stream {
        Stream::new(DeviceSpec::a100())
    }

    /// QTensor-like test data: interleaved complex, mostly tiny magnitudes,
    /// repeated gate-structured slices.
    fn tensor_like(n_complex: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let motif: Vec<(f64, f64)> = (0..64)
            .map(|k| {
                let phase = k as f64 * 0.3;
                (phase.cos() * 0.5, phase.sin() * 0.5)
            })
            .collect();
        let mut out = Vec::with_capacity(n_complex * 2);
        for i in 0..n_complex {
            if rng.gen::<f64>() < 0.6 {
                // near-zero amplitude with noise
                out.push(rng.gen_range(-1e-7..1e-7));
                out.push(rng.gen_range(-1e-7..1e-7));
            } else {
                let (re, im) = motif[i % 64];
                out.push(re);
                out.push(im);
            }
        }
        out
    }

    #[test]
    fn ratio_mode_roundtrip_within_bound() {
        let data = tensor_like(8192, 1);
        let c = QcfCompressor::ratio();
        for eb in [1e-2, 1e-3, 1e-5] {
            let bytes = c.compress(&data, ErrorBound::Abs(eb), &stream()).unwrap();
            let rec = c.decompress(&bytes, &stream()).unwrap();
            assert_bound(&data, &rec, eb);
        }
    }

    #[test]
    fn speed_mode_roundtrip_within_bound() {
        let data = tensor_like(8192, 2);
        let c = QcfCompressor::speed();
        for eb in [1e-2, 1e-4] {
            let bytes = c.compress(&data, ErrorBound::Abs(eb), &stream()).unwrap();
            let rec = c.decompress(&bytes, &stream()).unwrap();
            assert_bound(&data, &rec, eb);
        }
    }

    #[test]
    fn ratio_mode_beats_plain_cusz_substantially() {
        let data = tensor_like(32_768, 3);
        let eb = 1e-4;
        let qcf = QcfCompressor::ratio()
            .compress(&data, ErrorBound::Abs(eb), &stream())
            .unwrap()
            .len();
        let cusz = CuSz::default()
            .compress(&data, ErrorBound::Abs(eb), &stream())
            .unwrap()
            .len();
        let gain = cusz as f64 / qcf as f64;
        assert!(gain > 3.0, "framework gain over cuSZ only {gain:.2}x");
    }

    #[test]
    fn speed_mode_beats_plain_cuszx_ratio() {
        let data = tensor_like(32_768, 4);
        let eb = 1e-4;
        let qcf = QcfCompressor::speed()
            .compress(&data, ErrorBound::Abs(eb), &stream())
            .unwrap()
            .len();
        let szx = CuSzx::default()
            .compress(&data, ErrorBound::Abs(eb), &stream())
            .unwrap()
            .len();
        let gain = szx as f64 / qcf as f64;
        assert!(gain > 1.5, "speed-mode gain over cuSZx only {gain:.2}x");
    }

    #[test]
    fn stage_toggles_all_roundtrip() {
        let data = tensor_like(2048, 5);
        let eb = 1e-4;
        for mask in 0..32u8 {
            let toggles = StageToggles {
                deinterleave: mask & 1 != 0,
                zero_collapse: mask & 2 != 0,
                dedup: mask & 4 != 0,
                lossless_tail: mask & 8 != 0,
                dictionary: mask & 16 != 0,
            };
            for mode in [Mode::Ratio, Mode::Speed] {
                let c = QcfCompressor::with_stages(mode, toggles);
                let bytes = c.compress(&data, ErrorBound::Abs(eb), &stream()).unwrap();
                let rec = c.decompress(&bytes, &stream()).unwrap();
                assert_bound(&data, &rec, eb);
            }
        }
    }

    #[test]
    fn odd_length_falls_back_to_plain() {
        let mut data = tensor_like(100, 6);
        data.pop(); // odd length
        let c = QcfCompressor::ratio();
        let bytes = c.compress(&data, ErrorBound::Abs(1e-4), &stream()).unwrap();
        let rec = c.decompress(&bytes, &stream()).unwrap();
        assert_eq!(rec.len(), data.len());
        assert_bound(&data, &rec, 1e-4);
    }

    #[test]
    fn relative_bound_resolved_once_globally() {
        let data = tensor_like(4096, 7);
        let c = QcfCompressor::ratio();
        let bytes = c.compress(&data, ErrorBound::Rel(1e-3), &stream()).unwrap();
        let rec = c.decompress(&bytes, &stream()).unwrap();
        let (min, max) = value_range(&data);
        assert_bound(&data, &rec, 1e-3 * (max - min));
    }

    #[test]
    fn empty_input() {
        let c = QcfCompressor::ratio();
        let bytes = c.compress(&[], ErrorBound::Abs(1e-3), &stream()).unwrap();
        assert!(c.decompress(&bytes, &stream()).unwrap().is_empty());
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let data = tensor_like(1024, 8);
        let c = QcfCompressor::ratio();
        let bytes = c.compress(&data, ErrorBound::Abs(1e-4), &stream()).unwrap();
        for cut in [0, 1, 3, 12, bytes.len() / 2, bytes.len() - 1] {
            let _ = c.decompress(&bytes[..cut], &stream());
        }
        let mut bad = bytes.clone();
        for i in (0..bad.len()).step_by(17) {
            bad[i] ^= 0x81;
        }
        let _ = c.decompress(&bad, &stream());
    }

    #[test]
    fn speed_mode_stays_near_cuszx_throughput() {
        let data = tensor_like(1 << 17, 9);
        let eb = 1e-4;
        let s_qcf = stream();
        QcfCompressor::speed()
            .compress(&data, ErrorBound::Abs(eb), &s_qcf)
            .unwrap();
        let s_szx = stream();
        CuSzx::default()
            .compress(&data, ErrorBound::Abs(eb), &s_szx)
            .unwrap();
        let slowdown = s_qcf.elapsed_s() / s_szx.elapsed_s();
        assert!(
            slowdown < 2.5,
            "speed mode {slowdown:.2}x slower than cuSZx — should be comparable"
        );
    }
}
