//! The quantization-dictionary stage (P3) — the framework's biggest lever.
//!
//! Measured QTensor intermediates (experiment E1) contain very few distinct
//! values: entries are sums of products of a handful of gate-matrix entries,
//! so a tensor of thousands of elements typically holds only dozens to a few
//! hundred distinct values, scattered (not blocked). Generic predictors see
//! high-entropy deltas; a *dictionary* sees a tiny alphabet.
//!
//! The stage quantizes every value to `q = round(v / 2eb)` — an
//! error-bounded map (`|v − q·2eb| ≤ eb`) that also merges near-duplicates
//! — then stores the distinct `q`s once and codes the index stream:
//!
//! * **Ratio flavour**: the index stream (u8 when D ≤ 256, else u16) runs
//!   through the DEFLATE-style byte codec — Huffman captures the alphabet
//!   skew and LZ77 captures the strong *positional* repetition tensor
//!   slices exhibit; zero-heavy or periodic streams go far below 1
//!   bit/value.
//! * **Speed flavour**: a frequency-sorted *hot/cold* two-level code — the
//!   `2^b` most frequent symbols cost `1 + b` bits, the rest `1 + ⌈log₂ D⌉`
//!   bits — optionally fronted by a *stride predictor*: tensor slices tile
//!   short patterns, so `idx[i] == idx[i − L]` for the innermost repeat
//!   stride `L` (and trivially inside near-zero regions). Matches are
//!   run-length coded (9 bits per ≤256-run), misses fall back to the
//!   hot/cold code. The encoder counts hits for a few candidate strides,
//!   computes the exact bit cost of all three layouts (plain fixed-width,
//!   hot/cold, stride-RLE) and picks the smallest — all single-pass,
//!   block-parallel work of the same shape as cuSZx's constant-block
//!   detection.
//!
//! When the distinct count exceeds [`DICT_CAP`] the stage reports
//! inapplicable and the framework falls back to its backend compressor.

use codec_kit::bitio::{BitReader, BitWriter};
use codec_kit::bitpack::unpack;
use codec_kit::varint::{read_ivarint, read_uvarint, write_ivarint, write_uvarint};
use codec_kit::CodecError;
use compressors::gdeflate::{deflate_bytes, inflate_bytes};
use std::collections::HashMap;

/// Maximum dictionary entries before the stage declares inapplicability.
pub const DICT_CAP: usize = 4096;

/// Quantized representation: distinct codes + per-value index.
#[derive(Debug, Clone)]
pub struct Quantized {
    /// Distinct quantization codes, first-occurrence order.
    pub table: Vec<i64>,
    /// Per-value index into `table`.
    pub indices: Vec<u32>,
    /// Index of code 0 in `table`, if present.
    pub zero_index: Option<u32>,
}

/// Quantizes a plane at bound `eb`; `None` when the dictionary would
/// overflow [`DICT_CAP`] or a code would overflow the safe integer range.
pub fn quantize(plane: &[f64], eb: f64) -> Option<Quantized> {
    debug_assert!(eb > 0.0);
    let twoeb = 2.0 * eb;
    let mut map: HashMap<i64, u32> = HashMap::with_capacity(256);
    let mut table: Vec<i64> = Vec::new();
    let mut indices: Vec<u32> = Vec::with_capacity(plane.len());
    for &v in plane {
        let scaled = v / twoeb;
        if scaled.is_nan() || scaled.abs() >= 4.5e15 {
            return None; // code would lose integer exactness (or NaN)
        }
        let q = scaled.round() as i64;
        let next = table.len() as u32;
        let idx = *map.entry(q).or_insert_with(|| {
            table.push(q);
            next
        });
        if table.len() > DICT_CAP {
            return None;
        }
        indices.push(idx);
    }
    let zero_index = map.get(&0).copied();
    Some(Quantized {
        table,
        indices,
        zero_index,
    })
}

fn write_table(table: &[i64], eb: f64, out: &mut Vec<u8>) {
    out.extend_from_slice(&eb.to_le_bytes());
    write_uvarint(out, table.len() as u64);
    for &q in table {
        write_ivarint(out, q);
    }
}

fn read_table(data: &[u8], pos: &mut usize) -> Result<(Vec<i64>, f64), CodecError> {
    if data.len() < *pos + 8 {
        return Err(CodecError::UnexpectedEof);
    }
    let eb = f64::from_le_bytes(data[*pos..*pos + 8].try_into().unwrap());
    *pos += 8;
    if eb.is_nan() || eb <= 0.0 || !eb.is_finite() {
        return Err(CodecError::Corrupt("bad dictionary error bound"));
    }
    let d = read_uvarint(data, pos)? as usize;
    if d == 0 || d > DICT_CAP {
        return Err(CodecError::Corrupt("dictionary size out of range"));
    }
    let mut table = Vec::with_capacity(d);
    for _ in 0..d {
        table.push(read_ivarint(data, pos)?);
    }
    Ok((table, eb))
}

/// Ratio flavour: dictionary + DEFLATE-coded index stream. Huffman inside
/// the byte codec captures symbol skew; LZ77 captures positional repetition
/// (tensor slices repeat their index patterns wholesale).
pub fn encode_ratio(q: &Quantized, eb: f64, out: &mut Vec<u8>) {
    write_uvarint(out, q.indices.len() as u64);
    write_table(&q.table, eb, out);
    let wide = q.table.len() > 256;
    out.push(wide as u8);
    let bytes: Vec<u8> = if wide {
        q.indices
            .iter()
            .flat_map(|&i| (i as u16).to_le_bytes())
            .collect()
    } else {
        q.indices.iter().map(|&i| i as u8).collect()
    };
    out.extend_from_slice(&deflate_bytes(&bytes));
}

/// Decodes [`encode_ratio`] back to plane values into `out` (cleared
/// first, capacity reused).
pub fn decode_ratio(data: &[u8], pos: &mut usize, out: &mut Vec<f64>) -> Result<(), CodecError> {
    out.clear();
    let n = read_uvarint(data, pos)? as usize;
    if n > 1 << 40 {
        return Err(CodecError::Corrupt("absurd dictionary element count"));
    }
    if n > (1 << 16) + data.len().saturating_mul(1 << 23) {
        return Err(CodecError::Corrupt(
            "declared length exceeds remaining input",
        ));
    }
    let (table, eb) = read_table(data, pos)?;
    let wide = *data.get(*pos).ok_or(CodecError::UnexpectedEof)?;
    *pos += 1;
    if wide > 1 {
        return Err(CodecError::Corrupt("bad index-width flag"));
    }
    let per = if wide == 1 { 2usize } else { 1 };
    // Inflate yields exactly `n * per` bytes or errors, so the reserve
    // below is backed by real input.
    let raw = inflate_bytes(data, pos, n * per)?;
    let twoeb = 2.0 * eb;
    let lookup = |idx: usize| -> Result<f64, CodecError> {
        table
            .get(idx)
            .map(|&q| q as f64 * twoeb)
            .ok_or(CodecError::Corrupt("dictionary index out of range"))
    };
    out.reserve(n);
    if wide == 1 {
        for c in raw.chunks_exact(2) {
            out.push(lookup(u16::from_le_bytes([c[0], c[1]]) as usize)?);
        }
    } else {
        for &b in &raw {
            out.push(lookup(b as usize)?);
        }
    }
    Ok(())
}

/// Speed flavour: frequency-sorted dictionary + hot/cold two-level code.
///
/// The table is permuted so the most frequent symbol has index 0; the
/// stream stores the permuted table, so decode needs no side information
/// beyond the chosen hot width `b`.
pub fn encode_speed(q: &Quantized, eb: f64, out: &mut Vec<u8>) {
    let n = q.indices.len();
    let d = q.table.len();
    write_uvarint(out, n as u64);

    // Frequency-sort the table and remap indices.
    let mut freqs = vec![0u64; d];
    for &idx in &q.indices {
        freqs[idx as usize] += 1;
    }
    let mut order: Vec<u32> = (0..d as u32).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(freqs[i as usize]));
    let mut remap = vec![0u32; d];
    let mut sorted_table = Vec::with_capacity(d);
    let mut sorted_freqs = Vec::with_capacity(d);
    for (new, &old) in order.iter().enumerate() {
        remap[old as usize] = new as u32;
        sorted_table.push(q.table[old as usize]);
        sorted_freqs.push(freqs[old as usize]);
    }
    write_table(&sorted_table, eb, out);

    // Hot/cold width minimizing that layout's bits.
    let full = index_width(d);
    let prefix: Vec<u64> = sorted_freqs
        .iter()
        .scan(0u64, |acc, &f| {
            *acc += f;
            Some(*acc)
        })
        .collect();
    let plain_cost = n as u64 * full as u64;
    let mut hot_choice: Option<(u32, u64)> = None;
    for b in 0..full {
        let hot_syms = (1usize << b).min(d);
        let hot = prefix[hot_syms - 1];
        let cold = n as u64 - hot;
        let cost = n as u64 + hot * b as u64 + cold * full as u64;
        if hot_choice.is_none_or(|(_, c)| cost < c) {
            hot_choice = Some((b, cost));
        }
    }
    let (b, hot_cost) = hot_choice.unwrap_or((0, plain_cost));

    // Stride predictor: pick the lag with the most idx[i] == idx[i-L] hits
    // (out-of-range predecessors predict index 0, the top symbol).
    let remapped: Vec<u32> = q.indices.iter().map(|&i| remap[i as usize]).collect();
    // Power-of-two candidate strides up to 4096 — tensor dims are powers of
    // two, so the innermost repeated extent is one of these.
    const LAGS: [usize; 13] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];
    let mut best_lag = 1usize;
    let mut best_hits = 0u64;
    for &lag in &LAGS {
        let hits = remapped
            .iter()
            .enumerate()
            .filter(|&(i, &idx)| idx == if i >= lag { remapped[i - lag] } else { 0 })
            .count() as u64;
        if hits > best_hits {
            best_hits = hits;
            best_lag = lag;
        }
    }
    // Hot width for the misses alone.
    let mut miss_freqs = vec![0u64; d];
    let mut miss_total = 0u64;
    for (i, &idx) in remapped.iter().enumerate() {
        let pred = if i >= best_lag {
            remapped[i - best_lag]
        } else {
            0
        };
        if idx != pred {
            miss_freqs[idx as usize] += 1;
            miss_total += 1;
        }
    }
    let miss_prefix: Vec<u64> = miss_freqs
        .iter()
        .scan(0u64, |acc, &f| {
            *acc += f;
            Some(*acc)
        })
        .collect();
    let mut stride_choice: Option<(u32, u64)> = None;
    for sb in 0..=full {
        let hot_syms = (1usize << sb).min(d);
        let hot = miss_prefix[hot_syms.max(1) - 1];
        let cold = miss_total - hot;
        // Miss bits only; the match-run chunk cost is added below once the
        // exact run count is known (it does not depend on sb).
        let cost = miss_total * 2 + hot * sb as u64 + cold * full as u64;
        if stride_choice.is_none_or(|(_, c)| cost < c) {
            stride_choice = Some((sb, cost));
        }
    }
    let (sb, miss_cost) = stride_choice.unwrap_or((0, u64::MAX));
    // Count match runs exactly for the run-chunk cost.
    let mut run_chunks = 0u64;
    {
        let mut i = 0usize;
        while i < n {
            let pred = if i >= best_lag {
                remapped[i - best_lag]
            } else {
                0
            };
            if remapped[i] == pred {
                let mut run = 1usize;
                while i + run < n {
                    let j = i + run;
                    let pred = if j >= best_lag {
                        remapped[j - best_lag]
                    } else {
                        0
                    };
                    if remapped[j] != pred {
                        break;
                    }
                    run += 1;
                }
                run_chunks += run.div_ceil(256) as u64;
                i += run;
            } else {
                i += 1;
            }
        }
    }
    let stride_cost = 9 * run_chunks + miss_cost;

    let mut w = BitWriter::with_capacity(n / 4 + 16);
    if stride_cost < hot_cost.min(plain_cost) {
        out.push(2);
        out.push(sb as u8);
        out.push(best_lag.trailing_zeros() as u8); // lag stored as exponent
        let hot_limit = 1u32 << sb;
        let mut i = 0usize;
        while i < n {
            let pred = if i >= best_lag {
                remapped[i - best_lag]
            } else {
                0
            };
            if remapped[i] == pred {
                let mut run = 1usize;
                while i + run < n {
                    let j = i + run;
                    let pred = if j >= best_lag {
                        remapped[j - best_lag]
                    } else {
                        0
                    };
                    if remapped[j] != pred {
                        break;
                    }
                    run += 1;
                }
                let mut rest = run;
                while rest > 0 {
                    let chunk = rest.min(256);
                    w.write_bit(false);
                    w.write_bits((chunk - 1) as u64, 8);
                    rest -= chunk;
                }
                i += run;
            } else {
                w.write_bit(true);
                let idx = remapped[i];
                if idx < hot_limit {
                    w.write_bit(false);
                    w.write_bits(idx as u64, sb);
                } else {
                    w.write_bit(true);
                    w.write_bits(idx as u64, full);
                }
                i += 1;
            }
        }
    } else if hot_cost < plain_cost {
        out.push(1);
        out.push(b as u8);
        let hot_limit = 1u32 << b;
        for &idx in &remapped {
            if idx < hot_limit {
                w.write_bit(false);
                w.write_bits(idx as u64, b);
            } else {
                w.write_bit(true);
                w.write_bits(idx as u64, full);
            }
        }
    } else {
        out.push(0);
        for &idx in &remapped {
            w.write_bits(idx as u64, full);
        }
    }
    let payload = w.finish();
    write_uvarint(out, payload.len() as u64);
    out.extend_from_slice(&payload);
}

/// Decodes [`encode_speed`] into `out` (cleared first, capacity reused).
pub fn decode_speed(data: &[u8], pos: &mut usize, out: &mut Vec<f64>) -> Result<(), CodecError> {
    out.clear();
    let n = read_uvarint(data, pos)? as usize;
    if n > 1 << 40 {
        return Err(CodecError::Corrupt("absurd dictionary element count"));
    }
    if n > (1 << 16) + data.len().saturating_mul(1 << 23) {
        return Err(CodecError::Corrupt(
            "declared length exceeds remaining input",
        ));
    }
    let (table, eb) = read_table(data, pos)?;
    let mode = *data.get(*pos).ok_or(CodecError::UnexpectedEof)?;
    *pos += 1;
    let full = index_width(table.len());
    let twoeb = 2.0 * eb;

    let lookup = |idx: u64| -> Result<f64, CodecError> {
        table
            .get(idx as usize)
            .map(|&q| q as f64 * twoeb)
            .ok_or(CodecError::Corrupt("dictionary index out of range"))
    };

    match mode {
        1 => {
            let b = *data.get(*pos).ok_or(CodecError::UnexpectedEof)? as u32;
            *pos += 1;
            if b >= 32 {
                return Err(CodecError::Corrupt("hot width out of range"));
            }
            let payload_len = read_uvarint(data, pos)? as usize;
            if data.len() < *pos + payload_len {
                return Err(CodecError::UnexpectedEof);
            }
            let mut r = BitReader::new(&data[*pos..*pos + payload_len]);
            *pos += payload_len;
            // every symbol costs ≥ 1 payload bit — reject forged counts
            // before reserving
            if n > payload_len.saturating_mul(8) {
                return Err(CodecError::Corrupt("declared length exceeds payload"));
            }
            out.reserve(n);
            for _ in 0..n {
                let cold = r.read_bit()?;
                let idx = if cold {
                    r.read_bits(full)?
                } else {
                    r.read_bits(b)?
                };
                out.push(lookup(idx)?);
            }
            Ok(())
        }
        2 => {
            let sb = *data.get(*pos).ok_or(CodecError::UnexpectedEof)? as u32;
            *pos += 1;
            if sb >= 32 {
                return Err(CodecError::Corrupt("hot width out of range"));
            }
            let lag_exp = *data.get(*pos).ok_or(CodecError::UnexpectedEof)? as u32;
            *pos += 1;
            if lag_exp > 12 {
                return Err(CodecError::Corrupt("stride lag out of range"));
            }
            let lag = 1usize << lag_exp;
            let payload_len = read_uvarint(data, pos)? as usize;
            if data.len() < *pos + payload_len {
                return Err(CodecError::UnexpectedEof);
            }
            let mut r = BitReader::new(&data[*pos..*pos + payload_len]);
            *pos += payload_len;
            // capped reservation: a run chunk expands 9 bits into ≤ 256
            // values, so trust growth rather than the declared count
            let mut idxs: Vec<u32> = Vec::with_capacity(n.min(1 << 20));
            while idxs.len() < n {
                if r.read_bit()? {
                    let cold = r.read_bit()?;
                    let idx = if cold {
                        r.read_bits(full)?
                    } else {
                        r.read_bits(sb)?
                    } as u32;
                    if idx as usize >= table.len() {
                        return Err(CodecError::Corrupt("dictionary index out of range"));
                    }
                    idxs.push(idx);
                } else {
                    let run = r.read_bits(8)? as usize + 1;
                    if idxs.len() + run > n {
                        return Err(CodecError::Corrupt("run overruns output"));
                    }
                    for _ in 0..run {
                        let i = idxs.len();
                        let pred = if i >= lag { idxs[i - lag] } else { 0 };
                        idxs.push(pred);
                    }
                }
            }
            out.reserve(idxs.len());
            for i in idxs {
                out.push(lookup(i as u64)?);
            }
            Ok(())
        }
        0 => {
            let payload_len = read_uvarint(data, pos)? as usize;
            if data.len() < *pos + payload_len {
                return Err(CodecError::UnexpectedEof);
            }
            let mut r = BitReader::new(&data[*pos..*pos + payload_len]);
            *pos += payload_len;
            let packed = unpack(&mut r, full, n)?;
            out.reserve(packed.len());
            for idx in packed {
                out.push(lookup(idx)?);
            }
            Ok(())
        }
        _ => Err(CodecError::Corrupt("bad dictionary mode byte")),
    }
}

/// Bits needed per index for a `d`-entry table (0 when one entry).
#[inline]
pub fn index_width(d: usize) -> u32 {
    if d <= 1 {
        0
    } else {
        64 - (d as u64 - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn sample_plane(n: usize, zero_frac: f64, alphabet: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let values: Vec<f64> = (0..alphabet)
            .map(|k| (k as f64 * 0.7).sin() * 0.5)
            .collect();
        (0..n)
            .map(|_| {
                if rng.gen::<f64>() < zero_frac {
                    rng.gen_range(-1e-8..1e-8)
                } else {
                    values[rng.gen_range(0..alphabet)]
                }
            })
            .collect()
    }

    fn check_bound(orig: &[f64], rec: &[f64], eb: f64) {
        for (a, b) in orig.iter().zip(rec) {
            assert!((a - b).abs() <= eb * (1.0 + 1e-12), "|{a}-{b}| > {eb}");
        }
    }

    #[test]
    fn quantize_builds_small_table() {
        let plane = sample_plane(4096, 0.6, 50, 1);
        let q = quantize(&plane, 1e-4).unwrap();
        assert!(q.table.len() <= 52, "table has {} entries", q.table.len());
        assert!(q.zero_index.is_some());
        assert_eq!(q.indices.len(), plane.len());
    }

    #[test]
    fn quantize_bails_on_dense_values() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let plane: Vec<f64> = (0..20_000).map(|_| rng.gen_range(-1.0..1.0)).collect();
        assert!(
            quantize(&plane, 1e-7).is_none(),
            "20k random values at 1e-7 must overflow"
        );
    }

    #[test]
    fn quantize_bails_on_nan_or_overflow() {
        assert!(quantize(&[f64::NAN], 1e-4).is_none());
        assert!(quantize(&[1e300], 1e-9).is_none());
    }

    #[test]
    fn ratio_roundtrip_within_bound() {
        let plane = sample_plane(8192, 0.7, 80, 3);
        let eb = 1e-4;
        let q = quantize(&plane, eb).unwrap();
        let mut buf = Vec::new();
        encode_ratio(&q, eb, &mut buf);
        let mut pos = 0;
        let mut rec = Vec::new();
        decode_ratio(&buf, &mut pos, &mut rec).unwrap();
        assert_eq!(pos, buf.len());
        check_bound(&plane, &rec, eb);
        // zero-heavy small-alphabet stream should crush
        let cr = (plane.len() * 8) as f64 / buf.len() as f64;
        assert!(cr > 12.0, "ratio-flavour CR only {cr:.1}");
    }

    #[test]
    fn speed_roundtrip_within_bound_hot_cold() {
        let plane = sample_plane(8192, 0.7, 80, 4);
        let eb = 1e-4;
        let q = quantize(&plane, eb).unwrap();
        let mut buf = Vec::new();
        encode_speed(&q, eb, &mut buf);
        let mut pos = 0;
        let mut rec = Vec::new();
        decode_speed(&buf, &mut pos, &mut rec).unwrap();
        assert_eq!(pos, buf.len());
        check_bound(&plane, &rec, eb);
        let cr = (plane.len() * 8) as f64 / buf.len() as f64;
        assert!(cr > 10.0, "speed-flavour CR only {cr:.1}");
    }

    #[test]
    fn speed_roundtrip_no_zeros_plain_mode() {
        let plane = sample_plane(2048, 0.0, 40, 5);
        let eb = 1e-5;
        let q = quantize(&plane, eb).unwrap();
        let mut buf = Vec::new();
        encode_speed(&q, eb, &mut buf);
        let mut pos = 0;
        let mut rec = Vec::new();
        decode_speed(&buf, &mut pos, &mut rec).unwrap();
        check_bound(&plane, &rec, eb);
    }

    #[test]
    fn single_distinct_value_is_nearly_free() {
        let plane = vec![0.25f64; 10_000];
        let eb = 1e-6;
        let q = quantize(&plane, eb).unwrap();
        assert_eq!(q.table.len(), 1);
        let mut buf = Vec::new();
        encode_speed(&q, eb, &mut buf);
        assert!(buf.len() < 64, "constant plane took {} bytes", buf.len());
        let (mut pos, mut rec) = (0, Vec::new());
        decode_speed(&buf, &mut pos, &mut rec).unwrap();
        check_bound(&plane, &rec, eb);
    }

    #[test]
    fn empty_plane() {
        let q = quantize(&[], 1e-4).unwrap();
        let mut buf = Vec::new();
        encode_ratio(&q, 1e-4, &mut buf);
        // An empty index stream still writes a (degenerate) table; the
        // framework never calls the dictionary on empty planes, but the
        // codec itself must not panic.
        assert!(quantize(&[], 1e-4).unwrap().indices.is_empty());
        let _ = buf;
    }

    #[test]
    fn corrupt_streams_error() {
        let plane = sample_plane(512, 0.5, 30, 6);
        let q = quantize(&plane, 1e-4).unwrap();
        let mut ratio = Vec::new();
        encode_ratio(&q, 1e-4, &mut ratio);
        let mut speed = Vec::new();
        encode_speed(&q, 1e-4, &mut speed);
        for buf in [&ratio, &speed] {
            for cut in [0usize, 1, 5, buf.len() / 2] {
                let mut out = Vec::new();
                let mut pos = 0;
                let _ = decode_ratio(&buf[..cut], &mut pos, &mut out);
                let mut pos = 0;
                let _ = decode_speed(&buf[..cut], &mut pos, &mut out);
            }
        }
    }

    #[test]
    fn index_width_edge_cases() {
        assert_eq!(index_width(0), 0);
        assert_eq!(index_width(1), 0);
        assert_eq!(index_width(2), 1);
        assert_eq!(index_width(3), 2);
        assert_eq!(index_width(256), 8);
        assert_eq!(index_width(257), 9);
    }
}
