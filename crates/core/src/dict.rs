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
//!   hot/cold code. The encoder computes the exact bit cost of all three
//!   layouts (plain fixed-width, hot/cold, stride-RLE) and emits the
//!   smallest.
//!
//! [`quantize_scalar`] and [`encode_speed_scalar`] are the format
//! definition: one map probe per value, then separate frequency, remap,
//! per-lag, miss, run and emission passes. [`quantize`] and
//! [`encode_speed`] write the same bytes with less work:
//!
//! * `quantize` rounds without a libm call and looks codes up in an
//!   open-addressing table, with a fast path for a repeat of the previous
//!   code;
//! * `encode_speed` never materializes the remapped index stream: one
//!   frequency pass, one branch-free compare per candidate stride (the
//!   remap is a bijection, so hits on the original indices are hits on the
//!   remapped ones), one pass that counts the chosen stride's misses and
//!   run chunks together, and one emission pass that writes each symbol's
//!   flag and index bits in a single call into a payload sized exactly
//!   from the winning layout's bit cost.
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
#[derive(Debug, Clone, PartialEq)]
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
///
/// Same result as [`quantize_scalar`], the format definition, in every
/// case (table order, indices, `zero_index`, and when it gives `None`).
pub fn quantize(plane: &[f64], eb: f64) -> Option<Quantized> {
    debug_assert!(eb > 0.0);
    let twoeb = 2.0 * eb;
    let mut map = CodeMap::new();
    let mut table: Vec<i64> = Vec::with_capacity(64);
    let mut indices: Vec<u32> = Vec::with_capacity(plane.len());
    // `i64::MIN` is no code: every code is below 4.5e15 in magnitude.
    let (mut last_q, mut last_idx) = (i64::MIN, 0u32);
    for &v in plane {
        let scaled = v / twoeb;
        if scaled.is_nan() || scaled.abs() >= 4.5e15 {
            return None;
        }
        let q = round_code(scaled);
        if q != last_q {
            last_idx = map.index_or_insert(q, &mut table)?;
            last_q = q;
        }
        indices.push(last_idx);
    }
    let zero_index = map.get(0, &table);
    Some(Quantized {
        table,
        indices,
        zero_index,
    })
}

/// `scaled.round() as i64` for `|scaled| < 4.5e15`, without the libm call
/// `f64::round` compiles to on baseline x86-64. Below 2^52 the truncating
/// cast is exact and so is the fraction `scaled - trunc`, so comparing the
/// fraction with ±0.5 rounds half away from zero exactly as `round` does.
#[inline(always)]
fn round_code(scaled: f64) -> i64 {
    let t = scaled as i64;
    let frac = scaled - t as f64;
    t + (frac >= 0.5) as i64 - (frac <= -0.5) as i64
}

/// Open-addressing map from quantization code to table index.
///
/// Slots hold `index + 1` (0 = empty); the keys live in the table itself,
/// which stays in first-occurrence order. Linear probing over a
/// power-of-two slot array kept at most half full. The multiply-shift
/// hash takes a per-process random odd multiplier, so an input cannot be
/// prepared in advance to make its codes collide.
struct CodeMap {
    slots: Vec<u32>,
    mul: u64,
    shift: u32,
}

impl CodeMap {
    /// 2^10 slots hold 512 codes before the first growth, past the p90
    /// dictionary size of QTensor planes.
    const INITIAL_BITS: u32 = 10;

    fn new() -> Self {
        static MUL: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
        let mul = *MUL.get_or_init(|| {
            use std::hash::BuildHasher;
            std::collections::hash_map::RandomState::new().hash_one(0x51ed_270bu64) | 1
        });
        CodeMap {
            slots: vec![0; 1 << Self::INITIAL_BITS],
            mul,
            shift: 64 - Self::INITIAL_BITS,
        }
    }

    /// The slot holding `q`, or the empty slot where it belongs.
    #[inline]
    fn probe(&self, q: i64, table: &[i64]) -> usize {
        let mask = self.slots.len() - 1;
        let mut h = ((q as u64).wrapping_mul(self.mul) >> self.shift) as usize;
        loop {
            let s = self.slots[h];
            if s == 0 || table[s as usize - 1] == q {
                return h;
            }
            h = (h + 1) & mask;
        }
    }

    /// Index of `q` in `table`, if present.
    fn get(&self, q: i64, table: &[i64]) -> Option<u32> {
        self.slots[self.probe(q, table)].checked_sub(1)
    }

    /// Index of `q`, appending it to `table` when new; `None` when that
    /// would take the table past [`DICT_CAP`].
    #[inline]
    fn index_or_insert(&mut self, q: i64, table: &mut Vec<i64>) -> Option<u32> {
        let h = self.probe(q, table);
        if let Some(idx) = self.slots[h].checked_sub(1) {
            return Some(idx);
        }
        if table.len() == DICT_CAP {
            return None;
        }
        table.push(q);
        self.slots[h] = table.len() as u32;
        if table.len() * 2 > self.slots.len() {
            self.slots = vec![0; self.slots.len() * 2];
            self.shift -= 1;
            for (i, &code) in table.iter().enumerate() {
                let h = self.probe(code, table);
                self.slots[h] = i as u32 + 1;
            }
        }
        Some(table.len() as u32 - 1)
    }
}

/// The format definition of [`quantize`]: one hash-map probe per value.
/// Kept as the reference the bit-identity tests compare against.
pub fn quantize_scalar(plane: &[f64], eb: f64) -> Option<Quantized> {
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
///
/// `n` is the plane length the caller expects; a stream that declares any
/// other count is rejected before anything is reserved for it.
pub fn decode_ratio(
    data: &[u8],
    pos: &mut usize,
    n: usize,
    out: &mut Vec<f64>,
) -> Result<(), CodecError> {
    out.clear();
    if read_uvarint(data, pos)? != n as u64 {
        return Err(CodecError::Corrupt(
            "dictionary count differs from plane length",
        ));
    }
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

/// Power-of-two candidate strides of the speed flavour's predictor, up to
/// 4096 — tensor dims are powers of two, so the innermost repeated extent
/// is one of these. The stream stores the chosen one as its exponent.
const LAGS: [usize; 13] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Speed flavour: frequency-sorted dictionary + hot/cold two-level code.
///
/// The table is permuted so the most frequent symbol has index 0; the
/// stream stores the permuted table, so decode needs no side information
/// beyond the chosen hot width `b`.
///
/// Writes the same bytes as [`encode_speed_scalar`], the format
/// definition, in four kinds of pass over the indices (see the module
/// docs); the remapped stream is never materialized.
pub fn encode_speed(q: &Quantized, eb: f64, out: &mut Vec<u8>) {
    let idx = &q.indices[..];
    let n = idx.len();
    let d = q.table.len();
    write_uvarint(out, n as u64);

    // Frequency order, most frequent first; the stable sort breaks ties by
    // table order, as the reference does.
    let mut freqs = vec![0u64; d];
    for &i in idx {
        freqs[i as usize] += 1;
    }
    let mut order: Vec<u32> = (0..d as u32).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(freqs[i as usize]));
    let mut remap = vec![0u32; d];
    for (new, &old) in order.iter().enumerate() {
        remap[old as usize] = new as u32;
    }
    let sorted_table: Vec<i64> = order.iter().map(|&old| q.table[old as usize]).collect();
    write_table(&sorted_table, eb, out);

    let full = index_width(d);
    let plain_cost = n as u64 * full as u64;
    let (b, hot_cost) =
        best_hot_width(&freqs, &order, n as u64, 1, 0..full, full).unwrap_or((0, plain_cost));

    // Stride predictor. Out-of-range predecessors predict remapped index
    // 0, which is original index `top`; in range, `remap` is a bijection,
    // so comparing original indices counts the same hits.
    let top = order.first().copied().unwrap_or(0);
    let mut best_lag = 1usize;
    let mut best_hits = 0u64;
    for &lag in &LAGS {
        let head = lag.min(n);
        let hits = idx[..head].iter().filter(|&&i| i == top).count() as u64
            + count_equal(&idx[head..], idx);
        if hits > best_hits {
            best_hits = hits;
            best_lag = lag;
        }
    }
    // The chosen stride's misses (per symbol, for the hot width) and match
    // runs (in ≤256-value chunks), in one pass.
    let head = best_lag.min(n);
    let mut miss_freqs = vec![0u64; d];
    let (mut run, mut run_chunks) = (0usize, 0u64);
    let mut tally = |cur: u32, pred: u32| {
        if cur == pred {
            run_chunks += (run % 256 == 0) as u64;
            run += 1;
        } else {
            miss_freqs[cur as usize] += 1;
            run = 0;
        }
    };
    for &cur in &idx[..head] {
        tally(cur, top);
    }
    for (&cur, &pred) in idx[head..].iter().zip(idx) {
        tally(cur, pred);
    }
    let miss_total = n as u64 - best_hits;
    let (sb, miss_cost) = best_hot_width(&miss_freqs, &order, miss_total, 2, 0..full + 1, full)
        .expect("at least one stride hot width");
    let stride_cost = 9 * run_chunks + miss_cost;

    if stride_cost < hot_cost.min(plain_cost) {
        out.extend_from_slice(&[2, sb as u8, best_lag.trailing_zeros() as u8]);
        let mut w = PayloadWriter::new(out, stride_cost);
        let mut run = 0usize;
        let mut emit = |cur: u32, pred: u32| {
            if cur == pred {
                run += 1;
                return;
            }
            write_run(&mut w, run);
            run = 0;
            // miss flag 1, then the hot/cold code
            let (code, width) = hot_cold(remap[cur as usize], sb, full);
            w.write(code << 1 | 1, width + 1);
        };
        for &cur in &idx[..head] {
            emit(cur, top);
        }
        for (&cur, &pred) in idx[head..].iter().zip(idx) {
            emit(cur, pred);
        }
        write_run(&mut w, run);
        w.finish();
    } else if hot_cost < plain_cost {
        out.extend_from_slice(&[1, b as u8]);
        let mut w = PayloadWriter::new(out, hot_cost);
        for &cur in idx {
            let (code, width) = hot_cold(remap[cur as usize], b, full);
            w.write(code, width);
        }
        w.finish();
    } else {
        out.push(0);
        let mut w = PayloadWriter::new(out, plain_cost);
        if full > 0 {
            for &cur in idx {
                w.write(remap[cur as usize] as u64, full);
            }
        }
        w.finish();
    }
}

/// The two-level code of remapped index `r`: flag 0 and `r` in
/// `hot_width` bits when `r < 2^hot_width`, else flag 1 and `r` in `full`
/// bits. Returns `(bits, bit count)`, flag first.
#[inline(always)]
fn hot_cold(r: u32, hot_width: u32, full: u32) -> (u64, u32) {
    let cold = r >> hot_width != 0;
    let width = if cold { full } else { hot_width };
    ((r as u64) << 1 | cold as u64, 1 + width)
}

/// A match run of `run` values as ≤256-value chunks: flag 0, then
/// `chunk − 1` in 8 bits.
#[inline]
fn write_run(w: &mut PayloadWriter<'_>, mut run: usize) {
    while run > 0 {
        let chunk = run.min(256);
        w.write(((chunk - 1) as u64) << 1, 9);
        run -= chunk;
    }
}

/// LSB-first bit emitter straight into `out`, writing the bytes
/// [`BitWriter`] would, for a payload whose exact bit length is known up
/// front (each speed layout's cost is exactly that). Every write stores
/// the whole 64-bit accumulator at the current byte, into 8 bytes of
/// zeroed slack past the payload, and advances by the bytes it completed,
/// so there is no per-byte spill loop.
struct PayloadWriter<'a> {
    out: &'a mut Vec<u8>,
    end: usize,
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> PayloadWriter<'a> {
    /// Writes the byte length of a `bits`-bit payload to `out` and
    /// reserves the payload behind it.
    fn new(out: &'a mut Vec<u8>, bits: u64) -> Self {
        let len = bits.div_ceil(8) as usize;
        write_uvarint(out, len as u64);
        let pos = out.len();
        out.resize(pos + len + 8, 0);
        PayloadWriter {
            out,
            end: pos + len,
            pos,
            acc: 0,
            nbits: 0,
        }
    }

    /// Appends `value`, which has no bits set at or above `n ≤ 56`.
    #[inline(always)]
    fn write(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 56 && value >> n == 0);
        self.acc |= value << self.nbits;
        self.nbits += n;
        self.out[self.pos..self.pos + 8].copy_from_slice(&self.acc.to_le_bytes());
        let done = self.nbits / 8;
        self.pos += done as usize;
        self.acc >>= 8 * done;
        self.nbits %= 8;
    }

    /// Drops the slack.
    fn finish(self) {
        debug_assert_eq!(
            self.pos + (self.nbits > 0) as usize,
            self.end,
            "a layout's cost must be its payload's bit length"
        );
        self.out.truncate(self.end);
    }
}

/// `(width, bits)` of the hot width in `widths` that minimizes a hot/cold
/// layout's bits: `total` symbols of which the `2^width` most frequent
/// (by `order`) cost `flag_bits + width` bits and the rest
/// `flag_bits + full`. The first minimum wins, as in the reference.
fn best_hot_width(
    counts: &[u64],
    order: &[u32],
    total: u64,
    flag_bits: u64,
    widths: std::ops::Range<u32>,
    full: u32,
) -> Option<(u32, u64)> {
    let mut best: Option<(u32, u64)> = None;
    let (mut covered, mut hot) = (0usize, 0u64);
    for width in widths {
        let hot_syms = (1usize << width).min(order.len());
        hot += order[covered..hot_syms]
            .iter()
            .map(|&o| counts[o as usize])
            .sum::<u64>();
        covered = hot_syms;
        let cost = total * flag_bits + hot * width as u64 + (total - hot) * full as u64;
        if best.is_none_or(|(_, c)| cost < c) {
            best = Some((width, cost));
        }
    }
    best
}

/// Number of positions where `a` and `b` agree (over the shorter length).
fn count_equal(a: &[u32], b: &[u32]) -> u64 {
    // u32 lanes vectorize; 2^16-value blocks keep each partial sum exact.
    a.chunks(1 << 16)
        .zip(b.chunks(1 << 16))
        .map(|(a, b)| a.iter().zip(b).map(|(x, y)| (x == y) as u32).sum::<u32>() as u64)
        .sum()
}

/// The format definition of [`encode_speed`], pass by pass. Kept as the
/// reference the bit-identity tests compare against.
pub fn encode_speed_scalar(q: &Quantized, eb: f64, out: &mut Vec<u8>) {
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
        let hot = hot_syms.checked_sub(1).map_or(0, |k| miss_prefix[k]);
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
///
/// `n` is the plane length the caller expects; a stream that declares any
/// other count is rejected before anything is reserved for it.
pub fn decode_speed(
    data: &[u8],
    pos: &mut usize,
    n: usize,
    out: &mut Vec<f64>,
) -> Result<(), CodecError> {
    out.clear();
    if read_uvarint(data, pos)? != n as u64 {
        return Err(CodecError::Corrupt(
            "dictionary count differs from plane length",
        ));
    }
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
        decode_ratio(&buf, &mut pos, plane.len(), &mut rec).unwrap();
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
        decode_speed(&buf, &mut pos, plane.len(), &mut rec).unwrap();
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
        decode_speed(&buf, &mut pos, plane.len(), &mut rec).unwrap();
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
        decode_speed(&buf, &mut pos, plane.len(), &mut rec).unwrap();
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
                let _ = decode_ratio(&buf[..cut], &mut pos, plane.len(), &mut out);
                let mut pos = 0;
                let _ = decode_speed(&buf[..cut], &mut pos, plane.len(), &mut out);
            }
        }
    }

    /// A speed body that declares 2^40 values over a two-entry table in
    /// plain mode with an empty payload, zero-padded to 140,000 bytes —
    /// enough input that the decoder's own length guard admits the count.
    fn forged_plain_body() -> Vec<u8> {
        let mut body = Vec::new();
        write_uvarint(&mut body, 1 << 40);
        write_table(&[0, 1], 1.0, &mut body);
        body.push(0); // plain mode
        write_uvarint(&mut body, 0); // payload length
        body.resize(140_000, 0);
        body
    }

    #[test]
    fn forged_count_errors_instead_of_aborting() {
        let body = forged_plain_body();
        let mut out = Vec::new();
        // Expecting the forged count itself reaches the unpacker, which
        // must refuse 2^40 one-bit values from an empty payload.
        let mut pos = 0;
        assert!(decode_speed(&body, &mut pos, 1 << 40, &mut out).is_err());
        // Any real plane length is refused at the declared count.
        for expected in [0usize, 4096] {
            let mut pos = 0;
            assert_eq!(
                decode_speed(&body, &mut pos, expected, &mut out),
                Err(CodecError::Corrupt(
                    "dictionary count differs from plane length"
                ))
            );
            let mut pos = 0;
            assert!(decode_ratio(&body, &mut pos, expected, &mut out).is_err());
        }
        assert!(out.is_empty());
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
