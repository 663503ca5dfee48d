//! Canonical Huffman coding.
//!
//! The entropy stage of cuSZ (and our GDeflate) — built once per buffer from
//! a histogram, encoded LSB-first with bit-reversed canonical codes (the
//! DEFLATE convention). Code lengths are limited to [`MAX_CODE_LEN`] by
//! frequency-halving, which keeps the decode tables small and mirrors
//! cuSZ's fixed-width codebooks.
//!
//! A [`HuffmanDecoder`] has two tables, and each decode path builds only
//! the one it reads:
//!
//! * the flat `2^max_len` table, built with the decoder, serves
//!   [`HuffmanDecoder::decode_symbol`] — one symbol per lookup. GDeflate's
//!   `inflate_bytes` (QCF-ratio's dictionary index stream) interleaves
//!   Huffman symbols with raw extra bits, so it decodes one symbol at a
//!   time and never needs more;
//! * the multi-symbol prefix table ([`DECODE_LUT_BITS`] wide, several
//!   symbols per lookup) serves [`HuffmanDecoder::decode_into`], the bulk
//!   path behind cuSZ's chunked streams. It is built from the flat table on
//!   the first `decode_into` call; the chunked decoder builds it once per
//!   stream, on the calling thread, before its chunks fan out over the
//!   executor.

use crate::bitio::{BitReader, BitWriter};
use crate::error::CodecError;
use crate::varint::{read_uvarint, write_uvarint};
use std::cell::Cell;
use std::sync::OnceLock;

/// Maximum canonical code length (DEFLATE's limit; decode table = 2^15).
pub const MAX_CODE_LEN: u32 = 15;

/// Histogram of `symbols` over an alphabet of `alphabet_size`.
///
/// # Panics
/// Debug-panics when a symbol is out of range.
pub fn histogram(symbols: &[u32], alphabet_size: usize) -> Vec<u64> {
    let mut h = vec![0u64; alphabet_size];
    histogram_into(symbols, &mut h);
    h
}

/// [`histogram`] into a caller-provided table (zeroed first) — the pooled
/// warm path. The table's length is the alphabet size.
///
/// # Panics
/// Debug-panics when a symbol is out of range.
pub fn histogram_into(symbols: &[u32], table: &mut [u64]) {
    table.fill(0);
    for &s in symbols {
        debug_assert!((s as usize) < table.len(), "symbol {s} out of alphabet");
        table[s as usize] += 1;
    }
}

/// Builds length-limited Huffman code lengths from frequencies.
///
/// Symbols with zero frequency get length 0 (no code). A single-symbol
/// alphabet gets length 1.
pub fn build_code_lengths(freqs: &[u64], max_len: u32) -> Vec<u8> {
    let mut lengths = Vec::new();
    CodebookScratch::default().build_lengths(freqs, max_len, &mut lengths);
    lengths
}

/// Canonical code assignment: `codes[sym]` is the *bit-reversed* canonical
/// code (ready for LSB-first emission) and `lengths[sym]` its length.
pub fn canonical_codes(lengths: &[u8]) -> Vec<u32> {
    let mut codes = Vec::new();
    CodebookScratch::default().assign_codes(lengths, &mut codes);
    codes
}

// (freq, node id) — min-heap by Reverse; node ids are unique, so the pop
// order (and therefore the tree shape) is fully deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapItem(u64, usize);

/// Reusable scratch behind codebook construction — the buffers every build
/// needs (a halvable frequency copy, the merge heap, parent links, the
/// canonical-code counting tables), kept so repeated builds on a warm path
/// allocate nothing. [`build_code_lengths`] / [`canonical_codes`] are thin
/// wrappers over a throwaway scratch; pooled callers
/// ([`HuffmanEncoder::rebuild_from_freqs`], the chunked encoder) hold one
/// and reuse it. Output is identical either way.
#[derive(Debug, Default)]
pub struct CodebookScratch {
    freqs: Vec<u64>,
    present: Vec<usize>,
    parent: Vec<usize>,
    heap: std::collections::BinaryHeap<std::cmp::Reverse<HeapItem>>,
    bl_count: Vec<u32>,
    next_code: Vec<u32>,
}

impl CodebookScratch {
    /// [`build_code_lengths`] into a caller-provided vector (cleared
    /// first), reusing this scratch's buffers.
    pub fn build_lengths(&mut self, freqs: &[u64], max_len: u32, lengths: &mut Vec<u8>) {
        assert!((1..=32).contains(&max_len));
        self.freqs.clear();
        self.freqs.extend_from_slice(freqs);
        loop {
            self.unlimited_lengths(lengths);
            let deepest = lengths.iter().copied().max().unwrap_or(0) as u32;
            if deepest <= max_len {
                return;
            }
            // Flatten the distribution and retry: halving frequencies
            // shrinks depth quickly and converges (all-equal freqs give
            // ~log2(n) depth).
            for f in self.freqs.iter_mut() {
                if *f > 0 {
                    *f = (*f).div_ceil(2);
                }
            }
        }
    }

    /// Plain (unlimited-depth) Huffman code lengths over `self.freqs` via
    /// pairwise merging.
    fn unlimited_lengths(&mut self, lengths: &mut Vec<u8>) {
        lengths.clear();
        lengths.resize(self.freqs.len(), 0);
        self.present.clear();
        self.present.extend(
            self.freqs
                .iter()
                .enumerate()
                .filter(|(_, &f)| f > 0)
                .map(|(i, _)| i),
        );
        match self.present.len() {
            0 => return,
            1 => {
                lengths[self.present[0]] = 1;
                return;
            }
            _ => {}
        }

        // Node arena: leaves then internal nodes; parent links give depths.
        use std::cmp::Reverse;
        self.parent.clear();
        self.parent.resize(self.present.len(), usize::MAX);
        self.heap.clear();
        for (leaf, &sym) in self.present.iter().enumerate() {
            self.heap.push(Reverse(HeapItem(self.freqs[sym], leaf)));
        }
        while self.heap.len() > 1 {
            let Reverse(HeapItem(fa, a)) = self.heap.pop().unwrap();
            let Reverse(HeapItem(fb, b)) = self.heap.pop().unwrap();
            let id = self.parent.len();
            self.parent.push(usize::MAX);
            self.parent[a] = id;
            self.parent[b] = id;
            self.heap.push(Reverse(HeapItem(fa + fb, id)));
        }
        for (leaf, &sym) in self.present.iter().enumerate() {
            let mut depth = 0u8;
            let mut node = leaf;
            while self.parent[node] != usize::MAX {
                node = self.parent[node];
                depth += 1;
            }
            lengths[sym] = depth;
        }
    }

    /// [`canonical_codes`] into a caller-provided vector (cleared first),
    /// reusing this scratch's counting tables.
    pub fn assign_codes(&mut self, lengths: &[u8], codes: &mut Vec<u32>) {
        let max = lengths.iter().copied().max().unwrap_or(0) as usize;
        self.bl_count.clear();
        self.bl_count.resize(max + 1, 0);
        for &l in lengths {
            if l > 0 {
                self.bl_count[l as usize] += 1;
            }
        }
        self.next_code.clear();
        self.next_code.resize(max + 2, 0);
        let mut code = 0u32;
        for bits in 1..=max {
            code = (code + self.bl_count[bits - 1]) << 1;
            self.next_code[bits] = code;
        }
        codes.clear();
        codes.resize(lengths.len(), 0);
        for (sym, &l) in lengths.iter().enumerate() {
            if l > 0 {
                let c = self.next_code[l as usize];
                self.next_code[l as usize] += 1;
                codes[sym] = reverse_bits(c, l as u32);
            }
        }
    }
}

#[inline]
fn reverse_bits(v: u32, n: u32) -> u32 {
    v.reverse_bits() >> (32 - n)
}

/// Canonical Huffman encoder.
#[derive(Debug, Clone, Default)]
pub struct HuffmanEncoder {
    lengths: Vec<u8>,
    codes: Vec<u32>,
}

impl HuffmanEncoder {
    /// Builds an encoder from frequencies.
    pub fn from_freqs(freqs: &[u64]) -> Self {
        let mut enc = HuffmanEncoder::default();
        enc.rebuild_from_freqs(freqs, &mut CodebookScratch::default());
        enc
    }

    /// Rebuilds this encoder's codebook from `freqs` in place, reusing
    /// both the encoder's own length/code tables and the caller's
    /// [`CodebookScratch`] — the pooled warm path behind cuSZ's repeated
    /// chunk encodes. The resulting codebook is identical to
    /// [`HuffmanEncoder::from_freqs`].
    pub fn rebuild_from_freqs(&mut self, freqs: &[u64], scratch: &mut CodebookScratch) {
        scratch.build_lengths(freqs, MAX_CODE_LEN, &mut self.lengths);
        scratch.assign_codes(&self.lengths, &mut self.codes);
    }

    /// Per-symbol code lengths (0 = absent).
    pub fn lengths(&self) -> &[u8] {
        &self.lengths
    }

    /// Emits one symbol.
    ///
    /// # Panics
    /// Debug-panics when the symbol has no code (zero frequency at build).
    #[inline]
    pub fn encode_symbol(&self, w: &mut BitWriter, sym: u32) {
        let len = self.lengths[sym as usize];
        debug_assert!(len > 0, "symbol {sym} had zero frequency");
        w.write_bits(self.codes[sym as usize] as u64, len as u32);
    }

    /// Emits a slice of symbols.
    pub fn encode_all(&self, w: &mut BitWriter, symbols: &[u32]) {
        for &s in symbols {
            self.encode_symbol(w, s);
        }
    }

    /// Total encoded size in bits for a histogram (for ratio estimation).
    pub fn encoded_bits(&self, freqs: &[u64]) -> u64 {
        freqs
            .iter()
            .zip(&self.lengths)
            .map(|(&f, &l)| f * l as u64)
            .sum()
    }

    /// Serializes code lengths (zero runs RLE'd) for the stream header.
    pub fn write_table(&self, out: &mut Vec<u8>) {
        write_uvarint(out, self.lengths.len() as u64);
        let mut i = 0usize;
        while i < self.lengths.len() {
            let l = self.lengths[i];
            if l == 0 {
                let mut run = 0usize;
                while i + run < self.lengths.len() && self.lengths[i + run] == 0 {
                    run += 1;
                }
                out.push(0);
                write_uvarint(out, run as u64);
                i += run;
            } else {
                out.push(l);
                i += 1;
            }
        }
    }
}

/// Width of the multi-symbol decode prefix table: one peek of this many
/// bits resolves every code that fits entirely inside the window.
pub const DECODE_LUT_BITS: u32 = 12;

/// Maximum symbols resolved by a single prefix-table hit (short codes on
/// skewed data pack several symbols into one 12-bit window).
const LUT_SYMS: usize = 8;

/// One multi-symbol prefix-table entry: up to [`LUT_SYMS`] symbols whose
/// codes are fully contained in the peeked [`DECODE_LUT_BITS`] window,
/// plus the total bits they consume. `count == 0` means the window could
/// not resolve even one symbol (long code or invalid prefix) and the
/// caller must fall back to [`HuffmanDecoder::decode_symbol`].
#[derive(Debug, Clone, Copy)]
struct LutEntry {
    syms: [u32; LUT_SYMS],
    count: u8,
    bits: u8,
}

thread_local! {
    /// Multi-symbol tables this thread has built; see
    /// [`multi_symbol_tables_built`].
    static LUT_BUILDS: Cell<u64> = const { Cell::new(0) };
}

/// How many multi-symbol prefix tables the calling thread has built so
/// far. A probe for tests that pin which decode paths build one:
/// [`HuffmanDecoder::decode_symbol`] never does.
#[doc(hidden)]
pub fn multi_symbol_tables_built() -> u64 {
    LUT_BUILDS.with(Cell::get)
}

/// Table-driven canonical Huffman decoder.
#[derive(Debug)]
pub struct HuffmanDecoder {
    /// `table[peeked_bits] = (symbol, code_len)`; indexed by `max_len` bits.
    /// This is the scalar reference path ([`decode_symbol`]) and the
    /// fallback for codes longer than the prefix window.
    ///
    /// [`decode_symbol`]: HuffmanDecoder::decode_symbol
    table: Vec<(u32, u8)>,
    /// Multi-symbol prefix table indexed by [`DECODE_LUT_BITS`] peeked
    /// bits, built on first use by [`decode_into`].
    ///
    /// [`decode_into`]: HuffmanDecoder::decode_into
    lut: OnceLock<Vec<LutEntry>>,
    max_len: u32,
}

impl HuffmanDecoder {
    /// Builds a decoder from per-symbol code lengths.
    pub fn from_lengths(lengths: &[u8]) -> Result<Self, CodecError> {
        let max_len = lengths.iter().copied().max().unwrap_or(0) as u32;
        if max_len == 0 {
            return Ok(HuffmanDecoder {
                table: Vec::new(),
                lut: OnceLock::new(),
                max_len: 0,
            });
        }
        if max_len > MAX_CODE_LEN {
            return Err(CodecError::Unsupported("code length beyond MAX_CODE_LEN"));
        }
        // Kraft check: a valid (possibly non-full) code never oversubscribes.
        let kraft: u64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u64 << (max_len - l as u32))
            .sum();
        if kraft > 1u64 << max_len {
            return Err(CodecError::Corrupt("oversubscribed Huffman code"));
        }
        let codes = canonical_codes(lengths);
        let mut table = vec![(u32::MAX, 0u8); 1usize << max_len];
        for (sym, &l) in lengths.iter().enumerate() {
            if l == 0 {
                continue;
            }
            let base = codes[sym]; // already bit-reversed
            let step = 1usize << l;
            let mut idx = base as usize;
            while idx < table.len() {
                table[idx] = (sym as u32, l);
                idx += step;
            }
        }
        Ok(HuffmanDecoder {
            table,
            lut: OnceLock::new(),
            max_len,
        })
    }

    /// Builds the multi-symbol prefix table now, on the calling thread, if
    /// it is not built yet. [`decode_into`](Self::decode_into) builds it on
    /// first use anyway; a caller about to fan `decode_into` out over
    /// worker threads calls this first, so one thread builds it once. An
    /// empty code has no table.
    pub(crate) fn build_multi_symbol_table(&self) {
        if self.max_len > 0 {
            self.multi_symbol_table();
        }
    }

    fn multi_symbol_table(&self) -> &[LutEntry] {
        self.lut
            .get_or_init(|| build_lut(&self.table, self.max_len))
    }

    /// Reads the table serialized by [`HuffmanEncoder::write_table`].
    pub fn read_table(data: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        let n = read_uvarint(data, pos)? as usize;
        if n > 1 << 20 {
            return Err(CodecError::Corrupt("absurd alphabet size"));
        }
        let mut lengths = Vec::with_capacity(n);
        while lengths.len() < n {
            let b = *data.get(*pos).ok_or(CodecError::UnexpectedEof)?;
            *pos += 1;
            if b == 0 {
                let run = read_uvarint(data, pos)? as usize;
                // compare without summing: a forged run near usize::MAX
                // must not overflow the addition
                if run > n - lengths.len() {
                    return Err(CodecError::Corrupt("zero run overflows table"));
                }
                lengths.resize(lengths.len() + run, 0);
            } else {
                lengths.push(b);
            }
        }
        HuffmanDecoder::from_lengths(&lengths)
    }

    /// Decodes one symbol.
    #[inline]
    pub fn decode_symbol(&self, r: &mut BitReader<'_>) -> Result<u32, CodecError> {
        if self.max_len == 0 {
            return Err(CodecError::Corrupt("decode with empty code"));
        }
        let peek = r.peek_bits(self.max_len) as usize;
        let (sym, len) = self.table[peek];
        if sym == u32::MAX {
            return Err(CodecError::Corrupt("invalid Huffman code"));
        }
        if (len as usize) > r.remaining_bits() {
            return Err(CodecError::UnexpectedEof);
        }
        r.consume(len as u32);
        Ok(sym)
    }

    /// Decodes exactly `out.len()` symbols into `out`.
    ///
    /// The hot path peeks [`DECODE_LUT_BITS`] bits and resolves every code
    /// contained in the window with one hit in the multi-symbol table
    /// (built on the first call) — several symbols per lookup on skewed
    /// data — instead of one max-len peek per symbol. The
    /// fast path only engages when the reader still holds a full window
    /// and the entry does not overshoot the requested symbol count, so
    /// stream-end handling, exact-`n` semantics, and all error cases fall
    /// through to [`decode_symbol`](HuffmanDecoder::decode_symbol) and are
    /// byte-for-byte identical to the one-at-a-time walk (proptested in
    /// the codec suite).
    pub fn decode_into(&self, r: &mut BitReader<'_>, out: &mut [u32]) -> Result<(), CodecError> {
        let n = out.len();
        if self.max_len == 0 {
            if n == 0 {
                return Ok(());
            }
            return Err(CodecError::Corrupt("decode with empty code"));
        }
        let lut = self.multi_symbol_table();
        let mut i = 0usize;
        while i < n {
            if r.remaining_bits() >= DECODE_LUT_BITS as usize {
                let e = &lut[r.peek_bits(DECODE_LUT_BITS) as usize];
                let c = e.count as usize;
                if c > 0 && c <= n - i {
                    // Every packed code lies inside the peeked window, so
                    // the reader holds at least `e.bits` buffered bits.
                    r.consume(e.bits as u32);
                    out[i..i + c].copy_from_slice(&e.syms[..c]);
                    i += c;
                    continue;
                }
            }
            out[i] = self.decode_symbol(r)?;
            i += 1;
        }
        Ok(())
    }

    /// Decodes exactly `n` symbols.
    pub fn decode_all(&self, r: &mut BitReader<'_>, n: usize) -> Result<Vec<u32>, CodecError> {
        let mut out = vec![0u32; n];
        self.decode_into(r, &mut out)?;
        Ok(out)
    }
}

/// Builds the multi-symbol prefix table from the flat `max_len` table.
///
/// For each possible window, greedily decode symbols as long as each
/// code's full length fits in the window's remaining *known* bits. The
/// flat-table lookup pads the unknown upper bits with zeros; by the prefix
/// property that padding can only matter when the selected code is longer
/// than the remaining bits, which is exactly the case we refuse to pack.
fn build_lut(table: &[(u32, u8)], max_len: u32) -> Vec<LutEntry> {
    LUT_BUILDS.with(|c| c.set(c.get() + 1));
    let mask = (1usize << max_len) - 1;
    (0..1usize << DECODE_LUT_BITS)
        .map(|idx| {
            let mut e = LutEntry {
                syms: [0; LUT_SYMS],
                count: 0,
                bits: 0,
            };
            let mut used = 0u32;
            while (e.count as usize) < LUT_SYMS {
                let rem = DECODE_LUT_BITS - used;
                let (sym, len) = table[(idx >> used) & mask];
                if sym == u32::MAX || len as u32 > rem {
                    break;
                }
                e.syms[e.count as usize] = sym;
                e.count += 1;
                used += len as u32;
            }
            e.bits = used as u8;
            e
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(symbols: &[u32], alphabet: usize) {
        let freqs = histogram(symbols, alphabet);
        let enc = HuffmanEncoder::from_freqs(&freqs);
        let mut header = Vec::new();
        enc.write_table(&mut header);
        let mut w = BitWriter::new();
        enc.encode_all(&mut w, symbols);
        let payload = w.finish();

        let mut pos = 0;
        let dec = HuffmanDecoder::read_table(&header, &mut pos).unwrap();
        assert_eq!(pos, header.len());
        let mut r = BitReader::new(&payload);
        let decoded = dec.decode_all(&mut r, symbols.len()).unwrap();
        assert_eq!(decoded, symbols);
    }

    #[test]
    fn skewed_distribution_roundtrip() {
        let mut syms = vec![0u32; 1000];
        syms.extend(vec![1u32; 100]);
        syms.extend(vec![2u32; 10]);
        syms.push(3);
        roundtrip(&syms, 8);
    }

    #[test]
    fn single_symbol_alphabet() {
        roundtrip(&vec![5u32; 64], 16);
    }

    #[test]
    fn two_symbols() {
        roundtrip(&[0, 1, 0, 0, 1, 0], 2);
    }

    #[test]
    fn uniform_large_alphabet() {
        let syms: Vec<u32> = (0..4096u32).collect();
        roundtrip(&syms, 4096);
    }

    #[test]
    fn random_zipf_like() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let syms: Vec<u32> = (0..20_000)
            .map(|_| {
                let r: f64 = rng.gen();
                ((1.0 / (r + 0.001)).log2().floor() as u32).min(255)
            })
            .collect();
        roundtrip(&syms, 256);
    }

    #[test]
    fn skew_beats_uniform_in_bits() {
        let skew = histogram(&[0; 100], 4)
            .iter()
            .zip(histogram(&[1, 2, 3], 4).iter())
            .map(|(a, b)| a + b)
            .collect::<Vec<_>>();
        let enc = HuffmanEncoder::from_freqs(&skew);
        let bits = enc.encoded_bits(&skew);
        // 103 symbols; a fixed 2-bit code would need 206 bits.
        assert!(bits < 206, "huffman bits {bits}");
    }

    #[test]
    fn length_limit_enforced() {
        // Fibonacci-ish frequencies force deep trees without a limit.
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lengths = build_code_lengths(&freqs, MAX_CODE_LEN);
        assert!(lengths.iter().all(|&l| (l as u32) <= MAX_CODE_LEN));
        // still decodable
        let enc = HuffmanEncoder {
            codes: canonical_codes(&lengths),
            lengths,
        };
        let mut w = BitWriter::new();
        let syms: Vec<u32> = (0..40u32).collect();
        enc.encode_all(&mut w, &syms);
        let bytes = w.finish();
        let dec = HuffmanDecoder::from_lengths(enc.lengths()).unwrap();
        let mut r = BitReader::new(&bytes);
        assert_eq!(dec.decode_all(&mut r, 40).unwrap(), syms);
    }

    #[test]
    fn empty_input() {
        let freqs = histogram(&[], 4);
        let enc = HuffmanEncoder::from_freqs(&freqs);
        assert!(enc.lengths().iter().all(|&l| l == 0));
    }

    #[test]
    fn pooled_rebuild_matches_fresh_build() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(21);
        // One scratch and one encoder reused across wildly different
        // distributions: every rebuild must equal a from-scratch build,
        // including the degenerate empty/single-symbol alphabets and a
        // depth-limited Fibonacci distribution.
        let mut scratch = CodebookScratch::default();
        let mut pooled = HuffmanEncoder::default();
        let mut fib = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in fib.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let mut cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![0, 0, 7, 0],
            vec![1; 256],
            fib,
            (0..100).map(|_| rng.gen_range(0..1000u64)).collect(),
        ];
        for _ in 0..5 {
            cases.push((0..512).map(|_| rng.gen_range(0..50u64)).collect());
        }
        for freqs in &cases {
            let fresh = HuffmanEncoder::from_freqs(freqs);
            pooled.rebuild_from_freqs(freqs, &mut scratch);
            assert_eq!(pooled.lengths(), fresh.lengths());
            assert_eq!(pooled.codes, fresh.codes);
            assert_eq!(histogram_into_check(freqs), freqs.iter().sum::<u64>());
        }
    }

    // Sanity helper keeping histogram_into covered alongside the rebuild:
    // symbols reconstructed from a frequency table histogram back to it.
    fn histogram_into_check(freqs: &[u64]) -> u64 {
        let symbols: Vec<u32> = freqs
            .iter()
            .enumerate()
            .flat_map(|(s, &f)| std::iter::repeat_n(s as u32, f as usize))
            .collect();
        let mut table = vec![u64::MAX; freqs.len()]; // dirty: must be zeroed
        histogram_into(&symbols, &mut table);
        assert_eq!(table, freqs);
        symbols.len() as u64
    }

    #[test]
    fn corrupt_table_rejected() {
        // Oversubscribed: three symbols of length 1.
        assert!(HuffmanDecoder::from_lengths(&[1, 1, 1]).is_err());
    }

    #[test]
    fn lut_decode_matches_symbol_at_a_time() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        // Zipf-ish: short codes dominate, with a long-code tail that forces
        // the LUT fallback path.
        let syms: Vec<u32> = (0..10_000)
            .map(|_| {
                let r: f64 = rng.gen();
                ((1.0 / (r + 0.0005)).log2().floor() as u32).min(500)
            })
            .collect();
        let freqs = histogram(&syms, 512);
        let enc = HuffmanEncoder::from_freqs(&freqs);
        let mut w = BitWriter::new();
        enc.encode_all(&mut w, &syms);
        let bytes = w.finish();
        let dec = HuffmanDecoder::from_lengths(enc.lengths()).unwrap();

        let mut r = BitReader::new(&bytes);
        let mut fast = vec![0u32; syms.len()];
        dec.decode_into(&mut r, &mut fast).unwrap();
        let tail_fast = r.remaining_bits();

        let mut r = BitReader::new(&bytes);
        let mut slow = Vec::with_capacity(syms.len());
        for _ in 0..syms.len() {
            slow.push(dec.decode_symbol(&mut r).unwrap());
        }
        assert_eq!(fast, slow);
        assert_eq!(fast, syms);
        assert_eq!(tail_fast, r.remaining_bits(), "same bits consumed");
    }

    #[test]
    fn lut_decode_truncation_errors_match_reference() {
        let syms: Vec<u32> = (0..256u32).chain(std::iter::repeat_n(3, 300)).collect();
        let freqs = histogram(&syms, 256);
        let enc = HuffmanEncoder::from_freqs(&freqs);
        let mut w = BitWriter::new();
        enc.encode_all(&mut w, &syms);
        let bytes = w.finish();
        let dec = HuffmanDecoder::from_lengths(enc.lengths()).unwrap();
        for cut in [0, 1, 2, bytes.len() / 2, bytes.len() - 1] {
            let mut rf = BitReader::new(&bytes[..cut]);
            let fast = dec.decode_into(&mut rf, &mut vec![0u32; syms.len()]);
            let mut rs = BitReader::new(&bytes[..cut]);
            let slow = (0..syms.len()).try_for_each(|_| dec.decode_symbol(&mut rs).map(|_| ()));
            assert_eq!(fast.is_err(), slow.is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn decode_into_after_decode_symbol_matches_it_errors_included() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let syms: Vec<u32> = (0..3_000)
            .map(|_| {
                let r: f64 = rng.gen();
                ((1.0 / (r + 0.0005)).log2().floor() as u32).min(300)
            })
            .collect();
        let enc = HuffmanEncoder::from_freqs(&histogram(&syms, 512));
        let mut w = BitWriter::new();
        enc.encode_all(&mut w, &syms);
        let bytes = w.finish();
        let dec = HuffmanDecoder::from_lengths(enc.lengths()).unwrap();

        // The one-at-a-time path reads only the flat table.
        let built = multi_symbol_tables_built();
        let mut r = BitReader::new(&bytes);
        let one_by_one: Vec<u32> = (0..syms.len())
            .map(|_| dec.decode_symbol(&mut r).unwrap())
            .collect();
        assert_eq!(one_by_one, syms);
        assert_eq!(
            multi_symbol_tables_built(),
            built,
            "decode_symbol built a table"
        );

        // The same decoder's first decode_into builds the table once and
        // then agrees with decode_symbol symbol for symbol, on the whole
        // stream and on every truncation, errors included.
        for cut in (0..=bytes.len()).step_by(97).chain([bytes.len()]) {
            let mut rf = BitReader::new(&bytes[..cut]);
            let mut fast = vec![u32::MAX; syms.len()];
            let fast_res = dec.decode_into(&mut rf, &mut fast);
            let mut rs = BitReader::new(&bytes[..cut]);
            let mut slow = vec![u32::MAX; syms.len()];
            let mut slow_res = Ok(());
            for v in slow.iter_mut() {
                match dec.decode_symbol(&mut rs) {
                    Ok(s) => *v = s,
                    Err(e) => {
                        slow_res = Err(e);
                        break;
                    }
                }
            }
            assert_eq!(fast_res, slow_res, "cut at {cut}");
            if slow_res.is_ok() {
                assert_eq!(fast, slow, "cut at {cut}");
                assert_eq!(rf.remaining_bits(), rs.remaining_bits(), "cut at {cut}");
            }
        }
        assert_eq!(
            multi_symbol_tables_built(),
            built + 1,
            "one table per decoder"
        );
    }

    #[test]
    fn truncated_payload_errors() {
        let syms = vec![0u32, 1, 2, 3, 0, 1, 2, 3];
        let freqs = histogram(&syms, 4);
        let enc = HuffmanEncoder::from_freqs(&freqs);
        let mut w = BitWriter::new();
        enc.encode_all(&mut w, &syms);
        let bytes = w.finish();
        let dec = HuffmanDecoder::from_lengths(enc.lengths()).unwrap();
        let mut r = BitReader::new(&bytes[..bytes.len() - 1]);
        assert!(dec.decode_all(&mut r, syms.len()).is_err());
    }
}
