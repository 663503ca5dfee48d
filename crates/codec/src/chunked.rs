//! Chunked canonical Huffman with a gap array — the GPU-parallel layout.
//!
//! A single Huffman bit stream is inherently serial to decode. Real cuSZ
//! (and nvCOMP) therefore encode fixed-size *chunks* of symbols and store a
//! per-chunk bit offset ("gap array"), so every chunk decodes independently
//! on its own thread block. This module reproduces that layout: one shared
//! codebook, per-chunk byte-aligned payloads, and an offset table that the
//! decoder (and tests) can fan out over.

use crate::bitio::{BitReader, BitWriter};
use crate::error::CodecError;
use crate::huffman::{histogram_into, CodebookScratch, HuffmanDecoder, HuffmanEncoder};
use crate::varint::{read_uvarint, write_uvarint};
use gpu_model::exec::par_chunks_mut;
use std::cell::RefCell;
use std::sync::Mutex;

/// Symbols per chunk (cuSZ uses a few thousand per thread block).
pub const DEFAULT_CHUNK: usize = 4096;

/// Symbols per parallel histogram block.
const HIST_BLOCK: usize = 1 << 15;

/// Reused buffers behind [`encode_chunked_into`]'s warm path: the partial
/// histograms, merged frequency table, codebook (encoder + scratch) and
/// per-chunk payload buffers that a cold encode would allocate fresh. One
/// pool lives per calling thread; a warm encode of a same-shaped buffer
/// performs no heap allocation (gated by `alloc_cusz_table.rs` in the
/// bench crate). Retained memory is modest: one alphabet-sized table per
/// histogram block plus the compressed payload bytes of the largest buffer
/// encoded on the thread.
#[derive(Debug, Default)]
struct EncodePool {
    scratch: CodebookScratch,
    enc: HuffmanEncoder,
    freqs: Vec<u64>,
    partials: Vec<Vec<u64>>,
    payloads: Vec<Vec<u8>>,
}

thread_local! {
    static ENCODE_POOL: RefCell<EncodePool> = RefCell::new(EncodePool::default());
}

/// Encodes `symbols` over `alphabet_size` into a self-contained chunked
/// stream: codebook, gap array, then byte-aligned per-chunk payloads.
///
/// Both passes run block-parallel: partial histograms merge by addition
/// (order-independent), and each chunk encodes into a private writer — the
/// emitted stream is byte-for-byte the serial one for any worker count.
pub fn encode_chunked(symbols: &[u32], alphabet_size: usize, chunk: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(symbols.len() / 2 + 64);
    encode_chunked_into(symbols, alphabet_size, chunk, &mut out);
    out
}

/// [`encode_chunked`] into a caller-provided buffer, which is cleared first
/// (reusing its capacity). Bytes produced are identical to the allocating
/// variant. Scratch state (histograms, codebook, per-chunk writers) comes
/// from a thread-local pool, so repeated calls on one thread settle into a
/// zero-allocation steady state.
pub fn encode_chunked_into(symbols: &[u32], alphabet_size: usize, chunk: usize, out: &mut Vec<u8>) {
    assert!(chunk > 0, "chunk size must be positive");
    ENCODE_POOL.with(|pool| match pool.try_borrow_mut() {
        Ok(mut pool) => encode_chunked_with_pool(symbols, alphabet_size, chunk, out, &mut pool),
        // Reentrant call on the same thread (an encoder invoked from inside
        // an encode callback): fall back to a throwaway pool.
        Err(_) => encode_chunked_with_pool(
            symbols,
            alphabet_size,
            chunk,
            out,
            &mut EncodePool::default(),
        ),
    });
}

fn encode_chunked_with_pool(
    symbols: &[u32],
    alphabet_size: usize,
    chunk: usize,
    out: &mut Vec<u8>,
    pool: &mut EncodePool,
) {
    // Partial histograms, one per HIST_BLOCK, into pooled tables
    // (histogram_into zeroes each). Same block decomposition and in-order
    // merge as ever, so the frequency table is bit-identical.
    let n_hist = symbols.len().div_ceil(HIST_BLOCK);
    if pool.partials.len() < n_hist {
        pool.partials.resize_with(n_hist, Vec::new);
    }
    let partials = &mut pool.partials[..n_hist];
    for p in partials.iter_mut() {
        p.resize(alphabet_size, 0);
    }
    par_chunks_mut(partials, 1, |b, slot| {
        let lo = b * HIST_BLOCK;
        let hi = (lo + HIST_BLOCK).min(symbols.len());
        histogram_into(&symbols[lo..hi], &mut slot[0]);
    });
    pool.freqs.clear();
    pool.freqs.resize(alphabet_size, 0);
    for p in partials.iter() {
        for (f, x) in pool.freqs.iter_mut().zip(p) {
            *f += x;
        }
    }
    pool.enc.rebuild_from_freqs(&pool.freqs, &mut pool.scratch);

    out.clear();
    write_uvarint(out, symbols.len() as u64);
    write_uvarint(out, chunk as u64);
    pool.enc.write_table(out);

    // Encode each chunk byte-aligned into its pooled buffer; record its
    // compressed length.
    let n_chunks = symbols.len().div_ceil(chunk);
    if pool.payloads.len() < n_chunks {
        pool.payloads.resize_with(n_chunks, Vec::new);
    }
    let payloads = &mut pool.payloads[..n_chunks];
    let enc = &pool.enc;
    par_chunks_mut(payloads, 1, |k, slot| {
        let lo = k * chunk;
        let hi = (lo + chunk).min(symbols.len());
        let mut w = BitWriter::from_vec(std::mem::take(&mut slot[0]));
        enc.encode_all(&mut w, &symbols[lo..hi]);
        slot[0] = w.finish();
    });
    // Gap array: cumulative byte offsets (varint deltas = chunk lengths).
    write_uvarint(out, n_chunks as u64);
    for p in payloads.iter() {
        write_uvarint(out, p.len() as u64);
    }
    for p in payloads.iter() {
        out.extend_from_slice(p);
    }
}

/// Decodes a stream produced by [`encode_chunked`].
///
/// The gap array makes every chunk independently decodable, so chunks fan
/// out over the executor and the results concatenate in chunk order.
pub fn decode_chunked(data: &[u8]) -> Result<Vec<u32>, CodecError> {
    let mut out = Vec::new();
    decode_chunked_into(data, &mut out)?;
    Ok(out)
}

/// [`decode_chunked`] into a caller-provided buffer, which is cleared first
/// (reusing its capacity). On error the buffer contents are unspecified but
/// valid.
pub fn decode_chunked_into(data: &[u8], out: &mut Vec<u32>) -> Result<(), CodecError> {
    let mut pos = 0usize;
    let (n, chunk, dec, lens, payload_start) = read_header(data, &mut pos)?;
    out.clear();
    out.resize(n, 0);
    decode_chunks(data, chunk, &dec, &lens, payload_start, out)
}

/// [`decode_chunked`] into an exactly-sized slice — the zero-allocation
/// variant behind cuSZ's pooled symbol plane. Errors with
/// `Corrupt("symbol count mismatch")` when the stream's declared element
/// count differs from `out.len()`.
pub fn decode_chunked_into_slice(data: &[u8], out: &mut [u32]) -> Result<(), CodecError> {
    let mut pos = 0usize;
    let (n, chunk, dec, lens, payload_start) = read_header(data, &mut pos)?;
    if n != out.len() {
        return Err(CodecError::Corrupt("symbol count mismatch"));
    }
    decode_chunks(data, chunk, &dec, &lens, payload_start, out)
}

/// Fans the per-chunk payloads out over the executor, each decoding
/// straight into its disjoint region of `out` — no per-chunk result
/// vectors. `out.chunks_mut(chunk)` aligns 1:1 with the gap array because
/// `read_header` enforces `lens.len() == n.div_ceil(chunk)`.
fn decode_chunks(
    data: &[u8],
    chunk: usize,
    dec: &HuffmanDecoder,
    lens: &[usize],
    payload_start: usize,
    out: &mut [u32],
) -> Result<(), CodecError> {
    // (byte offset, byte length) per chunk, from the gap array.
    let mut meta = Vec::with_capacity(lens.len());
    let mut offset = payload_start;
    for &len in lens {
        meta.push((offset, len));
        offset += len;
    }
    // Record the lowest-indexed failure so the surfaced error does not
    // depend on worker scheduling.
    let first_err: Mutex<Option<(usize, CodecError)>> = Mutex::new(None);
    par_chunks_mut(out, chunk, |k, dst| {
        let (offset, len) = meta[k];
        if let Err(e) = decode_one_chunk_into(data, offset, len, dec, dst) {
            let mut slot = first_err.lock().unwrap_or_else(|p| p.into_inner());
            if slot.as_ref().is_none_or(|(i, _)| k < *i) {
                *slot = Some((k, e));
            }
        }
    });
    match first_err.into_inner().unwrap_or_else(|p| p.into_inner()) {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

/// Decodes only chunk `k` of the stream — the random-access path the gap
/// array exists for.
pub fn decode_chunk_at(data: &[u8], k: usize) -> Result<Vec<u32>, CodecError> {
    let mut pos = 0usize;
    let (n, chunk, dec, lens, payload_start) = read_header(data, &mut pos)?;
    if k >= lens.len() {
        return Err(CodecError::Corrupt("chunk index out of range"));
    }
    let offset = payload_start + lens[..k].iter().sum::<usize>();
    let want = chunk.min(n - k * chunk);
    decode_one_chunk(data, offset, lens[k], &dec, want)
}

type Header = (usize, usize, HuffmanDecoder, Vec<usize>, usize);

/// Pre-allocation guard: the most symbols one stream byte can legitimately
/// expand into. Every chunk costs at least one gap-array byte and holds at
/// most `2^24` symbols, so a declared count beyond `remaining × 2^24` (plus
/// a small floor for degenerate tiny streams) is forged — reject it before
/// any `with_capacity`/`reserve` sees it.
const MAX_SYMBOLS_PER_BYTE: usize = 1 << 24;
const GUARD_FLOOR: usize = 1 << 16;

fn read_header(data: &[u8], pos: &mut usize) -> Result<Header, CodecError> {
    let n = read_uvarint(data, pos)? as usize;
    if n > 1 << 40 {
        return Err(CodecError::Corrupt("absurd element count"));
    }
    let remaining = data.len() - *pos;
    if n > GUARD_FLOOR + remaining.saturating_mul(MAX_SYMBOLS_PER_BYTE) {
        return Err(CodecError::Corrupt(
            "declared length exceeds remaining input",
        ));
    }
    let chunk = read_uvarint(data, pos)? as usize;
    if chunk == 0 || chunk > 1 << 24 {
        return Err(CodecError::Corrupt("bad chunk size"));
    }
    let dec = HuffmanDecoder::read_table(data, pos)?;
    let n_chunks = read_uvarint(data, pos)? as usize;
    if n_chunks != n.div_ceil(chunk) {
        return Err(CodecError::Corrupt("chunk count mismatch"));
    }
    // Each gap-array entry is ≥ 1 byte, so a chunk count that exceeds the
    // bytes still present cannot be honest — checked before the table
    // allocation below.
    if n_chunks > data.len() - *pos {
        return Err(CodecError::UnexpectedEof);
    }
    let mut lens = Vec::with_capacity(n_chunks);
    let mut total = 0usize;
    for _ in 0..n_chunks {
        let l = read_uvarint(data, pos)? as usize;
        // saturating: forged per-chunk lengths must not overflow the sum
        // (the EOF check below still fires — data.len() is far below the
        // saturation point)
        total = total.saturating_add(l);
        lens.push(l);
    }
    if total > data.len() - *pos {
        return Err(CodecError::UnexpectedEof);
    }
    Ok((n, chunk, dec, lens, *pos))
}

fn decode_one_chunk(
    data: &[u8],
    offset: usize,
    len: usize,
    dec: &HuffmanDecoder,
    want: usize,
) -> Result<Vec<u32>, CodecError> {
    let mut out = vec![0u32; want];
    decode_one_chunk_into(data, offset, len, dec, &mut out)?;
    Ok(out)
}

fn decode_one_chunk_into(
    data: &[u8],
    offset: usize,
    len: usize,
    dec: &HuffmanDecoder,
    out: &mut [u32],
) -> Result<(), CodecError> {
    if offset + len > data.len() {
        return Err(CodecError::UnexpectedEof);
    }
    let mut r = BitReader::new(&data[offset..offset + len]);
    dec.decode_into(&mut r, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn sample(n: usize, alphabet: u32, seed: u64) -> Vec<u32> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| rng.gen_range(0..alphabet) * rng.gen_range(0..2))
            .collect()
    }

    #[test]
    fn roundtrip_various_sizes() {
        for n in [0usize, 1, 100, 4096, 4097, 20_000] {
            let syms = sample(n, 64, n as u64);
            let enc = encode_chunked(&syms, 64, DEFAULT_CHUNK);
            assert_eq!(decode_chunked(&enc).unwrap(), syms, "n={n}");
        }
    }

    #[test]
    fn tiny_chunks_roundtrip() {
        let syms = sample(1000, 16, 3);
        let enc = encode_chunked(&syms, 16, 7);
        assert_eq!(decode_chunked(&enc).unwrap(), syms);
    }

    #[test]
    fn chunks_decode_independently() {
        let syms = sample(10_000, 128, 9);
        let chunk = 1024;
        let enc = encode_chunked(&syms, 128, chunk);
        // Random-access every chunk and reassemble out of order.
        let n_chunks = syms.len().div_ceil(chunk);
        let mut pieces: Vec<(usize, Vec<u32>)> = Vec::new();
        for k in (0..n_chunks).rev() {
            pieces.push((k, decode_chunk_at(&enc, k).unwrap()));
        }
        pieces.sort_by_key(|(k, _)| *k);
        let reassembled: Vec<u32> = pieces.into_iter().flat_map(|(_, p)| p).collect();
        assert_eq!(reassembled, syms);
    }

    #[test]
    fn gap_array_overhead_is_small() {
        let syms = vec![0u32; 100_000];
        let enc = encode_chunked(&syms, 4, DEFAULT_CHUNK);
        // all-zero symbols: ~1 bit each plus per-chunk alignment + gaps
        assert!(enc.len() < 100_000 / 8 + 512, "{} bytes", enc.len());
    }

    #[test]
    fn corrupt_streams_error() {
        let syms = sample(5000, 32, 4);
        let enc = encode_chunked(&syms, 32, 512);
        for cut in [0, 1, 7, enc.len() / 2, enc.len() - 1] {
            assert!(decode_chunked(&enc[..cut]).is_err());
        }
        assert!(decode_chunk_at(&enc, 999).is_err());
    }

    #[test]
    fn into_variants_bit_identical_with_dirty_buffers() {
        let syms = sample(9000, 64, 11);
        let enc = encode_chunked(&syms, 64, 1024);
        let mut out = vec![0xAAu8; 17]; // dirty, wrong-sized target
        encode_chunked_into(&syms, 64, 1024, &mut out);
        assert_eq!(enc, out);
        let mut dec = vec![7u32; 3];
        decode_chunked_into(&enc, &mut dec).unwrap();
        assert_eq!(dec, syms);
    }

    #[test]
    fn slice_variant_checks_length_and_decodes() {
        let syms = sample(9000, 64, 11);
        let enc = encode_chunked(&syms, 64, 1024);
        let mut dst = vec![7u32; syms.len()];
        decode_chunked_into_slice(&enc, &mut dst).unwrap();
        assert_eq!(dst, syms);
        let mut wrong = vec![0u32; syms.len() - 1];
        assert_eq!(
            decode_chunked_into_slice(&enc, &mut wrong).unwrap_err(),
            CodecError::Corrupt("symbol count mismatch")
        );
    }

    #[test]
    fn forged_length_is_rejected_before_allocation() {
        use crate::varint::write_uvarint;
        // A few honest-looking header bytes declaring 2^39 symbols with
        // chunk size 1: decoding must fail fast on the length guard, not
        // attempt terabyte-scale `with_capacity` calls.
        let mut forged = Vec::new();
        write_uvarint(&mut forged, 1u64 << 39); // n
        write_uvarint(&mut forged, 1); // chunk
        forged.extend_from_slice(&[0; 16]);
        assert_eq!(
            decode_chunked(&forged).unwrap_err(),
            CodecError::Corrupt("declared length exceeds remaining input")
        );

        // Forged per-chunk lengths near usize::MAX must not overflow the
        // gap-array sum (debug-mode panic) — they must EOF out.
        let syms = sample(100, 8, 6);
        let enc = encode_chunked(&syms, 8, 4096);
        let mut bad = enc.clone();
        let tail = bad.len() - 1;
        bad.truncate(tail.min(bad.len()));
        assert!(decode_chunked(&bad).is_err());
    }

    #[test]
    fn single_chunk_equals_plain_content() {
        let syms = sample(100, 8, 5);
        let enc = encode_chunked(&syms, 8, 4096);
        assert_eq!(decode_chunk_at(&enc, 0).unwrap(), syms);
    }
}
