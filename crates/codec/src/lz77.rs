//! LZ77 match finding with a hash-chain dictionary.
//!
//! One greedy matcher feeds LZ4, Snappy and GDeflate, and the framework's
//! ratio-mode index stream and LZ4 tail; each wraps the tokens in its own
//! wire format. The parse is defined by its plain form, kept as the
//! reference in `tests/lz77_reference.rs`: hash 4-byte windows, walk the
//! chain of earlier positions (most recent first, at most `max_chain`,
//! stopping at the first more than `window` bytes back), extend each
//! candidate byte by byte and take the first that reaches the longest
//! length. [`find_matches`] returns its tokens for every input and config
//! (a release-mode proptest holds it to them) through three exact changes:
//!
//! - **A ring of chain links**, `next_pow2(min(window, n))` slots instead
//!   of one per input byte. A lookup has inserted only earlier positions
//!   and reads links only of candidates at most `window` back, while a
//!   slot is reused only a ring length (at least `window`) later, so every
//!   link it reads is intact. The tables take at most 0.75 MiB at the
//!   production windows, where the plain form took 8 bytes per input byte
//!   on top of its 256 KiB of heads.
//! - **Rejects before extension.** A candidate whose first 4 bytes differ
//!   matches fewer than `min_match >= 4`, so it can only win where no match
//!   is emitted; one that differs at the best length so far cannot beat
//!   it. Rejected candidates still count toward `max_chain`.
//! - **Word-at-a-time extension**: `u64` XOR, with `trailing_zeros / 8`
//!   at the first difference, gives the same length.

/// One token of an LZ77 parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LzToken {
    /// `len` literal bytes starting at `start` in the input.
    Literal {
        /// Input offset of the first literal byte.
        start: usize,
        /// Number of literal bytes.
        len: usize,
    },
    /// A back-reference: copy `len` bytes from `dist` bytes behind.
    Match {
        /// Match length in bytes (≥ the matcher's `min_match`).
        len: usize,
        /// Backward distance in bytes (≥ 1).
        dist: usize,
    },
}

/// Matcher configuration.
#[derive(Debug, Clone, Copy)]
pub struct LzConfig {
    /// Minimum match length worth emitting.
    pub min_match: usize,
    /// Maximum match length.
    pub max_match: usize,
    /// Maximum backward distance.
    pub window: usize,
    /// Maximum hash-chain positions examined per lookup.
    pub max_chain: usize,
}

impl Default for LzConfig {
    fn default() -> Self {
        LzConfig {
            min_match: 4,
            max_match: 65_535,
            window: 65_535,
            max_chain: 32,
        }
    }
}

const HASH_BITS: u32 = 15;

#[inline]
fn load32(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]])
}

#[inline]
fn hash4(v: u32) -> usize {
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `a` and `b`, at most `b.len()` (`a` is
/// at least as long), compared eight bytes at a time.
#[inline]
fn common_len(a: &[u8], b: &[u8]) -> usize {
    let word = |s: &[u8], at: usize| u64::from_le_bytes(s[at..at + 8].try_into().expect("8 bytes"));
    let mut l = 0;
    while l + 8 <= b.len() {
        let x = word(a, l) ^ word(b, l);
        if x != 0 {
            return l + (x.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < b.len() && a[l] == b[l] {
        l += 1;
    }
    l
}

/// Greedy LZ77 parse of `data`.
///
/// Adjacent literals are coalesced into single [`LzToken::Literal`] tokens;
/// the concatenation of tokens reproduces the input exactly (verified by
/// [`expand`]).
pub fn find_matches(data: &[u8], cfg: &LzConfig) -> Vec<LzToken> {
    assert!(cfg.min_match >= 4, "hash covers 4 bytes");
    let n = data.len();
    let mut tokens = Vec::new();
    if n == 0 {
        return tokens;
    }
    // No candidate is more than `w` bytes back. The tables store
    // `pos + w + 1`, so their initial zeros read as candidates beyond the
    // window and the window test also ends the chain.
    let w = cfg.window.min(n);
    let off = w + 1;
    let mask = w.next_power_of_two() - 1;
    let mut head = vec![0usize; 1 << HASH_BITS];
    let mut links = vec![0usize; (mask + 1).min(n)];
    let mut lit_start = 0usize;
    let mut i = 0usize;

    let flush_literals = |tokens: &mut Vec<LzToken>, lit_start: usize, end: usize| {
        if end > lit_start {
            tokens.push(LzToken::Literal {
                start: lit_start,
                len: end - lit_start,
            });
        }
    };

    while i + cfg.min_match <= n {
        let prefix = load32(data, i);
        let h = hash4(prefix);
        let limit = (n - i).min(cfg.max_match);
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        // Below `min_match` no candidate can make a match.
        if limit >= cfg.min_match {
            let mut next = head[h];
            for _ in 0..cfg.max_chain {
                let dist = i + off - next;
                if dist > w {
                    break;
                }
                let cand = i - dist;
                next = links[cand & mask];
                if load32(data, cand) != prefix || data[cand + best_len] != data[i + best_len] {
                    continue;
                }
                let l = 4 + common_len(&data[cand + 4..], &data[i + 4..i + limit]);
                if l > best_len {
                    best_len = l;
                    best_dist = dist;
                    if l >= limit {
                        break;
                    }
                }
            }
        }

        if best_len >= cfg.min_match {
            flush_literals(&mut tokens, lit_start, i);
            tokens.push(LzToken::Match {
                len: best_len,
                dist: best_dist,
            });
            // Insert hash entries for the matched region (bounded to keep
            // the parse O(n) even on pathological inputs).
            let end = i + best_len;
            let insert_end = end.min(i + 256).min(n.saturating_sub(cfg.min_match - 1));
            while i < insert_end {
                let h = hash4(load32(data, i));
                links[i & mask] = head[h];
                head[h] = i + off;
                i += 1;
            }
            i = end;
            lit_start = end;
        } else {
            links[i & mask] = head[h];
            head[h] = i + off;
            i += 1;
        }
    }
    flush_literals(&mut tokens, lit_start, n);
    tokens
}

/// Appends `len` bytes copied from `dist` bytes behind the end of `out`,
/// byte-serial semantics included: when `dist < len` the output repeats its
/// last `dist` bytes. Everything from the match start on has period `dist`,
/// so block copies that start a multiple of `dist` past it write the same
/// bytes; the copied span doubles while the source overlaps.
///
/// # Panics
/// When `dist` is 0 or beyond `out.len()`; decoders reject those first.
pub fn copy_match(out: &mut Vec<u8>, dist: usize, len: usize) {
    assert!(
        (1..=out.len()).contains(&dist),
        "match distance outside the output"
    );
    out.reserve(len);
    let from = out.len() - dist;
    let end = out.len() + len;
    while out.len() < end {
        let span = (out.len() - from).min(end - out.len());
        out.extend_from_within(from..from + span);
    }
}

/// Expands a token stream back into bytes (the reference decoder; format
/// crates implement their own expansion over their wire encoding).
pub fn expand(tokens: &[LzToken], input_for_literals: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for t in tokens {
        match *t {
            LzToken::Literal { start, len } => {
                out.extend_from_slice(&input_for_literals[start..start + len]);
            }
            LzToken::Match { len, dist } => {
                copy_match(&mut out, dist, len);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> Vec<LzToken> {
        let tokens = find_matches(data, &LzConfig::default());
        assert_eq!(expand(&tokens, data), data);
        tokens
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(roundtrip(b"").is_empty());
        roundtrip(b"a");
        roundtrip(b"abc");
    }

    #[test]
    fn repeated_pattern_found() {
        let data = b"abcdabcdabcdabcd";
        let tokens = roundtrip(data);
        assert!(
            tokens
                .iter()
                .any(|t| matches!(t, LzToken::Match { dist: 4, .. })),
            "expected a distance-4 match, got {tokens:?}"
        );
    }

    #[test]
    fn run_of_zeros_compresses_to_overlapping_match() {
        let data = vec![0u8; 1000];
        let tokens = roundtrip(&data);
        assert!(
            tokens.len() <= 3,
            "run should be a couple of tokens: {}",
            tokens.len()
        );
        assert!(tokens
            .iter()
            .any(|t| matches!(t, LzToken::Match { dist: 1, .. })));
    }

    #[test]
    fn incompressible_random_is_all_literals() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let data: Vec<u8> = (0..4096).map(|_| rng.gen()).collect();
        let tokens = roundtrip(&data);
        let match_bytes: usize = tokens
            .iter()
            .filter_map(|t| match t {
                LzToken::Match { len, .. } => Some(*len),
                _ => None,
            })
            .sum();
        assert!(
            match_bytes < data.len() / 8,
            "random data matched {match_bytes} bytes"
        );
    }

    #[test]
    fn copy_match_writes_what_the_byte_loop_writes() {
        let prefix: Vec<u8> = (1..=40u8).collect();
        // dist 1, dist < len (2 and 2.6 periods), dist == len, dist > len.
        for (dist, len) in [(1, 0), (1, 37), (3, 8), (5, 13), (7, 7), (12, 5), (40, 40)] {
            let mut want = prefix.clone();
            for _ in 0..len {
                want.push(want[want.len() - dist]);
            }
            let mut got = prefix.clone();
            copy_match(&mut got, dist, len);
            assert_eq!(got, want, "dist {dist}, len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "match distance outside the output")]
    fn copy_match_refuses_a_zero_distance() {
        copy_match(&mut vec![1, 2, 3], 0, 4);
    }

    #[test]
    fn long_match_lengths_capped() {
        let cfg = LzConfig {
            max_match: 16,
            ..LzConfig::default()
        };
        let data = vec![7u8; 200];
        let tokens = find_matches(&data, &cfg);
        assert_eq!(expand(&tokens, &data), data);
        for t in &tokens {
            if let LzToken::Match { len, .. } = t {
                assert!(*len <= 16);
            }
        }
    }

    #[test]
    fn structured_float_bytes() {
        // Interleaved doubles with repeating exponents — the byte structure
        // lossless compressors see on tensor data.
        let vals: Vec<f64> = (0..512).map(|i| (i % 16) as f64 * 0.125).collect();
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let tokens = roundtrip(&bytes);
        let match_bytes: usize = tokens
            .iter()
            .filter_map(|t| match t {
                LzToken::Match { len, .. } => Some(*len),
                _ => None,
            })
            .sum();
        assert!(
            match_bytes > bytes.len() / 2,
            "periodic data should mostly match"
        );
    }
}
