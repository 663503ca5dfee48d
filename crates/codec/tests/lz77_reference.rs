//! `lz77::find_matches` must return the token stream of the plain
//! hash-chain matcher below, for every input and config: the LZ4, Snappy,
//! GDeflate and QCF-ratio frames are defined by that parse. The reference
//! keeps one chain entry per input byte and extends every candidate byte by
//! byte; the production matcher keeps its links in a window-sized ring,
//! rejects candidates before extending them and extends a word at a time.
//! Run it with `--release` too: the word loads and the rejects are compiled
//! differently with optimizations on.

use codec_kit::lz77::{find_matches, LzConfig, LzToken};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const HASH_BITS: u32 = 15;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// The format-defining parse: greedy, first candidate to reach the longest
/// length wins.
fn reference(data: &[u8], cfg: &LzConfig) -> Vec<LzToken> {
    assert!(cfg.min_match >= 4, "hash covers 4 bytes");
    let n = data.len();
    let mut tokens = Vec::new();
    if n == 0 {
        return tokens;
    }

    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; n];
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
        let h = hash4(&data[i..]);
        let mut cand = head[h];
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut depth = 0usize;
        while cand != usize::MAX && depth < cfg.max_chain {
            let dist = i - cand;
            if dist > cfg.window {
                break;
            }
            let limit = (n - i).min(cfg.max_match);
            let mut l = 0usize;
            while l < limit && data[cand + l] == data[i + l] {
                l += 1;
            }
            if l > best_len {
                best_len = l;
                best_dist = dist;
                if l >= limit {
                    break;
                }
            }
            cand = prev[cand];
            depth += 1;
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
                let h = hash4(&data[i..]);
                prev[i] = head[h];
                head[h] = i;
                i += 1;
            }
            i = end;
            lit_start = end;
        } else {
            prev[i] = head[h];
            head[h] = i;
            i += 1;
        }
    }
    flush_literals(&mut tokens, lit_start, n);
    tokens
}

/// LZ4 and Snappy.
const LZ4: LzConfig = LzConfig {
    min_match: 4,
    max_match: 1 << 20,
    window: 65_535,
    max_chain: 32,
};
/// GDeflate and the ratio-mode index stream.
const DEFLATE: LzConfig = LzConfig {
    min_match: 4,
    max_match: 258,
    window: 32_768,
    max_chain: 64,
};

/// Input shapes: 0 random, 1 two-bit entropy, 2 periodic with a period of
/// 1–300 bytes and rare substitutions, 3 f64-tensor-like (a small alphabet
/// of doubles tiled in motifs, with near-zero segments).
fn input(kind: u8, len: usize, seed: u64) -> Vec<u8> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    match kind {
        0 => (0..len).map(|_| rng.gen()).collect(),
        1 => (0..len)
            .map(|_| [0, 7, 0x3f, 0xc0][rng.gen_range(0..4)])
            .collect(),
        2 => {
            let period = rng.gen_range(1..=300usize);
            let motif: Vec<u8> = (0..period).map(|_| rng.gen()).collect();
            (0..len)
                .map(|k| {
                    if rng.gen_range(0..512) == 0 {
                        rng.gen()
                    } else {
                        motif[k % period]
                    }
                })
                .collect()
        }
        _ => {
            let alphabet: Vec<f64> = (0..rng.gen_range(4..64))
                .map(|_| rng.gen_range(-0.6..0.6))
                .collect();
            let tiny: Vec<f64> = (0..8).map(|_| rng.gen_range(-5e-9..5e-9)).collect();
            let mut out = Vec::with_capacity(len + 8);
            while out.len() < len {
                let seg = rng.gen_range(8..256usize);
                let motif: Vec<f64> = (0..[2usize, 4, 8][rng.gen_range(0..3)])
                    .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                    .collect();
                let near_zero = rng.gen_range(0..3) == 0;
                for k in 0..seg {
                    let v = if near_zero {
                        tiny[rng.gen_range(0..tiny.len())]
                    } else if rng.gen_range(0..20) == 0 {
                        alphabet[rng.gen_range(0..alphabet.len())]
                    } else {
                        motif[k % motif.len()]
                    };
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            out.truncate(len);
            out
        }
    }
}

/// Where `find_matches` departs from the reference, if it does.
fn mismatch(data: &[u8], cfg: &LzConfig) -> Option<String> {
    let got = find_matches(data, cfg);
    let want = reference(data, cfg);
    let at = got.iter().zip(&want).take_while(|(a, b)| a == b).count();
    (got != want).then(|| {
        format!(
            "{cfg:?} on {} bytes: {} tokens vs {} in the reference; first \
             difference at token {at}: {:?} vs {:?}",
            data.len(),
            got.len(),
            want.len(),
            got.get(at),
            want.get(at)
        )
    })
}

/// The three production configs, then random ones whose windows are
/// often far below the input length, so the link ring wraps.
fn config() -> impl Strategy<Value = LzConfig> {
    let window = prop_oneof![
        2 => 1usize..64,
        2 => 64usize..4096,
        2 => 4096usize..=70_000,
        1 => Just(usize::MAX),
    ];
    let random = (4usize..=8, 1usize..=300, window, 1usize..=80).prop_map(
        |(min_match, max_match, window, max_chain)| LzConfig {
            min_match,
            max_match,
            window,
            max_chain,
        },
    );
    prop_oneof![
        1 => Just(LZ4),
        1 => Just(DEFLATE),
        1 => Just(LzConfig::default()),
        4 => random,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn ring_matcher_equals_the_reference(
        kind in 0u8..4,
        len in prop_oneof![0usize..300, 300usize..20_000],
        seed in any::<u64>(),
        cfg in config(),
    ) {
        let m = mismatch(&input(kind, len, seed), &cfg);
        prop_assert!(m.is_none(), "{}", m.unwrap_or_default());
    }
}

#[test]
fn every_short_length_matches_the_reference() {
    for kind in 0..4 {
        let data = input(kind, 300, 7 + kind as u64);
        for len in 0..300 {
            for cfg in [LZ4, DEFLATE, LzConfig::default()] {
                assert_eq!(mismatch(&data[..len], &cfg), None);
            }
        }
    }
}

#[test]
fn unbounded_configs_match_the_reference() {
    let cfg = LzConfig {
        min_match: 4,
        max_match: usize::MAX,
        window: usize::MAX,
        max_chain: usize::MAX,
    };
    for kind in 0..4 {
        assert_eq!(mismatch(&input(kind, 1 << 14, 11), &cfg), None);
    }
}

#[test]
fn a_mebibyte_tensor_matches_the_reference() {
    let data = input(3, 1 << 20, 5);
    for cfg in [LZ4, DEFLATE, LzConfig::default()] {
        assert_eq!(mismatch(&data, &cfg), None);
    }
}
