//! Versioned integrity frames around compressed streams (format v5, v2
//! still read).
//!
//! A bare (v1) stream is `[id][uvarint n][codec payload…]` with `id < 0x80`.
//! A sealed frame wraps the whole v1 stream without touching it:
//!
//! ```text
//! [id | 0x80]  [version = 5]  [payload_len: u32 LE]  [payload = v1 stream]  [checksum(payload): u32 LE]
//! ```
//!
//! * The high bit of the leading byte marks a frame — every assigned
//!   compressor id is `< 0x80`, so dispatch stays a one-byte read and
//!   legacy v1 streams remain decodable unchanged ([`unseal`] passes them
//!   through verbatim).
//! * `payload_len` is validated against the input size **before** any
//!   payload access or allocation (decompression-bomb guard at the frame
//!   layer); a frame must be exactly `payload_len + `[`FRAME_OVERHEAD`]
//!   bytes.
//! * The checksum is [`checksum`], XXH32 with seed 0, over the payload, so
//!   any flipped bit in storage or transport surfaces as
//!   [`CodecError::ChecksumMismatch`] instead of a garbage decode. The
//!   spill log's record headers and the snapshot footer use it too.
//!
//! ## Versions
//!
//! * **v5** (written): the layout above with the XXH32 checksum, which
//!   reads four 32-bit words per step where FNV-1a multiplies once per
//!   byte.
//! * **v2** (read only): the same layout with [`fnv1a32`] in the checksum
//!   slot, as every build before v5 wrote it. [`unseal`] still accepts it,
//!   so old `.qcfz` files and snapshots stay readable.
//!
//! The new version is 5 and not 3 because the version byte picks the hash:
//! 3 is one bit flip from 2, so a single flipped bit could make a new frame
//! be checked with the old hash (and the other way round). 5 (`0b101`) is
//! three flips from 2, and any single flip of either version byte names
//! no known version.

use crate::error::CodecError;

/// High bit of the leading byte: set ⇒ sealed frame, clear ⇒ bare v1.
pub const FRAME_FLAG: u8 = 0x80;
/// The frame format version [`seal_in_place`] writes (XXH32 checksum).
pub const FRAME_VERSION: u8 = 5;
/// The previous frame format version (FNV-1a checksum), still unsealed.
pub const LEGACY_FRAME_VERSION: u8 = 2;
/// Bytes a frame adds around its payload (2-byte prologue + 4-byte length
/// + 4-byte checksum).
pub const FRAME_OVERHEAD: usize = 10;
/// Frame bytes preceding the payload.
const FRAME_PROLOGUE: usize = 6;

const PRIME32_1: u32 = 0x9e37_79b1;
const PRIME32_2: u32 = 0x85eb_ca77;
const PRIME32_3: u32 = 0xc2b2_ae3d;
const PRIME32_4: u32 = 0x27d4_eb2f;
const PRIME32_5: u32 = 0x1656_67b1;

/// The integrity checksum of frames, spill records and snapshots: XXH32
/// with seed 0, as published. Four lanes take one little-endian 32-bit word
/// each per 16-byte stripe; the remaining whole words, then bytes, are
/// folded into the merged lanes, and an avalanche mixes the result.
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut stripes = bytes.chunks_exact(16);
    let mut h = if bytes.len() >= 16 {
        let mut lanes = [
            PRIME32_1.wrapping_add(PRIME32_2),
            PRIME32_2,
            0,
            PRIME32_1.wrapping_neg(),
        ];
        for stripe in &mut stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(4)) {
                *lane = xxh32_round(*lane, le_word(word));
            }
        }
        lanes[0]
            .rotate_left(1)
            .wrapping_add(lanes[1].rotate_left(7))
            .wrapping_add(lanes[2].rotate_left(12))
            .wrapping_add(lanes[3].rotate_left(18))
    } else {
        PRIME32_5
    };
    // The published algorithm adds the length modulo 2^32.
    h = h.wrapping_add(bytes.len() as u32);
    let mut words = stripes.remainder().chunks_exact(4);
    for word in &mut words {
        h = h.wrapping_add(le_word(word).wrapping_mul(PRIME32_3));
        h = h.rotate_left(17).wrapping_mul(PRIME32_4);
    }
    for &b in words.remainder() {
        h = h.wrapping_add(u32::from(b).wrapping_mul(PRIME32_5));
        h = h.rotate_left(11).wrapping_mul(PRIME32_1);
    }
    h ^= h >> 15;
    h = h.wrapping_mul(PRIME32_2);
    h ^= h >> 13;
    h = h.wrapping_mul(PRIME32_3);
    h ^ (h >> 16)
}

fn xxh32_round(lane: u32, word: u32) -> u32 {
    lane.wrapping_add(word.wrapping_mul(PRIME32_2))
        .rotate_left(13)
        .wrapping_mul(PRIME32_1)
}

/// `word` is a 4-byte slice from `chunks_exact(4)`.
fn le_word(word: &[u8]) -> u32 {
    u32::from_le_bytes([word[0], word[1], word[2], word[3]])
}

/// 32-bit FNV-1a over `bytes`: the checksum of v2 frames and of
/// `QCFSEND1` snapshot footers, kept to read those.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// True when the leading byte carries the frame flag.
pub fn is_framed(bytes: &[u8]) -> bool {
    bytes.first().is_some_and(|b| b & FRAME_FLAG != 0)
}

/// The compressor id a stream's leading byte names, framed or not.
pub fn stream_id(bytes: &[u8]) -> Result<u8, CodecError> {
    let lead = *bytes.first().ok_or(CodecError::UnexpectedEof)?;
    Ok(lead & !FRAME_FLAG)
}

/// Seals `out` — which must hold a complete bare v1 stream — into a
/// [`FRAME_VERSION`] frame in place: the payload is shifted up by the
/// prologue (no scratch buffer, capacity permitting no reallocation) and
/// the checksum appended.
///
/// Empty buffers are left alone (nothing to protect, nothing to dispatch).
pub fn seal_in_place(out: &mut Vec<u8>) {
    let len = out.len();
    if len == 0 {
        return;
    }
    let id = out[0];
    debug_assert_eq!(id & FRAME_FLAG, 0, "v1 stream id must be < 0x80");
    debug_assert!(len <= u32::MAX as usize, "frame payload exceeds u32 range");
    out.resize(len + FRAME_OVERHEAD, 0);
    out.copy_within(0..len, FRAME_PROLOGUE);
    out[0] = id | FRAME_FLAG;
    out[1] = FRAME_VERSION;
    out[2..6].copy_from_slice(&(len as u32).to_le_bytes());
    let sum = checksum(&out[FRAME_PROLOGUE..FRAME_PROLOGUE + len]);
    out[FRAME_PROLOGUE + len..].copy_from_slice(&sum.to_le_bytes());
}

/// Unwraps a v5 or v2 frame, returning the verified payload. Bare v1
/// streams (no frame flag) pass through unchanged for backward
/// compatibility.
///
/// Validation order is cheapest-first and allocation-free: flag, version,
/// declared length against actual input size, id consistency, checksum.
pub fn unseal(bytes: &[u8]) -> Result<&[u8], CodecError> {
    if !is_framed(bytes) {
        return Ok(bytes);
    }
    if bytes.len() < FRAME_OVERHEAD {
        return Err(CodecError::UnexpectedEof);
    }
    let sum: fn(&[u8]) -> u32 = match bytes[1] {
        FRAME_VERSION => checksum,
        LEGACY_FRAME_VERSION => fnv1a32,
        _ => return Err(CodecError::Unsupported("unknown frame version")),
    };
    let declared = u32::from_le_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]) as usize;
    // Bomb guard: the declared payload length must match the input exactly
    // — checked before the payload is touched, so a forged length can never
    // drive an oversized read or allocation.
    if declared != bytes.len() - FRAME_OVERHEAD {
        return Err(CodecError::Corrupt("frame length does not match input"));
    }
    let payload = &bytes[FRAME_PROLOGUE..FRAME_PROLOGUE + declared];
    // The inner stream must agree with the frame about who owns it.
    if payload.first().copied().unwrap_or(0) != bytes[0] & !FRAME_FLAG {
        return Err(CodecError::Corrupt("frame id does not match payload"));
    }
    let stored = u32::from_le_bytes([
        bytes[FRAME_PROLOGUE + declared],
        bytes[FRAME_PROLOGUE + declared + 1],
        bytes[FRAME_PROLOGUE + declared + 2],
        bytes[FRAME_PROLOGUE + declared + 3],
    ]);
    let actual = sum(payload);
    if stored != actual {
        return Err(CodecError::ChecksumMismatch {
            stored,
            computed: actual,
        });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v1_stream() -> Vec<u8> {
        let mut s = vec![7u8]; // id
        crate::varint::write_uvarint(&mut s, 1234);
        s.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0x00, 0x42]);
        s
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let raw = v1_stream();
        let mut framed = raw.clone();
        seal_in_place(&mut framed);
        assert_eq!(framed.len(), raw.len() + FRAME_OVERHEAD);
        assert_eq!(framed[0], 7 | FRAME_FLAG);
        assert_eq!(framed[1], FRAME_VERSION);
        assert!(is_framed(&framed));
        assert_eq!(stream_id(&framed).unwrap(), 7);
        assert_eq!(unseal(&framed).unwrap(), &raw[..]);
    }

    #[test]
    fn legacy_v1_passes_through() {
        let raw = v1_stream();
        assert!(!is_framed(&raw));
        assert_eq!(unseal(&raw).unwrap(), &raw[..]);
        assert_eq!(stream_id(&raw).unwrap(), 7);
    }

    /// A 37-byte v1 stream: two 16-byte stripes, a word and a tail byte,
    /// so every branch of [`checksum`] runs.
    fn long_v1_stream() -> Vec<u8> {
        let mut s = vec![7u8];
        crate::varint::write_uvarint(&mut s, 1234);
        s.extend((0u8..34).map(|i| i.wrapping_mul(29) ^ 0x5a));
        assert_eq!(s.len(), 37);
        s
    }

    /// A v2 frame around `[7][uvarint 1234]"sealed by format v2"`, as
    /// `seal_in_place` wrote it before v5.
    const PINNED_V2: [u8; 32] = [
        0x87, 0x02, 0x16, 0x00, 0x00, 0x00, 0x07, 0xd2, 0x09, 0x73, 0x65, 0x61, 0x6c, 0x65, 0x64,
        0x20, 0x62, 0x79, 0x20, 0x66, 0x6f, 0x72, 0x6d, 0x61, 0x74, 0x20, 0x76, 0x32, 0x71, 0x7b,
        0x6a, 0xc4,
    ];

    fn assert_every_flip_rejected(framed: &[u8]) {
        assert!(unseal(framed).is_ok());
        for byte in 0..framed.len() {
            for bit in 0..8 {
                let mut bad = framed.to_vec();
                bad[byte] ^= 1 << bit;
                // Clearing the frame flag turns it into a "v1" stream that
                // passes through — every other flip must be caught here.
                if byte == 0 && bad[0] & FRAME_FLAG == 0 {
                    continue;
                }
                assert!(
                    unseal(&bad).is_err(),
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        for raw in [v1_stream(), long_v1_stream()] {
            let mut framed = raw;
            seal_in_place(&mut framed);
            assert_every_flip_rejected(&framed);
        }
    }

    #[test]
    fn pinned_v2_frame_still_unseals() {
        let mut raw = vec![7u8];
        crate::varint::write_uvarint(&mut raw, 1234);
        raw.extend_from_slice(b"sealed by format v2");
        assert_eq!(PINNED_V2[1], LEGACY_FRAME_VERSION);
        assert_eq!(unseal(&PINNED_V2).unwrap(), &raw[..]);
        assert_every_flip_rejected(&PINNED_V2);
        // The version byte picks the hash: a v5 frame relabelled v2 is
        // checked with FNV-1a and fails.
        let mut relabelled = raw;
        seal_in_place(&mut relabelled);
        relabelled[1] = LEGACY_FRAME_VERSION;
        assert!(matches!(
            unseal(&relabelled),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn version_byte_is_two_flips_from_the_legacy_one() {
        assert!((FRAME_VERSION ^ 2).count_ones() >= 2);
    }

    #[test]
    fn truncation_and_extension_are_rejected() {
        let mut framed = v1_stream();
        seal_in_place(&mut framed);
        for cut in 1..framed.len() {
            assert!(
                unseal(&framed[..cut]).is_err(),
                "accepted {cut}-byte prefix"
            );
        }
        let mut longer = framed.clone();
        longer.push(0);
        assert!(unseal(&longer).is_err(), "accepted trailing garbage");
    }

    #[test]
    fn forged_length_is_rejected_before_payload_access() {
        let mut framed = v1_stream();
        seal_in_place(&mut framed);
        framed[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            unseal(&framed).unwrap_err(),
            CodecError::Corrupt("frame length does not match input")
        );
    }

    #[test]
    fn unknown_version_is_unsupported() {
        let mut framed = v1_stream();
        seal_in_place(&mut framed);
        framed[1] = 3;
        assert_eq!(
            unseal(&framed).unwrap_err(),
            CodecError::Unsupported("unknown frame version")
        );
    }

    #[test]
    fn empty_input() {
        let mut empty = Vec::new();
        seal_in_place(&mut empty);
        assert!(empty.is_empty());
        assert_eq!(unseal(&[]).unwrap(), &[] as &[u8]);
        assert!(stream_id(&[]).is_err());
    }

    #[test]
    fn xxh32_reference_vectors() {
        // Published XXH32 vectors, seed 0.
        assert_eq!(checksum(b""), 0x02cc_5d05);
        assert_eq!(checksum(b"a"), 0x550d_7456);
        assert_eq!(checksum(b"abc"), 0x32d1_53ff);
        assert_eq!(
            checksum(b"Nobody inspects the spammish repetition"),
            0xe229_3b2f
        );
    }

    #[test]
    fn fnv_reference_vectors() {
        // Canonical FNV-1a 32-bit test vectors.
        assert_eq!(fnv1a32(b""), 0x811c_9dc5);
        assert_eq!(fnv1a32(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a32(b"foobar"), 0xbf9c_f968);
    }
}
