//! Fixed-width bit packing.
//!
//! cuSZx stores block residuals as `width`-bit integers and Bitcomp packs
//! deltas the same way; both sit on these two functions. Width 0 is legal
//! and encodes a run of zeros in zero bytes.

use crate::bitio::{BitReader, BitWriter};
use crate::error::CodecError;

/// Smallest width (bits) that can represent every value in `values`.
pub fn required_width(values: &[u64]) -> u32 {
    values
        .iter()
        .map(|&v| 64 - v.leading_zeros())
        .max()
        .unwrap_or(0)
}

/// Packs `values` at `width` bits each.
///
/// # Panics
/// Debug-panics when a value does not fit in `width` bits.
pub fn pack(values: &[u64], width: u32, w: &mut BitWriter) {
    debug_assert!(width <= 57);
    for &v in values {
        debug_assert!(width == 0 && v == 0 || width >= 64 - v.leading_zeros());
        w.write_bits(v, width);
    }
}

/// Unpacks `count` values of `width` bits each. Widths beyond the packer's
/// 57-bit limit are rejected (decoders read widths from untrusted headers),
/// and so is a nonzero-width `count` the reader's remaining bits cannot
/// hold, before anything is reserved for it.
pub fn unpack(r: &mut BitReader<'_>, width: u32, count: usize) -> Result<Vec<u64>, CodecError> {
    if width == 0 {
        return Ok(vec![0u64; count]);
    }
    if width > 57 {
        return Err(CodecError::Corrupt("pack width out of range"));
    }
    if count > r.remaining_bits() / width as usize {
        return Err(CodecError::UnexpectedEof);
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(r.read_bits(width)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_detection() {
        assert_eq!(required_width(&[]), 0);
        assert_eq!(required_width(&[0, 0]), 0);
        assert_eq!(required_width(&[1]), 1);
        assert_eq!(required_width(&[255]), 8);
        assert_eq!(required_width(&[256]), 9);
        assert_eq!(required_width(&[0, 7, 3]), 3);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for width in [1u32, 3, 8, 13, 31, 57] {
            let maxv = if width == 57 {
                (1u64 << 57) - 1
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..100).map(|i| (i * 2654435761u64) & maxv).collect();
            let mut w = BitWriter::new();
            pack(&values, width, &mut w);
            let bytes = w.finish();
            assert_eq!(bytes.len(), (100 * width as usize).div_ceil(8));
            let mut r = BitReader::new(&bytes);
            assert_eq!(unpack(&mut r, width, 100).unwrap(), values);
        }
    }

    #[test]
    fn zero_width_is_free() {
        let mut w = BitWriter::new();
        pack(&[0; 1000], 0, &mut w);
        let bytes = w.finish();
        assert!(bytes.is_empty());
        let mut r = BitReader::new(&bytes);
        assert_eq!(unpack(&mut r, 0, 1000).unwrap(), vec![0u64; 1000]);
    }

    #[test]
    fn forged_count_errors_before_reserving() {
        // 2^40 one-bit values would reserve 8 TiB; the reader holds 8 bits.
        let bytes = [0u8; 1];
        let mut r = BitReader::new(&bytes);
        assert_eq!(unpack(&mut r, 1, 1 << 40), Err(CodecError::UnexpectedEof));
        let mut r = BitReader::new(&bytes);
        assert_eq!(unpack(&mut r, 1, 8).unwrap(), vec![0u64; 8]);
        let mut r = BitReader::new(&bytes);
        assert!(unpack(&mut r, 3, 3).is_err());
    }

    #[test]
    fn truncated_unpack_errors() {
        let mut w = BitWriter::new();
        pack(&[1, 2, 3], 8, &mut w);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes[..2]);
        assert!(unpack(&mut r, 8, 3).is_err());
    }
}
