//! LSB-first bit-level I/O (the DEFLATE convention).
//!
//! The writer packs bits into a byte vector least-significant-bit first; the
//! reader mirrors it. Both are branch-light: the writer keeps a 64-bit
//! accumulator and spills whole bytes, which is what the bit-emission loops
//! of every entropy coder in this workspace sit on.

use crate::error::CodecError;

/// Accumulating LSB-first bit writer.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    /// A fresh writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// A writer with reserved output capacity (bytes).
    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            out: Vec::with_capacity(bytes),
            acc: 0,
            nbits: 0,
        }
    }

    /// A writer that emits into `buf`, which is cleared first but keeps its
    /// capacity — the allocation-reuse path: recover the vector with
    /// [`finish`](BitWriter::finish) and check it back into a pool.
    pub fn from_vec(mut buf: Vec<u8>) -> Self {
        buf.clear();
        BitWriter {
            out: buf,
            acc: 0,
            nbits: 0,
        }
    }

    /// Appends the low `n` bits of `value` (LSB first). `n` may be 0..=57
    /// per call (the accumulator spills eagerly, so 57 is always safe).
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 57, "write_bits limited to 57 bits per call");
        self.acc |= (value & mask(n)) << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.out.push((self.acc & 0xFF) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Appends a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Appends a full 64-bit value (two calls under the 57-bit limit).
    #[inline]
    pub fn write_u64(&mut self, value: u64) {
        self.write_bits(value & 0xFFFF_FFFF, 32);
        self.write_bits(value >> 32, 32);
    }

    /// Appends every bit written to `other`, in order, with no alignment —
    /// the output is bit-for-bit what writing `other`'s sequence directly
    /// would have produced. This is what lets block encoders emit into
    /// private writers in parallel and concatenate deterministically.
    pub fn append(&mut self, other: &BitWriter) {
        if self.nbits == 0 {
            self.out.extend_from_slice(&other.out);
        } else {
            for &b in &other.out {
                self.write_bits(b as u64, 8);
            }
        }
        if other.nbits > 0 {
            // the accumulator always holds < 8 residual bits
            self.write_bits(other.acc, other.nbits);
        }
    }

    /// Pads with zero bits to a byte boundary.
    pub fn align_byte(&mut self) {
        if self.nbits > 0 {
            self.out.push((self.acc & 0xFF) as u8);
            self.acc = 0;
            self.nbits = 0;
        }
    }

    /// Finishes (byte-aligning) and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_byte();
        self.out
    }
}

/// LSB-first bit reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    byte_pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// A reader positioned at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            byte_pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    #[inline]
    fn refill(&mut self) {
        while self.nbits <= 56 && self.byte_pos < self.data.len() {
            self.acc |= (self.data[self.byte_pos] as u64) << self.nbits;
            self.byte_pos += 1;
            self.nbits += 8;
        }
    }

    /// Reads `n ≤ 57` bits; errors at end of input.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64, CodecError> {
        debug_assert!(n <= 57);
        if self.nbits < n {
            self.refill();
            if self.nbits < n {
                return Err(CodecError::UnexpectedEof);
            }
        }
        let v = self.acc & mask(n);
        self.acc >>= n;
        self.nbits -= n;
        Ok(v)
    }

    /// Reads one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Reads a 64-bit value written by [`BitWriter::write_u64`].
    pub fn read_u64(&mut self) -> Result<u64, CodecError> {
        let lo = self.read_bits(32)?;
        let hi = self.read_bits(32)?;
        Ok(lo | (hi << 32))
    }

    /// Peeks up to `n ≤ 57` bits without consuming; missing tail bits read
    /// as zero (canonical-Huffman decoding relies on this).
    #[inline]
    pub fn peek_bits(&mut self, n: u32) -> u64 {
        debug_assert!(n <= 57);
        if self.nbits < n {
            self.refill();
        }
        self.acc & mask(n)
    }

    /// Consumes `n` bits previously peeked.
    ///
    /// # Panics
    /// Debug-panics when consuming more than is buffered.
    #[inline]
    pub fn consume(&mut self, n: u32) {
        debug_assert!(n <= self.nbits, "consume beyond buffered bits");
        self.acc >>= n;
        self.nbits -= n;
    }

    /// Number of bits still available (buffered + unread bytes).
    pub fn remaining_bits(&self) -> usize {
        self.nbits as usize + (self.data.len() - self.byte_pos) * 8
    }
}

#[inline(always)]
fn mask(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_clears_but_keeps_capacity() {
        let buf = vec![0xFFu8; 64];
        let cap = buf.capacity();
        let mut w = BitWriter::from_vec(buf);
        w.write_bits(0b1011, 4);
        let out = w.finish();
        assert_eq!(out, vec![0b1011]);
        assert!(out.capacity() >= cap, "capacity must be preserved");
    }

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xFFFF, 16);
        w.write_bit(true);
        w.write_bits(42, 7);
        w.write_u64(0xDEAD_BEEF_CAFE_F00D);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xFFFF);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_bits(7).unwrap(), 42);
        assert_eq!(r.read_u64().unwrap(), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn eof_detected() {
        let bytes = BitWriter::new().finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1), Err(CodecError::UnexpectedEof));
        let mut w = BitWriter::new();
        w.write_bits(1, 4);
        let bytes = w.finish(); // one byte: 4 data bits + 4 pad bits
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bits(8).is_ok());
        assert_eq!(r.read_bits(1), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn align_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.align_byte();
        w.write_bits(0xAB, 8);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0x01, 0xAB]);
    }

    #[test]
    fn peek_and_consume() {
        let mut w = BitWriter::new();
        w.write_bits(0b110_1011, 7);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(4), 0b1011);
        r.consume(4);
        assert_eq!(r.read_bits(3).unwrap(), 0b110);
    }

    #[test]
    fn peek_past_end_reads_zero() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let v = r.peek_bits(20);
        assert_eq!(v & 0xFF, 0x01);
    }

    #[test]
    fn append_matches_direct_writes() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let items: Vec<(u64, u32)> = (0..2_000)
            .map(|_| {
                let n = rng.gen_range(1..=57u32);
                (rng.gen::<u64>() & ((1u64 << n) - 1), n)
            })
            .collect();
        // Direct: one writer sees the whole sequence.
        let mut direct = BitWriter::new();
        for &(v, n) in &items {
            direct.write_bits(v, n);
        }
        // Split: arbitrary segments written to private writers, appended.
        for split_at in [0, 1, 137, 1000, 1999, 2000] {
            let mut w = BitWriter::new();
            for part in [&items[..split_at], &items[split_at..]] {
                let mut sub = BitWriter::new();
                for &(v, n) in part {
                    sub.write_bits(v, n);
                }
                w.append(&sub);
            }
            assert_eq!(
                w.clone().finish(),
                direct.clone().finish(),
                "split {split_at}"
            );
        }
    }

    #[test]
    fn long_random_roundtrip() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let items: Vec<(u64, u32)> = (0..10_000)
            .map(|_| {
                let n = rng.gen_range(0..=57u32);
                let v = rng.gen::<u64>() & (((1u64 << n.max(1)) - 1) * (n > 0) as u64);
                (v, n)
            })
            .collect();
        let mut w = BitWriter::new();
        for &(v, n) in &items {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &items {
            assert_eq!(r.read_bits(n).unwrap(), v);
        }
    }
}
