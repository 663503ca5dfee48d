//! Property tests over the codec primitives: anything in, same thing out.

use codec_kit::bitio::{BitReader, BitWriter};
use codec_kit::bitpack::{pack, required_width, unpack};
use codec_kit::chunked::{decode_chunk_at, decode_chunked, encode_chunked};
use codec_kit::huffman::{histogram, HuffmanDecoder, HuffmanEncoder};
use codec_kit::lz77::{expand, find_matches, LzConfig};
use codec_kit::varint::{read_ivarint, read_uvarint, write_ivarint, write_uvarint};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn varints_roundtrip(values in prop::collection::vec(any::<u64>(), 0..200)) {
        let mut buf = Vec::new();
        for &v in &values {
            write_uvarint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            prop_assert_eq!(read_uvarint(&buf, &mut pos).unwrap(), v);
        }
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn ivarints_roundtrip(values in prop::collection::vec(any::<i64>(), 0..200)) {
        let mut buf = Vec::new();
        for &v in &values {
            write_ivarint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            prop_assert_eq!(read_ivarint(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn bitio_roundtrips_any_width_sequence(
        items in prop::collection::vec((any::<u64>(), 0u32..=57), 0..500)
    ) {
        let mut w = BitWriter::new();
        for &(v, n) in &items {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &items {
            let want = if n == 0 { 0 } else { v & ((1u64 << n) - 1) };
            prop_assert_eq!(r.read_bits(n).unwrap(), want);
        }
    }

    #[test]
    fn bitpack_roundtrips(values in prop::collection::vec(0u64..(1 << 40), 0..300)) {
        let width = required_width(&values);
        let mut w = BitWriter::new();
        pack(&values, width, &mut w);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        prop_assert_eq!(unpack(&mut r, width, values.len()).unwrap(), values);
    }

    #[test]
    fn lz77_expand_inverts_parse(data in prop::collection::vec(any::<u8>(), 0..2000)) {
        let tokens = find_matches(&data, &LzConfig::default());
        prop_assert_eq!(expand(&tokens, &data), data);
    }

    #[test]
    fn lz77_periodic_data(period in 1usize..32, reps in 1usize..64) {
        let data: Vec<u8> = (0..period * reps).map(|i| (i % period) as u8).collect();
        let tokens = find_matches(&data, &LzConfig::default());
        prop_assert_eq!(expand(&tokens, &data), data);
    }

    #[test]
    fn huffman_roundtrips_any_symbols(
        symbols in prop::collection::vec(0u32..300, 1..3000)
    ) {
        let freqs = histogram(&symbols, 300);
        let enc = HuffmanEncoder::from_freqs(&freqs);
        let mut header = Vec::new();
        enc.write_table(&mut header);
        let mut w = BitWriter::new();
        enc.encode_all(&mut w, &symbols);
        let payload = w.finish();

        let mut pos = 0;
        let dec = HuffmanDecoder::read_table(&header, &mut pos).unwrap();
        let mut r = BitReader::new(&payload);
        prop_assert_eq!(dec.decode_all(&mut r, symbols.len()).unwrap(), symbols);
    }

    #[test]
    fn chunked_huffman_roundtrips(
        symbols in prop::collection::vec(0u32..64, 0..5000),
        chunk in 1usize..1500,
    ) {
        let enc = encode_chunked(&symbols, 64, chunk);
        prop_assert_eq!(decode_chunked(&enc).unwrap(), symbols.clone());
        // Spot-check a random-access chunk.
        if !symbols.is_empty() {
            let k = (symbols.len() / chunk.max(1)).saturating_sub(1);
            let piece = decode_chunk_at(&enc, k).unwrap();
            let lo = k * chunk;
            let hi = (lo + chunk).min(symbols.len());
            prop_assert_eq!(piece, symbols[lo..hi].to_vec());
        }
    }

    #[test]
    fn decoders_survive_arbitrary_garbage(garbage in prop::collection::vec(any::<u8>(), 0..300)) {
        // None of these may panic; errors are fine, and any accidental
        // success must at least return something well-formed.
        let mut pos = 0;
        let _ = read_uvarint(&garbage, &mut pos);
        let _ = decode_chunked(&garbage);
        let mut pos = 0;
        let _ = HuffmanDecoder::read_table(&garbage, &mut pos);
    }
}
