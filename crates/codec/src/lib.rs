//! # codec-kit — coding primitives shared by every compressor
//!
//! One implementation each of the mechanisms the nine compressors are built
//! from, so format crates contain format logic only:
//!
//! * [`bitio`] — LSB-first bit writer/reader (DEFLATE convention).
//! * [`huffman`] — length-limited canonical Huffman with table decode.
//! * [`chunked`] — chunked Huffman with a gap array (GPU-parallel decode).
//! * [`lz77`] — hash-chain greedy match finder.
//! * [`bitpack`] — fixed-width integer packing (cuSZx/Bitcomp residuals).
//! * [`varint`] — LEB128 + zigzag.
//!
//! Decoders never panic on corrupt input; they return [`CodecError`].

pub mod bitio;
pub mod bitpack;
pub mod chunked;
pub mod error;
pub mod frame;
pub mod huffman;
pub mod lz77;
pub mod varint;

pub use bitio::{BitReader, BitWriter};
pub use error::CodecError;
pub use huffman::{HuffmanDecoder, HuffmanEncoder};
