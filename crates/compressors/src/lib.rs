//! # compressors — the nine (de)compressors of the evaluation
//!
//! Reimplementations of the compressor suite the paper benchmarks on an
//! A100, behind one [`Compressor`] trait:
//!
//! | name | class | scheme |
//! |------|-------|--------|
//! | [`cusz::CuSz`]       | error-bounded | Lorenzo dual-quant + Huffman |
//! | [`cuszx::CuSzx`]     | error-bounded | constant blocks + bit-packed residuals |
//! | [`cuzfp::CuZfp`]     | error-bounded | block transform + bit planes |
//! | [`lz4::Lz4`]         | lossless | LZ77, byte tokens |
//! | [`snappy::Snappy`]   | lossless | LZ77, tagged elements |
//! | [`gdeflate::GDeflate`] | lossless | LZ77 + dynamic Huffman |
//! | [`cascaded::Cascaded`] | lossless | RLE + delta + bit-pack |
//! | [`bitcomp::Bitcomp`] | lossless | XOR-delta + width blocks |
//! | [`dummy::Memcpy`]    | baseline | raw copy |
//!
//! GPU cost is charged through `gpu-model` kernels declared by each
//! implementation; quality metrics live in [`metrics`].

pub mod bitcomp;
pub mod cascaded;
pub mod cusz;
pub mod cuszx;
pub mod cuzfp;
pub mod dummy;
pub mod gdeflate;
pub mod lz4;
pub mod metrics;
pub mod registry;
pub mod snappy;
pub mod traits;

pub use metrics::{quality, round_trip, QualityMetrics, RoundTripReport};
pub use registry::{all_compressors, by_name, decompress_any, decompress_any_into};
pub use traits::{Compressor, CompressorKind, ErrorBound};

/// The process-wide scratch pools of the codec hot paths, one per element
/// type: payload and symbol buffers that would otherwise be allocated per
/// call are checked out here and put back after use, so every compressor
/// (and the framework built on them) amortizes one set of grown-once
/// buffers. Hits and misses are mirrored into the registry as
/// `scratch.<type>.hits` / `scratch.<type>.misses`.
pub mod scratch {
    use gpu_model::ScratchPool;
    use std::sync::OnceLock;

    /// Byte streams: codec payloads, plane bodies, backend streams.
    pub fn u8s() -> &'static ScratchPool<u8> {
        static POOL: OnceLock<ScratchPool<u8>> = OnceLock::new();
        POOL.get_or_init(|| ScratchPool::with_metrics("scratch.u8"))
    }

    /// cuSZ's quant-code symbol plane.
    pub fn u32s() -> &'static ScratchPool<u32> {
        static POOL: OnceLock<ScratchPool<u32>> = OnceLock::new();
        POOL.get_or_init(|| ScratchPool::with_metrics("scratch.u32"))
    }

    /// cuSZx's block-code scratch on the serial path.
    pub fn u64s() -> &'static ScratchPool<u64> {
        static POOL: OnceLock<ScratchPool<u64>> = OnceLock::new();
        POOL.get_or_init(|| ScratchPool::with_metrics("scratch.u64"))
    }

    /// The framework's de-interleaved value planes and dedup uniques.
    pub fn f64s() -> &'static ScratchPool<f64> {
        static POOL: OnceLock<ScratchPool<f64>> = OnceLock::new();
        POOL.get_or_init(|| ScratchPool::with_metrics("scratch.f64"))
    }
}
