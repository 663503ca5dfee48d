//! # gpu-model — a simulated GPU for compressor kernels
//!
//! The paper runs its compressors on an NVIDIA A100; this environment has no
//! GPU, so the device is modelled explicitly (DESIGN.md §2 documents the
//! substitution). Kernel bodies are real Rust executed on host threads;
//! *simulated* time is charged from a calibrated roofline over each kernel's
//! declared memory traffic, flops, access pattern and serial fraction.
//!
//! * [`DeviceSpec`] / [`KernelSpec`] — the cost model ([`DeviceSpec::a100`]).
//! * [`Stream`] — in-order launches, virtual clock, per-kernel event log.
//! * [`exec`] — grid/block execution of kernel bodies on one persistent
//!   worker pool.
//! * [`ScratchPool`] — reusable scratch buffers for the codec hot loops.

pub mod buffer;
pub mod device;
pub mod exec;
pub mod stream;

pub use buffer::ScratchPool;
pub use device::{DeviceSpec, KernelSpec, MemoryPattern};
pub use stream::{KernelEvent, Stream};
