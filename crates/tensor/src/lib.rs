//! # tensornet — dense complex tensors with named indices
//!
//! Substrate crate for the QCF reproduction: the tensor algebra that the
//! QTensor-style simulator (crate `qtensor`) contracts and that the
//! compression framework (crate `qcf-core`) compresses.
//!
//! * [`Complex64`] — `#[repr(C)]` complex doubles, reinterpretable as
//!   interleaved `f64` (the on-the-wire layout compressors see).
//! * [`Tensor`] — row-major dense tensor whose axes carry integer labels.
//! * [`einsum`] — broadcast multiply, with or without one summed label.
//! * [`planes`] — interleaved ↔ split real/imag plane conversions.
//! * [`stats`] — value-distribution characterization (experiment E1).

pub mod complex;
pub mod einsum;
pub mod planes;
pub mod stats;
pub mod tensor;

pub use complex::Complex64;
pub use einsum::{multiply_keep, multiply_keep_serial, shared_indices};
pub use tensor::{Ix, Tensor, TensorError};
