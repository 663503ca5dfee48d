//! Dense tensors with named (labelled) indices.
//!
//! A [`Tensor`] is a row-major dense array whose axes carry integer labels.
//! Labels are how tensor-network contraction knows which axes to sum over:
//! two tensors sharing label `k` contract over `k`. Labels within one tensor
//! are unique; dimensions are arbitrary (qubit networks use 2 everywhere).

use crate::complex::Complex64;
use gpu_model::exec::par_fill_blocks;
use std::fmt;

/// Element count below which the data-parallel executor is skipped: the
/// kernels are bit-identical either way (see `gpu_model::exec`), so the
/// threshold is purely a latency knob.
pub(crate) const PAR_MIN_ELEMS: usize = 1 << 12;

/// Output elements per parallel block for the element-wise kernels.
pub(crate) const PAR_BLOCK: usize = 1 << 13;

/// `(new_dims, contrib)` of a non-identity permutation: the permuted shape
/// and, per output axis, its source linear-stride contribution.
pub(crate) type PermutePlan = (Vec<usize>, Vec<usize>);

/// An index label. Labels are allocated by the network builder and are unique
/// per logical variable (wire segment) in the tensor network.
pub type Ix = u32;

/// Errors produced by tensor algebra.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The data length does not match the product of the dimensions.
    ShapeMismatch { expected: usize, got: usize },
    /// An index label appears more than once in a single tensor.
    DuplicateIndex(Ix),
    /// A requested label is not present on the tensor.
    MissingIndex(Ix),
    /// Two tensors disagree on the dimension of a shared label.
    DimConflict { index: Ix, a: usize, b: usize },
    /// A permutation did not name every axis exactly once.
    BadPermutation,
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, got } => {
                write!(
                    f,
                    "data length {got} does not match shape product {expected}"
                )
            }
            TensorError::DuplicateIndex(ix) => write!(f, "duplicate index label {ix}"),
            TensorError::MissingIndex(ix) => write!(f, "index label {ix} not present"),
            TensorError::DimConflict { index, a, b } => {
                write!(f, "index {index} has conflicting dimensions {a} and {b}")
            }
            TensorError::BadPermutation => write!(f, "permutation must name every axis once"),
        }
    }
}

impl std::error::Error for TensorError {}

/// A dense, row-major tensor with labelled axes.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    indices: Vec<Ix>,
    dims: Vec<usize>,
    data: Vec<Complex64>,
}

impl Tensor {
    /// Builds a tensor from labels, per-axis dimensions and row-major data.
    pub fn new(
        indices: Vec<Ix>,
        dims: Vec<usize>,
        data: Vec<Complex64>,
    ) -> Result<Self, TensorError> {
        assert_eq!(indices.len(), dims.len(), "one dimension per index label");
        let expected: usize = dims.iter().product();
        if data.len() != expected {
            return Err(TensorError::ShapeMismatch {
                expected,
                got: data.len(),
            });
        }
        for (i, ix) in indices.iter().enumerate() {
            if indices[..i].contains(ix) {
                return Err(TensorError::DuplicateIndex(*ix));
            }
        }
        Ok(Tensor {
            indices,
            dims,
            data,
        })
    }

    /// A rank-0 tensor holding one value.
    pub fn scalar(value: Complex64) -> Self {
        Tensor {
            indices: Vec::new(),
            dims: Vec::new(),
            data: vec![value],
        }
    }

    /// A tensor of all-qubit axes (dimension 2 each), convenient for gates.
    pub fn qubit(indices: Vec<Ix>, data: Vec<Complex64>) -> Result<Self, TensorError> {
        let dims = vec![2; indices.len()];
        Tensor::new(indices, dims, data)
    }

    /// Number of axes.
    #[inline]
    pub fn rank(&self) -> usize {
        self.indices.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements (possible only with a zero dim).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Axis labels in storage order.
    #[inline]
    pub fn indices(&self) -> &[Ix] {
        &self.indices
    }

    /// Axis dimensions in storage order.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable raw data (used by compression round-trips).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Consumes the tensor, returning its parts.
    pub fn into_parts(self) -> (Vec<Ix>, Vec<usize>, Vec<Complex64>) {
        (self.indices, self.dims, self.data)
    }

    /// The dimension of the axis labelled `ix`.
    pub fn dim_of(&self, ix: Ix) -> Option<usize> {
        self.position(ix).map(|p| self.dims[p])
    }

    /// Storage position of label `ix`.
    #[inline]
    pub fn position(&self, ix: Ix) -> Option<usize> {
        self.indices.iter().position(|&i| i == ix)
    }

    /// In-memory bytes of the payload (16 bytes per element).
    #[inline]
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<Complex64>()
    }

    /// Row-major strides for the current dims.
    pub fn strides(&self) -> Vec<usize> {
        strides_of(&self.dims)
    }

    /// Element access by multi-index (debug/test oriented; O(rank)).
    pub fn get(&self, idx: &[usize]) -> Complex64 {
        debug_assert_eq!(idx.len(), self.rank());
        let mut lin = 0usize;
        for (axis, &i) in idx.iter().enumerate() {
            debug_assert!(i < self.dims[axis]);
            lin = lin * self.dims[axis] + i;
        }
        self.data[lin]
    }

    /// Element assignment by multi-index.
    pub fn set(&mut self, idx: &[usize], value: Complex64) {
        debug_assert_eq!(idx.len(), self.rank());
        let mut lin = 0usize;
        for (axis, &i) in idx.iter().enumerate() {
            debug_assert!(i < self.dims[axis]);
            lin = lin * self.dims[axis] + i;
        }
        self.data[lin] = value;
    }

    /// Computes the permutation plan for `order`: `None` when `order` is the
    /// identity, otherwise `(new_dims, contrib)` where `contrib[new_axis]`
    /// is the source linear-stride contribution of that output axis.
    pub(crate) fn permute_plan(&self, order: &[Ix]) -> Result<Option<PermutePlan>, TensorError> {
        if order.len() != self.rank() {
            return Err(TensorError::BadPermutation);
        }
        // perm[new_axis] = old_axis
        let mut perm = Vec::with_capacity(order.len());
        for &ix in order {
            match self.position(ix) {
                Some(p) if !perm.contains(&p) => perm.push(p),
                _ => return Err(TensorError::BadPermutation),
            }
        }
        if perm.iter().enumerate().all(|(new, &old)| new == old) {
            return Ok(None);
        }
        let new_dims: Vec<usize> = perm.iter().map(|&p| self.dims[p]).collect();
        let old_strides = self.strides();
        let contrib: Vec<usize> = perm.iter().map(|&p| old_strides[p]).collect();
        Ok(Some((new_dims, contrib)))
    }

    /// Returns a tensor with axes re-ordered so labels appear as in `order`.
    ///
    /// `order` must contain exactly the tensor's labels. Large tensors run
    /// the gather block-parallel; the output is bit-identical to the serial
    /// walk because every element is an independent copy.
    pub fn permuted(&self, order: &[Ix]) -> Result<Tensor, TensorError> {
        let Some((new_dims, contrib)) = self.permute_plan(order)? else {
            return Ok(self.clone());
        };
        let mut out = vec![Complex64::ZERO; self.data.len()];
        permute_kernel(&self.data, &new_dims, &contrib, &mut out);
        Ok(Tensor {
            indices: order.to_vec(),
            dims: new_dims,
            data: out,
        })
    }

    /// Sums the tensor over axis `ix`, removing it.
    ///
    /// Parallel over output elements; each output element accumulates its
    /// `d` addends in ascending-axis order on one worker, so the reduction
    /// order — and therefore every output bit — matches the serial loop.
    pub fn sum_over(&self, ix: Ix) -> Result<Tensor, TensorError> {
        let _span = qcf_telemetry::span!("tensor.sum_over");
        let pos = self.position(ix).ok_or(TensorError::MissingIndex(ix))?;
        let d = self.dims[pos];
        let outer: usize = self.dims[..pos].iter().product();
        let inner: usize = self.dims[pos + 1..].iter().product();
        let mut data = vec![Complex64::ZERO; outer * inner];
        if outer * inner * d >= PAR_MIN_ELEMS && inner > 0 {
            par_fill_blocks(&mut data, PAR_BLOCK, |_, range, chunk| {
                sum_axis_range(&self.data, d, inner, range.start, chunk);
            });
        } else if !data.is_empty() {
            sum_axis_range(&self.data, d, inner, 0, &mut data);
        }
        let mut indices = self.indices.clone();
        let mut dims = self.dims.clone();
        indices.remove(pos);
        dims.remove(pos);
        Ok(Tensor {
            indices,
            dims,
            data,
        })
    }

    /// Largest magnitude among elements (0 for empty tensors).
    pub fn max_abs(&self) -> f64 {
        self.data
            .iter()
            .map(|v| v.re.abs().max(v.im.abs()))
            .fold(0.0, f64::max)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor(ix={:?}, dims={:?}, {} elems)",
            self.indices,
            self.dims,
            self.len()
        )
    }
}

/// Gathers the permuted layout into `out`: output element `j` (row-major
/// in `new_dims`) reads `src[Σ digit_k(j)·contrib[k]]`. Block-parallel for
/// large tensors, serial below [`PAR_MIN_ELEMS`]; identical output either
/// way since every element is an independent gather.
pub(crate) fn permute_kernel(
    src: &[Complex64],
    new_dims: &[usize],
    contrib: &[usize],
    out: &mut [Complex64],
) {
    if out.len() >= PAR_MIN_ELEMS {
        par_fill_blocks(out, PAR_BLOCK, |_, range, chunk| {
            permute_range(src, new_dims, contrib, range.start, chunk);
        });
    } else if !out.is_empty() {
        permute_range(src, new_dims, contrib, 0, out);
    }
}

/// Single-threaded full-range gather: the reference against which the
/// block-parallel [`permute_kernel`] is asserted bit-identical.
pub(crate) fn permute_range_serial(
    src: &[Complex64],
    new_dims: &[usize],
    contrib: &[usize],
    out: &mut [Complex64],
) {
    if !out.is_empty() {
        permute_range(src, new_dims, contrib, 0, out);
    }
}

/// Serial gather of `chunk.len()` permuted elements starting at output
/// offset `start`: the odometer walk of `Tensor::permuted`, made
/// restartable by decomposing `start` into per-axis counters once.
fn permute_range(
    src: &[Complex64],
    new_dims: &[usize],
    contrib: &[usize],
    start: usize,
    chunk: &mut [Complex64],
) {
    let rank = new_dims.len();
    let mut counters = vec![0usize; rank];
    let mut src_off = 0usize;
    let mut rem = start;
    for axis in (0..rank).rev() {
        let digit = rem % new_dims[axis];
        rem /= new_dims[axis];
        counters[axis] = digit;
        src_off += digit * contrib[axis];
    }
    for slot in chunk.iter_mut() {
        *slot = src[src_off];
        // increment odometer from the last axis
        for axis in (0..rank).rev() {
            counters[axis] += 1;
            src_off += contrib[axis];
            if counters[axis] < new_dims[axis] {
                break;
            }
            src_off -= contrib[axis] * new_dims[axis];
            counters[axis] = 0;
        }
    }
}

/// Fills `chunk` with axis sums: output element `j = start + t` is
/// `Σ_{k<d} src[(o·d + k)·inner + i]` for `o = j / inner`, `i = j % inner`,
/// accumulated in ascending `k` — the same per-element reduction order as
/// the serial triple loop, so parallel blocks are bit-identical.
fn sum_axis_range(
    src: &[Complex64],
    d: usize,
    inner: usize,
    start: usize,
    chunk: &mut [Complex64],
) {
    let mut o = start / inner;
    let mut i = start % inner;
    for slot in chunk.iter_mut() {
        let mut acc = Complex64::ZERO;
        let base = o * d;
        for k in 0..d {
            acc += src[(base + k) * inner + i];
        }
        *slot = acc;
        i += 1;
        if i == inner {
            i = 0;
            o += 1;
        }
    }
}

/// Row-major strides for a shape.
pub fn strides_of(dims: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; dims.len()];
    for axis in (0..dims.len().saturating_sub(1)).rev() {
        strides[axis] = strides[axis + 1] * dims[axis + 1];
    }
    strides
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64) -> Complex64 {
        Complex64::real(re)
    }

    fn iota(n: usize) -> Vec<Complex64> {
        (0..n).map(|i| c(i as f64)).collect()
    }

    #[test]
    fn new_validates_shape() {
        assert!(Tensor::new(vec![0, 1], vec![2, 3], iota(6)).is_ok());
        assert_eq!(
            Tensor::new(vec![0, 1], vec![2, 3], iota(5)).unwrap_err(),
            TensorError::ShapeMismatch {
                expected: 6,
                got: 5
            }
        );
        assert_eq!(
            Tensor::new(vec![7, 7], vec![2, 2], iota(4)).unwrap_err(),
            TensorError::DuplicateIndex(7)
        );
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(strides_of(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides_of(&[]), Vec::<usize>::new());
        assert_eq!(strides_of(&[5]), vec![1]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::new(vec![0, 1], vec![2, 3], iota(6)).unwrap();
        assert_eq!(t.get(&[1, 2]), c(5.0));
        t.set(&[1, 2], c(-1.0));
        assert_eq!(t.get(&[1, 2]), c(-1.0));
    }

    #[test]
    fn permute_transposes_matrix() {
        let t = Tensor::new(vec![0, 1], vec![2, 3], iota(6)).unwrap();
        let p = t.permuted(&[1, 0]).unwrap();
        assert_eq!(p.dims(), &[3, 2]);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(p.get(&[j, i]), t.get(&[i, j]));
            }
        }
    }

    #[test]
    fn permute_identity_is_clone() {
        let t = Tensor::new(vec![3, 5], vec![2, 2], iota(4)).unwrap();
        assert_eq!(t.permuted(&[3, 5]).unwrap(), t);
    }

    #[test]
    fn permute_rank3_matches_manual() {
        let t = Tensor::new(vec![0, 1, 2], vec![2, 3, 2], iota(12)).unwrap();
        let p = t.permuted(&[2, 0, 1]).unwrap();
        for a in 0..2 {
            for b in 0..3 {
                for d in 0..2 {
                    assert_eq!(p.get(&[d, a, b]), t.get(&[a, b, d]));
                }
            }
        }
    }

    #[test]
    fn permute_rejects_bad_orders() {
        let t = Tensor::new(vec![0, 1], vec![2, 2], iota(4)).unwrap();
        assert!(t.permuted(&[0]).is_err());
        assert!(t.permuted(&[0, 0]).is_err());
        assert!(t.permuted(&[0, 9]).is_err());
    }

    #[test]
    fn sum_over_collapses_axis() {
        let t = Tensor::new(vec![0, 1], vec![2, 3], iota(6)).unwrap();
        let s = t.sum_over(0).unwrap();
        assert_eq!(s.indices(), &[1]);
        assert_eq!(s.data(), &[c(3.0), c(5.0), c(7.0)]);
        let s2 = t.sum_over(1).unwrap();
        assert_eq!(s2.data(), &[c(3.0), c(12.0)]);
        assert!(t.sum_over(42).is_err());
    }

    #[test]
    fn scalar_tensor() {
        let t = Tensor::scalar(Complex64::new(2.0, 1.0));
        assert_eq!(t.rank(), 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&[]), Complex64::new(2.0, 1.0));
    }

    #[test]
    fn max_abs_takes_the_largest_component() {
        let t = Tensor::new(vec![0], vec![2], vec![c(3.0), c(4.0)]).unwrap();
        assert!((t.max_abs() - 4.0).abs() < 1e-12);
    }
}
