//! Pairwise tensor contraction and broadcast multiplication.
//!
//! Three primitives cover everything the simulator needs:
//!
//! * [`contract`] — einsum-style contraction of two tensors over all their
//!   shared labels (`ab,bc -> ac`), implemented as permute + GEMM so the hot
//!   loop is a cache-friendly matrix multiply.
//! * [`multiply_keep`] — elementwise product over shared labels *without*
//!   summation (`ab,cb -> abc`). Bucket elimination needs this because a
//!   variable may appear in more than two tensors (diagonal gates create
//!   hyperedges), so a bucket's leading members are multiplied first.
//! * [`multiply_sum`] — the same product with one label summed out in the
//!   same walk: bit for bit `multiply_keep(a, b)?.sum_over(var)`, without
//!   building the product. It finishes each bucket of two or more tensors.
//!
//! The two broadcast kernels share one walk over the output whose plan
//! lives on the stack: dim-1 axes are dropped, adjacent output axes that
//! both operands step through contiguously are merged, and the innermost
//! merged axis runs as a plain strided loop.

use crate::complex::Complex64;
use crate::tensor::{
    permute_kernel, strides_of, Ix, Tensor, TensorError, PAR_BLOCK, PAR_MIN_ELEMS,
};
use gpu_model::exec::{par_chunks_mut, par_fill_blocks};
use gpu_model::ScratchPool;
use std::sync::OnceLock;

/// The process-wide `Complex64` scratch pool behind [`contract`]'s permuted
/// operands: the `(free, shared)`-ordered copies live only for the
/// duration of one GEMM, so their buffers are checked back in instead of
/// reallocated per contraction.
pub fn scratch() -> &'static ScratchPool<Complex64> {
    static POOL: OnceLock<ScratchPool<Complex64>> = OnceLock::new();
    POOL.get_or_init(|| ScratchPool::with_metrics("tensor.scratch"))
}

/// A permuted operand: either the tensor's own storage (identity order) or
/// a pooled scratch buffer holding the gathered copy.
enum Operand<'a> {
    Borrowed(&'a [Complex64]),
    Pooled(Vec<Complex64>),
}

impl Operand<'_> {
    fn as_slice(&self) -> &[Complex64] {
        match self {
            Operand::Borrowed(s) => s,
            Operand::Pooled(v) => v,
        }
    }

    /// Returns a pooled buffer to the pool (no-op for borrowed storage).
    fn release(self, pool: &ScratchPool<Complex64>) {
        if let Operand::Pooled(v) = self {
            pool.put(v);
        }
    }
}

/// Permutes `t` into `order` without building a `Tensor`: identity orders
/// borrow the original storage, others gather into a pooled buffer.
fn permuted_operand<'a>(
    t: &'a Tensor,
    order: &[Ix],
    pool: &ScratchPool<Complex64>,
) -> Result<Operand<'a>, TensorError> {
    match t.permute_plan(order)? {
        None => Ok(Operand::Borrowed(t.data())),
        Some((new_dims, contrib)) => {
            let _span = qcf_telemetry::span!("tensor.permute");
            let mut buf = pool.take(t.len());
            permute_kernel(t.data(), &new_dims, &contrib, &mut buf);
            Ok(Operand::Pooled(buf))
        }
    }
}

/// Labels present in both tensors, in `a`'s storage order.
pub fn shared_indices(a: &Tensor, b: &Tensor) -> Vec<Ix> {
    a.indices()
        .iter()
        .copied()
        .filter(|ix| b.position(*ix).is_some())
        .collect()
}

/// Validates that shared labels agree on dimension.
fn check_shared_dims(a: &Tensor, b: &Tensor, shared: &[Ix]) -> Result<(), TensorError> {
    for &ix in shared {
        let da = a.dim_of(ix).expect("shared index on a");
        let db = b.dim_of(ix).expect("shared index on b");
        if da != db {
            return Err(TensorError::DimConflict {
                index: ix,
                a: da,
                b: db,
            });
        }
    }
    Ok(())
}

/// The label/shape bookkeeping shared by [`contract`] and
/// [`contract_serial`].
struct GemmPlan {
    order_a: Vec<Ix>,
    order_b: Vec<Ix>,
    out_ix: Vec<Ix>,
    out_dims: Vec<usize>,
    m: usize,
    n: usize,
    k: usize,
}

fn gemm_plan(a: &Tensor, b: &Tensor) -> Result<GemmPlan, TensorError> {
    let shared = shared_indices(a, b);
    check_shared_dims(a, b, &shared)?;

    let free_a: Vec<Ix> = a
        .indices()
        .iter()
        .copied()
        .filter(|ix| !shared.contains(ix))
        .collect();
    let free_b: Vec<Ix> = b
        .indices()
        .iter()
        .copied()
        .filter(|ix| !shared.contains(ix))
        .collect();

    // Permute a -> (free_a, shared), b -> (shared, free_b); then it's GEMM.
    let mut order_a = free_a.clone();
    order_a.extend_from_slice(&shared);
    let mut order_b = shared.clone();
    order_b.extend_from_slice(&free_b);

    let k: usize = shared.iter().map(|&ix| a.dim_of(ix).unwrap()).product();
    let m: usize = a.len() / k.max(1);
    let n: usize = b.len() / k.max(1);

    let mut out_ix = free_a;
    out_ix.extend_from_slice(&free_b);
    let mut out_dims = Vec::with_capacity(out_ix.len());
    for &ix in &out_ix {
        out_dims.push(a.dim_of(ix).or_else(|| b.dim_of(ix)).unwrap());
    }
    Ok(GemmPlan {
        order_a,
        order_b,
        out_ix,
        out_dims,
        m,
        n,
        k,
    })
}

/// Computes rows `first_row..first_row + rows.len()/n` of the GEMM
/// `out[i][j] = Σ_k a[i][k]·b[k][j]` into `rows` (a chunk of whole output
/// rows). The i-k-j loop order streams both `db` and the output row; the
/// per-element accumulation order is ascending `k` whatever the row split,
/// which is what keeps the parallel output bit-identical to serial.
fn gemm_rows(
    da: &[Complex64],
    db: &[Complex64],
    rows: &mut [Complex64],
    first_row: usize,
    n: usize,
    k: usize,
) {
    for (r, orow) in rows.chunks_mut(n).enumerate() {
        let i = first_row + r;
        let arow = &da[i * k..(i + 1) * k];
        for (kk, &av) in arow.iter().enumerate() {
            if av == Complex64::ZERO {
                continue;
            }
            let brow = &db[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o = o.mul_add(av, bv);
            }
        }
    }
}

/// Contracts `a` and `b` over every shared label.
///
/// Output labels are `a`'s free labels followed by `b`'s free labels, so the
/// result is deterministic. Rank-0 results hold the full inner product.
///
/// The permute and GEMM kernels run block-parallel for large operands, with
/// per-row work assignment and a fixed ascending-`k` accumulation order —
/// output bytes are identical to [`contract_serial`] for every input.
/// Permute intermediates come from the [`scratch`] pool instead of fresh
/// allocations.
pub fn contract(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let plan = gemm_plan(a, b)?;
    let (m, n, k) = (plan.m, plan.n, plan.k);

    let pool = scratch();
    let pa = permuted_operand(a, &plan.order_a, pool)?;
    let pb = permuted_operand(b, &plan.order_b, pool)?;

    let mut out = vec![Complex64::ZERO; m * n];
    let (da, db) = (pa.as_slice(), pb.as_slice());
    {
        let _span = qcf_telemetry::span!("tensor.gemm");
        if m * n * k.max(1) >= PAR_MIN_ELEMS && n > 0 && m > 1 {
            par_chunks_mut(&mut out, n, |row, orow| gemm_rows(da, db, orow, row, n, k));
        } else if !out.is_empty() {
            gemm_rows(da, db, &mut out, 0, n, k);
        }
    }
    pa.release(pool);
    pb.release(pool);

    Tensor::new(plan.out_ix, plan.out_dims, out)
}

/// Single-threaded reference implementation of [`contract`]: the same
/// algebra with every kernel invoked over the full index range on the
/// calling thread. Exists so tests can assert the parallel path is
/// bit-identical; not intended for production use.
pub fn contract_serial(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let plan = gemm_plan(a, b)?;
    let (n, k) = (plan.n, plan.k);

    let permute_serial = |t: &Tensor, order: &[Ix]| -> Result<Vec<Complex64>, TensorError> {
        match t.permute_plan(order)? {
            None => Ok(t.data().to_vec()),
            Some((new_dims, contrib)) => {
                let mut buf = vec![Complex64::ZERO; t.len()];
                crate::tensor::permute_range_serial(t.data(), &new_dims, &contrib, &mut buf);
                Ok(buf)
            }
        }
    };
    let da = permute_serial(a, &plan.order_a)?;
    let db = permute_serial(b, &plan.order_b)?;

    let mut out = vec![Complex64::ZERO; plan.m * n];
    if !out.is_empty() {
        gemm_rows(&da, &db, &mut out, 0, n, k);
    }
    Tensor::new(plan.out_ix, plan.out_dims, out)
}

/// The label/stride bookkeeping of [`multiply_keep_serial`], the reference
/// walk that the stack-planned [`multiply_keep`] and [`multiply_sum`] are
/// tested against.
struct BroadcastPlan {
    out_ix: Vec<Ix>,
    out_dims: Vec<usize>,
    contrib_a: Vec<usize>,
    contrib_b: Vec<usize>,
    total: usize,
}

fn broadcast_plan(a: &Tensor, b: &Tensor) -> Result<BroadcastPlan, TensorError> {
    let shared = shared_indices(a, b);
    check_shared_dims(a, b, &shared)?;

    let mut out_ix: Vec<Ix> = a.indices().to_vec();
    for &ix in b.indices() {
        if !out_ix.contains(&ix) {
            out_ix.push(ix);
        }
    }
    let mut out_dims = Vec::with_capacity(out_ix.len());
    for &ix in &out_ix {
        out_dims.push(a.dim_of(ix).or_else(|| b.dim_of(ix)).unwrap());
    }
    let total: usize = out_dims.iter().product();

    // Per output axis, the linear-stride contribution into each input
    // (0 when the input lacks that label) — a broadcast walk.
    let sa = strides_of(a.dims());
    let sb = strides_of(b.dims());
    let contrib_a: Vec<usize> = out_ix
        .iter()
        .map(|&ix| a.position(ix).map_or(0, |p| sa[p]))
        .collect();
    let contrib_b: Vec<usize> = out_ix
        .iter()
        .map(|&ix| b.position(ix).map_or(0, |p| sb[p]))
        .collect();
    Ok(BroadcastPlan {
        out_ix,
        out_dims,
        contrib_a,
        contrib_b,
        total,
    })
}

/// Fills `chunk` with the broadcast products for output offsets
/// `start..start + chunk.len()`: a per-axis odometer over the unmerged
/// output axes, serving only [`multiply_keep_serial`].
fn broadcast_range(
    da: &[Complex64],
    db: &[Complex64],
    plan: &BroadcastPlan,
    start: usize,
    chunk: &mut [Complex64],
) {
    let rank = plan.out_dims.len();
    let mut counters = vec![0usize; rank];
    let (mut off_a, mut off_b) = (0usize, 0usize);
    let mut rem = start;
    for axis in (0..rank).rev() {
        let digit = rem % plan.out_dims[axis];
        rem /= plan.out_dims[axis];
        counters[axis] = digit;
        off_a += digit * plan.contrib_a[axis];
        off_b += digit * plan.contrib_b[axis];
    }
    for slot in chunk.iter_mut() {
        *slot = da[off_a] * db[off_b];
        for axis in (0..rank).rev() {
            counters[axis] += 1;
            off_a += plan.contrib_a[axis];
            off_b += plan.contrib_b[axis];
            if counters[axis] < plan.out_dims[axis] {
                break;
            }
            off_a -= plan.contrib_a[axis] * plan.out_dims[axis];
            off_b -= plan.contrib_b[axis] * plan.out_dims[axis];
            counters[axis] = 0;
        }
    }
}

/// Most axes a [`Walk`] holds. Its dim-1 axes are dropped, so every axis
/// left has dim 2 or more, and an output whose element count fits in a
/// `usize` has fewer than `usize::BITS` of them.
const MAX_AXES: usize = usize::BITS as usize;

/// One axis of a broadcast walk: its dimension and each operand's linear
/// stride along it (0 where the operand lacks the label).
#[derive(Clone, Copy)]
struct Axis {
    dim: usize,
    sa: usize,
    sb: usize,
}

impl Axis {
    /// A dim-1 axis: nothing to step through.
    const UNIT: Axis = Axis {
        dim: 1,
        sa: 0,
        sb: 0,
    };
}

/// The stack-held plan of [`multiply_keep`] and [`multiply_sum`]: the
/// output's axes, outermost first, with dim-1 axes dropped and adjacent
/// axes merged where both operands step through them contiguously; and
/// the summed axis ([`Axis::UNIT`] for a plain product).
struct Walk {
    axes: [Axis; MAX_AXES],
    rank: usize,
    sum: Axis,
}

/// Output labels, dims and element count, and the walk over them.
type WalkPlan = (Vec<Ix>, Vec<usize>, usize, Walk);

/// Plans the broadcast product of `a` and `b` with `var` summed out: the
/// output is `a`'s labels followed by `b`'s new ones, less `var`. Shared
/// labels are checked in `a`'s storage order, then `var`'s presence, so
/// the errors are those of `multiply_keep(a, b)?.sum_over(var)`.
fn walk_plan(a: &Tensor, b: &Tensor, var: Option<Ix>) -> Result<WalkPlan, TensorError> {
    for (&ix, &d) in a.indices().iter().zip(a.dims()) {
        if let Some(db) = b.dim_of(ix).filter(|&db| db != d) {
            return Err(TensorError::DimConflict {
                index: ix,
                a: d,
                b: db,
            });
        }
    }
    if let Some(v) = var.filter(|&v| a.position(v).is_none() && b.position(v).is_none()) {
        return Err(TensorError::MissingIndex(v));
    }
    let mut out_ix = Vec::with_capacity(a.rank() + b.rank());
    let mut out_dims = Vec::with_capacity(a.rank() + b.rank());
    let new_in_b = b.indices().iter().zip(b.dims());
    let new_in_b = new_in_b.filter(|(&ix, _)| a.position(ix).is_none());
    for (&ix, &d) in a.indices().iter().zip(a.dims()).chain(new_in_b) {
        if Some(ix) != var {
            out_ix.push(ix);
            out_dims.push(d);
        }
    }
    let total = if out_dims.contains(&0) {
        0
    } else {
        out_dims
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d))
            .expect("broadcast output exceeds usize::MAX elements")
    };

    // Innermost axis first, so each operand's row-major stride is a
    // running product; `place` merges into the axis just inside.
    let mut walk = Walk {
        axes: [Axis::UNIT; MAX_AXES],
        rank: 0,
        sum: Axis::UNIT,
    };
    if total > 0 {
        let mut sb = 1;
        for (&ix, &d) in b.indices().iter().zip(b.dims()).rev() {
            if a.position(ix).is_none() {
                walk.place(Some(ix) == var, Axis { dim: d, sa: 0, sb });
            }
            sb *= d;
        }
        let mut sa = 1;
        for (&ix, &d) in a.indices().iter().zip(a.dims()).rev() {
            let sb = b
                .position(ix)
                .map_or(0, |q| b.dims()[q + 1..].iter().product());
            walk.place(Some(ix) == var, Axis { dim: d, sa, sb });
            sa *= d;
        }
        walk.axes[..walk.rank].reverse();
    }
    // An output of one element (or none) walks one unit axis.
    walk.rank = walk.rank.max(1);
    Ok((out_ix, out_dims, total, walk))
}

impl Walk {
    /// The innermost axis, which each run steps through.
    fn inner(&self) -> Axis {
        self.axes[self.rank - 1]
    }

    /// Takes the next axis out from the innermost: the summed axis, or an
    /// output axis, merged into the one just inside it when both operands'
    /// strides continue across the two.
    fn place(&mut self, summed: bool, axis: Axis) {
        if summed {
            self.sum = axis;
            return;
        }
        if axis.dim == 1 {
            return;
        }
        if let Some(inner) = self.axes[..self.rank].last_mut() {
            if axis.sa == inner.sa * inner.dim && axis.sb == inner.sb * inner.dim {
                inner.dim *= axis.dim;
                return;
            }
        }
        self.axes[self.rank] = axis;
        self.rank += 1;
    }

    /// Calls `row(off_a, off_b, run)` for each stretch of the innermost
    /// axis within output offsets `start..start + out.len()`, in output
    /// order: `run[j]` is the element whose operands sit at `off_a + j·sa`
    /// and `off_b + j·sb`, with the innermost axis's strides. Restartable
    /// at any offset, so any block split visits the same elements.
    fn for_each_row(
        &self,
        start: usize,
        mut out: &mut [Complex64],
        mut row: impl FnMut(usize, usize, &mut [Complex64]),
    ) {
        let (outer, inner) = (self.rank - 1, self.inner());
        let mut counters = [0usize; MAX_AXES];
        let (mut ra, mut rb) = (0usize, 0usize);
        let mut rem = start / inner.dim;
        for axis in (0..outer).rev() {
            let Axis { dim, sa, sb } = self.axes[axis];
            counters[axis] = rem % dim;
            rem /= dim;
            ra += counters[axis] * sa;
            rb += counters[axis] * sb;
        }
        let mut j = start % inner.dim;
        while !out.is_empty() {
            let n = (inner.dim - j).min(out.len());
            let (run, rest) = std::mem::take(&mut out).split_at_mut(n);
            row(ra + j * inner.sa, rb + j * inner.sb, run);
            out = rest;
            j = 0;
            for axis in (0..outer).rev() {
                let Axis { dim, sa, sb } = self.axes[axis];
                counters[axis] += 1;
                ra += sa;
                rb += sb;
                if counters[axis] < dim {
                    break;
                }
                ra -= sa * dim;
                rb -= sb * dim;
                counters[axis] = 0;
            }
        }
    }
}

/// Runs `fill(start, chunk)` over `out`: block-parallel when the call
/// makes at least [`PAR_MIN_ELEMS`] products (`work`), on the calling
/// thread below that.
fn fill_blocks(out: &mut [Complex64], work: usize, fill: impl Fn(usize, &mut [Complex64]) + Sync) {
    if work >= PAR_MIN_ELEMS {
        par_fill_blocks(out, PAR_BLOCK, |_, range, chunk| fill(range.start, chunk));
    } else if !out.is_empty() {
        fill(0, out);
    }
}

/// Elementwise product over shared labels, keeping them in the output.
///
/// Output labels are `a`'s labels followed by `b`'s non-shared labels
/// (einsum `ab,cb -> abc` style, generalized to any ranks). Large outputs
/// split the broadcast walk over executor blocks; bytes are identical to
/// [`multiply_keep_serial`] for every input.
pub fn multiply_keep(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (out_ix, out_dims, total, walk) = walk_plan(a, b, None)?;
    let mut out = vec![Complex64::ZERO; total];
    let (da, db) = (a.data(), b.data());
    let inner = walk.inner();
    fill_blocks(&mut out, total, |start, chunk| {
        walk.for_each_row(start, chunk, |oa, ob, run| {
            for (j, slot) in run.iter_mut().enumerate() {
                *slot = da[oa + j * inner.sa] * db[ob + j * inner.sb];
            }
        });
    });
    Tensor::new(out_ix, out_dims, out)
}

/// `multiply_keep(a, b)?.sum_over(var)`, bit for bit, in one walk over the
/// output: the product is never built.
///
/// Output labels are [`multiply_keep`]'s less `var`. Each element starts
/// from `Complex64::ZERO` and adds its `var` terms `a[..] * b[..]` in
/// ascending order, as [`Tensor::sum_over`] does, so signed zeros and
/// rounding match too; a dim-0 `var` gives zeros. Errors are
/// [`multiply_keep`]'s (`DimConflict`), then `MissingIndex(var)` when
/// neither operand has `var`. Large outputs run block-parallel with the
/// same bytes.
pub fn multiply_sum(a: &Tensor, b: &Tensor, var: Ix) -> Result<Tensor, TensorError> {
    let _span = qcf_telemetry::span!("tensor.multiply_sum");
    let (out_ix, out_dims, total, walk) = walk_plan(a, b, Some(var))?;
    let mut out = vec![Complex64::ZERO; total];
    let (da, db) = (a.data(), b.data());
    let inner = walk.inner();
    let Axis {
        dim: terms,
        sa: va,
        sb: vb,
    } = walk.sum;
    fill_blocks(&mut out, total.saturating_mul(terms), |start, chunk| {
        walk.for_each_row(start, chunk, |oa, ob, run| {
            for (j, slot) in run.iter_mut().enumerate() {
                let (mut ia, mut ib) = (oa + j * inner.sa, ob + j * inner.sb);
                let mut acc = Complex64::ZERO;
                for _ in 0..terms {
                    acc += da[ia] * db[ib];
                    ia += va;
                    ib += vb;
                }
                *slot = acc;
            }
        });
    });
    Tensor::new(out_ix, out_dims, out)
}

/// Single-threaded reference implementation of [`multiply_keep`] (one walk
/// over the full output range). Exists so tests can assert the parallel
/// path is bit-identical; not intended for production use.
pub fn multiply_keep_serial(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let plan = broadcast_plan(a, b)?;
    let mut out = vec![Complex64::ZERO; plan.total];
    if !out.is_empty() {
        broadcast_range(a.data(), b.data(), &plan, 0, &mut out);
    }
    Tensor::new(plan.out_ix, plan.out_dims, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64) -> Complex64 {
        Complex64::real(re)
    }

    fn t(ix: Vec<Ix>, dims: Vec<usize>, vals: Vec<f64>) -> Tensor {
        Tensor::new(ix, dims, vals.into_iter().map(c).collect()).unwrap()
    }

    #[test]
    fn matrix_product() {
        // [[1,2],[3,4]] @ [[5,6],[7,8]] = [[19,22],[43,50]]
        let a = t(vec![0, 1], vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = t(vec![1, 2], vec![2, 2], vec![5.0, 6.0, 7.0, 8.0]);
        let r = contract(&a, &b).unwrap();
        assert_eq!(r.indices(), &[0, 2]);
        let want = [19.0, 22.0, 43.0, 50.0];
        for (got, want) in r.data().iter().zip(want) {
            assert!(got.approx_eq(c(want), 1e-12));
        }
    }

    #[test]
    fn inner_product_is_scalar() {
        let a = t(vec![0], vec![3], vec![1.0, 2.0, 3.0]);
        let b = t(vec![0], vec![3], vec![4.0, 5.0, 6.0]);
        let r = contract(&a, &b).unwrap();
        assert_eq!(r.rank(), 0);
        assert!(r.get(&[]).approx_eq(c(32.0), 1e-12));
    }

    #[test]
    fn outer_product_when_disjoint() {
        let a = t(vec![0], vec![2], vec![1.0, 2.0]);
        let b = t(vec![1], vec![3], vec![3.0, 4.0, 5.0]);
        let r = contract(&a, &b).unwrap();
        assert_eq!(r.dims(), &[2, 3]);
        assert!(r.get(&[1, 2]).approx_eq(c(10.0), 1e-12));
    }

    #[test]
    fn contraction_order_of_shared_axes_irrelevant() {
        // a(i,j,k) with b(k,j) contracts j and k regardless of their order.
        let a = t(
            vec![0, 1, 2],
            vec![2, 2, 2],
            (0..8).map(|x| x as f64).collect(),
        );
        let b = t(vec![2, 1], vec![2, 2], vec![1.0, -1.0, 2.0, 0.5]);
        let r = contract(&a, &b).unwrap();
        // brute force
        for i in 0..2 {
            let mut want = 0.0;
            for j in 0..2 {
                for k in 0..2 {
                    want += a.get(&[i, j, k]).re * b.get(&[k, j]).re;
                }
            }
            assert!(r.get(&[i]).approx_eq(c(want), 1e-12), "i={i}");
        }
    }

    #[test]
    fn dim_conflict_detected() {
        let a = t(vec![0], vec![2], vec![1.0, 2.0]);
        let b = t(vec![0], vec![3], vec![1.0, 2.0, 3.0]);
        assert!(matches!(
            contract(&a, &b),
            Err(TensorError::DimConflict {
                index: 0,
                a: 2,
                b: 3
            })
        ));
    }

    #[test]
    fn multiply_keep_matches_einsum() {
        // ab,cb -> a b c (our label ordering: a's labels then b's new ones)
        let a = t(vec![0, 1], vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = t(vec![2, 1], vec![2, 2], vec![5.0, 6.0, 7.0, 8.0]);
        let r = multiply_keep(&a, &b).unwrap();
        assert_eq!(r.indices(), &[0, 1, 2]);
        for i in 0..2 {
            for j in 0..2 {
                for k in 0..2 {
                    let want = a.get(&[i, j]).re * b.get(&[k, j]).re;
                    assert!(r.get(&[i, j, k]).approx_eq(c(want), 1e-12));
                }
            }
        }
    }

    #[test]
    fn multiply_keep_then_sum_equals_contract() {
        let a = t(vec![0, 1], vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = t(vec![1, 2], vec![2, 2], vec![5.0, 6.0, 7.0, 8.0]);
        let direct = contract(&a, &b).unwrap();
        let kept = multiply_keep(&a, &b).unwrap().sum_over(1).unwrap();
        let kept = kept.permuted(direct.indices()).unwrap();
        for (x, y) in kept.data().iter().zip(direct.data()) {
            assert!(x.approx_eq(*y, 1e-12));
        }
    }

    #[test]
    fn multiply_keep_with_scalar() {
        let a = Tensor::scalar(c(3.0));
        let b = t(vec![0], vec![2], vec![1.0, 2.0]);
        let r = multiply_keep(&a, &b).unwrap();
        assert_eq!(r.indices(), &[0]);
        assert!(r.get(&[1]).approx_eq(c(6.0), 1e-12));
    }

    #[test]
    fn complex_contraction_conjugation_free() {
        // contraction must not implicitly conjugate: <i|M|j> style checks live
        // in the simulator; here (1+i)*(1+i) = 2i.
        let z = Complex64::new(1.0, 1.0);
        let a = Tensor::new(vec![0], vec![1], vec![z]).unwrap();
        let b = Tensor::new(vec![0], vec![1], vec![z]).unwrap();
        let r = contract(&a, &b).unwrap();
        assert!(r.get(&[]).approx_eq(Complex64::new(0.0, 2.0), 1e-12));
    }

    /// A tensor over `ix` with dims `dims` holding distinct inexact values
    /// (thirds, sevenths, ...), scaled by `scale`, so that a change in the
    /// order of the arithmetic changes some rounding.
    fn iota(ix: Vec<Ix>, dims: Vec<usize>, scale: f64) -> Tensor {
        let n = dims.iter().product();
        let data = (0..n)
            .map(|i| Complex64::new(scale / (i + 3) as f64, 0.7 - 0.1 * i as f64))
            .collect();
        Tensor::new(ix, dims, data).unwrap()
    }

    fn assert_bits(got: &Tensor, want: &Tensor) {
        assert_eq!(got.indices(), want.indices());
        assert_eq!(got.dims(), want.dims());
        let bits = |t: &Tensor| -> Vec<(u64, u64)> {
            t.data()
                .iter()
                .map(|v| (v.re.to_bits(), v.im.to_bits()))
                .collect()
        };
        assert_eq!(bits(got), bits(want));
    }

    /// `multiply_sum` and `multiply_keep` against the reference fold.
    fn assert_fused_matches(a: &Tensor, b: &Tensor, var: Ix) {
        assert_bits(
            &multiply_keep(a, b).unwrap(),
            &multiply_keep_serial(a, b).unwrap(),
        );
        let want = multiply_keep_serial(a, b).unwrap().sum_over(var).unwrap();
        assert_bits(&multiply_sum(a, b, var).unwrap(), &want);
    }

    #[test]
    fn negative_zero_product_survives_multiply_keep() {
        // (-1 + 0i)·(0 + 0i) = (-0.0, +0.0): written as is, not as 0 + p.
        let a = Tensor::new(vec![0], vec![1], vec![Complex64::new(-1.0, 0.0)]).unwrap();
        let b = Tensor::new(vec![0], vec![1], vec![Complex64::ZERO]).unwrap();
        let p = multiply_keep(&a, &b).unwrap();
        assert_eq!(p.data()[0].re.to_bits(), (-0.0f64).to_bits());
        assert_bits(&p, &multiply_keep_serial(&a, &b).unwrap());
        // The sum starts from +0.0, so summing the one term gives +0.0.
        let s = multiply_sum(&a, &b, 0).unwrap();
        assert_eq!(s.data()[0].re.to_bits(), 0.0f64.to_bits());
        assert_fused_matches(&a, &b, 0);
    }

    #[test]
    fn signed_zero_sums_match_sum_over() {
        // Terms of -0.0 and +0.0 in every order a dim-2 sum can meet them.
        let z = [Complex64::new(-1.0, 0.0), Complex64::new(1.0, 0.0)];
        for (x, y) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let a = Tensor::new(vec![0], vec![2], vec![z[x], z[y]]).unwrap();
            let b = Tensor::new(vec![0, 1], vec![2, 2], vec![Complex64::ZERO; 4]).unwrap();
            assert_fused_matches(&a, &b, 0);
            assert_fused_matches(&b, &a, 0);
        }
    }

    #[test]
    fn dim_one_axes_are_skipped_without_changing_bytes() {
        let a = iota(vec![0, 1, 2, 3], vec![2, 1, 3, 1], 1.0);
        let b = iota(vec![4, 2, 1, 5], vec![1, 3, 1, 2], -0.5);
        for var in 0..6 {
            assert_fused_matches(&a, &b, var);
        }
        // Only dim-1 axes: a one-element output.
        let a = iota(vec![0, 1], vec![1, 1], 1.0);
        let b = iota(vec![1, 2], vec![1, 1], 2.0);
        assert_fused_matches(&a, &b, 1);
    }

    #[test]
    fn dim_zero_var_sums_to_zeros_of_the_output_shape() {
        let a = iota(vec![0, 1], vec![3, 0], 1.0);
        let b = iota(vec![1, 2], vec![0, 2], 1.0);
        let s = multiply_sum(&a, &b, 1).unwrap();
        assert_eq!(s.indices(), &[0, 2]);
        assert_eq!(s.dims(), &[3, 2]);
        assert!(s.data().iter().all(|v| *v == Complex64::ZERO));
        assert_fused_matches(&a, &b, 1);
        // Any other dim-0 axis empties the output.
        assert_fused_matches(&a, &b, 0);
        assert!(multiply_sum(&a, &b, 0).unwrap().is_empty());
    }

    #[test]
    fn var_on_a_only_b_only_or_both() {
        let a = iota(vec![0, 1, 2], vec![2, 3, 4], 1.0);
        let b = iota(vec![3, 1, 4], vec![2, 3, 2], 0.25);
        for var in [0, 2] {
            assert_fused_matches(&a, &b, var); // a only
        }
        for var in [3, 4] {
            assert_fused_matches(&a, &b, var); // b only
        }
        assert_fused_matches(&a, &b, 1); // both
        assert_fused_matches(&b, &a, 1);
        // Contiguous shared axes merge into one strided loop.
        let c = iota(vec![0, 1, 2], vec![2, 3, 4], -1.0);
        for var in 0..3 {
            assert_fused_matches(&a, &c, var);
        }
    }

    #[test]
    fn rank_zero_result_is_the_inner_product() {
        let a = iota(vec![7], vec![5], 1.0);
        let b = iota(vec![7], vec![5], 2.0);
        let s = multiply_sum(&a, &b, 7).unwrap();
        assert_eq!(s.rank(), 0);
        assert_fused_matches(&a, &b, 7);
        // A scalar operand broadcasts.
        let one = Tensor::scalar(Complex64::new(0.5, -2.0));
        assert_fused_matches(&one, &a, 7);
        assert_fused_matches(&a, &one, 7);
    }

    #[test]
    fn multiply_sum_errors_match_the_fold() {
        let a = t(vec![0, 1], vec![2, 2], vec![1.0; 4]);
        let b = t(vec![1], vec![3], vec![1.0; 3]);
        let conflict = TensorError::DimConflict {
            index: 1,
            a: 2,
            b: 3,
        };
        assert_eq!(multiply_keep(&a, &b).unwrap_err(), conflict);
        assert_eq!(multiply_sum(&a, &b, 0).unwrap_err(), conflict);
        // A conflict wins over a missing label, as in the fold.
        assert_eq!(multiply_sum(&a, &b, 9).unwrap_err(), conflict);
        let c = t(vec![2], vec![2], vec![1.0; 2]);
        assert_eq!(
            multiply_sum(&a, &c, 9).unwrap_err(),
            TensorError::MissingIndex(9)
        );
    }
}
