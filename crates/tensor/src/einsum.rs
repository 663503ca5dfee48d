//! Pairwise tensor contraction and broadcast multiplication.
//!
//! Two primitives cover everything the simulator needs:
//!
//! * [`contract`] — einsum-style contraction of two tensors over all their
//!   shared labels (`ab,bc -> ac`), implemented as permute + GEMM so the hot
//!   loop is a cache-friendly matrix multiply.
//! * [`multiply_keep`] — elementwise product over shared labels *without*
//!   summation (`ab,cb -> acb`). Bucket elimination needs this because a
//!   variable may appear in more than two tensors (diagonal gates create
//!   hyperedges); the sum happens once per bucket via [`Tensor::sum_over`].

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

/// The label/stride bookkeeping shared by [`multiply_keep`] and
/// [`multiply_keep_serial`].
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
/// `start..start + chunk.len()`: the odometer walk of the serial
/// implementation, made restartable by decomposing `start` once. Every
/// element is an independent product of the same two operands, so any
/// block split produces identical bytes.
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

/// Elementwise product over shared labels, keeping them in the output.
///
/// Output labels are `a`'s labels followed by `b`'s non-shared labels
/// (einsum `ab,cb -> abc` style, generalized to any ranks). Large outputs
/// split the broadcast walk over executor blocks; bytes are identical to
/// [`multiply_keep_serial`] for every input.
pub fn multiply_keep(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let plan = broadcast_plan(a, b)?;
    let mut out = vec![Complex64::ZERO; plan.total];
    let (da, db) = (a.data(), b.data());
    if plan.total >= PAR_MIN_ELEMS {
        par_fill_blocks(&mut out, PAR_BLOCK, |_, range, chunk| {
            broadcast_range(da, db, &plan, range.start, chunk);
        });
    } else if !out.is_empty() {
        broadcast_range(da, db, &plan, 0, &mut out);
    }
    Tensor::new(plan.out_ix, plan.out_dims, out)
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
}
