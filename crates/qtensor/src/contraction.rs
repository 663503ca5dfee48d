//! Bucket-elimination contraction with an intermediate-tensor hook.
//!
//! Variables are eliminated in a given order. Each variable owns a *bucket*
//! of tensors; eliminating the variable multiplies its bucket together
//! (elementwise over shared labels) and sums the variable out. The leading
//! members fold left to right with [`multiply_keep`], and the last multiply
//! and the sum run as one walk, [`multiply_sum`], so a bucket's full
//! product is never built; a one-tensor bucket is just summed. Every
//! intermediate produced this way flows through a [`ContractionHook`] — the
//! seam where the paper's framework plugs in: the compression hook replaces
//! each intermediate with its decompressed reconstruction, so contraction
//! proceeds exactly as QTensor does when tensors round-trip through the GPU
//! compressor.

use qcf_telemetry::Gauge;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};
use tensornet::einsum::multiply_sum;
use tensornet::{multiply_keep, Complex64, Ix, Tensor, TensorError};

/// Workspace-wide gauge of bytes of intermediates live across all running
/// contractions (cached handle; per-run peaks come from the local track).
fn live_bytes_gauge() -> &'static Arc<Gauge> {
    static GAUGE: OnceLock<Arc<Gauge>> = OnceLock::new();
    GAUGE.get_or_init(|| qcf_telemetry::registry().gauge("contract.live_bytes"))
}

/// Errors from network contraction.
#[derive(Debug)]
pub enum ContractError {
    /// Underlying tensor algebra failed (shape/label conflicts).
    Tensor(TensorError),
    /// The elimination order is missing a variable present in the network.
    IncompleteOrder(Ix),
    /// A hook failed (e.g. compressed stream corruption).
    Hook(String),
}

impl fmt::Display for ContractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContractError::Tensor(e) => write!(f, "tensor error: {e}"),
            ContractError::IncompleteOrder(v) => {
                write!(f, "elimination order missing variable {v}")
            }
            ContractError::Hook(msg) => write!(f, "hook error: {msg}"),
        }
    }
}

impl std::error::Error for ContractError {}

impl From<TensorError> for ContractError {
    fn from(e: TensorError) -> Self {
        ContractError::Tensor(e)
    }
}

/// Observer/transformer of every intermediate tensor the contractor makes.
pub trait ContractionHook {
    /// Called with each freshly produced intermediate; the returned tensor
    /// replaces it (identity for observers, lossy reconstruction for
    /// compression).
    fn on_intermediate(&mut self, tensor: Tensor) -> Result<Tensor, ContractError>;
}

/// The do-nothing hook: exact contraction.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopHook;

impl ContractionHook for NoopHook {
    #[inline]
    fn on_intermediate(&mut self, tensor: Tensor) -> Result<Tensor, ContractError> {
        Ok(tensor)
    }
}

/// Statistics from one contraction run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContractionStats {
    /// Number of bucket eliminations performed.
    pub eliminations: usize,
    /// Elements of the largest intermediate tensor.
    pub max_intermediate_elems: usize,
    /// Peak bytes of tensors live at once (uncompressed accounting), each
    /// kernel call's inputs and output counted together. A bucket's last
    /// multiply is fused with its sum, so the bucket's full product is
    /// never built and never counts.
    pub peak_live_bytes: usize,
    /// Total bytes of all intermediates produced.
    pub total_intermediate_bytes: usize,
}

/// Contracts a network to a scalar by bucket elimination.
///
/// `order` must contain every variable occurring in `tensors` (extra entries
/// are ignored). Returns the scalar value and run statistics.
pub fn contract_network(
    tensors: Vec<Tensor>,
    order: &[Ix],
    hook: &mut dyn ContractionHook,
) -> Result<(Complex64, ContractionStats), ContractError> {
    let position: BTreeMap<Ix, usize> = order.iter().enumerate().map(|(i, &v)| (v, i)).collect();

    // Earliest-eliminated variable of a tensor = its bucket.
    let bucket_of = |t: &Tensor| -> Result<Option<usize>, ContractError> {
        let mut best: Option<usize> = None;
        for &v in t.indices() {
            let p = *position.get(&v).ok_or(ContractError::IncompleteOrder(v))?;
            best = Some(best.map_or(p, |b: usize| b.min(p)));
        }
        Ok(best)
    };

    let _span = qcf_telemetry::span!("contract.network");
    let mut buckets: Vec<Vec<Tensor>> = (0..order.len()).map(|_| Vec::new()).collect();
    let mut scalar = Complex64::ONE;
    let mut stats = ContractionStats::default();
    // Local level + peak stay exact per run (and with telemetry disabled);
    // the registry gauge aggregates live bytes across concurrent runs.
    let mut live = live_bytes_gauge().track();

    for t in tensors {
        live.add(t.nbytes() as i64);
        match bucket_of(&t)? {
            Some(b) => buckets[b].push(t),
            None => scalar *= t.get(&[]),
        }
    }

    for step in 0..order.len() {
        let bucket = std::mem::take(&mut buckets[step]);
        if bucket.is_empty() {
            continue;
        }
        let var = order[step];
        let mut members = bucket.into_iter();
        let mut acc = members.next().expect("non-empty bucket");
        let last = members.next_back();
        for t in members {
            let next = multiply_keep(&acc, &t)?;
            live.add(next.nbytes() as i64);
            live.sub((acc.nbytes() + t.nbytes()) as i64);
            acc = next;
        }
        let (summed, consumed) = match last {
            Some(last) => (
                multiply_sum(&acc, &last, var)?,
                acc.nbytes() + last.nbytes(),
            ),
            None => (acc.sum_over(var)?, acc.nbytes()),
        };
        live.add(summed.nbytes() as i64);
        live.sub(consumed as i64);
        drop(acc);

        stats.eliminations += 1;
        stats.max_intermediate_elems = stats.max_intermediate_elems.max(summed.len());
        stats.total_intermediate_bytes += summed.nbytes();

        let replaced = {
            let _span = qcf_telemetry::span!("contract.hook");
            hook.on_intermediate(summed)?
        };
        match bucket_of(&replaced)? {
            Some(b) => {
                debug_assert!(b > step, "result must flow to a later bucket");
                buckets[b].push(replaced);
            }
            None => {
                scalar *= replaced.get(&[]);
                live.sub(replaced.nbytes() as i64);
            }
        }
    }

    stats.peak_live_bytes = live.peak() as usize;
    Ok((scalar, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::{InteractionGraph, OrderingHeuristic};

    fn t(ix: Vec<Ix>, vals: Vec<f64>) -> Tensor {
        Tensor::qubit(ix, vals.into_iter().map(Complex64::real).collect()).unwrap()
    }

    fn order_for(tensors: &[Tensor]) -> Vec<Ix> {
        InteractionGraph::from_tensors(tensors).elimination_order(OrderingHeuristic::MinFill)
    }

    #[test]
    fn matrix_chain_inner_product() {
        // v(0) · M(0,1) · w(1) with v=[1,2], M=[[1,0],[0,1]], w=[3,4] = 11
        let ts = vec![
            t(vec![0], vec![1.0, 2.0]),
            t(vec![0, 1], vec![1.0, 0.0, 0.0, 1.0]),
            t(vec![1], vec![3.0, 4.0]),
        ];
        let order = order_for(&ts);
        let (val, stats) = contract_network(ts, &order, &mut NoopHook).unwrap();
        assert!(val.approx_eq(Complex64::real(11.0), 1e-12));
        assert_eq!(stats.eliminations, 2);
    }

    #[test]
    fn hyperedge_variable_in_three_tensors() {
        // Σ_x a(x) b(x) c(x), a=[1,2], b=[3,4], c=[5,6] -> 1*3*5 + 2*4*6 = 63
        let ts = vec![
            t(vec![0], vec![1.0, 2.0]),
            t(vec![0], vec![3.0, 4.0]),
            t(vec![0], vec![5.0, 6.0]),
        ];
        let (val, _) = contract_network(ts, &[0], &mut NoopHook).unwrap();
        assert!(val.approx_eq(Complex64::real(63.0), 1e-12));
    }

    #[test]
    fn matches_pairwise_contract_on_random_network() {
        // A small network where pairwise contraction is easy to do by hand:
        // T1(0,1) T2(1,2) T3(2,3) T4(3,0) — a loop.
        let ts = vec![
            t(vec![0, 1], vec![0.5, -1.0, 2.0, 1.5]),
            t(vec![1, 2], vec![1.0, 2.0, 3.0, 4.0]),
            t(vec![2, 3], vec![-1.0, 0.5, 0.25, 2.0]),
            t(vec![3, 0], vec![2.0, 1.0, 0.0, -0.5]),
        ];
        // The loop is the trace of the matrix product T1·T2·T3·T4:
        // T1·T2 = [[-2.5, -3], [6.5, 10]], ·T3 = [[1.75, -7.25], [-4, 23.25]],
        // ·T4 = [[3.5, 5.375], [-8, -15.625]], whose trace is -12.125.
        let pairwise = Complex64::real(-12.125);
        let order = order_for(&ts);
        let (val, _) = contract_network(ts, &order, &mut NoopHook).unwrap();
        assert!(
            val.approx_eq(pairwise, 1e-10),
            "bucket {val:?} vs pairwise {pairwise:?}"
        );
    }

    #[test]
    fn scalar_only_network() {
        let ts = vec![
            Tensor::scalar(Complex64::real(3.0)),
            Tensor::scalar(Complex64::real(4.0)),
        ];
        let (val, stats) = contract_network(ts, &[], &mut NoopHook).unwrap();
        assert!(val.approx_eq(Complex64::real(12.0), 1e-12));
        assert_eq!(stats.eliminations, 0);
    }

    #[test]
    fn incomplete_order_is_an_error() {
        let ts = vec![t(vec![0, 1], vec![1.0; 4])];
        assert!(matches!(
            contract_network(ts, &[0], &mut NoopHook),
            Err(ContractError::IncompleteOrder(1))
        ));
    }

    #[test]
    fn order_permutation_does_not_change_value() {
        let ts = vec![
            t(vec![0, 1], vec![1.0, 2.0, 3.0, 4.0]),
            t(vec![1, 2], vec![0.5, 1.5, -1.0, 2.0]),
            t(vec![0], vec![1.0, -1.0]),
            t(vec![2], vec![2.0, 3.0]),
        ];
        let (v1, _) = contract_network(ts.clone(), &[0, 1, 2], &mut NoopHook).unwrap();
        let (v2, _) = contract_network(ts.clone(), &[2, 1, 0], &mut NoopHook).unwrap();
        let (v3, _) = contract_network(ts, &[1, 0, 2], &mut NoopHook).unwrap();
        assert!(v1.approx_eq(v2, 1e-12));
        assert!(v1.approx_eq(v3, 1e-12));
    }

    #[test]
    fn hook_sees_every_intermediate() {
        struct Counter(usize);
        impl ContractionHook for Counter {
            fn on_intermediate(&mut self, t: Tensor) -> Result<Tensor, ContractError> {
                self.0 += 1;
                Ok(t)
            }
        }
        let ts = vec![
            t(vec![0, 1], vec![1.0; 4]),
            t(vec![1, 2], vec![1.0; 4]),
            t(vec![2], vec![1.0, 1.0]),
        ];
        let mut hook = Counter(0);
        let order = order_for(&ts);
        let (_, stats) = contract_network(ts, &order, &mut hook).unwrap();
        assert_eq!(hook.0, stats.eliminations);
    }

    #[test]
    fn hook_may_replace_tensor() {
        struct Zeroer;
        impl ContractionHook for Zeroer {
            fn on_intermediate(&mut self, t: Tensor) -> Result<Tensor, ContractError> {
                let (ix, dims, data) = t.into_parts();
                Ok(Tensor::new(ix, dims, vec![Complex64::ZERO; data.len()]).unwrap())
            }
        }
        let ts = vec![t(vec![0], vec![1.0, 2.0]), t(vec![0], vec![3.0, 4.0])];
        let (val, _) = contract_network(ts, &[0], &mut Zeroer).unwrap();
        assert!(val.approx_eq(Complex64::ZERO, 1e-12));
    }

    #[test]
    fn stats_track_peak_memory() {
        let ts = vec![t(vec![0, 1], vec![1.0; 4]), t(vec![1, 2], vec![1.0; 4])];
        let (_, stats) = contract_network(ts, &[0, 1, 2], &mut NoopHook).unwrap();
        assert!(stats.peak_live_bytes >= 2 * 4 * 16);
        assert!(stats.max_intermediate_elems >= 2);
    }
}
