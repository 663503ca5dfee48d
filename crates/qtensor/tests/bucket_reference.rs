//! `contract_network` must hand its hook the intermediates of the plain
//! bucket fold below, bit for bit, and return its scalar, on the networks
//! `Simulator::energy` contracts. The reference multiplies each bucket
//! left to right with the serial `multiply_keep_serial` walk, then sums the
//! variable out with `sum_over`; production folds the leading members with
//! the stack-planned `multiply_keep` and fuses the last multiply with the
//! sum (`multiply_sum`). With a compressing hook the reconstruction of one
//! intermediate feeds later buckets, so any drift would compound there.
//! Production never builds a bucket's full product, so its peak live bytes
//! may only fall. Run it with `--release` too: the merged-axis loops
//! compile differently with optimizations on.

use compressors::ErrorBound;
use qcf_core::QcfCompressor;
use qcircuit::{qaoa_circuit, Graph, QaoaParams};
use qtensor::compressed::CompressingHook;
use qtensor::{
    contract_network, lightcone, ContractError, ContractionHook, InteractionGraph, NoopHook,
    OrderingHeuristic, TensorNetwork,
};
use std::collections::BTreeMap;
use tensornet::{multiply_keep_serial, Complex64, Ix, Tensor};

/// Records every intermediate it is handed, then passes it on.
struct Recording<'h> {
    inner: &'h mut dyn ContractionHook,
    seen: Vec<Tensor>,
}

impl ContractionHook for Recording<'_> {
    fn on_intermediate(&mut self, tensor: Tensor) -> Result<Tensor, ContractError> {
        self.seen.push(tensor.clone());
        self.inner.on_intermediate(tensor)
    }
}

/// Live bytes as the reference fold counted them: a level and its peak.
#[derive(Default)]
struct Live {
    level: usize,
    peak: usize,
}

impl Live {
    fn add(&mut self, bytes: usize) {
        self.level += bytes;
        self.peak = self.peak.max(self.level);
    }

    fn sub(&mut self, bytes: usize) {
        self.level -= bytes;
    }
}

/// The bucket fold before the fused kernel: each bucket's members
/// multiplied in left to right, the full product summed over the bucket's
/// variable, and every product counted live next to its inputs. Returns
/// the scalar and the peak live bytes.
fn reference_fold(
    tensors: Vec<Tensor>,
    order: &[Ix],
    hook: &mut dyn ContractionHook,
) -> (Complex64, usize) {
    let position: BTreeMap<Ix, usize> = order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let bucket_of = |t: &Tensor| t.indices().iter().map(|v| position[v]).min();
    let mut buckets: Vec<Vec<Tensor>> = (0..order.len()).map(|_| Vec::new()).collect();
    let mut scalar = Complex64::ONE;
    let mut live = Live::default();
    for t in tensors {
        live.add(t.nbytes());
        match bucket_of(&t) {
            Some(b) => buckets[b].push(t),
            None => scalar *= t.get(&[]),
        }
    }
    for (step, &var) in order.iter().enumerate() {
        let mut members = std::mem::take(&mut buckets[step]).into_iter();
        let Some(mut acc) = members.next() else {
            continue;
        };
        for t in members {
            let next = multiply_keep_serial(&acc, &t).expect("reference multiply");
            live.add(next.nbytes());
            live.sub(acc.nbytes() + t.nbytes());
            acc = next;
        }
        let summed = acc.sum_over(var).expect("reference sum");
        live.add(summed.nbytes());
        live.sub(acc.nbytes());
        let replaced = hook.on_intermediate(summed).expect("reference hook");
        match bucket_of(&replaced) {
            Some(b) => buckets[b].push(replaced),
            None => {
                scalar *= replaced.get(&[]);
                live.sub(replaced.nbytes());
            }
        }
    }
    (scalar, live.peak)
}

fn bits(t: &Tensor) -> Vec<(u64, u64)> {
    t.data()
        .iter()
        .map(|v| (v.re.to_bits(), v.im.to_bits()))
        .collect()
}

/// Contracts every edge-lightcone network of p=2 QAOA on `graph` both
/// ways, production through `fused_hook` and the reference through
/// `fold_hook`, and checks that the hooks saw the same intermediates and
/// the scalars agree. Returns the number of intermediates compared and
/// the largest one's element count.
fn check_graph(
    graph: &Graph,
    fused_hook: &mut dyn ContractionHook,
    fold_hook: &mut dyn ContractionHook,
) -> (usize, usize) {
    let circuit = qaoa_circuit(graph, &QaoaParams::fixed_angles_3reg_p2());
    let (mut compared, mut largest) = (0, 0);
    for &(a, b) in graph.edges() {
        let lc = lightcone(&circuit, &[a, b]);
        let (ca, cb) = (lc.compact_id(a).unwrap(), lc.compact_id(b).unwrap());
        let tensors = TensorNetwork::zz_expectation_network(&lc.circuit, ca, cb).into_tensors();
        let order =
            InteractionGraph::from_tensors(&tensors).elimination_order(OrderingHeuristic::MinFill);

        let mut fold = Recording {
            inner: &mut *fold_hook,
            seen: Vec::new(),
        };
        let (want, fold_peak) = reference_fold(tensors.clone(), &order, &mut fold);
        let mut fused = Recording {
            inner: &mut *fused_hook,
            seen: Vec::new(),
        };
        let (got, stats) = contract_network(tensors, &order, &mut fused).expect("contraction");

        let edge = format!("edge ({a},{b})");
        assert_eq!(
            fused.seen.len(),
            fold.seen.len(),
            "{edge}: intermediate count"
        );
        assert_eq!(stats.eliminations, fold.seen.len(), "{edge}: eliminations");
        for (i, (x, y)) in fused.seen.iter().zip(&fold.seen).enumerate() {
            assert_eq!(
                x.indices(),
                y.indices(),
                "{edge}: labels of intermediate {i}"
            );
            assert_eq!(x.dims(), y.dims(), "{edge}: dims of intermediate {i}");
            assert!(bits(x) == bits(y), "{edge}: values of intermediate {i}");
            largest = largest.max(x.len());
        }
        assert_eq!(
            (got.re.to_bits(), got.im.to_bits()),
            (want.re.to_bits(), want.im.to_bits()),
            "{edge}: scalar {got:?} vs {want:?}"
        );
        assert!(
            stats.peak_live_bytes <= fold_peak,
            "{edge}: peak live {} B above the fold's {fold_peak} B",
            stats.peak_live_bytes
        );
        compared += fused.seen.len();
    }
    (compared, largest)
}

/// The pinned graphs: 3-regular, 16–30 nodes.
const GRAPHS: [(usize, u64); 4] = [(16, 1), (20, 2), (24, 3), (30, 5)];

#[test]
fn exact_contraction_matches_the_reference_fold() {
    for (n, seed) in GRAPHS {
        let graph = Graph::random_regular(n, 3, seed);
        let (compared, largest) = check_graph(&graph, &mut NoopHook, &mut NoopHook);
        assert!(compared > 0, "n={n} seed={seed}: nothing compared");
        // Some bucket's fused walk runs block-parallel.
        assert!(
            largest >= 4096,
            "n={n} seed={seed}: largest intermediate {largest}"
        );
    }
}

#[test]
fn compressed_contraction_matches_the_reference_fold() {
    let codec = QcfCompressor::ratio();
    for (n, seed) in GRAPHS {
        let graph = Graph::random_regular(n, 3, seed);
        let hook = || CompressingHook::new(&codec, ErrorBound::Rel(1e-3), 256);
        let (mut fused, mut fold) = (hook(), hook());
        check_graph(&graph, &mut fused, &mut fold);
        assert!(
            fused.stats.tensors_compressed > 0,
            "n={n} seed={seed}: nothing compressed"
        );
        assert_eq!(
            fused.stats, fold.stats,
            "n={n} seed={seed}: compression stats"
        );
    }
}
