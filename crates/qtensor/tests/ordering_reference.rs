//! `InteractionGraph::elimination_order` must return the order of the plain
//! adjacency-map planner below, under both heuristics, for every tensor
//! list, and `width_of_order` its widths: every contraction, intermediate
//! and energy follows from that order. The reference keeps each variable's
//! neighbours in a `BTreeSet` and rescores every live variable at every
//! step; the production planner keeps bitset rows and rescores only the
//! variables whose score can change. Run it with `--release` too: the
//! word loops compile differently with optimizations on.

use proptest::prelude::*;
use qcircuit::{qaoa_circuit, Graph, QaoaParams};
use qtensor::{lightcone, InteractionGraph, OrderingHeuristic, TensorNetwork};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use tensornet::{Complex64, Ix, Tensor};

const HEURISTICS: [OrderingHeuristic; 2] =
    [OrderingHeuristic::MinDegree, OrderingHeuristic::MinFill];

/// The order-defining planner: an adjacency map, every live variable
/// rescored at every step, ties to the smallest label.
struct Reference {
    adj: BTreeMap<Ix, BTreeSet<Ix>>,
}

impl Reference {
    fn from_tensors(tensors: &[Tensor]) -> Self {
        let mut adj: BTreeMap<Ix, BTreeSet<Ix>> = BTreeMap::new();
        for t in tensors {
            for &v in t.indices() {
                adj.entry(v).or_default();
            }
            for (i, &a) in t.indices().iter().enumerate() {
                for &b in &t.indices()[i + 1..] {
                    adj.get_mut(&a).unwrap().insert(b);
                    adj.get_mut(&b).unwrap().insert(a);
                }
            }
        }
        Reference { adj }
    }

    fn elimination_order(&self, heuristic: OrderingHeuristic) -> Vec<Ix> {
        let mut adj = self.adj.clone();
        let mut order = Vec::with_capacity(adj.len());
        while !adj.is_empty() {
            let best = match heuristic {
                OrderingHeuristic::MinDegree => *adj
                    .iter()
                    .min_by_key(|(v, ns)| (ns.len(), **v))
                    .map(|(v, _)| v)
                    .expect("non-empty"),
                OrderingHeuristic::MinFill => *adj
                    .iter()
                    .min_by_key(|(v, ns)| (fill_in(&adj, ns), **v))
                    .map(|(v, _)| v)
                    .expect("non-empty"),
            };
            eliminate(&mut adj, best);
            order.push(best);
        }
        order
    }

    fn width_of_order(&self, order: &[Ix]) -> usize {
        let mut adj = self.adj.clone();
        let mut width = 0usize;
        for &v in order {
            if let Some(ns) = adj.get(&v) {
                width = width.max(ns.len());
            }
            eliminate(&mut adj, v);
        }
        width
    }
}

/// Number of missing edges among the neighbour set (fill-in cost).
fn fill_in(adj: &BTreeMap<Ix, BTreeSet<Ix>>, ns: &BTreeSet<Ix>) -> usize {
    let mut missing = 0usize;
    let list: Vec<Ix> = ns.iter().copied().collect();
    for (i, &a) in list.iter().enumerate() {
        for &b in &list[i + 1..] {
            if !adj[&a].contains(&b) {
                missing += 1;
            }
        }
    }
    missing
}

/// Removes `v`, connecting all its neighbours pairwise (the fill step).
fn eliminate(adj: &mut BTreeMap<Ix, BTreeSet<Ix>>, v: Ix) {
    let ns: Vec<Ix> = match adj.remove(&v) {
        Some(set) => set.into_iter().collect(),
        None => return,
    };
    for (i, &a) in ns.iter().enumerate() {
        adj.get_mut(&a).map(|s| s.remove(&v));
        for &b in &ns[i + 1..] {
            adj.get_mut(&a).map(|s| s.insert(b));
            adj.get_mut(&b).map(|s| s.insert(a));
        }
    }
}

fn tensor(indices: Vec<Ix>) -> Tensor {
    let n = 1usize << indices.len();
    Tensor::qubit(indices, vec![Complex64::ONE; n]).unwrap()
}

/// A random tensor list over exactly `n_vars` variables. Labels are
/// non-contiguous (gaps of 1, up to 7 or up to 100,000) and shuffled, so
/// label order is not the order of the structure. Each tensor takes 0–4
/// distinct labels from a band of nearby positions (4, 8 or 16 wide, as in
/// a lightcone, or all of them); its rank is capped at the band's width, so
/// the draw always terminates. About one tensor in eight repeats an earlier
/// one, and every label no tensor took gets a rank-1 tensor of its own, an
/// isolated variable.
fn network(n_vars: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let gap = [1, 7, 100_000][rng.gen_range(0..3)];
    let mut labels: Vec<Ix> = Vec::with_capacity(n_vars);
    let mut next: Ix = rng.gen_range(0..1000);
    for _ in 0..n_vars {
        labels.push(next);
        next += rng.gen_range(1..=gap);
    }
    labels.shuffle(&mut rng);
    let band = [4, 8, 16, n_vars][rng.gen_range(0..4)];
    let mut used = vec![false; n_vars];
    let mut tensors: Vec<Tensor> = Vec::new();
    for _ in 0..rng.gen_range(0..=2 * n_vars + 2) {
        if !tensors.is_empty() && rng.gen_range(0..8) == 0 {
            let again = tensors[rng.gen_range(0..tensors.len())].clone();
            tensors.push(again);
            continue;
        }
        let lo = rng.gen_range(0..n_vars.max(1));
        let mut window: Vec<usize> = (lo..(lo + band).min(n_vars)).collect();
        let rank = rng.gen_range(0..=4).min(window.len());
        for k in 0..rank {
            let j = rng.gen_range(k..window.len());
            window.swap(k, j);
        }
        for &p in &window[..rank] {
            used[p] = true;
        }
        tensors.push(tensor(window[..rank].iter().map(|&p| labels[p]).collect()));
    }
    for (p, _) in used.iter().enumerate().filter(|(_, &u)| !u) {
        tensors.push(tensor(vec![labels[p]]));
    }
    tensors
}

/// Where the planner departs from the reference on `tensors`, if it does:
/// the order under each heuristic, the width of that order, and the width
/// of a scrambled order (reversed, with a repeated label and one outside
/// the graph, which are skipped).
fn mismatch(tensors: &[Tensor]) -> Option<String> {
    let graph = InteractionGraph::from_tensors(tensors);
    let reference = Reference::from_tensors(tensors);
    if graph.n_vars() != reference.adj.len() {
        return Some(format!(
            "{} variables vs {} in the reference",
            graph.n_vars(),
            reference.adj.len()
        ));
    }
    for h in HEURISTICS {
        let got = graph.elimination_order(h);
        let want = reference.elimination_order(h);
        if got != want {
            let at = got.iter().zip(&want).take_while(|(a, b)| a == b).count();
            return Some(format!(
                "{h:?} on {} variables: first difference at step {at}: {:?} vs {:?}",
                want.len(),
                got.get(at),
                want.get(at)
            ));
        }
        let mut scrambled: Vec<Ix> = want.iter().rev().copied().collect();
        let outside = reference.adj.keys().last().map_or(0, |&l| l + 1);
        scrambled.insert(scrambled.len() / 2, outside);
        if let Some(&first) = scrambled.first() {
            scrambled.insert(scrambled.len() / 3, first);
        }
        for order in [&want, &scrambled] {
            let (got, want) = (graph.width_of_order(order), reference.width_of_order(order));
            if got != want {
                return Some(format!("{h:?}: width {got} vs {want} of order {order:?}"));
            }
        }
    }
    None
}

/// Variable counts 0–200 at random, with extra weight on each side of the
/// 64-bit row boundaries.
fn n_vars() -> impl Strategy<Value = usize> {
    prop_oneof![
        3 => 0usize..=200,
        1 => 62usize..=66,
        1 => 126usize..=130,
        1 => 190usize..=194,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    #[test]
    fn random_networks_order_like_the_reference(n in n_vars(), seed in any::<u64>()) {
        let m = mismatch(&network(n, seed)).unwrap_or_default();
        prop_assert!(m.is_empty(), "{} variables, seed {:#x}: {}", n, seed, m);
    }
}

#[test]
fn small_networks_order_like_the_reference() {
    // Every edge case the generator can reach at the smallest sizes.
    for n in 0..=4 {
        for seed in 0..64 {
            if let Some(m) = mismatch(&network(n, seed)) {
                panic!("{n} variables, seed {seed}: {m}");
            }
        }
    }
}

/// The networks `Simulator::energy` orders: the lightcone of each edge's
/// `⟨Z_a Z_b⟩` term of p=2 QAOA on 3-regular graphs of 30–36 nodes.
#[test]
fn qaoa_lightcone_networks_order_like_the_reference() {
    let params = QaoaParams::fixed_angles_3reg_p2();
    let mut networks = 0;
    for (n, seed) in [(30, 1), (32, 2), (34, 3), (36, 4)] {
        let graph = Graph::random_regular(n, 3, seed);
        let circuit = qaoa_circuit(&graph, &params);
        for &(a, b) in graph.edges() {
            let lc = lightcone(&circuit, &[a, b]);
            let (ca, cb) = (lc.compact_id(a).unwrap(), lc.compact_id(b).unwrap());
            let tensors = TensorNetwork::zz_expectation_network(&lc.circuit, ca, cb).into_tensors();
            if let Some(m) = mismatch(&tensors) {
                panic!("n={n} seed={seed} edge ({a},{b}): {m}");
            }
            networks += 1;
        }
    }
    assert_eq!(networks, 198);
}
