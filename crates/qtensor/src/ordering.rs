//! Variable-elimination ordering heuristics.
//!
//! Bucket elimination's cost is `2^w` where `w` is the width induced by the
//! elimination order, so the order is the whole ballgame. QTensor uses greedy
//! line-graph heuristics; we implement the two classics — **min-degree** and
//! **min-fill** — over the network's variable interaction graph, plus an
//! exact width evaluator used by tests and the ordering ablation bench.
//!
//! **Representation.** The graph is a dense bitset adjacency matrix. Labels
//! are compacted to ids `0..V` in ascending label order, and each id owns one
//! row of ⌈V/64⌉ `u64` words whose bit `u` is set when `u` is a neighbour.
//! The matrix is V·⌈V/64⌉ words: 3 words per row and 498 in all (about
//! 4 KiB) at 166 variables, the largest edge-lightcone network of p=2 QAOA
//! on perfbench's 3-regular graphs of 30–36 nodes. It grows with V², as
//! does the greedy search over it: a 10,000-variable network takes 12.5 MB.
//! A variable's degree is its row's popcount, and its fill-in (the missing
//! edges among its neighbours) is
//! `C(d,2) − ½·Σ_{a∈N(v)} popcount(N(a) & N(v))`: each edge among the
//! neighbours is counted once from each end.
//!
//! **Cached scores, exact updates.** Each live variable's score (fill-in or
//! degree) is cached. Eliminating `v` removes it and joins its neighbours
//! pairwise. That changes the neighbourhood of each `a ∈ N(v)`; any other
//! variable `u` keeps its neighbours, and the edges among them change only
//! when a new edge joins two of them, which makes `u` a neighbour of
//! `N(v)`. So only `N(v) ∪ N(N(v))` can change fill-in, and only `N(v)` can
//! change degree: recomputing just those leaves every cached score equal to
//! a full recomputation.
//!
//! **Tie-break.** Each step eliminates the live variable with the smallest
//! `(score, id)`. Ids ascend with labels, so that is the smallest
//! `(score, label)`: the same order an adjacency-map planner that rescores
//! every variable per step produces (`tests/ordering_reference.rs` keeps
//! one as the reference).

use tensornet::{Ix, Tensor};

/// Which greedy heuristic to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingHeuristic {
    /// Eliminate the variable with the fewest neighbours first.
    MinDegree,
    /// Eliminate the variable whose elimination adds the fewest fill edges.
    MinFill,
}

/// The variable interaction graph: an undirected graph whose vertices are
/// tensor-network variables and whose edges join variables co-occurring in a
/// tensor (the network's *line graph* in QTensor terminology).
#[derive(Debug, Clone)]
pub struct InteractionGraph {
    /// Every variable once, ascending; a label's position is its id.
    labels: Vec<Ix>,
    rows: Adjacency,
}

impl InteractionGraph {
    /// Builds the interaction graph of a tensor list.
    pub fn from_tensors(tensors: &[Tensor]) -> Self {
        let mut labels: Vec<Ix> = tensors.iter().flat_map(|t| t.indices()).copied().collect();
        labels.sort_unstable();
        labels.dedup();
        let mut rows = Adjacency::empty(labels.len());
        let id = |ix: &Ix| labels.binary_search(ix).expect("every label was collected");
        let mut ids = Vec::new();
        for t in tensors {
            ids.clear();
            ids.extend(t.indices().iter().map(id));
            for &a in &ids {
                for &b in &ids {
                    if a != b {
                        rows.row_mut(a)[b / 64] |= 1 << (b % 64);
                    }
                }
            }
        }
        InteractionGraph { labels, rows }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.labels.len()
    }

    /// Greedy elimination order under the chosen heuristic.
    ///
    /// Ties break toward the smallest variable id, making orders
    /// deterministic across runs.
    pub fn elimination_order(&self, heuristic: OrderingHeuristic) -> Vec<Ix> {
        let score = |rows: &Adjacency, v: usize| match heuristic {
            OrderingHeuristic::MinDegree => rows.degree(v),
            OrderingHeuristic::MinFill => rows.fill_in(v),
        };
        let n = self.labels.len();
        let mut rows = self.rows.clone();
        let mut scores: Vec<usize> = (0..n).map(|v| score(&rows, v)).collect();
        let mut nv = vec![0u64; rows.words];
        let mut dirty = vec![0u64; rows.words];
        let mut order = Vec::with_capacity(n);
        for _ in 0..n {
            // The first minimum is the smallest id among equal scores.
            let best = (0..n).min_by_key(|&v| scores[v]).expect("a live variable");
            rows.eliminate(best, &mut nv);
            // Eliminated: never the minimum again.
            scores[best] = usize::MAX;
            // Only these scores can change (see the module docs).
            dirty.copy_from_slice(&nv);
            if heuristic == OrderingHeuristic::MinFill {
                for a in ones(&nv) {
                    or_into(&mut dirty, rows.row(a));
                }
            }
            for u in ones(&dirty) {
                scores[u] = score(&rows, u);
            }
            order.push(self.labels[best]);
        }
        order
    }

    /// Width induced by an order: the largest clique formed during
    /// elimination, i.e. `max` over steps of (neighbours remaining when the
    /// variable is eliminated). The largest intermediate tensor has
    /// `2^width` elements. Labels outside the graph are skipped, and so is a
    /// label's repeat: an eliminated variable has no neighbours left.
    pub fn width_of_order(&self, order: &[Ix]) -> usize {
        let mut rows = self.rows.clone();
        let mut nv = vec![0u64; rows.words];
        let mut width = 0usize;
        for label in order {
            if let Ok(v) = self.labels.binary_search(label) {
                width = width.max(rows.degree(v));
                rows.eliminate(v, &mut nv);
            }
        }
        width
    }
}

/// One neighbour bitset per variable id, `words` words each, back to back.
#[derive(Debug, Clone)]
struct Adjacency {
    words: usize,
    bits: Vec<u64>,
}

impl Adjacency {
    fn empty(n: usize) -> Self {
        let words = n.div_ceil(64);
        Adjacency {
            words,
            bits: vec![0; n * words],
        }
    }

    fn row(&self, v: usize) -> &[u64] {
        &self.bits[v * self.words..(v + 1) * self.words]
    }

    fn row_mut(&mut self, v: usize) -> &mut [u64] {
        &mut self.bits[v * self.words..(v + 1) * self.words]
    }

    fn degree(&self, v: usize) -> usize {
        self.row(v).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of missing edges among `v`'s neighbours (fill-in cost).
    fn fill_in(&self, v: usize) -> usize {
        let nv = self.row(v);
        let d = self.degree(v);
        // Each edge among the neighbours is counted from both ends.
        let linked: usize = ones(nv).map(|a| common(self.row(a), nv)).sum();
        d * d.saturating_sub(1) / 2 - linked / 2
    }

    /// Removes `v`, connecting all its neighbours pairwise (the fill step),
    /// and leaves `v`'s former neighbours in `nv`.
    fn eliminate(&mut self, v: usize, nv: &mut [u64]) {
        nv.copy_from_slice(self.row(v));
        self.row_mut(v).fill(0);
        for a in ones(nv) {
            let row = self.row_mut(a);
            or_into(row, nv);
            row[a / 64] &= !(1 << (a % 64));
            row[v / 64] &= !(1 << (v % 64));
        }
    }
}

/// Sets in `dst` every bit set in `src`.
fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Number of bits set in both `a` and `b`.
fn common(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

/// The ids whose bits are set, ascending.
fn ones(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
    set.iter().enumerate().flat_map(|(i, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                i * 64 + bit
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensornet::Complex64;

    fn t(ix: Vec<Ix>) -> Tensor {
        let n = 1usize << ix.len();
        Tensor::qubit(ix, vec![Complex64::ONE; n]).unwrap()
    }

    #[test]
    fn chain_graph_has_width_one() {
        // tensors: (0,1) (1,2) (2,3) — a path; any greedy order has width 1.
        let ts = vec![t(vec![0, 1]), t(vec![1, 2]), t(vec![2, 3])];
        let g = InteractionGraph::from_tensors(&ts);
        assert_eq!(g.n_vars(), 4);
        for h in [OrderingHeuristic::MinDegree, OrderingHeuristic::MinFill] {
            let order = g.elimination_order(h);
            assert_eq!(order.len(), 4);
            assert_eq!(g.width_of_order(&order), 1);
        }
    }

    #[test]
    fn cycle_graph_has_width_two() {
        let ts = vec![t(vec![0, 1]), t(vec![1, 2]), t(vec![2, 3]), t(vec![3, 0])];
        let g = InteractionGraph::from_tensors(&ts);
        let order = g.elimination_order(OrderingHeuristic::MinFill);
        assert_eq!(g.width_of_order(&order), 2);
    }

    #[test]
    fn clique_width_is_n_minus_one() {
        // one rank-4 tensor = a 4-clique
        let ts = vec![t(vec![0, 1, 2, 3])];
        let g = InteractionGraph::from_tensors(&ts);
        let order = g.elimination_order(OrderingHeuristic::MinDegree);
        assert_eq!(g.width_of_order(&order), 3);
    }

    #[test]
    fn isolated_variables_handled() {
        let ts = vec![t(vec![0]), t(vec![1, 2])];
        let g = InteractionGraph::from_tensors(&ts);
        let order = g.elimination_order(OrderingHeuristic::MinDegree);
        assert_eq!(order.len(), 3);
        assert_eq!(g.width_of_order(&order), 1);
    }

    #[test]
    fn orders_are_deterministic() {
        let ts = vec![t(vec![0, 1]), t(vec![1, 2]), t(vec![0, 2])];
        let g = InteractionGraph::from_tensors(&ts);
        let o1 = g.elimination_order(OrderingHeuristic::MinFill);
        let o2 = g.elimination_order(OrderingHeuristic::MinFill);
        assert_eq!(o1, o2);
    }

    #[test]
    fn min_fill_no_worse_on_grid() {
        // 3x3 grid graph as rank-2 tensors; min-fill should reach width <= 3.
        let mut ts = Vec::new();
        let id = |r: u32, c: u32| r * 3 + c;
        for r in 0..3 {
            for c in 0..3 {
                if c + 1 < 3 {
                    ts.push(t(vec![id(r, c), id(r, c + 1)]));
                }
                if r + 1 < 3 {
                    ts.push(t(vec![id(r, c), id(r + 1, c)]));
                }
            }
        }
        let g = InteractionGraph::from_tensors(&ts);
        let w = g.width_of_order(&g.elimination_order(OrderingHeuristic::MinFill));
        assert!(w <= 3, "3x3 grid width {w} > 3");
    }
}
