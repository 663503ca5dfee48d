//! QAOA MaxCut ansatz construction.
//!
//! The workload of the paper: QTensor's flagship application is computing
//! QAOA energies on MaxCut instances. Conventions follow Farhi et al.:
//! `|ψ(γ,β)⟩ = U_B(β_p) U_C(γ_p) … U_B(β_1) U_C(γ_1) |+⟩^n` with
//! `U_C(γ) = e^{-iγC}`, `C = Σ_{(i,j)∈E} (1 - Z_i Z_j)/2`, and
//! `U_B(β) = Π_q e^{-iβ X_q}`. Global phases are dropped (they cancel in
//! every expectation value).

use crate::circuit::Circuit;
use crate::gate::Gate;
use crate::graph::Graph;

/// Variational parameters for a depth-`p` QAOA ansatz.
#[derive(Debug, Clone, PartialEq)]
pub struct QaoaParams {
    /// Cost-layer angles, one per level.
    pub gammas: Vec<f64>,
    /// Mixer-layer angles, one per level.
    pub betas: Vec<f64>,
}

impl QaoaParams {
    /// Creates parameters, checking both lists have the same length.
    pub fn new(gammas: Vec<f64>, betas: Vec<f64>) -> Self {
        assert_eq!(gammas.len(), betas.len(), "need one beta per gamma");
        assert!(!gammas.is_empty(), "QAOA depth must be at least 1");
        QaoaParams { gammas, betas }
    }

    /// Ansatz depth `p`.
    pub fn depth(&self) -> usize {
        self.gammas.len()
    }

    /// Literature fixed angles for `p = 1` on 3-regular graphs
    /// (γ ≈ 0.616, β ≈ 0.393 maximizes the expected cut).
    pub fn fixed_angles_3reg_p1() -> Self {
        QaoaParams::new(vec![0.616], vec![0.393])
    }

    /// Literature fixed angles for `p = 2` on 3-regular graphs
    /// (Wurtz & Love, "fixed angle conjecture" values).
    pub fn fixed_angles_3reg_p2() -> Self {
        QaoaParams::new(vec![0.488, 0.898], vec![0.555, 0.293])
    }
}

/// Builds the QAOA MaxCut circuit for `graph` with the given parameters.
///
/// Layout per level: one fully-diagonal `ZZ` gate per edge, then one `RX`
/// mixer per qubit. The heavy use of diagonal gates is exactly what makes
/// QTensor's rank-reduced tensor networks (and hence this paper's tensors)
/// tractable.
pub fn qaoa_circuit(graph: &Graph, params: &QaoaParams) -> Circuit {
    let mut c = Circuit::new(graph.n());
    for q in 0..graph.n() {
        c.push(Gate::H(q));
    }
    for (&gamma, &beta) in params.gammas.iter().zip(&params.betas) {
        // e^{-iγ(1 - Z_i Z_j)/2} = phase · e^{+iγ Z_i Z_j / 2} = Zz(i, j, -γ)
        for &(i, j) in graph.edges() {
            c.push(Gate::Zz(i, j, -gamma));
        }
        // e^{-iβX} = Rx(2β)
        for q in 0..graph.n() {
            c.push(Gate::Rx(q, 2.0 * beta));
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_validate() {
        let p = QaoaParams::new(vec![0.1, 0.2], vec![0.3, 0.4]);
        assert_eq!(p.depth(), 2);
    }

    #[test]
    #[should_panic(expected = "one beta per gamma")]
    fn mismatched_params_panic() {
        QaoaParams::new(vec![0.1], vec![]);
    }

    #[test]
    fn circuit_shape() {
        let g = Graph::cycle(4);
        let c = qaoa_circuit(&g, &QaoaParams::new(vec![0.5], vec![0.25]));
        // 4 H + 4 ZZ + 4 RX
        assert_eq!(c.len(), 12);
        assert_eq!(c.n_qubits(), 4);
        assert_eq!(c.diagonal_gate_count(), 4); // the ZZ gates
        let c2 = qaoa_circuit(&g, &QaoaParams::new(vec![0.5, 0.1], vec![0.25, 0.3]));
        assert_eq!(c2.len(), 4 + 2 * 8);
    }

    #[test]
    fn gate_parameters_follow_convention() {
        let g = Graph::new(2, [(0, 1)]);
        let c = qaoa_circuit(&g, &QaoaParams::new(vec![0.7], vec![0.2]));
        assert_eq!(c.gates()[2], Gate::Zz(0, 1, -0.7));
        assert_eq!(c.gates()[3], Gate::Rx(0, 0.4));
    }
}
