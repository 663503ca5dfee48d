//! Exact statevector simulator — the ground-truth oracle.
//!
//! The paper validates compressed tensor-network runs against the *true*
//! energy. For up to ~22 qubits we obtain that truth exactly by dense
//! statevector simulation, which also cross-checks the tensor-network
//! contractor itself in the test suite.

use qcircuit::{Circuit, Gate, Graph};
use tensornet::Complex64;

/// A dense `2^n` statevector.
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    n: usize,
    amps: Vec<Complex64>,
}

/// Applies `gate` to a raw little-endian amplitude buffer of `n` qubits
/// (`amps.len() == 2^n`). Shared between [`StateVector`] and the
/// chunk-compressed simulator in [`crate::compressed_state`].
pub fn apply_gate_to_amplitudes(amps: &mut [Complex64], n: usize, gate: &Gate) {
    debug_assert_eq!(amps.len(), 1usize << n);
    // Fixed-size accessors keep this hot path allocation-free — the
    // compressed-state apply loop relies on that for its steady state.
    let (qs, k) = gate.qubits_array();
    let (m, _) = gate.matrix_array();
    match k {
        1 => apply_1q(amps, qs[0], &m),
        2 => apply_2q(amps, qs[0], qs[1], &m),
        k => unreachable!("no {k}-qubit gates in the gate set"),
    }
}

fn apply_1q(amps: &mut [Complex64], q: usize, m: &[Complex64]) {
    let mask = 1usize << q;
    debug_assert!(mask < amps.len());
    for i in 0..amps.len() {
        if i & mask == 0 {
            let j = i | mask;
            let (a0, a1) = (amps[i], amps[j]);
            amps[i] = m[0] * a0 + m[1] * a1;
            amps[j] = m[2] * a0 + m[3] * a1;
        }
    }
}

fn apply_2q(amps: &mut [Complex64], qa: usize, qb: usize, m: &[Complex64]) {
    debug_assert!(qa != qb);
    // Matrix basis: gate qubit 0 (qa) most significant.
    let ma = 1usize << qa;
    let mb = 1usize << qb;
    debug_assert!(ma < amps.len() && mb < amps.len());
    for i in 0..amps.len() {
        if i & ma == 0 && i & mb == 0 {
            let idx = [i, i | mb, i | ma, i | ma | mb]; // |qa qb⟩ = 00,01,10,11
            let a = [amps[idx[0]], amps[idx[1]], amps[idx[2]], amps[idx[3]]];
            for (row, &slot) in idx.iter().enumerate() {
                let mut acc = Complex64::ZERO;
                for (col, &av) in a.iter().enumerate() {
                    acc = acc.mul_add(m[row * 4 + col], av);
                }
                amps[slot] = acc;
            }
        }
    }
}

/// A diagonal two-qubit gate `m` (row-major 4×4 in [`apply_2q`]'s basis,
/// first qubit most significant) on a buffer in which each gate qubit is
/// either buffer bit `Ok(pos)` or a bit `Err(value)` fixed for the whole
/// buffer — the compressed state's chunk-id qubits outside a stage's
/// group. Each amplitude `a` in row `r` becomes `ZERO.mul_add(m[5r], a)`,
/// which is [`apply_2q`]'s result bit for bit on finite amplitudes: there
/// the off-diagonal terms add `0·a = ±0` to a partial sum, and the sum is
/// `+0` before the diagonal term and never `-0` after it, so none of them
/// changes a bit. The same does not hold for one-qubit diagonals
/// ([`apply_1q`] adds a `±0` product that can flip a zero's sign) or for
/// `Cnot`.
pub(crate) fn apply_diagonal_2q(
    amps: &mut [Complex64],
    qa: Result<usize, bool>,
    qb: Result<usize, bool>,
    m: &[Complex64; 16],
) {
    let bit = |q: Result<usize, bool>, i: usize| match q {
        Ok(pos) => (i >> pos) & 1,
        Err(value) => usize::from(value),
    };
    for (i, a) in amps.iter_mut().enumerate() {
        let r = (bit(qa, i) << 1) | bit(qb, i);
        *a = Complex64::ZERO.mul_add(m[r * 5], *a);
    }
}

impl StateVector {
    /// Maximum register width accepted (2^24 amplitudes = 256 MiB).
    pub const MAX_QUBITS: usize = 24;

    /// `|0…0⟩` over `n` qubits.
    ///
    /// # Panics
    /// Panics when `n > MAX_QUBITS`.
    pub fn zero(n: usize) -> Self {
        assert!(
            n <= Self::MAX_QUBITS,
            "statevector limited to {} qubits",
            Self::MAX_QUBITS
        );
        let mut amps = vec![Complex64::ZERO; 1usize << n];
        amps[0] = Complex64::ONE;
        StateVector { n, amps }
    }

    /// Builds a state from raw amplitudes (must have length `2^n`).
    pub fn from_amplitudes(n: usize, amps: Vec<Complex64>) -> Result<Self, String> {
        if amps.len() != 1usize << n {
            return Err(format!("expected 2^{n} amplitudes, got {}", amps.len()));
        }
        Ok(StateVector { n, amps })
    }

    /// Register width.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// Raw amplitudes; index bit `q` (little-endian: bit 0 = qubit 0) is the
    /// basis value of qubit `q`.
    #[inline]
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// Squared norm (should stay 1 under unitaries).
    pub fn norm_sq(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sq()).sum()
    }

    /// Applies a gate in place.
    pub fn apply(&mut self, gate: &Gate) {
        apply_gate_to_amplitudes(&mut self.amps, self.n, gate);
    }

    /// Runs a whole circuit from `|0…0⟩`.
    pub fn run(circuit: &Circuit) -> Self {
        let mut sv = StateVector::zero(circuit.n_qubits());
        for g in circuit.gates() {
            sv.apply(g);
        }
        sv
    }

    /// `⟨ψ| Z_a Z_b |ψ⟩` (always real for a valid state; returned as `f64`).
    pub fn zz_expectation(&self, a: usize, b: usize) -> f64 {
        debug_assert!(a < self.n && b < self.n);
        let (ma, mb) = (1usize << a, 1usize << b);
        let mut e = 0.0;
        for (i, amp) in self.amps.iter().enumerate() {
            let sign = if ((i & ma != 0) as u8) ^ ((i & mb != 0) as u8) == 1 {
                -1.0
            } else {
                1.0
            };
            e += sign * amp.norm_sq();
        }
        e
    }

    /// `⟨ψ| Z_q |ψ⟩`.
    pub fn z_expectation(&self, q: usize) -> f64 {
        let mq = 1usize << q;
        self.amps
            .iter()
            .enumerate()
            .map(|(i, amp)| {
                if i & mq != 0 {
                    -amp.norm_sq()
                } else {
                    amp.norm_sq()
                }
            })
            .sum()
    }

    /// MaxCut QAOA energy `⟨C⟩ = Σ_(a,b) (1 - ⟨Z_a Z_b⟩)/2`.
    pub fn maxcut_energy(&self, graph: &Graph) -> f64 {
        graph
            .edges()
            .iter()
            .map(|&(a, b)| 0.5 * (1.0 - self.zz_expectation(a, b)))
            .sum()
    }

    /// Fidelity `|⟨self|other⟩|²` between two states, unnormalized: a
    /// state whose norm drifted above 1 can read above 1 here. Judge lossy
    /// states by [`fidelity_normalized`](Self::fidelity_normalized) and
    /// their norm drift separately.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        assert_eq!(self.n, other.n);
        let mut ip = Complex64::ZERO;
        for (a, b) in self.amps.iter().zip(&other.amps) {
            ip += a.conj() * *b;
        }
        ip.norm_sq()
    }

    /// Fidelity of the two states' directions,
    /// `|⟨self|other⟩|² / (‖self‖²·‖other‖²)`: in `[0, 1]` whatever either
    /// norm is, so norm drift cannot pass for overlap.
    pub fn fidelity_normalized(&self, other: &StateVector) -> f64 {
        self.fidelity(other) / (self.norm_sq() * other.norm_sq())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::{qaoa_circuit, QaoaParams};

    #[test]
    fn zero_state() {
        let sv = StateVector::zero(3);
        assert_eq!(sv.amplitudes().len(), 8);
        assert!((sv.norm_sq() - 1.0).abs() < 1e-12);
        assert!((sv.z_expectation(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hadamard_makes_plus() {
        let mut sv = StateVector::zero(1);
        sv.apply(&Gate::H(0));
        let h = std::f64::consts::FRAC_1_SQRT_2;
        assert!(sv.amplitudes()[0].approx_eq(Complex64::real(h), 1e-12));
        assert!(sv.amplitudes()[1].approx_eq(Complex64::real(h), 1e-12));
        assert!(sv.z_expectation(0).abs() < 1e-12);
    }

    #[test]
    fn bell_state_correlations() {
        let c = Circuit::new(2).with(Gate::H(0)).with(Gate::Cnot(0, 1));
        let sv = StateVector::run(&c);
        assert!((sv.zz_expectation(0, 1) - 1.0).abs() < 1e-12);
        assert!(sv.z_expectation(0).abs() < 1e-12);
        assert!((sv.norm_sq() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn x_flips() {
        let mut sv = StateVector::zero(2);
        sv.apply(&Gate::X(1));
        assert!((sv.z_expectation(1) + 1.0).abs() < 1e-12);
        assert!((sv.z_expectation(0) - 1.0).abs() < 1e-12);
        assert!((sv.zz_expectation(0, 1) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn norm_preserved_through_random_circuit() {
        let c = Circuit::new(3)
            .with(Gate::H(0))
            .with(Gate::Ry(1, 0.7))
            .with(Gate::Cnot(0, 2))
            .with(Gate::Zz(1, 2, 0.4))
            .with(Gate::Rx(0, 1.3))
            .with(Gate::Cz(0, 1))
            .with(Gate::T(2))
            .with(Gate::Swap(0, 1));
        let sv = StateVector::run(&c);
        assert!((sv.norm_sq() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn swap_really_swaps() {
        let mut sv = StateVector::zero(2);
        sv.apply(&Gate::X(0));
        sv.apply(&Gate::Swap(0, 1));
        assert!((sv.z_expectation(0) - 1.0).abs() < 1e-12);
        assert!((sv.z_expectation(1) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn qubit_order_in_two_qubit_gates() {
        // CNOT(0,1) with qubit 0 = control: X(0) then CNOT flips qubit 1.
        let mut sv = StateVector::zero(2);
        sv.apply(&Gate::X(0));
        sv.apply(&Gate::Cnot(0, 1));
        assert!((sv.z_expectation(1) + 1.0).abs() < 1e-12);
        // ...and CNOT(1,0) with qubit 1 = control leaves qubit 0 alone.
        let mut sv = StateVector::zero(2);
        sv.apply(&Gate::X(0));
        sv.apply(&Gate::Cnot(1, 0));
        assert!((sv.z_expectation(0) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn qaoa_p1_ring_energy_matches_analytic() {
        // For a triangle-free graph the p=1 QAOA energy per edge (a,b) has
        // the closed form (Wang et al. 2018):
        //   ⟨C_ab⟩ = 1/2 + (1/4) sin(4β) sin(γ) [cos^(d_a-1)(γ) + cos^(d_b-1)(γ)]
        // For a ring d_a = d_b = 2, so the bracket is 2 cos(γ).
        let n = 8;
        let g = Graph::cycle(n);
        let (gamma, beta) = (0.9, 0.35);
        let c = qaoa_circuit(&g, &QaoaParams::new(vec![gamma], vec![beta]));
        let sv = StateVector::run(&c);
        let per_edge = 0.5 + 0.5 * (4.0 * beta).sin() * gamma.sin() * gamma.cos();
        let want = per_edge * g.m() as f64;
        assert!(
            (sv.maxcut_energy(&g) - want).abs() < 1e-10,
            "got {}, want {want}",
            sv.maxcut_energy(&g)
        );
    }

    #[test]
    fn fidelity_of_identical_states_is_one() {
        let c = qaoa_circuit(&Graph::cycle(4), &QaoaParams::fixed_angles_3reg_p1());
        let a = StateVector::run(&c);
        let b = StateVector::run(&c);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
        let zero = StateVector::zero(4);
        assert!(a.fidelity(&zero) < 1.0);
    }

    #[test]
    fn normalized_fidelity_ignores_norm_drift() {
        let c = qaoa_circuit(&Graph::cycle(4), &QaoaParams::fixed_angles_3reg_p1());
        let a = StateVector::run(&c);
        let scaled = a.amplitudes().iter().map(|&x| x * 1.01).collect();
        let b = StateVector::from_amplitudes(4, scaled).unwrap();
        assert!(
            a.fidelity(&b) > 1.02,
            "unnormalized overlap reads the drift"
        );
        assert!((a.fidelity_normalized(&b) - 1.0).abs() < 1e-12);
        let zero = StateVector::zero(4);
        assert!(a.fidelity_normalized(&zero) < 1.0);
    }
}
