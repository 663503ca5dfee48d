//! Circuits: ordered gate lists over a fixed qubit register.

use crate::gate::Gate;
use std::fmt;

/// A quantum circuit: `n_qubits` wires and an ordered list of gates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    n_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// An empty circuit over `n_qubits` wires.
    pub fn new(n_qubits: usize) -> Self {
        Circuit {
            n_qubits,
            gates: Vec::new(),
        }
    }

    /// Number of wires.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Gates in application order.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of gates.
    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True when no gates have been added.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Appends a gate, validating its qubit indices.
    ///
    /// # Panics
    /// Panics when a qubit index is out of range or a multi-qubit gate
    /// repeats a qubit.
    pub fn push(&mut self, gate: Gate) {
        let qs = gate.qubits();
        for (i, &q) in qs.iter().enumerate() {
            assert!(
                q < self.n_qubits,
                "gate {} touches qubit {q} >= {}",
                gate.name(),
                self.n_qubits
            );
            assert!(
                !qs[..i].contains(&q),
                "gate {} repeats qubit {q}",
                gate.name()
            );
        }
        self.gates.push(gate);
    }

    /// Builder-style [`Circuit::push`].
    pub fn with(mut self, gate: Gate) -> Self {
        self.push(gate);
        self
    }

    /// Appends all gates of `other` (same register width required).
    pub fn extend(&mut self, other: &Circuit) {
        assert_eq!(self.n_qubits, other.n_qubits, "register width mismatch");
        self.gates.extend_from_slice(&other.gates);
    }

    /// The adjoint circuit: daggered gates in reverse order.
    pub fn dagger(&self) -> Circuit {
        Circuit {
            n_qubits: self.n_qubits,
            gates: self.gates.iter().rev().map(Gate::dagger).collect(),
        }
    }

    /// Count of gates that are diagonal in all their qubits.
    pub fn diagonal_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_diagonal()).count()
    }

    /// Circuit depth: length of the longest chain of gates sharing qubits,
    /// computed greedily layer by layer.
    pub fn depth(&self) -> usize {
        let mut busy_until = vec![0usize; self.n_qubits];
        let mut depth = 0usize;
        for g in &self.gates {
            let start = g.qubits().iter().map(|&q| busy_until[q]).max().unwrap_or(0);
            let end = start + 1;
            for q in g.qubits() {
                busy_until[q] = end;
            }
            depth = depth.max(end);
        }
        depth
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Circuit({} qubits, {} gates):",
            self.n_qubits,
            self.gates.len()
        )?;
        for g in &self.gates {
            writeln!(f, "  {} {:?}", g.name(), g.qubits())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_validates() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::Cnot(0, 1));
        assert_eq!(c.len(), 2);
    }

    #[test]
    #[should_panic(expected = "qubit 2")]
    fn push_rejects_out_of_range() {
        Circuit::new(2).push(Gate::H(2));
    }

    #[test]
    #[should_panic(expected = "repeats qubit")]
    fn push_rejects_repeated_qubit() {
        Circuit::new(2).push(Gate::Cnot(1, 1));
    }

    #[test]
    fn dagger_reverses() {
        let c = Circuit::new(2).with(Gate::H(0)).with(Gate::Rz(1, 0.5));
        let d = c.dagger();
        assert_eq!(d.gates()[0], Gate::Rz(1, -0.5));
        assert_eq!(d.gates()[1], Gate::H(0));
    }

    #[test]
    fn depth_counts_layers() {
        // H(0) and H(1) are parallel; CNOT then serializes.
        let c = Circuit::new(2)
            .with(Gate::H(0))
            .with(Gate::H(1))
            .with(Gate::Cnot(0, 1))
            .with(Gate::H(0));
        assert_eq!(c.depth(), 3);
        assert_eq!(Circuit::new(3).depth(), 0);
    }

    #[test]
    fn gate_class_counts() {
        let c = Circuit::new(3)
            .with(Gate::H(0))
            .with(Gate::Zz(0, 1, 0.3))
            .with(Gate::Cz(1, 2))
            .with(Gate::Rx(2, 0.1));
        assert_eq!(c.diagonal_gate_count(), 2);
    }

    #[test]
    fn extend_appends() {
        let mut a = Circuit::new(2).with(Gate::H(0));
        let b = Circuit::new(2).with(Gate::X(1));
        a.extend(&b);
        assert_eq!(a.len(), 2);
    }
}
