//! Product states: registers whose qubits are never entangled.
//!
//! A circuit made only of single-qubit gates, run on |0…0⟩, leaves every
//! qubit in its own state: `|ψ⟩ = |ψ_0⟩ ⊗ … ⊗ |ψ_{n-1}⟩`. A [`ProductState`]
//! stores those `n` complex 2-vectors instead of the `2^n` amplitudes of a
//! [`crate::state::StateVector`], and the fidelity of two product states factorises:
//!
//! ```text
//! |⟨φ|ψ⟩|² = Π_q |⟨φ_q|ψ_q⟩|²
//! ```
//!
//! QuClassi's data encodings and its S and D layers are all single-qubit
//! rotations, so every class and data state of a model without an
//! entanglement layer is a product state, and scoring one sample costs
//! `O(n)` instead of `O(2^n)` (or `O(2^(2n+1))` through the SWAP-test
//! circuit).
//!
//! ```
//! use quclassi_sim::circuit::Circuit;
//! use quclassi_sim::product::ProductState;
//!
//! let mut a = Circuit::new(2);
//! a.ry(0, 0.4).rz(0, 1.1).ry(1, 2.0);
//! let mut b = Circuit::new(2);
//! b.ry(0, 0.9).ry(1, 1.7).rz(1, 0.3);
//! let (pa, pb) = (
//!     ProductState::from_circuit(&a, &[]).unwrap().unwrap(),
//!     ProductState::from_circuit(&b, &[]).unwrap().unwrap(),
//! );
//! let exact = a.execute(&[]).unwrap().fidelity(&b.execute(&[]).unwrap()).unwrap();
//! assert!((pa.fidelity(&pb).unwrap() - exact).abs() < 1e-12);
//!
//! // One entangling gate and the circuit has no product form.
//! a.cnot(0, 1);
//! assert!(ProductState::from_circuit(&a, &[]).unwrap().is_none());
//! ```

use crate::circuit::Circuit;
use crate::complex::Complex;
use crate::error::SimError;
use crate::gate::{matrices, Gate};

/// A pure state of `n` unentangled qubits: one normalised complex 2-vector
/// `(⟨0|ψ_q⟩, ⟨1|ψ_q⟩)` per qubit.
#[derive(Clone, Debug, PartialEq)]
pub struct ProductState {
    qubits: Vec<[Complex; 2]>,
}

impl ProductState {
    /// |0…0⟩ on `num_qubits` qubits.
    pub fn zero_state(num_qubits: usize) -> Self {
        ProductState {
            qubits: vec![[Complex::ONE, Complex::ZERO]; num_qubits],
        }
    }

    /// Folds `circuit`, bound to `params`, onto |0…0⟩ one single-qubit gate
    /// at a time. Returns `Ok(None)` when the circuit contains any gate on
    /// two or more qubits: such a circuit may entangle, and has no product
    /// form in general.
    ///
    /// # Errors
    /// Returns an error when a parametric gate's index is out of range of
    /// `params`, or a gate addresses a qubit outside the register.
    pub fn from_circuit(circuit: &Circuit, params: &[f64]) -> Result<Option<Self>, SimError> {
        let mut state = ProductState::zero_state(circuit.num_qubits());
        for op in circuit.operations() {
            let gate = op.bind(params)?;
            match single_qubit_entries(&gate) {
                Some((q, m)) => state.apply_single_qubit(q, &m)?,
                None => return Ok(None),
            }
        }
        Ok(Some(state))
    }

    /// Applies the row-major 2×2 unitary `m` to qubit `q`.
    ///
    /// # Errors
    /// Returns an error when `q` is outside the register.
    pub fn apply_single_qubit(&mut self, q: usize, m: &[Complex; 4]) -> Result<(), SimError> {
        let n = self.qubits.len();
        let [a0, a1] = self.qubits.get_mut(q).ok_or(SimError::QubitOutOfRange {
            qubit: q,
            num_qubits: n,
        })?;
        let (b0, b1) = (m[0] * *a0 + m[1] * *a1, m[2] * *a0 + m[3] * *a1);
        *a0 = b0;
        *a1 = b1;
        Ok(())
    }

    /// `|⟨self|other⟩|² = Π_q |⟨self_q|other_q⟩|²`, multiplied in ascending
    /// qubit order. The order is fixed, so the result is a pure function of
    /// the two states: every caller that scores through this kernel (the
    /// estimator, the trainer, the compiled serving paths) gets the same
    /// bits for the same pair.
    ///
    /// # Errors
    /// Returns an error when the registers differ in width.
    pub fn fidelity(&self, other: &ProductState) -> Result<f64, SimError> {
        if self.qubits.len() != other.qubits.len() {
            return Err(SimError::DimensionMismatch {
                expected: self.qubits.len(),
                found: other.qubits.len(),
            });
        }
        let mut f = 1.0;
        for ([a0, a1], [b0, b1]) in self.qubits.iter().zip(&other.qubits) {
            f *= (a0.conj() * *b0 + a1.conj() * *b1).norm_sqr();
        }
        Ok(f)
    }
}

/// The qubit and row-major 2×2 matrix of a single-qubit gate; `None` for
/// gates on two or more qubits. RY and RZ, the rotations QuClassi's
/// encodings and S/D layers are made of, take their stack-allocated
/// entries directly.
fn single_qubit_entries(gate: &Gate) -> Option<(usize, [Complex; 4])> {
    match *gate {
        Gate::Ry(q, theta) => Some((q, matrices::ry_entries(theta))),
        Gate::Rz(q, theta) => Some((q, matrices::rz_entries(theta))),
        Gate::I(q)
        | Gate::X(q)
        | Gate::Y(q)
        | Gate::Z(q)
        | Gate::H(q)
        | Gate::S(q)
        | Gate::Sdg(q)
        | Gate::T(q)
        | Gate::Tdg(q)
        | Gate::Rx(q, _)
        | Gate::R(q, _, _) => {
            let m = gate.matrix();
            let e = m.as_slice();
            Some((q, [e[0], e[1], e[2], e[3]]))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateVector;

    /// Expands a product into its `2^n` amplitudes (qubit `q` is bit `q`
    /// of the basis index, as in [`StateVector`]).
    fn expand(state: &ProductState) -> StateVector {
        let amplitudes = (0..1usize << state.qubits.len())
            .map(|index| {
                state
                    .qubits
                    .iter()
                    .enumerate()
                    .fold(Complex::ONE, |acc, (q, amp)| acc * amp[(index >> q) & 1])
            })
            .collect();
        StateVector::from_amplitudes(amplitudes).unwrap()
    }

    fn rotations(n: usize, seed: f64) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            let t = seed + 0.37 * q as f64;
            c.h(q).ry(q, t).rz(q, 1.3 - t).rx(q, 0.5 * t);
            c.push(Gate::R(q, t, 0.2)).push(Gate::T(q)).push(Gate::Y(q));
        }
        c
    }

    #[test]
    fn folding_matches_the_statevector_simulator() {
        for n in 1..=5 {
            let circuit = rotations(n, 0.21 * n as f64);
            let product = ProductState::from_circuit(&circuit, &[]).unwrap().unwrap();
            let expanded = expand(&product);
            let simulated = circuit.execute(&[]).unwrap();
            for i in 0..simulated.dim() {
                let (a, b) = (expanded.amplitude(i), simulated.amplitude(i));
                assert!(a.approx_eq(b, 1e-13), "n={n} amplitude {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn fidelity_matches_the_statevector_inner_product() {
        for n in 1..=5 {
            let (a, b) = (rotations(n, 0.3), rotations(n, -1.1));
            let pa = ProductState::from_circuit(&a, &[]).unwrap().unwrap();
            let pb = ProductState::from_circuit(&b, &[]).unwrap().unwrap();
            let exact = a
                .execute(&[])
                .unwrap()
                .fidelity(&b.execute(&[]).unwrap())
                .unwrap();
            let f = pa.fidelity(&pb).unwrap();
            assert!((f - exact).abs() < 1e-13, "n={n}: {f} vs {exact}");
            assert_eq!(f.to_bits(), pb.fidelity(&pa).unwrap().to_bits());
            assert!((pa.fidelity(&pa).unwrap() - 1.0).abs() < 1e-13);
        }
    }

    #[test]
    fn parametric_gates_bind_like_execute() {
        let mut c = Circuit::new(2);
        c.ry_param(0, 1).rz_param(1, 0).ry_param(1, 2);
        let params = [0.7, -1.9, 2.4];
        let product = ProductState::from_circuit(&c, &params).unwrap().unwrap();
        let exact = c.execute(&params).unwrap();
        let direct = expand(&product);
        assert!((direct.fidelity(&exact).unwrap() - 1.0).abs() < 1e-13);
        assert!(ProductState::from_circuit(&c, &[0.1]).is_err());
    }

    #[test]
    fn any_multi_qubit_gate_has_no_product_form() {
        for gate in [
            Gate::Cnot {
                control: 0,
                target: 1,
            },
            Gate::Swap(0, 1),
            Gate::CRy {
                control: 1,
                target: 0,
                theta: 0.0,
            },
            Gate::Rzz(0, 1, 0.3),
        ] {
            let mut c = Circuit::new(2);
            c.ry(0, 0.3).push(gate.clone());
            assert_eq!(
                ProductState::from_circuit(&c, &[]).unwrap(),
                None,
                "{gate:?}"
            );
        }
    }

    #[test]
    fn mismatched_widths_and_qubits_are_errors() {
        let (a, b) = (ProductState::zero_state(2), ProductState::zero_state(3));
        assert!(a.fidelity(&b).is_err());
        let mut c = ProductState::zero_state(1);
        assert!(c.apply_single_qubit(1, &matrices::ry_entries(0.2)).is_err());
        assert_eq!(c, ProductState::zero_state(1));
    }
}
