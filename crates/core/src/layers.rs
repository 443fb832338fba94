//! The three trainable layer families of QuClassi (paper Section 4.3) and
//! the layer stack that composes them into a learned-state circuit.
//!
//! * [`LayerKind::SingleQubitUnitary`] (QC-S) — an RY followed by an RZ on
//!   every qubit, each with its own parameter (Fig. 2).
//! * [`LayerKind::DualQubitUnitary`] (QC-D) — for every adjacent qubit pair,
//!   an equal RY rotation on both qubits followed by an equal RZ rotation on
//!   both qubits; the pair shares the parameters (Fig. 3).
//! * [`LayerKind::Entanglement`] (QC-E) — for every adjacent qubit pair, a
//!   CRY and a CRZ from the lower-indexed qubit onto the higher one,
//!   providing a learnable amount of entanglement (Fig. 4).
//!
//! A [`LayerStack`] is an ordered list of layers on a fixed register width,
//! giving the architectures the paper calls QC-S, QC-D, QC-E, QC-SD and
//! QC-SDE.

use crate::error::QuClassiError;
use quclassi_sim::circuit::Circuit;
use quclassi_sim::gate::Gate;

/// One of the three QuClassi layer families.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayerKind {
    /// QC-S: per-qubit RY + RZ rotations.
    SingleQubitUnitary,
    /// QC-D: per-adjacent-pair shared RY + RZ rotations.
    DualQubitUnitary,
    /// QC-E: per-adjacent-pair CRY + CRZ controlled rotations.
    Entanglement,
}

impl LayerKind {
    /// Short code used in the paper's figures (S, D, E).
    pub fn code(&self) -> char {
        match self {
            LayerKind::SingleQubitUnitary => 'S',
            LayerKind::DualQubitUnitary => 'D',
            LayerKind::Entanglement => 'E',
        }
    }

    /// Number of trainable parameters this layer contributes on a register
    /// of `num_qubits` qubits.
    pub fn parameter_count(&self, num_qubits: usize) -> usize {
        match self {
            LayerKind::SingleQubitUnitary => 2 * num_qubits,
            LayerKind::DualQubitUnitary | LayerKind::Entanglement => {
                2 * num_qubits.saturating_sub(1)
            }
        }
    }

    /// Appends this layer's parametric gates to `circuit`, acting on qubits
    /// `qubit_offset .. qubit_offset + num_qubits`, reading parameters
    /// starting at `param_offset`. Returns the number of parameters consumed.
    pub fn append_to(
        &self,
        circuit: &mut Circuit,
        qubit_offset: usize,
        num_qubits: usize,
        param_offset: usize,
    ) -> usize {
        let mut p = param_offset;
        match self {
            LayerKind::SingleQubitUnitary => {
                for q in 0..num_qubits {
                    circuit.ry_param(qubit_offset + q, p);
                    circuit.rz_param(qubit_offset + q, p + 1);
                    p += 2;
                }
            }
            LayerKind::DualQubitUnitary => {
                for q in 0..num_qubits.saturating_sub(1) {
                    let a = qubit_offset + q;
                    let b = qubit_offset + q + 1;
                    // The same parameter drives the rotation on both qubits.
                    circuit.push_parametric(Gate::Ry(a, 0.0), p);
                    circuit.push_parametric(Gate::Ry(b, 0.0), p);
                    circuit.push_parametric(Gate::Rz(a, 0.0), p + 1);
                    circuit.push_parametric(Gate::Rz(b, 0.0), p + 1);
                    p += 2;
                }
            }
            LayerKind::Entanglement => {
                for q in 0..num_qubits.saturating_sub(1) {
                    let control = qubit_offset + q;
                    let target = qubit_offset + q + 1;
                    circuit.cry_param(control, target, p);
                    circuit.crz_param(control, target, p + 1);
                    p += 2;
                }
            }
        }
        p - param_offset
    }
}

impl LayerKind {
    /// Like [`LayerKind::append_to`] but with the trained parameter values
    /// bound in: the layer's gates are emitted as *fixed* (parameter-free)
    /// gates reading their angles from `params` starting at `param_offset`.
    /// Returns the number of parameter values consumed.
    ///
    /// Serving-time compilation uses this to bake a class's trained state
    /// preparation into a circuit as static instructions (see
    /// `quclassi-infer`).
    ///
    /// # Panics
    /// Panics when `params` holds fewer than `param_offset +
    /// parameter_count(num_qubits)` values. Prefer the validating
    /// [`LayerStack::append_bound_to`], which returns an error instead.
    pub fn append_bound_to(
        &self,
        circuit: &mut Circuit,
        qubit_offset: usize,
        num_qubits: usize,
        params: &[f64],
        param_offset: usize,
    ) -> usize {
        let mut p = param_offset;
        match self {
            LayerKind::SingleQubitUnitary => {
                for q in 0..num_qubits {
                    circuit.ry(qubit_offset + q, params[p]);
                    circuit.rz(qubit_offset + q, params[p + 1]);
                    p += 2;
                }
            }
            LayerKind::DualQubitUnitary => {
                for q in 0..num_qubits.saturating_sub(1) {
                    let a = qubit_offset + q;
                    let b = qubit_offset + q + 1;
                    circuit.ry(a, params[p]);
                    circuit.ry(b, params[p]);
                    circuit.rz(a, params[p + 1]);
                    circuit.rz(b, params[p + 1]);
                    p += 2;
                }
            }
            LayerKind::Entanglement => {
                for q in 0..num_qubits.saturating_sub(1) {
                    let control = qubit_offset + q;
                    let target = qubit_offset + q + 1;
                    circuit.push(Gate::CRy {
                        control,
                        target,
                        theta: params[p],
                    });
                    circuit.push(Gate::CRz {
                        control,
                        target,
                        theta: params[p + 1],
                    });
                    p += 2;
                }
            }
        }
        p - param_offset
    }
}

/// An ordered stack of layers acting on a fixed-width learned-state register.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerStack {
    layers: Vec<LayerKind>,
    num_qubits: usize,
}

impl LayerStack {
    /// Creates a stack of `layers` on `num_qubits` qubits.
    ///
    /// # Errors
    /// Returns an error when the layer list is empty or the register is
    /// zero-width.
    pub fn new(layers: Vec<LayerKind>, num_qubits: usize) -> Result<Self, QuClassiError> {
        if layers.is_empty() {
            return Err(QuClassiError::InvalidConfig(
                "a QuClassi model needs at least one layer".to_string(),
            ));
        }
        if num_qubits == 0 {
            return Err(QuClassiError::InvalidConfig(
                "the learned state needs at least one qubit".to_string(),
            ));
        }
        Ok(LayerStack { layers, num_qubits })
    }

    /// The QC-S architecture: a single [`LayerKind::SingleQubitUnitary`] layer.
    pub fn qc_s(num_qubits: usize) -> Result<Self, QuClassiError> {
        LayerStack::new(vec![LayerKind::SingleQubitUnitary], num_qubits)
    }

    /// The QC-D architecture: a single dual-qubit layer.
    pub fn qc_d(num_qubits: usize) -> Result<Self, QuClassiError> {
        LayerStack::new(vec![LayerKind::DualQubitUnitary], num_qubits)
    }

    /// The QC-E architecture: a single entanglement layer.
    pub fn qc_e(num_qubits: usize) -> Result<Self, QuClassiError> {
        LayerStack::new(vec![LayerKind::Entanglement], num_qubits)
    }

    /// The QC-SD architecture: single-qubit + dual-qubit layers.
    pub fn qc_sd(num_qubits: usize) -> Result<Self, QuClassiError> {
        LayerStack::new(
            vec![LayerKind::SingleQubitUnitary, LayerKind::DualQubitUnitary],
            num_qubits,
        )
    }

    /// The QC-SDE architecture: single + dual + entanglement layers.
    pub fn qc_sde(num_qubits: usize) -> Result<Self, QuClassiError> {
        LayerStack::new(
            vec![
                LayerKind::SingleQubitUnitary,
                LayerKind::DualQubitUnitary,
                LayerKind::Entanglement,
            ],
            num_qubits,
        )
    }

    /// The layers in order.
    pub fn layers(&self) -> &[LayerKind] {
        &self.layers
    }

    /// Width of the learned-state register.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Total number of trainable parameters of the stack.
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.parameter_count(self.num_qubits))
            .sum()
    }

    /// Whether the stack prepares a product state: true when it has no
    /// [`LayerKind::Entanglement`] layer. S and D layers are single-qubit
    /// rotations, so a separable stack's class state, like every encoded
    /// data state, factorises qubit by qubit and its fidelities can be
    /// scored through [`quclassi_sim::product::ProductState`].
    pub fn is_separable(&self) -> bool {
        !self.layers.contains(&LayerKind::Entanglement)
    }

    /// Architecture name in the paper's notation ("QC-S", "QC-SDE", …).
    pub fn architecture_name(&self) -> String {
        let mut name = String::from("QC-");
        for l in &self.layers {
            name.push(l.code());
        }
        name
    }

    /// Builds a stand-alone parametric circuit on `num_qubits` qubits that
    /// prepares the learned state from |0…0⟩.
    pub fn build_circuit(&self) -> Circuit {
        let mut c = Circuit::new(self.num_qubits);
        self.append_to(&mut c, 0, 0);
        c
    }

    /// Appends the stack's parametric gates to an existing (wider) circuit
    /// with the learned-state register starting at `qubit_offset` and
    /// parameters starting at `param_offset`. Returns the number of
    /// parameters consumed.
    pub fn append_to(
        &self,
        circuit: &mut Circuit,
        qubit_offset: usize,
        param_offset: usize,
    ) -> usize {
        let mut consumed = 0;
        for layer in &self.layers {
            consumed += layer.append_to(
                circuit,
                qubit_offset,
                self.num_qubits,
                param_offset + consumed,
            );
        }
        consumed
    }

    /// Appends the stack's gates with `params` bound in as fixed angles, in
    /// exactly the gate order of [`LayerStack::append_to`]. Serving-time
    /// compilation uses this to make a trained class state parameter-free.
    ///
    /// # Errors
    /// Returns an error when `params` does not match
    /// [`LayerStack::parameter_count`].
    pub fn append_bound_to(
        &self,
        circuit: &mut Circuit,
        qubit_offset: usize,
        params: &[f64],
    ) -> Result<(), QuClassiError> {
        if params.len() != self.parameter_count() {
            return Err(QuClassiError::InvalidConfig(format!(
                "expected {} parameters, got {}",
                self.parameter_count(),
                params.len()
            )));
        }
        let mut consumed = 0;
        for layer in &self.layers {
            consumed +=
                layer.append_bound_to(circuit, qubit_offset, self.num_qubits, params, consumed);
        }
        debug_assert_eq!(consumed, self.parameter_count());
        Ok(())
    }

    /// Builds the parameter-free circuit preparing the trained state
    /// `|ω(params)⟩` from |0…0⟩ — [`LayerStack::build_circuit`] with the
    /// parameters already bound.
    pub fn build_bound_circuit(&self, params: &[f64]) -> Result<Circuit, QuClassiError> {
        let mut c = Circuit::new(self.num_qubits);
        self.append_bound_to(&mut c, 0, params)?;
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_counts_match_paper() {
        // Iris: 4 features, dual-angle encoding → 2 learned-state qubits.
        // QC-S has 2·2 = 4 parameters per class; 3 classes → 12 parameters,
        // matching the "12 parameters" network in Section 5.2.
        assert_eq!(LayerStack::qc_s(2).unwrap().parameter_count(), 4);
        // MNIST: 16 features → 8 qubits; QC-S has 16 parameters per class;
        // 2 classes → 32 trainable parameters as stated in Section 5.3.1.
        assert_eq!(LayerStack::qc_s(8).unwrap().parameter_count(), 16);
    }

    #[test]
    fn layer_parameter_counts() {
        assert_eq!(LayerKind::SingleQubitUnitary.parameter_count(4), 8);
        assert_eq!(LayerKind::DualQubitUnitary.parameter_count(4), 6);
        assert_eq!(LayerKind::Entanglement.parameter_count(4), 6);
        assert_eq!(LayerKind::Entanglement.parameter_count(1), 0);
    }

    #[test]
    fn stack_names() {
        assert_eq!(LayerStack::qc_s(2).unwrap().architecture_name(), "QC-S");
        assert_eq!(LayerStack::qc_sd(2).unwrap().architecture_name(), "QC-SD");
        assert_eq!(LayerStack::qc_sde(2).unwrap().architecture_name(), "QC-SDE");
        assert_eq!(LayerStack::qc_d(2).unwrap().architecture_name(), "QC-D");
        assert_eq!(LayerStack::qc_e(2).unwrap().architecture_name(), "QC-E");
    }

    #[test]
    fn only_entanglement_layers_break_separability() {
        assert!(LayerStack::qc_s(3).unwrap().is_separable());
        assert!(LayerStack::qc_d(3).unwrap().is_separable());
        assert!(LayerStack::qc_sd(3).unwrap().is_separable());
        assert!(!LayerStack::qc_e(3).unwrap().is_separable());
        assert!(!LayerStack::qc_sde(3).unwrap().is_separable());
        // The flag agrees with the circuit the stack emits.
        for stack in [
            LayerStack::qc_sd(3).unwrap(),
            LayerStack::qc_sde(3).unwrap(),
        ] {
            assert_eq!(
                stack.is_separable(),
                stack.build_circuit().multi_qubit_gate_count() == 0
            );
        }
    }

    #[test]
    fn invalid_configurations_rejected() {
        assert!(LayerStack::new(vec![], 2).is_err());
        assert!(LayerStack::new(vec![LayerKind::SingleQubitUnitary], 0).is_err());
    }

    #[test]
    fn built_circuit_has_expected_parameter_count() {
        let stack = LayerStack::qc_sde(3).unwrap();
        let circuit = stack.build_circuit();
        assert_eq!(circuit.num_parameters(), stack.parameter_count());
        assert_eq!(circuit.num_qubits(), 3);
    }

    #[test]
    fn single_layer_produces_expected_state() {
        // RY(π) on each qubit flips it to |1…1⟩ when RZ angles are zero.
        let stack = LayerStack::qc_s(2).unwrap();
        let circuit = stack.build_circuit();
        let params = vec![std::f64::consts::PI, 0.0, std::f64::consts::PI, 0.0];
        let sv = circuit.execute(&params).unwrap();
        assert!((sv.probabilities()[3] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn dual_layer_shares_parameters_between_pair() {
        let stack = LayerStack::qc_d(2).unwrap();
        assert_eq!(stack.parameter_count(), 2);
        let circuit = stack.build_circuit();
        // Both qubits get RY(θ0): with θ0 = π both flip.
        let sv = circuit.execute(&[std::f64::consts::PI, 0.0]).unwrap();
        assert!((sv.probabilities()[3] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn entanglement_layer_creates_entanglement() {
        // Put the control qubit in superposition first, then a CRY(π) should
        // correlate the qubits.
        let mut circuit = Circuit::new(2);
        circuit.h(0);
        let stack = LayerStack::qc_e(2).unwrap();
        stack.append_to(&mut circuit, 0, 0);
        let sv = circuit.execute(&[std::f64::consts::PI, 0.0]).unwrap();
        let p = sv.probabilities();
        // Expect weight on |00⟩ and |11⟩ only.
        assert!((p[0] - 0.5).abs() < 1e-10);
        assert!((p[3] - 0.5).abs() < 1e-10);
        assert!(p[1] < 1e-10 && p[2] < 1e-10);
    }

    #[test]
    fn bound_stack_matches_parametric_execution_bit_for_bit() {
        // Binding angles at build time and binding them at execute time must
        // walk the same gates in the same order: the final amplitudes agree
        // to the last bit for every architecture.
        for stack in [
            LayerStack::qc_s(3).unwrap(),
            LayerStack::qc_d(3).unwrap(),
            LayerStack::qc_e(3).unwrap(),
            LayerStack::qc_sde(3).unwrap(),
        ] {
            let params: Vec<f64> = (0..stack.parameter_count())
                .map(|i| 0.21 + 0.37 * i as f64)
                .collect();
            let parametric = stack.build_circuit().execute(&params).unwrap();
            let bound_circuit = stack.build_bound_circuit(&params).unwrap();
            assert_eq!(bound_circuit.num_parameters(), 0);
            let bound = bound_circuit.execute(&[]).unwrap();
            assert_eq!(parametric, bound, "{}", stack.architecture_name());
        }
    }

    #[test]
    fn bound_stack_validates_parameter_count() {
        let stack = LayerStack::qc_s(2).unwrap();
        assert!(stack.build_bound_circuit(&[0.1]).is_err());
        let mut c = Circuit::new(2);
        assert!(stack.append_bound_to(&mut c, 0, &[0.1, 0.2, 0.3]).is_err());
    }

    #[test]
    fn append_to_respects_offsets() {
        let stack = LayerStack::qc_s(2).unwrap();
        let mut circuit = Circuit::new(5);
        let consumed = stack.append_to(&mut circuit, 3, 7);
        assert_eq!(consumed, 4);
        // Parameters 7..=10 must now be referenced.
        assert_eq!(circuit.num_parameters(), 11);
        // All gates act on qubits 3 and 4.
        for op in circuit.operations() {
            for q in op.qubits() {
                assert!(q == 3 || q == 4);
            }
        }
    }

    #[test]
    fn stacked_layers_consume_sequential_parameters() {
        let stack = LayerStack::qc_sde(3).unwrap();
        // QC-S: 6, QC-D: 4, QC-E: 4 → 14 parameters.
        assert_eq!(stack.parameter_count(), 14);
        let circuit = stack.build_circuit();
        assert_eq!(circuit.num_parameters(), 14);
    }
}
