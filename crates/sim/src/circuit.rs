//! Parameterised quantum circuits.
//!
//! A [`Circuit`] is an ordered list of operations on a fixed-width register.
//! Operations are either fully-specified [`Gate`]s or *parametric* gates whose
//! rotation angle is looked up in a parameter vector at bind time. This is the
//! representation QuClassi trains: the learned state is a parametric circuit,
//! the data-encoding prefix is a fixed circuit, and the parameter-shift rule
//! repeatedly re-binds the same circuit with nudged parameter values.

use crate::error::SimError;
use crate::gate::Gate;
use crate::state::StateVector;

/// One entry in a circuit: either a concrete gate or a gate whose angle is a
/// symbolic parameter.
#[derive(Clone, Debug, PartialEq)]
pub enum Operation {
    /// A fully specified gate.
    Fixed(Gate),
    /// A gate whose rotation angle is `scale * params[index] + offset`.
    Parametric {
        /// The gate template (its stored angle is ignored).
        template: Gate,
        /// Index into the parameter vector.
        index: usize,
        /// Multiplicative factor applied to the bound value.
        scale: f64,
        /// Additive offset applied after scaling.
        offset: f64,
    },
}

impl Operation {
    /// The qubits touched by this operation.
    pub fn qubits(&self) -> Vec<usize> {
        match self {
            Operation::Fixed(g) => g.qubits(),
            Operation::Parametric { template, .. } => template.qubits(),
        }
    }

    /// Resolves the operation to a concrete gate given a parameter vector.
    pub fn bind(&self, params: &[f64]) -> Result<Gate, SimError> {
        match self {
            Operation::Fixed(g) => Ok(g.clone()),
            Operation::Parametric {
                template,
                index,
                scale,
                offset,
            } => {
                let value = params.get(*index).ok_or(SimError::UnboundParameter {
                    index: *index,
                    provided: params.len(),
                })?;
                Ok(template.with_angle(scale * value + offset))
            }
        }
    }
}

/// An ordered sequence of operations on `num_qubits` qubits.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Circuit {
    num_qubits: usize,
    ops: Vec<Operation>,
}

impl Circuit {
    /// Creates an empty circuit on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            ops: Vec::new(),
        }
    }

    /// Number of qubits in the register.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The operations in program order.
    pub fn operations(&self) -> &[Operation] {
        &self.ops
    }

    /// Number of operations (fixed + parametric).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the circuit contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of symbolic parameters referenced (max index + 1).
    pub fn num_parameters(&self) -> usize {
        self.ops
            .iter()
            .filter_map(|op| match op {
                Operation::Parametric { index, .. } => Some(index + 1),
                Operation::Fixed(_) => None,
            })
            .max()
            .unwrap_or(0)
    }

    fn validate_gate(&self, gate: &Gate) {
        for q in gate.qubits() {
            assert!(
                q < self.num_qubits,
                "gate {} uses qubit {} but the circuit has {} qubits",
                gate.name(),
                q,
                self.num_qubits
            );
        }
    }

    /// Appends a concrete gate.
    pub fn push(&mut self, gate: Gate) -> &mut Self {
        self.validate_gate(&gate);
        self.ops.push(Operation::Fixed(gate));
        self
    }

    /// Appends a parametric gate whose angle is `params[index]`.
    pub fn push_parametric(&mut self, template: Gate, index: usize) -> &mut Self {
        self.push_parametric_affine(template, index, 1.0, 0.0)
    }

    /// Appends a parametric gate whose angle is `scale * params[index] + offset`.
    pub fn push_parametric_affine(
        &mut self,
        template: Gate,
        index: usize,
        scale: f64,
        offset: f64,
    ) -> &mut Self {
        self.validate_gate(&template);
        assert!(
            template.angle().is_some(),
            "gate {} takes no angle and cannot be parametric",
            template.name()
        );
        self.ops.push(Operation::Parametric {
            template,
            index,
            scale,
            offset,
        });
        self
    }

    /// Appends all operations of another circuit (register widths must match).
    pub fn extend(&mut self, other: &Circuit) -> &mut Self {
        assert_eq!(
            self.num_qubits, other.num_qubits,
            "cannot extend a {}-qubit circuit with a {}-qubit circuit",
            self.num_qubits, other.num_qubits
        );
        self.ops.extend(other.ops.iter().cloned());
        self
    }

    // Convenience builders -------------------------------------------------

    /// Hadamard on `q`.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Gate::H(q))
    }

    /// Pauli-X on `q`.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Gate::X(q))
    }

    /// Fixed-angle RY.
    pub fn ry(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Ry(q, theta))
    }

    /// Fixed-angle RZ.
    pub fn rz(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rz(q, theta))
    }

    /// Fixed-angle RX.
    pub fn rx(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rx(q, theta))
    }

    /// Parametric RY reading `params[index]`.
    pub fn ry_param(&mut self, q: usize, index: usize) -> &mut Self {
        self.push_parametric(Gate::Ry(q, 0.0), index)
    }

    /// Parametric RZ reading `params[index]`.
    pub fn rz_param(&mut self, q: usize, index: usize) -> &mut Self {
        self.push_parametric(Gate::Rz(q, 0.0), index)
    }

    /// CNOT gate.
    pub fn cnot(&mut self, control: usize, target: usize) -> &mut Self {
        self.push(Gate::Cnot { control, target })
    }

    /// Controlled-SWAP gate.
    pub fn cswap(&mut self, control: usize, a: usize, b: usize) -> &mut Self {
        self.push(Gate::CSwap { control, a, b })
    }

    /// Parametric controlled-RY reading `params[index]`.
    pub fn cry_param(&mut self, control: usize, target: usize, index: usize) -> &mut Self {
        self.push_parametric(
            Gate::CRy {
                control,
                target,
                theta: 0.0,
            },
            index,
        )
    }

    /// Parametric controlled-RZ reading `params[index]`.
    pub fn crz_param(&mut self, control: usize, target: usize, index: usize) -> &mut Self {
        self.push_parametric(
            Gate::CRz {
                control,
                target,
                theta: 0.0,
            },
            index,
        )
    }

    // Binding and execution -------------------------------------------------

    /// Resolves every operation to a concrete gate.
    pub fn bind(&self, params: &[f64]) -> Result<Vec<Gate>, SimError> {
        self.ops.iter().map(|op| op.bind(params)).collect()
    }

    /// Runs the circuit on |0…0⟩ with the given parameters and returns the
    /// final state.
    pub fn execute(&self, params: &[f64]) -> Result<StateVector, SimError> {
        let mut sv = StateVector::zero_state(self.num_qubits);
        self.execute_into(&mut sv, params)?;
        Ok(sv)
    }

    /// Applies the circuit to an existing state in place.
    pub fn execute_into(&self, state: &mut StateVector, params: &[f64]) -> Result<(), SimError> {
        if state.num_qubits() != self.num_qubits {
            return Err(SimError::DimensionMismatch {
                expected: self.num_qubits,
                found: state.num_qubits(),
            });
        }
        for op in &self.ops {
            let gate = op.bind(params)?;
            state.apply_gate(&gate)?;
        }
        Ok(())
    }

    // Introspection ----------------------------------------------------------

    /// Total gate count.
    pub fn gate_count(&self) -> usize {
        self.ops.len()
    }

    /// Number of operations acting on two or more qubits.
    pub fn multi_qubit_gate_count(&self) -> usize {
        self.ops.iter().filter(|op| op.qubits().len() >= 2).count()
    }

    /// Circuit depth: the length of the longest chain of operations that
    /// share qubits (greedy as-soon-as-possible scheduling).
    pub fn depth(&self) -> usize {
        let mut qubit_depth = vec![0usize; self.num_qubits];
        let mut max_depth = 0;
        for op in &self.ops {
            let qs = op.qubits();
            let layer = qs.iter().map(|&q| qubit_depth[q]).max().unwrap_or(0) + 1;
            for q in qs {
                qubit_depth[q] = layer;
            }
            max_depth = max_depth.max(layer);
        }
        max_depth
    }

    /// A compact one-line-per-operation textual rendering of the circuit,
    /// in the style of an OpenQASM body. Parametric angles are shown as
    /// `θ[i]`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            match op {
                Operation::Fixed(g) => {
                    let qs: Vec<String> = g.qubits().iter().map(|q| format!("q[{q}]")).collect();
                    match g.angle() {
                        Some(a) => {
                            out.push_str(&format!("{}({:.6}) {};\n", g.name(), a, qs.join(", ")))
                        }
                        None => out.push_str(&format!("{} {};\n", g.name(), qs.join(", "))),
                    }
                }
                Operation::Parametric {
                    template,
                    index,
                    scale,
                    offset,
                } => {
                    let qs: Vec<String> = template
                        .qubits()
                        .iter()
                        .map(|q| format!("q[{q}]"))
                        .collect();
                    let expr = if (*scale - 1.0).abs() < f64::EPSILON && offset.abs() < f64::EPSILON
                    {
                        format!("θ[{index}]")
                    } else {
                        format!("{scale:.3}*θ[{index}]+{offset:.3}")
                    };
                    out.push_str(&format!(
                        "{}({}) {};\n",
                        template.name(),
                        expr,
                        qs.join(", ")
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_execute_fixed_circuit() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        let sv = c.execute(&[]).unwrap();
        let p = sv.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-10);
        assert!((p[3] - 0.5).abs() < 1e-10);
    }

    #[test]
    fn parametric_binding() {
        let mut c = Circuit::new(1);
        c.ry_param(0, 0);
        let sv = c.execute(&[std::f64::consts::PI]).unwrap();
        assert!((sv.probability_of_one(0).unwrap() - 1.0).abs() < 1e-10);
        // Missing parameter is an error.
        assert!(matches!(
            c.execute(&[]),
            Err(SimError::UnboundParameter { .. })
        ));
    }

    #[test]
    fn affine_parameter_scaling() {
        let mut c = Circuit::new(1);
        // angle = 2 * θ[0] + π/2
        c.push_parametric_affine(Gate::Ry(0, 0.0), 0, 2.0, std::f64::consts::FRAC_PI_2);
        let gates = c.bind(&[0.25]).unwrap();
        assert!((gates[0].angle().unwrap() - (0.5 + std::f64::consts::FRAC_PI_2)).abs() < 1e-12);
    }

    #[test]
    fn num_parameters_counts_max_index() {
        let mut c = Circuit::new(3);
        c.ry_param(0, 0).rz_param(1, 4).cry_param(0, 2, 2);
        assert_eq!(c.num_parameters(), 5);
        assert_eq!(Circuit::new(1).num_parameters(), 0);
    }

    #[test]
    #[should_panic(expected = "uses qubit")]
    fn out_of_range_qubit_panics_at_build_time() {
        let mut c = Circuit::new(2);
        c.h(2);
    }

    #[test]
    #[should_panic(expected = "takes no angle")]
    fn non_rotational_gate_cannot_be_parametric() {
        let mut c = Circuit::new(2);
        c.push_parametric(Gate::H(0), 0);
    }

    #[test]
    fn depth_and_counts() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2); // depth 1
        c.cnot(0, 1); // depth 2
        c.cnot(1, 2); // depth 3
        c.rz(0, 0.1); // depth 2 on qubit 0 -> overall 3
        assert_eq!(c.depth(), 3);
        assert_eq!(c.gate_count(), 6);
        assert_eq!(c.multi_qubit_gate_count(), 2);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cnot(0, 1);
        a.extend(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot extend")]
    fn extend_requires_matching_width() {
        let mut a = Circuit::new(2);
        let b = Circuit::new(3);
        a.extend(&b);
    }

    #[test]
    fn execute_into_checks_width() {
        let c = Circuit::new(2);
        let mut sv = StateVector::zero_state(3);
        assert!(matches!(
            c.execute_into(&mut sv, &[]),
            Err(SimError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn text_rendering_mentions_parameters_and_angles() {
        let mut c = Circuit::new(2);
        c.h(0).ry(1, 0.5).ry_param(0, 3);
        let text = c.to_text();
        assert!(text.contains("h q[0];"));
        assert!(text.contains("ry(0.500000) q[1];"));
        assert!(text.contains("θ[3]"));
    }
}
