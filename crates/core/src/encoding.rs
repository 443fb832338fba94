//! Data qubitization: translating classical feature vectors into quantum
//! states (paper Section 4.2).
//!
//! Each feature is first normalised to `[0, 1]` (done upstream, validated
//! here). A feature value `x` is mapped to a rotation angle
//! `θ = 2·asin(√x)` so that the *expectation* of the qubit measured along
//! the Z axis equals `x`.
//!
//! Two strategies are supported:
//!
//! * [`EncodingStrategy::DualAngle`] — the paper's default: two features per
//!   qubit, the first through an `RY` rotation, the second through an `RZ`
//!   rotation on the same qubit (Eq. 12). Halves the qubit count.
//! * [`EncodingStrategy::SingleAngle`] — one feature per qubit through an
//!   `RY` only, the ablation mentioned in Section 4.2.

use crate::error::QuClassiError;
use quclassi_sim::circuit::Circuit;
use quclassi_sim::gate::{matrices, Gate};
use quclassi_sim::product::ProductState;
use quclassi_sim::state::StateVector;

/// How classical features are packed onto qubits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EncodingStrategy {
    /// Two features per qubit: RY for even-indexed features, RZ for odd.
    DualAngle,
    /// One feature per qubit, RY only.
    SingleAngle,
}

/// Converts a normalised feature value in [0, 1] to its rotation angle
/// `2·asin(√x)`.
pub fn feature_to_angle(x: f64) -> f64 {
    2.0 * x.clamp(0.0, 1.0).sqrt().asin()
}

/// Inverse of [`feature_to_angle`]: recovers the feature from the angle.
pub fn angle_to_feature(theta: f64) -> f64 {
    let s = (theta / 2.0).sin();
    s * s
}

/// A configured encoder for feature vectors of a fixed dimension.
#[derive(Clone, Debug, PartialEq)]
pub struct DataEncoder {
    strategy: EncodingStrategy,
    dim: usize,
}

impl DataEncoder {
    /// Creates an encoder for `dim`-dimensional data.
    ///
    /// # Errors
    /// Returns an error when `dim` is zero.
    pub fn new(strategy: EncodingStrategy, dim: usize) -> Result<Self, QuClassiError> {
        if dim == 0 {
            return Err(QuClassiError::InvalidConfig(
                "data dimension must be at least 1".to_string(),
            ));
        }
        Ok(DataEncoder { strategy, dim })
    }

    /// The expected feature-vector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The configured strategy.
    pub fn strategy(&self) -> EncodingStrategy {
        self.strategy
    }

    /// Number of qubits needed to encode one data point.
    pub fn num_qubits(&self) -> usize {
        match self.strategy {
            EncodingStrategy::DualAngle => self.dim.div_ceil(2),
            EncodingStrategy::SingleAngle => self.dim,
        }
    }

    /// Validates a feature vector: correct dimension, finite, within [0, 1].
    pub fn validate(&self, x: &[f64]) -> Result<(), QuClassiError> {
        if x.len() != self.dim {
            return Err(QuClassiError::InvalidData(format!(
                "expected {} features, got {}",
                self.dim,
                x.len()
            )));
        }
        for (i, &v) in x.iter().enumerate() {
            if !v.is_finite() {
                return Err(QuClassiError::InvalidData(format!(
                    "feature {i} is not finite ({v})"
                )));
            }
            if !(0.0..=1.0).contains(&v) {
                return Err(QuClassiError::InvalidData(format!(
                    "feature {i} = {v} is outside the normalised range [0, 1]"
                )));
            }
        }
        Ok(())
    }

    /// The encoding gates for one data point, acting on qubits
    /// `qubit_offset .. qubit_offset + num_qubits()`.
    pub fn encoding_gates(
        &self,
        x: &[f64],
        qubit_offset: usize,
    ) -> Result<Vec<Gate>, QuClassiError> {
        self.validate(x)?;
        let mut gates = Vec::new();
        match self.strategy {
            EncodingStrategy::DualAngle => {
                for (i, &v) in x.iter().enumerate() {
                    let qubit = qubit_offset + i / 2;
                    let theta = feature_to_angle(v);
                    if i % 2 == 0 {
                        gates.push(Gate::Ry(qubit, theta));
                    } else {
                        gates.push(Gate::Rz(qubit, theta));
                    }
                }
            }
            EncodingStrategy::SingleAngle => {
                for (i, &v) in x.iter().enumerate() {
                    gates.push(Gate::Ry(qubit_offset + i, feature_to_angle(v)));
                }
            }
        }
        Ok(gates)
    }

    /// The rotation angles the encoder applies for `x`, in gate order (one
    /// angle per feature, `θᵢ = 2·asin(√xᵢ)`). This is the *encoding
    /// fingerprint* of a sample: two inputs with equal angle vectors are
    /// indistinguishable to every downstream circuit, which is what the
    /// serving-side result cache keys on.
    pub fn encoding_angles(&self, x: &[f64]) -> Result<Vec<f64>, QuClassiError> {
        self.validate(x)?;
        Ok(x.iter().map(|&v| feature_to_angle(v)).collect())
    }

    /// Number of rotation angles [`DataEncoder::encoding_angles`] produces:
    /// one per feature, for both strategies.
    pub fn num_angles(&self) -> usize {
        self.dim
    }

    /// Validates a *precomputed* angle vector (count and finiteness) without
    /// touching a state. A batched evaluation runs it on every angle vector
    /// before binding any of them, so a malformed entry rejects the call
    /// instead of poisoning the batch.
    pub fn validate_angles(&self, angles: &[f64]) -> Result<(), QuClassiError> {
        if angles.len() != self.dim {
            return Err(QuClassiError::InvalidData(format!(
                "expected {} encoding angles, got {}",
                self.dim,
                angles.len()
            )));
        }
        for (i, &theta) in angles.iter().enumerate() {
            if !theta.is_finite() {
                return Err(QuClassiError::InvalidData(format!(
                    "encoding angle {i} is not finite ({theta})"
                )));
            }
        }
        Ok(())
    }

    /// Appends this encoder's gates as *parametric* operations reading
    /// symbolic parameters `param_offset ..` (one per feature, in
    /// [`DataEncoder::encoding_angles`] order) and acting on qubits
    /// `qubit_offset ..`. Returns the number of parameters consumed.
    ///
    /// Binding the angles of a sample into the resulting circuit reproduces
    /// [`DataEncoder::encoding_gates`] for that sample exactly — this is how
    /// a compiled model swaps samples in and out of one precompiled
    /// SWAP-test circuit without rebuilding it.
    pub fn append_parametric_to(
        &self,
        circuit: &mut Circuit,
        qubit_offset: usize,
        param_offset: usize,
    ) -> usize {
        match self.strategy {
            EncodingStrategy::DualAngle => {
                for i in 0..self.dim {
                    let qubit = qubit_offset + i / 2;
                    if i % 2 == 0 {
                        circuit.push_parametric(Gate::Ry(qubit, 0.0), param_offset + i);
                    } else {
                        circuit.push_parametric(Gate::Rz(qubit, 0.0), param_offset + i);
                    }
                }
            }
            EncodingStrategy::SingleAngle => {
                for i in 0..self.dim {
                    circuit.push_parametric(Gate::Ry(qubit_offset + i, 0.0), param_offset + i);
                }
            }
        }
        self.dim
    }

    /// Builds a stand-alone circuit (width = `num_qubits()`) that prepares
    /// the encoded state from |0…0⟩.
    pub fn encoding_circuit(&self, x: &[f64]) -> Result<Circuit, QuClassiError> {
        let mut c = Circuit::new(self.num_qubits());
        for g in self.encoding_gates(x, 0)? {
            c.push(g);
        }
        Ok(c)
    }

    /// Directly prepares the encoded state |φ_x⟩ (used by the analytic
    /// fidelity path).
    pub fn encode_state(&self, x: &[f64]) -> Result<StateVector, QuClassiError> {
        let circuit = self.encoding_circuit(x)?;
        Ok(circuit.execute(&[])?)
    }

    /// The encoding gates for precomputed angles (the output of
    /// [`DataEncoder::encoding_angles`]): identical to
    /// [`DataEncoder::encoding_gates`] on the sample the angles came from.
    ///
    /// # Errors
    /// Returns an error when the angle count does not match the feature
    /// dimension.
    pub fn encoding_gates_from_angles(
        &self,
        angles: &[f64],
        qubit_offset: usize,
    ) -> Result<Vec<Gate>, QuClassiError> {
        if angles.len() != self.dim {
            return Err(QuClassiError::InvalidData(format!(
                "expected {} encoding angles, got {}",
                self.dim,
                angles.len()
            )));
        }
        let mut gates = Vec::with_capacity(self.dim);
        match self.strategy {
            EncodingStrategy::DualAngle => {
                for (i, &theta) in angles.iter().enumerate() {
                    let qubit = qubit_offset + i / 2;
                    if i % 2 == 0 {
                        gates.push(Gate::Ry(qubit, theta));
                    } else {
                        gates.push(Gate::Rz(qubit, theta));
                    }
                }
            }
            EncodingStrategy::SingleAngle => {
                for (i, &theta) in angles.iter().enumerate() {
                    gates.push(Gate::Ry(qubit_offset + i, theta));
                }
            }
        }
        Ok(gates)
    }

    /// Prepares |φ_x⟩ from precomputed encoding angles through the
    /// product-state fast path: both strategies emit their rotations in
    /// ascending qubit order, so each gate sweeps only the already-active
    /// prefix of the register (qubits above it are still |0⟩) via
    /// [`StateVector::apply_single_qubit_matrix_active`].
    ///
    /// The arithmetic applied to every active amplitude is identical to
    /// [`DataEncoder::encode_state`]'s full-register sweeps, so all nonzero
    /// amplitudes — and every fidelity computed from them — are
    /// bit-identical to the slow path. This is the per-sample hot path of
    /// the compiled inference engine (`quclassi-infer`).
    pub fn encode_state_from_angles(&self, angles: &[f64]) -> Result<StateVector, QuClassiError> {
        let mut sv = StateVector::zero_state(self.num_qubits());
        self.encode_state_from_angles_into(angles, &mut sv)?;
        Ok(sv)
    }

    /// [`DataEncoder::encode_state_from_angles`] into a caller-owned
    /// register: resets `state` to |0…0⟩ in place and applies the rotations
    /// through stack-allocated gate entries
    /// ([`matrices::ry_entries`]/[`matrices::rz_entries`]), so a steady-state
    /// encode loop performs **zero heap allocations** — no gate list, no
    /// matrices, no fresh statevector. Produces bit-identical amplitudes to
    /// the allocating form (both consume the same entry arrays).
    ///
    /// # Errors
    /// Returns an error when the angle count does not match the feature
    /// dimension or `state` is not on this encoder's register width.
    pub fn encode_state_from_angles_into(
        &self,
        angles: &[f64],
        state: &mut StateVector,
    ) -> Result<(), QuClassiError> {
        if angles.len() != self.dim {
            return Err(QuClassiError::InvalidData(format!(
                "expected {} encoding angles, got {}",
                self.dim,
                angles.len()
            )));
        }
        if state.num_qubits() != self.num_qubits() {
            return Err(QuClassiError::InvalidData(format!(
                "state has {} qubits but the encoder expects {}",
                state.num_qubits(),
                self.num_qubits()
            )));
        }
        state.reset_zero();
        // Both strategies emit rotations in ascending qubit order, so each
        // RY meets its qubit *fresh* (|0⟩, partner amplitudes exactly zero)
        // and each RZ is diagonal on the active prefix — the two shapes the
        // specialised statevector kernels cover at a fraction of the dense
        // butterfly's arithmetic, bit-identically on nonzero amplitudes.
        match self.strategy {
            EncodingStrategy::DualAngle => {
                for (i, &theta) in angles.iter().enumerate() {
                    if i % 2 == 0 {
                        state.apply_fresh_2x2(i / 2, &matrices::ry_entries(theta))?;
                    } else {
                        let d = matrices::rz_entries(theta);
                        state.apply_active_diag(i / 2, d[0], d[3])?;
                    }
                }
            }
            EncodingStrategy::SingleAngle => {
                for (i, &theta) in angles.iter().enumerate() {
                    state.apply_fresh_2x2(i, &matrices::ry_entries(theta))?;
                }
            }
        }
        Ok(())
    }

    /// Prepares |φ_x⟩ as a [`ProductState`]: every encoding is a product of
    /// single-qubit rotations on |0…0⟩, applied here in
    /// [`DataEncoder::encoding_gates`] order. This is the data side of
    /// every product-state fidelity (see `FidelityEstimator`).
    ///
    /// # Errors
    /// Returns an error when `x` fails [`DataEncoder::validate`].
    pub fn encode_product_state(&self, x: &[f64]) -> Result<ProductState, QuClassiError> {
        self.encode_product_state_from_angles(&self.encoding_angles(x)?)
    }

    /// [`DataEncoder::encode_product_state`] from precomputed encoding
    /// angles (the output of [`DataEncoder::encoding_angles`]). The
    /// training path and the compiled serving path both prepare data states
    /// through this one function, which is what keeps their fidelities
    /// bit-identical.
    ///
    /// # Errors
    /// Returns an error when the angle count does not match the feature
    /// dimension.
    pub fn encode_product_state_from_angles(
        &self,
        angles: &[f64],
    ) -> Result<ProductState, QuClassiError> {
        if angles.len() != self.dim {
            return Err(QuClassiError::InvalidData(format!(
                "expected {} encoding angles, got {}",
                self.dim,
                angles.len()
            )));
        }
        let mut state = ProductState::zero_state(self.num_qubits());
        for (i, &theta) in angles.iter().enumerate() {
            match self.strategy {
                EncodingStrategy::DualAngle if i % 2 == 1 => {
                    state.apply_single_qubit(i / 2, &matrices::rz_entries(theta))?
                }
                EncodingStrategy::DualAngle => {
                    state.apply_single_qubit(i / 2, &matrices::ry_entries(theta))?
                }
                EncodingStrategy::SingleAngle => {
                    state.apply_single_qubit(i, &matrices::ry_entries(theta))?
                }
            }
        }
        Ok(state)
    }

    /// Reconstructs the feature vector from the encoded state by reading each
    /// qubit's Bloch vector. Demonstrates the paper's claim that knowing the
    /// expectation across the Y and Z axes allows reconstruction.
    pub fn decode_state(&self, state: &StateVector) -> Result<Vec<f64>, QuClassiError> {
        if state.num_qubits() != self.num_qubits() {
            return Err(QuClassiError::InvalidData(format!(
                "state has {} qubits but the encoder expects {}",
                state.num_qubits(),
                self.num_qubits()
            )));
        }
        let mut features = Vec::with_capacity(self.dim);
        match self.strategy {
            EncodingStrategy::SingleAngle => {
                for q in 0..self.dim {
                    // P(1) = x directly.
                    features.push(state.probability_of_one(q)?);
                }
            }
            EncodingStrategy::DualAngle => {
                for q in 0..self.num_qubits() {
                    let [bx, by, bz] = state.bloch_vector(q)?;
                    // First feature: polar angle θ with z = cos θ and θ = 2 asin(√x₁)
                    // ⇒ x₁ = (1 - z) / 2.
                    let x1 = ((1.0 - bz) / 2.0).clamp(0.0, 1.0);
                    features.push(x1);
                    if 2 * q + 1 < self.dim {
                        // Second feature: azimuthal angle φ of the Bloch vector equals
                        // the RZ angle 2 asin(√x₂) ⇒ x₂ = sin²(φ/2).
                        let phi = by.atan2(bx);
                        let x2 = ((phi / 2.0).sin().powi(2)).clamp(0.0, 1.0);
                        features.push(x2);
                    }
                }
            }
        }
        Ok(features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-9;

    #[test]
    fn angle_round_trip() {
        for &x in &[0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let theta = feature_to_angle(x);
            assert!((angle_to_feature(theta) - x).abs() < TOL);
        }
        // Out-of-range values are clamped rather than producing NaN.
        assert!(feature_to_angle(1.5).is_finite());
        assert!(feature_to_angle(-0.5).abs() < TOL);
    }

    #[test]
    fn qubit_counts_per_strategy() {
        let dual = DataEncoder::new(EncodingStrategy::DualAngle, 4).unwrap();
        assert_eq!(dual.num_qubits(), 2);
        let dual_odd = DataEncoder::new(EncodingStrategy::DualAngle, 5).unwrap();
        assert_eq!(dual_odd.num_qubits(), 3);
        let single = DataEncoder::new(EncodingStrategy::SingleAngle, 4).unwrap();
        assert_eq!(single.num_qubits(), 4);
        assert!(DataEncoder::new(EncodingStrategy::DualAngle, 0).is_err());
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        let enc = DataEncoder::new(EncodingStrategy::DualAngle, 2).unwrap();
        assert!(enc.validate(&[0.5, 0.5]).is_ok());
        assert!(enc.validate(&[0.5]).is_err());
        assert!(enc.validate(&[0.5, 1.5]).is_err());
        assert!(enc.validate(&[f64::NAN, 0.1]).is_err());
        assert!(enc.validate(&[-0.1, 0.1]).is_err());
    }

    #[test]
    fn single_angle_encoding_sets_expectations() {
        let enc = DataEncoder::new(EncodingStrategy::SingleAngle, 3).unwrap();
        let x = vec![0.2, 0.7, 1.0];
        let state = enc.encode_state(&x).unwrap();
        for (q, &v) in x.iter().enumerate() {
            assert!((state.probability_of_one(q).unwrap() - v).abs() < TOL);
        }
    }

    #[test]
    fn dual_angle_encoding_preserves_first_feature_expectation() {
        // The RZ rotation does not change the Z expectation, so P(1) of each
        // qubit still equals the even-indexed feature.
        let enc = DataEncoder::new(EncodingStrategy::DualAngle, 4).unwrap();
        let x = vec![0.3, 0.8, 0.6, 0.1];
        let state = enc.encode_state(&x).unwrap();
        assert!((state.probability_of_one(0).unwrap() - 0.3).abs() < TOL);
        assert!((state.probability_of_one(1).unwrap() - 0.6).abs() < TOL);
    }

    #[test]
    fn dual_angle_gate_structure() {
        let enc = DataEncoder::new(EncodingStrategy::DualAngle, 4).unwrap();
        let gates = enc.encoding_gates(&[0.1, 0.2, 0.3, 0.4], 5).unwrap();
        assert_eq!(gates.len(), 4);
        assert!(matches!(gates[0], Gate::Ry(5, _)));
        assert!(matches!(gates[1], Gate::Rz(5, _)));
        assert!(matches!(gates[2], Gate::Ry(6, _)));
        assert!(matches!(gates[3], Gate::Rz(6, _)));
    }

    #[test]
    fn decode_inverts_encode_for_dual_angle() {
        let enc = DataEncoder::new(EncodingStrategy::DualAngle, 4).unwrap();
        // Stay away from the degenerate poles (x₁ ∈ {0, 1}) where the
        // azimuthal angle is undefined — the paper notes this limitation.
        let x = vec![0.3, 0.65, 0.52, 0.18];
        let state = enc.encode_state(&x).unwrap();
        let decoded = enc.decode_state(&state).unwrap();
        for (a, b) in x.iter().zip(decoded.iter()) {
            assert!((a - b).abs() < 1e-6, "expected {a}, decoded {b}");
        }
    }

    #[test]
    fn decode_inverts_encode_for_single_angle() {
        let enc = DataEncoder::new(EncodingStrategy::SingleAngle, 3).unwrap();
        let x = vec![0.0, 0.42, 1.0];
        let state = enc.encode_state(&x).unwrap();
        let decoded = enc.decode_state(&state).unwrap();
        for (a, b) in x.iter().zip(decoded.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn parametric_encoding_matches_fixed_gates_bit_for_bit() {
        for (strategy, dim) in [
            (EncodingStrategy::DualAngle, 4),
            (EncodingStrategy::DualAngle, 5),
            (EncodingStrategy::SingleAngle, 3),
        ] {
            let enc = DataEncoder::new(strategy, dim).unwrap();
            let x: Vec<f64> = (0..dim).map(|i| 0.08 + 0.11 * i as f64).collect();
            let mut parametric = Circuit::new(enc.num_qubits());
            let consumed = enc.append_parametric_to(&mut parametric, 0, 0);
            assert_eq!(consumed, dim);
            assert_eq!(parametric.num_parameters(), dim);
            let angles = enc.encoding_angles(&x).unwrap();
            let a = parametric.execute(&angles).unwrap();
            let b = enc.encode_state(&x).unwrap();
            assert_eq!(a, b, "{strategy:?} dim {dim}");
        }
    }

    #[test]
    fn fast_encode_matches_slow_encode_bit_for_bit() {
        for (strategy, dim) in [
            (EncodingStrategy::DualAngle, 4),
            (EncodingStrategy::DualAngle, 5),
            (EncodingStrategy::SingleAngle, 3),
        ] {
            let enc = DataEncoder::new(strategy, dim).unwrap();
            // Generic interior values plus the degenerate boundaries.
            let probes: Vec<Vec<f64>> = vec![
                (0..dim).map(|i| 0.07 + 0.11 * i as f64).collect(),
                vec![0.0; dim],
                vec![1.0; dim],
                (0..dim)
                    .map(|i| if i % 2 == 0 { 0.0 } else { 1.0 })
                    .collect(),
            ];
            for x in probes {
                let slow = enc.encode_state(&x).unwrap();
                let angles = enc.encoding_angles(&x).unwrap();
                let fast = enc.encode_state_from_angles(&angles).unwrap();
                // Semantically equal everywhere (±0 signs may differ in the
                // zero region)…
                assert_eq!(fast, slow, "{strategy:?} dim {dim} x {x:?}");
                // …and bit-identical on every nonzero amplitude, which is
                // what makes downstream fidelities bit-identical.
                for (a, b) in fast.to_amplitudes().iter().zip(slow.to_amplitudes().iter()) {
                    if b.re != 0.0 {
                        assert_eq!(a.re.to_bits(), b.re.to_bits());
                    }
                    if b.im != 0.0 {
                        assert_eq!(a.im.to_bits(), b.im.to_bits());
                    }
                }
                // Fidelity against an arbitrary reference state matches bits.
                let reference = enc
                    .encode_state(&(0..dim).map(|i| 0.31 + 0.09 * i as f64).collect::<Vec<_>>())
                    .unwrap();
                assert_eq!(
                    fast.fidelity(&reference).unwrap().to_bits(),
                    slow.fidelity(&reference).unwrap().to_bits()
                );
            }
        }
    }

    #[test]
    fn encode_into_reuses_dirty_scratch_bit_for_bit() {
        for (strategy, dim) in [
            (EncodingStrategy::DualAngle, 5),
            (EncodingStrategy::SingleAngle, 3),
        ] {
            let enc = DataEncoder::new(strategy, dim).unwrap();
            let mut scratch = StateVector::zero_state(enc.num_qubits());
            // Encode three different samples through the same scratch: each
            // must match a fresh encode exactly, regardless of what the
            // previous iteration left behind.
            for seed in 0..3 {
                let x: Vec<f64> = (0..dim).map(|i| 0.05 + 0.09 * (i + seed) as f64).collect();
                let angles = enc.encoding_angles(&x).unwrap();
                enc.encode_state_from_angles_into(&angles, &mut scratch)
                    .unwrap();
                let fresh = enc.encode_state_from_angles(&angles).unwrap();
                assert_eq!(scratch, fresh, "{strategy:?} seed {seed}");
            }
            // Wrong register width and wrong angle count are rejected.
            let mut wrong = StateVector::zero_state(enc.num_qubits() + 1);
            let angles = vec![0.3; dim];
            assert!(enc
                .encode_state_from_angles_into(&angles, &mut wrong)
                .is_err());
            assert!(enc
                .encode_state_from_angles_into(&angles[..dim - 1], &mut scratch)
                .is_err());
        }
    }

    #[test]
    fn gates_from_angles_match_gates_from_features() {
        let enc = DataEncoder::new(EncodingStrategy::DualAngle, 4).unwrap();
        let x = [0.2, 0.6, 0.9, 0.1];
        let angles = enc.encoding_angles(&x).unwrap();
        assert_eq!(
            enc.encoding_gates_from_angles(&angles, 3).unwrap(),
            enc.encoding_gates(&x, 3).unwrap()
        );
        assert!(enc.encoding_gates_from_angles(&angles[..2], 0).is_err());
    }

    #[test]
    fn encoding_angles_validate_and_match_feature_to_angle() {
        let enc = DataEncoder::new(EncodingStrategy::DualAngle, 3).unwrap();
        assert!(enc.encoding_angles(&[0.1, 1.4, 0.2]).is_err());
        let angles = enc.encoding_angles(&[0.1, 0.9, 0.5]).unwrap();
        assert_eq!(angles.len(), 3);
        for (a, &x) in angles.iter().zip([0.1, 0.9, 0.5].iter()) {
            assert_eq!(a.to_bits(), feature_to_angle(x).to_bits());
        }
    }

    #[test]
    fn decode_rejects_wrong_register_width() {
        let enc = DataEncoder::new(EncodingStrategy::DualAngle, 4).unwrap();
        let state = StateVector::zero_state(5);
        assert!(enc.decode_state(&state).is_err());
    }

    #[test]
    fn odd_dimension_dual_encoding_leaves_last_rz_out() {
        let enc = DataEncoder::new(EncodingStrategy::DualAngle, 3).unwrap();
        let gates = enc.encoding_gates(&[0.2, 0.4, 0.9], 0).unwrap();
        assert_eq!(gates.len(), 3);
        assert!(matches!(gates[2], Gate::Ry(1, _)));
    }

    #[test]
    fn identical_points_have_identical_states() {
        let enc = DataEncoder::new(EncodingStrategy::DualAngle, 4).unwrap();
        let a = enc.encode_state(&[0.1, 0.9, 0.4, 0.6]).unwrap();
        let b = enc.encode_state(&[0.1, 0.9, 0.4, 0.6]).unwrap();
        assert!((a.fidelity(&b).unwrap() - 1.0).abs() < TOL);
    }

    #[test]
    fn different_points_have_lower_fidelity() {
        let enc = DataEncoder::new(EncodingStrategy::DualAngle, 4).unwrap();
        let a = enc.encode_state(&[0.9, 0.9, 0.9, 0.9]).unwrap();
        let b = enc.encode_state(&[0.1, 0.1, 0.1, 0.1]).unwrap();
        assert!(a.fidelity(&b).unwrap() < 0.5);
    }
}
