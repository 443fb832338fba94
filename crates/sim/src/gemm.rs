//! GEMM-shaped batched fidelity: many pure states packed into one dense
//! structure-of-arrays matrix, with fidelities against a probe state (or
//! against a whole second matrix) computed as rows of a cache-blocked
//! complex matrix product.
//!
//! Batched analytic inference evaluates `|⟨class_c | sample_s⟩|²` for every
//! (sample, class) pair — exactly a dense GEMM between the encoded-state
//! matrix (samples × 2^n) and the conjugate-transposed class-state matrix
//! (2^n × classes), followed by an elementwise squared modulus. Packing the
//! class states once into a [`StateMatrix`] replaces `N × C` pointer-chasing
//! scatter reads over individually allocated statevectors with streaming
//! sweeps over two contiguous `f64` planes: the class matrix stays cache
//! resident across samples and each row product autovectorises like the
//! kernels in [`crate::state`].
//!
//! ## Determinism and tolerance
//!
//! Every row·column reduction reuses the **fixed pairwise tree** of
//! [`crate::state::StateVector::inner_product`]: leaf folds of
//! [`crate::state::REDUCTION_CHUNK`] amplitudes (the cache block — this is
//! what "cache-blocked" means here; no other blocking reassociates the
//! sum) combined by balanced halving. The tree shape depends only on the
//! register size, so [`StateMatrix::fidelities_into`] is
//! **bit-identical** to calling [`crate::state::StateVector::fidelity`]
//! row by row.
//!
//! The documented contract for consumers is agreement within `1e-12` of
//! the sequential inner-product path — today the implementation delivers
//! exact bit equality, and the `gemm_equivalence` suite pins both the
//! tolerance ceiling and the current bit-identity so any future blocking
//! scheme that genuinely reassociates must stay inside `1e-12`.

use crate::complex::Complex;
use crate::error::SimError;
use crate::state::{inner_product_tree, StateVector};

/// A dense row-major pack of same-width pure states: row `r` holds the
/// amplitudes of state `r`, split into structure-of-arrays real and
/// imaginary planes.
#[derive(Clone, Debug, PartialEq)]
pub struct StateMatrix {
    num_qubits: usize,
    dim: usize,
    rows: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl StateMatrix {
    /// Packs `states` (all on the same register width) into one contiguous
    /// matrix.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidState`] for an empty list and
    /// [`SimError::DimensionMismatch`] when the register widths differ.
    pub fn pack(states: &[StateVector]) -> Result<Self, SimError> {
        let first = states
            .first()
            .ok_or_else(|| SimError::InvalidState("cannot pack an empty state list".to_string()))?;
        let num_qubits = first.num_qubits();
        let dim = first.dim();
        let mut re = Vec::with_capacity(states.len() * dim);
        let mut im = Vec::with_capacity(states.len() * dim);
        for state in states {
            if state.num_qubits() != num_qubits {
                return Err(SimError::DimensionMismatch {
                    expected: num_qubits,
                    found: state.num_qubits(),
                });
            }
            re.extend_from_slice(state.re_parts());
            im.extend_from_slice(state.im_parts());
        }
        Ok(StateMatrix {
            num_qubits,
            dim,
            rows: states.len(),
            re,
            im,
        })
    }

    /// Register width (qubits) of every packed state.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Amplitudes per row (2^n).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of packed states.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The SoA halves of row `r`.
    fn row(&self, r: usize) -> (&[f64], &[f64]) {
        let lo = r * self.dim;
        let hi = lo + self.dim;
        (&self.re[lo..hi], &self.im[lo..hi])
    }

    fn check_probe(&self, other: &StateVector, out: &[f64]) -> Result<(), SimError> {
        if other.num_qubits() != self.num_qubits {
            return Err(SimError::DimensionMismatch {
                expected: self.num_qubits,
                found: other.num_qubits(),
            });
        }
        if out.len() != self.rows {
            return Err(SimError::InvalidState(format!(
                "fidelity output length {} does not match {} packed states",
                out.len(),
                self.rows
            )));
        }
        Ok(())
    }

    /// Writes `|⟨row_r|other⟩|²` for every packed row into `out`
    /// (allocation-free: one streaming pass over the matrix planes, the
    /// probe state cache resident throughout). Bit-identical to calling
    /// [`StateVector::fidelity`] per row.
    ///
    /// # Errors
    /// Returns [`SimError::DimensionMismatch`] on register-width mismatch
    /// and [`SimError::InvalidState`] when `out.len() != self.rows()`.
    pub fn fidelities_into(&self, other: &StateVector, out: &mut [f64]) -> Result<(), SimError> {
        self.check_probe(other, out)?;
        let (b_re, b_im) = (other.re_parts(), other.im_parts());
        for (r, slot) in out.iter_mut().enumerate() {
            let (a_re, a_im) = self.row(r);
            *slot = inner_product_tree(a_re, a_im, b_re, b_im).norm_sqr();
        }
        Ok(())
    }

    /// The full samples × classes fidelity GEMM: writes
    /// `|⟨classes_c|samples_s⟩|²` into `out[s * classes.rows() + c]`,
    /// row-major over samples. Each entry goes through the same fixed
    /// pairwise reduction as [`StateMatrix::fidelities_into`], so the
    /// result is bit-identical to the per-pair sequential path; the class
    /// plane streams once per sample row while the sample row stays cache
    /// resident.
    ///
    /// # Errors
    /// Returns [`SimError::DimensionMismatch`] on register-width mismatch
    /// and [`SimError::InvalidState`] when
    /// `out.len() != self.rows() * classes.rows()`.
    pub fn fidelity_matrix_into(
        &self,
        classes: &StateMatrix,
        out: &mut [f64],
    ) -> Result<(), SimError> {
        if classes.num_qubits != self.num_qubits {
            return Err(SimError::DimensionMismatch {
                expected: self.num_qubits,
                found: classes.num_qubits,
            });
        }
        if out.len() != self.rows * classes.rows {
            return Err(SimError::InvalidState(format!(
                "fidelity matrix output length {} does not match {} samples × {} classes",
                out.len(),
                self.rows,
                classes.rows
            )));
        }
        for (s, row_out) in out.chunks_exact_mut(classes.rows).enumerate() {
            let (s_re, s_im) = self.row(s);
            for (c, slot) in row_out.iter_mut().enumerate() {
                let (c_re, c_im) = classes.row(c);
                *slot = inner_product_tree(c_re, c_im, s_re, s_im).norm_sqr();
            }
        }
        Ok(())
    }
}

/// Inner product ⟨a|b⟩ between two packed rows is what
/// [`StateMatrix::fidelities_into`] squares; exposed for consumers that
/// need the complex value itself (e.g. interference diagnostics).
pub fn row_inner_product(
    matrix: &StateMatrix,
    r: usize,
    other: &StateVector,
) -> Result<Complex, SimError> {
    if other.num_qubits() != matrix.num_qubits {
        return Err(SimError::DimensionMismatch {
            expected: matrix.num_qubits,
            found: other.num_qubits(),
        });
    }
    if r >= matrix.rows {
        return Err(SimError::InvalidState(format!(
            "row {r} out of range for {} packed states",
            matrix.rows
        )));
    }
    let (a_re, a_im) = matrix.row(r);
    Ok(inner_product_tree(
        a_re,
        a_im,
        other.re_parts(),
        other.im_parts(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    fn random_ish_state(n: usize, seed: usize) -> StateVector {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
            c.ry(q, 0.3 + 0.17 * (q + seed) as f64);
            c.rz(q, -0.4 + 0.23 * (q * seed + 1) as f64);
        }
        for q in 0..n - 1 {
            c.cnot(q, q + 1);
        }
        c.execute(&[]).unwrap()
    }

    #[test]
    fn pack_rejects_empty_and_mismatched() {
        assert!(matches!(
            StateMatrix::pack(&[]),
            Err(SimError::InvalidState(_))
        ));
        let a = StateVector::zero_state(3);
        let b = StateVector::zero_state(4);
        assert!(matches!(
            StateMatrix::pack(&[a, b]),
            Err(SimError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn fidelities_match_per_pair_path_bit_for_bit() {
        let states: Vec<StateVector> = (1..5).map(|s| random_ish_state(5, s)).collect();
        let probe = random_ish_state(5, 9);
        let matrix = StateMatrix::pack(&states).unwrap();
        assert_eq!(matrix.rows(), 4);
        assert_eq!(matrix.dim(), 32);
        let mut out = vec![0.0; 4];
        matrix.fidelities_into(&probe, &mut out).unwrap();
        for (state, &f) in states.iter().zip(out.iter()) {
            assert_eq!(f.to_bits(), state.fidelity(&probe).unwrap().to_bits());
        }
    }

    #[test]
    fn fidelity_matrix_matches_row_products() {
        let samples: Vec<StateVector> = (1..4).map(|s| random_ish_state(4, s)).collect();
        let classes: Vec<StateVector> = (5..7).map(|s| random_ish_state(4, s)).collect();
        let sm = StateMatrix::pack(&samples).unwrap();
        let cm = StateMatrix::pack(&classes).unwrap();
        let mut out = vec![0.0; 3 * 2];
        sm.fidelity_matrix_into(&cm, &mut out).unwrap();
        for (s, sample) in samples.iter().enumerate() {
            for (c, class) in classes.iter().enumerate() {
                assert_eq!(
                    out[s * 2 + c].to_bits(),
                    class.fidelity(sample).unwrap().to_bits()
                );
            }
        }
    }

    #[test]
    fn shape_errors_are_rejected() {
        let matrix = StateMatrix::pack(&[StateVector::zero_state(3)]).unwrap();
        let probe4 = StateVector::zero_state(4);
        let mut out1 = vec![0.0; 1];
        assert!(matrix.fidelities_into(&probe4, &mut out1).is_err());
        let probe3 = StateVector::zero_state(3);
        let mut out2 = vec![0.0; 2];
        assert!(matrix.fidelities_into(&probe3, &mut out2).is_err());
        assert!(row_inner_product(&matrix, 1, &probe3).is_err());
        assert!(row_inner_product(&matrix, 0, &probe4).is_err());
        let ip = row_inner_product(&matrix, 0, &probe3).unwrap();
        assert_eq!(ip, Complex::ONE);
        let other = StateMatrix::pack(&[probe4]).unwrap();
        let mut out3 = vec![0.0; 1];
        assert!(matrix.fidelity_matrix_into(&other, &mut out3).is_err());
    }
}
