//! Equivalence net over the GEMM-shaped batched fidelity path: packing
//! states into a [`StateMatrix`] and sweeping the matrix must agree with
//! the per-pair [`StateVector::fidelity`] reduction.
//!
//! The documented contract is agreement within `1e-12`; the implementation
//! today is **bit-identical** (every matrix entry reuses the same fixed
//! pairwise reduction tree), and this suite pins both: the tolerance
//! ceiling as the forward-compatible contract, bit equality as the current
//! behaviour.

use proptest::prelude::*;
use quclassi_sim::circuit::Circuit;
use quclassi_sim::gemm::StateMatrix;
use quclassi_sim::state::StateVector;

/// The documented GEMM agreement contract (see `crates/sim/src/gemm.rs`).
const GEMM_TOL: f64 = 1e-12;

/// A deterministic but well-mixed `n`-qubit state parameterised by `seed`.
fn mixed_state(n: usize, seed: u64) -> StateVector {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
        c.ry(q, 0.31 + 0.17 * ((q as u64 + seed) % 13) as f64);
        c.rz(q, -0.45 + 0.23 * ((q as u64 * seed + 1) % 11) as f64);
    }
    for q in 0..n - 1 {
        c.cnot(q, q + 1);
    }
    c.execute(&[]).unwrap()
}

fn assert_fidelity_rows_match(matrix: &StateMatrix, states: &[StateVector], probe: &StateVector) {
    let mut out = vec![0.0f64; states.len()];
    matrix.fidelities_into(probe, &mut out).unwrap();
    for (state, &gemm) in states.iter().zip(out.iter()) {
        let pair = state.fidelity(probe).unwrap();
        // The forward-compatible contract…
        assert!(
            (gemm - pair).abs() <= GEMM_TOL,
            "GEMM fidelity {gemm} vs per-pair {pair} exceeds {GEMM_TOL}"
        );
        // …and the current bit-exactness.
        assert_eq!(gemm.to_bits(), pair.to_bits(), "GEMM row not bit-identical");
    }
}

proptest! {
    /// Random small registers (2–6 qubits — every row is a single
    /// reduction leaf): GEMM rows vs per-pair fidelities.
    #[test]
    fn gemm_rows_match_per_pair_fidelity(
        n in 2usize..=6,
        seeds in prop::collection::vec(1u64..1000, 1..6),
        probe_seed in 1000u64..2000,
    ) {
        let states: Vec<StateVector> = seeds.iter().map(|&s| mixed_state(n, s)).collect();
        let probe = mixed_state(n, probe_seed);
        let matrix = StateMatrix::pack(&states).unwrap();
        assert_fidelity_rows_match(&matrix, &states, &probe);
    }

    /// The full samples × classes fidelity matrix agrees entry-by-entry
    /// with the per-pair path, bit for bit.
    #[test]
    fn gemm_matrix_matches_per_pair_fidelity(
        n in 2usize..=6,
        sample_seeds in prop::collection::vec(1u64..500, 1..5),
        class_seeds in prop::collection::vec(500u64..900, 1..4),
    ) {
        let samples: Vec<StateVector> =
            sample_seeds.iter().map(|&s| mixed_state(n, s)).collect();
        let classes: Vec<StateVector> =
            class_seeds.iter().map(|&s| mixed_state(n, s)).collect();
        let sm = StateMatrix::pack(&samples).unwrap();
        let cm = StateMatrix::pack(&classes).unwrap();
        let mut out = vec![0.0f64; samples.len() * classes.len()];
        sm.fidelity_matrix_into(&cm, &mut out).unwrap();
        for (s, sample) in samples.iter().enumerate() {
            for (c, class) in classes.iter().enumerate() {
                let pair = class.fidelity(sample).unwrap();
                let gemm = out[s * classes.len() + c];
                prop_assert!((gemm - pair).abs() <= GEMM_TOL);
                prop_assert_eq!(gemm.to_bits(), pair.to_bits());
            }
        }
    }
}

/// A deterministic 13-qubit anchor: each row spans two reduction leaves
/// (dim 8192 > `REDUCTION_CHUNK` = 4096), so the leaf/combine split of the
/// reduction tree is exercised.
#[test]
fn multi_leaf_rows_are_bit_identical_to_per_pair_fidelity() {
    let n = 13;
    let states: Vec<StateVector> = (1..4).map(|s| mixed_state(n, s)).collect();
    let probe = mixed_state(n, 77);
    let matrix = StateMatrix::pack(&states).unwrap();
    assert_eq!(matrix.dim(), 1 << n);
    assert_fidelity_rows_match(&matrix, &states, &probe);
}

/// Packing order is row order: permuting the input permutes the output.
#[test]
fn row_order_follows_pack_order() {
    let a = mixed_state(4, 3);
    let b = mixed_state(4, 8);
    let probe = mixed_state(4, 21);
    let fwd = StateMatrix::pack(&[a.clone(), b.clone()]).unwrap();
    let rev = StateMatrix::pack(&[b, a]).unwrap();
    let (mut out_f, mut out_r) = (vec![0.0; 2], vec![0.0; 2]);
    fwd.fidelities_into(&probe, &mut out_f).unwrap();
    rev.fidelities_into(&probe, &mut out_r).unwrap();
    assert_eq!(out_f[0].to_bits(), out_r[1].to_bits());
    assert_eq!(out_f[1].to_bits(), out_r[0].to_bits());
}
