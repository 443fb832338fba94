//! Output checks computed apart from the program under test.
//!
//! The fidelity oracle is written from the paper's equations rather than
//! through the simulator: dual-angle encoding prepares each data qubit as
//! `RZ(θ_odd)·RY(θ_even)|0⟩` with `θ = 2·asin(√x)`, a QC-S class state
//! prepares each learned qubit as `RZ(p_2q+1)·RY(p_2q)|0⟩`, and both are
//! product states, so `F = Π_q |⟨φ_q|ψ_q⟩|²`. The SWAP-test identity check
//! runs the full SWAP-test circuit and converts the ancilla statistics with
//! its own `F = 2·P(ancilla=0) − 1`.

use quclassi::encoding::DataEncoder;
use quclassi::layers::LayerStack;
use quclassi::swap_test::build_swap_test_circuit;
use quclassi_sim::executor::Executor;

/// Largest accepted gap between a served fidelity and the oracle's.
const FIDELITY_TOL: f64 = 1e-9;
/// Largest accepted gap between a served probability and the softmax of
/// the served fidelities.
const SOFTMAX_TOL: f64 = 1e-12;

/// A complex amplitude as `(re, im)`.
type Amp = (f64, f64);

/// `RZ(rz)·RY(ry)|0⟩ = (e^{-i·rz/2}·cos(ry/2), e^{i·rz/2}·sin(ry/2))`.
fn qubit_state(ry: f64, rz: f64) -> [Amp; 2] {
    let (c, s) = ((ry / 2.0).cos(), (ry / 2.0).sin());
    let (pc, ps) = ((rz / 2.0).cos(), (rz / 2.0).sin());
    [(c * pc, -c * ps), (s * pc, s * ps)]
}

/// `|⟨a|b⟩|²` for single-qubit states.
fn overlap_sq(a: &[Amp; 2], b: &[Amp; 2]) -> f64 {
    let (mut re, mut im) = (0.0, 0.0);
    for (x, y) in a.iter().zip(b) {
        // conj(x)·y
        re += x.0 * y.0 + x.1 * y.1;
        im += x.0 * y.1 - x.1 * y.0;
    }
    re * re + im * im
}

/// Fidelity between the QC-S class state with `params` and the dual-angle
/// encoding of `x` (an odd last feature leaves its qubit's RZ at zero).
pub fn qcs_fidelity(params: &[f64], x: &[f64]) -> f64 {
    let angle = |v: f64| 2.0 * v.clamp(0.0, 1.0).sqrt().asin();
    (0..x.len().div_ceil(2))
        .map(|q| {
            let data = qubit_state(angle(x[2 * q]), x.get(2 * q + 1).map_or(0.0, |&v| angle(v)));
            let class = qubit_state(params[2 * q], params[2 * q + 1]);
            overlap_sq(&class, &data)
        })
        .product()
}

/// The oracle's fidelity of `x` against every QC-S class.
pub fn qcs_fidelities(class_params: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
    class_params.iter().map(|p| qcs_fidelity(p, x)).collect()
}

/// Checks one served prediction: fidelities within [`FIDELITY_TOL`] of
/// `expected`, probabilities the softmax of the served fidelities, and the
/// label their arg-max.
pub fn check_response(
    expected: &[f64],
    label: usize,
    probabilities: &[f64],
    fidelities: &[f64],
) -> Result<(), String> {
    if fidelities.len() != expected.len() || probabilities.len() != expected.len() {
        return Err(format!(
            "expected {} classes, got {} fidelities and {} probabilities",
            expected.len(),
            fidelities.len(),
            probabilities.len()
        ));
    }
    for (c, (&got, &want)) in fidelities.iter().zip(expected).enumerate() {
        let close = (got - want).abs() <= FIDELITY_TOL;
        if !close {
            return Err(format!(
                "class {c}: fidelity {got} but the oracle gives {want}"
            ));
        }
    }
    let norm: f64 = fidelities.iter().map(|f| f.exp()).sum();
    for (c, (&p, &f)) in probabilities.iter().zip(fidelities).enumerate() {
        let want = f.exp() / norm;
        let close = (p - want).abs() <= SOFTMAX_TOL;
        if !close {
            return Err(format!(
                "class {c}: probability {p} but softmax gives {want}"
            ));
        }
    }
    match probabilities.get(label) {
        Some(&top) if probabilities.iter().all(|&p| p <= top) => Ok(()),
        _ => Err(format!(
            "label {label} is not the arg-max of {probabilities:?}"
        )),
    }
}

/// Share of `xs` whose oracle arg-max over the QC-S classes is its label.
pub fn qcs_accuracy(class_params: &[Vec<f64>], xs: &[Vec<f64>], ys: &[usize]) -> f64 {
    let hits = xs
        .iter()
        .zip(ys)
        .filter(|(x, &y)| {
            let f = qcs_fidelities(class_params, x);
            f.iter().all(|&v| v <= f[y])
        })
        .count();
    hits as f64 / xs.len() as f64
}

/// Checks a training run: the final epoch's loss is below the first
/// epoch's, and held-out accuracy reaches `floor`.
pub fn check_training(losses: &[f64], accuracy: f64, floor: f64) -> Result<(), String> {
    match (losses.first(), losses.last()) {
        (Some(first), Some(last)) if losses.len() >= 2 && last < first => {}
        _ => return Err(format!("epoch losses {losses:?} did not fall")),
    }
    if accuracy >= floor {
        Ok(())
    } else {
        Err(format!("held-out accuracy {accuracy} is below {floor}"))
    }
}

/// `F = 2·P(ancilla=0) − 1` from the exact SWAP-test circuit.
pub fn swap_test_fidelity(
    stack: &LayerStack,
    params: &[f64],
    encoder: &DataEncoder,
    x: &[f64],
) -> Result<f64, String> {
    let (circuit, layout) =
        build_swap_test_circuit(stack, encoder, x).map_err(|e| e.to_string())?;
    // An exact ideal executor draws no randomness.
    let mut unused = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
    let p1 = Executor::ideal()
        .probability_of_one(&circuit, params, layout.ancilla, &mut unused)
        .map_err(|e| e.to_string())?;
    Ok(2.0 * (1.0 - p1) - 1.0)
}

/// Checks the SWAP-test identity between an analytic fidelity and the
/// SWAP-test one.
pub fn check_swap_identity(analytic: f64, swap: f64) -> Result<(), String> {
    if (analytic - swap).abs() <= FIDELITY_TOL {
        Ok(())
    } else {
        Err(format!(
            "analytic fidelity {analytic} but 2·P0 − 1 = {swap}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quclassi::encoding::EncodingStrategy;
    use quclassi::swap_test::FidelityEstimator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_case(dim: usize, rng: &mut StdRng) -> (Vec<f64>, Vec<f64>) {
        let params = (0..2 * dim.div_ceil(2))
            .map(|_| rng.gen_range(-3.0..3.0))
            .collect();
        let x = (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect();
        (params, x)
    }

    /// The oracle is only worth its checks if it matches the paper's model.
    #[test]
    fn oracle_matches_the_analytic_estimator() {
        let mut rng = StdRng::seed_from_u64(1);
        for dim in [1, 2, 3, 4, 7, 16] {
            let encoder = DataEncoder::new(EncodingStrategy::DualAngle, dim).unwrap();
            let stack = LayerStack::qc_s(encoder.num_qubits()).unwrap();
            for _ in 0..5 {
                let (params, x) = random_case(dim, &mut rng);
                let want = FidelityEstimator::analytic()
                    .estimate(&stack, &params, &encoder, &x, &mut rng)
                    .unwrap();
                assert!((qcs_fidelity(&params, &x) - want).abs() < 1e-12);
            }
        }
    }

    fn served(fidelities: &[f64]) -> (usize, Vec<f64>) {
        let norm: f64 = fidelities.iter().map(|f| f.exp()).sum();
        let probs: Vec<f64> = fidelities.iter().map(|f| f.exp() / norm).collect();
        let label = (0..probs.len())
            .max_by(|&a, &b| probs[a].total_cmp(&probs[b]))
            .unwrap();
        (label, probs)
    }

    #[test]
    fn response_check_accepts_a_true_response() {
        let fids = [0.2, 0.7, 0.4];
        let (label, probs) = served(&fids);
        assert_eq!(check_response(&fids, label, &probs, &fids), Ok(()));
    }

    #[test]
    fn response_check_rejects_a_wrong_fidelity() {
        let fids = [0.2, 0.7, 0.4];
        let (label, probs) = served(&fids);
        let expected = [0.2, 0.7 + 1e-7, 0.4];
        assert!(check_response(&expected, label, &probs, &fids).is_err());
    }

    #[test]
    fn response_check_rejects_probabilities_that_are_not_the_softmax() {
        let fids = [0.2, 0.7, 0.4];
        let (label, mut probs) = served(&fids);
        probs.swap(0, 2);
        assert!(check_response(&fids, label, &probs, &fids).is_err());
    }

    #[test]
    fn response_check_rejects_a_label_that_is_not_the_arg_max() {
        let fids = [0.2, 0.7, 0.4];
        let (_, probs) = served(&fids);
        assert!(check_response(&fids, 2, &probs, &fids).is_err());
        assert!(check_response(&fids, 3, &probs, &fids).is_err());
    }

    #[test]
    fn response_check_rejects_a_missing_class() {
        let fids = [0.2, 0.7, 0.4];
        let (label, probs) = served(&fids);
        assert!(check_response(&fids, label, &probs[..2], &fids[..2]).is_err());
    }

    #[test]
    fn training_check_rejects_a_loss_that_did_not_fall() {
        assert_eq!(check_training(&[0.9, 0.5, 0.4], 0.9, 0.8), Ok(()));
        assert!(check_training(&[0.4, 0.5, 0.4], 0.9, 0.8).is_err());
        assert!(check_training(&[0.4], 0.9, 0.8).is_err());
        assert!(check_training(&[0.9, f64::NAN], 0.9, 0.8).is_err());
    }

    #[test]
    fn training_check_rejects_an_accuracy_near_chance() {
        let mut rng = StdRng::seed_from_u64(2);
        let classes: Vec<Vec<f64>> = vec![vec![0.4, 0.0, 0.4, 0.0], vec![2.7, 0.0, 2.7, 0.0]];
        let xs: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let v = if i % 2 == 0 { 0.05 } else { 0.95 };
                (0..4)
                    .map(|_| (v + rng.gen_range(-0.04..0.04f64)).clamp(0.0, 1.0))
                    .collect()
            })
            .collect();
        let ys: Vec<usize> = (0..40).map(|i| i % 2).collect();
        let accuracy = qcs_accuracy(&classes, &xs, &ys);
        assert_eq!(check_training(&[0.9, 0.5], accuracy, 0.8), Ok(()));
        // Corrupted output: the same classifier scored against flipped labels.
        let flipped: Vec<usize> = ys.iter().map(|y| 1 - y).collect();
        let corrupted = qcs_accuracy(&classes, &xs, &flipped);
        assert!(check_training(&[0.9, 0.5], corrupted, 0.8).is_err());
    }

    #[test]
    fn swap_identity_holds_on_an_entangled_stack_and_rejects_a_corrupted_value() {
        let mut rng = StdRng::seed_from_u64(3);
        let encoder = DataEncoder::new(EncodingStrategy::DualAngle, 6).unwrap();
        let stack = LayerStack::qc_sde(encoder.num_qubits()).unwrap();
        let params: Vec<f64> = (0..stack.parameter_count())
            .map(|_| rng.gen_range(-3.0..3.0))
            .collect();
        let x: Vec<f64> = (0..6).map(|_| rng.gen_range(0.0..1.0)).collect();
        let analytic = FidelityEstimator::analytic()
            .estimate(&stack, &params, &encoder, &x, &mut rng)
            .unwrap();
        let swap = swap_test_fidelity(&stack, &params, &encoder, &x).unwrap();
        assert_eq!(check_swap_identity(analytic, swap), Ok(()));
        assert!(check_swap_identity(analytic + 1e-6, swap).is_err());
    }
}
