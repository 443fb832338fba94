//! The SWAP test and fidelity estimation (paper Sections 3.3 and 4.4).
//!
//! QuClassi scores a data point against a class by the fidelity
//! `F = |⟨φ_x|ω_c⟩|²` between the encoded data state and the class's learned
//! state. Two estimation paths are provided:
//!
//! * **SWAP test** (paper-faithful): build the full `2·m + 1`-qubit circuit
//!   of Fig. 7 — ancilla + learned register + data register — apply a
//!   Hadamard, per-pair CSWAPs, another Hadamard, and measure the ancilla.
//!   `P(ancilla = 0) = ½ + ½·F`, so `F = 2·P(0) − 1`. This path goes through
//!   the [`Executor`], so it supports shots and device noise.
//! * **Analytic**: prepare the two `m`-qubit registers separately and take
//!   the exact inner product. Mathematically identical in the noiseless,
//!   infinite-shot limit, and much cheaper — this is what training uses by
//!   default.
//!
//! Both paths share a product-state kernel. When the layer stack has no
//! entanglement layer ([`LayerStack::is_separable`]) the class and data
//! states are products of single-qubit states, so
//! `F = Π_q |⟨φ_q|ω_q⟩|²`, and a noiseless SWAP test measures exactly
//! `P(0) = (1 + F)/2`. Every deterministic estimate of such a stack — the
//! analytic method, or the SWAP test through an exact executor — is
//! therefore scored through [`ProductState::fidelity`] in `O(m)`, with no
//! statevector. Entangled stacks, and SWAP tests with shots or noise, run
//! their circuits as before.

use crate::encoding::DataEncoder;
use crate::error::QuClassiError;
use crate::layers::LayerStack;
use quclassi_sim::batch::BatchExecutor;
use quclassi_sim::circuit::Circuit;
use quclassi_sim::executor::Executor;
use quclassi_sim::fusion::FusedCircuit;
use quclassi_sim::product::ProductState;
use rand::Rng;

/// Qubit layout of the SWAP-test circuit (matches the paper's Fig. 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwapTestLayout {
    /// The ancilla / control qubit that is measured.
    pub ancilla: usize,
    /// First qubit of the learned-state register.
    pub learned_offset: usize,
    /// First qubit of the data register.
    pub data_offset: usize,
    /// Width of each register (learned and data are the same width).
    pub register_width: usize,
    /// Total number of qubits in the circuit.
    pub total_qubits: usize,
}

/// Computes the layout for a given register width: ancilla on qubit 0,
/// learned state on qubits `1..=m`, data on qubits `m+1..=2m`.
pub fn swap_test_layout(register_width: usize) -> SwapTestLayout {
    SwapTestLayout {
        ancilla: 0,
        learned_offset: 1,
        data_offset: 1 + register_width,
        register_width,
        total_qubits: 2 * register_width + 1,
    }
}

/// Converts the ancilla's probability of measuring |0⟩ into a fidelity,
/// clamped to the physical range [0, 1].
pub fn fidelity_from_p0(p0: f64) -> f64 {
    (2.0 * p0 - 1.0).clamp(0.0, 1.0)
}

/// Builds the full SWAP-test circuit for one data point.
///
/// The learned-state register is parametric (its angles are the trainable
/// parameters, indices `0..stack.parameter_count()`); the data register is
/// fixed to the encoding of `x`.
pub fn build_swap_test_circuit(
    stack: &LayerStack,
    encoder: &DataEncoder,
    x: &[f64],
) -> Result<(Circuit, SwapTestLayout), QuClassiError> {
    check_widths(stack, encoder)?;
    let layout = swap_test_layout(stack.num_qubits());
    let mut circuit = Circuit::new(layout.total_qubits);
    // Ancilla into superposition.
    circuit.h(layout.ancilla);
    // Learned state (parametric).
    stack.append_to(&mut circuit, layout.learned_offset, 0);
    // Data state (fixed).
    for gate in encoder.encoding_gates(x, layout.data_offset)? {
        circuit.push(gate);
    }
    // Pairwise controlled SWAPs.
    for i in 0..layout.register_width {
        circuit.cswap(
            layout.ancilla,
            layout.learned_offset + i,
            layout.data_offset + i,
        );
    }
    // Interfere and (conceptually) measure the ancilla.
    circuit.h(layout.ancilla);
    Ok((circuit, layout))
}

/// Builds the *serving-time* SWAP-test circuit for one trained class.
///
/// The gate sequence is identical to [`build_swap_test_circuit`], but the
/// roles of the two registers are swapped around the parameter axis:
///
/// * the learned register's trained angles (`class_params`) are baked in as
///   **fixed** gates — together with the leading ancilla Hadamard they are
///   parameter-free, so [`quclassi_sim::fusion::FusedCircuit::compile`]
///   hoists the whole class-state preparation into its precomputed static
///   prelude;
/// * the data register is **parametric**: symbolic parameters
///   `0 .. encoder.dim()` stand for the sample's encoding angles (in
///   [`DataEncoder::encoding_angles`] order), so one compiled circuit serves
///   every sample without re-lowering.
///
/// This is the circuit shape `quclassi-infer` compiles once per class.
pub fn build_class_swap_test_circuit(
    stack: &LayerStack,
    class_params: &[f64],
    encoder: &DataEncoder,
) -> Result<(Circuit, SwapTestLayout), QuClassiError> {
    check_widths(stack, encoder)?;
    let layout = swap_test_layout(stack.num_qubits());
    let mut circuit = Circuit::new(layout.total_qubits);
    circuit.h(layout.ancilla);
    // Learned state: trained angles bound in (parameter-free, hoistable).
    stack.append_bound_to(&mut circuit, layout.learned_offset, class_params)?;
    // Data state: symbolic encoding angles 0..dim.
    encoder.append_parametric_to(&mut circuit, layout.data_offset, 0);
    for i in 0..layout.register_width {
        circuit.cswap(
            layout.ancilla,
            layout.learned_offset + i,
            layout.data_offset + i,
        );
    }
    circuit.h(layout.ancilla);
    Ok((circuit, layout))
}

/// How fidelities are computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FidelityMethod {
    /// Exact inner product between separately prepared registers.
    Analytic,
    /// Full SWAP-test circuit through an [`Executor`] (supports noise/shots).
    SwapTest,
}

/// A configured fidelity estimator shared by training and inference.
///
/// ```
/// use quclassi::encoding::{DataEncoder, EncodingStrategy};
/// use quclassi::layers::LayerStack;
/// use quclassi::swap_test::FidelityEstimator;
/// use quclassi_sim::executor::Executor;
/// use rand::SeedableRng;
///
/// let encoder = DataEncoder::new(EncodingStrategy::DualAngle, 4).unwrap();
/// let stack = LayerStack::qc_s(encoder.num_qubits()).unwrap();
/// let params = vec![0.4, 1.1, 0.9, 0.2];
/// let x = [0.3, 0.8, 0.2, 0.6];
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
///
/// // The analytic path and the full SWAP-test circuit agree exactly.
/// let analytic = FidelityEstimator::analytic()
///     .estimate(&stack, &params, &encoder, &x, &mut rng)
///     .unwrap();
/// let swap = FidelityEstimator::swap_test(Executor::ideal())
///     .estimate(&stack, &params, &encoder, &x, &mut rng)
///     .unwrap();
/// assert!((analytic - swap).abs() < 1e-9);
/// assert!((0.0..=1.0).contains(&analytic));
/// ```
#[derive(Clone, Debug)]
pub struct FidelityEstimator {
    method: FidelityMethod,
    executor: Executor,
}

impl Default for FidelityEstimator {
    fn default() -> Self {
        FidelityEstimator::analytic()
    }
}

impl FidelityEstimator {
    /// Exact analytic estimator (no noise, no shots).
    pub fn analytic() -> Self {
        FidelityEstimator {
            method: FidelityMethod::Analytic,
            executor: Executor::ideal(),
        }
    }

    /// SWAP-test estimator through the given executor (which may be noisy
    /// and/or shot-limited).
    pub fn swap_test(executor: Executor) -> Self {
        FidelityEstimator {
            method: FidelityMethod::SwapTest,
            executor,
        }
    }

    /// The estimation method.
    pub fn method(&self) -> FidelityMethod {
        self.method
    }

    /// The executor used for SWAP-test estimation.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Whether estimates consume randomness (SWAP test through a noisy or
    /// shot-limited executor). Deterministic estimators never touch the
    /// caller's RNG, which is what lets the batched training path stay
    /// bit-identical to the sequential one.
    pub fn is_stochastic(&self) -> bool {
        self.method == FidelityMethod::SwapTest && !self.executor.is_exact()
    }

    /// Whether fidelities of `stack` are scored through the product-state
    /// kernel: the stack is separable and the estimator deterministic
    /// (analytic, or a SWAP test through an exact executor, whose
    /// `2·P(0) − 1` equals `F` exactly). Compiled serving dispatches on the
    /// same predicate, so it and this estimator always share a kernel.
    pub fn scores_product_states(&self, stack: &LayerStack) -> bool {
        stack.is_separable() && !self.is_stochastic()
    }

    fn check_param_len(&self, stack: &LayerStack, params: &[f64]) -> Result<(), QuClassiError> {
        if params.len() != stack.parameter_count() {
            return Err(QuClassiError::InvalidConfig(format!(
                "expected {} parameters, got {}",
                stack.parameter_count(),
                params.len()
            )));
        }
        Ok(())
    }

    /// Estimates `|⟨φ_x|ω(params)⟩|²` for *many* parameter vectors against
    /// one data point, fanning the evaluations out over `batch`.
    ///
    /// This is the training hot path: one parameter-shift step needs
    /// `2·P + 1` fidelity evaluations of the same circuit shape, so the
    /// circuit is built (and, for the SWAP-test method, fused) **once** and
    /// reused by every job instead of being rebuilt per evaluation as
    /// [`FidelityEstimator::estimate`] must. When
    /// [`FidelityEstimator::scores_product_states`] holds, each evaluation
    /// is a product-state fold and runs inline instead of on `batch`.
    ///
    /// Determinism: per-job RNG streams are derived from `base_seed` and the
    /// job index, so results are bit-identical for any thread count. For
    /// deterministic estimators (analytic, or exact SWAP test) `base_seed`
    /// is ignored and the results are additionally bit-identical to
    /// sequential [`FidelityEstimator::estimate`] calls on the same inputs,
    /// except for an entangled stack under the exact SWAP test: its fused
    /// circuit re-associates floats, and agrees to about 1e-10.
    pub fn estimate_many(
        &self,
        stack: &LayerStack,
        param_sets: &[Vec<f64>],
        encoder: &DataEncoder,
        x: &[f64],
        batch: &BatchExecutor,
        base_seed: u64,
    ) -> Result<Vec<f64>, QuClassiError> {
        for params in param_sets {
            self.check_param_len(stack, params)?;
        }
        if self.scores_product_states(stack) {
            // Inline: one evaluation is a few hundred nanoseconds, less
            // than handing it to a worker. Sequential, so bit-identical to
            // `estimate` and to itself at any thread count.
            check_widths(stack, encoder)?;
            let circuit = stack.build_circuit();
            let data = encoder.encode_product_state(x)?;
            return param_sets
                .iter()
                .map(|params| product_fidelity(&circuit, params, &data))
                .collect();
        }
        match self.method {
            FidelityMethod::Analytic => {
                check_widths(stack, encoder)?;
                let circuit = stack.build_circuit();
                let data = encoder.encode_state(x)?;
                let jobs: Vec<&[f64]> = param_sets.iter().map(Vec::as_slice).collect();
                batch
                    .run_seeded(base_seed, jobs, |_, params, _| {
                        // Unfused per-gate application, as in `estimate`:
                        // fusing here would re-associate floats and break
                        // the exact sequential-equality guarantee this
                        // method makes.
                        circuit
                            .execute(params)
                            .and_then(|learned| learned.fidelity(&data))
                    })
                    .into_iter()
                    .map(|r| r.map_err(QuClassiError::from))
                    .collect()
            }
            FidelityMethod::SwapTest => {
                let (circuit, layout) = build_swap_test_circuit(stack, encoder, x)?;
                let fused = FusedCircuit::compile(&circuit);
                let p1s = batch.probabilities_of_one(
                    &self.executor,
                    &fused,
                    param_sets,
                    layout.ancilla,
                    base_seed,
                )?;
                Ok(p1s
                    .into_iter()
                    .map(|p1| fidelity_from_p0(1.0 - p1))
                    .collect())
            }
        }
    }

    /// Estimates `|⟨φ_x|ω(params)⟩|²`.
    pub fn estimate<R: Rng + ?Sized>(
        &self,
        stack: &LayerStack,
        params: &[f64],
        encoder: &DataEncoder,
        x: &[f64],
        rng: &mut R,
    ) -> Result<f64, QuClassiError> {
        self.check_param_len(stack, params)?;
        if self.scores_product_states(stack) {
            check_widths(stack, encoder)?;
            let data = encoder.encode_product_state(x)?;
            return product_fidelity(&stack.build_circuit(), params, &data);
        }
        match self.method {
            FidelityMethod::Analytic => {
                check_widths(stack, encoder)?;
                let learned = stack.build_circuit().execute(params)?;
                let data = encoder.encode_state(x)?;
                Ok(learned.fidelity(&data)?)
            }
            FidelityMethod::SwapTest => {
                let (circuit, layout) = build_swap_test_circuit(stack, encoder, x)?;
                let p1 = self
                    .executor
                    .probability_of_one(&circuit, params, layout.ancilla, rng)?;
                Ok(fidelity_from_p0(1.0 - p1))
            }
        }
    }
}

/// The learned state of a separable stack's circuit, bound to `params`,
/// as a product state.
///
/// # Errors
/// Returns an error when the circuit has an entangling gate, or a
/// parameter is missing.
pub fn class_product_state(
    circuit: &Circuit,
    params: &[f64],
) -> Result<ProductState, QuClassiError> {
    ProductState::from_circuit(circuit, params)?.ok_or_else(|| {
        QuClassiError::InvalidConfig(
            "the learned-state circuit entangles its qubits and has no product form".to_string(),
        )
    })
}

/// `|⟨ω(params)|φ_x⟩|²` through the product-state kernel.
fn product_fidelity(
    circuit: &Circuit,
    params: &[f64],
    data: &ProductState,
) -> Result<f64, QuClassiError> {
    Ok(class_product_state(circuit, params)?.fidelity(data)?)
}

fn check_widths(stack: &LayerStack, encoder: &DataEncoder) -> Result<(), QuClassiError> {
    if stack.num_qubits() != encoder.num_qubits() {
        return Err(QuClassiError::InvalidConfig(format!(
            "learned-state register has {} qubits but the encoder needs {}",
            stack.num_qubits(),
            encoder.num_qubits()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::EncodingStrategy;
    use quclassi_sim::noise::NoiseModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(dim: usize) -> (LayerStack, DataEncoder) {
        let encoder = DataEncoder::new(EncodingStrategy::DualAngle, dim).unwrap();
        let stack = LayerStack::qc_s(encoder.num_qubits()).unwrap();
        (stack, encoder)
    }

    #[test]
    fn layout_matches_paper_figure_7() {
        // Iris: 4 features → 2-qubit registers → 5-qubit circuit.
        let layout = swap_test_layout(2);
        assert_eq!(layout.total_qubits, 5);
        assert_eq!(layout.ancilla, 0);
        assert_eq!(layout.learned_offset, 1);
        assert_eq!(layout.data_offset, 3);
    }

    #[test]
    fn mnist_layout_uses_17_qubits() {
        // 16 PCA features → 8-qubit registers → 17 qubits (Section 5.3.1).
        assert_eq!(swap_test_layout(8).total_qubits, 17);
    }

    #[test]
    fn fidelity_from_p0_clamps() {
        assert!((fidelity_from_p0(1.0) - 1.0).abs() < 1e-12);
        assert!((fidelity_from_p0(0.5)).abs() < 1e-12);
        assert_eq!(fidelity_from_p0(0.4), 0.0);
        assert_eq!(fidelity_from_p0(1.2), 1.0);
    }

    #[test]
    fn swap_test_matches_analytic_fidelity_exactly() {
        let (stack, encoder) = setup(4);
        let mut rng = StdRng::seed_from_u64(1);
        let x = vec![0.3, 0.8, 0.2, 0.6];
        let params: Vec<f64> = (0..stack.parameter_count())
            .map(|i| 0.4 + 0.3 * i as f64)
            .collect();
        let analytic = FidelityEstimator::analytic()
            .estimate(&stack, &params, &encoder, &x, &mut rng)
            .unwrap();
        let swap = FidelityEstimator::swap_test(Executor::ideal())
            .estimate(&stack, &params, &encoder, &x, &mut rng)
            .unwrap();
        assert!(
            (analytic - swap).abs() < 1e-9,
            "analytic {analytic} vs swap {swap}"
        );
    }

    #[test]
    fn identical_states_give_unit_fidelity_through_swap_test() {
        // If the learned state is exactly the encoding of x, fidelity = 1.
        let encoder = DataEncoder::new(EncodingStrategy::SingleAngle, 2).unwrap();
        let stack = LayerStack::qc_s(2).unwrap();
        let x = vec![0.37, 0.81];
        // QC-S applies RY(θ0) RZ(θ1) per qubit; choose θ's to reproduce the
        // encoding (RZ angle of 0 ≠ encoding's RZ, but SingleAngle encoding has
        // no RZ, so set RZ params to 0).
        let params = vec![
            crate::encoding::feature_to_angle(x[0]),
            0.0,
            crate::encoding::feature_to_angle(x[1]),
            0.0,
        ];
        let mut rng = StdRng::seed_from_u64(2);
        for est in [
            FidelityEstimator::analytic(),
            FidelityEstimator::swap_test(Executor::ideal()),
        ] {
            let f = est
                .estimate(&stack, &params, &encoder, &x, &mut rng)
                .unwrap();
            assert!((f - 1.0).abs() < 1e-9, "fidelity {f}");
        }
    }

    #[test]
    fn orthogonal_states_give_zero_fidelity() {
        let encoder = DataEncoder::new(EncodingStrategy::SingleAngle, 1).unwrap();
        let stack = LayerStack::qc_s(1).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        // Data encodes |1⟩ (x = 1); learned state stays |0⟩ (all params 0).
        let f = FidelityEstimator::analytic()
            .estimate(&stack, &[0.0, 0.0], &encoder, &[1.0], &mut rng)
            .unwrap();
        assert!(f < 1e-12);
        let f = FidelityEstimator::swap_test(Executor::ideal())
            .estimate(&stack, &[0.0, 0.0], &encoder, &[1.0], &mut rng)
            .unwrap();
        assert!(f < 1e-9);
    }

    #[test]
    fn shot_limited_swap_test_is_close_to_exact() {
        let (stack, encoder) = setup(4);
        let mut rng = StdRng::seed_from_u64(4);
        let x = vec![0.5, 0.1, 0.9, 0.4];
        let params: Vec<f64> = vec![0.3, 1.0, 2.0, 0.2];
        let exact = FidelityEstimator::analytic()
            .estimate(&stack, &params, &encoder, &x, &mut rng)
            .unwrap();
        // 8000 shots, the count used on IBM-Q in Section 5.4.
        let sampled = FidelityEstimator::swap_test(Executor::ideal().with_shots(Some(8000)))
            .estimate(&stack, &params, &encoder, &x, &mut rng)
            .unwrap();
        assert!((exact - sampled).abs() < 0.05, "{exact} vs {sampled}");
    }

    #[test]
    fn noisy_swap_test_underestimates_fidelity() {
        // Noise degrades the interference, pulling the measured fidelity
        // towards the orthogonal-state value.
        let (stack, encoder) = setup(4);
        let mut rng = StdRng::seed_from_u64(5);
        let x = vec![0.2, 0.3, 0.4, 0.5];
        // Train-free check: use the exact encoding as the learned state so
        // the ideal fidelity is high.
        let params = vec![
            crate::encoding::feature_to_angle(0.2),
            crate::encoding::feature_to_angle(0.3),
            crate::encoding::feature_to_angle(0.4),
            crate::encoding::feature_to_angle(0.5),
        ];
        let ideal = FidelityEstimator::swap_test(Executor::ideal())
            .estimate(&stack, &params, &encoder, &x, &mut rng)
            .unwrap();
        let noisy_exec = Executor::noisy(NoiseModel::depolarizing(0.002, 0.02, 0.02).unwrap())
            .with_trajectories(40);
        let noisy = FidelityEstimator::swap_test(noisy_exec)
            .estimate(&stack, &params, &encoder, &x, &mut rng)
            .unwrap();
        assert!(ideal > 0.9);
        assert!(noisy < ideal);
    }

    #[test]
    fn mismatched_widths_and_param_counts_error() {
        let encoder = DataEncoder::new(EncodingStrategy::DualAngle, 4).unwrap();
        let wrong_stack = LayerStack::qc_s(3).unwrap();
        assert!(build_swap_test_circuit(&wrong_stack, &encoder, &[0.1, 0.2, 0.3, 0.4]).is_err());
        let stack = LayerStack::qc_s(2).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let err = FidelityEstimator::analytic().estimate(
            &stack,
            &[0.0],
            &encoder,
            &[0.1, 0.2, 0.3, 0.4],
            &mut rng,
        );
        assert!(err.is_err());
    }

    #[test]
    fn estimate_many_matches_sequential_estimates_bit_for_bit() {
        // Deterministic estimators: the batched path must reproduce the
        // sequential path exactly, for both methods and any thread count.
        let (stack, encoder) = setup(4);
        let x = vec![0.3, 0.8, 0.2, 0.6];
        let sets: Vec<Vec<f64>> = (0..5)
            .map(|s| {
                (0..stack.parameter_count())
                    .map(|i| 0.1 + 0.2 * s as f64 + 0.05 * i as f64)
                    .collect()
            })
            .collect();
        for est in [
            FidelityEstimator::analytic(),
            FidelityEstimator::swap_test(Executor::ideal()),
        ] {
            assert!(!est.is_stochastic());
            let mut rng = StdRng::seed_from_u64(9);
            let sequential: Vec<u64> = sets
                .iter()
                .map(|p| {
                    est.estimate(&stack, p, &encoder, &x, &mut rng)
                        .unwrap()
                        .to_bits()
                })
                .collect();
            for threads in [1, 2, 8] {
                let batch = BatchExecutor::new(threads, 0);
                let batched: Vec<u64> = est
                    .estimate_many(&stack, &sets, &encoder, &x, &batch, 12345)
                    .unwrap()
                    .into_iter()
                    .map(f64::to_bits)
                    .collect();
                if est.method() == FidelityMethod::Analytic {
                    assert_eq!(sequential, batched, "{threads} threads");
                } else {
                    // The fused SWAP-test path re-associates floating point;
                    // equality holds to fusion tolerance and across threads.
                    for (s, b) in sequential.iter().zip(batched.iter()) {
                        let (s, b) = (f64::from_bits(*s), f64::from_bits(*b));
                        assert!((s - b).abs() < 1e-10, "{s} vs {b}");
                    }
                    let one_thread: Vec<u64> = est
                        .estimate_many(
                            &stack,
                            &sets,
                            &encoder,
                            &x,
                            &BatchExecutor::new(1, 0),
                            12345,
                        )
                        .unwrap()
                        .into_iter()
                        .map(f64::to_bits)
                        .collect();
                    assert_eq!(one_thread, batched, "{threads} threads");
                }
            }
        }
    }

    #[test]
    fn stochastic_estimate_many_is_thread_count_invariant() {
        let (stack, encoder) = setup(4);
        let x = vec![0.5, 0.1, 0.9, 0.4];
        let est = FidelityEstimator::swap_test(Executor::ideal().with_shots(Some(512)));
        assert!(est.is_stochastic());
        let sets: Vec<Vec<f64>> = (0..4)
            .map(|s| vec![0.3 + s as f64 * 0.2, 1.0, 2.0, 0.2])
            .collect();
        let run = |threads: usize, seed: u64| -> Vec<u64> {
            est.estimate_many(
                &stack,
                &sets,
                &encoder,
                &x,
                &BatchExecutor::new(threads, 0),
                seed,
            )
            .unwrap()
            .into_iter()
            .map(f64::to_bits)
            .collect()
        };
        assert_eq!(run(1, 7), run(2, 7));
        assert_eq!(run(1, 7), run(8, 7));
        // A different base seed draws different shots.
        assert_ne!(run(1, 7), run(1, 8));
    }

    #[test]
    fn estimate_many_validates_every_parameter_set() {
        let (stack, encoder) = setup(4);
        let good = vec![0.1; stack.parameter_count()];
        let bad = vec![0.1; stack.parameter_count() + 1];
        let err = FidelityEstimator::analytic().estimate_many(
            &stack,
            &[good, bad],
            &encoder,
            &[0.1, 0.2, 0.3, 0.4],
            &BatchExecutor::default(),
            0,
        );
        assert!(err.is_err());
    }

    #[test]
    fn class_swap_test_circuit_matches_training_shape() {
        // Binding a sample's angles into the serving circuit reproduces the
        // training-time circuit (sample baked in, class params symbolic) on
        // the ancilla, for every architecture.
        let encoder = DataEncoder::new(EncodingStrategy::DualAngle, 4).unwrap();
        let x = vec![0.25, 0.7, 0.4, 0.9];
        for stack in [LayerStack::qc_s(2).unwrap(), LayerStack::qc_sde(2).unwrap()] {
            let params: Vec<f64> = (0..stack.parameter_count())
                .map(|i| 0.3 + 0.17 * i as f64)
                .collect();
            let (train_circuit, layout) = build_swap_test_circuit(&stack, &encoder, &x).unwrap();
            let (serve_circuit, serve_layout) =
                build_class_swap_test_circuit(&stack, &params, &encoder).unwrap();
            assert_eq!(layout, serve_layout);
            assert_eq!(serve_circuit.num_parameters(), encoder.dim());
            assert_eq!(serve_circuit.gate_count(), train_circuit.gate_count());
            let angles = encoder.encoding_angles(&x).unwrap();
            let a = train_circuit.execute(&params).unwrap();
            let b = serve_circuit.execute(&angles).unwrap();
            // Same gates, different emission order between the registers is
            // impossible by construction — states agree bit-for-bit.
            assert_eq!(a, b, "{}", stack.architecture_name());
        }
    }

    #[test]
    fn class_swap_test_circuit_prelude_covers_class_state() {
        // The whole learned register plus the leading Hadamard must land in
        // the fused static prelude: per-sample work is only the data side.
        use quclassi_sim::fusion::FusedCircuit;
        let encoder = DataEncoder::new(EncodingStrategy::DualAngle, 4).unwrap();
        let stack = LayerStack::qc_s(2).unwrap();
        let params = vec![0.4, 1.0, 0.2, 0.8];
        let (circuit, _) = build_class_swap_test_circuit(&stack, &params, &encoder).unwrap();
        let fused = FusedCircuit::compile(&circuit);
        assert!(
            fused.prefix_len() >= 1,
            "expected the class-state preparation to be hoisted"
        );
        assert!(fused.num_static_ops() >= 1);
    }

    #[test]
    fn class_swap_test_circuit_validates_inputs() {
        let encoder = DataEncoder::new(EncodingStrategy::DualAngle, 4).unwrap();
        let wrong_stack = LayerStack::qc_s(3).unwrap();
        assert!(build_class_swap_test_circuit(&wrong_stack, &[0.0; 6], &encoder).is_err());
        let stack = LayerStack::qc_s(2).unwrap();
        assert!(build_class_swap_test_circuit(&stack, &[0.0; 3], &encoder).is_err());
    }

    #[test]
    fn swap_test_circuit_structure() {
        let (stack, encoder) = setup(4);
        let (circuit, layout) =
            build_swap_test_circuit(&stack, &encoder, &[0.1, 0.2, 0.3, 0.4]).unwrap();
        assert_eq!(circuit.num_qubits(), 5);
        // 2 Hadamards + 4 learned-state rotations + 4 encoding rotations + 2 CSWAPs.
        assert_eq!(circuit.gate_count(), 12);
        assert_eq!(circuit.num_parameters(), stack.parameter_count());
        assert_eq!(layout.register_width, 2);
        let text = circuit.to_text();
        assert!(text.contains("cswap"));
        assert!(text.starts_with("h q[0];"));
    }
}
