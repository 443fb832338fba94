//! The SWAP test and fidelity estimation (paper Sections 3.3 and 4.4).
//!
//! QuClassi scores a data point against a class by the fidelity
//! `F = |⟨φ_x|ω_c⟩|²` between the encoded data state and the class's learned
//! state. Two estimation methods are provided:
//!
//! * **SWAP test** (paper-faithful): the `2·m + 1`-qubit circuit of Fig. 7
//!   — ancilla + learned register + data register — applies a Hadamard,
//!   per-pair CSWAPs, another Hadamard, and measures the ancilla.
//!   `P(ancilla = 0) = ½ + ½·F`, so `F = 2·P(0) − 1`. Estimates go through
//!   the [`Executor`], so they support shots and device noise.
//! * **Analytic**: prepare the two `m`-qubit registers separately and take
//!   the exact inner product. This is what training uses by default.
//!
//! For pure states `P(0) = ½ + ½·F` holds exactly whatever the layer
//! stack, so only an executor with gate noise or readout error
//! ([`FidelityEstimator::simulates_circuit`]) builds the SWAP-test circuit.
//! Every other estimate computes `F` with the analytic kernels: a separable
//! stack ([`LayerStack::is_separable`]) through
//! [`ProductState::fidelity`], `F = Π_q |⟨φ_q|ω_q⟩|²` in `O(m)`, an
//! entangled one through a statevector inner product. A noiseless SWAP
//! test without shots therefore returns the analytic `F` bit for bit; with
//! shots, the executor's [`Executor::sample_readout`] draws the ancilla's
//! `P(1) = (1 − F)/2` exactly as it would after running the circuit.

use crate::encoding::DataEncoder;
use crate::error::QuClassiError;
use crate::layers::LayerStack;
use quclassi_sim::batch::BatchExecutor;
use quclassi_sim::circuit::Circuit;
use quclassi_sim::executor::Executor;
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
///   **fixed** gates;
/// * the data register is **parametric**: symbolic parameters
///   `0 .. encoder.dim()` stand for the sample's encoding angles (in
///   [`DataEncoder::encoding_angles`] order), so one compiled circuit serves
///   every sample without re-lowering.
///
/// This is the circuit `quclassi-infer` builds once per class for
/// executors that simulate the SWAP test.
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
/// // A noiseless SWAP test without shots measures exactly F.
/// let analytic = FidelityEstimator::analytic()
///     .estimate(&stack, &params, &encoder, &x, &mut rng)
///     .unwrap();
/// let swap = FidelityEstimator::swap_test(Executor::ideal())
///     .estimate(&stack, &params, &encoder, &x, &mut rng)
///     .unwrap();
/// assert_eq!(analytic, swap);
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

    /// Whether estimates run the SWAP-test circuit: a SWAP test through an
    /// executor with gate noise or readout error. Without either, the
    /// ancilla reads `P(1) = (1 − F)/2` exactly whatever the stack, so F
    /// comes from the analytic kernels and only the shot draw (if any)
    /// remains.
    pub fn simulates_circuit(&self) -> bool {
        self.method == FidelityMethod::SwapTest && !self.executor.noise().is_ideal()
    }

    /// Passes an exact fidelity through the executor's measurement step:
    /// unchanged without shots, otherwise the shot estimate of the
    /// ancilla's `P(1) = (1 − F)/2` turned back into a fidelity. This is
    /// how every estimate that does not simulate the circuit reads out;
    /// compiled serving calls it too.
    pub fn measure<R: Rng + ?Sized>(&self, fidelity: f64, rng: &mut R) -> f64 {
        if self.executor.shots().is_none() {
            return fidelity;
        }
        let p1 = self.executor.sample_readout((1.0 - fidelity) / 2.0, rng);
        fidelity_from_p0(1.0 - p1)
    }

    /// Estimates `|⟨φ_x|ω(params)⟩|²` for *many* parameter vectors against
    /// one data point, fanning the evaluations out over `batch`.
    ///
    /// This is the training hot path: one parameter-shift step needs
    /// `2·P + 1` fidelity evaluations of the same shape, so the data state
    /// (or, when [`FidelityEstimator::simulates_circuit`] holds, the
    /// SWAP-test circuit) is built **once** and reused by every job. A
    /// separable stack's evaluations are product-state folds and run inline
    /// instead of on `batch`.
    ///
    /// Determinism: job `i` draws its shots or noise from the stream of
    /// `(base_seed, i)`, so results are bit-identical for any thread
    /// count. Deterministic estimators ignore `base_seed` and are
    /// bit-identical to sequential [`FidelityEstimator::estimate`] calls.
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
        let jobs: Vec<&[f64]> = param_sets.iter().map(Vec::as_slice).collect();
        if self.simulates_circuit() {
            let (circuit, layout) = build_swap_test_circuit(stack, encoder, x)?;
            return batch
                .run_seeded(base_seed, jobs, |_, params, rng| {
                    let p1 =
                        self.executor
                            .probability_of_one(&circuit, params, layout.ancilla, rng)?;
                    Ok(fidelity_from_p0(1.0 - p1))
                })
                .into_iter()
                .collect();
        }
        check_widths(stack, encoder)?;
        let circuit = stack.build_circuit();
        let fidelities: Vec<f64> = if stack.is_separable() {
            // Inline: one evaluation is a few hundred nanoseconds, less
            // than handing it to a worker.
            let data = encoder.encode_product_state(x)?;
            jobs.iter()
                .map(|params| product_fidelity(&circuit, params, &data))
                .collect::<Result<_, _>>()?
        } else {
            let data = encoder.encode_state(x)?;
            batch
                .run_seeded(base_seed, jobs, |_, params, _| {
                    circuit
                        .execute(params)
                        .and_then(|learned| learned.fidelity(&data))
                })
                .into_iter()
                .collect::<Result<_, _>>()?
        };
        if !self.is_stochastic() {
            return Ok(fidelities);
        }
        Ok(batch.run_seeded(base_seed, fidelities, |_, f, rng| self.measure(f, rng)))
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
        if self.simulates_circuit() {
            let (circuit, layout) = build_swap_test_circuit(stack, encoder, x)?;
            let p1 = self
                .executor
                .probability_of_one(&circuit, params, layout.ancilla, rng)?;
            return Ok(fidelity_from_p0(1.0 - p1));
        }
        check_widths(stack, encoder)?;
        let circuit = stack.build_circuit();
        let fidelity = if stack.is_separable() {
            product_fidelity(&circuit, params, &encoder.encode_product_state(x)?)?
        } else {
            circuit
                .execute(params)?
                .fidelity(&encoder.encode_state(x)?)?
        };
        Ok(self.measure(fidelity, rng))
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
        assert_eq!(analytic.to_bits(), swap.to_bits());
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
        // sequential path exactly, for both methods, separable and
        // entangled stacks, and any thread count; and the exact SWAP test
        // must equal the analytic method.
        let encoder = DataEncoder::new(EncodingStrategy::DualAngle, 4).unwrap();
        let x = vec![0.3, 0.8, 0.2, 0.6];
        for stack in [LayerStack::qc_s(2).unwrap(), LayerStack::qc_sde(2).unwrap()] {
            let sets: Vec<Vec<f64>> = (0..5)
                .map(|s| {
                    (0..stack.parameter_count())
                        .map(|i| 0.1 + 0.2 * s as f64 + 0.05 * i as f64)
                        .collect()
                })
                .collect();
            let mut per_method = Vec::new();
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
                    assert_eq!(sequential, batched, "{threads} threads");
                }
                per_method.push(sequential);
            }
            assert_eq!(
                per_method[0],
                per_method[1],
                "{}",
                stack.architecture_name()
            );
        }
    }

    #[test]
    fn shot_estimates_match_exact_fidelity_at_10k_shots() {
        // The shot draw is Binomial(shots, (1 − F)/2) on the ancilla: each
        // estimate lands within 5σ of the exact fidelity.
        let encoder = DataEncoder::new(EncodingStrategy::DualAngle, 4).unwrap();
        let x = vec![0.5, 0.1, 0.9, 0.4];
        let shots = 10_000usize;
        let est = FidelityEstimator::swap_test(Executor::ideal().with_shots(Some(shots)));
        for stack in [LayerStack::qc_s(2).unwrap(), LayerStack::qc_sde(2).unwrap()] {
            let sets: Vec<Vec<f64>> = (0..8)
                .map(|s| {
                    (0..stack.parameter_count())
                        .map(|i| 0.4 * s as f64 - 0.3 * i as f64)
                        .collect()
                })
                .collect();
            let batch = BatchExecutor::new(2, 0);
            let got = est
                .estimate_many(&stack, &sets, &encoder, &x, &batch, 31)
                .unwrap();
            let mut rng = StdRng::seed_from_u64(0);
            for (params, g) in sets.iter().zip(got) {
                let f = FidelityEstimator::analytic()
                    .estimate(&stack, params, &encoder, &x, &mut rng)
                    .unwrap();
                let p1 = (1.0 - f) / 2.0;
                // F = 1 − 2·P(1), so σ_F = 2·σ_P1.
                let sigma = 2.0 * (p1 * (1.0 - p1) / shots as f64).sqrt().max(1e-3);
                assert!((g - f).abs() < 5.0 * sigma, "sampled {g} vs exact {f}");
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
