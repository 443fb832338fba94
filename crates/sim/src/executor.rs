//! Circuit execution backends.
//!
//! The [`Executor`] is the single entry point QuClassi uses to evaluate a
//! circuit: it hides whether the run is ideal or noisy, exact or sampled.
//!
//! * **Ideal** — state-vector simulation, exact probabilities.
//! * **Noisy trajectories** — state-vector simulation with stochastic Kraus
//!   branches after each gate, averaged over a configurable number of
//!   trajectories. Works for any register size the state-vector engine
//!   supports.
//! * **Noisy density matrix** — exact noisy simulation for small registers.
//!
//! Shot noise is layered on top: when a shot count is configured, the
//! estimated probability is replaced by a binomial sample (and corrupted by
//! the readout-error model), which is exactly how estimates behave on real
//! hardware with a finite number of repetitions.

use crate::circuit::Circuit;
use crate::density::DensityMatrix;
use crate::error::SimError;
use crate::noise::NoiseModel;
use crate::state::StateVector;
use rand::Rng;

/// How the quantum state is propagated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Pure state-vector simulation (ideal, or trajectory-sampled when noisy).
    StateVector,
    /// Exact density-matrix simulation (small registers only).
    DensityMatrix,
}

/// A configured execution backend.
///
/// ```
/// use quclassi_sim::circuit::Circuit;
/// use quclassi_sim::executor::Executor;
/// use rand::SeedableRng;
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cnot(0, 1);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
///
/// // Exact probabilities through the ideal backend…
/// let exact = Executor::ideal()
///     .probability_of_one(&bell, &[], 1, &mut rng)
///     .unwrap();
/// assert!((exact - 0.5).abs() < 1e-12);
///
/// // …and a finite-shot estimate of the same quantity.
/// let sampled = Executor::ideal()
///     .with_shots(Some(4000))
///     .probability_of_one(&bell, &[], 1, &mut rng)
///     .unwrap();
/// assert!((sampled - 0.5).abs() < 0.05);
/// ```
#[derive(Clone, Debug)]
pub struct Executor {
    noise: NoiseModel,
    method: Method,
    shots: Option<usize>,
    trajectories: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::ideal()
    }
}

impl Executor {
    /// An ideal, exact-probability executor.
    pub fn ideal() -> Self {
        Executor {
            noise: NoiseModel::ideal(),
            method: Method::StateVector,
            shots: None,
            trajectories: 1,
        }
    }

    /// A noisy executor using trajectory sampling on the state vector.
    pub fn noisy(noise: NoiseModel) -> Self {
        Executor {
            noise,
            method: Method::StateVector,
            shots: None,
            trajectories: 16,
        }
    }

    /// A noisy executor using exact density-matrix evolution.
    pub fn noisy_density(noise: NoiseModel) -> Self {
        Executor {
            noise,
            method: Method::DensityMatrix,
            shots: None,
            trajectories: 1,
        }
    }

    /// Sets the number of measurement shots; `None` means exact expectation.
    ///
    /// # Panics
    /// Panics if `shots` is `Some(0)`: zero repetitions estimate nothing,
    /// so the mistake is rejected at construction, like zero trajectories.
    pub fn with_shots(mut self, shots: Option<usize>) -> Self {
        assert!(shots != Some(0), "an executor needs at least one shot");
        self.shots = shots;
        self
    }

    /// Sets the number of noise trajectories averaged per evaluation
    /// (ignored for ideal and density-matrix execution).
    ///
    /// # Panics
    /// Panics if `trajectories` is zero: an executor that averages zero
    /// trajectories can never produce an estimate, so the mistake is
    /// rejected at construction instead of being silently clamped.
    pub fn with_trajectories(mut self, trajectories: usize) -> Self {
        assert!(
            trajectories > 0,
            "an executor needs at least one trajectory"
        );
        self.trajectories = trajectories;
        self
    }

    /// The configured noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// The configured shot count.
    pub fn shots(&self) -> Option<usize> {
        self.shots
    }

    /// Whether the executor adds any nondeterminism (noise or shots).
    pub fn is_exact(&self) -> bool {
        self.noise.is_ideal() && self.shots.is_none()
    }

    /// Runs the circuit and returns the exact (or trajectory-averaged)
    /// probability that `qubit` measures |1⟩, before shot sampling.
    fn raw_probability_of_one<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        params: &[f64],
        qubit: usize,
        rng: &mut R,
    ) -> Result<f64, SimError> {
        match self.method {
            Method::DensityMatrix => {
                let gates = circuit.bind(params)?;
                let mut rho = DensityMatrix::zero_state(circuit.num_qubits());
                if self.noise.is_ideal() {
                    rho.apply_gates(&gates)?;
                } else {
                    rho.apply_gates_with_noise(&gates, &self.noise)?;
                }
                Ok(rho.probability_of_one(qubit)?)
            }
            Method::StateVector => {
                if self.noise.is_ideal() {
                    let sv = circuit.execute(params)?;
                    return sv.probability_of_one(qubit);
                }
                let gates = circuit.bind(params)?;
                let mut acc = 0.0;
                for _ in 0..self.trajectories {
                    let mut sv = StateVector::zero_state(circuit.num_qubits());
                    for g in &gates {
                        sv.apply_gate(g)?;
                        self.noise.apply_after_gate(&mut sv, g, rng)?;
                    }
                    acc += sv.probability_of_one(qubit)?;
                }
                Ok(acc / self.trajectories as f64)
            }
        }
    }

    /// Applies readout corruption and (if configured) shot sampling to an
    /// exact probability of measuring |1⟩: the measurement step of every
    /// estimate, also for callers that know that probability without
    /// running a circuit.
    pub fn sample_readout<R: Rng + ?Sized>(&self, p_true: f64, rng: &mut R) -> f64 {
        let p_read = self.noise.readout.corrupt_probability(p_true);
        match self.shots {
            None => p_read,
            Some(shots) => {
                let mut ones = 0usize;
                for _ in 0..shots {
                    if rng.gen::<f64>() < p_read {
                        ones += 1;
                    }
                }
                ones as f64 / shots as f64
            }
        }
    }

    /// Estimates the probability that `qubit` measures |1⟩ after running the
    /// circuit, including readout error and (if configured) shot noise.
    pub fn probability_of_one<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        params: &[f64],
        qubit: usize,
        rng: &mut R,
    ) -> Result<f64, SimError> {
        let p_true = self.raw_probability_of_one(circuit, params, qubit, rng)?;
        Ok(self.sample_readout(p_true, rng))
    }

    /// Estimates ⟨Z⟩ on a qubit: `1 - 2·P(1)`.
    pub fn expectation_z<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        params: &[f64],
        qubit: usize,
        rng: &mut R,
    ) -> Result<f64, SimError> {
        Ok(1.0 - 2.0 * self.probability_of_one(circuit, params, qubit, rng)?)
    }

    /// Runs the circuit and samples `shots` full-register measurements,
    /// returning a histogram over basis-state indices. Noise is applied per
    /// trajectory (one trajectory per shot for noisy state-vector runs).
    pub fn sample_counts<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        params: &[f64],
        shots: usize,
        rng: &mut R,
    ) -> Result<Vec<(usize, usize)>, SimError> {
        let mut histogram = std::collections::BTreeMap::new();
        match self.method {
            Method::DensityMatrix => {
                let gates = circuit.bind(params)?;
                let mut rho = DensityMatrix::zero_state(circuit.num_qubits());
                if self.noise.is_ideal() {
                    rho.apply_gates(&gates)?;
                } else {
                    rho.apply_gates_with_noise(&gates, &self.noise)?;
                }
                let probs = rho.probabilities();
                for _ in 0..shots {
                    let r: f64 = rng.gen();
                    let mut acc = 0.0;
                    let mut outcome = probs.len() - 1;
                    for (i, p) in probs.iter().enumerate() {
                        acc += p;
                        if r < acc {
                            outcome = i;
                            break;
                        }
                    }
                    *histogram.entry(outcome).or_insert(0usize) += 1;
                }
            }
            Method::StateVector => {
                if self.noise.is_ideal() {
                    let sv = circuit.execute(params)?;
                    for _ in 0..shots {
                        *histogram.entry(sv.sample(rng)).or_insert(0usize) += 1;
                    }
                } else {
                    let gates = circuit.bind(params)?;
                    for _ in 0..shots {
                        let mut sv = StateVector::zero_state(circuit.num_qubits());
                        for g in &gates {
                            sv.apply_gate(g)?;
                            self.noise.apply_after_gate(&mut sv, g, rng)?;
                        }
                        *histogram.entry(sv.sample(rng)).or_insert(0usize) += 1;
                    }
                }
            }
        }
        Ok(histogram.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bell_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        c
    }

    #[test]
    fn ideal_executor_gives_exact_probabilities() {
        let mut rng = StdRng::seed_from_u64(0);
        let exec = Executor::ideal();
        assert!(exec.is_exact());
        let p = exec
            .probability_of_one(&bell_circuit(), &[], 1, &mut rng)
            .unwrap();
        assert!((p - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shot_noise_converges_to_exact_value() {
        let mut rng = StdRng::seed_from_u64(1);
        let exec = Executor::ideal().with_shots(Some(20_000));
        assert!(!exec.is_exact());
        let p = exec
            .probability_of_one(&bell_circuit(), &[], 0, &mut rng)
            .unwrap();
        assert!((p - 0.5).abs() < 0.02);
    }

    #[test]
    fn parametric_circuit_through_executor() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut c = Circuit::new(1);
        c.ry_param(0, 0);
        let exec = Executor::ideal();
        let x: f64 = 0.3;
        let theta = 2.0 * x.sqrt().asin();
        let p = exec.probability_of_one(&c, &[theta], 0, &mut rng).unwrap();
        assert!((p - x).abs() < 1e-12);
    }

    #[test]
    fn noisy_trajectory_and_density_agree_for_small_circuit() {
        let noise = NoiseModel::depolarizing(0.02, 0.05, 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let c = bell_circuit();
        let exact = Executor::noisy_density(noise.clone())
            .probability_of_one(&c, &[], 1, &mut rng)
            .unwrap();
        let sampled = Executor::noisy(noise)
            .with_trajectories(600)
            .probability_of_one(&c, &[], 1, &mut rng)
            .unwrap();
        assert!(
            (exact - sampled).abs() < 0.05,
            "density {exact} vs trajectories {sampled}"
        );
    }

    #[test]
    fn noise_pulls_probability_toward_half() {
        // A deterministic |1> preparation measured through a noisy device
        // gives P(1) strictly below 1.
        let mut rng = StdRng::seed_from_u64(4);
        let mut c = Circuit::new(1);
        c.x(0);
        let noise = NoiseModel::depolarizing(0.05, 0.1, 0.03).unwrap();
        let p = Executor::noisy_density(noise)
            .probability_of_one(&c, &[], 0, &mut rng)
            .unwrap();
        assert!(p < 0.99);
        assert!(p > 0.8);
    }

    #[test]
    fn readout_error_applies_even_without_gate_noise() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut noise = NoiseModel::ideal();
        noise.readout = crate::noise::ReadoutError::new(0.1, 0.1).unwrap();
        let mut c = Circuit::new(1);
        c.x(0);
        let p = Executor::noisy_density(noise)
            .probability_of_one(&c, &[], 0, &mut rng)
            .unwrap();
        assert!((p - 0.9).abs() < 1e-9);
    }

    #[test]
    fn expectation_z_matches_probability() {
        let mut rng = StdRng::seed_from_u64(6);
        let exec = Executor::ideal();
        let mut c = Circuit::new(1);
        c.x(0);
        let z = exec.expectation_z(&c, &[], 0, &mut rng).unwrap();
        assert!((z + 1.0).abs() < 1e-12);
    }

    #[test]
    fn sample_counts_sum_to_shots_and_match_distribution() {
        let mut rng = StdRng::seed_from_u64(7);
        let exec = Executor::ideal();
        let counts = exec
            .sample_counts(&bell_circuit(), &[], 4000, &mut rng)
            .unwrap();
        let total: usize = counts.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 4000);
        for (outcome, count) in counts {
            assert!(outcome == 0 || outcome == 3, "unexpected outcome {outcome}");
            let frac = count as f64 / 4000.0;
            assert!((frac - 0.5).abs() < 0.05);
        }
    }

    #[test]
    fn noisy_sample_counts_include_leakage_outcomes() {
        let mut rng = StdRng::seed_from_u64(8);
        let noise = NoiseModel::depolarizing(0.1, 0.2, 0.0).unwrap();
        let exec = Executor::noisy(noise);
        let counts = exec
            .sample_counts(&bell_circuit(), &[], 500, &mut rng)
            .unwrap();
        let total: usize = counts.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 500);
        // With strong depolarizing noise some |01> / |10> outcomes appear.
        let leaked: usize = counts
            .iter()
            .filter(|(o, _)| *o == 1 || *o == 2)
            .map(|(_, c)| *c)
            .sum();
        assert!(
            leaked > 0,
            "expected some leakage outcomes under heavy noise"
        );
    }

    #[test]
    #[should_panic(expected = "at least one trajectory")]
    fn zero_trajectories_rejected_at_construction() {
        let _ = Executor::ideal().with_trajectories(0);
    }

    #[test]
    #[should_panic(expected = "at least one shot")]
    fn zero_shots_rejected_at_construction() {
        let _ = Executor::ideal().with_shots(Some(0));
    }

    #[test]
    fn sample_readout_is_the_measurement_step_of_probability_of_one() {
        let mut c = Circuit::new(1);
        c.ry(0, 1.1);
        let p = c.execute(&[]).unwrap().probability_of_one(0).unwrap();
        let mut noise = NoiseModel::ideal();
        noise.readout = crate::noise::ReadoutError::new(0.05, 0.1).unwrap();
        for exec in [
            Executor::ideal().with_shots(Some(300)),
            Executor::noisy_density(noise).with_shots(Some(300)),
        ] {
            let direct = exec
                .probability_of_one(&c, &[], 0, &mut StdRng::seed_from_u64(13))
                .unwrap();
            let read = exec.sample_readout(p, &mut StdRng::seed_from_u64(13));
            assert_eq!(direct.to_bits(), read.to_bits());
        }
    }

    #[test]
    fn density_method_matches_statevector_for_ideal_runs() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut c = Circuit::new(3);
        c.h(0).cnot(0, 1).push(Gate::CRy {
            control: 1,
            target: 2,
            theta: 0.8,
        });
        let sv_exec = Executor::ideal();
        let dm_exec = Executor::noisy_density(NoiseModel::ideal());
        for q in 0..3 {
            let a = sv_exec.probability_of_one(&c, &[], q, &mut rng).unwrap();
            let b = dm_exec.probability_of_one(&c, &[], q, &mut rng).unwrap();
            assert!((a - b).abs() < 1e-9);
        }
    }
}
