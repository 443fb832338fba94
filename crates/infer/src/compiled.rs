//! The immutable serving artifact: a trained model compiled for inference.

use crate::cache::{CacheStats, EncodingCache};
use quclassi::encoding::DataEncoder;
use quclassi::error::QuClassiError;
use quclassi::loss::softmax;
use quclassi::model::{QuClassiConfig, QuClassiModel};
use quclassi::swap_test::{
    build_class_swap_test_circuit, class_product_state, fidelity_from_p0, FidelityEstimator,
};
use quclassi_sim::batch::BatchExecutor;
use quclassi_sim::circuit::Circuit;
use quclassi_sim::gemm::StateMatrix;
use quclassi_sim::product::ProductState;
use quclassi_sim::state::StateVector;
use rand::Rng;
use std::collections::HashMap;
use std::sync::Mutex;

/// Default capacity of the encoding-fingerprint LRU cache.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// The compiled per-class artifacts. `Product` and `Analytic` compute
/// exact fidelities; a shot-limited estimator then draws its shots from
/// them through [`FidelityEstimator::measure`].
#[derive(Clone, Debug)]
enum CompiledClasses {
    /// Separable stack: every class state |ω_c⟩ as a [`ProductState`],
    /// scored against the sample's product state through
    /// [`ProductState::fidelity`] — the kernel the estimator itself uses,
    /// so compiled and uncompiled answers are bit-identical.
    Product { class_states: Vec<ProductState> },
    /// Entangled stack: every class state |ω_c⟩ evaluated once at compile
    /// time and packed into one contiguous [`StateMatrix`] — scoring a
    /// sample is one in-place data-register preparation plus one GEMM row
    /// sweep over the packed class plane (one fixed-tree inner product per
    /// class, bit-identical to per-pair [`StateVector::fidelity`]).
    Analytic { class_matrix: StateMatrix },
    /// SWAP test through a noisy executor
    /// ([`FidelityEstimator::simulates_circuit`]): one circuit per class
    /// from [`build_class_swap_test_circuit`], with the trained angles
    /// baked in and the sample's encoding angles as its only parameters.
    NoisySwapTest {
        circuits: Vec<Circuit>,
        ancilla: usize,
    },
}

/// One serving result: the arg-max label plus the full softmax distribution
/// and the raw per-class fidelities it was derived from.
#[derive(Clone, Debug, PartialEq)]
pub struct Prediction {
    /// Predicted class: arg-max of `probabilities`, with exact ties
    /// resolving to the *highest* tied index — the same tie-breaking as
    /// `QuClassiModel::predict`, so compiled and uncompiled labels always
    /// agree.
    pub label: usize,
    /// Softmaxed class probabilities (sums to 1).
    pub probabilities: Vec<f64>,
    /// Raw state fidelities the probabilities were softmaxed from.
    pub fidelities: Vec<f64>,
}

impl Prediction {
    /// The probability assigned to the predicted label.
    pub fn confidence(&self) -> f64 {
        self.probabilities.get(self.label).copied().unwrap_or(0.0)
    }

    /// Gap between the top-1 and top-2 probabilities (1.0 for a single
    /// class): a margin near zero flags an ambiguous sample.
    pub fn margin(&self) -> f64 {
        let mut top = f64::NEG_INFINITY;
        let mut second = f64::NEG_INFINITY;
        for &p in &self.probabilities {
            if p > top {
                second = top;
                top = p;
            } else if p > second {
                second = p;
            }
        }
        if second.is_finite() {
            top - second
        } else {
            1.0
        }
    }

    /// The `k` most probable classes, most probable first. Exact ties
    /// resolve to the higher class index, consistent with
    /// [`Prediction::label`] (so `top_k(1)[0].0 == label` always holds).
    /// `k` is clamped to the class count.
    pub fn top_k(&self, k: usize) -> Vec<(usize, f64)> {
        let mut order: Vec<usize> = (0..self.probabilities.len()).collect();
        order.sort_by(|&a, &b| {
            self.probabilities[b]
                .partial_cmp(&self.probabilities[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.cmp(&a))
        });
        order
            .into_iter()
            .take(k)
            .map(|c| (c, self.probabilities[c]))
            .collect()
    }
}

/// A trained QuClassi model compiled into an immutable inference artifact.
///
/// Compile once with [`CompiledModel::compile`]; every class-state
/// evaluation and circuit lowering happens there. Serving calls
/// ([`CompiledModel::predict`], [`CompiledModel::predict_many`]) only
/// encode a sample and score it against the precompiled classes.
///
/// ```
/// use quclassi::prelude::*;
/// use quclassi_infer::CompiledModel;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let model =
///     QuClassiModel::with_random_parameters(QuClassiConfig::qc_s(4, 3), &mut rng).unwrap();
/// let compiled = CompiledModel::compile(&model, FidelityEstimator::analytic()).unwrap();
///
/// let x = [0.2, 0.7, 0.4, 0.9];
/// // Bit-identical to the uncompiled path, for every deterministic query.
/// let fast = compiled.predict_proba(&x, &mut rng).unwrap();
/// let slow = model.predict_proba(&x, &FidelityEstimator::analytic(), &mut rng).unwrap();
/// assert_eq!(fast, slow);
/// assert_eq!(
///     compiled.predict(&x, &mut rng).unwrap(),
///     model.predict(&x, &FidelityEstimator::analytic(), &mut rng).unwrap(),
/// );
/// ```
#[derive(Debug)]
pub struct CompiledModel {
    config: QuClassiConfig,
    encoder: DataEncoder,
    estimator: FidelityEstimator,
    classes: CompiledClasses,
    /// Capacity > 0 and deterministic estimator, frozen at construction so
    /// the hot path never locks the cache just to learn it is disabled.
    cache_enabled: bool,
    cache: Mutex<EncodingCache>,
}

impl Clone for CompiledModel {
    fn clone(&self) -> Self {
        CompiledModel {
            config: self.config.clone(),
            encoder: self.encoder.clone(),
            estimator: self.estimator.clone(),
            classes: self.classes.clone(),
            cache_enabled: self.cache_enabled,
            cache: Mutex::new(self.lock_cache().clone()),
        }
    }
}

impl CompiledModel {
    /// Compiles a trained model for serving under `estimator`.
    ///
    /// * SWAP test through a noisy executor: each class gets its own
    ///   SWAP-test circuit with the trained angles baked in and the data
    ///   register parametric, run gate by gate per sample.
    /// * Otherwise, separable stack (no entanglement layer): each class
    ///   state is folded once into a [`ProductState`]; scoring a sample is
    ///   one product-state encode and `O(qubits)` work per class, inline.
    /// * Otherwise: each class state is prepared once as a statevector and
    ///   packed for a GEMM sweep.
    ///
    /// A noiseless SWAP test measures exactly the fidelity these kernels
    /// compute, so with shots each exact fidelity is drawn through
    /// [`FidelityEstimator::measure`].
    pub fn compile(
        model: &QuClassiModel,
        estimator: FidelityEstimator,
    ) -> Result<Self, QuClassiError> {
        let config = model.config().clone();
        let encoder = model.encoder().clone();
        let classes = if estimator.simulates_circuit() {
            let mut circuits = Vec::with_capacity(model.num_classes());
            let mut ancilla = 0;
            for c in 0..model.num_classes() {
                let (circuit, layout) =
                    build_class_swap_test_circuit(model.stack(), model.class_params(c)?, &encoder)?;
                ancilla = layout.ancilla;
                circuits.push(circuit);
            }
            CompiledClasses::NoisySwapTest { circuits, ancilla }
        } else if model.stack().is_separable() {
            let circuit = model.stack().build_circuit();
            let class_states = (0..model.num_classes())
                .map(|c| class_product_state(&circuit, model.class_params(c)?))
                .collect::<Result<Vec<_>, _>>()?;
            CompiledClasses::Product { class_states }
        } else {
            let states = (0..model.num_classes())
                .map(|c| model.learned_state(c))
                .collect::<Result<Vec<_>, _>>()?;
            let class_matrix = StateMatrix::pack(&states)?;
            CompiledClasses::Analytic { class_matrix }
        };
        let cache_enabled = !estimator.is_stochastic();
        Ok(CompiledModel {
            config,
            encoder,
            estimator,
            classes,
            cache_enabled,
            cache: Mutex::new(EncodingCache::new(DEFAULT_CACHE_CAPACITY)),
        })
    }

    /// Replaces the LRU cache capacity (entries; 0 disables caching).
    /// Existing entries and counters are discarded.
    pub fn with_cache_capacity(self, capacity: usize) -> Self {
        CompiledModel {
            cache_enabled: capacity > 0 && !self.estimator.is_stochastic(),
            cache: Mutex::new(EncodingCache::new(capacity)),
            ..self
        }
    }

    /// The model configuration the artifact was compiled from.
    pub fn config(&self) -> &QuClassiConfig {
        &self.config
    }

    /// The data encoder (defines the expected feature dimension).
    pub fn encoder(&self) -> &DataEncoder {
        &self.encoder
    }

    /// The estimator the artifact serves under.
    pub fn estimator(&self) -> &FidelityEstimator {
        &self.estimator
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.config.num_classes
    }

    /// Whether results are answered from the fingerprint cache. Caching is
    /// disabled for stochastic estimators (shots / noise draw fresh
    /// randomness per query, which must never be replayed from a cache) and
    /// when the capacity is 0.
    pub fn cache_enabled(&self) -> bool {
        self.cache_enabled
    }

    /// Cache effectiveness counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.lock_cache().stats()
    }

    fn lock_cache(&self) -> std::sync::MutexGuard<'_, EncodingCache> {
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fidelities between one encoded sample (given as angles) and every
    /// class, computed sequentially. Shots and noise draw from `rng` class
    /// by class.
    fn fidelities_from_angles<R: Rng + ?Sized>(
        &self,
        angles: &[f64],
        rng: &mut R,
    ) -> Result<Vec<f64>, QuClassiError> {
        let exact = match &self.classes {
            CompiledClasses::Product { class_states } => {
                product_fidelities(&self.encoder, class_states, angles)?
            }
            CompiledClasses::Analytic { class_matrix } => {
                analytic_fidelities(&self.encoder, class_matrix, angles)?
            }
            CompiledClasses::NoisySwapTest { circuits, ancilla } => {
                return circuits
                    .iter()
                    .map(|circuit| self.swap_test_fidelity(circuit, angles, *ancilla, rng))
                    .collect()
            }
        };
        Ok(exact
            .into_iter()
            .map(|f| self.estimator.measure(f, rng))
            .collect())
    }

    /// One noisy SWAP-test estimate through the estimator's executor.
    fn swap_test_fidelity<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        angles: &[f64],
        ancilla: usize,
        rng: &mut R,
    ) -> Result<f64, QuClassiError> {
        let p1 = self
            .estimator
            .executor()
            .probability_of_one(circuit, angles, ancilla, rng)?;
        Ok(fidelity_from_p0(1.0 - p1))
    }

    /// Fidelities between a data point and every class state, answering
    /// repeated encodings from the LRU cache when the estimator is
    /// deterministic.
    pub fn class_fidelities<R: Rng + ?Sized>(
        &self,
        x: &[f64],
        rng: &mut R,
    ) -> Result<Vec<f64>, QuClassiError> {
        let angles = self.encoder.encoding_angles(x)?;
        self.cached_fidelities(&angles, || self.fidelities_from_angles(&angles, rng))
    }

    /// The one cached single-sample path: looks `angles` up under one lock,
    /// runs `evaluate` on a miss outside it, and inserts the result under
    /// a second. The fingerprint is hashed once, for both.
    fn cached_fidelities(
        &self,
        angles: &[f64],
        evaluate: impl FnOnce() -> Result<Vec<f64>, QuClassiError>,
    ) -> Result<Vec<f64>, QuClassiError> {
        if !self.cache_enabled() {
            return evaluate();
        }
        let hash = {
            let mut cache = self.lock_cache();
            let hash = cache.hash(angles);
            if let Some(hit) = cache.get(hash, angles) {
                return Ok(hit.to_vec());
            }
            hash
        };
        let fidelities = evaluate()?;
        self.lock_cache().insert(hash, angles, &fidelities);
        Ok(fidelities)
    }

    /// Softmaxed class probabilities for one data point.
    pub fn predict_proba<R: Rng + ?Sized>(
        &self,
        x: &[f64],
        rng: &mut R,
    ) -> Result<Vec<f64>, QuClassiError> {
        Ok(softmax(&self.class_fidelities(x, rng)?))
    }

    /// Predicted class label for one data point.
    pub fn predict<R: Rng + ?Sized>(&self, x: &[f64], rng: &mut R) -> Result<usize, QuClassiError> {
        Ok(argmax(&self.predict_proba(x, rng)?))
    }

    /// The full [`Prediction`] (label, probabilities, fidelities) for one
    /// data point.
    pub fn predict_one<R: Rng + ?Sized>(
        &self,
        x: &[f64],
        rng: &mut R,
    ) -> Result<Prediction, QuClassiError> {
        let fidelities = self.class_fidelities(x, rng)?;
        Ok(prediction_from_fidelities(fidelities))
    }

    /// The `k` most probable classes for one data point.
    pub fn top_k<R: Rng + ?Sized>(
        &self,
        x: &[f64],
        k: usize,
        rng: &mut R,
    ) -> Result<Vec<(usize, f64)>, QuClassiError> {
        Ok(self.predict_one(x, rng)?.top_k(k))
    }

    /// Scores one sample whose encoding angles were already computed (via
    /// [`quclassi::encoding::DataEncoder::encoding_angles`]): the entry
    /// point of a serving runtime that validates and encodes each request
    /// once at admission.
    ///
    /// The answer, and its effect on the cache counters, are bit-identical
    /// to `predict_many_from_angles(vec![angles.to_vec()], batch, seed)`,
    /// without the batch bookkeeping. A deterministic artifact scores the
    /// sample on the calling thread and ignores `batch` and `seed`; a
    /// stochastic one evaluates it as a one-row batch, so its draws come
    /// from the same `(seed, job index)` streams.
    pub fn predict_from_angles(
        &self,
        angles: &[f64],
        batch: &BatchExecutor,
        seed: u64,
    ) -> Result<Prediction, QuClassiError> {
        self.encoder.validate_angles(angles)?;
        let fidelities = self.cached_fidelities(angles, || match &self.classes {
            CompiledClasses::Product { class_states } if !self.estimator.is_stochastic() => {
                product_fidelities(&self.encoder, class_states, angles)
            }
            CompiledClasses::Analytic { class_matrix } if !self.estimator.is_stochastic() => {
                analytic_fidelities(&self.encoder, class_matrix, angles)
            }
            _ => Ok(self
                .batched_fidelities(&[angles.to_vec()], batch, seed)?
                .remove(0)),
        })?;
        Ok(prediction_from_fidelities(fidelities))
    }

    /// Scores a batch of samples, fanning the evaluations over `batch`.
    ///
    /// * **Deterministic estimators** — results are bit-identical to
    ///   sequential [`CompiledModel::predict_one`] calls, for any thread
    ///   count. When caching is enabled, duplicate encodings inside the
    ///   batch are evaluated once and answered from the cache afterwards;
    ///   with caching disabled every sample is evaluated directly (the
    ///   answers are identical either way).
    /// * **Stochastic estimators** — every sample × class evaluation draws
    ///   from its own RNG stream derived from `(base_seed, job index)`, so
    ///   results are bit-identical for any thread count and vary with
    ///   `base_seed` exactly like `FidelityEstimator::estimate_many`. No
    ///   deduplication or caching is applied.
    pub fn predict_many(
        &self,
        xs: &[Vec<f64>],
        batch: &BatchExecutor,
        base_seed: u64,
    ) -> Result<Vec<Prediction>, QuClassiError> {
        let angles: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| self.encoder.encoding_angles(x))
            .collect::<Result<_, _>>()?;
        self.predict_many_from_angles(angles, batch, base_seed)
    }

    /// Like [`CompiledModel::predict_many`], but for samples whose encoding
    /// angles were already computed (via
    /// [`quclassi::encoding::DataEncoder::encoding_angles`]).
    ///
    /// This is the entry point of a serving runtime that validates and
    /// encodes each request once at admission time and later drains queued
    /// requests — now just angle vectors — into one batched fan-out: the
    /// flush must not repeat (or re-fail) per-request work. Every angle
    /// vector is still validated (count, finiteness) before anything is
    /// evaluated, so a malformed entry rejects the call instead of
    /// poisoning the batch.
    ///
    /// Semantics (dedup, caching, determinism) are exactly those of
    /// [`CompiledModel::predict_many`]: for deterministic estimators the
    /// result for each angle vector is bit-identical to a sequential
    /// single-sample evaluation, for any thread count and any batch
    /// composition.
    pub fn predict_many_from_angles(
        &self,
        angles: Vec<Vec<f64>>,
        batch: &BatchExecutor,
        base_seed: u64,
    ) -> Result<Vec<Prediction>, QuClassiError> {
        for a in &angles {
            self.encoder.validate_angles(a)?;
        }
        if self.estimator.is_stochastic() || !self.cache_enabled() {
            // Straight evaluation, no fingerprinting. Stochastic: each
            // duplicate keeps its own sample draw, matching sequential
            // serving semantics. Deterministic-but-uncached: duplicates
            // would be answered identically either way, and with no cache
            // to fill, fingerprint hashing and dedup bookkeeping would tax
            // every unique sample for nothing.
            let fidelities = self.batched_fidelities(&angles, batch, base_seed)?;
            return Ok(fidelities
                .into_iter()
                .map(prediction_from_fidelities)
                .collect());
        }

        // Cached deterministic path: resolve cache hits, dedup the misses
        // by fingerprint (first appearance wins — a pure function of the
        // input batch, so thread count cannot perturb it), evaluate once
        // each.
        let mut hashes = Vec::with_capacity(angles.len());
        let mut resolved: Vec<Option<Vec<f64>>> = Vec::with_capacity(angles.len());
        {
            let mut cache = self.lock_cache();
            for a in &angles {
                let hash = cache.hash(a);
                resolved.push(cache.get(hash, a).map(<[f64]>::to_vec));
                hashes.push(hash);
            }
        }
        // Misses by hash. Two distinct fingerprints with one hash are both
        // evaluated: dedup only saves work, so it may miss a duplicate.
        let mut miss_index: HashMap<u64, usize> = HashMap::new();
        let mut miss_angles: Vec<Vec<f64>> = Vec::new();
        let mut miss_hashes: Vec<u64> = Vec::new();
        let mut sample_to_miss: Vec<Option<usize>> = vec![None; angles.len()];
        for (i, &hash) in hashes.iter().enumerate() {
            if resolved[i].is_some() {
                continue;
            }
            let idx = match miss_index.get(&hash) {
                Some(&idx) if same_bits(&miss_angles[idx], &angles[i]) => idx,
                _ => {
                    miss_index.entry(hash).or_insert(miss_angles.len());
                    miss_angles.push(angles[i].clone());
                    miss_hashes.push(hash);
                    miss_angles.len() - 1
                }
            };
            sample_to_miss[i] = Some(idx);
        }

        let miss_fidelities = self.batched_fidelities(&miss_angles, batch, base_seed)?;
        {
            let mut cache = self.lock_cache();
            for ((hash, a), fidelities) in
                miss_hashes.iter().zip(&miss_angles).zip(&miss_fidelities)
            {
                cache.insert(*hash, a, fidelities);
            }
        }

        Ok(resolved
            .into_iter()
            .zip(sample_to_miss)
            .map(|(hit, miss)| {
                let fidelities = match hit {
                    Some(f) => f,
                    None => miss_fidelities[miss.expect("unresolved sample is a miss")].clone(),
                };
                prediction_from_fidelities(fidelities)
            })
            .collect())
    }

    /// Evaluates per-class fidelities for many encoded samples: inline for
    /// product states (a sample costs less than a hand-off to a worker),
    /// otherwise through the batch executor (one job per sample for the
    /// GEMM, one flat samples × classes job list for noisy SWAP tests and
    /// for shot draws).
    fn batched_fidelities(
        &self,
        angles: &[Vec<f64>],
        batch: &BatchExecutor,
        base_seed: u64,
    ) -> Result<Vec<Vec<f64>>, QuClassiError> {
        if angles.is_empty() {
            return Ok(Vec::new());
        }
        let exact: Vec<Vec<f64>> = match &self.classes {
            CompiledClasses::Product { class_states } => angles
                .iter()
                .map(|a| product_fidelities(&self.encoder, class_states, a))
                .collect::<Result<_, _>>()?,
            CompiledClasses::Analytic { class_matrix } => {
                // The batched analytic score is the samples × classes
                // fidelity GEMM: encoded-sample rows against the packed
                // (implicitly conjugated, via the inner product) class
                // plane. Sample rows are distributed over the batch
                // executor's workers; each worker reuses one scratch
                // register, so a steady-state flush performs no per-sample
                // statevector or gate-list allocations. Every entry goes
                // through the same fixed reduction tree as the
                // single-sample path, so results stay bit-identical for
                // any thread count and any batch composition.
                let jobs: Vec<&[f64]> = angles.iter().map(Vec::as_slice).collect();
                let width = class_matrix.num_qubits();
                batch
                    .run_seeded_with_scratch(
                        base_seed,
                        jobs,
                        || StateVector::zero_state(width),
                        |_, sample_angles, _, scratch| {
                            self.encoder
                                .encode_state_from_angles_into(sample_angles, scratch)?;
                            let mut fidelities = vec![0.0; class_matrix.rows()];
                            class_matrix.fidelities_into(scratch, &mut fidelities)?;
                            Ok::<_, QuClassiError>(fidelities)
                        },
                    )
                    .into_iter()
                    .collect::<Result<_, _>>()?
            }
            CompiledClasses::NoisySwapTest { circuits, ancilla } => {
                let jobs: Vec<(&Circuit, &[f64])> = angles
                    .iter()
                    .flat_map(|a| circuits.iter().map(move |c| (c, a.as_slice())))
                    .collect();
                let fidelities = batch
                    .run_seeded(base_seed, jobs, |_, (circuit, a), rng| {
                        self.swap_test_fidelity(circuit, a, *ancilla, rng)
                    })
                    .into_iter()
                    .collect::<Result<Vec<_>, _>>()?;
                return Ok(per_sample(&fidelities, circuits.len()));
            }
        };
        if !self.estimator.is_stochastic() {
            return Ok(exact);
        }
        // Shots: job `sample·classes + class` draws from its own stream.
        let flat: Vec<f64> = exact.into_iter().flatten().collect();
        let measured =
            batch.run_seeded(base_seed, flat, |_, f, rng| self.estimator.measure(f, rng));
        Ok(per_sample(&measured, self.num_classes()))
    }

    /// Classification accuracy of the compiled artifact over a labelled
    /// set, scored through [`CompiledModel::predict_many`].
    pub fn evaluate_accuracy(
        &self,
        features: &[Vec<f64>],
        labels: &[usize],
        batch: &BatchExecutor,
        base_seed: u64,
    ) -> Result<f64, QuClassiError> {
        if features.len() != labels.len() {
            return Err(QuClassiError::InvalidData(format!(
                "{} feature rows but {} labels",
                features.len(),
                labels.len()
            )));
        }
        if features.is_empty() {
            return Err(QuClassiError::InvalidData(
                "cannot evaluate accuracy on an empty set".to_string(),
            ));
        }
        let predictions = self.predict_many(features, batch, base_seed)?;
        let correct = predictions
            .iter()
            .zip(labels.iter())
            .filter(|(p, &y)| p.label == y)
            .count();
        Ok(correct as f64 / features.len() as f64)
    }
}

/// Fidelities of one encoded sample against every product class state,
/// in the order and through the kernel of `FidelityEstimator::estimate`.
fn product_fidelities(
    encoder: &DataEncoder,
    class_states: &[ProductState],
    angles: &[f64],
) -> Result<Vec<f64>, QuClassiError> {
    let data = encoder.encode_product_state_from_angles(angles)?;
    class_states
        .iter()
        .map(|class| Ok(class.fidelity(&data)?))
        .collect()
}

/// Fidelities of one encoded sample against every packed class state:
/// the product-state fast preparation (bit-identical to the uncompiled
/// `encode_state` path, see `DataEncoder::encode_state_from_angles`), swept
/// against the class plane in one GEMM row pass.
fn analytic_fidelities(
    encoder: &DataEncoder,
    class_matrix: &StateMatrix,
    angles: &[f64],
) -> Result<Vec<f64>, QuClassiError> {
    let data = encoder.encode_state_from_angles(angles)?;
    let mut fidelities = vec![0.0; class_matrix.rows()];
    class_matrix.fidelities_into(&data, &mut fidelities)?;
    Ok(fidelities)
}

/// Whether two angle vectors have the same fingerprint (exact bits).
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Splits a flat samples × classes list into one row per sample.
fn per_sample(flat: &[f64], classes: usize) -> Vec<Vec<f64>> {
    flat.chunks(classes).map(<[f64]>::to_vec).collect()
}

/// Arg-max with the exact tie-breaking of `QuClassiModel::predict`
/// (`Iterator::max_by` — the *last* maximal index wins; empty input maps
/// to 0).
fn argmax(probs: &[f64]) -> usize {
    probs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

fn prediction_from_fidelities(fidelities: Vec<f64>) -> Prediction {
    let probabilities = softmax(&fidelities);
    Prediction {
        label: argmax(&probabilities),
        probabilities,
        fidelities,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quclassi::model::QuClassiConfig;
    use quclassi_sim::executor::Executor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trained_model(seed: u64) -> QuClassiModel {
        let mut rng = StdRng::seed_from_u64(seed);
        QuClassiModel::with_random_parameters(QuClassiConfig::qc_sde(4, 3), &mut rng).unwrap()
    }

    fn samples() -> Vec<Vec<f64>> {
        vec![
            vec![0.1, 0.2, 0.3, 0.4],
            vec![0.9, 0.8, 0.7, 0.6],
            vec![0.5, 0.5, 0.5, 0.5],
            vec![0.1, 0.2, 0.3, 0.4], // duplicate of sample 0
        ]
    }

    #[test]
    fn analytic_compiled_matches_model_bit_for_bit() {
        let model = trained_model(1);
        let compiled = CompiledModel::compile(&model, FidelityEstimator::analytic()).unwrap();
        let estimator = FidelityEstimator::analytic();
        let mut rng = StdRng::seed_from_u64(0);
        for x in samples() {
            let fast = compiled.class_fidelities(&x, &mut rng).unwrap();
            let slow = model.class_fidelities(&x, &estimator, &mut rng).unwrap();
            assert_eq!(fast, slow);
            assert_eq!(
                compiled.predict_proba(&x, &mut rng).unwrap(),
                model.predict_proba(&x, &estimator, &mut rng).unwrap()
            );
            assert_eq!(
                compiled.predict(&x, &mut rng).unwrap(),
                model.predict(&x, &estimator, &mut rng).unwrap()
            );
        }
    }

    #[test]
    fn exact_swap_test_compiled_matches_model_closely() {
        let model = trained_model(2);
        let estimator = FidelityEstimator::swap_test(Executor::ideal());
        let compiled = CompiledModel::compile(&model, estimator.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        for x in samples() {
            let fast = compiled.class_fidelities(&x, &mut rng).unwrap();
            let slow = model.class_fidelities(&x, &estimator, &mut rng).unwrap();
            assert_eq!(fast, slow);
            let analytic = model
                .class_fidelities(&x, &FidelityEstimator::analytic(), &mut rng)
                .unwrap();
            assert_eq!(fast, analytic);
            assert_eq!(
                compiled.predict(&x, &mut rng).unwrap(),
                model.predict(&x, &estimator, &mut rng).unwrap()
            );
        }
    }

    #[test]
    fn predict_many_matches_sequential_predictions() {
        let model = trained_model(3);
        let compiled = CompiledModel::compile(&model, FidelityEstimator::analytic()).unwrap();
        let xs = samples();
        let mut rng = StdRng::seed_from_u64(0);
        let sequential: Vec<Prediction> = xs
            .iter()
            .map(|x| compiled.predict_one(x, &mut rng).unwrap())
            .collect();
        for threads in [1, 2, 8] {
            // A fresh artifact per thread count: the cache must not leak
            // results between runs of this comparison.
            let fresh = CompiledModel::compile(&model, FidelityEstimator::analytic()).unwrap();
            let batched = fresh
                .predict_many(&xs, &BatchExecutor::new(threads, 0), 0)
                .unwrap();
            assert_eq!(batched, sequential, "{threads} threads");
        }
    }

    #[test]
    fn duplicate_samples_are_evaluated_once_and_answered_identically() {
        let model = trained_model(4);
        let compiled = CompiledModel::compile(&model, FidelityEstimator::analytic()).unwrap();
        let xs = samples();
        let preds = compiled
            .predict_many(&xs, &BatchExecutor::single_threaded(0), 0)
            .unwrap();
        assert_eq!(preds[0], preds[3]);
        // 3 unique encodings inserted; lookups all missed (cold cache).
        let stats = compiled.cache_stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.hits, 0);
        // A second pass over the same batch is answered from the cache.
        let again = compiled
            .predict_many(&xs, &BatchExecutor::single_threaded(0), 0)
            .unwrap();
        assert_eq!(again, preds);
        assert_eq!(compiled.cache_stats().hits, 4);
    }

    #[test]
    fn predict_many_from_angles_matches_predict_many() {
        let model = trained_model(11);
        let compiled = CompiledModel::compile(&model, FidelityEstimator::analytic()).unwrap();
        let xs = samples();
        let batch = BatchExecutor::single_threaded(0);
        let via_features = compiled.predict_many(&xs, &batch, 0).unwrap();
        // A fresh artifact so the second run cannot be answered from the
        // first run's cache.
        let fresh = CompiledModel::compile(&model, FidelityEstimator::analytic()).unwrap();
        let angles: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| fresh.encoder().encoding_angles(x).unwrap())
            .collect();
        let via_angles = fresh.predict_many_from_angles(angles, &batch, 0).unwrap();
        assert_eq!(via_angles, via_features);
    }

    #[test]
    fn predict_from_angles_is_a_one_row_predict_many_from_angles() {
        use quclassi_sim::noise::NoiseModel;
        let noise = || NoiseModel::depolarizing(0.02, 0.05, 0.01).unwrap();
        let estimators = [
            ("analytic", FidelityEstimator::analytic()),
            (
                "exact swap",
                FidelityEstimator::swap_test(Executor::ideal()),
            ),
            (
                "shots",
                FidelityEstimator::swap_test(Executor::ideal().with_shots(Some(256))),
            ),
            (
                "trajectories",
                FidelityEstimator::swap_test(Executor::noisy(noise()).with_trajectories(3)),
            ),
            (
                "density",
                FidelityEstimator::swap_test(Executor::noisy_density(noise())),
            ),
        ];
        let configs = [QuClassiConfig::qc_s(4, 3), QuClassiConfig::qc_sde(4, 3)];
        let bits =
            |p: &Prediction| -> Vec<u64> { p.fidelities.iter().map(|f| f.to_bits()).collect() };
        for (name, estimator) in estimators {
            for config in configs.clone() {
                let model =
                    QuClassiModel::with_random_parameters(config, &mut StdRng::seed_from_u64(14))
                        .unwrap();
                // Two artifacts with the same history: one served sample by
                // sample, the other through one-row batches.
                let single = CompiledModel::compile(&model, estimator.clone()).unwrap();
                let many = CompiledModel::compile(&model, estimator.clone()).unwrap();
                // Repeats exercise hits as well as misses.
                let mut xs = samples();
                xs.extend(samples());
                for threads in [1, 2] {
                    let batch = BatchExecutor::new(threads, 0);
                    for (i, x) in xs.iter().enumerate() {
                        let angles = single.encoder().encoding_angles(x).unwrap();
                        let seed = BatchExecutor::job_seed(5, i as u64);
                        let got = single.predict_from_angles(&angles, &batch, seed).unwrap();
                        let want = many
                            .predict_many_from_angles(vec![angles], &batch, seed)
                            .unwrap()
                            .remove(0);
                        assert_eq!(bits(&got), bits(&want), "{name} sample {i}");
                        assert_eq!(got, want, "{name} sample {i}");
                        assert_eq!(single.cache_stats(), many.cache_stats(), "{name}");
                    }
                }
                // Three distinct encodings: each misses once, then hits.
                let stats = single.cache_stats();
                let want = if single.cache_enabled() {
                    (13, 3)
                } else {
                    (0, 0)
                };
                assert_eq!((stats.hits, stats.misses), want, "{name}");
            }
        }
    }

    #[test]
    fn predict_from_angles_rejects_malformed_angles() {
        let model = trained_model(15);
        let compiled = CompiledModel::compile(&model, FidelityEstimator::analytic()).unwrap();
        let batch = BatchExecutor::single_threaded(0);
        assert!(compiled.predict_from_angles(&[0.2; 3], &batch, 0).is_err());
        assert!(compiled
            .predict_from_angles(&[0.1, f64::NAN, 0.2, 0.3], &batch, 0)
            .is_err());
        let stats = compiled.cache_stats();
        assert_eq!((stats.misses, stats.entries), (0, 0));
    }

    #[test]
    fn predict_many_from_angles_rejects_malformed_entries() {
        let model = trained_model(12);
        let compiled = CompiledModel::compile(&model, FidelityEstimator::analytic()).unwrap();
        let batch = BatchExecutor::single_threaded(0);
        let good = compiled.encoder().encoding_angles(&[0.1; 4]).unwrap();
        // Wrong angle count.
        assert!(compiled
            .predict_many_from_angles(vec![good.clone(), vec![0.2; 3]], &batch, 0)
            .is_err());
        // Non-finite angle.
        assert!(compiled
            .predict_many_from_angles(vec![vec![0.1, f64::NAN, 0.2, 0.3]], &batch, 0)
            .is_err());
        // Rejection happens before evaluation: nothing was cached.
        assert_eq!(compiled.cache_stats().entries, 0);
        assert!(compiled
            .predict_many_from_angles(vec![good], &batch, 0)
            .is_ok());
    }

    #[test]
    fn stochastic_serving_is_thread_invariant_and_seed_sensitive() {
        let model = trained_model(5);
        let estimator = FidelityEstimator::swap_test(Executor::ideal().with_shots(Some(256)));
        let compiled = CompiledModel::compile(&model, estimator).unwrap();
        assert!(!compiled.cache_enabled());
        let xs = samples();
        let run = |threads: usize, seed: u64| -> Vec<Vec<u64>> {
            compiled
                .predict_many(&xs, &BatchExecutor::new(threads, 0), seed)
                .unwrap()
                .into_iter()
                .map(|p| p.fidelities.iter().map(|f| f.to_bits()).collect())
                .collect()
        };
        assert_eq!(run(1, 7), run(2, 7));
        assert_eq!(run(1, 7), run(8, 7));
        assert_ne!(run(1, 7), run(1, 8));
        // Duplicates are *not* deduplicated under a stochastic estimator:
        // each keeps its own shot noise.
        let r = run(1, 7);
        assert_ne!(r[0], r[3]);
    }

    #[test]
    fn shot_draws_follow_the_uncompiled_estimator_stream() {
        // Single sample: the caller's RNG, class by class, exactly as the
        // uncompiled model draws it. Batch: job `sample·classes + class`
        // of the base seed.
        for model in [
            trained_model(13),
            QuClassiModel::with_random_parameters(
                QuClassiConfig::qc_s(4, 3),
                &mut StdRng::seed_from_u64(13),
            )
            .unwrap(),
        ] {
            let estimator = FidelityEstimator::swap_test(Executor::ideal().with_shots(Some(300)));
            let compiled = CompiledModel::compile(&model, estimator.clone()).unwrap();
            let xs = samples();
            for x in &xs {
                let served = compiled
                    .class_fidelities(x, &mut StdRng::seed_from_u64(4))
                    .unwrap();
                let direct = model
                    .class_fidelities(x, &estimator, &mut StdRng::seed_from_u64(4))
                    .unwrap();
                assert_eq!(served, direct);
            }
            let classes = compiled.num_classes();
            let want: Vec<Vec<f64>> = xs
                .iter()
                .enumerate()
                .map(|(s, x)| {
                    let mut unused = StdRng::seed_from_u64(0);
                    let exact = model
                        .class_fidelities(x, &FidelityEstimator::analytic(), &mut unused)
                        .unwrap();
                    exact
                        .into_iter()
                        .enumerate()
                        .map(|(c, f)| {
                            let index = (s * classes + c) as u64;
                            let mut rng = StdRng::seed_from_u64(BatchExecutor::job_seed(21, index));
                            estimator.measure(f, &mut rng)
                        })
                        .collect()
                })
                .collect();
            let got: Vec<Vec<f64>> = compiled
                .predict_many(&xs, &BatchExecutor::new(2, 0), 21)
                .unwrap()
                .into_iter()
                .map(|p| p.fidelities)
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn top_k_confidence_and_margin() {
        let p = Prediction {
            label: 2,
            probabilities: vec![0.2, 0.3, 0.5],
            fidelities: vec![0.1, 0.4, 0.9],
        };
        assert_eq!(p.top_k(2), vec![(2, 0.5), (1, 0.3)]);
        assert_eq!(p.top_k(10).len(), 3);
        assert!((p.confidence() - 0.5).abs() < 1e-12);
        assert!((p.margin() - 0.2).abs() < 1e-12);
        let single = Prediction {
            label: 0,
            probabilities: vec![1.0],
            fidelities: vec![1.0],
        };
        assert_eq!(single.margin(), 1.0);
    }

    #[test]
    fn exact_ties_resolve_identically_in_label_and_top_k() {
        // Iterator::max_by returns the LAST maximal element, so on an exact
        // tie the higher class index wins — label, top_k and the uncompiled
        // QuClassiModel::predict must all agree on that.
        let tied = prediction_from_fidelities(vec![0.25, 0.25]);
        assert_eq!(tied.label, 1);
        assert_eq!(tied.top_k(1), vec![(1, tied.probabilities[1])]);
        assert_eq!(tied.top_k(2)[1].0, 0);
        assert_eq!(tied.margin(), 0.0);
        // Cross-check against the model's arg-max on a genuinely tied
        // model: identical parameters for both classes.
        let mut model = QuClassiModel::new(QuClassiConfig::qc_s(4, 2)).unwrap();
        let params = vec![0.4; model.parameters_per_class()];
        model.set_class_params(0, params.clone()).unwrap();
        model.set_class_params(1, params).unwrap();
        let estimator = FidelityEstimator::analytic();
        let compiled = CompiledModel::compile(&model, estimator.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let x = [0.3, 0.6, 0.2, 0.8];
        assert_eq!(
            compiled.predict(&x, &mut rng).unwrap(),
            model.predict(&x, &estimator, &mut rng).unwrap()
        );
        assert_eq!(compiled.predict(&x, &mut rng).unwrap(), 1);
    }

    #[test]
    fn cache_capacity_zero_disables_caching() {
        let model = trained_model(6);
        let compiled = CompiledModel::compile(&model, FidelityEstimator::analytic())
            .unwrap()
            .with_cache_capacity(0);
        assert!(!compiled.cache_enabled());
        let mut rng = StdRng::seed_from_u64(0);
        let x = vec![0.3, 0.4, 0.5, 0.6];
        compiled.class_fidelities(&x, &mut rng).unwrap();
        compiled.class_fidelities(&x, &mut rng).unwrap();
        assert_eq!(compiled.cache_stats().hits, 0);
        assert_eq!(compiled.cache_stats().entries, 0);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let model = trained_model(7);
        let compiled = CompiledModel::compile(&model, FidelityEstimator::analytic()).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(compiled.predict(&[0.1, 0.2], &mut rng).is_err());
        assert!(compiled.predict(&[0.1, 0.2, 0.3, 1.4], &mut rng).is_err());
        let batch = BatchExecutor::single_threaded(0);
        assert!(compiled
            .predict_many(&[vec![0.1; 4], vec![2.0; 4]], &batch, 0)
            .is_err());
        assert!(compiled
            .evaluate_accuracy(&[vec![0.1; 4]], &[0, 1], &batch, 0)
            .is_err());
        assert!(compiled.evaluate_accuracy(&[], &[], &batch, 0).is_err());
    }

    #[test]
    fn evaluate_accuracy_matches_model_evaluation() {
        let model = trained_model(8);
        let estimator = FidelityEstimator::analytic();
        let compiled = CompiledModel::compile(&model, estimator.clone()).unwrap();
        let xs = samples();
        let ys: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(0);
            xs.iter()
                .map(|x| model.predict(x, &estimator, &mut rng).unwrap())
                .collect()
        };
        let acc = compiled
            .evaluate_accuracy(&xs, &ys, &BatchExecutor::new(4, 0), 0)
            .unwrap();
        assert!((acc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clone_preserves_artifact_and_cache() {
        let model = trained_model(9);
        let compiled = CompiledModel::compile(&model, FidelityEstimator::analytic()).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let x = vec![0.2, 0.3, 0.4, 0.5];
        let a = compiled.class_fidelities(&x, &mut rng).unwrap();
        let cloned = compiled.clone();
        assert_eq!(cloned.cache_stats().entries, 1);
        assert_eq!(cloned.class_fidelities(&x, &mut rng).unwrap(), a);
        assert_eq!(cloned.cache_stats().hits, 1);
    }
}
