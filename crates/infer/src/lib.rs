//! # quclassi-infer
//!
//! The compiled inference engine for the QuClassi reproduction: the
//! deployment side of the train → compile → serve pipeline.
//!
//! QuClassi's serving story (Stein et al., MLSys 2022) is read-heavy and
//! latency-sensitive: a trained model is frozen, and every request scores a
//! sample against one precompiled quantum state per class via SWAP-test
//! fidelity. The convenience path in the `quclassi` crate
//! ([`quclassi::model::QuClassiModel::predict`]) rebuilds its class states
//! on *every* call; this crate moves that work to a single compile step:
//!
//! * [`CompiledModel::compile`] freezes a trained model into an immutable
//!   artifact. A separable model (no entanglement layer) keeps one
//!   [`quclassi_sim::product::ProductState`] per class: scoring a sample is
//!   `O(qubits)` per class, with no statevector and no circuit. An
//!   entangled model keeps its class states packed for one GEMM sweep per
//!   sample. Both serve the analytic method and every SWAP test through a
//!   noiseless executor, whose ancilla measures exactly the fidelity they
//!   compute; with shots, the exact fidelity is then drawn through
//!   [`quclassi::swap_test::FidelityEstimator::measure`]. Only a SWAP test
//!   through a noisy executor keeps per-class circuits, with the trained
//!   angles baked in and the sample's encoding angles as the only
//!   parameters;
//! * [`CompiledModel::predict_many`] scores product-state artifacts inline
//!   and fans every other artifact's samples × classes over a
//!   [`quclassi_sim::batch::BatchExecutor`], returning softmaxed
//!   probabilities, the arg-max label, and per-sample confidence/top-k
//!   through [`Prediction`];
//! * [`CompiledModel::predict_from_angles`] scores one already-encoded
//!   sample, bit-identically to a one-row `predict_many_from_angles`
//!   without its batch bookkeeping: the entry point of a serving runtime;
//! * repeated inputs are answered from an LRU cache keyed by the sample's
//!   *encoding fingerprint* (the exact bit pattern of its rotation
//!   angles), which is switched off automatically for stochastic
//!   estimators so sampling semantics are never cached away. A miss costs
//!   one keyed hash and allocates nothing in the cache: the cache is a
//!   slab whose full-capacity evictions reuse the victim's buffers.
//!
//! ## Determinism
//!
//! Deterministic estimators (analytic, exact SWAP test) produce results
//! **bit-identical to the uncompiled sequential path**, and the exact SWAP
//! test bit-identical to the analytic method, separable or entangled.
//! Every deterministic result is bit-identical across any thread count.
//! Stochastic estimators derive per-job RNG streams from
//! `(base_seed, job index)` so batched serving is bit-identical for 1, 2 or
//! 8 threads.
//!
//! ## Quickstart
//!
//! ```
//! use quclassi::prelude::*;
//! use quclassi_infer::CompiledModel;
//! use quclassi_sim::batch::BatchExecutor;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // Train (or load) a model…
//! let mut model =
//!     QuClassiModel::with_random_parameters(QuClassiConfig::qc_s(4, 2), &mut rng).unwrap();
//! let features = vec![vec![0.1, 0.2, 0.1, 0.15], vec![0.9, 0.8, 0.9, 0.85]];
//! let labels = vec![0, 1];
//! Trainer::new(
//!     TrainingConfig { epochs: 5, learning_rate: 0.1, ..Default::default() },
//!     FidelityEstimator::analytic(),
//! )
//! .fit(&mut model, &features, &labels, &mut rng)
//! .unwrap();
//!
//! // …compile it once…
//! let compiled = CompiledModel::compile(&model, FidelityEstimator::analytic()).unwrap();
//!
//! // …and serve batches without ever re-lowering a circuit.
//! let predictions = compiled
//!     .predict_many(&features, &BatchExecutor::from_env(0).unwrap(), 0)
//!     .unwrap();
//! assert_eq!(predictions.len(), 2);
//! for (p, x) in predictions.iter().zip(features.iter()) {
//!     // Identical to the uncompiled convenience path, without the re-lowering.
//!     let reference = model.predict(x, &FidelityEstimator::analytic(), &mut rng).unwrap();
//!     assert_eq!(p.label, reference);
//!     assert!((p.probabilities.iter().sum::<f64>() - 1.0).abs() < 1e-9);
//!     assert!(p.confidence() >= 0.5);
//! }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod compiled;

pub use cache::CacheStats;
pub use compiled::{CompiledModel, Prediction};

/// Re-exports of the most commonly used serving types.
pub mod prelude {
    pub use crate::cache::CacheStats;
    pub use crate::compiled::{CompiledModel, Prediction};
    pub use quclassi_sim::batch::BatchExecutor;
}
