//! # quclassi-sim
//!
//! A dependency-light quantum circuit simulator built as the substrate for
//! the QuClassi reproduction (Stein et al., MLSys 2022). The paper uses
//! Qiskit + IBM-Q/IonQ hardware; this crate provides the equivalent
//! functionality in pure Rust:
//!
//! * [`complex::Complex`] — complex arithmetic,
//! * [`linalg::CMatrix`] — small dense complex matrices,
//! * [`gate::Gate`] — the gate set (all gates used by QuClassi plus a few
//!   standard ones),
//! * [`state::StateVector`] — pure-state simulation up to ~26 qubits,
//! * [`density::DensityMatrix`] — exact mixed-state simulation for small
//!   registers,
//! * [`circuit::Circuit`] — parameterised circuits with symbolic parameters,
//! * [`noise`] — Kraus channels, readout error, gate-level noise models,
//! * [`device`] — coupling maps and calibrated device models (IBM-Q London /
//!   New York / Melbourne / Rome / Cairo, IonQ),
//! * [`transpile`] — decomposition to the native basis and SWAP-insertion
//!   routing with CNOT accounting,
//! * [`executor::Executor`] — the execution façade (ideal / noisy /
//!   shot-sampled) consumed by the `quclassi` crate,
//! * [`batch::BatchExecutor`] — parallel batch evaluation over a scoped
//!   thread pool with deterministic per-job RNG streams (results are
//!   bit-identical for any thread count),
//! * [`gemm::StateMatrix`] — many same-width pure states packed into one
//!   dense SoA matrix so batched fidelities become a cache-blocked GEMM
//!   (bit-identical to the per-pair reduction path),
//! * [`product::ProductState`] — unentangled registers stored as one
//!   2-vector per qubit, with the `O(n)` factorised fidelity
//!   `Π_q |⟨φ_q|ψ_q⟩|²`; circuits of single-qubit gates fold straight into
//!   it,
//! * [`profile`] — opt-in kernel profiling counters (`QUCLASSI_PROFILE`):
//!   dense vs diagonal vs permutation sweeps and amplitudes touched, at
//!   near-zero cost when disabled.
//!
//! ## Quick example
//!
//! ```
//! use quclassi_sim::prelude::*;
//! use rand::SeedableRng;
//!
//! // Build a Bell-pair circuit and measure qubit 1.
//! let mut circuit = Circuit::new(2);
//! circuit.h(0).cnot(0, 1);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let p1 = Executor::ideal()
//!     .probability_of_one(&circuit, &[], 1, &mut rng)
//!     .unwrap();
//! assert!((p1 - 0.5).abs() < 1e-12);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod circuit;
pub mod complex;
pub mod density;
pub mod device;
pub mod error;
pub mod executor;
pub mod gate;
pub mod gemm;
pub mod linalg;
pub mod noise;
pub mod product;
pub mod profile;
pub(crate) mod quclassi_sync;
pub mod state;
pub mod transpile;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::batch::BatchExecutor;
    pub use crate::circuit::{Circuit, Operation};
    pub use crate::complex::Complex;
    pub use crate::density::DensityMatrix;
    pub use crate::device::{CouplingMap, DeviceModel};
    pub use crate::error::SimError;
    pub use crate::executor::{Executor, Method};
    pub use crate::gate::Gate;
    pub use crate::gemm::StateMatrix;
    pub use crate::linalg::CMatrix;
    pub use crate::noise::{NoiseChannel, NoiseModel, ReadoutError};
    pub use crate::product::ProductState;
    pub use crate::state::StateVector;
    pub use crate::transpile::{decompose_all, decompose_gate, transpile, TranspileReport};
}
