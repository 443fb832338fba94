//! Helpers shared by the wire and observability integration tests.

use quclassi::model::{QuClassiConfig, QuClassiModel};
use quclassi::swap_test::FidelityEstimator;
use quclassi_infer::CompiledModel;
use quclassi_serve::{ServeConfig, ServeRuntime};
use quclassi_sim::batch::BatchExecutor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An analytic QC-S artifact over 4 features and 3 classes, with random
/// parameters drawn from `seed`.
pub fn compiled(seed: u64) -> CompiledModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let model =
        QuClassiModel::with_random_parameters(QuClassiConfig::qc_s(4, 3), &mut rng).unwrap();
    CompiledModel::compile(&model, FidelityEstimator::analytic()).unwrap()
}

/// A single-threaded runtime under `config`, serving `compiled(7)` as
/// `"iris"`.
pub fn started_runtime(config: ServeConfig) -> ServeRuntime {
    let runtime = ServeRuntime::start(config, BatchExecutor::single_threaded(0)).unwrap();
    runtime.deploy("iris", compiled(7)).unwrap();
    runtime
}
