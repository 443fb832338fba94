//! The multi-model registry: named models, versioned hot-swap, per-model
//! stats.
//!
//! A serving runtime outlives any single model artifact. The registry maps
//! stable names (`"iris"`, `"mnist-36"`) onto immutable, reference-counted
//! [`ModelEntry`]s so that deployments follow the classic zero-downtime
//! sequence:
//!
//! 1. **load** — the caller compiles the new [`CompiledModel`] off to the
//!    side (the registry never blocks serving while this happens);
//! 2. **warm** — [`ModelRegistry::deploy`] pushes a synthetic mid-range
//!    sample through the full predict path *before* the swap, so a broken
//!    artifact is rejected while the old version still serves, and the
//!    first real request never pays first-touch cost;
//! 3. **atomic switch** — one write-locked map insert makes the new version
//!    visible; every request admitted afterwards resolves to it;
//! 4. **drain old** — requests admitted before the switch hold their own
//!    `Arc<ModelEntry>` and finish on the version that admitted them. The
//!    old artifact is freed when its last in-flight reference drops;
//!    [`ModelRegistry::draining`] reports how many retired versions are
//!    still alive.

use crate::error::ServeError;
use crate::metrics::ModelStats;
use crate::quclassi_sync::{Arc, Mutex};
use crate::swap::SwapMap;
use quclassi_infer::CompiledModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// One deployed (name, version, artifact) triple plus its serving counters.
///
/// Entries are immutable once deployed: a "model update" is a new entry
/// under the same name, never a mutation — which is what makes the switch
/// atomic and the drain safe.
#[derive(Debug)]
pub struct ModelEntry {
    name: String,
    version: u64,
    model: Arc<CompiledModel>,
    stats: ModelStats,
}

impl ModelEntry {
    /// The registry name this entry is deployed under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The monotonically increasing version of this deployment (1 for the
    /// first deploy of a name).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The immutable compiled artifact.
    pub fn model(&self) -> &Arc<CompiledModel> {
        &self.model
    }

    /// This entry's serving counters.
    pub fn stats(&self) -> &ModelStats {
        &self.stats
    }
}

/// A thread-safe registry of named, versioned compiled models.
///
/// The publication mechanics — write-locked versioned insert, drain
/// tracking of displaced entries — live in the generic (and model-checked)
/// crate-private `SwapMap`; this type adds the model-specific policy: warm-up before
/// the switch, rollback history, and typed errors.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: SwapMap<ModelEntry>,
    /// The artifact each name served *before* its current version, kept for
    /// [`ModelRegistry::rollback`]. Holds the bare `CompiledModel` (not the
    /// retired `ModelEntry`) so the drain accounting stays truthful: the
    /// displaced entry's strong count must reach zero once its in-flight
    /// requests finish.
    previous: Mutex<HashMap<String, (u64, Arc<CompiledModel>)>>,
}

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deploys `model` under `name`, returning the new version number.
    ///
    /// Implements warm → atomic switch → drain-old: the artifact is warmed
    /// with a synthetic mid-range sample first (a failure aborts the deploy
    /// and leaves any currently active version untouched), then swapped in
    /// with a single write-locked insert. The displaced entry, if any,
    /// keeps serving its in-flight requests and is tracked by
    /// [`ModelRegistry::draining`] until the last reference drops.
    pub fn deploy(&self, name: &str, model: CompiledModel) -> Result<u64, ServeError> {
        if name.is_empty() {
            return Err(ServeError::InvalidConfig(
                "model name must not be empty".to_string(),
            ));
        }
        // Warm outside any lock: serving traffic proceeds on the old
        // version for as long as this takes.
        let warm_sample = vec![0.5; model.encoder().dim()];
        let mut rng = StdRng::seed_from_u64(0);
        model
            .predict_one(&warm_sample, &mut rng)
            .map_err(ServeError::Model)?;

        let model = Arc::new(model);
        let (version, displaced) = self.models.publish(name, |version| ModelEntry {
            name: name.to_string(),
            version,
            model: Arc::clone(&model),
            stats: ModelStats::default(),
        });
        if let Some((old_version, old)) = displaced {
            self.previous
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(name.to_string(), (old_version, Arc::clone(&old.model)));
            // `old` drops here; the entry stays alive exactly as long as
            // in-flight requests still hold it.
        }
        Ok(version)
    }

    /// Redeploys the artifact `name` served before its current version, as
    /// a **new** monotonic version (versions never rewind — in-flight
    /// responses keep reporting the version that admitted them, and a
    /// rolled-back-then-fixed model cannot collide with its own history).
    /// Returns the new version number.
    ///
    /// Goes through the full [`ModelRegistry::deploy`] sequence, so the
    /// restored artifact is warmed before the switch and the displaced
    /// (regressed) version drains like any other. After a rollback the
    /// regressed artifact becomes the name's "previous", which makes
    /// rollback its own inverse.
    ///
    /// # Errors
    /// [`ServeError::UnknownModel`] if `name` has never been deployed, or
    /// [`ServeError::InvalidConfig`] if it has only seen one version (there
    /// is nothing to roll back to).
    pub fn rollback(&self, name: &str) -> Result<u64, ServeError> {
        if self.active_version(name).is_none() {
            return Err(ServeError::UnknownModel(name.to_string()));
        }
        let artifact = {
            let previous = self.previous.lock().unwrap_or_else(|e| e.into_inner());
            match previous.get(name) {
                Some((_, artifact)) => CompiledModel::clone(artifact),
                None => {
                    return Err(ServeError::InvalidConfig(format!(
                        "model '{name}' has no previous version to roll back to"
                    )))
                }
            }
        };
        self.deploy(name, artifact)
    }

    /// The version whose artifact a [`ModelRegistry::rollback`] of `name`
    /// would restore (the version displaced by the most recent deploy), if
    /// any.
    pub fn previous_version(&self, name: &str) -> Option<u64> {
        self.previous
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .map(|(v, _)| *v)
    }

    /// Resolves `name` to its currently active entry.
    pub fn get(&self, name: &str) -> Result<Arc<ModelEntry>, ServeError> {
        self.models
            .get(name)
            .map(|(_, entry)| entry)
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))
    }

    /// The active version of `name`, if deployed.
    pub fn active_version(&self, name: &str) -> Option<u64> {
        self.models.version_of(name)
    }

    /// Deployed model names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.models.names()
    }

    /// Snapshots of every active entry, sorted by name.
    pub fn entries(&self) -> Vec<Arc<ModelEntry>> {
        self.models.entries()
    }

    /// Number of *retired* (hot-swapped-out) versions still referenced by
    /// in-flight requests. Dropped references are pruned on each call, so
    /// a quiescent runtime reports 0.
    pub fn draining(&self) -> usize {
        self.models.draining()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compiled(seed: u64) -> CompiledModel {
        crate::test_artifact(seed, 2)
    }

    #[test]
    fn deploy_versions_are_monotonic_per_name() {
        let reg = ModelRegistry::new();
        assert_eq!(reg.deploy("a", compiled(1)).unwrap(), 1);
        assert_eq!(reg.deploy("a", compiled(2)).unwrap(), 2);
        assert_eq!(reg.deploy("b", compiled(3)).unwrap(), 1);
        assert_eq!(reg.active_version("a"), Some(2));
        assert_eq!(reg.active_version("b"), Some(1));
        assert_eq!(reg.names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn unknown_model_is_a_distinct_error() {
        let reg = ModelRegistry::new();
        assert_eq!(
            reg.get("ghost").unwrap_err(),
            ServeError::UnknownModel("ghost".to_string())
        );
        assert_eq!(reg.active_version("ghost"), None);
    }

    #[test]
    fn hot_swap_keeps_in_flight_references_alive_then_drains() {
        let reg = ModelRegistry::new();
        reg.deploy("m", compiled(1)).unwrap();
        let in_flight = reg.get("m").unwrap(); // a request mid-batch
        reg.deploy("m", compiled(2)).unwrap();
        // New admissions see v2; the in-flight request still holds v1.
        assert_eq!(reg.get("m").unwrap().version(), 2);
        assert_eq!(in_flight.version(), 1);
        assert_eq!(reg.draining(), 1);
        drop(in_flight);
        assert_eq!(reg.draining(), 0, "v1 drained once its last ref dropped");
    }

    #[test]
    fn rollback_restores_the_previous_artifact_as_a_new_version() {
        let reg = ModelRegistry::new();
        reg.deploy("m", compiled(1)).unwrap();
        assert_eq!(reg.previous_version("m"), None, "v1 has no predecessor");
        reg.deploy("m", compiled(2)).unwrap();
        assert_eq!(reg.previous_version("m"), Some(1));

        let v3 = reg.rollback("m").unwrap();
        assert_eq!(v3, 3, "rollback deploys a new version, never rewinds");
        assert_eq!(reg.active_version("m"), Some(3));
        // v3 serves v1's parameters: it predicts identically to a fresh
        // compile of the same seed.
        let mut rng = StdRng::seed_from_u64(9);
        let x = [0.2, 0.7, 0.4, 0.9];
        let want = compiled(1).predict_one(&x, &mut rng).unwrap();
        let got = reg
            .get("m")
            .unwrap()
            .model()
            .predict_one(&x, &mut rng)
            .unwrap();
        assert_eq!(got, want);
        // The regressed v2 artifact is now the rollback target, so a second
        // rollback is the inverse of the first.
        assert_eq!(reg.previous_version("m"), Some(2));
        assert_eq!(reg.rollback("m").unwrap(), 4);
        let want = compiled(2).predict_one(&x, &mut rng).unwrap();
        let got = reg
            .get("m")
            .unwrap()
            .model()
            .predict_one(&x, &mut rng)
            .unwrap();
        assert_eq!(got, want);
        // Rollback never leaks drain references of its own.
        assert_eq!(reg.draining(), 0);
    }

    #[test]
    fn rollback_without_history_is_rejected() {
        let reg = ModelRegistry::new();
        assert!(matches!(
            reg.rollback("ghost"),
            Err(ServeError::UnknownModel(_))
        ));
        reg.deploy("m", compiled(1)).unwrap();
        assert!(matches!(
            reg.rollback("m"),
            Err(ServeError::InvalidConfig(_))
        ));
        // The failed rollback left the active version untouched.
        assert_eq!(reg.active_version("m"), Some(1));
    }

    #[test]
    fn warm_failure_aborts_the_deploy_and_keeps_the_old_version() {
        let reg = ModelRegistry::new();
        reg.deploy("m", compiled(1)).unwrap();
        let v1 = reg.get("m").unwrap();
        // A stochastic SWAP-test artifact with zero shots... not directly
        // constructible; instead exercise the name-validation abort path
        // and assert the registry is untouched by failed deploys.
        assert!(matches!(
            reg.deploy("", compiled(2)),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(Arc::ptr_eq(&reg.get("m").unwrap(), &v1));
        assert_eq!(reg.draining(), 0);
    }
}
