//! Parallel batch execution with deterministic per-job randomness.
//!
//! Training evaluates the same circuit shape against many parameter vectors
//! (every sample × class × parameter-shift evaluation); inference scores a
//! batch of samples against every class state. A [`BatchExecutor`] runs such
//! job lists over a small scoped thread pool (`vendor/threadpool`) while
//! keeping the results **bit-identical regardless of thread count**:
//!
//! * each job receives its own [`StdRng`] seeded by SplitMix64 from a root
//!   (or caller-provided base) seed and the job's stable index — never from
//!   a shared stream whose consumption order would depend on scheduling;
//! * results are returned in job order, not completion order.
//!
//! Consequently `BatchExecutor::new(1, seed)`, `::new(2, seed)` and
//! `::new(8, seed)` produce the same bytes for the same jobs, and a
//! single-threaded pool is exactly a sequential loop — which is what makes
//! the batched training path verifiable against the sequential golden run.

use crate::circuit::Circuit;
use crate::error::SimError;
use crate::executor::Executor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use threadpool::ThreadPool;

/// Expands a seed through SplitMix64 — the same scrambler `rand` documents
/// for `seed_from_u64` — so consecutive job indices land on statistically
/// independent streams.
fn splitmix64(mut state: u64) -> u64 {
    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A parallel evaluator for batches of circuit jobs.
///
/// Construction is cheap (no OS threads are held between batches), so a
/// `BatchExecutor` can be freely cloned into trainers and estimators.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchExecutor {
    pool: ThreadPool,
    root_seed: u64,
}

impl Default for BatchExecutor {
    fn default() -> Self {
        BatchExecutor::single_threaded(0)
    }
}

impl BatchExecutor {
    /// Creates a batch executor running jobs on `threads` workers, deriving
    /// per-job RNG streams from `root_seed`.
    ///
    /// # Panics
    /// Panics if `threads` is zero — rejected at construction, like
    /// [`Executor::with_trajectories`] with zero trajectories.
    pub fn new(threads: usize, root_seed: u64) -> Self {
        BatchExecutor {
            pool: ThreadPool::new(threads),
            root_seed,
        }
    }

    /// A batch executor that runs every job inline on the calling thread.
    pub fn single_threaded(root_seed: u64) -> Self {
        BatchExecutor {
            pool: ThreadPool::single_threaded(),
            root_seed,
        }
    }

    /// A batch executor sized from the environment: the worker count from
    /// `QUCLASSI_THREADS` (unset → the machine's available parallelism).
    /// This is the constructor servers, benches and examples should use —
    /// the knob is a pure throughput knob (results are bit-identical for
    /// any value), so it is safe to let the deployment environment choose
    /// it.
    ///
    /// # Errors
    /// A `QUCLASSI_THREADS` value that is set but does not parse as a
    /// positive integer is **rejected** with
    /// [`SimError::InvalidConfiguration`], not silently replaced by a
    /// default: a typo in a deployment knob must surface at startup, not
    /// degrade a server to an unintended thread count.
    pub fn from_env(root_seed: u64) -> Result<Self, SimError> {
        let spec = std::env::var("QUCLASSI_THREADS").ok();
        Self::from_thread_spec(spec.as_deref(), root_seed)
    }

    /// The pure core of [`BatchExecutor::from_env`]: builds an executor from
    /// an optional `QUCLASSI_THREADS`-style specification. `None` (and the
    /// empty string, i.e. `QUCLASSI_THREADS=`) mean "unset — use available
    /// parallelism"; anything else must parse as a positive integer.
    pub fn from_thread_spec(spec: Option<&str>, root_seed: u64) -> Result<Self, SimError> {
        let threads = match spec.map(str::trim).filter(|s| !s.is_empty()) {
            None => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Some(raw) => match raw.parse::<usize>() {
                Ok(n) if n > 0 => n,
                Ok(_) => {
                    return Err(SimError::InvalidConfiguration(
                        "QUCLASSI_THREADS must be a positive integer; \
                         0 threads cannot make progress (unset the variable \
                         to use all available cores)"
                            .to_string(),
                    ))
                }
                Err(_) => {
                    return Err(SimError::InvalidConfiguration(format!(
                        "QUCLASSI_THREADS must be a positive integer, got '{raw}'"
                    )))
                }
            },
        };
        Ok(BatchExecutor::new(threads, root_seed))
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The root seed per-job streams are derived from.
    pub fn root_seed(&self) -> u64 {
        self.root_seed
    }

    /// The seed of job `index` under base seed `base`: a pure function of
    /// `(base, index)`, independent of thread count and scheduling.
    pub fn job_seed(base: u64, index: u64) -> u64 {
        splitmix64(base ^ splitmix64(index))
    }

    /// Runs `f` over `jobs` in parallel. Each invocation receives the job's
    /// index, the job itself, and a private RNG seeded from the executor's
    /// root seed and that index. Results come back in job order.
    pub fn run<T, U, F>(&self, jobs: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(usize, T, &mut StdRng) -> U + Sync,
    {
        self.run_seeded(self.root_seed, jobs, f)
    }

    /// Like [`BatchExecutor::run`] but derives per-job RNGs from `base`
    /// instead of the root seed. Callers that dispatch many batches (e.g.
    /// one per training step) thread a fresh base seed through each batch so
    /// stochastic estimates do not repeat, while thread-count invariance is
    /// preserved within every batch.
    pub fn run_seeded<T, U, F>(&self, base: u64, jobs: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(usize, T, &mut StdRng) -> U + Sync,
    {
        self.pool.scoped_map(jobs, |index, job| {
            let mut rng = StdRng::seed_from_u64(Self::job_seed(base, index as u64));
            f(index, job, &mut rng)
        })
    }

    /// Like [`BatchExecutor::run_seeded`], but every worker additionally
    /// carries a private scratch value created once by `init` and reused
    /// across all the jobs that worker runs — the hook that lets a loop
    /// reuse one statevector buffer instead of allocating one per job.
    /// Thread-count invariance is preserved as long as jobs fully
    /// overwrite whatever scratch state they read.
    pub fn run_seeded_with_scratch<T, U, S, I, F>(
        &self,
        base: u64,
        jobs: Vec<T>,
        init: I,
        f: F,
    ) -> Vec<U>
    where
        T: Send,
        U: Send,
        I: Fn() -> S + Sync,
        F: Fn(usize, T, &mut StdRng, &mut S) -> U + Sync,
    {
        self.pool
            .scoped_map_with(jobs, init, |index, job, scratch| {
                let mut rng = StdRng::seed_from_u64(Self::job_seed(base, index as u64));
                f(index, job, &mut rng, scratch)
            })
    }

    /// Samples `shots` full-register measurements for each parameter set,
    /// returning one histogram per set (see [`Executor::sample_counts`]).
    pub fn sample_counts(
        &self,
        executor: &Executor,
        circuit: &Circuit,
        param_sets: &[Vec<f64>],
        shots: usize,
        base_seed: u64,
    ) -> Result<Vec<Vec<(usize, usize)>>, SimError> {
        let jobs: Vec<&[f64]> = param_sets.iter().map(Vec::as_slice).collect();
        self.run_seeded(base_seed, jobs, |_, params, rng| {
            executor.sample_counts(circuit, params, shots, rng)
        })
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;

    fn ry_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.ry_param(0, 0).ry_param(1, 1).cnot(0, 1);
        c
    }

    #[test]
    fn default_is_single_threaded() {
        let b = BatchExecutor::default();
        assert_eq!(b.threads(), 1);
        assert_eq!(b.root_seed(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected_at_construction() {
        let _ = BatchExecutor::new(0, 7);
    }

    #[test]
    fn job_seeds_are_stable_and_distinct() {
        let a = BatchExecutor::job_seed(42, 0);
        let b = BatchExecutor::job_seed(42, 1);
        let c = BatchExecutor::job_seed(43, 0);
        assert_eq!(a, BatchExecutor::job_seed(42, 0));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn run_results_are_thread_count_invariant() {
        use rand::Rng;
        let jobs: Vec<usize> = (0..40).collect();
        let eval = |b: &BatchExecutor| {
            b.run(jobs.clone(), |i, job, rng| {
                assert_eq!(i, job);
                rng.gen::<u64>()
            })
        };
        let one = eval(&BatchExecutor::new(1, 99));
        let two = eval(&BatchExecutor::new(2, 99));
        let eight = eval(&BatchExecutor::new(8, 99));
        assert_eq!(one, two);
        assert_eq!(one, eight);
        // Different root seed → different streams.
        assert_ne!(one, eval(&BatchExecutor::new(1, 100)));
    }

    #[test]
    fn probabilities_match_direct_execution() {
        let circuit = ry_circuit();
        let exec = Executor::ideal();
        let sets: Vec<Vec<f64>> = (0..6)
            .map(|i| vec![0.2 * i as f64, 1.0 - 0.1 * i as f64])
            .collect();
        let batch = BatchExecutor::new(4, 0);
        let got = batch.run_seeded(0, sets.clone(), |_, params, rng| {
            exec.probability_of_one(&circuit, &params, 1, rng)
        });
        for (params, p) in sets.iter().zip(got) {
            let direct = circuit
                .execute(params)
                .unwrap()
                .probability_of_one(1)
                .unwrap();
            assert_eq!(p.unwrap().to_bits(), direct.to_bits());
        }
    }

    #[test]
    fn execute_statevectors_matches_sequential() {
        let circuit = ry_circuit();
        let sets: Vec<Vec<f64>> = vec![vec![0.1, 0.2], vec![1.5, -0.4], vec![3.0, 0.0]];
        let batch = BatchExecutor::new(8, 1);
        let states = batch.run(sets.clone(), |_, params, _| circuit.execute(&params));
        for (params, sv) in sets.iter().zip(states) {
            assert_eq!(sv.unwrap(), circuit.execute(params).unwrap());
        }
    }

    #[test]
    fn per_job_circuits_match_direct_execution_for_any_thread_count() {
        let a = {
            let mut c = Circuit::new(2);
            c.ry_param(0, 0).cnot(0, 1);
            c
        };
        let b = {
            let mut c = Circuit::new(2);
            c.h(0).rz_param(1, 0).cnot(1, 0);
            c
        };
        let pa = vec![0.4];
        let pb = vec![-1.1];
        let jobs: Vec<(&Circuit, &[f64])> = vec![(&a, &pa), (&b, &pb), (&a, &pb)];
        let exec = Executor::ideal().with_shots(Some(64));
        let reference: Vec<u64> = jobs
            .iter()
            .enumerate()
            .map(|(i, (circuit, params))| {
                let mut rng = StdRng::seed_from_u64(BatchExecutor::job_seed(5, i as u64));
                exec.probability_of_one(circuit, params, 0, &mut rng)
                    .unwrap()
                    .to_bits()
            })
            .collect();
        for threads in [1usize, 2, 8] {
            let got: Vec<u64> = BatchExecutor::new(threads, 0)
                .run_seeded(5, jobs.clone(), |_, (circuit, params), rng| {
                    exec.probability_of_one(circuit, params, 0, rng)
                        .unwrap()
                        .to_bits()
                })
                .into_iter()
                .collect();
            assert_eq!(got, reference, "{threads} threads");
        }
    }

    #[test]
    fn from_env_honours_quclassi_threads() {
        // Only assert on the ambient-environment path here: mutating the
        // process environment in tests would race other threads. The
        // explicit specs are covered by `from_thread_spec` below.
        let b = BatchExecutor::from_env(3).unwrap();
        assert!(b.threads() >= 1);
        assert_eq!(b.root_seed(), 3);
    }

    #[test]
    fn thread_spec_accepts_positive_integers() {
        let b = BatchExecutor::from_thread_spec(Some("4"), 9).unwrap();
        assert_eq!(b.threads(), 4);
        assert_eq!(b.root_seed(), 9);
        // Surrounding whitespace is tolerated (shell quoting artefacts).
        assert_eq!(
            BatchExecutor::from_thread_spec(Some(" 2 "), 0)
                .unwrap()
                .threads(),
            2
        );
        // Unset and empty both mean "use available parallelism".
        assert!(BatchExecutor::from_thread_spec(None, 0).unwrap().threads() >= 1);
        assert!(
            BatchExecutor::from_thread_spec(Some(""), 0)
                .unwrap()
                .threads()
                >= 1
        );
    }

    #[test]
    fn thread_spec_rejects_zero_and_garbage() {
        for bad in ["0", "abc", "-2", "1.5", "2x"] {
            let err =
                BatchExecutor::from_thread_spec(Some(bad), 0).expect_err("spec should be rejected");
            match err {
                SimError::InvalidConfiguration(msg) => {
                    assert!(msg.contains("QUCLASSI_THREADS"), "{msg}")
                }
                other => panic!("unexpected error for {bad:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn errors_propagate_from_jobs() {
        let mut c = Circuit::new(1);
        c.push(Gate::Ry(0, 0.0));
        c.ry_param(0, 5); // needs 6 params
        let batch = BatchExecutor::new(2, 0);
        let results = batch.run(vec![vec![0.1]], |_, params, _| c.execute(&params));
        assert!(matches!(results[0], Err(SimError::UnboundParameter { .. })));
    }
}
