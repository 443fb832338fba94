//! Training loop implementing the paper's Algorithm 1.
//!
//! For every epoch ε and every sample `x` of class `c`, the trainer nudges
//! each parameter of class `c`'s state by the epoch-scaled parameter-shift
//! rule (forward/backward fidelity evaluations), converts the fidelity
//! gradient into a cross-entropy gradient and takes an SGD step. Optionally
//! (contrastive mode) samples of *other* classes are also used as negatives
//! for class `c`, pushing their fidelity down.
//!
//! The trainer records a per-epoch, per-class loss history (Fig. 6a) and can
//! evaluate train/test accuracy after every epoch (Fig. 6c).

use crate::error::QuClassiError;
use crate::gradient::{gradient_from_shifted_values, shifted_parameter_sets, ShiftSchedule};
use crate::loss::{binary_cross_entropy, binary_cross_entropy_grad};
use crate::model::QuClassiModel;
use crate::optimizer::{Optimizer, Sgd};
use crate::swap_test::FidelityEstimator;
use quclassi_sim::batch::BatchExecutor;
use rand::seq::SliceRandom;
use rand::Rng;

/// Hyper-parameters of a training run.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainingConfig {
    /// Number of passes over the data (paper default: 25).
    pub epochs: usize,
    /// SGD learning rate α (paper default: 0.01).
    pub learning_rate: f64,
    /// Parameter-shift schedule (paper default: epoch-scaled π/(2√ε)).
    pub shift: ShiftSchedule,
    /// When true, samples of other classes are used as negative examples
    /// for each class state (in addition to the paper's positive-only
    /// Algorithm 1).
    pub contrastive: bool,
    /// Shuffle the sample order each epoch.
    pub shuffle: bool,
    /// Cap on the number of samples used per class per epoch (`None` = all).
    /// Mirrors the SUBSAMPLE knob in the paper's artifact.
    pub max_samples_per_class: Option<usize>,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            epochs: 25,
            learning_rate: 0.01,
            shift: ShiftSchedule::EpochScaled,
            contrastive: false,
            shuffle: true,
            max_samples_per_class: None,
        }
    }
}

impl TrainingConfig {
    /// Validates the hyper-parameters.
    pub fn validate(&self) -> Result<(), QuClassiError> {
        if self.epochs == 0 {
            return Err(QuClassiError::InvalidConfig(
                "training needs at least one epoch".to_string(),
            ));
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(QuClassiError::InvalidConfig(format!(
                "learning rate must be positive and finite, got {}",
                self.learning_rate
            )));
        }
        Ok(())
    }
}

/// Statistics recorded after each epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochStats {
    /// 1-based epoch number.
    pub epoch: usize,
    /// Mean cross-entropy loss per class (index = class label).
    pub per_class_loss: Vec<f64>,
    /// Mean loss over all classes.
    pub mean_loss: f64,
    /// Accuracy on the evaluation set, when one was supplied.
    pub eval_accuracy: Option<f64>,
}

/// The full history of a training run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrainingHistory {
    /// One record per epoch, in order.
    pub epochs: Vec<EpochStats>,
}

impl TrainingHistory {
    /// The final epoch's mean loss, if any epochs ran.
    pub fn final_loss(&self) -> Option<f64> {
        self.epochs.last().map(|e| e.mean_loss)
    }

    /// The final epoch's evaluation accuracy, if recorded.
    pub fn final_accuracy(&self) -> Option<f64> {
        self.epochs.last().and_then(|e| e.eval_accuracy)
    }

    /// The loss series of one class across epochs (for Fig. 6a-style plots).
    pub fn class_loss_series(&self, class: usize) -> Vec<f64> {
        self.epochs
            .iter()
            .filter_map(|e| e.per_class_loss.get(class).copied())
            .collect()
    }

    /// The accuracy series across epochs (for Fig. 6c-style plots).
    pub fn accuracy_series(&self) -> Vec<f64> {
        self.epochs.iter().filter_map(|e| e.eval_accuracy).collect()
    }
}

/// An optional held-out set evaluated after every epoch.
#[derive(Clone, Copy, Debug)]
pub struct EvalSet<'a> {
    /// Feature rows.
    pub features: &'a [Vec<f64>],
    /// Labels aligned with `features`.
    pub labels: &'a [usize],
}

/// The QuClassi trainer (Algorithm 1).
///
/// ```
/// use quclassi::prelude::*;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let mut model =
///     QuClassiModel::with_random_parameters(QuClassiConfig::qc_s(2, 2), &mut rng).unwrap();
/// let features = vec![vec![0.1, 0.2], vec![0.9, 0.8], vec![0.15, 0.1], vec![0.85, 0.9]];
/// let labels = vec![0, 1, 0, 1];
///
/// let trainer = Trainer::new(
///     TrainingConfig { epochs: 5, learning_rate: 0.1, ..Default::default() },
///     FidelityEstimator::analytic(),
/// );
/// let history = trainer.fit(&mut model, &features, &labels, &mut rng).unwrap();
/// assert_eq!(history.epochs.len(), 5);
/// // Loss is finite and recorded per class.
/// assert!(history.final_loss().unwrap().is_finite());
/// ```
#[derive(Clone, Debug)]
pub struct Trainer {
    /// Training hyper-parameters.
    pub config: TrainingConfig,
    /// Fidelity estimation backend (analytic, ideal SWAP test, noisy, …).
    pub estimator: FidelityEstimator,
    /// Batch executor every per-class/per-shift fidelity evaluation is
    /// dispatched through. Defaults to single-threaded, which is exactly a
    /// sequential loop; any thread count produces bit-identical training.
    batch: BatchExecutor,
}

impl Trainer {
    /// Creates a single-threaded trainer.
    pub fn new(config: TrainingConfig, estimator: FidelityEstimator) -> Self {
        Trainer {
            config,
            estimator,
            batch: BatchExecutor::single_threaded(0),
        }
    }

    /// A trainer with default hyper-parameters and the analytic estimator.
    pub fn default_analytic() -> Self {
        Trainer::new(TrainingConfig::default(), FidelityEstimator::analytic())
    }

    /// Replaces the batch executor (e.g. to fan the `2·P + 1` fidelity
    /// evaluations of every training step out over several threads). The
    /// thread count never changes the result: per-job RNG streams make
    /// training bit-identical for any worker count.
    pub fn with_batch_executor(mut self, batch: BatchExecutor) -> Self {
        self.batch = batch;
        self
    }

    /// The batch executor training dispatches through.
    pub fn batch_executor(&self) -> &BatchExecutor {
        &self.batch
    }

    fn validate_dataset(
        model: &QuClassiModel,
        features: &[Vec<f64>],
        labels: &[usize],
    ) -> Result<(), QuClassiError> {
        if features.len() != labels.len() {
            return Err(QuClassiError::InvalidData(format!(
                "{} feature rows but {} labels",
                features.len(),
                labels.len()
            )));
        }
        if features.is_empty() {
            return Err(QuClassiError::InvalidData(
                "the training set is empty".to_string(),
            ));
        }
        for &y in labels {
            if y >= model.num_classes() {
                return Err(QuClassiError::InvalidLabel {
                    label: y,
                    num_classes: model.num_classes(),
                });
            }
        }
        for x in features {
            model.encoder().validate(x)?;
        }
        Ok(())
    }

    /// Trains the model in place and returns the per-epoch history.
    pub fn fit<R: Rng + ?Sized>(
        &self,
        model: &mut QuClassiModel,
        features: &[Vec<f64>],
        labels: &[usize],
        rng: &mut R,
    ) -> Result<TrainingHistory, QuClassiError> {
        self.fit_with_eval(model, features, labels, None, rng)
    }

    /// Continues training an already-initialised (and possibly already
    /// trained) model on a fresh window of samples for `epochs` passes,
    /// overriding `self.config.epochs` for this call only.
    ///
    /// This is the online-learning entry point: [`Trainer::fit`] always
    /// starts from the model's *current* parameters, so repeated
    /// `fit_incremental` calls on successive stream windows implement
    /// continuous training without any extra state.
    pub fn fit_incremental<R: Rng + ?Sized>(
        &self,
        model: &mut QuClassiModel,
        features: &[Vec<f64>],
        labels: &[usize],
        epochs: usize,
        rng: &mut R,
    ) -> Result<TrainingHistory, QuClassiError> {
        let mut pass = self.clone();
        pass.config.epochs = epochs;
        pass.fit(model, features, labels, rng)
    }

    /// Trains the model and evaluates accuracy on `eval` after every epoch.
    pub fn fit_with_eval<R: Rng + ?Sized>(
        &self,
        model: &mut QuClassiModel,
        features: &[Vec<f64>],
        labels: &[usize],
        eval: Option<EvalSet<'_>>,
        rng: &mut R,
    ) -> Result<TrainingHistory, QuClassiError> {
        self.config.validate()?;
        Self::validate_dataset(model, features, labels)?;

        let num_classes = model.num_classes();
        // Group sample indices by class once.
        let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
        for (i, &y) in labels.iter().enumerate() {
            by_class[y].push(i);
        }

        let mut optimizer = Sgd::new(self.config.learning_rate);
        let mut history = TrainingHistory::default();

        for epoch in 1..=self.config.epochs {
            let shift = self.config.shift.shift(epoch);
            let mut per_class_loss = vec![0.0; num_classes];
            let mut per_class_count = vec![0usize; num_classes];

            for class in 0..num_classes {
                // Select (and possibly subsample / shuffle) this class's samples.
                let mut indices = by_class[class].clone();
                if self.config.shuffle {
                    indices.shuffle(rng);
                }
                if let Some(cap) = self.config.max_samples_per_class {
                    indices.truncate(cap);
                }

                for &idx in &indices {
                    let x = &features[idx];
                    let loss =
                        self.update_class(model, class, x, 1.0, shift, &mut optimizer, rng)?;
                    per_class_loss[class] += loss;
                    per_class_count[class] += 1;

                    if self.config.contrastive {
                        // Use this sample as a negative for every other class.
                        for other in 0..num_classes {
                            if other != class {
                                self.update_class(
                                    model,
                                    other,
                                    x,
                                    0.0,
                                    shift,
                                    &mut optimizer,
                                    rng,
                                )?;
                            }
                        }
                    }
                }
            }

            let per_class_loss: Vec<f64> = per_class_loss
                .iter()
                .zip(per_class_count.iter())
                .map(|(&l, &c)| if c > 0 { l / c as f64 } else { 0.0 })
                .collect();
            let populated = per_class_count.iter().filter(|&&c| c > 0).count().max(1);
            let mean_loss = per_class_loss.iter().sum::<f64>() / populated as f64;

            let eval_accuracy = match eval {
                Some(set) => {
                    Some(model.evaluate_accuracy(set.features, set.labels, &self.estimator, rng)?)
                }
                None => None,
            };

            history.epochs.push(EpochStats {
                epoch,
                per_class_loss,
                mean_loss,
                eval_accuracy,
            });
        }
        Ok(history)
    }

    /// One stochastic update of a single class state on a single sample.
    /// Returns the (pre-update) cross-entropy loss.
    #[allow(clippy::too_many_arguments)]
    fn update_class<R: Rng + ?Sized>(
        &self,
        model: &mut QuClassiModel,
        class: usize,
        x: &[f64],
        target: f64,
        shift: f64,
        optimizer: &mut Sgd,
        rng: &mut R,
    ) -> Result<f64, QuClassiError> {
        let stack = model.stack().clone();
        let encoder = model.encoder().clone();
        let params = model.class_params(class)?.to_vec();

        // One batched dispatch evaluates the current fidelity and every
        // parameter-shift neighbour: the circuit is built once and the
        // 2·P + 1 evaluations fan out over the batch executor.
        // Estimator noise (shots / hardware) flows through per-job RNG
        // streams exactly as it would on a real device, and only stochastic
        // estimators draw from the trainer RNG at all — deterministic
        // training is therefore bit-identical to the sequential path.
        let mut sets = Vec::with_capacity(1 + 2 * params.len());
        sets.push(params.clone());
        sets.extend(shifted_parameter_sets(&params, shift));
        let base_seed = if self.estimator.is_stochastic() {
            rng.gen::<u64>()
        } else {
            0
        };
        let values =
            self.estimator
                .estimate_many(&stack, &sets, &encoder, x, &self.batch, base_seed)?;

        let fidelity = values[0];
        let loss = binary_cross_entropy(fidelity, target);
        let dloss_dfid = binary_cross_entropy_grad(fidelity, target);
        let fidelity_grad = gradient_from_shifted_values(&values[1..]);

        // Chain rule: ∂loss/∂θ = ∂loss/∂F · ∂F/∂θ, then SGD.
        let grads: Vec<f64> = fidelity_grad.iter().map(|g| dloss_dfid * g).collect();
        let mut new_params = params;
        optimizer.step(&mut new_params, &grads);
        model.set_class_params(class, new_params)?;
        Ok(loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QuClassiConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A tiny, cleanly separable 2-class dataset in 4 dimensions.
    fn toy_binary() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..10 {
            let jitter = 0.02 * (i % 5) as f64;
            xs.push(vec![0.1 + jitter, 0.15, 0.1, 0.2 - jitter]);
            ys.push(0);
            xs.push(vec![0.9 - jitter, 0.85, 0.9, 0.8 + jitter]);
            ys.push(1);
        }
        (xs, ys)
    }

    #[test]
    fn config_validation() {
        assert!(TrainingConfig::default().validate().is_ok());
        assert!(TrainingConfig {
            epochs: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TrainingConfig {
            learning_rate: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TrainingConfig {
            learning_rate: f64::NAN,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = TrainingConfig::default();
        assert_eq!(cfg.epochs, 25);
        assert!((cfg.learning_rate - 0.01).abs() < 1e-12);
        assert_eq!(cfg.shift, ShiftSchedule::EpochScaled);
        assert!(!cfg.contrastive);
    }

    #[test]
    fn training_reduces_loss_and_reaches_high_accuracy() {
        let (xs, ys) = toy_binary();
        let mut rng = StdRng::seed_from_u64(7);
        let mut model =
            QuClassiModel::with_random_parameters(QuClassiConfig::qc_s(4, 2), &mut rng).unwrap();
        let trainer = Trainer::new(
            TrainingConfig {
                epochs: 12,
                learning_rate: 0.1,
                ..Default::default()
            },
            FidelityEstimator::analytic(),
        );
        let history = trainer
            .fit_with_eval(
                &mut model,
                &xs,
                &ys,
                Some(EvalSet {
                    features: &xs,
                    labels: &ys,
                }),
                &mut rng,
            )
            .unwrap();
        assert_eq!(history.epochs.len(), 12);
        let first = history.epochs.first().unwrap().mean_loss;
        let last = history.final_loss().unwrap();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        let acc = history.final_accuracy().unwrap();
        assert!(acc >= 0.95, "accuracy too low: {acc}");
    }

    #[test]
    fn contrastive_training_also_converges() {
        let (xs, ys) = toy_binary();
        let mut rng = StdRng::seed_from_u64(11);
        let mut model =
            QuClassiModel::with_random_parameters(QuClassiConfig::qc_s(4, 2), &mut rng).unwrap();
        let trainer = Trainer::new(
            TrainingConfig {
                epochs: 8,
                learning_rate: 0.1,
                contrastive: true,
                ..Default::default()
            },
            FidelityEstimator::analytic(),
        );
        let history = trainer.fit(&mut model, &xs, &ys, &mut rng).unwrap();
        assert_eq!(history.epochs.len(), 8);
        let acc = model
            .evaluate_accuracy(&xs, &ys, &FidelityEstimator::analytic(), &mut rng)
            .unwrap();
        assert!(acc >= 0.95, "accuracy too low: {acc}");
    }

    #[test]
    fn history_series_accessors() {
        let (xs, ys) = toy_binary();
        let mut rng = StdRng::seed_from_u64(3);
        let mut model =
            QuClassiModel::with_random_parameters(QuClassiConfig::qc_s(4, 2), &mut rng).unwrap();
        let trainer = Trainer::new(
            TrainingConfig {
                epochs: 3,
                learning_rate: 0.05,
                ..Default::default()
            },
            FidelityEstimator::analytic(),
        );
        let history = trainer
            .fit_with_eval(
                &mut model,
                &xs,
                &ys,
                Some(EvalSet {
                    features: &xs,
                    labels: &ys,
                }),
                &mut rng,
            )
            .unwrap();
        assert_eq!(history.class_loss_series(0).len(), 3);
        assert_eq!(history.class_loss_series(1).len(), 3);
        assert_eq!(history.accuracy_series().len(), 3);
        assert!(history.class_loss_series(9).is_empty());
    }

    #[test]
    fn dataset_validation_errors() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model =
            QuClassiModel::with_random_parameters(QuClassiConfig::qc_s(4, 2), &mut rng).unwrap();
        let trainer = Trainer::default_analytic();
        // Mismatched lengths.
        assert!(trainer
            .fit(&mut model, &[vec![0.1; 4]], &[0, 1], &mut rng)
            .is_err());
        // Empty set.
        assert!(trainer.fit(&mut model, &[], &[], &mut rng).is_err());
        // Label out of range.
        assert!(trainer
            .fit(&mut model, &[vec![0.1; 4]], &[7], &mut rng)
            .is_err());
        // Un-normalised feature.
        assert!(trainer
            .fit(&mut model, &[vec![2.0, 0.1, 0.1, 0.1]], &[0], &mut rng)
            .is_err());
    }

    #[test]
    fn subsampling_caps_per_class_work() {
        let (xs, ys) = toy_binary();
        let mut rng = StdRng::seed_from_u64(5);
        let mut model =
            QuClassiModel::with_random_parameters(QuClassiConfig::qc_s(4, 2), &mut rng).unwrap();
        let trainer = Trainer::new(
            TrainingConfig {
                epochs: 2,
                max_samples_per_class: Some(2),
                ..Default::default()
            },
            FidelityEstimator::analytic(),
        );
        let history = trainer.fit(&mut model, &xs, &ys, &mut rng).unwrap();
        assert_eq!(history.epochs.len(), 2);
    }

    #[test]
    fn fit_incremental_matches_fit_and_continues() {
        let (xs, ys) = toy_binary();
        let base_trainer = Trainer::new(
            TrainingConfig {
                epochs: 7, // deliberately different from the incremental pass
                learning_rate: 0.05,
                ..Default::default()
            },
            FidelityEstimator::analytic(),
        );
        let params = |m: &QuClassiModel| -> Vec<Vec<u64>> {
            (0..2)
                .map(|c| {
                    m.class_params(c)
                        .unwrap()
                        .iter()
                        .map(|p| p.to_bits())
                        .collect()
                })
                .collect()
        };

        // One incremental pass with `epochs` overridden is bit-identical to a
        // plain fit configured with those epochs.
        let mut rng = StdRng::seed_from_u64(11);
        let mut a =
            QuClassiModel::with_random_parameters(QuClassiConfig::qc_s(4, 2), &mut rng).unwrap();
        let mut b = a.clone();
        let mut rng_a = StdRng::seed_from_u64(13);
        let mut rng_b = StdRng::seed_from_u64(13);
        let history = base_trainer
            .fit_incremental(&mut a, &xs, &ys, 2, &mut rng_a)
            .unwrap();
        assert_eq!(history.epochs.len(), 2);
        let mut two_epoch = base_trainer.clone();
        two_epoch.config.epochs = 2;
        two_epoch.fit(&mut b, &xs, &ys, &mut rng_b).unwrap();
        assert_eq!(params(&a), params(&b));
        // The override is per-call: the trainer's own config is untouched.
        assert_eq!(base_trainer.config.epochs, 7);

        // A second incremental window continues from the current parameters.
        let before = params(&a);
        base_trainer
            .fit_incremental(&mut a, &xs, &ys, 1, &mut rng_a)
            .unwrap();
        assert_ne!(params(&a), before, "second window should keep training");
    }

    #[test]
    fn training_is_bit_identical_for_any_thread_count() {
        // The batch executor must never change what is learned: the same
        // seed through 1, 2 and 8 workers yields the same parameters to the
        // last bit, for a deterministic and a stochastic estimator alike.
        let (xs, ys) = toy_binary();
        let estimators = [
            FidelityEstimator::analytic(),
            FidelityEstimator::swap_test(
                quclassi_sim::executor::Executor::ideal().with_shots(Some(256)),
            ),
        ];
        for estimator in estimators {
            let run = |threads: usize| -> Vec<Vec<u64>> {
                let mut rng = StdRng::seed_from_u64(29);
                let mut model =
                    QuClassiModel::with_random_parameters(QuClassiConfig::qc_s(4, 2), &mut rng)
                        .unwrap();
                let trainer = Trainer::new(
                    TrainingConfig {
                        epochs: 2,
                        learning_rate: 0.05,
                        ..Default::default()
                    },
                    estimator.clone(),
                )
                .with_batch_executor(BatchExecutor::new(threads, 0));
                trainer.fit(&mut model, &xs, &ys, &mut rng).unwrap();
                (0..2)
                    .map(|c| {
                        model
                            .class_params(c)
                            .unwrap()
                            .iter()
                            .map(|p| p.to_bits())
                            .collect()
                    })
                    .collect()
            };
            let one = run(1);
            assert_eq!(one, run(2), "2 threads diverged");
            assert_eq!(one, run(8), "8 threads diverged");
        }
    }

    #[test]
    fn multiclass_training_runs_and_improves() {
        // Three well-separated clusters in 2D.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..8 {
            let j = 0.01 * i as f64;
            xs.push(vec![0.1 + j, 0.1]);
            ys.push(0);
            xs.push(vec![0.5, 0.9 - j]);
            ys.push(1);
            xs.push(vec![0.9 - j, 0.1 + j]);
            ys.push(2);
        }
        let mut rng = StdRng::seed_from_u64(21);
        let mut model =
            QuClassiModel::with_random_parameters(QuClassiConfig::qc_s(2, 3), &mut rng).unwrap();
        let trainer = Trainer::new(
            TrainingConfig {
                epochs: 15,
                learning_rate: 0.1,
                contrastive: true,
                ..Default::default()
            },
            FidelityEstimator::analytic(),
        );
        trainer.fit(&mut model, &xs, &ys, &mut rng).unwrap();
        let acc = model
            .evaluate_accuracy(&xs, &ys, &FidelityEstimator::analytic(), &mut rng)
            .unwrap();
        assert!(acc > 0.7, "multiclass accuracy too low: {acc}");
    }
}
