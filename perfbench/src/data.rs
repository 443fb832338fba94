//! Seeded inputs: the training sets and a fresh sample for every request.

use quclassi_classical::pca::Pca;
use quclassi_datasets::preprocess::{normalize_split, MinMaxScaler};
use quclassi_datasets::{iris, mnist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A labelled train/held-out split, every feature in [0, 1].
#[derive(Clone)]
pub struct Split {
    pub train_x: Vec<Vec<f64>>,
    pub train_y: Vec<usize>,
    pub test_x: Vec<Vec<f64>>,
    pub test_y: Vec<usize>,
}

/// Iris (150 samples, 70/30 stratified split), normalised on the training
/// part.
pub fn iris(seed: u64) -> Split {
    let mut rng = StdRng::seed_from_u64(seed);
    let (train, test) = iris::load_with(50, seed).stratified_split(0.7, &mut rng);
    let (train, test) = normalize_split(&train, &test);
    Split {
        train_x: train.features,
        train_y: train.labels,
        test_x: test.features,
        test_y: test.labels,
    }
}

/// A new request input: an Iris row with Gaussian jitter (σ = 0.03),
/// reflected back into [0, 1]. Reflection rather than clamping keeps the
/// noise continuous at the edges, so inputs never repeat: a clamped row
/// whose features all sit at 0 or 1 repeats often enough to hit the
/// serving cache.
pub fn jittered(rows: &[Vec<f64>], rng: &mut StdRng) -> Vec<f64> {
    let row = &rows[rng.gen_range(0..rows.len())];
    row.iter()
        .map(|&v| {
            // Box–Muller.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let w = v + 0.03 * z;
            let reflected = if w < 0.0 {
                -w
            } else if w > 1.0 {
                2.0 - w
            } else {
                w
            };
            reflected.clamp(0.0, 1.0)
        })
        .collect()
}

/// The procedural-MNIST digit pair every MNIST workload classifies.
const DIGITS: [usize; 2] = [3, 6];
/// PCA dimensions: 8-qubit registers, 17 qubits with the SWAP-test ancilla.
pub const PCA_DIMS: usize = 16;

/// A procedural-MNIST digit pair reduced by PCA and min–max scaled, with
/// the fitted transforms kept so fresh samples go through the same path.
pub struct Mnist {
    pub split: Split,
    pca: Pca,
    scaler: MinMaxScaler,
}

impl Mnist {
    /// `train` and `test` samples per digit, drawn from `seed`.
    pub fn generate(seed: u64, train: usize, test: usize) -> Mnist {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut raw = |n: usize| {
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for _ in 0..n {
                for (label, &digit) in DIGITS.iter().enumerate() {
                    xs.push(mnist::sample_digit(digit, &mut rng));
                    ys.push(label);
                }
            }
            (xs, ys)
        };
        let (train_raw, train_y) = raw(train);
        let (test_raw, test_y) = raw(test);
        let pca = Pca::fit(&train_raw, PCA_DIMS, &mut rng);
        let (scaler, train_x, test_x) =
            MinMaxScaler::fit_transform_pair(&pca.transform(&train_raw), &pca.transform(&test_raw));
        Mnist {
            split: Split {
                train_x,
                train_y,
                test_x,
                test_y,
            },
            pca,
            scaler,
        }
    }

    /// A new digit of the pair, rendered and passed through the training
    /// PCA and scaler.
    pub fn fresh(&self, rng: &mut StdRng) -> Vec<f64> {
        let digit = DIGITS[rng.gen_range(0..DIGITS.len())];
        let image = mnist::sample_digit(digit, rng);
        self.scaler.transform_one(&self.pca.transform_one(&image))
    }
}
