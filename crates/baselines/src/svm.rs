//! One-vs-rest linear SVM trained by SGD on the hinge loss (the multi-class
//! linear SVM used by SDSDL \[45\]).

use nn::Mat;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Linear SVM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SvmConfig {
    /// SGD epochs.
    pub epochs: usize,
    /// Initial learning rate (decayed 1/(1+t)).
    pub lr: f32,
    /// L2 regularization strength.
    pub lambda: f32,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for SvmConfig {
    fn default() -> Self {
        Self { epochs: 20, lr: 0.05, lambda: 1e-4, seed: 0 }
    }
}

/// One-vs-rest linear SVM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearSvm {
    /// Per-class weight vectors, `(classes, dim)`.
    weights: Mat,
    /// Per-class biases.
    bias: Vec<f32>,
}

impl LinearSvm {
    /// Trains on `(feature, label)` rows; `x` is `(n, dim)`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or labels exceed `classes`.
    pub fn train(x: &Mat, labels: &[usize], classes: usize, cfg: &SvmConfig) -> Self {
        assert!(x.rows() > 0, "LinearSvm::train: empty input");
        assert_eq!(x.rows(), labels.len(), "labels/rows mismatch");
        assert!(labels.iter().all(|&l| l < classes), "label out of range");

        let dim = x.cols();
        let mut weights = Mat::zeros(classes, dim);
        let mut bias = vec![0.0f32; classes];
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..x.rows()).collect();
        let mut t = 0usize;

        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                t += 1;
                let lr = cfg.lr / (1.0 + cfg.lambda * cfg.lr * t as f32);
                let xi = x.row(i);
                for c in 0..classes {
                    let y = if labels[i] == c { 1.0f32 } else { -1.0 };
                    let margin = y * (dot(weights.row(c), xi) + bias[c]);
                    // L2 shrink.
                    let shrink = 1.0 - lr * cfg.lambda;
                    for w in weights.row_mut(c) {
                        *w *= shrink;
                    }
                    if margin < 1.0 {
                        for (w, &xv) in weights.row_mut(c).iter_mut().zip(xi.iter()) {
                            *w += lr * y * xv;
                        }
                        bias[c] += lr * y;
                    }
                }
            }
        }
        Self { weights, bias }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.bias.len()
    }

    /// Per-class decision scores for one feature row.
    pub fn scores(&self, x: &[f32]) -> Vec<f32> {
        (0..self.classes()).map(|c| dot(self.weights.row(c), x) + self.bias[c]).collect()
    }

    /// Predicted class for one feature row.
    pub fn predict(&self, x: &[f32]) -> usize {
        let scores = self.scores(x);
        let mut best = 0;
        for (c, &s) in scores.iter().enumerate() {
            if s > scores[best] {
                best = c;
            }
        }
        best
    }
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n: usize) -> (Mat, Vec<usize>) {
        // Three linearly separable clusters on a triangle.
        let centers = [(0.0f32, 3.0f32), (3.0, -2.0), (-3.0, -2.0)];
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let c = i % 3;
            let jitter = ((i * 37 % 100) as f32 / 100.0 - 0.5) * 0.8;
            data.extend_from_slice(&[centers[c].0 + jitter, centers[c].1 - jitter]);
            labels.push(c);
        }
        (Mat::from_vec(n, 2, data), labels)
    }

    #[test]
    fn svm_separates_blobs() {
        let (x, y) = blobs(90);
        let svm = LinearSvm::train(&x, &y, 3, &SvmConfig::default());
        let correct = (0..x.rows()).filter(|&i| svm.predict(x.row(i)) == y[i]).count();
        assert!(correct as f32 > 0.95 * x.rows() as f32, "{correct}/90 correct");
    }

    #[test]
    fn scores_have_one_entry_per_class() {
        let (x, y) = blobs(30);
        let svm = LinearSvm::train(&x, &y, 3, &SvmConfig::default());
        assert_eq!(svm.scores(x.row(0)).len(), 3);
        assert_eq!(svm.classes(), 3);
    }

    #[test]
    fn training_is_deterministic() {
        let (x, y) = blobs(30);
        let a = LinearSvm::train(&x, &y, 3, &SvmConfig::default());
        let b = LinearSvm::train(&x, &y, 3, &SvmConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        let (x, _) = blobs(3);
        let _ = LinearSvm::train(&x, &[0, 1, 5], 3, &SvmConfig::default());
    }
}
