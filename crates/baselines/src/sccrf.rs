//! Skip-Chain Conditional Random Field gesture segmentation, after
//! Lea et al. \[44\] ("a variation of the Skip-Chain CRF that can better
//! capture transitions between gestures over longer periods of frames").
//!
//! Structure: linear-chain transitions plus *skip edges* of length `k`
//! connecting frame `t` to `t - k`. Exact inference in skip-chain CRFs is
//! intractable; like common practice we decode with Viterbi over the chain
//! while scoring skip edges against the best-scoring label at `t - k`
//! (a greedy skip approximation). Training is by the structured perceptron.

use crate::scaler::Scaler;
use nn::Mat;
use serde::{Deserialize, Serialize};

/// SC-CRF configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScCrfConfig {
    /// Skip-edge length in frames (Lea et al. sweep ~0.3–1 s).
    pub skip: usize,
    /// Structured-perceptron epochs.
    pub epochs: usize,
    /// Perceptron step size.
    pub lr: f32,
    /// Number of label classes.
    pub classes: usize,
}

impl Default for ScCrfConfig {
    fn default() -> Self {
        Self { skip: 10, epochs: 8, lr: 0.1, classes: gestures::NUM_GESTURES }
    }
}

/// A trained skip-chain CRF.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScCrf {
    cfg: ScCrfConfig,
    scaler: Scaler,
    /// Unary weights, `(classes, dim + 1)` (last column = bias).
    unary: Mat,
    /// Chain transition weights, `(classes, classes)`.
    trans: Mat,
    /// Skip-edge weights, `(classes, classes)`.
    skip_trans: Mat,
}

impl ScCrf {
    /// Trains on `(frames, labels)` sequences.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or a sequence's labels mismatch its frames.
    pub fn train(data: &[(&Mat, &[usize])], cfg: &ScCrfConfig) -> Self {
        assert!(!data.is_empty(), "ScCrf::train: no sequences");
        for (x, y) in data {
            assert_eq!(x.rows(), y.len(), "frames/labels mismatch");
        }
        let scaler = Scaler::fit(data.iter().map(|(x, _)| *x));
        let dim = scaler.dims();
        let mut model = Self {
            cfg: *cfg,
            scaler,
            unary: Mat::zeros(cfg.classes, dim + 1),
            trans: Mat::zeros(cfg.classes, cfg.classes),
            skip_trans: Mat::zeros(cfg.classes, cfg.classes),
        };

        let scaled: Vec<(Mat, &[usize])> =
            data.iter().map(|(x, y)| (model.scaler.apply(x), *y)).collect();

        for _epoch in 0..cfg.epochs {
            for (x, gold) in &scaled {
                let pred = model.viterbi(x);
                model.perceptron_update(x, gold, &pred, cfg.lr);
            }
        }
        model
    }

    fn perceptron_update(&mut self, x: &Mat, gold: &[usize], pred: &[usize], lr: f32) {
        let k = self.cfg.skip;
        for t in 0..x.rows() {
            if gold[t] != pred[t] {
                let row = x.row(t);
                {
                    let w = self.unary.row_mut(gold[t]);
                    for (wi, &xi) in w.iter_mut().zip(row.iter()) {
                        *wi += lr * xi;
                    }
                    w[row.len()] += lr;
                }
                {
                    let w = self.unary.row_mut(pred[t]);
                    for (wi, &xi) in w.iter_mut().zip(row.iter()) {
                        *wi -= lr * xi;
                    }
                    w[row.len()] -= lr;
                }
            }
            if t > 0 && (gold[t] != pred[t] || gold[t - 1] != pred[t - 1]) {
                self.trans[(gold[t - 1], gold[t])] += lr;
                self.trans[(pred[t - 1], pred[t])] -= lr;
            }
            if t >= k && (gold[t] != pred[t] || gold[t - k] != pred[t - k]) {
                self.skip_trans[(gold[t - k], gold[t])] += lr;
                self.skip_trans[(pred[t - k], pred[t])] -= lr;
            }
        }
    }

    fn unary_score(&self, row: &[f32], y: usize) -> f32 {
        let w = self.unary.row(y);
        let mut s = w[row.len()];
        for (&wi, &xi) in w.iter().zip(row.iter()) {
            s += wi * xi;
        }
        s
    }

    /// Viterbi decoding with greedy skip-edge scoring.
    fn viterbi(&self, x: &Mat) -> Vec<usize> {
        let n = x.rows();
        let c = self.cfg.classes;
        let k = self.cfg.skip;
        if n == 0 {
            return Vec::new();
        }
        let mut dp = vec![vec![f32::NEG_INFINITY; c]; n];
        let mut bp = vec![vec![0usize; c]; n];
        let mut best_at: Vec<usize> = vec![0; n];

        for y in 0..c {
            dp[0][y] = self.unary_score(x.row(0), y);
        }
        best_at[0] = argmax(&dp[0]);

        for t in 1..n {
            let row = x.row(t);
            for y in 0..c {
                let mut best_prev = 0usize;
                let mut best_score = f32::NEG_INFINITY;
                for yp in 0..c {
                    let s = dp[t - 1][yp] + self.trans[(yp, y)];
                    if s > best_score {
                        best_score = s;
                        best_prev = yp;
                    }
                }
                let mut score = best_score + self.unary_score(row, y);
                if t >= k {
                    score += self.skip_trans[(best_at[t - k], y)];
                }
                dp[t][y] = score;
                bp[t][y] = best_prev;
            }
            best_at[t] = argmax(&dp[t]);
        }

        // Backtrack.
        let mut out = vec![0usize; n];
        out[n - 1] = argmax(&dp[n - 1]);
        for t in (1..n).rev() {
            out[t - 1] = bp[t][out[t]];
        }
        out
    }

    /// Predicts per-frame labels for a sequence.
    pub fn predict(&self, frames: &Mat) -> Vec<usize> {
        let scaled = self.scaler.apply(frames);
        self.viterbi(&scaled)
    }

    /// Frame-level accuracy on a labeled sequence set.
    pub fn accuracy(&self, data: &[(&Mat, &[usize])]) -> f32 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for (x, y) in data {
            let pred = self.predict(x);
            correct += pred.iter().zip(y.iter()).filter(|(a, b)| a == b).count();
            total += y.len();
        }
        if total == 0 {
            f32::NAN
        } else {
            correct as f32 / total as f32
        }
    }
}

fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-phase sequences: phase 0 has feature ~(1, 0), phase 1 ~(0, 1),
    /// with a mid-sequence noisy stretch that transition weights should
    /// smooth over.
    fn toy_sequences(n: usize) -> Vec<(Mat, Vec<usize>)> {
        (0..n)
            .map(|i| {
                let len = 40 + (i % 3) * 10;
                let split = len / 2;
                let mut rows = Vec::new();
                let mut labels = Vec::new();
                for t in 0..len {
                    let phase = usize::from(t >= split);
                    let wiggle = ((t * 13 + i * 7) % 10) as f32 / 30.0;
                    let (a, b) = if phase == 0 { (1.0, wiggle) } else { (wiggle, 1.0) };
                    rows.extend_from_slice(&[a, b]);
                    labels.push(phase);
                }
                (Mat::from_vec(len, 2, rows), labels)
            })
            .collect()
    }

    #[test]
    fn sccrf_learns_two_phase_toy() {
        let seqs = toy_sequences(6);
        let data: Vec<(&Mat, &[usize])> = seqs.iter().map(|(x, y)| (x, y.as_slice())).collect();
        let cfg = ScCrfConfig { classes: 2, skip: 5, epochs: 10, lr: 0.1 };
        let model = ScCrf::train(&data, &cfg);
        let acc = model.accuracy(&data);
        assert!(acc > 0.9, "train accuracy {acc}");
    }

    #[test]
    fn prediction_length_matches_input() {
        let seqs = toy_sequences(2);
        let data: Vec<(&Mat, &[usize])> = seqs.iter().map(|(x, y)| (x, y.as_slice())).collect();
        let model = ScCrf::train(&data, &ScCrfConfig { classes: 2, ..Default::default() });
        assert_eq!(model.predict(&seqs[0].0).len(), seqs[0].0.rows());
    }

    #[test]
    fn transitions_encourage_smooth_segments() {
        let seqs = toy_sequences(6);
        let data: Vec<(&Mat, &[usize])> = seqs.iter().map(|(x, y)| (x, y.as_slice())).collect();
        let cfg = ScCrfConfig { classes: 2, skip: 5, epochs: 10, lr: 0.1 };
        let model = ScCrf::train(&data, &cfg);
        // Prediction changes label at most a few times on a 2-phase stream:
        // the transition weights suppress frame-level flicker.
        let pred = model.predict(&seqs[0].0);
        let switches = pred.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(switches <= 4, "too many segments: {switches}");
    }

    #[test]
    #[should_panic(expected = "no sequences")]
    fn rejects_empty_training() {
        let _ = ScCrf::train(&[], &ScCrfConfig::default());
    }
}
