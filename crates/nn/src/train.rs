//! Mini-batch training loop with early stopping, matching the paper's
//! recipe: Adam + step-decay + early stopping on a held-out validation set.

use crate::loss::cross_entropy_weighted;
use crate::mat::Mat;
use crate::network::{Network, NetworkScratch};
use crate::optim::{Adam, StepDecay};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A labeled training sample: a `(T, F)` window and its class index.
pub type Sample = (Mat, usize);

/// Training-loop configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Maximum number of epochs.
    pub epochs: usize,
    /// Mini-batch size (gradients are averaged over the batch).
    pub batch_size: usize,
    /// Learning-rate schedule.
    pub schedule: StepDecay,
    /// Early stopping: stop after this many epochs without validation
    /// improvement. `None` disables early stopping.
    pub patience: Option<usize>,
    /// Per-class loss weights (e.g. inverse-frequency for imbalanced data).
    pub class_weights: Option<Vec<f32>>,
    /// Global gradient-norm clip; `None` disables clipping.
    pub grad_clip: Option<f32>,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            batch_size: 16,
            schedule: StepDecay::new(1e-3, 0.5, 10),
            patience: Some(5),
            class_weights: None,
            grad_clip: Some(5.0),
            seed: 0,
        }
    }
}

/// Per-epoch statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean training loss.
    pub train_loss: f32,
    /// Mean validation loss (or train loss if no validation set).
    pub val_loss: f32,
    /// Validation accuracy.
    pub val_accuracy: f32,
    /// Learning rate used this epoch.
    pub lr: f32,
}

/// Result of a training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainReport {
    /// Number of epochs actually run (may be < `epochs` with early stopping).
    pub epochs_run: usize,
    /// Best validation loss seen.
    pub best_val_loss: f32,
    /// Epoch index of the best validation loss.
    pub best_epoch: usize,
    /// Per-epoch history.
    pub history: Vec<EpochStats>,
}

/// Trains `net` on `train`, early-stopping on `val`.
///
/// On return the network holds the weights of the best validation epoch
/// (when early stopping is enabled and a validation set is given).
///
/// # Panics
///
/// Panics if `train` is empty or `batch_size == 0`.
pub fn train_classifier(
    net: &mut Network,
    train: &[Sample],
    val: &[Sample],
    cfg: &TrainConfig,
) -> TrainReport {
    assert!(!train.is_empty(), "train_classifier: empty training set");
    assert!(cfg.batch_size > 0, "train_classifier: batch_size must be positive");

    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..train.len()).collect();
    let weights = cfg.class_weights.as_deref();

    let mut best_val = f32::INFINITY;
    let mut best_epoch = 0usize;
    let mut best_weights: Option<Vec<Mat>> = None;
    let mut since_best = 0usize;
    let mut history = Vec::with_capacity(cfg.epochs);
    let mut adam = Adam::new();
    let mut eval_scratch = net.make_scratch();

    for epoch in 0..cfg.epochs {
        let lr = cfg.schedule.lr(epoch);
        order.shuffle(&mut rng);

        let mut epoch_loss = 0.0f64;
        for batch in order.chunks(cfg.batch_size) {
            net.zero_grad();
            for &idx in batch {
                let (x, y) = &train[idx];
                let logits = net.forward(x);
                let (loss, grad) = cross_entropy_weighted(&logits, *y, weights);
                epoch_loss += loss as f64;
                net.backward(&grad);
            }
            net.scale_grads(1.0 / batch.len() as f32);
            if let Some(clip) = cfg.grad_clip {
                net.clip_grad_norm(clip);
            }
            adam.step(net, lr);
        }
        let train_loss = (epoch_loss / train.len() as f64) as f32;

        let (val_loss, val_accuracy) = if val.is_empty() {
            (train_loss, f32::NAN)
        } else {
            evaluate(net, val, weights, &mut eval_scratch)
        };
        history.push(EpochStats { epoch, train_loss, val_loss, val_accuracy, lr });

        if val_loss < best_val {
            best_val = val_loss;
            best_epoch = epoch;
            since_best = 0;
            if cfg.patience.is_some() {
                best_weights = Some(net.snapshot_weights());
            }
        } else {
            since_best += 1;
            if let Some(patience) = cfg.patience {
                if since_best >= patience {
                    break;
                }
            }
        }
    }

    if let Some(w) = &best_weights {
        net.restore_weights(w);
    }
    TrainReport { epochs_run: history.len(), best_val_loss: best_val, best_epoch, history }
}

/// Evaluates `net` on `data`, returning `(mean loss, accuracy)`.
///
/// Takes the network by shared reference plus caller-owned
/// [`NetworkScratch`] — the same contract as the serving-side inference
/// paths — so evaluation can run over a network shared across threads
/// (e.g. the parallel per-gesture training workers) and allocates nothing
/// per window once the scratch is warm. Bit-identical to a
/// [`Network::forward`] loop.
pub fn evaluate(
    net: &Network,
    data: &[Sample],
    class_weights: Option<&[f32]>,
    scratch: &mut NetworkScratch,
) -> (f32, f32) {
    if data.is_empty() {
        return (f32::NAN, f32::NAN);
    }
    let mut loss = 0.0f64;
    let mut correct = 0usize;
    let mut logits = Mat::zeros(0, 0);
    for (x, y) in data {
        net.predict_scratch(x, &mut logits, scratch);
        let (l, _) = cross_entropy_weighted(&logits, *y, class_weights);
        loss += l as f64;
        if logits.argmax_row(0) == *y {
            correct += 1;
        }
    }
    ((loss / data.len() as f64) as f32, correct as f32 / data.len() as f32)
}

/// Class-probability prediction for a single window. Shared-reference +
/// caller-owned scratch, like [`evaluate`].
pub fn predict_proba(net: &Network, x: &Mat, scratch: &mut NetworkScratch) -> Vec<f32> {
    let mut logits = Mat::zeros(0, 0);
    net.predict_scratch(x, &mut logits, scratch);
    crate::loss::softmax(logits.row(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{LayerSpec, Padding};
    use crate::network::NetworkSpec;
    use rand::Rng;

    /// Synthetic two-class sequence problem: class 0 drifts up, class 1
    /// drifts down.
    fn toy_data(n: usize, seed: u64) -> Vec<Sample> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let label = i % 2;
                let slope: f32 = if label == 0 { 0.2 } else { -0.2 };
                let rows: Vec<f32> = (0..8)
                    .flat_map(|t| {
                        let v = slope * t as f32 + rng.gen_range(-0.05..0.05);
                        [v, -v]
                    })
                    .collect();
                (Mat::from_vec(8, 2, rows), label)
            })
            .collect()
    }

    #[test]
    fn lstm_classifier_learns_toy_problem() {
        let train = toy_data(40, 1);
        let val = toy_data(16, 2);
        let spec = NetworkSpec::new(vec![
            LayerSpec::Lstm { in_dim: 2, hidden: 8, return_sequences: false },
            LayerSpec::Dense { in_dim: 8, out_dim: 2 },
        ]);
        let mut net = Network::new(spec, 3);
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 8,
            schedule: StepDecay::constant(0.01),
            patience: Some(10),
            ..TrainConfig::default()
        };
        let report = train_classifier(&mut net, &train, &val, &cfg);
        let (_, acc) = evaluate(&net, &val, None, &mut net.make_scratch());
        assert!(acc > 0.9, "validation accuracy {acc} too low; report {report:?}");
    }

    #[test]
    fn conv_classifier_learns_toy_problem() {
        let train = toy_data(40, 5);
        let val = toy_data(16, 6);
        let spec = NetworkSpec::new(vec![
            LayerSpec::Conv1d {
                in_channels: 2,
                out_channels: 8,
                kernel: 3,
                padding: Padding::Same,
            },
            LayerSpec::Relu,
            LayerSpec::GlobalMaxPool,
            LayerSpec::Dense { in_dim: 8, out_dim: 2 },
        ]);
        let mut net = Network::new(spec, 3);
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 8,
            schedule: StepDecay::constant(0.01),
            patience: Some(10),
            ..TrainConfig::default()
        };
        train_classifier(&mut net, &train, &val, &cfg);
        let (_, acc) = evaluate(&net, &val, None, &mut net.make_scratch());
        assert!(acc > 0.9, "validation accuracy {acc} too low");
    }

    #[test]
    fn early_stopping_restores_best_weights() {
        let train = toy_data(20, 7);
        let val = toy_data(8, 8);
        let spec =
            NetworkSpec::new(vec![LayerSpec::Flatten, LayerSpec::Dense { in_dim: 16, out_dim: 2 }]);
        let mut net = Network::new(spec, 1);
        let cfg = TrainConfig {
            epochs: 50,
            batch_size: 4,
            schedule: StepDecay::constant(0.05),
            patience: Some(3),
            ..TrainConfig::default()
        };
        let report = train_classifier(&mut net, &train, &val, &cfg);
        // The net now holds best-epoch weights: its val loss matches the report.
        let (val_loss, _) = evaluate(&net, &val, None, &mut net.make_scratch());
        assert!(
            (val_loss - report.best_val_loss).abs() < 1e-4,
            "restored val loss {val_loss} != best {}",
            report.best_val_loss
        );
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let train = toy_data(16, 9);
        let spec =
            NetworkSpec::new(vec![LayerSpec::Flatten, LayerSpec::Dense { in_dim: 16, out_dim: 2 }]);
        let cfg = TrainConfig { epochs: 5, patience: None, ..TrainConfig::default() };
        let mut a = Network::new(spec.clone(), 4);
        let mut b = Network::new(spec, 4);
        let ra = train_classifier(&mut a, &train, &[], &cfg);
        let rb = train_classifier(&mut b, &train, &[], &cfg);
        assert_eq!(ra.history.last().unwrap().train_loss, rb.history.last().unwrap().train_loss);
        assert_eq!(a.snapshot_weights(), b.snapshot_weights());
    }

    #[test]
    fn predict_proba_sums_to_one() {
        let spec =
            NetworkSpec::new(vec![LayerSpec::Flatten, LayerSpec::Dense { in_dim: 16, out_dim: 3 }]);
        let net = Network::new(spec, 1);
        let p = predict_proba(&net, &Mat::zeros(8, 2), &mut net.make_scratch());
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn rejects_empty_training_set() {
        let spec = NetworkSpec::new(vec![LayerSpec::Dense { in_dim: 2, out_dim: 2 }]);
        let mut net = Network::new(spec, 1);
        let _ = train_classifier(&mut net, &[], &[], &TrainConfig::default());
    }
}
