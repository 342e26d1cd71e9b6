//! Network-spec builders for the two pipeline stages.

use crate::config::{ErrorModelKind, MonitorConfig};
use gestures::NUM_GESTURES;
use nn::{LayerSpec, NetworkSpec, Padding};

/// The gesture classifier: 2-layer stacked LSTM → dense(ReLU) → softmax
/// logits over the 15 gesture classes (§III "stacked LSTM layers to provide
/// greater abstraction of the input sequence", §V-A best model).
pub fn gesture_classifier_spec(cfg: &MonitorConfig, in_dim: usize) -> NetworkSpec {
    let (h1, h2) = cfg.gesture_hidden;
    NetworkSpec::new(vec![
        LayerSpec::Lstm { in_dim, hidden: h1, return_sequences: true },
        LayerSpec::Lstm { in_dim: h1, hidden: h2, return_sequences: false },
        LayerSpec::Dense { in_dim: h2, out_dim: cfg.gesture_dense },
        LayerSpec::Relu,
        LayerSpec::Dense { in_dim: cfg.gesture_dense, out_dim: NUM_GESTURES },
    ])
}

/// An erroneous-gesture (binary safe/unsafe) classifier.
pub fn error_classifier_spec(cfg: &MonitorConfig, in_dim: usize) -> NetworkSpec {
    match cfg.error_model {
        ErrorModelKind::Conv { c1, c2, dense } => NetworkSpec::new(vec![
            LayerSpec::Conv1d {
                in_channels: in_dim,
                out_channels: c1,
                kernel: 3,
                padding: Padding::Same,
            },
            LayerSpec::Relu,
            LayerSpec::Conv1d {
                in_channels: c1,
                out_channels: c2,
                kernel: 3,
                padding: Padding::Same,
            },
            LayerSpec::Relu,
            LayerSpec::GlobalMaxPool,
            LayerSpec::Dense { in_dim: c2, out_dim: dense },
            LayerSpec::Relu,
            LayerSpec::Dense { in_dim: dense, out_dim: 2 },
        ]),
        ErrorModelKind::Lstm { hidden, dense } => NetworkSpec::new(vec![
            LayerSpec::Lstm { in_dim, hidden, return_sequences: false },
            LayerSpec::Dense { in_dim: hidden, out_dim: dense },
            LayerSpec::Relu,
            LayerSpec::Dense { in_dim: dense, out_dim: 2 },
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kinematics::FeatureSet;
    use nn::{Mat, Network};

    #[test]
    fn gesture_spec_produces_15_logits() {
        let cfg = MonitorConfig::fast(FeatureSet::ALL);
        let mut net = Network::new(gesture_classifier_spec(&cfg, 38), 1);
        let y = net.forward(&Mat::zeros(5, 38));
        assert_eq!(y.shape(), (1, NUM_GESTURES));
    }

    #[test]
    fn error_specs_produce_binary_logits() {
        let cfg = MonitorConfig::fast(FeatureSet::CG);
        let mut conv = Network::new(error_classifier_spec(&cfg, 8), 1);
        assert_eq!(conv.forward(&Mat::zeros(10, 8)).shape(), (1, 2));
        let cfg = cfg.with_error_model(crate::config::ErrorModelKind::Lstm { hidden: 8, dense: 8 });
        let mut lstm = Network::new(error_classifier_spec(&cfg, 8), 1);
        assert_eq!(lstm.forward(&Mat::zeros(10, 8)).shape(), (1, 2));
    }
}
