//! Monitor configuration: model architectures, window parameters, and
//! training hyper-parameters.

use kinematics::{FeatureSet, WindowConfig};
use nn::{StepDecay, TrainConfig};
use serde::{Deserialize, Serialize};

/// Architecture of the erroneous-gesture classifiers (§V-A ablates LSTM vs
/// 1D-CNN; Tables V/VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorModelKind {
    /// 1D-CNN: two same-padded conv layers, global max-pool, dense head
    /// (the paper's best performer).
    Conv {
        /// First conv output channels.
        c1: usize,
        /// Second conv output channels.
        c2: usize,
        /// Dense head width.
        dense: usize,
    },
    /// LSTM: single recurrent layer and a dense head.
    Lstm {
        /// Hidden size.
        hidden: usize,
        /// Dense head width.
        dense: usize,
    },
}

impl std::fmt::Display for ErrorModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErrorModelKind::Conv { .. } => f.write_str("Conv"),
            ErrorModelKind::Lstm { .. } => f.write_str("LSTM"),
        }
    }
}

/// Numeric tier the monitor serves at.
///
/// `F32` is the training substrate and the accuracy reference. `Int8`
/// serves the post-training-quantized twin of the pipeline
/// ([`crate::pipeline::TrainedPipeline::quantize`]): per-channel int8
/// weights and calibrated activation scales over exact integer GEMMs
/// (`nn::quant`), trading a bounded, parity-gated accuracy delta for
/// more sessions served within the 30 Hz frame interval. Both tiers keep
/// the workspace's determinism contract — outputs are bit-identical
/// across GEMM backends, batch sizes, and worker counts *within* a tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Precision {
    /// Full-precision f32 inference (default; the accuracy reference).
    #[default]
    F32,
    /// Calibrated int8 inference over the quantized pipeline tier.
    Int8,
}

impl Precision {
    /// Parses the spellings accepted by the `MONITOR_PRECISION` environment
    /// knob (`"f32"` / `"int8"`, case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "f32" => Some(Precision::F32),
            "int8" | "i8" => Some(Precision::Int8),
            _ => None,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Precision::F32 => f.write_str("f32"),
            Precision::Int8 => f.write_str("int8"),
        }
    }
}

/// Full monitor configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// Kinematic feature subset fed to the erroneous-gesture classifiers
    /// (Tables V/VI ablate this).
    pub features: FeatureSet,
    /// Sliding-window shape of the error stage (paper: w=5/s=1 Suturing,
    /// w=10/s=1 Block Transfer).
    pub window: WindowConfig,
    /// Feature subset fed to the gesture classifier (the paper feeds all 38
    /// kinematic variables to this stage).
    pub gesture_features: FeatureSet,
    /// Window width of the gesture classifier. The paper's stage 1 is a
    /// stateful LSTM with time-step 1 over the whole stream; our stateless
    /// equivalent gives stage 1 a longer window than stage 2 so it can see
    /// gesture transitions (DESIGN.md §10).
    pub gesture_window: usize,
    /// Stacked-LSTM hidden sizes of the gesture classifier (paper: 512, 96).
    pub gesture_hidden: (usize, usize),
    /// Causal mode-filter length over the predicted gesture stream
    /// (0 disables). The paper's stateful LSTM "learns to have smooth
    /// output over time"; stateless windows need explicit smoothing to
    /// match that behaviour. Only past predictions are used, so the
    /// streaming monitor stays online.
    pub gesture_smoothing: usize,
    /// Dense layer width after the LSTM stack (paper: 64).
    pub gesture_dense: usize,
    /// Erroneous-gesture model architecture.
    pub error_model: ErrorModelKind,
    /// Training hyper-parameters (both stages).
    pub train: TrainConfig,
    /// Stride used when harvesting training windows (1 = every frame; the
    /// scaled-down default subsamples for CPU speed).
    pub train_stride: usize,
    /// Minimum windows of a gesture class required to train a dedicated
    /// error classifier (smaller classes fall back to the global one).
    pub min_gesture_windows: usize,
    /// Worker threads for stage-2 per-gesture classifier training (clamped
    /// to at least 1). Each gesture trains from its own derived seed, so the
    /// resulting weights are **bit-identical for every worker count** — this
    /// only trades wall-clock for cores.
    pub train_workers: usize,
    /// Weight-initialization / shuffling seed.
    pub seed: u64,
}

impl MonitorConfig {
    /// Scaled-down defaults that train on CPU in seconds (DESIGN.md §10).
    pub fn fast(features: FeatureSet) -> Self {
        Self {
            features,
            window: WindowConfig::new(5, 1),
            gesture_features: FeatureSet::ALL,
            gesture_window: 15,
            gesture_hidden: (48, 24),
            gesture_smoothing: 9,
            gesture_dense: 16,
            error_model: ErrorModelKind::Conv { c1: 16, c2: 16, dense: 16 },
            train: TrainConfig {
                epochs: 12,
                batch_size: 32,
                schedule: StepDecay::new(8e-3, 0.5, 6),
                patience: Some(4),
                class_weights: None,
                grad_clip: Some(5.0),
                seed: 7,
            },
            train_stride: 2,
            min_gesture_windows: 24,
            train_workers: 2,
            seed: 7,
        }
    }

    /// The paper's model sizes (§V-A): 2-layer stacked LSTM of 512 and 96
    /// units, 64-unit dense layer, Adam at 1e-4. Training this on CPU is
    /// slow; it exists so the exact architecture is expressible.
    pub fn paper(features: FeatureSet) -> Self {
        Self {
            features,
            window: WindowConfig::new(5, 1),
            gesture_features: FeatureSet::ALL,
            gesture_window: 30,
            gesture_hidden: (512, 96),
            gesture_smoothing: 15,
            gesture_dense: 64,
            error_model: ErrorModelKind::Conv { c1: 512, c2: 128, dense: 32 },
            train: TrainConfig {
                epochs: 100,
                batch_size: 32,
                schedule: StepDecay::new(1e-4, 0.5, 20),
                patience: Some(10),
                class_weights: None,
                grad_clip: Some(5.0),
                seed: 7,
            },
            train_stride: 1,
            min_gesture_windows: 50,
            train_workers: 8,
            seed: 7,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.train.seed = seed;
        self
    }

    /// Builder-style window override (Block Transfer uses w=10).
    pub fn with_window(mut self, width: usize, stride: usize) -> Self {
        self.window = WindowConfig::new(width, stride);
        self
    }

    /// Builder-style error-model override.
    pub fn with_error_model(mut self, kind: ErrorModelKind) -> Self {
        self.error_model = kind;
        self
    }

    /// Builder-style training-worker override (weights stay bit-identical
    /// for every value; see [`MonitorConfig::train_workers`]).
    pub fn with_train_workers(mut self, workers: usize) -> Self {
        self.train_workers = workers;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section5() {
        let cfg = MonitorConfig::paper(FeatureSet::ALL);
        assert_eq!(cfg.gesture_hidden, (512, 96));
        assert_eq!(cfg.gesture_dense, 64);
        assert_eq!(cfg.window.width, 5);
    }

    #[test]
    fn builders_compose() {
        let cfg = MonitorConfig::fast(FeatureSet::CG)
            .with_seed(11)
            .with_window(10, 1)
            .with_error_model(ErrorModelKind::Lstm { hidden: 8, dense: 8 });
        assert_eq!(cfg.seed, 11);
        assert_eq!(cfg.train.seed, 11);
        assert_eq!(cfg.window.width, 10);
        assert_eq!(cfg.error_model.to_string(), "LSTM");
    }

    #[test]
    fn config_serde_roundtrip() {
        let cfg = MonitorConfig::fast(FeatureSet::ALL);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: MonitorConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
