//! # `eval` — metrics for the safety-monitoring evaluation
//!
//! Implements every metric the paper's evaluation (§IV-C) relies on:
//!
//! * classification: confusion matrices, TPR/TNR/PPV/NPV, F1, accuracy
//!   ([`confusion`]),
//! * threshold-free accuracy: ROC curves and AUC ([`roc`]),
//! * timeliness: gesture jitter, reaction time (Equation 4), % early
//!   detection ([`timing`]),
//! * distribution analysis: Gaussian KDE ([`kde`]) and Jensen–Shannon
//!   divergence (Equation 1, [`divergence`]) used for Fig. 5,
//! * dynamic time warping ([`dtw`](mod@dtw)) used by the vision-based failure
//!   labeling of §IV-B,
//! * summary statistics ([`stats`]).

#![warn(missing_docs)]

pub mod confusion;
pub mod divergence;
pub mod dtw;
pub mod kde;
pub mod roc;
pub mod stats;
pub mod timing;

pub use confusion::{BinaryCounts, ConfusionMatrix};
pub use divergence::{js_discrete, js_divergence_kde, kl_discrete};
pub use dtw::{dtw, dtw_1d, DtwResult};
pub use kde::GaussianKde;
pub use roc::{auc, RocCurve, RocPoint};
pub use stats::{mean, median, percentile, std_dev, Summary};
pub use timing::{
    early_detection_rate, frames_to_ms, gesture_jitter, measure_reactions, segments, ErrorEvent,
    JitterMeasurement, ReactionMeasurement, Segment,
};
