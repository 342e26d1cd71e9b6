//! # `context-monitor` — real-time context-aware detection of unsafe events
//!
//! The paper's primary contribution (Yasar & Alemzadeh, DSN 2020): an online
//! safety-monitoring pipeline for robot-assisted surgery that
//!
//! 1. infers the **operational context** — the surgical gesture — from
//!    sliding windows of kinematics with a stacked-LSTM classifier, and
//! 2. routes each window to a **gesture-specific erroneous-gesture
//!    classifier** (1D-CNN or LSTM) that flags unsafe execution,
//!
//! with a non-context-specific single classifier as the baseline and a
//! perfect-boundary mode as the upper bound (Table VIII's three rows).
//!
//! ```no_run
//! use context_monitor::{ContextMode, InferenceEngine, MonitorConfig, TrainedPipeline};
//! use gestures::Task;
//! use jigsaws::{generate, GeneratorConfig};
//! use kinematics::FeatureSet;
//!
//! let dataset = generate(&GeneratorConfig::fast(Task::Suturing));
//! let fold = &dataset.loso_folds()[0];
//! let cfg = MonitorConfig::fast(FeatureSet::CRG);
//! let pipeline = TrainedPipeline::train(&dataset, &fold.train, &cfg);
//!
//! // Stream kinematics through one session's engine.
//! let mut engine = InferenceEngine::new(&pipeline, ContextMode::Predicted);
//! for frame in &dataset.demos[fold.test[0]].frames {
//!     let step = engine.step(&pipeline, frame).expect("Predicted mode needs no context");
//!     if let Some((gesture, p)) = step.complete() {
//!         if p > 0.5 {
//!             println!("unsafe {gesture} (p={p:.2})");
//!         }
//!     }
//! }
//! ```
//!
//! For many concurrent sessions — sharded across worker threads over one
//! shared read-only pipeline, with cross-session micro-batching — see
//! [`serve::ShardedMonitorPool`].

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // indexed loops mirror the math in numeric kernels

pub mod config;
pub mod engine;
pub mod models;
pub mod pipeline;
pub mod report;
pub mod serve;

pub use config::{ErrorModelKind, MonitorConfig, Precision};
pub use engine::{
    step_batch, BatchJob, BatchScratch, EngineError, EngineStep, InferenceEngine, MajorityFilter,
};
pub use models::{error_classifier_spec, gesture_classifier_spec};
pub use pipeline::{
    ContextMode, ErrorRoute, GestureTrainStats, MonitorRun, QuantizedPipeline, SavedPipeline,
    TrainStages, TrainedPipeline,
};
pub use report::{
    error_events, evaluate_pipeline, evaluate_run, per_gesture_report, percentile,
    ClosedLoopSummary, DemoEval, GestureRow, LatencyStats, PipelineEval, PoolStats,
    REACTION_LOOKBACK_S,
};
pub use serve::{
    parallel_map, Decision, MonitorOutput, ServeConfig, SessionId, ShardedMonitorPool,
};
