//! # `nn` — a from-scratch neural-network substrate
//!
//! This crate implements everything the DSN 2020 paper *"Real-Time
//! Context-aware Detection of Unsafe Events in Robot-Assisted Surgery"*
//! (Yasar & Alemzadeh) needed from Keras/TensorFlow, in pure Rust:
//!
//! * `(time, features)` sequence tensors ([`mat::Mat`]),
//! * layers: [`layers::dense::Dense`], [`layers::lstm::Lstm`] (stacked LSTMs
//!   with full BPTT), [`layers::conv1d::Conv1d`], pooling, ReLU,
//! * losses: (class-weighted) softmax cross-entropy,
//! * the optimizer: Adam with a step-decay schedule,
//! * a mini-batch training loop with early stopping
//!   ([`train::train_classifier`]),
//! * JSON weight checkpoints ([`network::SavedNetwork`]),
//! * numerical gradient checking used by the test-suite
//!   ([`gradcheck::check_layer_gradients`]).
//!
//! The paper's two model families are expressible directly:
//!
//! ```
//! use nn::layers::{LayerSpec, Padding};
//! use nn::network::{Network, NetworkSpec};
//!
//! // 2-layer stacked LSTM gesture classifier (scaled-down §V-A model).
//! let gesture_clf = NetworkSpec::new(vec![
//!     LayerSpec::Lstm { in_dim: 38, hidden: 64, return_sequences: true },
//!     LayerSpec::Lstm { in_dim: 64, hidden: 32, return_sequences: false },
//!     LayerSpec::Dense { in_dim: 32, out_dim: 64 },
//!     LayerSpec::Relu,
//!     LayerSpec::Dense { in_dim: 64, out_dim: 15 },
//! ]);
//!
//! // 1D-CNN erroneous-gesture classifier (§V-A, Table V).
//! let error_clf = NetworkSpec::new(vec![
//!     LayerSpec::Conv1d { in_channels: 38, out_channels: 32, kernel: 3, padding: Padding::Same },
//!     LayerSpec::Relu,
//!     LayerSpec::GlobalMaxPool,
//!     LayerSpec::Dense { in_dim: 32, out_dim: 16 },
//!     LayerSpec::Relu,
//!     LayerSpec::Dense { in_dim: 16, out_dim: 2 },
//! ]);
//! let _ = (Network::new(gesture_clf, 0), Network::new(error_clf, 1));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)] // every unsafe block carries a SAFETY: comment
#![allow(clippy::needless_range_loop)] // indexed loops mirror the math in numeric kernels

pub mod gradcheck;
pub mod init;
pub mod kernels;
pub mod layers;
pub mod loss;
pub mod mat;
pub mod network;
pub mod optim;
pub mod param;
pub mod quant;
pub mod train;

pub use kernels::int8::{active_gemm_i8_isa, gemm_i8_abt, gemm_i8_abt_with, naive_i8_abt};
pub use kernels::{
    active_gemm_isa, gemm_backend_label, set_gemm_backend, GemmBackend, GemmIsa, GemmScratch,
};
pub use layers::{LayerScratch, LayerSpec, Padding, SeqLayer};
pub use mat::Mat;
pub use network::{Network, NetworkScratch, NetworkSpec, SavedNetwork};
pub use optim::{Adam, StepDecay};
pub use quant::{QuantError, QuantScratch, QuantizedNetwork};
pub use train::{evaluate, predict_proba, train_classifier, Sample, TrainConfig, TrainReport};
