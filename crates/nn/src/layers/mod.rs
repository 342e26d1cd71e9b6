//! Layer implementations and the [`SeqLayer`] abstraction.
//!
//! Data flows through the network as `(time, features)` matrices; plain
//! feature vectors are `(1, features)`. A layer either preserves the time
//! axis (Dense applied per-row, activations, LSTM with
//! `return_sequences = true`), shrinks it (Conv1d, MaxPool1d), or reduces it
//! away ([`reduce::TakeLast`], [`pool::GlobalMaxPool`], [`reduce::Flatten`]).

pub mod activation;
pub mod conv1d;
pub mod dense;
pub mod dropout;
pub mod lstm;
pub mod norm;
pub mod pool;
pub mod reduce;

use crate::mat::Mat;
use crate::param::Param;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Whether a forward pass is part of training (enables dropout, batch-stat
/// updates) or inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Training: dropout active, normalization uses batch statistics.
    Train,
    /// Inference: deterministic forward pass.
    #[default]
    Eval,
}

/// Caller-owned scratch buffers for the allocation-free inference paths.
///
/// Layers used to own their inference scratch, which forced `&mut self` on
/// the inference-only forward pass and made a shared network unusable from
/// several threads. The scratch now travels with the **caller** (one per
/// layer inside [`crate::network::NetworkScratch`]): the layer itself stays
/// immutable during inference, so one read-only [`crate::network::Network`]
/// can serve many engines/threads concurrently, each with its own scratch.
///
/// The fields are a small generic pool each layer uses as it sees fit
/// (LSTM: `m` = input-projection matrix, `v1..v3` = gate/state vectors;
/// Conv1d: `m` = im2col patch matrix; every matmul-bearing layer: `gemm` =
/// panel-packing scratch for the tiled kernels). All buffers grow to a
/// high-water mark and are reused, so steady-state inference performs no
/// allocation.
#[derive(Debug, Default, Clone)]
pub struct LayerScratch {
    /// Matrix scratch (LSTM input projection, Conv1d patches).
    pub(crate) m: Mat,
    /// Vector scratch #1 (LSTM: hidden-to-gate projection).
    pub(crate) v1: Vec<f32>,
    /// Vector scratch #2 (LSTM: hidden state).
    pub(crate) v2: Vec<f32>,
    /// Vector scratch #3 (LSTM: cell state).
    pub(crate) v3: Vec<f32>,
    /// Packing scratch for the tiled GEMM kernels ([`crate::kernels`]) —
    /// caller-owned so the inference forward passes allocate nothing.
    pub(crate) gemm: crate::kernels::GemmScratch,
}

/// A differentiable layer over `(time, features)` sequences.
///
/// `backward` must be called immediately after the `forward` whose
/// intermediate state it relies on; layers cache activations internally.
/// Inference (`infer_into` / `infer_batch_into`) takes `&self` plus
/// caller-owned [`LayerScratch`], so a trained layer is `Sync`-shareable.
pub trait SeqLayer: Send + Sync {
    /// Computes the layer output for input `x`.
    fn forward(&mut self, x: &Mat, mode: Mode) -> Mat;

    /// Inference-only forward pass writing the output into `out`.
    ///
    /// Semantically identical (bit-for-bit) to `forward(x, Mode::Eval)`,
    /// but caches nothing for `backward` and reuses the caller's scratch
    /// and `out` allocations, so the steady-state hot path performs no heap
    /// allocation and the layer itself is not mutated.
    fn infer_into(&self, x: &Mat, out: &mut Mat, scratch: &mut LayerScratch);

    /// Batched inference over `batch` equally shaped sequences stacked
    /// row-wise: `x` is `(batch * T, F)` and the output is
    /// `(batch * T_out, F_out)` with each sequence's block bit-identical to
    /// what [`SeqLayer::infer_into`] produces for that sequence alone.
    ///
    /// The default forwards to `infer_into`, which is correct **only** for
    /// layers that treat every row independently (dense, activations,
    /// eval-mode norm/dropout). Layers that mix information across time
    /// steps (LSTM, Conv1d, pooling, reductions) must override it with a
    /// sequence-aware implementation or batches would leak across session
    /// boundaries.
    fn infer_batch_into(&self, x: &Mat, batch: usize, out: &mut Mat, scratch: &mut LayerScratch) {
        debug_assert!(batch > 0 && x.rows().is_multiple_of(batch), "batch does not divide rows");
        self.infer_into(x, out, scratch);
    }

    /// This layer as an [`lstm::Lstm`], whose inference splits into a
    /// row-independent input projection and a recurrence; `None` for every
    /// other layer kind.
    fn as_lstm(&self) -> Option<&lstm::Lstm> {
        None
    }

    /// Propagates `grad_out` (d loss / d output) backwards, accumulating
    /// parameter gradients and returning d loss / d input.
    fn backward(&mut self, grad_out: &Mat) -> Mat;

    /// Visits every trainable parameter block in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Short human-readable layer name used in `Debug` output.
    fn name(&self) -> &'static str;
}

/// Padding behaviour for [`conv1d::Conv1d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Padding {
    /// No padding: output length is `T - k + 1`.
    #[default]
    Valid,
    /// Zero padding so the output length equals the input length.
    Same,
}

/// Serializable architecture description; [`build_layer`] turns a spec into a
/// concrete layer. A full network is described by `Vec<LayerSpec>` (see
/// [`crate::network::NetworkSpec`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(missing_docs)] // variant fields are self-describing dimensions
pub enum LayerSpec {
    /// Fully connected layer applied to every time step independently.
    Dense { in_dim: usize, out_dim: usize },
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Inverted dropout with the given drop rate.
    Dropout { rate: f32 },
    /// Temporal batch normalization over the time axis.
    BatchNorm { dim: usize },
    /// 1-D convolution over the time axis.
    Conv1d { in_channels: usize, out_channels: usize, kernel: usize, padding: Padding },
    /// Max pooling with kernel = stride.
    MaxPool1d { kernel: usize },
    /// Collapse the time axis by taking per-feature maxima.
    GlobalMaxPool,
    /// Collapse the time axis by averaging.
    GlobalAvgPool,
    /// Long short-term memory layer.
    Lstm {
        in_dim: usize,
        hidden: usize,
        /// If true the full `(T, hidden)` sequence is emitted; otherwise only
        /// the last hidden state as `(1, hidden)`.
        return_sequences: bool,
    },
    /// Keep only the last time step.
    TakeLast,
    /// Flatten `(T, F)` into `(1, T*F)`.
    Flatten,
}

/// Instantiates the layer described by `spec`, drawing initial weights from
/// `rng`.
pub fn build_layer(spec: &LayerSpec, rng: &mut impl Rng) -> Box<dyn SeqLayer> {
    match *spec {
        LayerSpec::Dense { in_dim, out_dim } => Box::new(dense::Dense::new(in_dim, out_dim, rng)),
        LayerSpec::Relu => Box::new(activation::Relu::new()),
        LayerSpec::Tanh => Box::new(activation::TanhLayer::new()),
        LayerSpec::Sigmoid => Box::new(activation::SigmoidLayer::new()),
        LayerSpec::Dropout { rate } => Box::new(dropout::Dropout::new(rate, rng.gen())),
        LayerSpec::BatchNorm { dim } => Box::new(norm::BatchNorm::new(dim)),
        LayerSpec::Conv1d { in_channels, out_channels, kernel, padding } => {
            Box::new(conv1d::Conv1d::new(in_channels, out_channels, kernel, padding, rng))
        }
        LayerSpec::MaxPool1d { kernel } => Box::new(pool::MaxPool1d::new(kernel)),
        LayerSpec::GlobalMaxPool => Box::new(pool::GlobalMaxPool::new()),
        LayerSpec::GlobalAvgPool => Box::new(pool::GlobalAvgPool::new()),
        LayerSpec::Lstm { in_dim, hidden, return_sequences } => {
            Box::new(lstm::Lstm::new(in_dim, hidden, return_sequences, rng))
        }
        LayerSpec::TakeLast => Box::new(reduce::TakeLast::new()),
        LayerSpec::Flatten => Box::new(reduce::Flatten::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn build_layer_covers_every_spec() {
        let mut rng = SmallRng::seed_from_u64(1);
        let specs = vec![
            LayerSpec::Dense { in_dim: 3, out_dim: 2 },
            LayerSpec::Relu,
            LayerSpec::Tanh,
            LayerSpec::Sigmoid,
            LayerSpec::Dropout { rate: 0.5 },
            LayerSpec::BatchNorm { dim: 3 },
            LayerSpec::Conv1d {
                in_channels: 3,
                out_channels: 4,
                kernel: 2,
                padding: Padding::Valid,
            },
            LayerSpec::MaxPool1d { kernel: 2 },
            LayerSpec::GlobalMaxPool,
            LayerSpec::GlobalAvgPool,
            LayerSpec::Lstm { in_dim: 3, hidden: 4, return_sequences: true },
            LayerSpec::TakeLast,
            LayerSpec::Flatten,
        ];
        for spec in &specs {
            let layer = build_layer(spec, &mut rng);
            assert!(!layer.name().is_empty());
        }
    }

    #[test]
    fn layer_spec_serde_roundtrip() {
        let spec = LayerSpec::Conv1d {
            in_channels: 8,
            out_channels: 16,
            kernel: 3,
            padding: Padding::Same,
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: LayerSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
