//! Network container: an ordered stack of layers with (de)serialization.

use crate::layers::lstm::Lstm;
use crate::layers::{build_layer, LayerScratch, LayerSpec, Mode, SeqLayer};
use crate::mat::Mat;
use crate::param::Param;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Serializable description of a network architecture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct NetworkSpec {
    /// Layers applied in order.
    pub layers: Vec<LayerSpec>,
}

impl NetworkSpec {
    /// Creates a spec from a list of layers.
    pub fn new(layers: Vec<LayerSpec>) -> Self {
        Self { layers }
    }
}

/// A feed-forward stack of [`SeqLayer`]s built from a [`NetworkSpec`].
///
/// # Examples
///
/// ```
/// use nn::network::{Network, NetworkSpec};
/// use nn::layers::{LayerSpec, Mode};
/// use nn::mat::Mat;
///
/// let spec = NetworkSpec::new(vec![
///     LayerSpec::Lstm { in_dim: 4, hidden: 8, return_sequences: false },
///     LayerSpec::Dense { in_dim: 8, out_dim: 3 },
/// ]);
/// let mut net = Network::new(spec, 42);
/// let logits = net.forward(&Mat::zeros(10, 4), Mode::Eval);
/// assert_eq!(logits.shape(), (1, 3));
/// ```
pub struct Network {
    spec: NetworkSpec,
    layers: Vec<Box<dyn SeqLayer>>,
}

/// Caller-owned buffers for the `&self` inference paths: ping-pong
/// activation matrices plus one [`LayerScratch`] per layer.
///
/// Weights stay in the (shared, read-only) [`Network`]; everything mutable
/// during inference lives here. Create one per engine/thread with
/// [`Network::make_scratch`] and reuse it across calls — all buffers grow to
/// a high-water mark, so steady-state inference performs no allocation.
/// A scratch is shape-agnostic: the same instance may be reused across
/// networks with the **same layer count** (e.g. the per-gesture error
/// classifiers, which share one architecture).
#[derive(Debug, Default, Clone)]
pub struct NetworkScratch {
    ping: Mat,
    pong: Mat,
    layers: Vec<LayerScratch>,
}

/// Shared driver for the allocation-free inference paths: runs `x` through
/// `layers` (batched when `batch > 1`), ping-ponging activations through the
/// scratch and writing the final activation into `out`.
fn run_layers(
    layers: &[Box<dyn SeqLayer>],
    x: &Mat,
    batch: usize,
    out: &mut Mat,
    scratch: &mut NetworkScratch,
) {
    run_layers_observed(layers, x, batch, None, out, scratch, &mut |_, _| {});
}

/// [`run_layers`] with an observation hook: `observe(i, input)` fires with
/// each layer's *input* activation right before the layer runs. The hook
/// is how the quantized tier's activation calibration records per-layer
/// input ranges ([`Network::predict_traced`]) without the network exposing
/// layer internals; the computation itself is bit-identical to the
/// unobserved path. With `projected`, `x` holds that leading LSTM's
/// projected rows and layer 0 runs only its recurrence.
fn run_layers_observed(
    layers: &[Box<dyn SeqLayer>],
    x: &Mat,
    batch: usize,
    projected: Option<&Lstm>,
    out: &mut Mat,
    scratch: &mut NetworkScratch,
    observe: &mut dyn FnMut(usize, &Mat),
) {
    assert!(batch > 0, "batch must be positive");
    assert_eq!(x.rows() % batch, 0, "batch does not divide input rows");
    if layers.is_empty() {
        out.copy_from(x);
        return;
    }
    assert_eq!(
        scratch.layers.len(),
        layers.len(),
        "NetworkScratch layer count does not match the network"
    );
    let mut cur = 0usize;
    for (i, layer) in layers.iter().enumerate() {
        let ls = &mut scratch.layers[i];
        if i == 0 {
            observe(i, x);
            match projected {
                Some(lstm) => lstm.recur_into(x, batch, &mut scratch.ping, ls),
                None => layer.infer_batch_into(x, batch, &mut scratch.ping, ls),
            }
        } else if cur == 0 {
            observe(i, &scratch.ping);
            layer.infer_batch_into(&scratch.ping, batch, &mut scratch.pong, ls);
            cur = 1;
        } else {
            observe(i, &scratch.pong);
            layer.infer_batch_into(&scratch.pong, batch, &mut scratch.ping, ls);
            cur = 0;
        }
    }
    out.copy_from(if cur == 0 { &scratch.ping } else { &scratch.pong });
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("layers", &self.layers.iter().map(|l| l.name()).collect::<Vec<_>>())
            .field("num_params", &{
                // visit_params requires &mut; report spec size instead.
                self.spec.layers.len()
            })
            .finish()
    }
}

/// Weight checkpoint: spec plus flattened weights in visit order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedNetwork {
    /// The architecture.
    pub spec: NetworkSpec,
    /// Parameter values in [`Network::visit_params`] order.
    pub weights: Vec<Mat>,
}

impl Network {
    /// Builds a network from `spec`, initializing weights from `seed`.
    pub fn new(spec: NetworkSpec, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let layers: Vec<Box<dyn SeqLayer>> =
            spec.layers.iter().map(|s| build_layer(s, &mut rng)).collect();
        Self { spec, layers }
    }

    /// Creates a caller-owned scratch sized for this network's layer stack,
    /// for use with [`Network::predict_scratch`] /
    /// [`Network::predict_batch_into`].
    pub fn make_scratch(&self) -> NetworkScratch {
        NetworkScratch {
            ping: Mat::zeros(0, 0),
            pong: Mat::zeros(0, 0),
            layers: vec![LayerScratch::default(); self.layers.len()],
        }
    }

    /// The architecture this network was built from.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Runs the forward pass.
    pub fn forward(&mut self, x: &Mat, mode: Mode) -> Mat {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, mode);
        }
        cur
    }

    /// Runs the backward pass; must follow a `forward` call. Returns the
    /// gradient with respect to the network input.
    pub fn backward(&mut self, grad_out: &Mat) -> Mat {
        let mut cur = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward(&cur);
        }
        cur
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Visits every parameter block in a stable (layer, block) order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Total number of scalar trainable parameters.
    pub fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Convenience: forward pass in eval mode.
    pub fn predict(&mut self, x: &Mat) -> Mat {
        self.forward(x, Mode::Eval)
    }

    /// Allocation-free inference with **caller-owned** scratch: the network
    /// itself stays immutable, so one trained `Network` (it is `Sync`) can
    /// serve many engines/threads concurrently, each holding its own
    /// [`NetworkScratch`]. Bit-identical to [`Network::predict`].
    pub fn predict_scratch(&self, x: &Mat, out: &mut Mat, scratch: &mut NetworkScratch) {
        run_layers(&self.layers, x, 1, out, scratch);
    }

    /// Cross-sequence micro-batched inference: `x` holds `batch` equally
    /// shaped `(T, F)` sequences stacked row-wise as `(batch * T, F)`, and
    /// the output stacks each sequence's result the same way (for the
    /// classifier heads in this workspace: one `(1, classes)` row per
    /// sequence, so `out` is `(batch, classes)` and row `b` belongs to
    /// sequence `b`).
    ///
    /// Each sequence's block is **bit-identical** to running that sequence
    /// alone through [`Network::predict_scratch`]; the speedup comes from
    /// fusing the row-independent matrix products (dense layers, LSTM input
    /// projections, im2col convolutions) of all sequences into single
    /// `matmul_into` calls instead of `batch` small ones.
    pub fn predict_batch_into(
        &self,
        x: &Mat,
        batch: usize,
        out: &mut Mat,
        scratch: &mut NetworkScratch,
    ) {
        run_layers(&self.layers, x, batch, out, scratch);
    }

    /// The LSTM the network starts with, if any.
    fn leading_lstm(&self) -> Option<&Lstm> {
        self.layers.first().and_then(|l| l.as_lstm())
    }

    /// Width of the rows [`Network::project_rows_into`] writes:
    /// `Some(4 · hidden)` when the network starts with an LSTM, `None`
    /// otherwise.
    pub fn projected_width(&self) -> Option<usize> {
        self.leading_lstm().map(|l| 4 * l.hidden())
    }

    /// The row-independent part of the leading LSTM: each row of `x`
    /// through its input weights (`x·W`, `(rows, 4·hidden)`). A caller that
    /// slides a window over a stream can project each frame once, keep the
    /// projected rows, and run [`Network::predict_projected_batch_into`]
    /// on the window instead of re-projecting every row of it per call.
    ///
    /// # Panics
    ///
    /// Panics if the network does not start with an LSTM, or if `scratch`
    /// was not made for this network.
    pub fn project_rows_into(&self, x: &Mat, out: &mut Mat, scratch: &mut NetworkScratch) {
        let lstm = self.leading_lstm();
        assert!(lstm.is_some(), "project_rows_into: the network does not start with an LSTM");
        assert_eq!(
            scratch.layers.len(),
            self.layers.len(),
            "NetworkScratch layer count does not match the network"
        );
        if let (Some(lstm), Some(ls)) = (lstm, scratch.layers.first_mut()) {
            lstm.project_into(x, out, ls);
        }
    }

    /// [`Network::predict_batch_into`] over rows already projected by
    /// [`Network::project_rows_into`]: the leading LSTM runs only its
    /// recurrence, then the remaining layers run as usual. Equal, bit for
    /// bit, to `predict_batch_into` on the unprojected input.
    ///
    /// # Panics
    ///
    /// Panics if the network does not start with an LSTM, or as
    /// `predict_batch_into` does.
    pub fn predict_projected_batch_into(
        &self,
        xw: &Mat,
        batch: usize,
        out: &mut Mat,
        scratch: &mut NetworkScratch,
    ) {
        let lstm = self.leading_lstm();
        assert!(
            lstm.is_some(),
            "predict_projected_batch_into: the network does not start with an LSTM"
        );
        run_layers_observed(&self.layers, xw, batch, lstm, out, scratch, &mut |_, _| {});
    }

    /// [`Network::predict_scratch`] plus an observation hook:
    /// `observe(i, input)` fires with layer `i`'s input activation right
    /// before that layer runs. Used by the quantized tier's activation
    /// calibration ([`crate::quant`]) to record per-layer input ranges;
    /// the outputs are bit-identical to the unobserved path.
    pub fn predict_traced(
        &self,
        x: &Mat,
        out: &mut Mat,
        scratch: &mut NetworkScratch,
        observe: &mut dyn FnMut(usize, &Mat),
    ) {
        run_layers_observed(&self.layers, x, 1, None, out, scratch, observe);
    }

    /// Copies all parameter values out (for early-stopping snapshots).
    pub fn snapshot_weights(&mut self) -> Vec<Mat> {
        let mut out = Vec::new();
        self.visit_params(&mut |p| out.push(p.value.clone()));
        out
    }

    /// Restores parameter values from a snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot does not match the network architecture.
    pub fn restore_weights(&mut self, weights: &[Mat]) {
        let mut k = 0;
        self.visit_params(&mut |p| {
            assert!(k < weights.len(), "restore_weights: snapshot too short");
            assert_eq!(
                p.value.shape(),
                weights[k].shape(),
                "restore_weights: shape mismatch at block {k}"
            );
            p.value = weights[k].clone();
            k += 1;
        });
        assert_eq!(k, weights.len(), "restore_weights: snapshot too long");
    }

    /// Scales all accumulated gradients by `s` (used to average over a batch).
    pub fn scale_grads(&mut self, s: f32) {
        self.visit_params(&mut |p| {
            for g in p.grad.as_mut_slice() {
                *g *= s;
            }
        });
    }

    /// Global L2 gradient-norm clipping; returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let mut sq = 0.0f32;
        self.visit_params(&mut |p| {
            sq += p.grad.as_slice().iter().map(|g| g * g).sum::<f32>();
        });
        let norm = sq.sqrt();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            self.scale_grads(s);
        }
        norm
    }

    /// Serializes architecture and weights into a [`SavedNetwork`].
    pub fn save(&mut self) -> SavedNetwork {
        SavedNetwork { spec: self.spec.clone(), weights: self.snapshot_weights() }
    }

    /// Rebuilds a network from a checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint weights do not match its own spec.
    pub fn from_saved(saved: &SavedNetwork) -> Self {
        let mut net = Network::new(saved.spec.clone(), 0);
        net.restore_weights(&saved.weights);
        net
    }

    /// Serializes the checkpoint to a JSON string.
    ///
    /// # Errors
    ///
    /// Returns an error if JSON serialization fails.
    pub fn to_json(&mut self) -> Result<String, serde_json::Error> {
        serde_json::to_string(&self.save())
    }

    /// Deserializes a checkpoint from a JSON string.
    ///
    /// # Errors
    ///
    /// Returns an error if the JSON is malformed.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let saved: SavedNetwork = serde_json::from_str(json)?;
        Ok(Self::from_saved(&saved))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Padding;

    fn small_spec() -> NetworkSpec {
        NetworkSpec::new(vec![
            LayerSpec::Conv1d {
                in_channels: 3,
                out_channels: 4,
                kernel: 3,
                padding: Padding::Same,
            },
            LayerSpec::Relu,
            LayerSpec::GlobalMaxPool,
            LayerSpec::Dense { in_dim: 4, out_dim: 2 },
        ])
    }

    #[test]
    fn forward_produces_logits() {
        let mut net = Network::new(small_spec(), 1);
        let y = net.forward(&Mat::full(8, 3, 0.5), Mode::Eval);
        assert_eq!(y.shape(), (1, 2));
    }

    #[test]
    fn seeded_construction_is_deterministic() {
        let mut a = Network::new(small_spec(), 7);
        let mut b = Network::new(small_spec(), 7);
        let x = Mat::full(8, 3, 0.3);
        assert_eq!(a.forward(&x, Mode::Eval), b.forward(&x, Mode::Eval));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Network::new(small_spec(), 7);
        let mut b = Network::new(small_spec(), 8);
        let x = Mat::full(8, 3, 0.3);
        assert_ne!(a.forward(&x, Mode::Eval), b.forward(&x, Mode::Eval));
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut net = Network::new(small_spec(), 3);
        let x = Mat::full(8, 3, 0.1);
        let before = net.forward(&x, Mode::Eval);
        let snap = net.snapshot_weights();
        // Perturb weights.
        net.visit_params(&mut |p| {
            for w in p.value.as_mut_slice() {
                *w += 1.0;
            }
        });
        assert_ne!(net.forward(&x, Mode::Eval), before);
        net.restore_weights(&snap);
        assert_eq!(net.forward(&x, Mode::Eval), before);
    }

    #[test]
    fn json_roundtrip_preserves_predictions() {
        let mut net = Network::new(small_spec(), 3);
        let x = Mat::full(8, 3, 0.1);
        let before = net.forward(&x, Mode::Eval);
        let json = net.to_json().unwrap();
        let mut restored = Network::from_json(&json).unwrap();
        assert_eq!(restored.forward(&x, Mode::Eval), before);
    }

    #[test]
    fn num_params_counts_all_blocks() {
        let mut net =
            Network::new(NetworkSpec::new(vec![LayerSpec::Dense { in_dim: 3, out_dim: 2 }]), 0);
        assert_eq!(net.num_params(), 3 * 2 + 2);
    }

    #[test]
    fn clip_grad_norm_scales_down() {
        let mut net =
            Network::new(NetworkSpec::new(vec![LayerSpec::Dense { in_dim: 2, out_dim: 2 }]), 0);
        net.visit_params(&mut |p| {
            for g in p.grad.as_mut_slice() {
                *g = 10.0;
            }
        });
        let pre = net.clip_grad_norm(1.0);
        assert!(pre > 1.0);
        let mut sq = 0.0;
        net.visit_params(&mut |p| sq += p.grad.as_slice().iter().map(|g| g * g).sum::<f32>());
        assert!((sq.sqrt() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn predict_scratch_is_bit_exact_for_conv_stack() {
        let mut net = Network::new(small_spec(), 5);
        let mut scratch = net.make_scratch();
        let mut out = Mat::zeros(0, 0);
        // Varying input shapes exercise the scratch-buffer resizing.
        for t in [8usize, 12, 8, 5] {
            let x = Mat::from_vec(t, 3, (0..t * 3).map(|i| ((i as f32) * 0.37).sin()).collect());
            let reference = net.predict(&x);
            net.predict_scratch(&x, &mut out, &mut scratch);
            assert_eq!(reference, out, "mismatch at t={t}");
        }
    }

    #[test]
    fn predict_scratch_is_bit_exact_for_lstm_stack() {
        let spec = NetworkSpec::new(vec![
            LayerSpec::Lstm { in_dim: 4, hidden: 6, return_sequences: true },
            LayerSpec::Lstm { in_dim: 6, hidden: 3, return_sequences: false },
            LayerSpec::Dense { in_dim: 3, out_dim: 5 },
            LayerSpec::Relu,
            LayerSpec::Dense { in_dim: 5, out_dim: 2 },
        ]);
        let mut net = Network::new(spec, 11);
        let mut scratch = net.make_scratch();
        let mut out = Mat::zeros(0, 0);
        for t in [10usize, 15, 10] {
            let x = Mat::from_vec(t, 4, (0..t * 4).map(|i| ((i as f32) * 0.21).cos()).collect());
            let reference = net.predict(&x);
            net.predict_scratch(&x, &mut out, &mut scratch);
            assert_eq!(reference, out, "mismatch at t={t}");
        }
    }

    #[test]
    fn predict_scratch_covers_every_layer_kind() {
        // One network touching the layers not covered above.
        let spec = NetworkSpec::new(vec![
            LayerSpec::BatchNorm { dim: 3 },
            LayerSpec::Conv1d {
                in_channels: 3,
                out_channels: 4,
                kernel: 2,
                padding: Padding::Valid,
            },
            LayerSpec::Tanh,
            LayerSpec::MaxPool1d { kernel: 2 },
            LayerSpec::Sigmoid,
            LayerSpec::GlobalAvgPool,
            LayerSpec::Dense { in_dim: 4, out_dim: 4 },
            LayerSpec::Dropout { rate: 0.5 },
            LayerSpec::Flatten,
            LayerSpec::Dense { in_dim: 4, out_dim: 2 },
        ]);
        let mut net = Network::new(spec, 3);
        let x = Mat::from_vec(9, 3, (0..27).map(|i| (i as f32) * 0.1 - 1.3).collect());
        let reference = net.predict(&x);
        let mut out = Mat::zeros(0, 0);
        net.predict_scratch(&x, &mut out, &mut net.make_scratch());
        assert_eq!(reference, out);

        // TakeLast after a sequence-returning LSTM.
        let spec = NetworkSpec::new(vec![
            LayerSpec::Lstm { in_dim: 3, hidden: 4, return_sequences: true },
            LayerSpec::TakeLast,
        ]);
        let mut net = Network::new(spec, 4);
        let reference = net.predict(&x);
        net.predict_scratch(&x, &mut out, &mut net.make_scratch());
        assert_eq!(reference, out);
    }

    #[test]
    fn debug_is_nonempty() {
        let net = Network::new(small_spec(), 1);
        assert!(!format!("{net:?}").is_empty());
    }

    /// A trained network must be shareable read-only across worker threads
    /// (the sharded serving layer holds it behind an `Arc`).
    #[test]
    fn network_and_mat_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Mat>();
        assert_send_sync::<Network>();
        assert_send_sync::<NetworkScratch>();
    }

    /// Batched inference must be bit-identical, per sequence, to running
    /// each sequence alone — across every layer kind the workspace models
    /// use (LSTM, Conv1d, pools, reductions, norm, activations, dense) —
    /// and so must the projected path of LSTM-led networks, fed rows
    /// projected one at a time.
    #[test]
    fn predict_batch_into_is_bit_exact_per_sequence() {
        let specs = vec![
            small_spec(),
            NetworkSpec::new(vec![
                LayerSpec::Lstm { in_dim: 3, hidden: 6, return_sequences: true },
                LayerSpec::Lstm { in_dim: 6, hidden: 4, return_sequences: false },
                LayerSpec::Dense { in_dim: 4, out_dim: 5 },
                LayerSpec::Relu,
                LayerSpec::Dense { in_dim: 5, out_dim: 2 },
            ]),
            NetworkSpec::new(vec![
                LayerSpec::BatchNorm { dim: 3 },
                LayerSpec::Conv1d {
                    in_channels: 3,
                    out_channels: 4,
                    kernel: 2,
                    padding: Padding::Valid,
                },
                LayerSpec::Tanh,
                LayerSpec::MaxPool1d { kernel: 2 },
                LayerSpec::Sigmoid,
                LayerSpec::GlobalAvgPool,
                LayerSpec::Dense { in_dim: 4, out_dim: 4 },
                LayerSpec::Dropout { rate: 0.5 },
                LayerSpec::Flatten,
                LayerSpec::Dense { in_dim: 4, out_dim: 2 },
            ]),
            NetworkSpec::new(vec![
                LayerSpec::Lstm { in_dim: 3, hidden: 4, return_sequences: true },
                LayerSpec::TakeLast,
            ]),
        ];
        let t = 9usize;
        for (si, spec) in specs.into_iter().enumerate() {
            let net = Network::new(spec, 7 + si as u64);
            let mut scratch = net.make_scratch();
            let windows: Vec<Mat> = (0..3)
                .map(|w| {
                    Mat::from_vec(
                        t,
                        3,
                        (0..t * 3).map(|i| ((i + w * 50) as f32 * 0.17).sin()).collect(),
                    )
                })
                .collect();
            // Reference: each window alone.
            let mut singles = Vec::new();
            for w in &windows {
                let mut out = Mat::zeros(0, 0);
                net.predict_scratch(w, &mut out, &mut scratch);
                singles.push(out);
            }
            // Batched: stacked windows in one call.
            let mut stacked = Mat::zeros(windows.len() * t, 3);
            for (b, w) in windows.iter().enumerate() {
                stacked.copy_rows_from(w, b * t);
            }
            let mut outs = vec![Mat::zeros(0, 0)];
            net.predict_batch_into(&stacked, windows.len(), &mut outs[0], &mut scratch);
            if let Some(width) = net.projected_width() {
                let (mut row, mut projected) =
                    (Mat::zeros(0, 0), Mat::zeros(stacked.rows(), width));
                for r in 0..stacked.rows() {
                    net.project_rows_into(&stacked.slice_rows(r, r + 1), &mut row, &mut scratch);
                    projected.row_mut(r).copy_from_slice(row.row(0));
                }
                let mut out = Mat::zeros(0, 0);
                net.predict_projected_batch_into(&projected, windows.len(), &mut out, &mut scratch);
                outs.push(out);
            }
            for (path, out) in outs.iter().enumerate() {
                let rows_per_seq = out.rows() / windows.len();
                for (b, single) in singles.iter().enumerate() {
                    assert_eq!(single.rows(), rows_per_seq, "spec {si}: row count");
                    for r in 0..rows_per_seq {
                        assert_eq!(
                            single.row(r),
                            out.row(b * rows_per_seq + r),
                            "spec {si}, path {path}, sequence {b}, row {r}"
                        );
                    }
                }
            }
        }
    }
}
