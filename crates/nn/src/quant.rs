//! Post-training int8 quantization: calibrated weights + activations over
//! the [`crate::kernels::int8`] GEMM, the inference substrate of the
//! quantized serving tier.
//!
//! # Scheme
//!
//! * **Weights** are quantized per output channel (per-row symmetric):
//!   each output channel's weight vector is stored as a row of a
//!   [`QuantizedMat`] — already transposed into the `(out, in)` layout the
//!   `A·Bᵀ` int8 kernel consumes — with its own `f32` scale
//!   `max_abs / 127`.
//! * **Activations** are quantized per tensor with a scale calibrated
//!   offline: a traced pass over held-out calibration windows
//!   ([`Network::predict_traced`]) records each quantizable layer's input
//!   `max_abs`, and the scale is frozen into the [`QuantizedNetwork`].
//! * **Requantization is deterministic**: `q = clamp(round_ties_even(x ·
//!   inv_scale), -127, 127)` where `inv_scale` is the reciprocal computed
//!   **once** at quantization time. Multiply, clamp and round-to-nearest-
//!   even are exactly-specified IEEE operations, so quantized outputs are
//!   bit-identical across runs, batch sizes, worker counts, and — because
//!   the int8 GEMM is exact — across scalar/SIMD backends.
//!
//! Only inference is quantized; f32 stays the training substrate and the
//! [`QuantizedNetwork`] is derived from a trained [`Network`]
//! (quantize-after-train). Softmax inputs, pooling, and biases stay in
//! f32. LSTM gate nonlinearities also stay in f32 but swap `libm`
//! sigmoid/tanh for the deterministic rational approximants
//! (`fast_tanh`, error < 1e-4 — far below the tier's own quantization
//! step): the matrix products *and* the gate math dominate the per-tick
//! cost, and the int8 tier buys throughput on both.
//!
//! The LSTM hidden state is quantized with a **fixed** scale of `1/127`
//! rather than a calibrated one: `h = o · tanh(c)` is analytically inside
//! `(-1, 1)` (pinned by the layer's `hidden_states_are_bounded` test), so
//! the full int8 range is always used and calibration cannot improve it.

use crate::kernels::int8::{gemm_i8_abt, K_ALIGN};
use crate::layers::{LayerSpec, Padding};
use crate::mat::Mat;
use crate::network::Network;

/// Why a trained network could not be quantized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantError {
    /// The architecture contains a layer kind the int8 tier does not
    /// implement (the pipeline's classifiers only use Dense, Relu,
    /// GlobalMaxPool, Lstm, and Conv1d).
    Unsupported(&'static str),
    /// No calibration windows were supplied: activation scales would be
    /// arbitrary and the tier would clamp silently.
    NoCalibration,
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::Unsupported(name) => {
                write!(f, "quantized tier does not support layer kind {name}")
            }
            QuantError::NoCalibration => {
                f.write_str("activation calibration requires at least one calibration window")
            }
        }
    }
}

impl std::error::Error for QuantError {}

/// Per-row symmetric int8 weight matrix in the `(out, in)` layout the
/// `A·Bᵀ` kernel consumes: row `j` is output channel `j`, quantized with
/// its own scale `max_abs(row) / 127` (`1.0` for all-zero rows).
///
/// Rows are stored at a [`stride`](Self::stride) of [`K_ALIGN`]-rounded
/// width with exact-zero padding, so the GEMM's k-loop is pure vector
/// steps with no scalar tail; zero terms contribute exactly 0, keeping the
/// padded product bit-identical to the unpadded one.
#[derive(Debug, Clone)]
pub struct QuantizedMat {
    rows: usize,
    cols: usize,
    stride: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantizedMat {
    /// Quantizes the **columns** of `w` (stored `(in, out)`, the layer
    /// convention) into rows of a `(out, in)` int8 matrix — transposition
    /// and quantization in one pass, at quantize time, so inference never
    /// strides a column.
    pub fn from_columns(w: &Mat) -> Self {
        let (in_dim, out_dim) = w.shape();
        let stride = in_dim.next_multiple_of(K_ALIGN);
        let mut data = vec![0i8; out_dim * stride];
        let mut scales = vec![1.0f32; out_dim];
        for j in 0..out_dim {
            let mut max_abs = 0.0f32;
            for i in 0..in_dim {
                max_abs = max_abs.max(w[(i, j)].abs());
            }
            let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
            let inv = scale.recip();
            scales[j] = scale;
            for i in 0..in_dim {
                data[j * stride + i] = quantize_rne(w[(i, j)], inv);
            }
        }
        Self { rows: out_dim, cols: in_dim, stride, data, scales }
    }

    /// Output channels (rows of the transposed layout).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input width (columns of the transposed layout), excluding padding.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stored row width: [`cols`](Self::cols) rounded up to [`K_ALIGN`].
    /// The activation operand must be staged at this same stride, and it is
    /// the `k` passed to the GEMM.
    // lint: hot-path
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The quantized values, row-major `(out, stride)` with zero padding.
    // lint: hot-path
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Per-output-channel scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }
}

/// Deterministic round-to-nearest-even int8 quantization:
/// `clamp(round_ties_even(x · inv_scale), -127, 127)`.
///
/// `inv_scale` is the reciprocal of the scale, computed once when the
/// quantizer is built — multiplication by a frozen reciprocal, the clamp
/// and the rounding are exactly-specified IEEE operations, which is what
/// makes requantization reproducible bit-for-bit everywhere.
///
/// The rounding is spelled as an add and a subtract of `1.5·2²³`: for
/// `|v| ≤ 127` the sum lies in `[2²³, 2²⁴)`, where the f32 spacing is 1,
/// so the add rounds `v` to an integer, ties to even (the default
/// rounding mode; the constant is even), and the subtract is exact.
/// Clamping first changes no result, since the clamp bounds are integers.
/// Unlike `round_ties_even`, which is a libm call on the x86-64 baseline,
/// this inlines and vectorizes. NaN passes the clamp and the `as` cast
/// maps it to 0; ±∞ clamp to ±127 (pinned against `round_ties_even` by
/// `quantize_rne_equals_round_ties_even`).
#[inline]
// lint: hot-path
pub fn quantize_rne(x: f32, inv_scale: f32) -> i8 {
    const ROUND: f32 = 12_582_912.0; // 1.5·2²³
    let v = (x * inv_scale).clamp(-127.0, 127.0);
    ((v + ROUND) - ROUND) as i8
}

/// A frozen per-tensor activation quantizer: the calibrated scale and its
/// precomputed reciprocal.
#[derive(Debug, Clone, Copy)]
pub struct ActQuant {
    /// Dequantization scale (`max_abs / 127` from calibration).
    pub scale: f32,
    inv_scale: f32,
}

impl ActQuant {
    /// Builds a quantizer from a calibrated `max_abs` (`1.0` scale when the
    /// calibration pass only saw zeros).
    pub fn from_max_abs(max_abs: f32) -> Self {
        let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
        Self { scale, inv_scale: scale.recip() }
    }

    /// Quantizes one value (see [`quantize_rne`]).
    #[inline]
    // lint: hot-path
    pub fn quantize(&self, x: f32) -> i8 {
        quantize_rne(x, self.inv_scale)
    }
}

/// Quantized dense layer: int8 `x·Wᵀ` plus f32 bias.
#[derive(Debug, Clone)]
struct QDense {
    wq: QuantizedMat, // (out, in)
    /// Per-output-channel dequantization factor `w_scale · x_scale`.
    deq: Vec<f32>,
    bias: Vec<f32>,
    x: ActQuant,
}

/// Quantized 1-D convolution: int8 im2col patches against pre-transposed
/// `(Cout, k·Cin)` weights. Zero padding quantizes exactly to 0, so the
/// patch matrix is assembled directly in int8.
#[derive(Debug, Clone)]
struct QConv1d {
    wq: QuantizedMat, // (Cout, k*Cin)
    deq: Vec<f32>,
    bias: Vec<f32>,
    x: ActQuant,
    in_channels: usize,
    kernel: usize,
    padding: Padding,
}

/// Quantized LSTM: the batched input projection `x·Wᵀ` uses the calibrated
/// input scale; the per-step recurrence `h·Uᵀ` uses the fixed `1/127`
/// hidden scale (module docs). Gates and cell state stay f32 in the f32
/// layer's operation order, with [`fast_tanh`]/[`fast_sigmoid`] as the
/// nonlinearities. The projection is row-independent, so it runs apart
/// from the recurrence ([`QLstm::project`], [`QLstm::recur`]).
#[derive(Debug, Clone)]
struct QLstm {
    wq: QuantizedMat, // (4H, in)
    uq: QuantizedMat, // (4H, H)
    /// `w_scale · x_scale` per gate column.
    deq_w: Vec<f32>,
    /// `u_scale / 127` per gate column (fixed hidden scale).
    deq_u: Vec<f32>,
    bias: Vec<f32>,
    x: ActQuant,
    hidden: usize,
    return_sequences: bool,
}

/// One layer of a [`QuantizedNetwork`].
#[derive(Debug, Clone)]
enum QLayer {
    Dense(QDense),
    Relu,
    GlobalMaxPool,
    Lstm(QLstm),
    Conv1d(QConv1d),
}

/// Reusable int8/i32/f32 staging buffers for one quantized inference pass.
/// All buffers grow to a high-water mark; steady-state ticks allocate
/// nothing.
#[derive(Debug, Default, Clone)]
struct QuantBuffers {
    /// Quantized GEMM A operand (activation rows or im2col patches).
    qa: Vec<i8>,
    /// Quantized input rows, pre-patching (Conv1d).
    qx: Vec<i8>,
    /// Quantized hidden state (LSTM recurrence).
    qh: Vec<i8>,
    /// i32 GEMM accumulator.
    acc: Vec<i32>,
    /// i32 accumulator for the per-step LSTM recurrence.
    acc_h: Vec<i32>,
    /// Dequantized LSTM input projection `(batch·T, 4H)`.
    xw: Mat,
    /// LSTM hidden-to-gate projection.
    hu: Vec<f32>,
    /// LSTM hidden state.
    h: Vec<f32>,
    /// LSTM cell state.
    c: Vec<f32>,
}

/// Caller-owned scratch for [`QuantizedNetwork`] inference: ping-pong
/// activation matrices plus the int8 staging buffers. One per
/// engine/thread, exactly like [`crate::network::NetworkScratch`].
#[derive(Debug, Default, Clone)]
pub struct QuantScratch {
    ping: Mat,
    pong: Mat,
    buf: QuantBuffers,
}

/// A post-training-quantized twin of a trained [`Network`]: per-channel
/// int8 weights, calibrated activation scales, f32 glue.
///
/// Outputs are *close to* — not bit-identical to — the f32 network
/// (quantization error is the point of the parity gate), but are
/// **bit-identical to themselves** across GEMM backends, batch sizes, and
/// worker counts: the int8 products are exact and every f32 step follows
/// one fixed operation order.
#[derive(Debug, Clone)]
pub struct QuantizedNetwork {
    layers: Vec<QLayer>,
}

impl QuantizedNetwork {
    /// Quantizes a trained network, calibrating activation scales from a
    /// traced pass over `calib` (each entry one `(T, F)` input window, e.g.
    /// a sample of the training windows).
    ///
    /// # Errors
    ///
    /// [`QuantError::Unsupported`] if the architecture contains a layer
    /// kind outside {Dense, Relu, GlobalMaxPool, Lstm, Conv1d};
    /// [`QuantError::NoCalibration`] if `calib` is empty.
    pub fn quantize(net: &mut Network, calib: &[Mat]) -> Result<Self, QuantError> {
        if calib.is_empty() {
            return Err(QuantError::NoCalibration);
        }
        let saved = net.save();
        let n_layers = saved.spec.layers.len();

        // Calibration: record each layer's input max_abs over all windows.
        let mut max_abs = vec![0.0f32; n_layers];
        let mut scratch = net.make_scratch();
        let mut out = Mat::zeros(0, 0);
        for x in calib {
            net.predict_traced(x, &mut out, &mut scratch, &mut |i, input| {
                for &v in input.as_slice() {
                    if v.abs() > max_abs[i] {
                        max_abs[i] = v.abs();
                    }
                }
            });
        }

        // Map the flat visit-order weight list onto quantized layers.
        let mut layers = Vec::with_capacity(n_layers);
        let mut w_idx = 0usize;
        for (i, spec) in saved.spec.layers.iter().enumerate() {
            match *spec {
                LayerSpec::Dense { .. } => {
                    let w = &saved.weights[w_idx];
                    let b = &saved.weights[w_idx + 1];
                    w_idx += 2;
                    let x = ActQuant::from_max_abs(max_abs[i]);
                    let wq = QuantizedMat::from_columns(w);
                    let deq = wq.scales().iter().map(|s| s * x.scale).collect();
                    layers.push(QLayer::Dense(QDense { wq, deq, bias: b.row(0).to_vec(), x }));
                }
                LayerSpec::Relu => layers.push(QLayer::Relu),
                LayerSpec::GlobalMaxPool => layers.push(QLayer::GlobalMaxPool),
                LayerSpec::Lstm { hidden, return_sequences, .. } => {
                    let w = &saved.weights[w_idx];
                    let u = &saved.weights[w_idx + 1];
                    let b = &saved.weights[w_idx + 2];
                    w_idx += 3;
                    let x = ActQuant::from_max_abs(max_abs[i]);
                    let wq = QuantizedMat::from_columns(w);
                    let uq = QuantizedMat::from_columns(u);
                    let deq_w = wq.scales().iter().map(|s| s * x.scale).collect();
                    let deq_u = uq.scales().iter().map(|s| s / 127.0).collect();
                    layers.push(QLayer::Lstm(QLstm {
                        wq,
                        uq,
                        deq_w,
                        deq_u,
                        bias: b.row(0).to_vec(),
                        x,
                        hidden,
                        return_sequences,
                    }));
                }
                LayerSpec::Conv1d { in_channels, kernel, padding, .. } => {
                    let w = &saved.weights[w_idx];
                    let b = &saved.weights[w_idx + 1];
                    w_idx += 2;
                    let x = ActQuant::from_max_abs(max_abs[i]);
                    let wq = QuantizedMat::from_columns(w);
                    let deq = wq.scales().iter().map(|s| s * x.scale).collect();
                    layers.push(QLayer::Conv1d(QConv1d {
                        wq,
                        deq,
                        bias: b.row(0).to_vec(),
                        x,
                        in_channels,
                        kernel,
                        padding,
                    }));
                }
                LayerSpec::MaxPool1d { .. } => return Err(QuantError::Unsupported("MaxPool1d")),
                LayerSpec::GlobalAvgPool => return Err(QuantError::Unsupported("GlobalAvgPool")),
                LayerSpec::TakeLast => return Err(QuantError::Unsupported("TakeLast")),
                LayerSpec::Flatten => return Err(QuantError::Unsupported("Flatten")),
            }
        }
        Ok(Self { layers })
    }

    /// Creates a caller-owned scratch for this network.
    pub fn make_scratch(&self) -> QuantScratch {
        QuantScratch::default()
    }

    /// Single-sequence quantized inference (see
    /// [`QuantizedNetwork::predict_batch_into`]).
    // lint: hot-path
    pub fn predict_scratch(&self, x: &Mat, out: &mut Mat, scratch: &mut QuantScratch) {
        self.predict_batch_into(x, 1, out, scratch);
    }

    /// The LSTM the network starts with, if any.
    fn leading_lstm(&self) -> Option<&QLstm> {
        match self.layers.first() {
            Some(QLayer::Lstm(l)) => Some(l),
            _ => None,
        }
    }

    /// The row-independent part of the leading LSTM: each row of `x`
    /// through its quantized input weights, dequantized (`(rows, 4·hidden)`).
    /// Each output row depends on its input row alone, so rows projected
    /// one tick at a time equal the rows of a whole window projected at
    /// once, bit for bit. [`QuantizedNetwork::predict_projected_batch_into`]
    /// runs the rest of the network from such rows.
    ///
    /// # Panics
    ///
    /// Panics if the network does not start with an LSTM.
    // lint: hot-path
    pub fn project_rows_into(&self, x: &Mat, out: &mut Mat, scratch: &mut QuantScratch) {
        let lstm = self.leading_lstm();
        assert!(lstm.is_some(), "project_rows_into: the network does not start with an LSTM");
        if let Some(lstm) = lstm {
            lstm.project(x, out, &mut scratch.buf);
        }
    }

    /// [`QuantizedNetwork::predict_batch_into`] over rows already projected
    /// by [`QuantizedNetwork::project_rows_into`]: the leading LSTM runs
    /// only its recurrence, then the remaining layers run as usual. Equal,
    /// bit for bit, to `predict_batch_into` on the unprojected input.
    ///
    /// # Panics
    ///
    /// Panics if the network does not start with an LSTM, or as
    /// `predict_batch_into` does.
    // lint: hot-path
    pub fn predict_projected_batch_into(
        &self,
        xw: &Mat,
        batch: usize,
        out: &mut Mat,
        scratch: &mut QuantScratch,
    ) {
        assert!(
            self.leading_lstm().is_some(),
            "predict_projected_batch_into: the network does not start with an LSTM"
        );
        self.infer_layers(xw, batch, true, out, scratch);
    }

    /// Cross-sequence micro-batched quantized inference, mirroring
    /// [`Network::predict_batch_into`]'s row conventions: `x` holds `batch`
    /// equally shaped sequences stacked row-wise. Each sequence's block is
    /// bit-identical to running that sequence alone — row-independent
    /// integer products plus per-element dequantization — which is what
    /// keeps the sharded pool's decisions independent of worker count on
    /// the int8 tier too.
    // lint: hot-path
    pub fn predict_batch_into(
        &self,
        x: &Mat,
        batch: usize,
        out: &mut Mat,
        scratch: &mut QuantScratch,
    ) {
        self.infer_layers(x, batch, false, out, scratch);
    }

    /// The forward pass behind both batched entry points. With `projected`,
    /// `x` holds the leading LSTM's projected rows and that layer runs only
    /// its recurrence.
    // lint: hot-path
    fn infer_layers(
        &self,
        x: &Mat,
        batch: usize,
        projected: bool,
        out: &mut Mat,
        scratch: &mut QuantScratch,
    ) {
        assert!(batch > 0, "batch must be positive");
        assert_eq!(x.rows() % batch, 0, "batch does not divide input rows");
        if self.layers.is_empty() {
            out.copy_from(x);
            return;
        }
        let QuantScratch { ping, pong, buf } = scratch;
        let mut cur = 0usize;
        for (i, layer) in self.layers.iter().enumerate() {
            if i == 0 {
                match layer {
                    QLayer::Lstm(l) if projected => l.recur(x, batch, ping, buf),
                    _ => layer.infer_batch(x, batch, ping, buf),
                }
            } else if cur == 0 {
                layer.infer_batch(ping, batch, pong, buf);
                cur = 1;
            } else {
                layer.infer_batch(pong, batch, ping, buf);
                cur = 0;
            }
        }
        out.copy_from(if cur == 0 { ping } else { pong });
    }
}

impl QLayer {
    /// Runs one quantized layer over `batch` stacked sequences.
    // lint: hot-path
    fn infer_batch(&self, x: &Mat, batch: usize, out: &mut Mat, buf: &mut QuantBuffers) {
        match self {
            QLayer::Dense(d) => d.infer(x, out, buf),
            QLayer::Relu => {
                out.resize(x.rows(), x.cols());
                for (o, &v) in out.as_mut_slice().iter_mut().zip(x.as_slice()) {
                    *o = if v > 0.0 { v } else { 0.0 };
                }
            }
            QLayer::GlobalMaxPool => {
                let t = x.rows() / batch;
                assert!(t > 0, "GlobalMaxPool: empty input");
                let c = x.cols();
                out.resize(batch, c);
                for seq in 0..batch {
                    for col in 0..c {
                        let mut best = x[(seq * t, col)];
                        for r in 1..t {
                            if x[(seq * t + r, col)] > best {
                                best = x[(seq * t + r, col)];
                            }
                        }
                        out[(seq, col)] = best;
                    }
                }
            }
            QLayer::Lstm(l) => l.infer_batch(x, batch, out, buf),
            QLayer::Conv1d(cv) => cv.infer_batch(x, batch, out, buf),
        }
    }
}

/// Deterministic rational tanh for the quantized tier's LSTM gates: the
/// [7/6] Padé approximant of tanh on a clamped domain.
///
/// `|fast_tanh(x) - tanh(x)| < 1e-4` everywhere — far below the ~8e-3
/// quantization step the int8 tier already injects per value, so the
/// parity gate's accuracy budget is unaffected. What it buys: no `libm`
/// call, so the gate loop is straight-line mul/add/div in one fixed IEEE
/// order — still bit-deterministic across runs, backends, and worker
/// counts (the determinism contract needs *reproducible* gates, not
/// f32-identical ones) — and vectorizable across hidden units
/// ([`lstm_gates`]), which is where the tier's per-frame latency win over
/// f32's `exp`-based gates comes from.
#[inline]
// lint: hot-path
fn fast_tanh(x: f32) -> f32 {
    // Beyond ±4.9 the approximant and tanh are both within 1.2e-4 of ±1.
    let x = x.clamp(-4.9, 4.9);
    let x2 = x * x;
    let num = x * (135135.0 + x2 * (17325.0 + x2 * (378.0 + x2)));
    let den = 135135.0 + x2 * (62370.0 + x2 * (3150.0 + x2 * 28.0));
    num / den
}

/// Deterministic sigmoid via [`fast_tanh`]:
/// `σ(x) = 0.5 + 0.5·tanh(x/2)` (same error bound, halved).
#[inline]
// lint: hot-path
fn fast_sigmoid(x: f32) -> f32 {
    0.5 + 0.5 * fast_tanh(0.5 * x)
}

/// Splits a `4·h`-wide gate row into its `[input, forget, cell, output]`
/// blocks, each exactly `h` long.
#[inline]
// lint: hot-path
fn gate_blocks(row: &[f32], h: usize) -> [&[f32]; 4] {
    let (i, rest) = row.split_at(h);
    let (f, rest) = rest.split_at(h);
    let (g, o) = rest.split_at(h);
    [i, f, g, &o[..h]]
}

/// One LSTM step's gate math over `h = c.len()` hidden units:
/// `z = xw + hu + b` per gate, then `c ← f·c + i·g` and `h ← o·tanh(c)`,
/// in the f32 layer's operation order with the rational nonlinearities.
///
/// Every operand is sliced into `h`-long gate blocks before the loop, so
/// the compiler sees equal lengths, drops the bounds checks and
/// vectorizes across hidden units. Each unit's operations and their order
/// are unchanged, so the results are the same bits as the scalar loop.
// lint: hot-path
fn lstm_gates(xw: &[f32], hu: &[f32], bias: &[f32], c: &mut [f32], h_out: &mut [f32]) {
    let h = c.len();
    let [xi, xf, xg, xo] = gate_blocks(xw, h);
    let [ui, uf, ug, uo] = gate_blocks(hu, h);
    let [bi, bf, bg, bo] = gate_blocks(bias, h);
    let h_out = &mut h_out[..h];
    for k in 0..h {
        let i = fast_sigmoid(xi[k] + ui[k] + bi[k]);
        let f = fast_sigmoid(xf[k] + uf[k] + bf[k]);
        let g = fast_tanh(xg[k] + ug[k] + bg[k]);
        let o = fast_sigmoid(xo[k] + uo[k] + bo[k]);
        let c_new = f * c[k] + i * g;
        c[k] = c_new;
        h_out[k] = o * fast_tanh(c_new);
    }
}

/// Quantizes every row of `x` into `dst` at row stride `stride`
/// (≥ `x.cols()`), zero-filling the padding — exactly the layout
/// [`QuantizedMat`] stores weights in, so the GEMM runs tail-free.
// lint: hot-path
fn quantize_rows(x: &Mat, q: &ActQuant, stride: usize, dst: &mut Vec<i8>) {
    let (rows, cols) = x.shape();
    dst.resize(rows * stride, 0);
    dst.fill(0);
    let src = x.as_slice();
    for r in 0..rows {
        let drow = &mut dst[r * stride..r * stride + cols];
        for (d, &v) in drow.iter_mut().zip(&src[r * cols..(r + 1) * cols]) {
            *d = q.quantize(v);
        }
    }
}

impl QDense {
    /// `out = dequant(quant(x) · Wqᵀ) + b`, rows independent.
    // lint: hot-path
    fn infer(&self, x: &Mat, out: &mut Mat, buf: &mut QuantBuffers) {
        let (rows, in_dim) = x.shape();
        let out_dim = self.wq.rows();
        assert_eq!(in_dim, self.wq.cols(), "QDense: input width mismatch");
        let stride = self.wq.stride();
        quantize_rows(x, &self.x, stride, &mut buf.qa);
        buf.acc.resize(rows * out_dim, 0);
        gemm_i8_abt(rows, stride, out_dim, &buf.qa, self.wq.data(), &mut buf.acc);
        out.resize(rows, out_dim);
        for r in 0..rows {
            let acc_row = &buf.acc[r * out_dim..(r + 1) * out_dim];
            let out_row = out.row_mut(r);
            for j in 0..out_dim {
                out_row[j] = acc_row[j] as f32 * self.deq[j] + self.bias[j];
            }
        }
    }
}

impl QConv1d {
    // lint: hot-path
    fn pad_lo(&self) -> usize {
        match self.padding {
            Padding::Valid => 0,
            Padding::Same => self.kernel.saturating_sub(1) / 2,
        }
    }

    fn output_len(&self, t: usize) -> usize {
        let total = match self.padding {
            Padding::Valid => 0,
            Padding::Same => self.kernel.saturating_sub(1),
        };
        let padded = t + total;
        assert!(
            padded >= self.kernel,
            "QConv1d: input of {t} steps too short for kernel {}",
            self.kernel
        );
        padded - self.kernel + 1
    }

    /// Quantizes the input rows once, assembles the int8 im2col patch
    /// matrix (padding is exactly 0), and runs one int8 GEMM per call.
    // lint: hot-path
    fn infer_batch(&self, x: &Mat, batch: usize, out: &mut Mat, buf: &mut QuantBuffers) {
        let cin = self.in_channels;
        assert_eq!(x.cols(), cin, "QConv1d: expected {} channels, got {}", cin, x.cols());
        let t = x.rows() / batch;
        let t_out = self.output_len(t);
        let lo = self.pad_lo();
        let k = self.kernel;
        let cin_kcin = k * cin;
        let stride = self.wq.stride();
        debug_assert_eq!(self.wq.cols(), cin_kcin);
        let cout = self.wq.rows();

        quantize_rows(x, &self.x, cin, &mut buf.qx);
        buf.qa.resize(batch * t_out * stride, 0);
        buf.qa.fill(0);
        for b in 0..batch {
            for o in 0..t_out {
                let row =
                    &mut buf.qa[(b * t_out + o) * stride..(b * t_out + o) * stride + cin_kcin];
                for j in 0..k {
                    let src = (o + j) as isize - lo as isize;
                    if src >= 0 && (src as usize) < t {
                        let src_row = (b * t + src as usize) * cin;
                        row[j * cin..(j + 1) * cin]
                            .copy_from_slice(&buf.qx[src_row..src_row + cin]);
                    }
                }
            }
        }
        buf.acc.resize(batch * t_out * cout, 0);
        gemm_i8_abt(batch * t_out, stride, cout, &buf.qa, self.wq.data(), &mut buf.acc);
        out.resize(batch * t_out, cout);
        for r in 0..batch * t_out {
            let acc_row = &buf.acc[r * cout..(r + 1) * cout];
            let out_row = out.row_mut(r);
            for j in 0..cout {
                out_row[j] = acc_row[j] as f32 * self.deq[j] + self.bias[j];
            }
        }
    }
}

impl QLstm {
    /// The batched input projection `xw = dequant(quant(x)·Wqᵀ)` for every
    /// row of `x` (`(rows, 4H)`). Rows are independent: a per-tensor input
    /// scale, exact integer products and a per-column dequantization.
    // lint: hot-path
    fn project(&self, x: &Mat, xw: &mut Mat, buf: &mut QuantBuffers) {
        let (rows, h4) = (x.rows(), 4 * self.hidden);
        assert_eq!(x.cols(), self.wq.cols(), "QLstm: input width mismatch");
        let stride_w = self.wq.stride();
        quantize_rows(x, &self.x, stride_w, &mut buf.qa);
        buf.acc.resize(rows * h4, 0);
        gemm_i8_abt(rows, stride_w, h4, &buf.qa, self.wq.data(), &mut buf.acc);
        xw.resize(rows, h4);
        for (xw_row, acc_row) in
            xw.as_mut_slice().chunks_exact_mut(h4).zip(buf.acc.chunks_exact(h4))
        {
            for ((o, &a), &d) in xw_row.iter_mut().zip(acc_row).zip(&self.deq_w) {
                *o = a as f32 * d;
            }
        }
    }

    /// The per-sequence recurrence over `batch` stacked sequences of
    /// projected rows `xw` (from [`QLstm::project`]): an int8 `h·Uᵀ` at the
    /// fixed `1/127` hidden scale per step, then [`lstm_gates`].
    // lint: hot-path
    fn recur(&self, xw: &Mat, batch: usize, out: &mut Mat, buf: &mut QuantBuffers) {
        let h = self.hidden;
        assert_eq!(xw.cols(), 4 * h, "QLstm: projected width mismatch");
        let t_len = xw.rows() / batch;
        assert!(t_len > 0, "QLstm: empty input sequence");

        let stride_u = self.uq.stride();
        buf.hu.resize(4 * h, 0.0);
        buf.h.resize(h, 0.0);
        buf.c.resize(h, 0.0);
        // The shared buffer may hold another layer's data; zero it once so
        // the `stride_u - h` padding tail is exact 0 for every step.
        buf.qh.resize(stride_u, 0);
        buf.qh.fill(0);
        buf.acc_h.resize(4 * h, 0);
        if self.return_sequences {
            out.resize(batch * t_len, h);
        } else {
            out.resize(batch, h);
        }

        for seq in 0..batch {
            buf.h.fill(0.0);
            buf.c.fill(0.0);
            for t in 0..t_len {
                // h is in (-1, 1); quantize at the fixed 1/127 scale.
                for (qh, &hv) in buf.qh[..h].iter_mut().zip(buf.h.iter()) {
                    *qh = quantize_rne(hv, 127.0);
                }
                gemm_i8_abt(1, stride_u, 4 * h, &buf.qh, self.uq.data(), &mut buf.acc_h);
                for ((hu, &a), &d) in buf.hu.iter_mut().zip(&buf.acc_h).zip(&self.deq_u) {
                    *hu = a as f32 * d;
                }
                lstm_gates(xw.row(seq * t_len + t), &buf.hu, &self.bias, &mut buf.c, &mut buf.h);
                if self.return_sequences {
                    out.row_mut(seq * t_len + t).copy_from_slice(&buf.h);
                }
            }
            if !self.return_sequences {
                out.row_mut(seq).copy_from_slice(&buf.h);
            }
        }
    }

    /// The f32 layer's fused structure with quantized projections: one
    /// batched [`QLstm::project`] for every step of every sequence, then
    /// the per-step [`QLstm::recur`].
    // lint: hot-path
    fn infer_batch(&self, x: &Mat, batch: usize, out: &mut Mat, buf: &mut QuantBuffers) {
        let mut xw = std::mem::take(&mut buf.xw);
        self.project(x, &mut xw, buf);
        self.recur(&xw, batch, out, buf);
        buf.xw = xw;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkSpec;

    fn calib_windows(t: usize, f: usize, n: usize) -> Vec<Mat> {
        (0..n)
            .map(|w| {
                Mat::from_vec(
                    t,
                    f,
                    (0..t * f).map(|i| ((i + w * 31) as f32 * 0.23).sin()).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn rational_gates_stay_within_1e4_of_libm() {
        let mut worst = 0.0f32;
        for i in -12000..=12000 {
            let x = i as f32 * 1e-3; // dense grid over [-12, 12]
            worst = worst.max((fast_tanh(x) - x.tanh()).abs());
            worst = worst.max((fast_sigmoid(x) - crate::layers::activation::sigmoid(x)).abs());
        }
        assert!(worst < 1e-4, "gate approximation error {worst} too large");
        // Saturation and symmetry edges.
        assert_eq!(fast_tanh(0.0), 0.0);
        assert_eq!(fast_tanh(100.0), -fast_tanh(-100.0));
        assert!(fast_tanh(100.0) <= 1.0 && fast_tanh(100.0) > 0.9998);
    }

    #[test]
    fn rne_requantization_is_pinned() {
        // Ties go to even; clamped symmetric at ±127.
        assert_eq!(quantize_rne(2.5, 1.0), 2);
        assert_eq!(quantize_rne(3.5, 1.0), 4);
        assert_eq!(quantize_rne(-2.5, 1.0), -2);
        assert_eq!(quantize_rne(-0.5, 1.0), 0);
        assert_eq!(quantize_rne(1.5, 1.0), 2);
        assert_eq!(quantize_rne(200.0, 1.0), 127);
        assert_eq!(quantize_rne(-200.0, 1.0), -127);
        assert_eq!(quantize_rne(f32::NAN, 1.0), 0);
    }

    /// The add-and-subtract rounding equals `round_ties_even` followed by
    /// the clamp, at unit scale and at the hidden-state scale 127: on every
    /// integer and half-integer of [-140, 140] and their neighbours (and
    /// the same points divided by 127, so the ties also land at scale 127),
    /// on zeros, subnormals, infinities, NaN and the extremes, and on
    /// random bit patterns.
    #[test]
    fn quantize_rne_equals_round_ties_even() {
        let reference = |x: f32, inv: f32| (x * inv).round_ties_even().clamp(-127.0, 127.0) as i8;
        let tiny = f32::from_bits(1);
        let mut inputs = vec![
            0.0,
            -0.0,
            tiny,
            -tiny,
            f32::MIN_POSITIVE.next_down(),
            -f32::MIN_POSITIVE.next_down(),
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MAX,
            f32::MIN,
        ];
        for i in -280..=280 {
            for v in [i as f32 * 0.5, i as f32 * 0.5 / 127.0] {
                inputs.extend([v, v.next_up(), v.next_down()]);
            }
        }
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        for _ in 0..100_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            inputs.push(f32::from_bits((state >> 32) as u32));
        }
        for inv in [1.0, 127.0] {
            for &x in &inputs {
                assert_eq!(
                    quantize_rne(x, inv),
                    reference(x, inv),
                    "x = {x:e} ({:#010x}), inv_scale {inv}",
                    x.to_bits()
                );
            }
        }
    }

    #[test]
    fn per_row_scales_cover_channels_independently() {
        let w = Mat::from_rows(&[&[1.0, 100.0], &[-2.0, 50.0]]);
        let q = QuantizedMat::from_columns(&w);
        assert_eq!(q.rows(), 2);
        assert_eq!(q.cols(), 2);
        // Rows are stored at the K_ALIGN stride with zero padding.
        assert_eq!(q.stride(), K_ALIGN);
        assert_eq!(q.data().len(), 2 * K_ALIGN);
        assert!(q.data()[2..K_ALIGN].iter().all(|&v| v == 0));
        // Channel 0 max_abs 2, channel 1 max_abs 100.
        assert_eq!(q.scales()[0], 2.0 / 127.0);
        assert_eq!(q.scales()[1], 100.0 / 127.0);
        // Max-magnitude entries hit ±127 exactly.
        assert_eq!(q.data()[1], -127); // w[(1,0)] = -2
        assert_eq!(q.data()[q.stride()], 127); // w[(0,1)] = 100
    }

    #[test]
    fn zero_rows_quantize_with_unit_scale() {
        let w = Mat::zeros(3, 2);
        let q = QuantizedMat::from_columns(&w);
        assert_eq!(q.scales(), &[1.0, 1.0]);
        assert!(q.data().iter().all(|&v| v == 0));
    }

    fn conv_spec() -> NetworkSpec {
        NetworkSpec::new(vec![
            LayerSpec::Conv1d {
                in_channels: 3,
                out_channels: 8,
                kernel: 3,
                padding: Padding::Same,
            },
            LayerSpec::Relu,
            LayerSpec::Conv1d {
                in_channels: 8,
                out_channels: 8,
                kernel: 3,
                padding: Padding::Same,
            },
            LayerSpec::Relu,
            LayerSpec::GlobalMaxPool,
            LayerSpec::Dense { in_dim: 8, out_dim: 6 },
            LayerSpec::Relu,
            LayerSpec::Dense { in_dim: 6, out_dim: 2 },
        ])
    }

    fn lstm_spec() -> NetworkSpec {
        NetworkSpec::new(vec![
            LayerSpec::Lstm { in_dim: 3, hidden: 8, return_sequences: true },
            LayerSpec::Lstm { in_dim: 8, hidden: 5, return_sequences: false },
            LayerSpec::Dense { in_dim: 5, out_dim: 4 },
            LayerSpec::Relu,
            LayerSpec::Dense { in_dim: 4, out_dim: 3 },
        ])
    }

    #[test]
    fn quantized_outputs_track_f32_closely() {
        for (spec, seed) in [(conv_spec(), 3u64), (lstm_spec(), 7u64)] {
            let mut net = Network::new(spec, seed);
            let calib = calib_windows(9, 3, 6);
            let qnet = QuantizedNetwork::quantize(&mut net, &calib).unwrap();
            let mut scratch = net.make_scratch();
            let mut qscratch = qnet.make_scratch();
            let mut want = Mat::zeros(0, 0);
            let mut got = Mat::zeros(0, 0);
            for x in &calib {
                net.predict_scratch(x, &mut want, &mut scratch);
                qnet.predict_scratch(x, &mut got, &mut qscratch);
                assert_eq!(want.shape(), got.shape());
                for (w, g) in want.as_slice().iter().zip(got.as_slice()) {
                    // Untrained random nets: just pin that quantization is a
                    // perturbation, not a rewrite. The trained-accuracy
                    // tolerance lives in the parity gate.
                    assert!((w - g).abs() < 0.2, "f32 {w} vs int8 {g}");
                }
            }
        }
    }

    #[test]
    fn batched_quantized_inference_is_bit_exact_per_sequence() {
        for (spec, seed) in [(conv_spec(), 11u64), (lstm_spec(), 13u64)] {
            let mut net = Network::new(spec, seed);
            let t = 9usize;
            let calib = calib_windows(t, 3, 4);
            let qnet = QuantizedNetwork::quantize(&mut net, &calib).unwrap();
            let mut qscratch = qnet.make_scratch();
            let mut singles = Vec::new();
            for x in &calib {
                let mut out = Mat::zeros(0, 0);
                qnet.predict_scratch(x, &mut out, &mut qscratch);
                singles.push(out);
            }
            let mut stacked = Mat::zeros(calib.len() * t, 3);
            for (b, w) in calib.iter().enumerate() {
                stacked.copy_rows_from(w, b * t);
            }
            let mut out = Mat::zeros(0, 0);
            qnet.predict_batch_into(&stacked, calib.len(), &mut out, &mut qscratch);
            let rows_per_seq = out.rows() / calib.len();
            for (b, single) in singles.iter().enumerate() {
                for r in 0..rows_per_seq {
                    assert_eq!(single.row(r), out.row(b * rows_per_seq + r), "seq {b}, row {r}");
                }
            }
        }
    }

    /// Requantization written the plain way, independent of
    /// [`quantize_rne`].
    fn requantize_ref(x: f32, inv_scale: f32) -> i8 {
        (x * inv_scale).round_ties_even().clamp(-127.0, 127.0) as i8
    }

    /// The [7/6] Padé tanh in [`fast_tanh`]'s operation order.
    fn tanh_ref(x: f32) -> f32 {
        let x = x.clamp(-4.9, 4.9);
        let x2 = x * x;
        let num = x * (135135.0 + x2 * (17325.0 + x2 * (378.0 + x2)));
        num / (135135.0 + x2 * (62370.0 + x2 * (3150.0 + x2 * 28.0)))
    }

    fn sigmoid_ref(x: f32) -> f32 {
        0.5 + 0.5 * tanh_ref(0.5 * x)
    }

    /// `rows` int8 activation rows of width `k` against the unpadded weight
    /// rows of `w`, through the naive kernel: `(rows, w.rows())` i32 sums.
    fn product_ref(qa: &[i8], rows: usize, k: usize, w: &QuantizedMat) -> Vec<i32> {
        let mut wr = Vec::with_capacity(w.rows() * k);
        for j in 0..w.rows() {
            wr.extend_from_slice(&w.data()[j * w.stride()..j * w.stride() + k]);
        }
        let mut acc = vec![0i32; rows * w.rows()];
        crate::kernels::int8::naive_i8_abt(rows, k, w.rows(), qa, &wr, &mut acc);
        acc
    }

    /// `acc · deq + bias` per output row, `None` for no bias.
    fn dequantize_ref(acc: &[i32], rows: usize, deq: &[f32], bias: Option<&[f32]>) -> Mat {
        let n = deq.len();
        let mut out = Mat::zeros(rows, n);
        for r in 0..rows {
            for j in 0..n {
                let v = acc[r * n + j] as f32 * deq[j];
                out[(r, j)] = match bias {
                    Some(b) => v + b[j],
                    None => v,
                };
            }
        }
        out
    }

    fn quantize_ref(x: &Mat, q: &ActQuant) -> Vec<i8> {
        x.as_slice().iter().map(|&v| requantize_ref(v, q.inv_scale)).collect()
    }

    /// An independent int8 forward pass over one sequence: plain loops,
    /// the naive kernel on unpadded operands, [`requantize_ref`] and the
    /// gates spelled out. Shares no inference code with the layers.
    fn forward_ref(net: &QuantizedNetwork, x: &Mat) -> Mat {
        let mut cur = x.clone();
        for layer in &net.layers {
            cur = match layer {
                QLayer::Dense(d) => {
                    let acc = product_ref(&quantize_ref(&cur, &d.x), cur.rows(), cur.cols(), &d.wq);
                    dequantize_ref(&acc, cur.rows(), &d.deq, Some(&d.bias))
                }
                QLayer::Relu => cur.map(|v| if v > 0.0 { v } else { 0.0 }),
                QLayer::GlobalMaxPool => {
                    let mut out = Mat::zeros(1, cur.cols());
                    for col in 0..cur.cols() {
                        let mut best = cur[(0, col)];
                        for r in 1..cur.rows() {
                            if cur[(r, col)] > best {
                                best = cur[(r, col)];
                            }
                        }
                        out[(0, col)] = best;
                    }
                    out
                }
                QLayer::Conv1d(c) => {
                    let (t, cin, k) = (cur.rows(), c.in_channels, c.kernel);
                    let (lo, total) = match c.padding {
                        Padding::Valid => (0, 0),
                        Padding::Same => ((k - 1) / 2, k - 1),
                    };
                    let t_out = t + total + 1 - k;
                    let qx = quantize_ref(&cur, &c.x);
                    let mut patches = vec![0i8; t_out * k * cin];
                    for o in 0..t_out {
                        for j in 0..k {
                            let src = (o + j) as isize - lo as isize;
                            if (0..t as isize).contains(&src) {
                                for ch in 0..cin {
                                    patches[(o * k + j) * cin + ch] = qx[src as usize * cin + ch];
                                }
                            }
                        }
                    }
                    let acc = product_ref(&patches, t_out, k * cin, &c.wq);
                    dequantize_ref(&acc, t_out, &c.deq, Some(&c.bias))
                }
                QLayer::Lstm(l) => {
                    let (t, h) = (cur.rows(), l.hidden);
                    let acc = product_ref(&quantize_ref(&cur, &l.x), t, cur.cols(), &l.wq);
                    let xw = dequantize_ref(&acc, t, &l.deq_w, None);
                    let (mut hs, mut c) = (vec![0.0f32; h], vec![0.0f32; h]);
                    let mut out = Mat::zeros(t, h);
                    for step in 0..t {
                        let qh: Vec<i8> = hs.iter().map(|&v| requantize_ref(v, 127.0)).collect();
                        let hu = dequantize_ref(&product_ref(&qh, 1, h, &l.uq), 1, &l.deq_u, None);
                        for k in 0..h {
                            let z = |g: usize| {
                                xw[(step, g * h + k)] + hu[(0, g * h + k)] + l.bias[g * h + k]
                            };
                            let (i, f, g, o) = (
                                sigmoid_ref(z(0)),
                                sigmoid_ref(z(1)),
                                tanh_ref(z(2)),
                                sigmoid_ref(z(3)),
                            );
                            c[k] = f * c[k] + i * g;
                            hs[k] = o * tanh_ref(c[k]);
                        }
                        out.row_mut(step).copy_from_slice(&hs);
                    }
                    if l.return_sequences {
                        out
                    } else {
                        out.slice_rows(t - 1, t)
                    }
                }
            };
        }
        cur
    }

    fn bits(m: &Mat) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// `predict_scratch`, `predict_batch_into` and, for the LSTM specs,
    /// rows projected one at a time through `predict_projected_batch_into`
    /// all equal the independent reference pass bit for bit. The lone
    /// sequence-returning LSTM exposes its f32 hidden states directly,
    /// where a later layer's requantization could hide a one-ulp slip.
    #[test]
    fn quantized_inference_matches_independent_reference() {
        let lone_lstm = NetworkSpec::new(vec![LayerSpec::Lstm {
            in_dim: 3,
            hidden: 8,
            return_sequences: true,
        }]);
        for (spec, seed) in [(conv_spec(), 17u64), (lstm_spec(), 19u64), (lone_lstm, 23u64)] {
            let mut net = Network::new(spec, seed);
            let t = 9usize;
            let calib = calib_windows(t, 3, 4);
            let qnet = QuantizedNetwork::quantize(&mut net, &calib).unwrap();
            let mut scratch = qnet.make_scratch();
            let mut stacked = Mat::zeros(calib.len() * t, 3);
            let mut stacked_xw = Mat::zeros(0, 0);
            let (mut out, mut row_xw) = (Mat::zeros(0, 0), Mat::zeros(0, 0));
            let mut want = Vec::new();
            for (b, x) in calib.iter().enumerate() {
                want.push(bits(&forward_ref(&qnet, x)));
                qnet.predict_scratch(x, &mut out, &mut scratch);
                assert_eq!(bits(&out), want[b], "seed {seed}: predict_scratch, window {b}");
                stacked.copy_rows_from(x, b * t);
                if let Some(lstm) = qnet.leading_lstm() {
                    let width = 4 * lstm.hidden;
                    stacked_xw.resize(calib.len() * t, width);
                    for r in 0..t {
                        qnet.project_rows_into(&x.slice_rows(r, r + 1), &mut row_xw, &mut scratch);
                        stacked_xw.row_mut(b * t + r).copy_from_slice(row_xw.row(0));
                    }
                }
            }
            let n = calib.len();
            qnet.predict_batch_into(&stacked, n, &mut out, &mut scratch);
            let per = out.rows() / n;
            for (b, w) in want.iter().enumerate() {
                assert_eq!(
                    &bits(&out.slice_rows(b * per, (b + 1) * per)),
                    w,
                    "seed {seed}: batch {b}"
                );
            }
            if qnet.leading_lstm().is_some() {
                qnet.predict_projected_batch_into(&stacked_xw, n, &mut out, &mut scratch);
                for (b, w) in want.iter().enumerate() {
                    let got = bits(&out.slice_rows(b * per, (b + 1) * per));
                    assert_eq!(&got, w, "seed {seed}: projected batch {b}");
                }
            }
        }
    }

    #[test]
    fn quantization_requires_calibration() {
        let mut net = Network::new(conv_spec(), 1);
        assert_eq!(
            QuantizedNetwork::quantize(&mut net, &[]).err(),
            Some(QuantError::NoCalibration)
        );
    }

    #[test]
    fn unsupported_layers_are_rejected_typed() {
        let mut net = Network::new(NetworkSpec::new(vec![LayerSpec::TakeLast]), 1);
        let calib = calib_windows(4, 3, 1);
        assert_eq!(
            QuantizedNetwork::quantize(&mut net, &calib).err(),
            Some(QuantError::Unsupported("TakeLast"))
        );
    }
}
