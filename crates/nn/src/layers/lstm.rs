//! Long short-term memory layer with full backpropagation through time.

use crate::init;
use crate::kernels::{self, GemmScratch};
use crate::layers::{LayerScratch, Mode, SeqLayer};
use crate::mat::Mat;
use crate::param::Param;
use rand::Rng;

/// LSTM layer over a `(T, in_dim)` sequence.
///
/// Gate layout in the fused weight matrices is `[input, forget, cell, output]`
/// (each `hidden` wide). The forget-gate bias is initialized to 1, the usual
/// trick to preserve memory early in training.
///
/// With `return_sequences = true` the layer emits the full `(T, hidden)`
/// hidden-state sequence (for stacking, as in the paper's 2-layer stacked
/// LSTM gesture classifier); otherwise only the final hidden state as
/// `(1, hidden)`.
#[derive(Debug)]
pub struct Lstm {
    w: Param, // (in_dim, 4H): input -> gates
    u: Param, // (hidden, 4H): hidden -> gates
    b: Param, // (1, 4H)
    hidden: usize,
    return_sequences: bool,
    cache: Option<Cache>,
    /// Training-side GEMM packing scratch (inference uses the caller's
    /// [`LayerScratch`]).
    gemm: GemmScratch,
    /// Per-step hidden→gate projection `h_{t-1}·U`, reused across steps.
    hu: Vec<f32>,
    /// Input→gate projection `x·W` of the whole sequence, reused across
    /// steps.
    xw: Mat,
    /// Running hidden state, reused across steps.
    h_state: Vec<f32>,
    /// Running cell state, reused across steps.
    c_state: Vec<f32>,
    /// Pre-activation gate gradients `(T, 4H)`, reused across steps.
    dz: Mat,
    /// Expanded per-step output gradient `(T, H)`, reused across steps.
    dh_seq: Mat,
    /// Weight-gradient staging buffer, reused across steps.
    dwbuf: Mat,
}

/// BPTT activations. The buffers live on after `backward` and are reused by
/// the next `forward` (every element is overwritten), so steady-state
/// training steps allocate nothing here.
#[derive(Debug, Default)]
struct Cache {
    x: Mat,      // (T, in_dim)
    h_prev: Mat, // (T, hidden): h_{t-1} rows (row 0 = zeros)
    c_prev: Mat, // (T, hidden)
    i: Mat,
    f: Mat,
    g: Mat,
    o: Mat,
    tanh_c: Mat, // (T, hidden)
}

impl Lstm {
    /// Creates an LSTM layer with Xavier-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if `hidden == 0`.
    pub fn new(in_dim: usize, hidden: usize, return_sequences: bool, rng: &mut impl Rng) -> Self {
        assert!(hidden > 0, "hidden size must be positive");
        let mut b = Mat::zeros(1, 4 * hidden);
        for c in hidden..2 * hidden {
            b[(0, c)] = 1.0; // forget-gate bias
        }
        Self {
            w: Param::new(init::xavier_uniform(rng, in_dim, 4 * hidden)),
            u: Param::new(init::xavier_uniform(rng, hidden, 4 * hidden)),
            b: Param::new(b),
            hidden,
            return_sequences,
            cache: None,
            gemm: GemmScratch::default(),
            hu: Vec::new(),
            xw: Mat::zeros(0, 0),
            h_state: Vec::new(),
            c_state: Vec::new(),
            dz: Mat::zeros(0, 0),
            dh_seq: Mat::zeros(0, 0),
            dwbuf: Mat::zeros(0, 0),
        }
    }

    /// Hidden-state width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Whether the full sequence is returned.
    pub fn return_sequences(&self) -> bool {
        self.return_sequences
    }

    fn sigmoid(x: f32) -> f32 {
        crate::layers::activation::sigmoid(x)
    }

    /// The row-independent half of inference: the input projection
    /// `xw = x·W` (`(rows, 4·hidden)`) of every row of `x`. Each output is
    /// one ascending-k chain over its own input row, so rows projected a few
    /// at a time equal the rows of one whole-sequence product, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `in_dim` wide.
    pub(crate) fn project_into(&self, x: &Mat, xw: &mut Mat, scratch: &mut LayerScratch) {
        assert_eq!(
            x.cols(),
            self.w.value.rows(),
            "Lstm: expected {} input features, got {}",
            self.w.value.rows(),
            x.cols()
        );
        kernels::matmul_into(x, &self.w.value, xw, &mut scratch.gemm);
    }

    /// The recurrent half of inference over `batch` equally long sequences
    /// of projected rows `xw` (from [`Lstm::project_into`]), stacked
    /// row-wise. `project_into` followed by `recur_into` is
    /// [`SeqLayer::infer_batch_into`], bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `xw` is not `4·hidden` wide or `batch` does not divide its
    /// rows into non-empty sequences.
    pub(crate) fn recur_into(
        &self,
        xw: &Mat,
        batch: usize,
        out: &mut Mat,
        scratch: &mut LayerScratch,
    ) {
        let h = self.hidden;
        assert!(batch > 0 && xw.rows().is_multiple_of(batch), "Lstm: batch does not divide rows");
        let t_len = xw.rows() / batch;
        assert!(t_len > 0, "Lstm: empty input sequence");
        assert_eq!(xw.cols(), 4 * h, "Lstm: projected width mismatch");
        let hu = &mut scratch.v1;
        let h_state = &mut scratch.v2;
        let c_state = &mut scratch.v3;
        hu.resize(4 * h, 0.0);
        h_state.resize(h, 0.0);
        c_state.resize(h, 0.0);
        if self.return_sequences {
            out.resize(batch * t_len, h);
        } else {
            out.resize(batch, h);
        }

        let u = &self.u.value;
        let b_row = self.b.value.row(0);
        for seq in 0..batch {
            h_state.fill(0.0);
            c_state.fill(0.0);
            for t in 0..t_len {
                // hu = h_{t-1} * U through the same skip-zero kernel as
                // `forward`, so results match it bit-for-bit.
                kernels::gemm_ab(1, h, 4 * h, h_state, u.as_slice(), hu, &mut scratch.gemm);

                let xw_row = xw.row(seq * t_len + t);
                for k in 0..h {
                    let zi = xw_row[k] + hu[k] + b_row[k];
                    let zf = xw_row[h + k] + hu[h + k] + b_row[h + k];
                    let zg = xw_row[2 * h + k] + hu[2 * h + k] + b_row[2 * h + k];
                    let zo = xw_row[3 * h + k] + hu[3 * h + k] + b_row[3 * h + k];
                    let i = Self::sigmoid(zi);
                    let f = Self::sigmoid(zf);
                    let g = zg.tanh();
                    let o = Self::sigmoid(zo);
                    let c_new = f * c_state[k] + i * g;
                    c_state[k] = c_new;
                    h_state[k] = o * c_new.tanh();
                }
                if self.return_sequences {
                    out.row_mut(seq * t_len + t).copy_from_slice(h_state);
                }
            }
            if !self.return_sequences {
                out.row_mut(seq).copy_from_slice(h_state);
            }
        }
    }
}

impl SeqLayer for Lstm {
    fn forward(&mut self, x: &Mat, _mode: Mode) -> Mat {
        let t_len = x.rows();
        let h = self.hidden;
        assert!(t_len > 0, "Lstm: empty input sequence");
        assert_eq!(
            x.cols(),
            self.w.value.rows(),
            "Lstm: expected {} input features, got {}",
            self.w.value.rows(),
            x.cols()
        );

        // Pre-compute the input contribution for every step at once, into
        // the reused projection buffer.
        kernels::matmul_into(x, &self.w.value, &mut self.xw, &mut self.gemm); // (T, 4H)

        // Reuse the previous step's cache buffers: every element of every
        // buffer is overwritten below, so resizing without zeroing is safe.
        let mut cache = self.cache.take().unwrap_or_default();
        cache.x.copy_from(x);
        cache.h_prev.resize(t_len, h);
        cache.c_prev.resize(t_len, h);
        cache.i.resize(t_len, h);
        cache.f.resize(t_len, h);
        cache.g.resize(t_len, h);
        cache.o.resize(t_len, h);
        cache.tanh_c.resize(t_len, h);
        let mut hs = Mat::zeros(t_len, h);

        self.h_state.resize(h, 0.0);
        self.c_state.resize(h, 0.0);
        self.h_state.fill(0.0);
        self.c_state.fill(0.0);
        self.hu.resize(4 * h, 0.0);

        for t in 0..t_len {
            cache.h_prev.row_mut(t).copy_from_slice(&self.h_state);
            cache.c_prev.row_mut(t).copy_from_slice(&self.c_state);

            // z = xw[t] + h_{t-1} U + b. The projection goes through the
            // same skip-zero kernel as every other matmul, so it is
            // bit-identical to the historical `Mat::row_vector(h).matmul(U)`.
            kernels::gemm_ab(
                1,
                h,
                4 * h,
                &self.h_state,
                self.u.value.as_slice(),
                &mut self.hu,
                &mut self.gemm,
            );
            let hu = &self.hu;
            let xw_row = self.xw.row(t);
            let b_row = self.b.value.row(0);
            for k in 0..h {
                let zi = xw_row[k] + hu[k] + b_row[k];
                let zf = xw_row[h + k] + hu[h + k] + b_row[h + k];
                let zg = xw_row[2 * h + k] + hu[2 * h + k] + b_row[2 * h + k];
                let zo = xw_row[3 * h + k] + hu[3 * h + k] + b_row[3 * h + k];
                let i = Self::sigmoid(zi);
                let f = Self::sigmoid(zf);
                let g = zg.tanh();
                let o = Self::sigmoid(zo);
                let c_new = f * self.c_state[k] + i * g;
                let tc = c_new.tanh();
                cache.i[(t, k)] = i;
                cache.f[(t, k)] = f;
                cache.g[(t, k)] = g;
                cache.o[(t, k)] = o;
                cache.tanh_c[(t, k)] = tc;
                self.c_state[k] = c_new;
                self.h_state[k] = o * tc;
            }
            hs.row_mut(t).copy_from_slice(&self.h_state);
        }

        self.cache = Some(cache);

        if self.return_sequences {
            hs
        } else {
            hs.slice_rows(t_len - 1, t_len)
        }
    }

    fn infer_into(&self, x: &Mat, out: &mut Mat, scratch: &mut LayerScratch) {
        self.infer_batch_into(x, 1, out, scratch);
    }

    fn infer_batch_into(&self, x: &Mat, batch: usize, out: &mut Mat, scratch: &mut LayerScratch) {
        // The input projection of *every* sequence in one fused matmul
        // (the dominant cost); each row's dot product is independent of the
        // other rows, so per-sequence results stay bit-identical to the
        // unbatched path. Only the cheap recurrence runs per sequence.
        let mut xw = std::mem::take(&mut scratch.m);
        self.project_into(x, &mut xw, scratch); // (batch*T, 4H)
        self.recur_into(&xw, batch, out, scratch);
        scratch.m = xw;
    }

    fn as_lstm(&self) -> Option<&Lstm> {
        Some(self)
    }

    fn backward(&mut self, grad_out: &Mat) -> Mat {
        let cache = self.cache.as_ref().expect("Lstm::backward called before forward");
        let t_len = cache.x.rows();
        let h = self.hidden;

        // Expand grad_out to a per-step (T, H) gradient (reused buffer).
        let dh_seq = &mut self.dh_seq;
        dh_seq.resize(t_len, h);
        if self.return_sequences {
            assert_eq!(grad_out.shape(), (t_len, h), "Lstm: bad grad_out shape");
            dh_seq.copy_from(grad_out);
        } else {
            assert_eq!(grad_out.shape(), (1, h), "Lstm: bad grad_out shape");
            dh_seq.fill(0.0);
            dh_seq.row_mut(t_len - 1).copy_from_slice(grad_out.row(0));
        }

        // Pre-activation gate grads (reused buffer; every element is
        // assigned below before it is read).
        self.dz.resize(t_len, 4 * h);
        let mut dh_next = vec![0.0f32; h];
        let mut dc_next = vec![0.0f32; h];

        for t in (0..t_len).rev() {
            for k in 0..h {
                let dh = self.dh_seq[(t, k)] + dh_next[k];
                let o = cache.o[(t, k)];
                let tc = cache.tanh_c[(t, k)];
                let dct = dh * o * (1.0 - tc * tc) + dc_next[k];
                let i = cache.i[(t, k)];
                let f = cache.f[(t, k)];
                let g = cache.g[(t, k)];
                let do_ = dh * tc;
                let di = dct * g;
                let df = dct * cache.c_prev[(t, k)];
                let dg = dct * i;
                self.dz[(t, k)] = di * i * (1.0 - i);
                self.dz[(t, h + k)] = df * f * (1.0 - f);
                self.dz[(t, 2 * h + k)] = dg * (1.0 - g * g);
                self.dz[(t, 3 * h + k)] = do_ * o * (1.0 - o);
                dc_next[k] = dct * f;
            }
            // dh_next = dz[t] * U^T, straight through the ABᵀ kernel into
            // the reused state vector (dz[t] is complete at this point).
            kernels::gemm_abt(
                1,
                4 * h,
                h,
                self.dz.row(t),
                self.u.value.as_slice(),
                &mut dh_next,
                &mut self.gemm,
            );
        }

        // Parameter gradients from the assembled dz.
        kernels::transpose_matmul_into(&cache.x, &self.dz, &mut self.dwbuf, &mut self.gemm);
        self.w.grad.add_scaled_inplace(&self.dwbuf, 1.0);
        kernels::transpose_matmul_into(&cache.h_prev, &self.dz, &mut self.dwbuf, &mut self.gemm);
        self.u.grad.add_scaled_inplace(&self.dwbuf, 1.0);
        self.b.grad.add_scaled_inplace(&self.dz.sum_rows(), 1.0);

        // Input gradient.
        let mut dx = Mat::zeros(0, 0);
        kernels::matmul_transpose_into(&self.dz, &self.w.value, &mut dx, &mut self.gemm);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.u);
        f(&mut self.b);
    }

    fn name(&self) -> &'static str {
        "Lstm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut seq = Lstm::new(3, 5, true, &mut rng);
        let mut last = Lstm::new(3, 5, false, &mut rng);
        let x = init::uniform(&mut rng, 7, 3, 1.0);
        assert_eq!(seq.forward(&x, Mode::Eval).shape(), (7, 5));
        assert_eq!(last.forward(&x, Mode::Eval).shape(), (1, 5));
    }

    #[test]
    fn last_state_matches_sequence_tail() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut seq = Lstm::new(3, 4, true, &mut rng);
        let x = init::uniform(&mut rng, 6, 3, 1.0);
        let full = seq.forward(&x, Mode::Eval);
        seq.return_sequences = false;
        let last = seq.forward(&x, Mode::Eval);
        assert_eq!(last.row(0), full.row(5));
    }

    #[test]
    fn hidden_states_are_bounded() {
        // h = o * tanh(c) with o in (0,1) and |tanh| < 1.
        let mut rng = SmallRng::seed_from_u64(3);
        let mut l = Lstm::new(2, 6, true, &mut rng);
        let x = init::uniform(&mut rng, 20, 2, 5.0);
        let y = l.forward(&x, Mode::Eval);
        assert!(y.as_slice().iter().all(|&v| v.abs() < 1.0));
    }

    #[test]
    fn gradients_match_numerical_return_sequences() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut l = Lstm::new(2, 3, true, &mut rng);
        let x = init::uniform(&mut rng, 4, 2, 0.8);
        check_layer_gradients(&mut l, &x, 3e-2);
    }

    #[test]
    fn gradients_match_numerical_last_only() {
        let mut rng = SmallRng::seed_from_u64(12);
        let mut l = Lstm::new(2, 3, false, &mut rng);
        let x = init::uniform(&mut rng, 4, 2, 0.8);
        check_layer_gradients(&mut l, &x, 3e-2);
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let mut rng = SmallRng::seed_from_u64(1);
        let l = Lstm::new(2, 3, true, &mut rng);
        for k in 3..6 {
            assert_eq!(l.b.value[(0, k)], 1.0);
        }
        assert_eq!(l.b.value[(0, 0)], 0.0);
    }

    use crate::init;
}
