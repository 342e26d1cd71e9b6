//! 1-D convolution over the time axis.

use crate::init;
use crate::kernels::{self, GemmScratch};
use crate::layers::{LayerScratch, Padding, SeqLayer};
use crate::mat::Mat;
use crate::param::Param;
use rand::Rng;

/// 1-D convolution: input `(T, Cin)`, output `(T', Cout)` with stride 1.
///
/// With [`Padding::Valid`], `T' = T - k + 1`; with [`Padding::Same`], `T' = T`
/// (zero padding split evenly, extra zero at the end for even kernels).
///
/// The weight is stored as a `(k * Cin, Cout)` matrix so the forward pass is
/// an im2col patch-matrix product.
#[derive(Debug)]
pub struct Conv1d {
    weight: Param, // (k*Cin, Cout)
    bias: Param,   // (1, Cout)
    in_channels: usize,
    kernel: usize,
    padding: Padding,
    cached_patches: Option<Mat>, // (T', k*Cin); buffer reused across steps
    cached_input_rows: usize,
    /// Training-side GEMM packing scratch (inference uses the caller's
    /// [`LayerScratch`]).
    gemm: GemmScratch,
    /// Weight-gradient staging buffer, reused across steps.
    dw: Mat,
    /// Patch-gradient staging buffer (`dY · Wᵀ`), reused across steps.
    dpatches: Mat,
}

impl Conv1d {
    /// Creates a Conv1d layer with He-uniform weights.
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0`.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        padding: Padding,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(kernel > 0, "kernel size must be positive");
        let fan_in = kernel * in_channels;
        Self {
            weight: Param::new(init::he_uniform(rng, fan_in, fan_in, out_channels)),
            bias: Param::new(Mat::zeros(1, out_channels)),
            in_channels,
            kernel,
            padding,
            cached_patches: None,
            cached_input_rows: 0,
            gemm: GemmScratch::default(),
            dw: Mat::zeros(0, 0),
            dpatches: Mat::zeros(0, 0),
        }
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.weight.value.cols()
    }

    /// Kernel width.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    fn pad_amounts(&self, _t: usize) -> (usize, usize) {
        match self.padding {
            Padding::Valid => (0, 0),
            Padding::Same => {
                let total = self.kernel.saturating_sub(1);
                // For odd kernels this is symmetric; for even kernels the
                // extra zero goes at the end.
                (total / 2, total - total / 2)
            }
        }
    }

    /// Output length for an input of `t` time steps.
    ///
    /// # Panics
    ///
    /// Panics if the (padded) input is shorter than the kernel.
    pub fn output_len(&self, t: usize) -> usize {
        let (lo, hi) = self.pad_amounts(t);
        let padded = t + lo + hi;
        assert!(
            padded >= self.kernel,
            "Conv1d: input of {t} steps too short for kernel {}",
            self.kernel
        );
        padded - self.kernel + 1
    }

    /// Fills `out` with the im2col patch matrix `(T', k*Cin)` (shared by the
    /// training and the allocation-free inference paths). `out` must already
    /// have the patch shape.
    fn patches_into(x: &Mat, lo: usize, k: usize, cin: usize, out: &mut Mat) {
        let t = x.rows();
        let t_out = out.rows();
        out.fill(0.0);
        Self::patch_block(x, 0, t, lo, k, cin, out, 0, t_out);
    }

    /// Writes the patch rows of one sequence — `t` input rows of `x`
    /// starting at `x_row0` — into `t_out` rows of `out` starting at
    /// `out_row0`. `out` must be pre-zeroed; padding rows stay zero.
    #[allow(clippy::too_many_arguments)] // im2col geometry is inherently wide
    fn patch_block(
        x: &Mat,
        x_row0: usize,
        t: usize,
        lo: usize,
        k: usize,
        cin: usize,
        out: &mut Mat,
        out_row0: usize,
        t_out: usize,
    ) {
        for o in 0..t_out {
            let row = out.row_mut(out_row0 + o);
            for j in 0..k {
                // Index into the *unpadded* input; out-of-range rows are zero.
                let src = (o + j) as isize - lo as isize;
                if src >= 0 && (src as usize) < t {
                    row[j * cin..(j + 1) * cin].copy_from_slice(x.row(x_row0 + src as usize));
                }
            }
        }
    }
}

impl SeqLayer for Conv1d {
    fn forward(&mut self, x: &Mat) -> Mat {
        assert_eq!(
            x.cols(),
            self.in_channels,
            "Conv1d: expected {} channels, got {}",
            self.in_channels,
            x.cols()
        );
        // Reuse the cached patch buffer across training steps — im2col was
        // the one per-step allocation the inference refactor never covered.
        let mut patches = self.cached_patches.take().unwrap_or_default();
        patches.resize(self.output_len(x.rows()), self.kernel * self.in_channels);
        Self::patches_into(
            x,
            self.pad_amounts(x.rows()).0,
            self.kernel,
            self.in_channels,
            &mut patches,
        );
        let mut y = Mat::zeros(0, 0);
        kernels::matmul_into(&patches, &self.weight.value, &mut y, &mut self.gemm);
        y.add_row_inplace(self.bias.value.row(0));
        self.cached_input_rows = x.rows();
        self.cached_patches = Some(patches);
        y
    }

    fn infer_batch_into(&self, x: &Mat, batch: usize, out: &mut Mat, scratch: &mut LayerScratch) {
        assert_eq!(
            x.cols(),
            self.in_channels,
            "Conv1d: expected {} channels, got {}",
            self.in_channels,
            x.cols()
        );
        assert!(batch > 0 && x.rows().is_multiple_of(batch), "Conv1d: batch does not divide rows");
        let t = x.rows() / batch;
        let (lo, _hi) = self.pad_amounts(t);
        let t_out = self.output_len(t);
        // One stacked patch matrix for every sequence, then a single fused
        // matmul — each output row is the same dot product as in the
        // unbatched path, so results are bit-identical per sequence.
        let patches = &mut scratch.m;
        patches.resize(batch * t_out, self.kernel * self.in_channels);
        patches.fill(0.0);
        for b in 0..batch {
            Self::patch_block(
                x,
                b * t,
                t,
                lo,
                self.kernel,
                self.in_channels,
                patches,
                b * t_out,
                t_out,
            );
        }
        kernels::matmul_into(patches, &self.weight.value, out, &mut scratch.gemm);
        out.add_row_inplace(self.bias.value.row(0));
    }

    fn backward(&mut self, grad_out: &Mat) -> Mat {
        let patches = self.cached_patches.as_ref().expect("Conv1d::backward called before forward");
        // dW = patches^T * dY; db = column sums of dY.
        kernels::transpose_matmul_into(patches, grad_out, &mut self.dw, &mut self.gemm);
        self.weight.grad.add_scaled_inplace(&self.dw, 1.0);
        self.bias.grad.add_scaled_inplace(&grad_out.sum_rows(), 1.0);

        // dPatches = dY * W^T, then scatter back to input rows.
        kernels::matmul_transpose_into(
            grad_out,
            &self.weight.value,
            &mut self.dpatches,
            &mut self.gemm,
        );
        let dpatches = &self.dpatches;
        let t = self.cached_input_rows;
        let (lo, _hi) = self.pad_amounts(t);
        let k = self.kernel;
        let cin = self.in_channels;
        let mut dx = Mat::zeros(t, cin);
        for o in 0..dpatches.rows() {
            let prow = dpatches.row(o);
            for j in 0..k {
                let src = (o + j) as isize - lo as isize;
                if src >= 0 && (src as usize) < t {
                    let dst = dx.row_mut(src as usize);
                    for (d, &g) in dst.iter_mut().zip(prow[j * cin..(j + 1) * cin].iter()) {
                        *d += g;
                    }
                }
            }
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn name(&self) -> &'static str {
        "Conv1d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn valid_padding_output_length() {
        let mut rng = SmallRng::seed_from_u64(1);
        let l = Conv1d::new(2, 3, 3, Padding::Valid, &mut rng);
        assert_eq!(l.output_len(10), 8);
    }

    #[test]
    fn same_padding_preserves_length() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut l = Conv1d::new(2, 3, 3, Padding::Same, &mut rng);
        let x = Mat::full(7, 2, 1.0);
        assert_eq!(l.forward(&x).shape(), (7, 3));
    }

    #[test]
    fn forward_matches_manual_convolution() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut l = Conv1d::new(1, 1, 2, Padding::Valid, &mut rng);
        // kernel [w0, w1] applied to single-channel series.
        l.weight.value = Mat::from_rows(&[&[2.0], &[3.0]]);
        l.bias.value = Mat::from_rows(&[&[1.0]]);
        let x = Mat::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let y = l.forward(&x);
        // y[0] = 2*1 + 3*2 + 1 = 9 ; y[1] = 2*2 + 3*3 + 1 = 14
        assert_eq!(y, Mat::from_rows(&[&[9.0], &[14.0]]));
    }

    #[test]
    fn gradients_match_numerical_valid() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut l = Conv1d::new(2, 3, 3, Padding::Valid, &mut rng);
        let x = init::uniform(&mut rng, 6, 2, 1.0);
        check_layer_gradients(&mut l, &x, 2e-2);
    }

    #[test]
    fn gradients_match_numerical_same() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut l = Conv1d::new(2, 2, 4, Padding::Same, &mut rng);
        let x = init::uniform(&mut rng, 5, 2, 1.0);
        check_layer_gradients(&mut l, &x, 2e-2);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn rejects_input_shorter_than_kernel() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut l = Conv1d::new(1, 1, 5, Padding::Valid, &mut rng);
        let _ = l.forward(&Mat::full(3, 1, 0.0));
    }
}
