//! Pooling layers over the time axis.

use crate::layers::{LayerScratch, SeqLayer};
use crate::mat::Mat;
use crate::param::Param;

/// Max pooling with kernel size = stride (non-overlapping windows). A
/// trailing partial window is pooled over its available steps.
#[derive(Debug)]
pub struct MaxPool1d {
    kernel: usize,
    argmax: Option<Vec<usize>>, // flat (out_row, col) -> source row
    in_shape: (usize, usize),
}

impl MaxPool1d {
    /// Creates a max-pool layer.
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0`.
    pub fn new(kernel: usize) -> Self {
        assert!(kernel > 0, "pool kernel must be positive");
        Self { kernel, argmax: None, in_shape: (0, 0) }
    }

    /// Kernel (= stride) size.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Output length for `t` input steps.
    pub fn output_len(&self, t: usize) -> usize {
        t.div_ceil(self.kernel)
    }
}

impl SeqLayer for MaxPool1d {
    fn forward(&mut self, x: &Mat) -> Mat {
        let t = x.rows();
        let c = x.cols();
        let t_out = self.output_len(t);
        let mut y = Mat::zeros(t_out, c);
        let mut argmax = vec![0usize; t_out * c];
        for o in 0..t_out {
            let start = o * self.kernel;
            let end = (start + self.kernel).min(t);
            for col in 0..c {
                let mut best_row = start;
                let mut best = x[(start, col)];
                for r in start + 1..end {
                    if x[(r, col)] > best {
                        best = x[(r, col)];
                        best_row = r;
                    }
                }
                y[(o, col)] = best;
                argmax[o * c + col] = best_row;
            }
        }
        self.argmax = Some(argmax);
        self.in_shape = (t, c);
        y
    }

    fn infer_batch_into(&self, x: &Mat, batch: usize, out: &mut Mat, _scratch: &mut LayerScratch) {
        assert!(
            batch > 0 && x.rows().is_multiple_of(batch),
            "MaxPool1d: batch does not divide rows"
        );
        let t = x.rows() / batch;
        let c = x.cols();
        let t_out = self.output_len(t);
        out.resize(batch * t_out, c);
        for seq in 0..batch {
            for o in 0..t_out {
                let start = o * self.kernel;
                let end = (start + self.kernel).min(t);
                for col in 0..c {
                    let mut best = x[(seq * t + start, col)];
                    for r in start + 1..end {
                        if x[(seq * t + r, col)] > best {
                            best = x[(seq * t + r, col)];
                        }
                    }
                    out[(seq * t_out + o, col)] = best;
                }
            }
        }
    }

    fn backward(&mut self, grad_out: &Mat) -> Mat {
        let argmax = self.argmax.as_ref().expect("MaxPool1d::backward called before forward");
        let (t, c) = self.in_shape;
        let mut dx = Mat::zeros(t, c);
        for o in 0..grad_out.rows() {
            for col in 0..c {
                let src = argmax[o * c + col];
                dx[(src, col)] += grad_out[(o, col)];
            }
        }
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "MaxPool1d"
    }
}

/// Collapses `(T, F)` to `(1, F)` by per-feature maxima.
#[derive(Debug, Default)]
pub struct GlobalMaxPool {
    argmax: Option<Vec<usize>>,
    in_shape: (usize, usize),
}

impl GlobalMaxPool {
    /// Creates a global max-pool layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SeqLayer for GlobalMaxPool {
    fn forward(&mut self, x: &Mat) -> Mat {
        assert!(x.rows() > 0, "GlobalMaxPool: empty input");
        let c = x.cols();
        let mut y = Mat::zeros(1, c);
        let mut argmax = vec![0usize; c];
        for col in 0..c {
            let mut best = x[(0, col)];
            for r in 1..x.rows() {
                if x[(r, col)] > best {
                    best = x[(r, col)];
                    argmax[col] = r;
                }
            }
            y[(0, col)] = best;
        }
        self.argmax = Some(argmax);
        self.in_shape = x.shape();
        y
    }

    fn infer_batch_into(&self, x: &Mat, batch: usize, out: &mut Mat, _scratch: &mut LayerScratch) {
        assert!(
            batch > 0 && x.rows().is_multiple_of(batch),
            "GlobalMaxPool: batch does not divide rows"
        );
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

    fn backward(&mut self, grad_out: &Mat) -> Mat {
        let argmax = self.argmax.as_ref().expect("GlobalMaxPool::backward called before forward");
        let (t, c) = self.in_shape;
        let mut dx = Mat::zeros(t, c);
        for col in 0..c {
            dx[(argmax[col], col)] = grad_out[(0, col)];
        }
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "GlobalMaxPool"
    }
}

/// Collapses `(T, F)` to `(1, F)` by per-feature means.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    in_rows: usize,
}

impl GlobalAvgPool {
    /// Creates a global average-pool layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SeqLayer for GlobalAvgPool {
    fn forward(&mut self, x: &Mat) -> Mat {
        assert!(x.rows() > 0, "GlobalAvgPool: empty input");
        self.in_rows = x.rows();
        x.mean_rows()
    }

    fn infer_batch_into(&self, x: &Mat, batch: usize, out: &mut Mat, _scratch: &mut LayerScratch) {
        assert!(
            batch > 0 && x.rows().is_multiple_of(batch),
            "GlobalAvgPool: batch does not divide rows"
        );
        let t = x.rows() / batch;
        assert!(t > 0, "GlobalAvgPool: empty input");
        let c = x.cols();
        out.resize(batch, c);
        out.fill(0.0);
        // Same accumulate-then-scale order as `mean_rows` for bit-exactness.
        let scale = 1.0 / t as f32;
        for seq in 0..batch {
            for r in 0..t {
                let src = x.row(seq * t + r);
                for (o, &v) in out.row_mut(seq).iter_mut().zip(src.iter()) {
                    *o += v;
                }
            }
            for o in out.row_mut(seq) {
                *o *= scale;
            }
        }
    }

    fn backward(&mut self, grad_out: &Mat) -> Mat {
        let t = self.in_rows;
        let mut dx = Mat::zeros(t, grad_out.cols());
        let scale = 1.0 / t as f32;
        for r in 0..t {
            for c in 0..grad_out.cols() {
                dx[(r, c)] = grad_out[(0, c)] * scale;
            }
        }
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "GlobalAvgPool"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    #[test]
    fn maxpool_shrinks_and_handles_partial_window() {
        let mut l = MaxPool1d::new(2);
        let x = Mat::from_rows(&[&[1.0], &[5.0], &[3.0], &[2.0], &[9.0]]);
        let y = l.forward(&x);
        assert_eq!(y, Mat::from_rows(&[&[5.0], &[3.0], &[9.0]]));
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut l = MaxPool1d::new(2);
        let x = Mat::from_rows(&[&[1.0], &[5.0], &[3.0], &[2.0]]);
        let _ = l.forward(&x);
        let dx = l.backward(&Mat::from_rows(&[&[1.0], &[1.0]]));
        assert_eq!(dx, Mat::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]));
    }

    #[test]
    fn global_max_pool_gradients() {
        let mut l = GlobalMaxPool::new();
        let x = Mat::from_rows(&[&[0.1, 0.9], &[0.7, 0.2], &[0.3, 0.4]]);
        check_layer_gradients(&mut l, &x, 1e-2);
    }

    #[test]
    fn global_avg_pool_gradients() {
        let mut l = GlobalAvgPool::new();
        let x = Mat::from_rows(&[&[0.1, 0.9], &[0.7, 0.2], &[0.3, 0.4]]);
        check_layer_gradients(&mut l, &x, 1e-2);
    }

    #[test]
    fn global_avg_pool_is_mean() {
        let mut l = GlobalAvgPool::new();
        let x = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(l.forward(&x), Mat::from_rows(&[&[2.0, 3.0]]));
    }
}
