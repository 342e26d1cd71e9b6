//! Shape-manipulation layers: take-last and flatten.

use crate::layers::{LayerScratch, SeqLayer};
use crate::mat::Mat;
use crate::param::Param;

/// Keeps only the last time step: `(T, F)` → `(1, F)`. This is how an LSTM
/// stack with `return_sequences = true` is reduced before the dense head.
#[derive(Debug, Default)]
pub struct TakeLast {
    in_rows: usize,
}

impl TakeLast {
    /// Creates a take-last layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SeqLayer for TakeLast {
    fn forward(&mut self, x: &Mat) -> Mat {
        assert!(x.rows() > 0, "TakeLast: empty input");
        self.in_rows = x.rows();
        x.slice_rows(x.rows() - 1, x.rows())
    }

    fn infer_batch_into(&self, x: &Mat, batch: usize, out: &mut Mat, _scratch: &mut LayerScratch) {
        assert!(
            batch > 0 && x.rows().is_multiple_of(batch),
            "TakeLast: batch does not divide rows"
        );
        let t = x.rows() / batch;
        assert!(t > 0, "TakeLast: empty input");
        out.resize(batch, x.cols());
        for seq in 0..batch {
            out.row_mut(seq).copy_from_slice(x.row((seq + 1) * t - 1));
        }
    }

    fn backward(&mut self, grad_out: &Mat) -> Mat {
        let mut dx = Mat::zeros(self.in_rows, grad_out.cols());
        dx.row_mut(self.in_rows - 1).copy_from_slice(grad_out.row(0));
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "TakeLast"
    }
}

/// Flattens `(T, F)` into a single `(1, T*F)` row (row-major), as used before
/// dense heads in the 1D-CNN error classifiers.
#[derive(Debug, Default)]
pub struct Flatten {
    in_shape: (usize, usize),
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SeqLayer for Flatten {
    fn forward(&mut self, x: &Mat) -> Mat {
        self.in_shape = x.shape();
        Mat::from_vec(1, x.len(), x.as_slice().to_vec())
    }

    fn infer_batch_into(&self, x: &Mat, batch: usize, out: &mut Mat, _scratch: &mut LayerScratch) {
        assert!(batch > 0 && x.rows().is_multiple_of(batch), "Flatten: batch does not divide rows");
        // Row-major storage: flattening each sequence block is a straight
        // reinterpretation of the stacked buffer.
        out.resize(batch, x.len() / batch.max(1));
        out.as_mut_slice().copy_from_slice(x.as_slice());
    }

    fn backward(&mut self, grad_out: &Mat) -> Mat {
        let (t, f) = self.in_shape;
        Mat::from_vec(t, f, grad_out.as_slice().to_vec())
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "Flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    #[test]
    fn take_last_keeps_final_row() {
        let mut l = TakeLast::new();
        let x = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(l.forward(&x), Mat::from_rows(&[&[3.0, 4.0]]));
    }

    #[test]
    fn take_last_gradients() {
        let mut l = TakeLast::new();
        let x = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        check_layer_gradients(&mut l, &x, 1e-2);
    }

    #[test]
    fn flatten_roundtrips_shape() {
        let mut l = Flatten::new();
        let x = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let y = l.forward(&x);
        assert_eq!(y.shape(), (1, 4));
        let dx = l.backward(&y);
        assert_eq!(dx, x);
    }

    #[test]
    fn flatten_gradients() {
        let mut l = Flatten::new();
        let x = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        check_layer_gradients(&mut l, &x, 1e-2);
    }
}
