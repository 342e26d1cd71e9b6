//! A minimal dense, row-major `f32` matrix used throughout the network stack.
//!
//! Sequence data flows through layers as a [`Mat`] of shape `(time, features)`;
//! plain vectors are represented as `(1, features)` matrices. The type is
//! deliberately small; every matrix product is a thin wrapper over the
//! blocked, cache-tiled kernels in [`crate::kernels`] — runtime-dispatched
//! to SIMD microkernels (AVX2/NEON) when the host supports them, and
//! bit-identical to the historical naive loops on every backend (see the
//! accumulation-order contract there).
//! The wrappers use a thread-local [`GemmScratch`] for panel packing, so
//! they stay allocation-free in steady state without threading scratch
//! through every call site; hot paths that want explicit scratch ownership
//! call `kernels::{matmul_into, matmul_transpose_into, transpose_matmul_into}`
//! directly.

use crate::kernels::{self, GemmScratch};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

thread_local! {
    /// Packing scratch behind the `Mat` convenience wrappers; grows to a
    /// high-water mark per thread.
    static MAT_GEMM_SCRATCH: RefCell<GemmScratch> = RefCell::new(GemmScratch::default());
}

/// Runs `f` with the thread-local GEMM packing scratch.
fn with_gemm_scratch<R>(f: impl FnOnce(&mut GemmScratch) -> R) -> R {
    MAT_GEMM_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Dense row-major matrix of `f32`.
///
/// # Examples
///
/// ```
/// use nn::mat::Mat;
/// let m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m.shape(), (2, 2));
/// assert_eq!(m[(1, 0)], 3.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Mat {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Mat::from_vec: data length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "Mat::from_rows: inconsistent row lengths");
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Creates a `(1, n)` row-vector matrix.
    pub fn row_vector(v: &[f32]) -> Self {
        Self { rows: 1, cols: v.len(), data: v.to_vec() }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    // lint: hot-path
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the backing row-major storage.
    // lint: hot-path
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the backing row-major storage.
    // lint: hot-path
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the backing row-major storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    // lint: hot-path
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    // lint: hot-path
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index {r} out of bounds for {} rows", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterate over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Reshapes to `rows x cols`, reusing the existing allocation when the
    /// capacity suffices. The contents afterwards are unspecified — callers
    /// must overwrite every element (the allocation-free inference path
    /// relies on this never reallocating in steady state).
    // lint: hot-path
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Sets every element to `value` without changing the shape.
    // lint: hot-path
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Makes `self` an element-for-element copy of `src`, reusing the
    /// existing allocation when possible.
    // lint: hot-path
    pub fn copy_from(&mut self, src: &Mat) {
        self.resize(src.rows, src.cols);
        self.data.copy_from_slice(&src.data);
    }

    /// Copies every row of `src` into `self` starting at row `at` — the
    /// stacking primitive behind the batched inference path: callers build a
    /// `(batch * T, F)` matrix out of per-session `(T, F)` windows without
    /// allocating (given capacity).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ or `src` does not fit at `at`.
    // lint: hot-path
    pub fn copy_rows_from(&mut self, src: &Mat, at: usize) {
        assert_eq!(self.cols, src.cols, "copy_rows_from: width mismatch");
        assert!(
            at + src.rows <= self.rows,
            "copy_rows_from: {} rows at {at} exceed {} rows",
            src.rows,
            self.rows
        );
        self.data[at * self.cols..(at + src.rows) * self.cols].copy_from_slice(&src.data);
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Mat) -> Mat {
        // The kernel resizes and fully overwrites `out`; starting empty
        // avoids a redundant zero-fill.
        let mut out = Mat::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix product `self * other` written into `out` (resized as needed,
    /// no allocation when `out` has capacity). Bit-identical to
    /// [`Mat::matmul`]: the accumulation order is the same (see
    /// [`crate::kernels`] for the contract).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul_into(&self, other: &Mat, out: &mut Mat) {
        with_gemm_scratch(|s| kernels::matmul_into(self, other, out, s));
    }

    /// Matrix product `self * other^T`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_transpose(&self, other: &Mat) -> Mat {
        let mut out = Mat::default();
        self.matmul_transpose_into(other, &mut out);
        out
    }

    /// Matrix product `self * other^T` written into `out` (resized as
    /// needed, no allocation when `out` has capacity). Bit-identical to
    /// [`Mat::matmul_transpose`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_transpose_into(&self, other: &Mat, out: &mut Mat) {
        with_gemm_scratch(|s| kernels::matmul_transpose_into(self, other, out, s));
    }

    /// Matrix product `self^T * other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows`.
    pub fn transpose_matmul(&self, other: &Mat) -> Mat {
        let mut out = Mat::default();
        self.transpose_matmul_into(other, &mut out);
        out
    }

    /// Matrix product `self^T * other` written into `out` (resized as
    /// needed, no allocation when `out` has capacity). Bit-identical to
    /// [`Mat::transpose_matmul`].
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows`.
    pub fn transpose_matmul_into(&self, other: &Mat, out: &mut Mat) {
        with_gemm_scratch(|s| kernels::transpose_matmul_into(self, other, out, s));
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Element-wise addition. Panics if shapes differ.
    pub fn add(&self, other: &Mat) -> Mat {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise subtraction. Panics if shapes differ.
    pub fn sub(&self, other: &Mat) -> Mat {
        self.zip_with(other, |a, b| a - b)
    }

    /// Element-wise multiplication (Hadamard product). Panics if shapes differ.
    pub fn hadamard(&self, other: &Mat) -> Mat {
        self.zip_with(other, |a, b| a * b)
    }

    /// Element-wise combination of two equally shaped matrices.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_with(&self, other: &Mat, f: impl Fn(f32, f32) -> f32) -> Mat {
        assert_eq!(self.shape(), other.shape(), "zip_with: shape mismatch");
        // lint: allow(alloc, reason = "allocating constructor-style API; the hot edge is a pointer .add() name collision, kernels never call it")
        let data = self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect();
        Mat { rows: self.rows, cols: self.cols, data }
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Mat {
        // lint: allow(alloc, reason = "allocating constructor-style API; the hot edge is an Option .map() name collision, hot code never calls it")
        Mat { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f32) -> Mat {
        self.map(|x| x * s)
    }

    /// In-place `self += other * scale`. Panics if shapes differ.
    pub fn add_scaled_inplace(&mut self, other: &Mat, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled_inplace: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b * scale;
        }
    }

    /// Adds `row` (a `(1, cols)` bias) to every row of `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols`.
    pub fn add_row_inplace(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "add_row_inplace: width mismatch");
        for r in self.data.chunks_exact_mut(self.cols) {
            for (a, &b) in r.iter_mut().zip(row.iter()) {
                *a += b;
            }
        }
    }

    /// Sum over rows, returning a `(1, cols)` matrix.
    pub fn sum_rows(&self) -> Mat {
        let mut out = Mat::zeros(1, self.cols);
        for r in self.iter_rows() {
            for (o, &x) in out.data.iter_mut().zip(r.iter()) {
                *o += x;
            }
        }
        out
    }

    /// Mean over rows, returning a `(1, cols)` matrix. Returns zeros for an
    /// empty matrix.
    pub fn mean_rows(&self) -> Mat {
        if self.rows == 0 {
            return Mat::zeros(1, self.cols);
        }
        self.sum_rows().scale(1.0 / self.rows as f32)
    }

    /// Sum of all elements.
    // lint: hot-path
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum absolute element, or 0 for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, &x| m.max(x.abs()))
    }

    /// Returns the sub-matrix consisting of rows `start..end`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > rows`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Mat {
        assert!(start <= end && end <= self.rows, "slice_rows: bad range {start}..{end}");
        Mat {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Vertically stacks `self` on top of `other`. Panics if widths differ.
    pub fn vstack(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.cols, "vstack: width mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Mat { rows: self.rows + other.rows, cols: self.cols, data }
    }

    /// Horizontally concatenates columns of `self` and `other`.
    /// Panics if heights differ.
    pub fn hstack(&self, other: &Mat) -> Mat {
        assert_eq!(self.rows, other.rows, "hstack: height mismatch");
        let mut out = Mat::zeros(self.rows, self.cols + other.cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(other.row(i));
        }
        out
    }

    /// Index of the maximum element in row `r` (first one on ties).
    ///
    /// # Panics
    ///
    /// Panics if the matrix has zero columns or `r >= rows`.
    // lint: hot-path
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        assert!(!row.is_empty(), "argmax_row: empty row");
        let mut best = 0;
        for (i, &x) in row.iter().enumerate() {
            if x > row[best] {
                best = i;
            }
        }
        best
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = f32;
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl std::fmt::Display for Mat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for r in self.iter_rows() {
            write!(f, "  [")?;
            for (i, x) in r.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{x:.4}")?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_requested_shape() {
        let m = Mat::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_roundtrips() {
        let m = Mat::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.row(0), &[1., 2., 3.]);
        assert_eq!(m.row(1), &[4., 5., 6.]);
        assert_eq!(m.clone().into_vec(), vec![1., 2., 3., 4., 5., 6.]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_rejects_bad_length() {
        let _ = Mat::from_vec(2, 2, vec![1.0; 5]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Mat::from_rows(&[&[1., 2.], &[3., 4.]]);
        let b = Mat::from_rows(&[&[5., 6.], &[7., 8.]]);
        let c = a.matmul(&b);
        assert_eq!(c, Mat::from_rows(&[&[19., 22.], &[43., 50.]]));
    }

    #[test]
    fn matmul_transpose_equals_explicit_transpose() {
        let a = Mat::from_rows(&[&[1., 2., 3.], &[4., 5., 6.]]);
        let b = Mat::from_rows(&[&[7., 8., 9.], &[1., 0., -1.]]);
        assert_eq!(a.matmul_transpose(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn transpose_matmul_equals_explicit_transpose() {
        let a = Mat::from_rows(&[&[1., 2.], &[3., 4.], &[5., 6.]]);
        let b = Mat::from_rows(&[&[7., 8.], &[9., 1.], &[2., 3.]]);
        assert_eq!(a.transpose_matmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn elementwise_ops() {
        let a = Mat::from_rows(&[&[1., -2.]]);
        let b = Mat::from_rows(&[&[3., 4.]]);
        assert_eq!(a.add(&b), Mat::from_rows(&[&[4., 2.]]));
        assert_eq!(a.sub(&b), Mat::from_rows(&[&[-2., -6.]]));
        assert_eq!(a.hadamard(&b), Mat::from_rows(&[&[3., -8.]]));
        assert_eq!(a.scale(2.0), Mat::from_rows(&[&[2., -4.]]));
        assert_eq!(a.map(f32::abs), Mat::from_rows(&[&[1., 2.]]));
    }

    #[test]
    fn row_reductions() {
        let a = Mat::from_rows(&[&[1., 2.], &[3., 4.]]);
        assert_eq!(a.sum_rows(), Mat::from_rows(&[&[4., 6.]]));
        assert_eq!(a.mean_rows(), Mat::from_rows(&[&[2., 3.]]));
        assert_eq!(a.sum(), 10.0);
    }

    #[test]
    fn stacking_and_slicing() {
        let a = Mat::from_rows(&[&[1., 2.]]);
        let b = Mat::from_rows(&[&[3., 4.], &[5., 6.]]);
        let v = a.vstack(&b);
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.slice_rows(1, 3), b);
        let h = a.hstack(&Mat::from_rows(&[&[9.]]));
        assert_eq!(h, Mat::from_rows(&[&[1., 2., 9.]]));
    }

    #[test]
    fn argmax_row_picks_first_max() {
        let a = Mat::from_rows(&[&[1., 5., 5., 2.]]);
        assert_eq!(a.argmax_row(0), 1);
    }

    #[test]
    fn add_row_inplace_broadcasts() {
        let mut a = Mat::from_rows(&[&[1., 2.], &[3., 4.]]);
        a.add_row_inplace(&[10., 20.]);
        assert_eq!(a, Mat::from_rows(&[&[11., 22.], &[13., 24.]]));
    }

    #[test]
    fn display_is_nonempty() {
        let a = Mat::zeros(1, 1);
        assert!(!format!("{a}").is_empty());
        assert!(!format!("{a:?}").is_empty());
    }
}
