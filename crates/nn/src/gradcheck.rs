//! Numerical gradient checking used by the layer test suites.
//!
//! The check builds a scalar loss `L = sum(C ⊙ f(x))` for a fixed coefficient
//! matrix `C`, runs the analytic backward pass, and compares every input and
//! parameter gradient against central finite differences.

use crate::layers::SeqLayer;
use crate::mat::Mat;

/// Deterministic pseudo-random coefficients in `[-1, 1]` used to reduce the
/// layer output to a scalar loss.
fn coefficients(rows: usize, cols: usize) -> Mat {
    let mut state: u64 = 0x9E3779B97F4A7C15;
    let data = (0..rows * cols)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (u32::MAX as f32 / 2.0)) - 1.0
        })
        .collect();
    Mat::from_vec(rows, cols, data)
}

fn scalar_loss(layer: &mut dyn SeqLayer, x: &Mat) -> (f32, Mat) {
    let y = layer.forward(x);
    let c = coefficients(y.rows(), y.cols());
    (y.hadamard(&c).sum(), c)
}

fn assert_close(analytic: f32, numeric: f32, tol: f32, what: &str) {
    let denom = 1.0_f32.max(analytic.abs()).max(numeric.abs());
    let rel = (analytic - numeric).abs() / denom;
    assert!(
        rel <= tol,
        "{what}: analytic {analytic:.6} vs numeric {numeric:.6} (relative error {rel:.6} > {tol})"
    );
}

/// Checks input and parameter gradients of `layer` at point `x` against
/// central finite differences.
///
/// # Panics
///
/// Panics (failing the test) if any gradient deviates by more than `tol`
/// relative error.
pub fn check_layer_gradients(layer: &mut dyn SeqLayer, x: &Mat, tol: f32) {
    let eps = 1e-2_f32;

    // Analytic gradients.
    layer.visit_params(&mut |p| p.zero_grad());
    let (_, c) = scalar_loss(layer, x);
    let dx = layer.backward(&c);
    assert_eq!(dx.shape(), x.shape(), "backward must return a gradient shaped like the input");

    // Input gradient check.
    let mut xp = x.clone();
    for i in 0..x.len() {
        let orig = xp.as_slice()[i];
        xp.as_mut_slice()[i] = orig + eps;
        let (lp, _) = scalar_loss(layer, &xp);
        xp.as_mut_slice()[i] = orig - eps;
        let (lm, _) = scalar_loss(layer, &xp);
        xp.as_mut_slice()[i] = orig;
        let numeric = (lp - lm) / (2.0 * eps);
        assert_close(dx.as_slice()[i], numeric, tol, &format!("d input[{i}]"));
    }

    // Parameter gradient check. Gradients were accumulated during the single
    // analytic backward pass above; perturb each parameter in turn.
    let mut param_grads: Vec<Vec<f32>> = Vec::new();
    layer.visit_params(&mut |p| param_grads.push(p.grad.as_slice().to_vec()));

    let n_params = param_grads.len();
    for pi in 0..n_params {
        let plen = param_grads[pi].len();
        for i in 0..plen {
            let mut lp = 0.0;
            let mut lm = 0.0;
            perturb_param(layer, pi, i, eps);
            lp += scalar_loss(layer, x).0;
            perturb_param(layer, pi, i, -2.0 * eps);
            lm += scalar_loss(layer, x).0;
            perturb_param(layer, pi, i, eps);
            let numeric = (lp - lm) / (2.0 * eps);
            assert_close(
                param_grads[pi][i],
                numeric,
                tol,
                &format!("d param[{pi}][{i}] of {}", layer.name()),
            );
        }
    }
}

fn perturb_param(layer: &mut dyn SeqLayer, target: usize, index: usize, delta: f32) {
    let mut k = 0;
    layer.visit_params(&mut |p| {
        if k == target {
            p.value.as_mut_slice()[index] += delta;
        }
        k += 1;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coefficients_are_deterministic_and_bounded() {
        let a = coefficients(3, 4);
        let b = coefficients(3, 4);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|&x| (-1.0..=1.0).contains(&x)));
    }
}
