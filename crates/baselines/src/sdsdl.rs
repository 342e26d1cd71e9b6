//! Shared Discriminative Sparse Dictionary Learning, after Sefati et al.
//! \[45\]: "jointly learn a common dictionary for all gestures in an
//! unsupervised manner together with the parameters of a multi-class linear
//! SVM".
//!
//! Implementation: a shared dictionary fitted by alternating orthogonal
//! matching pursuit (sparse coding) and mean-residual atom updates
//! (MOD-style), followed by a one-vs-rest linear SVM on the sparse codes.
//! Per-frame predictions are median-filtered for temporal smoothness.

use crate::scaler::Scaler;
use crate::svm::{LinearSvm, SvmConfig};
use nn::Mat;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// SDSDL configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SdsdlConfig {
    /// Dictionary atoms.
    pub atoms: usize,
    /// Non-zeros per sparse code (OMP sparsity).
    pub sparsity: usize,
    /// Dictionary-learning alternations.
    pub dict_iters: usize,
    /// SVM training.
    pub svm: SvmConfig,
    /// Number of label classes.
    pub classes: usize,
    /// Median-filter half-width for temporal smoothing (0 disables).
    pub smooth: usize,
    /// Seed for dictionary init.
    pub seed: u64,
}

impl Default for SdsdlConfig {
    fn default() -> Self {
        Self {
            atoms: 32,
            sparsity: 4,
            dict_iters: 4,
            svm: SvmConfig::default(),
            classes: gestures::NUM_GESTURES,
            smooth: 4,
            seed: 0,
        }
    }
}

/// A trained SDSDL model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sdsdl {
    cfg: SdsdlConfig,
    scaler: Scaler,
    /// Dictionary, `(atoms, dim)`, unit-norm rows.
    dict: Mat,
    svm: LinearSvm,
}

impl Sdsdl {
    /// Trains on `(frames, labels)` sequences.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or labels mismatch frames.
    pub fn train(data: &[(&Mat, &[usize])], cfg: &SdsdlConfig) -> Self {
        assert!(!data.is_empty(), "Sdsdl::train: no sequences");
        for (x, y) in data {
            assert_eq!(x.rows(), y.len(), "frames/labels mismatch");
        }
        let scaler = Scaler::fit(data.iter().map(|(x, _)| *x));

        // Pool all frames (scaled).
        let mut frames: Vec<Vec<f32>> = Vec::new();
        let mut labels: Vec<usize> = Vec::new();
        for (x, y) in data {
            let s = scaler.apply(x);
            for (r, &l) in s.iter_rows().zip(y.iter()) {
                frames.push(r.to_vec());
                labels.push(l);
            }
        }
        let dim = frames[0].len();

        // Initialize the dictionary from random frames.
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..frames.len()).collect();
        order.shuffle(&mut rng);
        let mut dict = Mat::zeros(cfg.atoms, dim);
        for a in 0..cfg.atoms {
            let src = &frames[order[a % order.len()]];
            dict.row_mut(a).copy_from_slice(src);
            normalize_row(dict.row_mut(a));
        }

        // Alternate sparse coding and atom updates.
        for _ in 0..cfg.dict_iters {
            let mut atom_acc = Mat::zeros(cfg.atoms, dim);
            let mut atom_n = vec![0usize; cfg.atoms];
            for f in &frames {
                let code = omp(&dict, f, cfg.sparsity);
                for &(a, w) in &code {
                    // Accumulate the direction each atom is used in.
                    let acc = atom_acc.row_mut(a);
                    for (av, &xv) in acc.iter_mut().zip(f.iter()) {
                        *av += w.signum() * xv;
                    }
                    atom_n[a] += 1;
                }
            }
            for a in 0..cfg.atoms {
                if atom_n[a] > 0 {
                    let row = atom_acc.row(a).to_vec();
                    dict.row_mut(a).copy_from_slice(&row);
                    normalize_row(dict.row_mut(a));
                }
            }
        }

        // Sparse-code every frame and fit the SVM on dense code vectors.
        let mut codes = Mat::zeros(frames.len(), cfg.atoms);
        for (i, f) in frames.iter().enumerate() {
            for (a, w) in omp(&dict, f, cfg.sparsity) {
                codes[(i, a)] = w;
            }
        }
        let svm = LinearSvm::train(&codes, &labels, cfg.classes, &cfg.svm);

        Self { cfg: *cfg, scaler, dict, svm }
    }

    /// Sparse code of one (already scaled) frame as a dense vector.
    fn code(&self, frame: &[f32]) -> Vec<f32> {
        let mut dense = vec![0.0f32; self.cfg.atoms];
        for (a, w) in omp(&self.dict, frame, self.cfg.sparsity) {
            dense[a] = w;
        }
        dense
    }

    /// Predicts per-frame labels for a sequence.
    pub fn predict(&self, frames: &Mat) -> Vec<usize> {
        let scaled = self.scaler.apply(frames);
        let raw: Vec<usize> = scaled.iter_rows().map(|r| self.svm.predict(&self.code(r))).collect();
        if self.cfg.smooth == 0 {
            return raw;
        }
        // Mode filter over a +/- smooth window.
        let k = self.cfg.smooth;
        (0..raw.len())
            .map(|t| {
                let lo = t.saturating_sub(k);
                let hi = (t + k + 1).min(raw.len());
                let mut counts = vec![0usize; self.cfg.classes];
                for &l in &raw[lo..hi] {
                    counts[l] += 1;
                }
                let mut best = raw[t];
                for (c, &n) in counts.iter().enumerate() {
                    if n > counts[best] {
                        best = c;
                    }
                }
                best
            })
            .collect()
    }

    /// Frame-level accuracy on a labeled sequence set.
    pub fn accuracy(&self, data: &[(&Mat, &[usize])]) -> f32 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for (x, y) in data {
            let pred = self.predict(x);
            correct += pred.iter().zip(y.iter()).filter(|(a, b)| a == b).count();
            total += y.len();
        }
        if total == 0 {
            f32::NAN
        } else {
            correct as f32 / total as f32
        }
    }
}

fn normalize_row(row: &mut [f32]) {
    let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 1e-8 {
        for x in row {
            *x /= norm;
        }
    } else if let Some(first) = row.first_mut() {
        *first = 1.0;
    }
}

/// Orthogonal matching pursuit: greedily selects up to `sparsity` atoms and
/// re-solves the least-squares coefficients over the selected set. Returns
/// `(atom, coefficient)` pairs.
fn omp(dict: &Mat, x: &[f32], sparsity: usize) -> Vec<(usize, f32)> {
    let atoms = dict.rows();
    let mut residual = x.to_vec();
    let mut selected: Vec<usize> = Vec::new();

    for _ in 0..sparsity.min(atoms) {
        // Atom most correlated with the residual.
        let mut best = None;
        let mut best_abs = 1e-7f32;
        for a in 0..atoms {
            if selected.contains(&a) {
                continue;
            }
            let c: f32 = dict.row(a).iter().zip(residual.iter()).map(|(&d, &r)| d * r).sum();
            if c.abs() > best_abs {
                best_abs = c.abs();
                best = Some(a);
            }
        }
        let Some(a) = best else { break };
        selected.push(a);

        // Least squares over selected atoms: (G)c = b with G = D_s D_s^T.
        let k = selected.len();
        let mut g = vec![0.0f32; k * k];
        let mut b = vec![0.0f32; k];
        for i in 0..k {
            let di = dict.row(selected[i]);
            b[i] = di.iter().zip(x.iter()).map(|(&d, &xv)| d * xv).sum();
            for j in 0..k {
                let dj = dict.row(selected[j]);
                g[i * k + j] = di.iter().zip(dj.iter()).map(|(&a, &b)| a * b).sum();
            }
        }
        let coef = solve_small(&mut g, &mut b, k);

        // Update residual r = x - D_s^T c.
        residual.copy_from_slice(x);
        for (i, &a) in selected.iter().enumerate() {
            for (rv, &dv) in residual.iter_mut().zip(dict.row(a).iter()) {
                *rv -= coef[i] * dv;
            }
        }
    }

    // Final coefficients.
    let k = selected.len();
    if k == 0 {
        return Vec::new();
    }
    let mut g = vec![0.0f32; k * k];
    let mut b = vec![0.0f32; k];
    for i in 0..k {
        let di = dict.row(selected[i]);
        b[i] = di.iter().zip(x.iter()).map(|(&d, &xv)| d * xv).sum();
        for j in 0..k {
            let dj = dict.row(selected[j]);
            g[i * k + j] = di.iter().zip(dj.iter()).map(|(&a, &b)| a * b).sum();
        }
    }
    let coef = solve_small(&mut g, &mut b, k);
    selected.into_iter().zip(coef).collect()
}

/// Gaussian elimination with partial pivoting for tiny systems (k ≤ ~8).
fn solve_small(g: &mut [f32], b: &mut [f32], k: usize) -> Vec<f32> {
    for col in 0..k {
        // Pivot.
        let mut pivot = col;
        for r in col + 1..k {
            if g[r * k + col].abs() > g[pivot * k + col].abs() {
                pivot = r;
            }
        }
        if g[pivot * k + col].abs() < 1e-9 {
            // Singular direction: ridge it.
            g[col * k + col] += 1e-6;
        } else if pivot != col {
            for c in 0..k {
                g.swap(col * k + c, pivot * k + c);
            }
            b.swap(col, pivot);
        }
        let diag = g[col * k + col];
        for r in col + 1..k {
            let f = g[r * k + col] / diag;
            for c in col..k {
                g[r * k + c] -= f * g[col * k + c];
            }
            b[r] -= f * b[col];
        }
    }
    let mut x = vec![0.0f32; k];
    for row in (0..k).rev() {
        let mut acc = b[row];
        for c in row + 1..k {
            acc -= g[row * k + c] * x[c];
        }
        x[row] = acc / g[row * k + row];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_sequences(n: usize) -> Vec<(Mat, Vec<usize>)> {
        (0..n)
            .map(|i| {
                let len = 60;
                let mut rows = Vec::new();
                let mut labels = Vec::new();
                for t in 0..len {
                    let phase = (t / 20) % 3;
                    let wiggle = ((t * 13 + i * 7) % 10) as f32 / 20.0;
                    let base = match phase {
                        0 => [2.0 + wiggle, 0.0, -1.0],
                        1 => [0.0, 2.0 - wiggle, 1.0],
                        _ => [-2.0, wiggle, 2.0],
                    };
                    rows.extend_from_slice(&base);
                    labels.push(phase);
                }
                (Mat::from_vec(len, 3, rows), labels)
            })
            .collect()
    }

    #[test]
    fn omp_reconstructs_dictionary_atoms() {
        let dict = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let code = omp(&dict, &[3.0, 0.0], 1);
        assert_eq!(code.len(), 1);
        assert_eq!(code[0].0, 0);
        assert!((code[0].1 - 3.0).abs() < 1e-5);
    }

    #[test]
    fn omp_respects_sparsity() {
        let dict = Mat::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]);
        let code = omp(&dict, &[1.0, 2.0, 3.0], 2);
        assert!(code.len() <= 2);
    }

    #[test]
    fn solve_small_solves_2x2() {
        let mut g = vec![2.0, 1.0, 1.0, 3.0];
        let mut b = vec![5.0, 10.0];
        let x = solve_small(&mut g, &mut b, 2);
        assert!((2.0 * x[0] + x[1] - 5.0).abs() < 1e-4);
        assert!((x[0] + 3.0 * x[1] - 10.0).abs() < 1e-4);
    }

    #[test]
    fn sdsdl_learns_three_phase_toy() {
        let seqs = toy_sequences(4);
        let data: Vec<(&Mat, &[usize])> = seqs.iter().map(|(x, y)| (x, y.as_slice())).collect();
        let cfg = SdsdlConfig { atoms: 8, classes: 3, ..Default::default() };
        let model = Sdsdl::train(&data, &cfg);
        let acc = model.accuracy(&data);
        assert!(acc > 0.85, "train accuracy {acc}");
    }

    #[test]
    fn smoothing_reduces_label_switches() {
        let seqs = toy_sequences(4);
        let data: Vec<(&Mat, &[usize])> = seqs.iter().map(|(x, y)| (x, y.as_slice())).collect();
        let rough = Sdsdl::train(
            &data,
            &SdsdlConfig { atoms: 8, classes: 3, smooth: 0, ..Default::default() },
        );
        let smooth = Sdsdl::train(
            &data,
            &SdsdlConfig { atoms: 8, classes: 3, smooth: 4, ..Default::default() },
        );
        let switches = |pred: &[usize]| pred.windows(2).filter(|w| w[0] != w[1]).count();
        let r = switches(&rough.predict(&seqs[0].0));
        let s = switches(&smooth.predict(&seqs[0].0));
        assert!(s <= r, "smoothing should not add switches ({s} > {r})");
    }
}
