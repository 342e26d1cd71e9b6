//! Demonstration collections, the Leave-One-SuperTrial-Out split, and
//! feature normalization.

use crate::features::FeatureSet;
use crate::trajectory::Demonstration;
use nn::Mat;
use serde::{Deserialize, Serialize};

/// A collection of demonstrations of one task.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Dataset {
    /// The demonstrations.
    pub demos: Vec<Demonstration>,
}

/// One LOSO fold: indices into [`Dataset::demos`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fold {
    /// Held-out super-trial index.
    pub supertrial: usize,
    /// Training demonstration indices.
    pub train: Vec<usize>,
    /// Test demonstration indices.
    pub test: Vec<usize>,
}

impl Dataset {
    /// Creates a dataset from demonstrations.
    pub fn new(demos: Vec<Demonstration>) -> Self {
        Self { demos }
    }

    /// Number of demonstrations.
    pub fn len(&self) -> usize {
        self.demos.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.demos.is_empty()
    }

    /// Total frame count across demonstrations (the paper's "Training size"
    /// row in Table IV).
    pub fn total_frames(&self) -> usize {
        self.demos.iter().map(|d| d.len()).sum()
    }

    /// Validates every demonstration.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure.
    pub fn validate(&self) -> Result<(), String> {
        for d in &self.demos {
            d.validate()?;
        }
        Ok(())
    }

    /// Leave-One-SuperTrial-Out folds (§IV-A): for each distinct super-trial
    /// value, train on the others and test on it. Folds are ordered by
    /// super-trial index.
    pub fn loso_folds(&self) -> Vec<Fold> {
        let mut supertrials: Vec<usize> = self.demos.iter().map(|d| d.supertrial).collect();
        supertrials.sort_unstable();
        supertrials.dedup();
        supertrials
            .into_iter()
            .map(|st| {
                let (test, train): (Vec<usize>, Vec<usize>) =
                    (0..self.demos.len()).partition(|&i| self.demos[i].supertrial == st);
                Fold { supertrial: st, train, test }
            })
            .collect()
    }
}

/// Per-feature z-score normalizer fitted on training data only (so LOSO
/// folds do not leak test statistics).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Normalizer {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Normalizer {
    /// Fits column statistics over the feature matrices of `demos`.
    ///
    /// # Panics
    ///
    /// Panics if `demos` is empty or contains no frames.
    pub fn fit(demos: &[&Demonstration], features: &FeatureSet) -> Self {
        assert!(!demos.is_empty(), "Normalizer::fit: no demonstrations");
        let dims = features.dims(demos[0].manipulators());
        let mut count = 0usize;
        let mut mean = vec![0.0f64; dims];
        for d in demos {
            for f in &d.frames {
                let v = f.to_feature_vec(features);
                for (m, x) in mean.iter_mut().zip(v.iter()) {
                    *m += *x as f64;
                }
                count += 1;
            }
        }
        assert!(count > 0, "Normalizer::fit: no frames");
        for m in &mut mean {
            *m /= count as f64;
        }
        let mut var = vec![0.0f64; dims];
        for d in demos {
            for f in &d.frames {
                let v = f.to_feature_vec(features);
                for ((s, x), m) in var.iter_mut().zip(v.iter()).zip(mean.iter()) {
                    let diff = *x as f64 - m;
                    *s += diff * diff;
                }
            }
        }
        let std = var.iter().map(|&v| ((v / count as f64).sqrt() as f32).max(1e-6)).collect();
        Self { mean: mean.into_iter().map(|m| m as f32).collect(), std }
    }

    /// Feature dimensionality.
    pub fn dims(&self) -> usize {
        self.mean.len()
    }

    /// Normalizes a `(frames, features)` matrix.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the fitted dimensionality.
    pub fn apply(&self, m: &Mat) -> Mat {
        assert_eq!(m.cols(), self.dims(), "Normalizer::apply: dimension mismatch");
        // lint: allow(alloc, reason = "offline batch normalizer; hot code uses apply_frame_inplace -- reached only via the sim .step() name collision")
        let mut out = m.clone();
        self.apply_inplace(&mut out);
        out
    }

    /// In-place variant of [`Normalizer::apply`].
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the fitted dimensionality.
    pub fn apply_inplace(&self, m: &mut Mat) {
        assert_eq!(m.cols(), self.dims(), "Normalizer::apply: dimension mismatch");
        let cols = m.cols();
        for (i, x) in m.as_mut_slice().iter_mut().enumerate() {
            let c = i % cols;
            *x = (*x - self.mean[c]) / self.std[c];
        }
    }

    /// Normalizes a single frame's feature vector.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the fitted dimensionality.
    pub fn apply_frame(&self, frame: &[f32]) -> Vec<f32> {
        assert_eq!(frame.len(), self.dims(), "Normalizer::apply_frame: dimension mismatch");
        frame.iter().enumerate().map(|(c, &x)| (x - self.mean[c]) / self.std[c]).collect()
    }

    /// Normalizes a single frame in place (the streaming monitor's
    /// allocation-free per-frame path). Bit-identical to
    /// [`Normalizer::apply_frame`].
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the fitted dimensionality.
    // lint: hot-path
    pub fn apply_frame_inplace(&self, frame: &mut [f32]) {
        assert_eq!(frame.len(), self.dims(), "Normalizer::apply_frame_inplace: dimension mismatch");
        for (c, x) in frame.iter_mut().enumerate() {
            *x = (*x - self.mean[c]) / self.std[c];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::{KinematicSample, ManipulatorState};
    use gestures::{Gesture, Task};

    fn demo(supertrial: usize, value: f32, frames: usize) -> Demonstration {
        let mut st = ManipulatorState::default();
        st.position.x = value;
        Demonstration {
            id: format!("d{supertrial}"),
            task: Task::Suturing,
            subject: "B".into(),
            supertrial,
            hz: 30.0,
            frames: vec![KinematicSample::new(vec![st, st]); frames],
            gestures: vec![Gesture::G1; frames],
            unsafe_labels: vec![false; frames],
            errors: vec![],
        }
    }

    #[test]
    fn loso_folds_partition_by_supertrial() {
        let ds = Dataset::new(vec![demo(1, 0.0, 3), demo(1, 1.0, 3), demo(2, 2.0, 3)]);
        let folds = ds.loso_folds();
        assert_eq!(folds.len(), 2);
        assert_eq!(folds[0].supertrial, 1);
        assert_eq!(folds[0].test, vec![0, 1]);
        assert_eq!(folds[0].train, vec![2]);
        assert_eq!(folds[1].test, vec![2]);
        // Every fold's train+test covers all demos exactly once.
        for f in &folds {
            let mut all: Vec<usize> = f.train.iter().chain(f.test.iter()).copied().collect();
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2]);
        }
    }

    #[test]
    fn total_frames_sums() {
        let ds = Dataset::new(vec![demo(1, 0.0, 3), demo(2, 0.0, 7)]);
        assert_eq!(ds.total_frames(), 10);
    }

    #[test]
    fn normalizer_zero_means_unit_std() {
        let demos = [demo(1, -1.0, 5), demo(2, 1.0, 5)];
        let refs: Vec<&Demonstration> = demos.iter().collect();
        let norm = Normalizer::fit(&refs, &FeatureSet::ALL);
        let m = demos[0].feature_matrix(&FeatureSet::ALL);
        let normalized = norm.apply(&m);
        // Feature 0 (position.x) was -1 in this demo, mean 0, std 1 -> -1.
        assert!((normalized[(0, 0)] + 1.0).abs() < 1e-4);
        // Constant features normalize to 0 (std floored, mean subtracted).
        assert!(normalized[(0, 1)].abs() < 1e-4);
    }

    #[test]
    fn normalizer_frame_matches_matrix() {
        let demos = [demo(1, -1.0, 4), demo(2, 3.0, 4)];
        let refs: Vec<&Demonstration> = demos.iter().collect();
        let norm = Normalizer::fit(&refs, &FeatureSet::CG);
        let m = norm.apply(&demos[0].feature_matrix(&FeatureSet::CG));
        let frame = norm.apply_frame(&demos[0].frames[0].to_feature_vec(&FeatureSet::CG));
        assert_eq!(m.row(0), frame.as_slice());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn normalizer_rejects_wrong_width() {
        let demos = [demo(1, 0.0, 2)];
        let refs: Vec<&Demonstration> = demos.iter().collect();
        let norm = Normalizer::fit(&refs, &FeatureSet::CG);
        let _ = norm.apply(&Mat::zeros(2, 3));
    }
}
