//! Builds the Block Transfer training dataset: fault-free plus faulty
//! demonstrations with gesture-level error labels.
//!
//! §IV-B: "We collected 20 fault-free demonstrations … The dataset collected
//! from the simulation experiments consisted of 115 fault-free and faulty
//! demonstrations", and errors were labeled by "record\[ing\] the time that we
//! injected the fault … and the time that the fault led to any of the common
//! errors … and then mapped those times to the corresponding gestures."

use crate::campaign::{sample_spec, table3_grid};
use crate::spec::FaultInjector;
use eval::segments;
use kinematics::{Dataset, Demonstration, ErrorAnnotation};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use raven_sim::{run_block_transfer, NoFaults, SimConfig, Trial};
use serde::{Deserialize, Serialize};

/// Dataset-builder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockTransferDataConfig {
    /// Fault-free demonstrations (paper: 20).
    pub fault_free: usize,
    /// Faulty demonstrations (paper: 95, for 115 total).
    pub faulty: usize,
    /// Base simulator configuration.
    pub sim: SimConfig,
    /// Master seed.
    pub seed: u64,
}

impl Default for BlockTransferDataConfig {
    fn default() -> Self {
        Self { fault_free: 20, faulty: 95, sim: SimConfig::default(), seed: 0xB10C }
    }
}

impl BlockTransferDataConfig {
    /// Small/fast configuration for tests and examples.
    pub fn fast(seed: u64) -> Self {
        Self {
            fault_free: 4,
            faulty: 8,
            sim: SimConfig { hz: 50.0, duration_s: 4.0, seed: 0, tremor: 0.3 },
            seed,
        }
    }
}

/// Builds the dataset. Faulty demonstrations draw their specs uniformly
/// from the Table III grid; unsafe gesture labels cover every gesture
/// overlapping `[injection start, error manifestation]`.
pub fn build_block_transfer_dataset(cfg: &BlockTransferDataConfig) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut demos = Vec::with_capacity(cfg.fault_free + cfg.faulty);

    for i in 0..cfg.fault_free {
        let sim = SimConfig { seed: rng.gen(), ..cfg.sim };
        let mut trial = run_block_transfer(&sim, &mut NoFaults);
        trial.demo.id = format!("BT_clean_{i:03}");
        trial.demo.supertrial = i % 5 + 1;
        demos.push(trial.demo);
    }

    let grid = table3_grid();
    for i in 0..cfg.faulty {
        let cell = &grid[rng.gen_range(0..grid.len())];
        let spec = sample_spec(cell, &mut rng);
        let sim = SimConfig { seed: rng.gen(), ..cfg.sim };
        let mut injector = FaultInjector::new(spec);
        let trial = run_block_transfer(&sim, &mut injector);
        let mut demo = relabel_with_injection(&trial, &injector);
        demo.id = format!("BT_fault_{i:03}");
        demo.supertrial = (cfg.fault_free + i) % 5 + 1;
        demos.push(demo);
    }

    Dataset::new(demos)
}

/// Rewrites a trial's safety labels using the injection time: the unsafe
/// span runs from the fault's first active tick to the error manifestation,
/// extended to whole gesture segments (the paper labels whole gestures).
/// Trials whose fault caused no error are labeled entirely safe.
pub fn relabel_with_injection(trial: &Trial, injector: &FaultInjector) -> Demonstration {
    let mut demo = trial.demo.clone();
    demo.unsafe_labels = vec![false; demo.len()];
    demo.errors.clear();

    let (Some(error_tick), Some(_)) = (trial.outcome.error_tick, trial.outcome.failure) else {
        return demo;
    };
    let start_tick = injector.first_active_tick().unwrap_or(error_tick);
    let lo = start_tick.min(error_tick);
    let hi = error_tick.max(start_tick).min(demo.len() - 1);

    let gesture_idx = demo.gesture_indices();
    for seg in segments(&gesture_idx) {
        if seg.start <= hi && seg.end > lo {
            for l in &mut demo.unsafe_labels[seg.start..seg.end] {
                *l = true;
            }
            demo.errors.push(ErrorAnnotation {
                gesture: demo.gestures[seg.start],
                span_start: seg.start,
                span_end: seg.end,
                actual_frame: error_tick.clamp(seg.start, seg.end - 1),
            });
        }
    }
    demo
}

#[cfg(test)]
mod tests {
    use super::*;
    use gestures::Gesture;

    #[test]
    fn dataset_has_requested_sizes_and_validates() {
        let ds = build_block_transfer_dataset(&BlockTransferDataConfig::fast(1));
        assert_eq!(ds.len(), 12);
        ds.validate().expect("valid dataset");
        // Fault-free demos are all safe.
        for d in ds.demos.iter().take(4) {
            assert_eq!(d.unsafe_frames(), 0, "{}", d.id);
        }
    }

    #[test]
    fn some_faulty_demos_are_labeled_unsafe() {
        let ds = build_block_transfer_dataset(&BlockTransferDataConfig::fast(2));
        let unsafe_demos = ds.demos.iter().filter(|d| d.unsafe_frames() > 0).count();
        assert!(unsafe_demos >= 2, "only {unsafe_demos} unsafe demos");
    }

    #[test]
    fn unsafe_spans_align_with_gesture_boundaries() {
        let ds = build_block_transfer_dataset(&BlockTransferDataConfig::fast(3));
        for d in &ds.demos {
            for e in &d.errors {
                // Whole-gesture labeling: the span boundaries coincide with
                // gesture changes.
                assert!(e.span_start == 0 || d.gestures[e.span_start - 1] != e.gesture);
                assert!(e.span_end == d.len() || d.gestures[e.span_end] != e.gesture);
            }
        }
    }

    #[test]
    fn erroneous_gestures_match_table7_support() {
        // Block Transfer errors should fall on the carry/drop gestures
        // (G5, G6, G11 dominate Table VII's bottom block), plus occasionally
        // G2/G12 when the injection interval overlaps early gestures.
        let ds = build_block_transfer_dataset(&BlockTransferDataConfig {
            faulty: 24,
            ..BlockTransferDataConfig::fast(4)
        });
        let mut late_gestures = 0usize;
        let mut total = 0usize;
        for d in &ds.demos {
            for e in &d.errors {
                total += 1;
                if matches!(e.gesture, Gesture::G5 | Gesture::G6 | Gesture::G11) {
                    late_gestures += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            late_gestures as f32 >= 0.6 * total as f32,
            "expected carry/drop gestures to dominate: {late_gestures}/{total}"
        );
    }

    #[test]
    fn build_is_deterministic() {
        let a = build_block_transfer_dataset(&BlockTransferDataConfig::fast(5));
        let b = build_block_transfer_dataset(&BlockTransferDataConfig::fast(5));
        assert_eq!(a, b);
    }
}
