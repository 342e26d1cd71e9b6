//! # `bench` — the reproduction harness
//!
//! One `repro_*` binary per table/figure of the paper (see DESIGN.md §9 for
//! the index) plus Criterion benches for the compute-time claims. This
//! library holds the shared scaffolding: scaled dataset builders, monitor
//! configurations per task, and table formatting.
//!
//! All binaries accept the `REPRO_SCALE` environment variable:
//!
//! * `fast` (default) — scaled-down datasets/epochs; minutes on a laptop.
//! * `full` — paper-sized datasets (39 Suturing demos, 115 Block Transfer
//!   trials, 651 fault injections) and longer training.

#![warn(missing_docs)]

use context_monitor::{ErrorModelKind, MonitorConfig, Precision};
use faults::{build_block_transfer_dataset, BlockTransferDataConfig};
use gestures::Task;
use jigsaws::{generate, GeneratorConfig};
use kinematics::{Dataset, FeatureSet};
use raven_sim::SimConfig;

/// Harness scale, from the `REPRO_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down (default): minutes end-to-end.
    Fast,
    /// Paper-sized datasets and sweeps.
    Full,
}

impl Scale {
    /// Reads `REPRO_SCALE` (`fast`/`full`), defaulting to fast.
    pub fn from_env() -> Self {
        match std::env::var("REPRO_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            _ => Scale::Fast,
        }
    }
}

/// Numeric tier for every engine a binary runs, from the
/// `MONITOR_PRECISION` environment variable (`f32` default, `int8`/`i8`
/// for the quantized tier).
///
/// # Panics
///
/// Panics on an unrecognized value: a CI matrix row that silently fell
/// back to f32 would fake quantized coverage.
pub fn monitor_precision() -> Precision {
    match std::env::var("MONITOR_PRECISION") {
        Ok(v) => Precision::parse(&v)
            .unwrap_or_else(|| panic!("MONITOR_PRECISION={v}: expected f32, int8, or i8")),
        Err(_) => Precision::F32,
    }
}

/// Master seed used by all repro binaries (results are deterministic).
pub const SEED: u64 = 2020;

/// Synthetic JIGSAWS-like dataset for a dVRK task.
pub fn jigsaws_dataset(task: Task, scale: Scale) -> Dataset {
    let cfg = match scale {
        Scale::Fast => GeneratorConfig {
            num_demos: 24,
            duration_scale: 0.45,
            max_gestures: 14,
            ..GeneratorConfig::new(task)
        },
        Scale::Full => GeneratorConfig::new(task),
    };
    generate(&cfg.with_seed(SEED ^ task as u64))
}

/// Block Transfer dataset from the Raven II simulator + fault injection.
pub fn block_transfer_dataset(scale: Scale) -> Dataset {
    let cfg = match scale {
        Scale::Fast => BlockTransferDataConfig {
            fault_free: 6,
            faulty: 18,
            sim: SimConfig { hz: 50.0, duration_s: 5.0, seed: 0, tremor: 0.3 },
            seed: SEED,
        },
        Scale::Full => BlockTransferDataConfig {
            fault_free: 20,
            faulty: 95,
            sim: SimConfig { hz: 100.0, duration_s: 8.0, seed: 0, tremor: 0.4 },
            seed: SEED,
        },
    };
    build_block_transfer_dataset(&cfg)
}

/// Monitor configuration for the Suturing (dVRK) experiments: the paper's
/// best error-step feature set is C,R,G with window 5 (Table V).
pub fn suturing_monitor_cfg(scale: Scale) -> MonitorConfig {
    let mut cfg = MonitorConfig::fast(FeatureSet::CRG).with_seed(SEED);
    if scale == Scale::Full {
        cfg.gesture_hidden = (96, 48);
        cfg.gesture_dense = 32;
        cfg.error_model = ErrorModelKind::Conv { c1: 48, c2: 32, dense: 24 };
        cfg.train.epochs = 30;
        cfg.train_stride = 1;
    }
    cfg
}

/// Monitor configuration for the Block Transfer (Raven II) experiments:
/// C,G features, window 10 (Table VI).
pub fn block_transfer_monitor_cfg(scale: Scale) -> MonitorConfig {
    let mut cfg = MonitorConfig::fast(FeatureSet::CG).with_seed(SEED).with_window(10, 1);
    cfg.train_stride = 3;
    if scale == Scale::Full {
        cfg.gesture_hidden = (96, 48);
        cfg.error_model = ErrorModelKind::Conv { c1: 48, c2: 32, dense: 24 };
        cfg.train.epochs = 30;
        cfg.train_stride = 2;
    }
    cfg
}

/// Number of LOSO folds to evaluate (fast mode subsamples for speed).
pub fn folds_to_run(scale: Scale, total: usize) -> usize {
    match scale {
        Scale::Fast => total.min(2),
        Scale::Full => total,
    }
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints a `paper vs measured` line.
pub fn compare(metric: &str, paper: &str, measured: &str) {
    println!("{metric:<46} paper: {paper:<18} measured: {measured}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_env_values() {
        // Only exercises the default path (setting env vars in tests races
        // with other tests).
        assert_eq!(Scale::from_env(), Scale::Fast);
    }

    #[test]
    fn fast_datasets_are_small_but_valid() {
        let ds = jigsaws_dataset(Task::Suturing, Scale::Fast);
        assert_eq!(ds.len(), 24);
        ds.validate().unwrap();
        let bt = block_transfer_dataset(Scale::Fast);
        assert_eq!(bt.len(), 24);
        bt.validate().unwrap();
    }

    #[test]
    fn configs_use_paper_feature_sets() {
        assert_eq!(suturing_monitor_cfg(Scale::Fast).features, FeatureSet::CRG);
        let bt = block_transfer_monitor_cfg(Scale::Fast);
        assert_eq!(bt.features, FeatureSet::CG);
        assert_eq!(bt.window.width, 10);
    }
}
