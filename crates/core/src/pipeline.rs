//! Training and inference for the two-stage pipeline (§III, Fig. 4).
//!
//! The two stages are trained **separately** (the paper trains the erroneous
//! gesture detectors on ground-truth gesture boundaries) and composed only
//! at evaluation/inference time, where the predicted gesture routes each
//! window to its gesture-specific classifier.

use crate::config::{MonitorConfig, Precision};
use crate::engine::InferenceEngine;
use crate::models::{error_classifier_spec, gesture_classifier_spec};
use gestures::{Gesture, NUM_GESTURES};
use kinematics::{windows_with_positions, Dataset, Demonstration, Normalizer, WindowConfig};
use nn::loss::{inverse_frequency_weights, softmax_into};
use nn::{
    train_classifier, Mat, Network, NetworkScratch, QuantError, QuantScratch, QuantizedNetwork,
    Sample, SavedNetwork, TrainConfig,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// How the second stage obtains its operational context (Table VIII rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ContextMode {
    /// Gesture-specific with the gesture classifier (the deployed system).
    Predicted,
    /// Gesture-specific with perfect gesture boundaries (upper bound).
    Perfect,
    /// Single classifier with no notion of context (baseline).
    NoContext,
}

impl std::fmt::Display for ContextMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ContextMode::Predicted => "gesture-specific (predicted)",
            ContextMode::Perfect => "gesture-specific (perfect boundaries)",
            ContextMode::NoContext => "non-gesture-specific",
        };
        f.write_str(s)
    }
}

/// Identity of the stage-2 classifier a window routes to — the grouping key
/// for cross-session micro-batching ([`crate::engine::step_batch`] stacks
/// all windows sharing a route into one batched forward pass). `Ord` so
/// pending work can be grouped with a stable sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ErrorRoute {
    /// The dedicated classifier of one gesture class.
    Dedicated(usize),
    /// The single non-gesture-specific classifier (the `NoContext` path and
    /// the fallback for gestures without a dedicated classifier).
    Global,
}

/// The trained two-stage pipeline.
///
/// All inference entry points take `&self`: the pipeline is read-only at
/// serving time (mutable inference scratch lives with each
/// [`crate::engine::InferenceEngine`]), so one instance behind an
/// `Arc<TrainedPipeline>` can be shared by every shard worker of a
/// [`crate::serve::ShardedMonitorPool`].
pub struct TrainedPipeline {
    /// Configuration it was trained with.
    pub config: MonitorConfig,
    /// Feature normalizer for the error stage, fitted on the training fold.
    pub normalizer: Normalizer,
    /// Feature normalizer for the gesture stage.
    pub gesture_normalizer: Normalizer,
    /// Stage 1: gesture classifier.
    pub gesture_net: Network,
    /// Stage 2: per-gesture erroneous-gesture classifiers.
    pub error_nets: BTreeMap<usize, Network>,
    /// Fallback / baseline: single non-gesture-specific classifier.
    pub global_error_net: Option<Network>,
    /// Error-stage input feature width.
    pub in_dim: usize,
    /// Gesture-stage input feature width.
    pub gesture_in_dim: usize,
    /// The calibrated int8 twin serving [`Precision::Int8`], populated by
    /// [`TrainedPipeline::quantize`]. A derived artifact — rebuilt from the
    /// f32 weights on demand, never serialized with the checkpoint.
    pub quantized: Option<QuantizedPipeline>,
}

/// The post-training-quantized twin of a [`TrainedPipeline`]: the same
/// two-stage topology with every classifier replaced by its calibrated
/// int8 [`QuantizedNetwork`]. Routing (which gesture maps to which
/// classifier) stays with the parent pipeline — the twin mirrors its key
/// set exactly, so [`TrainedPipeline::error_route`] resolves for both
/// tiers.
pub struct QuantizedPipeline {
    /// Stage 1: quantized gesture classifier.
    pub gesture_net: QuantizedNetwork,
    /// Stage 2: quantized per-gesture error classifiers (same keys as the
    /// f32 `error_nets`).
    pub error_nets: BTreeMap<usize, QuantizedNetwork>,
    /// Quantized fallback / baseline classifier.
    pub global_error_net: Option<QuantizedNetwork>,
}

impl QuantizedPipeline {
    /// The quantized classifier behind a route resolved by
    /// [`TrainedPipeline::error_route`] on the parent pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the route does not exist (routes must come from the
    /// pipeline this twin was quantized from).
    pub fn error_net(&self, route: ErrorRoute) -> &QuantizedNetwork {
        match route {
            ErrorRoute::Dedicated(g) => &self.error_nets[&g],
            ErrorRoute::Global => {
                // lint: allow(panic, reason = "error_route() yields Global only when the parent pipeline holds a global net; checked at construction")
                self.global_error_net.as_ref().expect("route resolved against the parent pipeline")
            }
        }
    }
}

/// Serializable checkpoint of a [`TrainedPipeline`].
#[derive(Serialize, Deserialize)]
pub struct SavedPipeline {
    /// Configuration.
    pub config: MonitorConfig,
    /// Error-stage normalizer.
    pub normalizer: Normalizer,
    /// Gesture-stage normalizer.
    pub gesture_normalizer: Normalizer,
    /// Gesture-classifier weights.
    pub gesture: SavedNetwork,
    /// Per-gesture error-classifier weights.
    pub errors: Vec<(usize, SavedNetwork)>,
    /// Global error-classifier weights.
    pub global: Option<SavedNetwork>,
    /// Error-stage input width.
    pub in_dim: usize,
    /// Gesture-stage input width.
    pub gesture_in_dim: usize,
}

/// Per-frame output of running the monitor over a demonstration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorRun {
    /// Predicted gesture class per frame.
    pub gesture_pred: Vec<usize>,
    /// Unsafe probability per frame.
    pub unsafe_score: Vec<f32>,
    /// Binary unsafe prediction per frame (score > 0.5).
    pub unsafe_pred: Vec<bool>,
    /// Mean inference time **per frame**, milliseconds (total wall time of
    /// the replay divided by the frame count). Earlier revisions divided by
    /// a mixed count of stage-1 *plus* stage-2 windows, roughly halving the
    /// reported latency; per-frame is what the paper's Table VIII
    /// "computation time per sample" measures.
    pub compute_ms: f32,
}

/// Training-set statistics per gesture (Table VII's size columns).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GestureTrainStats {
    /// Gesture class index.
    pub gesture: usize,
    /// Number of training windows.
    pub windows: usize,
    /// Fraction labeled unsafe.
    pub error_rate: f32,
    /// Whether a dedicated classifier was trained.
    pub dedicated: bool,
}

/// Which pipeline stages to actually train (the ablation binaries train a
/// single stage to keep runs cheap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrainStages {
    /// Train the gesture classifier (stage 1).
    pub gesture: bool,
    /// Train the erroneous-gesture classifiers (stage 2 + baseline).
    pub errors: bool,
}

impl TrainStages {
    /// Train everything.
    pub const ALL: TrainStages = TrainStages { gesture: true, errors: true };
    /// Gesture classifier only (Table IV).
    pub const GESTURE_ONLY: TrainStages = TrainStages { gesture: true, errors: false };
    /// Error classifiers only (Tables V/VI/VII with perfect boundaries).
    pub const ERRORS_ONLY: TrainStages = TrainStages { gesture: false, errors: true };
}

impl TrainedPipeline {
    /// Trains the full pipeline on the demonstrations selected by
    /// `train_idx`. A trailing ~20% of the training demonstrations is held
    /// out as the early-stopping validation split.
    ///
    /// # Panics
    ///
    /// Panics if `train_idx` is empty.
    pub fn train(dataset: &Dataset, train_idx: &[usize], cfg: &MonitorConfig) -> Self {
        Self::train_with_stats(dataset, train_idx, cfg).0
    }

    /// Like [`TrainedPipeline::train`] but also returns per-gesture training
    /// statistics (Table VII).
    pub fn train_with_stats(
        dataset: &Dataset,
        train_idx: &[usize],
        cfg: &MonitorConfig,
    ) -> (Self, Vec<GestureTrainStats>) {
        Self::train_stages(dataset, train_idx, cfg, TrainStages::ALL)
    }

    /// Trains only the requested stages; untrained stages keep their seeded
    /// initial weights (usable for [`ContextMode::Perfect`] /
    /// [`ContextMode::NoContext`] evaluation paths that do not rely on them).
    pub fn train_stages(
        dataset: &Dataset,
        train_idx: &[usize],
        cfg: &MonitorConfig,
        stages: TrainStages,
    ) -> (Self, Vec<GestureTrainStats>) {
        assert!(!train_idx.is_empty(), "empty training fold");
        let demos: Vec<&Demonstration> = train_idx.iter().map(|&i| &dataset.demos[i]).collect();
        let normalizer = Normalizer::fit(&demos, &cfg.features);
        let gesture_normalizer = Normalizer::fit(&demos, &cfg.gesture_features);
        let in_dim = normalizer.dims();
        let gesture_in_dim = gesture_normalizer.dims();

        // Harvest labeled windows from every training demonstration. The
        // gesture stage uses its own (wider) windows and feature set.
        let n_val_demos = (demos.len() / 5).max(1).min(demos.len() - 1);
        let (fit_demos, val_demos) = demos.split_at(demos.len() - n_val_demos);

        let harvest = |ds: &[&Demonstration]| {
            let mut gesture_samples: Vec<Sample> = Vec::new();
            let mut per_gesture: BTreeMap<usize, Vec<Sample>> = BTreeMap::new();
            let mut global: Vec<Sample> = Vec::new();
            for d in ds {
                let g_idx = d.gesture_indices();
                if stages.gesture {
                    let gfeats = gesture_normalizer.apply(&d.feature_matrix(&cfg.gesture_features));
                    let gw = kinematics::WindowConfig::new(cfg.gesture_window, cfg.train_stride);
                    for (w, pos) in windows_with_positions(&gfeats, gw) {
                        gesture_samples.push((w, g_idx[pos]));
                    }
                }
                if stages.errors {
                    let feats = normalizer.apply(&d.feature_matrix(&cfg.features));
                    let mut wcfg = cfg.window;
                    wcfg.stride = cfg.train_stride;
                    for (w, pos) in windows_with_positions(&feats, wcfg) {
                        let g = g_idx[pos];
                        let unsafe_ = d.unsafe_labels[pos] as usize;
                        per_gesture.entry(g).or_default().push((w.clone(), unsafe_));
                        global.push((w, unsafe_));
                    }
                }
            }
            (gesture_samples, per_gesture, global)
        };
        let (g_train, pg_train, glob_train) = harvest(fit_demos);
        let (g_val, pg_val, glob_val) = harvest(val_demos);

        // Stage 1: gesture classifier (class-weighted for imbalance).
        let mut gesture_net = Network::new(gesture_classifier_spec(cfg, gesture_in_dim), cfg.seed);
        if stages.gesture {
            let gesture_labels: Vec<usize> = g_train.iter().map(|(_, y)| *y).collect();
            let mut gesture_cfg = cfg.train.clone();
            gesture_cfg.class_weights =
                Some(inverse_frequency_weights(&gesture_labels, NUM_GESTURES));
            train_classifier(&mut gesture_net, &g_train, &g_val, &gesture_cfg);
        }

        // Stage 2: per-gesture error classifiers, trained in parallel over
        // the workspace's one audited fork-join primitive. Each gesture is a
        // self-contained job with its own derived seed (`cfg.seed ^ (g+1)`)
        // and `train_classifier` touches no shared mutable state, so the
        // trained weights are bit-identical for every worker count — the
        // shard assignment only decides *which thread* runs a job, never
        // *what* the job computes. `parallel_map` returns results in input
        // order, so the stats table and the BTreeMap insertions stay in
        // ascending gesture order too.
        let empty = Vec::new();
        let jobs: Vec<(usize, &Vec<Sample>)> = pg_train.iter().map(|(&g, s)| (g, s)).collect();
        let trained =
            crate::serve::parallel_map(&jobs, cfg.train_workers.max(1), |&(g, samples)| {
                let positives = samples.iter().filter(|(_, y)| *y == 1).count();
                let trainable = stages.errors
                    && samples.len() >= cfg.min_gesture_windows
                    && positives > 0
                    && positives < samples.len();
                let net = trainable.then(|| {
                    let val = pg_val.get(&g).unwrap_or(&empty);
                    train_binary(cfg, in_dim, samples, val, cfg.seed ^ (g as u64 + 1))
                });
                (g, positives, net)
            });
        let mut error_nets = BTreeMap::new();
        let mut stats = Vec::new();
        for ((g, positives, net), &(_, samples)) in trained.into_iter().zip(jobs.iter()) {
            let dedicated = net.is_some();
            if let Some(net) = net {
                error_nets.insert(g, net);
            }
            stats.push(GestureTrainStats {
                gesture: g,
                windows: samples.len(),
                error_rate: positives as f32 / samples.len() as f32,
                dedicated,
            });
        }

        // Baseline: single classifier over everything.
        let global_error_net = if stages.errors {
            let positives = glob_train.iter().filter(|(_, y)| *y == 1).count();
            (positives > 0 && positives < glob_train.len())
                .then(|| train_binary(cfg, in_dim, &glob_train, &glob_val, cfg.seed ^ 0xE5))
        } else {
            None
        };

        (
            Self {
                config: cfg.clone(),
                normalizer,
                gesture_normalizer,
                gesture_net,
                error_nets,
                global_error_net,
                in_dim,
                gesture_in_dim,
                quantized: None,
            },
            stats,
        )
    }

    /// Manipulators per frame this pipeline serves: both normalizers were
    /// fitted on frames with this many arms.
    pub fn manipulators(&self) -> usize {
        self.in_dim / self.config.features.dims_per_manipulator()
    }

    /// Gesture classes with dedicated error classifiers.
    pub fn dedicated_gestures(&self) -> Vec<Gesture> {
        self.error_nets.keys().filter_map(|&g| Gesture::from_index(g)).collect()
    }

    /// Runs the monitor over a demonstration in the given context mode,
    /// producing per-frame predictions.
    ///
    /// Offline replay **is** the streaming path: this drives one
    /// [`InferenceEngine`] over the frames, so the outputs from the first
    /// fully warm frame onward are bit-identical to what a streaming
    /// [`InferenceEngine::step`] emits.
    /// Frames before a stage's first output inherit that first output
    /// (warm-up backfill).
    ///
    /// # Panics
    ///
    /// Panics if the demonstration is shorter than either stage's window.
    pub fn run_demo(&self, demo: &Demonstration, mode: ContextMode) -> MonitorRun {
        self.run_demo_with(demo, mode, Precision::F32)
    }

    /// [`TrainedPipeline::run_demo`] on a chosen numeric tier. The
    /// [`Precision::Int8`] path replays through the quantized twin (the
    /// same engine code, quantized forward passes) — this is what the
    /// parity gate evaluates.
    ///
    /// # Panics
    ///
    /// Panics if the demonstration is shorter than either stage's window,
    /// or when asked for [`Precision::Int8`] before
    /// [`TrainedPipeline::quantize`] populated the quantized twin.
    pub fn run_demo_with(
        &self,
        demo: &Demonstration,
        mode: ContextMode,
        precision: Precision,
    ) -> MonitorRun {
        let w = self.config.window.width;
        let gw = self.config.gesture_window;
        assert!(demo.len() >= w.max(gw), "demonstration shorter than window");
        let started = Instant::now();

        let mut engine = InferenceEngine::with_precision(self, mode, precision);
        let mut gesture_pred = vec![0usize; demo.len()];
        let mut unsafe_score = vec![0.0f32; demo.len()];
        let mut first_gesture = None;
        let mut first_score = None;
        for (pos, frame) in demo.frames.iter().enumerate() {
            let step = match mode {
                ContextMode::Perfect => engine.step_with_context(self, frame, demo.gestures[pos]),
                _ => engine.step(self, frame).expect("step only fails in Perfect mode"),
            };
            if let Some(g) = step.gesture {
                first_gesture.get_or_insert(pos);
                gesture_pred[pos] = g.index();
            }
            if let Some(s) = step.unsafe_score {
                first_score.get_or_insert(pos);
                unsafe_score[pos] = s;
            }
        }
        // Warm-up backfill: frames before a stage's first output inherit it.
        if let Some(first) = first_gesture {
            let warm = gesture_pred[first];
            gesture_pred[..first].fill(warm);
        }
        if let Some(first) = first_score {
            let warm = unsafe_score[first];
            unsafe_score[..first].fill(warm);
        }

        let compute_ms = started.elapsed().as_secs_f32() * 1000.0 / demo.len() as f32;
        let unsafe_pred = unsafe_score.iter().map(|&s| s > 0.5).collect();
        MonitorRun { gesture_pred, unsafe_score, unsafe_pred, compute_ms }
    }

    /// Resolves which stage-2 classifier `gesture` routes to in `mode`:
    /// the dedicated per-gesture classifier with global fallback, or the
    /// global classifier alone in [`ContextMode::NoContext`]. `None` when
    /// no classifier exists at all (the score then defaults to 0).
    // lint: hot-path
    pub fn error_route(&self, gesture: usize, mode: ContextMode) -> Option<ErrorRoute> {
        match mode {
            ContextMode::NoContext => self.global_error_net.is_some().then_some(ErrorRoute::Global),
            _ => {
                if self.error_nets.contains_key(&gesture) {
                    Some(ErrorRoute::Dedicated(gesture))
                } else if self.global_error_net.is_some() {
                    Some(ErrorRoute::Global)
                } else {
                    None
                }
            }
        }
    }

    /// The classifier behind a route returned by
    /// [`TrainedPipeline::error_route`].
    ///
    /// # Panics
    ///
    /// Panics if the route does not exist in this pipeline (routes must
    /// come from `error_route` on the same pipeline).
    pub fn error_net(&self, route: ErrorRoute) -> &Network {
        match route {
            ErrorRoute::Dedicated(g) => &self.error_nets[&g],
            ErrorRoute::Global => {
                // lint: allow(panic, reason = "error_route() yields Global only when this pipeline holds a global net; checked at construction")
                self.global_error_net.as_ref().expect("route resolved against this pipeline")
            }
        }
    }

    /// Creates inference scratch fitting any of the stage-2 classifiers
    /// (they are built from one spec, so a single scratch serves every
    /// route). Empty scratch when no error classifier was trained.
    pub fn error_scratch(&self) -> NetworkScratch {
        self.error_nets
            .values()
            .next()
            .or(self.global_error_net.as_ref())
            .map(Network::make_scratch)
            .unwrap_or_default()
    }

    /// Scores one window's unsafe probability, routing to the
    /// gesture-specific classifier (with global fallback) or the global
    /// classifier depending on `mode`; 0 when no classifier exists. The
    /// forward pass writes into `logits`, the softmax into `probs`, and all
    /// intermediate activations into the caller's `scratch`, so the
    /// pipeline itself stays immutable (shareable across threads).
    // lint: hot-path
    pub fn score_window_scratch(
        &self,
        window: &Mat,
        gesture: usize,
        mode: ContextMode,
        logits: &mut Mat,
        probs: &mut [f32; 2],
        scratch: &mut NetworkScratch,
    ) -> f32 {
        match self.error_route(gesture, mode) {
            Some(route) => {
                self.error_net(route).predict_scratch(window, logits, scratch);
                softmax_into(logits.row(0), probs);
                probs[1]
            }
            None => 0.0,
        }
    }

    /// Serializes the pipeline to a checkpoint.
    pub fn save(&mut self) -> SavedPipeline {
        SavedPipeline {
            config: self.config.clone(),
            normalizer: self.normalizer.clone(),
            gesture_normalizer: self.gesture_normalizer.clone(),
            gesture: self.gesture_net.save(),
            errors: self.error_nets.iter_mut().map(|(&g, net)| (g, net.save())).collect(),
            global: self.global_error_net.as_mut().map(|n| n.save()),
            in_dim: self.in_dim,
            gesture_in_dim: self.gesture_in_dim,
        }
    }

    /// Restores a pipeline from a checkpoint.
    pub fn from_saved(saved: SavedPipeline) -> Self {
        Self {
            config: saved.config,
            normalizer: saved.normalizer,
            gesture_normalizer: saved.gesture_normalizer,
            gesture_net: Network::from_saved(&saved.gesture),
            error_nets: saved.errors.iter().map(|(g, s)| (*g, Network::from_saved(s))).collect(),
            global_error_net: saved.global.as_ref().map(Network::from_saved),
            in_dim: saved.in_dim,
            gesture_in_dim: saved.gesture_in_dim,
            quantized: None,
        }
    }

    /// Builds the calibrated int8 twin serving [`Precision::Int8`]
    /// (quantize-after-train), calibrating activation scales from the
    /// demonstrations selected by `calib_idx` (typically the training
    /// fold — calibration must never see test data). Windows are harvested
    /// non-overlapping through the same normalizers the engines apply at
    /// serving time, so calibration sees exactly the serving input
    /// distribution.
    ///
    /// # Errors
    ///
    /// [`QuantError::NoCalibration`] when `calib_idx` selects no windows;
    /// [`QuantError::Unsupported`] if a classifier architecture falls
    /// outside the quantizable layer set (the built-in specs never do).
    pub fn quantize(&mut self, dataset: &Dataset, calib_idx: &[usize]) -> Result<(), QuantError> {
        let cfg = self.config.clone();
        let mut gesture_cal: Vec<Mat> = Vec::new();
        let mut error_cal: Vec<Mat> = Vec::new();
        for &i in calib_idx {
            let d = &dataset.demos[i];
            let gfeats = self.gesture_normalizer.apply(&d.feature_matrix(&cfg.gesture_features));
            let gw = WindowConfig::new(cfg.gesture_window, cfg.gesture_window);
            for (w, _) in windows_with_positions(&gfeats, gw) {
                gesture_cal.push(w);
            }
            let feats = self.normalizer.apply(&d.feature_matrix(&cfg.features));
            let ew = WindowConfig::new(cfg.window.width, cfg.window.width);
            for (w, _) in windows_with_positions(&feats, ew) {
                error_cal.push(w);
            }
        }
        let gesture_net = QuantizedNetwork::quantize(&mut self.gesture_net, &gesture_cal)?;
        let mut error_nets = BTreeMap::new();
        for (&g, net) in self.error_nets.iter_mut() {
            error_nets.insert(g, QuantizedNetwork::quantize(net, &error_cal)?);
        }
        let global_error_net = match self.global_error_net.as_mut() {
            Some(net) => Some(QuantizedNetwork::quantize(net, &error_cal)?),
            None => None,
        };
        self.quantized = Some(QuantizedPipeline { gesture_net, error_nets, global_error_net });
        Ok(())
    }

    /// [`TrainedPipeline::score_window_scratch`] on the int8 tier: same
    /// routing, quantized forward pass.
    ///
    /// # Panics
    ///
    /// Panics if [`TrainedPipeline::quantize`] has not populated the
    /// quantized twin (engines validate this at construction).
    // lint: hot-path
    pub fn score_window_scratch_q(
        &self,
        window: &Mat,
        gesture: usize,
        mode: ContextMode,
        logits: &mut Mat,
        probs: &mut [f32; 2],
        scratch: &mut QuantScratch,
    ) -> f32 {
        match self.error_route(gesture, mode) {
            Some(route) => {
                let quantized = self.quantized.as_ref().expect("quantize() before Int8 scoring");
                quantized.error_net(route).predict_scratch(window, logits, scratch);
                softmax_into(logits.row(0), probs);
                probs[1]
            }
            None => 0.0,
        }
    }
}

fn train_binary(
    cfg: &MonitorConfig,
    in_dim: usize,
    train: &[Sample],
    val: &[Sample],
    seed: u64,
) -> Network {
    let labels: Vec<usize> = train.iter().map(|(_, y)| *y).collect();
    let mut tc: TrainConfig = cfg.train.clone();
    tc.class_weights = Some(inverse_frequency_weights(&labels, 2));
    tc.seed = seed;
    let mut net = Network::new(error_classifier_spec(cfg, in_dim), seed);
    train_classifier(&mut net, train, val, &tc);
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use gestures::Task;
    use jigsaws::{generate, GeneratorConfig};
    use kinematics::FeatureSet;

    fn tiny_dataset() -> Dataset {
        generate(&GeneratorConfig::fast(Task::Suturing).with_seed(21))
    }

    fn tiny_cfg() -> MonitorConfig {
        let mut cfg = MonitorConfig::fast(FeatureSet::CRG).with_seed(3);
        cfg.train.epochs = 4;
        cfg.train_stride = 4;
        cfg
    }

    #[test]
    fn pipeline_trains_and_runs() {
        let ds = tiny_dataset();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let (p, stats) = TrainedPipeline::train_with_stats(&ds, &idx, &tiny_cfg());
        assert!(!stats.is_empty());
        assert!(!p.error_nets.is_empty(), "no dedicated error classifiers trained");
        assert!(p.global_error_net.is_some());

        let run = p.run_demo(&ds.demos[0], ContextMode::Predicted);
        assert_eq!(run.gesture_pred.len(), ds.demos[0].len());
        assert_eq!(run.unsafe_score.len(), ds.demos[0].len());
        assert!(run.unsafe_score.iter().all(|s| (0.0..=1.0).contains(s)));
        assert!(run.compute_ms.is_finite() && run.compute_ms > 0.0);
    }

    #[test]
    fn perfect_mode_uses_ground_truth_gestures() {
        let ds = tiny_dataset();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let p = TrainedPipeline::train(&ds, &idx, &tiny_cfg());
        let run = p.run_demo(&ds.demos[1], ContextMode::Perfect);
        let truth = ds.demos[1].gesture_indices();
        // After the warm-up, predictions equal ground truth exactly.
        let w = p.config.window.width;
        assert_eq!(&run.gesture_pred[w..], &truth[w..]);
    }

    #[test]
    fn save_load_roundtrip_preserves_outputs() {
        let ds = tiny_dataset();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let mut p = TrainedPipeline::train(&ds, &idx, &tiny_cfg());
        let before = p.run_demo(&ds.demos[0], ContextMode::Predicted);
        let json = serde_json::to_string(&p.save()).unwrap();
        let saved: SavedPipeline = serde_json::from_str(&json).unwrap();
        let restored = TrainedPipeline::from_saved(saved);
        let after = restored.run_demo(&ds.demos[0], ContextMode::Predicted);
        assert_eq!(before.gesture_pred, after.gesture_pred);
        assert_eq!(before.unsafe_pred, after.unsafe_pred);
    }

    #[test]
    fn training_is_deterministic() {
        let ds = tiny_dataset();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let a = TrainedPipeline::train(&ds, &idx, &tiny_cfg());
        let b = TrainedPipeline::train(&ds, &idx, &tiny_cfg());
        let ra = a.run_demo(&ds.demos[2], ContextMode::Predicted);
        let rb = b.run_demo(&ds.demos[2], ContextMode::Predicted);
        // compute_ms is wall-clock time and legitimately differs.
        assert_eq!(ra.gesture_pred, rb.gesture_pred);
        assert_eq!(ra.unsafe_score, rb.unsafe_score);
        assert_eq!(ra.unsafe_pred, rb.unsafe_pred);
    }
}
