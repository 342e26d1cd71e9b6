//! Pipeline evaluation: the measurements behind Tables VII, VIII, IX and
//! Figs. 8/9.

use crate::pipeline::{ContextMode, MonitorRun, TrainedPipeline};
use eval::{
    auc, frames_to_ms, gesture_jitter, measure_reactions, BinaryCounts, ConfusionMatrix,
    ErrorEvent, RocCurve, Summary,
};
use gestures::NUM_GESTURES;
use kinematics::{Dataset, Demonstration};
use serde::{Deserialize, Serialize};

/// Evaluation of one test demonstration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DemoEval {
    /// Demonstration id.
    pub demo_id: String,
    /// AUC of the unsafe class (None when the demo has a single class).
    pub auc: Option<f32>,
    /// Frame-level F1 of the unsafe class (None when the demo has no
    /// unsafe frames).
    pub f1: Option<f32>,
    /// Reaction time per detected error event, milliseconds (Equation 4;
    /// positive = early).
    pub reaction_ms: Vec<f32>,
    /// Number of error events detected before their occurrence.
    pub early: usize,
    /// Total error events.
    pub events: usize,
    /// Mean per-window inference time (ms).
    pub compute_ms: f32,
    /// Per-frame unsafe scores (kept for ROC pooling / Fig. 9).
    pub scores: Vec<f32>,
    /// Ground-truth per-frame unsafe labels.
    pub labels: Vec<bool>,
}

/// Evaluation of the pipeline over a test fold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineEval {
    /// Context mode evaluated.
    pub mode: ContextMode,
    /// Per-demonstration results.
    pub demos: Vec<DemoEval>,
    /// Sampling rate (for ms conversions).
    pub hz: f32,
}

/// Lookback (seconds) when matching detections to error events: a detection
/// slightly before the erroneous gesture still counts and yields a positive
/// reaction time (§IV-C, Fig. 8).
pub const REACTION_LOOKBACK_S: f32 = 1.0;

/// Builds [`eval::ErrorEvent`]s from a demonstration's annotations.
pub fn error_events(demo: &Demonstration) -> Vec<ErrorEvent> {
    demo.errors
        .iter()
        .map(|e| ErrorEvent {
            gesture: e.gesture.index(),
            span_start: e.span_start,
            span_end: e.span_end,
            actual_frame: e.actual_frame,
        })
        .collect()
}

/// Evaluates one run against its demonstration.
pub fn evaluate_run(demo: &Demonstration, run: &MonitorRun) -> DemoEval {
    let labels = demo.unsafe_labels.clone();
    let auc = auc(&run.unsafe_score, &labels);
    let has_positives = labels.iter().any(|&l| l);
    let f1 = has_positives.then(|| BinaryCounts::from_predictions(&run.unsafe_pred, &labels).f1());

    let lookback = (REACTION_LOOKBACK_S * demo.hz) as usize;
    let events = error_events(demo);
    let reactions = measure_reactions(&events, &run.unsafe_pred, lookback);
    let reaction_ms: Vec<f32> = reactions
        .iter()
        .filter_map(|r| r.reaction_frames())
        .map(|f| frames_to_ms(f, demo.hz))
        .collect();
    let early = reactions.iter().filter(|r| r.reaction_frames().is_some_and(|f| f > 0)).count();

    DemoEval {
        demo_id: demo.id.clone(),
        auc,
        f1,
        reaction_ms,
        early,
        events: events.len(),
        compute_ms: run.compute_ms,
        scores: run.unsafe_score.clone(),
        labels,
    }
}

/// Runs and evaluates the pipeline over the selected test demonstrations.
pub fn evaluate_pipeline(
    pipeline: &TrainedPipeline,
    dataset: &Dataset,
    test_idx: &[usize],
    mode: ContextMode,
) -> PipelineEval {
    let mut demos = Vec::with_capacity(test_idx.len());
    let mut hz = 30.0;
    for &i in test_idx {
        let demo = &dataset.demos[i];
        hz = demo.hz;
        let run = pipeline.run_demo(demo, mode);
        demos.push(evaluate_run(demo, &run));
    }
    PipelineEval { mode, demos, hz }
}

impl PipelineEval {
    /// Mean ± std of per-demo AUC (demos with defined AUC).
    pub fn auc_summary(&self) -> Summary {
        Summary::of(&self.demos.iter().filter_map(|d| d.auc).collect::<Vec<_>>())
    }

    /// Mean ± std of per-demo F1 (demos containing unsafe frames).
    pub fn f1_summary(&self) -> Summary {
        Summary::of(&self.demos.iter().filter_map(|d| d.f1).collect::<Vec<_>>())
    }

    /// Mean ± std reaction time over all detected error events (ms).
    pub fn reaction_summary(&self) -> Summary {
        let all: Vec<f32> = self.demos.iter().flat_map(|d| d.reaction_ms.clone()).collect();
        Summary::of(&all)
    }

    /// The paper's "% Early Detection": early detections over all events.
    pub fn early_detection_rate(&self) -> f32 {
        let events: usize = self.demos.iter().map(|d| d.events).sum();
        if events == 0 {
            return f32::NAN;
        }
        let early: usize = self.demos.iter().map(|d| d.early).sum();
        early as f32 / events as f32
    }

    /// Mean per-window compute time (ms).
    pub fn compute_ms(&self) -> f32 {
        let v: Vec<f32> =
            self.demos.iter().map(|d| d.compute_ms).filter(|c| c.is_finite()).collect();
        eval::mean(&v)
    }

    /// Per-demo ROC curves sorted by AUC (worst, …, best) — Fig. 9 picks
    /// worst/median/best.
    pub fn roc_curves(&self) -> Vec<(String, RocCurve)> {
        let mut curves: Vec<(String, RocCurve)> = self
            .demos
            .iter()
            .filter_map(|d| {
                RocCurve::from_scores(&d.scores, &d.labels).map(|c| (d.demo_id.clone(), c))
            })
            .collect();
        curves
            .sort_by(|a, b| a.1.auc().partial_cmp(&b.1.auc()).unwrap_or(std::cmp::Ordering::Equal));
        curves
    }

    /// One formatted Table VIII row.
    pub fn table8_row(&self, label: &str) -> String {
        format!(
            "{label:<55} AUC {}  F1 {}  react {:+.0} ms (±{:.0})  early {:.1}%  compute {:.2} ms",
            self.auc_summary(),
            self.f1_summary(),
            self.reaction_summary().mean,
            self.reaction_summary().std,
            100.0 * self.early_detection_rate(),
            self.compute_ms()
        )
    }
}

/// Per-gesture evaluation (Table IX).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GestureRow {
    /// Gesture class index.
    pub gesture: usize,
    /// Frame-level gesture detection accuracy (recall).
    pub detection_accuracy: f32,
    /// Mean jitter across all segments of this gesture (ms; positive =
    /// early).
    pub avg_jitter_ms: f32,
    /// Mean jitter across erroneous segments only (ms).
    pub avg_jitter_err_ms: f32,
    /// Mean reaction time over this gesture's error events (ms).
    pub avg_reaction_ms: f32,
    /// Frame-level F1 of the unsafe class restricted to this gesture.
    pub f1_err: f32,
    /// Number of error events.
    pub events: usize,
    /// Number of segments observed.
    pub segments: usize,
}

/// Computes the Table IX per-gesture breakdown over a test fold.
pub fn per_gesture_report(
    pipeline: &TrainedPipeline,
    dataset: &Dataset,
    test_idx: &[usize],
    mode: ContextMode,
) -> Vec<GestureRow> {
    let mut confusion = ConfusionMatrix::new(NUM_GESTURES);
    let mut jitter_all: Vec<Vec<f32>> = vec![Vec::new(); NUM_GESTURES];
    let mut jitter_err: Vec<Vec<f32>> = vec![Vec::new(); NUM_GESTURES];
    let mut reactions: Vec<Vec<f32>> = vec![Vec::new(); NUM_GESTURES];
    let mut counts: Vec<BinaryCounts> = vec![BinaryCounts::default(); NUM_GESTURES];
    let mut events_n = [0usize; NUM_GESTURES];
    let mut segments_n = [0usize; NUM_GESTURES];

    for &i in test_idx {
        let demo = &dataset.demos[i];
        let run = pipeline.run_demo(demo, mode);
        let truth = demo.gesture_indices();
        let lookback = (REACTION_LOOKBACK_S * demo.hz) as usize;

        for (t, &g) in truth.iter().enumerate() {
            confusion.record(g, run.gesture_pred[t]);
            counts[g].record(run.unsafe_pred[t], demo.unsafe_labels[t]);
        }

        for m in gesture_jitter(&truth, &run.gesture_pred, lookback) {
            segments_n[m.gesture] += 1;
            if let Some(j) = m.jitter_frames() {
                let ms = frames_to_ms(j, demo.hz);
                jitter_all[m.gesture].push(ms);
                let erroneous = demo
                    .errors
                    .iter()
                    .any(|e| e.gesture.index() == m.gesture && e.span_start == m.onset);
                if erroneous {
                    jitter_err[m.gesture].push(ms);
                }
            }
        }

        let events = error_events(demo);
        for r in measure_reactions(&events, &run.unsafe_pred, lookback) {
            events_n[r.event.gesture] += 1;
            if let Some(f) = r.reaction_frames() {
                reactions[r.event.gesture].push(frames_to_ms(f, demo.hz));
            }
        }
    }

    (0..NUM_GESTURES)
        .filter(|&g| segments_n[g] > 0)
        .map(|g| GestureRow {
            gesture: g,
            detection_accuracy: confusion.class_recall(g),
            avg_jitter_ms: eval::mean(&jitter_all[g]),
            avg_jitter_err_ms: eval::mean(&jitter_err[g]),
            avg_reaction_ms: eval::mean(&reactions[g]),
            f1_err: counts[g].f1(),
            events: events_n[g],
            segments: segments_n[g],
        })
        .collect()
}

/// Nearest-rank percentile — re-exported from the workspace's one
/// statistics home ([`eval::percentile`], next to `mean`/`median`) for the
/// report renderers below.
pub use eval::percentile;

/// Per-decision latency distribution of a serving pool — the Table VIII
/// "average computation time" claim, upgraded from a mean to the tail
/// percentiles a production deployment is actually provisioned against.
/// Produced by `serve::ShardedMonitorPool::stats`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Decisions measured (warm frames only; warm-up frames carry no
    /// compute time).
    pub count: usize,
    /// Mean per-decision compute time (ms).
    pub mean_ms: f32,
    /// Median (ms). Histogram-quantized: reported as the containing
    /// bucket's upper edge, ≤ ~6% above the true quantile.
    pub p50_ms: f32,
    /// 99th percentile (ms). Histogram-quantized: reported as the
    /// containing bucket's upper edge, ≤ ~6% above the true quantile.
    pub p99_ms: f32,
    /// Exact maximum (ms).
    pub max_ms: f32,
}

impl LatencyStats {
    /// An empty measurement (no decisions yet).
    pub fn empty() -> Self {
        Self { count: 0, mean_ms: f32::NAN, p50_ms: f32::NAN, p99_ms: f32::NAN, max_ms: f32::NAN }
    }
}

impl std::fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.count == 0 {
            return f.write_str("latency: no decisions measured");
        }
        write!(
            f,
            "latency over {} decisions: mean {:.3} ms  p50 {:.3} ms  p99 {:.3} ms  max {:.3} ms",
            self.count, self.mean_ms, self.p50_ms, self.p99_ms, self.max_ms
        )
    }
}

/// Latency decomposition of a serving pool: per-decision **compute** (the
/// micro-batched forward passes, amortized per frame) and **ingress-to-egress
/// queueing** (frame submit → decision drain, wall clock), so the closed-loop
/// reaction-time margin can be decomposed into model time vs. load-induced
/// waiting under fleet traffic. Produced by
/// `serve::ShardedMonitorPool::stats`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Per-decision compute time. Warm decisions only: warm-up frames carry
    /// no compute measurement.
    pub compute: LatencyStats,
    /// Ingress-to-egress latency of **every** drained decision (warm-up
    /// frames queue like any other), measured from the `submit` call to the
    /// moment the pool drained the decision from its queue home.
    pub queue: LatencyStats,
    /// Live sessions per shard at the moment of the snapshot — the
    /// occupancy the elastic placement policy balances (sessions land on
    /// the least-occupied shard; removals free their slot). Sums to the
    /// pool's live session count.
    pub occupancy: Vec<usize>,
}

impl std::fmt::Display for PoolStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let live: usize = self.occupancy.iter().sum();
        write!(
            f,
            "compute  | {}\nqueueing | {}\nshards   | occupancy {:?} ({live} live session(s))",
            self.compute, self.queue, self.occupancy
        )
    }
}

/// Headline numbers of a closed-loop (twin-run) fault-injection campaign:
/// how often the reactor prevented the unsafe event the unmonitored twin
/// suffered, how often it stopped a trial that would have succeeded, and
/// how much reaction-time margin the alerts left. Filled in by
/// `faults::ClosedLoopReport::summary` and rendered by the
/// `repro_closed_loop` bench binary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClosedLoopSummary {
    /// Twin-run injections.
    pub injections: usize,
    /// Unmonitored twins that suffered the preventable unsafe event (a
    /// block drop).
    pub baseline_unsafe: usize,
    /// Of those, trials whose monitored twin did **not** drop the block.
    pub prevented: usize,
    /// Unmonitored twins that completed the task successfully.
    pub baseline_successes: usize,
    /// Of those, trials where the reactor engaged mitigation anyway.
    pub false_stops: usize,
    /// Monitored twins that raised at least one alert.
    pub alerted: usize,
    /// Reaction-time margins (ms): first alert to the counterfactual unsafe
    /// event of the unmonitored twin; positive = the alert came early.
    pub margins_ms: Vec<f32>,
}

impl ClosedLoopSummary {
    /// Prevented unsafe events over baseline unsafe events. The unmonitored
    /// baseline prevents nothing by construction, so any positive value
    /// beats it. `NaN` when the baseline had no unsafe events.
    pub fn prevention_rate(&self) -> f32 {
        if self.baseline_unsafe == 0 {
            return f32::NAN;
        }
        self.prevented as f32 / self.baseline_unsafe as f32
    }

    /// Mitigations engaged on would-have-succeeded trials, over baseline
    /// successes. `NaN` when the baseline never succeeded.
    pub fn false_stop_rate(&self) -> f32 {
        if self.baseline_successes == 0 {
            return f32::NAN;
        }
        self.false_stops as f32 / self.baseline_successes as f32
    }

    /// Fraction of measured margins that are positive (alert strictly
    /// before the counterfactual unsafe event).
    pub fn early_fraction(&self) -> f32 {
        if self.margins_ms.is_empty() {
            return f32::NAN;
        }
        self.margins_ms.iter().filter(|&&m| m > 0.0).count() as f32 / self.margins_ms.len() as f32
    }

    /// Renders the summary block of the reaction-time table. Undefined
    /// rates (no baseline unsafe events / no baseline successes) render as
    /// `n/a` instead of `NaN%`.
    pub fn render(&self) -> String {
        let pct = |rate: f32| {
            if rate.is_nan() {
                "n/a".to_string()
            } else {
                format!("{:.1}%", 100.0 * rate)
            }
        };
        let margins = &self.margins_ms;
        let mut out = String::new();
        out.push_str(&format!(
            "closed loop over {} twin-run injections\n\
             prevention:  {}/{} baseline block-drops prevented ({}; unmonitored baseline: 0%)\n\
             false stops: {}/{} baseline successes interrupted ({})\n",
            self.injections,
            self.prevented,
            self.baseline_unsafe,
            pct(self.prevention_rate()),
            self.false_stops,
            self.baseline_successes,
            pct(self.false_stop_rate()),
        ));
        if margins.is_empty() {
            out.push_str("reaction margin: no alerted baseline-unsafe trials\n");
        } else {
            out.push_str(&format!(
                "reaction margin ({} events): mean {:+.0} ms  p50 {:+.0} ms  min {:+.0} ms  \
                 max {:+.0} ms  early {:.1}%\n",
                margins.len(),
                eval::mean(margins),
                percentile(margins, 0.5),
                margins.iter().copied().fold(f32::INFINITY, f32::min),
                margins.iter().copied().fold(f32::NEG_INFINITY, f32::max),
                100.0 * self.early_fraction(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MonitorConfig;
    use gestures::Task;
    use jigsaws::{generate, GeneratorConfig};
    use kinematics::FeatureSet;

    fn setup() -> (TrainedPipeline, Dataset, Vec<usize>, Vec<usize>) {
        let ds = generate(&GeneratorConfig::fast(Task::Suturing).with_seed(41).with_demos(10));
        let mut cfg = MonitorConfig::fast(FeatureSet::CRG).with_seed(9);
        cfg.train.epochs = 5;
        cfg.train_stride = 3;
        let folds = ds.loso_folds();
        let fold = &folds[0];
        let p = TrainedPipeline::train(&ds, &fold.train, &cfg);
        (p, ds.clone(), fold.train.clone(), fold.test.clone())
    }

    #[test]
    fn evaluation_produces_finite_metrics() {
        let (p, ds, _, test) = setup();
        let eval = evaluate_pipeline(&p, &ds, &test, ContextMode::Predicted);
        assert_eq!(eval.demos.len(), test.len());
        let auc = eval.auc_summary();
        assert!(auc.n > 0, "no demo produced a defined AUC");
        assert!(auc.mean > 0.0 && auc.mean <= 1.0);
        assert!(eval.compute_ms().is_finite());
        assert!(!eval.table8_row("test").is_empty());
    }

    #[test]
    fn perfect_context_is_at_least_as_good_on_gestures() {
        let (p, ds, _, test) = setup();
        let rows_perfect = per_gesture_report(&p, &ds, &test, ContextMode::Perfect);
        // With perfect boundaries, gesture detection accuracy is 1 for all
        // gestures (modulo the warm-up backfill).
        for r in &rows_perfect {
            assert!(
                r.detection_accuracy > 0.9,
                "gesture {} accuracy {} under perfect context",
                r.gesture,
                r.detection_accuracy
            );
        }
    }

    #[test]
    fn per_gesture_rows_cover_observed_gestures() {
        let (p, ds, _, test) = setup();
        let rows = per_gesture_report(&p, &ds, &test, ContextMode::Predicted);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.segments > 0);
            assert!((0.0..=1.0).contains(&r.detection_accuracy) || r.detection_accuracy.is_nan());
        }
    }

    #[test]
    fn latency_stats_render_without_panicking() {
        assert!(LatencyStats::empty().to_string().contains("no decisions"));
        let s = LatencyStats { count: 10, mean_ms: 1.0, p50_ms: 0.9, p99_ms: 2.0, max_ms: 2.5 };
        let text = s.to_string();
        assert!(text.contains("p99") && text.contains("10 decisions"));
    }

    #[test]
    fn closed_loop_summary_rates_and_rendering() {
        let s = ClosedLoopSummary {
            injections: 20,
            baseline_unsafe: 10,
            prevented: 7,
            baseline_successes: 6,
            false_stops: 1,
            alerted: 12,
            margins_ms: vec![300.0, -40.0, 120.0, 500.0],
        };
        assert!((s.prevention_rate() - 0.7).abs() < 1e-6);
        assert!((s.false_stop_rate() - 1.0 / 6.0).abs() < 1e-6);
        assert!((s.early_fraction() - 0.75).abs() < 1e-6);
        let text = s.render();
        assert!(text.contains("7/10") && text.contains("1/6"));

        let empty = ClosedLoopSummary {
            injections: 0,
            baseline_unsafe: 0,
            prevented: 0,
            baseline_successes: 0,
            false_stops: 0,
            alerted: 0,
            margins_ms: Vec::new(),
        };
        assert!(empty.prevention_rate().is_nan());
        assert!(empty.false_stop_rate().is_nan());
        let text = empty.render();
        assert!(text.contains("no alerted"));
        assert!(text.contains("(n/a;") && !text.contains("NaN"), "undefined rates render as n/a");
    }

    #[test]
    fn roc_curves_are_sorted_by_auc() {
        let (p, ds, _, test) = setup();
        let eval = evaluate_pipeline(&p, &ds, &test, ContextMode::Predicted);
        let curves = eval.roc_curves();
        for w in curves.windows(2) {
            assert!(w[0].1.auc() <= w[1].1.auc() + 1e-6);
        }
    }
}
