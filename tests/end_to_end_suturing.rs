//! End-to-end integration test: the dVRK/Suturing path of the paper.
//!
//! Generates synthetic JIGSAWS-like data, trains the two-stage pipeline on
//! a LOSO fold, and checks the paper's headline qualitative claims: the
//! monitor detects unsafe events with above-chance AUC, the perfect-boundary
//! upper bound is at least as good as predicted context, and the streaming
//! monitor agrees with the offline evaluation.

use context_monitor::{
    evaluate_pipeline, ContextMode, InferenceEngine, MonitorConfig, TrainedPipeline,
};
use gestures::Task;
use jigsaws::{generate, GeneratorConfig};
use kinematics::FeatureSet;

fn setup() -> (kinematics::Dataset, kinematics::Fold, MonitorConfig) {
    let dataset = generate(
        &GeneratorConfig {
            num_demos: 15,
            duration_scale: 0.4,
            max_gestures: 12,
            ..GeneratorConfig::new(Task::Suturing)
        }
        .with_seed(1234),
    );
    let fold = dataset.loso_folds().into_iter().next().expect("a fold");
    let mut cfg = MonitorConfig::fast(FeatureSet::CRG).with_seed(1234);
    cfg.train.epochs = 10;
    cfg.train_stride = 3;
    (dataset, fold, cfg)
}

#[test]
fn monitor_detects_unsafe_events_above_chance() {
    let (dataset, fold, cfg) = setup();
    let pipeline = TrainedPipeline::train(&dataset, &fold.train, &cfg);

    let perfect = evaluate_pipeline(&pipeline, &dataset, &fold.test, ContextMode::Perfect);
    let auc = perfect.auc_summary();
    assert!(auc.n > 0, "no demo with a defined AUC");
    assert!(auc.mean > 0.65, "perfect-boundary AUC {} should be clearly above chance", auc.mean);

    let predicted = evaluate_pipeline(&pipeline, &dataset, &fold.test, ContextMode::Predicted);
    // Upper bound property (Table VIII): perfect boundaries >= predicted,
    // with slack for the small fast-scale models.
    assert!(
        auc.mean >= predicted.auc_summary().mean - 0.08,
        "perfect {} should not be clearly worse than predicted {}",
        auc.mean,
        predicted.auc_summary().mean
    );
}

#[test]
fn pipeline_reports_timeliness_metrics() {
    let (dataset, fold, cfg) = setup();
    let pipeline = TrainedPipeline::train(&dataset, &fold.train, &cfg);
    let eval = evaluate_pipeline(&pipeline, &dataset, &fold.test, ContextMode::Perfect);

    let events: usize = eval.demos.iter().map(|d| d.events).sum();
    let detected: usize = eval.demos.iter().map(|d| d.reaction_ms.len()).sum();
    assert!(events > 0, "test fold should contain annotated errors");
    assert!(
        detected * 2 >= events,
        "at least half of the {events} error events should be detected, got {detected}"
    );
    assert!(eval.compute_ms().is_finite() && eval.compute_ms() > 0.0);
    // Reaction times exist and are finite.
    let summary = eval.reaction_summary();
    assert!(summary.n == detected);
    assert!(summary.mean.is_finite());
}

#[test]
fn streaming_and_offline_agree_end_to_end() {
    let (dataset, fold, cfg) = setup();
    let pipeline = TrainedPipeline::train(&dataset, &fold.train, &cfg);
    let demo = &dataset.demos[fold.test[0]];
    let offline = pipeline.run_demo(demo, ContextMode::Predicted);

    let warm = cfg.window.width.max(cfg.gesture_window);
    let mut engine = InferenceEngine::new(&pipeline, ContextMode::Predicted);
    let mut online = Vec::new();
    for frame in &demo.frames {
        let step = engine.step(&pipeline, frame).expect("Predicted mode cannot fail");
        if let Some((gesture, score)) = step.complete() {
            online.push((gesture.index(), score > 0.5));
        }
    }
    assert_eq!(online.len(), demo.len() - warm + 1);
    for (t, (g, alert)) in online.iter().enumerate() {
        let pos = warm - 1 + t;
        assert_eq!(*g, offline.gesture_pred[pos], "gesture mismatch at frame {pos}");
        assert_eq!(*alert, offline.unsafe_pred[pos], "alert mismatch at frame {pos}");
    }
}

#[test]
fn loso_folds_do_not_leak_demonstrations() {
    let (dataset, _, _) = setup();
    for fold in dataset.loso_folds() {
        for i in &fold.test {
            assert!(!fold.train.contains(i), "demo {i} in both train and test");
            // Every test demo's supertrial equals the fold's held-out one.
            assert_eq!(dataset.demos[*i].supertrial, fold.supertrial);
        }
    }
}
