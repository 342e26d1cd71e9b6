//! Quickstart: train the context-aware safety monitor on synthetic Suturing
//! demonstrations and stream a held-out trial through it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use context_monitor::{ContextMode, InferenceEngine, MonitorConfig, TrainedPipeline};
use gestures::Task;
use jigsaws::{generate, GeneratorConfig};
use kinematics::FeatureSet;
use std::time::Instant;

fn main() {
    // 1. Data: JIGSAWS-like Suturing demonstrations (synthetic; see
    //    DESIGN.md for the substitution rationale).
    let dataset = generate(&GeneratorConfig::fast(Task::Suturing).with_demos(12).with_seed(7));
    let folds = dataset.loso_folds();
    let fold = &folds[0];
    println!(
        "dataset: {} demos, {} frames, fold 1 trains on {} / tests on {}",
        dataset.len(),
        dataset.total_frames(),
        fold.train.len(),
        fold.test.len()
    );

    // 2. Train the two-stage pipeline (gesture classifier + per-gesture
    //    erroneous-gesture classifiers).
    let cfg = MonitorConfig::fast(FeatureSet::CRG).with_seed(7);
    let pipeline = TrainedPipeline::train(&dataset, &fold.train, &cfg);
    println!(
        "trained gesture classifier + {} gesture-specific error classifiers",
        pipeline.dedicated_gestures().len()
    );

    // 3. Stream a test demonstration through one session's engine; the
    //    alert threshold is 0.5.
    let demo = &dataset.demos[fold.test[0]];
    let mut engine = InferenceEngine::new(&pipeline, ContextMode::Predicted);
    let mut alerts = 0usize;
    let mut last_gesture = None;
    for (t, frame) in demo.frames.iter().enumerate() {
        let start = Instant::now();
        let step = engine.step(&pipeline, frame).expect("Predicted mode cannot fail");
        let compute_ms = start.elapsed().as_secs_f32() * 1000.0;
        if let Some((gesture, p)) = step.complete() {
            if last_gesture != Some(gesture) {
                println!(
                    "t={:>5.2}s  context -> {} ({})",
                    t as f32 / demo.hz,
                    gesture,
                    gesture.description()
                );
                last_gesture = Some(gesture);
            }
            if p > 0.5 {
                alerts += 1;
                if alerts <= 5 {
                    println!(
                        "t={:>5.2}s  ALERT: unsafe {} (p = {:.2}, inference {:.2} ms)",
                        t as f32 / demo.hz,
                        gesture,
                        p,
                        compute_ms
                    );
                }
            }
        }
    }
    println!(
        "\n{}: {} frames, {} ground-truth unsafe frames, {} alerts raised",
        demo.id,
        demo.len(),
        demo.unsafe_frames(),
        alerts
    );
}
