//! Criterion benches for the paper's compute-time claims (Table VIII:
//! 1.5–3.2 ms per sample on the authors' GPU workstation; our scaled-down
//! models on CPU should land in the same order of magnitude).
//!
//! Every decision runs through the engine's step (`step` is a one-job
//! `step_batch` tick), so that step is what is timed: `engine_step_frame`
//! on the f32 tier and `engine_step_frame_int8` on the quantized one.

use bench::{jigsaws_dataset, suturing_monitor_cfg, Scale};
use context_monitor::{ContextMode, InferenceEngine, Precision, TrainedPipeline};
use criterion::{criterion_group, criterion_main, Criterion};
use gestures::Task;
use std::hint::black_box;

fn bench_inference(c: &mut Criterion) {
    let ds = jigsaws_dataset(Task::Suturing, Scale::Fast);
    let mut cfg = suturing_monitor_cfg(Scale::Fast);
    cfg.train.epochs = 2; // weights don't affect latency
    cfg.train_stride = 6;
    let idx: Vec<usize> = (0..ds.len()).collect();
    let mut pipeline = TrainedPipeline::train(&ds, &idx, &cfg);
    pipeline.quantize(&ds, &idx).expect("the pipeline's classifiers quantize");
    let demo = &ds.demos[0];

    // Streaming engine: cost of one frame step end-to-end (feature
    // extraction, normalization, windowing, both stages, smoothing) on
    // each tier, stepping through the demo's consecutive frames (wrapping
    // at its end) so the windows hold a real stream.
    let warm = cfg.window.width.max(cfg.gesture_window);
    for (name, precision) in
        [("engine_step_frame", Precision::F32), ("engine_step_frame_int8", Precision::Int8)]
    {
        let mut engine =
            InferenceEngine::with_precision(&pipeline, ContextMode::Predicted, precision);
        for frame in demo.frames.iter().take(warm) {
            let _ = engine.step(&pipeline, frame);
        }
        let mut next = warm;
        c.bench_function(name, |b| {
            b.iter(|| {
                let frame = &demo.frames[next % demo.len()];
                next += 1;
                black_box(engine.step(&pipeline, black_box(frame)))
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(40);
    targets = bench_inference
}
criterion_main!(benches);
