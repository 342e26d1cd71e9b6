//! Criterion benches for the paper's compute-time claims (Table VIII:
//! 1.5–3.2 ms per sample on the authors' GPU workstation; our scaled-down
//! models on CPU should land in the same order of magnitude).
//!
//! Each stage is measured twice: once through the historical allocating
//! path (`Network::predict`, fresh activation buffers per window — what
//! both the offline and online code used before the `InferenceEngine`
//! refactor) and once through the allocation-free scratch path
//! (`Network::predict_scratch` / `score_window_scratch`, caller-owned
//! scratch buffers). The `_alloc` rows are the pre-refactor baseline the
//! acceptance criterion compares against. The engine runs its stages
//! through `step_batch`'s tick (`step` is a one-job tick), not through
//! `score_window_scratch`; `engine_step_frame` times that whole step on the
//! f32 tier and `engine_step_frame_int8` on the quantized one.

use bench::{jigsaws_dataset, suturing_monitor_cfg, Scale};
use context_monitor::{ContextMode, InferenceEngine, Precision, TrainedPipeline};
use criterion::{criterion_group, criterion_main, Criterion};
use gestures::Task;
use nn::Mat;
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
    // Stage-specific windows: the gesture stage uses its own (wider)
    // feature window than the error stage.
    let feats = pipeline.normalizer.apply(&demo.feature_matrix(&cfg.features));
    let window = feats.slice_rows(0, cfg.window.width);
    let gfeats = pipeline.gesture_normalizer.apply(&demo.feature_matrix(&cfg.gesture_features));
    let gwindow = gfeats.slice_rows(0, cfg.gesture_window);

    // Stage 1 per window: allocating baseline vs reused buffers.
    c.bench_function("gesture_window_alloc (pre-refactor)", |b| {
        b.iter(|| black_box(pipeline.gesture_net.predict(black_box(&gwindow))))
    });
    let mut logits = Mat::zeros(0, 0);
    let mut gscratch = pipeline.gesture_net.make_scratch();
    c.bench_function("gesture_window_into (engine path)", |b| {
        b.iter(|| {
            pipeline.gesture_net.predict_scratch(black_box(&gwindow), &mut logits, &mut gscratch);
            black_box(logits.argmax_row(0))
        })
    });

    // Stage 2 per window. The baseline reproduces the literal pre-refactor
    // implementation (the historical `predict_proba`): a caching `forward`
    // pass plus a fresh softmax Vec per window.
    let g = *pipeline.error_nets.keys().next().expect("a dedicated classifier");
    c.bench_function("error_window_alloc (pre-refactor)", |b| {
        let net = pipeline.error_nets.get_mut(&g).expect("dedicated classifier");
        b.iter(|| black_box(nn::loss::softmax(net.predict(black_box(&window)).row(0))[1]))
    });
    let mut probs = [0.0f32; 2];
    let mut escratch = pipeline.error_scratch();
    c.bench_function("error_window_into (scratch path)", |b| {
        b.iter(|| {
            black_box(pipeline.score_window_scratch(
                black_box(&window),
                g,
                ContextMode::Perfect,
                &mut logits,
                &mut probs,
                &mut escratch,
            ))
        })
    });

    // Full two-stage decision per window.
    c.bench_function("full_pipeline_window (scratch path)", |b| {
        b.iter(|| {
            pipeline.gesture_net.predict_scratch(black_box(&gwindow), &mut logits, &mut gscratch);
            let g = logits.argmax_row(0);
            black_box(pipeline.score_window_scratch(
                &window,
                g,
                ContextMode::Predicted,
                &mut logits,
                &mut probs,
                &mut escratch,
            ))
        })
    });

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
