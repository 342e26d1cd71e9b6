//! Per-layer replays: the workload's own frames pushed through each
//! layer's public entry points in isolation, timed from here.
//!
//! Calls that take microseconds get one span each. Calls that take
//! nanoseconds (feature extraction, window pushes, codec) would be
//! dominated by the clock read, so they get one span per loop of
//! `LOOP` calls and report the per-call mean; the median of `ROUNDS`
//! loops is what is reported.

use crate::stats::nearest_rank;
use crate::trace::{Tracer, NO_SPAN};
use crate::wire::StreamSpec;
use crate::Values;
use bytes::BytesMut;
use context_monitor::{
    step_batch, BatchJob, BatchScratch, ContextMode, EngineStep, InferenceEngine, Precision,
    ServeConfig, ShardedMonitorPool, TrainedPipeline,
};
use ingress::codec::{encode_decision, encode_frame, DecisionMsg, Decoded, Decoder, FrameMsg};
use kinematics::{KinematicSample, SlidingWindow};
use nn::{LayerSpec, Mat, NetworkSpec};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const LOOP: usize = 2000;
const ROUNDS: usize = 5;

/// The pool_saturate shard batch: 64 sessions over 2 workers.
pub const SHARD_BATCH: usize = 32;

/// Frames `0..n` of the workload, cycling through its demos.
fn frames(streams: &[Vec<KinematicSample>], n: usize) -> Vec<&KinematicSample> {
    let all: Vec<&KinematicSample> = streams.iter().flatten().collect();
    (0..n).map(|i| all[i % all.len()]).collect()
}

/// Median over `ROUNDS` timed loops of `body` over `items`, in ns per item.
fn ns_per_call<T>(
    tracer: &mut Tracer,
    name: &'static str,
    items: &[T],
    mut body: impl FnMut(&T),
) -> f64 {
    let mut per = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let t0 = Instant::now();
        for item in items {
            body(item);
        }
        let t1 = Instant::now();
        tracer.record(name, round as u64, NO_SPAN, t0, t1);
        per.push((t1 - t0).as_secs_f64() * 1e9 / items.len() as f64);
    }
    nearest_rank(&mut per, 0.5).expect("ROUNDS > 0").value
}

fn p50(samples: &mut [f64]) -> f64 {
    nearest_rank(samples, 0.5).map_or(0.0, |q| q.value)
}

/// 2·m·k·n multiply-adds of every matrix product of one forward pass of
/// `spec` over a `(t, in)` window.
pub fn forward_flops(spec: &NetworkSpec, t: usize) -> u64 {
    let mut rows = t;
    let mut flops = 0u64;
    for layer in &spec.layers {
        match *layer {
            LayerSpec::Dense { in_dim, out_dim } => flops += 2 * (rows * in_dim * out_dim) as u64,
            LayerSpec::Conv1d { in_channels, out_channels, kernel, .. } => {
                // im2col: (rows, kernel*in) x (kernel*in, out), "same" padding.
                flops += 2 * (rows * kernel * in_channels * out_channels) as u64;
            }
            LayerSpec::Lstm { in_dim, hidden, return_sequences } => {
                // Per step: x·Wx (in → 4h) and h·Wh (h → 4h).
                flops += 2 * (rows * (in_dim + hidden) * 4 * hidden) as u64;
                if !return_sequences {
                    rows = 1;
                }
            }
            LayerSpec::GlobalMaxPool | LayerSpec::GlobalAvgPool | LayerSpec::TakeLast => rows = 1,
            LayerSpec::Flatten => rows = 1,
            LayerSpec::MaxPool1d { kernel } => rows /= kernel.max(1),
            _ => {}
        }
    }
    flops
}

/// Runs every replay and writes its metrics into `m`. `pipeline` must
/// carry its int8 twin.
pub fn replay(
    pipeline: &Arc<TrainedPipeline>,
    streams: &[Vec<KinematicSample>],
    tier: Precision,
    tracer: &mut Tracer,
    m: &mut Values,
) {
    kinematics_replay(pipeline, streams, tracer, m);
    nn_replay(pipeline, streams, tracer, m);
    engine_replay(pipeline, streams, tier, tracer, m);
    codec_replay(pipeline, streams, tracer, m);
    lifecycle_replay(pipeline, streams, tier, tracer, m);
}

fn kinematics_replay(
    pipeline: &TrainedPipeline,
    streams: &[Vec<KinematicSample>],
    tracer: &mut Tracer,
    m: &mut Values,
) {
    let cfg = &pipeline.config;
    let input = frames(streams, LOOP);
    let (mut g, mut e) = (Vec::new(), Vec::new());
    let features = ns_per_call(tracer, "kinematics.features.loop", &input, |f| {
        f.to_feature_vec_into(&cfg.gesture_features, &mut g);
        f.to_feature_vec_into(&cfg.features, &mut e);
        black_box((&g, &e));
    });
    m.insert("kinematics.features_ns", features);

    let normalized: Vec<(Vec<f32>, Vec<f32>)> = input
        .iter()
        .map(|f| {
            let mut g = f.to_feature_vec(&cfg.gesture_features);
            pipeline.gesture_normalizer.apply_frame_inplace(&mut g);
            let mut e = f.to_feature_vec(&cfg.features);
            pipeline.normalizer.apply_frame_inplace(&mut e);
            (g, e)
        })
        .collect();
    let mut gw = SlidingWindow::new(cfg.gesture_window, pipeline.gesture_in_dim);
    let mut ew = SlidingWindow::new(cfg.window.width, pipeline.in_dim);
    let push = ns_per_call(tracer, "kinematics.window_push.loop", &normalized, |(g, e)| {
        black_box(gw.push(g).is_some());
        black_box(ew.push(e).is_some());
    });
    m.insert("kinematics.window_push_ns", push);
}

/// Stage-1 and stage-2 forward passes on both tiers over warm windows of
/// the workload, each routed by the f32 stage-1 argmax.
fn nn_replay(
    pipeline: &TrainedPipeline,
    streams: &[Vec<KinematicSample>],
    tracer: &mut Tracer,
    m: &mut Values,
) {
    let cfg = &pipeline.config;
    let q = pipeline.quantized.as_ref().expect("replay needs the int8 twin");
    let mut gw = SlidingWindow::new(cfg.gesture_window, pipeline.gesture_in_dim);
    let mut ew = SlidingWindow::new(cfg.window.width, pipeline.in_dim);
    let mut windows: Vec<(Mat, Mat)> = Vec::new();
    for f in frames(streams, 600 + cfg.gesture_window) {
        let mut g = f.to_feature_vec(&cfg.gesture_features);
        pipeline.gesture_normalizer.apply_frame_inplace(&mut g);
        let mut e = f.to_feature_vec(&cfg.features);
        pipeline.normalizer.apply_frame_inplace(&mut e);
        let gwin = gw.push(&g).cloned();
        if let (Some(gwin), Some(ewin)) = (gwin, ew.push(&e)) {
            windows.push((gwin, ewin.clone()));
        }
    }
    let mut logits = Mat::zeros(0, 0);
    let mut probs = [0.0f32; 2];
    let mut gscratch = pipeline.gesture_net.make_scratch();
    let mut escratch = pipeline.error_scratch();
    let mut qscratch = q.gesture_net.make_scratch();
    let mut times: [Vec<f64>; 4] = Default::default();
    for (i, (gwin, ewin)) in windows.iter().enumerate() {
        let id = i as u64;
        let t0 = Instant::now();
        pipeline.gesture_net.predict_scratch(gwin, &mut logits, &mut gscratch);
        let t1 = Instant::now();
        let gesture = logits.argmax_row(0);
        q.gesture_net.predict_scratch(gwin, &mut logits, &mut qscratch);
        let t2 = Instant::now();
        black_box(pipeline.score_window_scratch(
            ewin,
            gesture,
            ContextMode::Predicted,
            &mut logits,
            &mut probs,
            &mut escratch,
        ));
        let t3 = Instant::now();
        black_box(pipeline.score_window_scratch_q(
            ewin,
            gesture,
            ContextMode::Predicted,
            &mut logits,
            &mut probs,
            &mut qscratch,
        ));
        let t4 = Instant::now();
        let spans = [
            ("nn.stage1.f32", t0, t1),
            ("nn.stage1.int8", t1, t2),
            ("nn.stage2.f32", t2, t3),
            ("nn.stage2.int8", t3, t4),
        ];
        for (k, (name, a, b)) in spans.into_iter().enumerate() {
            tracer.record(name, id, NO_SPAN, a, b);
            times[k].push((b - a).as_secs_f64() * 1e6);
        }
    }
    let [s1f, s1q, s2f, s2q] = &mut times;
    m.insert("nn.stage1.f32_us", p50(s1f));
    m.insert("nn.stage1.int8_us", p50(s1q));
    m.insert("nn.stage2.f32_us", p50(s2f));
    m.insert("nn.stage2.int8_us", p50(s2q));
    let stage2_spec = pipeline
        .error_nets
        .values()
        .next()
        .or(pipeline.global_error_net.as_ref())
        .expect("a trained error classifier")
        .spec();
    m.insert(
        "nn.stage1.flops",
        forward_flops(pipeline.gesture_net.spec(), cfg.gesture_window) as f64,
    );
    m.insert("nn.stage2.flops", forward_flops(stage2_spec, cfg.window.width) as f64);
}

/// `InferenceEngine::step` on both tiers, and `step_batch` at the
/// pool_saturate shard batch on the workload's tier.
fn engine_replay(
    pipeline: &TrainedPipeline,
    streams: &[Vec<KinematicSample>],
    tier: Precision,
    tracer: &mut Tracer,
    m: &mut Values,
) {
    let warmup = pipeline.config.gesture_window;
    let input = frames(streams, 600 + warmup);
    for (precision, name, metric) in [
        (Precision::F32, "core.engine.step.f32", "core.engine.step_us.f32"),
        (Precision::Int8, "core.engine.step.int8", "core.engine.step_us.int8"),
    ] {
        let mut engine =
            InferenceEngine::with_precision(pipeline, ContextMode::Predicted, precision);
        let mut us = Vec::with_capacity(input.len());
        for (i, f) in input.iter().enumerate() {
            let t0 = Instant::now();
            let step = engine.step(pipeline, f).expect("Predicted mode never needs context");
            let t1 = Instant::now();
            black_box(step);
            if i >= warmup {
                tracer.record(name, i as u64, NO_SPAN, t0, t1);
                us.push((t1 - t0).as_secs_f64() * 1e6);
            }
        }
        m.insert(metric, p50(&mut us));
    }

    let mut engines: Vec<InferenceEngine> = (0..SHARD_BATCH)
        .map(|_| InferenceEngine::with_precision(pipeline, ContextMode::Predicted, tier))
        .collect();
    let specs: Vec<StreamSpec> =
        (0..SHARD_BATCH).map(|e| StreamSpec { demo: e % streams.len(), offset: 0 }).collect();
    let mut jobs: Vec<BatchJob> = (0..SHARD_BATCH)
        .map(|e| BatchJob { engine: e, frame: specs[e].frame(streams, 0).clone(), context: None })
        .collect();
    let mut scratch = BatchScratch::new(pipeline);
    let mut outputs: Vec<EngineStep> = Vec::new();
    let mut per_job = Vec::new();
    for t in 0..200 + warmup {
        for (job, spec) in jobs.iter_mut().zip(&specs) {
            job.frame.manipulators.clone_from(&spec.frame(streams, t).manipulators);
        }
        let t0 = Instant::now();
        step_batch(pipeline, &mut engines, &jobs, &mut scratch, &mut outputs);
        let t1 = Instant::now();
        if t >= warmup {
            tracer.record("core.engine.step_batch", t as u64, NO_SPAN, t0, t1);
            per_job.push((t1 - t0).as_secs_f64() * 1e6 / SHARD_BATCH as f64);
        }
    }
    m.insert("core.engine.step_batch_us_per_job", p50(&mut per_job));
}

/// The workload's messages through the server side of the codec: FRAME
/// decode and DECISION encode.
fn codec_replay(
    pipeline: &TrainedPipeline,
    streams: &[Vec<KinematicSample>],
    tracer: &mut Tracer,
    m: &mut Values,
) {
    let input = frames(streams, LOOP);
    let mut wire = Vec::with_capacity(input.len());
    let mut enc = BytesMut::new();
    for (seq, f) in input.iter().enumerate() {
        enc.clear();
        encode_frame(&mut enc, seq as u32, None, f);
        wire.push(enc.to_vec());
    }
    m.insert("ingress.codec.frame_bytes", wire[0].len() as f64);
    let mut dec = Decoder::new();
    let mut msg = FrameMsg::default();
    let decode = ns_per_call(tracer, "ingress.codec.decode_frame.loop", &wire, |bytes| {
        dec.extend(bytes);
        let got = dec.decode_next(&mut msg).expect("well-formed FRAME");
        assert!(matches!(got, Some(Decoded::Frame)), "FRAME decodes as FRAME");
        black_box(&msg);
    });
    m.insert("ingress.codec.decode_frame_ns", decode);

    // DECISIONs as the engine emits them for these frames.
    let mut engine = InferenceEngine::new(pipeline, ContextMode::Predicted);
    let decisions: Vec<DecisionMsg> = input
        .iter()
        .enumerate()
        .map(|(seq, f)| {
            let step = engine.step(pipeline, f).expect("Predicted mode never needs context");
            crate::model::wire_decision(seq as u32, &step)
        })
        .collect();
    let encode = ns_per_call(tracer, "ingress.codec.encode_decision.loop", &decisions, |d| {
        enc.clear();
        encode_decision(&mut enc, d);
        black_box(&enc);
    });
    m.insert("ingress.codec.encode_decision_ns", encode);
}

/// The wire_replay session lifecycle on an in-process pool: two live
/// sessions, each repeatedly streaming a short procedure, then removed
/// and replaced (slot recycling).
fn lifecycle_replay(
    pipeline: &Arc<TrainedPipeline>,
    streams: &[Vec<KinematicSample>],
    tier: Precision,
    tracer: &mut Tracer,
    m: &mut Values,
) {
    let serve =
        ServeConfig { workers: crate::serve::WORKERS, precision: tier, ..ServeConfig::default() };
    let mut pool = ShardedMonitorPool::new(Arc::clone(pipeline), ContextMode::Predicted, serve);
    let mut live = [pool.add_session(), pool.add_session()];
    let (mut add_us, mut remove_us, mut skew) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..100usize {
        for (i, &s) in live.iter().enumerate() {
            let spec = StreamSpec { demo: (round + i) % streams.len(), offset: 0 };
            for j in 0..10 {
                pool.submit(s, spec.frame(streams, j)).expect("Predicted mode never needs context");
            }
        }
        black_box(pool.flush());
        let slot = round % 2;
        let t0 = Instant::now();
        pool.remove_session(live[slot]);
        let t1 = Instant::now();
        live[slot] = pool.add_session();
        let t2 = Instant::now();
        tracer.record("core.serve.remove_session", round as u64, NO_SPAN, t0, t1);
        tracer.record("core.serve.add_session", round as u64, NO_SPAN, t1, t2);
        remove_us.push((t1 - t0).as_secs_f64() * 1e6);
        add_us.push((t2 - t1).as_secs_f64() * 1e6);
        let occ = pool.shard_occupancy();
        let (lo, hi) = (occ.iter().min().copied(), occ.iter().max().copied());
        skew.push((hi.unwrap_or(0) - lo.unwrap_or(0)) as f64);
    }
    m.insert("core.serve.add_session_us", p50(&mut add_us));
    m.insert("core.serve.remove_session_us", p50(&mut remove_us));
    m.insert("core.serve.occupancy_skew", crate::stats::mean(&skew));
}
