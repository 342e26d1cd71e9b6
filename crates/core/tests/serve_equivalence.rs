//! The serving determinism guarantee: a `ShardedMonitorPool` (multiple
//! worker threads, cross-session micro-batching, a job queue per shard and
//! one queue home) must
//! produce **bit-exactly** the decisions of one `InferenceEngine` per
//! session stepped frame by frame, across every `ContextMode` and multiple
//! training seeds.
//! This is the acceptance criterion CI enforces under `--release`.

use context_monitor::serve::{ServeConfig, Shard, ShardedMonitorPool};
use context_monitor::{
    step_batch, BatchJob, BatchScratch, ContextMode, EngineError, InferenceEngine, MonitorConfig,
    Precision, TrainStages, TrainedPipeline,
};
use gestures::Task;
use jigsaws::{generate, GeneratorConfig};
use kinematics::{Dataset, FeatureSet, KinematicSample};
use std::sync::Arc;
use std::time::Duration;

fn tiny_pipeline(seed: u64) -> (TrainedPipeline, Dataset) {
    let ds = generate(&GeneratorConfig::fast(Task::Suturing).with_seed(seed));
    let mut cfg = MonitorConfig::fast(FeatureSet::CRG).with_seed(seed ^ 0xA5);
    cfg.train.epochs = 2;
    cfg.train_stride = 6;
    let idx: Vec<usize> = (0..ds.len()).collect();
    (TrainedPipeline::train(&ds, &idx, &cfg), ds)
}

/// (gesture, score bits, alert) triple — the deterministic fields of a
/// decision (`compute_ms` is wall-clock and legitimately differs).
type Key = (usize, u32, bool);

/// One `InferenceEngine` per session, stepped frame by frame in the same
/// round-robin order the sharded pool receives (alert threshold 0.5).
fn sequential_reference(
    pipeline: &TrainedPipeline,
    ds: &Dataset,
    mode: ContextMode,
    sessions: usize,
) -> Vec<Vec<Key>> {
    let mut engines: Vec<InferenceEngine> =
        (0..sessions).map(|_| InferenceEngine::new(pipeline, mode)).collect();
    let mut outs: Vec<Vec<Key>> = vec![Vec::new(); sessions];
    let longest = ds.demos.iter().take(sessions).map(|d| d.len()).max().unwrap();
    for t in 0..longest {
        for (s, demo) in ds.demos.iter().take(sessions).enumerate() {
            let Some(frame) = demo.frames.get(t) else { continue };
            let step = match mode {
                ContextMode::Perfect => {
                    engines[s].step_with_context(pipeline, frame, demo.gestures[t])
                }
                _ => engines[s].step(pipeline, frame).expect("non-Perfect step cannot fail"),
            };
            if let Some((gesture, score)) = step.complete() {
                outs[s].push((gesture.index(), score.to_bits(), score > 0.5));
            }
        }
    }
    outs
}

fn sharded_run(
    pipeline: Arc<TrainedPipeline>,
    ds: &Dataset,
    mode: ContextMode,
    sessions: usize,
    workers: usize,
    precision: Precision,
) -> Vec<Vec<Key>> {
    let cfg = ServeConfig { workers, threshold: 0.5, precision };
    let mut pool = ShardedMonitorPool::with_sessions(pipeline, mode, cfg, sessions);
    assert_eq!(pool.session_count(), sessions);
    assert_eq!(pool.worker_count(), workers);
    let longest = ds.demos.iter().take(sessions).map(|d| d.len()).max().unwrap();
    for t in 0..longest {
        for (s, demo) in ds.demos.iter().take(sessions).enumerate() {
            let Some(frame) = demo.frames.get(t) else { continue };
            match mode {
                ContextMode::Perfect => pool.submit_with_context(s, frame, demo.gestures[t]),
                _ => pool.submit(s, frame).expect("non-Perfect submit cannot fail"),
            }
        }
    }
    let mut outs: Vec<Vec<(usize, Key)>> = vec![Vec::new(); sessions];
    for d in pool.flush() {
        if let Some(o) = d.output {
            outs[d.session]
                .push((d.frame, (o.gesture.index(), o.unsafe_probability.to_bits(), o.alert)));
        }
    }
    // Per-session frame order is guaranteed; verify rather than assume.
    for (s, session_outs) in outs.iter().enumerate() {
        for pair in session_outs.windows(2) {
            assert!(pair[0].0 < pair[1].0, "session {s}: decisions out of frame order");
        }
    }
    outs.into_iter().map(|v| v.into_iter().map(|(_, k)| k).collect()).collect()
}

/// The headline guarantee: sharded + batched == sequential, bit for bit,
/// for all three context modes and three training seeds.
#[test]
fn sharded_pool_is_bit_exactly_equal_to_sequential_pool() {
    for seed in [11u64, 29, 47] {
        let (mut pipeline, ds) = tiny_pipeline(seed);
        assert!(!pipeline.error_nets.is_empty(), "seed {seed}: no dedicated classifiers");
        let sessions = 6.min(ds.demos.len());
        for mode in [ContextMode::Predicted, ContextMode::Perfect, ContextMode::NoContext] {
            let reference = sequential_reference(&pipeline, &ds, mode, sessions);
            let shared = Arc::new(pipeline);
            for workers in [1usize, 3] {
                let sharded =
                    sharded_run(Arc::clone(&shared), &ds, mode, sessions, workers, Precision::F32);
                assert_eq!(
                    reference, sharded,
                    "seed {seed}, {mode}, {workers} workers: sharded output diverged"
                );
            }
            pipeline = Arc::try_unwrap(shared).ok().expect("workers joined, sole owner");
        }
    }
}

/// The quantized tier's own determinism guarantee: int8 decisions are
/// bit-identical across batch size 1 (a lone engine stepped frame by frame)
/// and the sharded pool's variable micro-batches, across worker counts.
/// Int8 is *not* bit-equal to f32 — the parity gate bounds that accuracy
/// delta — but within the tier every execution shape must agree exactly.
#[test]
fn int8_tier_is_bit_identical_across_workers_and_batch_sizes() {
    let (mut pipeline, ds) = tiny_pipeline(61);
    let idx: Vec<usize> = (0..ds.len()).collect();
    pipeline.quantize(&ds, &idx).expect("built-in specs are quantizable");
    let sessions = 4.min(ds.demos.len());

    // Reference: per-session engines on the int8 tier, batch size 1.
    let mut engines: Vec<InferenceEngine> = (0..sessions)
        .map(|_| {
            InferenceEngine::with_precision(&pipeline, ContextMode::Predicted, Precision::Int8)
        })
        .collect();
    let mut reference: Vec<Vec<Key>> = vec![Vec::new(); sessions];
    let longest = ds.demos.iter().take(sessions).map(|d| d.len()).max().unwrap();
    for t in 0..longest {
        for s in 0..sessions {
            let Some(frame) = ds.demos[s].frames.get(t) else { continue };
            let step = engines[s].step(&pipeline, frame).expect("Predicted mode");
            if let Some((gesture, score)) = step.complete() {
                reference[s].push((gesture.index(), score.to_bits(), score > 0.5));
            }
        }
    }
    assert!(reference.iter().any(|s| !s.is_empty()), "sessions should warm up");

    let shared = Arc::new(pipeline);
    for workers in [1usize, 3] {
        let sharded = sharded_run(
            Arc::clone(&shared),
            &ds,
            ContextMode::Predicted,
            sessions,
            workers,
            Precision::Int8,
        );
        assert_eq!(
            reference, sharded,
            "{workers} workers: int8 sharded output diverged from the single-engine reference"
        );
    }
}

/// Asking the pool for the int8 tier on a pipeline whose quantized twin was
/// never built must fail at construction, not at the first frame.
#[test]
#[should_panic(expected = "quantize")]
fn int8_pool_on_unquantized_pipeline_fails_at_construction() {
    let (pipeline, _ds) = tiny_pipeline(67);
    let cfg = ServeConfig { workers: 1, threshold: 0.5, precision: Precision::Int8 };
    let _pool =
        ShardedMonitorPool::with_sessions(Arc::new(pipeline), ContextMode::Predicted, cfg, 1);
}

/// `step_batch` (the micro-batching core the shard workers run) advanced
/// engines must match engines stepped one at a time, bit for bit.
#[test]
fn step_batch_matches_sequential_steps() {
    let (pipeline, ds) = tiny_pipeline(23);
    let n = 4.min(ds.demos.len());

    // Reference: each demo stepped frame by frame through its own engine.
    let mut ref_engines: Vec<InferenceEngine> =
        (0..n).map(|_| InferenceEngine::new(&pipeline, ContextMode::Predicted)).collect();
    // Batched: the same demos advanced via step_batch ticks.
    let mut batch_engines: Vec<InferenceEngine> =
        (0..n).map(|_| InferenceEngine::new(&pipeline, ContextMode::Predicted)).collect();
    let mut scratch = BatchScratch::new(&pipeline);
    let mut steps = Vec::new();

    let frames = ds.demos.iter().take(n).map(|d| d.len()).min().unwrap();
    for t in 0..frames {
        let mut expected = Vec::new();
        for (s, engine) in ref_engines.iter_mut().enumerate() {
            expected.push(engine.step(&pipeline, &ds.demos[s].frames[t]).expect("Predicted mode"));
        }
        let jobs: Vec<BatchJob> = (0..n)
            .map(|s| BatchJob { engine: s, frame: ds.demos[s].frames[t].clone(), context: None })
            .collect();
        step_batch(&pipeline, &mut batch_engines, &jobs, &mut scratch, &mut steps);
        assert_eq!(steps, expected, "tick {t}: batched steps diverged");
    }
}

/// A misconfigured caller gets a typed error, not a crash, and the other
/// sessions keep working (the satellite bugfix for the Perfect-mode panic).
#[test]
fn missing_context_is_a_typed_error_not_a_panic() {
    let (pipeline, ds) = tiny_pipeline(31);
    let frame = &ds.demos[0].frames[0];

    let mut engine = InferenceEngine::new(&pipeline, ContextMode::Perfect);
    assert_eq!(engine.step(&pipeline, frame), Err(EngineError::MissingContext));
    // The failed step consumed nothing: the engine state is untouched.
    assert_eq!(engine.frames_seen(), 0);
    // The correctly supplied path still works afterwards.
    let _ = engine.step_with_context(&pipeline, frame, ds.demos[0].gestures[0]);
    assert_eq!(engine.frames_seen(), 1);

    // Same contract on the sharded pool: submit is rejected up front and
    // the pool (with its worker threads) stays fully operational.
    let pipeline = Arc::new(pipeline);
    let mut pool = ShardedMonitorPool::with_sessions(
        pipeline,
        ContextMode::Perfect,
        ServeConfig { workers: 2, threshold: 0.5, precision: Precision::F32 },
        2,
    );
    assert_eq!(pool.submit(0, frame), Err(EngineError::MissingContext));
    // The rejected frame was not consumed: nothing was enqueued for the
    // session and no decision ever comes back for it.
    assert_eq!(pool.frames_submitted(0), 0, "failed submit must not consume the frame");
    assert!(pool.flush().is_empty(), "no decision may exist for a rejected frame");

    pool.submit_with_context(1, frame, ds.demos[0].gestures[0]);
    let decisions = pool.flush();
    assert_eq!(decisions.len(), 1, "only the well-formed submission was processed");
    assert_eq!(decisions[0].session, 1);
    assert_eq!(pool.frames_submitted(1), 1);

    // The session whose submit failed is intact: its next well-formed
    // frame is frame 0, as if the failed call never happened.
    pool.submit_with_context(0, frame, ds.demos[0].gestures[0]);
    let decisions = pool.flush();
    assert_eq!(decisions.len(), 1);
    assert_eq!((decisions[0].session, decisions[0].frame), (0, 0));
}

/// The pool-level latency telemetry measures every warm decision drained
/// through `flush` — compute per warm decision,
/// ingress-to-egress queueing per frame — and keeps its quantiles ordered,
/// on both numeric tiers.
#[test]
fn latency_stats_cover_drained_decisions() {
    let (mut pipeline, ds) = tiny_pipeline(37);
    let idx: Vec<usize> = (0..ds.len()).collect();
    pipeline.quantize(&ds, &idx).expect("built-in specs are quantizable");
    let warm = pipeline.config.window.width.max(pipeline.config.gesture_window);
    let shared = Arc::new(pipeline);
    for precision in [Precision::F32, Precision::Int8] {
        let mut pool = ShardedMonitorPool::with_sessions(
            Arc::clone(&shared),
            ContextMode::Predicted,
            ServeConfig { workers: 2, threshold: 0.5, precision },
            3,
        );
        assert_eq!(pool.stats().compute.count, 0, "no decisions measured before any flush");
        assert_eq!(pool.stats().queue.count, 0);

        let frames = 2 * warm;
        for t in 0..frames {
            for s in 0..3 {
                pool.submit(s, &ds.demos[s].frames[t]).expect("Predicted mode");
            }
        }
        assert_eq!(pool.in_flight(), 3 * frames, "every submit is pending before the flush");
        let decisions = pool.flush();
        assert_eq!(pool.in_flight(), 0, "flush drains every pending decision");
        let warm_decisions = decisions.iter().filter(|d| d.output.is_some()).count();
        assert!(warm_decisions > 0, "{precision}: sessions should have warmed up");

        let stats = pool.stats();
        assert_eq!(
            stats.compute.count, warm_decisions,
            "{precision}: exactly the warm decisions are measured"
        );
        assert_eq!(
            stats.queue.count,
            3 * frames,
            "{precision}: every frame is measured ingress-to-egress, warm-up included"
        );
        let c = stats.compute;
        assert!(c.p50_ms <= c.p99_ms && c.p99_ms <= c.max_ms, "{c:?}");
        assert!(c.mean_ms > 0.0 && c.mean_ms.is_finite());
        let q = stats.queue;
        assert!(q.p50_ms <= q.p99_ms && q.p99_ms <= q.max_ms, "{q:?}");
        assert!(
            q.mean_ms >= c.mean_ms,
            "{precision}: queueing (submit→drain) contains compute: {} < {}",
            q.mean_ms,
            c.mean_ms
        );
        let text = stats.to_string();
        assert!(text.contains("compute") && text.contains("queueing"), "{text}");

        pool.reset_stats();
        assert_eq!(pool.stats().compute.count, 0, "reset_stats clears the telemetry");
        assert_eq!(pool.stats().queue.count, 0);
    }
}

/// A deliberately stalled shard delays its decisions past a deadline-gated
/// drain; the late decisions still arrive (exactly once, in frame order) on
/// the next drain, and nothing is lost.
#[test]
fn drain_deadline_leaves_stalled_decisions_for_the_next_drain() {
    use std::time::Instant;
    let (pipeline, ds) = tiny_pipeline(59);
    let mut pool = ShardedMonitorPool::with_sessions(
        Arc::new(pipeline),
        ContextMode::Predicted,
        ServeConfig { workers: 2, threshold: 0.5, precision: Precision::F32 },
        2, // session 0 -> shard 0, session 1 -> shard 1
    );
    pool.inject_stall(0, Duration::from_millis(150));
    for s in 0..2 {
        pool.submit(s, &ds.demos[s].frames[0]).expect("Predicted mode");
    }
    let mut out = Vec::new();
    let drained = pool.drain_deadline(Instant::now() + Duration::from_millis(30), &mut out);
    assert!(!drained, "the stalled shard cannot make the deadline");
    assert!(pool.in_flight() > 0, "the stalled frame is still pending");
    assert!(
        out.iter().all(|d| d.session != 0),
        "no decision from the stalled shard inside the budget"
    );

    // The late decision arrives on a later (generous) drain, exactly once.
    let fully = pool.drain_deadline(Instant::now() + Duration::from_secs(10), &mut out);
    assert!(fully, "late decisions arrive once the stall clears");
    assert_eq!(pool.in_flight(), 0);
    let from_stalled: Vec<_> = out.iter().filter(|d| d.session == 0).collect();
    assert_eq!(from_stalled.len(), 1, "the delayed frame produces exactly one decision");
    assert_eq!(from_stalled[0].frame, 0);
}

/// `flush` waits for the decisions of submitted frames, not for jobs that
/// produce none: a shard sleeping through a stall with nothing in flight
/// must not hold up the flush of a frame on another shard.
#[test]
fn flush_waits_for_in_flight_frames_not_for_a_stalled_idle_shard() {
    use std::time::Instant;
    let (pipeline, ds) = tiny_pipeline(59);
    let mut pool = ShardedMonitorPool::with_sessions(
        Arc::new(pipeline),
        ContextMode::Predicted,
        ServeConfig { workers: 2, threshold: 0.5, precision: Precision::F32 },
        2, // session 0 -> shard 0, session 1 -> shard 1
    );
    pool.inject_stall(0, Duration::from_secs(3));
    pool.submit(1, &ds.demos[1].frames[0]).expect("Predicted mode");
    let start = Instant::now();
    let decisions = pool.flush();
    let waited = start.elapsed();
    assert_eq!(decisions.len(), 1, "exactly the one submitted frame is decided");
    assert_eq!((decisions[0].session, decisions[0].frame), (1, 0));
    assert!(waited < Duration::from_secs(1), "flush waited {waited:?} on an idle stalled shard");
}

/// Fleet elasticity: removing a session mid-stream leaves every surviving
/// session's decision stream bit-identical to a pool that never saw the
/// removed one, the removed session's in-flight decisions still drain
/// (exactly one per submitted frame), and the freed slot is recycled by the
/// next `add_session` with a cold engine.
#[test]
fn remove_session_leaves_survivors_bit_identical() {
    let (pipeline, ds) = tiny_pipeline(71);
    let shared = Arc::new(pipeline);
    let cfg = ServeConfig { workers: 2, threshold: 0.5, precision: Precision::F32 };
    let frames = 60usize;
    let half = frames / 2;

    let collect = |pool: &mut ShardedMonitorPool, n: usize| -> Vec<Vec<Key>> {
        let mut outs: Vec<Vec<Key>> = vec![Vec::new(); n];
        for d in pool.flush() {
            if let Some(o) = d.output {
                outs[d.session].push((o.gesture.index(), o.unsafe_probability.to_bits(), o.alert));
            }
        }
        outs
    };

    // Elastic pool: three sessions, session 1 leaves at the halfway point
    // with frames still in flight (no drain before the removal).
    let mut pool =
        ShardedMonitorPool::with_sessions(Arc::clone(&shared), ContextMode::Predicted, cfg, 3);
    assert_eq!(pool.stats().occupancy, vec![2, 1], "3 sessions over 2 shards");
    for t in 0..half {
        for s in 0..3 {
            pool.submit(s, &ds.demos[s].frames[t]).expect("Predicted mode");
        }
    }
    pool.remove_session(1);
    assert!(!pool.is_live(1));
    assert_eq!(pool.session_count(), 2);
    assert_eq!(pool.stats().occupancy, vec![2, 0], "the freed slot stops counting");
    for t in half..frames {
        for s in [0usize, 2] {
            pool.submit(s, &ds.demos[s].frames[t]).expect("Predicted mode");
        }
    }
    let mut elastic = collect(&mut pool, 3);
    let removed = elastic.remove(1);
    assert!(!removed.is_empty(), "in-flight decisions of the removed session still drain");

    // Reference pool: only the two survivors, same frame schedule.
    let mut reference_pool =
        ShardedMonitorPool::new(Arc::clone(&shared), ContextMode::Predicted, cfg);
    let a = reference_pool.add_session();
    let b = reference_pool.add_session();
    for t in 0..frames {
        reference_pool.submit(a, &ds.demos[0].frames[t]).expect("Predicted mode");
        reference_pool.submit(b, &ds.demos[2].frames[t]).expect("Predicted mode");
    }
    let reference = collect(&mut reference_pool, 2);
    assert_eq!(
        elastic,
        vec![reference[0].clone(), reference[1].clone()],
        "survivors must be bit-identical to a pool that never saw the removed session"
    );

    // The freed slot is recycled: the next add_session lands on the
    // just-freed shard and starts cold — bit-identical to a fresh pool.
    let id = pool.add_session();
    assert_eq!(id, 3, "session ids keep growing: removed id 1 is never reused");
    assert_eq!(pool.stats().occupancy, vec![2, 1], "recycled slot fills the gap");
    for t in 0..half {
        pool.submit(id, &ds.demos[1].frames[t]).expect("Predicted mode");
    }
    let recycled = collect(&mut pool, 4).remove(3);
    let mut fresh_pool =
        ShardedMonitorPool::with_sessions(Arc::clone(&shared), ContextMode::Predicted, cfg, 1);
    for t in 0..half {
        fresh_pool.submit(0, &ds.demos[1].frames[t]).expect("Predicted mode");
    }
    let fresh = collect(&mut fresh_pool, 1).remove(0);
    assert_eq!(recycled, fresh, "a recycled slot must start as cold as a fresh pool");
}

/// Rebinding a slot is the only way it resets: `Shard::bind` first scores
/// the frame the pending tick still holds for the slot's last session, then
/// rewinds the engine, so the old tenant loses no decision and the new one
/// starts as cold as a fresh shard.
#[test]
fn rebinding_a_slot_scores_its_pending_frame_then_starts_cold() {
    let (pipeline, ds) = tiny_pipeline(53);
    let pipeline = Arc::new(pipeline);
    let cfg = ServeConfig { workers: 1, threshold: 0.5, precision: Precision::F32 };
    let frames = 48usize;
    // Pushes a demo's first `frames` frames to slot 0, tagged with their
    // index; each push runs the tick holding the one before, so the last
    // frame stays pending.
    let stream = |shard: &mut Shard<usize>, demo: usize| {
        for t in 0..frames {
            shard.push_frame(0, ds.demos[demo].frames[t].clone(), None, t);
        }
    };
    let keys = |shard: &mut Shard<usize>| -> Vec<(usize, Key)> {
        let scored = shard.take_scored();
        scored
            .filter_map(|s| {
                let o = s.output?;
                Some((s.tag, (o.gesture.index(), o.unsafe_probability.to_bits(), o.alert)))
            })
            .collect()
    };
    let fresh = |demo: usize| {
        let mut shard = Shard::new(Arc::clone(&pipeline), ContextMode::Predicted, cfg);
        shard.bind(0);
        stream(&mut shard, demo);
        shard.run_tick();
        keys(&mut shard)
    };

    let mut shard = Shard::new(Arc::clone(&pipeline), ContextMode::Predicted, cfg);
    shard.bind(0);
    stream(&mut shard, 0);
    shard.bind(0);
    let first = keys(&mut shard);
    assert_eq!(first.last().map(|k| k.0), Some(frames - 1), "the pending frame is scored");
    assert_eq!(first, fresh(0), "the old tenant's stream must equal an unbroken run");
    stream(&mut shard, 1);
    shard.run_tick();
    assert_eq!(keys(&mut shard), fresh(1), "the new tenant must start as cold as a fresh shard");
}

/// A two-worker pool over an untrained pipeline (session 0 on shard 0,
/// session 1 on shard 1), the dataset, and a frame with one arm: submitted
/// to session 0, it panics shard 0's worker at the normalizer's dimension
/// check.
fn pool_and_one_arm_frame() -> (ShardedMonitorPool, Dataset, KinematicSample) {
    let ds = generate(&GeneratorConfig::fast(Task::Suturing).with_seed(79));
    let cfg = MonitorConfig::fast(FeatureSet::CRG).with_seed(79);
    let untrained = TrainStages { gesture: false, errors: false };
    let (pipeline, _) = TrainedPipeline::train_stages(&ds, &[0, 1], &cfg, untrained);
    let pool = ShardedMonitorPool::with_sessions(
        Arc::new(pipeline),
        ContextMode::Predicted,
        ServeConfig { workers: 2, threshold: 0.5, precision: Precision::F32 },
        2,
    );
    let mut one_arm = ds.demos[0].frames[0].clone();
    one_arm.manipulators.truncate(1);
    (pool, ds, one_arm)
}

/// A shard worker that dies with frames in flight fails the flush loudly,
/// even while another worker lives, and names the worker's own panic: the
/// flush must not wait forever for the lost decision.
#[test]
#[should_panic(
    expected = "shard worker exited while frames were in flight: shard 0 panicked: assertion \
                `left == right` failed: Normalizer::apply_frame_inplace: dimension mismatch"
)]
fn flush_fails_loud_when_a_shard_worker_dies_with_frames_in_flight() {
    let (mut pool, ds, one_arm) = pool_and_one_arm_frame();
    pool.submit(0, &one_arm).expect("Predicted mode");
    pool.submit(1, &ds.demos[1].frames[0]).expect("Predicted mode");
    pool.flush_into(&mut Vec::new());
}

/// A job sent to a dead shard worker fails loud with the worker's own
/// panic. Stalls of zero length go to shard 0 until one finds its worker
/// gone, for at most ten seconds.
#[test]
#[should_panic(
    expected = "shard worker 0 exited while the pool was alive: shard 0 panicked: assertion \
                `left == right` failed: Normalizer::apply_frame_inplace: dimension mismatch"
)]
fn send_fails_loud_when_a_shard_worker_has_died() {
    let (mut pool, _, one_arm) = pool_and_one_arm_frame();
    pool.submit(0, &one_arm).expect("Predicted mode");
    for _ in 0..10_000 {
        pool.inject_stall(0, Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Submitting to a removed session is a programming error and dies loud.
#[test]
#[should_panic(expected = "removed")]
fn submit_to_removed_session_panics() {
    let (pipeline, ds) = tiny_pipeline(73);
    let mut pool = ShardedMonitorPool::with_sessions(
        Arc::new(pipeline),
        ContextMode::Predicted,
        ServeConfig { workers: 2, threshold: 0.5, precision: Precision::F32 },
        2,
    );
    pool.remove_session(0);
    let _ = pool.submit(0, &ds.demos[0].frames[0]);
}
