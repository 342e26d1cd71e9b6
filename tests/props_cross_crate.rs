//! Property-based integration tests spanning crates: format roundtrips,
//! online/offline window equivalence, streaming/replay engine agreement,
//! metric invariants on generated data.

use context_monitor::{ContextMode, InferenceEngine, MonitorConfig, TrainedPipeline};
use eval::{auc, js_discrete, segments};
use gestures::{Gesture, MarkovChain, Task, ALL_TASKS};
use jigsaws::{generate, GeneratorConfig};
use kinematics::jigsaws_io::{
    format_kinematics, format_transcription, parse_kinematics, parse_transcription,
};
use kinematics::{FeatureSet, SlidingWindow, WindowConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A generated demonstration survives the JIGSAWS text roundtrip:
    /// kinematics within float-print precision, transcription exactly.
    #[test]
    fn jigsaws_text_roundtrip(seed in 0u64..500) {
        let ds = generate(&GeneratorConfig::fast(Task::Suturing).with_demos(1).with_seed(seed));
        let demo = &ds.demos[0];

        let ktext = format_kinematics(&demo.frames);
        let frames = parse_kinematics(&ktext, demo.manipulators()).unwrap();
        prop_assert_eq!(frames.len(), demo.len());
        for (a, b) in demo.frames.iter().zip(frames.iter()) {
            let va = a.to_vec();
            let vb = b.to_vec();
            for (x, y) in va.iter().zip(vb.iter()) {
                prop_assert!((x - y).abs() <= 1e-4_f32.max(x.abs() * 1e-5));
            }
        }

        let ttext = format_transcription(&demo.gestures);
        let labels = parse_transcription(&ttext, demo.len()).unwrap();
        prop_assert_eq!(&labels, &demo.gestures);
    }

    /// The streaming window buffer reproduces offline windowing exactly for
    /// arbitrary shapes.
    #[test]
    fn sliding_window_matches_offline(
        rows in 6usize..40,
        cols in 1usize..8,
        width in 2usize..6,
    ) {
        let data: Vec<f32> = (0..rows * cols).map(|i| (i as f32 * 0.37).sin()).collect();
        let m = nn::Mat::from_vec(rows, cols, data);
        let offline = kinematics::windows_with_positions(&m, WindowConfig::new(width, 1));
        let mut sw = SlidingWindow::new(width, cols);
        let mut online = Vec::new();
        for r in 0..rows {
            if let Some(w) = sw.push(m.row(r)) {
                online.push((w.clone(), r));
            }
        }
        prop_assert_eq!(offline, online);
    }

    /// Markov-chain sampling stays within each task's vocabulary and
    /// re-estimation from samples yields a normalized chain.
    #[test]
    fn markov_sample_estimate_invariants(seed in 0u64..300, task_idx in 0usize..4) {
        let task = ALL_TASKS[task_idx];
        let chain = task.reference_chain();
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed);
        let seqs: Vec<Vec<Gesture>> = (0..20).map(|_| chain.sample(&mut rng, 40)).collect();
        let vocab: std::collections::HashSet<_> = task.gestures().iter().copied().collect();
        for s in &seqs {
            prop_assert!(!s.is_empty());
            for g in s {
                prop_assert!(vocab.contains(g));
            }
        }
        let estimated = MarkovChain::estimate(&seqs);
        prop_assert!(estimated.is_normalized(1e-4));
    }

    /// AUC is flip-symmetric: negating scores and labels gives 1 - AUC.
    #[test]
    fn auc_flip_symmetry(scores in prop::collection::vec(0.0f32..1.0, 8..40)) {
        let labels: Vec<bool> = scores.iter().enumerate().map(|(i, _)| i % 3 == 0).collect();
        if let Some(a) = auc(&scores, &labels) {
            let neg: Vec<f32> = scores.iter().map(|s| -s).collect();
            let flipped: Vec<bool> = labels.iter().map(|l| !l).collect();
            let b = auc(&neg, &flipped).unwrap();
            prop_assert!((a - b).abs() < 1e-5, "auc {} vs flipped {}", a, b);
        }
    }

    /// JS divergence between arbitrary discrete distributions is symmetric
    /// and within [0, ln 2].
    #[test]
    fn js_divergence_bounds(raw_p in prop::collection::vec(0.01f32..1.0, 4), raw_q in prop::collection::vec(0.01f32..1.0, 4)) {
        let norm = |v: &[f32]| {
            let s: f32 = v.iter().sum();
            v.iter().map(|x| x / s).collect::<Vec<_>>()
        };
        let p = norm(&raw_p);
        let q = norm(&raw_q);
        let d = js_discrete(&p, &q);
        prop_assert!(d >= -1e-6);
        prop_assert!(d <= std::f32::consts::LN_2 + 1e-5);
        prop_assert!((d - js_discrete(&q, &p)).abs() < 1e-5);
    }

    /// Segments partition any label stream: contiguous, non-overlapping,
    /// covering, and label-alternating.
    #[test]
    fn segments_partition_streams(labels in prop::collection::vec(0usize..4, 1..80)) {
        let segs = segments(&labels);
        prop_assert_eq!(segs.first().unwrap().start, 0);
        prop_assert_eq!(segs.last().unwrap().end, labels.len());
        for w in segs.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
            prop_assert_ne!(w[0].label, w[1].label);
        }
        for s in &segs {
            for (t, &l) in labels.iter().enumerate().take(s.end).skip(s.start) {
                prop_assert_eq!(l, s.label, "frame {}", t);
            }
        }
    }

    /// Feature extraction width always matches the feature-set arithmetic.
    #[test]
    fn feature_dims_are_consistent(seed in 0u64..200) {
        let ds = generate(&GeneratorConfig::fast(Task::BlockTransfer).with_demos(1).with_seed(seed));
        let demo = &ds.demos[0];
        for fs in [FeatureSet::ALL, FeatureSet::CRG, FeatureSet::CG] {
            let m = demo.feature_matrix(&fs);
            prop_assert_eq!(m.cols(), fs.dims(demo.manipulators()));
            prop_assert_eq!(m.rows(), demo.len());
        }
    }
}

/// Trains a deliberately tiny pipeline (enough to exercise both stages,
/// cheap enough to repeat across seeds).
fn tiny_pipeline(seed: u64) -> (TrainedPipeline, kinematics::Dataset) {
    let ds = generate(&GeneratorConfig::fast(Task::Suturing).with_seed(seed));
    let mut cfg = MonitorConfig::fast(FeatureSet::CRG).with_seed(seed ^ 0xA5);
    cfg.train.epochs = 2;
    cfg.train_stride = 6;
    let idx: Vec<usize> = (0..ds.len()).collect();
    (TrainedPipeline::train(&ds, &idx, &cfg), ds)
}

/// Offline replay and online streaming are the same `InferenceEngine`, so
/// from the first emitted frame onward they must agree **bit-exactly** — no
/// tolerance — in every context mode and across training seeds.
#[test]
fn offline_and_online_agree_bit_exactly_across_modes_and_seeds() {
    for seed in [11u64, 29, 47] {
        let (pipeline, ds) = tiny_pipeline(seed);
        assert!(
            !pipeline.error_nets.is_empty(),
            "seed {seed}: expected at least one dedicated error classifier"
        );
        let demo = &ds.demos[0];
        for mode in [ContextMode::Predicted, ContextMode::Perfect, ContextMode::NoContext] {
            let offline = pipeline.run_demo(demo, mode);

            let mut engine = InferenceEngine::new(&pipeline, mode);
            let mut gestures_online = Vec::new();
            let mut scores_online = Vec::new();
            for (frame, &truth) in demo.frames.iter().zip(demo.gestures.iter()) {
                let step = match mode {
                    ContextMode::Perfect => engine.step_with_context(&pipeline, frame, truth),
                    _ => engine.step(&pipeline, frame).expect("only Perfect mode fails"),
                };
                if let Some((gesture, score)) = step.complete() {
                    gestures_online.push(gesture.index());
                    scores_online.push(score);
                }
            }
            assert!(!scores_online.is_empty(), "seed {seed} {mode}: nothing emitted");
            let start = demo.len() - scores_online.len();
            assert_eq!(
                &offline.gesture_pred[start..],
                &gestures_online[..],
                "seed {seed} {mode}: gesture disagreement"
            );
            // Exact equality (acceptance criterion): not within-epsilon.
            assert_eq!(
                &offline.unsafe_score[start..],
                &scores_online[..],
                "seed {seed} {mode}: score disagreement"
            );
        }
    }
}

/// Engines sharing one pipeline — fed in a deliberately bursty, uneven
/// interleaving — produce exactly what each demo produces through its own
/// engine stepped in isolation.
#[test]
fn pool_interleaved_sessions_match_isolated_runs() {
    let (pipeline, ds) = tiny_pipeline(23);
    let demos: Vec<_> = ds.demos.iter().take(3).collect();
    let decide = |engine: &mut InferenceEngine, frame| {
        let step = engine.step(&pipeline, frame).expect("Predicted mode cannot fail");
        step.complete().map(|(g, p)| (g.index(), p, p > 0.5))
    };

    let mut isolated: Vec<Vec<(usize, f32, bool)>> = Vec::new();
    for demo in &demos {
        let mut engine = InferenceEngine::new(&pipeline, ContextMode::Predicted);
        isolated.push(demo.frames.iter().filter_map(|f| decide(&mut engine, f)).collect());
    }

    let mut pool: Vec<InferenceEngine> =
        demos.iter().map(|_| InferenceEngine::new(&pipeline, ContextMode::Predicted)).collect();
    let mut pooled: Vec<Vec<(usize, f32, bool)>> = vec![Vec::new(); demos.len()];
    let mut cursors = vec![0usize; demos.len()];
    // Bursty schedule: session s advances in bursts of s + 1 frames.
    let mut remaining = demos.iter().map(|d| d.len()).sum::<usize>();
    let mut s = 0usize;
    while remaining > 0 {
        for _ in 0..=s {
            if cursors[s] < demos[s].len() {
                if let Some(out) = decide(&mut pool[s], &demos[s].frames[cursors[s]]) {
                    pooled[s].push(out);
                }
                cursors[s] += 1;
                remaining -= 1;
            }
        }
        s = (s + 1) % demos.len();
    }

    assert_eq!(isolated, pooled, "interleaving changed session outputs");
}
