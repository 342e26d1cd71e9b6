//! The system under test and its inputs: a fixed-seed trained pipeline
//! (the same for every run) and seeded synthetic Suturing demos held out
//! from its training set.

use crate::wire::StreamSpec;
use context_monitor::{
    ContextMode, EngineStep, InferenceEngine, MonitorConfig, MonitorOutput, Precision,
    TrainedPipeline,
};
use gestures::Task;
use ingress::codec::DecisionMsg;
use jigsaws::{generate, GeneratorConfig};
use kinematics::{Dataset, FeatureSet, KinematicSample};
use std::time::Instant;

/// Seed of the training set and of weight initialization. Fixed, so every
/// run serves the same model; the workload seed only picks the inputs.
pub const TRAIN_SEED: u64 = 2020;

/// Alert threshold of every served session (the `ServeConfig` default).
pub const THRESHOLD: f32 = 0.5;

/// Distinct demos a workload streams from; sessions cycle through them.
pub const WORKLOAD_DEMOS: usize = 8;

fn training_generator() -> GeneratorConfig {
    GeneratorConfig {
        num_demos: 24,
        duration_scale: 0.45,
        max_gestures: 14,
        ..GeneratorConfig::new(Task::Suturing)
    }
    .with_seed(TRAIN_SEED ^ Task::Suturing as u64)
}

/// The served monitor: the deployed two-stage shape (`MonitorConfig::fast`,
/// C,R,G features, window 5) trained briefly. The benchmark measures
/// serving, so two epochs are enough: any trained weights exercise the
/// same arithmetic.
pub fn monitor_config() -> MonitorConfig {
    let mut cfg = MonitorConfig::fast(FeatureSet::CRG).with_seed(TRAIN_SEED);
    cfg.train.epochs = 2;
    cfg.train_stride = 6;
    cfg
}

/// Generates the training set, trains the pipeline and, for the int8
/// tier, builds its calibrated twin. Returns the wall seconds it took.
pub fn build_pipeline(tier: Precision) -> (TrainedPipeline, f64) {
    let t = Instant::now();
    let ds = generate(&training_generator());
    let idx: Vec<usize> = (0..ds.len()).collect();
    let mut pipeline = TrainedPipeline::train(&ds, &idx, &monitor_config());
    if tier == Precision::Int8 {
        pipeline.quantize(&ds, &idx).expect("the built-in specs are quantizable");
    }
    (pipeline, t.elapsed().as_secs_f64())
}

/// Builds the int8 twin of an f32-served pipeline (for the per-layer
/// replays, which time both tiers), calibrated as `build_pipeline` does.
pub fn add_int8_twin(pipeline: &mut TrainedPipeline) {
    if pipeline.quantized.is_none() {
        let ds = generate(&training_generator());
        let idx: Vec<usize> = (0..ds.len()).collect();
        pipeline.quantize(&ds, &idx).expect("the built-in specs are quantizable");
    }
}

/// The workload's inputs: `WORKLOAD_DEMOS` full-length Suturing demos from
/// a generator seed derived from `seed` and never equal to the training
/// seed.
pub fn workload_streams(seed: u64) -> Vec<Vec<KinematicSample>> {
    let gen_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0BE4_C4A1_1D0C_5EED;
    assert_ne!(gen_seed, training_generator().seed, "workload seed collides with training");
    let cfg = GeneratorConfig { num_demos: WORKLOAD_DEMOS, ..GeneratorConfig::new(Task::Suturing) }
        .with_seed(gen_seed);
    let ds: Dataset = generate(&cfg);
    ds.demos.into_iter().map(|d| d.frames).collect()
}

/// The bit-equality key of one decision, as the wire carries it.
pub type Key = (u32, bool, bool, u8, u32);

/// FNV-1a over a session's `(seq, DecisionMsg::key())` stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub hash: u64,
    pub count: u64,
    pub warm: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Self { hash: 0xcbf2_9ce4_8422_2325, count: 0, warm: 0 }
    }
}

impl Digest {
    pub fn push(&mut self, key: Key) {
        let (seq, warm, alert, gesture, score_bits) = key;
        let mut bytes = [0u8; 11];
        bytes[..4].copy_from_slice(&seq.to_le_bytes());
        bytes[4] = warm as u8;
        bytes[5] = alert as u8;
        bytes[6] = gesture;
        bytes[7..].copy_from_slice(&score_bits.to_le_bytes());
        for b in bytes {
            self.hash = (self.hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.count += 1;
        self.warm += warm as u64;
    }
}

/// An engine step as the wire carries it, alerting as the pool does
/// (`score > threshold`).
pub fn wire_decision(seq: u32, step: &EngineStep) -> DecisionMsg {
    let output = step.complete().map(|(gesture, score)| MonitorOutput {
        gesture,
        unsafe_probability: score,
        alert: score > THRESHOLD,
        compute_ms: 0.0,
    });
    DecisionMsg::from_decision(seq, output.as_ref())
}

/// Untimed sequential reference: a fresh engine per session stepping the
/// same frames one at a time, converted to wire keys.
pub struct Reference<'a> {
    pipeline: &'a TrainedPipeline,
    tier: Precision,
}

impl<'a> Reference<'a> {
    pub fn new(pipeline: &'a TrainedPipeline, tier: Precision) -> Self {
        Self { pipeline, tier }
    }

    /// Digest of a fresh session fed `frames` in order, with `seq` counted
    /// from 0.
    pub fn digest<'f>(&self, frames: impl Iterator<Item = &'f KinematicSample>) -> Digest {
        let mut engine =
            InferenceEngine::with_precision(self.pipeline, ContextMode::Predicted, self.tier);
        let mut digest = Digest::default();
        for (seq, frame) in frames.enumerate() {
            let step =
                engine.step(self.pipeline, frame).expect("Predicted mode never needs context");
            digest.push(wire_decision(seq as u32, &step).key());
        }
        digest
    }
}

/// Reference digests for sessions `(spec, frames)`: each distinct session
/// is replayed once, on two threads.
pub fn reference_digests(
    pipeline: &TrainedPipeline,
    tier: Precision,
    streams: &[Vec<KinematicSample>],
    sessions: &[(StreamSpec, usize)],
) -> Vec<Digest> {
    let mut distinct: Vec<(StreamSpec, usize)> = sessions.to_vec();
    distinct.sort_by_key(|&(s, n)| (s.demo, s.offset, n));
    distinct.dedup();
    let reference = Reference::new(pipeline, tier);
    let half = distinct.len().div_ceil(2);
    let digest_all = |part: &[(StreamSpec, usize)]| -> Vec<Digest> {
        part.iter()
            .map(|&(spec, n)| reference.digest((0..n).map(|j| spec.frame(streams, j))))
            .collect()
    };
    let (a, b) = distinct.split_at(half);
    let (mut da, db) = std::thread::scope(|s| {
        let hb = s.spawn(|| digest_all(b));
        (digest_all(a), hb.join().expect("reference thread"))
    });
    da.extend(db);
    sessions
        .iter()
        .map(|key| {
            da[distinct
                .binary_search_by_key(&(key.0.demo, key.0.offset, key.1), |&(s, n)| {
                    (s.demo, s.offset, n)
                })
                .expect("every session is in the distinct set")]
        })
        .collect()
}
