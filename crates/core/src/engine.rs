//! The shared incremental inference core.
//!
//! Every deployment shape of the monitor — offline replay
//! ([`TrainedPipeline::run_demo`](crate::pipeline::TrainedPipeline::run_demo)),
//! one streaming session ([`InferenceEngine::step`]) and the sharded pool
//! ([`ShardedMonitorPool`](crate::serve::ShardedMonitorPool), via
//! [`step_batch`]) — drives [`InferenceEngine`]: an allocation-free,
//! frame-at-a-time evaluator that owns the per-session state (sliding
//! windows, the causal gesture-smoothing filter, and inference scratch
//! buffers) while the model weights stay in the shared [`TrainedPipeline`].
//!
//! The two-stage step is written once, in the private tick behind
//! [`step_batch`]; [`InferenceEngine::step`] runs it as a one-job tick.
//! Offline, streaming and pooled outputs therefore agree by construction,
//! which is why the tick itself is checked against an independent oracle
//! (this module's `engine_matches_independent_oracle_bit_for_bit` test).
//!
//! Per frame, the steady-state hot path performs **no heap allocation**:
//! feature extraction, normalization, windowing, both network forward passes
//! (via [`nn::Network::predict_batch_into`] or its int8 twin), the softmax,
//! and the majority filter all reuse preallocated buffers. The paper reports
//! 1.5–3.2 ms per-sample compute (Table VIII); keeping the per-frame path
//! allocation-free is what lets one process multiplex many concurrent
//! surgical sessions at that budget.

use crate::config::Precision;
use crate::pipeline::{ContextMode, ErrorRoute, QuantizedPipeline, TrainedPipeline};
use gestures::{Gesture, NUM_GESTURES};
use kinematics::{KinematicSample, SlidingWindow};
use nn::loss::softmax_into;
use nn::{Mat, NetworkScratch, QuantScratch};
use std::collections::VecDeque;

/// The quantized twin an [`Precision::Int8`] engine infers through.
/// Engines assert its presence at construction, so a miss here is a
/// caller swapping pipelines mid-session.
// lint: hot-path
fn quantized(pipeline: &TrainedPipeline) -> &QuantizedPipeline {
    // lint: allow(panic, reason = "with_precision asserts the quantized twin exists; losing it mid-session means the caller swapped pipelines and must fail loud")
    pipeline.quantized.as_ref().expect("Precision::Int8 requires TrainedPipeline::quantize()")
}

/// Width of a stage-1 window row: stage 1's leading LSTM projects each
/// frame's gesture features once (`x·W₁`, `4·hidden` wide, on either tier),
/// and the engine's stage-1 window holds those projected rows.
///
/// # Panics
///
/// Panics when stage 1 does not start with an LSTM. Engines and pools call
/// this when they are built, so the tick never meets such a pipeline.
pub(crate) fn stage1_width(pipeline: &TrainedPipeline) -> usize {
    let width = pipeline.gesture_net.projected_width();
    assert!(
        width.is_some(),
        "stage 1 must start with an LSTM: the stage-1 window holds its projected input rows"
    );
    width.unwrap_or_default()
}

/// Typed error for the streaming decision path: a misconfigured caller gets
/// a value it can handle instead of a panic that would take down a serving
/// process hosting other sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineError {
    /// [`InferenceEngine::step`] (or a pool `submit`) was called on a
    /// [`ContextMode::Perfect`] engine, which needs externally supplied
    /// gesture boundaries (`step_with_context` / `submit_with_context`).
    MissingContext,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::MissingContext => f.write_str(
                "ContextMode::Perfect requires externally supplied gesture context \
                 (use step_with_context / submit_with_context)",
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Causal majority filter over a bounded trailing window with O(1) updates.
///
/// Replaces the O(k log k) per-frame recounts that the offline
/// (`mode_of`) and online (`mode_of_deque`) paths used to duplicate: counts
/// are maintained incrementally, and per-class queues of insertion indices
/// resolve ties by **earliest appearance in the window** — the same rule as
/// the historical recount ("first value whose class attains the maximal
/// count wins").
#[derive(Debug, Clone)]
pub struct MajorityFilter {
    capacity: usize,
    values: VecDeque<usize>,
    counts: Vec<usize>,
    /// Per class: insertion indices of its occurrences still in the window
    /// (monotonically increasing; front = earliest).
    positions: Vec<VecDeque<u64>>,
    next_index: u64,
}

impl MajorityFilter {
    /// Creates a filter over the `capacity` most recent values drawn from
    /// `classes` distinct classes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `classes == 0`.
    pub fn new(capacity: usize, classes: usize) -> Self {
        assert!(capacity > 0, "MajorityFilter: capacity must be positive");
        assert!(classes > 0, "MajorityFilter: classes must be positive");
        Self {
            capacity,
            values: VecDeque::with_capacity(capacity + 1),
            counts: vec![0; classes],
            positions: (0..classes).map(|_| VecDeque::with_capacity(capacity + 1)).collect(),
            next_index: 0,
        }
    }

    /// Pushes the newest value (evicting the oldest once at capacity) and
    /// returns the current majority. Amortized O(1) update, O(classes)
    /// query.
    ///
    /// # Panics
    ///
    /// Panics if `value` is out of the class range.
    // lint: hot-path
    pub fn push(&mut self, value: usize) -> usize {
        assert!(value < self.counts.len(), "MajorityFilter: class {value} out of range");
        if self.values.len() == self.capacity {
            // lint: allow(panic, reason = "window is at capacity, so pop_front cannot fail")
            let evicted = self.values.pop_front().expect("non-empty at capacity");
            // Covers this line and the next: evicted was admitted through
            // the entry assert, so it indexes in range.
            self.counts[evicted] -= 1; // lint: allow(panic, reason = "evicted passed the entry assert; counts/positions share its range")
            self.positions[evicted].pop_front();
        }
        self.values.push_back(value);
        // Covers this line and the next: value < counts.len() is asserted
        // at entry and positions has the same length.
        self.counts[value] += 1; // lint: allow(panic, reason = "value < counts.len() asserted at entry; positions same length")
        self.positions[value].push_back(self.next_index);
        self.next_index += 1;
        // lint: allow(panic, reason = "a value was just pushed, so the window cannot be empty")
        self.majority().expect("filter non-empty after push")
    }

    /// The majority class of the current window (earliest-seen wins ties),
    /// or `None` when empty.
    // lint: hot-path
    pub fn majority(&self) -> Option<usize> {
        let mut best: Option<(usize, usize, u64)> = None; // (class, count, first_idx)
        for (class, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            // lint: allow(panic, reason = "class enumerates counts, positions has the same length, and count > 0 means a position exists")
            let first = *self.positions[class].front().expect("count > 0");
            let better = match best {
                None => true,
                Some((_, bc, bf)) => count > bc || (count == bc && first < bf),
            };
            if better {
                best = Some((class, count, first));
            }
        }
        // lint: allow(hot-path, reason = "receiver is an Option, not a Mat -- std .map() name collision in the receiver-blind resolver")
        best.map(|(class, _, _)| class)
    }

    /// Number of values currently in the window.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Empties the window (capacity and class range are kept).
    pub fn clear(&mut self) {
        self.values.clear();
        self.counts.fill(0);
        for p in &mut self.positions {
            p.clear();
        }
        self.next_index = 0;
    }
}

/// Per-frame engine output. Each stage reports `Some` once its sliding
/// window (and, for the error stage, its routing context) is warm:
///
/// * `gesture` — the smoothed gesture context, from frame `gesture_window-1`
///   on (immediately in [`ContextMode::Perfect`]).
/// * `unsafe_score` — the erroneous-gesture probability, from the first
///   frame where both the error window and the required context exist.
///
/// The gesture is a typed [`Gesture`], not a raw class index: the engine
/// proves the index in-range at the single point where it leaves the
/// bounded [`MajorityFilter`], so downstream consumers can never observe
/// (or silently "repair") an out-of-range context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineStep {
    /// Smoothed operational context, once available.
    pub gesture: Option<Gesture>,
    /// Probability that the current window is unsafe, once available.
    pub unsafe_score: Option<f32>,
}

impl EngineStep {
    /// Both stages warm: `(gesture, unsafe_score)`.
    // lint: hot-path
    pub fn complete(&self) -> Option<(Gesture, f32)> {
        match (self.gesture, self.unsafe_score) {
            (Some(g), Some(s)) => Some((g, s)),
            _ => None,
        }
    }
}

/// Incremental two-stage evaluator holding **only per-session state**; model
/// weights live in the [`TrainedPipeline`] passed to every [`step`](Self::step),
/// so many engines can share one pipeline (see
/// [`ShardedMonitorPool`](crate::serve::ShardedMonitorPool)).
///
/// The engine must be stepped with the pipeline it was created from (or an
/// identically configured one); window widths and feature dimensions are
/// fixed at construction.
#[derive(Debug)]
pub struct InferenceEngine {
    mode: ContextMode,
    /// Numeric tier the forward passes run at.
    precision: Precision,
    /// Error-stage sliding window over normalized features.
    window: SlidingWindow,
    /// Gesture-stage sliding window over the projected rows of stage 1's
    /// first layer ([`stage1_width`]): each frame is projected once, on the
    /// tick it arrives.
    gesture_window: SlidingWindow,
    /// Causal smoothing over raw stage-1 predictions.
    filter: MajorityFilter,
    /// Last smoothed gesture (stage-2 routing context).
    gesture: Option<Gesture>,
    frames_seen: usize,
    // Per-frame feature rows (reused every frame; no steady-state allocation).
    feat: Vec<f32>,
    gfeat: Vec<f32>,
    /// The scratch [`step`](Self::step) runs its one-job tick on. It lives
    /// here — not in the shared networks — so one read-only
    /// `TrainedPipeline` can serve many engines across threads. A pool tick
    /// brings its own and leaves this one untouched.
    scratch: BatchScratch,
}

impl InferenceEngine {
    /// Creates a fresh (cold) engine for one session on the default
    /// [`Precision::F32`] tier.
    pub fn new(pipeline: &TrainedPipeline, mode: ContextMode) -> Self {
        Self::with_precision(pipeline, mode, Precision::F32)
    }

    /// Creates a fresh engine on a chosen numeric tier.
    ///
    /// # Panics
    ///
    /// Panics when asked for [`Precision::Int8`] before
    /// [`TrainedPipeline::quantize`](crate::pipeline::TrainedPipeline::quantize)
    /// populated the pipeline's quantized twin, or when stage 1 does not
    /// start with an LSTM — misconfigurations that must fail at session
    /// setup, not on the first warm frame.
    pub fn with_precision(
        pipeline: &TrainedPipeline,
        mode: ContextMode,
        precision: Precision,
    ) -> Self {
        assert!(
            precision == Precision::F32 || pipeline.quantized.is_some(),
            "Precision::Int8 requires TrainedPipeline::quantize() before engine creation"
        );
        let cfg = &pipeline.config;
        Self {
            mode,
            precision,
            window: SlidingWindow::new(cfg.window.width, pipeline.in_dim),
            gesture_window: SlidingWindow::new(cfg.gesture_window, stage1_width(pipeline)),
            filter: MajorityFilter::new(cfg.gesture_smoothing.max(1), NUM_GESTURES),
            gesture: None,
            frames_seen: 0,
            feat: Vec::with_capacity(pipeline.in_dim),
            gfeat: Vec::with_capacity(pipeline.gesture_in_dim),
            scratch: BatchScratch::new(pipeline),
        }
    }

    /// The context mode this engine evaluates.
    pub fn mode(&self) -> ContextMode {
        self.mode
    }

    /// The numeric tier this engine infers at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Frames consumed since construction or the last [`reset`](Self::reset).
    pub fn frames_seen(&self) -> usize {
        self.frames_seen
    }

    /// Clears all per-session state (call between procedures).
    pub fn reset(&mut self) {
        self.window.clear();
        self.gesture_window.clear();
        self.filter.clear();
        self.gesture = None;
        self.frames_seen = 0;
    }

    /// Feeds one frame, inferring the gesture context with stage 1.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::MissingContext`] in [`ContextMode::Perfect`]
    /// — perfect boundaries must be supplied via
    /// [`step_with_context`](Self::step_with_context). The frame is **not**
    /// consumed on error (no window or counter advances).
    // lint: hot-path
    pub fn step(
        &mut self,
        pipeline: &TrainedPipeline,
        frame: &KinematicSample,
    ) -> Result<EngineStep, EngineError> {
        if self.mode == ContextMode::Perfect {
            return Err(EngineError::MissingContext);
        }
        Ok(self.step_alone(pipeline, frame, None))
    }

    /// Feeds one frame with externally supplied context (the
    /// perfect-boundary upper bound). In the other modes the supplied
    /// context is ignored and stage 1 infers it as usual.
    // lint: hot-path
    pub fn step_with_context(
        &mut self,
        pipeline: &TrainedPipeline,
        frame: &KinematicSample,
        gesture: Gesture,
    ) -> EngineStep {
        self.step_alone(pipeline, frame, Some(gesture))
    }

    /// Runs the tick with this engine as its only job, on the engine's own
    /// scratch.
    // lint: hot-path
    fn step_alone(
        &mut self,
        pipeline: &TrainedPipeline,
        frame: &KinematicSample,
        context: Option<Gesture>,
    ) -> EngineStep {
        let mut scratch = std::mem::take(&mut self.scratch);
        tick(
            pipeline,
            std::slice::from_mut(self),
            std::iter::once((0, frame, context)),
            &mut scratch,
        );
        let unsafe_score = scratch.scores.first().copied().flatten();
        self.scratch = scratch;
        EngineStep { gesture: self.gesture, unsafe_score }
    }

    /// Smooths a raw stage-1 class index and converts it to a typed
    /// [`Gesture`], the **only** place a class index crosses into the typed
    /// domain. In-range is an invariant, not a hope: `MajorityFilter::push`
    /// asserts `raw < NUM_GESTURES` on entry and only ever returns values it
    /// admitted, so the conversion cannot fail — a malformed gesture
    /// classifier (logit width ≠ `NUM_GESTURES`) is rejected loudly here
    /// instead of being silently mapped to `Gesture::G1` downstream.
    // lint: hot-path
    fn smooth_raw_class(&mut self, raw: usize) -> Gesture {
        let smoothed = self.filter.push(raw);
        // lint: allow(panic, reason = "the filter only returns values it admitted, all < NUM_GESTURES; a malformed classifier must fail loud")
        Gesture::from_index(smoothed).expect("MajorityFilter output is bounded by NUM_GESTURES")
    }
}

/// One engine+frame pair inside a micro-batched tick ([`step_batch`]).
///
/// The engine is referenced by **index** into the engine slice passed to
/// `step_batch` (not by `&mut`), which lets a long-running worker keep one
/// reusable `Vec<BatchJob>` across ticks — the serving hot path performs no
/// per-tick allocation.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Index of the per-session engine in the tick's engine slice. An
    /// engine may appear **at most once** per tick: its sliding window is
    /// consumed by the batched forward pass.
    pub engine: usize,
    /// The frame to feed.
    pub frame: KinematicSample,
    /// Externally supplied context — required for engines in
    /// [`ContextMode::Perfect`], ignored otherwise.
    pub context: Option<Gesture>,
}

/// Reusable buffers for a tick: the tick's new stage-1 frames and their
/// projections, stacked window matrices, batched logits, network scratch
/// for both stages, the softmax, and tick bookkeeping. A
/// shard worker keeps one for [`step_batch`], and every engine keeps one for
/// [`InferenceEngine::step`]. Everything grows to a high-water mark and is
/// reused. `Default` is the empty placeholder `step` leaves in the engine
/// while its tick runs; only [`BatchScratch::new`] sizes the network
/// scratch a tick needs.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// This tick's normalized stage-1 frames, one row per `gnew` engine.
    gframes: Mat,
    /// Their projection through stage 1's first layer.
    gproj: Mat,
    gwindows: Mat,
    glogits: Mat,
    gscratch: NetworkScratch,
    ewindows: Mat,
    elogits: Mat,
    escratch: NetworkScratch,
    /// Int8-tier scratch (both stages, sequential use). Empty on f32 ticks.
    qscratch: QuantScratch,
    probs: [f32; 2],
    /// Engines that got a stage-1 frame this tick.
    gnew: Vec<usize>,
    /// Engines whose gesture window is warm this tick.
    gmembers: Vec<usize>,
    /// `(job, engine)` for each job whose error window is warm.
    emembers: Vec<(usize, usize)>,
    /// `(job, engine, route)` for each window awaiting stage 2.
    pending: Vec<(usize, usize, ErrorRoute)>,
    /// Each job's unsafe score, in job order.
    scores: Vec<Option<f32>>,
    seen: Vec<bool>,
}

impl BatchScratch {
    /// Creates scratch sized for `pipeline`'s two classifier stages.
    pub fn new(pipeline: &TrainedPipeline) -> Self {
        Self {
            gscratch: pipeline.gesture_net.make_scratch(),
            escratch: pipeline.error_scratch(),
            ..Self::default()
        }
    }
}

/// Advances several sessions by one frame each with **cross-session
/// micro-batching**: all warm stage-1 windows run through one batched
/// gesture-net forward pass, and stage-2 windows are grouped by the error
/// classifier they route to and batched per group.
///
/// [`InferenceEngine::step`] runs the same tick with one job, so a
/// session's outputs do not depend on which of the two drives it: each
/// batched row is the same dot-product sequence as that row alone (see
/// `nn::Network::predict_batch_into`), and batching touches no
/// per-session state (windows, majority filter). The test
/// `engine_matches_independent_oracle_bit_for_bit` checks both paths
/// against a reference that shares none of this code. `outputs` is cleared
/// and refilled with one [`EngineStep`] per job, in job order.
///
/// All engines must come from (engines configured identically to)
/// `pipeline`.
///
/// # Panics
///
/// Panics when a job references an out-of-range or duplicated engine
/// index, when the engines run at different [`Precision`]s, or when an
/// engine in [`ContextMode::Perfect`] is given no context — the same
/// invariant [`InferenceEngine::step`] reports as
/// [`EngineError::MissingContext`]; the serving layer rejects such
/// submissions before they ever reach a worker, and a loud panic here
/// beats silently suppressing a session's output in release builds.
// lint: hot-path
pub fn step_batch(
    pipeline: &TrainedPipeline,
    engines: &mut [InferenceEngine],
    jobs: &[BatchJob],
    scratch: &mut BatchScratch,
    outputs: &mut Vec<EngineStep>,
) {
    // lint: allow(hot-path, reason = "receiver is a slice iterator, not a Mat -- std .map() name collision in the receiver-blind resolver")
    tick(pipeline, engines, jobs.iter().map(|job| (job.engine, &job.frame, job.context)), scratch);
    outputs.clear();
    for (job, &unsafe_score) in jobs.iter().zip(&scratch.scores) {
        // lint: allow(panic, reason = "the tick asserted every job.engine in range")
        outputs.push(EngineStep { gesture: engines[job.engine].gesture, unsafe_score });
    }
}

/// The two-stage step, written once: feeds each job's `(engine, frame,
/// context)` to that engine, runs one batched forward pass per classifier,
/// and leaves each job's unsafe score in `scratch.scores`, in job order.
/// See [`step_batch`] for the contract and the panics.
// lint: hot-path
fn tick<'f>(
    pipeline: &TrainedPipeline,
    engines: &mut [InferenceEngine],
    jobs: impl Iterator<Item = (usize, &'f KinematicSample, Option<Gesture>)>,
    scratch: &mut BatchScratch,
) {
    let BatchScratch {
        gframes,
        gproj,
        gwindows,
        glogits,
        gscratch,
        ewindows,
        elogits,
        escratch,
        qscratch,
        probs,
        gnew,
        gmembers,
        emembers,
        pending,
        scores,
        seen,
    } = scratch;
    seen.clear();
    seen.resize(engines.len(), false);
    gnew.clear();
    gmembers.clear();
    emembers.clear();
    pending.clear();
    scores.clear();

    // Phase 1: ingest every frame into its engine's windows (no inference).
    // One batched forward pass serves the whole tick, so every engine in it
    // must run at one numeric tier (the serving layer configures a pool
    // uniformly; mixing tiers requires separate pools).
    let mut precision = None;
    for (j, (engine, frame, context)) in jobs.enumerate() {
        assert!(engine < engines.len(), "step_batch: unknown engine {engine}");
        // lint: allow(panic, reason = "engine passed the bound assert above, and seen is engines.len() long")
        let (e, dup) = (&mut engines[engine], &mut seen[engine]);
        assert!(
            !std::mem::replace(dup, true),
            "step_batch: engine {engine} appears twice in one tick"
        );
        let tier = *precision.get_or_insert(e.precision);
        assert!(e.precision == tier, "step_batch: mixed-precision tick");
        e.frames_seen += 1;
        if e.mode == ContextMode::Perfect {
            assert!(context.is_some(), "Perfect mode requires context (see EngineError)");
            e.gesture = context;
        } else {
            frame.to_feature_vec_into(&pipeline.config.gesture_features, &mut e.gfeat);
            pipeline.gesture_normalizer.apply_frame_inplace(&mut e.gfeat);
            gnew.push(engine);
        }
        frame.to_feature_vec_into(&pipeline.config.features, &mut e.feat);
        pipeline.normalizer.apply_frame_inplace(&mut e.feat);
        if e.window.push(&e.feat).is_some() {
            emembers.push((j, engine));
        }
        scores.push(None);
    }
    let Some(precision) = precision else { return };

    // Phase 2: project this tick's new stage-1 frames through the first
    // layer's input weights in one batched call (row-independent, so each
    // row equals its row in a whole-window projection), push them into the
    // stage-1 windows, then run one batched stage-1 pass from the projected
    // windows for every warm one, then the per-session smoothing filters.
    if !gnew.is_empty() {
        gframes.resize(gnew.len(), pipeline.gesture_in_dim);
        for (b, &e) in gnew.iter().enumerate() {
            // lint: allow(panic, reason = "gnew holds engine indices that passed the bound assert")
            gframes.row_mut(b).copy_from_slice(&engines[e].gfeat);
        }
        match precision {
            Precision::F32 => pipeline.gesture_net.project_rows_into(gframes, gproj, gscratch),
            Precision::Int8 => {
                quantized(pipeline).gesture_net.project_rows_into(gframes, gproj, qscratch)
            }
        }
        for (b, &e) in gnew.iter().enumerate() {
            // lint: allow(panic, reason = "gnew holds engine indices that passed the bound assert")
            if engines[e].gesture_window.push(gproj.row(b)).is_some() {
                gmembers.push(e);
            }
        }
    }
    if !gmembers.is_empty() {
        let (n, gw) = (gmembers.len(), pipeline.config.gesture_window);
        gwindows.resize(n * gw, gproj.cols());
        for (b, &e) in gmembers.iter().enumerate() {
            // lint: allow(panic, reason = "gmembers holds engine indices that passed the bound assert")
            let copied = engines[e].gesture_window.copy_current_into(gwindows, b * gw);
            debug_assert!(copied, "warm window expected");
        }
        match precision {
            Precision::F32 => {
                pipeline.gesture_net.predict_projected_batch_into(gwindows, n, glogits, gscratch)
            }
            Precision::Int8 => quantized(pipeline)
                .gesture_net
                .predict_projected_batch_into(gwindows, n, glogits, qscratch),
        }
        debug_assert_eq!(glogits.cols(), NUM_GESTURES);
        for (b, &e) in gmembers.iter().enumerate() {
            // lint: allow(panic, reason = "gmembers holds engine indices that passed the bound assert")
            let e = &mut engines[e];
            e.gesture = Some(e.smooth_raw_class(glogits.argmax_row(b)));
        }
    }

    // Phase 3: stage-2 scoring, batched per routed classifier. `NoContext`
    // routes every window to the global classifier, with no context needed.
    // Grouping by route is safe because every batched row only depends on
    // its own window; the stable sort keeps job order within each group.
    for &(j, e) in emembers.iter() {
        // lint: allow(panic, reason = "emembers holds engine indices that passed the bound assert")
        let engine = &engines[e];
        let class = match (engine.mode, engine.gesture) {
            (ContextMode::NoContext, _) => 0,
            (_, Some(g)) => g.index(),
            (_, None) => continue,
        };
        match pipeline.error_route(class, engine.mode) {
            Some(route) => pending.push((j, e, route)),
            // No classifier for this route: the score is 0.
            None => scores[j] = Some(0.0), // lint: allow(panic, reason = "scores got one push per job in phase 1")
        }
    }
    pending.sort_by_key(|&(_, _, route)| route);
    for group in pending.chunk_by(|a, b| a.2 == b.2) {
        let Some(&(_, _, route)) = group.first() else { continue };
        let (n, w) = (group.len(), pipeline.config.window.width);
        ewindows.resize(n * w, pipeline.in_dim);
        for (b, &(_, e, _)) in group.iter().enumerate() {
            // lint: allow(panic, reason = "pending holds engine indices that passed the bound assert")
            let copied = engines[e].window.copy_current_into(ewindows, b * w);
            debug_assert!(copied, "warm window expected");
        }
        match precision {
            Precision::F32 => {
                pipeline.error_net(route).predict_batch_into(ewindows, n, elogits, escratch)
            }
            Precision::Int8 => quantized(pipeline)
                .error_net(route)
                .predict_batch_into(ewindows, n, elogits, qscratch),
        }
        for (b, &(j, _, _)) in group.iter().enumerate() {
            softmax_into(elogits.row(b), probs);
            let [_, unsafe_p] = *probs;
            scores[j] = Some(unsafe_p); // lint: allow(panic, reason = "scores got one push per job in phase 1")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ErrorModelKind, MonitorConfig};
    use kinematics::FeatureSet;

    /// Recount reference: most frequent value in a non-empty slice,
    /// earliest-seen winning ties. This is the exact rule the historical
    /// duplicated `mode_of` / `mode_of_deque` implementations enforced;
    /// [`MajorityFilter`] must stay equivalent to it forever.
    fn mode_of(values: &[usize]) -> usize {
        debug_assert!(!values.is_empty());
        let mut counts = std::collections::BTreeMap::new();
        for &v in values {
            *counts.entry(v).or_insert(0usize) += 1;
        }
        let mut best = values[0];
        let mut best_n = 0usize;
        for &v in values {
            let n = counts[&v];
            if n > best_n {
                best = v;
                best_n = n;
            }
        }
        best
    }

    /// Sliding-window recount reference implementing the historical
    /// semantics of `pipeline::mode_of` over the trailing `k` values.
    fn recount_reference(stream: &[usize], k: usize) -> Vec<usize> {
        (0..stream.len())
            .map(|i| {
                let lo = i.saturating_sub(k - 1);
                mode_of(&stream[lo..=i])
            })
            .collect()
    }

    #[test]
    fn majority_matches_recount_on_random_streams() {
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for &k in &[1usize, 2, 5, 9] {
            for classes in [2usize, 5, NUM_GESTURES] {
                let stream: Vec<usize> = (0..300).map(|_| next() % classes).collect();
                let expected = recount_reference(&stream, k);
                let mut filter = MajorityFilter::new(k, classes);
                let got: Vec<usize> = stream.iter().map(|&v| filter.push(v)).collect();
                assert_eq!(got, expected, "k={k}, classes={classes}");
            }
        }
    }

    #[test]
    fn tie_break_is_earliest_seen_in_window() {
        let mut filter = MajorityFilter::new(4, 3);
        assert_eq!(filter.push(2), 2); // [2]
        assert_eq!(filter.push(1), 2); // [2, 1]: 1-1 tie, 2 seen first
        assert_eq!(filter.push(1), 1); // [2, 1, 1]: 1 leads outright
        assert_eq!(filter.push(2), 2); // [2, 1, 1, 2]: 2-2 tie, 2 seen first
        assert_eq!(filter.push(2), 1); // [1, 1, 2, 2]: 2-2 tie, 1 seen first
        assert_eq!(filter.push(2), 2); // [1, 2, 2, 2]: 2 leads outright
                                       // Matches the recount reference rule exactly.
        assert_eq!(mode_of(&[2, 1]), 2);
        assert_eq!(mode_of(&[2, 1, 1, 2]), 2);
        assert_eq!(mode_of(&[1, 1, 2, 2]), 1);
        assert_eq!(mode_of(&[1, 2, 2, 2]), 2);
    }

    #[test]
    fn eviction_forgets_old_values() {
        let mut filter = MajorityFilter::new(2, 4);
        filter.push(3);
        filter.push(3);
        assert_eq!(filter.majority(), Some(3));
        filter.push(0);
        filter.push(0);
        assert_eq!(filter.majority(), Some(0), "3s evicted");
        assert_eq!(filter.len(), 2);
    }

    #[test]
    fn clear_resets_filter() {
        let mut filter = MajorityFilter::new(3, 2);
        filter.push(1);
        filter.clear();
        assert!(filter.is_empty());
        assert_eq!(filter.majority(), None);
        assert_eq!(filter.push(0), 0);
    }

    fn dataset() -> kinematics::Dataset {
        use gestures::Task;
        use jigsaws::{generate, GeneratorConfig};
        generate(&GeneratorConfig::fast(Task::Suturing).with_seed(31))
    }

    /// The fast Suturing config, trained for `epochs` on windows `stride`
    /// frames apart.
    fn train(
        ds: &kinematics::Dataset,
        mut cfg: MonitorConfig,
        epochs: usize,
        stride: usize,
    ) -> TrainedPipeline {
        cfg.train.epochs = epochs;
        cfg.train_stride = stride;
        let idx: Vec<usize> = (0..ds.len()).collect();
        TrainedPipeline::train(ds, &idx, &cfg)
    }

    fn trained() -> (TrainedPipeline, kinematics::Dataset) {
        let ds = dataset();
        (train(&ds, MonitorConfig::fast(FeatureSet::CRG).with_seed(5), 3, 4), ds)
    }

    #[test]
    fn engine_warms_up_before_emitting() {
        let (pipeline, ds) = trained();
        let warm = pipeline.config.window.width.max(pipeline.config.gesture_window);
        let mut engine = InferenceEngine::new(&pipeline, ContextMode::Predicted);
        for (i, frame) in ds.demos[0].frames.iter().enumerate().take(warm) {
            let step = engine.step(&pipeline, frame).expect("Predicted mode cannot fail");
            assert_eq!(step.complete().is_some(), i + 1 >= warm, "frame {i}");
        }
    }

    /// The deterministic fields of every step, scores as bit patterns.
    fn replay(
        engine: &mut InferenceEngine,
        pipeline: &TrainedPipeline,
        frames: &[KinematicSample],
    ) -> Vec<(Option<Gesture>, Option<u32>)> {
        frames
            .iter()
            .map(|f| engine.step(pipeline, f).expect("Predicted mode cannot fail"))
            .map(|s| (s.gesture, s.unsafe_score.map(f32::to_bits)))
            .collect()
    }

    #[test]
    fn engine_reset_is_bit_equal_to_a_fresh_engine() {
        let (pipeline, ds) = trained();
        let frames = &ds.demos[0].frames;
        let fresh =
            replay(&mut InferenceEngine::new(&pipeline, ContextMode::Predicted), &pipeline, frames);

        // Same engine, dirtied by a partial run of a *different* demo
        // (windows and majority filter populated), then reset.
        let mut engine = InferenceEngine::new(&pipeline, ContextMode::Predicted);
        replay(&mut engine, &pipeline, &ds.demos[1].frames[..40]);
        assert_eq!(engine.frames_seen(), 40);
        engine.reset();
        assert_eq!(engine.frames_seen(), 0);
        assert_eq!(
            replay(&mut engine, &pipeline, frames),
            fresh,
            "post-reset output must be bit-equal to a fresh engine"
        );
    }

    /// A pipeline with fitted normalizers and seeded, untrained weights,
    /// plus its int8 twin: enough to reach `step_batch`'s entry asserts.
    fn untrained() -> (TrainedPipeline, kinematics::Dataset) {
        let ds = dataset();
        let none = crate::pipeline::TrainStages { gesture: false, errors: false };
        let cfg = MonitorConfig::fast(FeatureSet::CRG);
        let (mut pipeline, _) = TrainedPipeline::train_stages(&ds, &[0, 1], &cfg, none);
        pipeline.quantize(&ds, &[0]).expect("quantize");
        (pipeline, ds)
    }

    /// Runs one `step_batch` tick of `(engine, context)` jobs on demo 0's
    /// first frame.
    fn tick_of(
        pipeline: &TrainedPipeline,
        ds: &kinematics::Dataset,
        mut engines: Vec<InferenceEngine>,
        jobs: &[(usize, Option<Gesture>)],
    ) {
        let frame = &ds.demos[0].frames[0];
        let jobs: Vec<BatchJob> = jobs
            .iter()
            .map(|&(engine, context)| BatchJob { engine, frame: frame.clone(), context })
            .collect();
        let mut scratch = BatchScratch::new(pipeline);
        step_batch(pipeline, &mut engines, &jobs, &mut scratch, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "step_batch: engine 0 appears twice in one tick")]
    fn step_batch_rejects_an_engine_twice_in_one_tick() {
        let (p, ds) = untrained();
        tick_of(
            &p,
            &ds,
            vec![InferenceEngine::new(&p, ContextMode::Predicted)],
            &[(0, None), (0, None)],
        );
    }

    #[test]
    #[should_panic(expected = "Perfect mode requires context")]
    fn step_batch_rejects_a_perfect_engine_without_context() {
        let (p, ds) = untrained();
        tick_of(&p, &ds, vec![InferenceEngine::new(&p, ContextMode::Perfect)], &[(0, None)]);
    }

    #[test]
    #[should_panic(expected = "step_batch: mixed-precision tick")]
    fn step_batch_rejects_a_mixed_precision_tick() {
        let (p, ds) = untrained();
        let engines = [Precision::F32, Precision::Int8]
            .map(|tier| InferenceEngine::with_precision(&p, ContextMode::Predicted, tier));
        tick_of(&p, &ds, engines.into(), &[(0, None), (1, None)]);
    }

    /// A frame's deterministic output: the gesture, the score's bits and,
    /// when stage 1 ran on a warm window, the bits of its logits.
    type Bits = (Option<Gesture>, Option<u32>, Option<Vec<u32>>);

    fn logit_bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|l| l.to_bits()).collect()
    }

    /// Engine `e`'s row of the last tick's stage-1 logits, if its gesture
    /// window was warm in that tick.
    fn tick_logits(scratch: &BatchScratch, e: usize) -> Option<Vec<u32>> {
        let b = scratch.gmembers.iter().position(|&m| m == e)?;
        Some(logit_bits(scratch.glogits.row(b)))
    }

    /// Index of the first maximal logit.
    fn first_max(row: &[f32]) -> usize {
        (0..row.len()).fold(0, |best, i| if row[i] > row[best] { i } else { best })
    }

    /// Independent per-frame reference for the engine, sharing none of its
    /// inference code: windows are row slices of the whole demo's
    /// normalized feature matrix, so stage 1 sees raw feature windows, not
    /// the engine's projected rows. On f32 both stages run the
    /// training-side `Network::predict` (`forward`, not `infer_batch_into`);
    /// on int8 they run `QuantizedNetwork::predict_scratch` on the whole
    /// window. Smoothing is the `mode_of` recount, routing reads the
    /// tier's classifier maps directly (not `error_route`), and the score
    /// is the allocating `softmax`. Keeps each frame's whole-window stage-1
    /// logits. Counts the context-routed windows that a dedicated
    /// classifier (`routes[0]`) and the global fallback (`routes[1]`)
    /// scored.
    fn oracle(
        pipeline: &mut TrainedPipeline,
        demo: &kinematics::Demonstration,
        mode: ContextMode,
        precision: Precision,
        routes: &mut [usize; 2],
    ) -> Vec<Bits> {
        let cfg = pipeline.config.clone();
        let (w, gw, k) = (cfg.window.width, cfg.gesture_window, cfg.gesture_smoothing.max(1));
        let feats = pipeline.normalizer.apply(&demo.feature_matrix(&cfg.features));
        let gfeats = pipeline.gesture_normalizer.apply(&demo.feature_matrix(&cfg.gesture_features));
        let mut raw = Vec::new();
        let mut out = Vec::new();
        for t in 0..demo.len() {
            let mut stage1 = None;
            let gesture = match mode {
                ContextMode::Perfect => Some(demo.gestures[t]),
                _ if t + 1 < gw => None,
                _ => {
                    let window = gfeats.slice_rows(t + 1 - gw, t + 1);
                    let logits = match (precision, pipeline.quantized.as_ref()) {
                        (Precision::Int8, Some(q)) => predict_q(&q.gesture_net, &window),
                        _ => pipeline.gesture_net.predict(&window),
                    };
                    raw.push(first_max(logits.row(0)));
                    stage1 = Some(logit_bits(logits.row(0)));
                    Gesture::from_index(mode_of(&raw[raw.len().saturating_sub(k)..]))
                }
            };
            // Outer `None`: not scored yet. Inner `None`: the global
            // classifier, `Some(g)`: gesture g's dedicated one.
            let route = match (mode, gesture) {
                _ if t + 1 < w => None,
                (ContextMode::NoContext, _) => Some(None),
                (_, Some(g)) if dedicated(pipeline, precision, g.index()) => {
                    routes[0] += 1;
                    Some(Some(g.index()))
                }
                (_, Some(_)) => {
                    routes[1] += 1;
                    Some(None)
                }
                (_, None) => None,
            };
            let score = route.map(|dedicated| {
                let window = feats.slice_rows(t + 1 - w, t + 1);
                let logits = match (precision, pipeline.quantized.as_ref()) {
                    (Precision::Int8, Some(q)) => match dedicated {
                        Some(g) => q.error_nets.get(&g),
                        None => q.global_error_net.as_ref(),
                    }
                    .map(|net| predict_q(net, &window)),
                    _ => match dedicated {
                        Some(g) => pipeline.error_nets.get_mut(&g),
                        None => pipeline.global_error_net.as_mut(),
                    }
                    .map(|net| net.predict(&window)),
                };
                // No classifier at all: the score is 0.
                logits.map_or(0.0, |l| nn::loss::softmax(l.row(0))[1])
            });
            out.push((gesture, score.map(f32::to_bits), stage1));
        }
        out
    }

    /// One whole window through a quantized network, on fresh scratch.
    fn predict_q(net: &nn::QuantizedNetwork, window: &Mat) -> Mat {
        let mut logits = Mat::zeros(0, 0);
        net.predict_scratch(window, &mut logits, &mut net.make_scratch());
        logits
    }

    /// Whether gesture `g` has a dedicated classifier on `precision`'s tier.
    fn dedicated(pipeline: &TrainedPipeline, precision: Precision, g: usize) -> bool {
        match (precision, pipeline.quantized.as_ref()) {
            (Precision::Int8, Some(q)) => q.error_nets.contains_key(&g),
            _ => pipeline.error_nets.contains_key(&g),
        }
    }

    /// Steps one engine per demo through every frame: alone with
    /// `step`/`step_with_context`, and together in `step_batch` ticks
    /// (ragged once the shorter demo ends). Context is supplied to the
    /// batch in every mode, where only `Perfect` may read it. Stage-1
    /// logits are each warm engine's row of the tick's: on the engine's own
    /// scratch for `step`, on the shared scratch for `step_batch`.
    fn engine_runs(
        pipeline: &TrainedPipeline,
        demos: &[&kinematics::Demonstration],
        mode: ContextMode,
        precision: Precision,
    ) -> (Vec<Vec<Bits>>, Vec<Vec<Bits>>) {
        let bits = |s: &EngineStep, logits| (s.gesture, s.unsafe_score.map(f32::to_bits), logits);
        let alone = demos
            .iter()
            .map(|d| {
                let mut engine = InferenceEngine::with_precision(pipeline, mode, precision);
                let mut out = Vec::with_capacity(d.len());
                for (f, &g) in d.frames.iter().zip(&d.gestures) {
                    let step = match mode {
                        ContextMode::Perfect => engine.step_with_context(pipeline, f, g),
                        _ => engine.step(pipeline, f).expect("only Perfect mode needs context"),
                    };
                    out.push(bits(&step, tick_logits(&engine.scratch, 0)));
                }
                out
            })
            .collect();
        let mut engines: Vec<_> = demos
            .iter()
            .map(|_| InferenceEngine::with_precision(pipeline, mode, precision))
            .collect();
        let mut scratch = BatchScratch::new(pipeline);
        let mut steps = Vec::new();
        let mut batched = vec![Vec::new(); demos.len()];
        for t in 0..demos.iter().map(|d| d.len()).max().unwrap_or(0) {
            let jobs: Vec<BatchJob> = (0..demos.len())
                .filter(|&e| t < demos[e].len())
                .map(|e| BatchJob {
                    engine: e,
                    frame: demos[e].frames[t].clone(),
                    context: Some(demos[e].gestures[t]),
                })
                .collect();
            step_batch(pipeline, &mut engines, &jobs, &mut scratch, &mut steps);
            for (job, s) in jobs.iter().zip(&steps) {
                batched[job.engine].push(bits(s, tick_logits(&scratch, job.engine)));
            }
        }
        (alone, batched)
    }

    /// The engine — alone and batched — equals the independent oracle bit
    /// for bit on every frame, warm-up included, in the gesture, the score
    /// and every stage-1 logit, in every context mode, over several
    /// training seeds and both stage-2 architectures, with both the
    /// dedicated and the global-fallback route exercised.
    #[test]
    fn engine_matches_independent_oracle_bit_for_bit() {
        oracle_agreement(Precision::F32);
    }

    /// The same on the int8 tier: the engine's projected stage-1 window
    /// against whole raw windows through `QuantizedNetwork::predict_scratch`.
    #[test]
    fn int8_engine_matches_independent_oracle_bit_for_bit() {
        oracle_agreement(Precision::Int8);
    }

    fn oracle_agreement(precision: Precision) {
        let ds = dataset();
        let demos = [&ds.demos[0], &ds.demos[1]];
        let mut routes = [0usize; 2];
        let conv = ErrorModelKind::Conv { c1: 16, c2: 16, dense: 16 };
        let lstm = ErrorModelKind::Lstm { hidden: 8, dense: 8 };
        for (seed, stage2) in [(5, conv), (6, lstm), (7, conv), (8, lstm)] {
            let cfg = MonitorConfig::fast(FeatureSet::CRG).with_seed(seed).with_error_model(stage2);
            let mut pipeline = train(&ds, cfg, 1, 8);
            if precision == Precision::Int8 {
                pipeline.quantize(&ds, &[2, 3]).expect("quantize");
            }
            for mode in [ContextMode::Predicted, ContextMode::Perfect, ContextMode::NoContext] {
                let (alone, batched) = engine_runs(&pipeline, &demos, mode, precision);
                for (d, demo) in demos.iter().enumerate() {
                    let expected = oracle(&mut pipeline, demo, mode, precision, &mut routes);
                    assert_eq!(
                        expected.iter().any(|e| e.2.is_some()),
                        mode != ContextMode::Perfect,
                        "stage-1 logits are compared wherever stage 1 runs"
                    );
                    for (path, got) in [("step", &alone[d]), ("step_batch", &batched[d])] {
                        assert_eq!(got.len(), expected.len());
                        for (t, (g, e)) in got.iter().zip(&expected).enumerate() {
                            assert_eq!(
                                g, e,
                                "{precision:?} {stage2} seed {seed} {mode:?} demo {d} frame {t} \
                                 ({path})"
                            );
                        }
                    }
                }
            }
        }
        assert!(
            routes[0] > 0 && routes[1] > 0,
            "dedicated and fallback routes both taken: {routes:?}"
        );
    }
}
