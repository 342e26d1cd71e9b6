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
//! Offline/online agreement is therefore true by construction: the two
//! paths execute literally the same code.
//!
//! Per frame, the steady-state hot path performs **no heap allocation**:
//! feature extraction, normalization, windowing, both network forward passes
//! (via [`nn::Network::predict_scratch`], or
//! [`nn::Network::predict_batch_into`] in a pool tick), the softmax, and the
//! majority filter all reuse preallocated buffers. The paper reports
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
    /// Gesture-stage sliding window over normalized features.
    gesture_window: SlidingWindow,
    /// Causal smoothing over raw stage-1 predictions.
    filter: MajorityFilter,
    /// Last smoothed gesture (stage-2 routing context).
    gesture: Option<Gesture>,
    frames_seen: usize,
    // Scratch buffers (reused every frame; no steady-state allocation).
    // The network scratch lives here — not in the shared networks — so one
    // read-only `TrainedPipeline` can serve many engines across threads.
    feat: Vec<f32>,
    gfeat: Vec<f32>,
    logits: Mat,
    probs: [f32; 2],
    /// Inference scratch for the stage-1 gesture classifier.
    gscratch: NetworkScratch,
    /// Inference scratch for the stage-2 error classifiers (they share one
    /// architecture, so one scratch serves every route without reshaping).
    escratch: NetworkScratch,
    /// Int8-tier inference scratch (both stages; every buffer is
    /// high-water, so one scratch serves them sequentially). Empty and
    /// untouched on the f32 tier.
    qscratch: QuantScratch,
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
    /// populated the pipeline's quantized twin — a misconfiguration that
    /// must fail at session setup, not on the first warm frame.
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
            gesture_window: SlidingWindow::new(cfg.gesture_window, pipeline.gesture_in_dim),
            filter: MajorityFilter::new(cfg.gesture_smoothing.max(1), NUM_GESTURES),
            gesture: None,
            frames_seen: 0,
            feat: Vec::with_capacity(pipeline.in_dim),
            gfeat: Vec::with_capacity(pipeline.gesture_in_dim),
            logits: Mat::zeros(1, NUM_GESTURES),
            probs: [0.0; 2],
            gscratch: pipeline.gesture_net.make_scratch(),
            escratch: pipeline.error_scratch(),
            qscratch: QuantScratch::default(),
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
        Ok(self.step_inner(pipeline, frame, None))
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
        self.step_inner(pipeline, frame, Some(gesture))
    }

    // lint: hot-path
    fn step_inner(
        &mut self,
        pipeline: &TrainedPipeline,
        frame: &KinematicSample,
        context: Option<Gesture>,
    ) -> EngineStep {
        self.frames_seen += 1;

        // Stage 1: operational context.
        self.gesture = if self.mode == ContextMode::Perfect {
            // `step` rejects Perfect mode, so context is always Some here.
            debug_assert!(context.is_some(), "Perfect mode requires context");
            context
        } else {
            frame.to_feature_vec_into(&pipeline.config.gesture_features, &mut self.gfeat);
            pipeline.gesture_normalizer.apply_frame_inplace(&mut self.gfeat);
            match self.gesture_window.push(&self.gfeat) {
                Some(gwindow) => {
                    match self.precision {
                        Precision::F32 => pipeline.gesture_net.predict_scratch(
                            gwindow,
                            &mut self.logits,
                            &mut self.gscratch,
                        ),
                        Precision::Int8 => quantized(pipeline).gesture_net.predict_scratch(
                            gwindow,
                            &mut self.logits,
                            &mut self.qscratch,
                        ),
                    }
                    debug_assert_eq!(self.logits.cols(), NUM_GESTURES);
                    Some(self.smooth_raw_class(self.logits.argmax_row(0)))
                }
                // Not warm yet: keep the previous smoothed value (always
                // `None` here, since stage 1 warms before it cools).
                None => self.gesture,
            }
        };

        // Stage 2: unsafe probability, routed by the stage-1 context. In
        // `NoContext` mode the single global classifier needs no context and
        // scores as soon as its own window is warm.
        frame.to_feature_vec_into(&pipeline.config.features, &mut self.feat);
        pipeline.normalizer.apply_frame_inplace(&mut self.feat);
        let routing = match self.mode {
            ContextMode::NoContext => Some(0),
            // lint: allow(hot-path, reason = "receiver is an Option, not a Mat -- std .map() name collision in the receiver-blind resolver")
            _ => self.gesture.map(Gesture::index),
        };
        let unsafe_score = match (self.window.push(&self.feat), routing) {
            (Some(window), Some(route)) => Some(match self.precision {
                Precision::F32 => pipeline.score_window_scratch(
                    window,
                    route,
                    self.mode,
                    &mut self.logits,
                    &mut self.probs,
                    &mut self.escratch,
                ),
                Precision::Int8 => pipeline.score_window_scratch_q(
                    window,
                    route,
                    self.mode,
                    &mut self.logits,
                    &mut self.probs,
                    &mut self.qscratch,
                ),
            }),
            _ => None,
        };

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

/// Reusable buffers for [`step_batch`]: stacked window matrices, batched
/// logits, network scratch for both stages, and tick bookkeeping. One per
/// shard worker; everything grows to a high-water mark and is reused.
#[derive(Debug)]
pub struct BatchScratch {
    gwindows: Mat,
    glogits: Mat,
    gscratch: NetworkScratch,
    ewindows: Mat,
    elogits: Mat,
    escratch: NetworkScratch,
    /// Int8-tier scratch (both stages, sequential use). Empty on f32 ticks.
    qscratch: QuantScratch,
    gmembers: Vec<usize>,
    eready: Vec<bool>,
    pending: Vec<(usize, ErrorRoute)>,
    scores: Vec<Option<f32>>,
    seen: Vec<bool>,
}

impl BatchScratch {
    /// Creates scratch sized for `pipeline`'s two classifier stages.
    pub fn new(pipeline: &TrainedPipeline) -> Self {
        Self {
            gwindows: Mat::zeros(0, 0),
            glogits: Mat::zeros(0, 0),
            gscratch: pipeline.gesture_net.make_scratch(),
            ewindows: Mat::zeros(0, 0),
            elogits: Mat::zeros(0, 0),
            escratch: pipeline.error_scratch(),
            qscratch: QuantScratch::default(),
            gmembers: Vec::new(),
            eready: Vec::new(),
            pending: Vec::new(),
            scores: Vec::new(),
            seen: Vec::new(),
        }
    }
}

/// Advances several sessions by one frame each with **cross-session
/// micro-batching**: all warm stage-1 windows run through one batched
/// gesture-net forward pass, and stage-2 windows are grouped by the error
/// classifier they route to and batched per group.
///
/// Exactly equivalent — bit-for-bit, per session — to calling
/// [`InferenceEngine::step`] / [`InferenceEngine::step_with_context`] on
/// each job in order: every batched row is the same dot-product sequence as
/// its unbatched counterpart (see `nn::Network::predict_batch_into`), and
/// per-session state (windows, majority filter) is untouched by batching.
/// `outputs` is cleared and refilled with one [`EngineStep`] per job, in
/// job order.
///
/// All engines must come from (engines configured identically to)
/// `pipeline`.
///
/// # Panics
///
/// Panics when a job references an out-of-range or duplicated engine
/// index, or when an engine in [`ContextMode::Perfect`] is given no
/// context — the same invariant [`InferenceEngine::step`] reports as
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
    outputs.clear();
    if jobs.is_empty() {
        return;
    }
    let BatchScratch {
        gwindows,
        glogits,
        gscratch,
        ewindows,
        elogits,
        escratch,
        qscratch,
        gmembers,
        eready,
        pending,
        scores,
        seen,
    } = scratch;

    seen.clear();
    seen.resize(engines.len(), false);
    for job in jobs.iter() {
        assert!(job.engine < engines.len(), "step_batch: unknown engine {}", job.engine);
        // Covers this line and the next: seen was just resized to
        // engines.len() and job.engine passed the bound assert above.
        assert!(!seen[job.engine], "step_batch: engine {} appears twice in one tick", job.engine); // lint: allow(panic, reason = "seen is engines.len() long and job.engine passed the bound assert")
        seen[job.engine] = true;
    }
    // One batched forward pass serves the whole tick, so every engine in
    // it must run at one numeric tier (the serving layer configures a pool
    // uniformly; mixing tiers requires separate pools).
    // lint: allow(panic, reason = "jobs is non-empty here and jobs[0].engine passed the entry bound assert")
    let precision = engines[jobs[0].engine].precision;

    // Phase 1: ingest every frame into its engine's windows (no inference).
    gmembers.clear();
    eready.clear();
    for (j, job) in jobs.iter().enumerate() {
        // lint: allow(panic, reason = "every job.engine passed the entry bound assert")
        let e = &mut engines[job.engine];
        assert!(e.precision == precision, "step_batch: mixed-precision tick");
        e.frames_seen += 1;
        if e.mode == ContextMode::Perfect {
            assert!(job.context.is_some(), "Perfect mode requires context (see EngineError)");
            e.gesture = job.context;
        } else {
            job.frame.to_feature_vec_into(&pipeline.config.gesture_features, &mut e.gfeat);
            pipeline.gesture_normalizer.apply_frame_inplace(&mut e.gfeat);
            if e.gesture_window.push(&e.gfeat).is_some() {
                gmembers.push(j);
            }
        }
        job.frame.to_feature_vec_into(&pipeline.config.features, &mut e.feat);
        pipeline.normalizer.apply_frame_inplace(&mut e.feat);
        eready.push(e.window.push(&e.feat).is_some());
    }

    // Phase 2: one batched stage-1 forward pass for every warm gesture
    // window, then the per-session smoothing filters.
    if !gmembers.is_empty() {
        let n = gmembers.len();
        // lint: allow(panic, reason = "gmembers is non-empty here and holds indices of jobs; every job.engine passed the entry bound assert")
        let first = &engines[jobs[gmembers[0]].engine];
        let gw = first.gesture_window.width();
        let gd = first.gesture_window.dims();
        gwindows.resize(n * gw, gd);
        for (b, &j) in gmembers.iter().enumerate() {
            // lint: allow(panic, reason = "gmembers holds indices of jobs; every job.engine passed the entry bound assert")
            let e = &engines[jobs[j].engine];
            let copied = e.gesture_window.copy_current_into(gwindows, b * gw);
            debug_assert!(copied, "warm window expected");
        }
        match precision {
            Precision::F32 => {
                pipeline.gesture_net.predict_batch_into(gwindows, n, glogits, gscratch)
            }
            Precision::Int8 => {
                quantized(pipeline).gesture_net.predict_batch_into(gwindows, n, glogits, qscratch)
            }
        }
        debug_assert_eq!(glogits.cols(), NUM_GESTURES);
        for (b, &j) in gmembers.iter().enumerate() {
            let raw = glogits.argmax_row(b);
            // lint: allow(panic, reason = "gmembers holds indices of jobs; every job.engine passed the entry bound assert")
            let e = &mut engines[jobs[j].engine];
            e.gesture = Some(e.smooth_raw_class(raw));
        }
    }

    // Phase 3: stage-2 scoring, batched per routed classifier. Grouping by
    // route is safe because every batched row only depends on its own
    // window; the stable sort keeps job order within each group.
    scores.clear();
    scores.resize(jobs.len(), None);
    pending.clear();
    for (j, job) in jobs.iter().enumerate() {
        // lint: allow(panic, reason = "eready got one push per job in phase 1, so j is in range")
        if !eready[j] {
            continue;
        }
        // lint: allow(panic, reason = "every job.engine passed the entry bound assert")
        let e = &engines[job.engine];
        let routing = match e.mode {
            ContextMode::NoContext => Some(0),
            // lint: allow(hot-path, reason = "receiver is an Option, not a Mat -- std .map() name collision in the receiver-blind resolver")
            _ => e.gesture.map(Gesture::index),
        };
        let Some(route_class) = routing else { continue };
        match pipeline.error_route(route_class, e.mode) {
            // No classifier for this route: scored 0, like score_window_scratch.
            // lint: allow(panic, reason = "scores was resized to jobs.len(), so j is in range")
            None => scores[j] = Some(0.0),
            Some(route) => pending.push((j, route)),
        }
    }
    pending.sort_by_key(|&(_, route)| route);
    let mut i = 0usize;
    while i < pending.len() {
        // lint: allow(panic, reason = "the loop condition holds i < pending.len()")
        let route = pending[i].1;
        let mut end = i + 1;
        // lint: allow(panic, reason = "the while condition holds end < pending.len()")
        while end < pending.len() && pending[end].1 == route {
            end += 1;
        }
        let n = end - i;
        // lint: allow(panic, reason = "pending holds (job index, route) pairs; every job.engine passed the entry bound assert")
        let first = &engines[jobs[pending[i].0].engine];
        let w = first.window.width();
        let d = first.window.dims();
        ewindows.resize(n * w, d);
        // lint: allow(panic, reason = "i..end is a scanned run inside pending")
        for (b, &(j, _)) in pending[i..end].iter().enumerate() {
            // lint: allow(panic, reason = "pending holds job indices; every job.engine passed the entry bound assert")
            let e = &engines[jobs[j].engine];
            let copied = e.window.copy_current_into(ewindows, b * w);
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
        // lint: allow(panic, reason = "i..end is a scanned run inside pending")
        for (b, &(j, _)) in pending[i..end].iter().enumerate() {
            // Covers this line and the next: pending holds job indices,
            // every job.engine passed the entry assert, and probs/scores
            // are sized by construction (binary head, jobs.len()).
            let e = &mut engines[jobs[j].engine]; // lint: allow(panic, reason = "pending holds job indices bounded by the entry assert; probs/scores sized by construction")
            softmax_into(elogits.row(b), &mut e.probs);
            // lint: allow(panic, reason = "probs is the binary head (len 2); scores was resized to jobs.len()")
            scores[j] = Some(e.probs[1]);
        }
        i = end;
    }

    // Phase 4: assemble per-job steps in submission order.
    for (j, job) in jobs.iter().enumerate() {
        // lint: allow(panic, reason = "every job.engine passed the entry bound assert; scores was resized to jobs.len()")
        outputs.push(EngineStep { gesture: engines[job.engine].gesture, unsafe_score: scores[j] });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn trained() -> (TrainedPipeline, kinematics::Dataset) {
        use gestures::Task;
        use jigsaws::{generate, GeneratorConfig};
        let ds = generate(&GeneratorConfig::fast(Task::Suturing).with_seed(31));
        let mut cfg = crate::config::MonitorConfig::fast(kinematics::FeatureSet::CRG).with_seed(5);
        cfg.train.epochs = 3;
        cfg.train_stride = 4;
        let idx: Vec<usize> = (0..ds.len()).collect();
        (TrainedPipeline::train(&ds, &idx, &cfg), ds)
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
}
