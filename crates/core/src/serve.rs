//! Sharded, multi-threaded serving: many concurrent surgical sessions
//! partitioned across worker threads over one shared read-only model.
//!
//! [`ShardedMonitorPool`] is the one multi-session form of the monitor (a
//! single session steps its own [`InferenceEngine`]): sessions are placed
//! on the least-occupied of `workers` shard threads (round-robin while
//! nobody leaves), frames travel to their shard on that shard's job queue,
//! and every processed frame comes home as one message on the shared queue
//! home: its decision plus the frame buffer, for reuse by the next submit.
//! The fleet is **elastic**: sessions can be
//! [removed](ShardedMonitorPool::remove_session) at any time — their engine
//! slot is reset and reused by the next
//! [`add_session`](ShardedMonitorPool::add_session) while decisions already
//! in flight drain normally — so clients of a
//! long-running pool can connect and leave at will. Each worker owns only the
//! **per-session** state (a [`Shard`]: its sessions' [`InferenceEngine`]s
//! plus batch scratch); the [`TrainedPipeline`] — the model weights — is
//! shared read-only behind an `Arc`, which the `&self` inference paths
//! (`Network::predict_scratch` and friends) make safe.
//!
//! Within a shard, frames are processed in **micro-batched ticks**: the
//! worker drains its job queue and advances every distinct session one
//! frame via [`step_batch`], which fuses the stage-1 forward passes
//! of all warm sessions into one batched network evaluation and groups
//! stage-2 windows by their routed error classifier. [`Shard`] holds those
//! tick rules once; the network ingress service in `crates/ingress` drives
//! one per event loop on the loop's own thread, with no pool and no
//! queue. Determinism is part of
//! the contract: per session, the emitted decisions are **bit-exactly** the
//! ones a lone [`InferenceEngine`] produces when stepped frame by frame, for
//! every `ContextMode` — batching changes wall-clock, never floats
//! (asserted by `tests/serve_equivalence.rs`).
//!
//! The module also hosts the workspace's one audited fork-join primitive,
//! [`parallel_map`], reused by the fault-injection campaign
//! (`faults::campaign`) so batch workloads and serving share a single
//! parallel-execution path.

use crate::config::Precision;
use crate::engine::{
    stage1_width, step_batch, BatchJob, BatchScratch, EngineError, EngineStep, InferenceEngine,
};
use crate::pipeline::{ContextMode, TrainedPipeline};
use crate::report::{LatencyStats, PoolStats};
use gestures::Gesture;
use kinematics::KinematicSample;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`ShardedMonitorPool`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Number of shard worker threads (each owns `sessions / workers`
    /// engines); the network ingress service runs this many event loops
    /// instead. Clamped to at least 1.
    pub workers: usize,
    /// Alert threshold applied by every worker, in `(0, 1)`.
    pub threshold: f32,
    /// Numeric tier every session of the pool infers at.
    /// [`Precision::Int8`] requires the pipeline's quantized twin
    /// ([`TrainedPipeline::quantize`]) and serves more sessions within the
    /// 30 Hz frame interval for a parity-gated accuracy delta.
    pub precision: Precision,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { workers: 4, threshold: 0.5, precision: Precision::F32 }
    }
}

/// Identifier of a session inside a [`ShardedMonitorPool`].
pub type SessionId = usize;

/// One monitor decision for the newest frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonitorOutput {
    /// Inferred operational context.
    pub gesture: Gesture,
    /// Probability that the current gesture is unsafe.
    pub unsafe_probability: f32,
    /// Whether the alert threshold was crossed.
    pub alert: bool,
    /// Inference latency for this frame (ms) — the paper's "average
    /// computation time" (Table VIII reports 1.5–3.2 ms).
    pub compute_ms: f32,
}

/// Converts a warm engine step into a monitor decision. The engine emits a
/// typed [`Gesture`] (provably in-range at the filter boundary), so no
/// index-to-gesture fallback exists on this path any more — an earlier
/// revision mapped out-of-range indices to `Gesture::G1` via `unwrap_or`,
/// silently reporting a wrong operational context.
// lint: hot-path
pub(crate) fn output_from_step(
    step: &EngineStep,
    threshold: f32,
    compute_ms: f32,
) -> Option<MonitorOutput> {
    let (gesture, score) = step.complete()?;
    Some(MonitorOutput { gesture, unsafe_probability: score, alert: score > threshold, compute_ms })
}

/// One per-frame result coming back from a shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// The session the frame belonged to.
    pub session: SessionId,
    /// Zero-based index of the frame within its session's stream.
    pub frame: usize,
    /// The monitor decision, once the session is warm (`None` during
    /// warm-up, exactly when [`EngineStep::complete`] is `None`).
    pub output: Option<MonitorOutput>,
}

enum Job {
    /// Frame `index` of `session`. The pool stamps both at submit, so only
    /// the pool knows frame identity; the worker just carries them home
    /// with the decision.
    Frame {
        slot: usize,
        session: SessionId,
        index: usize,
        frame: KinematicSample,
        context: Option<Gesture>,
        submitted: Instant,
    },
    /// [`Shard::bind`]s engine slot `slot` to a new session. Queued in job
    /// order, so frames of the slot's previous tenant (all enqueued before
    /// its removal freed the slot) are scored before the new tenant starts.
    Bind { slot: usize },
    /// Chaos hook: the worker sleeps before processing anything queued
    /// behind this job — see [`ShardedMonitorPool::inject_stall`].
    Stall { dur: Duration },
}

/// What a pool frame carries through its shard and home again: its
/// session, its index in the session's stream and its submit time
/// (queueing telemetry). A shard worker sends each frame home as one
/// [`Scored`] message, so a frame's buffer is back for the next `submit`
/// to reuse before its decision is seen.
type Stamp = (SessionId, usize, Instant);

/// One of the pool's queues: a job queue per shard, and the queue home.
/// Its one consumer takes everything queued at once by swapping in its own
/// emptied vector, so once both vectors reach their high-water mark
/// neither side allocates.
struct Queue<T> {
    state: Mutex<Queued<T>>,
    ready: Condvar,
}

struct Queued<T> {
    items: Vec<T>,
    /// Set by the pool's drop and when a shard worker's thread ends; a
    /// closed queue takes nothing more.
    closed: bool,
}

/// Locks a queue. Every update leaves a queue valid at every step, so a
/// lock poisoned by a thread that panicked holding it still guards a
/// usable queue.
// lint: hot-path
fn lock<T>(state: &Mutex<Queued<T>>) -> MutexGuard<'_, Queued<T>> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T> Queue<T> {
    fn new() -> Self {
        Self {
            state: Mutex::new(Queued { items: Vec::new(), closed: false }),
            ready: Condvar::new(),
        }
    }

    /// Appends `items` and, if there were any, wakes the consumer. Returns
    /// `false`, having appended nothing, once the queue is closed.
    // lint: hot-path
    fn put(&self, items: impl ExactSizeIterator<Item = T>) -> bool {
        if items.len() == 0 {
            return true;
        }
        let mut queued = lock(&self.state);
        if queued.closed {
            return false;
        }
        queued.items.extend(items);
        drop(queued);
        self.ready.notify_one();
        true
    }

    fn close(&self) {
        lock(&self.state).closed = true;
        self.ready.notify_all();
    }

    /// Whether the queue is closed. A shard worker's job queue closes while
    /// the pool is alive only when the worker's thread is ending.
    // lint: hot-path
    fn is_closed(&self) -> bool {
        lock(&self.state).closed
    }

    /// Swaps everything queued into `into`, which its last use left empty,
    /// after waiting up to `timeout` (`Duration::MAX`: as long as it takes)
    /// while nothing is queued and the queue is open. Returns whether the
    /// queue is closed.
    // lint: hot-path
    fn take_into(&self, into: &mut Vec<T>, timeout: Duration) -> bool {
        let idle = |queued: &mut Queued<T>| queued.items.is_empty() && !queued.closed;
        let waited = self.ready.wait_timeout_while(lock(&self.state), timeout, idle);
        let (mut queued, _) = waited.unwrap_or_else(PoisonError::into_inner);
        std::mem::swap(into, &mut queued.items);
        queued.closed
    }
}

/// Closes a shard worker's queues when its thread ends, by return or by
/// panic, so the pool's next `submit` to it, or a drain waiting on it,
/// fails loud instead of hanging.
struct CloseOnExit<'a> {
    jobs: &'a Queue<Job>,
    home: &'a Queue<Scored<Stamp>>,
}

impl Drop for CloseOnExit<'_> {
    fn drop(&mut self) {
        self.jobs.close();
        self.home.close();
    }
}

/// Log-scale bucket count of the latency histogram: 6 decades
/// (10⁻⁴ … 10² ms) at 40 buckets per decade, ≈ 5.9% relative resolution.
const LATENCY_BUCKETS: usize = 240;
const LATENCY_LOG_LO: f32 = -4.0;
const LATENCY_DECADES: f32 = 6.0;

/// Per-decision latency accumulator over `compute_ms`. One fixed-size
/// buffer allocated at pool construction and reused forever, so recording
/// inside the pool's drains stays allocation-free; quantiles are answered
/// from the histogram (≤ ~6% relative error), the maximum is tracked
/// exactly.
#[derive(Debug, Clone)]
struct LatencyTelemetry {
    buckets: Vec<u64>,
    count: usize,
    sum_ms: f64,
    max_ms: f32,
}

impl LatencyTelemetry {
    fn new() -> Self {
        Self { buckets: vec![0; LATENCY_BUCKETS], count: 0, sum_ms: 0.0, max_ms: 0.0 }
    }

    // lint: hot-path
    fn record(&mut self, ms: f32) {
        if !ms.is_finite() || ms < 0.0 {
            return;
        }
        let idx = if ms <= 0.0 {
            0
        } else {
            let pos = (ms.log10() - LATENCY_LOG_LO) / LATENCY_DECADES * LATENCY_BUCKETS as f32;
            (pos.floor().max(0.0) as usize).min(LATENCY_BUCKETS - 1)
        };
        // lint: allow(panic, reason = "idx is clamped to LATENCY_BUCKETS - 1 right above")
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ms += ms as f64;
        self.max_ms = self.max_ms.max(ms);
    }

    /// Upper edge of bucket `i` in ms.
    fn bucket_edge(i: usize) -> f32 {
        10f32.powf(LATENCY_LOG_LO + LATENCY_DECADES * (i + 1) as f32 / LATENCY_BUCKETS as f32)
    }

    /// Nearest-rank quantile from the histogram, capped at the exact max.
    /// The final bucket is the overflow bucket (everything ≥ 100 ms lands
    /// there with no resolution), so a quantile falling in it reports the
    /// exact maximum — an honest upper bound — rather than silently
    /// under-reporting at the 100 ms edge.
    fn quantile(&self, q: f32) -> f32 {
        if self.count == 0 {
            return f32::NAN;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f32).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                if i == LATENCY_BUCKETS - 1 {
                    break; // overflow bucket: no resolution, report the max
                }
                return Self::bucket_edge(i).min(self.max_ms);
            }
        }
        self.max_ms
    }

    fn stats(&self) -> LatencyStats {
        if self.count == 0 {
            return LatencyStats::empty();
        }
        LatencyStats {
            count: self.count,
            mean_ms: (self.sum_ms / self.count as f64) as f32,
            p50_ms: self.quantile(0.5),
            p99_ms: self.quantile(0.99),
            max_ms: self.max_ms,
        }
    }

    fn reset(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
        self.sum_ms = 0.0;
        self.max_ms = 0.0;
    }
}

/// N concurrent sessions sharded across worker threads over one shared
/// read-only [`TrainedPipeline`], with cross-session micro-batching inside
/// each shard.
///
/// Per-session decisions are bit-exactly equal to one [`InferenceEngine`]
/// per session stepped frame by frame; frames of one session are
/// processed in submission order, and decisions for one session arrive in
/// frame order (cross-session arrival order is unspecified — use
/// [`Decision::session`] / [`Decision::frame`] to demultiplex).
///
/// ```no_run
/// use context_monitor::serve::{ServeConfig, ShardedMonitorPool};
/// use context_monitor::{ContextMode, TrainedPipeline};
/// # fn pipeline() -> TrainedPipeline { unimplemented!() }
/// let mut pool = ShardedMonitorPool::new(
///     std::sync::Arc::new(pipeline()),
///     ContextMode::Predicted,
///     ServeConfig::default(),
/// );
/// let a = pool.add_session();
/// # let frame = kinematics::KinematicSample::default();
/// pool.submit(a, &frame).unwrap();
/// for decision in pool.flush() {
///     if decision.output.is_some_and(|o| o.alert) {
///         eprintln!("session {} unsafe at frame {}", decision.session, decision.frame);
///     }
/// }
/// ```
pub struct ShardedMonitorPool {
    mode: ContextMode,
    /// One job queue per shard worker, index-aligned with `handles`.
    jobs: Vec<Arc<Queue<Job>>>,
    /// The queue every shard worker sends its scored frames home on.
    home: Arc<Queue<Scored<Stamp>>>,
    /// What the last drain took from `home`, emptied and kept for the next.
    arrived: Vec<Scored<Stamp>>,
    /// Frame buffers that came home with their decisions, reused by the
    /// next `submit` so the steady-state submit path allocates nothing (a
    /// fresh clone happens only while the in-flight high-water mark is
    /// still growing).
    spare_frames: Vec<KinematicSample>,
    /// Shard worker threads; a dead worker's is taken when it is joined.
    handles: Vec<Option<JoinHandle<()>>>,
    /// Placement of every session id ever opened: `Some((shard, slot))`
    /// while live, `None` once removed. Session ids are never reused
    /// (decisions in flight at removal stay unambiguous); engine slots are.
    assignments: Vec<Option<(usize, usize)>>,
    /// Live sessions per shard — the occupancy the placement policy
    /// balances and [`PoolStats`] exposes.
    occupancy: Vec<usize>,
    /// Engine slots ever created per shard (grow-only high-water mark).
    shard_slots: Vec<usize>,
    /// Freed engine slots per shard, reused LIFO by the next
    /// [`ShardedMonitorPool::add_session`].
    free: Vec<Vec<usize>>,
    /// Live session count (`assignments` minus the removed ones).
    live: usize,
    /// Per-session frame counters (frames submitted so far).
    submitted: Vec<usize>,
    /// Frames submitted whose decision has not been drained yet.
    in_flight: usize,
    compute_telemetry: LatencyTelemetry,
    queue_telemetry: LatencyTelemetry,
}

impl ShardedMonitorPool {
    /// Spawns `config.workers` shard threads over the shared pipeline.
    /// Add sessions with [`ShardedMonitorPool::add_session`].
    ///
    /// # Panics
    ///
    /// Panics if the threshold is not within `(0, 1)`, if
    /// [`Precision::Int8`] is requested on a pipeline whose quantized twin
    /// was never built ([`TrainedPipeline::quantize`]), or if stage 1 does
    /// not start with an LSTM — the misconfiguration must fail at pool
    /// construction, not inside a shard worker.
    pub fn new(pipeline: Arc<TrainedPipeline>, mode: ContextMode, config: ServeConfig) -> Self {
        let workers = config.workers.max(1);
        let home = Arc::new(Queue::new());
        let mut jobs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let queue = Arc::new(Queue::new());
            // Built here, so a misconfiguration panics on the caller's thread.
            let shard = Shard::new(Arc::clone(&pipeline), mode, config);
            let (own, home) = (Arc::clone(&queue), Arc::clone(&home));
            handles.push(Some(std::thread::spawn(move || worker_loop(shard, &own, &home))));
            jobs.push(queue);
        }
        Self {
            mode,
            jobs,
            home,
            arrived: Vec::new(),
            spare_frames: Vec::new(),
            handles,
            assignments: Vec::new(),
            occupancy: vec![0; workers],
            shard_slots: vec![0; workers],
            free: vec![Vec::new(); workers],
            live: 0,
            submitted: Vec::new(),
            in_flight: 0,
            compute_telemetry: LatencyTelemetry::new(),
            queue_telemetry: LatencyTelemetry::new(),
        }
    }

    /// Convenience: a pool with `n` sessions already open.
    pub fn with_sessions(
        pipeline: Arc<TrainedPipeline>,
        mode: ContextMode,
        config: ServeConfig,
        n: usize,
    ) -> Self {
        let mut pool = Self::new(pipeline, mode, config);
        for _ in 0..n {
            pool.add_session();
        }
        pool
    }

    /// Opens a new session and returns its id. Placement balances shard
    /// occupancy: the new session lands on the least-occupied shard (ties
    /// to the lowest index — with no removals this reproduces the
    /// historical round-robin deal exactly), reusing a freed engine slot
    /// when one exists. Session ids are never reused; engine slots are.
    pub fn add_session(&mut self) -> SessionId {
        let id = self.assignments.len();
        let shard = least_occupied(self.occupancy.iter().copied());
        // lint: allow(panic, reason = "shard comes from the occupancy index range; all per-shard vecs are workers long")
        let slot = self.free[shard].pop().unwrap_or_else(|| {
            let fresh = self.shard_slots[shard]; // lint: allow(panic, reason = "shard comes from the occupancy index range; all per-shard vecs are workers long")
            self.shard_slots[shard] += 1; // lint: allow(panic, reason = "shard comes from the occupancy index range; all per-shard vecs are workers long")
            fresh
        });
        self.send(shard, Job::Bind { slot });
        self.assignments.push(Some((shard, slot)));
        self.submitted.push(0);
        self.occupancy[shard] += 1; // lint: allow(panic, reason = "shard comes from the occupancy index range; all per-shard vecs are workers long")
        self.live += 1;
        id
    }

    /// Removes `session` from the pool: its engine slot is freed for the
    /// next [`ShardedMonitorPool::add_session`] on that shard, whose bind
    /// resets the engine, and the freed capacity stops counting toward
    /// shard occupancy. Nothing is sent to the shard. Decisions for frames
    /// submitted before the removal are **not** lost — they drain through
    /// [`ShardedMonitorPool::drain_deadline`] / [`ShardedMonitorPool::flush`]
    /// as usual, tagged with the removed session's id (ids are never reused,
    /// so late decisions stay unambiguous). Submitting to a removed session
    /// panics. A caller that wants a session to start over removes it and
    /// adds a new one.
    ///
    /// Surviving sessions are unaffected bit-for-bit: their decision
    /// streams equal a pool that never saw the removed session (asserted
    /// in `tests/serve_equivalence.rs`).
    ///
    /// # Panics
    ///
    /// Panics on an unknown or already-removed session id.
    pub fn remove_session(&mut self, session: SessionId) {
        let (shard, slot) = self.assignment(session);
        // lint: allow(panic, reason = "assignment() above already panicked on unknown/removed ids; session is in range")
        self.assignments[session] = None;
        self.occupancy[shard] -= 1; // lint: allow(panic, reason = "shard stored by add_session, within the workers range")
        self.live -= 1;
        self.free[shard].push(slot); // lint: allow(panic, reason = "shard stored by add_session, within the workers range")
    }

    /// Number of live (added and not removed) sessions.
    pub fn session_count(&self) -> usize {
        self.live
    }

    /// Whether `session` is currently live (opened and not removed).
    /// Unknown ids are not live.
    pub fn is_live(&self, session: SessionId) -> bool {
        matches!(self.assignments.get(session), Some(Some(_)))
    }

    /// The live placement of `session`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown or removed session id.
    // lint: hot-path
    fn assignment(&self, session: SessionId) -> (usize, usize) {
        match self.assignments.get(session) {
            Some(Some(a)) => *a,
            // lint: allow(panic, reason = "documented panic on a removed session id")
            Some(None) => panic!("session {session} was removed"),
            // lint: allow(panic, reason = "documented panic on an unknown session id")
            None => panic!("unknown session {session}"),
        }
    }

    /// Number of shard worker threads.
    pub fn worker_count(&self) -> usize {
        self.jobs.len()
    }

    /// Frames submitted so far for `session` (every one of which produces
    /// exactly one [`Decision`] by the next [`ShardedMonitorPool::flush`]).
    ///
    /// # Panics
    ///
    /// Panics on an unknown session id.
    pub fn frames_submitted(&self, session: SessionId) -> usize {
        // lint: allow(panic, reason = "documented panic on an unknown session id")
        self.submitted[session]
    }

    /// Enqueues one frame of `session` for its shard. Returns immediately;
    /// the decision arrives via [`ShardedMonitorPool::drain_deadline`] /
    /// [`ShardedMonitorPool::flush`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::MissingContext`] (without enqueueing) when
    /// the pool runs in [`ContextMode::Perfect`] — use
    /// [`ShardedMonitorPool::submit_with_context`]. A misconfigured caller
    /// cannot crash or wedge the shard workers.
    ///
    /// # Panics
    ///
    /// Panics on an unknown session id.
    pub fn submit(
        &mut self,
        session: SessionId,
        frame: &KinematicSample,
    ) -> Result<(), EngineError> {
        if self.mode == ContextMode::Perfect {
            return Err(EngineError::MissingContext);
        }
        self.submit_inner(session, frame, None);
        Ok(())
    }

    /// Enqueues one frame with externally supplied context (the
    /// perfect-boundary upper bound).
    ///
    /// # Panics
    ///
    /// Panics on an unknown session id.
    pub fn submit_with_context(
        &mut self,
        session: SessionId,
        frame: &KinematicSample,
        gesture: Gesture,
    ) {
        self.submit_inner(session, frame, Some(gesture));
    }

    // lint: hot-path
    fn submit_inner(
        &mut self,
        session: SessionId,
        frame: &KinematicSample,
        context: Option<Gesture>,
    ) {
        let (shard, slot) = self.assignment(session);
        // lint: allow(panic, reason = "submitted grows in lockstep with assignments; assignment() above vouched for session")
        let counter = &mut self.submitted[session];
        let index = *counter;
        *counter += 1;
        self.in_flight += 1;
        // Reuse a frame buffer that came home with a decision;
        // `Vec::clone_from` copies in place when the manipulator count
        // matches, so the steady-state submit path performs no heap
        // allocation.
        let frame = match self.spare_frames.pop() {
            Some(mut buf) => {
                buf.manipulators.clone_from(&frame.manipulators);
                buf
            }
            // lint: allow(alloc, reason = "cold branch: allocates only while the in-flight high-water mark is still growing")
            None => frame.clone(),
        };
        // lint: allow(determinism, reason = "latency telemetry timestamp; never feeds the decision value, which replays bit-identically")
        let submitted = Instant::now();
        self.send(shard, Job::Frame { slot, session, index, frame, context, submitted });
    }

    /// Chaos hook: makes shard `shard` sleep for `dur` at the point the
    /// stall reaches it in job order. Every decision the shard has not yet
    /// computed is delayed — frames queued behind the stall *and* frames
    /// already drained into the micro-tick under construction (the worker
    /// sleeps before running that tick). Nothing is lost; all decisions
    /// arrive late. This is the deterministic way to force
    /// decision-deadline misses in fail-safe drills
    /// (`faults::run_forced_miss_drill`) and tests.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range shard index.
    pub fn inject_stall(&mut self, shard: usize, dur: Duration) {
        assert!(shard < self.jobs.len(), "unknown shard {shard}");
        self.send(shard, Job::Stall { dur });
    }

    /// Blocking drain with a deadline: appends decisions into `out` until
    /// every submitted frame has produced one (returns `true`) or `deadline`
    /// passes (returns `false`, with whatever arrived in time already in
    /// `out`). A deadline already in the past still sweeps the decisions
    /// that are home already — it just never waits.
    ///
    /// This is the serving tick of the deadline-gated closed loop: the
    /// fleet reactor drains with its per-tick budget and fails safe for
    /// every decision that misses it (`reactor::PooledReactor`).
    // lint: hot-path
    pub fn drain_deadline(&mut self, deadline: Instant, out: &mut Vec<Decision>) -> bool {
        self.drain(Some(deadline), out)
    }

    /// Receives decisions into `out` until none is in flight (`true`) or
    /// `deadline` passes (`false`); `None` waits as long as it takes.
    /// Panics if a shard worker has exited while frames are in flight.
    // lint: hot-path
    fn drain(&mut self, deadline: Option<Instant>, out: &mut Vec<Decision>) -> bool {
        let mut arrived = std::mem::take(&mut self.arrived);
        let mut complete = true;
        while self.in_flight > 0 {
            let timeout =
                deadline.map_or(Duration::MAX, |d| d.saturating_duration_since(Instant::now())); // lint: allow(determinism, reason = "deadline bookkeeping for the drain loop; decision values stay clock-free")
            let closed = self.home.take_into(&mut arrived, timeout);
            if arrived.is_empty() {
                if closed {
                    // A worker's exit guard closes its own job queue before
                    // the queue home.
                    let dead = self.jobs.iter().position(|q| q.is_closed()).unwrap_or(0);
                    self.worker_died(
                        dead,
                        format_args!("shard worker exited while frames were in flight"),
                    );
                }
                complete = false;
                break;
            }
            for scored in arrived.drain(..) {
                self.receive(scored, out);
            }
        }
        self.arrived = arrived;
        complete
    }

    /// Number of submitted frames whose decision has not been drained yet.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Latency decomposition of every decision drained so far via
    /// [`ShardedMonitorPool::flush`] /
    /// [`ShardedMonitorPool::drain_deadline`]: per-decision **compute**
    /// (`compute_ms`, warm frames only — warm-up frames carry no compute
    /// measurement) and **ingress-to-egress queueing** (submit timestamp →
    /// decision drain, every frame). Render with the [`PoolStats`] /
    /// [`LatencyStats`] `Display` impls.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            compute: self.compute_telemetry.stats(),
            queue: self.queue_telemetry.stats(),
            occupancy: self.occupancy.clone(),
        }
    }

    /// Live sessions per shard, index-aligned with the shard workers — the
    /// occupancy [`ShardedMonitorPool::add_session`] balances. Sums to
    /// [`ShardedMonitorPool::session_count`].
    pub fn shard_occupancy(&self) -> &[usize] {
        &self.occupancy
    }

    /// Clears the latency telemetry (e.g. between load phases). The fixed
    /// histogram buffers are kept, so this never allocates.
    pub fn reset_stats(&mut self) {
        self.compute_telemetry.reset();
        self.queue_telemetry.reset();
    }

    /// Books one message home: the decision goes to `out`, its frame
    /// buffer to the free list, its latencies to the telemetry.
    // lint: hot-path
    fn receive(&mut self, scored: Scored<Stamp>, out: &mut Vec<Decision>) {
        let Scored { tag: (session, frame, submitted), frame: buffer, output } = scored;
        self.in_flight = self.in_flight.saturating_sub(1);
        self.queue_telemetry.record(submitted.elapsed().as_secs_f32() * 1000.0);
        if let Some(o) = &output {
            self.compute_telemetry.record(o.compute_ms);
        }
        self.spare_frames.push(buffer);
        out.push(Decision { session, frame, output });
    }

    /// Waits until every frame submitted so far has its decision and
    /// returns all pending decisions. Decisions of one session appear in
    /// frame order. Only submitted frames are waited for, not queued
    /// session or stall jobs: with nothing in flight this returns at once,
    /// even while a shard sleeps in [`ShardedMonitorPool::inject_stall`].
    ///
    /// # Panics
    ///
    /// Panics if a shard worker has exited (its tick panicked) while
    /// frames are in flight, rather than wait for decisions that will
    /// never come; so do [`ShardedMonitorPool::flush_into`] and
    /// [`ShardedMonitorPool::drain_deadline`].
    pub fn flush(&mut self) -> Vec<Decision> {
        let mut out = Vec::new();
        self.flush_into(&mut out);
        out
    }

    /// [`ShardedMonitorPool::flush`] appending into a caller-owned buffer
    /// (no allocation once the buffer is warm); the same wait, for the
    /// same decisions.
    // lint: hot-path
    pub fn flush_into(&mut self, out: &mut Vec<Decision>) {
        self.drain(None, out);
    }

    // lint: hot-path
    fn send(&mut self, shard: usize, job: Job) {
        // lint: allow(panic, reason = "callers pass a placement add_session stored or an index inject_stall asserted")
        if !self.jobs[shard].put(std::iter::once(job)) {
            self.worker_died(
                shard,
                format_args!("shard worker {shard} exited while the pool was alive"),
            );
        }
    }

    /// Fails the pool loud: shard worker `shard` has exited while the pool
    /// is alive, which only a panic in its thread does. Joins the worker
    /// and appends its panic message to `what`, so the cause reaches the
    /// caller and not only stderr. Runs only on the way to the pool's own
    /// panic, and allocates nothing before it, as its hot-path callers
    /// require.
    // lint: hot-path
    #[cold]
    fn worker_died(&mut self, shard: usize, what: std::fmt::Arguments<'_>) -> ! {
        // Only a worker whose exit guard closed its job queue is ending;
        // joining a live one would wait forever.
        let handle = match self.jobs.get(shard) {
            Some(jobs) if jobs.is_closed() => self.handles.get_mut(shard).and_then(Option::take),
            _ => None,
        };
        let payload = match handle {
            Some(handle) => handle.join().err(),
            None => None,
        };
        let cause = match payload.as_deref() {
            Some(p) => match (p.downcast_ref::<&str>(), p.downcast_ref::<String>()) {
                (Some(text), _) => text,
                (_, Some(text)) => text.as_str(),
                _ => "a payload that is not text",
            },
            None => "no panic message",
        };
        // lint: allow(panic, reason = "a dead shard worker means lost decisions; the monitor must not limp on")
        panic!("{what}: shard {shard} panicked: {cause}");
    }
}

impl Drop for ShardedMonitorPool {
    fn drop(&mut self) {
        // Closing the job queues is the shutdown signal.
        for jobs in &self.jobs {
            jobs.close();
        }
        for handle in self.handles.iter_mut().filter_map(Option::take) {
            let _ = handle.join();
        }
    }
}

/// The index of the least-occupied of `occupancy`'s entries, ties to the
/// lowest index (0 when empty): where [`ShardedMonitorPool::add_session`]
/// places a session, and where the ingress service places a connection.
/// With no removals it deals round-robin.
pub fn least_occupied(occupancy: impl IntoIterator<Item = usize>) -> usize {
    // `min_by_key` keeps the first of equal minima.
    occupancy.into_iter().enumerate().min_by_key(|&(_, occ)| occ).map_or(0, |(i, _)| i)
}

/// A frame a [`Shard`] tick scored: the tag it was pushed with, the frame
/// buffer (for the caller to reuse) and the monitor output (`None` during
/// warm-up, exactly when [`EngineStep::complete`] is `None`).
#[derive(Debug)]
pub struct Scored<T> {
    /// What the caller pushed with the frame.
    pub tag: T,
    /// The frame, handed back.
    pub frame: KinematicSample,
    /// The decision, once the session is warm.
    pub output: Option<MonitorOutput>,
}

/// One shard: the engines of the sessions placed on one thread, and the
/// rules that batch their frames into ticks without changing a bit of any
/// session's decisions. [`ShardedMonitorPool`]'s worker threads each drive
/// one, and so does each event loop of the network ingress service.
///
/// Sessions live in engine *slots*: a slot is bound to a session, and
/// rebound to a new one once the session leaves; the caller keeps the free
/// slots. A tick holds at most one frame per slot, so a slot's second
/// frame or its rebinding first runs the pending tick: a session's frames
/// are scored in order, and its state rewinds only after its last frame is
/// scored. Each scored frame waits, with the tag it was pushed with, until
/// the caller takes it with [`Shard::take_scored`]. Every buffer is reused
/// across ticks, so the steady state allocates nothing.
pub struct Shard<T> {
    pipeline: Arc<TrainedPipeline>,
    mode: ContextMode,
    threshold: f32,
    precision: Precision,
    engines: Vec<InferenceEngine>,
    scratch: BatchScratch,
    steps: Vec<EngineStep>,
    /// The tick under construction and each job's tag, index-aligned.
    tick: Vec<BatchJob>,
    tags: Vec<T>,
    /// Per slot: whether the tick under construction holds its frame.
    in_tick: Vec<bool>,
    done: Vec<Scored<T>>,
}

impl<T> Shard<T> {
    /// An empty shard serving `pipeline` in `mode`, with `config`'s
    /// threshold and precision.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is not within `(0, 1)`, if
    /// [`Precision::Int8`] is requested on a pipeline whose quantized twin
    /// was never built ([`TrainedPipeline::quantize`]), or if stage 1 does
    /// not start with an LSTM — the misconfiguration must fail where the
    /// shard is built, not inside a tick.
    pub fn new(pipeline: Arc<TrainedPipeline>, mode: ContextMode, config: ServeConfig) -> Self {
        assert!(config.threshold > 0.0 && config.threshold < 1.0, "threshold must be in (0,1)");
        assert!(
            config.precision == Precision::F32 || pipeline.quantized.is_some(),
            "Precision::Int8 requires TrainedPipeline::quantize() before a shard is built"
        );
        // Rejects a stage 1 whose projected rows the engines cannot window.
        stage1_width(&pipeline);
        Self {
            scratch: BatchScratch::new(&pipeline),
            pipeline,
            mode,
            threshold: config.threshold,
            precision: config.precision,
            engines: Vec::new(),
            steps: Vec::new(),
            tick: Vec::new(),
            tags: Vec::new(),
            in_tick: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Engine slots created so far; the next fresh slot's index.
    pub fn slot_count(&self) -> usize {
        self.engines.len()
    }

    /// Binds `slot` to a new session: the fresh slot
    /// ([`Shard::slot_count`]) grows the shard, and a recycled slot rewinds
    /// to a cold engine, after scoring the frame the pending tick holds for
    /// its last session, if any. A slot is reset here and nowhere else, so
    /// no stale window can leak into a new session.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is past the fresh one.
    pub fn bind(&mut self, slot: usize) {
        if slot == self.engines.len() {
            self.engines.push(InferenceEngine::with_precision(
                &self.pipeline,
                self.mode,
                self.precision,
            ));
            self.in_tick.push(false);
        } else {
            self.settle(slot);
            self.engines[slot].reset(); // lint: allow(panic, reason = "documented panic on a slot past the fresh one")
        }
    }

    /// Adds `frame` of `slot`'s session to the pending tick, tagged with
    /// `tag`, after running that tick if it already holds a frame of the
    /// slot. `context` is the gesture label [`ContextMode::Perfect`]
    /// requires; the other modes ignore it.
    ///
    /// # Panics
    ///
    /// Panics on a slot never bound.
    // lint: hot-path
    pub fn push_frame(
        &mut self,
        slot: usize,
        frame: KinematicSample,
        context: Option<Gesture>,
        tag: T,
    ) {
        self.settle(slot);
        self.in_tick[slot] = true; // lint: allow(panic, reason = "documented panic on a slot never bound")
        self.tick.push(BatchJob { engine: slot, frame, context });
        self.tags.push(tag);
    }

    /// Runs the pending tick if it holds a frame of `slot`, so that frame
    /// is scored before the slot takes another or rewinds.
    // lint: hot-path
    fn settle(&mut self, slot: usize) {
        // lint: allow(panic, reason = "callers document the panic on a slot never bound")
        if self.in_tick[slot] {
            self.run_tick();
        }
    }

    /// Runs the pending tick, if it holds any frame, as one
    /// [`step_batch`] call. Each frame's output records the tick's time
    /// divided by its frame count as `compute_ms`.
    // lint: hot-path
    pub fn run_tick(&mut self) {
        if self.tick.is_empty() {
            return;
        }
        // lint: allow(determinism, reason = "per-frame latency measurement around step_batch; the scores it brackets are clock-free")
        let start = Instant::now();
        step_batch(
            &self.pipeline,
            &mut self.engines,
            &self.tick,
            &mut self.scratch,
            &mut self.steps,
        );
        let per_frame_ms = start.elapsed().as_secs_f32() * 1000.0 / self.tick.len() as f32;
        for ((job, step), tag) in
            self.tick.drain(..).zip(self.steps.iter()).zip(self.tags.drain(..))
        {
            self.in_tick[job.engine] = false; // lint: allow(panic, reason = "tick jobs carry slots push_frame checked")
            let output = output_from_step(step, self.threshold, per_frame_ms);
            self.done.push(Scored { tag, frame: job.frame, output });
        }
    }

    /// Takes every frame scored since the last call, in the order scored.
    // lint: hot-path
    pub fn take_scored(&mut self) -> std::vec::Drain<'_, Scored<T>> {
        self.done.drain(..)
    }
}

/// One pool shard's thread: drives its [`Shard`] from its job queue in
/// micro-batched ticks, and sends each scored frame `home` as soon as it is
/// scored. It takes jobs until the queue is empty, so co-resident sessions
/// land in the same tick, then runs the tick and waits for more. It ends
/// once the queue is closed, dropping any jobs still queued.
fn worker_loop(mut shard: Shard<Stamp>, jobs: &Queue<Job>, home: &Queue<Scored<Stamp>>) {
    let _close = CloseOnExit { jobs, home };
    let mut batch = Vec::new();
    let mut timeout = Duration::MAX;
    while !jobs.take_into(&mut batch, timeout) {
        if batch.is_empty() {
            // A look without waiting found no job: the tick is complete.
            shard.run_tick();
            send_home(&mut shard, home);
            timeout = Duration::MAX;
            continue;
        }
        for job in batch.drain(..) {
            match job {
                Job::Bind { slot } => shard.bind(slot),
                Job::Stall { dur } => std::thread::sleep(dur),
                Job::Frame { slot, session, index, frame, context, submitted } => {
                    shard.push_frame(slot, frame, context, (session, index, submitted));
                }
            }
            // A job that ran the pending tick first.
            send_home(&mut shard, home);
        }
        timeout = Duration::ZERO;
    }
}

/// Sends every frame `shard` scored home. A closed home drops them: a
/// shard worker has exited, and the pool fails its next wait.
// lint: hot-path
fn send_home(shard: &mut Shard<Stamp>, home: &Queue<Scored<Stamp>>) {
    home.put(shard.take_scored());
}

/// Splits `0..len` into at most `parts` contiguous chunks whose sizes
/// differ by **at most one** (the first `len % parts` chunks are one longer)
/// — the audited work-partitioning rule shared by the shard workers and the
/// fault-injection campaign. An earlier `div_ceil`-based split could leave
/// the last worker with a fraction of everyone else's load.
pub fn balanced_chunks(len: usize, parts: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let parts = parts.max(1).min(len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut start = 0usize;
    (0..parts).filter_map(move |i| {
        let size = base + usize::from(i < extra);
        let range = start..start + size;
        start += size;
        (!range.is_empty()).then_some(range)
    })
}

/// Fork-join parallel map over a slice: `items` are split with
/// [`balanced_chunks`] across `threads` scoped workers and the results are
/// returned **in input order** regardless of which worker computed them.
/// This is the one parallel-execution path batch workloads in this
/// workspace use (see `faults::campaign`).
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = balanced_chunks(items.len(), threads)
            .map(|range| {
                // lint: allow(panic, reason = "balanced_chunks yields ranges inside 0..items.len() by construction")
                let chunk = &items[range];
                s.spawn(move || chunk.iter().map(f).collect::<Vec<R>>())
            })
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for handle in handles {
            // lint: allow(panic, reason = "a worker panic already poisoned the batch result; re-raising it on the caller is the only honest outcome")
            out.extend(handle.join().expect("parallel_map worker panicked"));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_chunks_cover_everything_with_sizes_within_one() {
        for len in [0usize, 1, 2, 7, 16, 100, 101] {
            for parts in [1usize, 2, 3, 4, 7, 16] {
                let chunks: Vec<_> = balanced_chunks(len, parts).collect();
                let covered: usize = chunks.iter().map(|c| c.len()).sum();
                assert_eq!(covered, len, "len={len} parts={parts}");
                // Contiguous and ordered.
                let mut expect = 0usize;
                for c in &chunks {
                    assert_eq!(c.start, expect, "len={len} parts={parts}");
                    expect = c.end;
                }
                if let (Some(max), Some(min)) =
                    (chunks.iter().map(|c| c.len()).max(), chunks.iter().map(|c| c.len()).min())
                {
                    assert!(max - min <= 1, "uneven split {chunks:?} for len={len}");
                }
            }
        }
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..137).collect();
        for threads in [1usize, 2, 4, 5] {
            let got = parallel_map(&items, threads, |&x| x * 3 + 1);
            let want: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn parallel_map_on_empty_input() {
        let got: Vec<u32> = parallel_map(&[] as &[u32], 4, |&x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn latency_telemetry_orders_quantiles_and_tracks_exact_max() {
        let mut t = LatencyTelemetry::new();
        assert_eq!(t.stats().count, 0, "empty telemetry (NaN quantiles compare unequal)");
        // 100 decisions at ~1 ms, one straggler at 50 ms.
        for i in 0..100 {
            t.record(1.0 + 0.001 * i as f32);
        }
        t.record(50.0);
        let s = t.stats();
        assert_eq!(s.count, 101);
        assert!(s.p50_ms <= s.p99_ms && s.p99_ms <= s.max_ms, "{s:?}");
        assert_eq!(s.max_ms, 50.0, "max is exact");
        // p50 lands in the ~1 ms band (≤ ~6% bucket quantization).
        assert!((0.9..=1.2).contains(&s.p50_ms), "p50 {}", s.p50_ms);
        assert!(s.mean_ms > s.p50_ms, "straggler pulls the mean above the median");
        t.reset();
        assert_eq!(t.stats().count, 0);
        assert!(t.stats().p50_ms.is_nan());
    }

    #[test]
    fn quantile_reports_the_containing_buckets_upper_edge() {
        // Pin the quantile readout to the *upper* edge of the bucket the
        // target rank lands in: a lower-edge readout under-reports by up to
        // one bucket width (~6%), which matters when the p99 provisions a
        // real-time decision deadline. All mass sits mid-bucket, and the
        // max lives in a higher bucket so the `.min(max_ms)` cap cannot
        // mask a lower-edge regression.
        let mut t = LatencyTelemetry::new();
        let v = 1.05f32; // strictly inside a bucket of the 40/decade layout
        for _ in 0..100 {
            t.record(v);
        }
        t.record(80.0);
        let s = t.stats();
        assert!(s.p50_ms >= v, "p50 {} under-reports the true quantile {v}", s.p50_ms);
        assert!(s.p50_ms <= v * 1.07, "p50 {} more than a bucket above {v}", s.p50_ms);
        assert!(s.p99_ms >= v && s.p99_ms <= v * 1.07, "p99 {} off the {v} bucket", s.p99_ms);
        assert_eq!(s.max_ms, 80.0);
    }

    #[test]
    fn latency_telemetry_clamps_out_of_range_samples() {
        let mut t = LatencyTelemetry::new();
        t.record(0.0); // below the first bucket edge
        t.record(1e-6);
        t.record(1e5); // beyond the last bucket edge
        t.record(f32::NAN); // ignored
        t.record(-1.0); // ignored
        let s = t.stats();
        assert_eq!(s.count, 3);
        assert_eq!(s.max_ms, 1e5);
        assert!(s.p99_ms <= s.max_ms);
    }

    #[test]
    fn latency_telemetry_overflow_quantiles_report_the_exact_max() {
        // Every sample beyond the histogram range: the overflow bucket has
        // no resolution, so quantiles must report the exact max instead of
        // under-reporting at the 100 ms top edge.
        let mut t = LatencyTelemetry::new();
        for _ in 0..10 {
            t.record(500.0);
        }
        let s = t.stats();
        assert_eq!(s.p50_ms, 500.0, "overflow p50 must not cap at the 100 ms edge");
        assert_eq!(s.p99_ms, 500.0);
        assert_eq!(s.max_ms, 500.0);
    }
}
