//! The fleet's lockstep tick on an in-process `ShardedMonitorPool`: submit
//! one frame per session, then `drain_deadline` until every decision is
//! in, and start the next tick as soon as the last one completes. At most
//! one frame per session is ever in flight, so no backlog builds.

use crate::model::Digest;
use crate::trace::{Tracer, NO_SPAN};
use crate::wire::StreamSpec;
use context_monitor::{Decision, SessionId, ShardedMonitorPool};
use ingress::codec::DecisionMsg;
use kinematics::KinematicSample;
use std::time::{Duration, Instant};

/// Longest a tick may take before its missing decisions count as failed.
const TICK_LIMIT: Duration = Duration::from_secs(2);

/// Raw samples of one lockstep run.
pub struct PoolRun {
    /// Per tick: submit of the first frame to `drain_deadline` return, ms.
    pub tick_ms: Vec<f64>,
    /// Per `submit` call, µs.
    pub submit_us: Vec<f64>,
    /// Per `drain_deadline` call, ms.
    pub drain_ms: Vec<f64>,
    /// Per decision: its `submit` returned → the drain that delivered it
    /// returned, ms (benchmark timestamps, not the pool's histogram).
    pub queue_ms: Vec<f64>,
    /// Per warm decision: the `compute_ms` the pool stamped on it (its
    /// shard tick's time divided by that tick's batch size).
    pub compute_amortized_ms: Vec<f64>,
    pub ticks: u64,
    pub decisions: u64,
    pub warm_decisions: u64,
    /// Frames whose decision did not arrive within the tick limit, or
    /// arrived out of order.
    pub failed: u64,
    pub elapsed: Duration,
    pub tracer: Tracer,
}

/// Runs lockstep ticks over `sessions` (session `i` streams `specs[i]`)
/// until `stop` says so, folding each session's decisions into
/// `digests[i]`. Frame numbering continues from `start_frame`.
#[allow(clippy::too_many_arguments)]
pub fn lockstep(
    pool: &mut ShardedMonitorPool,
    sessions: &[SessionId],
    specs: &[StreamSpec],
    streams: &[Vec<KinematicSample>],
    start_frame: usize,
    digests: &mut [Digest],
    mut stop: impl FnMut(u64, Instant) -> bool,
    mut tracer: Tracer,
) -> PoolRun {
    let n = sessions.len();
    assert_eq!(digests.len(), n, "one digest per session");
    let mut run = PoolRun {
        tick_ms: Vec::new(),
        submit_us: Vec::new(),
        drain_ms: Vec::new(),
        queue_ms: Vec::new(),
        compute_amortized_ms: Vec::new(),
        ticks: 0,
        decisions: 0,
        warm_decisions: 0,
        failed: 0,
        elapsed: Duration::ZERO,
        tracer: Tracer::new(false, Instant::now()),
    };
    // Session id → index into `sessions`.
    let mut index_of = vec![None; sessions.iter().max().map_or(0, |&m| m + 1)];
    for (i, &s) in sessions.iter().enumerate() {
        index_of[s] = Some(i);
    }
    let mut submitted_at = vec![Instant::now(); n];
    let mut out: Vec<Decision> = Vec::with_capacity(n);
    let started = Instant::now();
    let mut frame = start_frame;
    while !stop(run.ticks, Instant::now()) {
        let tick_id = run.ticks;
        let t_start = Instant::now();
        let root = tracer.open("core.serve.tick", tick_id, NO_SPAN, t_start);
        for (i, (&session, spec)) in sessions.iter().zip(specs).enumerate() {
            let s0 = Instant::now();
            pool.submit(session, spec.frame(streams, frame))
                .expect("Predicted mode never needs context");
            let s1 = Instant::now();
            tracer.record("core.serve.submit", tick_id, root, s0, s1);
            run.submit_us.push((s1 - s0).as_secs_f64() * 1e6);
            submitted_at[i] = s1;
        }
        out.clear();
        let d0 = Instant::now();
        let complete = pool.drain_deadline(t_start + TICK_LIMIT, &mut out);
        let d1 = Instant::now();
        tracer.record("core.serve.drain_deadline", tick_id, root, d0, d1);
        tracer.close(root, d1);
        run.drain_ms.push((d1 - d0).as_secs_f64() * 1e3);
        run.tick_ms.push((d1 - t_start).as_secs_f64() * 1e3);
        for d in &out {
            let Some(i) = index_of.get(d.session).copied().flatten() else {
                run.failed += 1;
                continue;
            };
            if d.frame != frame {
                run.failed += 1;
                continue;
            }
            run.queue_ms.push(d1.saturating_duration_since(submitted_at[i]).as_secs_f64() * 1e3);
            if let Some(o) = &d.output {
                run.compute_amortized_ms.push(o.compute_ms as f64);
                run.warm_decisions += 1;
            }
            digests[i].push(DecisionMsg::from_decision(d.frame as u32, d.output.as_ref()).key());
            run.decisions += 1;
        }
        if !complete {
            // Count what never came and resynchronize on a full drain.
            run.failed += (n - out.len()) as u64;
            out.clear();
            pool.flush_into(&mut out);
        }
        run.ticks += 1;
        frame += 1;
    }
    run.elapsed = started.elapsed();
    run.tracer = tracer;
    run
}
