//! Fleet-scale closed loop: N concurrent guarded procedures riding **one**
//! shared [`ShardedMonitorPool`], with deadline-gated fail-safe decisions.
//!
//! [`run_closed_loop_campaign`](crate::run_closed_loop_campaign) closes the
//! loop for a single simulated robot: each monitored twin owns a private
//! `InferenceEngine`. This module is the production topology the ROADMAP
//! asks for — a *fleet* of simulated procedures multiplexed over one
//! sharded, micro-batched serving pool:
//!
//! ```text
//!   trial 0 ─ plan → fault → PooledReactor ─ apply ─┐
//!   trial 1 ─ plan → fault → PooledReactor ─ apply ─┤ lockstep tick
//!   …                                               │
//!        frames ──────────────► ShardedMonitorPool (shards, micro-batch)
//!        decisions ◄──────────── drain (barrier or per-tick budget)
//! ```
//!
//! One loop drives both entry points. At most [`FleetConfig::fleet`]
//! trials are live at once. A trial opens a pool session
//! ([`ShardedMonitorPool::add_session`]), and each fleet tick it advances
//! one physics step ([`BlockTransferSim::step`]) and submits the frame it
//! logged. The pool is then drained, with a blocking barrier
//! ([`run_fleet_campaign`]) or a wall-clock budget
//! ([`run_forced_miss_drill`]). A decision that misses its tick trips the
//! [`PooledReactor`] fail-safe: the trial's commands hold at the last
//! un-gated setpoint (never an unexamined plan command) until the late
//! decision arrives, and the miss is counted. A finished trial waits for
//! its last decisions, leaves with [`ShardedMonitorPool::remove_session`],
//! and the next pending trial takes its place.
//!
//! **Determinism guarantee:** with the barrier drain, the fleet campaign's
//! [`ClosedLoopReport`] is bit-identical across pool worker counts and
//! fleet sizes, *and* bit-identical to the single-robot
//! `run_closed_loop_campaign` for the same configuration — the pool's
//! decisions are bit-exact to a sequential engine, and both reactor shapes
//! share one `AlertGate` state machine. CI enforces this via
//! `repro_fleet --smoke`.

use crate::campaign::{derive_trial, grid_work, table3_grid, tally_closed_loop};
use crate::campaign::{ClosedLoopConfig, ClosedLoopReport, TwinOutcome};
use crate::run_injection;
use crate::spec::{FaultInjector, FaultSpec};
use context_monitor::serve::{parallel_map, Decision, ServeConfig, SessionId, ShardedMonitorPool};
use context_monitor::{PoolStats, TrainedPipeline};
use raven_sim::{BlockTransferSim, CommandFilter, Commands, FailureMode, SimConfig};
use reactor::{ConfigError, Guarded, PooledReactor};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The drill's per-tick drain budget: far below a stalled shard's sleep,
/// so the stall forces misses.
const DRILL_BUDGET: Duration = Duration::from_millis(2);

/// Configuration of the fleet campaign and the drill.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Grid, seed derivation, scale, baseline threads, and the reactor
    /// configuration every guarded procedure runs.
    pub closed_loop: ClosedLoopConfig,
    /// Shard worker threads of the shared serving pool (clamped to ≥ 1).
    pub workers: usize,
    /// Most guarded procedures live at once: the pool's peak session count
    /// (clamped to ≥ 1).
    pub fleet: usize,
}

/// Serving-side accounting of a fleet run: how the reaction-time margin
/// decomposes into compute vs. queueing, how often the deadline gate had
/// to fail safe, and whether anything got past it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetStats {
    /// Guarded procedures run.
    pub trials: usize,
    /// Frames submitted across all trials.
    pub frames: usize,
    /// Ticks (across all trials) whose commands were fail-safe-held
    /// because their gating decision missed the deadline. Always 0 with
    /// the barrier drain.
    pub deadline_misses: usize,
    /// Fail-safe-held ticks whose commands did **not** equal the tick
    /// before's, i.e. un-gated commands that escaped during a miss. The
    /// safety invariant is that this is always 0.
    pub ungated_during_miss: usize,
    /// Decisions applied by the gates, late ones included, each exactly
    /// once: equals [`FleetStats::frames`] when nothing was lost.
    pub decisions_applied: usize,
    /// Pool latency decomposition (per-decision compute and
    /// ingress-to-egress queueing), with the per-shard occupancy left at
    /// the end: all zeros, since every trial removes its session.
    pub pool: PoolStats,
}

/// Runs the closed-loop twin-run campaign with every monitored twin served
/// by **one shared pool**: baselines run exactly like
/// [`run_closed_loop_campaign`](crate::run_closed_loop_campaign) (same
/// seeds, same specs — trial-for-trial the open-loop campaign), and the
/// monitored twins run [`FleetConfig::fleet`] at a time in lockstep over
/// the pool's micro-batched tick, drained with a barrier each tick.
///
/// Returns the [`ClosedLoopReport`] (bit-identical across worker counts and
/// fleet sizes) plus the fleet's serving stats.
///
/// # Errors
///
/// [`ConfigError`] when the reactor configuration is invalid for
/// `pipeline` — one bad sweep point fails this call, not the process.
pub fn run_fleet_campaign(
    cfg: &FleetConfig,
    pipeline: &Arc<TrainedPipeline>,
) -> Result<(ClosedLoopReport, FleetStats), ConfigError> {
    let grid = table3_grid();
    let work = grid_work(&grid, &cfg.closed_loop.campaign);
    let sim = cfg.closed_loop.campaign.sim;
    let trials: Vec<(FaultSpec, SimConfig)> =
        work.iter().map(|&(ci, seed)| derive_trial(&grid, ci, seed, sim)).collect();

    let (monitored, stats) = fleet_loop(cfg, pipeline, &trials, None, None, |_, _| {})?;
    // Unmonitored twins: the counterfactuals, same parallel path as the
    // single-robot campaign.
    let threads = cfg.closed_loop.campaign.threads.max(1);
    let baselines =
        parallel_map(&trials, threads, |&(spec, sim)| run_injection(&sim, spec).0.outcome);

    let outcomes = work.iter().zip(baselines).zip(monitored).map(
        |((&(cell, _), baseline), (monitored_failure, reactor))| TwinOutcome {
            cell,
            baseline_failure: baseline.failure,
            baseline_error_tick: baseline.error_tick,
            monitored_failure,
            first_alert_tick: reactor.gate().first_alert_tick(),
            engaged_tick: reactor.gate().engaged_tick(),
            ticks_gated: reactor.gate().ticks_gated(),
        },
    );
    Ok((tally_closed_loop(&grid, outcomes.collect(), sim.hz, cfg.closed_loop.reactor), stats))
}

/// The fail-safe drill: [`FleetConfig::fleet`] concurrent guarded Block
/// Transfer trials through a pool whose shard 0 is deliberately stalled for
/// `stall` a third of the way in, each tick drained within 2 ms. Every
/// tick whose decision misses the deadline must carry the held setpoint —
/// never an un-gated plan command — and every late decision must be
/// applied exactly once when it finally arrives; trials on the healthy
/// shards keep flowing while the stalled shard's trials hold.
///
/// Callers assert `deadline_misses > 0` (the stall really forced misses),
/// `ungated_during_miss == 0` (nothing escaped any gate) and
/// `decisions_applied == frames`. The drill is wall-clock driven, so the
/// *number* of misses varies with the host — the invariants do not.
///
/// # Errors
///
/// [`ConfigError`] when the reactor configuration is invalid for
/// `pipeline`.
pub fn run_forced_miss_drill(
    cfg: &FleetConfig,
    pipeline: &Arc<TrainedPipeline>,
    stall: Duration,
) -> Result<FleetStats, ConfigError> {
    let grid = table3_grid();
    let campaign = &cfg.closed_loop.campaign;
    let trials: Vec<(FaultSpec, SimConfig)> = grid_work(&grid, campaign)
        .iter()
        .cycle()
        .take(cfg.fleet.max(1))
        .map(|&(ci, seed)| derive_trial(&grid, ci, seed, campaign.sim))
        .collect();
    let stall_at = BlockTransferSim::new(&campaign.sim).ticks() / 3;
    let stall = Some((stall_at, stall));
    let (_, stats) = fleet_loop(cfg, pipeline, &trials, Some(DRILL_BUDGET), stall, |_, _| {})?;
    Ok(stats)
}

/// A trial's guard, audited from outside its [`PooledReactor`]: a
/// fail-safe-held tick must carry the command of the tick before — the
/// frozen setpoint — bit for bit, and every held tick that does not is
/// counted.
struct Audited {
    guard: Guarded<FaultInjector, PooledReactor>,
    /// The command the last tick carried; none before tick 0, which never
    /// requires a decision and so is never held.
    last: Option<Commands>,
    ungated_during_miss: usize,
}

impl CommandFilter for Audited {
    fn apply(&mut self, tick: usize, progress: f32, commands: &mut Commands) {
        self.guard.apply(tick, progress, commands);
        if self.guard.reactor.failing_safe() && self.last.is_some_and(|last| last != *commands) {
            self.ungated_during_miss += 1;
        }
        self.last = Some(*commands);
    }

    // `observe` stays the default no-op, as it is for both filters the
    // guard composes: frames reach the model through the pool.
}

/// A trial in the fleet: its index in the trial list, its pool session,
/// its simulator and its audited guard.
struct Live {
    trial: usize,
    session: SessionId,
    sim: BlockTransferSim,
    audit: Audited,
}

/// A finished trial: the monitored run's failure, if any, and its reactor.
type Ended = (Option<FailureMode>, PooledReactor);

/// The fleet loop: runs `trials` (each a fault and a simulator
/// configuration) at most [`FleetConfig::fleet`] at a time over one fresh
/// pool, and returns each trial's monitored failure and reactor, in trial
/// order, with the fleet's stats.
///
/// Each fleet tick admits pending trials into free places (a new session
/// each), steps every live trial once, submits its frame and drains the
/// pool: with a barrier when `budget` is `None` (or too long for the
/// clock to represent), else for at most `budget`. `stall`, a fleet tick
/// and a duration, puts shard 0 to sleep at that tick. Once a trial has
/// run its ticks, the pool is flushed, so every decision is applied
/// exactly once, and the trial leaves with its session removed. `tap` sees
/// every decision with its trial's index, as it is applied.
fn fleet_loop(
    cfg: &FleetConfig,
    pipeline: &Arc<TrainedPipeline>,
    trials: &[(FaultSpec, SimConfig)],
    budget: Option<Duration>,
    stall: Option<(usize, Duration)>,
    mut tap: impl FnMut(usize, &Decision),
) -> Result<(Vec<Ended>, FleetStats), ConfigError> {
    let reactor_cfg = cfg.closed_loop.reactor;
    reactor_cfg.validate_for(pipeline)?;
    let serve = ServeConfig {
        workers: cfg.workers.max(1),
        threshold: reactor_cfg.threshold,
        precision: reactor_cfg.precision,
    };
    let mut pool = ShardedMonitorPool::new(Arc::clone(pipeline), reactor_cfg.mode, serve);
    let fleet = cfg.fleet.max(1);
    let mut pending = trials.iter().enumerate();
    let mut live: Vec<Live> = Vec::with_capacity(fleet);
    let mut ended = Vec::with_capacity(trials.len());
    let mut decisions: Vec<Decision> = Vec::new();
    let mut stats = FleetStats {
        trials: trials.len(),
        frames: 0,
        deadline_misses: 0,
        ungated_during_miss: 0,
        decisions_applied: 0,
        pool: pool.stats(),
    };

    for tick in 0.. {
        while live.len() < fleet {
            let Some((trial, &(spec, sim))) = pending.next() else { break };
            let guard = Guarded::new(FaultInjector::new(spec), PooledReactor::new(reactor_cfg)?);
            live.push(Live {
                trial,
                session: pool.add_session(),
                sim: BlockTransferSim::new(&sim),
                audit: Audited { guard, last: None, ungated_during_miss: 0 },
            });
        }
        if live.is_empty() {
            break;
        }
        if let Some((_, dur)) = stall.filter(|&(at, _)| at == tick) {
            pool.inject_stall(0, dur);
        }

        for l in &mut live {
            let frame = l.sim.step(&mut l.audit);
            // Non-Perfect mode was validated above, the sole way submit
            // can fail — surface it as the config error it is.
            pool.submit(l.session, frame).map_err(|_| ConfigError::PerfectContext)?;
            stats.frames += 1;
        }
        match budget.and_then(|b| Instant::now().checked_add(b)) {
            // Whatever arrives inside the budget gates now; the rest
            // arrives late and trips its trial's fail-safe.
            Some(deadline) => {
                pool.drain_deadline(deadline, &mut decisions);
            }
            // Every decision rides the tick it was submitted in.
            None => pool.flush_into(&mut decisions),
        }
        route(&mut decisions, &mut live, &mut tap);

        if live.iter().any(|l| l.sim.done()) {
            // A trial leaves once all its decisions are applied: wait for
            // the ones a budget left in flight.
            pool.flush_into(&mut decisions);
            route(&mut decisions, &mut live, &mut tap);
            for l in live.extract_if(.., |l| l.sim.done()) {
                pool.remove_session(l.session);
                let reactor = l.audit.guard.reactor;
                stats.deadline_misses += reactor.deadline_misses();
                stats.decisions_applied += reactor.decisions_applied();
                stats.ungated_during_miss += l.audit.ungated_during_miss;
                ended.push((l.trial, l.sim.finish().outcome.failure, reactor));
            }
        }
    }

    // Telemetry over every decision, and the occupancy the removals left.
    stats.pool = pool.stats();
    ended.sort_by_key(|&(trial, ..)| trial);
    Ok((ended.into_iter().map(|(_, failure, reactor)| (failure, reactor)).collect(), stats))
}

/// Applies drained `decisions` to their live trials, each exactly once,
/// and shows each to `tap` with its trial's index.
fn route(decisions: &mut Vec<Decision>, live: &mut [Live], tap: &mut impl FnMut(usize, &Decision)) {
    for d in decisions.drain(..) {
        let owner = live.iter_mut().find(|l| l.session == d.session);
        // lint: allow(panic, reason = "a trial leaves only after a flush, so a decision without a live trial is a pool bug; fail loud, never misroute a gating decision")
        let l = owner.expect("every decision belongs to a live trial");
        tap(l.trial, &d);
        l.audit.guard.reactor.on_decision(&d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignConfig;
    use crate::run_closed_loop_campaign;
    use crate::testutil::{bt_pipeline, closed_loop_sim};
    use reactor::{MitigationPolicy, ReactorConfig};

    fn fleet_cfg(scale: f32, workers: usize, fleet: usize) -> FleetConfig {
        FleetConfig {
            closed_loop: ClosedLoopConfig {
                campaign: CampaignConfig { sim: closed_loop_sim(), seed: 42, scale, threads: 4 },
                reactor: ReactorConfig {
                    policy: MitigationPolicy::StopAndHold,
                    ..ReactorConfig::default()
                },
            },
            workers,
            fleet,
        }
    }

    #[test]
    fn fleet_report_is_bit_identical_across_worker_counts_and_to_single_robot() {
        let pipeline = bt_pipeline();
        let cfg1 = fleet_cfg(0.02, 1, 3);
        let (report1, stats1) = run_fleet_campaign(&cfg1, &pipeline).expect("valid config");
        let cfg3 = fleet_cfg(0.02, 3, 5);
        let (report3, stats3) = run_fleet_campaign(&cfg3, &pipeline).expect("valid config");
        assert_eq!(
            report1, report3,
            "fleet report must be bit-identical across pool worker counts and fleet sizes"
        );
        assert_eq!(stats1.trials, stats3.trials);
        for stats in [&stats1, &stats3] {
            assert_eq!(stats.deadline_misses, 0, "barrier drain never misses");
            assert_eq!(stats.ungated_during_miss, 0, "nothing is held, so nothing escapes");
            assert_eq!(stats.decisions_applied, stats.frames, "every decision applied once");
            assert!(
                stats.pool.occupancy.iter().all(|&n| n == 0),
                "every trial's session must have been removed: occupancy {:?}",
                stats.pool.occupancy
            );
            assert!(stats.pool.queue.count > 0, "queueing telemetry covers the fleet's frames");
        }

        // The pooled reactor and the in-process reactor share one state
        // machine over bit-exact scores: the fleet campaign reproduces the
        // single-robot campaign's report exactly.
        let single = run_closed_loop_campaign(&cfg1.closed_loop, &pipeline).expect("valid config");
        assert_eq!(report1, single, "fleet must equal the single-robot closed loop bit-for-bit");

        let summary = report1.summary();
        assert!(summary.baseline_unsafe > 0, "grid too small to produce block drops");
        assert!(summary.prevented > 0, "fleet prevention must beat the unmonitored 0% baseline");
    }

    #[test]
    fn forced_miss_drill_holds_failsafe_and_applies_late_decisions_once() {
        let pipeline = bt_pipeline();
        let cfg = fleet_cfg(0.02, 2, 2);
        let stats = run_forced_miss_drill(&cfg, &pipeline, Duration::from_millis(120))
            .expect("valid config");
        assert_eq!(stats.trials, 2, "the drill honors FleetConfig::fleet");
        let ticks = BlockTransferSim::new(&closed_loop_sim()).ticks();
        assert_eq!(stats.frames, 2 * ticks);
        assert!(stats.deadline_misses > 0, "the stalled shard must force deadline misses");
        assert_eq!(
            stats.ungated_during_miss, 0,
            "zero un-gated commands may escape while decisions are missing"
        );
        assert_eq!(
            stats.decisions_applied, stats.frames,
            "every late decision is applied exactly once"
        );
    }

    /// `(frame, gesture index, score bits, alert)` of a warm decision.
    type Key = (usize, usize, u32, bool);

    /// Five trials of three lengths (2, 4, 3, 2 and 3 s): at fleet 4, the
    /// short ones finish first, their sessions are removed mid-run, and
    /// trial 4 is admitted into a recycled slot while the long trials are
    /// still streaming.
    fn mixed_length_trials() -> Vec<(FaultSpec, SimConfig)> {
        let grid = table3_grid();
        let work = grid_work(&grid, &fleet_cfg(0.02, 1, 1).closed_loop.campaign);
        [2.0f32, 4.0, 3.0, 2.0, 3.0]
            .iter()
            .zip(work.iter().cycle())
            .map(|(&duration_s, &(ci, seed))| {
                derive_trial(&grid, ci, seed, SimConfig { duration_s, ..closed_loop_sim() })
            })
            .collect()
    }

    #[test]
    fn readmitted_mixed_lengths_are_bit_identical_to_solo_sessions() {
        let pipeline = bt_pipeline();
        let trials = mixed_length_trials();
        let run = |workers: usize, fleet: usize| {
            let mut keys: Vec<Vec<Key>> = vec![Vec::new(); trials.len()];
            let mut applied: Vec<usize> = Vec::new();
            let cfg = fleet_cfg(0.02, workers, fleet);
            let (ended, stats) = fleet_loop(&cfg, &pipeline, &trials, None, None, |trial, d| {
                applied.push(trial);
                if let Some(o) = d.output {
                    let key = (d.frame, o.gesture.index(), o.unsafe_probability.to_bits(), o.alert);
                    keys[trial].push(key);
                }
            })
            .expect("valid config");
            let gates: Vec<_> = ended
                .iter()
                .map(|(failure, r)| {
                    let g = r.gate();
                    (*failure, g.first_alert_tick(), g.engaged_tick(), g.ticks_gated())
                })
                .collect();
            assert_eq!(stats.decisions_applied, stats.frames);
            assert!(
                stats.pool.occupancy.iter().all(|&n| n == 0),
                "every session must have been removed: occupancy {:?}",
                stats.pool.occupancy
            );
            (gates, keys, applied)
        };
        let (gates_wide, keys_wide, applied_wide) = run(3, 4);
        let (gates_solo, keys_solo, applied_solo) = run(1, 1);

        // The bit-equality proof: concurrency, mixed lengths, removal and
        // slot recycling change *nothing* about any trial's decision stream
        // or closed-loop outcome.
        assert_eq!(gates_wide, gates_solo, "closed-loop outcomes must match solo runs");
        assert_eq!(keys_wide, keys_solo, "warm decisions must be bit-identical to solo runs");
        assert!(
            keys_wide.iter().all(|k| !k.is_empty()),
            "every trial must warm up, or the equality above is vacuous"
        );
        assert_eq!(applied_wide.len(), applied_solo.len());

        // Four at once, with trial 4 readmitted while trial 1 (the longest)
        // still runs; one at a time, trial 4 starts after trial 1 ends.
        let span = |applied: &[usize], t: usize| {
            let first = applied.iter().position(|&x| x == t).expect("trial t ran");
            (first, applied.iter().rposition(|&x| x == t).expect("trial t ran"))
        };
        assert!(span(&applied_wide, 4).0 < span(&applied_wide, 1).1, "trial 4 is readmitted");
        assert!(span(&applied_solo, 4).0 > span(&applied_solo, 1).1, "fleet 1 runs serially");
    }

    #[test]
    fn a_trial_leaves_only_after_its_late_decisions_are_applied() {
        // A zero budget leaves nearly every decision a tick late, so each
        // trial's last decisions are still in flight when it ends.
        let pipeline = bt_pipeline();
        let cfg = fleet_cfg(0.02, 2, 4);
        let trials = mixed_length_trials();
        let (_, stats) =
            fleet_loop(&cfg, &pipeline, &trials, Some(Duration::ZERO), None, |_, _| {})
                .expect("valid config");
        assert!(stats.deadline_misses > 0, "a zero budget must leave decisions late");
        assert_eq!(stats.ungated_during_miss, 0, "every late tick holds its setpoint");
        assert_eq!(stats.decisions_applied, stats.frames, "no decision is lost at removal");
        assert!(stats.pool.occupancy.iter().all(|&n| n == 0), "{:?}", stats.pool.occupancy);
    }

    #[test]
    fn fleet_rejects_bad_sweep_points_with_typed_errors() {
        let pipeline = bt_pipeline();
        let mut cfg = fleet_cfg(0.02, 1, 1);
        cfg.closed_loop.reactor.debounce = 0;
        assert_eq!(
            run_fleet_campaign(&cfg, &pipeline).err(),
            Some(ConfigError::ZeroDebounce),
            "a bad sweep point fails the call, not the process"
        );
    }
}
