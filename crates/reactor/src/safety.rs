//! The reactor itself: an [`InferenceEngine`] in the command path.

use crate::gate::AlertGate;
use crate::policy::{ConfigError, ReactorConfig};
use context_monitor::{InferenceEngine, TrainedPipeline};
use kinematics::KinematicSample;
use raven_sim::{CommandFilter, Commands};
use std::sync::Arc;

/// A safety monitor closed around the robot's command stream.
///
/// As a [`CommandFilter`], the reactor receives every logged kinematic
/// frame via [`observe`](CommandFilter::observe) (the sensing path) and
/// every tick's commands via [`apply`](CommandFilter::apply) (the actuation
/// path). Each observed frame is stepped through the shared allocation-free
/// [`InferenceEngine`]; once the unsafe score exceeds the threshold for
/// [`ReactorConfig::debounce`] consecutive frames, the configured
/// [`MitigationPolicy`](crate::MitigationPolicy) is scheduled and — after
/// [`ReactorConfig::actuation_latency`] further ticks — gates the command
/// stream.
///
/// Compose with a fault injector via [`Guarded`] to run the paper's
/// injections *through* the reactor (the monitored twin of the closed-loop
/// campaign).
pub struct SafetyReactor {
    pipeline: Arc<TrainedPipeline>,
    engine: InferenceEngine,
    /// The debounce/engage/gate state machine — shared, literally, with the
    /// pool-fed [`PooledReactor`](crate::PooledReactor).
    gate: AlertGate,
    /// Ticks observed since construction / the last reset.
    ticks_seen: usize,
}

impl SafetyReactor {
    /// Creates a reactor over a shared trained pipeline.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when the configuration fails
    /// [`ReactorConfig::validate_for`] — threshold outside `(0, 1)`,
    /// `debounce == 0` or beyond the pipeline warm-up, or
    /// [`ContextMode::Perfect`](context_monitor::ContextMode::Perfect) (an
    /// in-loop reactor has no oracle gesture boundaries to supply). A fleet
    /// campaign sweeping configurations handles the error; it is never a
    /// process-killing panic.
    pub fn try_new(
        pipeline: Arc<TrainedPipeline>,
        cfg: ReactorConfig,
    ) -> Result<Self, ConfigError> {
        cfg.validate_for(&pipeline)?;
        let engine = InferenceEngine::with_precision(&pipeline, cfg.mode, cfg.precision);
        Ok(Self { pipeline, engine, gate: AlertGate::new(cfg)?, ticks_seen: 0 })
    }

    /// [`SafetyReactor::try_new`], panicking on an invalid configuration.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message if the threshold is not
    /// within `(0, 1)`, if `debounce == 0` or exceeds the pipeline warm-up,
    /// or if the mode is `ContextMode::Perfect`.
    pub fn new(pipeline: Arc<TrainedPipeline>, cfg: ReactorConfig) -> Self {
        // lint: allow(panic, reason = "documented panicking constructor; fallible path is try_new")
        Self::try_new(pipeline, cfg).unwrap_or_else(|e| panic!("invalid ReactorConfig: {e}"))
    }

    /// The configuration this reactor runs.
    pub fn config(&self) -> &ReactorConfig {
        self.gate.config()
    }

    /// The shared pipeline.
    pub fn pipeline(&self) -> &Arc<TrainedPipeline> {
        &self.pipeline
    }

    /// Ticks observed since construction or the last reset.
    pub fn ticks_seen(&self) -> usize {
        self.ticks_seen
    }

    /// Alert frames seen (unsafe score above threshold).
    pub fn alerts(&self) -> usize {
        self.gate.alerts()
    }

    /// Tick of the first alert frame, if any — the timestamp reaction-time
    /// margins are measured from.
    pub fn first_alert_tick(&self) -> Option<usize> {
        self.gate.first_alert_tick()
    }

    /// Tick at which mitigation was first scheduled (`None` for
    /// [`MitigationPolicy::LogOnly`](crate::MitigationPolicy::LogOnly) or
    /// when no alert was confirmed).
    pub fn engaged_tick(&self) -> Option<usize> {
        self.gate.engaged_tick()
    }

    /// Ticks whose commands were actually gated so far.
    pub fn ticks_gated(&self) -> usize {
        self.gate.ticks_gated()
    }

    /// Clears all per-trial state (engine windows, smoothing filter, alert
    /// and gating bookkeeping) so the reactor can guard another trial.
    pub fn reset(&mut self) {
        self.engine.reset();
        self.gate.reset();
        self.ticks_seen = 0;
    }
}

impl CommandFilter for SafetyReactor {
    // lint: hot-path
    fn apply(&mut self, tick: usize, _progress: f32, commands: &mut Commands) {
        self.gate.gate_commands(tick, commands);
    }

    // lint: hot-path
    fn observe(&mut self, tick: usize, state: &KinematicSample) {
        self.ticks_seen += 1;
        let step = self
            .engine
            .step(&self.pipeline, state)
            // lint: allow(panic, reason = "CommandFilter::observe cannot return Result; Perfect mode is rejected by try_new, so step cannot fail")
            .expect("non-Perfect mode enforced at construction");
        // Alert on the *complete* decision product — the same
        // (gesture, score) pair the serving pool emits as `MonitorOutput` —
        // so the in-process and pool-fed reactors share one timeline in
        // every mode. In `NoContext` mode the error stage can warm before
        // the gesture stage; a score from that gap is not yet a decision
        // either deployment shape may act on (an earlier revision alerted
        // on the raw score here, silently diverging from the pooled shape
        // for exactly those warm-up ticks).
        let alert = step.complete().is_some_and(|(_, s)| s > self.config().threshold);
        self.gate.on_score(tick, alert);
    }
}

/// A fault injector and a reactor sharing one command path, in the order of
/// the real system: faults corrupt the trajectory packets first, then the
/// reactor — "the last computational stage in the robot control system" —
/// gets the final word.
///
/// The reactor defaults to the in-process [`SafetyReactor`]; the fleet
/// campaign instantiates it with a pool-fed
/// [`PooledReactor`](crate::PooledReactor) instead.
pub struct Guarded<F, R = SafetyReactor> {
    /// The upstream filter (typically a `faults::FaultInjector`).
    pub fault: F,
    /// The reactor guarding the stream.
    pub reactor: R,
}

impl<F: CommandFilter, R: CommandFilter> Guarded<F, R> {
    /// Composes `fault` upstream of `reactor`.
    pub fn new(fault: F, reactor: R) -> Self {
        Self { fault, reactor }
    }
}

impl<F: CommandFilter, R: CommandFilter> CommandFilter for Guarded<F, R> {
    fn apply(&mut self, tick: usize, progress: f32, commands: &mut Commands) {
        self.fault.apply(tick, progress, commands);
        self.reactor.apply(tick, progress, commands);
    }

    fn observe(&mut self, tick: usize, state: &KinematicSample) {
        self.fault.observe(tick, state);
        self.reactor.observe(tick, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::MitigationPolicy;
    use context_monitor::{ContextMode, MonitorConfig};
    use gestures::Task;
    use jigsaws::{generate, GeneratorConfig};
    use kinematics::{Dataset, FeatureSet};
    use raven_sim::ArmCommand;

    fn trained() -> (Arc<TrainedPipeline>, Dataset) {
        let ds = generate(&GeneratorConfig::fast(Task::Suturing).with_seed(61));
        let mut cfg = MonitorConfig::fast(FeatureSet::CRG).with_seed(13);
        cfg.train.epochs = 2;
        cfg.train_stride = 6;
        let idx: Vec<usize> = (0..ds.len()).collect();
        (Arc::new(TrainedPipeline::train(&ds, &idx, &cfg)), ds)
    }

    fn plan_commands(p: f32) -> Commands {
        let arm = ArmCommand {
            position: kinematics::Vec3::new(10.0 * p, -5.0 * p, 20.0),
            grasper: 0.12,
            euler: (0.0, 0.0, 0.0),
        };
        Commands { arms: [arm, arm] }
    }

    /// Drives `reactor` over a demo's frames like the simulator would:
    /// apply tick t, then observe tick t. Returns the commands each tick
    /// actually carried.
    fn drive(reactor: &mut SafetyReactor, ds: &Dataset, n: usize) -> Vec<Commands> {
        let demo = &ds.demos[0];
        let mut out = Vec::new();
        for t in 0..n.min(demo.len()) {
            let p = t as f32 / (n - 1) as f32;
            let mut cmds = plan_commands(p);
            reactor.apply(t, p, &mut cmds);
            reactor.observe(t, &demo.frames[t]);
            out.push(cmds);
        }
        out
    }

    fn trigger_happy(policy: MitigationPolicy) -> ReactorConfig {
        // A threshold this low alerts on every warm frame, making the
        // engage timeline deterministic regardless of what the tiny test
        // model learned.
        ReactorConfig {
            threshold: 1e-6,
            debounce: 2,
            actuation_latency: 3,
            policy,
            ..Default::default()
        }
    }

    #[test]
    fn log_only_never_touches_commands() {
        let (pipeline, ds) = trained();
        let mut reactor = SafetyReactor::new(pipeline, trigger_happy(MitigationPolicy::LogOnly));
        let n = 60;
        let carried = drive(&mut reactor, &ds, n);
        for (t, cmds) in carried.iter().enumerate() {
            assert_eq!(*cmds, plan_commands(t as f32 / (n - 1) as f32), "tick {t} mutated");
        }
        assert!(reactor.alerts() > 0, "trigger-happy threshold should alert");
        assert_eq!(reactor.engaged_tick(), None);
        assert_eq!(reactor.ticks_gated(), 0);
    }

    #[test]
    fn stop_and_hold_freezes_commands_after_latency() {
        let (pipeline, ds) = trained();
        let cfg = trigger_happy(MitigationPolicy::StopAndHold);
        let mut reactor = SafetyReactor::new(Arc::clone(&pipeline), cfg);
        let n = 80;
        let carried = drive(&mut reactor, &ds, n);

        let warm = pipeline.config.window.width.max(pipeline.config.gesture_window);
        // First score (and alert) at tick warm-1; debounce confirms one
        // frame later; gate engages after 1 tick of sensing delay plus the
        // modeled actuation latency.
        let confirm = warm - 1 + (cfg.debounce - 1);
        let expect_gate = confirm + 1 + cfg.actuation_latency;
        assert_eq!(reactor.first_alert_tick(), Some(warm - 1));
        assert_eq!(reactor.engaged_tick(), Some(expect_gate));

        // Before the gate: plan passes through. From the gate on: frozen at
        // the last un-gated setpoint.
        let held = carried[expect_gate - 1];
        for (t, cmds) in carried.iter().enumerate() {
            if t < expect_gate {
                assert_eq!(*cmds, plan_commands(t as f32 / (n - 1) as f32), "tick {t}");
            } else {
                assert_eq!(*cmds, held, "tick {t} should hold the pre-gate setpoint");
            }
        }
        assert_eq!(reactor.ticks_gated(), n - expect_gate);
    }

    #[test]
    fn pause_hands_control_back_after_n_ticks() {
        let (pipeline, ds) = trained();
        let pause = 5usize;
        let cfg = trigger_happy(MitigationPolicy::PauseTicks(pause));
        let mut reactor = SafetyReactor::new(Arc::clone(&pipeline), cfg);
        let n = 80;
        let carried = drive(&mut reactor, &ds, n);

        let gate = reactor.engaged_tick().expect("pause engages");
        // Gated for exactly `pause` ticks...
        let held = carried[gate - 1];
        for (t, cmds) in carried.iter().enumerate().skip(gate).take(pause) {
            assert_eq!(*cmds, held, "tick {t} inside the pause");
        }
        // ...then the plan flows again (until the still-alerting stream
        // re-engages after another debounce run-up).
        let resume = gate + pause;
        assert_eq!(carried[resume], plan_commands(resume as f32 / (n - 1) as f32));
        assert!(reactor.ticks_gated() > pause, "trigger-happy stream re-engages the pause");
    }

    #[test]
    fn reset_restores_a_cold_reactor() {
        let (pipeline, ds) = trained();
        let cfg = trigger_happy(MitigationPolicy::StopAndHold);
        let mut reactor = SafetyReactor::new(Arc::clone(&pipeline), cfg);
        let first = drive(&mut reactor, &ds, 70);
        assert!(reactor.engaged_tick().is_some());

        reactor.reset();
        assert_eq!(reactor.ticks_seen(), 0);
        assert_eq!(reactor.alerts(), 0);
        assert_eq!(reactor.first_alert_tick(), None);
        assert_eq!(reactor.engaged_tick(), None);
        assert_eq!(reactor.ticks_gated(), 0);

        // A reset reactor replays the exact same trajectory as a fresh one.
        let second = drive(&mut reactor, &ds, 70);
        assert_eq!(first, second, "post-reset run must be bit-equal to the first");
    }

    #[test]
    #[should_panic(expected = "Perfect")]
    fn perfect_mode_is_rejected_at_construction() {
        let (pipeline, _) = trained();
        let cfg = ReactorConfig { mode: ContextMode::Perfect, ..ReactorConfig::default() };
        let _ = SafetyReactor::new(pipeline, cfg);
    }

    /// Satellite regression: bad configurations are typed errors through
    /// `try_new`, so a campaign sweeping ReactorConfigs fails one sweep
    /// point instead of panicking the process — including a debounce no
    /// trial could ever confirm within the pipeline's warm-up.
    #[test]
    fn try_new_returns_typed_config_errors() {
        use crate::policy::ConfigError;
        let (pipeline, _) = trained();
        let warmup = pipeline.config.window.width.max(pipeline.config.gesture_window);

        let bad_threshold = ReactorConfig { threshold: 1.5, ..ReactorConfig::default() };
        assert_eq!(
            SafetyReactor::try_new(Arc::clone(&pipeline), bad_threshold).err(),
            Some(ConfigError::Threshold(1.5))
        );

        let zero_debounce = ReactorConfig { debounce: 0, ..ReactorConfig::default() };
        assert_eq!(
            SafetyReactor::try_new(Arc::clone(&pipeline), zero_debounce).err(),
            Some(ConfigError::ZeroDebounce)
        );

        let perfect = ReactorConfig { mode: ContextMode::Perfect, ..ReactorConfig::default() };
        assert_eq!(
            SafetyReactor::try_new(Arc::clone(&pipeline), perfect).err(),
            Some(ConfigError::PerfectContext)
        );

        let beyond = ReactorConfig { debounce: warmup + 1, ..ReactorConfig::default() };
        assert_eq!(
            SafetyReactor::try_new(Arc::clone(&pipeline), beyond).err(),
            Some(ConfigError::DebounceBeyondWarmup { debounce: warmup + 1, warmup })
        );

        let at_warmup = ReactorConfig { debounce: warmup, ..ReactorConfig::default() };
        assert!(
            SafetyReactor::try_new(Arc::clone(&pipeline), at_warmup).is_ok(),
            "debounce == warm-up is the largest confirmable streak and must pass"
        );
    }

    /// Satellite regression (`PauseTicks` hand-back audit): the alert
    /// streak accrued *during* a pause must reset at hand-back, so the
    /// first post-pause frame can never instantly re-trigger mitigation —
    /// re-engaging requires a fresh debounce run-up.
    #[test]
    fn pause_handback_resets_the_streak_before_reengaging() {
        let (pipeline, ds) = trained();
        let pause = 6usize;
        let cfg = ReactorConfig {
            threshold: 1e-6, // alerts on every warm frame: worst case for a stale streak
            debounce: 3,
            actuation_latency: 2,
            policy: MitigationPolicy::PauseTicks(pause),
            ..Default::default()
        };
        let mut reactor = SafetyReactor::new(Arc::clone(&pipeline), cfg);
        let n = 80;
        let carried = drive(&mut reactor, &ds, n);

        let gate = reactor.engaged_tick().expect("pause engages");
        let resume = gate + pause;
        // The streak kept alerting all through the pause; a stale streak
        // would re-gate at `resume` immediately. Instead the hand-back
        // must let the plan through for a full debounce run-up plus the
        // sensing + actuation delay before the re-engaged gate can land.
        let regate = resume + (cfg.debounce - 1) + 1 + cfg.actuation_latency;
        for (t, cmds) in carried.iter().enumerate().take(regate.min(n)).skip(resume) {
            assert_eq!(
                *cmds,
                plan_commands(t as f32 / (n - 1) as f32),
                "tick {t}: hand-back must not be re-gated before a fresh debounce confirms"
            );
        }
        assert!(regate < n, "trial long enough to observe the re-engage");
        assert_eq!(carried[regate], carried[regate - 1], "re-engaged gate holds again");
    }

    /// The two deployment shapes — in-process engine vs. pool-fed gate —
    /// must produce identical gating timelines over the same frames, in
    /// `Predicted` *and* `NoContext` mode. `NoContext` is the regression
    /// case: its error stage warms before its gesture stage, and an
    /// earlier revision alerted on the raw score there, diverging from the
    /// pooled shape for exactly those warm-up ticks.
    #[test]
    fn pooled_reactor_matches_in_process_reactor_bit_for_bit() {
        use crate::PooledReactor;
        use context_monitor::serve::{Decision, ServeConfig, ShardedMonitorPool};

        let (pipeline, ds) = trained();
        let demo = &ds.demos[0];
        let n = 70usize;
        for mode in [ContextMode::Predicted, ContextMode::NoContext] {
            let cfg = ReactorConfig { mode, ..trigger_happy(MitigationPolicy::StopAndHold) };
            let mut reactor = SafetyReactor::new(Arc::clone(&pipeline), cfg);
            let in_process = drive(&mut reactor, &ds, n);

            let mut pool = ShardedMonitorPool::with_sessions(
                Arc::clone(&pipeline),
                mode,
                ServeConfig { workers: 1, threshold: 0.5, precision: cfg.precision },
                1,
            );
            let mut gate = PooledReactor::new(cfg).expect("valid config");
            let mut pooled = Vec::new();
            let mut decisions: Vec<Decision> = Vec::new();
            for t in 0..n {
                let p = t as f32 / (n - 1) as f32;
                let mut cmds = plan_commands(p);
                gate.apply(t, p, &mut cmds);
                pool.submit(0, &demo.frames[t]).expect("non-Perfect mode");
                decisions.clear();
                pool.flush_into(&mut decisions);
                for d in &decisions {
                    gate.on_decision(d);
                }
                pooled.push(cmds);
            }

            assert_eq!(in_process, pooled, "{mode}: command timelines diverged");
            assert_eq!(gate.deadline_misses(), 0, "barrier drain never misses");
            let g = gate.gate();
            assert_eq!(g.first_alert_tick(), reactor.first_alert_tick(), "{mode}");
            assert_eq!(g.engaged_tick(), reactor.engaged_tick(), "{mode}");
            assert_eq!(g.ticks_gated(), reactor.ticks_gated(), "{mode}");
            assert_eq!(g.alerts(), reactor.alerts(), "{mode}");
            assert!(reactor.engaged_tick().is_some(), "{mode}: trigger-happy stream engages");
        }
    }

    #[test]
    fn guarded_runs_fault_before_reactor() {
        struct Offset;
        impl CommandFilter for Offset {
            fn apply(&mut self, _t: usize, _p: f32, c: &mut Commands) {
                c.arms[1].grasper += 1.0;
            }
        }
        let (pipeline, ds) = trained();
        let mut guarded = Guarded::new(
            Offset,
            SafetyReactor::new(pipeline, trigger_happy(MitigationPolicy::StopAndHold)),
        );
        let demo = &ds.demos[0];
        let mut frozen: Option<Commands> = None;
        for t in 0..70 {
            let mut cmds = plan_commands(t as f32 / 69.0);
            guarded.apply(t, t as f32 / 69.0, &mut cmds);
            guarded.observe(t, &demo.frames[t]);
            match guarded.reactor.engaged_tick() {
                Some(gate) if t >= gate => {
                    // Held commands are the *faulted* stream: the reactor is
                    // downstream of the injector, like the real system.
                    let f = *frozen.get_or_insert(cmds);
                    assert_eq!(cmds, f, "tick {t}");
                    assert!((f.arms[1].grasper - 1.12).abs() < 1e-6);
                }
                _ => assert!((cmds.arms[1].grasper - 1.12).abs() < 1e-6, "fault applies"),
            }
        }
        assert!(frozen.is_some(), "reactor should have engaged");
    }
}
