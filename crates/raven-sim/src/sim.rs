//! The simulator loop: plan → (fault filter) → control → world physics →
//! logging, mirroring the paper's ROS Gazebo setup where faulty trajectory
//! packets are sent to the robot control software (§IV-B).

use crate::arm::Arm;
use crate::features::flatten;
use crate::plan::{schedule, BlockTransferPlan, Commands};
use crate::world::{GraspPhysics, World, WorldEvent};
use gestures::Task;
use kinematics::{Demonstration, ErrorAnnotation, KinematicSample, ManipulatorState, Mat3, Vec3};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Simulation rate (Hz). The paper's simulator logs at 1 kHz; the
    /// default here is 100 Hz (see DESIGN.md §10), and all timings are
    /// expressed in trajectory fractions so the rate is transparent.
    pub hz: f32,
    /// Total trial duration in seconds.
    pub duration_s: f32,
    /// RNG seed (controls tremor and per-trial physics jitter).
    pub seed: u64,
    /// Tele-operation tremor amplitude (mm) added to commanded positions.
    pub tremor: f32,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self { hz: 100.0, duration_s: 8.0, seed: 0, tremor: 0.4 }
    }
}

impl SimConfig {
    /// Fast configuration for unit tests.
    pub fn fast(seed: u64) -> Self {
        Self { hz: 50.0, duration_s: 4.0, seed, tremor: 0.4 }
    }
}

/// A command-stream hook: mutates the commanded kinematic state variables
/// before they reach the robot control loop (the paper's software fault
/// injector perturbs exactly these packets), and observes the resulting
/// robot state after each physics step.
///
/// The two methods model the two halves of a monitor-in-the-control-loop
/// deployment (Fig. 4): [`observe`](CommandFilter::observe) is the sensing
/// path (the logged kinematic frame of tick `t`, delivered **after** the
/// arms and world have stepped), and [`apply`](CommandFilter::apply) is the
/// actuation path (the next tick's commands). A safety reactor therefore
/// acts on tick `t`'s state no earlier than tick `t + 1` — one tick of
/// sensing delay is built into the loop, and any additional actuation
/// latency is modeled on top by the filter itself.
pub trait CommandFilter {
    /// Perturbs `commands` at the given tick / normalized progress.
    fn apply(&mut self, tick: usize, progress: f32, commands: &mut Commands);

    /// Observes the robot state logged at `tick` (called after the physics
    /// step, before the next tick's [`apply`](CommandFilter::apply)). The
    /// default is a no-op so pure fault injectors stay untouched.
    fn observe(&mut self, tick: usize, state: &KinematicSample) {
        let _ = (tick, state);
    }
}

/// The identity filter: a fault-free trial.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl CommandFilter for NoFaults {
    fn apply(&mut self, _tick: usize, _progress: f32, _commands: &mut Commands) {}
}

/// Failure mode of a Block Transfer trial (the two error columns of
/// Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FailureMode {
    /// The block was dropped prematurely or landed outside the receptacle.
    BlockDrop,
    /// The block was not dropped (in the receptacle, at the right time).
    DropoffFailure,
}

impl std::fmt::Display for FailureMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureMode::BlockDrop => f.write_str("block-drop"),
            FailureMode::DropoffFailure => f.write_str("dropoff failure"),
        }
    }
}

/// Outcome of one trial.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialOutcome {
    /// Whether the block landed in the receptacle within the expected
    /// landing window.
    pub success: bool,
    /// The failure mode, if any.
    pub failure: Option<FailureMode>,
    /// Tick at which the error became observable (landing tick for drops;
    /// end of the expected landing window for dropoff failures).
    pub error_tick: Option<usize>,
}

/// Full record of one simulated trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trial {
    /// JIGSAWS-schema demonstration (2 manipulators, per-tick gestures,
    /// outcome-derived safety labels).
    pub demo: Demonstration,
    /// Raw 277-feature rows, one per tick.
    pub features: Vec<Vec<f32>>,
    /// World events (grasp/release/land).
    pub events: Vec<WorldEvent>,
    /// Block centroid per tick (consumed by the `vision` crate).
    pub block_trace: Vec<Vec3>,
    /// Trial outcome.
    pub outcome: TrialOutcome,
}

/// Runs one Block Transfer trial through `filter`.
pub fn run_block_transfer(cfg: &SimConfig, filter: &mut dyn CommandFilter) -> Trial {
    let mut sim = BlockTransferSim::new(cfg);
    while !sim.done() {
        sim.step(filter);
    }
    sim.finish()
}

/// A resumable Block Transfer trial: the loop body of [`run_block_transfer`]
/// exposed one tick at a time, so a fleet driver can interleave N concurrent
/// guarded procedures in lockstep over one shared serving pool — each tick,
/// every live trial advances one physics step, its logged frame goes to the
/// pool, and the pool's decisions gate the *next* tick's commands.
///
/// Behavior is bit-identical to [`run_block_transfer`] for the same config
/// and filter: the RNG call order, physics, logging, and outcome
/// classification are literally the same code.
pub struct BlockTransferSim {
    cfg: SimConfig,
    rng: SmallRng,
    n: usize,
    dt: f32,
    plan: BlockTransferPlan,
    arms: [Arm; 2],
    world: World,
    features: Vec<Vec<f32>>,
    frames: Vec<KinematicSample>,
    gestures: Vec<gestures::Gesture>,
    block_trace: Vec<Vec3>,
    tick: usize,
}

impl BlockTransferSim {
    /// Prepares a trial (seeding the RNG and jittering the grasp physics
    /// exactly like [`run_block_transfer`]).
    ///
    /// # Panics
    ///
    /// Panics if `hz * duration_s` yields fewer than 10 ticks.
    pub fn new(cfg: &SimConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let n = (cfg.hz * cfg.duration_s).round() as usize;
        assert!(n >= 10, "trial too short: {n} ticks");
        let world = World::new(GraspPhysics::jittered(&mut rng));
        Self {
            cfg: *cfg,
            rng,
            n,
            dt: 1.0 / cfg.hz,
            plan: BlockTransferPlan,
            arms: [Arm::new(Vec3::new(-40.0, 0.0, 25.0)), Arm::new(Vec3::new(40.0, 0.0, 25.0))],
            world,
            features: Vec::with_capacity(n),
            frames: Vec::with_capacity(n),
            gestures: Vec::with_capacity(n),
            block_trace: Vec::with_capacity(n),
            tick: 0,
        }
    }

    /// Total ticks this trial will run.
    pub fn ticks(&self) -> usize {
        self.n
    }

    /// The next tick [`BlockTransferSim::step`] will execute.
    pub fn tick(&self) -> usize {
        self.tick
    }

    /// Whether every tick has been executed.
    pub fn done(&self) -> bool {
        self.tick >= self.n
    }

    /// Executes one tick: plan → tremor → `filter.apply` → arm/world physics
    /// → logging → `filter.observe`, returning the kinematic frame logged at
    /// this tick (the frame a serving pool scores for the *next* tick's
    /// gating decision).
    ///
    /// # Panics
    ///
    /// Panics if called after [`BlockTransferSim::done`].
    pub fn step(&mut self, filter: &mut dyn CommandFilter) -> &KinematicSample {
        assert!(!self.done(), "trial already ran its {} ticks", self.n);
        let tick = self.tick;
        let progress = tick as f32 / (self.n - 1) as f32;
        let mut cmds = self.plan.commands(progress);
        // Tele-operation tremor on commanded positions.
        for arm in &mut cmds.arms {
            arm.position = arm.position
                + Vec3::new(
                    tremor(&mut self.rng, self.cfg.tremor),
                    tremor(&mut self.rng, self.cfg.tremor),
                    tremor(&mut self.rng, self.cfg.tremor * 0.5),
                );
        }
        filter.apply(tick, progress, &mut cmds);

        for (i, arm) in self.arms.iter_mut().enumerate() {
            arm.step(cmds.arms[i], self.dt);
        }
        self.world.step(
            tick,
            self.dt,
            &[
                (self.arms[0].position, self.arms[0].grasper),
                (self.arms[1].position, self.arms[1].grasper),
            ],
        );

        self.features.push(flatten(tick, self.dt, progress, &self.arms));
        // lint: allow(alloc, reason = "sim trace buffers; harness code, not the surgical hot loop -- reactor edge is a .step() name collision")
        let sample = KinematicSample::new(vec![to_state(&self.arms[0]), to_state(&self.arms[1])]);
        filter.observe(tick, &sample);
        self.frames.push(sample);
        self.gestures.push(self.plan.gesture(progress));
        self.block_trace.push(self.world.block_position);
        self.tick += 1;
        // lint: allow(panic, reason = "a frame is pushed four lines up; last() cannot be empty")
        self.frames.last().expect("frame just pushed")
    }

    /// Classifies the outcome and packages the completed trial.
    ///
    /// # Panics
    ///
    /// Panics if the trial has remaining ticks.
    pub fn finish(self) -> Trial {
        assert!(self.done(), "trial has {} ticks left", self.n - self.tick);
        let outcome = classify_outcome(self.world.events(), self.n);
        let demo = build_demo(&self.cfg, self.frames, self.gestures, &outcome);
        Trial {
            demo,
            features: self.features,
            events: self.world.events().to_vec(),
            block_trace: self.block_trace,
            outcome,
        }
    }
}

fn tremor(rng: &mut SmallRng, amp: f32) -> f32 {
    let u1: f32 = rng.gen_range(1e-7..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    amp * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

fn to_state(arm: &Arm) -> ManipulatorState {
    ManipulatorState {
        position: arm.position,
        rotation: Mat3::from_euler(arm.euler.0, arm.euler.1, arm.euler.2),
        grasper_angle: arm.grasper,
        linear_velocity: arm.linear_velocity,
        angular_velocity: arm.angular_velocity,
    }
}

/// Classifies the trial from world events (§IV-B failure semantics):
///
/// * landing before the expected window → premature **block-drop**,
/// * landing inside the window but outside the receptacle → **block-drop**
///   at the wrong position,
/// * landing inside the window and receptacle → success,
/// * landing after the window, or never → **dropoff failure** ("the block
///   should have been dropped, but it was not").
pub fn classify_outcome(events: &[WorldEvent], n_ticks: usize) -> TrialOutcome {
    let window = (
        (schedule::LANDING_WINDOW.0 * n_ticks as f32) as usize,
        (schedule::LANDING_WINDOW.1 * n_ticks as f32) as usize,
    );
    let landing = events.iter().find_map(|e| match *e {
        WorldEvent::Landed { tick, in_receptacle, .. } => Some((tick, in_receptacle)),
        _ => None,
    });
    match landing {
        Some((tick, in_receptacle)) => {
            if tick < window.0 {
                TrialOutcome {
                    success: false,
                    failure: Some(FailureMode::BlockDrop),
                    error_tick: Some(tick),
                }
            } else if tick <= window.1 && in_receptacle {
                TrialOutcome { success: true, failure: None, error_tick: None }
            } else if tick <= window.1 {
                TrialOutcome {
                    success: false,
                    failure: Some(FailureMode::BlockDrop),
                    error_tick: Some(tick),
                }
            } else {
                TrialOutcome {
                    success: false,
                    failure: Some(FailureMode::DropoffFailure),
                    error_tick: Some(window.1),
                }
            }
        }
        None => TrialOutcome {
            success: false,
            failure: Some(FailureMode::DropoffFailure),
            error_tick: Some(window.1.min(n_ticks - 1)),
        },
    }
}

fn build_demo(
    cfg: &SimConfig,
    frames: Vec<KinematicSample>,
    gestures: Vec<gestures::Gesture>,
    outcome: &TrialOutcome,
) -> Demonstration {
    let mut unsafe_labels = vec![false; frames.len()];
    let mut errors = Vec::new();
    if let (Some(_mode), Some(tick)) = (outcome.failure, outcome.error_tick) {
        // The erroneous gesture is the one active when the error manifested;
        // its whole segment is labeled unsafe (the paper labels whole
        // gestures).
        let g = gestures[tick.min(gestures.len() - 1)];
        let mut start = tick;
        while start > 0 && gestures[start - 1] == g {
            start -= 1;
        }
        let mut end = tick + 1;
        while end < gestures.len() && gestures[end] == g {
            end += 1;
        }
        for l in &mut unsafe_labels[start..end] {
            *l = true;
        }
        errors.push(ErrorAnnotation {
            gesture: g,
            span_start: start,
            span_end: end,
            actual_frame: tick,
        });
    }
    Demonstration {
        id: format!("BlockTransfer_SIM{:08x}", cfg.seed),
        task: Task::BlockTransfer,
        subject: "SIM".into(),
        supertrial: (cfg.seed % 5 + 1) as usize,
        hz: cfg.hz,
        frames,
        gestures,
        unsafe_labels,
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::RAVEN_FEATURES;
    use crate::plan::GRASPER_OPEN_CMD;

    #[test]
    fn fault_free_trial_succeeds() {
        for seed in 0..8 {
            let trial = run_block_transfer(&SimConfig::fast(seed), &mut NoFaults);
            assert!(
                trial.outcome.success,
                "seed {seed}: fault-free trial failed: {:?} events {:?}",
                trial.outcome, trial.events
            );
        }
    }

    #[test]
    fn trial_logs_full_feature_rows() {
        let trial = run_block_transfer(&SimConfig::fast(1), &mut NoFaults);
        assert!(!trial.features.is_empty());
        assert!(trial.features.iter().all(|r| r.len() == RAVEN_FEATURES));
        assert_eq!(trial.features.len(), trial.demo.len());
        assert_eq!(trial.block_trace.len(), trial.demo.len());
    }

    #[test]
    fn demo_follows_fig3b_gestures_and_validates() {
        let trial = run_block_transfer(&SimConfig::fast(2), &mut NoFaults);
        trial.demo.validate().expect("valid demo");
        use gestures::Gesture::*;
        assert_eq!(trial.demo.gesture_sequence(), vec![G2, G12, G6, G5, G11]);
    }

    #[test]
    fn fault_free_events_are_grasp_release_land() {
        let trial = run_block_transfer(&SimConfig::fast(3), &mut NoFaults);
        let kinds: Vec<&str> = trial
            .events
            .iter()
            .map(|e| match e {
                WorldEvent::Grasped { .. } => "grasp",
                WorldEvent::Released { .. } => "release",
                WorldEvent::Landed { .. } => "land",
            })
            .collect();
        assert_eq!(kinds, vec!["grasp", "release", "land"]);
    }

    /// A filter that forces the grasper open mid-carry: must cause a
    /// premature block-drop.
    struct ForceOpen;
    impl CommandFilter for ForceOpen {
        fn apply(&mut self, _t: usize, p: f32, c: &mut Commands) {
            if (0.4..0.6).contains(&p) {
                c.arms[1].grasper = GRASPER_OPEN_CMD;
            }
        }
    }

    #[test]
    fn forced_open_grasper_causes_block_drop() {
        let trial = run_block_transfer(&SimConfig::fast(4), &mut ForceOpen);
        assert_eq!(trial.outcome.failure, Some(FailureMode::BlockDrop));
        assert!(!trial.outcome.success);
        let err = trial.outcome.error_tick.unwrap();
        assert!((err as f32) < 0.7 * trial.demo.len() as f32);
        // Demo carries the unsafe annotation.
        assert_eq!(trial.demo.errors.len(), 1);
        assert!(trial.demo.unsafe_frames() > 0);
    }

    /// A filter that pins the grasper closed through the release: dropoff
    /// failure.
    struct PinClosed;
    impl CommandFilter for PinClosed {
        fn apply(&mut self, _t: usize, p: f32, c: &mut Commands) {
            if p >= 0.65 {
                c.arms[1].grasper = 0.4;
            }
        }
    }

    #[test]
    fn pinned_grasper_causes_dropoff_failure() {
        let trial = run_block_transfer(&SimConfig::fast(5), &mut PinClosed);
        assert_eq!(trial.outcome.failure, Some(FailureMode::DropoffFailure));
        assert_eq!(trial.demo.errors[0].gesture, gestures::Gesture::G11);
    }

    #[test]
    fn trials_are_deterministic_per_seed() {
        let a = run_block_transfer(&SimConfig::fast(6), &mut NoFaults);
        let b = run_block_transfer(&SimConfig::fast(6), &mut NoFaults);
        assert_eq!(a, b);
    }

    #[test]
    fn stepped_sim_is_bit_identical_to_the_closed_form_run() {
        // The fleet driver interleaves trials tick-by-tick; that must not
        // change a single bit of any trial. Checked fault-free and with a
        // command-mutating filter.
        let cfg = SimConfig::fast(7);
        let whole = run_block_transfer(&cfg, &mut NoFaults);
        let mut sim = BlockTransferSim::new(&cfg);
        assert_eq!(sim.ticks(), whole.demo.len());
        let mut frames_seen = 0usize;
        while !sim.done() {
            let t = sim.tick();
            let frame = sim.step(&mut NoFaults);
            assert_eq!(frame, &whole.demo.frames[t], "frame {t} diverged");
            frames_seen += 1;
        }
        assert_eq!(frames_seen, whole.demo.len());
        assert_eq!(sim.finish(), whole);

        let faulted = run_block_transfer(&SimConfig::fast(4), &mut ForceOpen);
        let mut sim = BlockTransferSim::new(&SimConfig::fast(4));
        let mut filter = ForceOpen;
        while !sim.done() {
            sim.step(&mut filter);
        }
        assert_eq!(sim.finish(), faulted);
    }
}
