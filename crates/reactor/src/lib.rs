//! # `reactor` — the closed-loop safety reactor
//!
//! Everything upstream of this crate *detects*: the [`context_monitor`]
//! pipeline scores each sliding window, the serving layer fans sessions
//! across threads, and the `faults` campaigns tally how often injected
//! faults manifest as unsafe events. This crate *acts*: a
//! [`SafetyReactor`] sits in the simulated robot's command path (it
//! implements [`raven_sim::CommandFilter`]), streams every tick's kinematic
//! frame through the allocation-free
//! [`InferenceEngine`](context_monitor::InferenceEngine), and on alert
//! applies a configurable [`MitigationPolicy`] to the command stream — the
//! paper's motivating deployment ("the monitor can be deployed … at the
//! last computational stage in the robot control system", Fig. 4, following
//! the monitor-in-the-control-loop architecture of arXiv:1901.09802).
//!
//! Timing is honest by construction:
//!
//! * **Sensing delay** — the simulator delivers tick `t`'s state via
//!   [`CommandFilter::observe`](raven_sim::CommandFilter::observe) *after*
//!   the physics step, so a decision made from it can first gate the
//!   commands of tick `t + 1`.
//! * **Actuation latency** — [`ReactorConfig::actuation_latency`] models
//!   the ticks between the engage decision and commands actually gating
//!   (command queues, brake engagement). The closed-loop campaign
//!   (`faults::run_closed_loop_campaign`) reports **detection** margins
//!   (first alert → counterfactual unsafe event, the paper's reaction-time
//!   convention); both delays then genuinely elapse before commands gate,
//!   so the *prevention* outcome — did the stop land in time? — prices
//!   them in.
//!
//! The per-tick path (the [`SafetyReactor`]'s
//! [`CommandFilter::observe`](raven_sim::CommandFilter::observe) +
//! [`CommandFilter::apply`](raven_sim::CommandFilter::apply)) performs **no heap allocation** in steady
//! state — proven by the workspace counting-allocator test
//! (`tests/alloc_free_hot_path.rs`), which measures the reactor with its
//! mitigation engaged.
//!
//! ```no_run
//! use context_monitor::{ContextMode, TrainedPipeline};
//! use raven_sim::{run_block_transfer, SimConfig};
//! use reactor::{MitigationPolicy, ReactorConfig, SafetyReactor};
//! use std::sync::Arc;
//!
//! # fn pipeline() -> TrainedPipeline { unimplemented!() }
//! let pipeline = Arc::new(pipeline());
//! let cfg = ReactorConfig { policy: MitigationPolicy::StopAndHold, ..ReactorConfig::default() };
//! let mut reactor = SafetyReactor::new(pipeline, cfg);
//! let trial = run_block_transfer(&SimConfig::fast(7), &mut reactor);
//! if let Some(t) = reactor.engaged_tick() {
//!     println!("safety stop engaged at tick {t} (first alert {:?})", reactor.first_alert_tick());
//! }
//! ```

#![warn(missing_docs)]

pub mod gate;
pub mod policy;
pub mod safety;

pub use gate::{AlertGate, PooledReactor};
pub use policy::{ConfigError, MitigationPolicy, ReactorConfig};
pub use safety::{Guarded, SafetyReactor};
