//! # `faults` — software fault injection for the Raven II simulator
//!
//! Implements §IV-B's fault-injection methodology:
//!
//! * [`spec::FaultSpec`] — faults on the commanded kinematic state
//!   variables (Grasper Angle ramps, Cartesian deviations of `δ/√3` per
//!   axis) over trajectory-fraction intervals,
//! * [`campaign`] — the Table III grid (651 injections across 28 cells)
//!   run in parallel via `context_monitor::serve::parallel_map` (the same
//!   audited fork-join path the serving layer uses), plus the **closed-loop
//!   twin-run campaign** ([`run_closed_loop_campaign`]): every injection
//!   executed unmonitored and behind a `reactor::SafetyReactor` with the
//!   same seeds, yielding prevention rate, false-stop rate, and
//!   reaction-time margins,
//! * [`fleet`] — the fleet-scale closed loop: N concurrent guarded
//!   procedures in lockstep over **one** shared `ShardedMonitorPool`, run
//!   by one loop that opens a session per trial, drains the pool each tick
//!   and removes the session when the trial ends. The campaign
//!   ([`run_fleet_campaign`]) drains with a barrier and reports
//!   bit-identically across pool worker counts; the drill
//!   ([`run_forced_miss_drill`]) drains within a per-tick 2 ms budget and
//!   audits the fail-safe holds on misses,
//! * [`dataset`] — the 115-demonstration Block Transfer training set with
//!   gesture-level error labels derived from injection + manifestation
//!   times.

#![warn(missing_docs)]

pub mod campaign;
pub mod dataset;
pub mod fleet;
pub mod spec;
#[cfg(test)]
pub(crate) mod testutil;

pub use campaign::{
    run_campaign, run_closed_loop_campaign, run_injection, sample_spec, table3_grid,
    CampaignConfig, CampaignReport, CellResult, ClosedLoopCell, ClosedLoopConfig, ClosedLoopReport,
    GridCell, TwinOutcome,
};
pub use dataset::{build_block_transfer_dataset, relabel_with_injection, BlockTransferDataConfig};
pub use fleet::{run_fleet_campaign, run_forced_miss_drill, FleetConfig, FleetStats};
pub use spec::{CartesianFault, FaultInjector, FaultSpec, GrasperFault, TARGET_ARM};
