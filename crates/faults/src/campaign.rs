//! The Table III fault-injection campaign — open loop and closed loop.
//!
//! Reproduces the paper's grid of 651 injections over the Block Transfer
//! task: 7 grasper-angle buckets × 2 injection-interval variants × 2
//! Cartesian-deviation buckets, with the paper's per-cell injection counts.
//!
//! [`run_closed_loop_campaign`] runs every grid cell **twice** with the
//! same seeds and fault specs — an unmonitored twin and a twin guarded by a
//! [`reactor::SafetyReactor`] — and reports per-cell prevention rate,
//! false-stop rate, and the distribution of reaction-time margin (ticks
//! between the first alert and the counterfactual unsafe event of the
//! unmonitored twin). This is the measurement the paper's headline claim
//! rests on: detection early enough to *act*.

use crate::spec::{CartesianFault, FaultInjector, FaultSpec, GrasperFault};
use context_monitor::serve::parallel_map;
use context_monitor::{ClosedLoopSummary, TrainedPipeline};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use raven_sim::{run_block_transfer, FailureMode, SimConfig, Trial};
use reactor::{Guarded, ReactorConfig, SafetyReactor};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One cell of the Table III grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridCell {
    /// Grasper-angle target range (rad).
    pub grasper: (f32, f32),
    /// Grasper injection interval (trajectory fractions).
    pub grasper_interval: (f32, f32),
    /// Cartesian deviation range (paper units).
    pub cartesian: (f32, f32),
    /// Cartesian injection interval (trajectory fractions).
    pub cartesian_interval: (f32, f32),
    /// Number of injections in this cell (paper's counts).
    pub injections: usize,
}

/// The paper's full 651-injection grid.
pub fn table3_grid() -> Vec<GridCell> {
    // (grasper bucket, [counts for variant A cart-low, A cart-high,
    //                   B cart-low, B cart-high])
    let rows: [((f32, f32), [usize; 4]); 7] = [
        ((0.30, 0.40), [16, 8, 16, 16]),
        ((0.50, 0.60), [16, 8, 16, 16]),
        ((0.70, 0.80), [16, 8, 16, 16]),
        ((0.90, 1.00), [58, 50, 16, 16]),
        ((1.10, 1.20), [47, 74, 16, 16]),
        ((1.30, 1.40), [41, 61, 16, 16]),
        ((1.50, 1.60), [7, 17, 16, 16]),
    ];
    // Variant A: grasper during [0.55, 0.70], Cartesian during [0.50, 0.60].
    // Variant B: grasper during [0.65, 0.90], Cartesian during [0.70, 0.90].
    let variants = [((0.55, 0.70), (0.50, 0.60)), ((0.65, 0.90), (0.70, 0.90))];
    let cart_buckets = [(3000.0, 6000.0), (6000.0, 65000.0)];

    let mut grid = Vec::new();
    for (grasper, counts) in rows {
        for (v, &(grasper_interval, cartesian_interval)) in variants.iter().enumerate() {
            for (c, &cartesian) in cart_buckets.iter().enumerate() {
                grid.push(GridCell {
                    grasper,
                    grasper_interval,
                    cartesian,
                    cartesian_interval,
                    injections: counts[v * 2 + c],
                });
            }
        }
    }
    grid
}

/// Campaign configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Base simulator configuration (each trial gets a derived seed).
    pub sim: SimConfig,
    /// Campaign master seed.
    pub seed: u64,
    /// Scales every cell's injection count (1.0 = the paper's 651 trials;
    /// use e.g. 0.1 for quick runs). At least one injection per cell.
    pub scale: f32,
    /// Worker threads.
    pub threads: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self { sim: SimConfig::default(), seed: 0xFA01, scale: 1.0, threads: 4 }
    }
}

/// Outcome tallies for one grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// The cell.
    pub cell: GridCell,
    /// Injections actually run.
    pub injections: usize,
    /// Trials ending in a block-drop.
    pub block_drops: usize,
    /// Trials ending in a dropoff failure.
    pub dropoffs: usize,
}

impl CellResult {
    /// Trials with any error.
    pub fn errors(&self) -> usize {
        self.block_drops + self.dropoffs
    }
}

/// Full campaign result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Per-cell tallies, in [`table3_grid`] order.
    pub cells: Vec<CellResult>,
}

impl CampaignReport {
    /// Total injections.
    pub fn total_injections(&self) -> usize {
        self.cells.iter().map(|c| c.injections).sum()
    }

    /// Total block-drops.
    pub fn total_block_drops(&self) -> usize {
        self.cells.iter().map(|c| c.block_drops).sum()
    }

    /// Total dropoff failures.
    pub fn total_dropoffs(&self) -> usize {
        self.cells.iter().map(|c| c.dropoffs).sum()
    }

    /// Renders the Table III layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "Grasper(rad)  GrasperDur  Cartesian(units)  CartDur     #Inj  Block-drop      Dropoff\n",
        );
        for c in &self.cells {
            let cell = c.cell;
            out.push_str(&format!(
                "{:.2}-{:.2}     {:.2}-{:.2}   {:>6.0}-{:<6.0}    {:.2}-{:.2}   {:>4}  {:>4} ({:>5.1}%)  {:>4} ({:>5.1}%)\n",
                cell.grasper.0,
                cell.grasper.1,
                cell.grasper_interval.0,
                cell.grasper_interval.1,
                cell.cartesian.0,
                cell.cartesian.1,
                cell.cartesian_interval.0,
                cell.cartesian_interval.1,
                c.injections,
                c.block_drops,
                100.0 * c.block_drops as f32 / c.injections.max(1) as f32,
                c.dropoffs,
                100.0 * c.dropoffs as f32 / c.injections.max(1) as f32,
            ));
        }
        out.push_str(&format!(
            "Total: {} injections, {} block-drops, {} dropoff failures\n",
            self.total_injections(),
            self.total_block_drops(),
            self.total_dropoffs()
        ));
        out
    }
}

/// Samples a concrete [`FaultSpec`] from a grid cell.
pub fn sample_spec(cell: &GridCell, rng: &mut impl Rng) -> FaultSpec {
    let jitter = |rng: &mut dyn rand::RngCore, (lo, hi): (f32, f32)| rng.gen_range(lo..hi);
    FaultSpec {
        grasper: Some(GrasperFault {
            target: jitter(rng, cell.grasper),
            interval: cell.grasper_interval,
        }),
        cartesian: Some(CartesianFault {
            deviation: jitter(rng, cell.cartesian),
            interval: cell.cartesian_interval,
        }),
    }
}

/// Runs one fault-injection trial and returns it with its spec.
pub fn run_injection(sim: &SimConfig, spec: FaultSpec) -> (Trial, FaultInjector) {
    let mut injector = FaultInjector::new(spec);
    let trial = run_block_transfer(sim, &mut injector);
    (trial, injector)
}

/// Flattens the grid into `(cell_index, trial_seed)` work items. Both the
/// open-loop and the closed-loop campaign derive their seeds here, so for a
/// given `(seed, scale)` the closed-loop campaign's unmonitored twins are
/// trial-for-trial the open-loop campaign's trials.
pub(crate) fn grid_work(grid: &[GridCell], cfg: &CampaignConfig) -> Vec<(usize, u64)> {
    let mut work = Vec::new();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    for (ci, cell) in grid.iter().enumerate() {
        let n = ((cell.injections as f32 * cfg.scale).round() as usize).max(1);
        for _ in 0..n {
            work.push((ci, rng.gen::<u64>()));
        }
    }
    work
}

/// The fault and the simulator configuration of work item `(ci, seed)`.
/// Every campaign derives its trials here, so an open-loop trial, its
/// unmonitored twin and its monitored twin (in-process or pooled) are one
/// trial.
pub(crate) fn derive_trial(
    grid: &[GridCell],
    ci: usize,
    seed: u64,
    sim: SimConfig,
) -> (FaultSpec, SimConfig) {
    let spec = sample_spec(&grid[ci], &mut SmallRng::seed_from_u64(seed));
    (spec, SimConfig { seed, ..sim })
}

/// Runs the campaign over the Table III grid.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let grid = table3_grid();
    let work = grid_work(&grid, cfg);

    // The campaign rides the same audited fork-join primitive as the
    // serving layer; `parallel_map`'s balanced chunking replaced a
    // hand-rolled `div_ceil` split that could leave the last worker with a
    // fraction of everyone else's load. Results come back in work order, so
    // the report is deterministic regardless of thread count.
    let sim = cfg.sim;
    let outcomes: Vec<(usize, Option<FailureMode>)> =
        parallel_map(&work, cfg.threads.max(1), |&(ci, seed)| {
            let (spec, sim_cfg) = derive_trial(&grid, ci, seed, sim);
            let (trial, _) = run_injection(&sim_cfg, spec);
            (ci, trial.outcome.failure)
        });

    let mut cells: Vec<CellResult> = grid
        .iter()
        .map(|&cell| CellResult { cell, injections: 0, block_drops: 0, dropoffs: 0 })
        .collect();
    for (ci, failure) in outcomes {
        cells[ci].injections += 1;
        match failure {
            Some(FailureMode::BlockDrop) => cells[ci].block_drops += 1,
            Some(FailureMode::DropoffFailure) => cells[ci].dropoffs += 1,
            None => {}
        }
    }
    CampaignReport { cells }
}

/// Closed-loop campaign configuration: the same grid, seed derivation, and
/// scaling as [`CampaignConfig`], plus the reactor guarding the monitored
/// twin of every injection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClosedLoopConfig {
    /// Grid/seed/scale/threads of the underlying campaign.
    pub campaign: CampaignConfig,
    /// Reactor configuration (threshold, debounce, actuation latency,
    /// mitigation policy) for the monitored twin.
    pub reactor: ReactorConfig,
}

/// Outcome of one twin-run injection: the same seed and fault spec, run
/// once unmonitored and once behind the reactor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TwinOutcome {
    /// Index into [`table3_grid`].
    pub cell: usize,
    /// Failure of the unmonitored twin.
    pub baseline_failure: Option<FailureMode>,
    /// Tick at which the unmonitored twin's error became observable — the
    /// counterfactual unsafe event the margin is measured against.
    pub baseline_error_tick: Option<usize>,
    /// Failure of the monitored twin (`None` = the task completed).
    pub monitored_failure: Option<FailureMode>,
    /// First alert tick of the monitored twin's reactor.
    pub first_alert_tick: Option<usize>,
    /// Tick at which mitigation was scheduled to gate, if it engaged.
    pub engaged_tick: Option<usize>,
    /// Ticks whose commands the reactor actually gated (0 when mitigation
    /// was scheduled too late to act before the trial ended).
    pub ticks_gated: usize,
}

impl TwinOutcome {
    /// Whether the baseline suffered the preventable unsafe event (a block
    /// drop; a dropoff failure is a liveness failure a safety stop cannot
    /// avert — stopping *is* not dropping off).
    pub fn baseline_unsafe(&self) -> bool {
        self.baseline_failure == Some(FailureMode::BlockDrop)
    }

    /// Whether the reactor prevented the baseline's unsafe event: the
    /// unmonitored twin dropped the block, the monitored twin did not.
    pub fn prevented(&self) -> bool {
        self.baseline_unsafe() && self.monitored_failure != Some(FailureMode::BlockDrop)
    }

    /// Whether mitigation actually interrupted a trial that would have
    /// succeeded unmonitored (an unnecessary intervention). Requires
    /// gated ticks, not just a scheduled engagement: a gate scheduled past
    /// the end of the trial never touched a command and interrupted
    /// nothing.
    pub fn false_stop(&self) -> bool {
        self.baseline_failure.is_none() && self.ticks_gated > 0
    }

    /// Reaction-time margin in ticks: counterfactual unsafe-event tick
    /// minus first-alert tick (positive = the alert came early enough to
    /// matter). Measured only against **observable unsafe events** —
    /// baseline block drops, the same population prevention is scored on.
    /// A dropoff failure's `error_tick` is the synthetic end of the
    /// expected landing window, not an observable event, and would
    /// systematically inflate the margins; it is excluded. `None` when the
    /// baseline did not drop the block or no alert fired.
    ///
    /// The margin is detection-time margin (the paper's reaction-time
    /// convention): it is measured from the **first alert**, before
    /// debounce confirmation and actuation. Mitigation gates commands
    /// `(debounce - 1) + 1 + actuation_latency` ticks after that alert, so
    /// the actionable margin is smaller by exactly that much.
    pub fn margin_ticks(&self) -> Option<i64> {
        if !self.baseline_unsafe() {
            return None;
        }
        match (self.baseline_error_tick, self.first_alert_tick) {
            (Some(err), Some(alert)) => Some(err as i64 - alert as i64),
            _ => None,
        }
    }
}

/// Per-cell tallies of the closed-loop campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClosedLoopCell {
    /// The grid cell.
    pub cell: GridCell,
    /// Twin-run injections in this cell.
    pub injections: usize,
    /// Unmonitored-twin successes.
    pub baseline_successes: usize,
    /// Unmonitored-twin block drops.
    pub baseline_block_drops: usize,
    /// Unmonitored-twin dropoff failures.
    pub baseline_dropoffs: usize,
    /// Monitored-twin successes.
    pub monitored_successes: usize,
    /// Monitored-twin block drops (drops the reactor failed to prevent).
    pub monitored_block_drops: usize,
    /// Monitored-twin dropoff failures (includes intentional safety
    /// stops, which leave the block held — see [`TwinOutcome::prevented`]).
    pub monitored_dropoffs: usize,
    /// Baseline block drops the monitored twin avoided.
    pub prevented: usize,
    /// Mitigations engaged on would-have-succeeded trials.
    pub false_stops: usize,
    /// Monitored twins that raised at least one alert.
    pub alerted: usize,
    /// Reaction-time margins (ticks), in work order.
    pub margin_ticks: Vec<i64>,
}

/// Full closed-loop campaign result. Bit-identical across runs for a given
/// config (the twins share seeds; `parallel_map` returns in work order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClosedLoopReport {
    /// Per-cell tallies, in [`table3_grid`] order.
    pub cells: Vec<ClosedLoopCell>,
    /// Simulation rate, for margin-to-ms conversion.
    pub hz: f32,
    /// The reactor configuration the monitored twins ran.
    pub reactor: ReactorConfig,
}

impl ClosedLoopReport {
    /// Total twin-run injections.
    pub fn total_injections(&self) -> usize {
        self.cells.iter().map(|c| c.injections).sum()
    }

    /// Total baseline block drops (preventable unsafe events).
    pub fn total_baseline_unsafe(&self) -> usize {
        self.cells.iter().map(|c| c.baseline_block_drops).sum()
    }

    /// Total prevented unsafe events.
    pub fn total_prevented(&self) -> usize {
        self.cells.iter().map(|c| c.prevented).sum()
    }

    /// All margins in ticks, cell-major in work order.
    pub fn margins_ticks(&self) -> Vec<i64> {
        self.cells.iter().flat_map(|c| c.margin_ticks.iter().copied()).collect()
    }

    /// The headline numbers, with margins converted to milliseconds.
    pub fn summary(&self) -> ClosedLoopSummary {
        let ms_per_tick = 1000.0 / self.hz;
        ClosedLoopSummary {
            injections: self.total_injections(),
            baseline_unsafe: self.total_baseline_unsafe(),
            prevented: self.total_prevented(),
            baseline_successes: self.cells.iter().map(|c| c.baseline_successes).sum(),
            false_stops: self.cells.iter().map(|c| c.false_stops).sum(),
            alerted: self.cells.iter().map(|c| c.alerted).sum(),
            margins_ms: self.margins_ticks().iter().map(|&t| t as f32 * ms_per_tick).collect(),
        }
    }

    /// Renders the reaction-time table: one row per grid cell, then the
    /// campaign-level summary block.
    pub fn render(&self) -> String {
        let ms_per_tick = 1000.0 / self.hz;
        let mut out = String::new();
        out.push_str(
            "Grasper(rad)  GrasperDur  #Inj  Unmonitored(BD/DO)  Monitored(BD/DO)  \
             Prevented  FalseStop  Margin(ms)\n",
        );
        for c in &self.cells {
            let cell = c.cell;
            let margin = if c.margin_ticks.is_empty() {
                "      -".to_string()
            } else {
                let mean = c.margin_ticks.iter().sum::<i64>() as f32 / c.margin_ticks.len() as f32
                    * ms_per_tick;
                format!("{mean:>+7.0}")
            };
            out.push_str(&format!(
                "{:.2}-{:.2}     {:.2}-{:.2}   {:>4}  {:>8}/{:<8}   {:>7}/{:<7}   \
                 {:>5}/{:<3}  {:>5}/{:<3}  {margin}\n",
                cell.grasper.0,
                cell.grasper.1,
                cell.grasper_interval.0,
                cell.grasper_interval.1,
                c.injections,
                c.baseline_block_drops,
                c.baseline_dropoffs,
                c.monitored_block_drops,
                c.monitored_dropoffs,
                c.prevented,
                c.baseline_block_drops,
                c.false_stops,
                c.baseline_successes,
            ));
        }
        out.push_str(&self.summary().render());
        out
    }
}

/// Tallies per-trial twin outcomes into the per-cell report — shared by the
/// single-robot campaign below and the fleet campaign
/// ([`crate::run_fleet_campaign`]), so both produce the **same**
/// `ClosedLoopReport` for the same outcomes, bit for bit.
pub(crate) fn tally_closed_loop(
    grid: &[GridCell],
    outcomes: Vec<TwinOutcome>,
    hz: f32,
    reactor_cfg: ReactorConfig,
) -> ClosedLoopReport {
    let mut cells: Vec<ClosedLoopCell> = grid
        .iter()
        .map(|&cell| ClosedLoopCell {
            cell,
            injections: 0,
            baseline_successes: 0,
            baseline_block_drops: 0,
            baseline_dropoffs: 0,
            monitored_successes: 0,
            monitored_block_drops: 0,
            monitored_dropoffs: 0,
            prevented: 0,
            false_stops: 0,
            alerted: 0,
            margin_ticks: Vec::new(),
        })
        .collect();
    for t in outcomes {
        let c = &mut cells[t.cell];
        c.injections += 1;
        match t.baseline_failure {
            None => c.baseline_successes += 1,
            Some(FailureMode::BlockDrop) => c.baseline_block_drops += 1,
            Some(FailureMode::DropoffFailure) => c.baseline_dropoffs += 1,
        }
        match t.monitored_failure {
            None => c.monitored_successes += 1,
            Some(FailureMode::BlockDrop) => c.monitored_block_drops += 1,
            Some(FailureMode::DropoffFailure) => c.monitored_dropoffs += 1,
        }
        c.prevented += t.prevented() as usize;
        c.false_stops += t.false_stop() as usize;
        c.alerted += t.first_alert_tick.is_some() as usize;
        if let Some(m) = t.margin_ticks() {
            c.margin_ticks.push(m);
        }
    }
    ClosedLoopReport { cells, hz, reactor: reactor_cfg }
}

/// Runs the closed-loop (twin-run) campaign: every grid cell's injections
/// executed twice with identical seeds and fault specs — once unmonitored,
/// once with a fresh [`SafetyReactor`] (sharing `pipeline`) downstream of
/// the fault injector. Deterministic for a given config: same seeds →
/// bit-identical report, regardless of thread count.
///
/// # Errors
///
/// [`reactor::ConfigError`] when the reactor configuration is invalid for
/// `pipeline` — validated **once up front**, so a bad sweep point fails
/// this one campaign call with a typed error instead of panicking a worker
/// thread (and with it the whole process) mid-campaign.
pub fn run_closed_loop_campaign(
    cfg: &ClosedLoopConfig,
    pipeline: &Arc<TrainedPipeline>,
) -> Result<ClosedLoopReport, reactor::ConfigError> {
    cfg.reactor.validate_for(pipeline)?;
    let grid = table3_grid();
    let work = grid_work(&grid, &cfg.campaign);
    let sim = cfg.campaign.sim;
    let reactor_cfg = cfg.reactor;

    let outcomes: Vec<TwinOutcome> =
        parallel_map(&work, cfg.campaign.threads.max(1), |&(ci, seed)| {
            let (spec, sim_cfg) = derive_trial(&grid, ci, seed, sim);

            // Unmonitored twin: the counterfactual.
            let (baseline, _) = run_injection(&sim_cfg, spec);

            // Monitored twin: same seed and spec, reactor at the last
            // computational stage (downstream of the injector). The config
            // was validated above, so construction cannot panic here.
            let mut guarded = Guarded::new(
                FaultInjector::new(spec),
                SafetyReactor::new(Arc::clone(pipeline), reactor_cfg),
            );
            let monitored = run_block_transfer(&sim_cfg, &mut guarded);

            TwinOutcome {
                cell: ci,
                baseline_failure: baseline.outcome.failure,
                baseline_error_tick: baseline.outcome.error_tick,
                monitored_failure: monitored.outcome.failure,
                first_alert_tick: guarded.reactor.first_alert_tick(),
                engaged_tick: guarded.reactor.engaged_tick(),
                ticks_gated: guarded.reactor.ticks_gated(),
            }
        });

    Ok(tally_closed_loop(&grid, outcomes, sim.hz, reactor_cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_matches_the_paper_total() {
        let grid = table3_grid();
        assert_eq!(grid.len(), 28);
        let total: usize = grid.iter().map(|c| c.injections).sum();
        assert_eq!(total, 651, "Table III totals 651 injections");
    }

    fn quick_campaign(scale: f32) -> CampaignReport {
        run_campaign(&CampaignConfig {
            sim: SimConfig { hz: 50.0, duration_s: 4.0, seed: 0, tremor: 0.3 },
            seed: 42,
            scale,
            threads: 4,
        })
    }

    #[test]
    fn campaign_reproduces_table3_structure() {
        let report = quick_campaign(0.25);
        // Partition cells by the paper's qualitative regimes.
        let mut low_short_errors = 0usize;
        let mut low_short_n = 0usize;
        let mut low_long_dropoffs = 0usize;
        let mut low_long_n = 0usize;
        let mut high_drops = 0usize;
        let mut high_n = 0usize;
        for c in &report.cells {
            let low_angle = c.cell.grasper.1 <= 0.85;
            let long = c.cell.grasper_interval.1 > 0.8;
            if low_angle && !long {
                low_short_errors += c.errors();
                low_short_n += c.injections;
            } else if low_angle && long {
                low_long_dropoffs += c.dropoffs;
                low_long_n += c.injections;
            } else if c.cell.grasper.0 >= 1.1 {
                high_drops += c.block_drops;
                high_n += c.injections;
            }
        }
        // Low angle, short interval: almost no failures (paper: 0-12.5%).
        assert!(
            (low_short_errors as f32) < 0.25 * low_short_n as f32,
            "low/short errors {low_short_errors}/{low_short_n}"
        );
        // Low angle, long interval: dropoff failures dominate (paper: ~100%).
        assert!(
            (low_long_dropoffs as f32) > 0.7 * low_long_n as f32,
            "low/long dropoffs {low_long_dropoffs}/{low_long_n}"
        );
        // High angle: block drops dominate (paper: 75-100%).
        assert!(
            (high_drops as f32) > 0.7 * high_n as f32,
            "high-angle drops {high_drops}/{high_n}"
        );
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = quick_campaign(0.05);
        let b = quick_campaign(0.05);
        assert_eq!(a, b);
    }

    #[test]
    fn report_renders_all_cells_and_totals() {
        let report = quick_campaign(0.02);
        let text = report.render();
        assert!(text.contains("Total:"));
        assert_eq!(text.lines().count(), 1 + 28 + 1);
    }

    use crate::testutil::{bt_pipeline, closed_loop_sim};
    use reactor::MitigationPolicy;

    fn closed_loop_cfg(scale: f32, policy: MitigationPolicy) -> ClosedLoopConfig {
        ClosedLoopConfig {
            campaign: CampaignConfig { sim: closed_loop_sim(), seed: 42, scale, threads: 4 },
            reactor: ReactorConfig { policy, ..ReactorConfig::default() },
        }
    }

    #[test]
    fn invalid_reactor_config_is_a_typed_campaign_error() {
        use reactor::ConfigError;
        let pipeline = bt_pipeline();
        let mut cfg = closed_loop_cfg(0.02, MitigationPolicy::StopAndHold);
        cfg.reactor.threshold = 2.0;
        assert_eq!(
            run_closed_loop_campaign(&cfg, &pipeline).err(),
            Some(ConfigError::Threshold(2.0)),
            "a bad sweep point must fail the campaign call, not panic the process"
        );
        cfg.reactor.threshold = 0.5;
        cfg.reactor.debounce = 10_000;
        assert!(matches!(
            run_closed_loop_campaign(&cfg, &pipeline).unwrap_err(),
            ConfigError::DebounceBeyondWarmup { .. }
        ));
    }

    #[test]
    fn closed_loop_campaign_is_deterministic_and_prevents_drops() {
        let pipeline = bt_pipeline();
        let cfg = closed_loop_cfg(0.04, MitigationPolicy::StopAndHold);
        let report = run_closed_loop_campaign(&cfg, &pipeline).expect("valid config");
        let again = run_closed_loop_campaign(&cfg, &pipeline).expect("valid config");
        assert_eq!(report, again, "same seeds must give a bit-identical report");

        // The unmonitored twins are trial-for-trial the open-loop campaign.
        let open = run_campaign(&cfg.campaign);
        for (c, o) in report.cells.iter().zip(open.cells.iter()) {
            assert_eq!(c.injections, o.injections);
            assert_eq!(c.baseline_block_drops, o.block_drops, "cell {:?}", c.cell.grasper);
            assert_eq!(c.baseline_dropoffs, o.dropoffs, "cell {:?}", c.cell.grasper);
        }

        // The acceptance criterion: the reactor prevents unsafe events the
        // unmonitored baseline (prevention rate 0 by construction) suffers.
        let summary = report.summary();
        assert!(summary.baseline_unsafe > 0, "grid too small to produce block drops");
        assert!(summary.prevented > 0, "closed loop prevented nothing: {}", report.render());
        assert!(
            report.cells.iter().map(|c| c.monitored_block_drops).sum::<usize>()
                < summary.baseline_unsafe,
            "monitored twins should drop the block less often than the baseline"
        );
        // Margins are measured and the summary renders.
        assert_eq!(summary.margins_ms.len(), report.margins_ticks().len());
        assert!(report.render().contains("prevention:"));
    }

    #[test]
    fn log_only_reactor_leaves_the_twin_bit_identical() {
        let pipeline = bt_pipeline();
        let cfg = closed_loop_cfg(0.02, MitigationPolicy::LogOnly);
        let report = run_closed_loop_campaign(&cfg, &pipeline).expect("valid config");
        for c in &report.cells {
            // A log-only reactor observes but never gates, so the monitored
            // twin replays the baseline exactly.
            assert_eq!(c.monitored_block_drops, c.baseline_block_drops, "{:?}", c.cell.grasper);
            assert_eq!(c.monitored_dropoffs, c.baseline_dropoffs, "{:?}", c.cell.grasper);
            assert_eq!(c.monitored_successes, c.baseline_successes, "{:?}", c.cell.grasper);
            assert_eq!(c.prevented, 0);
            assert_eq!(c.false_stops, 0, "log-only never engages");
        }
    }

    #[test]
    fn sample_spec_stays_in_bucket() {
        let mut rng = SmallRng::seed_from_u64(1);
        let cell = &table3_grid()[0];
        for _ in 0..50 {
            let spec = sample_spec(cell, &mut rng);
            let g = spec.grasper.unwrap();
            assert!((cell.grasper.0..cell.grasper.1).contains(&g.target));
            let c = spec.cartesian.unwrap();
            assert!((cell.cartesian.0..cell.cartesian.1).contains(&c.deviation));
        }
    }
}
