//! Automated, vision-based labeling of Block Transfer failures (§IV-B).
//!
//! The pipeline mirrors the paper's: render the virtual camera video at
//! 30 fps, threshold each frame to isolate the block, (1) use SSIM between
//! consecutive thresholded frames to timestamp the drop, (2) track the block
//! centroid and compare the trace against a fault-free reference with DTW to
//! detect dropoff failures ("the block should have been dropped, but it was
//! not").

use crate::cv::{threshold, track_brightest};
use crate::frame::{Frame, VirtualCamera};
use eval::dtw;
use kinematics::Vec3;
use raven_sim::{layout, FailureMode, Trial};
use serde::{Deserialize, Serialize};

/// Vision-pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VisionConfig {
    /// Video rate (the paper logs at 30 fps).
    pub fps: f32,
    /// Camera model.
    pub camera: VirtualCamera,
    /// Intensity threshold isolating the block.
    pub block_threshold: u8,
    /// Consecutive-frame SSIM below this marks a sudden block motion (fall).
    pub ssim_drop_threshold: f64,
    /// Normalized DTW distance (px/step) above this marks a trace deviation.
    pub dtw_threshold: f32,
}

impl Default for VisionConfig {
    fn default() -> Self {
        Self {
            fps: 30.0,
            camera: VirtualCamera::default(),
            block_threshold: 200,
            ssim_drop_threshold: 0.90,
            dtw_threshold: 2.5,
        }
    }
}

/// Result of the vision pipeline on one trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VisionVerdict {
    /// Video frame where the drop (sudden fall) was detected, if any.
    pub drop_frame: Option<usize>,
    /// The drop frame mapped back to simulator ticks.
    pub drop_tick: Option<usize>,
    /// Whether the final block position is near the receptacle (pixel x).
    pub landed_near_receptacle: Option<bool>,
    /// Normalized DTW distance of the centroid trace vs. the reference.
    pub dtw_distance: f32,
    /// Failure classification from vision alone.
    pub failure: Option<FailureMode>,
}

/// Renders the trial's virtual-camera video, decimating simulator ticks to
/// the configured fps. Returns the frames and the tick of each frame.
pub fn render_video(trial: &Trial, cfg: &VisionConfig) -> (Vec<Frame>, Vec<usize>) {
    let hz = trial.demo.hz;
    let step = ((hz / cfg.fps).round() as usize).max(1);
    let mut frames = Vec::new();
    let mut ticks = Vec::new();
    for (tick, block) in trial.block_trace.iter().enumerate().step_by(step) {
        let arms: Vec<Vec3> =
            trial.demo.frames[tick].manipulators.iter().map(|m| m.position).collect();
        frames.push(cfg.camera.render(*block, layout::RECEPTACLE, &arms));
        ticks.push(tick);
    }
    (frames, ticks)
}

/// Thresholded-block frame used by the SSIM detector.
fn block_mask_frame(frame: &Frame, min: u8) -> Frame {
    let mask = threshold(frame, min);
    let data = mask.pixels.iter().map(|&p| if p { 255u8 } else { 0 }).collect();
    Frame::new(mask.width, mask.height, data)
}

/// Detects the video frame of a block *fall* via consecutive-frame SSIM on
/// thresholded block images, requiring (a) the block centroid to move
/// downward (image y increasing) and (b) the block to settle at table level
/// within the next few frames. The downward check rejects the grasp "snap"
/// at pick-up; the settle check rejects transient command jumps (e.g. a
/// Cartesian fault ending) where the block never reaches the table.
pub fn detect_drop_frame(frames: &[Frame], cfg: &VisionConfig) -> Option<usize> {
    let masks: Vec<Frame> =
        frames.iter().map(|f| block_mask_frame(f, cfg.block_threshold)).collect();
    let centroids: Vec<Option<(f32, f32)>> =
        frames.iter().map(|f| track_brightest(f, cfg.block_threshold)).collect();
    // Image row of a block resting on the table.
    let table_row = cfg
        .camera
        .project(Vec3::new(0.0, 0.0, 2.0))
        .map(|(_, y)| y as f32)
        .unwrap_or(cfg.camera.height as f32 - 1.0);

    for t in 1..masks.len() {
        let s = crate::ssim::ssim(&masks[t - 1], &masks[t]);
        let falling = match (centroids[t - 1], centroids[t]) {
            (Some((_, y0)), Some((_, y1))) => y1 - y0 >= 1.5,
            _ => false,
        };
        if s < cfg.ssim_drop_threshold && falling {
            // Settle check: within the next 5 frames the block must sit at
            // table level (a real fall completes in 1-2 frames at 30 fps).
            let settled = (t..(t + 5).min(centroids.len()))
                .any(|u| matches!(centroids[u], Some((_, y)) if (y - table_row).abs() <= 3.0));
            if settled {
                return Some(t);
            }
        }
    }
    None
}

/// The block-centroid trace in pixel coordinates (one `[x, y]` per frame;
/// frames where the block is not visible repeat the previous position).
pub fn centroid_trace(frames: &[Frame], cfg: &VisionConfig) -> Vec<Vec<f32>> {
    let mut out: Vec<Vec<f32>> = Vec::with_capacity(frames.len());
    for f in frames {
        match track_brightest(f, cfg.block_threshold) {
            Some((x, y)) => out.push(vec![x, y]),
            None => {
                let last = out.last().cloned().unwrap_or_else(|| vec![0.0, 0.0]);
                out.push(last);
            }
        }
    }
    out
}

/// Runs the full §IV-B vision pipeline against a fault-free reference trace.
pub fn label_trial(
    trial: &Trial,
    reference_trace: &[Vec<f32>],
    cfg: &VisionConfig,
) -> VisionVerdict {
    let (frames, ticks) = render_video(trial, cfg);
    let trace = centroid_trace(&frames, cfg);

    let drop_frame = detect_drop_frame(&frames, cfg);
    let drop_tick = drop_frame.map(|f| ticks[f.min(ticks.len() - 1)]);

    // Landing location check: final centroid x vs. receptacle x.
    let landed_near_receptacle = trace.last().map(|p| {
        let rx = cfg
            .camera
            .project(Vec3::new(layout::RECEPTACLE.x, 0.0, 1.0))
            .map(|(x, _)| x as f32)
            .unwrap_or(0.0);
        (p[0] - rx).abs() <= 6.0
    });

    let dtw_distance = dtw(&trace, reference_trace, None)
        .map(|r| r.normalized_distance())
        .unwrap_or(f32::INFINITY);

    // Vision-only classification. Fault-free trials drop within the
    // expected on-time window; earlier falls are premature drops, later (or
    // absent) drops are dropoff failures — DTW warping can absorb pure
    // timing deviations, so lateness is checked explicitly.
    let n = frames.len().max(1);
    let window = ((0.80 * n as f32) as usize, (0.89 * n as f32) as usize);
    let failure = match drop_frame {
        Some(f) if f < window.0 => Some(FailureMode::BlockDrop),
        Some(f) if f > window.1 => Some(FailureMode::DropoffFailure),
        Some(_) if landed_near_receptacle == Some(false) => Some(FailureMode::BlockDrop),
        Some(_) => {
            if dtw_distance > cfg.dtw_threshold {
                Some(FailureMode::DropoffFailure)
            } else {
                None
            }
        }
        None => Some(FailureMode::DropoffFailure),
    };

    VisionVerdict { drop_frame, drop_tick, landed_near_receptacle, dtw_distance, failure }
}

/// Convenience: the reference centroid trace of a fault-free trial.
pub fn reference_trace(trial: &Trial, cfg: &VisionConfig) -> Vec<Vec<f32>> {
    let (frames, _) = render_video(trial, cfg);
    centroid_trace(&frames, cfg)
}

/// Checks that the brightest-object detector actually sees the block where
/// the simulator says it is (projection consistency; used in tests and the
/// simulator's self-checks).
pub fn tracking_error_px(trial: &Trial, cfg: &VisionConfig) -> f32 {
    let (frames, ticks) = render_video(trial, cfg);
    let mut worst = 0.0f32;
    for (f, &tick) in frames.iter().zip(ticks.iter()) {
        if let (Some((cx, cy)), Some((px, py))) = (
            track_brightest(f, cfg.block_threshold),
            cfg.camera.project(trial.block_trace[tick] + Vec3::new(0.0, 0.0, 2.0)),
        ) {
            let dx = cx - px as f32;
            let dy = cy - py as f32;
            worst = worst.max((dx * dx + dy * dy).sqrt());
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_sim::{run_block_transfer, CommandFilter, Commands, NoFaults, SimConfig};

    fn sim_cfg(seed: u64) -> SimConfig {
        SimConfig { hz: 100.0, duration_s: 6.0, seed, tremor: 0.3 }
    }

    struct ForceOpen;
    impl CommandFilter for ForceOpen {
        fn apply(&mut self, _t: usize, p: f32, c: &mut Commands) {
            if (0.4..0.6).contains(&p) {
                c.arms[1].grasper = 1.3;
            }
        }
    }

    struct PinClosed;
    impl CommandFilter for PinClosed {
        fn apply(&mut self, _t: usize, p: f32, c: &mut Commands) {
            if p >= 0.6 {
                c.arms[1].grasper = 0.4;
            }
        }
    }

    #[test]
    fn fault_free_trial_is_labeled_safe() {
        let cfg = VisionConfig::default();
        let reference = reference_trace(&run_block_transfer(&sim_cfg(11), &mut NoFaults), &cfg);
        let trial = run_block_transfer(&sim_cfg(12), &mut NoFaults);
        let verdict = label_trial(&trial, &reference, &cfg);
        assert_eq!(verdict.failure, None, "verdict {verdict:?}");
        assert!(verdict.drop_frame.is_some(), "normal drop should be timestamped");
    }

    #[test]
    fn premature_drop_is_labeled_block_drop_near_the_true_tick() {
        let cfg = VisionConfig::default();
        let reference = reference_trace(&run_block_transfer(&sim_cfg(13), &mut NoFaults), &cfg);
        let trial = run_block_transfer(&sim_cfg(14), &mut ForceOpen);
        assert_eq!(trial.outcome.failure, Some(FailureMode::BlockDrop));
        let verdict = label_trial(&trial, &reference, &cfg);
        assert_eq!(verdict.failure, Some(FailureMode::BlockDrop), "verdict {verdict:?}");
        // Vision timestamp within 300 ms of the simulator ground truth.
        let truth = trial.outcome.error_tick.unwrap() as f32 / trial.demo.hz;
        let seen = verdict.drop_tick.unwrap() as f32 / trial.demo.hz;
        assert!((seen - truth).abs() < 0.3, "vision {seen}s vs truth {truth}s");
    }

    #[test]
    fn dropoff_failure_is_detected_via_dtw() {
        let cfg = VisionConfig::default();
        let reference = reference_trace(&run_block_transfer(&sim_cfg(15), &mut NoFaults), &cfg);
        let trial = run_block_transfer(&sim_cfg(16), &mut PinClosed);
        assert_eq!(trial.outcome.failure, Some(FailureMode::DropoffFailure));
        let verdict = label_trial(&trial, &reference, &cfg);
        assert_eq!(verdict.failure, Some(FailureMode::DropoffFailure), "verdict {verdict:?}");
    }

    #[test]
    fn dtw_distance_orders_faulty_above_fault_free() {
        let cfg = VisionConfig::default();
        let reference = reference_trace(&run_block_transfer(&sim_cfg(17), &mut NoFaults), &cfg);
        let clean = label_trial(&run_block_transfer(&sim_cfg(18), &mut NoFaults), &reference, &cfg);
        let faulty =
            label_trial(&run_block_transfer(&sim_cfg(19), &mut PinClosed), &reference, &cfg);
        assert!(
            faulty.dtw_distance > clean.dtw_distance,
            "faulty {} <= clean {}",
            faulty.dtw_distance,
            clean.dtw_distance
        );
    }

    #[test]
    fn tracker_follows_the_simulated_block() {
        let cfg = VisionConfig::default();
        let trial = run_block_transfer(&sim_cfg(20), &mut NoFaults);
        let err = tracking_error_px(&trial, &cfg);
        assert!(err < 3.0, "tracking error {err} px");
    }
}
