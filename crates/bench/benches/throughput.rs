//! Serving throughput and density: decisions/sec and **sessions-per-core**
//! of the sharded `ShardedMonitorPool` vs. a single-threaded sequential
//! baseline (one `InferenceEngine` per session), across session count ×
//! worker count × numeric tier (f32 vs the calibrated int8 quantized tier).
//!
//! The acceptance criterion for the serving layer is **≥ 2× decisions/sec
//! over the single-threaded baseline at 16 sessions on 4 worker threads**;
//! the quantized tier's criterion is a measured sessions-per-core win over
//! f32 at the same configuration. Sessions-per-core divides each
//! configuration's per-core decision rate by the paper's 30 Hz kinematic
//! frame rate: how many live procedures one core can monitor in real time.
//!
//! Besides the printed table, a full run writes a machine-readable summary
//! to `BENCH_throughput.json` at the repo root (hand-formatted — the bench
//! crate deliberately has no serde dependency), next to `BENCH_gemm.json`.
//! A `--smoke` pass leaves the committed summary alone.
//!
//! ```sh
//! cargo bench -p bench --bench throughput            # full measurement
//! cargo bench -p bench --bench throughput -- --smoke # CI: one tiny pass
//! ```

use bench::{jigsaws_dataset, suturing_monitor_cfg, Scale};
use context_monitor::serve::{ServeConfig, ShardedMonitorPool};
use context_monitor::{ContextMode, InferenceEngine, PoolStats, Precision, TrainedPipeline};
use gestures::Task;
use kinematics::KinematicSample;
use std::sync::Arc;
use std::time::Instant;

/// The paper's kinematic sampling rate: one decision is due per session
/// every 1/30 s, so `sessions_per_core = rate / workers / FRAME_HZ`.
const FRAME_HZ: f64 = 30.0;

struct Workload {
    /// Per-session frame streams (cycled out of one demo).
    frames: Vec<KinematicSample>,
    frames_per_session: usize,
}

impl Workload {
    fn frame(&self, t: usize) -> &KinematicSample {
        &self.frames[t % self.frames.len()]
    }
}

/// One measured configuration, printed and serialized to the JSON summary.
struct Row {
    tier: Precision,
    sessions: usize,
    workers: usize,
    rate: f64,
    sessions_per_core: f64,
    stats: PoolStats,
}

/// Sequential baseline: every frame of every session through its own
/// engine on one thread, round-robin over sessions per time step (the same
/// submission order the sharded pool receives). Always the f32 tier — the
/// sequential run is the historical reference the speedup column is
/// anchored to.
fn run_sequential(pipeline: &TrainedPipeline, sessions: usize, w: &Workload) -> (f64, usize) {
    let mut engines: Vec<InferenceEngine> =
        (0..sessions).map(|_| InferenceEngine::new(pipeline, ContextMode::Predicted)).collect();
    let start = Instant::now();
    let mut decisions = 0usize;
    for t in 0..w.frames_per_session {
        for engine in &mut engines {
            if engine.step(pipeline, w.frame(t)).expect("Predicted mode").complete().is_some() {
                decisions += 1;
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    (decisions as f64 / elapsed, decisions)
}

/// Sharded pool on a chosen numeric tier: identical submission order;
/// throughput measured from the first submit to the last flushed decision.
fn run_sharded(
    pipeline: Arc<TrainedPipeline>,
    sessions: usize,
    workers: usize,
    precision: Precision,
    w: &Workload,
) -> (f64, usize, PoolStats) {
    let cfg = ServeConfig { workers, threshold: 0.5, precision };
    let mut pool =
        ShardedMonitorPool::with_sessions(pipeline, ContextMode::Predicted, cfg, sessions);
    let start = Instant::now();
    for t in 0..w.frames_per_session {
        for s in 0..sessions {
            pool.submit(s, w.frame(t)).expect("Predicted mode");
        }
    }
    let decisions = pool.flush().iter().filter(|d| d.output.is_some()).count();
    let elapsed = start.elapsed().as_secs_f64();
    (decisions as f64 / elapsed, decisions, pool.stats())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let ds = jigsaws_dataset(Task::Suturing, Scale::Fast);
    let mut cfg = suturing_monitor_cfg(Scale::Fast);
    cfg.train.epochs = 2; // weights don't affect latency
    cfg.train_stride = 6;
    let idx: Vec<usize> = (0..ds.len()).collect();
    let mut pipeline = TrainedPipeline::train(&ds, &idx, &cfg);
    pipeline.quantize(&ds, &idx).expect("built-in specs are quantizable");
    let shared = Arc::new(pipeline);

    let workload = Workload {
        frames: ds.demos[0].frames.clone(),
        frames_per_session: if smoke { 80 } else { 600 },
    };
    let session_counts: &[usize] = if smoke { &[4] } else { &[4, 16] };
    let worker_counts: &[usize] = if smoke { &[2] } else { &[1, 2, 4] };
    let tiers = [Precision::F32, Precision::Int8];

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "serving throughput ({} frames/session, Suturing fast config, {} core(s)){}",
        workload.frames_per_session,
        cores,
        if smoke { " [smoke]" } else { "" }
    );
    println!("gemm backend: {}", nn::kernels::gemm_backend_label());
    if cores < 4 {
        println!(
            "note: host exposes {cores} core(s); worker threads time-slice instead of \
             running in parallel, so speedups above ~1x require >= workers cores"
        );
    }
    println!("{:<44} {:>12} {:>9} {:>10}", "configuration", "decisions/s", "speedup", "sess/core");

    let mut rows: Vec<Row> = Vec::new();
    for &sessions in session_counts {
        let (baseline_rate, baseline_n) = run_sequential(&shared, sessions, &workload);
        println!(
            "{:<44} {:>12.0} {:>8.2}x {:>10.1}",
            format!("sequential f32 engines, {sessions} sessions"),
            baseline_rate,
            1.0,
            baseline_rate / FRAME_HZ
        );
        for &tier in &tiers {
            // The f32 rate at the same (sessions, workers) anchors the
            // int8 density comparison, so f32 runs first in `tiers`.
            for &workers in worker_counts {
                let (rate, n, stats) =
                    run_sharded(Arc::clone(&shared), sessions, workers, tier, &workload);
                assert_eq!(
                    n, baseline_n,
                    "sharded pool must emit exactly the baseline's decision count \
                     (warm-up and routing coverage are tier-independent)"
                );
                assert_eq!(stats.compute.count, n, "telemetry must cover every warm decision");
                assert_eq!(
                    stats.queue.count,
                    sessions * workload.frames_per_session,
                    "queueing telemetry must cover every frame, warm-up included"
                );
                let sessions_per_core = rate / workers as f64 / FRAME_HZ;
                println!(
                    "{:<44} {:>12.0} {:>8.2}x {:>10.1}",
                    format!("sharded {tier}, {sessions} sessions x {workers} workers"),
                    rate,
                    rate / baseline_rate,
                    sessions_per_core
                );
                println!("{:<44} {}", "", stats.compute);
                println!("{:<44} queueing (submit→drain) p99 {:.3} ms", "", stats.queue.p99_ms);
                rows.push(Row { tier, sessions, workers, rate, sessions_per_core, stats });
            }
        }
    }

    // Density verdict: int8 vs f32 at each shared configuration.
    for row in rows.iter().filter(|r| r.tier == Precision::Int8) {
        if let Some(f32_row) = rows.iter().find(|r| {
            r.tier == Precision::F32 && r.sessions == row.sessions && r.workers == row.workers
        }) {
            println!(
                "int8 density win @ {} sessions x {} workers: {:.2}x sessions-per-core \
                 ({:.1} vs {:.1})",
                row.sessions,
                row.workers,
                row.sessions_per_core / f32_row.sessions_per_core,
                row.sessions_per_core,
                f32_row.sessions_per_core
            );
        }
    }

    if !smoke {
        write_summary(&rows, cores, workload.frames_per_session);
    }
}

/// Hand-formatted JSON summary (no serde in the bench crate) written to the
/// repo root next to `BENCH_gemm.json`, newest run wins.
fn write_summary(rows: &[Row], cores: usize, frames_per_session: usize) {
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"bench\": \"throughput\",\n  \"cores\": {cores},\n  \
         \"frames_per_session\": {frames_per_session},\n  \"frame_hz\": {FRAME_HZ},\n  \
         \"gemm_backend\": \"{}\",\n  \"rows\": [\n",
        nn::kernels::gemm_backend_label()
    ));
    for (idx, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"tier\": \"{}\", \"sessions\": {}, \"workers\": {},\n     \
             \"decisions_per_sec\": {:.1}, \"sessions_per_core\": {:.2},\n     \
             \"compute_p50_ms\": {:.4}, \"compute_p99_ms\": {:.4},\n     \
             \"queue_p50_ms\": {:.4}, \"queue_p99_ms\": {:.4}}}{}\n",
            r.tier,
            r.sessions,
            r.workers,
            r.rate,
            r.sessions_per_core,
            r.stats.compute.p50_ms,
            r.stats.compute.p99_ms,
            r.stats.queue.p50_ms,
            r.stats.queue.p99_ms,
            if idx + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote tier/backend density summary to {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}
