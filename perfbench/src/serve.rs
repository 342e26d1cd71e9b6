//! The serving process. It sets the system up, serves the workload (over
//! TCP for the wire workloads, in-process for `pool_saturate`), measures
//! its own CPU and memory, and answers the load generator on stdin/stdout:
//!
//! ```text
//!   serve → READY addr=.. build_s=.. start_s=..      (wire workloads)
//!   load  → BEGIN                                    (first timed frame next)
//!   load  → MARK                                     (a segment ended)
//!   load  → SESSION <demo> <offset> <frames>         (one per session run)
//!   load  → STOP
//!   serve → REF <hash> <count> <warm>                (one per SESSION)
//!   serve → RESULT key=value ...
//! ```
//!
//! Everything after STOP (reference digests, replays) is untimed.

use crate::model::{self, Digest};
use crate::pool::{lockstep, PoolRun};
use crate::stats::{best_of_segments, nearest_rank, Summary};
use crate::trace::{check_once, write_spans, Tracer};
use crate::wire::{self, StreamSpec};
use crate::{Values, Workload};
use context_monitor::{ContextMode, Precision, ServeConfig, ShardedMonitorPool, TrainedPipeline};
use ingress::server::{IngressServer, ServerConfig};
use kinematics::KinematicSample;
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Full set-ups per run; `setup_s` reports the fastest. On a shared 2-vCPU
/// VM a build takes 0.75–1.3 s depending on what the neighbours run at that
/// moment, and how often they run drifts over minutes: the median of 3
/// moved 27% between two sets of 10 runs half an hour apart. As for the
/// timings, neighbours only add time, so the fastest build is the steady
/// figure, and work moved into set-up still shows in every build.
const SETUP_REPEATS: usize = 5;

/// Shard workers of every served pool (one per core of a 2-core host).
pub const WORKERS: usize = 2;

/// Sessions of the pool_saturate fleet.
pub const POOL_SESSIONS: usize = 64;

/// Admission cap of the wire server: above the 2 live sessions, so a
/// session whose slot is still being released never sheds its successor.
const MAX_SESSIONS: usize = 8;

fn serve_config(tier: Precision) -> ServeConfig {
    ServeConfig { workers: WORKERS, precision: tier, ..ServeConfig::default() }
}

fn start_server(pipeline: &Arc<TrainedPipeline>, tier: Precision) -> IngressServer {
    IngressServer::start(
        Arc::clone(pipeline),
        ServerConfig {
            max_sessions: MAX_SESSIONS,
            mode: ContextMode::Predicted,
            serve: serve_config(tier),
            ..ServerConfig::default()
        },
    )
    .expect("bind the ingress server on a loopback port")
}

/// Builds the pipeline `SETUP_REPEATS` times; returns the last one and the
/// fastest build time.
fn set_up(tier: Precision) -> (Arc<TrainedPipeline>, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let (p, seconds) = model::build_pipeline(tier);
        times.push(seconds);
        last = Some(p);
    }
    let fastest = crate::stats::min(&times).expect("SETUP_REPEATS > 0");
    (Arc::new(last.expect("SETUP_REPEATS > 0")), fastest)
}

fn say(line: &str) {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{line}").expect("write to the load generator");
    out.flush().expect("flush to the load generator");
}

/// Adds the int8 twin for the replays; the caller must hold the only
/// reference.
fn with_int8_twin(mut pipeline: Arc<TrainedPipeline>) -> Arc<TrainedPipeline> {
    model::add_int8_twin(Arc::get_mut(&mut pipeline).expect("servers and pools are shut down"));
    pipeline
}

fn trace_path(w: Workload, seed: u64, side: &str) -> std::path::PathBuf {
    std::path::PathBuf::from(".bench_trace").join(format!("{}-seed{seed}-{side}.csv", w.name()))
}

pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool) -> i32 {
    let streams = model::workload_streams(seed);
    let tier = w.tier();
    let (pipeline, build_s) = set_up(tier);
    if w == Workload::PoolSaturate {
        run_pool(w, seed, seconds, trace, pipeline, build_s, &streams)
    } else {
        serve_wire(w, seed, trace, pipeline, build_s, &streams)
    }
}

fn serve_wire(
    w: Workload,
    seed: u64,
    trace: bool,
    pipeline: Arc<TrainedPipeline>,
    build_s: f64,
    streams: &[Vec<KinematicSample>],
) -> i32 {
    let tier = w.tier();
    let t = Instant::now();
    let server = start_server(&pipeline, tier);
    let start_s = t.elapsed().as_secs_f64();
    say(&format!("READY addr={} build_s={build_s} start_s={start_s}", server.local_addr()));

    let mut cpu = Vec::new();
    let mut sessions: Vec<(StreamSpec, usize)> = Vec::new();
    let mut stopped = false;
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let mut f = line.split_whitespace();
        match f.next() {
            Some("BEGIN") if cpu.is_empty() => cpu.push(crate::sys::cpu_seconds()),
            Some("MARK") if !cpu.is_empty() => cpu.push(crate::sys::cpu_seconds()),
            Some("SESSION") => {
                let mut num = || {
                    f.next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .expect("SESSION <demo> <offset> <frames>")
                };
                let spec = StreamSpec { demo: num(), offset: num() };
                sessions.push((spec, num()));
            }
            Some("STOP") => {
                stopped = true;
                break;
            }
            _ => {}
        }
    }
    if !stopped {
        eprintln!("serve: load generator went away before STOP");
        return 1;
    }
    let mut m = Values::default();
    for (i, c) in cpu.iter().enumerate() {
        m.insert(&format!("serve.cpu.{i}"), *c);
    }
    m.insert("serve.peak_rss_mb", crate::sys::peak_rss_mb());
    let stats = server.stats();
    m.insert("ingress.server.admitted", stats.admitted as f64);
    m.insert("ingress.server.shed", stats.shed as f64);
    m.insert("ingress.server.protocol_errors", stats.protocol_errors as f64);
    m.insert("ingress.server.decisions", stats.decisions as f64);
    drop(server);

    for d in model::reference_digests(&pipeline, tier, streams, &sessions) {
        say(&format!("REF {} {} {}", d.hash, d.count, d.warm));
    }
    if trace {
        let pipeline = with_int8_twin(pipeline);
        let mut tracer = Tracer::new(true, Instant::now());
        crate::layers::replay(&pipeline, streams, tier, &mut tracer, &mut m);
        // The pool behind the wire, driven in lockstep at the wire's
        // session count and tier.
        let specs: Vec<StreamSpec> = (0..2).map(|c| StreamSpec { demo: c, offset: 0 }).collect();
        let probe = pool_probe(&pipeline, tier, &specs, streams, 1000, &mut tracer);
        if let Err(e) = probe.and_then(|run| pool_layer_stats(&run, &mut m)) {
            eprintln!("serve: {e}");
            m.insert("serve.trace_ok", 0.0);
        }
        if let Err(e) = write_spans(&trace_path(w, seed, "server"), tracer.spans()) {
            eprintln!("serve: writing spans: {e}");
        }
    }
    say(&format!("RESULT {}", m.to_line()));
    0
}

/// Lockstep ticks on a fresh pool, digest-checked against the reference.
fn pool_probe(
    pipeline: &Arc<TrainedPipeline>,
    tier: Precision,
    specs: &[StreamSpec],
    streams: &[Vec<KinematicSample>],
    ticks: u64,
    tracer: &mut Tracer,
) -> Result<PoolRun, String> {
    let mut pool = ShardedMonitorPool::with_sessions(
        Arc::clone(pipeline),
        ContextMode::Predicted,
        serve_config(tier),
        specs.len(),
    );
    let sessions: Vec<usize> = (0..specs.len()).collect();
    let mut digests = vec![Digest::default(); specs.len()];
    let mut run = lockstep(
        &mut pool,
        &sessions,
        specs,
        streams,
        0,
        &mut digests,
        |t, _| t >= ticks,
        Tracer::new(true, Instant::now()),
    );
    drop(pool);
    let items: Vec<(StreamSpec, usize)> = specs.iter().map(|&s| (s, run.ticks as usize)).collect();
    let want = model::reference_digests(pipeline, tier, streams, &items);
    if digests != want || run.failed > 0 {
        return Err("pool probe decisions differ from the reference".into());
    }
    check_once(
        "core.serve.drain_deadline",
        &run.tracer.ids("core.serve.drain_deadline"),
        &(0..run.ticks).collect::<Vec<_>>(),
    )?;
    let t = std::mem::replace(&mut run.tracer, Tracer::new(false, Instant::now()));
    tracer.absorb(t);
    Ok(run)
}

fn pool_layer_stats(run: &PoolRun, m: &mut Values) -> Result<(), String> {
    let p50 = |v: &[f64]| nearest_rank(&mut v.to_vec(), 0.5).map_or(0.0, |q| q.value);
    let sum = |v: &[f64]| Summary::of(&mut v.to_vec()).ok_or("no samples");
    m.insert("core.serve.submit_us", p50(&run.submit_us));
    let drain = sum(&run.drain_ms)?;
    m.insert("core.serve.drain_ms_p50", drain.p50.value);
    m.insert("core.serve.drain_ms_p99", drain.p99.value);
    let queue = sum(&run.queue_ms)?;
    m.insert("core.serve.queue_p50_ms", queue.p50.value);
    m.insert("core.serve.queue_p99_ms", queue.p99.value);
    m.insert("core.serve.compute_amortized_ms", p50(&run.compute_amortized_ms));
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn run_pool(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    pipeline: Arc<TrainedPipeline>,
    build_s: f64,
    streams: &[Vec<KinematicSample>],
) -> i32 {
    let tier = w.tier();
    let t = Instant::now();
    let mut pool = ShardedMonitorPool::with_sessions(
        Arc::clone(&pipeline),
        ContextMode::Predicted,
        serve_config(tier),
        POOL_SESSIONS,
    );
    let start_s = t.elapsed().as_secs_f64();
    let sessions: Vec<usize> = (0..POOL_SESSIONS).collect();
    let specs: Vec<StreamSpec> =
        (0..POOL_SESSIONS).map(|s| StreamSpec { demo: s % streams.len(), offset: 0 }).collect();
    let mut digests = vec![Digest::default(); POOL_SESSIONS];

    // Untimed and traced passes split the run when tracing; the untimed
    // pass runs as consecutive segments, each with its own CPU reading.
    let pass_s = if trace { seconds / 2.0 } else { seconds };
    let segments = w.segments();
    let mut plain: Vec<PoolRun> = Vec::with_capacity(segments);
    let mut cpu_us = Vec::with_capacity(segments);
    let mut frames = 0u64;
    for _ in 0..segments {
        let cpu0 = crate::sys::cpu_seconds();
        let t0 = Instant::now();
        let until = t0 + Duration::from_secs_f64(pass_s / segments as f64);
        let run = lockstep(
            &mut pool,
            &sessions,
            &specs,
            streams,
            frames as usize,
            &mut digests,
            |_, now| now >= until,
            Tracer::new(false, t0),
        );
        cpu_us.push((crate::sys::cpu_seconds() - cpu0) * 1e6 / run.decisions.max(1) as f64);
        frames += run.ticks;
        plain.push(run);
    }
    let rss = crate::sys::peak_rss_mb();
    let traced = trace.then(|| {
        let t1 = Instant::now();
        let until = t1 + Duration::from_secs_f64(pass_s);
        lockstep(
            &mut pool,
            &sessions,
            &specs,
            streams,
            frames as usize,
            &mut digests,
            |_, now| now >= until,
            Tracer::new(true, t1),
        )
    });
    drop(pool);
    frames += traced.as_ref().map_or(0, |r| r.ticks);

    let items: Vec<(StreamSpec, usize)> = specs.iter().map(|&s| (s, frames as usize)).collect();
    let want = model::reference_digests(&pipeline, tier, streams, &items);
    let mismatched = digests.iter().zip(&want).filter(|(a, b)| a != b).count();

    let mut m = Values::default();
    let failed: u64 = plain.iter().chain(&traced).map(|r| r.failed).sum();
    m.insert("run.attempted", (frames * POOL_SESSIONS as u64) as f64);
    m.insert("run.failed", failed as f64);
    m.insert("run.mismatched_sessions", mismatched as f64);
    m.insert("run.warm", digests.iter().map(|d| d.warm).sum::<u64>() as f64);
    // A caller receives every decision of a tick when its drain returns.
    let decision_ms: Vec<Vec<f64>> = plain
        .iter()
        .map(|r| r.tick_ms.iter().flat_map(|&t| std::iter::repeat_n(t, POOL_SESSIONS)).collect())
        .collect();
    let tick_ms: Vec<Vec<f64>> = plain.iter().map(|r| r.tick_ms.clone()).collect();
    let late = decision_ms.iter().flatten().filter(|&&v| v > wire::DEADLINE_MS).count();
    m.insert("run.late", late as f64);
    for (name, segs, q) in [
        ("decision_p50_ms", &decision_ms, 0.5),
        ("decision_p90_ms", &decision_ms, 0.9),
        ("decision_p99_ms", &decision_ms, 0.99),
        ("tick_p50_ms", &tick_ms, 0.5),
        ("tick_p90_ms", &tick_ms, 0.9),
        ("tick_p99_ms", &tick_ms, 0.99),
    ] {
        if let Some(v) = best_of_segments(segs, q) {
            m.insert_q(name, v);
        }
    }
    let rate: Vec<f64> =
        plain.iter().map(|r| r.warm_decisions as f64 / r.elapsed.as_secs_f64()).collect();
    m.insert("decisions_per_s", crate::stats::max(&rate).unwrap_or(f64::NAN));
    m.insert("cpu_us_per_decision", crate::stats::min(&cpu_us).unwrap_or(f64::NAN));
    m.insert("peak_rss_mb", rss);
    m.insert("setup_s", build_s + start_s);

    if let Some(mut traced) = traced {
        let mut ok = true;
        let ticks: Vec<u64> = (0..traced.ticks).collect();
        if let Err(e) = check_once(
            "core.serve.drain_deadline",
            &traced.tracer.ids("core.serve.drain_deadline"),
            &ticks,
        ) {
            eprintln!("serve: {e}");
            ok = false;
        }
        if let Err(e) = pool_layer_stats(&traced, &mut m) {
            eprintln!("serve: {e}");
            ok = false;
        }
        // Whole-pass medians on both sides: the traced pass is not segmented.
        let traced_p50 = nearest_rank(&mut traced.tick_ms, 0.5).map_or(f64::NAN, |q| q.value);
        let mut untraced: Vec<f64> = plain.iter().flat_map(|r| r.tick_ms.iter().copied()).collect();
        let untraced_p50 = nearest_rank(&mut untraced, 0.5).map_or(f64::NAN, |q| q.value);
        m.insert("trace.overhead_ratio", traced_p50 / untraced_p50);
        let mut tracer = std::mem::replace(&mut traced.tracer, Tracer::new(false, Instant::now()));
        let pipeline = with_int8_twin(pipeline);
        crate::layers::replay(&pipeline, streams, tier, &mut tracer, &mut m);
        // The wire in front of a pool: a short paced replay-shaped probe
        // against an in-process server on this workload's tier.
        match wire_probe(&pipeline, tier, streams) {
            Ok((reports, server_stats)) => {
                m.extend(server_stats);
                let st = wire::pass_stats(&reports, 0.0, 1);
                let p50 = best_of_segments(&st.latency_ms, 0.5).map_or(f64::NAN, |q| q.value);
                m.insert("probe.decision_p50_ms", p50);
                if let Err(e) = wire::layer_stats(&reports, &mut m) {
                    eprintln!("serve: {e}");
                    ok = false;
                }
                if st.failed > 0 {
                    eprintln!("serve: wire probe lost {} decisions", st.failed);
                    ok = false;
                }
                for r in reports {
                    tracer.absorb(r.tracer);
                }
            }
            Err(e) => {
                eprintln!("serve: wire probe: {e}");
                ok = false;
            }
        }
        m.insert("serve.trace_ok", ok as u8 as f64);
        if let Err(e) = write_spans(&trace_path(w, seed, "server"), tracer.spans()) {
            eprintln!("serve: writing spans: {e}");
        }
    }
    say(&format!("RESULT {}", m.to_line()));
    0
}

/// One second of the wire_replay shape against an in-process server.
fn wire_probe(
    pipeline: &Arc<TrainedPipeline>,
    tier: Precision,
    streams: &[Vec<KinematicSample>],
) -> Result<(Vec<wire::ConnReport>, Values), String> {
    let server = start_server(pipeline, tier);
    let addr = server.local_addr().to_string();
    let plans = Workload::WireReplay.plans(1.0);
    let admitted: Vec<wire::Admitted> =
        plans.iter().map(|_| wire::open_session(&addr)).collect::<Result<_, _>>()?;
    let epoch = Instant::now();
    let t0 = epoch + Duration::from_millis(2);
    let reports = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .into_iter()
            .zip(admitted)
            .map(|(plan, first)| {
                let addr = &addr;
                s.spawn(move || {
                    wire::run_connection(addr, streams, plan, first, t0, Tracer::new(true, epoch))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("probe connection thread")).collect::<Vec<_>>()
    });
    let stats = server.stats();
    let mut m = Values::default();
    m.insert("ingress.server.admitted", stats.admitted as f64);
    m.insert("ingress.server.shed", stats.shed as f64);
    m.insert("ingress.server.protocol_errors", stats.protocol_errors as f64);
    m.insert("ingress.server.decisions", stats.decisions as f64);
    Ok((reports, m))
}
