//! Network ingress service — the monitor as a deployable endpoint.
//!
//! The in-process story ends at `repro_fleet`: N guarded procedures over
//! one `ShardedMonitorPool`. This binary proves the same monitor behind a
//! real TCP front end, whose event loops each score the frames of their own
//! connections: framed wire protocol, admission control that sheds
//! excess sessions with a typed BUSY (never delaying admitted ones), and
//! a load generator that paces every session at the paper's 30 Hz to find
//! how many sessions the service keeps within one frame interval. Latency
//! here is end-to-end — a FRAME's scheduled send to its DECISION's receipt
//! over the socket — not just compute time.
//!
//! `--smoke` (the CI gate) asserts, on a small fixed-seed pipeline:
//!
//! 1. the decision stream read off the socket is **bit-identical**
//!    (scores as `to_bits` patterns) to an in-process pool run,
//! 2. at 2x the admission cap, shedding engages and admitted sessions
//!    see zero deadline misses within a generous per-frame budget, and
//! 3. a malformed client gets a typed ERROR + close, after which the
//!    service still serves bit-exact decisions.
//!
//! The default mode doubles the offered sessions from 1 until the p99
//! decision latency of a level passes one 30 Hz frame interval (33.3 ms),
//! or 2,048 sessions. Each level runs `max(300, ⌈2000 / sessions⌉)` frames
//! per session: at least 10 s, so one host stall of tens of ms spans
//! under 1% of a level, and at least 2,000 samples, so at least 20 lie
//! beyond every p99. The knee is the last level whose p99 stays within the
//! interval. The run then caps admission at the knee, offers twice as many
//! sessions from the sweep's driver-thread budget, and writes
//! `BENCH_ingress.json` (f32 tier) or `BENCH_ingress_int8.json`
//! (`MONITOR_PRECISION=int8`) at the repo root.

use bench::{header, jigsaws_dataset, suturing_monitor_cfg, Scale};
use context_monitor::serve::{ServeConfig, ShardedMonitorPool};
use context_monitor::{ContextMode, Precision, TrainedPipeline};
use gestures::Task;
use ingress::client::{ClientError, Connection, ServerMsg};
use ingress::codec::{DecisionMsg, ErrorCode, WIRE_VERSION};
use ingress::loadgen::{self, LoadReport, LoadgenConfig};
use ingress::server::{IngressServer, ServerConfig};
use kinematics::Dataset;
use std::sync::Arc;

/// Numeric tier for every engine behind the socket, from the
/// `MONITOR_PRECISION` env knob (`f32` default, `int8`/`i8` for the
/// quantized tier). An unrecognized value fails loud — a CI matrix row
/// that silently fell back to f32 would fake quantized coverage.
fn monitor_precision() -> Precision {
    match std::env::var("MONITOR_PRECISION") {
        Ok(v) => Precision::parse(&v)
            .unwrap_or_else(|| panic!("MONITOR_PRECISION={v}: expected f32, int8, or i8")),
        Err(_) => Precision::F32,
    }
}

fn train_pipeline(scale: Scale, precision: Precision) -> (Arc<TrainedPipeline>, Dataset) {
    let ds = jigsaws_dataset(Task::Suturing, scale);
    let mut cfg = suturing_monitor_cfg(scale);
    if scale == Scale::Fast {
        // The service bench measures the wire, not the model: a tiny
        // fixed-seed pipeline keeps the gate fast without weakening the
        // bit-equality claim (any trained weights exercise it equally).
        cfg.train.epochs = 2;
        cfg.train_stride = 6;
    }
    let idx: Vec<usize> = (0..ds.len()).collect();
    let mut pipeline = TrainedPipeline::train(&ds, &idx, &cfg);
    if precision == Precision::Int8 {
        pipeline.quantize(&ds, &idx).expect("built-in specs are quantizable");
    }
    (Arc::new(pipeline), ds)
}

fn serve_cfg(workers: usize, precision: Precision) -> ServeConfig {
    ServeConfig { workers, precision, ..ServeConfig::default() }
}

fn start_server(
    pipeline: &Arc<TrainedPipeline>,
    max_sessions: usize,
    loops: usize,
    precision: Precision,
) -> IngressServer {
    IngressServer::start(
        Arc::clone(pipeline),
        ServerConfig {
            max_sessions,
            mode: ContextMode::Predicted,
            serve: serve_cfg(loops, precision),
            ..ServerConfig::default()
        },
    )
    .expect("bind ingress server on a loopback port")
}

/// Bit-equality key of one decision: `DecisionMsg::key()`.
type Key = (u32, bool, bool, u8, u32);

/// Decision key stream of an in-process pool over the first `sessions`
/// demos — the ground truth the socket stream must match bit-for-bit.
fn in_process_keys(
    pipeline: &Arc<TrainedPipeline>,
    ds: &Dataset,
    sessions: usize,
    workers: usize,
    precision: Precision,
) -> Vec<Vec<Key>> {
    let mut pool = ShardedMonitorPool::with_sessions(
        Arc::clone(pipeline),
        ContextMode::Predicted,
        serve_cfg(workers, precision),
        sessions,
    );
    for (s, demo) in ds.demos.iter().take(sessions).enumerate() {
        for frame in &demo.frames {
            pool.submit(s, frame).expect("Predicted submit cannot fail");
        }
    }
    let mut keys = vec![Vec::new(); sessions];
    for d in pool.flush() {
        let msg = DecisionMsg::from_decision(d.frame as u32, d.output.as_ref());
        keys[d.session].push((d.frame as u32, msg.key()));
    }
    keys.into_iter()
        .map(|mut v| {
            v.sort_by_key(|&(frame, _)| frame);
            v.into_iter().map(|(_, key)| key).collect()
        })
        .collect()
}

/// Streams demo `s` over one closed-loop socket session; returns the
/// decision key stream.
fn socket_session_keys(addr: &str, ds: &Dataset, s: usize) -> Vec<Key> {
    let demo = &ds.demos[s];
    let mut conn = Connection::connect(addr).expect("connect");
    conn.send_hello(false).expect("hello");
    let ServerMsg::Welcome { .. } = conn.recv().expect("welcome") else {
        panic!("expected WELCOME");
    };
    let mut keys = Vec::new();
    for (t, frame) in demo.frames.iter().enumerate() {
        conn.send_frame(t as u32, None, frame).expect("send frame");
        match conn.recv().expect("decision") {
            ServerMsg::Decision(d) => {
                assert_eq!(d.seq, t as u32, "decisions must arrive in frame order");
                keys.push(d.key());
            }
            other => panic!("expected DECISION, got {other:?}"),
        }
    }
    conn.send_goodbye().expect("goodbye");
    match conn.recv().expect("bye") {
        ServerMsg::Bye { delivered } => {
            assert_eq!(delivered, demo.frames.len() as u64, "BYE must account for every frame");
        }
        other => panic!("expected BYE, got {other:?}"),
    }
    keys
}

fn print_report(label: &str, r: &LoadReport) {
    println!(
        "{label}: offered {} admitted {} shed {} | {} decisions in {:.2}s ({:.0}/s) | \
         e2e p50 {:.3} ms p99 {:.3} ms max {:.3} ms over {} | send lag p99 {:.3} ms | \
         {} deadline misses, {} errors",
        r.offered,
        r.admitted,
        r.shed,
        r.decisions,
        r.elapsed_s,
        r.decisions_per_sec,
        r.latency.p50_ms,
        r.latency.p99_ms,
        r.latency.max_ms,
        r.latency.samples,
        r.send_lag.p99_ms,
        r.deadline_misses,
        r.errors
    );
}

/// Small fixed-seed service gate: socket-vs-pool bit-equality, shed at
/// 2x cap with zero admitted-session deadline misses, and survival of a
/// malformed client.
fn smoke() {
    let precision = monitor_precision();
    header("ingress smoke (tiny Suturing pipeline, fixed seeds)");
    println!("gemm backend: {} | tier: {precision}", nn::kernels::gemm_backend_label());
    let (pipeline, ds) = train_pipeline(Scale::Fast, precision);

    // 1. Bit-equality: two concurrent socket sessions vs the pool.
    let server = start_server(&pipeline, 8, 2, precision);
    let addr = server.local_addr().to_string();
    let (a, b) = std::thread::scope(|scope| {
        let (addr_a, addr_b) = (addr.clone(), addr.clone());
        let (ds_a, ds_b) = (&ds, &ds);
        let ha = scope.spawn(move || socket_session_keys(&addr_a, ds_a, 0));
        let hb = scope.spawn(move || socket_session_keys(&addr_b, ds_b, 1));
        (ha.join().expect("session 0"), hb.join().expect("session 1"))
    });
    let want = in_process_keys(&pipeline, &ds, 2, 2, precision);
    assert_eq!(a, want[0], "session 0: socket stream differs from in-process pool");
    assert_eq!(b, want[1], "session 1: socket stream differs from in-process pool");
    assert!(a.iter().any(|k| k.1), "stream never warmed up — vacuous equality");

    // 2. A malformed client gets a typed ERROR + close...
    let mut evil = Connection::connect(&addr).expect("connect");
    evil.send_raw(&[3, 0, 0, 0, WIRE_VERSION, 0x5A, 0]).expect("raw");
    match evil.recv().expect("typed error before close") {
        ServerMsg::Error { code } => assert_eq!(code, ErrorCode::BadKind),
        other => panic!("expected ERROR(BadKind), got {other:?}"),
    }
    assert!(
        matches!(evil.recv(), Err(ClientError::Closed) | Err(ClientError::Io(_))),
        "server must close after a protocol error"
    );
    // ...and the service still serves bit-exact decisions afterwards.
    let again = socket_session_keys(&addr, &ds, 0);
    assert_eq!(again, want[0], "service must stay bit-exact after a malformed client");
    assert_eq!(server.stats().protocol_errors, 1);
    drop(server);

    // 3. Overload: offer 2x the cap. Shedding must engage (typed BUSY,
    // at connect time, never mid-session) and admitted sessions must see
    // zero deadline misses within a generous per-frame budget.
    let cap = 8;
    let server = start_server(&pipeline, cap, 2, precision);
    let report = loadgen::run(
        &server.local_addr().to_string(),
        &LoadgenConfig {
            sessions: 2 * cap,
            frames_per_session: 40,
            threads: 2 * cap,
            deadline_ms: 250.0,
            ..LoadgenConfig::default()
        },
    )
    .expect("loadgen");
    print_report("overload (2x cap)", &report);
    assert!(report.shed >= 1, "2x the cap must shed at least one session");
    assert!(report.admitted >= cap, "the cap's worth of sessions must be admitted");
    assert_eq!(report.errors, 0, "no admitted session may see an error");
    assert_eq!(
        report.decisions,
        report.admitted as u64 * 40,
        "every admitted frame must get a decision"
    );
    assert_eq!(
        report.deadline_misses, 0,
        "shedding must protect admitted sessions: zero deadline misses"
    );
    let stats = server.stats();
    assert_eq!(stats.shed as usize, report.shed, "client and server must agree on sheds");

    println!(
        "smoke OK: socket bit-identical to pool, {} shed at 2x cap, 0 deadline misses, \
         malformed client contained",
        report.shed
    );
}

/// Most sessions the sweep offers.
const MAX_SESSIONS: usize = 2048;

/// Frames per session at a level of `sessions`: at least 300 (10 s at
/// 30 Hz, so one host stall of tens of ms spans under 1% of the level),
/// and enough for 2,000 latency samples, so at least 20 lie
/// beyond the level's p99.
fn frames_at(sessions: usize) -> usize {
    300.max(2000usize.div_ceil(sessions))
}

struct Row {
    sessions: usize,
    frames: usize,
    report: LoadReport,
}

/// Sweeps paced sessions against a high-cap server to find the knee, then
/// demonstrates admission control by capping the same workload there.
fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    let scale = Scale::from_env();
    let precision = monitor_precision();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    header("training the Suturing monitor");
    let (pipeline, _ds) = train_pipeline(scale, precision);

    let loops = 4;
    let budget_ms = loadgen::FRAME_PERIOD.as_secs_f64() * 1e3;
    header(&format!(
        "load sweep — sessions paced at 30 Hz over TCP ({cores} host core(s), {loops} event \
         loops, {precision} tier, {} backend)",
        nn::kernels::gemm_backend_label()
    ));
    let mut rows: Vec<Row> = Vec::new();
    let mut sessions = 1;
    loop {
        // A fresh server per level: no warm engine state leaks across rows.
        let server = start_server(&pipeline, 2 * sessions, loops, precision);
        let frames = frames_at(sessions);
        let report = loadgen::run(
            &server.local_addr().to_string(),
            &LoadgenConfig {
                sessions,
                frames_per_session: frames,
                threads: sessions.min(2 * cores),
                deadline_ms: budget_ms,
                ..LoadgenConfig::default()
            },
        )
        .expect("loadgen");
        print_report(&format!("{sessions:>4} sessions"), &report);
        assert_eq!(report.shed, 0, "the sweep server is never capacity-limited");
        assert_eq!(report.errors, 0);
        let timely = report.latency.p99_ms <= budget_ms;
        rows.push(Row { sessions, frames, report });
        if !timely || sessions == MAX_SESSIONS {
            break;
        }
        sessions *= 2;
    }

    // The knee: the last level whose p99 stayed within one frame interval.
    let knee = rows
        .iter()
        .take_while(|r| r.report.latency.p99_ms <= budget_ms)
        .last()
        .map_or(0, |r| r.sessions);
    println!("\nknee: {knee} concurrent sessions at 30 Hz with p99 <= {budget_ms:.1} ms");

    // Admission-control demo at the knee: cap the server there, offer
    // double, and show shed sessions never degrade admitted ones. It
    // drives them with the sweep's thread budget, so its admitted sessions
    // share the host with no more generator threads than the level it
    // repeats.
    header("admission control at the knee (offer 2x, shed the excess)");
    let cap = knee.max(1);
    let server = start_server(&pipeline, cap, loops, precision);
    let shed_demo = loadgen::run(
        &server.local_addr().to_string(),
        &LoadgenConfig {
            sessions: 2 * cap,
            frames_per_session: frames_at(cap),
            threads: (2 * cap).min(2 * cores),
            deadline_ms: budget_ms,
            ..LoadgenConfig::default()
        },
    )
    .expect("loadgen");
    print_report("2x knee", &shed_demo);

    write_summary(&rows, &shed_demo, knee, cores, loops, budget_ms, precision);
}

/// Hand-formatted JSON summary (no serde in the bench crate) written to
/// the repo root next to the other `BENCH_*.json` files, one file per tier
/// so a sweep on one tier never overwrites the other's.
fn write_summary(
    rows: &[Row],
    shed_demo: &LoadReport,
    knee: usize,
    cores: usize,
    loops: usize,
    budget_ms: f64,
    precision: Precision,
) {
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"bench\": \"ingress\",\n  \"cores\": {cores},\n  \"event_loops\": {loops},\n  \
         \"frame_hz\": 30,\n  \"deadline_ms\": {budget_ms:.3},\n  \
         \"tier\": \"{precision}\",\n  \"gemm_backend\": \"{}\",\n  \
         \"knee_sessions\": {knee},\n  \"rows\": [\n",
        nn::kernels::gemm_backend_label()
    ));
    for (idx, row) in rows.iter().enumerate() {
        let r = &row.report;
        json.push_str(&format!(
            "    {{\"sessions\": {}, \"frames_per_session\": {}, \"admitted\": {}, \
             \"shed\": {},\n     \"decisions_per_sec\": {:.1}, \"samples\": {}, \
             \"e2e_p50_ms\": {:.4}, \"e2e_p99_ms\": {:.4},\n     \"e2e_max_ms\": {:.4}, \
             \"send_lag_p99_ms\": {:.4}, \"deadline_misses\": {}}}{}\n",
            row.sessions,
            row.frames,
            r.admitted,
            r.shed,
            r.decisions_per_sec,
            r.latency.samples,
            r.latency.p50_ms,
            r.latency.p99_ms,
            r.latency.max_ms,
            r.send_lag.p99_ms,
            r.deadline_misses,
            if idx + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"shed_demo\": {{\"offered\": {}, \"admitted\": {}, \"shed\": {},\n    \
         \"shed_rate\": {:.3}, \"samples\": {}, \"e2e_p50_ms\": {:.4}, \
         \"e2e_p99_ms\": {:.4},\n    \"deadline_misses\": {}}}\n}}\n",
        shed_demo.offered,
        shed_demo.admitted,
        shed_demo.shed,
        shed_demo.shed as f64 / shed_demo.offered.max(1) as f64,
        shed_demo.latency.samples,
        shed_demo.latency.p50_ms,
        shed_demo.latency.p99_ms,
        shed_demo.deadline_misses,
    ));

    let path = match precision {
        Precision::F32 => concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingress.json"),
        Precision::Int8 => concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingress_int8.json"),
    };
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote ingress service summary to {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}
