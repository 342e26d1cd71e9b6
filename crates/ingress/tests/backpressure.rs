//! Drill: a client that pipelines FRAMEs and never reads a reply. The
//! server must not buffer its flood: a loop reads no socket whose decoder
//! still holds a complete message and takes nothing from a connection with
//! too many unread replies, so TCP flow control pushes back on the client.
//! Meanwhile another session on the same server keeps bit-exact service.
//!
//! The test reads process-wide `/proc/self/status`, so it must stay the
//! only test in this file: a test running beside it would add its own
//! memory.
#![cfg(target_os = "linux")]

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use context_monitor::serve::{ServeConfig, ShardedMonitorPool};
use context_monitor::{ContextMode, MonitorConfig, TrainedPipeline};
use gestures::Task;
use ingress::client::{Connection, ServerMsg};
use ingress::codec::{encode_frame, encode_hello, DecisionMsg};
use ingress::server::{IngressServer, ServerConfig};
use jigsaws::{generate, GeneratorConfig};
use kinematics::{FeatureSet, KinematicSample};

/// FRAMEs the flooding client pipelines: about 3.3 MB on the wire.
const FLOOD: u32 = 20_000;

/// Bit-equality key of one decision: `DecisionMsg::key()`.
type Key = (u32, bool, bool, u8, u32);

/// `VmRSS` in kB, from `/proc/self/status`.
fn rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .expect("VmRSS in /proc/self/status")
}

/// Streams `frames` over one closed-loop socket session and returns the
/// decision keys.
fn stream(addr: &str, frames: &[KinematicSample]) -> Vec<Key> {
    let mut conn = Connection::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    conn.send_hello(false).expect("hello");
    assert!(matches!(conn.recv().expect("welcome"), ServerMsg::Welcome { .. }));
    let mut keys = Vec::with_capacity(frames.len());
    for (t, frame) in frames.iter().enumerate() {
        conn.send_frame(t as u32, None, frame).expect("send frame");
        match conn.recv().expect("decision") {
            ServerMsg::Decision(d) => keys.push(d.key()),
            other => panic!("expected DECISION, got {other:?}"),
        }
    }
    conn.send_goodbye().expect("goodbye");
    assert!(matches!(conn.recv().expect("bye"), ServerMsg::Bye { .. }));
    keys
}

/// HELLO, then `FLOOD` FRAMEs cycling through `frames`, encoded one at a
/// time so the client itself holds one frame. Stops early once a write
/// stays blocked for a second: the server is pushing back. Returns the
/// open socket, never read, and how many FRAMEs went out whole.
fn flood(addr: &str, frames: &[KinematicSample]) -> (TcpStream, u32) {
    let mut socket = TcpStream::connect(addr).expect("connect");
    socket.set_write_timeout(Some(Duration::from_secs(1))).expect("write timeout");
    let mut buf = BytesMut::new();
    encode_hello(&mut buf, false);
    socket.write_all(&buf).expect("hello");
    let mut sent = 0;
    for seq in 0..FLOOD {
        buf.clear();
        encode_frame(&mut buf, seq, None, &frames[seq as usize % frames.len()]);
        if socket.write_all(&buf).is_err() {
            break;
        }
        sent += 1;
    }
    (socket, sent)
}

#[test]
fn a_client_that_never_reads_is_pushed_back_while_others_stay_bit_exact() {
    let ds = generate(&GeneratorConfig::fast(Task::Suturing).with_seed(11));
    let mut cfg = MonitorConfig::fast(FeatureSet::CRG).with_seed(11 ^ 0xA5);
    cfg.train.epochs = 2;
    cfg.train_stride = 6;
    let idx: Vec<usize> = (0..ds.len()).collect();
    let pipeline = Arc::new(TrainedPipeline::train(&ds, &idx, &cfg));
    let serve = ServeConfig { workers: 2, ..ServeConfig::default() };
    let demo = &ds.demos[0];

    // The reference: demo 0 through an in-process pool.
    let mut pool =
        ShardedMonitorPool::with_sessions(Arc::clone(&pipeline), ContextMode::Predicted, serve, 1);
    for frame in &demo.frames {
        pool.submit(0, frame).expect("Predicted mode");
    }
    let mut decisions = pool.flush();
    decisions.sort_by_key(|d| d.frame);
    let want: Vec<Key> = decisions
        .iter()
        .map(|d| DecisionMsg::from_decision(d.frame as u32, d.output.as_ref()).key())
        .collect();
    drop(pool);

    let server = IngressServer::start(
        pipeline,
        ServerConfig { max_sessions: 4, serve, ..ServerConfig::default() },
    )
    .expect("bind ingress server");
    let addr = server.local_addr().to_string();

    // Warm both loops' engines and the allocator with one session each.
    std::thread::scope(|s| {
        let warm: Vec<_> = (0..2).map(|_| s.spawn(|| stream(&addr, &demo.frames))).collect();
        for session in warm {
            assert_eq!(session.join().expect("warm-up session"), want);
        }
    });
    let rss0 = rss_kb();

    let (keys, (flooder, sent)) = std::thread::scope(|s| {
        let flooding = s.spawn(|| flood(&addr, &demo.frames));
        // Let the flood start before the second session connects.
        std::thread::sleep(Duration::from_millis(50));
        let keys = stream(&addr, &demo.frames);
        (keys, flooding.join().expect("flooding client"))
    });
    assert_eq!(keys, want, "a session beside the flood differs from the in-process pool");

    // Let the flooded loop take all it will take: every FRAME sent, or as
    // many as its back-pressure lets through.
    let mut last = server.stats().decisions;
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        std::thread::sleep(Duration::from_millis(500));
        let now = server.stats().decisions;
        if now == last || Instant::now() > deadline {
            break;
        }
        last = now;
    }
    let grown_kb = rss_kb().saturating_sub(rss0);
    assert!(
        grown_kb < 2048,
        "{sent} pipelined FRAMEs that were never answered grew VmRSS by {grown_kb} kB"
    );
    drop(flooder);
    drop(server);
}
