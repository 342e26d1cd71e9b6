//! End-to-end: a real TCP client against a real [`IngressServer`].
//!
//! The load-bearing test is the first one — the decision stream read off
//! the socket must be **bit-identical** (scores compared as `to_bits`
//! patterns) to what an in-process [`ShardedMonitorPool`] produces for
//! the same frames. The wire is allowed to add latency, never to change
//! a single bit of a decision.
//!
//! The rest pins the service's failure behavior: admission control sheds
//! with a typed BUSY (and readmits once a session ends — elasticity),
//! and every flavor of malformed client gets a typed ERROR plus a closed
//! connection, never a panic, a stalled worker, or a poisoned pool. A
//! client that pipelines its whole stream before reading, and one that
//! stalls mid-FRAME beside a live session, leave every stream bit-exact.

use std::io::ErrorKind;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use context_monitor::serve::{ServeConfig, ShardedMonitorPool};
use context_monitor::{ContextMode, MonitorConfig, TrainStages, TrainedPipeline};
use gestures::Task;
use ingress::client::{ClientError, Connection, ServerMsg};
use ingress::codec::{encode_frame, DecisionMsg, ErrorCode, WIRE_VERSION};
use ingress::server::{IngressServer, ServerConfig};
use jigsaws::{generate, GeneratorConfig};
use kinematics::{Dataset, FeatureSet};

/// Bit-equality key of one decision: `DecisionMsg::key()`.
type Key = (u32, bool, bool, u8, u32);

/// Connects with a 10 s read timeout. Every reply the tests wait for needs
/// the event loop to wake, so a lost wakeup fails a receive instead of
/// hanging the test.
fn connect(addr: impl std::net::ToSocketAddrs) -> Connection {
    let mut conn = Connection::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    conn
}

/// Whether the server closed the connection: end of stream or a socket
/// error. A receive that hit the read timeout is not a close.
fn closed(reply: Result<ServerMsg, ClientError>) -> bool {
    match reply {
        Err(ClientError::Closed) => true,
        Err(ClientError::Io(e)) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
        Ok(_) | Err(ClientError::Proto(_)) => false,
    }
}

fn fixture() -> &'static (Arc<TrainedPipeline>, Dataset) {
    static FIXTURE: OnceLock<(Arc<TrainedPipeline>, Dataset)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ds = generate(&GeneratorConfig::fast(Task::Suturing).with_seed(11));
        let mut cfg = MonitorConfig::fast(FeatureSet::CRG).with_seed(11 ^ 0xA5);
        cfg.train.epochs = 2;
        cfg.train_stride = 6;
        let idx: Vec<usize> = (0..ds.len()).collect();
        (Arc::new(TrainedPipeline::train(&ds, &idx, &cfg)), ds)
    })
}

fn serve_cfg(workers: usize) -> ServeConfig {
    ServeConfig { workers, ..ServeConfig::default() }
}

fn start_server(mode: ContextMode, max_sessions: usize, workers: usize) -> IngressServer {
    let (pipeline, _) = fixture();
    IngressServer::start(
        Arc::clone(pipeline),
        ServerConfig { max_sessions, mode, serve: serve_cfg(workers), ..ServerConfig::default() },
    )
    .expect("bind ingress server")
}

/// Bit-equality key stream of an in-process pool run over `sessions`
/// demo streams — warm-up frames included (as `warm == false` entries),
/// exactly like the wire's DECISION-per-FRAME contract.
fn in_process_keys(mode: ContextMode, sessions: usize, workers: usize) -> Vec<Vec<Key>> {
    let (pipeline, ds) = fixture();
    let mut pool =
        ShardedMonitorPool::with_sessions(Arc::clone(pipeline), mode, serve_cfg(workers), sessions);
    for (s, demo) in ds.demos.iter().take(sessions).enumerate() {
        for (t, frame) in demo.frames.iter().enumerate() {
            match mode {
                ContextMode::Perfect => pool.submit_with_context(s, frame, demo.gestures[t]),
                _ => pool.submit(s, frame).expect("non-Perfect submit cannot fail"),
            }
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

/// Streams demo `s` over one socket session and returns the decision key
/// stream plus the BYE-acknowledged delivery count.
fn socket_session_keys(addr: &str, mode: ContextMode, s: usize) -> (Vec<Key>, u64) {
    let (_, ds) = fixture();
    let demo = &ds.demos[s];
    let mut conn = connect(addr);
    conn.send_hello(mode == ContextMode::Perfect).expect("hello");
    let ServerMsg::Welcome { .. } = conn.recv().expect("welcome") else {
        panic!("expected WELCOME");
    };
    let mut keys = Vec::new();
    for (t, frame) in demo.frames.iter().enumerate() {
        let context = (mode == ContextMode::Perfect).then(|| demo.gestures[t]);
        conn.send_frame(t as u32, context, frame).expect("send frame");
        // Closed loop: wait for this frame's decision before the next
        // frame, so the ingress path (not client buffering) is timed.
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
        ServerMsg::Bye { delivered } => (keys, delivered),
        other => panic!("expected BYE, got {other:?}"),
    }
}

#[test]
fn socket_stream_bit_identical_to_in_process_pool() {
    let mode = ContextMode::Predicted;
    let sessions = 2;
    let server = start_server(mode, 8, 2);
    let addr = server.local_addr().to_string();

    // Both sessions stream concurrently, like real clients would.
    let (a, b) = std::thread::scope(|scope| {
        let addr_a = addr.clone();
        let addr_b = addr.clone();
        let ha = scope.spawn(move || socket_session_keys(&addr_a, mode, 0));
        let hb = scope.spawn(move || socket_session_keys(&addr_b, mode, 1));
        (ha.join().expect("session 0"), hb.join().expect("session 1"))
    });

    let want = in_process_keys(mode, sessions, 2);
    let (_, ds) = fixture();
    assert_eq!(a.1, ds.demos[0].len() as u64, "BYE must account for every frame");
    assert_eq!(b.1, ds.demos[1].len() as u64);
    assert_eq!(a.0, want[0], "session 0: socket stream differs from in-process pool");
    assert_eq!(b.0, want[1], "session 1: socket stream differs from in-process pool");
    assert!(a.0.iter().any(|k| k.1), "stream never warmed up — vacuous equality");

    let stats = server.stats();
    assert_eq!(stats.admitted, 2);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.decisions, (ds.demos[0].len() + ds.demos[1].len()) as u64);
}

/// Two sessions placed on one event loop share its engines' shard and its
/// ticks, and each stream still equals the in-process pool's bit for bit.
#[test]
fn sessions_sharing_one_loop_bit_identical_to_in_process_pool() {
    let mode = ContextMode::Predicted;
    let server = start_server(mode, 8, 1);
    let addr = server.local_addr().to_string();
    let (a, b) = std::thread::scope(|scope| {
        let ha = scope.spawn(|| socket_session_keys(&addr, mode, 0));
        let hb = scope.spawn(|| socket_session_keys(&addr, mode, 1));
        (ha.join().expect("session 0"), hb.join().expect("session 1"))
    });
    let want = in_process_keys(mode, 2, 1);
    assert_eq!(a.0, want[0], "session 0: socket stream differs from in-process pool");
    assert_eq!(b.0, want[1], "session 1: socket stream differs from in-process pool");
}

#[test]
fn perfect_context_over_the_wire_bit_identical() {
    let mode = ContextMode::Perfect;
    let server = start_server(mode, 4, 2);
    let addr = server.local_addr().to_string();
    let (keys, delivered) = socket_session_keys(&addr, mode, 0);
    let want = in_process_keys(mode, 1, 2);
    assert_eq!(keys, want[0]);
    assert!(delivered > 0);
}

/// Retries HELLO until admitted (the slot of a finished/dead session is
/// released asynchronously by the pool thread).
fn admit_with_retry(addr: &str, deadline: Duration) -> Connection {
    let start = Instant::now();
    loop {
        let mut conn = connect(addr);
        conn.send_hello(false).expect("hello");
        match conn.recv().expect("reply") {
            ServerMsg::Welcome { .. } => return conn,
            ServerMsg::Busy { .. } => {
                assert!(start.elapsed() < deadline, "slot never freed: BUSY past the deadline");
                std::thread::sleep(Duration::from_millis(10));
            }
            other => panic!("expected WELCOME or BUSY, got {other:?}"),
        }
    }
}

#[test]
fn admission_cap_sheds_with_typed_busy_then_readmits() {
    let server = start_server(ContextMode::Predicted, 2, 1);
    let addr = server.local_addr().to_string();

    let mut first = connect(&addr);
    first.send_hello(false).expect("hello");
    assert!(matches!(first.recv().expect("welcome"), ServerMsg::Welcome { .. }));
    let mut second = connect(&addr);
    second.send_hello(false).expect("hello");
    assert!(matches!(second.recv().expect("welcome"), ServerMsg::Welcome { .. }));

    // At the cap: the third HELLO is shed with a typed BUSY naming the
    // cap, and the connection closes — it is never queued.
    let mut third = connect(&addr);
    third.send_hello(false).expect("hello");
    match third.recv().expect("busy") {
        ServerMsg::Busy { active, cap } => {
            assert_eq!(cap, 2);
            assert_eq!(active, 2);
        }
        other => panic!("expected BUSY, got {other:?}"),
    }
    assert!(closed(third.recv()), "server must close a shed connection");

    // A clean GOODBYE frees the slot for a new session (elasticity).
    second.send_goodbye().expect("goodbye");
    assert!(matches!(second.recv().expect("bye"), ServerMsg::Bye { delivered: 0 }));
    let _readmitted = admit_with_retry(&addr, Duration::from_secs(5));

    let stats = server.stats();
    assert!(stats.shed >= 1, "the third HELLO must have been shed");
    assert_eq!(stats.admitted, 3);
}

#[test]
fn abrupt_disconnect_frees_the_slot() {
    let server = start_server(ContextMode::Predicted, 1, 1);
    let addr = server.local_addr().to_string();

    let mut doomed = connect(&addr);
    doomed.send_hello(false).expect("hello");
    assert!(matches!(doomed.recv().expect("welcome"), ServerMsg::Welcome { .. }));
    // Stream a frame so the session has real in-flight state, then die.
    let (_, ds) = fixture();
    doomed.send_frame(0, None, &ds.demos[0].frames[0]).expect("frame");
    drop(doomed);

    // Drain-on-disconnect: the server notices EOF, removes the session,
    // and the single slot becomes admittable again.
    let _next = admit_with_retry(&addr, Duration::from_secs(5));
}

/// Expects the typed error then the close, in order.
fn expect_error_then_close(conn: &mut Connection, code: ErrorCode) {
    match conn.recv().expect("typed error before close") {
        ServerMsg::Error { code: got } => assert_eq!(got, code),
        other => panic!("expected ERROR({code:?}), got {other:?}"),
    }
    assert!(closed(conn.recv()), "connection must close after a protocol error");
}

#[test]
fn malformed_clients_get_typed_errors_and_the_service_survives() {
    let server = start_server(ContextMode::Predicted, 4, 2);
    let addr = server.local_addr().to_string();

    // Garbage kind byte inside a well-framed message.
    let mut conn = connect(&addr);
    conn.send_raw(&[3, 0, 0, 0, WIRE_VERSION, 0x5A, 0]).expect("raw");
    expect_error_then_close(&mut conn, ErrorCode::BadKind);

    // Oversized length prefix: rejected before any allocation.
    let mut conn = connect(&addr);
    conn.send_raw(&u32::MAX.to_le_bytes()).expect("raw");
    expect_error_then_close(&mut conn, ErrorCode::Oversized);

    // Wrong version byte.
    let mut conn = connect(&addr);
    conn.send_raw(&[2, 0, 0, 0, WIRE_VERSION + 1, 0x01]).expect("raw");
    expect_error_then_close(&mut conn, ErrorCode::BadVersion);

    // FRAME before HELLO: well-formed, wrong state.
    let mut conn = connect(&addr);
    let (_, ds) = fixture();
    conn.send_frame(0, None, &ds.demos[0].frames[0]).expect("frame");
    expect_error_then_close(&mut conn, ErrorCode::UnexpectedMessage);

    // Admitted, then a sequence gap.
    let mut conn = admit_with_retry(&addr, Duration::from_secs(5));
    conn.send_frame(5, None, &ds.demos[0].frames[0]).expect("frame");
    expect_error_then_close(&mut conn, ErrorCode::BadSequence);

    // Admitted, then a frame with the wrong manipulator count.
    let mut conn = admit_with_retry(&addr, Duration::from_secs(5));
    let mut fat = ds.demos[0].frames[0].clone();
    fat.manipulators.push(fat.manipulators[0]);
    conn.send_frame(0, None, &fat).expect("frame");
    expect_error_then_close(&mut conn, ErrorCode::BadShape);

    // Context label under a non-Perfect server.
    let mut conn = admit_with_retry(&addr, Duration::from_secs(5));
    conn.send_frame(0, Some(ds.demos[0].gestures[0]), &ds.demos[0].frames[0]).expect("frame");
    expect_error_then_close(&mut conn, ErrorCode::BadContext);

    // Admitted, then a NaN kinematic variable.
    let mut conn = admit_with_retry(&addr, Duration::from_secs(5));
    let mut nan = ds.demos[0].frames[0].clone();
    nan.manipulators[0].position.x = f32::NAN;
    conn.send_frame(0, None, &nan).expect("frame");
    expect_error_then_close(&mut conn, ErrorCode::Malformed);

    assert_eq!(server.stats().protocol_errors, 8);

    // No panicked worker, no stalled pool: a well-formed session still
    // gets bit-exact service after all of the abuse above.
    let (keys, _) = socket_session_keys(&addr, ContextMode::Predicted, 0);
    let want = in_process_keys(ContextMode::Predicted, 1, 2);
    assert_eq!(keys, want[0], "service must stay bit-exact after malformed clients");
}

/// The server reads its arm count from the pipeline: one fitted on
/// one-arm frames serves one-arm FRAMEs and answers a two-arm FRAME with
/// ERROR(BadShape), never with an engine fed the wrong width.
#[test]
fn one_arm_pipeline_serves_one_arm_frames_and_rejects_two() {
    let (_, ds) = fixture();
    let mut one_arm = ds.clone();
    for demo in &mut one_arm.demos {
        for frame in &mut demo.frames {
            frame.manipulators.truncate(1);
        }
    }
    let cfg = MonitorConfig::fast(FeatureSet::CRG).with_seed(7);
    let idx: Vec<usize> = (0..one_arm.len()).collect();
    let untrained = TrainStages { gesture: false, errors: false };
    let (pipeline, _) = TrainedPipeline::train_stages(&one_arm, &idx, &cfg, untrained);
    assert_eq!(pipeline.manipulators(), 1);
    let server = IngressServer::start(
        Arc::new(pipeline),
        ServerConfig { max_sessions: 2, serve: serve_cfg(1), ..ServerConfig::default() },
    )
    .expect("bind ingress server");

    let mut conn = connect(server.local_addr());
    conn.send_hello(false).expect("hello");
    assert!(matches!(conn.recv().expect("welcome"), ServerMsg::Welcome { .. }));
    let demo = &one_arm.demos[0];
    for (t, frame) in demo.frames.iter().take(3).enumerate() {
        conn.send_frame(t as u32, None, frame).expect("send frame");
        match conn.recv().expect("decision") {
            ServerMsg::Decision(d) => assert_eq!(d.seq, t as u32),
            other => panic!("expected DECISION {t}, got {other:?}"),
        }
    }
    conn.send_frame(3, None, &ds.demos[0].frames[3]).expect("send a two-arm frame");
    expect_error_then_close(&mut conn, ErrorCode::BadShape);
    assert_eq!(server.stats().protocol_errors, 1);
}

#[test]
fn pipelined_client_gets_every_decision_then_bye() {
    // HELLO, a whole demo's FRAMEs and GOODBYE go out before the client
    // reads a byte, so GOODBYE lands while decisions are still in flight:
    // BYE must wait for the last of them.
    let mode = ContextMode::Predicted;
    let server = start_server(mode, 4, 2);
    let (_, ds) = fixture();
    let demo = &ds.demos[0];
    let mut conn = connect(server.local_addr());
    conn.send_hello(false).expect("hello");
    for (t, frame) in demo.frames.iter().enumerate() {
        conn.send_frame(t as u32, None, frame).expect("send frame");
    }
    conn.send_goodbye().expect("goodbye");

    assert!(matches!(conn.recv().expect("welcome"), ServerMsg::Welcome { .. }));
    let mut keys = Vec::new();
    for t in 0..demo.len() {
        match conn.recv().expect("decision") {
            ServerMsg::Decision(d) => {
                assert_eq!(d.seq, t as u32, "decisions must arrive in frame order");
                keys.push(d.key());
            }
            other => panic!("expected DECISION {t}, got {other:?}"),
        }
    }
    match conn.recv().expect("bye") {
        ServerMsg::Bye { delivered } => assert_eq!(delivered, demo.len() as u64),
        other => panic!("expected BYE, got {other:?}"),
    }
    assert_eq!(keys, in_process_keys(mode, 1, 2)[0], "pipelined stream differs from the pool");
}

#[test]
fn stalled_client_does_not_hold_up_other_sessions() {
    let mode = ContextMode::Predicted;
    let server = start_server(mode, 4, 2);
    let addr = server.local_addr().to_string();
    let (_, ds) = fixture();

    // An admitted client sends half of a FRAME and goes quiet.
    let mut stalled = connect(&addr);
    stalled.send_hello(false).expect("hello");
    assert!(matches!(stalled.recv().expect("welcome"), ServerMsg::Welcome { .. }));
    let mut frame = BytesMut::new();
    encode_frame(&mut frame, 0, None, &ds.demos[1].frames[0]);
    let (head, tail) = frame.split_at(frame.len() / 2);
    stalled.send_raw(head).expect("half a frame");

    // Another session streams a demo closed-loop meanwhile. A server that
    // blocked on the stalled socket would never answer it.
    let (tx, rx) = std::sync::mpsc::channel();
    let streamer = std::thread::spawn(move || {
        let _ = tx.send(socket_session_keys(&addr, mode, 0));
    });
    let (keys, delivered) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("session failed, or blocked behind the stalled client");
    streamer.join().expect("streaming thread");
    assert_eq!(delivered, ds.demos[0].len() as u64);
    assert_eq!(keys, in_process_keys(mode, 1, 2)[0], "stream differs beside a stalled client");

    // The stalled frame completes once the rest of it arrives.
    stalled.send_raw(tail).expect("rest of the frame");
    match stalled.recv().expect("decision") {
        ServerMsg::Decision(d) => assert_eq!(d.seq, 0),
        other => panic!("expected DECISION, got {other:?}"),
    }
}
