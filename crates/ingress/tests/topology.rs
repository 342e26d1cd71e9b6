//! Resource shape of the ingress service: its `workers` event loops are its
//! only threads at any connection count, a finished session leaves no
//! memory behind, an idle server uses no CPU, and dropping it wakes every
//! loop's wait.
//!
//! The test reads process-wide `/proc/self` counters, so it must stay the
//! only test in this file: a test running beside it would add its own
//! threads, memory and CPU time.
#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use context_monitor::serve::ServeConfig;
use context_monitor::{MonitorConfig, TrainedPipeline};
use gestures::Task;
use ingress::client::{Connection, ServerMsg};
use ingress::server::{IngressServer, ServerConfig};
use jigsaws::{generate, GeneratorConfig};
use kinematics::FeatureSet;

/// The leading number of a `/proc/self/status` field (`Threads`, or
/// `VmRSS` in kB).
fn status(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"))
}

/// `Threads` once it reads `want`, else its last reading after 5 s. A
/// joined thread can stay counted for a moment after `join` returns, so
/// the training threads may still show right after training.
fn threads_settling_at(want: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let threads = status("Threads");
        if threads == want || Instant::now() > deadline {
            return threads;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// CPU time every thread of this process has run so far: the sum of the
/// first field of `/proc/self/task/*/schedstat`, in nanoseconds.
fn cpu_ns() -> u64 {
    let per_thread: Vec<u64> = std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        // A thread that exits meanwhile leaves nothing to read.
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok())
        .map(|line| line.split_whitespace().next().and_then(|ns| ns.parse().ok()))
        .map(|ns| ns.expect("schedstat starts with the thread's CPU time in ns"))
        .collect();
    assert!(!per_thread.is_empty(), "no /proc/self/task/*/schedstat (kernel without schedstats)");
    per_thread.iter().sum()
}

fn open(addr: &str) -> Connection {
    let mut conn = Connection::connect(addr).expect("connect");
    // A lost wakeup in the event loop fails a receive instead of hanging.
    conn.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    conn.send_hello(false).expect("hello");
    assert!(matches!(conn.recv().expect("welcome"), ServerMsg::Welcome { .. }));
    conn
}

fn close(mut conn: Connection) {
    conn.send_goodbye().expect("goodbye");
    assert!(matches!(conn.recv().expect("bye"), ServerMsg::Bye { delivered: 0 }));
}

#[test]
fn workers_threads_and_flat_memory_across_sessions() {
    let before = status("Threads");
    let ds = generate(&GeneratorConfig::fast(Task::Suturing).with_seed(11));
    let mut cfg = MonitorConfig::fast(FeatureSet::CRG).with_seed(11 ^ 0xA5);
    cfg.train.epochs = 2;
    cfg.train_stride = 6;
    let idx: Vec<usize> = (0..ds.len()).collect();
    let pipeline = Arc::new(TrainedPipeline::train(&ds, &idx, &cfg));

    let workers = 2;
    let server = IngressServer::start(
        pipeline,
        ServerConfig {
            max_sessions: 16,
            serve: ServeConfig { workers, ..ServeConfig::default() },
            ..ServerConfig::default()
        },
    )
    .expect("bind ingress server");
    let addr = server.local_addr().to_string();
    let serving = before + workers as u64;
    assert_eq!(threads_settling_at(serving), serving, "start adds {workers} event loops");

    let sessions: Vec<Connection> = (0..8).map(|_| open(&addr)).collect();
    assert_eq!(status("Threads"), serving, "open sessions must not add threads");
    sessions.into_iter().for_each(close);

    // Warm the allocator first, so the measurement sees steady state.
    for _ in 0..20 {
        close(open(&addr));
    }
    let rss_kb = status("VmRSS");
    for _ in 0..300 {
        close(open(&addr));
    }
    let grown_kb = status("VmRSS").saturating_sub(rss_kb);
    assert!(grown_kb < 2048, "300 sequential sessions grew VmRSS by {grown_kb} kB");

    // Two admitted sessions that send nothing, one on each loop: the loops
    // must both be blocked, not polling on a timer.
    let idle: Vec<Connection> = (0..2).map(|_| open(&addr)).collect();
    let cpu0 = cpu_ns();
    std::thread::sleep(Duration::from_secs(1));
    let idle_ms = (cpu_ns() - cpu0) as f64 / 1e6;
    assert!(idle_ms < 10.0, "an idle server with 2 sessions used {idle_ms:.2} ms of CPU in 1 s");

    // Dropping the server must wake every loop's wait. Drop it on another
    // thread, so a loop that never wakes fails the test instead of hanging.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        drop(server);
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(1))
        .expect("dropping the server with 2 idle sessions took over 1 s");
    drop(idle);
}
