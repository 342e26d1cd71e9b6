//! Paced open-loop load generator for the ingress service.
//!
//! Drives `sessions` concurrent synthetic sessions, multiplexed over a
//! bounded number of driver threads (thousands of sessions do not need
//! thousands of client threads), each at the paper's 30 Hz kinematic rate:
//! session `s` of `n` sends frame `k` at `start + (k + s / n) ×
//! FRAME_PERIOD`, so the sessions' phases spread evenly over one period,
//! and it sends on schedule whether or not its earlier decisions came
//! back. Offered load is `30 × sessions` frames per second, as a fleet of
//! robots offers it, and `repro_serve`'s sweep finds the knee by raising
//! the session count.
//!
//! Each DECISION is timed from its FRAME's *scheduled* send, so a server
//! backlog and the generator's own lateness both count against it; the
//! lateness (actual minus scheduled send) is reported on its own as the
//! send lag. Each driver thread has a second thread that sleeps until each
//! of its sessions' frames is due and sends it, while the driver waits in
//! `poll(2)` on the sockets with no timer, so a reply is timed as it
//! arrives. Quantiles are nearest-rank and carry their sample count.
//!
//! Latency samples come from **admitted** sessions only; shed sessions
//! are counted, not timed — BUSY is a constant-time reply by design.

use std::ffi::c_int;
use std::io;
use std::os::fd::AsRawFd;
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use kinematics::{KinematicSample, ManipulatorState, Mat3, Vec3};

use crate::client::{Connection, ServerMsg};
use crate::poll::{wait, PollFd, POLLIN};

/// The paper's kinematic frame interval: every session sends one FRAME
/// per period, 30 per second.
pub const FRAME_PERIOD: Duration = Duration::from_nanos(1_000_000_000 / 30);

/// One load point.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Concurrent sessions to offer.
    pub sessions: usize,
    /// Frames each admitted session streams, one per [`FRAME_PERIOD`],
    /// before GOODBYE.
    pub frames_per_session: usize,
    /// Driver threads multiplexing the sessions (clamped to
    /// `1..=sessions`).
    pub threads: usize,
    /// Manipulators per synthetic frame (must match the served
    /// pipeline).
    pub manipulators: usize,
    /// Budget of a decision, from its frame's scheduled send, used for
    /// the deadline-miss count.
    pub deadline_ms: f64,
    /// Seed for the deterministic synthetic kinematics.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            sessions: 8,
            frames_per_session: 100,
            threads: 8,
            manipulators: 2,
            deadline_ms: 33.3,
            seed: 2020,
        }
    }
}

/// Nearest-rank quantiles of a set of durations, in ms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// How many durations were measured.
    pub samples: usize,
    /// Median.
    pub p50_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Worst observed.
    pub max_ms: f64,
    /// Mean.
    pub mean_ms: f64,
}

impl LatencySummary {
    /// Summarizes `ms`, sorting it; all-zero when it is empty.
    fn of(ms: &mut [f64]) -> Self {
        ms.sort_by(f64::total_cmp);
        let n = ms.len();
        // The smallest sample with at least `pct`% of them at or below it.
        let rank = |pct: usize| ms.get((n * pct).div_ceil(100).max(1) - 1).copied();
        Self {
            samples: n,
            p50_ms: rank(50).unwrap_or(0.0),
            p99_ms: rank(99).unwrap_or(0.0),
            max_ms: ms.last().copied().unwrap_or(0.0),
            mean_ms: if n == 0 { 0.0 } else { ms.iter().sum::<f64>() / n as f64 },
        }
    }
}

/// What one load point measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Sessions offered (`LoadgenConfig::sessions`).
    pub offered: usize,
    /// Sessions admitted (WELCOME).
    pub admitted: usize,
    /// Sessions shed (BUSY).
    pub shed: usize,
    /// Sessions that failed with an unexpected socket/protocol error.
    pub errors: usize,
    /// Frames sent by admitted sessions.
    pub frames_sent: u64,
    /// Decisions received by admitted sessions.
    pub decisions: u64,
    /// Decisions later than `LoadgenConfig::deadline_ms`.
    pub deadline_misses: u64,
    /// Each decision's latency from its frame's scheduled send.
    pub latency: LatencySummary,
    /// How late each frame left past its scheduled send.
    pub send_lag: LatencySummary,
    /// From the first scheduled send to the last decision, seconds.
    pub elapsed_s: f64,
    /// Decisions per second across all admitted sessions.
    pub decisions_per_sec: f64,
}

/// splitmix64 — tiny deterministic generator for synthetic kinematics.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A float in `[-1, 1)` from the generator's top bits.
fn unit(state: &mut u64) -> f32 {
    ((splitmix(state) >> 40) as f32 / (1u64 << 23) as f32) * 2.0 - 1.0
}

/// Fills `out` with the deterministic synthetic frame `(seed, t)` —
/// same inputs, bit-identical frame, on every thread and every run.
pub fn synthetic_sample_into(seed: u64, t: u64, manipulators: usize, out: &mut KinematicSample) {
    out.manipulators.clear();
    for m in 0..manipulators as u64 {
        let mut state =
            seed ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ m.wrapping_mul(0xD134_2543_DE82_EF95);
        let position = Vec3::new(unit(&mut state), unit(&mut state), unit(&mut state));
        let mut rotation = Mat3::default();
        for cell in &mut rotation.m {
            *cell = unit(&mut state);
        }
        out.manipulators.push(ManipulatorState {
            position,
            rotation,
            grasper_angle: unit(&mut state),
            linear_velocity: Vec3::new(unit(&mut state), unit(&mut state), unit(&mut state)),
            angular_velocity: Vec3::new(unit(&mut state), unit(&mut state), unit(&mut state)),
        });
    }
}

/// An admitted session as its receiving thread sees it.
struct Session {
    conn: Connection,
    /// Offset of this session's schedule within the period.
    phase: Duration,
    got: u64,
    failed: bool,
}

/// The same session's sending end: a second handle on its socket.
struct Outlet {
    conn: Connection,
    seed: u64,
    phase: Duration,
    failed: bool,
}

/// When frame `seq` of a session with `phase` is due to leave.
fn due(start: Instant, phase: Duration, seq: u64) -> Instant {
    start + phase + FRAME_PERIOD * seq as u32
}

/// How long a receiving thread waits with no decision arriving before it
/// gives up on the sessions still open.
const STALL: Duration = Duration::from_secs(10);

#[derive(Default)]
struct ThreadOut {
    admitted: usize,
    shed: usize,
    errors: usize,
    frames_sent: u64,
    decisions: u64,
    latencies_ms: Vec<f64>,
    send_lag_ms: Vec<f64>,
    last_decision: Option<Instant>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs one load point against a serving ingress at `addr`.
pub fn run(addr: &str, cfg: &LoadgenConfig) -> io::Result<LoadReport> {
    let threads = cfg.threads.clamp(1, cfg.sessions.max(1));
    let admitted_all = Barrier::new(threads);
    let epoch = OnceLock::new();
    let mut merged = ThreadOut::default();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let ids: Vec<usize> = (worker..cfg.sessions).step_by(threads).collect();
                let (admitted_all, epoch) = (&admitted_all, &epoch);
                scope.spawn(move || drive_sessions(addr, cfg, &ids, admitted_all, epoch))
            })
            .collect();
        for handle in handles {
            let out = handle.join().unwrap_or_default();
            merged.admitted += out.admitted;
            merged.shed += out.shed;
            merged.errors += out.errors;
            merged.frames_sent += out.frames_sent;
            merged.decisions += out.decisions;
            merged.latencies_ms.extend(out.latencies_ms);
            merged.send_lag_ms.extend(out.send_lag_ms);
            merged.last_decision = merged.last_decision.max(out.last_decision);
        }
    });

    let elapsed_s = match (epoch.get(), merged.last_decision) {
        (Some(&start), Some(last)) => last.saturating_duration_since(start).as_secs_f64(),
        _ => 0.0,
    };
    let deadline_misses =
        merged.latencies_ms.iter().filter(|&&ms| ms > cfg.deadline_ms).count() as u64;
    Ok(LoadReport {
        offered: cfg.sessions,
        admitted: merged.admitted,
        shed: merged.shed,
        errors: merged.errors,
        frames_sent: merged.frames_sent,
        decisions: merged.decisions,
        deadline_misses,
        latency: LatencySummary::of(&mut merged.latencies_ms),
        send_lag: LatencySummary::of(&mut merged.send_lag_ms),
        elapsed_s,
        decisions_per_sec: if elapsed_s > 0.0 { merged.decisions as f64 / elapsed_s } else { 0.0 },
    })
}

/// Drives this thread's share of the sessions: admits them all, waits
/// until every thread has, then sends their frames on schedule from a
/// second thread while this one times the decisions, then GOODBYE/BYE
/// each session.
fn drive_sessions(
    addr: &str,
    cfg: &LoadgenConfig,
    ids: &[usize],
    admitted_all: &Barrier,
    epoch: &OnceLock<Instant>,
) -> ThreadOut {
    let mut out = ThreadOut::default();
    let mut sessions: Vec<Session> = Vec::new();
    let mut outlets: Vec<Outlet> = Vec::new();

    for &id in ids {
        let mut conn = match Connection::connect(addr) {
            Ok(c) => c,
            Err(_) => {
                out.errors += 1;
                continue;
            }
        };
        if conn.send_hello(false).is_err() {
            out.errors += 1;
            continue;
        }
        match conn.recv() {
            Ok(ServerMsg::Welcome { .. }) => {
                let Ok(outlet) = conn.try_clone() else {
                    out.errors += 1;
                    continue;
                };
                if conn.set_nonblocking(true).is_err() {
                    out.errors += 1;
                    continue;
                }
                out.admitted += 1;
                let phase = FRAME_PERIOD * id as u32 / cfg.sessions as u32;
                let seed = cfg.seed ^ (id as u64).wrapping_mul(0xA076_1D64_78BD_642F);
                sessions.push(Session { conn, phase, got: 0, failed: false });
                outlets.push(Outlet { conn: outlet, seed, phase, failed: false });
            }
            Ok(ServerMsg::Busy { .. }) => out.shed += 1,
            _ => out.errors += 1,
        }
    }
    admitted_all.wait();
    let start = *epoch.get_or_init(Instant::now);

    let frames = cfg.frames_per_session as u64;
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| send_paced(cfg, start, &mut outlets));
        receive(&mut sessions, start, frames, &mut out);
        out.send_lag_ms = sender.join().unwrap_or_default();
        out.frames_sent = out.send_lag_ms.len() as u64;
    });

    // Clean teardown: GOODBYE, wait for BYE.
    for sess in &mut sessions {
        if sess.failed {
            continue; // the socket drops on scope exit
        }
        if sess.conn.set_nonblocking(false).is_err()
            || sess.conn.set_read_timeout(Some(STALL)).is_err()
            || sess.conn.send_goodbye().is_err()
        {
            out.errors += 1;
            continue;
        }
        loop {
            match sess.conn.recv() {
                Ok(ServerMsg::Bye { .. }) => break,
                Ok(ServerMsg::Decision(_)) => {}
                Ok(_) | Err(_) => {
                    out.errors += 1;
                    break;
                }
            }
        }
    }
    out
}

/// Sends frame `seq` of every session in phase order, then `seq + 1`,
/// sleeping until each is due. Returns how late each sent frame left, in
/// ms.
fn send_paced(cfg: &LoadgenConfig, start: Instant, outlets: &mut [Outlet]) -> Vec<f64> {
    let mut sample = KinematicSample::default();
    let mut lag_ms = Vec::with_capacity(outlets.len() * cfg.frames_per_session);
    for seq in 0..cfg.frames_per_session as u64 {
        for outlet in outlets.iter_mut().filter(|o| !o.failed) {
            let at = due(start, outlet.phase, seq);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            synthetic_sample_into(outlet.seed, seq, cfg.manipulators, &mut sample);
            let lag = ms(at.elapsed());
            // A broken socket fails the session's receiving end too.
            outlet.failed = outlet.conn.send_frame(seq as u32, None, &sample).is_err();
            if !outlet.failed {
                lag_ms.push(lag);
            }
        }
    }
    lag_ms
}

/// Waits in `poll(2)` on every session still owed decisions and times each
/// DECISION from its frame's scheduled send, until each session has its
/// `frames` decisions, fails, or nothing arrives for [`STALL`].
fn receive(sessions: &mut [Session], start: Instant, frames: u64, out: &mut ThreadOut) {
    let mut fds: Vec<PollFd> = Vec::with_capacity(sessions.len());
    let mut waiting: Vec<usize> = Vec::with_capacity(sessions.len());
    let mut last_progress = Instant::now();
    loop {
        fds.clear();
        waiting.clear();
        for (i, sess) in sessions.iter().enumerate() {
            if !sess.failed && sess.got < frames {
                fds.push(PollFd::new(sess.conn.stream.as_raw_fd(), POLLIN));
                waiting.push(i);
            }
        }
        if fds.is_empty() {
            break;
        }
        wait(&mut fds, STALL.as_millis() as c_int);
        let now = Instant::now();
        for (fd, &i) in fds.iter().zip(&waiting) {
            if !fd.readable() {
                continue;
            }
            last_progress = now;
            let sess = &mut sessions[i];
            loop {
                match sess.conn.try_recv() {
                    Ok(None) => break,
                    Ok(Some(ServerMsg::Decision(d))) => {
                        let sent = due(start, sess.phase, u64::from(d.seq));
                        out.latencies_ms.push(ms(now.saturating_duration_since(sent)));
                        sess.got += 1;
                        out.decisions += 1;
                        out.last_decision = Some(now);
                    }
                    Ok(Some(_)) | Err(_) => {
                        out.errors += 1;
                        sess.failed = true;
                        break;
                    }
                }
            }
        }
        if now.duration_since(last_progress) >= STALL {
            for &i in &waiting {
                if !sessions[i].failed {
                    sessions[i].failed = true;
                    out.errors += 1;
                }
            }
        }
    }
}
