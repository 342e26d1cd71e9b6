//! Paced open-loop load over the ingress wire protocol.
//!
//! Each connection runs on its own thread and sends every frame at its
//! *scheduled* time, whether or not earlier decisions came back; latency
//! is taken from the scheduled time, so a stall that delays later sends
//! counts against them. Between sends the thread polls the socket without
//! blocking (`Connection::try_recv`) and sleeps briefly when idle; the
//! mean idle poll interval is the receive resolution it reports.
//!
//! A connection streams one or more procedures. Each procedure is one
//! session on its own TCP connection: HELLO → WELCOME → frames → GOODBYE
//! → BYE (the server closes after BYE). Procedures run back to back on a
//! fixed slot grid: procedure `k`, frame `j` is due at
//! `t0 + phase + (k * (frames + gap) + j) * period`, where the two
//! connections' phases differ by half a period.

use crate::model::Digest;
use crate::trace::{frame_id, SpanRef, Tracer, NO_SPAN};
use ingress::client::{ClientError, Connection, ServerMsg};
use kinematics::KinematicSample;
use std::time::{Duration, Instant};

/// Which frames a session streams: `streams[demo]` from `offset`, cycled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSpec {
    pub demo: usize,
    pub offset: usize,
}

impl StreamSpec {
    pub fn frame<'a>(&self, streams: &'a [Vec<KinematicSample>], j: usize) -> &'a KinematicSample {
        let s = &streams[self.demo];
        &s[(self.offset + j) % s.len()]
    }
}

/// One connection's schedule.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Slot length (frame interval).
    pub period: Duration,
    /// Offset of this connection's grid from `t0`: connections are
    /// staggered so their frames do not arrive in lockstep.
    pub phase: Duration,
    /// Frames per procedure.
    pub frames: usize,
    /// Empty slots between procedures, for GOODBYE/BYE and the next
    /// HELLO/WELCOME.
    pub gap: usize,
    /// The procedures, in order.
    pub procedures: Vec<StreamSpec>,
}

impl Plan {
    fn due(&self, t0: Instant, k: usize, j: usize) -> Instant {
        t0 + self.phase + self.period.mul_f64(self.slot(k, j) as f64)
    }

    pub fn slot(&self, k: usize, j: usize) -> u64 {
        (k * (self.frames + self.gap) + j) as u64
    }
}

/// What one procedure (session) saw.
#[derive(Debug, Clone)]
pub struct SessionRecord {
    pub spec: StreamSpec,
    /// Server-assigned session id.
    pub session: u64,
    pub frames_sent: usize,
    pub digest: Digest,
    /// Per frame: latency from its scheduled send in ms; NaN if no decision.
    pub latency_ms: Vec<f64>,
    /// HELLO sent → WELCOME decoded, ms.
    pub open_ms: f64,
    /// GOODBYE sent → BYE decoded, ms (NaN if no BYE).
    pub close_ms: f64,
}

/// Everything one connection thread measured.
pub struct ConnReport {
    pub plan: Plan,
    pub sessions: Vec<SessionRecord>,
    /// Actual send start minus scheduled time, ms, per frame.
    pub send_lag_ms: Vec<f64>,
    /// Idle polls and the wall time between an idle poll and the next.
    pub idle_polls: u64,
    pub idle_time: Duration,
    /// Protocol or socket failures, and sessions turned away with BUSY.
    pub errors: Vec<String>,
    pub tracer: Tracer,
}

/// How long an idle connection sleeps between polls.
const POLL_SLEEP: Duration = Duration::from_micros(20);

/// Gives up on a session that shows no progress for this long.
const STALL_LIMIT: Duration = Duration::from_secs(10);

/// A session admitted before the timed run (its HELLO→WELCOME time is
/// part of set-up).
pub struct Admitted {
    pub conn: Connection,
    pub session: u64,
    pub open_ms: f64,
}

/// Connects and opens one session, polling for WELCOME.
pub fn open_session(addr: &str) -> Result<Admitted, String> {
    let mut conn = Connection::connect(addr).map_err(|e| format!("connect: {e}"))?;
    conn.set_nonblocking(true).map_err(|e| format!("nonblocking: {e}"))?;
    let start = Instant::now();
    conn.send_hello(false).map_err(|e| format!("hello: {e}"))?;
    loop {
        match conn.try_recv() {
            Ok(Some(ServerMsg::Welcome { session })) => {
                let open_ms = start.elapsed().as_secs_f64() * 1e3;
                return Ok(Admitted { conn, session, open_ms });
            }
            Ok(Some(ServerMsg::Busy { active, cap })) => {
                return Err(format!("shed: BUSY {active}/{cap}"))
            }
            Ok(Some(other)) => return Err(format!("expected WELCOME, got {other:?}")),
            Ok(None) if start.elapsed() > STALL_LIMIT => return Err("no WELCOME".into()),
            Ok(None) => std::thread::sleep(POLL_SLEEP),
            Err(e) => return Err(format!("awaiting WELCOME: {e}")),
        }
    }
}

enum Phase {
    Streaming,
    Closing { goodbye_at: Instant },
}

/// Runs `plan` on one connection thread from `t0`. `first` is the
/// already-admitted session of procedure 0; later procedures connect to
/// `addr` during their gap.
pub fn run_connection(
    addr: &str,
    streams: &[Vec<KinematicSample>],
    plan: Plan,
    first: Admitted,
    t0: Instant,
    mut tracer: Tracer,
) -> ConnReport {
    let mut report = ConnReport {
        sessions: Vec::with_capacity(plan.procedures.len()),
        send_lag_ms: Vec::with_capacity(plan.frames * plan.procedures.len()),
        idle_polls: 0,
        idle_time: Duration::ZERO,
        errors: Vec::new(),
        tracer: Tracer::new(false, t0),
        plan: plan.clone(),
    };
    let mut admitted = Some(first);
    for (k, &spec) in plan.procedures.iter().enumerate() {
        let Admitted { conn, session, open_ms } = match admitted.take() {
            Some(a) => a,
            None => match open_traced(addr, &mut tracer) {
                Ok(a) => a,
                Err(e) => {
                    report.errors.push(format!("procedure {k}: {e}"));
                    continue;
                }
            },
        };
        let record = SessionRecord {
            spec,
            session,
            frames_sent: 0,
            digest: Digest::default(),
            latency_ms: vec![f64::NAN; plan.frames],
            open_ms,
            close_ms: f64::NAN,
        };
        let record = run_procedure(conn, streams, &plan, k, t0, record, &mut report, &mut tracer);
        report.sessions.push(record);
    }
    report.tracer = tracer;
    report
}

fn open_traced(addr: &str, tracer: &mut Tracer) -> Result<Admitted, String> {
    let start = Instant::now();
    let a = open_session(addr)?;
    tracer.record(
        "ingress.session.open",
        frame_id(a.session, u32::MAX),
        NO_SPAN,
        start,
        Instant::now(),
    );
    Ok(a)
}

#[allow(clippy::too_many_arguments)]
fn run_procedure(
    mut conn: Connection,
    streams: &[Vec<KinematicSample>],
    plan: &Plan,
    k: usize,
    t0: Instant,
    mut rec: SessionRecord,
    report: &mut ConnReport,
    tracer: &mut Tracer,
) -> SessionRecord {
    let mut phase = Phase::Streaming;
    let mut next_seq: u32 = 0; // next decision expected
    let mut roots: Vec<SpanRef> =
        if tracer.enabled() { vec![NO_SPAN; plan.frames] } else { Vec::new() };
    let mut last_progress = Instant::now();
    loop {
        let now = Instant::now();
        if let Phase::Streaming = phase {
            if rec.frames_sent < plan.frames {
                let j = rec.frames_sent;
                let due = plan.due(t0, k, j);
                if now >= due {
                    let id = frame_id(rec.session, j as u32);
                    let start = Instant::now();
                    let sent = conn.send_frame(j as u32, None, rec.spec.frame(streams, j));
                    let end = Instant::now();
                    if tracer.enabled() {
                        let root = tracer.open("frame", id, NO_SPAN, due);
                        tracer.record("ingress.client.send_frame", id, root, start, end);
                        roots[j] = root;
                    }
                    report
                        .send_lag_ms
                        .push(start.saturating_duration_since(due).as_secs_f64() * 1e3);
                    if let Err(e) = sent {
                        report.errors.push(format!("session {}: send: {e}", rec.session));
                        return rec;
                    }
                    rec.frames_sent += 1;
                    last_progress = end;
                    if rec.frames_sent == plan.frames {
                        let goodbye_at = Instant::now();
                        if let Err(e) = conn.send_goodbye() {
                            report.errors.push(format!("session {}: goodbye: {e}", rec.session));
                            return rec;
                        }
                        phase = Phase::Closing { goodbye_at };
                    }
                    continue;
                }
            }
        }

        let start = Instant::now();
        match conn.try_recv() {
            Ok(Some(ServerMsg::Decision(d))) => {
                let end = Instant::now();
                if d.seq != next_seq || d.seq as usize >= rec.frames_sent {
                    report.errors.push(format!(
                        "session {}: DECISION seq {} out of order (expected {next_seq})",
                        rec.session, d.seq
                    ));
                    return rec;
                }
                let j = d.seq as usize;
                let due = plan.due(t0, k, j);
                rec.latency_ms[j] = end.saturating_duration_since(due).as_secs_f64() * 1e3;
                rec.digest.push(d.key());
                if tracer.enabled() {
                    let id = frame_id(rec.session, d.seq);
                    tracer.record("ingress.client.try_recv", id, roots[j], start, end);
                    tracer.close(roots[j], end);
                }
                next_seq += 1;
                last_progress = end;
            }
            Ok(Some(ServerMsg::Bye { delivered })) => {
                let end = Instant::now();
                let Phase::Closing { goodbye_at } = phase else {
                    report.errors.push(format!("session {}: BYE before GOODBYE", rec.session));
                    return rec;
                };
                if delivered != rec.frames_sent as u64 || next_seq as usize != rec.frames_sent {
                    report.errors.push(format!(
                        "session {}: BYE after {delivered} decisions, {} received, {} sent",
                        rec.session, next_seq, rec.frames_sent
                    ));
                }
                rec.close_ms = end.saturating_duration_since(goodbye_at).as_secs_f64() * 1e3;
                tracer.record(
                    "ingress.session.close",
                    frame_id(rec.session, u32::MAX),
                    NO_SPAN,
                    goodbye_at,
                    end,
                );
                return rec;
            }
            Ok(Some(other)) => {
                report.errors.push(format!("session {}: unexpected {other:?}", rec.session));
                return rec;
            }
            Ok(None) => {
                if last_progress.elapsed() > STALL_LIMIT {
                    report.errors.push(format!("session {}: no progress for 10 s", rec.session));
                    return rec;
                }
                // Nap briefly, but never past the next due send. The naps
                // continue while nothing is outstanding: a generator that
                // sleeps through idle stretches lets the host idle its CPUs,
                // and the server's wake-ups then read as less steady.
                let mut nap = POLL_SLEEP;
                if let (Phase::Streaming, true) = (&phase, rec.frames_sent < plan.frames) {
                    let due = plan.due(t0, k, rec.frames_sent);
                    nap = nap.min(due.saturating_duration_since(Instant::now()));
                }
                if !nap.is_zero() {
                    std::thread::sleep(nap);
                }
                report.idle_polls += 1;
                report.idle_time += start.elapsed();
            }
            Err(ClientError::Closed) => {
                report.errors.push(format!("session {}: closed by server", rec.session));
                return rec;
            }
            Err(e) => {
                report.errors.push(format!("session {}: {e}", rec.session));
                return rec;
            }
        }
    }
}

/// Per-frame deadline: one 30 Hz frame interval.
pub const DEADLINE_MS: f64 = 1000.0 / 30.0;

/// End-to-end figures of one paced pass, from raw samples, split into
/// `segments` consecutive stretches of the slot grid.
pub struct PassStats {
    /// Per segment: scheduled send → DECISION decoded, ms, every received
    /// decision due in that segment.
    pub latency_ms: Vec<Vec<f64>>,
    /// Per segment: for each slot every connection used, the slowest of
    /// its decisions.
    pub round_ms: Vec<Vec<f64>>,
    pub attempted: u64,
    pub received: u64,
    pub warm: u64,
    /// Missing decisions plus errored operations.
    pub failed: u64,
    /// Decisions later than the deadline, or missing.
    pub late: u64,
    pub wall_s: f64,
}

/// Length of one segment of the plans' slot grid.
pub fn segment_len(plans: &[Plan], segments: usize) -> Duration {
    let slots = plans.iter().map(|p| p.slot(p.procedures.len(), 0)).max().unwrap_or(0);
    plans.first().map_or(Duration::ZERO, |p| p.period.mul_f64(slots as f64 / segments as f64))
}

pub fn pass_stats(reports: &[ConnReport], wall_s: f64, segments: usize) -> PassStats {
    let mut st = PassStats {
        latency_ms: vec![Vec::new(); segments],
        round_ms: vec![Vec::new(); segments],
        attempted: 0,
        received: 0,
        warm: 0,
        failed: 0,
        late: 0,
        wall_s,
    };
    let slots = reports.iter().map(|r| r.plan.slot(r.plan.procedures.len(), 0)).max().unwrap_or(1);
    let segment_of = |slot: u64| (slot * segments as u64 / slots.max(1)) as usize;
    let mut rounds: Vec<(f64, usize)> = vec![(0.0, 0); slots as usize];
    for r in reports {
        st.attempted += (r.plan.frames * r.plan.procedures.len()) as u64;
        st.failed += r.errors.len() as u64;
        for (k, s) in r.sessions.iter().enumerate() {
            st.warm += s.digest.warm;
            for (j, &lat) in s.latency_ms.iter().enumerate() {
                if lat.is_nan() {
                    continue;
                }
                let slot = r.plan.slot(k, j);
                st.received += 1;
                st.latency_ms[segment_of(slot)].push(lat);
                st.late += (lat > DEADLINE_MS) as u64;
                let round = &mut rounds[slot as usize];
                round.0 = round.0.max(lat);
                round.1 += 1;
            }
        }
    }
    let missing = st.attempted - st.received;
    st.failed += missing;
    st.late += missing;
    for (slot, &(worst, n)) in rounds.iter().enumerate() {
        if n == reports.len() {
            st.round_ms[segment_of(slot as u64)].push(worst);
        }
    }
    st
}

/// Client-side per-layer figures of a traced pass, and its span
/// accounting: every received decision has exactly one send span and one
/// receive span.
pub fn layer_stats(reports: &[ConnReport], m: &mut crate::Values) -> Result<(), String> {
    let p50 = |v: &mut Vec<f64>| crate::stats::nearest_rank(v, 0.5).map_or(0.0, |q| q.value);
    let p99 = |v: &mut Vec<f64>| crate::stats::nearest_rank(v, 0.99).map_or(0.0, |q| q.value);
    let (mut send, mut recv, mut open, mut close, mut lag) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut polls, mut idle) = (0u64, Duration::ZERO);
    for r in reports {
        send.extend(r.tracer.durations_us("ingress.client.send_frame"));
        recv.extend(r.tracer.durations_us("ingress.client.try_recv"));
        lag.extend(&r.send_lag_ms);
        polls += r.idle_polls;
        idle += r.idle_time;
        let mut expected = Vec::new();
        for s in &r.sessions {
            open.push(s.open_ms);
            if !s.close_ms.is_nan() {
                close.push(s.close_ms);
            }
            for (j, lat) in s.latency_ms.iter().enumerate() {
                if !lat.is_nan() {
                    expected.push(frame_id(s.session, j as u32));
                }
            }
        }
        crate::trace::check_once(
            "ingress.client.send_frame",
            &r.tracer.ids("ingress.client.send_frame"),
            &expected,
        )?;
        crate::trace::check_once(
            "ingress.client.try_recv",
            &r.tracer.ids("ingress.client.try_recv"),
            &expected,
        )?;
    }
    m.insert("ingress.client.send_us", p50(&mut send));
    m.insert("ingress.client.recv_us", p50(&mut recv));
    m.insert("ingress.session.open_ms_p50", p50(&mut open));
    m.insert("ingress.session.open_ms_p99", p99(&mut open));
    m.insert("ingress.session.close_ms", p50(&mut close));
    m.insert("loadgen.send_lag_p99_ms", p99(&mut lag));
    m.insert("loadgen.recv_poll_us", idle.as_secs_f64() * 1e6 / polls.max(1) as f64);
    Ok(())
}
