//! TCP front end over an elastic [`ShardedMonitorPool`].
//!
//! One thread runs the service: a nonblocking `std::net` event loop that
//! owns the listener, every connection socket, and the pool. The pool's
//! shard workers are the only other threads, so the service runs
//! `ServeConfig::workers + 1` threads at any connection count.
//!
//! ```text
//!   clients ⇄ sockets ⇄ event loop ──submit──▶ shard workers
//!                  ▲      (owns the pool) ◀──poll_into──┘
//!                  └────── wake descriptor ◀── wake hook ┘
//! ```
//!
//! Each pass of the loop waits for readiness, then acts on what `poll(2)`
//! reported: it accepts pending connections if the listener is readable,
//! reads each readable socket once and acts on every complete message
//! (validate, admit, submit), encodes the pool's ready decisions into
//! per-connection output buffers, and writes only what each socket
//! accepts, so one slow client never blocks the others.
//!
//! The loop waits in `poll(2)` with no timeout, on the listener, each
//! socket (readable while the loop still reads it, writable while replies
//! wait in its output buffer) and one end of a Unix socket pair, the wake
//! descriptor. Readiness is level-triggered, so a socket whose read filled
//! the buffer is reported again at once. Decisions reach the loop through
//! the pool's wake hook: after a tick's decisions are sent home, a shard
//! worker writes one byte to the wake descriptor. The loop empties the
//! descriptor before it takes the pool's ready decisions, so a decision
//! sent after that look leaves a byte behind and the next wait returns at
//! once. Shutdown writes to the wake descriptor too. An idle server
//! therefore costs no CPU, and a frame or decision is acted on as soon as
//! it is ready.
//!
//! **Admission control sheds, never delays**: a HELLO past the session
//! cap gets a typed BUSY reply and a closed connection immediately.
//! Admitted sessions never queue behind arrivals — the paper's real-time
//! framing (every decision inside the 30 Hz tick budget) survives
//! overload because overload is turned away at the door
//! (DESIGN.md §13). The loop owns the admitted count and releases a slot
//! in the same step that calls [`ShardedMonitorPool::remove_session`], so
//! `active ≤ cap` also bounds the pool's live sessions.
//!
//! Per-frame steady state is allocation-free end to end: the decoder
//! reuses one [`FrameMsg`], the pool copies each frame into a recycled
//! buffer, and each connection reuses its input and output buffers.

use std::ffi::{c_int, c_short};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::{Buf, BytesMut};
use context_monitor::{
    ContextMode, Decision, ServeConfig, SessionId, ShardedMonitorPool, TrainedPipeline,
};

use crate::codec::{
    encode_busy, encode_bye, encode_decision, encode_error, encode_welcome, DecisionMsg, Decoded,
    Decoder, ErrorCode, FrameMsg,
};

/// Most bytes taken from one socket per pass, so a flooding client
/// cannot starve the others.
const READ_CHUNK: usize = 16 * 1024;

/// How long the loop leaves the listener out of its wait after `accept`
/// fails for want of a resource (see [`exhausted`]). The failed connection
/// stays queued, so the level-triggered listener would otherwise report
/// readable on every pass and spin the loop.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// `errno` values of `accept(2)` for want of a resource, besides ENOMEM,
/// which std reports as [`ErrorKind::OutOfMemory`]. EMFILE and ENFILE are
/// the same on every Unix; ENOBUFS is 55 on macOS and the BSDs.
const EMFILE: i32 = 24;
const ENFILE: i32 = 23;
#[cfg(any(target_os = "linux", target_os = "android"))]
const ENOBUFS: i32 = 105;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
const ENOBUFS: i32 = 55;

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

// The event bits are the same on Linux, the BSDs and macOS.
const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;
const POLLERR: c_short = 0x8;
const POLLHUP: c_short = 0x10;

/// `nfds_t`, the type of `poll`'s descriptor count.
#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

impl PollFd {
    fn new(fd: RawFd, events: c_short) -> Self {
        Self { fd, events, revents: 0 }
    }

    /// Whether a read would not block: data, end of stream, or an error
    /// the read reports.
    fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR) != 0
    }
}

/// Blocks until one of `fds` is ready, or for at most `timeout_ms`
/// (`-1`: no limit). A failed or interrupted `poll` leaves every `revents`
/// at 0, which the loop reads as nothing ready.
fn wait(fds: &mut [PollFd], timeout_ms: c_int) {
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // `struct pollfd` records, and `poll` reads and writes only its first
    // `fds.len()` entries.
    unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) };
}

/// How other threads stop or wake the event loop: the pool's wake hook
/// and [`IngressServer::shutdown`] write to `tx`, and the loop waits on the
/// other end of the pair.
struct Wake {
    shutdown: AtomicBool,
    tx: UnixStream,
}

impl Wake {
    /// Makes the loop's wait return. Nonblocking: if the pair's buffer is
    /// full, the loop has unread wake bytes already.
    // lint: hot-path
    fn signal(&self) {
        let _ = (&self.tx).write(&[1]);
    }
}

/// How to run the service.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` picks a free port (see
    /// [`IngressServer::local_addr`]).
    pub addr: String,
    /// Admission cap: concurrent admitted sessions. HELLOs beyond it get
    /// BUSY, never a queue slot.
    pub max_sessions: usize,
    /// Manipulators per frame the served pipeline was trained on
    /// (JIGSAWS: 2). Frames with any other count are rejected with
    /// [`ErrorCode::BadShape`] before they can reach a shard worker.
    pub manipulators: usize,
    /// Context mode every session runs in. `Perfect` requires clients to
    /// attach a gesture label to every FRAME; the other modes forbid it.
    pub mode: ContextMode,
    /// Shard-pool shape (worker threads, alert threshold, precision).
    pub serve: ServeConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_sessions: 64,
            manipulators: 2,
            mode: ContextMode::Predicted,
            serve: ServeConfig::default(),
        }
    }
}

/// Monotonic service counters (cheap atomics, readable while serving).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Sessions currently admitted (HELLO accepted, not yet removed).
    pub active: usize,
    /// Sessions ever admitted.
    pub admitted: u64,
    /// HELLOs turned away with BUSY.
    pub shed: u64,
    /// Connections closed for protocol violations.
    pub protocol_errors: u64,
    /// DECISION messages routed to connections.
    pub decisions: u64,
}

/// The loop's counters, mirrored for [`IngressServer::stats`].
#[derive(Default)]
struct Counters {
    active: AtomicUsize,
    admitted: AtomicU64,
    shed: AtomicU64,
    protocol_errors: AtomicU64,
    decisions: AtomicU64,
}

/// Handle to a running ingress service. Dropping it shuts the service
/// down and joins the event loop (which joins the shard workers).
pub struct IngressServer {
    addr: SocketAddr,
    wake: Arc<Wake>,
    counters: Arc<Counters>,
    event_loop: Option<JoinHandle<()>>,
}

impl IngressServer {
    /// Binds, builds the pool, and starts the event loop thread.
    ///
    /// # Panics
    ///
    /// Panics on a pool shape [`ShardedMonitorPool::new`] rejects.
    pub fn start(pipeline: Arc<TrainedPipeline>, cfg: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (wake_rx, tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        let wake = Arc::new(Wake { shutdown: AtomicBool::new(false), tx });

        let counters = Arc::new(Counters::default());
        let pool = ShardedMonitorPool::new(pipeline, cfg.mode, cfg.serve);
        let hook = Arc::clone(&wake);
        pool.set_wake_hook(move || hook.signal());
        let service = Service {
            pool,
            counters: Arc::clone(&counters),
            mode: cfg.mode,
            manipulators: cfg.manipulators,
            max_sessions: cfg.max_sessions,
            active: 0,
            frame: FrameMsg::default(),
        };
        let control = Arc::clone(&wake);
        let event_loop = std::thread::Builder::new()
            .name("ingress-loop".to_string())
            .spawn(move || event_loop(&listener, &wake_rx, &control, service))?;

        Ok(Self { addr, wake, counters, event_loop: Some(event_loop) })
    }

    /// The address the service is listening on (with the real port when
    /// bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            active: self.counters.active.load(Ordering::Acquire),
            admitted: self.counters.admitted.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            protocol_errors: self.counters.protocol_errors.load(Ordering::Relaxed),
            decisions: self.counters.decisions.load(Ordering::Relaxed),
        }
    }

    /// Stops the event loop, which drains in-flight compute, closes every
    /// connection, and shuts the pool down. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if let Some(h) = self.event_loop.take() {
            self.wake.shutdown.store(true, Ordering::Release);
            self.wake.signal();
            let _ = h.join();
        }
    }
}

impl Drop for IngressServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-connection protocol state.
#[derive(PartialEq, Eq, Clone, Copy)]
enum ConnState {
    /// Connected; the first message must be HELLO.
    AwaitHello,
    /// Admitted as this pool session; FRAMEs flow.
    Streaming(SessionId),
    /// GOODBYE received; BYE follows the session's last decision.
    Draining(SessionId),
    /// The last reply (BUSY, ERROR or BYE) is queued; close once written.
    Closing,
    /// The peer is gone or the socket failed; drop it.
    Closed,
}

/// One client connection = one (attempted) session.
struct Conn {
    stream: TcpStream,
    dec: Decoder,
    /// Encoded replies the socket has not accepted yet.
    out: BytesMut,
    state: ConnState,
    next_seq: u32,
    submitted: u64,
    delivered: u64,
}

impl Conn {
    /// The pool session while admitted.
    // lint: hot-path
    fn session(&self) -> Option<SessionId> {
        match self.state {
            ConnState::Streaming(s) | ConnState::Draining(s) => Some(s),
            _ => None,
        }
    }

    /// Whether the loop still acts on what the client sends.
    fn reading(&self) -> bool {
        !matches!(self.state, ConnState::Closing | ConnState::Closed)
    }

    /// What the loop waits for on this socket: input while it still reads,
    /// room to write while replies are queued.
    fn interest(&self) -> c_short {
        let mut events = 0;
        if self.reading() {
            events |= POLLIN;
        }
        if !self.out.is_empty() {
            events |= POLLOUT;
        }
        events
    }

    /// Writes what the socket accepts without blocking.
    // lint: hot-path
    fn flush(&mut self) -> std::io::Result<()> {
        while !self.out.is_empty() {
            match self.stream.write(self.out.chunk()) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.out.advance(n),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// The pool and everything the protocol needs besides the sockets.
struct Service {
    pool: ShardedMonitorPool,
    counters: Arc<Counters>,
    mode: ContextMode,
    manipulators: usize,
    max_sessions: usize,
    /// Admitted sessions; mirrored into [`Counters::active`].
    active: usize,
    /// Decode target reused by every FRAME.
    frame: FrameMsg,
}

fn event_loop(listener: &TcpListener, wake_rx: &UnixStream, wake: &Wake, mut service: Service) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut decisions: Vec<Decision> = Vec::new();
    let mut buf = [0u8; READ_CHUNK];
    // When the listener rejoins the wait after a failed `accept`.
    let mut accept_resume: Option<Instant> = None;
    while !wake.shutdown.load(Ordering::Acquire) {
        let backoff = accept_resume
            .map_or(Duration::ZERO, |resume| resume.saturating_duration_since(Instant::now()));
        let (listening, timeout_ms) = if backoff.is_zero() {
            accept_resume = None;
            (listener.as_raw_fd(), -1)
        } else {
            // `poll` skips a negative descriptor.
            (-1, backoff.as_millis() as c_int + 1)
        };
        fds.clear();
        fds.push(PollFd::new(wake_rx.as_raw_fd(), POLLIN));
        fds.push(PollFd::new(listening, POLLIN));
        fds.extend(conns.iter().map(|c| PollFd::new(c.stream.as_raw_fd(), c.interest())));
        wait(&mut fds, timeout_ms);

        let [woken, incoming, sockets @ ..] = fds.as_slice() else {
            continue;
        };
        if woken.readable() {
            // Before `poll_into` below, so a tick that ends after that look
            // leaves its byte for the next wait. Bytes this read leaves
            // behind are reported again.
            let _ = (&*wake_rx).read(&mut buf);
        }
        if incoming.readable() && accept(listener, &mut conns).is_err() {
            accept_resume = Some(Instant::now() + ACCEPT_BACKOFF);
        }
        // Connections accepted just now have no entry yet; they are
        // polled from the next pass on.
        for (conn, fd) in conns.iter_mut().zip(sockets) {
            if fd.readable() {
                service.read_conn(conn, &mut buf);
            }
        }
        service.pool.poll_into(&mut decisions);
        service.route(&mut decisions, &mut conns);
        conns.retain_mut(|conn| service.write_conn(conn));
    }

    // Shutdown: drain in-flight compute so the counters stay truthful,
    // hand each socket what it takes, and close them all.
    service.pool.flush_into(&mut decisions);
    service.route(&mut decisions, &mut conns);
    conns.retain_mut(|conn| service.write_conn(conn));
    service.counters.active.store(0, Ordering::Release);
}

/// Accepts every pending connection. Fails only if `accept` fails for
/// want of a resource, which leaves the connection queued.
fn accept(listener: &TcpListener, conns: &mut Vec<Conn>) -> std::io::Result<()> {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_ok() {
                    let _ = stream.set_nodelay(true);
                    conns.push(Conn {
                        stream,
                        dec: Decoder::new(),
                        out: BytesMut::new(),
                        state: ConnState::AwaitHello,
                        next_seq: 0,
                        submitted: 0,
                        delivered: 0,
                    });
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if exhausted(&e) => return Err(e),
            // The queue is empty, or `accept` dequeued a connection that
            // failed (ECONNABORTED, or a pending network error such as
            // EPROTO, which accept(2) says to retry like EAGAIN). The
            // level-triggered listener brings the loop back at once if
            // more connections wait.
            Err(_) => return Ok(()),
        }
    }
}

/// Whether `accept` failed for want of a resource: out of descriptors
/// (EMFILE, ENFILE) or memory (ENOBUFS, ENOMEM).
fn exhausted(e: &std::io::Error) -> bool {
    e.kind() == ErrorKind::OutOfMemory
        || matches!(e.raw_os_error(), Some(EMFILE | ENFILE | ENOBUFS))
}

impl Service {
    /// Reads once from `conn` and acts on every complete message. Per
    /// frame this is the codec's decoder and [`Service::submit`], both
    /// hot-path audited; the other messages open or end a session.
    fn read_conn(&mut self, conn: &mut Conn, buf: &mut [u8]) {
        if !conn.reading() {
            return;
        }
        let n = match conn.stream.read(buf) {
            Ok(n) if n > 0 => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => return,
            // EOF or a failed socket: the peer is gone.
            _ => {
                self.retire(conn, ConnState::Closed);
                return;
            }
        };
        conn.dec.extend(buf.get(..n).unwrap_or_default());
        while conn.reading() {
            let handled = match conn.dec.decode_next(&mut self.frame) {
                Ok(None) => break,
                Ok(Some(Decoded::Frame)) => self.submit(conn),
                Ok(Some(msg)) => self.on_control(conn, msg),
                Err(err) => Err(err.into()),
            };
            if let Err(code) = handled {
                self.fail(conn, code);
            }
        }
    }

    /// HELLO and GOODBYE, or a message the client must not send.
    fn on_control(&mut self, conn: &mut Conn, msg: Decoded) -> Result<(), ErrorCode> {
        match (msg, conn.state) {
            (Decoded::Hello { wants_context }, ConnState::AwaitHello) => {
                if wants_context != (self.mode == ContextMode::Perfect) {
                    return Err(ErrorCode::BadContext);
                }
                self.admit(conn);
            }
            // BYE follows the session's last decision (`write_conn`).
            (Decoded::Goodbye, ConnState::Streaming(session)) => {
                conn.state = ConnState::Draining(session);
            }
            (Decoded::Hello { .. } | Decoded::Goodbye, _) => {
                return Err(ErrorCode::UnexpectedMessage)
            }
            // Server→client kinds arriving *from* a client.
            _ => return Err(ErrorCode::BadKind),
        }
        Ok(())
    }

    /// Validates the decoded FRAME against `conn`'s session and submits it
    /// to the pool.
    // lint: hot-path
    fn submit(&mut self, conn: &mut Conn) -> Result<(), ErrorCode> {
        let ConnState::Streaming(session) = conn.state else {
            return Err(ErrorCode::UnexpectedMessage);
        };
        let frame = &self.frame;
        if frame.seq != conn.next_seq {
            return Err(ErrorCode::BadSequence);
        }
        if frame.context.is_some() != (self.mode == ContextMode::Perfect) {
            return Err(ErrorCode::BadContext);
        }
        if frame.sample.manipulators.len() != self.manipulators {
            return Err(ErrorCode::BadShape);
        }
        match frame.context {
            Some(gesture) => {
                // lint: allow(hot-path, reason = "core's public wrapper; its body is the tagged submit_inner")
                self.pool.submit_with_context(session, &frame.sample, gesture)
            }
            // Mode/context agreement was checked above, so this cannot
            // be Err(MissingContext).
            None => {
                let _ = self.pool.submit(session, &frame.sample);
            }
        }
        conn.next_seq += 1;
        conn.submitted += 1;
        Ok(())
    }

    /// Encodes each decision into its session's connection. Sessions whose
    /// connection already went still drain their decisions out of the
    /// pool; they just have nowhere to go.
    // lint: hot-path
    fn route(&mut self, decisions: &mut Vec<Decision>, conns: &mut [Conn]) {
        for d in decisions.drain(..) {
            // A scan, not a map: at most `max_sessions` connections are
            // admitted, and a scan has no index to keep in step.
            let Some(conn) = conns.iter_mut().find(|c| c.session() == Some(d.session)) else {
                continue;
            };
            let msg = DecisionMsg::from_decision(d.frame as u32, d.output.as_ref());
            encode_decision(&mut conn.out, &msg);
            conn.delivered += 1;
            self.counters.decisions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Queues BYE once a draining session has every decision queued,
    /// writes what the socket accepts, and closes the connection once its
    /// last reply is out. Returns whether to keep `conn`.
    fn write_conn(&mut self, conn: &mut Conn) -> bool {
        if matches!(conn.state, ConnState::Draining(_)) && conn.delivered == conn.submitted {
            encode_bye(&mut conn.out, conn.delivered);
            self.retire(conn, ConnState::Closing);
        }
        if conn.state != ConnState::Closed && conn.flush().is_err() {
            self.retire(conn, ConnState::Closed);
        }
        match conn.state {
            ConnState::Closed => false,
            ConnState::Closing if conn.out.is_empty() => {
                let _ = conn.stream.shutdown(Shutdown::Both);
                false
            }
            _ => true,
        }
    }

    /// HELLO: admits `conn` as a new pool session, or sheds it with BUSY
    /// at the cap — never queues it.
    fn admit(&mut self, conn: &mut Conn) {
        if self.active >= self.max_sessions {
            self.counters.shed.fetch_add(1, Ordering::Relaxed);
            encode_busy(&mut conn.out, self.active as u32, self.max_sessions as u32);
            conn.state = ConnState::Closing;
            return;
        }
        let session = self.pool.add_session();
        self.set_active(self.active + 1);
        self.counters.admitted.fetch_add(1, Ordering::Relaxed);
        encode_welcome(&mut conn.out, session as u64);
        conn.state = ConnState::Streaming(session);
    }

    /// Protocol violation: typed ERROR, then close; the session retires
    /// now, dropping its undelivered decisions.
    fn fail(&mut self, conn: &mut Conn, code: ErrorCode) {
        self.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
        encode_error(&mut conn.out, code);
        self.retire(conn, ConnState::Closing);
    }

    /// Removes `conn`'s session (if admitted) from the pool, releasing its
    /// admission slot, and moves the connection to `next`.
    fn retire(&mut self, conn: &mut Conn, next: ConnState) {
        if let Some(session) = conn.session() {
            self.pool.remove_session(session);
            self.set_active(self.active - 1);
        }
        conn.state = next;
    }

    fn set_active(&mut self, active: usize) {
        self.active = active;
        self.counters.active.store(active, Ordering::Release);
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    /// Only running out of descriptors or memory takes the listener out of
    /// the wait; a failed connection, which `accept` has already dequeued,
    /// is retried at once.
    #[test]
    fn accept_backs_off_only_when_out_of_resources() {
        let os = std::io::Error::from_raw_os_error;
        // ENOMEM is 12.
        for errno in [EMFILE, ENFILE, ENOBUFS, 12] {
            assert!(exhausted(&os(errno)), "errno {errno} should back off");
        }
        // EPERM, EPROTO, ENETDOWN, ENETUNREACH, ECONNABORTED, EHOSTUNREACH.
        for errno in [1, 71, 100, 101, 103, 113] {
            assert!(!exhausted(&os(errno)), "errno {errno} should be retried");
        }
    }
}
