//! TCP front end: `ServeConfig::workers` event loops, each of which scores
//! the frames of the connections placed on it.
//!
//! The service runs one thread per event loop and no other, at any
//! connection count. A loop owns the sockets placed on it and those
//! sessions' engines (a [`Shard`]), and waits on its own `poll(2)`. Loop 0
//! also owns the listener: it accepts each connection and places it on the
//! least-occupied loop, itself included (ties to the lowest index, the
//! rule the in-process pool places sessions by), handing it over through
//! that loop's inbox and wake descriptor. That handover and shutdown are
//! the only traffic between threads: a FRAME is read, decoded, scored and
//! answered on the thread that owns its socket.
//!
//! ```text
//!   listener ──▶ loop 0 ──inbox + wake──▶ loop 1 … loop workers-1
//!
//!   each loop, each pass:
//!   clients ⇄ sockets ──read──▶ decode ──▶ tick (step_batch) ──▶ encode ──write──▶ sockets
//! ```
//!
//! Each pass of a loop waits for readiness, then acts on what `poll(2)`
//! reported: it takes the connections handed to it, accepts pending ones
//! (loop 0), takes at most one FRAME from each of its sessions, scores
//! them all in one tick ([`Shard::run_tick`], one `step_batch` call),
//! encodes each decision into its connection's output buffer, and writes
//! only what each socket accepts, so one slow client never blocks the
//! others.
//!
//! The wait covers the listener (loop 0), each socket and one end of a
//! Unix socket pair, the loop's wake descriptor. A socket is polled for
//! input while its decoder holds no complete message, and for room to
//! write while replies wait in its output buffer. Readiness is
//! level-triggered, so a socket whose read filled the buffer is reported
//! again at once. A loop whose decoders still hold a complete message it
//! may act on polls with timeout 0, so a client that pipelines FRAMEs is
//! served one frame per pass without a wait; otherwise the wait has no
//! timeout. The wake descriptor carries only new connections and
//! shutdown, so an idle server costs no CPU.
//!
//! **Back-pressure.** A loop takes no message from a connection whose
//! output buffer holds more than `MAX_UNSENT_REPLIES` (32) DECISIONs'
//! worth of bytes, and reads no socket whose decoder still holds a
//! complete message. A client that pipelines FRAMEs and never reads
//! therefore fills its socket buffers, and TCP flow control pushes back
//! on it; the server holds no more than one read chunk and a bounded
//! output buffer for it.
//!
//! **Admission control sheds, never delays**: a HELLO past the session
//! cap gets a typed BUSY reply and a closed connection immediately.
//! Admitted sessions never queue behind arrivals — the paper's real-time
//! framing (every decision inside the 30 Hz tick budget) survives
//! overload because overload is turned away at the door
//! (DESIGN.md §13). The admitted count behind the cap, the session ids
//! and the [`ServerStats`] counters are atomics the loops share; a loop
//! releases a session's admission slot in the step that frees its engine
//! slot.
//!
//! Per-frame steady state is allocation-free end to end: the decoder
//! reuses one [`FrameMsg`], frame buffers cycle between it and the shard,
//! and each connection reuses its input and output buffers.

use std::ffi::{c_int, c_short};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::{Buf, BytesMut};
use context_monitor::serve::{least_occupied, Scored, Shard};
use context_monitor::{ContextMode, ServeConfig, TrainedPipeline};
use kinematics::KinematicSample;

use crate::codec::{
    encode_busy, encode_bye, encode_decision, encode_error, encode_welcome, DecisionMsg, Decoded,
    Decoder, ErrorCode, FrameMsg, DECISION_LEN,
};
use crate::poll::{wait, PollFd, POLLIN, POLLOUT};

/// How many DECISIONs' worth of bytes a connection's output buffer may
/// hold before its loop stops taking messages from it (module docs).
const MAX_UNSENT_REPLIES: usize = 32;

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

/// How the other threads reach one event loop: connections placed on it
/// wait in `inbox`, and a byte on `wake` makes its wait return. The inbox
/// is only ever pushed to or emptied whole, so a guard poisoned by a
/// panicking holder still guards a valid list and is recovered.
struct Mailbox {
    inbox: Mutex<Vec<TcpStream>>,
    wake: UnixStream,
}

impl Mailbox {
    /// Makes the loop's wait return. Nonblocking: if the pair's buffer is
    /// full, the loop has unread wake bytes already.
    fn signal(&self) {
        let _ = (&self.wake).write(&[1]);
    }

    /// Hands `stream` to the loop: into the inbox, then a wake byte.
    fn hand_over(&self, stream: TcpStream) {
        self.inbox.lock().unwrap_or_else(PoisonError::into_inner).push(stream);
        self.signal();
    }
}

/// What every event loop shares.
struct Shared {
    shutdown: AtomicBool,
    counters: Counters,
    /// Connections placed on each loop and not yet closed: what
    /// [`place`] balances.
    occupancy: Vec<AtomicUsize>,
    /// One per loop, index-aligned with `occupancy`.
    mailboxes: Vec<Mailbox>,
}

/// Picks the loop for a new connection, the least-occupied one (ties to
/// the lowest index), and counts the connection there.
fn place(occupancy: &[AtomicUsize]) -> usize {
    let target = least_occupied(occupancy.iter().map(|o| o.load(Ordering::Relaxed)));
    if let Some(count) = occupancy.get(target) {
        count.fetch_add(1, Ordering::Relaxed);
    }
    target
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
    /// Context mode every session runs in. `Perfect` requires clients to
    /// attach a gesture label to every FRAME; the other modes forbid it.
    pub mode: ContextMode,
    /// Serving shape: `workers` counts the event loops (at least one),
    /// plus the alert threshold and numeric precision.
    pub serve: ServeConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_sessions: 64,
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

/// The loops' shared counters, read by [`IngressServer::stats`]. `active`
/// is the count the admission cap bounds, and `admitted` hands out the
/// session ids. None publishes other data, and the cap's check and update
/// are one read-modify-write of `active`, so every access is `Relaxed`.
#[derive(Default)]
struct Counters {
    active: AtomicUsize,
    admitted: AtomicU64,
    shed: AtomicU64,
    protocol_errors: AtomicU64,
    decisions: AtomicU64,
}

/// Handle to a running ingress service. Dropping it shuts the service
/// down and joins the event loops.
pub struct IngressServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    loops: Vec<JoinHandle<()>>,
}

impl IngressServer {
    /// Binds, builds one [`Shard`] per event loop, and starts the loops.
    ///
    /// # Panics
    ///
    /// Panics on a serving shape [`Shard::new`] rejects.
    pub fn start(pipeline: Arc<TrainedPipeline>, cfg: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let loops = cfg.serve.workers.max(1);
        let manipulators = pipeline.manipulators();
        // Built before any thread starts, so a bad shape panics here.
        let shards: Vec<Shard<Tag>> =
            (0..loops).map(|_| Shard::new(Arc::clone(&pipeline), cfg.mode, cfg.serve)).collect();
        let mut wake_ends = Vec::with_capacity(loops);
        let mut mailboxes = Vec::with_capacity(loops);
        for _ in 0..loops {
            let (wake, tx) = UnixStream::pair()?;
            wake.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            wake_ends.push(wake);
            mailboxes.push(Mailbox { inbox: Mutex::default(), wake: tx });
        }
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
            occupancy: (0..loops).map(|_| AtomicUsize::new(0)).collect(),
            mailboxes,
        });

        let mut server = Self { addr, shared, loops: Vec::with_capacity(loops) };
        let mut listener = Some(listener);
        for (index, (shard, wake)) in shards.into_iter().zip(wake_ends).enumerate() {
            let event_loop = EventLoop {
                index,
                listener: listener.take(),
                wake,
                service: Service {
                    shared: Arc::clone(&server.shared),
                    shard,
                    free: Vec::new(),
                    spare: Vec::new(),
                    mode: cfg.mode,
                    manipulators,
                    max_sessions: cfg.max_sessions,
                    frame: FrameMsg::default(),
                },
            };
            // A failed spawn drops `server`, which stops and joins the
            // loops already running.
            let handle = std::thread::Builder::new()
                .name(format!("ingress-loop-{index}"))
                .spawn(move || event_loop.run())?;
            server.loops.push(handle);
        }
        Ok(server)
    }

    /// The address the service is listening on (with the real port when
    /// bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServerStats {
        let counters = &self.shared.counters;
        ServerStats {
            active: counters.active.load(Ordering::Relaxed),
            admitted: counters.admitted.load(Ordering::Relaxed),
            shed: counters.shed.load(Ordering::Relaxed),
            protocol_errors: counters.protocol_errors.load(Ordering::Relaxed),
            decisions: counters.decisions.load(Ordering::Relaxed),
        }
    }

    /// Stops the event loops, which hand each socket what it accepts,
    /// release every session and close every connection. Idempotent; also
    /// runs on drop.
    pub fn shutdown(&mut self) {
        if self.loops.is_empty() {
            return;
        }
        self.shared.shutdown.store(true, Ordering::Release);
        for mailbox in &self.shared.mailboxes {
            mailbox.signal();
        }
        for handle in self.loops.drain(..) {
            let _ = handle.join();
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
    /// Admitted on this engine slot of the loop's shard; FRAMEs flow.
    Streaming(usize),
    /// GOODBYE received; BYE follows in the same pass.
    Draining(usize),
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
    delivered: u64,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            dec: Decoder::new(),
            out: BytesMut::new(),
            state: ConnState::AwaitHello,
            next_seq: 0,
            delivered: 0,
        }
    }

    /// The engine slot while admitted.
    // lint: hot-path
    fn session(&self) -> Option<usize> {
        match self.state {
            ConnState::Streaming(s) | ConnState::Draining(s) => Some(s),
            _ => None,
        }
    }

    /// Whether the loop still acts on what the client sends.
    fn reading(&self) -> bool {
        !matches!(self.state, ConnState::Closing | ConnState::Closed)
    }

    /// Whether the loop takes messages from this connection now: it still
    /// reads it, and the client has not left more than
    /// [`MAX_UNSENT_REPLIES`] DECISIONs' worth of replies unread.
    fn taking(&self) -> bool {
        self.reading() && self.out.len() <= MAX_UNSENT_REPLIES * DECISION_LEN
    }

    /// Whether the decoder holds a message the loop will act on without
    /// reading: the loop then polls with timeout 0.
    fn ready(&self) -> bool {
        self.taking() && self.dec.has_message()
    }

    /// What the loop waits for on this socket: input while it takes
    /// messages and has none buffered, room to write while replies are
    /// queued.
    fn interest(&self) -> c_short {
        let mut events = 0;
        if self.taking() && !self.dec.has_message() {
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

/// A tick job's tag: the connection its frame came in on (its index in the
/// loop's connection list, which changes only between passes) and the
/// FRAME's sequence number.
type Tag = (usize, u32);

/// One event loop: its thread's wait, plus the [`Service`] it acts with.
struct EventLoop {
    index: usize,
    /// Loop 0's: the listening socket.
    listener: Option<TcpListener>,
    /// The read end of this loop's wake descriptor.
    wake: UnixStream,
    service: Service,
}

/// The shard and everything the protocol needs besides the sockets.
struct Service {
    shared: Arc<Shared>,
    shard: Shard<Tag>,
    /// Engine slots whose sessions left, reused LIFO by the next admission.
    free: Vec<usize>,
    /// Frame buffers the shard handed back; each FRAME swaps one in as
    /// the next decode target.
    spare: Vec<KinematicSample>,
    mode: ContextMode,
    /// Arms per FRAME ([`TrainedPipeline::manipulators`]); a FRAME with
    /// any other count gets [`ErrorCode::BadShape`] before it can reach an
    /// engine.
    manipulators: usize,
    max_sessions: usize,
    /// Decode target reused by every FRAME.
    frame: FrameMsg,
}

impl EventLoop {
    fn run(mut self) {
        let shared = Arc::clone(&self.service.shared);
        let mut conns: Vec<Conn> = Vec::new();
        let mut fds: Vec<PollFd> = Vec::new();
        let mut buf = [0u8; READ_CHUNK];
        // When the listener rejoins the wait after a failed `accept`.
        let mut accept_resume: Option<Instant> = None;
        while !shared.shutdown.load(Ordering::Acquire) {
            let backoff = accept_resume
                .map_or(Duration::ZERO, |resume| resume.saturating_duration_since(Instant::now()));
            let (listening, mut timeout_ms) = match &self.listener {
                Some(listener) if backoff.is_zero() => {
                    accept_resume = None;
                    (listener.as_raw_fd(), -1)
                }
                // `poll` skips a negative descriptor.
                Some(_) => (-1, backoff.as_millis() as c_int + 1),
                None => (-1, -1),
            };
            if conns.iter().any(Conn::ready) {
                timeout_ms = 0;
            }
            fds.clear();
            fds.push(PollFd::new(self.wake.as_raw_fd(), POLLIN));
            fds.push(PollFd::new(listening, POLLIN));
            fds.extend(conns.iter().map(|c| PollFd::new(c.stream.as_raw_fd(), c.interest())));
            wait(&mut fds, timeout_ms);

            let [woken, incoming, sockets @ ..] = fds.as_slice() else {
                continue;
            };
            if woken.readable() {
                // Before the inbox, so a connection handed over after this
                // look leaves its byte for the next wait. Bytes this read
                // leaves behind are reported again.
                let _ = (&self.wake).read(&mut buf);
                if let Some(mailbox) = shared.mailboxes.get(self.index) {
                    let mut inbox = mailbox.inbox.lock().unwrap_or_else(PoisonError::into_inner);
                    conns.extend(inbox.drain(..).map(Conn::new));
                }
            }
            if let Some(listener) = self.listener.as_ref().filter(|_| incoming.readable()) {
                if self.accept(listener, &mut conns).is_err() {
                    accept_resume = Some(Instant::now() + ACCEPT_BACKOFF);
                }
            }
            // Connections that joined in this pass have no entry yet; they
            // are polled from the next pass on.
            for (i, (conn, fd)) in conns.iter_mut().zip(sockets).enumerate() {
                self.service.take_one(i, conn, fd.readable(), &mut buf);
            }
            self.service.tick(&mut conns);
            conns.retain_mut(|conn| {
                let keep = self.service.write_conn(conn);
                if !keep {
                    if let Some(count) = shared.occupancy.get(self.index) {
                        count.fetch_sub(1, Ordering::Relaxed);
                    }
                }
                keep
            });
        }

        // Shutdown: hand each socket what it takes, release every session,
        // and close them all.
        for conn in &mut conns {
            self.service.write_conn(conn);
            self.service.retire(conn, ConnState::Closed);
        }
    }

    /// Accepts every pending connection and places it (see [`place`]): on
    /// this loop, or handed over to another. Fails only if `accept` fails
    /// for want of a resource, which leaves the connection queued.
    fn accept(&self, listener: &TcpListener, conns: &mut Vec<Conn>) -> std::io::Result<()> {
        let shared = &self.service.shared;
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let target = place(&shared.occupancy);
                    match shared.mailboxes.get(target) {
                        Some(mailbox) if target != self.index => mailbox.hand_over(stream),
                        _ => conns.push(Conn::new(stream)),
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
}

/// Whether `accept` failed for want of a resource: out of descriptors
/// (EMFILE, ENFILE) or memory (ENOBUFS, ENOMEM).
fn exhausted(e: &std::io::Error) -> bool {
    e.kind() == ErrorKind::OutOfMemory
        || matches!(e.raw_os_error(), Some(EMFILE | ENFILE | ENOBUFS))
}

impl Service {
    /// Takes at most one FRAME from `conn`, connection `i` of the loop, for
    /// this pass's tick: reads the socket once if `readable` and the
    /// decoder holds no complete message, then acts on messages up to and
    /// including the first FRAME. Takes nothing while the connection's
    /// output buffer is over its limit. Per frame this is the codec's
    /// decoder and [`Service::submit`], both hot-path audited; the other
    /// messages open or end a session.
    fn take_one(&mut self, i: usize, conn: &mut Conn, readable: bool, buf: &mut [u8]) {
        if !conn.taking() {
            return;
        }
        if !conn.dec.has_message() {
            if !readable {
                return;
            }
            let n = match conn.stream.read(buf) {
                Ok(n) if n > 0 => n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    return
                }
                // EOF or a failed socket: the peer is gone.
                _ => {
                    self.retire(conn, ConnState::Closed);
                    return;
                }
            };
            conn.dec.extend(buf.get(..n).unwrap_or_default());
        }
        while conn.reading() {
            let (handled, frame) = match conn.dec.decode_next(&mut self.frame) {
                Ok(None) => break,
                Ok(Some(Decoded::Frame)) => (self.submit(i, conn), true),
                Ok(Some(msg)) => (self.on_control(conn, msg), false),
                Err(err) => (Err(err.into()), false),
            };
            if let Err(code) = handled {
                self.fail(conn, code);
            }
            if frame {
                break;
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
            // BYE follows in this pass's `write_conn`: every FRAME before
            // the GOODBYE has its decision by then.
            (Decoded::Goodbye, ConnState::Streaming(slot)) => {
                conn.state = ConnState::Draining(slot);
            }
            (Decoded::Hello { .. } | Decoded::Goodbye, _) => {
                return Err(ErrorCode::UnexpectedMessage)
            }
            // Server→client kinds arriving *from* a client.
            _ => return Err(ErrorCode::BadKind),
        }
        Ok(())
    }

    /// Validates the decoded FRAME against connection `i`'s session and
    /// adds it to the pass's tick.
    // lint: hot-path
    fn submit(&mut self, i: usize, conn: &mut Conn) -> Result<(), ErrorCode> {
        let ConnState::Streaming(slot) = conn.state else {
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
        // The decoded sample joins the tick; a spare buffer becomes the
        // next decode target.
        let sample =
            std::mem::replace(&mut self.frame.sample, self.spare.pop().unwrap_or_default());
        self.shard.push_frame(slot, sample, self.frame.context, (i, conn.next_seq));
        conn.next_seq += 1;
        Ok(())
    }

    /// Runs the pass's tick and encodes each decision into its connection.
    // lint: hot-path
    fn tick(&mut self, conns: &mut [Conn]) {
        self.shard.run_tick();
        for Scored { tag: (i, seq), frame, output } in self.shard.take_scored() {
            self.spare.push(frame);
            // A connection that retired since its FRAME gets nothing.
            let Some(conn) = conns.get_mut(i).filter(|c| c.session().is_some()) else {
                continue;
            };
            encode_decision(&mut conn.out, &DecisionMsg::from_decision(seq, output.as_ref()));
            conn.delivered += 1;
            self.shared.counters.decisions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Queues BYE for a draining session, writes what the socket accepts,
    /// and closes the connection once its last reply is out. Returns
    /// whether to keep `conn`.
    fn write_conn(&mut self, conn: &mut Conn) -> bool {
        if matches!(conn.state, ConnState::Draining(_)) {
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

    /// HELLO: admits `conn` as a new session on a free engine slot, or
    /// sheds it with BUSY at the cap — never queues it.
    fn admit(&mut self, conn: &mut Conn) {
        let counters = &self.shared.counters;
        let cap = self.max_sessions;
        let admitted =
            counters.active.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |active| {
                (active < cap).then_some(active + 1)
            });
        if let Err(active) = admitted {
            counters.shed.fetch_add(1, Ordering::Relaxed);
            encode_busy(&mut conn.out, active as u32, cap as u32);
            conn.state = ConnState::Closing;
            return;
        }
        let session = counters.admitted.fetch_add(1, Ordering::Relaxed);
        let slot = self.free.pop().unwrap_or_else(|| self.shard.slot_count());
        self.shard.bind(slot);
        encode_welcome(&mut conn.out, session);
        conn.state = ConnState::Streaming(slot);
    }

    /// Protocol violation: typed ERROR, then close; the session retires
    /// now.
    fn fail(&mut self, conn: &mut Conn, code: ErrorCode) {
        self.shared.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
        encode_error(&mut conn.out, code);
        self.retire(conn, ConnState::Closing);
    }

    /// Releases `conn`'s session, if admitted: its engine slot goes back to
    /// the free list (the next [`Shard::bind`] of it resets the engine) and
    /// its admission slot to the cap. Moves the connection to `next`.
    fn retire(&mut self, conn: &mut Conn, next: ConnState) {
        if let Some(slot) = conn.session() {
            self.free.push(slot);
            self.shared.counters.active.fetch_sub(1, Ordering::Relaxed);
        }
        conn.state = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A new connection goes to the least-occupied loop, ties to the
    /// lowest index, and counts there: with nobody leaving, connections are
    /// dealt round-robin.
    #[test]
    fn placement_picks_the_least_occupied_loop_ties_to_the_lowest() {
        let occupancy: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        let dealt: Vec<usize> = (0..7).map(|_| place(&occupancy)).collect();
        assert_eq!(dealt, [0, 1, 2, 0, 1, 2, 0]);
        let counts = |o: &[AtomicUsize]| -> Vec<usize> {
            o.iter().map(|c| c.load(Ordering::Relaxed)).collect()
        };
        assert_eq!(counts(&occupancy), vec![3, 2, 2]);

        // Loop 2 loses two connections: it is the least occupied.
        occupancy[2].store(0, Ordering::Relaxed);
        assert_eq!(place(&occupancy), 2);
        assert_eq!(place(&occupancy), 2);
        // [3, 2, 2]: loops 1 and 2 tie, and the lower index wins.
        assert_eq!(place(&occupancy), 1);
        assert_eq!(counts(&occupancy), vec![3, 3, 2]);
    }

    /// The two back-pressure rules: no read while the decoder holds a
    /// complete message (and no wait either: the loop acts on it), and no
    /// message taken while more than `MAX_UNSENT_REPLIES` DECISIONs' worth
    /// of replies wait unread.
    #[test]
    fn a_connection_is_read_only_while_it_can_take_more() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let _client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let mut conn = Conn::new(listener.accept().expect("accept").0);
        assert_eq!(conn.interest(), POLLIN);
        assert!(!conn.ready());

        let mut hello = BytesMut::new();
        crate::codec::encode_hello(&mut hello, false);
        conn.dec.extend(&hello);
        assert_eq!(conn.interest(), 0, "a buffered message is taken before any read");
        assert!(conn.ready(), "the loop must not wait while it can act");

        let reply = DecisionMsg::from_decision(0, None);
        for _ in 0..MAX_UNSENT_REPLIES {
            encode_decision(&mut conn.out, &reply);
        }
        assert!(conn.taking(), "{MAX_UNSENT_REPLIES} unread replies are within the limit");
        encode_decision(&mut conn.out, &reply);
        assert!(!conn.taking() && !conn.ready());
        assert_eq!(conn.interest(), POLLOUT, "only room to write can unblock it");
    }

    /// Only running out of descriptors or memory takes the listener out of
    /// the wait; a failed connection, which `accept` has already dequeued,
    /// is retried at once.
    #[cfg(target_os = "linux")]
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
