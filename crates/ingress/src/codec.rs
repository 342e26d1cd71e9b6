//! Length-prefixed binary wire protocol for the ingress service.
//!
//! Every message is `u32le body_len | body`, with
//! `body = u8 version | u8 kind | payload`. The length prefix counts the
//! body only (version byte included), so a reader can frame a message
//! without understanding it. Version is [`WIRE_VERSION`]; a mismatched
//! version byte is rejected per message, letting a future v2 coexist on
//! the same port.
//!
//! Client → server kinds sit in `0x01..=0x7F`, server → client kinds in
//! `0x80..=0xFF`, so a direction-confused peer is caught by kind, not by
//! payload shape.
//!
//! | kind | message  | payload |
//! |------|----------|---------|
//! | 0x01 | HELLO    | `u8 wants_context` |
//! | 0x02 | FRAME    | `u32 seq \| u8 context (0xFF = none, else gesture index) \| u8 nmanip \| nmanip × 19 finite f32le` |
//! | 0x03 | GOODBYE  | empty |
//! | 0x81 | WELCOME  | `u64 session` |
//! | 0x82 | BUSY     | `u32 active \| u32 cap` |
//! | 0x83 | DECISION | `u32 seq \| u8 flags (bit0 warm, bit1 alert) \| u8 gesture \| u32 score_bits \| u32 compute_ms_bits` |
//! | 0x84 | ERROR    | `u8 code` |
//! | 0x85 | BYE      | `u64 delivered` |
//!
//! Scores travel as IEEE-754 bit patterns (`f32::to_bits`), never as
//! decimal text, so the socket decision stream can be compared
//! *bit-identically* against an in-process pool (`tests/e2e.rs`).
//!
//! Decoding never trusts the peer: the length prefix is bounds-checked
//! against [`MAX_BODY`] **before any buffer growth**, every payload read
//! is checked (`Cursor`), a declared manipulator count is verified
//! against the actual body length, and every manipulator variable must be
//! finite. The whole module is in the workspace linter's no-panic scope
//! (`lint.toml`); malformed input surfaces as [`ProtoError`], not as a
//! panic in a worker thread.

use bytes::{Buf, BufMut, BytesMut};
use gestures::Gesture;
use kinematics::{KinematicSample, ManipulatorState, Vec3, VARS_PER_MANIPULATOR};

/// Protocol version carried in every message body.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on a message body, checked against the length prefix
/// *before* the decoder reserves space for the message. 255 manipulators
/// × 19 f32 + the FRAME header is < 20 KiB; 64 KiB leaves headroom for a
/// future v2 without letting a hostile 4 GiB prefix drive an allocation.
pub const MAX_BODY: usize = 64 * 1024;

/// Bytes of one encoded DECISION: the length prefix, version and kind,
/// and the 14-byte payload.
pub const DECISION_LEN: usize = 4 + 2 + DECISION_PAYLOAD;
const DECISION_PAYLOAD: usize = 4 + 1 + 1 + 4 + 4;

/// Sentinel context byte in FRAME meaning "no gesture label attached".
const NO_CONTEXT: u8 = 0xFF;

/// Message kind bytes (client → server).
pub const KIND_HELLO: u8 = 0x01;
/// See [`KIND_HELLO`].
pub const KIND_FRAME: u8 = 0x02;
/// See [`KIND_HELLO`].
pub const KIND_GOODBYE: u8 = 0x03;
/// Message kind bytes (server → client).
pub const KIND_WELCOME: u8 = 0x81;
/// See [`KIND_WELCOME`].
pub const KIND_BUSY: u8 = 0x82;
/// See [`KIND_WELCOME`].
pub const KIND_DECISION: u8 = 0x83;
/// See [`KIND_WELCOME`].
pub const KIND_ERROR: u8 = 0x84;
/// See [`KIND_WELCOME`].
pub const KIND_BYE: u8 = 0x85;

/// Why a byte stream failed to decode. Every variant closes the
/// connection with a typed [`ErrorCode`] reply; none of them panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// Length prefix exceeds [`MAX_BODY`] — rejected before allocation.
    Oversized {
        /// The declared body length.
        declared: usize,
    },
    /// Version byte is not [`WIRE_VERSION`].
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// Unknown message kind byte.
    BadKind {
        /// The kind byte received.
        got: u8,
    },
    /// Body ended before its payload did.
    Truncated,
    /// Body kept going after its payload ended.
    TrailingBytes,
    /// FRAME context byte is neither `0xFF` nor a valid gesture index.
    BadGesture {
        /// The context byte received.
        got: u8,
    },
    /// FRAME manipulator variable is NaN or infinite. Nothing downstream
    /// would catch it: ReLU's `f32::max` turns a NaN into a finite, wrong
    /// score.
    NonFinite,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ProtoError::Oversized { declared } => {
                write!(f, "declared body of {declared} bytes exceeds MAX_BODY {MAX_BODY}")
            }
            ProtoError::BadVersion { got } => {
                write!(f, "wire version {got} (expected {WIRE_VERSION})")
            }
            ProtoError::BadKind { got } => write!(f, "unknown message kind {got:#04x}"),
            ProtoError::Truncated => write!(f, "payload shorter than its header claims"),
            ProtoError::TrailingBytes => write!(f, "payload longer than its header claims"),
            ProtoError::BadGesture { got } => write!(f, "context byte {got:#04x} is no gesture"),
            ProtoError::NonFinite => write!(f, "manipulator variable is NaN or infinite"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Typed reason carried by an ERROR message before the server closes a
/// connection. The codec maps [`ProtoError`] onto the first four; the
/// server adds the session-state reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Generic framing/payload violation (truncated, trailing, bad
    /// gesture byte, non-finite manipulator variable).
    Malformed = 1,
    /// Version byte mismatch.
    BadVersion = 2,
    /// Length prefix above [`MAX_BODY`].
    Oversized = 3,
    /// Kind byte the server does not accept (unknown, or server→client
    /// kind sent by a client).
    BadKind = 4,
    /// Message legal in itself but not in this session state (FRAME
    /// before HELLO, second HELLO, FRAME after GOODBYE).
    UnexpectedMessage = 5,
    /// FRAME sequence number was not the next expected one.
    BadSequence = 6,
    /// FRAME context contradicts the server's [`ContextMode`]: missing
    /// under `Perfect`, present under `Predicted`/`NoContext`.
    ///
    /// [`ContextMode`]: context_monitor::ContextMode
    BadContext = 7,
    /// FRAME manipulator count differs from what the served pipeline was
    /// trained on.
    BadShape = 8,
}

impl ErrorCode {
    /// Decodes a wire byte back into a code.
    // lint: hot-path
    pub fn from_u8(byte: u8) -> Option<ErrorCode> {
        match byte {
            1 => Some(ErrorCode::Malformed),
            2 => Some(ErrorCode::BadVersion),
            3 => Some(ErrorCode::Oversized),
            4 => Some(ErrorCode::BadKind),
            5 => Some(ErrorCode::UnexpectedMessage),
            6 => Some(ErrorCode::BadSequence),
            7 => Some(ErrorCode::BadContext),
            8 => Some(ErrorCode::BadShape),
            _ => None,
        }
    }
}

impl From<ProtoError> for ErrorCode {
    fn from(err: ProtoError) -> ErrorCode {
        match err {
            ProtoError::Oversized { .. } => ErrorCode::Oversized,
            ProtoError::BadVersion { .. } => ErrorCode::BadVersion,
            ProtoError::BadKind { .. } => ErrorCode::BadKind,
            ProtoError::Truncated
            | ProtoError::TrailingBytes
            | ProtoError::BadGesture { .. }
            | ProtoError::NonFinite => ErrorCode::Malformed,
        }
    }
}

/// Reusable FRAME payload target: [`Decoder::decode_next`] writes into
/// this instead of returning an owned sample, so a warm connection
/// decodes frames with **zero allocations** (the manipulator `Vec`
/// reaches its high-water mark once and is reused).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrameMsg {
    /// Client-assigned sequence number (dense from 0 per session).
    pub seq: u32,
    /// Operator-supplied gesture label (`Perfect` context mode).
    pub context: Option<Gesture>,
    /// The decoded kinematic frame.
    pub sample: KinematicSample,
}

/// A DECISION message — the per-frame verdict in wire form. Scores stay
/// as bit patterns end to end; [`DecisionMsg::from_decision`] and the
/// e2e tests compare them with `==`, never through a float round-trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionMsg {
    /// Echoed FRAME sequence number.
    pub seq: u32,
    /// `false` while the session's sliding window is still warming up
    /// (gesture/score/alert fields are zero and meaningless then).
    pub warm: bool,
    /// Whether the alert threshold was crossed.
    pub alert: bool,
    /// [`Gesture::index`] of the inferred context.
    pub gesture: u8,
    /// `f32::to_bits` of the unsafe probability.
    pub score_bits: u32,
    /// `f32::to_bits` of the per-frame compute latency (wall-clock:
    /// excluded from bit-equality, like `compute_ms` everywhere else).
    pub compute_ms_bits: u32,
}

impl DecisionMsg {
    /// Converts a monitor output for FRAME `seq` (the session is implicit
    /// on the wire — one session per connection) to wire form.
    // lint: hot-path
    pub fn from_decision(seq: u32, output: Option<&context_monitor::MonitorOutput>) -> DecisionMsg {
        match output {
            None => DecisionMsg {
                seq,
                warm: false,
                alert: false,
                gesture: 0,
                score_bits: 0,
                compute_ms_bits: 0,
            },
            Some(out) => DecisionMsg {
                seq,
                warm: true,
                alert: out.alert,
                gesture: out.gesture.index() as u8,
                score_bits: out.unsafe_probability.to_bits(),
                compute_ms_bits: out.compute_ms.to_bits(),
            },
        }
    }

    /// The bit-equality key: everything except `compute_ms_bits`
    /// (wall-clock, excluded from equality exactly like the in-process
    /// equivalence tests exclude `compute_ms`).
    pub fn key(&self) -> (u32, bool, bool, u8, u32) {
        (self.seq, self.warm, self.alert, self.gesture, self.score_bits)
    }
}

/// One fully decoded message. FRAME payloads land in the caller's
/// [`FrameMsg`] (see [`Decoder::decode_next`]); everything else is small
/// and returned by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded {
    /// Session open request.
    Hello {
        /// Client intends to attach gesture context to every FRAME.
        wants_context: bool,
    },
    /// One kinematic frame; payload written into the out-param.
    Frame,
    /// Clean end-of-stream: drain my decisions, then BYE.
    Goodbye,
    /// Session admitted.
    Welcome {
        /// Server-assigned session id.
        session: u64,
    },
    /// Session shed by admission control.
    Busy {
        /// Sessions active when the HELLO arrived.
        active: u32,
        /// The admission cap.
        cap: u32,
    },
    /// Per-frame verdict.
    Decision(DecisionMsg),
    /// Typed protocol error; the connection closes after this.
    Error {
        /// Why.
        code: ErrorCode,
    },
    /// GOODBYE acknowledged after the decision stream drained.
    Bye {
        /// Decisions delivered over the session's lifetime.
        delivered: u64,
    },
}

/// Checked, panic-free reader over one message body.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    // lint: hot-path
    fn new(body: &'a [u8]) -> Cursor<'a> {
        Cursor { rest: body }
    }

    // lint: hot-path
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if n > self.rest.len() {
            return Err(ProtoError::Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    // lint: hot-path
    fn u8(&mut self) -> Result<u8, ProtoError> {
        match self.rest.split_first() {
            Some((&byte, tail)) => {
                self.rest = tail;
                Ok(byte)
            }
            None => Err(ProtoError::Truncated),
        }
    }

    // lint: hot-path
    fn u32(&mut self) -> Result<u32, ProtoError> {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(raw))
    }

    // lint: hot-path
    fn u64(&mut self) -> Result<u64, ProtoError> {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(raw))
    }

    /// Reads one finite f32; NaN and ±∞ are [`ProtoError::NonFinite`].
    // lint: hot-path
    fn f32(&mut self) -> Result<f32, ProtoError> {
        let x = f32::from_bits(self.u32()?);
        if x.is_finite() {
            Ok(x)
        } else {
            Err(ProtoError::NonFinite)
        }
    }

    // lint: hot-path
    fn finish(self) -> Result<(), ProtoError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes)
        }
    }
}

/// Incremental stream decoder. Feed raw socket reads with
/// [`Decoder::extend`]; pull complete messages with
/// [`Decoder::decode_next`]. Handles messages split across arbitrarily
/// many reads (and many messages per read).
#[derive(Debug, Default)]
pub struct Decoder {
    buf: BytesMut,
}

impl Decoder {
    /// An empty decoder.
    pub fn new() -> Decoder {
        Decoder { buf: BytesMut::new() }
    }

    /// Bytes buffered but not yet consumed as messages.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Appends raw bytes from the socket.
    // lint: hot-path
    pub fn extend(&mut self, data: &[u8]) {
        self.buf.put_slice(data);
    }

    /// Whether [`Decoder::decode_next`] has something to return now: a
    /// complete message, or a length prefix it rejects as oversized.
    // lint: hot-path
    pub fn has_message(&self) -> bool {
        self.declared()
            .is_some_and(|body_len| body_len > MAX_BODY || self.buf.len() >= 4 + body_len)
    }

    /// The body length the buffered length prefix declares, once all four
    /// of its bytes are in.
    // lint: hot-path
    fn declared(&self) -> Option<usize> {
        let mut prefix = [0u8; 4];
        prefix.copy_from_slice(self.buf.chunk().get(..4)?);
        Some(u32::from_le_bytes(prefix) as usize)
    }

    /// Decodes the next complete message, if one is buffered.
    ///
    /// Returns `Ok(None)` when more bytes are needed, `Ok(Some(_))` for a
    /// complete message (FRAME payloads are written into `frame`, and the
    /// variant is [`Decoded::Frame`]), and `Err(_)` on malformed input —
    /// after which the stream is poisoned and the connection must close.
    ///
    /// An oversized length prefix fails here *before* the decoder buffers
    /// or reserves anything for the message body.
    // lint: hot-path
    pub fn decode_next(&mut self, frame: &mut FrameMsg) -> Result<Option<Decoded>, ProtoError> {
        let Some(body_len) = self.declared() else {
            return Ok(None);
        };
        if body_len > MAX_BODY {
            return Err(ProtoError::Oversized { declared: body_len });
        }
        if self.buf.len() < 4 + body_len {
            return Ok(None);
        }
        self.buf.advance(4);
        let decoded = match self.buf.chunk().get(..body_len) {
            Some(body) => decode_body(body, frame),
            None => Err(ProtoError::Truncated),
        };
        self.buf.advance(body_len);
        // lint: allow(hot-path, reason = "receiver is an Option, not a Mat -- std .map() name collision in the receiver-blind resolver")
        decoded.map(Some)
    }
}

/// Decodes one framed body (version byte onward).
// lint: hot-path
fn decode_body(body: &[u8], frame: &mut FrameMsg) -> Result<Decoded, ProtoError> {
    let mut cur = Cursor::new(body);
    let version = cur.u8()?;
    if version != WIRE_VERSION {
        return Err(ProtoError::BadVersion { got: version });
    }
    let kind = cur.u8()?;
    match kind {
        KIND_HELLO => {
            let wants_context = cur.u8()? != 0;
            cur.finish()?;
            Ok(Decoded::Hello { wants_context })
        }
        KIND_FRAME => {
            frame.seq = cur.u32()?;
            let ctx = cur.u8()?;
            frame.context = if ctx == NO_CONTEXT {
                None
            } else {
                match Gesture::from_index(ctx as usize) {
                    Some(g) => Some(g),
                    None => return Err(ProtoError::BadGesture { got: ctx }),
                }
            };
            let nmanip = cur.u8()? as usize;
            frame.sample.manipulators.resize(nmanip, ManipulatorState::default());
            for manip in &mut frame.sample.manipulators {
                decode_manipulator(&mut cur, manip)?;
            }
            cur.finish()?;
            Ok(Decoded::Frame)
        }
        KIND_GOODBYE => {
            cur.finish()?;
            Ok(Decoded::Goodbye)
        }
        KIND_WELCOME => {
            let session = cur.u64()?;
            cur.finish()?;
            Ok(Decoded::Welcome { session })
        }
        KIND_BUSY => {
            let active = cur.u32()?;
            let cap = cur.u32()?;
            cur.finish()?;
            Ok(Decoded::Busy { active, cap })
        }
        KIND_DECISION => {
            let seq = cur.u32()?;
            let flags = cur.u8()?;
            let gesture = cur.u8()?;
            let score_bits = cur.u32()?;
            let compute_ms_bits = cur.u32()?;
            cur.finish()?;
            Ok(Decoded::Decision(DecisionMsg {
                seq,
                warm: flags & 0x01 != 0,
                alert: flags & 0x02 != 0,
                gesture,
                score_bits,
                compute_ms_bits,
            }))
        }
        KIND_ERROR => {
            let raw = cur.u8()?;
            cur.finish()?;
            match ErrorCode::from_u8(raw) {
                Some(code) => Ok(Decoded::Error { code }),
                None => Err(ProtoError::Truncated),
            }
        }
        KIND_BYE => {
            let delivered = cur.u64()?;
            cur.finish()?;
            Ok(Decoded::Bye { delivered })
        }
        other => Err(ProtoError::BadKind { got: other }),
    }
}

/// Reads 19 finite f32le variables in JIGSAWS column order (the layout of
/// `ManipulatorState::to_vec`), preserving bit patterns.
// lint: hot-path
fn decode_manipulator(cur: &mut Cursor<'_>, out: &mut ManipulatorState) -> Result<(), ProtoError> {
    out.position = Vec3::new(cur.f32()?, cur.f32()?, cur.f32()?);
    for cell in &mut out.rotation.m {
        *cell = cur.f32()?;
    }
    out.grasper_angle = cur.f32()?;
    out.linear_velocity = Vec3::new(cur.f32()?, cur.f32()?, cur.f32()?);
    out.angular_velocity = Vec3::new(cur.f32()?, cur.f32()?, cur.f32()?);
    Ok(())
}

/// Writes the `len | version | kind` header for a `payload_len`-byte
/// payload.
// lint: hot-path
fn put_header(out: &mut BytesMut, kind: u8, payload_len: usize) {
    out.put_u32_le((2 + payload_len) as u32);
    out.put_u8(WIRE_VERSION);
    out.put_u8(kind);
}

/// Encodes HELLO.
pub fn encode_hello(out: &mut BytesMut, wants_context: bool) {
    put_header(out, KIND_HELLO, 1);
    out.put_u8(wants_context as u8);
}

/// Encodes one kinematic FRAME. Alloc-free once `out` is warm — this is
/// the client's per-frame path.
// lint: hot-path
pub fn encode_frame(
    out: &mut BytesMut,
    seq: u32,
    context: Option<Gesture>,
    sample: &KinematicSample,
) {
    let nmanip = sample.manipulators.len();
    debug_assert!(nmanip <= u8::MAX as usize, "frame with >255 manipulators");
    put_header(out, KIND_FRAME, 4 + 1 + 1 + nmanip * VARS_PER_MANIPULATOR * 4);
    out.put_u32_le(seq);
    out.put_u8(match context {
        Some(g) => g.index() as u8,
        None => NO_CONTEXT,
    });
    out.put_u8(nmanip as u8);
    for manip in &sample.manipulators {
        encode_manipulator(out, manip);
    }
}

/// Writes 19 f32le variables in JIGSAWS column order.
// lint: hot-path
fn encode_manipulator(out: &mut BytesMut, manip: &ManipulatorState) {
    let [px, py, pz] = manip.position.to_array();
    out.put_f32_le(px);
    out.put_f32_le(py);
    out.put_f32_le(pz);
    for &cell in &manip.rotation.m {
        out.put_f32_le(cell);
    }
    out.put_f32_le(manip.grasper_angle);
    let [lx, ly, lz] = manip.linear_velocity.to_array();
    out.put_f32_le(lx);
    out.put_f32_le(ly);
    out.put_f32_le(lz);
    let [ax, ay, az] = manip.angular_velocity.to_array();
    out.put_f32_le(ax);
    out.put_f32_le(ay);
    out.put_f32_le(az);
}

/// Encodes GOODBYE.
pub fn encode_goodbye(out: &mut BytesMut) {
    put_header(out, KIND_GOODBYE, 0);
}

/// Encodes WELCOME.
pub fn encode_welcome(out: &mut BytesMut, session: u64) {
    put_header(out, KIND_WELCOME, 8);
    out.put_u64_le(session);
}

/// Encodes BUSY.
pub fn encode_busy(out: &mut BytesMut, active: u32, cap: u32) {
    put_header(out, KIND_BUSY, 8);
    out.put_u32_le(active);
    out.put_u32_le(cap);
}

/// Encodes a DECISION — the server's per-frame path.
// lint: hot-path
pub fn encode_decision(out: &mut BytesMut, msg: &DecisionMsg) {
    put_header(out, KIND_DECISION, DECISION_PAYLOAD);
    out.put_u32_le(msg.seq);
    out.put_u8((msg.warm as u8) | ((msg.alert as u8) << 1));
    out.put_u8(msg.gesture);
    out.put_u32_le(msg.score_bits);
    out.put_u32_le(msg.compute_ms_bits);
}

/// Encodes ERROR.
pub fn encode_error(out: &mut BytesMut, code: ErrorCode) {
    put_header(out, KIND_ERROR, 1);
    out.put_u8(code as u8);
}

/// Encodes BYE.
pub fn encode_bye(out: &mut BytesMut, delivered: u64) {
    put_header(out, KIND_BYE, 8);
    out.put_u64_le(delivered);
}
