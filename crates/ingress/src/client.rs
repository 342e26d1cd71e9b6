//! Minimal blocking client for the ingress wire protocol — the session
//! side of `server.rs`, used by the e2e tests and the load generator.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use bytes::{Buf, BytesMut};
use gestures::Gesture;
use kinematics::KinematicSample;

use crate::codec::{
    encode_frame, encode_goodbye, encode_hello, DecisionMsg, Decoded, Decoder, ErrorCode, FrameMsg,
    ProtoError,
};

/// A message the server can send to a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerMsg {
    /// Admitted; the per-frame stream may start.
    Welcome {
        /// Server-assigned session id.
        session: u64,
    },
    /// Shed by admission control; the connection is closing.
    Busy {
        /// Sessions active when the HELLO arrived.
        active: u32,
        /// The admission cap.
        cap: u32,
    },
    /// Per-frame verdict.
    Decision(DecisionMsg),
    /// Typed protocol error; the connection is closing.
    Error {
        /// Why.
        code: ErrorCode,
    },
    /// GOODBYE acknowledged; `delivered` decisions were sent in total.
    Bye {
        /// Total decisions delivered over the session.
        delivered: u64,
    },
}

/// Why a receive failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket error.
    Io(std::io::Error),
    /// The server sent bytes that do not decode.
    Proto(ProtoError),
    /// The server closed the connection.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Closed => write!(f, "connection closed by server"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One client connection = one (attempted) session.
pub struct Connection {
    /// The socket; the load generator polls it.
    pub(crate) stream: TcpStream,
    dec: Decoder,
    enc: BytesMut,
    scratch: FrameMsg,
    buf: [u8; 8 * 1024],
}

impl Connection {
    /// Connects (TCP_NODELAY on) without sending anything yet.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self::over(stream))
    }

    fn over(stream: TcpStream) -> Self {
        Self {
            stream,
            dec: Decoder::new(),
            enc: BytesMut::new(),
            scratch: FrameMsg::default(),
            buf: [0u8; 8 * 1024],
        }
    }

    /// A second handle on the same socket, so that one thread can send
    /// while another receives. Blocking mode and timeouts are the socket's,
    /// shared by both handles.
    pub(crate) fn try_clone(&self) -> std::io::Result<Self> {
        Ok(Self::over(self.stream.try_clone()?))
    }

    /// Switches the socket between blocking [`Connection::recv`] and
    /// polling [`Connection::try_recv`] use.
    pub fn set_nonblocking(&mut self, nonblocking: bool) -> std::io::Result<()> {
        self.stream.set_nonblocking(nonblocking)
    }

    /// Bounds how long a blocking [`Connection::recv`] waits.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Writes the encode buffer out fully, spinning through partial
    /// writes and `WouldBlock` (messages are tiny; a nonblocking socket
    /// drains them in a bounded number of retries).
    fn flush_enc(&mut self) -> std::io::Result<()> {
        while self.enc.has_remaining() {
            match self.stream.write(self.enc.chunk()) {
                Ok(0) => {
                    self.enc.clear();
                    return Err(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "socket accepted no bytes",
                    ));
                }
                Ok(n) => self.enc.advance(n),
                Err(ref e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(ref e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    self.enc.clear();
                    return Err(e);
                }
            }
        }
        self.enc.clear();
        Ok(())
    }

    /// Opens the session. `wants_context` must match the server's
    /// context mode (`true` iff it serves `ContextMode::Perfect`).
    pub fn send_hello(&mut self, wants_context: bool) -> std::io::Result<()> {
        encode_hello(&mut self.enc, wants_context);
        self.flush_enc()
    }

    /// Sends one kinematic frame. `seq` must be dense from 0.
    pub fn send_frame(
        &mut self,
        seq: u32,
        context: Option<Gesture>,
        sample: &KinematicSample,
    ) -> std::io::Result<()> {
        encode_frame(&mut self.enc, seq, context, sample);
        self.flush_enc()
    }

    /// Asks the server to drain this session's decisions and reply BYE.
    pub fn send_goodbye(&mut self) -> std::io::Result<()> {
        encode_goodbye(&mut self.enc);
        self.flush_enc()
    }

    /// Sends raw bytes as-is — for tests that exercise the server's
    /// malformed-input handling.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Blocking receive of the next server message.
    pub fn recv(&mut self) -> Result<ServerMsg, ClientError> {
        loop {
            if let Some(msg) = self.decode_buffered()? {
                return Ok(msg);
            }
            match self.stream.read(&mut self.buf) {
                Ok(0) => return Err(ClientError::Closed),
                Ok(n) => self.dec.extend(&self.buf[..n]),
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// Non-blocking receive: `Ok(None)` when no complete message is
    /// available right now (requires `set_nonblocking(true)`).
    pub fn try_recv(&mut self) -> Result<Option<ServerMsg>, ClientError> {
        loop {
            if let Some(msg) = self.decode_buffered()? {
                return Ok(Some(msg));
            }
            match self.stream.read(&mut self.buf) {
                Ok(0) => return Err(ClientError::Closed),
                Ok(n) => self.dec.extend(&self.buf[..n]),
                Err(ref e)
                    if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    fn decode_buffered(&mut self) -> Result<Option<ServerMsg>, ClientError> {
        match self.dec.decode_next(&mut self.scratch) {
            Ok(None) => Ok(None),
            Err(e) => Err(ClientError::Proto(e)),
            Ok(Some(decoded)) => match decoded {
                Decoded::Welcome { session } => Ok(Some(ServerMsg::Welcome { session })),
                Decoded::Busy { active, cap } => Ok(Some(ServerMsg::Busy { active, cap })),
                Decoded::Decision(d) => Ok(Some(ServerMsg::Decision(d))),
                Decoded::Error { code } => Ok(Some(ServerMsg::Error { code })),
                Decoded::Bye { delivered } => Ok(Some(ServerMsg::Bye { delivered })),
                // Client→server kinds coming *from* a server.
                Decoded::Hello { .. } | Decoded::Frame | Decoded::Goodbye => {
                    Err(ClientError::Proto(ProtoError::BadKind { got: 0 }))
                }
            },
        }
    }
}
