//! Network ingress: the monitor as a real service.
//!
//! Everything before this crate multiplexes surgical-robot telemetry
//! streams onto the monitor fleet *in process*. This crate puts a wire
//! in the middle without giving up the repo's core guarantee: the
//! decision stream a client reads off the socket is **bit-identical**
//! to what the in-process pool produces for the same frames
//! (`tests/e2e.rs`, gated in CI by `repro_serve --smoke`).
//!
//! - [`codec`] — length-prefixed versioned wire protocol on the
//!   vendored `bytes`; allocation-free encode/decode on the per-frame
//!   path; malformed input is a typed [`codec::ProtoError`], never a
//!   panic.
//! - [`server`] — std-net TCP front end: `workers` nonblocking event
//!   loops, each owning the connections placed on it and those sessions'
//!   engines, so a FRAME is read, scored and answered on one thread and
//!   the service runs `workers` threads at any connection count. A loop
//!   blocks in `poll(2)` until one of its sockets is ready or it is handed
//!   a new connection, so an idle server uses no CPU; a client that never
//!   reads is pushed back by TCP flow control, not buffered; and the
//!   admission controller *sheds* (typed BUSY) instead of delaying
//!   admitted sessions.
//! - [`client`] — blocking client used by tests and tools.
//! - [`loadgen`] — paced open-loop load generator: up to thousands of
//!   concurrent synthetic sessions at the paper's 30 Hz, each decision
//!   timed from its frame's scheduled send, nearest-rank quantiles with
//!   their sample counts, shed accounting (`BENCH_ingress.json` comes from
//!   `repro_serve`'s sweep over it).
//!
//! The crate is Unix-only: the server and the load generator wait with
//! `poll(2)`, its one FFI call, and the server wakes a loop through a
//! `std::os::unix` socket pair.

pub mod client;
pub mod codec;
pub mod loadgen;
mod poll;
pub mod server;

pub use client::{ClientError, Connection, ServerMsg};
pub use codec::{DecisionMsg, Decoded, Decoder, ErrorCode, FrameMsg, ProtoError};
pub use loadgen::{LatencySummary, LoadReport, LoadgenConfig};
pub use server::{IngressServer, ServerConfig, ServerStats};
