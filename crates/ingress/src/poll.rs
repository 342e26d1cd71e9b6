//! `poll(2)`, the crate's one FFI call: the event loops wait in it for
//! their sockets, and the load generator for its replies.

use std::ffi::{c_int, c_short};
use std::os::fd::RawFd;

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

// The event bits are the same on Linux, the BSDs and macOS.
pub(crate) const POLLIN: c_short = 0x1;
pub(crate) const POLLOUT: c_short = 0x4;
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
    pub(crate) fn new(fd: RawFd, events: c_short) -> Self {
        Self { fd, events, revents: 0 }
    }

    /// Whether a read would not block: data, end of stream, or an error
    /// the read reports.
    pub(crate) fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR) != 0
    }
}

/// Blocks until one of `fds` is ready, or for at most `timeout_ms`
/// (`-1`: no limit). A failed or interrupted `poll` leaves every `revents`
/// at 0, which the caller reads as nothing ready.
pub(crate) fn wait(fds: &mut [PollFd], timeout_ms: c_int) {
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // `struct pollfd` records, and `poll` reads and writes only its first
    // `fds.len()` entries.
    unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) };
}
