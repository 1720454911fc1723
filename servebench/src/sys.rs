//! The few raw syscalls the benchmark needs, declared as `extern "C"`
//! items with their Linux ABI constants spelled out, in the style of
//! `bnb-serve`'s own `sys.rs` (the workspace takes no libc crate).

use std::io;
use std::os::raw::{c_int, c_long, c_ulong};
use std::time::Duration;

/// One `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    pub fd: c_int,
    pub events: i16,
    pub revents: i16,
}

pub const POLLIN: i16 = 0x001;
pub const POLLOUT: i16 = 0x004;
pub const POLLERR: i16 = 0x008;
pub const POLLHUP: i16 = 0x010;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout_ms: c_int) -> c_int;
    fn sysconf(name: c_int) -> c_long;
}

const SC_CLK_TCK: c_int = 2;

/// `poll(2)`, waiting at most `timeout` rounded up to whole milliseconds.
/// Returns how many descriptors have events; an interrupted wait counts
/// as zero.
pub fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ms = timeout
        .as_nanos()
        .div_ceil(1_000_000)
        .min(c_int::MAX as u128) as c_int;
    // SAFETY: `fds` is an exclusively borrowed array of `fds.len()`
    // pollfd structs the kernel writes `revents` into.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
    if n < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(n as usize)
}

/// Clock ticks per second of `/proc/<pid>/stat` CPU times.
pub fn clock_ticks_per_second() -> u64 {
    // SAFETY: sysconf reads a constant; no memory is passed.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as u64
    } else {
        100
    }
}
