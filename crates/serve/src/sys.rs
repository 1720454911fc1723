//! Raw readiness syscalls for the reactor: `epoll(7)` on Linux, a
//! `poll(2)` fallback on other unixes, and a self-wake pipe; plus the
//! `listen(2)` call that sizes the acceptor's queue.
//!
//! The workspace rule is std-only — no async runtime, no libc crate —
//! so the handful of syscalls the reactor needs are declared here as
//! `extern "C"` items with the kernel ABI constants spelled out, the
//! same way `server.rs` installs its `signal(2)` handlers. Everything
//! is wrapped in safe types immediately: [`Poller`] owns the epoll fd,
//! [`WakePipe`] owns both pipe ends, and both close on drop.
//!
//! Linux registration is edge-triggered (`EPOLLET`): the connection
//! state machines drain reads to `WouldBlock` and only subscribe write
//! readiness while bytes are buffered, which keeps them correct under
//! the level-triggered `poll(2)` fallback too.

#![allow(dead_code)]

use std::io;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

#[cfg(not(unix))]
pub(crate) use stub::{fd_of, set_backlog, Poller, WakePipe};
#[cfg(unix)]
pub(crate) use unix::{fd_of, set_backlog, Poller, WakePipe};

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollEvent {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable (or peer half-closed: reads will observe it).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hangup: the connection is done regardless of interest.
    pub hangup: bool,
}

#[cfg(unix)]
mod unix {
    use super::{io, Duration, PollEvent, TcpListener, TcpStream};
    use std::os::unix::io::{AsRawFd, RawFd};

    extern "C" {
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn pipe(fds: *mut i32) -> i32;
        fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
    }

    const F_GETFL: i32 = 3;
    const F_SETFL: i32 = 4;
    #[cfg(any(target_os = "macos", target_os = "ios"))]
    const O_NONBLOCK: i32 = 0x0004;
    #[cfg(not(any(target_os = "macos", target_os = "ios")))]
    const O_NONBLOCK: i32 = 0o4000;

    /// The fd a [`Poller`] registers `stream` under.
    pub(crate) fn fd_of(stream: &TcpStream) -> RawFd {
        stream.as_raw_fd()
    }

    /// Calls `listen(2)` again on a bound listener, so its accept queue
    /// holds `backlog` pending connects (the kernel caps it at
    /// `somaxconn`).
    pub(crate) fn set_backlog(listener: &TcpListener, backlog: usize) -> io::Result<()> {
        let backlog = backlog.min(i32::MAX as usize) as i32;
        // SAFETY: listen on the listener's own open fd; no memory is passed.
        if unsafe { listen(listener.as_raw_fd(), backlog) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// A millisecond timeout for `epoll_wait`/`poll`, rounded up so the
    /// wait never ends before `timeout` (`-1` = forever).
    fn timeout_ms(timeout: Option<Duration>) -> i32 {
        match timeout {
            None => -1,
            Some(d) => d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
        }
    }

    fn set_nonblocking(fd: RawFd) -> io::Result<()> {
        // SAFETY: fcntl on an owned, open fd; no memory is passed.
        unsafe {
            let flags = fcntl(fd, F_GETFL, 0);
            if flags < 0 {
                return Err(io::Error::last_os_error());
            }
            if fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0 {
                return Err(io::Error::last_os_error());
            }
        }
        Ok(())
    }

    /// A one-way self-wake channel: any thread [`wake`](Self::wake)s,
    /// the owning reactor has the read end registered and
    /// [`drain`](Self::drain)s it. Both ends nonblocking: a full pipe
    /// means a wake is already pending, which is all a wake conveys.
    #[derive(Debug)]
    pub(crate) struct WakePipe {
        r: RawFd,
        w: RawFd,
    }

    impl WakePipe {
        pub fn new() -> io::Result<WakePipe> {
            let mut fds = [0i32; 2];
            // SAFETY: pipe writes exactly two fds into the array.
            if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
                return Err(io::Error::last_os_error());
            }
            let pipe = WakePipe {
                r: fds[0],
                w: fds[1],
            };
            set_nonblocking(pipe.r)?;
            set_nonblocking(pipe.w)?;
            Ok(pipe)
        }

        /// The fd to register for read readiness.
        pub fn reader_fd(&self) -> RawFd {
            self.r
        }

        /// Nudges the owning reactor. Best-effort: `EAGAIN` means the
        /// pipe already holds an undrained wake.
        pub fn wake(&self) {
            let byte = 1u8;
            // SAFETY: writing one byte from a live stack buffer to an
            // owned fd; short or failed writes are fine by design.
            unsafe {
                let _ = write(self.w, &byte as *const u8, 1);
            }
        }

        /// Consumes every pending wake byte.
        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            // SAFETY: reading into a live stack buffer from an owned fd.
            while unsafe { read(self.r, buf.as_mut_ptr(), buf.len()) } > 0 {}
        }
    }

    impl Drop for WakePipe {
        fn drop(&mut self) {
            // SAFETY: both fds are owned and open exactly once.
            unsafe {
                let _ = close(self.r);
                let _ = close(self.w);
            }
        }
    }

    #[cfg(not(target_os = "linux"))]
    pub(crate) use fallback::Poller;
    #[cfg(target_os = "linux")]
    pub(crate) use linux::Poller;

    #[cfg(target_os = "linux")]
    mod linux {
        use super::{close, io, timeout_ms, Duration, PollEvent};
        use std::os::unix::io::RawFd;

        // The kernel ABI struct: packed on x86-64, aligned elsewhere.
        #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
        #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
        #[derive(Clone, Copy)]
        struct EpollEvent {
            events: u32,
            data: u64,
        }

        extern "C" {
            fn syscall(num: i64, ...) -> i64;
            fn epoll_create1(flags: i32) -> i32;
            fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
            fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        }

        const EPOLL_CLOEXEC: i32 = 0o2000000;
        const EPOLL_CTL_ADD: i32 = 1;
        const EPOLL_CTL_DEL: i32 = 2;
        const EPOLL_CTL_MOD: i32 = 3;
        const EPOLLIN: u32 = 0x001;
        const EPOLLOUT: u32 = 0x004;
        const EPOLLERR: u32 = 0x008;
        const EPOLLHUP: u32 = 0x010;
        const EPOLLRDHUP: u32 = 0x2000;
        const EPOLLET: u32 = 1 << 31;

        /// An owned `epoll(7)` instance.
        #[derive(Debug)]
        pub(crate) struct Poller {
            epfd: RawFd,
            buf: Vec<u64>, // raw event storage, reinterpreted per wait
            /// Cleared once `epoll_pwait2` proves unavailable.
            pwait2: bool,
        }

        fn interest_bits(read: bool, write: bool) -> u32 {
            let mut events = EPOLLET | EPOLLRDHUP;
            if read {
                events |= EPOLLIN;
            }
            if write {
                events |= EPOLLOUT;
            }
            events
        }

        impl Poller {
            pub fn new() -> io::Result<Poller> {
                // SAFETY: plain syscall, no memory passed.
                let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
                if epfd < 0 {
                    return Err(io::Error::last_os_error());
                }
                Ok(Poller {
                    epfd,
                    buf: vec![0u64; 512],
                    pwait2: true,
                })
            }

            fn ctl(
                &self,
                op: i32,
                fd: RawFd,
                token: u64,
                read: bool,
                write: bool,
            ) -> io::Result<()> {
                let mut ev = EpollEvent {
                    events: interest_bits(read, write),
                    data: token,
                };
                let evp = if op == EPOLL_CTL_DEL {
                    std::ptr::null_mut()
                } else {
                    &mut ev as *mut EpollEvent
                };
                // SAFETY: `ev` outlives the call; the kernel copies it.
                if unsafe { epoll_ctl(self.epfd, op, fd, evp) } < 0 {
                    return Err(io::Error::last_os_error());
                }
                Ok(())
            }

            /// Registers `fd` edge-triggered under `token`.
            pub fn add(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
                self.ctl(EPOLL_CTL_ADD, fd, token, read, write)
            }

            /// Re-arms `fd`'s interest set.
            pub fn modify(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
                self.ctl(EPOLL_CTL_MOD, fd, token, read, write)
            }

            /// Removes `fd`. Harmless if the fd is already gone.
            pub fn remove(&self, fd: RawFd) -> io::Result<()> {
                self.ctl(EPOLL_CTL_DEL, fd, 0, false, false)
            }

            /// `epoll_pwait2(2)` (Linux 5.11+), which takes a nanosecond
            /// timeout, through `syscall(2)` so that builds against glibc
            /// older than 2.35 still link. `None` once it is unavailable.
            #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
            fn pwait2(&mut self, max_events: i32, timeout: Option<Duration>) -> Option<i64> {
                if !self.pwait2 {
                    return None;
                }
                // The kernel's `__kernel_timespec`: two 64-bit fields.
                let secs = |d: Duration| d.as_secs().min(i64::MAX as u64) as i64;
                let timespec = timeout.map(|d| [secs(d), i64::from(d.subsec_nanos())]);
                let spec = timespec.as_ref().map_or(std::ptr::null(), |s| s.as_ptr()) as i64;
                let (epfd, events) = (i64::from(self.epfd), self.buf.as_mut_ptr() as i64);
                // SAFETY: `buf` holds `max_events` EpollEvent-sized slots and
                // `timespec` (or null: no timeout) outlives the call; a null
                // sigmask keeps the mask. Every variadic argument is 64 bits.
                let n =
                    unsafe { syscall(441, epfd, events, i64::from(max_events), spec, 0i64, 0i64) };
                // ENOSYS: a kernel before 5.11; EPERM: a seccomp filter.
                let unavailable = [io::ErrorKind::Unsupported, io::ErrorKind::PermissionDenied];
                self.pwait2 = n >= 0 || !unavailable.contains(&io::Error::last_os_error().kind());
                self.pwait2.then_some(n)
            }

            #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
            fn pwait2(&mut self, _max_events: i32, _timeout: Option<Duration>) -> Option<i64> {
                None
            }

            /// Blocks for readiness up to `timeout` (`None` = forever),
            /// appending to `out`. Returns the number of events. Without
            /// `epoll_pwait2` the timeout rounds up to whole milliseconds,
            /// so a wait never ends before its deadline.
            pub fn wait(
                &mut self,
                out: &mut Vec<PollEvent>,
                timeout: Option<Duration>,
            ) -> io::Result<usize> {
                // 12 packed bytes (x86-64) or 16 aligned bytes fit in
                // two u64 slots either way.
                let max_events = (self.buf.len() / 2) as i32;
                let n = match self.pwait2(max_events, timeout) {
                    Some(n) => n,
                    // SAFETY: the buffer holds `max_events` EpollEvent-sized
                    // slots and outlives the call.
                    None => i64::from(unsafe {
                        epoll_wait(
                            self.epfd,
                            self.buf.as_mut_ptr() as *mut EpollEvent,
                            max_events,
                            timeout_ms(timeout),
                        )
                    }),
                };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        return Ok(0);
                    }
                    return Err(err);
                }
                for i in 0..n as usize {
                    // SAFETY: slot `i` was just written by the kernel;
                    // read_unaligned tolerates the packed x86-64 layout.
                    let ev = unsafe {
                        std::ptr::read_unaligned((self.buf.as_ptr() as *const EpollEvent).add(i))
                    };
                    out.push(PollEvent {
                        token: ev.data,
                        readable: ev.events & (EPOLLIN | EPOLLRDHUP) != 0,
                        writable: ev.events & EPOLLOUT != 0,
                        hangup: ev.events & (EPOLLERR | EPOLLHUP) != 0,
                    });
                }
                Ok(n as usize)
            }
        }

        impl Drop for Poller {
            fn drop(&mut self) {
                // SAFETY: the epfd is owned and open exactly once.
                unsafe {
                    let _ = close(self.epfd);
                }
            }
        }
    }

    #[cfg(not(target_os = "linux"))]
    mod fallback {
        use super::{io, timeout_ms, Duration, PollEvent};
        use std::collections::HashMap;
        use std::os::unix::io::RawFd;

        #[repr(C)]
        #[derive(Clone, Copy)]
        struct PollFd {
            fd: i32,
            events: i16,
            revents: i16,
        }

        extern "C" {
            fn poll(fds: *mut PollFd, nfds: usize, timeout: i32) -> i32;
        }

        const POLLIN: i16 = 0x001;
        const POLLOUT: i16 = 0x004;
        const POLLERR: i16 = 0x008;
        const POLLHUP: i16 = 0x010;

        /// Level-triggered `poll(2)` emulation of the epoll interface.
        /// Correct because the state machines re-check interest every
        /// turn; O(fds) per wait is acceptable on non-Linux dev hosts.
        #[derive(Debug)]
        pub(crate) struct Poller {
            registered: HashMap<RawFd, (u64, bool, bool)>,
        }

        impl Poller {
            pub fn new() -> io::Result<Poller> {
                Ok(Poller {
                    registered: HashMap::new(),
                })
            }

            pub fn add(
                &mut self,
                fd: RawFd,
                token: u64,
                read: bool,
                write: bool,
            ) -> io::Result<()> {
                self.registered.insert(fd, (token, read, write));
                Ok(())
            }

            pub fn modify(
                &mut self,
                fd: RawFd,
                token: u64,
                read: bool,
                write: bool,
            ) -> io::Result<()> {
                self.registered.insert(fd, (token, read, write));
                Ok(())
            }

            pub fn remove(&mut self, fd: RawFd) -> io::Result<()> {
                self.registered.remove(&fd);
                Ok(())
            }

            pub fn wait(
                &mut self,
                out: &mut Vec<PollEvent>,
                timeout: Option<Duration>,
            ) -> io::Result<usize> {
                let mut fds: Vec<PollFd> = self
                    .registered
                    .iter()
                    .map(|(&fd, &(_, read, write))| PollFd {
                        fd,
                        events: if read { POLLIN } else { 0 } | if write { POLLOUT } else { 0 },
                        revents: 0,
                    })
                    .collect();
                // SAFETY: `fds` outlives the call; the kernel writes
                // revents in place.
                let n = unsafe { poll(fds.as_mut_ptr(), fds.len(), timeout_ms(timeout)) };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        return Ok(0);
                    }
                    return Err(err);
                }
                let mut pushed = 0;
                for pfd in &fds {
                    if pfd.revents == 0 {
                        continue;
                    }
                    let (token, _, _) = self.registered[&pfd.fd];
                    out.push(PollEvent {
                        token,
                        readable: pfd.revents & POLLIN != 0,
                        writable: pfd.revents & POLLOUT != 0,
                        hangup: pfd.revents & (POLLERR | POLLHUP) != 0,
                    });
                    pushed += 1;
                }
                Ok(pushed)
            }
        }
    }
}

#[cfg(not(unix))]
mod stub {
    use super::{io, Duration, PollEvent, TcpListener, TcpStream};

    pub(crate) fn fd_of(_stream: &TcpStream) -> i32 {
        -1
    }

    /// Keeps std's accept queue: the reactor cannot serve here anyway.
    pub(crate) fn set_backlog(_listener: &TcpListener, _backlog: usize) -> io::Result<()> {
        Ok(())
    }

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "the bnb-serve reactor requires a unix host (epoll or poll)",
        )
    }

    /// Non-unix placeholder: construction fails, so `Server::serve`
    /// surfaces a configuration error instead of a compile break.
    #[derive(Debug)]
    pub(crate) struct Poller;

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Err(unsupported())
        }
        pub fn add(&mut self, _fd: i32, _token: u64, _r: bool, _w: bool) -> io::Result<()> {
            Err(unsupported())
        }
        pub fn modify(&mut self, _fd: i32, _token: u64, _r: bool, _w: bool) -> io::Result<()> {
            Err(unsupported())
        }
        pub fn remove(&mut self, _fd: i32) -> io::Result<()> {
            Err(unsupported())
        }
        pub fn wait(
            &mut self,
            _out: &mut Vec<PollEvent>,
            _timeout: Option<Duration>,
        ) -> io::Result<usize> {
            Err(unsupported())
        }
    }

    #[derive(Debug)]
    pub(crate) struct WakePipe;

    impl WakePipe {
        pub fn new() -> io::Result<WakePipe> {
            Err(unsupported())
        }
        pub fn reader_fd(&self) -> i32 {
            -1
        }
        pub fn wake(&self) {}
        pub fn drain(&self) {}
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::TcpListener;
    use std::os::unix::io::AsRawFd;
    use std::time::Instant;

    #[test]
    fn wake_pipe_wakes_and_drains() {
        let pipe = WakePipe::new().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.add(pipe.reader_fd(), 99, true, false).unwrap();
        let mut events = Vec::new();
        // No wake: times out empty.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
        // Woken (twice — coalesces into at least one readable event).
        pipe.wake();
        pipe.wake();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 99 && e.readable));
        pipe.drain();
    }

    #[test]
    fn sub_millisecond_wait_blocks() {
        let mut poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let timeout = Duration::from_micros(300);
        let started = Instant::now();
        poller.wait(&mut events, Some(timeout)).unwrap();
        let waited = started.elapsed();
        assert!(events.is_empty());
        assert!(
            waited >= timeout && waited < Duration::from_millis(100),
            "a 300 µs wait took {waited:?}"
        );
    }

    #[test]
    fn socket_readiness_reports_the_registered_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 7, true, false).unwrap();
        client.write_all(b"ping").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        // Drain, then re-arm for write interest: an idle socket is
        // immediately writable.
        let mut buf = [0u8; 16];
        let mut s = &server;
        let n = s.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
        poller.modify(server.as_raw_fd(), 7, true, true).unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable));
        poller.remove(server.as_raw_fd()).unwrap();
        drop(client);
    }
}
