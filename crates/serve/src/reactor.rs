//! The epoll reactor: N threads, each owning a set of nonblocking
//! connections, replacing two-threads-per-connection.
//!
//! Each reactor lane runs one thread around a [`Poller`] (epoll on
//! Linux, `poll(2)` elsewhere — see `sys.rs`). The lane owns three
//! inputs, all drained from the same wait loop:
//!
//! 1. **Socket readiness** — edge-triggered; the [`Conn`] state
//!    machines drain reads to `WouldBlock` and buffer writes, so no
//!    readiness edge is ever wasted.
//! 2. **Registrations** — the acceptor hands fresh sockets to lanes
//!    round-robin through a mutexed mailbox plus a wake-pipe nudge.
//! 3. **Completions** — the dispatcher routes finished frames back to
//!    the owning lane (the engine's completion token encodes
//!    `lane:conn`, see [`ReplyRoute`]), again mailbox + wake.
//!
//! The wake pipe is the only cross-thread signalling primitive: its
//! read end is registered with the poller under a reserved token, so a
//! sleeping reactor notices mail within one syscall instead of one
//! timeout tick.
//!
//! Shutdown is a three-step handshake. The acceptor stops and every
//! reactor drops its dispatcher sender (new SUBMITs answer
//! `RETRY(Draining)` locally); the dispatcher drains in-flight frames,
//! pushes their completions, sets `dispatcher_done`, and wakes all
//! lanes; each reactor then delivers the final completions, flushes
//! write buffers under a bounded grace deadline, and exits. Joins are
//! deterministic — no thread waits on a peer that might be blocked on a
//! socket.

use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use crate::conn::{Account, Completion, Conn, RouteJob};
use crate::server::{SessionCtx, SessionStats};
use crate::sys::{PollEvent, Poller, WakePipe};

/// Poller token reserved for the lane's wake pipe.
const WAKE_TOKEN: u64 = 0;
/// How long the wait loop sleeps with nothing to do; bounds how stale a
/// missed edge-case wakeup can get and paces the stall sweep.
const IDLE_WAIT: Duration = Duration::from_millis(50);
/// How long a reactor keeps flushing buffered responses after the
/// dispatcher finishes, before abandoning slow readers.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// One reactor lane's cross-thread mailboxes.
pub(crate) struct ReactorLane {
    completions: Mutex<Vec<Completion>>,
    registrations: Mutex<Vec<TcpStream>>,
    wake: WakePipe,
}

impl ReactorLane {
    fn new() -> io::Result<ReactorLane> {
        Ok(ReactorLane {
            completions: Mutex::new(Vec::new()),
            registrations: Mutex::new(Vec::new()),
            wake: WakePipe::new()?,
        })
    }

    /// Queues a completion; the caller wakes the lane (possibly once
    /// for a whole batch) via [`ReactorLane::wake`].
    pub fn push_completion(&self, c: Completion) {
        self.completions.lock().unwrap().push(c);
    }

    /// Hands a fresh connection to this lane and nudges it.
    pub fn register(&self, stream: TcpStream) {
        self.registrations.lock().unwrap().push(stream);
        self.wake.wake();
    }

    /// Nudges the lane's poller out of its wait.
    pub fn wake(&self) {
        self.wake.wake();
    }

    fn take_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock().unwrap())
    }

    fn take_registrations(&self) -> Vec<TcpStream> {
        std::mem::take(&mut *self.registrations.lock().unwrap())
    }
}

/// State shared by the acceptor, the dispatcher, and all reactor lanes.
pub(crate) struct ReactorShared {
    pub lanes: Vec<ReactorLane>,
    /// Set by the dispatcher after its last completion is pushed; the
    /// gate for reactor exit.
    pub dispatcher_done: AtomicBool,
    /// Connection token allocator. Starts at 1: token 0 is the wake
    /// pipe, and an all-zero engine token means "untagged".
    next_token: AtomicU64,
}

impl ReactorShared {
    pub fn new(lanes: usize) -> io::Result<ReactorShared> {
        let lanes = (0..lanes.max(1))
            .map(|_| ReactorLane::new())
            .collect::<io::Result<Vec<_>>>()?;
        Ok(ReactorShared {
            lanes,
            dispatcher_done: AtomicBool::new(false),
            next_token: AtomicU64::new(1),
        })
    }

    /// Wakes every lane (dispatcher-done broadcast).
    pub fn wake_all(&self) {
        for lane in &self.lanes {
            lane.wake();
        }
    }

    fn alloc_token(&self) -> u64 {
        // 48-bit space; wrap-around would need 2^48 connections in one
        // session.
        self.next_token.fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(unix)]
fn fd_of(stream: &TcpStream) -> i32 {
    use std::os::unix::io::AsRawFd;
    stream.as_raw_fd()
}

#[cfg(not(unix))]
fn fd_of(_stream: &TcpStream) -> i32 {
    -1
}

/// Runs one reactor lane to completion. `poller` is created by the
/// caller so syscall failures surface as a `ServeError` before any
/// thread spawns.
pub(crate) fn run_reactor(
    lane_idx: usize,
    shared: &ReactorShared,
    ctx: &SessionCtx<'_>,
    mut poller: Poller,
    job_tx: mpsc::Sender<RouteJob>,
) {
    let lane = &shared.lanes[lane_idx];
    if poller
        .add(lane.wake.reader_fd(), WAKE_TOKEN, true, false)
        .is_err()
    {
        // Without a wake pipe the lane cannot participate; the stub
        // (non-unix) path fails before this in Server::serve.
        return;
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut events: Vec<PollEvent> = Vec::new();
    let mut touched: Vec<u64> = Vec::new();
    let mut job_tx = Some(job_tx);

    loop {
        events.clear();
        let _ = poller.wait(&mut events, Some(IDLE_WAIT));

        // Drop our dispatcher sender the moment shutdown is requested:
        // the jobs channel disconnecting is what lets the dispatcher
        // finish, and admission answers RETRY(Draining) from here on.
        if job_tx.is_some() && ctx.control.shutdown_requested() {
            job_tx = None;
        }

        touched.clear();
        for ev in &events {
            if ev.token == WAKE_TOKEN {
                lane.wake.drain();
                SessionStats::bump(&ctx.stats.reactor_wakeups);
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token) else {
                continue;
            };
            if ev.hangup {
                conn.dead = true;
            }
            if ev.readable && !conn.dead {
                conn.handle_readable(ctx, job_tx.as_ref());
            }
            if ev.writable && !conn.dead {
                conn.flush(ctx);
            }
            touched.push(ev.token);
        }

        // Adopt freshly accepted connections. Edge-triggered pollers
        // only report *new* readiness, so sweep the socket once now.
        for stream in lane.take_registrations() {
            let token = shared.alloc_token();
            let mut conn = Conn::new(stream, token, lane_idx);
            if poller
                .add(fd_of(conn.stream()), token, true, false)
                .is_err()
            {
                ctx.active_conns.fetch_sub(1, Ordering::AcqRel);
                continue;
            }
            conn.handle_readable(ctx, job_tx.as_ref());
            touched.push(token);
            conns.insert(token, conn);
        }

        // Snapshot the dispatcher-done flag *before* draining
        // completions: everything pushed before the flag flipped is
        // then guaranteed to be in this take.
        let dispatcher_done = shared.dispatcher_done.load(Ordering::Acquire);
        for completion in lane.take_completions() {
            deliver_completion(ctx, &mut conns, completion, &mut touched);
        }

        // Flush and re-arm everything that made progress this turn.
        touched.sort_unstable();
        touched.dedup();
        for &token in &touched {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            service_conn(ctx, &mut poller, conn, job_tx.as_ref());
            if conn.finished() {
                teardown(ctx, &mut poller, conns.remove(&token).unwrap());
            }
        }

        // Bounded-drain guarantee: a client that sent half a frame and
        // stalled is dropped after the mid-frame deadline.
        let now = Instant::now();
        let stalled: Vec<u64> = conns
            .iter()
            .filter(|(_, c)| c.stalled_past_deadline(now))
            .map(|(&t, _)| t)
            .collect();
        for token in stalled {
            teardown(ctx, &mut poller, conns.remove(&token).unwrap());
        }

        if job_tx.is_none() && dispatcher_done {
            break;
        }
    }

    // Final drain: the dispatcher has pushed its last completion and
    // will never push again. Deliver stragglers, then keep flushing
    // buffered responses under a grace deadline.
    for completion in lane.take_completions() {
        deliver_completion(ctx, &mut conns, completion, &mut touched);
    }
    let deadline = Instant::now() + DRAIN_GRACE;
    loop {
        let mut pending = false;
        let tokens: Vec<u64> = conns.keys().copied().collect();
        for token in tokens {
            let conn = conns.get_mut(&token).unwrap();
            if !conn.dead {
                conn.flush(ctx);
            }
            if conn.dead || !conn.wants_write() {
                teardown(ctx, &mut poller, conns.remove(&token).unwrap());
            } else {
                pending = true;
            }
        }
        if !pending || Instant::now() >= deadline {
            break;
        }
        events.clear();
        let _ = poller.wait(&mut events, Some(Duration::from_millis(20)));
    }
    for (_, conn) in conns.drain() {
        teardown_no_poller(ctx, conn);
    }
}

/// Routes one dispatcher completion to its connection, or accounts it
/// as dropped when the connection is gone.
fn deliver_completion(
    ctx: &SessionCtx<'_>,
    conns: &mut HashMap<u64, Conn>,
    completion: Completion,
    touched: &mut Vec<u64>,
) {
    match conns.get_mut(&completion.token) {
        Some(conn) if !conn.dead => {
            touched.push(conn.token);
            conn.deliver(ctx, completion);
        }
        _ => match completion.account {
            Account::Served | Account::Errored => {
                SessionStats::bump(&ctx.stats.responses_dropped);
            }
            Account::None => {}
        },
    }
}

/// Post-progress housekeeping for one connection: flush, resume paused
/// reads (draining any frames already buffered while paused), and
/// re-arm poller interest if it changed.
fn service_conn(
    ctx: &SessionCtx<'_>,
    poller: &mut Poller,
    conn: &mut Conn,
    job_tx: Option<&mpsc::Sender<RouteJob>>,
) {
    let was_paused = conn.read_paused;
    if !conn.dead {
        conn.flush(ctx);
    }
    if was_paused && !conn.read_paused && !conn.dead && !conn.closing {
        // The flush crossed the low-water mark: pick the read side back
        // up (buffered frames first, then the socket).
        conn.handle_readable(ctx, job_tx);
        if !conn.dead {
            conn.flush(ctx);
        }
    }
    if conn.dead || conn.finished() {
        return;
    }
    let want_read = conn.wants_read();
    let want_write = conn.wants_write();
    if (want_read != conn.armed_read || want_write != conn.armed_write)
        && poller
            .modify(fd_of(conn.stream()), conn.token, want_read, want_write)
            .is_ok()
    {
        conn.armed_read = want_read;
        conn.armed_write = want_write;
    }
}

fn teardown(ctx: &SessionCtx<'_>, poller: &mut Poller, conn: Conn) {
    let _ = poller.remove(fd_of(conn.stream()));
    teardown_no_poller(ctx, conn);
}

fn teardown_no_poller(ctx: &SessionCtx<'_>, conn: Conn) {
    ctx.active_conns.fetch_sub(1, Ordering::AcqRel);
    drop(conn); // closes the socket
}
