//! The epoll reactor: N threads, each owning a set of nonblocking
//! connections and routing the frames they admit.
//!
//! Each reactor lane runs one thread around a [`Poller`] (epoll on
//! Linux, `poll(2)` elsewhere — see `sys.rs`). One turn of its loop:
//!
//! 1. **Socket readiness** — edge-triggered; the [`Conn`] state
//!    machines drain reads to `WouldBlock`, and every SUBMIT they admit
//!    joins the lane's [`Inbox`]: its destinations go straight into one
//!    [`FrameBatch`].
//! 2. **Registrations** — the acceptor hands fresh sockets to lanes
//!    round-robin through a mutexed mailbox plus a wake-pipe nudge.
//! 3. **Routing** — the lane routes the inbox on its own thread and
//!    scratch, through the session's fabric
//!    ([`bnb_engine::Fabric::route_batch`]), and encodes each ROUTED
//!    reply straight from the batch's payload column into its
//!    connection's write buffer. Then it flushes every connection that
//!    made progress; frames admitted by reads that a flush resumes are
//!    routed before the turn ends.
//!
//! Routing is run-to-completion: no frame is in flight between turns, and
//! no lane waits on another. The wake pipe, registered with the poller
//! under a reserved token, is the only cross-thread signal.
//!
//! Shutdown needs no handshake: once a drain is requested, admission
//! answers `RETRY(Draining)`, and the lane finishes its turn, flushes
//! under a bounded grace deadline, and exits. Until then it still reads
//! the connections that have not sent their request yet, and answers
//! those requests.

use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bnb_core::batch::FrameBatch;
use bnb_engine::RouteScratch;

use crate::conn::Conn;
use crate::protocol::SubmitView;
use crate::server::{SessionCtx, SessionStats};
use crate::sys::{fd_of, PollEvent, Poller, WakePipe};

/// Poller token reserved for the lane's wake pipe.
const WAKE_TOKEN: u64 = 0;
/// How long the wait loop sleeps with nothing to do; bounds how stale a
/// missed edge-case wakeup can get, how long a drain request waits to be
/// noticed, and paces the stall sweep.
const IDLE_WAIT: Duration = Duration::from_millis(50);
/// How long a reactor keeps flushing buffered responses once it stops
/// serving, before abandoning slow readers.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// One reactor lane's registration mailbox.
pub(crate) struct ReactorLane {
    registrations: Mutex<Vec<TcpStream>>,
    wake: WakePipe,
}

impl ReactorLane {
    fn new() -> io::Result<ReactorLane> {
        Ok(ReactorLane {
            registrations: Mutex::new(Vec::new()),
            wake: WakePipe::new()?,
        })
    }

    /// Hands a fresh connection to this lane and nudges it.
    pub fn register(&self, stream: TcpStream) {
        self.registrations.lock().unwrap().push(stream);
        self.wake.wake();
    }

    fn take_registrations(&self) -> Vec<TcpStream> {
        std::mem::take(&mut *self.registrations.lock().unwrap())
    }
}

/// State shared by the acceptor and all reactor lanes.
pub(crate) struct ReactorShared {
    pub lanes: Vec<ReactorLane>,
    /// Connection token allocator. Starts at 1: token 0 is the wake
    /// pipe.
    next_token: AtomicU64,
}

impl ReactorShared {
    pub fn new(lanes: usize) -> io::Result<ReactorShared> {
        let lanes = (0..lanes.max(1))
            .map(|_| ReactorLane::new())
            .collect::<io::Result<Vec<_>>>()?;
        Ok(ReactorShared {
            lanes,
            next_token: AtomicU64::new(1),
        })
    }

    fn alloc_token(&self) -> u64 {
        self.next_token.fetch_add(1, Ordering::Relaxed)
    }
}

/// One admitted frame waiting in its lane's [`Inbox`] for the end of the
/// turn: who asked, its timeline so far, and the tenant slot it holds.
pub(crate) struct Admitted {
    /// The connection the reply goes to.
    pub token: u64,
    pub tenant: u16,
    pub request_id: u64,
    /// Approximate arrival instant (first body byte), reconstructed as
    /// read-completion minus decode time.
    pub arrival: Instant,
    pub decode_ns: u64,
    pub admission_ns: u64,
    /// When admission finished (queue wait starts here).
    pub admitted_at: Instant,
    pub tenant_slot: Arc<AtomicUsize>,
}

/// The frames a lane admitted this turn: one [`FrameBatch`] of
/// `inputs`-wide frames, and per frame who asked. The lane routes it at
/// the end of the turn with its own [`RouteScratch`].
pub(crate) struct Inbox {
    batch: FrameBatch,
    frames: Vec<Admitted>,
    scratch: RouteScratch,
}

impl Inbox {
    /// Adds one frame, its destinations decoded from `view` straight into
    /// the batch; `view` must carry exactly `inputs` records.
    pub fn push(&mut self, view: &SubmitView<'_>, frame: Admitted) {
        self.batch.push_indexed_with(|dests| view.dests_into(dests));
        self.frames.push(frame);
    }
}

/// Runs one reactor lane to completion. `poller` is created by the
/// caller so syscall failures surface as a `ServeError` before any
/// thread spawns.
pub(crate) fn run_reactor(
    lane_idx: usize,
    shared: &ReactorShared,
    ctx: &SessionCtx<'_>,
    mut poller: Poller,
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
    let mut pass: Vec<u64> = Vec::new();
    let mut inbox = Inbox {
        batch: FrameBatch::new(ctx.cfg.inputs),
        frames: Vec::new(),
        scratch: RouteScratch::with_capacity(ctx.cfg.inputs),
    };

    loop {
        events.clear();
        let _ = poller.wait(&mut events, Some(IDLE_WAIT));

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
                conn.handle_readable(ctx, &mut inbox);
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
            let mut conn = Conn::new(stream, token);
            if poller
                .add(fd_of(conn.stream()), token, true, false)
                .is_err()
            {
                ctx.active_conns.fetch_sub(1, Ordering::AcqRel);
                continue;
            }
            conn.handle_readable(ctx, &mut inbox);
            touched.push(token);
            conns.insert(token, conn);
        }

        // Route what the turn admitted, then flush and re-arm everything
        // that made progress. A flush that resumes a paused read admits
        // more frames; they are routed before the turn ends.
        loop {
            route_inbox(ctx, lane_idx, &mut inbox, &mut conns, &mut touched);
            std::mem::swap(&mut touched, &mut pass);
            touched.clear();
            pass.sort_unstable();
            pass.dedup();
            for &token in &pass {
                let Some(conn) = conns.get_mut(&token) else {
                    continue;
                };
                service_conn(ctx, &mut poller, conn, &mut inbox);
                if conn.finished() {
                    teardown(ctx, &mut poller, conns.remove(&token).unwrap());
                }
            }
            if inbox.frames.is_empty() {
                break;
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

        // Every frame admitted before the drain request has been routed
        // and its reply queued; admission refuses everything after it.
        if ctx.control.shutdown_requested() {
            break;
        }
    }

    // Final drain: keep flushing buffered responses under a grace
    // deadline. A connection accepted before the drain that has not sent
    // its request yet (an operator's scrape, say) is still read until it
    // has: the request is answered as any is mid-drain (a SUBMIT with
    // RETRY Draining), and the connection then closes like the rest.
    let deadline = Instant::now() + DRAIN_GRACE;
    loop {
        let mut pending = false;
        let tokens: Vec<u64> = conns.keys().copied().collect();
        for token in tokens {
            let conn = conns.get_mut(&token).unwrap();
            if conn.awaiting_request() {
                conn.handle_readable(ctx, &mut inbox);
            }
            if !conn.dead {
                conn.flush(ctx);
            }
            if conn.dead || !(conn.wants_write() || conn.awaiting_request()) {
                teardown(ctx, &mut poller, conns.remove(&token).unwrap());
            } else {
                pending = true;
            }
        }
        debug_assert!(
            inbox.frames.is_empty(),
            "admission refuses every SUBMIT once the drain began"
        );
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

/// Routes the inbox on this thread and queues every reply on its
/// connection (marking it touched), or accounts it as dropped when the
/// connection is gone. Each frame frees its tenant and global slots
/// before its reply is queued, so a client reading the reply can refill
/// its window at once.
fn route_inbox(
    ctx: &SessionCtx<'_>,
    lane: usize,
    inbox: &mut Inbox,
    conns: &mut HashMap<u64, Conn>,
    touched: &mut Vec<u64>,
) {
    if inbox.frames.is_empty() {
        return;
    }
    let route_start = Instant::now();
    // A served frame has no sequence number: 0 is only the trace id its
    // retry events carry, and no reply shows it.
    let results = ctx
        .fabric
        .route_batch(&mut inbox.scratch, lane, 0, &mut inbox.batch);
    let route = route_start..Instant::now();
    for (f, (frame, result)) in inbox.frames.drain(..).zip(results).enumerate() {
        frame.tenant_slot.fetch_sub(1, Ordering::AcqRel);
        ctx.admission.inflight.fetch_sub(1, Ordering::AcqRel);
        match conns.get_mut(&frame.token) {
            Some(conn) if !conn.dead => {
                touched.push(frame.token);
                let sources = inbox.batch.frame_data(f);
                conn.deliver(ctx, &frame, result, sources, route.clone());
            }
            _ => SessionStats::bump(&ctx.stats.responses_dropped),
        }
    }
    inbox.batch.clear();
}

/// Post-progress housekeeping for one connection: flush, resume paused
/// reads (draining any frames already buffered while paused), and
/// re-arm poller interest if it changed.
fn service_conn(ctx: &SessionCtx<'_>, poller: &mut Poller, conn: &mut Conn, inbox: &mut Inbox) {
    let was_paused = conn.read_paused;
    if !conn.dead {
        conn.flush(ctx);
    }
    if was_paused && !conn.read_paused && !conn.dead && !conn.closing {
        // The flush crossed the low-water mark: pick the read side back
        // up (buffered frames first, then the socket).
        conn.handle_readable(ctx, inbox);
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
