//! Per-connection state machine for the reactor.
//!
//! A [`Conn`] owns one nonblocking socket and carries everything a
//! readiness event needs to make progress without blocking: an
//! incremental [`FrameAssembler`] on the read side (reusing the total,
//! panic-free body decoder), a buffered write side that flushes until
//! `WouldBlock` and re-arms write interest only while bytes remain, and
//! the per-connection pipelining window counter.
//!
//! The first bytes decide the personality: `"GET "` switches the
//! connection into one-shot HTTP mode (the operator surface), anything
//! else is the binary protocol. Because the sniff runs on whatever bytes
//! have arrived so far — not a blocking 4-byte peek — a byte-at-a-time
//! HTTP client works on a nonblocking socket.
//!
//! Admission control runs here, in the owning reactor thread: tenant
//! auth (keyed servers), the width check (a SUBMIT whose record count is
//! not the network's is answered `ERROR(Route)` at once and takes no
//! slot), the draining check, the per-connection window, the per-tenant
//! quota, then the global in-flight cap. Every refusal is an explicit
//! wire answer. A SUBMIT body is read in place
//! ([`crate::protocol::decode_submit`]): an admitted frame's
//! destinations go straight from the read buffer into the reactor's
//! [`Inbox`], and its ROUTED reply is encoded straight from the routed
//! batch ([`Conn::deliver`]) — no per-frame vector either way.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bnb_core::error::RouteError;
use bnb_engine::EngineError;
use bnb_obs::{Span, SpanKind, Stage, TenantWindow};

use crate::protocol::{
    decode_body, decode_submit, elapsed_ns, encode_routed, ErrorCode, FrameAssembler, Message,
    RetryReason, SubmitView,
};
use crate::reactor::{Admitted, Inbox};
use crate::server::{build_status, SessionCtx, SessionStats};

/// Pause reads once this many unflushed response bytes accumulate; the
/// bounded-buffer promise for clients that stop reading.
const WRITE_HIGH_WATER: usize = 256 * 1024;
/// Resume reads once the backlog flushes below this.
const WRITE_LOW_WATER: usize = 64 * 1024;
/// Largest buffered HTTP request head.
const HTTP_HEAD_MAX: usize = 8192;
/// How long a partially received frame may stall before the connection
/// is dropped: bounds graceful-drain time against clients that die
/// mid-frame.
pub(crate) const MID_FRAME_DEADLINE: Duration = Duration::from_secs(5);

/// A served request's accumulated stage stamps, attached to its ROUTED
/// reply. The owning reactor records all six stages plus the
/// wire-to-wire latency when the reply's last byte flushes to the
/// socket, so stage sums partition the wire latency for exactly the set
/// of served frames.
pub(crate) struct ReplyMeta {
    pub tenant: u16,
    pub request_id: u64,
    pub records: usize,
    /// Approximate arrival instant (first body byte).
    pub arrival: Instant,
    /// Nanoseconds spent in every stage but the write, in [`Stage`]
    /// order.
    pub stages: [u64; 5],
    /// When the reply was queued (the write stage starts here).
    pub queued_at: Instant,
}

/// What the connection is speaking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Not enough bytes yet to tell HTTP from the binary protocol.
    Sniffing,
    /// The length-prefixed binary protocol.
    Binary,
    /// One-shot HTTP operator request.
    Http,
}

/// One reactor-owned connection.
pub(crate) struct Conn {
    stream: TcpStream,
    pub token: u64,
    mode: Mode,
    asm: FrameAssembler,
    /// Buffered, not-yet-flushed response bytes (`out[out_start..]`).
    out: Vec<u8>,
    out_start: usize,
    /// Cumulative response bytes ever queued / ever flushed; a reply's
    /// telemetry closes when `flushed_total` crosses its end offset.
    appended_total: u64,
    flushed_total: u64,
    meta_queue: VecDeque<(u64, ReplyMeta)>,
    /// Frames admitted on this connection and not yet answered.
    pub window_used: usize,
    /// The quota slot of the tenant this connection last submitted for,
    /// so admission looks the tenant up only when it changes.
    tenant_slot: Option<(u16, Arc<AtomicUsize>)>,
    /// The telemetry window of the tenant this connection last recorded
    /// for, so recording takes the registry lock only when it changes.
    tenant_window: Option<(u16, Arc<TenantWindow>)>,
    /// Reads paused by the write high-water mark.
    pub read_paused: bool,
    /// Peer half-closed its send side; serve in-flight, then close.
    pub read_eof: bool,
    /// Answer queued, close once flushed (HTTP, protocol errors).
    pub closing: bool,
    /// Transport failure; reap immediately.
    pub dead: bool,
    /// Interest bits currently registered with the poller.
    pub armed_read: bool,
    pub armed_write: bool,
}

impl Conn {
    pub fn new(stream: TcpStream, token: u64) -> Conn {
        stream.set_nodelay(true).ok();
        Conn {
            stream,
            token,
            mode: Mode::Sniffing,
            asm: FrameAssembler::new(),
            out: Vec::new(),
            out_start: 0,
            appended_total: 0,
            flushed_total: 0,
            meta_queue: VecDeque::new(),
            window_used: 0,
            tenant_slot: None,
            tenant_window: None,
            read_paused: false,
            read_eof: false,
            closing: false,
            dead: false,
            armed_read: true,
            armed_write: false,
        }
    }

    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Whether unflushed response bytes remain.
    pub fn wants_write(&self) -> bool {
        self.out_start < self.out.len()
    }

    /// Read interest this connection wants right now.
    pub fn wants_read(&self) -> bool {
        !self.closing && !self.read_eof && !self.read_paused
    }

    /// Accepted, and the request that tells what it speaks (or the rest
    /// of its HTTP request head) has not arrived: nothing has been asked
    /// of the server on it yet, so a drain keeps reading it.
    pub fn awaiting_request(&self) -> bool {
        matches!(self.mode, Mode::Sniffing | Mode::Http)
            && !self.closing
            && !self.read_eof
            && !self.dead
    }

    /// True when nothing more can happen: no reads expected and the
    /// write buffer drained.
    pub fn finished(&self) -> bool {
        if self.dead {
            return true;
        }
        if self.wants_write() {
            return false;
        }
        if self.closing {
            return true;
        }
        self.read_eof && self.window_used == 0
    }

    /// The mid-frame stall deadline, when one is running: a client that
    /// sent half a frame and went silent is dropped after
    /// [`MID_FRAME_DEADLINE`] so drains stay bounded.
    pub fn stalled_past_deadline(&self, now: Instant) -> bool {
        match self.asm.frame_wait_started() {
            Some(started) => now.duration_since(started) >= MID_FRAME_DEADLINE,
            None => false,
        }
    }

    /// Appends one encoded reply to the write buffer.
    pub fn queue_reply(&mut self, msg: &Message) {
        let before = self.out.len();
        msg.encode(&mut self.out);
        self.appended_total += (self.out.len() - before) as u64;
    }

    /// Appends raw bytes (HTTP responses).
    fn queue_raw(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
        self.appended_total += bytes.len() as u64;
    }

    /// Flushes buffered response bytes until `WouldBlock` or empty,
    /// closing the telemetry record of every reply whose last byte went
    /// out. Marks the connection dead on transport failure.
    pub fn flush(&mut self, ctx: &SessionCtx<'_>) {
        while self.out_start < self.out.len() {
            match self.stream.write(&self.out[self.out_start..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.out_start += n;
                    self.flushed_total += n as u64;
                    self.settle_flushed_metas(ctx);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.out_start == self.out.len() {
            self.out.clear();
            self.out_start = 0;
        } else if self.out_start >= 16 * 1024 && self.out_start * 2 >= self.out.len() {
            self.out.drain(..self.out_start);
            self.out_start = 0;
        }
        if self.read_paused && self.out.len() - self.out_start < WRITE_LOW_WATER {
            self.read_paused = false;
        }
    }

    /// Records the six-stage telemetry for every ROUTED reply now fully
    /// on the wire; a reply's stamps are keyed by the buffer offset where
    /// it ends.
    fn settle_flushed_metas(&mut self, ctx: &SessionCtx<'_>) {
        while let Some((end, _)) = self.meta_queue.front() {
            if *end > self.flushed_total {
                break;
            }
            let (_, meta) = self.meta_queue.pop_front().unwrap();
            let wire_ns = elapsed_ns(meta.arrival);
            let write_ns = elapsed_ns(meta.queued_at);
            let t = ctx.telemetry;
            for (&stage, &ns) in Stage::ALL.iter().zip(&meta.stages) {
                t.record_stage(stage, ns);
            }
            t.record_stage(Stage::Write, write_ns);
            t.record_request_in(
                self.window(ctx, meta.tenant),
                (meta.records as u64) * 4,
                wire_ns,
            );
            if t.note_if_slow(wire_ns) {
                if let Some(rec) = ctx.recorder {
                    rec.record(Span {
                        kind: SpanKind::Request,
                        ts_ns: rec.now_ns(),
                        dur_ns: wire_ns,
                        lane: 0,
                        seq: meta.request_id,
                        a: u64::from(meta.tenant),
                        b: meta.records as u64,
                        c: 0,
                        ok: true,
                    });
                }
            }
        }
    }

    /// Answers one routed frame of this connection: frees its window
    /// slot, settles the ledger, and queues the reply — ROUTED encoded
    /// straight from the frame's payload column, or ERROR(Route). `route`
    /// spans the route call that carried the frame.
    pub fn deliver(
        &mut self,
        ctx: &SessionCtx<'_>,
        frame: &Admitted,
        result: &Result<(), EngineError>,
        sources: &[u64],
        route: Range<Instant>,
    ) {
        self.window_used = self.window_used.saturating_sub(1);
        match result {
            Ok(()) => {
                SessionStats::bump(&ctx.stats.frames_served);
                let before = self.out.len();
                encode_routed(&mut self.out, frame.tenant, frame.request_id, sources);
                self.appended_total += (self.out.len() - before) as u64;
                let queued_at = Instant::now();
                let ns = |from: Instant, to: Instant| to.saturating_duration_since(from).as_nanos();
                let meta = ReplyMeta {
                    tenant: frame.tenant,
                    request_id: frame.request_id,
                    records: sources.len(),
                    arrival: frame.arrival,
                    stages: [
                        frame.decode_ns,
                        frame.admission_ns,
                        ns(frame.admitted_at, route.start) as u64,
                        ns(route.start, route.end) as u64,
                        ns(route.end, queued_at) as u64,
                    ],
                    queued_at,
                };
                self.meta_queue.push_back((self.appended_total, meta));
            }
            Err(e) => self.refuse_route(ctx, frame.tenant, frame.request_id, route_refusal(e)),
        }
    }

    /// Drains the socket until `WouldBlock`, reading straight into the
    /// assembler and acting on every complete message; SUBMITs that pass
    /// admission join `inbox`. A transport failure marks the connection
    /// dead.
    pub fn handle_readable(&mut self, ctx: &SessionCtx<'_>, inbox: &mut Inbox) {
        // Frames may already be sitting decoded-but-unprocessed in the
        // assembler from before a write-pressure pause; drain those
        // first so a resume makes progress even when the socket itself
        // has nothing new.
        self.process_buffered(ctx, inbox);
        loop {
            if self.closing || self.dead || self.read_paused {
                return;
            }
            match self.asm.read_from(&mut self.stream) {
                Ok(0) => {
                    self.read_eof = true;
                    break;
                }
                Ok(_) => {
                    self.process_buffered(ctx, inbox);
                    if self.read_paused {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        // EOF with a partial binary frame buffered is a mid-frame close;
        // nothing to answer (the peer is gone for reads anyway).
        if self.read_eof && self.mode == Mode::Sniffing {
            // Never learned a protocol: nothing to drain for.
            self.closing = true;
        }
    }

    /// Acts on whatever complete structures the buffer now holds.
    fn process_buffered(&mut self, ctx: &SessionCtx<'_>, inbox: &mut Inbox) {
        if self.mode == Mode::Sniffing {
            let peeked = self.asm.peek();
            if peeked.len() >= 4 {
                self.mode = if &peeked[..4] == b"GET " {
                    Mode::Http
                } else {
                    Mode::Binary
                };
            } else {
                return; // sniff continues when more bytes arrive
            }
        }
        match self.mode {
            Mode::Http => self.process_http(ctx),
            Mode::Binary => {
                // The assembler leaves the connection while its bodies
                // are read in place.
                let mut asm = std::mem::take(&mut self.asm);
                self.process_frames(ctx, inbox, &mut asm);
                self.asm = asm;
            }
            Mode::Sniffing => unreachable!(),
        }
    }

    /// One-shot HTTP: accumulate the head, answer, flush-and-close.
    fn process_http(&mut self, ctx: &SessionCtx<'_>) {
        let head = self.asm.peek();
        let complete = head.windows(4).any(|w| w == b"\r\n\r\n");
        if !complete && head.len() < HTTP_HEAD_MAX && !self.read_eof {
            return;
        }
        let response = crate::server::render_http(head, ctx);
        self.queue_raw(response.as_bytes());
        self.closing = true;
    }

    /// Pops and handles every complete binary frame. SUBMIT bodies are
    /// read in place; every other opcode decodes into a [`Message`].
    fn process_frames(
        &mut self,
        ctx: &SessionCtx<'_>,
        inbox: &mut Inbox,
        asm: &mut FrameAssembler,
    ) {
        loop {
            let (body, started) = match asm.next_body() {
                Ok(Some(frame)) => frame,
                Ok(None) => return,
                Err(e) => return self.protocol_error(ctx, &e),
            };
            match decode_submit(body) {
                Ok(Some(view)) => self.submit(ctx, inbox, view, elapsed_ns(started)),
                Ok(None) => match decode_body(body) {
                    Ok(msg) => self.handle_message(ctx, msg),
                    Err(e) => return self.protocol_error(ctx, &e),
                },
                Err(e) => return self.protocol_error(ctx, &e),
            }
            if self.closing || self.dead {
                return;
            }
            if self.out.len() - self.out_start >= WRITE_HIGH_WATER {
                self.read_paused = true;
                return;
            }
        }
    }

    /// Answers a wire-format violation and closes the connection.
    fn protocol_error(&mut self, ctx: &SessionCtx<'_>, e: &dyn std::fmt::Display) {
        SessionStats::bump(&ctx.stats.protocol_errors);
        self.queue_error(0, 0, ErrorCode::Protocol, e.to_string());
        self.closing = true;
    }

    fn queue_error(&mut self, tenant: u16, request_id: u64, code: ErrorCode, message: String) {
        self.queue_reply(&Message::Error {
            tenant,
            request_id,
            code,
            message,
        });
    }

    /// Every opcode but SUBMIT and SUBMIT_TAGGED.
    fn handle_message(&mut self, ctx: &SessionCtx<'_>, msg: Message) {
        match msg {
            Message::Status { tenant, request_id } => {
                // Answered in the reactor; never enters the frame ledger.
                let json = serde_json::to_string(&build_status(ctx))
                    .unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"));
                self.queue_reply(&Message::StatusReport {
                    tenant,
                    request_id,
                    json,
                });
            }
            Message::Shutdown { .. } => ctx.control.trigger_shutdown(),
            Message::Submit { .. } | Message::SubmitTagged { .. } => {
                unreachable!("SUBMIT bodies are read in place, never decoded")
            }
            // Server-to-client opcodes arriving at the server are a
            // protocol violation.
            Message::Routed { .. }
            | Message::Retry { .. }
            | Message::Error { .. }
            | Message::StatusReport { .. } => {
                let why = format!("client sent server-only opcode 0x{:02x}", msg.opcode());
                SessionStats::bump(&ctx.stats.protocol_errors);
                self.queue_error(msg.tenant(), msg.request_id(), ErrorCode::Protocol, why);
                self.closing = true;
            }
        }
    }

    /// A SUBMIT or SUBMIT_TAGGED: tenant auth on keyed servers (open
    /// mode ignores the tag entirely), then admission.
    fn submit(
        &mut self,
        ctx: &SessionCtx<'_>,
        inbox: &mut Inbox,
        view: SubmitView<'_>,
        decode_ns: u64,
    ) {
        SessionStats::bump(&ctx.stats.frames_submitted);
        if let Some(keys) = ctx.keys {
            // Keyed servers accept only tagged SUBMITs, with a valid tag.
            let valid = |tag| keys.verify_wire(view.tenant, view.request_id, view.dest_bytes, tag);
            if !view.tag.is_some_and(valid) {
                let why = match view.tag {
                    Some(_) => "bad auth tag",
                    None => "SUBMIT without auth tag",
                };
                self.refuse_auth(ctx, view.tenant, view.request_id, why);
                return;
            }
        }
        self.admit(ctx, inbox, view, decode_ns);
    }

    /// Refuses a SUBMIT that failed tenant authentication: typed ERROR,
    /// `auth_failures` counter, ledger entry under `frames_errored`.
    fn refuse_auth(&mut self, ctx: &SessionCtx<'_>, tenant: u16, request_id: u64, why: &str) {
        SessionStats::bump(&ctx.stats.auth_failures);
        SessionStats::bump(&ctx.stats.frames_errored);
        ctx.telemetry.record_error_in(self.window(ctx, tenant));
        self.queue_error(tenant, request_id, ErrorCode::Auth, why.to_string());
    }

    /// Answers a frame that failed to route with `ERROR(Route)` saying
    /// `why`; ledger entry under `frames_errored`.
    fn refuse_route(&mut self, ctx: &SessionCtx<'_>, tenant: u16, request_id: u64, why: String) {
        SessionStats::bump(&ctx.stats.frames_errored);
        ctx.telemetry.record_error_in(self.window(ctx, tenant));
        self.queue_error(tenant, request_id, ErrorCode::Route, why);
    }

    /// `tenant`'s telemetry window, from the connection's cache.
    fn window(&mut self, ctx: &SessionCtx<'_>, tenant: u16) -> &TenantWindow {
        cached(&mut self.tenant_window, tenant, || {
            ctx.telemetry.tenant(tenant)
        })
    }

    /// Admission control for one SUBMIT: width check, draining check,
    /// per-connection window, per-tenant quota, then the global in-flight
    /// cap. An admitted frame joins `inbox`, its destinations copied
    /// straight from the wire.
    fn admit(
        &mut self,
        ctx: &SessionCtx<'_>,
        inbox: &mut Inbox,
        view: SubmitView<'_>,
        decode_ns: u64,
    ) {
        let (tenant, request_id) = (view.tenant, view.request_id);
        // Arrival ≈ read completion minus the timed body wait, so idle
        // time between frames never counts against a request.
        let received_at = Instant::now();
        let arrival = received_at
            .checked_sub(Duration::from_nanos(decode_ns))
            .unwrap_or(received_at);

        if view.records() != ctx.cfg.inputs {
            // A frame of another width can never route: it fails as
            // routing it would have, before it takes any slot, so no
            // RETRY invites the client to resend it.
            let mismatch = RouteError::WidthMismatch {
                expected: ctx.cfg.inputs,
                actual: view.records(),
            };
            self.refuse_route(ctx, tenant, request_id, error_chain(&mismatch));
            return;
        }
        if ctx.control.shutdown_requested() {
            self.refuse(ctx, tenant, request_id, RetryReason::Draining);
            return;
        }
        if self.window_used >= ctx.cfg.window {
            self.refuse(ctx, tenant, request_id, RetryReason::WindowFull);
            return;
        }
        let tenant_slot = Arc::clone(cached(&mut self.tenant_slot, tenant, || {
            ctx.admission.tenant_slot(tenant)
        }));
        if tenant_slot.fetch_add(1, Ordering::AcqRel) >= ctx.cfg.tenant_quota {
            tenant_slot.fetch_sub(1, Ordering::AcqRel);
            self.refuse(ctx, tenant, request_id, RetryReason::TenantQuota);
            return;
        }
        if ctx.admission.inflight.fetch_add(1, Ordering::AcqRel) >= ctx.cfg.queue_capacity {
            ctx.admission.inflight.fetch_sub(1, Ordering::AcqRel);
            tenant_slot.fetch_sub(1, Ordering::AcqRel);
            self.refuse(ctx, tenant, request_id, RetryReason::QueueFull);
            return;
        }

        self.window_used += 1;
        ctx.stats
            .max_window_depth
            .fetch_max(self.window_used as u64, Ordering::Relaxed);
        let admitted_at = Instant::now();
        inbox.push(
            &view,
            Admitted {
                token: self.token,
                tenant,
                request_id,
                arrival,
                decode_ns,
                admission_ns: admitted_at
                    .saturating_duration_since(received_at)
                    .as_nanos() as u64,
                admitted_at,
                tenant_slot,
            },
        );
    }

    /// Answers a refused SUBMIT with an explicit RETRY.
    fn refuse(&mut self, ctx: &SessionCtx<'_>, tenant: u16, request_id: u64, reason: RetryReason) {
        SessionStats::bump(&ctx.stats.retries_issued);
        ctx.telemetry.record_retry_in(self.window(ctx, tenant));
        self.queue_reply(&Message::Retry {
            tenant,
            request_id,
            reason,
        });
    }
}

/// The handle `cache` holds for `tenant`, fetched first when it holds
/// another tenant's (or none).
fn cached<T>(
    cache: &mut Option<(u16, Arc<T>)>,
    tenant: u16,
    fetch: impl FnOnce() -> Arc<T>,
) -> &Arc<T> {
    if !matches!(cache, Some((held, _)) if *held == tenant) {
        *cache = Some((tenant, fetch()));
    }
    &cache.as_ref().expect("just filled").1
}

/// The message of a served frame's `ERROR(Route)`: the route error's
/// cause chain, after the attempt count when its retries ran out. A
/// served frame has no engine sequence number, so the message names none.
fn route_refusal(err: &EngineError) -> String {
    let chain = error_chain(err.route_error());
    match err {
        EngineError::Quarantined { attempts, .. } => {
            format!("quarantined after {attempts} attempts on faulted fabric: {chain}")
        }
        _ => chain,
    }
}

/// Renders an error with its full `source()` chain.
fn error_chain(err: &dyn std::error::Error) -> String {
    let mut out = err.to_string();
    let mut cur = err.source();
    while let Some(e) = cur {
        out.push_str(": ");
        out.push_str(&e.to_string());
        cur = e.source();
    }
    out
}
