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
//! Admission control runs here, in the owning reactor thread, *before*
//! the dispatcher sees a frame: draining check, tenant auth (keyed
//! servers), the per-connection window, the per-tenant quota, then the
//! global in-flight cap. Every refusal is an explicit wire answer.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use bnb_obs::{Span, SpanKind, Stage};
use bnb_topology::record::Record;

use crate::protocol::{ErrorCode, FrameAssembler, Message, RetryReason};
use crate::server::{build_status, SessionCtx, SessionStats};

/// Pause reads once this many unflushed response bytes accumulate; the
/// bounded-buffer promise for clients that stop reading.
const WRITE_HIGH_WATER: usize = 256 * 1024;
/// Resume reads once the backlog flushes below this.
const WRITE_LOW_WATER: usize = 64 * 1024;
/// Largest buffered HTTP request head, as in the threaded server.
const HTTP_HEAD_MAX: usize = 8192;
/// How long a partially received frame may stall before the connection
/// is dropped (mirrors the blocking reader's mid-frame deadline).
pub(crate) const MID_FRAME_DEADLINE: Duration = Duration::from_secs(5);

/// Identifies the connection a completion must return to: which reactor
/// lane, and which connection token within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReplyRoute {
    pub lane: usize,
    pub token: u64,
}

/// Connection tokens are 48-bit; the engine completion token packs the
/// lane index (plus one, so `0` stays "untagged") in the top 16 bits.
const TOKEN_BITS: u32 = 48;
const TOKEN_MASK: u64 = (1 << TOKEN_BITS) - 1;

impl ReplyRoute {
    /// Packs the route into the engine's opaque completion token.
    pub fn encode(self) -> u64 {
        debug_assert!(self.token <= TOKEN_MASK);
        ((self.lane as u64 + 1) << TOKEN_BITS) | self.token
    }

    /// Unpacks an engine completion token; `None` for untagged (`0`).
    pub fn decode(raw: u64) -> Option<ReplyRoute> {
        let lane = (raw >> TOKEN_BITS) as usize;
        if lane == 0 {
            return None;
        }
        Some(ReplyRoute {
            lane: lane - 1,
            token: raw & TOKEN_MASK,
        })
    }
}

/// A served request's accumulated stage stamps, attached to its ROUTED
/// reply. The owning reactor records all six stages plus the
/// wire-to-wire latency when the reply's last byte flushes to the
/// socket, so stage sums partition the wire latency for exactly the set
/// of served frames.
pub(crate) struct ReplyMeta {
    pub tenant: u16,
    pub request_id: u64,
    pub records: usize,
    /// Approximate arrival instant (first body byte), reconstructed as
    /// read-completion minus decode time.
    pub arrival: Instant,
    pub decode_ns: u64,
    pub admission_ns: u64,
    /// Dispatcher hand-off plus the engine's bounded-queue wait.
    pub queue_ns: u64,
    /// Worker pickup to batch publish inside the engine.
    pub route_ns: u64,
    /// Batch publish to dispatcher delivery.
    pub drain_ns: u64,
    /// When the dispatcher queued the reply (write stage starts here).
    pub queued_at: Instant,
}

/// One admitted frame travelling from a reactor to the dispatcher.
pub(crate) struct RouteJob {
    pub tenant: u16,
    pub request_id: u64,
    pub arrival: Instant,
    pub decode_ns: u64,
    pub admission_ns: u64,
    pub admitted_at: Instant,
    pub lines: Vec<Record>,
    pub route: ReplyRoute,
    pub tenant_slot: Arc<AtomicUsize>,
}

/// Dispatcher-side record of a submitted frame awaiting its drain.
pub(crate) struct Pending {
    pub tenant: u16,
    pub request_id: u64,
    pub records: usize,
    pub arrival: Instant,
    pub decode_ns: u64,
    pub admission_ns: u64,
    /// Reactor admission to engine-queue entry (dispatcher hand-off).
    pub handoff_ns: u64,
    /// When the engine accepted the frame.
    pub submitted_at: Instant,
    pub route: ReplyRoute,
    pub tenant_slot: Arc<AtomicUsize>,
}

impl Pending {
    /// The dispatcher's bookkeeping for one just-submitted job.
    /// `records` is passed explicitly because the single-submit path
    /// hands `job.lines` to the engine before this runs.
    pub fn from_job(job: RouteJob, records: usize, submitted_at: Instant) -> Pending {
        let handoff_ns = job
            .admitted_at
            .elapsed()
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        Pending {
            tenant: job.tenant,
            request_id: job.request_id,
            records,
            arrival: job.arrival,
            decode_ns: job.decode_ns,
            admission_ns: job.admission_ns,
            handoff_ns,
            submitted_at,
            route: job.route,
            tenant_slot: job.tenant_slot,
        }
    }
}

/// How a completion affects the frame ledger when it reaches (or fails
/// to reach) its connection.
pub(crate) enum Account {
    /// A successfully routed frame: `frames_served` if the connection
    /// still exists, `responses_dropped` otherwise.
    Served,
    /// An engine ERROR: `frames_errored` if deliverable, dropped if not.
    Errored,
    /// Already fully accounted at the dispatcher (defensive RETRY).
    None,
}

/// One response travelling from the dispatcher back to its owning
/// reactor lane.
pub(crate) struct Completion {
    pub token: u64,
    pub msg: Message,
    pub meta: Option<ReplyMeta>,
    pub account: Account,
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
    /// The owning reactor lane (completions route back here).
    lane: usize,
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
    pub fn new(stream: TcpStream, token: u64, lane: usize) -> Conn {
        stream.set_nodelay(true).ok();
        Conn {
            stream,
            token,
            lane,
            mode: Mode::Sniffing,
            asm: FrameAssembler::new(),
            out: Vec::new(),
            out_start: 0,
            appended_total: 0,
            flushed_total: 0,
            meta_queue: VecDeque::new(),
            window_used: 0,
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

    /// Appends one encoded reply to the write buffer, remembering its
    /// telemetry stamps keyed by the buffer offset where it ends.
    pub fn queue_reply(&mut self, msg: &Message, meta: Option<ReplyMeta>) {
        let before = self.out.len();
        msg.encode(&mut self.out);
        self.appended_total += (self.out.len() - before) as u64;
        if let Some(meta) = meta {
            self.meta_queue.push_back((self.appended_total, meta));
        }
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

    /// Records the six-stage telemetry for every reply now fully on the
    /// wire. This is the reactor-world equivalent of the old writer
    /// thread's post-write bookkeeping: same stages, same stamps.
    fn settle_flushed_metas(&mut self, ctx: &SessionCtx<'_>) {
        while let Some((end, _)) = self.meta_queue.front() {
            if *end > self.flushed_total {
                break;
            }
            let (_, meta) = self.meta_queue.pop_front().unwrap();
            let wire_ns = meta.arrival.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            let write_ns = meta
                .queued_at
                .elapsed()
                .as_nanos()
                .min(u128::from(u64::MAX)) as u64;
            let t = ctx.telemetry;
            t.record_stage(Stage::Decode, meta.decode_ns);
            t.record_stage(Stage::Admission, meta.admission_ns);
            t.record_stage(Stage::QueueWait, meta.queue_ns);
            t.record_stage(Stage::Route, meta.route_ns);
            t.record_stage(Stage::Drain, meta.drain_ns);
            t.record_stage(Stage::Write, write_ns);
            t.record_request(meta.tenant, (meta.records as u64) * 4, wire_ns);
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

    /// Delivers one dispatcher completion: frees a window slot, settles
    /// the ledger, and queues the wire reply.
    pub fn deliver(&mut self, ctx: &SessionCtx<'_>, completion: Completion) {
        self.window_used = self.window_used.saturating_sub(1);
        match completion.account {
            Account::Served => SessionStats::bump(&ctx.stats.frames_served),
            Account::Errored => SessionStats::bump(&ctx.stats.frames_errored),
            Account::None => {}
        }
        self.queue_reply(&completion.msg, completion.meta);
    }

    /// Drains the socket until `WouldBlock`, feeding the assembler and
    /// acting on every complete message. Returns `Err` only on
    /// transport failure (the connection is also marked dead).
    pub fn handle_readable(
        &mut self,
        ctx: &SessionCtx<'_>,
        job_tx: Option<&mpsc::Sender<RouteJob>>,
    ) {
        // Frames may already be sitting decoded-but-unprocessed in the
        // assembler from before a write-pressure pause; drain those
        // first so a resume makes progress even when the socket itself
        // has nothing new.
        self.process_buffered(ctx, job_tx);
        let mut scratch = [0u8; 16 * 1024];
        loop {
            if self.closing || self.dead || self.read_paused {
                return;
            }
            match self.stream.read(&mut scratch) {
                Ok(0) => {
                    self.read_eof = true;
                    break;
                }
                Ok(n) => {
                    self.asm.feed(&scratch[..n]);
                    self.process_buffered(ctx, job_tx);
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
    fn process_buffered(&mut self, ctx: &SessionCtx<'_>, job_tx: Option<&mpsc::Sender<RouteJob>>) {
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
            Mode::Binary => self.process_frames(ctx, job_tx),
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

    /// Pops and handles every complete binary frame.
    fn process_frames(&mut self, ctx: &SessionCtx<'_>, job_tx: Option<&mpsc::Sender<RouteJob>>) {
        loop {
            match self.asm.next_frame() {
                Ok(Some((msg, decode_ns))) => {
                    self.handle_message(ctx, job_tx, msg, decode_ns);
                    if self.closing || self.dead {
                        return;
                    }
                    if self.out.len() - self.out_start >= WRITE_HIGH_WATER {
                        self.read_paused = true;
                        return;
                    }
                }
                Ok(None) => return,
                Err(e) => {
                    SessionStats::bump(&ctx.stats.protocol_errors);
                    let reply = Message::Error {
                        tenant: 0,
                        request_id: 0,
                        code: ErrorCode::Protocol,
                        message: e.to_string(),
                    };
                    self.queue_reply(&reply, None);
                    self.closing = true;
                    return;
                }
            }
        }
    }

    fn handle_message(
        &mut self,
        ctx: &SessionCtx<'_>,
        job_tx: Option<&mpsc::Sender<RouteJob>>,
        msg: Message,
        decode_ns: u64,
    ) {
        match msg {
            Message::Submit {
                tenant,
                request_id,
                dests,
            } => {
                SessionStats::bump(&ctx.stats.frames_submitted);
                if ctx.keys.is_some() {
                    // Keyed servers accept only tagged SUBMITs.
                    self.refuse_auth(ctx, tenant, request_id, "SUBMIT without auth tag");
                    return;
                }
                self.admit(ctx, job_tx, tenant, request_id, dests, decode_ns);
            }
            Message::SubmitTagged {
                tenant,
                request_id,
                tag,
                dests,
            } => {
                SessionStats::bump(&ctx.stats.frames_submitted);
                if let Some(keys) = ctx.keys {
                    if !keys.verify(tenant, request_id, &dests, tag) {
                        self.refuse_auth(ctx, tenant, request_id, "bad auth tag");
                        return;
                    }
                }
                // Open mode ignores the tag entirely.
                self.admit(ctx, job_tx, tenant, request_id, dests, decode_ns);
            }
            Message::Status { tenant, request_id } => {
                // Answered in the reactor; never enters the frame ledger.
                let json = serde_json::to_string(&build_status(ctx))
                    .unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"));
                let reply = Message::StatusReport {
                    tenant,
                    request_id,
                    json,
                };
                self.queue_reply(&reply, None);
            }
            Message::Shutdown { .. } => ctx.control.trigger_shutdown(),
            // Server-to-client opcodes arriving at the server are a
            // protocol violation.
            Message::Routed { .. }
            | Message::Retry { .. }
            | Message::Error { .. }
            | Message::StatusReport { .. } => {
                SessionStats::bump(&ctx.stats.protocol_errors);
                let reply = Message::Error {
                    tenant: msg.tenant(),
                    request_id: msg.request_id(),
                    code: ErrorCode::Protocol,
                    message: format!("client sent server-only opcode 0x{:02x}", msg.opcode()),
                };
                self.queue_reply(&reply, None);
                self.closing = true;
            }
        }
    }

    /// Refuses a SUBMIT that failed tenant authentication: typed ERROR,
    /// `auth_failures` counter, ledger entry under `frames_errored`.
    fn refuse_auth(&mut self, ctx: &SessionCtx<'_>, tenant: u16, request_id: u64, why: &str) {
        SessionStats::bump(&ctx.stats.auth_failures);
        SessionStats::bump(&ctx.stats.frames_errored);
        ctx.telemetry.record_error(tenant);
        let reply = Message::Error {
            tenant,
            request_id,
            code: ErrorCode::Auth,
            message: why.to_string(),
        };
        self.queue_reply(&reply, None);
    }

    /// Admission control for one SUBMIT: draining check, per-connection
    /// window, per-tenant quota, then the global in-flight cap.
    fn admit(
        &mut self,
        ctx: &SessionCtx<'_>,
        job_tx: Option<&mpsc::Sender<RouteJob>>,
        tenant: u16,
        request_id: u64,
        dests: Vec<u32>,
        decode_ns: u64,
    ) {
        // Arrival ≈ read completion minus the timed body wait, so idle
        // time between frames never counts against a request.
        let received_at = Instant::now();
        let arrival = received_at
            .checked_sub(Duration::from_nanos(decode_ns))
            .unwrap_or(received_at);

        let Some(job_tx) = job_tx else {
            self.refuse(ctx, tenant, request_id, RetryReason::Draining);
            return;
        };
        if ctx.control.shutdown_requested() {
            self.refuse(ctx, tenant, request_id, RetryReason::Draining);
            return;
        }
        if self.window_used >= ctx.cfg.window {
            self.refuse(ctx, tenant, request_id, RetryReason::WindowFull);
            return;
        }
        let tenant_slot = ctx.admission.tenant_slot(tenant);
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
        let lines: Vec<Record> = dests
            .iter()
            .enumerate()
            .map(|(i, &d)| Record::new(d as usize, i as u64))
            .collect();
        let admission_ns = received_at.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let job = RouteJob {
            tenant,
            request_id,
            arrival,
            decode_ns,
            admission_ns,
            admitted_at: Instant::now(),
            lines,
            route: ReplyRoute {
                lane: self.lane,
                token: self.token,
            },
            tenant_slot,
        };
        if let Err(mpsc::SendError(job)) = job_tx.send(job) {
            // Dispatcher already gone: the session is past its drain
            // point. Release everything and push the frame back.
            ctx.admission.inflight.fetch_sub(1, Ordering::AcqRel);
            job.tenant_slot.fetch_sub(1, Ordering::AcqRel);
            self.window_used -= 1;
            self.refuse(ctx, tenant, request_id, RetryReason::Draining);
        }
    }

    /// Answers a refused SUBMIT with an explicit RETRY.
    fn refuse(&mut self, ctx: &SessionCtx<'_>, tenant: u16, request_id: u64, reason: RetryReason) {
        SessionStats::bump(&ctx.stats.retries_issued);
        ctx.telemetry.record_retry(tenant);
        let reply = Message::Retry {
            tenant,
            request_id,
            reason,
        };
        self.queue_reply(&reply, None);
    }
}
