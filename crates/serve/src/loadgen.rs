//! The load-generator client for `bnb serve`.
//!
//! One thread drives every connection, as the server's reactor does: each
//! connection is a `ClientConn` state machine that does no I/O and reads
//! no clock (reply bytes in, requests out of its write buffer, `now`
//! passed to every call), and one loop in [`run_loadgen`] moves bytes
//! between the sockets and the machines through the reactor's poller. So
//! it needs a unix host; elsewhere it returns the poller's `Unsupported`
//! error. Connections share tenants round-robin. Two pacing modes:
//!
//! - **closed loop**: at most `inflight` unanswered frames per connection.
//!   Setting it above the server's tenant quota deliberately drives the
//!   server into its explicit-RETRY backpressure path.
//! - **open loop**: each connection sends its even share of the aggregate
//!   QPS on a fixed wall-clock schedule, regardless of responses, which
//!   measures queueing latency honestly (no coordinated omission).
//!
//! Every ROUTED response is verified against the submitted permutation:
//! output `j` must have received the input whose destination was `j`.
//! Misdeliveries, errors, retries and unanswered frames are tallied
//! separately in the [`LoadgenReport`], with latency from when the
//! answered attempt was queued to the read that completed its reply. With
//! [`LoadgenConfig::max_resubmits`] > 0 a RETRYed frame keeps its window
//! slot and is resent after an exponential backoff; frames served after a
//! RETRY also feed [`LoadgenReport::retry_latency`], timed from the first
//! send, so backpressure cost is visible apart from first-attempt latency.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use bnb_obs::LatencyHistogram;
use bnb_topology::perm::Permutation;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use crate::auth::TenantKeys;
use crate::protocol::{write_message, FrameAssembler, Message};
use crate::sys::{fd_of, Poller};

/// A RETRYed frame's k-th resend waits `RESUBMIT_BACKOFF · 2^(k−1)`,
/// the engine's `RetryPolicy` (50 µs, doubling). A resend in the turn its
/// RETRY arrived would meet the same full quota and flood the server with
/// repeat requests; 200 µs and 1 ms bases abandoned no fewer frames.
const RESUBMIT_BACKOFF: Duration = Duration::from_micros(50);

/// How the load generator paces its submissions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// At most this many unanswered frames per connection; each settled
    /// response frees a slot.
    Closed {
        /// Per-connection in-flight window.
        inflight: usize,
    },
    /// Fixed-schedule sending at this aggregate frames-per-second target,
    /// split evenly across connections.
    Open {
        /// Aggregate target QPS across all connections.
        qps: f64,
    },
}

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:9500`.
    pub addr: String,
    /// Tenant ids in play (`0..tenants`).
    pub tenants: u16,
    /// Concurrent connections. `0` means one per tenant; otherwise
    /// connection `i` submits as tenant `i % tenants`.
    pub connections: usize,
    /// Frames each connection submits.
    pub frames: u64,
    /// Records per frame — must match the server's network size.
    pub inputs: usize,
    /// Pacing mode.
    pub mode: LoadMode,
    /// Seed for the per-frame random permutations.
    pub seed: u64,
    /// How long a connection with frames on the wire waits while nothing
    /// is sent or received before it declares them unanswered — so a
    /// silent server ends the run instead of hanging it.
    pub drain_window: Duration,
    /// Send a SHUTDOWN to the server after all tenants finish.
    pub shutdown_when_done: bool,
    /// How many times one frame may be resubmitted after a RETRY before
    /// the generator gives up on it. `0` treats every RETRY as final.
    pub max_resubmits: u32,
    /// Tenant signing keys. When set, every submit (and resubmit) goes
    /// out as `SUBMIT_TAGGED` with the tenant's SipHash tag — required
    /// against a server running with `--tenant-keys`.
    pub keys: Option<TenantKeys>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:9500".to_string(),
            tenants: 4,
            connections: 0,
            frames: 64,
            inputs: 64,
            mode: LoadMode::Closed { inflight: 4 },
            seed: 0xB1B0,
            drain_window: Duration::from_secs(2),
            shutdown_when_done: false,
            max_resubmits: 0,
            keys: None,
        }
    }
}

impl LoadgenConfig {
    /// The concrete connection count this config drives.
    pub fn effective_connections(&self) -> usize {
        if self.connections == 0 {
            usize::from(self.tenants.max(1))
        } else {
            self.connections
        }
    }
}

/// Latency percentiles in nanoseconds, from the shared histogram.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LatencyPercentiles {
    /// Fastest served frame.
    pub min_ns: u64,
    /// Median.
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Slowest served frame.
    pub max_ns: u64,
    /// Arithmetic mean (bucket-midpoint approximation).
    pub mean_ns: u64,
}

/// What a load-generation run observed.
#[derive(Debug, Clone, Serialize)]
pub struct LoadgenReport {
    /// Tenant ids driven.
    pub tenants: u16,
    /// Concurrent connections driven.
    pub connections: usize,
    /// `"closed"` or `"open"`.
    pub mode: String,
    /// Distinct frames submitted across all tenants (resubmissions of
    /// the same frame are counted in `resubmitted`, not here).
    pub submitted: u64,
    /// Frames answered with ROUTED and verified correct.
    pub served: u64,
    /// Frames abandoned after a RETRY (resubmit budget exhausted, or
    /// resubmits disabled).
    pub retried: u64,
    /// RETRY responses answered by resubmitting the frame.
    pub resubmitted: u64,
    /// Frames answered with ERROR.
    pub errored: u64,
    /// ROUTED responses whose permutation did not match the submission.
    pub misdelivered: u64,
    /// Frames never answered within the drain window.
    pub unanswered: u64,
    /// Responses of unexpected shape (wrong opcode, unknown request id).
    pub protocol_surprises: u64,
    /// Wall-clock duration of the run.
    pub elapsed_ms: u64,
    /// Served frames per wall-clock second.
    pub achieved_qps: f64,
    /// Latency percentiles over served frames, measured from the send
    /// of the attempt that was answered.
    pub latency: LatencyPercentiles,
    /// Latency percentiles for frames served after at least one RETRY,
    /// measured from the frame's *first* send — the client-visible cost
    /// of backpressure. All-zero when no resubmitted frame was served.
    pub retry_latency: LatencyPercentiles,
    /// Per-tenant breakdown, sorted by tenant id.
    pub per_tenant: Vec<TenantLoad>,
}

/// One tenant's slice of a load-generation run.
#[derive(Debug, Clone, Serialize)]
pub struct TenantLoad {
    /// Tenant id (also its connection index).
    pub tenant: u16,
    /// Distinct frames this tenant submitted.
    pub submitted: u64,
    /// Frames served and verified correct.
    pub served: u64,
    /// Frames abandoned after a RETRY.
    pub retried: u64,
    /// RETRY responses answered by resubmitting.
    pub resubmitted: u64,
    /// Frames answered with ERROR.
    pub errored: u64,
    /// Misdelivered ROUTED responses.
    pub misdelivered: u64,
    /// Frames never answered.
    pub unanswered: u64,
    /// Median served latency in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile served latency in nanoseconds.
    pub p99_ns: u64,
}

/// One tenant's tallies and histograms. One thread owns them all, so
/// they are plain counters, merged into run totals at report time.
#[derive(Default)]
struct Tally {
    submitted: u64,
    served: u64,
    retried: u64,
    resubmitted: u64,
    errored: u64,
    misdelivered: u64,
    unanswered: u64,
    protocol_surprises: u64,
    /// Served latency from the answered attempt's send.
    hist: LatencyHistogram,
    /// Served-after-RETRY latency from the frame's first send.
    retry_hist: LatencyHistogram,
}

/// Renders a merged histogram as the report's percentile block.
fn percentiles(hist: &LatencyHistogram) -> LatencyPercentiles {
    LatencyPercentiles {
        min_ns: if hist.count() == 0 { 0 } else { hist.min_ns() },
        p50_ns: hist.quantile(0.50),
        p90_ns: hist.quantile(0.90),
        p99_ns: hist.quantile(0.99),
        p999_ns: hist.quantile(0.999),
        max_ns: hist.max_ns(),
        mean_ns: hist.mean_ns(),
    }
}

/// Nanoseconds from `since` to `now`, saturating.
fn nanos(since: Instant, now: Instant) -> u64 {
    u64::try_from(now.saturating_duration_since(since).as_nanos()).unwrap_or(u64::MAX)
}

/// One unanswered frame: what was submitted and when.
struct OutFrame {
    dests: Vec<u32>,
    /// First send — retry latency is measured from here.
    first_sent: Instant,
    /// Most recent (re)send — attempt latency is measured from here.
    last_sent: Instant,
    /// Resubmissions performed so far.
    attempts: u32,
}

/// Open loop: one connection's fresh frames per second, `qps` shared
/// evenly across the connections.
fn open_rate(cfg: &LoadgenConfig, qps: f64) -> f64 {
    (qps / cfg.effective_connections() as f64).max(1e-3)
}

/// One connection's client: it paces submissions and settles replies, and
/// never touches a socket or reads a clock — the caller feeds it bytes and
/// `now` and writes out `out` — so it runs over any transport.
struct ClientConn<'a> {
    cfg: &'a LoadgenConfig,
    tenant: u16,
    rng: StdRng,
    /// Fresh frames `0..next_id` have been submitted.
    next_id: u64,
    outstanding: HashMap<u64, OutFrame>,
    /// RETRYed frames waiting out their backoff: (due, request id).
    resends: Vec<(Instant, u64)>,
    replies: FrameAssembler,
    /// Encoded requests not yet written.
    out: Vec<u8>,
    /// Open loop: fresh frame `k` is due at `start + k / rate`, with
    /// connection `i` starting `i` slots of the aggregate rate late.
    start: Instant,
    /// When a request was last queued or reply bytes last arrived.
    last_activity: Instant,
    /// The peer hung up or broke the protocol.
    closed: bool,
}

impl<'a> ClientConn<'a> {
    fn new(cfg: &'a LoadgenConfig, index: usize, now: Instant) -> Self {
        // Staggered, the connections' open-loop schedules interleave into
        // one stream paced evenly at the aggregate rate.
        let start = match cfg.mode {
            LoadMode::Open { qps } => {
                let slots = open_rate(cfg, qps) * cfg.effective_connections() as f64;
                now + Duration::from_secs_f64(index as f64 / slots)
            }
            LoadMode::Closed { .. } => now,
        };
        ClientConn {
            cfg,
            tenant: (index % usize::from(cfg.tenants.max(1))) as u16,
            rng: StdRng::seed_from_u64(cfg.seed ^ (index as u64).wrapping_mul(0x9E37_79B9)),
            next_id: 0,
            outstanding: HashMap::new(),
            resends: Vec::new(),
            replies: FrameAssembler::new(),
            out: Vec::new(),
            start,
            last_activity: now,
            closed: false,
        }
    }

    /// When the next fresh frame is due, while any remain: at once below
    /// the window (closed loop), or at its slot on the schedule (open loop).
    fn next_fresh(&self) -> Option<Instant> {
        if self.next_id >= self.cfg.frames {
            return None;
        }
        match self.cfg.mode {
            LoadMode::Closed { inflight } => {
                (self.outstanding.len() < inflight.max(1)).then_some(self.start)
            }
            LoadMode::Open { qps } => {
                let rate = open_rate(self.cfg, qps);
                Some(self.start + Duration::from_secs_f64(self.next_id as f64 / rate))
            }
        }
    }

    /// Whether some outstanding frame is on the wire, not in a backoff.
    fn awaiting_reply(&self) -> bool {
        self.outstanding.len() > self.resends.len()
    }

    /// Queues the resends that are due, then the fresh frames that are.
    fn pump(&mut self, now: Instant, tally: &mut Tally) {
        while let Some(i) = self.resends.iter().position(|&(due, _)| due <= now) {
            let (_, id) = self.resends.swap_remove(i);
            self.send(id, now);
        }
        while self.next_fresh().is_some_and(|due| due <= now) {
            let perm = Permutation::random(self.cfg.inputs, &mut self.rng);
            let frame = OutFrame {
                dests: perm.as_slice().iter().map(|&d| d as u32).collect(),
                first_sent: now,
                last_sent: now,
                attempts: 0,
            };
            self.outstanding.insert(self.next_id, frame);
            self.send(self.next_id, now);
            self.next_id += 1;
            tally.submitted += 1;
        }
    }

    /// Queues one (re)submission of an outstanding frame and restamps its
    /// attempt clock; under keyed auth the tag is the same every attempt.
    fn send(&mut self, request_id: u64, now: Instant) {
        if let Some(frame) = self.outstanding.get_mut(&request_id) {
            frame.last_sent = now;
            let dests = frame.dests.clone();
            submit_message(self.cfg.keys.as_ref(), self.tenant, request_id, dests)
                .encode(&mut self.out);
            self.last_activity = now;
        }
    }

    /// Takes reply bytes read at `now` and settles every complete reply.
    /// A malformed frame closes the connection.
    fn receive(&mut self, bytes: &[u8], now: Instant, tally: &mut Tally) {
        self.last_activity = now;
        self.replies.feed(bytes);
        while !self.closed {
            match self.replies.next_frame() {
                Ok(Some((msg, _))) => self.settle(msg, now, tally),
                Ok(None) => break,
                Err(_) => {
                    tally.protocol_surprises += 1;
                    self.closed = true;
                }
            }
        }
    }

    /// Processes one server response against the outstanding window.
    fn settle(&mut self, msg: Message, now: Instant, tally: &mut Tally) {
        match msg {
            Message::Routed {
                request_id,
                sources,
                ..
            } => match self.outstanding.remove(&request_id) {
                None => tally.protocol_surprises += 1,
                Some(frame) if !verify_routed(&frame.dests, &sources) => tally.misdelivered += 1,
                Some(frame) => {
                    tally.served += 1;
                    tally.hist.record(nanos(frame.last_sent, now));
                    if frame.attempts > 0 {
                        tally.retry_hist.record(nanos(frame.first_sent, now));
                    }
                }
            },
            Message::Retry { request_id, .. } => match self.outstanding.get_mut(&request_id) {
                None => tally.protocol_surprises += 1,
                Some(frame) if frame.attempts < self.cfg.max_resubmits => {
                    frame.attempts += 1;
                    let backoff =
                        RESUBMIT_BACKOFF.saturating_mul(1 << (frame.attempts - 1).min(16));
                    self.resends.push((now + backoff, request_id));
                    tally.resubmitted += 1;
                }
                Some(_) => {
                    self.outstanding.remove(&request_id);
                    tally.retried += 1;
                }
            },
            Message::Error { request_id, .. } => match self.outstanding.remove(&request_id) {
                Some(_) => tally.errored += 1,
                None => tally.protocol_surprises += 1,
            },
            _ => tally.protocol_surprises += 1,
        }
    }

    /// When this connection next needs a turn if no reply arrives: its
    /// next fresh frame, its next resend, or its drain deadline.
    fn deadline(&self) -> Option<Instant> {
        let drain = self.last_activity + self.cfg.drain_window;
        let drain = self.awaiting_reply().then_some(drain);
        let resends = self.resends.iter().map(|&(due, _)| due);
        resends.chain(self.next_fresh()).chain(drain).min()
    }

    /// Done: every frame settled, the peer gone, or a frame on a wire quiet
    /// for the drain window. What is still outstanding is unanswered.
    fn finished(&self, now: Instant) -> bool {
        let settled = self.next_id >= self.cfg.frames && self.outstanding.is_empty();
        let drained = self.awaiting_reply()
            && now.saturating_duration_since(self.last_activity) >= self.cfg.drain_window;
        self.closed || settled || drained
    }
}

/// A connected socket and the state machine it carries.
struct Link<'a> {
    stream: TcpStream,
    conn: ClientConn<'a>,
    /// Write readiness is subscribed: only while bytes stay buffered.
    write_armed: bool,
}

impl Link<'_> {
    /// Writes queued requests until the socket would block; a failed
    /// write closes the connection.
    fn flush(&mut self) {
        let out = &mut self.conn.out;
        let mut written = 0;
        while written < out.len() {
            match self.stream.write(&out[written..]) {
                Ok(n) if n > 0 => written += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Ok(_) | Err(_) => {
                    self.conn.closed = true;
                    break;
                }
            }
        }
        out.drain(..written);
    }
}

/// Drives the configured load against a running server and reports what
/// came back.
pub fn run_loadgen(cfg: &LoadgenConfig) -> io::Result<LoadgenReport> {
    let started = Instant::now();
    let conn_count = cfg.effective_connections();
    let mut poller = Poller::new()?;
    let mut streams = Vec::with_capacity(conn_count);
    for token in 0..conn_count {
        let stream = TcpStream::connect(&cfg.addr)?;
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        poller.add(fd_of(&stream), token as u64, true, false)?;
        streams.push(stream);
    }
    // Open-loop schedules start once every socket is up.
    let now = Instant::now();
    let mut links = Vec::with_capacity(conn_count);
    for (index, stream) in streams.into_iter().enumerate() {
        let conn = ClientConn::new(cfg, index, now);
        links.push(Some(Link {
            stream,
            conn,
            write_armed: false,
        }));
    }
    let mut tallies: Vec<Tally> = (0..cfg.tenants).map(|_| Tally::default()).collect();
    let mut events = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];

    loop {
        let mut wake = None;
        for (token, slot) in links.iter_mut().enumerate() {
            let Some(link) = slot else { continue };
            let tally = &mut tallies[usize::from(link.conn.tenant)];
            let now = Instant::now();
            link.conn.pump(now, tally);
            link.flush();
            if link.conn.finished(now) {
                tally.unanswered += link.conn.outstanding.len() as u64;
                poller.remove(fd_of(&link.stream)).ok();
                *slot = None;
                continue;
            }
            let want_write = !link.conn.out.is_empty();
            if want_write != link.write_armed {
                poller.modify(fd_of(&link.stream), token as u64, true, want_write)?;
                link.write_armed = want_write;
            }
            wake = wake.into_iter().chain(link.conn.deadline()).min();
        }
        // Every live connection has a deadline (a slot, a resend or its
        // drain), so none left means every connection has retired.
        let Some(wake) = wake else { break };
        events.clear();
        poller.wait(
            &mut events,
            Some(wake.saturating_duration_since(Instant::now())),
        )?;
        // Read each ready socket until it would block; end of stream or
        // an error closes the connection.
        for ev in &events {
            let Some(Some(link)) = links.get_mut(ev.token as usize) else {
                continue;
            };
            let tally = &mut tallies[usize::from(link.conn.tenant)];
            while ev.readable && !link.conn.closed {
                match link.stream.read(&mut buf) {
                    Ok(n) if n > 0 => link.conn.receive(&buf[..n], Instant::now(), tally),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Ok(_) | Err(_) => link.conn.closed = true,
                }
            }
            link.conn.closed |= ev.hangup;
        }
    }

    if cfg.shutdown_when_done {
        request_shutdown(&cfg.addr)?;
    }

    let elapsed = started.elapsed();
    let sum = |f: fn(&Tally) -> u64| -> u64 { tallies.iter().map(f).sum() };
    let mut hist = LatencyHistogram::new();
    let mut retry_hist = LatencyHistogram::new();
    let mut per_tenant = Vec::with_capacity(tallies.len());
    for (tenant, t) in tallies.iter().enumerate() {
        hist.merge(&t.hist);
        retry_hist.merge(&t.retry_hist);
        per_tenant.push(TenantLoad {
            tenant: tenant as u16,
            submitted: t.submitted,
            served: t.served,
            retried: t.retried,
            resubmitted: t.resubmitted,
            errored: t.errored,
            misdelivered: t.misdelivered,
            unanswered: t.unanswered,
            p50_ns: t.hist.quantile(0.50),
            p99_ns: t.hist.quantile(0.99),
        });
    }
    let served = sum(|t| t.served);
    Ok(LoadgenReport {
        tenants: cfg.tenants,
        connections: conn_count,
        mode: match cfg.mode {
            LoadMode::Closed { .. } => "closed".to_string(),
            LoadMode::Open { .. } => "open".to_string(),
        },
        submitted: sum(|t| t.submitted),
        served,
        retried: sum(|t| t.retried),
        resubmitted: sum(|t| t.resubmitted),
        errored: sum(|t| t.errored),
        misdelivered: sum(|t| t.misdelivered),
        unanswered: sum(|t| t.unanswered),
        protocol_surprises: sum(|t| t.protocol_surprises),
        elapsed_ms: elapsed.as_millis().min(u128::from(u64::MAX)) as u64,
        achieved_qps: served as f64 / elapsed.as_secs_f64().max(1e-9),
        latency: percentiles(&hist),
        retry_latency: percentiles(&retry_hist),
        per_tenant,
    })
}

/// One point on a connection-scaling sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// Concurrent connections driven at this point.
    pub connections: usize,
    /// Distinct frames submitted.
    pub submitted: u64,
    /// Frames served and verified correct.
    pub served: u64,
    /// Frames abandoned after a RETRY.
    pub retried: u64,
    /// Frames answered with ERROR.
    pub errored: u64,
    /// Misdelivered ROUTED responses.
    pub misdelivered: u64,
    /// Frames never answered within the drain window.
    pub unanswered: u64,
    /// Served frames per wall-clock second.
    pub achieved_qps: f64,
    /// Median served latency in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile served latency in nanoseconds.
    pub p99_ns: u64,
    /// Wall-clock duration of this point.
    pub elapsed_ms: u64,
}

/// A connections-vs-throughput/latency curve from [`run_sweep`].
#[derive(Debug, Clone, Serialize)]
pub struct SweepReport {
    /// Tenant ids in play at every point.
    pub tenants: u16,
    /// Frames each connection submitted at every point.
    pub frames_per_connection: u64,
    /// One entry per requested connection count, in order.
    pub points: Vec<SweepPoint>,
}

/// Runs one full load-generation pass per entry in `connections`,
/// against the same server, and collects the scaling curve. A
/// `shutdown_when_done` config fires once, after the last point.
pub fn run_sweep(cfg: &LoadgenConfig, connections: &[usize]) -> io::Result<SweepReport> {
    let mut points = Vec::with_capacity(connections.len());
    for &conns in connections {
        let mut point_cfg = cfg.clone();
        point_cfg.connections = conns;
        point_cfg.shutdown_when_done = false;
        let report = run_loadgen(&point_cfg)?;
        points.push(SweepPoint {
            connections: report.connections,
            submitted: report.submitted,
            served: report.served,
            retried: report.retried,
            errored: report.errored,
            misdelivered: report.misdelivered,
            unanswered: report.unanswered,
            achieved_qps: report.achieved_qps,
            p50_ns: report.latency.p50_ns,
            p99_ns: report.latency.p99_ns,
            elapsed_ms: report.elapsed_ms,
        });
    }
    if cfg.shutdown_when_done {
        request_shutdown(&cfg.addr)?;
    }
    Ok(SweepReport {
        tenants: cfg.tenants,
        frames_per_connection: cfg.frames,
        points,
    })
}

/// Connects once and asks the server to drain gracefully.
pub fn request_shutdown(addr: &str) -> io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    write_message(
        &mut stream,
        &Message::Shutdown {
            tenant: 0,
            request_id: 0,
        },
    )
}

/// Builds the wire submit for one frame: tagged when keys are present
/// (an unknown tenant falls back to a plain SUBMIT, which a keyed
/// server refuses — that surfaces misprovisioning instead of hiding it).
fn submit_message(
    keys: Option<&TenantKeys>,
    tenant: u16,
    request_id: u64,
    dests: Vec<u32>,
) -> Message {
    match keys.and_then(|k| k.tag(tenant, request_id, &dests)) {
        Some(tag) => Message::SubmitTagged {
            tenant,
            request_id,
            tag,
            dests,
        },
        None => Message::Submit {
            tenant,
            request_id,
            dests,
        },
    }
}

/// True when the routed frame matches the submitted permutation: output
/// `j` received the input whose requested destination was `j`, and every
/// output is covered exactly once.
fn verify_routed(dests: &[u32], sources: &[u32]) -> bool {
    if sources.len() != dests.len() {
        return false;
    }
    let n = dests.len();
    let mut seen = vec![false; n];
    for (j, &src) in sources.iter().enumerate() {
        let src = src as usize;
        if src >= n || seen[src] || dests[src] as usize != j {
            return false;
        }
        seen[src] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ErrorCode, RetryReason};

    #[test]
    fn verify_accepts_a_correct_route_and_rejects_corruption() {
        // dests: input i -> output 3 - i; sources: output j got input 3 - j.
        let dests = [3, 2, 1, 0];
        let sources = [3, 2, 1, 0];
        assert!(verify_routed(&dests, &sources));
        assert!(!verify_routed(&dests, &[3, 2, 1, 1]), "duplicate source");
        assert!(!verify_routed(&dests, &[0, 2, 1, 3]), "wrong output");
        assert!(!verify_routed(&dests, &[3, 2, 1]), "short frame");
        assert!(!verify_routed(&dests, &[3, 2, 1, 9]), "out of range");
    }

    /// Decodes and clears every request `conn` has queued.
    fn take_requests(conn: &mut ClientConn) -> Vec<(u64, Vec<u32>)> {
        let mut asm = FrameAssembler::new();
        asm.feed(&std::mem::take(&mut conn.out));
        let mut requests = Vec::new();
        while let Some((msg, _)) = asm.next_frame().expect("well-formed requests") {
            match msg {
                Message::Submit {
                    request_id, dests, ..
                } => requests.push((request_id, dests)),
                other => panic!("expected a SUBMIT, got {other:?}"),
            }
        }
        requests
    }

    /// What a correct router returns for `dests`: output `dests[i]` holds
    /// input `i`.
    fn sources_for(dests: &[u32]) -> Vec<u32> {
        let mut sources = vec![0; dests.len()];
        for (i, &d) in dests.iter().enumerate() {
            sources[d as usize] = i as u32;
        }
        sources
    }

    /// Open loop: connection `i` starts `i / qps` late, so the merged
    /// due times of every connection's fresh frames are evenly spaced
    /// `1 / qps` apart.
    #[test]
    fn open_loop_connections_interleave_into_one_even_schedule() {
        let qps = 1000.0;
        let cfg = LoadgenConfig {
            tenants: 4,
            connections: 4,
            frames: 5,
            inputs: 8,
            mode: LoadMode::Open { qps },
            ..LoadgenConfig::default()
        };
        let t0 = Instant::now();
        let mut due = Vec::new();
        for index in 0..4 {
            let mut conn = ClientConn::new(&cfg, index, t0);
            while let Some(at) = conn.next_fresh() {
                due.push(at - t0);
                conn.next_id += 1;
            }
        }
        due.sort();
        assert_eq!(due.len(), 20);
        for (k, at) in due.iter().enumerate() {
            let want = Duration::from_secs_f64(k as f64 / qps);
            assert!(
                at.abs_diff(want) < Duration::from_micros(1),
                "slot {k}: due at {at:?}, want {want:?}"
            );
        }
    }

    #[test]
    fn client_conn_paces_verifies_and_settles_without_a_socket() {
        let cfg = LoadgenConfig {
            tenants: 1,
            frames: 4,
            inputs: 8,
            mode: LoadMode::Closed { inflight: 2 },
            max_resubmits: 1,
            ..LoadgenConfig::default()
        };
        let t0 = Instant::now();
        let us = |n: u64| Duration::from_micros(n);
        let mut tally = Tally::default();
        let mut conn = ClientConn::new(&cfg, 0, t0);
        let reply = |conn: &mut ClientConn, msg: Message, now: Instant, tally: &mut Tally| {
            conn.receive(&msg.to_bytes(), now, tally);
            conn.pump(now, tally);
            assert!(conn.outstanding.len() <= 2, "the window holds 2 frames");
        };
        let routed = |request_id, sources| Message::Routed {
            tenant: 0,
            request_id,
            sources,
        };

        // The window fills to 2 and stays there.
        conn.pump(t0, &mut tally);
        conn.pump(t0, &mut tally);
        let first = take_requests(&mut conn);
        assert_eq!(first.iter().map(|r| r.0).collect::<Vec<_>>(), [0, 1]);

        // Frame 0 routed correctly: served, and frame 2 takes its slot.
        reply(
            &mut conn,
            routed(0, sources_for(&first[0].1)),
            t0 + us(10),
            &mut tally,
        );
        assert_eq!((tally.served, tally.hist.count()), (1, 1));
        // Frame 1 routed with two sources swapped: misdelivered.
        let mut swapped = sources_for(&first[1].1);
        swapped.swap(0, 1);
        reply(&mut conn, routed(1, swapped), t0 + us(20), &mut tally);
        assert_eq!(tally.misdelivered, 1);
        let second = take_requests(&mut conn);
        assert_eq!(second.iter().map(|r| r.0).collect::<Vec<_>>(), [2, 3]);
        assert_eq!(tally.submitted, 4);

        // A RETRY for frame 2: resent with the same id and destinations,
        // only once its backoff has passed.
        let retry = Message::Retry {
            tenant: 0,
            request_id: 2,
            reason: RetryReason::TenantQuota,
        };
        let retried_at = t0 + us(30);
        let resend_at = retried_at + RESUBMIT_BACKOFF;
        reply(&mut conn, retry.clone(), retried_at, &mut tally);
        assert_eq!(tally.resubmitted, 1);
        assert_eq!(conn.deadline(), Some(resend_at));
        conn.pump(resend_at - Duration::from_nanos(1), &mut tally);
        assert!(conn.out.is_empty(), "no resend before the backoff");
        conn.pump(resend_at, &mut tally);
        assert_eq!(take_requests(&mut conn), [second[0].clone()]);
        // A second RETRY exhausts max_resubmits: abandoned.
        let now = resend_at + us(10);
        reply(&mut conn, retry, now, &mut tally);
        assert_eq!(tally.retried, 1);
        assert!(conn.out.is_empty());

        // Frame 3 is still on the wire: the drain window ends the
        // connection only once nothing moved for that long.
        assert!(!conn.finished(now));
        assert!(conn.finished(now + cfg.drain_window));
        let error = Message::Error {
            tenant: 0,
            request_id: 3,
            code: ErrorCode::Route,
            message: "route failed".to_string(),
        };
        reply(&mut conn, error, now + us(10), &mut tally);
        assert_eq!(tally.errored, 1);
        assert!(conn.finished(now + us(10)), "every frame is settled");

        // An unknown id is a protocol surprise, not a settlement.
        reply(
            &mut conn,
            routed(99, sources_for(&first[0].1)),
            now + us(20),
            &mut tally,
        );
        assert_eq!(tally.protocol_surprises, 1);
        let settled = (
            tally.served,
            tally.misdelivered,
            tally.retried,
            tally.errored,
        );
        assert_eq!(settled, (1, 1, 1, 1));
    }
}
