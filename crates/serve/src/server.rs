//! The long-lived routing server.
//!
//! One [`Server::serve`] call owns a TCP listener for the lifetime of a
//! serving session; [`bind`] makes one whose accept queue is sized from
//! [`ServeConfig::max_connections`]. Connections are multiplexed onto a
//! small set of **reactor threads** (default: one per core) built on
//! `epoll(7)` — see `sys.rs` and `reactor.rs` — instead of two threads
//! per connection: each reactor owns its connections' nonblocking
//! sockets with edge-triggered readiness, runs the per-connection state
//! machines (`conn.rs`), performs admission control, and routes the
//! frames it admitted itself:
//!
//! - a per-connection pipelining window ([`ServeConfig::window`]) — how
//!   many SUBMITs one client may have in flight,
//! - a per-tenant in-flight quota, and
//! - a global in-flight cap ([`ServeConfig::queue_capacity`]).
//!
//! A frame that fails admission is answered with an explicit `RETRY`
//! response — the server never buffers beyond its declared bounds. The
//! frames a reactor admits during one poll turn form one [`FrameBatch`],
//! which it routes at the end of the turn on its own thread through the
//! session's [`Fabric`] ([`Fabric::route_batch`]: the batched kernel,
//! plus shard steering and fault retry under a [`LiveFaultPlan`]),
//! encoding each reply straight into its connection's write buffer. The
//! paper's thesis applied to serving: every frame is routed where it was
//! decoded, with no global dispatcher and no engine. The session's
//! threads are the acceptor, the reactors and, under a fault plan, the
//! plan's scrubber ([`LiveFaultPlan::scrub_while`]).
//!
//! On shutdown (SIGTERM/SIGINT via [`install_signal_handlers`], a wire
//! `SHUTDOWN` message, or [`ServerControl::trigger_shutdown`]) the
//! acceptor closes, new submissions get `RETRY Draining`, every reactor
//! routes what it admitted, flushes, and exits, and all threads join
//! before [`Server::serve`] returns its [`ServeReport`].
//!
//! The listener doubles as an HTTP operator surface: a connection whose
//! first bytes are `"GET "` is answered once and closed — `/status`
//! returns a JSON [`StatusSnapshot`], any other path the
//! `text/plain; version=0.0.4` Prometheus exposition: the routing
//! families of the shared [`Counters`], the serve families of the
//! session ledger, and the request-lifecycle [`Telemetry`] families. The
//! sniff is nonblocking: a client that dribbles its GET line
//! byte-at-a-time stalls only its own connection.
//!
//! With `--tenant-keys` ([`Server::with_tenant_keys`]) the server runs
//! keyed: SUBMITs must arrive as `SUBMIT_TAGGED` with a valid
//! per-tenant SipHash tag (see `auth.rs`), and anything else is refused
//! with a typed `ERROR(Auth)`.
//!
//! # Request-lifecycle telemetry
//!
//! Every served frame's timeline is cut into six stages — decode (body
//! buffering + parse), admission (auth + quota checks), queue wait (the
//! rest of the poll turn, until the route call starts), route (the route
//! call, shared by the turn's batch), drain (until the frame's reply is
//! encoded), and response write (until the reply's last byte is on the
//! socket). All six are recorded by the owning
//! reactor when the reply's last byte flushes to the socket, from stamps
//! taken at adjacent points of the one request's timeline, so the
//! per-stage sums partition the independently measured wire-to-wire
//! latency. Requests slower than [`ServeConfig::slow_ms`] are
//! additionally sampled into an optional [`FlightRecorder`] as
//! [`SpanKind::Request`] spans.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use bnb_core::network::BnbNetwork;
use bnb_engine::{Fabric, LiveFaultPlan, PlanStatus};
use bnb_obs::{
    render_prometheus, render_prometheus_telemetry, Counters, FlightRecorder, Telemetry,
    TelemetrySnapshot,
};
use serde::{Deserialize, Serialize};

use crate::auth::TenantKeys;
use crate::reactor::{run_reactor, ReactorShared};
use crate::sys::{set_backlog, Poller};

// `FrameBatch` and `SpanKind` appear in doc links only.
#[allow(unused_imports)]
use bnb_core::batch::FrameBatch;
#[allow(unused_imports)]
use bnb_obs::SpanKind;

/// Serving-session parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Network size `N = 2^m`; every SUBMIT frame must carry exactly this
    /// many records.
    pub inputs: usize,
    /// Kept for config compatibility: every reactor routes the frames
    /// it admits on its own thread, so no worker pool serves frames and
    /// this sizes nothing.
    pub workers: usize,
    /// The global in-flight cap: frames admitted across all connections
    /// and not yet answered. Past it, SUBMITs are answered
    /// `RETRY QueueFull`.
    pub queue_capacity: usize,
    /// Per-tenant in-flight frame quota.
    pub tenant_quota: usize,
    /// Most simultaneously open client connections.
    pub max_connections: usize,
    /// Legacy knob kept for config compatibility; the reactor never
    /// blocks in `read`, so this no longer bounds anything.
    pub read_timeout: Duration,
    /// Slow-request capture threshold in milliseconds; requests whose
    /// wire-to-wire latency crosses it are counted and — when a
    /// [`FlightRecorder`] is attached via [`Server::with_recorder`] —
    /// sampled as [`SpanKind::Request`] spans. `0` disables capture.
    pub slow_ms: u64,
    /// Reactor threads. `0` = one per available core.
    pub reactor_threads: usize,
    /// Per-connection pipelining window: how many SUBMITs one
    /// connection may have in flight before the server answers
    /// `RETRY WindowFull`.
    pub window: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            inputs: 64,
            workers: 2,
            queue_capacity: 8,
            tenant_quota: 4,
            max_connections: 64,
            read_timeout: Duration::from_millis(100),
            slow_ms: 0,
            reactor_threads: 0,
            window: 32,
        }
    }
}

/// Set by the process signal handlers; shared by every [`ServerControl`].
static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Routes SIGTERM and SIGINT to a graceful drain of every server in the
/// process. Uses the libc `signal(2)` entry point directly so the crate
/// stays dependency-free; on non-Unix targets this is a no-op.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        extern "C" fn on_signal(_sig: i32) {
            SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }
}

/// Shared shutdown switch for one serving session.
#[derive(Debug, Default)]
pub struct ServerControl {
    shutdown: AtomicBool,
}

impl ServerControl {
    /// A control with the shutdown switch off.
    pub fn new() -> Arc<Self> {
        Arc::new(ServerControl::default())
    }

    /// Flips the session into graceful drain.
    pub fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once a drain was requested — by this control, or by a process
    /// signal installed with [`install_signal_handlers`].
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || SIGNAL_SHUTDOWN.load(Ordering::SeqCst)
    }
}

/// What one serving session did, returned by [`Server::serve`].
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    /// Connections accepted (metrics scrapes included).
    pub connections_accepted: u64,
    /// SUBMIT frames received.
    pub frames_submitted: u64,
    /// Frames routed and delivered back to their client.
    pub frames_served: u64,
    /// Frames answered with an explicit RETRY.
    pub retries_issued: u64,
    /// Frames that failed validation, routing, or tenant authentication
    /// (answered with ERROR).
    pub frames_errored: u64,
    /// Responses dropped because the client connection was gone by
    /// delivery time.
    pub responses_dropped: u64,
    /// Connections that violated the wire protocol.
    pub protocol_errors: u64,
    /// SUBMITs refused for a missing or invalid auth tag (a subset of
    /// `frames_errored`).
    pub auth_failures: u64,
    /// True when the session ended by graceful drain (vs. listener error).
    pub graceful: bool,
    /// Session wall-clock duration.
    pub elapsed_ms: u64,
    /// Served requests that crossed the [`ServeConfig::slow_ms`]
    /// threshold.
    pub slow_requests: u64,
}

impl ServeReport {
    /// The bounded-buffering ledger: every submitted frame must be
    /// accounted for as served, retried, errored, or dropped.
    pub fn accounted(&self) -> bool {
        self.frames_submitted
            == self.frames_served
                + self.retries_issued
                + self.frames_errored
                + self.responses_dropped
    }
}

/// The session's serve ledger: the one tally of serve events, read by
/// the [`ServeReport`], `/status` and the serve families of `/metrics`.
/// Every field is a statistic that publishes no other data, so all
/// accesses are `Relaxed`.
#[derive(Default)]
pub(crate) struct SessionStats {
    pub connections_accepted: AtomicU64,
    pub frames_submitted: AtomicU64,
    pub frames_served: AtomicU64,
    pub retries_issued: AtomicU64,
    pub frames_errored: AtomicU64,
    pub responses_dropped: AtomicU64,
    pub protocol_errors: AtomicU64,
    pub auth_failures: AtomicU64,
    /// Times a reactor lane was woken through its wake pipe.
    pub reactor_wakeups: AtomicU64,
    /// Deepest any connection's pipelining window ever got.
    pub max_window_depth: AtomicU64,
}

impl SessionStats {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Appends the serve families of the Prometheus exposition. Names,
    /// HELP and TYPE are part of the `/metrics` contract.
    fn render_prometheus(&self, out: &mut String) {
        let families = [
            (
                "bnb_connections_accepted_total",
                "counter",
                "Client connections accepted by the serving front door.",
                &self.connections_accepted,
            ),
            (
                "bnb_frames_submitted_total",
                "counter",
                "SUBMIT frames received.",
                &self.frames_submitted,
            ),
            (
                "bnb_frames_served_total",
                "counter",
                "Frames routed and delivered back to clients.",
                &self.frames_served,
            ),
            (
                "bnb_retries_issued_total",
                "counter",
                "Frames pushed back with an explicit RETRY response.",
                &self.retries_issued,
            ),
            (
                "bnb_frames_errored_total",
                "counter",
                "Frames answered with an explicit ERROR (routing or authentication).",
                &self.frames_errored,
            ),
            (
                "bnb_responses_dropped_total",
                "counter",
                "Routed frames whose connection was gone by delivery time.",
                &self.responses_dropped,
            ),
            (
                "bnb_auth_failures_total",
                "counter",
                "Submits rejected because their authentication tag failed to verify.",
                &self.auth_failures,
            ),
            (
                "bnb_reactor_wakeups_total",
                "counter",
                "Times a reactor lane was nudged awake through its wake pipe.",
                &self.reactor_wakeups,
            ),
            (
                "bnb_max_window_depth",
                "gauge",
                "Deepest per-connection pipeline window observed.",
                &self.max_window_depth,
            ),
        ];
        for (name, kind, help, value) in families {
            let value = value.load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}"
            );
        }
    }
}

/// Admission state shared by every reactor: the global in-flight count
/// and the per-tenant quota slots.
pub(crate) struct Admission {
    pub inflight: AtomicUsize,
    tenants: Mutex<HashMap<u16, Arc<AtomicUsize>>>,
}

impl Admission {
    fn new() -> Self {
        Admission {
            inflight: AtomicUsize::new(0),
            tenants: Mutex::new(HashMap::new()),
        }
    }

    pub(crate) fn tenant_slot(&self, tenant: u16) -> Arc<AtomicUsize> {
        Arc::clone(
            self.tenants
                .lock()
                .unwrap()
                .entry(tenant)
                .or_insert_with(|| Arc::new(AtomicUsize::new(0))),
        )
    }
}

/// Everything a reactor needs from the session, bundled once instead of
/// threaded as a dozen parameters.
pub(crate) struct SessionCtx<'s> {
    pub cfg: ServeConfig,
    pub control: &'s ServerControl,
    pub admission: &'s Admission,
    pub stats: &'s SessionStats,
    /// The fabric's observer; source of the routing families only.
    pub counters: &'s Counters,
    pub telemetry: &'s Telemetry,
    pub recorder: Option<&'s FlightRecorder>,
    pub plan: Option<&'s LiveFaultPlan>,
    pub active_conns: &'s AtomicUsize,
    /// The fabric every reactor routes through, on its own thread.
    pub fabric: &'s Fabric<'s, Counters>,
    /// Tenant auth keys; `None` = open mode.
    pub keys: Option<&'s TenantKeys>,
    /// How many reactor lanes the session runs.
    pub reactors: usize,
}

/// The `engine` object of a [`StatusSnapshot`]. Served frames are
/// routed on the reactor threads and enter no queue, so its one field is
/// always 0; it is kept because status consumers still read it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineStatus {
    /// Always 0: no served frame waits in a queue.
    pub queue_high_water: usize,
}

/// Per-connection pipelining-window state in a [`StatusSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowStatus {
    /// The configured per-connection in-flight limit
    /// ([`ServeConfig::window`]), as advertised to clients via RETRY
    /// `WindowFull`.
    pub limit: usize,
    /// Deepest any single connection's window got this session.
    pub max_depth: usize,
}

/// What the `/status` endpoint and the wire `STATUS` opcode report: one
/// JSON document with the session's uptime, request telemetry, and —
/// when a [`LiveFaultPlan`] is live — per-shard health and fault maps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusSnapshot {
    /// Milliseconds since the serving session started.
    pub uptime_ms: u64,
    /// Frames currently admitted and not yet answered (they wait for
    /// the end of their reactor's poll turn).
    pub inflight: usize,
    /// Client connections currently open.
    pub connections: usize,
    /// Reactor threads serving those connections.
    pub reactors: usize,
    /// Whether the session is draining for shutdown.
    pub draining: bool,
    /// Per-connection pipelining window limit and high water.
    pub window: WindowStatus,
    /// Per-stage and per-tenant request telemetry.
    pub telemetry: TelemetrySnapshot,
    /// A constant (see [`EngineStatus`]).
    pub engine: EngineStatus,
    /// Live fabric health, when the session runs under a fault plan.
    pub fabric: Option<PlanStatus>,
}

/// Builds the [`StatusSnapshot`] both operator surfaces serve.
pub(crate) fn build_status(ctx: &SessionCtx<'_>) -> StatusSnapshot {
    StatusSnapshot {
        uptime_ms: ctx.telemetry.uptime_ms(),
        inflight: ctx.admission.inflight.load(Ordering::Acquire),
        connections: ctx.active_conns.load(Ordering::Acquire),
        reactors: ctx.reactors,
        draining: ctx.control.shutdown_requested(),
        window: WindowStatus {
            limit: ctx.cfg.window,
            max_depth: ctx.stats.max_window_depth.load(Ordering::Relaxed) as usize,
        },
        telemetry: ctx.telemetry.snapshot(),
        engine: EngineStatus {
            queue_high_water: 0,
        },
        fabric: ctx.plan.map(|p| p.status()),
    }
}

/// Binds the listener [`Server::serve`] takes, with an accept queue of
/// `max(max_connections, 128)` pending connects: std binds with 128, and
/// past that each connect of a burst the acceptor has not reached yet
/// loses its SYN and waits out a 1 s retransmit.
pub fn bind(addr: impl ToSocketAddrs, max_connections: usize) -> io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    set_backlog(&listener, max_connections.max(128))?;
    Ok(listener)
}

/// A long-lived routing server bound to a shared [`Counters`] sink.
pub struct Server<'a> {
    config: ServeConfig,
    counters: &'a Counters,
    fault_plan: Option<&'a LiveFaultPlan>,
    recorder: Option<&'a FlightRecorder>,
    tenant_keys: Option<TenantKeys>,
}

impl<'a> Server<'a> {
    /// A server whose routing reports its metrics into `counters`.
    pub fn new(config: ServeConfig, counters: &'a Counters) -> Self {
        Server {
            config,
            counters,
            fault_plan: None,
            recorder: None,
            tenant_keys: None,
        }
    }

    /// Attaches a [`FlightRecorder`] for slow-request capture: served
    /// requests crossing [`ServeConfig::slow_ms`] are recorded as
    /// [`SpanKind::Request`] spans (request id as `seq`, tenant as `a`,
    /// record count as `b`, wire latency as the duration).
    pub fn with_recorder(mut self, recorder: &'a FlightRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Runs the session keyed: SUBMITs must arrive tagged with a valid
    /// per-tenant SipHash tag or are refused with `ERROR(Auth)`.
    pub fn with_tenant_keys(mut self, keys: TenantKeys) -> Self {
        self.tenant_keys = Some(keys);
        self
    }

    /// Routes through live fault state: every route call steers by
    /// `plan`, and the plan's scrubber runs beside the reactors
    /// ([`LiveFaultPlan::scrub_while`]), so faults can be injected and
    /// cleared *while the session serves* — a chaos driver holds the same
    /// `&plan` and mutates it concurrently. Detected faults are retried
    /// onto healthy fabric shards, the scrubber quarantines and restores
    /// shards, and clients only ever see correct frames, explicit
    /// `RETRY`s, or explicit `ERROR`s — never a silently misdelivered
    /// frame.
    pub fn with_fault_plan(mut self, plan: &'a LiveFaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Runs one serving session on `listener` until `control` requests a
    /// drain (or the listener dies). Resets `counters` at session start so
    /// the `/metrics` endpoint and final report describe this session
    /// only. Joins every thread before returning.
    pub fn serve(
        &self,
        listener: TcpListener,
        control: &Arc<ServerControl>,
    ) -> Result<ServeReport, ServeError> {
        let cfg = self.config;
        let network = BnbNetwork::builder_for(cfg.inputs)
            .map_err(|e| ServeError::Config(format!("bad network size {}: {e}", cfg.inputs)))?
            .build();
        listener
            .set_nonblocking(true)
            .map_err(ServeError::Listener)?;
        self.counters.reset();

        let reactors = if cfg.reactor_threads == 0 {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            cfg.reactor_threads
        };
        // Everything that can fail with a syscall error fails here, before
        // any thread spawns: the reactor wake pipes and one poller per
        // lane. On targets without epoll/poll this is where the
        // `Unsupported` error surfaces.
        let shared = ReactorShared::new(reactors).map_err(ServeError::Reactor)?;
        let reactors = shared.lanes.len();
        let mut pollers = Vec::with_capacity(reactors);
        for _ in 0..reactors {
            pollers.push(Poller::new().map_err(ServeError::Reactor)?);
        }

        let stats = SessionStats::default();
        let admission = Admission::new();
        let telemetry = Telemetry::new();
        if cfg.slow_ms > 0 {
            telemetry.set_slow_threshold(Some(Duration::from_millis(cfg.slow_ms)));
        }
        let started = Instant::now();
        let graceful = AtomicBool::new(true);
        let active_conns = AtomicUsize::new(0);
        let fabric = Fabric::new(network, self.counters, self.fault_plan);
        let ctx = SessionCtx {
            cfg,
            control,
            admission: &admission,
            stats: &stats,
            counters: self.counters,
            telemetry: &telemetry,
            recorder: self.recorder,
            plan: self.fault_plan,
            active_conns: &active_conns,
            fabric: &fabric,
            keys: self.tenant_keys.as_ref(),
            reactors,
        };

        let session = || {
            thread::scope(|s| {
                let (ctx, shared) = (&ctx, &shared);
                for (lane_idx, poller) in pollers.into_iter().enumerate() {
                    s.spawn(move || run_reactor(lane_idx, shared, ctx, poller));
                }

                // Accept loop, run inline on this thread. Fresh sockets
                // are dealt to reactor lanes round-robin.
                let mut next_lane = 0usize;
                loop {
                    if control.shutdown_requested() {
                        break;
                    }
                    match listener.accept() {
                        Ok((stream, _addr)) => {
                            if active_conns.load(Ordering::Acquire) >= cfg.max_connections {
                                drop(stream); // over the connection cap
                                continue;
                            }
                            if stream.set_nonblocking(true).is_err() {
                                drop(stream);
                                continue;
                            }
                            SessionStats::bump(&stats.connections_accepted);
                            active_conns.fetch_add(1, Ordering::AcqRel);
                            shared.lanes[next_lane].register(stream);
                            next_lane = (next_lane + 1) % reactors;
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            thread::sleep(Duration::from_millis(5));
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            graceful.store(false, Ordering::SeqCst);
                            // The reactors only exit through the drain
                            // protocol.
                            control.trigger_shutdown();
                            break;
                        }
                    }
                }
            })
        };
        // Under a fault plan its scrubber runs beside the reactors and
        // stops once every reactor has joined, each after routing
        // everything it admitted.
        match self.fault_plan {
            Some(plan) => plan.scrub_while(network, self.counters, session),
            None => session(),
        }

        let report = ServeReport {
            connections_accepted: stats.connections_accepted.load(Ordering::Relaxed),
            frames_submitted: stats.frames_submitted.load(Ordering::Relaxed),
            frames_served: stats.frames_served.load(Ordering::Relaxed),
            retries_issued: stats.retries_issued.load(Ordering::Relaxed),
            frames_errored: stats.frames_errored.load(Ordering::Relaxed),
            responses_dropped: stats.responses_dropped.load(Ordering::Relaxed),
            protocol_errors: stats.protocol_errors.load(Ordering::Relaxed),
            auth_failures: stats.auth_failures.load(Ordering::Relaxed),
            graceful: graceful.load(Ordering::SeqCst),
            elapsed_ms: started.elapsed().as_millis().min(u128::from(u64::MAX)) as u64,
            slow_requests: telemetry.snapshot().slow_captured,
        };
        debug_assert!(
            report.accounted(),
            "frame ledger out of balance: {report:?}"
        );
        Ok(report)
    }
}

/// A serving-session failure (distinct from per-connection errors, which
/// are answered on the wire and never abort the session).
#[derive(Debug)]
pub enum ServeError {
    /// The configuration cannot build a network.
    Config(String),
    /// The listener socket failed before the session started.
    Listener(io::Error),
    /// Reactor setup (epoll instance or wake pipe) failed before the
    /// session started.
    Reactor(io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "invalid serve configuration: {msg}"),
            ServeError::Listener(e) => write!(f, "listener setup failed: {e}"),
            ServeError::Reactor(e) => write!(f, "reactor setup failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Config(_) => None,
            ServeError::Listener(e) | ServeError::Reactor(e) => Some(e),
        }
    }
}

/// Renders one HTTP operator response from a buffered request head:
/// `/status` with the JSON [`StatusSnapshot`], any other path with the
/// Prometheus 0.0.4 exposition of the shared counters plus the
/// telemetry families.
pub(crate) fn render_http(head: &[u8], ctx: &SessionCtx<'_>) -> String {
    let path = http_path(head);
    let (content_type, body) = if path.starts_with("/status") {
        let json = serde_json::to_string(&build_status(ctx))
            .unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"));
        ("application/json", json)
    } else {
        let mut body = render_prometheus(&ctx.counters.snapshot());
        ctx.stats.render_prometheus(&mut body);
        body.push_str(&render_prometheus_telemetry(&ctx.telemetry.snapshot()));
        ("text/plain; version=0.0.4", body)
    };
    format!(
        "HTTP/1.1 200 OK\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        content_type,
        body.len(),
        body
    )
}

/// The request path from an HTTP request head (`GET <path> HTTP/1.1`);
/// empty when the head is malformed, which falls through to `/metrics`.
fn http_path(head: &[u8]) -> &str {
    let line = head
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .unwrap_or(b"");
    std::str::from_utf8(line)
        .ok()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("")
}
