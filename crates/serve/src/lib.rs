//! bnb-serve: a long-lived routing service for the BNB network.
//!
//! The paper's self-routing property makes the network a natural shared
//! fabric: a frame's route is determined entirely by its own destination
//! tags, so frames from unrelated clients can be multiplexed onto one
//! fabric with no cross-frame coordination. This crate builds that
//! service on `std::net` alone — no async runtime:
//!
//! - [`protocol`]: a length-prefixed binary wire format (version byte,
//!   opcode, tenant id, request id) whose decoder is total — malformed,
//!   truncated, or oversized input yields a typed
//!   [`protocol::WireError`], never a panic. See DESIGN.md §14.
//! - [`server`]: epoll reactor threads multiplexing many connections,
//!   each routing the frames it admits on its own thread through one
//!   [`bnb_engine::Fabric`] — no dispatcher, no engine — with
//!   per-connection windows, per-tenant in-flight quotas and a global
//!   in-flight cap. Overload is answered with explicit `RETRY` responses
//!   — the server never buffers beyond its declared bounds.
//!   SIGTERM/SIGINT (or a wire `SHUTDOWN`) triggers a graceful drain:
//!   admitted frames are answered, threads join deterministically, and
//!   the session's [`server::ServeReport`] balances its frame ledger.
//!   The same listener doubles as the operator surface: HTTP
//!   `GET /metrics` answers with the Prometheus exposition of the shared
//!   [`bnb_obs::Counters`] (routing), the session's serve ledger, and
//!   per-stage/per-tenant request telemetry, `GET /status` (and the wire
//!   `STATUS` opcode) with a JSON [`server::StatusSnapshot`] covering
//!   uptime, tenant windows, and live fabric health.
//! - [`loadgen`]: an open/closed-loop load generator that drives every
//!   connection from one thread through per-connection state machines,
//!   verifies every routed frame against the submitted permutation,
//!   optionally resubmits RETRYed frames, and reports latency percentiles
//!   (first-attempt and retry-to-served) plus per-tenant breakdowns.

pub mod auth;
mod conn;
pub mod loadgen;
pub mod protocol;
mod reactor;
pub mod server;
mod sys;

pub use auth::TenantKeys;
pub use loadgen::{
    run_loadgen, run_sweep, LatencyPercentiles, LoadMode, LoadgenConfig, LoadgenReport, SweepPoint,
    SweepReport, TenantLoad,
};
pub use protocol::{ErrorCode, FrameAssembler, Message, RetryReason, WireError};
pub use server::{
    install_signal_handlers, EngineStatus, ServeConfig, ServeError, ServeReport, Server,
    ServerControl, StatusSnapshot, WindowStatus,
};
