//! bnb-obs: observability for the BNB network stack.
//!
//! The paper's complexity model is *per column*: eq. (7) counts the
//! `m(m+1)/2` switching columns of an `N = 2^m`-input network, and
//! eqs. (8)–(9) charge every column's arbiter sweep to the propagation
//! delay. This crate makes those quantities measurable on the running
//! system without taxing the hot path:
//!
//! - [`event`] — typed events for everything the routing layers can
//!   report: a column routed, an arbiter sweep, a main stage's totals, a
//!   splitter conflict, a batch submitted or completed, a scheduler
//!   round.
//! - [`observer`] — the object-safe [`Observer`] trait the layers emit
//!   events through, and the [`NoopObserver`] whose empty inlined methods
//!   (plus `enabled() == false`) let the compiler erase every
//!   instrumentation site when observation is off.
//! - [`counters`] — [`Counters`], a lock-free sharded sink implementing
//!   [`Observer`]: per-thread shards of relaxed atomics, aggregated on
//!   demand into a serializable [`MetricsSnapshot`] with per-main-stage
//!   breakdowns.
//! - [`histogram`] — the fixed-bucket [`LatencyHistogram`] (moved here
//!   from `bnb-engine`, which re-exports it) plus a lock-free
//!   [`AtomicHistogram`] for concurrent recording.
//! - [`timer`] — [`SpanTimer`], a span-style stopwatch that feeds
//!   histograms.
//! - [`recorder`] — the [`FlightRecorder`], a fixed-capacity lock-free
//!   ring of [`Span`]s with head/tail sampling ([`SamplePolicy`]) and a
//!   drop counter, sharded into per-thread lanes merged at drain.
//! - [`telemetry`] — [`Telemetry`], the serving path's request-lifecycle
//!   sink: per-stage latency histograms (decode → admission → queue wait
//!   → route → drain → response write) that partition the wire-to-wire
//!   latency, plus per-tenant sliding-window aggregates.
//! - [`export`] — text, JSON, and Prometheus exposition renderings of a
//!   [`MetricsSnapshot`], plus the labelled per-stage/per-tenant
//!   exposition of a [`TelemetrySnapshot`].
//! - [`chrome`] — Chrome trace-event JSON ([`render_chrome_trace`]) for
//!   recorded spans, loadable in `chrome://tracing` or Perfetto, with
//!   recorder lanes mapped to `tid` tracks.
//!
//! # Zero cost when disabled
//!
//! Instrumented code paths are generic over `O: Observer` and hoist one
//! `observer.enabled()` check before any per-event bookkeeping. With
//! [`NoopObserver`] (the default everywhere) that check is a constant
//! `false`, so the event construction and counting fold away entirely —
//! the workspace's zero-allocation test and the `engine_throughput` bench
//! guard this.
//!
//! # Example
//!
//! ```
//! use bnb_obs::{Counters, Observer};
//! use bnb_obs::event::ColumnEvent;
//!
//! let counters = Counters::new();
//! counters.column_routed(ColumnEvent {
//!     main_stage: 0,
//!     internal_stage: 0,
//!     width: 8,
//!     exchanges: 3,
//! });
//! let snapshot = counters.snapshot();
//! assert_eq!(snapshot.columns, 1);
//! assert_eq!(snapshot.exchanges, 3);
//! assert_eq!(snapshot.per_stage[0].main_stage, 0);
//! ```

pub mod chrome;
pub mod counters;
pub mod event;
pub mod export;
pub mod histogram;
pub mod observer;
pub mod recorder;
pub mod telemetry;
pub mod timer;

pub use chrome::render_chrome_trace;
pub use counters::{Counters, MetricsSnapshot, StageMetrics};
pub use event::{
    ColumnEvent, ConflictEvent, DrainEvent, FaultEvent, HopEvent, RepairEvent, RetryEvent,
    RoundEvent, ScrubEvent, StageTotalsEvent, SubmitEvent, SweepEvent,
};
pub use export::{
    render_json, render_json_pretty, render_prometheus, render_prometheus_telemetry, render_text,
};
pub use histogram::{AtomicHistogram, LatencyHistogram, LatencySummary, HISTOGRAM_BUCKETS};
pub use observer::{Fanout, NoopObserver, Observer};
pub use recorder::{FlightRecorder, RecorderStats, SamplePolicy, Span, SpanKind, RECORDER_LANES};
pub use telemetry::{
    Stage, StageSnapshot, Telemetry, TelemetrySnapshot, TenantSnapshot, TenantWindow, STAGE_COUNT,
    WINDOW_SLOTS,
};
pub use timer::SpanTimer;
