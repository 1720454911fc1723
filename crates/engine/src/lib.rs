//! bnb-engine: a concurrent batched routing engine for the BNB network.
//!
//! The paper's self-routing property makes the control plane *local*: every
//! splitter sets its switches from its own inputs, so frames never
//! interact and many can share one call of the word-parallel kernel.
//! This crate runs that kernel on the caller's thread, or behind a
//! classic bounded submit/drain pipeline:
//!
//! - [`Fabric::route_batch`] is the one batch routine: it routes a whole
//!   `FrameBatch` on the calling thread, on a fault plan's healthy shards
//!   when there is one, with each frame that trips a hardware fault
//!   retried alone. The serving layer's reactors call it directly, each
//!   on the frames it decoded, with no engine, queue or thread hop.
//! - [`Engine::run`] spawns a [`std::thread::scope`]d worker pool (no
//!   external dependencies, no detached threads).
//! - [`EngineHandle::submit`] enqueues a frame into a **bounded** queue and
//!   blocks when it is full — backpressure, not unbounded buffering;
//!   [`EngineHandle::submit_batch`] enqueues a whole `FrameBatch` as one
//!   job.
//! - A worker routes every job it owns through that batch routine (a
//!   single frame as a one-frame batch) with its own reusable scratch —
//!   zero per-job allocation in steady state — byte-identical to the
//!   sequential route.
//! - [`EngineHandle::drain`] returns routed batches in submission order;
//!   [`EngineHandle::stats`] snapshots throughput, a fixed-bucket latency
//!   histogram, queue high-water marks, and per-worker activity
//!   ([`EngineStats`], serde-serializable). Failed batches carry an
//!   [`EngineError`] whose `source()` chain reaches the underlying
//!   [`bnb_core::RouteError`].
//! - The engine is generic over a [`bnb_obs::Observer`] (defaulting to the
//!   zero-cost noop): [`Engine::with_observer`] streams submit/drain,
//!   retry, and routing events to any sink — per column and
//!   arbiter sweep for sinks that want them (the scalar sweep), per main
//!   stage for aggregate sinks such as the lock-free `bnb_obs::Counters`,
//!   whose jobs route on the same packed and batched kernels as
//!   unobserved ones.
//! - [`Engine::run_faulted`] routes through damaged hardware: a
//!   [`LiveFaultPlan`] assigns a `bnb_core::fault::FaultMap` to each
//!   fabric shard, frames hitting a detected fault are retried on another
//!   shard with exponential backoff ([`RetryPolicy`]), and exhausted
//!   retries drain as [`EngineError::Quarantined`] with the fault site in
//!   the `source()` chain. Workers steer jobs onto healthy shards
//!   ([`ShardHealth`]); a job on a fault-free shard routes exactly as
//!   under [`Engine::run`], and a job on a faulted shard stays one
//!   batched call with only its tripping frames retried. The plan's maps
//!   may change while the engine routes.
//! - [`Engine::run_scrubbed`] is that run inside
//!   [`LiveFaultPlan::scrub_while`]: a background scrubber thread probes
//!   suspect shards beside the workers — quarantining confirmed faults
//!   and restoring capacity when transients clear — without pausing
//!   submit/drain. A serving session runs the same scrubber beside its
//!   reactors.
//!
//! There is one fault state ([`LiveFaultPlan`]), one scope and one worker
//! loop: fault handling is a per-frame retry, not a separate engine mode
//! (`DESIGN.md` §11). The pool closes its queue when the [`Engine::run`]
//! closure returns, and [`EngineHandle::try_submit_batch`] is its one
//! non-blocking submit.
//!
//! See `DESIGN.md` §8 for how this mirrors the paper's arbiter locality.

pub mod engine;
pub mod error;
mod hub;
pub mod live;
pub mod stats;

pub use engine::{
    BatchSubmitError, Engine, EngineConfig, EngineHandle, Fabric, RetryPolicy, RouteScratch,
    RoutedBatch, ShardDepth,
};
pub use error::EngineError;
pub use live::{LiveFaultPlan, PlanStatus, ShardHealth, ShardStatus};
pub use stats::{EngineStats, LatencyHistogram, LatencySummary, WorkerMetrics, HISTOGRAM_BUCKETS};
