//! The concurrent batched routing engine.
//!
//! # One job path
//!
//! Every job a pool worker owns goes through one batch routine, the one
//! [`EngineHandle::route_batch`] runs on a caller's thread: a
//! [`FrameBatch`] job routes as it is, and a single frame becomes a
//! one-frame batch in the worker's reusable scratch and is read back into
//! its submitted `Vec`. The routine validates each frame (same contract
//! as [`bnb_core::router::Router`]) and routes the batch through
//! `bnb-core`'s word-parallel kernel ([`bnb_core::batch::route_batch`]),
//! so the engine's per-worker throughput is that kernel's, not the
//! scalar sweep's. Parallelism comes from workers owning different jobs:
//! a frame is never split across workers.
//!
//! Because BNB routing is oblivious data movement (every switch setting
//! depends only on local destination bits), frames never interact and the
//! batched result is byte-identical to routing each frame alone through
//! the scalar sweep; debug builds assert this on every fault-free job.
//!
//! # Observability
//!
//! The engine is generic over a [`bnb_obs::Observer`] (defaulting to the
//! zero-cost [`NoopObserver`]). An attached observer sees job
//! submissions and completions ([`SubmitEvent`]/[`DrainEvent`]), retries
//! ([`RetryEvent`]), and — through [`bnb_core::stages::RouteSpan`] —
//! every routed column and arbiter sweep, or one stage-totals event per
//! main stage for a sink that declines per-column events. Attach with
//! [`Engine::with_observer`]; the noop path compiles to the same code as
//! before the hooks existed.
//!
//! # Batched submission
//!
//! [`EngineHandle::submit_batch`] feeds a whole
//! [`bnb_core::batch::FrameBatch`] to one worker, which routes every
//! frame in a single batched-kernel invocation and publishes one
//! in-order result per frame. This keeps every SWAR word of the routing
//! kernel fully occupied regardless of network size, where per-frame
//! submission leaves `64 - 2^m` of 64 lanes idle for small networks.
//!
//! # Routing on the calling thread
//!
//! [`EngineHandle::route_batch`] routes a [`FrameBatch`] on the calling
//! thread through the routine a pool worker runs, without the queue: the
//! serving layer routes every frame this way, on the reactor thread that
//! decoded it.
//!
//! # One worker path, with or without faults
//!
//! [`Engine::run`], [`Engine::run_faulted`] and [`Engine::run_scrubbed`]
//! share one scope and one worker loop. Without a fault plan
//! ([`Engine::run`]) a job never touches fault state. Under a plan, the
//! batch routine picks a fabric shard with [`LiveFaultPlan`]'s health
//! steering and copies that shard's fault map, and the copy alone decides
//! how the job routes:
//!
//! - a fault-free copy takes the batched kernel;
//! - a faulted copy routes the job's frames one at a time — still one
//!   `route_batch` call — and only the frames whose output balance check
//!   trips (Theorem 3 makes every corrupted frame trip) are retried, one
//!   by one, on another shard.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use bnb_core::batch::{route_batch, BatchOutcome, FrameBatch};
use bnb_core::error::RouteError;
use bnb_core::fault::FaultMap;
use bnb_core::network::BnbNetwork;
use bnb_core::stages::{validate_lines, RouteSpan, StageScratch};
use bnb_obs::{DrainEvent, NoopObserver, Observer, RetryEvent, SubmitEvent};
use bnb_topology::record::Record;

use crate::error::EngineError;
use crate::hub::{CloseGuard, FailGuard, Hub, JobPayload};
use crate::live::{scrubber_loop, LiveFaultPlan};
use crate::stats::{EngineStats, LatencySummary, WorkerMetrics};

pub use crate::hub::{BatchSubmitError, RoutedBatch, SubmitError};

/// The value of [`EngineConfig::shard_depth`], which configures nothing:
/// a job is never split across workers. It remains for callers that
/// build an [`EngineConfig`] as a struct literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardDepth {
    /// The only value.
    #[default]
    Auto,
}

/// Engine construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads (minimum 1).
    pub workers: usize,
    /// Bounded submission-queue capacity; `submit` blocks when this many
    /// batches are waiting (minimum 1).
    pub queue_capacity: usize,
    /// Configures nothing (see [`ShardDepth`]).
    pub shard_depth: ShardDepth,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 1,
            queue_capacity: 4,
            shard_depth: ShardDepth::Auto,
        }
    }
}

impl EngineConfig {
    /// A config with `workers` threads and defaults elsewhere.
    pub fn with_workers(workers: usize) -> Self {
        EngineConfig {
            workers,
            ..Self::default()
        }
    }
}

/// Retry budget for frames hitting hardware faults in
/// [`Engine::run_faulted`] and [`Engine::run_scrubbed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total route attempts per frame (the initial try plus retries,
    /// minimum 1).
    pub max_attempts: usize,
    /// Base backoff slept before retry `k` is `backoff * 2^(k-1)`
    /// (exponential; `Duration::ZERO` disables sleeping). The thread
    /// routing the frame sleeps it: a pool worker, or the caller of
    /// [`EngineHandle::route_batch`].
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_micros(50),
        }
    }
}

/// A fixed per-fabric-shard fault assignment for [`Engine::run_faulted`]:
/// shard `i` routes through `FaultMap` `i` for the whole run, and a frame
/// that detects a hardware fault is retried on another shard under the
/// [`RetryPolicy`].
///
/// The engine runs it as a [`LiveFaultPlan`] whose maps never change and
/// whose scrubber is off, so shard choice follows the live plan's health
/// steering (see [`Engine::run_faulted`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    shards: Vec<FaultMap>,
    retry: RetryPolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::healthy(1)
    }
}

impl FaultPlan {
    /// A plan with one fault map per fabric shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    pub fn new(shards: Vec<FaultMap>, retry: RetryPolicy) -> Self {
        assert!(!shards.is_empty(), "a fault plan needs at least one shard");
        FaultPlan { shards, retry }
    }

    /// Every shard healthy (routing is then identical to [`Engine::run`]).
    pub fn healthy(shards: usize) -> Self {
        FaultPlan::new(vec![FaultMap::new(); shards.max(1)], RetryPolicy::default())
    }

    /// The same faults on every shard (no healthy shard to retry onto).
    pub fn uniform(faults: FaultMap, shards: usize) -> Self {
        FaultPlan::new(vec![faults; shards.max(1)], RetryPolicy::default())
    }

    /// Replaces the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Number of fabric shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `i`'s fault map (wrapping).
    pub fn shard(&self, i: usize) -> &FaultMap {
        &self.shards[i % self.shards.len()]
    }

    /// The retry policy.
    pub fn retry(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Whether every shard is fault-free.
    pub fn is_healthy(&self) -> bool {
        self.shards.iter().all(FaultMap::is_empty)
    }
}

/// A concurrent batched router for one network configuration.
///
/// The engine owns no threads between runs: [`Engine::run`] opens a
/// [`std::thread::scope`], spawns the worker pool, hands the closure an
/// [`EngineHandle`] for submit/drain, and joins every worker before
/// returning — so no `'static` bounds, no detached threads, and worker
/// panics propagate.
///
/// # Example
///
/// ```
/// use bnb_core::network::BnbNetwork;
/// use bnb_engine::{Engine, EngineConfig};
/// use bnb_topology::perm::Permutation;
/// use bnb_topology::record::records_for_permutation;
///
/// let net = BnbNetwork::builder_for(16)?.build();
/// let engine = Engine::new(net, EngineConfig::with_workers(2));
/// let p = Permutation::try_from((0..16).rev().collect::<Vec<_>>())?;
/// let routed = engine.run(|handle| {
///     handle.submit(records_for_permutation(&p));
///     handle.drain().unwrap()
/// });
/// assert_eq!(routed.result.unwrap(), net.route(&records_for_permutation(&p))?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Engine<O: Observer = NoopObserver> {
    network: BnbNetwork,
    config: EngineConfig,
    observer: O,
}

impl Engine {
    /// An engine for `network` with the given pool configuration and no
    /// instrumentation.
    pub fn new(network: BnbNetwork, config: EngineConfig) -> Self {
        Engine::with_observer(network, config, NoopObserver)
    }
}

impl<O: Observer> Engine<O> {
    /// An engine whose workers report events to `observer` (typically
    /// `&bnb_obs::Counters`, or a `&bnb_obs::FlightRecorder` whose
    /// per-thread lanes give each worker its own recording shard, merged
    /// when the recorder's spans are drained; batch sequence numbers act
    /// as trace ids, threading submit → retries → drain together even
    /// through quarantine). All worker threads share the one observer, so
    /// its hooks must be cheap and contention-free.
    pub fn with_observer(network: BnbNetwork, config: EngineConfig, observer: O) -> Self {
        Engine {
            network,
            config,
            observer,
        }
    }

    /// The bound network.
    pub fn network(&self) -> &BnbNetwork {
        &self.network
    }

    /// The configuration this engine runs with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Spawns the worker pool, runs `f` with a submit/drain handle, then
    /// drains remaining work and joins every worker.
    pub fn run<R>(&self, f: impl FnOnce(&EngineHandle<'_, O>) -> R) -> R {
        self.run_with(None, false, f)
    }

    /// [`Engine::run`] over damaged hardware: fabric shard `i` routes
    /// through `plan`'s fault map `i`, and a frame that detects a
    /// hardware fault is retried on another shard with exponential
    /// backoff, up to the plan's [`RetryPolicy`] budget. Exhausted frames
    /// drain as [`EngineError::Quarantined`] with the fault site in the
    /// [`source`](std::error::Error::source) chain; frames that land on a
    /// healthy (or harmlessly faulted) shard route byte-identically to
    /// the sequential route.
    ///
    /// The plan runs as a [`LiveFaultPlan`] that never changes and has
    /// no scrubber, so shard choice is health steering:
    ///
    /// - A job, a single frame or a [`FrameBatch`], lands on the first
    ///   healthy shard counting from its worker's index plus the jobs
    ///   that worker routed before it, and a retry on the first healthy
    ///   shard after that. A shard that trips is marked
    ///   [`Suspect`](crate::ShardHealth::Suspect) and, with no scrubber
    ///   to clear it, skipped for the rest of the run. With no healthy
    ///   shard left, attempts fall back to plain round-robin.
    /// - A job whose shard is fault-free routes exactly as under
    ///   [`Engine::run`]. On a faulted shard the job stays one batched
    ///   call: only its tripping frames are retried, each under its own
    ///   sequence number and completion token.
    pub fn run_faulted<R>(&self, plan: &FaultPlan, f: impl FnOnce(&EngineHandle<'_, O>) -> R) -> R {
        let live = LiveFaultPlan::healthy(plan.shards()).with_retry(plan.retry);
        for (i, faults) in plan.shards.iter().enumerate() {
            live.set_faults(i, faults.clone());
        }
        self.run_with(Some(&live), false, f)
    }

    /// [`Engine::run_faulted`] with *live* repair: the fault maps in
    /// `plan` may change while the engine routes (a chaos driver
    /// injecting and clearing faults concurrently), workers steer jobs
    /// onto healthy fabric shards exactly as under
    /// [`Engine::run_faulted`], and a background scrubber thread probes
    /// suspect shards between drains — quarantining confirmed faults and
    /// restoring capacity when transients clear — without ever pausing
    /// submit/drain.
    ///
    /// The repair loop:
    ///
    /// - A frame attempt that trips the output balance check demotes its
    ///   shard to [`ShardHealth::Suspect`] and retries on the next
    ///   healthy shard under the plan's [`RetryPolicy`]; with no healthy
    ///   shard left, attempts fall back to plain round-robin so traffic
    ///   keeps flowing degraded rather than stalling.
    /// - The scrubber probes every non-healthy shard with seeded test
    ///   permutations on a private fabric. A dirty probe confirms the
    ///   fault ([`bnb_obs::RepairEvent`] with `restored: false`); a
    ///   clean-probe streak returns the shard to service
    ///   ([`bnb_obs::RepairEvent`] with `restored: true`). Every probe
    ///   emits a [`bnb_obs::ScrubEvent`].
    ///
    /// Frames that exhaust the retry budget drain as
    /// [`EngineError::Quarantined`], exactly like [`Engine::run_faulted`];
    /// delivered frames are always correct — the balance check makes
    /// misdelivery detectable, so a fault either surfaces as an error or
    /// the frame routed cleanly (Theorem 3).
    ///
    /// [`ShardHealth::Suspect`]: crate::ShardHealth::Suspect
    pub fn run_scrubbed<R>(
        &self,
        plan: &LiveFaultPlan,
        f: impl FnOnce(&EngineHandle<'_, O>) -> R,
    ) -> R {
        self.run_with(Some(plan), true, f)
    }

    /// The one scope behind every run mode: spawns the worker pool
    /// (steering by `plan` when there is one) and, if `scrub` is set, the
    /// scrubber over `plan`; runs `f`; joins everything.
    fn run_with<R>(
        &self,
        plan: Option<&LiveFaultPlan>,
        scrub: bool,
        f: impl FnOnce(&EngineHandle<'_, O>) -> R,
    ) -> R {
        let workers = self.config.workers.max(1);
        let hub = Hub::new(self.config.queue_capacity);
        let counters: Vec<WorkerCounters> =
            (0..workers).map(|_| WorkerCounters::default()).collect();
        let started = Instant::now();
        let stop = AtomicBool::new(false);
        let observer = &self.observer;
        let fabric = Fabric {
            net: self.network,
            observer,
            plan,
        };
        thread::scope(|s| {
            for (index, slot) in counters.iter().enumerate() {
                let worker = Worker {
                    hub: &hub,
                    fabric: &fabric,
                    counters: slot,
                    index,
                };
                s.spawn(move || worker.run());
            }
            if let Some(plan) = plan.filter(|_| scrub) {
                let (stop, net) = (&stop, self.network);
                s.spawn(move || scrubber_loop(stop, net, plan, observer));
            }
            let handle = EngineHandle {
                hub: &hub,
                fabric: &fabric,
                counters: &counters,
                workers,
                started,
                inline_seq: AtomicU64::new(INLINE_SEQ_BASE),
            };
            // Drop order is reverse of declaration: the hub closes first
            // (workers drain and exit), then the scrubber is stopped —
            // both fire even if `f` panics, so the scope always joins.
            let _stop_scrubber = StopGuard(&stop);
            let _guard = CloseGuard(&hub);
            f(&handle)
        })
    }
}

/// Sets the scrubber's stop flag on drop (see [`Engine::run_scrubbed`]).
struct StopGuard<'a>(&'a AtomicBool);

impl Drop for StopGuard<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Frames routed by [`EngineHandle::route_batch`] number from here, apart
/// from queued jobs' numbers, so the in-order drain never waits for one.
const INLINE_SEQ_BASE: u64 = 1 << 63;

/// Submit/drain interface handed to the [`Engine::run`] closure.
pub struct EngineHandle<'a, O: Observer = NoopObserver> {
    hub: &'a Hub,
    fabric: &'a Fabric<'a, O>,
    counters: &'a [WorkerCounters],
    workers: usize,
    started: Instant,
    /// Next sequence number for a frame routed on a caller's thread.
    inline_seq: AtomicU64,
}

impl<O: Observer> EngineHandle<'_, O> {
    /// Routes every frame of `batch` in place on the calling thread, as a
    /// pool worker routes a [`Self::submit_batch`] job, and returns one
    /// result per frame (a failed frame keeps its submitted contents).
    /// Under a fault plan the landing shard rotates with every batch
    /// routed with `scratch`, starting from shard `lane`, and a retry's
    /// backoff sleeps on this thread. Each frame takes its own sequence
    /// number and counts as one batch and one latency sample in
    /// [`EngineStats`] (one stats lock per call) with one submit and one
    /// drain event; none enters the queue, so [`Self::drain`] never sees
    /// it. With `&Counters` and no plan, steady state allocates nothing.
    pub fn route_batch<'s>(
        &self,
        lane: usize,
        batch: &mut FrameBatch,
        scratch: &'s mut RouteScratch,
    ) -> &'s [Result<(), EngineError>] {
        let frames = batch.frames() as u64;
        let seq = self.inline_seq.fetch_add(frames, Ordering::Relaxed);
        let started = Instant::now();
        self.submitted(seq, frames, batch.width());
        self.fabric.route_batch(scratch, lane, seq, batch);
        self.account(seq, batch.width(), &scratch.results, started);
        &scratch.results
    }

    /// Accounts a frame of `width` records, which cannot join a batch of
    /// the network's width, as routing it would have: it fails with
    /// [`RouteError::WidthMismatch`] under its own sequence number.
    pub fn reject_width(&self, width: usize) -> EngineError {
        let seq = self.inline_seq.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        self.submitted(seq, 1, width);
        let mismatch = RouteError::WidthMismatch {
            expected: self.fabric.net.inputs(),
            actual: width,
        };
        let err = EngineError::batch(seq, mismatch);
        self.account(seq, width, std::slice::from_ref(&Err(err.clone())), started);
        err
    }

    /// Emits the submit events of `frames` frames numbered from `seq`.
    fn submitted(&self, seq: u64, frames: u64, records: usize) {
        if self.fabric.observer.enabled() {
            for f in 0..frames {
                self.fabric.observer.batch_submitted(SubmitEvent {
                    seq: seq + f,
                    records,
                });
            }
        }
    }

    /// Counts the frames of one call routed on the caller's thread, under
    /// one stats lock, and emits their drain events.
    fn account(
        &self,
        seq: u64,
        width: usize,
        results: &[Result<(), EngineError>],
        started: Instant,
    ) {
        if results.is_empty() {
            return;
        }
        let latency_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let ok = results.iter().filter(|r| r.is_ok()).count() as u64;
        self.hub
            .count_routed(results.len() as u64, ok, width as u64, latency_ns);
        if self.fabric.observer.enabled() {
            for (f, result) in results.iter().enumerate() {
                self.fabric.observer.batch_drained(DrainEvent {
                    seq: seq + f as u64,
                    records: if result.is_ok() { width } else { 0 },
                    latency_ns,
                    ok: result.is_ok(),
                });
            }
        }
    }

    /// Submits one batch (a full frame of records), blocking while the
    /// bounded queue is full. Returns the batch's sequence number;
    /// [`Self::drain`] yields results in sequence order.
    pub fn submit(&self, lines: Vec<Record>) -> u64 {
        let records = lines.len();
        let seq = self.hub.submit(lines);
        self.submitted(seq, 1, records);
        seq
    }

    /// Non-blocking [`Self::submit`]: rejects the batch instead of
    /// waiting when the bounded queue is full
    /// ([`SubmitError::Full`]) or the engine is past
    /// [`Self::drain_and_close`] ([`SubmitError::Closed`]), handing the
    /// records back inside the error. This is the admission-control
    /// primitive: a front door that checks occupancy before offering can
    /// turn `Full` into an explicit `RETRY` instead of blocking its
    /// caller.
    pub fn try_submit(&self, lines: Vec<Record>) -> Result<u64, SubmitError> {
        self.try_submit_tagged(lines, 0)
    }

    /// [`Self::try_submit`] with a caller completion-routing token: the
    /// frame's [`RoutedBatch`] carries `token` back verbatim, so a caller
    /// can route completions without a side table. `0` = untagged.
    pub fn try_submit_tagged(&self, lines: Vec<Record>, token: u64) -> Result<u64, SubmitError> {
        let records = lines.len();
        let seq = self.hub.try_submit_tagged(lines, token)?;
        self.submitted(seq, 1, records);
        Ok(seq)
    }

    /// Non-blocking [`Self::submit_batch`] with per-frame completion
    /// tokens (`tokens[f]` rides back on frame `f`'s [`RoutedBatch`]):
    /// rejects instead of waiting when the bounded queue is full or the
    /// engine is closed, handing the whole batch back inside the error.
    /// `tokens` must be empty or exactly `batch.frames()` long.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or `tokens` has the wrong length.
    pub fn try_submit_batch(
        &self,
        batch: FrameBatch,
        tokens: &[u64],
    ) -> Result<u64, BatchSubmitError> {
        let frames = batch.frames() as u64;
        let records = batch.width();
        let seq = self.hub.try_submit_batch(batch, tokens)?;
        self.submitted(seq, frames, records);
        Ok(seq)
    }

    /// Submits a whole [`FrameBatch`] as one job, blocking while the
    /// bounded queue is full. Reserves one sequence number per frame and
    /// returns the first: frame `f` of the batch drains as `seq + f`, as
    /// its own [`RoutedBatch`], so drain loops need no batch awareness.
    ///
    /// The owning worker routes all frames through `bnb-core`'s batched
    /// word-parallel kernel ([`bnb_core::batch::route_batch`]) in one
    /// invocation — full SWAR word occupancy regardless of `m`. Per-frame
    /// validation failures surface as per-frame [`EngineError`]s; valid
    /// frames in the same batch still route.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or the engine is past
    /// [`Self::drain_and_close`].
    pub fn submit_batch(&self, batch: FrameBatch) -> u64 {
        let frames = batch.frames() as u64;
        let records = batch.width();
        let seq = self.hub.submit_batch(batch);
        self.submitted(seq, frames, records);
        seq
    }

    /// Graceful shutdown: rejects every submission from this point on
    /// (blocking [`Self::submit`] calls panic, [`Self::try_submit`]
    /// returns [`SubmitError::Closed`]), drains every in-flight batch,
    /// and returns them in submission order. After it returns the hub is
    /// empty, so the worker pool joins deterministically as soon as the
    /// [`Engine::run`] closure does — no frame is lost (everything
    /// submitted before the close is in the returned tail or was drained
    /// earlier) and none is double-delivered (each seq drains exactly
    /// once, here or before).
    pub fn drain_and_close(&self) -> Vec<RoutedBatch> {
        self.hub.stop_accepting();
        let mut tail = Vec::new();
        while let Some(batch) = self.hub.drain() {
            tail.push(batch);
        }
        tail
    }

    /// Blocks for the next routed batch in submission order; `None` once
    /// every submitted batch has been drained.
    pub fn drain(&self) -> Option<RoutedBatch> {
        self.hub.drain()
    }

    /// Non-blocking [`Self::drain`].
    pub fn try_drain(&self) -> Option<RoutedBatch> {
        self.hub.try_drain()
    }

    /// A snapshot of the engine counters.
    pub fn stats(&self) -> EngineStats {
        let elapsed_ns = self.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let secs = (elapsed_ns as f64 / 1e9).max(1e-9);
        let worker_metrics: Vec<WorkerMetrics> = self
            .counters
            .iter()
            .enumerate()
            .map(|(worker, c)| {
                let busy_ns = c.busy_ns.load(Ordering::Relaxed);
                WorkerMetrics {
                    worker,
                    busy_ns,
                    utilization: (busy_ns as f64 / elapsed_ns.max(1) as f64).min(1.0),
                    jobs_owned: c.jobs_owned.load(Ordering::Relaxed),
                }
            })
            .collect();
        self.hub.with_state(|st| EngineStats {
            workers: self.workers,
            batches: st.batches,
            records: st.records,
            errors: st.errors,
            elapsed_ns,
            batches_per_sec: st.batches as f64 / secs,
            records_per_sec: st.records as f64 / secs,
            latency: LatencySummary::from_histogram(&st.histogram),
            histogram: st.histogram.clone(),
            queue_depth: st.jobs.len(),
            queue_high_water: st.queue_high_water,
            wait_latency: LatencySummary::from_histogram(&st.wait_histogram),
            worker_metrics,
        })
    }
}

/// Per-worker activity counters, read by [`EngineHandle::stats`] while the
/// worker is still running (hence atomics, relaxed throughout).
#[derive(Default)]
struct WorkerCounters {
    busy_ns: AtomicU64,
    jobs_owned: AtomicU64,
}

/// Reusable routing state for [`EngineHandle::route_batch`], one per
/// routing thread (pool workers keep one too). It grows on first use and
/// then stays put.
#[derive(Debug)]
pub struct RouteScratch {
    stage: StageScratch,
    outcome: BatchOutcome,
    /// Working copy of a frame for sequential fault attempts; it grows
    /// on the first one, so healthy runs never allocate it.
    attempt: Vec<Record>,
    /// A batch frame being settled after it tripped a fault.
    frame: Vec<Record>,
    /// Per-frame results of the last batch routed.
    results: Vec<Result<(), EngineError>>,
    /// Batches routed with this scratch; rotates their landing shard.
    routed: usize,
    /// Debug builds: an unrouted copy of the batch and its outcome on
    /// the scalar sweep, which every fault-free batch must match.
    #[cfg(debug_assertions)]
    reference: (FrameBatch, BatchOutcome),
}

impl RouteScratch {
    /// Scratch pre-sized for frames of `n` records.
    pub fn with_capacity(n: usize) -> Self {
        RouteScratch {
            stage: StageScratch::with_capacity(n),
            outcome: BatchOutcome::new(),
            attempt: Vec::new(),
            frame: Vec::new(),
            results: Vec::new(),
            routed: 0,
            #[cfg(debug_assertions)]
            reference: (FrameBatch::new(n.max(1)), BatchOutcome::new()),
        }
    }
}

/// What routing needs from a run, shared by the pool workers and by
/// callers routing on their own thread: the network, the observer, and
/// the fault plan jobs steer by (`None` under [`Engine::run`]).
struct Fabric<'a, O: Observer> {
    net: BnbNetwork,
    observer: &'a O,
    plan: Option<&'a LiveFaultPlan>,
}

impl<O: Observer> Fabric<'_, O> {
    /// The one batch routine, behind every pool job and
    /// [`EngineHandle::route_batch`]: all frames through one
    /// [`route_batch`] call on the landing shard's fault map, then one
    /// result per frame in `scratch.results` (frame `f` is `seq + f`),
    /// settling any tripped frame on the way.
    fn route_batch(
        &self,
        scratch: &mut RouteScratch,
        lane: usize,
        seq: u64,
        batch: &mut FrameBatch,
    ) {
        // Rotate the landing with every batch: a caller that always
        // passes one lane still spreads its batches over every healthy
        // shard, so a fault on any shard meets traffic.
        let base = lane.wrapping_add(scratch.routed);
        scratch.routed = scratch.routed.wrapping_add(1);
        // Under a plan, a point-in-time copy of the landing shard's fault
        // map; that copy alone decides how the batch routes.
        let (shard, faults) = self
            .plan
            .map(|plan| {
                let shard = plan.pick_shard(base, 0);
                (shard, plan.faults_snapshot(shard))
            })
            .unwrap_or_default();
        #[cfg(debug_assertions)]
        if faults.is_empty() {
            scratch.reference.0.clone_from(batch);
        }
        // A faulted map, or an observer wanting per-column events, makes
        // route_batch fall back to frame-at-a-time routing, so those
        // events fire exactly as per-frame submission would; an aggregate
        // sink such as Counters keeps the batched kernel and its totals.
        let opts = RouteSpan::new().observer(self.observer).faults(&faults);
        route_batch(
            &self.net,
            batch,
            &opts,
            &mut scratch.stage,
            &mut scratch.outcome,
        );
        scratch.results.clear();
        let mut frame = std::mem::take(&mut scratch.frame);
        for f in 0..batch.frames() {
            let result = match scratch.outcome.results()[f].clone() {
                Ok(()) => Ok(()),
                // A frame whose route failed still holds its submitted
                // order: settle it alone, and write it back if it lands.
                first => {
                    batch.read_frame_into(f, &mut frame);
                    let settled =
                        self.settle(scratch, seq + f as u64, &mut frame, base, shard, first);
                    if settled.is_ok() {
                        batch.write_frame(f, &frame);
                    }
                    settled
                }
            };
            scratch.results.push(result);
        }
        scratch.frame = frame;
        // The batched kernel must be indistinguishable from routing each
        // frame alone through the scalar sweep: same contents, same errors.
        #[cfg(debug_assertions)]
        if faults.is_empty() {
            let (copy, outcome) = &mut scratch.reference;
            let oracle = RouteSpan::new().kernel(bnb_core::stages::Kernel::Scalar);
            route_batch(&self.net, copy, &oracle, &mut scratch.stage, outcome);
            let same_errors = outcome
                .results()
                .iter()
                .zip(&scratch.results)
                .all(|(want, got)| {
                    want.as_ref().err() == got.as_ref().err().map(EngineError::route_error)
                });
            debug_assert!(
                copy == batch && same_errors,
                "batched routing diverged from the sequential reference"
            );
        }
    }

    /// The one fault-retry routine. `first` is frame `seq`'s attempt on
    /// the landing `shard`; `lines` holds the frame as submitted, or as
    /// routed once an attempt succeeds. A hardware fault marks the shard
    /// suspect and retries on the next shard the plan steers to from
    /// `base`, after exponential backoff, until the budget runs out
    /// ([`EngineError::Quarantined`]). Any other error is terminal —
    /// retrying cannot fix the input.
    fn settle(
        &self,
        scratch: &mut RouteScratch,
        seq: u64,
        lines: &mut [Record],
        base: usize,
        mut shard: usize,
        first: Result<(), RouteError>,
    ) -> Result<(), EngineError> {
        let mut outcome = first;
        let mut attempt = 0;
        loop {
            // Only a plan's fault maps raise hardware faults.
            let (plan, fault) = match (outcome, self.plan) {
                (Ok(()), _) => return Ok(()),
                (Err(e @ RouteError::HardwareFault { .. }), Some(plan)) => (plan, e),
                (Err(e), _) => return Err(EngineError::batch(seq, e)),
            };
            plan.mark_suspect(shard);
            let retry = plan.retry();
            attempt += 1;
            if attempt >= retry.max_attempts {
                return Err(EngineError::quarantined(seq, attempt, fault));
            }
            shard = plan.pick_shard(base, attempt);
            let backoff = retry
                .backoff
                .saturating_mul(1u32 << (attempt - 1).min(16) as u32);
            if !backoff.is_zero() {
                thread::sleep(backoff);
            }
            if self.observer.enabled() {
                self.observer.batch_retried(RetryEvent {
                    seq,
                    attempt,
                    shard,
                });
            }
            outcome = self.attempt(scratch, &plan.faults_snapshot(shard), lines);
        }
    }

    /// One sequential route of `lines` through `faults`, on a copy: a
    /// failed attempt leaves partly routed cells behind, and the next
    /// attempt must start from the submitted order.
    fn attempt(
        &self,
        scratch: &mut RouteScratch,
        faults: &FaultMap,
        lines: &mut [Record],
    ) -> Result<(), RouteError> {
        scratch.attempt.clear();
        scratch.attempt.extend_from_slice(lines);
        RouteSpan::new()
            .observer(self.observer)
            .faults(faults)
            .run(&self.net, &mut scratch.attempt, &mut scratch.stage)?;
        lines.copy_from_slice(&scratch.attempt);
        Ok(())
    }
}

/// One pool thread's view of the run: the shared hub and fabric, its own
/// activity counters, and its index (where its jobs' landing starts).
struct Worker<'a, O: Observer> {
    hub: &'a Hub,
    fabric: &'a Fabric<'a, O>,
    counters: &'a WorkerCounters,
    index: usize,
}

impl<O: Observer> Worker<'_, O> {
    /// The worker loop: owned jobs, each through the batch routine, until
    /// the hub closes.
    fn run(self) {
        let _fail = FailGuard(self.hub);
        let n = self.fabric.net.inputs();
        let mut scratch = RouteScratch::with_capacity(n);
        // A frame job routes as the one frame of this batch.
        let mut single = FrameBatch::with_capacity(n, 1);
        while let Some(job) = self.hub.next_job() {
            let t0 = Instant::now();
            self.counters.jobs_owned.fetch_add(1, Ordering::Relaxed);
            match job.payload {
                JobPayload::Frame(mut lines) => {
                    // A frame a batch cannot hold (the wrong width, or a
                    // destination out of range, which may not fit the
                    // batch's u32 column) fails validation, which names
                    // its first offending cell.
                    let result = if lines.len() != n || lines.iter().any(|r| r.dest() >= n) {
                        let e = validate_lines(&self.fabric.net, &lines, &mut Vec::new())
                            .expect_err("an out-of-range frame fails validation");
                        Err(EngineError::batch(job.seq, e))
                    } else {
                        single.clear();
                        single.push_frame(&lines);
                        self.fabric
                            .route_batch(&mut scratch, self.index, job.seq, &mut single);
                        let result = scratch.results.pop().expect("one result per frame");
                        result.map(|()| {
                            single.read_frame_into(0, &mut lines);
                            lines
                        })
                    };
                    self.finish(job.seq, job.submitted_at, result);
                }
                JobPayload::Batch(mut batch) => {
                    self.fabric
                        .route_batch(&mut scratch, self.index, job.seq, &mut batch);
                    for (f, result) in scratch.results.drain(..).enumerate() {
                        let result = result.map(|()| {
                            let mut lines = Vec::with_capacity(n);
                            batch.read_frame_into(f, &mut lines);
                            lines
                        });
                        self.finish(job.seq + f as u64, job.submitted_at, result);
                    }
                }
            }
            self.counters
                .busy_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Publishes a frame's result and, when observing, emits the matching
    /// [`DrainEvent`] (the event carries submit-to-publish latency,
    /// measured here because `drain` itself never learns it).
    fn finish(&self, seq: u64, submitted_at: Instant, result: Result<Vec<Record>, EngineError>) {
        let ok = result.is_ok();
        let records = result.as_ref().map_or(0, Vec::len);
        self.hub.finish(seq, submitted_at, result);
        let observer = self.fabric.observer;
        if observer.enabled() {
            let latency_ns = submitted_at.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            observer.batch_drained(DrainEvent {
                seq,
                records,
                latency_ns,
                ok,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::ShardHealth;
    use bnb_core::network::RoutePolicy;
    use bnb_obs::Counters;
    use bnb_topology::perm::Permutation;
    use bnb_topology::record::records_for_permutation;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn engine_matches_sequential_route() {
        let mut rng = StdRng::seed_from_u64(100);
        for m in [1usize, 3, 6] {
            let n = 1usize << m;
            let net = BnbNetwork::new(m);
            for workers in [1usize, 2, 4] {
                let engine = Engine::new(net, EngineConfig::with_workers(workers));
                let perms: Vec<_> = (0..8).map(|_| Permutation::random(n, &mut rng)).collect();
                let expected: Vec<_> = perms
                    .iter()
                    .map(|p| net.route(&records_for_permutation(p)).unwrap())
                    .collect();
                let routed = engine.run(|h| {
                    for p in &perms {
                        h.submit(records_for_permutation(p));
                    }
                    (0..perms.len())
                        .map(|_| h.drain().unwrap())
                        .collect::<Vec<_>>()
                });
                for (i, batch) in routed.iter().enumerate() {
                    assert_eq!(batch.seq, i as u64, "drain must be in submission order");
                    assert_eq!(batch.result.as_ref().unwrap(), &expected[i]);
                }
            }
        }
    }

    #[test]
    fn tagged_and_batched_submissions_carry_tokens_per_frame() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 16usize;
        let net = BnbNetwork::new(4);
        let engine = Engine::new(net, EngineConfig::with_workers(2));
        let perms: Vec<_> = (0..5).map(|_| Permutation::random(n, &mut rng)).collect();
        let drained = engine.run(|h| {
            // One tagged single, then a 4-frame batch with distinct
            // per-frame tokens.
            h.try_submit_tagged(records_for_permutation(&perms[0]), 0xAA)
                .unwrap();
            let mut batch = bnb_core::batch::FrameBatch::with_capacity(n, 4);
            for p in &perms[1..] {
                batch.push_frame(&records_for_permutation(p));
            }
            let tokens = [0x10u64, 0x20, 0x30, 0x40];
            let base = h.try_submit_batch(batch, &tokens).unwrap();
            assert_eq!(base, 1, "batch frames follow the single");
            (0..5).map(|_| h.drain().unwrap()).collect::<Vec<_>>()
        });
        let mut by_seq: Vec<_> = drained;
        by_seq.sort_by_key(|b| b.seq);
        let want_tokens = [0xAAu64, 0x10, 0x20, 0x30, 0x40];
        for (i, batch) in by_seq.iter().enumerate() {
            assert_eq!(batch.seq, i as u64);
            assert_eq!(batch.token, want_tokens[i], "frame {i} token");
            assert!(batch.result.is_ok(), "frame {i} routes");
        }
    }

    #[test]
    fn error_batches_are_reported_not_lost() {
        let net = BnbNetwork::new(2);
        let engine = Engine::new(net, EngineConfig::with_workers(2));
        let good = records_for_permutation(&Permutation::try_from(vec![2, 0, 3, 1]).unwrap());
        let dup = vec![
            Record::new(1, 0),
            Record::new(1, 1),
            Record::new(2, 2),
            Record::new(3, 3),
        ];
        let (first, second, stats) = engine.run(|h| {
            h.submit(dup.clone());
            h.submit(good.clone());
            (h.drain().unwrap(), h.drain().unwrap(), h.stats())
        });
        let err = first.result.unwrap_err();
        assert_eq!(err.seq(), 0, "the failing batch's sequence number");
        assert!(matches!(
            err.route_error(),
            bnb_core::RouteError::DuplicateDestination { dest: 1, .. }
        ));
        assert!(second.result.is_ok());
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.records, 4); // only the good batch counts
    }

    /// A frame a one-frame batch cannot hold fails as validation names
    /// it: a destination above `u32::MAX` is never truncated into range,
    /// and a short frame is a width mismatch.
    #[test]
    fn unbatchable_frames_fail_validation_not_truncation() {
        let net = BnbNetwork::new(2);
        let engine = Engine::new(net, EngineConfig::with_workers(2));
        // 1 << 32 truncates to destination 0, which would complete the
        // permutation.
        let huge = vec![
            Record::new(3, 0),
            Record::new(1, 1),
            Record::new(2, 2),
            Record::new(1 << 32, 3),
        ];
        let short = vec![Record::new(0, 0), Record::new(1, 1)];
        let (huge_err, short_err) = engine.run(|h| {
            h.submit(huge.clone());
            h.submit(short.clone());
            let err = || h.drain().unwrap().result.unwrap_err();
            (err(), err())
        });
        let mut seen = Vec::new();
        for (err, seq, frame) in [(huge_err, 0, &huge), (short_err, 1, &short)] {
            let want = validate_lines(&net, frame, &mut seen).unwrap_err();
            assert_eq!(err, EngineError::batch(seq, want));
        }
        assert!(matches!(
            validate_lines(&net, &huge, &mut seen),
            Err(RouteError::DestinationTooWide { dest, n: 4 }) if dest == 1 << 32
        ));
    }

    #[test]
    fn backpressure_bounds_the_queue() {
        let net = BnbNetwork::new(4);
        let config = EngineConfig {
            workers: 2,
            queue_capacity: 3,
            ..EngineConfig::default()
        };
        let engine = Engine::new(net, config);
        let p = Permutation::random(16, &mut StdRng::seed_from_u64(5));
        let stats = engine.run(|h| {
            for _ in 0..50 {
                h.submit(records_for_permutation(&p));
            }
            while h.drain().is_some() {}
            h.stats()
        });
        assert_eq!(stats.batches, 50);
        assert!(
            stats.queue_high_water <= 3,
            "queue grew past its bound: {}",
            stats.queue_high_water
        );
        assert!(stats.queue_high_water >= 1);
    }

    #[test]
    fn permissive_garbage_traffic_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(6);
        let net = BnbNetwork::builder(5)
            .policy(RoutePolicy::Permissive)
            .build();
        let engine = Engine::new(net, EngineConfig::with_workers(4));
        let batches: Vec<Vec<Record>> = (0..6)
            .map(|_| {
                (0..32)
                    .map(|i| Record::new(rng.random_range(0..32), i as u64))
                    .collect()
            })
            .collect();
        let expected: Vec<_> = batches.iter().map(|b| net.route(b).unwrap()).collect();
        let routed = engine.run(|h| {
            for b in &batches {
                h.submit(b.clone());
            }
            (0..batches.len())
                .map(|_| h.drain().unwrap())
                .collect::<Vec<_>>()
        });
        for (batch, want) in routed.iter().zip(&expected) {
            assert_eq!(batch.result.as_ref().unwrap(), want);
        }
    }

    #[test]
    fn stats_are_sane_after_a_run() {
        let net = BnbNetwork::new(5);
        let engine = Engine::new(net, EngineConfig::with_workers(3));
        let p = Permutation::random(32, &mut StdRng::seed_from_u64(7));
        let stats = engine.run(|h| {
            for _ in 0..10 {
                h.submit(records_for_permutation(&p));
            }
            while h.drain().is_some() {}
            h.stats()
        });
        assert_eq!(stats.workers, 3);
        assert_eq!(stats.batches, 10);
        assert_eq!(stats.records, 320);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.histogram.count(), 10);
        assert!(stats.batches_per_sec > 0.0);
        assert!(stats.records_per_sec > 0.0);
        assert!(stats.latency.min_ns <= stats.latency.p50_ns);
        assert!(stats.latency.p50_ns <= stats.latency.p99_ns);
        assert!(stats.latency.p99_ns <= stats.latency.max_ns);
        assert_eq!(stats.worker_metrics.len(), 3);
        for (i, w) in stats.worker_metrics.iter().enumerate() {
            assert_eq!(w.worker, i);
            assert!((0.0..=1.0).contains(&w.utilization));
        }
        let owned: u64 = stats.worker_metrics.iter().map(|w| w.jobs_owned).sum();
        assert_eq!(owned, 10, "every batch has exactly one owner");
    }

    /// An attached `Counters` observer sees one submit/drain pair and one
    /// latency sample per batch.
    #[test]
    fn observer_sees_engine_events() {
        let counters = Counters::new();
        let net = BnbNetwork::new(4);
        let engine = Engine::with_observer(net, EngineConfig::with_workers(4), &counters);
        let p = Permutation::random(16, &mut StdRng::seed_from_u64(11));
        engine.run(|h| {
            for _ in 0..5 {
                h.submit(records_for_permutation(&p));
            }
            while h.drain().is_some() {}
        });
        let snap = counters.snapshot();
        assert_eq!(snap.batches_submitted, 5);
        assert_eq!(snap.batches_drained, 5);
        assert_eq!(snap.batch_errors, 0);
        assert_eq!(snap.histogram.count(), 5, "one latency sample per batch");
    }

    /// A `FlightRecorder` attached to the engine captures every batch's
    /// submit and drain as spans carrying the batch seq as trace id, with
    /// worker activity spread across per-thread recorder lanes.
    #[test]
    fn flight_recorder_shards_merge_at_drain() {
        use bnb_obs::{FlightRecorder, SpanKind};
        let recorder = FlightRecorder::with_capacity(4096);
        let net = BnbNetwork::new(4);
        let engine = Engine::with_observer(net, EngineConfig::with_workers(4), &recorder);
        let p = Permutation::random(16, &mut StdRng::seed_from_u64(22));
        engine.run(|h| {
            for _ in 0..5 {
                h.submit(records_for_permutation(&p));
            }
            while h.drain().is_some() {}
        });
        let spans = recorder.spans();
        assert_eq!(recorder.dropped(), 0, "capacity covers the whole run");
        let mut submit_seqs: Vec<u64> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Submit)
            .map(|s| s.seq)
            .collect();
        submit_seqs.sort_unstable();
        assert_eq!(submit_seqs, vec![0, 1, 2, 3, 4]);
        let drains: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::Drain).collect();
        assert_eq!(drains.len(), 5, "one drain span per batch");
        assert!(drains.iter().all(|s| s.ok));
        // Submissions come from the driver thread; routing spans from
        // worker threads — at least two distinct lanes in the merge.
        let mut lanes: Vec<u32> = spans.iter().map(|s| s.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        assert!(lanes.len() >= 2, "expected multiple recorder lanes");
    }

    /// Through `run_faulted`, the retry and the eventual drain of a batch
    /// carry the same trace id (`seq`), so a recorder ties the whole
    /// retry chain together.
    #[test]
    fn flight_recorder_threads_trace_ids_through_retries() {
        use bnb_obs::{FlightRecorder, SpanKind};
        let recorder = FlightRecorder::with_capacity(4096);
        let net = BnbNetwork::new(3);
        let map = stuck_map();
        let (bad, _) = fault_sensitive_perms(net, &map, 43);
        let engine = Engine::with_observer(net, EngineConfig::with_workers(1), &recorder);
        let plan = FaultPlan::new(
            vec![map, FaultMap::new()],
            RetryPolicy {
                max_attempts: 2,
                backoff: Duration::ZERO,
            },
        );
        let routed = engine.run_faulted(&plan, |h| {
            h.submit(bad.clone());
            h.drain().unwrap()
        });
        assert!(routed.result.is_ok());
        let spans = recorder.spans();
        let retry = spans
            .iter()
            .find(|s| s.kind == SpanKind::Retry)
            .expect("the faulted first attempt must record a retry span");
        let fault = spans
            .iter()
            .find(|s| s.kind == SpanKind::Fault)
            .expect("the detection must record a fault span");
        let drain = spans
            .iter()
            .find(|s| s.kind == SpanKind::Drain)
            .expect("the batch must drain");
        assert_eq!(retry.seq, drain.seq, "one trace id across the chain");
        assert!(drain.ok, "the retry landed on the healthy shard");
        assert!(!retry.ok);
        assert!(!fault.ok);
    }

    /// The observed column count is the closed form `m(m+1)/2` per batch
    /// — the engine adds no extra span routing.
    #[test]
    fn observer_column_counts_match_closed_form() {
        let counters = Counters::new();
        let m = 4;
        let n = 1usize << m;
        let net = BnbNetwork::new(m);
        let engine = Engine::with_observer(net, EngineConfig::with_workers(1), &counters);
        let p = Permutation::random(n, &mut StdRng::seed_from_u64(12));
        engine.run(|h| {
            for _ in 0..3 {
                h.submit(records_for_permutation(&p));
            }
            while h.drain().is_some() {}
        });
        let snap = counters.snapshot();
        assert_eq!(snap.columns, 3 * (m as u64 * (m as u64 + 1) / 2));
        let sweeps_per_route = (n * m - n + 1) as u64;
        assert_eq!(snap.arbiter_sweeps, 3 * sweeps_per_route);
    }

    /// Finds a permutation the given fault corrupts (strict route returns
    /// `HardwareFault`) and one it leaves alone, by scanning seeded
    /// random permutations on a sequential `FaultyFabric`.
    fn fault_sensitive_perms(
        net: BnbNetwork,
        faults: &FaultMap,
        seed: u64,
    ) -> (Vec<Record>, Vec<Record>) {
        use bnb_core::fault::FaultyFabric;
        let n = net.inputs();
        let mut fabric = FaultyFabric::new(net, faults.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bad = None;
        let mut good = None;
        for _ in 0..200 {
            let lines = records_for_permutation(&Permutation::random(n, &mut rng));
            match fabric.route(&lines) {
                Ok(_) if good.is_none() => good = Some(lines),
                Err(bnb_core::RouteError::HardwareFault { .. }) if bad.is_none() => {
                    bad = Some(lines)
                }
                _ => {}
            }
            if bad.is_some() && good.is_some() {
                break;
            }
        }
        (
            bad.expect("no permutation triggered the fault"),
            good.expect("every permutation triggered the fault"),
        )
    }

    fn stuck_map() -> FaultMap {
        use bnb_core::fault::{FaultKind, FaultSite};
        FaultMap::single(FaultSite::new(0, 0, 0), FaultKind::StuckExchange)
    }

    /// A healthy plan is exactly `run`: byte-identical results.
    #[test]
    fn healthy_plan_matches_run() {
        let net = BnbNetwork::new(3);
        let engine = Engine::new(net, EngineConfig::with_workers(2));
        let p = Permutation::try_from(vec![7, 6, 5, 4, 3, 2, 1, 0]).unwrap();
        let expected = net.route(&records_for_permutation(&p)).unwrap();
        let plan = FaultPlan::healthy(2);
        let routed = engine.run_faulted(&plan, |h| {
            h.submit(records_for_permutation(&p));
            h.drain().unwrap()
        });
        assert_eq!(routed.result.unwrap(), expected);
    }

    /// With every shard faulted identically, a fault-triggering batch
    /// exhausts its budget and drains as `Quarantined`, fault site in the
    /// cause chain; untouched batches still route correctly.
    #[test]
    fn uniform_faults_quarantine_after_retries() {
        use std::error::Error as _;
        let net = BnbNetwork::new(3);
        let map = stuck_map();
        let (bad, good) = fault_sensitive_perms(net, &map, 40);
        let expected_good = net.route(&good).unwrap();
        let engine = Engine::new(net, EngineConfig::with_workers(2));
        let plan = FaultPlan::uniform(map, 2).with_retry(RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_micros(1),
        });
        let (first, second) = engine.run_faulted(&plan, |h| {
            h.submit(bad.clone());
            h.submit(good.clone());
            (h.drain().unwrap(), h.drain().unwrap())
        });
        let err = first.result.unwrap_err();
        assert_eq!(err.seq(), 0);
        assert!(matches!(err, EngineError::Quarantined { attempts: 3, .. }));
        assert!(matches!(
            err.route_error(),
            RouteError::HardwareFault { main_stage: 0, .. }
        ));
        let cause = err.source().expect("quarantine carries the fault");
        assert!(cause.to_string().contains("hardware fault"));
        assert_eq!(second.result.unwrap(), expected_good);
    }

    /// One worker, shard 0 faulted and shard 1 healthy: the first attempt
    /// fails, the retry lands on the healthy shard, and the batch drains
    /// successfully — with the retry visible to the observer.
    #[test]
    fn retry_moves_batches_onto_healthy_shards() {
        use bnb_obs::Counters;
        let counters = Counters::new();
        let net = BnbNetwork::new(3);
        let map = stuck_map();
        let (bad, _) = fault_sensitive_perms(net, &map, 41);
        let expected = net.route(&bad).unwrap();
        let engine = Engine::with_observer(net, EngineConfig::with_workers(1), &counters);
        let plan = FaultPlan::new(
            vec![map, FaultMap::new()],
            RetryPolicy {
                max_attempts: 2,
                backoff: Duration::ZERO,
            },
        );
        let routed = engine.run_faulted(&plan, |h| {
            h.submit(bad.clone());
            h.drain().unwrap()
        });
        assert_eq!(routed.result.unwrap(), expected);
        let snap = counters.snapshot();
        assert_eq!(snap.fault_retries, 1, "exactly one retry");
        assert_eq!(snap.hardware_faults, 1, "the first attempt's detection");
        assert_eq!(snap.batch_errors, 0, "the batch ultimately succeeded");
    }

    /// Non-hardware errors are terminal on the first attempt: retrying
    /// cannot fix bad traffic, and the error stays a plain `Batch`.
    #[test]
    fn traffic_errors_are_not_retried() {
        use bnb_obs::Counters;
        let counters = Counters::new();
        let net = BnbNetwork::new(2);
        let engine = Engine::with_observer(net, EngineConfig::with_workers(1), &counters);
        let plan = FaultPlan::uniform(stuck_map(), 2);
        let dup = vec![
            Record::new(1, 0),
            Record::new(1, 1),
            Record::new(2, 2),
            Record::new(3, 3),
        ];
        let routed = engine.run_faulted(&plan, |h| {
            h.submit(dup);
            h.drain().unwrap()
        });
        let err = routed.result.unwrap_err();
        assert!(matches!(err, EngineError::Batch { .. }));
        assert!(matches!(
            err.route_error(),
            RouteError::DuplicateDestination { dest: 1, .. }
        ));
        assert_eq!(counters.snapshot().fault_retries, 0);
    }

    /// A healthy live plan routes byte-identically to `run`.
    #[test]
    fn scrubbed_healthy_plan_matches_run() {
        let net = BnbNetwork::new(3);
        let engine = Engine::new(net, EngineConfig::with_workers(2));
        let p = Permutation::try_from(vec![7, 6, 5, 4, 3, 2, 1, 0]).unwrap();
        let expected = net.route(&records_for_permutation(&p)).unwrap();
        let plan = LiveFaultPlan::healthy(2);
        let routed = engine.run_scrubbed(&plan, |h| {
            h.submit(records_for_permutation(&p));
            h.drain().unwrap()
        });
        assert_eq!(routed.result.unwrap(), expected);
    }

    /// The full live-repair loop: traffic hits an injected fault, the
    /// shard is demoted and remapped around (retry lands on the healthy
    /// shard — the batch still drains correctly), the scrubber
    /// quarantines it, and after the fault clears the scrubber restores
    /// full capacity — all while submit/drain keeps moving.
    #[test]
    fn scrubbed_engine_remaps_quarantines_and_restores() {
        use bnb_obs::Counters;
        let counters = Counters::new();
        let net = BnbNetwork::new(3);
        let map = stuck_map();
        let (bad, _) = fault_sensitive_perms(net, &map, 47);
        let expected = net.route(&bad).unwrap();
        let engine = Engine::with_observer(net, EngineConfig::with_workers(1), &counters);
        let plan = LiveFaultPlan::healthy(2)
            .with_probe_seed(3)
            .with_restore_after(2)
            .with_scrub_interval(Duration::ZERO)
            .with_retry(RetryPolicy {
                max_attempts: 4,
                backoff: Duration::ZERO,
            });
        plan.set_faults(0, map);
        engine.run_scrubbed(&plan, |h| {
            let deadline = Instant::now() + Duration::from_secs(20);
            // Phase 1: traffic over the faulted shard 0. The fault-
            // sensitive frame must still drain correctly (remapped onto
            // shard 1) and shard 0 must leave service.
            while plan.health(0) == ShardHealth::Healthy {
                assert!(Instant::now() < deadline, "shard 0 never left service");
                h.submit(bad.clone());
                let routed = h.drain().unwrap();
                assert_eq!(
                    routed.result.as_ref().unwrap(),
                    &expected,
                    "no silent misdelivery through the faulted shard"
                );
            }
            while plan.health(0) != ShardHealth::Quarantined {
                assert!(Instant::now() < deadline, "scrubber never confirmed");
                // Keep traffic flowing while the scrubber works; a probe
                // round the fault doesn't excite may restore early —
                // traffic re-demotes it.
                h.submit(bad.clone());
                assert!(h.drain().unwrap().result.is_ok());
            }
            assert!(plan.is_degraded());
            // Phase 2: the transient clears; capacity must come back
            // while traffic continues.
            plan.clear(0);
            while plan.health(0) != ShardHealth::Healthy {
                assert!(Instant::now() < deadline, "capacity never restored");
                h.submit(bad.clone());
                assert!(h.drain().unwrap().result.is_ok());
            }
            assert_eq!(plan.healthy_shards(), 2, "full capacity restored");
        });
        let snap = counters.snapshot();
        assert!(snap.hardware_faults >= 1, "traffic detected the fault");
        assert!(snap.fault_retries >= 1, "the remap retried");
        assert!(snap.scrub_probes >= 1);
        assert!(snap.shards_quarantined >= 1);
        assert!(snap.shards_restored >= 1);
        assert_eq!(snap.batch_errors, 0, "every batch ultimately delivered");
    }

    /// With every shard faulted identically, a scrubbed run quarantines
    /// the batch exactly like `run_faulted` — the fallback keeps trying
    /// but the budget is finite.
    #[test]
    fn scrubbed_uniform_faults_still_quarantine_batches() {
        let net = BnbNetwork::new(3);
        let map = stuck_map();
        let (bad, _) = fault_sensitive_perms(net, &map, 48);
        let engine = Engine::new(net, EngineConfig::with_workers(1));
        let plan = LiveFaultPlan::healthy(2)
            .with_scrub_interval(Duration::ZERO)
            .with_retry(RetryPolicy {
                max_attempts: 3,
                backoff: Duration::ZERO,
            });
        plan.set_faults(0, map.clone());
        plan.set_faults(1, map);
        let routed = engine.run_scrubbed(&plan, |h| {
            h.submit(bad.clone());
            h.drain().unwrap()
        });
        let err = routed.result.unwrap_err();
        assert!(matches!(err, EngineError::Quarantined { attempts: 3, .. }));
    }

    /// Routing on the caller's thread rotates the landing shard with
    /// every batch, so a caller that always passes one lane still meets
    /// a fault on any shard. Landing every batch at the lane's own shard
    /// would route both frames on healthy shard 1 and never trip shard
    /// 0's fault.
    #[test]
    fn inline_batches_rotate_their_landing_shard() {
        use bnb_core::fault::{FaultKind, FaultSite, FaultyFabric};
        let net = BnbNetwork::new(4);
        // A first-splitter dead arbiter trips almost every permutation.
        let dead = FaultMap::single(FaultSite::new(0, 0, 0), FaultKind::DeadArbiter);
        let bad = records_for_permutation(&Permutation::random(16, &mut StdRng::seed_from_u64(52)));
        assert!(
            FaultyFabric::new(net, dead.clone()).route(&bad).is_err(),
            "test premise: the frame trips the fault"
        );
        let expected = net.route(&bad).unwrap();
        let engine = Engine::new(net, EngineConfig::with_workers(1));
        let plan = LiveFaultPlan::healthy(2).with_retry(RetryPolicy {
            max_attempts: 3,
            backoff: Duration::ZERO,
        });
        plan.set_faults(0, dead);
        engine.run_scrubbed(&plan, |h| {
            let mut scratch = RouteScratch::with_capacity(net.inputs());
            for _ in 0..2 {
                let mut batch = FrameBatch::new(net.inputs());
                batch.push_frame(&bad);
                let results = h.route_batch(1, &mut batch, &mut scratch);
                assert!(results[0].is_ok(), "{results:?}");
                assert_eq!(batch.to_frames()[0], expected);
            }
        });
        assert_ne!(
            plan.health(0),
            ShardHealth::Healthy,
            "no batch landed on the faulted shard 0"
        );
    }

    #[test]
    fn try_submit_rejects_on_full_queue_and_returns_the_batch() {
        let net = BnbNetwork::new(3);
        let engine = Engine::new(
            net,
            EngineConfig {
                workers: 1,
                queue_capacity: 1,
                ..EngineConfig::default()
            },
        );
        let p = Permutation::try_from(vec![7, 6, 5, 4, 3, 2, 1, 0]).unwrap();
        engine.run(|h| {
            // Saturate: keep try_submitting until the bounded queue
            // pushes back (the single worker may drain a couple first).
            let mut accepted = 0u64;
            let rejected = loop {
                match h.try_submit(records_for_permutation(&p)) {
                    Ok(_) => accepted += 1,
                    Err(e) => break e,
                }
            };
            assert!(matches!(rejected, SubmitError::Full(_)));
            assert!(!rejected.is_closed());
            assert_eq!(
                rejected.into_lines(),
                records_for_permutation(&p),
                "the rejected batch rides back unrouted"
            );
            let mut drained = 0u64;
            while h.drain().is_some() {
                drained += 1;
            }
            assert_eq!(drained, accepted, "accepted batches all drain");
        });
    }

    #[test]
    fn drain_and_close_delivers_every_inflight_batch_once() {
        let net = BnbNetwork::new(4);
        let engine = Engine::new(net, EngineConfig::with_workers(2));
        let p = Permutation::random(16, &mut StdRng::seed_from_u64(31));
        engine.run(|h| {
            let mut seqs = Vec::new();
            for _ in 0..6 {
                seqs.push(h.submit(records_for_permutation(&p)));
            }
            // Drain a prefix interactively, then close over the rest.
            let head = h.drain().unwrap();
            assert_eq!(head.seq, seqs[0]);
            let tail = h.drain_and_close();
            let tail_seqs: Vec<u64> = tail.iter().map(|b| b.seq).collect();
            assert_eq!(tail_seqs, seqs[1..], "tail drains in order, exactly once");
            assert!(tail.iter().all(|b| b.result.is_ok()));
            // Closed for good: rejections are typed, nothing enqueues.
            let refused = h.try_submit(records_for_permutation(&p)).unwrap_err();
            assert!(refused.is_closed());
            assert!(h.drain().is_none(), "nothing left after the close");
            assert_eq!(h.stats().batches, 6);
        });
    }

    #[test]
    fn try_drain_is_nonblocking_and_ordered() {
        let net = BnbNetwork::new(3);
        let engine = Engine::new(net, EngineConfig::with_workers(2));
        let p = Permutation::try_from(vec![7, 6, 5, 4, 3, 2, 1, 0]).unwrap();
        engine.run(|h| {
            assert!(h.try_drain().is_none(), "nothing submitted yet");
            let a = h.submit(records_for_permutation(&p));
            let b = h.submit(records_for_permutation(&p));
            let first = h.drain().unwrap();
            assert_eq!(first.seq, a);
            // Blocking drain for the second too, then the queue is empty.
            let second = h.drain().unwrap();
            assert_eq!(second.seq, b);
            assert!(h.try_drain().is_none());
            assert!(h.drain().is_none());
        });
    }

    /// A worker that panics mid-job fails the run instead of hanging it:
    /// the blocked `submit` or `drain` panics, the scope joins, and the
    /// panic reaches the caller. The run happens on its own thread, so a
    /// hang fails the test at the timeout instead of stalling the suite.
    #[test]
    fn worker_panic_propagates_instead_of_hanging() {
        use bnb_obs::StageTotalsEvent;
        use std::sync::mpsc;
        use std::time::Duration;

        struct Exploding;
        impl Observer for Exploding {
            fn wants_columns(&self) -> bool {
                false
            }
            fn stage_routed(&self, _event: StageTotalsEvent) {
                panic!("observer exploded mid-route");
            }
        }

        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let config = EngineConfig {
                workers: 1,
                queue_capacity: 1,
                ..EngineConfig::default()
            };
            let engine = Engine::with_observer(BnbNetwork::new(3), config, Exploding);
            let frame = records_for_permutation(&Permutation::identity(8));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.run(|h| {
                    for _ in 0..3 {
                        h.submit(frame.clone());
                    }
                    h.drain()
                })
            }));
            let message = outcome.err().map(|payload| {
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default()
            });
            let _ = tx.send(message);
        });
        let message = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the run hung after its worker panicked");
        let message = message.expect("the worker's panic reached the caller");
        assert!(message.contains("worker panicked"), "{message}");
    }
}
