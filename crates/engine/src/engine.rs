//! The concurrent batched routing engine.
//!
//! # One batch routine
//!
//! [`Fabric::route_batch`] routes a [`FrameBatch`] on the calling thread:
//! it validates each frame (same contract as
//! [`bnb_core::router::Router`]) and routes the batch through `bnb-core`'s
//! word-parallel kernel ([`bnb_core::batch::route_batch`]), so a caller's
//! throughput is that kernel's, not the scalar sweep's. Every job a pool
//! worker owns goes through it: a [`FrameBatch`] job routes as it is, and
//! a single frame becomes a one-frame batch in the worker's reusable
//! scratch and is read back into its submitted `Vec`. The serving layer's
//! reactors call it directly, with no engine around it. Parallelism comes
//! from workers owning different jobs: a frame is never split across
//! workers.
//!
//! Because BNB routing is oblivious data movement (every switch setting
//! depends only on local destination bits), frames never interact and the
//! batched result is byte-identical to routing each frame alone through
//! the scalar sweep; debug builds assert this on every fault-free batch.
//!
//! # Observability
//!
//! The engine is generic over a [`bnb_obs::Observer`] (defaulting to the
//! zero-cost [`NoopObserver`]). An attached observer sees job
//! submissions and completions ([`SubmitEvent`]/[`DrainEvent`], the
//! latter with the same latency sample the engine's own histogram
//! records), retries ([`RetryEvent`]), and — through
//! [`bnb_core::stages::RouteSpan`] — every routed column and arbiter
//! sweep, or one stage-totals event per main stage for a sink that
//! declines per-column events. Attach with
//! [`Engine::with_observer`]; the noop path compiles to the same code as
//! before the hooks existed. A [`Fabric`] used on its own reports only
//! routing and retry events: its batches are not jobs.
//!
//! # Batched submission
//!
//! [`EngineHandle::submit_batch`] feeds a whole
//! [`bnb_core::batch::FrameBatch`] to one worker, which routes every
//! frame in a single batched-kernel invocation and publishes one
//! in-order result per frame. This keeps every SWAR word of the routing
//! kernel fully occupied regardless of network size, where per-frame
//! submission leaves `64 - 2^m` of 64 lanes idle for small networks.
//! [`EngineHandle::try_submit_batch`] is the one non-blocking submit,
//! and the one place a caller attaches completion tokens. The queue
//! closes when the run closure returns: drain until `None` before then
//! to collect every frame.
//!
//! # One worker path, with or without faults
//!
//! [`Engine::run`] and [`Engine::run_faulted`] share one scope and one
//! worker loop, and [`Engine::run_scrubbed`] is [`Engine::run_faulted`]
//! inside [`LiveFaultPlan::scrub_while`]. Without a fault plan
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

use std::sync::atomic::{AtomicU64, Ordering};
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
use crate::live::LiveFaultPlan;
use crate::stats::{EngineStats, LatencySummary, WorkerMetrics};

pub use crate::hub::{BatchSubmitError, RoutedBatch};

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
    /// [`Fabric::route_batch`].
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

    /// Spawns the worker pool, runs `f` with a submit/drain handle, then
    /// closes the queue, lets the workers finish what remains, and joins
    /// every worker.
    pub fn run<R>(&self, f: impl FnOnce(&EngineHandle<'_, O>) -> R) -> R {
        self.run_with(None, f)
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
    /// Shard choice is health steering:
    ///
    /// - A job, a single frame or a [`FrameBatch`], lands on the first
    ///   healthy shard counting from its worker's index plus the jobs
    ///   that worker routed before it, and a retry on the first healthy
    ///   shard after that. A shard that trips is marked
    ///   [`Suspect`](crate::ShardHealth::Suspect) and skipped until a
    ///   scrubber restores it ([`Engine::run_scrubbed`]); with none, for
    ///   as long as the plan lives. With no healthy shard left, attempts
    ///   fall back to plain round-robin.
    /// - A job whose shard is fault-free routes exactly as under
    ///   [`Engine::run`]. On a faulted shard the job stays one batched
    ///   call: only its tripping frames are retried, each under its own
    ///   sequence number and completion token.
    ///
    /// The plan's fault maps may change while the engine routes (a chaos
    /// driver injecting and clearing faults): each job routes on a
    /// point-in-time copy of its landing shard's map.
    pub fn run_faulted<R>(
        &self,
        plan: &LiveFaultPlan,
        f: impl FnOnce(&EngineHandle<'_, O>) -> R,
    ) -> R {
        self.run_with(Some(plan), f)
    }

    /// [`Engine::run_faulted`] with *live* repair: the same run inside
    /// [`LiveFaultPlan::scrub_while`], whose scrubber thread probes
    /// suspect shards beside the workers — quarantining confirmed faults
    /// and restoring capacity when transients clear — without ever
    /// pausing submit/drain. The scrubber stops once the pool has joined,
    /// also on a panic.
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
    /// [`EngineError::Quarantined`]; delivered frames are always correct —
    /// the balance check makes misdelivery detectable, so a fault either
    /// surfaces as an error or the frame routed cleanly (Theorem 3).
    ///
    /// [`ShardHealth::Suspect`]: crate::ShardHealth::Suspect
    pub fn run_scrubbed<R>(
        &self,
        plan: &LiveFaultPlan,
        f: impl FnOnce(&EngineHandle<'_, O>) -> R,
    ) -> R {
        plan.scrub_while(self.network, &self.observer, || self.run_faulted(plan, f))
    }

    /// The one scope behind every run mode: spawns the worker pool
    /// (steering by `plan` when there is one), runs `f`, closes the hub
    /// and joins the workers.
    fn run_with<R>(
        &self,
        plan: Option<&LiveFaultPlan>,
        f: impl FnOnce(&EngineHandle<'_, O>) -> R,
    ) -> R {
        let workers = self.config.workers.max(1);
        let hub = Hub::new(self.config.queue_capacity);
        let counters: Vec<WorkerCounters> =
            (0..workers).map(|_| WorkerCounters::default()).collect();
        let started = Instant::now();
        let fabric = Fabric::new(self.network, &self.observer, plan);
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
            let handle = EngineHandle {
                hub: &hub,
                observer: &self.observer,
                counters: &counters,
                workers,
                started,
            };
            // The hub closes even if `f` panics, so the workers drain and
            // exit and the scope joins.
            let _guard = CloseGuard(&hub);
            f(&handle)
        })
    }
}

/// Submit/drain interface handed to the [`Engine::run`] closure.
pub struct EngineHandle<'a, O: Observer = NoopObserver> {
    hub: &'a Hub,
    observer: &'a O,
    counters: &'a [WorkerCounters],
    workers: usize,
    started: Instant,
}

impl<O: Observer> EngineHandle<'_, O> {
    /// Emits the submit events of `frames` frames numbered from `seq`.
    fn submitted(&self, seq: u64, frames: u64, records: usize) {
        if self.observer.enabled() {
            for f in 0..frames {
                self.observer.batch_submitted(SubmitEvent {
                    seq: seq + f,
                    records,
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

    /// Non-blocking [`Self::submit_batch`] with per-frame completion
    /// tokens (`tokens[f]` rides back on frame `f`'s [`RoutedBatch`], so
    /// a caller can route completions without a side table; `0` means
    /// untagged): rejects instead of waiting when the bounded queue is
    /// full, handing the whole batch back inside the error. `tokens` must
    /// be empty or exactly `batch.frames()` long. A single frame goes as
    /// a one-frame batch.
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
    /// Panics if the batch is empty.
    pub fn submit_batch(&self, batch: FrameBatch) -> u64 {
        let frames = batch.frames() as u64;
        let records = batch.width();
        let seq = self.hub.submit_batch(batch);
        self.submitted(seq, frames, records);
        seq
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

/// Reusable routing state for [`Fabric::route_batch`], one per routing
/// thread (each pool worker keeps one). It grows on first use and then
/// stays put.
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

/// A network, the observer its routing reports to, and the fault plan
/// batches steer by (`None`: no fault state): what routing a batch needs,
/// and nothing else. [`Fabric::route_batch`] is the one batch routine,
/// shared by every thread that routes: an [`Engine`]'s pool workers and
/// the serving layer's reactors.
///
/// # Example
///
/// ```
/// use bnb_core::batch::FrameBatch;
/// use bnb_core::network::BnbNetwork;
/// use bnb_engine::{Fabric, RouteScratch};
/// use bnb_obs::Counters;
/// use bnb_topology::perm::Permutation;
/// use bnb_topology::record::records_for_permutation;
///
/// let net = BnbNetwork::builder_for(16)?.build();
/// let counters = Counters::new();
/// let fabric = Fabric::new(net, &counters, None);
/// let perm = Permutation::try_from((0..16).rev().collect::<Vec<_>>())?;
/// let frame = records_for_permutation(&perm);
/// let mut batch = FrameBatch::new(16);
/// batch.push_frame(&frame);
/// let mut scratch = RouteScratch::with_capacity(16);
/// let results = fabric.route_batch(&mut scratch, 0, 0, &mut batch);
/// assert!(results[0].is_ok());
/// assert_eq!(batch.to_frames()[0], net.route(&frame)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Fabric<'a, O: Observer = NoopObserver> {
    net: BnbNetwork,
    observer: &'a O,
    plan: Option<&'a LiveFaultPlan>,
}

impl<'a, O: Observer> Fabric<'a, O> {
    /// A fabric routing on `net`, reporting to `observer` (`&Counters`,
    /// say), and steering by `plan` when there is one.
    pub fn new(net: BnbNetwork, observer: &'a O, plan: Option<&'a LiveFaultPlan>) -> Self {
        Fabric {
            net,
            observer,
            plan,
        }
    }

    /// Routes every frame of `batch` in place on the calling thread and
    /// returns one result per frame; a failed frame keeps its submitted
    /// contents. All frames go through one [`route_batch`] call on the
    /// landing shard's fault map, and a frame that trips a hardware fault
    /// is settled alone: retried on another shard, with its backoff slept
    /// on this thread, until it lands or its budget runs out.
    ///
    /// Under a plan the landing rotates with every batch routed with
    /// `scratch`, starting from shard `lane`. `seq` is the trace id of
    /// frame 0 (frame `f` is `seq + f`): it numbers the frames' retry
    /// events and errors. Unobserved or with `&Counters`, steady state
    /// allocates nothing, with or without a healthy plan.
    pub fn route_batch<'s>(
        &self,
        scratch: &'s mut RouteScratch,
        lane: usize,
        seq: u64,
        batch: &mut FrameBatch,
    ) -> &'s [Result<(), EngineError>] {
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
        &scratch.results
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
    /// [`DrainEvent`]. The event carries the submit-to-publish latency the
    /// hub recorded, so the engine's histogram and the observer's hold
    /// the same sample.
    fn finish(&self, seq: u64, submitted_at: Instant, result: Result<Vec<Record>, EngineError>) {
        let ok = result.is_ok();
        let records = result.as_ref().map_or(0, Vec::len);
        let latency_ns = self.hub.finish(seq, submitted_at, result);
        let observer = self.fabric.observer;
        if observer.enabled() {
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
            // One plain single, then a 4-frame batch with distinct
            // per-frame tokens.
            h.submit(records_for_permutation(&perms[0]));
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
        let want_tokens = [0u64, 0x10, 0x20, 0x30, 0x40];
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

    /// The engine's latency histogram and an attached `Counters`' hold
    /// the same sample for each drained frame: one clock reading, two
    /// sinks.
    #[test]
    fn engine_and_observer_latency_histograms_agree() {
        let counters = Counters::new();
        let net = BnbNetwork::new(4);
        let engine = Engine::with_observer(net, EngineConfig::with_workers(2), &counters);
        let mut rng = StdRng::seed_from_u64(13);
        let stats = engine.run(|h| {
            for _ in 0..32 {
                h.submit(records_for_permutation(&Permutation::random(16, &mut rng)));
            }
            while h.drain().is_some() {}
            h.stats()
        });
        // Read after the pool joined: a worker emits its drain event
        // after publishing the frame.
        let observed = counters.snapshot().histogram;
        assert_eq!(stats.histogram.count(), 32);
        assert_eq!(stats.histogram, observed);
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
        let plan = plan_of(
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

    /// A plan whose shard `i` routes through `maps[i]`.
    fn plan_of(maps: Vec<FaultMap>, retry: RetryPolicy) -> LiveFaultPlan {
        let plan = LiveFaultPlan::healthy(maps.len()).with_retry(retry);
        for (i, map) in maps.into_iter().enumerate() {
            plan.set_faults(i, map);
        }
        plan
    }

    /// A healthy plan is exactly `run`: byte-identical results.
    #[test]
    fn healthy_plan_matches_run() {
        let net = BnbNetwork::new(3);
        let engine = Engine::new(net, EngineConfig::with_workers(2));
        let p = Permutation::try_from(vec![7, 6, 5, 4, 3, 2, 1, 0]).unwrap();
        let expected = net.route(&records_for_permutation(&p)).unwrap();
        let plan = LiveFaultPlan::healthy(2);
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
        let plan = plan_of(
            vec![map.clone(), map],
            RetryPolicy {
                max_attempts: 3,
                backoff: Duration::from_micros(1),
            },
        );
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
        let plan = plan_of(
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
        let plan = plan_of(vec![stuck_map(), stuck_map()], RetryPolicy::default());
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

    /// A fabric rotates the landing shard with every batch, so a caller
    /// that always passes one lane still meets a fault on any shard.
    /// Landing every batch at the lane's own shard would route both
    /// frames on healthy shard 1 and never trip shard 0's fault.
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
        let plan = LiveFaultPlan::healthy(2).with_retry(RetryPolicy {
            max_attempts: 3,
            backoff: Duration::ZERO,
        });
        plan.set_faults(0, dead);
        let fabric = Fabric::new(net, &NoopObserver, Some(&plan));
        let mut scratch = RouteScratch::with_capacity(net.inputs());
        for _ in 0..2 {
            let mut batch = FrameBatch::new(net.inputs());
            batch.push_frame(&bad);
            let results = fabric.route_batch(&mut scratch, 1, 0, &mut batch);
            assert!(results[0].is_ok(), "{results:?}");
            assert_eq!(batch.to_frames()[0], expected);
        }
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
        let mut one = FrameBatch::new(8);
        one.push_frame(&records_for_permutation(&p));
        engine.run(|h| {
            // Saturate: keep offering one-frame batches until the bounded
            // queue pushes back (the single worker may drain a couple
            // first).
            let mut accepted = 0u64;
            let rejected = loop {
                match h.try_submit_batch(one.clone(), &[]) {
                    Ok(_) => accepted += 1,
                    Err(e) => break e,
                }
            };
            assert!(matches!(rejected, BatchSubmitError::Full(_)));
            assert_eq!(
                rejected.into_batch(),
                one,
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
