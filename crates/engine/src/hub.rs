//! The engine's shared work hub: a bounded job queue and the in-order
//! completion buffer.
//!
//! A job is one submitted frame or a whole [`FrameBatch`]. The queue is
//! bounded, so [`Hub::submit`] blocks when full (backpressure). A worker
//! that pops a job becomes its *owner*, routes it whole and publishes one
//! result per frame, so the number of in-flight jobs is bounded by
//! `workers + queue capacity`.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use bnb_core::batch::FrameBatch;
use bnb_topology::record::Record;

use crate::error::EngineError;
use crate::stats::LatencyHistogram;

/// What a submitted job carries: one frame, or a whole [`FrameBatch`]
/// with one frame result per reserved sequence number. Its owning worker
/// routes either through the batched kernel, a frame as a one-frame
/// batch.
pub(crate) enum JobPayload {
    Frame(Vec<Record>),
    Batch(FrameBatch),
}

/// A submitted batch awaiting an owner. `seq` is the job's first sequence
/// number; a [`JobPayload::Batch`] of `B` frames owns `seq .. seq + B`.
pub(crate) struct Job {
    pub seq: u64,
    pub payload: JobPayload,
    pub submitted_at: Instant,
}

/// One routed batch, as returned by [`crate::engine::EngineHandle::drain`].
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedBatch {
    /// Submission sequence number (as returned by `submit`).
    pub seq: u64,
    /// The routed lines, or the validation/routing failure for this batch
    /// (walk [`std::error::Error::source`] for the underlying
    /// [`RouteError`](bnb_core::error::RouteError)).
    pub result: Result<Vec<Record>, EngineError>,
    /// Nanoseconds the batch sat in the bounded submission queue before a
    /// worker picked it up.
    pub queue_ns: u64,
    /// Nanoseconds from worker pickup to result publication (routing
    /// proper). `queue_ns + route_ns` is the submit-to-publish latency
    /// recorded in the engine histogram.
    pub route_ns: u64,
    /// Opaque caller token attached at submission (see
    /// [`EngineHandle::try_submit_batch`]), for a caller that routes
    /// completions by it; other submissions carry `0`.
    ///
    /// [`EngineHandle::try_submit_batch`]: crate::engine::EngineHandle::try_submit_batch
    pub token: u64,
}

/// Queue-wait bookkeeping for one in-flight job, keyed by the job's first
/// sequence number; a batch job of `frames` frames finishes `frames`
/// times against the same entry.
struct JobMeta {
    frames: u64,
    queue_ns: u64,
    remaining: u64,
}

/// Why
/// [`EngineHandle::try_submit_batch`](crate::engine::EngineHandle::try_submit_batch)
/// refused a whole [`FrameBatch`]. The rejected batch rides back inside
/// the variant, so callers keep the SoA allocation for a later re-offer
/// or per-frame RETRY fan-out.
#[derive(Debug)]
pub enum BatchSubmitError {
    /// The bounded queue is full right now; re-offer later.
    Full(FrameBatch),
}

impl BatchSubmitError {
    /// The rejected batch, returned to the caller unrouted.
    pub fn into_batch(self) -> FrameBatch {
        match self {
            BatchSubmitError::Full(batch) => batch,
        }
    }
}

impl std::fmt::Display for BatchSubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchSubmitError::Full(batch) => write!(
                f,
                "submission queue full ({} frames rejected)",
                batch.frames()
            ),
        }
    }
}

impl std::error::Error for BatchSubmitError {}

/// Hands the locked state back to a caller about to wait for a worker,
/// or, once a worker has panicked ([`Hub::fail`]), releases the lock and
/// panics: the jobs that worker owned will never complete. Releasing
/// first keeps the lock unpoisoned for the guards that close the hub.
fn unless_failed(st: MutexGuard<'_, HubState>) -> MutexGuard<'_, HubState> {
    if st.failed {
        drop(st);
        panic!("an engine worker panicked; its jobs will never complete");
    }
    st
}

/// Everything guarded by the hub mutex.
pub(crate) struct HubState {
    pub jobs: VecDeque<Job>,
    completed: BTreeMap<u64, RoutedBatch>,
    submitted: u64,
    next_drain: u64,
    closed: bool,
    /// Set by [`Hub::fail`]: a worker panicked, so waiting for its jobs
    /// would block forever.
    failed: bool,
    // Stats counters (updated at batch completion).
    pub batches: u64,
    pub records: u64,
    pub errors: u64,
    pub queue_high_water: usize,
    pub histogram: LatencyHistogram,
    /// Queue-wait latency (submit to worker pickup), one sample per job.
    pub wait_histogram: LatencyHistogram,
    /// Queue-wait metadata for in-flight jobs, keyed by first seq.
    meta: BTreeMap<u64, JobMeta>,
    /// Caller completion-routing tokens keyed by frame seq. Sparse: only
    /// tagged submissions insert here; `finish` removes as it publishes.
    tokens: BTreeMap<u64, u64>,
}

/// The shared coordination hub (one per [`crate::engine::Engine::run`]
/// scope).
pub(crate) struct Hub {
    capacity: usize,
    state: Mutex<HubState>,
    /// Workers wait here for jobs or close.
    work_cv: Condvar,
    /// Submitters wait here for queue space.
    space_cv: Condvar,
    /// Drainers wait here for completions.
    done_cv: Condvar,
}

impl Hub {
    pub fn new(capacity: usize) -> Self {
        Hub {
            capacity: capacity.max(1),
            state: Mutex::new(HubState {
                jobs: VecDeque::new(),
                completed: BTreeMap::new(),
                submitted: 0,
                next_drain: 0,
                closed: false,
                failed: false,
                batches: 0,
                records: 0,
                errors: 0,
                queue_high_water: 0,
                histogram: LatencyHistogram::new(),
                wait_histogram: LatencyHistogram::new(),
                meta: BTreeMap::new(),
                tokens: BTreeMap::new(),
            }),
            work_cv: Condvar::new(),
            space_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }
    }

    /// Enqueues a batch, blocking while the bounded queue is full.
    /// Returns the batch's sequence number.
    pub fn submit(&self, lines: Vec<Record>) -> u64 {
        self.submit_waiting(JobPayload::Frame(lines), 1)
    }

    /// Enqueues a whole frame batch as one job, blocking while the bounded
    /// queue is full. Reserves one sequence number per frame and returns
    /// the first; frame `f` completes as `seq + f`.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty.
    pub fn submit_batch(&self, batch: FrameBatch) -> u64 {
        assert!(!batch.is_empty(), "cannot submit an empty batch");
        let frames = batch.frames() as u64;
        self.submit_waiting(JobPayload::Batch(batch), frames)
    }

    /// Enqueues a job of `seqs` sequence numbers, blocking while the
    /// bounded queue is full.
    fn submit_waiting(&self, payload: JobPayload, seqs: u64) -> u64 {
        let mut st = self.state.lock().unwrap();
        while st.jobs.len() >= self.capacity {
            st = self.space_cv.wait(unless_failed(st)).unwrap();
        }
        self.enqueue_locked(st, payload, seqs)
    }

    /// Non-blocking [`Hub::submit_batch`] with per-frame completion
    /// tokens: frame `f` (seq `first + f`) completes carrying
    /// `tokens[f]`. `tokens` must be empty (all untagged) or exactly
    /// `batch.frames()` long. Rejection hands the whole batch back.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or `tokens` has the wrong length.
    pub fn try_submit_batch(
        &self,
        batch: FrameBatch,
        tokens: &[u64],
    ) -> Result<u64, BatchSubmitError> {
        assert!(!batch.is_empty(), "cannot submit an empty batch");
        assert!(
            tokens.is_empty() || tokens.len() == batch.frames(),
            "token slice must be empty or match the batch frame count"
        );
        let frames = batch.frames() as u64;
        let mut st = self.state.lock().unwrap();
        if st.jobs.len() >= self.capacity {
            return Err(BatchSubmitError::Full(batch));
        }
        let seq = st.submitted;
        for (f, &token) in tokens.iter().enumerate() {
            if token != 0 {
                st.tokens.insert(seq + f as u64, token);
            }
        }
        Ok(self.enqueue_locked(st, JobPayload::Batch(batch), frames))
    }

    fn enqueue_locked(
        &self,
        mut st: MutexGuard<'_, HubState>,
        payload: JobPayload,
        seqs: u64,
    ) -> u64 {
        let seq = st.submitted;
        st.submitted += seqs;
        st.jobs.push_back(Job {
            seq,
            payload,
            submitted_at: Instant::now(),
        });
        st.queue_high_water = st.queue_high_water.max(st.jobs.len());
        drop(st);
        self.work_cv.notify_one();
        seq
    }

    /// Pops the next routed batch in submission order, blocking while one
    /// is outstanding. Returns `None` when every submitted batch has been
    /// drained.
    ///
    /// # Panics
    ///
    /// Panics instead of blocking once a worker has panicked.
    pub fn drain(&self) -> Option<RoutedBatch> {
        let mut st = self.state.lock().unwrap();
        loop {
            let next = st.next_drain;
            if let Some(batch) = st.completed.remove(&next) {
                st.next_drain += 1;
                return Some(batch);
            }
            if st.next_drain == st.submitted {
                return None;
            }
            st = self.done_cv.wait(unless_failed(st)).unwrap();
        }
    }

    /// Non-blocking [`Self::drain`]: `None` if the next batch in order is
    /// not finished yet (or nothing is outstanding).
    pub fn try_drain(&self) -> Option<RoutedBatch> {
        let mut st = self.state.lock().unwrap();
        let next = st.next_drain;
        let batch = st.completed.remove(&next)?;
        st.next_drain += 1;
        Some(batch)
    }

    /// Publishes a finished batch, updates the counters, and returns the
    /// submit-to-publish latency it recorded. The caller wraps routing
    /// failures into the appropriate [`EngineError`] variant
    /// ([`EngineError::batch`] on the normal path,
    /// [`EngineError::quarantined`] on the faulted-retry path), so the
    /// drained batch carries the full batch-level cause chain.
    pub fn finish(
        &self,
        seq: u64,
        submitted_at: Instant,
        result: Result<Vec<Record>, EngineError>,
    ) -> u64 {
        let latency_ns = submitted_at.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let mut st = self.state.lock().unwrap();
        st.batches += 1;
        match &result {
            Ok(lines) => st.records += lines.len() as u64,
            Err(_) => st.errors += 1,
        }
        st.histogram.record(latency_ns);
        // Split the latency at the worker-pickup stamp taken in
        // `next_job`. Batch jobs finish once per frame against one meta
        // entry keyed by the job's first seq, hence the range lookup.
        let (queue_ns, drained_meta) = match st.meta.range_mut(..=seq).next_back() {
            Some((&first, m)) if seq < first + m.frames => {
                m.remaining -= 1;
                (m.queue_ns, (m.remaining == 0).then_some(first))
            }
            _ => (0, None),
        };
        if let Some(first) = drained_meta {
            st.meta.remove(&first);
        }
        let queue_ns = queue_ns.min(latency_ns);
        let token = st.tokens.remove(&seq).unwrap_or(0);
        st.completed.insert(
            seq,
            RoutedBatch {
                seq,
                result,
                queue_ns,
                route_ns: latency_ns - queue_ns,
                token,
            },
        );
        drop(st);
        self.done_cv.notify_all();
        latency_ns
    }

    /// Blocks until a job or close-with-empty-queue. `None` means the
    /// worker should exit.
    pub fn next_job(&self) -> Option<Job> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(j) = st.jobs.pop_front() {
                // The job leaves the queue here: stamp its queue wait and
                // park it in the meta table so `finish` can split the
                // submit-to-publish latency into wait + route.
                let queue_ns = j
                    .submitted_at
                    .elapsed()
                    .as_nanos()
                    .min(u128::from(u64::MAX)) as u64;
                st.wait_histogram.record(queue_ns);
                let frames = match &j.payload {
                    JobPayload::Frame(_) => 1,
                    JobPayload::Batch(b) => b.frames() as u64,
                };
                st.meta.insert(
                    j.seq,
                    JobMeta {
                        frames,
                        queue_ns,
                        remaining: frames,
                    },
                );
                drop(st);
                self.space_cv.notify_one();
                return Some(j);
            }
            if st.closed {
                return None;
            }
            st = self.work_cv.wait(st).unwrap();
        }
    }

    /// Closes the hub: workers drain all queued work, then exit. Blocked
    /// submitters are not expected (close happens after the user closure
    /// returns). Called while unwinding too, so it takes the lock even if
    /// a panic poisoned it.
    pub fn close(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.closed = true;
        drop(st);
        self.work_cv.notify_all();
        self.space_cv.notify_all();
        self.done_cv.notify_all();
    }

    /// Marks the hub failed after a worker panicked, and wakes every
    /// drainer and blocked submitter so they panic instead of waiting for
    /// jobs that will never complete. Called while unwinding, so it
    /// takes the lock even if the panic poisoned it.
    pub fn fail(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.failed = true;
        drop(st);
        self.space_cv.notify_all();
        self.done_cv.notify_all();
    }

    /// Runs `f` with the locked state (stats snapshots).
    pub fn with_state<R>(&self, f: impl FnOnce(&HubState) -> R) -> R {
        f(&self.state.lock().unwrap())
    }
}

/// Closes the hub on drop, so worker threads exit even if the user
/// closure panics (otherwise the surrounding `thread::scope` would never
/// join).
pub(crate) struct CloseGuard<'a>(pub &'a Hub);

impl Drop for CloseGuard<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Held by each worker: marks the hub failed ([`Hub::fail`]) if the
/// worker unwinds, so the user closure panics instead of waiting forever
/// and the surrounding `thread::scope` joins.
pub(crate) struct FailGuard<'a>(pub &'a Hub);

impl Drop for FailGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.fail();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::time::Duration;

    /// `finish` splits the submit-to-publish latency at the worker-pickup
    /// stamp taken in `next_job`, and the pickup records one queue-wait
    /// sample.
    #[test]
    fn finish_splits_latency_at_worker_pickup() {
        let hub = Hub::new(4);
        let seq = hub.submit(Vec::new());
        std::thread::sleep(Duration::from_millis(2));
        let job = hub.next_job().expect("submitted job must be next");
        assert_eq!(job.seq, seq);
        std::thread::sleep(Duration::from_millis(1));
        hub.finish(job.seq, job.submitted_at, Ok(Vec::new()));
        let batch = hub.try_drain().expect("finished batch drains");
        assert!(
            batch.queue_ns >= 2_000_000,
            "queue wait covers the pre-pickup sleep, got {}",
            batch.queue_ns
        );
        assert!(
            batch.route_ns >= 1_000_000,
            "route covers the post-pickup sleep, got {}",
            batch.route_ns
        );
        hub.with_state(|st| {
            assert_eq!(st.wait_histogram.count(), 1);
            assert_eq!(st.histogram.count(), 1);
            assert!(st.wait_histogram.max_ns() <= st.histogram.max_ns());
        });
    }

    /// A batch job's frames all inherit the job's single queue-wait
    /// stamp, and the meta table empties once the last frame finishes.
    #[test]
    fn batch_frames_share_one_queue_stamp() {
        use bnb_core::batch::FrameBatch;
        let hub = Hub::new(4);
        let mut batch = FrameBatch::new(2);
        batch.push_frame(&[Record::new(0, 0), Record::new(1, 1)]);
        batch.push_frame(&[Record::new(1, 0), Record::new(0, 1)]);
        let seq = hub.submit_batch(batch);
        std::thread::sleep(Duration::from_millis(2));
        let job = hub.next_job().expect("submitted batch must be next");
        for f in 0..2 {
            hub.finish(seq + f, job.submitted_at, Ok(Vec::new()));
        }
        let first = hub.try_drain().expect("frame 0 drains");
        let second = hub.try_drain().expect("frame 1 drains");
        assert!(first.queue_ns >= 2_000_000);
        assert_eq!(first.queue_ns, second.queue_ns, "one stamp per job");
        hub.with_state(|st| {
            assert_eq!(st.wait_histogram.count(), 1, "one sample per job");
            assert!(st.meta.is_empty(), "meta drained with the last frame");
        });
    }
}
