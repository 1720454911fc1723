//! Engine throughput and latency accounting.
//!
//! Latency is tracked in `bnb-obs`'s [`LatencyHistogram`], the layout the
//! observability sinks share: a fixed array of 64 power-of-two
//! nanosecond buckets — constant memory, no per-sample allocation, and
//! quantiles in one pass.

use bnb_obs::{LatencyHistogram, LatencySummary};
use serde::{Deserialize, Serialize};

/// Per-worker activity counters, one entry per pool thread.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WorkerMetrics {
    /// Worker index within the pool.
    pub worker: usize,
    /// Time spent routing owned jobs, in ns.
    pub busy_ns: u64,
    /// Busy fraction of the engine's wall-clock lifetime.
    pub utilization: f64,
    /// Jobs (single frames or whole frame batches) this worker routed.
    pub jobs_owned: u64,
}

/// A snapshot of engine counters, taken by
/// [`crate::engine::EngineHandle::stats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Batches fully routed (including failed ones).
    pub batches: u64,
    /// Records in successfully routed batches.
    pub records: u64,
    /// Batches that failed validation or routing.
    pub errors: u64,
    /// Wall-clock time since the engine started.
    pub elapsed_ns: u64,
    /// Completed batches per wall-clock second.
    pub batches_per_sec: f64,
    /// Routed records per wall-clock second.
    pub records_per_sec: f64,
    /// Submit-to-completion latency quantiles.
    pub latency: LatencySummary,
    /// Full latency histogram (power-of-two ns buckets).
    pub histogram: LatencyHistogram,
    /// Batches sitting in the bounded submission queue right now.
    pub queue_depth: usize,
    /// Deepest the bounded submission queue ever got.
    pub queue_high_water: usize,
    /// Queue-wait latency quantiles (submit to worker pickup), one
    /// sample per job; subtracting it from [`Self::latency`] isolates
    /// routing proper.
    pub wait_latency: LatencySummary,
    /// Per-worker activity breakdown (busy time and busy fraction, jobs
    /// owned).
    pub worker_metrics: Vec<WorkerMetrics>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_metrics_serde_round_trips() {
        let w = WorkerMetrics {
            worker: 1,
            busy_ns: 12_345,
            utilization: 0.75,
            jobs_owned: 10,
        };
        let json = serde_json::to_string(&w).unwrap();
        let back: WorkerMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back, w);
    }
}
