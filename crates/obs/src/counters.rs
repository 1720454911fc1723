//! [`Counters`]: a lock-free sharded metrics sink implementing
//! [`Observer`].
//!
//! Writers pick a shard by thread (round-robin at first touch, cached in
//! a thread-local) and bump relaxed atomics; with up to [`SHARDS`]
//! concurrent writer threads there is no cross-thread cache-line
//! contention on the counter words. [`Counters::snapshot`] folds all
//! shards into a serializable [`MetricsSnapshot`]. Snapshots taken while
//! writers are active are monotone but not a point-in-time cut — fine for
//! monitoring.

use crate::event::{
    ColumnEvent, ConflictEvent, DrainEvent, FaultEvent, RepairEvent, RetryEvent, RoundEvent,
    ScrubEvent, StageTotalsEvent, SubmitEvent, SweepEvent,
};
use crate::histogram::{AtomicHistogram, LatencyHistogram, LatencySummary};
use crate::observer::Observer;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Writer shards. A power of two; more concurrent writer threads than
/// this simply share shards (still correct, mildly contended).
pub const SHARDS: usize = 8;

/// Main stages tracked with a per-stage breakdown (`N = 2^32` inputs —
/// far past anything constructible). Deeper stages clamp into the last
/// slot.
pub const MAX_STAGES: usize = 32;

fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    INDEX.with(|i| *i)
}

/// One writer shard, padded to its own cache lines.
#[repr(align(128))]
#[derive(Debug)]
struct Shard {
    columns: AtomicU64,
    exchanges: AtomicU64,
    sweeps: AtomicU64,
    max_sweep_depth: AtomicU64,
    conflicts: AtomicU64,
    batches_submitted: AtomicU64,
    batches_drained: AtomicU64,
    batch_errors: AtomicU64,
    scheduler_rounds: AtomicU64,
    records_matched: AtomicU64,
    max_round_backlog: AtomicU64,
    hardware_faults: AtomicU64,
    fault_retries: AtomicU64,
    scrub_probes: AtomicU64,
    shards_quarantined: AtomicU64,
    shards_restored: AtomicU64,
    stage_columns: [AtomicU64; MAX_STAGES],
    stage_exchanges: [AtomicU64; MAX_STAGES],
    stage_sweeps: [AtomicU64; MAX_STAGES],
    stage_conflicts: [AtomicU64; MAX_STAGES],
}

impl Shard {
    fn new() -> Self {
        let zeroes = || std::array::from_fn(|_| AtomicU64::new(0));
        Shard {
            columns: AtomicU64::new(0),
            exchanges: AtomicU64::new(0),
            sweeps: AtomicU64::new(0),
            max_sweep_depth: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
            batches_submitted: AtomicU64::new(0),
            batches_drained: AtomicU64::new(0),
            batch_errors: AtomicU64::new(0),
            scheduler_rounds: AtomicU64::new(0),
            records_matched: AtomicU64::new(0),
            max_round_backlog: AtomicU64::new(0),
            hardware_faults: AtomicU64::new(0),
            fault_retries: AtomicU64::new(0),
            scrub_probes: AtomicU64::new(0),
            shards_quarantined: AtomicU64::new(0),
            shards_restored: AtomicU64::new(0),
            stage_columns: zeroes(),
            stage_exchanges: zeroes(),
            stage_sweeps: zeroes(),
            stage_conflicts: zeroes(),
        }
    }

    fn reset(&self) {
        let scalars = [
            &self.columns,
            &self.exchanges,
            &self.sweeps,
            &self.max_sweep_depth,
            &self.conflicts,
            &self.batches_submitted,
            &self.batches_drained,
            &self.batch_errors,
            &self.scheduler_rounds,
            &self.records_matched,
            &self.max_round_backlog,
            &self.hardware_faults,
            &self.fault_retries,
            &self.scrub_probes,
            &self.shards_quarantined,
            &self.shards_restored,
        ];
        for counter in scalars {
            counter.store(0, Ordering::Relaxed);
        }
        for stage in 0..MAX_STAGES {
            self.stage_columns[stage].store(0, Ordering::Relaxed);
            self.stage_exchanges[stage].store(0, Ordering::Relaxed);
            self.stage_sweeps[stage].store(0, Ordering::Relaxed);
            self.stage_conflicts[stage].store(0, Ordering::Relaxed);
        }
    }
}

#[inline]
fn stage_slot(main_stage: usize) -> usize {
    main_stage.min(MAX_STAGES - 1)
}

/// Lock-free sharded counter sink.
///
/// Share one `Counters` across every layer of a run (router, engine
/// workers, scheduler) by reference — `&Counters` implements [`Observer`]
/// through the blanket reference impl. Batch-drain latencies feed the
/// embedded [`AtomicHistogram`], so a snapshot carries the same latency
/// distribution the engine's own stats report.
///
/// `Counters` keeps only per-stage totals, so it declines per-column
/// events ([`Observer::wants_columns`] is `false`): routing observed by
/// it alone keeps the word-parallel kernels and reports one
/// [`StageTotalsEvent`] per main stage. Paired with a per-column sink in
/// a [`crate::Fanout`], it counts the column and sweep events instead;
/// either way a snapshot holds the same numbers.
#[derive(Debug)]
pub struct Counters {
    shards: [Shard; SHARDS],
    histogram: AtomicHistogram,
}

impl Default for Counters {
    fn default() -> Self {
        Self::new()
    }
}

impl Counters {
    /// A zeroed sink.
    pub fn new() -> Self {
        Counters {
            shards: std::array::from_fn(|_| Shard::new()),
            histogram: AtomicHistogram::new(),
        }
    }

    #[inline]
    fn shard(&self) -> &Shard {
        &self.shards[shard_index()]
    }

    /// The embedded latency histogram (fed by batch-drain events).
    pub fn histogram(&self) -> &AtomicHistogram {
        &self.histogram
    }

    /// Records one span latency directly (see [`crate::SpanTimer`]).
    #[inline]
    pub fn record_latency(&self, ns: u64) {
        self.histogram.record(ns);
    }

    /// Zeroes every counter, per-stage slot, and the latency histogram —
    /// the per-serving-session reset (high-water marks included). Not a
    /// point-in-time cut under concurrent writers; call it between
    /// sessions, not during one.
    pub fn reset(&self) {
        for shard in &self.shards {
            shard.reset();
        }
        self.histogram.reset();
    }

    fn sum(&self, field: impl Fn(&Shard) -> &AtomicU64) -> u64 {
        self.shards
            .iter()
            .map(|s| field(s).load(Ordering::Relaxed))
            .sum()
    }

    fn max(&self, field: impl Fn(&Shard) -> &AtomicU64) -> u64 {
        self.shards
            .iter()
            .map(|s| field(s).load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Folds every shard into a serializable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut per_stage = Vec::new();
        for stage in 0..MAX_STAGES {
            let metrics = StageMetrics {
                main_stage: stage,
                columns: self.sum(|s| &s.stage_columns[stage]),
                exchanges: self.sum(|s| &s.stage_exchanges[stage]),
                sweeps: self.sum(|s| &s.stage_sweeps[stage]),
                conflicts: self.sum(|s| &s.stage_conflicts[stage]),
            };
            per_stage.push(metrics);
        }
        // Drop trailing all-zero stages so the snapshot stays readable.
        while per_stage
            .last()
            .is_some_and(|m| m.columns == 0 && m.sweeps == 0 && m.conflicts == 0)
        {
            per_stage.pop();
        }
        let histogram = self.histogram.snapshot();
        MetricsSnapshot {
            columns: self.sum(|s| &s.columns),
            exchanges: self.sum(|s| &s.exchanges),
            arbiter_sweeps: self.sum(|s| &s.sweeps),
            max_sweep_depth: self.max(|s| &s.max_sweep_depth),
            conflicts: self.sum(|s| &s.conflicts),
            batches_submitted: self.sum(|s| &s.batches_submitted),
            batches_drained: self.sum(|s| &s.batches_drained),
            batch_errors: self.sum(|s| &s.batch_errors),
            scheduler_rounds: self.sum(|s| &s.scheduler_rounds),
            records_matched: self.sum(|s| &s.records_matched),
            max_round_backlog: self.max(|s| &s.max_round_backlog),
            hardware_faults: self.sum(|s| &s.hardware_faults),
            fault_retries: self.sum(|s| &s.fault_retries),
            scrub_probes: self.sum(|s| &s.scrub_probes),
            shards_quarantined: self.sum(|s| &s.shards_quarantined),
            shards_restored: self.sum(|s| &s.shards_restored),
            per_stage,
            latency: LatencySummary::from_histogram(&histogram),
            histogram,
        }
    }
}

impl Observer for Counters {
    #[inline]
    fn wants_columns(&self) -> bool {
        false
    }

    #[inline]
    fn stage_routed(&self, event: StageTotalsEvent) {
        let shard = self.shard();
        shard.columns.fetch_add(event.columns, Ordering::Relaxed);
        shard
            .exchanges
            .fetch_add(event.exchanges, Ordering::Relaxed);
        shard.sweeps.fetch_add(event.sweeps, Ordering::Relaxed);
        shard
            .max_sweep_depth
            .fetch_max(event.max_depth as u64, Ordering::Relaxed);
        let slot = stage_slot(event.main_stage);
        shard.stage_columns[slot].fetch_add(event.columns, Ordering::Relaxed);
        shard.stage_exchanges[slot].fetch_add(event.exchanges, Ordering::Relaxed);
        shard.stage_sweeps[slot].fetch_add(event.sweeps, Ordering::Relaxed);
    }

    #[inline]
    fn column_routed(&self, event: ColumnEvent) {
        let shard = self.shard();
        shard.columns.fetch_add(1, Ordering::Relaxed);
        shard
            .exchanges
            .fetch_add(event.exchanges, Ordering::Relaxed);
        let slot = stage_slot(event.main_stage);
        shard.stage_columns[slot].fetch_add(1, Ordering::Relaxed);
        shard.stage_exchanges[slot].fetch_add(event.exchanges, Ordering::Relaxed);
    }

    #[inline]
    fn arbiter_sweep(&self, event: SweepEvent) {
        let shard = self.shard();
        shard.sweeps.fetch_add(1, Ordering::Relaxed);
        shard
            .max_sweep_depth
            .fetch_max(event.depth as u64, Ordering::Relaxed);
        shard.stage_sweeps[stage_slot(event.main_stage)].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn splitter_conflict(&self, event: ConflictEvent) {
        let shard = self.shard();
        shard.conflicts.fetch_add(1, Ordering::Relaxed);
        shard.stage_conflicts[stage_slot(event.main_stage)].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn batch_submitted(&self, _event: SubmitEvent) {
        self.shard()
            .batches_submitted
            .fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn batch_drained(&self, event: DrainEvent) {
        let shard = self.shard();
        shard.batches_drained.fetch_add(1, Ordering::Relaxed);
        if !event.ok {
            shard.batch_errors.fetch_add(1, Ordering::Relaxed);
        }
        self.histogram.record(event.latency_ns);
    }

    #[inline]
    fn scheduler_round(&self, event: RoundEvent) {
        let shard = self.shard();
        shard.scheduler_rounds.fetch_add(1, Ordering::Relaxed);
        shard
            .records_matched
            .fetch_add(event.matched as u64, Ordering::Relaxed);
        shard
            .max_round_backlog
            .fetch_max(event.backlog as u64, Ordering::Relaxed);
    }

    #[inline]
    fn hardware_fault(&self, _event: FaultEvent) {
        self.shard().hardware_faults.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn batch_retried(&self, _event: RetryEvent) {
        self.shard().fault_retries.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn shard_scrubbed(&self, _event: ScrubEvent) {
        self.shard().scrub_probes.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn shard_repaired(&self, event: RepairEvent) {
        let shard = self.shard();
        if event.restored {
            shard.shards_restored.fetch_add(1, Ordering::Relaxed);
        } else {
            shard.shards_quarantined.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Per-main-stage counter totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StageMetrics {
    /// Main-network stage index.
    pub main_stage: usize,
    /// Switching columns routed at this stage.
    pub columns: u64,
    /// 2×2 exchanges performed at this stage.
    pub exchanges: u64,
    /// Arbiter sweeps completed at this stage.
    pub sweeps: u64,
    /// Splitter conflicts detected at this stage.
    pub conflicts: u64,
}

/// Aggregated counter totals, serializable for the CLI's `--metrics`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Switching columns routed (eq. (7): `m(m+1)/2` per full frame).
    pub columns: u64,
    /// 2×2 switch exchanges performed.
    pub exchanges: u64,
    /// Splitter arbiter sweeps completed.
    pub arbiter_sweeps: u64,
    /// Deepest arbiter tree swept (the `p` of the widest splitter hit).
    pub max_sweep_depth: u64,
    /// Splitter balance violations observed.
    pub conflicts: u64,
    /// Batches submitted to the engine.
    pub batches_submitted: u64,
    /// Batches fully routed (including failed ones).
    pub batches_drained: u64,
    /// Drained batches that failed validation or routing.
    pub batch_errors: u64,
    /// Input-queued-switch scheduler rounds run.
    pub scheduler_rounds: u64,
    /// Records matched to outputs across all scheduler rounds.
    pub records_matched: u64,
    /// Largest post-round backlog observed.
    pub max_round_backlog: u64,
    /// Hardware faults detected by the output balance check.
    pub hardware_faults: u64,
    /// Batch retries on alternate fabric shards after a fault.
    pub fault_retries: u64,
    /// Background scrubber probes of suspect/quarantined fabric shards.
    pub scrub_probes: u64,
    /// Fabric shards confirmed faulty and quarantined by the scrubber.
    pub shards_quarantined: u64,
    /// Quarantined fabric shards restored to service after clearing.
    pub shards_restored: u64,
    /// Per-main-stage breakdown (trailing all-zero stages trimmed).
    pub per_stage: Vec<StageMetrics>,
    /// Latency quantiles over all recorded spans/batch drains.
    pub latency: LatencySummary,
    /// Full latency histogram (power-of-two ns buckets).
    pub histogram: LatencyHistogram,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column(main_stage: usize, exchanges: u64) -> ColumnEvent {
        ColumnEvent {
            main_stage,
            internal_stage: 0,
            width: 8,
            exchanges,
        }
    }

    #[test]
    fn counters_aggregate_across_events() {
        let c = Counters::new();
        c.column_routed(column(0, 3));
        c.column_routed(column(0, 1));
        c.column_routed(column(1, 2));
        c.arbiter_sweep(SweepEvent {
            main_stage: 0,
            internal_stage: 0,
            first_line: 0,
            width: 8,
            depth: 3,
        });
        c.splitter_conflict(ConflictEvent {
            main_stage: 1,
            internal_stage: 0,
            first_line: 0,
            width: 4,
            ones: 3,
        });
        let snap = c.snapshot();
        assert_eq!(snap.columns, 3);
        assert_eq!(snap.exchanges, 6);
        assert_eq!(snap.arbiter_sweeps, 1);
        assert_eq!(snap.max_sweep_depth, 3);
        assert_eq!(snap.conflicts, 1);
        assert_eq!(snap.per_stage.len(), 2);
        assert_eq!(snap.per_stage[0].columns, 2);
        assert_eq!(snap.per_stage[0].exchanges, 4);
        assert_eq!(snap.per_stage[1].columns, 1);
        assert_eq!(snap.per_stage[1].conflicts, 1);
    }

    #[test]
    fn stage_totals_count_like_their_column_and_sweep_events() {
        let by_column = Counters::new();
        by_column.column_routed(column(1, 3));
        by_column.column_routed(column(1, 2));
        for depth in [2, 2, 1, 1, 1, 1] {
            by_column.arbiter_sweep(SweepEvent {
                main_stage: 1,
                internal_stage: 2 - depth,
                first_line: 0,
                width: 1 << depth,
                depth,
            });
        }
        let by_stage = Counters::new();
        assert!(!by_stage.wants_columns());
        by_stage.stage_routed(StageTotalsEvent {
            main_stage: 1,
            width: 8,
            frames: 1,
            columns: 2,
            sweeps: 6,
            exchanges: 5,
            max_depth: 2,
        });
        assert_eq!(by_stage.snapshot(), by_column.snapshot());
    }

    #[test]
    fn batch_events_feed_histogram() {
        let c = Counters::new();
        c.batch_submitted(SubmitEvent { seq: 0, records: 8 });
        c.batch_drained(DrainEvent {
            seq: 0,
            records: 8,
            latency_ns: 1_000,
            ok: true,
        });
        c.batch_drained(DrainEvent {
            seq: 1,
            records: 8,
            latency_ns: 9_000,
            ok: false,
        });
        let snap = c.snapshot();
        assert_eq!(snap.batches_submitted, 1);
        assert_eq!(snap.batches_drained, 2);
        assert_eq!(snap.batch_errors, 1);
        assert_eq!(snap.histogram.count(), 2);
        assert_eq!(snap.latency.min_ns, 1_000);
        assert_eq!(snap.latency.max_ns, 9_000);
    }

    #[test]
    fn scheduler_rounds_track_occupancy() {
        let c = Counters::new();
        c.scheduler_round(RoundEvent {
            round: 0,
            matched: 5,
            backlog: 11,
        });
        c.scheduler_round(RoundEvent {
            round: 1,
            matched: 7,
            backlog: 4,
        });
        let snap = c.snapshot();
        assert_eq!(snap.scheduler_rounds, 2);
        assert_eq!(snap.records_matched, 12);
        assert_eq!(snap.max_round_backlog, 11);
    }

    #[test]
    fn fault_events_are_counted() {
        let c = Counters::new();
        c.hardware_fault(FaultEvent {
            main_stage: 1,
            internal_stage: 0,
            first_line: 4,
            width: 4,
            even_ones: 2,
            odd_ones: 0,
        });
        c.batch_retried(RetryEvent {
            seq: 3,
            attempt: 1,
            shard: 1,
        });
        c.batch_retried(RetryEvent {
            seq: 3,
            attempt: 2,
            shard: 0,
        });
        let snap = c.snapshot();
        assert_eq!(snap.hardware_faults, 1);
        assert_eq!(snap.fault_retries, 2);
    }

    #[test]
    fn scrub_and_repair_events_are_counted() {
        let c = Counters::new();
        c.shard_scrubbed(ScrubEvent {
            shard: 1,
            clean: false,
            streak: 0,
        });
        c.shard_scrubbed(ScrubEvent {
            shard: 1,
            clean: true,
            streak: 1,
        });
        c.shard_scrubbed(ScrubEvent {
            shard: 1,
            clean: true,
            streak: 2,
        });
        c.shard_repaired(RepairEvent {
            shard: 1,
            restored: false,
        });
        c.shard_repaired(RepairEvent {
            shard: 1,
            restored: true,
        });
        let snap = c.snapshot();
        assert_eq!(snap.scrub_probes, 3);
        assert_eq!(snap.shards_quarantined, 1);
        assert_eq!(snap.shards_restored, 1);
        c.reset();
        assert_eq!(c.snapshot(), Counters::new().snapshot());
    }

    #[test]
    fn reset_zeroes_counters_high_waters_and_histogram() {
        let c = Counters::new();
        c.column_routed(column(2, 5));
        c.arbiter_sweep(SweepEvent {
            main_stage: 0,
            internal_stage: 0,
            first_line: 0,
            width: 8,
            depth: 3,
        });
        c.scheduler_round(RoundEvent {
            round: 0,
            matched: 2,
            backlog: 40,
        });
        assert_ne!(c.snapshot(), Counters::new().snapshot());
        c.reset();
        let snap = c.snapshot();
        assert_eq!(snap, Counters::new().snapshot());
        assert_eq!(snap.max_sweep_depth, 0, "high-water marks reset too");
        assert_eq!(snap.max_round_backlog, 0);
        assert_eq!(snap.histogram.count(), 0);
        assert!(snap.per_stage.is_empty());
    }

    #[test]
    fn concurrent_writers_lose_nothing() {
        let c = Counters::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = &c;
                scope.spawn(move || {
                    for _ in 0..1_000 {
                        c.column_routed(column(0, 1));
                    }
                });
            }
        });
        let snap = c.snapshot();
        assert_eq!(snap.columns, 8_000);
        assert_eq!(snap.exchanges, 8_000);
        assert_eq!(snap.per_stage[0].columns, 8_000);
    }

    #[test]
    fn deep_stages_clamp_into_last_slot() {
        let c = Counters::new();
        c.column_routed(column(MAX_STAGES + 5, 1));
        let snap = c.snapshot();
        assert_eq!(snap.per_stage.len(), MAX_STAGES);
        assert_eq!(snap.per_stage[MAX_STAGES - 1].columns, 1);
    }

    #[test]
    fn snapshot_serde_round_trips() {
        let c = Counters::new();
        c.column_routed(column(0, 2));
        c.batch_drained(DrainEvent {
            seq: 0,
            records: 4,
            latency_ns: 128,
            ok: true,
        });
        let snap = c.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn shards_are_cache_line_padded() {
        assert_eq!(std::mem::align_of::<Shard>(), 128);
    }
}
