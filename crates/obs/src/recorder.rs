//! The [`FlightRecorder`]: a fixed-capacity, lock-free ring buffer of
//! timestamped [`Span`]s with sampling and a drop counter.
//!
//! A flight recorder answers "what happened just before things went
//! wrong?" without unbounded logs: it keeps the *last* `capacity` spans
//! per writer lane, overwrites the oldest on overflow, and counts every
//! overwrite in [`dropped`](FlightRecorder::dropped) so sampling and
//! eviction are never silent. Recording is wait-free per span — one
//! `fetch_add` to claim a slot plus a seqlock-versioned write of a few
//! relaxed atomics — and allocation-free after construction, so it can sit
//! on the routing hot path next to [`crate::Counters`].
//!
//! # Lanes
//!
//! The recorder is sharded into [`RECORDER_LANES`] per-thread lanes (the
//! same thread-ordinal trick as [`crate::Counters`]): each engine worker
//! writes its own ring with no cross-thread contention, and
//! [`spans`](FlightRecorder::spans) merges the lanes back into one
//! timestamp-ordered sequence — the "per-worker shards merged at drain"
//! model. The lane index is stamped into every span and becomes the `tid`
//! lane in the Chrome trace export ([`crate::render_chrome_trace`]).
//!
//! # Sampling
//!
//! Head sampling ([`SamplePolicy::Rate`]) keeps one span in `n`; tail
//! sampling ([`SamplePolicy::Errors`] or a custom
//! [`SamplePolicy::Predicate`]) keeps only frames that hit a conflict,
//! retry, or hardware fault. Spans rejected by the policy are tallied in
//! [`sampled_out`](FlightRecorder::sampled_out).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::event::{
    ColumnEvent, ConflictEvent, DrainEvent, FaultEvent, HopEvent, RetryEvent, RoundEvent,
    SubmitEvent, SweepEvent,
};
use crate::observer::Observer;

/// Writer lanes (per-thread rings). A power of two; more threads than
/// lanes share lanes — still correct, mildly contended.
pub const RECORDER_LANES: usize = 8;

/// The per-thread lane, assigned in thread-creation order (mirrors
/// `Counters`' shard assignment so engine worker `i` tends to lane `i`).
fn lane_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static LANE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % RECORDER_LANES;
    }
    LANE.with(|i| *i)
}

/// What a recorded [`Span`] describes. Mirrors the [`Observer`] event
/// vocabulary one-to-one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// A switching column routed ([`ColumnEvent`]).
    Column,
    /// An arbiter-tree sweep ([`SweepEvent`]).
    Sweep,
    /// A splitter balance violation ([`ConflictEvent`]).
    Conflict,
    /// One cell crossing one column ([`HopEvent`]).
    Hop,
    /// A batch entering the submission queue ([`SubmitEvent`]).
    Submit,
    /// A batch completed, successfully or not ([`DrainEvent`]).
    Drain,
    /// An input-queued-switch scheduler round ([`RoundEvent`]).
    Round,
    /// A hardware fault detection ([`FaultEvent`]).
    Fault,
    /// A batch retried on another fabric shard ([`RetryEvent`]).
    Retry,
    /// A served wire request that crossed the slow-capture threshold:
    /// `seq` is the request id, `dur_ns` the wire-to-wire latency, `a`
    /// the tenant, `b` the record count. Recorded directly by the serve
    /// layer, not via an [`Observer`] event.
    Request,
}

impl SpanKind {
    fn from_tag(tag: u64) -> SpanKind {
        match tag {
            0 => SpanKind::Column,
            1 => SpanKind::Sweep,
            2 => SpanKind::Conflict,
            3 => SpanKind::Hop,
            4 => SpanKind::Submit,
            5 => SpanKind::Drain,
            6 => SpanKind::Round,
            7 => SpanKind::Fault,
            8 => SpanKind::Retry,
            _ => SpanKind::Request,
        }
    }

    fn tag(self) -> u64 {
        match self {
            SpanKind::Column => 0,
            SpanKind::Sweep => 1,
            SpanKind::Conflict => 2,
            SpanKind::Hop => 3,
            SpanKind::Submit => 4,
            SpanKind::Drain => 5,
            SpanKind::Round => 6,
            SpanKind::Fault => 7,
            SpanKind::Retry => 8,
            SpanKind::Request => 9,
        }
    }

    /// Whether spans of this kind describe an error-path event.
    pub fn is_error(self) -> bool {
        matches!(self, SpanKind::Conflict | SpanKind::Fault | SpanKind::Retry)
    }
}

/// One recorded event: a `Copy` struct small enough to land in a
/// preallocated ring slot with no heap traffic.
///
/// `a`/`b`/`c` carry the kind-specific payload (documented per arm in
/// [`FlightRecorder`]'s `Observer` impl; e.g. for [`SpanKind::Column`]
/// they are main stage, internal stage, and exchange count). `seq` is the
/// trace id threading engine spans together: the batch sequence number
/// for submit/drain/retry, the round number for scheduler rounds, `0`
/// elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// What happened.
    pub kind: SpanKind,
    /// Nanoseconds since the recorder's epoch (its construction).
    pub ts_ns: u64,
    /// Duration, when the event carries one (drain latency); else 0.
    pub dur_ns: u64,
    /// Writer lane (per-thread; the Chrome trace `tid`).
    pub lane: u32,
    /// Trace id: batch seq / round number for engine and scheduler spans.
    pub seq: u64,
    /// First kind-specific payload word.
    pub a: u64,
    /// Second kind-specific payload word.
    pub b: u64,
    /// Third kind-specific payload word.
    pub c: u64,
    /// False for error-path spans (conflict, fault, retry, failed drain).
    pub ok: bool,
}

/// `Span` packs into this many `u64` ring-slot words.
const SLOT_WORDS: usize = 7;

impl Span {
    fn pack(&self) -> [u64; SLOT_WORDS] {
        let head = self.kind.tag() | (u64::from(self.ok) << 8) | (u64::from(self.lane) << 32);
        [
            head,
            self.ts_ns,
            self.dur_ns,
            self.seq,
            self.a,
            self.b,
            self.c,
        ]
    }

    fn unpack(words: [u64; SLOT_WORDS]) -> Span {
        Span {
            kind: SpanKind::from_tag(words[0] & 0xff),
            ok: (words[0] >> 8) & 1 == 1,
            lane: (words[0] >> 32) as u32,
            ts_ns: words[1],
            dur_ns: words[2],
            seq: words[3],
            a: words[4],
            b: words[5],
            c: words[6],
        }
    }
}

/// Which spans the recorder keeps (head/tail sampling).
#[derive(Clone, Copy, Default)]
pub enum SamplePolicy {
    /// Keep every span.
    #[default]
    All,
    /// Head sampling: keep one span in `n` (per lane, deterministic).
    Rate(u64),
    /// Tail sampling: keep only error-path spans — conflicts, hardware
    /// faults, retries, and failed drains.
    Errors,
    /// Keep spans the predicate accepts. The predicate must be cheap and
    /// allocation-free; it runs on the recording thread.
    Predicate(fn(&Span) -> bool),
}

impl std::fmt::Debug for SamplePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SamplePolicy::All => write!(f, "All"),
            SamplePolicy::Rate(n) => write!(f, "Rate({n})"),
            SamplePolicy::Errors => write!(f, "Errors"),
            SamplePolicy::Predicate(_) => write!(f, "Predicate(..)"),
        }
    }
}

impl SamplePolicy {
    fn keeps(&self, span: &Span, tick: u64) -> bool {
        match self {
            SamplePolicy::All => true,
            SamplePolicy::Rate(n) => tick.is_multiple_of((*n).max(1)),
            SamplePolicy::Errors => span.kind.is_error() || !span.ok,
            SamplePolicy::Predicate(p) => p(span),
        }
    }
}

/// Accounting snapshot of a recorder ([`FlightRecorder::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecorderStats {
    /// Spans accepted into a ring (retained or later evicted).
    pub accepted: u64,
    /// Accepted spans overwritten by newer ones (ring overflow).
    pub dropped: u64,
    /// Spans rejected by the sampling policy.
    pub sampled_out: u64,
    /// Ring capacity per writer lane.
    pub capacity: usize,
}

/// One ring slot: a seqlock version word plus the packed span words.
///
/// A writer claims a ticket, stores `2·ticket + 1` (odd = in progress),
/// writes the words, then stores `2·ticket + 2` (even, unique per
/// ticket). A reader accepts a slot only if it sees the same even version
/// before and after reading the words, so half-written or wrapped slots
/// are skipped, never misread — and everything is plain relaxed atomics,
/// no unsafe.
struct Slot {
    version: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

/// One writer lane's ring.
struct Lane {
    /// Spans ever accepted into this lane (the next ticket).
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Lane {
    fn new(capacity: usize) -> Self {
        Lane {
            head: AtomicU64::new(0),
            slots: (0..capacity)
                .map(|_| Slot {
                    version: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
        }
    }

    fn push(&self, words: [u64; SLOT_WORDS]) -> bool {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        slot.version.store(2 * ticket + 1, Ordering::Release);
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        slot.version.store(2 * ticket + 2, Ordering::Release);
        ticket >= self.slots.len() as u64
    }

    /// Reads the retained spans (oldest first), skipping slots a
    /// concurrent writer is touching.
    fn collect(&self, out: &mut Vec<Span>) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        for ticket in head.saturating_sub(cap)..head {
            let slot = &self.slots[(ticket % cap) as usize];
            if slot.version.load(Ordering::Acquire) != 2 * ticket + 2 {
                continue;
            }
            let mut words = [0u64; SLOT_WORDS];
            for (v, w) in words.iter_mut().zip(slot.words.iter()) {
                *v = w.load(Ordering::Relaxed);
            }
            if slot.version.load(Ordering::Acquire) != 2 * ticket + 2 {
                continue;
            }
            out.push(Span::unpack(words));
        }
    }
}

/// Fixed-capacity, lock-free ring buffer of [`Span`]s; see the
/// [module docs](self).
///
/// # Example
///
/// ```
/// use bnb_obs::{FlightRecorder, SamplePolicy, Span, SpanKind};
///
/// let rec = FlightRecorder::with_capacity(2).policy(SamplePolicy::All);
/// for i in 0..3 {
///     rec.record(Span {
///         kind: SpanKind::Round,
///         ts_ns: i,
///         dur_ns: 0,
///         lane: 0,
///         seq: i,
///         a: 0,
///         b: 0,
///         c: 0,
///         ok: true,
///     });
/// }
/// let spans = rec.spans();
/// assert_eq!(spans.len(), 2, "capacity bounds retention");
/// assert_eq!(spans[0].seq, 1, "the oldest span was evicted");
/// assert_eq!(rec.dropped(), 1, "and the eviction was counted");
/// ```
#[derive(Debug)]
pub struct FlightRecorder {
    lanes: Box<[Lane]>,
    policy: SamplePolicy,
    record_hops: bool,
    seen: AtomicU64,
    accepted: AtomicU64,
    dropped: AtomicU64,
    sampled_out: AtomicU64,
    epoch: Instant,
}

impl std::fmt::Debug for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lane")
            .field("head", &self.head.load(Ordering::Relaxed))
            .field("capacity", &self.slots.len())
            .finish()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// Default capacity per lane.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A recorder keeping the last [`Self::DEFAULT_CAPACITY`] spans per
    /// lane, no sampling.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A recorder keeping the last `capacity` spans *per writer lane*
    /// (total memory: [`RECORDER_LANES`]` × capacity × 64 B`, allocated
    /// here, never after).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            lanes: (0..RECORDER_LANES).map(|_| Lane::new(capacity)).collect(),
            policy: SamplePolicy::All,
            record_hops: false,
            seen: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            sampled_out: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Replaces the sampling policy (builder style).
    pub fn policy(mut self, policy: SamplePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Opts into per-cell [`HopEvent`] spans (off by default — see
    /// [`Observer::wants_hops`]).
    pub fn record_hops(mut self, yes: bool) -> Self {
        self.record_hops = yes;
        self
    }

    /// Nanoseconds since this recorder's construction (the `ts_ns` clock).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Records one span through the sampling policy. Wait-free and
    /// allocation-free.
    pub fn record(&self, span: Span) {
        let tick = self.seen.fetch_add(1, Ordering::Relaxed);
        if !self.policy.keeps(&span, tick) {
            self.sampled_out.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.accepted.fetch_add(1, Ordering::Relaxed);
        if self.lanes[span.lane as usize % RECORDER_LANES].push(span.pack()) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Builds and records a span for the calling thread's lane.
    #[allow(clippy::too_many_arguments)]
    fn emit(&self, kind: SpanKind, seq: u64, dur_ns: u64, ok: bool, a: u64, b: u64, c: u64) {
        let lane = lane_index() as u32;
        let ts_ns = self.now_ns().saturating_sub(dur_ns);
        self.record(Span {
            kind,
            ts_ns,
            dur_ns,
            lane,
            seq,
            a,
            b,
            c,
            ok,
        });
    }

    /// Spans currently retained, merged across lanes, oldest first.
    /// (Allocates; call at drain/exit, not on the hot path.)
    pub fn spans(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for lane in self.lanes.iter() {
            lane.collect(&mut out);
        }
        out.sort_by_key(|s| (s.ts_ns, s.lane, s.seq));
        out
    }

    /// Spans currently retained across all lanes.
    pub fn len(&self) -> usize {
        let cap = self.lanes[0].slots.len() as u64;
        self.lanes
            .iter()
            .map(|l| l.head.load(Ordering::Relaxed).min(cap) as usize)
            .sum()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accepted spans overwritten by newer ones (ring overflow). Non-zero
    /// means [`spans`](Self::spans) is a *suffix* of the run, not all of
    /// it.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Spans rejected by the sampling policy.
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out.load(Ordering::Relaxed)
    }

    /// Spans accepted into a ring (retained or since evicted).
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// The accounting snapshot.
    pub fn stats(&self) -> RecorderStats {
        RecorderStats {
            accepted: self.accepted(),
            dropped: self.dropped(),
            sampled_out: self.sampled_out(),
            capacity: self.lanes[0].slots.len(),
        }
    }
}

/// Every observer event becomes one span; the `a`/`b`/`c` payload per
/// kind is documented on each arm.
impl Observer for FlightRecorder {
    #[inline]
    fn wants_hops(&self) -> bool {
        self.record_hops
    }

    /// `a` = main stage, `b` = internal stage, `c` = exchanges.
    fn column_routed(&self, e: ColumnEvent) {
        self.emit(
            SpanKind::Column,
            0,
            0,
            true,
            e.main_stage as u64,
            e.internal_stage as u64,
            e.exchanges,
        );
    }

    /// `a` = destination, `b` = entry port, `c` = exchanged; `seq` packs
    /// the column as `main_stage << 8 | internal_stage`.
    fn cell_hop(&self, e: HopEvent) {
        self.emit(
            SpanKind::Hop,
            ((e.main_stage as u64) << 8) | e.internal_stage as u64,
            0,
            true,
            e.dest as u64,
            e.port as u64,
            u64::from(e.exchanged),
        );
    }

    /// `a` = main stage, `b` = internal stage, `c` = tree depth.
    fn arbiter_sweep(&self, e: SweepEvent) {
        self.emit(
            SpanKind::Sweep,
            0,
            0,
            true,
            e.main_stage as u64,
            e.internal_stage as u64,
            e.depth as u64,
        );
    }

    /// `a` = main stage, `b` = first line, `c` = ones observed.
    fn splitter_conflict(&self, e: ConflictEvent) {
        self.emit(
            SpanKind::Conflict,
            0,
            0,
            false,
            e.main_stage as u64,
            e.first_line as u64,
            e.ones as u64,
        );
    }

    /// `seq` = batch seq, `a` = records.
    fn batch_submitted(&self, e: SubmitEvent) {
        self.emit(SpanKind::Submit, e.seq, 0, true, e.records as u64, 0, 0);
    }

    /// `seq` = batch seq, `a` = records, `dur_ns` = submit-to-completion
    /// latency (the span covers the batch's life, not an instant).
    fn batch_drained(&self, e: DrainEvent) {
        self.emit(
            SpanKind::Drain,
            e.seq,
            e.latency_ns,
            e.ok,
            e.records as u64,
            0,
            0,
        );
    }

    /// `seq` = round, `a` = matched, `b` = backlog.
    fn scheduler_round(&self, e: RoundEvent) {
        self.emit(
            SpanKind::Round,
            e.round,
            0,
            true,
            e.matched as u64,
            e.backlog as u64,
            0,
        );
    }

    /// `a` = main stage, `b` = internal stage, `c` = first line.
    fn hardware_fault(&self, e: FaultEvent) {
        self.emit(
            SpanKind::Fault,
            0,
            0,
            false,
            e.main_stage as u64,
            e.internal_stage as u64,
            e.first_line as u64,
        );
    }

    /// `seq` = batch seq, `a` = attempt, `b` = fabric shard — the trace
    /// id (`seq`) ties every retry and the eventual drain (or
    /// quarantine) of a batch into one thread of spans.
    fn batch_retried(&self, e: RetryEvent) {
        self.emit(
            SpanKind::Retry,
            e.seq,
            0,
            false,
            e.attempt as u64,
            e.shard as u64,
            0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(seq: u64) -> Span {
        Span {
            kind: SpanKind::Round,
            ts_ns: seq,
            dur_ns: 0,
            lane: 0,
            seq,
            a: 0,
            b: 0,
            c: 0,
            ok: true,
        }
    }

    #[test]
    fn pack_round_trips_every_kind() {
        for kind in [
            SpanKind::Column,
            SpanKind::Sweep,
            SpanKind::Conflict,
            SpanKind::Hop,
            SpanKind::Submit,
            SpanKind::Drain,
            SpanKind::Round,
            SpanKind::Fault,
            SpanKind::Retry,
            SpanKind::Request,
        ] {
            let s = Span {
                kind,
                ts_ns: 123,
                dur_ns: 45,
                lane: 3,
                seq: 9,
                a: 1,
                b: 2,
                c: 3,
                ok: kind != SpanKind::Fault,
            };
            assert_eq!(Span::unpack(s.pack()), s);
        }
    }

    #[test]
    fn overflow_evicts_oldest_and_counts_drops() {
        let rec = FlightRecorder::with_capacity(4);
        for i in 0..10 {
            rec.record(span(i));
        }
        assert_eq!(rec.accepted(), 10);
        assert_eq!(rec.dropped(), 6);
        assert_eq!(rec.len(), 4);
        let seqs: Vec<u64> = rec.spans().iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "only the newest survive");
    }

    #[test]
    fn rate_sampling_counts_rejections() {
        let rec = FlightRecorder::with_capacity(16).policy(SamplePolicy::Rate(3));
        for i in 0..9 {
            rec.record(span(i));
        }
        assert_eq!(rec.accepted(), 3);
        assert_eq!(rec.sampled_out(), 6);
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.spans().len(), 3);
    }

    #[test]
    fn error_sampling_keeps_only_error_paths() {
        let rec = FlightRecorder::with_capacity(16).policy(SamplePolicy::Errors);
        rec.record(span(0));
        let mut fault = span(1);
        fault.kind = SpanKind::Fault;
        fault.ok = false;
        rec.record(fault);
        let mut failed_drain = span(2);
        failed_drain.kind = SpanKind::Drain;
        failed_drain.ok = false;
        rec.record(failed_drain);
        assert_eq!(rec.accepted(), 2);
        assert_eq!(rec.sampled_out(), 1);
        let kinds: Vec<SpanKind> = rec.spans().iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec![SpanKind::Fault, SpanKind::Drain]);
    }

    #[test]
    fn predicate_sampling_filters() {
        let rec =
            FlightRecorder::with_capacity(16).policy(SamplePolicy::Predicate(|s| s.seq % 2 == 0));
        for i in 0..6 {
            rec.record(span(i));
        }
        let seqs: Vec<u64> = rec.spans().iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![0, 2, 4]);
        assert_eq!(rec.sampled_out(), 3);
    }

    #[test]
    fn observer_events_land_as_spans() {
        let rec = FlightRecorder::with_capacity(16);
        rec.column_routed(ColumnEvent {
            main_stage: 1,
            internal_stage: 2,
            width: 8,
            exchanges: 3,
        });
        rec.batch_drained(DrainEvent {
            seq: 7,
            records: 64,
            latency_ns: 1_000,
            ok: true,
        });
        rec.batch_retried(RetryEvent {
            seq: 7,
            attempt: 1,
            shard: 1,
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        let col = spans.iter().find(|s| s.kind == SpanKind::Column).unwrap();
        assert_eq!((col.a, col.b, col.c), (1, 2, 3));
        let drain = spans.iter().find(|s| s.kind == SpanKind::Drain).unwrap();
        assert_eq!(drain.seq, 7, "the batch seq is the trace id");
        assert_eq!(drain.dur_ns, 1_000);
        let retry = spans.iter().find(|s| s.kind == SpanKind::Retry).unwrap();
        assert_eq!(retry.seq, drain.seq, "retries thread the same trace id");
        assert!(!retry.ok);
    }

    #[test]
    fn hops_are_opt_in() {
        let off = FlightRecorder::with_capacity(4);
        assert!(!off.wants_hops());
        let on = FlightRecorder::with_capacity(4).record_hops(true);
        assert!(on.wants_hops());
        on.cell_hop(HopEvent {
            dest: 3,
            main_stage: 0,
            internal_stage: 1,
            first_line: 0,
            port: 2,
            exchanged: true,
            sweep: 0,
        });
        let spans = on.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].kind, SpanKind::Hop);
        assert_eq!((spans[0].a, spans[0].b, spans[0].c), (3, 2, 1));
    }

    #[test]
    fn concurrent_writers_never_corrupt_spans() {
        let rec = FlightRecorder::with_capacity(32);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let r = &rec;
                scope.spawn(move || {
                    for i in 0..1_000 {
                        let mut s = span(t * 10_000 + i);
                        s.a = s.seq;
                        r.record(s);
                    }
                });
            }
        });
        assert_eq!(rec.accepted(), 4_000);
        for s in rec.spans() {
            assert_eq!(s.kind, SpanKind::Round);
            assert_eq!(s.a, s.seq, "slot words must be from one write");
        }
        assert_eq!(
            rec.accepted() - rec.dropped(),
            rec.spans().len() as u64,
            "retained + dropped = accepted"
        );
    }

    #[test]
    fn stats_snapshot_is_consistent() {
        let rec = FlightRecorder::with_capacity(2).policy(SamplePolicy::Rate(2));
        for i in 0..8 {
            rec.record(span(i));
        }
        let st = rec.stats();
        assert_eq!(st.accepted, 4);
        assert_eq!(st.sampled_out, 4);
        assert_eq!(st.dropped, 2);
        assert_eq!(st.capacity, 2);
        let json = serde_json::to_string(&st).unwrap();
        let back: RecorderStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, st);
    }
}
