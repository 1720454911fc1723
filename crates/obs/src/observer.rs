//! The [`Observer`] trait, the zero-cost [`NoopObserver`], and the
//! [`Fanout`] combinator for feeding two sinks at once.

use crate::event::{
    ColumnEvent, ConflictEvent, DrainEvent, FaultEvent, HopEvent, RepairEvent, RetryEvent,
    RoundEvent, ScrubEvent, StageTotalsEvent, SubmitEvent, SweepEvent,
};

/// Sink for routing-layer events.
///
/// Instrumented code is generic over `O: Observer` with [`NoopObserver`]
/// as the default, and hoists a single [`enabled`](Observer::enabled)
/// check before any per-event bookkeeping:
///
/// ```
/// use bnb_obs::{NoopObserver, Observer};
/// use bnb_obs::event::ColumnEvent;
///
/// fn route_column<O: Observer>(obs: &O) {
///     let observing = obs.enabled();
///     // ... hot loop; only tally `exchanges` when `observing` ...
///     if observing {
///         obs.column_routed(ColumnEvent {
///             main_stage: 0,
///             internal_stage: 0,
///             width: 8,
///             exchanges: 3,
///         });
///     }
/// }
/// route_column(&NoopObserver);
/// ```
///
/// With `NoopObserver` the check is a constant `false`, so the branch and
/// the event construction fold away — the instrumented binary is the
/// uninstrumented one.
///
/// The trait is object-safe (`&dyn Observer` works for heterogeneous
/// sinks) and every method takes `&self`, so implementations must handle
/// their own synchronization; [`crate::Counters`] uses relaxed atomics.
pub trait Observer: Send + Sync {
    /// Whether this observer wants events at all. Instrumented paths
    /// hoist this out of their hot loops; return `false` only if *every*
    /// event method is a no-op.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// Whether this observer wants per-cell [`HopEvent`]s. Off by default
    /// — a frame of `N` cells emits `N` hops per column, so aggregate
    /// sinks like counters must not pay for them. Hoisted alongside
    /// [`enabled`](Observer::enabled); return `true` only from
    /// path-tracing sinks.
    #[inline]
    fn wants_hops(&self) -> bool {
        false
    }

    /// Whether this observer wants per-column events — one
    /// [`ColumnEvent`] per switching column and one [`SweepEvent`] per
    /// splitter box. On by default. A sink that only sums them returns
    /// `false` and receives one [`StageTotalsEvent`] per main stage
    /// instead; routing for such a sink (when it also declines hops) takes
    /// the same word-parallel kernels as routing with no observer at all.
    /// Conflict and fault events are emitted at either granularity.
    #[inline]
    fn wants_columns(&self) -> bool {
        true
    }

    /// A switching column was routed over `event.width` lines.
    #[inline]
    fn column_routed(&self, event: ColumnEvent) {
        let _ = event;
    }

    /// One cell crossed one switching column (only emitted when
    /// [`wants_hops`](Observer::wants_hops) is true).
    #[inline]
    fn cell_hop(&self, event: HopEvent) {
        let _ = event;
    }

    /// A splitter's arbiter tree completed a sweep of `event.depth`.
    #[inline]
    fn arbiter_sweep(&self, event: SweepEvent) {
        let _ = event;
    }

    /// A main stage was routed over a span: its column and sweep totals
    /// (only emitted when [`wants_columns`](Observer::wants_columns) is
    /// false).
    #[inline]
    fn stage_routed(&self, event: StageTotalsEvent) {
        let _ = event;
    }

    /// A splitter saw an unbalanced request pattern.
    #[inline]
    fn splitter_conflict(&self, event: ConflictEvent) {
        let _ = event;
    }

    /// A batch entered the engine's submission queue.
    #[inline]
    fn batch_submitted(&self, event: SubmitEvent) {
        let _ = event;
    }

    /// A batch finished routing (successfully or not).
    #[inline]
    fn batch_drained(&self, event: DrainEvent) {
        let _ = event;
    }

    /// An input-queued switch completed a scheduler round.
    #[inline]
    fn scheduler_round(&self, event: RoundEvent) {
        let _ = event;
    }

    /// A hardware fault was detected by the output balance check.
    #[inline]
    fn hardware_fault(&self, event: FaultEvent) {
        let _ = event;
    }

    /// A batch is being retried on another fabric shard after a fault.
    #[inline]
    fn batch_retried(&self, event: RetryEvent) {
        let _ = event;
    }

    /// The background scrubber probed a fabric shard.
    #[inline]
    fn shard_scrubbed(&self, event: ScrubEvent) {
        let _ = event;
    }

    /// A fabric shard was quarantined or restored by the repair loop.
    #[inline]
    fn shard_repaired(&self, event: RepairEvent) {
        let _ = event;
    }
}

/// The default observer: observes nothing, costs nothing.
///
/// `enabled()` is a constant `false` and every event method is an empty
/// `#[inline]` body, so instrumentation sites compile to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }
}

/// Forwarding impl so instrumented layers can borrow a shared sink
/// (e.g. one [`crate::Counters`] across engine workers) without wrappers.
impl<O: Observer + ?Sized> Observer for &O {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn wants_hops(&self) -> bool {
        (**self).wants_hops()
    }

    #[inline]
    fn wants_columns(&self) -> bool {
        (**self).wants_columns()
    }

    #[inline]
    fn column_routed(&self, event: ColumnEvent) {
        (**self).column_routed(event);
    }

    #[inline]
    fn cell_hop(&self, event: HopEvent) {
        (**self).cell_hop(event);
    }

    #[inline]
    fn arbiter_sweep(&self, event: SweepEvent) {
        (**self).arbiter_sweep(event);
    }

    #[inline]
    fn stage_routed(&self, event: StageTotalsEvent) {
        (**self).stage_routed(event);
    }

    #[inline]
    fn splitter_conflict(&self, event: ConflictEvent) {
        (**self).splitter_conflict(event);
    }

    #[inline]
    fn batch_submitted(&self, event: SubmitEvent) {
        (**self).batch_submitted(event);
    }

    #[inline]
    fn batch_drained(&self, event: DrainEvent) {
        (**self).batch_drained(event);
    }

    #[inline]
    fn scheduler_round(&self, event: RoundEvent) {
        (**self).scheduler_round(event);
    }

    #[inline]
    fn hardware_fault(&self, event: FaultEvent) {
        (**self).hardware_fault(event);
    }

    #[inline]
    fn batch_retried(&self, event: RetryEvent) {
        (**self).batch_retried(event);
    }

    #[inline]
    fn shard_scrubbed(&self, event: ScrubEvent) {
        (**self).shard_scrubbed(event);
    }

    #[inline]
    fn shard_repaired(&self, event: RepairEvent) {
        (**self).shard_repaired(event);
    }
}

/// Fans every event out to two observers (nest for more).
///
/// `enabled()`/`wants_hops()`/`wants_columns()` are the ORs of the two
/// sinks', so a pair stays zero-cost only when both halves are noops, a
/// pair takes the per-column path when either half wants it — and a
/// hop-hungry tracer can ride alongside an aggregate counter without
/// either knowing about the other:
///
/// ```
/// use bnb_obs::{Counters, Fanout, FlightRecorder, Observer};
/// use bnb_obs::event::ColumnEvent;
///
/// let counters = Counters::new();
/// let recorder = FlightRecorder::with_capacity(64);
/// let both = Fanout::new(&counters, &recorder);
/// both.column_routed(ColumnEvent {
///     main_stage: 0,
///     internal_stage: 0,
///     width: 4,
///     exchanges: 1,
/// });
/// assert_eq!(counters.snapshot().columns, 1);
/// assert_eq!(recorder.len(), 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fanout<A, B> {
    a: A,
    b: B,
}

impl<A: Observer, B: Observer> Fanout<A, B> {
    /// A fanout over the two sinks (take references to share them).
    pub fn new(a: A, b: B) -> Self {
        Fanout { a, b }
    }
}

impl<A: Observer, B: Observer> Observer for Fanout<A, B> {
    #[inline]
    fn enabled(&self) -> bool {
        self.a.enabled() || self.b.enabled()
    }

    #[inline]
    fn wants_hops(&self) -> bool {
        self.a.wants_hops() || self.b.wants_hops()
    }

    #[inline]
    fn wants_columns(&self) -> bool {
        self.a.wants_columns() || self.b.wants_columns()
    }

    #[inline]
    fn column_routed(&self, event: ColumnEvent) {
        self.a.column_routed(event);
        self.b.column_routed(event);
    }

    #[inline]
    fn cell_hop(&self, event: HopEvent) {
        self.a.cell_hop(event);
        self.b.cell_hop(event);
    }

    #[inline]
    fn arbiter_sweep(&self, event: SweepEvent) {
        self.a.arbiter_sweep(event);
        self.b.arbiter_sweep(event);
    }

    #[inline]
    fn stage_routed(&self, event: StageTotalsEvent) {
        self.a.stage_routed(event);
        self.b.stage_routed(event);
    }

    #[inline]
    fn splitter_conflict(&self, event: ConflictEvent) {
        self.a.splitter_conflict(event);
        self.b.splitter_conflict(event);
    }

    #[inline]
    fn batch_submitted(&self, event: SubmitEvent) {
        self.a.batch_submitted(event);
        self.b.batch_submitted(event);
    }

    #[inline]
    fn batch_drained(&self, event: DrainEvent) {
        self.a.batch_drained(event);
        self.b.batch_drained(event);
    }

    #[inline]
    fn scheduler_round(&self, event: RoundEvent) {
        self.a.scheduler_round(event);
        self.b.scheduler_round(event);
    }

    #[inline]
    fn hardware_fault(&self, event: FaultEvent) {
        self.a.hardware_fault(event);
        self.b.hardware_fault(event);
    }

    #[inline]
    fn batch_retried(&self, event: RetryEvent) {
        self.a.batch_retried(event);
        self.b.batch_retried(event);
    }

    #[inline]
    fn shard_scrubbed(&self, event: ScrubEvent) {
        self.a.shard_scrubbed(event);
        self.b.shard_scrubbed(event);
    }

    #[inline]
    fn shard_repaired(&self, event: RepairEvent) {
        self.a.shard_repaired(event);
        self.b.shard_repaired(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn noop_is_disabled() {
        assert!(!NoopObserver.enabled());
        assert!(!Observer::enabled(&&NoopObserver));
        assert!(!NoopObserver.wants_hops());
        assert!(!Observer::wants_hops(&&NoopObserver));
    }

    #[test]
    fn fanout_feeds_both_sinks_and_ors_the_guards() {
        #[derive(Default)]
        struct HopTally(AtomicU64);
        impl Observer for HopTally {
            fn wants_hops(&self) -> bool {
                true
            }
            fn cell_hop(&self, _event: HopEvent) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let tally = HopTally::default();
        let pair = Fanout::new(&NoopObserver, &tally);
        assert!(pair.enabled(), "one live sink enables the pair");
        assert!(pair.wants_hops(), "one hop-hungry sink is enough");
        pair.cell_hop(HopEvent {
            dest: 0,
            main_stage: 0,
            internal_stage: 0,
            first_line: 0,
            port: 0,
            exchanged: false,
            sweep: 0,
        });
        assert_eq!(tally.0.load(Ordering::Relaxed), 1);
        let noops = Fanout::new(&NoopObserver, &NoopObserver);
        assert!(!noops.enabled(), "two noops stay a noop");
        assert!(!noops.wants_hops());
    }

    #[test]
    fn trait_is_object_safe() {
        let obs: &dyn Observer = &NoopObserver;
        assert!(!obs.enabled());
        obs.column_routed(ColumnEvent {
            main_stage: 0,
            internal_stage: 0,
            width: 2,
            exchanges: 0,
        });
    }

    #[test]
    fn fanout_wants_columns_when_either_half_does() {
        #[derive(Default)]
        struct StageTally(AtomicU64);
        impl Observer for StageTally {
            fn wants_columns(&self) -> bool {
                false
            }
            fn stage_routed(&self, event: StageTotalsEvent) {
                self.0.fetch_add(event.columns, Ordering::Relaxed);
            }
        }
        let (a, b) = (StageTally::default(), StageTally::default());
        assert!(NoopObserver.wants_columns(), "per-column is the default");
        assert!(!Fanout::new(&a, &b).wants_columns());
        assert!(Fanout::new(&a, &NoopObserver).wants_columns());
        Fanout::new(&a, &b).stage_routed(StageTotalsEvent {
            main_stage: 0,
            width: 8,
            frames: 1,
            columns: 3,
            sweeps: 7,
            exchanges: 4,
            max_depth: 3,
        });
        assert_eq!(a.0.load(Ordering::Relaxed), 3);
        assert_eq!(b.0.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn reference_forwards_events() {
        #[derive(Default)]
        struct Tally(AtomicU64);
        impl Observer for Tally {
            fn column_routed(&self, _event: ColumnEvent) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let tally = Tally::default();
        let by_ref: &Tally = &tally;
        assert!(by_ref.enabled());
        by_ref.column_routed(ColumnEvent {
            main_stage: 0,
            internal_stage: 0,
            width: 2,
            exchanges: 1,
        });
        assert_eq!(tally.0.load(Ordering::Relaxed), 1);
    }
}
