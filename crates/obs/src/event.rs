//! Typed events emitted by the routing layers.
//!
//! Every event is a small `Copy` struct so emitting one is a register
//! move, never an allocation. Field vocabulary follows the paper:
//! `main_stage` indexes the GBN's `m` main stages, `internal_stage` the
//! columns of the nested network at that stage, and `first_line` is the
//! *global* input-line coordinate of the reporting site — identical to the
//! coordinates in `RouteError::UnbalancedSplitter` and the route trace.

use serde::{Deserialize, Serialize};

/// One switching column routed over a frame.
///
/// A route of an `N = 2^m` network emits exactly `m(m+1)/2` of these
/// (eq. (7)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnEvent {
    /// Main-network stage (`0..m`).
    pub main_stage: usize,
    /// Column within the stage's nested networks (`0..m - main_stage`).
    pub internal_stage: usize,
    /// Lines covered: the whole frame.
    pub width: usize,
    /// 2×2 switches in this column that exchanged their pair.
    pub exchanges: u64,
}

/// One splitter's arbiter tree sweep (Definition 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepEvent {
    /// Main-network stage.
    pub main_stage: usize,
    /// Column within the stage's nested networks.
    pub internal_stage: usize,
    /// Global line coordinate of the splitter's first line.
    pub first_line: usize,
    /// Splitter width `2^p`.
    pub width: usize,
    /// Tree depth `p` swept up and down — the per-splitter term the
    /// paper's delay model charges in eq. (8).
    pub depth: usize,
}

/// One main stage's totals over one routing call: what the stage's
/// [`ColumnEvent`]s and [`SweepEvent`]s would have added up to. Emitted
/// instead of them to observers that decline per-column events
/// ([`Observer::wants_columns`](crate::Observer::wants_columns)), so the
/// word-parallel kernels can count as they route.
///
/// A full frame's stage `s` of an `N = 2^m` network contributes `m − s`
/// columns and `N − 2^s` sweeps of depth at most `m − s`; a route that
/// stops at a splitter error reports only the columns it completed and
/// the boxes it swept before stopping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTotalsEvent {
    /// Main-network stage (`0..m`).
    pub main_stage: usize,
    /// Lines per frame.
    pub width: usize,
    /// Frames the totals sum over.
    pub frames: u64,
    /// Switching columns completed, one per column per frame.
    pub columns: u64,
    /// Splitter boxes swept (one arbiter sweep each).
    pub sweeps: u64,
    /// 2×2 switches that exchanged their pair in the completed columns.
    pub exchanges: u64,
    /// Deepest arbiter tree swept (`0` when no box was).
    pub max_depth: usize,
}

/// A splitter whose §4 balance assumption was violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConflictEvent {
    /// Main-network stage.
    pub main_stage: usize,
    /// Column within the stage's nested networks.
    pub internal_stage: usize,
    /// Global line coordinate of the splitter's first line.
    pub first_line: usize,
    /// Splitter width.
    pub width: usize,
    /// One-bits observed (odd for `width ≥ 4`, `≠ 1` for `width == 2`).
    pub ones: usize,
}

/// One cell crossing one switching column: the per-cell companion to
/// [`ColumnEvent`], emitted only when
/// [`Observer::wants_hops`](crate::Observer::wants_hops) is true (path
/// tracing is opt-in because a frame of `N` cells emits `N` of these per
/// column — `N·m(m+1)/2` per route).
///
/// A cell's ordered hop list reconstructs its entire route: `port` is the
/// global line the cell occupied *entering* the column, `exchanged` the
/// switch setting applied to its pair, so the exit line is `port ^ 1` when
/// exchanged and `port` otherwise, and the next column's entry line
/// follows from the wiring. The hop with `internal_stage == 0` is the
/// cell's *main-stage hop* for that stage — exactly `m` of them per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopEvent {
    /// Destination address of the cell (its identity under permutation
    /// traffic).
    pub dest: usize,
    /// Main-network stage.
    pub main_stage: usize,
    /// Column within the stage's nested networks (the nested BSN slice).
    pub internal_stage: usize,
    /// Global line coordinate of the splitter's first line (the splitter
    /// site, matching [`SweepEvent::first_line`]).
    pub first_line: usize,
    /// Global line the cell occupied entering the column.
    pub port: usize,
    /// Whether the cell's 2×2 switch exchanged its pair.
    pub exchanged: bool,
    /// Arbiter-sweep ordinal: the splitter's index within its column
    /// (`first_line / width`).
    pub sweep: usize,
}

/// A batch entering the engine's bounded submission queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubmitEvent {
    /// Submission sequence number.
    pub seq: u64,
    /// Records in the batch.
    pub records: usize,
}

/// A batch fully routed (or failed) and ready to drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrainEvent {
    /// Submission sequence number.
    pub seq: u64,
    /// Records in the batch.
    pub records: usize,
    /// Submit-to-completion latency in nanoseconds.
    pub latency_ns: u64,
    /// Whether the batch routed successfully.
    pub ok: bool,
}

/// A hardware fault detected mid-route: a splitter in a faulted column
/// produced an unbalanced *output* (`M_e != M_o`), which healthy hardware
/// cannot do on a checked input (Theorem 3). Accompanies every
/// `RouteError::HardwareFault`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Main-network stage of the faulty splitter.
    pub main_stage: usize,
    /// Column within the stage's nested networks.
    pub internal_stage: usize,
    /// Global line coordinate of the splitter's first line.
    pub first_line: usize,
    /// Splitter width.
    pub width: usize,
    /// One-bits observed on even output lines (`M_e`).
    pub even_ones: usize,
    /// One-bits observed on odd output lines (`M_o`).
    pub odd_ones: usize,
}

/// A batch being retried on another fabric shard after a hardware fault
/// (the engine's retry-with-quarantine path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryEvent {
    /// Submission sequence number of the retried batch.
    pub seq: u64,
    /// Retry attempt number (1 = first retry).
    pub attempt: usize,
    /// Fabric shard the attempt runs on.
    pub shard: usize,
}

/// One input-queued-switch scheduler round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundEvent {
    /// Rounds run so far on this switch (this event is round `round`).
    pub round: u64,
    /// Records matched to outputs and routed this round (occupancy).
    pub matched: usize,
    /// Records still queued after the round.
    pub backlog: usize,
}

/// One background scrubber probe of a fabric shard: a seeded test
/// permutation routed through the shard's fault map to check whether a
/// previously detected fault is still present.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrubEvent {
    /// Fabric shard probed.
    pub shard: usize,
    /// Whether the probe routed cleanly (no fault detected).
    pub clean: bool,
    /// Consecutive clean probes on this shard so far (including this one;
    /// 0 when the probe tripped detection).
    pub streak: usize,
}

/// A fabric shard changing repair state: quarantined after the scrubber
/// confirmed a fault, or restored to service after a transient cleared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairEvent {
    /// Fabric shard whose state changed.
    pub shard: usize,
    /// `true`: the shard re-entered service (capacity restored).
    /// `false`: the shard was confirmed dead and quarantined.
    pub restored: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_small_and_copy() {
        fn assert_copy<T: Copy + Send + Sync>() {}
        assert_copy::<ColumnEvent>();
        assert_copy::<HopEvent>();
        assert_copy::<SweepEvent>();
        assert_copy::<StageTotalsEvent>();
        assert_copy::<ConflictEvent>();
        assert_copy::<SubmitEvent>();
        assert_copy::<DrainEvent>();
        assert_copy::<RoundEvent>();
        assert_copy::<FaultEvent>();
        assert_copy::<RetryEvent>();
        assert_copy::<ScrubEvent>();
        assert_copy::<RepairEvent>();
        assert!(std::mem::size_of::<ColumnEvent>() <= 48);
    }

    #[test]
    fn events_serde_roundtrip() {
        let e = ColumnEvent {
            main_stage: 1,
            internal_stage: 2,
            width: 4,
            exchanges: 2,
        };
        let back: ColumnEvent = serde_json::from_str(&serde_json::to_string(&e).unwrap()).unwrap();
        assert_eq!(back, e);
        let r = RoundEvent {
            round: 7,
            matched: 3,
            backlog: 12,
        };
        let back: RoundEvent = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(back, r);
        let h = HopEvent {
            dest: 5,
            main_stage: 0,
            internal_stage: 2,
            first_line: 4,
            port: 6,
            exchanged: true,
            sweep: 1,
        };
        let back: HopEvent = serde_json::from_str(&serde_json::to_string(&h).unwrap()).unwrap();
        assert_eq!(back, h);
        let s = ScrubEvent {
            shard: 2,
            clean: true,
            streak: 3,
        };
        let back: ScrubEvent = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
        let r = RepairEvent {
            shard: 2,
            restored: false,
        };
        let back: RepairEvent = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(back, r);
    }
}
