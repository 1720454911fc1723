//! Request-lifecycle telemetry for the serving path: per-stage latency
//! accounting and per-tenant sliding-window aggregates.
//!
//! The paper's self-routing claim is a *latency* claim — no central
//! control computation between a frame arriving and its cells moving —
//! so the serving layer needs to show where each nanosecond of a served
//! request actually goes. A [`Telemetry`] sink holds one
//! [`AtomicHistogram`] per lifecycle [`Stage`] (decode → admission →
//! queue wait → route → drain → response write), a wire-to-wire
//! histogram the stage sums must reconcile against, and a sliding window
//! of per-tenant aggregates (request count, payload bytes, RETRYs,
//! errors, latency quantiles).
//!
//! # Stage accounting invariant
//!
//! Stages are recorded once per *served* request, all six at delivery
//! time, from timestamps taken at adjacent points of one request's
//! timeline. The stage sums therefore partition the wire-to-wire
//! latency by construction: `Σ stage.sum_ns ≈ wire.sum_ns` up to the
//! instants between adjacent stamps. CI asserts this reconciliation on
//! the serve soak.
//!
//! # Sliding windows
//!
//! Per-tenant state is a ring of [`WINDOW_SLOTS`] slots, each covering
//! one slot period. A recording thread that lands in a slot whose
//! period tag is stale swaps the tag and resets the slot's counters;
//! concurrent recorders racing that reset may smear a handful of counts
//! across the period boundary — acceptable for operator telemetry, and
//! the snapshot only merges slots still inside the window. Stage and
//! wire histograms are cumulative (process lifetime), not windowed, so
//! they reconcile exactly.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::histogram::AtomicHistogram;

/// One lifecycle stage of a served request, in timeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Reading and parsing the frame off the wire (after the length
    /// prefix arrives; idle time between frames is not charged).
    Decode = 0,
    /// Admission control: draining check, window, tenant quota, global
    /// cap.
    Admission = 1,
    /// Admitted, waiting for the route call: the rest of the reactor's
    /// poll turn.
    QueueWait = 2,
    /// Routing proper: the route call that carries the frame's batch.
    Route = 3,
    /// From the route call's return until the frame's reply is encoded.
    Drain = 4,
    /// From the reply being queued until its last byte is written to the
    /// socket.
    Write = 5,
}

/// Number of lifecycle stages.
pub const STAGE_COUNT: usize = 6;

impl Stage {
    /// Every stage, in timeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Decode,
        Stage::Admission,
        Stage::QueueWait,
        Stage::Route,
        Stage::Drain,
        Stage::Write,
    ];

    /// The stage's label (used for Prometheus `stage=` labels and JSON).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Admission => "admission",
            Stage::QueueWait => "queue_wait",
            Stage::Route => "route",
            Stage::Drain => "drain",
            Stage::Write => "write",
        }
    }
}

/// Slots in a tenant's sliding window ring.
pub const WINDOW_SLOTS: usize = 6;

/// One slot of a tenant's sliding window.
struct WindowSlot {
    /// Which slot period these counters describe; stale tags are
    /// reset-on-write when a new period claims the slot.
    period: AtomicU64,
    count: AtomicU64,
    bytes: AtomicU64,
    retries: AtomicU64,
    errors: AtomicU64,
    hist: AtomicHistogram,
}

impl WindowSlot {
    fn new() -> Self {
        WindowSlot {
            period: AtomicU64::new(u64::MAX),
            count: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            hist: AtomicHistogram::new(),
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
        self.errors.store(0, Ordering::Relaxed);
        self.hist.reset();
    }
}

/// One tenant's sliding-window ring. Shared behind an [`Arc`] so readers
/// cache the handle and skip the registry lock on the hot path.
pub struct TenantWindow {
    slots: [WindowSlot; WINDOW_SLOTS],
}

impl TenantWindow {
    fn new() -> Self {
        TenantWindow {
            slots: std::array::from_fn(|_| WindowSlot::new()),
        }
    }

    /// The slot for `period`, reset if it still holds an older period.
    fn slot(&self, period: u64) -> &WindowSlot {
        let slot = &self.slots[(period % WINDOW_SLOTS as u64) as usize];
        if slot.period.load(Ordering::Acquire) != period
            && slot.period.swap(period, Ordering::AcqRel) != period
        {
            slot.reset();
        }
        slot
    }

    /// Merges the slots still inside the window ending at `now_period`.
    fn merged(&self, now_period: u64) -> (u64, u64, u64, u64, crate::LatencyHistogram) {
        let oldest = now_period.saturating_sub(WINDOW_SLOTS as u64 - 1);
        let (mut count, mut bytes, mut retries, mut errors) = (0, 0, 0, 0);
        let mut hist = crate::LatencyHistogram::new();
        for slot in &self.slots {
            let period = slot.period.load(Ordering::Acquire);
            if period < oldest || period > now_period {
                continue;
            }
            count += slot.count.load(Ordering::Relaxed);
            bytes += slot.bytes.load(Ordering::Relaxed);
            retries += slot.retries.load(Ordering::Relaxed);
            errors += slot.errors.load(Ordering::Relaxed);
            hist.merge(&slot.hist.snapshot());
        }
        (count, bytes, retries, errors, hist)
    }
}

/// The serving path's telemetry sink; see the [module docs](self).
pub struct Telemetry {
    started: Instant,
    slot: Duration,
    stages: [AtomicHistogram; STAGE_COUNT],
    wire: AtomicHistogram,
    slow_threshold_ns: AtomicU64,
    slow_captured: AtomicU64,
    tenants: Mutex<HashMap<u16, Arc<TenantWindow>>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// The default sliding-window slot width (window = slot × slots).
    pub const DEFAULT_SLOT: Duration = Duration::from_secs(10);

    /// A telemetry sink with the default 60-second sliding window.
    pub fn new() -> Self {
        Self::with_slot(Self::DEFAULT_SLOT)
    }

    /// A sink whose tenant windows cover `slot × WINDOW_SLOTS` of wall
    /// clock (minimum 1 ms per slot).
    pub fn with_slot(slot: Duration) -> Self {
        Telemetry {
            started: Instant::now(),
            slot: slot.max(Duration::from_millis(1)),
            stages: std::array::from_fn(|_| AtomicHistogram::new()),
            wire: AtomicHistogram::new(),
            slow_threshold_ns: AtomicU64::new(0),
            slow_captured: AtomicU64::new(0),
            tenants: Mutex::new(HashMap::new()),
        }
    }

    /// Sets the slow-request threshold (None disables capture).
    pub fn set_slow_threshold(&self, threshold: Option<Duration>) {
        let ns = threshold
            .map(|d| d.as_nanos().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(0);
        self.slow_threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// The slow threshold in ns, 0 when capture is off.
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns.load(Ordering::Relaxed)
    }

    /// True when `wire_ns` crosses the slow threshold; counts the hit.
    pub fn note_if_slow(&self, wire_ns: u64) -> bool {
        let threshold = self.slow_threshold_ns();
        if threshold == 0 || wire_ns < threshold {
            return false;
        }
        self.slow_captured.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Milliseconds since this sink was constructed.
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis().min(u128::from(u64::MAX)) as u64
    }

    fn now_period(&self) -> u64 {
        (self.started.elapsed().as_nanos() / self.slot.as_nanos().max(1)) as u64
    }

    /// Records one lifecycle stage duration (cumulative, not windowed).
    pub fn record_stage(&self, stage: Stage, ns: u64) {
        self.stages[stage as usize].record(ns);
    }

    /// The tenant's window handle; cache it and record through the
    /// `_in` methods to skip the registry lock.
    pub fn tenant(&self, tenant: u16) -> Arc<TenantWindow> {
        Arc::clone(
            self.tenants
                .lock()
                .unwrap()
                .entry(tenant)
                .or_insert_with(|| Arc::new(TenantWindow::new())),
        )
    }

    /// Records one served request: wire-to-wire latency plus the
    /// tenant's window count/bytes/latency.
    pub fn record_request(&self, tenant: u16, bytes: u64, wire_ns: u64) {
        self.record_request_in(&self.tenant(tenant), bytes, wire_ns);
    }

    /// [`record_request`](Self::record_request) through a cached window
    /// handle ([`tenant`](Self::tenant)).
    pub fn record_request_in(&self, window: &TenantWindow, bytes: u64, wire_ns: u64) {
        self.wire.record(wire_ns);
        let slot = window.slot(self.now_period());
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.bytes.fetch_add(bytes, Ordering::Relaxed);
        slot.hist.record(wire_ns);
    }

    /// Records one RETRY pushed back to the tenant.
    pub fn record_retry(&self, tenant: u16) {
        self.record_retry_in(&self.tenant(tenant));
    }

    /// [`record_retry`](Self::record_retry) through a cached window handle.
    pub fn record_retry_in(&self, window: &TenantWindow) {
        let slot = window.slot(self.now_period());
        slot.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one ERROR answered to the tenant.
    pub fn record_error(&self, tenant: u16) {
        self.record_error_in(&self.tenant(tenant));
    }

    /// [`record_error`](Self::record_error) through a cached window handle.
    pub fn record_error_in(&self, window: &TenantWindow) {
        let slot = window.slot(self.now_period());
        slot.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time snapshot: cumulative stage/wire quantiles plus
    /// every tenant's current window, sorted by tenant id.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let stages = Stage::ALL
            .iter()
            .map(|&s| StageSnapshot::from_histogram(s.name(), &self.stages[s as usize].snapshot()))
            .collect();
        let wire = StageSnapshot::from_histogram("wire", &self.wire.snapshot());
        let now_period = self.now_period();
        let mut tenants: Vec<TenantSnapshot> = self
            .tenants
            .lock()
            .unwrap()
            .iter()
            .map(|(&tenant, window)| {
                let (count, bytes, retries, errors, hist) = window.merged(now_period);
                TenantSnapshot {
                    tenant,
                    count,
                    bytes,
                    retries,
                    errors,
                    p50_ns: hist.quantile(0.50),
                    p95_ns: hist.quantile(0.95),
                    p99_ns: hist.quantile(0.99),
                }
            })
            .collect();
        tenants.sort_by_key(|t| t.tenant);
        TelemetrySnapshot {
            uptime_ms: self.uptime_ms(),
            window_ms: (self.slot.as_millis() as u64) * WINDOW_SLOTS as u64,
            slow_threshold_ns: self.slow_threshold_ns(),
            slow_captured: self.slow_captured.load(Ordering::Relaxed),
            stages,
            wire,
            tenants,
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("uptime_ms", &self.uptime_ms())
            .field("slot", &self.slot)
            .finish()
    }
}

/// One stage's cumulative latency aggregate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// Stage label ([`Stage::name`], or `"wire"` for wire-to-wire).
    pub stage: String,
    /// Requests measured.
    pub count: u64,
    /// Total nanoseconds spent in this stage across all requests.
    pub sum_ns: u64,
    /// Median.
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// Slowest observation.
    pub max_ns: u64,
}

impl StageSnapshot {
    fn from_histogram(stage: &str, hist: &crate::LatencyHistogram) -> Self {
        StageSnapshot {
            stage: stage.to_string(),
            count: hist.count(),
            sum_ns: hist.sum_ns(),
            p50_ns: hist.quantile(0.50),
            p95_ns: hist.quantile(0.95),
            p99_ns: hist.quantile(0.99),
            max_ns: hist.max_ns(),
        }
    }
}

/// One tenant's sliding-window aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantSnapshot {
    /// Tenant id.
    pub tenant: u16,
    /// Requests served inside the window.
    pub count: u64,
    /// Payload bytes served inside the window.
    pub bytes: u64,
    /// RETRYs pushed back inside the window.
    pub retries: u64,
    /// ERRORs answered inside the window.
    pub errors: u64,
    /// Median wire-to-wire latency inside the window.
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
}

/// Everything [`Telemetry::snapshot`] reports; serde-serializable for
/// the `/status` endpoint and `bnb top`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Milliseconds since the sink was constructed.
    pub uptime_ms: u64,
    /// Width of the tenant sliding window.
    pub window_ms: u64,
    /// Slow-request threshold in ns (0 = capture off).
    pub slow_threshold_ns: u64,
    /// Requests that crossed the slow threshold.
    pub slow_captured: u64,
    /// Cumulative per-stage aggregates, timeline order.
    pub stages: Vec<StageSnapshot>,
    /// Cumulative wire-to-wire aggregate the stage sums reconcile with.
    pub wire: StageSnapshot,
    /// Per-tenant sliding windows, sorted by tenant id.
    pub tenants: Vec<TenantSnapshot>,
}

impl TelemetrySnapshot {
    /// Sum of the per-stage `sum_ns` — reconciles with `wire.sum_ns`.
    pub fn stage_sum_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.sum_ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_accumulate_and_snapshot_in_order() {
        let t = Telemetry::new();
        for (i, &stage) in Stage::ALL.iter().enumerate() {
            t.record_stage(stage, (i as u64 + 1) * 100);
        }
        let snap = t.snapshot();
        assert_eq!(snap.stages.len(), STAGE_COUNT);
        let names: Vec<&str> = snap.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "decode",
                "admission",
                "queue_wait",
                "route",
                "drain",
                "write"
            ]
        );
        for (i, s) in snap.stages.iter().enumerate() {
            assert_eq!(s.count, 1);
            assert_eq!(s.sum_ns, (i as u64 + 1) * 100);
        }
        assert_eq!(snap.stage_sum_ns(), 2100);
    }

    #[test]
    fn served_requests_land_in_the_tenant_window() {
        let t = Telemetry::new();
        t.record_request(3, 256, 1_000);
        t.record_request(3, 256, 3_000);
        t.record_request(9, 64, 2_000);
        t.record_retry(3);
        t.record_error(9);
        let snap = t.snapshot();
        assert_eq!(snap.wire.count, 3);
        assert_eq!(snap.wire.sum_ns, 6_000);
        assert_eq!(snap.tenants.len(), 2);
        let t3 = &snap.tenants[0];
        assert_eq!((t3.tenant, t3.count, t3.bytes, t3.retries), (3, 2, 512, 1));
        assert!(t3.p50_ns >= 1_000);
        let t9 = &snap.tenants[1];
        assert_eq!((t9.tenant, t9.count, t9.errors), (9, 1, 1));
    }

    #[test]
    fn cached_handles_record_as_tenant_ids_do() {
        let (by_id, by_handle) = (Telemetry::new(), Telemetry::new());
        by_id.record_request(3, 256, 1_000);
        by_id.record_request(3, 128, 4_000);
        by_id.record_request(9, 64, 2_000);
        by_id.record_retry(3);
        by_id.record_error(9);
        by_id.record_error(9);
        let (three, nine) = (by_handle.tenant(3), by_handle.tenant(9));
        by_handle.record_request_in(&three, 256, 1_000);
        by_handle.record_request_in(&three, 128, 4_000);
        by_handle.record_request_in(&nine, 64, 2_000);
        by_handle.record_retry_in(&three);
        by_handle.record_error_in(&nine);
        by_handle.record_error_in(&nine);
        let (want, got) = (by_id.snapshot(), by_handle.snapshot());
        assert_eq!(got.tenants, want.tenants);
        assert_eq!(got.wire, want.wire);
        assert_eq!(got.stages, want.stages);
        assert_eq!(got.tenants.len(), 2);
    }

    #[test]
    fn window_slots_expire_old_periods() {
        // A 1 ms slot: after sleeping past the whole window, old counts
        // must no longer be visible.
        let t = Telemetry::with_slot(Duration::from_millis(1));
        t.record_request(0, 8, 100);
        std::thread::sleep(Duration::from_millis(WINDOW_SLOTS as u64 + 5));
        let snap = t.snapshot();
        assert_eq!(
            snap.tenants[0].count, 0,
            "window expired, counts must age out"
        );
        // Cumulative wire stats are not windowed.
        assert_eq!(snap.wire.count, 1);
    }

    #[test]
    fn slow_threshold_counts_only_past_threshold() {
        let t = Telemetry::new();
        assert!(!t.note_if_slow(u64::MAX), "capture off by default");
        t.set_slow_threshold(Some(Duration::from_millis(5)));
        assert!(!t.note_if_slow(4_999_999));
        assert!(t.note_if_slow(5_000_000));
        assert!(t.note_if_slow(u64::MAX));
        assert_eq!(t.snapshot().slow_captured, 2);
        t.set_slow_threshold(None);
        assert!(!t.note_if_slow(u64::MAX));
    }

    #[test]
    fn snapshot_round_trips_through_serde() {
        let t = Telemetry::new();
        t.record_stage(Stage::Route, 500);
        t.record_request(1, 32, 900);
        let snap = t.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let t = Telemetry::new();
        std::thread::scope(|s| {
            for tenant in 0..4u16 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..500 {
                        t.record_request(tenant, 16, 100 + i);
                        t.record_stage(Stage::Decode, 10);
                    }
                });
            }
        });
        let snap = t.snapshot();
        assert_eq!(snap.wire.count, 2_000);
        assert_eq!(snap.stages[0].count, 2_000);
        let total: u64 = snap.tenants.iter().map(|w| w.count).sum();
        assert_eq!(total, 2_000, "every request lands in exactly one window");
    }
}
