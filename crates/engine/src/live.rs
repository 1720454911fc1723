//! Live fabric repair: mutable per-shard fault state and the background
//! scrubber ([`LiveFaultPlan::scrub_while`]) behind
//! [`Engine::run_scrubbed`](crate::Engine::run_scrubbed) and a serving
//! session's reactors.
//!
//! A [`LiveFaultPlan`] is the one fault state every faulted run steers
//! by, scrubbed or not: each fabric shard owns a [`FaultMap`] behind a
//! lock plus a [`ShardHealth`] word, and faults can be injected or
//! cleared *while traffic routes* — the chaos campaign's core primitive.
//! A fixed assignment is a plan whose maps are set once
//! ([`LiveFaultPlan::set_faults`]) and never changed. Routing threads
//! prefer healthy shards, demote a shard to [`ShardHealth::Suspect`] the
//! moment a frame trips its output balance check (Theorem 3's built-in
//! detector), and fall back to round-robin when no healthy shard remains
//! so traffic never pauses.
//!
//! The scrubber thread probes every non-healthy shard, beside the threads
//! that route, with seeded test permutations: a dirty probe confirms the
//! fault and quarantines the shard ([`RepairEvent`] with
//! `restored: false`); enough consecutive clean probes (a cleared
//! transient) restore it to service ([`RepairEvent`] with
//! `restored: true`). Every probe emits a
//! [`ScrubEvent`], so counters and flight recorders see the repair loop
//! breathing. All probe permutations derive from the plan's seed — a
//! campaign re-run with the same seed probes identically.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::RwLock;
use std::time::Duration;

use bnb_core::error::RouteError;
use bnb_core::fault::{FaultKind, FaultMap, FaultSite, FaultyFabric, HardwareFault};
use bnb_core::network::BnbNetwork;
use bnb_obs::{Observer, RepairEvent, ScrubEvent};
use bnb_topology::perm::Permutation;
use bnb_topology::record::records_for_permutation;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::engine::RetryPolicy;

/// A fabric shard's place in the repair state machine.
///
/// ```text
/// Healthy --traffic detects fault--> Suspect --dirty probe--> Quarantined
///    ^                                  |                         |
///    +----- clean-probe streak ---------+-------------------------+
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ShardHealth {
    /// In service: workers route traffic through it.
    Healthy = 0,
    /// Traffic detected a hardware fault; workers avoid it while the
    /// scrubber decides.
    Suspect = 1,
    /// The scrubber confirmed the fault; out of service until a
    /// clean-probe streak restores it.
    Quarantined = 2,
}

impl ShardHealth {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => ShardHealth::Healthy,
            1 => ShardHealth::Suspect,
            _ => ShardHealth::Quarantined,
        }
    }

    /// The state's operator-facing label (used by `/status` and `bnb top`).
    pub fn name(self) -> &'static str {
        match self {
            ShardHealth::Healthy => "healthy",
            ShardHealth::Suspect => "suspect",
            ShardHealth::Quarantined => "quarantined",
        }
    }
}

/// One fabric shard's live state.
#[derive(Debug)]
struct ShardState {
    faults: RwLock<FaultMap>,
    health: AtomicU8,
    clean_streak: AtomicUsize,
    probe_round: AtomicU64,
}

impl ShardState {
    fn new(faults: FaultMap) -> Self {
        ShardState {
            faults: RwLock::new(faults),
            health: AtomicU8::new(ShardHealth::Healthy as u8),
            clean_streak: AtomicUsize::new(0),
            probe_round: AtomicU64::new(0),
        }
    }
}

/// Mutable per-shard fault assignment for
/// [`Engine::run_faulted`](crate::Engine::run_faulted),
/// [`Engine::run_scrubbed`](crate::Engine::run_scrubbed) and a serving
/// session.
///
/// A `LiveFaultPlan` is shared by reference between the routing threads,
/// the scrubber thread, and any chaos driver injecting or clearing
/// faults concurrently. For each job, the routing thread picks a shard
/// (the first healthy one from its own index, rotated per batch) and
/// routes on a point-in-time copy of that shard's map: a fault-free copy
/// takes the engine's healthy path, and a faulted copy routes the job
/// sequentially and retries only the frames that trip. All mutation is
/// internally synchronized; the plan itself is `Sync`.
#[derive(Debug)]
pub struct LiveFaultPlan {
    shards: Vec<ShardState>,
    retry: RetryPolicy,
    probe_seed: u64,
    probe_perms: usize,
    restore_after: usize,
    scrub_interval: Duration,
}

impl LiveFaultPlan {
    /// A plan with `shards` healthy fabric shards (minimum 1) and the
    /// default retry policy, probe seed 0, 4 permutations per probe, 3
    /// consecutive clean probes to restore, and a 50µs scrub interval.
    pub fn healthy(shards: usize) -> Self {
        LiveFaultPlan {
            shards: (0..shards.max(1))
                .map(|_| ShardState::new(FaultMap::new()))
                .collect(),
            retry: RetryPolicy::default(),
            probe_seed: 0,
            probe_perms: 4,
            restore_after: 3,
            scrub_interval: Duration::from_micros(50),
        }
    }

    /// Replaces the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Seeds every scrubber probe permutation (same seed, same probes —
    /// campaigns replay deterministically).
    pub fn with_probe_seed(mut self, seed: u64) -> Self {
        self.probe_seed = seed;
        self
    }

    /// Test permutations routed per probe (minimum 1). More permutations
    /// catch faults that only some traffic patterns excite.
    pub fn with_probe_perms(mut self, perms: usize) -> Self {
        self.probe_perms = perms.max(1);
        self
    }

    /// Consecutive clean probes required to restore a shard (minimum 1).
    pub fn with_restore_after(mut self, probes: usize) -> Self {
        self.restore_after = probes.max(1);
        self
    }

    /// Sleep between scrubber sweeps over the shards.
    pub fn with_scrub_interval(mut self, interval: Duration) -> Self {
        self.scrub_interval = interval;
        self
    }

    /// Number of fabric shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The retry policy.
    pub fn retry(&self) -> &RetryPolicy {
        &self.retry
    }

    /// The probe seed.
    pub fn probe_seed(&self) -> u64 {
        self.probe_seed
    }

    /// Injects one fault into shard `i`'s live fault map (wrapping).
    /// Routing picks it up on the next attempt; detection is left to
    /// traffic and the scrubber, exactly like real hardware.
    pub fn inject(&self, i: usize, site: FaultSite, kind: FaultKind) {
        let shard = &self.shards[i % self.shards.len()];
        shard
            .faults
            .write()
            .expect("fault map lock")
            .insert(site, kind);
    }

    /// Clears every fault on shard `i` (a transient passing). The shard
    /// stays quarantined until the scrubber's clean-probe streak restores
    /// it.
    pub fn clear(&self, i: usize) {
        let shard = &self.shards[i % self.shards.len()];
        shard.faults.write().expect("fault map lock").clear();
    }

    /// Replaces shard `i`'s fault map wholesale.
    pub fn set_faults(&self, i: usize, faults: FaultMap) {
        let shard = &self.shards[i % self.shards.len()];
        *shard.faults.write().expect("fault map lock") = faults;
    }

    /// A point-in-time copy of shard `i`'s fault map.
    pub fn faults_snapshot(&self, i: usize) -> FaultMap {
        self.shards[i % self.shards.len()]
            .faults
            .read()
            .expect("fault map lock")
            .clone()
    }

    /// Shard `i`'s current repair state.
    pub fn health(&self, i: usize) -> ShardHealth {
        ShardHealth::from_u8(
            self.shards[i % self.shards.len()]
                .health
                .load(Ordering::Acquire),
        )
    }

    /// Shards currently in service.
    pub fn healthy_shards(&self) -> usize {
        (0..self.shards.len())
            .filter(|&i| self.health(i) == ShardHealth::Healthy)
            .count()
    }

    /// Whether any shard is out of service.
    pub fn is_degraded(&self) -> bool {
        self.healthy_shards() < self.shards.len()
    }

    /// A serializable point-in-time snapshot of every shard's health and
    /// fault map, for the serving layer's `/status` endpoint and any
    /// other operator surface.
    pub fn status(&self) -> PlanStatus {
        let shards: Vec<ShardStatus> = (0..self.shards.len())
            .map(|i| ShardStatus {
                shard: i,
                health: self.health(i).name().to_string(),
                clean_streak: self.shards[i].clean_streak.load(Ordering::Acquire),
                faults: self.faults_snapshot(i).iter().copied().collect(),
            })
            .collect();
        PlanStatus {
            healthy: self.healthy_shards(),
            degraded: self.is_degraded(),
            shards,
        }
    }

    /// Runs `f` on this thread while a scrubber thread probes this plan's
    /// non-healthy shards on `net`, reporting to `observer`. The scrubber
    /// stops and joins when `f` returns or panics.
    /// [`Engine::run_scrubbed`](crate::Engine::run_scrubbed) is
    /// [`Engine::run_faulted`](crate::Engine::run_faulted) inside it, and
    /// a serving session runs its reactors inside it.
    pub fn scrub_while<R>(
        &self,
        net: BnbNetwork,
        observer: &impl Observer,
        f: impl FnOnce() -> R,
    ) -> R {
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| scrubber_loop(&stop, net, self, observer));
            let _stop = StopGuard(&stop);
            f()
        })
    }

    /// The shard attempt `attempt` of a frame owned by `worker` routes
    /// on: the first healthy shard in round-robin order from
    /// `worker + attempt`, or plain round-robin when nothing is healthy
    /// (the engine keeps trying rather than stalling — a later attempt or
    /// a repair may still land).
    pub(crate) fn pick_shard(&self, worker: usize, attempt: usize) -> usize {
        let count = self.shards.len();
        for offset in 0..count {
            let i = (worker + attempt + offset) % count;
            if self.health(i) == ShardHealth::Healthy {
                return i;
            }
        }
        (worker + attempt) % count
    }

    /// Traffic hit a hardware fault on shard `i`: demote `Healthy` to
    /// `Suspect` (the scrubber takes it from there) and void any clean
    /// streak. Quarantined shards stay quarantined.
    pub(crate) fn mark_suspect(&self, i: usize) {
        let shard = &self.shards[i % self.shards.len()];
        shard.clean_streak.store(0, Ordering::Release);
        let _ = shard.health.compare_exchange(
            ShardHealth::Healthy as u8,
            ShardHealth::Suspect as u8,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// A dirty probe on shard `i`: quarantine it. Returns `true` on the
    /// transition into `Quarantined` (emit the repair event exactly once).
    fn quarantine(&self, i: usize) -> bool {
        let shard = &self.shards[i];
        shard.clean_streak.store(0, Ordering::Release);
        shard
            .health
            .swap(ShardHealth::Quarantined as u8, Ordering::AcqRel)
            != ShardHealth::Quarantined as u8
    }

    /// A clean probe on shard `i`: bump and return the streak.
    fn record_clean(&self, i: usize) -> usize {
        self.shards[i].clean_streak.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// The streak reached the restore threshold: return shard `i` to
    /// service. Returns `true` if it was out of service.
    fn restore(&self, i: usize) -> bool {
        let shard = &self.shards[i];
        shard.clean_streak.store(0, Ordering::Release);
        shard
            .health
            .swap(ShardHealth::Healthy as u8, Ordering::AcqRel)
            != ShardHealth::Healthy as u8
    }

    fn next_probe_round(&self, i: usize) -> u64 {
        self.shards[i].probe_round.fetch_add(1, Ordering::Relaxed)
    }
}

/// One shard's entry in a [`PlanStatus`] snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: usize,
    /// Health label: `"healthy"`, `"suspect"`, or `"quarantined"`.
    pub health: String,
    /// Consecutive clean scrubber probes so far.
    pub clean_streak: usize,
    /// The shard's live fault map.
    pub faults: Vec<HardwareFault>,
}

/// A serializable snapshot of a [`LiveFaultPlan`], from
/// [`LiveFaultPlan::status`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanStatus {
    /// Shards currently in service.
    pub healthy: usize,
    /// Whether any shard is out of service.
    pub degraded: bool,
    /// Per-shard health and fault maps, in shard order.
    pub shards: Vec<ShardStatus>,
}

/// Sets the scrubber's stop flag on drop (see
/// [`LiveFaultPlan::scrub_while`]).
struct StopGuard<'a>(&'a AtomicBool);

impl Drop for StopGuard<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// The scrubber: sweeps every non-healthy shard, probing it with seeded
/// test permutations on a private [`FaultyFabric`] (probes never touch
/// the traffic path and their detections do not count as traffic faults).
/// Runs until `stop` is set by [`LiveFaultPlan::scrub_while`]'s scope
/// winding down.
fn scrubber_loop<O: Observer>(
    stop: &AtomicBool,
    net: BnbNetwork,
    plan: &LiveFaultPlan,
    observer: &O,
) {
    let observing = observer.enabled();
    let n = net.inputs();
    let mut fabric = FaultyFabric::new(net, FaultMap::new());
    let mut lines = Vec::with_capacity(n);
    while !stop.load(Ordering::Acquire) {
        for shard in 0..plan.shards() {
            if plan.health(shard) == ShardHealth::Healthy {
                continue;
            }
            fabric.set_faults(plan.faults_snapshot(shard));
            let round = plan.next_probe_round(shard);
            // Distinct, reproducible stream per (seed, shard, round).
            let mut rng = StdRng::seed_from_u64(
                plan.probe_seed()
                    ^ (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    ^ round.wrapping_mul(0x2545_f491_4f6c_dd1d),
            );
            let mut clean = true;
            for _ in 0..plan.probe_perms {
                lines.clear();
                lines.extend(records_for_permutation(&Permutation::random(n, &mut rng)));
                if matches!(
                    fabric.route_in_place(&mut lines),
                    Err(RouteError::HardwareFault { .. })
                ) {
                    clean = false;
                    break;
                }
            }
            if clean {
                let streak = plan.record_clean(shard);
                if observing {
                    observer.shard_scrubbed(ScrubEvent {
                        shard,
                        clean: true,
                        streak,
                    });
                }
                if streak >= plan.restore_after && plan.restore(shard) && observing {
                    observer.shard_repaired(RepairEvent {
                        shard,
                        restored: true,
                    });
                }
            } else {
                if observing {
                    observer.shard_scrubbed(ScrubEvent {
                        shard,
                        clean: false,
                        streak: 0,
                    });
                }
                if plan.quarantine(shard) && observing {
                    observer.shard_repaired(RepairEvent {
                        shard,
                        restored: false,
                    });
                }
            }
        }
        if plan.scrub_interval.is_zero() {
            std::thread::yield_now();
        } else {
            std::thread::sleep(plan.scrub_interval);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnb_obs::Counters;

    fn stuck(site: (usize, usize, usize)) -> (FaultSite, FaultKind) {
        (
            FaultSite::new(site.0, site.1, site.2),
            FaultKind::StuckExchange,
        )
    }

    #[test]
    fn health_state_machine_transitions() {
        let plan = LiveFaultPlan::healthy(3);
        assert_eq!(plan.healthy_shards(), 3);
        assert!(!plan.is_degraded());
        plan.mark_suspect(1);
        assert_eq!(plan.health(1), ShardHealth::Suspect);
        assert_eq!(plan.healthy_shards(), 2);
        assert!(plan.is_degraded());
        assert!(plan.quarantine(1), "first quarantine is a transition");
        assert!(!plan.quarantine(1), "re-quarantine is not");
        assert_eq!(plan.health(1), ShardHealth::Quarantined);
        // A suspect mark cannot resurrect a quarantined shard.
        plan.mark_suspect(1);
        assert_eq!(plan.health(1), ShardHealth::Quarantined);
        assert_eq!(plan.record_clean(1), 1);
        assert_eq!(plan.record_clean(1), 2);
        assert!(plan.restore(1));
        assert!(!plan.restore(1), "already in service");
        assert_eq!(plan.healthy_shards(), 3);
    }

    #[test]
    fn pick_shard_avoids_unhealthy_shards() {
        let plan = LiveFaultPlan::healthy(3);
        assert_eq!(plan.pick_shard(0, 0), 0);
        plan.mark_suspect(0);
        assert_eq!(plan.pick_shard(0, 0), 1, "suspect shard 0 skipped");
        plan.mark_suspect(1);
        assert_eq!(plan.pick_shard(0, 0), 2);
        plan.mark_suspect(2);
        assert_eq!(
            plan.pick_shard(0, 0),
            0,
            "all unhealthy: plain round-robin keeps traffic flowing"
        );
        assert_eq!(plan.pick_shard(0, 1), 1);
        assert!(plan.restore(1));
        assert_eq!(plan.pick_shard(0, 0), 1, "restored shard back in rotation");
    }

    #[test]
    fn fault_edits_are_visible_through_snapshots() {
        let plan = LiveFaultPlan::healthy(2);
        let (site, kind) = stuck((0, 0, 0));
        plan.inject(1, site, kind);
        assert_eq!(plan.faults_snapshot(1).len(), 1);
        assert!(plan.faults_snapshot(0).is_empty());
        plan.clear(1);
        assert!(plan.faults_snapshot(1).is_empty());
        plan.set_faults(0, FaultMap::single(site, kind));
        assert_eq!(plan.faults_snapshot(0).len(), 1);
    }

    #[test]
    fn status_reports_health_and_faults_and_round_trips() {
        let plan = LiveFaultPlan::healthy(2);
        let (site, kind) = stuck((1, 0, 2));
        plan.inject(1, site, kind);
        plan.mark_suspect(1);
        let status = plan.status();
        assert_eq!(status.shards.len(), 2);
        assert_eq!(status.healthy, 1);
        assert!(status.degraded);
        assert_eq!(status.shards[0].health, "healthy");
        assert!(status.shards[0].faults.is_empty());
        assert_eq!(status.shards[1].health, "suspect");
        assert_eq!(status.shards[1].faults.len(), 1);
        assert_eq!(status.shards[1].faults[0].site, site);
        let json = serde_json::to_string(&status).unwrap();
        let back: PlanStatus = serde_json::from_str(&json).unwrap();
        assert_eq!(back, status);
    }

    #[test]
    fn scrubber_quarantines_then_restores_a_transient() {
        let counters = Counters::new();
        let net = BnbNetwork::new(3);
        let plan = LiveFaultPlan::healthy(2)
            .with_probe_seed(7)
            .with_restore_after(2)
            .with_scrub_interval(Duration::ZERO);
        let (site, kind) = stuck((0, 0, 0));
        plan.inject(1, site, kind);
        plan.mark_suspect(1);
        plan.scrub_while(net, &counters, || {
            // Quarantine must come first, then the clear must restore.
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while plan.health(1) != ShardHealth::Quarantined {
                // A probe round the fault happens not to excite can
                // restore the shard early; traffic would immediately
                // re-suspect it, which this loop stands in for.
                if plan.health(1) == ShardHealth::Healthy {
                    plan.mark_suspect(1);
                }
                assert!(std::time::Instant::now() < deadline, "no quarantine");
                std::thread::yield_now();
            }
            plan.clear(1);
            while plan.health(1) != ShardHealth::Healthy {
                assert!(std::time::Instant::now() < deadline, "no restore");
                std::thread::yield_now();
            }
        });
        let snap = counters.snapshot();
        assert!(snap.scrub_probes >= 2, "probes were emitted");
        assert!(snap.shards_quarantined >= 1);
        assert!(snap.shards_restored >= 1);
    }
}
