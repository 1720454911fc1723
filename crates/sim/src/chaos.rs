//! Randomized fault-schedule (chaos) campaigns over the live-repair
//! engine.
//!
//! A [`ChaosSchedule`] is a deterministic, serializable script of fault
//! events — inject, flap, clear — generated from one seed and replayed
//! against [`bnb_engine::Engine::run_scrubbed`] while permutation
//! traffic flows. The campaign asserts the repair loop's contract end to
//! end:
//!
//! - **zero silent misdeliveries** — every delivered frame is compared
//!   record-for-record against the healthy sequential route (Theorem 3's
//!   detect-or-route-correctly guarantee, now under concurrent fault
//!   churn);
//! - **a balanced ledger** — every submitted frame drains as exactly one
//!   of delivered or quarantined;
//! - **capacity recovery** — after the schedule's final clear, the
//!   scrubber restores every shard to service.
//!
//! The same seed regenerates the same schedule, the same probe stream,
//! and the same traffic, so any failure in a CI chaos soak is
//! reproducible from the seed printed in its report.

use bnb_core::fault::{FaultKind, FaultSite};
use bnb_core::network::BnbNetwork;
use bnb_engine::{Engine, EngineConfig, EngineError, LiveFaultPlan, RetryPolicy};
use bnb_obs::Observer;
use bnb_topology::perm::Permutation;
use bnb_topology::record::records_for_permutation;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Duration;

use crate::faults::random_hardware_fault;

/// One scripted fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChaosAction {
    /// Inject one hardware fault into a fabric shard's live map.
    Inject {
        /// Fabric shard to damage.
        shard: usize,
        /// Where the fault sits.
        site: FaultSite,
        /// What breaks.
        kind: FaultKind,
    },
    /// Clear every fault on a fabric shard (a transient passing).
    Clear {
        /// Fabric shard to heal.
        shard: usize,
    },
}

/// A fault event pinned to a point in the traffic stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosOp {
    /// Applied just before frame `at_frame` is submitted.
    pub at_frame: usize,
    /// What happens.
    pub action: ChaosAction,
}

/// A deterministic, serializable chaos script: `ops` fault events spread
/// over `frames` frames of permutation traffic on `shards` fabric
/// shards of an `N = 2^m` network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosSchedule {
    /// Network size exponent.
    pub m: usize,
    /// Fabric shards in the live plan.
    pub shards: usize,
    /// Traffic frames routed while the script runs.
    pub frames: usize,
    /// The generating seed (traffic and scrubber probes reuse it).
    pub seed: u64,
    /// The script, sorted by [`ChaosOp::at_frame`].
    pub ops: Vec<ChaosOp>,
}

impl ChaosSchedule {
    /// Generates a random schedule: `ops` events at random points in the
    /// stream, each either an inject of a random in-bounds hardware
    /// fault on a random shard or a clear of a random shard (biased 2:1
    /// towards injects so faults actually accumulate and flap). Same
    /// arguments, same schedule.
    pub fn generate(m: usize, shards: usize, frames: usize, ops: usize, seed: u64) -> Self {
        let shards = shards.max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut script: Vec<ChaosOp> = (0..ops)
            .map(|_| {
                let at_frame = rng.random_range(0..frames.max(1));
                let shard = rng.random_range(0..shards);
                let action = if rng.random_range(0..3) < 2 {
                    let (site, kind) = random_hardware_fault(m, &mut rng);
                    ChaosAction::Inject { shard, site, kind }
                } else {
                    ChaosAction::Clear { shard }
                };
                ChaosOp { at_frame, action }
            })
            .collect();
        script.sort_by_key(|op| op.at_frame);
        ChaosSchedule {
            m,
            shards,
            frames,
            seed,
            ops: script,
        }
    }

    /// Fault events that damage a shard.
    pub fn injects(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op.action, ChaosAction::Inject { .. }))
            .count()
    }

    /// Fault events that heal a shard.
    pub fn clears(&self) -> usize {
        self.ops.len() - self.injects()
    }
}

/// What one chaos run did, serializable for CI artifacts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// The schedule's seed (reproduces the whole run).
    pub seed: u64,
    /// Traffic frames submitted (scheduled frames plus recovery traffic).
    pub frames_submitted: usize,
    /// Frames delivered, each verified record-for-record against the
    /// healthy sequential route.
    pub frames_delivered: usize,
    /// Frames that exhausted the retry budget and drained as
    /// [`EngineError::Quarantined`] — explicit failures, never silent.
    pub frames_quarantined: usize,
    /// Delivered frames that did NOT match the healthy route — the
    /// campaign's core invariant is that this is always zero.
    pub frames_misdelivered: usize,
    /// Inject events applied.
    pub faults_injected: usize,
    /// Clear events applied (plus the final full clear).
    pub faults_cleared: usize,
    /// Shards in service when the run ended.
    pub healthy_shards_at_end: usize,
    /// Total shards.
    pub shards: usize,
    /// Whether every shard returned to service after the final clear.
    pub recovered: bool,
}

impl ChaosReport {
    /// The run's ledger: every submitted frame drained exactly once, as
    /// a delivery or an explicit quarantine.
    pub fn accounted(&self) -> bool {
        self.frames_submitted == self.frames_delivered + self.frames_quarantined
    }

    /// The whole contract: balanced ledger, zero silent misdeliveries,
    /// and full capacity recovered.
    pub fn holds(&self) -> bool {
        self.accounted() && self.frames_misdelivered == 0 && self.recovered
    }
}

/// Extra lock-step frames allowed for the scrubber to restore every
/// shard after the final clear before the campaign declares recovery
/// failed.
const RECOVERY_FRAME_BUDGET: usize = 10_000;

/// Replays one [`ChaosSchedule`] against a scrubbed engine under
/// lock-step permutation traffic and verifies the repair contract.
///
/// Faults are applied to the shared [`LiveFaultPlan`] at their scheduled
/// frame while the engine routes; every delivered frame is checked
/// against the healthy sequential route; after the script ends, every
/// shard is cleared and traffic continues until the scrubber restores
/// full capacity (bounded by a generous frame budget). Events flow to
/// `observer`.
pub fn chaos_engine_campaign<O: Observer>(
    schedule: &ChaosSchedule,
    workers: usize,
    observer: &O,
) -> ChaosReport {
    let n = 1usize << schedule.m;
    let net = BnbNetwork::builder(schedule.m).data_width(32).build();
    let engine = Engine::with_observer(
        net,
        EngineConfig {
            workers: workers.max(1),
            queue_capacity: 4,
            ..EngineConfig::default()
        },
        observer,
    );
    let plan = LiveFaultPlan::healthy(schedule.shards)
        .with_probe_seed(schedule.seed)
        .with_probe_perms(4)
        .with_restore_after(2)
        .with_scrub_interval(Duration::from_micros(20))
        .with_retry(RetryPolicy {
            max_attempts: (schedule.shards + 1).max(2),
            backoff: Duration::ZERO,
        });
    let mut rng = StdRng::seed_from_u64(schedule.seed.wrapping_add(1));
    let mut report = ChaosReport {
        seed: schedule.seed,
        frames_submitted: 0,
        frames_delivered: 0,
        frames_quarantined: 0,
        frames_misdelivered: 0,
        faults_injected: 0,
        faults_cleared: 0,
        healthy_shards_at_end: 0,
        shards: schedule.shards,
        recovered: false,
    };
    engine.run_scrubbed(&plan, |h| {
        let mut next_op = 0usize;
        let route_one = |report: &mut ChaosReport, rng: &mut StdRng| {
            let lines = records_for_permutation(&Permutation::random(n, rng));
            let expected = net.route(&lines).expect("valid permutation");
            report.frames_submitted += 1;
            h.submit(lines);
            let routed = h.drain().expect("lock-step drain");
            match routed.result {
                Ok(out) => {
                    report.frames_delivered += 1;
                    if out != expected {
                        report.frames_misdelivered += 1;
                    }
                }
                Err(EngineError::Quarantined { .. }) => report.frames_quarantined += 1,
                Err(e) => panic!("valid permutation cannot fail validation: {e}"),
            }
        };
        for frame in 0..schedule.frames {
            while next_op < schedule.ops.len() && schedule.ops[next_op].at_frame <= frame {
                match schedule.ops[next_op].action {
                    ChaosAction::Inject { shard, site, kind } => {
                        plan.inject(shard, site, kind);
                        report.faults_injected += 1;
                    }
                    ChaosAction::Clear { shard } => {
                        plan.clear(shard);
                        report.faults_cleared += 1;
                    }
                }
                next_op += 1;
            }
            route_one(&mut report, &mut rng);
        }
        // Final clear: every transient passes; traffic continues until
        // the scrubber restores every shard (or the budget runs out).
        for shard in 0..schedule.shards {
            plan.clear(shard);
            report.faults_cleared += 1;
        }
        for _ in 0..RECOVERY_FRAME_BUDGET {
            if plan.healthy_shards() == schedule.shards {
                break;
            }
            route_one(&mut report, &mut rng);
        }
        report.healthy_shards_at_end = plan.healthy_shards();
        report.recovered = report.healthy_shards_at_end == schedule.shards;
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnb_obs::NoopObserver;

    #[test]
    fn schedules_are_deterministic_and_sorted() {
        let a = ChaosSchedule::generate(3, 2, 50, 12, 99);
        let b = ChaosSchedule::generate(3, 2, 50, 12, 99);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.ops.len(), 12);
        assert!(a.ops.windows(2).all(|w| w[0].at_frame <= w[1].at_frame));
        assert_eq!(a.injects() + a.clears(), 12);
        let c = ChaosSchedule::generate(3, 2, 50, 12, 100);
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn schedules_serde_round_trip() {
        let s = ChaosSchedule::generate(4, 3, 40, 10, 7);
        let json = serde_json::to_string(&s).unwrap();
        let back: ChaosSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn injected_faults_are_in_bounds() {
        let s = ChaosSchedule::generate(3, 2, 100, 40, 5);
        for op in &s.ops {
            if let ChaosAction::Inject { shard, site, kind } = op.action {
                assert!(shard < 2);
                let fault = bnb_core::fault::HardwareFault { site, kind };
                assert!(fault.in_bounds(3), "out-of-bounds inject: {fault:?}");
            }
        }
    }

    #[test]
    fn chaos_campaign_contract_holds_on_a_small_run() {
        let schedule = ChaosSchedule::generate(3, 2, 60, 8, 41);
        let report = chaos_engine_campaign(&schedule, 2, &NoopObserver);
        assert!(report.accounted(), "ledger out of balance: {report:?}");
        assert_eq!(report.frames_misdelivered, 0, "{report:?}");
        assert!(report.recovered, "capacity not restored: {report:?}");
        assert!(report.holds());
        assert!(report.frames_submitted >= 60);
        assert_eq!(report.faults_injected, schedule.injects());
        assert_eq!(
            report.faults_cleared,
            schedule.clears() + schedule.shards,
            "script clears plus the final full clear"
        );
    }

    #[test]
    fn healthy_schedule_is_pure_delivery() {
        let schedule = ChaosSchedule {
            m: 3,
            shards: 2,
            frames: 20,
            seed: 9,
            ops: Vec::new(),
        };
        let report = chaos_engine_campaign(&schedule, 1, &NoopObserver);
        assert_eq!(report.frames_delivered, 20);
        assert_eq!(report.frames_quarantined, 0);
        assert!(report.holds());
    }
}
