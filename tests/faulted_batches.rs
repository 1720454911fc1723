//! Batch jobs under a fault plan: one `FrameBatch` submitted through
//! `try_submit_batch` to `Engine::run_faulted` keeps per-frame fault
//! semantics. Frames the fault leaves alone deliver untouched; frames
//! whose output balance check trips are retried on another shard, or
//! quarantined when every shard carries the fault — each under its own
//! sequence number and completion token.

use std::time::Duration;

use bnb::core::batch::FrameBatch;
use bnb::core::network::BnbNetwork;
use bnb::core::{FaultKind, FaultMap, FaultSite, FaultyFabric, RouteError};
use bnb::engine::{Engine, EngineConfig, EngineError, FaultPlan, RetryPolicy, RoutedBatch};
use bnb::obs::Counters;
use bnb::topology::perm::Permutation;
use bnb::topology::record::{records_for_permutation, Record};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Frames per batch: even indices are fault-immune, odd ones trip.
const FRAMES: usize = 8;

fn stuck_map() -> FaultMap {
    FaultMap::single(FaultSite::new(0, 0, 0), FaultKind::StuckExchange)
}

/// `FRAMES` seeded permutations alternating fault-immune and
/// fault-tripping under `faults`, split by routing each through a
/// sequential `FaultyFabric`.
fn alternating_frames(net: BnbNetwork, faults: &FaultMap, seed: u64) -> Vec<Vec<Record>> {
    let mut fabric = FaultyFabric::new(net, faults.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut immune, mut tripping) = (Vec::new(), Vec::new());
    for _ in 0..1000 {
        if immune.len() >= FRAMES / 2 && tripping.len() >= FRAMES / 2 {
            break;
        }
        let lines = records_for_permutation(&Permutation::random(net.inputs(), &mut rng));
        match fabric.route(&lines) {
            Ok(_) => immune.push(lines),
            Err(RouteError::HardwareFault { .. }) => tripping.push(lines),
            Err(e) => panic!("a valid permutation failed for another reason: {e}"),
        }
    }
    assert!(
        immune.len() >= FRAMES / 2 && tripping.len() >= FRAMES / 2,
        "the oracle found no alternating split"
    );
    immune
        .into_iter()
        .zip(tripping)
        .flat_map(|(a, b)| [a, b])
        .take(FRAMES)
        .collect()
}

fn token(f: usize) -> u64 {
    0xC0DE_0000 + f as u64
}

/// Submits `frames` as one batch with a distinct token per frame and
/// drains every frame; returns the batch's first seq and the drains.
fn run_batch(
    engine: &Engine<&Counters>,
    plan: &FaultPlan,
    frames: &[Vec<Record>],
) -> (u64, Vec<RoutedBatch>) {
    let mut batch = FrameBatch::with_capacity(frames[0].len(), frames.len());
    for frame in frames {
        batch.push_frame(frame);
    }
    let tokens: Vec<u64> = (0..frames.len()).map(token).collect();
    engine.run_faulted(plan, |h| {
        let base = h
            .try_submit_batch(batch, &tokens)
            .expect("an idle engine has queue room");
        let drained = (0..frames.len()).map(|_| h.drain().unwrap()).collect();
        (base, drained)
    })
}

#[test]
fn tripping_frames_of_a_batch_retry_onto_the_healthy_shard() {
    let net = BnbNetwork::new(3);
    let map = stuck_map();
    let frames = alternating_frames(net, &map, 5);
    let counters = Counters::new();
    let engine = Engine::with_observer(net, EngineConfig::with_workers(1), &counters);
    let plan = FaultPlan::new(
        vec![map, FaultMap::new()],
        RetryPolicy {
            max_attempts: 2,
            backoff: Duration::ZERO,
        },
    );
    let (base, drained) = run_batch(&engine, &plan, &frames);
    for (f, routed) in drained.iter().enumerate() {
        assert_eq!(routed.seq, base + f as u64, "frame {f} keeps its seq");
        assert_eq!(routed.token, token(f), "frame {f} keeps its token");
        assert_eq!(
            routed.result.as_ref().expect("the retry lands on shard 1"),
            &net.route(&frames[f]).unwrap(),
            "frame {f} must match the healthy route"
        );
    }
    let snap = counters.snapshot();
    assert_eq!(
        snap.fault_retries,
        (FRAMES / 2) as u64,
        "one retry per tripping frame"
    );
    assert_eq!(snap.hardware_faults, (FRAMES / 2) as u64);
    assert_eq!(snap.batch_errors, 0);
}

#[test]
fn uniform_faults_quarantine_exactly_the_tripping_frames_of_a_batch() {
    let net = BnbNetwork::new(3);
    let map = stuck_map();
    let frames = alternating_frames(net, &map, 6);
    let counters = Counters::new();
    let engine = Engine::with_observer(net, EngineConfig::with_workers(1), &counters);
    let plan = FaultPlan::uniform(map, 2).with_retry(RetryPolicy {
        max_attempts: 3,
        backoff: Duration::ZERO,
    });
    let (base, drained) = run_batch(&engine, &plan, &frames);
    for (f, routed) in drained.iter().enumerate() {
        assert_eq!(routed.seq, base + f as u64, "frame {f} keeps its seq");
        assert_eq!(routed.token, token(f), "frame {f} keeps its token");
        if f % 2 == 0 {
            assert_eq!(
                routed.result.as_ref().expect("an immune frame delivers"),
                &net.route(&frames[f]).unwrap(),
                "frame {f} must match the healthy route"
            );
        } else {
            let err = routed.result.as_ref().unwrap_err();
            assert!(
                matches!(err, EngineError::Quarantined { attempts: 3, .. }),
                "frame {f}: expected quarantine after 3 attempts, got {err:?}"
            );
            assert_eq!(err.seq(), routed.seq);
            assert!(matches!(
                err.route_error(),
                RouteError::HardwareFault { .. }
            ));
        }
    }
    assert_eq!(counters.snapshot().batch_errors, (FRAMES / 2) as u64);
}
