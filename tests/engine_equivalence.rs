//! Property-based equivalence: the concurrent engine's output must be
//! byte-identical to the sequential `BnbNetwork::route` for every worker
//! count — full permutations, partial traffic, and (under the permissive
//! policy) arbitrary garbage destinations.

use bnb::core::network::{BnbNetwork, RoutePolicy};
use bnb::core::partial::resolve_completed;
use bnb::engine::{Engine, EngineConfig};
use bnb::topology::perm::Permutation;
use bnb::topology::record::{records_for_permutation, Record};
use proptest::prelude::*;
use std::error::Error as _;

fn engine_for(net: BnbNetwork, workers: usize) -> Engine {
    Engine::new(
        net,
        EngineConfig {
            workers,
            queue_capacity: 3,
            ..EngineConfig::default()
        },
    )
}

/// A batch hitting an all-shards-faulted fabric drains as
/// [`bnb::engine::EngineError::Quarantined`] with the fault site reachable
/// through the `source()` chain, while batches the fault happens not to
/// disturb route byte-identically to the healthy sequential network —
/// degraded mode quarantines, it never corrupts.
#[test]
fn faulted_shard_quarantines_while_healthy_batches_match() {
    use bnb::core::{FaultKind, FaultMap, FaultSite, FaultyFabric};
    use bnb::engine::{EngineError, FaultPlan, RetryPolicy};
    use rand::SeedableRng;
    let m = 4usize;
    let n = 1usize << m;
    let net = BnbNetwork::builder(m).data_width(32).build();
    let map = FaultMap::single(FaultSite::new(1, 0, 2), FaultKind::StuckExchange);

    // Split seeded permutations into fault-triggering and fault-immune
    // sets using the sequential faulted fabric as the oracle.
    let mut probe = FaultyFabric::new(net, map.clone());
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let mut tripping = Vec::new();
    let mut immune = Vec::new();
    while (tripping.len() < 2 || immune.len() < 2) && (tripping.len() + immune.len()) < 400 {
        let records = records_for_permutation(&Permutation::random(n, &mut rng));
        match probe.route(&records) {
            Err(_) => tripping.push(records),
            Ok(_) => immune.push(records),
        }
    }
    assert!(
        tripping.len() >= 2 && immune.len() >= 2,
        "oracle found no split"
    );
    let batches: Vec<Vec<Record>> = vec![
        immune[0].clone(),
        tripping[0].clone(),
        immune[1].clone(),
        tripping[1].clone(),
    ];
    let expected: Vec<Vec<Record>> = batches.iter().map(|b| net.route(b).unwrap()).collect();

    let plan = FaultPlan::uniform(map, 2).with_retry(RetryPolicy {
        max_attempts: 2,
        backoff: std::time::Duration::ZERO,
    });
    for workers in [1usize, 3] {
        let engine = engine_for(net, workers);
        let routed = engine.run_faulted(&plan, |h| {
            for b in &batches {
                h.submit(b.clone());
            }
            (0..batches.len())
                .map(|_| h.drain().unwrap())
                .collect::<Vec<_>>()
        });
        for (i, batch) in routed.iter().enumerate() {
            assert_eq!(batch.seq, i as u64);
            if i % 2 == 0 {
                // Fault-immune batches must be byte-identical to the
                // healthy sequential route.
                assert_eq!(
                    batch.result.as_ref().unwrap(),
                    &expected[i],
                    "workers = {workers}, batch {i}"
                );
            } else {
                let err = batch.result.as_ref().unwrap_err();
                assert!(
                    matches!(err, EngineError::Quarantined { attempts: 2, .. }),
                    "expected quarantine after both shards failed, got {err:?}"
                );
                let cause = err.source().expect("quarantine exposes the fault");
                let text = cause.to_string();
                assert!(
                    text.contains("hardware fault") && text.contains("main stage 1"),
                    "cause chain must carry the fault site, got: {text}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random permutations at every worker count 1..=8 route identically
    /// to the sequential network.
    #[test]
    fn engine_matches_sequential_on_permutations(m in 1usize..=7, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 1usize << m;
        let net = BnbNetwork::new(m);
        let batches: Vec<Vec<Record>> = (0..4)
            .map(|_| records_for_permutation(&Permutation::random(n, &mut rng)))
            .collect();
        let expected: Vec<Vec<Record>> = batches
            .iter()
            .map(|b| net.route(b).unwrap())
            .collect();
        for workers in 1usize..=8 {
            let engine = engine_for(net, workers);
            let routed = engine.run(|h| {
                for b in &batches {
                    h.submit(b.clone());
                }
                (0..batches.len()).map(|_| h.drain().unwrap()).collect::<Vec<_>>()
            });
            for (i, batch) in routed.iter().enumerate() {
                prop_assert_eq!(batch.seq, i as u64);
                prop_assert_eq!(
                    batch.result.as_ref().unwrap(),
                    &expected[i],
                    "workers = {}", workers
                );
            }
        }
    }

    /// Random *partial* traffic: destination-completed frames routed
    /// through the engine reconstruct exactly `route_partial`'s outcome,
    /// at every worker count.
    #[test]
    fn engine_matches_route_partial(m in 1usize..=6, seed in any::<u64>()) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 1usize << m;
        let net = BnbNetwork::new(m);
        let perm = Permutation::random(n, &mut rng);
        let slots: Vec<Option<Record>> = (0..n)
            .map(|i| {
                rng.random_bool(0.6)
                    .then(|| Record::new(perm.apply(i), i as u64))
            })
            .collect();
        let expected = net.route_partial(&slots).unwrap();
        let frame = net.completed_frame(&slots).unwrap();
        for workers in 1usize..=8 {
            let engine = engine_for(net.index_sibling(), workers);
            let routed = engine.run(|h| {
                h.submit(frame.clone());
                h.drain().unwrap()
            });
            let outcome = resolve_completed(&slots, &routed.result.unwrap());
            prop_assert_eq!(&outcome, &expected, "workers = {}", workers);
        }
    }

    /// Permissive-policy garbage traffic (arbitrary destinations, possibly
    /// heavily duplicated) still routes byte-identically: BNB routing is
    /// oblivious data movement, so the worker count cannot change the
    /// outcome.
    #[test]
    fn engine_matches_sequential_on_garbage(m in 1usize..=6, seed in any::<u64>()) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 1usize << m;
        let net = BnbNetwork::builder(m).policy(RoutePolicy::Permissive).build();
        let batch: Vec<Record> = (0..n)
            .map(|i| Record::new(rng.random_range(0..n), i as u64))
            .collect();
        let expected = net.route(&batch).unwrap();
        for workers in 1usize..=8 {
            let engine = engine_for(net, workers);
            let routed = engine.run(|h| {
                h.submit(batch.clone());
                h.drain().unwrap()
            });
            prop_assert_eq!(
                routed.result.as_ref().unwrap(),
                &expected,
                "workers = {}", workers
            );
        }
    }
}
