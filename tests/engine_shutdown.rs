//! Engine shutdown hardening: with concurrent submitters racing a
//! shallow queue through the non-blocking `try_submit_batch`, every
//! accepted frame drains exactly once, in submission order, before the
//! `Engine::run` closure returns and its close takes effect — not just
//! the single-threaded unit tests in `bnb-engine`.

use std::collections::BTreeMap;
use std::thread;
use std::time::Duration;

use bnb::core::batch::FrameBatch;
use bnb::core::network::BnbNetwork;
use bnb::engine::{Engine, EngineConfig, ShardDepth};
use bnb::topology::perm::Permutation;
use bnb::topology::record::records_for_permutation;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn no_frame_is_lost_or_doubled_when_submitters_race() {
    let m = 4;
    let net = BnbNetwork::new(m);
    let engine = Engine::new(
        net,
        EngineConfig {
            workers: 3,
            queue_capacity: 2,
            shard_depth: ShardDepth::Auto,
        },
    );

    let (accepted_per_thread, early, tail) = engine.run(|handle| {
        thread::scope(|s| {
            // Four submitters racing one 2-deep queue: each pushes 10
            // one-frame batches, retrying whenever the queue is full.
            let submitters: Vec<_> = (0..4)
                .map(|t| {
                    let handle = &handle;
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(0xC105_ED00 + t as u64);
                        let mut accepted = Vec::new();
                        while accepted.len() < 10 {
                            let perm = Permutation::random(1 << m, &mut rng);
                            let mut one = FrameBatch::new(1 << m);
                            one.push_frame(&records_for_permutation(&perm));
                            match handle.try_submit_batch(one, &[]) {
                                Ok(seq) => accepted.push(seq),
                                Err(_) => thread::sleep(Duration::from_micros(50)),
                            }
                        }
                        accepted
                    })
                })
                .collect();

            // A draining consumer pulls half the traffic while the
            // submitters race, so the test covers frames delivered on
            // both sides of their join. `drain()` returns None when
            // nothing is outstanding at that instant (submitters may be
            // mid-retry), so poll.
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            let mut early = Vec::new();
            while early.len() < 20 {
                match handle.drain() {
                    Some(batch) => {
                        assert!(batch.result.is_ok(), "racing batch failed");
                        early.push(batch.seq);
                    }
                    None => {
                        assert!(
                            std::time::Instant::now() < deadline,
                            "submitters stalled: only {} of 20 early drains",
                            early.len()
                        );
                        thread::sleep(Duration::from_micros(100));
                    }
                }
            }

            let accepted: Vec<Vec<u64>> =
                submitters.into_iter().map(|h| h.join().unwrap()).collect();
            // Every submitter is done: drain the rest before the closure
            // returns and the engine closes its queue.
            let mut tail = Vec::new();
            while let Some(batch) = handle.drain() {
                tail.push(batch);
            }
            (accepted, early, tail)
        })
    });

    // Ledger: every accepted seq appears exactly once across the racing
    // drains and the tail, in submission order — nothing lost, nothing
    // doubled.
    let mut seen: BTreeMap<u64, usize> = BTreeMap::new();
    let mut order = early.clone();
    for batch in &tail {
        assert!(batch.result.is_ok(), "tail batch {} failed", batch.seq);
        order.push(batch.seq);
    }
    for &seq in &order {
        *seen.entry(seq).or_default() += 1;
    }
    let accepted_total: usize = accepted_per_thread.iter().map(Vec::len).sum();
    assert_eq!(accepted_total, 40, "every submitter lands its 10 frames");
    assert_eq!(
        order,
        (0..40).collect::<Vec<u64>>(),
        "the 40 accepted frames drain in submission order"
    );
    for (seq, count) in &seen {
        assert_eq!(*count, 1, "batch {seq} drained {count} times");
    }
    for accepted in &accepted_per_thread {
        for seq in accepted {
            assert!(seen.contains_key(seq), "accepted batch {seq} never drained");
        }
    }
}
