//! Kernel equivalence: the bit-packed word-parallel fast path and the
//! frame-batched SoA kernel in `bnb_core` must be byte-identical to the
//! scalar sweep they replaced — same final frames on success, same error
//! values on failure — across sizes, policies, fault campaigns and batch
//! shapes.
//!
//! The scalar sweep stays selectable as [`Kernel::Scalar`] precisely so
//! this suite can hold the kernels against each other forever.

use bnb::core::batch::{route_batch, BatchOutcome, FrameBatch};
use bnb::core::network::{BnbNetwork, RoutePolicy, WiringMode};
use bnb::core::stages::{Kernel, RouteSpan, StageScratch};
use bnb::core::{FaultKind, FaultMap, FaultSite};
use bnb::topology::perm::Permutation;
use bnb::topology::record::{records_for_permutation, Record};
use proptest::prelude::*;
use rand::{RngExt, SeedableRng};

fn build(m: usize, policy: RoutePolicy) -> BnbNetwork {
    BnbNetwork::builder(m).data_width(32).policy(policy).build()
}

/// Routes `records` through all `m` stages with both per-frame kernels
/// and asserts the outcomes are identical (frames on `Ok`, error values
/// on `Err`).
fn assert_kernels_agree(
    net: &BnbNetwork,
    records: &[Record],
    faults: Option<&FaultMap>,
    ctx: &str,
) {
    let mut scratch = StageScratch::with_capacity(records.len());
    let mut packed_span = RouteSpan::new();
    let mut scalar_span = RouteSpan::new().kernel(Kernel::Scalar);
    if let Some(map) = faults {
        packed_span = packed_span.faults(map);
        scalar_span = scalar_span.faults(map);
    }
    let mut packed = records.to_vec();
    let mut scalar = records.to_vec();
    let got = packed_span.run(net, &mut packed, &mut scratch);
    let want = scalar_span.run(net, &mut scalar, &mut scratch);
    assert_eq!(got, want, "result mismatch ({ctx})");
    if got.is_ok() {
        // Post-error line state is unspecified (the engine compares
        // result values only), so frames are compared on success alone.
        assert_eq!(packed, scalar, "frame mismatch ({ctx})");
    }
}

/// Routes every frame of `frames` through [`route_batch`] with `opts`
/// and asserts the per-frame outcomes match the scalar oracle routed one
/// frame at a time: identical `Result` values, identical output frames
/// on success, and untouched original contents on failure. The oracle
/// mirrors the batch contract — validation first (the step `Router::route`
/// performs before any span runs), then the scalar kernel.
fn assert_batch_matches_scalar(
    net: &BnbNetwork,
    frames: &[Vec<Record>],
    opts: &RouteSpan<'_>,
    oracle: &RouteSpan<'_>,
    ctx: &str,
) {
    use bnb::core::stages::validate_lines;
    let n = net.inputs();
    let mut scratch = StageScratch::with_capacity(n);
    let mut seen = Vec::new();
    let mut batch = FrameBatch::with_capacity(n, frames.len());
    for frame in frames {
        batch.push_frame(frame);
    }
    let mut outcome = BatchOutcome::new();
    route_batch(net, &mut batch, opts, &mut scratch, &mut outcome);
    assert_eq!(outcome.results().len(), frames.len(), "outcome len ({ctx})");
    let mut got = Vec::new();
    for (f, frame) in frames.iter().enumerate() {
        let mut scalar = frame.clone();
        let want = validate_lines(net, &scalar, &mut seen)
            .and_then(|()| oracle.run(net, &mut scalar, &mut scratch));
        assert_eq!(
            outcome.results()[f],
            want,
            "frame {f} result mismatch ({ctx})"
        );
        batch.read_frame_into(f, &mut got);
        if want.is_ok() {
            assert_eq!(got, scalar, "frame {f} output mismatch ({ctx})");
        } else {
            // Failed frames keep their submitted contents verbatim.
            assert_eq!(&got, frame, "frame {f} not left untouched ({ctx})");
        }
    }
}

/// A seeded draw of in-bounds faults, spanning every kind.
fn random_faults(m: usize, count: usize, rng: &mut rand::rngs::StdRng) -> FaultMap {
    let kinds = [
        FaultKind::StuckStraight,
        FaultKind::StuckExchange,
        FaultKind::DeadArbiter,
        FaultKind::BrokenLink,
    ];
    let mut map = FaultMap::new();
    for _ in 0..count {
        let main = rng.random_range(0..m);
        let internal = rng.random_range(0..m - main);
        let kind = kinds[rng.random_range(0..kinds.len())];
        let element = rng.random_range(0..kind.elements(m, main, internal));
        map.insert(FaultSite::new(main, internal, element), kind);
    }
    map
}

/// Seeded frames for a batch: mostly valid permutations, with a
/// `garble`-controlled chance of invalid frames (duplicate destination)
/// mixed in so batched validation and error reporting get exercised.
fn random_frames(
    n: usize,
    count: usize,
    garble: bool,
    rng: &mut rand::rngs::StdRng,
) -> Vec<Vec<Record>> {
    (0..count)
        .map(|_| {
            let mut recs = records_for_permutation(&Permutation::random(n, rng));
            if garble && n > 1 && rng.random_range(0..4) == 0 {
                // Duplicate one destination: rejected by strict
                // validation, routed as contending traffic permissively.
                let d = recs[0].dest();
                recs[n - 1] = Record::new(d, recs[n - 1].data());
            }
            recs
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Healthy fabric, both policies, every wiring, m = 1..=10:
    /// byte-identical frames, and identical errors for the unvalidated
    /// frames with a duplicated destination that strict spans detect.
    #[test]
    fn packed_matches_scalar_healthy(
        m in 1usize..=10,
        seed in any::<u64>(),
        strict in any::<bool>(),
        wiring_idx in 0usize..3,
        garble in any::<bool>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let policy = if strict { RoutePolicy::Strict } else { RoutePolicy::Permissive };
        let wiring = [WiringMode::Unshuffle, WiringMode::Shuffle, WiringMode::Identity][wiring_idx];
        let net = BnbNetwork::builder(m).data_width(32).policy(policy).wiring(wiring).build();
        let records = random_frames(1 << m, 1, garble, &mut rng).remove(0);
        assert_kernels_agree(&net, &records, None, &format!("m={m} {policy:?} {wiring:?}"));
    }

    /// Fault campaigns, both policies: identical frames when both kernels
    /// deliver, identical error values when routing trips a fault check.
    #[test]
    fn packed_matches_scalar_under_faults(
        m in 2usize..=8,
        seed in any::<u64>(),
        strict in any::<bool>(),
        nfaults in 1usize..=3,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let policy = if strict { RoutePolicy::Strict } else { RoutePolicy::Permissive };
        let net = build(m, policy);
        let records = records_for_permutation(&Permutation::random(1 << m, &mut rng));
        let faults = random_faults(m, nfaults, &mut rng);
        assert_kernels_agree(&net, &records, Some(&faults), &format!("m={m} {policy:?} {faults:?}"));
    }

    /// An empty FaultMap through the faulted options is the healthy fast
    /// path for both kernels.
    #[test]
    fn packed_matches_scalar_empty_fault_map(m in 2usize..=8, seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = build(m, RoutePolicy::Strict);
        let records = records_for_permutation(&Permutation::random(1 << m, &mut rng));
        let empty = FaultMap::new();
        assert_kernels_agree(&net, &records, Some(&empty), &format!("m={m} empty-map"));
    }

    /// The batched kernel against the scalar oracle: batch sizes 1, 7,
    /// and 64 (sub-word, unaligned-tail, and multi-word plane shapes),
    /// both policies, valid-only and garbled frame mixes, every wiring.
    /// m runs to 12, so relabelings that cross words (m > 6) and the
    /// served m = 10 shape are covered; a Shuffle wiring leaves σ in
    /// non-contiguous level orders. Batches at m >= 11 (2-4K-cell
    /// frames) are capped at 4 frames to keep the scalar oracle fast.
    #[test]
    fn batched_matches_scalar(
        m in 1usize..=12,
        seed in any::<u64>(),
        strict in any::<bool>(),
        batch_idx in 0usize..3,
        garble in any::<bool>(),
        wiring_idx in 0usize..3,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let policy = if strict { RoutePolicy::Strict } else { RoutePolicy::Permissive };
        let wiring = [WiringMode::Unshuffle, WiringMode::Shuffle, WiringMode::Identity][wiring_idx];
        let net = BnbNetwork::builder(m).data_width(32).policy(policy).wiring(wiring).build();
        let sizes = if m <= 10 { [1usize, 7, 64] } else { [1, 3, 4] };
        let frames = random_frames(1 << m, sizes[batch_idx], garble, &mut rng);
        let opts = RouteSpan::new();
        let oracle = RouteSpan::new().kernel(Kernel::Scalar);
        assert_batch_matches_scalar(
            &net, &frames, &opts, &oracle,
            &format!("m={m} {policy:?} {wiring:?} b={} garble={garble}", frames.len()),
        );
    }

    /// Batched fault campaigns (the per-frame fallback path), every
    /// wiring: each frame's result and contents must equal the scalar
    /// faulted oracle.
    #[test]
    fn batched_matches_scalar_under_faults(
        m in 2usize..=7,
        seed in any::<u64>(),
        strict in any::<bool>(),
        nfaults in 1usize..=3,
        wiring_idx in 0usize..3,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let policy = if strict { RoutePolicy::Strict } else { RoutePolicy::Permissive };
        let wiring = [WiringMode::Unshuffle, WiringMode::Shuffle, WiringMode::Identity][wiring_idx];
        let net = BnbNetwork::builder(m).data_width(32).policy(policy).wiring(wiring).build();
        let frames = random_frames(1 << m, 7, false, &mut rng);
        let faults = random_faults(m, nfaults, &mut rng);
        let opts = RouteSpan::new().faults(&faults);
        let oracle = RouteSpan::new().kernel(Kernel::Scalar).faults(&faults);
        assert_batch_matches_scalar(
            &net, &frames, &opts, &oracle,
            &format!("m={m} {policy:?} {wiring:?} {faults:?}"),
        );
    }

    /// Engine-style batch splits: routing one workload as a single
    /// FrameBatch must be byte-identical to routing it as the uneven
    /// sub-batches a shard scheduler would submit.
    #[test]
    fn batched_split_submission_is_equivalent(
        m in 2usize..=8,
        seed in any::<u64>(),
        split in 1usize..=31,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 1usize << m;
        let net = build(m, RoutePolicy::Strict);
        let frames = random_frames(n, 32, false, &mut rng);
        let opts = RouteSpan::new();
        let mut scratch = StageScratch::with_capacity(n);
        let mut outcome = BatchOutcome::new();

        let mut whole = FrameBatch::with_capacity(n, frames.len());
        for frame in &frames {
            whole.push_frame(frame);
        }
        route_batch(&net, &mut whole, &opts, &mut scratch, &mut outcome);
        prop_assert!(outcome.all_ok());

        let mut got = Vec::new();
        let mut want = Vec::new();
        let mut offset = 0;
        for group in frames.chunks(split) {
            let mut part = FrameBatch::with_capacity(n, group.len());
            for frame in group {
                part.push_frame(frame);
            }
            route_batch(&net, &mut part, &opts, &mut scratch, &mut outcome);
            prop_assert!(outcome.all_ok());
            for f in 0..group.len() {
                part.read_frame_into(f, &mut got);
                whole.read_frame_into(offset + f, &mut want);
                prop_assert_eq!(&got, &want, "split={} frame={}", split, offset + f);
            }
            offset += group.len();
        }
    }
}

/// Exhaustive byte-identity sweep at small m: every one of the N!
/// permutations for m ≤ 3, a dense seeded sample for m = 4..=5 — packed
/// and batched both held against the scalar oracle.
#[test]
fn exhaustive_small_m_byte_identity() {
    fn check(net: &BnbNetwork, records: &[Record]) {
        let m = net.m();
        let mut scratch = StageScratch::with_capacity(records.len());
        let mut packed = records.to_vec();
        let mut scalar = records.to_vec();
        RouteSpan::new()
            .run(net, &mut packed, &mut scratch)
            .unwrap();
        RouteSpan::new()
            .kernel(Kernel::Scalar)
            .run(net, &mut scalar, &mut scratch)
            .unwrap();
        assert_eq!(packed, scalar, "m={m} records={records:?}");

        let mut batch = FrameBatch::new(records.len());
        batch.push_frame(records);
        let mut outcome = BatchOutcome::new();
        route_batch(
            net,
            &mut batch,
            &RouteSpan::new(),
            &mut scratch,
            &mut outcome,
        );
        assert!(outcome.all_ok(), "m={m} batched failed: {records:?}");
        let mut routed = Vec::new();
        batch.read_frame_into(0, &mut routed);
        assert_eq!(routed, scalar, "m={m} batched mismatch: {records:?}");
    }

    // All N! permutations for m <= 3 (2 + 24 + 40320 frames), and on the
    // ablation wirings, where strict spans may fail, the same results.
    for m in 1usize..=3 {
        let n = 1usize << m;
        let net = build(m, RoutePolicy::Strict);
        let ablations = [WiringMode::Shuffle, WiringMode::Identity]
            .map(|wiring| BnbNetwork::builder(m).data_width(32).wiring(wiring).build());
        let mut dests: Vec<usize> = (0..n).collect();
        permute_all(&mut dests, 0, &mut |p| {
            let records: Vec<Record> = p
                .iter()
                .enumerate()
                .map(|(i, &d)| Record::new(d, i as u64))
                .collect();
            check(&net, &records);
            for net in &ablations {
                assert_kernels_agree(net, &records, None, &format!("{:?}", net.wiring()));
            }
        });
    }

    // Dense seeded sample above that.
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    for m in 4usize..=5 {
        let net = build(m, RoutePolicy::Strict);
        for _ in 0..400 {
            let records = records_for_permutation(&Permutation::random(1 << m, &mut rng));
            check(&net, &records);
        }
    }
}

/// Heap's algorithm: calls `f` with every permutation of `items`.
fn permute_all(items: &mut [usize], k: usize, f: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        f(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute_all(items, k + 1, f);
        items.swap(k, i);
    }
}
