//! Observer event counts checked against the paper's closed forms.
//!
//! Equation (7) of the paper gives the column count of an `N = 2^m`-input
//! BNB network: the main stage at index `s` is built from `k = m − s`
//! internal switching columns, so one full frame crosses
//! `m + (m−1) + … + 1 = m(m+1)/2` columns. Each splitter box sweeps its
//! arbiter tree exactly once per frame, and the number of splitter boxes
//! is `n·m − n + 1`: main stage `s` contributes `n − 2^s` boxes across
//! its `m − s` internal columns, and `Σ_{s<m} (n − 2^s) = n·m − n + 1`.
//! A recording observer attached to the real router must reproduce both
//! counts exactly.

use bnb::core::network::BnbNetwork;
use bnb::core::tracer::PathTracer;
use bnb::obs::{Counters, DrainEvent, Fanout, MetricsSnapshot, Observer};
use bnb::topology::perm::Permutation;
use bnb::topology::record::{all_delivered, records_for_permutation};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Eq. (7): switching columns crossed by one full frame.
fn closed_form_columns(m: u64) -> u64 {
    m * (m + 1) / 2
}

/// Splitter boxes (= arbiter sweeps) per full frame: `n·m − n + 1`.
fn closed_form_sweeps(m: u64) -> u64 {
    let n = 1u64 << m;
    n * m - n + 1
}

#[test]
fn route_observed_matches_closed_forms() {
    let mut rng = StdRng::seed_from_u64(1991);
    for m in [2usize, 3, 4] {
        let n = 1usize << m;
        let net = BnbNetwork::builder(m).data_width(16).build();
        let counters = Counters::new();
        const ROUTES: u64 = 3;
        for _ in 0..ROUTES {
            let records = records_for_permutation(&Permutation::random(n, &mut rng));
            let out = net.route_observed(&records, &counters).unwrap();
            assert!(all_delivered(&out));
        }
        let snap = counters.snapshot();
        assert_eq!(
            snap.columns,
            ROUTES * closed_form_columns(m as u64),
            "m = {m}: columns must match eq. (7)"
        );
        assert_eq!(
            snap.arbiter_sweeps,
            ROUTES * closed_form_sweeps(m as u64),
            "m = {m}: one sweep per splitter box"
        );
        assert_eq!(snap.conflicts, 0, "m = {m}: permutations route cleanly");
    }
}

#[test]
fn builder_attached_observer_sees_router_traffic() {
    let mut rng = StdRng::seed_from_u64(40);
    let m = 4usize;
    let n = 1usize << m;
    let counters = Counters::new();
    let mut router = BnbNetwork::builder(m)
        .data_width(32)
        .observer(&counters)
        .build_router();
    const ROUTES: u64 = 5;
    for _ in 0..ROUTES {
        let mut lines = records_for_permutation(&Permutation::random(n, &mut rng));
        router.route_in_place(&mut lines).unwrap();
        assert!(all_delivered(&lines));
    }
    let snap = counters.snapshot();
    assert_eq!(snap.columns, ROUTES * closed_form_columns(m as u64));
    assert_eq!(snap.arbiter_sweeps, ROUTES * closed_form_sweeps(m as u64));
    // Per-stage breakdown: main stage s contributes m − s columns per frame.
    for stage in &snap.per_stage {
        assert_eq!(
            stage.columns,
            ROUTES * (m - stage.main_stage) as u64,
            "stage {} column share",
            stage.main_stage
        );
    }
    assert_eq!(
        snap.per_stage.len(),
        m,
        "all {m} main stages were exercised"
    );
}

#[test]
fn traced_hop_counts_match_closed_forms() {
    // Per-cell hop granularity refines eq. (7): every one of the N cells
    // crosses every column, so a traced frame records exactly
    // N · m(m+1)/2 hops in total, of which N · m land in main columns
    // (internal stage 0) — one per cell per main stage. The column total
    // seen by a counting observer on the same route must agree.
    let mut rng = StdRng::seed_from_u64(2026);
    for m in [2usize, 3, 4] {
        let n = 1usize << m;
        let net = BnbNetwork::builder(m).data_width(16).build();
        let tracer = PathTracer::with_inputs(n);
        let counters = Counters::new();
        let records = records_for_permutation(&Permutation::random(n, &mut rng));
        let out = net
            .route_observed(&records, &Fanout::new(&tracer, &counters))
            .unwrap();
        assert!(all_delivered(&out));
        let columns = closed_form_columns(m as u64);
        assert_eq!(
            tracer.total_hops() as u64,
            n as u64 * columns,
            "m = {m}: N cells x m(m+1)/2 columns"
        );
        assert_eq!(
            tracer.main_stage_hops(),
            n * m,
            "m = {m}: one main-stage hop per cell per stage"
        );
        assert_eq!(
            counters.snapshot().columns,
            columns,
            "m = {m}: the column total the hops refine"
        );
        tracer
            .verify(&net)
            .expect("reconstructed paths must verify");
    }
}

#[test]
fn metrics_snapshot_serde_round_trips() {
    let mut rng = StdRng::seed_from_u64(77);
    let m = 3usize;
    let n = 1usize << m;
    let net = BnbNetwork::builder(m).build();
    let counters = Counters::new();
    for (seq, latency_ns) in [(0, 1_500), (1, 48_000)] {
        counters.batch_drained(DrainEvent {
            seq,
            records: n,
            latency_ns,
            ok: true,
        });
    }
    let records = records_for_permutation(&Permutation::random(n, &mut rng));
    net.route_observed(&records, &counters).unwrap();

    let snap = counters.snapshot();
    let json = serde_json::to_string(&snap).unwrap();
    let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(back, snap, "serde round trip must be lossless");
    assert_eq!(back.histogram.count(), 2);
}

mod tallied_counts {
    //! `Counters` declines per-column events, so routing it observes takes
    //! the packed and batched kernels, which report one stage-totals event
    //! per main stage. Its snapshot must equal, field by field, the one the
    //! scalar sweep's per-column events produce — on healthy and faulted
    //! fabrics, for valid, duplicate-destination and mid-route-unbalanced
    //! traffic, whole frames in batches and one frame per span call.

    use bnb::core::batch::{route_batch, BatchOutcome, FrameBatch};
    use bnb::core::network::{BnbNetwork, RoutePolicy, WiringMode};
    use bnb::core::stages::{Kernel, RouteSpan, StageScratch};
    use bnb::core::{FaultKind, FaultMap, FaultSite};
    use bnb::obs::Counters;
    use bnb::topology::perm::Permutation;
    use bnb::topology::record::{records_for_permutation, Record};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    const KINDS: [FaultKind; 4] = [
        FaultKind::StuckStraight,
        FaultKind::StuckExchange,
        FaultKind::DeadArbiter,
        FaultKind::BrokenLink,
    ];

    fn network(m: usize, strict: bool, wiring: usize) -> BnbNetwork {
        let policy = if strict {
            RoutePolicy::Strict
        } else {
            RoutePolicy::Permissive
        };
        let wiring = [
            WiringMode::Unshuffle,
            WiringMode::Shuffle,
            WiringMode::Identity,
        ][wiring];
        BnbNetwork::builder(m)
            .data_width(32)
            .policy(policy)
            .wiring(wiring)
            .build()
    }

    /// `fault == 0`: an empty map; `1..=4`: one fault of that kind at a
    /// seeded site.
    fn fault_map(m: usize, fault: usize, rng: &mut StdRng) -> FaultMap {
        if fault == 0 {
            return FaultMap::new();
        }
        let kind = KINDS[fault - 1];
        let main = rng.random_range(0..m);
        let internal = rng.random_range(0..m - main);
        let element = rng.random_range(0..kind.elements(m, main, internal));
        FaultMap::single(FaultSite::new(main, internal, element), kind)
    }

    /// Seeded permutation frames, about a third with one destination
    /// duplicated.
    fn frames(n: usize, count: usize, rng: &mut StdRng) -> Vec<Vec<Record>> {
        (0..count)
            .map(|_| {
                let mut frame = records_for_permutation(&Permutation::random(n, rng));
                if rng.random_range(0..3) == 0 {
                    let d = frame[rng.random_range(0..n)].dest();
                    let j = rng.random_range(0..n);
                    frame[j] = Record::new(d, frame[j].data());
                }
                frame
            })
            .collect()
    }

    /// Routes `frames` as one batch with the tallied options and with the
    /// scalar oracle.
    fn assert_batch_counts_agree(
        net: &BnbNetwork,
        frames: &[Vec<Record>],
        faults: &FaultMap,
        ctx: &str,
    ) {
        let n = net.inputs();
        let (tallied, scalar) = (Counters::new(), Counters::new());
        let mut outs = Vec::new();
        for (counters, kernel) in [(&tallied, Kernel::Auto), (&scalar, Kernel::Scalar)] {
            let opts = RouteSpan::new()
                .kernel(kernel)
                .observer(counters)
                .faults(faults);
            let mut batch = FrameBatch::with_capacity(n, frames.len());
            for frame in frames {
                batch.push_frame(frame);
            }
            let mut scratch = StageScratch::with_capacity(n);
            let mut outcome = BatchOutcome::new();
            route_batch(net, &mut batch, &opts, &mut scratch, &mut outcome);
            outs.push((outcome, batch.to_frames()));
        }
        let ((got, got_frames), (want, want_frames)) = (&outs[0], &outs[1]);
        assert_eq!(got.results(), want.results(), "results ({ctx})");
        assert_eq!(got_frames, want_frames, "routed frames ({ctx})");
        assert_eq!(tallied.snapshot(), scalar.snapshot(), "snapshots ({ctx})");
    }

    /// One frame routed by a span call with the tallied options and with
    /// the scalar oracle, unvalidated (so duplicate destinations reach the
    /// splitters).
    fn assert_span_counts_agree(net: &BnbNetwork, frame: &[Record], faults: &FaultMap, ctx: &str) {
        let mut scratch = StageScratch::with_capacity(net.inputs());
        let (tallied, scalar) = (Counters::new(), Counters::new());
        let mut runs = Vec::new();
        for (counters, kernel) in [(&tallied, Kernel::Auto), (&scalar, Kernel::Scalar)] {
            let opts = RouteSpan::new()
                .kernel(kernel)
                .observer(counters)
                .faults(faults);
            let mut lines = frame.to_vec();
            let result = opts.run(net, &mut lines, &mut scratch);
            runs.push((result, lines));
        }
        let ((got, got_lines), (want, want_lines)) = (&runs[0], &runs[1]);
        assert_eq!(got, want, "span results ({ctx})");
        if want.is_ok() {
            assert_eq!(got_lines, want_lines, "routed lines ({ctx})");
        }
        assert_eq!(tallied.snapshot(), scalar.snapshot(), "snapshots ({ctx})");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// Batches of 1, 7 and 64 frames (64 only up to m = 8, to keep
        /// debug runs short) and one-frame span calls, m = 1..=10, over
        /// both policies, every wiring, and an empty or single-fault map
        /// of every kind.
        #[test]
        fn counters_snapshots_equal_the_scalar_sweeps(
            m in 1usize..=10,
            strict in any::<bool>(),
            wiring in 0usize..3,
            size in 0usize..3,
            fault in 0usize..=4,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = network(m, strict, wiring);
            let faults = fault_map(m, fault, &mut rng);
            let count = [1, 7, if m <= 8 { 64 } else { 7 }][size];
            let batch = frames(net.inputs(), count, &mut rng);
            let ctx = format!("m={m} strict={strict} {:?} frames={count} {faults:?}", net.wiring());
            assert_batch_counts_agree(&net, &batch, &faults, &ctx);
            assert_span_counts_agree(&net, &batch[0], &faults, &ctx);
        }
    }
}
