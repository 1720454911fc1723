//! Serde round-trips for the public data types: what a downstream user
//! persists (configurations, traces, reports) must come back intact, and
//! invalid serialized permutations must be rejected on deserialize.

use bnb::core::cost::HardwareCost;
use bnb::core::delay::PropagationDelay;
use bnb::core::network::BnbNetwork;
use bnb::topology::connection::Connection;
use bnb::topology::perm::Permutation;
use bnb::topology::record::{records_for_permutation, Record};

#[test]
fn permutation_roundtrip_and_validation() {
    let p = Permutation::try_from(vec![2, 0, 3, 1]).unwrap();
    let json = serde_json::to_string(&p).unwrap();
    assert_eq!(json, "[2,0,3,1]", "one-line notation on the wire");
    let back: Permutation = serde_json::from_str(&json).unwrap();
    assert_eq!(back, p);
    // Invalid wire data must be rejected by the TryFrom validation.
    let bad: Result<Permutation, _> = serde_json::from_str("[0,0,1,2]");
    assert!(bad.is_err(), "duplicate images must not deserialize");
    let bad: Result<Permutation, _> = serde_json::from_str("[0,5,1,2]");
    assert!(bad.is_err(), "out-of-range images must not deserialize");
}

#[test]
fn record_roundtrip() {
    let r = Record::new(5, 0xDEAD_BEEF);
    let json = serde_json::to_string(&r).unwrap();
    let back: Record = serde_json::from_str(&json).unwrap();
    assert_eq!(back, r);
}

#[test]
fn cost_and_delay_roundtrip() {
    let c = HardwareCost::bnb_counted(5, 8);
    let back: HardwareCost = serde_json::from_str(&serde_json::to_string(&c).unwrap()).unwrap();
    assert_eq!(back, c);
    let d = PropagationDelay::bnb_structural(5);
    let back: PropagationDelay = serde_json::from_str(&serde_json::to_string(&d).unwrap()).unwrap();
    assert_eq!(back, d);
}

#[test]
fn trace_roundtrip() {
    let net = BnbNetwork::new(3);
    let p = Permutation::try_from(vec![6, 2, 7, 0, 4, 1, 3, 5]).unwrap();
    let (_, trace) = net.route_traced(&records_for_permutation(&p)).unwrap();
    let json = serde_json::to_string(&trace).unwrap();
    let back: bnb::core::trace::RouteTrace = serde_json::from_str(&json).unwrap();
    assert_eq!(back, trace);
    assert_eq!(back.render(), trace.render());
}

#[test]
fn connection_roundtrip() {
    for c in [
        Connection::Identity,
        Connection::Unshuffle { k: 3 },
        Connection::BitReversal,
        Connection::Fixed(Permutation::transposition(8, 1, 5)),
    ] {
        let json = serde_json::to_string(&c).unwrap();
        let back: Connection = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}

#[test]
fn table_roundtrip() {
    let t = bnb::analysis::table2(&[3, 4]);
    let back: bnb::analysis::Table =
        serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
    assert_eq!(back, t);
    assert_eq!(back.to_markdown(), t.to_markdown());
}

#[test]
fn latency_histogram_roundtrip() {
    use bnb::obs::LatencyHistogram;
    let mut h = LatencyHistogram::new();
    for ns in [0u64, 1, 2, 900, 65_536, 1_000_000_000] {
        h.record(ns);
    }
    let json = serde_json::to_string(&h).unwrap();
    let back: LatencyHistogram = serde_json::from_str(&json).unwrap();
    assert_eq!(back, h);
    // Derived views must agree too, not just the raw fields.
    assert_eq!(back.count(), h.count());
    assert_eq!(back.min_ns(), h.min_ns());
    assert_eq!(back.max_ns(), h.max_ns());
    for q in [0.5, 0.9, 0.99] {
        assert_eq!(back.quantile(q), h.quantile(q));
    }
}

#[test]
fn fault_map_roundtrip() {
    use bnb::core::{FaultKind, FaultMap, FaultSite, HardwareFault};
    let map: FaultMap = [
        HardwareFault {
            site: FaultSite::new(0, 0, 1),
            kind: FaultKind::StuckStraight,
        },
        HardwareFault {
            site: FaultSite::new(1, 2, 3),
            kind: FaultKind::StuckExchange,
        },
        HardwareFault {
            site: FaultSite::new(2, 0, 0),
            kind: FaultKind::DeadArbiter,
        },
        HardwareFault {
            site: FaultSite::new(0, 1, 7),
            kind: FaultKind::BrokenLink,
        },
    ]
    .into_iter()
    .collect();
    let json = serde_json::to_string(&map).unwrap();
    let back: FaultMap = serde_json::from_str(&json).unwrap();
    assert_eq!(back, map);
    assert_eq!(back.len(), 4);
    // Every fault kind survives the wire individually too.
    for fault in map.iter() {
        let one = serde_json::to_string(&fault).unwrap();
        let fault_back: HardwareFault = serde_json::from_str(&one).unwrap();
        assert_eq!(fault_back, *fault);
    }
}

#[test]
fn fault_report_and_outcome_roundtrip() {
    use bnb::core::FaultMap;
    use bnb::sim::faults::{hardware_campaign, FaultReport, Outcome};
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    // A report from a real random campaign, so the fields are live values.
    let report =
        bnb::sim::faults::random_hardware_campaign(3, 20, &mut rng, &bnb::obs::NoopObserver);
    let back: FaultReport = serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
    assert_eq!(back, report);
    // Healthy campaigns round-trip too (all-zero counters).
    let healthy = hardware_campaign(3, &FaultMap::new(), 5, &mut rng, &bnb::obs::NoopObserver);
    let back: FaultReport =
        serde_json::from_str(&serde_json::to_string(&healthy).unwrap()).unwrap();
    assert_eq!(back, healthy);
    for outcome in [
        Outcome::DetectedAtInput("duplicate destination".to_string()),
        Outcome::DetectedAtSplitter {
            main_stage: 1,
            internal_stage: 0,
        },
        Outcome::DetectedHardware {
            main_stage: 2,
            internal_stage: 1,
        },
        Outcome::Routed { misdelivered: 3 },
    ] {
        let json = serde_json::to_string(&outcome).unwrap();
        let back: Outcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back, outcome);
    }
}

#[test]
fn degraded_point_roundtrip() {
    use bnb::sim::faults::{degraded_sweep, DegradedPoint};
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let points = degraded_sweep(3, &[0, 1], 5, &mut rng);
    let json = serde_json::to_string(&points).unwrap();
    let back: Vec<DegradedPoint> = serde_json::from_str(&json).unwrap();
    assert_eq!(back, points);
}

#[test]
fn engine_stats_roundtrip() {
    use bnb::core::network::BnbNetwork;
    use bnb::engine::{Engine, EngineConfig, EngineStats};
    use bnb::topology::record::records_for_permutation;
    use rand::SeedableRng;

    // Stats from a real run, so every field is populated.
    let net = BnbNetwork::new(4);
    let engine = Engine::new(net, EngineConfig::with_workers(2));
    let mut rng = rand::rngs::StdRng::seed_from_u64(33);
    let stats = engine.run(|h| {
        for _ in 0..5 {
            h.submit(records_for_permutation(&Permutation::random(16, &mut rng)));
        }
        while h.drain().is_some() {}
        h.stats()
    });
    let json = serde_json::to_string(&stats).unwrap();
    let back: EngineStats = serde_json::from_str(&json).unwrap();
    assert_eq!(back, stats);
    // Pretty form parses back identically as well.
    let pretty: EngineStats =
        serde_json::from_str(&serde_json::to_string_pretty(&stats).unwrap()).unwrap();
    assert_eq!(pretty, stats);
}
