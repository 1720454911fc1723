//! Flight-recorder integration: real routed traffic through the bounded
//! span ring, the sampling policies, and both standard exporters
//! (Prometheus text exposition and Chrome trace-event JSON) driven from
//! live data rather than synthetic spans.

use bnb::core::network::BnbNetwork;
use bnb::engine::{Engine, EngineConfig};
use bnb::obs::{
    render_chrome_trace, render_prometheus, Counters, Fanout, FlightRecorder, SamplePolicy,
    SpanKind,
};
use bnb::topology::perm::Permutation;
use bnb::topology::record::{all_delivered, records_for_permutation};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Eq. (7): switching columns per frame.
fn columns(m: usize) -> usize {
    m * (m + 1) / 2
}

/// Splitter boxes (= arbiter sweeps) per frame.
fn sweeps(m: usize) -> usize {
    let n = 1usize << m;
    n * m - n + 1
}

#[test]
fn recorded_route_captures_the_closed_form_span_counts() {
    let mut rng = StdRng::seed_from_u64(3);
    for m in [2usize, 3, 4] {
        let n = 1usize << m;
        let net = BnbNetwork::builder(m).data_width(16).build();
        let recorder = FlightRecorder::new();
        let records = records_for_permutation(&Permutation::random(n, &mut rng));
        let out = net.route_observed(&records, &recorder).unwrap();
        assert!(all_delivered(&out));
        let spans = recorder.spans();
        let by_kind = |k: SpanKind| spans.iter().filter(|s| s.kind == k).count();
        assert_eq!(by_kind(SpanKind::Column), columns(m), "m = {m}");
        assert_eq!(by_kind(SpanKind::Sweep), sweeps(m), "m = {m}");
        assert_eq!(by_kind(SpanKind::Conflict), 0, "m = {m}: clean permutation");
        assert_eq!(recorder.dropped(), 0, "m = {m}: nothing evicted");
        assert_eq!(recorder.sampled_out(), 0, "m = {m}: nothing sampled out");
    }
}

#[test]
fn overflow_keeps_the_newest_spans_and_counts_the_rest() {
    // A deliberately tiny ring under heavy traffic: retention is bounded,
    // the newest spans win, and the drop counter accounts for exactly the
    // overflow — sampling and eviction are never silent.
    let mut rng = StdRng::seed_from_u64(4);
    let m = 5usize;
    let n = 1usize << m;
    let net = BnbNetwork::builder(m).data_width(16).build();
    const CAP: usize = 32;
    let recorder = FlightRecorder::with_capacity(CAP);
    const ROUTES: usize = 8;
    let mut last_route_started = 0;
    for _ in 0..ROUTES {
        let records = records_for_permutation(&Permutation::random(n, &mut rng));
        last_route_started = recorder.now_ns();
        net.route_observed(&records, &recorder).unwrap();
    }
    let per_route = (columns(m) + sweeps(m)) as u64;
    let total = ROUTES as u64 * per_route;
    assert_eq!(recorder.accepted(), total);
    assert_eq!(recorder.len(), CAP, "single-threaded: one lane, full ring");
    assert_eq!(recorder.dropped(), total - CAP as u64);
    // CAP < one route's span count, so every survivor must come from the
    // final route: eviction discards oldest-first.
    let spans = recorder.spans();
    assert_eq!(spans.len(), CAP);
    assert!(CAP as u64 <= per_route);
    assert!(
        spans.iter().all(|s| s.ts_ns >= last_route_started),
        "an old span survived past {total} newer ones"
    );
}

#[test]
fn sampling_policies_filter_live_traffic() {
    let mut rng = StdRng::seed_from_u64(5);
    let m = 4usize;
    let n = 1usize << m;
    let net = BnbNetwork::builder(m).data_width(16).build();
    let records = records_for_permutation(&Permutation::random(n, &mut rng));

    // Head sampling keeps ~1/4 of the event stream.
    let rate = FlightRecorder::new().policy(SamplePolicy::Rate(4));
    net.route_observed(&records, &rate).unwrap();
    let total = (columns(m) + sweeps(m)) as u64;
    assert_eq!(rate.accepted() + rate.sampled_out(), total);
    assert_eq!(rate.accepted(), total.div_ceil(4));

    // Tail sampling on a clean route keeps nothing — and says so.
    let errors = FlightRecorder::new().policy(SamplePolicy::Errors);
    net.route_observed(&records, &errors).unwrap();
    assert!(errors.is_empty(), "no errors on a clean permutation");
    assert_eq!(errors.sampled_out(), total);
}

#[test]
fn engine_traffic_round_trips_through_both_exporters() {
    let mut rng = StdRng::seed_from_u64(6);
    let m = 4usize;
    let n = 1usize << m;
    let counters = Counters::new();
    let recorder = FlightRecorder::new();
    let config = EngineConfig {
        workers: 2,
        queue_capacity: 2,
        ..EngineConfig::default()
    };
    let engine = Engine::with_observer(
        BnbNetwork::new(m),
        config,
        Fanout::new(&counters, &recorder),
    );
    const BATCHES: usize = 4;
    engine.run(|h| {
        for _ in 0..BATCHES {
            h.submit(records_for_permutation(&Permutation::random(n, &mut rng)));
        }
        while h.drain().is_some() {}
    });

    let spans = recorder.spans();
    let drains = spans.iter().filter(|s| s.kind == SpanKind::Drain).count();
    assert_eq!(drains, BATCHES, "one drain span per batch");
    assert!(spans.iter().all(|s| (s.lane as usize) < 8));

    // Chrome trace: structurally valid JSON with one event per span plus
    // process/thread metadata, timestamps non-decreasing per the merge.
    let json = render_chrome_trace(&spans);
    assert!(json.starts_with("{\"displayTimeUnit\":\"ns\""));
    assert!(json.trim_end().ends_with("]}"));
    let events = json.matches("\"ph\":").count();
    let lanes: std::collections::BTreeSet<u32> = spans.iter().map(|s| s.lane).collect();
    assert_eq!(events, spans.len() + 1 + lanes.len(), "spans + metadata");
    assert!(
        spans.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
        "merged spans are time-ordered"
    );

    // Prometheus: every value line is `name[{labels}] integer`, and the
    // families the engine feeds carry the expected totals.
    let prom = render_prometheus(&counters.snapshot());
    for line in prom
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (name, value) = line.rsplit_once(' ').expect("name value");
        assert!(!name.is_empty());
        assert!(value.parse::<u64>().is_ok(), "unparseable sample: {line:?}");
    }
    let sample = |name: &str| -> u64 {
        prom.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.rsplit_once(' '))
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or_else(|| panic!("missing family {name}"))
    };
    assert_eq!(sample("bnb_batches_submitted_total"), BATCHES as u64);
    assert_eq!(sample("bnb_batches_drained_total"), BATCHES as u64);
    assert_eq!(sample("bnb_batch_errors_total"), 0);
    assert_eq!(sample("bnb_batch_latency_ns_count"), BATCHES as u64);
}
