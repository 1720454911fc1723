//! End-to-end path tracing: the per-cell hop stream reconstructed by
//! [`PathTracer`] must agree with the switch settings the router actually
//! applied, for every destination of random permutations at several sizes
//! — and the agreement must survive routing on the concurrent engine's
//! worker threads.
//!
//! The cross-check against `route_traced` pins hop records to ground
//! truth: `route_traced` counts exchange settings at switch granularity
//! (one per exchanged pair), while the tracer records them at cell
//! granularity (both cells of an exchanged pair), so the hop stream must
//! carry exactly twice as many exchanged hops as the switch trace has
//! exchange settings.

use bnb::core::network::BnbNetwork;
use bnb::core::tracer::PathTracer;
use bnb::engine::{Engine, EngineConfig};
use bnb::obs::Counters;
use bnb::topology::perm::Permutation;
use bnb::topology::record::{all_delivered, records_for_permutation};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn reconstructed_paths_match_applied_switch_settings() {
    let mut rng = StdRng::seed_from_u64(1991);
    for m in 2usize..=4 {
        let n = 1usize << m;
        let net = BnbNetwork::builder(m).data_width(16).build();
        for _ in 0..10 {
            let records = records_for_permutation(&Permutation::random(n, &mut rng));
            let tracer = PathTracer::with_inputs(n);
            let traced_out = net.route_observed(&records, &tracer).unwrap();
            assert!(all_delivered(&traced_out));

            // Structural verification: entry ports, splitter sites, the
            // radix-sort parity invariant, and the exit line of every
            // destination, checked against the network's wiring.
            tracer.verify(&net).unwrap_or_else(|e| {
                panic!("m = {m}: reconstruction disagrees with the fabric: {e}")
            });

            // Ground truth: the switch-granularity trace of the same
            // frame. Each exchange setting moves exactly two cells.
            let (plain_out, switch_trace) = net.route_traced(&records).unwrap();
            assert_eq!(
                plain_out, traced_out,
                "m = {m}: tracing must not change routing results"
            );
            let exchanged_hops: usize = (0..n)
                .map(|d| tracer.hops_for(d).iter().filter(|h| h.exchanged).count())
                .sum();
            assert_eq!(
                exchanged_hops,
                2 * switch_trace.exchange_count(),
                "m = {m}: two exchanged hops per applied exchange setting"
            );
        }
    }
}

#[test]
fn tracing_does_not_perturb_untraced_observers() {
    // A hop-blind observer (Counters) on the same route sees identical
    // totals whether or not a tracer ran before it: hop capture is a pure
    // read of router state.
    let mut rng = StdRng::seed_from_u64(7);
    let m = 4usize;
    let n = 1usize << m;
    let net = BnbNetwork::builder(m).data_width(16).build();
    let records = records_for_permutation(&Permutation::random(n, &mut rng));

    let baseline = Counters::new();
    let out_a = net.route_observed(&records, &baseline).unwrap();

    let tracer = PathTracer::with_inputs(n);
    let out_b = net.route_observed(&records, &tracer).unwrap();

    let after = Counters::new();
    let out_c = net.route_observed(&records, &after).unwrap();

    assert_eq!(out_a, out_b);
    assert_eq!(out_b, out_c);
    assert_eq!(baseline.snapshot(), after.snapshot());
}

#[test]
fn engine_routed_frames_trace_and_verify() {
    // Engine workers route each frame through the batch routine; the hop
    // stream the shared tracer collects from the worker threads must
    // still reconstruct and verify every destination's path.
    let mut rng = StdRng::seed_from_u64(42);
    let m = 4usize;
    let n = 1usize << m;
    let net = BnbNetwork::new(m);
    let tracer = PathTracer::with_inputs(n);
    let config = EngineConfig {
        workers: 3,
        queue_capacity: 2,
        ..EngineConfig::default()
    };
    let engine = Engine::with_observer(net, config, &tracer);
    for round in 0..5 {
        let records = records_for_permutation(&Permutation::random(n, &mut rng));
        engine.run(|h| {
            h.submit(records.clone());
            let batch = h.drain().expect("one batch in, one batch out");
            assert!(batch.result.is_ok(), "round {round}");
        });
        tracer.verify(&net).unwrap_or_else(|e| {
            panic!("round {round}: engine-traced paths failed verification: {e}")
        });
        assert_eq!(
            tracer.total_hops(),
            n * m * (m + 1) / 2,
            "round {round}: every cell crossed every column exactly once"
        );
        // Fresh frame, fresh paths: tracing composes with engine reuse.
        tracer.clear();
    }
}
