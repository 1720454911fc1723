//! Concurrent engine throughput: records/sec routed by `bnb-engine` as the
//! worker pool grows, against the single-threaded `Router` baseline.
//!
//! Each iteration routes a burst of pre-generated permutation frames
//! through a running engine (submit all, drain all), so the measurement
//! covers the full submit → route → drain pipeline including queue
//! backpressure. Each worker routes whole frames it owns, so records/sec
//! can grow with workers only up to the burst size and the host's cores;
//! per-frame queue coordination is the price of each extra worker.

use bnb_core::network::BnbNetwork;
use bnb_core::router::Router;
use bnb_engine::{Engine, EngineConfig};
use bnb_topology::perm::Permutation;
use bnb_topology::record::{records_for_permutation, Record};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Batches routed per iteration (one burst).
const BURST: usize = 8;

fn bench(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1991);
    let mut g = c.benchmark_group("engine_throughput");
    g.sample_size(20);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for m in [7usize, 9, 11] {
        let n = 1usize << m;
        let net = BnbNetwork::builder(m).data_width(32).build();
        let batches: Vec<Vec<Record>> = (0..BURST)
            .map(|_| records_for_permutation(&Permutation::random(n, &mut rng)))
            .collect();
        g.throughput(Throughput::Elements((n * BURST) as u64));

        // Single-threaded baseline: the allocation-free Router. Its
        // default NoopObserver is the "instrumentation disabled" case —
        // compare against router_observed below to see the cost of a live
        // Counters sink (and confirm the noop path pays nothing).
        let mut router = Router::new(net);
        let mut buf = batches[0].clone();
        g.bench_with_input(
            BenchmarkId::new(format!("router_1thread/n{n}"), 1usize),
            &batches,
            |b, batches| {
                b.iter(|| {
                    for batch in batches {
                        buf.copy_from_slice(batch);
                        router.route_in_place(&mut buf).expect("routes");
                    }
                    black_box(buf[0])
                });
            },
        );

        // Same route with every column/sweep event landing in Counters.
        let counters = bnb_obs::Counters::new();
        let mut observed = Router::with_observer(net, &counters);
        g.bench_with_input(
            BenchmarkId::new(format!("router_observed/n{n}"), 1usize),
            &batches,
            |b, batches| {
                b.iter(|| {
                    for batch in batches {
                        buf.copy_from_slice(batch);
                        observed.route_in_place(&mut buf).expect("routes");
                    }
                    black_box(buf[0])
                });
            },
        );

        for workers in [1usize, 2, 4, 8] {
            let engine = Engine::new(
                net,
                EngineConfig {
                    workers,
                    queue_capacity: 4,
                    ..EngineConfig::default()
                },
            );
            g.bench_with_input(
                BenchmarkId::new(format!("engine/n{n}"), workers),
                &batches,
                |b, batches| {
                    engine.run(|h| {
                        b.iter(|| {
                            for batch in batches {
                                h.submit(batch.clone());
                            }
                            let mut last = None;
                            while let Some(routed) = h.drain() {
                                last = Some(routed.result.expect("routes"));
                            }
                            black_box(last)
                        });
                    });
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
