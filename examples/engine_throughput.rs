//! A line-rate fabric scenario: a 256-port switch routes a stream of cell
//! frames through the concurrent `bnb-engine` — bounded submission queue
//! for backpressure and a scoped worker pool in which each worker routes
//! whole frames it owns through the word-parallel kernel.
//!
//! Prints a worker-scaling table plus the engine's own stats snapshot
//! (latency histogram quantiles, queue high-water mark, utilization).
//!
//! Run with: `cargo run --release --example engine_throughput`

use std::time::Instant;

use bnb::core::network::BnbNetwork;
use bnb::core::router::Router;
use bnb::engine::{Engine, EngineConfig};
use bnb::topology::perm::Permutation;
use bnb::topology::record::{records_for_permutation, Record};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const M: usize = 8; // 256-port switch
    const BATCHES: usize = 200;
    let n = 1usize << M;
    let net = BnbNetwork::builder(M).data_width(48).build();
    let mut rng = StdRng::seed_from_u64(2026);
    let batches: Vec<Vec<Record>> = (0..BATCHES)
        .map(|_| records_for_permutation(&Permutation::random(n, &mut rng)))
        .collect();

    // Single-threaded reference: the allocation-free Router.
    let mut router = Router::new(net);
    let mut buf = batches[0].clone();
    let t0 = Instant::now();
    for batch in &batches {
        buf.copy_from_slice(batch);
        router.route_in_place(&mut buf)?;
    }
    let base = t0.elapsed();
    let base_rate = (n * BATCHES) as f64 / base.as_secs_f64();
    println!(
        "{n}-port fabric, {BATCHES} batches ({} records)",
        n * BATCHES
    );
    println!("\n  workers  records/sec  speedup  queue-hwm");
    println!("  baseline {base_rate:>12.0}     1.00x  (sequential Router)");

    for workers in [1usize, 2, 4, 8] {
        let engine = Engine::new(
            net,
            EngineConfig {
                workers,
                queue_capacity: 8,
                ..EngineConfig::default()
            },
        );
        let stats = engine.run(|h| {
            for batch in &batches {
                h.submit(batch.clone());
                while h.try_drain().is_some() {}
            }
            while h.drain().is_some() {}
            h.stats()
        });
        println!(
            "  {workers:>7}  {:>11.0}  {:>6.2}x  {:>9}",
            stats.records_per_sec,
            stats.records_per_sec / base_rate,
            stats.queue_high_water,
        );
    }

    // A closer look at one configuration's latency profile.
    let engine = Engine::new(net, EngineConfig::with_workers(4));
    let stats = engine.run(|h| {
        for batch in &batches {
            h.submit(batch.clone());
            while h.try_drain().is_some() {}
        }
        while h.drain().is_some() {}
        h.stats()
    });
    println!("\n4-worker engine, per-batch latency (submit -> drain):");
    println!("  min  {:>10} ns", stats.latency.min_ns);
    println!("  p50  {:>10} ns", stats.latency.p50_ns);
    println!("  p99  {:>10} ns", stats.latency.p99_ns);
    println!("  max  {:>10} ns", stats.latency.max_ns);
    println!("  mean {:>10} ns", stats.latency.mean_ns);
    let busiest = stats
        .worker_metrics
        .iter()
        .map(|w| w.utilization)
        .fold(0.0f64, f64::max);
    println!(
        "  throughput {:.0} records/sec, busiest worker {:.0}% utilized",
        stats.records_per_sec,
        busiest * 100.0
    );
    Ok(())
}
