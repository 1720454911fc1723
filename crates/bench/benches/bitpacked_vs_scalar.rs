//! Head-to-head comparison of the routing kernels: the bit-packed
//! word-parallel kernel called on a 64-frame [`FrameBatch`]
//! ([`route_batch`]) and on one frame per call ([`Kernel::Auto`]), and
//! the scalar sweep both are held against ([`Kernel::Scalar`], the
//! correctness oracle).
//!
//! Acceptance bars: packed ≥ 2× over scalar at m ≥ 10; batched ≥ 10×
//! over scalar at m ≥ 10 with near-flat cells/s across m. The
//! `bnb bench` CLI subcommand measures the same kernels and writes the
//! checked-in `BENCH_routing.json` trajectory; this bench is the
//! statistically careful version of that comparison.

use bnb_core::batch::{route_batch, BatchOutcome, FrameBatch};
use bnb_core::network::BnbNetwork;
use bnb_core::stages::{Kernel, RouteSpan, StageScratch};
use bnb_topology::perm::Permutation;
use bnb_topology::record::{records_for_permutation, Record};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const BATCH_FRAMES: usize = 64;

fn bench(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1991);
    let mut g = c.benchmark_group("bitpacked_vs_scalar");
    g.sample_size(20);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for m in [4usize, 6, 8, 10, 12] {
        let n = 1usize << m;
        let net = BnbNetwork::builder(m).data_width(32).build();
        let recs = records_for_permutation(&Permutation::random(n, &mut rng));
        let mut scratch = StageScratch::with_capacity(n);
        let mut buf: Vec<Record> = recs.clone();
        g.throughput(Throughput::Elements(n as u64));

        let packed = RouteSpan::new();
        g.bench_with_input(BenchmarkId::new("packed", n), &recs, |b, recs| {
            b.iter(|| {
                buf.copy_from_slice(recs);
                packed.run(&net, &mut buf, &mut scratch).expect("routes");
                black_box(buf[0])
            });
        });

        let scalar = RouteSpan::new().kernel(Kernel::Scalar);
        g.bench_with_input(BenchmarkId::new("scalar", n), &recs, |b, recs| {
            b.iter(|| {
                buf.copy_from_slice(recs);
                scalar.run(&net, &mut buf, &mut scratch).expect("routes");
                black_box(buf[0])
            });
        });

        // Batched: 64 distinct frames per invocation, throughput counted
        // per cell so the three series compare directly.
        let batch_frames: Vec<Vec<Record>> = (0..BATCH_FRAMES)
            .map(|_| records_for_permutation(&Permutation::random(n, &mut rng)))
            .collect();
        let opts = RouteSpan::new();
        let mut batch = FrameBatch::with_capacity(n, BATCH_FRAMES);
        let mut outcome = BatchOutcome::new();
        g.throughput(Throughput::Elements((n * BATCH_FRAMES) as u64));
        g.bench_with_input(BenchmarkId::new("batched", n), &batch_frames, |b, fr| {
            b.iter(|| {
                batch.clear();
                for frame in fr {
                    batch.push_frame(frame);
                }
                route_batch(&net, &mut batch, &opts, &mut scratch, &mut outcome);
                assert!(outcome.all_ok());
                black_box(batch.len())
            });
        });
        g.throughput(Throughput::Elements(n as u64));
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
