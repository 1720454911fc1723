//! Steady-state allocation audit: after warm-up, the reusable routing
//! paths (`Router::route_in_place` and the span routing it wraps)
//! must not touch the heap at all — the property the concurrent engine
//! relies on for allocation-free batch routing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bnb::core::network::BnbNetwork;
use bnb::core::router::Router;
use bnb::core::stages::{validate_lines, RouteSpan, StageScratch};
use bnb::topology::perm::Permutation;
use bnb::topology::record::{records_for_permutation, Record};

struct CountingAlloc;

// Per-thread so concurrently running tests never pollute each other's
// measurement window. Const-initialized: the TLS access itself must not
// allocate, and `try_with` tolerates calls during thread teardown.
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn router_steady_state_performs_no_allocation() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    for m in [3usize, 6, 8] {
        let n = 1usize << m;
        let net = BnbNetwork::builder(m).data_width(32).build();
        let mut router = Router::new(net);
        let batches: Vec<Vec<Record>> = (0..4)
            .map(|_| records_for_permutation(&Permutation::random(n, &mut rng)))
            .collect();
        let mut buf = batches[0].clone();
        // Warm-up: first routes may grow the lazily-sized scratch buffers.
        for batch in &batches {
            buf.copy_from_slice(batch);
            router.route_in_place(&mut buf).unwrap();
        }
        // Steady state: repeat the same traffic; zero heap traffic allowed.
        let allocs = allocations_during(|| {
            for _ in 0..10 {
                for batch in &batches {
                    buf.copy_from_slice(batch);
                    router.route_in_place(&mut buf).unwrap();
                }
            }
        });
        assert_eq!(
            allocs, 0,
            "m = {m}: route_in_place allocated in steady state"
        );
    }
}

#[test]
fn observed_routing_performs_no_allocation() {
    use bnb::obs::Counters;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let m = 6usize;
    let n = 1usize << m;
    let counters = Counters::new();
    let mut router = BnbNetwork::builder(m)
        .data_width(32)
        .observer(&counters)
        .build_router();
    let batches: Vec<Vec<Record>> = (0..4)
        .map(|_| records_for_permutation(&Permutation::random(n, &mut rng)))
        .collect();
    let mut buf = batches[0].clone();
    // Warm-up: sizes the scratch and pins this thread's counter shard.
    for batch in &batches {
        buf.copy_from_slice(batch);
        router.route_in_place(&mut buf).unwrap();
    }
    // Events are Copy structs landing in preallocated atomics: even with a
    // live Counters sink the hot path must stay off the heap.
    let allocs = allocations_during(|| {
        for _ in 0..10 {
            for batch in &batches {
                buf.copy_from_slice(batch);
                router.route_in_place(&mut buf).unwrap();
            }
        }
    });
    assert_eq!(
        allocs, 0,
        "observed route_in_place allocated in steady state"
    );
    let snap = counters.snapshot();
    assert!(snap.columns > 0, "the sink actually collected events");
}

#[test]
fn fault_free_faulty_fabric_performs_no_allocation() {
    // A FaultyFabric with an empty FaultMap must cost exactly what the
    // plain router costs: the fault hooks compile down to a skipped
    // `Option` check, with no heap traffic in steady state.
    use bnb::core::{FaultMap, FaultyFabric};
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    let m = 6usize;
    let n = 1usize << m;
    let net = BnbNetwork::builder(m).data_width(32).build();
    let mut fabric = FaultyFabric::new(net, FaultMap::new());
    let batches: Vec<Vec<Record>> = (0..4)
        .map(|_| records_for_permutation(&Permutation::random(n, &mut rng)))
        .collect();
    let mut buf = batches[0].clone();
    // Warm-up: first routes may grow the lazily-sized scratch buffers.
    for batch in &batches {
        buf.copy_from_slice(batch);
        fabric.route_in_place(&mut buf).unwrap();
    }
    let allocs = allocations_during(|| {
        for _ in 0..10 {
            for batch in &batches {
                buf.copy_from_slice(batch);
                fabric.route_in_place(&mut buf).unwrap();
            }
        }
    });
    assert_eq!(
        allocs, 0,
        "fault-free FaultyFabric allocated in steady state"
    );
}

#[test]
fn flight_recorder_overflow_is_allocation_free_and_counted() {
    // Satellite of the tracing PR: fill a capacity-k ring with far more
    // than k spans. The oldest spans must be evicted (never kept), every
    // eviction must land in `dropped`, and after the first record pins
    // this thread's lane the hot path must not touch the heap at all —
    // the ring is fully preallocated.
    use bnb::obs::{FlightRecorder, Span, SpanKind};
    const CAP: usize = 64;
    const TOTAL: u64 = 300;
    let recorder = FlightRecorder::with_capacity(CAP);
    let span = |i: u64| Span {
        kind: SpanKind::Round,
        ts_ns: i,
        dur_ns: 0,
        lane: 0,
        seq: i,
        a: 0,
        b: 0,
        c: 0,
        ok: true,
    };
    // Warm-up: assigns the thread's lane ordinal.
    recorder.record(span(0));
    let allocs = allocations_during(|| {
        for i in 1..TOTAL {
            recorder.record(span(i));
        }
    });
    assert_eq!(allocs, 0, "recording allocated after warm-up");
    assert_eq!(recorder.len(), CAP, "retention is bounded by capacity");
    assert_eq!(
        recorder.dropped(),
        TOTAL - CAP as u64,
        "every eviction is counted"
    );
    let spans = recorder.spans();
    assert_eq!(spans.len(), CAP);
    assert!(
        spans.iter().all(|s| s.seq >= TOTAL - CAP as u64),
        "only the newest spans survive overflow"
    );
}

#[test]
fn observed_routing_with_flight_recorder_stays_allocation_free() {
    // The recorder sits next to Counters on the hot path; with both
    // attached, steady-state routing must still never allocate.
    use bnb::obs::{Counters, Fanout, FlightRecorder};
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let m = 6usize;
    let n = 1usize << m;
    let counters = Counters::new();
    let recorder = FlightRecorder::with_capacity(512);
    let observer = Fanout::new(&counters, &recorder);
    let mut router = BnbNetwork::builder(m)
        .data_width(32)
        .observer(&observer)
        .build_router();
    let batches: Vec<Vec<Record>> = (0..4)
        .map(|_| records_for_permutation(&Permutation::random(n, &mut rng)))
        .collect();
    let mut buf = batches[0].clone();
    for batch in &batches {
        buf.copy_from_slice(batch);
        router.route_in_place(&mut buf).unwrap();
    }
    let allocs = allocations_during(|| {
        for _ in 0..10 {
            for batch in &batches {
                buf.copy_from_slice(batch);
                router.route_in_place(&mut buf).unwrap();
            }
        }
    });
    assert_eq!(allocs, 0, "recorded routing allocated in steady state");
    assert!(!recorder.is_empty(), "the recorder actually captured spans");
    assert!(
        recorder.dropped() > 0,
        "a 512-slot ring overflows under this traffic, and it is counted"
    );
}

#[test]
fn packed_kernel_is_allocation_free_after_warmup() {
    // The bit-packed word-parallel fast path (taken by default whenever
    // no observer is attached) sizes its plane/flag/index-plane scratch
    // on first use and must never touch the heap again — at sub-word
    // spans (m = 5: one partial u64), multi-word spans (m = 8: four u64
    // words per plane), and on the faulted options whose broken columns
    // fall back to per-box scalar processing.
    use bnb::core::{FaultKind, FaultMap, FaultSite};
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(14);
    for m in [5usize, 8] {
        let n = 1usize << m;
        let net = BnbNetwork::new(m);
        let mut scratch = StageScratch::with_capacity(n);
        let faults = FaultMap::single(FaultSite::new(1, 0, 0), FaultKind::StuckExchange);
        let healthy = RouteSpan::new();
        let faulted = RouteSpan::new().faults(&faults);
        let records = records_for_permutation(&Permutation::random(n, &mut rng));
        let mut lines = records.clone();
        // Warm-up sizes the packed planes and the fault tap scratch.
        healthy.run(&net, &mut lines, &mut scratch).unwrap();
        lines.copy_from_slice(&records);
        let _ = faulted.run(&net, &mut lines, &mut scratch);
        let allocs = allocations_during(|| {
            for _ in 0..10 {
                lines.copy_from_slice(&records);
                healthy.run(&net, &mut lines, &mut scratch).unwrap();
                lines.copy_from_slice(&records);
                let _ = faulted.run(&net, &mut lines, &mut scratch);
            }
        });
        assert_eq!(
            allocs, 0,
            "m = {m}: packed kernel allocated in steady state"
        );
    }
}

#[test]
fn batched_kernel_is_allocation_free_after_warmup() {
    // The frame-batched SoA kernel: after one warm-up pass has sized the
    // concatenated bit-planes, the outcome vector, and the batch's own
    // dest/data columns, refilling and re-routing the same batch shape
    // must never touch the heap — at a sub-word frame size (m = 5, so
    // frames straddle word boundaries in the concatenated planes) and a
    // multi-word one (m = 8).
    use bnb::core::batch::{route_batch, BatchOutcome, FrameBatch};
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(15);
    const FRAMES: usize = 7;
    for m in [5usize, 8] {
        let n = 1usize << m;
        let net = BnbNetwork::new(m);
        let mut scratch = StageScratch::with_capacity(n);
        let opts = RouteSpan::new();
        let frames: Vec<Vec<Record>> = (0..FRAMES)
            .map(|_| records_for_permutation(&Permutation::random(n, &mut rng)))
            .collect();
        let mut batch = FrameBatch::with_capacity(n, FRAMES);
        let mut outcome = BatchOutcome::new();
        let mut out = Vec::new();
        let pass = |batch: &mut FrameBatch,
                    outcome: &mut BatchOutcome,
                    scratch: &mut StageScratch,
                    out: &mut Vec<Record>| {
            batch.clear();
            for frame in &frames {
                batch.push_frame(frame);
            }
            route_batch(&net, batch, &opts, scratch, outcome);
            assert!(outcome.all_ok());
            batch.read_frame_into(FRAMES - 1, out);
        };
        // Warm-up sizes every buffer involved.
        pass(&mut batch, &mut outcome, &mut scratch, &mut out);
        let allocs = allocations_during(|| {
            for _ in 0..10 {
                pass(&mut batch, &mut outcome, &mut scratch, &mut out);
            }
        });
        assert_eq!(
            allocs, 0,
            "m = {m}: batched kernel allocated in steady state"
        );
    }
}

#[test]
fn faulted_batched_routing_is_allocation_free_after_warmup() {
    // The path a degraded batch job takes: `route_batch` under a
    // non-empty fault map routes frame at a time through the faulted
    // kernel, and a frame that trips the output balance check keeps its
    // submitted order and records the fault in the outcome. After warm-up
    // neither may touch the heap, with some frames of every batch
    // tripping.
    use bnb::core::batch::{route_batch, BatchOutcome, FrameBatch};
    use bnb::core::{FaultKind, FaultMap, FaultSite, FaultyFabric, RouteError};
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(16);
    const TRIPPING: usize = 3;
    const IMMUNE: usize = 4;
    for m in [5usize, 8] {
        let n = 1usize << m;
        let net = BnbNetwork::new(m);
        let faults = FaultMap::single(FaultSite::new(0, 0, 0), FaultKind::StuckExchange);
        // Split seeded permutations with the sequential faulted fabric.
        let mut probe = FaultyFabric::new(net, faults.clone());
        let (mut tripping, mut immune) = (Vec::new(), Vec::new());
        for _ in 0..1000 {
            if tripping.len() >= TRIPPING && immune.len() >= IMMUNE {
                break;
            }
            let frame = records_for_permutation(&Permutation::random(n, &mut rng));
            match probe.route(&frame) {
                Err(RouteError::HardwareFault { .. }) => tripping.push(frame),
                _ => immune.push(frame),
            }
        }
        tripping.truncate(TRIPPING);
        immune.truncate(IMMUNE);
        assert_eq!(
            (tripping.len(), immune.len()),
            (TRIPPING, IMMUNE),
            "m = {m}: no split"
        );
        let frames: Vec<Vec<Record>> = immune.into_iter().chain(tripping).collect();
        let mut scratch = StageScratch::with_capacity(n);
        let opts = RouteSpan::new().faults(&faults);
        let mut batch = FrameBatch::with_capacity(n, frames.len());
        let mut outcome = BatchOutcome::new();
        let mut out = Vec::new();
        let pass = |batch: &mut FrameBatch,
                    outcome: &mut BatchOutcome,
                    scratch: &mut StageScratch,
                    out: &mut Vec<Record>| {
            batch.clear();
            for frame in &frames {
                batch.push_frame(frame);
            }
            route_batch(&net, batch, &opts, scratch, outcome);
            let tripped = outcome
                .results()
                .iter()
                .filter(|r| matches!(r, Err(RouteError::HardwareFault { .. })))
                .count();
            assert_eq!(tripped, TRIPPING, "m = {m}: the fault trips");
            assert_eq!(outcome.results().len() - tripped, IMMUNE);
            batch.read_frame_into(frames.len() - 1, out);
        };
        // Warm-up sizes every buffer involved.
        pass(&mut batch, &mut outcome, &mut scratch, &mut out);
        let allocs = allocations_during(|| {
            for _ in 0..10 {
                pass(&mut batch, &mut outcome, &mut scratch, &mut out);
            }
        });
        assert_eq!(
            allocs, 0,
            "m = {m}: faulted batched routing allocated in steady state"
        );
    }
}

#[test]
fn stage_span_kernel_is_allocation_free_after_warmup() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(10);
    let m = 7usize;
    let n = 1usize << m;
    let net = BnbNetwork::new(m);
    let mut scratch = StageScratch::with_capacity(n);
    let mut seen = Vec::new();
    let span_opts = RouteSpan::new();
    let records = records_for_permutation(&Permutation::random(n, &mut rng));
    let mut lines = records.clone();
    // Warm-up (sizes the validation scratch).
    validate_lines(&net, &lines, &mut seen).unwrap();
    span_opts.run(&net, &mut lines, &mut scratch).unwrap();
    let allocs = allocations_during(|| {
        for _ in 0..3 {
            lines.copy_from_slice(&records);
            validate_lines(&net, &lines, &mut seen).unwrap();
            span_opts.run(&net, &mut lines, &mut scratch).unwrap();
        }
    });
    assert_eq!(allocs, 0, "stage kernel allocated in steady state");
}

#[test]
fn counters_observed_batched_kernel_is_allocation_free_after_warmup() {
    // The served configuration: `route_batch` with `&Counters` keeps the
    // batched kernel and reports stage totals into preallocated atomics.
    // Each batch carries one invalid frame (a duplicate destination), so
    // inert lanes ride along; the final movement stages one frame at a
    // time. After warm-up none of it may touch the heap.
    use bnb::core::batch::{route_batch, BatchOutcome, FrameBatch};
    use bnb::obs::Counters;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    const FRAMES: usize = 7;
    for m in [5usize, 8] {
        let n = 1usize << m;
        let net = BnbNetwork::new(m);
        let counters = Counters::new();
        let opts = RouteSpan::new().observer(&counters);
        let mut frames: Vec<Vec<Record>> = (0..FRAMES)
            .map(|_| records_for_permutation(&Permutation::random(n, &mut rng)))
            .collect();
        let dup = frames[3][0].dest();
        frames[3][1] = Record::new(dup, frames[3][1].data());
        let mut scratch = StageScratch::with_capacity(n);
        let mut batch = FrameBatch::with_capacity(n, FRAMES);
        let mut outcome = BatchOutcome::new();
        let mut out = Vec::new();
        let pass = |batch: &mut FrameBatch,
                    outcome: &mut BatchOutcome,
                    scratch: &mut StageScratch,
                    out: &mut Vec<Record>| {
            batch.clear();
            for frame in &frames {
                batch.push_frame(frame);
            }
            route_batch(&net, batch, &opts, scratch, outcome);
            let failed = outcome.results().iter().filter(|r| r.is_err()).count();
            assert_eq!(failed, 1, "m = {m}: exactly the duplicate frame fails");
            batch.read_frame_into(FRAMES - 1, out);
        };
        // Warm-up sizes every buffer and pins this thread's counter shard.
        pass(&mut batch, &mut outcome, &mut scratch, &mut out);
        let allocs = allocations_during(|| {
            for _ in 0..10 {
                pass(&mut batch, &mut outcome, &mut scratch, &mut out);
            }
        });
        assert_eq!(
            allocs, 0,
            "m = {m}: Counters-observed batched routing allocated in steady state"
        );
        let columns = (m * (m + 1) / 2) as u64;
        assert_eq!(
            counters.snapshot().columns,
            11 * (FRAMES as u64 - 1) * columns,
            "m = {m}: the sink counted every routed frame's columns"
        );
    }
}

#[test]
fn counters_observed_packed_span_is_allocation_free_after_warmup() {
    // `&Counters` on one-frame span calls: the word-parallel kernel reports
    // stage totals without touching the heap after warm-up.
    use bnb::obs::Counters;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(18);
    let m = 7usize;
    let n = 1usize << m;
    let net = BnbNetwork::new(m);
    let counters = Counters::new();
    let span_opts = RouteSpan::new().observer(&counters);
    let mut scratch = StageScratch::with_capacity(n);
    let records = records_for_permutation(&Permutation::random(n, &mut rng));
    let mut lines = records.clone();
    span_opts.run(&net, &mut lines, &mut scratch).unwrap();
    let allocs = allocations_during(|| {
        for _ in 0..3 {
            lines.copy_from_slice(&records);
            span_opts.run(&net, &mut lines, &mut scratch).unwrap();
        }
    });
    assert_eq!(
        allocs, 0,
        "Counters-observed packed span allocated in steady state"
    );
    assert!(
        counters.snapshot().columns > 0,
        "the sink counted the spans"
    );
}

#[test]
fn served_frames_allocate_nothing_after_warmup() {
    // A reactor turn's frame path: SUBMIT bytes fed to a FrameAssembler
    // and read in place into a FrameBatch, the batch routed on this thread
    // through `Fabric::route_batch` with `&Counters`, and the ROUTED
    // replies encoded from its payload column into a reused buffer. After
    // warm-up none of it may touch the heap, for one frame or several,
    // with no fault plan or under a healthy one (as `bnb serve --chaos`
    // routes between faults).
    use bnb::core::batch::FrameBatch;
    use bnb::engine::{Fabric, LiveFaultPlan, RouteScratch};
    use bnb::obs::Counters;
    use bnb::serve::protocol::{decode_submit, encode_routed, FrameAssembler, Message};
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(19);
    let healthy = LiveFaultPlan::healthy(2);
    for m in [5usize, 8] {
        let n = 1usize << m;
        let net = BnbNetwork::new(m);
        let counters = Counters::new();
        for plan in [None, Some(&healthy)] {
            let fabric = Fabric::new(net, &counters, plan);
            for frames in [1usize, 7] {
                let perms: Vec<Vec<u32>> = (0..frames)
                    .map(|_| {
                        let p = Permutation::random(n, &mut rng);
                        (0..n).map(|i| p.apply(i) as u32).collect()
                    })
                    .collect();
                let mut wire = Vec::new();
                for (id, dests) in perms.iter().enumerate() {
                    Message::Submit {
                        tenant: 3,
                        request_id: id as u64,
                        dests: dests.clone(),
                    }
                    .encode(&mut wire);
                }
                let mut asm = FrameAssembler::new();
                let mut batch = FrameBatch::new(n);
                let mut scratch = RouteScratch::with_capacity(n);
                let mut heads: Vec<(u16, u64)> = Vec::with_capacity(frames);
                let mut out = Vec::new();
                let mut turn = || {
                    asm.feed(&wire);
                    batch.clear();
                    heads.clear();
                    out.clear();
                    while let Some((body, _)) = asm.next_body().unwrap() {
                        let view = decode_submit(body).unwrap().expect("a SUBMIT");
                        heads.push((view.tenant, view.request_id));
                        batch.push_indexed_with(|dests| view.dests_into(dests));
                    }
                    let results = fabric.route_batch(&mut scratch, 0, 0, &mut batch);
                    assert!(results.iter().all(Result::is_ok), "{results:?}");
                    for (f, &(tenant, id)) in heads.iter().enumerate() {
                        encode_routed(&mut out, tenant, id, batch.frame_data(f));
                    }
                };
                // Warm-up sizes every buffer and pins this thread's
                // counter shard.
                turn();
                let allocs = allocations_during(|| {
                    for _ in 0..10 {
                        turn();
                    }
                });
                let planned = plan.is_some();
                assert_eq!(
                    allocs, 0,
                    "m = {m}, {frames} frames, plan {planned}: the served path allocated in steady state"
                );
                // The replies deliver: output j names the input bound for j.
                let mut replies = FrameAssembler::new();
                replies.feed(&out);
                for dests in &perms {
                    let Some((Message::Routed { sources, .. }, _)) = replies.next_frame().unwrap()
                    else {
                        panic!("expected a ROUTED reply");
                    };
                    for (j, &src) in sources.iter().enumerate() {
                        assert_eq!(dests[src as usize] as usize, j, "m = {m}: misdelivered");
                    }
                }
            }
        }
    }
}
