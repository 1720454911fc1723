//! Per-layer timings: each layer's public entry points called directly,
//! in-process, on the workload's own frames, after the server has exited
//! so nothing else competes for the cores.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bnb_core::batch::{route_batch, BatchOutcome, FrameBatch};
use bnb_core::network::BnbNetwork;
use bnb_core::stages::{RouteSpan, StageScratch};
use bnb_engine::{Engine, EngineConfig, EngineHandle, RoutedBatch, ShardDepth, ShardHealth};
use bnb_obs::{AtomicHistogram, Counters, Observer, Stage, Telemetry};
use bnb_serve::protocol::{FrameAssembler, Message};
use bnb_topology::record::Record;

use crate::stats::median;
use crate::trace::{Span, Tracer, LANE_LAYERS};
use crate::workload::{degraded_faults, degraded_plan, Pool, Workload, WORKERS};

/// Wall-clock budget per measured quantity.
const BUDGET: Duration = Duration::from_millis(200);
/// Fewest repetitions per quantity, whatever the budget.
const MIN_REPS: usize = 15;
/// Most repetitions per quantity: enough for a steady median, few
/// enough that the per-repetition spans keep the trace small.
const MAX_REPS: usize = 1000;
/// Calls per repetition of the sub-microsecond timings.
const INNER: usize = 64;

/// Named per-layer values, in the order measured.
pub type Values = Vec<(&'static str, f64)>;

fn ns_per(started: Instant, units: usize) -> f64 {
    started.elapsed().as_nanos() as f64 / units as f64
}

/// Runs `rep` — which times its own measured region and returns
/// nanoseconds per unit — at least [`MIN_REPS`] times, then until
/// [`BUDGET`] or [`MAX_REPS`] runs out, records a span per repetition,
/// and returns the median.
fn measure(
    tracer: &mut Tracer,
    name: &'static str,
    parent: &'static str,
    mut rep: impl FnMut() -> Result<f64, String>,
) -> Result<f64, String> {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_REPS || (started.elapsed() < BUDGET && samples.len() < MAX_REPS) {
        let start_ns = tracer.now_ns();
        samples.push(rep()?);
        let end_ns = tracer.now_ns();
        tracer.record(Span {
            name,
            parent,
            id: samples.len() as u64,
            lane: LANE_LAYERS,
            start_ns,
            dur_ns: end_ns - start_ns,
        });
    }
    Ok(median(&samples))
}

/// Records the span covering one whole layer's measurements.
fn layer_span(tracer: &mut Tracer, name: &'static str, start_ns: u64) {
    let end_ns = tracer.now_ns();
    tracer.record(Span {
        name,
        parent: "",
        id: 0,
        lane: LANE_LAYERS,
        start_ns,
        dur_ns: end_ns - start_ns,
    });
}

fn network(w: &Workload) -> Result<BnbNetwork, String> {
    Ok(BnbNetwork::builder_for(w.inputs())
        .map_err(|e| format!("bad network size: {e}"))?
        .build())
}

/// The records the server builds from a SUBMIT: input `i` carries its
/// destination and its own index as payload.
fn records(dests: &[u32]) -> Vec<Record> {
    dests
        .iter()
        .enumerate()
        .map(|(i, &d)| Record::new(d as usize, i as u64))
        .collect()
}

/// A window-sized batch of the workload's first frames.
fn window_batch(w: &Workload, pool: &Pool) -> FrameBatch {
    let mut batch = FrameBatch::with_capacity(w.inputs(), w.window);
    for perm in pool.perms.iter().cycle().take(w.window) {
        batch.push_frame(&records(perm));
    }
    batch
}

fn delivered(lines: &[Record]) -> bool {
    lines.iter().enumerate().all(|(d, r)| r.dest() == d)
}

/// `bnb_serve::protocol`: SUBMIT and ROUTED encode and decode, per
/// message, through the same `encode` and `FrameAssembler` the server uses.
pub fn protocol(pool: &Pool, tracer: &mut Tracer) -> Result<Values, String> {
    let start_ns = tracer.now_ns();
    let dests = pool.perms[0].clone();
    let mut sources = vec![0u32; dests.len()];
    for (i, &d) in dests.iter().enumerate() {
        sources[d as usize] = i as u32;
    }
    let submit = Message::Submit {
        tenant: 1,
        request_id: 1,
        dests,
    };
    let routed = Message::Routed {
        tenant: 1,
        request_id: 1,
        sources,
    };
    let (submit_bytes, routed_bytes) = (submit.to_bytes(), routed.to_bytes());
    let mut out = Vec::new();
    let mut encode = |msg: &Message| {
        let started = Instant::now();
        for _ in 0..INNER {
            out.clear();
            black_box(msg).encode(&mut out);
            black_box(&out);
        }
        Ok(ns_per(started, INNER))
    };
    let submit_encode = measure(tracer, "protocol.submit_encode", "protocol", || {
        encode(&submit)
    })?;
    let routed_encode = measure(tracer, "protocol.routed_encode", "protocol", || {
        encode(&routed)
    })?;
    let mut asm = FrameAssembler::new();
    let mut decode = |bytes: &[u8]| {
        let started = Instant::now();
        for _ in 0..INNER {
            asm.feed(black_box(bytes));
            let frame = asm
                .next_frame()
                .map_err(|e| format!("decode failed: {e}"))?;
            black_box(frame.ok_or("frame incomplete")?);
        }
        Ok(ns_per(started, INNER))
    };
    let submit_decode = measure(tracer, "protocol.submit_decode", "protocol", || {
        decode(&submit_bytes)
    })?;
    let routed_decode = measure(tracer, "protocol.routed_decode", "protocol", || {
        decode(&routed_bytes)
    })?;
    layer_span(tracer, "protocol", start_ns);
    Ok(vec![
        ("protocol.submit_encode_ns", submit_encode),
        ("protocol.submit_decode_ns", submit_decode),
        ("protocol.routed_encode_ns", routed_encode),
        ("protocol.routed_decode_ns", routed_decode),
        (
            "protocol.bytes_per_frame",
            (submit_bytes.len() + routed_bytes.len()) as f64,
        ),
    ])
}

/// Medians of one engine round-trip series.
struct Roundtrip {
    roundtrip_ns: f64,
    queue_ns: f64,
    route_ns: f64,
}

/// Submits a window-sized batch with `try_submit_batch`, drains every
/// frame, and repeats: per round trip the wall time, the queue wait the
/// engine stamped, and the longest pickup-to-publish time (the batch's
/// route time, which every frame of a batch job shares).
fn roundtrips<O: Observer>(
    handle: &EngineHandle<'_, O>,
    batch: &FrameBatch,
    tracer: &mut Tracer,
    name: &'static str,
) -> Result<Roundtrip, String> {
    let frames = batch.frames();
    let mut routed = Vec::with_capacity(frames);
    let (mut queue, mut route) = (Vec::new(), Vec::new());
    let once = |routed: &mut Vec<RoutedBatch>| -> Result<f64, String> {
        let copy = batch.clone();
        let started = Instant::now();
        handle
            .try_submit_batch(copy, &[])
            .map_err(|e| format!("engine refused a batch: {e}"))?;
        routed.clear();
        for _ in 0..frames {
            routed.push(handle.drain().ok_or("engine closed mid-batch")?);
        }
        let ns = started.elapsed().as_nanos() as f64;
        for r in routed.iter() {
            let lines = r
                .result
                .as_ref()
                .map_err(|e| format!("engine failed a frame: {e}"))?;
            if !delivered(lines) {
                return Err("engine misdelivered a frame".into());
            }
        }
        Ok(ns)
    };
    for _ in 0..MIN_REPS {
        once(&mut routed)?; // warm-up
    }
    let median_rt = measure(tracer, name, "engine", || {
        let ns = once(&mut routed)?;
        queue.push(routed[0].queue_ns as f64);
        route.push(routed.iter().map(|r| r.route_ns).max().unwrap_or(0) as f64);
        Ok(ns)
    })?;
    Ok(Roundtrip {
        roundtrip_ns: median_rt,
        queue_ns: median(&queue),
        route_ns: median(&route),
    })
}

/// `bnb_engine`: the server's `EngineConfig`, unobserved and with the
/// `&Counters` observer the server attaches, and under `run_scrubbed`
/// with the degraded plan once its faulty shard is quarantined. The
/// scrubbed run also gives the `bnb_engine::live` figures, and fails if
/// the faulty shard leaves quarantine while it is timed (flapping).
pub fn engine(w: &Workload, pool: &Pool, tracer: &mut Tracer) -> Result<Values, String> {
    let start_ns = tracer.now_ns();
    let net = network(w)?;
    let config = EngineConfig {
        workers: WORKERS,
        queue_capacity: w.serve_config().queue_capacity,
        shard_depth: ShardDepth::Auto,
    };
    let batch = window_batch(w, pool);
    let counters = Counters::new();
    let plain = Engine::new(net, config).run(|h| roundtrips(h, &batch, tracer, "engine.noop"))?;
    let observed = Engine::with_observer(net, config, &counters)
        .run(|h| roundtrips(h, &batch, tracer, "engine.counters"))?;
    let plan = degraded_plan(1);
    let live = Counters::new();
    let (scrubbed, before, after, seconds) = Engine::with_observer(net, config, &live)
        .run_scrubbed(&plan, |h| {
            // Traffic demotes the faulty shard and the scrubber confirms it;
            // time only the steady state that follows.
            let deadline = Instant::now() + Duration::from_secs(2);
            let copy = batch.clone();
            while plan.health(1) != ShardHealth::Quarantined && Instant::now() < deadline {
                h.try_submit_batch(copy.clone(), &[])
                    .map_err(|e| format!("engine refused a batch: {e}"))?;
                for _ in 0..copy.frames() {
                    h.drain().ok_or("engine closed mid-batch")?;
                }
            }
            let before = live.snapshot();
            let started = Instant::now();
            let scrubbed = roundtrips(h, &batch, tracer, "engine.scrubbed")?;
            let seconds = started.elapsed().as_secs_f64();
            Ok::<_, String>((scrubbed, before, live.snapshot(), seconds))
        })?;
    let quarantined = (0..plan.shards())
        .filter(|&i| plan.health(i) == ShardHealth::Quarantined)
        .count();
    if before.shards_quarantined != 1 || quarantined != 1 || after.shards_restored != 0 {
        return Err(format!(
            "live guard: faulty shard flapped ({} quarantines before timing, {quarantined} quarantined after, {} restores)",
            before.shards_quarantined, after.shards_restored
        ));
    }
    layer_span(tracer, "engine", start_ns);
    Ok(vec![
        ("engine.roundtrip_us", plain.roundtrip_ns / 1e3),
        ("engine.queue_ns", plain.queue_ns),
        ("engine.route_ns", plain.route_ns),
        ("engine.route_ns_counters", observed.route_ns),
        ("engine.observer_cost_x", observed.route_ns / plain.route_ns),
        ("engine.route_ns_scrubbed", scrubbed.route_ns),
        ("live.quarantined_shards", quarantined as f64),
        ("live.restores", after.shards_restored as f64),
        (
            "live.scrub_probes_per_s",
            (after.scrub_probes - before.scrub_probes) as f64 / seconds,
        ),
        ("live.fault_retries", after.fault_retries as f64),
    ])
}

/// `bnb_core::batch::route_batch` on a window-sized batch, per frame:
/// the batched kernel, the scalar sweep an enabled observer forces (the
/// path the server takes), and that sweep over the [`degraded_faults`]
/// fabric.
pub fn kernel(w: &Workload, pool: &Pool, tracer: &mut Tracer) -> Result<Values, String> {
    let start_ns = tracer.now_ns();
    let net = network(w)?;
    let batch = window_batch(w, pool);
    let counters = Counters::new();
    let faults = degraded_faults();
    let mut scratch = StageScratch::with_capacity(w.inputs());
    let mut outcome = BatchOutcome::new();
    let mut work = batch.clone();
    let mut lines = Vec::new();
    let mut time = |tracer: &mut Tracer, name, opts: RouteSpan<'_>, must_route: bool| {
        measure(tracer, name, "kernel", || {
            work.clone_from(&batch);
            let started = Instant::now();
            route_batch(&net, &mut work, &opts, &mut scratch, &mut outcome);
            let ns = ns_per(started, batch.frames());
            for (f, result) in outcome.results().iter().enumerate() {
                match result {
                    Ok(()) => {
                        work.read_frame_into(f, &mut lines);
                        if !delivered(&lines) {
                            return Err(format!("{name} misdelivered frame {f}"));
                        }
                    }
                    Err(e) if must_route => return Err(format!("{name} failed frame {f}: {e}")),
                    Err(_) => {}
                }
            }
            Ok(ns)
        })
    };
    let batched = time(tracer, "kernel.batched", RouteSpan::new(), true)?;
    let scalar = time(
        tracer,
        "kernel.scalar_observed",
        RouteSpan::new().observer(&counters),
        true,
    )?;
    let faulted = time(
        tracer,
        "kernel.faulted",
        RouteSpan::new().observer(&counters).faults(&faults),
        false,
    )?;
    layer_span(tracer, "kernel", start_ns);
    Ok(vec![
        ("kernel.batched_ns_per_frame", batched),
        ("kernel.scalar_observed_ns_per_frame", scalar),
        ("kernel.faulted_ns_per_frame", faulted),
    ])
}

/// `bnb_obs`: what the serving path records per served request (six
/// stage samples plus the wire sample and tenant window), and one
/// histogram sample.
pub fn obs(tracer: &mut Tracer) -> Result<Values, String> {
    let start_ns = tracer.now_ns();
    let telemetry = Telemetry::new();
    let per_request = measure(tracer, "obs.telemetry", "obs", || {
        let started = Instant::now();
        for i in 0..INNER as u64 {
            for stage in Stage::ALL {
                telemetry.record_stage(stage, black_box(1_000 + i));
            }
            telemetry.record_request(1, 512, black_box(20_000 + i));
        }
        Ok(ns_per(started, INNER))
    })?;
    let histogram = AtomicHistogram::new();
    let per_record = measure(tracer, "obs.histogram", "obs", || {
        let started = Instant::now();
        for i in 0..INNER as u64 {
            histogram.record(black_box(i * 977));
        }
        Ok(ns_per(started, INNER))
    })?;
    layer_span(tracer, "obs", start_ns);
    Ok(vec![
        ("obs.telemetry_ns_per_request", per_request),
        ("obs.histogram_record_ns", per_record),
    ])
}
