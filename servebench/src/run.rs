//! One benchmark run: set the server up (several times, for `setup_s`),
//! warm it, measure one workload for the requested seconds, check every
//! reply and both frame ledgers, and print the result line.
//!
//! The measured window is cut into slices of about two seconds; the
//! end-to-end throughput, latency quantiles and CPU per frame are medians
//! over the slices of each slice's exact value. On a shared host, a
//! multi-millisecond stall lands in a few slices and moves the median
//! little, where it would move a whole-window p99 a lot.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use bnb_serve::StatusSnapshot;

use crate::client::{Client, Slice};
use crate::layers;
use crate::server::{ServerLedger, ServerProc};
use crate::stats::{highest_supported_tail, mean, median, quantile, quantile_with_count, Ledger};
use crate::trace::Tracer;
use crate::workload::{Pool, Workload, CONNECTIONS, WORKLOADS};

/// End-to-end metrics `(name, unit)`, reported by untraced runs.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_fps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("server_cpu_us_per_frame", "us"),
    ("server_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("protocol.submit_encode_ns", "ns"),
    ("protocol.submit_decode_ns", "ns"),
    ("protocol.routed_encode_ns", "ns"),
    ("protocol.routed_decode_ns", "ns"),
    ("protocol.bytes_per_frame", "bytes"),
    ("serve.decode_us", "us"),
    ("serve.admission_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.route_us", "us"),
    ("serve.drain_us", "us"),
    ("serve.write_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.outside_us", "us"),
    ("serve.window_max_depth", "count"),
    ("serve.engine_queue_high_water", "count"),
    ("engine.roundtrip_us", "us"),
    ("engine.queue_ns", "ns"),
    ("engine.route_ns", "ns"),
    ("engine.route_ns_counters", "ns"),
    ("engine.observer_cost_x", "x"),
    ("engine.route_ns_scrubbed", "ns"),
    ("kernel.batched_ns_per_frame", "ns"),
    ("kernel.scalar_observed_ns_per_frame", "ns"),
    ("kernel.faulted_ns_per_frame", "ns"),
    ("kernel.share_of_server_cpu", "frac"),
    ("obs.telemetry_ns_per_request", "ns"),
    ("obs.histogram_record_ns", "ns"),
    ("live.quarantined_shards", "count"),
    ("live.restores", "count"),
    ("live.scrub_probes_per_s", "1/s"),
    ("live.fault_retries", "count"),
    ("client.latency_samples", "count"),
    ("client.failed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Server start-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Untimed load before the window, so caches and lazy set-up settle.
const WARMUP: Duration = Duration::from_secs(1);
/// Target slice length; the window is cut into whole slices near it.
const SLICE: Duration = Duration::from_secs(2);
const FIRST_REPLY_TIMEOUT: Duration = Duration::from_secs(10);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);
/// A slice's p99 needs at least this many samples to have ten beyond it.
const MIN_SLICE_SAMPLES: usize = 1000;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} expects a whole number, got {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::by_name(value).ok_or_else(|| {
                        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload {value} (one of {})", names.join(", "))
                    })?)
                }
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace expects 0 or 1, got {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !(1..=600).contains(&seconds) {
            return Err(format!("--seconds expects 1..=600, got {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// The server's `/status` at one instant.
struct Probe {
    status: StatusSnapshot,
}

impl Probe {
    fn take(server: &ServerProc) -> Result<Probe, String> {
        Ok(Probe {
            status: server.status()?,
        })
    }

    /// `(sum_ns, count)` of one telemetry stage, or of `"wire"`.
    fn stage(&self, name: &str) -> (u64, u64) {
        let t = &self.status.telemetry;
        t.stages
            .iter()
            .chain(std::iter::once(&t.wire))
            .find(|s| s.stage == name)
            .map_or((0, 0), |s| (s.sum_ns, s.count))
    }
}

/// A live server and the client connected to it.
struct Session<'p> {
    server: ServerProc,
    client: Client<'p>,
}

/// Spawns a server and waits for a verified reply on every connection;
/// returns the session and that set-up time in seconds.
fn start<'p>(w: &Workload, pool: &'p Pool, epoch: Instant) -> Result<(Session<'p>, f64), String> {
    let started = Instant::now();
    let server = ServerProc::spawn(w)?;
    let mut client = Client::connect(server.addr, w.window, pool, CONNECTIONS, epoch)?;
    client.first_replies(FIRST_REPLY_TIMEOUT)?;
    Ok((Session { server, client }, started.elapsed().as_secs_f64()))
}

/// Drains the client, shuts the server down gracefully, and checks both
/// ledgers, adding any disagreement to `problems`.
fn finish(session: Session<'_>, problems: &mut Vec<String>) -> Result<(Ledger, Tracer), String> {
    let Session { server, mut client } = session;
    client.drain(DRAIN_TIMEOUT)?;
    let (ledger, tracer) = client.close();
    let report = server.shutdown()?;
    problems.extend(ledger_problems(&ledger, &report));
    Ok((ledger, tracer))
}

fn ledger_problems(client: &Ledger, server: &ServerLedger) -> Vec<String> {
    let mut problems = Vec::new();
    if client.misdelivered > 0 {
        problems.push(format!("{} misdelivered frames", client.misdelivered));
    }
    if !client.balances() {
        problems.push(format!("client ledger does not balance: {client:?}"));
    }
    if !server.accounted || !server.graceful {
        problems.push(format!(
            "server did not drain to a balanced ledger: {server:?}"
        ));
    }
    if server.submitted != client.submitted
        || server.served != client.served + client.misdelivered
        || server.retried != client.retried
        || server.errored != client.errored
    {
        problems.push(format!(
            "client and server ledgers disagree: client {client:?}, server {server:?}"
        ));
    }
    problems
}

fn add(total: &mut Ledger, l: &Ledger) {
    total.submitted += l.submitted;
    total.served += l.served;
    total.misdelivered += l.misdelivered;
    total.retried += l.retried;
    total.errored += l.errored;
    total.unanswered += l.unanswered;
    total.surprises += l.surprises;
}

/// One slice's exact figures.
struct SliceStats {
    throughput: f64,
    p50_us: f64,
    p99_us: f64,
    cpu_us_per_frame: f64,
    mean_us: f64,
}

/// Quantile `q` of `samples` in microseconds; NaN for no samples.
fn quantile_us(samples: &[u64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    if sorted.is_empty() {
        return f64::NAN;
    }
    quantile(&sorted, q) as f64 / 1e3
}

fn slice_stats(slice: &Slice) -> SliceStats {
    SliceStats {
        throughput: slice.served() as f64 / (slice.elapsed_ns as f64 / 1e9),
        p50_us: quantile_us(&slice.latency_ns, 0.5),
        p99_us: quantile_us(&slice.latency_ns, 0.99),
        cpu_us_per_frame: slice.server_cpu_ns as f64 / 1e3 / slice.served().max(1) as f64,
        mean_us: mean(&slice.latency_ns) / 1e3,
    }
}

/// The median over `slices` of one per-slice figure.
fn slice_median(slices: &[Slice], f: impl Fn(&SliceStats) -> f64) -> f64 {
    let values: Vec<f64> = slices.iter().map(|s| f(&slice_stats(s))).collect();
    median(&values)
}

fn all_latencies<'a>(slices: impl IntoIterator<Item = &'a Slice>) -> Vec<u64> {
    slices
        .into_iter()
        .flat_map(|s| s.latency_ns.iter().copied())
        .collect()
}

/// Everything one served run measured.
struct Served {
    setups: Vec<f64>,
    /// The untraced slices of the measured window.
    window: Vec<Slice>,
    /// In traced runs, the traced slices, alternating with the untraced.
    traced: Vec<Slice>,
    before: Probe,
    after: Probe,
    peak_rss_kib: u64,
    ledger: Ledger,
    tracer: Tracer,
    problems: Vec<String>,
}

impl Served {
    /// Mean of one stage over the window, from the difference of the
    /// cumulative telemetry sums (means only: the stage quantiles are
    /// octave buckets).
    fn stage_mean_us(&self, name: &str) -> f64 {
        let (sum0, n0) = self.before.stage(name);
        let (sum1, n1) = self.after.stage(name);
        (sum1 - sum0) as f64 / 1e3 / (n1 - n0).max(1) as f64
    }

    /// Reasons the run cannot be reported as a number.
    fn invalid(&self) -> Vec<String> {
        self.window
            .iter()
            .enumerate()
            .filter(|(_, slice)| slice.latency_ns.len() < MIN_SLICE_SAMPLES)
            .map(|(i, slice)| {
                format!(
                    "slice {i} has {} latency samples, fewer than the {MIN_SLICE_SAMPLES} a p99 needs",
                    slice.latency_ns.len()
                )
            })
            .collect()
    }
}

/// How many slices to cut a window of `total` into: whole slices near
/// [`SLICE`], but few enough that each expects twice the samples a p99
/// needs at the warm-up's `rate` (frames/s), so a host that slows down
/// for a while still leaves every slice a supported p99. Traced runs
/// need at least two slices, one of each kind.
fn slice_count(total: Duration, rate: f64, trace: bool) -> u32 {
    let by_time = (total.as_secs_f64() / SLICE.as_secs_f64()).round() as u32;
    let by_rate = (rate * total.as_secs_f64() / (2 * MIN_SLICE_SAMPLES) as f64) as u32;
    by_time.min(by_rate).max(1 + trace as u32)
}

/// Offers load for `total` in `count` slices, reading the server's CPU
/// time at every slice boundary; returns the untraced and the traced
/// slices. With `trace`, every other slice records spans, so host drift
/// over the window falls on both groups alike.
fn measure_slices(
    s: &mut Session<'_>,
    total: Duration,
    count: u32,
    trace: bool,
) -> Result<(Vec<Slice>, Vec<Slice>), String> {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut cpu = s.server.cpu_ns()?;
    for i in 0..count {
        let mut slice = Slice::default();
        s.client.tracer.enabled = trace && i % 2 == 1;
        s.client.run(total / count, Some(&mut slice))?;
        let now = s.server.cpu_ns()?;
        slice.server_cpu_ns = now - cpu;
        cpu = now;
        if s.client.tracer.enabled {
            traced.push(slice);
        } else {
            plain.push(slice);
        }
    }
    s.client.tracer.enabled = false;
    Ok((plain, traced))
}

/// Sets the server up `setup_reps` times (keeping the last), warms it,
/// and measures one window — every other slice traced when `args.trace`.
fn serve_run(
    w: &Workload,
    args: &Args,
    pool: &Pool,
    epoch: Instant,
    setup_reps: usize,
) -> Result<Served, String> {
    let mut problems = Vec::new();
    let mut setups = Vec::new();
    let mut ledger = Ledger::default();
    let mut kept = None;
    for rep in 0..setup_reps {
        let (session, secs) = start(w, pool, epoch)?;
        setups.push(secs);
        if rep + 1 < setup_reps {
            add(&mut ledger, &finish(session, &mut problems)?.0);
        } else {
            kept = Some(session);
        }
    }
    let mut s = kept.ok_or("no server was set up")?;
    let mut warm = Slice::default();
    s.client.run(WARMUP, Some(&mut warm))?;
    let rate = warm.served() as f64 / (warm.elapsed_ns as f64 / 1e9);
    let before = Probe::take(&s.server)?;
    let total = Duration::from_secs(args.seconds);
    let count = slice_count(total, rate, args.trace);
    let (window, traced) = measure_slices(&mut s, total, count, args.trace)?;
    let after = Probe::take(&s.server)?;
    let peak_rss_kib = s.server.peak_rss_kib()?;
    let (last, tracer) = finish(s, &mut problems)?;
    add(&mut ledger, &last);
    Ok(Served {
        setups,
        window,
        traced,
        before,
        after,
        peak_rss_kib,
        ledger,
        tracer,
        problems,
    })
}

fn end_to_end(served: &Served) -> Vec<(&'static str, f64)> {
    let slices = &served.window;
    vec![
        ("throughput_fps", slice_median(slices, |s| s.throughput)),
        ("latency_p50_us", slice_median(slices, |s| s.p50_us)),
        ("latency_p99_us", slice_median(slices, |s| s.p99_us)),
        ("setup_s", median(&served.setups)),
        (
            "server_cpu_us_per_frame",
            slice_median(slices, |s| s.cpu_us_per_frame),
        ),
        ("server_rss_mb", served.peak_rss_kib as f64 / 1024.0),
    ]
}

fn per_layer(
    w: &Workload,
    served: &Served,
    pool: &Pool,
    tracer: &mut Tracer,
) -> Result<Vec<(&'static str, f64)>, String> {
    let wire_us = served.stage_mean_us("wire");
    let client_latency = all_latencies(served.window.iter().chain(&served.traced));
    let untraced_mean_us = slice_median(&served.window, |s| s.mean_us);
    let traced_mean_us = slice_median(&served.traced, |s| s.mean_us);
    let cpu_us_per_frame = slice_median(&served.window, |s| s.cpu_us_per_frame);
    let mut values = vec![
        ("serve.decode_us", served.stage_mean_us("decode")),
        ("serve.admission_us", served.stage_mean_us("admission")),
        ("serve.queue_wait_us", served.stage_mean_us("queue_wait")),
        ("serve.route_us", served.stage_mean_us("route")),
        ("serve.drain_us", served.stage_mean_us("drain")),
        ("serve.write_us", served.stage_mean_us("write")),
        ("serve.wire_us", wire_us),
        ("serve.outside_us", mean(&client_latency) / 1e3 - wire_us),
        (
            "serve.window_max_depth",
            served.after.status.window.max_depth as f64,
        ),
        (
            "serve.engine_queue_high_water",
            served.after.status.engine.queue_high_water as f64,
        ),
        ("client.latency_samples", client_latency.len() as f64),
        ("client.failed_frac", served.ledger.failed_frac()),
        (
            "trace.overhead_frac",
            traced_mean_us / untraced_mean_us - 1.0,
        ),
    ];
    tracer.enabled = true;
    values.extend(layers::protocol(pool, tracer)?);
    values.extend(layers::engine(w, pool, tracer)?);
    let kernel = layers::kernel(w, pool, tracer)?;
    // The served route is the scalar sweep an enabled observer forces.
    let served_kernel_ns = kernel
        .iter()
        .find(|(n, _)| *n == "kernel.scalar_observed_ns_per_frame")
        .map_or(0.0, |&(_, v)| v);
    values.extend(kernel);
    values.push((
        "kernel.share_of_server_cpu",
        served_kernel_ns / (cpu_us_per_frame * 1e3),
    ));
    values.extend(layers::obs(tracer)?);
    tracer.enabled = false;
    Ok(values)
}

/// The result line: every metric of `spec` exactly once, with its unit.
fn result_line(
    correct: bool,
    ledger: &Ledger,
    values: &[(&'static str, f64)],
    spec: &[(&str, &str)],
) -> Result<String, String> {
    let mut metrics = Vec::new();
    for &(name, unit) in spec {
        let found: Vec<f64> = values
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .collect();
        match found.as_slice() {
            [v] if v.is_finite() => metrics.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            )),
            [v] => return Err(format!("metric {name} is not finite ({v})")),
            _ => return Err(format!("metric {name} measured {} times", found.len())),
        }
    }
    if values.len() != spec.len() {
        return Err(format!(
            "{} values for {} metrics",
            values.len(),
            spec.len()
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.submitted.max(1),
        ledger.failed(),
        metrics.join(", ")
    ))
}

/// Human-readable account of the run on stderr: every slice, the whole
/// window's quantiles with their sample counts, and every metric.
fn report(served: &Served, values: &[(&'static str, f64)], spec: &[(&str, &str)]) {
    for (i, slice) in served.window.iter().enumerate() {
        let s = slice_stats(slice);
        eprintln!(
            "slice {i}: {} samples, {:.0} frames/s, p50 {:.1} us, p99 {:.1} us, server {:.2} us CPU/frame",
            slice.latency_ns.len(),
            s.throughput,
            s.p50_us,
            s.p99_us,
            s.cpu_us_per_frame
        );
    }
    let mut latency = all_latencies(&served.window);
    latency.sort_unstable();
    if !latency.is_empty() {
        let (p50, p99) = (
            quantile_with_count(&latency, 0.5),
            quantile_with_count(&latency, 0.99),
        );
        eprintln!(
            "whole window: {} samples, p50 {:.1} us, p99 {:.1} us ({} beyond)",
            p50.samples,
            p50.value as f64 / 1e3,
            p99.value as f64 / 1e3,
            p99.beyond
        );
    }
    if let Some(tail) = highest_supported_tail(&latency) {
        eprintln!(
            "highest supported tail: p{} = {:.1} us ({} samples, {} beyond)",
            tail.q * 100.0,
            tail.value as f64 / 1e3,
            tail.samples,
            tail.beyond
        );
    }
    eprintln!(
        "set-ups (s): {:?}; ledger: {:?}",
        served.setups, served.ledger
    );
    for &(name, unit) in spec {
        if let Some(&(_, v)) = values.iter().find(|(n, _)| *n == name) {
            eprintln!("  {name:<38} {v:>14.4} {unit}");
        }
    }
}

/// `--workload all`: every workload of record in turn, each run by a
/// fresh process of this executable with the other flags unchanged.
/// Exits with the worst exit code among them.
fn run_all(args: &[String], at: usize) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut worst = 0;
    for w in &WORKLOADS {
        let mut one = args.to_vec();
        one[at] = w.name.to_string();
        let status = std::process::Command::new(&exe)
            .args(&one)
            .status()
            .map_err(|e| format!("cannot run workload {}: {e}", w.name))?;
        worst = worst.max(status.code().unwrap_or(2));
    }
    Ok(ExitCode::from(worst.clamp(0, 255) as u8))
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let all = args
        .iter()
        .position(|a| a == "--workload")
        .map(|i| i + 1)
        .filter(|&i| args.get(i).map(String::as_str) == Some("all"));
    if let Some(at) = all {
        return run_all(args, at);
    }
    let args = Args::parse(args)?;
    let w = args.workload;
    eprintln!("servebench: {}", w.describe(args.seed, args.seconds));
    let epoch = Instant::now();
    let pool = Pool::generate(w.inputs(), args.seed);
    let setup_reps = if args.trace { 1 } else { SETUP_REPS };
    let mut served = serve_run(w, &args, &pool, epoch, setup_reps)?;
    let invalid = served.invalid();
    let (values, spec): (_, &[(&str, &str)]) = if args.trace {
        let mut tracer = std::mem::replace(&mut served.tracer, Tracer::new(epoch));
        let values = per_layer(w, &served, &pool, &mut tracer)?;
        let dir = std::env::current_exe()
            .map_err(|e| format!("cannot find own executable: {e}"))?
            .parent()
            .map(|d| d.to_path_buf())
            .ok_or("executable has no directory")?;
        let path = dir.join(format!("trace-{}-{}.json", w.name, args.seed));
        let written = tracer.write_chrome(&path)?;
        eprintln!(
            "trace: {written} of {} spans written to {}",
            tracer.recorded(),
            path.display()
        );
        (values, &PER_LAYER)
    } else {
        (end_to_end(&served), &END_TO_END)
    };
    report(&served, &values, spec);
    let correct = served.problems.is_empty();
    for problem in &served.problems {
        eprintln!("INCORRECT: {problem}");
    }
    if correct && !invalid.is_empty() {
        for reason in &invalid {
            eprintln!("INVALID: {reason}");
        }
        return Ok(ExitCode::from(3));
    }
    println!("{}", result_line(correct, &served.ledger, &values, spec)?);
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Deserialize)]
    struct Spec {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<WorkloadSpec>,
        end_to_end: Vec<BoundedSpec>,
        per_layer: Vec<MetricSpec>,
    }

    #[derive(Deserialize)]
    struct WorkloadSpec {
        name: String,
        why: String,
    }

    #[derive(Deserialize)]
    struct BoundedSpec {
        name: String,
        unit: String,
        better: String,
        bound: f64,
    }

    #[derive(Deserialize)]
    struct MetricSpec {
        name: String,
        unit: String,
        better: String,
    }

    fn spec() -> Spec {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_names_match_what_the_runs_emit() {
        let spec = spec();
        let e2e: Vec<(&str, &str)> = spec
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(e2e, END_TO_END.to_vec());
        let layers: Vec<(&str, &str)> = spec
            .per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(layers, PER_LAYER.to_vec());
        let workloads: Vec<(&str, &str)> = spec
            .workloads
            .iter()
            .map(|w| (w.name.as_str(), w.why.as_str()))
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, ours);
        assert_eq!(spec.paths, vec!["servebench".to_string()]);
        assert!(spec.command.iter().any(|a| a == "servebench/Cargo.toml"));
        assert!((1..=60).contains(&spec.run_seconds));
        let betters = spec.end_to_end.iter().map(|m| &m.better);
        for better in betters.chain(spec.per_layer.iter().map(|m| &m.better)) {
            assert!(better == "lower" || better == "higher", "{better}");
        }
        for m in &spec.end_to_end {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        let largest = spec.end_to_end.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s carries the largest bound");
    }

    #[test]
    fn result_line_names_every_metric_once() {
        let ledger = Ledger {
            submitted: 10,
            served: 9,
            retried: 1,
            ..Ledger::default()
        };
        let values: Vec<(&'static str, f64)> = END_TO_END.iter().map(|&(n, _)| (n, 1.5)).collect();
        let line = result_line(true, &ledger, &values, &END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 1, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(result_line(true, &ledger, &values[1..], &END_TO_END).is_err());
        let mut doubled = values.clone();
        doubled.push(("setup_s", 2.0));
        assert!(result_line(true, &ledger, &doubled, &END_TO_END).is_err());
        let mut nan = values;
        nan[0].1 = f64::NAN;
        assert!(result_line(true, &ledger, &nan, &END_TO_END).is_err());
    }

    #[test]
    fn slice_figures_are_exact_and_summarised_by_their_median() {
        let slice = |base: u64, cpu_ns: u64| Slice {
            elapsed_ns: 2_000_000_000,
            latency_ns: (1..=100).map(|i| base + i * 1000).collect(),
            server_cpu_ns: cpu_ns,
        };
        let s = slice_stats(&slice(0, 5_000_000));
        assert_eq!((s.throughput, s.p50_us, s.p99_us), (50.0, 50.0, 99.0));
        assert_eq!(s.mean_us, 50.5);
        assert_eq!(s.cpu_us_per_frame, 50.0);
        // One disturbed slice of three moves no median.
        let slices = [slice(0, 0), slice(900_000, 0), slice(0, 0)];
        assert_eq!(slice_median(&slices, |s| s.p99_us), 99.0);
    }

    #[test]
    fn slices_lengthen_when_the_rate_leaves_too_few_samples() {
        let window = Duration::from_secs(20);
        // Fast enough: two-second slices.
        assert_eq!(slice_count(window, 30_000.0, false), 10);
        assert_eq!(slice_count(window, 1_100.0, false), 10);
        // Half that rate: fewer, longer slices, each expecting ≥ 2000 samples.
        assert_eq!(slice_count(window, 550.0, false), 5);
        // Never fewer than one slice, or one of each kind when traced.
        assert_eq!(slice_count(window, 10.0, false), 1);
        assert_eq!(slice_count(window, 10.0, true), 2);
        assert_eq!(slice_count(Duration::from_secs(1), 30_000.0, true), 2);
    }

    #[test]
    fn ledgers_must_balance_and_agree() {
        let client = Ledger {
            submitted: 5,
            served: 5,
            ..Ledger::default()
        };
        let server = ServerLedger {
            submitted: 5,
            served: 5,
            graceful: true,
            accounted: true,
            ..ServerLedger::default()
        };
        assert!(ledger_problems(&client, &server).is_empty());
        let short = ServerLedger {
            served: 4,
            ..server
        };
        assert_eq!(ledger_problems(&client, &short).len(), 1);
        let misdelivered = Ledger {
            served: 4,
            misdelivered: 1,
            ..client
        };
        assert_eq!(ledger_problems(&misdelivered, &server).len(), 1);
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| {
            let v: Vec<String> = s.split_whitespace().map(String::from).collect();
            Args::parse(&v)
        };
        let a = parse("--workload large-pipelined --seed 3 --seconds 2 --trace 1").unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("large-pipelined", 3, 2, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload small-paced").is_err());
        assert!(parse("--workload large-pipelined --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload large-pipelined --seconds 0").is_err());
    }
}
