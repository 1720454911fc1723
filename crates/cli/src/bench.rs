//! `bnb bench` — the routing-kernel micro-benchmark behind the repo's
//! `BENCH_routing.json` trajectory.
//!
//! Routes seeded random frames through the scalar oracle
//! ([`Kernel::Scalar`]) and through the one word-parallel kernel, called
//! two ways: one frame per [`RouteSpan::run`] call ([`Kernel::Packed`],
//! the `packed` row: the path of the `Router`, engine slices and fault
//! retries) and `--batch` frames per [`route_batch`] call over a
//! [`FrameBatch`], both unobserved and observed by [`Counters`] (the
//! server's configuration). It reports nanoseconds per frame and cells
//! per second for each. Every row is self-describing: kernel name, batch
//! size (the frames each call routed), and SWAR word width, so the
//! checked-in baseline can accumulate rows from different kernel
//! generations without ambiguity. A `--frames` above `--batch` must be a
//! multiple of it, so every batched call routes the frames its row
//! names. The CI bench-smoke job re-parses the `--json` output and gates
//! on packed at least 10x faster than scalar at m ≥ 8, packed within 5x
//! of batched at m ≥ 10, Counters-observed batched within 1.5x of
//! batched at m ≥ 8, batched flatness (m = 12 within 3x of m = 4
//! cells/s), and no row's batch above the report's frames; a full-size
//! run (`bnb bench --out BENCH_routing.json`) is checked in so future PRs
//! have a baseline to diff against.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use bnb_core::batch::{route_batch, BatchOutcome, FrameBatch};
use bnb_core::network::BnbNetwork;
use bnb_core::stages::{Kernel, RouteSpan, StageScratch};
use bnb_obs::Counters;
use bnb_topology::perm::Permutation;
use bnb_topology::record::{records_for_permutation, Record};
use serde::{Deserialize, Serialize};

use crate::{err, CliError, Flags};

/// One benchmark measurement: a kernel variant at a size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchRow {
    /// Kernel name: `"scalar"`, `"packed"` (one frame per call),
    /// `"batched"`, or `"batched-counters"` (batched calls observed by
    /// [`Counters`]).
    pub kernel: String,
    /// Network size exponent (`N = 2^m` cells per frame).
    pub m: usize,
    /// Frames routed per kernel invocation (1 for the per-frame kernels;
    /// for the batched ones the `--batch` size, capped by the frames
    /// there are).
    pub batch: usize,
    /// SWAR word width in bits (64 for the word-parallel rows; 64
    /// recorded for scalar too — it is the unit they are held against).
    pub word_bits: usize,
    /// Mean wall-clock nanoseconds to route one full frame.
    pub ns_per_frame: f64,
    /// Routed cell throughput implied by `ns_per_frame`.
    pub cells_per_s: f64,
}

/// The full `bnb bench` document, as printed by `--json` and written by
/// `--out`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Distinct seeded frames cycled through per measurement pass.
    pub frames: usize,
    /// Measurements, ordered by size then kernel (packed first).
    pub rows: Vec<BenchRow>,
}

/// Times one per-frame kernel at one size: cycles through `frames`
/// pre-generated permutation frames, repeating whole passes until the
/// measurement window is long enough to trust (`min_ns`, at least two
/// passes after one warm-up pass). Returns mean ns per routed frame.
fn time_kernel(
    net: &BnbNetwork,
    frames: &[Vec<Record>],
    scratch: &mut StageScratch,
    buf: &mut Vec<Record>,
    kernel: Kernel,
    min_ns: u128,
) -> f64 {
    let m = net.m();
    let span = RouteSpan::new().kernel(kernel);
    let pass = |scratch: &mut StageScratch, buf: &mut Vec<Record>| {
        for frame in frames {
            buf.copy_from_slice(frame);
            span.run(net, buf, 0, 0..m, scratch).unwrap();
            black_box(buf.last());
        }
    };
    // Warm-up sizes the scratch buffers and faults in the frame data.
    pass(scratch, buf);
    let mut routed = 0u64;
    let start = Instant::now();
    loop {
        pass(scratch, buf);
        routed += frames.len() as u64;
        let elapsed = start.elapsed().as_nanos();
        if elapsed >= min_ns && routed >= 2 * frames.len() as u64 {
            return elapsed as f64 / routed as f64;
        }
    }
}

/// Times the batched kernel: each pass refills one [`FrameBatch`] with
/// every pre-generated frame (grouped `batch_size` at a time) and routes
/// it through [`route_batch`] with `opts`. The refill is part of the
/// measured work — a real submit path pays the same copy — so batched and
/// per-frame rows compare end to end. Returns mean ns per routed frame.
fn time_batched(
    net: &BnbNetwork,
    frames: &[Vec<Record>],
    scratch: &mut StageScratch,
    opts: &RouteSpan<'_>,
    batch_size: usize,
    min_ns: u128,
) -> f64 {
    let n = net.inputs();
    let mut batch = FrameBatch::with_capacity(n, batch_size.min(frames.len()));
    let mut outcome = BatchOutcome::new();
    let pass = |scratch: &mut StageScratch, batch: &mut FrameBatch, outcome: &mut BatchOutcome| {
        for group in frames.chunks(batch_size) {
            batch.clear();
            for frame in group {
                batch.push_frame(frame);
            }
            route_batch(net, batch, opts, scratch, outcome);
            assert!(outcome.all_ok());
            black_box(batch.len());
        }
    };
    pass(scratch, &mut batch, &mut outcome);
    let mut routed = 0u64;
    let start = Instant::now();
    loop {
        pass(scratch, &mut batch, &mut outcome);
        routed += frames.len() as u64;
        let elapsed = start.elapsed().as_nanos();
        if elapsed >= min_ns && routed >= 2 * frames.len() as u64 {
            return elapsed as f64 / routed as f64;
        }
    }
}

/// Runs the benchmark matrix and returns the report. Shared by the CLI
/// command and the CI smoke test. Scalar rows stop at `scalar_max_m`
/// (the oracle is O(n·m²) per frame and exists for reference, not for
/// production sizes — though the default measures it everywhere).
#[allow(clippy::too_many_arguments)]
pub fn run_bench(
    min_m: usize,
    max_m: usize,
    frames: usize,
    seed: u64,
    min_ms_per_cell: u64,
    batch_size: usize,
    scalar_max_m: usize,
) -> BenchReport {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let min_ns = u128::from(min_ms_per_cell) * 1_000_000;
    let mut rows = Vec::new();
    for m in min_m..=max_m {
        let n = 1usize << m;
        let net = BnbNetwork::builder(m).data_width(32).build();
        let mut scratch = StageScratch::with_capacity(n);
        let batch: Vec<Vec<Record>> = (0..frames)
            .map(|_| records_for_permutation(&Permutation::random(n, &mut rng)))
            .collect();
        let mut buf = batch[0].clone();
        let mut push = |kernel: &str, batch_n: usize, ns: f64| {
            rows.push(BenchRow {
                kernel: kernel.to_string(),
                m,
                batch: batch_n,
                word_bits: 64,
                ns_per_frame: ns,
                cells_per_s: n as f64 * 1e9 / ns,
            });
        };
        let ns = time_kernel(&net, &batch, &mut scratch, &mut buf, Kernel::Packed, min_ns);
        push("packed", 1, ns);
        if m <= scalar_max_m {
            let ns = time_kernel(&net, &batch, &mut scratch, &mut buf, Kernel::Scalar, min_ns);
            push("scalar", 1, ns);
        }
        let counters = Counters::new();
        for (kernel, opts) in [
            ("batched", RouteSpan::new()),
            ("batched-counters", RouteSpan::new().observer(&counters)),
        ] {
            let ns = time_batched(&net, &batch, &mut scratch, &opts, batch_size, min_ns);
            push(kernel, batch_size.min(frames), ns);
        }
    }
    BenchReport { frames, rows }
}

/// Renders the human-readable table: one line per size with every
/// measured kernel and the speedups over scalar.
fn render_table(report: &BenchReport) -> String {
    let mut out = String::from(
        "routing-kernel benchmark (ns/frame, lower is better)\n\
         \n\
         m      N     scalar ns     packed ns    batched ns   counters ns   pk-x   bt-x   batched cells/s\n",
    );
    let mut by_m: Vec<usize> = report.rows.iter().map(|r| r.m).collect();
    by_m.dedup();
    for m in by_m {
        let find = |kernel: &str| report.rows.iter().find(|r| r.m == m && r.kernel == kernel);
        let packed = find("packed").expect("packed measured per size");
        let batched = find("batched").expect("batched measured per size");
        let counted = find("batched-counters").expect("observed batched measured per size");
        let scalar = find("scalar");
        let (scalar_ns, pk_x, bt_x) = match scalar {
            Some(s) => (
                format!("{:>13.0}", s.ns_per_frame),
                format!("{:>5.1}x", s.ns_per_frame / packed.ns_per_frame),
                format!("{:>5.1}x", s.ns_per_frame / batched.ns_per_frame),
            ),
            None => (format!("{:>13}", "-"), "    -".into(), "    -".into()),
        };
        let _ = writeln!(
            out,
            "{m:<2} {n:>6} {scalar_ns} {p:>13.0} {b:>13.0} {o:>13.0} {pk_x} {bt_x} {c:>17.3e}",
            n = 1usize << m,
            p = packed.ns_per_frame,
            b = batched.ns_per_frame,
            o = counted.ns_per_frame,
            c = batched.cells_per_s,
        );
    }
    out
}

/// The `bnb bench` command.
pub(crate) fn cmd_bench(flags: &Flags) -> Result<String, CliError> {
    let min_m = flags.usize_or("--min-m", 4)?;
    let max_m = flags.usize_or("--max-m", 12)?;
    if min_m < 1 || max_m > 20 || min_m > max_m {
        return Err(err("--min-m/--max-m must satisfy 1 <= min <= max <= 20"));
    }
    let frames = flags.usize_or("--frames", 16)?;
    if frames == 0 || frames > 100_000 {
        return Err(err("--frames must be 1..=100000"));
    }
    let seed = flags.usize_or("--seed", 0)? as u64;
    let min_ms = flags.usize_or("--min-ms", 20)? as u64;
    let batch_size = flags.usize_or("--batch", 64)?;
    if batch_size == 0 || batch_size > 4096 {
        return Err(err("--batch must be 1..=4096"));
    }
    if frames > batch_size && !frames.is_multiple_of(batch_size) {
        return Err(err(format!(
            "--frames {frames} above --batch {batch_size} must be a multiple of it: \
             every batched call routes --batch frames"
        )));
    }
    let scalar_max_m = flags.usize_or("--scalar-max-m", max_m)?;
    let report = run_bench(min_m, max_m, frames, seed, min_ms, batch_size, scalar_max_m);
    let mut out = if flags.present("--json") {
        let json = serde_json::to_string(&report)
            .map_err(|e| err(format!("bench serialization failed: {e}")))?;
        format!("{json}\n")
    } else {
        render_table(&report)
    };
    if let Some(path) = flags.value("--out") {
        let pretty = serde_json::to_string_pretty(&report)
            .map_err(|e| err(format!("bench serialization failed: {e}")))?;
        std::fs::write(path, format!("{pretty}\n"))
            .map_err(|e| CliError::caused_by(format!("failed to write {path}"), e))?;
        let _ = writeln!(out, "wrote {path}");
    }
    Ok(out)
}
