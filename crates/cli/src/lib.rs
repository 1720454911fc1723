//! Implementation of the `bnb` command-line tool.
//!
//! All commands are pure functions from parsed arguments to output text,
//! so the entire CLI is unit-testable without spawning processes. The
//! thin `main` in `main.rs` only parses `std::env::args` and prints.
//!
//! ```text
//! bnb route --inputs 8 --perm 6,2,7,0,4,1,3,5 [--trace] [--record FILE]
//!           [--metrics text|json|prom]
//! bnb trace [--inputs 8] [--perm a,b,c,...] [--dest D] [--record FILE]
//!           [--metrics text|json|prom]
//! bnb tables [--sizes 3,4,5,6,8,10] [--data-width 8]
//! bnb figures
//! bnb ratios [--sizes 3,5,8,10,14,20] [--data-width 0]
//! bnb crossover
//! bnb verilog --component bnb|batcher|splitter|bsn [--inputs 8]
//!             [--data-width 0] [--optimize]
//! bnb engine [--inputs 256] [--workers 4] [--batch 64] [--queue 4]
//!            [--seed 0] [--pretty] [--record FILE]
//!            [--metrics text|json|prom]
//! bnb serve [--addr 127.0.0.1:0] [--inputs 64] [--queue 8]
//!           [--threads 0] [--window 32] [--tenant-keys FILE]
//!           [--tenant-quota 4] [--max-conns 64]
//!           [--slow-ms 0] [--record FILE] [--chaos] [--shards 2]
//!           [--chaos-ops 16] [--chaos-interval-ms 50] [--seed ..]
//!           [--chaos-out FILE] [--pretty]
//! bnb loadgen [--addr 127.0.0.1:9500] [--tenants 4] [--connections A,B,..]
//!             [--frames 64] [--inputs 64] [--mode closed|open]
//!             [--inflight 4] [--window W] [--qps 500] [--tenant-keys FILE]
//!             [--seed 45488] [--drain-ms 2000] [--resubmits 0] [--shutdown]
//!             [--out FILE] [--pretty]
//! bnb top [--addr 127.0.0.1:9500] [--interval-ms 1000] [--count 0]
//! bnb faults [--inputs 8] [--faults M.I.E:kind,..] [--trials 200] [--seed 0]
//!            [--sweep 0,1,2,..] [--frames 50] [--record FILE]
//!            [--metrics text|json|prom]
//! bnb faults --chaos [--inputs 8] [--trials 100] [--frames 40] [--shards 2]
//!            [--ops 8] [--workers 2] [--seed 0] [--out FILE]
//!            [--metrics text|json|prom]
//! bnb report
//! ```
//!
//! `--record FILE` attaches a bounded [`FlightRecorder`] to the command
//! and writes its contents as Chrome trace-event JSON (loadable in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)) when the
//! command finishes — on success *and* on error, so a failed run still
//! leaves its black-box recording behind. `--sample all|errors|N` sets
//! the recorder's sampling policy.

use std::error::Error;
use std::fmt;

use bnb_analysis::report;
use bnb_analysis::{table1, table2};
use bnb_core::network::BnbNetwork;
use bnb_core::tracer::PathTracer;
use bnb_gates::export::to_verilog;
use bnb_gates::netlist::{Net, Netlist};
use bnb_gates::optimize::optimize;
use bnb_obs::{Counters, Fanout, FlightRecorder, SamplePolicy};
use bnb_topology::perm::Permutation;
use bnb_topology::record::{all_delivered, records_for_permutation, Record};

pub mod bench;
mod serve;

/// A CLI failure: bad flags or usage (no cause), or a library failure
/// wrapped with its full cause chain — `main` walks
/// [`source`](Error::source) and prints every level, so a failed route
/// shows both "routing failed" and the underlying splitter site.
#[derive(Debug)]
pub struct CliError {
    message: String,
    source: Option<Box<dyn Error + Send + Sync + 'static>>,
}

impl CliError {
    /// A usage error with no underlying cause.
    pub fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            source: None,
        }
    }

    /// A failure wrapping the library error that caused it.
    pub fn caused_by(
        message: impl Into<String>,
        source: impl Error + Send + Sync + 'static,
    ) -> Self {
        CliError {
            message: message.into(),
            source: Some(Box::new(source)),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl Error for CliError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        self.source.as_deref().map(|e| e as &(dyn Error + 'static))
    }
}

pub(crate) fn err(msg: impl Into<String>) -> CliError {
    CliError::usage(msg)
}

/// Where `--metrics` output should go, when requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricsFormat {
    Text,
    Json,
    /// Prometheus text exposition format (scrape-ready).
    Prom,
}

fn metrics_flag(flags: &Flags) -> Result<Option<MetricsFormat>, CliError> {
    match flags.value("--metrics") {
        None => Ok(None),
        Some("text") => Ok(Some(MetricsFormat::Text)),
        Some("json") => Ok(Some(MetricsFormat::Json)),
        Some("prom") => Ok(Some(MetricsFormat::Prom)),
        Some(other) => Err(err(format!(
            "--metrics expects 'text', 'json' or 'prom', got {other}"
        ))),
    }
}

fn render_metrics(format: MetricsFormat, counters: &Counters) -> Result<String, CliError> {
    let snapshot = counters.snapshot();
    match format {
        MetricsFormat::Text => Ok(bnb_obs::render_text(&snapshot)),
        MetricsFormat::Json => serde_json::to_string(&snapshot)
            .map(|json| format!("{json}\n"))
            .map_err(|e| CliError::caused_by("metrics serialization failed", e)),
        MetricsFormat::Prom => Ok(bnb_obs::render_prometheus(&snapshot)),
    }
}

/// Parses `--sample all|errors|N` into the recorder's sampling policy:
/// keep everything (default), tail-sample only error-path spans
/// (conflicts, hardware faults, retries, failed drains), or head-sample
/// one span in `N`.
fn sample_flag(flags: &Flags) -> Result<SamplePolicy, CliError> {
    match flags.value("--sample") {
        None | Some("all") => Ok(SamplePolicy::All),
        Some("errors") => Ok(SamplePolicy::Errors),
        Some(v) => match v.parse::<u64>() {
            Ok(n) if n >= 1 => Ok(SamplePolicy::Rate(n)),
            _ => Err(err(format!(
                "--sample expects 'all', 'errors' or a rate >= 1, got {v}"
            ))),
        },
    }
}

/// Flushes a `--record` flight recorder to disk as Chrome trace-event
/// JSON and folds the write into the command's result. The write happens
/// whether the command body succeeded or failed (a failed run is exactly
/// when the black-box recording matters); a body error takes precedence
/// over a write error so the root cause is never masked.
fn finish_recording(
    path: Option<&str>,
    recorder: &FlightRecorder,
    result: Result<String, CliError>,
) -> Result<String, CliError> {
    let Some(path) = path else { return result };
    let spans = recorder.spans();
    let write = std::fs::write(path, bnb_obs::render_chrome_trace(&spans));
    match (result, write) {
        (Ok(mut out), Ok(())) => {
            let stats = recorder.stats();
            out.push_str(&format!(
                "recorded {} span(s) to {path} ({} dropped, {} sampled out)\n",
                spans.len(),
                stats.dropped,
                stats.sampled_out
            ));
            Ok(out)
        }
        (Ok(_), Err(e)) => Err(CliError::caused_by(
            format!("failed to write recording to {path}"),
            e,
        )),
        (Err(e), _) => Err(e),
    }
}

/// Flag accessor over raw arguments.
pub(crate) struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    pub(crate) fn value(&self, name: &str) -> Option<&'a str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    pub(crate) fn present(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    pub(crate) fn usize_or(&self, name: &str, default: usize) -> Result<usize, CliError> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("{name} expects an integer, got {v}"))),
        }
    }

    fn usize_list_or(&self, name: &str, default: &[usize]) -> Result<Vec<usize>, CliError> {
        match self.value(name) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .map_err(|_| err(format!("{name} expects integers, got {s}")))
                })
                .collect(),
        }
    }
}

/// Usage text.
pub fn usage() -> String {
    "bnb — BNB self-routing permutation network (Lee & Lu, ICDCS 1991)\n\
     \n\
     usage: bnb <command> [flags]\n\
     \n\
     commands:\n\
       route      route a permutation (--inputs N --perm a,b,c,... [--trace]\n\
                  [--record FILE] [--metrics text|json|prom])\n\
       trace      route with per-cell path capture: record every hop of\n\
                  every cell, verify the reconstruction against the applied\n\
                  switch settings, and print the paths ([--inputs 8]\n\
                  [--perm a,b,c,...] [--dest D] [--record FILE]\n\
                  [--metrics text|json|prom])\n\
       tables     regenerate the paper's Tables 1 and 2 ([--sizes 3,4,..] [--data-width 8])\n\
       figures    regenerate the paper's Figs. 1-4 structures\n\
       ratios     BNB/Batcher hardware and delay ratios ([--sizes ..] [--data-width 0])\n\
       crossover  finite-N crossover findings\n\
       verilog    emit structural Verilog (--component bnb|batcher|splitter|bsn\n\
                  [--inputs 8] [--data-width 0] [--optimize])\n\
       compare    route one permutation through every network\n\
                  ([--inputs 8] [--perm a,b,c,...])\n\
       sweep      load-latency curve of the input-queued switch\n\
                  ([--inputs 16] [--discipline fifo|voq] [--rounds 2000]\n\
                  [--record FILE] [--metrics text|json|prom])\n\
       diagnose   route possibly-invalid traffic with conflict detection\n\
                  (--inputs N --dests a,b,c,...)\n\
       engine     route random batches through the concurrent engine and\n\
                  print JSON stats ([--inputs 256] [--workers 4] [--batch 64]\n\
                  [--queue 4] [--seed 0] [--pretty] [--record FILE]\n\
                  [--metrics text|json|prom]; every frame is drawn before\n\
                  the timed run, at most 2^24 records in all)\n\
       faults     inject hardware faults and report detection coverage\n\
                  ([--inputs 8] [--faults M.I.E:kind,..] [--trials 200]\n\
                  [--seed 0] [--sweep 0,1,2,..] [--frames 50]\n\
                  [--record FILE] [--metrics text|json|prom];\n\
                  kinds: stuck0 stuck1 arbiter link); with --chaos, replay\n\
                  seeded randomized fault schedules (inject, flap, clear)\n\
                  against the live-repair engine under traffic and assert\n\
                  zero silent misdeliveries, balanced ledgers, and capacity\n\
                  recovery ([--trials 100] [--frames 40] [--shards 2]\n\
                  [--ops 8] [--workers 2] [--seed 0] [--out FILE])\n\
       bench      time the routing kernels (bit-packed vs scalar) and\n\
                  report ns/frame and cells/s ([--min-m 4] [--max-m 12]\n\
                  [--frames 16] [--batch 64 frames per batched call,\n\
                  at most --frames; a larger --frames must be a multiple\n\
                  of it] [--scalar-max-m MAX_M] [--seed 0]\n\
                  [--min-ms 20] [--json] [--out BENCH_routing.json])\n\
       serve      run the long-lived routing service until SIGTERM/SIGINT\n\
                  or a wire SHUTDOWN; prints 'listening on ADDR' at bind\n\
                  and the session report JSON after the graceful drain\n\
                  ([--addr 127.0.0.1:0] [--inputs 64] [--queue 8\n\
                  in-flight cap] [--threads 0 (= cores) reactor threads]\n\
                  [--window 32 per-conn pipeline] [--tenant-keys FILE]\n\
                  [--tenant-quota 4] [--max-conns 64] [--pretty]);\n\
                  HTTP GET /metrics on the same port serves Prometheus\n\
                  metrics with per-stage/per-tenant telemetry and the\n\
                  frame ledger, GET /status a JSON\n\
                  status snapshot; --slow-ms N samples requests slower\n\
                  than N ms into the --record FILE flight recording;\n\
                  with --chaos, a seeded fault-injection thread damages\n\
                  and heals fabric shards while the live-repair scrubber\n\
                  routes around them ([--shards 2] [--chaos-ops 16]\n\
                  [--chaos-interval-ms 50] [--seed ..] [--chaos-out FILE])\n\
       loadgen    drive a running server and verify every routed frame\n\
                  ([--addr 127.0.0.1:9500] [--tenants 4] [--frames 64]\n\
                  [--inputs 64] [--mode closed|open] [--inflight 4]\n\
                  [--window W (alias for --inflight)] [--qps 500]\n\
                  [--tenant-keys FILE] [--seed 45488] [--drain-ms 2000]\n\
                  [--resubmits 0] [--shutdown] [--out FILE] [--pretty]);\n\
                  --connections N drives N sockets sharing the tenants;\n\
                  a comma list (--connections 1,16,64) sweeps each count\n\
                  in turn and reports the scaling curve as JSON\n\
       top        live dashboard over a running server's /status endpoint\n\
                  ([--addr 127.0.0.1:9500] [--interval-ms 1000]\n\
                  [--count 0]; --count 1 prints once without clearing)\n\
       report     the full evaluation report\n\
       help       this text\n\
     \n\
     --record FILE writes the command's flight-recorder contents as Chrome\n\
     trace-event JSON (open in chrome://tracing or ui.perfetto.dev), on\n\
     success and on error alike. --sample all|errors|N picks the recording\n\
     policy: keep everything, keep only error-path spans (conflicts,\n\
     hardware faults, retries, failed drains), or keep one span in N.\n\
     \n\
     --help or -h after any command prints this text instead of running it.\n"
        .to_string()
}

/// Dispatches a full argument vector (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] describing bad usage; never panics on user input.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Ok(usage());
    };
    let flags = Flags { args: &args[1..] };
    // Flags are looked up by name, so an unknown one would be ignored and
    // the command would run: `--help` after a command asks for usage.
    if flags.present("--help") || flags.present("-h") {
        return Ok(usage());
    }
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(usage()),
        "route" => cmd_route(&flags),
        "trace" => cmd_trace(&flags),
        "tables" => cmd_tables(&flags),
        "figures" => Ok(cmd_figures()),
        "ratios" => cmd_ratios(&flags),
        "crossover" => Ok(bnb_analysis::crossover::summary()),
        "verilog" => cmd_verilog(&flags),
        "compare" => cmd_compare(&flags),
        "sweep" => cmd_sweep(&flags),
        "diagnose" => cmd_diagnose(&flags),
        "engine" => cmd_engine(&flags),
        "faults" => cmd_faults(&flags),
        "bench" => bench::cmd_bench(&flags),
        "serve" => serve::cmd_serve(&flags),
        "loadgen" => serve::cmd_loadgen(&flags),
        "top" => serve::cmd_top(&flags),
        "report" => Ok(report::full_report()),
        other => Err(err(format!("unknown command '{other}'; try 'bnb help'"))),
    }
}

/// Parses `--perm a,b,c,...` (falling back to a `seed`-seeded random
/// permutation) and checks it has exactly `n` entries.
fn perm_flag(flags: &Flags, n: usize, seed: u64) -> Result<Permutation, CliError> {
    let perm = match flags.value("--perm") {
        Some(spec) => {
            let images: Vec<usize> = spec
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .map_err(|_| err(format!("bad permutation entry '{s}'")))
                })
                .collect::<Result<_, _>>()?;
            Permutation::try_from(images).map_err(|e| err(format!("invalid permutation: {e}")))?
        }
        None => {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            Permutation::random(n, &mut rng)
        }
    };
    if perm.len() != n {
        return Err(err(format!(
            "permutation has {} entries, expected {n}",
            perm.len()
        )));
    }
    Ok(perm)
}

fn cmd_route(flags: &Flags) -> Result<String, CliError> {
    let n = flags.usize_or("--inputs", 8)?;
    if !n.is_power_of_two() || n < 2 {
        return Err(err(format!(
            "--inputs must be a power of two >= 2, got {n}"
        )));
    }
    let perm = perm_flag(flags, n, 0)?;
    let metrics = metrics_flag(flags)?;
    let record_path = flags.value("--record");
    let net = BnbNetwork::builder_for(n)
        .map_err(|e| CliError::caused_by("network construction failed", e))?
        .build();
    let records = records_for_permutation(&perm);
    let recorder = FlightRecorder::new().policy(sample_flag(flags)?);
    let result = (|| {
        let mut out = String::new();
        if flags.present("--trace") {
            let (outputs, trace) = net
                .route_traced(&records)
                .map_err(|e| CliError::caused_by("routing failed", e))?;
            out.push_str(&trace.render());
            out.push_str(&format!(
                "\ncolumns: {}   exchanges: {}   delivered: {}\n",
                trace.column_count(),
                trace.exchange_count(),
                all_delivered(&outputs)
            ));
        } else {
            let outputs = net
                .route(&records)
                .map_err(|e| CliError::caused_by("routing failed", e))?;
            out.push_str(&format!("permutation {perm}\n"));
            for (j, r) in outputs.iter().enumerate() {
                out.push_str(&format!("output {j}: from input {}\n", r.data()));
            }
            out.push_str(&format!("delivered: {}\n", all_delivered(&outputs)));
        }
        if metrics.is_some() || record_path.is_some() {
            let counters = Counters::new();
            net.route_observed(&records, &Fanout::new(&counters, &recorder))
                .map_err(|e| CliError::caused_by("routing failed", e))?;
            if let Some(format) = metrics {
                out.push_str(&render_metrics(format, &counters)?);
            }
        }
        Ok(out)
    })();
    finish_recording(record_path, &recorder, result)
}

fn cmd_trace(flags: &Flags) -> Result<String, CliError> {
    let n = flags.usize_or("--inputs", 8)?;
    if !n.is_power_of_two() || !(2..=4096).contains(&n) {
        return Err(err(format!(
            "--inputs must be a power of two in 2..=4096 for path tracing, got {n}"
        )));
    }
    let perm = perm_flag(flags, n, 0)?;
    let dest = match flags.value("--dest") {
        None => None,
        Some(v) => {
            let d: usize = v
                .parse()
                .map_err(|_| err(format!("--dest expects an integer, got {v}")))?;
            if d >= n {
                return Err(err(format!("--dest must be < {n}, got {d}")));
            }
            Some(d)
        }
    };
    let metrics = metrics_flag(flags)?;
    let record_path = flags.value("--record");
    let net = BnbNetwork::builder_for(n)
        .map_err(|e| CliError::caused_by("network construction failed", e))?
        .build();
    let records = records_for_permutation(&perm);
    let tracer = PathTracer::with_inputs(n);
    let counters = Counters::new();
    // Hop spans land in the recorder too, so a `--record` of a traced
    // route carries per-cell instants, not just column/sweep events.
    let recorder = FlightRecorder::new()
        .record_hops(true)
        .policy(sample_flag(flags)?);
    let result = (|| {
        let observer = Fanout::new(&tracer, Fanout::new(&counters, &recorder));
        let outputs = net
            .route_observed(&records, &observer)
            .map_err(|e| CliError::caused_by("routing failed", e))?;
        tracer
            .verify(&net)
            .map_err(|e| CliError::caused_by("path reconstruction failed verification", e))?;
        let mut out = format!("permutation {perm}\n");
        match dest {
            Some(d) => out.push_str(&tracer.render(d)),
            None => {
                for d in 0..n {
                    out.push_str(&tracer.render(d));
                }
            }
        }
        out.push_str(&format!(
            "hops: {} ({} main-stage)   paths verified: {}   delivered: {}\n",
            tracer.total_hops(),
            tracer.main_stage_hops(),
            n,
            all_delivered(&outputs)
        ));
        if let Some(format) = metrics {
            out.push_str(&render_metrics(format, &counters)?);
        }
        Ok(out)
    })();
    finish_recording(record_path, &recorder, result)
}

fn cmd_tables(flags: &Flags) -> Result<String, CliError> {
    let sizes = flags.usize_list_or("--sizes", &[3, 4, 5, 6, 8, 10])?;
    let w = flags.usize_or("--data-width", 8)?;
    if sizes.iter().any(|&m| m == 0 || m > 20) {
        return Err(err("--sizes entries must be 1..=20 (they are log2 N)"));
    }
    Ok(format!(
        "{}\n{}",
        table1(&sizes, w).to_markdown(),
        table2(&sizes).to_markdown()
    ))
}

fn cmd_figures() -> String {
    use bnb_core::render::{render_network, render_profile, render_splitter};
    use bnb_topology::gbn::Gbn;
    use bnb_topology::render::render_gbn_ascii;
    let mut out = String::new();
    out.push_str("== Fig. 1 ==\n");
    out.push_str(&render_gbn_ascii(&Gbn::new(3)));
    out.push_str("\n== Fig. 2 ==\n");
    out.push_str(&render_network(
        &BnbNetwork::builder(3).data_width(0).build(),
    ));
    out.push_str("\n== Fig. 3 ==\n");
    out.push_str(&render_profile(3));
    out.push_str("\n== Fig. 4 ==\n");
    out.push_str(&render_splitter(3));
    out
}

fn cmd_ratios(flags: &Flags) -> Result<String, CliError> {
    let sizes = flags.usize_list_or("--sizes", &[3, 5, 8, 10, 14, 20])?;
    let w = flags.usize_or("--data-width", 0)?;
    if sizes.iter().any(|&m| m == 0 || m > 30) {
        return Err(err("--sizes entries must be 1..=30 (they are log2 N)"));
    }
    Ok(report::ratio_table(&sizes, w).to_markdown())
}

fn cmd_verilog(flags: &Flags) -> Result<String, CliError> {
    let m_inputs = flags.usize_or("--inputs", 8)?;
    if !m_inputs.is_power_of_two() || !(2..=64).contains(&m_inputs) {
        return Err(err(
            "--inputs must be a power of two in 2..=64 for Verilog export",
        ));
    }
    let m = m_inputs.trailing_zeros() as usize;
    let w = flags.usize_or("--data-width", 0)?;
    if w > 63 {
        return Err(err("--data-width must be <= 63"));
    }
    let component = flags.value("--component").unwrap_or("bnb");
    let (netlist, name) = match component {
        "bnb" => (
            bnb_gates::components::bnb_network(m, w).netlist().clone(),
            format!("bnb_n{m_inputs}"),
        ),
        "batcher" => (
            bnb_baselines::batcher_gates::batcher_netlist(m, w)
                .netlist()
                .clone(),
            format!("batcher_n{m_inputs}"),
        ),
        "splitter" => {
            let mut nl = Netlist::new();
            let ins: Vec<Net> = (0..m_inputs).map(|j| nl.input(format!("s{j}"))).collect();
            let sp = bnb_gates::components::splitter(&mut nl, &ins);
            for (j, &o) in sp.outputs.iter().enumerate() {
                nl.output(format!("o{j}"), o);
            }
            (nl, format!("splitter_n{m_inputs}"))
        }
        "bsn" => {
            let mut nl = Netlist::new();
            let ins: Vec<Net> = (0..m_inputs).map(|j| nl.input(format!("s{j}"))).collect();
            let outs = bnb_gates::components::bit_sorter(&mut nl, &ins);
            for (j, &o) in outs.iter().enumerate() {
                nl.output(format!("o{j}"), o);
            }
            (nl, format!("bsn_n{m_inputs}"))
        }
        other => return Err(err(format!("unknown --component '{other}'"))),
    };
    let netlist = if flags.present("--optimize") {
        let (opt, stats) = optimize(&netlist);
        let mut header = format!(
            "// optimized: {} -> {} gates ({:.1}% removed)\n",
            stats.original_gates,
            stats.optimized_gates,
            stats.reduction() * 100.0
        );
        header.push_str(&to_verilog(&opt, &name));
        return Ok(header);
    } else {
        netlist
    };
    Ok(to_verilog(&netlist, &name))
}

fn cmd_compare(flags: &Flags) -> Result<String, CliError> {
    let n = flags.usize_or("--inputs", 8)?;
    if !n.is_power_of_two() || !(2..=4096).contains(&n) {
        return Err(err("--inputs must be a power of two in 2..=4096"));
    }
    let m = n.trailing_zeros() as usize;
    let perm = perm_flag(flags, n, 1)?;
    let recs = records_for_permutation(&perm);
    let mut out = format!("permutation {perm} through every network:\n");
    for net in bnb_baselines::all_networks(m) {
        let verdict = match net.route(&recs) {
            Ok(delivered) if all_delivered(&delivered) => "delivered".to_string(),
            Ok(_) => "ROUTED BUT MISDELIVERED".to_string(),
            Err(e) => format!("error: {e}"),
        };
        let kind = if net.is_self_routing() {
            "self-routing"
        } else {
            "global"
        };
        out.push_str(&format!("  {:<28} [{kind:>12}] {verdict}\n", net.name()));
    }
    Ok(out)
}

fn cmd_sweep(flags: &Flags) -> Result<String, CliError> {
    use bnb_sim::loadsweep::{sweep, sweep_observed};
    use bnb_sim::scheduler::QueueDiscipline;
    use rand::SeedableRng;
    let n = flags.usize_or("--inputs", 16)?;
    if !n.is_power_of_two() || !(2..=1024).contains(&n) {
        return Err(err("--inputs must be a power of two in 2..=1024"));
    }
    let m = n.trailing_zeros() as usize;
    let rounds = flags.usize_or("--rounds", 2000)?;
    let discipline = match flags.value("--discipline").unwrap_or("voq") {
        "fifo" => QueueDiscipline::Fifo,
        "voq" => QueueDiscipline::Voq,
        other => return Err(err(format!("unknown --discipline '{other}'"))),
    };
    let metrics = metrics_flag(flags)?;
    let record_path = flags.value("--record");
    let loads = [0.1, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let counters = Counters::new();
    let recorder = FlightRecorder::new().policy(sample_flag(flags)?);
    let result = (|| {
        let pts = if metrics.is_some() || record_path.is_some() {
            sweep_observed(
                m,
                discipline,
                &loads,
                rounds,
                &mut rng,
                &Fanout::new(&counters, &recorder),
            )
        } else {
            sweep(m, discipline, &loads, rounds, &mut rng)
        }
        .map_err(|e| CliError::caused_by("simulation failed", e))?;
        let mut out = format!(
            "{discipline:?} input-queued switch over the BNB fabric, N = {n}, {rounds} rounds\n"
        );
        out.push_str("offered  delivered  mean_delay  backlog\n");
        for p in pts {
            out.push_str(&format!(
                "{:>7.2}  {:>9.3}  {:>10.1}  {:>7}\n",
                p.offered, p.delivered, p.mean_delay, p.final_backlog
            ));
        }
        if let Some(format) = metrics {
            out.push_str(&render_metrics(format, &counters)?);
        }
        Ok(out)
    })();
    finish_recording(record_path, &recorder, result)
}

fn cmd_diagnose(flags: &Flags) -> Result<String, CliError> {
    let n = flags.usize_or("--inputs", 8)?;
    if !n.is_power_of_two() || n < 2 {
        return Err(err("--inputs must be a power of two >= 2"));
    }
    let m = n.trailing_zeros() as usize;
    let Some(spec) = flags.value("--dests") else {
        return Err(err(
            "diagnose requires --dests a,b,c,... (one destination per input)",
        ));
    };
    let dests: Vec<usize> = spec
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| err(format!("bad destination '{s}'")))
        })
        .collect::<Result<_, _>>()?;
    if dests.len() != n {
        return Err(err(format!(
            "expected {n} destinations, got {}",
            dests.len()
        )));
    }
    let records: Vec<Record> = dests
        .iter()
        .enumerate()
        .map(|(i, &d)| Record::new(d, i as u64))
        .collect();
    let net = BnbNetwork::builder(m).data_width(64).build();
    let d = net
        .route_diagnosed(&records)
        .map_err(|e| CliError::caused_by("diagnosis failed", e))?;
    let mut out = String::new();
    if d.is_clean() {
        out.push_str("clean: all records delivered, no assumption violations\n");
    } else {
        for site in &d.unbalanced {
            out.push_str(&format!(
                "violated splitter: main stage {}, internal stage {}, lines {}..{}\n",
                site.main_stage,
                site.internal_stage,
                site.first_line,
                site.first_line + 1
            ));
        }
        out.push_str(&format!("misdelivered outputs: {:?}\n", d.misdelivered));
    }
    for (j, r) in d.outputs.iter().enumerate() {
        out.push_str(&format!(
            "output {j}: from input {} (wanted {})\n",
            r.data(),
            r.dest()
        ));
    }
    Ok(out)
}

/// Most records `bnb engine` draws before its run: 256 MiB of frames.
const ENGINE_MAX_RECORDS: usize = 1 << 24;

/// Drives an engine for `cmd_engine`: submit every frame, drain
/// everything, snapshot stats. The frames are drawn beforehand, so the
/// run times the engine, not the permutation generator. Generic so the
/// same function serves both the bare and the observed engine.
fn drive_engine<O: bnb_obs::Observer>(
    engine: &bnb_engine::Engine<O>,
    frames: Vec<Vec<Record>>,
) -> bnb_engine::EngineStats {
    engine.run(|h| {
        for frame in frames {
            h.submit(frame);
            while let Some(batch) = h.try_drain() {
                debug_assert!(batch.result.is_ok());
            }
        }
        while h.drain().is_some() {}
        h.stats()
    })
}

fn cmd_engine(flags: &Flags) -> Result<String, CliError> {
    use bnb_engine::{Engine, EngineConfig};
    let n = flags.usize_or("--inputs", 256)?;
    if !n.is_power_of_two() || !(2..=1 << 20).contains(&n) {
        return Err(err("--inputs must be a power of two in 2..=1048576"));
    }
    let workers = flags.usize_or("--workers", 4)?;
    if workers == 0 || workers > 256 {
        return Err(err("--workers must be 1..=256"));
    }
    let batches = flags.usize_or("--batch", 64)?;
    if batches == 0 || batches > 1_000_000 {
        return Err(err("--batch must be 1..=1000000"));
    }
    if n * batches > ENGINE_MAX_RECORDS {
        return Err(err(format!(
            "--inputs x --batch must be at most {ENGINE_MAX_RECORDS} records \
             (256 MiB of frames, all drawn before the run)"
        )));
    }
    let queue = flags.usize_or("--queue", 4)?;
    if queue == 0 {
        return Err(err("--queue must be >= 1"));
    }
    let seed = flags.usize_or("--seed", 0)? as u64;
    let metrics = metrics_flag(flags)?;
    let record_path = flags.value("--record");
    let net = BnbNetwork::builder_for(n)
        .map_err(|e| CliError::caused_by("network construction failed", e))?
        .build();
    let config = EngineConfig {
        workers,
        queue_capacity: queue,
        ..EngineConfig::default()
    };
    let frames = {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..batches)
            .map(|_| records_for_permutation(&Permutation::random(n, &mut rng)))
            .collect()
    };
    let counters = Counters::new();
    // Each engine worker lands in its own recorder lane, so the merged
    // Chrome trace shows per-worker activity on separate tid rows.
    let recorder = FlightRecorder::new().policy(sample_flag(flags)?);
    let result = (|| {
        // The recorder wants per-column events, which route on the scalar
        // sweep; attach it only when a recording was asked for, so
        // `--metrics` alone keeps the packed kernels.
        let stats = if record_path.is_some() {
            drive_engine(
                &Engine::with_observer(net, config, Fanout::new(&counters, &recorder)),
                frames,
            )
        } else if metrics.is_some() {
            drive_engine(&Engine::with_observer(net, config, &counters), frames)
        } else {
            drive_engine(&Engine::new(net, config), frames)
        };
        let json = if flags.present("--pretty") {
            serde_json::to_string_pretty(&stats)
        } else {
            serde_json::to_string(&stats)
        }
        .map_err(|e| err(format!("stats serialization failed: {e}")))?;
        let mut out = format!("{json}\n");
        if let Some(format) = metrics {
            out.push_str(&render_metrics(format, &counters)?);
        }
        Ok(out)
    })();
    finish_recording(record_path, &recorder, result)
}

/// Parses one `M.I.E:kind` fault spec (e.g. `1.0.3:stuck1`).
fn parse_fault_spec(spec: &str) -> Result<bnb_core::HardwareFault, CliError> {
    use bnb_core::{FaultKind, FaultSite};
    let bad = || {
        err(format!(
            "--faults expects M.I.E:kind (kinds: stuck0 stuck1 arbiter link), got '{spec}'"
        ))
    };
    let (site, kind) = spec.split_once(':').ok_or_else(bad)?;
    let mut parts = site.split('.');
    let mut field = || -> Result<usize, CliError> {
        parts
            .next()
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(bad)
    };
    let (main_stage, internal_stage, element) = (field()?, field()?, field()?);
    if parts.next().is_some() {
        return Err(bad());
    }
    let kind = match kind.trim() {
        "stuck0" => FaultKind::StuckStraight,
        "stuck1" => FaultKind::StuckExchange,
        "arbiter" => FaultKind::DeadArbiter,
        "link" => FaultKind::BrokenLink,
        _ => return Err(bad()),
    };
    Ok(bnb_core::HardwareFault {
        site: FaultSite::new(main_stage, internal_stage, element),
        kind,
    })
}

/// `bnb faults --chaos`: replay randomized fault schedules (inject,
/// flap, clear) against the live-repair engine under traffic. Every
/// schedule is generated from `--seed + index`, so any reported failure
/// names the exact seed that reproduces it.
fn cmd_faults_chaos(flags: &Flags, m: usize, n: usize) -> Result<String, CliError> {
    use bnb_sim::chaos::{chaos_engine_campaign, ChaosReport, ChaosSchedule};
    let schedules = flags.usize_or("--trials", 100)?;
    if schedules == 0 || schedules > 100_000 {
        return Err(err("--trials must be 1..=100000"));
    }
    let frames = flags.usize_or("--frames", 40)?;
    if frames == 0 || frames > 1_000_000 {
        return Err(err("--frames must be 1..=1000000"));
    }
    let shards = flags.usize_or("--shards", 2)?;
    if shards == 0 || shards > 64 {
        return Err(err("--shards must be 1..=64"));
    }
    let ops = flags.usize_or("--ops", 8)?;
    if ops > 10_000 {
        return Err(err("--ops must be <= 10000"));
    }
    let workers = flags.usize_or("--workers", 2)?;
    if workers == 0 || workers > 64 {
        return Err(err("--workers must be 1..=64"));
    }
    let seed = flags.usize_or("--seed", 0)? as u64;
    let metrics = metrics_flag(flags)?;
    let counters = Counters::new();

    #[derive(serde::Serialize)]
    struct ChaosRun {
        schedule: ChaosSchedule,
        report: ChaosReport,
    }
    let mut runs: Vec<ChaosRun> = Vec::with_capacity(schedules);
    let mut failed: Vec<u64> = Vec::new();
    for i in 0..schedules {
        let schedule = ChaosSchedule::generate(m, shards, frames, ops, seed.wrapping_add(i as u64));
        let report = chaos_engine_campaign(&schedule, workers, &counters);
        if !report.holds() {
            failed.push(schedule.seed);
        }
        runs.push(ChaosRun { schedule, report });
    }

    let total = |f: fn(&ChaosReport) -> usize| -> usize { runs.iter().map(|r| f(&r.report)).sum() };
    let mut out = format!(
        "chaos campaign: N = {n}, {shards} fabric shard(s), {workers} worker(s), \
         {schedules} schedule(s) x {frames} frame(s), {ops} fault op(s) each, base seed {seed}\n"
    );
    out.push_str(&format!(
        "  frames:  {} submitted, {} delivered, {} quarantined, {} misdelivered\n",
        total(|r| r.frames_submitted),
        total(|r| r.frames_delivered),
        total(|r| r.frames_quarantined),
        total(|r| r.frames_misdelivered),
    ));
    out.push_str(&format!(
        "  faults:  {} injected, {} cleared\n",
        total(|r| r.faults_injected),
        total(|r| r.faults_cleared),
    ));
    let recovered = runs.iter().filter(|r| r.report.recovered).count();
    out.push_str(&format!(
        "  repair:  {recovered}/{schedules} schedule(s) recovered full capacity\n"
    ));
    if let Some(path) = flags.value("--out") {
        let json = serde_json::to_string(&runs)
            .map_err(|e| CliError::caused_by("chaos run serialization failed", e))?;
        std::fs::write(path, &json)
            .map_err(|e| CliError::caused_by(format!("cannot write {path}"), e))?;
        out.push_str(&format!("  wrote {} run(s) to {path}\n", runs.len()));
    }
    if let Some(format) = metrics {
        out.push_str(&render_metrics(format, &counters)?);
    }
    if !failed.is_empty() {
        return Err(err(format!(
            "chaos contract violated for {} of {schedules} schedule(s); reproduce with \
             --chaos --seed S --trials 1 for S in {failed:?}",
            failed.len()
        )));
    }
    out.push_str("  contract: zero silent misdeliveries, ledgers balanced, capacity recovered\n");
    Ok(out)
}

fn cmd_faults(flags: &Flags) -> Result<String, CliError> {
    use bnb_core::FaultMap;
    use bnb_sim::faults::{degraded_sweep, hardware_campaign, random_hardware_campaign};
    use rand::SeedableRng;
    let n = flags.usize_or("--inputs", 8)?;
    if !n.is_power_of_two() || !(4..=1 << 16).contains(&n) {
        return Err(err("--inputs must be a power of two in 4..=65536"));
    }
    let m = n.trailing_zeros() as usize;
    if flags.present("--chaos") {
        return cmd_faults_chaos(flags, m, n);
    }
    let trials = flags.usize_or("--trials", 200)?;
    if trials == 0 || trials > 1_000_000 {
        return Err(err("--trials must be 1..=1000000"));
    }
    let frames = flags.usize_or("--frames", 50)?;
    if frames == 0 || frames > 1_000_000 {
        return Err(err("--frames must be 1..=1000000"));
    }
    let seed = flags.usize_or("--seed", 0)? as u64;
    let metrics = metrics_flag(flags)?;
    let map = match flags.value("--faults") {
        None => None,
        Some(list) => {
            let map: FaultMap = list
                .split(',')
                .map(parse_fault_spec)
                .collect::<Result<_, _>>()?;
            if !map.in_bounds(m) {
                return Err(err(format!(
                    "--faults names an element outside the N = {n} topology"
                )));
            }
            Some(map)
        }
    };
    let record_path = flags.value("--record");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let counters = Counters::new();
    let recorder = FlightRecorder::new().policy(sample_flag(flags)?);
    let fanout = Fanout::new(&counters, &recorder);
    let result = (|| {
        let report = match &map {
            Some(map) => hardware_campaign(m, map, trials, &mut rng, &fanout),
            None => random_hardware_campaign(m, trials, &mut rng, &fanout),
        };
        let mut out = format!(
            "hardware-fault campaign: N = {n}, {} per trial, {} trials\n",
            match &map {
                Some(map) => format!("{} pinned fault(s)", map.len()),
                None => "1 random fault".to_string(),
            },
            report.trials,
        );
        if let Some(map) = &map {
            for fault in map.iter() {
                out.push_str(&format!(
                    "  fault: {} at main stage {}, internal stage {}, element {}\n",
                    fault.kind,
                    fault.site.main_stage,
                    fault.site.internal_stage,
                    fault.site.element
                ));
            }
        }
        out.push_str(&format!(
            "  strict:     {} detected, {} routed correctly, {} misdelivered\n",
            report.strict_detected, report.strict_correct, report.strict_misdelivered
        ));
        out.push_str(&format!(
            "  permissive: {} trials misdelivered ({} records total)\n",
            report.permissive_misdelivered_trials, report.permissive_misdelivered_records
        ));
        if let Some(counts) = flags.value("--sweep") {
            let counts: Vec<usize> = counts
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .map_err(|_| err(format!("--sweep expects integers, got {s}")))
                })
                .collect::<Result<_, _>>()?;
            out.push_str("degraded throughput (permissive, random faults):\n");
            out.push_str("  faults  delivered_fraction\n");
            for point in degraded_sweep(m, &counts, frames, &mut rng) {
                out.push_str(&format!(
                    "  {:>6}  {:>10.4}  ({}/{} records over {} frames)\n",
                    point.faults,
                    point.delivered_fraction,
                    point.delivered,
                    point.records,
                    point.frames
                ));
            }
        }
        match metrics {
            Some(MetricsFormat::Json) => {
                let report_json = serde_json::to_string(&report)
                    .map_err(|e| CliError::caused_by("fault report serialization failed", e))?;
                let metrics_json = serde_json::to_string(&counters.snapshot())
                    .map_err(|e| CliError::caused_by("metrics serialization failed", e))?;
                out.push_str(&format!("{report_json}\n{metrics_json}\n"));
            }
            Some(format) => out.push_str(&render_metrics(format, &counters)?),
            None => {}
        }
        Ok(out)
    })();
    finish_recording(record_path, &recorder, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(args: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&v)
    }

    #[test]
    fn no_args_prints_usage() {
        let out = run_str(&[]).unwrap();
        assert!(out.contains("usage: bnb"));
        assert_eq!(run_str(&["help"]).unwrap(), out);
    }

    #[test]
    fn bench_json_round_trips() {
        let out = run_str(&[
            "bench", "--min-m", "2", "--max-m", "4", "--frames", "2", "--min-ms", "1", "--json",
        ])
        .unwrap();
        let report: bench::BenchReport = serde_json::from_str(out.trim()).unwrap();
        assert_eq!(report.frames, 2);
        // One packed, one scalar, one batched and one Counters-observed
        // batched row per size, in order.
        assert_eq!(report.rows.len(), 12);
        for m in 2..=4usize {
            for kernel in ["packed", "scalar", "batched", "batched-counters"] {
                let row = report
                    .rows
                    .iter()
                    .find(|r| r.m == m && r.kernel == kernel)
                    .unwrap_or_else(|| panic!("missing row {kernel}/{m}"));
                assert!(row.ns_per_frame > 0.0);
                assert!(row.cells_per_s > 0.0);
                assert_eq!(row.word_bits, 64);
                let batched = kernel.starts_with("batched");
                assert_eq!(row.batch, if batched { 2 } else { 1 });
            }
        }
    }

    #[test]
    fn bench_and_serve_help_print_usage_without_running() {
        // A held port: a server that tried to bind it would fail.
        let held = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = held.local_addr().unwrap().to_string();
        let path = std::env::temp_dir().join(format!("bnb_help_{}.json", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let started = std::time::Instant::now();
        for flag in ["--help", "-h"] {
            assert_eq!(run_str(&["serve", "--addr", &addr, flag]).unwrap(), usage());
            // Ten seconds per cell would take minutes if anything were timed.
            let bench = ["bench", flag, "--min-ms", "10000", "--out", &path];
            assert_eq!(run_str(&bench).unwrap(), usage());
        }
        assert!(
            !std::path::Path::new(&path).exists(),
            "bench wrote a report"
        );
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
        drop(held);
    }

    #[test]
    fn bench_rejects_frames_that_leave_a_short_batch() {
        // 100 frames in calls of 64 would route 64 and 36 under a row
        // that says 64.
        let args = |frames: &'static str, batch: &'static str| {
            [
                "bench", "--min-m", "2", "--max-m", "2", "--frames", frames, "--batch", batch,
                "--min-ms", "1", "--json",
            ]
        };
        let e = run_str(&args("100", "64")).unwrap_err().to_string();
        assert!(e.contains("--frames") && e.contains("--batch"), "{e}");
        for (frames, batch, label) in [("128", "64", 64), ("16", "64", 16)] {
            let out = run_str(&args(frames, batch)).unwrap();
            let report: bench::BenchReport = serde_json::from_str(out.trim()).unwrap();
            let batched = report.rows.iter().find(|r| r.kernel == "batched").unwrap();
            assert_eq!(batched.batch, label, "--frames {frames} --batch {batch}");
        }
    }

    #[test]
    fn bench_table_and_out_file() {
        let path = std::env::temp_dir().join(format!("bnb_bench_{}.json", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let out = run_str(&[
            "bench", "--min-m", "2", "--max-m", "2", "--frames", "1", "--min-ms", "1", "--out",
            &path,
        ])
        .unwrap();
        assert!(out.contains("routing-kernel benchmark"));
        assert!(out.contains("batched cells/s"));
        let written = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let report: bench::BenchReport = serde_json::from_str(&written).unwrap();
        assert_eq!(report.rows.len(), 4);
    }

    #[test]
    fn bench_rejects_bad_sizes() {
        let e = run_str(&["bench", "--min-m", "9", "--max-m", "4"]).unwrap_err();
        assert!(e.to_string().contains("--min-m"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        let e = run_str(&["frobnicate"]).unwrap_err();
        assert!(e.to_string().contains("unknown command"));
    }

    #[test]
    fn route_with_explicit_permutation() {
        let out = run_str(&["route", "--inputs", "4", "--perm", "2,0,3,1"]).unwrap();
        assert!(out.contains("delivered: true"));
        assert!(out.contains("output 0: from input 1"));
    }

    #[test]
    fn route_with_trace() {
        let out = run_str(&["route", "--inputs", "4", "--perm", "2,0,3,1", "--trace"]).unwrap();
        assert!(out.contains("col 0.0"));
        assert!(out.contains("columns: 3"));
    }

    #[test]
    fn route_validates_input() {
        assert!(run_str(&["route", "--inputs", "5"]).is_err());
        assert!(run_str(&["route", "--inputs", "4", "--perm", "1,1,2,3"]).is_err());
        assert!(run_str(&["route", "--inputs", "4", "--perm", "0,1"]).is_err());
        assert!(run_str(&["route", "--inputs", "4", "--perm", "a,b,c,d"]).is_err());
    }

    #[test]
    fn route_defaults_to_seeded_random() {
        let a = run_str(&["route"]).unwrap();
        let b = run_str(&["route"]).unwrap();
        assert_eq!(a, b, "default route must be deterministic");
        assert!(a.contains("delivered: true"));
    }

    #[test]
    fn tables_render() {
        let out = run_str(&["tables", "--sizes", "3,4", "--data-width", "0"]).unwrap();
        assert!(out.contains("Table 1"));
        assert!(out.contains("Table 2"));
        assert!(run_str(&["tables", "--sizes", "0"]).is_err());
        assert!(run_str(&["tables", "--sizes", "x"]).is_err());
    }

    #[test]
    fn figures_render() {
        let out = run_str(&["figures"]).unwrap();
        assert!(out.contains("Fig. 1"));
        assert!(out.contains("sp(3)"));
    }

    #[test]
    fn ratios_render() {
        let out = run_str(&["ratios", "--sizes", "3,5"]).unwrap();
        assert!(out.contains("hardware ratio"));
    }

    #[test]
    fn crossover_renders() {
        let out = run_str(&["crossover"]).unwrap();
        assert!(out.contains("Crossover findings"));
    }

    #[test]
    fn verilog_for_each_component() {
        for component in ["bnb", "batcher", "splitter", "bsn"] {
            let out = run_str(&["verilog", "--component", component, "--inputs", "4"]).unwrap();
            assert!(out.contains("module"), "{component}");
            assert!(out.contains("endmodule"), "{component}");
        }
    }

    #[test]
    fn verilog_optimize_flag_reports_stats() {
        let out = run_str(&[
            "verilog",
            "--component",
            "bsn",
            "--inputs",
            "8",
            "--optimize",
        ])
        .unwrap();
        assert!(out.starts_with("// optimized:"));
        assert!(out.contains("endmodule"));
    }

    #[test]
    fn compare_routes_through_the_fleet() {
        let out = run_str(&["compare", "--inputs", "8"]).unwrap();
        assert!(out.contains("BNB"));
        assert!(out.contains("Benes"));
        assert!(out.matches("delivered").count() >= 8);
        assert!(!out.contains("MISDELIVERED"));
        assert!(run_str(&["compare", "--inputs", "3"]).is_err());
    }

    #[test]
    fn sweep_prints_curve() {
        let out = run_str(&["sweep", "--inputs", "8", "--rounds", "50"]).unwrap();
        assert!(out.contains("offered"));
        assert!(out.lines().count() >= 10);
        assert!(run_str(&["sweep", "--inputs", "7"]).is_err());
        assert!(run_str(&["sweep", "--discipline", "lifo"]).is_err());
    }

    #[test]
    fn diagnose_reports_conflicts() {
        // Duplicate destination 1 at inputs 0 and 2.
        let out = run_str(&["diagnose", "--inputs", "4", "--dests", "1,0,1,3"]).unwrap();
        assert!(out.contains("violated splitter"));
        assert!(out.contains("misdelivered"));
        // A clean permutation.
        let out = run_str(&["diagnose", "--inputs", "4", "--dests", "2,0,3,1"]).unwrap();
        assert!(out.starts_with("clean:"));
        // Missing flag.
        assert!(run_str(&["diagnose", "--inputs", "4"]).is_err());
        assert!(run_str(&["diagnose", "--inputs", "4", "--dests", "1,2"]).is_err());
    }

    #[test]
    fn engine_emits_json_stats() {
        let out = run_str(&[
            "engine",
            "--inputs",
            "64",
            "--workers",
            "2",
            "--batch",
            "10",
        ])
        .unwrap();
        let stats: bnb_engine::EngineStats = serde_json::from_str(out.trim()).unwrap();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.batches, 10);
        assert_eq!(stats.records, 640);
        assert_eq!(stats.errors, 0);
        assert!(stats.records_per_sec > 0.0);
    }

    #[test]
    fn engine_pretty() {
        let out = run_str(&[
            "engine",
            "--inputs",
            "16",
            "--workers",
            "1",
            "--batch",
            "3",
            "--pretty",
        ])
        .unwrap();
        assert!(out.contains("\n  \"workers\": 1"), "pretty JSON expected");
        let stats: bnb_engine::EngineStats = serde_json::from_str(out.trim()).unwrap();
        assert_eq!(stats.batches, 3);
    }

    #[test]
    fn engine_validates_flags() {
        assert!(run_str(&["engine", "--inputs", "3"]).is_err());
        assert!(run_str(&["engine", "--workers", "0"]).is_err());
        assert!(run_str(&["engine", "--batch", "0"]).is_err());
        assert!(run_str(&["engine", "--queue", "0"]).is_err());
    }

    #[test]
    fn engine_rejects_more_records_than_it_draws_ahead() {
        for (inputs, batch) in [("1048576", "17"), ("1024", "16385")] {
            let e = run_str(&["engine", "--inputs", inputs, "--batch", batch]).unwrap_err();
            let msg = e.to_string();
            assert!(
                msg.contains("--inputs") && msg.contains("--batch"),
                "the error names both flags: {msg}"
            );
        }
    }

    #[test]
    fn cli_error_preserves_cause_chain() {
        let e = CliError::caused_by(
            "routing failed",
            bnb_core::RouteError::WidthMismatch {
                expected: 8,
                actual: 3,
            },
        );
        assert_eq!(e.to_string(), "routing failed");
        let cause = e.source().expect("wrapped errors expose their cause");
        assert!(cause.to_string().contains('8'), "{cause}");
        assert!(CliError::usage("bad flag").source().is_none());
    }

    #[test]
    fn route_metrics_text_matches_closed_form() {
        // m = 2: a full route visits m(m+1)/2 = 3 columns.
        let out = run_str(&[
            "route",
            "--inputs",
            "4",
            "--perm",
            "2,0,3,1",
            "--metrics",
            "text",
        ])
        .unwrap();
        assert!(out.contains("delivered: true"));
        assert!(out.contains("columns"));
        assert!(out
            .lines()
            .any(|l| l.starts_with("columns") && l.ends_with('3')));
    }

    #[test]
    fn route_metrics_json_parses() {
        let out = run_str(&[
            "route",
            "--inputs",
            "8",
            "--perm",
            "6,2,7,0,4,1,3,5",
            "--metrics",
            "json",
        ])
        .unwrap();
        let json_line = out.lines().last().unwrap();
        let snap: bnb_obs::MetricsSnapshot = serde_json::from_str(json_line).unwrap();
        assert_eq!(snap.columns, 6, "m=3 routes m(m+1)/2 columns");
        assert_eq!(snap.conflicts, 0);
    }

    #[test]
    fn sweep_metrics_json_reports_rounds() {
        let out = run_str(&[
            "sweep",
            "--inputs",
            "8",
            "--rounds",
            "40",
            "--metrics",
            "json",
        ])
        .unwrap();
        let snap: bnb_obs::MetricsSnapshot =
            serde_json::from_str(out.lines().last().unwrap()).unwrap();
        assert_eq!(
            snap.scheduler_rounds,
            8 * 40,
            "one event per round per load point"
        );
        assert!(snap.records_matched > 0, "sweeps deliver records");
    }

    #[test]
    fn engine_metrics_json_emits_both_documents() {
        let out = run_str(&[
            "engine",
            "--inputs",
            "64",
            "--workers",
            "2",
            "--batch",
            "10",
            "--metrics",
            "json",
        ])
        .unwrap();
        let mut lines = out.lines();
        let stats: bnb_engine::EngineStats = serde_json::from_str(lines.next().unwrap()).unwrap();
        let snap: bnb_obs::MetricsSnapshot = serde_json::from_str(lines.next().unwrap()).unwrap();
        assert_eq!(stats.batches, 10);
        assert_eq!(snap.batches_submitted, 10);
        assert_eq!(snap.batches_drained, 10);
        assert_eq!(snap.batch_errors, 0);
        assert_eq!(snap.histogram.count(), 10);
        assert!(!snap.per_stage.is_empty(), "per-stage counters must appear");
    }

    #[test]
    fn engine_metrics_text_renders() {
        let out = run_str(&[
            "engine",
            "--inputs",
            "16",
            "--workers",
            "1",
            "--batch",
            "2",
            "--metrics",
            "text",
        ])
        .unwrap();
        assert!(out.contains("batches_drained"));
        assert!(out.contains("per-stage"));
    }

    #[test]
    fn metrics_flag_validates() {
        assert!(run_str(&["route", "--metrics", "yaml"]).is_err());
        assert!(run_str(&["engine", "--metrics", "csv"]).is_err());
        assert!(run_str(&["sweep", "--metrics", ""]).is_err());
        assert!(run_str(&["trace", "--metrics", "xml"]).is_err());
    }

    #[test]
    fn route_metrics_prom_renders_exposition_format() {
        let out = run_str(&[
            "route",
            "--inputs",
            "4",
            "--perm",
            "2,0,3,1",
            "--metrics",
            "prom",
        ])
        .unwrap();
        assert!(out.contains("# HELP bnb_columns_total"));
        assert!(out.contains("# TYPE bnb_columns_total counter"));
        assert!(
            out.lines().any(|l| l == "bnb_columns_total 3"),
            "m = 2 routes m(m+1)/2 = 3 columns:\n{out}"
        );
        assert!(out.contains("bnb_stage_columns_total{stage=\"0\"}"));
    }

    #[test]
    fn trace_renders_verified_paths() {
        let out = run_str(&["trace", "--inputs", "4", "--perm", "2,0,3,1"]).unwrap();
        for d in 0..4 {
            assert!(out.contains(&format!("cell {d}\n")), "{out}");
        }
        // N = 4, m = 2: N * m(m+1)/2 = 12 hops, N * m = 8 at main columns.
        assert!(out.contains("hops: 12 (8 main-stage)"), "{out}");
        assert!(out.contains("paths verified: 4"), "{out}");
        assert!(out.contains("delivered: true"), "{out}");
    }

    #[test]
    fn trace_dest_filter_shows_one_path() {
        let out = run_str(&["trace", "--inputs", "4", "--perm", "2,0,3,1", "--dest", "2"]).unwrap();
        assert!(out.contains("cell 2\n"));
        assert!(!out.contains("cell 0\n"), "{out}");
        assert!(run_str(&["trace", "--inputs", "4", "--dest", "9"]).is_err());
        assert!(run_str(&["trace", "--inputs", "4", "--dest", "x"]).is_err());
    }

    #[test]
    fn trace_defaults_are_deterministic() {
        let a = run_str(&["trace"]).unwrap();
        let b = run_str(&["trace"]).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("paths verified: 8"));
    }

    fn temp_trace_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("bnb_cli_{tag}_{}.json", std::process::id()))
    }

    #[test]
    fn record_flag_writes_chrome_trace_json() {
        let path = temp_trace_path("route");
        let path_str = path.to_str().unwrap();
        let out = run_str(&[
            "route", "--inputs", "4", "--perm", "2,0,3,1", "--record", path_str,
        ])
        .unwrap();
        assert!(out.contains("recorded ") && out.contains(path_str), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\""), "{json}");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":"), "events expected: {json}");
    }

    #[test]
    fn engine_record_merges_worker_lanes_into_one_trace() {
        let path = temp_trace_path("engine");
        let path_str = path.to_str().unwrap();
        let out = run_str(&[
            "engine",
            "--inputs",
            "16",
            "--workers",
            "2",
            "--batch",
            "3",
            "--record",
            path_str,
            "--metrics",
            "prom",
        ])
        .unwrap();
        assert!(out.contains("bnb_batches_drained_total 3"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(json.contains("\"name\":\"drain\""), "{json}");
        assert!(json.contains("\"name\":\"submit\""), "{json}");
        assert!(json.contains("thread_name"), "lane metadata expected");
    }

    #[test]
    fn sweep_and_faults_accept_record() {
        for (tag, args) in [
            ("sweep", vec!["sweep", "--inputs", "8", "--rounds", "20"]),
            ("faults", vec!["faults", "--inputs", "8", "--trials", "10"]),
        ] {
            let path = temp_trace_path(tag);
            let path_str = path.to_str().unwrap().to_string();
            let mut args: Vec<&str> = args;
            args.push("--record");
            args.push(&path_str);
            let out = run_str(&args).unwrap();
            assert!(out.contains("recorded "), "{tag}: {out}");
            let json = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).ok();
            assert!(json.contains("\"traceEvents\""), "{tag}");
        }
    }

    #[test]
    fn sample_errors_keeps_a_clean_route_trace_empty() {
        let path = temp_trace_path("sample");
        let path_str = path.to_str().unwrap();
        let out = run_str(&[
            "route", "--inputs", "4", "--perm", "2,0,3,1", "--record", path_str, "--sample",
            "errors",
        ])
        .unwrap();
        assert!(out.contains("recorded 0 span(s)"), "{out}");
        assert!(out.contains("sampled out"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            json.matches("\"ph\":").count(),
            1,
            "clean route, errors-only sampling: metadata event only\n{json}"
        );
        assert!(run_str(&["route", "--sample", "sometimes"]).is_err());
        assert!(run_str(&["route", "--sample", "0"]).is_err());
    }

    #[test]
    fn record_to_unwritable_path_is_an_error() {
        let e = run_str(&[
            "route",
            "--inputs",
            "4",
            "--perm",
            "2,0,3,1",
            "--record",
            "/nonexistent-dir/trace.json",
        ])
        .unwrap_err();
        assert!(e.to_string().contains("failed to write recording"));
        assert!(e.source().is_some(), "io cause must be preserved");
    }

    #[test]
    fn verilog_validates_flags() {
        assert!(run_str(&["verilog", "--inputs", "3"]).is_err());
        assert!(run_str(&["verilog", "--component", "nope"]).is_err());
        assert!(run_str(&["verilog", "--data-width", "99"]).is_err());
    }

    #[test]
    fn faults_random_campaign_reports_coverage() {
        let out = run_str(&["faults", "--inputs", "8", "--trials", "40", "--seed", "7"]).unwrap();
        assert!(out.contains("hardware-fault campaign: N = 8, 1 random fault"));
        assert!(out.contains("misdelivered"));
        assert!(
            out.contains("0 misdelivered"),
            "strict must never silently misdeliver:\n{out}"
        );
    }

    #[test]
    fn faults_pinned_fault_and_sweep() {
        let out = run_str(&[
            "faults",
            "--inputs",
            "8",
            "--faults",
            "1.0.0:stuck1",
            "--trials",
            "30",
            "--sweep",
            "0,2",
            "--frames",
            "10",
        ])
        .unwrap();
        assert!(out.contains("1 pinned fault(s)"));
        assert!(out.contains("stuck-exchange at main stage 1, internal stage 0, element 0"));
        assert!(out.contains("degraded throughput"));
        assert!(
            out.contains("1.0000"),
            "zero faults delivers everything:\n{out}"
        );
    }

    #[test]
    fn faults_metrics_json_emits_report_then_snapshot() {
        let out = run_str(&[
            "faults",
            "--inputs",
            "8",
            "--trials",
            "25",
            "--seed",
            "3",
            "--metrics",
            "json",
        ])
        .unwrap();
        let lines: Vec<&str> = out.trim_end().lines().collect();
        let report: bnb_sim::faults::FaultReport =
            serde_json::from_str(lines[lines.len() - 2]).expect("penultimate line is FaultReport");
        assert_eq!(report.m, 3);
        assert_eq!(report.trials, 25);
        assert_eq!(report.strict_misdelivered, 0);
        let snapshot: bnb_obs::MetricsSnapshot =
            serde_json::from_str(lines[lines.len() - 1]).expect("last line is MetricsSnapshot");
        assert_eq!(
            snapshot.hardware_faults, report.strict_detected as u64,
            "counters must agree with the report"
        );
    }

    #[test]
    fn faults_chaos_campaign_holds() {
        let out = run_str(&[
            "faults", "--chaos", "--inputs", "8", "--trials", "3", "--frames", "20", "--ops", "4",
            "--seed", "11",
        ])
        .unwrap();
        assert!(out.contains("chaos campaign: N = 8"), "{out}");
        assert!(out.contains("base seed 11"), "{out}");
        assert!(out.contains("0 misdelivered"), "{out}");
        assert!(out.contains("3/3 schedule(s) recovered"), "{out}");
        assert!(out.contains("contract: zero silent misdeliveries"), "{out}");
    }

    #[test]
    fn faults_chaos_out_writes_schedules_and_reports() {
        let path = std::env::temp_dir().join(format!("bnb_chaos_{}.json", std::process::id()));
        let path_str = path.to_str().unwrap().to_string();
        let out = run_str(&[
            "faults", "--chaos", "--inputs", "8", "--trials", "2", "--frames", "10", "--ops", "3",
            "--out", &path_str,
        ])
        .unwrap();
        assert!(out.contains("wrote 2 run(s)"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        #[derive(serde::Deserialize)]
        struct Run {
            schedule: bnb_sim::ChaosSchedule,
            report: bnb_sim::ChaosReport,
        }
        let runs: Vec<Run> = serde_json::from_str(&json).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].schedule.seed, 0);
        assert_eq!(runs[1].schedule.seed, 1);
        assert_eq!(runs[0].report.frames_misdelivered, 0);
        assert!(runs[0].report.recovered);
    }

    #[test]
    fn faults_chaos_validates_flags() {
        assert!(run_str(&["faults", "--chaos", "--trials", "0"]).is_err());
        assert!(run_str(&["faults", "--chaos", "--shards", "0"]).is_err());
        assert!(run_str(&["faults", "--chaos", "--workers", "0"]).is_err());
        assert!(run_str(&["faults", "--chaos", "--ops", "99999"]).is_err());
        assert!(run_str(&["faults", "--chaos", "--frames", "0"]).is_err());
    }

    #[test]
    fn faults_validates_flags() {
        assert!(run_str(&["faults", "--inputs", "3"]).is_err());
        assert!(run_str(&["faults", "--trials", "0"]).is_err());
        assert!(run_str(&["faults", "--faults", "nonsense"]).is_err());
        assert!(run_str(&["faults", "--faults", "1.0:stuck1"]).is_err());
        assert!(run_str(&["faults", "--faults", "0.0.0:melted"]).is_err());
        assert!(run_str(&["faults", "--inputs", "8", "--faults", "9.0.0:link"]).is_err());
        assert!(run_str(&["faults", "--sweep", "two"]).is_err());
        assert!(run_str(&["faults", "--metrics", "xml"]).is_err());
    }

    #[test]
    fn serve_and_loadgen_validate_flags() {
        // Flag validation happens before any socket is bound or dialed.
        assert!(run_str(&["serve", "--inputs", "12"]).is_err());
        assert!(run_str(&["serve", "--inputs", "1"]).is_err());
        assert!(run_str(&["serve", "--queue", "many"]).is_err());
        assert!(run_str(&["serve", "--shards", "0"]).is_err());
        assert!(run_str(&["serve", "--chaos-ops", "99999"]).is_err());
        assert!(run_str(&["serve", "--chaos-interval-ms", "soon"]).is_err());
        assert!(run_str(&["loadgen", "--mode", "sideways"]).is_err());
        assert!(run_str(&["loadgen", "--mode", "open", "--qps", "-3"]).is_err());
        assert!(run_str(&["loadgen", "--tenants", "0"]).is_err());
        assert!(run_str(&["loadgen", "--tenants", "70000"]).is_err());
        assert!(run_str(&["loadgen", "--inputs", "63"]).is_err());
        assert!(run_str(&["loadgen", "--frames", "lots"]).is_err());
    }

    #[test]
    fn serve_refuses_an_unbindable_address() {
        let err = run_str(&["serve", "--addr", "256.0.0.1:0"]).unwrap_err();
        assert!(err.to_string().contains("cannot bind"));
        assert!(err.source().is_some(), "bind failure keeps its io cause");
    }

    #[test]
    fn loadgen_reports_an_unreachable_server() {
        // Bind-then-drop guarantees a port with no listener behind it.
        let port = {
            let sock = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            sock.local_addr().unwrap().port()
        };
        let err = run_str(&[
            "loadgen",
            "--addr",
            &format!("127.0.0.1:{port}"),
            "--tenants",
            "1",
            "--frames",
            "1",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("load generation"));
    }

    #[test]
    fn usage_mentions_serving_commands() {
        let out = usage();
        assert!(out.contains("serve"));
        assert!(out.contains("loadgen"));
        assert!(out.contains("Prometheus"));
    }
}
