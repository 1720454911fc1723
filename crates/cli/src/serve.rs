//! `bnb serve` and `bnb loadgen` — the long-lived routing service and
//! its load-generator client.
//!
//! `serve` is the one command in this CLI that is not a pure function:
//! it binds a socket, prints a `listening on ADDR` line immediately (so
//! scripts and the CI soak can discover the ephemeral port), and blocks
//! until a graceful drain is requested by SIGTERM/SIGINT or a wire
//! `SHUTDOWN` message. Its *return value* is still pure: the session's
//! [`ServeReport`] as JSON, printed by `main` after the drain.
//!
//! `loadgen` drives a running server and returns the
//! [`bnb_serve::LoadgenReport`] as JSON; `--out FILE` additionally
//! writes the JSON to a file for CI artifacts.
//!
//! `top` polls a running server's `/status` endpoint and renders a
//! refreshing terminal dashboard — per-stage latency, tenant windows,
//! and fabric health — like `top(1)` for the routing service.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use bnb_engine::LiveFaultPlan;
use bnb_obs::FlightRecorder;
use bnb_serve::{
    install_signal_handlers, run_loadgen, run_sweep, LoadMode, LoadgenConfig, ServeConfig, Server,
    ServerControl, StatusSnapshot, TenantKeys,
};
use bnb_sim::chaos::{ChaosAction, ChaosSchedule};

use crate::{err, finish_recording, sample_flag, CliError, Flags};

fn u64_or(flags: &Flags, name: &str, default: u64) -> Result<u64, CliError> {
    match flags.value(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| err(format!("{name} expects an integer, got {v}"))),
    }
}

fn f64_or(flags: &Flags, name: &str, default: f64) -> Result<f64, CliError> {
    match flags.value(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| err(format!("{name} expects a number, got {v}"))),
    }
}

/// Loads and parses a `--tenant-keys` file when the flag is present.
fn tenant_keys_flag(flags: &Flags) -> Result<Option<TenantKeys>, CliError> {
    let Some(path) = flags.value("--tenant-keys") else {
        return Ok(None);
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::caused_by(format!("cannot read {path}"), e))?;
    let keys = TenantKeys::parse(&text).map_err(|e| err(format!("bad key file {path}: {e}")))?;
    if keys.is_empty() {
        return Err(err(format!("{path} provisions no tenants")));
    }
    Ok(Some(keys))
}

fn require_power_of_two(flags: &Flags, name: &str, default: usize) -> Result<usize, CliError> {
    let n = flags.usize_or(name, default)?;
    if n < 2 || !n.is_power_of_two() {
        return Err(err(format!("{name} expects a power of two >= 2, got {n}")));
    }
    Ok(n)
}

/// `bnb serve`: run a serving session until a graceful drain.
pub(crate) fn cmd_serve(flags: &Flags) -> Result<String, CliError> {
    let addr = flags.value("--addr").unwrap_or("127.0.0.1:0");
    let config = ServeConfig {
        inputs: require_power_of_two(flags, "--inputs", 64)?,
        queue_capacity: flags.usize_or("--queue", 8)?.max(1),
        tenant_quota: flags.usize_or("--tenant-quota", 4)?.max(1),
        max_connections: flags.usize_or("--max-conns", 64)?.max(1),
        slow_ms: u64_or(flags, "--slow-ms", 0)?,
        reactor_threads: flags.usize_or("--threads", 0)?,
        window: flags.usize_or("--window", 32)?.max(1),
        ..ServeConfig::default()
    };
    let tenant_keys = tenant_keys_flag(flags)?;
    let record_path = flags.value("--record");
    let recorder = FlightRecorder::new().policy(sample_flag(flags)?);
    let pretty = flags.present("--pretty");
    let chaos = flags.present("--chaos");
    let shards = flags.usize_or("--shards", 2)?;
    if shards == 0 || shards > 64 {
        return Err(err(format!("--shards expects 1..=64, got {shards}")));
    }
    let chaos_ops = flags.usize_or("--chaos-ops", 16)?;
    if chaos_ops > 10_000 {
        return Err(err("--chaos-ops must be <= 10000"));
    }
    let chaos_interval =
        Duration::from_millis(u64_or(flags, "--chaos-interval-ms", 50)?.clamp(1, 60_000));
    let seed = u64_or(flags, "--seed", 0xC4A05)?;
    let m = config.inputs.trailing_zeros() as usize;
    // Generate (and optionally persist) the fault schedule before binding,
    // so a failed session still leaves its script behind for replay.
    let schedule = chaos.then(|| ChaosSchedule::generate(m, shards, chaos_ops, chaos_ops, seed));
    if let (Some(schedule), Some(path)) = (&schedule, flags.value("--chaos-out")) {
        let json = serde_json::to_string(schedule)
            .map_err(|e| CliError::caused_by("cannot serialize chaos schedule", e))?;
        std::fs::write(path, &json)
            .map_err(|e| CliError::caused_by(format!("cannot write {path}"), e))?;
    }

    let listener = bnb_serve::server::bind(addr, config.max_connections)
        .map_err(|e| CliError::caused_by(format!("cannot bind {addr}"), e))?;
    let local = listener
        .local_addr()
        .map_err(|e| CliError::caused_by("cannot read bound address", e))?;
    // Announce the bound address *now* — with --addr 127.0.0.1:0 this is
    // the only way a caller learns the ephemeral port.
    println!("listening on {local}");
    std::io::stdout().flush().ok();

    install_signal_handlers();
    let control = ServerControl::new();
    let counters = bnb_obs::Counters::new();
    let report = match &schedule {
        None => {
            let mut server = Server::new(config, &counters).with_recorder(&recorder);
            if let Some(keys) = tenant_keys.clone() {
                server = server.with_tenant_keys(keys);
            }
            server
                .serve(listener, &control)
                .map_err(|e| CliError::caused_by("serving session failed", e))?
        }
        Some(schedule) => {
            // The chaos driver and the server share one live plan: the
            // driver damages and heals shards on a fixed cadence while
            // the reactors route around the damage and the plan's
            // scrubber repairs it. After the script ends every shard is cleared, so
            // a session that outlives its schedule converges back to
            // full capacity.
            let plan = LiveFaultPlan::healthy(shards).with_probe_seed(seed);
            let mut server = Server::new(config, &counters)
                .with_fault_plan(&plan)
                .with_recorder(&recorder);
            if let Some(keys) = tenant_keys.clone() {
                server = server.with_tenant_keys(keys);
            }
            let stop = AtomicBool::new(false);
            let result = std::thread::scope(|s| {
                s.spawn(|| {
                    for op in &schedule.ops {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        match op.action {
                            ChaosAction::Inject { shard, site, kind } => {
                                plan.inject(shard, site, kind)
                            }
                            ChaosAction::Clear { shard } => plan.clear(shard),
                        }
                        std::thread::sleep(chaos_interval);
                    }
                    for shard in 0..shards {
                        plan.clear(shard);
                    }
                });
                let result = server.serve(listener, &control);
                stop.store(true, Ordering::Release);
                result
            });
            result.map_err(|e| CliError::caused_by("serving session failed", e))?
        }
    };

    let json = if pretty {
        serde_json::to_string_pretty(&report)
    } else {
        serde_json::to_string(&report)
    }
    .map_err(|e| CliError::caused_by("cannot serialize serve report", e))?;
    finish_recording(record_path, &recorder, Ok(format!("{json}\n")))
}

/// `bnb loadgen`: drive a running server and report what came back.
pub(crate) fn cmd_loadgen(flags: &Flags) -> Result<String, CliError> {
    let mode = match flags.value("--mode").unwrap_or("closed") {
        "closed" => LoadMode::Closed {
            // --window is the pipelining-era spelling; --inflight the
            // original. When both appear, --window wins.
            inflight: match flags.value("--window") {
                Some(_) => flags.usize_or("--window", 4)?.max(1),
                None => flags.usize_or("--inflight", 4)?.max(1),
            },
        },
        "open" => {
            let qps = f64_or(flags, "--qps", 500.0)?;
            if !qps.is_finite() || qps <= 0.0 {
                return Err(err(format!("--qps expects a positive rate, got {qps}")));
            }
            LoadMode::Open { qps }
        }
        other => {
            return Err(err(format!(
                "--mode expects 'closed' or 'open', got {other}"
            )))
        }
    };
    let tenants = u64_or(flags, "--tenants", 4)?;
    if tenants == 0 || tenants > u64::from(u16::MAX) {
        return Err(err(format!("--tenants expects 1..=65535, got {tenants}")));
    }
    // --connections: absent = one per tenant; one value = that many
    // sockets; a comma list = a full scaling sweep.
    let sweep: Vec<usize> = match flags.value("--connections") {
        None => Vec::new(),
        Some(list) => {
            let mut counts = Vec::new();
            for part in list.split(',') {
                let n: usize = part
                    .trim()
                    .parse()
                    .map_err(|_| err(format!("--connections expects integers, got '{part}'")))?;
                if n == 0 || n > 65_535 {
                    return Err(err(format!("--connections expects 1..=65535, got {n}")));
                }
                counts.push(n);
            }
            if counts.is_empty() {
                return Err(err("--connections expects at least one count"));
            }
            counts
        }
    };
    let config = LoadgenConfig {
        addr: flags
            .value("--addr")
            .unwrap_or("127.0.0.1:9500")
            .to_string(),
        tenants: tenants as u16,
        connections: if sweep.len() == 1 { sweep[0] } else { 0 },
        frames: u64_or(flags, "--frames", 64)?,
        inputs: require_power_of_two(flags, "--inputs", 64)?,
        mode,
        seed: u64_or(flags, "--seed", 0xB1B0)?,
        drain_window: Duration::from_millis(u64_or(flags, "--drain-ms", 2000)?.max(1)),
        shutdown_when_done: flags.present("--shutdown"),
        max_resubmits: {
            let n = u64_or(flags, "--resubmits", 0)?;
            if n > 1000 {
                return Err(err(format!("--resubmits expects 0..=1000, got {n}")));
            }
            n as u32
        },
        keys: tenant_keys_flag(flags)?,
    };

    let pretty = flags.present("--pretty");
    let json = if sweep.len() > 1 {
        let report = run_sweep(&config, &sweep).map_err(|e| {
            CliError::caused_by(
                format!("connection sweep against {} failed", config.addr),
                e,
            )
        })?;
        if pretty {
            serde_json::to_string_pretty(&report)
        } else {
            serde_json::to_string(&report)
        }
    } else {
        let report = run_loadgen(&config).map_err(|e| {
            CliError::caused_by(format!("load generation against {} failed", config.addr), e)
        })?;
        if pretty {
            serde_json::to_string_pretty(&report)
        } else {
            serde_json::to_string(&report)
        }
    }
    .map_err(|e| CliError::caused_by("cannot serialize loadgen report", e))?;
    if let Some(path) = flags.value("--out") {
        std::fs::write(path, &json)
            .map_err(|e| CliError::caused_by(format!("cannot write {path}"), e))?;
    }
    Ok(format!("{json}\n"))
}

/// `bnb top`: poll a running server's `/status` endpoint and render a
/// refreshing terminal dashboard. `--count N` stops after N polls
/// (default 0 = until the server goes away or Ctrl-C); `--count 1`
/// prints one dashboard without clearing the screen, which is what
/// scripts and tests want.
pub(crate) fn cmd_top(flags: &Flags) -> Result<String, CliError> {
    let addr = flags.value("--addr").unwrap_or("127.0.0.1:9500");
    let interval = Duration::from_millis(u64_or(flags, "--interval-ms", 1000)?.clamp(50, 60_000));
    let count = u64_or(flags, "--count", 0)?;
    let clear = count != 1;

    let mut polls = 0u64;
    loop {
        let status = fetch_status(addr)
            .map_err(|e| CliError::caused_by(format!("cannot poll {addr}/status"), e))?;
        let dashboard = render_top(addr, &status);
        if clear {
            // Clear + home, like top(1); the dashboard repaints in place.
            print!("\x1b[2J\x1b[H{dashboard}");
            std::io::stdout().flush().ok();
        }
        polls += 1;
        if count != 0 && polls >= count {
            return Ok(if clear { String::new() } else { dashboard });
        }
        std::thread::sleep(interval);
    }
}

/// One HTTP GET of `/status`, parsed into a [`StatusSnapshot`].
fn fetch_status(addr: &str) -> std::io::Result<StatusSnapshot> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(
        format!("GET /status HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let body_at = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no HTTP body"))?;
    let body = std::str::from_utf8(&response[body_at..])
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    serde_json::from_str(body).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders one `/status` snapshot as the `bnb top` dashboard. Pure, so
/// the layout is unit-testable without a server.
pub(crate) fn render_top(addr: &str, s: &StatusSnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "bnb top — {addr}  up {:.1}s  {}\n",
        s.uptime_ms as f64 / 1e3,
        if s.draining { "DRAINING" } else { "serving" }
    ));
    out.push_str(&format!(
        "conns {}  reactors {}  inflight {}  window {}/{}\n",
        s.connections, s.reactors, s.inflight, s.window.max_depth, s.window.limit,
    ));
    out.push_str(&format!(
        "slow {} (threshold {})\n",
        s.telemetry.slow_captured,
        if s.telemetry.slow_threshold_ns == 0 {
            "off".to_string()
        } else {
            fmt_ns(s.telemetry.slow_threshold_ns)
        }
    ));
    out.push_str("\nSTAGE           COUNT        P50        P95        P99        MAX\n");
    for st in s
        .telemetry
        .stages
        .iter()
        .chain(std::iter::once(&s.telemetry.wire))
    {
        out.push_str(&format!(
            "{:<12} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
            st.stage,
            st.count,
            fmt_ns(st.p50_ns),
            fmt_ns(st.p95_ns),
            fmt_ns(st.p99_ns),
            fmt_ns(st.max_ns),
        ));
    }
    if !s.telemetry.tenants.is_empty() {
        out.push_str(&format!(
            "\nTENANT (last {:.0}s)  COUNT      BYTES  RETRY  ERR        P50        P99\n",
            s.telemetry.window_ms as f64 / 1e3
        ));
        for t in &s.telemetry.tenants {
            out.push_str(&format!(
                "{:<18} {:>6} {:>10} {:>6} {:>4} {:>10} {:>10}\n",
                t.tenant,
                t.count,
                t.bytes,
                t.retries,
                t.errors,
                fmt_ns(t.p50_ns),
                fmt_ns(t.p99_ns),
            ));
        }
    }
    if let Some(fabric) = &s.fabric {
        out.push_str(&format!(
            "\nFABRIC  {} healthy{}\n",
            fabric.healthy,
            if fabric.degraded { "  DEGRADED" } else { "" }
        ));
        for sh in &fabric.shards {
            out.push_str(&format!(
                "shard {:<3} {:<12} clean_streak {:<4} faults {}\n",
                sh.shard,
                sh.health,
                sh.clean_streak,
                sh.faults.len(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnb_obs::{StageSnapshot, TelemetrySnapshot, TenantSnapshot};
    use bnb_serve::EngineStatus;

    fn stage(name: &str, count: u64) -> StageSnapshot {
        StageSnapshot {
            stage: name.to_string(),
            count,
            sum_ns: count * 1_000,
            p50_ns: 900,
            p95_ns: 40_000,
            p99_ns: 2_500_000,
            max_ns: 3_000_000,
        }
    }

    fn sample_status() -> StatusSnapshot {
        StatusSnapshot {
            uptime_ms: 12_500,
            inflight: 3,
            connections: 2,
            reactors: 2,
            draining: false,
            window: bnb_serve::WindowStatus {
                limit: 32,
                max_depth: 5,
            },
            telemetry: TelemetrySnapshot {
                uptime_ms: 12_500,
                window_ms: 60_000,
                slow_threshold_ns: 5_000_000,
                slow_captured: 1,
                stages: vec![stage("decode", 10), stage("route", 10)],
                wire: stage("wire", 10),
                tenants: vec![TenantSnapshot {
                    tenant: 7,
                    count: 10,
                    bytes: 640,
                    retries: 2,
                    errors: 0,
                    p50_ns: 900,
                    p95_ns: 40_000,
                    p99_ns: 2_500_000,
                }],
            },
            engine: EngineStatus {
                queue_high_water: 0,
            },
            fabric: None,
        }
    }

    #[test]
    fn fmt_ns_picks_readable_units() {
        assert_eq!(fmt_ns(900), "900ns");
        assert_eq!(fmt_ns(40_000), "40.0µs");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
    }

    #[test]
    fn render_top_shows_stages_tenants_and_session_state() {
        let out = render_top("127.0.0.1:9500", &sample_status());
        assert!(out.contains("bnb top — 127.0.0.1:9500"), "{out}");
        assert!(out.contains("serving"), "{out}");
        assert!(out.contains("decode"), "{out}");
        assert!(out.contains("wire"), "{out}");
        assert!(out.contains("conns 2  reactors 2  inflight 3"), "{out}");
        assert!(!out.contains("engine"), "no engine line: {out}");
        assert!(out.contains("window 5/32"), "{out}");
        // Tenant row: id, window count, retries.
        assert!(out.contains('7'), "{out}");
        assert!(out.contains("slow 1 (threshold 5.0ms)"), "{out}");
        // No fault plan: the fabric section is absent entirely.
        assert!(!out.contains("FABRIC"), "{out}");
    }

    #[test]
    fn render_top_marks_draining_and_fabric_health() {
        let mut status = sample_status();
        status.draining = true;
        status.fabric = Some(bnb_engine::PlanStatus {
            healthy: 1,
            degraded: true,
            shards: vec![bnb_engine::ShardStatus {
                shard: 0,
                health: "quarantined".to_string(),
                clean_streak: 0,
                faults: Vec::new(),
            }],
        });
        let out = render_top("x", &status);
        assert!(out.contains("DRAINING"), "{out}");
        assert!(out.contains("DEGRADED"), "{out}");
        assert!(out.contains("quarantined"), "{out}");
    }
}
