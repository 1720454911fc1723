//! Loopback soak of the full serving stack: a real `Server` on
//! `127.0.0.1`, concurrent tenant connections driven by the real
//! `loadgen` client, the bounded queue forced into explicit RETRYs, a
//! graceful drain, and a Prometheus scrape whose counters balance the
//! frame ledger.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use bnb::obs::Counters;
use bnb::serve::loadgen::{run_loadgen, run_sweep, LoadMode, LoadgenConfig, TenantLoad};
use bnb::serve::server::{self, ServeConfig, ServeReport, Server, ServerControl, StatusSnapshot};
use bnb::serve::{ErrorCode, FrameAssembler, Message};

/// Runs its closure on drop, also while a failed assertion unwinds: the
/// tests use it to stop the server (and any traffic driver) so that
/// `thread::scope` can join and the failure is reported instead of hanging.
struct OnDrop<F: FnMut()>(F);

impl<F: FnMut()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)()
    }
}

/// Runs `body` against a live server, then triggers a graceful drain and
/// returns (session report, body result).
fn serve_scope<R: Send>(
    config: ServeConfig,
    body: impl FnOnce(&str, &Arc<ServerControl>) -> R + Send,
) -> (ServeReport, R) {
    let counters = Counters::new();
    let listener =
        server::bind("127.0.0.1:0", config.max_connections).expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    let control = ServerControl::new();

    thread::scope(|s| {
        let server_control = Arc::clone(&control);
        let counters_ref = &counters;
        let server = s.spawn(move || {
            Server::new(config, counters_ref)
                .serve(listener, &server_control)
                .expect("serving session")
        });
        let _drain = OnDrop(|| control.trigger_shutdown());

        let out = body(&addr, &control);

        control.trigger_shutdown();
        let report = server.join().expect("server thread");
        (report, out)
    })
}

/// Reads the next reply the way the load client does: `read_from` into
/// `asm` until `next_frame` yields. `Ok(None)` when the server hung up;
/// a malformed reply panics.
fn read_reply(stream: &mut TcpStream, asm: &mut FrameAssembler) -> io::Result<Option<Message>> {
    loop {
        if let Some((msg, _decode_ns)) = asm.next_frame().expect("a well-formed reply") {
            return Ok(Some(msg));
        }
        if asm.read_from(stream)? == 0 {
            return Ok(None);
        }
    }
}

/// Scrapes the server's /metrics endpoint over plain HTTP.
fn scrape_metrics(addr: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect for scrape");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: bnb\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status).unwrap();
    assert!(status.starts_with("HTTP/1.1 200"), "bad status: {status}");
    let mut line = String::new();
    let mut saw_prom_type = false;
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line.to_ascii_lowercase().contains("text/plain") {
            saw_prom_type = true;
        }
        if line == "\r\n" {
            break;
        }
    }
    assert!(saw_prom_type, "scrape must be text/plain");
    let mut body = String::new();
    for l in reader.lines() {
        body.push_str(&l.unwrap());
        body.push('\n');
    }
    body
}

/// Scrapes the server's /status endpoint and parses the JSON snapshot.
fn scrape_status(addr: &str) -> StatusSnapshot {
    status_over(TcpStream::connect(addr).expect("connect for status"))
}

/// Sends `GET /status` on an already-open connection and parses the JSON
/// body — also usable mid-drain on a connection accepted beforehand.
fn status_over(mut stream: TcpStream) -> StatusSnapshot {
    stream
        .write_all(b"GET /status HTTP/1.1\r\nHost: bnb\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status).unwrap();
    assert!(status.starts_with("HTTP/1.1 200"), "bad status: {status}");
    let mut line = String::new();
    let mut saw_json = false;
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line.to_ascii_lowercase().contains("application/json") {
            saw_json = true;
        }
        if line == "\r\n" {
            break;
        }
    }
    assert!(saw_json, "/status must answer application/json");
    let mut body = String::new();
    reader.read_to_string(&mut body).unwrap();
    serde_json::from_str(&body).unwrap_or_else(|e| panic!("unparsable /status ({e:?}):\n{body}"))
}

/// Pulls `bnb_<name>_total` out of a Prometheus exposition.
fn prom_counter(body: &str, name: &str) -> u64 {
    let needle = format!("bnb_{name} ");
    body.lines()
        .find(|l| l.starts_with(&needle))
        .unwrap_or_else(|| panic!("no family bnb_{name} in:\n{body}"))
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap_or_else(|_| panic!("unparsable value for bnb_{name}"))
}

#[test]
fn concurrent_tenants_route_correctly_with_forced_backpressure() {
    let config = ServeConfig {
        inputs: 16,
        workers: 2,
        queue_capacity: 3,
        // Quota below the loadgen window forces TenantQuota RETRYs.
        tenant_quota: 2,
        max_connections: 16,
        read_timeout: Duration::from_millis(20),
        slow_ms: 0,
        reactor_threads: 1,
        window: 32,
    };
    let (report, load) = serve_scope(config, |addr, _control| {
        run_loadgen(&LoadgenConfig {
            addr: addr.to_string(),
            tenants: 4,
            frames: 40,
            inputs: 16,
            // inflight > tenant_quota drives the admission path into RETRY.
            mode: LoadMode::Closed { inflight: 5 },
            seed: 0x50AC,
            drain_window: Duration::from_secs(2),
            shutdown_when_done: false,
            max_resubmits: 0,
            connections: 0,
            keys: None,
        })
        .expect("loadgen run")
    });

    assert_eq!(load.misdelivered, 0, "no frame may be misrouted: {load:?}");
    assert_eq!(load.errored, 0, "no routing errors expected: {load:?}");
    assert_eq!(load.unanswered, 0, "every frame must be answered: {load:?}");
    assert!(load.served > 0, "some frames must be served: {load:?}");
    assert!(
        load.retried > 0,
        "the bounded queue must push back at least once: {load:?}"
    );
    assert_eq!(
        load.submitted,
        load.served + load.retried,
        "client ledger must balance: {load:?}"
    );

    // Server-side ledger: served + retried + errored + dropped = submitted.
    assert!(report.graceful, "session must end in a graceful drain");
    assert!(
        report.accounted(),
        "server ledger out of balance: {report:?}"
    );
    assert_eq!(report.frames_submitted, load.submitted);
    assert_eq!(report.frames_served, load.served);
    assert_eq!(report.retries_issued, load.retried);
    assert_eq!(report.responses_dropped, 0);
    assert_eq!(report.protocol_errors, 0);
    assert!(report.connections_accepted >= 4);
}

#[test]
fn metrics_endpoint_speaks_prometheus_and_balances_the_ledger() {
    let config = ServeConfig {
        inputs: 8,
        workers: 1,
        queue_capacity: 4,
        tenant_quota: 2,
        max_connections: 8,
        read_timeout: Duration::from_millis(20),
        slow_ms: 0,
        reactor_threads: 1,
        window: 32,
    };
    let (report, (load, metrics)) = serve_scope(config, |addr, _control| {
        let load = run_loadgen(&LoadgenConfig {
            addr: addr.to_string(),
            tenants: 2,
            frames: 20,
            inputs: 8,
            mode: LoadMode::Closed { inflight: 3 },
            seed: 0xFEED,
            drain_window: Duration::from_secs(2),
            shutdown_when_done: false,
            max_resubmits: 0,
            connections: 0,
            keys: None,
        })
        .expect("loadgen run");
        let metrics = scrape_metrics(addr);
        (load, metrics)
    });

    // The exposition parses: every sample line is `name[{labels}] value`.
    for line in metrics.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let name = parts.next().expect("sample name");
        let value = parts.next().expect("sample value");
        assert!(name.starts_with("bnb_"), "unprefixed family: {line}");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparsable sample value: {line}"
        );
    }

    // The scraped counters account for every submitted frame, from the
    // scrape alone.
    let submitted = prom_counter(&metrics, "frames_submitted_total");
    let served = prom_counter(&metrics, "frames_served_total");
    let retried = prom_counter(&metrics, "retries_issued_total");
    let errored = prom_counter(&metrics, "frames_errored_total");
    let dropped = prom_counter(&metrics, "responses_dropped_total");
    assert_eq!(
        submitted,
        served + retried + errored + dropped,
        "scraped ledger must balance:\n{metrics}"
    );
    assert_eq!(submitted, load.submitted);
    assert_eq!(served, load.served);
    assert_eq!(retried, load.retried);
    assert_eq!(errored + dropped, 0, "{metrics}");
    assert!(prom_counter(&metrics, "connections_accepted_total") >= 2);

    assert_eq!(load.misdelivered, 0);
    assert!(
        report.accounted(),
        "server ledger out of balance: {report:?}"
    );
}

#[test]
fn wire_shutdown_drains_the_session_gracefully() {
    let config = ServeConfig {
        inputs: 8,
        workers: 1,
        queue_capacity: 4,
        tenant_quota: 4,
        max_connections: 8,
        read_timeout: Duration::from_millis(20),
        slow_ms: 0,
        reactor_threads: 1,
        window: 32,
    };
    let (report, load) = serve_scope(config, |addr, _control| {
        // shutdown_when_done sends the wire SHUTDOWN opcode; the server
        // must drain and exit without trigger_shutdown ever being called
        // by the test body (serve_scope's trailing trigger is then a
        // no-op on an already-draining session).
        run_loadgen(&LoadgenConfig {
            addr: addr.to_string(),
            tenants: 2,
            frames: 10,
            inputs: 8,
            mode: LoadMode::Closed { inflight: 2 },
            seed: 0xD1E,
            drain_window: Duration::from_secs(2),
            shutdown_when_done: true,
            max_resubmits: 0,
            connections: 0,
            keys: None,
        })
        .expect("loadgen run")
    });
    assert!(report.graceful);
    assert_eq!(load.misdelivered, 0);
    assert_eq!(load.unanswered, 0);
    assert!(report.accounted());
}

#[test]
fn malformed_bytes_get_a_typed_protocol_error_not_a_crash() {
    let config = ServeConfig::default();
    let (report, ()) = serve_scope(config, |addr, _control| {
        // An HTTP-looking-but-not-GET preamble is just garbage to the
        // binary protocol: the length prefix "POST" is over MAX_BODY.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"POST /x HTTP/1.1\r\n\r\n").unwrap();
        stream.flush().unwrap();
        // The server answers with a protocol ERROR frame and closes.
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        match read_reply(&mut stream, &mut FrameAssembler::new()) {
            Ok(Some(Message::Error { code, .. })) => {
                assert_eq!(code, ErrorCode::Protocol);
            }
            other => panic!("expected a protocol ERROR frame, got {other:?}"),
        }
    });
    assert_eq!(report.protocol_errors, 1);
    assert_eq!(report.frames_submitted, 0);
    assert!(report.accounted());
}

#[test]
fn status_endpoint_reconciles_stage_sums_with_wire_latency() {
    let config = ServeConfig {
        inputs: 8,
        workers: 1,
        queue_capacity: 4,
        tenant_quota: 4,
        max_connections: 8,
        read_timeout: Duration::from_millis(20),
        // Threshold so high nothing trips it; the snapshot must still
        // report it faithfully.
        slow_ms: 60_000,
        reactor_threads: 1,
        window: 32,
    };
    let (report, (load, status)) = serve_scope(config, |addr, _control| {
        let load = run_loadgen(&LoadgenConfig {
            addr: addr.to_string(),
            tenants: 2,
            frames: 25,
            inputs: 8,
            mode: LoadMode::Closed { inflight: 2 },
            seed: 0x57A7,
            drain_window: Duration::from_secs(2),
            shutdown_when_done: false,
            max_resubmits: 0,
            connections: 0,
            keys: None,
        })
        .expect("loadgen run");
        let status = scrape_status(addr);
        (load, status)
    });
    assert!(report.accounted());

    assert!(!status.draining, "session was not draining at scrape time");
    assert!(status.fabric.is_none(), "no fault plan attached");
    assert_eq!(status.telemetry.slow_threshold_ns, 60_000 * 1_000_000);
    assert_eq!(status.telemetry.slow_captured, 0);

    // Every served frame was measured wire-to-wire, and every one of the
    // six lifecycle stages saw exactly those frames.
    let t = &status.telemetry;
    assert_eq!(t.wire.count, load.served, "wire window: {t:?}");
    let names: Vec<&str> = t.stages.iter().map(|s| s.stage.as_str()).collect();
    assert_eq!(
        names,
        [
            "decode",
            "admission",
            "queue_wait",
            "route",
            "drain",
            "write"
        ],
        "stages must appear in timeline order"
    );
    for s in &t.stages {
        assert_eq!(s.count, load.served, "stage {} count: {t:?}", s.stage);
        assert!(
            s.sum_ns <= t.wire.sum_ns,
            "stage {} exceeds wire: {t:?}",
            s.stage
        );
    }

    // The acceptance gate: the stage decomposition partitions wire time.
    // Loopback latencies are microseconds, so tolerate generous relative
    // noise plus a fixed per-request slack for scheduler jitter.
    let stage_sum = t.stage_sum_ns();
    let wire_sum = t.wire.sum_ns;
    assert!(
        wire_sum > 0,
        "served frames must accumulate wire time: {t:?}"
    );
    let slack = wire_sum / 2 + 200_000 * t.wire.count;
    assert!(
        stage_sum.abs_diff(wire_sum) <= slack,
        "stage sums must reconcile with wire-to-wire latency: \
         stages={stage_sum}ns wire={wire_sum}ns slack={slack}ns\n{t:?}"
    );

    // Per-tenant windows cover the run's traffic.
    assert_eq!(t.tenants.len(), 2, "{t:?}");
    let window_served: u64 = t.tenants.iter().map(|w| w.count).sum();
    assert_eq!(window_served, load.served, "{t:?}");
    let window_bytes: u64 = t.tenants.iter().map(|w| w.bytes).sum();
    assert_eq!(window_bytes, load.served * 8 * 4, "{t:?}");

    assert_eq!(status.inflight, 0, "drained before the scrape");
}

#[test]
fn operator_surfaces_stay_live_under_traffic_and_during_drain() {
    let config = ServeConfig {
        inputs: 8,
        workers: 1,
        queue_capacity: 4,
        tenant_quota: 4,
        max_connections: 16,
        read_timeout: Duration::from_millis(20),
        slow_ms: 0,
        reactor_threads: 1,
        window: 32,
    };
    let (report, (load, scrapes)) = serve_scope(config, |addr, control| {
        let stop = AtomicBool::new(false);
        let (load, scrapes, drain_status) = thread::scope(|s| {
            // Scraper thread: hammer both endpoints while traffic flows.
            let stop_ref = &stop;
            let scraper = s.spawn(move || {
                let mut n = 0usize;
                while !stop_ref.load(Ordering::Acquire) {
                    let metrics = scrape_metrics(addr);
                    assert!(metrics.contains("bnb_frames_served_total"));
                    let status = scrape_status(addr);
                    assert!(!status.draining, "drain must not start under load");
                    n += 2;
                    thread::sleep(Duration::from_millis(2));
                }
                n
            });
            let _stop = OnDrop(|| stop.store(true, Ordering::Release));
            let load = run_loadgen(&LoadgenConfig {
                addr: addr.to_string(),
                tenants: 3,
                frames: 30,
                inputs: 8,
                mode: LoadMode::Closed { inflight: 2 },
                seed: 0xCAFE,
                drain_window: Duration::from_secs(2),
                shutdown_when_done: false,
                max_resubmits: 0,
                connections: 0,
                keys: None,
            })
            .expect("loadgen run");
            stop.store(true, Ordering::Release);
            let scrapes = scraper.join().expect("scraper thread");

            // During-drain scrape: park a connection so it is accepted
            // (and sitting in the HTTP sniffer) before the drain starts,
            // then ask for /status mid-drain. With one reactor, accepts
            // and lane registrations are first in, first out, so a
            // finished scrape on a fresh connection means the parked one
            // was accepted and adopted.
            let parked = TcpStream::connect(addr).expect("park connection");
            scrape_status(addr);
            control.trigger_shutdown();
            let drain_status = status_over(parked);
            (load, scrapes, drain_status)
        });
        assert!(
            drain_status.draining,
            "a mid-drain scrape must report draining: {drain_status:?}"
        );
        (load, scrapes)
    });
    assert!(scrapes >= 2, "the scraper never completed a pass");
    assert_eq!(load.misdelivered, 0);
    assert_eq!(load.unanswered, 0);
    assert!(report.graceful);
    assert!(report.accounted());
}

/// A connection accepted before a drain that has not sent its request
/// yet is still read once the reactor has finished its turn and entered
/// the final drain (well within the 200 ms wait: its idle wait is 50 ms),
/// and its request is answered.
#[test]
fn a_connection_accepted_before_a_drain_is_answered_during_it() {
    let config = ServeConfig {
        reactor_threads: 1,
        ..ServeConfig::default()
    };
    let (report, drain_status) = serve_scope(config, |addr, control| {
        let parked = TcpStream::connect(addr).expect("park connection");
        scrape_status(addr);
        control.trigger_shutdown();
        thread::sleep(Duration::from_millis(200));
        status_over(parked)
    });
    assert!(
        drain_status.draining,
        "a mid-drain scrape must report draining: {drain_status:?}"
    );
    assert!(report.graceful);
    assert!(report.accounted());
}

#[test]
fn wire_status_opcode_answers_with_the_json_snapshot() {
    let config = ServeConfig::default();
    let (report, ()) = serve_scope(config, |addr, _control| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let ask = bnb::serve::Message::Status {
            tenant: 3,
            request_id: 99,
        };
        stream.write_all(&ask.to_bytes()).unwrap();
        match read_reply(&mut stream, &mut FrameAssembler::new()) {
            Ok(Some(Message::StatusReport {
                tenant,
                request_id,
                json,
            })) => {
                assert_eq!(tenant, 3, "report echoes the asking tenant");
                assert_eq!(request_id, 99, "report echoes the request id");
                let snap: StatusSnapshot = serde_json::from_str(&json)
                    .unwrap_or_else(|e| panic!("unparsable STATUS_REPORT ({e:?}):\n{json}"));
                assert!(!snap.draining);
                assert_eq!(snap.connections, 1, "just this probe connection");
                assert_eq!(snap.telemetry.wire.count, 0, "no frames served yet");
            }
            other => panic!("expected a STATUS_REPORT frame, got {other:?}"),
        }
    });
    // STATUS never enters the frame ledger.
    assert_eq!(report.frames_submitted, 0);
    assert_eq!(report.protocol_errors, 0);
    assert!(report.accounted());
}

#[test]
fn loadgen_resubmits_retried_frames_and_both_ledgers_balance() {
    let config = ServeConfig {
        inputs: 16,
        workers: 2,
        queue_capacity: 3,
        // Quota below the loadgen window forces RETRYs, which the client
        // now answers by resubmitting instead of abandoning.
        tenant_quota: 2,
        max_connections: 16,
        read_timeout: Duration::from_millis(20),
        slow_ms: 0,
        reactor_threads: 1,
        window: 32,
    };
    let (report, load) = serve_scope(config, |addr, _control| {
        run_loadgen(&LoadgenConfig {
            addr: addr.to_string(),
            tenants: 4,
            frames: 30,
            inputs: 16,
            mode: LoadMode::Closed { inflight: 5 },
            seed: 0x5EED,
            drain_window: Duration::from_secs(5),
            shutdown_when_done: false,
            max_resubmits: 16,
            connections: 0,
            keys: None,
        })
        .expect("loadgen run")
    });

    assert!(
        load.resubmitted > 0,
        "backpressure must force at least one resubmission: {load:?}"
    );
    assert_eq!(load.misdelivered, 0, "{load:?}");
    assert_eq!(load.errored, 0, "{load:?}");
    assert_eq!(load.unanswered, 0, "{load:?}");
    // Distinct-frame ledger: resubmissions are not new frames.
    assert_eq!(
        load.submitted,
        load.served + load.retried,
        "client ledger must balance: {load:?}"
    );
    // Retry-to-served latency was measured for frames that needed resends.
    if load.retried < load.resubmitted {
        assert!(
            load.retry_latency.max_ns > 0,
            "some resubmitted frame was served, so retry latency exists: {load:?}"
        );
    }

    // Per-tenant breakdowns sum to the run totals.
    assert_eq!(load.per_tenant.len(), 4, "{load:?}");
    let sum = |f: fn(&TenantLoad) -> u64| load.per_tenant.iter().map(f).sum::<u64>();
    assert_eq!(sum(|t| t.submitted), load.submitted, "{load:?}");
    assert_eq!(sum(|t| t.served), load.served, "{load:?}");
    assert_eq!(sum(|t| t.retried), load.retried, "{load:?}");
    assert_eq!(sum(|t| t.resubmitted), load.resubmitted, "{load:?}");

    // Server ledger: every resubmission was one more wire SUBMIT, and
    // every RETRY answer was either resubmitted or abandoned.
    assert!(report.accounted(), "{report:?}");
    assert_eq!(report.frames_submitted, load.submitted + load.resubmitted);
    assert_eq!(report.frames_served, load.served);
    assert_eq!(report.retries_issued, load.resubmitted + load.retried);
}

#[test]
fn serve_families_come_from_one_ledger_and_latency_counts_each_frame_once() {
    let config = ServeConfig {
        inputs: 16,
        workers: 2,
        queue_capacity: 8,
        // Quota below the loadgen window forces some TenantQuota RETRYs.
        tenant_quota: 3,
        max_connections: 8,
        read_timeout: Duration::from_millis(20),
        slow_ms: 0,
        reactor_threads: 1,
        window: 8,
    };
    let counters = Counters::new();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    let control = ServerControl::new();

    let (report, (load, metrics, status)) = thread::scope(|s| {
        let server_control = Arc::clone(&control);
        let counters_ref = &counters;
        let server = s.spawn(move || {
            Server::new(config, counters_ref)
                .serve(listener, &server_control)
                .expect("serving session")
        });
        let _drain = OnDrop(|| control.trigger_shutdown());
        let load = run_loadgen(&LoadgenConfig {
            addr: addr.clone(),
            tenants: 2,
            frames: 60,
            inputs: 16,
            mode: LoadMode::Closed { inflight: 4 },
            seed: 0x1ED6,
            drain_window: Duration::from_secs(2),
            shutdown_when_done: false,
            max_resubmits: 0,
            connections: 0,
            keys: None,
        })
        .expect("loadgen run");
        let metrics = scrape_metrics(&addr);
        let status = scrape_status(&addr);
        control.trigger_shutdown();
        let report = server.join().expect("server thread");
        (report, (load, metrics, status))
    });

    assert_eq!(load.misdelivered, 0, "{load:?}");
    assert_eq!(load.errored, 0, "{load:?}");
    assert_eq!(load.unanswered, 0, "{load:?}");
    assert!(report.accounted(), "{report:?}");
    assert_eq!(report.responses_dropped, 0, "{report:?}");

    for (family, kind) in [
        ("bnb_connections_accepted_total", "counter"),
        ("bnb_frames_submitted_total", "counter"),
        ("bnb_frames_served_total", "counter"),
        ("bnb_retries_issued_total", "counter"),
        ("bnb_frames_errored_total", "counter"),
        ("bnb_responses_dropped_total", "counter"),
        ("bnb_auth_failures_total", "counter"),
        ("bnb_reactor_wakeups_total", "counter"),
        ("bnb_max_window_depth", "gauge"),
    ] {
        assert!(
            metrics.contains(&format!("\n# TYPE {family} {kind}\n")),
            "missing TYPE line for {family}:\n{metrics}"
        );
    }
    assert_eq!(prom_counter(&metrics, "frames_served_total"), load.served);
    assert_eq!(prom_counter(&metrics, "retries_issued_total"), load.retried);
    let max_depth = prom_counter(&metrics, "max_window_depth");
    assert_eq!(max_depth, status.window.max_depth as u64);
    assert!(max_depth >= 1, "{metrics}");
    assert!(prom_counter(&metrics, "reactor_wakeups_total") > 0);

    // The serve ledger is the one count of served frames: they are not
    // engine jobs, so the pool's batch families and its submit-to-drain
    // histogram stay at 0 while the routing families count the work.
    let snapshot = counters.snapshot();
    assert_eq!(snapshot.batches_submitted, 0, "{snapshot:?}");
    assert_eq!(snapshot.batches_drained, 0, "{snapshot:?}");
    assert_eq!(snapshot.histogram.count(), 0, "{snapshot:?}");
    assert!(snapshot.columns > 0, "{snapshot:?}");
    assert_eq!(prom_counter(&metrics, "batches_drained_total"), 0);
}

/// A SUBMIT that fails to route is answered `ERROR(Route)` under its
/// request id, naming the route error and no engine sequence number (a
/// served frame has none); the valid SUBMIT after it on the same
/// connection is served, and the ledger counts three errored frames.
#[test]
fn served_route_errors_name_the_route_error_without_a_sequence_number() {
    let config = ServeConfig {
        inputs: 8,
        reactor_threads: 1,
        ..ServeConfig::default()
    };
    let submits: [(u64, Vec<u32>); 4] = [
        (1, vec![3, 2, 1, 0]),
        (2, vec![0, 1, 2, 3, 4, 5, 6, 8]),
        (3, vec![0, 1, 2, 3, 4, 5, 6, 6]),
        (4, vec![7, 5, 3, 1, 6, 4, 2, 0]),
    ];
    let (report, replies) = serve_scope(config, |addr, _control| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut wire = Vec::new();
        for (request_id, dests) in &submits {
            Message::Submit {
                tenant: 1,
                request_id: *request_id,
                dests: dests.clone(),
            }
            .encode(&mut wire);
        }
        stream.write_all(&wire).unwrap();
        let mut asm = FrameAssembler::new();
        let mut replies: Vec<Message> = (0..submits.len())
            .map(|_| {
                read_reply(&mut stream, &mut asm)
                    .unwrap()
                    .expect("a reply per SUBMIT")
            })
            .collect();
        replies.sort_by_key(Message::request_id);
        replies
    });
    let ids: Vec<u64> = replies.iter().map(Message::request_id).collect();
    assert_eq!(ids, [1, 2, 3, 4], "{replies:?}");
    for (reply, names) in replies.iter().zip([
        "network has 8 inputs but 4 records were provided",
        "destination 8 does not fit a 8-output network",
        "inputs 6 and 7 both target destination 6: not a permutation",
    ]) {
        let Message::Error {
            tenant: 1,
            code: ErrorCode::Route,
            message,
            ..
        } = reply
        else {
            panic!("expected ERROR(Route) for tenant 1, got {reply:?}");
        };
        assert_eq!(message, names, "the route error's own text");
        assert!(!message.contains("batch"), "{message}");
    }
    let Message::Routed { sources, .. } = &replies[3] else {
        panic!("expected ROUTED, got {:?}", replies[3]);
    };
    for (j, &src) in sources.iter().enumerate() {
        assert_eq!(submits[3].1[src as usize] as usize, j, "misdelivered");
    }
    assert_eq!(report.frames_submitted, 4, "{report:?}");
    assert_eq!(report.frames_errored, 3, "{report:?}");
    assert_eq!(report.frames_served, 1, "{report:?}");
    assert!(report.accounted(), "{report:?}");
}

/// A wrong-width SUBMIT is answered `ERROR(Route)` even while the
/// connection's window is full: it can never route, so a RETRY would
/// only invite the client to resend it. At window 1, one write carries a
/// valid frame (which takes the slot) and then a 4-record one.
#[test]
fn wrong_width_submits_are_route_errors_even_with_a_full_window() {
    let config = ServeConfig {
        inputs: 8,
        reactor_threads: 1,
        window: 1,
        ..ServeConfig::default()
    };
    let valid = vec![7, 5, 3, 1, 6, 4, 2, 0];
    let (report, replies) = serve_scope(config, |addr, _control| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut wire = Vec::new();
        for (request_id, dests) in [(1u64, valid.clone()), (2, vec![3, 2, 1, 0])] {
            Message::Submit {
                tenant: 1,
                request_id,
                dests,
            }
            .encode(&mut wire);
        }
        stream.write_all(&wire).unwrap();
        let mut asm = FrameAssembler::new();
        let mut replies: Vec<Message> = (0..2)
            .map(|_| {
                read_reply(&mut stream, &mut asm)
                    .unwrap()
                    .expect("a reply per SUBMIT")
            })
            .collect();
        replies.sort_by_key(Message::request_id);
        replies
    });
    let Message::Routed { sources, .. } = &replies[0] else {
        panic!("expected ROUTED for the valid frame, got {:?}", replies[0]);
    };
    for (j, &src) in sources.iter().enumerate() {
        assert_eq!(valid[src as usize] as usize, j, "misdelivered");
    }
    let Message::Error {
        request_id: 2,
        code: ErrorCode::Route,
        message,
        ..
    } = &replies[1]
    else {
        panic!("expected ERROR(Route) for the 4-record frame, got {replies:?}");
    };
    assert_eq!(message, "network has 8 inputs but 4 records were provided");
    assert_eq!(report.retries_issued, 0, "{report:?}");
    assert_eq!(report.frames_errored, 1, "{report:?}");
    assert!(report.accounted(), "{report:?}");
}

/// A burst of sequential connects larger than std's 128-entry accept
/// queue waits in the queue that [`server::bind`] sized from
/// `max_connections` (the kernel caps it at `somaxconn`, 4096 by default
/// since Linux 5.4): none loses its SYN to a 1 s retransmit. The burst
/// lands before the session accepts anything, as a burst does that
/// outruns the acceptor.
#[test]
fn a_connect_burst_is_queued_not_retransmitted() {
    let config = ServeConfig {
        max_connections: 256,
        ..ServeConfig::default()
    };
    let counters = Counters::new();
    let listener =
        server::bind("127.0.0.1:0", config.max_connections).expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let started = Instant::now();
    let mut conns: Vec<TcpStream> = (0..160)
        .map(|i| {
            TcpStream::connect_timeout(&addr, Duration::from_secs(2))
                .unwrap_or_else(|e| panic!("connect {i} failed after {:?}: {e}", started.elapsed()))
        })
        .collect();
    let elapsed = started.elapsed();
    let control = ServerControl::new();
    let report = thread::scope(|s| {
        let server = s.spawn(|| {
            Server::new(config, &counters)
                .serve(listener, &control)
                .expect("serving session")
        });
        let _drain = OnDrop(|| control.trigger_shutdown());
        // Accepts are FIFO: once the last connection is answered, every
        // one before it was accepted too. The rest close unused, so the
        // drain need not wait for their requests.
        status_over(conns.pop().expect("160 connections"));
        drop(conns);
        control.trigger_shutdown();
        server.join().expect("server thread")
    });
    assert!(
        elapsed < Duration::from_millis(500),
        "160 connects took {elapsed:?}"
    );
    assert_eq!(report.connections_accepted, 160, "{report:?}");
    assert!(report.accounted());
}

#[test]
fn a_silent_server_ends_in_unanswered_not_a_hang() {
    // A listener that accepts and reads, but never answers.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    let silent = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut buf = [0u8; 4096];
        while matches!(stream.read(&mut buf), Ok(n) if n > 0) {}
    });
    // Detached, so a hang fails the deadline below instead of the suite.
    let (done, result) = mpsc::channel();
    thread::spawn(move || {
        let _ = done.send(run_loadgen(&LoadgenConfig {
            addr,
            tenants: 1,
            frames: 2,
            inputs: 8,
            mode: LoadMode::Closed { inflight: 4 },
            seed: 0x511E,
            drain_window: Duration::from_millis(200),
            shutdown_when_done: false,
            max_resubmits: 0,
            connections: 0,
            keys: None,
        }));
    });
    let load = result
        .recv_timeout(Duration::from_secs(10))
        .expect("the drain window must end the run against a silent server")
        .expect("loadgen run");
    assert_eq!(load.submitted, 2, "{load:?}");
    assert_eq!(load.unanswered, load.submitted, "{load:?}");
    assert_eq!(load.served, 0, "{load:?}");
    silent.join().expect("silent listener");
}

#[test]
fn open_loop_holds_its_aggregate_rate_with_connections_sharing_tenants() {
    let config = ServeConfig {
        inputs: 8,
        workers: 1,
        queue_capacity: 64,
        tenant_quota: 64,
        max_connections: 8,
        read_timeout: Duration::from_millis(20),
        slow_ms: 0,
        reactor_threads: 1,
        window: 32,
    };
    let (report, load) = serve_scope(config, |addr, _control| {
        run_loadgen(&LoadgenConfig {
            addr: addr.to_string(),
            tenants: 2,
            connections: 4,
            frames: 100,
            inputs: 8,
            mode: LoadMode::Open { qps: 2000.0 },
            seed: 0x0BE7,
            drain_window: Duration::from_secs(2),
            shutdown_when_done: false,
            max_resubmits: 0,
            keys: None,
        })
        .expect("loadgen run")
    });
    // 400 frames at 2000 frames/s take 200 ms; pacing each connection at
    // its tenant's share (1000/s) would finish in half that.
    assert!(load.elapsed_ms >= 180, "ran ahead of --qps: {load:?}");
    assert_eq!(load.submitted, 400, "{load:?}");
    assert_eq!(load.misdelivered, 0, "{load:?}");
    assert_eq!(load.unanswered, 0, "{load:?}");
    assert_eq!(
        load.submitted,
        load.served + load.retried + load.errored,
        "client ledger must balance: {load:?}"
    );
    assert!(report.accounted(), "{report:?}");
    assert_eq!(report.frames_submitted, load.submitted);
}

#[test]
fn sweep_reports_each_point_and_drains_the_session_once_after_the_last() {
    let config = ServeConfig {
        inputs: 8,
        workers: 1,
        queue_capacity: 16,
        tenant_quota: 16,
        max_connections: 8,
        read_timeout: Duration::from_millis(20),
        slow_ms: 0,
        reactor_threads: 1,
        window: 32,
    };
    let (report, (sweep, drained)) = serve_scope(config, |addr, control| {
        let sweep = run_sweep(
            &LoadgenConfig {
                addr: addr.to_string(),
                tenants: 2,
                connections: 0,
                frames: 12,
                inputs: 8,
                mode: LoadMode::Closed { inflight: 3 },
                seed: 0x5EE9,
                drain_window: Duration::from_secs(2),
                shutdown_when_done: true,
                max_resubmits: 4,
                keys: None,
            },
            &[1, 3],
        )
        .expect("sweep run");
        // The sweep's wire SHUTDOWN, not serve_scope's trailing trigger,
        // starts the drain.
        let drained = (0..500).any(|_| {
            thread::sleep(Duration::from_millis(2));
            control.shutdown_requested()
        });
        (sweep, drained)
    });
    let counts: Vec<usize> = sweep.points.iter().map(|p| p.connections).collect();
    assert_eq!(counts, [1, 3], "{sweep:?}");
    for p in &sweep.points {
        assert_eq!(p.submitted, p.connections as u64 * 12, "{p:?}");
        assert_eq!(p.misdelivered, 0, "{p:?}");
        assert_eq!(p.unanswered, 0, "{p:?}");
        assert_eq!(p.submitted, p.served + p.retried + p.errored, "{p:?}");
    }
    // Both points ran against one live session: the drain came once,
    // after the last point, so every frame reached the server.
    assert!(drained, "the sweep never sent its SHUTDOWN");
    assert!(report.graceful);
    assert!(report.accounted(), "{report:?}");
    let served: u64 = sweep.points.iter().map(|p| p.served).sum();
    assert_eq!(report.frames_served, served, "{report:?}");
}
