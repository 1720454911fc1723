//! End-to-end chaos campaign: randomized fault schedules (inject, flap,
//! clear) replayed against the live-repair engine and against a real
//! `Server` over loopback TCP, under permutation traffic throughout.
//!
//! The contract asserted for every schedule is Theorem 3's guarantee
//! lifted to the repaired system: **zero silent misdeliveries** (every
//! delivered frame is verified against the healthy route), **balanced
//! ledgers** (every submitted frame drains exactly once, as a delivery or
//! an explicit quarantine/error), and **capacity recovery** (after the
//! last transient clears, the scrubber restores every fabric shard).
//! Every schedule is generated from its seed alone, so a failure names
//! the exact seed that reproduces it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bnb::core::{FaultKind, FaultSite};
use bnb::engine::LiveFaultPlan;
use bnb::obs::Counters;
use bnb::serve::loadgen::{run_loadgen, LoadMode, LoadgenConfig};
use bnb::serve::server::{ServeConfig, Server, ServerControl, StatusSnapshot};
use bnb::serve::{FrameAssembler, Message};
use bnb::sim::chaos::{chaos_engine_campaign, ChaosAction, ChaosSchedule};

/// Runs its closure on drop, also while a failed assertion unwinds: the
/// tests use it to stop the server (and any traffic driver) so that
/// `thread::scope` can join and the failure is reported instead of hanging.
struct OnDrop<F: FnMut()>(F);

impl<F: FnMut()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)()
    }
}

#[test]
fn hundred_randomized_schedules_hold_the_contract_through_the_engine() {
    let counters = Counters::new();
    let mut failed = Vec::new();
    let mut injected = 0usize;
    let mut quarantined_frames = 0usize;
    for seed in 0..100u64 {
        let schedule = ChaosSchedule::generate(3, 2, 30, 6, seed);
        let report = chaos_engine_campaign(&schedule, 2, &counters);
        assert_eq!(report.seed, seed);
        injected += report.faults_injected;
        quarantined_frames += report.frames_quarantined;
        if !report.holds() {
            failed.push(report);
        }
    }
    assert!(
        failed.is_empty(),
        "chaos contract violated; reproduce via ChaosSchedule::generate(3, 2, 30, 6, seed) \
         for these reports: {failed:?}"
    );
    assert!(injected > 0, "100 schedules never injected a fault");
    assert!(
        quarantined_frames > 0,
        "no schedule ever exhausted retries — the campaign never stressed the repair path"
    );
    // The scrubber actually worked across the campaign: it probed,
    // quarantined damage, and restored capacity.
    let snap = counters.snapshot();
    assert!(snap.scrub_probes > 0, "{snap:?}");
    assert!(snap.shards_quarantined > 0, "{snap:?}");
    assert!(snap.shards_restored > 0, "{snap:?}");
    // Every errored drain was an explicit quarantine — never a
    // validation failure, never a silent anything.
    assert_eq!(
        snap.batch_errors as usize, quarantined_frames,
        "batch errors must all be quarantines: {snap:?}"
    );
}

#[test]
fn chaos_schedules_replay_identically() {
    // The reproducibility promise the failure messages rely on: the same
    // seed yields the same schedule AND the same campaign outcome.
    let a = ChaosSchedule::generate(3, 2, 25, 5, 77);
    let b = ChaosSchedule::generate(3, 2, 25, 5, 77);
    assert_eq!(a, b);
    let ra = chaos_engine_campaign(&a, 1, &bnb::obs::NoopObserver);
    let rb = chaos_engine_campaign(&b, 1, &bnb::obs::NoopObserver);
    // Scrubber/traffic interleaving makes exact frame counts timing
    // dependent; the schedule, the fault totals, and the contract itself
    // are what must replay.
    assert_eq!(
        (
            ra.faults_injected,
            ra.faults_cleared,
            ra.frames_misdelivered
        ),
        (
            rb.faults_injected,
            rb.faults_cleared,
            rb.frames_misdelivered
        ),
        "same seed must replay the same faults: {ra:?} vs {rb:?}"
    );
    assert!(ra.holds() && rb.holds(), "{ra:?} vs {rb:?}");
}

#[test]
fn chaos_through_a_live_server_keeps_the_wire_ledger_balanced() {
    // The serve-side campaign: a chaos driver damages and heals fabric
    // shards through the same LiveFaultPlan the server routes with, while
    // the real loadgen client verifies every ROUTED response over TCP.
    let inputs = 16usize;
    let m = inputs.trailing_zeros() as usize;
    for seed in 0..8u64 {
        let schedule = ChaosSchedule::generate(m, 2, 16, 16, seed);
        let config = ServeConfig {
            inputs,
            workers: 2,
            ..ServeConfig::default()
        };
        let plan = LiveFaultPlan::healthy(2)
            .with_probe_seed(seed)
            .with_scrub_interval(Duration::from_micros(50));
        let counters = Counters::new();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().unwrap().to_string();
        let control = ServerControl::new();
        let stop = AtomicBool::new(false);

        let (serve_report, load_report) = thread::scope(|s| {
            let server_control = Arc::clone(&control);
            let counters_ref = &counters;
            let plan_ref = &plan;
            let server = s.spawn(move || {
                Server::new(config, counters_ref)
                    .with_fault_plan(plan_ref)
                    .serve(listener, &server_control)
                    .expect("serving session")
            });
            let schedule_ref = &schedule;
            let stop_ref = &stop;
            let driver = s.spawn(move || {
                for op in &schedule_ref.ops {
                    if stop_ref.load(Ordering::Acquire) {
                        break;
                    }
                    match op.action {
                        ChaosAction::Inject { shard, site, kind } => {
                            plan_ref.inject(shard, site, kind)
                        }
                        ChaosAction::Clear { shard } => plan_ref.clear(shard),
                    }
                    thread::sleep(Duration::from_millis(1));
                }
                for shard in 0..2 {
                    plan_ref.clear(shard);
                }
            });
            let _stop = OnDrop(|| {
                stop.store(true, Ordering::Release);
                control.trigger_shutdown();
            });

            let load_report = run_loadgen(&LoadgenConfig {
                addr: addr.clone(),
                tenants: 2,
                frames: 40,
                inputs,
                mode: LoadMode::Closed { inflight: 2 },
                seed: seed ^ 0xB1B0,
                drain_window: Duration::from_millis(4000),
                shutdown_when_done: false,
                max_resubmits: 0,
                connections: 0,
                keys: None,
            })
            .expect("loadgen run");

            stop.store(true, Ordering::Release);
            driver.join().expect("chaos driver");
            // Give the still-running scrubber a bounded window to release
            // the last quarantines before the graceful drain kills it.
            let mut spins = 0usize;
            while plan.healthy_shards() < 2 && spins < 20_000 {
                thread::sleep(Duration::from_micros(100));
                spins += 1;
            }
            control.trigger_shutdown();
            (server.join().expect("server thread"), load_report)
        });

        assert!(
            serve_report.accounted(),
            "seed {seed}: serve ledger out of balance: {serve_report:?}"
        );
        assert_eq!(
            load_report.misdelivered, 0,
            "seed {seed}: SILENT MISDELIVERY over the wire: {load_report:?}"
        );
        assert_eq!(
            load_report.protocol_surprises, 0,
            "seed {seed}: malformed responses: {load_report:?}"
        );
        assert!(
            load_report.served > 0,
            "seed {seed}: chaos starved the service entirely: {load_report:?}"
        );
        // Every frame the client sent came back as exactly one of
        // served / retried / errored / unanswered-at-drain.
        assert_eq!(
            load_report.submitted,
            load_report.served + load_report.retried + load_report.errored + load_report.unanswered,
            "seed {seed}: loadgen ledger out of balance: {load_report:?}"
        );
        // The final clears released every quarantine by session end.
        assert_eq!(
            plan.healthy_shards(),
            2,
            "seed {seed}: capacity not restored after the schedule cleared"
        );
    }
}

/// Scrapes the server's /status endpoint and parses the JSON snapshot.
fn scrape_status(addr: &str) -> StatusSnapshot {
    let mut stream = TcpStream::connect(addr).expect("connect for status");
    stream
        .write_all(b"GET /status HTTP/1.1\r\nHost: bnb\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status).unwrap();
    assert!(status.starts_with("HTTP/1.1 200"), "bad status: {status}");
    let mut line = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line == "\r\n" {
            break;
        }
    }
    let mut body = String::new();
    reader.read_to_string(&mut body).unwrap();
    serde_json::from_str(&body).unwrap_or_else(|e| panic!("unparsable /status ({e:?}):\n{body}"))
}

/// Polls /status until `pred` holds or the deadline passes.
fn wait_for_status(addr: &str, deadline: Duration, pred: impl Fn(&StatusSnapshot) -> bool) -> bool {
    let until = Instant::now() + deadline;
    loop {
        if pred(&scrape_status(addr)) {
            return true;
        }
        if Instant::now() > until {
            return false;
        }
        thread::sleep(Duration::from_millis(5));
    }
}

/// A seeded permutation of `0..n` (xorshift Fisher–Yates), so successive
/// frames exercise the faulted switch from many control settings.
fn shuffled(n: usize, seed: u64) -> Vec<u32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut dests: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        dests.swap(i, j);
    }
    dests
}

#[test]
fn status_reflects_shard_quarantine_and_restore() {
    // The operator-surface half of the chaos story: inject a persistent
    // control fault while traffic flows, watch /status walk the shard
    // through quarantine, clear the fault, and watch /status report the
    // scrubber restoring full capacity.
    //
    // One reactor, so the traffic connection always lands on lane 0, and
    // the cycle runs on shard 0 and then on shard 1: traffic meets both
    // shards only because the landing rotates with every batch, so any
    // fixed landing fails one of the two cycles.
    let inputs = 16usize;
    let config = ServeConfig {
        inputs,
        workers: 2,
        reactor_threads: 1,
        ..ServeConfig::default()
    };
    let plan = LiveFaultPlan::healthy(2)
        .with_probe_seed(0xFAB)
        .with_scrub_interval(Duration::from_micros(50))
        .with_restore_after(1);
    let counters = Counters::new();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    let control = ServerControl::new();
    let stop = AtomicBool::new(false);

    let report = thread::scope(|s| {
        let server_control = Arc::clone(&control);
        let counters_ref = &counters;
        let plan_ref = &plan;
        let server = s.spawn(move || {
            Server::new(config, counters_ref)
                .with_fault_plan(plan_ref)
                .serve(listener, &server_control)
                .expect("serving session")
        });

        // Closed-loop traffic driver. Detection is traffic's job: the
        // engine demotes the shard only when a frame actually trips the
        // fault's balance check, exactly like real hardware.
        let stop_ref = &stop;
        let driver_addr = addr.clone();
        let driver = s.spawn(move || {
            let mut stream = TcpStream::connect(&driver_addr).expect("driver connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .unwrap();
            let mut asm = FrameAssembler::new();
            let mut req = 0u64;
            while !stop_ref.load(Ordering::Acquire) {
                req += 1;
                let msg = Message::Submit {
                    tenant: 0,
                    request_id: req,
                    dests: shuffled(inputs, req),
                };
                if stream.write_all(&msg.to_bytes()).is_err() {
                    break;
                }
                // One reply per SUBMIT, read the way the load client
                // reads: `read_from` until `next_frame` yields. A hang-up,
                // timeout or malformed reply ends the driver.
                let answered = loop {
                    match asm.next_frame() {
                        Ok(Some(_)) => break true,
                        Ok(None) => {}
                        Err(_) => break false,
                    }
                    if !matches!(asm.read_from(&mut stream), Ok(n) if n > 0) {
                        break false;
                    }
                };
                if !answered {
                    break;
                }
            }
        });
        let _stop = OnDrop(|| {
            stop.store(true, Ordering::Release);
            control.trigger_shutdown();
        });

        for shard in 0..2 {
            plan.inject(shard, FaultSite::new(0, 0, 0), FaultKind::StuckExchange);

            let quarantined = wait_for_status(&addr, Duration::from_secs(10), |st| {
                st.fabric.as_ref().is_some_and(|f| {
                    f.degraded
                        && f.shards.iter().any(|sh| {
                            sh.shard == shard && sh.health == "quarantined" && !sh.faults.is_empty()
                        })
                })
            });
            assert!(
                quarantined,
                "/status never reflected the quarantine of shard {shard}: {:?}",
                plan.status()
            );

            // The transient passes; one clean probe streak later the shard
            // is back and the operator surface says so.
            plan.clear(shard);
            let restored = wait_for_status(&addr, Duration::from_secs(10), |st| {
                st.fabric.as_ref().is_some_and(|f| {
                    !f.degraded
                        && f.healthy == 2
                        && f.shards
                            .iter()
                            .all(|sh| sh.health == "healthy" && sh.faults.is_empty())
                })
            });
            assert!(
                restored,
                "/status never reflected the restore of shard {shard}: {:?}",
                plan.status()
            );
        }

        stop.store(true, Ordering::Release);
        driver.join().expect("traffic driver");
        control.trigger_shutdown();
        server.join().expect("server thread")
    });
    assert!(report.accounted(), "{report:?}");
    assert!(report.frames_served > 0, "{report:?}");
}
