//! Pipelined wire semantics of the epoll-reactor server: many SUBMITs
//! in flight on one connection, responses in any order but every id
//! answered exactly once; window exhaustion answers RETRY instead of
//! deadlocking; a mid-pipeline SHUTDOWN drains every in-flight id
//! before the FIN; HTTP sniffing survives byte-at-a-time writes on the
//! nonblocking sockets; and tenant authentication accepts good tags and
//! refuses bad ones.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bnb::obs::Counters;
use bnb::serve::loadgen::{run_loadgen, LoadMode, LoadgenConfig};
use bnb::serve::protocol::{FrameAssembler, Message, RetryReason};
use bnb::serve::server::{ServeConfig, ServeReport, Server, ServerControl, StatusSnapshot};
use bnb::serve::{ErrorCode, TenantKeys};
use proptest::prelude::*;

fn base_config() -> ServeConfig {
    ServeConfig {
        inputs: 16,
        workers: 2,
        queue_capacity: 8,
        tenant_quota: 8,
        max_connections: 32,
        read_timeout: Duration::from_millis(20),
        slow_ms: 0,
        reactor_threads: 1,
        window: 8,
    }
}

/// Runs its closure on drop, also while a failed assertion unwinds: the
/// tests use it to stop the server (and any traffic driver) so that
/// `thread::scope` can join and the failure is reported instead of hanging.
struct OnDrop<F: FnMut()>(F);

impl<F: FnMut()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)()
    }
}

/// Runs `body` against a live server (optionally keyed), then triggers a
/// graceful drain and returns (session report, body result).
fn serve_scope<R: Send>(
    config: ServeConfig,
    keys: Option<TenantKeys>,
    body: impl FnOnce(&str, &Arc<ServerControl>) -> R + Send,
) -> (ServeReport, R) {
    let counters = Counters::new();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    let control = ServerControl::new();

    thread::scope(|s| {
        let server_control = Arc::clone(&control);
        let counters_ref = &counters;
        let server = s.spawn(move || {
            let mut server = Server::new(config, counters_ref);
            if let Some(keys) = keys {
                server = server.with_tenant_keys(keys);
            }
            server
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

/// The rotation permutation: input `i` goes to output `(i + k) % n`.
fn rotated_dests(n: usize, k: usize) -> Vec<u32> {
    (0..n).map(|i| ((i + k) % n) as u32).collect()
}

/// Checks a ROUTED response against the rotation that was submitted:
/// output `j` must have received input `(j - k) mod n`.
fn verify_rotation(n: usize, k: usize, sources: &[u32]) -> bool {
    sources.len() == n
        && sources
            .iter()
            .enumerate()
            .all(|(j, &src)| src as usize == (j + n - k % n) % n)
}

/// Reads the next reply the way the load client does: `read_from` into
/// `asm` until `next_frame` yields. `Ok(None)` when the server hung up;
/// a read timeout is its `io::Error`, and a malformed reply panics.
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

/// Whether a read failed only because its timeout fired.
fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads responses until `want` distinct request ids are answered or the
/// deadline passes; panics on a duplicate answer. Returns id → message.
fn collect_answers(
    stream: &mut TcpStream,
    asm: &mut FrameAssembler,
    want: usize,
) -> HashMap<u64, Message> {
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut answers: HashMap<u64, Message> = HashMap::new();
    while answers.len() < want {
        assert!(
            Instant::now() < deadline,
            "deadlock: {}/{want} answers after 20s: {answers:?}",
            answers.len()
        );
        match read_reply(stream, asm) {
            Ok(Some(msg)) => {
                let id = msg.request_id();
                let prev = answers.insert(id, msg);
                assert!(prev.is_none(), "request id {id} answered twice");
            }
            Ok(None) => panic!("server hung up with {}/{want} answered", answers.len()),
            Err(e) if timed_out(&e) => {}
            Err(e) => panic!("transport error mid-pipeline: {e:?}"),
        }
    }
    answers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any number of frames blasted down one connection without reading
    /// comes back with every request id answered exactly once — ROUTED
    /// responses correct, refusals explicit — regardless of response
    /// order.
    #[test]
    fn pipelined_ids_are_answered_exactly_once(frames in 1usize..24) {
        let n = 16usize;
        let (report, ()) = serve_scope(base_config(), None, |addr, _| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            for id in 0..frames {
                let submit = Message::Submit {
                    tenant: 1,
                    request_id: id as u64,
                    dests: rotated_dests(n, id % n),
                };
                stream.write_all(&submit.to_bytes()).expect("submit");
            }
            let answers = collect_answers(&mut stream, &mut FrameAssembler::new(), frames);
            for (id, msg) in &answers {
                match msg {
                    Message::Routed { sources, .. } => {
                        assert!(
                            verify_rotation(n, *id as usize % n, sources),
                            "misdelivered frame {id}"
                        );
                    }
                    Message::Retry { .. } => {}
                    other => panic!("unexpected answer {other:?}"),
                }
            }
            let ids: Vec<u64> = (0..frames as u64).collect();
            let mut got: Vec<u64> = answers.keys().copied().collect();
            got.sort_unstable();
            assert_eq!(got, ids);
        });
        let out = report; // the ledger must balance even under pipelining
        prop_assert!(out.accounted(), "unbalanced ledger: {out:?}");
        prop_assert_eq!(out.frames_submitted, frames as u64);
    }
}

#[test]
fn window_exhaustion_answers_retry_not_deadlock() {
    let n = 16usize;
    let frames = 32usize;
    let mut config = base_config();
    // A one-frame window with ample quota/queue: refusals can only be
    // WindowFull.
    config.window = 1;
    config.tenant_quota = 64;
    config.queue_capacity = 64;
    let (report, (served, window_retries)) = serve_scope(config, None, |addr, _| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        // One burst write: the reactor decodes the whole run in a single
        // readable sweep, so everything past the first admit hits the
        // exhausted window before any completion can free it.
        let mut burst = Vec::new();
        for id in 0..frames {
            burst.extend_from_slice(
                &Message::Submit {
                    tenant: 1,
                    request_id: id as u64,
                    dests: rotated_dests(n, id % n),
                }
                .to_bytes(),
            );
        }
        stream.write_all(&burst).expect("burst");
        let answers = collect_answers(&mut stream, &mut FrameAssembler::new(), frames);
        let mut served = 0u64;
        let mut window_retries = 0u64;
        for (id, msg) in &answers {
            match msg {
                Message::Routed { sources, .. } => {
                    assert!(
                        verify_rotation(n, *id as usize % n, sources),
                        "misdelivered frame {id}"
                    );
                    served += 1;
                }
                Message::Retry { reason, .. } => {
                    assert_eq!(*reason, RetryReason::WindowFull, "frame {id}");
                    window_retries += 1;
                }
                other => panic!("unexpected answer {other:?}"),
            }
        }
        (served, window_retries)
    });
    assert!(served >= 1, "at least the first frame is admitted");
    assert!(
        window_retries >= 1,
        "a 32-frame burst into a 1-frame window must refuse something"
    );
    assert_eq!(served + window_retries, frames as u64);
    assert!(report.accounted(), "unbalanced ledger: {report:?}");
    assert_eq!(report.retries_issued, window_retries);
}

/// A closed-loop client that keeps a full window in flight — one new
/// SUBMIT per reply — against a server whose window, tenant quota and
/// queue capacity all equal that window is never refused: the server
/// frees a frame's admission slots before its reply can reach the client,
/// so a refill never finds them still held.
#[test]
fn refilling_on_every_reply_never_meets_a_held_slot() {
    let n = 16usize;
    let window = 4usize;
    let frames = 4000usize;
    let mut config = base_config();
    config.window = window;
    config.tenant_quota = window;
    config.queue_capacity = window;
    let (report, retries) = serve_scope(config, None, |addr, _| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let submit = |stream: &mut TcpStream, id: usize| {
            let submit = Message::Submit {
                tenant: 1,
                request_id: id as u64,
                dests: rotated_dests(n, id % n),
            };
            stream.write_all(&submit.to_bytes()).expect("submit");
        };
        for id in 0..window {
            submit(&mut stream, id);
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut asm = FrameAssembler::new();
        let mut retries = 0u64;
        for (answered, next) in (window..frames + window).enumerate() {
            let reply = loop {
                match read_reply(&mut stream, &mut asm) {
                    Ok(Some(msg)) => break msg,
                    Ok(None) => panic!("server hung up after {answered} replies"),
                    Err(e) if timed_out(&e) => {
                        assert!(
                            Instant::now() < deadline,
                            "stalled after {answered} replies"
                        )
                    }
                    Err(e) => panic!("transport error after {answered} replies: {e:?}"),
                }
            };
            match reply {
                Message::Routed {
                    request_id,
                    sources,
                    ..
                } => assert!(
                    verify_rotation(n, request_id as usize % n, &sources),
                    "misdelivered frame {request_id}"
                ),
                Message::Retry { .. } => retries += 1,
                other => panic!("unexpected reply {other:?}"),
            }
            if next < frames {
                submit(&mut stream, next);
            }
        }
        retries
    });
    assert_eq!(retries, 0, "a refill met a slot its reply had not freed");
    assert!(report.accounted(), "unbalanced ledger: {report:?}");
    assert_eq!(report.frames_submitted, frames as u64);
    assert_eq!(report.frames_served, frames as u64);
    assert_eq!(report.retries_issued, 0);
}

#[test]
fn midstream_shutdown_drains_every_inflight_id_before_fin() {
    let n = 16usize;
    let frames = 8usize;
    let (report, ()) = serve_scope(base_config(), None, |addr, _| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        let mut burst = Vec::new();
        for id in 0..frames {
            burst.extend_from_slice(
                &Message::Submit {
                    tenant: 2,
                    request_id: id as u64,
                    dests: rotated_dests(n, id % n),
                }
                .to_bytes(),
            );
        }
        burst.extend_from_slice(
            &Message::Shutdown {
                tenant: 2,
                request_id: 99,
            }
            .to_bytes(),
        );
        stream.write_all(&burst).expect("burst + shutdown");
        // Every in-flight id must be answered (ROUTED or an explicit
        // refusal) before the server closes the connection.
        let mut asm = FrameAssembler::new();
        let answers = collect_answers(&mut stream, &mut asm, frames);
        for (id, msg) in &answers {
            assert!(
                matches!(
                    msg,
                    Message::Routed { .. } | Message::Retry { .. } | Message::Error { .. }
                ),
                "frame {id} got {msg:?}"
            );
        }
        // After the drain: FIN, not silence.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        loop {
            match read_reply(&mut stream, &mut asm) {
                Ok(Some(msg)) => panic!("unexpected post-drain message {msg:?}"),
                Ok(None) => break,
                Err(e) if timed_out(&e) => {}
                Err(e) => panic!("post-drain transport error {e:?}"),
            }
        }
    });
    assert!(report.graceful, "wire SHUTDOWN must drain gracefully");
    assert!(report.accounted(), "unbalanced ledger: {report:?}");
    assert_eq!(report.frames_submitted, frames as u64);
}

#[test]
fn http_sniff_survives_byte_at_a_time_writes() {
    let (report, body) = serve_scope(base_config(), None, |addr, _| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        // Drip the request one byte at a time: the nonblocking reactor
        // sees many partial reads and must keep accumulating until the
        // blank line, not just answer on the first segment.
        let request = b"GET /status HTTP/1.1\r\nHost: bnb\r\nConnection: close\r\n\r\n";
        for &byte in request.iter() {
            stream.write_all(&[byte]).expect("drip write");
            thread::sleep(Duration::from_millis(1));
        }
        let mut response = String::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .read_to_string(&mut response)
            .expect("read HTTP response");
        response
    });
    assert!(body.starts_with("HTTP/1.1 200"), "bad response: {body}");
    let json_at = body.find("\r\n\r\n").expect("header/body split") + 4;
    let status: StatusSnapshot = serde_json::from_str(&body[json_at..])
        .unwrap_or_else(|e| panic!("unparsable /status body ({e:?}):\n{body}"));
    assert_eq!(status.reactors, 1, "status reports the reactor count");
    assert_eq!(status.window.limit, 8, "status reports the window limit");
    assert!(report.accounted());
}

#[test]
fn keyed_server_accepts_good_tags_and_refuses_everything_else() {
    let n = 16usize;
    let keys = TenantKeys::parse("1:alpha\n2:beta\n").expect("key file");
    let client_keys = keys.clone();
    let (report, ()) = serve_scope(base_config(), Some(keys), move |addr, _| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        let dests = rotated_dests(n, 3);

        let tag = client_keys.tag(1, 10, &dests).expect("tenant 1 has a key");
        for submit in [
            // 1) Correct tag: served.
            Message::SubmitTagged {
                tenant: 1,
                request_id: 10,
                tag,
                dests: dests.clone(),
            },
            // 2) Wrong tag: refused.
            Message::SubmitTagged {
                tenant: 1,
                request_id: 11,
                tag: tag ^ 1,
                dests: dests.clone(),
            },
            // 3) Untagged SUBMIT on a keyed server: refused.
            Message::Submit {
                tenant: 2,
                request_id: 12,
                dests: dests.clone(),
            },
            // 4) Unknown tenant: refused no matter the tag.
            Message::SubmitTagged {
                tenant: 9,
                request_id: 13,
                tag: 0xDEAD_BEEF,
                dests: dests.clone(),
            },
        ] {
            stream.write_all(&submit.to_bytes()).unwrap();
        }

        let answers = collect_answers(&mut stream, &mut FrameAssembler::new(), 4);
        match &answers[&10] {
            Message::Routed { sources, .. } => {
                assert!(verify_rotation(n, 3, sources), "misdelivered tagged frame")
            }
            other => panic!("good tag must route, got {other:?}"),
        }
        for id in [11u64, 12, 13] {
            match &answers[&id] {
                Message::Error { code, .. } => {
                    assert_eq!(*code, ErrorCode::Auth, "request {id}")
                }
                other => panic!("request {id} must fail auth, got {other:?}"),
            }
        }
    });
    assert_eq!(report.frames_submitted, 4);
    assert_eq!(report.frames_served, 1);
    assert_eq!(report.auth_failures, 3);
    assert_eq!(report.frames_errored, 3);
    assert!(report.accounted(), "unbalanced ledger: {report:?}");
}

#[test]
fn keyed_loadgen_round_trips_through_a_keyed_server() {
    let keys = TenantKeys::parse("0:k0\n1:k1\n2:k2\n3:k3\n").expect("key file");
    let (report, load) = serve_scope(base_config(), Some(keys.clone()), move |addr, _| {
        run_loadgen(&LoadgenConfig {
            addr: addr.to_string(),
            tenants: 4,
            connections: 0,
            frames: 20,
            inputs: 16,
            mode: LoadMode::Closed { inflight: 4 },
            seed: 0x7A66,
            drain_window: Duration::from_secs(2),
            shutdown_when_done: false,
            max_resubmits: 4,
            keys: Some(keys),
        })
        .expect("keyed loadgen run")
    });
    assert_eq!(load.errored, 0, "tagged frames must pass auth: {load:?}");
    assert_eq!(load.misdelivered, 0);
    assert_eq!(load.unanswered, 0);
    assert!(load.served > 0);
    assert_eq!(report.auth_failures, 0);
    assert!(report.accounted(), "unbalanced ledger: {report:?}");
}

#[test]
fn single_reactor_thread_serves_many_pipelined_connections() {
    let mut config = base_config();
    config.reactor_threads = 1;
    config.queue_capacity = 16;
    config.tenant_quota = 16;
    let (report, load) = serve_scope(config, None, |addr, _| {
        run_loadgen(&LoadgenConfig {
            addr: addr.to_string(),
            tenants: 2,
            connections: 8,
            frames: 16,
            inputs: 16,
            mode: LoadMode::Closed { inflight: 4 },
            seed: 0x1EAD,
            drain_window: Duration::from_secs(2),
            shutdown_when_done: false,
            max_resubmits: 8,
            keys: None,
        })
        .expect("loadgen run")
    });
    assert_eq!(load.connections, 8);
    assert_eq!(load.misdelivered, 0, "single-lane misdelivery: {load:?}");
    assert_eq!(load.unanswered, 0, "single-lane starvation: {load:?}");
    assert!(load.served > 0);
    assert!(report.accounted(), "unbalanced ledger: {report:?}");
}
