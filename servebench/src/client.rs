//! The load client: one thread driving every connection through `poll`,
//! keeping a fixed number of requests in flight on each (closed loop) and
//! checking each reply against the permutation it answers.
//!
//! Requests reuse the workload pool's pre-encoded SUBMITs (only the
//! tenant and request id are patched in) and replies are decoded with the
//! server's own `FrameAssembler`, so the client spends as little of the
//! shared CPU as the protocol allows.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use bnb_serve::protocol::{FrameAssembler, Message};

use crate::stats::{verify_routed, Ledger};
use crate::sys::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
use crate::trace::{Span, Tracer, LANE_REQUESTS};
use crate::workload::{Pool, REQUEST_ID_AT, TENANT_AT};

/// A request on the wire, awaiting its reply.
struct Sent {
    perm: usize,
    sent_ns: u64,
}

struct Conn {
    stream: TcpStream,
    tenant: u16,
    next_id: u64,
    next_perm: usize,
    asm: FrameAssembler,
    out: Vec<u8>,
    outstanding: HashMap<u64, Sent>,
}

/// What one measured stretch of load produced.
#[derive(Debug, Default)]
pub struct Slice {
    pub elapsed_ns: u64,
    /// Per verified reply that arrived inside the stretch, nanoseconds
    /// from the send to verification.
    pub latency_ns: Vec<u64>,
    /// Server CPU time used during the stretch, filled in by the caller.
    pub server_cpu_ns: u64,
}

impl Slice {
    /// Verified replies that arrived inside the stretch.
    pub fn served(&self) -> u64 {
        self.latency_ns.len() as u64
    }
}

pub struct Client<'p> {
    pool: &'p Pool,
    /// Requests kept in flight per connection while offering load.
    depth: usize,
    epoch: Instant,
    conns: Vec<Conn>,
    pollfds: Vec<PollFd>,
    read_buf: Vec<u8>,
    /// Whether a reply's freed slot is refilled.
    refill: bool,
    pub ledger: Ledger,
    pub tracer: Tracer,
}

impl<'p> Client<'p> {
    /// Opens `connections` sockets to `addr`, tenant `c + 1` on socket `c`,
    /// each to keep `depth` requests in flight.
    pub fn connect(
        addr: SocketAddr,
        depth: usize,
        pool: &'p Pool,
        connections: usize,
        epoch: Instant,
    ) -> Result<Self, String> {
        let mut conns = Vec::with_capacity(connections);
        for c in 0..connections {
            let stream =
                TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
            stream
                .set_nodelay(true)
                .and_then(|()| stream.set_nonblocking(true))
                .map_err(|e| format!("cannot configure client socket: {e}"))?;
            conns.push(Conn {
                stream,
                tenant: c as u16 + 1,
                next_id: 1,
                next_perm: c * pool.len() / connections,
                asm: FrameAssembler::new(),
                out: Vec::new(),
                outstanding: HashMap::new(),
            });
        }
        Ok(Client {
            pool,
            depth,
            epoch,
            pollfds: Vec::with_capacity(connections),
            conns,
            read_buf: vec![0; 64 * 1024],
            refill: false,
            ledger: Ledger::default(),
            tracer: Tracer::new(epoch),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn outstanding(&self) -> usize {
        self.conns.iter().map(|c| c.outstanding.len()).sum()
    }

    /// Sends one request on every connection and waits until each is
    /// answered and verified: the end of server set-up as a client sees it.
    pub fn first_replies(&mut self, timeout: Duration) -> Result<(), String> {
        let served_before = self.ledger.served;
        for c in 0..self.conns.len() {
            self.send(c);
        }
        if !self.await_replies(timeout)? {
            return Err(format!("no first reply within {timeout:?}"));
        }
        let verified = self.ledger.served - served_before;
        if verified != self.conns.len() as u64 {
            return Err(format!(
                "first replies: {verified} of {} verified ({:?})",
                self.conns.len(),
                self.ledger
            ));
        }
        Ok(())
    }

    /// Offers load for `duration`, recording into `window` when given.
    pub fn run(
        &mut self,
        duration: Duration,
        mut window: Option<&mut Slice>,
    ) -> Result<(), String> {
        let start = self.now_ns();
        let end = start + duration.as_nanos() as u64;
        self.refill = true;
        for c in 0..self.conns.len() {
            while self.conns[c].outstanding.len() < self.depth {
                self.send(c);
            }
        }
        loop {
            let now = self.now_ns();
            if now >= end {
                break;
            }
            self.flush_all()?;
            self.poll_once(Duration::from_nanos(end - now), window.as_deref_mut())?;
        }
        self.flush_all()?;
        if let Some(w) = window {
            w.elapsed_ns += self.now_ns() - start;
        }
        Ok(())
    }

    /// Stops offering load and waits up to `timeout` for every reply;
    /// whatever is still missing counts as unanswered.
    pub fn drain(&mut self, timeout: Duration) -> Result<(), String> {
        self.await_replies(timeout)?;
        for conn in &mut self.conns {
            self.ledger.unanswered += conn.outstanding.len() as u64;
            conn.outstanding.clear();
        }
        Ok(())
    }

    /// Sends nothing more and polls until every request is answered (true)
    /// or `timeout` passes (false).
    fn await_replies(&mut self, timeout: Duration) -> Result<bool, String> {
        self.refill = false;
        let deadline = Instant::now() + timeout;
        while self.outstanding() > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(false);
            }
            self.flush_all()?;
            self.poll_once(left.min(Duration::from_millis(10)), None)?;
        }
        Ok(true)
    }

    /// Closes every connection, handing back the ledger and the spans.
    pub fn close(self) -> (Ledger, Tracer) {
        (self.ledger, self.tracer)
    }

    fn send(&mut self, c: usize) {
        let now = self.now_ns();
        let conn = &mut self.conns[c];
        let perm = conn.next_perm;
        conn.next_perm = (perm + 1) % self.pool.len();
        let id = conn.next_id;
        conn.next_id += 1;
        let at = conn.out.len();
        conn.out.extend_from_slice(&self.pool.submits[perm]);
        conn.out[at + TENANT_AT.start..at + TENANT_AT.end]
            .copy_from_slice(&conn.tenant.to_be_bytes());
        conn.out[at + REQUEST_ID_AT.start..at + REQUEST_ID_AT.end]
            .copy_from_slice(&id.to_be_bytes());
        conn.outstanding.insert(id, Sent { perm, sent_ns: now });
        self.ledger.submitted += 1;
    }

    fn flush_all(&mut self) -> Result<(), String> {
        (0..self.conns.len()).try_for_each(|c| self.flush(c))
    }

    fn flush(&mut self, c: usize) -> Result<(), String> {
        let conn = &mut self.conns[c];
        let mut written = 0;
        while written < conn.out.len() {
            match conn.stream.write(&conn.out[written..]) {
                Ok(0) => return Err(format!("connection {c} closed while writing")),
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write on connection {c}: {e}")),
            }
        }
        conn.out.drain(..written);
        Ok(())
    }

    fn poll_once(
        &mut self,
        timeout: Duration,
        mut window: Option<&mut Slice>,
    ) -> Result<(), String> {
        self.pollfds.clear();
        for conn in &self.conns {
            self.pollfds.push(PollFd {
                fd: conn.stream.as_raw_fd(),
                events: POLLIN | if conn.out.is_empty() { 0 } else { POLLOUT },
                revents: 0,
            });
        }
        sys::poll_fds(&mut self.pollfds, timeout).map_err(|e| format!("poll: {e}"))?;
        for c in 0..self.conns.len() {
            let revents = self.pollfds[c].revents;
            if revents & (POLLIN | POLLERR | POLLHUP) != 0 {
                self.read(c, window.as_deref_mut())?;
            }
            if revents & POLLOUT != 0 || !self.conns[c].out.is_empty() {
                self.flush(c)?;
            }
        }
        Ok(())
    }

    fn read(&mut self, c: usize, mut window: Option<&mut Slice>) -> Result<(), String> {
        loop {
            match self.conns[c].stream.read(&mut self.read_buf) {
                Ok(0) => return Err(format!("server closed connection {c}")),
                Ok(n) => self.conns[c].asm.feed(&self.read_buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read on connection {c}: {e}")),
            }
        }
        loop {
            let decode_start = self.now_ns();
            let frame = self.conns[c]
                .asm
                .next_frame()
                .map_err(|e| format!("undecodable reply on connection {c}: {e}"))?;
            let Some((msg, _)) = frame else {
                return Ok(());
            };
            self.on_reply(c, msg, decode_start, window.as_deref_mut());
        }
    }

    fn on_reply(&mut self, c: usize, msg: Message, decode_start: u64, window: Option<&mut Slice>) {
        let decoded = self.now_ns();
        let conn = &mut self.conns[c];
        let freed = match msg {
            Message::Routed {
                tenant,
                request_id,
                sources,
            } => match conn.outstanding.remove(&request_id) {
                None => {
                    self.ledger.surprises += 1;
                    false
                }
                Some(sent) => {
                    let ok = tenant == conn.tenant
                        && verify_routed(&self.pool.perms[sent.perm], &sources);
                    let verified = self.epoch.elapsed().as_nanos() as u64;
                    if ok {
                        self.ledger.served += 1;
                        if let Some(w) = window {
                            w.latency_ns.push(verified - sent.sent_ns);
                        }
                    } else {
                        self.ledger.misdelivered += 1;
                    }
                    if self.tracer.enabled {
                        let id = ((c as u64 + 1) << 48) | request_id;
                        let span = |name, parent, start: u64, end: u64| Span {
                            name,
                            parent,
                            id,
                            lane: LANE_REQUESTS,
                            start_ns: start,
                            dur_ns: end.saturating_sub(start),
                        };
                        self.tracer
                            .record(span("request", "", sent.sent_ns, verified));
                        self.tracer
                            .record(span("client.decode", "request", decode_start, decoded));
                        self.tracer
                            .record(span("client.verify", "request", decoded, verified));
                    }
                    true
                }
            },
            Message::Retry { request_id, .. } => {
                let known = conn.outstanding.remove(&request_id).is_some();
                if known {
                    self.ledger.retried += 1;
                } else {
                    self.ledger.surprises += 1;
                }
                known
            }
            Message::Error { request_id, .. } => {
                let known = conn.outstanding.remove(&request_id).is_some();
                if known {
                    self.ledger.errored += 1;
                } else {
                    self.ledger.surprises += 1;
                }
                known
            }
            _ => {
                self.ledger.surprises += 1;
                false
            }
        };
        if freed && self.refill && self.conns[c].outstanding.len() < self.depth {
            self.send(c);
        }
    }
}
