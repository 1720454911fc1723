//! The benchmark's workloads: what each drives, how the server is sized
//! for it, and the seeded inputs it sends.

use std::time::Duration;

use bnb_core::fault::{FaultKind, FaultMap, FaultSite};
use bnb_engine::LiveFaultPlan;
use bnb_serve::protocol::Message;
use bnb_serve::ServeConfig;

/// Client connections per run, one tenant each. With `nproc` = 2 the
/// client is one thread on two sockets, so load never needs more
/// threads or connections than cores.
pub const CONNECTIONS: usize = 2;

/// Engine worker threads the server runs with.
pub const WORKERS: usize = 2;

/// One workload: a closed-loop traffic mix plus the server configuration
/// it runs on.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Network order: frames carry `2^m` records.
    pub m: usize,
    /// Requests each connection keeps in flight, sending the next one as
    /// soon as a reply frees a slot; also the pipelining window the server
    /// enforces.
    pub window: usize,
    /// Why the workload exists, with its load, server sizing and the
    /// kernel path its served route takes. The server attaches `&Counters`
    /// as the engine observer, and an enabled observer makes `route_batch`
    /// route frame by frame through the scalar sweep ("scalar-observed").
    pub why: &'static str,
}

/// Both workloads run on a healthy fabric. A served degraded workload
/// (m=8 under a `LiveFaultPlan` with one shard quarantined) saturated
/// both cores and its run-to-run spread reached the largest bound the
/// benchmark may set, so the live-repair path is timed in-process by the
/// traced run instead (see `layers::engine`).
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "small-pipelined",
        m: 6,
        window: 16,
        why: "m=6, closed 2 conns x 16, server window 16, quota 32, queue 64; kernel scalar-observed. Per-frame costs dominate: reactor, decode, mpsc, Hub locks, telemetry; multi-frame FrameBatch jobs",
    },
    Workload {
        name: "large-pipelined",
        m: 10,
        window: 4,
        why: "m=10 (4 KiB frames), closed 2 conns x 4, server window 4, quota 8, queue 16; kernel scalar-observed. Kernel path and per-byte copies dominate; per-frame dispatch cost is diluted",
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn inputs(&self) -> usize {
        1 << self.m
    }

    /// The server configuration: sized so a healthy run never answers
    /// RETRY, with default reactor count and two engine workers. The
    /// dispatcher hands a reply to its connection before it releases the
    /// frame's tenant and global slots, so a client refilling its window
    /// can arrive while those still count the answered frame; a quota of
    /// twice the window (and a global cap of twice connections × window)
    /// leaves room for that lag.
    pub fn serve_config(&self) -> ServeConfig {
        let tenant_quota = 2 * self.window;
        ServeConfig {
            inputs: self.inputs(),
            workers: WORKERS,
            queue_capacity: CONNECTIONS * tenant_quota,
            tenant_quota,
            max_connections: 64,
            read_timeout: Duration::from_millis(100),
            slow_ms: 0,
            reactor_threads: 0,
            window: self.window,
        }
    }

    /// One line recording everything that determines a run besides the
    /// program under test.
    pub fn describe(&self, seed: u64, seconds: u64) -> String {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        format!(
            "workload {} (seed {seed}, {seconds}s, nproc {nproc}): m={} ({} records), closed loop, {CONNECTIONS} conns x window {}, healthy fabric; server {:?}; why: {}",
            self.name,
            self.m,
            self.inputs(),
            self.window,
            self.serve_config(),
            self.why,
        )
    }
}

/// The fault the per-layer timings inject: a first-splitter dead
/// arbiter, so every switch falls back to the greedy control and every
/// mixed pair lands its 1-bit on the odd output. The output balance
/// check then trips for any permutation with at least one mixed pair —
/// every probe a random permutation makes.
pub fn degraded_faults() -> FaultMap {
    FaultMap::single(FaultSite::new(0, 0, 0), FaultKind::DeadArbiter)
}

/// Two fabric shards, shard 1 carrying [`degraded_faults`].
pub fn degraded_plan(seed: u64) -> LiveFaultPlan {
    let plan = LiveFaultPlan::healthy(2).with_probe_seed(seed);
    for fault in degraded_faults().iter() {
        plan.inject(1, fault.site, fault.kind);
    }
    plan
}

/// The permutations a run sends, generated from the seed, with each
/// SUBMIT pre-encoded once so the client only patches the header.
pub struct Pool {
    /// `perms[p][i]` is input `i`'s destination.
    pub perms: Vec<Vec<u32>>,
    /// `Message::Submit` encodings of `perms`, tenant and request id 0.
    pub submits: Vec<Vec<u8>>,
}

/// Byte range of the tenant id inside an encoded message.
pub const TENANT_AT: std::ops::Range<usize> = 6..8;
/// Byte range of the request id inside an encoded message.
pub const REQUEST_ID_AT: std::ops::Range<usize> = 8..16;

impl Pool {
    /// About 1 MiB of destinations, between 64 and 1024 frames.
    pub fn generate(n: usize, seed: u64) -> Pool {
        let count = ((1usize << 20) / (4 * n)).clamp(64, 1024);
        let mut rng = seed ^ 0x5EED_F00D_B0B5;
        let perms: Vec<Vec<u32>> = (0..count).map(|_| permutation(n, &mut rng)).collect();
        let submits = perms
            .iter()
            .map(|dests| {
                Message::Submit {
                    tenant: 0,
                    request_id: 0,
                    dests: dests.clone(),
                }
                .to_bytes()
            })
            .collect();
        Pool { perms, submits }
    }

    pub fn len(&self) -> usize {
        self.perms.len()
    }
}

/// SplitMix64: a tiny seeded generator, so inputs depend on the seed alone.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform random permutation of `0..n` (Fisher–Yates).
fn permutation(n: usize, rng: &mut u64) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = (splitmix64(rng) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnb_core::fault::FaultyFabric;
    use bnb_core::network::BnbNetwork;
    use bnb_core::RouteError;
    use bnb_topology::record::Record;

    #[test]
    fn same_seed_same_inputs_and_every_frame_is_a_permutation() {
        let a = Pool::generate(64, 7);
        let b = Pool::generate(64, 7);
        assert_eq!(a.perms, b.perms);
        assert_ne!(a.perms, Pool::generate(64, 8).perms);
        for p in &a.perms {
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..64).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn pre_encoded_header_offsets_match_the_protocol() {
        let pool = Pool::generate(16, 1);
        let mut bytes = pool.submits[0].clone();
        bytes[TENANT_AT].copy_from_slice(&9u16.to_be_bytes());
        bytes[REQUEST_ID_AT].copy_from_slice(&77u64.to_be_bytes());
        let msg = bnb_serve::protocol::decode_body(&bytes[4..]).unwrap();
        assert_eq!(
            msg,
            Message::Submit {
                tenant: 9,
                request_id: 77,
                dests: pool.perms[0].clone(),
            }
        );
    }

    #[test]
    fn degraded_fault_is_detected_by_every_random_probe() {
        for w in &WORKLOADS {
            let net = BnbNetwork::builder(w.m).build();
            let mut fabric = FaultyFabric::new(net, degraded_faults());
            for perm in Pool::generate(w.inputs(), 3).perms {
                let lines: Vec<Record> = perm
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| Record::new(d as usize, i as u64))
                    .collect();
                assert!(matches!(
                    fabric.route(&lines),
                    Err(RouteError::HardwareFault { .. })
                ));
            }
        }
    }

    #[test]
    fn healthy_runs_are_sized_to_never_retry() {
        for w in &WORKLOADS {
            let cfg = w.serve_config();
            assert!(cfg.tenant_quota > w.window, "{}", w.name);
            assert!(cfg.queue_capacity >= CONNECTIONS * cfg.tenant_quota);
        }
    }
}
