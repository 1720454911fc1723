//! # bnb — the BNB self-routing permutation network
//!
//! A full reproduction of *"BNB Self-Routing Permutation Network"*
//! (Sungchang Lee and Mi Lu, ICDCS 1991): an `N = 2^m`-input multistage
//! switching network that routes **any** of the `N!` permutations of its
//! inputs without path conflicts and without a global routing computation,
//! in `O(N·log³N)` hardware and `O(log³N)` delay — about one third of the
//! hardware and two thirds of the delay of Batcher's sorting network.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! - [`topology`] — permutations, unshuffle wiring, generalized baseline
//!   networks (the substrate everything is built on).
//! - [`core`] — splitters, arbiters, bit-sorter networks, the BNB network
//!   itself, and the paper's cost/delay accounting.
//! - [`gates`] — a gate-level netlist simulator with builders for every
//!   hardware component in the paper (Figs. 4–5), used to cross-validate
//!   the behavioural simulator.
//! - [`baselines`] — Batcher odd–even and bitonic sorters, Benes with
//!   Waksman's looping algorithm, the Koppelman–Oruç SRPN model, crossbar
//!   and omega networks.
//! - [`analysis`] — the paper's Tables 1–2 and the 1/3-hardware /
//!   2/3-delay ratio analysis.
//! - [`sim`] — cycle-level pipelined fabric simulation, classic
//!   parallel-processing workloads, and fault injection.
//! - [`engine`] — a concurrent batched routing engine: bounded submit/
//!   drain queue and a scoped worker pool, each worker routing the jobs
//!   it owns through the word-parallel batched kernel.
//! - [`obs`] — zero-cost-when-disabled observability: the [`obs::Observer`]
//!   event hooks every routing layer emits through, lock-free
//!   [`obs::Counters`], latency histograms, the bounded
//!   [`obs::FlightRecorder`] span ring, and exporters for text, JSON,
//!   Prometheus exposition format, and Chrome trace-event JSON. Per-cell
//!   path tracing ([`core::tracer::PathTracer`]) rides the same hooks.
//! - [`serve`] — a long-lived routing service over `std::net`: a
//!   length-prefixed binary protocol ([`serve::protocol`]), a threaded
//!   server with per-tenant admission control, bounded-queue
//!   backpressure (explicit `RETRY`, never unbounded buffering), graceful
//!   drain, and a Prometheus `/metrics` endpoint
//!   ([`serve::server::Server`]), plus an open/closed-loop load generator
//!   ([`serve::loadgen`]) that verifies every routed permutation.
//!
//! # Quickstart
//!
//! ```
//! use bnb::core::network::BnbNetwork;
//! use bnb::topology::perm::Permutation;
//! use bnb::topology::record::{records_for_permutation, all_delivered};
//!
//! // A 16-input network; every record self-routes to its destination.
//! let net = BnbNetwork::builder_for(16)?.build();
//! let perm = Permutation::try_from(
//!     vec![3, 14, 0, 9, 7, 12, 1, 15, 5, 10, 2, 13, 4, 11, 6, 8],
//! )?;
//! let outputs = net.route(&records_for_permutation(&perm))?;
//! assert!(all_delivered(&outputs));
//!
//! // The paper's complexity model, measured on the constructed network:
//! let cost = net.cost();
//! println!("hardware: {cost}");
//! println!("delay:    {}", net.delay());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use bnb_analysis as analysis;
pub use bnb_baselines as baselines;
pub use bnb_core as core;
pub use bnb_engine as engine;
pub use bnb_gates as gates;
pub use bnb_obs as obs;
pub use bnb_serve as serve;
pub use bnb_sim as sim;
pub use bnb_topology as topology;
