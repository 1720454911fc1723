//! The BNB self-routing permutation network (Lee & Lu, ICDCS 1991).
//!
//! An `N = 2^m`-input BNB network routes **any** of the `N!` permutations of
//! its inputs to its outputs without path conflicts and without any global
//! routing computation: every switch is set from purely local information by
//! tree arbiters ([`arbiter`]), giving `O(N·log³N)` hardware and `O(log³N)`
//! delay — about one third of the hardware and two thirds of the delay of
//! Batcher's sorting network (paper §5).
//!
//! # Architecture
//!
//! - [`arbiter`] — the up/down tree sweep that computes switch flags from
//!   local XOR information (Definition 6, Fig. 5).
//! - [`splitter`] — the `2^p × 2^p` splitter `sp(p)`: arbiter + switch bank,
//!   splitting the one-bits evenly onto even and odd outputs (Definition 3,
//!   Theorem 3).
//! - [`bsn`] — the bit-sorter network: a generalized baseline network (GBN)
//!   of splitters that sorts a balanced 0/1 vector into `0101…`
//!   (Definition 4, Theorem 1).
//! - [`network`] — the full BNB network: a GBN whose stage-`i` boxes are
//!   `q`-bit-slice nested networks, each routed by its slice-`i` BSN
//!   (Definition 5, Theorem 2).
//! - [`cost`] / [`delay`] — exact component counts and propagation-delay
//!   accounting, both *counted from the constructed structure* and as the
//!   paper's closed forms, eqs. (6)–(9).
//! - [`trace`] / [`render`] — per-stage routing traces and the renderers
//!   that regenerate Figs. 2–4.
//! - [`tracer`] — the [`PathTracer`]: per-cell hop recording and route
//!   reconstruction, verified against the Definition 3 / Theorem 3
//!   locality argument (coverage, linkage, radix parity, delivery).
//! - [`partial`] — destination-completion adapter for partial permutations.
//! - [`diagnose`] — per-splitter conflict detection (the paper's "other
//!   flags can deal with the conflicts" remark, §4).
//! - [`fault`] — hardware fault injection ([`fault::FaultMap`]) and
//!   degraded-mode routing ([`fault::FaultyFabric`]): stuck switches, dead
//!   arbiters, and broken links, detected via the Definition 3 balance
//!   invariant under strict policy.
//! - [`router`] — allocation-free batch routing with reusable buffers,
//!   generic over a `bnb_obs::Observer` (defaulting to the zero-cost
//!   `NoopObserver`) for stage-level metrics.
//! - [`stages`] — the stage-span routing kernel behind the [`RouteSpan`]
//!   options struct: routes any contiguous range of main stages over an
//!   aligned subnetwork slice, enabling split-and-conquer parallel
//!   routing. Spans with no observer, or one that takes stage totals
//!   instead of per-column events (such as `bnb_obs::Counters`), take a
//!   bit-packed word-parallel fast path (`packed`, crate-internal):
//!   destination bits are cached once per span in per-stage `u64`
//!   bit-planes and every arbiter sweep, balance check and exchange runs
//!   as word operations, byte-identical to the scalar sweep
//!   ([`Kernel::Scalar`], the retained oracle, and the path for
//!   observers wanting per-column or per-hop events), with the same
//!   counts.
//! - [`batch`] — frame-batched routing: [`FrameBatch`] holds `B` frames
//!   in structure-of-arrays order and [`route_batch`] routes them through
//!   one kernel invocation over concatenated frame-major bit-planes, so
//!   SWAR word occupancy is independent of `m`.
//! - [`fabric`] — the [`fabric::PermutationNetwork`] trait unifying this
//!   network with every baseline.
//! - [`settings`] — raw switch-setting enumeration and trace replay.
//!
//! # Quickstart
//!
//! ```
//! use bnb_core::network::BnbNetwork;
//! use bnb_topology::perm::Permutation;
//! use bnb_topology::record::{records_for_permutation, all_delivered};
//!
//! let net = BnbNetwork::builder_for(16)?.build();
//! let perm = Permutation::try_from(vec![5, 2, 9, 0, 14, 7, 1, 12, 3, 11, 6, 15, 8, 4, 13, 10])?;
//! let out = net.route(&records_for_permutation(&perm))?;
//! assert!(all_delivered(&out));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod arbiter;
pub mod batch;
pub mod bsn;
pub mod cost;
pub mod delay;
pub mod diagnose;
pub mod error;
pub mod fabric;
pub mod fault;
pub mod network;
mod packed;
pub mod partial;
pub mod render;
pub mod router;
pub mod settings;
pub mod splitter;
pub mod stages;
pub mod trace;
pub mod tracer;

pub use batch::{route_batch, BatchOutcome, FrameBatch};
pub use bsn::BitSorter;
pub use cost::HardwareCost;
pub use delay::PropagationDelay;
pub use error::RouteError;
pub use fabric::PermutationNetwork;
pub use fault::{FaultKind, FaultMap, FaultSite, FaultyFabric, HardwareFault};
pub use network::{BnbNetwork, BnbNetworkBuilder, RoutePolicy, WiringMode};
pub use router::Router;
pub use stages::{Kernel, RouteSpan};
pub use trace::RouteTrace;
pub use tracer::{PathError, PathTracer};
