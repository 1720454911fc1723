//! Cycle-level simulation substrate for the BNB fabric.
//!
//! The paper motivates permutation networks as bandwidth providers for
//! switching systems and parallel processors (§1, refs \[1, 2\]). This
//! crate turns the combinational router of `bnb-core` into a *system*:
//!
//! - [`workload`] — the classic parallel-processing permutation workloads
//!   (matrix transpose, bit reversal, perfect shuffle, Lawrie's strided
//!   vector access) plus random and partial traffic generators.
//! - [`pipeline`] — a registered-stage timing model: one batch of `N`
//!   records per cycle enters the fabric, each switch column is one
//!   pipeline stage, so latency is `m(m+1)/2` cycles and steady-state
//!   throughput is one permutation per cycle.
//! - [`scheduler`] — an input-queued switch around the fabric: FIFO and
//!   virtual-output-queue disciplines decompose arbitrary (bursty,
//!   many-to-one) traffic into permutation rounds, quantifying HOL
//!   blocking and scheduling efficiency against the congestion bound.
//! - [`faults`] — assumption-violation injection (duplicate destinations,
//!   out-of-range addresses) and classification of how the network reacts
//!   under strict vs permissive policies; plus hardware-fault campaigns
//!   (stuck switches, dead arbiters, broken links via
//!   `bnb_core::fault::FaultyFabric`) and a degraded-throughput sweep.
//! - [`chaos`] — randomized, seeded fault schedules (inject, flap, clear)
//!   replayed against the live-repair engine under traffic, asserting
//!   zero silent misdeliveries, balanced ledgers, and capacity recovery.
//!
//! All of these drain frames through `bnb-core`'s stage-span entry
//! points, so unobserved simulation runs (no `_observed` variant, or a
//! `NoopObserver`) and runs observed by `Counters` automatically route on
//! the bit-packed word-parallel kernel; attaching an observer that wants
//! per-column or per-hop events switches to the scalar sweep that can
//! narrate them.

pub mod chaos;
pub mod faults;
pub mod hotspot;
pub mod loadsweep;
pub mod pipeline;
pub mod scheduler;
pub mod workload;

pub use chaos::{chaos_engine_campaign, ChaosAction, ChaosOp, ChaosReport, ChaosSchedule};
pub use pipeline::{PipelineStats, PipelinedFabric};
pub use scheduler::{QueueDiscipline, ScheduleStats, VoqSwitch};
pub use workload::Workload;
