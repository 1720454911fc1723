//! Stage-span routing: the reusable kernel behind [`crate::router::Router`]
//! and the concurrent engine.
//!
//! The GBN's main unshuffle after stage `i` partitions traffic into
//! independent subnetworks: every operation at main stages `>= d` stays
//! inside an aligned `2^(m-d)`-line slice. [`RouteSpan::run`] exploits that by
//! routing any contiguous range of main stages over one such slice, so a
//! frame can be routed head-first (`0..d`) and its `2^d` disjoint slices
//! finished (`d..m`) independently, in any order — with byte-identical
//! results to the sequential full-frame route, because BNB routing is
//! oblivious data movement (switch settings depend only on local
//! destination bits).
//!
//! All buffers live in a caller-owned [`StageScratch`], so steady-state
//! routing performs no heap allocation.
//!
//! Two kernels share the entry points. The bit-packed word-parallel
//! kernel (`crate::packed` — destination bit-planes, word-level arbiter
//! sweeps and balance checks, wirings applied as relabelings) routes
//! every span whose observer, if any, declines per-column events
//! ([`Observer::wants_columns`]): the span is the only frame of one call
//! of the kernel [`crate::batch::route_batch`] runs, which counts columns,
//! sweeps and exchanges as it routes and reports one [`StageTotalsEvent`]
//! per main stage. An observer that wants per-column or per-hop events
//! selects the scalar cell-at-a-time sweep, which emits them and doubles
//! as the packed kernel's oracle via [`Kernel::Scalar`]. Both produce
//! byte-identical frames, identical error values, and the same counts.
//! [`RouteSpan`] is the options struct that selects observer, fault map,
//! and kernel; whole frames can also be routed many at a time through
//! [`crate::batch::route_batch`].
//!
//! [`StageTotalsEvent`]: bnb_obs::StageTotalsEvent

use std::ops::Range;

use bnb_obs::{
    ColumnEvent, ConflictEvent, FaultEvent, HopEvent, NoopObserver, Observer, SweepEvent,
};
use bnb_topology::bitops::paper_bit;
use bnb_topology::record::Record;

use crate::error::RouteError;
use crate::fault::FaultMap;
use crate::network::{BnbNetwork, RoutePolicy, WiringMode};
use crate::packed::{route_span_in, Build, Call};
use crate::splitter::{check_balanced, controls_into, unbalanced_output, SplitterSite};

/// Reusable buffers for [`RouteSpan::run`]. One per worker; capacity
/// grows to the largest span routed and then stays put.
#[derive(Debug, Clone, Default)]
pub struct StageScratch {
    pub(crate) lines: Vec<Record>,
    pub(crate) bits: Vec<bool>,
    pub(crate) flags: Vec<bool>,
    pub(crate) up: Vec<bool>,
    /// Control-plane view of a faulted box's bits (the true bits stay in
    /// `bits` so the post-swap audit never re-derives them).
    pub(crate) tapped: Vec<bool>,
    /// Duplicate-destination scratch for [`crate::batch::route_batch`]'s
    /// per-frame validation (the span entry points take caller-owned
    /// `seen`, see [`validate_lines`]).
    pub(crate) seen: Vec<usize>,
    /// The byte map behind that validation's uniqueness check.
    pub(crate) marks: Vec<u8>,
    /// Per-frame staging buffer for the batch API's frame-at-a-time
    /// fallback paths (`lines` is the wiring buffer and cannot double up).
    pub(crate) frame_buf: Vec<Record>,
    /// Word-parallel kernel state (planes, flag words, column schedule).
    pub(crate) packed: crate::packed::PackedScratch,
}

impl StageScratch {
    /// Scratch pre-sized for spans up to `n` lines.
    pub fn with_capacity(n: usize) -> Self {
        StageScratch {
            lines: vec![Record::new(0, 0); n],
            bits: Vec::with_capacity(n),
            flags: Vec::with_capacity(n),
            up: Vec::with_capacity(2 * n),
            tapped: Vec::new(),
            seen: Vec::new(),
            marks: Vec::new(),
            frame_buf: Vec::new(),
            packed: crate::packed::PackedScratch::default(),
        }
    }

    /// Grows the line buffer to hold `n` lines (never shrinks).
    #[inline]
    pub(crate) fn ensure(&mut self, n: usize) {
        if self.lines.len() < n {
            self.lines.resize(n, Record::new(0, 0));
        }
    }
}

/// Validates one frame against the network contract without allocating:
/// width, destination range, payload width, and (under
/// [`RoutePolicy::Strict`]) destination uniqueness. `seen` is caller-owned
/// scratch, resized to the network width on first use.
pub fn validate_lines(
    net: &BnbNetwork,
    lines: &[Record],
    seen: &mut Vec<usize>,
) -> Result<(), RouteError> {
    let n = net.inputs();
    if lines.len() != n {
        return Err(RouteError::WidthMismatch {
            expected: n,
            actual: lines.len(),
        });
    }
    let w = net.w();
    for r in lines {
        if r.dest() >= n {
            return Err(RouteError::DestinationTooWide { dest: r.dest(), n });
        }
        if w < 64 && r.data() >> w != 0 {
            return Err(RouteError::DataTooWide { data: r.data(), w });
        }
    }
    if matches!(net.policy(), RoutePolicy::Strict) {
        seen.clear();
        seen.resize(n, usize::MAX);
        for (i, r) in lines.iter().enumerate() {
            if seen[r.dest()] != usize::MAX {
                return Err(RouteError::DuplicateDestination {
                    dest: r.dest(),
                    first_input: seen[r.dest()],
                    second_input: i,
                });
            }
            seen[r.dest()] = i;
        }
    }
    Ok(())
}

/// Kernel selection for [`RouteSpan`]: which sweep implementation routes
/// the span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum Kernel {
    /// The default dispatch: the scalar sweep for an enabled observer that
    /// wants per-column or per-hop events (the packed kernel cannot
    /// attribute them cheaply), the bit-packed word-parallel kernel for
    /// every other observer and for none.
    #[default]
    Auto,
    /// Force the word-parallel kernel. An attached observer receives
    /// stage totals, conflict and fault events — never per-column or
    /// per-hop events; use [`Kernel::Scalar`] (or `Auto`) when those
    /// matter.
    Packed,
    /// Force the scalar cell-at-a-time sweep — the oracle the packed
    /// equivalence suites and `bitpacked_vs_scalar` benchmark hold the
    /// word-parallel kernel against.
    Scalar,
}

/// Options struct for stage-span routing: observer, fault map, and kernel
/// selection behind one builder, the single entry point for routing a
/// span of main stages over one aligned subnetwork slice.
///
/// ```
/// use bnb_core::network::BnbNetwork;
/// use bnb_core::stages::{RouteSpan, StageScratch, validate_lines};
/// use bnb_topology::perm::Permutation;
/// use bnb_topology::record::records_for_permutation;
///
/// let net = BnbNetwork::builder(3).build();
/// let mut scratch = StageScratch::with_capacity(8);
/// let mut seen = Vec::new();
/// let mut lines = records_for_permutation(&Permutation::identity(8));
/// validate_lines(&net, &lines, &mut seen)?;
/// RouteSpan::new().run(&net, &mut lines, 0, 0..3, &mut scratch)?;
/// # Ok::<(), bnb_core::RouteError>(())
/// ```
///
/// The observer is held as `&dyn Observer`, but the fast paths are
/// unaffected: [`run`](RouteSpan::run) checks
/// [`enabled`](Observer::enabled) and the granularity queries once, and
/// routes a disabled observer — or one that declines per-column events —
/// through the packed kernel exactly as it routes no observer, with the
/// same zero-alloc guarantees; an enabled one receives a handful of
/// per-stage events per call.
#[derive(Clone, Copy, Default)]
pub struct RouteSpan<'a> {
    observer: Option<&'a dyn Observer>,
    faults: Option<&'a FaultMap>,
    kernel: Kernel,
}

impl<'a> RouteSpan<'a> {
    /// Unobserved, fault-free, [`Kernel::Auto`] routing options.
    pub fn new() -> Self {
        RouteSpan::default()
    }

    /// Attaches an observer: one [`SweepEvent`] per splitter box, one
    /// [`ColumnEvent`] per switching column (with the exchange tally), a
    /// [`ConflictEvent`] alongside every
    /// [`RouteError::UnbalancedSplitter`], and — for observers that opt
    /// in via [`Observer::wants_hops`] — one [`HopEvent`] per cell per
    /// column, from which a path tracer reconstructs every route.
    /// An observer that declines per-column events
    /// ([`Observer::wants_columns`]) gets one
    /// [`StageTotalsEvent`](bnb_obs::StageTotalsEvent) per main stage in
    /// their place, and its spans route exactly as unobserved ones do.
    /// The granularity queries are hoisted out of the stage loops.
    pub fn observer(mut self, observer: &'a dyn Observer) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Routes through damaged hardware: applies the [`FaultMap`]'s
    /// control-plane corruption and, under [`RoutePolicy::Strict`],
    /// re-checks every splitter *output* in a faulted column against the
    /// paper's balance invariant (`M_e = M_o`, Definition 3; exactly
    /// `(0, 1)` for `sp(1)`). Any even split keeps the Theorem 1/2
    /// induction intact, so a route that passes every check is correct
    /// and the first corrupting element is reported as
    /// [`RouteError::HardwareFault`] (with a [`FaultEvent`] when
    /// observing) — never a silent misdelivery. Permissive routes skip
    /// detection and conserve the record multiset. An empty map takes
    /// exactly the fault-free code path.
    pub fn faults(mut self, faults: &'a FaultMap) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Selects the routing kernel (default [`Kernel::Auto`]).
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The sweep these options route with, and the fault map in effect:
    /// a disabled observer and an empty fault map count as absent. The one
    /// dispatch [`RouteSpan::run`] and [`crate::batch::route_batch`]
    /// share, so the batched fast path is taken exactly when per-frame
    /// routing would take the packed kernel.
    pub(crate) fn effective(&self) -> (Sweep<'a>, Option<&'a FaultMap>) {
        let observer = self.observer.filter(|o| o.enabled());
        let sweep = match self.kernel {
            Kernel::Scalar => Sweep::Scalar(observer),
            Kernel::Packed => Sweep::Packed(observer),
            Kernel::Auto if observer.is_some_and(needs_scalar_sweep) => Sweep::Scalar(observer),
            Kernel::Auto => Sweep::Packed(observer),
        };
        (sweep, self.faults.filter(|f| !f.is_empty()))
    }

    /// Routes main stages `stages` of `net` over one aligned subnetwork
    /// slice with these options.
    ///
    /// `lines` must be the slice of `2^(m - stages.start)` lines beginning
    /// at global line `first_line` (a multiple of the slice length; pass
    /// `0` with a full frame for the whole network). After main stage `i`
    /// completes, every aligned `2^(m - i - 1)`-line half routes
    /// independently, so a caller may split the slice and continue each
    /// half concurrently.
    ///
    /// No validation is performed here — see [`validate_lines`]. For
    /// whole-frame multi-frame routing use
    /// [`route_batch`](crate::batch::route_batch), which validates.
    ///
    /// # Errors
    ///
    /// [`RouteError::UnbalancedSplitter`] under [`RoutePolicy::Strict`]
    /// when the traffic does not form a permutation (sites in global line
    /// coordinates, identical to the sequential route), plus
    /// [`RouteError::HardwareFault`] when a fault map is attached (see
    /// [`faults`](RouteSpan::faults)).
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the slice length or alignment does not
    /// match `stages.start`, or if `stages.end > m`.
    pub fn run(
        &self,
        net: &BnbNetwork,
        lines: &mut [Record],
        first_line: usize,
        stages: Range<usize>,
        scratch: &mut StageScratch,
    ) -> Result<(), RouteError> {
        self.run_in(Build::detect(), net, lines, first_line, stages, scratch)
    }

    /// [`RouteSpan::run`] with the word-parallel kernel in `build`: a
    /// caller already inside one build's copy of a route passes its own.
    pub(crate) fn run_in(
        &self,
        build: Build,
        net: &BnbNetwork,
        lines: &mut [Record],
        first_line: usize,
        stages: Range<usize>,
        scratch: &mut StageScratch,
    ) -> Result<(), RouteError> {
        let (sweep, faults) = self.effective();
        match sweep {
            Sweep::Packed(tally) => {
                let call = Call {
                    net,
                    stages,
                    first_line,
                    faults,
                    tally,
                };
                route_span_in(build, &call, lines, scratch)
            }
            // No observer folds onto the static noop path, keeping it
            // monomorphic (no virtual dispatch in the sweep loops).
            Sweep::Scalar(None) => route_span_scalar_inner(
                net,
                lines,
                first_line,
                stages,
                scratch,
                &NoopObserver,
                faults,
            ),
            Sweep::Scalar(Some(o)) => {
                route_span_scalar_inner(net, lines, first_line, stages, scratch, &o, faults)
            }
        }
    }
}

/// Which kernel routes a span, with the enabled observer (if any) it
/// reports to: stage totals from the packed kernel, per-column events
/// from the scalar sweep.
pub(crate) enum Sweep<'a> {
    /// The word-parallel kernel.
    Packed(Option<&'a dyn Observer>),
    /// The scalar cell-at-a-time sweep.
    Scalar(Option<&'a dyn Observer>),
}

/// The routing rule for observers: an enabled observer that wants
/// per-column or per-hop events needs the scalar sweep; every other
/// observer routes exactly as no observer does, on the packed kernel.
pub(crate) fn needs_scalar_sweep<O: Observer + ?Sized>(observer: &O) -> bool {
    observer.enabled() && (observer.wants_columns() || observer.wants_hops())
}

impl std::fmt::Debug for RouteSpan<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteSpan")
            .field("observer", &self.observer.map(|o| o.enabled()))
            .field("faults", &self.faults)
            .field("kernel", &self.kernel)
            .finish()
    }
}

/// Routes a span for a statically typed observer, by the same rule as
/// [`RouteSpan::run`] under [`Kernel::Auto`] (see [`needs_scalar_sweep`]);
/// the scalar path stays monomorphic in `O`.
pub(crate) fn route_span_inner<O: Observer + ?Sized>(
    net: &BnbNetwork,
    lines: &mut [Record],
    first_line: usize,
    stages: Range<usize>,
    scratch: &mut StageScratch,
    observer: &O,
    faults: Option<&FaultMap>,
) -> Result<(), RouteError> {
    if needs_scalar_sweep(observer) {
        return route_span_scalar_inner(net, lines, first_line, stages, scratch, observer, faults);
    }
    let call = Call {
        net,
        stages,
        first_line,
        faults: faults.filter(|f| !f.is_empty()),
        tally: observer.enabled().then_some(&observer as &dyn Observer),
    };
    route_span_in(Build::detect(), &call, lines, scratch)
}

pub(crate) fn route_span_scalar_inner<O: Observer + ?Sized>(
    net: &BnbNetwork,
    lines: &mut [Record],
    first_line: usize,
    stages: Range<usize>,
    scratch: &mut StageScratch,
    observer: &O,
    faults: Option<&FaultMap>,
) -> Result<(), RouteError> {
    let observing = observer.enabled();
    let tracing = observing && observer.wants_hops();
    let m = net.m();
    let span = lines.len();
    debug_assert!(stages.end <= m, "stage range {stages:?} exceeds m = {m}");
    debug_assert_eq!(
        span,
        1usize << (m - stages.start),
        "slice length must match the starting stage"
    );
    debug_assert_eq!(first_line % span, 0, "slice must be aligned");
    let span_log = span.trailing_zeros() as usize;
    let strict = matches!(net.policy(), RoutePolicy::Strict);
    scratch.ensure(span);
    for main_stage in stages {
        let k = m - main_stage;
        for internal in 0..k {
            let box_size = 1usize << (k - internal);
            let mut exchanges = 0u64;
            let column_faults = faults.filter(|f| f.affects(main_stage, internal));
            for start in (0..span).step_by(box_size) {
                scratch.bits.clear();
                scratch.bits.extend(
                    lines[start..start + box_size]
                        .iter()
                        .map(|r| paper_bit(m, r.dest(), main_stage)),
                );
                if strict {
                    if let Err(err) = check_balanced(
                        &scratch.bits,
                        SplitterSite {
                            main_stage,
                            internal_stage: internal,
                            first_line: first_line + start,
                        },
                    ) {
                        if observing {
                            report_route_error(observer, &err);
                        }
                        return Err(err);
                    }
                }
                // Broken-link taps corrupt only the control plane's view,
                // so they land in a copy: `bits` keeps the true bits the
                // post-swap audit below needs.
                let ctl_bits: &[bool] = if let Some(map) = column_faults {
                    scratch.tapped.clear();
                    scratch.tapped.extend_from_slice(&scratch.bits);
                    map.tap_bits(
                        main_stage,
                        internal,
                        first_line + start,
                        &mut scratch.tapped,
                    );
                    &scratch.tapped
                } else {
                    &scratch.bits
                };
                controls_into(ctl_bits, &mut scratch.up, &mut scratch.flags);
                if let Some(map) = column_faults {
                    map.override_flags(
                        main_stage,
                        internal,
                        first_line + start,
                        ctl_bits,
                        &mut scratch.flags,
                    );
                }
                if tracing {
                    // Hops are captured *before* the swap so `port` is the
                    // line each cell occupied entering the column, with the
                    // setting (post fault-override) actually applied to it.
                    let site = first_line + start;
                    for (t, &c) in scratch.flags.iter().enumerate() {
                        for off in 0..2 {
                            let idx = start + 2 * t + off;
                            observer.cell_hop(HopEvent {
                                dest: lines[idx].dest(),
                                main_stage,
                                internal_stage: internal,
                                first_line: site,
                                port: first_line + idx,
                                exchanged: c,
                                sweep: site / box_size,
                            });
                        }
                    }
                }
                exchanges += apply_box_flags(&scratch.flags, &mut lines[start..start + box_size]);
                if observing {
                    observer.arbiter_sweep(SweepEvent {
                        main_stage,
                        internal_stage: internal,
                        first_line: first_line + start,
                        width: box_size,
                        depth: k - internal,
                    });
                }
                // Fault detection: a healthy splitter on a checked input
                // always splits evenly (Theorem 3), so an unbalanced
                // *output* in a faulted column pins the corruption to this
                // box; any balanced output is a valid split and the route
                // stays correct. The output bits are determined by the
                // already-extracted input bits and the flags (switch `t`
                // emits its pair swapped iff flagged), so nothing is
                // re-derived from the records.
                if strict && column_faults.is_some() {
                    if let Some((even_ones, odd_ones)) =
                        unbalanced_output(&scratch.bits, &scratch.flags)
                    {
                        let err = RouteError::HardwareFault {
                            main_stage,
                            internal_stage: internal,
                            first_line: first_line + start,
                            width: box_size,
                            even_ones,
                            odd_ones,
                        };
                        if observing {
                            report_route_error(observer, &err);
                        }
                        return Err(err);
                    }
                }
            }
            if observing {
                observer.column_routed(ColumnEvent {
                    main_stage,
                    internal_stage: internal,
                    first_line,
                    width: span,
                    exchanges,
                });
            }
            // Wiring into the scratch buffer, then copy back (the swap is
            // logical: scratch is reused every column).
            let last_internal = internal + 1 == k;
            if !last_internal {
                let box_log = box_size.trailing_zeros() as usize;
                #[allow(clippy::needless_range_loop)] // index j is the wiring domain
                for j in 0..span {
                    let base = j & !(box_size - 1);
                    let local = j & (box_size - 1);
                    let dst = base
                        | match net.wiring() {
                            WiringMode::Unshuffle => {
                                bnb_topology::bitops::unshuffle(box_log, box_log, local)
                            }
                            WiringMode::Identity => local,
                            WiringMode::Shuffle => {
                                bnb_topology::bitops::shuffle(box_log, box_log, local)
                            }
                        };
                    scratch.lines[dst] = lines[j];
                }
                lines.copy_from_slice(&scratch.lines[..span]);
            } else if main_stage + 1 < m {
                // The main unshuffle rotates only the low k index bits, and
                // k <= span_log for every stage in range, so the aligned
                // slice is closed under it: the global wiring restricted to
                // this slice is exactly the local one.
                #[allow(clippy::needless_range_loop)] // index j is the wiring domain
                for j in 0..span {
                    let dst = match net.wiring() {
                        WiringMode::Unshuffle => bnb_topology::bitops::unshuffle(k, span_log, j),
                        WiringMode::Identity => j,
                        WiringMode::Shuffle => bnb_topology::bitops::shuffle(k, span_log, j),
                    };
                    scratch.lines[dst] = lines[j];
                }
                lines.copy_from_slice(&scratch.lines[..span]);
            }
        }
    }
    Ok(())
}

/// Emits the event that accompanies a splitter error: a [`ConflictEvent`]
/// for [`RouteError::UnbalancedSplitter`], a [`FaultEvent`] for
/// [`RouteError::HardwareFault`]. Both kernels report through here, so
/// their event values cannot drift apart.
pub(crate) fn report_route_error<O: Observer + ?Sized>(observer: &O, err: &RouteError) {
    match *err {
        RouteError::UnbalancedSplitter {
            main_stage,
            internal_stage,
            first_line,
            width,
            ones,
        } => observer.splitter_conflict(ConflictEvent {
            main_stage,
            internal_stage,
            first_line,
            width,
            ones,
        }),
        RouteError::HardwareFault {
            main_stage,
            internal_stage,
            first_line,
            width,
            even_ones,
            odd_ones,
        } => observer.hardware_fault(FaultEvent {
            main_stage,
            internal_stage,
            first_line,
            width,
            even_ones,
            odd_ones,
        }),
        _ => {}
    }
}

/// Applies one box's exchange flags to its window of lines and returns
/// the exchange count: switch `t` swaps lines `2t` and `2t + 1`.
fn apply_box_flags(flags: &[bool], window: &mut [Record]) -> u64 {
    let mut exchanges = 0;
    for (t, _) in flags.iter().enumerate().filter(|&(_, &c)| c) {
        window.swap(2 * t, 2 * t + 1);
        exchanges += 1;
    }
    exchanges
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnb_topology::perm::Permutation;
    use bnb_topology::record::records_for_permutation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Routing head stages then each aligned slice independently must be
    /// byte-identical to the sequential full route, for every split depth.
    #[test]
    fn split_routing_matches_sequential_at_every_depth() {
        let mut rng = StdRng::seed_from_u64(7);
        for m in 1usize..=8 {
            let n = 1usize << m;
            let net = BnbNetwork::new(m);
            let mut scratch = StageScratch::with_capacity(n);
            for _ in 0..10 {
                let records = records_for_permutation(&Permutation::random(n, &mut rng));
                let expected = net.route(&records).unwrap();
                for depth in 0..=m {
                    let mut lines = records.clone();
                    RouteSpan::new()
                        .run(&net, &mut lines, 0, 0..depth, &mut scratch)
                        .unwrap();
                    let sub = n >> depth;
                    for (slice_idx, chunk) in lines.chunks_mut(sub).enumerate() {
                        RouteSpan::new()
                            .run(&net, chunk, slice_idx * sub, depth..m, &mut scratch)
                            .unwrap();
                    }
                    assert_eq!(lines, expected, "m = {m}, depth = {depth}");
                }
            }
        }
    }

    /// The same holds under Permissive policy for arbitrary (garbage)
    /// destination patterns: routing is oblivious data movement.
    #[test]
    fn split_routing_matches_sequential_for_garbage_traffic() {
        use crate::network::RoutePolicy;
        use bnb_topology::record::Record;
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(8);
        for m in [2usize, 4, 6] {
            let n = 1usize << m;
            let net = BnbNetwork::builder(m)
                .policy(RoutePolicy::Permissive)
                .build();
            let mut scratch = StageScratch::with_capacity(n);
            for _ in 0..10 {
                let records: Vec<Record> = (0..n)
                    .map(|i| Record::new(rng.random_range(0..n), i as u64))
                    .collect();
                let expected = net.route(&records).unwrap();
                for depth in [0, 1, m / 2, m] {
                    let mut lines = records.clone();
                    RouteSpan::new()
                        .run(&net, &mut lines, 0, 0..depth, &mut scratch)
                        .unwrap();
                    let sub = n >> depth;
                    for (slice_idx, chunk) in lines.chunks_mut(sub).enumerate() {
                        RouteSpan::new()
                            .run(&net, chunk, slice_idx * sub, depth..m, &mut scratch)
                            .unwrap();
                    }
                    assert_eq!(lines, expected, "m = {m}, depth = {depth}");
                }
            }
        }
    }

    /// Strict-policy splitter errors report sites in *global* line
    /// coordinates even when raised from a non-initial slice.
    #[test]
    fn split_routing_reports_global_splitter_sites() {
        use bnb_topology::record::Record;
        let net = BnbNetwork::new(3);
        let mut scratch = StageScratch::with_capacity(8);
        // An all-zero destination slice sails through the 4-wide box (zero
        // ones is even) and unbalances the first elementary splitter; route
        // it as the second depth-1 slice (lines 4..8).
        let mut slice: Vec<_> = (0..4).map(|i| Record::new(0, i as u64)).collect();
        let err = RouteSpan::new()
            .run(&net, &mut slice, 4, 1..3, &mut scratch)
            .unwrap_err();
        match err {
            RouteError::UnbalancedSplitter {
                main_stage,
                internal_stage,
                first_line,
                ..
            } => {
                assert_eq!(main_stage, 1);
                assert_eq!(internal_stage, 1);
                assert_eq!(first_line, 4, "site must be globally addressed");
            }
            other => panic!("expected unbalanced splitter, got {other:?}"),
        }
    }

    /// `validate_lines` agrees with the allocating route's error contract.
    #[test]
    fn validate_lines_matches_route_contract() {
        use bnb_topology::record::Record;
        let net = BnbNetwork::new(2);
        let mut seen = Vec::new();
        let ok: Vec<_> = [2usize, 0, 3, 1]
            .iter()
            .enumerate()
            .map(|(i, &d)| Record::new(d, i as u64))
            .collect();
        assert!(validate_lines(&net, &ok, &mut seen).is_ok());
        assert!(matches!(
            validate_lines(&net, &ok[..2], &mut seen),
            Err(RouteError::WidthMismatch { .. })
        ));
        let dup: Vec<_> = [1usize, 1, 2, 3]
            .iter()
            .enumerate()
            .map(|(i, &d)| Record::new(d, i as u64))
            .collect();
        assert!(matches!(
            validate_lines(&net, &dup, &mut seen),
            Err(RouteError::DuplicateDestination { dest: 1, .. })
        ));
    }
}
