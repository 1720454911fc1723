//! Whole-frame routing: the per-frame entry point behind
//! [`crate::router::Router`], [`crate::fault::FaultyFabric`],
//! [`crate::network::BnbNetwork::route_observed`] and the engine's fault
//! retries.
//!
//! [`RouteSpan::run`] routes one whole `N = 2^m`-line frame through all
//! `m` main stages, in place. All buffers live in a caller-owned
//! [`StageScratch`], so steady-state routing performs no heap allocation.
//!
//! Two kernels share the entry point. The bit-packed word-parallel
//! kernel (`crate::packed` — destination bit-planes, word-level arbiter
//! sweeps and balance checks, wirings applied as relabelings) routes
//! every frame whose observer, if any, declines per-column events
//! ([`Observer::wants_columns`]): the frame is the only frame of one call
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

use bnb_obs::{
    ColumnEvent, ConflictEvent, FaultEvent, HopEvent, NoopObserver, Observer, SweepEvent,
};
use bnb_topology::bitops::paper_bit;
use bnb_topology::record::Record;

use crate::error::RouteError;
use crate::fault::FaultMap;
use crate::network::{BnbNetwork, RoutePolicy};
use crate::packed::{route_span_in, Build, Call};
use crate::splitter::{check_balanced, controls_into, unbalanced_output, SplitterSite};

/// Reusable buffers for [`RouteSpan::run`]. One per worker; capacity
/// grows to the largest frame routed and then stays put.
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
    /// per-frame validation ([`RouteSpan::run`] does not validate; its
    /// callers pass their own `seen` to [`validate_lines`]).
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
    /// Scratch pre-sized for frames up to `n` lines.
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
/// the frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum Kernel {
    /// The default dispatch: the scalar sweep for an enabled observer that
    /// wants per-column or per-hop events (the packed kernel cannot
    /// attribute them cheaply), the bit-packed word-parallel kernel for
    /// every other observer and for none.
    #[default]
    Auto,
    /// Force the scalar cell-at-a-time sweep — the oracle the packed
    /// equivalence suites and `bitpacked_vs_scalar` benchmark hold the
    /// word-parallel kernel against.
    Scalar,
}

/// Options struct for whole-frame routing: observer, fault map, and
/// kernel selection behind one builder, the single entry point for
/// routing one frame.
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
/// RouteSpan::new().run(&net, &mut lines, &mut scratch)?;
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
    /// their place, and its frames route exactly as unobserved ones do.
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
    /// routing would take the packed kernel. An enabled observer that
    /// wants per-column or per-hop events needs the scalar sweep; every
    /// other observer routes exactly as no observer does.
    pub(crate) fn effective(&self) -> (Sweep<'a>, Option<&'a FaultMap>) {
        let observer = self.observer.filter(|o| o.enabled());
        let per_column = observer.is_some_and(|o| o.wants_columns() || o.wants_hops());
        let sweep = match self.kernel {
            Kernel::Auto if !per_column => Sweep::Packed(observer),
            Kernel::Auto | Kernel::Scalar => Sweep::Scalar(observer),
        };
        (sweep, self.faults.filter(|f| !f.is_empty()))
    }

    /// Routes one whole frame of `net` through all `m` main stages, in
    /// place, with these options: on success `lines[j]` is the record
    /// delivered to output `j`.
    ///
    /// No validation is performed here — see [`validate_lines`]. For
    /// multi-frame routing use [`route_batch`](crate::batch::route_batch),
    /// which validates.
    ///
    /// # Errors
    ///
    /// [`RouteError::UnbalancedSplitter`] under [`RoutePolicy::Strict`]
    /// when the traffic does not form a permutation, plus
    /// [`RouteError::HardwareFault`] when a fault map is attached (see
    /// [`faults`](RouteSpan::faults)).
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `lines` is not one frame of
    /// `net.inputs()` lines.
    pub fn run(
        &self,
        net: &BnbNetwork,
        lines: &mut [Record],
        scratch: &mut StageScratch,
    ) -> Result<(), RouteError> {
        self.run_in(Build::detect(), net, lines, scratch)
    }

    /// [`RouteSpan::run`] with the word-parallel kernel in `build`: a
    /// caller already inside one build's copy of a route passes its own.
    pub(crate) fn run_in(
        &self,
        build: Build,
        net: &BnbNetwork,
        lines: &mut [Record],
        scratch: &mut StageScratch,
    ) -> Result<(), RouteError> {
        debug_assert_eq!(lines.len(), net.inputs(), "one whole frame");
        let (sweep, faults) = self.effective();
        match sweep {
            Sweep::Packed(tally) => {
                let call = Call { net, faults, tally };
                route_span_in(build, &call, lines, scratch)
            }
            // No observer folds onto the static noop path, keeping it
            // monomorphic (no virtual dispatch in the sweep loops).
            Sweep::Scalar(None) => {
                route_span_scalar_inner(net, lines, scratch, &NoopObserver, faults)
            }
            Sweep::Scalar(Some(o)) => route_span_scalar_inner(net, lines, scratch, o, faults),
        }
    }
}

/// Which kernel routes a frame, with the enabled observer (if any) it
/// reports to: stage totals from the packed kernel, per-column events
/// from the scalar sweep.
pub(crate) enum Sweep<'a> {
    /// The word-parallel kernel.
    Packed(Option<&'a dyn Observer>),
    /// The scalar cell-at-a-time sweep.
    Scalar(Option<&'a dyn Observer>),
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

/// The scalar cell-at-a-time sweep over one whole frame: the oracle the
/// packed kernel is held against, and the kernel for observers that want
/// per-column or per-hop events.
fn route_span_scalar_inner<O: Observer + ?Sized>(
    net: &BnbNetwork,
    lines: &mut [Record],
    scratch: &mut StageScratch,
    observer: &O,
    faults: Option<&FaultMap>,
) -> Result<(), RouteError> {
    let observing = observer.enabled();
    let tracing = observing && observer.wants_hops();
    let m = net.m();
    let n = lines.len();
    let strict = matches!(net.policy(), RoutePolicy::Strict);
    scratch.ensure(n);
    for main_stage in 0..m {
        let k = m - main_stage;
        for internal in 0..k {
            let box_size = 1usize << (k - internal);
            let mut exchanges = 0u64;
            let column_faults = faults.filter(|f| f.affects(main_stage, internal));
            for start in (0..n).step_by(box_size) {
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
                            first_line: start,
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
                    map.tap_bits(main_stage, internal, start, &mut scratch.tapped);
                    &scratch.tapped
                } else {
                    &scratch.bits
                };
                controls_into(ctl_bits, &mut scratch.up, &mut scratch.flags);
                if let Some(map) = column_faults {
                    map.override_flags(main_stage, internal, start, ctl_bits, &mut scratch.flags);
                }
                if tracing {
                    // Hops are captured *before* the swap so `port` is the
                    // line each cell occupied entering the column, with the
                    // setting (post fault-override) actually applied to it.
                    for (t, &c) in scratch.flags.iter().enumerate() {
                        for off in 0..2 {
                            let port = start + 2 * t + off;
                            observer.cell_hop(HopEvent {
                                dest: lines[port].dest(),
                                main_stage,
                                internal_stage: internal,
                                first_line: start,
                                port,
                                exchanged: c,
                                sweep: start / box_size,
                            });
                        }
                    }
                }
                exchanges += apply_box_flags(&scratch.flags, &mut lines[start..start + box_size]);
                if observing {
                    observer.arbiter_sweep(SweepEvent {
                        main_stage,
                        internal_stage: internal,
                        first_line: start,
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
                            first_line: start,
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
                    width: n,
                    exchanges,
                });
            }
            // Wiring: rotate the low r line-index bits (r = the box width's
            // bits inside a stage, r = k for the main wiring; the fabric's
            // very last column has none), into the scratch buffer and back
            // (scratch is reused every column).
            let r = if internal + 1 < k {
                k - internal
            } else if main_stage + 1 < m {
                k
            } else {
                continue;
            };
            let wiring = net.wiring();
            #[allow(clippy::needless_range_loop)] // index j is the wiring domain
            for j in 0..n {
                scratch.lines[wiring.wire(r, m, j)] = lines[j];
            }
            lines.copy_from_slice(&scratch.lines[..n]);
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

    /// Both kernels route a whole frame byte-identically to the
    /// allocating reference route.
    #[test]
    fn span_matches_sequential_route() {
        let mut rng = StdRng::seed_from_u64(7);
        for m in 1usize..=8 {
            let n = 1usize << m;
            let net = BnbNetwork::new(m);
            let mut scratch = StageScratch::with_capacity(n);
            for _ in 0..10 {
                let records = records_for_permutation(&Permutation::random(n, &mut rng));
                let expected = net.route(&records).unwrap();
                for kernel in [Kernel::Auto, Kernel::Scalar] {
                    let mut lines = records.clone();
                    RouteSpan::new()
                        .kernel(kernel)
                        .run(&net, &mut lines, &mut scratch)
                        .unwrap();
                    assert_eq!(lines, expected, "m = {m}, {kernel:?}");
                }
            }
        }
    }

    /// The same holds under Permissive policy for arbitrary (garbage)
    /// destination patterns: routing is oblivious data movement.
    #[test]
    fn span_matches_sequential_route_for_garbage_traffic() {
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
                for kernel in [Kernel::Auto, Kernel::Scalar] {
                    let mut lines = records.clone();
                    RouteSpan::new()
                        .kernel(kernel)
                        .run(&net, &mut lines, &mut scratch)
                        .unwrap();
                    assert_eq!(lines, expected, "m = {m}, {kernel:?}");
                }
            }
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
