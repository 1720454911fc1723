//! The full BNB self-routing permutation network (Definition 5, Theorem 2).
//!
//! An `N = 2^m`-input BNB network is a GBN whose stage-`i` boxes are
//! `q`-bit-slice nested networks `NB(i, l)` of `2^{m-i}` lines. Slice `i` of
//! each nested network is a bit-sorter network; its splitter controls drive
//! the switches of all `q` slices, so the whole record follows the routing
//! decided by address bit `i`. After main stage `i` the `2^{m-i}`-unshuffle
//! partitions records by that bit, and after `m` stages the records emerge
//! in destination order — any permutation is realized without global
//! routing (Theorem 2).
//!
//! [`BnbNetwork::route`] simulates this behaviourally: the nested networks
//! are walked stage by stage, each splitter's arbiter computes its controls
//! from address-bit-`i` values only (the paper's locality claim), and the
//! controls are applied to whole records.

use bnb_obs::{NoopObserver, Observer};
use bnb_topology::bitops::{paper_bit, shuffle, unshuffle};
use bnb_topology::connection::require_power_of_two;
use bnb_topology::gbn::Gbn;
use bnb_topology::record::Record;
use serde::{Deserialize, Serialize};

use crate::cost::HardwareCost;
use crate::delay::PropagationDelay;
use crate::error::RouteError;
use crate::router::Router;
use crate::splitter::{check_balanced, controls, SplitterSite};
use crate::stages::{route_span_inner, validate_lines, StageScratch};
use crate::trace::{ColumnSnapshot, RouteTrace};

/// How strictly input is validated before routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RoutePolicy {
    /// Validate that inputs form a permutation and that every splitter's
    /// balance assumption holds; violations return typed errors.
    #[default]
    Strict,
    /// Hardware semantics: route whatever arrives. Non-permutation inputs
    /// simply mis-route, exactly like the physical network would.
    Permissive,
}

/// Which inter-stage wiring the network uses — the ablation A2 knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum WiringMode {
    /// The paper's `2^k`-unshuffle wiring (correct).
    #[default]
    Unshuffle,
    /// Straight wiring between stages (ablation: breaks the radix sort).
    Identity,
    /// `2^k`-shuffle wiring (ablation: the inverse rotation, also wrong).
    Shuffle,
}

/// Builder for [`BnbNetwork`] and observed [`Router`]s — the one entry
/// point for every configuration knob (width, data bits, policy, wiring,
/// observer).
///
/// # Example
///
/// ```
/// use bnb_core::network::{BnbNetwork, RoutePolicy};
///
/// let net = BnbNetwork::builder(4)
///     .data_width(16)
///     .policy(RoutePolicy::Strict)
///     .build();
/// assert_eq!(net.inputs(), 16);
/// assert_eq!(net.q(), 4 + 16);
/// ```
///
/// Attaching an observer changes the builder's type parameter, and the
/// observer lives in the [`Router`] produced by
/// [`build_router`](BnbNetworkBuilder::build_router) — a [`BnbNetwork`]
/// itself is pure `Copy` configuration and never carries one, so
/// `observer(..)` followed by plain `build()` is a compile error rather
/// than a silently dropped sink:
///
/// ```
/// use bnb_core::network::BnbNetwork;
/// use bnb_obs::Counters;
///
/// let counters = Counters::new();
/// let router = BnbNetwork::builder(3).observer(&counters).build_router();
/// assert_eq!(router.network().inputs(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct BnbNetworkBuilder<O: Observer = NoopObserver> {
    m: usize,
    w: usize,
    policy: RoutePolicy,
    wiring: WiringMode,
    observer: O,
}

impl<O: Observer> BnbNetworkBuilder<O> {
    /// Sets the data word width `w` (default 32; up to 64 bits).
    ///
    /// # Panics
    ///
    /// Panics if `w > 64`.
    pub fn data_width(mut self, w: usize) -> Self {
        assert!(w <= 64, "data width is limited to 64 bits");
        self.w = w;
        self
    }

    /// Sets the validation policy (default [`RoutePolicy::Strict`]).
    pub fn policy(mut self, policy: RoutePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the inter-stage wiring (default
    /// [`WiringMode::Unshuffle`]) — only useful for the ablation study.
    pub fn wiring(mut self, wiring: WiringMode) -> Self {
        self.wiring = wiring;
        self
    }

    /// Attaches an observer; the built [`Router`] will emit routing events
    /// to it. Share one sink across routers by passing a reference
    /// (`&Counters` implements [`Observer`]).
    pub fn observer<O2: Observer>(self, observer: O2) -> BnbNetworkBuilder<O2> {
        BnbNetworkBuilder {
            m: self.m,
            w: self.w,
            policy: self.policy,
            wiring: self.wiring,
            observer,
        }
    }

    fn network(&self) -> BnbNetwork {
        BnbNetwork {
            m: self.m,
            w: self.w,
            policy: self.policy,
            wiring: self.wiring,
        }
    }

    /// Builds an allocation-free [`Router`] carrying the configured
    /// observer.
    pub fn build_router(self) -> Router<O> {
        let network = self.network();
        Router::with_observer(network, self.observer)
    }
}

impl BnbNetworkBuilder {
    /// Builds the network configuration.
    ///
    /// Only available while no observer is attached ([`BnbNetwork`] is
    /// `Copy` configuration and cannot carry one) — after
    /// [`observer`](BnbNetworkBuilder::observer), finish with
    /// [`build_router`](BnbNetworkBuilder::build_router) instead.
    pub fn build(self) -> BnbNetwork {
        self.network()
    }
}

/// An `N = 2^m`-input BNB self-routing permutation network.
///
/// # Example
///
/// ```
/// use bnb_core::network::BnbNetwork;
/// use bnb_topology::perm::Permutation;
/// use bnb_topology::record::{records_for_permutation, all_delivered};
///
/// let net = BnbNetwork::builder_for(8)?.build();
/// let perm = Permutation::try_from(vec![6, 3, 0, 5, 2, 7, 4, 1])?;
/// let out = net.route(&records_for_permutation(&perm))?;
/// assert!(all_delivered(&out));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BnbNetwork {
    m: usize,
    w: usize,
    policy: RoutePolicy,
    wiring: WiringMode,
}

impl BnbNetwork {
    /// A network with `2^m` inputs, 32 data bits, strict validation and the
    /// paper's wiring.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn new(m: usize) -> Self {
        Self::builder(m).build()
    }

    /// Starts a builder for a `2^m`-input network.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn builder(m: usize) -> BnbNetworkBuilder {
        assert!(m >= 1, "network needs at least 2 inputs");
        BnbNetworkBuilder {
            m,
            w: 32,
            policy: RoutePolicy::default(),
            wiring: WiringMode::default(),
            observer: NoopObserver,
        }
    }

    /// Starts a builder for an `n`-input network — the fallible
    /// counterpart of [`BnbNetwork::builder`] for widths not already known
    /// to be powers of two.
    ///
    /// ```
    /// use bnb_core::network::BnbNetwork;
    ///
    /// let net = BnbNetwork::builder_for(16)?.data_width(8).build();
    /// assert_eq!(net.inputs(), 16);
    /// assert!(BnbNetwork::builder_for(12).is_err());
    /// # Ok::<(), bnb_core::RouteError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns an error if `n` is not a power of two or is less than 2.
    pub fn builder_for(n: usize) -> Result<BnbNetworkBuilder, RouteError> {
        let m = require_power_of_two(n)?;
        if m == 0 {
            return Err(RouteError::WidthMismatch {
                expected: 2,
                actual: n,
            });
        }
        Ok(Self::builder(m))
    }

    /// `log2` of the network width.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Data word width in bits.
    pub fn w(&self) -> usize {
        self.w
    }

    /// Word length `q = m + w` (address + data slices).
    pub fn q(&self) -> usize {
        self.m + self.w
    }

    /// Network width `N = 2^m`.
    pub fn inputs(&self) -> usize {
        1 << self.m
    }

    /// The validation policy.
    pub fn policy(&self) -> RoutePolicy {
        self.policy
    }

    /// The wiring mode.
    pub fn wiring(&self) -> WiringMode {
        self.wiring
    }

    /// The main-network GBN topology.
    pub fn gbn(&self) -> Gbn {
        Gbn::new(self.m)
    }

    /// Exact hardware cost of this network under the paper's model
    /// (eq. (6)), counted from the constructed structure.
    pub fn cost(&self) -> HardwareCost {
        HardwareCost::bnb_counted(self.m, self.w)
    }

    /// Propagation delay of this network under the paper's model
    /// (eq. (9)), counted from the constructed structure.
    pub fn delay(&self) -> PropagationDelay {
        PropagationDelay::bnb_structural(self.m)
    }

    /// Routes one record per input line and returns the output lines.
    ///
    /// On success (with the paper's wiring and a permutation input),
    /// `out[j].dest() == j` for every output `j`.
    ///
    /// # Errors
    ///
    /// - [`RouteError::WidthMismatch`], [`RouteError::DestinationTooWide`],
    ///   [`RouteError::DataTooWide`] — structural input problems, always
    ///   checked.
    /// - [`RouteError::DuplicateDestination`],
    ///   [`RouteError::UnbalancedSplitter`] — only under
    ///   [`RoutePolicy::Strict`].
    pub fn route(&self, records: &[Record]) -> Result<Vec<Record>, RouteError> {
        self.route_impl(records, None)
    }

    /// Like [`BnbNetwork::route`] but emits routing events (columns,
    /// arbiter sweeps, conflicts — or per-stage totals for an observer
    /// that declines per-column events) to `observer`. Results are
    /// bit-identical to [`BnbNetwork::route`].
    ///
    /// For repeated batches prefer an observed [`Router`]
    /// (`builder(..).observer(..).build_router()`), which reuses its
    /// scratch buffers across calls.
    ///
    /// # Errors
    ///
    /// Same as [`BnbNetwork::route`].
    pub fn route_observed<O: Observer>(
        &self,
        records: &[Record],
        observer: &O,
    ) -> Result<Vec<Record>, RouteError> {
        let mut lines = records.to_vec();
        let mut seen = Vec::new();
        validate_lines(self, &lines, &mut seen)?;
        let mut scratch = StageScratch::with_capacity(lines.len());
        route_span_inner(self, &mut lines, 0, 0..self.m, &mut scratch, observer, None)?;
        Ok(lines)
    }

    /// Like [`BnbNetwork::route`] but also captures a full per-column
    /// trace.
    ///
    /// # Errors
    ///
    /// Same as [`BnbNetwork::route`].
    pub fn route_traced(
        &self,
        records: &[Record],
    ) -> Result<(Vec<Record>, RouteTrace), RouteError> {
        let mut trace = RouteTrace {
            m: self.m,
            inputs: records.to_vec(),
            columns: Vec::new(),
        };
        let out = self.route_impl(records, Some(&mut trace))?;
        Ok((out, trace))
    }

    fn validate(&self, records: &[Record]) -> Result<(), RouteError> {
        let n = self.inputs();
        if records.len() != n {
            return Err(RouteError::WidthMismatch {
                expected: n,
                actual: records.len(),
            });
        }
        for r in records {
            if r.dest() >= n {
                return Err(RouteError::DestinationTooWide { dest: r.dest(), n });
            }
            if self.w < 64 && r.data() >> self.w != 0 {
                return Err(RouteError::DataTooWide {
                    data: r.data(),
                    w: self.w,
                });
            }
        }
        if matches!(self.policy, RoutePolicy::Strict) {
            let mut first_at = vec![usize::MAX; n];
            for (i, r) in records.iter().enumerate() {
                if first_at[r.dest()] != usize::MAX {
                    return Err(RouteError::DuplicateDestination {
                        dest: r.dest(),
                        first_input: first_at[r.dest()],
                        second_input: i,
                    });
                }
                first_at[r.dest()] = i;
            }
        }
        Ok(())
    }

    fn rewire(&self, k: usize, local: usize) -> usize {
        match self.wiring {
            WiringMode::Unshuffle => unshuffle(k, k, local),
            WiringMode::Identity => local,
            WiringMode::Shuffle => shuffle(k, k, local),
        }
    }

    fn route_impl(
        &self,
        records: &[Record],
        mut trace: Option<&mut RouteTrace>,
    ) -> Result<Vec<Record>, RouteError> {
        self.validate(records)?;
        let n = self.inputs();
        let m = self.m;
        let strict = matches!(self.policy, RoutePolicy::Strict);
        let mut lines = records.to_vec();
        for main_stage in 0..m {
            // Nested networks of 2^{m - main_stage} lines; their slice
            // `main_stage` is the BSN, reading address bit `main_stage`.
            let k = m - main_stage;
            for internal in 0..k {
                let box_size = 1usize << (k - internal);
                let mut column_controls = Vec::with_capacity(n / 2);
                for start in (0..n).step_by(box_size) {
                    let bits: Vec<bool> = lines[start..start + box_size]
                        .iter()
                        .map(|r| paper_bit(m, r.dest(), main_stage))
                        .collect();
                    if strict {
                        check_balanced(
                            &bits,
                            SplitterSite {
                                main_stage,
                                internal_stage: internal,
                                first_line: start,
                            },
                        )?;
                    }
                    let ctl = controls(&bits);
                    for (t, &c) in ctl.iter().enumerate() {
                        if c {
                            lines.swap(start + 2 * t, start + 2 * t + 1);
                        }
                    }
                    column_controls.extend(ctl);
                }
                // Wiring after this column: internal GBN wiring within each
                // nested span, or the main unshuffle after the last internal
                // stage of a non-final main stage.
                if internal + 1 < k {
                    let span = box_size; // wiring acts on the splitter spans'
                                         // parent: the nested network of the
                                         // *current* internal level
                    let wired = self.apply_internal_wiring(&lines, k, internal, span);
                    lines = wired;
                } else if main_stage + 1 < m {
                    let mut wired = vec![Record::new(0, 0); n];
                    for (j, &r) in lines.iter().enumerate() {
                        let dst = match self.wiring {
                            WiringMode::Unshuffle => unshuffle(k, m, j),
                            WiringMode::Identity => j,
                            WiringMode::Shuffle => shuffle(k, m, j),
                        };
                        wired[dst] = r;
                    }
                    lines = wired;
                }
                if let Some(t) = trace.as_deref_mut() {
                    t.columns.push(ColumnSnapshot {
                        main_stage,
                        internal_stage: internal,
                        controls: column_controls,
                        lines: lines.clone(),
                    });
                }
            }
        }
        Ok(lines)
    }

    /// Applies the nested-GBN wiring after internal stage `internal` of the
    /// `2^k`-line nested networks: `U_{k-internal}^{k}` on the local index
    /// of each nested span... except the wiring acts within the *current
    /// splitter group* structure: the `2^{k-internal}`-line blocks are
    /// unshuffled in place (their top bits are fixed, like any GBN stage).
    fn apply_internal_wiring(
        &self,
        lines: &[Record],
        _k: usize,
        _internal: usize,
        span: usize,
    ) -> Vec<Record> {
        let n = lines.len();
        let span_log = span.trailing_zeros() as usize;
        let mut wired = vec![Record::new(0, 0); n];
        for (j, &r) in lines.iter().enumerate() {
            let base = j & !(span - 1);
            let local = j & (span - 1);
            wired[base | self.rewire(span_log, local)] = r;
        }
        wired
    }
}

impl Default for BnbNetwork {
    /// An 8-input network with default options.
    fn default() -> Self {
        BnbNetwork::new(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnb_topology::perm::Permutation;
    use bnb_topology::record::{all_delivered, records_for_permutation};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Theorem 2 for N = 4, exhaustively.
    #[test]
    fn theorem_2_exhaustive_n4() {
        let net = BnbNetwork::new(2);
        for k in 0..24 {
            let p = Permutation::nth_lexicographic(4, k);
            let out = net.route(&records_for_permutation(&p)).unwrap();
            assert!(all_delivered(&out), "perm {p} mis-routed");
        }
    }

    /// Theorem 2 for N = 8, exhaustively (all 40 320 permutations).
    #[test]
    fn theorem_2_exhaustive_n8() {
        let net = BnbNetwork::new(3);
        for k in 0..40_320 {
            let p = Permutation::nth_lexicographic(8, k);
            let out = net.route(&records_for_permutation(&p)).unwrap();
            assert!(all_delivered(&out), "perm {p} mis-routed");
        }
    }

    /// Randomized Theorem 2 up to N = 1024.
    #[test]
    fn theorem_2_random_large() {
        let mut rng = StdRng::seed_from_u64(2024);
        for m in [4usize, 6, 8, 10] {
            let net = BnbNetwork::new(m);
            let n = 1 << m;
            for _ in 0..20 {
                let p = Permutation::random(n, &mut rng);
                let out = net.route(&records_for_permutation(&p)).unwrap();
                assert!(all_delivered(&out), "N={n}: perm mis-routed");
            }
        }
    }

    /// Data words must travel with their addresses.
    #[test]
    fn data_words_follow_addresses() {
        let net = BnbNetwork::builder(4).data_width(32).build();
        let mut rng = StdRng::seed_from_u64(5);
        let p = Permutation::random(16, &mut rng);
        let records: Vec<Record> = (0..16)
            .map(|i| Record::new(p.apply(i), 0xABCD_0000 + i as u64))
            .collect();
        let out = net.route(&records).unwrap();
        for (j, r) in out.iter().enumerate() {
            assert_eq!(r.dest(), j);
            assert_eq!(r.data(), 0xABCD_0000 + p.inverse().apply(j) as u64);
        }
    }

    #[test]
    fn trace_has_m_m_plus_1_over_2_columns() {
        for m in 1..=6usize {
            let net = BnbNetwork::new(m);
            let p = Permutation::identity(1 << m);
            let (_, trace) = net.route_traced(&records_for_permutation(&p)).unwrap();
            assert_eq!(trace.column_count(), m * (m + 1) / 2, "eq. (7) stage count");
            assert!(all_delivered(trace.outputs()));
        }
    }

    #[test]
    fn duplicate_destination_rejected_in_strict_mode() {
        let net = BnbNetwork::new(2);
        let records = vec![
            Record::new(1, 0),
            Record::new(1, 1),
            Record::new(2, 2),
            Record::new(3, 3),
        ];
        let err = net.route(&records).unwrap_err();
        assert_eq!(
            err,
            RouteError::DuplicateDestination {
                dest: 1,
                first_input: 0,
                second_input: 1
            }
        );
    }

    #[test]
    fn permissive_mode_routes_non_permutations() {
        let net = BnbNetwork::builder(2)
            .policy(RoutePolicy::Permissive)
            .build();
        let records = vec![
            Record::new(1, 0),
            Record::new(1, 1),
            Record::new(2, 2),
            Record::new(3, 3),
        ];
        let out = net.route(&records).unwrap();
        // All four records still come out somewhere (conservation).
        let mut datas: Vec<u64> = out.iter().map(|r| r.data()).collect();
        datas.sort_unstable();
        assert_eq!(datas, vec![0, 1, 2, 3]);
    }

    #[test]
    fn structural_validation_is_always_on() {
        let net = BnbNetwork::builder(2)
            .policy(RoutePolicy::Permissive)
            .build();
        assert!(matches!(
            net.route(&[Record::new(0, 0)]),
            Err(RouteError::WidthMismatch {
                expected: 4,
                actual: 1
            })
        ));
        let wide = vec![
            Record::new(7, 0),
            Record::new(1, 0),
            Record::new(2, 0),
            Record::new(3, 0),
        ];
        assert!(matches!(
            net.route(&wide),
            Err(RouteError::DestinationTooWide { dest: 7, .. })
        ));
        let fat = vec![
            Record::new(0, u64::MAX),
            Record::new(1, 0),
            Record::new(2, 0),
            Record::new(3, 0),
        ];
        assert!(matches!(
            net.route(&fat),
            Err(RouteError::DataTooWide { .. })
        ));
    }

    /// Ablation A2: replacing the unshuffle wiring breaks routing for most
    /// permutations — the wiring is load-bearing.
    #[test]
    fn wrong_wiring_misroutes() {
        for mode in [WiringMode::Identity, WiringMode::Shuffle] {
            let net = BnbNetwork::builder(3)
                .policy(RoutePolicy::Permissive)
                .wiring(mode)
                .build();
            let mut failures = 0usize;
            for k in 0..500 {
                let p = Permutation::nth_lexicographic(8, k * 80);
                let out = net.route(&records_for_permutation(&p)).unwrap();
                if !all_delivered(&out) {
                    failures += 1;
                }
            }
            assert!(
                failures > 250,
                "{mode:?} wiring should misroute most permutations"
            );
        }
    }

    #[test]
    fn builder_configures_everything() {
        let net = BnbNetwork::builder(5)
            .data_width(0)
            .policy(RoutePolicy::Permissive)
            .wiring(WiringMode::Shuffle)
            .build();
        assert_eq!(net.m(), 5);
        assert_eq!(net.w(), 0);
        assert_eq!(net.q(), 5);
        assert_eq!(net.inputs(), 32);
        assert_eq!(net.policy(), RoutePolicy::Permissive);
        assert_eq!(net.wiring(), WiringMode::Shuffle);
    }

    #[test]
    fn builder_for_validates_width() {
        assert_eq!(BnbNetwork::builder_for(16).unwrap().build().m(), 4);
        assert!(BnbNetwork::builder_for(10).is_err());
        assert!(BnbNetwork::builder_for(1).is_err());
    }

    #[test]
    fn route_observed_matches_route() {
        use bnb_obs::Counters;
        let net = BnbNetwork::new(4);
        let p = Permutation::nth_lexicographic(16, 123_456);
        let records = records_for_permutation(&p);
        let counters = Counters::new();
        let observed = net.route_observed(&records, &counters).unwrap();
        assert_eq!(observed, net.route(&records).unwrap());
        // eq. (7): one ColumnEvent per switching column.
        assert_eq!(counters.snapshot().columns, 4 * 5 / 2);
    }

    #[test]
    fn builder_router_observes_conflicts() {
        use bnb_obs::Counters;
        let counters = Counters::new();
        let mut router = BnbNetwork::builder(2)
            .data_width(8)
            .observer(&counters)
            .build_router();
        let mut lines = vec![
            Record::new(0, 0),
            Record::new(0, 1),
            Record::new(1, 2),
            Record::new(1, 3),
        ];
        // Duplicate destinations are rejected by validation (no conflict
        // event), so drop to a width-2 splitter violation instead: route
        // permissively and watch the conflict-free counters grow.
        assert!(router.route_in_place(&mut lines).is_err());
        let permissive = Counters::new();
        let mut router = BnbNetwork::builder(2)
            .data_width(8)
            .policy(RoutePolicy::Permissive)
            .observer(&permissive)
            .build_router();
        router.route_in_place(&mut lines).unwrap();
        let snap = permissive.snapshot();
        assert_eq!(snap.columns, 3, "m = 2 routes m(m+1)/2 = 3 columns");
        assert!(snap.arbiter_sweeps > 0);
    }

    #[test]
    fn default_is_eight_inputs() {
        assert_eq!(BnbNetwork::default().inputs(), 8);
    }

    /// The identity permutation exercises the maximum number of type-1
    /// pairs; the reversal exercises type-2 pairs. Both must route.
    #[test]
    fn extremal_permutations_route() {
        for m in 1..=8usize {
            let n = 1 << m;
            let net = BnbNetwork::new(m);
            let id = Permutation::identity(n);
            assert!(all_delivered(
                &net.route(&records_for_permutation(&id)).unwrap()
            ));
            let rev = Permutation::from_fn(n, |i| n - 1 - i).unwrap();
            assert!(all_delivered(
                &net.route(&records_for_permutation(&rev)).unwrap()
            ));
        }
    }
}
