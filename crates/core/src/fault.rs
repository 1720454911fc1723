//! Hardware fault injection and degraded-mode routing.
//!
//! The paper's self-routing guarantee (Theorems 3–5) assumes every
//! splitter `sp(p)` and 2×2 switch is healthy. This module models the
//! control plane breaking: a [`FaultMap`] addresses stuck elements by
//! `(main_stage, internal_stage, element)` and [`FaultyFabric`] routes
//! through the damaged network.
//!
//! # Fault model
//!
//! All three [`FaultKind`]s corrupt *control* decisions while the data
//! path keeps moving records, so every route conserves the record
//! multiset — a faulty fabric misdelivers, it never drops:
//!
//! - [`StuckStraight`] / [`StuckExchange`](FaultKind::StuckExchange) — a
//!   2×2 switch latched at 0 (straight) or 1 (exchange), ignoring its
//!   control bit. Addressed by global switch index (switch `e` covers
//!   lines `2e` and `2e + 1`).
//! - [`DeadArbiter`](FaultKind::DeadArbiter) — a splitter whose arbiter
//!   tree (Definition 6) stopped sweeping: every flag reads 0, so switch
//!   `t` falls back to the greedy control `s(2t)`. Addressed by global
//!   splitter-box index in the column.
//! - [`BrokenLink`](FaultKind::BrokenLink) — an address-tap line whose
//!   destination bit reads stuck-at-0 in the control plane while the
//!   record itself passes through unharmed. Addressed by global line.
//!
//! # Detection: the balance check as a built-in tester
//!
//! Detection piggybacks on the paper's local balance invariant
//! (Definition 3). A healthy splitter on a balanced input always
//! produces `M_e = M_o` (Theorem 3), and *any* even split — whichever
//! records it sends up or down — keeps the Theorem 1/2 induction intact,
//! so a route in which every splitter's **output** stays balanced is
//! correct. Conversely, the first splitter whose corrupted controls break
//! the invariant is caught on the spot. Under
//! [`RoutePolicy::Strict`](crate::network::RoutePolicy::Strict),
//! [`FaultyFabric`] therefore re-checks the output bits of every splitter
//! in a faulted column and returns
//! [`RouteError::HardwareFault`] instead of misdelivering: every single
//! injected fault is either *detected* or provably *harmless* (the
//! exhaustive `hardware_faults` test sweeps all of them). Permissive
//! routes skip detection, conserve the records, and let the caller count
//! misdeliveries — the degraded mode the sim campaigns measure.
//!
//! [`StuckStraight`]: FaultKind::StuckStraight

use std::fmt;

use bnb_obs::{NoopObserver, Observer};
use bnb_topology::record::Record;
use serde::{Deserialize, Serialize};

use crate::error::RouteError;
use crate::network::BnbNetwork;
use crate::stages::{validate_lines, RouteSpan, StageScratch};

/// The ways a switching element can be broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FaultKind {
    /// 2×2 switch stuck-at-0: always passes straight through.
    StuckStraight,
    /// 2×2 switch stuck-at-1: always exchanges its pair.
    StuckExchange,
    /// Splitter arbiter tree dead: all flags read 0, so controls degrade
    /// to the greedy `control_t = s(2t)`.
    DeadArbiter,
    /// Address-tap link broken: the control plane reads this line's
    /// destination bit as 0; the record itself is unaffected.
    BrokenLink,
}

impl FaultKind {
    /// Number of valid [`FaultSite::element`] indices for this kind in
    /// one column of an `N = 2^m` network: switches and links span the
    /// whole column (`N/2` and `N`), arbiters are one per splitter box.
    pub fn elements(self, m: usize, main_stage: usize, internal_stage: usize) -> usize {
        let n = 1usize << m;
        let box_size = 1usize << (m - main_stage - internal_stage);
        match self {
            FaultKind::StuckStraight | FaultKind::StuckExchange => n / 2,
            FaultKind::DeadArbiter => n / box_size,
            FaultKind::BrokenLink => n,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::StuckStraight => "stuck-straight",
            FaultKind::StuckExchange => "stuck-exchange",
            FaultKind::DeadArbiter => "dead-arbiter",
            FaultKind::BrokenLink => "broken-link",
        })
    }
}

/// Where a fault sits: a switching column plus an element index whose
/// domain depends on the [`FaultKind`] (see [`FaultKind::elements`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultSite {
    /// Main-network stage (`0..m`).
    pub main_stage: usize,
    /// Column within the stage's nested networks (`0..m - main_stage`).
    pub internal_stage: usize,
    /// Global element index within the column: switch index, splitter-box
    /// index, or line index depending on the kind.
    pub element: usize,
}

impl FaultSite {
    /// A site at the given column and element.
    pub fn new(main_stage: usize, internal_stage: usize, element: usize) -> Self {
        FaultSite {
            main_stage,
            internal_stage,
            element,
        }
    }
}

/// One injected fault: a kind at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HardwareFault {
    /// Where the broken element sits.
    pub site: FaultSite,
    /// How it is broken.
    pub kind: FaultKind,
}

impl HardwareFault {
    /// Whether the site addresses a real element of an `N = 2^m` network.
    pub fn in_bounds(&self, m: usize) -> bool {
        let s = self.site;
        s.main_stage < m
            && s.internal_stage < m - s.main_stage
            && s.element < self.kind.elements(m, s.main_stage, s.internal_stage)
    }
}

/// A set of injected hardware faults, applied by [`FaultyFabric`] (or
/// per fabric shard by the engine's `LiveFaultPlan`).
///
/// An empty map is the healthy fabric: routing takes exactly the
/// fault-free code path and stays allocation-free (covered by the
/// workspace zero-alloc test).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultMap {
    faults: Vec<HardwareFault>,
}

impl FaultMap {
    /// An empty (healthy) map.
    pub fn new() -> Self {
        FaultMap::default()
    }

    /// A map holding one fault.
    pub fn single(site: FaultSite, kind: FaultKind) -> Self {
        let mut map = FaultMap::new();
        map.insert(site, kind);
        map
    }

    /// Injects a fault. Duplicate sites are kept; the first matching
    /// entry wins where kinds conflict.
    pub fn insert(&mut self, site: FaultSite, kind: FaultKind) {
        self.faults.push(HardwareFault { site, kind });
    }

    /// Whether the fabric is healthy.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of injected faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Removes every fault.
    pub fn clear(&mut self) {
        self.faults.clear();
    }

    /// Iterates over the injected faults.
    pub fn iter(&self) -> impl Iterator<Item = &HardwareFault> {
        self.faults.iter()
    }

    /// Whether every fault addresses a real element of an `N = 2^m`
    /// network.
    pub fn in_bounds(&self, m: usize) -> bool {
        self.faults.iter().all(|f| f.in_bounds(m))
    }

    /// Whether any fault sits in the given column.
    pub(crate) fn affects(&self, main_stage: usize, internal_stage: usize) -> bool {
        self.faults
            .iter()
            .any(|f| f.site.main_stage == main_stage && f.site.internal_stage == internal_stage)
    }

    /// Applies broken-link taps to the control plane's view of one
    /// splitter box's destination bits (`bits` covers global lines
    /// `global_start..global_start + bits.len()`).
    pub(crate) fn tap_bits(
        &self,
        main_stage: usize,
        internal_stage: usize,
        global_start: usize,
        bits: &mut [bool],
    ) {
        for f in &self.faults {
            if f.kind == FaultKind::BrokenLink
                && f.site.main_stage == main_stage
                && f.site.internal_stage == internal_stage
                && (global_start..global_start + bits.len()).contains(&f.site.element)
            {
                bits[f.site.element - global_start] = false;
            }
        }
    }

    /// Applies dead-arbiter and stuck-switch overrides to one box's
    /// exchange flags. `bits` is the (tapped) control-plane bit view of
    /// the box starting at global line `global_start`; `flags[t]`
    /// controls the switch over lines `2t` and `2t + 1` of the box.
    pub(crate) fn override_flags(
        &self,
        main_stage: usize,
        internal_stage: usize,
        global_start: usize,
        bits: &[bool],
        flags: &mut [bool],
    ) {
        let box_size = bits.len();
        let box_index = global_start / box_size;
        let first_switch = global_start / 2;
        for f in &self.faults {
            if f.site.main_stage != main_stage || f.site.internal_stage != internal_stage {
                continue;
            }
            match f.kind {
                // Dead arbiter first: stuck switches below still override
                // the greedy fallback, like the physical latch would.
                FaultKind::DeadArbiter if f.site.element == box_index => {
                    for (t, flag) in flags.iter_mut().enumerate() {
                        *flag = bits[2 * t];
                    }
                }
                _ => {}
            }
        }
        for f in &self.faults {
            if f.site.main_stage != main_stage || f.site.internal_stage != internal_stage {
                continue;
            }
            let stuck = match f.kind {
                FaultKind::StuckStraight => false,
                FaultKind::StuckExchange => true,
                _ => continue,
            };
            if let Some(t) = f.site.element.checked_sub(first_switch) {
                if t < flags.len() {
                    flags[t] = stuck;
                }
            }
        }
    }
}

impl FromIterator<HardwareFault> for FaultMap {
    fn from_iter<I: IntoIterator<Item = HardwareFault>>(iter: I) -> Self {
        FaultMap {
            faults: iter.into_iter().collect(),
        }
    }
}

/// A [`Router`](crate::router::Router)-shaped fabric with injected
/// hardware faults: owns its scratch, routes in place, and (under strict
/// policy) detects control corruption via the output balance check
/// instead of misdelivering — see the module docs for the fault model.
///
/// # Example
///
/// ```
/// use bnb_core::fault::{FaultKind, FaultMap, FaultSite, FaultyFabric};
/// use bnb_core::network::BnbNetwork;
/// use bnb_core::RouteError;
/// use bnb_topology::perm::Permutation;
/// use bnb_topology::record::records_for_permutation;
///
/// let net = BnbNetwork::builder(3).build();
/// // Jam the very first switch into "exchange".
/// let faults = FaultMap::single(FaultSite::new(0, 0, 0), FaultKind::StuckExchange);
/// let mut fabric = FaultyFabric::new(net, faults);
/// let p = Permutation::try_from(vec![6, 3, 0, 5, 2, 7, 4, 1])?;
/// let lines = records_for_permutation(&p);
/// // Strict policy: the stuck switch is caught, never misdelivered.
/// match fabric.route(&lines) {
///     Ok(out) => assert!(bnb_topology::record::all_delivered(&out)),
///     Err(RouteError::HardwareFault { main_stage, .. }) => assert_eq!(main_stage, 0),
///     Err(other) => panic!("unexpected error: {other}"),
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct FaultyFabric<O: Observer = NoopObserver> {
    network: BnbNetwork,
    faults: FaultMap,
    scratch: StageScratch,
    seen: Vec<usize>,
    observer: O,
}

impl FaultyFabric {
    /// An unobserved faulty fabric over `network`.
    pub fn new(network: BnbNetwork, faults: FaultMap) -> Self {
        FaultyFabric::with_observer(network, faults, NoopObserver)
    }
}

impl<O: Observer> FaultyFabric<O> {
    /// A faulty fabric emitting routing (and [`FaultEvent`]) events to
    /// `observer`.
    ///
    /// [`FaultEvent`]: bnb_obs::FaultEvent
    pub fn with_observer(network: BnbNetwork, faults: FaultMap, observer: O) -> Self {
        let n = network.inputs();
        FaultyFabric {
            network,
            faults,
            scratch: StageScratch::with_capacity(n),
            seen: vec![usize::MAX; n],
            observer,
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &BnbNetwork {
        &self.network
    }

    /// The injected faults.
    pub fn faults(&self) -> &FaultMap {
        &self.faults
    }

    /// Replaces the injected faults (e.g. between campaign trials).
    pub fn set_faults(&mut self, faults: FaultMap) {
        self.faults = faults;
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Routes `lines` in place through the faulted fabric.
    ///
    /// # Errors
    ///
    /// Everything [`BnbNetwork::route`] reports, plus
    /// [`RouteError::HardwareFault`] under strict policy when an injected
    /// fault corrupts a splitter's split. Permissive routes only fail
    /// validation; they conserve the record multiset and may misdeliver.
    pub fn route_in_place(&mut self, lines: &mut [Record]) -> Result<(), RouteError> {
        validate_lines(&self.network, lines, &mut self.seen)?;
        RouteSpan::new()
            .observer(&self.observer)
            .faults(&self.faults)
            .run(&self.network, lines, &mut self.scratch)
    }

    /// Allocating convenience wrapper around [`route_in_place`].
    ///
    /// [`route_in_place`]: FaultyFabric::route_in_place
    pub fn route(&mut self, lines: &[Record]) -> Result<Vec<Record>, RouteError> {
        let mut out = lines.to_vec();
        self.route_in_place(&mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::RoutePolicy;
    use bnb_topology::perm::Permutation;
    use bnb_topology::record::{all_delivered, records_for_permutation};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_map_matches_healthy_router() {
        let mut rng = StdRng::seed_from_u64(90);
        for m in [1usize, 3, 5] {
            let net = BnbNetwork::builder(m).build();
            let mut fabric = FaultyFabric::new(net, FaultMap::new());
            for _ in 0..10 {
                let lines = records_for_permutation(&Permutation::random(1 << m, &mut rng));
                let expected = net.route(&lines).unwrap();
                assert_eq!(fabric.route(&lines).unwrap(), expected, "m = {m}");
            }
        }
    }

    #[test]
    fn stuck_exchange_is_detected_under_strict() {
        let net = BnbNetwork::builder(2).build();
        let faults = FaultMap::single(FaultSite::new(1, 0, 0), FaultKind::StuckExchange);
        let mut fabric = FaultyFabric::new(net, faults);
        let mut rng = StdRng::seed_from_u64(91);
        let mut caught = 0;
        for _ in 0..40 {
            let lines = records_for_permutation(&Permutation::random(4, &mut rng));
            match fabric.route(&lines) {
                Ok(out) => assert!(all_delivered(&out), "silent misdelivery"),
                Err(RouteError::HardwareFault {
                    main_stage,
                    internal_stage,
                    ..
                }) => {
                    assert_eq!((main_stage, internal_stage), (1, 0));
                    caught += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(caught > 0, "fault never fired across 40 permutations");
    }

    #[test]
    fn permissive_routes_conserve_records() {
        let net = BnbNetwork::builder(3)
            .policy(RoutePolicy::Permissive)
            .build();
        let faults = FaultMap::single(FaultSite::new(0, 1, 2), FaultKind::DeadArbiter);
        let mut fabric = FaultyFabric::new(net, faults);
        let mut rng = StdRng::seed_from_u64(92);
        for _ in 0..20 {
            let lines = records_for_permutation(&Permutation::random(8, &mut rng));
            let mut out = fabric.route(&lines).unwrap();
            let mut expected = lines.clone();
            out.sort();
            expected.sort();
            assert_eq!(out, expected, "record multiset must be conserved");
        }
    }

    #[test]
    fn broken_link_on_zero_bit_is_harmless() {
        // Line 0's record targets destination 0, so every stage-0 address
        // bit it taps is already 0: the stuck-at-0 tap changes nothing.
        let net = BnbNetwork::builder(3).build();
        let faults = FaultMap::single(FaultSite::new(0, 0, 0), FaultKind::BrokenLink);
        let mut fabric = FaultyFabric::new(net, faults);
        let lines = records_for_permutation(&Permutation::identity(8));
        let out = fabric.route(&lines).unwrap();
        assert!(all_delivered(&out));
    }

    #[test]
    fn element_domains_follow_the_topology() {
        // m = 3, column (0, 0): one 8-wide box, 4 switches, 8 lines.
        assert_eq!(FaultKind::DeadArbiter.elements(3, 0, 0), 1);
        assert_eq!(FaultKind::StuckStraight.elements(3, 0, 0), 4);
        assert_eq!(FaultKind::BrokenLink.elements(3, 0, 0), 8);
        // Column (1, 1): sp(1) boxes, width 2 → 4 boxes.
        assert_eq!(FaultKind::DeadArbiter.elements(3, 1, 1), 4);
        let f = HardwareFault {
            site: FaultSite::new(2, 0, 3),
            kind: FaultKind::DeadArbiter,
        };
        assert!(f.in_bounds(3));
        assert!(!f.in_bounds(2));
    }
}
