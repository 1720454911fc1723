//! Conflict diagnosis — the paper's §4 remark made concrete.
//!
//! > "However, the other flags and the other inputs can be used to deal
//! > with the conflicts if needed in some applications."
//!
//! The arbiter computes two flags per pair but the splitter consumes only
//! one; the spare information suffices to *detect* a violated split
//! locally. [`BnbNetwork::route_diagnosed`] routes with hardware semantics
//! (nothing stops) while reporting, per splitter, whether its balance
//! assumption held — the on-line conflict detector an application would
//! attach to the spare flags — plus the resulting misdeliveries.

use bnb_obs::{ConflictEvent, NoopObserver, Observer};
use bnb_topology::bitops::paper_bit;
use bnb_topology::record::Record;
use serde::{Deserialize, Serialize};

use crate::error::RouteError;
use crate::network::BnbNetwork;
use crate::splitter::{check_balanced, controls, SplitterSite};

/// Outcome of a diagnosed (permissive + instrumented) route.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnosis {
    /// The routed output lines.
    pub outputs: Vec<Record>,
    /// Every splitter whose §4 balance assumption was violated, in
    /// traversal order.
    pub unbalanced: Vec<SplitterSite>,
    /// Output lines whose record did not reach its destination.
    pub misdelivered: Vec<usize>,
}

impl Diagnosis {
    /// `true` when the route was conflict-free and fully delivered.
    pub fn is_clean(&self) -> bool {
        self.unbalanced.is_empty() && self.misdelivered.is_empty()
    }
}

impl BnbNetwork {
    /// Routes with hardware semantics, through the network's own
    /// [`WiringMode`](crate::network::WiringMode), while detecting every
    /// violated splitter assumption — what a deployment would wire to the
    /// arbiters' spare flags. Never fails on unbalanced traffic;
    /// structural input problems are still rejected.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::WidthMismatch`],
    /// [`RouteError::DestinationTooWide`] or [`RouteError::DataTooWide`]
    /// for malformed records.
    pub fn route_diagnosed(&self, records: &[Record]) -> Result<Diagnosis, RouteError> {
        self.route_diagnosed_observed(records, &NoopObserver)
    }

    /// [`BnbNetwork::route_diagnosed`] with instrumentation: every
    /// violated splitter additionally raises a
    /// [`ConflictEvent`] on `observer` as it is detected, so a live sink
    /// sees conflicts in traversal order without waiting for the final
    /// [`Diagnosis`].
    ///
    /// # Errors
    ///
    /// Same as [`BnbNetwork::route_diagnosed`].
    pub fn route_diagnosed_observed<O: Observer>(
        &self,
        records: &[Record],
        observer: &O,
    ) -> Result<Diagnosis, RouteError> {
        let observing = observer.enabled();
        let n = self.inputs();
        let m = self.m();
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
            if self.w() < 64 && r.data() >> self.w() != 0 {
                return Err(RouteError::DataTooWide {
                    data: r.data(),
                    w: self.w(),
                });
            }
        }
        let mut lines = records.to_vec();
        let mut unbalanced = Vec::new();
        for main_stage in 0..m {
            let k = m - main_stage;
            for internal in 0..k {
                let box_size = 1usize << (k - internal);
                for start in (0..n).step_by(box_size) {
                    let bits: Vec<bool> = lines[start..start + box_size]
                        .iter()
                        .map(|r| paper_bit(m, r.dest(), main_stage))
                        .collect();
                    let site = SplitterSite {
                        main_stage,
                        internal_stage: internal,
                        first_line: start,
                    };
                    if check_balanced(&bits, site).is_err() {
                        if observing {
                            observer.splitter_conflict(ConflictEvent {
                                main_stage,
                                internal_stage: internal,
                                first_line: start,
                                width: box_size,
                                ones: bits.iter().filter(|&&b| b).count(),
                            });
                        }
                        unbalanced.push(site);
                    }
                    for (t, &c) in controls(&bits).iter().enumerate() {
                        if c {
                            lines.swap(start + 2 * t, start + 2 * t + 1);
                        }
                    }
                }
                // The network's own wiring on the low r line-index bits:
                // the box width's inside a stage, k for the main wiring
                // (the fabric's very last column has none).
                let r = if internal + 1 < k {
                    k - internal
                } else if main_stage + 1 < m {
                    k
                } else {
                    continue;
                };
                let mut wired = vec![Record::new(0, 0); n];
                for (j, &rec) in lines.iter().enumerate() {
                    wired[self.wiring().wire(r, m, j)] = rec;
                }
                lines = wired;
            }
        }
        let misdelivered = lines
            .iter()
            .enumerate()
            .filter(|(j, r)| r.dest() != *j)
            .map(|(j, _)| j)
            .collect();
        Ok(Diagnosis {
            outputs: lines,
            unbalanced,
            misdelivered,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnb_topology::perm::Permutation;
    use bnb_topology::record::records_for_permutation;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn valid_permutations_diagnose_clean() {
        let mut rng = StdRng::seed_from_u64(70);
        let net = BnbNetwork::builder(4).data_width(32).build();
        for _ in 0..20 {
            let p = Permutation::random(16, &mut rng);
            let d = net.route_diagnosed(&records_for_permutation(&p)).unwrap();
            assert!(d.is_clean(), "clean traffic must diagnose clean");
        }
    }

    #[test]
    fn duplicates_are_localized_by_the_detector() {
        // A duplicated destination trips at least one splitter, and the
        // diagnosis pinpoints misdelivered outputs.
        let net = BnbNetwork::builder(3).data_width(8).build();
        let mut recs = records_for_permutation(&Permutation::identity(8));
        recs[6] = Record::new(1, 6); // 1 appears twice, 6 unserved
        let d = net.route_diagnosed(&recs).unwrap();
        assert!(
            !d.unbalanced.is_empty(),
            "the violated assumption must be detected"
        );
        assert!(!d.misdelivered.is_empty());
        assert!(!d.is_clean());
        // Conservation still holds.
        let mut data: Vec<u64> = d.outputs.iter().map(Record::data).collect();
        data.sort_unstable();
        assert_eq!(data, (0..8).collect::<Vec<u64>>());
    }

    /// On every wiring, ablations included, the diagnosed route is the
    /// permissive route, and its misdelivery list is read off that route.
    #[test]
    fn diagnosis_matches_permissive_routing() {
        use crate::network::{RoutePolicy, WiringMode};
        for wiring in [
            WiringMode::Unshuffle,
            WiringMode::Identity,
            WiringMode::Shuffle,
        ] {
            let mut rng = StdRng::seed_from_u64(71);
            let strictless = BnbNetwork::builder(3)
                .data_width(8)
                .wiring(wiring)
                .policy(RoutePolicy::Permissive)
                .build();
            let net = BnbNetwork::builder(3).data_width(8).wiring(wiring).build();
            for _ in 0..30 {
                let recs: Vec<Record> = (0..8)
                    .map(|_| Record::new(rng.random_range(0..8), rng.random_range(0..256)))
                    .collect();
                let d = net.route_diagnosed(&recs).unwrap();
                let p = strictless.route(&recs).unwrap();
                assert_eq!(
                    d.outputs, p,
                    "{wiring:?}: diagnosed route must equal permissive route"
                );
                let wrong: Vec<usize> = (0..8).filter(|&j| p[j].dest() != j).collect();
                assert_eq!(d.misdelivered, wrong, "{wiring:?}");
            }
        }
    }

    #[test]
    fn detector_count_bounds_misdeliveries() {
        // Misrouting requires at least one violated splitter somewhere.
        let mut rng = StdRng::seed_from_u64(72);
        let net = BnbNetwork::builder(4).data_width(16).build();
        for _ in 0..30 {
            let recs: Vec<Record> = (0..16)
                .map(|i| Record::new(rng.random_range(0..16), i as u64))
                .collect();
            let d = net.route_diagnosed(&recs).unwrap();
            if !d.misdelivered.is_empty() {
                assert!(
                    !d.unbalanced.is_empty(),
                    "misdelivery without a detected conflict is impossible"
                );
            }
        }
    }

    #[test]
    fn observed_diagnosis_reports_each_conflict_once() {
        use bnb_obs::Counters;
        let net = BnbNetwork::builder(3).data_width(8).build();
        let mut recs = records_for_permutation(&Permutation::identity(8));
        recs[6] = Record::new(1, 6);
        let counters = Counters::new();
        let d = net.route_diagnosed_observed(&recs, &counters).unwrap();
        assert_eq!(
            counters.snapshot().conflicts,
            d.unbalanced.len() as u64,
            "one ConflictEvent per violated splitter"
        );
    }

    #[test]
    fn structural_validation_still_applies() {
        let net = BnbNetwork::new(2);
        assert!(net.route_diagnosed(&[Record::new(0, 0)]).is_err());
    }
}
