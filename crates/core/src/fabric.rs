//! The [`PermutationNetwork`] trait: one object-safe interface over every
//! permutation-capable network in this workspace (the BNB network and all
//! baselines), so comparisons, registries and generic harnesses don't need
//! to know which design they are driving.

use std::cell::RefCell;

use bnb_topology::record::Record;

use crate::error::RouteError;
use crate::network::BnbNetwork;
use crate::stages::{validate_lines, RouteSpan, StageScratch};

/// An `N`-input network that can deliver a full permutation of records in
/// one pass.
///
/// Implementations exist for [`BnbNetwork`] here and for every baseline in
/// `bnb-baselines` (Batcher, bitonic, Benes, Koppelman, crossbar, cellular
/// array, Clos). The trait is object-safe so heterogeneous collections of
/// networks can be swept generically.
///
/// # Example
///
/// ```
/// use bnb_core::fabric::PermutationNetwork;
/// use bnb_core::network::BnbNetwork;
/// use bnb_topology::perm::Permutation;
/// use bnb_topology::record::{records_for_permutation, all_delivered};
///
/// let net: Box<dyn PermutationNetwork> =
///     Box::new(BnbNetwork::builder_for(8)?.build());
/// let p = Permutation::try_from(vec![4, 0, 7, 1, 6, 2, 5, 3])?;
/// let out = net.route(&records_for_permutation(&p))?;
/// assert!(all_delivered(&out));
///
/// // Reusing one output buffer across frames avoids the per-route
/// // allocation in steady-state sweeps:
/// let mut out_buf = Vec::new();
/// net.route_into(&records_for_permutation(&p), &mut out_buf)?;
/// assert!(all_delivered(&out_buf));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub trait PermutationNetwork {
    /// Network width `N`.
    fn inputs(&self) -> usize;

    /// Routes one record per input; on success `out[j].dest() == j`.
    ///
    /// # Errors
    ///
    /// Implementation-specific [`RouteError`]s for malformed input; a
    /// permutation network never fails on a *valid* permutation.
    fn route(&self, records: &[Record]) -> Result<Vec<Record>, RouteError>;

    /// Routes into a caller-owned buffer so sweeps can reuse one
    /// allocation across frames. `out` is cleared first; on success it
    /// holds the output lines.
    ///
    /// The default delegates to [`route`](PermutationNetwork::route) and
    /// still allocates the intermediate vector; implementations with an
    /// in-place path (the BNB network) override it to route directly in
    /// `out`'s storage.
    ///
    /// # Errors
    ///
    /// Same contract as [`route`](PermutationNetwork::route). On error the
    /// contents of `out` are unspecified (but valid).
    fn route_into(&self, records: &[Record], out: &mut Vec<Record>) -> Result<(), RouteError> {
        let routed = self.route(records)?;
        out.clear();
        out.extend_from_slice(&routed);
        Ok(())
    }

    /// Human-readable design name for reports.
    fn name(&self) -> &'static str;

    /// Whether switch settings are derived locally (self-routing) or by a
    /// global algorithm.
    fn is_self_routing(&self) -> bool;
}

thread_local! {
    /// Scratch for the trait-level in-place route: one set of reusable
    /// buffers per thread, so `route_into` through `&dyn
    /// PermutationNetwork` is allocation-free in steady state without the
    /// trait growing a `&mut self` method.
    static ROUTE_SCRATCH: RefCell<(StageScratch, Vec<usize>)> =
        RefCell::new((StageScratch::default(), Vec::new()));
}

impl PermutationNetwork for BnbNetwork {
    fn inputs(&self) -> usize {
        BnbNetwork::inputs(self)
    }

    fn route(&self, records: &[Record]) -> Result<Vec<Record>, RouteError> {
        BnbNetwork::route(self, records)
    }

    fn route_into(&self, records: &[Record], out: &mut Vec<Record>) -> Result<(), RouteError> {
        out.clear();
        out.extend_from_slice(records);
        ROUTE_SCRATCH.with(|cell| {
            let (scratch, seen) = &mut *cell.borrow_mut();
            validate_lines(self, out, seen)?;
            RouteSpan::new().run(self, out, 0, 0..self.m(), scratch)
        })
    }

    fn name(&self) -> &'static str {
        "BNB"
    }

    fn is_self_routing(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnb_topology::perm::Permutation;
    use bnb_topology::record::{all_delivered, records_for_permutation};

    #[test]
    fn bnb_is_usable_through_the_trait_object() {
        let net: Box<dyn PermutationNetwork> =
            Box::new(BnbNetwork::builder(3).data_width(32).build());
        assert_eq!(net.inputs(), 8);
        assert_eq!(net.name(), "BNB");
        assert!(net.is_self_routing());
        let p = Permutation::try_from(vec![2, 5, 0, 7, 4, 1, 6, 3]).unwrap();
        let out = net.route(&records_for_permutation(&p)).unwrap();
        assert!(all_delivered(&out));
    }

    #[test]
    fn route_into_matches_route_and_reuses_the_buffer() {
        let net: Box<dyn PermutationNetwork> = Box::new(BnbNetwork::new(3));
        let mut out = Vec::new();
        for k in [0u64, 777, 40_319] {
            let p = Permutation::nth_lexicographic(8, k);
            let records = records_for_permutation(&p);
            net.route_into(&records, &mut out).unwrap();
            assert_eq!(out, net.route(&records).unwrap(), "perm #{k}");
        }
        let ptr = out.as_ptr();
        let p = Permutation::identity(8);
        net.route_into(&records_for_permutation(&p), &mut out)
            .unwrap();
        assert_eq!(
            out.as_ptr(),
            ptr,
            "steady-state reroute must reuse the buffer"
        );
    }

    #[test]
    fn route_into_propagates_errors() {
        let net = BnbNetwork::new(2);
        let mut out = Vec::new();
        assert!(matches!(
            PermutationNetwork::route_into(&net, &[Record::new(0, 0)], &mut out),
            Err(RouteError::WidthMismatch { .. })
        ));
    }
}
