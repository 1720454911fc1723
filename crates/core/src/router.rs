//! Allocation-free batch routing.
//!
//! [`crate::network::BnbNetwork::route`] allocates fresh line buffers per
//! call — fine for tests, wasteful for a switch fabric routing millions of
//! batches. [`Router`] owns the scratch buffers and routes in place with a
//! double-buffer swap, producing bit-identical results (property-tested
//! against the allocating path).

use bnb_obs::{NoopObserver, Observer};
use bnb_topology::record::Record;

use crate::error::RouteError;
use crate::network::BnbNetwork;
use crate::stages::{validate_lines, RouteSpan, StageScratch};

/// A reusable router bound to one network configuration.
///
/// The `O` type parameter is the attached [`Observer`]; it defaults to
/// [`NoopObserver`], which costs nothing. Construct observed routers with
/// [`Router::with_observer`] or the network builder's
/// `observer(..).build_router()`.
///
/// # Example
///
/// ```
/// use bnb_core::network::BnbNetwork;
/// use bnb_topology::perm::Permutation;
/// use bnb_topology::record::{records_for_permutation, all_delivered};
///
/// let mut router = BnbNetwork::builder_for(8)?.build_router();
/// let p = Permutation::try_from(vec![6, 3, 0, 5, 2, 7, 4, 1])?;
/// let mut lines = records_for_permutation(&p);
/// router.route_in_place(&mut lines)?;
/// assert!(all_delivered(&lines));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// Attaching a metrics sink (shared by reference, so several routers can
/// feed one sink):
///
/// ```
/// use bnb_core::network::BnbNetwork;
/// use bnb_obs::Counters;
/// use bnb_topology::perm::Permutation;
/// use bnb_topology::record::records_for_permutation;
///
/// let counters = Counters::new();
/// let mut router = BnbNetwork::builder(3)
///     .observer(&counters)
///     .build_router();
/// let p = Permutation::try_from(vec![6, 3, 0, 5, 2, 7, 4, 1])?;
/// let mut lines = records_for_permutation(&p);
/// router.route_in_place(&mut lines)?;
/// // eq. (7): m(m+1)/2 switching columns for m = 3.
/// assert_eq!(counters.snapshot().columns, 6);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Router<O: Observer = NoopObserver> {
    network: BnbNetwork,
    scratch: StageScratch,
    seen: Vec<usize>,
    observer: O,
}

impl Router {
    /// An unobserved router for `network`, with scratch buffers sized to
    /// its width.
    pub fn new(network: BnbNetwork) -> Self {
        Router::with_observer(network, NoopObserver)
    }
}

impl<O: Observer> Router<O> {
    /// A router for `network` emitting routing events to `observer`.
    pub fn with_observer(network: BnbNetwork, observer: O) -> Self {
        let n = network.inputs();
        Router {
            network,
            scratch: StageScratch::with_capacity(n),
            seen: vec![usize::MAX; n],
            observer,
        }
    }

    /// The bound network.
    pub fn network(&self) -> &BnbNetwork {
        &self.network
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Routes `lines` in place: on return, `lines[j]` is the record
    /// delivered to output `j`.
    ///
    /// # Errors
    ///
    /// Identical contract to [`BnbNetwork::route`].
    pub fn route_in_place(&mut self, lines: &mut [Record]) -> Result<(), RouteError> {
        validate_lines(&self.network, lines, &mut self.seen)?;
        RouteSpan::new()
            .observer(&self.observer)
            .run(&self.network, lines, &mut self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnb_topology::perm::Permutation;
    use bnb_topology::record::{all_delivered, records_for_permutation};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_allocating_route_on_random_permutations() {
        let mut rng = StdRng::seed_from_u64(60);
        for m in [1usize, 3, 5, 8] {
            let net = BnbNetwork::builder(m).data_width(32).build();
            let mut router = Router::new(net);
            let n = 1usize << m;
            for _ in 0..20 {
                let p = Permutation::random(n, &mut rng);
                let records = records_for_permutation(&p);
                let expected = net.route(&records).unwrap();
                let mut lines = records;
                router.route_in_place(&mut lines).unwrap();
                assert_eq!(lines, expected, "m = {m}");
                assert!(all_delivered(&lines));
            }
        }
    }

    #[test]
    fn router_is_reusable_across_batches() {
        let mut router = Router::new(BnbNetwork::new(4));
        let mut rng = StdRng::seed_from_u64(61);
        for _ in 0..50 {
            let mut lines = records_for_permutation(&Permutation::random(16, &mut rng));
            router.route_in_place(&mut lines).unwrap();
            assert!(all_delivered(&lines));
        }
    }

    #[test]
    fn validation_matches_network_contract() {
        let mut router = Router::new(BnbNetwork::new(2));
        let mut short = vec![Record::new(0, 0)];
        assert!(matches!(
            router.route_in_place(&mut short),
            Err(RouteError::WidthMismatch {
                expected: 4,
                actual: 1
            })
        ));
        let mut dup = vec![
            Record::new(1, 0),
            Record::new(1, 1),
            Record::new(2, 2),
            Record::new(3, 3),
        ];
        assert!(matches!(
            router.route_in_place(&mut dup),
            Err(RouteError::DuplicateDestination { dest: 1, .. })
        ));
    }

    #[test]
    fn permissive_router_matches_permissive_network() {
        use crate::network::RoutePolicy;
        use rand::RngExt;
        let net = BnbNetwork::builder(3)
            .policy(RoutePolicy::Permissive)
            .data_width(8)
            .build();
        let mut router = Router::new(net);
        let mut rng = StdRng::seed_from_u64(62);
        for _ in 0..30 {
            let records: Vec<Record> = (0..8)
                .map(|_| Record::new(rng.random_range(0..8), rng.random_range(0..256)))
                .collect();
            let expected = net.route(&records).unwrap();
            let mut lines = records;
            router.route_in_place(&mut lines).unwrap();
            assert_eq!(lines, expected);
        }
    }
}
