//! Exact sample statistics, the client's frame ledger, and reply checking.

/// Nearest-rank quantile of ascending `sorted` samples: the smallest
/// sample with at least `q·n` samples at or below it. Exact — no buckets.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// A quantile reported with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The quantile, e.g. `0.99`.
    pub q: f64,
    pub value: u64,
    /// Samples the quantile was taken over.
    pub samples: usize,
    /// Samples strictly above the quantile's rank.
    pub beyond: usize,
}

/// Quantiles a tail is reported at, lowest first.
const TAILS: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Fewest samples that must lie beyond a reported tail quantile.
pub const MIN_BEYOND: usize = 10;

/// `q` over ascending `sorted`, with its sample count and how many
/// samples lie beyond its rank.
pub fn quantile_with_count(sorted: &[u64], q: f64) -> Quantile {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Quantile {
        q,
        value: quantile(sorted, q),
        samples: n,
        beyond: n - rank,
    }
}

/// The highest of p50, p90, p99, p99.9, p99.99 that still has at least
/// [`MIN_BEYOND`] samples beyond it; `None` when even the median has not.
pub fn highest_supported_tail(sorted: &[u64]) -> Option<Quantile> {
    if sorted.is_empty() {
        return None;
    }
    TAILS
        .iter()
        .rev()
        .map(|&q| quantile_with_count(sorted, q))
        .find(|t| t.beyond >= MIN_BEYOND)
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
}

/// Every frame the client offered, by how it ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    pub submitted: u64,
    /// ROUTED replies that matched their permutation.
    pub served: u64,
    /// ROUTED replies that did not.
    pub misdelivered: u64,
    pub retried: u64,
    pub errored: u64,
    /// Submitted frames with no reply by the end of the drain.
    pub unanswered: u64,
    /// Replies naming no outstanding request, or of an unexpected kind.
    pub surprises: u64,
}

impl Ledger {
    /// Every submitted frame ended exactly one way.
    pub fn balances(&self) -> bool {
        self.submitted
            == self.served + self.misdelivered + self.retried + self.errored + self.unanswered
    }

    /// Frames that did not come back correct, plus protocol surprises.
    pub fn failed(&self) -> u64 {
        self.misdelivered + self.retried + self.errored + self.unanswered + self.surprises
    }

    /// [`Ledger::failed`] as a share of frames submitted.
    pub fn failed_frac(&self) -> f64 {
        self.failed() as f64 / self.submitted.max(1) as f64
    }
}

/// True when a ROUTED reply delivers the submitted permutation: output
/// `j` received the input whose destination was `j`, and every output
/// is covered exactly once.
pub fn verify_routed(dests: &[u32], sources: &[u32]) -> bool {
    if sources.len() != dests.len() {
        return false;
    }
    let mut seen = vec![false; dests.len()];
    for (j, &src) in sources.iter().enumerate() {
        let src = src as usize;
        if src >= dests.len() || seen[src] || dests[src] as usize != j {
            return false;
        }
        seen[src] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&sorted, 0.5), 50);
        assert_eq!(quantile(&sorted, 0.99), 99);
        assert_eq!(quantile(&sorted, 1.0), 100);
        assert_eq!(quantile(&sorted, 0.0), 1);
        assert_eq!(quantile(&[7], 0.99), 7);
        // Duplicates and odd counts: ranks, not interpolation.
        assert_eq!(quantile(&[1, 2, 2, 2, 9], 0.5), 2);
        assert_eq!(quantile(&[1, 2, 2, 2, 9], 0.9), 9);
        let p99 = quantile_with_count(&sorted, 0.99);
        assert_eq!((p99.value, p99.samples, p99.beyond), (99, 100, 1));
    }

    #[test]
    fn tail_is_the_highest_quantile_with_ten_samples_beyond() {
        let thousand: Vec<u64> = (0..1000).collect();
        let tail = highest_supported_tail(&thousand).unwrap();
        assert_eq!((tail.q, tail.value, tail.beyond), (0.99, 989, 10));
        let ten_thousand: Vec<u64> = (0..10_000).collect();
        let tail = highest_supported_tail(&ten_thousand).unwrap();
        assert_eq!((tail.q, tail.value, tail.beyond), (0.999, 9989, 10));
        assert_eq!(highest_supported_tail(&[1, 2, 3]), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn verify_accepts_the_route_and_rejects_corrupted_sources() {
        // dests: input i -> output 3 - i, so output j holds input 3 - j.
        let dests = [3, 2, 1, 0];
        assert!(verify_routed(&dests, &[3, 2, 1, 0]));
        // Two outputs swapped.
        assert!(!verify_routed(&dests, &[2, 3, 1, 0]));
        // One input delivered twice, another lost.
        assert!(!verify_routed(&dests, &[3, 3, 1, 0]));
        // A source that names no input.
        assert!(!verify_routed(&dests, &[3, 2, 1, 4]));
        // Truncated and padded replies.
        assert!(!verify_routed(&dests, &[3, 2, 1]));
        assert!(!verify_routed(&dests, &[3, 2, 1, 0, 0]));
    }

    #[test]
    fn failed_frac_counts_every_kind_of_failure_against_submissions() {
        let ledger = Ledger {
            submitted: 200,
            served: 188,
            misdelivered: 2,
            retried: 4,
            errored: 3,
            unanswered: 3,
            surprises: 1,
        };
        assert!(ledger.balances());
        assert_eq!(ledger.failed(), 13);
        assert!((ledger.failed_frac() - 0.065).abs() < 1e-12);
        let lost = Ledger {
            unanswered: 2,
            ..ledger
        };
        assert!(
            !lost.balances(),
            "a frame lost from the ledger must not balance"
        );
        assert_eq!(Ledger::default().failed_frac(), 0.0);
    }
}
