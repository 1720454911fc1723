//! The splitter `sp(p)` (Definition 3, Theorem 3), behavioural model.
//!
//! A `2^p × 2^p` splitter self-routes its one-bit inputs so that the number
//! of ones on even-numbered outputs equals the number on odd-numbered
//! outputs (`M_e = M_o`). It consists of an arbiter [`crate::arbiter`] and a
//! bank of `2^{p-1}` 2×2 switches; switch `t` is set by
//! `control_t = s(2t) ⊕ flag_t` (paper §4, step 5). For `p = 1` the splitter
//! sorts its two distinct bits: 0 up, 1 down.
//!
//! The controls are the signals that the *other* `q − 1` slices of a nested
//! network copy — "this switch setting signal is sent to all other sw(1)'s
//! in the corresponding locations of other slices" (§4).

use serde::{Deserialize, Serialize};

use crate::arbiter::arbiter_sweep;
use crate::error::RouteError;

/// The outcome of running one splitter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitOutcome {
    /// One control per 2×2 switch: `false` = straight, `true` = exchange.
    pub controls: Vec<bool>,
    /// The routed one-bit outputs.
    pub outputs: Vec<bool>,
}

/// Describes where a splitter sits, for error reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitterSite {
    /// Main-network stage (0 when running a splitter standalone).
    pub main_stage: usize,
    /// Internal stage within the nested network / bit-sorter.
    pub internal_stage: usize,
    /// Global index of the splitter's first line.
    pub first_line: usize,
}

/// Checks the paper's §4 input assumption: an even number of ones for
/// `p ≥ 2`, exactly one 1 for `p = 1`.
///
/// # Errors
///
/// Returns [`RouteError::UnbalancedSplitter`] when violated.
pub fn check_balanced(bits: &[bool], site: SplitterSite) -> Result<(), RouteError> {
    let ones = bits.iter().filter(|&&b| b).count();
    let ok = if bits.len() == 2 {
        ones == 1
    } else {
        ones % 2 == 0
    };
    if ok {
        Ok(())
    } else {
        Err(RouteError::UnbalancedSplitter {
            main_stage: site.main_stage,
            internal_stage: site.internal_stage,
            first_line: site.first_line,
            width: bits.len(),
            ones,
        })
    }
}

/// The output audit of a splitter in a faulted column: the ones its
/// switches send to even and odd outputs, `(M_e, M_o)`, when they break
/// Definition 3 (`M_e = M_o`; exactly `(0, 1)` for `sp(1)`), else `None`.
/// Switch `t` emits input pair `t` swapped iff `flags[t]`, so the output
/// follows from the true input bits and the settings actually applied.
pub(crate) fn unbalanced_output(bits: &[bool], flags: &[bool]) -> Option<(usize, usize)> {
    let (mut even_ones, mut odd_ones) = (0, 0);
    for (t, &c) in flags.iter().enumerate() {
        let (a, b) = (bits[2 * t], bits[2 * t + 1]);
        let (even, odd) = if c { (b, a) } else { (a, b) };
        even_ones += usize::from(even);
        odd_ones += usize::from(odd);
    }
    let balanced = if bits.len() == 2 {
        even_ones == 0 && odd_ones == 1
    } else {
        even_ones == odd_ones
    };
    (!balanced).then_some((even_ones, odd_ones))
}

/// Computes the switch controls of a splitter from its input bits, without
/// routing anything. This is the arbiter plus the `s ⊕ f` XOR — the entire
/// control plane of one splitter.
///
/// # Panics
///
/// Panics if `bits.len()` is not a power of two or is less than 2.
pub fn controls(bits: &[bool]) -> Vec<bool> {
    let sweep = arbiter_sweep(bits);
    sweep
        .flags
        .iter()
        .enumerate()
        .map(|(t, &f)| bits[2 * t] ^ f)
        .collect()
}

/// Allocation-free variant of [`controls`]: computes the switch controls
/// into `out`, using `up` as scratch for the arbiter's up-sweep levels.
/// Produces exactly the same controls as [`controls`]; buffers are cleared
/// and refilled, so they can be reused across calls.
///
/// # Panics
///
/// Panics if `bits.len()` is not a power of two or is less than 2.
pub fn controls_into(bits: &[bool], up: &mut Vec<bool>, out: &mut Vec<bool>) {
    let n = bits.len();
    assert!(
        n >= 2 && n.is_power_of_two(),
        "splitter needs 2^p >= 2 inputs"
    );
    out.clear();
    if n == 2 {
        // sp(1): flag is 0, control = s(0).
        out.push(bits[0]);
        return;
    }
    let p = n.trailing_zeros() as usize;
    // Up-sweep: levels 1..=p concatenated in `up`; level l has n >> l
    // entries starting at offset(l) = n - (n >> (l - 1)).
    up.clear();
    for t in 0..n / 2 {
        up.push(bits[2 * t] ^ bits[2 * t + 1]);
    }
    let mut level_start = 0usize;
    let mut level_len = n / 2;
    for _ in 2..=p {
        for t in 0..level_len / 2 {
            let v = up[level_start + 2 * t] ^ up[level_start + 2 * t + 1];
            up.push(v);
        }
        level_start += level_len;
        level_len /= 2;
    }
    // Down-sweep expanding in place inside `out`: start from the root's
    // echo and double each level, reading zu values from `up`.
    let root_zu = *up.last().expect("p >= 2 has at least one level");
    out.push(root_zu);
    let mut zu_start = up.len() - 1; // start of the level being processed
    let mut len = 1usize;
    for _ in (1..=p).rev() {
        out.resize(2 * len, false);
        for t in (0..len).rev() {
            let zd = out[t];
            let zu = up[zu_start + t];
            let (y1, y2) = if zu { (zd, zd) } else { (false, true) };
            out[2 * t] = y1;
            out[2 * t + 1] = y2;
        }
        len *= 2;
        if len < n {
            zu_start -= len; // previous (lower) level starts len entries earlier
        }
    }
    debug_assert_eq!(out.len(), n);
    // Controls: control_t = s(2t) ⊕ flag(2t); compact in place.
    for t in 0..n / 2 {
        out[t] = bits[2 * t] ^ out[2 * t];
    }
    out.truncate(n / 2);
}

/// Runs a full splitter: computes controls and routes the input bits.
///
/// `controls[t] == false` sends `bits[2t]` to the even output `2t`;
/// `true` exchanges the pair.
///
/// # Panics
///
/// Panics if `bits.len()` is not a power of two or is less than 2.
///
/// # Example
///
/// ```
/// use bnb_core::splitter::split;
///
/// let out = split(&[true, true, false, false]);
/// // M_e = M_o: one 1 on even outputs, one on odd.
/// let even: usize = out.outputs.iter().step_by(2).filter(|&&b| b).count();
/// let odd: usize = out.outputs.iter().skip(1).step_by(2).filter(|&&b| b).count();
/// assert_eq!(even, odd);
/// ```
pub fn split(bits: &[bool]) -> SplitOutcome {
    let ctl = controls(bits);
    let mut outputs = Vec::with_capacity(bits.len());
    for (t, &c) in ctl.iter().enumerate() {
        let (a, b) = (bits[2 * t], bits[2 * t + 1]);
        if c {
            outputs.push(b);
            outputs.push(a);
        } else {
            outputs.push(a);
            outputs.push(b);
        }
    }
    SplitOutcome {
        controls: ctl,
        outputs,
    }
}

/// Applies precomputed switch controls to a slice of arbitrary items —
/// how the non-BSN slices of a nested network follow the BSN's routing.
///
/// # Panics
///
/// Panics if `items.len() != 2 * controls.len()`.
pub fn apply_controls<T: Copy>(controls: &[bool], items: &mut [T]) {
    assert_eq!(items.len(), 2 * controls.len(), "one control per item pair");
    for (t, &c) in controls.iter().enumerate() {
        if c {
            items.swap(2 * t, 2 * t + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn even_odd_ones(outputs: &[bool]) -> (usize, usize) {
        let even = outputs.iter().step_by(2).filter(|&&b| b).count();
        let odd = outputs.iter().skip(1).step_by(2).filter(|&&b| b).count();
        (even, odd)
    }

    /// Theorem 3, exhaustively for p = 1..4: every even-weight input is
    /// split so that M_e = M_o, and the output is a permutation of the
    /// input bits.
    #[test]
    fn theorem_3_exhaustive() {
        for p in 1..=4usize {
            let n = 1 << p;
            for pattern in 0..(1u32 << n) {
                let bits: Vec<bool> = (0..n).map(|j| pattern >> j & 1 == 1).collect();
                let ones = bits.iter().filter(|&&b| b).count();
                let valid = if p == 1 { ones == 1 } else { ones % 2 == 0 };
                if !valid {
                    continue;
                }
                let out = split(&bits);
                let (e, o) = even_odd_ones(&out.outputs);
                if p == 1 {
                    // Definition 3, p = 1: 0 to the even output, 1 to the odd.
                    assert_eq!(out.outputs, vec![false, true], "sp(1) input {pattern:b}");
                } else {
                    assert_eq!(e, o, "sp({p}) input {pattern:b}");
                }
                assert_eq!(e + o, ones, "splitter must conserve bits");
            }
        }
    }

    #[test]
    fn p1_sorts_zero_up_one_down() {
        assert_eq!(split(&[true, false]).outputs, vec![false, true]);
        assert_eq!(split(&[false, true]).outputs, vec![false, true]);
    }

    #[test]
    fn type2_pair_with_flag_zero_routes_one_down() {
        // Lemma 1: flags 0 => input 1 goes to OL (odd output).
        // A lone type-2 pair in a 4-wide splitter paired with a type-1 pair:
        // arbiter: node over (0,1) is type-2 -> forwards root echo.
        let out = split(&[false, true, true, true]);
        // Input has 3 ones — invalid under the even assumption; use a valid
        // one instead: (0,1,1,0): two type-2 pairs.
        let out2 = split(&[false, true, true, false]);
        let (e, o) = even_odd_ones(&out2.outputs);
        assert_eq!(e, 1);
        assert_eq!(o, 1);
        // The invalid input must still produce *some* routing (hardware
        // never halts), just without the M_e = M_o guarantee.
        assert_eq!(out.outputs.len(), 4);
    }

    #[test]
    fn check_balanced_accepts_and_rejects() {
        let site = SplitterSite::default();
        assert!(check_balanced(&[true, false], site).is_ok());
        assert!(check_balanced(&[true, true], site).is_err());
        assert!(check_balanced(&[true, true, false, false], site).is_ok());
        let err = check_balanced(&[true, true, true, false], site).unwrap_err();
        assert!(matches!(
            err,
            RouteError::UnbalancedSplitter {
                ones: 3,
                width: 4,
                ..
            }
        ));
    }

    #[test]
    fn apply_controls_swaps_pairs() {
        let mut items = [10, 20, 30, 40];
        apply_controls(&[true, false], &mut items);
        assert_eq!(items, [20, 10, 30, 40]);
    }

    #[test]
    fn controls_match_split_routing() {
        let bits = [true, false, false, true, true, true, false, false];
        let out = split(&bits);
        let mut copy = bits;
        apply_controls(&out.controls, &mut copy);
        assert_eq!(copy.to_vec(), out.outputs);
    }

    #[test]
    fn controls_into_matches_controls_exhaustively() {
        let mut up = Vec::new();
        let mut out = Vec::new();
        for p in 1..=4usize {
            let n = 1 << p;
            for pattern in 0..(1u32 << n) {
                let bits: Vec<bool> = (0..n).map(|j| pattern >> j & 1 == 1).collect();
                controls_into(&bits, &mut up, &mut out);
                assert_eq!(out, controls(&bits), "p = {p}, pattern = {pattern:b}");
            }
        }
    }

    #[test]
    fn controls_into_matches_on_wide_random_inputs() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(14);
        let mut up = Vec::new();
        let mut out = Vec::new();
        for p in [6usize, 9] {
            let n = 1 << p;
            for _ in 0..20 {
                let bits: Vec<bool> = (0..n).map(|_| rng.random_bool(0.5)).collect();
                controls_into(&bits, &mut up, &mut out);
                assert_eq!(out, controls(&bits), "p = {p}");
            }
        }
    }

    #[test]
    fn splitter_is_conservative_even_on_invalid_inputs() {
        // Permissive hardware semantics: any input is routed (bits are
        // conserved), only the even-split guarantee is lost.
        for pattern in 0..16u32 {
            let bits: Vec<bool> = (0..4).map(|j| pattern >> j & 1 == 1).collect();
            let out = split(&bits);
            let in_ones = bits.iter().filter(|&&b| b).count();
            let out_ones = out.outputs.iter().filter(|&&b| b).count();
            assert_eq!(in_ones, out_ones);
        }
    }
}
