//! The [`PathTracer`]: per-cell route reconstruction from hop events.
//!
//! The paper's locality argument (Definition 3, Theorem 3) is a statement
//! about *paths*: each splitter moves a cell toward even or odd outputs
//! using only local arbiter information, and the composition of those
//! local decisions is a correct global route. The tracer turns that from
//! a proof into a checkable runtime artifact — it records every
//! [`HopEvent`] a route emits, groups them by destination address, and
//! [`verify`](PathTracer::verify)s that the recorded hops form exactly
//! the path the network topology dictates:
//!
//! 1. **Coverage** — each cell crosses every column of every main stage,
//!    `m(m+1)/2` hops in lexicographic `(stage, column)` order.
//! 2. **Linkage** — each hop enters on the port the previous hop's exit
//!    wires to (box unshuffle inside a stage, main unshuffle between
//!    stages).
//! 3. **Radix invariant** — after a stage's last column the cell sits on
//!    a line whose parity equals its destination bit for that stage
//!    (the BSN has sorted the balanced bit-vector into `0101…`).
//! 4. **Delivery** — the exit of the final stage is the destination.
//!
//! Tracing a frame of `N` cells costs `N·m(m+1)/2` hop records, so the
//! tracer is a diagnostic sink, not a production default: it takes a
//! `Mutex` per hop and allocates as paths grow. For always-on recording
//! use `bnb_obs::FlightRecorder` with sampling instead.

use std::sync::Mutex;

use bnb_obs::{HopEvent, Observer};
use bnb_topology::bitops::paper_bit;

use crate::network::BnbNetwork;

/// A recorded path that contradicts the network topology, the radix-sort
/// invariant, or the delivery contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathError {
    /// A cell recorded the wrong number of hops.
    HopCount {
        /// Destination address of the cell.
        dest: usize,
        /// Hops the topology dictates (`m(m+1)/2`).
        expected: usize,
        /// Hops actually recorded.
        actual: usize,
    },
    /// A hop is out of `(main stage, column)` lexicographic order.
    OutOfOrder {
        /// Destination address of the cell.
        dest: usize,
        /// Index of the offending hop in the cell's sequence.
        index: usize,
    },
    /// A hop entered on a port the previous hop's exit does not wire to.
    BrokenLink {
        /// Destination address of the cell.
        dest: usize,
        /// Main stage of the offending hop.
        main_stage: usize,
        /// Column of the offending hop.
        internal_stage: usize,
        /// Port the wiring dictates.
        expected_port: usize,
        /// Port the hop recorded.
        actual_port: usize,
    },
    /// A hop's splitter site or sweep ordinal disagrees with its port.
    WrongSite {
        /// Destination address of the cell.
        dest: usize,
        /// Main stage of the offending hop.
        main_stage: usize,
        /// Column of the offending hop.
        internal_stage: usize,
    },
    /// After a stage's last column the cell's line parity does not match
    /// its destination bit — the radix-sort invariant is violated.
    ParityViolation {
        /// Destination address of the cell.
        dest: usize,
        /// Main stage whose final column broke the invariant.
        main_stage: usize,
        /// Line the cell exited the column on.
        exit_port: usize,
    },
    /// The final stage delivered the cell to the wrong output line.
    WrongExit {
        /// Destination address of the cell.
        dest: usize,
        /// Line the route actually ends on.
        exit_port: usize,
    },
}

impl std::fmt::Display for PathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PathError::HopCount {
                dest,
                expected,
                actual,
            } => write!(
                f,
                "cell {dest}: recorded {actual} hops, topology dictates {expected}"
            ),
            PathError::OutOfOrder { dest, index } => {
                write!(
                    f,
                    "cell {dest}: hop {index} is out of (stage, column) order"
                )
            }
            PathError::BrokenLink {
                dest,
                main_stage,
                internal_stage,
                expected_port,
                actual_port,
            } => write!(
                f,
                "cell {dest}: stage {main_stage} column {internal_stage} entered on port \
                 {actual_port}, wiring dictates {expected_port}"
            ),
            PathError::WrongSite {
                dest,
                main_stage,
                internal_stage,
            } => write!(
                f,
                "cell {dest}: stage {main_stage} column {internal_stage} splitter site \
                 disagrees with the entry port"
            ),
            PathError::ParityViolation {
                dest,
                main_stage,
                exit_port,
            } => write!(
                f,
                "cell {dest}: exited stage {main_stage} on port {exit_port}, whose parity \
                 contradicts destination bit {main_stage} (radix invariant)"
            ),
            PathError::WrongExit { dest, exit_port } => {
                write!(f, "cell {dest}: delivered to output {exit_port}")
            }
        }
    }
}

impl std::error::Error for PathError {}

/// An [`Observer`] that records every hop, grouped by destination
/// address, and reconstructs + verifies full routes. See the
/// [module docs](self).
///
/// # Example
///
/// ```
/// use bnb_core::{BnbNetwork, PathTracer};
/// use bnb_topology::perm::Permutation;
/// use bnb_topology::record::records_for_permutation;
///
/// let net = BnbNetwork::new(3);
/// let tracer = PathTracer::with_inputs(net.inputs());
/// let perm = Permutation::try_from(vec![5, 2, 7, 0, 4, 6, 1, 3])?;
/// net.route_observed(&records_for_permutation(&perm), &tracer)?;
/// tracer.verify(&net)?; // every recorded path matches the topology
/// assert_eq!(tracer.hops_for(5).len(), 3 * 4 / 2); // m(m+1)/2
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct PathTracer {
    hops: Mutex<Vec<Vec<HopEvent>>>,
}

impl PathTracer {
    /// A tracer for an `n`-input network. Hops whose destination is out
    /// of range (possible under `RoutePolicy::Permissive` garbage
    /// traffic) are ignored.
    pub fn with_inputs(n: usize) -> Self {
        PathTracer {
            hops: Mutex::new(vec![Vec::new(); n]),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Vec<HopEvent>>> {
        self.hops.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The recorded hops of destination `dest`, in emission order.
    pub fn hops_for(&self, dest: usize) -> Vec<HopEvent> {
        self.lock().get(dest).cloned().unwrap_or_default()
    }

    /// All recorded hops, indexed by destination; the tracer is left
    /// empty (sized as before) for reuse.
    pub fn take(&self) -> Vec<Vec<HopEvent>> {
        let mut guard = self.lock();
        let n = guard.len();
        std::mem::replace(&mut *guard, vec![Vec::new(); n])
    }

    /// Discards all recorded hops.
    pub fn clear(&self) {
        for path in self.lock().iter_mut() {
            path.clear();
        }
    }

    /// Total hops recorded (a full traced route of an `N = 2^m` frame
    /// yields `N·m(m+1)/2`).
    pub fn total_hops(&self) -> usize {
        self.lock().iter().map(Vec::len).sum()
    }

    /// Main-stage hops recorded — hops through a stage's first column
    /// (`internal_stage == 0`); exactly `m` per cell, `N·m` per frame.
    pub fn main_stage_hops(&self) -> usize {
        self.lock()
            .iter()
            .flatten()
            .filter(|h| h.internal_stage == 0)
            .count()
    }

    /// Verifies every recorded path against `net`'s topology: coverage,
    /// linkage, site consistency, the per-stage radix (parity)
    /// invariant, and final delivery. Destinations with no recorded
    /// hops are skipped (supports traced *slices*); call after a traced
    /// full route to check the whole permutation.
    ///
    /// # Errors
    ///
    /// The first [`PathError`] found, scanning destinations in order.
    pub fn verify(&self, net: &BnbNetwork) -> Result<(), PathError> {
        let m = net.m();
        let mode = net.wiring();
        let expected_hops = m * (m + 1) / 2;
        let guard = self.lock();
        for (dest, path) in guard.iter().enumerate() {
            if path.is_empty() {
                continue;
            }
            if path.len() != expected_hops {
                return Err(PathError::HopCount {
                    dest,
                    expected: expected_hops,
                    actual: path.len(),
                });
            }
            let mut port = path[0].port;
            let mut index = 0usize;
            for main_stage in 0..m {
                let k = m - main_stage;
                for internal in 0..k {
                    let hop = &path[index];
                    if hop.main_stage != main_stage || hop.internal_stage != internal {
                        return Err(PathError::OutOfOrder { dest, index });
                    }
                    if hop.port != port {
                        return Err(PathError::BrokenLink {
                            dest,
                            main_stage,
                            internal_stage: internal,
                            expected_port: port,
                            actual_port: hop.port,
                        });
                    }
                    let box_size = 1usize << (k - internal);
                    let site = port & !(box_size - 1);
                    if hop.first_line != site || hop.sweep != site / box_size {
                        return Err(PathError::WrongSite {
                            dest,
                            main_stage,
                            internal_stage: internal,
                        });
                    }
                    // The switch setting actually applied: pairs are
                    // even/odd adjacent, so an exchange flips the low bit.
                    let exit = if hop.exchanged { port ^ 1 } else { port };
                    let last_internal = internal + 1 == k;
                    if last_internal {
                        // Radix invariant: the stage's BSN has sorted the
                        // balanced destination-bit vector into 0101…, so
                        // the exit parity *is* the destination bit.
                        if (exit & 1 == 1) != paper_bit(m, dest, main_stage) {
                            return Err(PathError::ParityViolation {
                                dest,
                                main_stage,
                                exit_port: exit,
                            });
                        }
                        port = if main_stage + 1 < m {
                            mode.wire(k, m, exit)
                        } else {
                            exit
                        };
                    } else {
                        let box_log = k - internal;
                        port = site | mode.wire(box_log, box_log, exit & (box_size - 1));
                    }
                    index += 1;
                }
            }
            if port != dest {
                return Err(PathError::WrongExit {
                    dest,
                    exit_port: port,
                });
            }
        }
        Ok(())
    }

    /// Renders destination `dest`'s recorded path as one line per hop:
    /// stage, column, splitter site, sweep ordinal, entry port, and the
    /// applied setting (`=` straight, `x` exchange).
    pub fn render(&self, dest: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "cell {dest}");
        for h in self.hops_for(dest) {
            let exit = if h.exchanged { h.port ^ 1 } else { h.port };
            let _ = writeln!(
                out,
                "  stage {} col {}  splitter@{} sweep {}  port {} {} {}",
                h.main_stage,
                h.internal_stage,
                h.first_line,
                h.sweep,
                h.port,
                if h.exchanged { "x" } else { "=" },
                exit,
            );
        }
        out
    }
}

impl Observer for PathTracer {
    #[inline]
    fn wants_hops(&self) -> bool {
        true
    }

    fn cell_hop(&self, event: HopEvent) {
        let mut guard = self.lock();
        if let Some(path) = guard.get_mut(event.dest) {
            path.push(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnb_topology::perm::Permutation;
    use bnb_topology::record::records_for_permutation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn traced_routes_verify_for_random_permutations() {
        let mut rng = StdRng::seed_from_u64(41);
        for m in 2usize..=4 {
            let n = 1usize << m;
            let net = BnbNetwork::new(m);
            for _ in 0..20 {
                let tracer = PathTracer::with_inputs(n);
                let records = records_for_permutation(&Permutation::random(n, &mut rng));
                net.route_observed(&records, &tracer).unwrap();
                tracer.verify(&net).unwrap();
                assert_eq!(tracer.total_hops(), n * m * (m + 1) / 2);
                assert_eq!(tracer.main_stage_hops(), n * m);
            }
        }
    }

    #[test]
    fn verify_holds_for_every_wiring_mode() {
        use crate::network::WiringMode;
        let mut rng = StdRng::seed_from_u64(42);
        for mode in [
            WiringMode::Unshuffle,
            WiringMode::Identity,
            WiringMode::Shuffle,
        ] {
            let m = 3;
            let n = 1usize << m;
            let net = BnbNetwork::builder(m).wiring(mode).build();
            let tracer = PathTracer::with_inputs(n);
            let records = records_for_permutation(&Permutation::random(n, &mut rng));
            // Non-unshuffle wirings are not guaranteed conflict-free for
            // all permutations; only verify routes that succeed.
            if net.route_observed(&records, &tracer).is_ok() {
                tracer.verify(&net).unwrap();
            }
        }
    }

    #[test]
    fn corrupted_hops_are_caught() {
        let m = 3;
        let n = 1usize << m;
        let net = BnbNetwork::new(m);
        let tracer = PathTracer::with_inputs(n);
        let perm = Permutation::try_from(vec![5, 2, 7, 0, 4, 6, 1, 3]).unwrap();
        net.route_observed(&records_for_permutation(&perm), &tracer)
            .unwrap();
        tracer.verify(&net).unwrap();

        // Flip one recorded switch setting: the link to the next hop (or
        // the parity/delivery check) must break.
        let mut paths = tracer.take();
        paths[5][2].exchanged = !paths[5][2].exchanged;
        let corrupted = PathTracer {
            hops: Mutex::new(paths),
        };
        assert!(corrupted.verify(&net).is_err());

        // Drop one hop: the count check must fire first.
        let tracer = PathTracer::with_inputs(n);
        net.route_observed(&records_for_permutation(&perm), &tracer)
            .unwrap();
        let mut paths = tracer.take();
        paths[3].pop();
        let short = PathTracer {
            hops: Mutex::new(paths),
        };
        assert_eq!(
            short.verify(&net),
            Err(PathError::HopCount {
                dest: 3,
                expected: 6,
                actual: 5,
            })
        );
    }

    #[test]
    fn render_lists_one_line_per_hop() {
        let m = 2;
        let net = BnbNetwork::new(m);
        let tracer = PathTracer::with_inputs(4);
        let perm = Permutation::try_from(vec![2, 0, 3, 1]).unwrap();
        net.route_observed(&records_for_permutation(&perm), &tracer)
            .unwrap();
        let text = tracer.render(2);
        assert!(text.starts_with("cell 2"));
        assert_eq!(text.lines().count(), 1 + m * (m + 1) / 2);
        assert!(text.contains("stage 0 col 0"));
    }

    #[test]
    fn tracer_is_reusable_after_take_and_clear() {
        let net = BnbNetwork::new(2);
        let tracer = PathTracer::with_inputs(4);
        let perm = Permutation::try_from(vec![2, 0, 3, 1]).unwrap();
        net.route_observed(&records_for_permutation(&perm), &tracer)
            .unwrap();
        assert_eq!(tracer.total_hops(), 4 * 3);
        let taken = tracer.take();
        assert_eq!(taken.iter().map(Vec::len).sum::<usize>(), 12);
        assert_eq!(tracer.total_hops(), 0);
        net.route_observed(&records_for_permutation(&perm), &tracer)
            .unwrap();
        tracer.verify(&net).unwrap();
        tracer.clear();
        assert_eq!(tracer.total_hops(), 0);
    }
}
