//! Frame-batched routing: many frames, one kernel invocation.
//!
//! The paper's self-routing property makes control cost per-cell constant,
//! but one frame per call of the word-parallel kernel (a span,
//! [`crate::stages`]) loses lane occupancy as the network shrinks
//! relative to the word: a frame of `2^m` cells fills only `2^m` of 64
//! lanes once `m < 6`. Batching transposes the problem: [`FrameBatch`]
//! holds `B` frames in frame-major structure-of-arrays order, the planes
//! of all frames concatenate into `B·2^m`-bit bit-planes, and every SWAR
//! sweep and exchange word is fully occupied *regardless of `m`* — frames
//! narrower than a word simply share words, lane-aligned, and never
//! interact (a box spans at most one frame).
//!
//! [`route_batch`] is the whole-frame, validating entry point: it checks
//! every frame against the network contract (width, destination range,
//! payload width, strict uniqueness — the same checks, in the same scan
//! order, as [`validate_lines`]), routes all valid frames, and reports a
//! per-frame [`Result`] in [`BatchOutcome`]. Invalid frames keep their
//! original contents. Results are byte-identical to routing each frame
//! alone through [`RouteSpan::run`].
//!
//! An observer that declines per-column events (such as
//! [`bnb_obs::Counters`]) keeps the batched call, which reports one
//! stage-totals event per main stage summed over the batch's frames.
//! Options that need per-frame results or events — a non-empty
//! [`FaultMap`] or a strict ablation wiring (a call that can fail carries
//! one frame), an enabled observer wanting per-column or per-hop events,
//! [`Kernel::Scalar`] — route frame at a time through the same
//! [`RouteSpan`] dispatch, in the call's build, so semantics (fault
//! detection, event streams and counts, error values) never depend on
//! how frames were grouped.
//!
//! [`validate_lines`]: crate::stages::validate_lines
//! [`FaultMap`]: crate::fault::FaultMap
//! [`Kernel::Scalar`]: crate::stages::Kernel::Scalar

use bnb_topology::record::Record;

use crate::error::RouteError;
use crate::network::{BnbNetwork, RoutePolicy, WiringMode};
use crate::packed::{route_batch_in, route_batch_packed, Build, Call};
use crate::stages::{RouteSpan, StageScratch, Sweep};

/// `B` frames of width `n`, structure-of-arrays: destinations and payloads
/// of frame `f` occupy index range `f·n .. (f+1)·n` of two flat vectors.
///
/// This is the submit/drain currency of the batched routing path: build it
/// once with [`push_frame`](FrameBatch::push_frame), route it in place
/// with [`route_batch`], read results back with
/// [`read_frame_into`](FrameBatch::read_frame_into). The flat layout is
/// what lets the kernel extract *frame-major* bit-planes (all frames'
/// destination bit `b` contiguous) with full word occupancy.
///
/// ```
/// use bnb_core::{route_batch, BatchOutcome, BnbNetwork, FrameBatch, RouteSpan};
/// use bnb_core::stages::StageScratch;
/// use bnb_topology::record::Record;
///
/// let net = BnbNetwork::builder(3).build();
/// let n = net.inputs();
/// let mut batch = FrameBatch::new(n);
/// for f in 0..2u64 {
///     let frame: Vec<Record> = (0..n)
///         .map(|j| Record::new((j + f as usize) % n, 100 * f + j as u64))
///         .collect();
///     batch.push_frame(&frame);
/// }
/// let mut scratch = StageScratch::with_capacity(n);
/// let mut outcome = BatchOutcome::new();
/// route_batch(&net, &mut batch, &RouteSpan::new(), &mut scratch, &mut outcome);
/// assert!(outcome.all_ok());
/// let mut out = Vec::new();
/// batch.read_frame_into(1, &mut out);
/// // Delivered: output line d holds the record destined d.
/// assert!(out.iter().enumerate().all(|(d, r)| r.dest() == d));
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct FrameBatch {
    /// Frame width (cells per frame); every frame has exactly this many.
    n: usize,
    /// Destination of cell `j` of frame `f` at index `f * n + j`.
    dests: Vec<u32>,
    /// Payload of cell `j` of frame `f` at index `f * n + j`.
    data: Vec<u64>,
}

// By hand so that `clone_from` reuses the columns' capacity: a routing
// thread keeping a reference copy of each batch never reallocates it.
impl Clone for FrameBatch {
    fn clone(&self) -> Self {
        FrameBatch {
            n: self.n,
            dests: self.dests.clone(),
            data: self.data.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.dests.clone_from(&source.dests);
        self.data.clone_from(&source.data);
    }
}

impl FrameBatch {
    /// An empty batch of `width`-cell frames.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize) -> Self {
        FrameBatch::with_capacity(width, 0)
    }

    /// An empty batch with room for `frames` frames of `width` cells.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn with_capacity(width: usize, frames: usize) -> Self {
        assert!(width > 0, "frame width must be positive");
        FrameBatch {
            n: width,
            dests: Vec::with_capacity(width * frames),
            data: Vec::with_capacity(width * frames),
        }
    }

    /// Appends one frame.
    ///
    /// # Panics
    ///
    /// Panics if `frame.len()` differs from the batch width or any
    /// destination exceeds `u32::MAX` (out-of-*range* destinations are
    /// not checked here — [`route_batch`] reports them per frame).
    pub fn push_frame(&mut self, frame: &[Record]) {
        assert_eq!(frame.len(), self.n, "frame width mismatch");
        for r in frame {
            assert!(r.dest() <= u32::MAX as usize, "destination exceeds u32");
            self.dests.push(r.dest() as u32);
            self.data.push(r.data());
        }
    }

    /// Appends one frame whose cell `j` carries its input index `j` as
    /// payload, so the routed frame's payload column names the source of
    /// every output line. `fill` writes the destinations, cell `j`'s at
    /// index `j`, straight into the frame's batch-width slot of the
    /// destination column (zeroed first), with no intermediate frame: a
    /// caller decodes a SUBMIT's destination words into it in one pass.
    ///
    /// # Panics
    ///
    /// Panics if `fill` does, say on a frame of another width.
    pub fn push_indexed_with(&mut self, fill: impl FnOnce(&mut [u32])) {
        let before = self.dests.len();
        self.dests.resize(before + self.n, 0);
        fill(&mut self.dests[before..]);
        self.data.extend(0..self.n as u64);
    }

    /// Cells per frame.
    pub fn width(&self) -> usize {
        self.n
    }

    /// Number of frames.
    pub fn frames(&self) -> usize {
        self.dests.len() / self.n
    }

    /// Total cells across all frames.
    pub fn len(&self) -> usize {
        self.dests.len()
    }

    /// Whether the batch holds no frames.
    pub fn is_empty(&self) -> bool {
        self.dests.is_empty()
    }

    /// Drops all frames, keeping capacity (steady-state reuse).
    pub fn clear(&mut self) {
        self.dests.clear();
        self.data.clear();
    }

    /// Copies frame `f` into `out` (cleared first).
    ///
    /// # Panics
    ///
    /// Panics if `f >= self.frames()`.
    pub fn read_frame_into(&self, f: usize, out: &mut Vec<Record>) {
        assert!(f < self.frames(), "frame index out of range");
        let base = f * self.n;
        out.clear();
        out.extend(
            self.dests[base..base + self.n]
                .iter()
                .zip(&self.data[base..base + self.n])
                .map(|(&d, &x)| Record::new(d as usize, x)),
        );
    }

    /// Materialises every frame (convenience for tests and callers
    /// leaving the batched path).
    pub fn to_frames(&self) -> Vec<Vec<Record>> {
        let mut out = Vec::with_capacity(self.frames());
        for f in 0..self.frames() {
            let mut frame = Vec::with_capacity(self.n);
            self.read_frame_into(f, &mut frame);
            out.push(frame);
        }
        out
    }

    /// Frame `f`'s payload column: after routing, the payload that
    /// arrived at each output line.
    ///
    /// # Panics
    ///
    /// Panics if `f >= self.frames()`.
    pub fn frame_data(&self, f: usize) -> &[u64] {
        assert!(f < self.frames(), "frame index out of range");
        &self.data[f * self.n..(f + 1) * self.n]
    }

    /// Overwrites frame `f` (a frame routed on its own is written back).
    ///
    /// # Panics
    ///
    /// Panics if `f >= self.frames()`, `frame.len()` differs from the
    /// batch width, or any destination exceeds `u32::MAX`, as
    /// [`push_frame`](Self::push_frame) does.
    pub fn write_frame(&mut self, f: usize, frame: &[Record]) {
        assert!(f < self.frames(), "frame index out of range");
        assert_eq!(frame.len(), self.n, "frame width mismatch");
        let base = f * self.n;
        for (j, r) in frame.iter().enumerate() {
            assert!(r.dest() <= u32::MAX as usize, "destination exceeds u32");
            self.dests[base + j] = r.dest() as u32;
            self.data[base + j] = r.data();
        }
    }

    /// The flat destination/payload columns, for the kernel.
    pub(crate) fn soa_mut(&mut self) -> (&mut Vec<u32>, &mut Vec<u64>) {
        (&mut self.dests, &mut self.data)
    }

    /// The flat destination column (read-only, for validation).
    pub(crate) fn dests(&self) -> &[u32] {
        &self.dests
    }

    /// The flat payload column (read-only, for validation).
    pub(crate) fn data(&self) -> &[u64] {
        &self.data
    }
}

/// Per-frame results of one [`route_batch`] call, reusable across calls
/// (steady state allocates nothing once grown).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    results: Vec<Result<(), RouteError>>,
}

impl BatchOutcome {
    /// An empty outcome.
    pub fn new() -> Self {
        BatchOutcome::default()
    }

    /// One result per frame, in frame order: `Ok(())` means the frame was
    /// routed (delivered, or — permissive — conserved); an error means
    /// the frame failed validation and kept its original contents.
    pub fn results(&self) -> &[Result<(), RouteError>] {
        &self.results
    }

    /// Whether every frame routed.
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(|r| r.is_ok())
    }

    pub(crate) fn results_mut(&mut self) -> &mut Vec<Result<(), RouteError>> {
        &mut self.results
    }
}

/// Validates one frame against the network contract — the same checks in
/// the same scan order as [`crate::stages::validate_lines`], over the
/// batch's columns instead of a `Record` slice, so the reported error for
/// any frame is identical to what per-frame validation would report.
///
/// Each check runs as a pass that only reduces or writes, with the exact
/// scan that names the offending cell kept for a frame that fails it.
/// Strict uniqueness: `n` in-range destinations form a permutation iff
/// they mark all `n` entries of a byte map; the scan for the first
/// repeated destination runs only for a frame that leaves one unmarked.
/// `#[inline(always)]`, so it runs in the build of its caller.
#[inline(always)]
fn validate_frame(
    net: &BnbNetwork,
    dests: &[u32],
    data: &[u64],
    marks: &mut Vec<u8>,
    seen: &mut Vec<usize>,
) -> Result<(), RouteError> {
    let n = net.inputs();
    let w = net.w();
    // The largest destination and the OR of the payloads, each one
    // vectorized pass; the scan that names the first offending cell runs
    // only when one of them is out of range.
    let widest_dest = dests.iter().copied().max().unwrap_or(0) as usize;
    let payload_bits = data.iter().fold(0, |acc, &x| acc | x);
    if widest_dest >= n || (w < 64 && payload_bits >> w != 0) {
        for (&d, &x) in dests.iter().zip(data) {
            if d as usize >= n {
                return Err(RouteError::DestinationTooWide {
                    dest: d as usize,
                    n,
                });
            }
            if w < 64 && x >> w != 0 {
                return Err(RouteError::DataTooWide { data: x, w });
            }
        }
    }
    if matches!(net.policy(), RoutePolicy::Strict) {
        marks.clear();
        marks.resize(n, 0);
        // Through a slice, whose pointer and length stay in registers
        // while the bytes are stored.
        let marks = &mut marks[..];
        for &d in dests {
            marks[d as usize] = 1;
        }
        if marks.iter().map(|&b| usize::from(b)).sum::<usize>() == n {
            return Ok(());
        }
        seen.clear();
        seen.resize(n, usize::MAX);
        for (i, &d) in dests.iter().enumerate() {
            let d = d as usize;
            if seen[d] != usize::MAX {
                return Err(RouteError::DuplicateDestination {
                    dest: d,
                    first_input: seen[d],
                    second_input: i,
                });
            }
            seen[d] = i;
        }
    }
    Ok(())
}

/// Validates and routes every frame of `batch` through all `m` stages of
/// `net`, in place, with the options in `opts`; per-frame results land in
/// `outcome` (previous contents replaced).
///
/// Each frame behaves exactly as if validated with
/// [`validate_lines`](crate::stages::validate_lines) and routed alone
/// with [`RouteSpan::run`] — byte-identical outputs, identical error
/// values, identical observer counts — but fault-free batches whose
/// observer, if any, declines per-column events (the steady-state hot
/// path, served batches observed by `Counters` included) route through
/// one word-parallel kernel invocation over the concatenated frame-major
/// bit-planes, with every SWAR word fully occupied regardless of `m`.
/// Frames that fail validation (and, under faults, frames whose routing
/// errors) keep their original contents.
///
/// Unlike the span entry points this routes whole frames only; a slice of
/// a frame routes with [`RouteSpan::run`].
///
/// The call checks the CPU's features once and runs validation, plane
/// extraction, every column pass and the delivery in the widest build it
/// has: AVX-512, AVX2 or portable.
pub fn route_batch(
    net: &BnbNetwork,
    batch: &mut FrameBatch,
    opts: &RouteSpan<'_>,
    scratch: &mut StageScratch,
    outcome: &mut BatchOutcome,
) {
    route_batch_in(Build::detect(), net, batch, opts, scratch, outcome);
}

/// The whole of [`route_batch`] in `build`, `#[inline(always)]` so each
/// build's wrapper ([`route_batch_in`]) compiles its own copy, with
/// `build` a constant in it.
#[inline(always)]
pub(crate) fn route_batch_body(
    build: Build,
    net: &BnbNetwork,
    batch: &mut FrameBatch,
    opts: &RouteSpan<'_>,
    scratch: &mut StageScratch,
    outcome: &mut BatchOutcome,
) {
    let n = net.inputs();
    let frames = batch.frames();
    let results = outcome.results_mut();
    results.clear();
    if batch.width() != n {
        // Every frame has the wrong width; nothing can route.
        results.resize(
            frames,
            Err(RouteError::WidthMismatch {
                expected: n,
                actual: batch.width(),
            }),
        );
        return;
    }
    for f in 0..frames {
        let base = f * n;
        results.push(validate_frame(
            net,
            &batch.dests()[base..base + n],
            &batch.data()[base..base + n],
            &mut scratch.marks,
            &mut scratch.seen,
        ));
    }

    // The batched call covers exactly the configurations whose per-frame
    // dispatch would take the packed kernel *and* cannot fail after
    // validation: no faults, and — under strict policy — the paper's
    // Unshuffle wiring, the only mode whose Theorem 2 guarantees every
    // splitter balances for a validated permutation (the ablation wirings
    // can unbalance mid-route and must keep per-frame error reporting).
    let strict = matches!(net.policy(), RoutePolicy::Strict);
    if let (Sweep::Packed(tally), None) = opts.effective() {
        if !strict || matches!(net.wiring(), WiringMode::Unshuffle) {
            let call = Call {
                net,
                stages: 0..net.m(),
                first_line: 0,
                faults: None,
                tally,
            };
            let (dests, data) = batch.soa_mut();
            let routed = route_batch_packed(build, &call, false, dests, data, results, scratch);
            debug_assert!(routed.is_ok(), "a validated batch failed: {routed:?}");
            return;
        }
    }

    // Frame-at-a-time fallback: materialise each valid frame, route it
    // through the ordinary RouteSpan dispatch in this call's build (the
    // kernel with the frame as its only frame, or the scalar sweep — all
    // per-frame semantics preserved), write the result back. `frame_buf`
    // is taken out of the scratch so the span call can borrow the rest.
    let mut buf = std::mem::take(&mut scratch.frame_buf);
    for f in 0..frames {
        if outcome.results[f].is_err() {
            continue;
        }
        batch.read_frame_into(f, &mut buf);
        match opts.run_in(build, net, &mut buf, 0, 0..net.m(), scratch) {
            Ok(()) => batch.write_frame(f, &buf),
            // Failed frames keep their original contents (the copy in
            // `buf` absorbs the kernel's partial movement).
            Err(e) => outcome.results[f] = Err(e),
        }
    }
    scratch.frame_buf = buf;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::{validate_lines, Kernel};

    fn frame(n: usize, perm: &[usize], tag: u64) -> Vec<Record> {
        perm.iter()
            .enumerate()
            .map(|(j, &d)| {
                assert!(d < n);
                Record::new(d, tag * 1000 + j as u64)
            })
            .collect()
    }

    fn oracle(net: &BnbNetwork, lines: &mut [Record]) -> Result<(), RouteError> {
        let mut scratch = StageScratch::with_capacity(lines.len());
        let mut seen = Vec::new();
        validate_lines(net, lines, &mut seen)?;
        RouteSpan::new()
            .kernel(Kernel::Scalar)
            .run(net, lines, 0, 0..net.m(), &mut scratch)
    }

    #[test]
    fn batched_matches_scalar_oracle_small() {
        for m in 1..=4usize {
            let net = BnbNetwork::builder(m).build();
            let n = net.inputs();
            let mut batch = FrameBatch::new(n);
            let mut expect = Vec::new();
            // A handful of rotations: enough frames to cross word
            // boundaries for small n.
            for f in 0..9usize {
                let perm: Vec<usize> = (0..n).map(|j| (j + f) % n).collect();
                let fr = frame(n, &perm, f as u64);
                let mut want = fr.clone();
                oracle(&net, &mut want).unwrap();
                expect.push(want);
                batch.push_frame(&fr);
            }
            let mut scratch = StageScratch::with_capacity(n);
            let mut outcome = BatchOutcome::new();
            route_batch(
                &net,
                &mut batch,
                &RouteSpan::new(),
                &mut scratch,
                &mut outcome,
            );
            assert!(outcome.all_ok());
            let mut got = Vec::new();
            for (f, want) in expect.iter().enumerate() {
                batch.read_frame_into(f, &mut got);
                assert_eq!(&got, want, "m={m} frame {f}");
            }
        }
    }

    #[test]
    fn invalid_frames_reported_and_untouched() {
        let net = BnbNetwork::builder(3).build();
        let n = net.inputs();
        let mut batch = FrameBatch::new(n);
        let good: Vec<Record> = frame(n, &[3, 1, 0, 2, 7, 6, 5, 4], 1);
        let dup: Vec<Record> = frame(n, &[0, 0, 1, 2, 3, 4, 5, 6], 2);
        batch.push_frame(&good);
        batch.push_frame(&dup);
        batch.push_frame(&good);
        let mut scratch = StageScratch::with_capacity(n);
        let mut outcome = BatchOutcome::new();
        route_batch(
            &net,
            &mut batch,
            &RouteSpan::new(),
            &mut scratch,
            &mut outcome,
        );
        assert!(outcome.results()[0].is_ok());
        assert_eq!(
            outcome.results()[1],
            Err(RouteError::DuplicateDestination {
                dest: 0,
                first_input: 0,
                second_input: 1,
            })
        );
        assert!(outcome.results()[2].is_ok());
        let mut got = Vec::new();
        batch.read_frame_into(1, &mut got);
        assert_eq!(got, dup, "invalid frame must keep its contents");
        batch.read_frame_into(2, &mut got);
        assert!(got.iter().enumerate().all(|(d, r)| r.dest() == d));
    }

    /// A destination past `u32::MAX` would truncate into the
    /// destination column, possibly into range: refused, as by
    /// `push_frame`.
    #[test]
    #[should_panic(expected = "destination exceeds u32")]
    fn write_frame_refuses_destinations_past_u32() {
        let mut batch = FrameBatch::new(2);
        batch.push_frame(&[Record::new(0, 0), Record::new(1, 1)]);
        batch.write_frame(0, &[Record::new(1, 0), Record::new(1 << 32, 1)]);
    }

    #[test]
    fn push_indexed_with_fills_one_zeroed_slot_and_index_payloads() {
        let dests = [3u32, 1, 0, 2];
        let mut filled = FrameBatch::new(4);
        for _ in 0..2 {
            filled.push_indexed_with(|slots| {
                assert_eq!(slots, [0; 4]);
                slots.copy_from_slice(&dests);
            });
        }
        let frame: Vec<Record> = dests
            .iter()
            .enumerate()
            .map(|(j, &d)| Record::new(d as usize, j as u64))
            .collect();
        let mut pushed = FrameBatch::new(4);
        pushed.push_frame(&frame);
        pushed.push_frame(&frame);
        assert_eq!(filled, pushed);
        assert_eq!(&filled.dests()[4..], &dests);
        assert_eq!(filled.frame_data(1), &[0, 1, 2, 3]);
        for short in [&dests[..3], &dests[..]] {
            let width = short.len() + 1;
            let pushed = std::panic::catch_unwind(|| {
                FrameBatch::new(width).push_indexed_with(|slots| slots.copy_from_slice(short));
            });
            assert!(
                pushed.is_err(),
                "a {}-record frame in a {width}-wide batch",
                short.len()
            );
        }
    }

    #[test]
    fn range_and_payload_errors_match_per_frame_validation() {
        // The first offending cell decides, whichever check it fails.
        let net = BnbNetwork::builder(3).data_width(4).build();
        let ok = |j: usize| Record::new(7 - j, j as u64);
        let mut frames: Vec<Vec<Record>> = vec![(0..8).map(ok).collect(); 3];
        frames[0][2] = Record::new(5, 1 << 4); // payload too wide first
        frames[0][5] = Record::new(8, 5);
        frames[1][1] = Record::new(9, 6); // destination too wide first
        frames[1][6] = Record::new(1, 1 << 7);
        for build in Build::available() {
            let mut batch = FrameBatch::new(8);
            for frame in &frames {
                batch.push_frame(frame);
            }
            let mut scratch = StageScratch::with_capacity(8);
            let mut outcome = BatchOutcome::new();
            route_batch_in(
                build,
                &net,
                &mut batch,
                &RouteSpan::new(),
                &mut scratch,
                &mut outcome,
            );
            let mut seen = Vec::new();
            for (f, frame) in frames.iter().enumerate() {
                let want = validate_lines(&net, frame, &mut seen);
                assert_eq!(outcome.results()[f], want, "{build:?} build, frame {f}");
            }
            assert!(matches!(
                outcome.results()[0],
                Err(RouteError::DataTooWide { .. })
            ));
            assert!(matches!(
                outcome.results()[1],
                Err(RouteError::DestinationTooWide { dest: 9, .. })
            ));
            assert!(outcome.results()[2].is_ok());
        }
    }

    /// Every build of `route_batch` routes, rejects and counts exactly as
    /// the portable one: m = 1..=12, strict and permissive, valid frames
    /// among repeated, out-of-range and too-wide ones, under a `Counters`
    /// observer (the served configuration).
    #[test]
    fn route_batch_builds_agree() {
        use bnb_obs::Counters;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for m in 1..=12usize {
            let n = 1usize << m;
            for policy in [RoutePolicy::Strict, RoutePolicy::Permissive] {
                let net = BnbNetwork::builder(m).policy(policy).data_width(16).build();
                let mut batch = FrameBatch::new(n);
                for f in 0..if m > 10 { 5 } else { 9 } {
                    let mut dests: Vec<usize> = (0..n).collect();
                    for j in (1..n).rev() {
                        dests.swap(j, rng.random_range(0..=j));
                    }
                    let mut frame: Vec<Record> = dests
                        .iter()
                        .enumerate()
                        .map(|(j, &d)| Record::new(d, (j as u64 * 7 + f) & 0xFFFF))
                        .collect();
                    let cell = rng.random_range(0..n);
                    match f % 4 {
                        1 if n > 1 => frame[cell] = Record::new(frame[(cell + 1) % n].dest(), 3),
                        2 => frame[cell] = Record::new(n + cell, 5),
                        3 => frame[cell] = Record::new(frame[cell].dest(), 1 << 16),
                        _ => {}
                    }
                    batch.push_frame(&frame);
                }
                let run = |build: Build| {
                    let mut routed = batch.clone();
                    let counters = Counters::new();
                    let mut scratch = StageScratch::with_capacity(n);
                    let mut outcome = BatchOutcome::new();
                    let opts = RouteSpan::new().observer(&counters);
                    route_batch_in(build, &net, &mut routed, &opts, &mut scratch, &mut outcome);
                    (routed, outcome, counters.snapshot())
                };
                let portable = run(Build::PORTABLE);
                assert!(
                    portable.1.results().iter().any(Result::is_ok)
                        && portable.1.results().iter().any(Result::is_err),
                    "test premise: m = {m} mixes routed and rejected frames"
                );
                assert!(portable.2.columns > 0, "m = {m} routed no column");
                for build in Build::available() {
                    assert_eq!(run(build), portable, "{build:?} build, m = {m}, {policy:?}");
                }
            }
        }
    }

    #[test]
    fn width_mismatch_hits_every_frame() {
        let net = BnbNetwork::builder(3).build();
        let mut batch = FrameBatch::new(4);
        batch.push_frame(&frame(4, &[1, 0, 3, 2], 0));
        let mut scratch = StageScratch::with_capacity(8);
        let mut outcome = BatchOutcome::new();
        route_batch(
            &net,
            &mut batch,
            &RouteSpan::new(),
            &mut scratch,
            &mut outcome,
        );
        assert_eq!(
            outcome.results(),
            &[Err(RouteError::WidthMismatch {
                expected: 8,
                actual: 4,
            })]
        );
    }

    #[test]
    fn permissive_batch_matches_oracle() {
        let net = BnbNetwork::builder(2)
            .policy(RoutePolicy::Permissive)
            .build();
        let n = net.inputs();
        let mut batch = FrameBatch::new(n);
        let mut expect = Vec::new();
        // Non-permutation traffic, including duplicates.
        for (f, dests) in [[0usize, 0, 3, 3], [2, 2, 2, 2], [1, 0, 0, 2]]
            .iter()
            .enumerate()
        {
            let fr = frame(n, dests, f as u64);
            let mut want = fr.clone();
            oracle(&net, &mut want).unwrap();
            expect.push(want);
            batch.push_frame(&fr);
        }
        let mut scratch = StageScratch::with_capacity(n);
        let mut outcome = BatchOutcome::new();
        route_batch(
            &net,
            &mut batch,
            &RouteSpan::new(),
            &mut scratch,
            &mut outcome,
        );
        assert!(outcome.all_ok());
        let mut got = Vec::new();
        for (f, want) in expect.iter().enumerate() {
            batch.read_frame_into(f, &mut got);
            assert_eq!(&got, want, "permissive frame {f}");
        }
    }

    #[test]
    fn shuffle_wiring_batch_matches_oracle() {
        // The Shuffle ablation wiring can unbalance a splitter mid-route
        // even for a valid permutation, so strict batches fall back to
        // per-frame routing: successes stay byte-identical, failures
        // report the oracle's exact error and keep their contents.
        let net = BnbNetwork::builder(3).wiring(WiringMode::Shuffle).build();
        let n = net.inputs();
        let mut batch = FrameBatch::new(n);
        let mut inputs = Vec::new();
        let mut expect = Vec::new();
        for f in 0..4usize {
            let perm: Vec<usize> = (0..n).map(|j| j ^ f).collect();
            let fr = frame(n, &perm, f as u64);
            let mut want = fr.clone();
            let res = oracle(&net, &mut want);
            expect.push((res, want));
            batch.push_frame(&fr);
            inputs.push(fr);
        }
        assert!(
            expect.iter().any(|(r, _)| r.is_err()),
            "test premise: shuffle must fail at least one frame"
        );
        let mut scratch = StageScratch::with_capacity(n);
        let mut outcome = BatchOutcome::new();
        route_batch(
            &net,
            &mut batch,
            &RouteSpan::new(),
            &mut scratch,
            &mut outcome,
        );
        let mut got = Vec::new();
        for (f, (res, want)) in expect.iter().enumerate() {
            batch.read_frame_into(f, &mut got);
            match res {
                Ok(()) => {
                    assert_eq!(outcome.results()[f], Ok(()), "shuffle frame {f}");
                    assert_eq!(&got, want, "shuffle frame {f}");
                }
                Err(e) => {
                    assert_eq!(outcome.results()[f], Err(e.clone()), "shuffle frame {f}");
                    assert_eq!(got, inputs[f], "failed frame {f} must keep its contents");
                }
            }
        }
    }
}
