//! Word-parallel (bit-packed) routing: the one fast kernel, behind both
//! [`crate::stages::RouteSpan`] and [`crate::batch::route_batch`], for no
//! observer or for one that takes stage totals instead of per-column
//! events.
//!
//! The paper's arbiter (Definition 6) computes every switch setting from
//! one-bit local information: XOR parities sweep *up* a binary tree and
//! flags echo *down*. Because the per-line control state is exactly one
//! bit, 64 adjacent positions pack into a `u64` and each sweep level
//! becomes a handful of shift/XOR/mask operations:
//!
//! - **Bit-planes** — a call routes a range of main stages over one or
//!   more aligned frames; a span is a one-frame call. Each cell's
//!   destination bits for the stages routed are extracted once into
//!   per-stage planes over the concatenated frames: bit `f·n + P` of a
//!   stage's plane is that stage's bit of the cell at position `P` of
//!   frame `f`.
//! - **Wirings** — no column moves a plane bit for its wiring. The kernel
//!   renames positions instead ([`Relabel`]), so cells move only at
//!   exchanges and each column reads its boxes through σ.
//! - **Up-sweep** — level-`l` parities of every box in a column at once:
//!   lane folds `(x ^ x >> 2^σ(l-1)) & node` inside a word, word-pair
//!   folds past it ([`Fold`]), so a box of any width is one tree.
//! - **Down-sweep** — the flag echo as masked select/merge words: a node
//!   with `zu = 1` forwards its descending `zd` to both children, a node
//!   with `zu = 0` overrides with the constants (0 left, 1 right) — the
//!   same rule [`crate::splitter::controls_into`] applies one node at a
//!   time.
//! - **Balance checks** — the up-sweep's root row holds every box's
//!   parity, so a strict call that was not validated checks a column with
//!   one OR over that row. Only a column that fails scans for the first
//!   unbalanced box in line order.
//! - **Exchanges** — one flag word per 64 positions; a masked pair swap
//!   trades the flagged cells `2^σ(0)` apart on every live plane and
//!   every index plane. Records move once, at the end of the call.
//! - **Counts** — a column's exchanges are the popcount of its flag words
//!   and its sweeps one per box, so a tallying observer gets each main
//!   stage's totals ([`StageTotalsEvent`]) without a per-cell walk, equal
//!   to what the scalar sweep's per-column events add up to — including
//!   the partial stage before a splitter error.
//! - **Builds** — [`Build`] names the instruction set a call runs in:
//!   AVX-512, AVX2 (both with POPCNT) or portable. Each call, a batch or
//!   a span, picks one and runs its extraction, every column pass and its
//!   delivery inside it.
//!
//! The kernel is byte-identical to the scalar path on success and returns
//! identical error values on failure; only the (unspecified) contents of
//! `lines` after an error may differ. Faulted columns gather each box's
//! bits through σ into line order and run the scalar per-box arbiter —
//! reading bits from the planes, never re-deriving them — so fault
//! semantics stay exactly those of [`FaultMap`]; healthy columns of a
//! faulted route stay packed.

use std::ops::Range;

use bnb_obs::{Observer, StageTotalsEvent};
use bnb_topology::record::Record;

use crate::batch::{route_batch_body, BatchOutcome, FrameBatch};
use crate::error::RouteError;
use crate::fault::FaultMap;
use crate::network::{BnbNetwork, RoutePolicy, WiringMode};
use crate::splitter::{check_balanced, controls_into, unbalanced_output, SplitterSite};
use crate::stages::{report_route_error, RouteSpan, StageScratch};

/// Reusable buffers for the packed kernel, owned by
/// [`StageScratch`]. Sized on first use, steady state allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct PackedScratch {
    /// Destination bit-planes, flattened `[stage_rel][word]`.
    planes: Vec<u64>,
    /// One exchange-flag word per 64 positions of the current column.
    flags: Vec<u64>,
    /// Index bit-planes for a call that leaves through the index gather:
    /// bit `b` of each cell's *original within-frame line*, carried
    /// through every exchange with the destination planes.
    iplanes: Vec<u64>,
    /// The arbiter's tile rows: up-sweep levels, then `zd`.
    levels: Vec<u64>,
    /// The column schedule for the call shape in `schedule_for`: every
    /// column's folds in routing order. It depends only on `m`, the stage
    /// range and the wiring, so it is built once per shape.
    schedule: Vec<Fold>,
    schedule_for: Option<(usize, Range<usize>, WiringMode)>,
    /// σ after the schedule's last wiring: where each output line's cell
    /// ends up.
    schedule_end: Relabel,
    /// Frame-sized staging for the final movement: one frame's results
    /// land here and are copied back over the frame, so no call-sized
    /// second copy of the cells is kept.
    stage_dests: Vec<u32>,
    /// See [`PackedScratch::stage_dests`].
    stage_data: Vec<u64>,
    /// A span's cells as a one-frame batch: each cell's destination bits
    /// for the stages routed, and its line as payload, so the routed
    /// payload column names the source of every output line.
    span_dests: Vec<u32>,
    /// See [`PackedScratch::span_dests`].
    span_lines: Vec<u64>,
}

impl PackedScratch {
    /// Sizes the buffers for `words` words of `n`-cell frames of `bits`
    /// line bits, routing `planes` stages. The index planes are sized even
    /// for a call that delivers without them, so that the partial spans
    /// of a frame routed whole before allocate nothing.
    fn ensure_frames(&mut self, n: usize, words: usize, planes: usize, bits: usize, tile: usize) {
        self.planes.clear();
        self.planes.resize(planes * words, 0);
        self.iplanes.resize(bits * words, 0);
        self.stage_dests.resize(n, 0);
        self.flags.resize(words, 0);
        self.levels.resize((bits + 2) * tile, 0);
        self.stage_data.resize(n, 0);
    }
}

/// One main stage's running totals for a tallying observer: what the
/// scalar sweep's column and sweep events for the same call add up to.
/// With no sink it only keeps a few integers per column.
struct StageTally<'o> {
    sink: Option<&'o dyn Observer>,
    totals: StageTotalsEvent,
}

impl<'o> StageTally<'o> {
    fn new(
        sink: Option<&'o dyn Observer>,
        main_stage: usize,
        first_line: usize,
        width: usize,
        frames: u64,
    ) -> Self {
        StageTally {
            sink,
            totals: StageTotalsEvent {
                main_stage,
                first_line,
                width,
                frames,
                columns: 0,
                sweeps: 0,
                exchanges: 0,
                max_depth: 0,
            },
        }
    }

    /// `boxes` splitter boxes of arbiter depth `depth` were swept.
    fn swept(&mut self, boxes: u64, depth: usize) {
        self.totals.sweeps += boxes;
        if boxes > 0 {
            self.totals.max_depth = self.totals.max_depth.max(depth);
        }
    }

    /// A column completed in every frame: `boxes` boxes per frame swept,
    /// `exchanges` switches exchanged in all.
    fn column(&mut self, boxes: u64, depth: usize, exchanges: u64) {
        self.totals.columns += self.totals.frames;
        self.swept(self.totals.frames * boxes, depth);
        self.totals.exchanges += exchanges;
    }

    /// Reports the stage's totals.
    fn emit(&self) {
        if let Some(sink) = self.sink {
            sink.stage_routed(self.totals);
        }
    }

    /// Reports the partial stage a splitter error cut short — the columns
    /// completed and every box swept so far; the aborted column's boxes
    /// count, the column itself and its exchanges do not — then the
    /// error's own event, and hands the error back.
    fn fail(&self, err: RouteError) -> RouteError {
        if let Some(sink) = self.sink {
            sink.stage_routed(self.totals);
            report_route_error(sink, &err);
        }
        err
    }
}

/// Bit `b` of a position's in-word index (`j & 63`), for `b < 6`: the
/// initial contents of the kernel's low index planes, and the complements
/// of its in-word node masks.
const IBIT: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Bit `p` of a plane.
fn bit(plane: &[u64], p: usize) -> bool {
    plane[p >> 6] >> (p & 63) & 1 == 1
}

/// Most line-index bits in one frame: σ keeps one entry per bit, and a
/// cell's destination bits travel as a `u32`.
const MAX_FRAME_BITS: usize = 32;

/// The kernel's relabeling σ: logical line-index bit `l` of a cell is
/// carried by physical position bit `sigma[l]` of the planes.
///
/// Every column wiring rotates the low `r` line-index bits (DESIGN §13),
/// and a fixed arrangement can be renamed instead of carried out: an
/// Unshuffle rotates `sigma[..r]` left by one, a Shuffle rotates it right,
/// Identity leaves it alone. Cells then move only at exchanges. Frame
/// bits (`>= bits`) are never renamed, so frames keep their aligned
/// regions.
#[derive(Debug, Clone, Copy, Default)]
struct Relabel {
    /// Line-index bits of a frame.
    bits: usize,
    sigma: [u8; MAX_FRAME_BITS],
}

impl Relabel {
    fn identity(bits: usize) -> Self {
        debug_assert!(bits <= MAX_FRAME_BITS);
        let mut sigma = [0u8; MAX_FRAME_BITS];
        for (l, s) in sigma.iter_mut().enumerate() {
            *s = l as u8;
        }
        Relabel { bits, sigma }
    }

    /// Applies a column wiring that rotates the low `r` line-index bits
    /// (`r = 0`: no wiring).
    fn wire(&mut self, r: usize, wiring: WiringMode) {
        if r < 2 {
            return; // rotating a 1-bit field is the identity
        }
        let low = &mut self.sigma[..r];
        match wiring {
            WiringMode::Unshuffle => low.rotate_left(1),
            WiringMode::Shuffle => low.rotate_right(1),
            WiringMode::Identity => {}
        }
    }

    /// Physical position, within its frame, of the cell on logical line `j`.
    fn position(&self, j: usize) -> usize {
        self.sigma[..self.bits]
            .iter()
            .enumerate()
            .fold(0, |acc, (l, &s)| acc | ((j >> l) & 1) << s)
    }

    /// Physical positions, within their frame, of the cells on logical
    /// lines `from..`, in line order: from one line to the next, the
    /// logical bits that carry flip, and so do the position bits σ gives
    /// them.
    fn positions(&self, from: usize) -> impl Iterator<Item = usize> + '_ {
        (from..1 << self.bits).scan(self.position(from), |p, j| {
            let at = *p;
            let carry = self.bits.min(j.trailing_ones() as usize + 1);
            *p ^= self.sigma[..carry].iter().fold(0, |acc, &s| acc | 1 << s);
            Some(at)
        })
    }

    /// The first box of a column of `2^depth`-line boxes in the frame at
    /// `base` that breaks Definition 3 (an odd count of ones, or not
    /// exactly one for `sp(1)`), scanning the boxes in logical line order
    /// as the scalar path does: its first line and its ones.
    fn first_unbalanced(&self, plane: &[u64], base: usize, depth: usize) -> Option<(usize, usize)> {
        let width = 1usize << depth;
        let mut at = self.positions(0);
        (0..1usize << self.bits).step_by(width).find_map(|start| {
            let ones = (at.by_ref().take(width))
                .filter(|&p| bit(plane, base + p))
                .count();
            let balanced = if width == 2 { ones == 1 } else { ones % 2 == 0 };
            (!balanced).then_some((start, ones))
        })
    }

    /// Appends the arbiter tree of a column of `2^depth`-line boxes, one
    /// [`Fold`] per level, bottom up: level `l + 1` folds physical bit
    /// σ(l).
    fn push_folds(&self, depth: usize, out: &mut Vec<Fold>) {
        let mut node = !0u64;
        // Word bits already folded away: later word-pair levels index the
        // compact rows, which drop them.
        let mut folded = 0usize;
        for &b in &self.sigma[..depth] {
            let b = usize::from(b);
            out.push(if b < 6 {
                node &= !IBIT[b];
                Fold::Lane {
                    shift: 1 << b,
                    node,
                }
            } else {
                let c = b - 6;
                let below = (folded & ((1 << c) - 1)).count_ones();
                folded |= 1 << c;
                Fold::Pair {
                    stride: 1 << (c - below as usize),
                    node,
                }
            });
        }
    }
}

/// One level of a column's arbiter tree, bottom up: level `l + 1` folds
/// physical bit σ(l). Each level's up-values live in a row of words;
/// `node` marks the in-word positions of the level's nodes (every in-word
/// bit among `σ(0..=l)` clear).
#[derive(Debug, Clone, Copy)]
enum Fold {
    /// An in-word bit: the two children sit `shift` positions apart in
    /// one word, and the row keeps the previous row's words.
    Lane { shift: u32, node: u64 },
    /// A word bit: the two children sit in words `stride` apart in the
    /// previous row. The level's row keeps only the lower word of each
    /// pair, so it is half as long: after `c` word-pair levels a row
    /// holds only the `1/2^c` of the words that carry nodes, and `stride`
    /// counts words of that compact row.
    Pair { stride: usize, node: u64 },
}

/// One column of the kernel: its geometry and where it runs.
struct ColumnPass<'a> {
    /// Words per plane.
    words: usize,
    /// Words swept together: whole frames, so every box lies in a tile.
    tile: usize,
    /// The arbiter tree, one fold per level. The switch pairs are level
    /// 1's children, `2^σ(0)` positions apart.
    folds: &'a [Fold],
    /// The column ends its main stage, whose plane then dies, so the
    /// exchange skips it.
    last: bool,
    /// Count the column's exchanges: set only where a tally reads them.
    count: bool,
    /// Strict detection: check every box's balance from the root row
    /// before anything is exchanged, on these live lanes of the word.
    /// `None` for a call validated as a strict Unshuffle batch.
    detect: Option<u64>,
}

/// Words of a row processed together: two AVX-512 registers, four AVX2
/// ones.
const CHUNK: usize = 16;

/// Calls `$f::<S>(args)` for the word-pair stride `$s`: strides below
/// [`CHUNK`] become the constant `S`, and their pairs constant shuffles
/// inside a chunk; wider strides call `$f::<0>`, which reads the stride
/// from its arguments and whose pair halves are runs long enough for the
/// loop vectorizer.
macro_rules! by_stride {
    ($s:expr, $f:ident($($arg:expr),*)) => {
        match $s {
            1 => $f::<1>($($arg),*),
            2 => $f::<2>($($arg),*),
            4 => $f::<4>($($arg),*),
            8 => $f::<8>($($arg),*),
            _ => $f::<0>($($arg),*),
        }
    };
}

/// Index, among a chunk's compact words, of the pair whose lower word is
/// chunk word `i` (bit `S` of `i` clear).
#[inline(always)]
const fn compact<const S: usize>(i: usize) -> usize {
    let low = S.wrapping_sub(1);
    ((i >> 1) & !low) | (i & low)
}

/// Up-sweep of an in-word level over a row: the node up-values
/// `(src ^ src >> shift) & node`.
#[inline(always)]
fn lane_up(src: &[u64], dst: &mut [u64], shift: u32, node: u64) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = (s ^ (s >> shift)) & node;
    }
}

/// Down-sweep of an in-word level over a row: from `zd` at the nodes
/// (up-values `zu`) to `zd` at their children. A node with `zu = 1`
/// forwards its `zd` to both children; one with `zu = 0` sends 0 left
/// and 1 right.
#[inline(always)]
fn lane_down(zu: &[u64], zd: &mut [u64], shift: u32, node: u64) {
    for (z, &u) in zd.iter_mut().zip(zu) {
        let lz = u & *z;
        *z = lz | (((lz | !u) & node) << shift);
    }
}

// The word-pair passes below take the stride twice: as the constant `S`
// (0 for strides of a chunk or more) and as `s`. Whole chunks run as
// constant shuffles when `S > 0`; the rest of the row, every row for
// `S = 0`, runs pair block by pair block.

/// Rows of `len` words that a word-pair pass at constant stride `S` runs
/// chunk by chunk.
#[inline(always)]
const fn chunked<const S: usize>(len: usize) -> usize {
    if S == 0 {
        0
    } else {
        len / CHUNK * CHUNK
    }
}

/// Up-sweep of a word-pair level: `dst[k·s + j] = src[2k·s + j] ^
/// src[(2k + 1)·s + j]`, the compact row of the pairs' parities.
#[inline(always)]
fn pair_up<const S: usize>(src: &[u64], dst: &mut [u64], s: usize) {
    let bulk = chunked::<S>(src.len());
    let (dst_bulk, dst_rest) = dst.split_at_mut(bulk / 2);
    for (d, x) in dst_bulk
        .chunks_exact_mut(CHUNK / 2)
        .zip(src[..bulk].chunks_exact(CHUNK))
    {
        for i in 0..CHUNK {
            if i & S == 0 {
                d[compact::<S>(i)] = x[i] ^ x[i + S];
            }
        }
    }
    for (dc, sc) in dst_rest
        .chunks_exact_mut(s)
        .zip(src[bulk..].chunks_exact(2 * s))
    {
        let (lo, hi) = sc.split_at(s);
        for (d, (&l, &h)) in dc.iter_mut().zip(lo.iter().zip(hi)) {
            *d = l ^ h;
        }
    }
}

/// Down-sweep of a word-pair level: from `zd` at its nodes (compact row
/// `zu`) to `out`, the children's compact row, twice as long.
#[inline(always)]
fn pair_down<const S: usize>(zu: &[u64], zd: &[u64], out: &mut [u64], s: usize, node: u64) {
    let bulk = chunked::<S>(out.len());
    let (out_bulk, out_rest) = out.split_at_mut(bulk);
    for ((o, u), z) in out_bulk
        .chunks_exact_mut(CHUNK)
        .zip(zu.chunks_exact(CHUNK / 2))
        .zip(zd.chunks_exact(CHUNK / 2))
    {
        for (i, o) in o.iter_mut().enumerate() {
            let c = compact::<S>(i & !S);
            let lz = u[c] & z[c];
            *o = if i & S == 0 { lz } else { (lz | !u[c]) & node };
        }
    }
    for ((oc, uc), zc) in out_rest
        .chunks_exact_mut(2 * s)
        .zip(zu[bulk / 2..].chunks_exact(s))
        .zip(zd[bulk / 2..].chunks_exact(s))
    {
        let (lo, hi) = oc.split_at_mut(s);
        for (((l, h), &u), &z) in lo.iter_mut().zip(hi).zip(uc).zip(zc) {
            let lz = u & z;
            *l = lz;
            *h = (lz | !u) & node;
        }
    }
}

/// Level 1 of a column whose switches pair words `s` apart: the flag of
/// each pair's lower word is `s(left) ^ zd(left)`, with `zd(left) = zu &
/// zd` from the compact rows; upper words get none.
#[inline(always)]
fn pair_flags<const S: usize>(x: &[u64], zu: &[u64], zd: &[u64], f: &mut [u64], s: usize) {
    let bulk = chunked::<S>(f.len());
    let (f_bulk, f_rest) = f.split_at_mut(bulk);
    for (((fc, xc), u), z) in f_bulk
        .chunks_exact_mut(CHUNK)
        .zip(x.chunks_exact(CHUNK))
        .zip(zu.chunks_exact(CHUNK / 2))
        .zip(zd.chunks_exact(CHUNK / 2))
    {
        for i in 0..CHUNK {
            let c = compact::<S>(i & !S);
            fc[i] = if i & S == 0 { xc[i] ^ (u[c] & z[c]) } else { 0 };
        }
    }
    for (((fc, xc), uc), zc) in f_rest
        .chunks_exact_mut(2 * s)
        .zip(x[bulk..].chunks_exact(2 * s))
        .zip(zu[bulk / 2..].chunks_exact(s))
        .zip(zd[bulk / 2..].chunks_exact(s))
    {
        let (lo, hi) = fc.split_at_mut(s);
        for (((f, &x), &u), &z) in lo.iter_mut().zip(xc).zip(uc).zip(zc) {
            *f = x ^ (u & z);
        }
        hi.fill(0);
    }
}

/// Exchange at word stride `s` on one plane: the words `s` apart trade
/// the bits flagged in the lower word's flags.
#[inline(always)]
fn exchange_pairs<const S: usize>(plane: &mut [u64], flags: &[u64], s: usize) {
    let bulk = chunked::<S>(plane.len());
    let (plane_bulk, plane_rest) = plane.split_at_mut(bulk);
    for (p, f) in plane_bulk
        .chunks_exact_mut(CHUNK)
        .zip(flags.chunks_exact(CHUNK))
    {
        let mut v = [0u64; CHUNK];
        v.copy_from_slice(p);
        for i in 0..CHUNK {
            p[i] = v[i] ^ ((v[i] ^ v[i ^ S]) & f[i & !S]);
        }
    }
    for (pc, fc) in plane_rest
        .chunks_exact_mut(2 * s)
        .zip(flags[bulk..].chunks_exact(2 * s))
    {
        let (lo, hi) = pc.split_at_mut(s);
        for ((l, h), &f) in lo.iter_mut().zip(hi).zip(fc) {
            let t = (*l ^ *h) & f;
            *l ^= t;
            *h ^= t;
        }
    }
}

/// Exchange flags for one tile of whole frames: bit `P` of `f` set means
/// the switch whose left line sits at physical position `P` exchanges.
/// `lev` holds `depth + 2` tile-sized rows: the up-sweep levels
/// `1..=depth` (compact after word-pair levels), then two for the
/// descending `zd`. With `detect`, returns `false` without computing flags
/// as soon as the root row shows an unbalanced box on a live lane.
#[inline(always)]
fn tile_flags(
    x: &[u64],
    f: &mut [u64],
    lev: &mut [u64],
    folds: &[Fold],
    detect: Option<u64>,
) -> bool {
    let t = x.len();
    let p = folds.len();
    let (ups, zbuf) = lev.split_at_mut(p * t);
    // Up-sweep, level l + 1 into row l.
    let mut len = t;
    for (l, &fold) in folds.iter().enumerate() {
        let (below, row) = ups.split_at_mut(l * t);
        let src = if l == 0 {
            x
        } else {
            &below[(l - 1) * t..(l - 1) * t + len]
        };
        match fold {
            Fold::Lane { shift, node } => lane_up(src, &mut row[..len], shift, node),
            Fold::Pair { stride, .. } => {
                len /= 2;
                by_stride!(stride, pair_up(src, &mut row[..len], stride));
            }
        }
    }
    // The root row holds every box's parity. Definition 3 wants it even,
    // and 1 (exactly one 1) for sp(1)'s pairs.
    let root = &ups[(p - 1) * t..(p - 1) * t + len];
    if let Some(live) = detect {
        let (Fold::Lane { node, .. } | Fold::Pair { node, .. }) = folds[p - 1];
        let odd = if p == 1 { !0 } else { 0 };
        if root.iter().fold(0, |acc, &r| acc | (r ^ odd)) & node & live != 0 {
            return false;
        }
    }
    // `zd` at the root: its echo of its own up-value (Definition 6). sp(1)
    // has no arbiter: its `zd` is 0, so the control is the left line's bit.
    let (mut zd, mut spare) = zbuf.split_at_mut(t);
    if p == 1 {
        zd[..len].fill(0);
    } else {
        zd[..len].copy_from_slice(root);
    }

    // Down-sweep to the children of level 2.
    for l in (2..=p).rev() {
        let zu = &ups[(l - 1) * t..(l - 1) * t + len];
        match folds[l - 1] {
            Fold::Lane { shift, node } => lane_down(zu, &mut zd[..len], shift, node),
            Fold::Pair { stride, node } => {
                by_stride!(
                    stride,
                    pair_down(zu, &zd[..len], &mut spare[..2 * len], stride, node)
                );
                std::mem::swap(&mut zd, &mut spare);
                len *= 2;
            }
        }
    }
    // Level 1: the left child's zd is `zu & zd`, and the control is
    // `s(left) ^ zd(left)`.
    let (zu, zd) = (&ups[..len], &zd[..len]);
    match folds[0] {
        Fold::Lane { node, .. } => {
            for (f, ((&x, &u), &z)) in f.iter_mut().zip(x.iter().zip(zu).zip(zd)) {
                *f = (x ^ (u & z)) & node;
            }
        }
        Fold::Pair { stride, .. } => by_stride!(stride, pair_flags(x, zu, zd, f, stride)),
    }
    true
}

/// Exchanges the flagged switches on every plane of `planes` (each
/// `flags.len()` words): the cells at physical positions `P` and
/// `P + 2^σ(0)` trade places wherever bit `P` of `flags` is set. `pair`
/// is the column's level-1 fold.
#[inline(always)]
fn exchange_planes(planes: &mut [u64], flags: &[u64], pair: Fold) {
    let words = flags.len();
    for plane in planes.chunks_exact_mut(words) {
        match pair {
            Fold::Lane { shift, .. } => {
                for (x, &f) in plane.iter_mut().zip(flags) {
                    let t = (*x ^ (*x >> shift)) & f;
                    *x ^= t ^ (t << shift);
                }
            }
            Fold::Pair { stride, .. } => by_stride!(stride, exchange_pairs(plane, flags, stride)),
        }
    }
}

/// Body of one column: the arbiter sweep of the current plane
/// (`live[..words]`) tile by tile into `flags`, then the exchange on every
/// live plane and every index plane. Returns the column's exchanges, the
/// popcount of the flag words it wrote, counted tile by tile while they
/// are in cache (0 without `pass.count`), or `None`, with nothing
/// exchanged, when `pass.detect` finds an unbalanced box.
/// `#[inline(always)]` so each build gets its own autovectorized copy:
/// every pass is a lane-wise shift/mask loop over sequential words with a
/// loop-invariant shift, and the popcount is one instruction where the
/// build has one.
#[inline(always)]
fn column_pass_body(
    live: &mut [u64],
    iplanes: &mut [u64],
    flags: &mut [u64],
    lev: &mut [u64],
    pass: &ColumnPass,
) -> Option<u64> {
    let words = pass.words;
    let mut exchanges = 0;
    for (x, f) in live[..words]
        .chunks(pass.tile)
        .zip(flags[..words].chunks_mut(pass.tile))
    {
        if !tile_flags(x, f, lev, pass.folds, pass.detect) {
            return None;
        }
        if pass.count {
            exchanges += f.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        }
    }
    let flags = &flags[..words];
    let pair = pass.folds[0];
    let from = if pass.last { words } else { 0 };
    exchange_planes(&mut live[from..], flags, pair);
    exchange_planes(iplanes, flags, pair);
    Some(exchanges)
}

/// [`column_pass_body`] in the portable build.
#[inline(never)]
fn column_pass_portable(
    live: &mut [u64],
    iplanes: &mut [u64],
    flags: &mut [u64],
    lev: &mut [u64],
    pass: &ColumnPass,
) -> Option<u64> {
    column_pass_body(live, iplanes, flags, lev, pass)
}

/// [`column_pass_body`] in the AVX-512 build.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl,popcnt")]
#[inline(never)]
fn column_pass_avx512(
    live: &mut [u64],
    iplanes: &mut [u64],
    flags: &mut [u64],
    lev: &mut [u64],
    pass: &ColumnPass,
) -> Option<u64> {
    column_pass_body(live, iplanes, flags, lev, pass)
}

/// [`column_pass_body`] in the AVX2 build.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
#[inline(never)]
fn column_pass_avx2(
    live: &mut [u64],
    iplanes: &mut [u64],
    flags: &mut [u64],
    lev: &mut [u64],
    pass: &ColumnPass,
) -> Option<u64> {
    column_pass_body(live, iplanes, flags, lev, pass)
}

/// Runs one column pass in `build`. Each build's pass is a function of
/// its own, which keeps the routes around it small enough for the
/// inliner. Every caller runs inside one build's copy of a route, where
/// `build` is a constant and the match folds away.
#[inline(always)]
fn column_pass(
    build: Build,
    live: &mut [u64],
    iplanes: &mut [u64],
    flags: &mut [u64],
    lev: &mut [u64],
    pass: &ColumnPass,
) -> Option<u64> {
    match build.0 {
        // SAFETY: a SIMD build exists only where its features were
        // detected (see `Build`).
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { column_pass_avx512(live, iplanes, flags, lev, pass) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { column_pass_avx2(live, iplanes, flags, lev, pass) },
        Isa::Portable => column_pass_portable(live, iplanes, flags, lev, pass),
    }
}

/// The instruction set a word-parallel route runs in. Each call of the
/// kernel — a [`crate::batch::route_batch`] call or a
/// [`RouteSpan::run`] — picks one and runs validation (for a batch),
/// plane extraction, every column pass and the delivery inside it.
///
/// Only [`Build::detect`] and, in tests, [`Build::available`] make a SIMD
/// build, and every match that enters one is in this module, so a SIMD
/// build exists only on a CPU that has its features: that is what makes
/// entering it sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Build(Isa);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    /// Baseline code for the target: the reference every other build is
    /// tested against.
    Portable,
    /// AVX2 and POPCNT.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512 (F, BW, DQ, VL) and POPCNT.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Build {
    /// The portable build, which every CPU runs.
    pub(crate) const PORTABLE: Build = Build(Isa::Portable);

    /// The widest build this CPU runs.
    pub(crate) fn detect() -> Build {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("popcnt") && has!("avx2") {
                if has!("avx512f") && has!("avx512bw") && has!("avx512dq") && has!("avx512vl") {
                    return Build(Isa::Avx512);
                }
                return Build(Isa::Avx2);
            }
        }
        Build::PORTABLE
    }

    /// Every build this CPU runs, portable first.
    #[cfg(test)]
    pub(crate) fn available() -> Vec<Build> {
        let mut builds = vec![Build::PORTABLE];
        #[cfg(target_arch = "x86_64")]
        {
            let widest = Build::detect().0;
            if widest != Isa::Portable {
                builds.push(Build(Isa::Avx2));
            }
            if widest == Isa::Avx512 {
                builds.push(Build(Isa::Avx512));
            }
        }
        builds
    }
}

/// [`crate::batch::route_batch`] in `build`. Each SIMD build's wrapper
/// compiles its own copy of the whole route, with the build a constant
/// in it.
pub(crate) fn route_batch_in(
    build: Build,
    net: &BnbNetwork,
    batch: &mut FrameBatch,
    opts: &RouteSpan<'_>,
    scratch: &mut StageScratch,
    outcome: &mut BatchOutcome,
) {
    match build.0 {
        // SAFETY: a SIMD build exists only where its features were
        // detected (see `Build`).
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { route_batch_avx512(net, batch, opts, scratch, outcome) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { route_batch_avx2(net, batch, opts, scratch, outcome) },
        Isa::Portable => route_batch_body(Build::PORTABLE, net, batch, opts, scratch, outcome),
    }
}

/// [`route_batch_body`] in the AVX-512 build.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl,popcnt")]
fn route_batch_avx512(
    net: &BnbNetwork,
    batch: &mut FrameBatch,
    opts: &RouteSpan<'_>,
    scratch: &mut StageScratch,
    outcome: &mut BatchOutcome,
) {
    route_batch_body(Build(Isa::Avx512), net, batch, opts, scratch, outcome);
}

/// [`route_batch_body`] in the AVX2 build.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
fn route_batch_avx2(
    net: &BnbNetwork,
    batch: &mut FrameBatch,
    opts: &RouteSpan<'_>,
    scratch: &mut StageScratch,
    outcome: &mut BatchOutcome,
) {
    route_batch_body(Build(Isa::Avx2), net, batch, opts, scratch, outcome);
}

/// [`RouteSpan::run`]'s word-parallel path in `build`: the span is the
/// only frame of one call of the kernel.
pub(crate) fn route_span_in(
    build: Build,
    call: &Call<'_>,
    lines: &mut [Record],
    scratch: &mut StageScratch,
) -> Result<(), RouteError> {
    match build.0 {
        // SAFETY: a SIMD build exists only where its features were
        // detected (see `Build`).
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { route_span_avx512(call, lines, scratch) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { route_span_avx2(call, lines, scratch) },
        Isa::Portable => route_span_body(Build::PORTABLE, call, lines, scratch),
    }
}

/// [`route_span_body`] in the AVX-512 build. Kept out of line, so that a
/// batch routed frame by frame does not inline a second copy of the
/// kernel into its own.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl,popcnt")]
#[inline(never)]
fn route_span_avx512(
    call: &Call<'_>,
    lines: &mut [Record],
    scratch: &mut StageScratch,
) -> Result<(), RouteError> {
    route_span_body(Build(Isa::Avx512), call, lines, scratch)
}

/// [`route_span_body`] in the AVX2 build, out of line like the AVX-512 one.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
#[inline(never)]
fn route_span_avx2(
    call: &Call<'_>,
    lines: &mut [Record],
    scratch: &mut StageScratch,
) -> Result<(), RouteError> {
    route_span_body(Build(Isa::Avx2), call, lines, scratch)
}

/// Routes `call.stages` over one aligned span, word-parallel: the span's
/// cells become a one-frame batch whose payloads are their lines, the
/// kernel routes it, and one gather moves every record to the line the
/// routed payload column names. Same contract and error values as the
/// scalar kernel; see the module docs. Strict spans are not validated, so
/// they detect unbalanced splitters.
#[inline(always)]
fn route_span_body(
    build: Build,
    call: &Call<'_>,
    lines: &mut [Record],
    scratch: &mut StageScratch,
) -> Result<(), RouteError> {
    let stages = &call.stages;
    if stages.is_empty() {
        return Ok(());
    }
    let m = call.net.m();
    let span = lines.len();
    debug_assert!(stages.end <= m, "stage range {stages:?} exceeds m = {m}");
    debug_assert_eq!(
        span,
        1usize << (m - stages.start),
        "slice length must match the starting stage"
    );
    debug_assert_eq!(call.first_line % span, 0, "slice must be aligned");
    // The destination bits of the stages routed, most significant first.
    let shift = m - stages.end;
    let mask = (1usize << stages.len()) - 1;
    let mut dests = std::mem::take(&mut scratch.packed.span_dests);
    let mut sources = std::mem::take(&mut scratch.packed.span_lines);
    dests.clear();
    dests.extend(lines.iter().map(|r| {
        debug_assert!(r.dest() >> m == 0, "destination must fit in m bits");
        ((r.dest() >> shift) & mask) as u32
    }));
    sources.clear();
    sources.extend(0..span as u64);
    let strict = matches!(call.net.policy(), RoutePolicy::Strict);
    let routed = route_batch_packed(
        build,
        call,
        strict,
        &mut dests,
        &mut sources,
        &[Ok(())],
        scratch,
    );
    if routed.is_ok() {
        scratch.ensure(span);
        let gather = &mut scratch.lines[..span];
        for (dst, &src) in gather.iter_mut().zip(&sources) {
            *dst = lines[src as usize];
        }
        lines.copy_from_slice(gather);
    }
    scratch.packed.span_dests = dests;
    scratch.packed.span_lines = sources;
    routed
}

/// Fills plane words `w0..w1` from a column of `bits`-bit destinations,
/// one bit-plane row per destination bit: bit `j` of word `w` of plane
/// `srel` receives destination bit `bits - 1 - srel` of cell `64w + j`.
/// Runs in `build`: the AVX-512 one peels planes with mask tests, every
/// other build runs the portable loop compiled in it.
#[inline(always)]
fn extract_planes_words(
    build: Build,
    dests: &[u32],
    planes: &mut [u64],
    words: usize,
    bits: usize,
    w0: usize,
    w1: usize,
) {
    assert!(dests.len() >= w1 << 6 && planes.len() >= bits * words);
    match build.0 {
        // SAFETY: a SIMD build exists only where its features were
        // detected (see `Build`); the cells read were asserted above.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { extract_planes_avx512(dests, planes, words, bits, w0, w1) },
        // The portable loop, compiled in the caller's build.
        _ => {
            let mut acc = [0u64; MAX_FRAME_BITS];
            for w in w0..w1 {
                acc[..bits].fill(0);
                for (j, &d) in dests[w << 6..(w + 1) << 6].iter().enumerate() {
                    let d = u64::from(d);
                    for (srel, a) in acc[..bits].iter_mut().enumerate() {
                        *a |= ((d >> (bits - 1 - srel)) & 1) << j;
                    }
                }
                for (srel, &a) in acc[..bits].iter().enumerate() {
                    planes[srel * words + w] = a;
                }
            }
        }
    }
}

/// AVX-512 destination-bit extraction: loads each word's 64 `u32`
/// destinations as four 16-lane vectors once, then peels one plane per
/// `vptestm` mask round — `4 + 4m` vector ops per word against the
/// portable loop's `64m` shift-and-or steps.
///
/// # Safety
///
/// The CPU has the enabled features, and `dests` holds cells
/// `..w1 << 6`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
unsafe fn extract_planes_avx512(
    dests: &[u32],
    planes: &mut [u64],
    words: usize,
    bits: usize,
    w0: usize,
    w1: usize,
) {
    use std::arch::x86_64::*;
    for w in w0..w1 {
        // SAFETY: cells `64w..64w + 64` exist (caller); unaligned loads
        // are explicitly allowed by `loadu`.
        let (v0, v1, v2, v3) = unsafe {
            let p = dests.as_ptr().add(w << 6);
            (
                _mm512_loadu_si512(p.cast()),
                _mm512_loadu_si512(p.add(16).cast()),
                _mm512_loadu_si512(p.add(32).cast()),
                _mm512_loadu_si512(p.add(48).cast()),
            )
        };
        for srel in 0..bits {
            let bit = _mm512_set1_epi32(1 << (bits - 1 - srel));
            let m0 = _mm512_test_epi32_mask(v0, bit) as u64;
            let m1 = _mm512_test_epi32_mask(v1, bit) as u64;
            let m2 = _mm512_test_epi32_mask(v2, bit) as u64;
            let m3 = _mm512_test_epi32_mask(v3, bit) as u64;
            planes[srel * words + w] = m0 | (m1 << 16) | (m2 << 32) | (m3 << 48);
        }
    }
}

/// One call of the kernel: main stages `stages` of `net` over frames of
/// `2^(m - stages.start)` lines, the first at global line `first_line`.
pub(crate) struct Call<'a> {
    pub(crate) net: &'a BnbNetwork,
    pub(crate) stages: Range<usize>,
    pub(crate) first_line: usize,
    /// A non-empty fault map: its columns run [`faulted_column`].
    pub(crate) faults: Option<&'a FaultMap>,
    /// The observer that takes the call's stage totals, if any.
    pub(crate) tally: Option<&'a dyn Observer>,
}

/// The kernel: routes `call` over every valid frame of the SoA columns
/// `dests` (each cell's destination bits for the stages routed) and
/// `data`, word-parallel over the *concatenated* frame-major planes: bit
/// `f·n + P` of a stage's plane is that stage's bit of frame `f`'s cell at
/// position `P`, so every `u64` word is fully occupied whatever the frame
/// size, and the arbiter sweeps and exchanges run at full lane
/// utilisation.
///
/// Wiring as relabeling: no column moves a plane bit for its wiring. The
/// kernel keeps σ ([`Relabel`]), the physical position bit of each logical
/// line-index bit, and applies each wiring to σ instead. A column's
/// arbiter folds tree level `l + 1` at physical bit σ(l) and its switches
/// pair cells `2^σ(0)` apart, so cells move only at exchanges.
///
/// Frames never interact: each occupies an aligned `n`-cell region, σ
/// only renames the low position bits, so every box stays inside its
/// frame, and frames marked `Err` in `valid` contribute all-zero plane
/// regions — zero lanes produce zero exchange flags, so their (skipped)
/// cells are never moved and never read back.
///
/// A call that can fail — a fault map, or strict `detect` — carries one
/// frame and returns the first error in scan order, having reported the
/// stage it cut short. Strict detection reads each healthy column's root
/// row; faulted columns run [`faulted_column`]. A [`FrameBatch`] of
/// validated frames (strict ones on the Unshuffle wiring, which cannot
/// unbalance a splitter, Theorem 2) detects nothing and cannot fail.
///
/// `call.tally` receives one [`StageTotalsEvent`] per main stage summed
/// over the valid frames: the per-frame column and sweep counts times the
/// frame count, and the exchanges each column pass counts in its flag
/// words (inert lanes of invalid frames contribute none). Runs in
/// `build`: `#[inline(always)]`, so it is compiled into each build of the
/// caller.
///
/// Output movement, one frame at a time through frame-sized staging:
/// - **Delivery** (a strict call through the last stage on the Unshuffle
///   wiring, every check passed): Theorem 2 puts the cell destined `d` on
///   output line `d`, so the payloads scatter into the stage and back,
///   and the identity ramp overwrites the destinations in place.
///   Independent of where σ left the cells.
/// - **Index gather** (permissive traffic, another wiring, or a span that
///   stops before the last stage): index bit-planes ride through every
///   exchange, and the gather reads each output line's source index at
///   its physical position under σ.
#[inline(always)]
pub(crate) fn route_batch_packed(
    build: Build,
    call: &Call<'_>,
    detect: bool,
    dests: &mut [u32],
    data: &mut [u64],
    valid: &[Result<(), RouteError>],
    scratch: &mut StageScratch,
) -> Result<(), RouteError> {
    let net = call.net;
    let m = net.m();
    let stages = call.stages.clone();
    let bits = m - stages.start;
    let count = stages.len();
    let n = 1usize << bits;
    let frames = valid.len();
    debug_assert_eq!(dests.len(), frames * n);
    debug_assert!(
        frames == 1 || !(detect || call.faults.is_some()),
        "a call that can fail carries one frame"
    );
    assert!(
        bits <= MAX_FRAME_BITS,
        "frames of 2^{bits} lines exceed the kernel's 2^{MAX_FRAME_BITS}"
    );
    let cells = frames * n;
    let words = cells.div_ceil(64);
    // Sweep tiles hold whole frames, so every box (and every word pair a
    // cross-word level folds) lies inside one tile.
    let tile_max = (n >> 6).max(64);
    let strict = matches!(net.policy(), RoutePolicy::Strict);
    let wiring = net.wiring();
    let deliver = strict && matches!(wiring, WiringMode::Unshuffle) && stages.end == m;
    scratch
        .packed
        .ensure_frames(n, words, count, bits, tile_max);
    let StageScratch {
        bits: box_bits,
        flags: box_flags,
        up,
        tapped,
        packed,
        ..
    } = scratch;
    let PackedScratch {
        planes,
        flags,
        levels,
        schedule,
        schedule_for,
        schedule_end,
        iplanes,
        stage_dests,
        stage_data,
        ..
    } = packed;
    let iplanes = if deliver {
        &mut iplanes[..0]
    } else {
        &mut iplanes[..]
    };

    // Extraction: one pass over each valid frame's destinations fills
    // every plane; invalid frames stay zero (inert lanes).
    for (f, res) in valid.iter().enumerate() {
        if res.is_err() {
            continue;
        }
        let base = f * n;
        if n >= 64 {
            extract_planes_words(
                build,
                dests,
                planes,
                words,
                count,
                base >> 6,
                (base + n) >> 6,
            );
        } else {
            for (j, &d) in dests[base..base + n].iter().enumerate() {
                let g = base + j;
                let d = d as u64;
                for srel in 0..count {
                    planes[srel * words + (g >> 6)] |= ((d >> (count - 1 - srel)) & 1) << (g & 63);
                }
            }
        }
    }
    if !deliver {
        // Index planes: bit b of the within-frame line. Frame bases are
        // multiples of n = 2^bits, so for b < bits this is bit b of the
        // global position — a fixed per-word constant.
        for b in 0..bits {
            let row = &mut iplanes[b * words..(b + 1) * words];
            if b < 6 {
                row.fill(IBIT[b]);
            } else {
                for (w, x) in row.iter_mut().enumerate() {
                    *x = if (w >> (b - 6)) & 1 == 1 { !0 } else { 0 };
                }
            }
        }
    }

    let routed = valid.iter().filter(|r| r.is_ok()).count();
    // The column schedule, like σ itself, depends only on m, the stage
    // range and the wiring: built on the first call of a shape, then
    // reused. σ is followed column by column to build it, where a faulted
    // column or a detected error reads through it, and in debug builds for
    // the balance assert.
    let shape = (m, stages.clone(), wiring);
    let scheduled = schedule_for.as_ref() == Some(&shape);
    let follow = !scheduled || detect || call.faults.is_some() || cfg!(debug_assertions);
    let mut relabel = Relabel::identity(bits);
    if !scheduled {
        schedule.clear();
        *schedule_for = None;
    }
    // A frame narrower than a word leaves lanes that are not live.
    let live_lanes = if cells < 64 { (1u64 << cells) - 1 } else { !0 };
    let mut next = 0;
    for main_stage in stages.clone() {
        let k = m - main_stage;
        let srel = main_stage - stages.start;
        let mut totals = StageTally::new(call.tally, main_stage, call.first_line, n, routed as u64);
        for internal in 0..k {
            let depth = k - internal;
            let live = &mut planes[srel * words..count * words];
            // Validated strict permutations satisfy Definition 3 at every
            // splitter (Theorem 2): there is nothing to detect.
            debug_assert!(
                !strict
                    || detect
                    || (valid.iter().enumerate()).all(|(f, r)| {
                        r.is_err() || relabel.first_unbalanced(live, f * n, depth).is_none()
                    }),
                "validated strict batch unbalanced at stage {main_stage}.{internal}"
            );
            if !scheduled {
                relabel.push_folds(depth, schedule);
            }
            let pass = ColumnPass {
                words,
                tile: words.min(tile_max),
                folds: &schedule[next..next + depth],
                last: internal + 1 == k,
                count: call.tally.is_some(),
                detect: detect.then_some(live_lanes),
            };
            next += depth;
            if let Some(map) = call.faults.filter(|f| f.affects(main_stage, internal)) {
                let boxes = (&mut *box_bits, &mut *tapped, &mut *up, &mut *box_flags);
                let column = (map, main_stage, internal);
                faulted_column(
                    call,
                    column,
                    &relabel,
                    &pass,
                    live,
                    iplanes,
                    flags,
                    boxes,
                    &mut totals,
                )?;
            } else {
                match column_pass(build, live, iplanes, flags, levels, &pass) {
                    Some(exchanges) => totals.column((n >> depth) as u64, depth, exchanges),
                    None => {
                        let site = (main_stage, internal);
                        return Err(unbalanced(call, site, &relabel, live, &mut totals));
                    }
                }
            }
            // Wiring: rotate the low r line-index bits (r = box width
            // inside a stage, r = k for the main wiring; the fabric's very
            // last column has none) — in σ, not in the planes.
            if follow {
                let r = if internal + 1 < k {
                    depth
                } else if main_stage + 1 < m {
                    k
                } else {
                    0
                };
                relabel.wire(r, wiring);
            }
        }
        totals.emit();
    }
    if !scheduled {
        *schedule_for = Some(shape);
        *schedule_end = relabel;
    }
    // Final movement, one frame at a time (a frame's working set — n
    // destinations + n payloads + the stage — stays cache-resident while
    // its cells land). Invalid frames are left untouched.
    for (f, res) in valid.iter().enumerate() {
        if res.is_err() {
            continue;
        }
        let base = f * n;
        let frame_dests = &mut dests[base..base + n];
        let frame_data = &mut data[base..base + n];
        if deliver {
            // Delivery scatter: output line d holds the cell destined d —
            // so only the payloads move, and the destination column
            // becomes the identity ramp. The stage is a slice, whose
            // pointer and length stay in registers while the payloads
            // are stored.
            let stage = &mut stage_data[..n];
            for (&d, &x) in frame_dests.iter().zip(frame_data.iter()) {
                stage[d as usize] = x;
            }
            frame_data.copy_from_slice(stage);
            for (j, d) in frame_dests.iter_mut().enumerate() {
                *d = j as u32;
            }
        } else {
            // Index gather: output line j's cell sits at physical position
            // σ(j) of the frame, and its source line comes out of the
            // carried index planes there.
            for (j, p) in schedule_end.positions(0).enumerate() {
                let g = base + p;
                let (w, b) = (g >> 6, g & 63);
                let mut idx = 0usize;
                for (bb, plane) in iplanes.chunks_exact(words).enumerate() {
                    idx |= (((plane[w] >> b) & 1) as usize) << bb;
                }
                stage_dests[j] = frame_dests[idx];
                stage_data[j] = frame_data[idx];
            }
            frame_dests.copy_from_slice(&stage_dests[..n]);
            frame_data.copy_from_slice(&stage_data[..n]);
        }
    }
    Ok(())
}

/// A box's true bits, their tapped view, the arbiter's up-values and the
/// switch settings: the scalar per-box state of a faulted column.
type BoxBuffers<'s> = (
    &'s mut Vec<bool>,
    &'s mut Vec<bool>,
    &'s mut Vec<bool>,
    &'s mut Vec<bool>,
);

/// A column with faults in `column = (map, main_stage, internal)`, out of
/// the healthy loop: each box's bits are gathered through σ into line
/// order — box `b`'s line `j` sits at position `σ(b·w + j)` — and run
/// through the scalar per-box step in that order, so fault semantics
/// (taps, overrides, the strict balance check and post-swap audit) and
/// error ordering match the scalar path exactly. Each setting is flagged
/// at the position of its switch's left line, and the exchange trades it
/// with the cell `2^σ(0)` away, the right line. The tally counts box by
/// box, so an error cuts it where the scalar sweep's events stop. One
/// frame.
#[cold]
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn faulted_column(
    call: &Call<'_>,
    (map, main_stage, internal): (&FaultMap, usize, usize),
    relabel: &Relabel,
    pass: &ColumnPass<'_>,
    live: &mut [u64],
    iplanes: &mut [u64],
    flags: &mut [u64],
    (bits, tapped, up, controls): BoxBuffers<'_>,
    totals: &mut StageTally<'_>,
) -> Result<(), RouteError> {
    let strict = matches!(call.net.policy(), RoutePolicy::Strict);
    let depth = pass.folds.len();
    let width = 1usize << depth;
    let words = pass.words;
    let flags = &mut flags[..words];
    flags.fill(0);
    for start in (0..1usize << relabel.bits).step_by(width) {
        let first_line = call.first_line + start;
        let boxes_before = (start / width) as u64;
        bits.clear();
        bits.extend(relabel.positions(start).take(width).map(|p| bit(live, p)));
        if strict {
            let site = SplitterSite {
                main_stage,
                internal_stage: internal,
                first_line,
            };
            if let Err(err) = check_balanced(bits, site) {
                totals.swept(boxes_before, depth);
                return Err(totals.fail(err));
            }
        }
        tapped.clear();
        tapped.extend_from_slice(bits);
        map.tap_bits(main_stage, internal, first_line, tapped);
        controls_into(tapped, up, controls);
        map.override_flags(main_stage, internal, first_line, tapped, controls);
        for (&c, p) in controls.iter().zip(relabel.positions(start).step_by(2)) {
            if c {
                flags[p >> 6] |= 1 << (p & 63);
            }
        }
        if strict {
            if let Some((even_ones, odd_ones)) = unbalanced_output(bits, controls) {
                // The failing box was swept before its audit.
                totals.swept(boxes_before + 1, depth);
                return Err(totals.fail(RouteError::HardwareFault {
                    main_stage,
                    internal_stage: internal,
                    first_line,
                    width,
                    even_ones,
                    odd_ones,
                }));
            }
        }
    }
    let from = if pass.last { words } else { 0 };
    exchange_planes(&mut live[from..], flags, pass.folds[0]);
    exchange_planes(iplanes, flags, pass.folds[0]);
    let exchanges = flags.iter().map(|w| u64::from(w.count_ones())).sum();
    totals.column((1u64 << relabel.bits) >> depth, depth, exchanges);
    Ok(())
}

/// The error of a column whose root row showed an unbalanced box, out of
/// the healthy loop: names the first unbalanced box in line order, as
/// the scalar path does, after the boxes before it in the tally. One
/// frame, its plane not yet exchanged.
#[cold]
#[inline(never)]
fn unbalanced(
    call: &Call<'_>,
    (main_stage, internal): (usize, usize),
    relabel: &Relabel,
    plane: &[u64],
    totals: &mut StageTally<'_>,
) -> RouteError {
    let depth = call.net.m() - main_stage - internal;
    let (start, ones) = relabel
        .first_unbalanced(plane, 0, depth)
        .expect("the root row showed an unbalanced box");
    totals.swept((start >> depth) as u64, depth);
    totals.fail(RouteError::UnbalancedSplitter {
        main_stage,
        internal_stage: internal,
        first_line: call.first_line + start,
        width: 1 << depth,
        ones,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultSite};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The column pass with σ the identity equals the scalar tree on
    /// every box: boxes inside a word, across words, and past the 4096
    /// lines whose word parities fill one word.
    #[test]
    fn identity_column_matches_scalar_tree() {
        let mut rng = StdRng::seed_from_u64(32);
        let mut folds = Vec::new();
        Relabel::identity(13).push_folds(13, &mut folds);
        let (mut up, mut ctl) = (Vec::new(), Vec::new());
        for depth in 1..=13usize {
            let n = 1usize << depth;
            let words = (2 * n).div_ceil(64);
            let tile = words.min((n >> 6).max(64));
            for _ in 0..if depth > 10 { 4 } else { 40 } {
                let mut live: Vec<u64> = (0..words).map(|_| rng.random()).collect();
                let before = live.clone();
                let mut flags = vec![0u64; words];
                let mut lev = vec![0u64; (depth + 2) * tile];
                let pass = ColumnPass {
                    words,
                    tile,
                    folds: &folds[..depth],
                    last: false,
                    count: false,
                    detect: None,
                };
                column_pass_body(&mut live, &mut [], &mut flags, &mut lev, &pass);
                let bits: Vec<bool> = (0..words * 64).map(|j| bit(&before, j)).collect();
                let mut want = vec![0u64; words];
                for (b, lines) in bits.chunks(n).enumerate() {
                    controls_into(lines, &mut up, &mut ctl);
                    for (t, &c) in ctl.iter().enumerate() {
                        let pos = b * n + 2 * t;
                        want[pos >> 6] |= u64::from(c) << (pos & 63);
                    }
                }
                assert_eq!(flags, want, "depth = {depth}");
            }
        }
    }

    /// A random relabeling of `bits` line bits: σ is a permutation of
    /// `0..bits`, as the column wirings leave it.
    fn random_relabel(bits: usize, rng: &mut StdRng) -> Relabel {
        let mut relabel = Relabel::identity(bits);
        for l in (1..bits).rev() {
            relabel.sigma.swap(l, rng.random_range(0..=l));
        }
        relabel
    }

    /// Random planes for `frames` frames of `2^bits` lines, one flag row,
    /// and the column pass of `2^depth`-line boxes under `relabel`.
    fn random_column(
        rng: &mut StdRng,
    ) -> (Relabel, usize, usize, Vec<u64>, Vec<u64>, Vec<Fold>, usize) {
        let bits = rng.random_range(1..=10usize);
        let relabel = random_relabel(bits, rng);
        let depth = rng.random_range(1..=bits);
        let frames = rng.random_range(1..=5usize);
        let cells = frames << bits;
        let words = cells.div_ceil(64);
        // Lanes past the last frame are zero, as the kernel pads them.
        let tail = if cells % 64 == 0 {
            !0
        } else {
            (1u64 << (cells % 64)) - 1
        };
        let mut random_planes = |count: usize| -> Vec<u64> {
            let mut planes: Vec<u64> = (0..count * words).map(|_| rng.random()).collect();
            for plane in planes.chunks_exact_mut(words) {
                plane[words - 1] &= tail;
            }
            planes
        };
        let live = random_planes(2);
        let iplanes = random_planes(1);
        let mut folds = Vec::new();
        relabel.push_folds(depth, &mut folds);
        (relabel, depth, frames, live, iplanes, folds, words)
    }

    /// The relabeled column pass equals the scalar arbiter run on each
    /// box in logical line order, for any σ — in-word and cross-word
    /// levels in every order, the non-contiguous orders a Shuffle wiring
    /// leaves included — its exchange swaps exactly the flagged switches,
    /// `2^σ(0)` positions apart, on every plane, and it counts them.
    #[test]
    fn relabeled_column_matches_scalar_arbiter() {
        let mut rng = StdRng::seed_from_u64(35);
        let (mut up, mut ctl) = (Vec::new(), Vec::new());
        for _ in 0..400 {
            let (relabel, depth, frames, mut live, mut iplanes, folds, words) =
                random_column(&mut rng);
            let (bits, n) = (relabel.bits, 1usize << relabel.bits);
            let (before, ibefore) = (live.clone(), iplanes.clone());
            let tile = words.min((n >> 6).max(64));
            let mut flags = vec![0u64; words];
            let mut lev = vec![0u64; (bits + 2) * tile];
            let pass = ColumnPass {
                words,
                tile,
                folds: &folds,
                last: false,
                count: true,
                detect: None,
            };
            let exchanges = column_pass_body(&mut live, &mut iplanes, &mut flags, &mut lev, &pass);
            let ctx = format!("sigma = {:?}, depth = {depth}", &relabel.sigma[..bits]);
            let walked = (0..n).map(|j| relabel.positions(j).next());
            assert!(
                walked.eq((0..n).map(|j| Some(relabel.position(j)))),
                "{ctx}"
            );
            assert!(
                relabel.positions(0).eq((0..n).map(|j| relabel.position(j))),
                "{ctx}"
            );
            let mut want_flags = vec![0u64; words];
            let box_size = 1usize << depth;
            for f in 0..frames {
                for start in (0..n).step_by(box_size) {
                    let at = |j: usize| f * n + relabel.position(start + j);
                    let bits: Vec<bool> = (0..box_size).map(|j| bit(&before, at(j))).collect();
                    controls_into(&bits, &mut up, &mut ctl);
                    for (t, &c) in ctl.iter().enumerate() {
                        let (l, r) = (at(2 * t), at(2 * t + 1));
                        want_flags[l >> 6] |= u64::from(c) << (l & 63);
                        for (plane, old) in [
                            (&live[..], &before[..]),
                            (&live[words..], &before[words..]),
                            (&iplanes[..], &ibefore[..]),
                        ] {
                            let (l_to, r_to) = if c { (r, l) } else { (l, r) };
                            assert_eq!(bit(plane, l_to), bit(old, l), "{ctx}: exchange");
                            assert_eq!(bit(plane, r_to), bit(old, r), "{ctx}: exchange");
                        }
                    }
                }
            }
            assert_eq!(flags, want_flags, "{ctx}: flags");
            let want_exchanges: u32 = want_flags.iter().map(|w| w.count_ones()).sum();
            assert_eq!(
                exchanges,
                Some(u64::from(want_exchanges)),
                "{ctx}: exchanges"
            );
        }
    }

    /// The portable build of the column pass against its SIMD builds, on
    /// the same inputs, with and without detection: runners with and
    /// without AVX-512 check the same code, and the relabeling oracle
    /// above holds the portable one. Each build counts the exchanges it
    /// flags.
    #[test]
    fn column_pass_builds_agree() {
        let mut rng = StdRng::seed_from_u64(36);
        for _ in 0..400 {
            let (relabel, depth, frames, live, iplanes, folds, words) = random_column(&mut rng);
            let n = 1usize << relabel.bits;
            let tile = words.min((n >> 6).max(64));
            let last = rng.random_bool(0.5);
            let cells = frames * n;
            let live_lanes = if cells < 64 { (1u64 << cells) - 1 } else { !0 };
            let pass = ColumnPass {
                words,
                tile,
                folds: &folds,
                last,
                count: true,
                detect: (frames == 1 && rng.random_bool(0.5)).then_some(live_lanes),
            };
            let run = |build: Build| {
                let (mut live, mut iplanes) = (live.clone(), iplanes.clone());
                let mut flags = vec![0u64; words];
                let mut lev = vec![0u64; (relabel.bits + 2) * tile];
                let exchanges =
                    column_pass(build, &mut live, &mut iplanes, &mut flags, &mut lev, &pass);
                if exchanges.is_some() {
                    let flagged: u32 = flags.iter().map(|w| w.count_ones()).sum();
                    assert_eq!(exchanges, Some(u64::from(flagged)), "{build:?} exchanges");
                }
                (live, iplanes, exchanges.map(|_| flags))
            };
            let portable = run(Build::PORTABLE);
            let ctx = format!(
                "sigma = {:?}, depth = {depth}",
                &relabel.sigma[..relabel.bits]
            );
            for build in Build::available() {
                assert_eq!(run(build), portable, "{build:?} build, {ctx}");
            }
        }
    }

    /// Random destination bits for a frame of `2^bits` lines in logical
    /// line order: every `2^depth`-line box balanced (an even count, one 1
    /// per `sp(1)` pair), then, half the time, one to three lines flipped.
    fn random_logical_bits(bits: usize, depth: usize, rng: &mut StdRng) -> Vec<bool> {
        let (n, width) = (1usize << bits, 1usize << depth);
        let mut line_bits: Vec<bool> = (0..n).map(|_| rng.random_bool(0.5)).collect();
        for b in line_bits.chunks_mut(width) {
            if width == 2 {
                b[1] = !b[0];
            } else if b.iter().filter(|&&x| x).count() % 2 == 1 {
                b[0] = !b[0];
            }
        }
        if rng.random_bool(0.5) {
            for _ in 0..rng.random_range(1..=3) {
                let j = rng.random_range(0..n);
                line_bits[j] = !line_bits[j];
            }
        }
        line_bits
    }

    /// `line_bits` (logical line order) as a one-frame plane under σ.
    fn physical_plane(relabel: &Relabel, line_bits: &[bool]) -> Vec<u64> {
        let mut plane = vec![0u64; line_bits.len().div_ceil(64)];
        for (j, &b) in line_bits.iter().enumerate() {
            let p = relabel.position(j);
            plane[p >> 6] |= u64::from(b) << (p & 63);
        }
        plane
    }

    /// Strict detection from the root row, on one frame of 2 to 8192
    /// lines (narrower than a word included) under a random σ, for box
    /// depths 1..=13: it fires exactly when a scan of the boxes in
    /// logical line order finds an unbalanced one, and the slow path
    /// names that box and its ones, after the boxes before it in the
    /// tally.
    #[test]
    fn root_row_detection_matches_logical_scan() {
        let mut rng = StdRng::seed_from_u64(38);
        let mut fired = [0usize; 2];
        for _ in 0..600 {
            let bits = rng.random_range(1..=13usize);
            let depth = rng.random_range(1..=bits);
            let (n, width) = (1usize << bits, 1usize << depth);
            let relabel = random_relabel(bits, &mut rng);
            let line_bits = random_logical_bits(bits, depth, &mut rng);
            let plane = physical_plane(&relabel, &line_bits);
            let words = plane.len();
            let tile = words.min((n >> 6).max(64));
            let mut folds = Vec::new();
            relabel.push_folds(depth, &mut folds);
            let pass = ColumnPass {
                words,
                tile,
                folds: &folds,
                last: false,
                count: false,
                detect: Some(if n < 64 { (1u64 << n) - 1 } else { !0 }),
            };
            let (mut live, mut flags) = (plane.clone(), vec![0u64; words]);
            let mut lev = vec![0u64; (depth + 2) * tile];
            let got = column_pass_body(&mut live, &mut [], &mut flags, &mut lev, &pass);
            let want = (0..n).step_by(width).find_map(|start| {
                let ones = line_bits[start..start + width]
                    .iter()
                    .filter(|&&b| b)
                    .count();
                let ok = if width == 2 { ones == 1 } else { ones % 2 == 0 };
                (!ok).then_some((start, ones))
            });
            let ctx = format!("sigma = {:?}, depth = {depth}", &relabel.sigma[..bits]);
            assert_eq!(got.is_none(), want.is_some(), "{ctx}: detection");
            fired[usize::from(got.is_none())] += 1;
            let Some((start, ones)) = want else {
                continue;
            };
            assert_eq!(live, plane, "{ctx}: a detected column exchanged");
            // The slow path, for column `internal` of main stage 0 of a
            // network of `bits + 1` stages whose span starts at line n.
            let (m, internal) = (bits + 1, bits - depth);
            let net = BnbNetwork::new(m);
            let call = Call {
                net: &net,
                stages: 1..m,
                first_line: n,
                faults: None,
                tally: None,
            };
            let mut totals = StageTally::new(None, 1, n, n, 1);
            let err = unbalanced(&call, (1, internal), &relabel, &plane, &mut totals);
            let want_err = RouteError::UnbalancedSplitter {
                main_stage: 1,
                internal_stage: internal,
                first_line: n + start,
                width,
                ones,
            };
            assert_eq!(err, want_err, "{ctx}");
            assert_eq!(
                totals.totals.sweeps,
                (start / width) as u64,
                "{ctx}: sweeps"
            );
        }
        assert!(fired[0] > 100 && fired[1] > 100, "test premise: {fired:?}");
    }

    /// A faulted column read through a random σ, for every fault kind at
    /// random sites: its flags, exchange and count, `HardwareFault`
    /// values and tally cut equal the scalar per-box step run on each box
    /// in logical line order, with each switch's setting at the position
    /// of its left line.
    #[test]
    fn faulted_column_matches_scalar_boxes() {
        let kinds = [
            FaultKind::StuckStraight,
            FaultKind::StuckExchange,
            FaultKind::DeadArbiter,
            FaultKind::BrokenLink,
        ];
        let mut rng = StdRng::seed_from_u64(39);
        let (mut up, mut ctl, mut tapped) = (Vec::new(), Vec::new(), Vec::new());
        let mut outcomes = [0usize; 3];
        for _ in 0..1500 {
            // A span of 2^bits lines starting at main stage `first` of an
            // m-stage network, at a random aligned first line.
            let bits = rng.random_range(1..=9usize);
            let first = rng.random_range(0..=2usize);
            let m = bits + first;
            let n = 1usize << bits;
            let first_line = rng.random_range(0..1usize << first) * n;
            let main_stage = rng.random_range(first..m);
            let internal = rng.random_range(0..m - main_stage);
            let depth = m - main_stage - internal;
            let width = 1usize << depth;
            let strict = rng.random_bool(0.7);
            let policy = if strict {
                RoutePolicy::Strict
            } else {
                RoutePolicy::Permissive
            };
            let net = BnbNetwork::builder(m).policy(policy).build();
            // One to three faults of random kinds in this column, mostly
            // on elements inside the span.
            let mut map = FaultMap::new();
            for _ in 0..rng.random_range(1..=3) {
                let kind = kinds[rng.random_range(0..kinds.len())];
                let per = match kind {
                    FaultKind::StuckStraight | FaultKind::StuckExchange => 2,
                    FaultKind::DeadArbiter => width,
                    _ => 1,
                };
                let element = if rng.random_bool(0.9) {
                    (first_line + rng.random_range(0..n)) / per
                } else {
                    rng.random_range(0..kind.elements(m, main_stage, internal))
                };
                map.insert(FaultSite::new(main_stage, internal, element), kind);
            }
            let relabel = random_relabel(bits, &mut rng);
            let line_bits = random_logical_bits(bits, depth, &mut rng);
            let plane = physical_plane(&relabel, &line_bits);
            let words = plane.len();
            let rider: Vec<u64> = (0..words).map(|_| rng.random::<u64>()).collect();
            let mut live: Vec<u64> = plane.iter().chain(&rider).copied().collect();
            if n < 64 {
                live[words - 1] &= (1u64 << n) - 1;
                live[2 * words - 1] &= (1u64 << n) - 1;
            }
            let before = live.clone();
            let mut iplanes = before[words..].to_vec();
            let mut folds = Vec::new();
            relabel.push_folds(depth, &mut folds);
            let last = rng.random_bool(0.3);
            let pass = ColumnPass {
                words,
                tile: words,
                folds: &folds,
                last,
                count: true,
                detect: None,
            };
            let call = Call {
                net: &net,
                stages: first..m,
                first_line,
                faults: Some(&map),
                tally: None,
            };
            let mut flags = vec![0u64; words];
            let mut totals = StageTally::new(None, main_stage, first_line, n, 1);
            let mut buffers: [Vec<bool>; 4] = Default::default();
            let [b0, b1, b2, b3] = &mut buffers;
            let boxes = (b0, b1, b2, b3);
            let got = faulted_column(
                &call,
                (&map, main_stage, internal),
                &relabel,
                &pass,
                &mut live,
                &mut iplanes,
                &mut flags,
                boxes,
                &mut totals,
            );
            // The scalar step on each box in logical line order.
            let mut want_flags = vec![0u64; words];
            let mut want = Ok(());
            let mut swept = (n / width) as u64;
            for start in (0..n).step_by(width) {
                let (site, box_bits) = (first_line + start, &line_bits[start..start + width]);
                let ones = box_bits.iter().filter(|&&b| b).count();
                if strict && !(if width == 2 { ones == 1 } else { ones % 2 == 0 }) {
                    want = Err(RouteError::UnbalancedSplitter {
                        main_stage,
                        internal_stage: internal,
                        first_line: site,
                        width,
                        ones,
                    });
                    swept = (start / width) as u64;
                    break;
                }
                tapped.clear();
                tapped.extend_from_slice(box_bits);
                map.tap_bits(main_stage, internal, site, &mut tapped);
                controls_into(&tapped, &mut up, &mut ctl);
                map.override_flags(main_stage, internal, site, &tapped, &mut ctl);
                let (mut even_ones, mut odd_ones) = (0, 0);
                for (t, &c) in ctl.iter().enumerate() {
                    let p = relabel.position(start + 2 * t);
                    want_flags[p >> 6] |= u64::from(c) << (p & 63);
                    let (a, b) = (box_bits[2 * t], box_bits[2 * t + 1]);
                    even_ones += usize::from(if c { b } else { a });
                    odd_ones += usize::from(if c { a } else { b });
                }
                let balanced = if width == 2 {
                    (even_ones, odd_ones) == (0, 1)
                } else {
                    even_ones == odd_ones
                };
                if strict && !balanced {
                    want = Err(RouteError::HardwareFault {
                        main_stage,
                        internal_stage: internal,
                        first_line: site,
                        width,
                        even_ones,
                        odd_ones,
                    });
                    swept = (start / width + 1) as u64;
                    break;
                }
            }
            let ctx = format!(
                "sigma = {:?}, stage {main_stage}.{internal}, {map:?}",
                &relabel.sigma[..bits]
            );
            assert_eq!(got, want, "{ctx}");
            outcomes[match &got {
                Ok(()) => 0,
                Err(RouteError::HardwareFault { .. }) => 1,
                Err(_) => 2,
            }] += 1;
            assert_eq!(totals.totals.sweeps, swept, "{ctx}: sweeps");
            assert_eq!(totals.totals.max_depth, if swept > 0 { depth } else { 0 });
            if got.is_err() {
                assert_eq!(totals.totals.columns, 0, "{ctx}: a failed column counted");
                continue;
            }
            assert_eq!(flags, want_flags, "{ctx}: flags");
            let flagged: u32 = want_flags.iter().map(|w| w.count_ones()).sum();
            assert_eq!(
                totals.totals.exchanges,
                u64::from(flagged),
                "{ctx}: exchanges"
            );
            assert_eq!(totals.totals.columns, 1);
            // Each flagged switch traded its left and right lines on the
            // rider planes, and on the current one unless it just died.
            for j in (0..n).step_by(2) {
                let (l, r) = (relabel.position(j), relabel.position(j + 1));
                let c = bit(&want_flags, l);
                let (l_from, r_from) = if c { (r, l) } else { (l, r) };
                for (plane, old, exchanged) in [
                    (&live[..words], &before[..words], !last),
                    (&live[words..], &before[words..], true),
                    (&iplanes[..], &before[words..], true),
                ] {
                    let (lf, rf) = if exchanged { (l_from, r_from) } else { (l, r) };
                    assert_eq!(bit(plane, l), bit(old, lf), "{ctx}: line {j}");
                    assert_eq!(bit(plane, r), bit(old, rf), "{ctx}: line {j}");
                }
            }
        }
        assert!(
            outcomes.iter().all(|&c| c > 50),
            "test premise: {outcomes:?}"
        );
    }

    /// Plane extraction in every build equals the bit-by-bit definition,
    /// for every destination width the kernel takes.
    #[test]
    fn extraction_builds_agree() {
        let mut rng = StdRng::seed_from_u64(37);
        for bits in 1..=MAX_FRAME_BITS {
            let words = 3;
            let dests: Vec<u32> = (0..64 * words)
                .map(|_| rng.random::<u32>() >> (32 - bits))
                .collect();
            let mut want = vec![0u64; bits * words];
            for (g, &d) in dests.iter().enumerate() {
                for srel in 0..bits {
                    want[srel * words + g / 64] |=
                        u64::from((d >> (bits - 1 - srel)) & 1) << (g % 64);
                }
            }
            for build in Build::available() {
                let mut planes = vec![0u64; bits * words];
                extract_planes_words(build, &dests, &mut planes, words, bits, 1, 3);
                extract_planes_words(build, &dests, &mut planes, words, bits, 0, 1);
                assert_eq!(planes, want, "{build:?} build, bits = {bits}");
            }
        }
    }
}
