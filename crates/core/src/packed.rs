//! Word-parallel (bit-packed) stage-span routing: the fast path behind
//! [`crate::stages::RouteSpan`] for no observer, or for one that takes
//! stage totals instead of per-column events.
//!
//! The paper's arbiter (Definition 6) computes every switch setting from
//! one-bit local information: XOR parities sweep *up* a binary tree and
//! flags echo *down*. Because the per-line control state is exactly one
//! bit, 64 adjacent lines pack into a `u64` and each sweep level becomes a
//! handful of shift/XOR/mask operations:
//!
//! - **Bit-planes** — each cell's `m` destination bits are extracted once
//!   per span into per-stage `u64` planes (`plane[s]` bit `j` = paper bit
//!   `s` of the record currently on line `j`) and kept in permuted order
//!   as cells move through switches and wirings, replacing the per-column
//!   `paper_bit` loop of the scalar path.
//! - **Up-sweep** — level-`l` parities of every box in a column at once:
//!   `lev[l] = (lev[l-1] ^ (lev[l-1] >> 2^(l-1))) & STRIDE[l]`.
//! - **Down-sweep** — the flag echo as masked select/merge words: a node
//!   with `zu = 1` forwards its descending `zd` to both children, a node
//!   with `zu = 0` overrides with the constants (0 left, 1 right) — the
//!   same rule [`crate::splitter::controls_into`] applies one node at a
//!   time. Levels past the word fold word pairs instead of lanes
//!   ([`Fold`]), so a box of any width is one tree. Both kernels run the
//!   same column pass; the span kernel's boxes are contiguous (σ the
//!   identity).
//! - **Balance checks** — XOR-folds and `count_ones()` on masked words.
//! - **Exchanges** — one packed flag word per 64 lines, consumed directly:
//!   `trailing_zeros` iteration swaps the position permutation and a
//!   masked pair-swap updates every live plane. Records move once, at the
//!   end of the span, through a single gather.
//! - **Wirings** — the span kernel rotates every live plane through a
//!   delta-swap cascade. The batched kernel ([`route_batch_packed`])
//!   moves no plane bit for a wiring: it renames positions instead
//!   ([`Relabel`]), and its cells move only at exchanges.
//! - **Counts** — a column's exchanges are the popcount of its flag words
//!   and its sweeps one per box, so a tallying observer gets each main
//!   stage's totals ([`StageTotalsEvent`]) without a per-cell walk, equal
//!   to what the scalar sweep's per-column events add up to — including
//!   the partial stage before a splitter error.
//! - **Builds** — [`Build`] names the instruction set a route runs in:
//!   AVX-512, AVX2 (both with POPCNT) or portable. A batched route picks
//!   one per call and runs its extraction, every column pass and its
//!   delivery inside it; the span kernel picks one per span.
//!
//! The kernel is byte-identical to the scalar path on success and returns
//! identical error values on failure; only the (unspecified) contents of
//! `lines` after an error may differ. Faulted columns fall back to the
//! scalar per-box arbiter — reading bits from the planes, never
//! re-deriving them — so fault semantics stay exactly those of
//! [`FaultMap`]; healthy columns of a faulted route stay packed.

use std::ops::Range;

use bnb_obs::{Observer, StageTotalsEvent};
use bnb_topology::record::Record;

use crate::batch::{route_batch_body, BatchOutcome, FrameBatch};
use crate::error::RouteError;
use crate::fault::FaultMap;
use crate::network::{BnbNetwork, RoutePolicy, WiringMode};
use crate::splitter::{check_balanced, controls_into, SplitterSite};
use crate::stages::{report_route_error, RouteSpan, StageScratch};

/// Bits at even positions: the switch-control positions (`2t`).
const EVEN: u64 = 0x5555_5555_5555_5555;

/// `STRIDE[l]`: bits at positions that are multiples of `2^l` — where the
/// level-`l` sweep nodes live.
const STRIDE: [u64; 7] = [
    !0,
    0x5555_5555_5555_5555,
    0x1111_1111_1111_1111,
    0x0101_0101_0101_0101,
    0x0001_0001_0001_0001,
    0x0000_0001_0000_0001,
    0x0000_0000_0000_0001,
];

/// Delta-swap masks for the in-word unshuffle cascade: step `j` (1-based)
/// swaps the `2^(j-1)`-bit block at offset `2^(j-1)` of every
/// `2^(j+1)`-bit field with the block beside it.
const UNSHUFFLE_STEP: [u64; 5] = [
    0x2222_2222_2222_2222,
    0x0C0C_0C0C_0C0C_0C0C,
    0x00F0_00F0_00F0_00F0,
    0x0000_FF00_0000_FF00,
    0x0000_0000_FFFF_0000,
];

/// Reusable buffers for the packed kernel, owned by
/// [`StageScratch`]. Sized on first use, steady state allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct PackedScratch {
    /// Destination bit-planes, flattened `[stage_rel][word]`.
    planes: Vec<u64>,
    /// One exchange-flag word per 64-line window of the current column.
    flags: Vec<u64>,
    /// Word scratch for multi-word block wiring.
    tmp: Vec<u64>,
    /// `perm[pos]` = line index (into the span) of the record currently
    /// on line `pos`; records are gathered once at the end of the span.
    perm: Vec<u32>,
    /// Scatter scratch for wiring `perm`.
    tmp_perm: Vec<u32>,
    /// The span kernel's arbiter tree for its widest box, in physical
    /// line order; a narrower box's tree is a prefix of it.
    span_folds: Vec<Fold>,
    /// Index bit-planes for the batched permissive path: bit `b` of each
    /// cell's *original within-frame line*, carried through every exchange
    /// exactly like `perm`, but word-parallel.
    iplanes: Vec<u64>,
    /// The arbiter's tile rows: up-sweep levels, then `zd`.
    levels: Vec<u64>,
    /// The batched kernel's column schedule, for the network shape in
    /// `schedule_for`: every column's folds in routing order. It depends
    /// only on `m` and the wiring, so it is built once.
    schedule: Vec<Fold>,
    schedule_for: Option<(usize, WiringMode)>,
    /// σ after the schedule's last wiring: where each output line's cell
    /// ends up.
    schedule_end: Relabel,
    /// Frame-sized staging for the batched kernel's final movement: one
    /// frame's results land here and are copied back over the frame, so
    /// no batch-sized second copy of the batch is kept.
    stage_dests: Vec<u32>,
    /// See [`PackedScratch::stage_dests`].
    stage_data: Vec<u64>,
}

impl PackedScratch {
    fn ensure(&mut self, span: usize, words: usize, num_stages: usize) {
        self.planes.clear();
        self.planes.resize(num_stages * words, 0);
        self.flags.resize(words, 0);
        self.tmp.resize(words, 0);
        self.perm.resize(span, 0);
        self.tmp_perm.resize(span, 0);
        let depth = span.trailing_zeros() as usize;
        self.levels.resize((depth + 2) * words, 0);
        if self.span_folds.len() != depth {
            self.span_folds.clear();
            push_folds(0..depth, &mut self.span_folds);
        }
    }

    fn ensure_batch(&mut self, n: usize, words: usize, m: usize, tile: usize, index_planes: bool) {
        self.planes.clear();
        self.planes.resize(m * words, 0);
        self.iplanes.clear();
        if index_planes {
            self.iplanes.resize(m * words, 0);
            self.stage_dests.resize(n, 0);
        }
        self.flags.resize(words, 0);
        self.tmp.resize(words, 0);
        self.levels.resize((m + 2) * tile, 0);
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
/// initial contents of the batched kernel's low index planes, and the
/// complements of its in-word node masks.
const IBIT: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Applies one word of exchange flags to `items`: bit `2t` set means swap
/// `items[2t]` and `items[2t + 1]`. Returns the number of exchanges.
///
/// This is the single pair-swap implementation shared by the packed
/// kernel (on the position permutation) and the scalar path (which packs
/// each box's `Vec<bool>` controls into flag words before applying).
#[inline]
pub(crate) fn apply_flag_word<T>(mut f: u64, items: &mut [T]) -> u64 {
    let mut exchanges = 0;
    while f != 0 {
        let t = f.trailing_zeros() as usize;
        items.swap(t, t + 1);
        exchanges += 1;
        f &= f - 1;
    }
    exchanges
}

#[inline]
fn delta_swap(x: u64, mask: u64, shift: u32) -> u64 {
    let t = (x ^ (x >> shift)) & mask;
    x ^ t ^ (t << shift)
}

/// Unshuffle of every `2^r`-bit field of `x` (`2 <= r <= 6`): even field
/// positions to the low half, odd to the high half, order preserved —
/// i.e. the low `r` index bits rotated right by one.
#[inline]
fn unshuffle_word(x: u64, r: usize) -> u64 {
    let mut x = x;
    for j in 1..r {
        x = delta_swap(x, UNSHUFFLE_STEP[j - 1], 1 << (j - 1));
    }
    x
}

/// Inverse of [`unshuffle_word`]: the delta swaps are involutions, so the
/// cascade runs backwards.
#[inline]
fn shuffle_word(x: u64, r: usize) -> u64 {
    let mut x = x;
    for j in (1..r).rev() {
        x = delta_swap(x, UNSHUFFLE_STEP[j - 1], 1 << (j - 1));
    }
    x
}

/// Unshuffle of one multi-word block: per-word cascade packs each word's
/// even bits into its low half, then a word-level merge interleaves the
/// halves into the block's low and high word ranges.
fn unshuffle_words(words: &mut [u64], tmp: &mut [u64]) {
    const LO: u64 = 0xFFFF_FFFF;
    for w in words.iter_mut() {
        *w = unshuffle_word(*w, 6);
    }
    let half = words.len() / 2;
    for i in 0..half {
        let a = words[2 * i];
        let b = words[2 * i + 1];
        tmp[i] = (a & LO) | ((b & LO) << 32);
        tmp[half + i] = (a >> 32) | (b & !LO);
    }
    words.copy_from_slice(&tmp[..words.len()]);
}

/// Inverse of [`unshuffle_words`].
fn shuffle_words(words: &mut [u64], tmp: &mut [u64]) {
    const LO: u64 = 0xFFFF_FFFF;
    let half = words.len() / 2;
    for i in 0..half {
        let e = words[i];
        let o = words[half + i];
        tmp[2 * i] = (e & LO) | ((o & LO) << 32);
        tmp[2 * i + 1] = (e >> 32) | (o & !LO);
    }
    words.copy_from_slice(&tmp[..words.len()]);
    for w in words.iter_mut() {
        *w = shuffle_word(*w, 6);
    }
}

/// Applies the column wiring (rotate the low `r` index bits within every
/// `2^r`-line block) to one plane.
fn wire_plane(plane: &mut [u64], r: usize, wiring: WiringMode, tmp: &mut [u64]) {
    if r < 2 || matches!(wiring, WiringMode::Identity) {
        return; // rotating a 1-bit field is the identity
    }
    if r <= 6 {
        for w in plane.iter_mut() {
            *w = match wiring {
                WiringMode::Unshuffle => unshuffle_word(*w, r),
                WiringMode::Shuffle => shuffle_word(*w, r),
                WiringMode::Identity => unreachable!(),
            };
        }
    } else {
        let block_words = 1usize << (r - 6);
        for block in plane.chunks_mut(block_words) {
            match wiring {
                WiringMode::Unshuffle => unshuffle_words(block, tmp),
                WiringMode::Shuffle => shuffle_words(block, tmp),
                WiringMode::Identity => unreachable!(),
            }
        }
    }
}

/// Most address bits the batched kernel routes: it keeps one plane per
/// address bit and one relabeling entry per line-index bit. Larger `m`
/// falls back to frame-at-a-time routing (a 16M-cell frame has no
/// business batching).
pub(crate) const MAX_BATCHED_M: usize = 24;

/// The batched kernel's relabeling σ: logical line-index bit `l` of a
/// cell is carried by physical position bit `sigma[l]` of the planes.
///
/// Every column wiring rotates the low `r` line-index bits (DESIGN §13),
/// and a fixed arrangement can be renamed instead of carried out: an
/// Unshuffle rotates `sigma[..r]` left by one, a Shuffle rotates it right,
/// Identity leaves it alone. Cells then move only at exchanges. Frame
/// bits (`>= m`) are never renamed, so frames keep their aligned regions.
#[derive(Debug, Clone, Copy, Default)]
struct Relabel {
    m: usize,
    sigma: [u8; MAX_BATCHED_M],
}

impl Relabel {
    fn identity(m: usize) -> Self {
        debug_assert!(m <= MAX_BATCHED_M);
        let mut sigma = [0u8; MAX_BATCHED_M];
        for (l, s) in sigma.iter_mut().enumerate() {
            *s = l as u8;
        }
        Relabel { m, sigma }
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
        self.sigma[..self.m]
            .iter()
            .enumerate()
            .fold(0, |acc, (l, &s)| acc | ((j >> l) & 1) << s)
    }

    /// `plane` in logical line order: bit `f·n + j` of `out` is the bit of
    /// frame `f`'s logical line `j`. For the debug balance check, which
    /// scans boxes as contiguous line ranges.
    fn logical_plane(&self, plane: &[u64], cells: usize, out: &mut [u64]) {
        let n = 1usize << self.m;
        out.fill(0);
        for g in 0..cells {
            let p = (g & !(n - 1)) | self.position(g & (n - 1));
            out[g >> 6] |= ((plane[p >> 6] >> (p & 63)) & 1) << (g & 63);
        }
    }

    /// Appends the arbiter tree of a column of `2^depth`-line boxes, one
    /// [`Fold`] per level, bottom up.
    fn push_folds(&self, depth: usize, out: &mut Vec<Fold>) {
        push_folds(self.sigma[..depth].iter().map(|&b| usize::from(b)), out);
    }
}

/// Appends the arbiter tree of a column whose level `l + 1` folds
/// physical position bit `bits[l]`, one [`Fold`] per level, bottom up.
/// The span kernel's boxes are contiguous, so its trees fold `0..depth`.
fn push_folds(bits: impl IntoIterator<Item = usize>, out: &mut Vec<Fold>) {
    let mut node = !0u64;
    // Word bits already folded away: later word-pair levels index the
    // compact rows, which drop them.
    let mut folded = 0usize;
    for b in bits {
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

/// One level of a batched column's arbiter tree, bottom up: level `l + 1`
/// folds physical bit σ(l). Each level's up-values live in a row of
/// words; `node` marks the in-word positions of the level's nodes (every
/// in-word bit among `σ(0..=l)` clear).
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

/// One column of the batched kernel: its geometry and where it runs.
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
/// descending `zd`.
#[inline(always)]
fn tile_flags(x: &[u64], f: &mut [u64], lev: &mut [u64], folds: &[Fold]) {
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
    // `zd` at the root: its echo of its own up-value (Definition 6). sp(1)
    // has no arbiter: its `zd` is 0, so the control is the left line's bit.
    let (mut zd, mut spare) = zbuf.split_at_mut(t);
    if p == 1 {
        zd[..len].fill(0);
    } else {
        zd[..len].copy_from_slice(&ups[(p - 1) * t..(p - 1) * t + len]);
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

/// Body of one batched column: the arbiter sweep of the current plane
/// (`live[..words]`) tile by tile into `flags`, then the exchange on every
/// live plane and every index plane. With `pass.count` it returns the
/// column's exchanges, the popcount of the flag words it wrote, counted
/// tile by tile while they are in cache (0 without). `#[inline(always)]`
/// so each build gets its own autovectorized copy: every pass is a
/// lane-wise shift/mask loop over sequential words with a loop-invariant
/// shift, and the popcount is one instruction where the build has one.
#[inline(always)]
fn column_pass_body(
    live: &mut [u64],
    iplanes: &mut [u64],
    flags: &mut [u64],
    lev: &mut [u64],
    pass: &ColumnPass,
) -> u64 {
    let words = pass.words;
    let mut exchanges = 0;
    for (x, f) in live[..words]
        .chunks(pass.tile)
        .zip(flags[..words].chunks_mut(pass.tile))
    {
        tile_flags(x, f, lev, pass.folds);
        if pass.count {
            exchanges += f.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        }
    }
    let flags = &flags[..words];
    let pair = pass.folds[0];
    let from = if pass.last { words } else { 0 };
    exchange_planes(&mut live[from..], flags, pair);
    exchange_planes(iplanes, flags, pair);
    exchanges
}

/// [`column_pass_body`] in the portable build.
#[inline(never)]
fn column_pass_portable(
    live: &mut [u64],
    iplanes: &mut [u64],
    flags: &mut [u64],
    lev: &mut [u64],
    pass: &ColumnPass,
) -> u64 {
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
) -> u64 {
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
) -> u64 {
    column_pass_body(live, iplanes, flags, lev, pass)
}

/// Runs one column pass in `build`. Each build's pass is a function of
/// its own, which keeps the kernels around it small enough for the
/// inliner. In a batched route `build` is a constant of the caller's
/// build and the match folds away; the span kernel, compiled once,
/// dispatches per column.
#[inline(always)]
fn column_pass(
    build: Build,
    live: &mut [u64],
    iplanes: &mut [u64],
    flags: &mut [u64],
    lev: &mut [u64],
    pass: &ColumnPass,
) -> u64 {
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

/// The instruction set a word-parallel route runs in. The batched path
/// ([`crate::batch::route_batch`]) picks one per call and runs
/// validation, plane extraction, every column pass and the delivery
/// inside it; the span kernel picks one per span.
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

/// Fills plane words `w0..w1` from the destination column, one bit-plane
/// row per destination bit: bit `j` of word `w` of plane `srel` receives
/// destination bit `m - 1 - srel` of cell `64w + j`. Runs in `build`:
/// the AVX-512 one peels planes with mask tests, every other build runs
/// the portable loop compiled in it.
#[inline(always)]
fn extract_planes_words(
    build: Build,
    dests: &[u32],
    planes: &mut [u64],
    words: usize,
    m: usize,
    w0: usize,
    w1: usize,
) {
    assert!(dests.len() >= w1 << 6 && planes.len() >= m * words);
    match build.0 {
        // SAFETY: a SIMD build exists only where its features were
        // detected (see `Build`); the cells read were asserted above.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { extract_planes_avx512(dests, planes, words, m, w0, w1) },
        // The portable loop, compiled in the caller's build.
        _ => {
            let mut acc = [0u64; MAX_BATCHED_M];
            for w in w0..w1 {
                acc[..m].fill(0);
                for (j, &d) in dests[w << 6..(w + 1) << 6].iter().enumerate() {
                    let d = u64::from(d);
                    for (srel, a) in acc[..m].iter_mut().enumerate() {
                        *a |= ((d >> (m - 1 - srel)) & 1) << j;
                    }
                }
                for (srel, &a) in acc[..m].iter().enumerate() {
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
    m: usize,
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
        for srel in 0..m {
            let bit = _mm512_set1_epi32(1 << (m - 1 - srel));
            let m0 = _mm512_test_epi32_mask(v0, bit) as u64;
            let m1 = _mm512_test_epi32_mask(v1, bit) as u64;
            let m2 = _mm512_test_epi32_mask(v2, bit) as u64;
            let m3 = _mm512_test_epi32_mask(v3, bit) as u64;
            planes[srel * words + w] = m0 | (m1 << 16) | (m2 << 32) | (m3 << 48);
        }
    }
}

/// First unbalanced box of the column, as `(box_start, ones)`, scanning
/// in line order — the same box the scalar path stops at. `None` when
/// every box satisfies the Definition 3 input assumption (exactly one 1
/// for `sp(1)`, an even count otherwise).
fn first_unbalanced(plane: &[u64], span: usize, box_size: usize) -> Option<(usize, usize)> {
    let span_mask = if span >= 64 {
        !0u64
    } else {
        (1u64 << span) - 1
    };
    if box_size == 2 {
        for (w, &x) in plane.iter().enumerate() {
            // A pair is valid iff its parity is 1; the fold leaves each
            // pair's parity on its even bit.
            let bad = !(x ^ (x >> 1)) & EVEN & span_mask;
            if bad != 0 {
                let t = bad.trailing_zeros() as usize;
                let ones = ((x >> t) & 3).count_ones() as usize;
                return Some((w * 64 + t, ones));
            }
        }
        return None;
    }
    if box_size <= 64 {
        let p = box_size.trailing_zeros() as usize;
        for (w, &x) in plane.iter().enumerate() {
            let mut par = x;
            let mut sh = 1;
            while sh < box_size {
                par ^= par >> sh;
                sh <<= 1;
            }
            // Odd lane parity = odd number of ones = unbalanced.
            let bad = par & STRIDE[p];
            if bad != 0 {
                let t = bad.trailing_zeros() as usize;
                let lane_mask = if box_size == 64 {
                    !0u64
                } else {
                    (1u64 << box_size) - 1
                };
                let ones = ((x >> t) & lane_mask).count_ones() as usize;
                return Some((w * 64 + t, ones));
            }
        }
        return None;
    }
    let box_words = box_size / 64;
    for (b, block) in plane.chunks(box_words).enumerate() {
        let ones: u32 = block.iter().map(|w| w.count_ones()).sum();
        if !ones.is_multiple_of(2) {
            return Some((b * box_size, ones as usize));
        }
    }
    None
}

/// Reads one box's true destination bits out of the current plane.
fn bits_from_plane(plane: &[u64], start: usize, box_size: usize, bits: &mut Vec<bool>) {
    bits.clear();
    bits.extend((start..start + box_size).map(|j| plane[j >> 6] >> (j & 63) & 1 == 1));
}

/// Routes `stages` of `net` over one aligned slice, word-parallel. Same
/// contract and error values as the scalar kernel; see the module docs.
/// `tally` receives one [`StageTotalsEvent`] per main stage routed (or cut
/// short by an error, followed by the error's event).
pub(crate) fn route_span_packed(
    net: &BnbNetwork,
    lines: &mut [Record],
    first_line: usize,
    stages: Range<usize>,
    scratch: &mut StageScratch,
    faults: Option<&FaultMap>,
    tally: Option<&dyn Observer>,
) -> Result<(), RouteError> {
    if stages.is_empty() {
        return Ok(());
    }
    let m = net.m();
    let span = lines.len();
    debug_assert!(stages.end <= m, "stage range {stages:?} exceeds m = {m}");
    debug_assert_eq!(
        span,
        1usize << (m - stages.start),
        "slice length must match the starting stage"
    );
    debug_assert_eq!(first_line % span, 0, "slice must be aligned");
    assert!(span <= u32::MAX as usize, "span must fit the position perm");
    let words = span.div_ceil(64);
    let num_stages = stages.end - stages.start;
    let strict = matches!(net.policy(), RoutePolicy::Strict);
    let wiring = net.wiring();
    let build = Build::detect();
    scratch.ensure(span);
    scratch.packed.ensure(span, words, num_stages);
    let StageScratch {
        lines: gather,
        bits,
        flags: box_flags,
        up,
        tapped,
        packed,
        ..
    } = scratch;
    let PackedScratch {
        planes,
        flags,
        tmp,
        perm,
        tmp_perm,
        span_folds,
        levels,
        ..
    } = packed;

    // Frame cache: each record's address bits, extracted once per span.
    for (srel, stage) in stages.clone().enumerate() {
        let sh = m - 1 - stage;
        for w in 0..words {
            let base = w * 64;
            let mut x = 0u64;
            for (j, r) in lines[base..span.min(base + 64)].iter().enumerate() {
                debug_assert!(r.dest() >> m == 0, "destination must fit in m bits");
                x |= ((r.dest() as u64 >> sh) & 1) << j;
            }
            planes[srel * words + w] = x;
        }
    }
    for (j, p) in perm.iter_mut().enumerate() {
        *p = j as u32;
    }

    for (srel, main_stage) in stages.clone().enumerate() {
        let k = m - main_stage;
        let mut totals = StageTally::new(tally, main_stage, first_line, span, 1);
        for internal in 0..k {
            let box_size = 1usize << (k - internal);
            let depth = k - internal;
            let last_internal = internal + 1 == k;
            let column_faults = faults.filter(|f| f.affects(main_stage, internal));
            // Planes for already-routed stages are dead; the current
            // stage's plane feeds the arbiter, later ones ride along, and
            // after the stage's last column the current one dies too.
            let live = &mut planes[srel * words..];
            let cur = &live[..words];
            let from = if last_internal { words } else { 0 };
            if let Some(map) = column_faults {
                // Faulted column: scalar per-box arbiter in line order so
                // fault semantics (taps, overrides, audits) and error
                // ordering match the scalar path exactly; bits come from
                // the plane, never re-derived.
                flags[..words].fill(0);
                for start in (0..span).step_by(box_size) {
                    bits_from_plane(cur, start, box_size, bits);
                    if strict {
                        let site = SplitterSite {
                            main_stage,
                            internal_stage: internal,
                            first_line: first_line + start,
                        };
                        if let Err(err) = check_balanced(bits, site) {
                            totals.swept((start / box_size) as u64, depth);
                            return Err(totals.fail(err));
                        }
                    }
                    tapped.clear();
                    tapped.extend_from_slice(bits);
                    map.tap_bits(main_stage, internal, first_line + start, tapped);
                    controls_into(tapped, up, box_flags);
                    map.override_flags(main_stage, internal, first_line + start, tapped, box_flags);
                    for (t, &c) in box_flags.iter().enumerate() {
                        if c {
                            let pos = start + 2 * t;
                            flags[pos >> 6] |= 1 << (pos & 63);
                        }
                    }
                    // Post-swap audit from the pre-swap true bits and the
                    // flags — the swap outcome is determined by both, so
                    // nothing is re-derived from the records.
                    if strict {
                        let mut even_ones = 0usize;
                        let mut odd_ones = 0usize;
                        for (t, &c) in box_flags.iter().enumerate() {
                            let (a, b) = (bits[2 * t], bits[2 * t + 1]);
                            let (pe, po) = if c { (b, a) } else { (a, b) };
                            even_ones += usize::from(pe);
                            odd_ones += usize::from(po);
                        }
                        let balanced = if box_size == 2 {
                            even_ones == 0 && odd_ones == 1
                        } else {
                            even_ones == odd_ones
                        };
                        if !balanced {
                            // The failing box was swept before its audit.
                            totals.swept((start / box_size + 1) as u64, depth);
                            return Err(totals.fail(RouteError::HardwareFault {
                                main_stage,
                                internal_stage: internal,
                                first_line: first_line + start,
                                width: box_size,
                                even_ones,
                                odd_ones,
                            }));
                        }
                    }
                }
                exchange_planes(&mut live[from..], &flags[..words], span_folds[0]);
            } else {
                if strict {
                    if let Some((start, ones)) = first_unbalanced(cur, span, box_size) {
                        totals.swept((start / box_size) as u64, depth);
                        return Err(totals.fail(RouteError::UnbalancedSplitter {
                            main_stage,
                            internal_stage: internal,
                            first_line: first_line + start,
                            width: box_size,
                            ones,
                        }));
                    }
                }
                // The batched kernel's column pass with σ the identity.
                // Boxes are contiguous here, so a tile need only hold
                // whole boxes, not a whole span.
                let pass = ColumnPass {
                    words,
                    tile: words.min((box_size >> 6).max(64)),
                    folds: &span_folds[..depth],
                    last: last_internal,
                    count: false,
                };
                column_pass(build, live, &mut [], flags, levels, &pass);
            }
            // The flag words drive the position permutation too; records
            // move once, at the gather below.
            let mut exchanges = 0;
            for (w, &f) in flags[..words].iter().enumerate() {
                if f != 0 {
                    let base = w * 64;
                    exchanges += apply_flag_word(f, &mut perm[base..span.min(base + 64)]);
                }
            }
            totals.column((span / box_size) as u64, depth, exchanges);
            // Wiring: rotate the low r index bits within each 2^r block
            // (r = box width inside a stage, r = k for the main wiring).
            let r = if !last_internal {
                k - internal
            } else if main_stage + 1 < m {
                k
            } else {
                continue;
            };
            if !matches!(wiring, WiringMode::Identity) {
                let bs = 1usize << r;
                for (j, &p) in perm.iter().enumerate().take(span) {
                    let base = j & !(bs - 1);
                    let local = j & (bs - 1);
                    let rl = match wiring {
                        WiringMode::Unshuffle => (local >> 1) | ((local & 1) << (r - 1)),
                        WiringMode::Shuffle => ((local << 1) & (bs - 1)) | (local >> (r - 1)),
                        WiringMode::Identity => unreachable!(),
                    };
                    tmp_perm[base | rl] = p;
                }
                perm[..span].copy_from_slice(&tmp_perm[..span]);
                for plane in live[from..].chunks_exact_mut(words) {
                    wire_plane(plane, r, wiring, tmp);
                }
            }
        }
        totals.emit();
    }
    // One gather moves every record to its final line.
    for (dst, &src) in gather[..span].iter_mut().zip(perm.iter()) {
        *dst = lines[src as usize];
    }
    lines.copy_from_slice(&gather[..span]);
    Ok(())
}

/// Routes every valid frame of a [`FrameBatch`] through all `m` stages at
/// once, word-parallel over the *concatenated* frame-major planes: bit
/// `f·n + j` of plane `s` is destination bit `s` of frame `f`'s cell `j`,
/// so every `u64` word is fully occupied regardless of `m` and the
/// arbiter sweeps and exchanges run at full lane utilisation.
///
/// Wiring as relabeling: no column moves a plane bit for its wiring. The
/// kernel keeps σ ([`Relabel`]), the physical position bit of each logical
/// line-index bit, and applies each wiring to σ instead. A column's
/// arbiter folds tree level `l + 1` at physical bit σ(l) and its switches
/// pair cells `2^σ(0)` apart, so cells move only at exchanges.
///
/// Frames never interact: each occupies an aligned `n`-cell region, σ
/// only renames the low `m` position bits, so every box stays inside its
/// frame, and frames marked `Err` in `valid` contribute all-zero plane
/// regions — zero lanes produce zero exchange flags, so their (skipped)
/// cells are never moved and never read back.
///
/// Output movement, one frame at a time through frame-sized staging:
/// - **Strict** (frames are validated permutations): the sweeps carry the
///   destination planes forward — each column's flags are computed from
///   plane bits whose positions those same sweeps produced — and the final
///   movement short-circuits through the delivery guarantee (Theorem 2:
///   output line `d` holds the record destined `d`): the payloads scatter
///   into the stage and back, and the identity ramp overwrites the
///   destinations in place. Byte-identical to the scalar oracle by the
///   same theorem, and independent of where σ left the cells.
/// - **Permissive** (arbitrary traffic): `m` *index* bit-planes ride
///   through every exchange — the word-parallel analogue of the
///   single-frame kernel's position `perm` — and the final gather reads
///   each output line's source index at its physical position under σ.
///
/// `tally` receives one [`StageTotalsEvent`] per main stage summed over
/// the valid frames: the per-frame column and sweep counts times the
/// frame count, and the exchanges each column pass counts in its flag
/// words (inert lanes of invalid frames contribute none).
///
/// Infallible: validation happened in [`crate::batch::route_batch`], and
/// validated strict traffic cannot unbalance a splitter (Theorem 2), which
/// debug builds assert. Runs in `build`: `#[inline(always)]`, so it is
/// compiled into each build of the caller.
///
/// [`FrameBatch`]: crate::batch::FrameBatch
#[inline(always)]
pub(crate) fn route_batch_packed(
    build: Build,
    net: &BnbNetwork,
    batch: &mut FrameBatch,
    valid: &[Result<(), RouteError>],
    scratch: &mut StageScratch,
    tally: Option<&dyn Observer>,
) {
    let m = net.m();
    let n = 1usize << m;
    let frames = batch.frames();
    debug_assert_eq!(batch.width(), n);
    debug_assert_eq!(valid.len(), frames);
    assert!(
        m <= MAX_BATCHED_M,
        "batched kernel supports m <= {MAX_BATCHED_M}"
    );
    let cells = frames * n;
    let words = cells.div_ceil(64);
    // Sweep tiles hold whole frames, so every box (and every word pair a
    // cross-word level folds) lies inside one tile.
    let tile_max = (n >> 6).max(64);
    let strict = matches!(net.policy(), RoutePolicy::Strict);
    let wiring = net.wiring();
    scratch.packed.ensure_batch(n, words, m, tile_max, !strict);
    let PackedScratch {
        planes,
        flags,
        tmp,
        levels,
        schedule,
        schedule_for,
        schedule_end,
        iplanes,
        stage_dests,
        stage_data,
        ..
    } = &mut scratch.packed;
    let (dests, data) = batch.soa_mut();

    // Extraction: one pass over each valid frame's destinations fills all
    // m planes; invalid frames stay zero (inert lanes).
    for (f, res) in valid.iter().enumerate() {
        if res.is_err() {
            continue;
        }
        let base = f * n;
        if n >= 64 {
            extract_planes_words(build, dests, planes, words, m, base >> 6, (base + n) >> 6);
        } else {
            for (j, &d) in dests[base..base + n].iter().enumerate() {
                let g = base + j;
                let d = d as u64;
                for srel in 0..m {
                    planes[srel * words + (g >> 6)] |= ((d >> (m - 1 - srel)) & 1) << (g & 63);
                }
            }
        }
    }
    if !strict {
        // Index planes: bit b of the within-frame line. Frame bases are
        // multiples of n = 2^m, so for b < m this is bit b of the global
        // position — a fixed per-word constant.
        for b in 0..m {
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
    // The column schedule, like σ itself, depends only on m and the
    // wiring: built on the first batch, then reused. σ is followed column
    // by column only to build it, and in debug builds for the balance
    // assert, which reads each column through σ.
    let scheduled = *schedule_for == Some((m, wiring));
    let follow = !scheduled || cfg!(debug_assertions);
    let mut relabel = Relabel::identity(m);
    if !scheduled {
        schedule.clear();
    }
    let mut next = 0;
    for main_stage in 0..m {
        let k = m - main_stage;
        let mut totals = StageTally::new(tally, main_stage, 0, n, routed as u64);
        for internal in 0..k {
            let depth = k - internal;
            let live = &mut planes[main_stage * words..m * words];
            let last_internal = internal + 1 == k;
            if follow && strict && routed == frames && cells.is_multiple_of(64) {
                // Validated permutations satisfy Definition 3 at every
                // splitter (Theorem 2); there is nothing to detect. (The
                // check reads whole words, so it only applies when no
                // trailing zero lanes pad the last word.)
                debug_assert!(
                    {
                        relabel.logical_plane(&live[..words], cells, &mut tmp[..words]);
                        first_unbalanced(&tmp[..words], cells, 1 << depth).is_none()
                    },
                    "validated strict batch unbalanced at stage {main_stage}.{internal}"
                );
            }
            if !scheduled {
                relabel.push_folds(depth, schedule);
            }
            let pass = ColumnPass {
                words,
                tile: words.min(tile_max),
                folds: &schedule[next..next + depth],
                last: last_internal,
                count: tally.is_some(),
            };
            next += depth;
            let exchanges = column_pass(build, live, iplanes, flags, levels, &pass);
            totals.column((n >> depth) as u64, depth, exchanges);
            // Wiring: rotate the low r line-index bits (r = box width
            // inside a stage, r = k for the main wiring; the fabric's very
            // last column has none) — in σ, not in the planes.
            if follow {
                let r = if !last_internal {
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
        *schedule_for = Some((m, wiring));
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
        if strict {
            // Delivery scatter: output line d holds the record destined
            // d — so only the payloads move, and the destination column
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
            for j in 0..n {
                let g = base + schedule_end.position(j);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitter::controls_into;
    use bnb_topology::bitops::{shuffle, unshuffle};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The span kernel's arbiter, the column pass with σ the identity,
    /// equals the scalar tree on every box: boxes inside a word, across
    /// words, and past the 4096 lines whose word parities fill one word.
    #[test]
    fn identity_column_matches_scalar_tree() {
        let mut rng = StdRng::seed_from_u64(32);
        let mut folds = Vec::new();
        push_folds(0..13, &mut folds);
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

    /// The delta-swap cascade is the index unshuffle, for every block
    /// width in a word and across words.
    #[test]
    fn wiring_cascade_matches_index_transform() {
        let mut rng = StdRng::seed_from_u64(33);
        for r in 2..=9usize {
            let bs = 1usize << r;
            let words = bs.div_ceil(64).max(2);
            let span = words * 64;
            let src: Vec<bool> = (0..span).map(|_| rng.random_bool(0.5)).collect();
            let mut plane: Vec<u64> = (0..words)
                .map(|w| (0..64).fold(0u64, |acc, j| acc | (u64::from(src[w * 64 + j]) << j)))
                .collect();
            for mode in [WiringMode::Unshuffle, WiringMode::Shuffle] {
                let mut got = plane.clone();
                let mut tmp = vec![0u64; words];
                wire_plane(&mut got, r, mode, &mut tmp);
                for (j, &src_bit) in src.iter().enumerate().take(span) {
                    let base = j & !(bs - 1);
                    let local = j & (bs - 1);
                    let dst = base
                        | match mode {
                            WiringMode::Unshuffle => unshuffle(r, r, local),
                            WiringMode::Shuffle => shuffle(r, r, local),
                            WiringMode::Identity => unreachable!(),
                        };
                    let got_bit = got[dst >> 6] >> (dst & 63) & 1 == 1;
                    assert_eq!(got_bit, src_bit, "r = {r}, {mode:?}, j = {j}");
                }
            }
            plane.rotate_left(1); // keep clippy quiet about unused mut
        }
    }

    /// A random relabeling of `m` line bits: σ is a permutation of
    /// `0..m`, as the column wirings leave it.
    fn random_relabel(m: usize, rng: &mut StdRng) -> Relabel {
        let mut relabel = Relabel::identity(m);
        for l in (1..m).rev() {
            relabel.sigma.swap(l, rng.random_range(0..=l));
        }
        relabel
    }

    /// Random planes for `frames` frames of `2^m` lines, one flag row,
    /// and the column pass of `2^depth`-line boxes under `relabel`.
    fn random_column(
        rng: &mut StdRng,
    ) -> (Relabel, usize, usize, Vec<u64>, Vec<u64>, Vec<Fold>, usize) {
        let m = rng.random_range(1..=10usize);
        let relabel = random_relabel(m, rng);
        let depth = rng.random_range(1..=m);
        let frames = rng.random_range(1..=5usize);
        let cells = frames << m;
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

    fn bit(plane: &[u64], p: usize) -> bool {
        plane[p >> 6] >> (p & 63) & 1 == 1
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
            let (m, n) = (relabel.m, 1usize << relabel.m);
            let (before, ibefore) = (live.clone(), iplanes.clone());
            let tile = words.min((n >> 6).max(64));
            let mut flags = vec![0u64; words];
            let mut lev = vec![0u64; (m + 2) * tile];
            let pass = ColumnPass {
                words,
                tile,
                folds: &folds,
                last: false,
                count: true,
            };
            let exchanges = column_pass_body(&mut live, &mut iplanes, &mut flags, &mut lev, &pass);
            let ctx = format!(
                "m = {m}, sigma = {:?}, depth = {depth}",
                &relabel.sigma[..m]
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
            assert_eq!(exchanges, u64::from(want_exchanges), "{ctx}: exchanges");
        }
    }

    /// The portable build of the column pass against its SIMD builds, on
    /// the same inputs: runners with and without AVX-512 check the same
    /// code, and the relabeling oracle above holds the portable one. Each
    /// build counts the exchanges it flags.
    #[test]
    fn column_pass_builds_agree() {
        let mut rng = StdRng::seed_from_u64(36);
        for _ in 0..400 {
            let (relabel, depth, _, live, iplanes, folds, words) = random_column(&mut rng);
            let n = 1usize << relabel.m;
            let tile = words.min((n >> 6).max(64));
            let last = rng.random_bool(0.5);
            let pass = ColumnPass {
                words,
                tile,
                folds: &folds,
                last,
                count: true,
            };
            let run = |build: Build| {
                let (mut live, mut iplanes) = (live.clone(), iplanes.clone());
                let mut flags = vec![0u64; words];
                let mut lev = vec![0u64; (relabel.m + 2) * tile];
                let exchanges =
                    column_pass(build, &mut live, &mut iplanes, &mut flags, &mut lev, &pass);
                let flagged: u32 = flags.iter().map(|w| w.count_ones()).sum();
                assert_eq!(exchanges, u64::from(flagged), "{build:?} exchanges");
                (live, iplanes, flags)
            };
            let portable = run(Build::PORTABLE);
            let ctx = format!("sigma = {:?}, depth = {depth}", &relabel.sigma[..relabel.m]);
            for build in Build::available() {
                assert_eq!(run(build), portable, "{build:?} build, {ctx}");
            }
        }
    }

    /// Plane extraction in every build equals the bit-by-bit definition,
    /// for every plane count the batched kernel takes.
    #[test]
    fn extraction_builds_agree() {
        let mut rng = StdRng::seed_from_u64(37);
        for m in 1..=MAX_BATCHED_M {
            let words = 3;
            let dests: Vec<u32> = (0..64 * words)
                .map(|_| rng.random_range(0..1u32 << m))
                .collect();
            let mut want = vec![0u64; m * words];
            for (g, &d) in dests.iter().enumerate() {
                for srel in 0..m {
                    want[srel * words + g / 64] |= u64::from((d >> (m - 1 - srel)) & 1) << (g % 64);
                }
            }
            for build in Build::available() {
                let mut planes = vec![0u64; m * words];
                extract_planes_words(build, &dests, &mut planes, words, m, 1, 3);
                extract_planes_words(build, &dests, &mut planes, words, m, 0, 1);
                assert_eq!(planes, want, "{build:?} build, m = {m}");
            }
        }
    }

    /// Balance scanning returns the same first box and ones count the
    /// scalar `check_balanced` sweep finds.
    #[test]
    fn first_unbalanced_matches_scalar_scan() {
        let mut rng = StdRng::seed_from_u64(34);
        for (span, box_size) in [(64usize, 2usize), (64, 8), (64, 64), (256, 128), (32, 4)] {
            let words = span.div_ceil(64);
            for _ in 0..300 {
                let plane: Vec<u64> = (0..words)
                    .map(|w| {
                        let x: u64 = rng.random();
                        if span < 64 {
                            x & ((1 << span) - 1)
                        } else {
                            let _ = w;
                            x
                        }
                    })
                    .collect();
                let bits: Vec<bool> = (0..span)
                    .map(|j| plane[j >> 6] >> (j & 63) & 1 == 1)
                    .collect();
                let want = (0..span).step_by(box_size).find_map(|start| {
                    let ones = bits[start..start + box_size].iter().filter(|&&b| b).count();
                    let ok = if box_size == 2 {
                        ones == 1
                    } else {
                        ones % 2 == 0
                    };
                    (!ok).then_some((start, ones))
                });
                assert_eq!(
                    first_unbalanced(&plane, span, box_size),
                    want,
                    "span = {span}, box = {box_size}"
                );
            }
        }
    }
}
