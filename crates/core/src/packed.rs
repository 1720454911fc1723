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
//!   time. Boxes wider than a word compose per-word sweeps with a scalar
//!   cross-tree over the word parities.
//! - **Balance checks** — XOR-folds and `count_ones()` on masked words.
//! - **Exchanges** — one packed flag word per 64 lines, consumed directly:
//!   `trailing_zeros` iteration swaps the position permutation and a
//!   masked pair-swap updates every live plane. Records move once, at the
//!   end of the span, through a single gather.
//! - **Counts** — a column's exchanges are the popcount of its flag words
//!   and its sweeps one per box, so a tallying observer gets each main
//!   stage's totals ([`StageTotalsEvent`]) without a per-cell walk, equal
//!   to what the scalar sweep's per-column events add up to — including
//!   the partial stage before a splitter error.
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

use crate::error::RouteError;
use crate::fault::FaultMap;
use crate::network::{BnbNetwork, RoutePolicy, WiringMode};
use crate::splitter::{check_balanced, controls_into, SplitterSite};
use crate::stages::{report_route_error, StageScratch};

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
    /// Word-root parities feeding the cross-tree (one per word of a box).
    roots: Vec<bool>,
    /// Cross-tree output: the `zd` passed into each word's subtree.
    zds: Vec<bool>,
    /// Cross-tree up-sweep scratch.
    tree: Vec<bool>,
    /// Index bit-planes for the batched permissive path: bit `b` of each
    /// cell's *original within-frame line*, carried through every exchange
    /// and wiring exactly like `perm`, but word-parallel.
    iplanes: Vec<u64>,
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
        self.roots.resize(words, false);
        self.zds.resize(words, false);
    }

    fn ensure_batch(&mut self, n: usize, words: usize, m: usize, index_planes: bool) {
        self.planes.clear();
        self.planes.resize(m * words, 0);
        self.iplanes.clear();
        if index_planes {
            self.iplanes.resize(m * words, 0);
            self.stage_dests.resize(n, 0);
        }
        self.flags.resize(words, 0);
        self.tmp.resize(words, 0);
        self.roots.resize(words, false);
        self.zds.resize(words, false);
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
/// initial contents of the batched kernel's low index planes.
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

/// Exchanges flagged bit-pairs of a plane word: `ce` has both bits of
/// every flagged pair set (`f | f << 1`).
#[inline]
fn swap_pairs_word(x: u64, ce: u64) -> u64 {
    let swapped = ((x & EVEN) << 1) | ((x >> 1) & EVEN);
    (x & !ce) | (swapped & ce)
}

/// Up-sweep of one word: `lev[l]` holds the level-`l` subtree parities at
/// the node positions (`STRIDE[l]`), for `l = 1..=p`.
#[inline]
fn word_levels(x: u64, p: usize) -> [u64; 7] {
    let mut lev = [0u64; 7];
    lev[0] = x;
    for l in 1..=p {
        lev[l] = (lev[l - 1] ^ (lev[l - 1] >> (1 << (l - 1)))) & STRIDE[l];
    }
    lev
}

/// Down-sweep of one word: from `zd_root` (the `zd` entering each lane's
/// root, at the `STRIDE[p]` positions) to the per-leaf flags. A node with
/// `zu = 1` forwards `zd` to both children; a node with `zu = 0` sends 0
/// left and 1 right — all lanes of the word in parallel.
#[inline]
fn lane_flags(lev: &[u64; 7], p: usize, zd_root: u64) -> u64 {
    let mut zd = zd_root;
    for l in (1..=p).rev() {
        let zu = lev[l];
        let lz = zu & zd;
        let rz = (lz | !zu) & STRIDE[l];
        zd = lz | (rz << (1 << (l - 1)));
    }
    zd
}

/// The arbiter's descending `zd` at each leaf of a scalar tree whose
/// leaves carry up-values `leaf_zu` — the cross-tree over word parities
/// for boxes wider than a word. The root echoes its own up-value
/// (Definition 6), interior nodes apply the same forward/override rule as
/// [`lane_flags`].
fn zd_into_leaves(leaf_zu: &[bool], up: &mut Vec<bool>, out: &mut Vec<bool>) {
    let n = leaf_zu.len();
    debug_assert!(n >= 2 && n.is_power_of_two());
    out.clear();
    if n == 2 {
        let root = leaf_zu[0] ^ leaf_zu[1];
        out.push(root);
        out.push(true);
        return;
    }
    let p = n.trailing_zeros() as usize;
    up.clear();
    for t in 0..n / 2 {
        up.push(leaf_zu[2 * t] ^ leaf_zu[2 * t + 1]);
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
    let root_zu = *up.last().expect("p >= 2 has at least one level");
    out.push(root_zu);
    let mut zu_start = up.len() - 1;
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
            zu_start -= len;
        }
    }
    debug_assert_eq!(out.len(), n);
}

/// In-word switch controls for every `2^p`-wide lane of `x` at once
/// (`2 <= p <= 6`): up-sweep, root echo, down-sweep, then
/// `control = s(2t) ^ flag(2t)` masked to the even positions.
#[inline]
fn word_controls(x: u64, p: usize) -> u64 {
    let lev = word_levels(x, p);
    let zd = lane_flags(&lev, p, lev[p]);
    (x ^ zd) & EVEN
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

/// Body of the fused column pass — see [`exchange_and_wire_plane`] for
/// the contract. Kept `#[inline(always)]` so the `#[target_feature]`
/// wrappers below each get their own fully-inlined copy that LLVM can
/// autovectorize at that feature level: every operation here is a
/// lane-wise 64-bit shift/mask/blend over sequential words, exactly the
/// shape that maps onto 4-wide (AVX2) and 8-wide (AVX-512) vector code.
/// The exchange is branchless — a zero flag word yields `ce = 0` and the
/// blend keeps `x` — so no flag-dependent control flow blocks the
/// vectorizer. `r` is dispatched through a `match` so each arm sees a
/// constant cascade depth.
#[inline(always)]
fn exchange_and_wire_body(
    plane: &mut [u64],
    flags: &[u64],
    r: usize,
    wiring: WiringMode,
    tmp: &mut [u64],
) {
    #[inline(always)]
    fn swapped(x: u64, f: u64) -> u64 {
        swap_pairs_word(x, f | (f << 1))
    }
    #[inline(always)]
    fn word_pass<const R: usize, const SHUF: bool>(plane: &mut [u64], flags: &[u64]) {
        for (x, &f) in plane.iter_mut().zip(flags) {
            let mut y = swapped(*x, f);
            if SHUF {
                let mut j = R - 1;
                while j >= 1 {
                    y = delta_swap(y, UNSHUFFLE_STEP[j - 1], 1 << (j - 1));
                    j -= 1;
                }
            } else {
                for j in 1..R {
                    y = delta_swap(y, UNSHUFFLE_STEP[j - 1], 1 << (j - 1));
                }
            }
            *x = y;
        }
    }
    if r < 2 || matches!(wiring, WiringMode::Identity) {
        for (x, &f) in plane.iter_mut().zip(flags) {
            *x = swapped(*x, f);
        }
        return;
    }
    if r <= 6 {
        match (wiring, r) {
            (WiringMode::Unshuffle, 2) => word_pass::<2, false>(plane, flags),
            (WiringMode::Unshuffle, 3) => word_pass::<3, false>(plane, flags),
            (WiringMode::Unshuffle, 4) => word_pass::<4, false>(plane, flags),
            (WiringMode::Unshuffle, 5) => word_pass::<5, false>(plane, flags),
            (WiringMode::Unshuffle, _) => word_pass::<6, false>(plane, flags),
            (WiringMode::Shuffle, 2) => word_pass::<2, true>(plane, flags),
            (WiringMode::Shuffle, 3) => word_pass::<3, true>(plane, flags),
            (WiringMode::Shuffle, 4) => word_pass::<4, true>(plane, flags),
            (WiringMode::Shuffle, 5) => word_pass::<5, true>(plane, flags),
            (WiringMode::Shuffle, _) => word_pass::<6, true>(plane, flags),
            (WiringMode::Identity, _) => unreachable!(),
        }
        return;
    }
    // Multi-word blocks: same dataflow as `unshuffle_words` /
    // `shuffle_words`, with the exchange folded into the first read of
    // each word and the in-word cascade folded into the merge passes.
    const LO: u64 = 0xFFFF_FFFF;
    let block_words = 1usize << (r - 6);
    let half = block_words / 2;
    if matches!(wiring, WiringMode::Unshuffle) {
        // Two disjoint plane-wide passes so each one vectorizes: the
        // exchange plus in-word cascade runs contiguously into `tmp`,
        // then the cross-word half of the unshuffle — a pure
        // deinterleave of 32-bit halves within each block (even words'
        // halves land low, odd words' halves land high) — reads `tmp`
        // back into the plane with no aliasing to defeat the vectorizer.
        for (t, (&x, &f)) in tmp.iter_mut().zip(plane.iter().zip(flags)) {
            *t = unshuffle_word(swapped(x, f), 6);
        }
        deinterleave_u32_halves(&tmp[..plane.len()], plane, block_words);
        return;
    }
    for (block, bflags) in plane
        .chunks_exact_mut(block_words)
        .zip(flags.chunks_exact(block_words))
    {
        match wiring {
            WiringMode::Shuffle => {
                for i in 0..half {
                    let e = swapped(block[i], bflags[i]);
                    let o = swapped(block[half + i], bflags[half + i]);
                    tmp[2 * i] = (e & LO) | ((o & LO) << 32);
                    tmp[2 * i + 1] = (e >> 32) | (o & !LO);
                }
                for (x, &t) in block.iter_mut().zip(tmp[..block_words].iter()) {
                    *x = shuffle_word(t, 6);
                }
            }
            WiringMode::Unshuffle | WiringMode::Identity => unreachable!(),
        }
    }
}

/// Scalar body of [`deinterleave_u32_halves`]: within each
/// `block_words`-word block, the 32-bit halves of even-indexed words are
/// packed into the low half of the block and the halves of odd-indexed
/// words into the high half, preserving order — the cross-word part of
/// an unshuffle once the in-word cascade has handled the low six index
/// bits.
#[inline(always)]
fn deinterleave_u32_body(src: &[u64], dst: &mut [u64], block_words: usize) {
    const LO: u64 = 0xFFFF_FFFF;
    let half = block_words / 2;
    for (d, s) in dst
        .chunks_exact_mut(block_words)
        .zip(src.chunks_exact(block_words))
    {
        for i in 0..half {
            let a = s[2 * i];
            let b = s[2 * i + 1];
            d[i] = (a & LO) | ((b & LO) << 32);
            d[half + i] = (a >> 32) | (b & !LO);
        }
    }
}

/// [`deinterleave_u32_body`] as explicit AVX-512 permutes: the
/// deinterleave is one in-lane or cross-lane 32-bit shuffle per 512-bit
/// register regardless of block size — `vpshufd` when a 128-bit lane
/// holds a whole 2-word block, `vpermd` when a block fits one register,
/// and two-source `vpermt2d` for wider blocks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn deinterleave_u32_avx512(src: &[u64], dst: &mut [u64], block_words: usize) {
    use std::arch::x86_64::*;
    let n = src.len();
    debug_assert_eq!(dst.len(), n);
    debug_assert_eq!(n % block_words, 0);
    if n < 8 {
        deinterleave_u32_body(src, dst, block_words);
        return;
    }
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    // SAFETY: every offset below stays within the `n`-word slices, and
    // the caller guaranteed AVX-512F via runtime detection.
    unsafe {
        match block_words {
            2 => {
                // One block per 128-bit lane: [a.lo a.hi b.lo b.hi] →
                // [a.lo b.lo a.hi b.hi] is an in-lane dword shuffle.
                let mut w = 0;
                while w + 8 <= n {
                    let v = _mm512_loadu_si512(sp.add(w).cast());
                    let p = _mm512_shuffle_epi32::<{ _MM_PERM_DBCA }>(v);
                    _mm512_storeu_si512(dp.add(w).cast(), p);
                    w += 8;
                }
                deinterleave_u32_body(&src[w..], &mut dst[w..], block_words);
            }
            4 | 8 => {
                // A block fits one register: deinterleave dwords within
                // each 256-bit half (4-word blocks) or the full register
                // (8-word blocks) independently.
                let idx = if block_words == 4 {
                    _mm512_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7, 8, 10, 12, 14, 9, 11, 13, 15)
                } else {
                    _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15)
                };
                let mut w = 0;
                while w + 8 <= n {
                    let v = _mm512_loadu_si512(sp.add(w).cast());
                    let p = _mm512_permutexvar_epi32(idx, v);
                    _mm512_storeu_si512(dp.add(w).cast(), p);
                    w += 8;
                }
                deinterleave_u32_body(&src[w..], &mut dst[w..], block_words);
            }
            _ => {
                // Blocks of 16+ words: each pair of source registers
                // yields one register of low halves (for the block's low
                // half) and one of high halves (for its high half).
                let lo =
                    _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
                let hi =
                    _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31);
                let half = block_words / 2;
                for base in (0..n).step_by(block_words) {
                    for i in (0..half).step_by(8) {
                        let z0 = _mm512_loadu_si512(sp.add(base + 2 * i).cast());
                        let z1 = _mm512_loadu_si512(sp.add(base + 2 * i + 8).cast());
                        let l = _mm512_permutex2var_epi32(z0, lo, z1);
                        let h = _mm512_permutex2var_epi32(z0, hi, z1);
                        _mm512_storeu_si512(dp.add(base + i).cast(), l);
                        _mm512_storeu_si512(dp.add(base + half + i).cast(), h);
                    }
                }
            }
        }
    }
}

/// Cross-word unshuffle step: see [`deinterleave_u32_body`]. Dispatches
/// to the AVX-512 permute build when the CPU supports it (once per plane
/// pass — callers hand in whole planes, not single blocks).
fn deinterleave_u32_halves(src: &[u64], dst: &mut [u64], block_words: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F was just detected.
            unsafe { deinterleave_u32_avx512(src, dst, block_words) };
            return;
        }
    }
    deinterleave_u32_body(src, dst, block_words);
}

/// [`apply_column_body`]: every live plane of one column pushed through
/// the fused exchange-and-wire pass in a single function body, so the
/// SIMD dispatch and call overhead are paid once per column instead of
/// once per plane (the batched kernel applies `O(m)` planes per column).
#[inline(always)]
fn apply_column_body(
    live: &mut [u64],
    words: usize,
    flags: &[u64],
    r: usize,
    wiring: WiringMode,
    tmp: &mut [u64],
) {
    for plane in live.chunks_exact_mut(words) {
        exchange_and_wire_body(plane, flags, r, wiring, tmp);
    }
}

/// [`apply_column_body`] compiled with AVX-512 enabled; reachable only
/// after a runtime feature check.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
fn apply_column_avx512(
    live: &mut [u64],
    words: usize,
    flags: &[u64],
    r: usize,
    wiring: WiringMode,
    tmp: &mut [u64],
) {
    apply_column_body(live, words, flags, r, wiring, tmp);
}

/// [`apply_column_body`] compiled with AVX2 enabled; reachable only after
/// a runtime feature check.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn apply_column_avx2(
    live: &mut [u64],
    words: usize,
    flags: &[u64],
    r: usize,
    wiring: WiringMode,
    tmp: &mut [u64],
) {
    apply_column_body(live, words, flags, r, wiring, tmp);
}

/// Applies one column's exchange-and-wire pass to a concatenation of
/// live planes (each `words` long), dispatching once to the widest SIMD
/// build this CPU supports.
fn apply_column(
    live: &mut [u64],
    words: usize,
    flags: &[u64],
    r: usize,
    wiring: WiringMode,
    tmp: &mut [u64],
) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            // SAFETY: the features the wrapper enables were just detected.
            unsafe { apply_column_avx512(live, words, flags, r, wiring, tmp) };
            return;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was just detected.
            unsafe { apply_column_avx2(live, words, flags, r, wiring, tmp) };
            return;
        }
    }
    apply_column_body(live, words, flags, r, wiring, tmp);
}

/// Scalar destination-bit extraction over whole words: for each word of
/// 64 cells, bit `j` of plane `srel` receives destination bit
/// `m - 1 - srel` of cell `j`.
#[inline(always)]
fn extract_planes_words_body(
    dests: &[u32],
    planes: &mut [u64],
    words: usize,
    m: usize,
    w0: usize,
    w1: usize,
) {
    let mut acc = [0u64; 24];
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

/// AVX-512 destination-bit extraction: loads each word's 64 `u32`
/// destinations as four 16-lane vectors once, then peels one plane per
/// `vptestm` mask round — `4 + 4m` vector ops per word against the
/// scalar body's `64m` shift-and-or steps.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
fn extract_planes_avx512(
    dests: &[u32],
    planes: &mut [u64],
    words: usize,
    m: usize,
    w0: usize,
    w1: usize,
) {
    use std::arch::x86_64::*;
    debug_assert!(dests.len() >= w1 << 6);
    for w in w0..w1 {
        let base = w << 6;
        // SAFETY: the caller guarantees cells `base..base + 64` exist;
        // unaligned loads are explicitly allowed by `loadu`.
        let (v0, v1, v2, v3) = unsafe {
            let p = dests.as_ptr().add(base);
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

/// Fills plane words `w0..w1` from the destination column, one bit-plane
/// row per destination bit. Dispatches to the AVX-512 mask-test path
/// when the CPU has it.
fn extract_planes_words(
    dests: &[u32],
    planes: &mut [u64],
    words: usize,
    m: usize,
    w0: usize,
    w1: usize,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            // SAFETY: the features the wrapper enables were just detected.
            unsafe { extract_planes_avx512(dests, planes, words, m, w0, w1) };
            return;
        }
    }
    extract_planes_words_body(dests, planes, words, m, w0, w1);
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

/// Body of the column-control sweep — see [`column_flags`] for the
/// contract. `#[inline(always)]` so each `#[target_feature]` wrapper
/// below gets its own autovectorizable copy; the in-word arbiter depth
/// `p` is dispatched through a `match` so every arm's up/down sweep
/// unrolls with constant shift amounts.
#[inline(always)]
fn column_flags_body(plane: &[u64], flags: &mut [u64], box_size: usize, pk: &mut ColumnTrees<'_>) {
    #[inline(always)]
    fn sweep<const P: usize>(plane: &[u64], flags: &mut [u64]) {
        for (f, &x) in flags.iter_mut().zip(plane) {
            *f = word_controls(x, P);
        }
    }
    if box_size == 2 {
        // sp(1) has no arbiter: control = s(2t) directly.
        for (f, &x) in flags.iter_mut().zip(plane) {
            *f = x & EVEN;
        }
        return;
    }
    if box_size <= 64 {
        match box_size.trailing_zeros() {
            2 => sweep::<2>(plane, flags),
            3 => sweep::<3>(plane, flags),
            4 => sweep::<4>(plane, flags),
            5 => sweep::<5>(plane, flags),
            _ => sweep::<6>(plane, flags),
        }
        return;
    }
    // Boxes wider than a word. Up to the 64-word (4096-line) box a u64
    // cross-tree can hold, pack each word's parity into one word and run
    // the same SWAR up/down sweep on it that `word_controls` runs in a
    // lane — the cross-tree root echoes its own up-value exactly like the
    // in-word root, so the composite is two nested sweeps with no
    // heap-allocated tree in between. Each word's levels stay in
    // registers (recomputed on the down-sweep instead of spilled).
    let box_words = box_size / 64;
    if box_words <= 64 {
        let q = box_words.trailing_zeros() as usize;
        for (bw, block) in plane.chunks(box_words).enumerate() {
            let mut rootw = 0u64;
            for (w, &x) in block.iter().enumerate() {
                rootw |= u64::from(x.count_ones() & 1) << w;
            }
            let clev = word_levels(rootw, q);
            let zd_words = lane_flags(&clev, q, clev[q]);
            for (w, &x) in block.iter().enumerate() {
                let lev = word_levels(x, 6);
                let zd = lane_flags(&lev, 6, (zd_words >> w) & 1);
                flags[bw * box_words + w] = (x ^ zd) & EVEN;
            }
        }
        return;
    }
    // Boxes past 2^12 lines (m > 12): the word parities no longer fit one
    // u64, so route them through the heap cross-tree.
    for (bw, block) in plane.chunks(box_words).enumerate() {
        for (r, &x) in pk.roots[..box_words].iter_mut().zip(block.iter()) {
            *r = x.count_ones() & 1 == 1;
        }
        zd_into_leaves(&pk.roots[..box_words], pk.tree, pk.zds);
        for (w, &x) in block.iter().enumerate() {
            let lev = word_levels(x, 6);
            let zd = lane_flags(&lev, 6, u64::from(pk.zds[w]));
            flags[bw * box_words + w] = (x ^ zd) & EVEN;
        }
    }
}

/// [`column_flags_body`] compiled with AVX-512 enabled; reachable only
/// after a runtime feature check.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
fn column_flags_avx512(
    plane: &[u64],
    flags: &mut [u64],
    box_size: usize,
    pk: &mut ColumnTrees<'_>,
) {
    column_flags_body(plane, flags, box_size, pk);
}

/// [`column_flags_body`] compiled with AVX2 enabled; reachable only
/// after a runtime feature check.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn column_flags_avx2(plane: &[u64], flags: &mut [u64], box_size: usize, pk: &mut ColumnTrees<'_>) {
    column_flags_body(plane, flags, box_size, pk);
}

/// Packs the whole column's switch controls into `flags` (bit `2t` of the
/// window word = exchange for the pair on lines `2t`, `2t + 1`), for a
/// column free of faults. Dispatches to the widest SIMD build of the
/// sweep this CPU supports.
fn column_flags(plane: &[u64], flags: &mut [u64], box_size: usize, pk: &mut ColumnTrees<'_>) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            // SAFETY: the features the wrapper enables were just detected.
            unsafe { column_flags_avx512(plane, flags, box_size, pk) };
            return;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was just detected.
            unsafe { column_flags_avx2(plane, flags, box_size, pk) };
            return;
        }
    }
    column_flags_body(plane, flags, box_size, pk);
}

/// The cross-tree working set threaded into [`column_flags`].
struct ColumnTrees<'a> {
    roots: &'a mut [bool],
    zds: &'a mut Vec<bool>,
    tree: &'a mut Vec<bool>,
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
        roots,
        zds,
        tree,
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
            let column_faults = faults.filter(|f| f.affects(main_stage, internal));
            // Planes for already-routed stages are dead; the current
            // stage's plane feeds the arbiter, later ones ride along.
            let live = &mut planes[srel * words..];
            let (cur, future) = live.split_at_mut(words);
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
                let mut trees = ColumnTrees { roots, zds, tree };
                column_flags(cur, flags, box_size, &mut trees);
            }
            // Exchange: flag words drive the position permutation and
            // every live plane; records move once, at the gather below.
            let mut exchanges = 0;
            for w in 0..words {
                let f = flags[w];
                if f == 0 {
                    continue;
                }
                let base = w * 64;
                exchanges += apply_flag_word(f, &mut perm[base..span.min(base + 64)]);
                let ce = f | (f << 1);
                cur[w] = swap_pairs_word(cur[w], ce);
                for plane in future.chunks_exact_mut(words) {
                    plane[w] = swap_pairs_word(plane[w], ce);
                }
            }
            totals.column((span / box_size) as u64, depth, exchanges);
            // Wiring: rotate the low r index bits within each 2^r block
            // (r = box width inside a stage, r = k for the main wiring).
            let last_internal = internal + 1 == k;
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
                wire_plane(cur, r, wiring, tmp);
                for plane in future.chunks_exact_mut(words) {
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
/// arbiter sweeps, exchanges and wirings run at full lane utilisation.
///
/// Frames never interact: each occupies an aligned `n`-cell region, every
/// box (`≤ n` lines, power of two) and wiring block (`2^r ≤ n` lines)
/// divides that alignment, and frames marked `Err` in `valid` contribute
/// all-zero plane regions — zero lanes produce zero exchange flags, so
/// their (skipped) cells are never moved and never read back.
///
/// Output movement, one frame at a time through frame-sized staging:
/// - **Strict** (frames are validated permutations): the sweeps carry the
///   destination planes forward — each column's flags are computed from
///   plane bits whose positions those same sweeps produced — and the final
///   movement short-circuits through the delivery guarantee (Theorem 2:
///   output line `d` holds the record destined `d`): the payloads scatter
///   into the stage and back, and the identity ramp overwrites the
///   destinations in place. Byte-identical to the scalar oracle by the
///   same theorem.
/// - **Permissive** (arbitrary traffic): `m` *index* bit-planes ride
///   through every exchange and wiring — the word-parallel analogue of
///   the single-frame kernel's position `perm` — and the final gather
///   reconstructs each slot's source index from them.
///
/// `tally` receives one [`StageTotalsEvent`] per main stage summed over
/// the valid frames: the per-frame column and sweep counts times the
/// frame count, and the popcount of the stage's flag words (inert lanes
/// of invalid frames contribute none).
///
/// Infallible: validation happened in [`crate::batch::route_batch`], and
/// validated strict traffic cannot unbalance a splitter (Theorem 2), which
/// debug builds assert.
///
/// [`FrameBatch`]: crate::batch::FrameBatch
pub(crate) fn route_batch_packed(
    net: &BnbNetwork,
    batch: &mut crate::batch::FrameBatch,
    valid: &[Result<(), RouteError>],
    scratch: &mut StageScratch,
    tally: Option<&dyn Observer>,
) {
    let m = net.m();
    let n = 1usize << m;
    let frames = batch.frames();
    debug_assert_eq!(batch.width(), n);
    debug_assert_eq!(valid.len(), frames);
    assert!(m <= 24, "batched kernel supports m <= 24");
    let cells = frames * n;
    let words = cells.div_ceil(64);
    let strict = matches!(net.policy(), RoutePolicy::Strict);
    let wiring = net.wiring();
    scratch.packed.ensure_batch(n, words, m, !strict);
    let PackedScratch {
        planes,
        flags,
        tmp,
        roots,
        zds,
        tree,
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
            extract_planes_words(dests, planes, words, m, base >> 6, (base + n) >> 6);
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
    for main_stage in 0..m {
        let srel = main_stage;
        let k = m - main_stage;
        let mut totals = StageTally::new(tally, main_stage, 0, n, routed as u64);
        for internal in 0..k {
            let box_size = 1usize << (k - internal);
            let live = &mut planes[srel * words..m * words];
            if strict && routed == frames && cells.is_multiple_of(64) {
                // Validated permutations satisfy Definition 3 at every
                // splitter (Theorem 2); there is nothing to detect. (The
                // check reads whole words, so it only applies when no
                // trailing zero lanes pad the last word.)
                debug_assert!(
                    first_unbalanced(&live[..words], cells, box_size).is_none(),
                    "validated strict batch unbalanced at stage {main_stage}.{internal}"
                );
            }
            let mut trees = ColumnTrees { roots, zds, tree };
            column_flags(&live[..words], flags, box_size, &mut trees);
            if tally.is_some() {
                let exchanges = flags[..words]
                    .iter()
                    .map(|f| u64::from(f.count_ones()))
                    .sum();
                totals.column((n / box_size) as u64, k - internal, exchanges);
            }
            // One fused pass per live plane applies the column's
            // exchanges and wiring together: the flag words drive the
            // current plane, every future plane, and (permissive) the
            // index planes; cells move once, at the final movement below.
            // The fabric's very last column has no wiring (r = 0
            // sentinel).
            let last_internal = internal + 1 == k;
            let r = if !last_internal {
                k - internal
            } else if main_stage + 1 < m {
                k
            } else {
                0
            };
            apply_column(live, words, flags, r, wiring, tmp);
            if !strict {
                apply_column(iplanes, words, flags, r, wiring, tmp);
            }
        }
        totals.emit();
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
            // becomes the identity ramp.
            for (&d, &x) in frame_dests.iter().zip(frame_data.iter()) {
                stage_data[d as usize] = x;
            }
            frame_data.copy_from_slice(&stage_data[..n]);
            for (j, d) in frame_dests.iter_mut().enumerate() {
                *d = j as u32;
            }
        } else {
            // Index gather: each slot's source line comes out of the
            // carried index planes.
            for j in 0..n {
                let g = base + j;
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
    use crate::splitter::controls;
    use bnb_topology::bitops::{shuffle, unshuffle};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn word_to_bits(x: u64, n: usize) -> Vec<bool> {
        (0..n).map(|j| x >> j & 1 == 1).collect()
    }

    fn flags_to_word(ctl: &[bool]) -> u64 {
        ctl.iter()
            .enumerate()
            .fold(0, |acc, (t, &c)| acc | (u64::from(c) << (2 * t)))
    }

    /// The in-word arbiter agrees with the scalar tree on every lane, for
    /// every box width that fits a word — including unbalanced garbage.
    #[test]
    fn word_controls_match_scalar_tree() {
        let mut rng = StdRng::seed_from_u64(31);
        for p in 2..=6usize {
            let n = 1usize << p;
            for _ in 0..200 {
                let x: u64 = rng.random();
                let mut want = 0u64;
                for lane in 0..(64 / n) {
                    let bits = word_to_bits(x >> (lane * n), n);
                    want |= flags_to_word(&controls(&bits)) << (lane * n);
                }
                assert_eq!(word_controls(x, p), want, "p = {p}, x = {x:#x}");
            }
        }
    }

    /// Multi-word boxes: per-word sweeps plus the cross-tree over word
    /// parities equal one big scalar tree.
    #[test]
    fn cross_tree_controls_match_scalar_tree() {
        let mut rng = StdRng::seed_from_u64(32);
        for p in 7..=9usize {
            let n = 1usize << p;
            let box_words = n / 64;
            for _ in 0..40 {
                let plane: Vec<u64> = (0..box_words).map(|_| rng.random()).collect();
                let bits: Vec<bool> = plane.iter().flat_map(|&w| word_to_bits(w, 64)).collect();
                let want = controls(&bits);
                let mut roots = vec![false; box_words];
                let mut zds = Vec::new();
                let mut tree = Vec::new();
                let mut flags = vec![0u64; box_words];
                let mut trees = ColumnTrees {
                    roots: &mut roots,
                    zds: &mut zds,
                    tree: &mut tree,
                };
                column_flags(&plane, &mut flags, n, &mut trees);
                for (w, &f) in flags.iter().enumerate() {
                    let want_word = flags_to_word(&want[w * 32..(w + 1) * 32]);
                    assert_eq!(f, want_word, "p = {p}, word = {w}");
                }
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
