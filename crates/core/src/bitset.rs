//! Blocked bitset adjacency and its word-wise intersection kernels.
//!
//! The scan kernels of [`crate::intersect`] touch one `u32` per pointer
//! advance. After relabeling, neighbor lists are *dense in label space* —
//! descending orders give hubs the smallest labels, so out-lists crowd the
//! low end of the ID range — and a dense run of neighbors can be packed
//! into 64-bit membership words. This module stores every adjacency list
//! as a sorted sequence of *blocks* `(base, mask)` where `base = label >> 6`
//! and `mask` holds the members of `[base*64, base*64 + 63]`. Intersecting
//! two lists becomes a merge over their block bases with one `AND` per
//! aligned pair: up to 64 candidate comparisons collapse into a single
//! word operation, and the common labels are read back out of the `AND`
//! with `trailing_zeros`. The kernel is portable Rust; counting runs it
//! with a discarding sink.
//!
//! # Exactness on eligible slices
//!
//! The SEI methods intersect contiguous *slices* of neighbor lists. A
//! slice of a sorted list is exactly the set of full-list elements inside
//! the closed value range `[slice[0], slice[len-1]]`, so a bounded
//! [`BlockView`] over the full block encoding — first/last block masked to
//! the range — represents the slice without decoding it. The intersection
//! of two such views equals the intersection of the two slices because
//! every common element lies inside both ranges.
//!
//! # Accounting
//!
//! Paper-cost fields are charged by the drive loops from eligible-slice
//! lengths before any kernel runs (see [`crate::kernel`]), so this kernel
//! cannot perturb them. [`ScanStats::advances`] reports block-pointer
//! steps (≤ `blocks(a) + blocks(b)`), the kernel-dependent implementation
//! metric, and `matches` is exact.

use crate::intersect::ScanStats;
use crate::source::GraphSource;

/// Every adjacency list of one direction, encoded as sorted `(base, mask)`
/// blocks. Blocks cost 12 B each; a list that is dense in label space
/// packs up to 64 neighbors per block, while a pathologically scattered
/// list degrades to one block per neighbor (12 B vs the CSR's 4 B — the
/// build reports [`BitsetBlocks::bytes`] so memory budgets can weigh the
/// trade).
#[derive(Clone, Debug)]
pub struct BitsetBlocks {
    /// Node → first block index; length `n + 1`.
    offsets: Vec<u32>,
    /// Block base (`label >> 6`), ascending within each node.
    bases: Vec<u32>,
    /// Membership mask of `[base*64, base*64 + 63]`.
    words: Vec<u64>,
}

impl BitsetBlocks {
    /// Encodes the `dir`-lists of `src`: a counting pass sizes the block
    /// arrays exactly, so the heap they hold is what [`BitsetBlocks::bytes`]
    /// charges, then one streaming pass fills them.
    pub fn build_src(src: GraphSource<'_>, dir: crate::kernel::ListDir) -> Self {
        let n = src.n();
        let blocks = BitsetBlocks::count_blocks(src, dir);
        let mut offsets = Vec::with_capacity(n + 1);
        let mut bases: Vec<u32> = Vec::with_capacity(blocks);
        let mut words: Vec<u64> = Vec::with_capacity(blocks);
        offsets.push(0u32);
        for v in 0..n as u32 {
            // `start` keeps a node's first element from merging into the
            // previous node's trailing block when their bases coincide
            let start = bases.len();
            let mut push = |w: u32| {
                let base = w >> 6;
                let bit = 1u64 << (w & 63);
                if bases.len() > start && *bases.last().unwrap() == base {
                    *words.last_mut().unwrap() |= bit;
                } else {
                    bases.push(base);
                    words.push(bit);
                }
            };
            match dir {
                crate::kernel::ListDir::Out => src.for_each_out(v, &mut push),
                crate::kernel::ListDir::In => src.for_each_in(v, &mut push),
            }
            offsets.push(bases.len() as u32);
        }
        BitsetBlocks {
            offsets,
            bases,
            words,
        }
    }

    /// Predicted [`BitsetBlocks::bytes`] of a build over `src`, without
    /// allocating the block arrays (one streaming counting pass) — the
    /// memory-budget planner's estimate, exact by construction.
    pub fn estimate_bytes(src: GraphSource<'_>, dir: crate::kernel::ListDir) -> u64 {
        BitsetBlocks::count_blocks(src, dir) as u64 * 12 + (src.n() as u64 + 1) * 4
    }

    /// Blocks a build over the `dir`-lists of `src` stores.
    fn count_blocks(src: GraphSource<'_>, dir: crate::kernel::ListDir) -> usize {
        let n = src.n();
        let mut blocks = 0;
        for v in 0..n as u32 {
            let mut last = u32::MAX;
            let mut count = |w: u32| {
                let base = w >> 6;
                if base != last {
                    blocks += 1;
                    last = base;
                }
            };
            match dir {
                crate::kernel::ListDir::Out => src.for_each_out(v, &mut count),
                crate::kernel::ListDir::In => src.for_each_in(v, &mut count),
            }
        }
        blocks
    }

    /// The `(bases, words)` blocks of node `v`.
    #[inline]
    pub fn blocks(&self, v: u32) -> (&[u32], &[u64]) {
        let s = self.offsets[v as usize] as usize;
        let e = self.offsets[v as usize + 1] as usize;
        (&self.bases[s..e], &self.words[s..e])
    }

    /// Total blocks stored.
    pub fn block_count(&self) -> usize {
        self.bases.len()
    }

    /// Number of blocks encoding `v`'s full list — O(1). The dispatch
    /// layer's density gate divides list lengths by these totals *before*
    /// building any view, so sparse pairs reject without touching the
    /// block arrays.
    #[inline]
    pub fn node_blocks(&self, v: u32) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// First and last label of `v`'s list — O(1) from the boundary
    /// blocks, `None` for an empty list. This is what lets the compressed
    /// drivers route a pair without decoding the remote list: the block
    /// encoding answers the same range questions the decoded slice would.
    #[inline]
    pub fn label_bounds(&self, v: u32) -> Option<(u32, u32)> {
        let (bases, words) = self.blocks(v);
        let last = bases.len().checked_sub(1)?;
        // stored blocks always have at least one member bit set
        let lo = (bases[0] << 6) | words[0].trailing_zeros();
        let hi = (bases[last] << 6) | (63 - words[last].leading_zeros());
        Some((lo, hi))
    }

    /// Heap footprint in bytes (what a memory budget charges).
    pub fn bytes(&self) -> u64 {
        self.bases.len() as u64 * 12 + self.offsets.len() as u64 * 4
    }

    /// A bounded view of `v`'s blocks covering labels in `[lo, hi]`
    /// (inclusive). Returns `None` when no block overlaps the range.
    ///
    /// The hot callers bound a view to *its own slice's* value range, so
    /// `lo`/`hi` usually coincide with the list ends: full lists hit both
    /// fast paths below, prefixes and suffixes hit one, and the binary
    /// searches only run for genuinely interior bounds.
    #[inline]
    pub fn view(&self, v: u32, lo: u32, hi: u32) -> Option<BlockView<'_>> {
        let (bases, words) = self.blocks(v);
        if bases.is_empty() {
            return None;
        }
        let (blo, bhi) = (lo >> 6, hi >> 6);
        let s = if bases[0] >= blo {
            0
        } else {
            bases.partition_point(|&b| b < blo)
        };
        let e = if bases[bases.len() - 1] <= bhi {
            bases.len()
        } else {
            bases.partition_point(|&b| b <= bhi)
        };
        if s >= e {
            return None;
        }
        let mut first_mask = !0u64;
        if bases[s] == blo {
            first_mask = !0u64 << (lo & 63);
        }
        let mut last_mask = !0u64;
        if bases[e - 1] == bhi {
            let shift = 63 - (hi & 63);
            last_mask = !0u64 >> shift;
        }
        if e - s == 1 {
            first_mask &= last_mask;
            last_mask = first_mask;
        }
        Some(BlockView {
            bases: &bases[s..e],
            words: &words[s..e],
            first_mask,
            last_mask,
        })
    }
}

/// A zero-copy slice of one node's blocks with the first/last words masked
/// to a closed label range — the blocked representation of an eligible
/// slice.
#[derive(Clone, Copy)]
pub struct BlockView<'a> {
    bases: &'a [u32],
    words: &'a [u64],
    first_mask: u64,
    last_mask: u64,
}

impl BlockView<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.bases.len()
    }

    /// Number of blocks in the bounded view — the dispatch layer's
    /// density gate divides slice lengths by this.
    #[inline]
    pub fn blocks(&self) -> usize {
        self.bases.len()
    }

    /// The mask word at `i` with boundary masks applied.
    #[inline]
    fn word(&self, i: usize) -> u64 {
        let mut w = self.words[i];
        if i == 0 {
            w &= self.first_mask;
        }
        if i == self.len() - 1 {
            w &= self.last_mask;
        }
        w
    }
}

/// Block-count ratio above which the merge walk switches to galloping over
/// the longer side's bases. The gallop pays `O(log blocks_long)` probes per
/// *block* of the short side — each hit resolving up to 64 labels at once —
/// so the crossover sits lower than the label-gallop's.
const GALLOP_BLOCK_SKEW: usize = 8;

/// Issues a best-effort cache-line prefetch for `bases[idx]` (no-op off
/// x86_64 or out of bounds). Purely a latency hint.
#[inline(always)]
fn prefetch_base(bases: &[u32], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    if idx < bases.len() {
        // SAFETY: index checked above; prefetch has no side effects beyond
        // the cache hierarchy.
        unsafe {
            core::arch::x86_64::_mm_prefetch(
                bases.as_ptr().add(idx).cast::<i8>(),
                core::arch::x86_64::_MM_HINT_T0,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (bases, idx);
    }
}

/// Skew path of [`intersect_blocks`]: gallop through `l.bases` for each of
/// `s`'s blocks, handing every base-aligned pair to `hit`.
/// `advances` counts gallop/binary probes exactly like
/// [`crate::intersect::intersect_gallop`], plus 2 per aligned pair.
#[inline]
fn gallop_blocks<F: FnMut(usize, usize, &mut ScanStats)>(
    s: BlockView<'_>,
    l: BlockView<'_>,
    swapped: bool,
    mut hit: F,
) -> ScanStats {
    let mut stats = ScanStats::default();
    let mut lo = 0usize;
    for i in 0..s.len() {
        let x = s.bases[i];
        let mut step = 1usize;
        let mut hi = lo;
        while hi < l.len() && l.bases[hi] < x {
            lo = hi + 1;
            prefetch_base(l.bases, hi + step);
            hi += step;
            step <<= 1;
            stats.advances += 1;
        }
        let hi = hi.min(l.len());
        let idx = lo + l.bases[lo..hi].partition_point(|&y| y < x);
        stats.advances += (hi - lo).max(1).ilog2() as u64 + 1;
        if idx < l.len() && l.bases[idx] == x {
            stats.advances += 2;
            if swapped {
                hit(idx, i, &mut stats);
            } else {
                hit(i, idx, &mut stats);
            }
            lo = idx + 1;
        } else {
            lo = idx;
        }
        if lo >= l.len() {
            break;
        }
    }
    stats
}

/// Blocked intersection delivering each common label to `sink` in
/// ascending order: a merge over block bases, or a gallop over the longer
/// side's bases when the pair is heavily skewed. `advances` counts
/// block-pointer steps and probes.
pub fn intersect_blocks<F: FnMut(u32)>(
    a: BlockView<'_>,
    b: BlockView<'_>,
    mut sink: F,
) -> ScanStats {
    if a.len() * GALLOP_BLOCK_SKEW < b.len() || b.len() * GALLOP_BLOCK_SKEW < a.len() {
        let (s, l, swapped) = if a.len() <= b.len() {
            (a, b, false)
        } else {
            (b, a, true)
        };
        return gallop_blocks(s, l, swapped, |i, j, stats| {
            let mut and = a.word(i) & b.word(j);
            let origin = a.bases[i] << 6;
            while and != 0 {
                let t = and.trailing_zeros();
                stats.matches += 1;
                sink(origin | t);
                and &= and - 1;
            }
        });
    }
    let mut stats = ScanStats::default();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (ab, bb) = (a.bases[i], b.bases[j]);
        if ab != bb {
            i += (ab < bb) as usize;
            j += (bb < ab) as usize;
            stats.advances += 1;
            continue;
        }
        let mut and = a.word(i) & b.word(j);
        let origin = ab << 6;
        while and != 0 {
            let t = and.trailing_zeros();
            stats.matches += 1;
            sink(origin | t);
            and &= and - 1;
        }
        stats.advances += 2;
        i += 1;
        j += 1;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ListDir;
    use rand::{Rng, SeedableRng};
    use trilist_graph::Graph;
    use trilist_order::{DirectedGraph, OrderFamily};

    fn random_directed(n: usize, p: f64, seed: u64) -> DirectedGraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.gen_bool(p) {
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(n, &edges).unwrap();
        let r = OrderFamily::Descending.relabeling(&g, &mut rng);
        DirectedGraph::orient(&g, &r)
    }

    fn decode(view: Option<BlockView<'_>>) -> Vec<u32> {
        let mut out = Vec::new();
        let Some(v) = view else { return out };
        for i in 0..v.len() {
            let mut w = v.word(i);
            while w != 0 {
                out.push((v.bases[i] << 6) | w.trailing_zeros());
                w &= w - 1;
            }
        }
        out
    }

    #[test]
    fn blocks_round_trip_all_lists() {
        let dg = random_directed(90, 0.3, 1);
        let src = GraphSource::Plain(&dg);
        type ListFn = fn(&DirectedGraph, u32) -> &[u32];
        let cases: [(ListDir, ListFn); 2] = [
            (ListDir::Out, |g, v| g.out(v)),
            (ListDir::In, |g, v| g.in_(v)),
        ];
        for (dir, list) in cases {
            let blocks = BitsetBlocks::build_src(src, dir);
            assert_eq!(blocks.bytes(), BitsetBlocks::estimate_bytes(src, dir));
            for v in 0..dg.n() as u32 {
                let want = list(&dg, v);
                let got = decode(blocks.view(v, 0, u32::MAX >> 1));
                assert_eq!(got.as_slice(), want, "{dir:?} node {v}");
            }
        }
    }

    #[test]
    fn bytes_is_the_heap_held() {
        // the memory gauge is charged `bytes()`, so it must count what the
        // block arrays hold, not just what they use
        let dg = random_directed(150, 0.3, 4);
        for dir in [ListDir::Out, ListDir::In] {
            let b = BitsetBlocks::build_src(GraphSource::Plain(&dg), dir);
            assert!(b.block_count() > 0);
            let held = b.offsets.capacity() * std::mem::size_of::<u32>()
                + b.bases.capacity() * std::mem::size_of::<u32>()
                + b.words.capacity() * std::mem::size_of::<u64>();
            assert_eq!(b.bytes(), held as u64, "{dir:?}");
        }
    }

    #[test]
    fn bounded_views_equal_slices() {
        let dg = random_directed(120, 0.25, 2);
        let blocks = BitsetBlocks::build_src(GraphSource::Plain(&dg), ListDir::Out);
        for v in 0..dg.n() as u32 {
            let full = dg.out(v);
            for s in 0..full.len() {
                for e in s..full.len() {
                    let slice = &full[s..=e];
                    let got = decode(blocks.view(v, slice[0], slice[slice.len() - 1]));
                    assert_eq!(got.as_slice(), slice, "node {v} [{s}..={e}]");
                }
            }
        }
    }

    #[test]
    fn blocked_intersections_agree_with_scan_on_slices() {
        let dg = random_directed(140, 0.3, 3);
        let blocks = BitsetBlocks::build_src(GraphSource::Plain(&dg), ListDir::Out);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..400 {
            let a_node = rng.gen_range(0..dg.n() as u32);
            let b_node = rng.gen_range(0..dg.n() as u32);
            let (a_full, b_full) = (dg.out(a_node), dg.out(b_node));
            if a_full.is_empty() || b_full.is_empty() {
                continue;
            }
            let (asp, bsp) = (
                rng.gen_range(0..a_full.len()),
                rng.gen_range(0..b_full.len()),
            );
            let a = &a_full[asp..];
            let b = &b_full[..=bsp];
            let want: Vec<u32> = a.iter().filter(|x| b.contains(x)).copied().collect();
            let lo = a[0].max(b[0]);
            let hi = a[a.len() - 1].min(b[b.len() - 1]);
            if lo > hi {
                assert!(want.is_empty());
                continue;
            }
            let (va, vb) = (blocks.view(a_node, lo, hi), blocks.view(b_node, lo, hi));
            let (Some(va), Some(vb)) = (va, vb) else {
                assert!(want.is_empty(), "missing view but scan found matches");
                continue;
            };
            let mut got = Vec::new();
            let si = intersect_blocks(va, vb, |x| got.push(x));
            assert_eq!(got, want, "a={a_node} b={b_node}");
            assert_eq!(si.matches, want.len() as u64);
        }
    }
}
