//! Counting two-pointer intersection of sorted neighbor slices.
//!
//! The scanning edge iterators (§2.3) "sequentially roll through both
//! neighbor lists, performing comparison using two pointers". The paper
//! accounts cost as the *lengths of the eligible slices* (that is what makes
//! Proposition 2 exact); the actual number of pointer advances is tracked
//! separately for the implementation-level benchmarks.

/// Result of one intersection: matches were delivered to the sink.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Pointer advances actually performed (≤ `a.len() + b.len()`).
    pub advances: u64,
    /// Number of common elements found.
    pub matches: u64,
}

/// Intersects two ascending-sorted slices, invoking `sink` on each common
/// element, counting pointer advances.
pub fn intersect_sorted<F: FnMut(u32)>(a: &[u32], b: &[u32], mut sink: F) -> ScanStats {
    let mut stats = ScanStats::default();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x == y {
            sink(x);
            stats.matches += 1;
            i += 1;
            j += 1;
            stats.advances += 2;
        } else if x < y {
            i += 1;
            stats.advances += 1;
        } else {
            j += 1;
            stats.advances += 1;
        }
    }
    stats
}

/// Backwards two-pointer intersection: scans both lists from the end,
/// emitting matches in descending order. Functionally identical to
/// [`intersect_sorted`]; exists because E5's intersection starts mid-list
/// and the paper measured backwards scanning 26% slower than forward on an
/// i7-2600K (poor prefetch, §2.3) — the benches reproduce the comparison.
pub fn intersect_sorted_backwards<F: FnMut(u32)>(a: &[u32], b: &[u32], mut sink: F) -> ScanStats {
    let mut stats = ScanStats::default();
    let (mut i, mut j) = (a.len(), b.len());
    while i > 0 && j > 0 {
        let (x, y) = (a[i - 1], b[j - 1]);
        if x == y {
            sink(x);
            stats.matches += 1;
            i -= 1;
            j -= 1;
            stats.advances += 2;
        } else if x > y {
            i -= 1;
            stats.advances += 1;
        } else {
            j -= 1;
            stats.advances += 1;
        }
    }
    stats
}

/// Branchless-advance merge intersection: the same two-pointer walk as
/// [`intersect_sorted`] with the pointer increments computed arithmetically
/// (`i += (x <= y)`, `j += (y <= x)`) instead of via a three-way branch, so
/// the loop carries no data-dependent branch misprediction on the advance
/// path. `advances` accounting is **identical** to [`intersect_sorted`]
/// (both pointers advance on a match, one otherwise), as is the emission
/// order — only wall-clock differs.
pub fn intersect_branchless<F: FnMut(u32)>(a: &[u32], b: &[u32], mut sink: F) -> ScanStats {
    let mut stats = ScanStats::default();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x == y {
            sink(x);
            stats.matches += 1;
        }
        let ai = (x <= y) as usize;
        let bj = (y <= x) as usize;
        i += ai;
        j += bj;
        stats.advances += (ai + bj) as u64;
    }
    stats
}

/// Issues a best-effort cache-line prefetch for `slice[idx]` (no-op off
/// x86_64 or out of bounds). Purely a latency hint: no architectural state
/// changes, so results and accounting are untouched.
#[inline(always)]
fn prefetch_read(slice: &[u32], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    if idx < slice.len() {
        // SAFETY: index checked above; prefetch has no side effects beyond
        // the cache hierarchy.
        unsafe {
            core::arch::x86_64::_mm_prefetch(
                slice.as_ptr().add(idx).cast::<i8>(),
                core::arch::x86_64::_MM_HINT_T0,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (slice, idx);
    }
}

/// Galloping (exponential-search) intersection: preferable when one list is
/// much shorter. Same output contract as [`intersect_sorted`]; `advances`
/// counts probed positions — each short element pays a doubling phase and a
/// binary-search phase, each bounded by `2 + log2|long| + 1` probes.
///
/// The doubling phase strides exponentially through `long`, so its probes
/// are cache misses almost by construction; each iteration prefetches the
/// position the *next* doubling step will touch to overlap that miss with
/// the current compare.
pub fn intersect_gallop<F: FnMut(u32)>(short: &[u32], long: &[u32], mut sink: F) -> ScanStats {
    let mut stats = ScanStats::default();
    let mut lo = 0usize;
    for &x in short {
        // gallop in `long[lo..]` for the first element >= x
        let mut step = 1usize;
        let mut hi = lo;
        while hi < long.len() && long[hi] < x {
            lo = hi + 1;
            prefetch_read(long, hi + step);
            hi += step;
            step <<= 1;
            stats.advances += 1;
        }
        let hi = hi.min(long.len());
        let idx = lo + long[lo..hi].partition_point(|&y| y < x);
        stats.advances += (hi - lo).max(1).ilog2() as u64 + 1;
        if idx < long.len() && long[idx] == x {
            sink(x);
            stats.matches += 1;
            lo = idx + 1;
        } else {
            lo = idx;
        }
        if lo >= long.len() {
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_sorted(a: &[u32], b: &[u32]) -> (Vec<u32>, ScanStats) {
        let mut out = Vec::new();
        let stats = intersect_sorted(a, b, |x| out.push(x));
        (out, stats)
    }

    fn collect_gallop(a: &[u32], b: &[u32]) -> (Vec<u32>, ScanStats) {
        let mut out = Vec::new();
        let stats = intersect_gallop(a, b, |x| out.push(x));
        (out, stats)
    }

    #[test]
    fn basic_intersection() {
        let (out, stats) = collect_sorted(&[1, 3, 5, 7], &[2, 3, 4, 7, 9]);
        assert_eq!(out, vec![3, 7]);
        assert_eq!(stats.matches, 2);
        assert!(stats.advances <= 9);
    }

    #[test]
    fn disjoint_and_empty() {
        assert_eq!(collect_sorted(&[1, 2], &[3, 4]).0, Vec::<u32>::new());
        assert_eq!(collect_sorted(&[], &[1, 2]).0, Vec::<u32>::new());
        assert_eq!(collect_sorted(&[], &[]).1, ScanStats::default());
    }

    #[test]
    fn identical_lists() {
        let a = [2u32, 4, 6, 8];
        let (out, stats) = collect_sorted(&a, &a);
        assert_eq!(out, a.to_vec());
        assert_eq!(stats.matches, 4);
        assert_eq!(stats.advances, 8);
    }

    #[test]
    fn gallop_agrees_with_scan() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let mut a: Vec<u32> = (0..rng.gen_range(0..30))
                .map(|_| rng.gen_range(0..100))
                .collect();
            let mut b: Vec<u32> = (0..rng.gen_range(0..300))
                .map(|_| rng.gen_range(0..400))
                .collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let (s, _) = collect_sorted(&a, &b);
            let (g, _) = collect_gallop(&a, &b);
            assert_eq!(s, g, "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn backwards_agrees_with_forward() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let mut a: Vec<u32> = (0..rng.gen_range(0..40))
                .map(|_| rng.gen_range(0..120))
                .collect();
            let mut b: Vec<u32> = (0..rng.gen_range(0..40))
                .map(|_| rng.gen_range(0..120))
                .collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let mut fwd = Vec::new();
            let sf = intersect_sorted(&a, &b, |x| fwd.push(x));
            let mut bwd = Vec::new();
            let sb = intersect_sorted_backwards(&a, &b, |x| bwd.push(x));
            bwd.reverse();
            assert_eq!(fwd, bwd, "a={a:?} b={b:?}");
            assert_eq!(sf.matches, sb.matches);
        }
    }

    #[test]
    fn advances_bounded_by_total_length() {
        let a: Vec<u32> = (0..50).map(|i| i * 2).collect();
        let b: Vec<u32> = (0..50).map(|i| i * 3).collect();
        let (_, stats) = collect_sorted(&a, &b);
        assert!(stats.advances <= 100);
    }

    mod props {
        use super::super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        fn sorted_unique(max: u32, len: usize) -> impl Strategy<Value = Vec<u32>> {
            proptest::collection::btree_set(0..max, 0..len)
                .prop_map(|s: BTreeSet<u32>| s.into_iter().collect())
        }

        proptest! {
            #[test]
            fn all_variants_agree_with_set_intersection(
                a in sorted_unique(200, 60),
                b in sorted_unique(200, 60),
            ) {
                let want: Vec<u32> = a.iter().filter(|x| b.contains(x)).copied().collect();
                let mut fwd = Vec::new();
                let sf = intersect_sorted(&a, &b, |x| fwd.push(x));
                prop_assert_eq!(&fwd, &want);
                let mut bwd = Vec::new();
                intersect_sorted_backwards(&a, &b, |x| bwd.push(x));
                bwd.reverse();
                prop_assert_eq!(&bwd, &want);
                let mut gal = Vec::new();
                intersect_gallop(&a, &b, |x| gal.push(x));
                prop_assert_eq!(&gal, &want);
                let mut bl = Vec::new();
                let sb = intersect_branchless(&a, &b, |x| bl.push(x));
                prop_assert_eq!(&bl, &want);
                // branchless is the same walk: advances match exactly
                prop_assert_eq!(sb.advances, sf.advances);
                prop_assert!(sf.advances <= (a.len() + b.len()) as u64);
                prop_assert_eq!(sf.matches as usize, want.len());
            }

            #[test]
            fn gallop_advances_bounded_by_short_log_long(
                short in sorted_unique(100_000, 40),
                long in sorted_unique(100_000, 400),
            ) {
                prop_assume!(!long.is_empty());
                let stats = intersect_gallop(&short, &long, |_| {});
                // per short element: a doubling phase and a binary-search
                // phase, each within 2 + log2|long| + 1 probed positions
                let per_phase = 2 + u64::from((long.len() as u64).max(2).ilog2()) + 1;
                let bound = short.len() as u64 * per_phase * 2;
                prop_assert!(
                    stats.advances <= bound,
                    "advances {} > bound {} (|short|={}, |long|={})",
                    stats.advances, bound, short.len(), long.len()
                );
            }
        }
    }
}
