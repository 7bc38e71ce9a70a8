//! Scanning edge iterators E1–E6 (§2.3, Figure 3, Table 1).
//!
//! Each method traverses directed edges and intersects the sorted neighbor
//! lists of the two endpoints with a two-pointer scan. Cost is accounted as
//! the lengths of the two *eligible* slices — `local` for the first-visited
//! node's list, `remote` for the other — which is precisely the convention
//! that makes Proposition 2 (`c(E1) = c(T1) + c(T2)`) and Table 1 exact:
//!
//! | method | local cost | remote cost | intersection |
//! |---|---|---|---|
//! | E1 | T1 | T2 | prefix of `N⁺(z)` below `y` ∩ `N⁺(y)` |
//! | E2 | T2 | T1 | `N⁺(y)` ∩ prefix of `N⁺(z)` below `y` |
//! | E3 | T3 | T2 | suffix of `N⁻(x)` above `y` ∩ `N⁻(y)` |
//! | E4 | T1 | T3 | suffix of `N⁺(z)` above `x` ∩ prefix of `N⁻(x)` below `z` |
//! | E5 | T2 | T3 | `N⁻(y)` ∩ suffix of `N⁻(x)` above `y` |
//! | E6 | T3 | T1 | prefix of `N⁻(x)` below `z` ∩ suffix of `N⁺(z)` above `x` |
//!
//! E2 performs the same intersections as E1 (and E6 the same as E4) with the
//! local/remote roles swapped — the paper distinguishes them because the
//! swap changes the external-memory access pattern \[17\], which is out of
//! scope here; the operation counts are what the models predict.
//!
//! The boundary ranks needed by E4–E6 (where the intersection start "is
//! buried in the middle" of a list, §2.3) are located by binary search;
//! those searches are bookkeeping for the accounting and are not part of
//! the counted comparisons, matching the paper's cost model.

use crate::cost::CostReport;
use crate::intersect::ScanStats;
use crate::kernel::{Kernels, ListDir, SideOwner};
use crate::source::{DecodeScratch, ListReader};
use crate::vertex::{t1_formula, t2_formula, t3_formula};
use trilist_order::DirectedGraph;

// Each method is one traversal that charges paper cost (local/remote)
// from the eligible slice lengths, so those fields are byte-identical
// under every `KernelPolicy`, and hands the kernel each intersection with
// its `SideOwner`s: the structural facts (derived from the orientation
// invariant out(v) < v < in(v)) that make hub-bitmap probes against
// full-list rows exact on the sliced lists. Counting runs the same
// traversal with a discarding sink. E1 and E4, the parallel runtime's
// methods, read lists through a `ListReader`, so they also run on the
// compressed layout.

/// One eligible pair: paper cost from the slice lengths, implementation
/// cost and triangles from what the kernel did.
#[inline]
fn charge(cost: &mut CostReport, local: &[u32], remote: &[u32], stats: ScanStats) {
    cost.local += local.len() as u64;
    cost.remote += remote.len() as u64;
    cost.pointer_advances += stats.advances;
    cost.triangles += stats.matches;
}

#[inline]
pub(crate) fn out_of(v: u32) -> SideOwner {
    Some((v, ListDir::Out))
}

#[inline]
fn in_of(v: u32) -> SideOwner {
    Some((v, ListDir::In))
}

/// E1: visit `z`, then each `y ∈ N⁺(z)`; intersect the sub-`y` prefix of
/// `N⁺(z)` (local) with `N⁺(y)` (remote).
pub fn e1<F: FnMut(u32, u32, u32)>(g: &DirectedGraph, sink: F) -> CostReport {
    e1_with(g, &Kernels::paper(), sink)
}

/// E1 restricted to visited nodes `z ∈ range` — the parallel partitioning
/// unit.
pub fn e1_range<F: FnMut(u32, u32, u32)>(
    g: &DirectedGraph,
    range: std::ops::Range<u32>,
    sink: F,
) -> CostReport {
    e1_range_with(
        g,
        range,
        &Kernels::paper(),
        &mut DecodeScratch::default(),
        sink,
    )
}

/// E1 with an explicit kernel context.
pub fn e1_with<F: FnMut(u32, u32, u32)>(g: &DirectedGraph, k: &Kernels, sink: F) -> CostReport {
    e1_range_with(g, 0..g.n() as u32, k, &mut DecodeScratch::default(), sink)
}

/// E1 over `range` with an explicit kernel context, on either adjacency
/// layout. The local slice is a prefix of `N⁺(z)` below `y`; every probe
/// element comes from `N⁺(y)` and is therefore `< y`, so the full-list
/// `(z, Out)` row is exact for it. The remote side is always all of
/// `N⁺(y)`, charged from the stored degree, so the reader may answer
/// without decoding the list.
pub(crate) fn e1_range_with<L: ListReader, F: FnMut(u32, u32, u32)>(
    g: &L,
    range: std::ops::Range<u32>,
    k: &Kernels,
    scratch: &mut DecodeScratch,
    mut sink: F,
) -> CostReport {
    let mut cost = CostReport::default();
    let [node, remote, ..] = &mut scratch.bufs;
    for z in range {
        let out = g.out(z, node);
        for (j, &y) in out.iter().enumerate() {
            cost.local += j as u64;
            cost.remote += g.x(y) as u64;
            let stats = g.e1_remote(k, &out[..j], z, y, remote, |x| sink(x, y, z));
            cost.pointer_advances += stats.advances;
            cost.triangles += stats.matches;
        }
    }
    cost
}

/// E2: the same intersections as E1 with `y` as the first-visited node, so
/// local/remote accounting swaps (`Forward`/`Compact Forward` \[33\], \[28\]
/// are E2 variants).
pub fn e2<F: FnMut(u32, u32, u32)>(g: &DirectedGraph, sink: F) -> CostReport {
    e2_with(g, &Kernels::paper(), sink)
}

/// E2 with an explicit kernel context (owners mirror E1 with the roles
/// swapped).
pub fn e2_with<F: FnMut(u32, u32, u32)>(g: &DirectedGraph, k: &Kernels, mut sink: F) -> CostReport {
    let mut cost = CostReport::default();
    for z in 0..g.n() as u32 {
        let out = g.out(z);
        for (j, &y) in out.iter().enumerate() {
            let (local, remote) = (g.out(y), &out[..j]);
            let stats = k.intersect(local, out_of(y), remote, out_of(z), |x| sink(x, y, z));
            charge(&mut cost, local, remote, stats);
        }
    }
    cost
}

/// E3: visit `x`, then each `y ∈ N⁻(x)`; intersect the above-`y` suffix of
/// `N⁻(x)` (local) with `N⁻(y)` (remote).
pub fn e3<F: FnMut(u32, u32, u32)>(g: &DirectedGraph, sink: F) -> CostReport {
    e3_with(g, &Kernels::paper(), sink)
}

/// E3 with an explicit kernel context. Probes into the `(x, In)` row come
/// from `N⁻(y)` and are `> y`, exactly the suffix the slice keeps.
pub fn e3_with<F: FnMut(u32, u32, u32)>(g: &DirectedGraph, k: &Kernels, mut sink: F) -> CostReport {
    let mut cost = CostReport::default();
    for x in 0..g.n() as u32 {
        let inn = g.in_(x);
        for (i, &y) in inn.iter().enumerate() {
            let (local, remote) = (&inn[i + 1..], g.in_(y));
            let stats = k.intersect(local, in_of(x), remote, in_of(y), |z| sink(x, y, z));
            charge(&mut cost, local, remote, stats);
        }
    }
    cost
}

/// E4: visit `z`, then each `x ∈ N⁺(z)`; intersect the above-`x` suffix of
/// `N⁺(z)` (local) with the below-`z` prefix of `N⁻(x)` (remote).
pub fn e4<F: FnMut(u32, u32, u32)>(g: &DirectedGraph, sink: F) -> CostReport {
    e4_with(g, &Kernels::paper(), sink)
}

/// E4 restricted to visited nodes `z ∈ range`.
pub fn e4_range<F: FnMut(u32, u32, u32)>(
    g: &DirectedGraph,
    range: std::ops::Range<u32>,
    sink: F,
) -> CostReport {
    e4_range_with(
        g,
        range,
        &Kernels::paper(),
        &mut DecodeScratch::default(),
        sink,
    )
}

/// E4 with an explicit kernel context.
pub fn e4_with<F: FnMut(u32, u32, u32)>(g: &DirectedGraph, k: &Kernels, sink: F) -> CostReport {
    e4_range_with(g, 0..g.n() as u32, k, &mut DecodeScratch::default(), sink)
}

/// E4 over `range` with an explicit kernel context, on either adjacency
/// layout. Both sides are sliced mid-list, and both stay bitmap-exact:
/// probes into the `(z, Out)` row come from `N⁻(x)` (all `> x`, the kept
/// suffix) and probes into the `(x, In)` row come from `N⁺(z)` (all
/// `< z`, the kept prefix).
pub(crate) fn e4_range_with<L: ListReader, F: FnMut(u32, u32, u32)>(
    g: &L,
    range: std::ops::Range<u32>,
    k: &Kernels,
    scratch: &mut DecodeScratch,
    mut sink: F,
) -> CostReport {
    let mut cost = CostReport::default();
    let [node, remote, ..] = &mut scratch.bufs;
    for z in range {
        let out = g.out(z, node);
        for (j, &x) in out.iter().enumerate() {
            let inn = g.in_(x, remote);
            // rank of z within N⁻(x): everything before it is an eligible y
            let r = inn.partition_point(|&w| w < z);
            let (local, remote) = (&out[j + 1..], &inn[..r]);
            let stats = k.intersect(local, out_of(z), remote, in_of(x), |y| sink(x, y, z));
            charge(&mut cost, local, remote, stats);
        }
    }
    cost
}

/// E5: visit `y`, then each `x ∈ N⁺(y)`; intersect `N⁻(y)` (local) with the
/// above-`y` suffix of `N⁻(x)` (remote) — the search start buried mid-list.
pub fn e5<F: FnMut(u32, u32, u32)>(g: &DirectedGraph, sink: F) -> CostReport {
    e5_with(g, &Kernels::paper(), sink)
}

/// E5 with an explicit kernel context. Probes into the `(x, In)` row come
/// from `N⁻(y)` and are `> y`, the kept suffix.
pub fn e5_with<F: FnMut(u32, u32, u32)>(g: &DirectedGraph, k: &Kernels, mut sink: F) -> CostReport {
    let mut cost = CostReport::default();
    for y in 0..g.n() as u32 {
        let local = g.in_(y);
        for &x in g.out(y) {
            let inn = g.in_(x);
            let remote = &inn[inn.partition_point(|&w| w <= y)..];
            let stats = k.intersect(local, in_of(y), remote, in_of(x), |z| sink(x, y, z));
            charge(&mut cost, local, remote, stats);
        }
    }
    cost
}

/// E6: visit `x`, then each `z ∈ N⁻(x)`; intersect the below-`z` prefix of
/// `N⁻(x)` (local) with the above-`x` suffix of `N⁺(z)` (remote).
pub fn e6<F: FnMut(u32, u32, u32)>(g: &DirectedGraph, sink: F) -> CostReport {
    e6_with(g, &Kernels::paper(), sink)
}

/// E6 with an explicit kernel context (owners mirror E4 with the roles
/// swapped).
pub fn e6_with<F: FnMut(u32, u32, u32)>(g: &DirectedGraph, k: &Kernels, mut sink: F) -> CostReport {
    let mut cost = CostReport::default();
    for x in 0..g.n() as u32 {
        let inn = g.in_(x);
        for (i, &z) in inn.iter().enumerate() {
            let out = g.out(z);
            let (local, remote) = (&inn[..i], &out[out.partition_point(|&w| w <= x)..]);
            let stats = k.intersect(local, in_of(x), remote, out_of(z), |y| sink(x, y, z));
            charge(&mut cost, local, remote, stats);
        }
    }
    cost
}

/// Table 1 closed forms: `(local, remote)` totals for each SEI method from
/// the oriented degrees.
pub fn sei_formula(method: u8, g: &DirectedGraph) -> (u64, u64) {
    let (t1v, t2v, t3v) = (t1_formula(g), t2_formula(g), t3_formula(g));
    match method {
        1 => (t1v, t2v),
        2 => (t2v, t1v),
        3 => (t3v, t2v),
        4 => (t1v, t3v),
        5 => (t2v, t3v),
        6 => (t3v, t1v),
        _ => panic!("SEI methods are numbered 1..=6"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trilist_graph::Graph;
    use trilist_order::Relabeling;

    fn k5() -> DirectedGraph {
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        let g = Graph::from_edges(5, &edges).unwrap();
        DirectedGraph::orient(&g, &Relabeling::identity(5))
    }

    type Runner = fn(&DirectedGraph, &mut Vec<(u32, u32, u32)>) -> CostReport;

    fn runners() -> [(u8, Runner); 6] {
        [
            (1, |g, v| e1(g, |x, y, z| v.push((x, y, z)))),
            (2, |g, v| e2(g, |x, y, z| v.push((x, y, z)))),
            (3, |g, v| e3(g, |x, y, z| v.push((x, y, z)))),
            (4, |g, v| e4(g, |x, y, z| v.push((x, y, z)))),
            (5, |g, v| e5(g, |x, y, z| v.push((x, y, z)))),
            (6, |g, v| e6(g, |x, y, z| v.push((x, y, z)))),
        ]
    }

    #[test]
    fn all_six_agree_on_k5() {
        let g = k5();
        let mut expect: Vec<(u32, u32, u32)> = Vec::new();
        for x in 0..5u32 {
            for y in (x + 1)..5 {
                for z in (y + 1)..5 {
                    expect.push((x, y, z));
                }
            }
        }
        for (id, run) in runners() {
            let mut tris = Vec::new();
            let cost = run(&g, &mut tris);
            tris.sort_unstable();
            assert_eq!(tris, expect, "E{id}");
            assert_eq!(cost.triangles, 10, "E{id}");
        }
    }

    #[test]
    fn costs_match_table1_on_k5() {
        let g = k5();
        for (id, run) in runners() {
            let mut tris = Vec::new();
            let cost = run(&g, &mut tris);
            let (local, remote) = sei_formula(id, &g);
            assert_eq!(cost.local, local, "E{id} local");
            assert_eq!(cost.remote, remote, "E{id} remote");
        }
    }

    #[test]
    fn e1_cost_is_t1_plus_t2() {
        // Proposition 2 on a less symmetric graph
        let g = Graph::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (2, 4),
                (4, 5),
                (0, 5),
            ],
        )
        .unwrap();
        let dg = DirectedGraph::orient(&g, &Relabeling::identity(6));
        let cost = e1(&dg, |_, _, _| {});
        assert_eq!(cost.local, t1_formula(&dg));
        assert_eq!(cost.remote, t2_formula(&dg));
        assert_eq!(cost.operations(), t1_formula(&dg) + t2_formula(&dg));
    }

    #[test]
    fn pointer_advances_bounded_by_accounted_cost() {
        let g = k5();
        for (id, run) in runners() {
            let mut tris = Vec::new();
            let cost = run(&g, &mut tris);
            assert!(
                cost.pointer_advances <= cost.local + cost.remote,
                "E{id}: advances {} > {}",
                cost.pointer_advances,
                cost.local + cost.remote
            );
        }
    }

    #[test]
    fn triangle_free_bipartite_graph() {
        // K_{2,3} is triangle-free
        let g = Graph::from_edges(5, &[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]).unwrap();
        let dg = DirectedGraph::orient(&g, &Relabeling::identity(5));
        for (id, run) in runners() {
            let mut tris = Vec::new();
            let cost = run(&dg, &mut tris);
            assert_eq!(cost.triangles, 0, "E{id}");
            assert!(tris.is_empty(), "E{id}");
            let (local, remote) = sei_formula(id, &dg);
            assert_eq!((cost.local, cost.remote), (local, remote), "E{id}");
        }
    }
}
