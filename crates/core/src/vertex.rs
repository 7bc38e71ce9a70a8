//! Vertex iterators T1–T6 (§2.2, Figures 1–2).
//!
//! Each method visits a node, generates candidate directed edges between
//! pairs of its (in/out) neighbors, and verifies them against the edge
//! oracle. The six search orders differ in which triangle corner the
//! visited node plays and in the order the remaining two corners are
//! enumerated:
//!
//! | method | visited corner | candidate edge | cost (per node `i`) |
//! |---|---|---|---|
//! | T1, T4 | largest `z`  | `y → x`, `x, y ∈ N⁺(z)` | `X_i(X_i−1)/2` (eq. 7) |
//! | T2, T5 | middle `y`   | `z → x`, `z ∈ N⁻(y)`, `x ∈ N⁺(y)` | `X_i · Y_i` (eq. 8) |
//! | T3, T6 | smallest `x` | `z → y`, `y, z ∈ N⁻(x)` | `Y_i(Y_i−1)/2` (eq. 9) |
//!
//! T4–T6 swap the traversal order of the last two corners and are cost-
//! isomorphic to T1–T3 (Figure 2); they are implemented explicitly so the
//! equivalence is *tested* rather than assumed.
//!
//! Every sink receives triangles as `(x, y, z)` labels with `x < y < z`.

use crate::cost::CostReport;
use crate::oracle::EdgeOracle;
use crate::source::{DecodeScratch, ListReader};
use trilist_order::DirectedGraph;

/// T1: visit `z`, enumerate `y ∈ N⁺(z)` descending the pair rank, check
/// `y → x` for every `x ∈ N⁺(z)` with `x < y`.
pub fn t1<O: EdgeOracle, F: FnMut(u32, u32, u32)>(
    g: &DirectedGraph,
    oracle: &O,
    sink: F,
) -> CostReport {
    t1_range(
        g,
        oracle,
        0..g.n() as u32,
        &mut DecodeScratch::default(),
        sink,
    )
}

/// T1 restricted to visited nodes `z ∈ range` — the parallel partitioning
/// unit (each `z` owns a disjoint set of candidate pairs) — on either
/// adjacency layout.
pub(crate) fn t1_range<L: ListReader, O: EdgeOracle, F: FnMut(u32, u32, u32)>(
    g: &L,
    oracle: &O,
    range: std::ops::Range<u32>,
    scratch: &mut DecodeScratch,
    mut sink: F,
) -> CostReport {
    let mut cost = CostReport::default();
    let [node, ..] = &mut scratch.bufs;
    for z in range {
        let out = g.out(z, node);
        for (j, &y) in out.iter().enumerate() {
            for &x in &out[..j] {
                cost.lookups += 1;
                if oracle.has(y, x) {
                    cost.triangles += 1;
                    sink(x, y, z);
                }
            }
        }
    }
    cost
}

/// T4: like T1 but the smaller corner `x` is fixed in the outer pair loop.
pub fn t4<O: EdgeOracle, F: FnMut(u32, u32, u32)>(
    g: &DirectedGraph,
    oracle: &O,
    mut sink: F,
) -> CostReport {
    let mut cost = CostReport::default();
    for z in 0..g.n() as u32 {
        let out = g.out(z);
        for (i, &x) in out.iter().enumerate() {
            for &y in &out[i + 1..] {
                cost.lookups += 1;
                if oracle.has(y, x) {
                    cost.triangles += 1;
                    sink(x, y, z);
                }
            }
        }
    }
    cost
}

/// T2: visit the middle corner `y`, sweep all `(z, x) ∈ N⁻(y) × N⁺(y)`
/// pairs, check `z → x`.
pub fn t2<O: EdgeOracle, F: FnMut(u32, u32, u32)>(
    g: &DirectedGraph,
    oracle: &O,
    sink: F,
) -> CostReport {
    t2_range(
        g,
        oracle,
        0..g.n() as u32,
        &mut DecodeScratch::default(),
        sink,
    )
}

/// T2 restricted to visited nodes `y ∈ range`, on either adjacency layout.
pub(crate) fn t2_range<L: ListReader, O: EdgeOracle, F: FnMut(u32, u32, u32)>(
    g: &L,
    oracle: &O,
    range: std::ops::Range<u32>,
    scratch: &mut DecodeScratch,
    mut sink: F,
) -> CostReport {
    let mut cost = CostReport::default();
    let [node, aux, ..] = &mut scratch.bufs;
    for y in range {
        let inn = g.in_(y, node);
        let out = g.out(y, aux);
        for &z in inn {
            for &x in out {
                cost.lookups += 1;
                if oracle.has(z, x) {
                    cost.triangles += 1;
                    sink(x, y, z);
                }
            }
        }
    }
    cost
}

/// T5: T2 with the sweep order reversed (`x` outer, `z` inner).
pub fn t5<O: EdgeOracle, F: FnMut(u32, u32, u32)>(
    g: &DirectedGraph,
    oracle: &O,
    mut sink: F,
) -> CostReport {
    let mut cost = CostReport::default();
    for y in 0..g.n() as u32 {
        let inn = g.in_(y);
        let out = g.out(y);
        for &x in out {
            for &z in inn {
                cost.lookups += 1;
                if oracle.has(z, x) {
                    cost.triangles += 1;
                    sink(x, y, z);
                }
            }
        }
    }
    cost
}

/// T3: visit the smallest corner `x`, check `z → y` for every pair
/// `y < z ∈ N⁻(x)`.
pub fn t3<O: EdgeOracle, F: FnMut(u32, u32, u32)>(
    g: &DirectedGraph,
    oracle: &O,
    mut sink: F,
) -> CostReport {
    let mut cost = CostReport::default();
    for x in 0..g.n() as u32 {
        let inn = g.in_(x);
        for (i, &y) in inn.iter().enumerate() {
            for &z in &inn[i + 1..] {
                cost.lookups += 1;
                if oracle.has(z, y) {
                    cost.triangles += 1;
                    sink(x, y, z);
                }
            }
        }
    }
    cost
}

/// T6: like T3 but the larger corner `z` drives the outer pair loop.
pub fn t6<O: EdgeOracle, F: FnMut(u32, u32, u32)>(
    g: &DirectedGraph,
    oracle: &O,
    mut sink: F,
) -> CostReport {
    let mut cost = CostReport::default();
    for x in 0..g.n() as u32 {
        let inn = g.in_(x);
        for (j, &z) in inn.iter().enumerate() {
            for &y in &inn[..j] {
                cost.lookups += 1;
                if oracle.has(z, y) {
                    cost.triangles += 1;
                    sink(x, y, z);
                }
            }
        }
    }
    cost
}

/// Closed-form candidate counts from the oriented degrees:
/// `Σ X(X−1)/2` for T1/T4 (eq. 7).
pub fn t1_formula(g: &DirectedGraph) -> u64 {
    (0..g.n() as u32)
        .map(|v| {
            let x = g.x(v) as u64;
            x * x.saturating_sub(1) / 2
        })
        .sum()
}

/// `Σ X·Y` for T2/T5 (eq. 8).
pub fn t2_formula(g: &DirectedGraph) -> u64 {
    (0..g.n() as u32)
        .map(|v| g.x(v) as u64 * g.y(v) as u64)
        .sum()
}

/// `Σ Y(Y−1)/2` for T3/T6 (eq. 9).
pub fn t3_formula(g: &DirectedGraph) -> u64 {
    (0..g.n() as u32)
        .map(|v| {
            let y = g.y(v) as u64;
            y * y.saturating_sub(1) / 2
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::HashOracle;
    use trilist_graph::Graph;
    use trilist_order::Relabeling;

    /// K4 oriented by identity: 4 triangles.
    fn k4() -> DirectedGraph {
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                edges.push((u, v));
            }
        }
        let g = Graph::from_edges(4, &edges).unwrap();
        DirectedGraph::orient(&g, &Relabeling::identity(4))
    }

    type MethodResult = (CostReport, Vec<(u32, u32, u32)>);

    fn run_all(g: &DirectedGraph) -> Vec<MethodResult> {
        let oracle = HashOracle::build(g);
        let mut results = Vec::new();
        macro_rules! run {
            ($f:ident) => {{
                let mut tris = Vec::new();
                let cost = $f(g, &oracle, |x, y, z| tris.push((x, y, z)));
                tris.sort_unstable();
                results.push((cost, tris));
            }};
        }
        run!(t1);
        run!(t2);
        run!(t3);
        run!(t4);
        run!(t5);
        run!(t6);
        results
    }

    #[test]
    fn all_six_agree_on_k4() {
        let g = k4();
        let results = run_all(&g);
        let expect: Vec<(u32, u32, u32)> = vec![(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)];
        for (i, (cost, tris)) in results.iter().enumerate() {
            assert_eq!(tris, &expect, "method T{}", i + 1);
            assert_eq!(cost.triangles, 4, "method T{}", i + 1);
        }
    }

    #[test]
    fn costs_match_formulas_on_k4() {
        let g = k4();
        let results = run_all(&g);
        assert_eq!(results[0].0.lookups, t1_formula(&g)); // t1
        assert_eq!(results[1].0.lookups, t2_formula(&g)); // t2
        assert_eq!(results[2].0.lookups, t3_formula(&g)); // t3
        assert_eq!(results[3].0.lookups, t1_formula(&g)); // t4 ≅ t1
        assert_eq!(results[4].0.lookups, t2_formula(&g)); // t5 ≅ t2
        assert_eq!(results[5].0.lookups, t3_formula(&g)); // t6 ≅ t3
    }

    #[test]
    fn triangles_ordered_x_lt_y_lt_z() {
        let g = k4();
        let oracle = HashOracle::build(&g);
        t1(&g, &oracle, |x, y, z| {
            assert!(x < y && y < z);
        });
        t2(&g, &oracle, |x, y, z| {
            assert!(x < y && y < z);
        });
        t3(&g, &oracle, |x, y, z| {
            assert!(x < y && y < z);
        });
    }

    #[test]
    fn triangle_free_graph_costs_still_counted() {
        // C5 has no triangles but T-iterators still probe candidates
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let dg = DirectedGraph::orient(&g, &Relabeling::identity(5));
        let oracle = HashOracle::build(&dg);
        let cost = t1(&dg, &oracle, |_, _, _| panic!("no triangles in C5"));
        assert_eq!(cost.triangles, 0);
        assert_eq!(cost.lookups, t1_formula(&dg));
    }
}
