//! Acyclic orientation (§2.1, steps 2–3 of the framework).
//!
//! Given an undirected graph and a relabeling, produces the directed graph
//! `G(θ_n)` over **new labels** where each edge points from the larger label
//! to the smaller: the out-neighbors `N⁺(y)` of `y` are its neighbors with
//! smaller labels, the in-neighbors `N⁻(y)` are larger. Both lists are
//! sorted ascending, so within-list rank comparisons (the `x < y`
//! transitivity pruning of the listing algorithms) are free.
//!
//! Orientation is linear, `O(n + m)`, as the framework's cost model
//! assumes of preprocessing: like the renumber-and-orient pass of Latapy's
//! compact-forward, [`DirectedGraph::orient`] writes every row already
//! sorted.

use crate::relabel::Relabeling;
use trilist_graph::{Graph, NodeId};

/// An acyclically oriented graph in double-CSR form (out-lists + in-lists),
/// indexed by new labels.
#[derive(Clone, Debug)]
pub struct DirectedGraph {
    out_offsets: Vec<usize>,
    out_neighbors: Vec<NodeId>,
    in_offsets: Vec<usize>,
    in_neighbors: Vec<NodeId>,
}

impl DirectedGraph {
    /// Orients `graph` according to `relabeling` in `O(n + m)`.
    ///
    /// One pass counts each label's out- and in-degree; a second visits
    /// the sources in ascending label order and appends each to its
    /// neighbors' out-rows (source label smaller) or in-rows (larger).
    /// Every row is thus filled in ascending order: sorted by
    /// construction, with no per-row sort.
    pub fn orient(graph: &Graph, relabeling: &Relabeling) -> Self {
        let n = graph.n();
        assert_eq!(relabeling.len(), n, "relabeling size mismatch");
        let labels = relabeling.as_slice();

        let mut out_deg = vec![0usize; n];
        let mut in_deg = vec![0usize; n];
        for u in 0..n as u32 {
            let lu = labels[u as usize] as usize;
            for &v in graph.neighbors(u) {
                let lv = labels[v as usize] as usize;
                if lv < lu {
                    out_deg[lu] += 1;
                } else {
                    in_deg[lu] += 1;
                }
            }
        }
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut in_offsets = Vec::with_capacity(n + 1);
        out_offsets.push(0);
        in_offsets.push(0);
        for v in 0..n {
            out_offsets.push(out_offsets[v] + out_deg[v]);
            in_offsets.push(in_offsets[v] + in_deg[v]);
        }
        let mut out_neighbors = vec![0 as NodeId; out_offsets[n]];
        let mut in_neighbors = vec![0 as NodeId; in_offsets[n]];
        let mut out_cursor = out_offsets.clone();
        let mut in_cursor = in_offsets.clone();
        for (l, &u) in relabeling.inverse().iter().enumerate() {
            for &v in graph.neighbors(u) {
                let lv = labels[v as usize] as usize;
                if l < lv {
                    out_neighbors[out_cursor[lv]] = l as NodeId;
                    out_cursor[lv] += 1;
                } else {
                    in_neighbors[in_cursor[lv]] = l as NodeId;
                    in_cursor[lv] += 1;
                }
            }
        }
        DirectedGraph {
            out_offsets,
            out_neighbors,
            in_offsets,
            in_neighbors,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of directed edges (= undirected `m`).
    pub fn m(&self) -> usize {
        self.out_neighbors.len()
    }

    /// Out-neighbors `N⁺(v)` (labels `< v`), sorted ascending.
    pub fn out(&self, v: NodeId) -> &[NodeId] {
        &self.out_neighbors[self.out_offsets[v as usize]..self.out_offsets[v as usize + 1]]
    }

    /// In-neighbors `N⁻(v)` (labels `> v`), sorted ascending.
    pub fn in_(&self, v: NodeId) -> &[NodeId] {
        &self.in_neighbors[self.in_offsets[v as usize]..self.in_offsets[v as usize + 1]]
    }

    /// Out-degree `X_v(θ_n)`.
    pub fn x(&self, v: NodeId) -> usize {
        self.out_offsets[v as usize + 1] - self.out_offsets[v as usize]
    }

    /// In-degree `Y_v(θ_n)`.
    pub fn y(&self, v: NodeId) -> usize {
        self.in_offsets[v as usize + 1] - self.in_offsets[v as usize]
    }

    /// Total degree `d_v(θ_n) = X_v + Y_v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.x(v) + self.y(v)
    }

    /// Tests the directed edge `u → w` by binary search on `N⁺(u)`.
    pub fn has_out_edge(&self, u: NodeId, w: NodeId) -> bool {
        self.out(u).binary_search(&w).is_ok()
    }

    /// Maximum out-degree `max_i X_i(θ_n)` — the quantity minimized by the
    /// degenerate orientation.
    pub fn max_out_degree(&self) -> usize {
        (0..self.n() as NodeId)
            .map(|v| self.x(v))
            .max()
            .unwrap_or(0)
    }

    /// All out-degrees indexed by label.
    pub fn out_degrees(&self) -> Vec<u32> {
        (0..self.n() as NodeId).map(|v| self.x(v) as u32).collect()
    }

    /// All in-degrees indexed by label.
    pub fn in_degrees(&self) -> Vec<u32> {
        (0..self.n() as NodeId).map(|v| self.y(v) as u32).collect()
    }

    /// Structural sanity check used by tests and debug assertions: every
    /// out-neighbor is smaller, every in-neighbor larger, lists sorted and
    /// mutually consistent.
    pub fn validate(&self) -> bool {
        for v in 0..self.n() as NodeId {
            let out = self.out(v);
            if !out.windows(2).all(|w| w[0] < w[1]) || out.iter().any(|&w| w >= v) {
                return false;
            }
            let inn = self.in_(v);
            if !inn.windows(2).all(|w| w[0] < w[1]) || inn.iter().any(|&w| w <= v) {
                return false;
            }
            for &w in out {
                if self.in_(w).binary_search(&v).is_err() {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0-1, 0-2, 1-2, 1-3, 2-3
        Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn identity_orientation() {
        let g = diamond();
        let d = DirectedGraph::orient(&g, &Relabeling::identity(4));
        assert!(d.validate());
        assert_eq!(d.out(0), &[] as &[u32]);
        assert_eq!(d.out(1), &[0]);
        assert_eq!(d.out(2), &[0, 1]);
        assert_eq!(d.out(3), &[1, 2]);
        assert_eq!(d.in_(0), &[1, 2]);
        assert_eq!(d.in_(3), &[] as &[u32]);
        assert_eq!(d.m(), 5);
    }

    #[test]
    fn degrees_sum_to_total() {
        let g = diamond();
        let d = DirectedGraph::orient(&g, &Relabeling::identity(4));
        let labels = Relabeling::identity(4);
        for v in 0..4u32 {
            let orig = labels.inverse()[v as usize];
            assert_eq!(d.degree(v), g.degree(orig));
        }
        let total_out: usize = (0..4u32).map(|v| d.x(v)).sum();
        let total_in: usize = (0..4u32).map(|v| d.y(v)).sum();
        assert_eq!(total_out, g.m());
        assert_eq!(total_in, g.m());
    }

    #[test]
    fn relabeled_orientation_swaps_direction() {
        let g = diamond();
        // reverse labels: node v gets label 3 - v
        let r = Relabeling::from_labels(vec![3, 2, 1, 0]);
        let d = DirectedGraph::orient(&g, &r);
        assert!(d.validate());
        // node 3 (label 0) now has everything pointing to it via in-lists
        assert_eq!(d.out(0), &[] as &[u32]);
        // label 3 is node 0; its undirected neighbors 1, 2 have labels 2, 1
        assert_eq!(d.out(3), &[1, 2]);
    }

    #[test]
    fn has_out_edge() {
        let g = diamond();
        let d = DirectedGraph::orient(&g, &Relabeling::identity(4));
        assert!(d.has_out_edge(2, 0));
        assert!(d.has_out_edge(2, 1));
        assert!(!d.has_out_edge(2, 3));
        assert!(!d.has_out_edge(0, 2));
    }

    #[test]
    fn acyclicity_is_structural() {
        // out-edges strictly decrease the label, so any path has strictly
        // decreasing labels and no cycle can exist; validate() checks this
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        use rand::Rng;
        for _ in 0..10 {
            let n = 30;
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.gen_bool(0.2) {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, &edges).unwrap();
            let r = crate::family::OrderFamily::Uniform.relabeling(&g, &mut rng);
            let d = DirectedGraph::orient(&g, &r);
            assert!(d.validate());
        }
    }

    #[test]
    fn max_out_degree() {
        let g = diamond();
        let d = DirectedGraph::orient(&g, &Relabeling::identity(4));
        assert_eq!(d.max_out_degree(), 2);
    }
}
