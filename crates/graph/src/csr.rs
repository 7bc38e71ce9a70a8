//! Undirected simple graphs in compressed sparse row (CSR) form.
//!
//! Adjacency lists are sorted ascending by node ID, matching the paper's
//! standing assumption (§2: "adjacency lists in graphs are sorted ascending
//! by node ID"). Each undirected edge `{u, v}` appears twice, once in each
//! endpoint's list.

use crate::GraphError;

/// Node identifier. Graphs with more than `u32::MAX` nodes are outside the
/// scope of this in-memory study.
pub type NodeId = u32;

/// An immutable undirected simple graph (no self-loops, no parallel edges)
/// in CSR form with ascending-sorted adjacency lists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `neighbors` for node `v`.
    offsets: Vec<usize>,
    /// Concatenated adjacency lists, each sorted ascending.
    neighbors: Vec<NodeId>,
}

impl Graph {
    /// Builds a graph from per-node adjacency lists.
    ///
    /// Lists are sorted internally; returns an error if any list contains a
    /// self-loop, a duplicate, an out-of-range ID, or if the adjacency is not
    /// symmetric.
    pub fn from_adjacency(mut adj: Vec<Vec<NodeId>>) -> Result<Self, GraphError> {
        let n = adj.len();
        for list in &mut adj {
            list.sort_unstable();
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let total: usize = adj.iter().map(Vec::len).sum();
        let mut neighbors = Vec::with_capacity(total);
        for (v, list) in adj.iter().enumerate() {
            for pair in list.windows(2) {
                if pair[0] == pair[1] {
                    return Err(GraphError::DuplicateEdge {
                        u: v as NodeId,
                        v: pair[0],
                    });
                }
            }
            for &u in list {
                if u as usize >= n {
                    return Err(GraphError::NodeOutOfRange { node: u, n });
                }
                if u as usize == v {
                    return Err(GraphError::SelfLoop { node: u });
                }
                neighbors.push(u);
            }
            offsets.push(neighbors.len());
        }
        let g = Graph { offsets, neighbors };
        g.check_symmetry()?;
        Ok(g)
    }

    /// Builds a graph from an undirected edge list in `O(n + m)`.
    ///
    /// Self-loops and duplicate edges are rejected; use
    /// [`crate::builder::GraphBuilder`] to deduplicate first. Errors take
    /// this precedence:
    ///
    /// 1. the first pass checks each edge in input order and returns the
    ///    first [`GraphError::NodeOutOfRange`] (`u` before `v`) or
    ///    [`GraphError::SelfLoop`], counting degrees as it goes;
    /// 2. after the rows are filled, a scan in node order returns
    ///    [`GraphError::DuplicateEdge`] `{ u, v }` for the first row `u`
    ///    holding neighbor `v` twice (a pair given twice in either
    ///    endpoint order).
    ///
    /// Between the two, a two-pass CSR transpose fills the rows: each
    /// endpoint is bucketed under its neighbor, then each bucket is
    /// scattered in neighbor order, so every row is written ascending and
    /// none is sorted. Each edge lands in both endpoints' rows, so the
    /// result is symmetric by construction and, unlike
    /// [`Graph::from_adjacency`], needs no symmetry pass.
    ///
    /// ```
    /// use trilist_graph::Graph;
    /// let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
    /// assert_eq!(g.m(), 3);
    /// assert!(g.has_edge(2, 0));
    /// ```
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in edges {
            if u as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: u, n });
            }
            if v as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: v, n });
            }
            if u == v {
                return Err(GraphError::SelfLoop { node: u });
            }
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        // bucket[w] holds w's neighbors in input order
        let mut cursor = offsets[..n].to_vec();
        let mut buckets = vec![0 as NodeId; offsets[n]];
        for &(u, v) in edges {
            buckets[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
            buckets[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
        }
        // appending w to each of its neighbors' rows, w ascending, fills
        // every row in ascending order
        cursor.copy_from_slice(&offsets[..n]);
        let mut neighbors = vec![0 as NodeId; offsets[n]];
        for w in 0..n {
            for &x in &buckets[offsets[w]..offsets[w + 1]] {
                neighbors[cursor[x as usize]] = w as NodeId;
                cursor[x as usize] += 1;
            }
        }
        let g = Graph { offsets, neighbors };
        for v in 0..n as NodeId {
            if let Some(pair) = g.neighbors(v).windows(2).find(|p| p[0] == p[1]) {
                return Err(GraphError::DuplicateEdge { u: v, v: pair[0] });
            }
        }
        Ok(g)
    }

    /// This graph with `adds[v]` merged into and `dels[v]` removed from
    /// each node `v`'s row: one CSR splice that copies untouched rows
    /// verbatim and merges only the touched ones.
    ///
    /// Rows beyond `adds.len()` / `dels.len()` are untouched. Because the
    /// base is already valid, only what changed is checked again, and any
    /// violation is an error rather than a malformed graph:
    ///
    /// * every patch row is strictly ascending, in range and free of
    ///   self-loops, and every spliced row is strictly ascending (an add
    ///   already in the row is a [`GraphError::DuplicateEdge`]);
    /// * every deleted neighbor is in the base row
    ///   ([`GraphError::AbsentEdge`] otherwise);
    /// * every added pair is present from both ends and every deleted pair
    ///   absent from both ends ([`GraphError::Asymmetric`] otherwise).
    ///
    /// Untouched rows keep the base's symmetry, so the result holds
    /// `2m` neighbor entries, exactly as [`Graph::from_adjacency`] would
    /// build them from the patched lists. Cost: a copy of the CSR plus
    /// `O(k log d)` for `k` patched entries — no sort and no whole-graph
    /// symmetry pass.
    ///
    /// ```
    /// use trilist_graph::Graph;
    /// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
    /// let h = g.patched(&[vec![2], vec![], vec![0]], &[vec![1], vec![0]]).unwrap();
    /// assert_eq!(h, Graph::from_edges(3, &[(0, 2), (1, 2)]).unwrap());
    /// ```
    pub fn patched(&self, adds: &[Vec<NodeId>], dels: &[Vec<NodeId>]) -> Result<Graph, GraphError> {
        let n = self.n();
        for lists in [adds, dels] {
            if let Some(v) = (n..lists.len()).find(|&v| !lists[v].is_empty()) {
                return Err(GraphError::NodeOutOfRange {
                    node: v as NodeId,
                    n,
                });
            }
        }
        let added: usize = adds.iter().map(Vec::len).sum();
        let deleted: usize = dels.iter().map(Vec::len).sum();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut neighbors = Vec::with_capacity(self.neighbors.len() + added);
        for v in 0..n {
            let base = self.neighbors(v as NodeId);
            let (add, del) = (patch_row(adds, v), patch_row(dels, v));
            if add.is_empty() && del.is_empty() {
                neighbors.extend_from_slice(base);
            } else {
                check_patch_row(v as NodeId, add, n)?;
                check_patch_row(v as NodeId, del, n)?;
                splice_row(v as NodeId, base, add, del, &mut neighbors)?;
            }
            offsets.push(neighbors.len());
        }
        let g = Graph { offsets, neighbors };
        for v in 0..n.min(adds.len().max(dels.len())) {
            for &u in patch_row(adds, v) {
                if !g.has_edge(u, v as NodeId) {
                    return Err(GraphError::Asymmetric {
                        u: v as NodeId,
                        v: u,
                    });
                }
            }
            for &u in patch_row(dels, v) {
                if g.has_edge(u, v as NodeId) {
                    return Err(GraphError::Asymmetric { u, v: v as NodeId });
                }
            }
        }
        debug_assert_eq!(g.neighbors.len(), self.neighbors.len() + added - deleted);
        Ok(g)
    }

    fn check_symmetry(&self) -> Result<(), GraphError> {
        for v in 0..self.n() as NodeId {
            for &u in self.neighbors(v) {
                if !self.has_edge(u, v) {
                    return Err(GraphError::Asymmetric { u: v, v: u });
                }
            }
        }
        Ok(())
    }

    /// Number of nodes `n`.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    pub fn m(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of node `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// All degrees, indexed by node ID.
    pub fn degrees(&self) -> Vec<u32> {
        (0..self.n() as NodeId)
            .map(|v| self.degree(v) as u32)
            .collect()
    }

    /// Neighbors of `v`, sorted ascending.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Edge-existence test via binary search: `O(log deg(u))`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n() as NodeId).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// The maximum degree, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.n() as NodeId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Sum of `deg(v)^2` over all nodes — the unoriented candidate-edge count
    /// `Θ(Σ dᵢ²)` cited in §1.1 drives vertex/edge iterators without
    /// orientation.
    pub fn degree_square_sum(&self) -> u64 {
        (0..self.n() as NodeId)
            .map(|v| (self.degree(v) as u64).pow(2))
            .sum()
    }
}

/// Node `v`'s row of a patch, empty past the end.
fn patch_row(lists: &[Vec<NodeId>], v: usize) -> &[NodeId] {
    lists.get(v).map_or(&[], Vec::as_slice)
}

/// Checks one patch row of node `v`: strictly ascending, in range, no
/// self-loop.
fn check_patch_row(v: NodeId, list: &[NodeId], n: usize) -> Result<(), GraphError> {
    for (i, &u) in list.iter().enumerate() {
        if u as usize >= n {
            return Err(GraphError::NodeOutOfRange { node: u, n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if i > 0 && list[i - 1] >= u {
            return Err(if list[i - 1] == u {
                GraphError::DuplicateEdge { u: v, v: u }
            } else {
                GraphError::UnsortedPatch { node: v }
            });
        }
    }
    Ok(())
}

/// Appends `base − del + add` (all ascending) to `out` as node `v`'s
/// row, rejecting a delete missing from `base` and an add already in it.
fn splice_row(
    v: NodeId,
    base: &[NodeId],
    add: &[NodeId],
    del: &[NodeId],
    out: &mut Vec<NodeId>,
) -> Result<(), GraphError> {
    let (mut a, mut d) = (add.iter().peekable(), del.iter().peekable());
    for &w in base {
        while let Some(&x) = a.next_if(|&&x| x < w) {
            out.push(x);
        }
        if a.peek() == Some(&&w) {
            return Err(GraphError::DuplicateEdge { u: v, v: w });
        }
        match d.peek() {
            Some(&&x) if x == w => {
                d.next();
            }
            Some(&&x) if x < w => return Err(GraphError::AbsentEdge { u: v, v: x }),
            _ => out.push(w),
        }
    }
    if let Some(&x) = d.next() {
        return Err(GraphError::AbsentEdge { u: v, v: x });
    }
    out.extend(a);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> Graph {
        // 0-1, 0-2, 1-2 (triangle), 2-3 (tail)
        Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle_plus_tail();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.degree_square_sum(), 4 + 4 + 9 + 1);
    }

    #[test]
    fn has_edge_both_directions() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(3, 2));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(1, 3));
    }

    #[test]
    fn edges_listed_once_ordered() {
        let g = triangle_plus_tail();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn rejects_self_loop() {
        let err = Graph::from_edges(2, &[(0, 0)]).unwrap_err();
        assert!(matches!(err, GraphError::SelfLoop { node: 0 }));
    }

    #[test]
    fn rejects_duplicate_edge() {
        let err = Graph::from_edges(3, &[(0, 1), (1, 0)]).unwrap_err();
        assert!(matches!(err, GraphError::DuplicateEdge { .. }));
    }

    #[test]
    fn rejects_out_of_range() {
        let err = Graph::from_edges(2, &[(0, 5)]).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 5, n: 2 }));
    }

    #[test]
    fn rejects_asymmetric_adjacency() {
        let err = Graph::from_adjacency(vec![vec![1], vec![]]).unwrap_err();
        assert!(matches!(err, GraphError::Asymmetric { .. }));
    }

    #[test]
    fn adjacency_is_sorted_even_if_input_is_not() {
        let g = Graph::from_adjacency(vec![vec![2, 1], vec![0, 2], vec![1, 0]]).unwrap();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn patched_splices_touched_rows_only() {
        let g = triangle_plus_tail();
        // drop 2-3 (emptying row 3), add 0-3 and 1-3
        let adds = vec![vec![3], vec![3], vec![], vec![0, 1]];
        let dels = vec![vec![], vec![], vec![3], vec![2]];
        let h = g.patched(&adds, &dels).unwrap();
        let expect = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]).unwrap();
        assert_eq!(h, expect);
        // short patch lists leave the remaining rows untouched
        assert_eq!(g.patched(&[], &[]).unwrap(), g);
        let h = g.patched(&[], &[vec![], vec![], vec![3], vec![2]]).unwrap();
        assert_eq!(h.neighbors(3), &[] as &[NodeId]);
        assert_eq!(h.m(), 3);
    }

    #[test]
    fn patched_rejects_malformed_patches() {
        let g = triangle_plus_tail();
        let none: Vec<Vec<NodeId>> = vec![vec![]; 4];
        let row = |v: usize, list: Vec<NodeId>| {
            let mut p = none.clone();
            p[v] = list;
            p
        };
        // added from one end only
        assert!(matches!(
            g.patched(&row(0, vec![3]), &none),
            Err(GraphError::Asymmetric { u: 0, v: 3 })
        ));
        // deleted from one end only
        assert!(matches!(
            g.patched(&none, &row(2, vec![3])),
            Err(GraphError::Asymmetric { u: 3, v: 2 })
        ));
        // an add already present, and a repeated add
        let both = |a: NodeId, b: NodeId| {
            let mut p = none.clone();
            p[a as usize].push(b);
            p[b as usize].push(a);
            p
        };
        assert!(matches!(
            g.patched(&both(0, 1), &none),
            Err(GraphError::DuplicateEdge { u: 0, v: 1 })
        ));
        assert!(matches!(
            g.patched(&row(0, vec![3, 3]), &none),
            Err(GraphError::DuplicateEdge { u: 0, v: 3 })
        ));
        // a delete of an absent edge
        assert!(matches!(
            g.patched(&none, &both(0, 3)),
            Err(GraphError::AbsentEdge { u: 0, v: 3 })
        ));
        // self-loop, out of range, unsorted
        assert!(matches!(
            g.patched(&row(1, vec![1]), &none),
            Err(GraphError::SelfLoop { node: 1 })
        ));
        assert!(matches!(
            g.patched(&row(1, vec![9]), &none),
            Err(GraphError::NodeOutOfRange { node: 9, n: 4 })
        ));
        assert!(matches!(
            g.patched(&none, &row(2, vec![9])),
            Err(GraphError::NodeOutOfRange { node: 9, n: 4 })
        ));
        let mut rows = none.clone();
        rows.push(vec![0]);
        assert!(matches!(
            g.patched(&rows, &none),
            Err(GraphError::NodeOutOfRange { node: 4, n: 4 })
        ));
        assert!(matches!(
            g.patched(&none, &row(2, vec![3, 0])),
            Err(GraphError::UnsortedPatch { node: 2 })
        ));
    }

    #[test]
    fn empty_and_trivial_graphs() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        let g = Graph::from_edges(3, &[]).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 0);
        assert_eq!(g.degree(1), 0);
    }
}
