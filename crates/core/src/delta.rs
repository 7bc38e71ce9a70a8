//! The epoch-delta layer: validated edit batches over an immutable graph,
//! net-change overlays merged on the fly, and the incremental new-triangle
//! driver.
//!
//! The paper prices listing over a *static* orientation; every serving
//! scenario the ROADMAP targets mutates. This module keeps the static
//! theory honest under edits by construction:
//!
//! 1. **Edits are validated toggles.** A [`DeltaRun`] is one applied batch
//!    of inserts or removes, normalized (`u < v`, sorted, in-batch
//!    duplicates rejected) and validated against current membership
//!    (inserts must be absent, removes present). Validation makes the
//!    toggle history of any single edge strictly alternating, which is
//!    what lets [`net_changes`] recover "new at epoch `b` vs epoch `a`"
//!    from the runs in `(a, b]` alone — no materialized epoch-`a` graph
//!    needed.
//! 2. **Overlays merge on the fly.** An [`OverlayView`] is base graph +
//!    net toggles, serving membership tests and sorted merged neighbor
//!    iteration without materializing; [`materialize`] produces the exact
//!    [`Graph`] the overlay describes, so the two views are
//!    interchangeable (pinned in `tests/dynamic_props.rs`).
//! 3. **New triangles are an E1-style drive over the delta.** A triangle
//!    of epoch `b` is *new* iff it contains a net-new edge. The driver
//!    iterates net-new edges in orientation labels and intersects the
//!    endpoint lists with the shared [`Kernels`] — the same three-step
//!    discipline as the static methods — charging the paper
//!    [`CostReport`] field-for-field: `local`/`remote` are eligible list
//!    lengths, `lookups` are ownership probes against the new-edge rank
//!    set, `hash_inserts` is the one-time rank-set build. Each triangle
//!    is owned (deduplicated) by its minimal-rank new edge, so the union
//!    over edges is exact and every chunk is schedule-independent.
//!
//! The driver runs on the [`resilient`](crate::resilient) chunk runtime,
//! with the new-edge list as its work domain: budgets are checked at chunk
//! boundaries, a panicking chunk is retried (the final attempt degraded to
//! paper kernels), early stops return completed pieces plus a
//! [`WorkDomain::Delta`] [`ResumePoint`], and a resumed run merged with
//! its prefix is byte-identical to an uninterrupted one.

use crate::cost::CostReport;
use crate::kernel::{Kernels, ListDir};
use crate::obs::Recorder;
use crate::resilient::{
    schedule, ChunkPiece, ChunkRun, FaultPlan, ResumeParseError, ResumePoint, RunBudget,
    StopReason, WorkDomain, DEFAULT_MAX_ATTEMPTS,
};
use crate::sink::TriangleBuffer;
use crate::source::{with_reader, DecodeScratch, GraphSource, ListReader};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
use trilist_graph::Graph;

/// A rejected edit batch. Every variant names the offending edge, so the
/// wire layer can echo a precise error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// An edit batch must contain at least one edge.
    EmptyBatch,
    /// Self-loops are not representable.
    SelfLoop(u32),
    /// An endpoint is `>= n`.
    NodeOutOfRange {
        /// The offending endpoint.
        node: u32,
        /// The graph's node count.
        n: usize,
    },
    /// The same undirected edge appears twice in one batch (batches must
    /// be sets so their effect is order-independent).
    DuplicateInBatch(u32, u32),
    /// An insert names an edge already present.
    AlreadyPresent(u32, u32),
    /// A remove names an edge not present.
    NotPresent(u32, u32),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::EmptyBatch => f.write_str("empty edit batch"),
            DeltaError::SelfLoop(v) => write!(f, "self-loop at node {v}"),
            DeltaError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for n={n}")
            }
            DeltaError::DuplicateInBatch(u, v) => {
                write!(f, "edge ({u}, {v}) appears twice in one batch")
            }
            DeltaError::AlreadyPresent(u, v) => write!(f, "edge ({u}, {v}) already present"),
            DeltaError::NotPresent(u, v) => write!(f, "edge ({u}, {v}) not present"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// Normalizes one edit batch: maps every edge to `(min, max)`, rejects
/// self-loops and out-of-range endpoints, sorts, and rejects in-batch
/// duplicates. The result is a canonical sorted edge set — any input
/// ordering of the same edges normalizes to identical bytes, which is the
/// per-batch order-independence guarantee.
pub fn normalize_batch(n: usize, edges: &[(u32, u32)]) -> Result<Vec<(u32, u32)>, DeltaError> {
    if edges.is_empty() {
        return Err(DeltaError::EmptyBatch);
    }
    let mut out = Vec::with_capacity(edges.len());
    for &(u, v) in edges {
        if u == v {
            return Err(DeltaError::SelfLoop(u));
        }
        for w in [u, v] {
            if w as usize >= n {
                return Err(DeltaError::NodeOutOfRange { node: w, n });
            }
        }
        out.push((u.min(v), u.max(v)));
    }
    out.sort_unstable();
    for w in out.windows(2) {
        if w[0] == w[1] {
            return Err(DeltaError::DuplicateInBatch(w[0].0, w[0].1));
        }
    }
    Ok(out)
}

/// One applied edit batch: a sorted run of edge inserts and tombstones.
/// Constructed only through the validating constructors, so membership
/// alternation holds by construction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaRun {
    inserts: Vec<(u32, u32)>,
    removes: Vec<(u32, u32)>,
}

impl DeltaRun {
    /// Validates and normalizes an insert batch: every edge must be
    /// absent under `present` (the membership view of the epoch the batch
    /// applies to).
    pub fn insert_batch(
        n: usize,
        edges: &[(u32, u32)],
        present: impl Fn(u32, u32) -> bool,
    ) -> Result<Self, DeltaError> {
        let inserts = normalize_batch(n, edges)?;
        for &(u, v) in &inserts {
            if present(u, v) {
                return Err(DeltaError::AlreadyPresent(u, v));
            }
        }
        Ok(DeltaRun {
            inserts,
            removes: Vec::new(),
        })
    }

    /// Validates and normalizes a remove batch: every edge must be
    /// present.
    pub fn remove_batch(
        n: usize,
        edges: &[(u32, u32)],
        present: impl Fn(u32, u32) -> bool,
    ) -> Result<Self, DeltaError> {
        let removes = normalize_batch(n, edges)?;
        for &(u, v) in &removes {
            if !present(u, v) {
                return Err(DeltaError::NotPresent(u, v));
            }
        }
        Ok(DeltaRun {
            inserts: Vec::new(),
            removes,
        })
    }

    /// The sorted inserted edges.
    pub fn inserts(&self) -> &[(u32, u32)] {
        &self.inserts
    }

    /// The sorted removed (tombstoned) edges.
    pub fn removes(&self) -> &[(u32, u32)] {
        &self.removes
    }

    /// Total edges this run toggles.
    pub fn edits(&self) -> usize {
        self.inserts.len() + self.removes.len()
    }

    /// Approximate heap bytes held (what a memory gauge charges per run).
    pub fn bytes(&self) -> u64 {
        ((self.inserts.capacity() + self.removes.capacity()) * 8) as u64
            + std::mem::size_of::<DeltaRun>() as u64
    }
}

/// A sorted list of normalized `(min, max)` edges.
pub type EdgeList = Vec<(u32, u32)>;

/// Folds a run sequence into its net effect: `(net_new, net_removed)`,
/// both sorted ascending.
///
/// Because validation makes each edge's toggle history alternate with
/// actual membership, the first and last toggles inside the window are
/// enough: first-toggle `insert` means the edge was absent before the
/// window, last-toggle `insert` means it is present after — so
/// `(insert, insert)` is net-new and `(remove, remove)` net-removed, while
/// mixed pairs are transient (absent→absent) or a remove/re-add of an edge
/// present at both ends.
pub fn net_changes<'a, I>(runs: I) -> (EdgeList, EdgeList)
where
    I: IntoIterator<Item = &'a DeltaRun>,
{
    // edge -> (first toggle is insert, last toggle is insert)
    let mut toggles: BTreeMap<(u32, u32), (bool, bool)> = BTreeMap::new();
    for run in runs {
        for (edges, is_insert) in [(&run.inserts, true), (&run.removes, false)] {
            for &e in edges.iter() {
                toggles
                    .entry(e)
                    .and_modify(|t| t.1 = is_insert)
                    .or_insert((is_insert, is_insert));
            }
        }
    }
    let mut net_new = Vec::new();
    let mut net_removed = Vec::new();
    for (e, (first, last)) in toggles {
        match (first, last) {
            (true, true) => net_new.push(e),
            (false, false) => net_removed.push(e),
            _ => {}
        }
    }
    (net_new, net_removed)
}

/// Base graph + net toggles, merged on the fly: membership tests and
/// sorted neighbor iteration over the overlaid graph without
/// materializing it.
pub struct OverlayView<'a> {
    base: &'a Graph,
    /// Per-node sorted added neighbors.
    adds: Vec<Vec<u32>>,
    /// Per-node sorted removed neighbors.
    dels: Vec<Vec<u32>>,
    m: usize,
}

impl<'a> OverlayView<'a> {
    /// An overlay of `runs` (in application order) over `base`.
    pub fn new<I>(base: &'a Graph, runs: I) -> Self
    where
        I: IntoIterator<Item = &'a DeltaRun>,
    {
        let (net_new, net_removed) = net_changes(runs);
        let mut adds = vec![Vec::new(); base.n()];
        let mut dels = vec![Vec::new(); base.n()];
        let m = base.m() + net_new.len() - net_removed.len();
        for &(u, v) in &net_new {
            adds[u as usize].push(v);
            adds[v as usize].push(u);
        }
        for &(u, v) in &net_removed {
            dels[u as usize].push(v);
            dels[v as usize].push(u);
        }
        // net_changes yields edges sorted by (u, v); per-node lists built
        // from it need one more sort because a node collects both ends.
        for list in adds.iter_mut().chain(dels.iter_mut()) {
            list.sort_unstable();
        }
        OverlayView {
            base,
            adds,
            dels,
            m,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.base.n()
    }

    /// Number of undirected edges after the overlay.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Edge-existence under the overlay: tombstones win over the base,
    /// inserts over absence.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        if self.dels[u as usize].binary_search(&v).is_ok() {
            return false;
        }
        if self.adds[u as usize].binary_search(&v).is_ok() {
            return true;
        }
        self.base.has_edge(u, v)
    }

    /// Streams the overlaid neighbors of `v` ascending: the base list
    /// minus tombstones, merged with inserts — the on-the-fly counterpart
    /// of the materialized list.
    pub fn for_each_neighbor<F: FnMut(u32)>(&self, v: u32, mut f: F) {
        let base = self.base.neighbors(v);
        let adds = &self.adds[v as usize];
        let dels = &self.dels[v as usize];
        let (mut i, mut j) = (0, 0);
        while i < base.len() || j < adds.len() {
            let take_base = j >= adds.len() || (i < base.len() && base[i] < adds[j]);
            if take_base {
                let w = base[i];
                i += 1;
                if dels.binary_search(&w).is_err() {
                    f(w);
                }
            } else {
                f(adds[j]);
                j += 1;
            }
        }
    }

    /// Materializes the overlay into an owned [`Graph`] — byte-identical
    /// adjacency to what [`OverlayView::for_each_neighbor`] streams. One
    /// [`Graph::patched`] splice: untouched rows are copied from the base,
    /// only rows an edit touches are merged and re-checked, so the cost is
    /// a CSR copy plus work proportional to the net window, not a
    /// whole-graph sort and symmetry pass.
    pub fn to_graph(&self) -> Graph {
        let g = self
            .base
            .patched(&self.adds, &self.dels)
            .expect("overlay toggles are validated");
        debug_assert_eq!(g.m(), self.m);
        g
    }
}

/// Materializes `base` + `runs` into an owned graph (see [`OverlayView`]
/// and [`OverlayView::to_graph`]): `O(n + m)` copy plus `O(k log k)` for
/// `k` toggles in the runs.
pub fn materialize<'a, I>(base: &'a Graph, runs: I) -> Graph
where
    I: IntoIterator<Item = &'a DeltaRun>,
{
    OverlayView::new(base, runs).to_graph()
}

// ---------------------------------------------------------------------------
// The incremental new-triangle driver.
// ---------------------------------------------------------------------------

/// New-edge ownership index: label pair `(lo, hi)` → rank (its index in
/// the sorted new-edge list). A triangle is reported by the minimal-rank
/// new edge it contains.
pub type EdgeRank = HashMap<(u32, u32), u32>;

/// Builds the rank index over the sorted new-edge list.
pub fn edge_ranks(edges: &[(u32, u32)]) -> EdgeRank {
    edges
        .iter()
        .enumerate()
        .map(|(i, &e)| (e, i as u32))
        .collect()
}

/// Lists new triangles for the new edges in `range` (indices into
/// `edges`), streaming label triples `(x, y, z)`, `x < y < z`, to `sink`.
///
/// `edges` are net-new undirected edges as *orientation label* pairs
/// `(lo, hi)`, `lo < hi`, sorted ascending; `ranks` is
/// [`edge_ranks`]`(edges)`. For the edge `(lo, hi)` the third vertex `w`
/// of any triangle falls in one of three label shapes, each one kernel
/// intersection of two *full* endpoint lists (full lists make every
/// [`SideOwner`](crate::kernel::SideOwner) probe exact):
///
/// | shape | `w` | intersection | triple |
/// |---|---|---|---|
/// | A | `w < lo` | `N⁺(lo) ∩ N⁺(hi)` | `(w, lo, hi)` |
/// | B | `lo < w < hi` | `N⁻(lo) ∩ N⁺(hi)` | `(lo, w, hi)` |
/// | C | `hi < w` | `N⁻(lo) ∩ N⁻(hi)` | `(lo, hi, w)` |
///
/// Paper accounting, field-for-field: `local`/`remote` charge the two
/// eligible list lengths per intersection (the SEI convention);
/// `pointer_advances` accumulates kernel scan work; every candidate
/// triangle probes the rank set for its two *other* edges
/// (`lookups += 2`) and counts toward `triangles` only when the current
/// edge has minimal rank; `hash_inserts` charges the one-time rank-set
/// build (`edges.len()`) on the chunk containing index 0, so a chunked or
/// resumed run sums to exactly one build.
pub(crate) fn new_triangles_range<L: ListReader, F: FnMut(u32, u32, u32)>(
    g: &L,
    kernels: &Kernels,
    edges: &[(u32, u32)],
    ranks: &EdgeRank,
    range: Range<u32>,
    scratch: &mut DecodeScratch,
    mut sink: F,
) -> CostReport {
    let mut cost = CostReport::default();
    if range.start == 0 && range.end > 0 {
        cost.hash_inserts += edges.len() as u64;
    }
    for idx in range {
        let (lo, hi) = edges[idx as usize];
        let rank = idx;
        let [b0, b1, b2, b3] = &mut scratch.bufs;
        let (out_lo, in_lo) = (g.out(lo, b0), g.in_(lo, b1));
        let (out_hi, in_hi) = (g.out(hi, b2), g.in_(hi, b3));
        // Ownership test shared by the three shapes: probe the triangle's
        // two other edges in the rank set; the current edge owns the
        // triangle iff neither probe finds a smaller rank. Both probes
        // always run so `lookups` is schedule- and outcome-independent.
        let owned = |cost: &mut CostReport, e1: (u32, u32), e2: (u32, u32)| {
            cost.lookups += 2;
            let r1 = ranks.get(&e1).copied();
            let r2 = ranks.get(&e2).copied();
            r1.is_none_or(|r| r > rank) && r2.is_none_or(|r| r > rank)
        };
        // Shape A: w < lo < hi.
        cost.local += out_lo.len() as u64;
        cost.remote += out_hi.len() as u64;
        let st = kernels.intersect(
            out_lo,
            Some((lo, ListDir::Out)),
            out_hi,
            Some((hi, ListDir::Out)),
            |w| {
                if owned(&mut cost, (w, lo), (w, hi)) {
                    cost.triangles += 1;
                    sink(w, lo, hi);
                }
            },
        );
        cost.pointer_advances += st.advances;
        // Shape B: lo < w < hi.
        cost.local += in_lo.len() as u64;
        cost.remote += out_hi.len() as u64;
        let st = kernels.intersect(
            in_lo,
            Some((lo, ListDir::In)),
            out_hi,
            Some((hi, ListDir::Out)),
            |w| {
                if owned(&mut cost, (lo, w), (w, hi)) {
                    cost.triangles += 1;
                    sink(lo, w, hi);
                }
            },
        );
        cost.pointer_advances += st.advances;
        // Shape C: lo < hi < w.
        cost.local += in_lo.len() as u64;
        cost.remote += in_hi.len() as u64;
        let st = kernels.intersect(
            in_lo,
            Some((lo, ListDir::In)),
            in_hi,
            Some((hi, ListDir::In)),
            |w| {
                if owned(&mut cost, (lo, w), (hi, w)) {
                    cost.triangles += 1;
                    sink(lo, hi, w);
                }
            },
        );
        cost.pointer_advances += st.advances;
    }
    cost
}

/// Splits the new-edge list into contiguous chunks of roughly
/// `target_ops` predicted intersection work each (the sum of the four
/// endpoint degrees per edge — both layouts answer degrees in O(1), so
/// chunk boundaries are layout-independent).
pub fn delta_chunk_ranges(
    src: GraphSource<'_>,
    edges: &[(u32, u32)],
    target_ops: u64,
) -> Vec<Range<u32>> {
    let target = target_ops.max(1);
    let mut out = Vec::new();
    let mut start = 0u32;
    let mut acc = 0u64;
    for (i, &(lo, hi)) in edges.iter().enumerate() {
        acc += (src.x(lo) + src.y(lo) + src.x(hi) + src.y(hi) + 2) as u64;
        if acc >= target {
            out.push(start..(i as u32 + 1));
            start = i as u32 + 1;
            acc = 0;
        }
    }
    if (start as usize) < edges.len() {
        out.push(start..edges.len() as u32);
    }
    out
}

/// Limits and shape for one delta run.
#[derive(Clone)]
pub struct DeltaOpts {
    /// Worker threads (0 and 1 both mean sequential), capped at the run's
    /// chunk count.
    pub threads: usize,
    /// Predicted intersection ops per chunk (see [`delta_chunk_ranges`]).
    pub target_chunk_ops: u64,
    /// Budget checked at chunk boundaries.
    pub budget: RunBudget,
    /// Observability sink, as
    /// [`ResilientOpts::recorder`](crate::ResilientOpts::recorder): `None`
    /// is the no-op recorder, and recording never changes results.
    pub recorder: Option<Arc<dyn Recorder>>,
    /// Deterministic fault injection, as
    /// [`ResilientOpts::fault_plan`](crate::ResilientOpts::fault_plan).
    pub fault_plan: Option<FaultPlan>,
}

impl Default for DeltaOpts {
    fn default() -> Self {
        DeltaOpts {
            threads: 1,
            target_chunk_ops: 1024,
            budget: RunBudget::unlimited(),
            recorder: None,
            fault_plan: None,
        }
    }
}

/// Outcome of a (possibly budgeted) delta run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaOutcome {
    /// Every chunk completed.
    Complete {
        /// Per-chunk outputs, ascending by chunk index.
        pieces: Vec<ChunkPiece>,
    },
    /// A budget or a chunk that failed every attempt stopped the run at a
    /// chunk boundary.
    Partial {
        /// Completed chunks, ascending by chunk index.
        pieces: Vec<ChunkPiece>,
        /// Unvisited ranges to replay (a [`WorkDomain::Delta`] token).
        resume: ResumePoint,
        /// Why the run stopped.
        reason: StopReason,
    },
}

impl DeltaOutcome {
    /// Completed pieces, ascending by chunk index.
    pub fn pieces(&self) -> &[ChunkPiece] {
        match self {
            DeltaOutcome::Complete { pieces } | DeltaOutcome::Partial { pieces, .. } => pieces,
        }
    }

    /// Aggregate cost of the completed pieces, merged in chunk order.
    pub fn cost(&self) -> CostReport {
        let mut total = CostReport::default();
        for p in self.pieces() {
            total.accumulate(&p.cost);
        }
        total
    }

    /// Label triples of the completed pieces, concatenated in chunk order.
    pub fn triangles(&self) -> Vec<(u32, u32, u32)> {
        self.pieces()
            .iter()
            .flat_map(|p| p.triangles.iter().copied())
            .collect()
    }
}

/// Lists all new triangles for `edges` (net-new label pairs, sorted)
/// under `opts`, chunked and budgeted. The complete triangle multiset and
/// the merged [`CostReport`] are independent of `threads`,
/// `target_chunk_ops`, and layout — the dynamic differential suite pins
/// all three.
pub fn list_new_triangles_src(
    src: GraphSource<'_>,
    kernels: &Kernels,
    edges: &[(u32, u32)],
    opts: &DeltaOpts,
) -> DeltaOutcome {
    let jobs: Vec<(u32, Range<u32>)> = delta_chunk_ranges(src, edges, opts.target_chunk_ops)
        .into_iter()
        .enumerate()
        .map(|(i, r)| (i as u32, r))
        .collect();
    run_delta(src, kernels, edges, &jobs, opts)
}

impl ResumePoint {
    /// Replays the unvisited ranges of a delta run against the same graph
    /// and new-edge list. The token must be a [`WorkDomain::Delta`] one
    /// whose shape pins (`n`, `edges`) match, or it is rejected.
    pub fn run_new_triangles_src(
        &self,
        src: GraphSource<'_>,
        kernels: &Kernels,
        edges: &[(u32, u32)],
        opts: &DeltaOpts,
    ) -> Result<DeltaOutcome, ResumeParseError> {
        self.fits(&delta_shape(src, edges))
            .map_err(ResumeParseError)?;
        Ok(run_delta(src, kernels, edges, self.ranges(), opts))
    }
}

fn delta_shape(src: GraphSource<'_>, edges: &[(u32, u32)]) -> ResumePoint {
    ResumePoint::shape(WorkDomain::Delta, src.n(), edges.len() as u64)
}

/// Runs delta `jobs` on the shared chunk runtime.
fn run_delta(
    src: GraphSource<'_>,
    kernels: &Kernels,
    edges: &[(u32, u32)],
    jobs: &[(u32, Range<u32>)],
    opts: &DeltaOpts,
) -> DeltaOutcome {
    let run = ChunkRun::start(
        delta_shape(src, edges),
        kernels.policy().name(),
        &opts.budget,
        opts.recorder.as_deref(),
        opts.fault_plan.as_ref(),
        DEFAULT_MAX_ATTEMPTS,
    );
    let started = Instant::now();
    // The rank set is the run's dominant transient allocation.
    run.budget.add_memory(edges.len() as u64 * 16);
    let ranks = edge_ranks(edges);
    run.setup_span(0, started);
    let done = schedule(
        &run,
        jobs,
        opts.threads,
        Vec::new(),
        // each worker runs a clone of the caller's context that shares its
        // structures and carries only the worker's own meter
        &|meter| (kernels.for_worker(meter), DecodeScratch::default()),
        &|(kernels, scratch), range, degraded| {
            let paper;
            let kernels = if degraded {
                paper = Kernels::paper();
                &paper
            } else {
                &*kernels
            };
            let mut tris = TriangleBuffer::new();
            let sink = |x, y, z| tris.push(x, y, z);
            let cost = with_reader!(src, |g| {
                new_triangles_range(g, kernels, edges, &ranks, range, scratch, sink)
            });
            (cost, tris)
        },
    );
    match done.stop {
        None => DeltaOutcome::Complete {
            pieces: done.pieces,
        },
        Some((reason, resume)) => DeltaOutcome::Partial {
            pieces: done.pieces,
            resume,
            reason,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelPolicy, Kernels};
    use crate::Method;
    use rand::{Rng, SeedableRng};
    use trilist_order::{DirectedGraph, OrderFamily};

    fn gnp(n: usize, p: f64, seed: u64) -> Graph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.gen_bool(p) {
                    edges.push((u, v));
                }
            }
        }
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn normalize_rejects_and_canonicalizes() {
        assert_eq!(normalize_batch(4, &[]), Err(DeltaError::EmptyBatch));
        assert_eq!(normalize_batch(4, &[(1, 1)]), Err(DeltaError::SelfLoop(1)));
        assert!(matches!(
            normalize_batch(4, &[(0, 9)]),
            Err(DeltaError::NodeOutOfRange { node: 9, n: 4 })
        ));
        assert_eq!(
            normalize_batch(4, &[(2, 1), (1, 2)]),
            Err(DeltaError::DuplicateInBatch(1, 2))
        );
        assert_eq!(
            normalize_batch(4, &[(3, 0), (2, 1)]).unwrap(),
            vec![(0, 3), (1, 2)]
        );
    }

    #[test]
    fn validated_batches_and_net_changes() {
        let g = gnp(16, 0.3, 7);
        let present = |u: u32, v: u32| g.has_edge(u, v);
        let absent: Vec<(u32, u32)> = (0..16u32)
            .flat_map(|u| ((u + 1)..16).map(move |v| (u, v)))
            .filter(|&(u, v)| !g.has_edge(u, v))
            .take(4)
            .collect();
        let ins = DeltaRun::insert_batch(16, &absent, present).unwrap();
        assert_eq!(ins.inserts(), &absent[..]);
        // Re-inserting a base edge is rejected.
        let some_edge = g.edges().next().unwrap();
        assert_eq!(
            DeltaRun::insert_batch(16, &[some_edge], present),
            Err(DeltaError::AlreadyPresent(some_edge.0, some_edge.1))
        );
        // Remove one inserted edge again: net effect is only 3 new edges.
        let view = OverlayView::new(&g, std::iter::once(&ins));
        let rem = DeltaRun::remove_batch(16, &absent[..1], |u, v| view.has_edge(u, v)).unwrap();
        let runs = [ins.clone(), rem];
        let (net_new, net_removed) = net_changes(runs.iter());
        assert_eq!(net_new, absent[1..].to_vec());
        assert!(net_removed.is_empty());
        // Remove a base edge, reinsert it: no net change.
        let rem = DeltaRun::remove_batch(16, &[some_edge], present).unwrap();
        let reins = DeltaRun::insert_batch(16, &[some_edge], |_, _| false).unwrap();
        let (nn, nr) = net_changes([&rem, &reins]);
        assert!(nn.is_empty() && nr.is_empty());
    }

    #[test]
    fn overlay_matches_materialized() {
        let g = gnp(24, 0.25, 11);
        let present = |u: u32, v: u32| g.has_edge(u, v);
        let to_add: Vec<(u32, u32)> = (0..24u32)
            .flat_map(|u| ((u + 1)..24).map(move |v| (u, v)))
            .filter(|&(u, v)| !g.has_edge(u, v))
            .step_by(5)
            .take(6)
            .collect();
        let to_del: Vec<(u32, u32)> = g.edges().step_by(3).take(5).collect();
        let ins = DeltaRun::insert_batch(24, &to_add, present).unwrap();
        let rem = DeltaRun::remove_batch(24, &to_del, present).unwrap();
        let runs = [ins, rem];
        let view = OverlayView::new(&g, runs.iter());
        let mat = materialize(&g, runs.iter());
        assert_eq!(view.n(), mat.n());
        assert_eq!(view.m(), mat.m());
        for u in 0..24u32 {
            let mut streamed = Vec::new();
            view.for_each_neighbor(u, |w| streamed.push(w));
            assert_eq!(streamed, mat.neighbors(u), "node {u}");
            for v in 0..24u32 {
                if u != v {
                    assert_eq!(view.has_edge(u, v), mat.has_edge(u, v));
                }
            }
        }
    }

    #[test]
    fn new_triangles_match_scratch_difference() {
        for seed in [3u64, 19, 42] {
            let base = gnp(40, 0.2, seed);
            let present = |u: u32, v: u32| base.has_edge(u, v);
            let to_add: Vec<(u32, u32)> = (0..40u32)
                .flat_map(|u| ((u + 1)..40).map(move |v| (u, v)))
                .filter(|&(u, v)| !base.has_edge(u, v))
                .step_by(7)
                .take(12)
                .collect();
            let runs = [DeltaRun::insert_batch(40, &to_add, present).unwrap()];
            let after = materialize(&base, runs.iter());
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let relab = OrderFamily::Descending.relabeling(&after, &mut rng);
            let dg = DirectedGraph::orient(&after, &relab);
            let k = Kernels::build_src(KernelPolicy::PaperFaithful, GraphSource::Plain(&dg));
            let (net_new, _) = net_changes(runs.iter());
            let mut by_label: Vec<(u32, u32)> = net_new
                .iter()
                .map(|&(u, v)| {
                    let (a, b) = (relab.label(u), relab.label(v));
                    (a.min(b), a.max(b))
                })
                .collect();
            by_label.sort_unstable();
            let out = list_new_triangles_src(
                GraphSource::Plain(&dg),
                &k,
                &by_label,
                &DeltaOpts::default(),
            );
            let mut got = out.triangles();
            got.sort_unstable();
            // Scratch: triangles of `after` minus triangles of `base`,
            // in epoch-b labels.
            let mut rng2 = rand::rngs::StdRng::seed_from_u64(seed ^ 0xA5);
            let all_after =
                crate::list_triangles(&after, Method::E1, OrderFamily::Descending, &mut rng2);
            let mut expect: Vec<(u32, u32, u32)> = all_after
                .triangles
                .iter()
                .filter(|t| {
                    let e = [(t.0, t.1), (t.0, t.2), (t.1, t.2)];
                    e.iter().any(|&(u, v)| !base.has_edge(u, v))
                })
                .map(|t| {
                    let mut l = [relab.label(t.0), relab.label(t.1), relab.label(t.2)];
                    l.sort_unstable();
                    (l[0], l[1], l[2])
                })
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect, "seed {seed}");
        }
    }

    #[test]
    fn chunking_and_resume_are_invisible() {
        let base = gnp(36, 0.25, 5);
        let present = |u: u32, v: u32| base.has_edge(u, v);
        let to_add: Vec<(u32, u32)> = (0..36u32)
            .flat_map(|u| ((u + 1)..36).map(move |v| (u, v)))
            .filter(|&(u, v)| !base.has_edge(u, v))
            .step_by(4)
            .take(10)
            .collect();
        let runs = [DeltaRun::insert_batch(36, &to_add, present).unwrap()];
        let after = materialize(&base, runs.iter());
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let relab = OrderFamily::Descending.relabeling(&after, &mut rng);
        let dg = DirectedGraph::orient(&after, &relab);
        let k = Kernels::build_src(KernelPolicy::PaperFaithful, GraphSource::Plain(&dg));
        let (net_new, _) = net_changes(runs.iter());
        let mut by_label: Vec<(u32, u32)> = net_new
            .iter()
            .map(|&(u, v)| {
                let (a, b) = (relab.label(u), relab.label(v));
                (a.min(b), a.max(b))
            })
            .collect();
        by_label.sort_unstable();
        let src = GraphSource::Plain(&dg);
        let baseline = list_new_triangles_src(src, &k, &by_label, &DeltaOpts::default());
        for threads in 1..=4 {
            for target in [1, 8, 1 << 20] {
                let opts = DeltaOpts {
                    threads,
                    target_chunk_ops: target,
                    ..DeltaOpts::default()
                };
                let out = list_new_triangles_src(src, &k, &by_label, &opts);
                assert_eq!(out.triangles(), baseline.triangles());
                assert_eq!(out.cost(), baseline.cost(), "t={threads} ops={target}");
            }
        }
        // Cancel immediately: everything lands in the resume point; the
        // replayed run merged with the (empty) prefix is byte-identical.
        let token = crate::resilient::CancelToken::new();
        token.cancel();
        let opts = DeltaOpts {
            threads: 1,
            target_chunk_ops: 8,
            budget: RunBudget::unlimited().with_cancel(token),
            ..DeltaOpts::default()
        };
        let out = list_new_triangles_src(src, &k, &by_label, &opts);
        let DeltaOutcome::Partial {
            pieces,
            resume,
            reason,
        } = out
        else {
            panic!("cancelled run must be partial");
        };
        assert!(pieces.is_empty());
        assert_eq!(reason, StopReason::Cancelled);
        let reparsed: ResumePoint = resume.to_string().parse().unwrap();
        assert_eq!(reparsed, resume);
        let done = reparsed
            .run_new_triangles_src(src, &k, &by_label, &DeltaOpts::default())
            .unwrap();
        assert_eq!(done.triangles(), baseline.triangles());
        assert_eq!(done.cost(), baseline.cost());
    }

    #[test]
    fn resume_token_rejects_mismatches() {
        assert!("trilist-resume v1 delta n=4 edges=2 0:0-2"
            .parse::<ResumePoint>()
            .is_ok());
        for bad in [
            "trilist-resume v1 n=4 edges=2 0:0-2",
            "trilist-resume v2 delta n=4 edges=2 0:0-2",
            "trilist-resume v1 delta edges=2 0:0-2",
            "trilist-resume v1 delta n=4 edges=2",
            "trilist-resume v1 delta n=4 edges=2 0:3-2",
            "trilist-resume v1 delta n=4 edges=2 0:0-9",
        ] {
            assert!(bad.parse::<ResumePoint>().is_err(), "{bad}");
        }
    }
}
