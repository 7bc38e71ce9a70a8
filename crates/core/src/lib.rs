//! # trilist-core
//!
//! The paper's primary contribution in executable form: all 18
//! triangle-listing search orders — vertex iterators T1–T6 (§2.2), scanning
//! edge iterators E1–E6 (§2.3), lookup edge iterators L1–L6 — with exact
//! operation accounting matching eqs. (7)–(9), Table 1, and Table 2, plus
//! the three-step framework (relabel → orient → list) of §2.1 and the
//! unoriented baselines of §5.3.
//!
//! ```
//! use rand::SeedableRng;
//! use trilist_core::{list_triangles, Method};
//! use trilist_graph::Graph;
//! use trilist_order::OrderFamily;
//!
//! // K4 has 4 triangles no matter the method or orientation.
//! let mut edges = Vec::new();
//! for u in 0..4u32 {
//!     for v in (u + 1)..4 {
//!         edges.push((u, v));
//!     }
//! }
//! let g = Graph::from_edges(4, &edges).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let run = list_triangles(&g, Method::E1, OrderFamily::Descending, &mut rng);
//! assert_eq!(run.cost.triangles, 4);
//! assert_eq!(run.triangles.len(), 4);
//! ```

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod baseline;
pub mod bitset;
pub mod clustering;
pub mod compressed;
pub mod cost;
pub mod delta;
pub mod hasher;
pub mod intersect;
pub mod kernel;
pub mod lei;
pub mod obs;
pub mod oracle;
pub mod parallel;
pub mod prior_art;
pub mod resilient;
pub mod sei;
pub mod sink;
pub mod source;
pub mod unrelabeled;
pub mod vertex;

pub use bitset::BitsetBlocks;
pub use clustering::{average_clustering, transitivity, triangle_count, triangle_counts};
pub use compressed::CompressedCsr;
pub use cost::CostReport;
pub use delta::{
    delta_chunk_ranges, edge_ranks, list_new_triangles_on, list_new_triangles_src, materialize,
    net_changes, normalize_batch, DeltaError, DeltaOpts, DeltaOutcome, DeltaRun, EdgeList,
    EdgeRank, OverlayView,
};
pub use kernel::{
    AdaptiveConfig, BitmapOracle, BitsetConfig, HubBitmap, KernelMeter, KernelPlan, KernelPolicy,
    Kernels, ListDir, ListingPlan,
};
pub use obs::{
    log2_bucket, ChunkSpan, Counter, CounterSnapshot, HistKind, InMemoryRecorder, MeasuredVsModel,
    MethodMeasurement, NoopRecorder, Recorder, HIST_BUCKETS,
};
pub use oracle::{EdgeOracle, HashOracle, SortedOracle};
pub use parallel::{
    par_list, par_list_with, ParallelError, ParallelOpts, ParallelRun, ThreadStats,
};
pub use prior_art::{chiba_nishizeki, forward};
pub use resilient::{
    fault_roll, list_resilient, list_resilient_src, silence_injected_panics, ActiveBudget,
    CancelToken, ChunkFault, ChunkPiece, Emit, Fault, FaultPlan, MemoryGauge, PartialRun,
    ResilientOpts, ResumeParseError, ResumePoint, RunBudget, RunOutcome, StopReason, WorkDomain,
};
pub use sink::{FirstK, PerNodeCounter, ReservoirSink, TriangleBuffer};
pub use source::GraphSource;
pub use unrelabeled::OrientedOnly;

use rand::Rng;
use trilist_graph::Graph;
use trilist_order::{DirectedGraph, OrderFamily, Relabeling};

/// Families of listing techniques, distinguished by their elementary
/// operation (Table 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// Vertex iterators: hash-table candidate checks.
    Vertex,
    /// Scanning edge iterators: two-pointer comparisons.
    Sei,
    /// Lookup edge iterators: hash-table probes.
    Lei,
}

/// The 18 search orders of §2 plus numbering within each family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are the paper's own names
pub enum Method {
    T1,
    T2,
    T3,
    T4,
    T5,
    T6,
    E1,
    E2,
    E3,
    E4,
    E5,
    E6,
    L1,
    L2,
    L3,
    L4,
    L5,
    L6,
}

impl Method {
    /// All 18 methods.
    pub const ALL: [Method; 18] = [
        Method::T1,
        Method::T2,
        Method::T3,
        Method::T4,
        Method::T5,
        Method::T6,
        Method::E1,
        Method::E2,
        Method::E3,
        Method::E4,
        Method::E5,
        Method::E6,
        Method::L1,
        Method::L2,
        Method::L3,
        Method::L4,
        Method::L5,
        Method::L6,
    ];

    /// The four non-isomorphic techniques kept after the equivalence-class
    /// pruning of §2 (Figure 5).
    pub const FUNDAMENTAL: [Method; 4] = [Method::T1, Method::T2, Method::E1, Method::E4];

    /// Which family the method belongs to.
    pub fn family(&self) -> Family {
        use Method::*;
        match self {
            T1 | T2 | T3 | T4 | T5 | T6 => Family::Vertex,
            E1 | E2 | E3 | E4 | E5 | E6 => Family::Sei,
            L1 | L2 | L3 | L4 | L5 | L6 => Family::Lei,
        }
    }

    /// The cost-minimizing orientation family for this method (§6,
    /// Corollaries 1–2): `θ_D` for the T1 class, `θ_A` for the mirror T3
    /// class, Round-Robin for the T2 class, CRR for E4/E6. Holds whenever
    /// `r(x) = g(x)/w(x)` is increasing — true for both paper weights.
    ///
    /// ```
    /// use trilist_core::Method;
    /// use trilist_order::OrderFamily;
    /// assert_eq!(Method::T1.optimal_family(), OrderFamily::Descending);
    /// assert_eq!(Method::T2.optimal_family(), OrderFamily::RoundRobin);
    /// assert_eq!(Method::E4.optimal_family(), OrderFamily::ComplementaryRoundRobin);
    /// ```
    pub fn optimal_family(&self) -> OrderFamily {
        use Method::*;
        match self {
            // T1-class candidates and E1/E2 (T1+T2): descending
            T1 | T4 | L2 | L6 | E1 | E2 => OrderFamily::Descending,
            // mirror class: ascending
            T3 | T6 | L4 | L5 | E3 | E5 => OrderFamily::Ascending,
            // T2 class: Round-Robin
            T2 | T5 | L1 | L3 => OrderFamily::RoundRobin,
            // E4 class: Complementary Round-Robin
            E4 | E6 => OrderFamily::ComplementaryRoundRobin,
        }
    }

    /// Inverse of [`Method::name`]: `"E4"` → `Some(Method::E4)`. Used by
    /// the resume-point text format and CLI flags.
    pub fn from_name(name: &str) -> Option<Method> {
        Method::ALL.into_iter().find(|m| m.name() == name)
    }

    /// Display name matching the paper (`T1`, `E4`, …).
    pub fn name(&self) -> &'static str {
        use Method::*;
        match self {
            T1 => "T1",
            T2 => "T2",
            T3 => "T3",
            T4 => "T4",
            T5 => "T5",
            T6 => "T6",
            E1 => "E1",
            E2 => "E2",
            E3 => "E3",
            E4 => "E4",
            E5 => "E5",
            E6 => "E6",
            L1 => "L1",
            L2 => "L2",
            L3 => "L3",
            L4 => "L4",
            L5 => "L5",
            L6 => "L6",
        }
    }

    /// Runs the method on an oriented graph, delivering each triangle
    /// `(x, y, z)` (labels, `x < y < z`) to `sink`.
    ///
    /// Vertex and lookup iterators build a [`HashOracle`] internally; use
    /// [`Method::run_with_oracle`] to amortize the oracle across runs.
    pub fn run<F: FnMut(u32, u32, u32)>(&self, g: &DirectedGraph, sink: F) -> CostReport {
        match self.family() {
            Family::Sei => self.run_sei(g, sink),
            Family::Vertex | Family::Lei => {
                let oracle = HashOracle::build(g);
                self.run_with_oracle(g, &oracle, sink)
            }
        }
    }

    /// Runs the method with a caller-provided edge oracle (ignored by SEI).
    pub fn run_with_oracle<O: EdgeOracle, F: FnMut(u32, u32, u32)>(
        &self,
        g: &DirectedGraph,
        oracle: &O,
        sink: F,
    ) -> CostReport {
        use Method::*;
        match self {
            T1 => vertex::t1(g, oracle, sink),
            T2 => vertex::t2(g, oracle, sink),
            T3 => vertex::t3(g, oracle, sink),
            T4 => vertex::t4(g, oracle, sink),
            T5 => vertex::t5(g, oracle, sink),
            T6 => vertex::t6(g, oracle, sink),
            E1 | E2 | E3 | E4 | E5 | E6 => self.run_sei(g, sink),
            L1 => lei::l1(g, oracle, sink),
            L2 => lei::l2(g, oracle, sink),
            L3 => lei::l3(g, oracle, sink),
            L4 => lei::l4(g, oracle, sink),
            L5 => lei::l5(g, oracle, sink),
            L6 => lei::l6(g, oracle, sink),
        }
    }

    fn run_sei<F: FnMut(u32, u32, u32)>(&self, g: &DirectedGraph, sink: F) -> CostReport {
        self.run_sei_with(g, &Kernels::paper(), sink)
    }

    fn run_sei_with<F: FnMut(u32, u32, u32)>(
        &self,
        g: &DirectedGraph,
        k: &Kernels,
        sink: F,
    ) -> CostReport {
        use Method::*;
        match self {
            E1 => sei::e1_with(g, k, sink),
            E2 => sei::e2_with(g, k, sink),
            E3 => sei::e3_with(g, k, sink),
            E4 => sei::e4_with(g, k, sink),
            E5 => sei::e5_with(g, k, sink),
            E6 => sei::e6_with(g, k, sink),
            _ => unreachable!("run_sei called on non-SEI method"),
        }
    }

    /// Runs the method under an explicit kernel context: SEI intersections
    /// go through [`Kernels::intersect`]; vertex and lookup iterators probe
    /// through a [`BitmapOracle`] over the context's out-direction hub rows
    /// when present. Every paper-cost field of the returned report is
    /// identical to [`Method::run`]'s — only `pointer_advances` and
    /// wall-clock depend on the policy.
    pub fn run_with_kernels<F: FnMut(u32, u32, u32)>(
        &self,
        g: &DirectedGraph,
        k: &Kernels,
        sink: F,
    ) -> CostReport {
        match self.family() {
            Family::Sei => self.run_sei_with(g, k, sink),
            Family::Vertex | Family::Lei => {
                let oracle = HashOracle::build(g);
                match k.out_bitmaps() {
                    Some(bits) => {
                        let wrapped = BitmapOracle::new(&oracle, bits);
                        self.run_with_oracle(g, &wrapped, sink)
                    }
                    None => self.run_with_oracle(g, &oracle, sink),
                }
            }
        }
    }

    /// Builds the kernel context for `policy` and runs the method under it.
    pub fn run_with_policy<F: FnMut(u32, u32, u32)>(
        &self,
        g: &DirectedGraph,
        policy: KernelPolicy,
        sink: F,
    ) -> CostReport {
        let k = Kernels::build(policy, g);
        self.run_with_kernels(g, &k, sink)
    }

    /// The closed-form operation count predicted from the oriented degree
    /// sequence: eq. (7)–(9) for vertex iterators, Table 1 local+remote for
    /// SEI, Table 2 lookups for LEI. Measured runs must match this exactly.
    pub fn predicted_operations(&self, g: &DirectedGraph) -> u64 {
        use Method::*;
        match self {
            T1 | T4 => vertex::t1_formula(g),
            T2 | T5 => vertex::t2_formula(g),
            T3 | T6 => vertex::t3_formula(g),
            E1 | E2 | E3 | E4 | E5 | E6 => {
                let id = self.sei_index();
                let (local, remote) = sei::sei_formula(id, g);
                local + remote
            }
            L1 | L2 | L3 | L4 | L5 | L6 => lei::lei_formula(self.lei_index(), g),
        }
    }

    fn sei_index(&self) -> u8 {
        use Method::*;
        match self {
            E1 => 1,
            E2 => 2,
            E3 => 3,
            E4 => 4,
            E5 => 5,
            E6 => 6,
            _ => panic!("not an SEI method"),
        }
    }

    fn lei_index(&self) -> u8 {
        use Method::*;
        match self {
            L1 => 1,
            L2 => 2,
            L3 => 3,
            L4 => 4,
            L5 => 5,
            L6 => 6,
            _ => panic!("not an LEI method"),
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The outcome of running the full three-step framework.
#[derive(Clone, Debug)]
pub struct ListingRun {
    /// Operation counts.
    pub cost: CostReport,
    /// Triangles in *original* node IDs, each sorted internally ascending.
    pub triangles: Vec<(u32, u32, u32)>,
    /// The relabeling used (step 1 + 2).
    pub relabeling: Relabeling,
}

/// Runs the three-step framework of §2.1: relabel by `family`, orient, and
/// list with `method`. Returns triangles translated back to original IDs.
pub fn list_triangles<R: Rng + ?Sized>(
    g: &Graph,
    method: Method,
    family: OrderFamily,
    rng: &mut R,
) -> ListingRun {
    let relabeling = family.relabeling(g, rng);
    let dg = DirectedGraph::orient(g, &relabeling);
    let inverse = relabeling.inverse();
    let mut triangles = Vec::new();
    let cost = method.run(&dg, |x, y, z| {
        let mut t = [
            inverse[x as usize],
            inverse[y as usize],
            inverse[z as usize],
        ];
        t.sort_unstable();
        triangles.push((t[0], t[1], t[2]));
    });
    ListingRun {
        cost,
        triangles,
        relabeling,
    }
}

/// Counts triangles without materializing them (same framework): a
/// listing run whose sink discards each triangle, so the report is
/// field for field the listing run's.
pub fn count_triangles<R: Rng + ?Sized>(
    g: &Graph,
    method: Method,
    family: OrderFamily,
    rng: &mut R,
) -> (u64, CostReport) {
    count_triangles_with(g, method, family, KernelPolicy::PaperFaithful, rng)
}

/// [`list_triangles`] under an explicit kernel policy. The triangle
/// multiset and every paper-cost field are policy-independent (the
/// differential suites assert this); only `pointer_advances` and wall-clock
/// change.
pub fn list_triangles_with<R: Rng + ?Sized>(
    g: &Graph,
    method: Method,
    family: OrderFamily,
    policy: KernelPolicy,
    rng: &mut R,
) -> ListingRun {
    let relabeling = family.relabeling(g, rng);
    let dg = DirectedGraph::orient(g, &relabeling);
    let inverse = relabeling.inverse();
    let mut triangles = Vec::new();
    let cost = method.run_with_policy(&dg, policy, |x, y, z| {
        let mut t = [
            inverse[x as usize],
            inverse[y as usize],
            inverse[z as usize],
        ];
        t.sort_unstable();
        triangles.push((t[0], t[1], t[2]));
    });
    ListingRun {
        cost,
        triangles,
        relabeling,
    }
}

/// [`count_triangles`] under an explicit kernel policy: listing under
/// that policy through a discarding sink.
pub fn count_triangles_with<R: Rng + ?Sized>(
    g: &Graph,
    method: Method,
    family: OrderFamily,
    policy: KernelPolicy,
    rng: &mut R,
) -> (u64, CostReport) {
    let relabeling = family.relabeling(g, rng);
    let dg = DirectedGraph::orient(g, &relabeling);
    let cost = method.run_with_policy(&dg, policy, |_, _, _| {});
    (cost.triangles, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sample_graph() -> Graph {
        Graph::from_edges(
            8,
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
                (5, 6),
                (4, 6),
                (6, 7),
                (0, 7),
                (2, 7),
            ],
        )
        .unwrap()
    }

    #[test]
    fn all_methods_agree_across_families_and_orders() {
        let g = sample_graph();
        let mut want = Vec::new();
        baseline::brute_force(&g, |x, y, z| want.push((x, y, z)));
        want.sort_unstable();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for family in OrderFamily::ALL {
            for method in Method::ALL {
                let mut run = list_triangles(&g, method, family, &mut rng);
                run.triangles.sort_unstable();
                assert_eq!(run.triangles, want, "{method} under {}", family.name());
            }
        }
    }

    #[test]
    fn measured_cost_equals_prediction() {
        let g = sample_graph();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for family in OrderFamily::ALL {
            let relabeling = family.relabeling(&g, &mut rng);
            let dg = DirectedGraph::orient(&g, &relabeling);
            for method in Method::ALL {
                let cost = method.run(&dg, |_, _, _| {});
                assert_eq!(
                    cost.operations(),
                    method.predicted_operations(&dg),
                    "{method} under {}",
                    family.name()
                );
            }
        }
    }

    #[test]
    fn proposition_2_e1_splits_into_t1_t2() {
        let g = sample_graph();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let relabeling = OrderFamily::Descending.relabeling(&g, &mut rng);
        let dg = DirectedGraph::orient(&g, &relabeling);
        let e1 = Method::E1.run(&dg, |_, _, _| {});
        let t1 = Method::T1.run(&dg, |_, _, _| {});
        let t2 = Method::T2.run(&dg, |_, _, _| {});
        assert_eq!(e1.local, t1.lookups);
        assert_eq!(e1.remote, t2.lookups);
    }

    #[test]
    fn proposition_1_reversal_swaps_t1_t3() {
        // c(T1, θ) == c(T3, θ′)
        let g = sample_graph();
        let degrees = g.degrees();
        let perm = trilist_order::round_robin(g.n());
        let fwd = DirectedGraph::orient(&g, &Relabeling::from_positions(&degrees, &perm));
        let rev = DirectedGraph::orient(&g, &Relabeling::from_positions(&degrees, &perm.reverse()));
        assert_eq!(
            Method::T1.predicted_operations(&fwd),
            Method::T3.predicted_operations(&rev)
        );
        assert_eq!(
            Method::T2.predicted_operations(&fwd),
            Method::T2.predicted_operations(&rev)
        );
    }

    #[test]
    fn fundamental_methods_listed() {
        assert_eq!(Method::FUNDAMENTAL.len(), 4);
        assert_eq!(Method::T1.family(), Family::Vertex);
        assert_eq!(Method::E4.family(), Family::Sei);
        assert_eq!(Method::L3.family(), Family::Lei);
        assert_eq!(Method::E2.to_string(), "E2");
    }

    #[test]
    fn count_matches_list() {
        let g = sample_graph();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let run = list_triangles(&g, Method::T1, OrderFamily::Uniform, &mut rng);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let (count, _) = count_triangles(&g, Method::T1, OrderFamily::Uniform, &mut rng);
        assert_eq!(run.triangles.len() as u64, count);
    }
}
