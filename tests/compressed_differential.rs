//! Differential suite for the delta/varint-compressed CSR layout.
//!
//! Two contracts, both stronger than "same triangles":
//!
//! 1. **Round-trip** (proptest): `CompressedCsr::compress` followed by
//!    any decode surface — `decode_out_into` / `decode_in_into`, the
//!    streaming iterators, the O(1) stored degrees — reproduces the
//!    plain `DirectedGraph` exactly.
//! 2. **Layout differential**: for every fundamental method (T1, T2,
//!    E1, E4), every kernel policy (paper-faithful, adaptive, bitset —
//!    including configs that force each bitset dispatch path), and
//!    1–4 worker threads, running the resilient runtime over the
//!    compressed source yields the *byte-identical* `CostReport`
//!    (every field, `pointer_advances` included) and the identical
//!    triangle sequence as the plain layout, and the same kernel-route
//!    tallies. This pins the label-free routing contract:
//!    `Kernels::intersect_remote` must mirror the labeled dispatch
//!    decision-for-decision, or advances and tallies diverge.

use proptest::prelude::*;
use rand::SeedableRng;
use std::sync::Arc;
use trilist::core::{
    list_resilient_src, AdaptiveConfig, BitsetConfig, CompressedCsr, Counter, GraphSource,
    HashOracle, InMemoryRecorder, KernelPolicy, Kernels, Method, ParallelOpts, ParallelRun,
    ResilientOpts,
};
use trilist::graph::dist::{sample_degree_sequence, DiscretePareto, Truncated};
use trilist::graph::gen::{GraphGenerator, ResidualSampler};
use trilist::graph::Graph;
use trilist::order::{DirectedGraph, OrderFamily};

/// A random simple graph as an edge mask over `n ≤ 28` nodes.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..28).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec(any::<bool>(), max_edges).prop_map(move |mask| {
            let mut edges = Vec::new();
            let mut k = 0;
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if mask[k] {
                        edges.push((u, v));
                    }
                    k += 1;
                }
            }
            Graph::from_edges(n, &edges).expect("mask yields a simple graph")
        })
    })
}

fn assert_round_trip(dg: &DirectedGraph) {
    let c = CompressedCsr::compress(dg);
    assert_eq!(c.n(), dg.n());
    assert_eq!(c.m(), dg.m());
    let mut buf = Vec::new();
    for v in 0..dg.n() as u32 {
        assert_eq!(c.x(v), dg.out(v).len(), "x({v})");
        assert_eq!(c.y(v), dg.in_(v).len(), "y({v})");
        c.decode_out_into(v, &mut buf);
        assert_eq!(buf, dg.out(v), "out({v}) decode");
        let streamed: Vec<u32> = c.out_iter(v).collect();
        assert_eq!(streamed, dg.out(v), "out({v}) iter");
        c.decode_in_into(v, &mut buf);
        assert_eq!(buf, dg.in_(v), "in({v}) decode");
        let streamed: Vec<u32> = c.in_iter(v).collect();
        assert_eq!(streamed, dg.in_(v), "in({v}) iter");
    }
}

/// Kernel policies swept by the layout differential: the three shipped
/// policies plus bitset configs that force each dispatch path (all
/// blocks, all fallback).
fn policies() -> Vec<KernelPolicy> {
    vec![
        KernelPolicy::PaperFaithful,
        KernelPolicy::adaptive(),
        KernelPolicy::bitset(),
        // every eligible pair takes the block path
        KernelPolicy::Bitset(BitsetConfig {
            min_short: 1,
            min_density: 0,
            fallback: AdaptiveConfig::default(),
        }),
        // gates unreachable: bitset policy running purely on its fallback
        KernelPolicy::Bitset(BitsetConfig {
            min_short: u32::MAX,
            min_density: u32::MAX,
            fallback: AdaptiveConfig::default(),
        }),
    ]
}

/// The kernel-route counters: which kernel each intersection took and the
/// work inside it. Schedule-dependent counters (steals) are left out.
const ROUTE_COUNTERS: [Counter; 9] = [
    Counter::IntersectPaper,
    Counter::IntersectBranchless,
    Counter::IntersectGallop,
    Counter::IntersectBitmap,
    Counter::IntersectBitset,
    Counter::IntersectStamp,
    Counter::GallopSteps,
    Counter::BitmapProbes,
    Counter::BitsetBlockSteps,
];

/// One resilient run with a recorder attached: the run plus its
/// kernel-route tallies, in `ROUTE_COUNTERS` order.
fn run(
    src: GraphSource<'_>,
    dg: &DirectedGraph,
    method: Method,
    policy: KernelPolicy,
    threads: usize,
) -> (ParallelRun, Vec<u64>) {
    let recorder = Arc::new(InMemoryRecorder::new());
    let opts = ResilientOpts {
        parallel: ParallelOpts {
            threads,
            policy,
            ..ParallelOpts::default()
        },
        kernels: Some(Arc::new(Kernels::build_src(policy, src))),
        oracle: matches!(method, Method::T1 | Method::T2).then(|| Arc::new(HashOracle::build(dg))),
        recorder: Some(recorder.clone()),
        ..ResilientOpts::default()
    };
    let run = list_resilient_src(src, method, &opts)
        .expect("fundamental method")
        .complete()
        .expect("unlimited budget");
    let routes = ROUTE_COUNTERS.map(|c| recorder.counter(c)).to_vec();
    (run, routes)
}

/// The full layout differential on one oriented graph: every fundamental
/// method × kernel policy × thread count, compressed vs plain.
fn assert_layouts_agree(dg: &DirectedGraph) {
    let csr = CompressedCsr::compress(dg);
    for method in Method::FUNDAMENTAL {
        for policy in policies() {
            let (plain, plain_routes) = run(GraphSource::Plain(dg), dg, method, policy, 1);
            for threads in 1..=4 {
                let (compressed, routes) =
                    run(GraphSource::Compressed(&csr), dg, method, policy, threads);
                assert_eq!(
                    compressed.cost,
                    plain.cost,
                    "{method} {} t={threads}: compressed CostReport diverged \
                     (pointer_advances differing means the label-free remote \
                     routing stopped mirroring the labeled dispatch)",
                    policy.name()
                );
                assert_eq!(
                    compressed.triangles,
                    plain.triangles,
                    "{method} {} t={threads}: triangle stream diverged",
                    policy.name()
                );
                assert_eq!(
                    routes,
                    plain_routes,
                    "{method} {} t={threads}: kernel routes diverged ({ROUTE_COUNTERS:?})",
                    policy.name()
                );
            }
        }
    }
}

fn pareto_oriented(n: usize, alpha: f64, seed: u64, method: Method) -> DirectedGraph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let t = (n as f64).sqrt() as u64;
    let dist = Truncated::new(DiscretePareto { alpha, beta: 3.0 }, t.max(2));
    let (seq, _) = sample_degree_sequence(&dist, n, &mut rng);
    let g = ResidualSampler.generate(&seq, &mut rng).graph;
    let relabeling = method.optimal_family().relabeling(&g, &mut rng);
    DirectedGraph::orient(&g, &relabeling)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compress_round_trips_random_graphs(g in arb_graph(), seed in 0u64..1_000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let family = OrderFamily::ALL[(seed % OrderFamily::ALL.len() as u64) as usize];
        let dg = DirectedGraph::orient(&g, &family.relabeling(&g, &mut rng));
        assert_round_trip(&dg);
    }

    #[test]
    fn layouts_agree_on_random_graphs(g in arb_graph(), seed in 0u64..1_000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let family = OrderFamily::ALL[(seed % OrderFamily::ALL.len() as u64) as usize];
        let dg = DirectedGraph::orient(&g, &family.relabeling(&g, &mut rng));
        assert_layouts_agree(&dg);
    }
}

#[test]
fn layouts_agree_on_pareto_tails() {
    // heavy tails are where the bitset gates actually open (hubs, long
    // lists, dense blocks) — random 28-node masks rarely reach them
    for (n, alpha, seed) in [(300, 1.2, 5u64), (200, 1.5, 6)] {
        for method in Method::FUNDAMENTAL {
            let dg = pareto_oriented(n, alpha, seed, method);
            assert_layouts_agree(&dg);
        }
    }
}

#[test]
fn layouts_agree_on_the_portable_word_kernel() {
    // the block kernel is portable Rust on every target: the same
    // contracts on a heavy-tailed E1 fixture, where the block route opens
    let dg = pareto_oriented(250, 1.2, 7, Method::E1);
    assert_round_trip(&dg);
    assert_layouts_agree(&dg);
}

#[test]
fn degenerate_graphs_round_trip_and_agree() {
    // empty graph, singleton, star (max skew), path (no triangles)
    let star: Vec<(u32, u32)> = (1..40u32).map(|v| (0, v)).collect();
    let path: Vec<(u32, u32)> = (0..30u32).map(|v| (v, v + 1)).collect();
    let cases = [
        Graph::from_edges(1, &[]).unwrap(),
        Graph::from_edges(6, &[]).unwrap(),
        Graph::from_edges(40, &star).unwrap(),
        Graph::from_edges(31, &path).unwrap(),
    ];
    for (i, g) in cases.iter().enumerate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(90 + i as u64);
        let dg = DirectedGraph::orient(g, &OrderFamily::Descending.relabeling(g, &mut rng));
        assert_round_trip(&dg);
        assert_layouts_agree(&dg);
    }
}
