//! Differential suite for the kernel-selection layer: under every
//! `KernelPolicy`, every one of the 18 methods, under every orientation
//! family, must emit the identical triangle multiset and identical
//! paper-cost `CostReport` fields (`triangles`, `lookups`, `local`,
//! `remote`, `hash_inserts`) as the paper-faithful run. Only
//! `pointer_advances` — an implementation-level metric — and wall-clock
//! may differ. The adaptive configs swept here force every dispatch path:
//! bitmap-everything, gallop-everything, branchless-merge-everything, and
//! the shipped defaults; the bitset configs likewise force all-blocks and
//! gates-closed fallback dispatch.

use rand::{Rng, SeedableRng};
use std::sync::Arc;
use trilist::core::{
    count_triangles_with, list_triangles_with, AdaptiveConfig, BitsetConfig, CostReport, Counter,
    CounterSnapshot, InMemoryRecorder, KernelMeter, KernelPolicy, Kernels, ListDir, Method,
};
use trilist::graph::dist::{sample_degree_sequence, DiscretePareto, Truncated};
use trilist::graph::gen::{GraphGenerator, ResidualSampler};
use trilist::graph::Graph;
use trilist::order::{DirectedGraph, OrderFamily};

/// Adaptive configurations that force each kernel-dispatch path.
fn adaptive_configs() -> [AdaptiveConfig; 4] {
    [
        // every node a hub: every intersection and oracle probe hits bitmaps
        AdaptiveConfig {
            gallop_crossover: 1,
            hub_degree_threshold: 0,
            max_hubs: usize::MAX,
        },
        // no hubs, crossover 1: everything gallops
        AdaptiveConfig {
            gallop_crossover: 1,
            hub_degree_threshold: u32::MAX,
            max_hubs: 0,
        },
        // no hubs, unreachable crossover: everything branchless-merges
        AdaptiveConfig {
            gallop_crossover: u32::MAX,
            hub_degree_threshold: u32::MAX,
            max_hubs: 0,
        },
        AdaptiveConfig::default(),
    ]
}

/// Bitset configurations that force each of that policy's dispatch paths:
/// all-blocks and gates-closed (pure fallback), plus the shipped defaults.
fn bitset_configs() -> [BitsetConfig; 3] {
    [
        BitsetConfig {
            min_short: 1,
            min_density: 0,
            fallback: AdaptiveConfig::default(),
        },
        BitsetConfig {
            min_short: u32::MAX,
            min_density: u32::MAX,
            fallback: AdaptiveConfig::default(),
        },
        BitsetConfig::default(),
    ]
}

/// Every non-paper policy the differential sweeps.
fn challenger_policies() -> Vec<KernelPolicy> {
    adaptive_configs()
        .into_iter()
        .map(KernelPolicy::Adaptive)
        .chain(bitset_configs().into_iter().map(KernelPolicy::Bitset))
        .collect()
}

fn paper_cost_fields(c: &CostReport) -> (u64, u64, u64, u64, u64) {
    (c.triangles, c.lookups, c.local, c.remote, c.hash_inserts)
}

fn assert_policies_agree(g: &Graph, seed: u64) {
    for family in OrderFamily::ALL {
        for method in Method::ALL {
            // same seed → same relabeling → byte-comparable reports
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut paper =
                list_triangles_with(g, method, family, KernelPolicy::PaperFaithful, &mut rng);
            paper.triangles.sort_unstable();
            for policy in challenger_policies() {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let mut challenger = list_triangles_with(g, method, family, policy, &mut rng);
                challenger.triangles.sort_unstable();
                assert_eq!(
                    challenger.triangles,
                    paper.triangles,
                    "{method} under {} with {policy:?}: triangle multiset diverged",
                    family.name()
                );
                assert_eq!(
                    paper_cost_fields(&challenger.cost),
                    paper_cost_fields(&paper.cost),
                    "{method} under {} with {policy:?}: paper-cost fields diverged",
                    family.name()
                );
            }
        }
    }
}

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

fn pareto(n: usize, alpha: f64, seed: u64) -> Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let t = (n as f64).sqrt() as u64;
    let dist = Truncated::new(DiscretePareto { alpha, beta: 3.0 }, t.max(2));
    let (seq, _) = sample_degree_sequence(&dist, n, &mut rng);
    ResidualSampler.generate(&seq, &mut rng).graph
}

#[test]
fn policies_agree_on_gnp_graphs() {
    for trial in 0..3u64 {
        let g = gnp(30, 0.2 + 0.1 * trial as f64, 40 + trial);
        assert_policies_agree(&g, 500 + trial);
    }
}

#[test]
fn policies_agree_on_pareto_tail() {
    // α = 1.5 is the paper's heavy-tail regime and the hub-bitmap sweet
    // spot: high-degree hubs exist at every size
    let g = pareto(150, 1.5, 9);
    assert_policies_agree(&g, 700);
}

#[test]
fn policies_agree_on_structured_graphs() {
    // complete graph: every intersection non-trivial
    let mut edges = Vec::new();
    for u in 0..8u32 {
        for v in (u + 1)..8 {
            edges.push((u, v));
        }
    }
    assert_policies_agree(&Graph::from_edges(8, &edges).unwrap(), 1);
    // triangle-free cycle and the empty graph: zero-match edge cases
    let c7: Vec<_> = (0..7u32).map(|i| (i, (i + 1) % 7)).collect();
    assert_policies_agree(&Graph::from_edges(7, &c7).unwrap(), 2);
    assert_policies_agree(&Graph::from_edges(5, &[]).unwrap(), 3);
}

#[test]
fn counting_fast_path_reports_identical_cost_to_listing() {
    // the no-materialization SEI path must produce a field-for-field
    // identical CostReport (pointer_advances included — same kernel, same
    // policy, just no sink dispatch)
    let g = pareto(120, 1.5, 11);
    for family in [OrderFamily::Descending, OrderFamily::Uniform] {
        for method in Method::ALL {
            for policy in [
                KernelPolicy::PaperFaithful,
                KernelPolicy::adaptive(),
                KernelPolicy::bitset(),
            ] {
                let mut rng = rand::rngs::StdRng::seed_from_u64(31);
                let listed = list_triangles_with(&g, method, family, policy, &mut rng);
                let mut rng = rand::rngs::StdRng::seed_from_u64(31);
                let (count, cost) = count_triangles_with(&g, method, family, policy, &mut rng);
                assert_eq!(count, listed.triangles.len() as u64, "{method}");
                assert_eq!(
                    cost,
                    listed.cost,
                    "{method} under {} {}: counting path cost diverged",
                    family.name(),
                    policy.name()
                );
            }
        }
    }
}

/// Drains a meter and returns what it had tallied since the last drain.
fn drain(meter: &KernelMeter) -> CounterSnapshot {
    let rec = InMemoryRecorder::new();
    meter.flush_into(&rec);
    rec.snapshot()
}

#[test]
fn remote_routes_match_the_labelled_dispatch_pair_by_pair() {
    // The compressed drivers ask `intersect_remote`/`count_remote` first
    // and decode the remote list only when they decline. Whenever they
    // answer, the answer must be the labelled dispatch's on the decoded
    // full list: same matches, same advances, same meter tallies. The
    // pairs are random owned slices, so a hub-row probe may even disagree
    // with the true intersection; the twins must still agree. At n = 2000
    // the tail reaches past the default hub threshold, so every bitset
    // config's fallback has hub rows to route to.
    let g = pareto(2000, 1.5, 23);
    let mut rng = rand::rngs::StdRng::seed_from_u64(29);
    let relabeling = OrderFamily::Descending.relabeling(&g, &mut rng);
    let dg = DirectedGraph::orient(&g, &relabeling);
    let n = dg.n() as u32;
    let list = |v: u32, dir: ListDir| match dir {
        ListDir::Out => dg.out(v),
        ListDir::In => dg.in_(v),
    };
    let pick_dir = |rng: &mut rand::rngs::StdRng| {
        if rng.gen_bool(0.5) {
            ListDir::Out
        } else {
            ListDir::In
        }
    };
    let nothing = CounterSnapshot::default();
    // tallies of every pair answered label-free, across the sweep
    let mut answered = CounterSnapshot::default();
    for policy in std::iter::once(KernelPolicy::PaperFaithful).chain(challenger_policies()) {
        let base = Kernels::build(policy, &dg);
        let (remote_meter, full_meter) =
            (Arc::new(KernelMeter::new()), Arc::new(KernelMeter::new()));
        let remote_k = base.clone().with_meter(Arc::clone(&remote_meter));
        let full_k = base.with_meter(Arc::clone(&full_meter));
        for _ in 0..3000 {
            let (z, z_dir) = (rng.gen_range(0..n), pick_dir(&mut rng));
            let own = list(z, z_dir);
            let i = rng.gen_range(0..=own.len());
            let j = rng.gen_range(i..=own.len());
            let a = &own[i..j];
            let a_own = rng.gen_bool(0.9).then_some((z, z_dir));
            let (v, v_dir) = (rng.gen_range(0..n), pick_dir(&mut rng));
            let b = list(v, v_dir);
            let ctx = format!("{policy:?} a={z}:{z_dir:?}[{i}..{j}] own={a_own:?} b={v}:{v_dir:?}");

            let mut got = Vec::new();
            match remote_k.intersect_remote(a, a_own, (v, v_dir), b.len(), |x| got.push(x)) {
                Some(stats) => {
                    let mut want = Vec::new();
                    let labelled =
                        full_k.intersect(a, a_own, b, Some((v, v_dir)), |x| want.push(x));
                    assert_eq!(got, want, "intersect matches: {ctx}");
                    assert_eq!(stats, labelled, "intersect stats: {ctx}");
                    let tallies = drain(&remote_meter);
                    assert_eq!(tallies, drain(&full_meter), "intersect tallies: {ctx}");
                    answered = answered.merge(&tallies);
                }
                None => assert_eq!(
                    drain(&remote_meter),
                    nothing,
                    "declined, yet tallied: {ctx}"
                ),
            }

            match remote_k.count_remote(a, a_own, (v, v_dir), b.len()) {
                Some(stats) => {
                    let labelled = full_k.count(a, a_own, b, Some((v, v_dir)));
                    assert_eq!(stats, labelled, "count stats: {ctx}");
                    let tallies = drain(&remote_meter);
                    assert_eq!(tallies, drain(&full_meter), "count tallies: {ctx}");
                    answered = answered.merge(&tallies);
                }
                None => assert_eq!(
                    drain(&remote_meter),
                    nothing,
                    "declined, yet tallied: {ctx}"
                ),
            }
        }
    }
    // the sweep reached both label-free routes: blocks and hub rows
    assert!(answered.get(Counter::BitsetBlockSteps) > 0, "{answered:?}");
    assert!(answered.get(Counter::BitmapProbes) > 0, "{answered:?}");
}
