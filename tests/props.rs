//! Property-based invariants across the whole stack (proptest).

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use trilist::core::{baseline, list_triangles, Method};
use trilist::graph::dist::{DegreeModel, DiscretePareto, Truncated};
use trilist::graph::gen::{GraphGenerator, ResidualSampler};
use trilist::graph::{DegreeSequence, Graph, GraphError};
use trilist::order::{round_robin, DirectedGraph, LimitMap, OrderFamily, Permutation, Relabeling};

/// Strategy: a random simple graph as an edge set over `n ≤ 16` nodes.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..16).prop_flat_map(|n| {
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

/// `Graph::from_edges` as it was before it wrote rows sorted: check
/// each edge, push both endpoints onto per-node lists, and let
/// `from_adjacency` sort them and check duplicates and symmetry. Kept as
/// the oracle the linear build must equal, errors included.
fn from_edges_via_adjacency(n: usize, edges: &[(u32, u32)]) -> Result<Graph, GraphError> {
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
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
        adj[u as usize].push(v);
        adj[v as usize].push(u);
    }
    Graph::from_adjacency(adj)
}

/// Strategy: `(n, edges)` for a sparse random graph on up to 200 nodes,
/// shuffled and with each pair in either endpoint order, then with
/// `faults` bad edges each put at a random position: an out-of-range ID,
/// a self-loop, or a repeat of a listed pair in either order (an
/// out-of-range pair while none is listed).
fn arb_edge_list() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (1usize..200, 0usize..10, any::<u64>(), 0usize..4).prop_map(|(n, k, seed, faults)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = (k as f64 / n as f64).min(1.0);
        let mut edges: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|u| (u + 1..n as u32).map(move |v| (u, v)))
            .filter_map(|(u, v)| match rng.gen_bool(p) {
                false => None,
                true if rng.gen_bool(0.5) => Some((v, u)),
                true => Some((u, v)),
            })
            .collect();
        edges.shuffle(&mut rng);
        for _ in 0..faults {
            let node = |rng: &mut rand::rngs::StdRng| rng.gen_range(0..n as u32);
            let bad = match rng.gen_range(0..3) {
                0 => {
                    let far = n as u32 + rng.gen_range(0..3);
                    let near = node(&mut rng);
                    if rng.gen_bool(0.5) {
                        (far, near)
                    } else {
                        (near, far)
                    }
                }
                1 => {
                    let x = node(&mut rng);
                    (x, x)
                }
                _ => match edges.choose(&mut rng) {
                    Some(&(u, v)) if rng.gen_bool(0.5) => (v, u),
                    Some(&pair) => pair,
                    None => (0, n as u32),
                },
            };
            let at = rng.gen_range(0..edges.len() + 1);
            edges.insert(at, bad);
        }
        (n, edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn from_edges_equals_the_adjacency_build(input in arb_edge_list()) {
        let (n, edges) = input;
        prop_assert_eq!(Graph::from_edges(n, &edges), from_edges_via_adjacency(n, &edges));
    }

    #[test]
    fn all_methods_match_brute_force(g in arb_graph(), seed in 0u64..1000) {
        let mut want = Vec::new();
        baseline::brute_force(&g, |x, y, z| want.push((x, y, z)));
        want.sort_unstable();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for family in OrderFamily::ALL {
            for method in [Method::T1, Method::T3, Method::E1, Method::E4, Method::E5, Method::L3] {
                let mut run = list_triangles(&g, method, family, &mut rng);
                run.triangles.sort_unstable();
                prop_assert_eq!(&run.triangles, &want, "{} under {}", method, family.name());
            }
        }
    }

    #[test]
    fn orientation_preserves_degrees(g in arb_graph(), seed in 0u64..1000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let family = OrderFamily::ALL[(seed % 6) as usize];
        let relabeling = family.relabeling(&g, &mut rng);
        let dg = DirectedGraph::orient(&g, &relabeling);
        prop_assert!(dg.validate());
        let inv = relabeling.inverse();
        for label in 0..g.n() as u32 {
            prop_assert_eq!(dg.degree(label), g.degree(inv[label as usize]));
        }
    }

    #[test]
    fn measured_cost_equals_closed_form(g in arb_graph(), seed in 0u64..1000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let family = OrderFamily::ALL[(seed % 6) as usize];
        let dg = DirectedGraph::orient(&g, &family.relabeling(&g, &mut rng));
        for method in Method::ALL {
            let cost = method.run(&dg, |_, _, _| {});
            prop_assert_eq!(cost.operations(), method.predicted_operations(&dg), "{}", method);
        }
    }

    #[test]
    fn round_robin_is_bijection(n in 1usize..500) {
        let p = round_robin(n);
        let mut seen = vec![false; n];
        for pos in 0..n {
            let l = p.label(pos) as usize;
            prop_assert!(!seen[l]);
            seen[l] = true;
        }
    }

    #[test]
    fn reverse_complement_involutions(theta in proptest::collection::vec(0u32..64, 1..64)) {
        // build a permutation from the random ranks (argsort makes it valid)
        let mut idx: Vec<u32> = (0..theta.len() as u32).collect();
        idx.sort_by_key(|&i| (theta[i as usize], i));
        let mut labels = vec![0u32; theta.len()];
        for (rank, &i) in idx.iter().enumerate() {
            labels[i as usize] = rank as u32;
        }
        let p = Permutation::new(labels).unwrap();
        prop_assert_eq!(p.reverse().reverse(), p.clone());
        prop_assert_eq!(p.complement().complement(), p.clone());
        // reverse and complement commute
        prop_assert_eq!(p.reverse().complement(), p.complement().reverse());
    }

    #[test]
    fn truncated_pareto_pmf_sums_to_one(alpha in 1.05f64..3.0, t in 2u64..500) {
        let dist = Truncated::new(DiscretePareto { alpha, beta: 30.0 * (alpha - 1.0) }, t);
        let total: f64 = (1..=t).map(|k| dist.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "total {}", total);
        // quantile stays in the support and inverts the CDF
        for &u in &[0.01, 0.4, 0.99] {
            let k = dist.quantile(u);
            prop_assert!(k >= 1 && k <= t);
            prop_assert!(dist.cdf(k) >= u - 1e-12);
        }
    }

    #[test]
    fn generated_graph_is_simple_and_degree_bounded(
        seed in 0u64..500,
        n in 10usize..80,
        alpha in 1.1f64..2.5,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let t = ((n as f64).sqrt() as u64).max(2);
        let dist = Truncated::new(DiscretePareto { alpha, beta: 3.0 }, t);
        let (seq, _) = trilist::graph::dist::sample_degree_sequence(&dist, n, &mut rng);
        let gen = ResidualSampler.generate(&seq, &mut rng);
        // simplicity is enforced by Graph::from_adjacency; degrees bounded
        for v in 0..n as u32 {
            prop_assert!(gen.graph.degree(v) as u32 <= seq.as_slice()[v as usize]);
        }
        prop_assert_eq!(
            gen.shortfall,
            seq.sum() - 2 * gen.graph.m() as u64
        );
    }

    #[test]
    fn erdos_gallai_realizable_iff_sampler_exact_small(seed in 0u64..200) {
        // if the sequence is graphical, shortfall may still occur (the
        // sampler is greedy), but a non-graphical sequence can never be
        // realized exactly
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        use rand::Rng;
        let n = rng.gen_range(4..12usize);
        let degrees: Vec<u32> = (0..n).map(|_| rng.gen_range(0..n as u32)).collect();
        let mut seq = DegreeSequence::new(degrees);
        seq.make_even();
        let gen = ResidualSampler.generate(&seq, &mut rng);
        if gen.shortfall == 0 {
            prop_assert!(seq.is_graphical(), "realized a non-graphical sequence {:?}", seq);
        }
    }

    #[test]
    fn limit_maps_preserve_measure(v in 0.0f64..1.0) {
        for map in LimitMap::ALL {
            let grid = 4_000;
            let mean: f64 = (0..grid)
                .map(|i| map.kernel(v, (i as f64 + 0.5) / grid as f64))
                .sum::<f64>() / grid as f64;
            prop_assert!((mean - v).abs() < 5e-3, "{:?}: E[K({};U)]={}", map, v, mean);
        }
    }

    #[test]
    fn relabeling_from_positions_is_bijection(degrees in proptest::collection::vec(0u32..50, 1..100)) {
        let n = degrees.len();
        let perm = round_robin(n);
        let r = Relabeling::from_positions(&degrees, &perm);
        let mut seen = vec![false; n];
        for node in 0..n as u32 {
            let l = r.label(node) as usize;
            prop_assert!(!seen[l]);
            seen[l] = true;
        }
    }
}
