//! Property-based invariants for the tailored-ordering layer (proptest):
//! every `OrderingKind` relabels bijectively, the degeneracy peel respects
//! core numbers, relabel → list → unrelabel is the identity on the
//! triangle set for every fundamental method, and the linear orientation
//! equals the sort-based one it replaced.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use trilist::core::{baseline, Method};
use trilist::graph::gen::scenarios::CORPUS;
use trilist::graph::Graph;
use trilist::order::{core_numbers, DirectedGraph, OrderFamily, OrderingKind, Relabeling};

/// Strategy: a random simple graph as an edge mask over `n ≤ 16` nodes.
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

/// Strategy: a sparse random graph on up to 400 nodes, average degree
/// below 12, so rows are long enough for their order to matter.
fn arb_sparse_graph() -> impl Strategy<Value = Graph> {
    (1usize..400, 0usize..12, any::<u64>()).prop_map(|(n, k, seed)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = k as f64 / n as f64;
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|u| (u + 1..n as u32).map(move |v| (u, v)))
            .filter(|_| rng.gen_bool(p.min(1.0)))
            .collect();
        Graph::from_edges(n, &edges).expect("distinct pairs form a simple graph")
    })
}

/// Both CSR halves of an orientation: out-offsets, out-neighbors,
/// in-offsets, in-neighbors.
type Csr2 = (Vec<usize>, Vec<u32>, Vec<usize>, Vec<u32>);

/// The orientation as `DirectedGraph::orient` built it before it wrote
/// rows sorted: scatter each node's edges in node order, then sort every
/// row. Kept as the oracle the linear build must equal array for array.
fn orient_by_sorting(graph: &Graph, relabeling: &Relabeling) -> Csr2 {
    let n = graph.n();
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
    let mut out_offsets = vec![0usize];
    let mut in_offsets = vec![0usize];
    for v in 0..n {
        out_offsets.push(out_offsets[v] + out_deg[v]);
        in_offsets.push(in_offsets[v] + in_deg[v]);
    }
    let mut out_neighbors = vec![0u32; out_offsets[n]];
    let mut in_neighbors = vec![0u32; in_offsets[n]];
    let mut out_cursor = out_offsets.clone();
    let mut in_cursor = in_offsets.clone();
    for u in 0..n as u32 {
        let lu = labels[u as usize] as usize;
        for &v in graph.neighbors(u) {
            let lv = labels[v as usize];
            if (lv as usize) < lu {
                out_neighbors[out_cursor[lu]] = lv;
                out_cursor[lu] += 1;
            } else {
                in_neighbors[in_cursor[lu]] = lv;
                in_cursor[lu] += 1;
            }
        }
    }
    for v in 0..n {
        out_neighbors[out_offsets[v]..out_offsets[v + 1]].sort_unstable();
        in_neighbors[in_offsets[v]..in_offsets[v + 1]].sort_unstable();
    }
    (out_offsets, out_neighbors, in_offsets, in_neighbors)
}

/// `dg`'s arrays, read back through its accessors.
fn arrays(dg: &DirectedGraph) -> Csr2 {
    let (mut out_offsets, mut out_neighbors) = (vec![0usize], Vec::new());
    let (mut in_offsets, mut in_neighbors) = (vec![0usize], Vec::new());
    for v in 0..dg.n() as u32 {
        out_neighbors.extend_from_slice(dg.out(v));
        out_offsets.push(out_neighbors.len());
        in_neighbors.extend_from_slice(dg.in_(v));
        in_offsets.push(in_neighbors.len());
    }
    (out_offsets, out_neighbors, in_offsets, in_neighbors)
}

/// The relabelings an orientation is checked under: every
/// `OrderingKind`, Uniform at four more seeds, and two random bijections.
fn relabelings(g: &Graph, seed: u64) -> Vec<(String, Relabeling)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut out: Vec<(String, Relabeling)> = OrderingKind::ALL
        .iter()
        .map(|kind| (kind.name().to_string(), kind.relabeling(g, &mut rng)))
        .collect();
    for s in 0..4 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_add(s));
        out.push((
            format!("uniform@{s}"),
            OrderFamily::Uniform.relabeling(g, &mut rng),
        ));
    }
    for b in 0..2 {
        let mut labels: Vec<u32> = (0..g.n() as u32).collect();
        labels.shuffle(&mut rng);
        out.push((format!("bijection#{b}"), Relabeling::from_labels(labels)));
    }
    out
}

fn ground_truth(g: &Graph) -> Vec<(u32, u32, u32)> {
    let mut tris = Vec::new();
    baseline::brute_force(g, |x, y, z| tris.push((x, y, z)));
    tris.sort_unstable();
    tris
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_ordering_kind_is_a_bijection(g in arb_graph(), seed in 0u64..1000) {
        for kind in OrderingKind::ALL {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let labels = kind.relabeling(&g, &mut rng);
            let mut seen = vec![false; g.n()];
            for node in 0..g.n() as u32 {
                let l = labels.label(node) as usize;
                prop_assert!(l < g.n(), "{}: label out of range", kind.name());
                prop_assert!(!seen[l], "{}: label {l} assigned twice", kind.name());
                seen[l] = true;
            }
            // determinism: the same seed reproduces the same labels
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let again = kind.relabeling(&g, &mut rng);
            prop_assert_eq!(labels.as_slice(), again.as_slice(), "{}", kind.name());
        }
    }

    #[test]
    fn orientation_equals_the_sort_based_build(
        dense in arb_graph(),
        sparse in arb_sparse_graph(),
        seed in 0u64..1000,
    ) {
        for g in [dense, sparse] {
            for (name, relabeling) in relabelings(&g, seed) {
                let dg = DirectedGraph::orient(&g, &relabeling);
                prop_assert_eq!(arrays(&dg), orient_by_sorting(&g, &relabeling), "{}", name);
            }
        }
    }

    #[test]
    fn degeneracy_peel_out_degrees_bounded_by_core_numbers(g in arb_graph()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let labels = OrderingKind::from_name("degen")
            .expect("degen is registered")
            .relabeling(&g, &mut rng);
        let core = core_numbers(&g);
        for v in 0..g.n() as u32 {
            let lv = labels.label(v);
            let out = g
                .neighbors(v)
                .iter()
                .filter(|&&w| labels.label(w) < lv)
                .count();
            prop_assert!(
                out <= core[v as usize] as usize,
                "node {v}: out-degree {out} exceeds core number {}",
                core[v as usize]
            );
        }
    }

    #[test]
    fn relabel_list_unrelabel_is_identity(g in arb_graph(), seed in 0u64..1000) {
        let want = ground_truth(&g);
        for kind in OrderingKind::ALL {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let relabeling = kind.relabeling(&g, &mut rng);
            let dg = DirectedGraph::orient(&g, &relabeling);
            prop_assert!(dg.validate(), "{}: invalid orientation", kind.name());
            let inverse = relabeling.inverse();
            for method in Method::FUNDAMENTAL {
                let mut got = Vec::new();
                let cost = method.run(&dg, |x, y, z| {
                    let mut t = [
                        inverse[x as usize],
                        inverse[y as usize],
                        inverse[z as usize],
                    ];
                    t.sort_unstable();
                    got.push((t[0], t[1], t[2]));
                });
                got.sort_unstable();
                prop_assert_eq!(
                    &got, &want,
                    "{} under {} disagrees with brute force", method, kind.name()
                );
                prop_assert_eq!(cost.triangles as usize, want.len());
            }
        }
    }
}

#[test]
fn orientation_equals_the_sort_based_build_on_the_scenario_corpus() {
    for sc in CORPUS {
        let g = (sc.build)();
        for (name, relabeling) in relabelings(&g, 7) {
            let dg = DirectedGraph::orient(&g, &relabeling);
            assert_eq!(
                arrays(&dg),
                orient_by_sorting(&g, &relabeling),
                "{} under {name}",
                sc.name
            );
        }
    }
}
