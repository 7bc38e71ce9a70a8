//! Differential harness: every triangle-listing path in the repository —
//! the 18 framework methods, both prior-art algorithms, the parallel
//! runner, the compressed-adjacency E1, the external-memory engine, and
//! the three baselines — is run against the same randomized graphs and
//! must produce identical triangle sets. A disagreement anywhere points at
//! a real bug in exactly one component.

use rand::{Rng, SeedableRng};
use trilist::core::{
    baseline, list_resilient_src, par_list, prior_art, CompressedCsr, GraphSource, Method,
    ResilientOpts,
};
use trilist::graph::dist::{sample_degree_sequence, DiscretePareto, Truncated, Zipf};
use trilist::graph::gen::{ConfigurationModel, Gnp, GraphGenerator, ResidualSampler};
use trilist::graph::Graph;
use trilist::order::{DirectedGraph, OrderFamily};
use trilist::xm::xm_e1;

/// Sorted canonical triangle set in original IDs.
fn canon(mut tris: Vec<(u32, u32, u32)>) -> Vec<(u32, u32, u32)> {
    tris.sort_unstable();
    tris
}

fn all_paths_agree(g: &Graph, seed: u64) {
    let mut want = Vec::new();
    baseline::brute_force(g, |x, y, z| want.push((x, y, z)));
    let want = canon(want);

    // baselines
    let mut v = Vec::new();
    baseline::unoriented_vertex_iterator(g, |x, y, z| v.push((x, y, z)));
    assert_eq!(canon(v), want, "unoriented vertex");
    let mut e = Vec::new();
    baseline::unoriented_edge_iterator(g, |x, y, z| e.push((x, y, z)));
    assert_eq!(canon(e), want, "unoriented edge");

    // prior art (original IDs already)
    let mut cn = Vec::new();
    prior_art::chiba_nishizeki(g, |x, y, z| cn.push((x, y, z)));
    assert_eq!(canon(cn), want, "chiba-nishizeki");
    let mut fw = Vec::new();
    prior_art::forward(g, |x, y, z| fw.push((x, y, z)));
    assert_eq!(canon(fw), want, "forward");

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for family in OrderFamily::ALL {
        let relabeling = family.relabeling(g, &mut rng);
        let dg = DirectedGraph::orient(g, &relabeling);
        let inv = relabeling.inverse();
        let to_orig = |x: u32, y: u32, z: u32| {
            let mut t = [inv[x as usize], inv[y as usize], inv[z as usize]];
            t.sort_unstable();
            (t[0], t[1], t[2])
        };

        // all 18 framework methods
        for method in Method::ALL {
            let mut got = Vec::new();
            method.run(&dg, |x, y, z| got.push(to_orig(x, y, z)));
            assert_eq!(canon(got), want, "{method} under {}", family.name());
        }
        // parallel fundamentals
        for method in Method::FUNDAMENTAL {
            let run = par_list(&dg, method, 3).unwrap();
            let got: Vec<_> = run
                .triangles
                .iter()
                .map(|&(x, y, z)| to_orig(x, y, z))
                .collect();
            assert_eq!(
                canon(got),
                want,
                "parallel {method} under {}",
                family.name()
            );
        }
        // compressed E1
        let csr = CompressedCsr::compress(&dg);
        let run = list_resilient_src(
            GraphSource::Compressed(&csr),
            Method::E1,
            &ResilientOpts::default(),
        )
        .unwrap()
        .complete()
        .expect("unlimited budget");
        let got: Vec<_> = run
            .triangles
            .iter()
            .map(|&(x, y, z)| to_orig(x, y, z))
            .collect();
        assert_eq!(canon(got), want, "compressed E1 under {}", family.name());
        // external-memory E1
        let mut got = Vec::new();
        xm_e1(&dg, 3, |x, y, z| got.push(to_orig(x, y, z))).expect("scratch io");
        assert_eq!(canon(got), want, "xm E1 under {}", family.name());
    }
}

#[test]
fn differential_on_pareto_realizations() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    for trial in 0..3 {
        let n = 60 + trial * 30;
        let dist = Truncated::new(
            DiscretePareto {
                alpha: 1.6,
                beta: 3.0,
            },
            12,
        );
        let (seq, _) = sample_degree_sequence(&dist, n, &mut rng);
        let g = ResidualSampler.generate(&seq, &mut rng).graph;
        all_paths_agree(&g, 100 + trial as u64);
    }
}

#[test]
fn differential_on_zipf_and_config_model() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let z = Zipf::new(2.2, 15);
    let (seq, _) = sample_degree_sequence(&z, 80, &mut rng);
    let g = ConfigurationModel.generate(&seq, &mut rng).graph;
    all_paths_agree(&g, 7);
}

#[test]
fn differential_on_dense_gnp() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let g = Gnp { p: 0.35 }.generate(40, &mut rng);
    all_paths_agree(&g, 9);
}

#[test]
fn differential_on_adversarial_shapes() {
    // complete graph, star, wheel, two cliques sharing a vertex
    let mut k8 = Vec::new();
    for u in 0..8u32 {
        for v in (u + 1)..8 {
            k8.push((u, v));
        }
    }
    all_paths_agree(&Graph::from_edges(8, &k8).unwrap(), 11);

    let star: Vec<_> = (1..12u32).map(|v| (0u32, v)).collect();
    all_paths_agree(&Graph::from_edges(12, &star).unwrap(), 12);

    let mut shared = Vec::new();
    for u in 0..5u32 {
        for v in (u + 1)..5 {
            shared.push((u, v));
        }
    }
    for u in 4..9u32 {
        for v in (u + 1)..9 {
            shared.push((u, v));
        }
    }
    all_paths_agree(&Graph::from_edges(9, &shared).unwrap(), 13);
}

#[test]
fn differential_random_gnp_sweep() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    for trial in 0..4 {
        let n = rng.gen_range(20..50);
        let p = rng.gen_range(0.05..0.4);
        let g = Gnp { p }.generate(n, &mut rng);
        all_paths_agree(&g, 20 + trial);
    }
}
