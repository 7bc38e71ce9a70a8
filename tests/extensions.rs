//! Integration coverage for the library extensions: parallel listing,
//! compressed adjacency, clustering statistics, tail fitting, and the
//! unrelabeled variants — exercised together on shared realistic graphs.

use rand::SeedableRng;
use trilist::core::{
    clustering, list_resilient_src, par_list, CompressedCsr, GraphSource, Method, OrientedOnly,
    ResilientOpts,
};
use trilist::graph::components::summarize;
use trilist::graph::dist::{sample_degree_sequence, DiscretePareto, Truncated, Truncation};
use trilist::graph::gen::{ChungLu, Gnp, GraphGenerator, ResidualSampler};
use trilist::graph::io::{read_edge_list, write_edge_list};
use trilist::graph::Graph;
use trilist::model::fit::{hill_estimator, recommend};
use trilist::order::{DirectedGraph, OrderFamily};

fn power_law_graph(n: usize, alpha: f64, seed: u64) -> Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let dist = Truncated::new(DiscretePareto::paper_beta(alpha), Truncation::Root.t_n(n));
    let (seq, _) = sample_degree_sequence(&dist, n, &mut rng);
    ResidualSampler.generate(&seq, &mut rng).graph
}

#[test]
fn every_listing_path_counts_the_same_triangles() {
    // sequential, parallel, compressed, unrelabeled, and clustering all
    // agree on the triangle count of one graph
    let g = power_law_graph(3_000, 1.7, 1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let relabeling = OrderFamily::Descending.relabeling(&g, &mut rng);
    let dg = DirectedGraph::orient(&g, &relabeling);

    let sequential = Method::E1.run(&dg, |_, _, _| {}).triangles;
    let parallel = par_list(&dg, Method::E1, 4).unwrap().cost.triangles;
    let csr = CompressedCsr::compress(&dg);
    let packed = list_resilient_src(
        GraphSource::Compressed(&csr),
        Method::E1,
        &ResilientOpts::default(),
    )
    .unwrap()
    .complete()
    .expect("unlimited budget")
    .cost
    .triangles;
    let partial = OrientedOnly::orient(&g, &relabeling)
        .t1(|_, _, _| {})
        .triangles;
    let stats = clustering::triangle_count(&g);

    assert_eq!(sequential, parallel);
    assert_eq!(sequential, packed);
    assert_eq!(sequential, partial);
    assert_eq!(sequential, stats);
}

#[test]
fn io_round_trip_preserves_listing_results() {
    let g = power_law_graph(1_000, 1.5, 3);
    let mut buf = Vec::new();
    write_edge_list(&g, &mut buf).unwrap();
    let loaded = read_edge_list(buf.as_slice()).unwrap().graph;
    assert_eq!(loaded.n(), g.n());
    assert_eq!(loaded.m(), g.m());
    assert_eq!(
        clustering::triangle_count(&loaded),
        clustering::triangle_count(&g)
    );
}

#[test]
fn generators_produce_workable_graphs() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    // Chung–Lu with moderate weights: realized mean degree tracks the
    // truncated distribution's mean (≈ 12.3 for α=2, β=30 cut at 40)
    let dist = Truncated::new(DiscretePareto::paper_beta(2.0), 40);
    use trilist::graph::dist::DegreeModel;
    let target_mean = dist.mean_exact();
    let (seq, _) = sample_degree_sequence(&dist, 2_000, &mut rng);
    let cl = ChungLu.generate(&seq, &mut rng).graph;
    let s = summarize(&cl);
    assert!(
        (s.mean_degree - target_mean).abs() / target_mean < 0.15,
        "mean degree {} vs target {target_mean}",
        s.mean_degree
    );
    // Gnp at the same density
    let p = s.mean_degree / (s.n as f64 - 1.0);
    let gnp = Gnp { p }.generate(2_000, &mut rng);
    // every method still agrees on both graphs
    for g in [&cl, &gnp] {
        let r = OrderFamily::Descending.relabeling(g, &mut rng);
        let dg = DirectedGraph::orient(g, &r);
        let t1 = Method::T1.run(&dg, |_, _, _| {}).triangles;
        let e4 = Method::E4.run(&dg, |_, _, _| {}).triangles;
        assert_eq!(t1, e4);
    }
}

#[test]
fn gnp_transitivity_concentrates_at_p() {
    // classical fact: in G(n, p) the probability that a wedge closes is p,
    // so transitivity → p; a sharp quantitative check of both the Gnp
    // generator and the clustering pipeline
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let p = 0.02;
    let mut ts = Vec::new();
    for _ in 0..5 {
        let g = Gnp { p }.generate(1_500, &mut rng);
        ts.push(clustering::transitivity(&g));
    }
    let mean = ts.iter().sum::<f64>() / ts.len() as f64;
    assert!(
        (mean - p).abs() / p < 0.1,
        "mean transitivity {mean} vs p {p}"
    );
}

#[test]
fn fit_and_recommend_work_on_heavy_tail() {
    // linear truncation leaves the tail intact, so Hill should land near
    // the true α
    let n = 30_000;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let dist = Truncated::new(DiscretePareto::paper_beta(1.5), (n - 1) as u64);
    let (seq, _) = sample_degree_sequence(&dist, n, &mut rng);
    let g = ResidualSampler.generate(&seq, &mut rng).graph;
    let alpha = hill_estimator(&g.degrees(), 0.02).expect("estimable");
    assert!((alpha - 1.5).abs() < 0.4, "hill {alpha}");
    let rec = recommend(&g, 95.0);
    // op ratio far below 95 → SEI recommended
    assert_eq!(rec.method, Method::E1);
    assert!(rec.wn > 1.0 && rec.wn < 10.0);
}

#[test]
fn compressed_form_is_smaller_and_complete() {
    let g = power_law_graph(5_000, 1.7, 8);
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    for family in [OrderFamily::Descending, OrderFamily::Uniform] {
        let dg = DirectedGraph::orient(&g, &family.relabeling(&g, &mut rng));
        let c = CompressedCsr::compress(&dg);
        // whole footprint, offsets and degree tables included, against
        // the plain layout's 8 B/edge of lists alone
        assert!(c.bytes() < dg.m() as u64 * 8, "{}", family.name());
        let total_out: usize = (0..dg.n() as u32).map(|v| c.x(v)).sum();
        let total_in: usize = (0..dg.n() as u32).map(|v| c.y(v)).sum();
        assert_eq!((total_out, total_in), (dg.m(), dg.m()));
    }
}
