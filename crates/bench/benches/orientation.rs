//! Preprocessing cost (§2.1): relabeling + orientation for each family,
//! including the degenerate smallest-last ordering whose construction time
//! the paper singles out as two orders of magnitude above listing itself
//! (§7.5 — 5 hours on Twitter), and the two linear CSR builds every
//! registration and cold prepare pays.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::SeedableRng;
use std::hint::black_box;
use trilist_bench::fixture_graph;
use trilist_graph::Graph;
use trilist_order::{DirectedGraph, OrderFamily};

fn bench_relabel_and_orient(c: &mut Criterion) {
    let n = 100_000;
    let graph = fixture_graph(n, 1.7, 13);
    let mut group = c.benchmark_group("orientation/relabel_orient");
    group.sample_size(10);
    group.throughput(Throughput::Elements(graph.m() as u64));
    for family in OrderFamily::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(family.name()),
            &family,
            |b, &f| {
                b.iter(|| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
                    let relabeling = f.relabeling(&graph, &mut rng);
                    black_box(DirectedGraph::orient(&graph, &relabeling).m())
                })
            },
        );
    }
    group.finish();
}

fn bench_csr_builds(c: &mut Criterion) {
    // at the `mix_large` size: the undirected CSR a registration builds
    // from its edge list, and one orientation of it
    let graph = fixture_graph(20_000, 1.7, 13);
    let edges: Vec<_> = graph.edges().collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let relabeling = OrderFamily::Descending.relabeling(&graph, &mut rng);
    let mut group = c.benchmark_group("orientation/csr_build");
    group.sample_size(10);
    group.throughput(Throughput::Elements(graph.m() as u64));
    group.bench_function("from_edges", |b| {
        b.iter(|| black_box(Graph::from_edges(graph.n(), &edges).unwrap().m()))
    });
    group.bench_function("orient", |b| {
        b.iter(|| black_box(DirectedGraph::orient(&graph, &relabeling).m()))
    });
    group.finish();
}

fn bench_degeneracy_only(c: &mut Criterion) {
    let mut group = c.benchmark_group("orientation/smallest_last");
    group.sample_size(10);
    for n in [10_000usize, 100_000] {
        let graph = fixture_graph(n, 1.7, 17);
        group.throughput(Throughput::Elements(graph.m() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(trilist_order::smallest_last_labels(&graph)))
        });
    }
    group.finish();
}

fn bench_parallel_orientation_effect(c: &mut Criterion) {
    // how much of the asc-orientation penalty the work-stealing runtime
    // can hide at 4 workers: skewed out-lists make static splits pathological,
    // while load-proportional chunking keeps the workers busy
    let graph = fixture_graph(30_000, 1.7, 23);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut group = c.benchmark_group("orientation/e1_parallel");
    group.sample_size(10);
    for family in [OrderFamily::Descending, OrderFamily::Ascending] {
        let dg = DirectedGraph::orient(&graph, &family.relabeling(&graph, &mut rng));
        group.bench_with_input(
            BenchmarkId::from_parameter(family.name()),
            &family,
            |b, _| {
                b.iter(|| {
                    black_box(
                        trilist_core::par_list(&dg, trilist_core::Method::E1, 4)
                            .unwrap()
                            .cost
                            .triangles,
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_relabel_and_orient,
    bench_csr_builds,
    bench_degeneracy_only,
    bench_parallel_orientation_effect
);
criterion_main!(benches);
