//! Wall-clock listing throughput of the four fundamental methods under
//! their optimal orientations — the runtime side of the §2.4 tradeoff
//! (operation counts are covered by the table binaries; this measures
//! seconds).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::SeedableRng;
use std::hint::black_box;
use trilist_bench::fixture_graph;
use trilist_core::{par_list, HashOracle, KernelPolicy, Kernels, Method};
use trilist_order::{DirectedGraph, OrderFamily};

fn bench_fundamental_methods(c: &mut Criterion) {
    let n = 50_000;
    let graph = fixture_graph(n, 1.7, 7);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("listing/optimal_orientation");
    group.throughput(Throughput::Elements(graph.m() as u64));
    for method in Method::FUNDAMENTAL {
        let family = method.optimal_family();
        let dg = DirectedGraph::orient(&graph, &family.relabeling(&graph, &mut rng));
        let oracle = HashOracle::build(&dg);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}+{}", method.name(), family.name())),
            &method,
            |b, &m| {
                b.iter(|| {
                    let cost = m.run_with_oracle(&dg, &oracle, |x, y, z| {
                        black_box((x, y, z));
                    });
                    black_box(cost.triangles)
                })
            },
        );
    }
    group.finish();
}

fn bench_t1_oracles(c: &mut Criterion) {
    // hash oracle vs binary-search oracle for T1's candidate checks
    let graph = fixture_graph(50_000, 1.7, 9);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let dg = DirectedGraph::orient(
        &graph,
        &OrderFamily::Descending.relabeling(&graph, &mut rng),
    );
    let hash = HashOracle::build(&dg);
    let mut group = c.benchmark_group("listing/t1_oracle");
    group.bench_function("hash", |b| {
        b.iter(|| {
            black_box(
                Method::T1
                    .run_with_oracle(&dg, &hash, |_, _, _| {})
                    .triangles,
            )
        })
    });
    group.bench_function("binary_search", |b| {
        let sorted = trilist_core::SortedOracle::new(&dg);
        b.iter(|| {
            black_box(
                Method::T1
                    .run_with_oracle(&dg, &sorted, |_, _, _| {})
                    .triangles,
            )
        })
    });
    group.finish();
}

fn bench_orientation_effect(c: &mut Criterion) {
    // E1 wall time under best (desc) vs worst (asc) orientation: the
    // operation-count gap shows up in seconds too
    let graph = fixture_graph(30_000, 1.7, 11);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut group = c.benchmark_group("listing/e1_orientation");
    for family in [
        OrderFamily::Descending,
        OrderFamily::Ascending,
        OrderFamily::Uniform,
    ] {
        let dg = DirectedGraph::orient(&graph, &family.relabeling(&graph, &mut rng));
        group.bench_with_input(
            BenchmarkId::from_parameter(family.name()),
            &family,
            |b, _| b.iter(|| black_box(Method::E1.run(&dg, |_, _, _| {}).triangles)),
        );
    }
    group.finish();
}

fn bench_kernel_policy(c: &mut Criterion) {
    // the adaptive kernel layer vs the paper-faithful scan on the
    // hub-heavy regime (Pareto α = 1.5): same paper-cost operations, so
    // any wall-clock gap is pure kernel selection. The acceptance bar for
    // the layer is ≥ 1.3× on E1 at n = 10⁵ (EXPERIMENTS.md, kernel matrix).
    let n = 100_000;
    let graph = fixture_graph(n, 1.5, 23);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    for method in [Method::E1, Method::E4] {
        let family = method.optimal_family();
        let dg = DirectedGraph::orient(&graph, &family.relabeling(&graph, &mut rng));
        let mut group = c.benchmark_group(format!(
            "listing/kernel_policy_{}",
            method.name().to_lowercase()
        ));
        group.throughput(Throughput::Elements(graph.m() as u64));
        for policy in [KernelPolicy::PaperFaithful, KernelPolicy::adaptive()] {
            // kernels (incl. hub bitmaps) built once, outside the timed
            // region: this measures steady-state listing throughput
            let kernels = Kernels::build(policy, &dg);
            group.bench_with_input(
                BenchmarkId::from_parameter(policy.name()),
                &policy,
                |b, _| b.iter(|| black_box(method.run_with_kernels(&dg, &kernels, |_, _, _| {}))),
            );
        }
        group.finish();
    }
}

fn bench_work_stealing(c: &mut Criterion) {
    // the work-stealing runtime swept over worker counts; on a multicore
    // host the E1 wall time should halve by 4 threads (see thread_scaling)
    let graph = fixture_graph(30_000, 1.5, 19);
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    for method in [Method::E1, Method::T1] {
        let family = method.optimal_family();
        let dg = DirectedGraph::orient(&graph, &family.relabeling(&graph, &mut rng));
        let mut group = c.benchmark_group(format!(
            "listing/work_stealing_{}",
            method.name().to_lowercase()
        ));
        group.throughput(Throughput::Elements(graph.m() as u64));
        for threads in [1usize, 2, 4, 8] {
            group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
                b.iter(|| black_box(par_list(&dg, method, t).unwrap().cost.triangles))
            });
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fundamental_methods, bench_t1_oracles, bench_orientation_effect,
        bench_kernel_policy, bench_work_stealing
}
criterion_main!(benches);
