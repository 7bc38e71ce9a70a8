//! Differential suite for the dynamic-graph layer: applying random edit
//! batches and listing only the *new* triangles of the window must agree
//! — exactly — with a from-scratch recomputation on the materialized
//! after-graph.
//!
//! Three contracts, each across ≥ 3 edit-batch seeds:
//!
//! 1. **Union**: `new triangles ∪ surviving triangles == scratch
//!    triangles of the after-graph`, where survivors are the
//!    before-graph triangles that lost no edge, for every fundamental
//!    method (T1/T2/E1/E4 all list the same set).
//! 2. **Invariance**: the delta run's merged `CostReport` and triangle
//!    list are byte-identical across plain/compressed layout, 1–4
//!    threads, and chunking — per kernel policy.
//! 3. **Resume**: an interrupted delta run continued through its parsed
//!    resume token reproduces the uninterrupted run byte-identically,
//!    chunk for chunk.

use std::collections::BTreeSet;

use rand::{Rng, SeedableRng};
use trilist::core::{
    list_new_triangles_src, list_triangles, materialize, net_changes, CompressedCsr, CostReport,
    DeltaOpts, DeltaOutcome, DeltaRun, GraphSource, KernelPolicy, Kernels, Method, ResumePoint,
    RunBudget,
};
use trilist::graph::Graph;
use trilist::order::{DirectedGraph, OrderFamily};

/// A reproducible G(n, p) base graph.
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

/// Four random edit batches over `base` — insert, remove, insert,
/// remove — engineered so the window exercises every toggle shape:
/// plain inserts, plain removes, insert-then-remove (net nothing), and
/// remove-then-reinsert (net nothing, but a transient hole mid-window).
fn random_batches(base: &Graph, seed: u64) -> Vec<DeltaRun> {
    let n = base.n();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut present: BTreeSet<(u32, u32)> = base.edges().collect();
    let mut runs: Vec<DeltaRun> = Vec::new();

    let apply_insert = |batch: Vec<(u32, u32)>,
                        present: &mut BTreeSet<(u32, u32)>,
                        runs: &mut Vec<DeltaRun>| {
        let run = DeltaRun::insert_batch(n, &batch, |u, v| present.contains(&(u.min(v), u.max(v))))
            .expect("insert batch validated by construction");
        for &e in &batch {
            present.insert(e);
        }
        runs.push(run);
    };
    let apply_remove = |batch: Vec<(u32, u32)>,
                        present: &mut BTreeSet<(u32, u32)>,
                        runs: &mut Vec<DeltaRun>| {
        let run = DeltaRun::remove_batch(n, &batch, |u, v| present.contains(&(u.min(v), u.max(v))))
            .expect("remove batch validated by construction");
        for e in &batch {
            present.remove(e);
        }
        runs.push(run);
    };

    let sample_absent = |present: &BTreeSet<(u32, u32)>, k: usize, rng: &mut rand::rngs::StdRng| {
        let mut out = BTreeSet::new();
        while out.len() < k {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u == v {
                continue;
            }
            let e = (u.min(v), u.max(v));
            if !present.contains(&e) {
                out.insert(e);
            }
        }
        out.into_iter().collect::<Vec<_>>()
    };
    let sample_present =
        |present: &BTreeSet<(u32, u32)>, k: usize, rng: &mut rand::rngs::StdRng| {
            let pool: Vec<(u32, u32)> = present.iter().copied().collect();
            let mut out = BTreeSet::new();
            while out.len() < k.min(pool.len()) {
                out.insert(pool[rng.gen_range(0..pool.len())]);
            }
            out.into_iter().collect::<Vec<_>>()
        };

    // Batch 0: a dozen fresh inserts.
    let inserted = sample_absent(&present, 12, &mut rng);
    apply_insert(inserted.clone(), &mut present, &mut runs);

    // Batch 1: removals — a couple of the batch-0 inserts (net nothing)
    // plus base edges (candidates for net-removed or reinsert churn).
    let mut removal: Vec<(u32, u32)> = inserted.iter().take(2).copied().collect();
    for e in sample_present(&present, 8, &mut rng) {
        if !removal.contains(&e) {
            removal.push(e);
        }
    }
    removal.sort_unstable();
    let reinsert: Vec<(u32, u32)> = removal
        .iter()
        .filter(|e| !inserted.contains(e))
        .take(3)
        .copied()
        .collect();
    apply_remove(removal, &mut present, &mut runs);

    // Batch 2: reinsert some just-removed base edges (transient hole,
    // net nothing) plus fresh inserts.
    let mut insertion = reinsert;
    insertion.extend(sample_absent(&present, 6, &mut rng));
    insertion.sort_unstable();
    insertion.dedup();
    apply_insert(insertion, &mut present, &mut runs);

    // Batch 3: a final sweep of removals.
    let removal = sample_present(&present, 5, &mut rng);
    apply_remove(removal, &mut present, &mut runs);

    runs
}

/// Sorted triangle set of a from-scratch run.
fn scratch(g: &Graph, method: Method, seed: u64) -> BTreeSet<(u32, u32, u32)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    list_triangles(g, method, OrderFamily::Descending, &mut rng)
        .triangles
        .into_iter()
        .collect()
}

/// The shared fixture: one relabeled after-graph plus the window's
/// net-new edges in label space, sorted.
struct Fixture {
    after: Graph,
    dg: DirectedGraph,
    csr: CompressedCsr,
    inverse: Vec<u32>,
    label_edges: Vec<(u32, u32)>,
    net_removed: Vec<(u32, u32)>,
}

fn fixture(base: &Graph, runs: &[DeltaRun], seed: u64) -> Fixture {
    let after = materialize(base, runs.iter());
    let (net_new, net_removed) = net_changes(runs.iter());
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let relabeling = OrderFamily::Descending.relabeling(&after, &mut rng);
    let dg = DirectedGraph::orient(&after, &relabeling);
    let csr = CompressedCsr::compress(&dg);
    let inverse = relabeling.inverse();
    let mut forward = vec![0u32; inverse.len()];
    for (label, &orig) in inverse.iter().enumerate() {
        forward[orig as usize] = label as u32;
    }
    let mut label_edges: Vec<(u32, u32)> = net_new
        .iter()
        .map(|&(u, v)| {
            let (a, b) = (forward[u as usize], forward[v as usize]);
            (a.min(b), a.max(b))
        })
        .collect();
    label_edges.sort_unstable();
    Fixture {
        after,
        dg,
        csr,
        inverse,
        label_edges,
        net_removed,
    }
}

fn map_back(inverse: &[u32], tris: &[(u32, u32, u32)]) -> Vec<(u32, u32, u32)> {
    let mut out: Vec<(u32, u32, u32)> = tris
        .iter()
        .map(|&(x, y, z)| {
            let mut t = [
                inverse[x as usize],
                inverse[y as usize],
                inverse[z as usize],
            ];
            t.sort_unstable();
            (t[0], t[1], t[2])
        })
        .collect();
    out.sort_unstable();
    out
}

const SEEDS: [u64; 3] = [0xD11A, 0xD11B, 0xD11C];

#[test]
fn new_union_survivors_equals_scratch_recompute_for_every_method() {
    for seed in SEEDS {
        let base = gnp(60, 0.15, seed);
        let runs = random_batches(&base, seed ^ 0xBA7C);
        let f = fixture(&base, &runs, seed);

        let removed: BTreeSet<(u32, u32)> = f.net_removed.iter().copied().collect();
        let before = scratch(&base, Method::E1, seed);
        let survivors: BTreeSet<(u32, u32, u32)> = before
            .iter()
            .filter(|&&(x, y, z)| {
                [(x, y), (x, z), (y, z)]
                    .iter()
                    .all(|&(a, b)| !removed.contains(&(a.min(b), a.max(b))))
            })
            .copied()
            .collect();

        let kernels = Kernels::build_src(KernelPolicy::adaptive(), GraphSource::Plain(&f.dg));
        let outcome = list_new_triangles_src(
            GraphSource::Plain(&f.dg),
            &kernels,
            &f.label_edges,
            &DeltaOpts::default(),
        );
        assert!(matches!(outcome, DeltaOutcome::Complete { .. }));
        let new: BTreeSet<(u32, u32, u32)> = map_back(&f.inverse, &outcome.triangles())
            .into_iter()
            .collect();

        // New triangles each contain a net-new edge, so they are disjoint
        // from the survivors (whose edges all predate the window).
        assert!(new.is_disjoint(&survivors), "seed {seed:#x}: overlap");

        for method in Method::FUNDAMENTAL {
            let expected = scratch(&f.after, method, seed ^ 0x5eed);
            let union: BTreeSet<(u32, u32, u32)> = new.union(&survivors).copied().collect();
            assert_eq!(
                union, expected,
                "seed {seed:#x} {method}: new ∪ survivors != scratch recompute"
            );
        }
        // The window's multiset really exercised all toggle shapes.
        assert!(!f.label_edges.is_empty() && !f.net_removed.is_empty());
        assert!(
            !new.is_empty(),
            "seed {seed:#x}: window produced no new triangles"
        );
    }
}

#[test]
fn delta_cost_and_triangles_invariant_across_layout_threads_and_chunking() {
    for seed in SEEDS {
        let base = gnp(60, 0.15, seed);
        let runs = random_batches(&base, seed ^ 0xBA7C);
        let f = fixture(&base, &runs, seed);

        for policy in [KernelPolicy::PaperFaithful, KernelPolicy::adaptive()] {
            type Reference = (CostReport, Vec<(u32, u32, u32)>);
            let mut reference: Option<Reference> = None;
            for compressed in [false, true] {
                let src = if compressed {
                    GraphSource::Compressed(&f.csr)
                } else {
                    GraphSource::Plain(&f.dg)
                };
                let kernels = Kernels::build_src(policy, src);
                for threads in 1..=4usize {
                    for target_chunk_ops in [64u64, 1024] {
                        let outcome = list_new_triangles_src(
                            src,
                            &kernels,
                            &f.label_edges,
                            &DeltaOpts {
                                threads,
                                target_chunk_ops,
                                budget: RunBudget::unlimited(),
                                ..DeltaOpts::default()
                            },
                        );
                        assert!(matches!(outcome, DeltaOutcome::Complete { .. }));
                        let got = (outcome.cost(), map_back(&f.inverse, &outcome.triangles()));
                        match &reference {
                            None => reference = Some(got),
                            Some(expect) => assert_eq!(
                                expect,
                                &got,
                                "seed {seed:#x} policy {} layout compressed={compressed} \
                                 threads={threads} chunk={target_chunk_ops}: drifted",
                                policy.name()
                            ),
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn interrupted_delta_run_resumes_byte_identically() {
    for seed in SEEDS {
        let base = gnp(60, 0.15, seed);
        let runs = random_batches(&base, seed ^ 0xBA7C);
        let f = fixture(&base, &runs, seed);
        let src = GraphSource::Plain(&f.dg);
        let kernels = Kernels::build_src(KernelPolicy::adaptive(), src);
        let small_chunks = |budget: RunBudget| DeltaOpts {
            threads: 2,
            target_chunk_ops: 64,
            budget,
            ..DeltaOpts::default()
        };

        let full = list_new_triangles_src(
            src,
            &kernels,
            &f.label_edges,
            &small_chunks(RunBudget::unlimited()),
        );
        let DeltaOutcome::Complete { pieces: expected } = full else {
            panic!("unlimited budget cannot stop early");
        };
        assert!(
            expected.len() >= 2,
            "seed {seed:#x}: want a multi-chunk run"
        );

        // A 1-byte memory ceiling trips at the very first budget check
        // (the rank set alone exceeds it), so the run stops with zero
        // pieces and a resume token covering every chunk.
        let interrupted = list_new_triangles_src(
            src,
            &kernels,
            &f.label_edges,
            &small_chunks(RunBudget::unlimited().with_memory_bytes(1)),
        );
        let DeltaOutcome::Partial {
            pieces,
            resume,
            reason,
        } = interrupted
        else {
            panic!("1-byte ceiling must interrupt");
        };
        assert!(pieces.is_empty());
        assert_eq!(reason.to_string(), "memory budget exhausted");

        // Round-trip the token through its wire text, then replay.
        let token: ResumePoint = resume.to_string().parse().expect("token parses");
        assert_eq!(token, resume);
        let resumed = token
            .run_new_triangles_src(
                src,
                &kernels,
                &f.label_edges,
                &small_chunks(RunBudget::unlimited()),
            )
            .expect("shape pins match");
        let DeltaOutcome::Complete { pieces: resumed } = resumed else {
            panic!("resumed run must complete");
        };
        assert_eq!(resumed, expected, "seed {seed:#x}: resume drifted");

        // Replaying a strict subset of chunks reproduces exactly those
        // pieces — chunk identity is stable, not positional.
        let odd_ranges: Vec<_> = token
            .ranges()
            .iter()
            .filter(|(c, _)| c % 2 == 1)
            .cloned()
            .collect();
        if !odd_ranges.is_empty() {
            let odd = ResumePoint::new(token.domain(), token.n(), token.edges(), odd_ranges)
                .expect("a subset of a token's ranges is a token");
            let out = odd
                .run_new_triangles_src(
                    src,
                    &kernels,
                    &f.label_edges,
                    &small_chunks(RunBudget::unlimited()),
                )
                .expect("shape pins match");
            let want: Vec<_> = expected
                .iter()
                .filter(|p| p.chunk % 2 == 1)
                .cloned()
                .collect();
            assert_eq!(out.pieces(), &want[..]);
        }

        // Mismatched shape pins are rejected, not silently mislisted.
        let wrong = ResumePoint::new(
            token.domain(),
            token.n(),
            token.edges() + 1,
            token.ranges().to_vec(),
        )
        .expect("a wider edge count still holds every range");
        assert!(wrong
            .run_new_triangles_src(
                src,
                &kernels,
                &f.label_edges,
                &small_chunks(RunBudget::unlimited())
            )
            .is_err());
    }
}
