//! Observability differential suite: attaching a recorder must never
//! change what the runtime computes. Across every fundamental method,
//! the kernel policies, and 1/2/4 worker threads, a run with an
//! [`InMemoryRecorder`] attached is compared byte-for-byte (triangles and
//! merged `CostReport`) against the same run with no recorder. On top of
//! the equality, the recorded spans themselves are checked for structural
//! invariants: ok-spans partition the visited range exactly once, retry
//! attempts stay under `max_attempts`, and span-derived telemetry agrees
//! with the scheduler's own [`ThreadStats`].

use std::sync::Arc;
use std::time::Duration;
use trilist::core::{
    list_new_triangles_src, list_resilient, silence_injected_panics, ChunkSpan, Counter, DeltaOpts,
    FaultPlan, GraphSource, InMemoryRecorder, KernelPolicy, Kernels, Method, ResilientOpts,
    RunOutcome, WorkDomain,
};
use trilist::graph::dist::{sample_degree_sequence, DiscretePareto, Truncated};
use trilist::graph::gen::{GraphGenerator, ResidualSampler};
use trilist::order::{DirectedGraph, OrderFamily};

use rand::SeedableRng;

/// A Pareto-ish test graph oriented descending (hubs first: many chunks).
fn fixture(n: usize, seed: u64) -> DirectedGraph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let dist = Truncated::new(
        DiscretePareto {
            alpha: 1.6,
            beta: 5.0,
        },
        40,
    );
    let (seq, _) = sample_degree_sequence(&dist, n, &mut rng);
    let g = ResidualSampler.generate(&seq, &mut rng).graph;
    let relabeling = OrderFamily::Descending.relabeling(&g, &mut rng);
    DirectedGraph::orient(&g, &relabeling)
}

fn opts(threads: usize, policy: KernelPolicy) -> ResilientOpts {
    let mut o = ResilientOpts::with_threads(threads);
    o.parallel.target_chunk_ops = 256; // plenty of chunks to record
    o.parallel.policy = policy;
    o
}

/// Asserts the ok chunk-spans partition `0..n`: sorted by chunk index,
/// their ranges are contiguous, non-overlapping, and cover everything.
fn assert_spans_partition(spans: &[ChunkSpan], n: u32, ctx: &str) {
    let mut ok: Vec<&ChunkSpan> = spans.iter().filter(|s| !s.is_setup() && s.ok).collect();
    ok.sort_by_key(|s| s.chunk);
    let mut cursor = 0u32;
    for (i, s) in ok.iter().enumerate() {
        assert_eq!(s.chunk as usize, i, "{ctx}: chunk indices not dense");
        assert_eq!(
            s.range.start, cursor,
            "{ctx}: chunk {} starts at {} not {cursor}",
            s.chunk, s.range.start
        );
        cursor = s.range.end;
    }
    assert_eq!(
        cursor, n,
        "{ctx}: spans cover 0..{cursor}, graph has 0..{n}"
    );
}

#[test]
fn recorder_never_changes_results() {
    let dg = fixture(3_000, 41);
    let n = dg.n() as u32;
    for method in Method::FUNDAMENTAL {
        for (pname, policy) in [
            ("paper", KernelPolicy::PaperFaithful),
            ("adaptive", KernelPolicy::adaptive()),
        ] {
            for threads in [1usize, 2, 4] {
                let ctx = format!("{}/{pname}/{threads}t", method.name());
                let bare = match list_resilient(&dg, method, &opts(threads, policy)).unwrap() {
                    RunOutcome::Complete(run) => run,
                    RunOutcome::Partial(_) => panic!("{ctx}: unbudgeted run must complete"),
                };
                let rec = Arc::new(InMemoryRecorder::new());
                let mut o = opts(threads, policy);
                o.recorder = Some(rec.clone());
                let observed = match list_resilient(&dg, method, &o).unwrap() {
                    RunOutcome::Complete(run) => run,
                    RunOutcome::Partial(_) => panic!("{ctx}: unbudgeted run must complete"),
                };

                // the accounting contract: recording is invisible to results
                assert_eq!(observed.triangles, bare.triangles, "{ctx}: triangles");
                assert_eq!(observed.cost, bare.cost, "{ctx}: cost report");
                assert_eq!(observed.chunks, bare.chunks, "{ctx}: chunk count");

                let spans = rec.spans();
                assert_spans_partition(&spans, n, &ctx);
                // no faults injected: every chunk ran exactly once
                let chunk_spans = spans.iter().filter(|s| !s.is_setup()).count();
                assert_eq!(chunk_spans, bare.chunks, "{ctx}: one span per chunk");
                assert!(
                    spans.iter().all(|s| s.attempt == 0),
                    "{ctx}: no retries expected"
                );
                // Σ span ops == the merged cost's operations
                let span_ops: u64 = spans.iter().map(|s| s.ops).sum();
                assert_eq!(span_ops, observed.cost.operations(), "{ctx}: span ops");

                // span-derived telemetry agrees with the scheduler's own
                let span_busy: u64 = spans
                    .iter()
                    .filter(|s| !s.is_setup())
                    .map(|s| s.dur_ns)
                    .sum();
                let stats_busy: u64 = observed
                    .threads
                    .iter()
                    .map(|t| t.busy.as_nanos() as u64)
                    .sum();
                assert_eq!(span_busy, stats_busy, "{ctx}: busy time");
                let eff_spans = rec.load_balance_efficiency(threads);
                let eff_stats = observed.load_balance_efficiency();
                assert!(
                    (eff_spans - eff_stats).abs() < 1e-4,
                    "{ctx}: efficiency {eff_spans} vs {eff_stats}"
                );
                let stats_steals: u64 = observed.threads.iter().map(|t| t.steals).sum();
                assert_eq!(rec.counter(Counter::Steals), stats_steals, "{ctx}: steals");
                // T-methods audit the hash oracle: hits are triangles
                if matches!(method, Method::T1 | Method::T2) {
                    assert_eq!(
                        rec.counter(Counter::OracleHits),
                        observed.cost.triangles,
                        "{ctx}: oracle hits"
                    );
                    assert_eq!(
                        rec.counter(Counter::OracleHits) + rec.counter(Counter::OracleMisses),
                        observed.cost.lookups,
                        "{ctx}: oracle hit+miss = lookups"
                    );
                }
            }
        }
    }
}

/// The recorder counters a run's kernel meters feed.
const KERNEL_COUNTERS: [Counter; 8] = [
    Counter::IntersectPaper,
    Counter::IntersectBranchless,
    Counter::IntersectGallop,
    Counter::IntersectBitmap,
    Counter::IntersectBitset,
    Counter::GallopSteps,
    Counter::BitmapProbes,
    Counter::BitsetBlockSteps,
];

fn kernel_tallies(rec: &InMemoryRecorder) -> [u64; 8] {
    KERNEL_COUNTERS.map(|c| rec.counter(c))
}

/// The path the server takes: a context prebuilt once and shared by every
/// worker, under the recorder it always attaches. Every worker meters its
/// own clone of the context, so the tallies must be exact — equal to the
/// 1-thread run's at every thread count, whether the context is shared or
/// built by the run — and recording must stay invisible to results.
#[test]
fn recorder_tallies_are_exact_across_threads_and_context_sources() {
    let dg = fixture(3_000, 47);
    for method in Method::FUNDAMENTAL {
        for (pname, policy) in [
            ("adaptive", KernelPolicy::adaptive()),
            ("bitset", KernelPolicy::bitset()),
        ] {
            let shared = Arc::new(Kernels::build(policy, &dg));
            let mut reference: Option<[u64; 8]> = None;
            for (source, kernels) in [("per-run", None), ("shared", Some(shared))] {
                for threads in [1usize, 2, 4] {
                    let ctx = format!("{}/{pname}/{source}/{threads}t", method.name());
                    let mut o = opts(threads, policy);
                    o.kernels = kernels.clone();
                    let bare = list_resilient(&dg, method, &o)
                        .unwrap()
                        .complete()
                        .expect("unbudgeted run completes");
                    let rec = Arc::new(InMemoryRecorder::without_span_list());
                    o.recorder = Some(rec.clone());
                    let observed = list_resilient(&dg, method, &o)
                        .unwrap()
                        .complete()
                        .expect("unbudgeted run completes");
                    assert_eq!(observed.triangles, bare.triangles, "{ctx}: triangles");
                    assert_eq!(observed.cost, bare.cost, "{ctx}: cost report");
                    let tallies = kernel_tallies(&rec);
                    let want = *reference.get_or_insert(tallies);
                    assert_eq!(tallies, want, "{ctx}: kernel tallies vs 1 thread");
                }
            }
            let calls: u64 = reference.expect("runs recorded")[..5].iter().sum();
            if matches!(method, Method::E1 | Method::E4) {
                assert!(
                    calls > 0,
                    "{}/{pname}: intersections metered",
                    method.name()
                );
            }
        }
    }
}

#[test]
fn recorder_is_invisible_under_fault_injection() {
    silence_injected_panics();
    let dg = fixture(2_000, 77);
    let n = dg.n() as u32;
    for method in Method::FUNDAMENTAL {
        let ctx = format!("{}/faults", method.name());
        let mut bare_opts = opts(2, KernelPolicy::PaperFaithful);
        bare_opts.fault_plan = Some(FaultPlan::panic_at(9, 300, 2));
        bare_opts.max_attempts = 4;
        let bare = match list_resilient(&dg, method, &bare_opts).unwrap() {
            RunOutcome::Complete(run) => run,
            RunOutcome::Partial(_) => panic!("{ctx}: recoverable faults must complete"),
        };
        let rec = Arc::new(InMemoryRecorder::new());
        let mut o = bare_opts.clone();
        o.recorder = Some(rec.clone());
        let observed = match list_resilient(&dg, method, &o).unwrap() {
            RunOutcome::Complete(run) => run,
            RunOutcome::Partial(_) => panic!("{ctx}: recoverable faults must complete"),
        };
        assert_eq!(observed.triangles, bare.triangles, "{ctx}: triangles");
        assert_eq!(observed.cost, bare.cost, "{ctx}: cost report");

        let spans = rec.spans();
        assert_spans_partition(&spans, n, &ctx);
        // the fault plan is deterministic per (chunk, attempt): both runs
        // saw the same faults, and every faulted attempt left a span
        assert_eq!(
            spans.iter().filter(|s| !s.ok).count(),
            observed.faults.len(),
            "{ctx}: one failed span per quarantined fault"
        );
        assert!(
            spans.iter().all(|s| s.attempt < o.max_attempts),
            "{ctx}: attempts bounded by max_attempts"
        );
        assert_eq!(
            rec.counter(Counter::ChunkRetries),
            spans.iter().filter(|s| s.attempt > 0).count() as u64,
            "{ctx}: retry counter matches retry spans"
        );
        // failed attempts contribute no ops
        assert!(
            spans.iter().filter(|s| !s.ok).all(|s| s.ops == 0),
            "{ctx}: faulted spans carry no ops"
        );
        let span_ops: u64 = spans.iter().map(|s| s.ops).sum();
        assert_eq!(span_ops, observed.cost.operations(), "{ctx}: span ops");
    }
}

#[test]
fn degraded_final_attempts_report_paper_policy() {
    silence_injected_panics();
    let dg = fixture(1_500, 5);
    // faulted chunks panic on attempts 0 and 1, so they only succeed on
    // the degraded final attempt (max_attempts = 3)
    let rec = Arc::new(InMemoryRecorder::new());
    let mut o = opts(2, KernelPolicy::adaptive());
    o.fault_plan = Some(FaultPlan::panic_at(3, 400, 2));
    o.max_attempts = 3;
    o.recorder = Some(rec.clone());
    let run = match list_resilient(&dg, Method::E1, &o).unwrap() {
        RunOutcome::Complete(run) => run,
        RunOutcome::Partial(_) => panic!("degraded final attempts must complete the run"),
    };
    assert!(!run.faults.is_empty(), "the plan must actually fault");
    let spans = rec.spans();
    let degraded: Vec<&ChunkSpan> = spans
        .iter()
        .filter(|s| !s.is_setup() && s.attempt + 1 == o.max_attempts)
        .collect();
    assert!(
        !degraded.is_empty(),
        "some chunk must reach the last attempt"
    );
    assert!(
        degraded.iter().all(|s| s.policy == "paper"),
        "degraded attempts run (and report) the paper kernel"
    );
    assert_eq!(
        rec.counter(Counter::Degradations),
        degraded.len() as u64,
        "degradation counter matches degraded spans"
    );
    // non-degraded successful attempts report the configured policy
    assert!(
        spans
            .iter()
            .filter(|s| !s.is_setup() && s.attempt + 1 < o.max_attempts)
            .all(|s| s.policy == "adaptive"),
        "regular attempts report the configured policy"
    );
}

#[test]
fn budget_interruption_spans_stay_within_completed_chunks() {
    let dg = fixture(4_000, 23);
    let rec = Arc::new(InMemoryRecorder::new());
    let mut o = opts(2, KernelPolicy::PaperFaithful);
    o.budget = trilist::core::RunBudget::unlimited().with_deadline(Duration::from_micros(300));
    o.recorder = Some(rec.clone());
    match list_resilient(&dg, Method::E4, &o).unwrap() {
        RunOutcome::Complete(_) => {} // machine outran the deadline: nothing to check
        RunOutcome::Partial(p) => {
            let spans = rec.spans();
            let ok_spans: Vec<&ChunkSpan> =
                spans.iter().filter(|s| !s.is_setup() && s.ok).collect();
            // every ok span corresponds to a completed piece, exactly once
            assert_eq!(
                ok_spans.len(),
                p.completed.len(),
                "span per completed chunk"
            );
            for s in &ok_spans {
                assert!(
                    p.completed
                        .iter()
                        .any(|c| c.chunk == s.chunk && c.range == s.range),
                    "span chunk {} not among completed pieces",
                    s.chunk
                );
            }
            assert!(rec.counter(Counter::BudgetChecks) > 0, "budget was checked");
        }
    }
}

#[test]
fn recorder_never_changes_delta_results_and_tags_delta_spans() {
    let dg = fixture(3_000, 43);
    let n = dg.n() as u32;
    let src = GraphSource::Plain(&dg);
    // every fourth edge as a net-new delta: its new triangles are the
    // graph's triangles that touch it
    let mut edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|v| dg.out(v).iter().map(move |&w| (v.min(w), v.max(w))))
        .collect();
    edges.sort_unstable();
    let edges: Vec<(u32, u32)> = edges.into_iter().step_by(4).collect();
    for (pname, policy) in [
        ("paper", KernelPolicy::PaperFaithful),
        ("adaptive", KernelPolicy::adaptive()),
        ("bitset", KernelPolicy::bitset()),
    ] {
        let kernels = Kernels::build_src(policy, src);
        let mut reference: Option<[u64; 8]> = None;
        for threads in [1usize, 2, 4] {
            let ctx = format!("delta/{pname}/{threads}t");
            let delta_opts = DeltaOpts {
                threads,
                target_chunk_ops: 256,
                ..DeltaOpts::default()
            };
            let bare = list_new_triangles_src(src, &kernels, &edges, &delta_opts);
            let rec = Arc::new(InMemoryRecorder::new());
            let recorded = DeltaOpts {
                recorder: Some(rec.clone()),
                ..delta_opts
            };
            let observed = list_new_triangles_src(src, &kernels, &edges, &recorded);
            // the accounting contract: recording is invisible to results
            assert_eq!(observed, bare, "{ctx}: outcome");
            // each worker meters its own clone: no tally is lost
            let tallies = kernel_tallies(&rec);
            let want = *reference.get_or_insert(tallies);
            assert_eq!(tallies, want, "{ctx}: kernel tallies vs 1 thread");
            assert!(tallies[..5].iter().sum::<u64>() > 0, "{ctx}: metered");

            // a listing run on the same recorder: its spans stay apart
            let mut o = opts(threads, policy);
            o.recorder = Some(rec.clone());
            let listed = list_resilient(&dg, Method::E1, &o).unwrap();
            let spans = rec.spans();
            let (delta, listing): (Vec<ChunkSpan>, Vec<ChunkSpan>) = spans
                .into_iter()
                .partition(|s| s.domain == WorkDomain::Delta);
            assert!(listing
                .iter()
                .all(|s| s.domain == WorkDomain::Listing(Method::E1)));
            assert_spans_partition(&delta, edges.len() as u32, &ctx);
            assert_spans_partition(&listing, n, &ctx);
            let delta_chunks = delta.iter().filter(|s| !s.is_setup()).count();
            assert_eq!(
                delta_chunks,
                bare.pieces().len(),
                "{ctx}: one span per chunk"
            );
            let ops: u64 = delta.iter().map(|s| s.ops).sum();
            assert_eq!(ops, bare.cost().operations(), "{ctx}: span ops");
            assert!(matches!(listed, RunOutcome::Complete(_)), "{ctx}");
        }
    }
}
