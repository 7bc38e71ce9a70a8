//! Fault-injection differential suite for the resilient runtime: across a
//! seeded matrix of fault kinds (recoverable panics, permanent panics,
//! slow chunks, alloc pressure), every fundamental method, and 1–4 worker
//! threads, a budgeted run must either complete byte-identically to the
//! sequential listing or stop cleanly at a chunk boundary with a
//! [`PartialRun`] whose resume-and-merge is byte-identical — same triangle
//! emission order, same merged `CostReport` — to an uninterrupted run.
//! Interruptions (deadline, cancellation, memory) must never tear a chunk:
//! the completed pieces are always an exact subset of the sequential
//! chunking.

use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use trilist::core::{
    list_new_triangles_src, list_resilient, silence_injected_panics, CancelToken, ChunkPiece,
    Counter, DeltaOpts, DeltaOutcome, Emit, FaultPlan, GraphSource, HashOracle, Kernels, Method,
    Recorder, ResilientOpts, ResumePoint, RunBudget, RunOutcome, StopReason,
};
use trilist::graph::dist::{sample_degree_sequence, DiscretePareto, Truncated};
use trilist::graph::gen::{GraphGenerator, ResidualSampler};
use trilist::order::{DirectedGraph, OrderFamily};

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

fn opts(threads: usize) -> ResilientOpts {
    let mut o = ResilientOpts::with_threads(threads);
    o.parallel.target_chunk_ops = 256; // plenty of chunks to fault
    o
}

/// Asserts the outcome equals the sequential run — directly when complete,
/// after a clean (unlimited, fault-free) resume when partial. Returns how
/// the outcome ended for matrix accounting.
fn assert_complete_or_resumes(
    dg: &DirectedGraph,
    method: Method,
    outcome: RunOutcome,
    threads: usize,
    ctx: &str,
) -> &'static str {
    let mut seq = Vec::new();
    let seq_cost = method.run(dg, |x, y, z| seq.push((x, y, z)));
    match outcome {
        RunOutcome::Complete(run) => {
            assert_eq!(run.triangles, seq, "{ctx}: complete run diverged");
            assert_eq!(run.cost, seq_cost, "{ctx}: complete cost diverged");
            "complete"
        }
        RunOutcome::Partial(partial) => {
            // the partial piece set is a clean prefix-by-chunk subset:
            // no torn chunks, no duplicated triangles
            let total = partial.total_chunks();
            assert!(
                partial.completed_chunks() < total,
                "{ctx}: partial but done"
            );
            let merged = partial
                .resume_with(dg, &opts(threads))
                .unwrap_or_else(|e| panic!("{ctx}: resume rejected: {e}"))
                .complete()
                .unwrap_or_else(|| panic!("{ctx}: clean resume did not complete"));
            assert_eq!(merged.triangles, seq, "{ctx}: merged run diverged");
            assert_eq!(merged.cost, seq_cost, "{ctx}: merged cost diverged");
            "partial"
        }
    }
}

#[test]
fn fault_matrix_complete_or_resume_identical() {
    silence_injected_panics();
    let dg = fixture(500, 0xFA_17);
    type PlanFn = fn(u64) -> FaultPlan;
    let plans: [(&str, PlanFn); 4] = [
        ("panic-recoverable", |s| FaultPlan::panic_at(s, 300, 2)),
        ("panic-permanent", |s| FaultPlan::panic_at(s, 150, u32::MAX)),
        ("slow", |s| {
            FaultPlan::slow_chunks(s, 400, Duration::from_micros(100))
        }),
        ("alloc", |s| FaultPlan::alloc_pressure(s, 400, 1 << 16)),
    ];
    let mut partials = 0usize;
    for seed in [1u64, 2, 3] {
        for (kind, plan) in &plans {
            for method in Method::FUNDAMENTAL {
                for threads in [1usize, 2, 4] {
                    let ctx = format!("{kind} seed={seed} {method} threads={threads}");
                    let mut o = opts(threads);
                    o.fault_plan = Some(plan(seed));
                    let outcome = list_resilient(&dg, method, &o).expect("fundamental");
                    let ended = assert_complete_or_resumes(&dg, method, outcome, threads, &ctx);
                    if ended == "partial" {
                        partials += 1;
                        assert_eq!(*kind, "panic-permanent", "{ctx}: unexpected partial");
                    } else if *kind == "panic-permanent" {
                        panic!("{ctx}: permanent faults must leave a partial run");
                    }
                }
            }
        }
    }
    // the permanent-panic leg of the matrix must actually exercise resume
    assert_eq!(partials, 3 * 4 * 3, "3 seeds x 4 methods x 3 thread counts");
}

#[test]
fn recoverable_faults_recover_without_changing_telemetry_totals() {
    silence_injected_panics();
    let dg = fixture(500, 0xFA_18);
    let seq_cost = Method::E4.run(&dg, |_, _, _| {});
    let mut o = opts(3);
    o.fault_plan = Some(FaultPlan::seeded(9)); // mixed: 1-shot panics, slow, alloc
    let run = list_resilient(&dg, Method::E4, &o)
        .unwrap()
        .complete()
        .expect("seeded plan's panics are single-attempt: recoverable");
    assert_eq!(run.cost, seq_cost);
    assert!(!run.faults.is_empty(), "the plan must fire at this scale");
    assert!(run.faults.iter().all(|f| !f.fatal));
    // retried chunks are counted once in the merged telemetry
    let processed: u64 = run.threads.iter().map(|t| t.chunks).sum();
    assert!(processed as usize >= run.chunks);
}

#[test]
fn pre_cancelled_run_stops_before_any_chunk() {
    let dg = fixture(400, 0xFA_19);
    for method in Method::FUNDAMENTAL {
        let token = CancelToken::new();
        token.cancel();
        let mut o = opts(2);
        o.budget = RunBudget::unlimited().with_cancel(token);
        let partial = list_resilient(&dg, method, &o)
            .unwrap()
            .partial()
            .expect("a cancelled token must interrupt the run");
        assert_eq!(partial.reason, StopReason::Cancelled, "{method}");
        assert_eq!(partial.completed_chunks(), 0, "{method}");
        assert!(partial.triangles().is_empty(), "{method}: torn output");
    }
}

#[test]
fn mid_run_cancellation_leaves_a_mergeable_prefix() {
    let dg = fixture(600, 0xFA_20);
    // slow every chunk so the run outlives the cancellation trigger
    let mut o = opts(2);
    o.fault_plan = Some(FaultPlan::slow_chunks(5, 1000, Duration::from_micros(500)));
    let token = CancelToken::new();
    o.budget = RunBudget::unlimited().with_cancel(token.clone());
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(4));
        token.cancel();
    });
    let outcome = list_resilient(&dg, Method::E1, &o).unwrap();
    canceller.join().unwrap();
    // either it beat the trigger (complete) or it stopped cleanly; both
    // must reconstruct the sequential run exactly
    assert_complete_or_resumes(&dg, Method::E1, outcome, 2, "mid-run cancel");
}

#[test]
fn zero_deadline_terminates_immediately_and_resumes_to_identical() {
    let dg = fixture(500, 0xFA_21);
    for threads in [1usize, 4] {
        let mut o = opts(threads);
        o.budget = RunBudget::unlimited().with_deadline(Duration::ZERO);
        let outcome = list_resilient(&dg, Method::T1, &o).unwrap();
        match &outcome {
            RunOutcome::Partial(p) => {
                assert_eq!(p.reason, StopReason::DeadlineExceeded);
                assert_eq!(p.completed_chunks(), 0, "threads={threads}");
            }
            RunOutcome::Complete(_) => panic!("zero deadline must interrupt"),
        }
        assert_complete_or_resumes(&dg, Method::T1, outcome, threads, "zero deadline");
    }
}

#[test]
fn memory_ceiling_interrupts_oracle_methods_and_resume_completes() {
    let dg = fixture(800, 0xFA_22);
    // T1/T2 charge the hash oracle (~12 bytes/edge) up front; a ceiling
    // below that trips before any chunk runs
    let mut o = opts(2);
    o.budget = RunBudget::unlimited().with_memory_bytes(64);
    let outcome = list_resilient(&dg, Method::T2, &o).unwrap();
    match &outcome {
        RunOutcome::Partial(p) => assert_eq!(p.reason, StopReason::MemoryExhausted),
        RunOutcome::Complete(_) => panic!("64-byte ceiling must interrupt T2"),
    }
    assert_complete_or_resumes(&dg, Method::T2, outcome, 2, "memory ceiling");
}

#[test]
fn resume_point_round_trips_through_text_across_thread_counts() {
    silence_injected_panics();
    let dg = fixture(500, 0xFA_23);
    let mut o = opts(2);
    o.fault_plan = Some(FaultPlan::panic_at(13, 200, u32::MAX));
    o.max_attempts = 2;
    let partial = list_resilient(&dg, Method::E1, &o)
        .unwrap()
        .partial()
        .expect("permanent faults leave a partial run");
    let text = partial.resume.to_string();
    assert!(text.starts_with("trilist-resume v1 E1 n=500"), "{text}");
    let parsed: ResumePoint = text.parse().expect("serialized point re-parses");
    assert_eq!(parsed, partial.resume);
    // the deserialized point drives the remainder on a different thread
    // count; checkpointed pieces plus the remainder cover the sequential
    // run exactly — no lost and no duplicated triangles, costs additive
    let mut seq = Vec::new();
    let seq_cost = Method::E1.run(&dg, |x, y, z| seq.push((x, y, z)));
    seq.sort_unstable();
    for threads in [1usize, 3] {
        let rest = parsed
            .run(&dg, &opts(threads))
            .unwrap()
            .complete()
            .expect("fault-free remainder completes");
        let mut merged = partial.triangles();
        merged.extend(rest.triangles.iter().copied());
        merged.sort_unstable();
        assert_eq!(merged, seq, "threads={threads}");
        let mut cost = partial.cost();
        cost.accumulate(&rest.cost);
        assert_eq!(cost, seq_cost, "threads={threads}");
    }
}

#[test]
fn default_resilient_path_matches_plain_runtime() {
    let dg = fixture(700, 0xFA_24);
    for method in Method::FUNDAMENTAL {
        let plain = trilist::core::par_list(&dg, method, 3).unwrap();
        let resilient = list_resilient(&dg, method, &ResilientOpts::with_threads(3))
            .unwrap()
            .complete()
            .expect("no budget, no faults: always complete");
        assert_eq!(resilient.triangles, plain.triangles, "{method}");
        assert_eq!(resilient.cost, plain.cost, "{method}");
        assert!(resilient.faults.is_empty(), "{method}");
    }
}

/// A delta run's net-new edges over `dg`: every third edge as a sorted
/// label pair. Any edge subset is a valid delta — its new triangles are
/// the graph's triangles that touch it.
fn delta_edges(dg: &DirectedGraph) -> Vec<(u32, u32)> {
    let mut edges: Vec<(u32, u32)> = (0..dg.n() as u32)
        .flat_map(|v| dg.out(v).iter().map(move |&w| (v.min(w), v.max(w))))
        .collect();
    edges.sort_unstable();
    edges.into_iter().step_by(3).collect()
}

#[test]
fn delta_fault_matrix_complete_or_resume_identical() {
    silence_injected_panics();
    let dg = fixture(500, 0xFA_25);
    let src = GraphSource::Plain(&dg);
    let kernels = Kernels::paper();
    let edges = delta_edges(&dg);
    let opts = |threads: usize, fault_plan: Option<FaultPlan>| DeltaOpts {
        threads,
        target_chunk_ops: 64, // plenty of chunks to fault
        fault_plan,
        ..DeltaOpts::default()
    };
    let clean = list_new_triangles_src(src, &kernels, &edges, &opts(1, None));
    assert!(clean.pieces().len() >= 32, "want many chunks to fault");
    type PlanFn = fn(u64) -> FaultPlan;
    let plans: [(&str, PlanFn); 4] = [
        ("panic-recoverable", |s| FaultPlan::panic_at(s, 300, 2)),
        ("panic-permanent", |s| FaultPlan::panic_at(s, 150, u32::MAX)),
        ("slow", |s| {
            FaultPlan::slow_chunks(s, 400, Duration::from_micros(100))
        }),
        ("alloc", |s| FaultPlan::alloc_pressure(s, 400, 1 << 16)),
    ];
    let mut partials = 0usize;
    for seed in [1u64, 2, 3] {
        for (kind, plan) in &plans {
            for threads in [1usize, 2, 4] {
                let ctx = format!("delta {kind} seed={seed} threads={threads}");
                let outcome =
                    list_new_triangles_src(src, &kernels, &edges, &opts(threads, Some(plan(seed))));
                let pieces = match outcome {
                    DeltaOutcome::Complete { pieces } => {
                        assert_ne!(*kind, "panic-permanent", "{ctx}: must leave a partial run");
                        pieces
                    }
                    DeltaOutcome::Partial {
                        mut pieces,
                        resume,
                        reason,
                    } => {
                        assert_eq!(*kind, "panic-permanent", "{ctx}: unexpected partial");
                        assert_eq!(reason, StopReason::ChunkFailed, "{ctx}");
                        partials += 1;
                        // the token survives its wire text and finishes
                        // the run without the faults
                        let token: ResumePoint = resume.to_string().parse().expect("token parses");
                        let rest = token
                            .run_new_triangles_src(src, &kernels, &edges, &opts(threads, None))
                            .unwrap_or_else(|e| panic!("{ctx}: resume rejected: {e}"));
                        let DeltaOutcome::Complete { pieces: rest } = rest else {
                            panic!("{ctx}: clean resume did not complete");
                        };
                        pieces.extend(rest);
                        pieces.sort_by_key(|p| p.chunk);
                        pieces
                    }
                };
                // chunk for chunk: ranges, triangles and every cost field
                assert_eq!(pieces, clean.pieces(), "{ctx}: diverged");
            }
        }
    }
    // the permanent-panic leg must actually exercise resume
    assert_eq!(partials, 3 * 3, "3 seeds x 3 thread counts");
}

/// A counting run's chunks hold no triangles, so a ceiling that the
/// listing run's staged triangles overflow leaves the count whole: same
/// cost, same chunk table, nothing staged.
#[test]
fn counting_runs_complete_under_a_ceiling_that_stops_listing() {
    let dg = fixture(800, 0xFA_26);
    // a shared oracle and paper kernels charge the run nothing, so its
    // staged triangles are all the memory a listing run holds
    let oracle = Arc::new(HashOracle::build(&dg));
    for method in Method::FUNDAMENTAL {
        for threads in [1usize, 2, 4] {
            let ctx = format!("{method} threads={threads}");
            let mut o = opts(threads);
            o.oracle = Some(Arc::clone(&oracle));
            let listed = list_resilient(&dg, method, &o)
                .unwrap()
                .complete()
                .expect("unbudgeted");
            let staged = listed.triangles.len() as u64 * 12;
            o.budget = RunBudget::unlimited().with_memory_bytes(staged / 2);
            match list_resilient(&dg, method, &o).unwrap() {
                RunOutcome::Partial(p) => assert_eq!(p.reason, StopReason::MemoryExhausted),
                RunOutcome::Complete(_) => panic!("{ctx}: the ceiling must stop the listing run"),
            }
            o.emit = Emit::Counts;
            let counted = list_resilient(&dg, method, &o)
                .unwrap()
                .complete()
                .unwrap_or_else(|| panic!("{ctx}: the count completes under the same ceiling"));
            assert_eq!(counted.cost, listed.cost, "{ctx}");
            assert_eq!(counted.piece_counts, listed.piece_counts, "{ctx}");
            assert!(
                counted.triangles.is_empty(),
                "{ctx}: a count stages nothing"
            );
        }
    }
}

/// Cancels its token at the `at`-th budget check, so a run stops after a
/// fixed number of chunks on one thread.
struct CancelAtCheck {
    token: CancelToken,
    at: u64,
    checks: AtomicU64,
}

impl Recorder for CancelAtCheck {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, counter: Counter, n: u64) {
        if counter == Counter::BudgetChecks
            && self.checks.fetch_add(n, Ordering::SeqCst) + n == self.at
        {
            self.token.cancel();
        }
    }
}

#[test]
fn a_cancelled_count_resumes_to_the_listing_cost() {
    let dg = fixture(600, 0xFA_27);
    for method in Method::FUNDAMENTAL {
        let listed = list_resilient(&dg, method, &opts(1))
            .unwrap()
            .complete()
            .expect("unbudgeted");
        for threads in [1usize, 2] {
            let ctx = format!("{method} threads={threads}");
            let counting = ResilientOpts {
                emit: Emit::Counts,
                ..opts(threads)
            };
            let token = CancelToken::new();
            let mut o = counting.clone();
            o.budget = RunBudget::unlimited().with_cancel(token.clone());
            o.recorder = Some(Arc::new(CancelAtCheck {
                token,
                at: 4,
                checks: AtomicU64::new(0),
            }));
            let partial = list_resilient(&dg, method, &o)
                .unwrap()
                .partial()
                .unwrap_or_else(|| panic!("{ctx}: the cancellation interrupts the count"));
            assert_eq!(partial.reason, StopReason::Cancelled, "{ctx}");
            assert!(partial.completed_chunks() > 0, "{ctx}: a prefix ran");
            assert!(
                partial.completed.iter().all(|p| p.triangles.is_empty()),
                "{ctx}: no piece holds a triangle"
            );
            // the token, through its text, finishes the count
            let token: ResumePoint = partial.resume.to_string().parse().unwrap();
            let rest = token
                .run_src(GraphSource::Plain(&dg), &counting)
                .unwrap()
                .complete()
                .unwrap_or_else(|| panic!("{ctx}: the resumed count completes"));
            assert!(
                rest.triangles.is_empty(),
                "{ctx}: the resume stages nothing"
            );
            let mut cost = partial.cost();
            cost.accumulate(&rest.cost);
            let mut table: Vec<(u32, u32)> = partial
                .completed
                .iter()
                .map(ChunkPiece::table_row)
                .collect();
            table.extend(&rest.piece_counts);
            table.sort_unstable();
            assert_eq!(cost, listed.cost, "{ctx}: merged cost");
            assert_eq!(table, listed.piece_counts, "{ctx}: merged chunk table");
        }
    }
}
