//! Concurrency stress tests for the run-control primitives: a seeded
//! multi-thread hammer on [`CancelToken`] and the [`ActiveBudget`] memory
//! gauge, plus a cancellation-under-load differential against the real
//! runtime. These are the primitives every worker touches at every chunk
//! boundary, so their cross-thread invariants (gauge conservation, cancel
//! monotonicity, chunk-boundary cancellation without torn chunks) get
//! their own suite.

use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use trilist::core::{
    list_resilient, CancelToken, KernelPolicy, Method, ResilientOpts, RunBudget, RunOutcome,
    StopReason,
};
use trilist::graph::dist::{sample_degree_sequence, DiscretePareto, Truncated};
use trilist::graph::gen::{GraphGenerator, ResidualSampler};
use trilist::order::{DirectedGraph, OrderFamily};

const HAMMER_THREADS: usize = 8;

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

#[test]
fn memory_gauge_survives_a_seeded_hammer() {
    // 8 threads charge and release seeded pseudo-random amounts in
    // matched pairs, holding a few charges open at a time. Whatever the
    // interleaving, the gauge must end at exactly zero and never go
    // negative (saturating releases would silently absorb a lost charge,
    // so the final equality is the conservation check).
    let budget = Arc::new(RunBudget::unlimited().start());
    let handles: Vec<_> = (0..HAMMER_THREADS)
        .map(|t| {
            let budget = Arc::clone(&budget);
            std::thread::spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE + t as u64);
                let mut held: Vec<u64> = Vec::new();
                for _ in 0..20_000 {
                    if held.len() < 4 && (held.is_empty() || rng.gen::<bool>()) {
                        let amount = rng.gen_range(1u64..10_000);
                        budget.add_memory(amount);
                        held.push(amount);
                    } else {
                        let i = rng.gen_range(0..held.len());
                        budget.release_memory(held.swap_remove(i));
                    }
                }
                for amount in held {
                    budget.release_memory(amount);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("hammer thread");
    }
    assert_eq!(
        budget.memory_used(),
        0,
        "matched charge/release pairs must conserve the gauge"
    );
    assert!(budget.check().is_none(), "an unlimited budget never trips");
}

#[test]
fn gauge_saturation_does_not_mask_later_charges() {
    // Releasing more than is charged clamps at zero (documented), but a
    // subsequent charge must still land in full — the clamp must not leave
    // the gauge owing a debt.
    let budget = RunBudget::unlimited().start();
    budget.add_memory(10);
    budget.release_memory(100);
    assert_eq!(budget.memory_used(), 0);
    budget.add_memory(25);
    assert_eq!(budget.memory_used(), 25, "post-clamp charges count fully");
}

#[test]
fn cancel_token_is_monotone_and_idempotent_across_threads() {
    // Half the threads spin cancel(), half spin is_cancelled(); every
    // observation sequence must be monotone (false* true*), and all
    // observers must see the cancellation promptly once the flag is up.
    let token = CancelToken::new();
    let cancelled_at = Arc::new(AtomicU64::new(0));
    let flips_seen = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..HAMMER_THREADS {
        let token = token.clone();
        let cancelled_at = Arc::clone(&cancelled_at);
        let flips_seen = Arc::clone(&flips_seen);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            if t % 2 == 0 {
                // canceller: spin a bit, then cancel (idempotently, twice)
                for _ in 0..500 * t {
                    std::hint::spin_loop();
                }
                token.cancel();
                token.cancel();
                cancelled_at.fetch_add(1, Ordering::SeqCst);
            } else {
                // observer: record any true→false flip (must never happen)
                let mut seen_true = false;
                while !stop.load(Ordering::Relaxed) {
                    let now = token.is_cancelled();
                    if seen_true && !now {
                        flips_seen.fetch_add(1, Ordering::SeqCst);
                        return;
                    }
                    seen_true |= now;
                }
                assert!(seen_true, "observer must see the cancellation");
            }
        }));
    }
    // wait until every canceller has fired, then let observers take one
    // last look and wind down
    while cancelled_at.load(Ordering::SeqCst) < (HAMMER_THREADS / 2) as u64 {
        std::hint::spin_loop();
    }
    assert!(token.is_cancelled());
    std::thread::sleep(std::time::Duration::from_millis(10));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("hammer thread");
    }
    assert_eq!(
        flips_seen.load(Ordering::SeqCst),
        0,
        "cancellation must be monotone: no observer may see true then false"
    );
}

#[test]
fn pre_cancelled_run_executes_no_chunks() {
    // The token is checked before the first dequeue: a run born cancelled
    // stops at the very first chunk boundary with nothing executed.
    let dg = fixture(2_000, 3);
    let token = CancelToken::new();
    token.cancel();
    let mut o = ResilientOpts::with_threads(4);
    o.parallel.target_chunk_ops = 256;
    o.budget = RunBudget::unlimited().with_cancel(token);
    match list_resilient(&dg, Method::E1, &o).expect("fundamental method") {
        RunOutcome::Complete(_) => panic!("a pre-cancelled run must not complete"),
        RunOutcome::Partial(p) => {
            assert_eq!(p.reason, StopReason::Cancelled);
            assert_eq!(p.completed_chunks(), 0, "no chunk may start after cancel");
        }
    }
}

#[test]
fn mid_run_cancellation_is_chunk_granular_and_resumable() {
    // Cancel from outside while 4 workers are mid-run, with the hammer
    // threads pounding the same token: the run must stop with a clean
    // chunk-boundary partial whose resume completes byte-identically to an
    // uninterrupted listing.
    let dg = fixture(4_000, 17);
    let mut want = Vec::new();
    Method::E4.run(&dg, |x, y, z| want.push((x, y, z)));

    for attempt in 0..3u64 {
        let token = CancelToken::new();
        let mut o = ResilientOpts::with_threads(4);
        o.parallel.target_chunk_ops = 256;
        o.budget = RunBudget::unlimited().with_cancel(token.clone());
        o.parallel.policy = KernelPolicy::adaptive();

        // background hammer: several threads race to cancel after a
        // seeded delay, more spin-read the flag the whole time
        let stop = Arc::new(AtomicBool::new(false));
        let hammers: Vec<_> = (0..HAMMER_THREADS)
            .map(|t| {
                let token = token.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(attempt * 31 + t as u64);
                    if t % 2 == 0 {
                        for _ in 0..rng.gen_range(1_000..200_000u64) {
                            std::hint::spin_loop();
                        }
                        token.cancel();
                    } else {
                        while !stop.load(Ordering::Relaxed) {
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        let outcome = list_resilient(&dg, Method::E4, &o).expect("fundamental method");
        stop.store(true, Ordering::Relaxed);
        for h in hammers {
            h.join().expect("hammer thread");
        }

        match outcome {
            // the workers can legitimately outrun the cancellers
            RunOutcome::Complete(run) => assert_eq!(run.triangles, want),
            RunOutcome::Partial(p) => {
                assert_eq!(p.reason, StopReason::Cancelled);
                // no torn chunks: completed pieces and resume ranges
                // partition the chunk set exactly
                let done = p.completed_chunks();
                let todo = p.resume.ranges().len();
                assert_eq!(done + todo, p.total_chunks(), "attempt {attempt}");
                let merged = p
                    .resume_with(&dg, &ResilientOpts::with_threads(4))
                    .expect("resume accepts the original graph")
                    .complete()
                    .expect("an unlimited resume completes");
                assert_eq!(merged.triangles, want, "attempt {attempt}");
            }
        }
    }
}
