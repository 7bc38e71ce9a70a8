//! Shared-memory parallel triangle listing: a work-stealing runtime.
//!
//! The acyclic orientation makes the four fundamental methods embarrassingly
//! parallel: every candidate pair (T1/T2) and every intersection (E1/E4) is
//! owned by exactly one visited node, so partitioning the visited-node range
//! partitions the work with no synchronization beyond the final merge. The
//! operation counts are *identical* to the sequential run — parallelism
//! only divides wall time.
//!
//! # Why work stealing
//!
//! The previous runtime pre-split the visited range into one static chunk
//! per thread, sized by a per-node load model. On power-law graphs (the
//! paper's whole regime, Pareto `α < 2`) any error in that model — and the
//! old E1 proxy ignored the remote out-list lengths that dominate E1's scan
//! cost (`h_{E1}`, Table 4) — serializes the run behind one unlucky chunk.
//! Degree-skew-aware *dynamic* scheduling is what makes triangle listing
//! scale on such inputs (Kolountzakis et al., arXiv:1011.0468; AOT,
//! arXiv:2006.11494), so this runtime:
//!
//! 1. splits the visited range into fine-grained chunks of roughly
//!    [`ParallelOpts::target_chunk_ops`] predicted operations each
//!    (remote-aware [`node_load`] model);
//! 2. feeds the chunk queue through a `crossbeam` injector; each worker
//!    drains batches into its own deque and steals from siblings when both
//!    its deque and the injector run dry;
//! 3. buffers per-chunk `CostReport`s and triangles thread-locally, then
//!    merges them **ordered by owning chunk** — so the merged cost and the
//!    triangle order are byte-identical to the sequential run regardless of
//!    thread count or steal schedule.
//!
//! Each worker also records chunks processed, chunks stolen, operations,
//! and busy time, from which [`ParallelRun::load_balance_efficiency`]
//! reports mean/max busy time — 1.0 is a perfectly balanced run.
//!
//! The scheduler itself lives in [`resilient`](crate::resilient), which
//! adds run budgets, chunk-level panic quarantine with retry, and partial
//! results. [`par_list`] is the plain entry point: no budget, fail-fast
//! (one attempt per chunk), errors surfaced as a typed [`ParallelError`]
//! instead of a panic.

use crate::cost::CostReport;
use crate::kernel::{BitmapOracle, KernelPolicy, Kernels};
use crate::oracle::HashOracle;
use crate::resilient::{self, ChunkFault, ResilientOpts, RunOutcome};
use crate::sink::TriangleBuffer;
use crate::source::{with_reader, DecodeScratch, GraphSource, ListReader};
use crate::{sei, vertex, Method};
use std::time::Duration;
use trilist_order::DirectedGraph;

/// Tuning knobs for [`par_list_with`].
#[derive(Clone, Copy, Debug)]
pub struct ParallelOpts {
    /// Worker threads (clamped to at least 1, and to at most the run's
    /// chunk count). The default, the CPU count, is detected once per process.
    pub threads: usize,
    /// Predicted operations per chunk. Smaller chunks balance better but
    /// add queue traffic; ~1k operations keeps both costs negligible.
    pub target_chunk_ops: u64,
    /// Intersection-kernel policy. The run builds one [`Kernels`] context
    /// from this before its workers start, and every worker executes a
    /// clone that shares its hub bitmaps and block encodings (no rows are
    /// copied). The merged `cost` stays byte-identical to the sequential
    /// run in every paper-cost field regardless of policy.
    pub policy: KernelPolicy,
}

impl Default for ParallelOpts {
    fn default() -> Self {
        static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        let threads =
            *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
        ParallelOpts {
            threads,
            target_chunk_ops: 1024,
            policy: KernelPolicy::PaperFaithful,
        }
    }
}

impl ParallelOpts {
    /// Default options with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        ParallelOpts {
            threads,
            ..Self::default()
        }
    }
}

/// What can go wrong in a parallel listing call — the typed replacement
/// for the panics the runtime used to throw.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParallelError {
    /// Parallel listing supports only the four fundamental methods
    /// (Figure 5); the equivalence classes make the others redundant.
    UnsupportedMethod(Method),
    /// A chunk panicked on every allowed attempt. Carries the scheduling
    /// context that used to be formatted into the resurfaced panic.
    ChunkFailed {
        /// The listing method that was running.
        method: Method,
        /// Worker executing the final failed attempt.
        worker: usize,
        /// Visited-node range of the failed chunk.
        range: std::ops::Range<u32>,
        /// Executions the chunk burned before being declared failed.
        attempts: u32,
        /// The panic payload, stringified.
        message: String,
    },
    /// A resume point does not fit the graph or run it was offered to.
    InvalidResume(String),
}

impl std::fmt::Display for ParallelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelError::UnsupportedMethod(m) => {
                write!(
                    f,
                    "parallel listing supports the fundamental methods, not {m}"
                )
            }
            ParallelError::ChunkFailed {
                method,
                worker,
                range,
                attempts,
                message,
            } => write!(
                f,
                "parallel {method} worker {worker} panicked while listing visited range \
                 {}..{} ({attempts} attempt(s)): {message}",
                range.start, range.end
            ),
            ParallelError::InvalidResume(msg) => write!(f, "invalid resume point: {msg}"),
        }
    }
}

impl std::error::Error for ParallelError {}

/// `Ok` iff `method` is one of the four fundamental methods.
pub(crate) fn ensure_fundamental(method: Method) -> Result<(), ParallelError> {
    if Method::FUNDAMENTAL.contains(&method) {
        Ok(())
    } else {
        Err(ParallelError::UnsupportedMethod(method))
    }
}

/// What one worker thread did during a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadStats {
    /// Chunks this worker executed.
    pub chunks: u64,
    /// Chunks obtained by stealing from another worker's deque (injector
    /// refills are not steals).
    pub steals: u64,
    /// Elementary operations performed (`CostReport::operations`).
    pub operations: u64,
    /// Time spent executing chunks (queue time excluded).
    pub busy: Duration,
}

/// The outcome of a parallel run: merged cost, triangles, and scheduling
/// telemetry.
#[derive(Clone, Debug)]
pub struct ParallelRun {
    /// Merged operation counts — exactly equal to the sequential run's.
    pub cost: CostReport,
    /// Triangles merged in chunk order, which *is* sequential order: the
    /// output is deterministic and thread-count independent.
    pub triangles: Vec<(u32, u32, u32)>,
    /// Per-worker telemetry, indexed by worker id.
    pub threads: Vec<ThreadStats>,
    /// Number of chunks the visited range was split into.
    pub chunks: usize,
    /// Chunk executions that panicked but were recovered by retry (always
    /// empty under [`par_list`], which allows a single attempt; populated
    /// by the resilient runtime when retries saved the run).
    pub faults: Vec<ChunkFault>,
    /// `(global chunk index, triangle count)` per merged piece, ascending
    /// by chunk index and aligned with `triangles` — a session layer can
    /// split the flat list back into chunk-tagged pieces, which is what
    /// lets a resumed run on the far side of a wire be merged with the
    /// earlier partial pieces in exact sequential order.
    pub piece_counts: Vec<(u32, u32)>,
}

impl ParallelRun {
    /// Load-balance efficiency: mean worker busy time over max worker busy
    /// time. 1.0 means no worker waited on the longest one; values near
    /// `1/threads` mean the run serialized behind a single worker.
    pub fn load_balance_efficiency(&self) -> f64 {
        let max = self
            .threads
            .iter()
            .map(|t| t.busy)
            .max()
            .unwrap_or_default();
        if max.is_zero() {
            return 1.0;
        }
        let mean = self.threads.iter().map(|t| t.busy).sum::<Duration>()
            / self.threads.len().max(1) as u32;
        mean.as_secs_f64() / max.as_secs_f64()
    }

    /// Total chunks obtained via stealing, across workers.
    pub fn total_steals(&self) -> u64 {
        self.threads.iter().map(|t| t.steals).sum()
    }
}

/// Predicted elementary operations charged to visited node `v` — the load
/// model used to size chunks. Errors on non-fundamental methods.
///
/// T1/T2 are exact (eqs. 7–8). E1 charges the T1-local term *plus the
/// remote out-list lengths* of `v`'s out-neighbors — the `h_{E1}` scan term
/// that dominates on skewed graphs and that a purely local proxy
/// under-charges. E4's remote term (the below-`z` prefix of each
/// out-neighbor's in-list) is bounded by the full in-degree, which is the
/// tightest proxy available without a binary search per edge.
pub fn node_load(method: Method, g: &DirectedGraph, v: u32) -> Result<u64, ParallelError> {
    ensure_fundamental(method)?;
    Ok(fundamental_load(method, g, v, &mut Vec::new()))
}

/// [`node_load`] after validation (callers guarantee a fundamental
/// method), on either adjacency layout: both see identical degrees and
/// lists, so both chunk the visited range identically. `buf` is scratch
/// for the out-list a compressed source decodes.
fn fundamental_load<L: ListReader>(method: Method, g: &L, v: u32, buf: &mut Vec<u32>) -> u64 {
    let (x, y) = (g.x(v) as u64, g.y(v) as u64);
    let local = x * x.saturating_sub(1) / 2;
    match method {
        Method::T1 => local,
        Method::T2 => x * y,
        Method::E1 => local + g.out(v, buf).iter().map(|&u| g.x(u) as u64).sum::<u64>(),
        Method::E4 => local + g.out(v, buf).iter().map(|&u| g.y(u) as u64).sum::<u64>(),
        _ => unreachable!("method validated as fundamental"),
    }
}

/// Per-node loads for the whole visited range (one `O(n + m)` pass).
pub fn node_loads(method: Method, g: &DirectedGraph) -> Result<Vec<u64>, ParallelError> {
    ensure_fundamental(method)?;
    let mut buf = Vec::new();
    Ok((0..g.n() as u32)
        .map(|v| fundamental_load(method, g, v, &mut buf))
        .collect())
}

/// Splits `0..n` into consecutive chunks of at most ~`target_ops` predicted
/// operations each (single nodes heavier than `target_ops` get their own
/// chunk — visited-node granularity cannot split them further).
pub fn chunk_ranges(
    method: Method,
    g: &DirectedGraph,
    target_ops: u64,
) -> Result<Vec<std::ops::Range<u32>>, ParallelError> {
    chunk_ranges_src(method, GraphSource::Plain(g), target_ops)
}

/// [`chunk_ranges`] over either adjacency layout; both produce identical
/// splits because the load model sees identical degrees and lists.
pub fn chunk_ranges_src(
    method: Method,
    src: GraphSource<'_>,
    target_ops: u64,
) -> Result<Vec<std::ops::Range<u32>>, ParallelError> {
    ensure_fundamental(method)?;
    let n = src.n() as u32;
    Ok(with_reader!(src, |g| {
        split_by_load(method, g, n, target_ops)
    }))
}

/// The [`chunk_ranges`] loop over one layout.
fn split_by_load<L: ListReader>(
    method: Method,
    g: &L,
    n: u32,
    target_ops: u64,
) -> Vec<std::ops::Range<u32>> {
    let target = target_ops.max(1);
    let mut buf = Vec::new();
    let mut ranges = Vec::new();
    let mut start = 0u32;
    let mut acc = 0u64;
    for v in 0..n {
        let load = fundamental_load(method, g, v, &mut buf);
        if acc > 0 && acc + load > target {
            ranges.push(start..v);
            start = v;
            acc = 0;
        }
        acc += load;
    }
    if start < n || ranges.is_empty() {
        ranges.push(start..n);
    }
    ranges
}

/// Lists triangles with `method` using `threads` worker threads and the
/// default chunk size. See [`par_list_with`].
pub fn par_list(
    g: &DirectedGraph,
    method: Method,
    threads: usize,
) -> Result<ParallelRun, ParallelError> {
    par_list_with(
        g,
        method,
        &ParallelOpts {
            threads,
            ..ParallelOpts::default()
        },
    )
}

/// Lists triangles with the work-stealing runtime.
///
/// Only the four fundamental methods (Figure 5) are supported; the
/// equivalence classes make the others redundant.
///
/// Guarantees:
/// - `cost` equals the sequential [`Method::run`] cost field-for-field;
/// - `triangles` is in sequential emission order for any thread count;
/// - a panic inside a worker (e.g. from library code on a poisoned input)
///   is returned as [`ParallelError::ChunkFailed`] with the method and
///   visited-node range that was executing — never resurfaced as a panic.
///
/// This is the fail-fast path: no budget, a single attempt per chunk. For
/// deadlines, memory ceilings, cancellation, retries, and partial results,
/// use [`resilient::list_resilient`].
pub fn par_list_with(
    g: &DirectedGraph,
    method: Method,
    opts: &ParallelOpts,
) -> Result<ParallelRun, ParallelError> {
    let ropts = ResilientOpts {
        parallel: *opts,
        max_attempts: 1,
        ..ResilientOpts::default()
    };
    // no budget and one attempt per chunk: the only way to fall short is
    // a fatally failed chunk, which becomes the typed error
    let partial = match resilient::list_resilient(g, method, &ropts)? {
        RunOutcome::Complete(run) => return Ok(run),
        RunOutcome::Partial(partial) => partial,
    };
    Err(match partial.faults.iter().find(|f| f.fatal) {
        Some(f) => ParallelError::ChunkFailed {
            method,
            worker: f.worker,
            range: f.range.clone(),
            attempts: f.attempt + 1,
            message: f.message.clone(),
        },
        None => ParallelError::InvalidResume(format!(
            "run stopped early ({}) without a recorded fault",
            partial.reason
        )),
    })
}

/// Executes one visited-node range on either adjacency layout, staging
/// triangles in a [`TriangleBuffer`] so the scheduler can charge their
/// footprint to the memory gauge before the ordered merge.
pub(crate) fn run_chunk<L: ListReader>(
    g: &L,
    method: Method,
    oracle: Option<&HashOracle>,
    kernels: &Kernels,
    scratch: &mut DecodeScratch,
    range: std::ops::Range<u32>,
) -> (CostReport, TriangleBuffer) {
    let mut tris = TriangleBuffer::new();
    let sink = |x: u32, y: u32, z: u32| tris.push(x, y, z);
    let cost = match method {
        Method::T1 | Method::T2 => {
            let base = oracle.expect("oracle built for vertex methods");
            // the worker-local hub rows (if any) front the shared hash
            // oracle; the wrapper is a couple of pointers, so per-chunk
            // construction costs nothing while the bitmap itself is reused
            // across all of this worker's chunks
            match (method, kernels.out_bitmaps()) {
                (Method::T1, Some(bits)) => {
                    vertex::t1_range(g, &BitmapOracle::new(base, bits), range, scratch, sink)
                }
                (Method::T1, None) => vertex::t1_range(g, base, range, scratch, sink),
                (Method::T2, Some(bits)) => {
                    vertex::t2_range(g, &BitmapOracle::new(base, bits), range, scratch, sink)
                }
                (_, None) => vertex::t2_range(g, base, range, scratch, sink),
                _ => unreachable!(),
            }
        }
        Method::E1 => sei::e1_range_with(g, range, kernels, scratch, sink),
        Method::E4 => sei::e4_range_with(g, range, kernels, scratch, sink),
        _ => unreachable!("method validated as fundamental"),
    };
    (cost, tris)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use trilist_graph::dist::{sample_degree_sequence, DiscretePareto, Truncated};
    use trilist_graph::gen::{GraphGenerator, ResidualSampler};
    use trilist_order::{OrderFamily, Relabeling};

    fn fixture() -> DirectedGraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let dist = Truncated::new(DiscretePareto::paper_beta(1.7), 50);
        let (seq, _) = sample_degree_sequence(&dist, 2_000, &mut rng);
        let g = ResidualSampler.generate(&seq, &mut rng).graph;
        let relabeling = OrderFamily::Descending.relabeling(&g, &mut rng);
        DirectedGraph::orient(&g, &relabeling)
    }

    /// A Pareto `α = 1.5` fixture — the heavy-tail regime where static
    /// splits skew worst.
    fn pareto_fixture(n: usize, seed: u64) -> DirectedGraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let t = (n as f64).sqrt() as u64;
        let dist = Truncated::new(
            DiscretePareto {
                alpha: 1.5,
                beta: 15.0,
            },
            t.max(2),
        );
        let (seq, _) = sample_degree_sequence(&dist, n, &mut rng);
        let g = ResidualSampler.generate(&seq, &mut rng).graph;
        let relabeling = OrderFamily::Descending.relabeling(&g, &mut rng);
        DirectedGraph::orient(&g, &relabeling)
    }

    #[test]
    fn parallel_equals_sequential_for_all_methods() {
        let dg = fixture();
        for method in Method::FUNDAMENTAL {
            let mut seq_tris = Vec::new();
            let seq_cost = method.run(&dg, |x, y, z| seq_tris.push((x, y, z)));
            for threads in [1, 2, 4, 7] {
                let run = par_list(&dg, method, threads).unwrap();
                // triangle *order* matches sequential, not just the set
                assert_eq!(run.triangles, seq_tris, "{method} threads={threads}");
                assert_eq!(run.cost, seq_cost, "{method} threads={threads}");
                assert_eq!(run.threads.len(), threads);
                assert!(run.faults.is_empty(), "{method} threads={threads}");
                let processed: u64 = run.threads.iter().map(|t| t.chunks).sum();
                assert_eq!(processed as usize, run.chunks, "{method} threads={threads}");
            }
        }
    }

    #[test]
    fn merged_output_is_thread_count_invariant() {
        let dg = pareto_fixture(3_000, 11);
        for method in Method::FUNDAMENTAL {
            let one = par_list(&dg, method, 1).unwrap();
            for threads in [2, 3, 8] {
                let many = par_list(&dg, method, threads).unwrap();
                assert_eq!(one.triangles, many.triangles, "{method} threads={threads}");
                assert_eq!(one.cost, many.cost, "{method} threads={threads}");
            }
        }
    }

    #[test]
    fn chunk_ranges_cover_everything_once() {
        let dg = fixture();
        for method in Method::FUNDAMENTAL {
            for target in [64, 1024, u64::MAX] {
                let ranges = chunk_ranges(method, &dg, target).unwrap();
                assert!(!ranges.is_empty());
                let mut expected = 0u32;
                for r in &ranges {
                    assert_eq!(r.start, expected, "{method} target={target}");
                    assert!(r.end > r.start || ranges.len() == 1);
                    expected = r.end;
                }
                assert_eq!(expected, dg.n() as u32, "{method} target={target}");
            }
        }
    }

    #[test]
    fn no_chunk_exceeds_twice_the_mean_load_on_pareto_tail() {
        // the remote-aware E1/E4 load model must bound chunk skew on an
        // α = 1.5 power-law graph: no chunk above ~2× the mean
        let dg = pareto_fixture(10_000, 15);
        for method in Method::FUNDAMENTAL {
            let loads = node_loads(method, &dg).unwrap();
            let total: u64 = loads.iter().sum();
            let max_node = loads.iter().copied().max().unwrap_or(0);
            // target comfortably above the heaviest single node, so chunk
            // granularity (whole visited nodes) is not the binding limit
            let target = (total / 256).max(2 * max_node).max(1);
            let ranges = chunk_ranges(method, &dg, target).unwrap();
            let chunk_loads: Vec<u64> = ranges
                .iter()
                .map(|r| r.clone().map(|v| loads[v as usize]).sum())
                .collect();
            let mean = total as f64 / chunk_loads.len() as f64;
            for (i, &l) in chunk_loads.iter().enumerate() {
                assert!(
                    (l as f64) <= 2.0 * mean,
                    "{method} chunk {i}: load {l} exceeds 2x mean {mean:.0} \
                     ({} chunks)",
                    chunk_loads.len()
                );
            }
        }
    }

    #[test]
    fn e1_load_model_charges_remote_lists() {
        // a node with tiny out-degree pointing at huge out-lists must be
        // charged for the remote scans the old local-only proxy ignored
        let dg = fixture();
        for v in 0..dg.n() as u32 {
            let x = dg.x(v) as u64;
            let local = x * x.saturating_sub(1) / 2;
            let remote: u64 = dg.out(v).iter().map(|&u| dg.x(u) as u64).sum();
            assert_eq!(node_load(Method::E1, &dg, v).unwrap(), local + remote);
        }
        // and the model totals the exact E1 operation count
        let total: u64 = node_loads(Method::E1, &dg).unwrap().iter().sum();
        let cost = Method::E1.run(&dg, |_, _, _| {});
        assert_eq!(total, cost.operations());
    }

    #[test]
    fn telemetry_accounts_all_work() {
        let dg = pareto_fixture(3_000, 4);
        let run = par_list(&dg, Method::E1, 4).unwrap();
        let seq_cost = Method::E1.run(&dg, |_, _, _| {});
        let thread_ops: u64 = run.threads.iter().map(|t| t.operations).sum();
        assert_eq!(thread_ops, seq_cost.operations());
        let eff = run.load_balance_efficiency();
        assert!((0.0..=1.0).contains(&eff), "efficiency {eff}");
        assert!(
            run.chunks >= 4,
            "expected fine-grained chunks, got {}",
            run.chunks
        );
    }

    #[test]
    fn single_node_graph() {
        let g = trilist_graph::Graph::from_edges(1, &[]).unwrap();
        let dg = DirectedGraph::orient(&g, &Relabeling::identity(1));
        let run = par_list(&dg, Method::E1, 8).unwrap();
        assert_eq!(run.cost.triangles, 0);
        assert!(run.triangles.is_empty());
        // one chunk on eight workers: the efficiency metric must report
        // the imbalance honestly (only the no-work case is defined as 1.0)
        let eff = run.load_balance_efficiency();
        assert!((0.0..=1.0).contains(&eff), "efficiency {eff}");
    }

    #[test]
    fn rejects_non_fundamental_with_typed_error() {
        let dg = fixture();
        // every non-fundamental method is rejected across the whole API
        // surface — as a value, not a panic
        for method in Method::ALL {
            if Method::FUNDAMENTAL.contains(&method) {
                continue;
            }
            assert_eq!(
                par_list(&dg, method, 2).unwrap_err(),
                ParallelError::UnsupportedMethod(method)
            );
            assert!(node_load(method, &dg, 0).is_err());
            assert!(node_loads(method, &dg).is_err());
            assert!(chunk_ranges(method, &dg, 1024).is_err());
        }
        let msg = ParallelError::UnsupportedMethod(Method::T3).to_string();
        assert!(
            msg.contains("parallel listing supports the fundamental methods"),
            "unexpected message: {msg}"
        );
    }

    #[test]
    fn chunk_failure_error_carries_scheduling_context() {
        let err = ParallelError::ChunkFailed {
            method: Method::E1,
            worker: 2,
            range: 70..80,
            attempts: 1,
            message: "sink exploded".to_string(),
        };
        let msg = err.to_string();
        assert!(
            msg.contains("parallel E1 worker 2")
                && msg.contains("visited range 70..80")
                && msg.contains("sink exploded"),
            "context missing: {msg}"
        );
    }

    #[test]
    fn adaptive_policy_parallel_matches_paper_sequential() {
        // the shared kernel context (bitmaps included) must not change the
        // triangle order or any paper-cost field vs the sequential
        // paper-faithful run
        let dg = pareto_fixture(3_000, 21);
        for method in Method::FUNDAMENTAL {
            let mut seq = Vec::new();
            let seq_cost = method.run(&dg, |x, y, z| seq.push((x, y, z)));
            let run = par_list_with(
                &dg,
                method,
                &ParallelOpts {
                    threads: 4,
                    target_chunk_ops: 1024,
                    policy: KernelPolicy::adaptive(),
                },
            )
            .unwrap();
            assert_eq!(run.triangles, seq, "{method}");
            assert_eq!(run.cost.triangles, seq_cost.triangles, "{method}");
            assert_eq!(run.cost.local, seq_cost.local, "{method}");
            assert_eq!(run.cost.remote, seq_cost.remote, "{method}");
            assert_eq!(run.cost.lookups, seq_cost.lookups, "{method}");
            assert_eq!(run.cost.hash_inserts, seq_cost.hash_inserts, "{method}");
        }
    }

    #[test]
    fn skewed_schedule_accounts_all_chunks() {
        // heavy-tail fixture + several workers: every chunk is processed
        // exactly once whatever the steal schedule, and steal telemetry
        // stays within the chunk budget
        let dg = pareto_fixture(10_000, 8);
        let run = par_list_with(
            &dg,
            Method::E1,
            &ParallelOpts {
                threads: 4,
                target_chunk_ops: 512,
                policy: KernelPolicy::PaperFaithful,
            },
        )
        .unwrap();
        let processed: u64 = run.threads.iter().map(|t| t.chunks).sum();
        assert_eq!(processed as usize, run.chunks);
        assert!(run.total_steals() <= processed);
        assert!(run.chunks > 16, "chunking too coarse: {}", run.chunks);
    }
}
