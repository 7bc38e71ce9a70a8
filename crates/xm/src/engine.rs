//! The partitioned listing engine: column-load + edge-stream.
//!
//! The label space `[0, n)` is split into `P` contiguous intervals. The
//! engine makes `P` passes; pass `a` loads *column* `a` — every directed
//! edge whose target label falls in interval `a` — into memory and streams
//! the full edge file once. For each streamed edge `z → y`, the triangles
//! whose smallest corner `x` lies in interval `a` are exactly the matches
//! of `N⁺(y)∩a` against the sub-`y` prefix of `N⁺(z)∩a` — E1's
//! intersection restricted to the column, so every triangle is found in
//! exactly one pass (the one owning its smallest corner) and the total
//! comparison count equals in-memory E1's.
//!
//! I/O cost: `P·m` streamed edges plus `m` column loads, the classic
//! tradeoff the paper defers to \[17\]; memory: one column
//! (`≈ m/P` edges expected) — choose `P` from the RAM budget.

use crate::storage::{EdgeFile, IoStats, ScratchDir};
use trilist_core::kernel::{Kernels, ListDir};
use trilist_core::obs::{ChunkSpan, Counter, HistKind, Recorder, NOOP};
use trilist_core::{CostReport, Method, RunBudget, StopReason, WorkDomain};
use trilist_order::DirectedGraph;

/// Estimated resident bytes per column edge: the `u32` target plus its
/// share of the per-node `Vec` bookkeeping, rounded up to a power of two.
pub const COLUMN_BYTES_PER_EDGE: u64 = 8;

/// Contiguous label intervals covering `[0, n)`.
#[derive(Clone, Debug)]
pub struct Partitioning {
    bounds: Vec<u32>, // P+1 fenceposts
}

impl Partitioning {
    /// Splits `[0, n)` into `p` near-equal *label-width* intervals.
    ///
    /// Under skewed orientations (descending order puts the hubs at small
    /// labels) the column masses can be wildly unequal; prefer
    /// [`Partitioning::balanced`] for memory-bound runs.
    pub fn even(n: usize, p: usize) -> Partitioning {
        let p = p.max(1);
        let mut bounds = Vec::with_capacity(p + 1);
        for i in 0..=p {
            bounds.push((i * n / p) as u32);
        }
        Partitioning { bounds }
    }

    /// Splits `[0, n)` so every interval owns roughly `m/p` column edges
    /// (an edge `z → x` belongs to the column of its target `x`, so the
    /// column mass of a label is its in-degree `Y_x`). This is the simplest
    /// of the partitioning schemes whose design the paper leaves to \[17\].
    pub fn balanced(g: &DirectedGraph, p: usize) -> Partitioning {
        let p = p.max(1);
        let n = g.n();
        let total = g.m() as u64;
        let per_part = total.div_ceil(p as u64).max(1);
        let mut bounds = vec![0u32];
        let mut acc = 0u64;
        for x in 0..n as u32 {
            acc += g.y(x) as u64;
            if acc >= per_part && (bounds.len() as u64) < p as u64 && (x as usize) < n - 1 {
                bounds.push(x + 1);
                acc = 0;
            }
        }
        while bounds.len() < p + 1 {
            bounds.push(n as u32);
        }
        Partitioning { bounds }
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// True when there are no intervals (empty label space).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The half-open interval `a`.
    pub fn interval(&self, a: usize) -> std::ops::Range<u32> {
        self.bounds[a]..self.bounds[a + 1]
    }

    /// Which interval holds `label`.
    pub fn owner(&self, label: u32) -> usize {
        self.bounds.partition_point(|&b| b <= label) - 1
    }

    /// Picks the coarsest in-degree-balanced partitioning whose expected
    /// resident column (`≈ m/P` edges at [`COLUMN_BYTES_PER_EDGE`] bytes)
    /// fits inside `bytes`. With no memory limit this is a single pass;
    /// `P` never exceeds `n`, the finest meaningful split.
    pub fn for_memory_budget(g: &DirectedGraph, bytes: Option<u64>) -> Partitioning {
        let p = match bytes {
            None => 1,
            Some(bytes) => {
                let need = g.m() as u64 * COLUMN_BYTES_PER_EDGE;
                let p = need.div_ceil(bytes.max(1)).max(1);
                p.min(g.n().max(1) as u64) as usize
            }
        };
        Partitioning::balanced(g, p)
    }
}

/// Result of an external-memory run.
#[derive(Clone, Debug)]
pub struct XmRun {
    /// Comparison accounting (identical to in-memory E1's).
    pub cost: CostReport,
    /// I/O transferred.
    pub io: IoStats,
    /// Peak resident column size, in edges.
    pub peak_memory_edges: usize,
}

/// Outcome of a budgeted external-memory run.
///
/// Passes are the fault-isolation unit out of core: a pass either streams
/// to completion (its column's triangles are fully delivered, in order) or
/// is not started, so a partial outcome is always a clean prefix of the
/// column sequence and can be resumed by re-running the remaining
/// intervals.
#[derive(Clone, Debug)]
pub enum XmOutcome {
    /// Every pass ran; the triangle set is complete.
    Complete(XmRun),
    /// The budget tripped between passes; `run` covers the first
    /// `completed_passes` columns only.
    Partial {
        /// Accounting for the passes that did run.
        run: XmRun,
        /// Number of leading columns fully processed.
        completed_passes: usize,
        /// Total passes the partitioning called for.
        total_passes: usize,
        /// What stopped the run.
        reason: StopReason,
    },
}

impl XmOutcome {
    /// True when every pass completed.
    pub fn is_complete(&self) -> bool {
        matches!(self, XmOutcome::Complete(_))
    }

    /// The run accounting, complete or not.
    pub fn run(&self) -> &XmRun {
        match self {
            XmOutcome::Complete(run) => run,
            XmOutcome::Partial { run, .. } => run,
        }
    }

    /// Unwraps the complete run, if there is one.
    pub fn complete(self) -> Option<XmRun> {
        match self {
            XmOutcome::Complete(run) => Some(run),
            XmOutcome::Partial { .. } => None,
        }
    }
}

/// External-memory E1 over `g` with `p` in-degree-balanced partitions.
///
/// Triangles are delivered as labels `(x, y, z)`, `x < y < z`, in column
/// order (all `x ∈ interval 0` first, …).
pub fn xm_e1<F: FnMut(u32, u32, u32)>(
    g: &DirectedGraph,
    p: usize,
    sink: F,
) -> std::io::Result<XmRun> {
    xm_e1_with(g, &Partitioning::balanced(g, p), sink)
}

/// External-memory E1 with an explicit partitioning.
pub fn xm_e1_with<F: FnMut(u32, u32, u32)>(
    g: &DirectedGraph,
    parts: &Partitioning,
    sink: F,
) -> std::io::Result<XmRun> {
    xm_e1_with_kernels(g, parts, &Kernels::paper(), sink)
}

/// External-memory E1 with an explicit partitioning and kernel context.
///
/// The hub bitmaps in `k` are built from the *full* graph, yet stay exact
/// on the column-restricted lists: a probe element always comes from the
/// other column list, so it lies inside the column interval by
/// construction, and the sub-`y` prefix constraint is satisfied because
/// out-list elements are `< y` (the same structural argument as in-memory
/// E1). Paper-cost fields are kernel-independent.
pub fn xm_e1_with_kernels<F: FnMut(u32, u32, u32)>(
    g: &DirectedGraph,
    parts: &Partitioning,
    k: &Kernels,
    sink: F,
) -> std::io::Result<XmRun> {
    let outcome = xm_e1_budgeted(g, parts, k, &RunBudget::unlimited(), sink)?;
    Ok(outcome
        .complete()
        .expect("an unlimited budget never interrupts a run"))
}

/// External-memory E1 under a [`RunBudget`].
///
/// The budget is checked at every pass boundary: the deadline and the
/// cancellation token before a column is loaded, the memory ceiling after
/// (a resident column is charged [`COLUMN_BYTES_PER_EDGE`] bytes per edge
/// and released when its pass ends). A tripped budget yields
/// [`XmOutcome::Partial`] carrying the accounting for the passes that did
/// complete — their triangles have already been delivered to `sink` in
/// column order, so the prefix is exact. Pair with
/// [`Partitioning::for_memory_budget`] to pick a `P` whose columns fit.
pub fn xm_e1_budgeted<F: FnMut(u32, u32, u32)>(
    g: &DirectedGraph,
    parts: &Partitioning,
    k: &Kernels,
    budget: &RunBudget,
    sink: F,
) -> std::io::Result<XmOutcome> {
    xm_e1_observed(g, parts, k, budget, &NOOP, sink)
}

/// [`xm_e1_budgeted`] with an observability sink: each completed pass is
/// emitted as a [`ChunkSpan`] (method `E1`, chunk = pass index, worker 0,
/// range = the pass's column interval) with chunk-wall/op histograms, and
/// every pass-boundary budget gate counts a
/// [`Counter::BudgetChecks`]. Recording is pure observation — triangles,
/// cost, and I/O accounting are identical to the unobserved run.
pub fn xm_e1_observed<F: FnMut(u32, u32, u32)>(
    g: &DirectedGraph,
    parts: &Partitioning,
    k: &Kernels,
    budget: &RunBudget,
    recorder: &dyn Recorder,
    mut sink: F,
) -> std::io::Result<XmOutcome> {
    let recording = recorder.enabled();
    let origin = std::time::Instant::now();
    let active = budget.start();
    let scratch = ScratchDir::new("e1")?;
    let mut io = IoStats::default();

    // setup: the main edge stream (z → y), and one column file per interval
    let all_edges = (0..g.n() as u32).flat_map(|z| g.out(z).iter().map(move |&y| (z, y)));
    let edge_file = EdgeFile::create(&scratch.file("edges.bin"), all_edges, &mut io)?;
    let mut columns = Vec::with_capacity(parts.len());
    for a in 0..parts.len() {
        let range = parts.interval(a);
        let col_edges = (0..g.n() as u32).flat_map(|z| {
            let range = range.clone();
            g.out(z)
                .iter()
                .copied()
                .filter(move |t| range.contains(t))
                .map(move |t| (z, t))
        });
        columns.push(EdgeFile::create(
            &scratch.file(&format!("col{a}.bin")),
            col_edges,
            &mut io,
        )?);
    }

    let mut cost = CostReport::default();
    let mut peak = 0usize;
    let mut completed = 0usize;
    let mut stopped = None;
    for (pass, column) in columns.iter().enumerate() {
        // deadline / cancellation gate before committing to a pass
        if recording {
            recorder.add(Counter::BudgetChecks, 1);
        }
        if let Some(reason) = active.check() {
            stopped = Some(reason);
            break;
        }
        let pass_started = std::time::Instant::now();
        let ops_before = cost.operations();
        // load column a: per-node slices of out-neighbors inside interval a
        let mut col_adj: Vec<Vec<u32>> = vec![Vec::new(); g.n()];
        let mut loaded = 0usize;
        column.stream(&mut io, |z, x| {
            col_adj[z as usize].push(x);
            loaded += 1;
        })?;
        io.edges_loaded += loaded as u64;
        peak = peak.max(loaded);
        // the resident column is the engine's working set; charge it and
        // bail before streaming if it blows the ceiling
        let charge = loaded as u64 * COLUMN_BYTES_PER_EDGE;
        active.add_memory(charge);
        if recording {
            recorder.add(Counter::BudgetChecks, 1);
        }
        if let Some(reason) = active.check() {
            active.release_memory(charge);
            stopped = Some(reason);
            break;
        }
        // stream all edges; intersect within the column
        edge_file.stream(&mut io, |z, y| {
            let za = &col_adj[z as usize];
            let ya = &col_adj[y as usize];
            // E1's local slice restricted to the column: elements < y
            let cut = za.partition_point(|&x| x < y);
            let local = &za[..cut];
            cost.local += local.len() as u64;
            cost.remote += ya.len() as u64;
            let stats = k.intersect(
                local,
                Some((z, ListDir::Out)),
                ya,
                Some((y, ListDir::Out)),
                |x| {
                    cost.triangles += 1;
                    sink(x, y, z);
                },
            );
            cost.pointer_advances += stats.advances;
        })?;
        io.edges_streamed += edge_file.len();
        active.release_memory(charge);
        completed += 1;
        if recording {
            let dur_ns = pass_started.elapsed().as_nanos() as u64;
            let ops = cost.operations().saturating_sub(ops_before);
            recorder.observe(HistKind::ChunkWallNs, dur_ns);
            recorder.observe(HistKind::ChunkOps, ops);
            recorder.span(ChunkSpan {
                domain: WorkDomain::Listing(Method::E1),
                policy: k.policy().name(),
                chunk: pass as u32,
                attempt: 0,
                worker: 0,
                range: parts.interval(pass),
                start_ns: pass_started.saturating_duration_since(origin).as_nanos() as u64,
                dur_ns,
                ops,
                ok: true,
            });
        }
    }
    let run = XmRun {
        cost,
        io,
        peak_memory_edges: peak,
    };
    Ok(match stopped {
        None => XmOutcome::Complete(run),
        Some(reason) => XmOutcome::Partial {
            run,
            completed_passes: completed,
            total_passes: parts.len(),
            reason,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use trilist_core::Method;
    use trilist_graph::dist::{sample_degree_sequence, DiscretePareto, Truncated};
    use trilist_graph::gen::{GraphGenerator, ResidualSampler};
    use trilist_order::{OrderFamily, Relabeling};

    fn fixture(n: usize, seed: u64) -> DirectedGraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dist = Truncated::new(
            DiscretePareto {
                alpha: 1.7,
                beta: 6.0,
            },
            40,
        );
        let (seq, _) = sample_degree_sequence(&dist, n, &mut rng);
        let g = ResidualSampler.generate(&seq, &mut rng).graph;
        let relabeling = OrderFamily::Descending.relabeling(&g, &mut rng);
        DirectedGraph::orient(&g, &relabeling)
    }

    #[test]
    fn partitioning_owners() {
        let p = Partitioning::even(10, 3);
        assert_eq!(p.len(), 3);
        assert_eq!(p.interval(0), 0..3);
        assert_eq!(p.interval(1), 3..6);
        assert_eq!(p.interval(2), 6..10);
        for label in 0..10u32 {
            let owner = p.owner(label);
            assert!(p.interval(owner).contains(&label), "label {label}");
        }
    }

    #[test]
    fn matches_in_memory_e1_for_various_p() {
        let dg = fixture(800, 1);
        let mut want = Vec::new();
        let want_cost = Method::E1.run(&dg, |x, y, z| want.push((x, y, z)));
        want.sort_unstable();
        for p in [1usize, 2, 3, 7, 16] {
            let mut got = Vec::new();
            let run = xm_e1(&dg, p, |x, y, z| got.push((x, y, z))).unwrap();
            got.sort_unstable();
            assert_eq!(got, want, "p={p}");
            assert_eq!(run.cost.triangles, want_cost.triangles, "p={p}");
            // comparison accounting equals in-memory E1's regardless of P
            assert_eq!(run.cost.local, want_cost.local, "p={p} local");
            assert_eq!(run.cost.remote, want_cost.remote, "p={p} remote");
        }
    }

    #[test]
    fn adaptive_kernels_match_paper_across_partitions() {
        use trilist_core::kernel::KernelPolicy;
        let dg = fixture(800, 4);
        let mut want = Vec::new();
        let paper = xm_e1(&dg, 4, |x, y, z| want.push((x, y, z))).unwrap();
        let k = Kernels::build(KernelPolicy::adaptive(), &dg);
        let parts = Partitioning::balanced(&dg, 4);
        let mut got = Vec::new();
        let adaptive = xm_e1_with_kernels(&dg, &parts, &k, |x, y, z| got.push((x, y, z))).unwrap();
        assert_eq!(got, want);
        assert_eq!(adaptive.cost.triangles, paper.cost.triangles);
        assert_eq!(adaptive.cost.local, paper.cost.local);
        assert_eq!(adaptive.cost.remote, paper.cost.remote);
    }

    #[test]
    fn io_grows_linearly_in_p() {
        let dg = fixture(600, 2);
        let m = dg.m() as u64;
        for p in [1usize, 2, 4] {
            let run = xm_e1(&dg, p, |_, _, _| {}).unwrap();
            // edge stream is read once per pass; columns once in total
            assert_eq!(run.io.edges_streamed, p as u64 * m, "p={p}");
            assert_eq!(run.io.edges_loaded, m, "p={p}");
            // setup wrote the stream + all columns
            assert_eq!(run.io.bytes_written, (m + m) * 8, "p={p}");
        }
    }

    #[test]
    fn memory_shrinks_with_p() {
        let dg = fixture(2_000, 3);
        let run1 = xm_e1(&dg, 1, |_, _, _| {}).unwrap();
        let run8 = xm_e1(&dg, 8, |_, _, _| {}).unwrap();
        assert_eq!(run1.peak_memory_edges, dg.m());
        assert!(
            run8.peak_memory_edges * 4 < run1.peak_memory_edges,
            "peak at p=8: {} vs p=1: {}",
            run8.peak_memory_edges,
            run1.peak_memory_edges
        );
    }

    #[test]
    fn balanced_partitioning_beats_even_on_skewed_columns() {
        // descending order piles the in-degree mass onto small labels; the
        // balanced fenceposts keep every column near m/p while even-width
        // intervals overload the first one
        let dg = fixture(2_000, 5);
        let p = 8;
        let even = xm_e1_with(&dg, &Partitioning::even(dg.n(), p), |_, _, _| {}).unwrap();
        let balanced = xm_e1(&dg, p, |_, _, _| {}).unwrap();
        assert!(
            balanced.peak_memory_edges < even.peak_memory_edges,
            "balanced {} vs even {}",
            balanced.peak_memory_edges,
            even.peak_memory_edges
        );
        // both find the same triangles
        assert_eq!(balanced.cost.triangles, even.cost.triangles);
        // balanced peak within 2x of the ideal m/p
        assert!(balanced.peak_memory_edges as u64 <= 2 * dg.m() as u64 / p as u64 + 64);
    }

    #[test]
    fn balanced_covers_label_space() {
        let dg = fixture(500, 6);
        for p in [1usize, 3, 9] {
            let parts = Partitioning::balanced(&dg, p);
            assert_eq!(parts.len(), p);
            assert_eq!(parts.interval(0).start, 0);
            assert_eq!(parts.interval(p - 1).end, dg.n() as u32);
            for a in 0..p - 1 {
                assert_eq!(parts.interval(a).end, parts.interval(a + 1).start);
            }
        }
    }

    #[test]
    fn budgeted_run_with_room_is_complete_and_identical() {
        let dg = fixture(800, 7);
        let mut want = Vec::new();
        let plain = xm_e1(&dg, 4, |x, y, z| want.push((x, y, z))).unwrap();
        let parts = Partitioning::balanced(&dg, 4);
        let budget = RunBudget::unlimited()
            .with_deadline(std::time::Duration::from_secs(3600))
            .with_memory_bytes(u64::MAX);
        let mut got = Vec::new();
        let outcome = xm_e1_budgeted(&dg, &parts, &Kernels::paper(), &budget, |x, y, z| {
            got.push((x, y, z))
        })
        .unwrap();
        assert!(outcome.is_complete());
        assert_eq!(got, want);
        let run = outcome.run();
        assert_eq!(run.cost.triangles, plain.cost.triangles);
        assert_eq!(run.cost.local, plain.cost.local);
        assert_eq!(run.cost.remote, plain.cost.remote);
        assert_eq!(run.io.edges_streamed, plain.io.edges_streamed);
    }

    #[test]
    fn zero_deadline_stops_before_the_first_pass() {
        let dg = fixture(400, 8);
        let parts = Partitioning::balanced(&dg, 3);
        let budget = RunBudget::unlimited().with_deadline(std::time::Duration::ZERO);
        let outcome = xm_e1_budgeted(&dg, &parts, &Kernels::paper(), &budget, |_, _, _| {
            panic!("no triangles may be delivered")
        })
        .unwrap();
        match outcome {
            XmOutcome::Partial {
                run,
                completed_passes,
                total_passes,
                reason,
            } => {
                assert_eq!(completed_passes, 0);
                assert_eq!(total_passes, 3);
                assert_eq!(reason, StopReason::DeadlineExceeded);
                assert_eq!(run.cost.triangles, 0);
            }
            XmOutcome::Complete(_) => panic!("a zero deadline must interrupt the run"),
        }
    }

    #[test]
    fn cancellation_stops_between_passes() {
        use trilist_core::CancelToken;
        let dg = fixture(400, 9);
        let parts = Partitioning::balanced(&dg, 2);
        let token = CancelToken::new();
        token.cancel();
        let budget = RunBudget::unlimited().with_cancel(token);
        let outcome =
            xm_e1_budgeted(&dg, &parts, &Kernels::paper(), &budget, |_, _, _| {}).unwrap();
        match outcome {
            XmOutcome::Partial {
                completed_passes,
                reason,
                ..
            } => {
                assert_eq!(completed_passes, 0);
                assert_eq!(reason, StopReason::Cancelled);
            }
            XmOutcome::Complete(_) => panic!("a cancelled token must interrupt the run"),
        }
    }

    #[test]
    fn memory_ceiling_yields_an_exact_column_prefix() {
        let dg = fixture(1_500, 10);
        let p = 6;
        let parts = Partitioning::balanced(&dg, p);
        // a ceiling below one balanced column: the first load trips it
        let ceiling = dg.m() as u64 * COLUMN_BYTES_PER_EDGE / (2 * p as u64);
        let budget = RunBudget::unlimited().with_memory_bytes(ceiling.max(1));
        let mut got = Vec::new();
        let outcome = xm_e1_budgeted(&dg, &parts, &Kernels::paper(), &budget, |x, y, z| {
            got.push((x, y, z))
        })
        .unwrap();
        let (completed, reason) = match &outcome {
            XmOutcome::Partial {
                completed_passes,
                reason,
                ..
            } => (*completed_passes, *reason),
            XmOutcome::Complete(_) => panic!("the ceiling must interrupt the run"),
        };
        assert_eq!(reason, StopReason::MemoryExhausted);
        assert!(completed < p);
        // delivered triangles are exactly those whose smallest corner lies
        // in the completed leading intervals
        let cutoff = parts.interval(completed).start;
        let mut want = Vec::new();
        xm_e1_with(&dg, &parts, |x, y, z| {
            if x < cutoff {
                want.push((x, y, z));
            }
        })
        .unwrap();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn for_memory_budget_sizes_columns_to_fit() {
        let dg = fixture(2_000, 11);
        assert_eq!(Partitioning::for_memory_budget(&dg, None).len(), 1);
        let bytes = dg.m() as u64 * COLUMN_BYTES_PER_EDGE / 4;
        let parts = Partitioning::for_memory_budget(&dg, Some(bytes));
        assert!(
            parts.len() >= 4,
            "P={} for a quarter-size budget",
            parts.len()
        );
        // balanced columns stay near m/P, so a 2x-of-ideal slack covers the
        // fencepost rounding; the budgeted run itself must then complete
        let budget =
            RunBudget::unlimited().with_memory_bytes(2 * bytes + 64 * COLUMN_BYTES_PER_EDGE);
        let outcome =
            xm_e1_budgeted(&dg, &parts, &Kernels::paper(), &budget, |_, _, _| {}).unwrap();
        assert!(outcome.is_complete());
    }

    #[test]
    fn observed_run_is_identical_and_spans_cover_every_pass() {
        use trilist_core::obs::{Counter, InMemoryRecorder};
        let dg = fixture(800, 12);
        let p = 5;
        let parts = Partitioning::balanced(&dg, p);
        let mut want = Vec::new();
        let plain = xm_e1_with(&dg, &parts, |x, y, z| want.push((x, y, z))).unwrap();
        let rec = InMemoryRecorder::new();
        let mut got = Vec::new();
        let observed = xm_e1_observed(
            &dg,
            &parts,
            &Kernels::paper(),
            &RunBudget::unlimited(),
            &rec,
            |x, y, z| got.push((x, y, z)),
        )
        .unwrap()
        .complete()
        .expect("unlimited budget");
        assert_eq!(got, want, "recording must not change the triangles");
        assert_eq!(observed.cost, plain.cost);
        assert_eq!(observed.io.edges_streamed, plain.io.edges_streamed);
        // one ok span per pass, covering the column intervals exactly
        let spans = rec.spans();
        assert_eq!(spans.len(), p);
        for (a, s) in spans.iter().enumerate() {
            assert_eq!(s.chunk, a as u32);
            assert_eq!(s.range, parts.interval(a));
            assert_eq!(s.domain, WorkDomain::Listing(Method::E1));
            assert!(s.ok);
        }
        assert_eq!(
            spans.iter().map(|s| s.ops).sum::<u64>(),
            plain.cost.operations(),
            "span ops partition the run's operations"
        );
        // two budget gates per started pass
        assert_eq!(rec.counter(Counter::BudgetChecks), 2 * p as u64);
    }

    #[test]
    fn empty_graph() {
        let g = trilist_graph::Graph::from_edges(4, &[]).unwrap();
        let dg = DirectedGraph::orient(&g, &Relabeling::identity(4));
        let run = xm_e1(&dg, 3, |_, _, _| panic!("no triangles")).unwrap();
        assert_eq!(run.cost.triangles, 0);
        assert_eq!(run.peak_memory_edges, 0);
    }
}
