//! The library workload: every method × kernel policy × adjacency layout
//! at n = 3·10⁴ on one thread, each (policy, layout) group prepared, listed
//! and dropped in turn, plus one autotuner plan per cycle.

use crate::catalog::{Values, LAYOUTS, METHODS, POLICIES};
use crate::graphs::{self, TriDigest};
use crate::replay::prepare_split;
use crate::report::{median, Outcome};
use crate::sys::{self, MIB};
use crate::trace::{self, Span, Tracer, ROOT};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use trilist_core::{
    list_resilient_src, CostReport, Counter, GraphSource, InMemoryRecorder, KernelPlan,
    KernelPolicy, Method, ParallelOpts, Recorder, ResilientOpts, RunOutcome,
};
use trilist_graph::Graph;
use trilist_order::OrderFamily;
use trilist_serve::{autotune_plan, prepare_graph_with, PlanMode, Prepared};

pub const N: usize = 30_000;
/// Relabel seed of every batch prepare (any fixed value works: the
/// descending ordering consumes no randomness).
const PREPARE_SEED: u64 = 0x6261_7463;
/// Set-ups per run at least; `setup_s` is their median.
const SETUP_SAMPLES: usize = 3;

fn plan(policy: &str, layout: &str) -> KernelPlan {
    KernelPlan {
        policy: KernelPolicy::from_name(policy).expect("catalog policy"),
        compressed: layout == "compressed",
    }
}

fn method(name: &str) -> Method {
    Method::from_name(name).expect("catalog method")
}

/// Prepares one (policy, layout) group; returns it with the seconds the
/// prepare took. Every set-up sample is a plan plus these prepares, and
/// none counts the time to drop a group.
fn prepare_group(graph: &Graph, policy: &str, layout: &str) -> (Prepared, f64) {
    let t0 = Instant::now();
    let prepared = prepare_graph_with(
        graph,
        OrderFamily::Descending,
        PREPARE_SEED,
        PlanMode::Fixed(plan(policy, layout)),
    );
    (prepared, t0.elapsed().as_secs_f64())
}

/// A listing's cost report and triangles (relabeled IDs).
type Listing = (CostReport, Vec<(u32, u32, u32)>);

/// One listing run of a prepared group, with the store's sharing rule:
/// T-methods reuse the prepared oracle, non-paper policies the prepared
/// kernels.
fn list(
    prepared: &Prepared,
    m: Method,
    recorder: Option<&Arc<InMemoryRecorder>>,
) -> Result<Listing, String> {
    let policy = prepared.plan.policy;
    let opts = ResilientOpts {
        parallel: ParallelOpts {
            policy,
            ..ParallelOpts::with_threads(1)
        },
        recorder: recorder.map(|r| Arc::clone(r) as Arc<dyn Recorder>),
        oracle: matches!(m, Method::T1 | Method::T2).then(|| Arc::clone(&prepared.oracle)),
        kernels: (!matches!(policy, KernelPolicy::PaperFaithful))
            .then(|| Arc::clone(&prepared.kernels)),
        ..ResilientOpts::default()
    };
    let src = match &prepared.csr {
        Some(c) => GraphSource::Compressed(c),
        None => GraphSource::Plain(&prepared.dg),
    };
    match list_resilient_src(src, m, &opts) {
        Ok(RunOutcome::Complete(run)) => Ok((run.cost, run.triangles)),
        Ok(RunOutcome::Partial(_)) => Err("unlimited run came back partial".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// Checks one listing against the reference, and its cost report against
/// the first report seen for the method (cost is policy- and
/// layout-invariant).
struct Checker {
    reference: TriDigest,
    costs: BTreeMap<&'static str, CostReport>,
}

impl Checker {
    fn check(
        &mut self,
        cell: &str,
        m: &'static str,
        prepared: &Prepared,
        cost: &CostReport,
        triangles: &[(u32, u32, u32)],
        full: bool,
    ) -> Result<(), String> {
        if cost.triangles != self.reference.count || triangles.len() as u64 != cost.triangles {
            return Err(format!(
                "{cell}: {} triangles ({} listed), reference says {}",
                cost.triangles,
                triangles.len(),
                self.reference.count
            ));
        }
        if full {
            let mut d = TriDigest::default();
            for &(x, y, z) in triangles {
                let mut t = [
                    prepared.inverse[x as usize],
                    prepared.inverse[y as usize],
                    prepared.inverse[z as usize],
                ];
                t.sort_unstable();
                d.add((t[0], t[1], t[2]));
            }
            if d != self.reference {
                return Err(format!(
                    "{cell}: listed triangles differ from the reference set"
                ));
            }
        }
        // the paper's fields; pointer advances are the kernel's own work
        let paper = |c: &CostReport| (c.triangles, c.lookups, c.local, c.remote, c.hash_inserts);
        match self.costs.get(m) {
            Some(first) if paper(first) != paper(cost) => {
                Err(format!("{cell}: paper cost differs across cells"))
            }
            Some(_) => Ok(()),
            None => {
                self.costs.insert(m, *cost);
                Ok(())
            }
        }
    }
}

/// Per cell: `(list seconds, paper ops)` of every listing.
type Cells = BTreeMap<String, Vec<(f64, u64)>>;

/// Runs the matrix on an `n`-node graph ([`N`] in the workload); returns
/// the measured values and, with `trace_run`, the spans of a traced cycle.
pub fn run(
    n: usize,
    seed: u64,
    seconds: f64,
    trace_run: bool,
    wrong_reference: bool,
    out: &mut Outcome,
) -> (Values, Vec<Span>) {
    let graph = graphs::workload_graph(n, seed, 0x0062_6174_6368);
    let mut reference = graphs::reference(&graph);
    if wrong_reference {
        reference.count += 1;
    }
    let mut checker = Checker {
        reference,
        costs: BTreeMap::new(),
    };
    let mut cells: Cells = BTreeMap::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut prepares: Vec<f64> = Vec::new();
    let mut plans: Vec<f64> = Vec::new();
    let mut cycle_walls: Vec<f64> = Vec::new();
    let mut resident = 0u64;
    let mut kernel_bytes: BTreeMap<&str, u64> = BTreeMap::new();
    let mut csr_ratio = 0.0;
    let started = Instant::now();
    let mut cycle = 0;
    // whole cycles only, so every run weighs the cells alike; another
    // cycle starts only if it is expected to end within the run's time
    while cycle == 0
        || started.elapsed().as_secs_f64() + cycle_walls.iter().copied().fold(0.0, f64::max)
            <= seconds
    {
        let wall = Instant::now();
        let t0 = Instant::now();
        let summary = autotune_plan(&graph, 0);
        let mut setup = t0.elapsed().as_secs_f64();
        plans.push(setup);
        if summary.evaluations == 0 {
            out.problem("autotuner evaluated no candidates");
        }
        resident = 0;
        for policy in POLICIES {
            for layout in LAYOUTS {
                let (prepared, secs) = prepare_group(&graph, policy, layout);
                setup += secs;
                prepares.push(secs);
                resident += prepared.bytes;
                if layout == "plain" {
                    kernel_bytes.insert(policy, prepared.kernels.bytes());
                } else if let Some(csr) = &prepared.csr {
                    let (n, m) = (prepared.dg.n() as u64, prepared.dg.m() as u64);
                    csr_ratio = csr.bytes() as f64 / (2 * m * 4 + 2 * (n + 1) * 8) as f64;
                }
                for m in METHODS {
                    let cell = format!("{m}.{policy}.{layout}");
                    out.attempted += 1;
                    let t0 = Instant::now();
                    let res = list(&prepared, method(m), None);
                    let secs = t0.elapsed().as_secs_f64();
                    let checked = res.and_then(|(cost, tris)| {
                        checker.check(&cell, m, &prepared, &cost, &tris, cycle == 0)?;
                        Ok(cost.operations())
                    });
                    match checked {
                        Ok(ops) => cells.entry(cell).or_default().push((secs, ops)),
                        Err(e) => {
                            out.failed += 1;
                            out.problem(e);
                        }
                    }
                }
            }
        }
        setups.push(setup);
        cycle_walls.push(wall.elapsed().as_secs_f64());
        cycle += 1;
    }
    // set-up alone until there are enough samples for a median
    while setups.len() < SETUP_SAMPLES {
        let t0 = Instant::now();
        autotune_plan(&graph, 0);
        let mut setup = t0.elapsed().as_secs_f64();
        for policy in POLICIES {
            for layout in LAYOUTS {
                setup += prepare_group(&graph, policy, layout).1;
            }
        }
        setups.push(setup);
    }

    let mut values = Values::default();
    // Each cell's fastest call over the cycles stands for the cell: other
    // load on a shared host only ever adds time, and it comes and goes over
    // seconds, so the fastest call is the least disturbed one. A cell's
    // paper ops are the same in every cycle.
    let fastest: BTreeMap<&str, (f64, u64)> = cells
        .iter()
        .map(|(cell, v)| {
            let secs = v.iter().map(|&(s, _)| s).fold(f64::INFINITY, f64::min);
            (cell.as_str(), (secs, v[0].1))
        })
        .collect();
    let list_secs: f64 = fastest.values().map(|&(s, _)| s).sum();
    let ops: u64 = fastest.values().map(|&(_, o)| o).sum();
    let n = cells.values().map(Vec::len).sum::<usize>() as u64;
    values.set(
        "throughput_rps",
        fastest.len() as f64 / list_secs.max(1e-9),
        n,
    );
    // Call times cluster by method, so the median over all cells jumps
    // between clusters. The median over methods of each method's mean cell
    // is the same middle without the jump.
    let by_method: Vec<f64> = METHODS
        .iter()
        .map(|m| {
            let v: Vec<f64> = fastest
                .iter()
                .filter(|(cell, _)| cell.starts_with(&format!("{m}.")))
                .map(|(_, &(s, _))| s * 1e3)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        })
        .collect();
    let p50 = median(&by_method);
    values.set("latency_p50_ms", p50, n);
    values.set("read_p50_ms", p50, n);
    values.set(
        "paper_mops_per_s",
        ops as f64 / list_secs.max(1e-9) / 1e6,
        n,
    );
    values.set("setup_s", median(&setups), setups.len() as u64);
    values.set("resident_mb", resident as f64 / MIB, 1);
    values.set("peak_rss_mb", sys::peak_rss_mb(), 1);
    values.set("cycles", cycle as f64, 1);

    // per layer
    let ns_per_op = |cell: &str| -> Option<f64> {
        let v: Vec<f64> = cells
            .get(cell)?
            .iter()
            .map(|&(s, o)| s * 1e9 / o.max(1) as f64)
            .collect();
        Some(median(&v))
    };
    for m in METHODS {
        for p in POLICIES {
            for l in LAYOUTS {
                if let Some(v) = ns_per_op(&format!("{m}.{p}.{l}")) {
                    values.set(format!("kernel.ns_per_op.{m}.{p}.{l}"), v, cycle as u64);
                }
            }
            if let (Some(c), Some(pl)) = (
                ns_per_op(&format!("{m}.{p}.compressed")),
                ns_per_op(&format!("{m}.{p}.plain")),
            ) {
                values.set(format!("compressed.slowdown.{m}.{p}"), c / pl, cycle as u64);
            }
        }
    }
    for (p, bytes) in &kernel_bytes {
        values.set(format!("kernel.bytes.{p}"), *bytes as f64 / MIB, 1);
    }
    values.set("compressed.bytes_ratio", csr_ratio, 1);
    values.set("model.plan_ms", median(&plans) * 1e3, plans.len() as u64);
    values.set(
        "store.prepare_miss_ms",
        median(&prepares) * 1e3,
        prepares.len() as u64,
    );
    values.set(
        "resilient.paper_ops_per_req",
        ops as f64 / fastest.len().max(1) as f64,
        n,
    );
    let spans = if trace_run {
        traced_cycle(&graph, &mut checker, median(&cycle_walls), &mut values, out)
    } else {
        Vec::new()
    };
    (values, spans)
}

/// One more cycle with spans around every library call and a recorder on
/// the runtime: prepare split by step, listing self time, kernel calls.
/// Returns the spans.
fn traced_cycle(
    graph: &Graph,
    checker: &mut Checker,
    untraced_wall: f64,
    values: &mut Values,
    out: &mut Outcome,
) -> Vec<Span> {
    let mut t = Tracer::new(true);
    let recorder = Arc::new(InMemoryRecorder::new());
    let wall = Instant::now();
    let mut id = 0u64;
    let root = t.begin(id, "request", ROOT);
    t.wrap(id, "model.plan", root, || autotune_plan(graph, 0));
    t.end(root);
    let mut splits = Vec::new();
    let mut untraced_extra = 0.0;
    let mut runs = 0u64;
    let mut exec_ns = 0u64;
    for policy in POLICIES {
        for layout in LAYOUTS {
            id += 1;
            let kp = plan(policy, layout);
            // the step-by-step prepare must agree with the library's own;
            // that check is not traced and its time is not the trace's
            let t0 = Instant::now();
            let library = prepare_graph_with(
                graph,
                OrderFamily::Descending,
                PREPARE_SEED,
                PlanMode::Fixed(kp),
            );
            let expect = (TriDigest::of_labels(&library.inverse), library.bytes);
            drop(library);
            untraced_extra += t0.elapsed().as_secs_f64();
            let root = t.begin(id, "request", ROOT);
            let (prepared, split) = prepare_split(
                &mut t,
                id,
                root,
                graph,
                OrderFamily::Descending.into(),
                PREPARE_SEED,
                kp,
            );
            if (TriDigest::of_labels(&prepared.inverse), prepared.bytes) != expect {
                out.problem(format!(
                    "step-by-step prepare of {policy}.{layout} differs from the library's"
                ));
            }
            splits.push(split);
            for m in METHODS {
                let t0 = Instant::now();
                let res = t.wrap(id, "resilient.execute", root, || {
                    list(&prepared, method(m), Some(&recorder))
                });
                exec_ns += t0.elapsed().as_nanos() as u64;
                runs += 1;
                let cell = format!("{m}.{policy}.{layout} (traced)");
                if let Err(e) = res.and_then(|(cost, tris)| {
                    checker.check(&cell, m, &prepared, &cost, &tris, false)
                }) {
                    out.problem(e);
                }
            }
            // dropping the group is the store's eviction
            t.wrap(id, "store.prepare", root, || drop(prepared));
            t.end(root);
        }
    }
    let traced_wall = wall.elapsed().as_secs_f64() - untraced_extra;
    for (k, metric) in [
        "order.relabel_ms",
        "order.orient_ms",
        "oracle.build_ms",
        "kernel.build_ms",
        "compressed.build_ms",
    ]
    .iter()
    .enumerate()
    {
        let v: Vec<f64> = splits
            .iter()
            .map(|s| s[k] as f64 / 1e6)
            .filter(|&x| k != 4 || x > 0.0005)
            .collect();
        values.set(*metric, median(&v), v.len() as u64);
    }
    let per_call = |c: Counter| recorder.counter(c) as f64 / runs.max(1) as f64;
    for (kind, c) in [
        ("paper", Counter::IntersectPaper),
        ("branchless", Counter::IntersectBranchless),
        ("gallop", Counter::IntersectGallop),
        ("bitmap", Counter::IntersectBitmap),
        ("bitset", Counter::IntersectBitset),
        ("stamp", Counter::IntersectStamp),
    ] {
        values.set(format!("kernel.calls.{kind}"), per_call(c), runs);
    }
    let (hits, misses) = (
        recorder.counter(Counter::OracleHits),
        recorder.counter(Counter::OracleMisses),
    );
    values.set(
        "kernel.oracle_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        hits + misses,
    );
    let spans = recorder.spans();
    let chunks = spans
        .iter()
        .filter(|s| !s.is_setup() && s.attempt == 0)
        .count();
    let busy: u64 = spans
        .iter()
        .filter(|s| !s.is_setup())
        .map(|s| s.dur_ns)
        .sum();
    values.set(
        "resilient.chunks_per_run",
        chunks as f64 / runs.max(1) as f64,
        runs,
    );
    values.set(
        "resilient.worker_idle_share",
        (1.0 - busy as f64 / exec_ns.max(1) as f64).max(0.0),
        runs,
    );
    trace::report(&trace::analyze(&t.spans), values);
    values.set(
        "trace.overhead_share",
        traced_wall / untraced_wall.max(1e-9) - 1.0,
        1,
    );
    t.spans
}
