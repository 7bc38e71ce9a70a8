//! Kernel-selection matrix: the Table-3 analogue for the intersection
//! kernel layer.
//!
//! Three measurements, all on this machine:
//!
//! 1. **Crossover sweep** — branchless two-pointer merge vs galloping
//!    intersection over a ladder of `|long|/|short|` ratios, on *random*
//!    sorted lists (deterministic seed). The reported crossover is the
//!    smallest ratio from which galloping wins at **every** larger ratio
//!    in the grid — a single lucky win at a small ratio (an artifact the
//!    earlier strided-list sweep suffered from) does not count. The whole
//!    per-ratio curve is exported so a reader can judge stability.
//! 2. **Method × kernel × layout × threads matrix** — E1/E4 (scanning)
//!    and T1/T2 (hash-probe) under `paper` / `adaptive` / `bitset`
//!    kernels, over the plain and the delta/varint-compressed CSR, at
//!    1/2/4 worker threads, on Pareto α = 1.5 graphs under each method's
//!    optimal orientation. Paper-cost operations per wall-clock second;
//!    no kernel or layout may change any paper-cost field, so the ops
//!    numerator is identical by construction and every speedup is pure
//!    wall-clock.
//! 3. **§2.4 calibration** — the measured scan/hash elementary-operation
//!    ratio (the paper's 95×) fed into `trilist_model::wn::sei_wins`.
//!
//! Results are printed as tables and written machine-readably to
//! `BENCH_listing.json` in the working directory. Run from the repository
//! root, that overwrites the committed baseline `--gate` compares
//! against, so run exploratory sweeps from a scratch directory:
//!
//! ```sh
//! REPO=$PWD; mkdir -p /tmp/kernel_matrix && cd /tmp/kernel_matrix
//! cargo run --release -q --manifest-path "$REPO/Cargo.toml" \
//!     -p trilist-experiments --bin kernel_matrix -- --max-n 10000
//! ```
//!
//! **Regression gate:** `--gate` re-measures the matrix and compares the
//! pinned cells — E1/E4 × adaptive/bitset × plain/csr at the largest `n`,
//! one thread, each taken as a ratio to the same run's paper-faithful
//! cell so machine drift cancels (see [`gate_regressions`]) — against the
//! committed `BENCH_listing.json`; any pinned ratio below
//! [`GATE_THRESHOLD`] × its baseline ratio fails the run (exit 1). The
//! gate never rewrites the baseline.

use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use trilist_core::intersect::{intersect_branchless, intersect_gallop};
use trilist_core::source::GraphSource;
use trilist_core::{
    list_resilient_src, CompressedCsr, HashOracle, KernelPolicy, Kernels, Method, ParallelOpts,
    ResilientOpts,
};
use trilist_experiments::{JsonWriter, Opts, Table};
use trilist_graph::dist::{sample_degree_sequence, DiscretePareto, Truncated, Truncation};
use trilist_graph::gen::{GraphGenerator, ResidualSampler};
use trilist_model::calibrate;
use trilist_order::DirectedGraph;

type KernelCtor = fn() -> KernelPolicy;

/// Kernel policies measured by the matrix, in column order.
const KERNELS: [(&str, KernelCtor); 3] = [
    ("paper", || KernelPolicy::PaperFaithful),
    ("adaptive", KernelPolicy::adaptive),
    ("bitset", KernelPolicy::bitset),
];

/// Thread counts measured per variant.
const THREADS: [usize; 3] = [1, 2, 4];

/// `--gate` fails a pinned cell whose paper-relative ratio drops below
/// this fraction of its committed baseline ratio. Sized to the observed
/// inter-run variance of the *ratios themselves* on shared runners:
/// machine-wide drift cancels in the paper normalization, but per-kernel
/// branch-predictor and frequency state does not, and back-to-back clean
/// runs have shown individual adaptive cells at 71% of their baseline
/// ratio. 0.60 stays clear of that noise floor while still catching a
/// kernel that loses its edge over the paper scan outright (a dispatch
/// bug sending E1 to the fallback path shows up as a ~40%+ ratio drop on
/// the compressed cells).
const GATE_THRESHOLD: f64 = 0.60;

/// One measured cell of the method × kernel × layout × threads matrix.
struct Cell {
    method: &'static str,
    kernel: &'static str,
    layout: &'static str,
    threads: usize,
    n: usize,
    ops: u64,
    secs: f64,
    triangles: u64,
}

impl Cell {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.secs.max(f64::MIN_POSITIVE)
    }

    /// The gate's lookup key for this cell.
    fn key(&self) -> String {
        cell_key(self.method, self.kernel, self.layout, self.threads, self.n)
    }
}

fn cell_key(method: &str, kernel: &str, layout: &str, threads: usize, n: usize) -> String {
    format!("{method}/{kernel}/{layout}/t{threads}/n{n}")
}

/// Best-of-`rounds` wall time of `f` (returns whatever `f` returns on the
/// last round, for black-boxing).
fn time_best<T>(rounds: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..rounds.max(1) {
        let started = Instant::now();
        let v = f();
        best = best.min(started.elapsed().as_secs_f64());
        out = Some(v);
    }
    (best, out.unwrap())
}

/// A reproducible Pareto α-tail graph oriented for `method`.
fn oriented_fixture(n: usize, alpha: f64, seed: u64, method: Method) -> DirectedGraph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let dist = Truncated::new(DiscretePareto::paper_beta(alpha), Truncation::Root.t_n(n));
    let (seq, _) = sample_degree_sequence(&dist, n, &mut rng);
    let g = ResidualSampler.generate(&seq, &mut rng).graph;
    let relabeling = method.optimal_family().relabeling(&g, &mut rng);
    DirectedGraph::orient(&g, &relabeling)
}

/// A sorted list of `len` distinct values drawn uniformly from
/// `0..universe` — the shape real adjacency slices have, unlike the
/// strided lists an earlier version of this sweep used (which handed
/// galloping a perfectly predictable probe pattern and produced a
/// degenerate crossover of 1).
fn random_sorted(len: u32, universe: u32, rng: &mut impl Rng) -> Vec<u32> {
    let mut v: Vec<u32> = (0..len).map(|_| rng.gen_range(0..universe)).collect();
    v.sort_unstable();
    v.dedup();
    // top up after dedup so every list has exactly `len` elements
    while (v.len() as u32) < len {
        let x = rng.gen_range(0..universe);
        if let Err(i) = v.binary_search(&x) {
            v.insert(i, x);
        }
    }
    v
}

/// One point on the measured crossover curve.
struct CurvePoint {
    ratio: u32,
    merge_ns: f64,
    gallop_ns: f64,
}

impl CurvePoint {
    fn gallop_wins(&self) -> bool {
        self.gallop_ns < self.merge_ns
    }
}

/// Sweeps `|long|/|short|` ratios on random sorted lists and reports
/// per-ratio merge vs gallop time. The returned crossover is *stable*:
/// the smallest ratio such that galloping wins there and at every larger
/// measured ratio.
///
/// Each timed rep cycles through a pool of distinct list pairs. Timing
/// one fixed pair thousands of times lets the branch predictor memorize
/// galloping's data-dependent probe pattern — merge is branchless and
/// gains nothing — which hands galloping an unreal win at small ratios
/// (the second artifact this sweep has shed; the first was strided
/// lists, which have a perfectly predictable layout).
fn crossover_sweep(rounds: usize, seed: u64) -> (Table, Option<u32>, Vec<CurvePoint>) {
    let short_len = 256u32;
    let pool = 16usize;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC0DE);
    let mut table = Table::new(
        "Kernel crossover: branchless merge vs gallop, random lists, |short| = 256 \
         (ns/short-elem)",
        &["|long|/|short|", "merge", "gallop", "winner"],
    );
    let mut curve = Vec::new();
    for ratio in [1u32, 2, 4, 8, 16, 32, 64, 128, 256] {
        let long_len = short_len * ratio;
        // both lists drawn from the long list's universe at ~50% density,
        // so expected matches scale like a real adjacency intersection
        let universe = long_len * 2;
        let pairs: Vec<(Vec<u32>, Vec<u32>)> = (0..pool)
            .map(|_| {
                (
                    random_sorted(short_len, universe, &mut rng),
                    random_sorted(long_len, universe, &mut rng),
                )
            })
            .collect();
        let reps = ((1 << 22) / long_len.max(1) as usize).max(pool);
        let (merge_s, _) = time_best(rounds, || {
            let mut m = 0u64;
            for r in 0..reps {
                let (short, long) = &pairs[r % pool];
                m += intersect_branchless(black_box(short), black_box(long), |x| {
                    black_box(x);
                })
                .matches;
            }
            black_box(m)
        });
        let (gallop_s, _) = time_best(rounds, || {
            let mut m = 0u64;
            for r in 0..reps {
                let (short, long) = &pairs[r % pool];
                m += intersect_gallop(black_box(short), black_box(long), |x| {
                    black_box(x);
                })
                .matches;
            }
            black_box(m)
        });
        let per_elem = |s: f64| s / (reps as f64 * short_len as f64) * 1e9;
        curve.push(CurvePoint {
            ratio,
            merge_ns: per_elem(merge_s),
            gallop_ns: per_elem(gallop_s),
        });
    }
    // stable crossover: walk from the largest ratio down while gallop
    // keeps winning; the last ratio of that winning suffix is the answer
    let mut crossover = None;
    for p in curve.iter().rev() {
        if p.gallop_wins() {
            crossover = Some(p.ratio);
        } else {
            break;
        }
    }
    for p in &curve {
        table.row(vec![
            format!("{}", p.ratio),
            format!("{:.2}", p.merge_ns),
            format!("{:.2}", p.gallop_ns),
            if p.gallop_wins() { "gallop" } else { "merge" }.into(),
        ]);
    }
    (table, crossover, curve)
}

/// Times one (method, kernel, layout, threads) variant through the
/// resilient runtime. Everything amortizable is built *outside* the timed
/// region — the compressed layout, the kernel context (hub bitmaps, block
/// encodings), and the T1/T2 edge oracle — exactly the shape a serving
/// deployment has after [`GraphStore::prepare`]: the matrix measures
/// steady-state listing throughput, not registration cost. (An earlier
/// version went through `par_list_with`, which rebuilds kernels and
/// oracle per worker inside the timed region; at these n the rebuild
/// dominated and flattened every kernel difference.)
///
/// [`GraphStore::prepare`]: ../trilist_serve/struct.GraphStore.html#method.prepare
#[allow(clippy::too_many_arguments)]
fn measure(
    dg: &DirectedGraph,
    csr: &CompressedCsr,
    method: Method,
    kernel: &'static str,
    policy: KernelPolicy,
    layout: &'static str,
    threads: usize,
    rounds: usize,
) -> Cell {
    let src = match layout {
        "plain" => GraphSource::Plain(dg),
        _ => GraphSource::Compressed(csr),
    };
    let opts = ResilientOpts {
        parallel: ParallelOpts {
            threads,
            policy,
            ..ParallelOpts::default()
        },
        kernels: Some(Arc::new(Kernels::build_src(policy, src))),
        oracle: matches!(method, Method::T1 | Method::T2).then(|| Arc::new(HashOracle::build(dg))),
        ..ResilientOpts::default()
    };
    let (secs, run) = time_best(rounds, || {
        list_resilient_src(src, method, &opts)
            .expect("fundamental method")
            .complete()
            .expect("unlimited budget")
    });
    Cell {
        method: method.name(),
        kernel,
        layout,
        threads,
        n: dg.n(),
        ops: run.cost.operations(),
        secs,
        triangles: run.cost.triangles,
    }
}

/// Machine-readable companion to the printed tables, emitted through the
/// deterministic [`JsonWriter`]: stable field order, fixed float
/// formatting — regenerating on the same measurements reproduces the file
/// byte-for-byte.
fn render_json(
    crossover: Option<u32>,
    curve: &[CurvePoint],
    cal: &calibrate::Calibration,
    wn: f64,
    sei_recommended: bool,
    cells: &[Cell],
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("bench").string("kernel_matrix");
    w.key("alpha").f64_prec(1.5, 1);
    match crossover {
        Some(r) => w.key("gallop_crossover_measured").u64(r as u64),
        None => w.key("gallop_crossover_measured").null(),
    };
    w.key("crossover_curve").begin_array();
    for p in curve {
        w.begin_object();
        w.key("ratio").u64(p.ratio as u64);
        w.key("merge_ns").f64_prec(p.merge_ns, 2);
        w.key("gallop_ns").f64_prec(p.gallop_ns, 2);
        w.key("winner")
            .string(if p.gallop_wins() { "gallop" } else { "merge" });
        w.end_object();
    }
    w.end_array();
    w.key("calibration").begin_object();
    w.key("hash_ops_per_sec").f64_prec(cal.hash_ops_per_sec, 1);
    w.key("scan_ops_per_sec").f64_prec(cal.scan_ops_per_sec, 1);
    w.key("speed_ratio").f64_prec(cal.speed_ratio, 3);
    w.key("wn").f64_prec(wn, 3);
    w.key("sei_recommended").bool(sei_recommended);
    w.end_object();
    w.key("results").begin_array();
    for c in cells {
        w.begin_object();
        w.key("method").string(c.method);
        w.key("kernel").string(c.kernel);
        w.key("layout").string(c.layout);
        w.key("threads").u64(c.threads as u64);
        w.key("n").u64(c.n as u64);
        w.key("ops").u64(c.ops);
        w.key("secs").f64(c.secs);
        w.key("ops_per_sec").f64_prec(c.ops_per_sec(), 1);
        w.key("triangles").u64(c.triangles);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Extracts `(cell key, ops_per_sec)` pairs from a committed
/// `BENCH_listing.json`. Relies only on the [`JsonWriter`] invariants the
/// file is generated under — one `"results"` array whose objects carry
/// the fields in fixed order — so no JSON dependency is needed.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let Some(results_at) = text.find("\"results\"") else {
        return Vec::new();
    };
    let field = |obj: &str, name: &str| -> Option<String> {
        let at = obj.find(&format!("\"{name}\":"))? + name.len() + 3;
        let rest = &obj[at..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().trim_matches('"').to_string())
    };
    let mut out = Vec::new();
    let mut rest = &text[results_at..];
    while let Some(start) = rest.find('{') {
        let Some(end) = rest[start..].find('}') else {
            break;
        };
        let obj = &rest[start..start + end + 1];
        rest = &rest[start + end + 1..];
        let all = (|| {
            Some((
                cell_key(
                    &field(obj, "method")?,
                    &field(obj, "kernel")?,
                    &field(obj, "layout")?,
                    field(obj, "threads")?.parse().ok()?,
                    field(obj, "n")?.parse().ok()?,
                ),
                field(obj, "ops_per_sec")?.parse().ok()?,
            ))
        })();
        if let Some(pair) = all {
            out.push(pair);
        }
    }
    out
}

/// Compares measured cells against the committed baseline; returns the
/// regressed pinned cells.
///
/// The pinned subset is the scanning methods (E1/E4 — the cells whose
/// inner loop *is* the kernel layer) at the largest measured `n` on one
/// worker thread, where run time is long enough to be reproducible; the
/// small-`n` and T1/T2 cells stay in the JSON as documentation but carry
/// too much noise to gate on. Each pinned cell is compared as a ratio to
/// the *same run's* paper-faithful cell for its `(method, layout)`:
/// machine-wide drift between the baseline run and the gate run (this
/// container swings ±30% across minutes) multiplies both sides of the
/// ratio and cancels, while a genuine kernel regression — the adaptive or
/// bitset dispatch getting slower relative to the fixed paper scan —
/// survives. A pinned ratio below `threshold` × its baseline ratio fails.
fn gate_regressions(cells: &[Cell], baseline: &[(String, f64)], threshold: f64) -> Vec<String> {
    // (CI passes GATE_THRESHOLD; tests exercise the parameter directly.)
    let Some(n_max) = cells.iter().map(|c| c.n).max() else {
        return Vec::new();
    };
    let measured = |method: &str, kernel: &str, layout: &str| -> Option<f64> {
        cells
            .iter()
            .find(|c| {
                c.method == method
                    && c.kernel == kernel
                    && c.layout == layout
                    && c.threads == 1
                    && c.n == n_max
            })
            .map(Cell::ops_per_sec)
    };
    let base = |method: &str, kernel: &str, layout: &str| -> Option<f64> {
        let key = cell_key(method, kernel, layout, 1, n_max);
        baseline.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    };
    let mut failures = Vec::new();
    for method in ["E1", "E4"] {
        for layout in ["plain", "csr"] {
            let (Some(m_paper), Some(b_paper)) = (
                measured(method, "paper", layout),
                base(method, "paper", layout),
            ) else {
                continue; // baseline predates this grid shape — nothing to pin
            };
            for kernel in ["adaptive", "bitset"] {
                let (Some(m), Some(b)) = (
                    measured(method, kernel, layout),
                    base(method, kernel, layout),
                ) else {
                    continue;
                };
                let m_rel = m / m_paper.max(f64::MIN_POSITIVE);
                let b_rel = b / b_paper.max(f64::MIN_POSITIVE);
                if m_rel < threshold * b_rel {
                    failures.push(format!(
                        "{}: {:.2}x of paper-faithful vs baseline {:.2}x ({:.0}%)",
                        cell_key(method, kernel, layout, 1, n_max),
                        m_rel,
                        b_rel,
                        100.0 * m_rel / b_rel
                    ));
                }
            }
        }
    }
    failures
}

fn main() -> ExitCode {
    // `--gate` is this binary's own flag; strip it before the shared
    // parser, which rejects unknown flags
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let gate = raw.iter().any(|a| a == "--gate");
    raw.retain(|a| a != "--gate");
    let opts = Opts::parse_from(raw);
    // the gate compares against a committed baseline on a noisy box, so
    // it takes an extra best-of round before calling a cell regressed
    let rounds = if opts.full {
        5
    } else if gate {
        3
    } else {
        2
    };

    // 1. crossover sweep
    let (sweep, crossover, curve) = crossover_sweep(rounds.max(3), opts.seed);
    sweep.print();
    match crossover {
        Some(r) => println!(
            "\nstable crossover ≈ {r}×; AdaptiveConfig::default() ships {}× — tuned \
             in-situ on E1/E4, where dispatch overhead and short-list mixes move it up \
             (see EXPERIMENTS.md)\n",
            trilist_core::AdaptiveConfig::default().gallop_crossover
        ),
        None => println!("\ngalloping never stably won on this machine — merge everywhere\n"),
    }

    // 2. method × kernel × layout × threads matrix
    let methods = [Method::E1, Method::E4, Method::T1, Method::T2];
    let mut cells: Vec<Cell> = Vec::new();
    let mut matrix = Table::new(
        "Listing throughput, Pareto α = 1.5, optimal orientations, 1 thread \
         (paper-cost Mops/s; identical ops numerator per row pair, so the \
         ratio is pure wall-clock)",
        &[
            "method",
            "n",
            "layout",
            "paper",
            "adaptive",
            "bitset",
            "bitset/adaptive",
        ],
    );
    for &n in &opts.sizes() {
        for &method in &methods {
            let dg = oriented_fixture(n, 1.5, opts.seed ^ n as u64, method);
            let csr = CompressedCsr::compress(&dg);
            let mut batch: Vec<Cell> = Vec::new();
            for (kernel, policy) in KERNELS {
                for layout in ["plain", "csr"] {
                    for threads in THREADS {
                        batch.push(measure(
                            &dg,
                            &csr,
                            method,
                            kernel,
                            policy(),
                            layout,
                            threads,
                            rounds,
                        ));
                    }
                }
            }
            for c in &batch {
                assert_eq!(
                    (c.ops, c.triangles),
                    (batch[0].ops, batch[0].triangles),
                    "paper-cost fields diverged on {}",
                    c.key()
                );
            }
            for layout in ["plain", "csr"] {
                let serial = |kernel: &str| {
                    batch
                        .iter()
                        .find(|c| c.kernel == kernel && c.layout == layout && c.threads == 1)
                        .expect("grid covers every kernel")
                        .ops_per_sec()
                };
                let (paper, adaptive, bitset) =
                    (serial("paper"), serial("adaptive"), serial("bitset"));
                matrix.row(vec![
                    method.name().into(),
                    format!("{n}"),
                    layout.into(),
                    format!("{:.1}", paper / 1e6),
                    format!("{:.1}", adaptive / 1e6),
                    format!("{:.1}", bitset / 1e6),
                    format!("{:.2}x", bitset / adaptive.max(f64::MIN_POSITIVE)),
                ]);
            }
            cells.extend(batch);
        }
    }
    matrix.print();
    println!();

    let n_max = *opts.sizes().last().unwrap();
    let mut scaling = Table::new(
        "E1 thread scaling at n_max (paper-cost Mops/s)",
        &["kernel", "layout", "t=1", "t=2", "t=4"],
    );
    for (kernel, _) in KERNELS {
        for layout in ["plain", "csr"] {
            let at = |threads: usize| {
                cells
                    .iter()
                    .find(|c| {
                        c.method == "E1"
                            && c.kernel == kernel
                            && c.layout == layout
                            && c.threads == threads
                            && c.n == n_max
                    })
                    .map_or(0.0, Cell::ops_per_sec)
            };
            scaling.row(vec![
                kernel.into(),
                layout.into(),
                format!("{:.1}", at(1) / 1e6),
                format!("{:.1}", at(2) / 1e6),
                format!("{:.1}", at(4) / 1e6),
            ]);
        }
    }
    scaling.print();
    println!();

    // 3. §2.4 calibration on the largest E1-oriented graph
    let dg = oriented_fixture(n_max, 1.5, opts.seed ^ n_max as u64, Method::E1);
    let cal = calibrate::calibrate(&dg, rounds);
    let wn = trilist_model::wn_of_graph(&dg);
    let sei = calibrate::sei_recommended(&dg, &cal);
    println!(
        "calibration (n = {n_max}): scan {:.1}M ops/s, hash {:.1}M ops/s, ratio {:.1}x \
         (paper: 95x); w_n = {:.2} -> {} recommended",
        cal.scan_ops_per_sec / 1e6,
        cal.hash_ops_per_sec / 1e6,
        cal.speed_ratio,
        wn,
        if sei { "SEI (E1)" } else { "hash (T1)" },
    );

    let path = "BENCH_listing.json";
    if gate {
        let committed = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("--gate: cannot read committed {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let baseline = parse_baseline(&committed);
        if baseline.is_empty() {
            eprintln!("--gate: committed {path} has no parseable result cells");
            return ExitCode::FAILURE;
        }
        let failures = gate_regressions(&cells, &baseline, GATE_THRESHOLD);
        if failures.is_empty() {
            println!(
                "\ngate: pinned E1/E4 kernel ratios checked against {} baseline cells, \
                 none below {:.0}% of baseline",
                baseline.len(),
                100.0 * GATE_THRESHOLD
            );
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "\ngate: {} pinned cell(s) below {:.0}% of baseline ratio vs {path}:",
                failures.len(),
                100.0 * GATE_THRESHOLD
            );
            for f in &failures {
                eprintln!("  {f}");
            }
            ExitCode::FAILURE
        }
    } else {
        let json = render_json(crossover, &curve, &cal, wn, sei, &cells);
        std::fs::write(path, &json).expect("write BENCH_listing.json");
        println!("\nwrote {path} ({} result cells)", cells.len());
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_round_trips_through_the_writer() {
        let cells = vec![
            Cell {
                method: "E1",
                kernel: "bitset",
                layout: "plain",
                threads: 2,
                n: 10_000,
                ops: 1_000_000,
                secs: 0.004,
                triangles: 77,
            },
            Cell {
                method: "T1",
                kernel: "paper",
                layout: "csr",
                threads: 1,
                n: 100_000,
                ops: 5_000_000,
                secs: 0.1,
                triangles: 8_000,
            },
        ];
        let cal = calibrate::Calibration {
            hash_ops_per_sec: 1e8,
            scan_ops_per_sec: 2e8,
            speed_ratio: 2.0,
        };
        let json = render_json(Some(8), &[], &cal, 3.5, false, &cells);
        let parsed = parse_baseline(&json);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "E1/bitset/plain/t2/n10000");
        assert!((parsed[0].1 - cells[0].ops_per_sec()).abs() < 1.0);
        assert_eq!(parsed[1].0, "T1/paper/csr/t1/n100000");
    }

    fn cell(kernel: &'static str, secs: f64) -> Cell {
        Cell {
            method: "E1",
            kernel,
            layout: "plain",
            threads: 1,
            n: 10_000,
            ops: 1_000_000,
            secs,
            triangles: 1,
        }
    }

    #[test]
    fn gate_compares_paper_relative_ratios() {
        // baseline: paper 100M, adaptive 200M ops/s -> ratio 2.0
        let baseline = vec![
            (cell_key("E1", "paper", "plain", 1, 10_000), 100e6),
            (cell_key("E1", "adaptive", "plain", 1, 10_000), 200e6),
        ];
        // measured run is 2x slower across the board (machine drift):
        // paper 50M, adaptive 100M -> ratio still 2.0, gate passes
        let drifted = [cell("paper", 0.02), cell("adaptive", 0.01)];
        assert!(gate_regressions(&drifted, &baseline, 0.75).is_empty());
        // adaptive alone collapses to parity (ratio 1.0 < 0.75 * 2.0):
        // a genuine kernel regression, gate fails
        let regressed = [cell("paper", 0.02), cell("adaptive", 0.02)];
        assert_eq!(gate_regressions(&regressed, &baseline, 0.75).len(), 1);
        // ratios within 25% of baseline pass: paper 100M, adaptive 170M
        let noisy = [cell("paper", 0.01), cell("adaptive", 1.0 / 170.0)];
        assert!(gate_regressions(&noisy, &baseline, 0.75).is_empty());
    }

    #[test]
    fn gate_skips_unpinnable_baselines() {
        // no paper cell in the baseline: nothing can be pinned
        let baseline = vec![(cell_key("E1", "adaptive", "plain", 1, 10_000), 200e6)];
        let measured = [cell("paper", 0.02), cell("adaptive", 0.02)];
        assert!(gate_regressions(&measured, &baseline, 0.75).is_empty());
        // empty measured grid: nothing to gate
        assert!(gate_regressions(&[], &baseline, 0.75).is_empty());
        // T1/T2 and sub-max-n cells are never pinned, however slow
        let baseline = vec![
            (cell_key("T1", "paper", "plain", 1, 10_000), 100e6),
            (cell_key("T1", "adaptive", "plain", 1, 10_000), 200e6),
        ];
        let mut slow_t1 = [cell("paper", 0.02), cell("adaptive", 0.02)];
        for c in &mut slow_t1 {
            c.method = "T1";
        }
        assert!(gate_regressions(&slow_t1, &baseline, 0.75).is_empty());
    }

    #[test]
    fn stable_crossover_ignores_isolated_wins() {
        // winner pattern: gallop, merge, gallop, gallop — the isolated
        // ratio-1 win must not become the crossover
        let curve = [
            CurvePoint {
                ratio: 1,
                merge_ns: 2.0,
                gallop_ns: 1.0,
            },
            CurvePoint {
                ratio: 2,
                merge_ns: 1.0,
                gallop_ns: 2.0,
            },
            CurvePoint {
                ratio: 4,
                merge_ns: 2.0,
                gallop_ns: 1.0,
            },
            CurvePoint {
                ratio: 8,
                merge_ns: 2.0,
                gallop_ns: 1.0,
            },
        ];
        let mut crossover = None;
        for p in curve.iter().rev() {
            if p.gallop_wins() {
                crossover = Some(p.ratio);
            } else {
                break;
            }
        }
        assert_eq!(crossover, Some(4));
    }
}
