//! Profiles the listing runtime with the observability layer on: every
//! fundamental method under its optimal orientation × {paper-faithful,
//! adaptive} kernels, each run through [`list_resilient`] with an
//! [`InMemoryRecorder`] attached. Prints a span timeline, the top-k
//! hottest chunks, and the measured-vs-model table (span nanoseconds per
//! modeled operation), then writes the whole report as JSON
//! (`target/profile_metrics.json` unless `--metrics-out` overrides it).
//!
//! Defaults to one thread so the span total is directly comparable to the
//! end-to-end wall clock; the binary self-checks that single-threaded span
//! coverage stays within 10% of each run's wall time.
//!
//! `--overhead-check [TOL]` switches to a smoke test instead: the same
//! runs are timed best-of-5 with no recorder and with the no-op recorder,
//! and again at the server's run shape (2 threads, a shared prebuilt
//! adaptive context) with no recorder and with the server's
//! `InMemoryRecorder`. The binary fails if either recorder costs more
//! than TOL (default 5%) extra wall clock.

use std::sync::Arc;
use std::time::{Duration, Instant};
use trilist_core::{
    list_resilient, InMemoryRecorder, KernelPolicy, Kernels, Method, NoopRecorder, ParallelOpts,
    Recorder, ResilientOpts, RunOutcome,
};
use trilist_experiments::obs::{render_hottest, render_timeline};
use trilist_experiments::sim::{one_graph, seeded_rng};
use trilist_experiments::{ObsSession, Opts, Table};
use trilist_graph::dist::Truncation;
use trilist_order::DirectedGraph;

const ALPHA: f64 = 1.5;
const COVERAGE_TOLERANCE: f64 = 0.10;
/// The server's run shape: worker threads and chunk size per request.
const SERVE_THREADS: usize = 2;
const SERVE_CHUNK_OPS: u64 = 32_768;

fn main() {
    // `--overhead-check [TOL]` is profile-specific: strip it before the
    // shared parser sees it.
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let mut overhead_tol: Option<f64> = None;
    if let Some(i) = raw.iter().position(|a| a == "--overhead-check") {
        raw.remove(i);
        overhead_tol = Some(match raw.get(i).and_then(|v| v.parse::<f64>().ok()) {
            Some(t) => {
                raw.remove(i);
                t
            }
            None => 0.05,
        });
    }
    let mut opts = Opts::parse_from(raw);
    // single-threaded by default: span total ≈ wall clock, so the
    // measured-vs-model join is an apples-to-apples comparison
    if opts.threads.is_none() {
        opts.threads = Some(1);
    }
    if overhead_tol.is_none() && opts.metrics_out.is_none() {
        opts.metrics_out = Some(std::path::PathBuf::from("target/profile_metrics.json"));
    }

    let n = *opts.sizes().last().expect("sizes() is non-empty");
    let cfg = opts.sim_config(ALPHA, Truncation::Root);
    let mut rng = seeded_rng(cfg.base_seed);
    let graph = one_graph(&cfg, n, &mut rng);
    println!(
        "profile graph: Pareto alpha={ALPHA} root truncation, n={n}, m={}, threads={}",
        graph.m(),
        opts.thread_count()
    );

    if let Some(tol) = overhead_tol {
        overhead_check(&opts, &graph, &mut rng, tol);
        return;
    }

    let mut session = ObsSession::from_opts(&opts).expect("profile always records");
    let policies = [
        ("paper", KernelPolicy::PaperFaithful),
        ("adaptive", KernelPolicy::adaptive()),
    ];
    let threads = opts.thread_count();
    let mut coverage_failures = Vec::new();
    for method in Method::FUNDAMENTAL {
        let family = method.optimal_family();
        let dg = DirectedGraph::orient(&graph, &family.relabeling(&graph, &mut rng));
        let modeled = method.predicted_operations(&dg);
        for (pname, policy) in policies {
            let mut ropts = opts.resilient_opts();
            ropts.parallel.policy = policy;
            // coarse chunks: per-chunk scheduling/merge time stays tiny
            // relative to kernel time, so spans cover the wall clock
            ropts.parallel.target_chunk_ops = 200_000;
            session.attach(&mut ropts);
            let started = Instant::now();
            let outcome = list_resilient(&dg, method, &ropts).expect("fundamental method");
            let wall = started.elapsed();
            let run = match outcome {
                RunOutcome::Complete(run) => run,
                RunOutcome::Partial(p) => {
                    eprintln!(
                        "profile run stopped early ({}); rerun without budgets",
                        p.reason
                    );
                    std::process::exit(1);
                }
            };
            let (rec, spans) = session.take_run();
            let label = format!("{}+{} [{pname}]", method.name(), family.name());
            session.measure(
                method.name(),
                pname,
                modeled,
                wall.as_nanos() as u64,
                run.triangles.len() as u64,
                threads,
                &spans,
            );
            println!();
            render_timeline(&label, &spans, 12).print();
            render_hottest(&label, &rec, 5).print();
            let span_total = rec.span_total_ns();
            let coverage = span_total as f64 / wall.as_nanos().max(1) as f64;
            println!(
                "{label}: span total {:.3}ms over wall {:.3}ms — coverage {:.1}%",
                span_total as f64 / 1e6,
                wall.as_secs_f64() * 1e3,
                coverage * 100.0
            );
            if threads == 1 && (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
                coverage_failures.push(format!("{label}: coverage {:.3}", coverage));
            }
        }
    }
    session.finish().expect("writing the metrics file");
    if !coverage_failures.is_empty() {
        eprintln!("span coverage outside {:.0}%:", COVERAGE_TOLERANCE * 100.0);
        for f in &coverage_failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("span coverage within 10% of wall clock for every single-threaded run");
}

/// Times one `list_resilient` run of `ropts` with the given recorder.
fn one_wall(
    dg: &DirectedGraph,
    method: Method,
    ropts: &ResilientOpts,
    recorder: Option<Arc<dyn Recorder>>,
) -> Duration {
    let ropts = ResilientOpts {
        recorder,
        ..ropts.clone()
    };
    let started = Instant::now();
    let outcome = list_resilient(dg, method, &ropts).expect("fundamental method");
    let wall = started.elapsed();
    assert!(
        matches!(outcome, RunOutcome::Complete(_)),
        "overhead check needs unbudgeted runs"
    );
    wall
}

/// Best-of-`REPS` walls of `ropts` run bare and with `recorder`,
/// interleaved so thermal and allocator drift hits both sides equally.
fn bare_vs_recorded(
    dg: &DirectedGraph,
    method: Method,
    ropts: &ResilientOpts,
    recorder: &Arc<dyn Recorder>,
) -> (Duration, Duration) {
    const REPS: usize = 5;
    // warm caches first
    one_wall(dg, method, ropts, None);
    let mut bare = Duration::MAX;
    let mut recorded = Duration::MAX;
    for _ in 0..REPS {
        bare = bare.min(one_wall(dg, method, ropts, None));
        recorded = recorded.min(one_wall(dg, method, ropts, Some(Arc::clone(recorder))));
    }
    (bare, recorded)
}

fn ms(d: Duration) -> String {
    format!("{:.3}ms", d.as_secs_f64() * 1e3)
}

fn overhead(bare: Duration, recorded: Duration) -> f64 {
    recorded.as_secs_f64() / bare.as_secs_f64() - 1.0
}

/// Compares bare runs against recorded ones in two configurations and
/// fails if either recorder costs more than `tol` in total:
///
/// * the no-op recorder under the command line's options;
/// * the recorder the server attaches to every run
///   ([`InMemoryRecorder::without_span_list`]) under the server's run
///   shape: 2 threads, serve-sized chunks, and one adaptive kernel
///   context prebuilt and shared by the workers, as a graph cache holds it.
fn overhead_check(opts: &Opts, graph: &trilist_graph::Graph, rng: &mut impl rand::Rng, tol: f64) {
    let mut table = Table::new(
        "recorder overhead (best of 5 each)",
        &[
            "method",
            "bare",
            "noop recorder",
            "overhead",
            "serve bare",
            "serve recorder",
            "overhead",
        ],
    );
    let noop: Arc<dyn Recorder> = Arc::new(NoopRecorder);
    let mut noop_opts = opts.resilient_opts();
    noop_opts.parallel.target_chunk_ops = 200_000;
    let mut totals = [Duration::ZERO; 4];
    for method in Method::FUNDAMENTAL {
        let family = method.optimal_family();
        let dg = DirectedGraph::orient(graph, &family.relabeling(graph, rng));
        let (bare, nooped) = bare_vs_recorded(&dg, method, &noop_opts, &noop);
        let serve_opts = ResilientOpts {
            parallel: ParallelOpts {
                threads: SERVE_THREADS,
                target_chunk_ops: SERVE_CHUNK_OPS,
                policy: KernelPolicy::adaptive(),
            },
            kernels: Some(Arc::new(Kernels::build(KernelPolicy::adaptive(), &dg))),
            ..ResilientOpts::default()
        };
        let serve_rec: Arc<dyn Recorder> = Arc::new(InMemoryRecorder::without_span_list());
        let (serve_bare, served) = bare_vs_recorded(&dg, method, &serve_opts, &serve_rec);
        for (total, d) in totals.iter_mut().zip([bare, nooped, serve_bare, served]) {
            *total += d;
        }
        table.row(vec![
            format!("{}+{}", method.name(), family.name()),
            ms(bare),
            ms(nooped),
            format!("{:+.2}%", overhead(bare, nooped) * 100.0),
            ms(serve_bare),
            ms(served),
            format!("{:+.2}%", overhead(serve_bare, served) * 100.0),
        ]);
    }
    table.print();
    let mut failed = false;
    for (name, bare, recorded) in [
        ("noop recorder", totals[0], totals[1]),
        ("serve recorder", totals[2], totals[3]),
    ] {
        let over = overhead(bare, recorded);
        println!(
            "total: bare {} vs {name} {} — overhead {:+.2}% (tolerance {:.0}%)",
            ms(bare),
            ms(recorded),
            over * 100.0,
            tol * 100.0
        );
        if over > tol {
            eprintln!("{name} overhead {over:.4} exceeds tolerance {tol}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
