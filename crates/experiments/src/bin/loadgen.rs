//! Load generator for `trilist-serve`: a closed-loop throughput phase and
//! an optional open-loop rate sweep.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--requests N] [--threads N] [--graph-n N]
//!         [--workers N] [--seed S] [--out PATH]
//!         [--warmup N] [--rates A,B,C] [--duration-secs S] [--conns N]
//!         [--idle-conns N] [--chaos-seed N] [--retry]
//! ```
//!
//! Without `--addr` it spawns an in-process server on an ephemeral
//! loopback port, registers a Pareto α = 1.5 graph, and drives it with a
//! deterministic mix of `List` / `Count` / `ModelPredict` / `Stats`
//! requests.
//!
//! **Closed loop** (`--requests` over `--threads` clients): connections
//! are established and `--warmup` requests retired *before* the timer
//! starts, so `requests_per_sec` is steady-state throughput; the old
//! setup-inclusive number is kept as `requests_per_sec_incl_setup`.
//!
//! **Open loop** (`--rates`, per-rate `--duration-secs`): arrival `i` is
//! scheduled at `start + i/rate` regardless of completions; `--conns`
//! workers retire arrivals, and latency is measured from the *scheduled*
//! time, so queueing delay under overload shows up in the percentiles.
//! `--idle-conns` holds extra idle connections open through the sweep
//! (the CI 10k-connection smoke).
//!
//! **Chaos** (`--chaos-seed N`, in-process server only): arms the
//! server's deterministic fault injector, so connections suffer seeded
//! short reads/writes, resets, stalls, worker panics, and deadline skew.
//! Pair it with `--retry`, which gives every client a seeded
//! [`RetryPolicy`] (capped exponential backoff, reconnect on transport
//! errors); latencies are then *retry-inclusive* — measured across all
//! attempts and backoff sleeps, the way a caller experiences them — and
//! per-client retry/reconnect totals are aggregated into the report.
//! Under chaos without `--retry`, injected transport faults surface as
//! protocol errors and fail the run.
//!
//! Results go to `BENCH_serve.json` (deterministic field order via
//! [`JsonWriter`]). Exit status is non-zero if any request hit a protocol
//! error, two completed runs of the same request shape disagreed on the
//! triangle count, or the server's memory gauge disagreed with its cache
//! accounting at rest — the smoke-test contract the CI `serve` job
//! relies on.

use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};
use trilist_experiments::JsonWriter;
use trilist_graph::dist::{sample_degree_sequence, DiscretePareto, Truncated, Truncation};
use trilist_graph::gen::{GraphGenerator, ResidualSampler};
use trilist_serve::{ChaosPlan, Client, ClientError, ListParams, RetryPolicy, ServeConfig, Server};

struct Flags {
    addr: Option<String>,
    requests: u64,
    threads: usize,
    graph_n: usize,
    workers: usize,
    seed: u64,
    out: String,
    warmup: u64,
    rates: Vec<f64>,
    duration_secs: f64,
    conns: usize,
    idle_conns: usize,
    chaos_seed: Option<u64>,
    retry: bool,
}

fn parse_flags() -> Flags {
    let mut f = Flags {
        addr: None,
        requests: 100,
        threads: 4,
        graph_n: 1500,
        workers: 2,
        seed: 0x010A_D6E4,
        out: "BENCH_serve.json".to_string(),
        warmup: 24,
        rates: Vec::new(),
        duration_secs: 5.0,
        conns: 32,
        idle_conns: 0,
        chaos_seed: None,
        retry: false,
    };
    let mut args = std::env::args().skip(1);
    fn val<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
        v.and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{flag} needs a valid value"))
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => f.addr = Some(val("--addr", args.next())),
            "--requests" => f.requests = val("--requests", args.next()),
            "--threads" => f.threads = val("--threads", args.next()),
            "--graph-n" => f.graph_n = val("--graph-n", args.next()),
            "--workers" => f.workers = val("--workers", args.next()),
            "--seed" => f.seed = val("--seed", args.next()),
            "--out" => f.out = val("--out", args.next()),
            "--warmup" => f.warmup = val("--warmup", args.next()),
            "--duration-secs" => f.duration_secs = val("--duration-secs", args.next()),
            "--conns" => f.conns = val("--conns", args.next()),
            "--idle-conns" => f.idle_conns = val("--idle-conns", args.next()),
            "--chaos-seed" => f.chaos_seed = Some(val("--chaos-seed", args.next())),
            "--retry" => f.retry = true,
            "--rates" => {
                let list: String = val("--rates", args.next());
                f.rates = list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse().expect("--rates wants numbers"))
                    .collect();
            }
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    f
}

/// The deterministic request mix, cycled by global request index.
const MIX: [&str; 6] = [
    "list/T1/desc/paper",
    "count/E4/crr/adaptive",
    "list/E1/desc/adaptive",
    "count/T2/rr/paper",
    "predict/T1/desc",
    "stats",
];

#[derive(Default)]
struct Outcome {
    ok: AtomicU64,
    rejected: AtomicU64,
    protocol_errors: AtomicU64,
    consistency_failures: AtomicU64,
    retries: AtomicU64,
    reconnects: AtomicU64,
}

impl Outcome {
    fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.ok.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
            self.protocol_errors.load(Ordering::Relaxed),
        )
    }

    /// Folds one client's lifetime retry/reconnect totals in (called as
    /// each worker thread retires its connection).
    fn absorb_client(&self, client: &Client) {
        self.retries.fetch_add(client.retries(), Ordering::Relaxed);
        self.reconnects
            .fetch_add(client.reconnects(), Ordering::Relaxed);
    }
}

/// Connects one load-generator client: with `--retry`, a seeded
/// [`RetryPolicy`] (decorrelated per connection via `salt`) and the
/// dial address as the reconnect target; without it, a bare connection.
fn connect_client(addr: &str, flags: &Flags, salt: u64) -> Client {
    if flags.retry {
        Client::connect_with_retry(
            addr,
            RetryPolicy::seeded(flags.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        )
        .expect("connect client")
    } else {
        Client::connect(addr).expect("connect client")
    }
}

/// Per-shape triangle counts: every completed run of the same
/// `(method, family)` on the same graph must agree.
type Agreement = Mutex<HashMap<&'static str, u64>>;

fn check_agreement(agreement: &Agreement, outcome: &Outcome, shape: &'static str, triangles: u64) {
    let mut seen = agreement.lock().unwrap();
    match seen.get(shape) {
        Some(&prior) if prior != triangles => {
            eprintln!("{shape}: {triangles} triangles, but an earlier run saw {prior}");
            outcome.consistency_failures.fetch_add(1, Ordering::Relaxed);
        }
        Some(_) => {}
        None => {
            seen.insert(shape, triangles);
        }
    }
}

fn one_request(
    client: &mut Client,
    graph: &str,
    index: u64,
    outcome: &Outcome,
    agreement: &Agreement,
) {
    let shape = MIX[(index % MIX.len() as u64) as usize];
    let parts: Vec<&str> = shape.split('/').collect();
    let result: Result<Option<u64>, ClientError> = match parts[0] {
        "list" => client
            .list(ListParams::new(graph, parts[1], parts[2], parts[3]))
            .map(|r| r.complete.then_some(r.cost.triangles)),
        "count" => client
            .count(ListParams::new(graph, parts[1], parts[2], parts[3]))
            .map(|r| r.complete.then_some(r.cost.triangles)),
        "predict" => client.predict(graph, parts[1], parts[2]).map(|_| None),
        _ => client.stats().map(|_| None),
    };
    match result {
        Ok(triangles) => {
            outcome.ok.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = triangles {
                check_agreement(agreement, outcome, shape, t);
            }
        }
        Err(ClientError::Server(_)) => {
            // typed server-side rejection (admission etc.): shed, not broken
            outcome.rejected.fetch_add(1, Ordering::Relaxed);
        }
        Err(e) => {
            eprintln!("request {index} ({shape}): {e}");
            outcome.protocol_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Closed-loop phase: `threads` clients connect and warm up first, then a
/// barrier releases them into the timed window. Returns
/// `(latencies_ns, setup_secs, elapsed_secs)`.
fn closed_loop(
    addr: &str,
    graph: &str,
    flags: &Flags,
    outcome: &Outcome,
    agreement: &Agreement,
) -> (Vec<u64>, f64, f64) {
    let threads = flags.threads.max(1);
    let next = AtomicU64::new(0);
    let total = flags.requests;
    let barrier = Barrier::new(threads + 1);
    let setup_started = Instant::now();
    let setup_secs = Mutex::new(0.0f64);
    let started = Mutex::new(Instant::now());
    let latencies: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let next = &next;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = connect_client(addr, flags, t as u64);
                    // Warmup retires the mix (prepared-cache fills, JIT-warm
                    // paths) before anything is measured — against a
                    // throwaway outcome so the counters cover only the
                    // measured window (the shared agreement still applies).
                    let warmup_outcome = Outcome::default();
                    for i in 0..flags.warmup / threads as u64 {
                        one_request(&mut client, graph, i, &warmup_outcome, agreement);
                    }
                    barrier.wait();
                    let mut lat = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            outcome.absorb_client(&client);
                            return lat;
                        }
                        // Retry-inclusive: the clock spans every attempt
                        // and backoff sleep the client made for request i.
                        let t0 = Instant::now();
                        one_request(&mut client, graph, i, outcome, agreement);
                        lat.push(t0.elapsed().as_nanos() as u64);
                    }
                })
            })
            .collect();
        // Everyone connected and warm: the measured window starts now.
        barrier.wait();
        *setup_secs.lock().unwrap() = setup_started.elapsed().as_secs_f64();
        *started.lock().unwrap() = Instant::now();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = started.lock().unwrap().elapsed().as_secs_f64();
    let setup = *setup_secs.lock().unwrap();
    (latencies.into_iter().flatten().collect(), setup, elapsed)
}

/// One open-loop run at `rate` arrivals/sec for `duration` seconds:
/// arrival `i` is due at `start + i/rate`; `conns` workers retire due
/// arrivals, and each latency is measured from the scheduled time.
struct OpenLoopRun {
    offered_rps: f64,
    sent: u64,
    ok: u64,
    rejected: u64,
    protocol_errors: u64,
    consistency_failures: u64,
    retries: u64,
    reconnects: u64,
    elapsed_secs: f64,
    latencies_ns: Vec<u64>,
}

fn open_loop(
    addr: &str,
    graph: &str,
    rate: f64,
    flags: &Flags,
    agreement: &Agreement,
) -> OpenLoopRun {
    let duration = flags.duration_secs;
    let total = (rate * duration).ceil() as u64;
    let outcome = Outcome::default();
    let next = AtomicU64::new(0);
    let conns = flags.conns.max(1);
    let barrier = Barrier::new(conns + 1);
    let started = Mutex::new(Instant::now());
    let latencies: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let next = &next;
                let barrier = &barrier;
                let started = &started;
                let outcome = &outcome;
                scope.spawn(move || {
                    let mut client = connect_client(addr, flags, 0x4F50_454E ^ c as u64);
                    barrier.wait();
                    let start = *started.lock().unwrap();
                    let mut lat = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            outcome.absorb_client(&client);
                            return lat;
                        }
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        one_request(&mut client, graph, i, outcome, agreement);
                        // From the scheduled arrival, so queueing delay
                        // under overload is part of the number.
                        lat.push(due.elapsed().as_nanos() as u64);
                    }
                })
            })
            .collect();
        barrier.wait();
        *started.lock().unwrap() = Instant::now();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed_secs = started.lock().unwrap().elapsed().as_secs_f64();
    let (ok, rejected, protocol_errors) = outcome.snapshot();
    let mut latencies_ns: Vec<u64> = latencies.into_iter().flatten().collect();
    latencies_ns.sort_unstable();
    OpenLoopRun {
        offered_rps: rate,
        sent: total,
        ok,
        rejected,
        protocol_errors,
        consistency_failures: outcome.consistency_failures.load(Ordering::Relaxed),
        retries: outcome.retries.load(Ordering::Relaxed),
        reconnects: outcome.reconnects.load(Ordering::Relaxed),
        elapsed_secs,
        latencies_ns,
    }
}

fn main() {
    let flags = parse_flags();

    // A reproducible Pareto graph to serve.
    let mut rng = rand::rngs::StdRng::seed_from_u64(flags.seed);
    let dist = Truncated::new(
        DiscretePareto::paper_beta(1.5),
        Truncation::Root.t_n(flags.graph_n),
    );
    let (seq, _) = sample_degree_sequence(&dist, flags.graph_n, &mut rng);
    let g = ResidualSampler.generate(&seq, &mut rng).graph;
    let edges: Vec<(u32, u32)> = g.edges().collect();

    if flags.chaos_seed.is_some() && flags.addr.is_some() {
        eprintln!("--chaos-seed arms the in-process server; it cannot be combined with --addr");
        std::process::exit(2);
    }
    if let Some(seed) = flags.chaos_seed {
        println!("chaos armed (seed {seed}), retry {}", flags.retry);
        // Injected worker panics are expected under chaos; keep their
        // backtraces out of the report.
        trilist_core::silence_injected_panics();
    }
    let server = match flags.addr {
        Some(_) => None,
        None => Some(
            Server::bind(
                "127.0.0.1:0",
                ServeConfig {
                    workers: flags.workers,
                    chaos: flags.chaos_seed.map(ChaosPlan::seeded),
                    ..ServeConfig::default()
                },
            )
            .expect("bind loopback server"),
        ),
    };
    let addr = match (&flags.addr, &server) {
        (Some(a), _) => a.clone(),
        (None, Some(s)) => s.addr().to_string(),
        _ => unreachable!(),
    };

    let graph_name = "loadgen";
    let mut setup = connect_client(addr.as_str(), &flags, 0x5345_5455);
    let (n, m) = setup
        .register_graph(graph_name, g.n() as u32, &edges)
        .expect("register graph");
    println!("serving {graph_name}: n = {n}, m = {m} at {addr}");

    // Extra idle connections held open through everything below (the CI
    // 10k-connection smoke): each must still answer at the end.
    let mut idle: Vec<Client> = (0..flags.idle_conns)
        .map(|i| connect_client(addr.as_str(), &flags, 0x4944_4C45 ^ i as u64))
        .collect();
    if !idle.is_empty() {
        println!("holding {} idle connections", idle.len());
    }

    let outcome = Outcome::default();
    let agreement: Agreement = Mutex::new(HashMap::new());
    let (mut all, setup_secs, elapsed) =
        closed_loop(&addr, graph_name, &flags, &outcome, &agreement);
    all.sort_unstable();
    let mut hist = [0u64; 64];
    for &ns in &all {
        hist[(64 - ns.leading_zeros()).min(63) as usize] += 1;
    }
    let total = flags.requests;
    let (ok, rejected, protocol_errors) = outcome.snapshot();
    let retries = outcome.retries.load(Ordering::Relaxed);
    let reconnects = outcome.reconnects.load(Ordering::Relaxed);
    let steady_rps = total as f64 / elapsed.max(f64::MIN_POSITIVE);
    println!(
        "closed loop: {total} requests in {elapsed:.3}s ({steady_rps:.0} req/s steady-state, \
         setup {setup_secs:.3}s): {ok} ok, {rejected} rejected, {protocol_errors} protocol \
         errors, {retries} retries, {reconnects} reconnects; p50 {} us, p99 {} us",
        percentile(&all, 0.50) / 1_000,
        percentile(&all, 0.99) / 1_000,
    );

    // The open-loop sweep, one run per offered rate.
    let sweep: Vec<OpenLoopRun> = flags
        .rates
        .iter()
        .map(|&rate| {
            let run = open_loop(&addr, graph_name, rate, &flags, &agreement);
            println!(
                "open loop @ {rate:.0} req/s offered: {} sent, {} ok, {} rejected, {} protocol \
                 errors, {} retries, achieved {:.0} req/s; p50 {} us, p99 {} us",
                run.sent,
                run.ok,
                run.rejected,
                run.protocol_errors,
                run.retries,
                run.sent as f64 / run.elapsed_secs.max(f64::MIN_POSITIVE),
                percentile(&run.latencies_ns, 0.50) / 1_000,
                percentile(&run.latencies_ns, 0.99) / 1_000,
            );
            run
        })
        .collect();
    // The sweep shares `agreement`, so a disagreement anywhere counts.
    let consistency_failures = outcome.consistency_failures.load(Ordering::Relaxed)
        + sweep.iter().map(|r| r.consistency_failures).sum::<u64>();

    // Every idle connection must still be answered after the storm, and
    // at rest the memory gauge must agree with the cache's accounting.
    for (i, c) in idle.iter_mut().enumerate() {
        c.stats()
            .unwrap_or_else(|e| panic!("idle connection {i} dead after sweep: {e}"));
    }
    drop(idle);
    let stats = setup.stats().expect("final stats");
    let field = |name: &str| -> u64 {
        stats
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("stats missing {name}"))
    };
    let gauge_bytes = field("gauge_bytes");
    let cache_bytes = field("cache_bytes");
    let gauge_consistent = gauge_bytes == cache_bytes;
    if !gauge_consistent {
        eprintln!("gauge_bytes {gauge_bytes} != cache_bytes {cache_bytes} at rest");
    }

    let open_errors: u64 = sweep.iter().map(|r| r.protocol_errors).sum();

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("bench").string("serve_loadgen");
    w.key("config").begin_object();
    w.key("requests").u64(total);
    w.key("threads").u64(flags.threads as u64);
    w.key("warmup").u64(flags.warmup);
    w.key("graph_n").u64(n as u64);
    w.key("graph_m").u64(m);
    w.key("server_workers").u64(flags.workers as u64);
    w.key("in_process_server").bool(server.is_some());
    w.key("open_loop_conns").u64(flags.conns as u64);
    w.key("idle_conns").u64(flags.idle_conns as u64);
    w.key("seed").u64(flags.seed);
    w.key("chaos").bool(flags.chaos_seed.is_some());
    w.key("chaos_seed").u64(flags.chaos_seed.unwrap_or(0));
    w.key("retry").bool(flags.retry);
    w.end_object();
    w.key("outcome").begin_object();
    w.key("ok").u64(ok);
    w.key("rejected").u64(rejected);
    w.key("protocol_errors").u64(protocol_errors);
    w.key("consistency_failures").u64(consistency_failures);
    w.key("retries").u64(retries);
    w.key("reconnects").u64(reconnects);
    w.key("error_rate")
        .f64_prec(protocol_errors as f64 / total.max(1) as f64, 6);
    w.key("retry_rate")
        .f64_prec(retries as f64 / total.max(1) as f64, 6);
    w.key("setup_secs").f64(setup_secs);
    w.key("elapsed_secs").f64(elapsed);
    w.key("requests_per_sec").f64_prec(steady_rps, 1);
    w.key("requests_per_sec_incl_setup").f64_prec(
        total as f64 / (elapsed + setup_secs).max(f64::MIN_POSITIVE),
        1,
    );
    w.end_object();
    w.key("latency_ns").begin_object();
    w.key("p50").u64(percentile(&all, 0.50));
    w.key("p90").u64(percentile(&all, 0.90));
    w.key("p99").u64(percentile(&all, 0.99));
    w.key("max").u64(all.last().copied().unwrap_or(0));
    w.key("histogram_log2").begin_array();
    for (bucket, &count) in hist.iter().enumerate() {
        if count > 0 {
            w.begin_object();
            w.key("le_ns").u64(1u64 << bucket);
            w.key("count").u64(count);
            w.end_object();
        }
    }
    w.end_array();
    w.end_object();
    w.key("open_loop").begin_array();
    for run in &sweep {
        w.begin_object();
        w.key("offered_rps").f64_prec(run.offered_rps, 1);
        w.key("duration_secs").f64(flags.duration_secs);
        w.key("sent").u64(run.sent);
        w.key("ok").u64(run.ok);
        w.key("rejected").u64(run.rejected);
        w.key("protocol_errors").u64(run.protocol_errors);
        w.key("retries").u64(run.retries);
        w.key("reconnects").u64(run.reconnects);
        w.key("error_rate")
            .f64_prec(run.protocol_errors as f64 / run.sent.max(1) as f64, 6);
        w.key("retry_rate")
            .f64_prec(run.retries as f64 / run.sent.max(1) as f64, 6);
        w.key("achieved_rps")
            .f64_prec(run.sent as f64 / run.elapsed_secs.max(f64::MIN_POSITIVE), 1);
        w.key("latency_ns").begin_object();
        w.key("p50").u64(percentile(&run.latencies_ns, 0.50));
        w.key("p90").u64(percentile(&run.latencies_ns, 0.90));
        w.key("p99").u64(percentile(&run.latencies_ns, 0.99));
        w.key("max")
            .u64(run.latencies_ns.last().copied().unwrap_or(0));
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.key("gauge").begin_object();
    w.key("gauge_bytes").u64(gauge_bytes);
    w.key("cache_bytes").u64(cache_bytes);
    w.key("consistent").bool(gauge_consistent);
    w.end_object();
    // Overload-ladder engagement and (when armed) injected-fault totals,
    // straight from the server's final counters.
    let opt_field = |name: &str| -> u64 {
        stats
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    w.key("degradation").begin_object();
    w.key("deadline").u64(field("admission_degraded_deadline"));
    w.key("evict").u64(field("admission_degraded_evict"));
    w.key("cold_evictions").u64(field("cache_cold_evictions"));
    w.key("rejected_busy").u64(field("admission_rejected_busy"));
    w.end_object();
    w.key("chaos").begin_object();
    w.key("injections")
        .u64(opt_field("recorder_chaos_injections"));
    w.key("resets").u64(opt_field("chaos_resets"));
    w.key("panics").u64(opt_field("chaos_panics"));
    w.end_object();
    w.end_object();
    std::fs::write(&flags.out, w.finish()).expect("write bench json");
    println!("wrote {}", flags.out);

    if let Some(server) = server {
        let _ = setup.shutdown();
        server.join();
    }
    if protocol_errors > 0 || open_errors > 0 || consistency_failures > 0 || !gauge_consistent {
        std::process::exit(1);
    }
}
