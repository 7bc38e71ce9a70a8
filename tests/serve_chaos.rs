//! Chaos suite for the service layer: with deterministic fault injection
//! armed — short reads/writes, `WouldBlock`/`EINTR` storms, mid-frame
//! resets, stalls, worker panics, gauge spikes, deadline skew — a
//! retrying client must still extract results *byte-identical* to a
//! fault-free oracle at every worker count, for listing shapes and for
//! `ListNewTriangles` resume chains alike. Plus: the kill-and-restart
//! drill (a `List` resume chain survives the server dying and a
//! replacement coming up), the degrade-before-reject ladder (pinned
//! counters prove degradation engages before anything is shed), the
//! retry-policy backoff laws, and chaos-schedule determinism (all
//! proptests, raised by the weekly `PROPTEST_CASES` run).

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use trilist::core::{fault_roll, silence_injected_panics, CostReport};
use trilist::graph::dist::{sample_degree_sequence, DiscretePareto, Truncated, Truncation};
use trilist::graph::gen::{GraphGenerator, ResidualSampler};
use trilist::graph::Graph;
use trilist::serve::{
    read_frame, ChaosPlan, Client, ClientError, DeltaParams, IoOp, ListParams, Request,
    RetryPolicy, ServeConfig, Server,
};

/// A reproducible Pareto α = 1.5 graph with plenty of triangles.
fn pareto_graph(n: usize, seed: u64) -> Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let dist = Truncated::new(DiscretePareto::paper_beta(1.5), Truncation::Root.t_n(n));
    let (seq, _) = sample_degree_sequence(&dist, n, &mut rng);
    ResidualSampler.generate(&seq, &mut rng).graph
}

/// The request shapes every chaos run drives: a mix of methods,
/// families, policies, and deadlines (deadline shapes exercise resume
/// chains and the chaos deadline skew).
const SHAPES: [(&str, &str, &str, u64, bool); 4] = [
    ("T1", "desc", "paper", 0, true),
    ("E4", "crr", "adaptive", 4, true),
    ("T2", "rr", "bitset", 0, false),
    ("E1", "desc", "adaptive", 3, true),
];

/// What one shape must produce: the exact triangle stream (empty for
/// `Count`) and the exact accumulated cost.
#[derive(Clone, Debug, PartialEq)]
struct ShapeResult {
    triangles: Vec<(u32, u32, u32)>,
    cost: CostReport,
}

fn drive_shapes(client: &mut Client, graph: &str) -> Vec<ShapeResult> {
    SHAPES
        .iter()
        .map(|&(method, family, policy, deadline_ms, list)| {
            let params = ListParams {
                deadline_ms,
                ..ListParams::new(graph, method, family, policy)
            };
            if list {
                let chain = client.list_to_completion(params).expect("chain completes");
                ShapeResult {
                    triangles: chain.triangles,
                    cost: chain.cost,
                }
            } else {
                let run = client.count(params).expect("count completes");
                assert!(run.complete, "count without deadline completes");
                ShapeResult {
                    triangles: run.triangles,
                    cost: run.cost,
                }
            }
        })
        .collect()
}

/// The fault-free oracle: the same shapes against an unfaulted default
/// server. Cost accounting and triangles are policy- and
/// thread-invariant, so one oracle covers the whole matrix.
fn oracle(g: &Graph) -> Vec<ShapeResult> {
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .register_graph("chaos", g.n() as u32, &edges)
        .unwrap();
    let results = drive_shapes(&mut client, "chaos");
    client.shutdown().unwrap();
    server.join();
    results
}

#[test]
fn chaos_matrix_completed_responses_are_byte_identical_to_fault_free_oracle() {
    silence_injected_panics();
    let g = pareto_graph(400, 0xC4A0);
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let expected = oracle(&g);
    assert!(
        expected.iter().any(|r| r.cost.triangles > 0),
        "fixture must have triangles"
    );

    // A single short run sees few syscalls (loopback coalesces whole
    // frames into one read/write), so any one combo may legitimately draw
    // zero faults; across all 24 runs, zero means injection is broken.
    let mut injected = 0u64;
    for chaos_seed in [1u64, 2, 3, 5, 8, 13, 21, 34] {
        for workers in [1usize, 2, 4] {
            let cfg = ServeConfig {
                workers,
                chaos: Some(ChaosPlan::seeded(chaos_seed)),
                ..ServeConfig::default()
            };
            let server = Server::bind("127.0.0.1:0", cfg).unwrap();
            let policy = RetryPolicy {
                attempt_timeout: Some(Duration::from_secs(5)),
                ..RetryPolicy::seeded(chaos_seed)
            };
            let mut client = Client::connect_with_retry(server.addr(), policy).unwrap();
            client
                .register_graph("chaos", g.n() as u32, &edges)
                .unwrap();
            let got = drive_shapes(&mut client, "chaos");
            assert_eq!(
                got, expected,
                "seed {chaos_seed} workers {workers}: \
                 completed responses must be byte-identical to the oracle"
            );
            let stats = client.stats().expect("stats under chaos");
            let detail = stats
                .iter()
                .filter(|(k, _)| k.starts_with("chaos_"))
                .map(|&(_, v)| v)
                .sum::<u64>();
            assert_eq!(field(&stats, "recorder_chaos_injections"), detail);
            injected += detail;
            client.shutdown().expect("shutdown under chaos");
            server.join();
        }
    }
    // Chaos must actually have fired, or the matrix proves nothing.
    assert!(injected > 0, "no faults injected");
}

/// The windows every delta chaos run drives, each under a deadline the
/// chaos skew can quarter: `(from_epoch, to_epoch, deadline_ms)`.
const WINDOWS: [(u64, u64, u64); 4] = [
    (0, DeltaParams::LATEST, 4),
    (1, DeltaParams::LATEST, 2),
    (0, 2, 4),
    (2, 3, 8),
];

/// Edges per edit batch.
const BATCH: usize = 1000;

/// Three batches of absent edges, drawn reproducibly: epochs 1 to 3.
fn edit_batches(g: &Graph, seed: u64) -> Vec<Vec<(u32, u32)>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = g.n() as u32;
    let mut taken = std::collections::HashSet::new();
    (0..3)
        .map(|_| {
            let mut batch = Vec::new();
            while batch.len() < BATCH {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let e = (u.min(v), u.max(v));
                if u != v && !g.has_edge(u, v) && taken.insert(e) {
                    batch.push(e);
                }
            }
            batch
        })
        .collect()
}

/// A reproducible G(n, p) graph: dense enough that each new edge closes
/// many triangles, so a delta run outlasts a skewed deadline.
fn dense_graph(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let edges: Vec<(u32, u32)> = (0..n as u32)
        .flat_map(|u| (u + 1..n as u32).map(move |v| (u, v)))
        .filter(|_| rng.gen_bool(p))
        .collect();
    Graph::from_edges(n, &edges).unwrap()
}

/// Registers `g` and applies `batches` as epochs 1, 2, 3. Edits run as
/// a single attempt even under a retry policy (they are not idempotent),
/// so an injected fault can fail one, applied or not; the setup then
/// starts over from a fresh registration, which resets the epochs.
fn register_with_edits(client: &mut Client, g: &Graph, batches: &[Vec<(u32, u32)>]) {
    let edges: Vec<(u32, u32)> = g.edges().collect();
    for _ in 0..8 {
        client
            .register_graph("chaos", g.n() as u32, &edges)
            .expect("register under chaos");
        if batches.iter().all(|b| client.add_edges("chaos", b).is_ok()) {
            return;
        }
    }
    panic!("the edit batches never applied cleanly");
}

/// Every window's chain, merged, and the requests the chains took.
fn drive_windows(client: &mut Client) -> (Vec<ShapeResult>, u32) {
    let mut requests = 0;
    let results = WINDOWS
        .iter()
        .map(|&(from, to, deadline_ms)| {
            let chain = client
                .list_new_to_completion(DeltaParams {
                    deadline_ms,
                    ..DeltaParams::new("chaos", from, to)
                })
                .expect("delta chain completes");
            requests += chain.requests;
            ShapeResult {
                triangles: chain.triangles,
                cost: chain.cost,
            }
        })
        .collect();
    (results, requests)
}

/// The chaos deadline skew reaches `ListNewTriangles` as it reaches
/// `List` and `Count`: deadline-carrying delta chains, skewed and
/// faulted, merge byte-identically to a fault-free server's.
#[test]
fn chaos_delta_chains_are_byte_identical_to_fault_free_oracle() {
    silence_injected_panics();
    let g = dense_graph(1000, 0.2, 0xC4A2);
    let batches = edit_batches(&g, 0xC4A3);
    let expected = {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        register_with_edits(&mut client, &g, &batches);
        let (results, _) = drive_windows(&mut client);
        client.shutdown().unwrap();
        server.join();
        results
    };
    assert!(
        expected.iter().all(|r| r.cost.triangles > 0),
        "every window must have new triangles"
    );

    let (mut skews, mut resumed) = (0u64, 0u32);
    for chaos_seed in [1u64, 2, 3, 5, 8, 13, 21, 34] {
        for workers in [1usize, 2, 4] {
            let cfg = ServeConfig {
                workers,
                chaos: Some(ChaosPlan::seeded(chaos_seed)),
                ..ServeConfig::default()
            };
            let server = Server::bind("127.0.0.1:0", cfg).unwrap();
            let policy = RetryPolicy {
                attempt_timeout: Some(Duration::from_secs(5)),
                ..RetryPolicy::seeded(chaos_seed)
            };
            let mut client = Client::connect_with_retry(server.addr(), policy).unwrap();
            register_with_edits(&mut client, &g, &batches);
            let (got, requests) = drive_windows(&mut client);
            resumed += requests - WINDOWS.len() as u32;
            assert_eq!(
                got, expected,
                "seed {chaos_seed} workers {workers}: \
                 merged delta chains must be byte-identical to the oracle"
            );
            // the only priced traffic here is ListNewTriangles
            skews += field(
                &client.stats().expect("stats under chaos"),
                "chaos_deadline_skews",
            );
            // a lost answer to `Shutdown` has the retry dial a server that
            // no longer accepts, so this run hangs up and drains instead
            drop(client);
            server.join();
        }
    }
    assert!(skews > 0, "no delta deadline was skewed");
    assert!(resumed > 0, "no delta chain took the partial+resume path");
}

#[test]
fn no_retried_call_exceeds_its_worst_case_budget() {
    silence_injected_panics();
    let g = pareto_graph(200, 0xB0D9);
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let cfg = ServeConfig {
        chaos: Some(ChaosPlan::seeded(0x7E57)),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let policy = RetryPolicy {
        attempt_timeout: Some(Duration::from_secs(2)),
        ..RetryPolicy::seeded(0x7E57)
    };
    let budget = policy.worst_case_budget().expect("timeout set");
    // Generous slack for reconnect dials and scheduler noise; the point
    // is that a retried call is *bounded*, not that it is fast.
    let limit = budget + Duration::from_secs(2);
    let mut client = Client::connect_with_retry(server.addr(), policy).unwrap();
    client
        .register_graph("chaos", g.n() as u32, &edges)
        .unwrap();
    for i in 0..40u64 {
        let t0 = Instant::now();
        let run = client
            .count(ListParams::new("chaos", "T1", "desc", "paper"))
            .expect("count under chaos");
        assert!(run.complete);
        let elapsed = t0.elapsed();
        assert!(
            elapsed <= limit,
            "call {i} took {elapsed:?}, over the worst-case budget {budget:?} (+2s slack)"
        );
    }
    client.shutdown().unwrap();
    server.join();
}

/// A fault that eats the `ShutdownAck` of a shutdown the server already
/// applied leaves the retried call redialing a listener that is gone: the
/// refusal means the drain took effect, so `shutdown` answers `Ok`.
#[test]
fn shutdown_whose_ack_is_lost_succeeds_when_the_redial_is_refused() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let (kind, _) = read_frame(&mut stream).expect("the shutdown frame");
        assert_eq!(kind, Request::Shutdown.kind());
        // stream and listener drop here: no ack, and nothing to redial
    });
    let mut client = Client::connect_with_retry(addr, RetryPolicy::default()).unwrap();
    let answer = client.shutdown();
    server.join().unwrap();
    assert!(
        answer.is_ok(),
        "a refused redial after shutdown: {answer:?}"
    );
    assert!(client.reconnects() == 0 && client.retries() > 0);
}

#[test]
fn killed_and_restarted_server_resumes_list_chain_byte_identically() {
    let g = pareto_graph(900, 0xD211);
    let edges: Vec<(u32, u32)> = g.edges().collect();

    // The uninterrupted stream the drill must reproduce.
    let expected = {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        client
            .register_graph("drill", g.n() as u32, &edges)
            .unwrap();
        let run = client
            .list(ListParams::new("drill", "T1", "desc", "paper"))
            .unwrap();
        assert!(run.complete);
        client.shutdown().unwrap();
        server.join();
        (run.triangles, run.cost)
    };

    // Server A: start a deadline-interrupted chain and collect a few
    // partial responses.
    let server_a = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut admin_a = Client::connect(server_a.addr()).unwrap();
    admin_a
        .register_graph("drill", g.n() as u32, &edges)
        .unwrap();
    let mut client = Client::connect_with_retry(
        server_a.addr(),
        RetryPolicy {
            attempt_timeout: Some(Duration::from_secs(5)),
            ..RetryPolicy::seeded(0xD211)
        },
    )
    .unwrap();
    // A 1-byte memory ceiling is always already exceeded (cache
    // residency counts against the shared gauge), so this request stops
    // deterministically at the first budget check and answers with a
    // resume token — the chain is now provably mid-flight.
    let mut params = ListParams {
        memory_bytes: 1,
        ..ListParams::new("drill", "T1", "desc", "paper")
    };
    let first = client.list(params.clone()).expect("partial before kill");
    assert!(!first.complete, "a 1-byte ceiling must interrupt");
    assert!(!first.resume.is_empty());
    params.resume = first.resume.clone();
    params.memory_bytes = 0;
    let mut responses = vec![first];

    // Kill A (graceful drain so the fixture is not timing-dependent;
    // the client's connection still dies with the process).
    admin_a.shutdown().unwrap();
    server_a.join();

    // Server B: a fresh process on a fresh port with the graph
    // re-registered. The resume token lives on the client, so pointing
    // the client's reconnect target at B is all the drill needs.
    let server_b = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut admin_b = Client::connect(server_b.addr()).unwrap();
    admin_b
        .register_graph("drill", g.n() as u32, &edges)
        .unwrap();
    client.set_reconnect_addr(server_b.addr().to_string());

    let reconnects_before = client.reconnects();
    loop {
        let res = client.list(params.clone()).expect("resume against B");
        let done = res.complete;
        params.resume = res.resume.clone();
        responses.push(res);
        if done {
            break;
        }
    }
    assert!(
        client.reconnects() > reconnects_before,
        "the chain must have crossed the restart via a reconnect"
    );

    let mut cost = CostReport::default();
    for res in &responses {
        cost.accumulate(&res.cost);
    }
    let triangles = trilist::serve::merge_pieces(&responses).expect("consistent piece tables");
    assert_eq!(triangles, expected.0, "stream must be byte-identical");
    assert_eq!(cost, expected.1, "cost must be byte-identical");

    admin_b.shutdown().unwrap();
    server_b.join();
}

/// Looks a counter up in a stats payload.
fn field(stats: &[(String, u64)], name: &str) -> u64 {
    stats
        .iter()
        .find(|(k, _)| k == name)
        .map(|&(_, v)| v)
        .unwrap_or_else(|| panic!("stats missing {name}"))
}

#[test]
fn degradation_ladder_engages_before_anything_is_rejected() {
    let big = pareto_graph(800, 0x1ADD);
    let small = pareto_graph(50, 0x1ADE);
    let big_edges: Vec<(u32, u32)> = big.edges().collect();
    let small_edges: Vec<(u32, u32)> = small.edges().collect();

    // Measurement pass (no ceiling): how many bytes the two prepared
    // graphs actually occupy, so the real server's memory ceiling can be
    // pitched to a known gauge fill.
    let (resident_total, resident_small_entry) = {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        c.register_graph("big", big.n() as u32, &big_edges).unwrap();
        c.register_graph("small", small.n() as u32, &small_edges)
            .unwrap();
        let raw = field(&c.stats().unwrap(), "gauge_bytes");
        c.list(ListParams::new("small", "T1", "desc", "paper"))
            .unwrap();
        let with_small = field(&c.stats().unwrap(), "gauge_bytes");
        c.list(ListParams::new("big", "T1", "desc", "paper"))
            .unwrap();
        let with_both = field(&c.stats().unwrap(), "gauge_bytes");
        assert!(with_both > with_small && with_small > raw);
        c.shutdown().unwrap();
        server.join();
        (with_both, with_small - raw)
    };
    // After the small graph's entry is evicted the gauge must still sit
    // at ≥ 90% of the ceiling, so the ladder stays engaged: ceiling =
    // (total − small_entry) · 10/9 (integer floor keeps fill ≥ 0.9).
    // That requires the big entry to dominate.
    assert!(
        resident_total > 10 * resident_small_entry,
        "fixture: big prepared entry must dominate ({resident_total} vs {resident_small_entry})"
    );
    let ceiling = (resident_total - resident_small_entry) * 10 / 9;
    assert!(ceiling > resident_total, "both graphs must fit under it");

    let cfg = ServeConfig {
        memory_bytes: Some(ceiling),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .register_graph("big", big.n() as u32, &big_edges)
        .unwrap();
    client
        .register_graph("small", small.n() as u32, &small_edges)
        .unwrap();

    // Requests carry their own huge memory override, so the cfg ceiling
    // creates *pressure* (gauge fill) without stopping any run.
    let override_bytes = 1u64 << 40;

    // R1: prepares the small graph at low pressure. It has no deadline
    // and no other graph's entry is cached, so whatever the fill, R1 moves
    // no ladder counter.
    let r1 = client
        .list(ListParams {
            memory_bytes: override_bytes,
            ..ListParams::new("small", "T1", "desc", "paper")
        })
        .unwrap();
    assert!(r1.complete);

    // R2: prepares the big graph, pushing the gauge past every rung
    // *before* the admission gate is consulted. Pinned effects: 10 s
    // deadline → clamped (deadline rung), the small graph's cold entry
    // evicted (evict rung) — and the request still completes.
    let r2 = client
        .list(ListParams {
            memory_bytes: override_bytes,
            deadline_ms: 10_000,
            ..ListParams::new("big", "T1", "desc", "bitset")
        })
        .unwrap();
    assert!(r2.complete, "degraded, not rejected");

    // R3: same shape on the now-hot big graph. The deadline rung fires
    // again; the evict rung finds nothing cold (only the current graph
    // remains) and stays put.
    let r3 = client
        .list(ListParams {
            memory_bytes: override_bytes,
            deadline_ms: 10_000,
            ..ListParams::new("big", "T1", "desc", "bitset")
        })
        .unwrap();
    assert!(r3.complete, "degraded, not rejected");

    let stats = client.stats().unwrap();
    assert_eq!(field(&stats, "admission_degraded_deadline"), 2);
    assert_eq!(field(&stats, "admission_degraded_evict"), 1);
    let steps: u64 = stats
        .iter()
        .filter(|(k, _)| k.starts_with("admission_degraded_"))
        .map(|&(_, v)| v)
        .sum();
    assert_eq!(field(&stats, "recorder_serve_degradations"), steps);
    assert_eq!(field(&stats, "cache_cold_evictions"), 1);
    assert_eq!(
        field(&stats, "admission_rejected_busy"),
        0,
        "the ladder must engage before anything is shed"
    );

    // Saturation phase: a concurrent burst against the default admission
    // limits. Now — and only now — rejections may appear, with the
    // ladder already demonstrably engaged above.
    let addr = server.addr().to_string();
    let rejected: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let addr = addr.as_str();
                scope.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    let mut rejected = 0u64;
                    for _ in 0..4 {
                        match c.list(ListParams {
                            memory_bytes: override_bytes,
                            ..ListParams::new("big", "T1", "desc", "bitset")
                        }) {
                            Ok(_) => {}
                            Err(ClientError::Server(e)) => {
                                assert_eq!(e.code, trilist::serve::ErrorCode::RejectedBusy);
                                rejected += 1;
                            }
                            Err(e) => panic!("unexpected failure under saturation: {e}"),
                        }
                    }
                    rejected
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let stats = client.stats().unwrap();
    assert_eq!(field(&stats, "admission_rejected_busy"), rejected);
    assert!(
        field(&stats, "admission_degraded_deadline") >= 2
            && field(&stats, "admission_degraded_evict") >= 1,
        "degradation preceded every rejection"
    );

    client.shutdown().unwrap();
    server.join();
}

/// The rungs sit in the prelude every priced run shares, so a
/// `ListNewTriangles` degrades as a listing run does: under pressure its
/// deadline is clamped, and the run still completes.
#[test]
fn delta_runs_take_the_deadline_rung_under_pressure() {
    let g = pareto_graph(400, 0x1ADF);
    let edges: Vec<(u32, u32)> = g.edges().collect();
    // a 1-byte server ceiling holds the gauge past every rung; the
    // request's own override keeps its run from stopping
    let cfg = ServeConfig {
        memory_bytes: Some(1),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.register_graph("g", g.n() as u32, &edges).unwrap();
    let absent = (0..g.n() as u32)
        .flat_map(|u| (u + 1..g.n() as u32).map(move |v| (u, v)))
        .find(|&(u, v)| !g.has_edge(u, v))
        .expect("the graph is not complete");
    client.add_edges("g", &[absent]).unwrap();
    let clamped = field(&client.stats().unwrap(), "admission_degraded_deadline");

    let run = client
        .list_new(DeltaParams {
            deadline_ms: 10_000,
            memory_bytes: 1 << 40,
            ..DeltaParams::new("g", 0, DeltaParams::LATEST)
        })
        .unwrap();
    assert!(run.result.complete, "degraded, not rejected");
    assert_eq!(run.new_edges, 1);
    let stats = client.stats().unwrap();
    assert_eq!(
        field(&stats, "admission_degraded_deadline"),
        clamped + 1,
        "the delta run's deadline was clamped"
    );
    assert_eq!(field(&stats, "admission_rejected_busy"), 0);

    client.shutdown().unwrap();
    server.join();
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    // The backoff schedule is monotone nondecreasing and capped, for
    // any jitter amplitude (the policy clamps it to the monotone
    // range) and any seed.
    #[test]
    fn prop_backoff_monotone_and_capped(
        base_ms in 1u64..50,
        cap_ms in 1u64..2_000,
        jitter in 0u16..1000,
        seed in any::<u64>(),
    ) {
        let policy = RetryPolicy {
            base: Duration::from_millis(base_ms),
            cap: Duration::from_millis(cap_ms),
            jitter_permille: jitter,
            seed,
            ..RetryPolicy::default()
        };
        let mut prev = Duration::ZERO;
        for retry in 0..24u32 {
            let d = policy.backoff(retry);
            prop_assert!(d <= policy.cap, "retry {} over cap: {:?}", retry, d);
            prop_assert!(d >= prev, "retry {} regressed: {:?} < {:?}", retry, d, prev);
            prev = d;
        }
        // And the tail saturates at the cap.
        prop_assert_eq!(policy.backoff(63), policy.backoff(64));
    }

    // Every delay stays within the jitter band of its nominal
    // exponential value: `nominal·(1000−j)/1000 ≤ delay ≤
    // min(nominal·(1000+j)/1000, cap)` with `j` clamped to 333‰.
    #[test]
    fn prop_backoff_jitter_bounded(
        base_ms in 1u64..50,
        jitter in 0u16..1000,
        seed in any::<u64>(),
        retry in 0u32..16,
    ) {
        let policy = RetryPolicy {
            base: Duration::from_millis(base_ms),
            cap: Duration::from_secs(1 << 12),
            jitter_permille: jitter,
            seed,
            ..RetryPolicy::default()
        };
        let j = u64::from(jitter.min(333));
        let nominal = base_ms.checked_mul(1u64 << retry).unwrap() * 1_000_000;
        let d = policy.backoff(retry).as_nanos() as u64;
        prop_assert!(d >= nominal / 1000 * (1000 - j));
        prop_assert!(d <= nominal / 1000 * (1000 + j));
    }

    // A chaos plan is a pure function of `(seed, conn, event)`: the
    // same coordinates always draw the same fault, and the per-mille
    // roll primitive it builds on stays in range.
    #[test]
    fn prop_chaos_plan_is_deterministic(
        seed in any::<u64>(),
        conn in any::<u64>(),
        event in any::<u64>(),
    ) {
        let a = ChaosPlan::seeded(seed);
        let b = ChaosPlan::seeded(seed);
        prop_assert_eq!(a.io_fault(IoOp::Read, conn, event), b.io_fault(IoOp::Read, conn, event));
        prop_assert_eq!(a.io_fault(IoOp::Write, conn, event), b.io_fault(IoOp::Write, conn, event));
        prop_assert_eq!(a.exec_fault(conn, event), b.exec_fault(conn, event));
        prop_assert_eq!(a.skews_deadline(conn, event), b.skews_deadline(conn, event));
        prop_assert!(fault_roll(seed, 0x524a_4954, conn, event) < 1000);
    }

    // Distinct seeds decorrelate: over a window of events, two seeds
    // must not replay each other's read-fault schedule.
    #[test]
    fn prop_chaos_seeds_decorrelate(seed in any::<u64>()) {
        let a = ChaosPlan::seeded(seed);
        let b = ChaosPlan::seeded(seed ^ 0x9E37_79B9_7F4A_7C15);
        let trace = |p: &ChaosPlan| -> Vec<_> {
            (0..512).map(|e| p.io_fault(IoOp::Read, 1, e)).collect()
        };
        prop_assert_ne!(trace(&a), trace(&b));
    }
}
