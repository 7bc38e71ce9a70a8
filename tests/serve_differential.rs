//! Differential suite for the service layer: a `List`/`Count` request
//! answered over the wire must return triangles and a `CostReport`
//! byte-identical to a direct in-process run against the same prepared
//! artifacts — for every fundamental method, both kernel policies, and
//! 1–4 listing workers, including runs interrupted by a budget and
//! continued through the resume token.

use rand::{Rng, SeedableRng};
use trilist::core::{
    list_resilient, CostReport, KernelPolicy, Kernels, Method, ParallelOpts, ResilientOpts,
    RunOutcome,
};
use trilist::graph::dist::{sample_degree_sequence, DiscretePareto, Truncated, Truncation};
use trilist::graph::gen::{GraphGenerator, ResidualSampler};
use trilist::graph::Graph;
use trilist::serve::{
    prepare_graph, prepare_seed_for, Client, ClientError, DeltaParams, ErrorCode, ListParams,
    PlanMode, ServeConfig, Server, StoreConfig,
};

/// A reproducible Pareto α = 1.5 graph with plenty of triangles.
fn pareto_graph(n: usize, seed: u64) -> Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let dist = Truncated::new(DiscretePareto::paper_beta(1.5), Truncation::Root.t_n(n));
    let (seq, _) = sample_degree_sequence(&dist, n, &mut rng);
    ResidualSampler.generate(&seq, &mut rng).graph
}

/// A reproducible G(n, p) graph dense enough that neighbor lists pack
/// many labels per bitset block, so block intersections win routes.
fn dense_graph(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let edges: Vec<(u32, u32)> = (0..n as u32)
        .flat_map(|u| (u + 1..n as u32).map(move |v| (u, v)))
        .filter(|_| rng.gen_bool(p))
        .collect();
    Graph::from_edges(n, &edges).unwrap()
}

/// What a direct in-process run against the server's exact prepared
/// artifacts produces: triangles mapped to original IDs plus the cost.
fn direct_run(
    g: &Graph,
    graph_name: &str,
    method: Method,
    policy: KernelPolicy,
    threads: usize,
) -> (Vec<(u32, u32, u32)>, CostReport) {
    let family = method.optimal_family();
    let seed = prepare_seed_for(
        StoreConfig::default().prepare_seed,
        graph_name,
        family.name(),
    );
    let prepared = prepare_graph(g, family, seed);
    let opts = ResilientOpts {
        parallel: ParallelOpts {
            threads,
            policy,
            ..ParallelOpts::default()
        },
        ..ResilientOpts::default()
    };
    let run = match list_resilient(&prepared.dg, method, &opts).expect("direct run") {
        RunOutcome::Complete(run) => run,
        RunOutcome::Partial(_) => panic!("unlimited budget cannot stop early"),
    };
    let triangles = run
        .triangles
        .iter()
        .map(|&(x, y, z)| {
            let mut t = [
                prepared.inverse[x as usize],
                prepared.inverse[y as usize],
                prepared.inverse[z as usize],
            ];
            t.sort_unstable();
            (t[0], t[1], t[2])
        })
        .collect();
    (triangles, run.cost)
}

#[test]
fn wire_results_match_direct_runs_for_every_method_policy_and_worker_count() {
    let g = pareto_graph(600, 0xD1FF);
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.register_graph("diff", g.n() as u32, &edges).unwrap();

    for method in Method::FUNDAMENTAL {
        let family = method.optimal_family();
        for policy in [KernelPolicy::PaperFaithful, KernelPolicy::adaptive()] {
            let (expected_tris, expected_cost) = direct_run(&g, "diff", method, policy, 1);
            assert!(expected_cost.triangles > 0, "fixture must have triangles");
            for workers in [1u16, 2, 4] {
                let params = ListParams {
                    threads: workers,
                    ..ListParams::new("diff", method.name(), family.name(), policy.name())
                };
                let run = client.list(params.clone()).unwrap();
                assert!(run.complete, "unlimited budget completes");
                assert_eq!(
                    run.cost, expected_cost,
                    "{method} {policy:?} workers={workers}: cost must be byte-identical"
                );
                assert_eq!(
                    run.triangles, expected_tris,
                    "{method} {policy:?} workers={workers}: triangles must be byte-identical"
                );
                // Count is the same execution without the triangle payload.
                let count = client.count(params).unwrap();
                assert_eq!(count.cost, expected_cost);
                assert!(count.triangles.is_empty());
                assert!(count.complete);
            }
        }
    }
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn interrupted_then_resumed_chain_is_byte_identical() {
    let g = pareto_graph(900, 0x5E5);
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .register_graph("resume", g.n() as u32, &edges)
        .unwrap();

    for method in Method::FUNDAMENTAL {
        let family = method.optimal_family();
        let (expected_tris, expected_cost) =
            direct_run(&g, "resume", method, KernelPolicy::PaperFaithful, 2);

        // A 1-byte memory ceiling is always already exceeded (cache
        // residency counts against the shared gauge), so the first
        // request stops at the first budget check and answers with a
        // resume token; the chain driver finishes the run without the
        // ceiling.
        let first = ListParams {
            threads: 2,
            memory_bytes: 1,
            ..ListParams::new("resume", method.name(), family.name(), "paper")
        };
        let partial = client.list(first).unwrap();
        assert!(!partial.complete, "{method}: 1-byte ceiling must interrupt");
        assert_eq!(partial.stop_reason, "memory budget exhausted");
        assert!(!partial.resume.is_empty());

        let rest = ListParams {
            threads: 2,
            resume: partial.resume.clone(),
            ..ListParams::new("resume", method.name(), family.name(), "paper")
        };
        let chain = {
            // drive the remainder (itself resumable) to completion
            let mut responses = vec![partial];
            let mut next = rest;
            loop {
                let res = client.list(next.clone()).unwrap();
                let done = res.complete;
                next.resume = res.resume.clone();
                responses.push(res);
                if done {
                    break;
                }
            }
            responses
        };
        assert!(chain.len() >= 2, "{method}: chain spans multiple requests");
        let mut cost = CostReport::default();
        for res in &chain {
            cost.accumulate(&res.cost);
        }
        let triangles = trilist::serve::merge_pieces(&chain).expect("consistent piece tables");
        assert_eq!(cost, expected_cost, "{method}: merged cost byte-identical");
        assert_eq!(
            triangles, expected_tris,
            "{method}: merged triangles byte-identical"
        );
    }
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn chain_driver_matches_manual_merge_and_deadlines_resume() {
    // The convenience driver on a deadline-interrupted run: whatever mix
    // of partial responses the deadline produces, the merged chain equals
    // the uninterrupted run.
    let g = pareto_graph(900, 0xCAFE);
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .register_graph("deadline", g.n() as u32, &edges)
        .unwrap();

    let method = Method::T2;
    let family = method.optimal_family();
    let (expected_tris, expected_cost) =
        direct_run(&g, "deadline", method, KernelPolicy::PaperFaithful, 2);
    let params = ListParams {
        threads: 2,
        deadline_ms: 1,
        ..ListParams::new("deadline", method.name(), family.name(), "paper")
    };
    let chain = client.list_to_completion(params).unwrap();
    assert_eq!(chain.cost, expected_cost);
    assert_eq!(chain.triangles, expected_tris);
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn unpinned_requests_are_byte_identical_to_the_plans_explicit_choices() {
    // An autotuning server (rounds = 0 → deterministic reference
    // profile): a request that leaves method/ordering/policy blank must
    // answer byte-identically to one that names the plan's choices
    // explicitly — including a resume chain interrupted by a memory
    // ceiling.
    let g = pareto_graph(600, 0xA070);
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let cfg = ServeConfig {
        store: StoreConfig {
            plan: PlanMode::Autotune { rounds: 0 },
            ..StoreConfig::default()
        },
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.register_graph("auto", g.n() as u32, &edges).unwrap();

    // the server explains the plan it will apply to unpinned requests
    let info = client.explain_plan("auto").unwrap();
    assert_eq!(info.evaluations, 96, "8 orderings x 4 methods x 3 policies");
    assert!(info.predicted_seconds <= info.default_seconds * 1.05);

    let explicit = ListParams {
        threads: 2,
        ..ListParams::new("auto", &info.method, &info.ordering, &info.policy)
    };
    let unpinned = ListParams {
        threads: 2,
        ..ListParams::new("auto", "", "", "")
    };
    let want = client.list(explicit.clone()).unwrap();
    let got = client.list(unpinned.clone()).unwrap();
    assert!(want.complete && got.complete);
    assert!(want.cost.triangles > 0, "fixture must have triangles");
    assert_eq!(got.cost, want.cost, "unpinned cost must be byte-identical");
    assert_eq!(got.triangles, want.triangles);
    assert_eq!(client.count(unpinned).unwrap().cost, want.cost);

    // partially-pinned: method fixed, ordering and policy from the plan
    let partial_pin = ListParams {
        threads: 2,
        ..ListParams::new("auto", &info.method, "", "")
    };
    let partly = client.list(partial_pin).unwrap();
    assert_eq!(partly.cost, want.cost);
    assert_eq!(partly.triangles, want.triangles);

    // interrupted resume chain: a 1-byte ceiling interrupts the unpinned
    // request; the merged chain equals the uninterrupted explicit run
    let first = ListParams {
        threads: 2,
        memory_bytes: 1,
        ..ListParams::new("auto", "", "", "")
    };
    let partial = client.list(first).unwrap();
    assert!(!partial.complete, "1-byte ceiling must interrupt");
    assert!(!partial.resume.is_empty());
    let mut chain = vec![partial];
    let mut next = ListParams {
        threads: 2,
        resume: chain[0].resume.clone(),
        ..ListParams::new("auto", "", "", "")
    };
    loop {
        let res = client.list(next.clone()).unwrap();
        let done = res.complete;
        next.resume = res.resume.clone();
        chain.push(res);
        if done {
            break;
        }
    }
    let mut cost = CostReport::default();
    for res in &chain {
        cost.accumulate(&res.cost);
    }
    let triangles = trilist::serve::merge_pieces(&chain).expect("consistent piece tables");
    assert_eq!(cost, want.cost, "merged unpinned chain cost byte-identical");
    assert_eq!(triangles, want.triangles);

    // the plan surfaces in stats: one cached plan, explain was counted
    let stats = client.stats().unwrap();
    let field = |name: &str| {
        stats
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("stats missing {name}"))
            .1
    };
    assert_eq!(field("plans_cached"), 1);
    assert!(field("plan_bytes") > 0);
    assert_eq!(field("requests_explain"), 1);
    assert_eq!(field("recorder_plan_pick"), 1);
    assert!(field("recorder_plan_evaluations") >= 96);
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn predict_matches_in_process_pricing() {
    let g = pareto_graph(400, 0xBEEF);
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.register_graph("p", g.n() as u32, &edges).unwrap();
    for method in Method::FUNDAMENTAL {
        let family = method.optimal_family();
        let seed = prepare_seed_for(StoreConfig::default().prepare_seed, "p", family.name());
        let prepared = prepare_graph(&g, family, seed);
        let expected = trilist::model::price_request(method, &prepared.degrees_by_label);
        let (per_node, total_ops, n) = client.predict("p", method.name(), family.name()).unwrap();
        assert_eq!(per_node.to_bits(), expected.per_node.to_bits());
        assert_eq!(total_ops.to_bits(), expected.total_ops.to_bits());
        assert_eq!(n, expected.n);
    }
    client.shutdown().unwrap();
    server.join();
}

/// Resume tokens are outside input: one that names a range twice (or
/// none, or the other domain's) gets an error frame, never a replay.
fn rejected<T>(res: Result<T, ClientError>, token: &str) {
    match res {
        Err(ClientError::Server(frame)) => assert_eq!(frame.code, ErrorCode::BadRequest, "{token}"),
        Ok(_) => panic!("{token}: replayed instead of rejected"),
        Err(e) => panic!("{token}: {e}"),
    }
}

#[test]
fn replayed_tokens_must_name_each_range_once_on_list_and_list_new() {
    let g = pareto_graph(400, 0x70C);
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.register_graph("tok", 400, &edges).unwrap();
    // three absent edges make a delta window of three net-new edges
    let absent: Vec<(u32, u32)> = (0..400u32)
        .flat_map(|u| ((u + 1)..400).map(move |v| (u, v)))
        .filter(|&(u, v)| !g.has_edge(u, v))
        .step_by(997)
        .take(3)
        .collect();
    client.add_edges("tok", &absent).unwrap();

    let family = Method::E4.optimal_family().name();
    let list = |resume: &str| ListParams {
        resume: resume.into(),
        ..ListParams::new("tok", "E4", family, "paper")
    };
    let whole = client.list(list("")).unwrap();
    // one well-formed range covering the graph replays the whole run
    let replay = client
        .list(list("trilist-resume v1 E4 n=400 0:0-400"))
        .unwrap();
    assert!(replay.complete);
    assert_eq!(replay.triangles, whole.triangles);
    assert_eq!(replay.cost, whole.cost);
    for token in [
        "trilist-resume v1 E4 n=400 0:0-400 0:0-400",
        "trilist-resume v1 E4 n=400 0:0-300 1:200-400",
        "trilist-resume v1 E4 n=400 1:0-200 0:200-400",
        "trilist-resume v1 E4 n=400",
        "trilist-resume v1 delta n=400 edges=3 0:0-3",
    ] {
        rejected(client.list(list(token)), token);
    }

    let list_new = |resume: &str| DeltaParams {
        resume: resume.into(),
        ..DeltaParams::new("tok", 0, DeltaParams::LATEST)
    };
    let whole = client.list_new(list_new("")).unwrap();
    assert_eq!(whole.new_edges, 3);
    let replay = client
        .list_new(list_new("trilist-resume v1 delta n=400 edges=3 0:0-3"))
        .unwrap();
    assert!(replay.result.complete);
    assert_eq!(replay.result.triangles, whole.result.triangles);
    assert_eq!(replay.result.cost, whole.result.cost);
    for token in [
        "trilist-resume v1 delta n=400 edges=3 0:0-3 0:0-3",
        "trilist-resume v1 delta n=400 edges=3 0:0-2 1:1-3",
        "trilist-resume v1 delta n=400 edges=3 1:0-1 0:1-3",
        "trilist-resume v1 delta n=400 edges=3",
        "trilist-resume v1 E4 n=400 0:0-400",
    ] {
        rejected(client.list_new(list_new(token)), token);
    }
    client.shutdown().unwrap();
    server.join();
}

/// A G(n, p) graph on two halves with every edge across them: neighbor
/// lists as dense as [`dense_graph`]'s, so block intersections win routes,
/// but no triangles to stage.
fn bipartite_graph(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let edges: Vec<(u32, u32)> = (0..n as u32)
        .flat_map(|u| (u + 1..n as u32).map(move |v| (u, v)))
        .filter(|&(u, v)| (u + v) % 2 == 1 && rng.gen_bool(p))
        .collect();
    Graph::from_edges(n, &edges).unwrap()
}

/// The shipped store caches an adaptive kernel context. A request naming
/// bitset borrows that entry's hub rows and builds only its block
/// encodings; its answers must equal direct runs that build a whole
/// bitset context of their own. Under a ceiling too small for the
/// blocks it keeps the borrowed rows and answers as an adaptive request
/// does. Once it is done the resting gauge must hold only what the store
/// caches.
#[test]
fn bitset_requests_on_an_adaptive_entry_match_runs_that_build_their_own() {
    let g = dense_graph(400, 0.25, 0xB175);
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.register_graph("bits", g.n() as u32, &edges).unwrap();
    let plan = client.explain_plan("bits").unwrap();
    assert_eq!(plan.policy, "adaptive", "the entry caches adaptive kernels");

    for (method, list) in [(Method::E1, false), (Method::E4, true)] {
        let (tris, cost) = direct_run(&g, "bits", method, KernelPolicy::bitset(), 1);
        let (_, adaptive) = direct_run(&g, "bits", method, KernelPolicy::adaptive(), 1);
        assert_ne!(
            cost.pointer_advances, adaptive.pointer_advances,
            "{method}: the cached context alone would answer differently"
        );
        for workers in [1u16, 2] {
            let family = method.optimal_family();
            let params = ListParams {
                threads: workers,
                ..ListParams::new("bits", method.name(), family.name(), "bitset")
            };
            let run = if list {
                client.list(params).unwrap()
            } else {
                client.count(params).unwrap()
            };
            assert!(run.complete);
            assert_eq!(run.cost, cost, "{method} workers={workers}");
            if list {
                assert_eq!(run.triangles, tris, "{method} workers={workers}");
            }
        }
    }

    // A ceiling below the block encodings: the bitset request keeps the
    // entry's rows and sheds only its blocks. On a triangle-free graph
    // the ceiling need hold no staged triangles.
    let bip = bipartite_graph(400, 0.5, 0xB176);
    let bip_edges: Vec<(u32, u32)> = bip.edges().collect();
    client
        .register_graph("bip", bip.n() as u32, &bip_edges)
        .unwrap();
    let family = Method::E1.optimal_family();
    let count = |client: &mut Client, policy: &str, memory_bytes: u64| {
        let run = client
            .count(ListParams {
                memory_bytes,
                ..ListParams::new("bip", "E1", family.name(), policy)
            })
            .unwrap();
        assert!(run.complete, "{policy}: the ceiling holds the run");
        assert_eq!(run.cost.triangles, 0);
        run.cost
    };
    let adaptive = count(&mut client, "adaptive", 0);
    let (_, bitset) = direct_run(&bip, "bip", Method::E1, KernelPolicy::bitset(), 1);
    assert_ne!(
        bitset.pointer_advances, adaptive.pointer_advances,
        "E1 on bip: the blocks route pairs"
    );
    let seed = prepare_seed_for(StoreConfig::default().prepare_seed, "bip", family.name());
    let dg = prepare_graph(&bip, family, seed).dg;
    let blocks = Kernels::build(KernelPolicy::bitset(), &dg).bytes()
        - Kernels::build(KernelPolicy::adaptive(), &dg).bytes();
    let resting = client
        .stats()
        .unwrap()
        .into_iter()
        .find(|(k, _)| k == "gauge_bytes")
        .unwrap()
        .1;
    assert_eq!(count(&mut client, "bitset", 0), bitset, "undegraded");
    assert_eq!(
        count(&mut client, "bitset", resting + blocks / 2),
        adaptive,
        "rows kept, blocks shed: pointer_advances included"
    );

    let stats = client.stats().unwrap();
    let field = |name: &str| stats.iter().find(|(k, _)| k == name).unwrap().1;
    assert_eq!(
        field("gauge_bytes"),
        field("cache_bytes") + field("plan_bytes") + field("delta_bytes") + field("segment_bytes"),
        "resting gauge == cache + plan + delta + segment"
    );
    client.shutdown().unwrap();
    server.join();
}

/// A count stages no triangles, so its only memory is the resting gauge:
/// a paper `Count E1/desc` on G(400, 0.25), which builds no kernel
/// structures, completes within 64 KB of it, while a listing run under
/// the same ceiling stops for its staged triangles.
#[test]
fn a_count_completes_within_64_kb_of_the_resting_gauge() {
    let g = dense_graph(400, 0.25, 0xC0DE);
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .register_graph("dense", g.n() as u32, &edges)
        .unwrap();
    let params = ListParams::new("dense", "E1", "desc", "paper");
    let unbounded = client.count(params.clone()).unwrap();
    assert!(unbounded.complete);
    assert!(unbounded.cost.triangles > 100_000, "fixture must be dense");
    let resting = client
        .stats()
        .unwrap()
        .into_iter()
        .find(|(k, _)| k == "gauge_bytes")
        .unwrap()
        .1;
    let bounded = ListParams {
        memory_bytes: resting + (64 << 10),
        ..params
    };
    let count = client.count(bounded.clone()).unwrap();
    assert!(count.complete, "the count stops: {}", count.stop_reason);
    assert_eq!(count.cost, unbounded.cost);
    let list = client.list(bounded).unwrap();
    assert!(!list.complete, "the listing run stages its triangles");
    client.shutdown().unwrap();
    server.join();
}

/// A graph the store refuses answers a `BadRequest` whose text names the
/// fault `Graph::from_edges` finds first: out-of-range IDs and self-loops
/// in input order, then the duplicate in the lowest row, in either
/// endpoint order. The pinned texts are the wire contract of a refused
/// `RegisterGraph`, whatever builds the CSR.
#[test]
fn refused_registrations_answer_the_first_fault_in_a_fixed_text() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let cases: [(&[(u32, u32)], &str); 5] = [
        (&[(0, 1), (5, 6), (1, 2), (6, 5)], "duplicate edge (5, 6)"),
        (&[(4, 3), (1, 2), (3, 4), (2, 1)], "duplicate edge (1, 2)"),
        (&[(2, 1), (0, 3), (3, 0), (1, 2)], "duplicate edge (0, 3)"),
        (&[(0, 1), (1, 0), (4, 4)], "self-loop at node 4"),
        (
            &[(0, 1), (1, 0), (7, 9), (3, 3)],
            "node 9 out of range for graph of 8 nodes",
        ),
    ];
    for (edges, text) in cases {
        match client.register_graph("bad", 8, edges) {
            Err(ClientError::Server(frame)) => {
                assert_eq!(frame.code, ErrorCode::BadRequest, "{edges:?}");
                assert_eq!(frame.message, text, "{edges:?}");
            }
            other => panic!("{edges:?}: wanted a refusal, got {other:?}"),
        }
    }
    // the connection outlives its refusals
    client.register_graph("bad", 3, &[(0, 1), (1, 2)]).unwrap();
    client.shutdown().unwrap();
    server.join();
}
