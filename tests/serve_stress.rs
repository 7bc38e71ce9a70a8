//! Concurrency stress for `trilist-serve`: eight client threads hammer a
//! two-worker server configured with a tight admission queue and a
//! two-entry prepared-graph cache while the request mix cycles three
//! permutation families (so the LRU must evict) and sprinkles in
//! 1-byte memory ceilings (so partial responses and resume tokens flow
//! under contention).
//!
//! The test then reconciles *every* server counter against client-side
//! tallies: the run finishing at all proves no deadlock; the counters
//! matching proves no request was dropped, double-counted, or answered
//! with an untyped error; the resting gauge matching the cache bytes
//! proves every in-flight budget settled.
//!
//! A second test races `register` against prepare misses, which build
//! with the store lock released: afterwards every cached entry must be
//! the one its key's current graph produces, and the resting gauge must
//! equal the store's own accounting.

use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use trilist::core::MemoryGauge;
use trilist::graph::dist::{sample_degree_sequence, DiscretePareto, Truncated, Truncation};
use trilist::graph::gen::{GraphGenerator, ResidualSampler};
use trilist::graph::Graph;
use trilist::order::OrderFamily;
use trilist::serve::{
    prepare_graph_with, prepare_seed_at, AdmissionConfig, Client, ClientError, ErrorCode,
    GraphStore, ListParams, ServeConfig, Server, StoreConfig,
};

const THREADS: usize = 8;
const ITERS: u64 = 12;

fn pareto_graph(n: usize, seed: u64) -> Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let dist = Truncated::new(DiscretePareto::paper_beta(1.5), Truncation::Root.t_n(n));
    let (seq, _) = sample_degree_sequence(&dist, n, &mut rng);
    ResidualSampler.generate(&seq, &mut rng).graph
}

/// `(kind, method, family, policy, 1-byte ceiling)` cycled by iteration.
/// Three distinct families against a 2-entry cache force LRU evictions.
const MIX: [(&str, &str, &str, &str, bool); 6] = [
    ("list", "T1", "desc", "paper", false),
    ("count", "T2", "rr", "paper", false),
    ("list", "E4", "crr", "adaptive", false),
    ("count", "T1", "desc", "adaptive", false),
    ("list", "T2", "rr", "paper", true),
    ("stats", "", "", "", false),
];

#[derive(Default)]
struct Tally {
    sent_list: AtomicU64,
    sent_count: AtomicU64,
    sent_stats: AtomicU64,
    ok_runs: AtomicU64,
    partials: AtomicU64,
    busy: AtomicU64,
    other_errors: AtomicU64,
}

#[test]
fn stress_counters_reconcile_under_contention() {
    let g = pareto_graph(400, 0x57E5);
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let cfg = ServeConfig {
        workers: 2,
        admission: AdmissionConfig {
            max_inflight: 2,
            max_queue: 2,
            max_predicted_ops: None,
        },
        store: StoreConfig {
            max_entries: 2,
            ..StoreConfig::default()
        },
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let mut setup = Client::connect(server.addr()).unwrap();
    setup
        .register_graph("stress", g.n() as u32, &edges)
        .unwrap();

    let tally = Tally::default();
    // completed runs of the same (method, policy) must agree on the count
    let agreement: Mutex<HashMap<(String, String), u64>> = Mutex::new(HashMap::new());

    // Warmup without contention: every family prepared once, so the
    // 2-entry cache is guaranteed to evict regardless of what the
    // contended phase manages to get admitted.
    for (method, family) in [("T1", "desc"), ("T2", "rr"), ("E4", "crr")] {
        let run = setup
            .count(ListParams::new("stress", method, family, "paper"))
            .unwrap();
        assert!(run.complete);
        tally.sent_count.fetch_add(1, Ordering::Relaxed);
        tally.ok_runs.fetch_add(1, Ordering::Relaxed);
        agreement.lock().unwrap().insert(
            (method.to_string(), "paper".to_string()),
            run.cost.triangles,
        );
    }

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (tally, agreement, addr) = (&tally, &agreement, server.addr());
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..ITERS {
                    let (kind, method, family, policy, tiny) =
                        MIX[((t as u64 + i) % MIX.len() as u64) as usize];
                    if kind == "stats" {
                        tally.sent_stats.fetch_add(1, Ordering::Relaxed);
                        client.stats().unwrap();
                        continue;
                    }
                    let params = ListParams {
                        memory_bytes: if tiny { 1 } else { 0 },
                        ..ListParams::new("stress", method, family, policy)
                    };
                    let result = if kind == "list" {
                        tally.sent_list.fetch_add(1, Ordering::Relaxed);
                        client.list(params)
                    } else {
                        tally.sent_count.fetch_add(1, Ordering::Relaxed);
                        client.count(params)
                    };
                    match result {
                        Ok(run) => {
                            tally.ok_runs.fetch_add(1, Ordering::Relaxed);
                            if run.complete {
                                let mut seen = agreement.lock().unwrap();
                                let key = (method.to_string(), policy.to_string());
                                let prior = *seen.entry(key.clone()).or_insert(run.cost.triangles);
                                assert_eq!(
                                    prior, run.cost.triangles,
                                    "{key:?}: completed runs disagree on triangle count"
                                );
                            } else {
                                tally.partials.fetch_add(1, Ordering::Relaxed);
                                assert_eq!(run.stop_reason, "memory budget exhausted");
                                assert!(!run.resume.is_empty());
                            }
                        }
                        Err(ClientError::Server(frame)) => {
                            assert_eq!(
                                frame.code,
                                ErrorCode::RejectedBusy,
                                "only admission shedding may fail a well-formed request: {frame:?}"
                            );
                            tally.busy.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            eprintln!("thread {t} iter {i}: {e}");
                            tally.other_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    // One uncontended 1-byte-ceiling request so at least one partial is
    // guaranteed even if every contended one was shed by admission.
    let partial = setup
        .list(ListParams {
            memory_bytes: 1,
            ..ListParams::new("stress", "T1", "desc", "paper")
        })
        .unwrap();
    assert!(!partial.complete);
    tally.sent_list.fetch_add(1, Ordering::Relaxed);
    tally.ok_runs.fetch_add(1, Ordering::Relaxed);
    tally.partials.fetch_add(1, Ordering::Relaxed);

    let stats: HashMap<String, u64> = setup.stats().unwrap().into_iter().collect();
    let field = |name: &str| -> u64 {
        *stats
            .get(name)
            .unwrap_or_else(|| panic!("stats field {name} missing"))
    };

    assert_eq!(tally.other_errors.load(Ordering::Relaxed), 0);
    assert!(tally.partials.load(Ordering::Relaxed) >= 1);

    let sent_list = tally.sent_list.load(Ordering::Relaxed);
    let sent_count = tally.sent_count.load(Ordering::Relaxed);
    let sent_stats = tally.sent_stats.load(Ordering::Relaxed) + 1; // + this one
    let busy = tally.busy.load(Ordering::Relaxed);
    let ok_runs = tally.ok_runs.load(Ordering::Relaxed);

    // request accounting: nothing dropped, nothing double-counted
    assert_eq!(field("requests_register"), 1);
    assert_eq!(field("requests_list"), sent_list);
    assert_eq!(field("requests_count"), sent_count);
    assert_eq!(field("requests_stats"), sent_stats);
    assert_eq!(field("requests_shutdown"), 0);
    assert_eq!(
        field("requests_total"),
        1 + sent_list + sent_count + sent_stats
    );

    // every error frame the server counted is one the clients saw (and
    // every one of those was a typed busy rejection)
    assert_eq!(field("responses_error"), busy);
    assert_eq!(field("admission_rejected_busy"), busy);
    assert_eq!(field("admission_rejected_cost"), 0);

    // every admitted permit produced exactly one ok run, and all settled
    assert_eq!(field("admission_admitted"), ok_runs);
    assert_eq!(field("admission_inflight"), 0);

    // the 2-entry LRU cycled three families: it must have evicted
    assert!(field("cache_evictions") >= 1, "LRU never evicted");
    assert!(field("cache_entries") <= 2);
    assert_eq!(field("graphs_registered"), 1);

    // gauge conservation: with nothing in flight, the only memory still
    // charged against the global ceiling is the cache residency
    assert_eq!(field("gauge_bytes"), field("cache_bytes"));

    setup.shutdown().unwrap();
    server.join();
}

#[test]
fn register_races_unlocked_prepares() {
    const PASSES: usize = 4;
    const REGISTERS: usize = 12;
    let n = 600;
    // two different graphs on the same nodes, so an entry built from one
    // and cached under the other is detectable
    let lists: Vec<Vec<(u32, u32)>> = [0x5A, 0xA5]
        .iter()
        .map(|&seed| pareto_graph(n, seed).edges().collect())
        .collect();
    let fresh = (1..n as u32)
        .map(|v| (0, v))
        .find(|e| lists.iter().all(|l| !l.contains(e)))
        .unwrap();
    let families = [
        OrderFamily::Descending,
        OrderFamily::Ascending,
        OrderFamily::RoundRobin,
    ];
    let cfg = StoreConfig {
        max_entries: 64,
        ..StoreConfig::default()
    };
    let gauge = MemoryGauge::new();
    let store = GraphStore::new(cfg.clone(), gauge.clone());
    store.register("race", n as u32, &lists[0]).unwrap();

    for pass in 0..PASSES {
        // preparers run until both registrars are done, so the last
        // registration lands while builds are in flight
        let registrars_done = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..2 {
                let (store, lists, done) = (&store, &lists, &registrars_done);
                scope.spawn(move || {
                    for i in 0..REGISTERS {
                        store
                            .register("race", n as u32, &lists[(pass + t + i) % 2])
                            .unwrap();
                        // epoch 1, unless the other registrar got there first
                        let _ = store.add_edges("race", &[fresh]);
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
            for t in 0..4 {
                let (store, done) = (&store, &registrars_done);
                scope.spawn(move || {
                    let mut i = t;
                    while done.load(Ordering::SeqCst) < 2 {
                        let family = families[i % families.len()];
                        if i % 2 == 0 {
                            store.prepare("race", family).unwrap();
                        } else {
                            store.prepare_at("race", family, Some(0)).unwrap();
                        }
                        i += 1;
                    }
                });
            }
        });

        // Every resident entry is visited once by the sweep below
        // (nothing is evicted at this cache size) and must equal a fresh
        // build from the current generation's graph at its epoch.
        let resident = store.stats().entries;
        let latest = store.latest_epoch("race").unwrap();
        let mut verified = 0;
        for epoch in 0..=latest {
            let graph = store.graph_at("race", Some(epoch)).unwrap();
            for family in families {
                let (entry, hit, _) = store.prepare_at("race", family, Some(epoch)).unwrap();
                if !hit {
                    continue;
                }
                verified += 1;
                let seed = prepare_seed_at(cfg.prepare_seed, "race", family.name(), epoch);
                let expect = prepare_graph_with(&graph, family, seed, cfg.plan);
                let ctx = format!("pass {pass}: {} at epoch {epoch}", family.name());
                assert_eq!(entry.inverse, expect.inverse, "{ctx}");
                assert_eq!(entry.degrees_by_label, expect.degrees_by_label, "{ctx}");
                assert_eq!(entry.plan, expect.plan, "{ctx}");
                assert_eq!(entry.bytes, expect.bytes, "{ctx}");
                for v in 0..n as u32 {
                    assert_eq!(entry.dg.out(v), expect.dg.out(v), "{ctx}: label {v}");
                }
            }
        }
        assert_eq!(
            verified, resident,
            "pass {pass}: an entry outside the current epochs"
        );

        let st = store.stats();
        assert_eq!(
            gauge.used(),
            st.bytes + st.plan_bytes + st.delta_bytes + st.segment_bytes,
            "pass {pass}: resting gauge == cache + plan + delta + segment"
        );
    }
}
