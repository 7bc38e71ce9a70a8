//! Golden `Stats` export: the exact key set a server answers with (chaos
//! off and chaos on), and the exact value of every request, admission,
//! cache and delta counter after one deterministic single-connection
//! script. Any change to how the server counts an event, or to which
//! keys it exports, shows up here.

use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use trilist::core::{Method, ResumePoint, WorkDomain};
use trilist::serve::{
    AdmissionConfig, ChaosPlan, Client, ClientError, DeltaParams, ErrorCode, ListParams,
    RetryPolicy, ServeConfig, Server,
};

/// Every key a chaos-off server exports, sorted.
const KEYS: [&str; 59] = [
    "accept_errors",
    "admission_admitted",
    "admission_degraded_deadline",
    "admission_degraded_evict",
    "admission_inflight",
    "admission_queued",
    "admission_rejected_busy",
    "admission_rejected_cost",
    "cache_bytes",
    "cache_cold_evictions",
    "cache_entries",
    "cache_evictions",
    "cache_hits",
    "cache_misses",
    "compactions",
    "delta_bytes",
    "delta_edges",
    "delta_runs",
    "epoch_pins",
    "gauge_bytes",
    "graphs_registered",
    "memory_ceiling_bytes",
    "plan_bytes",
    "plans_cached",
    "recorder_bitmap_probes",
    "recorder_bitset_block_steps",
    "recorder_budget_checks",
    "recorder_chaos_injections",
    "recorder_chunk_retries",
    "recorder_degradations",
    "recorder_gallop_steps",
    "recorder_intersect_bitmap",
    "recorder_intersect_bitset",
    "recorder_intersect_branchless",
    "recorder_intersect_gallop",
    "recorder_intersect_paper",
    "recorder_intersect_stamp",
    "recorder_oracle_hits",
    "recorder_oracle_misses",
    "recorder_plan_evaluations",
    "recorder_plan_pick",
    "recorder_serve_degradations",
    "recorder_span_ns",
    "recorder_spans",
    "recorder_steals",
    "requests_add_edges",
    "requests_count",
    "requests_explain",
    "requests_list",
    "requests_list_new",
    "requests_predict",
    "requests_register",
    "requests_remove_edges",
    "requests_shutdown",
    "requests_stats",
    "requests_total",
    "responses_error",
    "retained_segments",
    "segment_bytes",
];

/// The keys a chaos-armed server adds, sorted.
const CHAOS_KEYS: [&str; 9] = [
    "chaos_deadline_skews",
    "chaos_eintrs",
    "chaos_gauge_spikes",
    "chaos_panics",
    "chaos_resets",
    "chaos_short_reads",
    "chaos_short_writes",
    "chaos_stalls",
    "chaos_would_blocks",
];

fn sorted_keys(stats: &[(String, u64)]) -> Vec<&str> {
    let mut keys: Vec<&str> = stats.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    keys
}

/// A reproducible G(n, p) edge list.
fn gnp_edges(n: u32, p: f64, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .filter(|_| rng.gen_bool(p))
        .collect()
}

#[test]
fn chaos_off_server_exports_the_golden_key_set() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.len(), KEYS.len(), "no key repeats");
    assert_eq!(sorted_keys(&stats), KEYS);
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn chaos_on_server_adds_exactly_the_chaos_keys() {
    let cfg = ServeConfig {
        chaos: Some(ChaosPlan::seeded(1)),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect_with_retry(server.addr(), RetryPolicy::seeded(1)).unwrap();
    let stats = client.stats().expect("stats under chaos");
    let mut want: Vec<&str> = KEYS.iter().chain(&CHAOS_KEYS).copied().collect();
    want.sort_unstable();
    assert_eq!(stats.len(), 68, "no key repeats");
    assert_eq!(sorted_keys(&stats), want);
    server.join();
}

#[test]
fn scripted_connection_pins_every_counter() {
    let cfg = ServeConfig {
        admission: AdmissionConfig {
            max_predicted_ops: Some(1e6),
            ..AdmissionConfig::default()
        },
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let edges = gnp_edges(60, 0.2, 0x57A7);
    client.register_graph("g", 60, &edges).unwrap();
    client
        .list(ListParams::new("g", "T1", "desc", "paper"))
        .unwrap();
    client
        .count(ListParams::new("g", "E1", "desc", "adaptive"))
        .unwrap();
    client.list(ListParams::new("g", "", "", "")).unwrap();
    client.predict("g", "T1", "desc").unwrap();
    client.explain_plan("g").unwrap();
    client.remove_edges("g", &edges[..2]).unwrap();
    client.add_edges("g", &edges[..2]).unwrap();
    let fresh = client
        .list_new(DeltaParams::new("g", 1, DeltaParams::LATEST))
        .unwrap();
    assert_eq!(fresh.new_edges, 2);
    // A complete graph on 300 nodes prices far above the ceiling.
    let dense: Vec<(u32, u32)> = (0..300u32)
        .flat_map(|u| (u + 1..300).map(move |v| (u, v)))
        .collect();
    client.register_graph("dense", 300, &dense).unwrap();
    match client.list(ListParams::new("dense", "T1", "desc", "paper")) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::RejectedCost),
        other => panic!("expected a price rejection, got {other:?}"),
    }
    let stats: BTreeMap<String, u64> = client.stats().unwrap().into_iter().collect();
    let want: [(&str, u64); 35] = [
        ("requests_total", 12),
        ("requests_register", 2),
        ("requests_list", 3),
        ("requests_count", 1),
        ("requests_add_edges", 1),
        ("requests_remove_edges", 1),
        ("requests_list_new", 1),
        ("requests_predict", 1),
        ("requests_explain", 1),
        ("requests_stats", 1),
        ("requests_shutdown", 0),
        ("responses_error", 1),
        ("accept_errors", 0),
        ("admission_admitted", 4),
        ("admission_queued", 0),
        ("admission_rejected_busy", 0),
        ("admission_rejected_cost", 1),
        ("admission_inflight", 0),
        ("admission_degraded_deadline", 0),
        ("admission_degraded_evict", 0),
        ("cache_hits", 3),
        ("cache_misses", 3),
        ("cache_evictions", 0),
        ("cache_cold_evictions", 0),
        ("cache_entries", 3),
        ("plans_cached", 1),
        ("graphs_registered", 2),
        ("delta_runs", 2),
        ("delta_edges", 4),
        ("retained_segments", 0),
        ("epoch_pins", 0),
        ("compactions", 0),
        ("recorder_plan_pick", 1),
        ("recorder_serve_degradations", 0),
        ("recorder_chaos_injections", 0),
    ];
    let got: Vec<(&str, u64)> = want.iter().map(|&(k, _)| (k, stats[k])).collect();
    assert_eq!(got, want);
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn bad_resume_tokens_are_rejected_before_prepare_or_admission() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .register_graph("g", 60, &gnp_edges(60, 0.2, 0x7E5))
        .unwrap();
    let e4_token = ResumePoint::new(WorkDomain::Listing(Method::E4), 60, 0, vec![(0, 0..60)])
        .unwrap()
        .to_string();
    let list = |method: &str, resume: &str| ListParams {
        resume: resume.to_string(),
        ..ListParams::new("g", method, "desc", "adaptive")
    };
    let delta = DeltaParams {
        resume: "not a token".to_string(),
        ..DeltaParams::new("g", 0, DeltaParams::LATEST)
    };
    let answers = [
        client.list(list("E1", "not a token")).map(drop),
        client.list(list("E1", &e4_token)).map(drop),
        client.list_new(delta).map(drop),
    ];
    for answer in answers {
        match answer {
            Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::BadRequest),
            other => panic!("expected a bad-request answer, got {other:?}"),
        }
    }
    let stats: BTreeMap<String, u64> = client.stats().unwrap().into_iter().collect();
    assert_eq!(stats["admission_admitted"], 0);
    assert_eq!(stats["cache_misses"], 0);
    client.shutdown().unwrap();
    server.join();
}
