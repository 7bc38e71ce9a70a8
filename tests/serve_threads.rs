//! The server's thread bound: the event loop, the store's compactor, two
//! express-lane workers and one priced-lane worker per admission slot
//! (`max_inflight`), however long the wait queue (`max_queue`) is. Queued
//! requests wait as jobs in the priced lane, not as blocked threads.
//!
//! One test per file: the count is read from `/proc/self/status`, so no
//! other test may start or stop threads in this process meanwhile.

use rand::SeedableRng;
use trilist::graph::dist::{sample_degree_sequence, DiscretePareto, Truncated, Truncation};
use trilist::graph::gen::{GraphGenerator, ResidualSampler};
use trilist::serve::{AdmissionConfig, Client, ListParams, Request, Response, ServeConfig, Server};

/// Threads of this process right now.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn priced_lane_starts_one_worker_per_slot_whatever_the_queue_bound() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7EAD);
    let dist = Truncated::new(DiscretePareto::paper_beta(1.5), Truncation::Root.t_n(400));
    let (seq, _) = sample_degree_sequence(&dist, 400, &mut rng);
    let g = ResidualSampler.generate(&seq, &mut rng).graph;
    let edges: Vec<(u32, u32)> = g.edges().collect();
    // loop + compactor + 2 express + max_inflight priced
    let expected = 1 + 1 + 2 + 2;

    let before = threads();
    let cfg = ServeConfig {
        workers: 1,
        admission: AdmissionConfig {
            max_inflight: 2,
            max_queue: 32,
            max_predicted_ops: None,
        },
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    // the executor starts on the loop thread, so count after an answer
    client
        .register_graph("g", g.n() as u32, &edges)
        .expect("register");
    assert_eq!(
        threads() - before,
        expected,
        "threads after the first answer"
    );

    let params = ListParams {
        threads: 1,
        ..ListParams::new("g", "T2", "desc", "paper")
    };
    let burst = vec![Request::Count(params); 8];
    let answers = client.pipeline(&burst).expect("pipelined counts");
    assert!(
        answers
            .iter()
            .all(|r| matches!(r, Response::CountResult(run) if run.complete)),
        "every count of the burst is admitted and completes: {answers:?}"
    );
    assert_eq!(threads() - before, expected, "threads after the burst");

    client.shutdown().expect("shutdown");
    server.join();
}
