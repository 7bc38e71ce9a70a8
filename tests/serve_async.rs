//! Pipelining and connection-state suite for the event loop: a
//! pipelined batch on one connection answers in order, byte-identical
//! to issuing the same requests sequentially; priced requests pipelined
//! on one connection compete for admission slots; the shutdown gate
//! applies in frame order; short headers wait for bytes; framing
//! violations answer the codec's own error once, then close; and a
//! drain is bounded even when a peer never reads its answers. (The
//! request-matrix and resume-chain differentials against a socket-free
//! reference live in `trilist-serve`'s own tests.)

use rand::SeedableRng;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use trilist::graph::dist::{sample_degree_sequence, DiscretePareto, Truncated, Truncation};
use trilist::graph::gen::{GraphGenerator, ResidualSampler};
use trilist::graph::Graph;
use trilist::serve::{
    encode_frame, read_frame, scan_frame, Client, ErrorCode, ErrorFrame, ListParams, Request,
    Response, ServeConfig, Server, ServerHandle,
};

/// A reproducible Pareto α = 1.5 graph with plenty of triangles.
fn pareto_graph(n: usize, seed: u64) -> Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let dist = Truncated::new(DiscretePareto::paper_beta(1.5), Truncation::Root.t_n(n));
    let (seq, _) = sample_degree_sequence(&dist, n, &mut rng);
    ResidualSampler.generate(&seq, &mut rng).graph
}

fn bind() -> ServerHandle {
    Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind")
}

/// A frame-level client: raw bytes out, raw frames back — so the tests
/// compare exactly what went over the wire.
struct RawClient {
    stream: TcpStream,
}

impl RawClient {
    fn connect(addr: std::net::SocketAddr) -> RawClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        RawClient { stream }
    }

    fn send_bytes(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write");
        self.stream.flush().expect("flush");
    }

    fn send(&mut self, req: &Request) {
        self.send_bytes(&encode_frame(req.kind(), &req.payload()));
    }

    /// One whole response frame, as canonical bytes.
    fn recv_frame(&mut self) -> Vec<u8> {
        let (kind, body) = read_frame(&mut self.stream).expect("response frame");
        encode_frame(kind, &body)
    }

    fn recv(&mut self) -> Response {
        let (kind, body) = read_frame(&mut self.stream).expect("response frame");
        Response::decode(kind, &body).expect("well-formed response")
    }

    /// The stream must be at EOF (the server closed it).
    fn expect_eof(&mut self) {
        assert!(
            read_frame(&mut self.stream).is_err(),
            "expected the server to close the connection"
        );
    }
}

fn k4_edges() -> Vec<(u32, u32)> {
    vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
}

#[test]
fn pipelined_batch_answers_in_order_and_matches_sequential_issue() {
    let g = pareto_graph(500, 0x9199);
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let n = g.n() as u32;

    // Warm every (graph, family) the batch touches so cache_hit flags
    // cannot depend on which concurrent request prepares first.
    let warm = |client: &mut Client| {
        client.register_graph("g", n, &edges).expect("register");
        for (m, f) in [("T1", "desc"), ("T2", "desc"), ("E1", "asc"), ("E4", "crr")] {
            client
                .count(ListParams::new("g", m, f, "paper"))
                .expect("warm");
        }
    };

    let batch: Vec<Request> = vec![
        Request::List(ListParams::new("g", "T1", "desc", "paper")),
        Request::Count(ListParams::new("g", "T2", "desc", "adaptive")),
        Request::ModelPredict {
            graph: "g".into(),
            method: "T1".into(),
            family: "desc".into(),
        },
        Request::Stats,
        Request::List(ListParams::new("g", "E1", "asc", "adaptive")),
        // A Register mid-pipeline is a barrier: the List behind it must
        // see the graph.
        Request::RegisterGraph {
            name: "h".into(),
            n: 4,
            edges: k4_edges(),
        },
        Request::List(ListParams::new("h", "T1", "desc", "paper")),
        Request::Count(ListParams::new("g", "E4", "crr", "paper")),
        Request::List(ListParams::new("g", "T1", "desc", "wat")), // error in place
        Request::Stats,
    ];

    // Pipelined: everything written before anything is read.
    let server = bind();
    let mut client = Client::connect(server.addr()).expect("connect");
    warm(&mut client);
    let pipelined = client.pipeline(&batch).expect("pipelined batch");
    client.shutdown().expect("shutdown");
    server.join();

    // Sequential: same requests, fresh identically-warmed server.
    let server = bind();
    let mut client = Client::connect(server.addr()).expect("connect");
    warm(&mut client);
    let sequential: Vec<Response> = batch
        .iter()
        .map(|req| client.call(req).expect("sequential call"))
        .collect();
    client.shutdown().expect("shutdown");
    server.join();

    assert_eq!(pipelined.len(), batch.len());
    for (i, (p, s)) in pipelined.iter().zip(&sequential).enumerate() {
        if matches!(batch[i], Request::Stats) {
            // Stats bodies carry timing counters; only the shape and
            // in-order position are deterministic.
            assert!(
                matches!(p, Response::StatsResult(_)) && matches!(s, Response::StatsResult(_)),
                "request #{i}: both issues answer Stats in position"
            );
        } else {
            assert_eq!(p, s, "request #{i} ({:?}) answered differently", batch[i]);
        }
    }
    match &pipelined[8] {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest),
        other => panic!("unknown policy must error in place, got {other:?}"),
    }
}

#[test]
fn pipelined_priced_requests_execute_concurrently_and_shed_busy() {
    // max_inflight=1, max_queue=0: the second of two pipelined Counts is
    // shed busy while the first still runs — structural proof that
    // execution is decoupled from the connection, and that a
    // connection's own pipelined requests compete for admission slots.
    let g = pareto_graph(3000, 0xB059);
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let mut cfg = ServeConfig::default();
    cfg.admission.max_inflight = 1;
    cfg.admission.max_queue = 0;
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .register_graph("g", g.n() as u32, &edges)
        .expect("register");
    client
        .count(ListParams::new("g", "T2", "desc", "paper"))
        .expect("warm the prepared cache");
    let params = ListParams::new("g", "T2", "desc", "paper");
    let responses = client
        .pipeline(&[
            Request::Count(params.clone()),
            Request::Count(params.clone()),
        ])
        .expect("pipelined counts");
    assert!(
        matches!(responses[0], Response::CountResult(_)),
        "first count runs: got {:?}",
        responses[0]
    );
    match &responses[1] {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::RejectedBusy);
            assert_eq!(e.message, "busy: 1 in flight and 0 queued");
        }
        other => panic!("second count must be shed busy, got {other:?}"),
    }
    // The express lane is not behind the priced lane: a Predict pipelined
    // after a shed still answers (and a Stats answers inline).
    let more = client
        .pipeline(&[
            Request::ModelPredict {
                graph: "g".into(),
                method: "T2".into(),
                family: "desc".into(),
            },
            Request::Stats,
        ])
        .expect("express batch");
    assert!(matches!(more[0], Response::Predicted { .. }));
    assert!(matches!(more[1], Response::StatsResult(_)));
    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn shutdown_gate_applies_in_frame_order() {
    let server = bind();
    let mut c = RawClient::connect(server.addr());
    // One write: [Register, List, Shutdown, List]. The first List
    // precedes the Shutdown frame, so it must be answered; the second
    // follows it, so it must be rejected.
    let reqs = [
        Request::RegisterGraph {
            name: "k".into(),
            n: 4,
            edges: k4_edges(),
        },
        Request::List(ListParams::new("k", "T1", "desc", "paper")),
        Request::Shutdown,
        Request::List(ListParams::new("k", "T1", "desc", "paper")),
    ];
    let mut bytes = Vec::new();
    for req in &reqs {
        bytes.extend_from_slice(&encode_frame(req.kind(), &req.payload()));
    }
    c.send_bytes(&bytes);
    assert!(matches!(c.recv(), Response::Registered { n: 4, m: 6 }));
    match c.recv() {
        Response::ListResult(run) => assert_eq!(run.cost.triangles, 4),
        other => panic!("List before Shutdown runs, got {other:?}"),
    }
    assert!(matches!(c.recv(), Response::ShutdownAck));
    match c.recv() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::ShuttingDown),
        other => panic!("List after Shutdown gated, got {other:?}"),
    }
    server.join();
}

#[test]
fn short_headers_wait_for_bytes_instead_of_erroring() {
    // Regression for the frame-length parse: a 3-byte header (or any
    // partial delivery, down to one byte at a time) is "not yet a
    // frame", never a protocol error or a panic.
    let server = bind();
    let mut c = RawClient::connect(server.addr());
    let frame = encode_frame(Request::Stats.kind(), &Request::Stats.payload());
    c.send_bytes(&frame[..3]); // 3 bytes of the length prefix
    std::thread::sleep(std::time::Duration::from_millis(60));
    c.send_bytes(&frame[3..]);
    assert!(
        matches!(c.recv(), Response::StatsResult(_)),
        "split header still answers"
    );
    // Byte-at-a-time delivery of a whole request.
    for b in &frame {
        c.send_bytes(std::slice::from_ref(b));
    }
    assert!(
        matches!(c.recv(), Response::StatsResult(_)),
        "byte-at-a-time delivery still answers"
    );
    drop(c);
    server.join();
}

#[test]
fn framing_violations_answer_the_codec_error_once_then_close() {
    // (name, poisoned bytes): each breaks the stream irrecoverably.
    let oversized = (trilist::serve::MAX_FRAME_BYTES + 1).to_le_bytes();
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("length below header size", vec![1, 0, 0, 0, 1, 5]),
        ("bad version", vec![2, 0, 0, 0, 9, 5]),
        ("oversized length", oversized.to_vec()),
    ];
    for (name, poison) in &cases {
        // The answer is the codec's own verdict on the poison, framed.
        let err = scan_frame(poison).expect_err("poison violates the framing");
        let expected = Response::Error(ErrorFrame::new(ErrorCode::Protocol, err.to_string()));
        let expected = encode_frame(expected.kind(), &expected.payload());

        let server = bind();
        let mut c = RawClient::connect(server.addr());
        // A valid request then the poison, in one write: the valid one
        // answers, the poison draws one typed error, then EOF.
        let mut bytes = encode_frame(Request::Stats.kind(), &Request::Stats.payload());
        bytes.extend_from_slice(poison);
        c.send_bytes(&bytes);
        assert_eq!(c.recv_frame()[5], 0x85, "{name}: StatsResult");
        assert_eq!(c.recv_frame(), expected, "{name}: error frame");
        c.expect_eof();
        server.join();
    }
    // A malformed *body* (valid framing) poisons only its own frame: the
    // connection answers the error and keeps serving.
    let server = bind();
    let mut c = RawClient::connect(server.addr());
    c.send_bytes(&encode_frame(0x02, &[0xFF, 0xFF, 0xFF, 0xFF])); // List with garbage params
    match c.recv() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::Protocol),
        other => panic!("wanted protocol error, got {other:?}"),
    }
    c.send(&Request::Stats);
    assert!(
        matches!(c.recv(), Response::StatsResult(_)),
        "connection survives a bad body"
    );
    // An unknown kind byte is also only a per-frame error.
    c.send_bytes(&encode_frame(0x7E, &[]));
    match c.recv() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::Protocol),
        other => panic!("unknown kind errors, got {other:?}"),
    }
    c.send(&Request::Stats);
    assert!(matches!(c.recv(), Response::StatsResult(_)));
    drop(c);
    server.join();
}

#[test]
fn drain_is_bounded_when_a_peer_never_reads() {
    // K_100 lists 161 700 triangles: ~1.9 MB per answer, so twelve
    // answers overflow any loopback socket buffer many times over.
    let n = 100u32;
    let edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .collect();
    let server = bind();
    let mut admin = Client::connect(server.addr()).expect("connect");
    admin.register_graph("k", n, &edges).expect("register");
    let requests = 12;
    let mut bytes = Vec::new();
    for _ in 0..requests {
        let req = Request::List(ListParams::new("k", "T1", "desc", "paper"));
        bytes.extend_from_slice(&encode_frame(req.kind(), &req.payload()));
    }
    // The hog writes every request and never reads an answer.
    let mut hog = RawClient::connect(server.addr());
    hog.send_bytes(&bytes);
    // Wait until the server has taken every request on, so the drain
    // must finish them rather than gate them.
    let listed = |c: &mut Client| {
        let stats = c.stats().expect("stats");
        stats.iter().find(|(k, _)| k == "requests_list").unwrap().1
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while listed(&mut admin) < requests {
        assert!(Instant::now() < deadline, "the server never read the batch");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(admin);
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        let _ = done_tx.send(());
    });
    // Drain grace is 1 s; the answers still executing may take a few
    // more on a slow debug build.
    assert!(
        done_rx.recv_timeout(Duration::from_secs(20)).is_ok(),
        "join blocked on a peer that never reads"
    );
    drop(hog);
}
