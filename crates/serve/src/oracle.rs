//! A socket-free reference for the event loop, and the differentials
//! that hold the event loop to it.
//!
//! [`Oracle`] runs bytes through the same request core the event loop
//! uses — `scan_frame` → `Request::decode` → `classify` →
//! `execute_guarded` → `encode_frame` — one frame at a time on the
//! calling thread: no socket, no lanes, no pipelining. Whatever the event
//! loop adds (readiness, backpressure, sequence-ordered flushing, the
//! executor) must leave the frames it answers byte-identical to these.

use crate::protocol::{
    decode_frame, encode_frame, read_frame, scan_frame, DeltaParams, ErrorCode, ErrorFrame,
    ListParams, Request, Response,
};
use crate::server::{classify, execute_guarded, Dispatch, ServeConfig, Server, Shared};
use crate::store::CompactorHandle;
use rand::SeedableRng;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use trilist_graph::dist::{sample_degree_sequence, DiscretePareto, Truncated, Truncation};
use trilist_graph::gen::{GraphGenerator, ResidualSampler};
use trilist_graph::Graph;

/// One connection's worth of the request core, answered in place.
struct Oracle {
    shared: Arc<Shared>,
    _compactor: CompactorHandle,
    acc: Vec<u8>,
    next_seq: u64,
    closed: bool,
}

impl Oracle {
    fn new(cfg: ServeConfig) -> Oracle {
        let (shared, compactor) = Shared::new(cfg);
        Oracle {
            shared,
            _compactor: compactor,
            acc: Vec::new(),
            next_seq: 0,
            closed: false,
        }
    }

    /// Appends `bytes` and answers every frame they complete, in frame
    /// order. A framing violation answers once and closes: nothing after
    /// it is parsed.
    fn feed(&mut self, bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        if self.closed {
            return frames;
        }
        self.acc.extend_from_slice(bytes);
        while !self.closed {
            let resp = match scan_frame(&self.acc) {
                Ok(None) => break,
                Ok(Some((kind, total))) => {
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    let resp = match Request::decode(kind, &self.acc[6..total]) {
                        Ok(req) => match classify(&self.shared, req) {
                            Dispatch::Inline(resp) => resp,
                            Dispatch::Express(req) | Dispatch::Priced(req) => {
                                execute_guarded(&self.shared, 0, seq, req)
                            }
                        },
                        Err(e) => {
                            Response::Error(ErrorFrame::new(ErrorCode::Protocol, e.to_string()))
                        }
                    };
                    self.acc.drain(..total);
                    resp
                }
                Err(e) => {
                    self.closed = true;
                    Response::Error(ErrorFrame::new(ErrorCode::Protocol, e.to_string()))
                }
            };
            frames.push(encode_frame(resp.kind(), &resp.payload()));
        }
        frames
    }

    /// One request, one response frame.
    fn call(&mut self, req: &Request) -> Vec<u8> {
        let mut frames = self.feed(&encode_frame(req.kind(), &req.payload()));
        assert_eq!(frames.len(), 1, "one request answers one frame");
        frames.remove(0)
    }
}

/// A frame-level client of a live server: one request out, the raw
/// response frame back.
fn wire_call(stream: &mut TcpStream, req: &Request) -> Vec<u8> {
    stream
        .write_all(&encode_frame(req.kind(), &req.payload()))
        .expect("write");
    let (kind, body) = read_frame(stream).expect("response frame");
    encode_frame(kind, &body)
}

/// A reproducible Pareto α = 1.5 graph with plenty of triangles.
fn pareto_graph(n: usize, seed: u64) -> Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let dist = Truncated::new(DiscretePareto::paper_beta(1.5), Truncation::Root.t_n(n));
    let (seq, _) = sample_degree_sequence(&dist, n, &mut rng);
    ResidualSampler.generate(&seq, &mut rng).graph
}

fn register(name: &str, g: &Graph) -> Request {
    Request::RegisterGraph {
        name: name.into(),
        n: g.n() as u32,
        edges: g.edges().collect(),
    }
}

/// Two epochs of edits: `g`'s first `k` edges removed, then added back,
/// so the window from epoch 1 lists the triangles they close.
fn edits(g: &Graph, k: usize) -> [Request; 2] {
    let edges: Vec<(u32, u32)> = g.edges().take(k).collect();
    let graph = "g".to_string();
    [
        Request::RemoveEdges {
            graph: graph.clone(),
            edges: edges.clone(),
        },
        Request::AddEdges { graph, edges },
    ]
}

/// The deterministic request matrix: registration, every fundamental
/// method under both kernel policies (list + count), predictions, edits
/// and the new-triangle windows they open, and one of every error class
/// the server can produce.
fn matrix_script(g: &Graph) -> Vec<Request> {
    let mut script = vec![register("g", g)];
    for (method, family) in [("T1", "desc"), ("T2", "desc"), ("E1", "asc"), ("E4", "crr")] {
        for policy in ["paper", "adaptive"] {
            let params = ListParams {
                threads: 2,
                ..ListParams::new("g", method, family, policy)
            };
            script.push(Request::List(params.clone()));
            script.push(Request::Count(params));
        }
        script.push(Request::ModelPredict {
            graph: "g".into(),
            method: method.into(),
            family: family.into(),
        });
    }
    script.extend(edits(g, 6));
    for (from, to) in [(1, DeltaParams::LATEST), (0, 1), (0, 2)] {
        script.push(Request::ListNewTriangles(DeltaParams {
            threads: 2,
            ..DeltaParams::new("g", from, to)
        }));
    }
    // Every error class, deterministically:
    script.push(Request::List(ListParams::new("g", "T9", "desc", "paper")));
    script.push(Request::List(ListParams::new("g", "T1", "zig", "paper")));
    script.push(Request::List(ListParams::new("g", "T1", "desc", "magic")));
    script.push(Request::List(ListParams::new(
        "nope", "T1", "desc", "paper",
    )));
    script.push(Request::ModelPredict {
        graph: "nope".into(),
        method: "T1".into(),
        family: "desc".into(),
    });
    script.push(Request::RegisterGraph {
        name: "bad".into(),
        n: 2,
        edges: vec![(0, 7)], // endpoint out of range
    });
    script.push(Request::List(ListParams {
        resume: "not a resume token".into(),
        ..ListParams::new("g", "T1", "desc", "paper")
    }));
    script.push(Request::List(ListParams {
        resume: "trilist-resume v1 E4 n=10 0:0-10".into(),
        ..ListParams::new("g", "T1", "desc", "paper") // token names E4
    }));
    script.push(Request::ListNewTriangles(DeltaParams {
        resume: "trilist-resume v1 T1 n=10 0:0-10".into(),
        ..DeltaParams::new("g", 0, DeltaParams::LATEST) // a listing token
    }));
    script.push(Request::ListNewTriangles(DeltaParams::new("g", 0, 9)));
    script
}

/// Bytes that break the framing for good (a bad protocol version).
const POISON: [u8; 6] = [2, 0, 0, 0, 9, 5];

#[test]
fn event_loop_answers_the_request_matrix_like_the_oracle() {
    let script = matrix_script(&pareto_graph(500, 0xA51C));
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut wire: Vec<Vec<u8>> = script.iter().map(|r| wire_call(&mut stream, r)).collect();
    // The script ends in a framing violation: one error frame, then EOF.
    stream.write_all(&POISON).expect("write");
    let (kind, body) = read_frame(&mut stream).expect("error frame");
    wire.push(encode_frame(kind, &body));
    assert!(read_frame(&mut stream).is_err(), "the server closes");
    drop(stream);
    server.join();

    let mut oracle = Oracle::new(ServeConfig::default());
    let mut reference: Vec<Vec<u8>> = script.iter().map(|r| oracle.call(r)).collect();
    reference.extend(oracle.feed(&POISON));
    assert!(oracle.feed(&POISON).is_empty(), "the oracle closes");

    assert_eq!(wire.len(), reference.len());
    for (i, (w, r)) in wire.iter().zip(&reference).enumerate() {
        let what = script
            .get(i)
            .map_or("the framing violation".into(), |r| format!("{r:?}"));
        assert_eq!(w, r, "request #{i} ({what}) answered differently");
    }
    let windows = wire.iter().filter(|f| f[5] == 0x89).count();
    assert_eq!(windows, 3, "every window answers a NewTrianglesResult");
    // And at least one of each class actually appeared.
    let errors = wire.iter().filter(|f| f[5] == 0xFF).count();
    assert_eq!(errors, 11, "ten request errors, then the framing error");
}

/// Builds a chain's next request from its resume token and memory
/// ceiling.
type Step = dyn Fn(String, u64) -> Request;

/// Drives a budget-interrupted resume chain through `call`: the `setup`
/// requests (registration, edits), then `step(resume, memory_bytes)`
/// until a result completes. A 1-byte memory ceiling interrupts
/// deterministically (cache residency already exceeds it), and each
/// follow-up carries the previous token. Returns every frame.
fn run_chain(
    call: &mut dyn FnMut(&Request) -> Vec<u8>,
    setup: &[Request],
    step: &Step,
) -> Vec<Vec<u8>> {
    let mut frames: Vec<Vec<u8>> = setup.iter().map(&mut *call).collect();
    let (mut resume, mut memory_bytes) = (String::new(), 1); // always exhausted
    loop {
        let frame = call(&step(resume, memory_bytes));
        let (kind, body) = decode_frame(&frame).expect("frame");
        let run = match Response::decode(kind, body).expect("response") {
            Response::ListResult(run) => run,
            Response::NewTrianglesResult(delta) => delta.result,
            other => panic!("wanted a run result, got {other:?}"),
        };
        frames.push(frame);
        if run.complete {
            return frames;
        }
        assert_eq!(run.stop_reason, "memory budget exhausted");
        assert!(!run.resume.is_empty(), "partial result carries a token");
        memory_bytes = 0; // let the rest of the chain run
        resume = run.resume;
    }
}

#[test]
fn interrupted_resume_chains_match_the_oracle() {
    let g = pareto_graph(700, 0xC4A1);
    let listing = |method: &'static str, family: &'static str| {
        move |resume, memory_bytes| {
            Request::List(ListParams {
                threads: 2,
                memory_bytes,
                resume,
                ..ListParams::new("g", method, family, "paper")
            })
        }
    };
    let delta = |resume, memory_bytes| {
        Request::ListNewTriangles(DeltaParams {
            threads: 2,
            memory_bytes,
            resume,
            ..DeltaParams::new("g", 1, DeltaParams::LATEST)
        })
    };
    let [removed, added] = edits(&g, 40);
    let chains: [(&str, Vec<Request>, &Step); 3] = [
        ("T1", vec![register("g", &g)], &listing("T1", "desc")),
        ("E4", vec![register("g", &g)], &listing("E4", "crr")),
        ("delta", vec![register("g", &g), removed, added], &delta),
    ];
    for (name, setup, step) in chains {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let wire = run_chain(&mut |r| wire_call(&mut stream, r), &setup, step);
        drop(stream);
        server.join();
        let mut oracle = Oracle::new(ServeConfig::default());
        let reference = run_chain(&mut |r| oracle.call(r), &setup, step);
        assert!(
            wire.len() >= setup.len() + 2,
            "{name}: setup + at least two chain responses"
        );
        assert_eq!(wire, reference, "{name}: resume chain diverged");
    }
}
