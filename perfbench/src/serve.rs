//! The serve workloads: an in-process `Server::bind` with the shipped
//! default configuration, driven by a closed loop from two client
//! connections (one request outstanding each, no think time).

use crate::catalog::{Values, CHURN_SHAPES, KERNEL_KINDS, MIX_SHAPES};
use crate::graphs::{self, TriDigest};
use crate::report::{self, median, Outcome};
use crate::sys::{self, MIB};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use trilist_core::Method;
use trilist_graph::Graph;
use trilist_model::price_request;
use trilist_order::OrderFamily;
use trilist_serve::{
    encode_frame, prepare_graph, prepare_seed_at, read_frame, DeltaParams, ListParams, Request,
    Response, ServeConfig, Server, ServerHandle, StoreConfig,
};

/// Client connections of the closed loop.
pub const CONNS: usize = 2;
/// Set-ups per run, at least and at most; `setup_s` is their median.
/// Between the two, set-ups repeat until they add up to
/// [`SETUP_BUDGET_S`], so a cheap set-up gets more samples.
const SETUP_REPS: (usize, usize) = (9, 60);
const SETUP_BUDGET_S: f64 = 0.5;
/// Edges per churn edit batch.
const CHURN_K: usize = 16;
/// Window responses per connection kept whole for the answer check and
/// the replay comparison.
pub const RECORDED: u64 = 16;
/// Seconds per slice of the timed window; the end-to-end rates and
/// medians are taken per slice.
const SLICE_S: f64 = 1.0;

/// What a serve workload runs against.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Nodes per generated graph.
    pub n: usize,
    /// Edit churn (one graph per connection) instead of the read mix.
    pub churn: bool,
    /// Requests per connection replayed in-process.
    pub replay: u64,
}

pub const MIX_SMALL: Spec = Spec {
    n: 1500,
    churn: false,
    replay: 96,
};
pub const MIX_LARGE: Spec = Spec {
    n: 20_000,
    churn: false,
    replay: 24,
};
pub const EDIT_CHURN: Spec = Spec {
    n: 5000,
    churn: true,
    replay: 100,
};

/// One registered graph and its reference answers.
pub struct Input {
    pub name: String,
    pub graph: Graph,
    pub edges: Vec<(u32, u32)>,
    pub reference: TriDigest,
    /// `(per_node, total_ops)` of `predict T1/desc`, bit-exact.
    pub predict: (f64, f64),
}

/// The generated inputs of one run.
pub struct Env {
    pub spec: Spec,
    pub seed: u64,
    pub inputs: Vec<Input>,
}

impl Env {
    pub fn new(spec: Spec, seed: u64, wrong_reference: bool) -> Env {
        let count = if spec.churn { CONNS } else { 1 };
        let inputs = (0..count)
            .map(|i| {
                let name = if spec.churn {
                    format!("churn{i}")
                } else {
                    "mix".to_string()
                };
                let graph = graphs::workload_graph(spec.n, seed, 0x6772_6170 + i as u64);
                let edges: Vec<(u32, u32)> = graph.edges().collect();
                let mut reference = graphs::reference(&graph);
                if wrong_reference {
                    reference.count += 1;
                }
                let prep_seed =
                    prepare_seed_at(StoreConfig::default().prepare_seed, &name, "desc", 0);
                let prepared = prepare_graph(&graph, OrderFamily::Descending, prep_seed);
                let price = price_request(Method::T1, &prepared.degrees_by_label);
                Input {
                    name,
                    graph,
                    edges,
                    reference,
                    predict: (price.per_node, price.total_ops),
                }
            })
            .collect();
        Env { spec, seed, inputs }
    }

    pub fn shapes(&self) -> &'static [&'static str] {
        if self.spec.churn {
            &CHURN_SHAPES
        } else {
            &MIX_SHAPES
        }
    }

    /// Requests each connection sends before its timed window.
    pub fn warmup(&self) -> u64 {
        2 * self.shapes().len() as u64
    }
}

/// What a correct answer to one request looks like.
#[derive(Clone, Debug)]
pub enum Expect {
    Triangles {
        digest: TriDigest,
        list: bool,
    },
    NewTriangles {
        digest: TriDigest,
        to_epoch: u64,
    },
    Predict {
        per_node: f64,
        total_ops: f64,
        n: u64,
    },
    Stats,
    Edit {
        epoch: u64,
        applied: u64,
        m: u64,
    },
}

/// One generated request.
pub struct Req {
    pub shape: usize,
    pub request: Request,
    pub expect: Expect,
}

impl Req {
    pub fn is_read(&self) -> bool {
        matches!(
            self.expect,
            Expect::Triangles { .. } | Expect::NewTriangles { .. }
        )
    }

    pub fn is_write(&self) -> bool {
        matches!(self.expect, Expect::Edit { .. })
    }
}

fn list_params(graph: &str, shape: &str) -> ListParams {
    // "list.T1.desc.paper" → method, family, policy; "list.plan" leaves
    // all three blank so the store's plan resolves them
    let parts: Vec<&str> = shape.split('.').collect();
    if parts.len() == 4 {
        ListParams::new(graph, parts[1], parts[2], parts[3])
    } else {
        ListParams::new(graph, "", "", "")
    }
}

/// The churn batch of connection `conn`'s cycle `cycle`.
pub fn churn_batch(env: &Env, conn: usize, cycle: u64) -> Vec<(u32, u32)> {
    let salt = 0x6368_7572_0000_0000 ^ ((conn as u64) << 40) ^ cycle;
    graphs::sample_edges(
        &env.inputs[conn].edges,
        CHURN_K,
        graphs::derive(env.seed, salt),
    )
}

/// Request `i` of connection `conn`: a pure function of the seed, so the
/// replay can regenerate any prefix.
pub fn request(env: &Env, conn: usize, i: u64) -> Req {
    if env.spec.churn {
        churn_request(env, conn, i)
    } else {
        mix_request(env, conn, i)
    }
}

fn mix_request(env: &Env, conn: usize, i: u64) -> Req {
    // connections start half a mix apart, so both cover every shape
    let shape = ((i + 4 * conn as u64) % MIX_SHAPES.len() as u64) as usize;
    let name = MIX_SHAPES[shape];
    let input = &env.inputs[0];
    let g = input.name.as_str();
    let tri = |list| Expect::Triangles {
        digest: input.reference,
        list,
    };
    let (request, expect) = match name {
        "predict.T1.desc" => (
            Request::ModelPredict {
                graph: g.to_string(),
                method: "T1".into(),
                family: "desc".into(),
            },
            Expect::Predict {
                per_node: input.predict.0,
                total_ops: input.predict.1,
                n: input.graph.n() as u64,
            },
        ),
        "stats" => (Request::Stats, Expect::Stats),
        s if s.starts_with("list") => (Request::List(list_params(g, s)), tri(true)),
        s => (Request::Count(list_params(g, s)), tri(false)),
    };
    Req {
        shape,
        request,
        expect,
    }
}

fn churn_request(env: &Env, conn: usize, i: u64) -> Req {
    let steps = CHURN_SHAPES.len() as u64;
    let (cycle, step) = (i / steps, (i % steps) as usize);
    let input = &env.inputs[conn];
    let g = input.name.clone();
    let m = input.edges.len() as u64;
    // cycle j removes a batch (epoch 2j+1) and adds it back (epoch 2j+2),
    // so every read sees the registered graph again
    let (request, expect) = match CHURN_SHAPES[step] {
        "edit.remove" => (
            Request::RemoveEdges {
                graph: g,
                edges: churn_batch(env, conn, cycle),
            },
            Expect::Edit {
                epoch: 2 * cycle + 1,
                applied: CHURN_K as u64,
                m: m - CHURN_K as u64,
            },
        ),
        "edit.add" => (
            Request::AddEdges {
                graph: g,
                edges: churn_batch(env, conn, cycle),
            },
            Expect::Edit {
                epoch: 2 * cycle + 2,
                applied: CHURN_K as u64,
                m,
            },
        ),
        "list_new" => (
            Request::ListNewTriangles(DeltaParams::new(&g, 2 * cycle + 1, DeltaParams::LATEST)),
            Expect::NewTriangles {
                digest: graphs::new_triangles(&input.graph, &churn_batch(env, conn, cycle)),
                to_epoch: 2 * cycle + 2,
            },
        ),
        s if s.starts_with("list") => (
            Request::List(list_params(&g, s)),
            Expect::Triangles {
                digest: input.reference,
                list: true,
            },
        ),
        s => (
            Request::Count(list_params(&g, s)),
            Expect::Triangles {
                digest: input.reference,
                list: false,
            },
        ),
    };
    Req {
        shape: step,
        request,
        expect,
    }
}

/// Checks one answer. `full` also compares the triangle set against the
/// reference (linear in the answer, so it runs outside the window).
/// Returns the paper operations the answer reports.
pub fn check(expect: &Expect, kind: u8, body: &[u8], full: bool) -> Result<u64, String> {
    let resp = Response::decode(kind, body).map_err(|e| format!("protocol: {e}"))?;
    let tri = |res: &trilist_serve::RunResult, digest: &TriDigest, list: bool| {
        if !res.complete {
            return Err("partial result".to_string());
        }
        if res.cost.triangles != digest.count {
            return Err(format!(
                "{} triangles, reference says {}",
                res.cost.triangles, digest.count
            ));
        }
        if list {
            if res.triangles.len() as u64 != digest.count {
                return Err(format!("{} triangles listed", res.triangles.len()));
            }
            if full && TriDigest::of(&res.triangles) != *digest {
                return Err("listed triangles differ from the reference set".into());
            }
        }
        Ok(res.cost.operations())
    };
    match (expect, &resp) {
        (_, Response::Error(e)) => Err(format!("server {}: {}", e.code, e.message)),
        (Expect::Triangles { digest, list: true }, Response::ListResult(r)) => tri(r, digest, true),
        (
            Expect::Triangles {
                digest,
                list: false,
            },
            Response::CountResult(r),
        ) => tri(r, digest, false),
        (Expect::NewTriangles { digest, to_epoch }, Response::NewTrianglesResult(r)) => {
            if r.to_epoch != *to_epoch {
                return Err(format!("window ends at {}, want {to_epoch}", r.to_epoch));
            }
            tri(&r.result, digest, true)
        }
        (
            Expect::Predict {
                per_node,
                total_ops,
                n,
            },
            Response::Predicted {
                per_node: p,
                total_ops: t,
                n: k,
            },
        ) => {
            if p.to_bits() == per_node.to_bits() && t.to_bits() == total_ops.to_bits() && k == n {
                Ok(0)
            } else {
                Err(format!(
                    "prediction {p}/{t}/{k}, reference {per_node}/{total_ops}/{n}"
                ))
            }
        }
        (Expect::Stats, Response::StatsResult(_)) => Ok(0),
        (Expect::Edit { epoch, applied, m }, Response::EditResult(info)) => {
            if (info.epoch, info.applied, info.m) == (*epoch, *applied, *m) {
                Ok(0)
            } else {
                Err(format!(
                    "edit receipt epoch {} applied {} m {}, want {epoch}/{applied}/{m}",
                    info.epoch, info.applied, info.m
                ))
            }
        }
        _ => Err(format!("unexpected response kind {kind:#04x}")),
    }
}

/// A raw protocol connection that keeps response bodies as received.
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn { stream })
    }

    pub fn call(&mut self, req: &Request) -> Result<(u8, Vec<u8>), String> {
        let frame = encode_frame(req.kind(), &req.payload());
        self.stream
            .write_all(&frame)
            .map_err(|e| format!("transport: {e}"))?;
        read_frame(&mut self.stream).map_err(|e| e.to_string())
    }

    pub fn stats(&mut self) -> Result<BTreeMap<String, u64>, String> {
        let (kind, body) = self.call(&Request::Stats)?;
        match Response::decode(kind, &body).map_err(|e| e.to_string())? {
            Response::StatsResult(fields) => Ok(fields.into_iter().collect()),
            _ => Err("wanted StatsResult".into()),
        }
    }
}

/// A running server with its control connection.
pub struct Running {
    pub server: ServerHandle,
    pub control: Conn,
    /// Set-up requests and their answers, for the replay comparison.
    pub setup: Vec<(Request, u8, Vec<u8>)>,
}

/// The set-up requests: register every graph, then one cold prepare per
/// ordering the shapes use, and the plan behind unpinned requests.
pub fn setup_requests(env: &Env) -> Vec<Request> {
    let mut reqs = Vec::new();
    for input in &env.inputs {
        reqs.push(Request::RegisterGraph {
            name: input.name.clone(),
            n: input.graph.n() as u32,
            edges: input.edges.clone(),
        });
    }
    let families: &[&str] = if env.spec.churn {
        &["desc"]
    } else {
        &["desc", "crr", "rr"]
    };
    for input in &env.inputs {
        for f in families {
            reqs.push(Request::ModelPredict {
                graph: input.name.clone(),
                method: "T1".into(),
                family: f.to_string(),
            });
        }
        reqs.push(Request::ExplainPlan {
            graph: input.name.clone(),
        });
    }
    reqs
}

/// Binds a server and runs the set-up; returns it with the seconds taken.
fn start(env: &Env) -> Result<(Running, f64), String> {
    let reqs = setup_requests(env);
    let t0 = Instant::now();
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).map_err(|e| e.to_string())?;
    let mut control = Conn::connect(server.addr()).map_err(|e| e.to_string())?;
    let mut setup = Vec::with_capacity(reqs.len());
    for req in reqs {
        let (kind, body) = control.call(&req)?;
        setup.push((req, kind, body));
    }
    let secs = t0.elapsed().as_secs_f64();
    for (req, kind, body) in &setup {
        if let Ok(Response::Error(e)) = Response::decode(*kind, body) {
            return Err(format!("set-up {:?} failed: {}", req.kind(), e.message));
        }
    }
    Ok((
        Running {
            server,
            control,
            setup,
        },
        secs,
    ))
}

/// Request kinds a sample is grouped by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
    Other,
}

/// One completed window request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub shape: u8,
    pub class: Class,
    pub latency_ns: u64,
    /// Completion time, ns after the window opened.
    pub done_ns: u64,
    /// Paper operations the answer reports.
    pub ops: u64,
}

/// One connection's timed window.
#[derive(Default)]
pub struct ConnLog {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub body_bytes: u64,
    pub errors: Vec<String>,
    /// `(request index, kind, body)` of the first [`RECORDED`] requests.
    pub recorded: Vec<(u64, u8, Vec<u8>)>,
    pub end: Option<Instant>,
}

fn drive(
    env: &Env,
    conn: usize,
    addr: std::net::SocketAddr,
    barrier: &Barrier,
    window: &std::sync::Mutex<(Instant, Instant)>,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut c = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.errors.push(format!("connect: {e}"));
            barrier.wait();
            barrier.wait();
            return log;
        }
    };
    let warm = env.warmup();
    for i in 0..warm {
        let r = request(env, conn, i);
        let res = c
            .call(&r.request)
            .and_then(|(kind, body)| check(&r.expect, kind, &body, true));
        if let Err(e) = res {
            log.errors.push(format!("warm-up request {i}: {e}"));
        }
    }
    barrier.wait(); // warmed up
    barrier.wait(); // window opened
    let (start, deadline) = *window.lock().expect("window lock");
    let mut i = warm;
    while Instant::now() < deadline {
        let r = request(env, conn, i);
        log.attempted += 1;
        let t0 = Instant::now();
        let answer = c.call(&r.request);
        let done = Instant::now();
        match answer {
            Ok((kind, body)) => {
                let ops = match check(&r.expect, kind, &body, false) {
                    Ok(ops) => ops,
                    Err(e) => {
                        log.failed += 1;
                        if log.errors.len() < 8 {
                            log.errors
                                .push(format!("request {i} ({}): {e}", env.shapes()[r.shape]));
                        }
                        0
                    }
                };
                let class = if r.is_read() {
                    Class::Read
                } else if r.is_write() {
                    Class::Write
                } else {
                    Class::Other
                };
                log.samples.push(Sample {
                    shape: r.shape as u8,
                    class,
                    latency_ns: done.duration_since(t0).as_nanos() as u64,
                    done_ns: done.duration_since(start).as_nanos() as u64,
                    ops,
                });
                log.body_bytes += body.len() as u64;
                if i - warm < RECORDED {
                    log.recorded.push((i, kind, body));
                }
            }
            Err(e) => {
                // a broken stream cannot be resynchronized
                log.failed += 1;
                log.errors.push(format!("request {i}: {e}"));
                break;
            }
        }
        i += 1;
    }
    log.end = Some(Instant::now());
    log
}

fn field(stats: &BTreeMap<String, u64>, name: &str) -> u64 {
    stats.get(name).copied().unwrap_or(0)
}

/// Counter deltas across the window.
fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, name: &str) -> f64 {
    field(after, name).saturating_sub(field(before, name)) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Waits for the server to come to rest (no compaction landing between
/// two reads) and checks the gauge identity there.
fn at_rest(control: &mut Conn) -> Result<BTreeMap<String, u64>, String> {
    let mut last = control.stats()?;
    for _ in 0..60 {
        std::thread::sleep(Duration::from_millis(50));
        let now = control.stats()?;
        let parts = ["cache_bytes", "plan_bytes", "delta_bytes", "segment_bytes"];
        let resting: u64 = parts.iter().map(|p| field(&now, p)).sum();
        let settled = field(&now, "compactions") == field(&last, "compactions")
            && field(&now, "admission_inflight") == 0
            && field(&now, "epoch_pins") == 0;
        if settled && field(&now, "gauge_bytes") == resting {
            return Ok(now);
        }
        last = now;
    }
    let parts = ["cache_bytes", "plan_bytes", "delta_bytes", "segment_bytes"];
    Err(format!(
        "gauge identity fails at rest: gauge_bytes {} != {}",
        field(&last, "gauge_bytes"),
        parts
            .iter()
            .map(|p| format!("{p} {}", field(&last, p)))
            .collect::<Vec<_>>()
            .join(" + ")
    ))
}

/// Everything the socket run measured, for the end-to-end metrics and the
/// replay.
pub struct SocketRun {
    pub logs: Vec<ConnLog>,
    pub setup: Vec<(Request, u8, Vec<u8>)>,
    pub elapsed: f64,
    pub setup_secs: Vec<f64>,
    pub before: BTreeMap<String, u64>,
    pub after: BTreeMap<String, u64>,
    pub rest: BTreeMap<String, u64>,
}

impl SocketRun {
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.logs.iter().flat_map(|l| l.samples.iter())
    }

    /// Socket latencies by shape (ns, ascending).
    pub fn by_shape(&self) -> BTreeMap<u8, Vec<f64>> {
        let mut m: BTreeMap<u8, Vec<f64>> = BTreeMap::new();
        for s in self.samples() {
            m.entry(s.shape).or_default().push(s.latency_ns as f64);
        }
        for v in m.values_mut() {
            v.sort_by(f64::total_cmp);
        }
        m
    }
}

/// Set-up repetitions, warm-up, the timed window and the rest check.
pub fn socket_run(env: &Env, seconds: f64, out: &mut Outcome) -> Option<(SocketRun, Running)> {
    let mut setup_secs: Vec<f64> = Vec::new();
    let mut running = None;
    while setup_secs.len() < SETUP_REPS.0
        || (setup_secs.iter().sum::<f64>() < SETUP_BUDGET_S && setup_secs.len() < SETUP_REPS.1)
    {
        // the previous server drains and joins before the next binds
        drop(running.take());
        match start(env) {
            Ok((r, secs)) => {
                setup_secs.push(secs);
                running = Some(r);
            }
            Err(e) => {
                out.problem(format!("set-up: {e}"));
                return None;
            }
        }
    }
    let mut running = running?;
    for (req, kind, body) in &running.setup {
        let Request::ModelPredict { graph, family, .. } = req else {
            continue;
        };
        let Some(input) = env.inputs.iter().find(|i| &i.name == graph) else {
            continue;
        };
        if family == "desc" {
            let expect = Expect::Predict {
                per_node: input.predict.0,
                total_ops: input.predict.1,
                n: input.graph.n() as u64,
            };
            if let Err(e) = check(&expect, *kind, body, true) {
                out.problem(format!("set-up prediction for {graph}: {e}"));
            }
        }
    }
    let addr = running.server.addr();
    let barrier = Barrier::new(CONNS + 1);
    let window = std::sync::Mutex::new((Instant::now(), Instant::now()));
    let mut before = BTreeMap::new();
    let mut snapshot_err = None;
    let logs: Vec<ConnLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let (barrier, window) = (&barrier, &window);
                scope.spawn(move || drive(env, c, addr, barrier, window))
            })
            .collect();
        barrier.wait();
        // warmed up and idle: the gauge identity must hold here too
        match at_rest(&mut running.control) {
            Ok(s) => before = s,
            Err(e) => snapshot_err = Some(e),
        }
        let start = Instant::now();
        *window.lock().expect("window lock") = (start, start + Duration::from_secs_f64(seconds));
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let (start, _) = *window.lock().expect("window lock");
    let end = logs.iter().filter_map(|l| l.end).max().unwrap_or(start);
    let elapsed = end.duration_since(start).as_secs_f64();
    if let Some(e) = snapshot_err {
        out.problem(format!("before the window: {e}"));
    }
    let after = running.control.stats().unwrap_or_else(|e| {
        out.problem(format!("stats after the window: {e}"));
        BTreeMap::new()
    });
    let rest = at_rest(&mut running.control).unwrap_or_else(|e| {
        out.problem(e);
        BTreeMap::new()
    });
    for (conn, log) in logs.iter().enumerate() {
        for e in &log.errors {
            out.problem(e.clone());
        }
        out.attempted += log.attempted;
        out.failed += log.failed;
        // the whole-answer check of the kept responses
        for (i, kind, body) in &log.recorded {
            let r = request(env, conn, *i);
            if let Err(e) = check(&r.expect, *kind, body, true) {
                out.problem(format!("request {i} of connection {conn}: {e}"));
            }
        }
    }
    Some((
        SocketRun {
            logs,
            setup: std::mem::take(&mut running.setup),
            elapsed,
            setup_secs,
            before,
            after,
            rest,
        },
        running,
    ))
}

/// The end-to-end metrics of a socket run, plus notes for reading.
pub fn end_to_end(env: &Env, run: &SocketRun, values: &mut Values, notes: &mut Values) {
    let latencies = |class: Option<Class>| -> Vec<f64> {
        let mut v: Vec<f64> = run
            .samples()
            .filter(|s| class.is_none_or(|c| s.class == c))
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let (all, reads, writes) = (
        latencies(None),
        latencies(Some(Class::Read)),
        latencies(Some(Class::Write)),
    );
    let (attempted, failed) = run
        .logs
        .iter()
        .fold((0, 0), |(a, f), l| (a + l.attempted, f + l.failed));
    let n = all.len() as u64;
    // Rates and medians are taken per slice of the window and reported as
    // the median over slices, so a few seconds of outside load on the
    // machine move a run less.
    let count = ((run.elapsed / SLICE_S).round() as usize).max(1);
    let slice_ns = (run.elapsed.max(1e-9) * 1e9 / count as f64).ceil() as u64;
    let mut slices: Vec<Vec<&Sample>> = vec![Vec::new(); count];
    for s in run.samples() {
        slices[((s.done_ns / slice_ns.max(1)) as usize).min(count - 1)].push(s);
    }
    let per_slice = |f: &dyn Fn(&[&Sample]) -> Option<f64>| -> f64 {
        median(&slices.iter().filter_map(|s| f(s)).collect::<Vec<f64>>())
    };
    let slice_secs = slice_ns as f64 / 1e9;
    let p50 = |s: &[&Sample], class: Option<Class>| {
        let mut v: Vec<f64> = s
            .iter()
            .filter(|x| class.is_none_or(|c| x.class == c))
            .map(|x| x.latency_ns as f64 / 1e6)
            .collect();
        v.sort_by(f64::total_cmp);
        report::quantile(&v, 0.5)
    };
    values.set(
        "throughput_rps",
        per_slice(&|s| Some(s.len() as f64 / slice_secs)),
        n,
    );
    values.set("latency_p50_ms", per_slice(&|s| p50(s, None)), n);
    values.set(
        "read_p50_ms",
        per_slice(&|s| p50(s, Some(Class::Read))),
        reads.len() as u64,
    );
    values.set(
        "paper_mops_per_s",
        per_slice(&|s| Some(s.iter().map(|x| x.ops).sum::<u64>() as f64 / slice_secs / 1e6)),
        n,
    );
    values.set(
        "setup_s",
        median(&run.setup_secs),
        run.setup_secs.len() as u64,
    );
    // at rest after the warm-up: edit history grows with the edits a
    // window completes, so the gauge after it would rise with throughput
    values.set(
        "resident_mb",
        field(&run.before, "gauge_bytes") as f64 / MIB,
        1,
    );
    values.set("peak_rss_mb", sys::peak_rss_mb(), 1);
    notes.set(
        "resident_after_window_mb",
        field(&run.rest, "gauge_bytes") as f64 / MIB,
        1,
    );

    if let Some(p99) = report::percentile(&all, 99.0) {
        notes.set("latency_p99_ms", p99, n);
    }
    if let Some((p, v)) = report::tail(&all) {
        notes.set(format!("latency_tail_p{p}_ms"), v, n);
    }
    if !writes.is_empty() {
        notes.set(
            "write_p50_ms",
            report::quantile(&writes, 0.5).unwrap_or(0.0),
            writes.len() as u64,
        );
    }
    notes.set(
        "failed_share",
        ratio(failed as f64, attempted as f64),
        attempted,
    );
    notes.set("window_s", run.elapsed, 1);
    for (shape, v) in run.by_shape() {
        notes.set(
            format!("socket_p50_us.{}", env.shapes()[shape as usize]),
            report::quantile(&v, 0.5).unwrap_or(0.0) / 1e3,
            v.len() as u64,
        );
    }
}

/// Per-layer numbers read from the server's own counters across the
/// window.
pub fn stats_layers(run: &SocketRun, values: &mut Values) {
    let (b, a) = (&run.before, &run.after);
    let d = |name: &str| delta(b, a, name);
    let priced = d("requests_list") + d("requests_count") + d("requests_list_new");
    let gate =
        d("admission_admitted") + d("admission_rejected_busy") + d("admission_rejected_cost");
    let n = priced as u64;
    values.set(
        "admission.queued_share",
        ratio(d("admission_queued"), gate),
        gate as u64,
    );
    values.set(
        "admission.rejected_share",
        ratio(
            d("admission_rejected_busy") + d("admission_rejected_cost"),
            gate,
        ),
        gate as u64,
    );
    let lookups = d("cache_hits") + d("cache_misses");
    values.set(
        "store.hit_ratio",
        ratio(d("cache_hits"), lookups),
        lookups as u64,
    );
    values.set("store.compactions", d("compactions"), 1);
    values.set(
        "resilient.span_ms_per_req",
        ratio(d("recorder_span_ns") / 1e6, priced),
        n,
    );
    // the runtime's span time summed over workers, against the client
    // latency summed over the window's requests: above 1 when a request's
    // workers run side by side
    let client_ns: u64 = run.samples().map(|s| s.latency_ns).sum();
    values.set(
        "resilient.client_time_share",
        ratio(d("recorder_span_ns"), client_ns as f64),
        n,
    );
    let ops: u64 = run.samples().map(|s| s.ops).sum();
    values.set("resilient.paper_ops_per_req", ratio(ops as f64, priced), n);
    for kind in KERNEL_KINDS {
        values.set(
            format!("kernel.calls.{kind}"),
            ratio(d(&format!("recorder_intersect_{kind}")), priced),
            n,
        );
    }
    let probes = d("recorder_oracle_hits") + d("recorder_oracle_misses");
    values.set(
        "kernel.oracle_hit_ratio",
        ratio(d("recorder_oracle_hits"), probes),
        probes as u64,
    );
    let answers: u64 = run.logs.iter().map(|l| l.samples.len() as u64).sum();
    let bytes: u64 = run.logs.iter().map(|l| l.body_bytes).sum();
    values.set(
        "protocol.response_kb",
        ratio(bytes as f64 / 1024.0, answers as f64),
        answers,
    );
}
