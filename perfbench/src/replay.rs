//! The traced replay: the socket run's request sequence fed in-process
//! through the layers' public functions, mirroring the server's
//! `run_listing` and `run_delta` (same chunk size, worker count and
//! oracle/kernel sharing rule). Each call is wrapped in a span, and every
//! answer must equal the socket's byte for byte.

use crate::catalog::Values;
use crate::report::{median, quantile};
use crate::serve::{self, Env, SocketRun, CONNS, RECORDED};
use crate::trace::{self, SpanId, Tracer, ROOT};
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use trilist_core::{
    list_new_triangles_src, list_resilient_src, CompressedCsr, DeltaOpts, DeltaOutcome,
    GraphSource, HashOracle, InMemoryRecorder, KernelPlan, KernelPolicy, Kernels, MemoryGauge,
    Method, ParallelOpts, Recorder, ResilientOpts, RunBudget, RunOutcome,
};
use trilist_graph::Graph;
use trilist_model::{price_delta, price_request, RequestPrice};
use trilist_order::{DirectedGraph, OrderingKind};
use trilist_serve::{
    decode_frame, encode_frame, prepare_seed_at, scan_frame, Admission, DeltaParams,
    DeltaRunResult, EditInfo, EditReceipt, ErrorCode, ErrorFrame, GraphStore, ListParams, Permit,
    PlanInfo, Prepared, Request, Response, RunResult, ServeConfig, StoreError,
};

/// What one replayed request did, beyond its spans.
#[derive(Default)]
pub struct ReqLog {
    /// `(ns, hit)` of each prepare.
    pub prepares: Vec<(u64, bool)>,
    /// Cache misses as `(graph, ordering, epoch)`.
    pub misses: Vec<(String, OrderingKind, u64)>,
    /// `(method, policy, ns, paper ops)` of a listing run.
    pub execute: Option<(Method, &'static str, u64, u64)>,
    /// `(net-new edges, paper ops)` of a delta run.
    pub delta: Option<(u64, u64)>,
    pub kernel_bytes: Option<(&'static str, u64)>,
}

fn err(code: ErrorCode, msg: impl Into<String>) -> ErrorFrame {
    ErrorFrame::new(code, msg)
}

fn bad(msg: impl Into<String>) -> ErrorFrame {
    err(ErrorCode::BadRequest, msg)
}

fn store_err(e: &StoreError) -> ErrorFrame {
    match e {
        StoreError::UnknownGraph(_) => err(ErrorCode::UnknownGraph, e.to_string()),
        _ => bad(e.to_string()),
    }
}

fn parse_method(name: &str) -> Result<Method, ErrorFrame> {
    Method::from_name(name).ok_or_else(|| bad(format!("unknown method {name:?}")))
}

fn parse_ordering(name: &str) -> Result<OrderingKind, ErrorFrame> {
    OrderingKind::from_name(name).ok_or_else(|| bad(format!("unknown ordering {name:?}")))
}

fn parse_policy(name: &str) -> Result<KernelPolicy, ErrorFrame> {
    KernelPolicy::from_name(name).ok_or_else(|| bad(format!("unknown kernel policy {name:?}")))
}

fn map_triangles<'a>(
    inverse: &'a [u32],
    triangles: &'a [(u32, u32, u32)],
) -> impl Iterator<Item = (u32, u32, u32)> + 'a {
    triangles.iter().map(move |&(x, y, z)| {
        let mut t = [
            inverse[x as usize],
            inverse[y as usize],
            inverse[z as usize],
        ];
        t.sort_unstable();
        (t[0], t[1], t[2])
    })
}

fn wire_result(
    prepared: &Prepared,
    cache_hit: bool,
    materialize: bool,
    outcome: RunOutcome,
) -> Result<RunResult, ErrorFrame> {
    let RunOutcome::Complete(run) = outcome else {
        return Err(bad("not replayed: an unlimited run came back partial"));
    };
    Ok(RunResult {
        complete: true,
        stop_reason: String::new(),
        cache_hit,
        cost: run.cost,
        resume: String::new(),
        chunks: if materialize {
            run.piece_counts
        } else {
            vec![]
        },
        triangles: if materialize {
            map_triangles(&prepared.inverse, &run.triangles).collect()
        } else {
            vec![]
        },
    })
}

/// The workloads never send a resume token or a per-request thread,
/// deadline or memory override, so the mirror covers only the defaults;
/// a request that carries one is refused, and the replay fails on it.
fn defaults_only(
    threads: u16,
    deadline_ms: u64,
    memory_bytes: u64,
    resume: &str,
) -> Result<(), ErrorFrame> {
    if threads == 0 && deadline_ms == 0 && memory_bytes == 0 && resume.is_empty() {
        Ok(())
    } else {
        Err(bad("not replayed: resume tokens and per-request overrides"))
    }
}

fn edit_info(r: &EditReceipt) -> EditInfo {
    EditInfo {
        epoch: r.epoch,
        applied: r.applied,
        m: r.m,
        delta_edges: r.delta_edges,
        delta_ratio: r.delta_ratio,
        compacting: r.compacting,
    }
}

/// The server's state, built from its public parts with the shipped
/// default configuration. Without concurrent load the overload ladder
/// never engages (pressure stays far below its first rung), so it is not
/// mirrored.
pub struct Mirror {
    cfg: ServeConfig,
    gauge: MemoryGauge,
    pub store: GraphStore,
    admission: Admission,
    pub recorder: Arc<InMemoryRecorder>,
}

impl Mirror {
    pub fn new() -> Mirror {
        let cfg = ServeConfig::default();
        let gauge = MemoryGauge::new();
        let recorder = Arc::new(InMemoryRecorder::new());
        let store = GraphStore::new(cfg.store.clone(), gauge.clone())
            .with_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
        Mirror {
            admission: Admission::new(cfg.admission),
            cfg,
            gauge,
            store,
            recorder,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn prepare(
        &self,
        t: &mut Tracer,
        id: u64,
        parent: SpanId,
        log: &mut ReqLog,
        graph: &str,
        ordering: OrderingKind,
        epoch: Option<u64>,
    ) -> Result<(Arc<Prepared>, bool), StoreError> {
        let t0 = Instant::now();
        let res = t.wrap(id, "store.prepare", parent, || {
            self.store.prepare_at(graph, ordering, epoch)
        });
        let ns = t0.elapsed().as_nanos() as u64;
        let (prepared, hit, at) = res?;
        log.prepares.push((ns, hit));
        if !hit {
            log.misses.push((graph.to_string(), ordering, at));
        }
        log.kernel_bytes = Some((prepared.kernels.policy().name(), prepared.kernels.bytes()));
        Ok((prepared, hit))
    }

    /// Answers one request the way the server's `execute` does.
    pub fn execute(
        &self,
        t: &mut Tracer,
        id: u64,
        parent: SpanId,
        req: Request,
        log: &mut ReqLog,
    ) -> Response {
        match req {
            Request::RegisterGraph { name, n, edges } => {
                match t.wrap(id, "store.register", parent, || {
                    self.store.register(&name, n, &edges)
                }) {
                    Ok((n, m)) => Response::Registered { n, m },
                    Err(e) => Response::Error(bad(e.to_string())),
                }
            }
            Request::ModelPredict {
                graph,
                method,
                family,
            } => self
                .predict(t, id, parent, log, &graph, &method, &family)
                .unwrap_or_else(Response::Error),
            Request::ExplainPlan { graph } => {
                match t.wrap(id, "store.plan", parent, || self.store.listing_plan(&graph)) {
                    Ok(summary) => t.wrap(id, "protocol.encode", parent, || {
                        let plan = &summary.plan;
                        Response::PlanResult(PlanInfo {
                            ordering: plan.ordering.name().to_string(),
                            method: plan.method_hint.to_string(),
                            policy: plan.policy.name().to_string(),
                            compressed: plan.compressed,
                            predicted_ops: summary.predicted_ops,
                            predicted_seconds: summary.predicted_seconds,
                            default_ops: summary.default_ops,
                            default_seconds: summary.default_seconds,
                            evaluations: summary.evaluations,
                            sampled: summary.sampled,
                        })
                    }),
                    Err(e) => Response::Error(err(ErrorCode::UnknownGraph, e.to_string())),
                }
            }
            Request::List(p) => match self.listing(t, id, parent, log, &p, true) {
                Ok(res) => Response::ListResult(res),
                Err(e) => Response::Error(e),
            },
            Request::Count(p) => match self.listing(t, id, parent, log, &p, false) {
                Ok(res) => Response::CountResult(res),
                Err(e) => Response::Error(e),
            },
            Request::AddEdges { graph, edges } => {
                match t.wrap(id, "store.edit", parent, || {
                    self.store.add_edges(&graph, &edges)
                }) {
                    Ok(r) => Response::EditResult(edit_info(&r)),
                    Err(e) => Response::Error(store_err(&e)),
                }
            }
            Request::RemoveEdges { graph, edges } => {
                match t.wrap(id, "store.edit", parent, || {
                    self.store.remove_edges(&graph, &edges)
                }) {
                    Ok(r) => Response::EditResult(edit_info(&r)),
                    Err(e) => Response::Error(store_err(&e)),
                }
            }
            Request::ListNewTriangles(p) => match self.delta(t, id, parent, log, &p) {
                Ok(res) => Response::NewTrianglesResult(res),
                Err(e) => Response::Error(e),
            },
            Request::Stats | Request::Shutdown => {
                Response::Error(bad("not replayed: answered from live server state"))
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn predict(
        &self,
        t: &mut Tracer,
        id: u64,
        parent: SpanId,
        log: &mut ReqLog,
        graph: &str,
        method: &str,
        family: &str,
    ) -> Result<Response, ErrorFrame> {
        let method = parse_method(method)?;
        let ordering = parse_ordering(family)?;
        let (prepared, _) = self
            .prepare(t, id, parent, log, graph, ordering, None)
            .map_err(|e| err(ErrorCode::UnknownGraph, e.to_string()))?;
        let price = t.wrap(id, "admission.price", parent, || {
            price_request(method, &prepared.degrees_by_label)
        });
        Ok(Response::Predicted {
            per_node: price.per_node,
            total_ops: price.total_ops,
            n: price.n,
        })
    }

    /// The admission gate as the server applies it: price ceiling first,
    /// then a slot.
    fn admit(
        &self,
        t: &mut Tracer,
        id: u64,
        parent: SpanId,
        price: &RequestPrice,
    ) -> Result<Permit<'_>, ErrorFrame> {
        t.wrap(id, "admission.admit", parent, || {
            self.admission
                .check_price(price)
                .map_err(|r| err(ErrorCode::RejectedCost, r.to_string()))?;
            self.admission
                .admit()
                .map_err(|r| err(ErrorCode::RejectedBusy, r.to_string()))
        })
    }

    /// The run budget the server builds for a request without overrides.
    fn budget(&self) -> RunBudget {
        let budget = RunBudget::unlimited().with_gauge(self.gauge.clone());
        match self.cfg.memory_bytes {
            Some(bytes) => budget.with_memory_bytes(bytes),
            None => budget,
        }
    }

    fn listing(
        &self,
        t: &mut Tracer,
        id: u64,
        parent: SpanId,
        log: &mut ReqLog,
        p: &ListParams,
        materialize: bool,
    ) -> Result<RunResult, ErrorFrame> {
        defaults_only(p.threads, p.deadline_ms, p.memory_bytes, &p.resume)?;
        let unpinned = p.method.is_empty() || p.family.is_empty() || p.policy.is_empty();
        let plan = if unpinned {
            Some(
                t.wrap(id, "store.plan", parent, || {
                    self.store.listing_plan(&p.graph)
                })
                .map_err(|e| err(ErrorCode::UnknownGraph, e.to_string()))?,
            )
        } else {
            None
        };
        let method = match &plan {
            Some(s) if p.method.is_empty() => s.plan.method_hint,
            _ => parse_method(&p.method)?,
        };
        if !Method::FUNDAMENTAL.contains(&method) {
            return Err(bad(format!(
                "method {method} is not served (the parallel runtime covers T1, T2, E1, E4)"
            )));
        }
        let ordering = match &plan {
            Some(s) if p.family.is_empty() => s.plan.ordering,
            _ => parse_ordering(&p.family)?,
        };
        let policy = match &plan {
            Some(s) if p.policy.is_empty() => s.plan.policy,
            _ => parse_policy(&p.policy)?,
        };
        let (prepared, cache_hit) = self
            .prepare(t, id, parent, log, &p.graph, ordering, None)
            .map_err(|e| err(ErrorCode::UnknownGraph, e.to_string()))?;
        let price = t.wrap(id, "admission.price", parent, || {
            price_request(method, &prepared.degrees_by_label)
        });
        let permit = self.admit(t, id, parent, &price)?;
        let t0 = Instant::now();
        let outcome = t.wrap(id, "resilient.execute", parent, || {
            // the runtime's options as the server builds them (their
            // defaults read the machine's parallelism, which takes time)
            let opts = ResilientOpts {
                parallel: ParallelOpts {
                    threads: self.cfg.workers,
                    policy,
                    target_chunk_ops: 32768,
                },
                budget: self.budget(),
                recorder: Some(Arc::clone(&self.recorder) as Arc<dyn Recorder>),
                oracle: matches!(method, Method::T1 | Method::T2)
                    .then(|| Arc::clone(&prepared.oracle)),
                kernels: (policy == prepared.kernels.policy()
                    && !matches!(policy, KernelPolicy::PaperFaithful))
                .then(|| Arc::clone(&prepared.kernels)),
                ..ResilientOpts::default()
            };
            let src = match &prepared.csr {
                Some(c) => GraphSource::Compressed(c),
                None => GraphSource::Plain(&prepared.dg),
            };
            list_resilient_src(src, method, &opts)
        });
        let ns = t0.elapsed().as_nanos() as u64;
        drop(permit);
        let outcome = outcome.map_err(|e| bad(e.to_string()))?;
        let res = t.wrap(id, "protocol.encode", parent, || {
            wire_result(&prepared, cache_hit, materialize, outcome)
        })?;
        log.execute = Some((method, policy.name(), ns, res.cost.operations()));
        Ok(res)
    }

    fn delta(
        &self,
        t: &mut Tracer,
        id: u64,
        parent: SpanId,
        log: &mut ReqLog,
        p: &DeltaParams,
    ) -> Result<DeltaRunResult, ErrorFrame> {
        defaults_only(p.threads, p.deadline_ms, p.memory_bytes, &p.resume)?;
        let window = t.begin(id, "store.delta_window", parent);
        let latest = self
            .store
            .latest_epoch(&p.graph)
            .map_err(|e| store_err(&e))?;
        let to = if p.to_epoch == DeltaParams::LATEST {
            latest
        } else {
            p.to_epoch
        };
        let _pin = self
            .store
            .pin(&p.graph, Some(to))
            .map_err(|e| store_err(&e))?;
        let (net_new, net_removed) = self
            .store
            .delta_edges(&p.graph, p.from_epoch, to)
            .map_err(|e| store_err(&e))?;
        t.end(window);
        let unpinned = p.family.is_empty() || p.policy.is_empty();
        let plan = if unpinned {
            Some(
                t.wrap(id, "store.plan", parent, || {
                    self.store.listing_plan(&p.graph)
                })
                .map_err(|e| store_err(&e))?,
            )
        } else {
            None
        };
        let ordering = match &plan {
            Some(s) if p.family.is_empty() => s.plan.ordering,
            _ => parse_ordering(&p.family)?,
        };
        let policy = match &plan {
            Some(s) if p.policy.is_empty() => s.plan.policy,
            _ => parse_policy(&p.policy)?,
        };
        let (prepared, cache_hit) = self
            .prepare(t, id, parent, log, &p.graph, ordering, Some(to))
            .map_err(|e| store_err(&e))?;
        let span = t.begin(id, "delta.list_new", parent);
        let mut forward = vec![0u32; prepared.inverse.len()];
        for (label, &orig) in prepared.inverse.iter().enumerate() {
            forward[orig as usize] = label as u32;
        }
        let mut label_edges: Vec<(u32, u32)> = net_new
            .iter()
            .map(|&(u, v)| {
                let (a, b) = (forward[u as usize], forward[v as usize]);
                (a.min(b), a.max(b))
            })
            .collect();
        label_edges.sort_unstable();
        t.end(span);
        let price = t.wrap(id, "admission.price", parent, || {
            price_delta(&prepared.degrees_by_label, &label_edges)
        });
        let permit = self.admit(t, id, parent, &price)?;
        let opts = DeltaOpts {
            threads: self.cfg.workers,
            budget: self.budget(),
            ..DeltaOpts::default()
        };
        let src = match &prepared.csr {
            Some(c) => GraphSource::Compressed(c),
            None => GraphSource::Plain(&prepared.dg),
        };
        let built = t.wrap(id, "kernel.build", parent, || {
            (policy != prepared.kernels.policy() || matches!(policy, KernelPolicy::PaperFaithful))
                .then(|| Kernels::build_src(policy, src))
        });
        let kernels: &Kernels = built.as_ref().unwrap_or(&prepared.kernels);
        let outcome = t.wrap(id, "delta.list_new", parent, || {
            list_new_triangles_src(src, kernels, &label_edges, &opts)
        });
        drop(permit);
        let DeltaOutcome::Complete { .. } = &outcome else {
            return Err(bad(
                "not replayed: an unlimited delta run came back partial",
            ));
        };
        let res = t.wrap(id, "protocol.encode", parent, || {
            let mut chunks = Vec::new();
            let mut triangles = Vec::new();
            for piece in outcome.pieces() {
                chunks.push((piece.chunk, piece.triangles.len() as u32));
                triangles.extend(map_triangles(&prepared.inverse, &piece.triangles));
            }
            DeltaRunResult {
                from_epoch: p.from_epoch,
                to_epoch: to,
                new_edges: label_edges.len() as u64,
                removed_edges: net_removed.len() as u64,
                result: RunResult {
                    complete: true,
                    stop_reason: String::new(),
                    cache_hit,
                    cost: outcome.cost(),
                    resume: String::new(),
                    chunks,
                    triangles,
                },
            }
        });
        log.delta = Some((res.new_edges, res.result.cost.operations()));
        Ok(res)
    }
}

/// Prepare timings split by step: relabel, orient, oracle, kernels,
/// compressed layout (ns).
pub type PrepSplit = [u64; 5];

/// Builds the prepared artifacts step by step, as `prepare_graph_with`
/// does, timing each step and wrapping each in a span.
pub fn prepare_split(
    t: &mut Tracer,
    id: u64,
    parent: SpanId,
    graph: &Graph,
    ordering: OrderingKind,
    seed: u64,
    plan: KernelPlan,
) -> (Prepared, PrepSplit) {
    let mut split = [0u64; 5];
    let step = |t: &mut Tracer, k: usize, layer: &'static str| {
        let start = Instant::now();
        let span = t.begin(id, layer, parent);
        move |t: &mut Tracer, split: &mut PrepSplit| {
            t.end(span);
            split[k] = start.elapsed().as_nanos() as u64;
        }
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let done = step(t, 0, "order.relabel");
    let relabeling = ordering.relabeling(graph, &mut rng);
    let inverse = relabeling.inverse();
    done(t, &mut split);
    let done = step(t, 1, "order.orient");
    let dg = DirectedGraph::orient(graph, &relabeling);
    let degrees_by_label: Vec<u32> = (0..dg.n() as u32).map(|v| dg.degree(v) as u32).collect();
    done(t, &mut split);
    let done = step(t, 2, "oracle.build");
    let oracle = Arc::new(HashOracle::build(&dg));
    done(t, &mut split);
    let done = step(t, 3, "kernel.build");
    let kernels = Arc::new(Kernels::build(plan.policy, &dg));
    done(t, &mut split);
    let done = step(t, 4, "compressed.build");
    let csr = plan
        .compressed
        .then(|| Arc::new(CompressedCsr::compress(&dg)));
    done(t, &mut split);
    let (n, m) = (dg.n() as u64, dg.m() as u64);
    let bytes = 2 * m * 4
        + 2 * (n + 1) * 8
        + n * 8
        + m * 12
        + kernels.bytes()
        + csr.as_deref().map_or(0, CompressedCsr::bytes);
    let prepared = Prepared {
        dg,
        inverse,
        degrees_by_label,
        oracle,
        kernels,
        plan,
        csr,
        bytes,
    };
    (prepared, split)
}

/// One replay pass: fresh server state, the set-up requests, the churn
/// edits before the window, then the first `spec.replay` window requests
/// of every connection.
pub struct Pass {
    pub tracer: Tracer,
    pub mirror: Mirror,
    /// Per replayed request, by id: its shape ([`SETUP`] for set-up
    /// requests), wall ns, and what it did.
    pub requests: Vec<(u8, u64, ReqLog)>,
    pub mismatches: Vec<String>,
    pub compared: u64,
}

/// Shape tag of a set-up request.
pub const SETUP: u8 = u8::MAX;

impl Pass {
    fn window(&self) -> impl Iterator<Item = &(u8, u64, ReqLog)> {
        self.requests.iter().filter(|r| r.0 != SETUP)
    }

    /// Window request wall ns by shape, ascending.
    pub fn by_shape(&self) -> BTreeMap<u8, Vec<f64>> {
        let mut m: BTreeMap<u8, Vec<f64>> = BTreeMap::new();
        for (shape, ns, _) in self.window() {
            m.entry(*shape).or_default().push(*ns as f64);
        }
        for v in m.values_mut() {
            v.sort_by(f64::total_cmp);
        }
        m
    }

    /// Sum of window request wall ns, and how many there were.
    pub fn window_ns(&self) -> (u64, u64) {
        self.window()
            .fold((0, 0), |(sum, n), (_, ns, _)| (sum + ns, n + 1))
    }
}

/// Replays the sequence `passes` times and keeps, for every request, the
/// pass in which it ran fastest: its wall time, its spans and its log.
/// The fastest of several runs is the one least disturbed by whatever
/// else shares the machine.
pub fn fastest(env: &Env, socket: &SocketRun, traced: bool, passes: usize) -> Pass {
    let mut all: Vec<Pass> = (0..passes.max(1))
        .map(|_| replay(env, socket, traced))
        .collect();
    // each pass's spans, grouped by request (a request's spans are
    // contiguous and its parents lie inside its own group)
    let groups: Vec<BTreeMap<u64, std::ops::Range<usize>>> = all
        .iter()
        .map(|p| {
            let mut g: BTreeMap<u64, std::ops::Range<usize>> = BTreeMap::new();
            for (i, s) in p.tracer.spans.iter().enumerate() {
                g.entry(s.req).or_insert(i..i).end = i + 1;
            }
            g
        })
        .collect();
    let mut merged = Tracer::new(traced);
    let mut requests = Vec::new();
    for id in 0..all[0].requests.len() {
        let best = (0..all.len())
            .min_by_key(|&p| all[p].requests[id].1)
            .expect("at least one pass");
        let request = std::mem::take(&mut all[best].requests[id].2);
        let (shape, ns) = (all[best].requests[id].0, all[best].requests[id].1);
        requests.push((shape, ns, request));
        if let Some(range) = groups[best].get(&(id as u64)) {
            let offset = merged.spans.len();
            for s in &all[best].tracer.spans[range.clone()] {
                let mut s = s.clone();
                s.parent = s.parent.map(|p| p - range.start + offset);
                merged.spans.push(s);
            }
        }
    }
    let mismatches = all.iter().flat_map(|p| p.mismatches.clone()).collect();
    let first = all.swap_remove(0);
    Pass {
        tracer: merged,
        mirror: first.mirror,
        requests,
        mismatches,
        compared: first.compared,
    }
}

/// Replays one request: client encode, server decode, execute, encode,
/// client decode; the root span covers all of it.
fn one(pass: &mut Pass, id: u64, req: &Request) -> (Vec<u8>, u64, ReqLog) {
    let mut log = ReqLog::default();
    let t = &mut pass.tracer;
    let t0 = Instant::now();
    let root = t.begin(id, "request", ROOT);
    let frame = t.wrap(id, "client.encode", root, || {
        encode_frame(req.kind(), &req.payload())
    });
    let decoded = t.wrap(id, "protocol.decode", root, || {
        let decoded = match scan_frame(&frame) {
            Ok(Some((kind, total))) => Request::decode(kind, &frame[6..total]).ok(),
            _ => None,
        };
        drop(frame);
        decoded
    });
    let resp = match decoded {
        Some(r) => pass.mirror.execute(t, id, root, r, &mut log),
        None => Response::Error(bad("request did not survive its own encoding")),
    };
    let frame = t.wrap(id, "protocol.encode", root, || {
        let frame = encode_frame(resp.kind(), &resp.payload());
        drop(resp);
        frame
    });
    t.wrap(id, "protocol.client_decode", root, || {
        let _ = decode_frame(&frame).map(|(k, body)| Response::decode(k, body));
    });
    t.end(root);
    (frame, t0.elapsed().as_nanos() as u64, log)
}

/// Whether a replayed answer is an error frame. No request of a healthy
/// run is refused, so a refusal in the replay fails it.
fn is_error(frame: &[u8]) -> bool {
    frame.get(5) == Some(&Response::Error(bad("")).kind())
}

/// Whether two answers agree. Edit receipts are compared on the fields
/// the request determines: `delta_edges`, `delta_ratio` and `compacting`
/// depend on when the server's background compactor ran.
fn same_answer(frame: &[u8], theirs_kind: u8, theirs: &[u8]) -> bool {
    let (kind, ours) = (frame[5], &frame[6..]);
    if kind != theirs_kind {
        return false;
    }
    match (
        Response::decode(kind, ours),
        Response::decode(theirs_kind, theirs),
    ) {
        (Ok(Response::EditResult(a)), Ok(Response::EditResult(b))) => {
            (a.epoch, a.applied, a.m) == (b.epoch, b.applied, b.m)
        }
        _ => ours == theirs,
    }
}

pub fn replay(env: &Env, socket: &SocketRun, traced: bool) -> Pass {
    let mut pass = Pass {
        tracer: Tracer::new(traced),
        mirror: Mirror::new(),
        requests: Vec::new(),
        mismatches: Vec::new(),
        compared: 0,
    };
    let mut id = 0u64;
    for (req, kind, body) in &socket.setup {
        let (frame, ns, log) = one(&mut pass, id, req);
        pass.requests.push((SETUP, ns, log));
        pass.compared += 1;
        if !same_answer(&frame, *kind, body) {
            pass.mismatches
                .push(format!("set-up request {id} (kind {:#04x})", req.kind()));
        }
        id += 1;
    }
    let first = env.warmup();
    if env.spec.churn {
        // the warm-up edits bring each graph to the window's first epoch;
        // warm-up reads change nothing a window answer depends on
        let mut quiet = Tracer::new(false);
        for conn in 0..CONNS {
            for i in 0..first {
                let r = serve::request(env, conn, i);
                if r.is_write() {
                    let mut log = ReqLog::default();
                    pass.mirror
                        .execute(&mut quiet, 0, ROOT, r.request, &mut log);
                }
            }
        }
    }
    for conn in 0..CONNS {
        let recorded = &socket.logs[conn].recorded;
        for i in first..first + env.spec.replay {
            let r = serve::request(env, conn, i);
            if matches!(r.request, Request::Stats) {
                continue;
            }
            let (frame, ns, log) = one(&mut pass, id, &r.request);
            id += 1;
            if is_error(&frame) {
                pass.mismatches.push(format!(
                    "request {i} of connection {conn} ({}): the replay refused it",
                    env.shapes()[r.shape]
                ));
            } else if i - first < RECORDED {
                if let Some((_, k, body)) = recorded.iter().find(|(j, _, _)| *j == i) {
                    pass.compared += 1;
                    if !same_answer(&frame, *k, body) {
                        pass.mismatches.push(format!(
                            "request {i} of connection {conn} ({}): replay answer differs from the socket",
                            env.shapes()[r.shape]
                        ));
                    }
                }
            }
            pass.requests.push((r.shape as u8, ns, log));
        }
    }
    pass
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Rebuilds up to `limit` of the pass's cache misses step by step, checks
/// each against the store's own entry, and returns the split timings.
fn miss_split(pass: &Pass, limit: usize, problems: &mut Vec<String>) -> Vec<PrepSplit> {
    let misses: Vec<(String, OrderingKind, u64)> = pass
        .requests
        .iter()
        .flat_map(|(_, _, l)| l.misses.iter().cloned())
        .take(limit)
        .collect();
    let base = ServeConfig::default().store.prepare_seed;
    let mut out = Vec::new();
    let mut quiet = Tracer::new(false);
    for (graph, ordering, epoch) in misses {
        let Ok(g) = pass.mirror.store.graph_at(&graph, Some(epoch)) else {
            continue;
        };
        let seed = prepare_seed_at(base, &graph, ordering.name(), epoch);
        let (built, split) = prepare_split(
            &mut quiet,
            0,
            ROOT,
            &g,
            ordering,
            seed,
            KernelPlan::default(),
        );
        if let Ok((entry, _, _)) = pass.mirror.store.prepare_at(&graph, ordering, Some(epoch)) {
            if entry.inverse != built.inverse || entry.bytes != built.bytes {
                problems.push(format!(
                    "step-by-step prepare of {graph}/{}@{epoch} differs from the store's",
                    ordering.name()
                ));
            }
        }
        out.push(split);
    }
    out
}

/// Per-layer metrics from the untraced and traced passes.
pub fn layers(
    env: &Env,
    socket: &SocketRun,
    plain: &Pass,
    traced: &Pass,
    values: &mut Values,
    problems: &mut Vec<String>,
) {
    let shapes = env.shapes();
    // the connection layer's share: socket p50 minus in-process p50
    let replayed = plain.by_shape();
    for (shape, v) in socket.by_shape() {
        if let Some(r) = replayed.get(&shape) {
            let s = quantile(&v, 0.5).unwrap_or(0.0);
            let p = quantile(r, 0.5).unwrap_or(0.0);
            values.set(
                format!("event_loop.residual_us.{}", shapes[shape as usize]),
                (s - p) / 1e3,
                r.len() as u64,
            );
        }
    }
    let analysis = trace::analyze(&traced.tracer.spans);
    // per-request means run over every replayed request, set-up included
    let requests = analysis.durations.get("request").map_or(1, Vec::len).max(1) as f64;
    let total_of = |layer: &str| -> (f64, u64) {
        analysis
            .durations
            .get(layer)
            .map_or((0.0, 0), |d| (d.iter().sum::<u64>() as f64, d.len() as u64))
    };
    let mean_of = |layer: &str| -> (f64, u64) {
        let (sum, n) = total_of(layer);
        (if n > 0 { sum / n as f64 } else { 0.0 }, n)
    };
    for (metric, layer) in [
        ("protocol.decode_us", "protocol.decode"),
        ("protocol.encode_us", "protocol.encode"),
        ("protocol.client_decode_us", "protocol.client_decode"),
    ] {
        let (sum, n) = total_of(layer);
        values.set(metric, sum / requests / 1e3, n);
    }
    for (metric, layer, scale) in [
        ("admission.price_us", "admission.price", 1e3),
        ("admission.admit_wait_us", "admission.admit", 1e3),
        ("store.plan_us", "store.plan", 1e3),
        ("store.edit_ms", "store.edit", 1e6),
        ("store.delta_window_us", "store.delta_window", 1e3),
    ] {
        let (m, n) = mean_of(layer);
        values.set(metric, m / scale, n);
    }
    let logs: Vec<(u8, &ReqLog)> = traced.requests.iter().map(|(s, _, l)| (*s, l)).collect();
    let hits: Vec<f64> = logs
        .iter()
        .flat_map(|(_, l)| l.prepares.iter().filter(|p| p.1).map(|p| p.0 as f64))
        .collect();
    let misses: Vec<f64> = logs
        .iter()
        .flat_map(|(_, l)| l.prepares.iter().filter(|p| !p.1).map(|p| p.0 as f64))
        .collect();
    values.set("store.prepare_hit_us", mean(&hits) / 1e3, hits.len() as u64);
    values.set(
        "store.prepare_miss_ms",
        mean(&misses) / 1e6,
        misses.len() as u64,
    );
    let splits = miss_split(traced, 6, problems);
    for (k, metric) in [
        "order.relabel_ms",
        "order.orient_ms",
        "oracle.build_ms",
        "kernel.build_ms",
        "compressed.build_ms",
    ]
    .iter()
    .enumerate()
    {
        let v: Vec<f64> = splits.iter().map(|s| s[k] as f64 / 1e6).collect();
        values.set(*metric, median(&v), v.len() as u64);
    }
    // delta layer
    let lists: Vec<f64> = analysis
        .durations
        .get("delta.list_new")
        .map(|d| d.iter().map(|&x| x as f64).collect())
        .unwrap_or_default();
    let deltas: Vec<(u64, u64)> = logs.iter().filter_map(|(_, l)| l.delta).collect();
    if !deltas.is_empty() {
        // two delta.list_new spans per request: label mapping and the run
        let runs = deltas.len() as f64;
        values.set(
            "delta.list_new_ms",
            lists.iter().sum::<f64>() / runs / 1e6,
            deltas.len() as u64,
        );
        let (edges, ops) = deltas
            .iter()
            .fold((0u64, 0u64), |(e, o), &(de, dop)| (e + de, o + dop));
        values.set(
            "delta.ops_per_new_edge",
            if edges > 0 {
                ops as f64 / edges as f64
            } else {
                0.0
            },
            deltas.len() as u64,
        );
    }
    // execution
    let mut by_shape: BTreeMap<u8, Vec<f64>> = BTreeMap::new();
    let mut cells: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut exec_ns = 0u64;
    let mut runs = 0u64;
    for (shape, l) in logs {
        if let Some((method, policy, ns, ops)) = l.execute {
            if shape != SETUP {
                by_shape.entry(shape).or_default().push(ns as f64);
            }
            let c = cells.entry(format!("{method}.{policy}")).or_default();
            c.0 += ns;
            c.1 += ops;
            exec_ns += ns;
            runs += 1;
        }
        if let Some((policy, bytes)) = l.kernel_bytes {
            values.set(
                format!("kernel.bytes.{policy}"),
                bytes as f64 / crate::sys::MIB,
                1,
            );
        }
    }
    for (shape, v) in &by_shape {
        values.set(
            format!("resilient.execute_ms.{}", shapes[*shape as usize]),
            mean(v) / 1e6,
            v.len() as u64,
        );
    }
    for (cell, (ns, ops)) in cells {
        if ops > 0 {
            values.set(
                format!("kernel.ns_per_op.{cell}.plain"),
                ns as f64 / ops as f64,
                1,
            );
        }
    }
    let spans = traced.mirror.recorder.spans();
    let chunks = spans
        .iter()
        .filter(|s| !s.is_setup() && s.attempt == 0)
        .count() as f64;
    let busy: u64 = spans
        .iter()
        .filter(|s| !s.is_setup())
        .map(|s| s.dur_ns)
        .sum();
    if runs > 0 {
        values.set("resilient.chunks_per_run", chunks / runs as f64, runs);
        let capacity = (exec_ns * ServeConfig::default().workers as u64) as f64;
        values.set(
            "resilient.worker_idle_share",
            (1.0 - busy as f64 / capacity).max(0.0),
            runs,
        );
    }
    // the trace itself
    trace::report(&analysis, values);
    let ((traced_ns, n), (plain_ns, _)) = (traced.window_ns(), plain.window_ns());
    values.set(
        "trace.overhead_share",
        traced_ns as f64 / plain_ns.max(1) as f64 - 1.0,
        n,
    );
}
