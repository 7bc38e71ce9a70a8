//! The `trilist-serve` wire protocol: length-prefixed, versioned binary
//! frames carrying typed requests and responses.
//!
//! # Frame grammar
//!
//! ```text
//! frame   := len:u32le  version:u8(=1)  kind:u8  payload
//! len     := 2 + |payload|            (capped at MAX_FRAME_BYTES)
//! str     := len:u32le utf8-bytes     (validated before allocation)
//! arr<T>  := count:u32le T*           (count validated before allocation)
//! bool    := u8 ∈ {0, 1}
//! f64     := raw IEEE-754 bits as u64le (bit-exact round-trip)
//! ```
//!
//! Request kinds occupy `0x01..=0x0A`, response kinds `0x81..=0x89`, and
//! `0xFF` is the typed error frame. Every decode failure surfaces as a
//! [`WireError`] — the decoder has no panicking paths and never allocates
//! beyond the bytes actually received (`tests/serve_props.rs`).

use crate::codec::{Reader, WireError, Writer};
use std::io::{Read, Write};
use trilist_core::CostReport;

/// Protocol version carried in every frame header.
pub const PROTOCOL_VERSION: u8 = 1;

/// Hard cap on `len`: a frame larger than this is rejected before its
/// body is read, bounding what one connection can make the server buffer.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// A request frame, client → server.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Register an undirected simple graph under a name.
    RegisterGraph {
        /// Name later requests refer to.
        name: String,
        /// Node count.
        n: u32,
        /// Undirected edges (`u < v` not required; validation is the
        /// server's [`trilist_graph::Graph::from_edges`]).
        edges: Vec<(u32, u32)>,
    },
    /// List triangles.
    List(ListParams),
    /// Count triangles (same execution, no triangle payload back).
    Count(ListParams),
    /// Price a request with the paper's cost model without running it.
    ModelPredict {
        /// Registered graph name.
        graph: String,
        /// Method name (`T1`, `E4`, …).
        method: String,
        /// Permutation family name (`desc`, `rr`, …).
        family: String,
    },
    /// Report the autotuner's [`PlanInfo`] for a registered graph — the
    /// plan unpinned `List`/`Count` requests execute under.
    ExplainPlan {
        /// Registered graph name.
        graph: String,
    },
    /// Append a batch of new undirected edges to a registered graph,
    /// creating a new epoch. Validation is all-or-nothing: a batch
    /// containing a duplicate, a self-loop, an out-of-range endpoint, or
    /// an edge already present applies nothing.
    AddEdges {
        /// Registered graph name.
        graph: String,
        /// Undirected edges to insert (order within the batch is
        /// irrelevant; the resulting epoch is batch-order independent).
        edges: Vec<(u32, u32)>,
    },
    /// Remove a batch of existing edges, creating a new epoch. Same
    /// all-or-nothing validation as `AddEdges`.
    RemoveEdges {
        /// Registered graph name.
        graph: String,
        /// Undirected edges to delete (must all be present).
        edges: Vec<(u32, u32)>,
    },
    /// List only the triangles that exist at `to_epoch` but not at
    /// `from_epoch` — every triangle containing at least one net-new
    /// edge of the window — without re-listing the whole graph.
    ListNewTriangles(DeltaParams),
    /// Fetch server counters (cache, admission, recorder, gauge).
    Stats,
    /// Graceful drain: stop accepting work, finish in-flight requests.
    Shutdown,
}

/// Parameters shared by `List` and `Count`.
#[derive(Clone, Debug, PartialEq)]
pub struct ListParams {
    /// Registered graph name.
    pub graph: String,
    /// Method name (`T1`, `T2`, `E1`, `E4`).
    pub method: String,
    /// Permutation family name (`asc`, `desc`, `rr`, `crr`, `uniform`,
    /// `degen`).
    pub family: String,
    /// Kernel policy name (`paper`, `adaptive` or `bitset`; empty = the
    /// graph's plan).
    pub policy: String,
    /// Listing threads (0 = server default).
    pub threads: u16,
    /// Per-request deadline in milliseconds (0 = none).
    pub deadline_ms: u64,
    /// Per-request memory ceiling in bytes (0 = server default).
    pub memory_bytes: u64,
    /// Resume token from a previous partial response (empty = fresh run).
    pub resume: String,
}

impl ListParams {
    /// Fresh-run parameters with server-default knobs.
    pub fn new(graph: &str, method: &str, family: &str, policy: &str) -> Self {
        ListParams {
            graph: graph.to_string(),
            method: method.to_string(),
            family: family.to_string(),
            policy: policy.to_string(),
            threads: 0,
            deadline_ms: 0,
            memory_bytes: 0,
            resume: String::new(),
        }
    }
}

/// Parameters for `ListNewTriangles`: an epoch window plus the same
/// execution knobs as [`ListParams`] (minus `method` — the delta driver
/// is an E1-style iteration over the window's net-new edges).
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaParams {
    /// Registered graph name.
    pub graph: String,
    /// Window start (the epoch whose triangles are "old").
    pub from_epoch: u64,
    /// Window end. [`DeltaParams::LATEST`] resolves to the graph's
    /// latest epoch at execution time; a resumed chain should carry the
    /// resolved value from the first response so edits landing mid-chain
    /// cannot shift the window.
    pub to_epoch: u64,
    /// Permutation family name (empty = the graph's autotuned plan).
    pub family: String,
    /// Kernel policy name (empty = the graph's autotuned plan).
    pub policy: String,
    /// Listing threads (0 = server default).
    pub threads: u16,
    /// Per-request deadline in milliseconds (0 = none).
    pub deadline_ms: u64,
    /// Per-request memory ceiling in bytes (0 = server default).
    pub memory_bytes: u64,
    /// Resume token from a previous partial response (empty = fresh run).
    pub resume: String,
}

impl DeltaParams {
    /// Sentinel `to_epoch` meaning "the latest epoch when the request
    /// executes" (`0` cannot serve — it is a valid epoch).
    pub const LATEST: u64 = u64::MAX;

    /// Fresh-run parameters with server-default knobs and the plan's
    /// family/policy.
    pub fn new(graph: &str, from_epoch: u64, to_epoch: u64) -> Self {
        DeltaParams {
            graph: graph.to_string(),
            from_epoch,
            to_epoch,
            family: String::new(),
            policy: String::new(),
            threads: 0,
            deadline_ms: 0,
            memory_bytes: 0,
            resume: String::new(),
        }
    }
}

/// A response frame, server → client.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Graph accepted.
    Registered {
        /// Node count as parsed.
        n: u32,
        /// Undirected edge count.
        m: u64,
    },
    /// Outcome of a `List` request.
    ListResult(RunResult),
    /// Outcome of a `Count` request (no triangles on the wire).
    CountResult(RunResult),
    /// Cost-model price for a prospective request.
    Predicted {
        /// Expected operations per node (Proposition 4).
        per_node: f64,
        /// Expected total operations.
        total_ops: f64,
        /// Nodes priced over.
        n: u64,
    },
    /// The autotuner's verdict for a graph.
    PlanResult(PlanInfo),
    /// Named counters, in a stable server-defined order.
    StatsResult(Vec<(String, u64)>),
    /// Outcome of an `AddEdges`/`RemoveEdges` batch.
    EditResult(EditInfo),
    /// Outcome of a `ListNewTriangles` request.
    NewTrianglesResult(DeltaRunResult),
    /// Drain acknowledged; in-flight requests will finish.
    ShutdownAck,
    /// Typed failure.
    Error(ErrorFrame),
}

/// The `AddEdges`/`RemoveEdges` answer: the epoch the batch created and
/// the store's compaction posture after it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EditInfo {
    /// The epoch this batch created (the graph's new latest).
    pub epoch: u64,
    /// Edges the batch toggled.
    pub applied: u64,
    /// Undirected edge count at the new epoch.
    pub m: u64,
    /// Edges edited since the last compaction, across all batches.
    pub delta_edges: u64,
    /// `delta_edges / max(compacted m, 1)` — the compaction trigger
    /// input.
    pub delta_ratio: f64,
    /// Whether this batch nudged the background compaction lane.
    pub compacting: bool,
}

/// The `ListNewTriangles` answer: the resolved epoch window, the window's
/// net edge churn, and a [`RunResult`] whose triangles are exactly the
/// new triangles of the window (each containing ≥ 1 net-new edge). The
/// embedded result's resume token and piece table follow the same chain
/// contract as `List` — [`merge_pieces`] over the chain's `result`s
/// reconstructs the exact sequential order.
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaRunResult {
    /// Window start, as requested.
    pub from_epoch: u64,
    /// Window end, resolved ([`DeltaParams::LATEST`] never echoes back).
    pub to_epoch: u64,
    /// Net-new edges in the window (inserted and still present).
    pub new_edges: u64,
    /// Net-removed edges in the window (present before, gone after).
    pub removed_edges: u64,
    /// The run itself: cost accounting, triangles, resume continuity.
    pub result: RunResult,
}

/// The `ExplainPlan` answer: the stored [`ListingPlan`] by name, plus the
/// ranking context (predicted winner vs paper-default cost, candidates
/// evaluated, whether the degree sample was a reservoir).
///
/// [`ListingPlan`]: trilist_core::ListingPlan
#[derive(Clone, Debug, PartialEq)]
pub struct PlanInfo {
    /// Chosen ordering name (`desc`, …, `split`, `refined`).
    pub ordering: String,
    /// Chosen method name (`T1`, `T2`, `E1`, `E4`).
    pub method: String,
    /// Chosen kernel policy name (`paper`, `adaptive`, `bitset`).
    pub policy: String,
    /// Whether runs list from the compressed CSR.
    pub compressed: bool,
    /// Model-predicted elementary operations of the winner.
    pub predicted_ops: f64,
    /// Winner operations scaled through the machine profile (seconds).
    pub predicted_seconds: f64,
    /// Predicted operations of the paper default (E1 under θ_D).
    pub default_ops: f64,
    /// Paper-default operations in profile seconds.
    pub default_seconds: f64,
    /// Candidates the autotuner evaluated (0 = no autotuning mode).
    pub evaluations: u64,
    /// Whether family pricing ran on a reservoir degree sample.
    pub sampled: bool,
}

/// One executed (possibly partial) listing/counting run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Did every chunk complete?
    pub complete: bool,
    /// Stop reason when partial (empty when complete).
    pub stop_reason: String,
    /// Was the prepared graph served from cache?
    pub cache_hit: bool,
    /// Exact operation accounting, byte-identical to an in-process run.
    pub cost: CostReport,
    /// Resume token for the unvisited remainder (empty when complete).
    /// Feed it back via [`ListParams::resume`] to continue the run.
    pub resume: String,
    /// `(global chunk index, triangle count)` per piece, ascending and
    /// aligned with `triangles`. A resume chain's responses carry
    /// interleaved chunk indices; merging all pieces by index (see
    /// [`merge_pieces`]) reconstructs the exact sequential order. Empty
    /// for `Count`.
    pub chunks: Vec<(u32, u32)>,
    /// Triangles in original node IDs (each triple sorted ascending), in
    /// deterministic chunk order. Always empty for `Count`.
    pub triangles: Vec<(u32, u32, u32)>,
}

/// One `(global chunk index, triangles)` piece of a (possibly partial)
/// run, as split back out of a [`RunResult`] by [`RunResult::pieces`].
pub type Piece = (u32, Vec<(u32, u32, u32)>);

impl RunResult {
    /// Splits the flat triangle list back into `(chunk index, triangles)`
    /// pieces using the piece table. Pieces whose counts disagree with the
    /// triangle list yield `None` (a malformed or hand-edited response).
    pub fn pieces(&self) -> Option<Vec<Piece>> {
        let total: usize = self.chunks.iter().map(|&(_, k)| k as usize).sum();
        if total != self.triangles.len() {
            return None;
        }
        let mut at = 0usize;
        let mut out = Vec::with_capacity(self.chunks.len());
        for &(chunk, count) in &self.chunks {
            let next = at + count as usize;
            out.push((chunk, self.triangles[at..next].to_vec()));
            at = next;
        }
        Some(out)
    }
}

/// Client-side merge of a resume chain: every piece from every response,
/// ordered by global chunk index — byte-identical to the triangle list of
/// one uninterrupted run. Returns `None` if any response's piece table is
/// inconsistent or two responses claim the same chunk.
pub fn merge_pieces(results: &[RunResult]) -> Option<Vec<(u32, u32, u32)>> {
    let mut by_chunk = std::collections::BTreeMap::new();
    for res in results {
        for (chunk, tris) in res.pieces()? {
            if by_chunk.insert(chunk, tris).is_some() {
                return None;
            }
        }
    }
    Some(by_chunk.into_values().flatten().collect())
}

/// Typed error codes. Distinct codes let clients tell load-shedding
/// (retryable) apart from caller bugs (not retryable).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed frame or field.
    Protocol,
    /// The named graph is not registered.
    UnknownGraph,
    /// Unknown method/family/policy, invalid resume token, or an invalid
    /// graph on registration.
    BadRequest,
    /// Admission control: concurrency limit and queue are full.
    RejectedBusy,
    /// Admission control: the cost model priced the request over the
    /// server's operations ceiling.
    RejectedCost,
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrorCode::Protocol => 1,
            ErrorCode::UnknownGraph => 2,
            ErrorCode::BadRequest => 3,
            ErrorCode::RejectedBusy => 4,
            ErrorCode::RejectedCost => 5,
            ErrorCode::ShuttingDown => 6,
            ErrorCode::Internal => 7,
        }
    }

    fn from_byte(b: u8) -> Result<Self, WireError> {
        Ok(match b {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::UnknownGraph,
            3 => ErrorCode::BadRequest,
            4 => ErrorCode::RejectedBusy,
            5 => ErrorCode::RejectedCost,
            6 => ErrorCode::ShuttingDown,
            7 => ErrorCode::Internal,
            _ => return Err(WireError::Invalid("unknown error code")),
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ErrorCode::Protocol => "protocol",
            ErrorCode::UnknownGraph => "unknown-graph",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::RejectedBusy => "rejected-busy",
            ErrorCode::RejectedCost => "rejected-cost",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Internal => "internal",
        })
    }
}

/// The error response payload.
#[derive(Clone, Debug, PartialEq)]
pub struct ErrorFrame {
    /// What class of failure.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorFrame {
    /// Convenience constructor.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ErrorFrame {
            code,
            message: message.into(),
        }
    }
}

const KIND_REGISTER: u8 = 0x01;
const KIND_LIST: u8 = 0x02;
const KIND_COUNT: u8 = 0x03;
const KIND_PREDICT: u8 = 0x04;
const KIND_STATS: u8 = 0x05;
const KIND_SHUTDOWN: u8 = 0x06;
const KIND_EXPLAIN_PLAN: u8 = 0x07;
const KIND_ADD_EDGES: u8 = 0x08;
const KIND_REMOVE_EDGES: u8 = 0x09;
const KIND_LIST_NEW: u8 = 0x0A;
const KIND_REGISTERED: u8 = 0x81;
const KIND_LIST_RESULT: u8 = 0x82;
const KIND_COUNT_RESULT: u8 = 0x83;
const KIND_PREDICTED: u8 = 0x84;
const KIND_STATS_RESULT: u8 = 0x85;
const KIND_SHUTDOWN_ACK: u8 = 0x86;
const KIND_PLAN_RESULT: u8 = 0x87;
const KIND_EDIT_RESULT: u8 = 0x88;
const KIND_LIST_NEW_RESULT: u8 = 0x89;
const KIND_ERROR: u8 = 0xFF;

fn put_cost(w: &mut Writer, c: &CostReport) {
    w.u64(c.triangles);
    w.u64(c.lookups);
    w.u64(c.local);
    w.u64(c.remote);
    w.u64(c.hash_inserts);
    w.u64(c.pointer_advances);
    w.bool(c.overflowed);
}

fn get_cost(r: &mut Reader<'_>) -> Result<CostReport, WireError> {
    Ok(CostReport {
        triangles: r.u64()?,
        lookups: r.u64()?,
        local: r.u64()?,
        remote: r.u64()?,
        hash_inserts: r.u64()?,
        pointer_advances: r.u64()?,
        overflowed: r.bool()?,
    })
}

fn put_list_params(w: &mut Writer, p: &ListParams) {
    w.string(&p.graph);
    w.string(&p.method);
    w.string(&p.family);
    w.string(&p.policy);
    w.u16(p.threads);
    w.u64(p.deadline_ms);
    w.u64(p.memory_bytes);
    w.string(&p.resume);
}

fn get_list_params(r: &mut Reader<'_>) -> Result<ListParams, WireError> {
    Ok(ListParams {
        graph: r.string()?,
        method: r.string()?,
        family: r.string()?,
        policy: r.string()?,
        threads: r.u16()?,
        deadline_ms: r.u64()?,
        memory_bytes: r.u64()?,
        resume: r.string()?,
    })
}

fn put_run_result(w: &mut Writer, res: &RunResult) {
    w.bool(res.complete);
    w.string(&res.stop_reason);
    w.bool(res.cache_hit);
    put_cost(w, &res.cost);
    w.string(&res.resume);
    w.array(&res.chunks, |w, &(chunk, count)| {
        w.u32(chunk);
        w.u32(count);
    });
    w.array(&res.triangles, |w, &(x, y, z)| {
        w.u32(x);
        w.u32(y);
        w.u32(z);
    });
}

fn put_delta_params(w: &mut Writer, p: &DeltaParams) {
    w.string(&p.graph);
    w.u64(p.from_epoch);
    w.u64(p.to_epoch);
    w.string(&p.family);
    w.string(&p.policy);
    w.u16(p.threads);
    w.u64(p.deadline_ms);
    w.u64(p.memory_bytes);
    w.string(&p.resume);
}

fn get_delta_params(r: &mut Reader<'_>) -> Result<DeltaParams, WireError> {
    Ok(DeltaParams {
        graph: r.string()?,
        from_epoch: r.u64()?,
        to_epoch: r.u64()?,
        family: r.string()?,
        policy: r.string()?,
        threads: r.u16()?,
        deadline_ms: r.u64()?,
        memory_bytes: r.u64()?,
        resume: r.string()?,
    })
}

fn get_run_result(r: &mut Reader<'_>) -> Result<RunResult, WireError> {
    Ok(RunResult {
        complete: r.bool()?,
        stop_reason: r.string()?,
        cache_hit: r.bool()?,
        cost: get_cost(r)?,
        resume: r.string()?,
        chunks: r.array(8, |r| Ok((r.u32()?, r.u32()?)))?,
        triangles: r.array(12, |r| Ok((r.u32()?, r.u32()?, r.u32()?)))?,
    })
}

impl Request {
    /// The frame kind byte.
    pub fn kind(&self) -> u8 {
        match self {
            Request::RegisterGraph { .. } => KIND_REGISTER,
            Request::List(_) => KIND_LIST,
            Request::Count(_) => KIND_COUNT,
            Request::ModelPredict { .. } => KIND_PREDICT,
            Request::ExplainPlan { .. } => KIND_EXPLAIN_PLAN,
            Request::AddEdges { .. } => KIND_ADD_EDGES,
            Request::RemoveEdges { .. } => KIND_REMOVE_EDGES,
            Request::ListNewTriangles(_) => KIND_LIST_NEW,
            Request::Stats => KIND_STATS,
            Request::Shutdown => KIND_SHUTDOWN,
        }
    }

    /// Encodes the payload (header excluded).
    pub fn payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::RegisterGraph { name, n, edges } => {
                w.string(name);
                w.u32(*n);
                w.array(edges, |w, &(u, v)| {
                    w.u32(u);
                    w.u32(v);
                });
            }
            Request::List(p) | Request::Count(p) => put_list_params(&mut w, p),
            Request::ModelPredict {
                graph,
                method,
                family,
            } => {
                w.string(graph);
                w.string(method);
                w.string(family);
            }
            Request::ExplainPlan { graph } => w.string(graph),
            Request::AddEdges { graph, edges } | Request::RemoveEdges { graph, edges } => {
                w.string(graph);
                w.array(edges, |w, &(u, v)| {
                    w.u32(u);
                    w.u32(v);
                });
            }
            Request::ListNewTriangles(p) => put_delta_params(&mut w, p),
            Request::Stats | Request::Shutdown => {}
        }
        w.into_bytes()
    }

    /// Decodes a request from its kind byte and payload.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(payload);
        let req = match kind {
            KIND_REGISTER => Request::RegisterGraph {
                name: r.string()?,
                n: r.u32()?,
                edges: r.array(8, |r| Ok((r.u32()?, r.u32()?)))?,
            },
            KIND_LIST => Request::List(get_list_params(&mut r)?),
            KIND_COUNT => Request::Count(get_list_params(&mut r)?),
            KIND_PREDICT => Request::ModelPredict {
                graph: r.string()?,
                method: r.string()?,
                family: r.string()?,
            },
            KIND_EXPLAIN_PLAN => Request::ExplainPlan { graph: r.string()? },
            KIND_ADD_EDGES => Request::AddEdges {
                graph: r.string()?,
                edges: r.array(8, |r| Ok((r.u32()?, r.u32()?)))?,
            },
            KIND_REMOVE_EDGES => Request::RemoveEdges {
                graph: r.string()?,
                edges: r.array(8, |r| Ok((r.u32()?, r.u32()?)))?,
            },
            KIND_LIST_NEW => Request::ListNewTriangles(get_delta_params(&mut r)?),
            KIND_STATS => Request::Stats,
            KIND_SHUTDOWN => Request::Shutdown,
            other => return Err(WireError::UnknownKind(other)),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// The frame kind byte.
    pub fn kind(&self) -> u8 {
        match self {
            Response::Registered { .. } => KIND_REGISTERED,
            Response::ListResult(_) => KIND_LIST_RESULT,
            Response::CountResult(_) => KIND_COUNT_RESULT,
            Response::Predicted { .. } => KIND_PREDICTED,
            Response::PlanResult(_) => KIND_PLAN_RESULT,
            Response::StatsResult(_) => KIND_STATS_RESULT,
            Response::EditResult(_) => KIND_EDIT_RESULT,
            Response::NewTrianglesResult(_) => KIND_LIST_NEW_RESULT,
            Response::ShutdownAck => KIND_SHUTDOWN_ACK,
            Response::Error(_) => KIND_ERROR,
        }
    }

    /// Encodes the payload (header excluded).
    pub fn payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Response::Registered { n, m } => {
                w.u32(*n);
                w.u64(*m);
            }
            Response::ListResult(res) | Response::CountResult(res) => put_run_result(&mut w, res),
            Response::Predicted {
                per_node,
                total_ops,
                n,
            } => {
                w.f64(*per_node);
                w.f64(*total_ops);
                w.u64(*n);
            }
            Response::PlanResult(info) => {
                w.string(&info.ordering);
                w.string(&info.method);
                w.string(&info.policy);
                w.bool(info.compressed);
                w.f64(info.predicted_ops);
                w.f64(info.predicted_seconds);
                w.f64(info.default_ops);
                w.f64(info.default_seconds);
                w.u64(info.evaluations);
                w.bool(info.sampled);
            }
            Response::StatsResult(fields) => {
                w.array(fields, |w, (name, value)| {
                    w.string(name);
                    w.u64(*value);
                });
            }
            Response::EditResult(info) => {
                w.u64(info.epoch);
                w.u64(info.applied);
                w.u64(info.m);
                w.u64(info.delta_edges);
                w.f64(info.delta_ratio);
                w.bool(info.compacting);
            }
            Response::NewTrianglesResult(res) => {
                w.u64(res.from_epoch);
                w.u64(res.to_epoch);
                w.u64(res.new_edges);
                w.u64(res.removed_edges);
                put_run_result(&mut w, &res.result);
            }
            Response::ShutdownAck => {}
            Response::Error(e) => {
                w.u8(e.code.to_byte());
                w.string(&e.message);
            }
        }
        w.into_bytes()
    }

    /// Decodes a response from its kind byte and payload.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(payload);
        let resp = match kind {
            KIND_REGISTERED => Response::Registered {
                n: r.u32()?,
                m: r.u64()?,
            },
            KIND_LIST_RESULT => Response::ListResult(get_run_result(&mut r)?),
            KIND_COUNT_RESULT => Response::CountResult(get_run_result(&mut r)?),
            KIND_PREDICTED => Response::Predicted {
                per_node: r.f64()?,
                total_ops: r.f64()?,
                n: r.u64()?,
            },
            KIND_PLAN_RESULT => Response::PlanResult(PlanInfo {
                ordering: r.string()?,
                method: r.string()?,
                policy: r.string()?,
                compressed: r.bool()?,
                predicted_ops: r.f64()?,
                predicted_seconds: r.f64()?,
                default_ops: r.f64()?,
                default_seconds: r.f64()?,
                evaluations: r.u64()?,
                sampled: r.bool()?,
            }),
            KIND_STATS_RESULT => {
                Response::StatsResult(r.array(12, |r| Ok((r.string()?, r.u64()?)))?)
            }
            KIND_EDIT_RESULT => Response::EditResult(EditInfo {
                epoch: r.u64()?,
                applied: r.u64()?,
                m: r.u64()?,
                delta_edges: r.u64()?,
                delta_ratio: r.f64()?,
                compacting: r.bool()?,
            }),
            KIND_LIST_NEW_RESULT => Response::NewTrianglesResult(DeltaRunResult {
                from_epoch: r.u64()?,
                to_epoch: r.u64()?,
                new_edges: r.u64()?,
                removed_edges: r.u64()?,
                result: get_run_result(&mut r)?,
            }),
            KIND_SHUTDOWN_ACK => Response::ShutdownAck,
            KIND_ERROR => Response::Error(ErrorFrame {
                code: ErrorCode::from_byte(r.u8()?)?,
                message: r.string()?,
            }),
            other => return Err(WireError::UnknownKind(other)),
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Wraps a kind + payload into a full frame (`len`, version, kind, body).
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let len = 2 + payload.len() as u32;
    let mut out = Vec::with_capacity(4 + len as usize);
    out.extend_from_slice(&len.to_le_bytes());
    out.push(PROTOCOL_VERSION);
    out.push(kind);
    out.extend_from_slice(payload);
    out
}

/// Scans an accumulation buffer for one complete frame without consuming
/// it: `Ok(None)` means more bytes are needed (a short header — even a
/// 3-byte one — is *never* an error, because more of it may still be in
/// flight); `Ok(Some((kind, total)))` means `buf[..total]` holds a whole
/// frame of that kind; `Err` means the bytes already present violate the
/// framing and the connection cannot resync.
///
/// The event loop's connection state machine parses through this one
/// function, so the server rejects exactly the byte streams this rejects,
/// answering with the same typed [`WireError`] — and has no panicking
/// path on a short read (the bounds-checked [`Reader`] keeps that safety
/// local rather than resting on a length check elsewhere).
pub fn scan_frame(buf: &[u8]) -> Result<Option<(u8, usize)>, WireError> {
    let mut r = Reader::new(buf);
    let len = match r.u32() {
        Ok(len) => len,
        Err(WireError::UnexpectedEof { .. }) => return Ok(None),
        Err(e) => return Err(e),
    };
    if len < 2 {
        return Err(WireError::Invalid("frame length below header size"));
    }
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized {
            declared: len as u64,
            limit: MAX_FRAME_BYTES as u64,
        });
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let version = buf[4];
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    Ok(Some((buf[5], total)))
}

/// Splits a standalone byte buffer into `(kind, payload)`, validating the
/// header exactly as the streaming reader does. Used by the fuzz suite to
/// drive the decoder without a socket.
pub fn decode_frame(buf: &[u8]) -> Result<(u8, &[u8]), WireError> {
    let mut r = Reader::new(buf);
    let len = r.u32()?;
    if len < 2 {
        return Err(WireError::Invalid("frame length below header size"));
    }
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized {
            declared: len as u64,
            limit: MAX_FRAME_BYTES as u64,
        });
    }
    let version = r.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = r.u8()?;
    let body = r.bytes(len as usize - 2)?;
    r.finish()?;
    Ok((kind, body))
}

/// A framed-stream failure: transport or protocol.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (including EOF mid-frame).
    Io(std::io::Error),
    /// The bytes violated the protocol.
    Wire(WireError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport: {e}"),
            FrameError::Wire(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

/// Reads one frame from a stream: header first, then exactly the declared
/// body. The length is validated against [`MAX_FRAME_BYTES`] *before* the
/// body buffer is allocated.
pub fn read_frame(stream: &mut impl Read) -> Result<(u8, Vec<u8>), FrameError> {
    let mut head = [0u8; 6];
    stream.read_exact(&mut head)?;
    // Parse the fixed header through the bounds-checked Reader rather than
    // indexing + `try_into().unwrap()`: the unwrap was unreachable (the
    // array is 6 bytes by construction) but the Reader makes that a typed
    // guarantee instead of an invariant the next edit could silently break.
    let mut r = Reader::new(&head);
    let len = r.u32()?;
    if len < 2 {
        return Err(WireError::Invalid("frame length below header size").into());
    }
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized {
            declared: len as u64,
            limit: MAX_FRAME_BYTES as u64,
        }
        .into());
    }
    let version = r.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(version).into());
    }
    let kind = r.u8()?;
    let mut body = vec![0u8; len as usize - 2];
    stream.read_exact(&mut body)?;
    Ok((kind, body))
}

/// Writes one frame to a stream.
pub fn write_frame(stream: &mut impl Write, kind: u8, payload: &[u8]) -> std::io::Result<()> {
    stream.write_all(&encode_frame(kind, payload))?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_frame_rejects_bad_headers_with_typed_errors() {
        // Short header: transport error (EOF), never a panic.
        let mut short: &[u8] = &[3, 0, 0];
        assert!(matches!(read_frame(&mut short), Err(FrameError::Io(_))));

        // Wrong protocol version.
        let mut frame = encode_frame(KIND_STATS, &[]);
        frame[4] ^= 0xFF;
        let mut cursor: &[u8] = &frame;
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Wire(WireError::BadVersion(_)))
        ));

        // Declared length below the 2-byte header minimum.
        let mut tiny = encode_frame(KIND_STATS, &[]);
        tiny[0] = 1;
        let mut cursor: &[u8] = &tiny;
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Wire(WireError::Invalid(_)))
        ));

        // Declared length beyond the frame cap: rejected before the body
        // buffer is allocated.
        let mut huge = encode_frame(KIND_STATS, &[]);
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor: &[u8] = &huge;
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Wire(WireError::Oversized { .. }))
        ));

        // Body shorter than declared: transport error.
        let mut truncated = encode_frame(KIND_STATS, &[1, 2, 3, 4]);
        truncated.truncate(truncated.len() - 2);
        let mut cursor: &[u8] = &truncated;
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Io(_))));

        // And a well-formed frame still parses.
        let good = encode_frame(KIND_STATS, &[]);
        let mut cursor: &[u8] = &good;
        let (kind, body) = read_frame(&mut cursor).unwrap();
        assert_eq!(kind, KIND_STATS);
        assert!(body.is_empty());
    }

    fn round_trip_request(req: &Request) {
        let frame = encode_frame(req.kind(), &req.payload());
        let (kind, body) = decode_frame(&frame).unwrap();
        assert_eq!(&Request::decode(kind, body).unwrap(), req);
    }

    fn round_trip_response(resp: &Response) {
        let frame = encode_frame(resp.kind(), &resp.payload());
        let (kind, body) = decode_frame(&frame).unwrap();
        assert_eq!(&Response::decode(kind, body).unwrap(), resp);
    }

    #[test]
    fn every_frame_type_round_trips() {
        round_trip_request(&Request::RegisterGraph {
            name: "k4".into(),
            n: 4,
            edges: vec![(0, 1), (2, 3)],
        });
        round_trip_request(&Request::List(ListParams::new("g", "T1", "desc", "paper")));
        round_trip_request(&Request::Count(ListParams {
            resume: "trilist-resume v1 E4 n=10 0:0-10".into(),
            ..ListParams::new("g", "E4", "crr", "adaptive")
        }));
        round_trip_request(&Request::ModelPredict {
            graph: "g".into(),
            method: "T2".into(),
            family: "rr".into(),
        });
        round_trip_request(&Request::ExplainPlan { graph: "g".into() });
        round_trip_request(&Request::AddEdges {
            graph: "g".into(),
            edges: vec![(0, 7), (3, 4)],
        });
        round_trip_request(&Request::RemoveEdges {
            graph: "g".into(),
            edges: vec![(1, 2)],
        });
        round_trip_request(&Request::ListNewTriangles(DeltaParams::new(
            "g",
            0,
            DeltaParams::LATEST,
        )));
        round_trip_request(&Request::ListNewTriangles(DeltaParams {
            family: "rr".into(),
            policy: "bitset".into(),
            threads: 3,
            deadline_ms: 12,
            memory_bytes: 1 << 20,
            resume: "trilist-resume v1 delta n=10 edges=4 1:2-4".into(),
            ..DeltaParams::new("g", 2, 5)
        }));
        round_trip_request(&Request::Stats);
        round_trip_request(&Request::Shutdown);
        round_trip_response(&Response::Registered { n: 10, m: 45 });
        round_trip_response(&Response::ListResult(RunResult {
            complete: false,
            stop_reason: "deadline exceeded".into(),
            cache_hit: true,
            cost: CostReport {
                triangles: 3,
                lookups: 17,
                overflowed: true,
                ..CostReport::default()
            },
            resume: "trilist-resume v1 T1 n=10 1:5-10".into(),
            chunks: vec![(0, 1), (2, 1)],
            triangles: vec![(0, 1, 2), (4, 5, 9)],
        }));
        round_trip_response(&Response::CountResult(RunResult {
            complete: true,
            stop_reason: String::new(),
            cache_hit: false,
            cost: CostReport::default(),
            resume: String::new(),
            chunks: vec![],
            triangles: vec![],
        }));
        round_trip_response(&Response::Predicted {
            per_node: 3.25,
            total_ops: -0.0,
            n: 7,
        });
        round_trip_response(&Response::PlanResult(PlanInfo {
            ordering: "refined".into(),
            method: "E4".into(),
            policy: "bitset".into(),
            compressed: true,
            predicted_ops: 1234.5,
            predicted_seconds: 0.125,
            default_ops: 2048.0,
            default_seconds: -0.0,
            evaluations: 96,
            sampled: true,
        }));
        round_trip_response(&Response::StatsResult(vec![
            ("cache_hits".into(), 3),
            ("gauge_bytes".into(), u64::MAX),
        ]));
        round_trip_response(&Response::EditResult(EditInfo {
            epoch: 3,
            applied: 2,
            m: 41,
            delta_edges: 6,
            delta_ratio: 0.15,
            compacting: true,
        }));
        round_trip_response(&Response::NewTrianglesResult(DeltaRunResult {
            from_epoch: 1,
            to_epoch: 3,
            new_edges: 2,
            removed_edges: 1,
            result: RunResult {
                complete: false,
                stop_reason: "deadline exceeded".into(),
                cache_hit: true,
                cost: CostReport {
                    triangles: 1,
                    lookups: 9,
                    ..CostReport::default()
                },
                resume: "trilist-resume v1 delta n=10 edges=2 1:1-2".into(),
                chunks: vec![(0, 1)],
                triangles: vec![(2, 5, 8)],
            },
        }));
        round_trip_response(&Response::ShutdownAck);
        round_trip_response(&Response::Error(ErrorFrame::new(
            ErrorCode::RejectedBusy,
            "queue full",
        )));
    }

    #[test]
    fn frame_header_violations_are_typed() {
        assert!(matches!(
            decode_frame(&[1, 0, 0]),
            Err(WireError::UnexpectedEof { .. })
        ));
        // len < 2
        assert!(matches!(
            decode_frame(&[1, 0, 0, 0, 1, 5]),
            Err(WireError::Invalid(_))
        ));
        // oversized len, rejected before body read
        let huge = (MAX_FRAME_BYTES + 1).to_le_bytes();
        assert!(matches!(
            decode_frame(&[huge[0], huge[1], huge[2], huge[3], 1, 2]),
            Err(WireError::Oversized { .. })
        ));
        // wrong version
        assert!(matches!(
            decode_frame(&[2, 0, 0, 0, 9, 5]),
            Err(WireError::BadVersion(9))
        ));
        // unknown kinds
        assert!(matches!(
            Request::decode(0x7E, &[]),
            Err(WireError::UnknownKind(0x7E))
        ));
        assert!(matches!(
            Response::decode(0x02, &[]),
            Err(WireError::UnknownKind(0x02))
        ));
        // trailing bytes after a complete message
        assert!(matches!(
            Request::decode(KIND_STATS, &[0]),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn scan_frame_short_headers_want_more_bytes() {
        // The regression this guards: a partial length prefix (0–3 bytes)
        // must read as "incomplete", not panic or error.
        assert_eq!(scan_frame(&[]), Ok(None));
        assert_eq!(scan_frame(&[7]), Ok(None));
        assert_eq!(scan_frame(&[7, 0]), Ok(None));
        assert_eq!(scan_frame(&[7, 0, 0]), Ok(None));
        // Full length prefix but incomplete body: still incomplete.
        assert_eq!(scan_frame(&[7, 0, 0, 0]), Ok(None));
        assert_eq!(scan_frame(&[7, 0, 0, 0, 1, 5, 0]), Ok(None));
    }

    #[test]
    fn scan_frame_finds_exactly_one_frame() {
        let frame = encode_frame(KIND_STATS, &[]);
        assert_eq!(scan_frame(&frame), Ok(Some((KIND_STATS, frame.len()))));
        // A second pipelined frame behind it does not confuse the scan.
        let mut two = frame.clone();
        two.extend_from_slice(&encode_frame(KIND_SHUTDOWN, &[]));
        assert_eq!(scan_frame(&two), Ok(Some((KIND_STATS, frame.len()))));
        // And scanning past the first finds the second.
        assert_eq!(
            scan_frame(&two[frame.len()..]),
            Ok(Some((KIND_SHUTDOWN, frame.len())))
        );
    }

    #[test]
    fn scan_frame_header_violations_are_typed() {
        // len < 2: unrecoverable framing error even with only the header.
        assert!(matches!(
            scan_frame(&[1, 0, 0, 0, 1, 5]),
            Err(WireError::Invalid(_))
        ));
        // Oversized length rejected from the 4-byte prefix alone, before
        // any body arrives (the cap is what bounds per-conn buffering).
        let huge = (MAX_FRAME_BYTES + 1).to_le_bytes();
        assert!(matches!(
            scan_frame(&huge),
            Err(WireError::Oversized { .. })
        ));
        // Version is only judged once the whole frame is present, so a
        // garbled version still reads as incomplete until then.
        assert_eq!(scan_frame(&[2, 0, 0, 0, 9]), Ok(None));
        assert!(matches!(
            scan_frame(&[2, 0, 0, 0, 9, 5]),
            Err(WireError::BadVersion(9))
        ));
    }

    #[test]
    fn piece_merge_reconstructs_sequential_order() {
        let base = RunResult {
            complete: false,
            stop_reason: "deadline exceeded".into(),
            cache_hit: false,
            cost: CostReport::default(),
            resume: String::new(),
            chunks: vec![],
            triangles: vec![],
        };
        // First response finished chunks 0 and 2, the resumed one 1 and 3.
        let first = RunResult {
            chunks: vec![(0, 2), (2, 1)],
            triangles: vec![(0, 1, 2), (0, 1, 3), (7, 8, 9)],
            ..base.clone()
        };
        let second = RunResult {
            complete: true,
            chunks: vec![(1, 1), (3, 1)],
            triangles: vec![(4, 5, 6), (10, 11, 12)],
            ..base.clone()
        };
        assert_eq!(
            merge_pieces(&[first.clone(), second.clone()]).unwrap(),
            vec![(0, 1, 2), (0, 1, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12)]
        );
        // Inconsistent piece table → None, duplicate chunk → None.
        let broken = RunResult {
            chunks: vec![(0, 5)],
            ..first.clone()
        };
        assert!(broken.pieces().is_none());
        assert!(merge_pieces(&[broken]).is_none());
        assert!(merge_pieces(&[first.clone(), first]).is_none());
    }

    #[test]
    fn nan_round_trip_is_bit_exact() {
        let bits = 0x7FF8_0000_DEAD_BEEFu64;
        let resp = Response::Predicted {
            per_node: f64::from_bits(bits),
            total_ops: 0.0,
            n: 0,
        };
        let decoded = Response::decode(resp.kind(), &resp.payload()).unwrap();
        match decoded {
            Response::Predicted { per_node, .. } => assert_eq!(per_node.to_bits(), bits),
            other => panic!("wrong response {other:?}"),
        }
    }
}
