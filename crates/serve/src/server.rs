//! The TCP server: one request core behind the event-loop connection
//! layer.
//!
//! [`crate::event_loop`] multiplexes every connection on one thread
//! through readiness notifications and hands request execution to a
//! fixed worker pool. It parses, gates and answers each frame through the
//! [`classify`]/[`execute_guarded`] pair here; a socket-free driver in
//! this crate's tests runs the same pair frame by frame and must answer
//! byte-identically.
//!
//! # Determinism across the wire
//!
//! `List`, `Count` and `ListNewTriangles` share one path, `run_priced`,
//! through one admission prelude (`admit_run`), the one chunked runtime
//! of [`trilist_core::resilient`] against the cached [`Prepared`]
//! artifacts, and one wire form (`wire_result`). A `Count` stages no
//! triangles ([`Emit::Counts`]). Runs reuse the entry's shared oracle
//! (T-methods) and borrow from its cached kernel context whatever their
//! policy shares with it, building the rest inside their budget; the
//! policy a client names is the policy that runs. Sharing is read-only,
//! so the triangles and every `CostReport` field are byte-identical to a
//! direct in-process run against the same artifacts
//! (`tests/serve_differential.rs`, `tests/serve_dynamic.rs`).
//!
//! # Budgets, partial results and resume
//!
//! Each request's [`RunBudget`] carries the server-wide [`MemoryGauge`]:
//! the ceiling (per-request override or the server default) is checked
//! against cache residency *plus* every in-flight run, one global number.
//! Deadlines map to budget deadlines. An interrupted run answers with a
//! partial [`RunResult`] whose [`ResumePoint`] token (`trilist-resume v1
//! <method> …` or `trilist-resume v1 delta …`) a follow-up request of the
//! same kind can continue; a token for the other domain or shape, or one
//! naming a range twice, answers an error frame. The per-chunk piece
//! table lets the client stitch the chain back into exact sequential
//! order.
//!
//! # Degrade before reject
//!
//! Under combined queue and memory-gauge pressure the server trades
//! per-request speed for survival *before* it sheds load. The two rungs
//! sit at fixed pressures in `admit_run`, so `List`, `Count` and
//! `ListNewTriangles` degrade alike: at `DEADLINE_AT` a deadline the
//! client set is clamped, forcing the partial+resume path so slots recycle
//! faster, and at `EVICT_AT` one cold cache entry of another graph is
//! evicted per request. Both are invisible on the wire except for latency
//! and the partial+resume contract clients already hold, and each step
//! taken is counted in `Stats` (`admission_degraded_*`), so tests can pin
//! that the ladder engages before the first `rejected-busy`. Kernel memory
//! degrades in one place only, each run's own budget
//! ([`trilist_core::Kernels::borrow_within_src`]).

use crate::admission::{Admission, AdmissionConfig, Permit};
use crate::chaos::{ChaosPlan, ExecFault};
use crate::event_loop;
use crate::metrics::{stats_fields, Metric, Metrics};
use crate::protocol::{
    DeltaParams, DeltaRunResult, EditInfo, ErrorCode, ErrorFrame, ListParams, PlanInfo, Request,
    Response, RunResult,
};
use crate::store::{
    CompactorHandle, EditReceipt, EpochPin, GraphStore, PlanSummary, Prepared, StoreConfig,
    StoreError,
};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use trilist_core::{
    list_new_triangles_on, list_resilient_src, ChunkPiece, CostReport, DeltaOpts, DeltaOutcome,
    Emit, GraphSource, InMemoryRecorder, KernelPolicy, MemoryGauge, Method, ParallelOpts, Recorder,
    ResilientOpts, ResumeParseError, ResumePoint, RunBudget, RunOutcome, StopReason, WorkDomain,
};
use trilist_model::{price_delta, price_request, RequestPrice};
use trilist_order::OrderingKind;

/// Server knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listing worker threads per request when the request does not name
    /// its own count.
    pub workers: usize,
    /// Admission-control limits.
    pub admission: AdmissionConfig,
    /// Graph store and prepared-cache limits.
    pub store: StoreConfig,
    /// Default memory ceiling in bytes, checked against the shared gauge
    /// (cache residency + in-flight runs). A request's own
    /// `memory_bytes` overrides it. `None` = unlimited.
    pub memory_bytes: Option<u64>,
    /// Deterministic fault injection across the connection layer and
    /// the execution path. `None` (the default) injects nothing.
    pub chaos: Option<ChaosPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            admission: AdmissionConfig::default(),
            store: StoreConfig::default(),
            memory_bytes: None,
            chaos: None,
        }
    }
}

/// Pressure at which request deadlines clamp to `DEGRADED_DEADLINE_MS`,
/// forcing the partial+resume path so slots recycle faster.
const DEADLINE_AT: f64 = 0.75;
/// Pressure at which one cold cache entry of another graph is evicted per
/// request.
const EVICT_AT: f64 = 0.90;
/// Deadline (ms) imposed on deadline-carrying requests past `DEADLINE_AT`.
const DEGRADED_DEADLINE_MS: u64 = 50;

pub(crate) struct Shared {
    pub(crate) cfg: ServeConfig,
    pub(crate) gauge: MemoryGauge,
    pub(crate) store: Arc<GraphStore>,
    pub(crate) admission: Admission,
    pub(crate) recorder: Arc<InMemoryRecorder>,
    pub(crate) shutting: AtomicBool,
    pub(crate) metrics: Metrics,
}

impl Shared {
    /// The state every connection shares, built from `cfg`, plus the
    /// off-lane compaction worker: edit batches whose delta ratio trips
    /// the threshold nudge it, so segment merges and autotuner re-runs
    /// never block the connection layer. The handle drains and joins
    /// when dropped.
    pub(crate) fn new(cfg: ServeConfig) -> (Arc<Shared>, CompactorHandle) {
        let gauge = MemoryGauge::new();
        // `Stats` reads only counters and span aggregates; a span list
        // would grow with every request served
        let recorder = Arc::new(InMemoryRecorder::without_span_list());
        let store = Arc::new(
            GraphStore::new(cfg.store.clone(), gauge.clone())
                .with_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>),
        );
        let compactor = GraphStore::start_compactor(&store);
        let shared = Arc::new(Shared {
            store,
            admission: Admission::new(cfg.admission),
            recorder,
            shutting: AtomicBool::new(false),
            metrics: Metrics::new(),
            gauge,
            cfg,
        });
        (shared, compactor)
    }
}

/// The service entry point.
pub struct Server;

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the event loop on a background thread.
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServeConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (shared, compactor) = Shared::new(cfg);
        let (event_loop, waker) = event_loop::spawn(listener, Arc::clone(&shared))?;
        Ok(ServerHandle {
            addr: local,
            shared,
            event_loop: Some(event_loop),
            waker,
            _compactor: compactor,
        })
    }
}

/// A running server. Dropping it drains and joins.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    event_loop: Option<JoinHandle<()>>,
    waker: Arc<mio::Waker>,
    /// Joined by its own `Drop` after the event loop (field order).
    _compactor: CompactorHandle,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts a graceful drain: stop accepting connections and new work,
    /// finish what is in flight. A connection whose answers stay unread
    /// a second into the drain is closed with them. Returns immediately.
    pub fn shutdown(&self) {
        self.shared.shutting.store(true, Ordering::SeqCst);
        let _ = self.waker.wake();
    }

    /// Drains and blocks until the event loop has closed every
    /// connection.
    pub fn join(mut self) {
        self.shutdown();
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
    }

    /// Blocks until the server shuts down (a client's `Shutdown` request,
    /// or [`ServerHandle::shutdown`] from another thread).
    pub fn wait(mut self) {
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
    }
}

/// What the event loop does after `accept` fails. Public so the
/// fd-exhaustion tests can pin the classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AcceptAction {
    /// Wait for the next readiness notification (`EAGAIN`).
    WaitReadable,
    /// Retry immediately: the error consumed only one handshake
    /// (`EINTR`, `ECONNABORTED`-style aborted connections).
    Retry,
    /// Count the error and back off briefly, keeping the listener open —
    /// fd exhaustion (`EMFILE`/`ENFILE`) clears when a connection
    /// closes, and dying instead would turn a transient limit into a
    /// full outage.
    Backoff(Duration),
}

/// Classifies one `accept` error into an [`AcceptAction`].
pub fn accept_error_action(e: &std::io::Error) -> AcceptAction {
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    const ECONNABORTED: i32 = 103;
    const EPROTO: i32 = 71;
    match e.kind() {
        std::io::ErrorKind::WouldBlock => AcceptAction::WaitReadable,
        std::io::ErrorKind::Interrupted => AcceptAction::Retry,
        _ => match e.raw_os_error() {
            Some(ECONNABORTED) | Some(EPROTO) => AcceptAction::Retry,
            Some(EMFILE) | Some(ENFILE) => AcceptAction::Backoff(Duration::from_millis(10)),
            _ => AcceptAction::Backoff(Duration::from_millis(2)),
        },
    }
}

/// What the connection layer should do with one decoded request.
pub(crate) enum Dispatch {
    /// Answered at classification time, in frame order: `Stats`,
    /// `Shutdown`, and the drain gate. These never enter a queue, so a
    /// pipelined `Stats` behind a slow `List` answers immediately (the
    /// response still flushes in frame order).
    Inline(Response),
    /// Cheap control-plane work (`RegisterGraph`, `ModelPredict`): runs
    /// on the express lane, never behind a priced listing run.
    Express(Request),
    /// Priced data-plane work (`List`, `Count`, `ListNewTriangles`):
    /// waits in the priced lane's one queue, and runs on one of its
    /// `max_inflight` workers, each an admission slot.
    Priced(Request),
}

/// Classifies one request at dispatch time. Counters and the drain gate
/// live here so they observe frame arrival order, not execution order.
/// In particular `Shutdown` flips the drain flag the
/// moment its frame is parsed, so a pipelined `[List, Shutdown]` still
/// answers the `List` but a later `[Shutdown, List]` rejects the `List`.
pub(crate) fn classify(shared: &Shared, req: Request) -> Dispatch {
    let count = |metric| shared.metrics.bump(metric);
    count(Metric::RequestsTotal);
    match req {
        Request::Stats => {
            count(Metric::RequestsStats);
            Dispatch::Inline(Response::StatsResult(stats_fields(shared)))
        }
        Request::Shutdown => {
            count(Metric::RequestsShutdown);
            shared.shutting.store(true, Ordering::SeqCst);
            Dispatch::Inline(Response::ShutdownAck)
        }
        _ if shared.shutting.load(Ordering::SeqCst) => {
            Dispatch::Inline(Response::Error(ErrorFrame::new(
                ErrorCode::ShuttingDown,
                "server is draining and accepts no new work",
            )))
        }
        Request::RegisterGraph { .. } => {
            count(Metric::RequestsRegister);
            Dispatch::Express(req)
        }
        Request::ModelPredict { .. } => {
            count(Metric::RequestsPredict);
            Dispatch::Express(req)
        }
        Request::ExplainPlan { .. } => {
            count(Metric::RequestsExplain);
            Dispatch::Express(req)
        }
        // Edits are appends: validate the batch, push its delta run and
        // splice only the touched CSR rows into the next epoch (one copy
        // of the graph plus work in the batch size, no sort or
        // whole-graph check). Compaction runs on the store's off lane,
        // so the express lane stays express.
        Request::AddEdges { .. } => {
            count(Metric::RequestsAddEdges);
            Dispatch::Express(req)
        }
        Request::RemoveEdges { .. } => {
            count(Metric::RequestsRemoveEdges);
            Dispatch::Express(req)
        }
        Request::ListNewTriangles(_) => {
            count(Metric::RequestsListNew);
            Dispatch::Priced(req)
        }
        Request::List(_) => {
            count(Metric::RequestsList);
            Dispatch::Priced(req)
        }
        Request::Count(_) => {
            count(Metric::RequestsCount);
            Dispatch::Priced(req)
        }
    }
}

/// Executes one already-classified request. No gates and no counters —
/// [`classify`] applied both — so the response depends only on the
/// request and server state, never on which lane or thread called it.
/// A priced request runs on the admission `slot` its lane worker holds;
/// without one (the socket-free oracle) it runs as if it found one free.
pub(crate) fn execute(shared: &Shared, req: Request, slot: Slot<'_>) -> Response {
    let edited = |receipt: EditReceipt| Response::EditResult(edit_info(&receipt));
    let answer = match req {
        Request::RegisterGraph { name, n, edges } => shared
            .store
            .register(&name, n, &edges)
            .map(|(n, m)| Response::Registered { n, m })
            .map_err(|e| bad(e.to_string())),
        Request::ModelPredict {
            graph,
            method,
            family,
        } => predict(shared, &graph, &method, &family),
        Request::ExplainPlan { graph } => explain_plan(shared, &graph).map(Response::PlanResult),
        Request::List(p) => run_priced(shared, Priced::Listing(&p, Emit::Triangles), slot),
        Request::Count(p) => run_priced(shared, Priced::Listing(&p, Emit::Counts), slot),
        Request::ListNewTriangles(p) => run_priced(shared, Priced::Delta(&p), slot),
        Request::AddEdges { graph, edges } => shared
            .store
            .add_edges(&graph, &edges)
            .map(edited)
            .map_err(store_err),
        Request::RemoveEdges { graph, edges } => shared
            .store
            .remove_edges(&graph, &edges)
            .map(edited)
            .map_err(store_err),
        // classify() always answers these inline; if one reaches here
        // anyway, answer it the same way rather than panic.
        Request::Stats => Ok(Response::StatsResult(stats_fields(shared))),
        Request::Shutdown => {
            shared.shutting.store(true, Ordering::SeqCst);
            Ok(Response::ShutdownAck)
        }
    };
    answer.unwrap_or_else(Response::Error)
}

/// The admission slot a priced request runs on, held by its priced-lane
/// worker; `None` where no lane runs it (the socket-free oracle).
pub(crate) type Slot<'a> = Option<&'a Permit<'a>>;

/// Ballast charged to the shared gauge for a scope; the `Drop` releases
/// it even when the guarded execution panics.
struct GaugeBallast {
    gauge: MemoryGauge,
    bytes: u64,
}

impl GaugeBallast {
    fn charge(gauge: &MemoryGauge, bytes: u64) -> GaugeBallast {
        gauge.add(bytes);
        GaugeBallast {
            gauge: gauge.clone(),
            bytes,
        }
    }
}

impl Drop for GaugeBallast {
    fn drop(&mut self) {
        self.gauge.release(self.bytes);
    }
}

/// [`execute`] wrapped in the chaos plan's execution faults and panic
/// isolation. Every executor worker runs its Express/Priced requests
/// through here, so a panicking request — injected or real — answers a
/// typed `Internal` error instead of losing the worker. Injected faults
/// are drawn per `(conn, seq)`, the same identity the I/O faults key on.
pub(crate) fn execute_guarded(
    shared: &Shared,
    conn: u64,
    seq: u64,
    mut req: Request,
    slot: Slot<'_>,
) -> Response {
    let mut inject_panic = false;
    let mut _ballast: Option<GaugeBallast> = None;
    if let Some(plan) = &shared.cfg.chaos {
        match plan.exec_fault(conn, seq) {
            Some(ExecFault::Panic) => {
                shared.metrics.bump(Metric::ChaosPanics);
                inject_panic = true;
            }
            Some(ExecFault::GaugeSpike(bytes)) => {
                shared.metrics.bump(Metric::ChaosGaugeSpikes);
                _ballast = Some(GaugeBallast::charge(&shared.gauge, bytes));
            }
            None => {}
        }
        if plan.skews_deadline(conn, seq) {
            let deadline_ms = match &mut req {
                Request::List(p) | Request::Count(p) => Some(&mut p.deadline_ms),
                Request::ListNewTriangles(p) => Some(&mut p.deadline_ms),
                _ => None,
            };
            // Shrink-only skew: a deadline the client set on any priced
            // request gets quartered (forcing the partial+resume path);
            // requests without a deadline stay deterministic-complete.
            if let Some(deadline_ms) = deadline_ms.filter(|d| **d > 0) {
                shared.metrics.bump(Metric::ChaosDeadlineSkews);
                *deadline_ms = (*deadline_ms / 4).max(1);
            }
        }
    }
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if inject_panic {
            panic!("injected fault: chaos panic (conn {conn} seq {seq})");
        }
        execute(shared, req, slot)
    }))
    .unwrap_or_else(|_| {
        Response::Error(ErrorFrame::new(
            ErrorCode::Internal,
            "request execution panicked",
        ))
    })
}

fn bad(msg: impl Into<String>) -> ErrorFrame {
    ErrorFrame::new(ErrorCode::BadRequest, msg)
}

/// The answer to a frame that does not scan or decode.
pub(crate) fn protocol_error(e: impl std::fmt::Display) -> Response {
    Response::Error(ErrorFrame::new(ErrorCode::Protocol, e.to_string()))
}

/// Typed mapping for store failures: an unknown graph keeps its distinct
/// code (clients treat it as "register first"), everything else —
/// unknown epochs, rejected edit batches — is a request-shaped error.
fn store_err(e: StoreError) -> ErrorFrame {
    match e {
        StoreError::UnknownGraph(_) => ErrorFrame::new(ErrorCode::UnknownGraph, e.to_string()),
        _ => bad(e.to_string()),
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

fn parse_method(name: &str) -> Result<Method, ErrorFrame> {
    Method::from_name(name).ok_or_else(|| bad(format!("unknown method {name:?}")))
}

fn parse_ordering(name: &str) -> Result<OrderingKind, ErrorFrame> {
    OrderingKind::from_name(name).ok_or_else(|| bad(format!("unknown ordering {name:?}")))
}

fn parse_policy(name: &str) -> Result<KernelPolicy, ErrorFrame> {
    KernelPolicy::from_name(name).ok_or_else(|| bad(format!("unknown kernel policy {name:?}")))
}

fn predict(
    shared: &Shared,
    graph: &str,
    method: &str,
    family: &str,
) -> Result<Response, ErrorFrame> {
    let method = parse_method(method)?;
    let ordering = parse_ordering(family)?;
    let (prepared, _) = shared.store.prepare(graph, ordering).map_err(store_err)?;
    let price = price_request(method, &prepared.degrees_by_label);
    Ok(Response::Predicted {
        per_node: price.per_node,
        total_ops: price.total_ops,
        n: price.n,
    })
}

/// Resolves (computing and caching if needed) the graph's listing plan
/// and flattens it into the wire [`PlanInfo`] frame.
fn explain_plan(shared: &Shared, graph: &str) -> Result<PlanInfo, ErrorFrame> {
    let summary = shared.store.listing_plan(graph).map_err(store_err)?;
    let plan = &summary.plan;
    Ok(PlanInfo {
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
}

/// Combined overload pressure in `0..=1`: the max of admission fill
/// (inflight + queued over capacity, not counting the caller's own slot)
/// and memory-gauge fill (cache residency + in-flight runs over the
/// server ceiling; 0 when no ceiling is configured).
fn overload_pressure(shared: &Shared, slot: Slot<'_>) -> f64 {
    let queue_fill = slot.map_or_else(|| shared.admission.fill(), Permit::fill);
    let gauge_fill = match shared.cfg.memory_bytes {
        Some(ceiling) if ceiling > 0 => shared.gauge.used() as f64 / ceiling as f64,
        _ => 0.0,
    };
    queue_fill.max(gauge_fill)
}

/// A priced request: a listing with the emit choice its kind implies
/// (`List` keeps its triangles, `Count` only counts them), or a delta run.
#[derive(Clone, Copy)]
enum Priced<'p> {
    Listing(&'p ListParams, Emit),
    Delta(&'p DeltaParams),
}

/// What a priced request runs: a listing method, or the net-new edges
/// (original IDs) of a delta run's epoch window. The window's end epoch
/// stays pinned for the whole run, so a background compaction landing
/// mid-request (or between the links of a resume chain) cannot
/// garbage-collect the segments the epoch materializes from — and because
/// compaction never renumbers epochs and the relabel seed is epoch-mixed,
/// a chain interrupted and resumed across a compaction is byte-identical
/// to one that never saw it (`tests/serve_dynamic.rs`).
enum Work<'s> {
    Listing(Method, Emit),
    Delta {
        from: u64,
        to: u64,
        net_new: Vec<(u32, u32)>,
        removed: u64,
        _pin: EpochPin<'s>,
    },
}

/// `edges` (original IDs) in the label space of `prepared`, where the
/// delta driver works: normalized to `(lo, hi)` and sorted, since its
/// dedup convention (minimal-rank owning edge) needs a canonical order.
fn label_edges(prepared: &Prepared, edges: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut forward = vec![0u32; prepared.inverse.len()];
    for (label, &orig) in prepared.inverse.iter().enumerate() {
        forward[orig as usize] = label as u32;
    }
    let mut labels: Vec<(u32, u32)> = edges
        .iter()
        .map(|&(u, v)| {
            let (a, b) = (forward[u as usize], forward[v as usize]);
            (a.min(b), a.max(b))
        })
        .collect();
    labels.sort_unstable();
    labels
}

/// Executes `List`, `Count` and `ListNewTriangles` through the one
/// sequence they share, all on the caller's admission `slot`: resolve the
/// work and check its resume token, prepare, price, admit, run, answer.
/// Only the work domain and its price, and a delta run's epoch window,
/// differ by kind.
///
/// Each kind keeps its error order. A listing resolves its plan first,
/// since a blank method takes the plan's hint and the token names the
/// method; a delta run checks its token, pins its window, then resolves
/// its plan.
fn run_priced(shared: &Shared, priced: Priced<'_>, slot: Slot<'_>) -> Result<Response, ErrorFrame> {
    let (graph, threads, deadline_ms, memory) = match priced {
        Priced::Listing(p, _) => (&p.graph, p.threads, p.deadline_ms, p.memory_bytes),
        Priced::Delta(p) => (&p.graph, p.threads, p.deadline_ms, p.memory_bytes),
    };
    let (work, resume, ordering, policy) = match priced {
        Priced::Listing(p, emit) => {
            let blank = p.method.is_empty();
            let (plan, ordering, policy) =
                resolve_plan(shared, graph, blank, &p.family, &p.policy)?;
            let method = match &plan {
                Some(s) if blank => s.plan.method_hint,
                _ => parse_method(&p.method)?,
            };
            if !Method::FUNDAMENTAL.contains(&method) {
                return Err(bad(format!(
                    "method {method} is not served (the parallel runtime covers T1, T2, E1, E4)"
                )));
            }
            let resume = parse_resume(&p.resume, WorkDomain::Listing(method))?;
            (Work::Listing(method, emit), resume, ordering, policy)
        }
        Priced::Delta(p) => {
            let resume = parse_resume(&p.resume, WorkDomain::Delta)?;
            let store = &shared.store;
            let to = match p.to_epoch {
                DeltaParams::LATEST => store.latest_epoch(graph).map_err(store_err)?,
                to => to,
            };
            let _pin = store.pin(graph, Some(to)).map_err(store_err)?;
            let (net_new, removed) = store
                .delta_edges(graph, p.from_epoch, to)
                .map_err(store_err)?;
            let (_, ordering, policy) = resolve_plan(shared, graph, false, &p.family, &p.policy)?;
            let removed = removed.len() as u64;
            let work = Work::Delta {
                from: p.from_epoch,
                to,
                net_new,
                removed,
                _pin,
            };
            (work, resume, ordering, policy)
        }
    };
    let epoch = match &work {
        Work::Listing(..) => None,
        Work::Delta { to, .. } => Some(*to),
    };
    let (prepared, cache_hit, _) = shared
        .store
        .prepare_at(graph, ordering, epoch)
        .map_err(store_err)?;
    let degrees = &prepared.degrees_by_label;
    let (price, labels) = match &work {
        Work::Listing(method, _) => (price_request(*method, degrees), Vec::new()),
        Work::Delta { net_new, .. } => {
            let edges = label_edges(&prepared, net_new);
            (price_delta(degrees, &edges), edges)
        }
    };
    let (budget, threads) = admit_run(shared, graph, &price, slot, deadline_ms, memory, threads)?;
    let recorder = Some(Arc::clone(&shared.recorder) as Arc<dyn Recorder>);
    let src = source(&prepared);
    // a partial listing run and every delta run end in chunk pieces
    let wire = |pieces: &[ChunkPiece], stop: Option<(StopReason, &ResumePoint)>| {
        let cost = pieces.iter().map(|piece| &piece.cost).sum();
        let chunks = pieces.iter().map(ChunkPiece::table_row).collect();
        let triangles = pieces.iter().flat_map(|piece| &piece.triangles);
        wire_result(&prepared, cache_hit, cost, chunks, triangles, stop)
    };
    let result = match &work {
        Work::Listing(method, emit) => {
            let opts = ResilientOpts {
                parallel: ParallelOpts {
                    threads,
                    policy,
                    // Serve-sized chunks: the default 1024-op chunks exist
                    // for fine-grained budget checks in long batch runs;
                    // per-request scheduling overhead dominates at service
                    // request sizes, and cost/triangle accounting is
                    // chunk-count-invariant (pinned by
                    // tests/serve_differential.rs).
                    target_chunk_ops: 32768,
                },
                budget,
                recorder,
                oracle: matches!(method, Method::T1 | Method::T2)
                    .then(|| Arc::clone(&prepared.oracle)),
                kernels: Some(Arc::clone(&prepared.kernels)),
                emit: *emit,
                ..ResilientOpts::default()
            };
            let outcome = match resume {
                None => list_resilient_src(src, *method, &opts),
                Some(rp) => rp.run_src(src, &opts),
            };
            match outcome.map_err(|e| bad(e.to_string()))? {
                RunOutcome::Complete(run) => wire_result(
                    &prepared,
                    cache_hit,
                    run.cost,
                    run.piece_counts,
                    run.triangles.iter(),
                    None,
                ),
                RunOutcome::Partial(pr) => wire(&pr.completed, Some((pr.reason, &pr.resume))),
            }
        }
        Work::Delta { .. } => {
            let opts = DeltaOpts {
                threads,
                budget,
                recorder,
                ..DeltaOpts::default()
            };
            let base = &prepared.kernels;
            let outcome = match resume {
                None => list_new_triangles_on(src, policy, base, &labels, &opts),
                Some(rp) => rp
                    .run_new_triangles_on(src, policy, base, &labels, &opts)
                    .map_err(|e| bad(e.to_string()))?,
            };
            match &outcome {
                DeltaOutcome::Complete { pieces } => wire(pieces, None),
                DeltaOutcome::Partial {
                    pieces,
                    resume,
                    reason,
                } => wire(pieces, Some((*reason, resume))),
            }
        }
    };
    Ok(match work {
        Work::Listing(_, Emit::Triangles) => Response::ListResult(result),
        // a count has no triangles to stitch, so it answers no chunk table
        Work::Listing(_, Emit::Counts) => Response::CountResult(RunResult {
            chunks: Vec::new(),
            ..result
        }),
        Work::Delta {
            from, to, removed, ..
        } => Response::NewTrianglesResult(DeltaRunResult {
            from_epoch: from,
            to_epoch: to,
            new_edges: labels.len() as u64,
            removed_edges: removed,
            result,
        }),
    })
}

/// Resolves a request's ordering and kernel policy. Unpinned requests
/// leave fields blank; blanks resolve from the store's per-graph listing
/// plan (returned when consulted, so a blank listing `method` can take
/// its hint), which makes an unpinned run byte-identical to an explicit
/// request naming the plan's choices (pinned by
/// tests/serve_differential.rs). Pinned fields always win.
fn resolve_plan(
    shared: &Shared,
    graph: &str,
    method_blank: bool,
    family: &str,
    policy: &str,
) -> Result<(Option<Arc<PlanSummary>>, OrderingKind, KernelPolicy), ErrorFrame> {
    let plan = if method_blank || family.is_empty() || policy.is_empty() {
        Some(shared.store.listing_plan(graph).map_err(store_err)?)
    } else {
        None
    };
    let ordering = match &plan {
        Some(s) if family.is_empty() => s.plan.ordering,
        _ => parse_ordering(family)?,
    };
    let policy = match &plan {
        Some(s) if policy.is_empty() => s.plan.policy,
        _ => parse_policy(policy)?,
    };
    Ok((plan, ordering, policy))
}

/// The prelude every priced run on `graph` shares: the overload ladder,
/// then the price ceiling and the admission counters (`queued` when the
/// run's `slot` was waited for), then the run's budget and worker count
/// from the request's overrides, server defaults where they are zero.
fn admit_run(
    shared: &Shared,
    graph: &str,
    price: &RequestPrice,
    slot: Slot<'_>,
    mut deadline_ms: u64,
    memory_bytes: u64,
    threads: u16,
) -> Result<(RunBudget, usize), ErrorFrame> {
    let count = |metric| shared.metrics.bump(metric);
    // degrade before reject: the pressure is read before the price is
    // checked, so the ladder engages ahead of any refused request
    let pressure = overload_pressure(shared, slot);
    if pressure >= DEADLINE_AT && deadline_ms > DEGRADED_DEADLINE_MS {
        deadline_ms = DEGRADED_DEADLINE_MS;
        count(Metric::DegradedDeadline);
    }
    if pressure >= EVICT_AT && shared.store.evict_cold(graph) {
        count(Metric::DegradedEvict);
    }
    shared.admission.check_price(price).map_err(|r| {
        count(Metric::RejectedCost);
        ErrorFrame::new(ErrorCode::RejectedCost, r.to_string())
    })?;
    count(Metric::Admitted);
    if slot.is_some_and(Permit::waited) {
        count(Metric::Queued);
    }
    let budget = RunBudget {
        deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
        memory_bytes: (memory_bytes > 0)
            .then_some(memory_bytes)
            .or(shared.cfg.memory_bytes),
        cancel: None,
        gauge: Some(shared.gauge.clone()),
    };
    // a request's own count is capped at the CPU count: results are
    // thread-count invariant, so the cap changes no answer, only how many
    // OS threads one frame can start
    let threads = match threads {
        0 => shared.cfg.workers,
        t => usize::from(t).min(ParallelOpts::default().threads),
    };
    Ok((budget, threads))
}

/// A request's resume token (`None` when empty), parsed and checked
/// against the run's domain before anything is prepared or admitted, so
/// a bad token costs no prepare and holds its slot only for the parse.
fn parse_resume(token: &str, domain: WorkDomain) -> Result<Option<ResumePoint>, ErrorFrame> {
    if token.is_empty() {
        return Ok(None);
    }
    let rp: ResumePoint = token
        .parse()
        .map_err(|e: ResumeParseError| bad(e.to_string()))?;
    if rp.domain() != domain {
        return Err(bad(format!(
            "resume token is for {}, request names {domain}",
            rp.domain()
        )));
    }
    Ok(Some(rp))
}

/// The layout the plan chose; cost accounting and triangle output are
/// layout-invariant (pinned by tests/serve_differential.rs).
fn source(prepared: &Prepared) -> GraphSource<'_> {
    match &prepared.csr {
        Some(c) => GraphSource::Compressed(c),
        None => GraphSource::Plain(&prepared.dg),
    }
}

/// What a finished run of either domain puts on the wire: its merged
/// cost, its chunk table and triangles, and the stop reason and resume
/// token of a partial run. Triangles map back to original node IDs, each
/// triple sorted — the same convention as [`trilist_core::list_triangles`].
fn wire_result<'t>(
    prepared: &Prepared,
    cache_hit: bool,
    cost: CostReport,
    chunks: Vec<(u32, u32)>,
    triangles: impl Iterator<Item = &'t (u32, u32, u32)>,
    stop: Option<(StopReason, &ResumePoint)>,
) -> RunResult {
    let (stop_reason, resume) = stop.map_or_else(Default::default, |(reason, rp)| {
        (reason.to_string(), rp.to_string())
    });
    let original = |&(x, y, z): &(u32, u32, u32)| {
        let mut t = [x, y, z].map(|label| prepared.inverse[label as usize]);
        t.sort_unstable();
        (t[0], t[1], t[2])
    };
    RunResult {
        complete: stop.is_none(),
        stop_reason,
        cache_hit,
        cost,
        resume,
        chunks,
        triangles: triangles.map(original).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    #[test]
    fn recorder_counts_spans_without_keeping_them() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let edges: Vec<(u32, u32)> = (0..30u32)
            .flat_map(|u| (u + 1..30).map(move |v| (u, v)))
            .filter(|&(u, v)| u * v % 3 == 0)
            .collect();
        client.register_graph("g", 30, &edges[1..]).unwrap();
        let spans = |c: &mut Client| {
            let stats = c.stats().unwrap();
            stats.iter().find(|(k, _)| k == "recorder_spans").unwrap().1
        };
        let before = spans(&mut client);
        client.list(ListParams::new("g", "", "", "")).unwrap();
        let listed = spans(&mut client);
        client.add_edges("g", &edges[..1]).unwrap();
        client
            .list_new(DeltaParams::new("g", 0, DeltaParams::LATEST))
            .unwrap();
        assert!(before < listed && listed < spans(&mut client));
        assert!(server.shared.recorder.spans().is_empty());
    }

    #[test]
    fn a_requested_thread_count_is_capped_at_the_cpu_count() {
        let (shared, _compactor) = Shared::new(ServeConfig::default());
        let price = price_request(Method::E1, &[1, 1]);
        let (_, threads) = admit_run(&shared, "g", &price, None, 0, 0, u16::MAX).unwrap();
        let cpus = ParallelOpts::default().threads;
        assert!(threads <= cpus, "{threads} threads on {cpus} CPUs");
    }
}
