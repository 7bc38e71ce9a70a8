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
//! `List`, `Count` and `ListNewTriangles` all run on the one chunked
//! runtime of [`trilist_core::resilient`] against the cached [`Prepared`]
//! artifacts, through one admission prelude (`admit_run`) and one wire
//! form (`wire_result`). Runs reuse the entry's shared oracle
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
    CompactorHandle, EditReceipt, GraphStore, PlanSummary, Prepared, StoreConfig, StoreError,
};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use trilist_core::{
    list_new_triangles_on, list_resilient_src, ChunkPiece, CostReport, DeltaOpts, DeltaOutcome,
    GraphSource, InMemoryRecorder, KernelPolicy, MemoryGauge, Method, ParallelOpts, Recorder,
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
    /// Priced data-plane work (`List`, `Count`): pulled by the fixed
    /// worker pool through the admission gate.
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
pub(crate) fn execute(shared: &Shared, req: Request) -> Response {
    match req {
        Request::RegisterGraph { name, n, edges } => {
            match shared.store.register(&name, n, &edges) {
                Ok((n, m)) => Response::Registered { n, m },
                Err(e) => Response::Error(ErrorFrame::new(ErrorCode::BadRequest, e.to_string())),
            }
        }
        Request::ModelPredict {
            graph,
            method,
            family,
        } => match predict(shared, &graph, &method, &family) {
            Ok(resp) => resp,
            Err(e) => Response::Error(e),
        },
        Request::ExplainPlan { graph } => match explain_plan(shared, &graph) {
            Ok(info) => Response::PlanResult(info),
            Err(e) => Response::Error(e),
        },
        Request::List(p) => match run_listing(shared, &p, true) {
            Ok(res) => Response::ListResult(res),
            Err(e) => Response::Error(e),
        },
        Request::Count(p) => match run_listing(shared, &p, false) {
            Ok(res) => Response::CountResult(res),
            Err(e) => Response::Error(e),
        },
        Request::AddEdges { graph, edges } => match shared.store.add_edges(&graph, &edges) {
            Ok(receipt) => Response::EditResult(edit_info(&receipt)),
            Err(e) => Response::Error(store_err(&e)),
        },
        Request::RemoveEdges { graph, edges } => match shared.store.remove_edges(&graph, &edges) {
            Ok(receipt) => Response::EditResult(edit_info(&receipt)),
            Err(e) => Response::Error(store_err(&e)),
        },
        Request::ListNewTriangles(p) => match run_delta(shared, &p) {
            Ok(res) => Response::NewTrianglesResult(res),
            Err(e) => Response::Error(e),
        },
        // classify() always answers these inline; if one reaches here
        // anyway, answer it the same way rather than panic.
        Request::Stats => Response::StatsResult(stats_fields(shared)),
        Request::Shutdown => {
            shared.shutting.store(true, Ordering::SeqCst);
            Response::ShutdownAck
        }
    }
}

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
pub(crate) fn execute_guarded(shared: &Shared, conn: u64, seq: u64, mut req: Request) -> Response {
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
            if let Request::List(p) | Request::Count(p) = &mut req {
                // Shrink-only skew: a deadline the client set gets
                // quartered (forcing the partial+resume path); requests
                // without a deadline stay deterministic-complete.
                if p.deadline_ms > 0 {
                    shared.metrics.bump(Metric::ChaosDeadlineSkews);
                    p.deadline_ms = (p.deadline_ms / 4).max(1);
                }
            }
        }
    }
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if inject_panic {
            panic!("injected fault: chaos panic (conn {conn} seq {seq})");
        }
        execute(shared, req)
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

/// Typed mapping for store failures: an unknown graph keeps its distinct
/// code (clients treat it as "register first"), everything else —
/// unknown epochs, rejected edit batches — is a request-shaped error.
fn store_err(e: &StoreError) -> ErrorFrame {
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
    let (prepared, _) = shared
        .store
        .prepare(graph, ordering)
        .map_err(|e| ErrorFrame::new(ErrorCode::UnknownGraph, e.to_string()))?;
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
    let summary = shared
        .store
        .listing_plan(graph)
        .map_err(|e| ErrorFrame::new(ErrorCode::UnknownGraph, e.to_string()))?;
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
/// (inflight + queued over capacity) and memory-gauge fill (cache
/// residency + in-flight runs over the server ceiling; 0 when no ceiling
/// is configured).
fn overload_pressure(shared: &Shared) -> f64 {
    let queue_fill = shared.admission.fill();
    let gauge_fill = match shared.cfg.memory_bytes {
        Some(ceiling) if ceiling > 0 => shared.gauge.used() as f64 / ceiling as f64,
        _ => 0.0,
    };
    queue_fill.max(gauge_fill)
}

fn run_listing(
    shared: &Shared,
    p: &ListParams,
    materialize: bool,
) -> Result<RunResult, ErrorFrame> {
    let (plan, ordering, policy) =
        resolve_plan(shared, &p.graph, p.method.is_empty(), &p.family, &p.policy)?;
    let method = match &plan {
        Some(s) if p.method.is_empty() => s.plan.method_hint,
        _ => parse_method(&p.method)?,
    };
    if !Method::FUNDAMENTAL.contains(&method) {
        return Err(bad(format!(
            "method {method} is not served (the parallel runtime covers T1, T2, E1, E4)"
        )));
    }
    let resume = parse_resume(&p.resume, WorkDomain::Listing(method))?;
    let (prepared, cache_hit) = shared
        .store
        .prepare(&p.graph, ordering)
        .map_err(|e| ErrorFrame::new(ErrorCode::UnknownGraph, e.to_string()))?;

    let price = price_request(method, &prepared.degrees_by_label);
    let (permit, budget, threads) = admit_run(
        shared,
        &p.graph,
        &price,
        p.deadline_ms,
        p.memory_bytes,
        p.threads,
    )?;
    let opts = ResilientOpts {
        parallel: ParallelOpts {
            threads,
            policy,
            // Serve-sized chunks: the default 1024-op chunks exist for
            // fine-grained budget checks in long batch runs; per-request
            // scheduling overhead dominates at service request sizes, and
            // cost/triangle accounting is chunk-count-invariant (pinned by
            // tests/serve_differential.rs).
            target_chunk_ops: 32768,
        },
        budget,
        recorder: Some(Arc::clone(&shared.recorder) as Arc<dyn Recorder>),
        oracle: matches!(method, Method::T1 | Method::T2).then(|| Arc::clone(&prepared.oracle)),
        kernels: Some(Arc::clone(&prepared.kernels)),
        ..ResilientOpts::default()
    };
    let src = source(&prepared);
    let outcome = match resume {
        None => list_resilient_src(src, method, &opts),
        Some(rp) => rp.run_src(src, &opts),
    };
    drop(permit);
    Ok(match outcome.map_err(|e| bad(e.to_string()))? {
        RunOutcome::Complete(run) => wire_result(
            &prepared,
            cache_hit,
            materialize,
            run.cost,
            run.piece_counts,
            run.triangles.iter(),
            None,
        ),
        RunOutcome::Partial(pr) => wire_result(
            &prepared,
            cache_hit,
            materialize,
            pr.cost(),
            chunk_table(&pr.completed),
            pr.completed.iter().flat_map(|piece| &piece.triangles),
            Some((pr.reason, &pr.resume)),
        ),
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
        Some(
            shared
                .store
                .listing_plan(graph)
                .map_err(|e| store_err(&e))?,
        )
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
/// then the admission gate (price ceiling, then a slot) and its counters,
/// then the run's budget and worker count from the request's overrides,
/// server defaults where they are zero. The permit must live until the
/// run ends.
fn admit_run<'s>(
    shared: &'s Shared,
    graph: &str,
    price: &RequestPrice,
    mut deadline_ms: u64,
    memory_bytes: u64,
    threads: u16,
) -> Result<(Permit<'s>, RunBudget, usize), ErrorFrame> {
    let count = |metric| shared.metrics.bump(metric);
    // degrade before reject: the pressure is read before the gate is
    // consulted, so the ladder engages ahead of any shed request
    let pressure = overload_pressure(shared);
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
    let permit = shared.admission.admit().map_err(|r| {
        count(Metric::RejectedBusy);
        ErrorFrame::new(ErrorCode::RejectedBusy, r.to_string())
    })?;
    count(Metric::Admitted);
    if permit.waited() {
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
    Ok((permit, budget, threads))
}

/// A request's resume token (`None` when empty), parsed and checked
/// against the run's domain before anything is prepared or admitted, so
/// a bad token costs neither a prepare nor an admission slot.
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

/// The wire's per-chunk table: `(chunk, triangles)` in chunk order.
fn chunk_table(pieces: &[ChunkPiece]) -> Vec<(u32, u32)> {
    pieces
        .iter()
        .map(|piece| (piece.chunk, piece.triangles.len() as u32))
        .collect()
}

/// What a finished run of either domain puts on the wire: its merged
/// cost, its chunk table and triangles (when `materialize`), and the stop
/// reason and resume token of a partial run. Triangles map back to
/// original node IDs, each triple sorted — the same convention as
/// [`trilist_core::list_triangles`].
fn wire_result<'t>(
    prepared: &Prepared,
    cache_hit: bool,
    materialize: bool,
    cost: CostReport,
    chunks: Vec<(u32, u32)>,
    triangles: impl Iterator<Item = &'t (u32, u32, u32)>,
    stop: Option<(StopReason, &ResumePoint)>,
) -> RunResult {
    let (complete, stop_reason, resume) = match stop {
        None => (true, String::new(), String::new()),
        Some((reason, rp)) => (false, reason.to_string(), rp.to_string()),
    };
    RunResult {
        complete,
        stop_reason,
        cache_hit,
        cost,
        resume,
        chunks: if materialize { chunks } else { vec![] },
        triangles: if materialize {
            let inverse = &prepared.inverse;
            triangles
                .map(|&(x, y, z)| {
                    let mut t = [
                        inverse[x as usize],
                        inverse[y as usize],
                        inverse[z as usize],
                    ];
                    t.sort_unstable();
                    (t[0], t[1], t[2])
                })
                .collect()
        } else {
            vec![]
        },
    }
}

/// Executes one `ListNewTriangles` request: fold the epoch window's
/// delta runs into net edge changes, prepare the graph at the window's
/// end epoch, and enumerate only the triangles touching a net-new edge.
///
/// The target epoch is pinned for the whole run, so a background
/// compaction landing mid-request (or between the links of a resume
/// chain) cannot garbage-collect the segments the epoch materializes
/// from — and because compaction never renumbers epochs and the relabel
/// seed is epoch-mixed, a chain interrupted and resumed across a
/// compaction is byte-identical to one that never saw it
/// (`tests/serve_dynamic.rs`).
fn run_delta(shared: &Shared, p: &DeltaParams) -> Result<DeltaRunResult, ErrorFrame> {
    let resume = parse_resume(&p.resume, WorkDomain::Delta)?;
    let latest = shared
        .store
        .latest_epoch(&p.graph)
        .map_err(|e| store_err(&e))?;
    let to = if p.to_epoch == DeltaParams::LATEST {
        latest
    } else {
        p.to_epoch
    };
    let _pin = shared
        .store
        .pin(&p.graph, Some(to))
        .map_err(|e| store_err(&e))?;
    let (net_new, net_removed) = shared
        .store
        .delta_edges(&p.graph, p.from_epoch, to)
        .map_err(|e| store_err(&e))?;

    let (_, ordering, policy) = resolve_plan(shared, &p.graph, false, &p.family, &p.policy)?;
    let (prepared, cache_hit, _) = shared
        .store
        .prepare_at(&p.graph, ordering, Some(to))
        .map_err(|e| store_err(&e))?;

    // The delta driver works in label space: map each net-new edge
    // through the epoch's relabeling, normalize to (lo, hi), and sort —
    // the dedup convention (minimal-rank owning edge) needs a canonical
    // order.
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

    let price = price_delta(&prepared.degrees_by_label, &label_edges);
    let (permit, budget, threads) = admit_run(
        shared,
        &p.graph,
        &price,
        p.deadline_ms,
        p.memory_bytes,
        p.threads,
    )?;
    let opts = DeltaOpts {
        threads,
        budget,
        recorder: Some(Arc::clone(&shared.recorder) as Arc<dyn Recorder>),
        ..DeltaOpts::default()
    };
    let (src, base) = (source(&prepared), &prepared.kernels);
    let outcome = match resume {
        None => list_new_triangles_on(src, policy, base, &label_edges, &opts),
        Some(rp) => rp
            .run_new_triangles_on(src, policy, base, &label_edges, &opts)
            .map_err(|e| bad(e.to_string()))?,
    };
    drop(permit);
    let stop = match &outcome {
        DeltaOutcome::Complete { .. } => None,
        DeltaOutcome::Partial { resume, reason, .. } => Some((*reason, resume)),
    };
    Ok(DeltaRunResult {
        from_epoch: p.from_epoch,
        to_epoch: to,
        new_edges: label_edges.len() as u64,
        removed_edges: net_removed.len() as u64,
        result: wire_result(
            &prepared,
            cache_hit,
            true,
            outcome.cost(),
            chunk_table(outcome.pieces()),
            outcome.pieces().iter().flat_map(|piece| &piece.triangles),
            stop,
        ),
    })
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
        let (_permit, _, threads) = admit_run(&shared, "g", &price, 0, 0, u16::MAX).unwrap();
        let cpus = ParallelOpts::default().threads;
        assert!(threads <= cpus, "{threads} threads on {cpus} CPUs");
    }
}
