//! A blocking client for the wire protocol: one request/response pair at
//! a time over one TCP connection, typed errors, and a resume-chain
//! driver that stitches interrupted runs back together.

use crate::codec::WireError;
use crate::protocol::{
    encode_frame, merge_pieces, read_frame, write_frame, DeltaParams, DeltaRunResult, EditInfo,
    ErrorCode, ErrorFrame, FrameError, ListParams, PlanInfo, Request, Response, RunResult,
};
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use trilist_core::{fault_roll, CostReport};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The TCP stream failed (including EOF mid-frame).
    Transport(std::io::Error),
    /// The server's bytes violated the protocol.
    Protocol(WireError),
    /// The server answered with a typed error frame.
    Server(ErrorFrame),
    /// The server answered with a well-formed frame of the wrong kind
    /// for the request, or an inconsistent piece table.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Server(e) => write!(f, "server {}: {}", e.code, e.message),
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Transport(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Protocol(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Transport(e),
            FrameError::Wire(e) => ClientError::Protocol(e),
        }
    }
}

/// Jitter salt for the deterministic backoff schedule ("RJIT").
const SALT_RETRY_JITTER: u64 = 0x524a_4954;

/// Jitter cap that keeps an exponential schedule monotone: with jitter
/// fraction `j ≤ 1/3`, `2·(1−j) ≥ 1+j`, so each nominal doubling
/// dominates the worst jitter swing of its predecessor.
const MAX_MONOTONE_JITTER_PERMILLE: u16 = 333;

/// Client-side retry/backoff policy: classified retryable-vs-fatal
/// errors, capped exponential backoff with deterministic jitter, and
/// optional per-attempt timeouts.
///
/// The backoff schedule is a pure function of `(seed, retry_index)` via
/// the same splitmix64 chain as the server's fault plans, so a retrying
/// run replays exactly. The schedule is monotone nondecreasing and
/// capped: `delay(k) = min(base·2ᵏ·jitter(k), cap)` with jitter bounded
/// to ±[`RetryPolicy::jitter_permille`]‰ (clamped to 333‰, which keeps
/// monotonicity — see `tests/serve_chaos.rs` proptests).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts per call, including the first (clamped to ≥ 1).
    pub max_attempts: u32,
    /// Nominal delay before the first retry.
    pub base: Duration,
    /// Ceiling on any single delay.
    pub cap: Duration,
    /// Jitter amplitude in per-mille of the nominal delay (clamped to
    /// 333 so the schedule stays monotone).
    pub jitter_permille: u16,
    /// Seed for the deterministic jitter draw.
    pub seed: u64,
    /// Per-attempt wall-clock budget applied as the socket read timeout;
    /// a slower response counts as a transport failure and retries on a
    /// fresh connection. `None` waits forever.
    pub attempt_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(500),
            jitter_permille: 250,
            seed: 0x5245_5452, // "RETR"
            attempt_timeout: None,
        }
    }
}

impl RetryPolicy {
    /// The default policy under a caller-chosen jitter seed.
    pub fn seeded(seed: u64) -> Self {
        RetryPolicy {
            seed,
            ..RetryPolicy::default()
        }
    }

    /// The delay before retry number `retry` (0-based: the delay between
    /// the first failure and the second attempt is `backoff(0)`).
    pub fn backoff(&self, retry: u32) -> Duration {
        let base_ns = self.base.as_nanos().min(u128::from(u64::MAX)) as u64;
        let cap_ns = self.cap.as_nanos().min(u128::from(u64::MAX)) as u64;
        let nominal_ns = match 1u64.checked_shl(retry) {
            Some(factor) => base_ns.saturating_mul(factor),
            None => u64::MAX,
        };
        let j = u64::from(self.jitter_permille.min(MAX_MONOTONE_JITTER_PERMILLE));
        // factor in [1000 - j, 1000 + j] per-mille, deterministic per retry
        let roll = u64::from(fault_roll(
            self.seed,
            SALT_RETRY_JITTER,
            0,
            u64::from(retry),
        ));
        let factor = 1000 - j + if j == 0 { 0 } else { roll * 2 * j / 999 };
        let jittered = nominal_ns.saturating_mul(factor) / 1000;
        Duration::from_nanos(jittered.min(cap_ns))
    }

    /// Whether `err` is worth retrying: transport failures (the
    /// connection may have died mid-exchange; re-execution is safe
    /// because listing requests are read-only and resume tokens are
    /// client-held) and the server's transient typed errors. Protocol
    /// violations and request-shaped errors are fatal.
    pub fn retryable(err: &ClientError) -> bool {
        match err {
            ClientError::Transport(_) => true,
            ClientError::Server(e) => matches!(
                e.code,
                ErrorCode::RejectedBusy | ErrorCode::ShuttingDown | ErrorCode::Internal
            ),
            ClientError::Protocol(_) | ClientError::Unexpected(_) => false,
        }
    }

    /// An upper bound on one retried call's wall clock: every attempt
    /// exhausting its timeout plus every backoff delay. `None` without a
    /// per-attempt timeout (a single attempt may then block forever).
    pub fn worst_case_budget(&self) -> Option<Duration> {
        let timeout = self.attempt_timeout?;
        let attempts = self.max_attempts.max(1);
        let mut total = timeout.saturating_mul(attempts);
        for retry in 0..attempts.saturating_sub(1) {
            total = total.saturating_add(self.backoff(retry));
        }
        Some(total)
    }
}

/// The merged outcome of a `List` resume chain driven to completion.
#[derive(Clone, Debug)]
pub struct ChainResult {
    /// Triangles in exact sequential order, original node IDs.
    pub triangles: Vec<(u32, u32, u32)>,
    /// Costs accumulated across every request of the chain.
    pub cost: CostReport,
    /// Requests the chain took (1 = never interrupted).
    pub requests: u32,
    /// Whether the first request was served from the prepared cache.
    pub first_cache_hit: bool,
}

/// A blocking protocol client over one TCP connection, optionally
/// wrapped in a [`RetryPolicy`]: with one set, every typed helper
/// classifies failures, backs off deterministically, reconnects after
/// transport errors, and resumes — `List` chains survive a server
/// kill-and-restart byte-identically because resume tokens live on the
/// client.
pub struct Client {
    stream: TcpStream,
    retry: Option<RetryPolicy>,
    /// Where a reconnect dials; captured from the first connection's
    /// peer address, retargetable for restart drills.
    reconnect_addr: Option<String>,
    retries: u64,
    reconnects: u64,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reconnect_addr = stream.peer_addr().ok().map(|a| a.to_string());
        Ok(Client {
            stream,
            retry: None,
            reconnect_addr,
            retries: 0,
            reconnects: 0,
        })
    }

    /// Connects with a retry policy armed, retrying the connection
    /// itself on the policy's backoff schedule.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
    ) -> std::io::Result<Client> {
        let attempts = policy.max_attempts.max(1);
        let mut retry = 0u32;
        loop {
            match Client::connect(&addr) {
                Ok(mut client) => {
                    client.set_retry_policy(Some(policy));
                    return Ok(client);
                }
                Err(e) => {
                    if retry + 1 >= attempts {
                        return Err(e);
                    }
                    std::thread::sleep(policy.backoff(retry));
                    retry += 1;
                }
            }
        }
    }

    /// Arms (or disarms) the retry policy for every subsequent typed
    /// call, applying its per-attempt timeout to the socket.
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        self.retry = policy;
        let timeout = policy.and_then(|p| p.attempt_timeout);
        let _ = self.stream.set_read_timeout(timeout);
    }

    /// Retargets where transport-failure reconnects dial — the restart
    /// drill points a live client at the replacement server.
    pub fn set_reconnect_addr(&mut self, addr: impl Into<String>) {
        self.reconnect_addr = Some(addr.into());
    }

    /// Attempts beyond the first across every retried call so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Reconnections performed by the retry layer so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Replaces the connection by dialing the reconnect address.
    fn try_reconnect(&mut self) -> Result<(), ClientError> {
        let addr = self
            .reconnect_addr
            .clone()
            .ok_or(ClientError::Unexpected("no reconnect address"))?;
        let stream = TcpStream::connect(&addr).map_err(ClientError::Transport)?;
        stream.set_nodelay(true).map_err(ClientError::Transport)?;
        let timeout = self.retry.and_then(|p| p.attempt_timeout);
        stream
            .set_read_timeout(timeout)
            .map_err(ClientError::Transport)?;
        self.stream = stream;
        self.reconnects += 1;
        Ok(())
    }

    /// One raw request/response round trip. Error frames come back as
    /// `Ok(Response::Error(_))` — the typed helpers turn them into
    /// [`ClientError::Server`].
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, req.kind(), &req.payload())?;
        let (kind, body) = read_frame(&mut self.stream)?;
        Ok(Response::decode(kind, &body)?)
    }

    /// Pipelines a batch: every request is written back-to-back before a
    /// single response is read, then exactly one response per request is
    /// read back, in request order (the protocol guarantees in-order
    /// responses on one connection). Error frames come back in place as
    /// `Response::Error(_)`, like [`Client::call`].
    pub fn pipeline(&mut self, reqs: &[Request]) -> Result<Vec<Response>, ClientError> {
        let mut batch = Vec::new();
        for req in reqs {
            batch.extend_from_slice(&encode_frame(req.kind(), &req.payload()));
        }
        self.stream.write_all(&batch)?;
        self.stream.flush()?;
        let mut out = Vec::with_capacity(reqs.len());
        for _ in reqs {
            let (kind, body) = read_frame(&mut self.stream)?;
            out.push(Response::decode(kind, &body)?);
        }
        Ok(out)
    }

    fn call_once_ok(&mut self, req: &Request) -> Result<Response, ClientError> {
        match self.call(req)? {
            Response::Error(e) => Err(ClientError::Server(e)),
            resp => Ok(resp),
        }
    }

    /// One typed call under the armed retry policy (or a single attempt
    /// without one). Transport failures desynchronize the stream, so
    /// they reconnect before the next attempt; typed transient errors
    /// (busy, draining, internal) retry on the same connection.
    fn call_ok(&mut self, req: &Request) -> Result<Response, ClientError> {
        let Some(policy) = self.retry else {
            return self.call_once_ok(req);
        };
        let attempts = policy.max_attempts.max(1);
        let mut retry = 0u32;
        let mut needs_reconnect = false;
        loop {
            if needs_reconnect {
                match self.try_reconnect() {
                    // On success fall through to the call below; the match on
                    // its result reassigns `needs_reconnect` either way.
                    Ok(()) => {}
                    Err(e) => {
                        // The replacement server may still be coming up;
                        // reconnecting consumes an attempt like any other
                        // failure.
                        if retry + 1 >= attempts {
                            return Err(e);
                        }
                        std::thread::sleep(policy.backoff(retry));
                        retry += 1;
                        self.retries += 1;
                        continue;
                    }
                }
            }
            match self.call_once_ok(req) {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    if retry + 1 >= attempts || !RetryPolicy::retryable(&e) {
                        return Err(e);
                    }
                    needs_reconnect = matches!(e, ClientError::Transport(_));
                    std::thread::sleep(policy.backoff(retry));
                    retry += 1;
                    self.retries += 1;
                }
            }
        }
    }

    /// Registers (or replaces) a graph; returns `(n, m)` as the server
    /// parsed it.
    pub fn register_graph(
        &mut self,
        name: &str,
        n: u32,
        edges: &[(u32, u32)],
    ) -> Result<(u32, u64), ClientError> {
        match self.call_ok(&Request::RegisterGraph {
            name: name.to_string(),
            n,
            edges: edges.to_vec(),
        })? {
            Response::Registered { n, m } => Ok((n, m)),
            _ => Err(ClientError::Unexpected("wanted Registered")),
        }
    }

    /// One `List` request (possibly returning a partial result).
    pub fn list(&mut self, params: ListParams) -> Result<RunResult, ClientError> {
        match self.call_ok(&Request::List(params))? {
            Response::ListResult(res) => Ok(res),
            _ => Err(ClientError::Unexpected("wanted ListResult")),
        }
    }

    /// One `Count` request (possibly returning a partial result).
    pub fn count(&mut self, params: ListParams) -> Result<RunResult, ClientError> {
        match self.call_ok(&Request::Count(params))? {
            Response::CountResult(res) => Ok(res),
            _ => Err(ClientError::Unexpected("wanted CountResult")),
        }
    }

    /// Drives a `List` to completion, feeding each partial response's
    /// resume token into the next request and merging the chunk-tagged
    /// pieces into exact sequential order.
    pub fn list_to_completion(&mut self, params: ListParams) -> Result<ChainResult, ClientError> {
        let first = params.resume.clone();
        self.drive_chain(first, |client, resume| {
            client.list(ListParams {
                resume,
                ..params.clone()
            })
        })
    }

    /// The chain driver of both resume domains: `step` sends one request
    /// carrying a resume token, each partial response's token feeds the
    /// next step, and the chunk-tagged pieces merge into exact sequential
    /// order.
    fn drive_chain(
        &mut self,
        first: String,
        mut step: impl FnMut(&mut Client, String) -> Result<RunResult, ClientError>,
    ) -> Result<ChainResult, ClientError> {
        let mut responses: Vec<RunResult> = Vec::new();
        let mut sent = first;
        // A partial response whose resume token equals the one we sent made
        // no progress. Tiny deadlines (possibly chaos-shrunk) can legitimately
        // produce a few of these in a row, but an unbounded run means the
        // chain will never terminate; cap the streak rather than spin forever.
        let mut zero_progress = 0u32;
        const MAX_ZERO_PROGRESS: u32 = 32;
        loop {
            let res = step(self, sent.clone())?;
            let complete = res.complete;
            let resume = res.resume.clone();
            responses.push(res);
            if complete {
                break;
            }
            if resume.is_empty() {
                return Err(ClientError::Unexpected("partial result without resume"));
            }
            if resume == sent {
                zero_progress += 1;
                if zero_progress >= MAX_ZERO_PROGRESS {
                    return Err(ClientError::Unexpected(
                        "resume chain made no progress across repeated partials",
                    ));
                }
            } else {
                zero_progress = 0;
            }
            sent = resume;
        }
        let cost = responses.iter().map(|res| &res.cost).sum();
        let triangles =
            merge_pieces(&responses).ok_or(ClientError::Unexpected("inconsistent piece tables"))?;
        Ok(ChainResult {
            triangles,
            cost,
            requests: responses.len() as u32,
            first_cache_hit: responses[0].cache_hit,
        })
    }

    /// Appends a batch of new edges to a registered graph, creating a new
    /// epoch. Runs as a single attempt even with a retry policy armed:
    /// edits are not idempotent (a replayed batch rejects with
    /// `AlreadyPresent`), so a transport failure after the server applied
    /// the batch must surface to the caller instead of double-applying.
    pub fn add_edges(&mut self, name: &str, edges: &[(u32, u32)]) -> Result<EditInfo, ClientError> {
        match self.call_once_ok(&Request::AddEdges {
            graph: name.to_string(),
            edges: edges.to_vec(),
        })? {
            Response::EditResult(info) => Ok(info),
            _ => Err(ClientError::Unexpected("wanted EditResult")),
        }
    }

    /// Removes a batch of existing edges, creating a new epoch. Single
    /// attempt, like [`Client::add_edges`].
    pub fn remove_edges(
        &mut self,
        name: &str,
        edges: &[(u32, u32)],
    ) -> Result<EditInfo, ClientError> {
        match self.call_once_ok(&Request::RemoveEdges {
            graph: name.to_string(),
            edges: edges.to_vec(),
        })? {
            Response::EditResult(info) => Ok(info),
            _ => Err(ClientError::Unexpected("wanted EditResult")),
        }
    }

    /// One `ListNewTriangles` request (possibly returning a partial
    /// result whose resume token continues the window's enumeration).
    pub fn list_new(&mut self, params: DeltaParams) -> Result<DeltaRunResult, ClientError> {
        match self.call_ok(&Request::ListNewTriangles(params))? {
            Response::NewTrianglesResult(res) => Ok(res),
            _ => Err(ClientError::Unexpected("wanted NewTrianglesResult")),
        }
    }

    /// Drives a `ListNewTriangles` window to completion, feeding each
    /// partial response's resume token into the next request. The window
    /// end is pinned to the first response's resolved epoch, so a
    /// [`DeltaParams::LATEST`] request stays on one window even if edits
    /// land mid-chain — and a compaction mid-chain is invisible (epochs
    /// never renumber).
    pub fn list_new_to_completion(
        &mut self,
        params: DeltaParams,
    ) -> Result<ChainResult, ClientError> {
        let first = params.resume.clone();
        let mut next = params;
        self.drive_chain(first, |client, resume| {
            next.resume = resume;
            let res = client.list_new(next.clone())?;
            next.to_epoch = res.to_epoch;
            Ok(res.result)
        })
    }

    /// Prices a prospective request with the server's cost model; returns
    /// `(per_node, total_ops, n)`.
    pub fn predict(
        &mut self,
        graph: &str,
        method: &str,
        family: &str,
    ) -> Result<(f64, f64, u64), ClientError> {
        match self.call_ok(&Request::ModelPredict {
            graph: graph.to_string(),
            method: method.to_string(),
            family: family.to_string(),
        })? {
            Response::Predicted {
                per_node,
                total_ops,
                n,
            } => Ok((per_node, total_ops, n)),
            _ => Err(ClientError::Unexpected("wanted Predicted")),
        }
    }

    /// Fetches the server's counters in their stable order.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>, ClientError> {
        match self.call_ok(&Request::Stats)? {
            Response::StatsResult(fields) => Ok(fields),
            _ => Err(ClientError::Unexpected("wanted StatsResult")),
        }
    }

    /// Asks the server which listing plan its autotuner picked for a
    /// registered graph (computing and caching the plan on first ask).
    pub fn explain_plan(&mut self, graph: &str) -> Result<PlanInfo, ClientError> {
        match self.call_ok(&Request::ExplainPlan {
            graph: graph.to_string(),
        })? {
            Response::PlanResult(info) => Ok(info),
            _ => Err(ClientError::Unexpected("wanted PlanResult")),
        }
    }

    /// Asks the server to drain.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call_ok(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            _ => Err(ClientError::Unexpected("wanted ShutdownAck")),
        }
    }
}
