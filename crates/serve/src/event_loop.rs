//! The connection layer: one event-loop thread multiplexing every
//! connection through readiness notifications (epoll via the vendored
//! [`mio`] shim), with request execution decoupled onto a fixed worker
//! pool.
//!
//! # Shape
//!
//! ```text
//!            ┌────────────── event-loop thread ──────────────┐
//! accept ──▶ │ per-conn state machine:                       │
//!            │   read buffer → scan_frame → decode →         │
//!            │   classify ──▶ Inline response (Stats, gates) │──▶ write
//!            │            └─▶ Job {seq} ──▶ executor lanes   │  coalesced,
//!            │ completions (via Waker) ──▶ pending[seq] ─────│  seq order
//!            └───────────────────────────────────────────────┘
//!                 express lane (Register/Predict, 2 workers)
//!                 priced lane (List/Count/ListNewTriangles, one FIFO
//!                 queue and max_inflight workers — each worker is an
//!                 admission slot, held from dequeue until the response
//!                 is built)
//! ```
//!
//! # Invariants
//!
//! - **Frame-order responses.** Every parsed frame gets a sequence
//!   number; responses flush strictly in sequence order no matter how
//!   out-of-order execution completes. A slow `List` therefore never
//!   blocks the *execution* of pipelined `Stats`/`ModelPredict` behind
//!   it — only the flush order.
//! - **`RegisterGraph` is a per-connection barrier.** It waits for the
//!   connection's earlier jobs and holds back its later ones, so a
//!   pipelined `[Register g, List g]` behaves exactly as if issued
//!   sequentially.
//! - **Submit-time shedding.** A priced job takes an admission queue
//!   place as it is submitted; with `max_inflight + max_queue` taken it is
//!   rejected busy ([`crate::admission::Admission::shed_busy`]) before
//!   prepare or pricing runs. The lane's queue is the only place it waits.
//! - **Backpressure, not unbounded buffering.** A connection stops being
//!   read (its `READABLE` interest is dropped) while it has
//!   [`PER_CONN_BACKLOG`] responses outstanding or
//!   [`OUT_HIGH_WATER`] unflushed bytes; level-triggered readiness
//!   resumes it losslessly.
//! - **Idle costs nothing.** With no draining in progress the loop
//!   blocks in the kernel with no timeout; completions and shutdown
//!   arrive through an eventfd [`Waker`] (`tests/serve_idle.rs`).
//! - **Bounded drain.** After shutdown, connections close once quiesced;
//!   past [`DRAIN_GRACE`] every connection with nothing executing closes,
//!   dropping half-read frames and unflushed answers, so a peer that
//!   stops reading cannot hold the server open.

use crate::admission::Rejection;
use crate::chaos::ChaosStream;
use crate::lock;
use crate::metrics::Metric;
use crate::protocol::{encode_frame, scan_frame, ErrorCode, ErrorFrame, Request, Response};
use crate::server::{
    accept_error_action, classify, execute, execute_guarded, protocol_error, AcceptAction,
    Dispatch, Shared,
};
use mio::{Events, Interest, Poll, Registry, Token, Waker};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
/// Connection ids map to tokens offset past the two fixed tokens; ids
/// are never reused, so a stale event for a closed connection simply
/// misses the map.
const CONN_BASE: usize = 2;

/// Events drained per poll call (level-triggered: anything beyond the
/// batch is redelivered next call).
const EVENTS_CAP: usize = 1024;
/// Shared read scratch size; one allocation for the whole loop.
const READ_CHUNK: usize = 64 * 1024;
/// Reads per readiness event before yielding to other connections.
const MAX_READS_PER_EVENT: usize = 16;
/// Outstanding responses (queued + executing + unflushed) per connection
/// before its reads pause.
const PER_CONN_BACKLOG: usize = 128;
/// Unflushed response bytes per connection before its reads pause.
const OUT_HIGH_WATER: usize = 8 << 20;
/// Express-lane workers (Register/Predict): enough that one expensive
/// prepare does not serialize the control plane.
const EXPRESS_WORKERS: usize = 2;
/// Poll cadence while draining (idle polls otherwise block forever).
const DRAIN_POLL: Duration = Duration::from_millis(50);
/// Grace a draining connection gets to finish a half-written frame and
/// to read its answers.
const DRAIN_GRACE: Duration = Duration::from_secs(1);

/// Starts the event loop on a background thread. The returned [`Waker`]
/// interrupts its poll — [`crate::server::ServerHandle::shutdown`] sets
/// the drain flag and wakes.
pub(crate) fn spawn(
    listener: TcpListener,
    shared: Arc<Shared>,
) -> std::io::Result<(JoinHandle<()>, Arc<Waker>)> {
    let poll = Poll::new()?;
    let waker = Arc::new(Waker::new(poll.registry(), WAKER)?);
    let loop_waker = Arc::clone(&waker);
    let thread = std::thread::Builder::new()
        .name("serve-loop".into())
        .spawn(move || run(poll, listener, shared, loop_waker))?;
    Ok((thread, waker))
}

// ---------------------------------------------------------------------
// Executor: two lanes of workers, completions routed back via the waker.
// ---------------------------------------------------------------------

struct Job {
    conn: u64,
    seq: u64,
    barrier: bool,
    priced: bool,
    /// Whether a priced job waits for a slot (its queue place's answer).
    waited: bool,
    req: Request,
}

impl Job {
    /// A `RegisterGraph` is a barrier: it runs alone on its connection.
    fn new(conn: u64, seq: u64, priced: bool, req: Request) -> Job {
        let barrier = matches!(req, Request::RegisterGraph { .. });
        Job {
            conn,
            seq,
            barrier,
            priced,
            waited: false,
            req,
        }
    }
}

struct Completion {
    conn: u64,
    seq: u64,
    barrier: bool,
    resp: Response,
}

#[derive(Default)]
struct LaneState {
    jobs: VecDeque<Job>,
    stop: bool,
}

#[derive(Default)]
struct Lane {
    state: Mutex<LaneState>,
    ready: Condvar,
}

struct DoneQueue {
    completed: Mutex<Vec<Completion>>,
    waker: Arc<Waker>,
}

impl DoneQueue {
    fn push(&self, c: Completion) {
        let first = {
            let mut q = lock(&self.completed);
            q.push(c);
            q.len() == 1
        };
        // One wake per drain cycle: later pushes land in the same batch
        // the loop is already waking for.
        if first {
            let _ = self.waker.wake();
        }
    }

    fn take(&self) -> Vec<Completion> {
        std::mem::take(&mut *lock(&self.completed))
    }
}

struct Executor {
    express: Arc<Lane>,
    priced: Arc<Lane>,
    done: Arc<DoneQueue>,
    workers: Vec<JoinHandle<()>>,
}

impl Executor {
    fn start(shared: Arc<Shared>, waker: Arc<Waker>) -> Executor {
        // one priced worker per admission slot
        let slots = shared.cfg.admission.max_inflight.max(1);
        let done = Arc::new(DoneQueue {
            completed: Mutex::new(Vec::new()),
            waker,
        });
        let express: Arc<Lane> = Arc::default();
        let priced: Arc<Lane> = Arc::default();
        let mut workers = Vec::with_capacity(EXPRESS_WORKERS + slots);
        for lane in std::iter::repeat_n(&express, EXPRESS_WORKERS)
            .chain(std::iter::repeat_n(&priced, slots))
        {
            let lane = Arc::clone(lane);
            let shared = Arc::clone(&shared);
            let done = Arc::clone(&done);
            workers.push(std::thread::spawn(move || worker(&lane, &shared, &done)));
        }
        Executor {
            express,
            priced,
            done,
            workers,
        }
    }

    /// Queues a job on its lane; a priced job first takes an admission
    /// queue place, or answers busy.
    fn submit(&self, shared: &Shared, mut job: Job) -> Result<(), Rejection> {
        let lane = if job.priced {
            job.waited = shared.admission.enqueue()?;
            &self.priced
        } else {
            &self.express
        };
        lock(&lane.state).jobs.push_back(job);
        lane.ready.notify_one();
        Ok(())
    }

    fn shutdown(self) {
        for lane in [&self.express, &self.priced] {
            lock(&lane.state).stop = true;
            lane.ready.notify_all();
        }
        for w in self.workers {
            let _ = w.join();
        }
    }
}

fn worker(lane: &Lane, shared: &Shared, done: &DoneQueue) {
    loop {
        let job = {
            let mut st = lock(&lane.state);
            loop {
                if let Some(job) = st.jobs.pop_front() {
                    break job;
                }
                if st.stop {
                    return;
                }
                st = lane.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Job {
            conn,
            seq,
            barrier,
            priced,
            waited,
            req,
        } = job;
        // A priced job holds its slot until its response is built and
        // frees it before the loop answers, so a client reading its answer
        // never sees its own request in flight.
        let slot = priced.then(|| shared.admission.start(waited));
        // A panicking request — injected by the chaos plan or real — must
        // not deplete the pool: execute_guarded's catch_unwind answers a
        // typed Internal error and the worker keeps serving.
        let resp = execute_guarded(shared, conn, seq, req, slot.as_ref());
        drop(slot);
        done.push(Completion {
            conn,
            seq,
            barrier,
            resp,
        });
    }
}

// ---------------------------------------------------------------------
// Per-connection state machine.
// ---------------------------------------------------------------------

struct Conn {
    id: u64,
    token: Token,
    stream: ChaosStream,
    /// Inbound bytes not yet forming a complete frame.
    acc: Vec<u8>,
    /// Coalesced outbound bytes: responses append here in flush order and
    /// one `write` drains as much as the socket takes.
    out: Vec<u8>,
    /// Written prefix of `out`.
    out_at: usize,
    /// Encoded responses waiting for their turn in sequence order.
    pending: BTreeMap<u64, Vec<u8>>,
    /// Sequence number the next parsed frame gets.
    next_seq: u64,
    /// Sequence number whose response flushes next.
    next_flush: u64,
    /// Parsed jobs not yet handed to the executor (held back by a
    /// barrier, or parsed behind one).
    jobs: VecDeque<Job>,
    /// Jobs handed to the executor whose completion has not routed back.
    inflight: usize,
    /// A `RegisterGraph` is executing; nothing later may start.
    barrier_inflight: bool,
    /// Peer closed its write side (or the socket errored on read).
    read_closed: bool,
    /// Unrecoverable framing violation: the error frame is queued, no
    /// further bytes are parsed, and the connection closes once flushed.
    fatal: bool,
    /// Interest currently registered with the poll, `(read, write)`;
    /// `(false, false)` = deregistered.
    registered: (bool, bool),
}

impl Conn {
    fn new(id: u64, token: Token, stream: ChaosStream) -> Conn {
        Conn {
            id,
            token,
            stream,
            acc: Vec::new(),
            out: Vec::new(),
            out_at: 0,
            pending: BTreeMap::new(),
            next_seq: 0,
            next_flush: 0,
            jobs: VecDeque::new(),
            inflight: 0,
            barrier_inflight: false,
            read_closed: false,
            fatal: false,
            registered: (false, false),
        }
    }

    /// Moves every response whose turn has come from `pending` into the
    /// coalesced write buffer.
    fn promote(&mut self) {
        while let Some(frame) = self.pending.remove(&self.next_flush) {
            self.out.extend_from_slice(&frame);
            self.next_flush += 1;
        }
    }

    /// Writes as much of `out` as the socket takes. `Err` means the
    /// connection is dead.
    fn try_write(&mut self) -> std::io::Result<()> {
        while self.out_at < self.out.len() {
            match self.stream.write(&self.out[self.out_at..]) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_at += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_at == self.out.len() {
            self.out.clear();
            self.out_at = 0;
        }
        Ok(())
    }

    fn backlog(&self) -> usize {
        self.pending.len() + self.jobs.len() + self.inflight
    }

    fn flushed(&self) -> bool {
        self.out_at >= self.out.len()
    }

    /// Nothing queued, executing, or unflushed.
    fn quiesced(&self) -> bool {
        self.inflight == 0 && self.jobs.is_empty() && self.pending.is_empty() && self.flushed()
    }

    /// Should this connection close now?
    fn finished(&self) -> bool {
        (self.read_closed || self.fatal) && self.quiesced()
    }

    /// Reconciles the registered interest with what the state machine
    /// wants: reads pause under backpressure, writes arm only while
    /// bytes wait, and a connection wanting neither deregisters (its
    /// next completion re-arms it).
    fn update_interest(&mut self, registry: &Registry) {
        let want_read = !self.read_closed
            && !self.fatal
            && self.backlog() < PER_CONN_BACKLOG
            && self.out.len() - self.out_at < OUT_HIGH_WATER;
        let want_write = !self.flushed();
        let desired = (want_read, want_write);
        if desired == self.registered {
            return;
        }
        let fd = self.stream.as_raw_fd();
        match desired {
            (false, false) => {
                let _ = registry.deregister(fd);
            }
            (r, w) => {
                let interest = match (r, w) {
                    (true, true) => Interest::READABLE | Interest::WRITABLE,
                    (true, false) => Interest::READABLE,
                    _ => Interest::WRITABLE,
                };
                let result = if self.registered == (false, false) {
                    registry.register(fd, self.token, interest)
                } else {
                    registry.reregister(fd, self.token, interest)
                };
                if result.is_err() {
                    // Treat a failed (re)registration as a dead socket.
                    self.read_closed = true;
                }
            }
        }
        self.registered = desired;
    }
}

/// Whether answering this request on the loop thread is bounded work: a
/// `ModelPredict` that would hit the prepared cache, answer a cheap
/// typed error (unknown family or graph), or nothing at all. A predict
/// that would *build* a cache entry is not bounded — it goes to the
/// express lane like everything else.
fn predict_is_bounded(shared: &Shared, req: &Request) -> bool {
    let Request::ModelPredict { graph, family, .. } = req else {
        return false;
    };
    match trilist_order::OrderingKind::from_name(family) {
        None => true, // answers BadRequest immediately
        Some(k) => shared.store.graph(graph).is_none() || shared.store.has_prepared(graph, k),
    }
}

/// Encodes and queues one response under its sequence number. Every
/// response passes here exactly once, so error frames feed the
/// `responses_error` counter the way the wire sees them.
fn queue_response(conn: &mut Conn, shared: &Shared, seq: u64, resp: &Response) {
    if matches!(resp, Response::Error(_)) {
        shared.metrics.bump(Metric::ResponsesError);
    }
    conn.pending
        .insert(seq, encode_frame(resp.kind(), &resp.payload()));
    conn.promote();
}

/// Hands the connection's front jobs to the executor until a barrier (or
/// an empty queue) stops the pump.
fn pump_jobs(conn: &mut Conn, shared: &Shared, executor: &Executor) {
    while !conn.barrier_inflight {
        let Some(front) = conn.jobs.front() else {
            break;
        };
        if front.barrier && conn.inflight > 0 {
            break; // barrier waits for everything already running
        }
        let Some(job) = conn.jobs.pop_front() else {
            break; // unreachable: front() above was Some
        };
        let (seq, barrier) = (job.seq, job.barrier);
        if let Err(rejection) = executor.submit(shared, job) {
            shared.metrics.bump(Metric::RejectedBusy);
            let busy = ErrorFrame::new(ErrorCode::RejectedBusy, rejection.to_string());
            queue_response(conn, shared, seq, &Response::Error(busy));
            continue;
        }
        conn.inflight += 1;
        if barrier {
            conn.barrier_inflight = true;
            break; // nothing later starts until the barrier completes
        }
    }
}

/// Parses every complete frame in the accumulation buffer and dispatches
/// it: inline answers queue immediately, execution jobs enter the
/// per-connection queue (frame order) and pump into the executor.
fn process_frames(conn: &mut Conn, shared: &Shared, executor: &Executor) {
    while !conn.fatal {
        match scan_frame(&conn.acc) {
            Ok(None) => break,
            Ok(Some((kind, total))) => {
                let seq = conn.next_seq;
                conn.next_seq += 1;
                match Request::decode(kind, &conn.acc[6..total]) {
                    Ok(req) => match classify(shared, req) {
                        Dispatch::Inline(resp) => queue_response(conn, shared, seq, &resp),
                        Dispatch::Express(req) => {
                            // Fast path: a ModelPredict with nothing queued
                            // ahead on this connection and no prepared-cache
                            // build to trigger is bounded work — answer it on
                            // the loop thread and skip the executor round
                            // trip. (Anything queued ahead would break frame
                            // order; a cold cache would stall the loop.)
                            if conn.inflight == 0
                                && conn.jobs.is_empty()
                                && predict_is_bounded(shared, &req)
                            {
                                let resp = execute(shared, req, None);
                                queue_response(conn, shared, seq, &resp);
                            } else {
                                conn.jobs.push_back(Job::new(conn.id, seq, false, req));
                                pump_jobs(conn, shared, executor);
                            }
                        }
                        Dispatch::Priced(req) => {
                            conn.jobs.push_back(Job::new(conn.id, seq, true, req));
                            pump_jobs(conn, shared, executor);
                        }
                    },
                    // A malformed body poisons only its own frame.
                    Err(e) => queue_response(conn, shared, seq, &protocol_error(e)),
                }
                conn.acc.drain(..total);
            }
            Err(e) => {
                // Framing is broken: answer once, then close after flush.
                let seq = conn.next_seq;
                conn.next_seq += 1;
                queue_response(conn, shared, seq, &protocol_error(e));
                conn.fatal = true;
                conn.acc.clear();
            }
        }
    }
}

// ---------------------------------------------------------------------
// The loop.
// ---------------------------------------------------------------------

fn accept_all(
    listener: &TcpListener,
    registry: &Registry,
    shared: &Arc<Shared>,
    conns: &mut HashMap<u64, Conn>,
    next_conn: &mut u64,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let id = *next_conn;
                *next_conn += 1;
                let stream = ChaosStream::new(stream, shared, id);
                let mut conn = Conn::new(id, Token(CONN_BASE + id as usize), stream);
                conn.update_interest(registry);
                conns.insert(id, conn);
            }
            Err(e) => match accept_error_action(&e) {
                AcceptAction::WaitReadable => break,
                AcceptAction::Retry => {}
                AcceptAction::Backoff(pause) => {
                    // EMFILE and friends: count it, pause briefly, and
                    // break out — the listener stays registered, so a
                    // level-triggered poll retries once fds free up
                    // instead of the loop dying or spinning hot.
                    shared.metrics.bump(Metric::AcceptErrors);
                    std::thread::sleep(pause);
                    break;
                }
            },
        }
    }
}

fn close_conn(registry: &Registry, conns: &mut HashMap<u64, Conn>, id: u64) {
    if let Some(conn) = conns.remove(&id) {
        if conn.registered != (false, false) {
            let _ = registry.deregister(conn.stream.as_raw_fd());
        }
    }
}

/// Handles one readiness event for one connection. Returns `false` when
/// the connection died and must be closed.
fn conn_event(
    conn: &mut Conn,
    shared: &Shared,
    executor: &Executor,
    scratch: &mut [u8],
    readable: bool,
    writable: bool,
) -> bool {
    if writable && conn.try_write().is_err() {
        return false;
    }
    if readable && !conn.read_closed && !conn.fatal {
        for _ in 0..MAX_READS_PER_EVENT {
            match conn.stream.read(scratch) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.acc.extend_from_slice(&scratch[..n]);
                    if n < scratch.len() {
                        break; // drained; level-trigger redelivers if not
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.read_closed = true;
                    break;
                }
            }
        }
        process_frames(conn, shared, executor);
        if conn.try_write().is_err() {
            return false;
        }
    }
    true
}

fn run(mut poll: Poll, listener: TcpListener, shared: Arc<Shared>, waker: Arc<Waker>) {
    let registry = poll.registry().clone();
    if registry
        .register(listener.as_raw_fd(), LISTENER, Interest::READABLE)
        .is_err()
    {
        return;
    }
    let executor = Executor::start(Arc::clone(&shared), Arc::clone(&waker));
    let mut events = Events::with_capacity(EVENTS_CAP);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut listener_open = true;
    // Chaos keys I/O injections off these ids; never reused.
    let mut next_conn: u64 = 0;
    let mut drain_since: Option<Instant> = None;

    loop {
        if drain_since.is_none() && shared.shutting.load(Ordering::SeqCst) {
            drain_since = Some(Instant::now());
            if listener_open {
                let _ = registry.deregister(listener.as_raw_fd());
                listener_open = false;
            }
        }
        if let Some(since) = drain_since {
            let expired = since.elapsed() >= DRAIN_GRACE;
            // Past the grace, unflushed answers no longer hold a
            // connection open: a peer that stopped reading would
            // otherwise block shutdown forever.
            let closable: Vec<u64> = conns
                .values()
                .filter(|c| {
                    (expired && c.inflight == 0 && c.jobs.is_empty())
                        || (c.quiesced() && (c.acc.is_empty() || c.read_closed || c.fatal))
                })
                .map(|c| c.id)
                .collect();
            for id in closable {
                close_conn(&registry, &mut conns, id);
            }
            if conns.is_empty() {
                break;
            }
        }

        let timeout = drain_since.map(|_| DRAIN_POLL);
        if poll.poll(&mut events, timeout).is_err() {
            break;
        }

        let mut accept_ready = false;
        let mut ready: Vec<(u64, bool, bool)> = Vec::with_capacity(events.len());
        for ev in events.iter() {
            match ev.token() {
                LISTENER => accept_ready = true,
                WAKER => waker.drain(),
                Token(t) => {
                    ready.push(((t - CONN_BASE) as u64, ev.is_readable(), ev.is_writable()))
                }
            }
        }

        if accept_ready && listener_open {
            accept_all(&listener, &registry, &shared, &mut conns, &mut next_conn);
        }

        for (id, readable, writable) in ready {
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            if !conn_event(conn, &shared, &executor, &mut scratch, readable, writable)
                || conn.finished()
            {
                close_conn(&registry, &mut conns, id);
            } else {
                conn.update_interest(&registry);
            }
        }

        for c in executor.done.take() {
            // The connection may have died while its request executed;
            // the response is then simply dropped.
            let Some(conn) = conns.get_mut(&c.conn) else {
                continue;
            };
            conn.inflight -= 1;
            if c.barrier {
                conn.barrier_inflight = false;
            }
            queue_response(conn, &shared, c.seq, &c.resp);
            pump_jobs(conn, &shared, &executor);
            let dead = conn.try_write().is_err();
            if dead || conn.finished() {
                close_conn(&registry, &mut conns, c.conn);
            } else {
                conn.update_interest(&registry);
            }
        }
    }

    executor.shutdown();
}
