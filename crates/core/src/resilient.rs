//! The resilience layer over the work-stealing runtime: run budgets,
//! chunk-level fault isolation with retry, and partial-result delivery.
//!
//! The ROADMAP's north star is a production-scale listing service, and a
//! production runtime cannot let one poisoned chunk abort a multi-minute
//! run, nor run unbounded in wall-clock or memory (Berry et al. on
//! adversarial real-world inputs; AOT on memory-footprint-bound listing).
//! This module threads three guarantees through the scheduler in
//! [`parallel`](crate::parallel):
//!
//! 1. **Budgets.** A [`RunBudget`] (deadline, cooperative [`CancelToken`],
//!    approximate memory ceiling) is checked by every worker at each chunk
//!    boundary, so a triggered budget stops the run within one chunk's
//!    worth of work — never mid-chunk, so the completed prefix is always
//!    well-formed.
//! 2. **Fault isolation.** A panicking chunk is quarantined, not fatal:
//!    it goes back to the shared queue (so with more than one worker the
//!    retry usually lands elsewhere) up to [`ResilientOpts::max_attempts`]
//!    times, with the final attempt running *degraded* — paper-faithful
//!    kernels, no adaptive state — in case worker-local kernel state was
//!    implicated. Only when retries exhaust is the chunk reported failed,
//!    and even then the rest of the run completes.
//! 3. **Partial results.** On any early stop the caller gets a
//!    [`PartialRun`]: completed per-chunk [`CostReport`]s and triangles
//!    plus a [`ResumePoint`] of unvisited ranges. Resuming and merging is
//!    byte-identical to an uninterrupted run, because chunks are merged by
//!    chunk index and every chunk's output is schedule-independent.
//!
//! A deterministic, seeded [`FaultPlan`] (panic-at-chunk, slow-chunk,
//! alloc-pressure) drives the differential suite in `tests/resilience.rs`:
//! faults are decided by hashing `(seed, chunk, attempt)`, so a plan
//! reproduces exactly across thread counts and steal schedules.
//!
//! The runtime is generic over its [`WorkDomain`]: listing chunks visited
//! nodes, [`delta`](crate::delta) chunks net-new edges, and both share the
//! scheduler, the ordered merge and the [`ResumePoint`] token grammar.

use crate::cost::CostReport;
use crate::kernel::{KernelMeter, KernelPolicy, Kernels};
use crate::obs::{ChunkSpan, Counter, HistKind, Recorder, NOOP};
use crate::oracle::HashOracle;
use crate::parallel::{
    chunk_ranges_src, ensure_fundamental, run_chunk, ParallelError, ParallelRun, ThreadStats,
};
use crate::sink::TriangleBuffer;
use crate::source::{with_reader, DecodeScratch, GraphSource};
use crate::Method;
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use std::collections::HashSet;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use trilist_order::DirectedGraph;

/// Poison-tolerant lock: a worker that panicked while holding the mutex
/// must not cascade into a second panic on the merge path.
fn lock_tolerant<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Cooperative cancellation handle: clone it, hand one clone to the run,
/// and call [`CancelToken::cancel`] from anywhere (another thread, a signal
/// handler) to stop the run at the next chunk boundary.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has [`CancelToken::cancel`] been called?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A process-wide memory gauge shared by a cache layer and any number of
/// concurrent runs, so both respect one global ceiling.
///
/// Clone it freely — clones share the same counter. Attach a clone to a
/// [`RunBudget`] via [`RunBudget::with_gauge`]: the run's transient
/// allocations (oracle build, kernel bitmaps, staged triangles) are charged
/// to the shared gauge while the run executes and released when it
/// concludes, while charges made directly through [`MemoryGauge::add`]
/// (e.g. cache entries) persist until explicitly released.
#[derive(Clone, Debug, Default)]
pub struct MemoryGauge(Arc<AtomicU64>);

impl MemoryGauge {
    /// A fresh gauge reading zero.
    pub fn new() -> Self {
        MemoryGauge::default()
    }

    /// Charge `bytes` to the gauge.
    pub fn add(&self, bytes: u64) {
        self.0.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Return `bytes` to the gauge (saturating at zero).
    pub fn release(&self, bytes: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |u| {
                Some(u.saturating_sub(bytes))
            });
    }

    /// Bytes currently charged by every holder of this gauge.
    pub fn used(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Why a run stopped before completing every chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// The [`CancelToken`] was triggered.
    Cancelled,
    /// The approximate memory gauge crossed the ceiling.
    MemoryExhausted,
    /// At least one chunk exhausted all retry attempts (the rest of the
    /// run still completed; the failed ranges are in the resume point).
    ChunkFailed,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StopReason::DeadlineExceeded => "deadline exceeded",
            StopReason::Cancelled => "cancelled",
            StopReason::MemoryExhausted => "memory budget exhausted",
            StopReason::ChunkFailed => "chunk failed after all retries",
        })
    }
}

/// Declarative limits for one run. The default is unlimited (no deadline,
/// no ceiling, no token), which reproduces the plain runtime exactly.
#[derive(Clone, Debug, Default)]
pub struct RunBudget {
    /// Wall-clock allowance measured from [`RunBudget::start`].
    pub deadline: Option<Duration>,
    /// Approximate memory ceiling in bytes. The gauge counts the dominant
    /// allocations — hash-oracle build, the run's kernel context, staged
    /// triangles — not every byte, so treat it as a guardrail, not `rusage`.
    pub memory_bytes: Option<u64>,
    /// Cooperative cancellation token, checked at chunk boundaries.
    pub cancel: Option<CancelToken>,
    /// Shared gauge the run charges alongside its private one (see
    /// [`MemoryGauge`]). When set, the memory ceiling is checked against
    /// the *shared* total — cache residency plus every in-flight run —
    /// and the run's own charges are returned to the gauge when it
    /// concludes.
    pub gauge: Option<MemoryGauge>,
}

impl RunBudget {
    /// No limits at all.
    pub fn unlimited() -> Self {
        RunBudget::default()
    }

    /// With a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// With an approximate memory ceiling in bytes.
    pub fn with_memory_bytes(mut self, bytes: u64) -> Self {
        self.memory_bytes = Some(bytes);
        self
    }

    /// With a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// With a shared [`MemoryGauge`] (cache + runs under one ceiling).
    pub fn with_gauge(mut self, gauge: MemoryGauge) -> Self {
        self.gauge = Some(gauge);
        self
    }

    /// True when no limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.memory_bytes.is_none() && self.cancel.is_none()
    }

    /// Arms the budget: the deadline clock starts now.
    pub fn start(&self) -> ActiveBudget {
        let now = Instant::now();
        ActiveBudget {
            started: now,
            deadline: self.deadline.map(|d| now + d),
            memory_limit: self.memory_bytes,
            cancel: self.cancel.clone(),
            used: AtomicU64::new(0),
            gauge: self.gauge.clone(),
        }
    }
}

/// An armed [`RunBudget`]: the deadline instant plus the shared memory
/// gauge that workers charge as they allocate.
#[derive(Debug)]
pub struct ActiveBudget {
    started: Instant,
    deadline: Option<Instant>,
    memory_limit: Option<u64>,
    cancel: Option<CancelToken>,
    used: AtomicU64,
    gauge: Option<MemoryGauge>,
}

impl ActiveBudget {
    /// First triggered limit, if any — cancellation wins over the deadline,
    /// the deadline over memory (the cheaper checks first).
    pub fn check(&self) -> Option<StopReason> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Some(StopReason::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(StopReason::DeadlineExceeded);
            }
        }
        if let Some(limit) = self.memory_limit {
            if self.total_used() > limit {
                return Some(StopReason::MemoryExhausted);
            }
        }
        None
    }

    /// Charge `bytes` to the memory gauge (and the shared gauge, if any).
    pub fn add_memory(&self, bytes: u64) {
        self.used.fetch_add(bytes, Ordering::Relaxed);
        if let Some(g) = &self.gauge {
            g.add(bytes);
        }
    }

    /// Return `bytes` to the gauge (e.g. a pass-local column was dropped).
    pub fn release_memory(&self, bytes: u64) {
        let _ = self
            .used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |u| {
                Some(u.saturating_sub(bytes))
            });
        if let Some(g) = &self.gauge {
            g.release(bytes);
        }
    }

    /// Bytes charged by *this run*.
    pub fn memory_used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Bytes the ceiling is compared against: the shared gauge's total
    /// when one is attached (cache + every in-flight run), this run's
    /// charges otherwise.
    pub fn total_used(&self) -> u64 {
        match &self.gauge {
            Some(g) => g.used(),
            None => self.memory_used(),
        }
    }

    /// Bytes left under the ceiling (`None` = unlimited).
    pub fn remaining_memory(&self) -> Option<u64> {
        self.memory_limit
            .map(|l| l.saturating_sub(self.total_used()))
    }

    /// Returns every byte this run charged to the shared gauge (no-op
    /// without one): transient run memory is gone once the run concludes,
    /// while direct cache charges persist. Called by the runtime at the
    /// end of a run; idempotent because the local counter zeroes out.
    pub fn settle(&self) {
        if let Some(g) = &self.gauge {
            g.release(self.used.swap(0, Ordering::Relaxed));
        }
    }

    /// Wall time since the budget was armed.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

/// What a [`FaultPlan`] injects into one chunk execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Panic before the chunk body runs.
    Panic,
    /// Sleep this long before the chunk body runs.
    Slow(Duration),
    /// Allocate (and charge to the memory gauge) this many bytes.
    Alloc(u64),
}

/// Deterministic, seeded fault injector for the differential suite.
///
/// Whether chunk `c` faults on attempt `a` is a pure function of
/// `(seed, c, a)` — independent of thread count, steal schedule, and chunk
/// count — so a failing fault schedule replays exactly from its seed.
/// Rates are per-mille (0–1000) over chunks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed feeding the per-chunk hash.
    pub seed: u64,
    /// Per-mille of chunks that panic.
    pub panic_permille: u16,
    /// A selected chunk panics on attempts `0..panic_attempts` and then
    /// succeeds — set it at or above the run's `max_attempts` to make the
    /// fault permanent.
    pub panic_attempts: u32,
    /// Per-mille of chunks delayed (every attempt).
    pub slow_permille: u16,
    /// Delay applied to slow chunks.
    pub slow: Duration,
    /// Per-mille of chunks that allocate ballast (every attempt).
    pub alloc_permille: u16,
    /// Ballast size charged to the memory gauge per selected chunk.
    pub alloc_bytes: u64,
}

impl FaultPlan {
    /// A mixed plan exercising all three fault kinds at moderate rates:
    /// 15% of chunks panic once (recoverable with retries), 10% are slowed
    /// by 200µs, 10% allocate 1 MiB of ballast.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            panic_permille: 150,
            panic_attempts: 1,
            slow_permille: 100,
            slow: Duration::from_micros(200),
            alloc_permille: 100,
            alloc_bytes: 1 << 20,
        }
    }

    /// Pure panic plan: `permille` of chunks panic on their first
    /// `attempts` attempts.
    pub fn panic_at(seed: u64, permille: u16, attempts: u32) -> Self {
        FaultPlan {
            seed,
            panic_permille: permille,
            panic_attempts: attempts,
            ..FaultPlan::default()
        }
    }

    /// Pure slow-chunk plan.
    pub fn slow_chunks(seed: u64, permille: u16, delay: Duration) -> Self {
        FaultPlan {
            seed,
            slow_permille: permille,
            slow: delay,
            ..FaultPlan::default()
        }
    }

    /// Pure alloc-pressure plan.
    pub fn alloc_pressure(seed: u64, permille: u16, bytes: u64) -> Self {
        FaultPlan {
            seed,
            alloc_permille: permille,
            alloc_bytes: bytes,
            ..FaultPlan::default()
        }
    }

    /// The fault injected into `(chunk, attempt)`, if any. Panic takes
    /// precedence over slow over alloc when a chunk is selected by more
    /// than one rate.
    pub fn fault_for(&self, chunk: u32, attempt: u32) -> Option<Fault> {
        if roll(self.seed, 0x5041_4e49, chunk) < self.panic_permille
            && attempt < self.panic_attempts
        {
            return Some(Fault::Panic);
        }
        if roll(self.seed, 0x534c_4f57, chunk) < self.slow_permille {
            return Some(Fault::Slow(self.slow));
        }
        if roll(self.seed, 0x414c_4c43, chunk) < self.alloc_permille {
            return Some(Fault::Alloc(self.alloc_bytes));
        }
        None
    }

    /// Executes the injected fault (called inside the chunk's panic
    /// isolation). Alloc ballast really allocates (capped at 4 MiB of
    /// touched memory) and charges the *nominal* size to the gauge.
    pub(crate) fn inject(&self, chunk: u32, attempt: u32, budget: &ActiveBudget) {
        match self.fault_for(chunk, attempt) {
            Some(Fault::Panic) => {
                panic!("injected fault: panic at chunk {chunk} attempt {attempt}")
            }
            Some(Fault::Slow(delay)) => std::thread::sleep(delay),
            Some(Fault::Alloc(bytes)) => {
                let ballast = vec![0xA5u8; bytes.min(1 << 22) as usize];
                std::hint::black_box(&ballast);
                budget.add_memory(bytes);
            }
            None => {}
        }
    }
}

/// Installs a process-wide panic hook that swallows the default report for
/// panics raised by [`FaultPlan`] injection (payloads beginning with
/// `injected fault`), so fault-heavy runs don't flood stderr with
/// backtraces for panics the scheduler is designed to absorb. All other
/// panics still reach the previously installed hook. Idempotent.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.starts_with("injected fault"))
                .unwrap_or(false);
            if !injected {
                default(info);
            }
        }));
    });
}

/// splitmix64 finalizer — the per-chunk hash behind [`FaultPlan`].
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Uniform-ish draw in `0..1000` from `(seed, salt, chunk)`.
fn roll(seed: u64, salt: u64, chunk: u32) -> u16 {
    (mix(mix(seed ^ salt) ^ chunk as u64) % 1000) as u16
}

/// Uniform-ish per-mille draw from `(seed, salt, lane, index)` — the same
/// splitmix64 finalizer chain behind [`FaultPlan`], generalized to two
/// coordinates so higher layers can key injections off richer identities
/// (the serve stack's `ChaosPlan` uses `(conn_id, event_index)`). Pure and
/// schedule-independent: the draw depends only on its four arguments.
pub fn fault_roll(seed: u64, salt: u64, lane: u64, index: u64) -> u16 {
    (mix(mix(mix(seed ^ salt) ^ lane) ^ index) % 1000) as u16
}

/// What a chunked run's ranges index. Resume tokens and spans carry it,
/// so neither can be mistaken for the other domain's.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkDomain {
    /// Visited-node ranges of a listing method (T1, T2, E1, E4).
    Listing(Method),
    /// Ranges of net-new edge indices of a new-triangle run (see
    /// [`crate::delta`]).
    Delta,
}

/// The method name, or `delta`: the tag of a resume token.
impl std::fmt::Display for WorkDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkDomain::Listing(method) => write!(f, "{method}"),
            WorkDomain::Delta => f.write_str("delta"),
        }
    }
}

/// One chunk execution that panicked: the quarantine record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkFault {
    /// Global chunk index.
    pub chunk: u32,
    /// Range the chunk covers in its [`WorkDomain`].
    pub range: Range<u32>,
    /// Worker that was executing.
    pub worker: usize,
    /// Zero-based attempt number that faulted.
    pub attempt: u32,
    /// The panic payload, stringified.
    pub message: String,
    /// True when this was the final allowed attempt (the chunk is
    /// permanently failed; its range appears in the resume point).
    pub fatal: bool,
}

/// What a listing run's chunks keep of the triangles they find. The
/// operation counts are the same either way: a count is a listing run
/// whose sink drops each triangle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Emit {
    /// Stage every triangle in its chunk's piece, charged to the budget
    /// as the chunk completes, for the ordered merge.
    #[default]
    Triangles,
    /// Keep only the counts: no piece holds a triangle, so the run stages
    /// nothing and its memory is its oracle and kernel context alone.
    Counts,
}

/// One completed chunk's output, tagged with its global index so partial
/// and resumed runs merge in the exact sequential order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkPiece {
    /// Global chunk index (position in the original chunking).
    pub chunk: u32,
    /// Range the chunk covers in its [`WorkDomain`].
    pub range: Range<u32>,
    /// The chunk's operation counts.
    pub cost: CostReport,
    /// The chunk's triangles, in emission order (none under
    /// [`Emit::Counts`]).
    pub triangles: Vec<(u32, u32, u32)>,
}

impl ChunkPiece {
    /// `(chunk, triangles)`, this piece's row of a chunk table. It reads
    /// the cost, so a counting run's table equals a listing run's.
    pub fn table_row(&self) -> (u32, u32) {
        (self.chunk, self.cost.triangles as u32)
    }
}

/// The unvisited remainder of an interrupted run, serializable to a stable
/// one-line text format so a later request or process can resume it:
///
/// ```text
/// trilist-resume v1 <method> n=<n> <chunk>:<start>-<end> ...
/// trilist-resume v1 delta n=<n> edges=<k> <chunk>:<start>-<end> ...
/// ```
///
/// The tag is the [`WorkDomain`]; `n` (and `edges` for delta) pin the
/// shape of the run, so a token offered to the wrong graph, delta or
/// domain is rejected instead of listing garbage. A token is outside
/// input: it must hold at least one range, chunk indices must strictly
/// ascend, and ranges must ascend without overlap inside the domain
/// (`0..n`, or `0..edges` for delta), so no replay can list a range twice.
/// [`ResumePoint::new`] checks these rules, and every point is built
/// through it, so a point that exists obeys them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResumePoint {
    domain: WorkDomain,
    n: u32,
    edges: u64,
    ranges: Vec<(u32, Range<u32>)>,
}

impl ResumePoint {
    /// A point over `ranges` of a `domain` run on an `n`-node graph, with
    /// `edges` net-new edges for a delta run (0 for listing, which the
    /// token does not spell). Fails unless the ranges obey the token rules
    /// (see [`ResumePoint`]).
    pub fn new(
        domain: WorkDomain,
        n: u32,
        edges: u64,
        ranges: Vec<(u32, Range<u32>)>,
    ) -> Result<ResumePoint, ResumeParseError> {
        let err = |m: String| Err(ResumeParseError(m));
        let extent = match domain {
            WorkDomain::Listing(_) if edges == 0 => n as u64,
            WorkDomain::Listing(_) => return err("a listing point has no edge count".into()),
            WorkDomain::Delta => edges,
        };
        if ranges.is_empty() {
            return err("resume point has no ranges".into());
        }
        let mut prev: Option<(u32, u32)> = None;
        for (chunk, r) in &ranges {
            if r.start > r.end || r.end as u64 > extent {
                return err(format!(
                    "chunk {chunk} range {}..{} outside 0..{extent}",
                    r.start, r.end
                ));
            }
            if prev.is_some_and(|(last, end)| *chunk <= last || r.start < end) {
                return err(format!(
                    "chunk {chunk} repeats, descends or overlaps the range before it"
                ));
            }
            prev = Some((*chunk, r.end));
        }
        Ok(ResumePoint {
            domain,
            n,
            edges,
            ranges,
        })
    }

    /// What the ranges index.
    pub fn domain(&self) -> WorkDomain {
        self.domain
    }

    /// Node count of the graph the chunking was computed for.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Net-new edge count of a delta run (0 for listing).
    pub fn edges(&self) -> u64 {
        self.edges
    }

    /// `(chunk index, range)` still to execute, ascending.
    pub fn ranges(&self) -> &[(u32, Range<u32>)] {
        &self.ranges
    }

    /// Chunks still unvisited.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Executes the remaining chunks of a listing run. The merged result
    /// of the partial run's pieces plus these (see
    /// [`PartialRun::resume_with`]) is byte-identical to an uninterrupted
    /// run.
    pub fn run(
        &self,
        g: &DirectedGraph,
        opts: &ResilientOpts,
    ) -> Result<RunOutcome, ParallelError> {
        self.run_src(GraphSource::Plain(g), opts)
    }

    /// [`ResumePoint::run`] over either adjacency layout. A resume point
    /// taken on one layout may be finished on the other — chunk indices
    /// and per-chunk results are layout-invariant.
    pub fn run_src(
        &self,
        src: GraphSource<'_>,
        opts: &ResilientOpts,
    ) -> Result<RunOutcome, ParallelError> {
        self.resume_listing(src, opts, Vec::new())
    }

    /// Runs the remaining chunks of a listing run and merges them with
    /// `prior` pieces.
    fn resume_listing(
        &self,
        src: GraphSource<'_>,
        opts: &ResilientOpts,
        prior: Vec<ChunkPiece>,
    ) -> Result<RunOutcome, ParallelError> {
        let WorkDomain::Listing(method) = self.domain else {
            return Err(ParallelError::InvalidResume(format!(
                "resume point is for {}, not a listing run",
                self.domain
            )));
        };
        self.fits(&ResumePoint::shape(self.domain, src.n(), 0))
            .map_err(ParallelError::InvalidResume)?;
        run_jobs(src, method, &self.ranges, opts, prior)
    }

    /// An empty point describing a run's shape: what a token must match
    /// to resume it, and what an interrupted run's token is built from.
    pub(crate) fn shape(domain: WorkDomain, n: usize, edges: u64) -> ResumePoint {
        ResumePoint {
            domain,
            n: n as u32,
            edges,
            ranges: Vec::new(),
        }
    }

    /// Checks this point against the `shape` of the run it is offered to:
    /// same domain and pins.
    pub(crate) fn fits(&self, shape: &ResumePoint) -> Result<(), String> {
        let pins = |p: &ResumePoint| (p.domain, p.n, p.edges);
        if pins(self) != pins(shape) {
            return Err(format!(
                "resume point is for {} n={} edges={}, the run is {} n={} edges={}",
                self.domain, self.n, self.edges, shape.domain, shape.n, shape.edges
            ));
        }
        Ok(())
    }
}

impl std::fmt::Display for ResumePoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trilist-resume v1 {} n={}", self.domain, self.n)?;
        if self.domain == WorkDomain::Delta {
            write!(f, " edges={}", self.edges)?;
        }
        for (chunk, r) in &self.ranges {
            write!(f, " {chunk}:{}-{}", r.start, r.end)?;
        }
        Ok(())
    }
}

/// A [`ResumePoint`] that failed to parse or does not fit its run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResumeParseError(pub(crate) String);

impl std::fmt::Display for ResumeParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid resume point: {}", self.0)
    }
}

impl std::error::Error for ResumeParseError {}

impl std::str::FromStr for ResumePoint {
    type Err = ResumeParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |m: &str| ResumeParseError(m.to_string());
        let mut tokens = s.split_whitespace();
        if tokens.next() != Some("trilist-resume") {
            return Err(err("missing trilist-resume magic"));
        }
        if tokens.next() != Some("v1") {
            return Err(err("unsupported version (expected v1)"));
        }
        let domain = match tokens.next() {
            Some("delta") => WorkDomain::Delta,
            tag => WorkDomain::Listing(
                tag.and_then(Method::from_name)
                    .ok_or_else(|| err("bad domain token"))?,
            ),
        };
        let mut field = |name: &str| {
            tokens
                .next()
                .and_then(|t| t.strip_prefix(name))
                .and_then(|t| t.parse::<u64>().ok())
                .ok_or_else(|| err(&format!("bad {name} token")))
        };
        let n = u32::try_from(field("n=")?).map_err(|_| err("bad n= token"))?;
        let edges = match domain {
            WorkDomain::Listing(_) => 0,
            WorkDomain::Delta => field("edges=")?,
        };
        let mut ranges = Vec::new();
        for tok in tokens {
            let (chunk, span) = tok.split_once(':').ok_or_else(|| err("bad range token"))?;
            let (start, end) = span.split_once('-').ok_or_else(|| err("bad range token"))?;
            let chunk = chunk.parse::<u32>().map_err(|_| err("bad chunk index"))?;
            let start = start.parse::<u32>().map_err(|_| err("bad range start"))?;
            let end = end.parse::<u32>().map_err(|_| err("bad range end"))?;
            ranges.push((chunk, start..end));
        }
        ResumePoint::new(domain, n, edges, ranges)
    }
}

/// An interrupted run: everything completed so far plus what remains.
#[derive(Clone, Debug)]
pub struct PartialRun {
    /// Why the run stopped early.
    pub reason: StopReason,
    /// Completed chunks, ascending by chunk index.
    pub completed: Vec<ChunkPiece>,
    /// The unvisited remainder.
    pub resume: ResumePoint,
    /// Every quarantined chunk execution (recovered and fatal).
    pub faults: Vec<ChunkFault>,
    /// Per-worker telemetry.
    pub threads: Vec<ThreadStats>,
}

impl PartialRun {
    /// Merged cost of the completed chunks.
    pub fn cost(&self) -> CostReport {
        self.completed.iter().map(|p| &p.cost).sum()
    }

    /// Completed triangles, in sequential (chunk) order.
    pub fn triangles(&self) -> Vec<(u32, u32, u32)> {
        self.completed
            .iter()
            .flat_map(|p| p.triangles.iter().copied())
            .collect()
    }

    /// Chunks completed before the stop.
    pub fn completed_chunks(&self) -> usize {
        self.completed.len()
    }

    /// Total chunks in the original run.
    pub fn total_chunks(&self) -> usize {
        self.completed.len() + self.resume.ranges.len()
    }

    /// Executes the unvisited remainder and merges it with the completed
    /// pieces. A `Complete` outcome is byte-identical — triangles and every
    /// cost field — to the same run never having been interrupted (under
    /// the paper-faithful policy; adaptive policies may differ in the
    /// `pointer_advances` implementation metric only).
    pub fn resume_with(
        &self,
        g: &DirectedGraph,
        opts: &ResilientOpts,
    ) -> Result<RunOutcome, ParallelError> {
        self.resume_with_src(GraphSource::Plain(g), opts)
    }

    /// [`PartialRun::resume_with`] over either adjacency layout.
    pub fn resume_with_src(
        &self,
        src: GraphSource<'_>,
        opts: &ResilientOpts,
    ) -> Result<RunOutcome, ParallelError> {
        self.resume
            .resume_listing(src, opts, self.completed.clone())
    }
}

/// The outcome of a budgeted run.
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// Every chunk completed; identical shape to the plain runtime's
    /// result.
    Complete(ParallelRun),
    /// The run stopped early; completed work and a resume point inside.
    Partial(PartialRun),
}

impl RunOutcome {
    /// Did every chunk complete?
    pub fn is_complete(&self) -> bool {
        matches!(self, RunOutcome::Complete(_))
    }

    /// The complete run, if it is one.
    pub fn complete(self) -> Option<ParallelRun> {
        match self {
            RunOutcome::Complete(run) => Some(run),
            RunOutcome::Partial(_) => None,
        }
    }

    /// The partial run, if it is one.
    pub fn partial(self) -> Option<PartialRun> {
        match self {
            RunOutcome::Complete(_) => None,
            RunOutcome::Partial(p) => Some(p),
        }
    }
}

/// Options for a resilient run: the plain scheduler knobs plus budget,
/// retry limit, observability sink, and (for tests) a fault plan.
#[derive(Clone)]
pub struct ResilientOpts {
    /// Scheduler knobs (threads, chunk size, kernel policy).
    pub parallel: crate::parallel::ParallelOpts,
    /// Limits checked at chunk boundaries.
    pub budget: RunBudget,
    /// Executions allowed per chunk (clamped to at least 1). The final
    /// attempt runs degraded: paper-faithful kernels, no adaptive state.
    pub max_attempts: u32,
    /// Deterministic fault injection, for the differential suite.
    pub fault_plan: Option<FaultPlan>,
    /// Observability sink shared by all workers (`None` = the no-op
    /// recorder). Recording is pure observation: triangles, every
    /// `CostReport` field, and schedule semantics are identical with any
    /// recorder attached (`tests/obs_differential.rs`).
    pub recorder: Option<Arc<dyn Recorder>>,
    /// A prebuilt edge oracle for T1/T2 runs (ignored by SEI methods).
    /// When set, the runtime skips its internal [`HashOracle::build`] and
    /// the oracle's memory charge — the holder (e.g. a graph cache)
    /// already accounts for it. Results are byte-identical either way:
    /// vertex iterators probe through the uncounted [`EdgeOracle::has`]
    /// path, so a shared oracle carries no per-run state.
    ///
    /// [`EdgeOracle::has`]: crate::oracle::EdgeOracle::has
    pub oracle: Option<Arc<HashOracle>>,
    /// A prebuilt base context (e.g. a graph cache's) the run borrows
    /// from. The run still executes `parallel.policy`: it shares every
    /// structure of the base that its policy would build with identical
    /// parameters, builds only the rest inside its budget, and charges
    /// only what it built — the holder accounts for the base
    /// ([`Kernels::borrow_within_src`]). [`Kernels`] is read-only during
    /// execution, so borrowing preserves byte-identical results; each
    /// worker runs a clone that shares every structure and carries only
    /// the worker's own meter.
    pub kernels: Option<Arc<Kernels>>,
    /// Whether the chunks keep their triangles or only count them
    /// ([`Emit::Triangles`] by default). A resumed run reads it too, so a
    /// counting resume chain stages nothing either.
    pub emit: Emit,
}

impl std::fmt::Debug for ResilientOpts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientOpts")
            .field("parallel", &self.parallel)
            .field("budget", &self.budget)
            .field("max_attempts", &self.max_attempts)
            .field("fault_plan", &self.fault_plan)
            .field("recorder", &self.recorder.as_ref().map(|_| "dyn Recorder"))
            .field("oracle", &self.oracle.as_ref().map(|_| "shared"))
            .field("kernels", &self.kernels.as_ref().map(|_| "shared"))
            .field("emit", &self.emit)
            .finish()
    }
}

impl Default for ResilientOpts {
    fn default() -> Self {
        ResilientOpts {
            parallel: crate::parallel::ParallelOpts::default(),
            budget: RunBudget::unlimited(),
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            fault_plan: None,
            recorder: None,
            oracle: None,
            kernels: None,
            emit: Emit::Triangles,
        }
    }
}

impl ResilientOpts {
    /// Defaults with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        ResilientOpts {
            parallel: crate::parallel::ParallelOpts::with_threads(threads),
            ..Self::default()
        }
    }
}

/// Lists triangles under budgets and fault isolation. The entry point of
/// the resilience layer: chunk the visited range exactly as the plain
/// runtime would, then run every chunk through the retrying scheduler.
pub fn list_resilient(
    g: &DirectedGraph,
    method: Method,
    opts: &ResilientOpts,
) -> Result<RunOutcome, ParallelError> {
    list_resilient_src(GraphSource::Plain(g), method, opts)
}

/// [`list_resilient`] over either adjacency layout: the chunking, the
/// scheduler, the budgets, and the fault isolation are identical; a
/// compressed source only changes how workers read lists (per-worker
/// decode scratch) — every `CostReport` field stays byte-identical.
pub fn list_resilient_src(
    src: GraphSource<'_>,
    method: Method,
    opts: &ResilientOpts,
) -> Result<RunOutcome, ParallelError> {
    ensure_fundamental(method)?;
    let ranges = chunk_ranges_src(method, src, opts.parallel.target_chunk_ops)?;
    let jobs: Vec<(u32, Range<u32>)> = ranges
        .into_iter()
        .enumerate()
        .map(|(i, r)| (i as u32, r))
        .collect();
    run_jobs(src, method, &jobs, opts, Vec::new())
}

/// Approximate bytes held by [`HashOracle::build`]: one `u64` key per
/// directed edge plus hash-table overhead.
fn oracle_estimate_bytes(m: usize) -> u64 {
    m as u64 * 12
}

/// Per-worker state: the worker's clone of the run's kernel context
/// (shared structures, its own meter) plus the reusable list buffers a
/// compressed source decodes into. Never shared across workers.
struct WorkerState {
    kernels: Kernels,
    scratch: DecodeScratch,
}

/// Runs listing `jobs` (pre-chunked, globally indexed visited-node
/// ranges) through the retrying scheduler and merges with `prior`
/// completed pieces.
fn run_jobs(
    src: GraphSource<'_>,
    method: Method,
    jobs: &[(u32, Range<u32>)],
    opts: &ResilientOpts,
    prior: Vec<ChunkPiece>,
) -> Result<RunOutcome, ParallelError> {
    ensure_fundamental(method)?;
    let threads = opts.parallel.threads.max(1);
    let policy = opts.parallel.policy;
    let run = ChunkRun::start(
        ResumePoint::shape(WorkDomain::Listing(method), src.n(), 0),
        policy.name(),
        &opts.budget,
        opts.recorder.as_deref(),
        opts.fault_plan.as_ref(),
        opts.max_attempts,
    );
    let oracle_started = Instant::now();
    let oracle: Option<Arc<HashOracle>> = match method {
        Method::T1 | Method::T2 => match &opts.oracle {
            // a cache-provided oracle is already memory-accounted by its
            // holder and carries no per-run state (T-methods probe the
            // uncounted path), so reuse is free and byte-identical
            Some(shared) => Some(Arc::clone(shared)),
            None => {
                run.budget.add_memory(oracle_estimate_bytes(src.m()));
                let built = Some(Arc::new(HashOracle::build_src(src)));
                run.setup_span(0, oracle_started);
                built
            }
        },
        _ => None,
    };
    let kernels = run.kernels(policy, opts.kernels.as_deref(), src);
    let emit = opts.emit;
    let done = schedule(
        &run,
        jobs,
        threads,
        prior,
        &|meter| WorkerState {
            kernels: kernels.for_worker(meter),
            scratch: DecodeScratch::default(),
        },
        &|state, range, degraded| {
            let paper;
            let kernels = if degraded {
                paper = Kernels::paper();
                &paper
            } else {
                &state.kernels
            };
            let oracle = oracle.as_deref();
            with_reader!(src, |g| {
                run_chunk(g, method, oracle, kernels, &mut state.scratch, range, emit)
            })
        },
    );
    Ok(match done.stop {
        None => {
            let chunks = done.pieces.len();
            let mut cost = CostReport::default();
            let mut triangles = Vec::new();
            let mut piece_counts = Vec::with_capacity(chunks);
            for p in done.pieces {
                cost.accumulate(&p.cost);
                piece_counts.push(p.table_row());
                triangles.extend(p.triangles);
            }
            RunOutcome::Complete(ParallelRun {
                cost,
                triangles,
                threads: done.threads,
                chunks,
                faults: done.faults,
                piece_counts,
            })
        }
        Some((reason, resume)) => RunOutcome::Partial(PartialRun {
            reason,
            completed: done.pieces,
            resume,
            faults: done.faults,
            threads: done.threads,
        }),
    })
}

/// Executions a chunk is allowed by default (see
/// [`ResilientOpts::max_attempts`]).
pub(crate) const DEFAULT_MAX_ATTEMPTS: u32 = 3;

/// The caller side of the scheduler, shared by every [`WorkDomain`]: the
/// armed budget and span context of one run. A domain arms one, builds
/// its per-run state (charging `budget`, emitting
/// [`ChunkRun::setup_span`]s), then passes its jobs to [`schedule`] with a
/// worker `init` and a chunk `exec`.
pub(crate) struct ChunkRun<'a> {
    pub(crate) budget: ActiveBudget,
    recorder: &'a dyn Recorder,
    /// Name of the configured kernel policy (degraded attempts report
    /// `"paper"` regardless).
    policy: &'static str,
    /// The clock origin of span start offsets.
    origin: Instant,
    plan: Option<&'a FaultPlan>,
    max_attempts: u32,
    /// Domain and shape pins; an interrupted run's token is this plus its
    /// unvisited ranges.
    shape: ResumePoint,
}

/// A scheduled run merged in chunk order, before a domain wraps it in
/// its outcome type.
pub(crate) struct Concluded {
    /// Completed pieces (prior ones included), ascending by chunk index.
    pub(crate) pieces: Vec<ChunkPiece>,
    /// Why the run stopped and what remains; `None` when every job has a
    /// piece.
    pub(crate) stop: Option<(StopReason, ResumePoint)>,
    pub(crate) threads: Vec<ThreadStats>,
    pub(crate) faults: Vec<ChunkFault>,
}

impl<'a> ChunkRun<'a> {
    /// Arms `budget` and the span context for a run of `shape`'s domain
    /// whose kernels follow `policy`.
    pub(crate) fn start(
        shape: ResumePoint,
        policy: &'static str,
        budget: &RunBudget,
        recorder: Option<&'a dyn Recorder>,
        plan: Option<&'a FaultPlan>,
        max_attempts: u32,
    ) -> Self {
        let recorder = recorder.unwrap_or(&NOOP);
        ChunkRun {
            budget: budget.start(),
            recorder,
            policy,
            origin: Instant::now(),
            plan,
            max_attempts: max_attempts.max(1),
            shape,
        }
    }

    fn ns_since_origin(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// The run's kernel context for `policy`, borrowed from `base` where
    /// [`Kernels::borrow_within_src`] allows: one build on this thread of
    /// what is not borrowed, sized to whatever memory remains, charged
    /// once and covered by one setup span. The workers share it.
    pub(crate) fn kernels(
        &self,
        policy: KernelPolicy,
        base: Option<&Kernels>,
        src: GraphSource<'_>,
    ) -> Kernels {
        let started = Instant::now();
        let (kernels, built) =
            Kernels::borrow_within_src(policy, base, src, self.budget.remaining_memory());
        self.budget.add_memory(built);
        self.setup_span(0, started);
        kernels
    }

    /// Emits a [`ChunkSpan::SETUP`] span covering `started..now` on
    /// `worker`: per-run builds (oracle, kernel context, rank set) and
    /// per-worker setup, so the span total accounts for run time spent
    /// outside chunk executions.
    pub(crate) fn setup_span(&self, worker: usize, started: Instant) {
        if self.recorder.enabled() {
            self.recorder.span(ChunkSpan {
                domain: self.shape.domain,
                policy: "setup",
                chunk: ChunkSpan::SETUP,
                attempt: 0,
                worker,
                range: 0..0,
                start_ns: self.ns_since_origin(started),
                dur_ns: started.elapsed().as_nanos() as u64,
                ops: 0,
                ok: true,
            });
        }
    }
}

/// Worker-local state builder (kernel context clone, scratch — never
/// shared). It receives the worker's own kernel meter, present only when a
/// real recorder listens, so the unrecorded hot path never sees a metered
/// context at all.
type InitFn<'a, S> = &'a (dyn Fn(Option<Arc<KernelMeter>>) -> S + Sync);

/// What one worker hands back when its loop ends: its telemetry, its
/// completed pieces, and its kernel meter for the post-join flush.
type WorkerDone = (ThreadStats, Vec<ChunkPiece>, Option<Arc<KernelMeter>>);

/// What a worker computes for one range of its domain; the `bool` asks
/// for the degraded (paper-faithful) path on a final retry.
type ExecFn<'a, S> = &'a (dyn Fn(&mut S, Range<u32>, bool) -> (CostReport, TriangleBuffer) + Sync);

/// The work-stealing scheduler with budget checks, panic quarantine, and
/// retry. Independent of what a chunk computes. It runs
/// `min(threads, jobs.len())` workers (at least one), so no worker starts
/// without a job to take and a one-job run executes inline.
///
/// Every worker: check `stop`, check the budget, pop a task (own deque →
/// injector batch → steal sweep), execute it inside `catch_unwind`. A
/// panicking task goes back to the *injector* with its attempt count
/// bumped — the panicking worker stays in its loop, so a requeued task can
/// never be orphaned even if every other worker has already drained out —
/// and on the final allowed attempt `exec` is asked to run degraded. A
/// triggered budget records the first [`StopReason`] and stops all workers
/// at their next boundary; in-flight chunks finish, so completed output is
/// never torn.
///
/// Each worker's kernel meter has that worker as its only writer.
/// Afterwards every meter is flushed, the run's memory returns to the
/// shared gauge, and the pieces merge with `prior` in chunk order.
pub(crate) fn schedule<S>(
    run: &ChunkRun<'_>,
    jobs: &[(u32, Range<u32>)],
    threads: usize,
    prior: Vec<ChunkPiece>,
    init: InitFn<'_, S>,
    exec: ExecFn<'_, S>,
) -> Concluded {
    let (budget, plan, max_attempts) = (&run.budget, run.plan, run.max_attempts);
    let threads = threads.min(jobs.len()).max(1);
    // tasks are (job slot, attempt) pairs; all start at attempt 0
    let injector: Injector<(u32, u32)> = Injector::new();
    for slot in 0..jobs.len() as u32 {
        injector.push((slot, 0));
    }
    let workers: Vec<Worker<(u32, u32)>> = (0..threads).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<(u32, u32)>> = workers.iter().map(|w| w.stealer()).collect();
    let stop = AtomicBool::new(false);
    let verdict: Mutex<Option<StopReason>> = Mutex::new(None);
    let faults: Mutex<Vec<ChunkFault>> = Mutex::new(Vec::new());

    // The whole worker loop, callable inline (threads == 1) or on a
    // scoped thread — identical code path either way, so telemetry,
    // spans, and retry semantics cannot diverge between the two.
    let worker_loop = {
        let (injector, stealers, stop, verdict, faults) =
            (&injector, &stealers, &stop, &verdict, &faults);
        move |id: usize, local: Worker<(u32, u32)>| -> WorkerDone {
            let recording = run.recorder.enabled();
            let worker_started = Instant::now();
            let mut stats = ThreadStats::default();
            let mut results: Vec<ChunkPiece> = Vec::new();
            let meter = recording.then(|| Arc::new(KernelMeter::new()));
            let mut state = init(meter.clone());
            run.setup_span(id, worker_started);
            loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if recording {
                    run.recorder.add(Counter::BudgetChecks, 1);
                }
                if let Some(reason) = budget.check() {
                    lock_tolerant(verdict).get_or_insert(reason);
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
                let ((slot, attempt), stolen) = match next_task(id, &local, injector, stealers) {
                    Some(task) => task,
                    None => break,
                };
                let (chunk, range) = &jobs[slot as usize];
                let degraded = attempt > 0 && attempt + 1 >= max_attempts;
                if recording {
                    if attempt > 0 {
                        run.recorder.add(Counter::ChunkRetries, 1);
                    }
                    if degraded {
                        run.recorder.add(Counter::Degradations, 1);
                    }
                }
                let started = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    if let Some(plan) = plan {
                        plan.inject(*chunk, attempt, budget);
                    }
                    exec(&mut state, range.clone(), degraded)
                }));
                // one duration for both the thread telemetry and
                // the span, so span-derived load balance matches
                // ThreadStats-derived exactly
                let dur = started.elapsed();
                stats.busy += dur;
                let mut span = recording.then(|| ChunkSpan {
                    domain: run.shape.domain,
                    policy: if degraded { "paper" } else { run.policy },
                    chunk: *chunk,
                    attempt,
                    worker: id,
                    range: range.clone(),
                    start_ns: run.ns_since_origin(started),
                    dur_ns: dur.as_nanos() as u64,
                    ops: 0,
                    ok: false,
                });
                match outcome {
                    Ok((cost, tris)) => {
                        budget.add_memory(tris.bytes());
                        stats.chunks += 1;
                        stats.steals += stolen as u64;
                        stats.operations = stats.operations.saturating_add(cost.operations());
                        if let Some(span) = &mut span {
                            span.ops = cost.operations();
                            span.ok = true;
                            run.recorder.observe(HistKind::ChunkWallNs, span.dur_ns);
                            run.recorder.observe(HistKind::ChunkOps, span.ops);
                            if matches!(
                                run.shape.domain,
                                WorkDomain::Listing(Method::T1 | Method::T2)
                            ) {
                                // T-method lookups are oracle
                                // candidate checks; hits are
                                // exactly the listed triangles
                                run.recorder.add(Counter::OracleHits, cost.triangles);
                                run.recorder.add(
                                    Counter::OracleMisses,
                                    cost.lookups.saturating_sub(cost.triangles),
                                );
                            }
                        }
                        results.push(ChunkPiece {
                            chunk: *chunk,
                            range: range.clone(),
                            cost,
                            triangles: tris.into_vec(),
                        });
                    }
                    Err(payload) => {
                        let fatal = attempt + 1 >= max_attempts;
                        lock_tolerant(faults).push(ChunkFault {
                            chunk: *chunk,
                            range: range.clone(),
                            worker: id,
                            attempt,
                            message: panic_message(payload.as_ref()),
                            fatal,
                        });
                        if !fatal {
                            injector.push((slot, attempt + 1));
                        }
                    }
                }
                if let Some(span) = span {
                    run.recorder.span(span);
                }
            }
            if recording {
                run.recorder.add(Counter::Steals, stats.steals);
                let idle = worker_started
                    .elapsed()
                    .saturating_sub(stats.busy)
                    .as_nanos() as u64;
                run.recorder.observe(HistKind::WorkerIdleNs, idle);
            }
            (stats, results, meter)
        }
    };

    // One thread means no parallelism to buy: run the loop right here and
    // skip the spawn/join round trip (it costs more than a small request).
    let mut per_worker: Vec<WorkerDone> = if threads == 1 {
        let local = workers.into_iter().next().expect("one worker deque");
        vec![worker_loop(0, local)]
    } else {
        std::thread::scope(|scope| {
            let worker_loop = &worker_loop;
            let handles: Vec<_> = workers
                .into_iter()
                .enumerate()
                .map(|(id, local)| scope.spawn(move || worker_loop(id, local)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread infrastructure panicked"))
                .collect()
        })
    };

    for (_, _, meter) in &per_worker {
        if let Some(m) = meter {
            m.flush_into(run.recorder);
        }
    }
    // transient run memory (oracle, bitmaps, staged triangles) returns to
    // the shared gauge; cache charges made directly on it persist
    budget.settle();
    let mut pieces = prior;
    for (_, results, _) in &mut per_worker {
        pieces.append(results);
    }
    pieces.sort_unstable_by_key(|p| p.chunk);
    let done: HashSet<u32> = pieces.iter().map(|p| p.chunk).collect();
    let missing: Vec<(u32, Range<u32>)> = jobs
        .iter()
        .filter(|(c, _)| !done.contains(c))
        .cloned()
        .collect();
    let stop = (!missing.is_empty()).then(|| {
        let reason = verdict.into_inner().unwrap_or_else(PoisonError::into_inner);
        let ResumePoint {
            domain, n, edges, ..
        } = run.shape;
        // a non-empty, ascending subset of the run's jobs: always valid
        let resume = ResumePoint::new(domain, n, edges, missing).expect("unvisited jobs fit");
        (reason.unwrap_or(StopReason::ChunkFailed), resume)
    });
    Concluded {
        pieces,
        stop,
        threads: per_worker.into_iter().map(|(s, _, _)| s).collect(),
        faults: faults.into_inner().unwrap_or_else(PoisonError::into_inner),
    }
}

/// Next task for worker `id`: own deque, then an injector batch, then a
/// steal sweep over siblings. Returns `(task, was_stolen)`.
fn next_task(
    id: usize,
    local: &Worker<(u32, u32)>,
    injector: &Injector<(u32, u32)>,
    stealers: &[Stealer<(u32, u32)>],
) -> Option<((u32, u32), bool)> {
    if let Some(task) = local.pop() {
        return Some((task, false));
    }
    loop {
        match injector.steal_batch_and_pop(local) {
            Steal::Success(task) => return Some((task, false)),
            Steal::Empty => break,
            Steal::Retry => continue,
        }
    }
    let n = stealers.len();
    let mut retry = true;
    while std::mem::take(&mut retry) {
        for shift in 1..n {
            match stealers[(id + shift) % n].steal() {
                Steal::Success(task) => return Some((task, true)),
                Steal::Empty => {}
                Steal::Retry => retry = true,
            }
        }
    }
    None
}

/// Stringifies a panic payload for fault records.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::ParallelOpts;
    use rand::SeedableRng;
    use trilist_graph::dist::{sample_degree_sequence, DiscretePareto, Truncated};
    use trilist_graph::gen::{GraphGenerator, ResidualSampler};
    use trilist_order::OrderFamily;

    fn fixture(n: usize, seed: u64) -> DirectedGraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dist = Truncated::new(DiscretePareto::paper_beta(1.7), 50);
        let (seq, _) = sample_degree_sequence(&dist, n, &mut rng);
        let g = ResidualSampler.generate(&seq, &mut rng).graph;
        let relabeling = OrderFamily::Descending.relabeling(&g, &mut rng);
        DirectedGraph::orient(&g, &relabeling)
    }

    fn opts(threads: usize) -> ResilientOpts {
        ResilientOpts {
            parallel: ParallelOpts {
                threads,
                target_chunk_ops: 512,
                ..ParallelOpts::default()
            },
            ..ResilientOpts::default()
        }
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let budget = RunBudget::unlimited();
        assert!(budget.is_unlimited());
        let active = budget.start();
        active.add_memory(u64::MAX / 2);
        assert_eq!(active.check(), None);
        assert_eq!(active.remaining_memory(), None);
    }

    #[test]
    fn budget_checks_report_first_cause() {
        let token = CancelToken::new();
        let active = RunBudget::unlimited()
            .with_deadline(Duration::from_secs(3600))
            .with_memory_bytes(100)
            .with_cancel(token.clone())
            .start();
        assert_eq!(active.check(), None);
        active.add_memory(101);
        assert_eq!(active.check(), Some(StopReason::MemoryExhausted));
        active.release_memory(50);
        assert_eq!(active.memory_used(), 51);
        assert_eq!(active.remaining_memory(), Some(49));
        assert_eq!(active.check(), None);
        token.cancel();
        assert_eq!(active.check(), Some(StopReason::Cancelled));
        // release below zero saturates instead of wrapping
        active.release_memory(u64::MAX);
        assert_eq!(active.memory_used(), 0);
    }

    #[test]
    fn expired_deadline_trips_immediately() {
        let active = RunBudget::unlimited().with_deadline(Duration::ZERO).start();
        assert_eq!(active.check(), Some(StopReason::DeadlineExceeded));
        assert!(active.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn fault_plan_is_deterministic_and_schedule_independent() {
        let plan = FaultPlan::seeded(42);
        for chunk in 0..2_000u32 {
            for attempt in 0..3 {
                assert_eq!(
                    plan.fault_for(chunk, attempt),
                    plan.fault_for(chunk, attempt),
                    "chunk {chunk} attempt {attempt}"
                );
            }
        }
        // rates land in the right ballpark over many chunks
        let panics = (0..10_000u32)
            .filter(|&c| plan.fault_for(c, 0) == Some(Fault::Panic))
            .count();
        assert!(
            (1_000..2_000).contains(&panics),
            "~15% expected, got {panics}/10000"
        );
        // a panicking chunk recovers once its attempts are spent
        let victim = (0..10_000u32)
            .find(|&c| plan.fault_for(c, 0) == Some(Fault::Panic))
            .unwrap();
        assert_ne!(plan.fault_for(victim, 1), Some(Fault::Panic));
        // different seeds give different schedules
        let other = FaultPlan::seeded(43);
        assert!((0..10_000u32).any(|c| plan.fault_for(c, 0) != other.fault_for(c, 0)));
    }

    #[test]
    fn resume_point_round_trips_through_text() {
        let rp = ResumePoint {
            domain: WorkDomain::Listing(Method::E4),
            n: 2_000,
            edges: 0,
            ranges: vec![(3, 30..40), (7, 70..80), (9, 95..2_000)],
        };
        let text = rp.to_string();
        assert_eq!(
            text,
            "trilist-resume v1 E4 n=2000 3:30-40 7:70-80 9:95-2000"
        );
        assert_eq!(text.parse::<ResumePoint>().unwrap(), rp);
        // an empty remainder is never emitted, so it is rejected as input
        let done = ResumePoint {
            domain: WorkDomain::Listing(Method::T1),
            n: 5,
            edges: 0,
            ranges: vec![],
        };
        assert!(done.to_string().parse::<ResumePoint>().is_err());
        // malformed inputs are rejected, never panic
        for bad in [
            "",
            "trilist-resume",
            "trilist-resume v2 E4 n=10",
            "trilist-resume v1 Z9 n=10",
            "trilist-resume v1 E4 n=x",
            "trilist-resume v1 E4 n=10 3:9",
            "trilist-resume v1 E4 n=10 3:9-5",
            "trilist-resume v1 E4 n=10 3:5-11",
            // repeated, descending or overlapping chunks would list a
            // range twice on replay
            "trilist-resume v1 E4 n=10 0:0-10 0:0-10",
            "trilist-resume v1 E4 n=10 2:5-10 1:0-5",
            "trilist-resume v1 E4 n=10 0:0-6 1:5-10",
            "trilist-resume v1 E4 n=10 1:5-10 2:0-5",
        ] {
            assert!(bad.parse::<ResumePoint>().is_err(), "accepted {bad:?}");
        }
        // the token cannot spell an edge count for a listing run
        let listing = WorkDomain::Listing(Method::T1);
        assert!(ResumePoint::new(listing, 5, 3, vec![(0, 0..5)]).is_err());
        assert!(ResumePoint::new(listing, 5, 0, vec![(0, 0..5)]).is_ok());
    }

    #[test]
    fn clean_run_matches_sequential_exactly() {
        let dg = fixture(1_500, 3);
        for method in Method::FUNDAMENTAL {
            let mut seq = Vec::new();
            let seq_cost = method.run(&dg, |x, y, z| seq.push((x, y, z)));
            let run = list_resilient(&dg, method, &opts(4))
                .unwrap()
                .complete()
                .expect("unlimited budget, no faults");
            assert_eq!(run.triangles, seq, "{method}");
            assert_eq!(run.cost, seq_cost, "{method}");
            assert!(run.faults.is_empty());
        }
    }

    #[test]
    fn recoverable_panics_retry_to_identical_result() {
        silence_injected_panics();
        let dg = fixture(1_500, 3);
        let mut seq = Vec::new();
        let seq_cost = Method::E1.run(&dg, |x, y, z| seq.push((x, y, z)));
        for threads in [1, 2, 4] {
            let mut o = opts(threads);
            o.fault_plan = Some(FaultPlan::panic_at(7, 300, 2));
            o.max_attempts = 3;
            let run = list_resilient(&dg, Method::E1, &o)
                .unwrap()
                .complete()
                .expect("2 panic attempts < 3 max_attempts must recover");
            assert_eq!(run.triangles, seq, "threads={threads}");
            assert_eq!(run.cost, seq_cost, "threads={threads}");
            assert!(!run.faults.is_empty(), "plan must actually fire");
            assert!(run.faults.iter().all(|f| !f.fatal));
        }
    }

    #[test]
    fn exhausted_retries_quarantine_the_chunk_and_finish_the_rest() {
        silence_injected_panics();
        let dg = fixture(1_500, 3);
        let mut o = opts(2);
        // always-panic on a slice of chunks: unrecoverable
        o.fault_plan = Some(FaultPlan::panic_at(11, 200, u32::MAX));
        o.max_attempts = 2;
        let partial = list_resilient(&dg, Method::E4, &o)
            .unwrap()
            .partial()
            .expect("permanent faults must yield a partial run");
        assert_eq!(partial.reason, StopReason::ChunkFailed);
        assert!(partial.completed_chunks() > 0, "healthy chunks completed");
        assert!(!partial.resume.is_empty());
        let fatal: Vec<_> = partial.faults.iter().filter(|f| f.fatal).collect();
        assert!(!fatal.is_empty());
        // every fatal fault's chunk is in the resume point, exactly once
        let missing: Vec<u32> = partial.resume.ranges.iter().map(|(c, _)| *c).collect();
        for f in &fatal {
            assert!(missing.contains(&f.chunk), "chunk {} lost", f.chunk);
        }
        // each fatal chunk burned exactly max_attempts executions
        for &chunk in &missing {
            let attempts = partial.faults.iter().filter(|f| f.chunk == chunk).count();
            assert_eq!(attempts, 2, "chunk {chunk}");
        }
        // resuming without the fault plan completes to the sequential result
        let resumed = partial
            .resume_with(&dg, &opts(2))
            .unwrap()
            .complete()
            .expect("no faults on resume");
        let mut seq = Vec::new();
        let seq_cost = Method::E4.run(&dg, |x, y, z| seq.push((x, y, z)));
        assert_eq!(resumed.triangles, seq);
        assert_eq!(resumed.cost, seq_cost);
    }

    #[test]
    fn cancellation_stops_cleanly_and_resume_completes() {
        let dg = fixture(1_500, 5);
        let token = CancelToken::new();
        token.cancel(); // pre-cancelled: stops at the first boundary
        let mut o = opts(3);
        o.budget = RunBudget::unlimited().with_cancel(token);
        let partial = list_resilient(&dg, Method::T1, &o)
            .unwrap()
            .partial()
            .expect("pre-cancelled run cannot complete");
        assert_eq!(partial.reason, StopReason::Cancelled);
        assert_eq!(partial.completed_chunks(), 0);
        // the resume point text round-trips and completes the run
        let text = partial.resume.to_string();
        let rp: ResumePoint = text.parse().unwrap();
        let resumed = rp
            .run(&dg, &opts(3))
            .unwrap()
            .complete()
            .expect("no limits on resume");
        let mut seq = Vec::new();
        let seq_cost = Method::T1.run(&dg, |x, y, z| seq.push((x, y, z)));
        assert_eq!(resumed.triangles, seq);
        assert_eq!(resumed.cost, seq_cost);
    }

    #[test]
    fn memory_ceiling_stops_t_methods_on_oracle_charge() {
        let dg = fixture(1_500, 5);
        let mut o = opts(2);
        o.budget = RunBudget::unlimited().with_memory_bytes(16);
        let partial = list_resilient(&dg, Method::T2, &o)
            .unwrap()
            .partial()
            .expect("16-byte ceiling cannot fit the oracle");
        assert_eq!(partial.reason, StopReason::MemoryExhausted);
    }

    #[test]
    fn a_run_builds_and_charges_its_kernel_context_once() {
        use crate::kernel::KernelPolicy;
        let dg = fixture(3_000, 29);
        let policy = KernelPolicy::bitset();
        let full = Kernels::build(policy, &dg).bytes();
        let run = |threads: usize, ceiling: Option<u64>| {
            let mut o = opts(threads);
            o.parallel.policy = policy;
            if let Some(c) = ceiling {
                o.budget = RunBudget::unlimited().with_memory_bytes(c);
            }
            list_resilient(&dg, Method::E1, &o)
                .unwrap()
                .complete()
                .expect("the ceiling leaves room for every staged triangle")
        };
        let free = run(1, None);
        // room for every chunk's staged triangles (capacity, not length)
        let staged = 2 * 12 * free.triangles.len() as u64 + 64 * free.chunks as u64;
        assert!(
            staged < full,
            "the fixture's context must dwarf its triangles"
        );

        // one full build fits under the ceiling, two would not: a 2-thread
        // run that completes with the full context's advances charged it once
        let once = run(2, Some(full + staged));
        assert_eq!(once.cost, free.cost, "full context, charged once");

        // a ceiling that degrades the context degrades it the same way at
        // every thread count: the one build gets the whole allowance
        let ceiling = full / 2 + staged;
        let degraded = Kernels::build_within(policy, &dg, Some(ceiling)).bytes();
        assert!(degraded < full && degraded + staged <= ceiling);
        let one = run(1, Some(ceiling));
        let two = run(2, Some(ceiling));
        assert_eq!(two.cost, one.cost, "pointer_advances included");
        assert_ne!(
            one.cost.pointer_advances, free.cost.pointer_advances,
            "the ceiling really degraded the context"
        );
    }

    #[test]
    fn resume_rejects_wrong_graph() {
        let dg = fixture(1_500, 5);
        let rp = ResumePoint {
            domain: WorkDomain::Listing(Method::E1),
            n: 3,
            edges: 0,
            ranges: vec![(0, 0..3)],
        };
        assert!(matches!(
            rp.run(&dg, &opts(1)),
            Err(ParallelError::InvalidResume(_))
        ));
        // a range past the graph cannot even be built
        let n = dg.n() as u32;
        assert!(
            ResumePoint::new(WorkDomain::Listing(Method::E1), n, 0, vec![(0, 5..n + 7)]).is_err()
        );
    }
}
