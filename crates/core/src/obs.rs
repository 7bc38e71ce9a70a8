//! Observability for the listing runtime: counters, histograms, spans,
//! and the measured-vs-model report.
//!
//! The paper's contribution is an *analytical* cost model, and the rest of
//! this crate accounts elementary operations exactly — but operation
//! counts alone cannot say where measured wall-clock goes, which is what
//! separates an asymptotic story from real machine behavior (Berry et al.,
//! "Why do simple algorithms for triangle enumeration work in the real
//! world?"). This module supplies the measurement side:
//!
//! * a [`Recorder`] trait whose default methods are all no-ops, so a
//!   runtime path instrumented against `&dyn Recorder` costs one
//!   predictable branch per *chunk boundary* when observability is off
//!   ([`NoopRecorder`] is the default sink);
//! * an [`InMemoryRecorder`] holding relaxed atomic [`Counter`]s,
//!   [`log2_bucket`] histograms, and per-chunk [`ChunkSpan`]s from which a
//!   run can be reconstructed as a timeline;
//! * a [`MeasuredVsModel`] report joining span totals against the
//!   paper-side cost model (measured nanoseconds per modeled operation,
//!   per method × kernel policy), with a self-contained JSON round-trip —
//!   the workspace deliberately has no serialization dependency, so the
//!   writer/parser pair lives here and is property-tested for losslessness.
//!
//! **Invariance contract**: recording never feeds back into the run. Every
//! paper-cost field of [`CostReport`](crate::CostReport), the triangle
//! order, and the schedule semantics are byte-identical whether a run
//! carries an [`InMemoryRecorder`], a [`NoopRecorder`], or no recorder at
//! all (`tests/obs_differential.rs` proves this across methods × policies ×
//! thread counts). Kernel-level tallies go through worker-local
//! [`KernelMeter`](crate::kernel::KernelMeter)s precisely so the hot
//! intersection loops never touch a contended cache line.

use crate::resilient::WorkDomain;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of [`log2_bucket`] histogram buckets: bucket `b` holds values
/// with bit-length `b`, so `0` is its own bucket and `u64::MAX` lands in
/// bucket 64.
pub const HIST_BUCKETS: usize = 65;

/// The log2 histogram bucket of `v`: 0 for 0, otherwise the bit length of
/// `v` (`⌊log2 v⌋ + 1`). Total on all of `u64` and monotone in `v`
/// (property-tested in `tests/obs_props.rs`).
#[inline]
pub fn log2_bucket(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Declares [`Counter`]: each variant once, next to its stable name.
macro_rules! counters {
    ($($(#[$doc:meta])* $counter:ident => $name:literal,)*) => {
        /// Monotonic event counters kept by a [`Recorder`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum Counter {
            $($(#[$doc])* $counter,)*
        }

        impl Counter {
            /// How many counters exist.
            pub const COUNT: usize = [$($name),*].len();

            /// Every counter, in index order.
            pub const ALL: [Counter; Counter::COUNT] = [$(Counter::$counter),*];

            /// Stable snake_case name for tables and JSON.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$counter => $name,)*
                }
            }
        }
    };
}

counters! {
    /// Intersections routed through the paper's branchy two-pointer scan.
    IntersectPaper => "intersect_paper",
    /// Intersections routed through the branchless merge kernel.
    IntersectBranchless => "intersect_branchless",
    /// Intersections routed through the galloping kernel.
    IntersectGallop => "intersect_gallop",
    /// Intersections answered by hub-bitmap word probes.
    IntersectBitmap => "intersect_bitmap",
    /// Probed positions inside galloping intersections (doubling plus
    /// binary-search probes).
    GallopSteps => "gallop_steps",
    /// Hub-bitmap word probes across bitmap-routed intersections.
    BitmapProbes => "bitmap_probes",
    /// Oracle candidate checks that found an edge (vertex iterators:
    /// exactly the triangles).
    OracleHits => "oracle_hits",
    /// Oracle candidate checks that found no edge.
    OracleMisses => "oracle_misses",
    /// Chunks obtained by stealing from a sibling worker's deque.
    Steals => "steals",
    /// Chunk executions that were retries (attempt > 0) after a quarantined
    /// panic.
    ChunkRetries => "chunk_retries",
    /// Budget checks performed at chunk/pass boundaries.
    BudgetChecks => "budget_checks",
    /// Chunk executions that ran degraded (paper-faithful kernels on a
    /// final retry).
    Degradations => "degradations",
    /// Intersections answered by the blocked bitset word kernel (including
    /// provably-empty range rejections).
    IntersectBitset => "intersect_bitset",
    /// Block-pointer steps inside bitset-routed intersections (each
    /// aligned pair costs 2, each skipped block 1).
    BitsetBlockSteps => "bitset_block_steps",
    /// Always 0: the stamp kernel it counted was removed. Kept because
    /// the benchmark (`perfbench`) names this variant and reads its
    /// `recorder_intersect_stamp` key from the server's `Stats`.
    IntersectStamp => "intersect_stamp",
    /// Autotuner plan candidates evaluated (one per `(method, ordering,
    /// policy)` triple scored during `GraphStore::prepare`).
    PlanEvaluations => "plan_evaluations",
    /// Autotuner plans picked and stored (one per planned graph).
    PlanPick => "plan_pick",
}

impl Counter {
    /// Dense index of this counter (its position in [`Counter::ALL`]).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The histograms a [`Recorder`] keeps, all log2-bucketed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HistKind {
    /// Wall time of one completed chunk execution, in nanoseconds.
    ChunkWallNs,
    /// Elementary operations of one completed chunk.
    ChunkOps,
    /// Per-worker idle time over a whole run (loop time minus busy time),
    /// in nanoseconds.
    WorkerIdleNs,
}

impl HistKind {
    /// How many histogram kinds exist.
    pub const COUNT: usize = 3;

    /// Every kind, in index order.
    pub const ALL: [HistKind; HistKind::COUNT] = [
        HistKind::ChunkWallNs,
        HistKind::ChunkOps,
        HistKind::WorkerIdleNs,
    ];

    /// Dense index of this kind.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name for tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            HistKind::ChunkWallNs => "chunk_wall_ns",
            HistKind::ChunkOps => "chunk_ops",
            HistKind::WorkerIdleNs => "worker_idle_ns",
        }
    }
}

/// One chunk (or external-memory pass) execution, as seen by the
/// scheduler: enough to reconstruct the run as a timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkSpan {
    /// What the chunk's range indexes: a listing method's visited nodes,
    /// or a delta run's new edges.
    pub domain: WorkDomain,
    /// Kernel policy the attempt actually executed (`"paper"` on a
    /// degraded final retry even when the run was configured adaptive).
    pub policy: &'static str,
    /// Global chunk index (pass index for the external-memory engine).
    pub chunk: u32,
    /// Zero-based attempt number of this execution.
    pub attempt: u32,
    /// Worker that executed it.
    pub worker: usize,
    /// Range the chunk covers in its domain (or the column interval of an
    /// external-memory pass).
    pub range: Range<u32>,
    /// Start offset from the run's origin, in nanoseconds.
    pub start_ns: u64,
    /// Execution duration, in nanoseconds.
    pub dur_ns: u64,
    /// Elementary operations the execution performed (0 for a faulted
    /// attempt, whose work is discarded).
    pub ops: u64,
    /// False when the execution panicked and was quarantined.
    pub ok: bool,
}

impl ChunkSpan {
    /// Sentinel chunk index marking a *setup* span: time spent building
    /// per-run shared state (the T-method hash oracle, the run's kernel
    /// context with its adjacency bitmaps) or per-worker state (scratch)
    /// rather than executing a chunk. Setup spans have an empty range and zero ops; they count
    /// toward [`InMemoryRecorder::span_total_ns`] (the time is real and
    /// covered) but are excluded from per-worker busy time, load-balance
    /// efficiency, and [`InMemoryRecorder::hottest`].
    pub const SETUP: u32 = u32::MAX;

    /// True for setup spans (see [`ChunkSpan::SETUP`]).
    pub fn is_setup(&self) -> bool {
        self.chunk == Self::SETUP
    }
}

/// The observability sink threaded through the scheduler, kernels,
/// resilience layer, and xm engine.
///
/// Every method defaults to a no-op, so an uninstrumented sink costs
/// nothing beyond the (chunk-granular) virtual call. Implementations must
/// be thread-safe: all workers share one recorder.
pub trait Recorder: Send + Sync {
    /// True when the runtime should spend effort assembling events. The
    /// hot paths gate span construction and per-event bookkeeping on this,
    /// so a disabled recorder costs one branch per chunk boundary.
    fn enabled(&self) -> bool {
        false
    }

    /// Add `n` to a counter.
    fn add(&self, _counter: Counter, _n: u64) {}

    /// Record `value` into a histogram.
    fn observe(&self, _hist: HistKind, _value: u64) {}

    /// Record one chunk execution.
    fn span(&self, _span: ChunkSpan) {}
}

/// The default sink: records nothing, reports disabled.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// The shared no-op instance the runtime falls back to when no recorder is
/// configured.
pub static NOOP: NoopRecorder = NoopRecorder;

/// A point-in-time copy of every [`Counter`], mergeable across worker
/// shards. Merging is associative and commutative (property-tested), so
/// per-worker shards can be combined in any grouping or order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Counts indexed by [`Counter::index`].
    pub counts: [u64; Counter::COUNT],
}

impl Default for CounterSnapshot {
    fn default() -> Self {
        CounterSnapshot {
            counts: [0; Counter::COUNT],
        }
    }
}

impl CounterSnapshot {
    /// The value of one counter.
    #[inline]
    pub fn get(&self, counter: Counter) -> u64 {
        self.counts[counter.index()]
    }

    /// Element-wise saturating sum of two shards.
    pub fn merge(&self, other: &CounterSnapshot) -> CounterSnapshot {
        let mut out = *self;
        for (o, v) in out.counts.iter_mut().zip(other.counts.iter()) {
            *o = o.saturating_add(*v);
        }
        out
    }
}

/// A thread-safe recorder that keeps everything in memory: relaxed atomic
/// counters, log2 histograms, and the full span list (unless built
/// [`InMemoryRecorder::without_span_list`]).
#[derive(Debug)]
pub struct InMemoryRecorder {
    counters: [AtomicU64; Counter::COUNT],
    hists: [[AtomicU64; HIST_BUCKETS]; HistKind::COUNT],
    spans: Mutex<Vec<ChunkSpan>>,
    keep_spans: bool,
    // Running aggregates so hot paths (a server answering `Stats` per
    // request) never clone the span list under the lock.
    span_count: AtomicU64,
    span_ns: AtomicU64,
}

impl Default for InMemoryRecorder {
    fn default() -> Self {
        InMemoryRecorder::new()
    }
}

impl InMemoryRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        InMemoryRecorder {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            spans: Mutex::new(Vec::new()),
            keep_spans: true,
            span_count: AtomicU64::new(0),
            span_ns: AtomicU64::new(0),
        }
    }

    /// A recorder that keeps counters, histograms and the span aggregates
    /// but drops every span after counting it ([`spans`](Self::spans)
    /// stays empty), so a long-lived server does not grow per run.
    pub fn without_span_list() -> Self {
        InMemoryRecorder {
            keep_spans: false,
            ..InMemoryRecorder::new()
        }
    }

    /// Current value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// A snapshot of every counter.
    pub fn snapshot(&self) -> CounterSnapshot {
        let mut s = CounterSnapshot::default();
        for c in Counter::ALL {
            s.counts[c.index()] = self.counter(c);
        }
        s
    }

    /// Bucket counts of one histogram ([`HIST_BUCKETS`] entries).
    pub fn histogram(&self, kind: HistKind) -> Vec<u64> {
        self.hists[kind.index()]
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// A copy of every recorded span, in recording order.
    pub fn spans(&self) -> Vec<ChunkSpan> {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Number of spans recorded so far, without touching the span list
    /// (constant time, safe to call from a request hot path).
    pub fn span_count(&self) -> u64 {
        self.span_count.load(Ordering::Relaxed)
    }

    /// Total duration across all spans — successful, faulted, and setup
    /// alike. This is the run's aggregate covered time, the quantity the
    /// `profile` binary checks against end-to-end wall clock. Maintained
    /// as a running sum, so it is constant time too.
    pub fn span_total_ns(&self) -> u64 {
        self.span_ns.load(Ordering::Relaxed)
    }

    /// Busy nanoseconds per worker, derived purely from *chunk* spans
    /// (setup spans are excluded, matching
    /// [`ThreadStats::busy`](crate::ThreadStats), which only accumulates
    /// chunk executions). The vector covers `0..threads` even for workers
    /// that recorded nothing (and grows past `threads` if a span names a
    /// higher worker id).
    pub fn per_worker_busy_ns(&self, threads: usize) -> Vec<u64> {
        let mut busy = vec![0u64; threads.max(1)];
        for s in self.spans() {
            if s.is_setup() {
                continue;
            }
            if s.worker >= busy.len() {
                busy.resize(s.worker + 1, 0);
            }
            busy[s.worker] = busy[s.worker].saturating_add(s.dur_ns);
        }
        busy
    }

    /// Load-balance efficiency recomputed from spans: mean worker busy
    /// time over max worker busy time across `threads` workers, 1.0 when
    /// no work was recorded. Matches
    /// [`ParallelRun::load_balance_efficiency`](crate::ParallelRun::load_balance_efficiency)
    /// because both aggregate the same per-execution durations.
    pub fn load_balance_efficiency(&self, threads: usize) -> f64 {
        let busy = self.per_worker_busy_ns(threads);
        let max = busy.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        let mean = busy.iter().map(|&b| b as f64).sum::<f64>() / busy.len() as f64;
        mean / max as f64
    }

    /// The `k` longest chunk spans (setup spans excluded), descending by
    /// duration (ties broken by chunk index for determinism).
    pub fn hottest(&self, k: usize) -> Vec<ChunkSpan> {
        let mut spans = self.spans();
        spans.retain(|s| !s.is_setup());
        spans.sort_by(|a, b| {
            b.dur_ns
                .cmp(&a.dur_ns)
                .then(a.chunk.cmp(&b.chunk))
                .then(a.attempt.cmp(&b.attempt))
        });
        spans.truncate(k);
        spans
    }
}

impl Recorder for InMemoryRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, counter: Counter, n: u64) {
        self.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    fn observe(&self, hist: HistKind, value: u64) {
        self.hists[hist.index()][log2_bucket(value)].fetch_add(1, Ordering::Relaxed);
    }

    fn span(&self, span: ChunkSpan) {
        self.span_count.fetch_add(1, Ordering::Relaxed);
        self.span_ns.fetch_add(span.dur_ns, Ordering::Relaxed);
        if self.keep_spans {
            self.spans
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(span);
        }
    }
}

/// One method × kernel-policy row of the [`MeasuredVsModel`] report.
#[derive(Clone, Debug, PartialEq)]
pub struct MethodMeasurement {
    /// Method name (`"T1"`, `"E4"`, …).
    pub method: String,
    /// Kernel-policy name (`"paper"`, `"adaptive"`).
    pub policy: String,
    /// Modeled elementary operations (the paper-side closed form, equal to
    /// the measured `CostReport::operations`).
    pub modeled_ops: u64,
    /// Total span (busy) nanoseconds across all chunk executions.
    pub measured_ns: u64,
    /// End-to-end wall-clock of the run, in nanoseconds.
    pub wall_ns: u64,
    /// Number of chunk spans recorded.
    pub spans: u64,
    /// Triangles listed.
    pub triangles: u64,
    /// `measured_ns / modeled_ops` — the measured cost of one modeled
    /// elementary operation (0 when no operations were modeled).
    pub ns_per_op: f64,
    /// Load-balance efficiency recomputed from spans (mean/max worker busy
    /// time).
    pub load_balance_efficiency: f64,
}

impl MethodMeasurement {
    /// Assembles a row, deriving `ns_per_op` from the totals.
    #[allow(clippy::too_many_arguments)]
    pub fn derive(
        method: &str,
        policy: &str,
        modeled_ops: u64,
        measured_ns: u64,
        wall_ns: u64,
        spans: u64,
        triangles: u64,
        load_balance_efficiency: f64,
    ) -> Self {
        let ns_per_op = if modeled_ops == 0 {
            0.0
        } else {
            measured_ns as f64 / modeled_ops as f64
        };
        MethodMeasurement {
            method: method.to_string(),
            policy: policy.to_string(),
            modeled_ops,
            measured_ns,
            wall_ns,
            spans,
            triangles,
            ns_per_op,
            load_balance_efficiency,
        }
    }

    /// `measured_ns / wall_ns`: how much of the end-to-end wall clock the
    /// spans account for (≈ thread count on a saturated multi-worker run,
    /// ≈ 1 single-threaded).
    pub fn span_coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.measured_ns as f64 / self.wall_ns as f64
    }
}

/// The measured-vs-model report: one row per method × kernel policy,
/// joining span totals against the paper-side cost model.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct MeasuredVsModel {
    /// The rows, in insertion order.
    pub entries: Vec<MethodMeasurement>,
}

/// A [`MeasuredVsModel`] document that failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError(String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid measured-vs-model JSON: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl MeasuredVsModel {
    /// Serializes the report to JSON. Floats use Rust's shortest
    /// round-trip decimal form; non-finite floats serialize as `null`
    /// (and parse back as 0.0 — finite inputs round-trip losslessly,
    /// property-tested).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(256 + self.entries.len() * 256);
        out.push_str("{\n  \"version\": 1,\n  \"entries\": [");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            write!(out, "\"method\": {}, ", json_string(&e.method)).unwrap();
            write!(out, "\"policy\": {}, ", json_string(&e.policy)).unwrap();
            write!(out, "\"modeled_ops\": {}, ", e.modeled_ops).unwrap();
            write!(out, "\"measured_ns\": {}, ", e.measured_ns).unwrap();
            write!(out, "\"wall_ns\": {}, ", e.wall_ns).unwrap();
            write!(out, "\"spans\": {}, ", e.spans).unwrap();
            write!(out, "\"triangles\": {}, ", e.triangles).unwrap();
            write!(out, "\"ns_per_op\": {}, ", json_f64(e.ns_per_op)).unwrap();
            write!(
                out,
                "\"load_balance_efficiency\": {}",
                json_f64(e.load_balance_efficiency)
            )
            .unwrap();
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses a document produced by [`MeasuredVsModel::to_json`] (field
    /// order inside each entry is irrelevant; unknown fields are
    /// rejected).
    pub fn from_json(s: &str) -> Result<Self, JsonError> {
        let mut p = JsonParser::new(s);
        p.expect('{')?;
        let mut entries = None;
        let mut version = None;
        loop {
            let key = p.string()?;
            p.expect(':')?;
            match key.as_str() {
                "version" => version = Some(p.u64()?),
                "entries" => entries = Some(p.entries()?),
                other => return Err(JsonError(format!("unknown top-level key {other:?}"))),
            }
            if !p.comma_or(b'}')? {
                break;
            }
        }
        p.end()?;
        if version != Some(1) {
            return Err(JsonError(format!("unsupported version {version:?}")));
        }
        Ok(MeasuredVsModel {
            entries: entries.ok_or_else(|| JsonError("missing entries".to_string()))?,
        })
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float for JSON: Rust's shortest round-trip decimal, with a
/// `.0` forced onto integral values so the token stays a JSON number that
/// unambiguously parses back to the same `f64`; non-finite values become
/// `null`.
fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// A recursive-descent parser for exactly the [`MeasuredVsModel`] schema.
struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(s: &'a str) -> Self {
        JsonParser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> JsonError {
        JsonError(format!("{msg} at byte {}", self.pos))
    }

    fn ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, ch: char) -> Result<(), JsonError> {
        if self.peek() == Some(ch as u8) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {ch:?}")))
        }
    }

    /// After a key/value or array element: `,` means another follows
    /// (returns true), `close` ends the container (returns false).
    fn comma_or(&mut self, close: u8) -> Result<bool, JsonError> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(self.err("expected ',' or container close")),
        }
    }

    fn end(&mut self) -> Result<(), JsonError> {
        if self.peek().is_some() {
            return Err(self.err("trailing input"));
        }
        Ok(())
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // take a run of plain bytes as UTF-8
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("surrogate \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The raw token of a number or `null`.
    fn number_token(&mut self) -> Result<&'a str, JsonError> {
        self.ws();
        let start = self.pos;
        if self.bytes[self.pos..].starts_with(b"null") {
            self.pos += 4;
            return Ok("null");
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(self.err("expected number"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| self.err("bad number"))
    }

    fn u64(&mut self) -> Result<u64, JsonError> {
        let tok = self.number_token()?;
        tok.parse::<u64>()
            .map_err(|_| JsonError(format!("{tok:?} is not a u64")))
    }

    fn f64(&mut self) -> Result<f64, JsonError> {
        let tok = self.number_token()?;
        if tok == "null" {
            return Ok(0.0);
        }
        tok.parse::<f64>()
            .map_err(|_| JsonError(format!("{tok:?} is not a number")))
    }

    fn entries(&mut self) -> Result<Vec<MethodMeasurement>, JsonError> {
        self.expect('[')?;
        let mut entries = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(entries);
        }
        loop {
            entries.push(self.entry()?);
            if !self.comma_or(b']')? {
                return Ok(entries);
            }
        }
    }

    fn entry(&mut self) -> Result<MethodMeasurement, JsonError> {
        self.expect('{')?;
        let (mut method, mut policy) = (None, None);
        let (mut modeled_ops, mut measured_ns, mut wall_ns) = (None, None, None);
        let (mut spans, mut triangles) = (None, None);
        let (mut ns_per_op, mut efficiency) = (None, None);
        loop {
            let key = self.string()?;
            self.expect(':')?;
            match key.as_str() {
                "method" => method = Some(self.string()?),
                "policy" => policy = Some(self.string()?),
                "modeled_ops" => modeled_ops = Some(self.u64()?),
                "measured_ns" => measured_ns = Some(self.u64()?),
                "wall_ns" => wall_ns = Some(self.u64()?),
                "spans" => spans = Some(self.u64()?),
                "triangles" => triangles = Some(self.u64()?),
                "ns_per_op" => ns_per_op = Some(self.f64()?),
                "load_balance_efficiency" => efficiency = Some(self.f64()?),
                other => return Err(JsonError(format!("unknown entry key {other:?}"))),
            }
            if !self.comma_or(b'}')? {
                break;
            }
        }
        let missing = |field: &str| JsonError(format!("entry missing {field:?}"));
        Ok(MethodMeasurement {
            method: method.ok_or_else(|| missing("method"))?,
            policy: policy.ok_or_else(|| missing("policy"))?,
            modeled_ops: modeled_ops.ok_or_else(|| missing("modeled_ops"))?,
            measured_ns: measured_ns.ok_or_else(|| missing("measured_ns"))?,
            wall_ns: wall_ns.ok_or_else(|| missing("wall_ns"))?,
            spans: spans.ok_or_else(|| missing("spans"))?,
            triangles: triangles.ok_or_else(|| missing("triangles"))?,
            ns_per_op: ns_per_op.ok_or_else(|| missing("ns_per_op"))?,
            load_balance_efficiency: efficiency
                .ok_or_else(|| missing("load_balance_efficiency"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Method;

    #[test]
    fn log2_bucket_edges() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(u64::MAX), 64);
        assert!(log2_bucket(u64::MAX) < HIST_BUCKETS);
    }

    #[test]
    fn counter_indices_are_dense_and_named() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.name().is_empty());
        }
        for (i, h) in HistKind::ALL.iter().enumerate() {
            assert_eq!(h.index(), i);
            assert!(!h.name().is_empty());
        }
    }

    #[test]
    fn in_memory_recorder_accumulates() {
        let r = InMemoryRecorder::new();
        assert!(r.enabled());
        r.add(Counter::Steals, 3);
        r.add(Counter::Steals, 4);
        assert_eq!(r.counter(Counter::Steals), 7);
        r.observe(HistKind::ChunkOps, 0);
        r.observe(HistKind::ChunkOps, 5);
        r.observe(HistKind::ChunkOps, 1024);
        let h = r.histogram(HistKind::ChunkOps);
        assert_eq!(h[0], 1);
        assert_eq!(h[log2_bucket(5)], 1);
        assert_eq!(h[log2_bucket(1024)], 1);
        assert_eq!(h.iter().sum::<u64>(), 3);
        assert_eq!(r.snapshot().get(Counter::Steals), 7);
    }

    fn span(worker: usize, chunk: u32, dur_ns: u64) -> ChunkSpan {
        ChunkSpan {
            domain: WorkDomain::Listing(Method::E1),
            policy: "paper",
            chunk,
            attempt: 0,
            worker,
            range: chunk * 10..(chunk + 1) * 10,
            start_ns: 0,
            dur_ns,
            ops: dur_ns / 2,
            ok: true,
        }
    }

    #[test]
    fn span_derived_efficiency_and_hottest() {
        let r = InMemoryRecorder::new();
        r.span(span(0, 0, 100));
        r.span(span(0, 1, 100));
        r.span(span(1, 2, 100));
        assert_eq!(r.span_total_ns(), 300);
        assert_eq!(r.per_worker_busy_ns(2), vec![200, 100]);
        // mean 150 / max 200
        assert!((r.load_balance_efficiency(2) - 0.75).abs() < 1e-12);
        // an idle third worker drags the mean down
        assert!((r.load_balance_efficiency(3) - 0.5).abs() < 1e-12);
        let hot = r.hottest(2);
        assert_eq!(hot.len(), 2);
        assert_eq!((hot[0].chunk, hot[1].chunk), (0, 1));
        // empty recorder: defined as perfectly balanced
        assert_eq!(InMemoryRecorder::new().load_balance_efficiency(4), 1.0);
    }

    #[test]
    fn noop_recorder_is_disabled_and_silent() {
        let r = NoopRecorder;
        assert!(!r.enabled());
        r.add(Counter::Steals, 1);
        r.observe(HistKind::ChunkOps, 1);
        r.span(span(0, 0, 1));
        assert!(!NOOP.enabled());
    }

    #[test]
    fn snapshot_merge_sums() {
        let mut a = CounterSnapshot::default();
        let mut b = CounterSnapshot::default();
        a.counts[Counter::Steals.index()] = 5;
        b.counts[Counter::Steals.index()] = u64::MAX;
        let m = a.merge(&b);
        assert_eq!(m.get(Counter::Steals), u64::MAX); // saturates
        assert_eq!(a.merge(&b), b.merge(&a));
    }

    #[test]
    fn json_round_trips_a_report() {
        let report = MeasuredVsModel {
            entries: vec![
                MethodMeasurement::derive("T1", "paper", 1_000, 12_345, 20_000, 7, 42, 0.93),
                MethodMeasurement::derive("E4", "adaptive", 0, 0, 1, 0, 0, 1.0),
                MethodMeasurement::derive("weird \"name\"\n", "\\esc\u{1}", 3, 10, 10, 1, 1, 0.5),
            ],
        };
        let json = report.to_json();
        let parsed = MeasuredVsModel::from_json(&json).unwrap();
        assert_eq!(parsed, report);
        // empty report round-trips too
        let empty = MeasuredVsModel::default();
        assert_eq!(MeasuredVsModel::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn json_rejects_malformed_documents() {
        for bad in [
            "",
            "{}",
            "{\"version\": 2, \"entries\": []}",
            "{\"version\": 1}",
            "{\"version\": 1, \"entries\": [{}]}",
            "{\"version\": 1, \"entries\": [], \"extra\": 0}",
            "{\"version\": 1, \"entries\": []} trailing",
            "{\"version\": 1, \"entries\": [{\"method\": \"T1\"}]}",
        ] {
            assert!(MeasuredVsModel::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn json_floats_are_shortest_round_trip() {
        let mut e = MethodMeasurement::derive("T1", "paper", 3, 10, 10, 1, 1, 0.1);
        e.ns_per_op = f64::NAN; // non-finite degrades to null -> 0.0
        let report = MeasuredVsModel { entries: vec![e] };
        let parsed = MeasuredVsModel::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.entries[0].ns_per_op, 0.0);
        assert_eq!(parsed.entries[0].load_balance_efficiency, 0.1);
    }
}
