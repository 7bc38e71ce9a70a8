//! The graph store: registered undirected graphs plus an LRU cache of
//! prepared listing artifacts, memory-accounted through the runtime's
//! shared [`MemoryGauge`].
//!
//! The three-step framework (§2.1) splits a listing request into a
//! query-independent part — relabel by family, orient, build the edge
//! oracle and hub bitmaps — and the per-request listing itself. The
//! expensive first part depends only on `(graph, family, epoch)`, so the
//! store caches one [`Prepared`] entry per such key and every request
//! against the same key reuses it. Cache residency is charged to the same
//! gauge the in-flight runs charge their transient memory to, so one
//! global ceiling covers both (the [`RunBudget::with_gauge`] hook).
//!
//! # Epochs and deltas
//!
//! Registered graphs are *versioned*: every validated
//! [`GraphStore::add_edges`] / [`GraphStore::remove_edges`] batch appends
//! one immutable [`DeltaRun`] to the graph's history and advances its
//! epoch by one. Epoch `e` is, by definition, the registered base graph
//! with `history[..e]` applied; the store keeps the latest epoch eagerly
//! materialized and rebuilds historical epochs on demand from the nearest
//! retained *segment* (a materialized snapshot). Compaction
//! ([`GraphStore::compact_now`], or the background lane started by
//! [`GraphStore::start_compactor`]) adds a segment at the current epoch,
//! re-runs the autotuner on the compacted graph (in
//! [`PlanMode::Autotune`]), and resets the delta ratio — it never changes
//! epoch numbers, which is what keeps resume tokens and pinned readers
//! byte-identical across a compaction (DESIGN.md invariant 14).
//!
//! Readers pin an epoch with [`GraphStore::pin`] (a refcount); segment
//! garbage collection only drops snapshots no pin and no latest-epoch
//! reader needs. Runs are retained for the graph's lifetime so any
//! `(epoch_a, epoch_b)` delta window stays answerable.
//!
//! Every state transition happens under the store lock, and each one is
//! cheap: an edit validates its batch and splices the touched CSR rows
//! ([`materialize`]), a prepare probes the cache. The one expensive step, a
//! prepare miss's relabel/orient/oracle/kernel build, runs with the lock
//! released; the entry is cached afterwards only if the graph was not
//! replaced meanwhile (see [`GraphStore::prepare_at`]).
//!
//! [`RunBudget::with_gauge`]: trilist_core::RunBudget::with_gauge

use crate::lock;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use trilist_core::{
    materialize, net_changes, CompressedCsr, Counter, DeltaError, DeltaRun, EdgeList, HashOracle,
    KernelPlan, Kernels, ListingPlan, MemoryGauge, Recorder,
};
use trilist_graph::{Graph, GraphError};
use trilist_model::{rank_plans, MachineProfile, PlanConfig};
use trilist_order::{DirectedGraph, OrderFamily, OrderingKind};

/// How the store decides each prepared entry's [`KernelPlan`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PlanMode {
    /// Every entry gets this plan. The default is
    /// `KernelPlan::default()` — adaptive kernels over the plain CSR.
    Fixed(KernelPlan),
    /// Run the full per-graph ordering autotuner
    /// ([`trilist_model::rank_plans`]): one [`ListingPlan`] is computed
    /// and cached per registered graph, and every prepared entry adopts
    /// its kernel policy and layout. `rounds == 0` scores candidates
    /// against the deterministic [`MachineProfile::reference`] (same
    /// plan on every machine — what the golden pins and differential
    /// tests use); `rounds > 0` measures this machine's throughputs
    /// first.
    Autotune {
        /// Timing repetitions for the machine profile (0 = the
        /// deterministic reference profile, no timing at all).
        rounds: usize,
    },
}

impl Default for PlanMode {
    fn default() -> Self {
        PlanMode::Fixed(KernelPlan::default())
    }
}

/// Store knobs.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Maximum prepared entries held (LRU beyond this).
    pub max_entries: usize,
    /// Soft cache-residency target in bytes: entries are evicted
    /// (least-recently-used first) while the cache exceeds it. `None`
    /// leaves entry count as the only bound.
    pub cache_bytes: Option<u64>,
    /// Base seed for deterministic relabeling (see [`prepare_seed_for`]).
    pub prepare_seed: u64,
    /// Kernel-plan selection for prepared entries.
    pub plan: PlanMode,
    /// Delta ratio (edited edges since the last compaction over the last
    /// compacted edge count) beyond which an edit batch nudges the
    /// background compaction lane.
    pub compact_ratio: f64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            max_entries: 8,
            cache_bytes: None,
            prepare_seed: 0x7472_696C,
            plan: PlanMode::default(),
            compact_ratio: 0.25,
        }
    }
}

/// The per-graph autotuner verdict the store caches alongside the
/// prepared entries: the winning [`ListingPlan`] plus the ranked-run
/// context the `ExplainPlan` wire frame reports.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanSummary {
    /// The plan unpinned `List`/`Count` requests execute under.
    pub plan: ListingPlan,
    /// Model-predicted elementary operations of the winner.
    pub predicted_ops: f64,
    /// Winner operations scaled through the machine profile.
    pub predicted_seconds: f64,
    /// Predicted operations of the paper default (E1 under θ_D).
    pub default_ops: f64,
    /// Paper-default operations scaled through the machine profile.
    pub default_seconds: f64,
    /// Candidates the autotuner evaluated (0 when the mode never ran it).
    pub evaluations: u64,
    /// Whether family pricing ran on a reservoir degree sample.
    pub sampled: bool,
}

impl PlanSummary {
    /// A no-autotuning summary wrapping a fixed kernel plan: the paper
    /// default ordering/method with the mode's policy and layout.
    fn fixed(plan: KernelPlan) -> PlanSummary {
        PlanSummary {
            plan: ListingPlan::from_kernel_plan(plan),
            predicted_ops: 0.0,
            predicted_seconds: 0.0,
            default_ops: 0.0,
            default_seconds: 0.0,
            evaluations: 0,
            sampled: false,
        }
    }

    /// Gauge charge for keeping this record cached.
    fn bytes(&self) -> u64 {
        std::mem::size_of::<PlanSummary>() as u64
    }
}

/// Runs the autotuner for `graph` exactly as [`GraphStore::prepare`] does
/// in [`PlanMode::Autotune`]: `rounds == 0` uses the deterministic
/// reference profile, `rounds > 0` measures this machine on the
/// default-ordering orientation first. Exported so tests and the
/// `autotune_matrix` experiment reproduce the server's plan bit-for-bit.
pub fn autotune_plan(graph: &Graph, rounds: usize) -> PlanSummary {
    let profile = if rounds == 0 {
        MachineProfile::reference()
    } else {
        let mut rng = rand::rngs::StdRng::seed_from_u64(PlanConfig::default().seed);
        let relabeling = OrderFamily::Descending.relabeling(graph, &mut rng);
        let dg = DirectedGraph::orient(graph, &relabeling);
        let cal = trilist_model::calibrate(&dg, rounds);
        let tp = trilist_model::kernel_throughputs(&dg, rounds);
        MachineProfile::from_measured(&cal, &tp)
    };
    let ranked = rank_plans(graph, &profile, &PlanConfig::default());
    let winner = ranked.candidate_for(&ranked.best);
    PlanSummary {
        plan: ranked.best,
        predicted_ops: winner.map_or(0.0, |c| c.predicted_ops),
        predicted_seconds: winner.map_or(0.0, |c| c.predicted_seconds),
        default_ops: ranked.default_ops,
        default_seconds: ranked.default_seconds,
        evaluations: ranked.evaluations,
        sampled: ranked.sampled,
    }
}

/// The cached, query-independent artifacts for one
/// `(graph, ordering, epoch)` key: everything a listing run needs except
/// the visited ranges.
pub struct Prepared {
    /// The oriented (relabeled CSR) graph.
    pub dg: DirectedGraph,
    /// Label → original node ID, for translating triangles back.
    pub inverse: Vec<u32>,
    /// Degree of the node holding each label — the cost model's input
    /// (Proposition 4), so admission pricing is O(n) with no extra pass.
    pub degrees_by_label: Vec<u32>,
    /// Shared edge oracle for T-method runs
    /// ([`ResilientOpts::oracle`]).
    ///
    /// [`ResilientOpts::oracle`]: trilist_core::ResilientOpts
    pub oracle: Arc<HashOracle>,
    /// Shared kernel context built under [`Prepared::plan`]'s policy —
    /// hub bitmaps and/or bitset blocks — the base every run on this
    /// entry borrows from whatever its own policy shares with it
    /// ([`ResilientOpts::kernels`]).
    ///
    /// [`ResilientOpts::kernels`]: trilist_core::ResilientOpts
    pub kernels: Arc<Kernels>,
    /// The kernel plan this entry was prepared under.
    pub plan: KernelPlan,
    /// Delta/varint-compressed adjacency, present iff
    /// `plan.compressed` — runs then list from this layout instead of
    /// the plain CSR (cost accounting is layout-invariant).
    pub csr: Option<Arc<CompressedCsr>>,
    /// Bytes this entry charges to the gauge while cached.
    pub bytes: u64,
}

/// FNV-1a over a string, for mixing names into the prepare seed.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The RNG seed used to relabel `graph_name` under `ordering_name` with
/// store base seed `base`. Public so differential tests can reproduce the
/// server's exact relabeling (only [`OrderFamily::Uniform`] actually
/// consumes randomness, but the convention covers every ordering; family
/// orderings keep their historical [`OrderFamily::name`] seeds).
pub fn prepare_seed_for(base: u64, graph_name: &str, ordering_name: &str) -> u64 {
    base ^ fnv1a(graph_name).rotate_left(17) ^ fnv1a(ordering_name)
}

/// [`prepare_seed_for`] at a specific epoch: the epoch is mixed in so
/// each version relabels independently, with epoch 0 reproducing the
/// historical (pre-dynamic) seed exactly.
pub fn prepare_seed_at(base: u64, graph_name: &str, ordering_name: &str, epoch: u64) -> u64 {
    prepare_seed_for(base, graph_name, ordering_name) ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Builds the [`Prepared`] artifacts for `graph` under `ordering` (an
/// [`OrderingKind`], or an [`OrderFamily`] via `From`), using the store's
/// deterministic seeding convention. This is exactly what the server
/// executes on a cache miss, exported so tests can compute the expected
/// byte-identical result in-process.
pub fn prepare_graph(graph: &Graph, ordering: impl Into<OrderingKind>, seed: u64) -> Prepared {
    prepare_graph_with(graph, ordering, seed, PlanMode::default())
}

/// [`prepare_graph`] under an explicit [`PlanMode`].
pub fn prepare_graph_with(
    graph: &Graph,
    ordering: impl Into<OrderingKind>,
    seed: u64,
    mode: PlanMode,
) -> Prepared {
    let ordering = ordering.into();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let relabeling = ordering.relabeling(graph, &mut rng);
    let dg = DirectedGraph::orient(graph, &relabeling);
    let inverse = relabeling.inverse();
    let degrees_by_label: Vec<u32> = (0..dg.n() as u32).map(|v| dg.degree(v) as u32).collect();
    let plan = match mode {
        PlanMode::Fixed(plan) => plan,
        PlanMode::Autotune { rounds } => autotune_plan(graph, rounds).plan.kernel_plan(),
    };
    let oracle = Arc::new(HashOracle::build(&dg));
    let kernels = Arc::new(Kernels::build(plan.policy, &dg));
    let csr = plan
        .compressed
        .then(|| Arc::new(CompressedCsr::compress(&dg)));
    let (n, m) = (dg.n() as u64, dg.m() as u64);
    // the dominant allocations: CSR lists + offsets, both label maps,
    // oracle hash set (12 B/edge, the runtime's own estimate), kernel
    // structures (bitmaps + bitset blocks), and the compressed CSR when
    // the plan keeps one
    let bytes = 2 * m * 4
        + 2 * (n + 1) * 8
        + n * 8
        + m * 12
        + kernels.bytes()
        + csr.as_deref().map_or(0, CompressedCsr::bytes);
    Prepared {
        dg,
        inverse,
        degrees_by_label,
        oracle,
        kernels,
        plan,
        csr,
        bytes,
    }
}

/// A store operation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// No graph registered under the requested name.
    UnknownGraph(String),
    /// An epoch beyond the graph's latest (or an inverted window) was
    /// requested.
    UnknownEpoch {
        /// The graph the request named.
        name: String,
        /// The requested epoch.
        epoch: u64,
        /// The epoch ceiling the request violated.
        latest: u64,
    },
    /// An edit batch failed validation; nothing was applied.
    Delta(DeltaError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownGraph(name) => write!(f, "no graph registered as {name:?}"),
            StoreError::UnknownEpoch {
                name,
                epoch,
                latest,
            } => write!(f, "graph {name:?} has no epoch {epoch} (limit {latest})"),
            StoreError::Delta(e) => write!(f, "rejected edit batch: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<DeltaError> for StoreError {
    fn from(e: DeltaError) -> Self {
        StoreError::Delta(e)
    }
}

/// Receipt for one applied edit batch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EditReceipt {
    /// The epoch the batch created (the graph's new latest).
    pub epoch: u64,
    /// Edges the batch toggled.
    pub applied: u64,
    /// Undirected edge count of the new latest epoch.
    pub m: u64,
    /// Edges edited since the last compaction (across all batches).
    pub delta_edges: u64,
    /// `delta_edges / max(compacted m, 1)` — the compaction trigger
    /// input.
    pub delta_ratio: f64,
    /// Whether this batch nudged the background compaction lane.
    pub compacting: bool,
}

/// Outcome of one [`GraphStore::compact_now`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactReport {
    /// The epoch the snapshot was taken at.
    pub epoch: u64,
    /// Whether a new segment was produced (`false` when the latest epoch
    /// was already compacted, or the graph vanished mid-compaction).
    pub compacted: bool,
    /// Segments retained after garbage collection.
    pub retained_segments: u64,
}

/// Cache observability counters (monotonic except `entries`/`bytes` and
/// the delta gauges).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Prepared-cache hits.
    pub hits: u64,
    /// Prepared-cache misses (each implies one preparation).
    pub misses: u64,
    /// Entries evicted by LRU pressure.
    pub evictions: u64,
    /// Evictions specifically requested by the overload ladder
    /// ([`GraphStore::evict_cold`]); also counted in `evictions`.
    pub cold_evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Bytes currently charged to the gauge by resident entries.
    pub bytes: u64,
    /// Graphs currently registered.
    pub graphs: u64,
    /// Cached per-graph autotuner plans.
    pub plans: u64,
    /// Bytes the cached plan records charge to the gauge.
    pub plan_bytes: u64,
    /// Delta runs currently retained across all graphs.
    pub delta_runs: u64,
    /// Total edges those runs toggle.
    pub delta_edges: u64,
    /// Bytes the retained runs charge to the gauge.
    pub delta_bytes: u64,
    /// Compaction snapshots retained beyond the epoch-0 bases.
    pub retained_segments: u64,
    /// Bytes those snapshots charge to the gauge.
    pub segment_bytes: u64,
    /// Live epoch pins (sum of refcounts).
    pub epoch_pins: u64,
    /// Compactions completed since the store was created.
    pub compactions: u64,
}

struct CacheSlot {
    entry: Arc<Prepared>,
    last_used: u64,
}

/// A materialized snapshot serving epochs `>= base_epoch` (apply
/// `history[base_epoch..e]` to reach epoch `e`).
struct Segment {
    base_epoch: u64,
    graph: Arc<Graph>,
    /// Gauge charge (0 for the epoch-0 base, which `register` owns).
    bytes: u64,
}

struct GraphEntry {
    /// Latest epoch, eagerly materialized (`== base` at epoch 0).
    current: Arc<Graph>,
    /// `history[i]` transforms epoch `i` into epoch `i + 1`.
    history: Vec<Arc<DeltaRun>>,
    /// Snapshots ascending by `base_epoch`; `segments[0]` is always the
    /// registered epoch-0 base.
    segments: Vec<Segment>,
    /// Gauge charge of the retained runs.
    delta_bytes: u64,
    /// Gauge charge of the retained non-base segments.
    segment_bytes: u64,
    /// Edges toggled since the last compaction.
    edits_since_compact: u64,
    /// `m` of the newest segment (the delta-ratio denominator).
    compact_base_m: u64,
    /// Bumped when `register` replaces this name, so an in-flight
    /// compaction of the old graph aborts instead of splicing its
    /// snapshot into the new one.
    generation: u64,
}

impl GraphEntry {
    fn latest_epoch(&self) -> u64 {
        self.history.len() as u64
    }

    fn delta_ratio(&self) -> f64 {
        self.edits_since_compact as f64 / (self.compact_base_m.max(1)) as f64
    }
}

/// Rough CSR residency of a retained snapshot.
fn graph_bytes(g: &Graph) -> u64 {
    2 * (g.m() as u64) * 4 + (g.n() as u64 + 1) * 8
}

enum CompactMsg {
    Compact(String),
    Shutdown,
}

/// Owns the background compaction thread. Dropping the handle shuts the
/// lane down (joining the thread); pending requests drain first.
pub struct CompactorHandle {
    tx: mpsc::Sender<CompactMsg>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl Drop for CompactorHandle {
    fn drop(&mut self) {
        let _ = self.tx.send(CompactMsg::Shutdown);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

#[derive(Default)]
struct StoreInner {
    graphs: HashMap<String, GraphEntry>,
    prepared: HashMap<(String, &'static str, u64), CacheSlot>,
    plans: HashMap<String, Arc<PlanSummary>>,
    /// `(graph, epoch)` → live pin refcount.
    pins: HashMap<(String, u64), u64>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    cold_evictions: u64,
    cached_bytes: u64,
    plan_bytes: u64,
    compactions: u64,
}

impl StoreInner {
    /// Advances the LRU clock and, if `key` is cached, marks it used and
    /// returns its entry.
    fn touch(&mut self, key: &(String, &'static str, u64)) -> Option<Arc<Prepared>> {
        self.tick += 1;
        let slot = self.prepared.get_mut(key)?;
        slot.last_used = self.tick;
        Some(Arc::clone(&slot.entry))
    }
}

/// Registered graphs + the prepared LRU, behind one poison-tolerant lock.
pub struct GraphStore {
    cfg: StoreConfig,
    gauge: MemoryGauge,
    recorder: Option<Arc<dyn Recorder>>,
    inner: Mutex<StoreInner>,
    /// Sender into the background compaction lane, when one is running.
    compact_tx: Mutex<Option<mpsc::Sender<CompactMsg>>>,
}

/// A refcounted hold on one epoch of one graph: while any pin on
/// `(graph, epoch)` is live, segment garbage collection keeps a snapshot
/// at-or-below the epoch so the epoch stays cheaply materializable, and
/// the epoch's artifacts stay byte-identical (compaction never
/// renumbers). Dropping the pin releases the hold and re-runs the GC.
pub struct EpochPin<'a> {
    store: &'a GraphStore,
    name: String,
    epoch: u64,
    /// A pin on a graph `register` has since replaced releases nothing.
    generation: u64,
}

impl EpochPin<'_> {
    /// The pinned epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Drop for EpochPin<'_> {
    fn drop(&mut self) {
        let mut inner = lock(&self.store.inner);
        let live = inner.graphs.get(&self.name).map(|e| e.generation) == Some(self.generation);
        let key = (self.name.clone(), self.epoch);
        if let Some(count) = inner.pins.get_mut(&key).filter(|_| live) {
            *count -= 1;
            if *count == 0 {
                inner.pins.remove(&key);
            }
        }
        self.store.gc_segments(&mut inner, &self.name);
    }
}

impl GraphStore {
    /// An empty store charging cache residency to `gauge`.
    pub fn new(cfg: StoreConfig, gauge: MemoryGauge) -> Self {
        GraphStore {
            cfg,
            gauge,
            recorder: None,
            inner: Mutex::new(StoreInner::default()),
            compact_tx: Mutex::new(None),
        }
    }

    /// Attaches the telemetry recorder plan computations report to
    /// ([`Counter::PlanEvaluations`] / [`Counter::PlanPick`]).
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The gauge cache residency is charged to.
    pub fn gauge(&self) -> &MemoryGauge {
        &self.gauge
    }

    /// Registers (or replaces) a graph at epoch 0. Replacement drops
    /// every cached entry prepared from the old graph, its delta
    /// history, its segments, and its pins. Returns `(n, m)`. The CSR is
    /// built in `O(n + m)` by [`Graph::from_edges`], and a refused graph
    /// answers the first fault that build finds.
    pub fn register(
        &self,
        name: &str,
        n: u32,
        edges: &[(u32, u32)],
    ) -> Result<(u32, u64), GraphError> {
        let graph = Graph::from_edges(n as usize, edges)?;
        let m = graph.m() as u64;
        let mut inner = lock(&self.inner);
        let base = Arc::new(graph);
        let generation = inner
            .graphs
            .get(name)
            .map_or(0, |old| old.generation.wrapping_add(1));
        let entry = GraphEntry {
            current: Arc::clone(&base),
            history: Vec::new(),
            segments: vec![Segment {
                base_epoch: 0,
                graph: base,
                bytes: 0,
            }],
            delta_bytes: 0,
            segment_bytes: 0,
            edits_since_compact: 0,
            compact_base_m: m,
            generation,
        };
        if let Some(old) = inner.graphs.insert(name.to_string(), entry) {
            self.gauge.release(old.delta_bytes + old.segment_bytes);
        }
        inner.pins.retain(|(g, _), _| g != name);
        let stale: Vec<(String, &'static str, u64)> = inner
            .prepared
            .keys()
            .filter(|(g, _, _)| g == name)
            .cloned()
            .collect();
        for key in stale {
            self.evict_key(&mut inner, &key);
        }
        self.drop_plan(&mut inner, name);
        Ok((n, m))
    }

    /// Drops a cached plan record (graph replaced), releasing its charge.
    fn drop_plan(&self, inner: &mut StoreInner, name: &str) {
        if let Some(plan) = inner.plans.remove(name) {
            inner.plan_bytes = inner.plan_bytes.saturating_sub(plan.bytes());
            self.gauge.release(plan.bytes());
        }
    }

    /// The latest materialization of the registered graph under `name`,
    /// if any.
    pub fn graph(&self, name: &str) -> Option<Arc<Graph>> {
        lock(&self.inner)
            .graphs
            .get(name)
            .map(|e| Arc::clone(&e.current))
    }

    /// The graph's latest epoch (0 for a never-edited graph).
    pub fn latest_epoch(&self, name: &str) -> Result<u64, StoreError> {
        lock(&self.inner)
            .graphs
            .get(name)
            .map(GraphEntry::latest_epoch)
            .ok_or_else(|| StoreError::UnknownGraph(name.to_string()))
    }

    /// Materializes epoch `epoch` of `name` (`None` = latest): the
    /// latest epoch is returned from the eager copy, historical epochs
    /// are rebuilt from the nearest retained segment.
    pub fn graph_at(&self, name: &str, epoch: Option<u64>) -> Result<Arc<Graph>, StoreError> {
        let inner = lock(&self.inner);
        let entry = inner
            .graphs
            .get(name)
            .ok_or_else(|| StoreError::UnknownGraph(name.to_string()))?;
        let epoch = resolve_epoch(name, entry, epoch)?;
        Ok(materialize_at(entry, epoch))
    }

    /// Applies a validated insert batch, creating a new epoch. Edges are
    /// original node IDs in any order/orientation; the batch must be a
    /// set of currently-absent edges or the whole batch is rejected.
    pub fn add_edges(&self, name: &str, edges: &[(u32, u32)]) -> Result<EditReceipt, StoreError> {
        self.apply_edit(name, edges, true)
    }

    /// Applies a validated remove batch (tombstones), creating a new
    /// epoch. The batch must be a set of currently-present edges or the
    /// whole batch is rejected.
    pub fn remove_edges(
        &self,
        name: &str,
        edges: &[(u32, u32)],
    ) -> Result<EditReceipt, StoreError> {
        self.apply_edit(name, edges, false)
    }

    fn apply_edit(
        &self,
        name: &str,
        edges: &[(u32, u32)],
        insert: bool,
    ) -> Result<EditReceipt, StoreError> {
        let mut inner = lock(&self.inner);
        let entry = inner
            .graphs
            .get_mut(name)
            .ok_or_else(|| StoreError::UnknownGraph(name.to_string()))?;
        let n = entry.current.n();
        let present = |u: u32, v: u32| entry.current.has_edge(u, v);
        let run = if insert {
            DeltaRun::insert_batch(n, edges, present)?
        } else {
            DeltaRun::remove_batch(n, edges, present)?
        };
        let next = Arc::new(materialize(&entry.current, std::iter::once(&run)));
        let applied = run.edits() as u64;
        let run = Arc::new(run);
        self.gauge.add(run.bytes());
        entry.delta_bytes += run.bytes();
        entry.history.push(run);
        entry.current = Arc::clone(&next);
        entry.edits_since_compact += applied;
        let receipt = EditReceipt {
            epoch: entry.latest_epoch(),
            applied,
            m: next.m() as u64,
            delta_edges: entry.edits_since_compact,
            delta_ratio: entry.delta_ratio(),
            compacting: false,
        };
        drop(inner);
        let compacting = receipt.delta_ratio > self.cfg.compact_ratio && self.nudge_compactor(name);
        Ok(EditReceipt {
            compacting,
            ..receipt
        })
    }

    /// Queues `name` on the background compaction lane, if one is
    /// running. Returns whether the nudge was delivered.
    fn nudge_compactor(&self, name: &str) -> bool {
        lock(&self.compact_tx)
            .as_ref()
            .is_some_and(|tx| tx.send(CompactMsg::Compact(name.to_string())).is_ok())
    }

    /// Starts the off-lane compactor: a thread that compacts graphs
    /// whose edit batches crossed [`StoreConfig::compact_ratio`], so the
    /// event loop never blocks on a merge + autotune. Drop the handle to
    /// stop it.
    pub fn start_compactor(store: &Arc<GraphStore>) -> CompactorHandle {
        let (tx, rx) = mpsc::channel();
        *lock(&store.compact_tx) = Some(tx.clone());
        let worker = Arc::clone(store);
        let join = std::thread::spawn(move || {
            while let Ok(CompactMsg::Compact(name)) = rx.recv() {
                let _ = worker.compact_now(&name);
            }
        });
        CompactorHandle {
            tx,
            join: Some(join),
        }
    }

    /// Compacts `name` synchronously: snapshots the latest epoch as a
    /// new segment, re-runs the autotuner on the compacted graph (in
    /// [`PlanMode::Autotune`]), resets the delta ratio, and garbage
    /// collects segments no pin needs. Epoch numbers never change, so
    /// in-flight chains and pinned readers observe nothing. This is the
    /// body the background lane executes; tests call it directly to
    /// force a deterministic mid-chain compaction.
    pub fn compact_now(&self, name: &str) -> Result<CompactReport, StoreError> {
        let (snapshot, epoch, generation) = {
            let inner = lock(&self.inner);
            let entry = inner
                .graphs
                .get(name)
                .ok_or_else(|| StoreError::UnknownGraph(name.to_string()))?;
            let epoch = entry.latest_epoch();
            let last = entry.segments.last().map_or(0, |s| s.base_epoch);
            if last == epoch {
                return Ok(CompactReport {
                    epoch,
                    compacted: false,
                    retained_segments: entry.segments.len() as u64,
                });
            }
            (Arc::clone(&entry.current), epoch, entry.generation)
        };
        // the expensive part — autotuning the compacted graph — runs
        // outside the lock so requests keep flowing
        let summary = match self.cfg.plan {
            PlanMode::Autotune { rounds } => Some(autotune_plan(&snapshot, rounds)),
            _ => None,
        };
        let mut inner = lock(&self.inner);
        let entry = match inner.graphs.get_mut(name) {
            Some(entry) if entry.generation == generation => entry,
            // the graph was dropped or replaced mid-compaction; the snapshot
            // belongs to the old generation and must not be spliced in
            other => {
                return Ok(CompactReport {
                    epoch,
                    compacted: false,
                    retained_segments: other.map_or(0, |e| e.segments.len() as u64),
                })
            }
        };
        let bytes = graph_bytes(&snapshot);
        self.gauge.add(bytes);
        entry.segment_bytes += bytes;
        entry.compact_base_m = snapshot.m() as u64;
        entry.segments.push(Segment {
            base_epoch: epoch,
            graph: snapshot,
            bytes,
        });
        entry.edits_since_compact = entry.history[epoch as usize..]
            .iter()
            .map(|r| r.edits() as u64)
            .sum();
        inner.compactions += 1;
        self.drop_plan(&mut inner, name);
        if let Some(summary) = summary {
            self.cache_plan(&mut inner, name, summary);
        }
        self.gc_segments(&mut inner, name);
        Ok(CompactReport {
            epoch,
            compacted: true,
            retained_segments: inner.graphs[name].segments.len() as u64,
        })
    }

    /// Pins `epoch` of `name` (`None` = latest) until the returned guard
    /// drops. See [`EpochPin`].
    pub fn pin(&self, name: &str, epoch: Option<u64>) -> Result<EpochPin<'_>, StoreError> {
        let mut inner = lock(&self.inner);
        let entry = inner
            .graphs
            .get(name)
            .ok_or_else(|| StoreError::UnknownGraph(name.to_string()))?;
        let epoch = resolve_epoch(name, entry, epoch)?;
        let generation = entry.generation;
        *inner.pins.entry((name.to_string(), epoch)).or_insert(0) += 1;
        Ok(EpochPin {
            store: self,
            name: name.to_string(),
            epoch,
            generation,
        })
    }

    /// Drops segments no pin and no latest-epoch reader needs. The
    /// epoch-0 base always stays (it is the registered graph itself and
    /// carries no gauge charge).
    fn gc_segments(&self, inner: &mut StoreInner, name: &str) {
        let pinned: Vec<u64> = inner
            .pins
            .keys()
            .filter(|(g, _)| g == name)
            .map(|&(_, e)| e)
            .collect();
        let Some(entry) = inner.graphs.get_mut(name) else {
            return;
        };
        let bases: Vec<u64> = entry.segments.iter().map(|s| s.base_epoch).collect();
        let serving_base = |target: u64| {
            bases
                .iter()
                .copied()
                .filter(|&b| b <= target)
                .max()
                .unwrap_or(0)
        };
        let mut needed: HashSet<u64> = pinned.into_iter().map(serving_base).collect();
        needed.insert(serving_base(entry.latest_epoch()));
        needed.insert(0);
        let mut released = 0u64;
        entry.segments.retain(|s| {
            if needed.contains(&s.base_epoch) {
                true
            } else {
                released += s.bytes;
                false
            }
        });
        entry.segment_bytes -= released;
        self.gauge.release(released);
    }

    /// The net delta window `(net_new, net_removed)` between two epochs
    /// of `name`, both sorted ascending in original node IDs. This is
    /// the edge set `ListNewTriangles(a, b)` iterates: an edge toggled
    /// and restored inside the window folds away entirely.
    pub fn delta_edges(
        &self,
        name: &str,
        from: u64,
        to: u64,
    ) -> Result<(EdgeList, EdgeList), StoreError> {
        let inner = lock(&self.inner);
        let entry = inner
            .graphs
            .get(name)
            .ok_or_else(|| StoreError::UnknownGraph(name.to_string()))?;
        let latest = entry.latest_epoch();
        for epoch in [from, to] {
            if epoch > latest {
                return Err(StoreError::UnknownEpoch {
                    name: name.to_string(),
                    epoch,
                    latest,
                });
            }
        }
        if from > to {
            return Err(StoreError::UnknownEpoch {
                name: name.to_string(),
                epoch: from,
                latest: to,
            });
        }
        Ok(net_changes(
            entry.history[from as usize..to as usize]
                .iter()
                .map(|r| &**r),
        ))
    }

    /// Whether `(name, ordering)` is already in the prepared cache at
    /// the latest epoch — a peek that touches no counters and no LRU
    /// state, for callers that must know whether [`GraphStore::prepare`]
    /// would be cheap (the event loop only answers `ModelPredict` on the
    /// loop thread when it cannot trigger a build).
    pub fn has_prepared(&self, name: &str, ordering: impl Into<OrderingKind>) -> bool {
        let inner = lock(&self.inner);
        let Some(entry) = inner.graphs.get(name) else {
            return false;
        };
        inner.prepared.contains_key(&(
            name.to_string(),
            ordering.into().name(),
            entry.latest_epoch(),
        ))
    }

    /// The graph's [`PlanSummary`] — computed on first use (in
    /// [`PlanMode::Autotune`] that means running the autotuner), cached
    /// per graph, charged to the gauge, and reported to the recorder.
    /// Unpinned `List`/`Count` requests and `ExplainPlan` read this.
    /// Computed from the latest materialization; compaction refreshes
    /// it.
    pub fn listing_plan(&self, name: &str) -> Result<Arc<PlanSummary>, StoreError> {
        let mut inner = lock(&self.inner);
        let graph = inner
            .graphs
            .get(name)
            .map(|e| Arc::clone(&e.current))
            .ok_or_else(|| StoreError::UnknownGraph(name.to_string()))?;
        Ok(self.plan_locked(&mut inner, name, &graph))
    }

    /// The cached-or-computed plan record for `name`, under the lock.
    fn plan_locked(
        &self,
        inner: &mut StoreInner,
        name: &str,
        graph: &Arc<Graph>,
    ) -> Arc<PlanSummary> {
        if let Some(plan) = inner.plans.get(name) {
            return Arc::clone(plan);
        }
        let summary = match self.cfg.plan {
            PlanMode::Fixed(plan) => PlanSummary::fixed(plan),
            PlanMode::Autotune { rounds } => {
                // the planner's transient scratch (candidate labelings +
                // the degree sample) is charged to the shared gauge for
                // the duration of the computation
                let scratch =
                    3 * (graph.n() as u64) * 4 + PlanConfig::default().sample_size as u64 * 4;
                self.gauge.add(scratch);
                let summary = autotune_plan(graph, rounds);
                self.gauge.release(scratch);
                summary
            }
        };
        self.cache_plan(inner, name, summary)
    }

    /// Stores a freshly computed plan record: recorder counters, gauge
    /// charge, plan cache.
    fn cache_plan(
        &self,
        inner: &mut StoreInner,
        name: &str,
        summary: PlanSummary,
    ) -> Arc<PlanSummary> {
        if let Some(recorder) = &self.recorder {
            recorder.add(Counter::PlanEvaluations, summary.evaluations);
            recorder.add(Counter::PlanPick, 1);
        }
        let summary = Arc::new(summary);
        self.gauge.add(summary.bytes());
        inner.plan_bytes += summary.bytes();
        inner.plans.insert(name.to_string(), Arc::clone(&summary));
        summary
    }

    /// The prepared entry for `(name, ordering)` at the latest epoch.
    /// See [`GraphStore::prepare_at`].
    pub fn prepare(
        &self,
        name: &str,
        ordering: impl Into<OrderingKind>,
    ) -> Result<(Arc<Prepared>, bool), StoreError> {
        let (entry, hit, _) = self.prepare_at(name, ordering, None)?;
        Ok((entry, hit))
    }

    /// The prepared entry for `(name, ordering, epoch)` (`None` =
    /// latest): from cache on a hit (second return `true`), built — and
    /// cached, possibly evicting LRU entries — on a miss. The third
    /// return is the resolved epoch. In [`PlanMode::Autotune`] the
    /// graph's cached [`PlanSummary`] (computed here on the first
    /// prepare) supplies the kernel policy and layout for every entry of
    /// that graph. The epoch is mixed into the relabel seed
    /// ([`prepare_seed_at`]), so a given epoch's artifacts are
    /// byte-identical no matter when — or from which segment — they are
    /// rebuilt.
    ///
    /// The cache is probed before anything is materialized, so a hit on a
    /// historical epoch rebuilds nothing. A miss materializes the epoch and
    /// resolves the plan under the lock, then builds the entry with the
    /// lock released, so other requests keep flowing meanwhile. Two
    /// concurrent misses on one key may both build; the first to finish
    /// caches its entry and the other returns that one. An entry built
    /// across a `register` of the same name belongs to the replaced graph
    /// and is served to its caller uncached.
    pub fn prepare_at(
        &self,
        name: &str,
        ordering: impl Into<OrderingKind>,
        epoch: Option<u64>,
    ) -> Result<(Arc<Prepared>, bool, u64), StoreError> {
        let ordering = ordering.into();
        let (graph, key, mode, generation) = {
            let mut inner = lock(&self.inner);
            let entry = inner
                .graphs
                .get(name)
                .ok_or_else(|| StoreError::UnknownGraph(name.to_string()))?;
            let epoch = resolve_epoch(name, entry, epoch)?;
            let generation = entry.generation;
            let key = (name.to_string(), ordering.name(), epoch);
            if let Some(hit) = inner.touch(&key) {
                inner.hits += 1;
                return Ok((hit, true, epoch));
            }
            let graph = materialize_at(&inner.graphs[name], epoch);
            inner.misses += 1;
            // resolve the mode once: in Autotune the graph-level plan is
            // computed (and cached, and counted) here, then pinned for the
            // entry build so the standalone builder reproduces it exactly
            let mode = match self.cfg.plan {
                PlanMode::Autotune { .. } => {
                    let summary = self.plan_locked(&mut inner, name, &graph);
                    PlanMode::Fixed(summary.plan.kernel_plan())
                }
                other => other,
            };
            (graph, key, mode, generation)
        };
        let epoch = key.2;
        let seed = prepare_seed_at(self.cfg.prepare_seed, name, ordering.name(), epoch);
        // the expensive part runs unlocked; nothing is charged until the
        // entry is cached below
        let built = Arc::new(prepare_graph_with(&graph, ordering, seed, mode));
        let mut inner = lock(&self.inner);
        if inner.graphs.get(name).map(|e| e.generation) != Some(generation) {
            // replaced mid-build, as `compact_now` guards: the entry
            // belongs to the old graph and must not be cached for the new
            return Ok((built, false, epoch));
        }
        if let Some(cached) = inner.touch(&key) {
            // a concurrent miss cached this key first; ours is dropped
            return Ok((cached, false, epoch));
        }
        self.gauge.add(built.bytes);
        inner.cached_bytes += built.bytes;
        let tick = inner.tick;
        inner.prepared.insert(
            key,
            CacheSlot {
                entry: Arc::clone(&built),
                last_used: tick,
            },
        );
        self.shrink(&mut inner);
        Ok((built, false, epoch))
    }

    /// Evicts LRU entries until both the entry-count and byte bounds
    /// hold. May evict the entry just inserted (a tiny ceiling still
    /// serves the request — the caller holds an `Arc` — it just won't be
    /// cached for the next one).
    fn shrink(&self, inner: &mut StoreInner) {
        loop {
            let over_count = inner.prepared.len() > self.cfg.max_entries;
            let over_bytes = self
                .cfg
                .cache_bytes
                .is_some_and(|cap| inner.cached_bytes > cap);
            if !(over_count || over_bytes) || inner.prepared.is_empty() {
                return;
            }
            let Some(lru) = inner
                .prepared
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(key, _)| key.clone())
            else {
                return; // unreachable: the cache was checked non-empty
            };
            self.evict_key(inner, &lru);
            inner.evictions += 1;
        }
    }

    /// Evicts the least-recently-used cached entry *not* prepared from
    /// `keep_graph` — the overload ladder's cold-eviction rung, which
    /// must never drop the artifacts the pressured request is about to
    /// use. Returns whether anything was evicted.
    pub fn evict_cold(&self, keep_graph: &str) -> bool {
        let mut inner = lock(&self.inner);
        let victim = inner
            .prepared
            .iter()
            .filter(|((graph, _, _), _)| graph != keep_graph)
            .min_by_key(|(_, slot)| slot.last_used)
            .map(|(key, _)| key.clone());
        match victim {
            Some(key) => {
                self.evict_key(&mut inner, &key);
                inner.evictions += 1;
                inner.cold_evictions += 1;
                true
            }
            None => false,
        }
    }

    fn evict_key(&self, inner: &mut StoreInner, key: &(String, &'static str, u64)) {
        if let Some(slot) = inner.prepared.remove(key) {
            inner.cached_bytes = inner.cached_bytes.saturating_sub(slot.entry.bytes);
            self.gauge.release(slot.entry.bytes);
        }
    }

    /// Current cache counters.
    pub fn stats(&self) -> StoreStats {
        let inner = lock(&self.inner);
        let mut delta_runs = 0u64;
        let mut delta_edges = 0u64;
        let mut delta_bytes = 0u64;
        let mut retained_segments = 0u64;
        let mut segment_bytes = 0u64;
        for entry in inner.graphs.values() {
            delta_runs += entry.history.len() as u64;
            delta_edges += entry.history.iter().map(|r| r.edits() as u64).sum::<u64>();
            delta_bytes += entry.delta_bytes;
            retained_segments += entry.segments.len() as u64 - 1;
            segment_bytes += entry.segment_bytes;
        }
        StoreStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            cold_evictions: inner.cold_evictions,
            entries: inner.prepared.len() as u64,
            bytes: inner.cached_bytes,
            graphs: inner.graphs.len() as u64,
            plans: inner.plans.len() as u64,
            plan_bytes: inner.plan_bytes,
            delta_runs,
            delta_edges,
            delta_bytes,
            retained_segments,
            segment_bytes,
            epoch_pins: inner.pins.values().sum(),
            compactions: inner.compactions,
        }
    }
}

/// Validates and defaults an epoch request against the entry's latest.
fn resolve_epoch(name: &str, entry: &GraphEntry, epoch: Option<u64>) -> Result<u64, StoreError> {
    let latest = entry.latest_epoch();
    match epoch {
        None => Ok(latest),
        Some(e) if e <= latest => Ok(e),
        Some(e) => Err(StoreError::UnknownEpoch {
            name: name.to_string(),
            epoch: e,
            latest,
        }),
    }
}

/// Materializes `epoch` from the entry's nearest retained segment. The
/// result is deterministic for a given epoch regardless of which segment
/// serves it — segments are themselves exact materializations — which is
/// the structural half of the pinned-epoch immutability invariant.
fn materialize_at(entry: &GraphEntry, epoch: u64) -> Arc<Graph> {
    if epoch == entry.latest_epoch() {
        return Arc::clone(&entry.current);
    }
    let seg = entry
        .segments
        .iter()
        .filter(|s| s.base_epoch <= epoch)
        .max_by_key(|s| s.base_epoch)
        .expect("segment 0 always present");
    if seg.base_epoch == epoch {
        return Arc::clone(&seg.graph);
    }
    let runs = entry.history[seg.base_epoch as usize..epoch as usize]
        .iter()
        .map(|r| &**r);
    Arc::new(materialize(&seg.graph, runs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_fan(n: u32) -> Vec<(u32, u32)> {
        // hub 0 connected to everyone, plus a path among the rest: many
        // triangles (0, i, i+1)
        let mut edges: Vec<(u32, u32)> = (1..n).map(|v| (0, v)).collect();
        edges.extend((1..n - 1).map(|v| (v, v + 1)));
        edges
    }

    fn store(max_entries: usize) -> GraphStore {
        GraphStore::new(
            StoreConfig {
                max_entries,
                ..StoreConfig::default()
            },
            MemoryGauge::new(),
        )
    }

    #[test]
    fn register_validates_and_replaces() {
        let s = store(4);
        let (n, m) = s.register("g", 50, &triangle_fan(50)).unwrap();
        assert_eq!((n, m), (50, 49 + 48));
        assert!(s.register("bad", 3, &[(0, 0)]).is_err());
        assert!(s.graph("g").is_some());
        assert!(s.graph("missing").is_none());
        // prepare, then replace: the cached entry must drop
        s.prepare("g", OrderFamily::Descending).unwrap();
        assert_eq!(s.stats().entries, 1);
        let charged = s.gauge().used();
        assert!(charged > 0);
        s.register("g", 10, &triangle_fan(10)).unwrap();
        assert_eq!(s.stats().entries, 0);
        assert_eq!(s.gauge().used(), 0, "replacement releases the gauge");
    }

    #[test]
    fn prepare_hits_and_deterministic_artifacts() {
        let s = store(4);
        s.register("g", 60, &triangle_fan(60)).unwrap();
        let (a, hit_a) = s.prepare("g", OrderFamily::Descending).unwrap();
        let (b, hit_b) = s.prepare("g", OrderFamily::Descending).unwrap();
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a, &b), "hit returns the same entry");
        let st = s.stats();
        assert_eq!((st.hits, st.misses), (1, 1));
        // the exported builder reproduces the entry byte-for-byte; at
        // epoch 0 the epoch-mixed seed equals the historical one
        let seed = prepare_seed_for(s.cfg.prepare_seed, "g", "desc");
        assert_eq!(seed, prepare_seed_at(s.cfg.prepare_seed, "g", "desc", 0));
        let again = prepare_graph(&s.graph("g").unwrap(), OrderFamily::Descending, seed);
        assert_eq!(again.inverse, a.inverse);
        assert_eq!(again.degrees_by_label, a.degrees_by_label);
        assert_eq!(again.bytes, a.bytes);
        // uniform consumes randomness, still deterministic per seed
        let (u1, _) = s.prepare("g", OrderFamily::Uniform).unwrap();
        let useed = prepare_seed_for(s.cfg.prepare_seed, "g", "uniform");
        let u2 = prepare_graph(&s.graph("g").unwrap(), OrderFamily::Uniform, useed);
        assert_eq!(u1.inverse, u2.inverse);
    }

    #[test]
    fn lru_evicts_and_gauge_balances() {
        let s = store(2);
        s.register("g", 40, &triangle_fan(40)).unwrap();
        let families = [
            OrderFamily::Descending,
            OrderFamily::Ascending,
            OrderFamily::RoundRobin,
        ];
        for f in families {
            s.prepare("g", f).unwrap();
        }
        let st = s.stats();
        assert_eq!(st.entries, 2, "third prepare evicts the LRU entry");
        assert_eq!(st.evictions, 1);
        assert_eq!(st.bytes, s.gauge().used(), "cache bytes == gauge charge");
        // the evicted (oldest) key misses again; the newest two still hit
        let (_, hit) = s.prepare("g", OrderFamily::RoundRobin).unwrap();
        assert!(hit);
        let (_, hit) = s.prepare("g", OrderFamily::Descending).unwrap();
        assert!(!hit, "descending was the LRU victim");
    }

    #[test]
    fn fixed_bitset_plan_builds_blocks_and_charges_csr() {
        use trilist_core::KernelPolicy;
        let plan = KernelPlan {
            policy: KernelPolicy::bitset(),
            compressed: true,
        };
        let s = GraphStore::new(
            StoreConfig {
                plan: PlanMode::Fixed(plan),
                ..StoreConfig::default()
            },
            MemoryGauge::new(),
        );
        s.register("g", 50, &triangle_fan(50)).unwrap();
        let (entry, _) = s.prepare("g", OrderFamily::Descending).unwrap();
        assert_eq!(entry.plan, plan);
        // the stored plan is internally consistent and by-name addressable
        assert!(KernelPolicy::from_name(entry.plan.policy.name()).is_some());
        assert_eq!(entry.kernels.policy(), entry.plan.policy);
        assert_eq!(entry.csr.is_some(), entry.plan.compressed);
        let csr = entry.csr.as_ref().expect("compressed plan keeps a CSR");
        assert!(csr.bytes() > 0);
        // the default-plan entry for the same graph is strictly smaller:
        // the compressed layout and bitset blocks are extra residency,
        // and all of it lands on the gauge
        let seed = prepare_seed_for(s.cfg.prepare_seed, "g", "desc");
        let plain = prepare_graph(&s.graph("g").unwrap(), OrderFamily::Descending, seed);
        assert!(plain.csr.is_none());
        assert!(entry.bytes > plain.bytes);
        assert_eq!(s.gauge().used(), entry.bytes);
        // drop the entry: every byte comes back
        s.register("g", 10, &triangle_fan(10)).unwrap();
        assert_eq!(s.gauge().used(), 0);
    }

    #[test]
    fn autotune_mode_caches_plan_and_records_counters() {
        use trilist_core::InMemoryRecorder;
        let recorder = Arc::new(InMemoryRecorder::new());
        let s = GraphStore::new(
            StoreConfig {
                plan: PlanMode::Autotune { rounds: 0 },
                ..StoreConfig::default()
            },
            MemoryGauge::new(),
        )
        .with_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
        s.register("g", 60, &triangle_fan(60)).unwrap();
        let a = s.listing_plan("g").unwrap();
        let b = s.listing_plan("g").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "plan computed once, then cached");
        assert!(a.evaluations > 0);
        assert_eq!(recorder.counter(Counter::PlanEvaluations), a.evaluations);
        assert_eq!(recorder.counter(Counter::PlanPick), 1);
        let st = s.stats();
        assert_eq!(st.plans, 1);
        assert!(st.plan_bytes > 0);
        assert_eq!(s.gauge().used(), st.plan_bytes, "only the plan is resident");
        // re-registering the graph invalidates its plan and its gauge charge
        s.register("g", 10, &triangle_fan(10)).unwrap();
        assert_eq!(s.stats().plans, 0);
        assert_eq!(s.gauge().used(), 0);
        assert!(s.listing_plan("missing").is_err());
    }

    #[test]
    fn autotune_prepare_pins_the_planned_kernel() {
        let s = GraphStore::new(
            StoreConfig {
                plan: PlanMode::Autotune { rounds: 0 },
                ..StoreConfig::default()
            },
            MemoryGauge::new(),
        );
        s.register("g", 60, &triangle_fan(60)).unwrap();
        let summary = s.listing_plan("g").unwrap();
        let (entry, _) = s.prepare("g", summary.plan.ordering).unwrap();
        assert_eq!(entry.plan, summary.plan.kernel_plan());
        // reference-profile planning is deterministic: a fresh store
        // reproduces the identical summary
        let s2 = GraphStore::new(
            StoreConfig {
                plan: PlanMode::Autotune { rounds: 0 },
                ..StoreConfig::default()
            },
            MemoryGauge::new(),
        );
        s2.register("g", 60, &triangle_fan(60)).unwrap();
        assert_eq!(*s2.listing_plan("g").unwrap(), *summary);
        // standalone recomputation agrees too
        let again = autotune_plan(&s.graph("g").unwrap(), 0);
        assert_eq!(again, *summary);
    }

    #[test]
    fn byte_cap_can_evict_everything() {
        let s = GraphStore::new(
            StoreConfig {
                max_entries: 8,
                cache_bytes: Some(1),
                ..StoreConfig::default()
            },
            MemoryGauge::new(),
        );
        s.register("g", 30, &triangle_fan(30)).unwrap();
        let (entry, hit) = s.prepare("g", OrderFamily::Descending).unwrap();
        assert!(!hit);
        assert!(entry.dg.n() == 30, "request still served");
        let st = s.stats();
        assert_eq!(st.entries, 0, "1-byte cap cannot hold the entry");
        assert_eq!(s.gauge().used(), 0);
    }

    #[test]
    fn edits_version_epochs_and_fold_delta_windows() {
        let s = store(8);
        s.register("g", 30, &triangle_fan(30)).unwrap();
        assert_eq!(s.latest_epoch("g").unwrap(), 0);
        // insert two chords, remove one of them, re-insert it
        let r1 = s.add_edges("g", &[(5, 9), (7, 20)]).unwrap();
        assert_eq!((r1.epoch, r1.applied), (1, 2));
        assert!(s.graph("g").unwrap().has_edge(5, 9));
        let r2 = s.remove_edges("g", &[(9, 5)]).unwrap();
        assert_eq!(r2.epoch, 2);
        assert!(!s.graph("g").unwrap().has_edge(5, 9));
        let r3 = s.add_edges("g", &[(5, 9)]).unwrap();
        assert_eq!(r3.epoch, 3);
        // validation: whole-batch rejection leaves the epoch untouched
        assert!(matches!(
            s.add_edges("g", &[(5, 9)]),
            Err(StoreError::Delta(DeltaError::AlreadyPresent(5, 9)))
        ));
        assert!(matches!(
            s.remove_edges("g", &[(1, 3)]),
            Err(StoreError::Delta(DeltaError::NotPresent(1, 3)))
        ));
        assert_eq!(s.latest_epoch("g").unwrap(), 3);
        // the full window folds the remove/re-insert away
        let (new, gone) = s.delta_edges("g", 0, 3).unwrap();
        assert_eq!(new, vec![(5, 9), (7, 20)]);
        assert!(gone.is_empty());
        // a sub-window sees the transient remove
        let (new, gone) = s.delta_edges("g", 1, 2).unwrap();
        assert!(new.is_empty());
        assert_eq!(gone, vec![(5, 9)]);
        assert!(s.delta_edges("g", 2, 9).is_err());
        // historical materialization matches the epoch's definition
        let at1 = s.graph_at("g", Some(1)).unwrap();
        assert!(at1.has_edge(5, 9) && at1.has_edge(7, 20));
        let at2 = s.graph_at("g", Some(2)).unwrap();
        assert!(!at2.has_edge(5, 9));
        // per-epoch prepared entries are distinct keys with distinct seeds
        let (_, hit0, e0) = s.prepare_at("g", OrderFamily::Descending, Some(0)).unwrap();
        let (_, hit3, e3) = s.prepare_at("g", OrderFamily::Descending, None).unwrap();
        assert!(!hit0 && !hit3);
        assert_eq!((e0, e3), (0, 3));
        let st = s.stats();
        assert_eq!(st.delta_runs, 3);
        assert_eq!(st.delta_edges, 4);
        assert!(st.delta_bytes > 0);
        let resting = st.bytes + st.plan_bytes + st.delta_bytes + st.segment_bytes;
        assert_eq!(s.gauge().used(), resting, "gauge covers every residency");
    }

    #[test]
    fn historical_hit_rebuilds_nothing() {
        let s = store(8);
        s.register("g", 30, &triangle_fan(30)).unwrap();
        s.add_edges("g", &[(5, 9)]).unwrap();
        s.add_edges("g", &[(7, 20)]).unwrap();
        let (first, hit, epoch) = s.prepare_at("g", OrderFamily::Descending, Some(1)).unwrap();
        assert!(!hit);
        assert_eq!(epoch, 1);
        // Swap the only segment that can serve epoch 1 for a base that
        // already holds the edge epoch 1 inserts: rebuilding epoch 1 from
        // it now panics, so only a probe-first hit can answer.
        lock(&s.inner).graphs.get_mut("g").unwrap().segments[0].graph =
            Arc::new(Graph::from_edges(30, &[(5, 9)]).unwrap());
        let (again, hit, _) = s.prepare_at("g", OrderFamily::Descending, Some(1)).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &again), "the hit is the cached entry");
        let rebuild =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.graph_at("g", Some(1))));
        assert!(
            rebuild.is_err(),
            "the swapped segment cannot rebuild epoch 1"
        );
    }

    #[test]
    fn compaction_is_invisible_to_pins_and_balances_the_gauge() {
        let s = store(8);
        s.register("g", 40, &triangle_fan(40)).unwrap();
        s.add_edges("g", &[(3, 17), (9, 25)]).unwrap();
        s.add_edges("g", &[(11, 30)]).unwrap();
        let pin = s.pin("g", Some(1)).unwrap();
        assert_eq!(pin.epoch(), 1);
        assert_eq!(s.stats().epoch_pins, 1);
        let before = s.graph_at("g", Some(1)).unwrap();
        let (prep_before, _, _) = s.prepare_at("g", OrderFamily::Descending, Some(1)).unwrap();
        // compact at epoch 2, then edit on top of the compacted base
        let report = s.compact_now("g").unwrap();
        assert!(report.compacted);
        assert_eq!(report.epoch, 2);
        let again = s.compact_now("g").unwrap();
        assert!(!again.compacted, "latest epoch already compacted");
        s.remove_edges("g", &[(3, 17)]).unwrap();
        // pinned epoch 1 is untouched: same edges, byte-identical
        // artifacts
        let after = s.graph_at("g", Some(1)).unwrap();
        assert_eq!(before.n(), after.n());
        assert_eq!(before.m(), after.m());
        assert!(after.has_edge(3, 17) && after.has_edge(9, 25));
        assert!(!after.has_edge(11, 30));
        let (prep_after, hit, _) = s.prepare_at("g", OrderFamily::Descending, Some(1)).unwrap();
        assert!(hit, "the pinned epoch's entry survives in cache");
        assert_eq!(prep_before.inverse, prep_after.inverse);
        let st = s.stats();
        assert_eq!(st.retained_segments, 1);
        assert!(st.segment_bytes > 0);
        assert_eq!(st.compactions, 1);
        // dropping the pin GCs nothing here (the segment still serves
        // the latest epoch's lineage) but releases the refcount
        drop(pin);
        assert_eq!(s.stats().epoch_pins, 0);
        let st = s.stats();
        let resting = st.bytes + st.plan_bytes + st.delta_bytes + st.segment_bytes;
        assert_eq!(s.gauge().used(), resting);
        // replacement tears the whole dynamic state down
        s.register("g", 10, &triangle_fan(10)).unwrap();
        assert_eq!(s.gauge().used(), 0, "delta + segment charges released");
        let st = s.stats();
        assert_eq!((st.delta_runs, st.retained_segments), (0, 0));
    }

    #[test]
    fn a_replaced_graphs_pin_does_not_release_the_replacements_pin() {
        let s = store(8);
        s.register("g", 10, &triangle_fan(10)).unwrap();
        let old = s.pin("g", Some(0)).unwrap();
        s.register("g", 10, &triangle_fan(10)).unwrap();
        let new = s.pin("g", Some(0)).unwrap();
        drop(old);
        assert_eq!(s.stats().epoch_pins, 1);
        drop(new);
        assert_eq!(s.stats().epoch_pins, 0);
    }

    #[test]
    fn background_lane_compacts_after_ratio_trip() {
        let s = Arc::new(GraphStore::new(
            StoreConfig {
                compact_ratio: 0.01,
                ..StoreConfig::default()
            },
            MemoryGauge::new(),
        ));
        let handle = GraphStore::start_compactor(&s);
        s.register("g", 30, &triangle_fan(30)).unwrap();
        let receipt = s.add_edges("g", &[(2, 14), (4, 21)]).unwrap();
        assert!(receipt.compacting, "ratio trip nudges the lane");
        // the lane is asynchronous; poll briefly for the segment
        for _ in 0..200 {
            if s.stats().compactions > 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(s.stats().compactions, 1);
        assert_eq!(s.stats().retained_segments, 1);
        drop(handle);
        // after shutdown, edits no longer reach the lane
        let receipt = s.add_edges("g", &[(6, 22)]).unwrap();
        assert!(!receipt.compacting, "lane is gone after shutdown");
    }
}
