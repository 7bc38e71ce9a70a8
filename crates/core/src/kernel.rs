//! Adaptive intersection-kernel selection and the hub-bitmap oracle.
//!
//! The paper's practical claim (§2.3–§2.4, Table 3) is that *elementary-
//! operation speed* decides which listing family wins: scanning
//! intersection beats hash probing iff the op-count ratio `w_n` stays below
//! the hardware speed ratio. That makes the intersection kernel itself the
//! hot path, and modern triangle-listing systems take their headroom
//! exactly there — adaptive kernel selection by list-length ratio and
//! skew-aware hub data structures. This module supplies that layer:
//!
//! * [`KernelPolicy::PaperFaithful`] (the default) routes every
//!   intersection through the branchy two-pointer loop
//!   [`intersect_sorted`] — the kernel whose `advances` the paper's
//!   implementation-level benches describe.
//! * [`KernelPolicy::Adaptive`] picks per call between a branchless-advance
//!   merge, a galloping search (when the length ratio clears
//!   [`AdaptiveConfig::gallop_crossover`]), and O(|short|) word probes
//!   against a [`HubBitmap`] when one side is (a slice of) a high-degree
//!   node's neighbor list.
//!
//! **Accounting contract**: every paper-cost field of
//! [`CostReport`](crate::CostReport) — `local`, `remote`, `lookups`,
//! `hash_inserts`, `triangles` — is computed identically under every
//! policy, because those fields are charged from the *eligible slice
//! lengths* at the call site, never from what the kernel actually did.
//! Only `pointer_advances` (probed positions, a kernel-dependent
//! implementation metric) and wall-clock may differ. Every kernel also
//! emits matches in ascending order, so triangle emission order is
//! policy-independent.
//!
//! # Exactness of bitmap probes on slices
//!
//! A hub row stores the node's *full* out- (or in-) list, while the SEI
//! methods intersect prefixes/suffixes of those lists. Probing element `w`
//! of the other side against the full-list row is exact whenever `w`'s
//! membership in the slice is implied by membership in the full list. The
//! orientation makes this free at every SEI call site: out-lists hold only
//! smaller labels and in-lists only larger ones, so e.g. E1's probes
//! (drawn from `N⁺(y)`, hence `< y`) can never land in the part of
//! `N⁺(z)` at or above `y` that its prefix slice excludes. Call sites
//! assert eligibility by passing the owning node via [`SideOwner`]; a
//! `None` owner (e.g. the external-memory engine's column slices would be
//! wrong-by-construction… they are not: see `xm`) disables the bitmap for
//! that side.

use crate::bitset::{intersect_blocks, BitsetBlocks, BlockView};
use crate::intersect::{intersect_branchless, intersect_gallop, intersect_sorted, ScanStats};
use crate::obs::{Counter, Recorder};
use crate::oracle::EdgeOracle;
use crate::source::GraphSource;
use crate::Method;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use trilist_order::{DirectedGraph, OrderFamily, OrderingKind};

/// Per-kernel-variant dispatch tallies, accumulated by a metered
/// [`Kernels`] and flushed into a [`Recorder`] once its writer is done.
///
/// A meter has exactly one writer. The runtime gives every worker its own
/// meter on its own clone of the run's context (a clone shares the kernel
/// structures and copies no rows), so a tally is a relaxed load and store
/// of the worker's own cache line: no `lock`-prefixed read-modify-write on
/// the per-intersection path, and no line shared with another worker.
/// The fields are atomics only so a metered context stays `Sync`; two
/// threads intersecting through one metered context would lose tallies
/// (never results). An unmetered context (`meter: None`, the default
/// everywhere) costs a single predictable branch per intersection.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct KernelMeter {
    paper: AtomicU64,
    branchless: AtomicU64,
    gallop: AtomicU64,
    bitmap: AtomicU64,
    bitset: AtomicU64,
    gallop_steps: AtomicU64,
    bitmap_probes: AtomicU64,
    bitset_words: AtomicU64,
}

impl KernelMeter {
    /// A fresh meter with all tallies zero.
    pub fn new() -> Self {
        KernelMeter::default()
    }

    /// Single-writer add: a plain load and store, not a locked RMW.
    #[inline]
    fn bump(field: &AtomicU64, n: u64) {
        field.store(
            field.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    }

    /// Drains every tally into `rec` (the tallies reset to zero), so one
    /// meter can be flushed repeatedly without double counting. Call it
    /// between the writer's intersections — the runtime flushes each
    /// worker's meter after the workers join.
    pub fn flush_into(&self, rec: &dyn Recorder) {
        let pairs = [
            (&self.paper, Counter::IntersectPaper),
            (&self.branchless, Counter::IntersectBranchless),
            (&self.gallop, Counter::IntersectGallop),
            (&self.bitmap, Counter::IntersectBitmap),
            (&self.bitset, Counter::IntersectBitset),
            (&self.gallop_steps, Counter::GallopSteps),
            (&self.bitmap_probes, Counter::BitmapProbes),
            (&self.bitset_words, Counter::BitsetBlockSteps),
        ];
        for (field, counter) in pairs {
            let v = field.load(Ordering::Relaxed);
            field.store(0, Ordering::Relaxed);
            if v > 0 {
                rec.add(counter, v);
            }
        }
    }
}

/// Picks the tallies one routed call feeds: its variant's call count and,
/// for variants that count probes, its probe count.
type Tallies = fn(&KernelMeter) -> (&AtomicU64, Option<&AtomicU64>);

/// Which neighbor list of a node backs a bitmap row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ListDir {
    /// The out-list `N⁺(v)` (labels `< v`).
    Out,
    /// The in-list `N⁻(v)` (labels `> v`).
    In,
}

/// Bitmap eligibility of one intersection side: `Some((v, dir))` asserts
/// that the slice is a sub-slice of `dir`-list(`v`) *and* that every
/// element of the other side that belongs to the full list also lies in
/// the slice (the exactness condition above).
pub type SideOwner = Option<(u32, ListDir)>;

/// Tuning knobs for [`KernelPolicy::Adaptive`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveConfig {
    /// Gallop when `|long| >= gallop_crossover * |short|`. The shipped
    /// default is the crossover the retired `kernel_matrix` sweep measured
    /// (EXPERIMENTS.md); on new hardware re-measure with `--bin table3` and
    /// perfbench's `batch_matrix` (`kernel.ns_per_op.*`).
    pub gallop_crossover: u32,
    /// Nodes whose directional degree is at least this get a bitmap row.
    pub hub_degree_threshold: u32,
    /// Memory bound: at most this many rows per direction (top-degree
    /// nodes win ties). Each row costs `⌈n/64⌉` words.
    pub max_hubs: usize,
}

impl Default for AdaptiveConfig {
    /// Tuned on Pareto α = 1.5 at n = 10⁵ by the retired `kernel_matrix` sweep:
    /// crossover 4 (3–6 measured equivalent, 8 already slower), threshold
    /// 16 with an 8192-row budget (≈100 MB/direction at n = 10⁵ — halve
    /// `max_hubs` twice for a quarter of the memory at ~0.75× of the
    /// speedup; see EXPERIMENTS.md).
    fn default() -> Self {
        AdaptiveConfig {
            gallop_crossover: 4,
            hub_degree_threshold: 16,
            max_hubs: 8192,
        }
    }
}

/// Tuning knobs for [`KernelPolicy::Bitset`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BitsetConfig {
    /// Run the blocked word kernel only when *both* eligible slices have at
    /// least this many elements — tiny intersections are cheaper as merges
    /// than as block-view setup.
    pub min_short: u32,
    /// Density gate: take the block path only when the slices carry at
    /// least this many labels per full-list block on average
    /// (`(|a| + |b|) ≥ min_density × (node_blocks_a + node_blocks_b)`).
    /// A block step (base merge + masked AND + popcount) costs several
    /// times a branchless-merge element step, so sparse encodings — ~1
    /// label per 64-label block — must fall back or the word kernel
    /// *loses*. Full-list block totals are O(1) reads, so the gate
    /// rejects sparse pairs before any view is built.
    pub min_density: u32,
    /// Dispatch used when a side has no [`SideOwner`] (so no block
    /// encoding applies), or when a slice fails the `min_short` /
    /// `min_density` gates. Also selects the hub-bitmap rows the context
    /// still builds — the vertex iterators' `BitmapOracle` path rides on
    /// those rows under every non-paper policy.
    pub fallback: AdaptiveConfig,
}

impl Default for BitsetConfig {
    /// `min_short` 16 and `min_density` 4: below either, block-view
    /// setup (two binary searches plus boundary masking) and the
    /// ~2–3 ns/block merge walk cost more than the branchless merge they
    /// replace. Measured by the retired `kernel_matrix` sweep (EXPERIMENTS.md);
    /// re-measure with perfbench's `batch_matrix` (`kernel.ns_per_op.*.bitset.*`).
    fn default() -> Self {
        BitsetConfig {
            min_short: 16,
            min_density: 4,
            fallback: AdaptiveConfig::default(),
        }
    }
}

/// How intersections and oracle probes are executed (never how they are
/// *accounted* — see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelPolicy {
    /// The paper's branchy two-pointer scan everywhere. Default, so cost
    /// reproduction stays byte-for-byte comparable with the seed.
    #[default]
    PaperFaithful,
    /// Branchless merge / gallop / hub-bitmap probes, selected per call.
    Adaptive(AdaptiveConfig),
    /// Blocked `u64`-word bitset intersection when both sides are owned
    /// slices of encoded lists, falling back to adaptive dispatch
    /// otherwise.
    Bitset(BitsetConfig),
}

impl KernelPolicy {
    /// `Adaptive` with default tuning.
    pub fn adaptive() -> Self {
        KernelPolicy::Adaptive(AdaptiveConfig::default())
    }

    /// `Bitset` with default tuning.
    pub fn bitset() -> Self {
        KernelPolicy::Bitset(BitsetConfig::default())
    }

    /// Short display name for tables and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            KernelPolicy::PaperFaithful => "paper",
            KernelPolicy::Adaptive(_) => "adaptive",
            KernelPolicy::Bitset(_) => "bitset",
        }
    }

    /// Inverse of [`KernelPolicy::name`] (with default tuning):
    /// `"paper"` / `"adaptive"` / `"bitset"`. Used by wire protocols and
    /// CLI flags.
    pub fn from_name(name: &str) -> Option<KernelPolicy> {
        match name {
            "paper" => Some(KernelPolicy::PaperFaithful),
            "adaptive" => Some(KernelPolicy::adaptive()),
            "bitset" => Some(KernelPolicy::bitset()),
            _ => None,
        }
    }

    /// The knobs this policy selects hub rows with: the `Adaptive` config
    /// or the `Bitset` fallback; `None` for the paper kernel.
    fn hub_config(&self) -> Option<AdaptiveConfig> {
        match *self {
            KernelPolicy::PaperFaithful => None,
            KernelPolicy::Adaptive(cfg) => Some(cfg),
            KernelPolicy::Bitset(cfg) => Some(cfg.fallback),
        }
    }

    /// This policy with its hub-row knobs replaced by `hubs`.
    fn with_hub_config(self, hubs: AdaptiveConfig) -> Self {
        match self {
            KernelPolicy::PaperFaithful => self,
            KernelPolicy::Adaptive(_) => KernelPolicy::Adaptive(hubs),
            KernelPolicy::Bitset(cfg) => KernelPolicy::Bitset(BitsetConfig {
                fallback: hubs,
                ..cfg
            }),
        }
    }
}

/// The execution choice for one graph: which kernel policy to run and
/// whether to keep adjacency in the compressed CSR. Pinned by the store's
/// `PlanMode::Fixed` or taken from the autotuner's [`ListingPlan`];
/// consumed by `GraphStore::prepare` (which stores the plan per graph) and
/// by anything that forwards a policy into the runtime. Paper cost fields are
/// plan-invariant by the accounting contract, so a plan only ever moves
/// wall-clock and memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelPlan {
    /// The dispatch policy per-call kernel selection consults.
    pub policy: KernelPolicy,
    /// Run the listing drivers on the delta/varint [`CompressedCsr`]
    /// (trading per-list decode for memory bandwidth) instead of the plain
    /// `u32` CSR.
    ///
    /// [`CompressedCsr`]: crate::compressed::CompressedCsr
    pub compressed: bool,
}

impl Default for KernelPlan {
    /// Adaptive on the plain layout — what every layer runs when no plan
    /// is pinned or autotuned.
    fn default() -> Self {
        KernelPlan {
            policy: KernelPolicy::adaptive(),
            compressed: false,
        }
    }
}

impl KernelPlan {
    /// A plan that pins `policy` on the plain layout.
    pub fn fixed(policy: KernelPolicy) -> Self {
        KernelPlan {
            policy,
            compressed: false,
        }
    }
}

/// The full per-graph execution choice the autotuner emits: which vertex
/// ordering to relabel with, which fundamental method to run when the
/// client does not pin one, and the [`KernelPlan`] underneath. Produced by
/// `trilist-model::plan::rank_plans` inside `GraphStore::prepare`; honored
/// by List/Count requests that leave method/ordering/policy unset; audited
/// over the wire via the `ExplainPlan` frame.
///
/// The paper-cost accounting contract extends unchanged: a `ListingPlan`
/// only moves wall-clock and memory, never the reported paper cost of the
/// `(method, ordering)` it selects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ListingPlan {
    /// The vertex ordering to relabel the graph with (a θ family or a
    /// tailored structural ordering).
    pub ordering: OrderingKind,
    /// The fundamental method to run when the request does not pin one.
    pub method_hint: Method,
    /// The kernel dispatch policy.
    pub policy: KernelPolicy,
    /// Whether to run on the compressed CSR layout.
    pub compressed: bool,
}

impl Default for ListingPlan {
    /// The paper default: E1 under `θ_D` (its Corollary-1 optimal family)
    /// with the default [`KernelPlan`] — the behavior every layer shipped
    /// with before the autotuner existed.
    fn default() -> Self {
        ListingPlan {
            ordering: OrderingKind::Family(OrderFamily::Descending),
            method_hint: Method::E1,
            policy: KernelPolicy::adaptive(),
            compressed: false,
        }
    }
}

impl ListingPlan {
    /// The kernel-level slice of this plan.
    pub fn kernel_plan(&self) -> KernelPlan {
        KernelPlan {
            policy: self.policy,
            compressed: self.compressed,
        }
    }

    /// A full plan wrapping a bare [`KernelPlan`] with the paper-default
    /// ordering and method.
    pub fn from_kernel_plan(plan: KernelPlan) -> Self {
        ListingPlan {
            policy: plan.policy,
            compressed: plan.compressed,
            ..ListingPlan::default()
        }
    }
}

const NO_ROW: u32 = u32::MAX;

/// A `u64`-word bitset over node IDs with one row per high-degree "hub"
/// node, so membership in a hub's neighbor list is a single word probe.
#[derive(Clone, Debug)]
pub struct HubBitmap {
    /// Words per row: `⌈n/64⌉`.
    words: usize,
    /// Node → row index (`NO_ROW` for non-hubs); always length `n`.
    row_of: Vec<u32>,
    /// Row-major bit storage, `hubs.len() * words` words.
    bits: Vec<u64>,
    /// The hub nodes, ascending.
    hubs: Vec<u32>,
}

impl HubBitmap {
    /// Builds rows for every node whose `dir`-degree is at least
    /// `threshold`, keeping only the `max_hubs` highest-degree nodes when
    /// over budget. One pass over the selected lists.
    pub fn build(g: &DirectedGraph, dir: ListDir, threshold: u32, max_hubs: usize) -> Self {
        HubBitmap::build_src(GraphSource::Plain(g), dir, threshold, max_hubs)
    }

    /// [`HubBitmap::build`] over either adjacency layout — hub selection
    /// uses the O(1) degree tables, rows are filled by one streaming pass,
    /// so plain and compressed sources build bit-identical rows.
    pub fn build_src(src: GraphSource<'_>, dir: ListDir, threshold: u32, max_hubs: usize) -> Self {
        let n = src.n();
        let deg = |v: u32| -> usize {
            match dir {
                ListDir::Out => src.x(v),
                ListDir::In => src.y(v),
            }
        };
        let mut hubs: Vec<u32> = (0..n as u32)
            .filter(|&v| deg(v) >= threshold as usize)
            .collect();
        if hubs.len() > max_hubs {
            hubs.sort_unstable_by_key(|&v| std::cmp::Reverse(deg(v)));
            hubs.truncate(max_hubs);
            hubs.sort_unstable();
        }
        let words = n.div_ceil(64);
        let mut row_of = vec![NO_ROW; n];
        let mut bits = vec![0u64; words * hubs.len()];
        for (r, &h) in hubs.iter().enumerate() {
            row_of[h as usize] = r as u32;
            let row = &mut bits[r * words..(r + 1) * words];
            let set = |w: u32| row[(w >> 6) as usize] |= 1u64 << (w & 63);
            match dir {
                ListDir::Out => src.for_each_out(h, set),
                ListDir::In => src.for_each_in(h, set),
            }
        }
        HubBitmap {
            words,
            row_of,
            bits,
            hubs,
        }
    }

    /// Predicted [`HubBitmap::bytes`] of a build with these parameters,
    /// without allocating anything — the memory-budget planner's estimate.
    pub fn estimate_bytes(g: &DirectedGraph, dir: ListDir, threshold: u32, max_hubs: usize) -> u64 {
        HubBitmap::estimate_bytes_src(GraphSource::Plain(g), dir, threshold, max_hubs)
    }

    /// [`HubBitmap::estimate_bytes`] over either adjacency layout.
    pub fn estimate_bytes_src(
        src: GraphSource<'_>,
        dir: ListDir,
        threshold: u32,
        max_hubs: usize,
    ) -> u64 {
        let n = src.n();
        let deg = |v: u32| -> usize {
            match dir {
                ListDir::Out => src.x(v),
                ListDir::In => src.y(v),
            }
        };
        let hubs = (0..n as u32)
            .filter(|&v| deg(v) >= threshold as usize)
            .count()
            .min(max_hubs);
        n.div_ceil(64) as u64 * 8 * hubs as u64
    }

    /// The bit row for `v`, if `v` is a hub.
    #[inline]
    pub fn row(&self, v: u32) -> Option<&[u64]> {
        let r = self.row_of[v as usize];
        if r == NO_ROW {
            None
        } else {
            Some(&self.bits[r as usize * self.words..(r as usize + 1) * self.words])
        }
    }

    /// The hub nodes, ascending.
    pub fn hubs(&self) -> &[u32] {
        &self.hubs
    }

    /// Bitmap memory footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

#[inline]
fn row_has(row: &[u64], x: u32) -> bool {
    row[(x >> 6) as usize] & (1u64 << (x & 63)) != 0
}

/// Probes every element of `probe` against a hub row, delivering hits in
/// `probe` order (ascending). `advances` = word probes = `|probe|`.
#[inline]
fn probe_bitmap<F: FnMut(u32)>(probe: &[u32], row: &[u64], mut sink: F) -> ScanStats {
    let mut matches = 0u64;
    for &x in probe {
        if row_has(row, x) {
            matches += 1;
            sink(x);
        }
    }
    ScanStats {
        advances: probe.len() as u64,
        matches,
    }
}

/// The kernel-selection context for one oriented graph: the policy plus
/// (for `Adaptive`) the out- and in-direction hub bitmaps, and (for
/// `Bitset`) the block encodings.
///
/// Cheap to construct for `PaperFaithful`; for `Adaptive` the build costs
/// one pass over the hub lists. Immutable after construction, and the
/// heavy structures sit behind `Arc`s, so a clone costs a few refcount
/// bumps and copies no rows: a run builds (or borrows from a cache) one
/// context, and every worker executes a clone of it carrying the worker's
/// own [`KernelMeter`].
#[derive(Clone, Debug)]
pub struct Kernels {
    policy: KernelPolicy,
    out_bits: Option<Arc<HubBitmap>>,
    in_bits: Option<Arc<HubBitmap>>,
    out_blocks: Option<Arc<BitsetBlocks>>,
    in_blocks: Option<Arc<BitsetBlocks>>,
    meter: Option<Arc<KernelMeter>>,
}

impl Kernels {
    /// The paper-faithful context (no bitmaps, branchy scan everywhere).
    pub fn paper() -> Self {
        Kernels::scan_only(KernelPolicy::PaperFaithful)
    }

    /// Builds the context for `policy` over `g` (bitmaps under `Adaptive`;
    /// bitmaps + block encodings under `Bitset`).
    pub fn build(policy: KernelPolicy, g: &DirectedGraph) -> Self {
        Kernels::build_src(policy, GraphSource::Plain(g))
    }

    /// [`Kernels::build`] over either adjacency layout. Both layouts
    /// stream identical lists, so they build bit-identical contexts —
    /// which is what keeps `pointer_advances` byte-identical across
    /// plain/compressed runs under every policy.
    pub fn build_src(policy: KernelPolicy, src: GraphSource<'_>) -> Self {
        Kernels::borrow_within_src(policy, None, src, None).0
    }

    /// Builds the largest context for `policy` that fits inside
    /// `allowance` bytes of kernel memory (`None` = unlimited, plain
    /// [`Kernels::build`]): [`Kernels::borrow_within_src`] with nothing to
    /// borrow.
    pub fn build_within(policy: KernelPolicy, g: &DirectedGraph, allowance: Option<u64>) -> Self {
        Kernels::borrow_within_src(policy, None, GraphSource::Plain(g), allowance).0
    }

    /// The context a run of `policy` executes on top of `base`, and the
    /// bytes it built — all the run must charge.
    ///
    /// The run shares every structure of `base` that `policy` would build
    /// with identical parameters: the hub rows when both select them with
    /// the same `hub_degree_threshold` and `max_hubs` (an `Adaptive`
    /// config or a `Bitset` fallback), the block encodings when both are
    /// `Bitset`. It builds only the rest, inside `allowance` (`None` =
    /// unlimited), where a shared structure costs nothing. A shared
    /// structure is the very allocation `base` holds, and it is what the
    /// same deterministic pass would build again, so results,
    /// `pointer_advances` and the dispatch tallies equal those of a run
    /// that builds its own context. A paper-faithful run borrows and
    /// builds nothing. `base` must describe the same graph as `src`.
    ///
    /// The degradation ladder, the only place kernel memory degrades: halve
    /// `max_hubs` until the estimated footprint of what is not shared
    /// ([`HubBitmap::estimate_bytes`] and [`BitsetBlocks::estimate_bytes`],
    /// both directions) fits. A borrowed structure survives every rung:
    /// once the rows are the base's, only unshared block encodings can give
    /// way, and the run keeps the rows without them, so its pairs take the
    /// adaptive fallback and it builds nothing. Otherwise an `Adaptive`
    /// context without rows, or a `Bitset` one whose blocks alone exceed
    /// the allowance, keeps the policy with scan dispatch only. Every
    /// paper-cost field is unaffected by construction (the accounting
    /// contract in the module docs); `pointer_advances` is not.
    pub fn borrow_within_src(
        policy: KernelPolicy,
        base: Option<&Kernels>,
        src: GraphSource<'_>,
        allowance: Option<u64>,
    ) -> (Self, u64) {
        let Some(mut cfg) = policy.hub_config() else {
            return (Kernels::paper(), 0);
        };
        let bitset = matches!(policy, KernelPolicy::Bitset(_));
        let mut build_blocks = bitset;
        let shared_rows = |cfg: AdaptiveConfig| {
            let base = base?;
            let had = base.policy.hub_config()?;
            let same = (had.hub_degree_threshold, had.max_hubs)
                == (cfg.hub_degree_threshold, cfg.max_hubs);
            same.then(|| base.out_bits.clone().zip(base.in_bits.clone()))?
        };
        let shared_blocks = base
            .filter(|_| bitset)
            .and_then(|b| b.out_blocks.clone().zip(b.in_blocks.clone()));
        let dirs = [ListDir::Out, ListDir::In];
        if let Some(budget) = allowance {
            let blocks_need = match shared_blocks {
                None if bitset => dirs
                    .map(|d| BitsetBlocks::estimate_bytes(src, d))
                    .iter()
                    .sum(),
                _ => 0,
            };
            let rows_need = |cfg: AdaptiveConfig| match shared_rows(cfg) {
                Some(_) => 0,
                None => dirs
                    .map(|d| {
                        HubBitmap::estimate_bytes_src(
                            src,
                            d,
                            cfg.hub_degree_threshold,
                            cfg.max_hubs,
                        )
                    })
                    .iter()
                    .sum::<u64>(),
            };
            // halve the hub rows until they fit beside the blocks; borrowed
            // rows are never shed, so beside them the unshared blocks give
            // way; an adaptive context without rows, or a bitset one whose
            // blocks alone overflow, keeps only scan dispatch
            loop {
                if !bitset && cfg.max_hubs == 0 {
                    return (Kernels::scan_only(policy), 0);
                }
                if blocks_need + rows_need(cfg) <= budget {
                    break;
                }
                if shared_rows(cfg).is_some() {
                    build_blocks = false;
                    break;
                }
                if cfg.max_hubs == 0 {
                    return (Kernels::scan_only(policy), 0);
                }
                cfg.max_hubs /= 2;
            }
        }
        let mut built = 0;
        let (out_bits, in_bits) = shared_rows(cfg).unwrap_or_else(|| {
            let [out, inn] =
                dirs.map(|d| HubBitmap::build_src(src, d, cfg.hub_degree_threshold, cfg.max_hubs));
            built += (out.bytes() + inn.bytes()) as u64;
            (Arc::new(out), Arc::new(inn))
        });
        let (out_blocks, in_blocks) = match shared_blocks {
            Some((out, inn)) => (Some(out), Some(inn)),
            None if build_blocks => {
                let [out, inn] = dirs.map(|d| BitsetBlocks::build_src(src, d));
                built += out.bytes() + inn.bytes();
                (Some(Arc::new(out)), Some(Arc::new(inn)))
            }
            None => (None, None),
        };
        let kernels = Kernels {
            // the hub rows also serve the vertex iterators' BitmapOracle
            // probes under a bitset policy
            out_bits: Some(out_bits),
            in_bits: Some(in_bits),
            out_blocks,
            in_blocks,
            ..Kernels::scan_only(policy.with_hub_config(cfg))
        };
        (kernels, built)
    }

    /// A context with adaptive merge/gallop selection but no bitmaps or
    /// block encodings — for callers intersecting lists that are not
    /// neighbor lists of an oriented graph (the unoriented baselines), and
    /// the terminal rung of the memory-degradation ladder.
    pub fn scan_only(policy: KernelPolicy) -> Self {
        Kernels {
            policy,
            out_bits: None,
            in_bits: None,
            out_blocks: None,
            in_blocks: None,
            meter: None,
        }
    }

    /// Attaches a dispatch meter: subsequent intersections, labelled or
    /// label-free, tally which kernel variant ran (and its probe counts)
    /// into `meter`. Metering is pure observation — dispatch
    /// decisions and results are unchanged.
    pub fn with_meter(mut self, meter: Arc<KernelMeter>) -> Self {
        self.meter = Some(meter);
        self
    }

    /// A clone for one worker of a run: the same structures (shared, not
    /// copied) with `meter` — the worker's own, or none — in place of any
    /// meter this context carries, so no meter ever has two writers.
    pub(crate) fn for_worker(&self, meter: Option<Arc<KernelMeter>>) -> Self {
        Kernels {
            meter,
            ..self.clone()
        }
    }

    /// The attached dispatch meter, if any.
    pub fn meter(&self) -> Option<&Arc<KernelMeter>> {
        self.meter.as_ref()
    }

    /// The policy this context executes.
    pub fn policy(&self) -> KernelPolicy {
        self.policy
    }

    /// The out-direction hub bitmap, when built.
    pub fn out_bitmaps(&self) -> Option<&HubBitmap> {
        self.out_bits.as_deref()
    }

    /// Kernel memory held by this context — hub bitmaps plus bitset block
    /// encodings — in bytes. A memory budget charges it once per build;
    /// clones share the structures and add nothing.
    pub fn bytes(&self) -> u64 {
        self.out_bits.as_ref().map_or(0, |b| b.bytes() as u64)
            + self.in_bits.as_ref().map_or(0, |b| b.bytes() as u64)
            + self.out_blocks.as_ref().map_or(0, |b| b.bytes())
            + self.in_blocks.as_ref().map_or(0, |b| b.bytes())
    }

    /// The out-direction block encoding, when built.
    pub fn out_blocks(&self) -> Option<&BitsetBlocks> {
        self.out_blocks.as_deref()
    }

    #[inline]
    fn bitmap_row(&self, own: SideOwner) -> Option<&[u64]> {
        let (v, dir) = own?;
        match dir {
            ListDir::Out => self.out_bits.as_deref()?.row(v),
            ListDir::In => self.in_bits.as_deref()?.row(v),
        }
    }

    #[inline]
    fn blocks_for(&self, dir: ListDir) -> Option<&BitsetBlocks> {
        match dir {
            ListDir::Out => self.out_blocks.as_deref(),
            ListDir::In => self.in_blocks.as_deref(),
        }
    }

    /// The routing decision for one pair with both sides non-empty, made
    /// here once for every entry point. `a` is a labelled slice; `b` is
    /// described by its length, its owner and its first and last labels —
    /// read from the slice by [`Kernels::intersect`],
    /// from the block encoding by [`Kernels::intersect_remote`] (`None`
    /// when no encoding covers `b`, which closes the block route). The
    /// bounds are asked for only once the block gates pass, so a pair
    /// routed elsewhere never touches `b`'s encoding.
    ///
    /// Always inlined: an outlined call hands the `Route` back through
    /// memory, which costs more than the short intersections it routes.
    #[inline(always)]
    fn route(
        &self,
        a: &[u32],
        a_own: SideOwner,
        b_len: usize,
        b_own: SideOwner,
        b_bounds: impl FnOnce() -> Option<(u32, u32)>,
    ) -> Route<'_> {
        let cfg = match self.policy {
            KernelPolicy::PaperFaithful => return Route::Paper,
            KernelPolicy::Adaptive(cfg) => cfg,
            KernelPolicy::Bitset(bcfg) => {
                'blocks: {
                    if a.len().min(b_len) < bcfg.min_short as usize {
                        break 'blocks;
                    }
                    let (Some((va, da)), Some((vb, db))) = (a_own, b_own) else {
                        break 'blocks;
                    };
                    let (Some(ba), Some(bb)) = (self.blocks_for(da), self.blocks_for(db)) else {
                        break 'blocks;
                    };
                    // density gate on the O(1) full-list block totals:
                    // sparse encodings walk ~1 label per block and lose to
                    // the merge fallback, and gating here rejects them
                    // before any view is built
                    if a.len() + b_len
                        < bcfg.min_density as usize * (ba.node_blocks(va) + bb.node_blocks(vb))
                    {
                        break 'blocks;
                    }
                    let Some((b0, bl)) = b_bounds() else {
                        break 'blocks;
                    };
                    let (a0, al) = (a[0], a[a.len() - 1]);
                    // value ranges disjoint → no common element, skip view
                    // setup
                    if a0 > bl || b0 > al {
                        return Route::Empty;
                    }
                    // each view is bounded to its *own* slice's closed
                    // value range: a view then represents its slice
                    // exactly, so the merge of the two views is exactly
                    // the slice intersection. (Narrowing both sides to the
                    // range overlap would also be exact, but costs
                    // interior binary searches on every call; own-range
                    // bounds coincide with list ends for full lists,
                    // prefixes, and suffixes — the hot shapes — and the
                    // block merge skips non-overlapping bases at one
                    // branchless step each.)
                    return match (ba.view(va, a0, al), bb.view(vb, b0, bl)) {
                        (Some(x), Some(y)) => Route::Blocks(x, y),
                        _ => Route::Empty,
                    };
                }
                bcfg.fallback
            }
        };
        let a_short = a.len() <= b_len;
        let (short_own, long_own) = if a_short {
            (a_own, b_own)
        } else {
            (b_own, a_own)
        };
        // a hub row on the longer side turns the whole intersection into
        // |short| word probes; a row on the shorter side still beats any
        // scan (|long| probes < |short| + |long| advances)
        if let Some(row) = self.bitmap_row(long_own) {
            return Route::Row {
                row,
                probe_a: a_short,
            };
        }
        if let Some(row) = self.bitmap_row(short_own) {
            return Route::Row {
                row,
                probe_a: !a_short,
            };
        }
        let (short, long) = if a_short {
            (a.len(), b_len)
        } else {
            (b_len, a.len())
        };
        if long as u64 >= cfg.gallop_crossover as u64 * short as u64 {
            Route::Gallop { a_short }
        } else {
            Route::Branchless { a_short }
        }
    }

    /// Executes `route` on `a`/`b`, delivering matches to `sink`, and
    /// tallies it on the meter. Each arm names its own tallies: a second
    /// dispatch on the route after the kernel measured slower.
    #[inline]
    fn run<F: FnMut(u32)>(&self, route: Route<'_>, a: &[u32], b: &[u32], sink: F) -> ScanStats {
        let ordered = |a_short| if a_short { (a, b) } else { (b, a) };
        // counts the call on the first tally and, if there is a second,
        // the probes the kernel made on it
        let tally = |pick: Tallies, stats: ScanStats| {
            if let Some(m) = &self.meter {
                let (calls, steps) = pick(m);
                KernelMeter::bump(calls, 1);
                if let Some(steps) = steps {
                    KernelMeter::bump(steps, stats.advances);
                }
            }
            stats
        };
        match route {
            Route::Paper => tally(|m| (&m.paper, None), intersect_sorted(a, b, sink)),
            Route::Empty => tally(|m| (&m.bitset, None), ScanStats::default()),
            Route::Blocks(va, vb) => tally(
                |m| (&m.bitset, Some(&m.bitset_words)),
                intersect_blocks(va, vb, sink),
            ),
            Route::Row { row, probe_a } => tally(
                |m| (&m.bitmap, Some(&m.bitmap_probes)),
                probe_bitmap(if probe_a { a } else { b }, row, sink),
            ),
            Route::Gallop { a_short } => {
                let (short, long) = ordered(a_short);
                tally(
                    |m| (&m.gallop, Some(&m.gallop_steps)),
                    intersect_gallop(short, long, sink),
                )
            }
            Route::Branchless { a_short } => {
                let (short, long) = ordered(a_short);
                tally(
                    |m| (&m.branchless, None),
                    intersect_branchless(short, long, sink),
                )
            }
        }
    }

    // Kept apart from `intersect_remote`: folding it in measured slower
    // on compressed E1 (in-process listing loop, 2 vCPUs).
    #[inline]
    fn label_free<F: FnMut(u32)>(
        &self,
        a: &[u32],
        a_own: SideOwner,
        (v, dir): (u32, ListDir),
        b_len: usize,
        sink: F,
    ) -> Option<ScanStats> {
        if a.is_empty() || b_len == 0 {
            return Some(ScanStats::default());
        }
        let b_bounds = || self.blocks_for(dir)?.label_bounds(v);
        let route = self.route(a, a_own, b_len, Some((v, dir)), b_bounds);
        // a route that never reads `b` runs on an empty stand-in
        (!route.reads_b()).then(|| self.run(route, a, &[], sink))
    }

    /// Intersects two ascending-sorted slices under the policy, invoking
    /// `sink` on each common element in ascending order. `a_own`/`b_own`
    /// declare bitmap eligibility (see [`SideOwner`]).
    #[inline]
    pub fn intersect<F: FnMut(u32)>(
        &self,
        a: &[u32],
        a_own: SideOwner,
        b: &[u32],
        b_own: SideOwner,
        sink: F,
    ) -> ScanStats {
        if a.is_empty() || b.is_empty() {
            return ScanStats::default();
        }
        let route = self.route(a, a_own, b.len(), b_own, || Some((b[0], b[b.len() - 1])));
        self.run(route, a, b, sink)
    }

    /// Label-free intersection for compressed sources: answers the pair
    /// without the remote side's labels when the route allows, so the
    /// caller can skip decoding the remote list. `b_own`/`b_len` describe
    /// the remote side, which must be the owner's *entire* `b_own.1`-list
    /// (its block encoding and hub row stand in for the labels, so a
    /// sub-slice would be wrong).
    ///
    /// Takes the same route [`Kernels::intersect`] takes on the decoded
    /// list, and returns `None` exactly when that route reads the remote
    /// labels; the caller then decodes and calls `intersect`. Either way
    /// `advances` — and therefore the `CostReport` — is byte-identical to
    /// the plain-layout run.
    pub fn intersect_remote<F: FnMut(u32)>(
        &self,
        a: &[u32],
        a_own: SideOwner,
        b_own: (u32, ListDir),
        b_len: usize,
        sink: F,
    ) -> Option<ScanStats> {
        self.label_free(a, a_own, b_own, b_len, sink)
    }
}

/// One intersection's kernel choice, made by [`Kernels::route`].
#[derive(Clone, Copy)]
enum Route<'k> {
    /// The paper's branchy two-pointer scan.
    Paper,
    /// Block-eligible, and the slices' value ranges share no label.
    Empty,
    /// The blocked word kernel over bounded views of both slices.
    Blocks(BlockView<'k>, BlockView<'k>),
    /// Word probes of one side's labels (`a`'s iff `probe_a`) against
    /// the other side's hub row.
    Row { row: &'k [u64], probe_a: bool },
    /// Galloping search of the shorter side into the longer.
    Gallop { a_short: bool },
    /// Branchless merge of the shorter side against the longer.
    Branchless { a_short: bool },
}

impl Route<'_> {
    /// Whether running this route reads `b`'s labels.
    #[inline]
    fn reads_b(&self) -> bool {
        match *self {
            Route::Empty | Route::Blocks(..) => false,
            Route::Row { probe_a, .. } => !probe_a,
            Route::Paper | Route::Gallop { .. } | Route::Branchless { .. } => true,
        }
    }
}

/// An [`EdgeOracle`] that answers hub probes from the out-direction
/// [`HubBitmap`] (one word read) and falls back to `base` for everything
/// else. Used by the vertex and lookup iterators under
/// [`KernelPolicy::Adaptive`]: `has(from, to)` is exactly "`to ∈ N⁺(from)`",
/// which is what a `from`-row stores.
pub struct BitmapOracle<'a, O: EdgeOracle> {
    base: &'a O,
    bits: &'a HubBitmap,
    probes: AtomicU64,
}

impl<'a, O: EdgeOracle> BitmapOracle<'a, O> {
    /// Wraps a base oracle with hub rows.
    pub fn new(base: &'a O, bits: &'a HubBitmap) -> Self {
        BitmapOracle {
            base,
            bits,
            probes: AtomicU64::new(0),
        }
    }
}

impl<O: EdgeOracle> EdgeOracle for BitmapOracle<'_, O> {
    #[inline]
    fn has(&self, from: u32, to: u32) -> bool {
        match self.bits.row(from) {
            Some(row) => row_has(row, to),
            None => self.base.has(from, to),
        }
    }

    #[inline]
    fn has_counted(&self, from: u32, to: u32) -> bool {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.has(from, to)
    }

    fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    fn build_cost(&self) -> u64 {
        self.base.build_cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::HashOracle;
    use rand::{Rng, SeedableRng};
    use trilist_graph::Graph;
    use trilist_order::OrderFamily;

    fn random_directed(n: usize, p: f64, seed: u64) -> DirectedGraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.gen_bool(p) {
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(n, &edges).unwrap();
        let r = OrderFamily::Descending.relabeling(&g, &mut rng);
        DirectedGraph::orient(&g, &r)
    }

    #[test]
    fn hub_bitmap_rows_match_lists() {
        let dg = random_directed(60, 0.4, 1);
        type ListFn = fn(&DirectedGraph, u32) -> &[u32];
        let cases: [(ListDir, ListFn); 2] = [
            (ListDir::Out, |g, v| g.out(v)),
            (ListDir::In, |g, v| g.in_(v)),
        ];
        for (dir, list) in cases {
            let bm = HubBitmap::build(&dg, dir, 0, usize::MAX);
            assert_eq!(bm.hubs().len(), dg.n());
            for v in 0..dg.n() as u32 {
                let row = bm.row(v).expect("threshold 0 makes every node a hub");
                for w in 0..dg.n() as u32 {
                    assert_eq!(
                        row_has(row, w),
                        list(&dg, v).contains(&w),
                        "{dir:?} {v}->{w}"
                    );
                }
            }
        }
    }

    #[test]
    fn hub_selection_respects_threshold_and_budget() {
        let dg = random_directed(80, 0.3, 2);
        let bm = HubBitmap::build(&dg, ListDir::Out, 5, usize::MAX);
        for v in 0..dg.n() as u32 {
            assert_eq!(bm.row(v).is_some(), dg.x(v) >= 5, "node {v}");
        }
        let capped = HubBitmap::build(&dg, ListDir::Out, 0, 7);
        assert_eq!(capped.hubs().len(), 7);
        // the budget keeps the highest-degree nodes
        let min_kept = capped.hubs().iter().map(|&v| dg.x(v)).min().unwrap();
        let dropped_max = (0..dg.n() as u32)
            .filter(|v| capped.row(*v).is_none())
            .map(|v| dg.x(v))
            .max()
            .unwrap_or(0);
        assert!(
            min_kept >= dropped_max,
            "kept {min_kept} < dropped {dropped_max}"
        );
        assert_eq!(capped.bytes(), 7 * dg.n().div_ceil(64) * 8);
    }

    #[test]
    fn adaptive_intersect_agrees_with_paper_on_all_dispatch_paths() {
        let dg = random_directed(120, 0.25, 3);
        let paper = Kernels::paper();
        // sweep configs that force each dispatch path: bitmap-everything,
        // gallop-always, merge-always
        let configs = [
            AdaptiveConfig {
                gallop_crossover: 1,
                hub_degree_threshold: 0,
                max_hubs: usize::MAX,
            },
            AdaptiveConfig {
                gallop_crossover: 1,
                hub_degree_threshold: u32::MAX,
                max_hubs: 0,
            },
            AdaptiveConfig {
                gallop_crossover: u32::MAX,
                hub_degree_threshold: u32::MAX,
                max_hubs: 0,
            },
            AdaptiveConfig::default(),
        ];
        for cfg in configs {
            let k = Kernels::build(KernelPolicy::Adaptive(cfg), &dg);
            for z in 0..dg.n() as u32 {
                let out = dg.out(z);
                for (j, &y) in out.iter().enumerate() {
                    let local = &out[..j];
                    let remote = dg.out(y);
                    let mut want = Vec::new();
                    let sp = paper.intersect(local, None, remote, None, |x| want.push(x));
                    let mut got = Vec::new();
                    let sa = k.intersect(
                        local,
                        Some((z, ListDir::Out)),
                        remote,
                        Some((y, ListDir::Out)),
                        |x| got.push(x),
                    );
                    assert_eq!(got, want, "cfg {cfg:?} z={z} y={y}");
                    assert_eq!(sa.matches, sp.matches);
                }
            }
        }
    }

    #[test]
    fn bitmap_oracle_agrees_with_base() {
        let dg = random_directed(70, 0.35, 4);
        let base = HashOracle::build(&dg);
        let bits = HubBitmap::build(&dg, ListDir::Out, 3, usize::MAX);
        let oracle = BitmapOracle::new(&base, &bits);
        for from in 0..dg.n() as u32 {
            for to in 0..dg.n() as u32 {
                assert_eq!(oracle.has(from, to), base.has(from, to), "{from}->{to}");
            }
        }
        assert_eq!(oracle.build_cost(), base.build_cost());
        // counted probes accumulate on the wrapper
        let before = oracle.probes();
        oracle.has_counted(1, 0);
        oracle.has_counted(2, 0);
        assert_eq!(oracle.probes(), before + 2);
    }

    #[test]
    fn build_within_degrades_bitmaps_under_tight_budgets() {
        let dg = random_directed(100, 0.3, 7);
        let policy = KernelPolicy::Adaptive(AdaptiveConfig {
            gallop_crossover: 4,
            hub_degree_threshold: 0,
            max_hubs: usize::MAX,
        });
        // unlimited: full build, estimate matches the actual footprint
        let full = Kernels::build_within(policy, &dg, None);
        let est = HubBitmap::estimate_bytes(&dg, ListDir::Out, 0, usize::MAX)
            + HubBitmap::estimate_bytes(&dg, ListDir::In, 0, usize::MAX);
        assert_eq!(full.bytes(), est);
        assert!(full.bytes() > 0);
        // a halved budget keeps some rows but fewer than the full build
        let half = Kernels::build_within(policy, &dg, Some(est / 2));
        assert!(half.bytes() <= est / 2, "{} > {}", half.bytes(), est / 2);
        assert!(half.out_bitmaps().is_some());
        // a zero budget keeps the scan kernels but drops all bitmaps
        let none = Kernels::build_within(policy, &dg, Some(0));
        assert_eq!(none.bytes(), 0);
        assert!(none.out_bitmaps().is_none());
        assert_eq!(none.policy().name(), "adaptive");
        // intersections still agree with the paper kernel after degrading
        let paper = Kernels::paper();
        for z in 0..dg.n() as u32 {
            let out = dg.out(z);
            for (j, &y) in out.iter().enumerate() {
                let want = paper
                    .intersect(&out[..j], None, dg.out(y), None, |_| {})
                    .matches;
                for k in [&half, &none] {
                    let got = k
                        .intersect(
                            &out[..j],
                            Some((z, ListDir::Out)),
                            dg.out(y),
                            Some((y, ListDir::Out)),
                            |_| {},
                        )
                        .matches;
                    assert_eq!(got, want, "z={z} y={y}");
                }
            }
        }
        // paper policy ignores the budget entirely
        assert_eq!(
            Kernels::build_within(KernelPolicy::PaperFaithful, &dg, Some(0)).bytes(),
            0
        );
    }

    #[test]
    fn meter_tallies_dispatch_without_changing_results() {
        use crate::obs::{Counter, InMemoryRecorder};
        let dg = random_directed(100, 0.3, 11);
        let meter = Arc::new(KernelMeter::new());
        let paper = Kernels::paper();
        let metered = Kernels::build(KernelPolicy::adaptive(), &dg).with_meter(Arc::clone(&meter));
        let rec = InMemoryRecorder::new();
        let mut calls = 0u64;
        for z in 0..dg.n() as u32 {
            let out = dg.out(z);
            for (j, &y) in out.iter().enumerate() {
                let local = &out[..j];
                let remote = dg.out(y);
                if local.is_empty() || remote.is_empty() {
                    continue;
                }
                calls += 1;
                let want = paper.intersect(local, None, remote, None, |_| {}).matches;
                let got = metered
                    .intersect(
                        local,
                        Some((z, ListDir::Out)),
                        remote,
                        Some((y, ListDir::Out)),
                        |_| {},
                    )
                    .matches;
                assert_eq!(got, want, "z={z} y={y}");
            }
        }
        meter.flush_into(&rec);
        let dispatched = rec.counter(Counter::IntersectPaper)
            + rec.counter(Counter::IntersectBranchless)
            + rec.counter(Counter::IntersectGallop)
            + rec.counter(Counter::IntersectBitmap);
        assert_eq!(dispatched, calls, "every non-empty call is tallied once");
        assert_eq!(rec.counter(Counter::IntersectPaper), 0, "adaptive policy");
        // flushing drained the meter: a second flush adds nothing
        meter.flush_into(&rec);
        let again = rec.counter(Counter::IntersectBranchless)
            + rec.counter(Counter::IntersectGallop)
            + rec.counter(Counter::IntersectBitmap);
        assert_eq!(again, dispatched);
        // an unmetered clone of a metered context shares the same meter arc
        assert!(metered.meter().is_some());
        assert!(Kernels::paper().meter().is_none());
    }

    #[test]
    fn metering_never_copies_kernel_memory() {
        let dg = random_directed(90, 0.3, 23);
        for policy in [KernelPolicy::adaptive(), KernelPolicy::bitset()] {
            let k = Kernels::build(policy, &dg);
            let metered = k.clone().with_meter(Arc::new(KernelMeter::new()));
            let worker = k.for_worker(Some(Arc::new(KernelMeter::new())));
            for c in [&metered, &worker] {
                assert!(std::ptr::eq(
                    c.out_bitmaps().expect("hub rows"),
                    k.out_bitmaps().expect("hub rows")
                ));
                assert_eq!(c.out_blocks().is_some(), policy.name() == "bitset");
                if let (Some(a), Some(b)) = (c.out_blocks(), k.out_blocks()) {
                    assert!(std::ptr::eq(a, b), "{}", policy.name());
                }
                assert!(c.meter().is_some());
            }
            // a worker clone never inherits another writer's meter
            assert!(metered.for_worker(None).meter().is_none());
        }
    }

    #[test]
    fn paper_policy_is_default_and_cheap() {
        assert_eq!(KernelPolicy::default(), KernelPolicy::PaperFaithful);
        assert_eq!(KernelPolicy::default().name(), "paper");
        assert_eq!(KernelPolicy::adaptive().name(), "adaptive");
        let k = Kernels::paper();
        assert!(k.out_bitmaps().is_none());
        let s = k.intersect(&[1, 2, 3], None, &[2, 3, 4], None, |_| {});
        assert_eq!(s.matches, 2);
    }

    #[test]
    fn policy_names_round_trip() {
        for policy in [
            KernelPolicy::PaperFaithful,
            KernelPolicy::adaptive(),
            KernelPolicy::bitset(),
        ] {
            assert_eq!(KernelPolicy::from_name(policy.name()), Some(policy));
        }
        assert_eq!(KernelPolicy::from_name("nope"), None);
        assert_eq!(KernelPlan::default().policy.name(), "adaptive");
        assert!(!KernelPlan::default().compressed);
        assert_eq!(
            KernelPlan::fixed(KernelPolicy::bitset()).policy.name(),
            "bitset"
        );
    }

    #[test]
    fn bitset_intersect_agrees_with_paper_on_all_dispatch_paths() {
        let dg = random_directed(140, 0.25, 13);
        let paper = Kernels::paper();
        // force each path: blocks-everywhere, density-gated fallback
        // without hub rows, fallback-everywhere, default
        let configs = [
            BitsetConfig {
                min_short: 0,
                min_density: 0,
                fallback: AdaptiveConfig::default(),
            },
            BitsetConfig {
                min_short: 0,
                min_density: u32::MAX,
                fallback: AdaptiveConfig {
                    max_hubs: 0,
                    ..AdaptiveConfig::default()
                },
            },
            BitsetConfig {
                min_short: u32::MAX,
                min_density: 0,
                fallback: AdaptiveConfig::default(),
            },
            BitsetConfig::default(),
        ];
        for cfg in configs {
            let k = Kernels::build(KernelPolicy::Bitset(cfg), &dg);
            assert_eq!(k.policy().name(), "bitset");
            for z in 0..dg.n() as u32 {
                let out = dg.out(z);
                // E1-shaped slice pairs
                for (j, &y) in out.iter().enumerate() {
                    let local = &out[..j];
                    let remote = dg.out(y);
                    let mut want = Vec::new();
                    let sp = paper.intersect(local, None, remote, None, |x| want.push(x));
                    let mut got = Vec::new();
                    let sb = k.intersect(
                        local,
                        Some((z, ListDir::Out)),
                        remote,
                        Some((y, ListDir::Out)),
                        |x| got.push(x),
                    );
                    assert_eq!(got, want, "E1 cfg {cfg:?} z={z} y={y}");
                    assert_eq!(sb.matches, sp.matches);
                }
                // E4-shaped slice pairs (out suffix × in prefix)
                for (j, &x) in out.iter().enumerate() {
                    let inn = dg.in_(x);
                    let r = inn.partition_point(|&w| w < z);
                    let local = &out[j + 1..];
                    let remote = &inn[..r];
                    let mut want = Vec::new();
                    paper.intersect(local, None, remote, None, |y| want.push(y));
                    let mut got = Vec::new();
                    k.intersect(
                        local,
                        Some((z, ListDir::Out)),
                        remote,
                        Some((x, ListDir::In)),
                        |y| got.push(y),
                    );
                    assert_eq!(got, want, "E4 cfg {cfg:?} z={z} x={x}");
                }
            }
        }
    }

    #[test]
    fn bitset_build_within_degrades_hubs_then_blocks() {
        use crate::source::GraphSource;
        let dg = random_directed(100, 0.3, 17);
        let policy = KernelPolicy::Bitset(BitsetConfig {
            min_short: 0,
            min_density: 0,
            fallback: AdaptiveConfig {
                gallop_crossover: 4,
                hub_degree_threshold: 0,
                max_hubs: usize::MAX,
            },
        });
        let src = GraphSource::Plain(&dg);
        let blocks_need = BitsetBlocks::estimate_bytes(src, ListDir::Out)
            + BitsetBlocks::estimate_bytes(src, ListDir::In);
        let full = Kernels::build_within(policy, &dg, None);
        assert!(full.out_blocks().is_some());
        assert!(full.bytes() > blocks_need, "bytes include hub rows");
        // a budget that covers the blocks but not all hub rows keeps the
        // blocks and sheds rows
        let tight = Kernels::build_within(policy, &dg, Some(blocks_need + 1024));
        assert!(tight.out_blocks().is_some());
        assert!(tight.bytes() <= blocks_need + 1024);
        // a budget below the block encoding drops to scan-only
        let none = Kernels::build_within(policy, &dg, Some(blocks_need / 2));
        assert!(none.out_blocks().is_none());
        assert_eq!(none.bytes(), 0);
        assert_eq!(none.policy().name(), "bitset");
        // degraded contexts still agree with the paper kernel
        let paper = Kernels::paper();
        for z in 0..dg.n() as u32 {
            let out = dg.out(z);
            for (j, &y) in out.iter().enumerate() {
                let want = paper
                    .intersect(&out[..j], None, dg.out(y), None, |_| {})
                    .matches;
                for k in [&tight, &none] {
                    let got = k
                        .intersect(
                            &out[..j],
                            Some((z, ListDir::Out)),
                            dg.out(y),
                            Some((y, ListDir::Out)),
                            |_| {},
                        )
                        .matches;
                    assert_eq!(got, want, "z={z} y={y}");
                }
            }
        }
    }

    #[test]
    fn meter_tallies_bitset_dispatch() {
        use crate::obs::{Counter, InMemoryRecorder};
        let dg = random_directed(120, 0.3, 19);
        let meter = Arc::new(KernelMeter::new());
        let k = Kernels::build(
            KernelPolicy::Bitset(BitsetConfig {
                min_short: 0,
                min_density: 0,
                fallback: AdaptiveConfig::default(),
            }),
            &dg,
        )
        .with_meter(Arc::clone(&meter));
        let mut calls = 0u64;
        for z in 0..dg.n() as u32 {
            let out = dg.out(z);
            for (j, &y) in out.iter().enumerate() {
                let local = &out[..j];
                let remote = dg.out(y);
                if local.is_empty() || remote.is_empty() {
                    continue;
                }
                calls += 1;
                k.intersect(
                    local,
                    Some((z, ListDir::Out)),
                    remote,
                    Some((y, ListDir::Out)),
                    |_| {},
                );
            }
        }
        let rec = InMemoryRecorder::new();
        meter.flush_into(&rec);
        assert_eq!(
            rec.counter(Counter::IntersectBitset),
            calls,
            "min_short 0 + owned sides routes every call to the block kernel"
        );
        assert!(rec.counter(Counter::BitsetBlockSteps) > 0);
        assert_eq!(rec.counter(Counter::IntersectBranchless), 0);
    }
}
