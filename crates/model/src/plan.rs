//! The per-graph ordering autotuner: rank `(method, ordering, policy)`
//! candidates under the calibrated discrete cost model and emit a
//! [`ListingPlan`].
//!
//! The paper's Corollaries pick an optimal θ family per method for random
//! power-law graphs; Lécuyer et al. show orderings computed from the actual
//! graph beat any fixed family on real instances, and Berry et al. document
//! where the random-graph abstraction breaks (communities, cores, hub
//! anomalies). This module closes the loop for the serving layer:
//!
//! 1. **Sample** the degree sequence — exact below
//!    [`PlanConfig::exact_threshold`] nodes, deterministic reservoir above;
//! 2. **Evaluate** every candidate `(method ∈ {T1,T2,E1,E4}, ordering ∈
//!    θ families ∪ tailored, policy)` under the discrete cost model:
//!    families are priced by Proposition 4 on the (sampled) relabeled
//!    degree sequence, structural orderings (degen/split/refined, plus
//!    every ordering when the graph is small enough to relabel exactly) by
//!    the realized orientation's closed-form operation counts (eqs. 7–9);
//! 3. **Scale** operation counts to predicted seconds through a
//!    [`MachineProfile`] — either [`MachineProfile::reference`] (the
//!    paper's Table-3 machine, fully deterministic, used by golden pins)
//!    or measured [`Calibration`] + [`KernelThroughputs`] from
//!    [`calibrate`](crate::calibrate()) and
//!    [`kernel_throughputs`](crate::kernel_throughputs);
//! 4. **Rank** ascending by predicted seconds, tie-broken toward the paper
//!    default ([`ListingPlan::default`]: E1 under `θ_D`, adaptive, plain).

use crate::hfun::CostClass;
use crate::pricing::price_request;
use crate::{Calibration, KernelThroughputs};
use rand::SeedableRng;
use trilist_core::{KernelPolicy, ListingPlan, Method};
use trilist_graph::Graph;
use trilist_order::{OrderFamily, OrderingKind};

/// Knobs for [`rank_plans`]. The defaults match what `GraphStore::prepare`
/// uses, so a plan computed offline reproduces the served one.
#[derive(Clone, Copy, Debug)]
pub struct PlanConfig {
    /// Below this many nodes the planner relabels every candidate ordering
    /// on the full graph and counts realized operations exactly.
    pub exact_threshold: usize,
    /// Reservoir size for the degree sample above the threshold.
    pub sample_size: usize,
    /// Seed for the reservoir and for the uniform family's permutation.
    pub seed: u64,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            exact_threshold: 4_096,
            sample_size: 2_048,
            seed: 0x706c_616e, // "plan"
        }
    }
}

/// Elementary-operation speeds the planner divides operation counts by.
/// All rates are ops/second; only their *ratios* matter for ranking.
#[derive(Clone, Copy, Debug)]
pub struct MachineProfile {
    /// Hash probes per second (T-method elementary operation).
    pub hash_ops_per_sec: f64,
    /// Scan comparisons per second through the paper-faithful kernel.
    pub scan_ops_per_sec: f64,
    /// Scan comparisons per second through the adaptive merge/gallop
    /// kernel.
    pub gallop_ops_per_sec: f64,
    /// Scan comparisons per second through the blocked-bitset kernel.
    pub word_intersect_ops_per_sec: f64,
    /// Adjacency labels decoded per second from the compressed CSR.
    pub decode_ops_per_sec: f64,
}

impl MachineProfile {
    /// The paper's Table-3 machine: scans 95× faster than hash probes, the
    /// adaptive kernel matching the paper scan, the bitset kernel slightly
    /// ahead, decode slower than every kernel (so the reference plan never
    /// picks the compressed layout). Deterministic — golden plan pins
    /// evaluate against this profile.
    pub fn reference() -> Self {
        MachineProfile {
            hash_ops_per_sec: 1.0,
            scan_ops_per_sec: 95.0,
            gallop_ops_per_sec: 95.0,
            word_intersect_ops_per_sec: 114.0,
            decode_ops_per_sec: 50.0,
        }
    }

    /// A profile from this machine's measured speeds.
    pub fn from_measured(cal: &Calibration, tp: &KernelThroughputs) -> Self {
        MachineProfile {
            hash_ops_per_sec: cal.hash_ops_per_sec,
            scan_ops_per_sec: cal.scan_ops_per_sec,
            gallop_ops_per_sec: tp.gallop_ops_per_sec,
            word_intersect_ops_per_sec: tp.word_intersect_ops_per_sec,
            decode_ops_per_sec: tp.decode_ops_per_sec,
        }
    }

    /// Ops/second `method` retires under `policy` on this machine.
    pub fn rate(&self, method: Method, policy: &KernelPolicy) -> f64 {
        if is_hash_method(method) {
            return self.hash_ops_per_sec;
        }
        match policy {
            KernelPolicy::PaperFaithful => self.scan_ops_per_sec,
            // adaptive never does worse than the paper scan by construction
            KernelPolicy::Adaptive(_) => self.gallop_ops_per_sec.max(self.scan_ops_per_sec),
            KernelPolicy::Bitset(_) => self.word_intersect_ops_per_sec,
        }
    }

    /// Predicted seconds for `ops` elementary operations of `method`
    /// under `policy`.
    pub fn seconds(&self, method: Method, policy: &KernelPolicy, ops: f64) -> f64 {
        ops / self.rate(method, policy).max(f64::MIN_POSITIVE)
    }
}

/// T-methods pay in hash probes; E-methods pay in scan comparisons.
fn is_hash_method(method: Method) -> bool {
    matches!(
        CostClass::of(method),
        CostClass::T1 | CostClass::T2 | CostClass::T3
    )
}

/// The degree-sequence view the planner prices family orderings from.
#[derive(Clone, Debug)]
pub struct DegreeSample {
    /// Sampled (or complete) degrees, ascending.
    pub degrees: Vec<u32>,
    /// True node count of the graph the sample was drawn from.
    pub n: usize,
    /// Whether `degrees` is the complete sequence.
    pub exact: bool,
}

/// Draws the planner's degree sample: the full sequence when
/// `n ≤ cfg.exact_threshold`, otherwise a deterministic reservoir of
/// `cfg.sample_size` degrees (splitmix64 stream seeded by `cfg.seed`, so
/// the same graph always yields the same sample).
pub fn degree_sample(graph: &Graph, cfg: &PlanConfig) -> DegreeSample {
    let n = graph.n();
    let exact = n <= cfg.exact_threshold.max(cfg.sample_size);
    let mut degrees: Vec<u32> = if exact {
        (0..n as u32).map(|v| graph.degree(v) as u32).collect()
    } else {
        let k = cfg.sample_size;
        let mut reservoir: Vec<u32> = (0..k as u32).map(|v| graph.degree(v) as u32).collect();
        let mut state = cfg.seed | 1;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for v in k..n {
            let j = (next() % (v as u64 + 1)) as usize;
            if j < k {
                reservoir[j] = graph.degree(v as u32) as u32;
            }
        }
        reservoir
    };
    degrees.sort_unstable();
    DegreeSample { degrees, n, exact }
}

/// One scored autotuner candidate.
#[derive(Clone, Copy, Debug)]
pub struct PlanCandidate {
    /// The fundamental method.
    pub method: Method,
    /// The vertex ordering.
    pub ordering: OrderingKind,
    /// The kernel dispatch policy.
    pub policy: KernelPolicy,
    /// Whether the candidate runs on the compressed CSR.
    pub compressed: bool,
    /// Model-predicted elementary operations.
    pub predicted_ops: f64,
    /// `predicted_ops` scaled through the machine profile.
    pub predicted_seconds: f64,
}

impl PlanCandidate {
    /// This candidate as an executable plan.
    pub fn plan(&self) -> ListingPlan {
        ListingPlan {
            ordering: self.ordering,
            method_hint: self.method,
            policy: self.policy,
            compressed: self.compressed,
        }
    }
}

/// The autotuner's output: candidates ranked ascending by predicted
/// seconds, the winner, and the paper-default row for comparison.
#[derive(Clone, Debug)]
pub struct RankedPlans {
    /// The winning plan ([`RankedPlans::candidates`]`[0]`, or the paper
    /// default on an empty graph).
    pub best: ListingPlan,
    /// Every evaluated candidate, best first.
    pub candidates: Vec<PlanCandidate>,
    /// Predicted operations of the paper-default plan
    /// ([`ListingPlan::default`]).
    pub default_ops: f64,
    /// Predicted seconds of the paper-default plan.
    pub default_seconds: f64,
    /// Candidates evaluated (feeds the `plan_evaluations` counter).
    pub evaluations: u64,
    /// Whether family pricing ran on a reservoir sample rather than the
    /// full sequence.
    pub sampled: bool,
}

impl RankedPlans {
    /// Predicted seconds of the winner.
    pub fn best_seconds(&self) -> f64 {
        self.candidates.first().map_or(0.0, |c| c.predicted_seconds)
    }

    /// `best_seconds / default_seconds` — < 1 means the autotuner expects
    /// to beat the paper default.
    pub fn predicted_speedup(&self) -> f64 {
        let best = self.best_seconds();
        if best <= 0.0 {
            return 1.0;
        }
        self.default_seconds / best
    }

    /// The ranked row matching `plan`, if it was evaluated.
    pub fn candidate_for(&self, plan: &ListingPlan) -> Option<&PlanCandidate> {
        self.candidates.iter().find(|c| {
            c.method == plan.method_hint
                && c.ordering == plan.ordering
                && c.policy.name() == plan.policy.name()
                && c.compressed == plan.compressed
        })
    }
}

/// Exact realized operation count of `method` under `labels` on `graph`:
/// the closed forms of eqs. 7–9 on the induced out/in degrees.
fn exact_ops(graph: &Graph, labels: &[u32], method: Method) -> f64 {
    let n = graph.n();
    let mut t1 = 0u64; // Σ X(X−1)/2
    let mut t2 = 0u64; // Σ X·Y
    let mut t3 = 0u64; // Σ Y(Y−1)/2
    for v in 0..n as u32 {
        let lv = labels[v as usize];
        let x = graph
            .neighbors(v)
            .iter()
            .filter(|&&w| labels[w as usize] < lv)
            .count() as u64;
        let y = graph.degree(v) as u64 - x;
        t1 += x * x.saturating_sub(1) / 2;
        t2 += x * y;
        t3 += y * y.saturating_sub(1) / 2;
    }
    (match method {
        Method::T1 => t1,
        Method::T2 => t2,
        Method::E1 => t1 + t2,
        Method::E4 => t1 + t3,
        _ => unreachable!("planner only scores fundamental methods"),
    }) as f64
}

/// Model-predicted operations of `method` under a family ordering, from
/// the (sampled) degree sequence: Proposition 4 on the relabeled sample,
/// scaled to the true node count.
fn family_model_ops(sample: &DegreeSample, family: OrderFamily, method: Method, seed: u64) -> f64 {
    let s = sample.degrees.len();
    if s == 0 {
        return 0.0;
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let perm = family.permutation(s, &mut rng);
    // sample.degrees is ascending == position order; place by the family
    let mut degrees_by_label = vec![0u32; s];
    for (pos, &d) in sample.degrees.iter().enumerate() {
        degrees_by_label[perm.label(pos) as usize] = d;
    }
    price_request(method, &degrees_by_label).per_node * sample.n as f64
}

/// Evaluates and ranks every autotuner candidate for `graph`.
///
/// Structural orderings (`degen`/`split`/`refined`) are always scored from
/// their realized orientation on the full graph; position-based families
/// are scored the same way when the graph is small (exact mode), and by
/// the sampled Proposition-4 model otherwise. Candidate policies map
/// operation counts to seconds through `profile`; the `compressed` flag
/// is set iff decode can feed the chosen kernel (decode throughput at
/// least the kernel's) and never for hash-paying T methods.
pub fn rank_plans(graph: &Graph, profile: &MachineProfile, cfg: &PlanConfig) -> RankedPlans {
    let default_plan = ListingPlan::default();
    if graph.n() == 0 {
        return RankedPlans {
            best: default_plan,
            candidates: Vec::new(),
            default_ops: 0.0,
            default_seconds: 0.0,
            evaluations: 0,
            sampled: false,
        };
    }
    let sample = degree_sample(graph, cfg);

    // predicted ops per ordering × method (policy only affects the rate)
    let mut ops_table: Vec<(OrderingKind, [f64; 4])> = Vec::new();
    for ordering in OrderingKind::ALL {
        let ops: [f64; 4] = match ordering {
            OrderingKind::Family(family) if !sample.exact && family.limit_map().is_some() => {
                let mut row = [0.0; 4];
                for (i, method) in Method::FUNDAMENTAL.into_iter().enumerate() {
                    row[i] = family_model_ops(&sample, family, method, cfg.seed);
                }
                row
            }
            _ => {
                let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
                let labels = ordering.relabeling(graph, &mut rng);
                let mut row = [0.0; 4];
                for (i, method) in Method::FUNDAMENTAL.into_iter().enumerate() {
                    row[i] = exact_ops(graph, labels.as_slice(), method);
                }
                row
            }
        };
        ops_table.push((ordering, ops));
    }

    let policies = [
        KernelPolicy::adaptive(),
        KernelPolicy::PaperFaithful,
        KernelPolicy::bitset(),
    ];
    let mut candidates = Vec::with_capacity(ops_table.len() * 4 * policies.len());
    for &(ordering, ops_row) in &ops_table {
        for (i, method) in Method::FUNDAMENTAL.into_iter().enumerate() {
            for policy in policies {
                let rate = profile.rate(method, &policy);
                let compressed = !is_hash_method(method) && profile.decode_ops_per_sec >= rate;
                candidates.push(PlanCandidate {
                    method,
                    ordering,
                    policy,
                    compressed,
                    predicted_ops: ops_row[i],
                    predicted_seconds: profile.seconds(method, &policy, ops_row[i]),
                });
            }
        }
    }

    let rank_key = |c: &PlanCandidate| {
        let is_default = c.method == default_plan.method_hint
            && c.ordering == default_plan.ordering
            && c.policy.name() == default_plan.policy.name()
            && c.compressed == default_plan.compressed;
        let method_rank = Method::FUNDAMENTAL
            .iter()
            .position(|&m| m == c.method)
            .unwrap_or(usize::MAX);
        let ordering_rank = OrderingKind::ALL
            .iter()
            .position(|&o| o == c.ordering)
            .unwrap_or(usize::MAX);
        let policy_rank = policies
            .iter()
            .position(|p| p.name() == c.policy.name())
            .unwrap_or(usize::MAX);
        (!is_default as u8, method_rank, ordering_rank, policy_rank)
    };
    candidates.sort_by(|a, b| {
        a.predicted_seconds
            .partial_cmp(&b.predicted_seconds)
            .expect("predicted seconds are finite")
            .then_with(|| rank_key(a).cmp(&rank_key(b)))
    });

    let evaluations = candidates.len() as u64;
    let default_row = candidates
        .iter()
        .find(|c| {
            c.method == default_plan.method_hint
                && c.ordering == default_plan.ordering
                && c.policy.name() == default_plan.policy.name()
                && c.compressed == default_plan.compressed
        })
        .copied();
    let best = candidates.first().map_or(default_plan, |c| c.plan());
    RankedPlans {
        best,
        default_ops: default_row.map_or(0.0, |c| c.predicted_ops),
        default_seconds: default_row.map_or(0.0, |c| c.predicted_seconds),
        evaluations,
        sampled: !sample.exact,
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use trilist_graph::dist::{sample_degree_sequence, DiscretePareto, Truncated};
    use trilist_graph::gen::{GraphGenerator, ResidualSampler};

    fn pareto_graph(n: usize, seed: u64) -> Graph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dist = Truncated::new(DiscretePareto::paper_beta(1.5), 60);
        let (seq, _) = sample_degree_sequence(&dist, n, &mut rng);
        ResidualSampler.generate(&seq, &mut rng).graph
    }

    #[test]
    fn degree_sample_exact_below_threshold() {
        let g = pareto_graph(500, 1);
        let s = degree_sample(&g, &PlanConfig::default());
        assert!(s.exact);
        assert_eq!(s.degrees.len(), 500);
        assert_eq!(s.n, 500);
        let mut all: Vec<u32> = (0..500u32).map(|v| g.degree(v) as u32).collect();
        all.sort_unstable();
        assert_eq!(s.degrees, all);
    }

    #[test]
    fn degree_sample_reservoir_is_deterministic_and_bounded() {
        let g = pareto_graph(6_000, 2);
        let cfg = PlanConfig::default();
        let a = degree_sample(&g, &cfg);
        let b = degree_sample(&g, &cfg);
        assert!(!a.exact);
        assert_eq!(a.degrees.len(), cfg.sample_size);
        assert_eq!(a.degrees, b.degrees);
        assert_eq!(a.n, 6_000);
        // sampled mean degree within 25% of the truth
        let true_mean = 2.0 * g.m() as f64 / g.n() as f64;
        let samp_mean = a.degrees.iter().map(|&d| d as f64).sum::<f64>() / a.degrees.len() as f64;
        assert!(
            (samp_mean - true_mean).abs() / true_mean < 0.25,
            "sample mean {samp_mean} vs true {true_mean}"
        );
    }

    #[test]
    fn rank_plans_is_deterministic_and_complete() {
        let g = pareto_graph(800, 3);
        let profile = MachineProfile::reference();
        let cfg = PlanConfig::default();
        let a = rank_plans(&g, &profile, &cfg);
        let b = rank_plans(&g, &profile, &cfg);
        // 8 orderings × 4 methods × 3 policies
        assert_eq!(a.evaluations, 96);
        assert_eq!(a.candidates.len(), 96);
        assert_eq!(a.best, b.best);
        for (x, y) in a.candidates.iter().zip(&b.candidates) {
            assert_eq!(x.predicted_seconds, y.predicted_seconds);
            assert_eq!(x.plan(), y.plan());
        }
        // ranked ascending
        for w in a.candidates.windows(2) {
            assert!(w[0].predicted_seconds <= w[1].predicted_seconds);
        }
        // winner never predicted worse than the paper default
        assert!(a.best_seconds() <= a.default_seconds);
        assert!(a.predicted_speedup() >= 1.0);
        assert!(a.candidate_for(&a.best).is_some());
    }

    #[test]
    fn rank_plans_prefers_default_on_exact_ties() {
        // K3: every ordering of a triangle costs the same for each method,
        // so the tie-break must surface the paper default among the
        // minimal-cost candidates of its method
        let g = Graph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]).unwrap();
        let r = rank_plans(&g, &MachineProfile::reference(), &PlanConfig::default());
        let best = &r.candidates[0];
        let tied: Vec<_> = r
            .candidates
            .iter()
            .filter(|c| c.predicted_seconds == best.predicted_seconds)
            .collect();
        // all orderings tie on K3, so the tie-break decides: the winner
        // must carry the paper default's method and ordering (E1 under θ_D)
        // among the minimal-cost candidates
        assert!(tied.len() > 1, "expected a genuine tie on K3");
        let default_plan = ListingPlan::default();
        assert_eq!(r.best.method_hint, default_plan.method_hint);
        assert_eq!(r.best.ordering, default_plan.ordering);
    }

    #[test]
    fn empty_graph_returns_paper_default() {
        let g = Graph::from_edges(0, &[]).unwrap();
        let r = rank_plans(&g, &MachineProfile::reference(), &PlanConfig::default());
        assert_eq!(r.best, ListingPlan::default());
        assert_eq!(r.evaluations, 0);
    }

    #[test]
    fn reference_profile_never_picks_compressed() {
        let g = pareto_graph(600, 5);
        let r = rank_plans(&g, &MachineProfile::reference(), &PlanConfig::default());
        for c in &r.candidates {
            assert!(!c.compressed, "{c:?}");
        }
    }

    #[test]
    fn fast_decode_profile_marks_scan_candidates_compressed() {
        let mut profile = MachineProfile::reference();
        profile.decode_ops_per_sec = 1e6;
        let g = pareto_graph(400, 6);
        let r = rank_plans(&g, &profile, &PlanConfig::default());
        for c in &r.candidates {
            if is_hash_method(c.method) {
                assert!(!c.compressed);
            } else {
                assert!(c.compressed, "{c:?}");
            }
        }
    }

    #[test]
    fn sampled_mode_agrees_with_exact_mode_on_winner_cost_scale() {
        // same graph, once exact, once forced through the reservoir: the
        // predicted default costs should be within 2x of each other
        let g = pareto_graph(3_000, 7);
        let profile = MachineProfile::reference();
        let exact_cfg = PlanConfig {
            exact_threshold: 10_000,
            ..PlanConfig::default()
        };
        let sampled_cfg = PlanConfig {
            exact_threshold: 0,
            sample_size: 1_024,
            ..PlanConfig::default()
        };
        let e = rank_plans(&g, &profile, &exact_cfg);
        let s = rank_plans(&g, &profile, &sampled_cfg);
        assert!(!e.sampled);
        assert!(s.sampled);
        let ratio = s.default_seconds / e.default_seconds.max(f64::MIN_POSITIVE);
        assert!(
            (0.5..2.0).contains(&ratio),
            "sampled {} vs exact {} (ratio {ratio})",
            s.default_seconds,
            e.default_seconds
        );
    }
}
