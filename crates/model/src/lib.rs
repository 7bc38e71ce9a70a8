//! # trilist-model
//!
//! Analytical cost models from the paper: the unified per-node cost
//! `E[c_n] ≈ (1/n) Σ g(d_i) h(q_i)` (Proposition 4, Table 4), the spread
//! distribution `J(x)` (eqs. 18–19), the exact discrete model (eq. 50),
//! Algorithm 2 (jump-compressed evaluation), the continuous model
//! (eq. 49), asymptotic limits with their Pareto finiteness thresholds
//! (§4–§6), and the divergence rates of eqs. 46–48.
//!
//! ```
//! use trilist_graph::dist::{DiscretePareto, Truncated};
//! use trilist_model::{discrete_cost, CostClass, ModelSpec};
//! use trilist_order::LimitMap;
//!
//! // Expected per-node cost of T1 under descending order, α = 1.5,
//! // root truncation at n = 10^6 (Table 6's third row is ≈ 142.9).
//! let dist = Truncated::new(DiscretePareto::paper_beta(1.5), 1_000);
//! let spec = ModelSpec::new(CostClass::T1, LimitMap::Descending);
//! let cost = discrete_cost(&dist, &spec);
//! assert!(cost > 100.0 && cost < 200.0);
//! ```

#![warn(missing_docs)]

pub mod calibrate;
pub mod comparison;
pub mod continuous;
pub mod discrete;
pub mod expected;
pub mod fit;
pub mod hfun;
pub mod limits;
pub mod mc;
pub mod order_stats;
pub mod plan;
pub mod pricing;
pub mod quick;
pub mod regimes;
pub mod scaling;
pub mod spread;
pub mod weight;
pub mod wn;

pub use calibrate::{calibrate, kernel_throughputs, Calibration, KernelThroughputs};
pub use comparison::{e1_beats_e4, t1_beats_t2, u_space_cost, OptimalPair};
pub use continuous::continuous_cost;
pub use discrete::{discrete_cost, discrete_cost_custom, ModelSpec};
pub use expected::{expected_out_degrees, predicted_cost_per_node, q_fractions};
pub use fit::{hill_estimator, lomax_mle, recommend, Recommendation};
pub use hfun::{g, CostClass};
pub use limits::{finiteness_threshold, is_finite, limiting_cost, limiting_cost_at};
pub use mc::mc_cost;
pub use plan::{
    degree_sample, rank_plans, DegreeSample, MachineProfile, PlanCandidate, PlanConfig, RankedPlans,
};
pub use pricing::{price_delta, price_from_distribution, price_request, RequestPrice};
pub use quick::{block_count, quick_cost};
pub use regimes::{asymptotic_winner, finite_pairs, vertex_regime, AsymptoticWinner, VertexRegime};
pub use scaling::{a_n, b_n, spread_tail};
pub use spread::{exponential_spread, pareto_spread, SpreadTable};
pub use weight::WeightFn;
pub use wn::{asymptotic_gap_regime, sei_wins, wn_limit, wn_of_graph};
