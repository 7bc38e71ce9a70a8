//! Hardware calibration for the §2.4 decision rule.
//!
//! Table 3 settles SEI-vs-hash with *measured* elementary-operation
//! speeds: on the paper's i7, sequential scan comparisons ran ~95× faster
//! than hash probes, so SEI wins whenever `w_n < 95`. That constant is a
//! property of the paper's 2017 hardware, not of the algorithms — on a
//! machine with a different cache hierarchy or hash throughput the
//! crossover moves. This module reproduces the Table 3 methodology on the
//! *current* machine: run T1 (pure hash probes) and E1 (pure scan
//! comparisons) on the same oriented graph and divide operation counts by
//! wall-clock; the resulting ratio is what
//! [`sei_wins`](crate::wn::sei_wins) takes in place of the paper's 95.

use std::time::Instant;
use trilist_core::{par_list_with, CompressedCsr, HashOracle, KernelPolicy, Method, ParallelOpts};
use trilist_order::DirectedGraph;

/// Measured elementary-operation speeds on this machine.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Hash probes per second (T1's elementary operation).
    pub hash_ops_per_sec: f64,
    /// Scan comparisons per second (E1's elementary operation,
    /// paper-accounted as the eligible slice lengths).
    pub scan_ops_per_sec: f64,
    /// `scan_ops_per_sec / hash_ops_per_sec` — this machine's analogue of
    /// the paper's 95×.
    pub speed_ratio: f64,
}

/// Runs the Table-3 measurement on `g`: T1 for hash-probe speed, E1 for
/// scan-comparison speed, each timed over `rounds` repetitions (report the
/// best round, minimizing scheduler noise). `g` should be large enough
/// that one round takes well over a timer tick — `n ≥ 10⁴` on a Pareto
/// tail is plenty.
pub fn calibrate(g: &DirectedGraph, rounds: usize) -> Calibration {
    let rounds = rounds.max(1);
    let oracle = HashOracle::build(g);

    let mut best_hash = f64::INFINITY;
    let mut hash_ops = 0u64;
    for _ in 0..rounds {
        let started = Instant::now();
        let cost = Method::T1.run_with_oracle(g, &oracle, |_, _, _| {});
        best_hash = best_hash.min(started.elapsed().as_secs_f64());
        hash_ops = cost.lookups;
    }

    let mut best_scan = f64::INFINITY;
    let mut scan_ops = 0u64;
    for _ in 0..rounds {
        let started = Instant::now();
        let cost = Method::E1.run(g, |_, _, _| {});
        best_scan = best_scan.min(started.elapsed().as_secs_f64());
        scan_ops = cost.local + cost.remote;
    }

    let hash_ops_per_sec = hash_ops as f64 / best_hash.max(f64::MIN_POSITIVE);
    let scan_ops_per_sec = scan_ops as f64 / best_scan.max(f64::MIN_POSITIVE);
    Calibration {
        hash_ops_per_sec,
        scan_ops_per_sec,
        speed_ratio: scan_ops_per_sec / hash_ops_per_sec.max(f64::MIN_POSITIVE),
    }
}

/// Measured kernel-level throughputs on this machine, extending the
/// Table-3 methodology one level down: instead of ranking whole methods
/// (hash vs scan), rank the *intersection kernels* a method can dispatch
/// to. All three numbers divide the same paper-accounted operation
/// totals by wall-clock, so their ratios are directly comparable.
#[derive(Clone, Copy, Debug)]
pub struct KernelThroughputs {
    /// Paper scan operations retired per second when E1 runs through the
    /// blocked-bitset kernel (word-wise `AND`+popcount over L1-resident
    /// blocks, SIMD where the CPU supports it).
    pub word_intersect_ops_per_sec: f64,
    /// Adjacency labels decoded per second from the delta/varint CSR —
    /// how fast the compressed layout can feed a kernel.
    pub decode_ops_per_sec: f64,
    /// Paper scan operations retired per second when E1 runs through the
    /// adaptive merge/gallop kernel (the PR 2 baseline).
    pub gallop_ops_per_sec: f64,
}

fn best_e1_secs(g: &DirectedGraph, policy: KernelPolicy, rounds: usize) -> (f64, u64) {
    let opts = ParallelOpts {
        threads: 1,
        policy,
        ..ParallelOpts::default()
    };
    let mut best = f64::INFINITY;
    let mut ops = 0u64;
    for _ in 0..rounds {
        let started = Instant::now();
        let run = par_list_with(g, Method::E1, &opts).expect("E1 is fundamental");
        best = best.min(started.elapsed().as_secs_f64());
        ops = run.cost.local + run.cost.remote;
    }
    (best.max(f64::MIN_POSITIVE), ops)
}

/// Measures [`KernelThroughputs`] on `g` over `rounds` repetitions each
/// (best round kept, as in [`calibrate`]). The same graph and the same
/// paper cost accounting are used for every kernel, so the only varying
/// quantity is wall-clock.
pub fn kernel_throughputs(g: &DirectedGraph, rounds: usize) -> KernelThroughputs {
    let rounds = rounds.max(1);
    let (gallop_secs, gallop_ops) = best_e1_secs(g, KernelPolicy::adaptive(), rounds);
    let (bitset_secs, bitset_ops) = best_e1_secs(g, KernelPolicy::bitset(), rounds);

    let csr = CompressedCsr::compress(g);
    let (mut out_buf, mut in_buf) = (Vec::new(), Vec::new());
    let mut best_decode = f64::INFINITY;
    for _ in 0..rounds {
        let started = Instant::now();
        for v in 0..g.n() as u32 {
            csr.decode_out_into(v, &mut out_buf);
            csr.decode_in_into(v, &mut in_buf);
        }
        best_decode = best_decode.min(started.elapsed().as_secs_f64());
    }
    let decode_ops = 2 * g.m() as u64;

    KernelThroughputs {
        word_intersect_ops_per_sec: bitset_ops as f64 / bitset_secs,
        decode_ops_per_sec: decode_ops as f64 / best_decode.max(f64::MIN_POSITIVE),
        gallop_ops_per_sec: gallop_ops as f64 / gallop_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use trilist_graph::dist::{sample_degree_sequence, DiscretePareto, Truncated};
    use trilist_graph::gen::{GraphGenerator, ResidualSampler};
    use trilist_order::OrderFamily;

    fn fixture() -> DirectedGraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let dist = Truncated::new(DiscretePareto::paper_beta(1.7), 40);
        let (seq, _) = sample_degree_sequence(&dist, 3_000, &mut rng);
        let g = ResidualSampler.generate(&seq, &mut rng).graph;
        let relabeling = OrderFamily::Descending.relabeling(&g, &mut rng);
        DirectedGraph::orient(&g, &relabeling)
    }

    #[test]
    fn calibration_yields_positive_finite_speeds() {
        let dg = fixture();
        let cal = calibrate(&dg, 2);
        assert!(cal.hash_ops_per_sec > 0.0 && cal.hash_ops_per_sec.is_finite());
        assert!(cal.scan_ops_per_sec > 0.0 && cal.scan_ops_per_sec.is_finite());
        assert!(cal.speed_ratio > 0.0 && cal.speed_ratio.is_finite());
    }

    #[test]
    fn kernel_throughputs_are_positive_finite() {
        let dg = fixture();
        let tp = kernel_throughputs(&dg, 2);
        for v in [
            tp.word_intersect_ops_per_sec,
            tp.decode_ops_per_sec,
            tp.gallop_ops_per_sec,
        ] {
            assert!(v > 0.0 && v.is_finite(), "{tp:?}");
        }
    }
}
