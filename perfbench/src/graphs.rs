//! Seeded inputs and the in-process library reference answers.

use rand::{Rng, SeedableRng};
use trilist_graph::dist::{sample_degree_sequence, DiscretePareto, Truncated, Truncation};
use trilist_graph::gen::{GraphGenerator, ResidualSampler};
use trilist_graph::Graph;

/// splitmix64 finalizer: decorrelates derived seeds and hashes keys.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed for one named input, derived from the workload seed.
pub fn derive(seed: u64, salt: u64) -> u64 {
    mix(seed ^ mix(salt))
}

/// The fixed seed workloads draw their degree sequences from (the load
/// generator's default seed).
pub const DEGREE_SEED: u64 = 0x010A_D6E4;

/// The workload graph named by `salt` for run seed `seed`.
pub fn workload_graph(n: usize, seed: u64, salt: u64) -> Graph {
    pareto(n, derive(DEGREE_SEED, salt), derive(seed, salt))
}

/// The load generator's graph: a Pareto α = 1.5 degree sequence (root
/// truncation) realized by the residual sampler. The degree sequence comes
/// from `degree_seed` and the wiring from `wire_seed`: listing cost is a
/// function of the degree sequence (Proposition 4), so a workload keeps
/// its sequence fixed and lets the run's seed vary the realization, which
/// keeps a heavy-tailed draw from moving the cost a run measures.
pub fn pareto(n: usize, degree_seed: u64, wire_seed: u64) -> Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(degree_seed);
    let dist = Truncated::new(DiscretePareto::paper_beta(1.5), Truncation::Root.t_n(n));
    let (seq, _) = sample_degree_sequence(&dist, n, &mut rng);
    let mut rng = rand::rngs::StdRng::seed_from_u64(wire_seed);
    ResidualSampler.generate(&seq, &mut rng).graph
}

/// `k` distinct edges out of `edges`, drawn from `seed`.
pub fn sample_edges(edges: &[(u32, u32)], k: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < k.min(edges.len()) {
        picked.insert(rng.gen_range(0..edges.len()));
    }
    picked.into_iter().map(|i| edges[i]).collect()
}

/// An order-independent digest of a triangle multiset (each triple sorted
/// ascending, as the wire and the reference emit them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TriDigest {
    pub count: u64,
    pub sum: u64,
}

impl TriDigest {
    pub fn add(&mut self, (a, b, c): (u32, u32, u32)) {
        self.count += 1;
        let key = ((a as u64) << 42) ^ ((b as u64) << 21) ^ c as u64;
        self.sum = self.sum.wrapping_add(mix(key));
    }

    pub fn of(triangles: &[(u32, u32, u32)]) -> TriDigest {
        let mut d = TriDigest::default();
        for &t in triangles {
            d.add(t);
        }
        d
    }

    /// A position-sensitive digest of a label map, for comparing two
    /// relabelings without keeping both.
    pub fn of_labels(labels: &[u32]) -> TriDigest {
        let mut d = TriDigest::default();
        for (i, &l) in labels.iter().enumerate() {
            d.add((i as u32, l, 0));
        }
        d
    }
}

/// Every triangle of `g` by an algorithm independent of the listing
/// methods under test (Forward, from the prior-art module).
pub fn reference(g: &Graph) -> TriDigest {
    let mut d = TriDigest::default();
    trilist_core::forward(g, |a, b, c| d.add((a, b, c)));
    d
}

/// The triangles of `g` that contain at least one edge of `batch`: what
/// `ListNewTriangles` returns for a window whose net-new edges are `batch`.
pub fn new_triangles(g: &Graph, batch: &[(u32, u32)]) -> TriDigest {
    let mut seen = std::collections::BTreeSet::new();
    for &(u, v) in batch {
        let (nu, nv) = (g.neighbors(u), g.neighbors(v));
        let (mut i, mut j) = (0, 0);
        while i < nu.len() && j < nv.len() {
            match nu[i].cmp(&nv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let mut t = [u, v, nu[i]];
                    t.sort_unstable();
                    seen.insert((t[0], t[1], t[2]));
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    let mut d = TriDigest::default();
    for t in seen {
        d.add(t);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let a = pareto(400, 1, 7);
        let b = pareto(400, 1, 7);
        let c = pareto(400, 1, 8);
        let edges = |g: &Graph| g.edges().collect::<Vec<_>>();
        assert_eq!(edges(&a), edges(&b));
        assert_ne!(edges(&a), edges(&c));
        assert_eq!(reference(&a), reference(&b));
        // the wiring changes, the degree sequence does not
        let degrees = |g: &Graph| {
            let mut d = g.degrees();
            d.sort_unstable();
            d
        };
        assert_eq!(degrees(&a), degrees(&c));
    }

    #[test]
    fn new_triangles_of_a_triangle_edge() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
        assert_eq!(new_triangles(&g, &[(0, 1)]).count, 1);
        assert_eq!(new_triangles(&g, &[(2, 3)]).count, 0);
        assert_eq!(new_triangles(&g, &[(0, 1), (1, 2)]), reference(&g));
    }
}
