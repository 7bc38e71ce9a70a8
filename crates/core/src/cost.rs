//! Operation accounting for triangle-listing algorithms.
//!
//! The paper measures cost in *elementary operations*, not wall time:
//! candidate tuples for vertex iterators (eqs. 7–9), list-intersection
//! comparisons split into local/remote for scanning edge iterators
//! (Proposition 2, Table 1), and hash lookups for lookup edge iterators
//! (Table 2). [`CostReport`] carries all of these so that a run can be
//! compared against the closed-form cost computed from the oriented degree
//! sequence.

/// Operation counts from one triangle-listing run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostReport {
    /// Triangles emitted.
    pub triangles: u64,
    /// Candidate-edge existence checks (vertex iterators) or hash lookups
    /// (lookup edge iterators).
    pub lookups: u64,
    /// SEI local comparisons: the scanned length of the first-visited
    /// node's list, accounted as the full eligible-slice length per
    /// intersection (the paper's convention behind Proposition 2).
    pub local: u64,
    /// SEI remote comparisons: same accounting for the second list.
    pub remote: u64,
    /// Hash-table insertions (LEI builds its per-node tables once: `m`).
    pub hash_inserts: u64,
    /// Actual pointer advances performed by the two-pointer intersections —
    /// an implementation metric, always `≤ local + remote`, reported for
    /// completeness but never used in the paper's tables.
    pub pointer_advances: u64,
    /// Sticky overflow flag: set (and never cleared) when any field of an
    /// [`CostReport::accumulate`] would have wrapped `u64`. Saturation
    /// keeps aggregate reports well-ordered instead of wrapping to small
    /// values; this flag keeps the saturation honest.
    pub overflowed: bool,
}

/// `a + b` clamped to `u64::MAX`, setting `flag` when the clamp engaged.
#[inline]
fn sat_add(a: u64, b: u64, flag: &mut bool) -> u64 {
    let (sum, wrapped) = a.overflowing_add(b);
    *flag |= wrapped;
    if wrapped {
        u64::MAX
    } else {
        sum
    }
}

impl CostReport {
    /// The paper's headline operation count `n · c_n(M, θ_n)` for this run:
    /// candidate checks for vertex iterators, `local + remote` comparisons
    /// for SEI, lookups for LEI. Saturating: an aggregate of many runs near
    /// the `u64` boundary reports `u64::MAX` rather than wrapping.
    pub fn operations(&self) -> u64 {
        self.lookups
            .saturating_add(self.local)
            .saturating_add(self.remote)
    }

    /// Per-node cost `c_n(M, θ_n)` (eq. 1).
    pub fn per_node(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.operations() as f64 / n as f64
        }
    }

    /// Component-wise sum, for aggregating over runs. Saturating with a
    /// sticky [`CostReport::overflowed`] flag: aggregation can cross the
    /// `u64` boundary long before any single run does, and a wrapped count
    /// would silently corrupt every downstream table.
    pub fn accumulate(&mut self, other: &CostReport) {
        let mut flag = self.overflowed | other.overflowed;
        self.triangles = sat_add(self.triangles, other.triangles, &mut flag);
        self.lookups = sat_add(self.lookups, other.lookups, &mut flag);
        self.local = sat_add(self.local, other.local, &mut flag);
        self.remote = sat_add(self.remote, other.remote, &mut flag);
        self.hash_inserts = sat_add(self.hash_inserts, other.hash_inserts, &mut flag);
        self.pointer_advances = sat_add(self.pointer_advances, other.pointer_advances, &mut flag);
        self.overflowed = flag;
    }
}

/// Merges reports with [`CostReport::accumulate`].
impl<'a> std::iter::Sum<&'a CostReport> for CostReport {
    fn sum<I: Iterator<Item = &'a CostReport>>(iter: I) -> Self {
        let mut total = CostReport::default();
        iter.for_each(|c| total.accumulate(c));
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operations_sums_accounted_fields() {
        let r = CostReport {
            lookups: 5,
            local: 3,
            remote: 7,
            ..Default::default()
        };
        assert_eq!(r.operations(), 15);
        assert!((r.per_node(5) - 3.0).abs() < 1e-12);
        assert_eq!(CostReport::default().per_node(0), 0.0);
    }

    #[test]
    fn accumulate_adds_fields() {
        let mut a = CostReport {
            triangles: 1,
            lookups: 2,
            ..Default::default()
        };
        let b = CostReport {
            triangles: 3,
            lookups: 4,
            local: 1,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.triangles, 4);
        assert_eq!(a.lookups, 6);
        assert_eq!(a.local, 1);
        assert!(!a.overflowed);
    }

    #[test]
    fn accumulate_saturates_at_u64_boundary() {
        let mut a = CostReport {
            lookups: u64::MAX - 1,
            local: 7,
            ..Default::default()
        };
        let b = CostReport {
            lookups: 5,
            local: 1,
            ..Default::default()
        };
        a.accumulate(&b);
        // the overflowing field clamps, the clean field still adds
        assert_eq!(a.lookups, u64::MAX);
        assert_eq!(a.local, 8);
        assert!(a.overflowed, "sticky flag must record the clamp");
        // the flag stays set through further clean accumulation
        a.accumulate(&CostReport::default());
        assert!(a.overflowed);
        // and infects reports it is accumulated into
        let mut c = CostReport::default();
        c.accumulate(&a);
        assert!(c.overflowed);
    }

    #[test]
    fn operations_saturates_instead_of_wrapping() {
        let r = CostReport {
            lookups: u64::MAX,
            local: 3,
            remote: 9,
            ..Default::default()
        };
        assert_eq!(r.operations(), u64::MAX);
    }
}
