//! `kNN≠0` queries: uncertain points with nonzero probability of being among
//! the `k` nearest neighbors — the kNN variant the paper's Section 1.2
//! raises (ranking semantics are deferred to \[JCLY11\]; membership in the
//! possible-top-k set has a clean characterization generalizing Lemma 2.1):
//!
//! ```text
//!   P_i ∈ kNN≠0(q)   ⟺   #{ j ≠ i : Δ_j(q) ≤ δ_i(q) } ≤ k − 1,
//! ```
//!
//! i.e. fewer than `k` other points are *forced* to be at least as close as
//! `P_i`'s best case. For `k = 1` this is exactly Lemma 2.1. The index
//! engine retrieves the `k + 1` smallest `Δ_j` values and reports all disks
//! beating their respective per-`i` threshold (the `k`-th smallest among
//! `j ≠ i`), with the same strict-inequality convention as the paper.

use crate::model::{DiscreteSet, DiskSet};
use uncertain_geom::{Circle, Point};

/// Per-`i` threshold from the `k+1` smallest Δ values (`vals` ascending,
/// `ids` aligned): the `k`-th smallest Δ among `j ≠ i`.
fn threshold_for(i: u32, k: usize, smallest: &[(f64, u32)]) -> f64 {
    debug_assert!(k >= 1);
    // Position of i among the k smallest (if present).
    let in_top = smallest[..k.min(smallest.len())]
        .iter()
        .any(|&(_, id)| id == i);
    let idx = if in_top { k } else { k - 1 };
    smallest.get(idx).map_or(f64::INFINITY, |&(d, _)| d)
}

/// Brute-force `kNN≠0` over disks: `O(n log n)`.
pub fn nonzero_knn_disks(disks: &[Circle], q: Point, k: usize) -> Vec<usize> {
    assert!(k >= 1);
    let mut smallest: Vec<(f64, u32)> = disks
        .iter()
        .enumerate()
        .map(|(j, d)| (d.max_dist(q), j as u32))
        .collect();
    smallest.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    smallest.truncate(k + 1);
    disks
        .iter()
        .enumerate()
        .filter(|&(i, d)| d.min_dist(q) < threshold_for(i as u32, k, &smallest))
        .map(|(i, _)| i)
        .collect()
}

/// Brute-force `kNN≠0` over discrete uncertain points: `O(N log N)`.
pub fn nonzero_knn_discrete(set: &DiscreteSet, q: Point, k: usize) -> Vec<usize> {
    assert!(k >= 1);
    let mut smallest: Vec<(f64, u32)> = set
        .points
        .iter()
        .enumerate()
        .map(|(j, p)| (p.max_dist(q), j as u32))
        .collect();
    smallest.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    smallest.truncate(k + 1);
    set.points
        .iter()
        .enumerate()
        .filter(|&(i, p)| p.min_dist(q) < threshold_for(i as u32, k, &smallest))
        .map(|(i, _)| i)
        .collect()
}

impl super::delta_query::DiskNonzeroIndex {
    /// `kNN≠0(q)`: all points with nonzero probability of ranking among the
    /// `k` nearest. Output-sensitive: `O(log n + t)`-type behaviour like
    /// [`query`](Self::query) (which equals `query_k(q, 1)`).
    pub fn query_k(&self, q: Point, k: usize) -> Vec<usize> {
        assert!(k >= 1);
        let smallest = self.index().k_min_max_dist(q, k + 1);
        if smallest.is_empty() {
            return vec![];
        }
        let loosest = smallest.last().unwrap().0;
        let mut out = vec![];
        self.index()
            .for_each_with_min_dist_below(q, loosest, |c, id| {
                if c.min_dist(q) < threshold_for(id, k, &smallest) {
                    out.push(id as usize);
                }
            });
        // When k ≥ n every point qualifies but the traversal bound above is
        // finite; patch up by falling back to a full scan condition.
        if smallest.len() <= k {
            return (0..self.len()).collect();
        }
        out
    }
}

impl super::discrete_query::DiscreteNonzeroIndex {
    /// `kNN≠0(q)` for discrete uncertain points.
    pub fn query_k(&self, q: Point, k: usize) -> Vec<usize> {
        assert!(k >= 1);
        let smallest = self.groups().k_min_max_dist(q, k + 1);
        if smallest.is_empty() {
            return vec![];
        }
        if smallest.len() <= k {
            return (0..self.len()).collect();
        }
        let loosest = smallest.last().unwrap().0;
        let mut seen = vec![false; self.len()];
        let mut out = vec![];
        self.locations()
            .for_each_in_disk_with_dist(q, loosest, |_, i, d| {
                if !seen[i as usize] && d < threshold_for(i, k, &smallest) {
                    seen[i as usize] = true;
                    out.push(i as usize);
                }
            });
        out
    }
}

impl DiskSet {
    /// `kNN≠0(q)` by direct evaluation.
    pub fn nonzero_knn(&self, q: Point, k: usize) -> Vec<usize> {
        nonzero_knn_disks(&self.regions(), q, k)
    }
}

impl DiscreteSet {
    /// `kNN≠0(q)` by direct evaluation.
    pub fn nonzero_knn(&self, q: Point, k: usize) -> Vec<usize> {
        nonzero_knn_discrete(self, q, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonzero::{DiscreteNonzeroIndex, DiskNonzeroIndex};
    use crate::workload;

    #[test]
    fn k1_equals_lemma_2_1() {
        for seed in [1u64, 2] {
            let set = workload::random_disk_set(40, 0.2, 2.0, seed);
            let disks = set.regions();
            for q in workload::random_queries(60, 60.0, seed + 9) {
                let mut a = nonzero_knn_disks(&disks, q, 1);
                let mut b = crate::nonzero::brute::nonzero_nn_disks(&disks, q);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn knn_sets_are_monotone_in_k() {
        let set = workload::random_disk_set(30, 0.3, 2.0, 7);
        let disks = set.regions();
        for q in workload::random_queries(40, 60.0, 8) {
            let mut prev: Vec<usize> = vec![];
            for k in 1..=6 {
                let mut cur = nonzero_knn_disks(&disks, q, k);
                cur.sort_unstable();
                for i in &prev {
                    assert!(cur.contains(i), "kNN sets must be monotone in k");
                }
                prev = cur;
            }
            // k = n: everyone can be among the n nearest.
            let all = nonzero_knn_disks(&disks, q, disks.len());
            assert_eq!(all.len(), disks.len());
        }
    }

    #[test]
    fn index_matches_brute_force_disks() {
        let set = workload::random_disk_set(80, 0.2, 2.0, 5);
        let idx = DiskNonzeroIndex::build(&set);
        let disks = set.regions();
        for q in workload::random_queries(60, 60.0, 6) {
            for k in [1usize, 2, 3, 7] {
                let mut a = idx.query_k(q, k);
                let mut b = nonzero_knn_disks(&disks, q, k);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "k={k} at {q}");
            }
        }
    }

    #[test]
    fn index_matches_brute_force_discrete() {
        let set = workload::random_discrete_set(50, 4, 5.0, 13);
        let idx = DiscreteNonzeroIndex::build(&set);
        for q in workload::random_queries(60, 60.0, 14) {
            for k in [1usize, 2, 5] {
                let mut a = idx.query_k(q, k);
                let mut b = nonzero_knn_discrete(&set, q, k);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "k={k} at {q}");
            }
        }
    }

    #[test]
    fn knn_membership_matches_instantiation_ranks() {
        // Monte-Carlo cross-check: a point in kNN≠0 must achieve rank ≤ k in
        // some instantiation, and points outside must not (with enough
        // samples this is a sharp test on small instances).
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let set = workload::random_discrete_set(6, 2, 8.0, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let q = uncertain_geom::Point::new(0.0, 0.0);
        let k = 2;
        let members = nonzero_knn_discrete(&set, q, k);
        let mut achieved = vec![false; set.len()];
        for _ in 0..20_000 {
            let inst = set.sample_instance(&mut rng);
            let mut order: Vec<usize> = (0..set.len()).collect();
            order.sort_by(|&a, &b| q.dist(inst[a]).partial_cmp(&q.dist(inst[b])).unwrap());
            for &i in order.iter().take(k) {
                achieved[i] = true;
            }
        }
        for (i, &hit) in achieved.iter().enumerate() {
            if hit {
                assert!(
                    members.contains(&i),
                    "point {i} achieved rank ≤ {k} but is not in kNN≠0"
                );
            }
        }
    }

    #[test]
    fn k_larger_than_n() {
        let set = workload::random_disk_set(5, 0.3, 1.0, 21);
        let idx = DiskNonzeroIndex::build(&set);
        let q = uncertain_geom::Point::new(0.0, 0.0);
        assert_eq!(idx.query_k(q, 10).len(), 5);
        assert_eq!(nonzero_knn_disks(&set.regions(), q, 10).len(), 5);
    }
}
