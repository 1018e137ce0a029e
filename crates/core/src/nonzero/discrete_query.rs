//! The Theorem 3.2-style query structure for discrete distributions.
//!
//! Stage 1 computes `Δ(q) = min_i max_j ‖q − p_ij‖` by branch-and-bound over
//! smallest-enclosing-circle summaries (the paper queries a partition tree
//! over the lifted upper-envelope triangles; same output). Stage 2 reports
//! every point `P_i` owning a location strictly within distance `Δ(q)` of
//! `q` — a circular range-reporting query over all `N` locations, `O(√N+t)`
//! worst case on the kd-tree exactly as the partition-tree bound the paper
//! states (measured in experiment E9).

use crate::model::DiscreteSet;
use uncertain_geom::Point;
use uncertain_spatial::{GroupIndex, KdTree};

/// Per-query scratch stamps for deduplication. Callers that query the same
/// index from several threads give each thread its own scratch (see
/// [`DiscreteNonzeroIndex::query_with`]); the plain
/// [`query`](DiscreteNonzeroIndex::query) API uses a shared one behind a
/// mutex.
#[derive(Clone, Debug, Default)]
pub struct QueryScratch {
    stamps: Vec<u32>,
    epoch: u32,
}

/// Query structure answering `NN≠0(q)` for discrete uncertain points.
#[derive(Debug)]
pub struct DiscreteNonzeroIndex {
    groups: GroupIndex,
    locations: KdTree,
    n: usize,
    /// Shared scratch for the `&self` convenience API. A `Mutex` (not
    /// `RefCell`) so the index is `Sync` and can serve concurrent readers;
    /// parallel callers should prefer [`query_with`](Self::query_with) with
    /// per-thread scratch to avoid contention.
    scratch: std::sync::Mutex<QueryScratch>,
}

impl Clone for DiscreteNonzeroIndex {
    fn clone(&self) -> Self {
        DiscreteNonzeroIndex {
            groups: self.groups.clone(),
            locations: self.locations.clone(),
            n: self.n,
            scratch: std::sync::Mutex::new(QueryScratch::default()),
        }
    }
}

impl DiscreteNonzeroIndex {
    /// Builds from a discrete set. `O(N log N)`.
    pub fn build(set: &DiscreteSet) -> Self {
        let group_pts: Vec<&[Point]> = set.points.iter().map(|p| p.locations()).collect();
        let items: Vec<(Point, u32)> = set
            .all_locations()
            .map(|(i, _, loc, _)| (loc, i as u32))
            .collect();
        DiscreteNonzeroIndex {
            groups: GroupIndex::build(&group_pts),
            locations: KdTree::build(items),
            n: set.len(),
            scratch: std::sync::Mutex::new(QueryScratch::default()),
        }
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The group index (for the kNN extension).
    pub(crate) fn groups(&self) -> &GroupIndex {
        &self.groups
    }

    /// The flat location tree (for the kNN extension).
    pub(crate) fn locations(&self) -> &KdTree {
        &self.locations
    }

    /// `Δ(q)` (stage 1).
    pub fn delta(&self, q: Point) -> Option<f64> {
        self.groups.min_max_dist(q).map(|(d, _)| d)
    }

    /// `NN≠0(q)`: all point indices with `δ_i(q) < min_{j≠i} Δ_j(q)`
    /// (Lemma 2.1).
    pub fn query(&self, q: Point) -> Vec<usize> {
        let mut scratch = self.scratch.lock().unwrap();
        self.query_with(q, &mut scratch)
    }

    /// Like [`query`](Self::query), with caller-provided scratch — the
    /// contention-free path for multi-threaded batch serving.
    pub fn query_with(&self, q: Point, scratch: &mut QueryScratch) -> Vec<usize> {
        let Some((best, best_id, second)) = self.groups.two_min_max_dist(q) else {
            return vec![];
        };
        if scratch.stamps.len() != self.n || scratch.epoch == u32::MAX {
            scratch.stamps = vec![0; self.n];
            scratch.epoch = 0;
        }
        scratch.epoch += 1;
        let (stamps, cur) = (&mut scratch.stamps, scratch.epoch);
        let mut out = vec![];
        let range = if second.is_finite() { second } else { best };
        // The kd leaf kernel evaluates the distances in chunked lanes and
        // hands each hit's distance through, so the Lemma 2.1 filter below
        // reuses it instead of recomputing `q.dist(p)` (same bits).
        self.locations
            .for_each_in_disk_with_dist(q, range, |_, i, d| {
                // Strict inequality against min_{j≠i} Δ_j; for the point that
                // attains Δ(q) the threshold is the second-smallest.
                let bound = if i == best_id { second } else { best };
                if d < bound && stamps[i as usize] != cur {
                    stamps[i as usize] = cur;
                    out.push(i as usize);
                }
            });
        // Single-point sets: the range query above cannot see past `best`
        // when `second = ∞`; handle explicitly.
        if self.n == 1 && out.is_empty() {
            out.push(best_id as usize);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonzero::brute::nonzero_nn_discrete;
    use crate::workload;

    #[test]
    fn matches_brute_force_on_random_sets() {
        for seed in [11u64, 12, 13] {
            let set = workload::random_discrete_set(60, 5, 8.0, seed);
            let idx = DiscreteNonzeroIndex::build(&set);
            for q in workload::random_queries(150, 60.0, seed ^ 0xaaaa) {
                let mut got = idx.query(q);
                let mut brute = nonzero_nn_discrete(&set, q);
                got.sort_unstable();
                brute.sort_unstable();
                assert_eq!(got, brute, "q = {q}");
            }
        }
    }

    #[test]
    fn empty_and_singleton() {
        let idx = DiscreteNonzeroIndex::build(&DiscreteSet::default());
        assert!(idx.query(Point::new(0.0, 0.0)).is_empty());

        let set = DiscreteSet::new(vec![crate::model::DiscreteUncertainPoint::certain(
            Point::new(3.0, 3.0),
        )]);
        let idx = DiscreteNonzeroIndex::build(&set);
        assert_eq!(idx.query(Point::new(0.0, 0.0)), vec![0]);
    }

    #[test]
    fn repeated_queries_reuse_stamps() {
        let set = workload::random_discrete_set(30, 4, 4.0, 77);
        let idx = DiscreteNonzeroIndex::build(&set);
        let q = Point::new(0.0, 0.0);
        let first = idx.query(q);
        for _ in 0..10 {
            assert_eq!(idx.query(q), first);
        }
    }
}
