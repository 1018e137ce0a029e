//! Expected-distance nearest neighbors — the baseline definition of
//! \[AESZ12\] (*Nearest-Neighbor Searching Under Uncertainty I*), which the
//! paper contrasts with quantification probabilities in Section 1.2:
//!
//! > "This NN definition is easier since the expected distance to each
//! > uncertain point can be computed separately ... However, the expected
//! > nearest neighbor is not a good indicator under large uncertainty."
//!
//! [`ExpectedNnIndex`] returns `argmin_i E[d(q, P_i)]` with branch-and-bound
//! acceleration; [`expected_vs_probable_divergence`] constructs the classic
//! mean-vs-median instance where the expected NN and the most-probable NN
//! disagree — the quantitative justification for this paper's harder
//! problem.

use crate::model::{
    distance, ContinuousUncertainPoint, DiscreteSet, DiscreteUncertainPoint, DiskSet,
};
use uncertain_geom::Point;
use uncertain_spatial::KdTree;

/// Expected distance from `q` to a discrete uncertain point: the weighted
/// average `Σ_j w_j ‖q − p_j‖` (exact, `O(k)`).
pub fn expected_dist_discrete(p: &DiscreteUncertainPoint, q: Point) -> f64 {
    p.locations()
        .iter()
        .zip(p.weights())
        .map(|(&loc, &w)| w * q.dist(loc))
        .sum()
}

/// Expected distance from `q` to a continuous uncertain point via the tail
/// formula `E[D] = δ + ∫_δ^Δ (1 − G(r)) dr` with `panels` Simpson panels.
pub fn expected_dist_continuous(p: &ContinuousUncertainPoint, q: Point, panels: usize) -> f64 {
    let lo = p.min_dist(q);
    let hi = p.max_dist(q);
    if hi <= lo {
        return lo;
    }
    lo + distance::simpson(lo, hi, panels, |r| 1.0 - distance::cdf(p, q, r))
}

/// Kind of point set an [`ExpectedNnIndex`] was built over.
enum Payload {
    Discrete(DiscreteSet),
    Continuous(DiskSet),
}

/// Branch-and-bound index for expected-distance nearest-neighbor queries.
///
/// Uses the triangle-inequality sandwich
/// `‖q − c_i‖ − m_i ≤ E[d(q, P_i)] ≤ ‖q − c_i‖ + m_i` with
/// `m_i = E[d(P_i, c_i)]` precomputed per point (`c_i` = mean location /
/// disk center), pruning with a kd-tree over the `c_i`.
pub struct ExpectedNnIndex {
    centers: KdTree,
    /// `m_i` per point.
    slack: Vec<f64>,
    payload: Payload,
    /// Quadrature resolution for continuous points.
    panels: usize,
}

impl ExpectedNnIndex {
    /// Builds over a discrete set (exact expected distances).
    pub fn build_discrete(set: &DiscreteSet) -> Self {
        let centers: Vec<Point> = set
            .points
            .iter()
            .map(|p| {
                let mut c = Point::ORIGIN;
                for (&loc, &w) in p.locations().iter().zip(p.weights()) {
                    c.x += w * loc.x;
                    c.y += w * loc.y;
                }
                c
            })
            .collect();
        let slack: Vec<f64> = set
            .points
            .iter()
            .zip(&centers)
            .map(|(p, &c)| expected_dist_discrete(p, c))
            .collect();
        ExpectedNnIndex {
            centers: KdTree::from_points(&centers),
            slack,
            payload: Payload::Discrete(set.clone()),
            panels: 0,
        }
    }

    /// Builds over a continuous set (`panels`-panel quadrature per exact
    /// evaluation; 256 is plenty for query purposes).
    pub fn build_continuous(set: &DiskSet, panels: usize) -> Self {
        let centers: Vec<Point> = set.points.iter().map(|p| p.region.center).collect();
        let slack: Vec<f64> = set
            .points
            .iter()
            .map(|p| expected_dist_continuous(p, p.region.center, panels))
            .collect();
        ExpectedNnIndex {
            centers: KdTree::from_points(&centers),
            slack,
            payload: Payload::Continuous(set.clone()),
            panels,
        }
    }

    fn exact(&self, i: usize, q: Point) -> f64 {
        match &self.payload {
            Payload::Discrete(s) => expected_dist_discrete(&s.points[i], q),
            Payload::Continuous(s) => expected_dist_continuous(&s.points[i], q, self.panels),
        }
    }

    /// The point minimizing the expected distance, with that distance;
    /// `None` for an empty set. Branch-and-bound: only candidates whose
    /// lower bound beats the best exact value so far are evaluated exactly.
    ///
    /// Pruning uses a small safety margin: a candidate is skipped only when
    /// its f64 lower bound exceeds the incumbent by more than
    /// `PRUNE_MARGIN·(1 + best + d)` — relative to the incumbent *and* the
    /// candidate's center distance `d`, because the rounding error of the
    /// computed bound scales with `ulp(d)`, not with the (possibly tiny)
    /// result. Rounding can therefore never prune the true minimizer, and
    /// the returned value is exactly (bit-for-bit) the minimum of
    /// `expected_dist_*` over the points, the same value a brute-force scan
    /// computes.
    pub fn query(&self, q: Point) -> Option<(usize, f64)> {
        /// Relative pruning slack covering f64 rounding in the lower bound
        /// (a few hundred ulps of headroom at every magnitude).
        const PRUNE_MARGIN: f64 = 1e-9;
        if self.slack.is_empty() {
            return None;
        }
        let mut best: Option<(usize, f64)> = None;
        // Candidates in order of increasing center distance; stop once the
        // lower bound d(q, c_i) − m_i exceeds the best exact value (sound
        // because slack is bounded: all later candidates have larger center
        // distance but arbitrary m_i — so use the global max slack).
        let max_slack = self.slack.iter().copied().fold(0.0f64, f64::max);
        for (_, id, d) in self.centers.nearest_iter(q) {
            if let Some((_, be)) = best {
                if d - max_slack > be + PRUNE_MARGIN * (1.0 + be + d) {
                    break;
                }
            }
            let i = id as usize;
            if let Some((_, be)) = best {
                if d - self.slack[i] > be + PRUNE_MARGIN * (1.0 + be + d) {
                    continue; // per-item lower bound prunes the evaluation
                }
            }
            let e = self.exact(i, q);
            if best.is_none_or(|(_, be)| e < be) {
                best = Some((i, e));
            }
        }
        best
    }

    /// All expected distances (the brute-force reference).
    pub fn all_expected(&self, q: Point) -> Vec<f64> {
        (0..self.slack.len()).map(|i| self.exact(i, q)).collect()
    }
}

/// Builds the mean-vs-median divergence instance: returns `(set, q)` where
/// the *expected-distance* NN is `P_0` but the *most-probable* NN is `P_1`
/// (`π_1 > π_0`), demonstrating the paper's motivation for quantification
/// probabilities over expected distances.
pub fn expected_vs_probable_divergence() -> (DiscreteSet, Point) {
    let q = Point::new(0.0, 0.0);
    let set = DiscreteSet::new(vec![
        // P_0: certain at distance 5 → E = 5, beats P_1's mean.
        DiscreteUncertainPoint::certain(Point::new(5.0, 0.0)),
        // P_1: usually at distance 1, occasionally at distance 20:
        //   E = 0.51·1 + 0.49·20 = 10.31 > 5, but P(d < 5) = 0.51.
        DiscreteUncertainPoint::new(
            vec![Point::new(1.0, 0.0), Point::new(20.0, 0.0)],
            vec![0.51, 0.49],
        ),
    ]);
    (set, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantification::exact::quantification_discrete;
    use crate::workload;

    #[test]
    fn discrete_expected_distance_is_weighted_average() {
        let p = DiscreteUncertainPoint::new(
            vec![Point::new(3.0, 0.0), Point::new(0.0, 4.0)],
            vec![0.25, 0.75],
        );
        let e = expected_dist_discrete(&p, Point::new(0.0, 0.0));
        assert!((e - (0.25 * 3.0 + 0.75 * 4.0)).abs() < 1e-12);
    }

    #[test]
    fn continuous_expected_distance_sanity() {
        // Uniform disk of radius R around c, q = c: E[D] = 2R/3.
        let p = ContinuousUncertainPoint::uniform(uncertain_geom::Circle::new(
            Point::new(0.0, 0.0),
            3.0,
        ));
        let e = expected_dist_continuous(&p, Point::new(0.0, 0.0), 2048);
        assert!((e - 2.0).abs() < 1e-3, "E = {e}");
        // Far away: E ≈ distance to center.
        let far = Point::new(1000.0, 0.0);
        let e = expected_dist_continuous(&p, far, 2048);
        assert!((e - 1000.0).abs() < 0.01, "E = {e}");
    }

    #[test]
    fn index_matches_brute_force_discrete() {
        let set = workload::random_discrete_set(60, 4, 6.0, 5);
        let idx = ExpectedNnIndex::build_discrete(&set);
        for q in workload::random_queries(80, 60.0, 6) {
            let (i, e) = idx.query(q).unwrap();
            let brute: Vec<f64> = set
                .points
                .iter()
                .map(|p| expected_dist_discrete(p, q))
                .collect();
            let best = brute.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!((e - best).abs() < 1e-9, "at {q}");
            assert!((brute[i] - best).abs() < 1e-9);
        }
    }

    #[test]
    fn index_matches_brute_force_continuous() {
        let set = workload::random_disk_set(25, 0.5, 2.5, 11);
        let idx = ExpectedNnIndex::build_continuous(&set, 256);
        for q in workload::random_queries(30, 60.0, 12) {
            let (i, e) = idx.query(q).unwrap();
            let brute = idx.all_expected(q);
            let best = brute.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!((e - best).abs() < 1e-9, "at {q}");
            assert!((brute[i] - best).abs() < 1e-9);
        }
    }

    #[test]
    fn query_matches_brute_bitwise() {
        let set = workload::random_discrete_set(50, 3, 5.0, 21);
        let idx = ExpectedNnIndex::build_discrete(&set);
        for q in workload::random_queries(40, 60.0, 22) {
            let (i, e) = idx.query(q).unwrap();
            let brute: Vec<f64> = set
                .points
                .iter()
                .map(|p| expected_dist_discrete(p, q))
                .collect();
            let best = brute.iter().copied().fold(f64::INFINITY, f64::min);
            // The safe pruning margin makes the b&b minimum bit-identical
            // to the brute scan minimum.
            assert_eq!(e.to_bits(), best.to_bits(), "at {q}");
            assert_eq!(brute[i].to_bits(), best.to_bits(), "witness at {q}");
        }
    }

    #[test]
    fn divergence_instance_diverges() {
        let (set, q) = expected_vs_probable_divergence();
        // Expected-distance NN: P_0.
        let idx = ExpectedNnIndex::build_discrete(&set);
        let (expected_winner, _) = idx.query(q).unwrap();
        assert_eq!(expected_winner, 0);
        // Most-probable NN: P_1.
        let pi = quantification_discrete(&set, q);
        assert!(pi[1] > pi[0], "π = {pi:?}");
        assert!((pi[1] - 0.51).abs() < 1e-12);
    }

    #[test]
    fn empty_index() {
        let idx = ExpectedNnIndex::build_discrete(&DiscreteSet::default());
        assert!(idx.query(Point::new(0.0, 0.0)).is_none());
    }
}
