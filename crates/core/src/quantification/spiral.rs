//! Spiral search (Section 4.3, Lemma 4.6 / Theorem 4.7).
//!
//! For discrete uncertain points whose location-probability spread is
//! `ρ = max w / min w`, the `m(ρ, ε) = ⌈ρ·k·ln(1/ε)⌉ + k − 1` locations
//! nearest to the query already determine every `π_i(q)` up to additive
//! error `ε`: any location behind them is blocked by so much probability
//! mass that its contribution is below `ε` (Lemma 4.6). The estimate `π̂_i`
//! computed from the truncated set *underestimates*:
//! `π̂_i(q) ≤ π_i(q) ≤ π̂_i(q) + ε`.
//!
//! Retrieval uses a best-first incremental k-nearest-neighbor iterator over
//! a kd-tree (the paper's own Remark (ii) recommends exactly this kind of
//! practical substitute for the optimal but unimplementable structure of
//! \[AC09\]).
//!
//! The module also reproduces the Remark (i) counterexample showing that the
//! tempting alternative — simply ignoring locations with weight `< ε/k` —
//! can corrupt other points' probabilities by more than `2ε`.

use crate::model::{DiscreteSet, DiscreteUncertainPoint};
use crate::quantification::sweep::{self, SortedSlab, SweepEntry};
use uncertain_geom::Point;
use uncertain_spatial::KdTree;

/// Deterministic additive-ε quantification structure (Theorem 4.7).
///
/// ```
/// use uncertain_geom::Point;
/// use uncertain_nn::model::{DiscreteSet, DiscreteUncertainPoint};
/// use uncertain_nn::quantification::SpiralSearch;
///
/// let set = DiscreteSet::new(vec![
///     DiscreteUncertainPoint::uniform(vec![Point::new(0.0, 0.0), Point::new(8.0, 0.0)]),
///     DiscreteUncertainPoint::certain(Point::new(3.0, 0.0)),
/// ]);
/// let spiral = SpiralSearch::build(&set);
/// let pi = spiral.estimate_all(Point::new(1.0, 0.0), 0.01);
/// assert!((pi[0] - 0.5).abs() <= 0.01); // P_0 wins iff it sits at the origin
/// ```
pub struct SpiralSearch {
    kd: KdTree,
    /// Flattened weights; payloads in `kd` index into this and `owner`.
    weights: Vec<f64>,
    owner: Vec<u32>,
    n: usize,
    k_max: usize,
    rho: f64,
}

impl SpiralSearch {
    /// Builds the structure. `O(N log N)`.
    pub fn build(set: &DiscreteSet) -> Self {
        let mut weights = vec![];
        let mut owner = vec![];
        let mut items = vec![];
        for (i, _, loc, w) in set.all_locations() {
            items.push((loc, weights.len() as u32));
            weights.push(w);
            owner.push(i as u32);
        }
        SpiralSearch {
            kd: KdTree::build(items),
            weights,
            owner,
            n: set.len(),
            k_max: set.max_k(),
            rho: set.spread(),
        }
    }

    /// The retrieval budget `m(ρ, ε) = ⌈ρ k ln(1/ε)⌉ + k − 1` (Section 4.3).
    pub fn retrieval_budget(&self, eps: f64) -> usize {
        assert!(eps > 0.0 && eps < 1.0);
        let m = (self.rho * self.k_max as f64 * (1.0 / eps).ln()).ceil() as usize;
        (m + self.k_max.saturating_sub(1)).min(self.weights.len())
    }

    /// The probability spread `ρ` of the indexed set.
    pub fn spread(&self) -> f64 {
        self.rho
    }

    /// Estimates all `π_i(q)` within additive error `ε`: dense vector, with
    /// unretrieved points implicitly 0. `O(m log N)` per query with
    /// `m = m(ρ, ε)`.
    pub fn estimate_all(&self, q: Point, eps: f64) -> Vec<f64> {
        let m = self.retrieval_budget(eps);
        self.estimate_with_budget(q, m)
    }

    /// Like [`estimate_all`](Self::estimate_all) but with an explicit
    /// retrieval budget (used by the experiments to chart error vs. m).
    pub fn estimate_with_budget(&self, q: Point, m: usize) -> Vec<f64> {
        if self.weights.is_empty() {
            return vec![0.0f64; self.n];
        }
        // Retrieve the m nearest locations — plus all ties at the cutoff
        // distance, so the sweep's `≤` semantics stay exact.
        let mut retrieved: Vec<(f64, u32)> = Vec::with_capacity(m + 4);
        let mut iter = self.kd.nearest_iter(q);
        for (_, id, d) in iter.by_ref() {
            if retrieved.len() >= m && d > retrieved.last().map_or(0.0, |&(dd, _)| dd) {
                break;
            }
            retrieved.push((d, id));
        }
        // Same sweep core as the exact Eq. (2) evaluator, over the
        // truncated entry stream. The kd iterator yields non-decreasing
        // distances, so the slab's stable sort keeps the retrieval order
        // within ties — the entry sequence (and hence every output bit) is
        // unchanged from an inline sweep over `retrieved`.
        let entries: Vec<SweepEntry> = retrieved
            .iter()
            .map(|&(d, rid)| {
                (
                    d,
                    self.owner[rid as usize] as usize,
                    self.weights[rid as usize],
                )
            })
            .collect();
        let mut slab = SortedSlab::new(entries);
        sweep::sweep(&mut slab, self.n)
    }

    /// Sparse estimates `(i, π̂_i)` with `π̂_i > 0`, sorted descending.
    pub fn estimate_sparse(&self, q: Point, eps: f64) -> Vec<(usize, f64)> {
        let mut out: Vec<(usize, f64)> = self
            .estimate_all(q, eps)
            .into_iter()
            .enumerate()
            .filter(|&(_, v)| v > 0.0)
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        out
    }
}

/// The Remark (i) counterexample: an instance where dropping all locations
/// of weight `< ε/k` flips the ranking of the two most-probable nearest
/// neighbors by more than `2ε`. Returns `(set, query)`; `P_0` is the point
/// that truly has the higher probability.
pub fn low_weight_counterexample(n: usize, eps: f64) -> (DiscreteSet, Point) {
    assert!(n >= 6 && eps > 0.0 && eps < 0.1);
    // The swarm weight 2/n must fall below the naive threshold ε/k = ε/2.
    assert!(
        n as f64 > 4.0 / eps,
        "need n > 4/ε for the swarm to be truncated"
    );
    let q = Point::new(0.0, 0.0);
    let far = Point::new(1000.0, 0.0); // "elsewhere" for the residual mass
    let mut points = vec![];
    // P_0: nearest location p1 at distance 1, weight 3ε.
    points.push(DiscreteUncertainPoint::new(
        vec![Point::new(1.0, 0.0), far],
        vec![3.0 * eps, 1.0 - 3.0 * eps],
    ));
    // P_1: location p2 just behind the swarm, weight 5ε.
    points.push(DiscreteUncertainPoint::new(
        vec![Point::new(3.0, 0.0), far],
        vec![5.0 * eps, 1.0 - 5.0 * eps],
    ));
    // n/2 "swarm" points between them, each with weight 2/n ≪ ε at
    // distance 2.
    let swarm = n / 2;
    for s in 0..swarm {
        let angle = std::f64::consts::TAU * (s as f64) / (swarm as f64);
        let loc = Point::new(2.0 * angle.cos(), 2.0 * angle.sin());
        let w = 2.0 / n as f64;
        points.push(DiscreteUncertainPoint::new(
            vec![loc, far],
            vec![w, 1.0 - w],
        ));
    }
    (DiscreteSet::new(points), q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantification::exact::quantification_discrete;
    use crate::workload;

    #[test]
    fn estimates_within_eps_of_exact() {
        for seed in [1u64, 2] {
            let set = workload::random_discrete_set(30, 4, 6.0, seed);
            let ss = SpiralSearch::build(&set);
            for eps in [0.2, 0.05, 0.01] {
                for q in workload::random_queries(40, 60.0, seed ^ 7) {
                    let exact = quantification_discrete(&set, q);
                    let est = ss.estimate_all(q, eps);
                    for i in 0..set.len() {
                        let diff = exact[i] - est[i];
                        // One-sided: truncation only *under*estimates.
                        assert!(
                            (-1e-9..=eps + 1e-9).contains(&diff),
                            "i={i} eps={eps} q={q}: est {} exact {}",
                            est[i],
                            exact[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn high_spread_needs_larger_budget() {
        // Large sets so the budget is not clipped by the total location
        // count.
        let lo = workload::spread_discrete_set(200, 3, 1.0, 5);
        let hi = workload::spread_discrete_set(200, 3, 32.0, 5);
        let ss_lo = SpiralSearch::build(&lo);
        let ss_hi = SpiralSearch::build(&hi);
        assert!(ss_hi.retrieval_budget(0.05) > 4 * ss_lo.retrieval_budget(0.05));
    }

    #[test]
    fn full_budget_reproduces_exact() {
        let set = workload::random_discrete_set(12, 3, 5.0, 9);
        let ss = SpiralSearch::build(&set);
        let m = set.total_locations();
        for q in workload::random_queries(20, 50.0, 10) {
            let exact = quantification_discrete(&set, q);
            let est = ss.estimate_with_budget(q, m);
            for i in 0..set.len() {
                assert!((exact[i] - est[i]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn counterexample_flips_ranking_under_naive_truncation() {
        let eps = 0.01;
        let (set, q) = low_weight_counterexample(2000, eps);
        let exact = quantification_discrete(&set, q);
        // Ground truth (paper's Remark): π_0 ≈ 3ε beats π_1 < 2ε... more
        // precisely π_1 = 5ε(1−3ε)(1−2/n)^{n/2} < 5ε/e^{1·...} — just assert
        // the ordering and the naive flip.
        assert!(
            exact[0] > exact[1],
            "exact: π_0 {} must beat π_1 {}",
            exact[0],
            exact[1]
        );
        // Naive truncation: drop all locations with weight < ε/k (the swarm)
        // and recompute — P_1 now *appears* more probable.
        let k = set.max_k();
        let naive = DiscreteSet::new(
            set.points
                .iter()
                .map(|p| {
                    let kept: Vec<(Point, f64)> = p
                        .locations()
                        .iter()
                        .zip(p.weights())
                        .filter(|&(_, &w)| w >= eps / k as f64)
                        .map(|(&l, &w)| (l, w))
                        .collect();
                    let (locs, ws): (Vec<Point>, Vec<f64>) = kept.into_iter().unzip();
                    DiscreteUncertainPoint::new(locs, ws)
                })
                .collect(),
        );
        let broken = quantification_discrete(&naive, q);
        assert!(
            broken[1] > broken[0],
            "naive truncation should flip the ranking: {} vs {}",
            broken[0],
            broken[1]
        );
        // The spiral search at the same ε keeps the correct ranking.
        let ss = SpiralSearch::build(&set);
        let est = ss.estimate_all(q, eps);
        assert!(
            est[0] > est[1],
            "spiral search must preserve the ranking: {} vs {}",
            est[0],
            est[1]
        );
    }

    #[test]
    fn budget_formula() {
        // Large enough that the budget is not clipped at `total_locations()`
        // (the weight spread ρ can reach 5 with uniform weights in 0.2..1.0,
        // giving m(ρ, 0.01) up to ⌈5·4·ln 100⌉ + 3 = 96 locations).
        let set = workload::random_discrete_set(100, 4, 5.0, 3);
        let ss = SpiralSearch::build(&set);
        let m1 = ss.retrieval_budget(0.1);
        let m2 = ss.retrieval_budget(0.01);
        assert!(m2 > m1);
        assert!(m2 <= set.total_locations());
    }
}
