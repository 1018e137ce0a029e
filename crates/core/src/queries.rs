//! High-level probabilistic-NN query API.
//!
//! The paper's related work answers several query shapes on top of the
//! quantification probabilities:
//!
//! * **threshold queries** ([DYM+05]): report every `P_i` with
//!   `π_i(q) ≥ τ`;
//! * **top-k probable NNs** (\[BSI08\]): the `k` points of largest `π_i(q)`;
//! * **most-probable NN**: the `k = 1` special case.
//!
//! [`Quantifier`] abstracts over the four engines of Section 4 (exact sweep,
//! `V_Pr`, Monte Carlo, spiral search) so the query layer is engine-agnostic
//! and carries each engine's error guarantee explicitly — a threshold query
//! on an additive-ε engine returns every point with `π̂_i ≥ τ − ε`
//! (no false negatives at threshold `τ`).

use crate::model::DiscreteSet;
use crate::quantification::exact::quantification_discrete;
use crate::quantification::monte_carlo::MonteCarloPnn;
use crate::quantification::spiral::SpiralSearch;
use crate::quantification::vpr::ProbabilisticVoronoiDiagram;
use uncertain_geom::Point;

/// What an engine promises about its estimates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Guarantee {
    /// Estimates are exact (up to f64 rounding).
    Exact,
    /// `|π̂ − π| ≤ ε` deterministically (possibly one-sided: `π̂ ≤ π`).
    Additive(f64),
    /// `|π̂ − π| ≤ ε` with probability ≥ 1 − δ.
    Probabilistic { eps: f64, delta: f64 },
}

impl Guarantee {
    /// The additive slack callers must allow for (0 for exact engines).
    pub fn slack(&self) -> f64 {
        match *self {
            Guarantee::Exact => 0.0,
            Guarantee::Additive(e) => e,
            Guarantee::Probabilistic { eps, .. } => eps,
        }
    }
}

/// A quantification engine: estimates all `π_i(q)`.
pub trait Quantifier {
    /// Dense estimates, one per uncertain point.
    fn estimate_all(&self, q: Point) -> Vec<f64>;

    /// The engine's error guarantee.
    fn guarantee(&self) -> Guarantee;
}

/// The exact Eq. (2) sweep as an engine.
pub struct ExactQuantifier<'a>(pub &'a DiscreteSet);

impl Quantifier for ExactQuantifier<'_> {
    fn estimate_all(&self, q: Point) -> Vec<f64> {
        quantification_discrete(self.0, q)
    }
    fn guarantee(&self) -> Guarantee {
        Guarantee::Exact
    }
}

impl Quantifier for ProbabilisticVoronoiDiagram {
    fn estimate_all(&self, q: Point) -> Vec<f64> {
        let sparse = self.query(q);
        let n = sparse.iter().map(|&(i, _)| i + 1).max().unwrap_or(0);
        // The diagram knows its set size only implicitly; grow as needed.
        let mut dense = vec![0.0; n];
        for (i, p) in sparse {
            if i >= dense.len() {
                dense.resize(i + 1, 0.0);
            }
            dense[i] = p;
        }
        dense
    }
    fn guarantee(&self) -> Guarantee {
        Guarantee::Exact
    }
}

impl Quantifier for MonteCarloPnn {
    fn estimate_all(&self, q: Point) -> Vec<f64> {
        MonteCarloPnn::estimate_all(self, q)
    }
    fn guarantee(&self) -> Guarantee {
        // The caller sized `s`; report the per-query Chernoff bound at the
        // conventional δ = 0.05 for the stored sample count.
        let s = self.num_samples() as f64;
        let eps = ((2.0f64 / 0.05).ln() / (2.0 * s)).sqrt();
        Guarantee::Probabilistic { eps, delta: 0.05 }
    }
}

/// Spiral search bound to a fixed tolerance.
pub struct SpiralQuantifier<'a> {
    pub engine: &'a SpiralSearch,
    pub eps: f64,
}

impl Quantifier for SpiralQuantifier<'_> {
    fn estimate_all(&self, q: Point) -> Vec<f64> {
        self.engine.estimate_all(q, self.eps)
    }
    fn guarantee(&self) -> Guarantee {
        Guarantee::Additive(self.eps)
    }
}

/// The most probable nearest neighbor: `(index, π̂)`.
pub fn most_probable_nn<Q: Quantifier + ?Sized>(engine: &Q, q: Point) -> Option<(usize, f64)> {
    engine
        .estimate_all(q)
        .into_iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .filter(|&(_, p)| p > 0.0)
}

/// Threshold query ([DYM+05]): every point that *may* satisfy `π_i ≥ τ`
/// given the engine's guarantee (i.e. `π̂_i ≥ τ − slack`). Sorted by
/// decreasing estimate. No false negatives at threshold `τ`; false
/// positives are at most `2·slack` below the threshold.
pub fn threshold_nn<Q: Quantifier + ?Sized>(engine: &Q, q: Point, tau: f64) -> Vec<(usize, f64)> {
    let slack = engine.guarantee().slack();
    let mut out: Vec<(usize, f64)> = engine
        .estimate_all(q)
        .into_iter()
        .enumerate()
        .filter(|&(_, p)| p >= tau - slack)
        .collect();
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    out
}

/// Top-k probable NNs (\[BSI08\]): the `k` largest estimates (ties broken by
/// index), sorted by decreasing probability.
pub fn top_k_probable<Q: Quantifier + ?Sized>(engine: &Q, q: Point, k: usize) -> Vec<(usize, f64)> {
    let mut all: Vec<(usize, f64)> = engine
        .estimate_all(q)
        .into_iter()
        .enumerate()
        .filter(|&(_, p)| p > 0.0)
        .collect();
    all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uncertain_geom::Aabb;

    #[test]
    fn engines_agree_on_most_probable() {
        let set = workload::random_discrete_set(10, 3, 8.0, 3);
        let exact = ExactQuantifier(&set);
        let mut rng = StdRng::seed_from_u64(1);
        let mc = crate::quantification::MonteCarloPnn::build_discrete(
            &set,
            4000,
            crate::quantification::SampleBackend::KdTree,
            &mut rng,
        );
        let ss = SpiralSearch::build(&set);
        let spiral = SpiralQuantifier {
            engine: &ss,
            eps: 0.01,
        };
        for q in workload::random_queries(30, 60.0, 2) {
            let (i0, p0) = most_probable_nn(&exact, q).unwrap();
            // Other engines pick a winner whose exact probability is within
            // their slack of the optimum.
            let pi = exact.estimate_all(q);
            for (winner, _) in [
                most_probable_nn(&mc, q).unwrap(),
                most_probable_nn(&spiral, q).unwrap(),
            ] {
                assert!(
                    pi[winner] >= p0 - 0.06,
                    "winner {winner} has π = {} vs best {} (= point {i0})",
                    pi[winner],
                    p0
                );
            }
        }
    }

    #[test]
    fn threshold_has_no_false_negatives() {
        let set = workload::random_discrete_set(15, 3, 6.0, 7);
        let exact = ExactQuantifier(&set);
        let ss = SpiralSearch::build(&set);
        let spiral = SpiralQuantifier {
            engine: &ss,
            eps: 0.05,
        };
        let tau = 0.2;
        for q in workload::random_queries(40, 60.0, 8) {
            let truth: Vec<usize> = exact
                .estimate_all(q)
                .into_iter()
                .enumerate()
                .filter(|&(_, p)| p >= tau)
                .map(|(i, _)| i)
                .collect();
            let reported: Vec<usize> = threshold_nn(&spiral, q, tau)
                .into_iter()
                .map(|(i, _)| i)
                .collect();
            for i in truth {
                assert!(reported.contains(&i), "π_{i} ≥ τ missing at {q}");
            }
        }
    }

    #[test]
    fn top_k_is_sorted_prefix() {
        let set = workload::random_discrete_set(12, 3, 5.0, 9);
        let exact = ExactQuantifier(&set);
        let q = Point::new(0.0, 0.0);
        let top3 = top_k_probable(&exact, q, 3);
        let top5 = top_k_probable(&exact, q, 5);
        assert!(top3.len() <= 3);
        assert_eq!(&top5[..top3.len()], &top3[..]);
        for w in top5.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn vpr_engine_is_exact() {
        let set = workload::random_discrete_set(5, 2, 6.0, 4);
        let bbox = Aabb::from_corners(Point::new(-40.0, -40.0), Point::new(40.0, 40.0));
        let vpr = ProbabilisticVoronoiDiagram::build(&set, &bbox);
        assert_eq!(vpr.guarantee(), Guarantee::Exact);
        let exact = ExactQuantifier(&set);
        for q in workload::random_queries(40, 60.0, 5) {
            let a = most_probable_nn(&vpr, q);
            let b = most_probable_nn(&exact, q);
            match (a, b) {
                (Some((ia, pa)), Some((ib, pb))) => {
                    assert!((pa - pb).abs() < 1e-6);
                    // Ties may resolve differently; probabilities must match.
                    let pi = exact.estimate_all(q);
                    assert!((pi[ia] - pi[ib]).abs() < 1e-6);
                }
                (None, None) => {}
                other => panic!("engines disagree on existence: {other:?}"),
            }
        }
    }

    #[test]
    fn guarantee_slacks() {
        assert_eq!(Guarantee::Exact.slack(), 0.0);
        assert_eq!(Guarantee::Additive(0.1).slack(), 0.1);
        assert!(
            (Guarantee::Probabilistic {
                eps: 0.2,
                delta: 0.1
            }
            .slack()
                - 0.2)
                .abs()
                < 1e-15
        );
    }
}
