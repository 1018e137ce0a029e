//! Discrete uncertain points: finitely many weighted locations.

use rand::Rng;
use uncertain_geom::Point;

/// A discrete uncertain point `P_i = {p_i1, …, p_ik}` with location
/// probabilities `w_ij ∈ (0, 1]`, `Σ_j w_ij = 1` (description complexity `k`).
#[derive(Clone, Debug, PartialEq)]
pub struct DiscreteUncertainPoint {
    locations: Vec<Point>,
    weights: Vec<f64>,
    /// Cumulative weights for O(log k) sampling.
    cumulative: Vec<f64>,
}

impl DiscreteUncertainPoint {
    /// Builds a discrete uncertain point; weights are normalized to sum to 1
    /// and must all be positive.
    ///
    /// # Panics
    /// If `locations` is empty, lengths mismatch, any weight is ≤ 0, or the
    /// weights do not [normalize](Self::normalized_weights).
    pub fn new(locations: Vec<Point>, weights: Vec<f64>) -> Self {
        assert!(!locations.is_empty(), "empty discrete uncertain point");
        assert_eq!(locations.len(), weights.len(), "length mismatch");
        assert!(
            weights.iter().all(|&w| w > 0.0),
            "weights must be positive (drop zero-probability locations)"
        );
        let weights = Self::normalized_weights(&weights)
            .expect("weights must normalize to positive probabilities");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in &weights {
            acc += w;
            cumulative.push(acc);
        }
        *cumulative.last_mut().unwrap() = 1.0;
        DiscreteUncertainPoint {
            locations,
            weights,
            cumulative,
        }
    }

    /// `weights` divided by their sum; `None` unless the sum is finite and
    /// every quotient is `> 0` (a huge sum can overflow, a tiny weight can
    /// underflow against it).
    pub fn normalized_weights(weights: &[f64]) -> Option<Vec<f64>> {
        let total: f64 = weights.iter().sum();
        let normalized: Vec<f64> = weights.iter().map(|w| w / total).collect();
        (total.is_finite() && normalized.iter().all(|&w| w > 0.0)).then_some(normalized)
    }

    /// Uniform location probabilities.
    pub fn uniform(locations: Vec<Point>) -> Self {
        let k = locations.len();
        Self::new(locations, vec![1.0; k])
    }

    /// A certain (single-location) point.
    pub fn certain(p: Point) -> Self {
        Self::new(vec![p], vec![1.0])
    }

    pub fn k(&self) -> usize {
        self.locations.len()
    }

    pub fn locations(&self) -> &[Point] {
        &self.locations
    }

    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// `δ_i(q)`: distance to the nearest location.
    pub fn min_dist(&self, q: Point) -> f64 {
        self.locations
            .iter()
            .map(|&p| q.dist(p))
            .fold(f64::INFINITY, f64::min)
    }

    /// `Δ_i(q)`: distance to the farthest location.
    pub fn max_dist(&self, q: Point) -> f64 {
        self.locations
            .iter()
            .map(|&p| q.dist(p))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Distance cdf `G_{q,i}(r) = Σ_{‖p_ij − q‖ ≤ r} w_ij` (Eq. (2)).
    pub fn cdf_dist(&self, q: Point, r: f64) -> f64 {
        self.locations
            .iter()
            .zip(&self.weights)
            .filter(|(&p, _)| q.dist(p) <= r)
            .map(|(_, &w)| w)
            .sum()
    }

    /// Draws a location.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        let u: f64 = rng.gen();
        let idx = self.cumulative.partition_point(|&c| c < u);
        self.locations[idx.min(self.locations.len() - 1)]
    }

    /// Ratio of the largest to the smallest location probability.
    pub fn spread(&self) -> f64 {
        let max = self.weights.iter().fold(0.0f64, |a, &b| a.max(b));
        let min = self.weights.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        max / min
    }
}

/// A set of discrete uncertain points — the input `P` of the paper's
/// discrete case (`N = Σ k_i` total locations).
#[derive(Clone, Debug, Default)]
pub struct DiscreteSet {
    pub points: Vec<DiscreteUncertainPoint>,
}

impl DiscreteSet {
    pub fn new(points: Vec<DiscreteUncertainPoint>) -> Self {
        DiscreteSet { points }
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Maximum description complexity `k = max_i k_i`.
    pub fn max_k(&self) -> usize {
        self.points.iter().map(|p| p.k()).max().unwrap_or(0)
    }

    /// Total number of locations `N`.
    pub fn total_locations(&self) -> usize {
        self.points.iter().map(|p| p.k()).sum()
    }

    /// The spread `ρ` of location probabilities over the whole set (Eq. (9)).
    pub fn spread(&self) -> f64 {
        let mut max = 0.0f64;
        let mut min = f64::INFINITY;
        for p in &self.points {
            for &w in p.weights() {
                max = max.max(w);
                min = min.min(w);
            }
        }
        if min.is_finite() && min > 0.0 {
            max / min
        } else {
            f64::INFINITY
        }
    }

    /// All `(point index, location index, location, weight)` tuples.
    pub fn all_locations(&self) -> impl Iterator<Item = (usize, usize, Point, f64)> + '_ {
        self.points.iter().enumerate().flat_map(|(i, p)| {
            p.locations()
                .iter()
                .zip(p.weights())
                .enumerate()
                .map(move |(j, (&loc, &w))| (i, j, loc, w))
        })
    }

    /// One random instantiation of the whole set.
    pub fn sample_instance<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<Point> {
        self.points.iter().map(|p| p.sample(rng)).collect()
    }

    /// Discretizes a continuous set by sampling `k` locations per point with
    /// uniform weights — the reduction behind Lemma 4.4 / Theorem 4.5: with
    /// `k = O((n/ε)² log(n/δ))` samples per point, every quantification
    /// probability of the discretized set is within `ε/2` of the continuous
    /// one (w.p. ≥ 1 − δ), so discrete machinery (spiral search, `V_Pr`)
    /// applies to continuous inputs.
    pub fn from_continuous<R: Rng + ?Sized>(
        set: &crate::model::DiskSet,
        k: usize,
        rng: &mut R,
    ) -> Self {
        assert!(k >= 1);
        DiscreteSet::new(
            set.points
                .iter()
                .map(|p| {
                    let locs: Vec<Point> = (0..k).map(|_| p.sample(rng)).collect();
                    DiscreteUncertainPoint::uniform(locs)
                })
                .collect(),
        )
    }

    /// The per-point sample count `k(α) = (c/α²)·ln(1/δ')` from Lemma 4.4
    /// (with the constant `c` = 1/2, the Dvoretzky–Kiefer–Wolfowitz value,
    /// and `α = ε/(2n)`, `δ' = δ/(2n)` as in the Theorem 4.5 proof).
    pub fn discretization_k(n: usize, eps: f64, delta: f64) -> usize {
        assert!(eps > 0.0 && delta > 0.0);
        let alpha = eps / (2.0 * n as f64);
        let dp = delta / (2.0 * n as f64);
        ((0.5 / (alpha * alpha)) * (1.0 / dp).ln()).ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn normalization_and_spread() {
        let d = DiscreteUncertainPoint::new(vec![p(0.0, 0.0), p(1.0, 0.0)], vec![3.0, 1.0]);
        assert!((d.weights()[0] - 0.75).abs() < 1e-15);
        assert!((d.weights()[1] - 0.25).abs() < 1e-15);
        assert_eq!(d.spread(), 3.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        DiscreteUncertainPoint::new(vec![p(0.0, 0.0)], vec![0.0]);
    }

    #[test]
    fn distances_and_cdf() {
        let d = DiscreteUncertainPoint::new(
            vec![p(0.0, 0.0), p(4.0, 0.0), p(0.0, 3.0)],
            vec![0.5, 0.25, 0.25],
        );
        let q = p(0.0, 0.0);
        assert_eq!(d.min_dist(q), 0.0);
        assert_eq!(d.max_dist(q), 4.0);
        assert_eq!(d.cdf_dist(q, 0.0), 0.5);
        assert_eq!(d.cdf_dist(q, 3.0), 0.75); // ties at r included (≤)
        assert_eq!(d.cdf_dist(q, 10.0), 1.0);
    }

    #[test]
    fn sampling_matches_weights() {
        let d = DiscreteUncertainPoint::new(vec![p(0.0, 0.0), p(1.0, 0.0)], vec![0.8, 0.2]);
        let mut rng = StdRng::seed_from_u64(99);
        let n = 50_000;
        let heavy = (0..n).filter(|_| d.sample(&mut rng) == p(0.0, 0.0)).count();
        let frac = heavy as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn set_accounting() {
        let set = DiscreteSet::new(vec![
            DiscreteUncertainPoint::uniform(vec![p(0.0, 0.0), p(1.0, 0.0)]),
            DiscreteUncertainPoint::new(vec![p(5.0, 5.0)], vec![1.0]),
            DiscreteUncertainPoint::new(
                vec![p(2.0, 0.0), p(3.0, 0.0), p(4.0, 0.0)],
                vec![0.5, 0.25, 0.25],
            ),
        ]);
        assert_eq!(set.len(), 3);
        assert_eq!(set.max_k(), 3);
        assert_eq!(set.total_locations(), 6);
        assert_eq!(set.all_locations().count(), 6);
        assert_eq!(set.spread(), 4.0); // 1.0 / 0.25
    }
}

#[cfg(test)]
mod discretization_tests {
    use super::*;
    use crate::quantification::exact::{quantification_continuous, quantification_discrete};
    use crate::workload;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn discretized_quantification_approaches_continuous() {
        let set = workload::random_disk_set(5, 0.8, 2.0, 71);
        let mut rng = StdRng::seed_from_u64(72);
        // Modest k suffices empirically for a loose tolerance.
        let disc = DiscreteSet::from_continuous(&set, 600, &mut rng);
        assert_eq!(disc.len(), set.len());
        assert_eq!(disc.max_k(), 600);
        for q in workload::random_queries(5, 40.0, 73) {
            let cont = quantification_continuous(&set, q, 2048);
            let discr = quantification_discrete(&disc, q);
            for i in 0..set.len() {
                assert!(
                    (cont[i] - discr[i]).abs() < 0.08,
                    "π_{i} at {q}: continuous {} vs discretized {}",
                    cont[i],
                    discr[i]
                );
            }
        }
    }

    #[test]
    fn discretization_k_formula_scales() {
        let k1 = DiscreteSet::discretization_k(10, 0.1, 0.05);
        let k2 = DiscreteSet::discretization_k(10, 0.05, 0.05);
        assert!(k2 > 3 * k1, "halving ε must ~quadruple k: {k1} → {k2}");
        let k3 = DiscreteSet::discretization_k(20, 0.1, 0.05);
        assert!(k3 > 3 * k1, "doubling n must ~quadruple k: {k1} → {k3}");
    }
}
