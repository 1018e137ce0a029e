//! The probabilistic Voronoi diagram `V_Pr(P)` (Section 4.1, Theorem 4.2).
//!
//! For discrete uncertain points, all quantification probabilities are
//! constant on every face of the arrangement of the `O(N²)` perpendicular
//! bisectors of location pairs (the distance *order* to all `N` locations is
//! fixed within a face — Lemma 4.1). Preprocessing therefore:
//!
//! 1. collects all distinct bisector lines;
//! 2. builds a slab point-location structure over them (`O(log N)` query);
//! 3. evaluates the exact Eq. (2) sweep once per cell and deduplicates the
//!    resulting probability vectors.
//!
//! The structure size is `O(N⁴)` — matching the tight bound of Lemma 4.1 —
//! which is why the paper (and this crate) treats `V_Pr` as a small-input
//! exact structure and provides Monte Carlo / spiral search for scale.

use crate::model::DiscreteSet;
use crate::quantification::exact::quantification_discrete;
use std::collections::HashMap;
use uncertain_arrangement::lines::{dedup_lines, Line2};
use uncertain_arrangement::SlabLocator;
use uncertain_geom::{Aabb, Point};

/// Exact quantification queries by point location (Theorem 4.2).
///
/// ```
/// use uncertain_geom::{Aabb, Point};
/// use uncertain_nn::model::{DiscreteSet, DiscreteUncertainPoint};
/// use uncertain_nn::quantification::ProbabilisticVoronoiDiagram;
///
/// let set = DiscreteSet::new(vec![
///     DiscreteUncertainPoint::uniform(vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)]),
///     DiscreteUncertainPoint::certain(Point::new(5.0, 0.0)),
/// ]);
/// let bbox = Aabb::from_corners(Point::new(-10.0, -10.0), Point::new(10.0, 10.0));
/// let vpr = ProbabilisticVoronoiDiagram::build(&set, &bbox);
/// let pi = vpr.query(Point::new(0.5, 0.0)); // sparse (index, π) pairs
/// let total: f64 = pi.iter().map(|&(_, p)| p).sum();
/// assert!((total - 1.0).abs() < 1e-9);
/// ```
pub struct ProbabilisticVoronoiDiagram {
    locator: SlabLocator,
    /// Per cell: index into `vectors` (deduplicated probability vectors).
    cell_vector: Vec<u32>,
    /// Sparse probability vectors `(i, π_i)`, sorted by point index.
    vectors: Vec<Vec<(usize, f64)>>,
    /// Fallback for out-of-box queries.
    set: DiscreteSet,
    bbox: Aabb,
    num_bisectors: usize,
}

impl ProbabilisticVoronoiDiagram {
    /// Builds the diagram, valid for queries inside `bbox` (outside queries
    /// fall back to the exact sweep). `O(N⁴)` space and time — keep `N = nk`
    /// modest (the Lemma 4.1 lower bound shows this is inherent).
    pub fn build(set: &DiscreteSet, bbox: &Aabb) -> Self {
        let locs: Vec<Point> = set.all_locations().map(|(_, _, p, _)| p).collect();
        let mut lines = vec![];
        for i in 0..locs.len() {
            for j in (i + 1)..locs.len() {
                if locs[i].dist(locs[j]) > 0.0 {
                    lines.push(Line2::bisector(locs[i], locs[j]));
                }
            }
        }
        let (lines, _) = dedup_lines(&lines, 1e-9);
        let locator = SlabLocator::build(&lines, bbox);

        let mut vectors: Vec<Vec<(usize, f64)>> = vec![];
        let mut vec_ids: HashMap<Vec<(usize, u64)>, u32> = HashMap::new();
        let mut cell_vector = vec![0u32; locator.num_cells()];
        for cell in locator.cell_ids() {
            let Some(sample) = locator.cell_sample(cell) else {
                cell_vector[cell] = u32::MAX;
                continue;
            };
            let pi = quantification_discrete(set, sample);
            let sparse: Vec<(usize, f64)> = pi
                .into_iter()
                .enumerate()
                .filter(|&(_, v)| v > 0.0)
                .collect();
            // Quantized key for deduplication (probabilities are identical
            // across cells with the same distance order, up to fp noise).
            let key: Vec<(usize, u64)> = sparse
                .iter()
                .map(|&(i, v)| (i, (v * 1e12).round() as u64))
                .collect();
            let id = *vec_ids.entry(key).or_insert_with(|| {
                vectors.push(sparse);
                (vectors.len() - 1) as u32
            });
            cell_vector[cell] = id;
        }
        ProbabilisticVoronoiDiagram {
            locator,
            cell_vector,
            vectors,
            set: set.clone(),
            bbox: *bbox,
            num_bisectors: lines.len(),
        }
    }

    /// All positive quantification probabilities of `q`, sorted by point
    /// index. `O(log N + t)` inside the box; exact-sweep fallback outside
    /// the box, for queries exactly on a bisector line, and inside the
    /// locator's slab-boundary guard band (the locator's exact predicates
    /// refuse rather than guess there — see
    /// [`uncertain_arrangement::SlabLocator::locate`]), so every answer is
    /// either a located cell's vector or the exact sweep itself.
    pub fn query(&self, q: Point) -> Vec<(usize, f64)> {
        if let Some(cell) = self.locator.locate(q) {
            let vid = self.cell_vector[cell];
            if vid != u32::MAX {
                return self.vectors[vid as usize].clone();
            }
        }
        // Exact-sweep fallback: `quantification_discrete` is the shared
        // single-slab `SweepSource` path (`SortedSlab` + the sweep core) —
        // the same core the dynamic merged path feeds its radius collect.
        quantification_discrete(&self.set, q)
            .into_iter()
            .enumerate()
            .filter(|&(_, v)| v > 0.0)
            .collect()
    }

    /// Number of point-location cells (the measured structure size; the
    /// `O(N⁴)` of Theorem 4.2).
    pub fn num_cells(&self) -> usize {
        self.cell_vector.len()
    }

    /// Number of *distinct* probability vectors — a lower bound on the true
    /// complexity of `V_Pr` (Lemma 4.1's Ω(n⁴) construction makes these all
    /// differ).
    pub fn num_distinct_vectors(&self) -> usize {
        self.vectors.len()
    }

    /// Number of deduplicated bisector lines.
    pub fn num_bisectors(&self) -> usize {
        self.num_bisectors
    }

    pub fn bbox(&self) -> &Aabb {
        &self.bbox
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    fn bbox() -> Aabb {
        Aabb::from_corners(Point::new(-40.0, -40.0), Point::new(40.0, 40.0))
    }

    #[test]
    fn queries_match_exact_sweep() {
        let set = workload::random_discrete_set(5, 2, 8.0, 44);
        let vpr = ProbabilisticVoronoiDiagram::build(&set, &bbox());
        for q in workload::random_queries(100, 70.0, 9) {
            let got = vpr.query(q);
            let exact = quantification_discrete(&set, q);
            let dense = {
                let mut v = vec![0.0; set.len()];
                for (i, p) in got {
                    v[i] = p;
                }
                v
            };
            for i in 0..set.len() {
                assert!(
                    (dense[i] - exact[i]).abs() < 1e-6,
                    "π_{i} at {q}: vpr {} exact {}",
                    dense[i],
                    exact[i]
                );
            }
        }
    }

    #[test]
    fn out_of_box_falls_back() {
        let set = workload::random_discrete_set(4, 2, 5.0, 3);
        let vpr = ProbabilisticVoronoiDiagram::build(&set, &bbox());
        let far = Point::new(500.0, 500.0);
        let got = vpr.query(far);
        let exact = quantification_discrete(&set, far);
        for (i, p) in got {
            assert!((p - exact[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn duplicate_locations_handled() {
        // Two points sharing a location: zero-length bisectors are skipped.
        let set = DiscreteSet::new(vec![
            crate::model::DiscreteUncertainPoint::uniform(vec![
                Point::new(0.0, 0.0),
                Point::new(2.0, 0.0),
            ]),
            crate::model::DiscreteUncertainPoint::uniform(vec![
                Point::new(0.0, 0.0),
                Point::new(-2.0, 0.0),
            ]),
        ]);
        let vpr = ProbabilisticVoronoiDiagram::build(&set, &bbox());
        assert!(vpr.num_cells() > 0);
        let _ = vpr.query(Point::new(0.5, 0.5));
    }

    #[test]
    fn cell_counts_grow_with_n() {
        let small = workload::random_discrete_set(3, 2, 6.0, 1);
        let large = workload::random_discrete_set(6, 2, 6.0, 1);
        let v1 = ProbabilisticVoronoiDiagram::build(&small, &bbox());
        let v2 = ProbabilisticVoronoiDiagram::build(&large, &bbox());
        assert!(v2.num_cells() > v1.num_cells());
        assert!(v2.num_bisectors() > v1.num_bisectors());
        assert!(v1.num_distinct_vectors() <= v1.num_cells());
    }
}
