//! The guaranteed Voronoi diagram (\[SE08\], discussed in Sections 1.2 and 2
//! of the paper).
//!
//! The *guaranteed region* of `P_i` is the set of queries whose nearest
//! neighbor is **surely** `P_i`:
//!
//! ```text
//!   G_i = { q : Δ_i(q) ≤ δ_j(q)  for all j ≠ i }   ⇒   π_i(q) = 1.
//! ```
//!
//! Exactly like the nonzero cells, `G_i` is radially convex around `c_i`
//! and its boundary is the polar lower envelope of closed-form hyperbola
//! branches (`σ_ij = {x : Δ_i(x) = δ_j(x)}`,
//! [`uncertain_geom::hyperbola::SureBranch`]) — the same machinery as
//! Lemma 2.2 with the roles of `δ` and `Δ` swapped. \[SE08\] show the
//! guaranteed cells have `O(n)` *total* complexity (in contrast to the
//! `Θ(n³)` of the full nonzero diagram) — measured in experiment E15.

use std::f64::consts::TAU;
use uncertain_envelope::polar::{lower_envelope_circle, EnvelopeOracle};
use uncertain_geom::hyperbola::SureBranch;
use uncertain_geom::{angle, Circle, Point};

/// The guaranteed region `G_i` of one uncertain disk.
#[derive(Clone, Debug)]
pub struct GuaranteedRegion {
    pub i: usize,
    /// Envelope arcs `(θ_lo, θ_hi, owner j)`; directions not covered by any
    /// arc are unconstrained (the region is unbounded there).
    pub arcs: Vec<(f64, f64, usize)>,
    branches: std::collections::HashMap<usize, SureBranch>,
    center: Point,
}

struct SureOracle<'a> {
    branches: &'a [(usize, SureBranch)],
}

impl EnvelopeOracle for SureOracle<'_> {
    fn eval(&self, id: usize, t: f64) -> f64 {
        self.branches[id].1.eval(t)
    }
    fn domains(&self, id: usize) -> Vec<(f64, f64)> {
        self.branches[id].1.domain().split_unwrapped()
    }
    fn crossings(&self, a: usize, b: usize) -> Vec<f64> {
        self.branches[a].1.crossings(&self.branches[b].1)
    }
}

impl GuaranteedRegion {
    /// Computes `G_i` for disk `i`. Returns a region with empty arcs when
    /// no constraint ever binds (`n = 1`); [`is_void`](Self::is_void)
    /// detects the opposite extreme where the region is void.
    pub fn compute(disks: &[Circle], i: usize) -> Self {
        let mut branches: Vec<(usize, SureBranch)> = vec![];
        let mut void = false;
        for (j, dj) in disks.iter().enumerate() {
            if j == i {
                continue;
            }
            match SureBranch::new(&disks[i], dj) {
                Some(b) => branches.push((j, b)),
                // ‖c_j − c_i‖ ≤ r_i + r_j: P_i can never be surely closer
                // than P_j anywhere — the whole region is empty.
                None => void = true,
            }
        }
        if void {
            return GuaranteedRegion {
                i,
                arcs: vec![(0.0, TAU, usize::MAX)], // sentinel: empty region
                branches: std::collections::HashMap::new(),
                center: disks[i].center,
            };
        }
        let oracle = SureOracle {
            branches: &branches,
        };
        let ids: Vec<usize> = (0..branches.len()).collect();
        let env = lower_envelope_circle(&ids, &oracle);
        let arcs = env
            .pieces
            .iter()
            .map(|p| (p.lo, p.hi, branches[p.id].0))
            .collect();
        GuaranteedRegion {
            i,
            arcs,
            branches: branches.into_iter().collect(),
            center: disks[i].center,
        }
    }

    /// `true` when the region is provably empty (some disk is too close).
    pub fn is_void(&self) -> bool {
        self.arcs.first().is_some_and(|&(_, _, o)| o == usize::MAX)
    }

    /// Radial bound of the region in direction `θ` (`+∞` when unbounded).
    pub fn radial_bound(&self, theta: f64) -> f64 {
        if self.is_void() {
            return f64::NEG_INFINITY;
        }
        let t = angle::normalize(theta);
        for &(lo, hi, owner) in &self.arcs {
            if t >= lo && t <= hi {
                return self.branches[&owner].eval(t);
            }
        }
        f64::INFINITY
    }

    /// `true` iff `q` lies in the (closed) guaranteed region.
    pub fn contains(&self, q: Point) -> bool {
        if self.is_void() {
            return false;
        }
        let v = q - self.center;
        let r = v.norm();
        if r == 0.0 {
            return true;
        }
        r <= self.radial_bound(v.angle())
    }

    /// Number of boundary arcs (0 for void or fully-unbounded regions).
    pub fn boundary_complexity(&self) -> usize {
        if self.is_void() {
            0
        } else {
            self.arcs.len()
        }
    }
}

/// The full guaranteed Voronoi diagram.
///
/// ```
/// use uncertain_geom::{Circle, Point};
/// use uncertain_nn::vnz::GuaranteedVoronoi;
///
/// let gv = GuaranteedVoronoi::build(&[
///     Circle::new(Point::new(0.0, 0.0), 1.0),
///     Circle::new(Point::new(10.0, 0.0), 1.0),
/// ]);
/// assert_eq!(gv.locate(Point::new(0.0, 0.0)), Some(0)); // surely nearest
/// assert_eq!(gv.locate(Point::new(5.0, 0.0)), None);    // contested
/// ```
#[derive(Clone, Debug)]
pub struct GuaranteedVoronoi {
    pub regions: Vec<GuaranteedRegion>,
}

impl GuaranteedVoronoi {
    pub fn build(disks: &[Circle]) -> Self {
        GuaranteedVoronoi {
            regions: (0..disks.len())
                .map(|i| GuaranteedRegion::compute(disks, i))
                .collect(),
        }
    }

    /// The point whose guaranteed region contains `q`, if any (regions are
    /// pairwise disjoint up to shared boundaries, so the answer is unique
    /// in the interior).
    pub fn locate(&self, q: Point) -> Option<usize> {
        self.regions.iter().find(|r| r.contains(q)).map(|r| r.i)
    }

    /// Total boundary complexity across all regions — \[SE08\] prove this is
    /// `O(n)` (experiment E15).
    pub fn total_complexity(&self) -> usize {
        self.regions.iter().map(|r| r.boundary_complexity()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonzero::brute::nonzero_nn_disks;
    use crate::workload;

    fn disk(x: f64, y: f64, r: f64) -> Circle {
        Circle::new(Point::new(x, y), r)
    }

    #[test]
    fn two_far_disks_have_guaranteed_halves() {
        let disks = vec![disk(0.0, 0.0, 1.0), disk(10.0, 0.0, 1.0)];
        let gv = GuaranteedVoronoi::build(&disks);
        assert_eq!(gv.locate(Point::new(0.0, 0.0)), Some(0));
        assert_eq!(gv.locate(Point::new(10.0, 0.0)), Some(1));
        // Near the middle, neither is guaranteed.
        assert_eq!(gv.locate(Point::new(5.0, 0.0)), None);
        // The boundary lies where Δ_0 = δ_1: at x with (x+1) = (10−x−1):
        // x = 4.
        let r0 = &gv.regions[0];
        assert!((r0.radial_bound(0.0) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn close_disks_have_void_regions() {
        let disks = vec![disk(0.0, 0.0, 2.0), disk(1.0, 0.0, 2.0)];
        let gv = GuaranteedVoronoi::build(&disks);
        assert!(gv.regions[0].is_void());
        assert!(gv.regions[1].is_void());
        assert_eq!(gv.locate(Point::new(0.0, 0.0)), None);
        assert_eq!(gv.total_complexity(), 0);
    }

    #[test]
    fn membership_matches_nonzero_singleton() {
        // q ∈ G_i ⟺ NN≠0(q) = {i} (up to measure-zero boundaries).
        for seed in [3u64, 4, 5] {
            let set = workload::random_disk_set(15, 0.3, 2.0, seed);
            let disks = set.regions();
            let gv = GuaranteedVoronoi::build(&disks);
            for q in workload::random_queries(300, 70.0, seed + 50) {
                let nn = nonzero_nn_disks(&disks, q);
                let located = gv.locate(q);
                // Skip near-boundary queries (strict vs closed conventions).
                let margin = disks
                    .iter()
                    .enumerate()
                    .map(|(j, d)| {
                        if Some(j) == located {
                            f64::INFINITY
                        } else {
                            (d.min_dist(q) - located.map_or(f64::NAN, |i| disks[i].max_dist(q)))
                                .abs()
                        }
                    })
                    .fold(f64::INFINITY, f64::min);
                if nn.len() == 1 {
                    assert_eq!(
                        located,
                        Some(nn[0]),
                        "NN≠0 = {{{}}} but guaranteed locate = {:?} at {q}",
                        nn[0],
                        located
                    );
                } else if margin > 1e-9 {
                    assert_eq!(
                        located,
                        None,
                        "|NN≠0| = {} but {q} in a guaranteed region",
                        nn.len()
                    );
                }
            }
        }
    }

    #[test]
    fn guaranteed_implies_probability_one() {
        let set = workload::random_disk_set(8, 0.5, 2.0, 9);
        let disks = set.regions();
        let gv = GuaranteedVoronoi::build(&disks);
        for q in workload::random_queries(200, 70.0, 10) {
            if let Some(i) = gv.locate(q) {
                let pi = crate::quantification::exact::quantification_continuous(&set, q, 256);
                assert!(
                    pi[i] > 0.999,
                    "π_{i}({q}) = {} inside the guaranteed region",
                    pi[i]
                );
            }
        }
    }

    #[test]
    fn total_complexity_is_near_linear() {
        // [SE08]: O(n) total complexity of the guaranteed diagram.
        let mut last = 0usize;
        for &n in &[20usize, 40, 80] {
            let set = workload::random_disk_set(n, 0.2, 1.0, n as u64);
            let gv = GuaranteedVoronoi::build(&set.regions());
            let c = gv.total_complexity();
            assert!(c <= 12 * n, "complexity {c} too large for n = {n}");
            assert!(c >= last / 8, "complexity should grow roughly linearly");
            last = c;
        }
    }

    #[test]
    fn single_disk_is_guaranteed_everywhere() {
        let gv = GuaranteedVoronoi::build(&[disk(3.0, 3.0, 1.0)]);
        assert_eq!(gv.locate(Point::new(100.0, -50.0)), Some(0));
        assert_eq!(gv.total_complexity(), 0);
    }
}
