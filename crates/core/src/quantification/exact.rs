//! Exact quantification probabilities.
//!
//! **Discrete** (Eq. (2)): sort all `N` locations by distance from `q` and
//! sweep once, maintaining the running product `Π_j (1 − G_{q,j}(r))` with
//! careful handling of exhausted points (factors that reach zero) and of
//! distance ties — Eq. (2)'s cdf uses `≤ r`, so *all* locations at the same
//! distance count against each other.
//!
//! **Continuous** (Eq. (1)): composite-Simpson quadrature of
//! `∫ g_{q,i}(r) Π_{j≠i}(1 − G_{q,j}(r)) dr` with analytic `g`/`G` for
//! uniform disks (quadrature-backed for the other pdf models). This is the
//! reference oracle the approximation algorithms are tested against.

use crate::model::{distance, DiscreteSet, DiskSet};
use crate::quantification::sweep::{sweep, SortedSlab, SweepEntry};
use uncertain_geom::Point;

/// The canonical flat entry list of a set at a query: one
/// `(distance, site, weight)` entry per location, pushed in ascending
/// `(site, location)` order — the tie order every [`SweepSource`]
/// (crate::quantification::sweep::SweepSource) reproduces.
pub fn sweep_entries(set: &DiscreteSet, q: Point) -> Vec<SweepEntry> {
    set.all_locations()
        .map(|(i, _, loc, w)| (q.dist(loc), i, w))
        .collect()
}

/// All quantification probabilities `π_i(q)` for a discrete set, by the
/// Eq. (2) sweep. `O(N log N)` time, `O(N)` space.
///
/// The distance pass runs on the chunked-lane SoA kernel
/// ([`LocationSlab`](crate::quantification::slab::LocationSlab)); it is
/// bit-identical to sweeping [`sweep_entries`] directly (the slab's
/// differential tests pin this), so this stays the exact oracle.
pub fn quantification_discrete(set: &DiscreteSet, q: Point) -> Vec<f64> {
    let slab = crate::quantification::slab::LocationSlab::from_set(set);
    let mut scratch = vec![];
    let mut entries = vec![];
    slab.entries_into(q, &mut scratch, &mut entries);
    quantification_sweep(entries, set.len())
}

/// The Eq. (2) sweep over pre-assembled `(distance, point index, weight)`
/// entries (one per location; indices dense in `0..n`). This is the
/// single-slab entry to the shared [`sweep`] core behind every exact
/// discrete evaluation — the static path above, the `V_Pr` per-cell
/// labels, the spiral search's truncated estimate, and the dynamic
/// (Bentley–Saxe) layer's fresh path all go through it, and the dynamic
/// layer's *merged* path feeds the same core its sorted collect of the
/// live entries inside the Lemma 2.1 radius. Identical entry sequences
/// go through identical
/// arithmetic, which is what makes dynamic answers **bit-identical** to a
/// fresh static build. The sort is stable, so ties between equal distances
/// keep the caller's entry order.
pub fn quantification_sweep(entries: Vec<SweepEntry>, n: usize) -> Vec<f64> {
    let mut slab = SortedSlab::new(entries);
    sweep(&mut slab, n)
}

/// Sparse variant of [`quantification_discrete`]: only `(i, π_i)` with
/// `π_i > threshold`, sorted by decreasing probability.
pub fn quantification_discrete_sparse(
    set: &DiscreteSet,
    q: Point,
    threshold: f64,
) -> Vec<(usize, f64)> {
    let pi = quantification_discrete(set, q);
    let mut out: Vec<(usize, f64)> = pi
        .into_iter()
        .enumerate()
        .filter(|&(_, p)| p > threshold)
        .collect();
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    out
}

/// All `π_i(q)` for a continuous (disk-support) set by quadrature of
/// Eq. (1) with `panels` Simpson panels per point (2048 is a good default
/// for ~1e-4 accuracy). `O(n² · panels)` — this is the *reference oracle*,
/// not a production query path (the paper calls exact continuous evaluation
/// "often expensive"; its answer is the approximation algorithms of
/// Sections 4.2–4.3).
#[allow(clippy::needless_range_loop)] // `i` indexes both `pi` and `set.points`
pub fn quantification_continuous(set: &DiskSet, q: Point, panels: usize) -> Vec<f64> {
    let n = set.len();
    let mut pi = vec![0.0f64; n];
    if n == 0 {
        return pi;
    }
    if n == 1 {
        pi[0] = 1.0;
        return pi;
    }
    for i in 0..n {
        let pi_i = &set.points[i];
        // Point masses (zero-radius supports) have a Dirac distance
        // distribution: Eq. (1) degenerates to a plain product at r = d.
        if pi_i.region.radius == 0.0 {
            let r0 = q.dist(pi_i.region.center);
            let mut prod = 1.0;
            for j in 0..n {
                if j != i {
                    prod *= 1.0 - distance::cdf(&set.points[j], q, r0);
                }
            }
            pi[i] = prod;
            continue;
        }
        let lo = pi_i.min_dist(q);
        // The integrand vanishes once any other point is surely closer.
        let other_cap = (0..n)
            .filter(|&j| j != i)
            .map(|j| set.points[j].max_dist(q))
            .fold(f64::INFINITY, f64::min);
        let hi = pi_i.max_dist(q).min(other_cap);
        if hi <= lo {
            continue;
        }
        pi[i] = distance::simpson(lo, hi, panels, |r| {
            let g = distance::pdf(pi_i, q, r);
            if g == 0.0 {
                return 0.0;
            }
            let mut prod = g;
            for j in 0..n {
                if j == i {
                    continue;
                }
                prod *= 1.0 - distance::cdf(&set.points[j], q, r);
                if prod == 0.0 {
                    break;
                }
            }
            prod
        });
    }
    pi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DiscreteUncertainPoint;
    use crate::workload;
    use uncertain_geom::{Circle, Point};

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn two_point_coin_flip() {
        // P_1 at 0 or 10 (fair), P_2 certain at 3. From q = 1:
        // d(P_2) = 2; P_1 wins iff it is at 0 (dist 1 < 2).
        let set = DiscreteSet::new(vec![
            DiscreteUncertainPoint::new(vec![p(0.0, 0.0), p(10.0, 0.0)], vec![0.5, 0.5]),
            DiscreteUncertainPoint::certain(p(3.0, 0.0)),
        ]);
        let pi = quantification_discrete(&set, p(1.0, 0.0));
        assert!((pi[0] - 0.5).abs() < 1e-12);
        assert!((pi[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn probabilities_sum_to_one_discrete() {
        for seed in [3u64, 4, 5] {
            let set = workload::random_discrete_set(25, 4, 6.0, seed);
            for q in workload::random_queries(30, 60.0, seed) {
                let pi = quantification_discrete(&set, q);
                let total: f64 = pi.iter().sum();
                assert!(
                    (total - 1.0).abs() < 1e-9,
                    "Σπ = {total} at {q} (seed {seed})"
                );
                assert!(pi.iter().all(|&x| (-1e-12..=1.0 + 1e-12).contains(&x)));
            }
        }
    }

    #[test]
    fn ties_are_shared() {
        // Two certain points at the same distance from q: Eq. (2) gives each
        // a factor (1 − 1) for the other — ties annihilate both. This
        // mirrors the paper's convention (G uses ≤), where exact ties are a
        // measure-zero event that the sweep resolves to zero probability.
        let set = DiscreteSet::new(vec![
            DiscreteUncertainPoint::certain(p(1.0, 0.0)),
            DiscreteUncertainPoint::certain(p(-1.0, 0.0)),
        ]);
        let pi = quantification_discrete(&set, p(0.0, 0.0));
        assert_eq!(pi, vec![0.0, 0.0]);
    }

    #[test]
    fn brute_force_enumeration_cross_check() {
        // For tiny instances, enumerate all k^n instantiations and compare.
        let set = DiscreteSet::new(vec![
            DiscreteUncertainPoint::new(vec![p(0.0, 0.0), p(6.0, 0.0)], vec![0.3, 0.7]),
            DiscreteUncertainPoint::new(vec![p(2.0, 1.0), p(4.0, -1.0)], vec![0.6, 0.4]),
            DiscreteUncertainPoint::new(vec![p(1.0, -2.0), p(3.0, 2.0)], vec![0.5, 0.5]),
        ]);
        let queries = workload::random_queries(25, 12.0, 8);
        for q in queries {
            let pi = quantification_discrete(&set, q);
            // Enumerate 2^3 instantiations.
            let mut brute = [0.0f64; 3];
            for a in 0..2 {
                for b in 0..2 {
                    for c in 0..2 {
                        let locs = [
                            set.points[0].locations()[a],
                            set.points[1].locations()[b],
                            set.points[2].locations()[c],
                        ];
                        let w = set.points[0].weights()[a]
                            * set.points[1].weights()[b]
                            * set.points[2].weights()[c];
                        let (mut best, mut best_d) = (0usize, f64::INFINITY);
                        let mut tie = false;
                        for (i, &l) in locs.iter().enumerate() {
                            let d = q.dist(l);
                            if d < best_d {
                                best_d = d;
                                best = i;
                                tie = false;
                            } else if d == best_d {
                                tie = true;
                            }
                        }
                        if !tie {
                            brute[best] += w;
                        }
                    }
                }
            }
            for i in 0..3 {
                assert!(
                    (pi[i] - brute[i]).abs() < 1e-12,
                    "π_{i}: sweep {} vs enumeration {} at {q}",
                    pi[i],
                    brute[i]
                );
            }
        }
    }

    #[test]
    fn continuous_two_disjoint_disks_far_query() {
        // Disk A much closer than disk B but both reachable: π_A close to 1.
        let set = DiskSet::uniform(vec![
            Circle::new(p(0.0, 0.0), 1.0),
            Circle::new(p(10.0, 0.0), 1.0),
        ]);
        let pi = quantification_continuous(&set, p(2.0, 0.0), 512);
        assert!(pi[0] > 0.999, "{pi:?}");
        assert!((pi[0] + pi[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn continuous_symmetric_disks_split_evenly() {
        let set = DiskSet::uniform(vec![
            Circle::new(p(-3.0, 0.0), 1.0),
            Circle::new(p(3.0, 0.0), 1.0),
        ]);
        let pi = quantification_continuous(&set, p(0.0, 0.0), 1024);
        assert!((pi[0] - 0.5).abs() < 1e-3, "{pi:?}");
        assert!((pi[1] - 0.5).abs() < 1e-3, "{pi:?}");
    }

    #[test]
    fn continuous_probabilities_sum_to_one() {
        let set = workload::random_disk_set(6, 0.5, 2.0, 17);
        for q in workload::random_queries(5, 40.0, 18) {
            let pi = quantification_continuous(&set, q, 2048);
            let total: f64 = pi.iter().sum();
            assert!((total - 1.0).abs() < 5e-3, "Σπ = {total} at {q}");
        }
    }

    #[test]
    fn sparse_view_is_sorted_and_filtered() {
        let set = workload::random_discrete_set(20, 3, 5.0, 6);
        let q = p(0.0, 0.0);
        let sparse = quantification_discrete_sparse(&set, q, 0.01);
        for w in sparse.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        for &(_, v) in &sparse {
            assert!(v > 0.01);
        }
    }
}
