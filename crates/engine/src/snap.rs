//! Certified interval quantification for snapped (grid-quantized) queries.
//!
//! The result cache snaps query points to a grid cell and serves every query
//! in the cell from one stored answer. That is only sound with a certified
//! error bound: `π_i(·)` is piecewise constant in `q` and *not* Lipschitz,
//! so "widen the slack by the snap radius" must be computed, not assumed.
//!
//! For any `q` with `‖q − q̃‖ ≤ r` and any location `p` of point `i` at
//! distance `d = ‖q̃ − p‖`, the cdf factors of Eq. (2) are sandwiched:
//!
//! ```text
//!   1 − G_j(q̃, d + 2r)  ≤  1 − G_j(q, ‖q − p‖)  ≤  1 − G_j⁻(q̃, d − 2r)
//! ```
//!
//! (`G⁻` the strictly-less cdf), because moving the query by ≤ r shifts
//! every pairwise distance by ≤ r, hence every *compared* pair by ≤ 2r.
//! Summing the per-location contributions with these factor bounds gives
//! sound per-point bounds `lo_i ≤ π_i(q) ≤ hi_i` valid across the whole
//! cell — computed by the same `O(N log N)` sweep as the exact evaluator,
//! run once with contributions shifted by `+2r` (ties counting) and once by
//! `−2r` (ties excluded).

use uncertain_geom::Point;
use uncertain_nn::model::DiscreteSet;

/// Factors below this are treated as exactly zero (mirrors the exact
/// evaluator's clamp).
const ZERO_THRESH: f64 = 1e-12;

/// The Eq. (2) sweep with every contribution evaluated against the cdfs at
/// its own distance **plus `shift`**. `ties_count` selects `≤` (`true`, the
/// exact Eq. (2) semantics) or `<` cdf accumulation at the contribution key.
///
/// `shift = 0, ties_count = true` reproduces the core library's exact
/// Eq. (2) evaluator (`uncertain_nn::quantification::exact`) bit for bit.
pub fn quantification_shifted(
    set: &DiscreteSet,
    q: Point,
    shift: f64,
    ties_count: bool,
) -> Vec<f64> {
    let n = set.len();
    // Cdf events: every location enters its point's cdf at its distance.
    let mut events: Vec<(f64, usize, f64)> = set
        .all_locations()
        .map(|(i, _, loc, w)| (q.dist(loc), i, w))
        .collect();
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    // Contribution events: the same locations, keyed at distance + shift.
    let mut contribs: Vec<(f64, usize, f64)> =
        events.iter().map(|&(d, i, w)| (d + shift, i, w)).collect();
    contribs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());

    let mut pi = vec![0.0f64; n];
    let mut w_acc = vec![0.0f64; n];
    let mut factors = vec![1.0f64; n];
    let mut product = 1.0f64;
    let mut zeros = 0usize;

    let mut e = 0;
    for &(key, i, w) in &contribs {
        // Apply cdf events with d ≤ key (ties count) or d < key.
        while e < events.len() && (events[e].0 < key || (ties_count && events[e].0 == key)) {
            let (_, j, wj) = events[e];
            let old = factors[j];
            w_acc[j] += wj;
            let mut newf = 1.0 - w_acc[j];
            if newf < ZERO_THRESH {
                newf = 0.0;
            }
            factors[j] = newf;
            if old > 0.0 {
                if newf > 0.0 {
                    product *= newf / old;
                } else {
                    zeros += 1;
                    product /= old;
                }
            }
            e += 1;
        }
        // η(p; q) = w · Π_{j≠i} (1 − G_j(key)): divide point i's own factor
        // out of the running product (same zero bookkeeping as the exact
        // sweep).
        let fi = factors[i];
        let eta = if zeros == 0 {
            w * product / fi
        } else if zeros == 1 && fi == 0.0 {
            w * product
        } else {
            0.0
        };
        pi[i] += eta;
    }
    pi
}

/// Sound per-point bounds on `π_i(q)` for every `q` within distance `r` of
/// `center`: returns `(midpoints, max halfwidth)`, with
/// `|mid_i − π_i(q)| ≤ halfwidth` for all such `q`.
pub fn interval_quantification(set: &DiscreteSet, center: Point, r: f64) -> (Vec<f64>, f64) {
    assert!(r >= 0.0);
    let _span = uncertain_obs::span!("engine.snap.quant");
    let lo = quantification_shifted(set, center, 2.0 * r, true);
    let hi = quantification_shifted(set, center, -2.0 * r, false);
    let mut mid = Vec::with_capacity(lo.len());
    let mut halfwidth = 0.0f64;
    for (&l, &h) in lo.iter().zip(&hi) {
        let l = l.clamp(0.0, 1.0);
        let h = h.clamp(0.0, 1.0).max(l);
        mid.push(0.5 * (l + h));
        halfwidth = halfwidth.max(0.5 * (h - l));
    }
    (mid, halfwidth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uncertain_nn::quantification::exact::quantification_discrete;
    use uncertain_nn::workload;

    #[test]
    fn zero_shift_matches_exact_sweep() {
        let set = workload::random_discrete_set(14, 3, 6.0, 21);
        for q in workload::random_queries(25, 60.0, 22) {
            let a = quantification_shifted(&set, q, 0.0, true);
            let b = quantification_discrete(&set, q);
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-12, "{x} vs {y} at {q}");
            }
        }
    }

    #[test]
    fn interval_contains_exact_value_across_cell() {
        let set = workload::random_discrete_set(10, 3, 5.0, 33);
        let r = 0.35;
        for center in workload::random_queries(12, 50.0, 34) {
            let (mid, hw) = interval_quantification(&set, center, r);
            // Probe several points inside the disk of radius r.
            for (dx, dy) in [
                (0.0, 0.0),
                (r * 0.7, 0.0),
                (-r * 0.7, 0.0),
                (0.0, r * 0.99),
                (-r * 0.6, -r * 0.6),
            ] {
                let q = Point::new(center.x + dx, center.y + dy);
                let exact = quantification_discrete(&set, q);
                for (i, (&m, &e)) in mid.iter().zip(&exact).enumerate() {
                    assert!(
                        (m - e).abs() <= hw + 1e-9,
                        "π_{i}: mid {m} vs exact {e}, halfwidth {hw}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_radius_interval_is_tight() {
        let set = workload::random_discrete_set(8, 2, 4.0, 5);
        let q = Point::new(1.0, -2.0);
        let (mid, hw) = interval_quantification(&set, q, 0.0);
        let exact = quantification_discrete(&set, q);
        assert!(hw < 1e-12);
        for (m, e) in mid.iter().zip(&exact) {
            assert!((m - e).abs() < 1e-12);
        }
    }
}
