//! The curves `γ_ij = { x : δ_i(x) = Δ_j(x) }` in polar form.
//!
//! For two uncertainty disks `D_i = (c_i, r_i)` and `D_j = (c_j, r_j)` the
//! locus where the minimum distance to `D_i` equals the maximum distance to
//! `D_j` satisfies `‖x − c_i‖ − ‖x − c_j‖ = r_i + r_j`: one branch of a
//! hyperbola with foci `c_i, c_j`. Writing `x = c_i + r·u(θ)` with
//! `v = c_j − c_i` and `a = r_i + r_j` yields the closed form
//!
//! ```text
//!   r(θ) = (‖v‖² − a²) / ( 2 (u(θ)·v − a) ) ,   defined where u(θ)·v > a.
//! ```
//!
//! When `‖v‖ ≤ a` (the disks' Minkowski-sum condition fails) the curve is
//! empty: `D_j` can never exclude `D_i` anywhere, i.e. `γ_ij ≡ +∞`
//! (see Lemma 2.2 of the paper). The angular domain is the open arc of
//! half-width `arccos(a/‖v‖)` centered on the direction of `v`.
//!
//! Two branches around the *same* focus cross where
//! `K₁(u·v₂ − a₂) = K₂(u·v₁ − a₁)` (`K = ‖v‖² − a²`), which is linear in
//! `(cos θ, sin θ)` and therefore solvable in closed form — this powers the
//! exact polar lower-envelope computation of `γ_i = min_j γ_ij` (Lemma 2.2).

use crate::angle::{normalize, AngleInterval};
use crate::circle::Circle;
use crate::point::{Point, Vector};

/// One polar branch `γ_ij` around the focus `c_i`.
#[derive(Clone, Copy, Debug)]
pub struct PolarBranch {
    /// Focus `c_i` (center of the disk whose *minimum* distance is tracked).
    pub focus: Point,
    /// `v = c_j − c_i`.
    pub v: Vector,
    /// `a = r_i + r_j ≥ 0`.
    pub a: f64,
    /// `K = ‖v‖² − a² > 0` (cached).
    k: f64,
}

impl PolarBranch {
    /// Branch for ordered pair `(D_i, D_j)`; `None` when `‖v‖ ≤ a`, i.e. the
    /// curve is empty (`γ_ij ≡ +∞`).
    pub fn new(di: &Circle, dj: &Circle) -> Option<Self> {
        let v = dj.center - di.center;
        let a = di.radius + dj.radius;
        let k = v.norm2() - a * a;
        if k <= 0.0 {
            return None;
        }
        Some(PolarBranch {
            focus: di.center,
            v,
            a,
            k,
        })
    }

    /// The open angular domain where the branch is finite.
    pub fn domain(&self) -> AngleInterval {
        let vn = self.v.norm();
        let half = (self.a / vn).clamp(-1.0, 1.0).acos();
        AngleInterval::centered(self.v.angle(), half)
    }

    /// `r(θ)`; `+∞` outside the domain.
    #[inline]
    pub fn eval(&self, theta: f64) -> f64 {
        let u = Vector::from_angle(theta);
        let denom = u.dot(self.v) - self.a;
        if denom <= 0.0 {
            f64::INFINITY
        } else {
            self.k / (2.0 * denom)
        }
    }

    /// The point `focus + r(θ)·u(θ)`.
    pub fn point_at(&self, theta: f64) -> Point {
        let r = self.eval(theta);
        self.focus + Vector::from_angle(theta) * r
    }

    /// Polar angle of `p` around the focus.
    #[inline]
    pub fn theta_of(&self, p: Point) -> f64 {
        normalize((p - self.focus).angle())
    }

    /// Angles where this branch equals `other` (same focus!), normalized to
    /// `[0, 2π)` and restricted to both domains. At most two crossings.
    pub fn crossings(&self, other: &PolarBranch) -> Vec<f64> {
        debug_assert!(
            self.focus.dist(other.focus) == 0.0,
            "crossings require a shared focus"
        );
        // K1 (u·v2 − a2) = K2 (u·v1 − a1)
        //   ⇔  u · (K1 v2 − K2 v1) = K1 a2 − K2 a1
        let aa = self.k * other.v.x - other.k * self.v.x;
        let bb = self.k * other.v.y - other.k * self.v.y;
        let cc = self.k * other.a - other.k * self.a;
        let rho = aa.hypot(bb);
        let scale = self.k.abs().max(other.k.abs()).max(1.0);
        if rho <= 1e-14 * scale {
            // Identical or parallel constraints — no transversal crossing.
            return vec![];
        }
        let ratio = cc / rho;
        if ratio.abs() > 1.0 {
            return vec![];
        }
        let phi0 = bb.atan2(aa);
        let dphi = ratio.clamp(-1.0, 1.0).acos();
        let mut out = vec![];
        for theta in [phi0 + dphi, phi0 - dphi] {
            let t = normalize(theta);
            if self.eval(t).is_finite() && other.eval(t).is_finite() {
                // Dedup the tangential case (dphi ≈ 0).
                if !out
                    .iter()
                    .any(|&o: &f64| crate::angle::abs_difference(o, t) < 1e-12)
                {
                    out.push(t);
                }
            }
        }
        out
    }
}

/// The *other* branch: `σ_ij = { x : Δ_i(x) = δ_j(x) }` in polar form around
/// `c_i` — the boundary of the region where `P_i` is **surely** closer than
/// `P_j` (the guaranteed Voronoi diagram of \[SE08\], which the paper's
/// Section 1.2 builds on). With `v = c_j − c_i`, `a = r_i + r_j`:
///
/// ```text
///   r(θ) = (‖v‖² − a²) / ( 2 (u(θ)·v + a) ) ,  defined where u(θ)·v > −a,
/// ```
///
/// requiring `‖v‖ > a` (otherwise the sure region is empty). Inside the
/// curve (`‖x − c_i‖ < r(θ)`), every location of `P_i` beats every location
/// of `P_j`.
#[derive(Clone, Copy, Debug)]
pub struct SureBranch {
    pub focus: Point,
    pub v: Vector,
    pub a: f64,
    k: f64,
}

impl SureBranch {
    /// Branch for ordered pair `(D_i, D_j)`; `None` when `‖v‖ ≤ a` (the
    /// disks are too close for `P_i` to ever be *surely* closer).
    pub fn new(di: &Circle, dj: &Circle) -> Option<Self> {
        let v = dj.center - di.center;
        let a = di.radius + dj.radius;
        let k = v.norm2() - a * a;
        if k <= 0.0 {
            return None;
        }
        Some(SureBranch {
            focus: di.center,
            v,
            a,
            k,
        })
    }

    /// The open angular domain where the branch is finite: the arc of
    /// half-width `arccos(−a/‖v‖)` (> π/2) centered on the direction of `v`.
    pub fn domain(&self) -> AngleInterval {
        let vn = self.v.norm();
        let half = (-self.a / vn).clamp(-1.0, 1.0).acos();
        AngleInterval::centered(self.v.angle(), half)
    }

    /// `r(θ)`; `+∞` outside the domain (the sure region is unbounded in
    /// directions pointing away from `c_j`... it is not: when `u·v ≤ −a`
    /// the constraint never binds along the ray).
    #[inline]
    pub fn eval(&self, theta: f64) -> f64 {
        let u = Vector::from_angle(theta);
        let denom = u.dot(self.v) + self.a;
        if denom <= 0.0 {
            f64::INFINITY
        } else {
            self.k / (2.0 * denom)
        }
    }

    /// The point `focus + r(θ)·u(θ)`.
    pub fn point_at(&self, theta: f64) -> Point {
        let r = self.eval(theta);
        self.focus + Vector::from_angle(theta) * r
    }

    /// Crossings with another sure branch around the same focus — same
    /// closed form as [`PolarBranch::crossings`] with `a → −a`.
    pub fn crossings(&self, other: &SureBranch) -> Vec<f64> {
        debug_assert!(self.focus.dist(other.focus) == 0.0);
        // K1 (u·v2 + a2) = K2 (u·v1 + a1)
        let aa = self.k * other.v.x - other.k * self.v.x;
        let bb = self.k * other.v.y - other.k * self.v.y;
        let cc = other.k * self.a - self.k * other.a;
        let rho = aa.hypot(bb);
        let scale = self.k.abs().max(other.k.abs()).max(1.0);
        if rho <= 1e-14 * scale {
            return vec![];
        }
        let ratio = cc / rho;
        if ratio.abs() > 1.0 {
            return vec![];
        }
        let phi0 = bb.atan2(aa);
        let dphi = ratio.clamp(-1.0, 1.0).acos();
        let mut out = vec![];
        for theta in [phi0 + dphi, phi0 - dphi] {
            let t = normalize(theta);
            if self.eval(t).is_finite()
                && other.eval(t).is_finite()
                && !out
                    .iter()
                    .any(|&o: &f64| crate::angle::abs_difference(o, t) < 1e-12)
            {
                out.push(t);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{PI, TAU};

    fn disk(x: f64, y: f64, r: f64) -> Circle {
        Circle::new(Point::new(x, y), r)
    }

    /// Directly checks `δ_i(x) = Δ_j(x)` for points produced by the branch.
    fn check_on_curve(di: &Circle, dj: &Circle, b: &PolarBranch, theta: f64) {
        let p = b.point_at(theta);
        if !p.is_finite() {
            return;
        }
        let delta_i = di.min_dist(p);
        let delta_j_max = dj.max_dist(p);
        assert!(
            (delta_i - delta_j_max).abs() < 1e-8 * (1.0 + delta_j_max),
            "δ_i={delta_i} Δ_j={delta_j_max} at θ={theta}"
        );
    }

    #[test]
    fn branch_points_satisfy_defining_equation() {
        let di = disk(0.0, 0.0, 1.0);
        let dj = disk(10.0, 2.0, 2.0);
        let b = PolarBranch::new(&di, &dj).unwrap();
        let dom = b.domain();
        for k in 1..40 {
            let t = dom.lo + dom.width() * (k as f64) / 40.0;
            if b.eval(t).is_finite() {
                check_on_curve(&di, &dj, &b, t);
            }
        }
    }

    #[test]
    fn empty_when_disks_close() {
        // ‖v‖ = 3 ≤ a = 4: γ_ij ≡ ∞ — D_j never excludes D_i.
        assert!(PolarBranch::new(&disk(0.0, 0.0, 2.0), &disk(3.0, 0.0, 2.0)).is_none());
        // Touching counts as empty too (κ = 0).
        assert!(PolarBranch::new(&disk(0.0, 0.0, 2.0), &disk(4.0, 0.0, 2.0)).is_none());
    }

    #[test]
    fn point_sites_give_perpendicular_bisector() {
        // Zero radii: γ_ij is the classical bisector of the segment.
        let di = disk(0.0, 0.0, 0.0);
        let dj = disk(4.0, 0.0, 0.0);
        let b = PolarBranch::new(&di, &dj).unwrap();
        // Along θ = 0 the bisector is hit at x = 2.
        assert!((b.eval(0.0) - 2.0).abs() < 1e-12);
        // At any angle, the point is equidistant from both sites.
        for k in 0..20 {
            let t = -1.4 + 2.8 * (k as f64) / 20.0;
            let r = b.eval(t);
            if r.is_finite() {
                let p = b.point_at(t);
                assert!((p.dist(di.center) - p.dist(dj.center)).abs() < 1e-8);
            }
        }
        // Domain is the half-circle of directions towards c_j.
        let dom = b.domain();
        assert!((dom.width() - PI).abs() < 1e-12);
    }

    #[test]
    fn domain_boundary_diverges() {
        let di = disk(0.0, 0.0, 1.0);
        let dj = disk(6.0, 0.0, 1.0);
        let b = PolarBranch::new(&di, &dj).unwrap();
        let dom = b.domain();
        let just_inside = dom.lo + 1e-9;
        assert!(b.eval(just_inside) > 1e6);
        let outside = dom.lo - 1e-3;
        assert!(b.eval(outside).is_infinite());
    }

    #[test]
    fn crossings_are_real_crossings() {
        let di = disk(0.0, 0.0, 0.5);
        let dj1 = disk(8.0, 1.0, 1.0);
        let dj2 = disk(2.0, 7.0, 0.25);
        let b1 = PolarBranch::new(&di, &dj1).unwrap();
        let b2 = PolarBranch::new(&di, &dj2).unwrap();
        let xs = b1.crossings(&b2);
        for &t in &xs {
            let r1 = b1.eval(t);
            let r2 = b2.eval(t);
            assert!(
                (r1 - r2).abs() < 1e-7 * (1.0 + r1.abs()),
                "r1={r1} r2={r2} at θ={t}"
            );
        }
        // Crossing set is symmetric.
        let ys = b2.crossings(&b1);
        assert_eq!(xs.len(), ys.len());
    }

    #[test]
    fn crossing_count_never_exceeds_two() {
        let mut state = 42u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 20.0 - 10.0
        };
        let di = disk(0.0, 0.0, 0.7);
        for _ in 0..100 {
            let dj1 = disk(next(), next(), next().abs() * 0.3);
            let dj2 = disk(next(), next(), next().abs() * 0.3);
            if let (Some(b1), Some(b2)) = (PolarBranch::new(&di, &dj1), PolarBranch::new(&di, &dj2))
            {
                assert!(b1.crossings(&b2).len() <= 2);
            }
        }
    }

    #[test]
    fn sure_branch_points_satisfy_defining_equation() {
        let di = disk(0.0, 0.0, 0.5);
        let dj = disk(8.0, 1.0, 1.0);
        let b = SureBranch::new(&di, &dj).unwrap();
        let dom = b.domain();
        assert!(dom.width() > PI, "sure domain exceeds a half-circle");
        for k in 1..40 {
            let t = dom.lo + dom.width() * (k as f64) / 40.0;
            let r = b.eval(t);
            if !r.is_finite() || r > 1e9 {
                continue;
            }
            let p = b.point_at(t);
            // Δ_i(p) = δ_j(p).
            let lhs = di.max_dist(p);
            let rhs = dj.min_dist(p);
            assert!(
                (lhs - rhs).abs() < 1e-8 * (1.0 + rhs),
                "Δ_i={lhs} δ_j={rhs} at θ={t}"
            );
            // Strictly inside: P_i surely closer.
            let q = di.center + Vector::from_angle(t) * (r * 0.9);
            assert!(di.max_dist(q) < dj.min_dist(q));
            // Strictly outside: no longer sure.
            let q = di.center + Vector::from_angle(t) * (r * 1.1);
            assert!(di.max_dist(q) > dj.min_dist(q));
        }
    }

    #[test]
    fn sure_branch_empty_when_close() {
        assert!(SureBranch::new(&disk(0.0, 0.0, 2.0), &disk(3.0, 0.0, 2.0)).is_none());
    }

    #[test]
    fn sure_branch_crossings_agree() {
        let di = disk(0.0, 0.0, 0.5);
        let b1 = SureBranch::new(&di, &disk(8.0, 1.0, 1.0)).unwrap();
        let b2 = SureBranch::new(&di, &disk(2.0, 7.0, 0.25)).unwrap();
        for t in b1.crossings(&b2) {
            let r1 = b1.eval(t);
            let r2 = b2.eval(t);
            assert!((r1 - r2).abs() < 1e-7 * (1.0 + r1.abs()), "r1={r1} r2={r2}");
        }
    }

    #[test]
    fn sure_point_sites_give_bisector_too() {
        // Zero radii: both branch families degenerate to the bisector.
        let di = disk(0.0, 0.0, 0.0);
        let dj = disk(4.0, 0.0, 0.0);
        let sure = SureBranch::new(&di, &dj).unwrap();
        let gamma = PolarBranch::new(&di, &dj).unwrap();
        assert!((sure.eval(0.0) - gamma.eval(0.0)).abs() < 1e-12);
        assert!((sure.eval(0.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn theta_roundtrip() {
        let di = disk(1.0, 2.0, 0.5);
        let dj = disk(9.0, -1.0, 1.0);
        let b = PolarBranch::new(&di, &dj).unwrap();
        let dom = b.domain();
        for k in 1..10 {
            let t = normalize(dom.lo + dom.width() * (k as f64) / 10.0);
            let p = b.point_at(t);
            if p.is_finite() {
                let t2 = b.theta_of(p);
                assert!(
                    crate::angle::abs_difference(t, t2) < 1e-9,
                    "t={t} vs t2={t2}"
                );
            }
        }
        let _ = TAU;
    }
}
