//! Property-based tests (proptest) over the core data structures and
//! invariants, spanning all workspace crates.

use proptest::prelude::*;
use uncertain_arrangement::segment::{segment_intersections, Segment};
use uncertain_arrangement::subdivision::{Subdivision, TaggedSegment};
use uncertain_geom::apollonius::{tangent_circles, Tangency};
use uncertain_geom::hyperbola::PolarBranch;
use uncertain_geom::sec::smallest_enclosing_circle;
use uncertain_geom::{Circle, Point};
use uncertain_nn::model::{DiscreteSet, DiscreteUncertainPoint};
use uncertain_nn::nonzero::{nonzero_nn_discrete, nonzero_nn_disks};
use uncertain_nn::quantification::exact::quantification_discrete;
use uncertain_nn::quantification::SpiralSearch;
use uncertain_nn::vnz::GammaCurve;
use uncertain_spatial::{DiskIndex, KdTree, QuadTree};
use uncertain_voronoi::Delaunay;

fn pt() -> impl Strategy<Value = Point> {
    (-50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y)| Point::new(x, y))
}

fn disk() -> impl Strategy<Value = Circle> {
    (pt(), 0.01f64..4.0).prop_map(|(c, r)| Circle::new(c, r))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kdtree_nearest_matches_linear_scan(pts in prop::collection::vec(pt(), 1..120), q in pt()) {
        let tree = KdTree::from_points(&pts);
        let (_, _, d) = tree.nearest(q).unwrap();
        let brute = pts.iter().map(|&p| q.dist(p)).fold(f64::INFINITY, f64::min);
        prop_assert!((d - brute).abs() < 1e-12);
    }

    #[test]
    fn kdtree_range_is_exact(pts in prop::collection::vec(pt(), 1..120), q in pt(), r in 0.0f64..40.0) {
        let tree = KdTree::from_points(&pts);
        let mut got = tree.in_disk(q, r);
        got.sort_unstable();
        let mut brute: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, &p)| q.dist(p) <= r)
            .map(|(i, _)| i as u32)
            .collect();
        brute.sort_unstable();
        prop_assert_eq!(got, brute);
    }

    #[test]
    fn quadtree_and_kdtree_agree(pts in prop::collection::vec(pt(), 1..150), q in pt(), k in 1usize..20) {
        let kd = KdTree::from_points(&pts);
        let qt = QuadTree::from_points(&pts);
        let a: Vec<f64> = kd.k_nearest(q, k).iter().map(|&(_, _, d)| d).collect();
        let b: Vec<f64> = qt.k_nearest(q, k).iter().map(|&(_, _, d)| d).collect();
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn disk_index_nonzero_equals_brute(disks in prop::collection::vec(disk(), 1..60), q in pt()) {
        let idx = DiskIndex::from_disks(&disks);
        let mut got: Vec<usize> = idx.nonzero_nn(q).into_iter().map(|i| i as usize).collect();
        got.sort_unstable();
        let mut brute = nonzero_nn_disks(&disks, q);
        brute.sort_unstable();
        prop_assert_eq!(got, brute);
    }

    #[test]
    fn sec_covers_and_is_minimal_radius(pts in prop::collection::vec(pt(), 1..40)) {
        let c = smallest_enclosing_circle(&pts).unwrap();
        for &p in &pts {
            prop_assert!(c.center.dist(p) <= c.radius + 1e-7 * (1.0 + c.radius));
        }
        // The SEC radius is at most half the diameter bound (any pair).
        let diam = pts
            .iter()
            .flat_map(|&a| pts.iter().map(move |&b| a.dist(b)))
            .fold(0.0f64, f64::max);
        prop_assert!(c.radius <= diam + 1e-9);
    }

    #[test]
    fn apollonius_solutions_satisfy_equations(
        c1 in disk(), c2 in disk(), c3 in disk(),
        s1 in prop::bool::ANY, s2 in prop::bool::ANY, s3 in prop::bool::ANY,
    ) {
        let sign = |b: bool| if b { Tangency::External } else { Tangency::Internal };
        let signs = [sign(s1), sign(s2), sign(s3)];
        let circles = [c1, c2, c3];
        for w in tangent_circles(circles, signs) {
            for (c, s) in circles.iter().zip(&signs) {
                let target = match s {
                    Tangency::External => w.radius + c.radius,
                    Tangency::Internal => w.radius - c.radius,
                };
                let resid = (w.center.dist(c.center) - target).abs();
                let scale = 1.0 + w.radius + c.center.to_vector().norm();
                prop_assert!(resid < 1e-5 * scale, "residual {} (scale {})", resid, scale);
            }
        }
    }

    #[test]
    fn polar_branch_points_satisfy_equation(d1 in disk(), d2 in disk(), f in 0.01f64..0.99) {
        if let Some(b) = PolarBranch::new(&d1, &d2) {
            let dom = b.domain();
            let t = dom.lo + dom.width() * f;
            let r = b.eval(t);
            if r.is_finite() && r < 1e6 {
                let p = b.point_at(t);
                let lhs = d1.min_dist(p);
                let rhs = d2.max_dist(p);
                prop_assert!((lhs - rhs).abs() < 1e-6 * (1.0 + rhs));
            }
        }
    }

    #[test]
    fn gamma_envelope_below_all_branches(
        disks in prop::collection::vec(disk(), 2..12),
        f in 0.0f64..1.0,
    ) {
        let theta = f * std::f64::consts::TAU;
        let c = GammaCurve::compute(&disks, 0);
        let env = c.eval(theta);
        for (j, dj) in disks.iter().enumerate().skip(1) {
            if let Some(b) = PolarBranch::new(&disks[0], dj) {
                let v = b.eval(theta);
                prop_assert!(
                    env <= v + 1e-6 * (1.0 + v.abs().min(1e9)),
                    "envelope above branch {} at θ={}", j, theta
                );
            }
        }
    }

    #[test]
    fn delaunay_nearest_site_is_exact(pts in prop::collection::vec(pt(), 3..60), q in pt()) {
        let dt = Delaunay::build(&pts);
        let got = dt.nearest_site(q).unwrap() as usize;
        let brute = pts
            .iter()
            .map(|&p| q.dist(p))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((q.dist(pts[got]) - brute).abs() < 1e-9);
    }

    #[test]
    fn segment_intersections_are_on_both_segments(
        a in pt(), b in pt(), c in pt(), d in pt(),
    ) {
        let s1 = Segment::new(a, b);
        let s2 = Segment::new(c, d);
        for (t, p) in segment_intersections(&s1, &s2) {
            prop_assert!((0.0..=1.0).contains(&t));
            // p must lie near both segments.
            let near = |s: &Segment, p: Point| {
                let tt = s.project_param(p).clamp(0.0, 1.0);
                s.at(tt).dist(p)
            };
            prop_assert!(near(&s1, p) < 1e-6);
            prop_assert!(near(&s2, p) < 1e-6);
        }
    }

    #[test]
    fn subdivision_euler_formula_consistency(
        segs in prop::collection::vec((pt(), pt()), 1..14),
    ) {
        let tagged: Vec<TaggedSegment> = segs
            .iter()
            .enumerate()
            .filter(|(_, (a, b))| a.dist(*b) > 1e-6)
            .map(|(i, &(a, b))| TaggedSegment {
                seg: Segment::new(a, b),
                curve: i as u32,
            })
            .collect();
        prop_assume!(!tagged.is_empty());
        let sub = Subdivision::build(&tagged, 1e-9);
        // Euler: F = E − V + C + 1 must be ≥ 1, and the number of positive
        // cycles (bounded faces) must equal F − 1.
        let f = sub.num_faces();
        prop_assert!(f >= 1);
        let bounded = sub.bounded_faces().len();
        prop_assert_eq!(bounded, f - 1, "V={} E={} C={}", sub.num_vertices(), sub.num_edges(), sub.num_components());
    }

    #[test]
    fn discrete_quantification_sums_to_one(
        clusters in prop::collection::vec((pt(), 0.1f64..5.0), 2..10),
        q in pt(),
    ) {
        let points: Vec<DiscreteUncertainPoint> = clusters
            .iter()
            .enumerate()
            .map(|(i, &(c, spread))| {
                let locs = vec![
                    Point::new(c.x - spread, c.y),
                    Point::new(c.x + spread, c.y + 0.1 * i as f64),
                ];
                DiscreteUncertainPoint::uniform(locs)
            })
            .collect();
        let set = DiscreteSet::new(points);
        let pi = quantification_discrete(&set, q);
        let total: f64 = pi.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        // Support condition.
        let nz = nonzero_nn_discrete(&set, q);
        for (i, &p) in pi.iter().enumerate() {
            if p > 1e-12 {
                prop_assert!(nz.contains(&i));
            }
        }
    }

    #[test]
    fn spiral_underestimates_with_any_budget(
        clusters in prop::collection::vec(pt(), 2..8),
        q in pt(),
        budget in 1usize..20,
    ) {
        let points: Vec<DiscreteUncertainPoint> = clusters
            .iter()
            .map(|&c| {
                DiscreteUncertainPoint::uniform(vec![
                    Point::new(c.x - 1.0, c.y),
                    Point::new(c.x + 1.0, c.y),
                ])
            })
            .collect();
        let set = DiscreteSet::new(points);
        let ss = SpiralSearch::build(&set);
        let exact = quantification_discrete(&set, q);
        let est = ss.estimate_with_budget(q, budget);
        for i in 0..set.len() {
            // Truncation can only lose probability mass.
            prop_assert!(est[i] <= exact[i] + 1e-9);
        }
    }
}
