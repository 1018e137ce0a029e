//! Dedicated integration suite for `uncertain_spatial` — the kd-tree,
//! quadtree, disk index, and group index the paper's query structures (and
//! now the dynamic Bentley–Saxe bucket layer) lean on. Every query is
//! property-tested against a linear scan, including degenerate inputs
//! (duplicate points from grid snapping, zero radii, all-dead filters).

use proptest::prelude::*;
use uncertain_geom::{Circle, Point};
use uncertain_spatial::{DiskIndex, GroupIndex, KdTree, QuadTree};

fn pt() -> impl Strategy<Value = Point> {
    (-50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y)| Point::new(x, y))
}

/// Points snapped to a coarse integer grid: duplicates and collinear runs
/// are common, exercising tie handling.
fn grid_pt() -> impl Strategy<Value = Point> {
    (-6i32..=6, -6i32..=6).prop_map(|(x, y)| Point::new(x as f64, y as f64))
}

fn disk() -> impl Strategy<Value = Circle> {
    (pt(), 0.0f64..5.0).prop_map(|(c, r)| Circle::new(c, r))
}

fn group() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(pt(), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- KdTree ----------------

    #[test]
    fn kdtree_nearest_and_knn_match_scan(pts in prop::collection::vec(pt(), 1..160), q in pt(), k in 1usize..24) {
        let tree = KdTree::from_points(&pts);
        prop_assert_eq!(tree.len(), pts.len());
        let mut dists: Vec<f64> = pts.iter().map(|&p| q.dist(p)).collect();
        dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (_, _, d) = tree.nearest(q).unwrap();
        prop_assert_eq!(d.to_bits(), dists[0].to_bits());
        let knn = tree.k_nearest(q, k);
        prop_assert_eq!(knn.len(), k.min(pts.len()));
        for (i, &(_, _, dk)) in knn.iter().enumerate() {
            prop_assert!((dk - dists[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn kdtree_range_reports_exactly_the_closed_disk(pts in prop::collection::vec(pt(), 1..160), q in pt(), r in 0.0f64..60.0) {
        let tree = KdTree::from_points(&pts);
        let mut got = tree.in_disk(q, r);
        got.sort_unstable();
        let mut want: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, &p)| q.dist(p) <= r)
            .map(|(i, _)| i as u32)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn kdtree_handles_degenerate_grids(pts in prop::collection::vec(grid_pt(), 1..80), q in grid_pt()) {
        // Duplicates and exact-on-boundary radii: the closed-disk contract
        // must hold bit-exactly.
        let tree = KdTree::from_points(&pts);
        let nearest = tree.nearest(q).unwrap().2;
        let brute = pts.iter().map(|&p| q.dist(p)).fold(f64::INFINITY, f64::min);
        prop_assert_eq!(nearest.to_bits(), brute.to_bits());
        // Radius exactly at an existing distance: ≤ includes it.
        let r = brute;
        let got = tree.in_disk(q, r);
        let want = pts.iter().filter(|&&p| q.dist(p) <= r).count();
        prop_assert_eq!(got.len(), want);
        // The full nearest_iter stream is sorted and complete.
        let all: Vec<f64> = tree.nearest_iter(q).map(|(_, _, d)| d).collect();
        prop_assert_eq!(all.len(), pts.len());
        for w in all.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    // ---------------- QuadTree ----------------

    #[test]
    fn quadtree_matches_scan_and_kdtree(pts in prop::collection::vec(pt(), 1..160), q in pt(), k in 1usize..24) {
        let qt = QuadTree::from_points(&pts);
        let kd = KdTree::from_points(&pts);
        let (_, _, d) = qt.nearest(q).unwrap();
        let brute = pts.iter().map(|&p| q.dist(p)).fold(f64::INFINITY, f64::min);
        prop_assert_eq!(d.to_bits(), brute.to_bits());
        let a: Vec<f64> = qt.k_nearest(q, k).iter().map(|&(_, _, d)| d).collect();
        let b: Vec<f64> = kd.k_nearest(q, k).iter().map(|&(_, _, d)| d).collect();
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    // ---------------- DiskIndex ----------------

    #[test]
    fn disk_index_min_max_and_report_match_scan(disks in prop::collection::vec(disk(), 1..80), q in pt(), bound in 0.0f64..80.0) {
        let idx = DiskIndex::from_disks(&disks);
        let mut maxes: Vec<f64> = disks.iter().map(|d| d.max_dist(q)).collect();
        maxes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (best, _, second) = idx.two_min_max_dist(q).unwrap();
        prop_assert!((best - maxes[0]).abs() < 1e-9);
        if disks.len() > 1 {
            prop_assert!((second - maxes[1]).abs() < 1e-9);
        } else {
            prop_assert!(second.is_infinite());
        }
        // Open-bound report: exactly the disks with δ < bound.
        let mut got = vec![];
        idx.for_each_with_min_dist_below(q, bound, |_, id| got.push(id));
        got.sort_unstable();
        let mut want: Vec<u32> = disks
            .iter()
            .enumerate()
            .filter(|(_, d)| d.min_dist(q) < bound)
            .map(|(i, _)| i as u32)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn disk_index_k_min_max_prefix(disks in prop::collection::vec(disk(), 1..80), q in pt(), m in 1usize..12) {
        let idx = DiskIndex::from_disks(&disks);
        let got = idx.k_min_max_dist(q, m);
        let mut want: Vec<f64> = disks.iter().map(|d| d.max_dist(q)).collect();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(got.len(), m.min(disks.len()));
        for (i, &(d, _)) in got.iter().enumerate() {
            prop_assert!((d - want[i]).abs() < 1e-9);
        }
    }

    // ---------------- GroupIndex ----------------

    #[test]
    fn group_index_two_min_max_matches_scan(groups in prop::collection::vec(group(), 1..60), q in pt()) {
        let idx = GroupIndex::build(&groups);
        let mut maxes: Vec<f64> = groups
            .iter()
            .map(|g| g.iter().map(|&p| q.dist(p)).fold(f64::NEG_INFINITY, f64::max))
            .collect();
        maxes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (best, id, second) = idx.two_min_max_dist(q).unwrap();
        prop_assert!((best - maxes[0]).abs() < 1e-9);
        if groups.len() > 1 {
            prop_assert!((second - maxes[1]).abs() < 1e-9);
        } else {
            prop_assert!(second.is_infinite());
        }
        // The reported id attains the minimum.
        let attained = groups[id as usize]
            .iter()
            .map(|&p| q.dist(p))
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((attained - best).abs() < 1e-9);
    }

    #[test]
    fn group_index_filtered_query_matches_filtered_scan(
        groups in prop::collection::vec(group(), 2..60),
        q in pt(),
        mask_seed in 0u64..1024,
    ) {
        let idx = GroupIndex::build(&groups);
        // A deterministic pseudo-random live mask from the seed.
        let live = |i: usize| (mask_seed >> (i % 10)) & 1 == 0;
        let mut maxes: Vec<f64> = groups
            .iter()
            .enumerate()
            .filter(|&(i, _)| live(i))
            .map(|(_, g)| g.iter().map(|&p| q.dist(p)).fold(f64::NEG_INFINITY, f64::max))
            .collect();
        maxes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let got = idx.two_min_max_dist_where(q, |id| live(id as usize));
        match (maxes.len(), got) {
            (0, None) => {}
            (0, Some(g)) => prop_assert!(false, "answered {:?} with all groups dead", g),
            (_, None) => prop_assert!(false, "no answer with {} live groups", maxes.len()),
            (n, Some((best, id, second))) => {
                prop_assert!(live(id as usize), "reported a dead group");
                prop_assert!((best - maxes[0]).abs() < 1e-9);
                if n > 1 {
                    prop_assert!((second - maxes[1]).abs() < 1e-9);
                } else {
                    prop_assert!(second.is_infinite());
                }
            }
        }
    }
}

// ---------------- deterministic edge cases ----------------

#[test]
fn empty_structures_answer_empty() {
    let kd = KdTree::build(vec![]);
    assert!(kd.nearest(Point::new(0.0, 0.0)).is_none());
    assert!(kd.in_disk(Point::new(0.0, 0.0), 5.0).is_empty());
    let qt = QuadTree::build(vec![]);
    assert!(qt.nearest(Point::new(0.0, 0.0)).is_none());
    let di = DiskIndex::build(vec![]);
    assert!(di.two_min_max_dist(Point::new(0.0, 0.0)).is_none());
    assert!(di.nonzero_nn(Point::new(0.0, 0.0)).is_empty());
    let gi = GroupIndex::build::<Vec<Point>>(&[]);
    assert!(gi.two_min_max_dist(Point::new(0.0, 0.0)).is_none());
    assert!(gi
        .two_min_max_dist_where(Point::new(0.0, 0.0), |_| true)
        .is_none());
}

#[test]
fn duplicate_heavy_inputs_stay_consistent() {
    // 64 copies of 4 distinct points: payloads must all be retained and
    // range queries must count multiplicity.
    let distinct = [
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(0.0, 1.0),
        Point::new(1.0, 1.0),
    ];
    let items: Vec<(Point, u32)> = (0..64u32).map(|i| (distinct[i as usize % 4], i)).collect();
    let kd = KdTree::build(items.clone());
    assert_eq!(kd.in_disk(Point::new(0.0, 0.0), 0.0).len(), 16);
    assert_eq!(kd.in_disk(Point::new(0.5, 0.5), 2.0).len(), 64);
    let qt = QuadTree::build(items);
    let order: Vec<f64> = qt
        .nearest_iter(Point::new(0.0, 0.0))
        .map(|(_, _, d)| d)
        .collect();
    assert_eq!(order.len(), 64);
    assert_eq!(order[0], 0.0);
    assert_eq!(order[15], 0.0);
    assert!(order[16] > 0.0);
}

#[test]
fn group_index_single_live_group_reports_infinite_second() {
    let groups: Vec<Vec<Point>> = (0..12)
        .map(|i| vec![Point::new(i as f64, 0.0), Point::new(i as f64, 2.0)])
        .collect();
    let idx = GroupIndex::build(&groups);
    let q = Point::new(3.0, 1.0);
    let (_, id, second) = idx.two_min_max_dist_where(q, |g| g == 7).unwrap();
    assert_eq!(id, 7);
    assert!(second.is_infinite());
    // Filter narrowing is consistent with the unfiltered query.
    let (b_all, id_all, _) = idx.two_min_max_dist(q).unwrap();
    let (b_again, id_again, _) = idx.two_min_max_dist_where(q, |_| true).unwrap();
    assert_eq!(id_all, id_again);
    assert_eq!(b_all.to_bits(), b_again.to_bits());
}
