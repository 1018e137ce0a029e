//! Differential suite for the SoA chunked-lane distance kernels
//! (`uncertain_spatial::soa`): the vectorized filter phase must be
//! **bit-identical** — same distances, same hit order — to the scalar
//! reference forms, over arbitrary subranges (the kd-tree leaf call shape)
//! and degenerate geometry (coincident locations from grid snapping, zero
//! weights, boundary radii). This is the contract that
//! lets the exact Lemma 2.1 / Eq. (2) decision logic sit on top of the
//! vectorized distance pass without an exactness audit per call site.

use proptest::prelude::*;
use uncertain_geom::Point;
use uncertain_nn::quantification::slab::LocationSlab;
use uncertain_spatial::soa::PointSlab;

fn pt() -> impl Strategy<Value = Point> {
    (-50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y)| Point::new(x, y))
}

/// Grid-snapped points: duplicates (coincident locations) are common, and
/// query distances land exactly on radius boundaries.
fn grid_pt() -> impl Strategy<Value = Point> {
    (-6i32..=6, -6i32..=6).prop_map(|(x, y)| Point::new(x as f64, y as f64))
}

/// Hits as `(index, distance bits)` — comparing bits catches any deviation
/// in the float expression, comparing the whole `Vec` catches reordering.
fn hits_of(f: impl FnOnce(&mut dyn FnMut(usize, f64))) -> Vec<(usize, u64)> {
    let mut out = vec![];
    f(&mut |i, d| out.push((i, d.to_bits())));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dist_all_bit_identical_to_scalar(pts in prop::collection::vec(pt(), 1..300), q in pt()) {
        let slab = PointSlab::from_points(pts.iter().copied());
        let (mut lane, mut scalar) = (vec![], vec![]);
        slab.dist_all_into(q, &mut lane);
        slab.dist_all_into_scalar(q, &mut scalar);
        prop_assert_eq!(lane.len(), scalar.len());
        for (i, (a, b)) in lane.iter().zip(&scalar).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "index {}", i);
            prop_assert_eq!(a.to_bits(), q.dist(pts[i]).to_bits(), "vs Point::dist at {}", i);
        }
    }

    #[test]
    fn disk_filter_matches_scalar_on_coincident_grids(
        pts in prop::collection::vec(grid_pt(), 1..200),
        q in grid_pt(),
        pick in 0usize..200,
    ) {
        let slab = PointSlab::from_points(pts.iter().copied());
        // A radius exactly equal to an existing distance: the ≤ boundary
        // must resolve identically in both paths.
        let r = q.dist(pts[pick % pts.len()]);
        let lane = hits_of(|f| slab.for_each_in_disk_in_range(0, pts.len(), q, r, f));
        let scalar =
            hits_of(|f| slab.for_each_in_disk_in_range_scalar(0, pts.len(), q, r, f));
        prop_assert_eq!(lane, scalar);
    }

    #[test]
    fn subrange_filter_matches_scalar(
        pts in prop::collection::vec(pt(), 1..300),
        q in pt(),
        r in 0.0f64..80.0,
        bounds in (0usize..300, 0usize..300),
    ) {
        let slab = PointSlab::from_points(pts.iter().copied());
        let (a, b) = (bounds.0 % (pts.len() + 1), bounds.1 % (pts.len() + 1));
        let (start, end) = (a.min(b), a.max(b));
        let lane = hits_of(|f| slab.for_each_in_disk_in_range(start, end, q, r, f));
        let scalar =
            hits_of(|f| slab.for_each_in_disk_in_range_scalar(start, end, q, r, f));
        prop_assert_eq!(lane, scalar);
    }

    #[test]
    fn location_slab_entries_bit_identical_with_zero_weights(
        sites in prop::collection::vec(
            (prop::collection::vec(grid_pt(), 1..5), prop::collection::vec(0u8..3, 1..5)),
            1..40,
        ),
        q in grid_pt(),
    ) {
        // Weights drawn from {0, 0.5, 1}: zero-weight locations must flow
        // through the entry assembly untouched (the sweep downstream is in
        // charge of their semantics, not the distance kernel).
        let mut slab = LocationSlab::new();
        for (site, (locs, ws)) in sites.iter().enumerate() {
            for (k, &loc) in locs.iter().enumerate() {
                slab.push(site, loc, f64::from(ws[k % ws.len()]) / 2.0);
            }
        }
        let kernel = slab.entries(q);
        let scalar = slab.entries_scalar(q);
        prop_assert_eq!(kernel.len(), scalar.len());
        for (a, b) in kernel.iter().zip(&scalar) {
            prop_assert_eq!(a.0.to_bits(), b.0.to_bits());
            prop_assert_eq!(a.1, b.1);
            prop_assert_eq!(a.2.to_bits(), b.2.to_bits());
        }
    }
}
