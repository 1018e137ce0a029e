//! Degeneracy gauntlet: the exact-predicate kernel end to end.
//!
//! Every test here aims at the measure-zero (or ulp-scale) inputs that
//! defeat naive floating-point geometry: queries exactly **on** Voronoi
//! edges and vertices, exactly on subdivision edges and slab boundaries,
//! cocircular site families, collinear sites, and huge shared coordinate
//! offsets. The invariant throughout: the `V≠0` point-location path
//! (`query_located`) and the engine's `nonzero:dynamic` plan must agree
//! with the brute-force Lemma 2.1 oracle on *every* query — certified
//! locations are served from the structure, everything else falls back to
//! the oracle itself, so agreement must be exact, never approximate.
//!
//! Boundary constructions use even-integer coordinates so that midpoints,
//! bisector coefficients, and equidistance relations are exactly
//! representable in f64 — the queries really are *on* the degeneracy, not
//! merely near it.

use uncertain_engine::{Engine, EngineConfig, NonzeroPlan, QueryRequest, QueryResult};
use uncertain_geom::{Aabb, Point};
use uncertain_nn::model::{DiscreteSet, DiscreteUncertainPoint};
use uncertain_nn::quantification::exact::quantification_discrete;
use uncertain_nn::quantification::ProbabilisticVoronoiDiagram;
use uncertain_nn::vnz::DiscreteNonzeroDiagram;
use uncertain_nn::workload;
use uncertain_voronoi::Delaunay;

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

fn certain_set(locs: &[Point]) -> DiscreteSet {
    DiscreteSet::new(
        locs.iter()
            .map(|&l| DiscreteUncertainPoint::certain(l))
            .collect(),
    )
}

fn brute(set: &DiscreteSet, q: Point) -> Vec<usize> {
    let mut ids = set.nonzero_nn(q);
    ids.sort_unstable();
    ids
}

fn assert_located_matches_brute(set: &DiscreteSet, d: &DiscreteNonzeroDiagram, queries: &[Point]) {
    for &q in queries {
        assert_eq!(
            d.query_located(q),
            brute(set, q),
            "diagram vs Lemma 2.1 oracle at {q}"
        );
    }
}

/// 12 certain sites exactly on the circle of radius 25 around an
/// even-integer center — every quadruple is cocircular.
fn cocircular_ring(cx: f64, cy: f64) -> Vec<Point> {
    [
        (7.0, 24.0),
        (24.0, 7.0),
        (24.0, -7.0),
        (7.0, -24.0),
        (-7.0, -24.0),
        (-24.0, -7.0),
        (-24.0, 7.0),
        (-7.0, 24.0),
        (15.0, 20.0),
        (20.0, -15.0),
        (-15.0, -20.0),
        (-20.0, 15.0),
    ]
    .iter()
    .map(|&(x, y)| p(cx + x, cy + y))
    .collect()
}

#[test]
fn grid_voronoi_edges_and_vertices_match_oracle() {
    // Certain sites on an even 3×3 grid: Voronoi edges lie exactly on odd
    // integer lines, Voronoi vertices exactly on odd-odd integer points.
    let sites: Vec<Point> = (0..3)
        .flat_map(|i| (0..3).map(move |j| p(4.0 * i as f64, 4.0 * j as f64)))
        .collect();
    let set = certain_set(&sites);
    let bbox = Aabb::from_corners(p(-20.0, -20.0), p(28.0, 28.0));
    let d = DiscreteNonzeroDiagram::build(&set, &bbox);

    let mut queries = vec![];
    // Exactly on Voronoi edges: midpoints of horizontally/vertically
    // adjacent sites, and sliding along the shared edge.
    for i in 0..3 {
        for j in 0..2 {
            queries.push(p(4.0 * i as f64, 4.0 * j as f64 + 2.0)); // vertical mid
            queries.push(p(4.0 * j as f64 + 2.0, 4.0 * i as f64)); // horizontal mid
            queries.push(p(4.0 * j as f64 + 2.0, 4.0 * i as f64 + 1.0)); // on edge, off mid
        }
    }
    // Exactly on Voronoi vertices (equidistant from 4 sites).
    for i in 0..2 {
        for j in 0..2 {
            queries.push(p(4.0 * i as f64 + 2.0, 4.0 * j as f64 + 2.0));
        }
    }
    // Exactly on the sites themselves, and clearly interior points.
    queries.extend(sites.iter().copied());
    queries.push(p(0.5, 0.25));
    queries.push(p(7.0, 3.0));
    assert_located_matches_brute(&set, &d, &queries);
}

#[test]
fn cocircular_sites_match_oracle_at_center_and_edges() {
    let sites = cocircular_ring(0.0, 0.0);
    let set = certain_set(&sites);
    let bbox = Aabb::from_corners(p(-80.0, -80.0), p(80.0, 80.0));
    let d = DiscreteNonzeroDiagram::build(&set, &bbox);

    let mut queries = vec![p(0.0, 0.0)]; // equidistant from all 12 sites
                                         // On bisectors of neighboring ring sites: the midpoint of two sites
                                         // with even coordinate sums is exactly representable.
    for w in sites.windows(2) {
        queries.push(p((w[0].x + w[1].x) / 2.0, (w[0].y + w[1].y) / 2.0));
    }
    queries.extend(sites.iter().copied());
    queries.extend(workload::random_queries(100, 70.0, 5));
    assert_located_matches_brute(&set, &d, &queries);

    // The Delaunay triangulation of the ring must terminate and stay
    // exactly Delaunay despite every quadruple being cocircular; nearest
    // queries at the center (a 12-way tie) must return a site at the exact
    // tie distance.
    let dt = Delaunay::build(&sites);
    let near = dt.nearest_site(p(0.0, 0.0)).unwrap() as usize;
    assert_eq!(
        sites[near].x * sites[near].x + sites[near].y * sites[near].y,
        625.0
    );
    // Exactly on a Delaunay/Voronoi boundary between two adjacent sites:
    // the returned site must achieve the true minimum distance.
    let m = p(
        (sites[0].x + sites[7].x) / 2.0,
        (sites[0].y + sites[7].y) / 2.0,
    );
    let near = dt.nearest_site(m).unwrap() as usize;
    let best = sites
        .iter()
        .map(|s| m.dist(*s))
        .fold(f64::INFINITY, f64::min);
    assert_eq!(m.dist(sites[near]), best);
}

#[test]
fn collinear_sites_match_oracle_on_the_line() {
    // All sites on the x-axis (including duplicates of spacing): the γ
    // curves degenerate to vertical bisector lines.
    let sites: Vec<Point> = (0..7).map(|i| p(4.0 * i as f64, 0.0)).collect();
    let set = certain_set(&sites);
    let bbox = Aabb::from_corners(p(-30.0, -30.0), p(54.0, 30.0));
    let d = DiscreteNonzeroDiagram::build(&set, &bbox);

    let mut queries = vec![];
    for i in 0..6 {
        queries.push(p(4.0 * i as f64 + 2.0, 0.0)); // on the line, on a bisector
        queries.push(p(4.0 * i as f64 + 2.0, 8.0)); // off the line, on a bisector
        queries.push(p(4.0 * i as f64 + 1.0, 0.0)); // on the line, between
    }
    queries.extend(sites.iter().copied());
    assert_located_matches_brute(&set, &d, &queries);

    // Delaunay of collinear input has no triangles but exact nearest:
    // query exactly between two sites returns one at the tie distance.
    let dt = Delaunay::build(&sites);
    let near = dt.nearest_site(p(6.0, 0.0)).unwrap() as usize;
    assert_eq!(p(6.0, 0.0).dist(sites[near]), 2.0);
}

#[test]
fn subdivision_vertices_and_slab_boundaries_fall_back_exactly() {
    // Random (uncertain, multi-location) sets: query exactly at stored
    // subdivision vertices and exactly on their slab boundary abscissae —
    // the certified locator must refuse and the fallback must agree with
    // the oracle.
    for seed in [3u64, 14, 77] {
        let set = workload::random_discrete_set(6, 3, 7.0, seed);
        let bbox = Aabb::from_corners(p(-60.0, -60.0), p(60.0, 60.0));
        let d = DiscreteNonzeroDiagram::build(&set, &bbox);
        let mut queries = vec![];
        for v in d.subdivision.vertices.iter().step_by(7).take(40) {
            queries.push(*v); // exactly on a vertex
            queries.push(p(v.x, v.y + 1.0)); // exactly on its slab boundary
            queries.push(p(v.x, v.y - 0.25));
        }
        // Exactly on stored edges: both endpoints are stored vertices, and
        // the *endpoints themselves* are on the edge; interior edge points
        // land within the guard band, which must also fall back cleanly.
        for &(a, b) in d.subdivision.edges.iter().step_by(11).take(30) {
            let pa = d.subdivision.vertices[a as usize];
            let pb = d.subdivision.vertices[b as usize];
            queries.push(pa.midpoint(pb));
        }
        assert_located_matches_brute(&set, &d, &queries);
    }
}

#[test]
fn engine_dynamic_plan_matches_brute_on_boundaries_at_1_and_4_workers() {
    // Certain sites on an even 3×3 grid served through the engine's
    // `nonzero:dynamic` plan: check every answer — including queries
    // exactly on Voronoi edges and vertices — against the Lemma 2.1 oracle,
    // at 1 worker and >1 workers.
    let sites: Vec<Point> = (0..3)
        .flat_map(|i| (0..3).map(move |j| p(4.0 * i as f64, 4.0 * j as f64)))
        .collect();
    let set = certain_set(&sites);

    let mut points = vec![];
    for i in 0..3 {
        for j in 0..2 {
            points.push(p(4.0 * i as f64, 4.0 * j as f64 + 2.0));
            points.push(p(4.0 * j as f64 + 2.0, 4.0 * i as f64));
        }
    }
    for i in 0..2 {
        for j in 0..2 {
            points.push(p(4.0 * i as f64 + 2.0, 4.0 * j as f64 + 2.0));
        }
    }
    points.extend(sites.iter().copied());
    points.extend(workload::random_queries(32, 20.0, 9));

    for threads in [1usize, 4] {
        let engine = Engine::new(
            set.clone(),
            EngineConfig {
                threads: Some(threads),
                ..EngineConfig::default()
            },
        );
        let batch: Vec<QueryRequest> = points
            .iter()
            .map(|&q| QueryRequest::Nonzero { q })
            .collect();
        let resp = engine.run_batch(&batch);
        assert_eq!(resp.stats.plan.nonzero, Some(NonzeroPlan::Dynamic));
        for (req, res) in batch.iter().zip(&resp.results) {
            let (QueryRequest::Nonzero { q }, QueryResult::Nonzero(ids)) = (req, res) else {
                panic!("result shape mismatch");
            };
            assert_eq!(ids, &brute(&set, *q), "at {q} ({threads} workers)");
        }
    }
}

#[test]
fn near_parallel_bisectors_match_oracle() {
    // Almost-collinear sites produce nearly parallel bisectors whose
    // pairwise crossings are numerically ill-conditioned — the regime where
    // a naive f64 intersection quotient places arrangement vertices
    // arbitrarily far from the true crossing. With the exact-expansion
    // quotients and the per-slab order certificates, located answers must
    // still agree with the oracle everywhere, including on and near the
    // shallow crossings.
    for jitter in [1e-7, 1e-10, 1e-13] {
        let sites: Vec<Point> = (0..6)
            .map(|i| {
                let s = if i % 2 == 0 { 1.0 } else { -1.0 };
                p(6.0 * i as f64, s * jitter * (i as f64 + 1.0))
            })
            .collect();
        let set = certain_set(&sites);
        let bbox = Aabb::from_corners(p(-30.0, -30.0), p(60.0, 30.0));
        let d = DiscreteNonzeroDiagram::build(&set, &bbox);
        let mut queries = vec![];
        // Near the almost-shared line and on the near-degenerate bisector
        // crossings' neighborhood.
        for i in 0..6 {
            for &dy in &[0.0, jitter, -jitter, 0.5, -0.5] {
                queries.push(p(6.0 * i as f64 + 3.0, dy));
            }
        }
        queries.extend(workload::random_queries(100, 40.0, 31));
        assert_located_matches_brute(&set, &d, &queries);
    }
}

#[test]
fn vpr_bisector_queries_fall_back_to_the_exact_sweep() {
    // Even-integer locations make location-pair midpoints exactly
    // representable: such queries are exactly on a bisector line, the
    // locator refuses them, and the answer must equal the exact sweep
    // bit-for-bit.
    let set = DiscreteSet::new(vec![
        DiscreteUncertainPoint::uniform(vec![p(-8.0, 0.0), p(-4.0, 2.0)]),
        DiscreteUncertainPoint::uniform(vec![p(8.0, 0.0), p(4.0, -2.0)]),
        DiscreteUncertainPoint::certain(p(0.0, 10.0)),
    ]);
    let bbox = Aabb::from_corners(p(-40.0, -40.0), p(40.0, 40.0));
    let vpr = ProbabilisticVoronoiDiagram::build(&set, &bbox);

    let locs: Vec<Point> = set.all_locations().map(|(_, _, l, _)| l).collect();
    for i in 0..locs.len() {
        for j in (i + 1)..locs.len() {
            let m = p((locs[i].x + locs[j].x) / 2.0, (locs[i].y + locs[j].y) / 2.0);
            let got = vpr.query(m);
            let exact: Vec<(usize, f64)> = quantification_discrete(&set, m)
                .into_iter()
                .enumerate()
                .filter(|&(_, v)| v > 0.0)
                .collect();
            assert_eq!(got, exact, "on-bisector query at {m}");
        }
    }
}
