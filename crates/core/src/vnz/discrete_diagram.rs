//! The discrete nonzero Voronoi diagram (Section 2.2, Theorem 2.14).
//!
//! For discrete uncertain points the curves `γ_i` are *polygonal*: with the
//! lifting `f(x, p) = ‖p‖² − 2⟨x, p⟩`, the region where `P_j` surely beats
//! `P_i` is the convex polygon
//!
//! ```text
//!   K_ij = { x : Φ_j(x) ≤ φ_i(x) } = ∩_{a,b} { f(x, p_jb) ≤ f(x, p_ia) }
//! ```
//!
//! (Lemma 2.13: an intersection of `≤ k²` halfplanes), and
//! `γ_i = ∂( ∪_{j≠i} K_ij )`. The diagram is the planar subdivision induced
//! by all the `γ_i` — a segment arrangement, with complexity `O(kn³)`
//! (Theorem 2.14), measured in experiment E6.
//!
//! Everything is computed inside a caller-provided working box (the paper's
//! subdivision is of all of `R²`; the box plays the role of the "frame at
//! infinity" and its edges are excluded from complexity counts).

use crate::model::DiscreteSet;
use crate::nonzero::brute::nonzero_nn_discrete;
use uncertain_arrangement::segment::{segment_intersections, Segment};
use uncertain_arrangement::subdivision::{Subdivision, TaggedSegment};
use uncertain_geom::halfplane::{intersect_halfplanes, Halfplane};
use uncertain_geom::predicates::orient2d;
use uncertain_geom::{Aabb, Point};

/// A labeled bounded face of the discrete diagram.
#[derive(Clone, Debug)]
pub struct LabeledFace {
    /// A point strictly inside the face.
    pub sample: Point,
    /// `NN≠0` on this face (sorted).
    pub label: Vec<usize>,
    pub area: f64,
    /// `true` when the sample point is certified to lie in the face's guard
    /// interior (clear of the construction snap tolerance), so the label is
    /// provably valid for every certified-interior query of the face. Faces
    /// too thin to certify are never served from the location fast path.
    pub certified: bool,
}

/// The discrete nonzero Voronoi diagram within a working box.
pub struct DiscreteNonzeroDiagram {
    pub subdivision: Subdivision,
    pub faces: Vec<LabeledFace>,
    /// Delta-encoded label storage over the face-adjacency graph — the
    /// practical stand-in for the persistent sets of \[DSST89\] the paper
    /// cites: crossing an edge of curve `γ_i` toggles `P_i`'s membership,
    /// so storing one root label per adjacency component plus one toggle
    /// per tree edge reconstructs every face label.
    pub label_store: DeltaLabelStore,
    /// Slab point-location over the subdivision edges (Theorem 2.14's
    /// `O(log µ + t)` query structure).
    locator: uncertain_arrangement::SegmentSlabLocator,
    /// Face id per half-edge (from tracing), for the locator.
    face_of_he: Vec<u32>,
    set: DiscreteSet,
    bbox: Aabb,
    /// Number of γ boundary segments before splitting (curve complexity).
    gamma_segments: usize,
    /// Clearance required of a certified location: a multiple of the
    /// subdivision snap tolerance, chosen so that anything farther than
    /// `guard` from every stored edge is provably on the same side of every
    /// un-snapped γ curve (snapping moves geometry by at most the snap
    /// tolerance; the 8× factor leaves generous slack).
    guard: f64,
}

/// Delta-encoded per-face label storage (the \[DSST89\] idea the paper cites:
/// storing `P_φ` for all cells costs only `O(µ)` because adjacent cells
/// differ in one element).
#[derive(Clone, Debug, Default)]
pub struct DeltaLabelStore {
    /// Per face: `(parent face, toggled points)` — `parent = u32::MAX`
    /// marks a root, whose full label is stored in `roots`.
    parents: Vec<(u32, Vec<u32>)>,
    /// Root labels, keyed by face id.
    roots: std::collections::HashMap<u32, Vec<usize>>,
}

impl DeltaLabelStore {
    /// Builds the store from the adjacency graph: BFS forest; each tree edge
    /// stores the set of toggled points (several when γ curves coincide
    /// geometrically). Curve ids ≥ `n_points` (the working-box frame) are
    /// dropped. Every encoded label is verified against the explicitly
    /// computed one; on mismatch (conservatively possible under extreme
    /// snapping degeneracies) the face becomes its own root, preserving
    /// exactness.
    fn build(
        n_faces: usize,
        n_points: usize,
        adjacencies: &[uncertain_arrangement::subdivision::FaceAdjacency],
        full: &[Vec<usize>],
    ) -> Self {
        let mut adj: Vec<Vec<(u32, Vec<u32>)>> = vec![vec![]; n_faces];
        for fa in adjacencies {
            let curves: Vec<u32> = fa
                .curves
                .iter()
                .copied()
                .filter(|&c| (c as usize) < n_points)
                .collect();
            if curves.is_empty() {
                continue;
            }
            adj[fa.a as usize].push((fa.b, curves.clone()));
            adj[fa.b as usize].push((fa.a, curves));
        }
        let mut parents: Vec<(u32, Vec<u32>)> = vec![(u32::MAX, vec![]); n_faces];
        let mut roots = std::collections::HashMap::new();
        let mut seen = vec![false; n_faces];
        for start in 0..n_faces {
            if seen[start] {
                continue;
            }
            seen[start] = true;
            roots.insert(start as u32, full[start].clone());
            let mut queue = std::collections::VecDeque::from([start as u32]);
            while let Some(f) = queue.pop_front() {
                for (g, curves) in adj[f as usize].clone() {
                    if seen[g as usize] {
                        continue;
                    }
                    // Verify the toggle actually transforms f's label into
                    // g's (guards against snapping artifacts).
                    let mut expect: std::collections::BTreeSet<usize> =
                        full[f as usize].iter().copied().collect();
                    for &c in &curves {
                        let c = c as usize;
                        if !expect.remove(&c) {
                            expect.insert(c);
                        }
                    }
                    let matches =
                        expect.iter().copied().collect::<Vec<usize>>() == full[g as usize];
                    seen[g as usize] = true;
                    if matches {
                        parents[g as usize] = (f, curves);
                    } else {
                        roots.insert(g, full[g as usize].clone());
                    }
                    queue.push_back(g);
                }
            }
        }
        DeltaLabelStore { parents, roots }
    }

    /// Reconstructs the label of `face` by walking to its root and applying
    /// the toggles along the way.
    pub fn label(&self, face: usize) -> Vec<usize> {
        let mut toggles: Vec<u32> = vec![];
        let mut cur = face as u32;
        loop {
            if let Some(root) = self.roots.get(&cur) {
                let mut set: std::collections::BTreeSet<usize> = root.iter().copied().collect();
                for &t in &toggles {
                    let t = t as usize;
                    if !set.remove(&t) {
                        set.insert(t);
                    }
                }
                return set.into_iter().collect();
            }
            let (parent, curves) = &self.parents[cur as usize];
            toggles.extend(curves.iter().copied());
            cur = *parent;
        }
    }

    /// Storage cost in stored indices: Σ|root labels| + Σ|toggle sets|
    /// (vs Σ|labels| for explicit storage).
    pub fn storage_cost(&self) -> usize {
        let root_cost: usize = self.roots.values().map(|v| v.len()).sum();
        let delta_cost: usize = self
            .parents
            .iter()
            .filter(|(par, _)| *par != u32::MAX)
            .map(|(_, c)| c.len())
            .sum();
        root_cost + delta_cost
    }

    /// Number of roots (1 per adjacency component plus fallbacks).
    pub fn num_roots(&self) -> usize {
        self.roots.len()
    }
}

impl DiscreteNonzeroDiagram {
    /// Builds the diagram of `set` clipped to `bbox`.
    pub fn build(set: &DiscreteSet, bbox: &Aabb) -> Self {
        let n = set.len();
        let scale = bbox.radius().max(1.0);
        // 1. The convex "loss polygons" K_ij for every ordered pair.
        let mut loss: Vec<Vec<Vec<Point>>> = vec![vec![]; n]; // loss[i] = list of K_ij
        #[allow(clippy::needless_range_loop)] // `i` and `j` index `set` and `loss` symmetrically
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let poly = loss_polygon(set, i, j, bbox);
                if !poly.is_empty() {
                    loss[i].push(poly);
                }
            }
        }
        // 2. γ_i = boundary of the union of loss[i], as segments.
        let mut segments: Vec<TaggedSegment> = vec![];
        let mut gamma_segments = 0usize;
        #[allow(clippy::needless_range_loop)] // `i` is also the curve tag
        for i in 0..n {
            let boundary = union_boundary(&loss[i], bbox, scale);
            gamma_segments += boundary.len();
            segments.extend(boundary.into_iter().map(|seg| TaggedSegment {
                seg,
                curve: i as u32,
            }));
        }
        // 3. The arrangement of all curves, framed by the working box so
        // the "faces at infinity" become bounded and labelable.
        let corners = bbox.corners();
        for w in 0..4 {
            segments.push(TaggedSegment {
                seg: Segment::new(corners[w], corners[(w + 1) % 4]),
                curve: (n + w) as u32,
            });
        }
        let subdivision = Subdivision::build(&segments, 1e-9 * scale);
        // 4. Label bounded faces by evaluating NN≠0 at the face samples.
        let traced = subdivision.traced_faces();
        let mut faces: Vec<LabeledFace> = traced
            .faces
            .iter()
            .map(|f| {
                let mut label = nonzero_nn_discrete(set, f.sample);
                label.sort_unstable();
                LabeledFace {
                    sample: f.sample,
                    label,
                    area: f.area,
                    certified: false,
                }
            })
            .collect();
        // 5. Delta-encode the labels over the adjacency forest ([DSST89]).
        let full: Vec<Vec<usize>> = faces.iter().map(|f| f.label.clone()).collect();
        let label_store = DeltaLabelStore::build(faces.len(), n, &traced.adjacencies, &full);
        // 6. Point-location structure (Theorem 2.14's query companion).
        let locator = uncertain_arrangement::SegmentSlabLocator::build(
            &subdivision.vertices,
            &subdivision.edges,
        );
        // 7. Certify face samples: a face's label may be served from the
        // location fast path only when its sample provably sits clear of
        // the snap-tolerance shell around the face boundary (otherwise the
        // brute label computed at the sample could belong to a neighboring
        // un-snapped region).
        let guard = 8.0 * subdivision.snap_tol();
        for (fid, face) in faces.iter_mut().enumerate() {
            if let uncertain_arrangement::CertifiedLocation::Interior { edge } =
                locator.locate_certified(face.sample, guard)
            {
                face.certified =
                    face_above_edge(&subdivision, &traced.face_of_halfedge, edge) == Some(fid);
            }
        }
        DiscreteNonzeroDiagram {
            subdivision,
            faces,
            label_store,
            locator,
            face_of_he: traced.face_of_halfedge,
            set: set.clone(),
            bbox: *bbox,
            gamma_segments,
            guard,
        }
    }

    /// `NN≠0(q)` (Lemma 2.1 evaluation — see DESIGN.md substitutions).
    pub fn query(&self, q: Point) -> Vec<usize> {
        nonzero_nn_discrete(&self.set, q)
    }

    /// The bounded face containing `q`, by certified slab point location
    /// (`O(log µ)`).
    ///
    /// Returns `Some` only when the answer is *certified*: `q` keeps a
    /// guard-band clearance (a small multiple of the construction snap
    /// tolerance) from every stored edge and slab boundary, and the face's
    /// own sample is certified the same way — so the served label provably
    /// equals the Lemma 2.1 evaluation at `q`. Returns `None` when `q` is
    /// outside the working box, exactly on an edge or vertex, inside the
    /// guard band, above a hole boundary, or in an uncertified (too-thin)
    /// face — callers fall back to [`query`](Self::query), which is exact,
    /// so the combined query path is exact for **every** `q`.
    pub fn locate_face(&self, q: Point) -> Option<usize> {
        let uncertain_arrangement::CertifiedLocation::Interior { edge } =
            self.locator.locate_certified(q, self.guard)
        else {
            return None;
        };
        let f = face_above_edge(&self.subdivision, &self.face_of_he, edge)?;
        self.faces[f].certified.then_some(f)
    }

    /// `NN≠0(q)` through the point-location structure — the Theorem 2.14
    /// query path: `O(log µ + t)` when certified location succeeds, exact
    /// Lemma 2.1 fallback otherwise. Unconditionally agrees with
    /// [`query`](Self::query).
    pub fn query_located(&self, q: Point) -> Vec<usize> {
        match self.locate_face(q) {
            Some(f) => self.faces[f].label.clone(),
            None => self.query(q),
        }
    }

    /// The guard-band clearance certified locations must keep (a small
    /// multiple of the subdivision snap tolerance).
    pub fn location_guard(&self) -> f64 {
        self.guard
    }

    /// Number of faces whose samples certify for fast-path serving.
    pub fn certified_faces(&self) -> usize {
        self.faces.iter().filter(|f| f.certified).count()
    }

    /// Size of the point-location structure (slab–edge incidences).
    pub fn locator_size(&self) -> usize {
        self.locator.size()
    }

    /// Combinatorial complexity `V + E + F` of the subdivision (the measure
    /// bounded by Theorem 2.14; includes the working-box frame).
    pub fn complexity(&self) -> usize {
        self.subdivision.complexity()
    }

    /// Number of γ boundary segments before arrangement splitting.
    pub fn gamma_segment_count(&self) -> usize {
        self.gamma_segments
    }

    pub fn bbox(&self) -> &Aabb {
        &self.bbox
    }

    /// Number of distinct face labels among bounded faces.
    pub fn distinct_labels(&self) -> usize {
        let mut labels: Vec<&[usize]> = self.faces.iter().map(|f| f.label.as_slice()).collect();
        labels.sort();
        labels.dedup();
        labels.len()
    }
}

/// The bounded face lying *above* subdivision edge `eid`: the face of the
/// rightward-pointing half-edge (its left side is "up"). `None` for hole
/// and outer boundaries.
fn face_above_edge(subdivision: &Subdivision, face_of_he: &[u32], eid: u32) -> Option<usize> {
    let (a, b) = subdivision.edges[eid as usize];
    let pa = subdivision.vertices[a as usize];
    let pb = subdivision.vertices[b as usize];
    let he = if pa.x < pb.x { 2 * eid } else { 2 * eid + 1 };
    let f = face_of_he[he as usize];
    (f != u32::MAX).then_some(f as usize)
}

/// `K_ij` clipped to the box: the convex region where every location of `j`
/// is at least as close as every location of `i`.
fn loss_polygon(set: &DiscreteSet, i: usize, j: usize, bbox: &Aabb) -> Vec<Point> {
    let pi = &set.points[i];
    let pj = &set.points[j];
    let mut planes = Vec::with_capacity(pi.k() * pj.k());
    for &pa in pi.locations() {
        for &pb in pj.locations() {
            // f(x, p_jb) ≤ f(x, p_ia)  ⇔  2(p_ia − p_jb)·x ≤ ‖p_ia‖² − ‖p_jb‖²
            let nvec = (pa - pb) * 2.0;
            let c = pa.to_vector().norm2() - pb.to_vector().norm2();
            planes.push(Halfplane::new(nvec, c));
        }
    }
    intersect_halfplanes(&planes, bbox)
}

/// Boundary of the union of convex polygons, excluding pieces on the box
/// frame: split every polygon edge at its intersections with all other
/// polygons' edges; keep subsegments whose midpoint is not strictly inside
/// any *other* polygon.
fn union_boundary(polys: &[Vec<Point>], bbox: &Aabb, scale: f64) -> Vec<Segment> {
    let mut edges: Vec<(Segment, usize)> = vec![]; // (edge, polygon id)
    for (pid, poly) in polys.iter().enumerate() {
        for e in 0..poly.len() {
            let a = poly[e];
            let b = poly[(e + 1) % poly.len()];
            if a.dist(b) > 1e-12 * scale {
                edges.push((Segment::new(a, b), pid));
            }
        }
    }
    let mut out = vec![];
    for (ei, &(seg, pid)) in edges.iter().enumerate() {
        // Skip edges lying on the box frame (artifacts of clipping).
        if on_box_frame(&seg, bbox, scale) {
            continue;
        }
        let mut params = vec![0.0, 1.0];
        for (ej, &(other, _)) in edges.iter().enumerate() {
            if ei == ej {
                continue;
            }
            for (t, _) in segment_intersections(&seg, &other) {
                params.push(t);
            }
        }
        params.sort_by(|a, b| a.partial_cmp(b).unwrap());
        params.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        for w in params.windows(2) {
            let mid = seg.at(0.5 * (w[0] + w[1]));
            let covered = polys
                .iter()
                .enumerate()
                .any(|(qid, poly)| qid != pid && strictly_inside_convex(poly, mid, scale));
            if !covered {
                out.push(Segment::new(seg.at(w[0]), seg.at(w[1])));
            }
        }
    }
    out
}

fn on_box_frame(seg: &Segment, bbox: &Aabb, scale: f64) -> bool {
    let tol = 1e-9 * scale;
    let on_wall = |p: Point| {
        (p.x - bbox.lo.x).abs() <= tol
            || (p.x - bbox.hi.x).abs() <= tol
            || (p.y - bbox.lo.y).abs() <= tol
            || (p.y - bbox.hi.y).abs() <= tol
    };
    on_wall(seg.a) && on_wall(seg.b) && {
        // Same wall: both endpoints share an x- or y-wall coordinate.
        ((seg.a.x - seg.b.x).abs() <= tol
            && ((seg.a.x - bbox.lo.x).abs() <= tol || (seg.a.x - bbox.hi.x).abs() <= tol))
            || ((seg.a.y - seg.b.y).abs() <= tol
                && ((seg.a.y - bbox.lo.y).abs() <= tol || (seg.a.y - bbox.hi.y).abs() <= tol))
    }
}

fn strictly_inside_convex(poly: &[Point], q: Point, scale: f64) -> bool {
    if poly.len() < 3 {
        return false;
    }
    let tol = 1e-9 * scale;
    for e in 0..poly.len() {
        let a = poly[e];
        let b = poly[(e + 1) % poly.len()];
        let o = orient2d(a, b, q);
        // Positive (ccw) orientation means inside-left; require a margin.
        if o <= tol * a.dist(b) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DiscreteUncertainPoint;
    use crate::workload;

    fn bbox() -> Aabb {
        Aabb::from_corners(Point::new(-60.0, -60.0), Point::new(60.0, 60.0))
    }

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn two_certain_points_bisector() {
        let set = DiscreteSet::new(vec![
            DiscreteUncertainPoint::certain(p(-5.0, 0.0)),
            DiscreteUncertainPoint::certain(p(5.0, 0.0)),
        ]);
        let d = DiscreteNonzeroDiagram::build(&set, &bbox());
        // The only curve is the bisector x = 0: two bounded faces with
        // labels {0} and {1}.
        assert_eq!(d.faces.len(), 2);
        let mut labels: Vec<Vec<usize>> = d.faces.iter().map(|f| f.label.clone()).collect();
        labels.sort();
        assert_eq!(labels, vec![vec![0], vec![1]]);
    }

    #[test]
    fn k2_pair_has_middle_region() {
        // Two 2-location points with separated clusters: in the middle both
        // can be NN, near each cluster only that point can.
        let set = DiscreteSet::new(vec![
            DiscreteUncertainPoint::uniform(vec![p(-10.0, 0.0), p(-8.0, 1.0)]),
            DiscreteUncertainPoint::uniform(vec![p(10.0, 0.0), p(8.0, -1.0)]),
        ]);
        let d = DiscreteNonzeroDiagram::build(&set, &bbox());
        let labels: std::collections::BTreeSet<Vec<usize>> =
            d.faces.iter().map(|f| f.label.clone()).collect();
        assert!(labels.contains(&vec![0]), "labels: {labels:?}");
        assert!(labels.contains(&vec![1]), "labels: {labels:?}");
        assert!(labels.contains(&vec![0, 1]), "labels: {labels:?}");
    }

    #[test]
    fn face_labels_match_brute_force_at_samples() {
        let set = workload::random_discrete_set(6, 3, 6.0, 12);
        let d = DiscreteNonzeroDiagram::build(&set, &bbox());
        assert!(!d.faces.is_empty());
        for f in &d.faces {
            let mut brute = nonzero_nn_discrete(&set, f.sample);
            brute.sort_unstable();
            assert_eq!(f.label, brute);
        }
    }

    #[test]
    fn every_nonzero_set_appears_as_a_face_label() {
        // Random queries inside the box must produce labels that exist among
        // the face labels (queries on edges are measure-zero).
        let set = workload::random_discrete_set(5, 2, 5.0, 31);
        let d = DiscreteNonzeroDiagram::build(&set, &bbox());
        let labels: std::collections::BTreeSet<Vec<usize>> =
            d.faces.iter().map(|f| f.label.clone()).collect();
        for q in workload::random_queries(200, 80.0, 7) {
            let mut s = nonzero_nn_discrete(&set, q);
            s.sort_unstable();
            assert!(
                labels.contains(&s),
                "set {s:?} at {q} not among {} face labels",
                labels.len()
            );
        }
    }

    #[test]
    fn delta_store_reconstructs_all_labels() {
        for seed in [12u64, 31] {
            let set = workload::random_discrete_set(6, 3, 6.0, seed);
            let d = DiscreteNonzeroDiagram::build(&set, &bbox());
            for (fid, f) in d.faces.iter().enumerate() {
                assert_eq!(
                    d.label_store.label(fid),
                    f.label,
                    "face {fid} label mismatch (seed {seed})"
                );
            }
            // The encoding should genuinely compress: cost below explicit
            // storage for non-trivial diagrams.
            let explicit: usize = d.faces.iter().map(|f| f.label.len()).sum();
            if d.faces.len() > 10 {
                assert!(
                    d.label_store.storage_cost() < explicit,
                    "delta {} ≥ explicit {explicit}",
                    d.label_store.storage_cost()
                );
            }
        }
    }

    #[test]
    fn delta_store_handles_coinciding_curves() {
        // Two certain points: γ_0 and γ_1 coincide on the bisector, so the
        // single separating edge must toggle both points.
        let set = DiscreteSet::new(vec![
            DiscreteUncertainPoint::certain(p(-5.0, 0.0)),
            DiscreteUncertainPoint::certain(p(5.0, 0.0)),
        ]);
        let d = DiscreteNonzeroDiagram::build(&set, &bbox());
        assert_eq!(d.faces.len(), 2);
        for (fid, f) in d.faces.iter().enumerate() {
            assert_eq!(d.label_store.label(fid), f.label);
        }
    }

    #[test]
    fn point_location_agrees_with_direct_evaluation() {
        for seed in [3u64, 14] {
            let set = workload::random_discrete_set(6, 3, 7.0, seed);
            let d = DiscreteNonzeroDiagram::build(&set, &bbox());
            let mut located = 0usize;
            for q in workload::random_queries(300, 80.0, seed + 77) {
                let via_location = d.query_located(q);
                let mut brute = nonzero_nn_discrete(&set, q);
                brute.sort_unstable();
                assert_eq!(via_location, brute, "at {q} (seed {seed})");
                if d.locate_face(q).is_some() {
                    located += 1;
                }
            }
            assert!(located > 200, "point location should succeed usually");
        }
    }

    #[test]
    fn located_face_sample_shares_label() {
        let set = workload::random_discrete_set(5, 2, 6.0, 8);
        let d = DiscreteNonzeroDiagram::build(&set, &bbox());
        for (fid, f) in d.faces.iter().enumerate() {
            // Locating the face's own sample must find the face itself (or
            // at least one with an identical label).
            if let Some(g) = d.locate_face(f.sample) {
                assert_eq!(d.faces[g].label, f.label, "face {fid} vs located {g}");
            }
        }
    }

    #[test]
    fn complexity_grows_with_k() {
        let small = workload::random_discrete_set(5, 2, 6.0, 9);
        let large = workload::random_discrete_set(5, 5, 6.0, 9);
        let d1 = DiscreteNonzeroDiagram::build(&small, &bbox());
        let d2 = DiscreteNonzeroDiagram::build(&large, &bbox());
        // Not a theorem for single instances, but overwhelmingly true and a
        // good smoke test for the k-dependence of Theorem 2.14.
        assert!(d2.complexity() + 8 >= d1.complexity());
    }
}
