//! Branch-and-bound index over *groups* of points (discrete uncertain
//! points), summarized by their smallest enclosing circles.
//!
//! For a discrete uncertain point `P_i` with SEC `(c_i, rad_i)`:
//!
//! * `Δ_i(q) = max_j ‖q − p_ij‖ ≥ max(‖q − c_i‖, rad_i)` — the first term
//!   because the SEC center lies in the convex hull of `P_i` and the distance
//!   function is convex; the second by minimality of the SEC (any point,
//!   including `q`, has some `p_ij` at distance ≥ rad_i... more precisely the
//!   SEC radius lower-bounds the max distance from *any* center candidate);
//! * `Δ_i(q) ≤ ‖q − c_i‖ + rad_i` by the triangle inequality.
//!
//! [`GroupIndex::min_max_dist`] uses these bounds to find
//! `Δ(q) = min_i Δ_i(q)` while evaluating the exact `Δ_i` (via convex hulls)
//! for only a few candidate groups — the first stage of the Theorem 3.2
//! query.
//!
//! The search itself is a [`GroupTree`]: a tree over the circles alone,
//! which asks its caller for a group's exact `Δ_i(q)`. [`GroupIndex`] is
//! the tree plus the hulls it owns; a caller that already keeps each
//! group's circle and hull (the dynamic layer computes them once per site)
//! builds a [`GroupTree`] over its circles and answers `Δ_i(q)` from its
//! own hulls, so no hull is copied or recomputed.

use uncertain_geom::hull::FarthestPointHull;
use uncertain_geom::sec::smallest_enclosing_circle;
use uncertain_geom::{Aabb, Circle, Point};

const LEAF_SIZE: usize = 4;

#[derive(Clone, Debug)]
struct Node {
    bbox: Aabb,
    min_rad: f64,
    start: u32,
    end: u32,
    left: u32,
    right: u32,
}

impl Node {
    fn is_leaf(&self) -> bool {
        self.left == u32::MAX
    }
}

#[derive(Clone, Copy, Debug)]
struct Group {
    sec: Circle,
    id: u32,
}

/// Nodes [`GroupTree::build_rec`] makes over `n ≥ 1` groups.
fn node_count(n: usize) -> usize {
    if n > LEAF_SIZE {
        1 + node_count(n / 2) + node_count(n - n / 2)
    } else {
        1
    }
}

/// A static branch-and-bound tree over groups' smallest enclosing circles,
/// supporting `min_i max_j ‖q − p_ij‖` queries. Every query takes
/// `max_dist(id)`, the exact `Δ_id(q)` of group `id` at the query point,
/// and calls it only for groups the circle bounds cannot rule out.
///
/// Callers that overlay tombstones on the static tree (the Bentley–Saxe
/// dynamic layer) can additionally maintain a **live-count overlay** — one
/// counter per tree node, seeded by [`live_counts`](Self::live_counts) and
/// decremented along root-to-leaf paths by [`kill`](Self::kill) — so the
/// [pruned fold](Self::fold_two_min_pruned) skips fully-dead
/// subtrees wholesale instead of filtering their groups one at a time.
/// Near the 50% compaction threshold that is the difference between paying
/// for the build-batch size and paying for the live population.
#[derive(Clone, Debug)]
pub struct GroupTree {
    groups: Vec<Group>,
    nodes: Vec<Node>,
    /// Group id → position in `groups` (`u32::MAX` for skipped empty ids);
    /// the build permutes `groups`, this maps back.
    pos_of_id: Vec<u32>,
}

impl GroupTree {
    /// Builds the tree; item `i` of `circles` is the smallest enclosing
    /// circle of the group with id `i`, `None` for an empty group (which
    /// is skipped). Allocates three vectors, whatever the group count.
    pub fn build<I>(circles: I) -> Self
    where
        I: IntoIterator<Item = Option<Circle>>,
        I::IntoIter: ExactSizeIterator,
    {
        let circles = circles.into_iter();
        let ids = circles.len();
        let mut groups = Vec::with_capacity(ids);
        groups.extend(circles.enumerate().filter_map(|(i, sec)| {
            Some(Group {
                sec: sec?,
                id: i as u32,
            })
        }));
        let n = groups.len();
        let mut nodes = Vec::with_capacity(if n == 0 { 0 } else { node_count(n) });
        if n > 0 {
            Self::build_rec(&mut groups, 0, n, &mut nodes);
        }
        let mut pos_of_id = vec![u32::MAX; ids];
        for (pos, g) in groups.iter().enumerate() {
            pos_of_id[g.id as usize] = pos as u32;
        }
        GroupTree {
            groups,
            nodes,
            pos_of_id,
        }
    }

    fn build_rec(groups: &mut [Group], start: usize, end: usize, nodes: &mut Vec<Node>) -> u32 {
        let slice = &groups[start..end];
        let bbox = Aabb::from_points(slice.iter().map(|g| g.sec.center));
        let min_rad = slice
            .iter()
            .map(|g| g.sec.radius)
            .fold(f64::INFINITY, f64::min);
        let id = nodes.len() as u32;
        nodes.push(Node {
            bbox,
            min_rad,
            start: start as u32,
            end: end as u32,
            left: u32::MAX,
            right: u32::MAX,
        });
        if end - start > LEAF_SIZE {
            let mid = (start + end) / 2;
            if bbox.width() >= bbox.height() {
                groups[start..end].select_nth_unstable_by(mid - start, |a, b| {
                    a.sec.center.x.partial_cmp(&b.sec.center.x).unwrap()
                });
            } else {
                groups[start..end].select_nth_unstable_by(mid - start, |a, b| {
                    a.sec.center.y.partial_cmp(&b.sec.center.y).unwrap()
                });
            }
            let left = Self::build_rec(groups, start, mid, nodes);
            let right = Self::build_rec(groups, mid, end, nodes);
            nodes[id as usize].left = left;
            nodes[id as usize].right = right;
        }
        id
    }

    /// Number of (non-empty) groups in the tree.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The two smallest `Δ_i(q)` over the groups for which `live(id)`
    /// holds: `(best, best group id, second)`. `None` when no live group
    /// exists; `second` is `+∞` with exactly one live group (see Lemma
    /// 2.1's `j ≠ i`).
    pub fn two_min_where(
        &self,
        q: Point,
        mut live: impl FnMut(u32) -> bool,
        mut max_dist: impl FnMut(u32) -> f64,
    ) -> Option<(f64, u32, f64)> {
        if self.is_empty() {
            return None;
        }
        let mut best = (f64::INFINITY, u32::MAX);
        let mut second = f64::INFINITY;
        self.min_rec(0, q, &mut live, &mut max_dist, None, &mut best, &mut second);
        if best.1 == u32::MAX {
            None
        } else {
            Some((best.0, best.1, second))
        }
    }

    /// A fresh live-count overlay: per-node subtree group counts with every
    /// group alive. Parallel to the internal node array; pass it (after
    /// [`kill`](Self::kill)s) to
    /// [`fold_two_min_pruned`](Self::fold_two_min_pruned).
    pub fn live_counts(&self) -> Vec<u32> {
        self.nodes.iter().map(|n| n.end - n.start).collect()
    }

    /// Marks group `id` dead in a live-count overlay: decrements the
    /// counter of every node whose subtree contains the group. `O(log n)`
    /// (one root-to-leaf descent). Unknown/empty ids are ignored; killing
    /// the same id twice corrupts the overlay — callers gate on their own
    /// tombstone state, exactly as with the `live` predicate.
    pub fn kill(&self, id: u32, counts: &mut [u32]) {
        let Some(&pos) = self.pos_of_id.get(id as usize) else {
            return;
        };
        if pos == u32::MAX {
            return;
        }
        let mut node = 0u32;
        loop {
            let n = &self.nodes[node as usize];
            debug_assert!((n.start..n.end).contains(&pos));
            counts[node as usize] -= 1;
            if n.is_leaf() {
                break;
            }
            // The left child covers [start, mid); descend by position.
            let mid = self.nodes[n.left as usize].end;
            node = if pos < mid { n.left } else { n.right };
        }
    }

    /// Folds the live groups' `Δ_i(q)` into a running two-min pair, pruning
    /// fully-dead subtrees through a live-count overlay. `best = (Δ, id)`
    /// and `second` hold the smallest and second-smallest value folded so
    /// far — from this tree, or from other trees the caller folded
    /// first. The search starts from that `second`, so a seeded call skips
    /// every subtree that cannot change the pair. A group folds like
    /// `if Δ < best.0 { second = best.0; best = (Δ, id) } else if Δ <
    /// second { second = Δ }`, so the final floats are the min and
    /// second-min of the whole multiset whatever the fold order; `best.1`
    /// names a group of this tree only if one took the lead here (seed it
    /// with an id this tree does not use, e.g. `u32::MAX`, to tell).
    /// `counts` must be consistent with `live` (every killed group reports
    /// dead, and vice versa); it only skips work.
    pub fn fold_two_min_pruned(
        &self,
        q: Point,
        mut live: impl FnMut(u32) -> bool,
        mut max_dist: impl FnMut(u32) -> f64,
        counts: &[u32],
        best: &mut (f64, u32),
        second: &mut f64,
    ) {
        if !self.is_empty() {
            self.min_rec(0, q, &mut live, &mut max_dist, Some(counts), best, second);
        }
    }

    /// The `m` smallest `Δ_i(q)` values with group ids, sorted ascending.
    pub fn k_min(
        &self,
        q: Point,
        m: usize,
        mut max_dist: impl FnMut(u32) -> f64,
    ) -> Vec<(f64, u32)> {
        if self.is_empty() || m == 0 {
            return vec![];
        }
        let mut heap: Vec<(f64, u32)> = Vec::with_capacity(m + 1);
        self.k_min_rec(0, q, m, &mut max_dist, &mut heap);
        heap.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        heap
    }

    fn k_min_rec(
        &self,
        node: u32,
        q: Point,
        m: usize,
        max_dist: &mut impl FnMut(u32) -> f64,
        heap: &mut Vec<(f64, u32)>,
    ) {
        let n = &self.nodes[node as usize];
        let worst = if heap.len() < m {
            f64::INFINITY
        } else {
            heap.iter()
                .map(|&(d, _)| d)
                .fold(f64::NEG_INFINITY, f64::max)
        };
        if n.bbox.dist_to_point(q).max(n.min_rad) >= worst {
            return;
        }
        if n.is_leaf() {
            for g in &self.groups[n.start as usize..n.end as usize] {
                let lb = q.dist(g.sec.center).max(g.sec.radius);
                let worst = if heap.len() < m {
                    f64::INFINITY
                } else {
                    heap.iter()
                        .map(|&(d, _)| d)
                        .fold(f64::NEG_INFINITY, f64::max)
                };
                if lb >= worst {
                    continue;
                }
                let d = max_dist(g.id);
                if heap.len() < m {
                    heap.push((d, g.id));
                } else {
                    let (wi, &(wd, _)) = heap
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).unwrap())
                        .unwrap();
                    if d < wd {
                        heap[wi] = (d, g.id);
                    }
                }
            }
            return;
        }
        let (l, r) = (n.left, n.right);
        let bl = self.nodes[l as usize].bbox.dist_to_point(q);
        let br = self.nodes[r as usize].bbox.dist_to_point(q);
        if bl <= br {
            self.k_min_rec(l, q, m, max_dist, heap);
            self.k_min_rec(r, q, m, max_dist, heap);
        } else {
            self.k_min_rec(r, q, m, max_dist, heap);
            self.k_min_rec(l, q, m, max_dist, heap);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn min_rec(
        &self,
        node: u32,
        q: Point,
        live: &mut impl FnMut(u32) -> bool,
        max_dist: &mut impl FnMut(u32) -> f64,
        counts: Option<&[u32]>,
        best: &mut (f64, u32),
        second: &mut f64,
    ) {
        let n = &self.nodes[node as usize];
        // Tombstone-aware pruning: a subtree with no live group left (the
        // caller's live-count overlay says so) is skipped wholesale.
        if counts.is_some_and(|c| c[node as usize] == 0) {
            return;
        }
        // Valid lower bound on Δ_i(q) for any group below this node:
        // Δ_i(q) ≥ max(‖q − c_i‖, rad_i) ≥ max(dist(q, bbox), min_rad).
        // Prune against the second-best so both minima stay exact.
        if n.bbox.dist_to_point(q).max(n.min_rad) >= *second {
            return;
        }
        if n.is_leaf() {
            for g in &self.groups[n.start as usize..n.end as usize] {
                if !live(g.id) {
                    continue;
                }
                // Per-group lower bound first (cheap), then exact hull scan.
                let lb = q.dist(g.sec.center).max(g.sec.radius);
                if lb >= *second {
                    continue;
                }
                let d = max_dist(g.id);
                if d < best.0 {
                    *second = best.0;
                    *best = (d, g.id);
                } else if d < *second {
                    *second = d;
                }
            }
            return;
        }
        let (l, r) = (n.left, n.right);
        let bl = self.nodes[l as usize].bbox.dist_to_point(q);
        let br = self.nodes[r as usize].bbox.dist_to_point(q);
        if bl <= br {
            self.min_rec(l, q, live, max_dist, counts, best, second);
            self.min_rec(r, q, live, max_dist, counts, best, second);
        } else {
            self.min_rec(r, q, live, max_dist, counts, best, second);
            self.min_rec(l, q, live, max_dist, counts, best, second);
        }
    }
}

/// A static index over groups of points supporting fast
/// `min_i max_j ‖q − p_ij‖` queries: a [`GroupTree`] over the groups'
/// smallest enclosing circles, answering each exact `Δ_i(q)` from the
/// group's farthest-point hull, which it owns.
#[derive(Clone, Debug)]
pub struct GroupIndex {
    tree: GroupTree,
    /// Group id → hull (no vertices for a skipped empty group).
    hulls: Vec<FarthestPointHull>,
}

impl GroupIndex {
    /// Builds the index; `groups[i]` is the point set of group with id `i`
    /// (owned or borrowed: a caller holding its groups elsewhere passes
    /// slices and copies no point). Empty groups are skipped.
    pub fn build<G: AsRef<[Point]>>(groups: &[G]) -> Self {
        let points = || groups.iter().map(AsRef::as_ref);
        GroupIndex {
            tree: GroupTree::build(points().map(smallest_enclosing_circle)),
            hulls: points()
                .map(|pts| {
                    if pts.is_empty() {
                        FarthestPointHull { vertices: vec![] }
                    } else {
                        FarthestPointHull::build(pts)
                    }
                })
                .collect(),
        }
    }

    /// The exact `Δ_id(q)` of group `id`.
    fn max_dist(&self, q: Point) -> impl Fn(u32) -> f64 + '_ {
        move |id| self.hulls[id as usize].max_dist(q)
    }

    pub fn len(&self) -> usize {
        self.tree.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// `Δ(q) = min_i Δ_i(q)` and the attaining group id.
    pub fn min_max_dist(&self, q: Point) -> Option<(f64, u32)> {
        self.two_min_max_dist(q).map(|(d, id, _)| (d, id))
    }

    /// The two smallest `Δ_i(q)` values: `(best, best group id, second)`;
    /// `second` is `+∞` with a single group (see Lemma 2.1's `j ≠ i`).
    pub fn two_min_max_dist(&self, q: Point) -> Option<(f64, u32, f64)> {
        self.two_min_max_dist_where(q, |_| true)
    }

    /// Like [`two_min_max_dist`](Self::two_min_max_dist), restricted to
    /// groups for which `live(id)` holds — the query primitive for callers
    /// that overlay tombstones on a static index. Returns `None` when no
    /// live group exists; `second` is `+∞` with exactly one live group.
    pub fn two_min_max_dist_where(
        &self,
        q: Point,
        live: impl FnMut(u32) -> bool,
    ) -> Option<(f64, u32, f64)> {
        self.tree.two_min_where(q, live, self.max_dist(q))
    }

    /// The `m` smallest `Δ_i(q)` values with group ids, sorted ascending.
    pub fn k_min_max_dist(&self, q: Point, m: usize) -> Vec<(f64, u32)> {
        self.tree.k_min(q, m, self.max_dist(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_groups(n: usize, k: usize, seed: u64) -> Vec<Vec<Point>> {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                let cx = next() * 100.0 - 50.0;
                let cy = next() * 100.0 - 50.0;
                (0..k)
                    .map(|_| Point::new(cx + next() * 6.0 - 3.0, cy + next() * 6.0 - 3.0))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn empty() {
        let idx = GroupIndex::build::<Vec<Point>>(&[]);
        assert!(idx.min_max_dist(Point::new(0.0, 0.0)).is_none());
        let idx2 = GroupIndex::build(&[vec![]]);
        assert!(idx2.is_empty());
    }

    #[test]
    fn matches_brute_force() {
        let groups = random_groups(120, 6, 9);
        let idx = GroupIndex::build(&groups);
        let mut state = 55u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 120.0 - 60.0
        };
        for _ in 0..60 {
            let q = Point::new(next(), next());
            let brute = groups
                .iter()
                .map(|g| {
                    g.iter()
                        .map(|&p| q.dist(p))
                        .fold(f64::NEG_INFINITY, f64::max)
                })
                .fold(f64::INFINITY, f64::min);
            let (got, id) = idx.min_max_dist(q).unwrap();
            assert!((got - brute).abs() < 1e-9, "got {got}, brute {brute}");
            // The reported id actually attains the minimum.
            let attained = groups[id as usize]
                .iter()
                .map(|&p| q.dist(p))
                .fold(f64::NEG_INFINITY, f64::max);
            assert!((attained - brute).abs() < 1e-9);
        }
    }

    #[test]
    fn filtered_two_min_max_matches_filtered_brute() {
        let groups = random_groups(80, 5, 13);
        let idx = GroupIndex::build(&groups);
        let mut state = 77u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for round in 0..40 {
            let q = Point::new(next() * 120.0 - 60.0, next() * 120.0 - 60.0);
            // A different live mask every round (~half the groups dead).
            let mask: Vec<bool> = (0..groups.len()).map(|i| (i + round) % 2 == 0).collect();
            let mut dists: Vec<(f64, u32)> = groups
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask[i])
                .map(|(i, g)| {
                    (
                        g.iter()
                            .map(|&p| q.dist(p))
                            .fold(f64::NEG_INFINITY, f64::max),
                        i as u32,
                    )
                })
                .collect();
            dists.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let (got_d, got_id, got_second) = idx
                .two_min_max_dist_where(q, |id| mask[id as usize])
                .unwrap();
            assert!(mask[got_id as usize], "reported a dead group");
            assert!((got_d - dists[0].0).abs() < 1e-9);
            assert!((got_second - dists[1].0).abs() < 1e-9);
        }
        // All dead → no answer; one live → second is +∞.
        let q = Point::new(0.0, 0.0);
        assert!(idx.two_min_max_dist_where(q, |_| false).is_none());
        let (_, only, second) = idx.two_min_max_dist_where(q, |id| id == 3).unwrap();
        assert_eq!(only, 3);
        assert!(second.is_infinite());
    }

    /// [`GroupTree::fold_two_min_pruned`] from an empty pair, in the
    /// shape of [`GroupIndex::two_min_max_dist_where`]'s answer.
    fn pruned(
        idx: &GroupIndex,
        q: Point,
        live: impl FnMut(u32) -> bool,
        counts: &[u32],
    ) -> Option<(f64, u32, f64)> {
        let mut best = (f64::INFINITY, u32::MAX);
        let mut second = f64::INFINITY;
        idx.tree
            .fold_two_min_pruned(q, live, idx.max_dist(q), counts, &mut best, &mut second);
        (best.1 != u32::MAX).then_some((best.0, best.1, second))
    }

    #[test]
    fn pruned_traversal_matches_unpruned_under_every_mask() {
        let groups = random_groups(90, 4, 21);
        let idx = GroupIndex::build(&groups);
        let mut state = 31u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        // Progressive kills: after each batch, the pruned and unpruned
        // filtered traversals must agree exactly (the overlay only skips
        // provably-dead subtrees, never changes an answer).
        let mut counts = idx.tree.live_counts();
        assert_eq!(counts[0] as usize, idx.len());
        let mut dead = vec![false; groups.len()];
        for round in 0..30 {
            // Kill three more groups per round (until ~all dead).
            for _ in 0..3 {
                let id = (next() * groups.len() as f64) as usize % groups.len();
                if !dead[id] {
                    dead[id] = true;
                    idx.tree.kill(id as u32, &mut counts);
                }
            }
            let live_total = dead.iter().filter(|&&d| !d).count();
            assert_eq!(counts[0] as usize, live_total, "root count off");
            let q = Point::new(next() * 120.0 - 60.0, next() * 120.0 - 60.0);
            let unpruned = idx.two_min_max_dist_where(q, |id| !dead[id as usize]);
            let pruned = pruned(&idx, q, |id| !dead[id as usize], &counts);
            match (unpruned, pruned) {
                (None, None) => assert_eq!(live_total, 0),
                (Some((d, id, s)), Some((pd, pid, ps))) => {
                    assert_eq!(d.to_bits(), pd.to_bits(), "round {round}");
                    assert_eq!(id, pid);
                    assert_eq!(s.to_bits(), ps.to_bits());
                }
                other => panic!("pruned/unpruned disagree: {other:?}"),
            }
        }
        // Kill the rest: the pruned query answers None straight from the
        // root counter.
        for (id, d) in dead.iter_mut().enumerate() {
            if !*d {
                *d = true;
                idx.tree.kill(id as u32, &mut counts);
            }
        }
        assert_eq!(counts[0], 0);
        assert!(pruned(&idx, Point::new(0.0, 0.0), |_| false, &counts).is_none());
        assert!(counts.iter().all(|&c| c == 0), "leaf counters must drain");
    }

    #[test]
    fn seeded_fold_across_indices_equals_the_union() {
        // Fold two indices' groups into one running pair, seeding the
        // second search with the first's result: the floats must be the
        // union's two smallest Δ, and the witness must name the right side.
        let groups = random_groups(70, 4, 5);
        let (left, right) = groups.split_at(31);
        let (a, b) = (GroupIndex::build(left), GroupIndex::build(right));
        let union = GroupIndex::build(&groups);
        let (ca, cb) = (a.tree.live_counts(), b.tree.live_counts());
        let mut state = 19u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 120.0 - 60.0
        };
        for _ in 0..50 {
            let q = Point::new(next(), next());
            let mut best = (f64::INFINITY, u32::MAX);
            let mut second = f64::INFINITY;
            a.tree
                .fold_two_min_pruned(q, |_| true, a.max_dist(q), &ca, &mut best, &mut second);
            let from_a = best.1;
            best.1 = u32::MAX;
            b.tree
                .fold_two_min_pruned(q, |_| true, b.max_dist(q), &cb, &mut best, &mut second);
            let id = if best.1 == u32::MAX {
                from_a
            } else {
                best.1 + left.len() as u32
            };
            let (wd, wid, ws) = union.two_min_max_dist(q).unwrap();
            assert_eq!(best.0.to_bits(), wd.to_bits());
            assert_eq!(second.to_bits(), ws.to_bits());
            assert_eq!(id, wid);
        }
    }

    #[test]
    fn kill_ignores_empty_group_ids() {
        // Group 1 is empty and skipped by the build; killing it is a no-op
        // and the remaining groups keep exact answers.
        let groups = vec![
            vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)],
            vec![],
            vec![Point::new(5.0, 5.0)],
        ];
        let idx = GroupIndex::build(&groups);
        assert_eq!(idx.len(), 2);
        let mut counts = idx.tree.live_counts();
        idx.tree.kill(1, &mut counts); // empty id: ignored
        idx.tree.kill(99, &mut counts); // out of range: ignored
        assert_eq!(counts[0], 2);
        let q = Point::new(0.0, 0.0);
        let (d, id, _) = pruned(&idx, q, |_| true, &counts).unwrap();
        assert_eq!(id, 0);
        assert!((d - 1.0).abs() < 1e-12);
        idx.tree.kill(0, &mut counts);
        let (_, id, second) = pruned(&idx, q, |id| id == 2, &counts).unwrap();
        assert_eq!(id, 2);
        assert!(second.is_infinite());
    }

    #[test]
    fn single_point_groups_degenerate_to_nearest() {
        // k = 1 turns Δ(q) into an ordinary nearest-point query.
        let groups: Vec<Vec<Point>> = (0..50)
            .map(|i| vec![Point::new(i as f64, (i * 7 % 13) as f64)])
            .collect();
        let idx = GroupIndex::build(&groups);
        let q = Point::new(20.3, 4.2);
        let brute = groups
            .iter()
            .map(|g| q.dist(g[0]))
            .fold(f64::INFINITY, f64::min);
        let (got, _) = idx.min_max_dist(q).unwrap();
        assert!((got - brute).abs() < 1e-12);
    }
}
