//! A 2-D kd-tree over points with `Copy` payloads (`u32` by default).
//!
//! Supports exact nearest-neighbor queries, lazy best-first incremental
//! k-nearest-neighbor iteration (the backend of the paper's spiral search,
//! Theorem 4.7), and circular range reporting (`O(√N + t)` worst case — the
//! classical kd-tree bound, which is the practical counterpart of the
//! partition-tree bound in Theorem 3.2).

use crate::soa::PointSlab;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use uncertain_geom::{Aabb, Point};

/// Maximum number of points in a leaf. Leaf scans (range reporting's
/// in-disk filter, the nearest-neighbor distance fill) run the `soa` kernels
/// over ranges of at most this many points.
pub const LEAF_SIZE: usize = 8;

#[derive(Clone, Debug)]
struct Node {
    bbox: Aabb,
    /// Range of items (indices into `items`) covered by this node.
    start: u32,
    end: u32,
    /// Child node indices; `u32::MAX` for leaves.
    left: u32,
    right: u32,
}

impl Node {
    fn is_leaf(&self) -> bool {
        self.left == u32::MAX
    }
}

/// A static 2-D kd-tree.
///
/// ```
/// use uncertain_geom::Point;
/// use uncertain_spatial::KdTree;
///
/// let pts = vec![Point::new(0.0, 0.0), Point::new(5.0, 5.0), Point::new(9.0, 0.0)];
/// let tree = KdTree::from_points(&pts);
/// let (_, id, d) = tree.nearest(Point::new(6.0, 4.0)).unwrap();
/// assert_eq!(id, 1);
/// assert!((d - 2f64.sqrt()).abs() < 1e-12);
/// // Incremental k-NN: points stream out by increasing distance.
/// let order: Vec<u32> = tree.nearest_iter(Point::new(0.0, 0.0)).map(|(_, i, _)| i).collect();
/// assert_eq!(order, vec![0, 1, 2]);
/// ```
#[derive(Clone, Debug)]
pub struct KdTree<P = u32> {
    /// Leaf coordinates in structure-of-arrays layout, so leaf scans run on
    /// the chunked-lane distance kernels (`crate::soa`) instead of striding
    /// over `(Point, payload)` pairs.
    slab: PointSlab,
    /// Payloads, parallel to `slab` (in the tree's order, so a hit reads
    /// its payload next to its neighbours').
    ids: Vec<P>,
    nodes: Vec<Node>,
}

impl KdTree {
    /// Builds a tree over `(point, id)` pairs. `O(n log n)`.
    pub fn build(items: Vec<(Point, u32)>) -> Self {
        Self::with_payloads(items)
    }

    /// Convenience: build from points with payload = index.
    pub fn from_points(points: &[Point]) -> Self {
        Self::build(
            points
                .iter()
                .enumerate()
                .map(|(i, &p)| (p, i as u32))
                .collect(),
        )
    }
}

impl<P: Copy> KdTree<P> {
    /// Builds a tree over `(point, payload)` pairs, keeping the payloads in
    /// the tree's order. `O(n log n)`.
    pub fn with_payloads(mut items: Vec<(Point, P)>) -> Self {
        let mut nodes = Vec::with_capacity(2 * items.len() / LEAF_SIZE + 4);
        if !items.is_empty() {
            let n = items.len();
            Self::build_rec(&mut items, 0, n, &mut nodes);
        }
        // Transpose the partitioned AoS build buffer into the flat slabs the
        // query kernels scan.
        let slab = PointSlab::from_points(items.iter().map(|&(p, _)| p));
        let ids = items.iter().map(|&(_, id)| id).collect();
        KdTree { slab, ids, nodes }
    }

    fn build_rec(items: &mut [(Point, P)], start: usize, end: usize, nodes: &mut Vec<Node>) -> u32 {
        let bbox = Aabb::from_points(items[start..end].iter().map(|&(p, _)| p));
        let id = nodes.len() as u32;
        nodes.push(Node {
            bbox,
            start: start as u32,
            end: end as u32,
            left: u32::MAX,
            right: u32::MAX,
        });
        if end - start > LEAF_SIZE {
            let mid = (start + end) / 2;
            // Split on the wider dimension of the bounding box.
            if bbox.width() >= bbox.height() {
                items[start..end].select_nth_unstable_by(mid - start, |a, b| cmp_f(a.0.x, b.0.x));
            } else {
                items[start..end].select_nth_unstable_by(mid - start, |a, b| cmp_f(a.0.y, b.0.y));
            }
            let left = Self::build_rec(items, start, mid, nodes);
            let right = Self::build_rec(items, mid, end, nodes);
            nodes[id as usize].left = left;
            nodes[id as usize].right = right;
        }
        id
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The nearest item to `q`: `(point, payload, distance)`.
    pub fn nearest(&self, q: Point) -> Option<(Point, P, f64)> {
        if self.is_empty() {
            return None;
        }
        let mut best: Option<(Point, P, f64)> = None;
        self.nearest_rec(0, q, &mut best);
        best
    }

    fn nearest_rec(&self, node: u32, q: Point, best: &mut Option<(Point, P, f64)>) {
        let n = &self.nodes[node as usize];
        if let Some((_, _, bd)) = best {
            if n.bbox.dist_to_point(q) >= *bd {
                return;
            }
        }
        if n.is_leaf() {
            let (start, end) = (n.start as usize, n.end as usize);
            let mut buf = [0.0f64; LEAF_SIZE];
            let dists = &mut buf[..end - start];
            self.slab.dist_range_into(start, end, q, dists);
            for (k, &d) in dists.iter().enumerate() {
                if best.is_none_or(|(_, _, bd)| d < bd) {
                    *best = Some((self.slab.get(start + k), self.ids[start + k], d));
                }
            }
            return;
        }
        // Visit the nearer child first.
        let (l, r) = (n.left, n.right);
        let dl = self.nodes[l as usize].bbox.dist_to_point(q);
        let dr = self.nodes[r as usize].bbox.dist_to_point(q);
        if dl <= dr {
            self.nearest_rec(l, q, best);
            self.nearest_rec(r, q, best);
        } else {
            self.nearest_rec(r, q, best);
            self.nearest_rec(l, q, best);
        }
    }

    /// Reports every item within (closed) distance `r` of `q`.
    pub fn for_each_in_disk<F: FnMut(Point, P)>(&self, q: Point, r: f64, mut f: F) {
        self.for_each_in_disk_with_dist(q, r, |p, id, _| f(p, id));
    }

    /// [`Self::for_each_in_disk`], also passing each hit's distance — the
    /// leaf kernel computes it anyway (bit-identical to `q.dist(p)`), so
    /// stage-2 style consumers that filter on the distance get it for free.
    pub fn for_each_in_disk_with_dist<F: FnMut(Point, P, f64)>(&self, q: Point, r: f64, mut f: F) {
        if self.is_empty() {
            return;
        }
        self.range_rec(0, q, r, &mut f);
    }

    /// Collects payloads of items within distance `r` of `q`.
    pub fn in_disk(&self, q: Point, r: f64) -> Vec<P> {
        let mut out = vec![];
        self.for_each_in_disk(q, r, |_, id| out.push(id));
        out
    }

    fn range_rec<F: FnMut(Point, P, f64)>(&self, node: u32, q: Point, r: f64, f: &mut F) {
        let n = &self.nodes[node as usize];
        if n.bbox.dist_to_point(q) > r {
            return;
        }
        if n.is_leaf() {
            // Chunked-lane filter; hits come out in ascending index order,
            // exactly matching the scalar `q.dist(p) <= r` loop bit for bit.
            self.slab
                .for_each_in_disk_in_range(n.start as usize, n.end as usize, q, r, |i, d| {
                    f(self.slab.get(i), self.ids[i], d)
                });
            return;
        }
        self.range_rec(n.left, q, r, f);
        self.range_rec(n.right, q, r, f);
    }

    /// Lazy best-first iterator yielding items in non-decreasing distance
    /// from `q`. Amortized `O(log n)` per item; stop early for k-NN.
    pub fn nearest_iter(&self, q: Point) -> NearestIter<'_, P> {
        let mut heap = BinaryHeap::new();
        if !self.is_empty() {
            heap.push(HeapEntry {
                dist: self.nodes[0].bbox.dist_to_point(q),
                kind: EntryKind::Node(0),
            });
        }
        NearestIter {
            tree: self,
            q,
            heap,
        }
    }

    /// The `k` nearest items, sorted by distance.
    pub fn k_nearest(&self, q: Point, k: usize) -> Vec<(Point, P, f64)> {
        self.nearest_iter(q).take(k).collect()
    }
}

#[inline]
fn cmp_f(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or(Ordering::Equal)
}

#[derive(Clone, Copy, Debug)]
enum EntryKind {
    Node(u32),
    Item(u32),
}

#[derive(Clone, Copy, Debug)]
struct HeapEntry {
    dist: f64,
    kind: EntryKind,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want smallest distance first.
        cmp_f(other.dist, self.dist)
    }
}

/// See [`KdTree::nearest_iter`].
pub struct NearestIter<'a, P = u32> {
    tree: &'a KdTree<P>,
    q: Point,
    heap: BinaryHeap<HeapEntry>,
}

impl<P: Copy> Iterator for NearestIter<'_, P> {
    type Item = (Point, P, f64);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(entry) = self.heap.pop() {
            match entry.kind {
                EntryKind::Item(idx) => {
                    let p = self.tree.slab.get(idx as usize);
                    let id = self.tree.ids[idx as usize];
                    return Some((p, id, entry.dist));
                }
                EntryKind::Node(nid) => {
                    let n = &self.tree.nodes[nid as usize];
                    if n.is_leaf() {
                        let (start, end) = (n.start as usize, n.end as usize);
                        let mut buf = [0.0f64; LEAF_SIZE];
                        let dists = &mut buf[..end - start];
                        self.tree.slab.dist_range_into(start, end, self.q, dists);
                        for (k, &d) in dists.iter().enumerate() {
                            self.heap.push(HeapEntry {
                                dist: d,
                                kind: EntryKind::Item((start + k) as u32),
                            });
                        }
                    } else {
                        for child in [n.left, n.right] {
                            let cb = &self.tree.nodes[child as usize];
                            self.heap.push(HeapEntry {
                                dist: cb.bbox.dist_to_point(self.q),
                                kind: EntryKind::Node(child),
                            });
                        }
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0 - 50.0
        };
        (0..n).map(|_| Point::new(next(), next())).collect()
    }

    #[test]
    fn empty_tree() {
        let t = KdTree::build(vec![]);
        assert!(t.is_empty());
        assert!(t.nearest(Point::new(0.0, 0.0)).is_none());
        assert!(t.nearest_iter(Point::new(0.0, 0.0)).next().is_none());
        assert!(t.in_disk(Point::new(0.0, 0.0), 10.0).is_empty());
    }

    #[test]
    fn nearest_matches_brute_force() {
        let pts = random_points(500, 11);
        let t = KdTree::from_points(&pts);
        for q in random_points(100, 77) {
            let (bi, bd) = pts
                .iter()
                .enumerate()
                .map(|(i, &p)| (i, q.dist(p)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap();
            let (_, id, d) = t.nearest(q).unwrap();
            assert!((d - bd).abs() < 1e-12);
            // Distances tie extremely rarely; accept either index then.
            if (q.dist(pts[bi]) - q.dist(pts[id as usize])).abs() > 1e-12 {
                panic!("wrong nearest");
            }
        }
    }

    #[test]
    fn range_matches_brute_force() {
        let pts = random_points(400, 5);
        let t = KdTree::from_points(&pts);
        for (qi, q) in random_points(30, 99).into_iter().enumerate() {
            let r = 5.0 + (qi as f64) * 2.0;
            let mut brute: Vec<u32> = pts
                .iter()
                .enumerate()
                .filter(|(_, &p)| q.dist(p) <= r)
                .map(|(i, _)| i as u32)
                .collect();
            let mut got = t.in_disk(q, r);
            brute.sort_unstable();
            got.sort_unstable();
            assert_eq!(brute, got, "radius {r}");
        }
    }

    #[test]
    fn nearest_iter_is_sorted_and_complete() {
        let pts = random_points(300, 21);
        let t = KdTree::from_points(&pts);
        let q = Point::new(3.0, -7.0);
        let all: Vec<(Point, u32, f64)> = t.nearest_iter(q).collect();
        assert_eq!(all.len(), pts.len());
        for w in all.windows(2) {
            assert!(w[0].2 <= w[1].2 + 1e-12, "distances must be sorted");
        }
        // Every payload appears exactly once.
        let mut ids: Vec<u32> = all.iter().map(|&(_, id, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), pts.len());
    }

    #[test]
    fn k_nearest_prefix_property() {
        let pts = random_points(200, 31);
        let t = KdTree::from_points(&pts);
        let q = Point::new(0.0, 0.0);
        let k10 = t.k_nearest(q, 10);
        let k5 = t.k_nearest(q, 5);
        assert_eq!(&k10[..5], &k5[..]);
        let mut dists: Vec<f64> = pts.iter().map(|&p| q.dist(p)).collect();
        dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (i, &(_, _, d)) in k10.iter().enumerate() {
            assert!((d - dists[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn duplicate_points_are_retained() {
        let p = Point::new(1.0, 1.0);
        let t = KdTree::build(vec![(p, 0), (p, 1), (p, 2)]);
        let got = t.in_disk(p, 0.0);
        assert_eq!(got.len(), 3);
    }
}
