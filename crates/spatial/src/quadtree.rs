//! A PR quadtree with best-first incremental k-nearest-neighbor iteration.
//!
//! The paper's Remark (ii) after Theorem 4.7 suggests exactly this as the
//! practical retrieval structure for spiral search: *"Alternatively, one may
//! use quad-trees and a branch-and-bound algorithm to retrieve m points of S
//! closest to q \[Har11\]."* Ablation A6 compares it against the kd-tree.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use uncertain_geom::{Aabb, Point};

const LEAF_SIZE: usize = 8;
const MAX_DEPTH: usize = 32;

#[derive(Clone, Debug)]
struct Node {
    bbox: Aabb,
    /// Children node indices (`u32::MAX` = leaf); quadrants in order
    /// SW, SE, NW, NE.
    children: [u32; 4],
    /// Leaf payload: indices into `items`.
    points: Vec<u32>,
}

impl Node {
    fn is_leaf(&self) -> bool {
        self.children[0] == u32::MAX
    }
}

/// A static point-region quadtree.
#[derive(Clone, Debug)]
pub struct QuadTree {
    items: Vec<(Point, u32)>,
    nodes: Vec<Node>,
}

impl QuadTree {
    /// Builds the tree over `(point, payload)` pairs.
    pub fn build(items: Vec<(Point, u32)>) -> Self {
        let mut nodes = vec![];
        if !items.is_empty() {
            // Root square: the bounding box squared up.
            let bbox = Aabb::from_points(items.iter().map(|&(p, _)| p));
            let side = bbox.width().max(bbox.height()).max(1e-12);
            let root_box =
                Aabb::from_corners(bbox.lo, Point::new(bbox.lo.x + side, bbox.lo.y + side));
            let all: Vec<u32> = (0..items.len() as u32).collect();
            nodes.push(Node {
                bbox: root_box,
                children: [u32::MAX; 4],
                points: all,
            });
            let mut tree = QuadTree { items, nodes };
            tree.split(0, 0);
            return tree;
        }
        QuadTree { items, nodes }
    }

    /// Convenience: payload = index.
    pub fn from_points(points: &[Point]) -> Self {
        Self::build(
            points
                .iter()
                .enumerate()
                .map(|(i, &p)| (p, i as u32))
                .collect(),
        )
    }

    fn split(&mut self, node: usize, depth: usize) {
        if self.nodes[node].points.len() <= LEAF_SIZE || depth >= MAX_DEPTH {
            return;
        }
        let bbox = self.nodes[node].bbox;
        let c = bbox.center();
        let quads = [
            Aabb::from_corners(bbox.lo, c),
            Aabb::from_corners(Point::new(c.x, bbox.lo.y), Point::new(bbox.hi.x, c.y)),
            Aabb::from_corners(Point::new(bbox.lo.x, c.y), Point::new(c.x, bbox.hi.y)),
            Aabb::from_corners(c, bbox.hi),
        ];
        let pts = std::mem::take(&mut self.nodes[node].points);
        let mut buckets: [Vec<u32>; 4] = [vec![], vec![], vec![], vec![]];
        for idx in pts {
            let p = self.items[idx as usize].0;
            let q = match (p.x >= c.x, p.y >= c.y) {
                (false, false) => 0,
                (true, false) => 1,
                (false, true) => 2,
                (true, true) => 3,
            };
            buckets[q].push(idx);
        }
        // All points in one bucket and at max depth pressure: the recursion
        // depth guard prevents infinite splitting of duplicates.
        for (q, bucket) in buckets.into_iter().enumerate() {
            let child = self.nodes.len() as u32;
            self.nodes.push(Node {
                bbox: quads[q],
                children: [u32::MAX; 4],
                points: bucket,
            });
            self.nodes[node].children[q] = child;
            self.split(child as usize, depth + 1);
        }
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Lazy best-first iterator yielding items in non-decreasing distance
    /// from `q` (same contract as `KdTree::nearest_iter`).
    pub fn nearest_iter(&self, q: Point) -> QuadNearestIter<'_> {
        let mut heap = BinaryHeap::new();
        if !self.is_empty() {
            heap.push(Entry {
                dist: self.nodes[0].bbox.dist_to_point(q),
                kind: Kind::Node(0),
            });
        }
        QuadNearestIter {
            tree: self,
            q,
            heap,
        }
    }

    /// The `k` nearest items, sorted by distance.
    pub fn k_nearest(&self, q: Point, k: usize) -> Vec<(Point, u32, f64)> {
        self.nearest_iter(q).take(k).collect()
    }

    /// The nearest item.
    pub fn nearest(&self, q: Point) -> Option<(Point, u32, f64)> {
        self.nearest_iter(q).next()
    }
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Node(u32),
    Item(u32),
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    dist: f64,
    kind: Kind,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
    }
}

/// See [`QuadTree::nearest_iter`].
pub struct QuadNearestIter<'a> {
    tree: &'a QuadTree,
    q: Point,
    heap: BinaryHeap<Entry>,
}

impl Iterator for QuadNearestIter<'_> {
    type Item = (Point, u32, f64);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(e) = self.heap.pop() {
            match e.kind {
                Kind::Item(idx) => {
                    let (p, id) = self.tree.items[idx as usize];
                    return Some((p, id, e.dist));
                }
                Kind::Node(nid) => {
                    let n = &self.tree.nodes[nid as usize];
                    if n.is_leaf() {
                        for &idx in &n.points {
                            self.heap.push(Entry {
                                dist: self.q.dist(self.tree.items[idx as usize].0),
                                kind: Kind::Item(idx),
                            });
                        }
                    } else {
                        for &c in &n.children {
                            let cb = &self.tree.nodes[c as usize];
                            if cb.is_leaf() && cb.points.is_empty() {
                                continue;
                            }
                            self.heap.push(Entry {
                                dist: cb.bbox.dist_to_point(self.q),
                                kind: Kind::Node(c),
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
    fn empty_and_single() {
        assert!(QuadTree::build(vec![])
            .nearest(Point::new(0.0, 0.0))
            .is_none());
        let t = QuadTree::from_points(&[Point::new(3.0, 4.0)]);
        let (_, id, d) = t.nearest(Point::new(0.0, 0.0)).unwrap();
        assert_eq!(id, 0);
        assert!((d - 5.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_matches_brute_force() {
        let pts = random_points(400, 3);
        let t = QuadTree::from_points(&pts);
        for q in random_points(100, 17) {
            let brute = pts.iter().map(|&p| q.dist(p)).fold(f64::INFINITY, f64::min);
            let (_, _, d) = t.nearest(q).unwrap();
            assert!((d - brute).abs() < 1e-12);
        }
    }

    #[test]
    fn iterator_is_sorted_and_complete() {
        let pts = random_points(300, 9);
        let t = QuadTree::from_points(&pts);
        let q = Point::new(1.0, -2.0);
        let all: Vec<(Point, u32, f64)> = t.nearest_iter(q).collect();
        assert_eq!(all.len(), pts.len());
        for w in all.windows(2) {
            assert!(w[0].2 <= w[1].2 + 1e-12);
        }
        let mut ids: Vec<u32> = all.iter().map(|&(_, i, _)| i).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), pts.len());
    }

    #[test]
    fn agrees_with_kdtree() {
        let pts = random_points(500, 21);
        let qt = QuadTree::from_points(&pts);
        let kd = crate::KdTree::from_points(&pts);
        for q in random_points(40, 33) {
            let a: Vec<f64> = qt.k_nearest(q, 12).iter().map(|&(_, _, d)| d).collect();
            let b: Vec<f64> = kd.k_nearest(q, 12).iter().map(|&(_, _, d)| d).collect();
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-12, "kd/quad disagree at {q}");
            }
        }
    }

    #[test]
    fn duplicate_points_bounded_depth() {
        // 100 identical points must not blow the recursion.
        let p = Point::new(1.0, 1.0);
        let t = QuadTree::build((0..100).map(|i| (p, i)).collect());
        let got = t.k_nearest(p, 100);
        assert_eq!(got.len(), 100);
    }
}
