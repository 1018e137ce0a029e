//! Per-bucket mergeable quantification summaries.
//!
//! A [`QuantIndex`] is a bucket's query-free sorted structure for the
//! Eq. (2) sweep: a kd-tree over all of the bucket's locations plus the
//! flat `location → (local site, location index, weight)` tables. Any query
//! can then draw the bucket's locations as a **distance-ordered stream**
//! ([`BucketQuantStream`]) via best-first traversal, without sorting
//! anything at query time. The dynamic layer k-way-merges these streams
//! across its `O(log n)` buckets and feeds the shared sweep core — with the
//! early exit, a query typically draws a handful of entries per bucket
//! instead of re-sorting the whole live union.
//!
//! The index is built **lazily** on the first quantification that touches
//! the bucket (workloads that never quantify never pay for it) and lives
//! inside the immutable, `Arc`-shared [`Bucket`](super::bucket::Bucket) —
//! so it is invalidated exactly when the bucket itself is replaced (a carry
//! or a global compaction) and stays warm across engine epoch snapshots
//! that share the bucket. Tombstones are *not* baked in: the stream filters
//! dead sites at draw time against the slot's alive bitmap, the same
//! overlay the `NN≠0` path uses.
//!
//! Streams emit **stable site ids** (the bucket's immutable, ascending
//! local → id list), not positions in some per-snapshot dense order, so a
//! query needs no `O(n)` id map and the sweep keeps state only for the
//! sites it draws.
//!
//! Ordering contract (what makes merged answers bit-identical to the static
//! sweep over the live set): the kd iterator yields exact `q.dist(loc)` values in
//! non-decreasing order, and the stream buffers each run of equal distances
//! and sorts it by `(site id, location index)`. The static sweep's dense
//! index of a site is the rank of its id among the ascending live ids — a
//! strictly increasing relabeling — so `(d, id, location)` order is exactly
//! the `(d, dense, location)` tie order a stable distance sort of the
//! canonical flat entry list produces.

use std::sync::Arc;

use super::SiteId;
use crate::model::DiscreteUncertainPoint;
use crate::quantification::sweep::{SweepEntry, SweepSource};
use uncertain_geom::Point;
use uncertain_spatial::kdtree::NearestIter;
use uncertain_spatial::KdTree;

/// A bucket's query-free sorted summary: kd-tree over locations + flat
/// per-location tables.
pub(crate) struct QuantIndex {
    kd: KdTree,
    /// Flat location index → local site index.
    owner: Vec<u32>,
    /// Flat location index → location index within its site.
    loc_idx: Vec<u32>,
    /// Flat location index → location weight.
    weight: Vec<f64>,
}

impl QuantIndex {
    /// Builds the summary over a bucket's sites (local order). `O(m log m)`
    /// in the bucket's location count `m`.
    pub fn build(sites: &[Arc<DiscreteUncertainPoint>]) -> Self {
        let total: usize = sites.iter().map(|s| s.k()).sum();
        let mut items = Vec::with_capacity(total);
        let mut owner = Vec::with_capacity(total);
        let mut loc_idx = Vec::with_capacity(total);
        let mut weight = Vec::with_capacity(total);
        for (local, site) in sites.iter().enumerate() {
            for (li, (&loc, &w)) in site.locations().iter().zip(site.weights()).enumerate() {
                items.push((loc, items.len() as u32));
                owner.push(local as u32);
                loc_idx.push(li as u32);
                weight.push(w);
            }
        }
        QuantIndex {
            kd: KdTree::build(items),
            owner,
            loc_idx,
            weight,
        }
    }

    /// Opens a distance-ordered live entry stream for `q`. `ids[local]` is
    /// the public id of the bucket's local site (strictly ascending);
    /// `alive`, the slot's tombstone bitmap, filters dead locals.
    pub fn stream<'a>(
        &'a self,
        q: Point,
        ids: &'a [SiteId],
        alive: &'a [u64],
    ) -> BucketQuantStream<'a> {
        BucketQuantStream {
            index: self,
            iter: self.kd.nearest_iter(q),
            ids,
            alive,
            lookahead: None,
            batch: vec![],
            batch_pos: 0,
            batch_d: 0.0,
        }
    }
}

/// One bucket's distance-ordered live entry stream (see module docs).
pub(crate) struct BucketQuantStream<'a> {
    index: &'a QuantIndex,
    iter: NearestIter<'a>,
    /// Local → public site id.
    ids: &'a [SiteId],
    /// The slot's tombstone bitmap (bit per local site).
    alive: &'a [u64],
    /// The first drawn kd item beyond the current equal-distance run.
    lookahead: Option<(f64, u32)>,
    /// The current equal-distance run: `(site id, location index, weight)`,
    /// sorted ascending — the stable-sort tie order.
    batch: Vec<(SiteId, u32, f64)>,
    batch_pos: usize,
    batch_d: f64,
}

impl BucketQuantStream<'_> {
    #[inline]
    fn push_if_live(&mut self, flat: u32) {
        let local = self.index.owner[flat as usize] as usize;
        if self.alive[local >> 6] & (1u64 << (local & 63)) != 0 {
            self.batch.push((
                self.ids[local],
                self.index.loc_idx[flat as usize],
                self.index.weight[flat as usize],
            ));
        }
    }
}

impl SweepSource for BucketQuantStream<'_> {
    fn next_entry(&mut self) -> Option<SweepEntry> {
        loop {
            if self.batch_pos < self.batch.len() {
                let (id, _, w) = self.batch[self.batch_pos];
                self.batch_pos += 1;
                return Some((self.batch_d, id, w));
            }
            // Refill: draw the next equal-distance run from the kd stream
            // (dead runs come out empty and the loop draws the next one).
            let (d, flat) = match self.lookahead.take() {
                Some(head) => head,
                None => {
                    let (_, flat, d) = self.iter.next()?;
                    (d, flat)
                }
            };
            self.batch.clear();
            self.batch_pos = 0;
            self.batch_d = d;
            self.push_if_live(flat);
            loop {
                match self.iter.next() {
                    Some((_, f2, d2)) if d2 == d => self.push_if_live(f2),
                    Some((_, f2, d2)) => {
                        self.lookahead = Some((d2, f2));
                        break;
                    }
                    None => break,
                }
            }
            self.batch.sort_unstable_by_key(|&(id, li, _)| (id, li));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantification::sweep::sweep_sparse;
    use crate::workload;

    #[test]
    fn stream_replays_the_stable_sorted_entry_order() {
        let set = workload::random_discrete_set(12, 3, 5.0, 91);
        let sites: Vec<Arc<DiscreteUncertainPoint>> =
            set.points.iter().map(|p| Arc::new(p.clone())).collect();
        let qi = QuantIndex::build(&sites);
        let alive = vec![u64::MAX; 1];
        let ids: Vec<SiteId> = (0..sites.len()).collect();
        for q in workload::random_queries(10, 50.0, 92) {
            let mut stream = qi.stream(q, &ids, &alive);
            let mut got = vec![];
            while let Some(e) = stream.next_entry() {
                got.push(e);
            }
            let want = {
                let mut slab = crate::quantification::sweep::SortedSlab::new(
                    crate::quantification::exact::sweep_entries(&set, q),
                );
                let mut v = vec![];
                while let Some(e) = slab.next_entry() {
                    v.push(e);
                }
                v
            };
            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.0.to_bits(), b.0.to_bits());
                assert_eq!(a.1, b.1);
                assert_eq!(a.2.to_bits(), b.2.to_bits());
            }
        }
    }

    #[test]
    fn dead_sites_are_filtered_at_draw_time() {
        let set = workload::random_discrete_set(8, 2, 4.0, 93);
        let sites: Vec<Arc<DiscreteUncertainPoint>> =
            set.points.iter().map(|p| Arc::new(p.clone())).collect();
        let qi = QuantIndex::build(&sites);
        // Kill locals 1, 4, 5; label locals with sparse ascending ids.
        let mut alive = vec![u64::MAX; 1];
        for local in [1usize, 4, 5] {
            alive[0] &= !(1u64 << local);
        }
        let ids: Vec<SiteId> = (0..8).map(|local| 1000 + 7 * local).collect();
        let q = Point::new(0.5, -0.5);
        let mut stream = qi.stream(q, &ids, &alive);
        let survivors = crate::model::DiscreteSet::new(
            set.points
                .iter()
                .enumerate()
                .filter(|&(i, _)| ![1usize, 4, 5].contains(&i))
                .map(|(_, p)| p.clone())
                .collect(),
        );
        let pi_stream = sweep_sparse(&mut stream);
        let pi_fresh = crate::quantification::exact::quantification_discrete(&survivors, q);
        // Survivor `dense` is local `live_locals[dense]`, id `ids[local]`.
        let live_locals: Vec<usize> = (0..8).filter(|l| ![1, 4, 5].contains(l)).collect();
        let want: Vec<(SiteId, f64)> = pi_fresh
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p > 0.0)
            .map(|(dense, &p)| (ids[live_locals[dense]], p))
            .collect();
        assert_eq!(pi_stream.len(), want.len());
        for ((gi, gp), (wi, wp)) in pi_stream.iter().zip(&want) {
            assert_eq!(gi, wi);
            assert_eq!(gp.to_bits(), wp.to_bits());
        }
    }
}
