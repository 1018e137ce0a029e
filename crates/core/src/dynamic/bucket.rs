//! One Bentley–Saxe bucket: an immutable batch of sites carrying its own
//! query structures.
//!
//! A bucket is built once (at a merge) and never mutated; deletions are
//! overlaid by the dynamic layer as tombstones, which every query receives
//! as a `live(local)` predicate over the bucket's local site indices.
//! Every bucket holds the same two structures, both built with the bucket
//! so that no query builds anything: the stage-1 group tree over its
//! sites' circles, and one kd-tree over its locations for stage 2 of both
//! query families. Site payloads, with the circle and hull computed once
//! per site, are shared by `Arc` — a carry moves pointers, not geometry.

use std::sync::Arc;

use super::quant::{QuantEntry, QuantIndex};
use super::{SiteId, StoredSite, TwoMin};
use uncertain_geom::{Aabb, Point};
use uncertain_spatial::soa::bitmap_get;
use uncertain_spatial::GroupTree;

pub(crate) struct Bucket {
    /// Entry indices into the dynamic set's entry slab, parallel to
    /// `sites` (ascending public site id — deterministic local order).
    pub entry_idxs: Vec<u32>,
    /// Local → public site id, parallel to `sites`: strictly ascending and
    /// immutable for the bucket's lifetime (a site that moves or dies is
    /// tombstoned here, never relabeled), so query paths read a local's id
    /// without chasing the entry slab.
    ids: Vec<SiteId>,
    /// Shared site payloads; stage 1 reads each site's hull here.
    sites: Vec<Arc<StoredSite>>,
    /// Stage-1 group tree over the sites' circles (group id = local index).
    groups: GroupTree,
    /// Stage-2 summary of both query families (kd over locations, each
    /// carrying its local site and weight).
    quant: QuantIndex,
    /// Tight box over every location of every stored site (live and
    /// tombstoned alike — a conservative cover of the live supports that
    /// only tightens at the next carry/compaction). The sharded reader
    /// unions these into per-shard support boxes for query pruning.
    support_aabb: Aabb,
}

impl Bucket {
    /// Builds a bucket over `sites` (parallel to `entry_idxs` and to their
    /// strictly ascending public `ids`) with both of its query structures.
    /// The allocations do not depend on the site count: the sites bring
    /// their own circles and hulls.
    pub fn build(entry_idxs: Vec<u32>, ids: Vec<SiteId>, sites: Vec<Arc<StoredSite>>) -> Self {
        debug_assert_eq!(entry_idxs.len(), sites.len());
        debug_assert_eq!(ids.len(), sites.len());
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "bucket ids ascend");
        let groups = GroupTree::build(sites.iter().map(|s| Some(s.sec)));
        let quant = QuantIndex::build(&sites);
        let support_aabb = Aabb::from_points(
            sites
                .iter()
                .flat_map(|s| s.point.locations().iter().copied()),
        );
        Bucket {
            entry_idxs,
            ids,
            sites,
            groups,
            quant,
            support_aabb,
        }
    }

    /// Tight box over every stored site's locations (a conservative cover
    /// of the live supports; see the field docs).
    pub fn support_aabb(&self) -> &Aabb {
        &self.support_aabb
    }

    /// The stage-1 group tree (site id = local index) — the dynamic layer
    /// overlays per-node live counters on it so stage 1 can skip fully-dead
    /// subtrees.
    pub fn group_tree(&self) -> &GroupTree {
        &self.groups
    }

    /// Stage 2 of both query families: appends every live location at
    /// distance `≤ r` from `q` to `out` as `(d, site id, location index,
    /// weight)`, unsorted (`alive` is the slot's tombstone bitmap).
    pub fn collect_quant(&self, q: Point, r: f64, alive: &[u64], out: &mut Vec<QuantEntry>) {
        self.quant.collect(q, r, &self.ids, alive, out)
    }

    /// Stage 1 of the Lemma 2.1 query: folds every live local site's
    /// `Δ_i(q)` into the running pair `acc` (see [`TwoMin`]). Liveness is
    /// the slot's tombstone bitmap (bit per local site). The group tree is
    /// searched from `acc`'s second-min, so it only visits groups that can
    /// still change the pair, and `group_live` (the slot's per-node live
    /// counters, maintained against [`group_tree`](Self::group_tree))
    /// lets it skip fully-dead subtrees instead of testing their groups one
    /// by one. Each exact `Δ_i(q)` is read from the site's own hull.
    pub fn fold_two_min(&self, q: Point, alive: &[u64], group_live: &[u32], acc: &mut TwoMin) {
        let mut best = (acc.d1, u32::MAX);
        self.groups.fold_two_min_pruned(
            q,
            |g| bitmap_get(alive, g as usize),
            |g| self.sites[g as usize].hull.max_dist(q),
            group_live,
            &mut best,
            &mut acc.d2,
        );
        if best.1 != u32::MAX {
            acc.d1 = best.0;
            acc.id1 = self.ids[best.1 as usize];
        }
    }
}
