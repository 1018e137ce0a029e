//! One Bentley–Saxe bucket: an immutable batch of sites carrying its own
//! query structures.
//!
//! A bucket is built once (at a merge) and never mutated; deletions are
//! overlaid by the dynamic layer as tombstones, which every query receives
//! as a `live(local)` predicate over the bucket's local site indices.
//! Every bucket holds the same two structures: the stage-1 group tree,
//! built with the bucket, and one kd-tree over its locations for stage 2
//! of both query families, built **lazily** on the first query that needs
//! it. Site payloads are shared by `Arc` — a carry moves pointers, not
//! geometry.

use std::sync::Arc;
use std::sync::OnceLock;

use super::quant::{QuantEntry, QuantIndex};
use super::{SiteId, TwoMin};
use crate::model::DiscreteUncertainPoint;
use uncertain_geom::{Aabb, Point};
use uncertain_spatial::soa::bitmap_get;
use uncertain_spatial::GroupIndex;

pub(crate) struct Bucket {
    /// Entry indices into the dynamic set's entry slab, parallel to
    /// `sites` (ascending public site id — deterministic local order).
    pub entry_idxs: Vec<u32>,
    /// Local → public site id, parallel to `sites`: strictly ascending and
    /// immutable for the bucket's lifetime (a site that moves or dies is
    /// tombstoned here, never relabeled), so query paths read a local's id
    /// without chasing the entry slab.
    ids: Vec<SiteId>,
    /// Shared site payloads.
    sites: Vec<Arc<DiscreteUncertainPoint>>,
    /// Σ locations over `sites`.
    total_locations: usize,
    /// Stage-1 group tree (group id = local index).
    groups: GroupIndex,
    /// Stage-2 summary of both query families (kd over locations + flat
    /// weight tables), built on the first query touching this bucket.
    /// Lives inside the `Arc`-shared bucket, so it stays warm across epoch
    /// snapshots and is invalidated exactly when a carry or compaction
    /// replaces the bucket.
    quant: OnceLock<QuantIndex>,
    /// Tight box over every location of every stored site (live and
    /// tombstoned alike — a conservative cover of the live supports that
    /// only tightens at the next carry/compaction). The sharded reader
    /// unions these into per-shard support boxes for query pruning.
    support_aabb: Aabb,
}

impl Bucket {
    /// Builds a bucket over `sites` (parallel to `entry_idxs` and to their
    /// strictly ascending public `ids`), with its stage-1 group tree.
    pub fn build(
        entry_idxs: Vec<u32>,
        ids: Vec<SiteId>,
        sites: Vec<Arc<DiscreteUncertainPoint>>,
    ) -> Self {
        debug_assert_eq!(entry_idxs.len(), sites.len());
        debug_assert_eq!(ids.len(), sites.len());
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "bucket ids ascend");
        let total: usize = sites.iter().map(|s| s.k()).sum();
        let locations: Vec<&[Point]> = sites.iter().map(|s| s.locations()).collect();
        let groups = GroupIndex::build(&locations);
        let support_aabb =
            Aabb::from_points(sites.iter().flat_map(|s| s.locations().iter().copied()));
        Bucket {
            entry_idxs,
            ids,
            sites,
            total_locations: total,
            groups,
            quant: OnceLock::new(),
            support_aabb,
        }
    }

    /// Σ locations stored in this bucket (live and tombstoned).
    pub fn total_locations(&self) -> usize {
        self.total_locations
    }

    /// Tight box over every stored site's locations (a conservative cover
    /// of the live supports; see the field docs).
    pub fn support_aabb(&self) -> &Aabb {
        &self.support_aabb
    }

    /// The stage-1 group index (site id = local index) — the dynamic layer
    /// overlays per-node live counters on it so stage 1 can skip fully-dead
    /// subtrees.
    pub fn group_index(&self) -> &GroupIndex {
        &self.groups
    }

    /// Stage 2 of both query families: appends every live location at
    /// distance `≤ r` from `q` to `out` as `(d, site id, location index,
    /// weight)`, unsorted (`alive` is the slot's tombstone bitmap). Builds
    /// the summary on first use.
    pub fn collect_quant(&self, q: Point, r: f64, alive: &[u64], out: &mut Vec<QuantEntry>) {
        self.quant
            .get_or_init(|| QuantIndex::build(&self.sites))
            .collect(q, r, &self.ids, alive, out)
    }

    /// Whether the stage-2 summary is already built (a warm bucket costs a
    /// query nothing but the range report).
    pub fn quant_warm(&self) -> bool {
        self.quant.get().is_some()
    }

    /// Stage 1 of the Lemma 2.1 query: folds every live local site's
    /// `Δ_i(q)` into the running pair `acc` (see [`TwoMin`]). Liveness is
    /// the slot's tombstone bitmap (bit per local site). The group tree is
    /// searched from `acc`'s second-min, so it only visits groups that can
    /// still change the pair, and `group_live` (the slot's per-node live
    /// counters, maintained against [`group_index`](Self::group_index))
    /// lets it skip fully-dead subtrees instead of testing their groups one
    /// by one.
    pub fn fold_two_min(&self, q: Point, alive: &[u64], group_live: &[u32], acc: &mut TwoMin) {
        let mut best = (acc.d1, u32::MAX);
        self.groups.fold_two_min_pruned(
            q,
            |g| bitmap_get(alive, g as usize),
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
