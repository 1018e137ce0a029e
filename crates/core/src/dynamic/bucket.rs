//! One Bentley–Saxe bucket: an immutable batch of sites carrying its own
//! query structures.
//!
//! A bucket is built once (at a merge) and never mutated; deletions are
//! overlaid by the dynamic layer as tombstones, which every query receives
//! as a `live(local)` predicate over the bucket's local site indices.
//! Buckets holding at least [`crate::dynamic::DynamicConfig::index_min_locations`]
//! locations carry the stage-1 group tree; smaller ones fold `Δ_i(q)` site
//! by site. The threshold's default of 160 is a fixed number, taken from
//! the formula of a serving cost model that no longer exists (see the
//! config field). Stage 2 of both query families reads one kd-tree over
//! the bucket's locations, and the expected-distance index serves
//! expected-NN queries; both are built **lazily** on the first query that
//! needs them. Site payloads are shared by `Arc` — a carry moves pointers,
//! not geometry.

use std::sync::Arc;
use std::sync::OnceLock;

use super::quant::{QuantEntry, QuantIndex};
use super::{SiteId, TwoMin};
use crate::expected::ExpectedNnIndex;
use crate::model::{DiscreteSet, DiscreteUncertainPoint};
use uncertain_geom::{Aabb, Point};
use uncertain_spatial::soa::bitmap_get;
use uncertain_spatial::GroupIndex;

/// Calls `f(i)` for every set bit `i < n` of the tombstone bitmap — word-at-
/// a-time `trailing_zeros` extraction instead of a per-entry branch, so the
/// brute query paths pay per *live* site, not per stored site. Bits at or
/// beyond `n` are masked off defensively.
fn for_each_live(n: usize, alive: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &word) in alive.iter().enumerate() {
        let base = wi << 6;
        if base >= n {
            break;
        }
        let mut w = if n - base >= 64 {
            word
        } else {
            word & ((1u64 << (n - base)) - 1)
        };
        while w != 0 {
            let b = w.trailing_zeros() as usize;
            w &= w - 1;
            f(base + b);
        }
    }
}

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
    /// Stage-1 group tree (group id = local index); `None` = brute.
    groups: Option<GroupIndex>,
    /// Expected-distance branch-and-bound index, built on first use (only
    /// for buckets over the index threshold; small buckets scan).
    expected: OnceLock<ExpectedNnIndex>,
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
    /// strictly ascending public `ids`), choosing indexed vs brute stage 1
    /// by total location count.
    pub fn build(
        entry_idxs: Vec<u32>,
        ids: Vec<SiteId>,
        sites: Vec<Arc<DiscreteUncertainPoint>>,
        index_min_locations: usize,
    ) -> Self {
        debug_assert_eq!(entry_idxs.len(), sites.len());
        debug_assert_eq!(ids.len(), sites.len());
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "bucket ids ascend");
        let total: usize = sites.iter().map(|s| s.k()).sum();
        let indexed = sites.len() >= 2 && total >= index_min_locations;
        let groups = indexed.then(|| {
            let locations: Vec<Vec<Point>> = sites.iter().map(|s| s.locations().to_vec()).collect();
            GroupIndex::build(&locations)
        });
        let support_aabb =
            Aabb::from_points(sites.iter().flat_map(|s| s.locations().iter().copied()));
        Bucket {
            entry_idxs,
            ids,
            sites,
            total_locations: total,
            groups,
            expected: OnceLock::new(),
            quant: OnceLock::new(),
            support_aabb,
        }
    }

    pub fn is_indexed(&self) -> bool {
        self.groups.is_some()
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

    /// Public id of local site `local`.
    #[inline]
    pub fn id(&self, local: usize) -> SiteId {
        self.ids[local]
    }

    /// The stage-1 group index of an indexed bucket (site id = local index)
    /// — the dynamic layer overlays per-node live counters on it so stage 1
    /// can skip fully-dead subtrees.
    pub fn group_index(&self) -> Option<&GroupIndex> {
        self.groups.as_ref()
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
    /// the slot's tombstone bitmap (bit per local site). An indexed bucket
    /// searches its group tree from `acc`'s second-min, so it only visits
    /// groups that can still change the pair, and `group_live` (the slot's
    /// per-node live counters, maintained against
    /// [`group_index`](Self::group_index)) lets it skip fully-dead subtrees
    /// instead of testing their groups one by one.
    pub fn fold_two_min(
        &self,
        q: Point,
        alive: &[u64],
        group_live: Option<&[u32]>,
        acc: &mut TwoMin,
    ) {
        if let Some(groups) = &self.groups {
            let counts = group_live.expect("indexed buckets carry live counters");
            let mut best = (acc.d1, u32::MAX);
            groups.fold_two_min_pruned(
                q,
                |g| bitmap_get(alive, g as usize),
                counts,
                &mut best,
                &mut acc.d2,
            );
            if best.1 != u32::MAX {
                acc.d1 = best.0;
                acc.id1 = self.ids[best.1 as usize];
            }
            return;
        }
        for_each_live(self.sites.len(), alive, |i| {
            acc.offer(self.sites[i].max_dist(q), self.ids[i]);
        });
    }

    /// Live-filtered expected-distance nearest neighbor: `(local, E)`.
    /// Indexed buckets build their branch-and-bound index on first call.
    pub fn expected_nn_where(&self, q: Point, alive: &[u64]) -> Option<(usize, f64)> {
        if self.is_indexed() {
            let idx = self
                .expected
                .get_or_init(|| ExpectedNnIndex::build_discrete(&materialize(&self.sites)));
            let mut live = |i: usize| bitmap_get(alive, i);
            return idx.query_where(q, &mut live);
        }
        let mut best: Option<(usize, f64)> = None;
        for_each_live(self.sites.len(), alive, |i| {
            let e = crate::expected::expected_dist_discrete(&self.sites[i], q);
            if best.is_none_or(|(_, be)| e < be) {
                best = Some((i, e));
            }
        });
        best
    }
}

/// Flattens shared payloads into the owned `DiscreteSet` the expected-NN
/// index builder consumes (retained inside the index's payload).
fn materialize(sites: &[Arc<DiscreteUncertainPoint>]) -> DiscreteSet {
    DiscreteSet::new(sites.iter().map(|s| (**s).clone()).collect())
}
