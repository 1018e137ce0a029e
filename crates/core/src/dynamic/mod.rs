//! Dynamic uncertain-site updates via the Bentley–Saxe logarithmic method.
//!
//! The paper's structures are all built once over a frozen site set. This
//! module lifts them to a workload where uncertain sites arrive, expire,
//! and move (the setting of probabilistic *moving* NN queries): a
//! [`DynamicSet`] maintains the sites in geometrically-sized immutable
//! buckets, each carrying the same two query structures, both built with
//! the bucket: the stage-1 group tree over its sites' smallest enclosing
//! circles, and a kd-tree over its locations for stage 2 of both `NN≠0`
//! and quantification. A site's circle and hull are computed once, when it
//! arrives, and travel with it from bucket to bucket.
//!
//! * **Insert** — the classic logarithmic-method carry: the new site plus
//!   every bucket in the occupied prefix of slots merges into the first
//!   empty slot, rebuilding one bucket. Each site takes part in at most one
//!   rebuild per slot it ascends through, so inserts cost `O(log n)`
//!   amortized bucket-rebuild participations (`O(log² n)`-ish work with the
//!   `O(m log m)` per-bucket build).
//! * **Remove** — a tombstone: the site's entry is marked dead and every
//!   query skips it through a `live` predicate threaded into the bucket
//!   structures. Tombstones are physically dropped whenever their bucket
//!   merges, and a **global rebuild** compacts everything once the dead
//!   fraction exceeds [`DynamicConfig::max_dead_fraction`] — amortized
//!   `O(1)` rebuilt sites per remove.
//! * **Move** ([`DynamicSet::update_location`]) — tombstone + reinsert
//!   under the same stable [`SiteId`].
//!
//! Queries answer over the union of buckets *exactly*:
//!
//! * `NN≠0(q)` folds every bucket's live `Δ_i(q)` into the global Lemma 2.1
//!   pair `(d1, d2)` (stage 1, each bucket's search seeded with the running
//!   second-min), then collects every live location within `d2` from the
//!   buckets' `Arc`-shared kd summaries (stage 2) — the
//!   same two-stage shape as the static Theorem 3.2 query, summed over
//!   `O(log n)` buckets.
//! * Quantification ([`DynamicSet::quantification_merged`]) runs the same
//!   two stages, sorts the collect by `(distance, site id, location)` and
//!   sweeps it. By Lemma 2.1 the Eq. (2) sweep exits by the batch at `d2`,
//!   so the collect is the whole stream as far as the sweep reads; the
//!   sweep reports that it exited, and a collect it read to the end is
//!   repeated at `r = ∞` (see `quant.rs`). Quantification recombines
//!   exactly because locations are independent across sites: the survival
//!   factors multiply across buckets, so the sweep over the union of live
//!   locations *is* the per-bucket recombination. The path is
//!   output-sensitive end to end: the collect holds stable site ids, the
//!   sweep keeps state only for the sites it reads, and the answer is the
//!   `(id, π)` pairs with `π > 0` — no per-query or per-mutation `O(n)`
//!   setup. It reads the entry sequence of the static sweep over the live
//!   union (up to the id ↔ dense-rank relabeling) through identical
//!   arithmetic, so it is **bit-identical** to a rebuild from scratch
//!   (enforced by `tests/dynamic_differential.rs`).
//!
//! ```
//! use uncertain_nn::dynamic::{DynamicConfig, DynamicSet};
//! use uncertain_nn::model::DiscreteUncertainPoint;
//! use uncertain_nn::workload;
//! use uncertain_geom::Point;
//!
//! let base = workload::random_discrete_set(16, 3, 5.0, 7);
//! let mut dynset = DynamicSet::from_set(&base, DynamicConfig::default());
//! let id = dynset.insert(DiscreteUncertainPoint::certain(Point::new(0.0, 0.0)));
//! dynset.remove(3);
//! let q = Point::new(1.0, -2.0);
//! // Answers equal a fresh static build over the surviving sites.
//! let fresh = dynset.live_set();
//! let from_dynamic: Vec<usize> = dynset.nonzero(q);
//! let from_fresh: Vec<usize> = {
//!     let ids = dynset.live_ids();
//!     let mut v: Vec<usize> = fresh.nonzero_nn(q).into_iter().map(|i| ids[i]).collect();
//!     v.sort_unstable();
//!     v
//! };
//! assert_eq!(from_dynamic, from_fresh);
//! assert!(from_dynamic.contains(&id) || !from_dynamic.is_empty());
//! ```

mod bucket;
mod quant;
pub mod shard;

use std::collections::HashMap;
use std::sync::Arc;

use crate::model::{DiscreteSet, DiscreteUncertainPoint};
use bucket::Bucket;
use quant::QuantEntry;
use uncertain_geom::hull::FarthestPointHull;
use uncertain_geom::sec::smallest_enclosing_circle;
use uncertain_geom::{Aabb, Circle, Point};

/// Stable handle of a site across updates. Ids are assigned by
/// [`DynamicSet::insert`] (or `0..n` by [`DynamicSet::from_set`]) and are
/// never reused; [`DynamicSet::update_location`] keeps the id.
pub type SiteId = usize;

/// One site mutation for [`DynamicSet::apply`] (and the serving engine's
/// epoch layer on top of it).
#[derive(Clone, Debug, PartialEq)]
pub enum Update {
    /// Add a new uncertain site; its fresh id is reported in
    /// [`UpdateOutcome::inserted`].
    Insert(DiscreteUncertainPoint),
    /// Tombstone a site. Unknown/already-removed ids are counted in
    /// [`UpdateOutcome::missed`] and otherwise ignored.
    Remove(SiteId),
    /// Replace a site's distribution, keeping its id (expiry + arrival of
    /// the same logical object — the "moving uncertain point" primitive).
    Move {
        id: SiteId,
        to: DiscreteUncertainPoint,
    },
}

/// What a batched [`DynamicSet::apply`] did.
#[derive(Clone, Debug, Default)]
pub struct UpdateOutcome {
    /// Ids assigned to the `Insert` updates, in update order.
    pub inserted: Vec<SiteId>,
    pub removed: usize,
    pub moved: usize,
    /// `Remove`/`Move` updates whose id was unknown or already removed.
    pub missed: usize,
}

/// Compaction thresholds of the dynamic layer.
#[derive(Clone, Copy, Debug)]
pub struct DynamicConfig {
    /// A global compacting rebuild runs when tombstones exceed this
    /// fraction of all stored entries… The classic choice is `0.5` (rebuild
    /// once half the entries are dead): each remove then amortizes to ~1
    /// rebuilt site, at the cost of queries skipping up to that fraction of
    /// tombstones. Lower values compact more eagerly.
    pub max_dead_fraction: f64,
    /// …and there are at least this many of them (tiny sets are cheaper to
    /// keep sweeping than to rebuild eagerly).
    pub min_dead_for_rebuild: usize,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            max_dead_fraction: 0.5,
            min_dead_for_rebuild: 16,
        }
    }
}

/// Lifetime counters of the rebuild work the structure has performed — the
/// amortization currency (`sites_rebuilt` is the Σ of bucket sizes over all
/// bucket (re)builds triggered by updates).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RebuildStats {
    pub inserts: u64,
    pub removes: u64,
    pub moves: u64,
    /// Bucket merges (each rebuilds exactly one bucket).
    pub merges: u64,
    /// Global compacting rebuilds (tombstone purges).
    pub global_rebuilds: u64,
    /// Total sites that participated in a bucket (re)build.
    pub sites_rebuilt: u64,
}

impl RebuildStats {
    /// Mean rebuilt sites per update — `O(log n)` for insert-heavy streams
    /// by the logarithmic-method bound (experiment E28 charts it).
    pub fn amortized_rebuild_cost(&self) -> f64 {
        let updates = self.inserts + self.removes + self.moves;
        if updates == 0 {
            0.0
        } else {
            self.sites_rebuilt as f64 / updates as f64
        }
    }

    /// Counter deltas since an earlier snapshot.
    pub fn since(&self, earlier: &RebuildStats) -> RebuildStats {
        RebuildStats {
            inserts: self.inserts - earlier.inserts,
            removes: self.removes - earlier.removes,
            moves: self.moves - earlier.moves,
            merges: self.merges - earlier.merges,
            global_rebuilds: self.global_rebuilds - earlier.global_rebuilds,
            sites_rebuilt: self.sites_rebuilt - earlier.sites_rebuilt,
        }
    }
}

/// Reuse metrics of one quantification query
/// ([`DynamicSet::quantification_merged_with_stats`]). Counts describe the
/// collect that produced the answer (the full one, if the radius-bounded
/// collect had to be repeated).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QuantMergeStats {
    /// Buckets that range-reported into the collect: live, with a support
    /// box within the collect radius.
    pub buckets: usize,
    /// Entries the sweep read from the collect before its early exit (up
    /// to one past the last batch it processed) — never more than
    /// `live_locations`. The collect's own size is counted by the
    /// `dynamic.quant.entries_collected` obs counter.
    pub entries_merged: usize,
    /// Live locations a static sweep would have assembled and sorted (an
    /// `O(1)` read of the counter every mutation maintains).
    pub live_locations: usize,
    /// Shards the query read in either stage (a monolithic set counts as
    /// one shard). With spatial partitioning, shards whose support box
    /// lies beyond the radius are never read.
    pub shards_touched: usize,
}

/// Stage 1 of both query families: the two smallest `Δ_i(q)` folded so far
/// and the site attaining the smallest, folded by each bucket's
/// [`GroupIndex::fold_two_min_pruned`](uncertain_spatial::GroupIndex::fold_two_min_pruned).
/// Whatever the order, the floats end as the min and second-min of the
/// folded multiset, and the witness can only depend on the order among
/// exact ties at `d1`, where `d2 == d1`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TwoMin {
    pub d1: f64,
    /// `SiteId::MAX` until a site is folded.
    pub id1: SiteId,
    /// `+∞` until two sites are folded.
    pub d2: f64,
}

impl TwoMin {
    pub const EMPTY: TwoMin = TwoMin {
        d1: f64::INFINITY,
        id1: SiteId::MAX,
        d2: f64::INFINITY,
    };

    /// The same fold, one site at a time: the tests' brute reference.
    #[cfg(test)]
    pub fn offer(&mut self, d: f64, id: SiteId) {
        if d < self.d1 {
            self.d2 = self.d1;
            self.d1 = d;
            self.id1 = id;
        } else if d < self.d2 {
            self.d2 = d;
        }
    }
}

/// A point-in-time report of the structure's shape.
#[derive(Clone, Copy, Debug)]
pub struct DynamicStats {
    pub live: usize,
    pub tombstones: usize,
    /// Total entries in the append-only slab (live + tombstoned + already
    /// purged-from-buckets garbage). Kept within a constant factor of
    /// `live` by the slab-growth rebuild trigger.
    pub slab_entries: usize,
    pub buckets: usize,
    pub rebuild: RebuildStats,
}

/// A stored site: its distribution plus the stage-1 summary of its
/// locations, computed once when the site arrives. One `Arc` of it is
/// shared by the entry slab and whichever bucket holds the site, so a carry
/// or a compaction moves the site without recomputing or copying any of
/// its geometry.
pub(crate) struct StoredSite {
    pub point: DiscreteUncertainPoint,
    /// Smallest enclosing circle of the locations: the group tree's bound.
    pub sec: Circle,
    /// Farthest-point hull of the locations: the site's exact `Δ_i(q)`.
    pub hull: FarthestPointHull,
}

impl StoredSite {
    pub fn new(point: DiscreteUncertainPoint) -> Self {
        let locations = point.locations();
        StoredSite {
            sec: smallest_enclosing_circle(locations).expect("a site has a location"),
            hull: FarthestPointHull::build(locations),
            point,
        }
    }
}

#[derive(Clone)]
struct Entry {
    site: Arc<StoredSite>,
    /// Public id of the site this entry is the current (or a tombstoned
    /// former) copy of.
    id: SiteId,
    alive: bool,
    /// `(bucket slot, local index)` of this entry's current bucket, `None`
    /// while pending (pushed but not yet carried). Lets a tombstone clear
    /// the slot's alive bitmap in O(1).
    place: Option<(u32, u32)>,
}

/// The Bentley–Saxe slot a bucket of `n` entries lands at: the smallest `k`
/// with `n ≤ 2^k`. Carries and bulk loads both place by it, so slot `k`
/// never holds more than `2^k` entries.
fn slot_for(n: usize) -> usize {
    n.next_power_of_two().trailing_zeros() as usize
}

/// An occupied Bentley–Saxe slot: the immutable shared bucket plus this
/// snapshot's tombstone overlay as a bitmap (bit per local site). Queries
/// test liveness with one masked load instead of chasing the entry slab.
/// Per-node live counters over the bucket's stage-1 group tree let stage 1
/// skip fully-dead subtrees instead of paying for the build-batch size as
/// tombstones accumulate toward the compaction threshold.
#[derive(Clone)]
struct Slot {
    bucket: Arc<Bucket>,
    alive: Vec<u64>,
    /// Set bits of `alive`: a fully-dead bucket (0) joins no query.
    live: usize,
    /// Live-count overlay for the bucket's
    /// [`GroupTree`](uncertain_spatial::GroupTree).
    group_live: Vec<u32>,
}

impl Slot {
    fn new(bucket: Arc<Bucket>) -> Self {
        Slot {
            alive: uncertain_spatial::soa::bitmap_filled(bucket.entry_idxs.len(), true),
            live: bucket.entry_idxs.len(),
            group_live: bucket.group_tree().live_counts(),
            bucket,
        }
    }

    #[inline]
    fn kill(&mut self, local: usize) {
        self.alive[local >> 6] &= !(1u64 << (local & 63));
        self.live -= 1;
        self.bucket
            .group_tree()
            .kill(local as u32, &mut self.group_live);
    }
}

/// A dynamic set of uncertain sites under the Bentley–Saxe transformation.
///
/// `Clone` is cheap-ish (`O(n)` `Arc` bumps, no geometry rebuilt): buckets
/// and site payloads are shared, tombstone state is copied — which is
/// exactly what the serving engine's epoch snapshots need (an `apply` on
/// the clone never disturbs readers of the original).
#[derive(Clone)]
pub struct DynamicSet {
    /// Append-only entry slab (compacted by global rebuilds).
    entries: Vec<Entry>,
    /// Public id → current entry index (absent once removed). A map, not a
    /// slab: ids are never reused, so a slab would grow with lifetime
    /// inserts instead of the live population.
    handles: HashMap<SiteId, u32>,
    /// Next id [`insert`](Self::insert) will hand out.
    next_id: SiteId,
    /// Live ids, sorted, possibly still containing up to 50% removed ids
    /// (removes just count [`stale_ids`](Self::stale_ids) up and readers
    /// filter by handle; compaction restores density once stale ids reach
    /// half the list). Fresh ids are strictly increasing, so inserts push.
    /// Keeps inserts and removes `O(1)` amortized while
    /// [`live_ids`](Self::live_ids) stays `O(live)` instead of
    /// `O(lifetime inserts)`.
    live_ids: Vec<SiteId>,
    /// Removed ids still sitting in `live_ids`.
    stale_ids: usize,
    /// Bentley–Saxe slots: `buckets[i]` is the level-`i` bucket (plus its
    /// tombstone bitmap), if any.
    buckets: Vec<Option<Slot>>,
    live: usize,
    /// Σ locations over live sites — what a static sweep would sort; kept
    /// by every mutation so readers (merge statistics) get it in `O(1)`.
    live_locations: usize,
    /// Tombstoned entries still referenced by some bucket.
    dead: usize,
    config: DynamicConfig,
    stats: RebuildStats,
}

impl DynamicSet {
    /// An empty dynamic set.
    pub fn new(config: DynamicConfig) -> Self {
        DynamicSet {
            entries: vec![],
            handles: HashMap::new(),
            next_id: 0,
            live_ids: vec![],
            stale_ids: 0,
            buckets: vec![],
            live: 0,
            live_locations: 0,
            dead: 0,
            config,
            stats: RebuildStats::default(),
        }
    }

    /// Bulk-loads a static set into a single bucket; site `i` of `set`
    /// receives id `i`. A cloning wrapper over
    /// [`from_sites`](Self::from_sites).
    pub fn from_set(set: &DiscreteSet, config: DynamicConfig) -> Self {
        Self::from_sites((0..set.len()).collect(), set.points.clone(), config)
    }

    /// Bulk-loads `sites` under `ids` (parallel to `sites`, strictly
    /// ascending) as one bucket at the smallest slot that fits it. Each
    /// site moves into its shared payload without a copy. (The bulk build
    /// is not counted in the update amortization stats.)
    ///
    /// # Panics
    ///
    /// If `ids` and `sites` differ in length or `ids` does not ascend.
    pub fn from_sites(
        ids: Vec<SiteId>,
        sites: Vec<DiscreteUncertainPoint>,
        config: DynamicConfig,
    ) -> Self {
        assert_eq!(ids.len(), sites.len(), "one id per site");
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "bulk ids ascend");
        let mut s = DynamicSet::new(config);
        s.next_id = ids.last().map_or(0, |&id| id + 1);
        s.live = ids.len();
        s.live_locations = sites.iter().map(|p| p.k()).sum();
        let entries = ids
            .into_iter()
            .zip(sites)
            .map(|(id, site)| Entry {
                site: Arc::new(StoredSite::new(site)),
                id,
                alive: true,
                place: None,
            })
            .collect();
        s.lay_out_one_bucket(entries);
        s
    }

    /// Live site count.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Σ locations over the live sites, `O(1)`.
    pub fn live_locations(&self) -> usize {
        self.live_locations
    }

    /// Tombstoned entries still occupying bucket slots.
    pub fn tombstones(&self) -> usize {
        self.dead
    }

    pub fn contains(&self, id: SiteId) -> bool {
        self.handles.contains_key(&id)
    }

    /// The current site under `id`, if live.
    pub fn get(&self, id: SiteId) -> Option<&DiscreteUncertainPoint> {
        let e = *self.handles.get(&id)?;
        Some(&self.entries[e as usize].site.point)
    }

    /// Live ids, ascending. `O(live)` (a filtered copy of the maintained
    /// list, which holds at most 2× live entries).
    pub fn live_ids(&self) -> Vec<SiteId> {
        if self.stale_ids == 0 {
            self.live_ids.clone()
        } else {
            self.live_ids
                .iter()
                .copied()
                .filter(|id| self.handles.contains_key(id))
                .collect()
        }
    }

    /// Materializes the surviving sites as a fresh static set, in ascending
    /// id order — the "rebuild from scratch" the differential harness
    /// compares against (`live_set().points[dense]` is site
    /// `live_ids()[dense]`).
    pub fn live_set(&self) -> DiscreteSet {
        DiscreteSet::new(
            self.live_ids
                .iter()
                .filter_map(|id| self.handles.get(id))
                .map(|&e| self.entries[e as usize].site.point.clone())
                .collect(),
        )
    }

    /// Allocation-free shape summary of the live sites:
    /// `(total locations N, max per-site k, weight spread ρ)`. `O(n + N)`
    /// scan, no materialization — the reference the `O(1)` Σk counter is
    /// tested against.
    pub fn live_shape(&self) -> (usize, usize, f64) {
        let mut total = 0usize;
        let mut max_k = 0usize;
        let mut w_min = f64::INFINITY;
        let mut w_max = 0.0f64;
        for site in self
            .entries
            .iter()
            .filter(|e| e.alive)
            .map(|e| &e.site.point)
        {
            total += site.k();
            max_k = max_k.max(site.k());
            for &w in site.weights() {
                w_min = w_min.min(w);
                w_max = w_max.max(w);
            }
        }
        let spread = if w_min.is_finite() && w_min > 0.0 {
            w_max / w_min
        } else {
            1.0
        };
        (total, max_k, spread)
    }

    pub fn stats(&self) -> DynamicStats {
        DynamicStats {
            live: self.live,
            tombstones: self.dead,
            slab_entries: self.entries.len(),
            buckets: self.buckets.iter().flatten().count(),
            rebuild: self.stats,
        }
    }

    /// `(slot k, entries stored there)` per occupied Bentley–Saxe slot,
    /// ascending `k`, counting live and tombstoned entries alike. Carries,
    /// bulk loads and compactions all place a bucket at the smallest slot
    /// that fits it, so every pair has `entries ≤ 2^k`.
    pub fn slot_sizes(&self) -> Vec<(usize, usize)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(k, slot)| Some((k, slot.as_ref()?.bucket.entry_idxs.len())))
            .collect()
    }

    /// Inserts a site, returning its fresh stable id.
    pub fn insert(&mut self, site: DiscreteUncertainPoint) -> SiteId {
        let id = self.alloc_id();
        self.stats.inserts += 1;
        let e = self.push_entry(id, site);
        self.carry(vec![e]);
        id
    }

    /// Hands out the next fresh id and appends it to the sorted live list
    /// (fresh ids are strictly increasing, so a push keeps it sorted).
    fn alloc_id(&mut self) -> SiteId {
        let id = self.next_id;
        self.next_id += 1;
        self.live_ids.push(id);
        id
    }

    /// Registers an externally-allocated fresh id (sharded serving assigns
    /// ids from one global counter so per-shard id spaces never collide).
    /// The id must not be live here; racing appliers can hand ids to a
    /// shard out of order, so insertion keeps the live list sorted instead
    /// of assuming a push suffices. Removes leave stale entries behind
    /// (see [`drop_live_id`](Self::drop_live_id)), and spatial rebalancing
    /// can migrate an id away and later back — a stale copy of the adopted
    /// id is revived in place rather than duplicated.
    fn adopt_id(&mut self, id: SiteId) {
        debug_assert!(
            !self.handles.contains_key(&id),
            "adopted id {id} is already live"
        );
        self.next_id = self.next_id.max(id + 1);
        match self.live_ids.last() {
            Some(&last) if last >= id => {
                let pos = self.live_ids.partition_point(|&x| x < id);
                if self.live_ids.get(pos) == Some(&id) {
                    // Stale copy from an earlier removal of the same id.
                    self.stale_ids = self.stale_ids.saturating_sub(1);
                } else {
                    self.live_ids.insert(pos, id);
                }
            }
            _ => self.live_ids.push(id),
        }
    }

    /// Marks `id`'s slot in the sorted live list stale; compacts once half
    /// the list is stale, so removes stay `O(1)` amortized. Must be called
    /// *after* `handles` drops the id (the filter is the handle map).
    fn drop_live_id(&mut self) {
        self.stale_ids += 1;
        if self.stale_ids * 2 > self.live_ids.len() {
            let handles = &self.handles;
            self.live_ids.retain(|id| handles.contains_key(id));
            self.stale_ids = 0;
        }
    }

    /// Applies a batch of updates **in order** (so a `Move` after a
    /// `Remove` of the same id misses, exactly as with the one-at-a-time
    /// calls), but merges every new entry into the bucket structure with a
    /// *single* carry at the end: one bucket rebuild per batch instead of
    /// one per insert. This is the engine's `apply` path — under sustained
    /// churn it is the difference between `O(batch + log n)` and
    /// `O(batch · log n)` rebuilt sites per update wave.
    pub fn apply(&mut self, updates: &[Update]) -> UpdateOutcome {
        self.apply_inner(updates, None)
    }

    /// [`apply`](Self::apply) with externally-allocated insert ids: the
    /// `k`-th `Insert` in `updates` receives `insert_ids[k]` instead of a
    /// locally-allocated one. Every id must be *not currently live* here —
    /// either globally fresh (the sharded engine's single global id
    /// counter) or previously removed from this set (a spatial rebalance
    /// migrating a site back). Semantics are otherwise identical to
    /// [`apply`](Self::apply), including the single end-of-batch carry.
    /// Takes the updates by reference (any `&Update` iterator, e.g. a slice
    /// or a per-shard selection of a caller's slice), so routing a batch
    /// never copies the site payloads.
    pub fn apply_with_insert_ids<'a, I>(
        &mut self,
        updates: I,
        insert_ids: &[SiteId],
    ) -> UpdateOutcome
    where
        I: IntoIterator<Item = &'a Update>,
        I::IntoIter: Clone,
    {
        let updates = updates.into_iter();
        let inserts = updates
            .clone()
            .filter(|u| matches!(u, Update::Insert(_)))
            .count();
        assert_eq!(
            insert_ids.len(),
            inserts,
            "one pre-assigned id per Insert update"
        );
        self.apply_inner(updates, Some(insert_ids))
    }

    /// A copy of this set with room for `extra` more entries in its slab
    /// and live-id list. `Clone` allocates both at exactly their length, so
    /// an apply on a plain clone copies them a second time when its first
    /// insert grows them; a copy made here takes the apply's appends in
    /// place.
    pub fn clone_with_room(&self, extra: usize) -> DynamicSet {
        let mut entries = Vec::with_capacity(self.entries.len() + extra);
        entries.extend_from_slice(&self.entries);
        let mut live_ids = Vec::with_capacity(self.live_ids.len() + extra);
        live_ids.extend_from_slice(&self.live_ids);
        DynamicSet {
            entries,
            handles: self.handles.clone(),
            next_id: self.next_id,
            live_ids,
            stale_ids: self.stale_ids,
            buckets: self.buckets.clone(),
            live: self.live,
            live_locations: self.live_locations,
            dead: self.dead,
            config: self.config,
            stats: self.stats,
        }
    }

    fn apply_inner<'a>(
        &mut self,
        updates: impl IntoIterator<Item = &'a Update>,
        insert_ids: Option<&[SiteId]>,
    ) -> UpdateOutcome {
        let _span = uncertain_obs::span!("dynamic.apply");
        let mut out = UpdateOutcome::default();
        let mut pending: Vec<u32> = vec![];
        for u in updates {
            match u {
                Update::Insert(site) => {
                    let id = match insert_ids {
                        Some(ids) => {
                            let id = ids[out.inserted.len()];
                            self.adopt_id(id);
                            id
                        }
                        None => self.alloc_id(),
                    };
                    self.stats.inserts += 1;
                    pending.push(self.push_entry(id, site.clone()));
                    out.inserted.push(id);
                }
                Update::Remove(id) => {
                    if self.tombstone(*id) {
                        self.handles.remove(id);
                        self.drop_live_id();
                        self.stats.removes += 1;
                        out.removed += 1;
                    } else {
                        out.missed += 1;
                    }
                }
                Update::Move { id, to } => {
                    if self.tombstone(*id) {
                        self.stats.moves += 1;
                        pending.push(self.push_entry(*id, to.clone()));
                        out.moved += 1;
                    } else {
                        out.missed += 1;
                    }
                }
            }
        }
        if !pending.is_empty() {
            self.carry(pending);
        }
        self.maybe_rebuild_all();
        self.record_obs_gauges();
        out
    }

    /// Publishes the set's shape to the obs registry gauges — last-write
    /// wins, so with several live `DynamicSet`s the gauges track whichever
    /// instance mutated most recently (in the serving engine that is the
    /// published epoch).
    fn record_obs_gauges(&self) {
        let total = (self.live + self.dead) as f64;
        let ratio = if total == 0.0 {
            0.0
        } else {
            self.dead as f64 / total
        };
        uncertain_obs::gauge!("dynamic.tombstone_ratio").set(ratio);
        uncertain_obs::gauge!("dynamic.live_sites").set(self.live as f64);
    }

    /// Tombstones `id`. Returns `false` when the id is unknown or already
    /// removed. Triggers a global compacting rebuild when the dead fraction
    /// exceeds the configured threshold.
    pub fn remove(&mut self, id: SiteId) -> bool {
        if !self.tombstone(id) {
            return false;
        }
        self.handles.remove(&id);
        self.drop_live_id();
        self.stats.removes += 1;
        self.maybe_rebuild_all();
        true
    }

    /// Replaces the distribution of site `id` (tombstone + reinsert under
    /// the same id). Returns `false` when the id is not live.
    pub fn update_location(&mut self, id: SiteId, site: DiscreteUncertainPoint) -> bool {
        if !self.tombstone(id) {
            return false;
        }
        self.stats.moves += 1;
        let e = self.push_entry(id, site);
        self.carry(vec![e]);
        self.maybe_rebuild_all();
        true
    }

    /// Marks the current entry of `id` dead (leaving `handles[id]` in
    /// place for the caller to overwrite or clear). `false` if not live.
    fn tombstone(&mut self, id: SiteId) -> bool {
        let Some(&e) = self.handles.get(&id) else {
            return false;
        };
        let entry = &mut self.entries[e as usize];
        entry.alive = false;
        self.live_locations -= entry.site.point.k();
        if let Some((slot, local)) = entry.place {
            self.buckets[slot as usize]
                .as_mut()
                .expect("placed entry's slot is occupied")
                .kill(local as usize);
        }
        self.live -= 1;
        self.dead += 1;
        true
    }

    /// Rebuilds everything into one compact bucket, dropping tombstones and
    /// compacting the entry slab. Runs automatically past the dead-fraction
    /// threshold; exposed for explicit compaction.
    pub fn rebuild_all(&mut self) {
        let _span = uncertain_obs::span!("dynamic.rebuild");
        self.stats.global_rebuilds += 1;
        self.stats.sites_rebuilt += self.live as u64;
        uncertain_obs::counter!("dynamic.global_rebuilds").inc();
        uncertain_obs::counter!("dynamic.sites_rebuilt").add(self.live as u64);
        let mut survivors = Vec::with_capacity(self.live);
        survivors.extend(self.entries.iter().filter(|e| e.alive).map(|e| Entry {
            place: None,
            ..e.clone()
        }));
        survivors.sort_unstable_by_key(|e| e.id);
        self.lay_out_one_bucket(survivors);
    }

    /// Makes `entries` (all live, ascending id) the whole entry slab and
    /// lays them out as a single bucket at [`slot_for`] their count — the
    /// shared layout of [`from_sites`](Self::from_sites) and
    /// [`rebuild_all`](Self::rebuild_all).
    fn lay_out_one_bucket(&mut self, entries: Vec<Entry>) {
        self.handles.clear();
        self.handles.reserve(entries.len());
        for (i, e) in entries.iter().enumerate() {
            self.handles.insert(e.id, i as u32);
        }
        self.live_ids = entries.iter().map(|e| e.id).collect();
        self.stale_ids = 0;
        self.dead = 0;
        self.entries = entries;
        self.buckets.clear();
        let n = self.entries.len();
        if n > 0 {
            let slot = slot_for(n);
            self.buckets = vec![None; slot + 1];
            self.place_bucket(slot, (0..n as u32).collect());
        }
    }

    /// Appends a live entry for `id` (without placing it in a bucket yet)
    /// and points the handle at it. The site's circle and hull are computed
    /// here, once for its lifetime.
    fn push_entry(&mut self, id: SiteId, site: DiscreteUncertainPoint) -> u32 {
        let e = self.entries.len() as u32;
        self.live_locations += site.k();
        self.entries.push(Entry {
            site: Arc::new(StoredSite::new(site)),
            id,
            alive: true,
            place: None,
        });
        self.handles.insert(id, e);
        self.live += 1;
        e
    }

    /// The logarithmic-method carry: merge the occupied prefix of slots
    /// plus `pool` into the first empty slot, dropping tombstones on the
    /// way (they are counted out of `dead` here). `pool` entries may
    /// themselves have died since being pushed (a `Move` later in the same
    /// batch); they are filtered identically. The pool grows once, and
    /// nothing else the carry allocates depends on how many sites it
    /// gathers.
    fn carry(&mut self, mut pool: Vec<u32>) {
        let _span = uncertain_obs::span!("dynamic.carry");
        // Find the landing slot first: every occupied slot below it is
        // gathered.
        let mut gathered = pool.len();
        let mut slot = 0;
        loop {
            if let Some(Some(s)) = self.buckets.get(slot) {
                gathered += s.bucket.entry_idxs.len();
                slot += 1;
                continue;
            }
            // The merged bucket must land at a level that fits its size
            // (`slot_for`). Stopping at the first empty slot regardless
            // of size would drop a bulk batch at slot 0, and every later
            // carry would re-gather and rebuild it — turning the amortized
            // O(log n) per update into O(n) per batch. Unit inserts are
            // unaffected (their pools always fit).
            if slot >= slot_for(gathered) {
                break;
            }
            slot += 1;
        }
        pool.reserve_exact(gathered - pool.len());
        for s in self.buckets.iter_mut().take(slot).filter_map(Option::take) {
            pool.extend_from_slice(&s.bucket.entry_idxs);
        }
        let entries = &self.entries;
        pool.retain(|&e| entries[e as usize].alive);
        self.dead -= gathered - pool.len();
        if pool.is_empty() {
            // Everything gathered was dead: the merged slots stay empty.
            return;
        }
        while self.buckets.len() <= slot {
            self.buckets.push(None);
        }
        self.stats.merges += 1;
        self.stats.sites_rebuilt += pool.len() as u64;
        uncertain_obs::counter!("dynamic.merges").inc();
        uncertain_obs::counter!("dynamic.sites_rebuilt").add(pool.len() as u64);
        self.place_bucket(slot, pool);
    }

    /// Builds a bucket over `pool` (live entry indices), installs it at
    /// `slot` with a fresh all-alive bitmap, and points every entry's
    /// `place` at its new home. Pure mechanics — the caller does the
    /// amortization accounting (bulk loads are not counted).
    fn place_bucket(&mut self, slot: usize, mut pool: Vec<u32>) {
        pool.sort_unstable_by_key(|&e| self.entries[e as usize].id);
        for (local, &e) in pool.iter().enumerate() {
            self.entries[e as usize].place = Some((slot as u32, local as u32));
        }
        let ids = pool.iter().map(|&e| self.entries[e as usize].id).collect();
        let sites = pool
            .iter()
            .map(|&e| Arc::clone(&self.entries[e as usize].site))
            .collect();
        let bucket = Arc::new(Bucket::build(pool, ids, sites));
        self.buckets[slot] = Some(Slot::new(bucket));
    }

    fn maybe_rebuild_all(&mut self) {
        // Trigger 1: tombstones still buried in buckets exceed the dead
        // fraction (query-speed pressure).
        let tombstone_pressure = self.dead >= self.config.min_dead_for_rebuild
            && (self.dead as f64)
                > self.config.max_dead_fraction * ((self.live + self.dead) as f64);
        // Trigger 2: the append-only entry slab has outgrown the live set
        // (memory/clone-cost pressure). Carries purge tombstones out of
        // buckets — which empties `dead` — but purged entries still occupy
        // the slab, so steady insert+remove churn would otherwise grow it
        // without bound.
        let slab_pressure = self.entries.len() >= 32.max(self.config.min_dead_for_rebuild)
            && self.entries.len() > 2 * self.live;
        if tombstone_pressure || slab_pressure {
            self.rebuild_all();
        }
    }

    /// `NN≠0(q)` over the live sites, as ascending public ids — equal to
    /// the Lemma 2.1 answer of a fresh static build over
    /// [`live_set`](Self::live_set) (mapped through
    /// [`live_ids`](Self::live_ids)).
    ///
    /// Stage 1 folds every bucket's live `Δ_i(q)` into the global
    /// best/second pair; stage 2 filters quantification's collect against
    /// the Lemma 2.1 threshold `min_{j≠i} Δ_j(q)`. The driver is the
    /// sharded reader's, over a scatter order of this one set.
    pub fn nonzero(&self, q: Point) -> Vec<SiteId> {
        shard::nonzero(q, std::iter::once((self, 0.0))).0
    }

    /// Stage 1 over this set: folds the `Δ_i(q)` of its live sites into
    /// `acc`. Each bucket's search starts from the running second-min, and
    /// a bucket whose support box lies at distance `≥ acc.d2` is skipped
    /// (every site in it has `Δ_i(q) ≥` that distance, so it cannot change
    /// the pair). Buckets are visited largest first: the largest most
    /// likely holds the two nearest sites, so the smaller buckets after it
    /// search from a tight pair. Folding several sets into one
    /// accumulator gives the pair over their union — the sharded scatter
    /// phase.
    fn fold_two_min(&self, q: Point, acc: &mut TwoMin) {
        for slot in self.buckets.iter().rev().flatten() {
            if slot.live == 0 || slot.bucket.support_aabb().dist_to_point(q) >= acc.d2 {
                continue;
            }
            slot.bucket
                .fold_two_min(q, &slot.alive, &slot.group_live, acc);
        }
    }

    /// The nonzero quantification probabilities over the live sites, as
    /// `(id, π)` pairs with `π > 0` in ascending id order (every live site
    /// absent from the answer has `π = 0` exactly — by Lemma 2.1 the
    /// answer's ids lie in [`nonzero`](Self::nonzero)). Stage 1 of the
    /// `NN≠0` query gives the radius `d2`; every live bucket within it
    /// range-reports its live locations at distance `≤ d2` from its kd
    /// summary (built with the bucket, shared across epoch snapshots),
    /// and the sorted collect feeds the shared Eq. (2) sweep core with its
    /// early exit. Per-query work and memory follow the entries inside the
    /// radius plus the bucket fan-out — nothing is `O(n)`. Answers are
    /// **bit-identical** to a fresh static build
    /// ([`quantification_discrete`](crate::quantification::exact) over
    /// [`live_set`](Self::live_set)): the sorted collect is the static
    /// sweep's exact entry order up to the id ↔ dense-rank relabeling, as
    /// far as the sweep reads it, which the sweep's exit report checks at
    /// run time. Enforced by `tests/dynamic_differential.rs` under every op
    /// interleaving.
    pub fn quantification_merged(&self, q: Point) -> Vec<(SiteId, f64)> {
        self.quantification_merged_with_stats(q).0
    }

    /// [`quantification_merged`](Self::quantification_merged) plus the
    /// per-query reuse metrics the serving engine aggregates.
    pub fn quantification_merged_with_stats(
        &self,
        q: Point,
    ) -> (Vec<(SiteId, f64)>, QuantMergeStats) {
        shard::quantify(q, std::iter::once((self, 0.0)))
    }

    /// Stage 2 of both query families over this set: appends every live
    /// location at distance `≤ r` from `q` to `out`, from each live bucket
    /// whose support box lies within `r`, counting those buckets into
    /// `stats`.
    fn collect_quant(
        &self,
        q: Point,
        r: f64,
        out: &mut Vec<QuantEntry>,
        stats: &mut QuantMergeStats,
    ) {
        for slot in self.buckets.iter().flatten() {
            let b = &slot.bucket;
            if slot.live == 0 || b.support_aabb().dist_to_point(q) > r {
                continue;
            }
            stats.buckets += 1;
            b.collect_quant(q, r, &slot.alive, out);
        }
    }

    /// A conservative box over the supports of every live site: the union
    /// of per-bucket support boxes. Tombstoned sites still inflate it until
    /// their bucket next merges — the box only over-covers, never
    /// under-covers, which is the direction spatial query pruning needs.
    /// Empty (and hence safe to prune against any query) when no buckets
    /// are occupied.
    pub fn support_aabb(&self) -> Aabb {
        self.buckets
            .iter()
            .flatten()
            .fold(Aabb::empty(), |acc, slot| {
                acc.union(slot.bucket.support_aabb())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonzero::{nonzero_nn_discrete, DiscreteNonzeroIndex};
    use crate::quantification::exact::quantification_discrete;
    use crate::workload;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The oracle's quantification over `d`'s live sites: the static Eq. (2)
    /// sweep over [`DynamicSet::live_set`], as ascending `(id, π)` pairs.
    fn oracle_quant(d: &DynamicSet, q: Point) -> Vec<(SiteId, f64)> {
        d.live_ids()
            .into_iter()
            .zip(quantification_discrete(&d.live_set(), q))
            .collect()
    }

    /// Checks every query family of `d` against a fresh static build.
    fn assert_matches_fresh(d: &DynamicSet, queries: &[Point]) {
        let fresh = d.live_set();
        let ids = d.live_ids();
        assert_eq!(fresh.len(), d.len());
        assert_eq!(d.live_locations(), d.live_shape().0, "Σk counter drifted");
        for &q in queries {
            // NN≠0 vs brute Lemma 2.1 and vs a fresh Theorem 3.2 index.
            let got = d.nonzero(q);
            let want: Vec<SiteId> = nonzero_nn_discrete(&fresh, q)
                .into_iter()
                .map(|dense| ids[dense])
                .collect();
            assert_eq!(got, want, "NN≠0 at {q}");
            let idx = DiscreteNonzeroIndex::build(&fresh);
            let mut via_index = idx.query(q);
            via_index.sort_unstable();
            let want_dense: Vec<usize> = want
                .iter()
                .map(|id| ids.binary_search(id).unwrap())
                .collect();
            assert_eq!(via_index, want_dense);
            // Quantification: the radius-bounded path (twice) is
            // bit-identical to the static sweep over the live set.
            let pi_fresh = quantification_discrete(&fresh, q);
            assert_eq!(pi_fresh.len(), ids.len());
            // The merged path answers the sites with π > 0, ascending by id
            // — a subset of NN≠0(q) (Lemma 2.1).
            let (pi_merged, mstats) = d.quantification_merged_with_stats(q);
            let want: Vec<(SiteId, f64)> = pi_fresh
                .iter()
                .enumerate()
                .filter(|&(_, &p)| p > 0.0)
                .map(|(dense, &p)| (ids[dense], p))
                .collect();
            assert_eq!(pi_merged.len(), want.len(), "merged answer size at {q}");
            for ((id, got), (wid, want)) in pi_merged.iter().zip(&want) {
                assert_eq!(id, wid, "merged ids at {q}");
                assert_eq!(got.to_bits(), want.to_bits(), "merged π at {q}");
            }
            let nonzero = d.nonzero(q);
            assert!(
                pi_merged
                    .iter()
                    .all(|(id, _)| nonzero.binary_search(id).is_ok()),
                "merged answer outside NN≠0 at {q}"
            );
            assert_eq!(d.quantification_merged(q), pi_merged);
            assert!(mstats.entries_merged <= mstats.live_locations);
            let (pi_again, again) = d.quantification_merged_with_stats(q);
            assert_eq!(pi_merged, pi_again, "repeated merged answer drifted at {q}");
            assert_eq!(mstats, again, "repeated merged stats drifted at {q}");
        }
    }

    #[test]
    fn random_op_stream_matches_fresh_builds() {
        for (seed, config) in [
            (1u64, DynamicConfig::default()),
            // A second op stream on the default configuration.
            (2, DynamicConfig::default()),
            // Aggressive compaction.
            (
                3,
                DynamicConfig {
                    max_dead_fraction: 0.05,
                    min_dead_for_rebuild: 2,
                },
            ),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = workload::random_discrete_set(12, 3, 5.0, seed);
            let mut d = DynamicSet::from_set(&base, config);
            let queries = workload::random_queries(4, 60.0, seed ^ 0x5a5a);
            for step in 0..60 {
                match rng.gen_range(0..4u32) {
                    0 | 1 => {
                        let k = rng.gen_range(1..4);
                        let c = Point::new(rng.gen_range(-25.0..25.0), rng.gen_range(-25.0..25.0));
                        let locs = (0..k)
                            .map(|_| {
                                Point::new(
                                    c.x + rng.gen_range(-3.0..3.0),
                                    c.y + rng.gen_range(-3.0..3.0),
                                )
                            })
                            .collect();
                        d.insert(DiscreteUncertainPoint::uniform(locs));
                    }
                    2 => {
                        let ids = d.live_ids();
                        if ids.len() > 1 {
                            let id = ids[rng.gen_range(0..ids.len())];
                            assert!(d.remove(id));
                            assert!(!d.contains(id));
                            assert!(!d.remove(id), "double remove must fail");
                        }
                    }
                    _ => {
                        let ids = d.live_ids();
                        if !ids.is_empty() {
                            let id = ids[rng.gen_range(0..ids.len())];
                            let p =
                                Point::new(rng.gen_range(-25.0..25.0), rng.gen_range(-25.0..25.0));
                            assert!(d.update_location(id, DiscreteUncertainPoint::certain(p)));
                            assert!(d.contains(id));
                        }
                    }
                }
                if step % 5 == 0 || step > 54 {
                    assert_matches_fresh(&d, &queries);
                }
            }
            let s = d.stats();
            assert_eq!(s.live, d.len());
            assert!(s.rebuild.merges > 0);
        }
    }

    #[test]
    fn batched_apply_matches_sequential_ops_with_fewer_rebuilds() {
        let base = workload::random_discrete_set(32, 3, 5.0, 15);
        let mut one_by_one = DynamicSet::from_set(&base, DynamicConfig::default());
        let mut batched = DynamicSet::from_set(&base, DynamicConfig::default());
        let updates: Vec<Update> = (0..24)
            .map(|i| match i % 4 {
                0 | 1 => Update::Insert(DiscreteUncertainPoint::certain(Point::new(
                    i as f64,
                    -(i as f64),
                ))),
                2 => Update::Remove(i / 2),
                _ => Update::Move {
                    id: i,
                    to: DiscreteUncertainPoint::certain(Point::new(0.5 * i as f64, 3.0)),
                },
            })
            .collect();
        // Sequential reference path.
        let mut expected_inserted = vec![];
        for u in &updates {
            match u {
                Update::Insert(s) => expected_inserted.push(one_by_one.insert(s.clone())),
                Update::Remove(id) => {
                    one_by_one.remove(*id);
                }
                Update::Move { id, to } => {
                    one_by_one.update_location(*id, to.clone());
                }
            }
        }
        let outcome = batched.apply(&updates);
        assert_eq!(outcome.inserted, expected_inserted);
        assert_eq!(outcome.removed + outcome.moved + outcome.missed, 12);
        // Same surviving sites and same ids…
        assert_eq!(batched.live_ids(), one_by_one.live_ids());
        for q in workload::random_queries(5, 60.0, 16) {
            assert_eq!(batched.nonzero(q), one_by_one.nonzero(q));
            assert_eq!(oracle_quant(&batched, q), oracle_quant(&one_by_one, q));
            assert_eq!(
                batched.quantification_merged(q),
                one_by_one.quantification_merged(q)
            );
        }
        // …with strictly less rebuild work (one carry vs one per insert).
        let (b, s) = (
            batched.stats().rebuild.sites_rebuilt,
            one_by_one.stats().rebuild.sites_rebuilt,
        );
        assert!(b < s, "batched apply rebuilt {b} ≥ sequential {s}");
        // A same-batch insert→move→remove chain resolves in order.
        let mut d = DynamicSet::new(DynamicConfig::default());
        let out = d.apply(&[
            Update::Insert(DiscreteUncertainPoint::certain(Point::new(1.0, 1.0))),
            Update::Move {
                id: 0,
                to: DiscreteUncertainPoint::certain(Point::new(2.0, 2.0)),
            },
            Update::Remove(0),
            Update::Remove(0),
        ]);
        assert_eq!(out.inserted, vec![0]);
        assert_eq!((out.moved, out.removed, out.missed), (1, 1, 1));
        assert!(d.is_empty());
        assert!(d.nonzero(Point::new(0.0, 0.0)).is_empty());
    }

    #[test]
    fn clone_is_an_isolated_snapshot() {
        let base = workload::random_discrete_set(20, 3, 5.0, 9);
        let d0 = DynamicSet::from_set(&base, DynamicConfig::default());
        let q = Point::new(2.0, 3.0);
        let before = d0.nonzero(q);
        let mut d1 = d0.clone();
        for id in 0..10 {
            d1.remove(id);
        }
        d1.insert(DiscreteUncertainPoint::certain(q));
        // The original still answers as before the clone diverged.
        assert_eq!(d0.nonzero(q), before);
        assert_eq!(d0.len(), 20);
        assert_eq!(d1.len(), 11);
        assert_matches_fresh(&d1, &[q]);
    }

    #[test]
    fn amortized_rebuild_cost_is_logarithmic() {
        let mut d = DynamicSet::new(DynamicConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        let n = 2048;
        for _ in 0..n {
            let p = Point::new(rng.gen_range(-25.0..25.0), rng.gen_range(-25.0..25.0));
            d.insert(DiscreteUncertainPoint::certain(p));
        }
        let s = d.stats();
        assert_eq!(s.live, n);
        assert_eq!(s.tombstones, 0, "pure inserts leave no tombstones");
        assert!(s.buckets <= (n as f64).log2() as usize + 2);
        let amortized = s.rebuild.amortized_rebuild_cost();
        // Bentley–Saxe: each of the 2048 inserts participates in ≤ log2(n)+1
        // rebuilds on average; leave generous headroom.
        assert!(
            amortized <= (n as f64).log2() + 2.0,
            "amortized rebuild cost {amortized} not logarithmic"
        );
        assert!(amortized >= 1.0);
    }

    #[test]
    fn steady_churn_keeps_the_entry_slab_bounded() {
        // Insert+remove churn on a constant-size live set: carries purge
        // tombstones out of buckets (so the dead-fraction trigger alone
        // would never fire), but the slab-growth trigger must still bound
        // the append-only entry slab and the structure's clone cost.
        let base = workload::random_discrete_set(64, 2, 4.0, 17);
        let mut d = DynamicSet::from_set(&base, DynamicConfig::default());
        let mut rng = StdRng::seed_from_u64(18);
        for round in 0..2000 {
            let p = Point::new(rng.gen_range(-25.0..25.0), rng.gen_range(-25.0..25.0));
            let id = d.insert(DiscreteUncertainPoint::certain(p));
            let ids = d.live_ids();
            let victim = ids[rng.gen_range(0..ids.len() - 1)]; // keep the new id sometimes
            d.remove(if round % 3 == 0 { id } else { victim });
        }
        let s = d.stats();
        assert_eq!(s.live, 64);
        assert!(
            s.slab_entries <= 2 * s.live + 32,
            "entry slab grew without bound: {} entries for {} live sites",
            s.slab_entries,
            s.live
        );
        assert!(s.rebuild.global_rebuilds > 0, "slab trigger never fired");
        assert_matches_fresh(&d, &workload::random_queries(2, 60.0, 19));
    }

    #[test]
    fn tombstone_pressure_triggers_global_rebuild() {
        let base = workload::random_discrete_set(64, 2, 4.0, 11);
        let mut d = DynamicSet::from_set(
            &base,
            DynamicConfig {
                max_dead_fraction: 0.2,
                min_dead_for_rebuild: 4,
            },
        );
        for id in 0..40 {
            d.remove(id);
        }
        let s = d.stats();
        assert!(s.rebuild.global_rebuilds > 0, "no compaction: {s:?}");
        // Compaction keeps the dead fraction bounded.
        assert!(
            (s.tombstones as f64) <= 0.2 * ((s.live + s.tombstones) as f64) + 1.0,
            "{s:?}"
        );
        assert_matches_fresh(&d, &workload::random_queries(3, 60.0, 12));
    }

    fn assert_slots_fit(d: &DynamicSet, when: &str) {
        for (k, n) in d.slot_sizes() {
            assert!(n <= 1 << k, "{when}: slot {k} holds {n} entries");
        }
    }

    /// Every path that places a bucket puts `n` entries at a slot `k` with
    /// `n ≤ 2^k`: the bulk load, the carries of a churn history (moves,
    /// removes and inserts in one batch) and a compaction.
    #[test]
    fn every_slot_fits_its_bucket() {
        let base = workload::random_discrete_set(5_000, 2, 5.0, 25);
        let mut d = DynamicSet::from_set(&base, DynamicConfig::default());
        assert_eq!(d.slot_sizes(), vec![(13, 5_000)]);
        let mut rng = StdRng::seed_from_u64(25);
        let site = |rng: &mut StdRng| {
            DiscreteUncertainPoint::certain(Point::new(
                rng.gen_range(-50.0..50.0),
                rng.gen_range(-50.0..50.0),
            ))
        };
        for round in 0..30 {
            let live = d.live_ids();
            let mut ups: Vec<Update> = (0..150)
                .map(|j| Update::Remove(live[(round * 131 + j * 37) % live.len()]))
                .collect();
            for j in 0..20 {
                let id = live[(round * 17 + j * 241 + 5) % live.len()];
                ups.push(Update::Move {
                    id,
                    to: site(&mut rng),
                });
            }
            ups.extend((0..100).map(|_| Update::Insert(site(&mut rng))));
            d.apply(&ups);
            assert_slots_fit(&d, &format!("churn round {round}"));
        }
        d.rebuild_all();
        assert_slots_fit(&d, "rebuild_all");
        assert_eq!(d.slot_sizes().len(), 1);
    }

    #[test]
    fn empty_and_singleton() {
        let mut d = DynamicSet::new(DynamicConfig::default());
        let q = Point::new(0.0, 0.0);
        assert!(d.nonzero(q).is_empty());
        assert!(oracle_quant(&d, q).is_empty());
        assert!(d.quantification_merged(q).is_empty());
        let id = d.insert(DiscreteUncertainPoint::certain(Point::new(3.0, 4.0)));
        assert_eq!(d.nonzero(q), vec![id]);
        assert_eq!(oracle_quant(&d, q), vec![(id, 1.0)]);
        assert_eq!(d.quantification_merged(q), vec![(id, 1.0)]);
        d.remove(id);
        assert!(d.nonzero(q).is_empty());
        assert!(d.is_empty());
    }

    /// Stage 1 is the brute two-smallest fold of `max_dist` over the live
    /// sites, bit for bit, at every bucket size: a unit-insert history
    /// leaves popcount(n) buckets down to a one-site one, each searched
    /// through its group tree. The sites include collinear and cocircular
    /// 3-4-5 lattice locations (at unit and 1e9 scale), which put integer
    /// queries at exact `Δ` ties and on hull edges.
    #[test]
    fn stage_one_matches_the_brute_fold_at_every_bucket_size() {
        const RING: [(f64, f64); 12] = [
            (3.0, 4.0),
            (4.0, 3.0),
            (5.0, 0.0),
            (4.0, -3.0),
            (3.0, -4.0),
            (0.0, -5.0),
            (-3.0, -4.0),
            (-4.0, -3.0),
            (-5.0, 0.0),
            (-4.0, 3.0),
            (-3.0, 4.0),
            (0.0, 5.0),
        ];
        let mut rng = StdRng::seed_from_u64(0x345);
        let mut d = DynamicSet::new(DynamicConfig::default());
        let n = 127;
        for i in 0..n {
            let c = Point::new(
                rng.gen_range(-6..=6i32) as f64,
                rng.gen_range(-6..=6i32) as f64,
            );
            let k = rng.gen_range(1..5usize);
            let scale = if i % 5 == 4 { 1e9 } else { 1.0 };
            let offsets: Vec<(f64, f64)> = match i % 3 {
                // Cocircular: k points of the radius-5 lattice ring.
                0 => {
                    let start = rng.gen_range(0..12usize);
                    (0..k).map(|j| RING[(start + 5 * j) % 12]).collect()
                }
                // Collinear: k lattice steps along a 3-4-5 direction.
                1 => {
                    let (dx, dy) = RING[rng.gen_range(0..12usize)];
                    (0..=k).map(|t| (t as f64 * dx, t as f64 * dy)).collect()
                }
                _ => (0..k)
                    .map(|_| (rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)))
                    .collect(),
            };
            let locs = offsets
                .into_iter()
                .map(|(dx, dy)| Point::new((c.x + dx) * scale, (c.y + dy) * scale))
                .collect();
            d.insert(DiscreteUncertainPoint::uniform(locs));
        }
        // Tombstones in every bucket but the one-site one (the last insert).
        for id in (0..n - 1).step_by(7) {
            assert!(d.remove(id));
        }
        assert_eq!(d.stats().buckets, n.count_ones() as usize);
        assert!(d.stats().tombstones > 0);
        assert!(
            d.buckets
                .iter()
                .flatten()
                .any(|s| s.bucket.entry_idxs.len() == 1),
            "a one-site bucket"
        );
        let (fresh, ids) = (d.live_set(), d.live_ids());
        let mut queries: Vec<Point> = (-10..=10)
            .flat_map(|x| (-10..=10).map(move |y| Point::new(x as f64, y as f64)))
            .collect();
        queries.extend(
            (0..300).map(|_| Point::new(rng.gen_range(-12.0..12.0), rng.gen_range(-12.0..12.0))),
        );
        let big: Vec<Point> = queries
            .iter()
            .map(|q| Point::new(q.x * 1e9, q.y * 1e9))
            .collect();
        queries.extend(big);
        let mut ties = 0;
        for q in queries {
            let mut got = TwoMin::EMPTY;
            d.fold_two_min(q, &mut got);
            let mut want = TwoMin::EMPTY;
            for (site, &id) in fresh.points.iter().zip(&ids) {
                want.offer(site.max_dist(q), id);
            }
            assert_eq!(got.d1.to_bits(), want.d1.to_bits(), "d1 at {q}");
            assert_eq!(got.d2.to_bits(), want.d2.to_bits(), "d2 at {q}");
            if want.d1 < want.d2 {
                assert_eq!(got.id1, want.id1, "witness at {q}");
            } else {
                // An exact tie at d1: the witness depends on the fold order
                // (see `TwoMin`), so any live site attaining d1 is correct.
                ties += 1;
                let site = d.get(got.id1).expect("witness is live");
                assert_eq!(
                    site.max_dist(q).to_bits(),
                    got.d1.to_bits(),
                    "witness at {q}"
                );
            }
        }
        assert!(ties > 0, "the lattice puts some queries at exact ties");
    }

    #[test]
    fn update_location_keeps_ids_stable() {
        let base = workload::random_discrete_set(8, 2, 4.0, 13);
        let mut d = DynamicSet::from_set(&base, DynamicConfig::default());
        let target = Point::new(100.0, 100.0);
        assert!(d.update_location(5, DiscreteUncertainPoint::certain(target)));
        assert_eq!(d.get(5).unwrap().locations(), &[target]);
        assert_eq!(d.len(), 8);
        // The moved site is now the only possible NN near its new home.
        assert_eq!(d.nonzero(Point::new(99.0, 99.0)), vec![5]);
        assert!(!d.update_location(99, DiscreteUncertainPoint::certain(target)));
    }
}
