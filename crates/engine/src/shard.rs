//! Partitioning: which shard of an [`Engine`] owns each site.
//!
//! Every [`Engine`] serves a vector of `S` shards, each a Bentley–Saxe
//! [`DynamicSet`] read through one [`ShardedReader`]. `S = 1` — the
//! default, and what the `serve` binary runs unless `UNC_ENGINE_SHARDS`
//! says otherwise — is the plain single-set engine; larger `S` only
//! changes *where* sites live, never an answer bit:
//!
//! * **reads scatter-gather, bit-identically**: both query families fold
//!   every (shard, bucket) into the global Lemma 2.1 pair `(d1, d2)` and
//!   collect every shard's live entries inside the Lemma 2.1 radius into
//!   one list; `NN≠0` filters it against the Lemma 2.1 bounds and
//!   quantification sorts it for one Eq. (2) sweep (see [`ShardedReader`]
//!   for the proofs). The differential suite in
//!   `tests/sharded_differential.rs` checks every answer against the
//!   core-library oracle at S ∈ {1, 3, 8};
//! * **applies copy only what they touch**: one writer lock serializes
//!   applies; each copies only the shards its updates land in (O(live/S)
//!   per touched shard instead of O(live)), mutating several shards in
//!   parallel on the worker pool;
//! * **epochs publish atomically**: each shard keeps its own epoch (bumped
//!   when an apply changes it) and every effective apply publishes one
//!   immutable snapshot carrying the whole epoch vector plus the publish
//!   *generation* ([`Engine::epoch`]) — a reader never observes some of a
//!   straddling batch's shards updated and others not
//!   (`tests/engine_epochs.rs` races this).
//!
//! [`Engine::shard_stats`] always reports `S` rows, one per shard.
//!
//! # Partitioning
//!
//! One partitioner places every site: a kd-split of the live site cloud
//! into `S` region-disjoint shards (median cuts on the wider axis, leaf
//! counts proportional to `S`), filed by each site's first location. Each
//! shard's [`DynamicSet::support_aabb`] then covers only its own region,
//! and the [`ShardedReader`]'s box pruning skips shards whose box lies
//! outside the query's certified disk — clustered queries touch `≪ S`
//! shards (experiment E33 measures the fan-out). Routing keeps a directory
//! of live ids. When churn skews the per-shard live counts past
//! [`EngineConfig::rebalance_ratio`], the apply that crossed the threshold
//! re-splits the cloud and migrates the straddling sites as a
//! remove+insert round — published **in the same generation** as the
//! user's batch, so no reader ever observes a site in zero or two shards.
//! At `S = 1` the split is a single leaf and nothing ever rebalances, so
//! every site routes to shard 0 with no special case.
//!
//! Every shard is bulk-loaded the same way, at every `S`: its slice of the
//! initial sites moves into one Bentley–Saxe bucket
//! ([`DynamicSet::from_sites`]), with no copy of a site.
//!
//! `UNC_ENGINE_SHARDS` and `UNC_ENGINE_REBALANCE` override the config at
//! construction, so they reach every engine — including the one the
//! network server fronts.
//!
//! [`ShardedReader`]: uncertain_nn::dynamic::shard::ShardedReader

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use uncertain_geom::Point;
use uncertain_nn::dynamic::{DynamicConfig, DynamicSet, SiteId, Update};
use uncertain_nn::model::{DiscreteSet, DiscreteUncertainPoint};

use crate::{Engine, EngineConfig};

/// The sharded engine is the [`Engine`]: `EngineConfig::shards` picks `S`.
/// The name stays for callers that spell out that they configure shards.
pub type ShardedEngine = Engine;

/// Environment override for the shard count (mirrors
/// [`THREADS_ENV`](crate::THREADS_ENV) for workers).
pub const SHARDS_ENV: &str = "UNC_ENGINE_SHARDS";

/// Environment override for [`EngineConfig::rebalance_ratio`] (`0` turns
/// rebalancing off).
pub const REBALANCE_ENV: &str = "UNC_ENGINE_REBALANCE";

/// Resolved shard count: `UNC_ENGINE_SHARDS` env > `requested` > 1; always
/// at least 1.
pub fn resolve_shards(requested: Option<usize>) -> usize {
    // An invalid value warns once on stderr (naming the variable and the
    // fallback) instead of silently misconfiguring the deployment.
    uncertain_obs::env_parse::<usize>(SHARDS_ENV, "the configured shard count")
        .or(requested)
        .unwrap_or(1)
        .max(1)
}

/// Resolved rebalance ratio: `UNC_ENGINE_REBALANCE` env > `requested`.
pub fn resolve_rebalance(requested: f64) -> f64 {
    uncertain_obs::env_parse::<f64>(REBALANCE_ENV, "the config rebalance ratio")
        .unwrap_or(requested)
}

/// How an [`Engine`] assigns sites to shards. There is one way, so the
/// type and [`EngineConfig::partitioner`] carry no choice; they stay
/// because the repository benchmark (`ladderbench/`) names them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PartitionerKind {
    /// kd-split of the live site cloud into region-disjoint shards.
    /// Clustered queries touch few shards; applies may trigger rebalancing
    /// migrations under skew.
    #[default]
    Spatial,
}

/// One site the rebalancer decided to move between shards.
struct Migration {
    id: SiteId,
    from: usize,
    to: usize,
}

/// One node of the spatial partitioner's kd-split. Interior nodes cut the
/// wider axis at a stored `(coordinate, site id)` pair; routing is strict
/// lexicographic comparison on `(key, id)`, so sites stacked on the cut
/// line still partition deterministically and every point routes to
/// exactly one leaf.
enum SplitNode {
    /// Shard index.
    Leaf(usize),
    Split {
        /// Cut on `x` (true) or `y` (false).
        vertical: bool,
        coord: f64,
        /// Tie-breaking id: a site goes low iff
        /// `key < coord || (key == coord && id <= this)`.
        id: SiteId,
        lo: Box<SplitNode>,
        hi: Box<SplitNode>,
    },
}

impl SplitNode {
    fn route(&self, id: SiteId, p: Point) -> usize {
        match self {
            SplitNode::Leaf(s) => *s,
            SplitNode::Split {
                vertical,
                coord,
                id: sid,
                lo,
                hi,
            } => {
                let key = if *vertical { p.x } else { p.y };
                if key < *coord || (key == *coord && id <= *sid) {
                    lo.route(id, p)
                } else {
                    hi.route(id, p)
                }
            }
        }
    }

    /// Builds a `leaves`-leaf split over `sites`, cutting the wider axis so
    /// the low side receives `⌊leaves/2⌋ / leaves` of the sites — leaf
    /// populations come out proportional, which is what clears the
    /// imbalance trigger after a rebalance. Leaves take shard indices in
    /// in-order position (`next_leaf`). An empty slice still produces the
    /// full leaf structure; its cuts route everything high (the sentinel
    /// `(−∞, 0)` compares below every real point).
    fn build(sites: &mut [(SiteId, Point)], leaves: usize, next_leaf: &mut usize) -> SplitNode {
        if leaves == 1 {
            let s = *next_leaf;
            *next_leaf += 1;
            return SplitNode::Leaf(s);
        }
        let lo_leaves = leaves / 2;
        let (mut xlo, mut xhi) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut ylo, mut yhi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(_, p) in sites.iter() {
            xlo = xlo.min(p.x);
            xhi = xhi.max(p.x);
            ylo = ylo.min(p.y);
            yhi = yhi.max(p.y);
        }
        let vertical = sites.is_empty() || (xhi - xlo) >= (yhi - ylo);
        let key = |p: Point| if vertical { p.x } else { p.y };
        sites.sort_unstable_by(|a, b| key(a.1).total_cmp(&key(b.1)).then(a.0.cmp(&b.0)));
        let cut = sites.len() * lo_leaves / leaves;
        let (coord, id) = if cut >= 1 {
            (key(sites[cut - 1].1), sites[cut - 1].0)
        } else {
            (f64::NEG_INFINITY, 0)
        };
        let (lo_sites, hi_sites) = sites.split_at_mut(cut);
        SplitNode::Split {
            vertical,
            coord,
            id,
            lo: Box::new(SplitNode::build(lo_sites, lo_leaves, next_leaf)),
            hi: Box::new(SplitNode::build(hi_sites, leaves - lo_leaves, next_leaf)),
        }
    }
}

/// The region-disjoint kd-split policy. Keeps an authoritative directory
/// of every live site's shard (exact because applies serialize on the
/// engine's writer lock) plus per-shard live counts for the imbalance
/// trigger. `route_*` is consulted once per update *before* dispatch,
/// under that lock.
struct SpatialPartitioner {
    shards: usize,
    /// Max/min live-count ratio past which [`needs_rebalance`] fires;
    /// `≤ 0` disables.
    ratio: f64,
    /// Below this many total live sites the trigger stays quiet — tiny
    /// clouds are trivially imbalanced and migrations would thrash.
    min_live: usize,
    tree: SplitNode,
    dir: HashMap<SiteId, usize>,
    counts: Vec<usize>,
}

impl SpatialPartitioner {
    /// Builds the split over the initial cloud (reordering it). The caller
    /// routes each initial site through [`route_insert`](Self::route_insert)
    /// to fill the directory (the same code path live inserts take).
    fn new(shards: usize, ratio: f64, cloud: &mut [(SiteId, Point)]) -> Self {
        let mut next_leaf = 0;
        let tree = SplitNode::build(cloud, shards, &mut next_leaf);
        SpatialPartitioner {
            shards,
            ratio,
            min_live: 16.max(4 * shards),
            tree,
            dir: HashMap::with_capacity(cloud.len()),
            counts: vec![0; shards],
        }
    }

    /// Shard for a new site `id` whose representative location is `rep`.
    fn route_insert(&mut self, id: SiteId, rep: Point) -> usize {
        let s = self.tree.route(id, rep);
        self.dir.insert(id, s);
        self.counts[s] += 1;
        s
    }
    /// Shard holding `id`, or `None` when the id is not live (counted as a
    /// miss without touching any shard).
    fn route_remove(&mut self, id: SiteId) -> Option<usize> {
        let s = self.dir.remove(&id)?;
        self.counts[s] -= 1;
        Some(s)
    }
    /// `(old shard, new shard)` for a move of `id` to `rep`; `None` = miss.
    /// When the two differ the caller rewrites the move as a remove on the
    /// old shard plus an insert (with the same id) on the new one.
    fn route_move(&mut self, id: SiteId, rep: Point) -> Option<(usize, usize)> {
        let from = *self.dir.get(&id)?;
        let to = self.tree.route(id, rep);
        if to != from {
            self.dir.insert(id, to);
            self.counts[from] -= 1;
            self.counts[to] += 1;
        }
        Some((from, to))
    }
    /// Whether the live-count imbalance warrants a rebalance now (never
    /// at one shard).
    fn needs_rebalance(&self) -> bool {
        if self.shards <= 1 || self.ratio <= 0.0 {
            return false;
        }
        let total: usize = self.counts.iter().sum();
        if total < self.min_live {
            return false;
        }
        let max = *self.counts.iter().max().expect("counts nonempty");
        let min = *self.counts.iter().min().expect("counts nonempty");
        max as f64 >= self.ratio * min.max(1) as f64
    }
    /// Recomputes the partition over the full live cloud and returns the
    /// sites whose shard changed. The directory is updated to the *new*
    /// assignment before returning — the caller must then execute every
    /// returned migration (remove at `from`, insert at `to`).
    fn plan_rebalance(&mut self, live: &[(SiteId, Point)]) -> Vec<Migration> {
        // Full re-split rather than an incremental boundary nudge: the
        // proportional cuts rebuild every leaf to ±1 of its fair share, so
        // the trigger clears in one round and cannot oscillate; the cost
        // is one O(n log n) sort tree plus only the *straddling* sites as
        // migrations (sites that stayed inside their region keep their
        // leaf because the in-order leaf numbering is stable).
        let mut sites = live.to_vec();
        let mut next_leaf = 0;
        let tree = SplitNode::build(&mut sites, self.shards, &mut next_leaf);
        let mut migs = vec![];
        let mut dir = HashMap::with_capacity(live.len());
        let mut counts = vec![0; self.shards];
        for &(id, p) in live {
            let to = tree.route(id, p);
            counts[to] += 1;
            dir.insert(id, to);
            let from = self.dir.get(&id).copied().unwrap_or(to);
            if from != to {
                migs.push(Migration { id, from, to });
            }
        }
        self.tree = tree;
        self.dir = dir;
        self.counts = counts;
        migs
    }
    /// Re-derives the directory from where the sites actually live
    /// (`shards`), after an apply that routed updates panicked before
    /// publishing them.
    fn resync(&mut self, shards: &[Arc<DynamicSet>]) {
        self.dir.clear();
        for (s, d) in shards.iter().enumerate() {
            self.dir.extend(d.live_ids().into_iter().map(|id| (id, s)));
            self.counts[s] = d.len();
        }
    }
}

/// The location the partitioner files a site under: its first support
/// location. Any deterministic representative works — partition geometry
/// affects only *where* a site lives (and hence pruning efficiency), never
/// answers, which the differential suite certifies bitwise.
fn rep_point(p: &DiscreteUncertainPoint) -> Point {
    p.locations()[0]
}

/// One shard's sub-batch: its updates plus the pre-assigned id of each of
/// its `Insert`s, in order. Updates the caller passed in are borrowed from
/// the caller's slice; only the ones routing synthesizes (the two halves
/// of a cross-shard move, rebalance migrations) are owned.
pub(crate) type Part<'a> = (Vec<Cow<'a, Update>>, Vec<SiteId>);

/// One apply's updates split by shard.
pub(crate) struct Routed<'a> {
    /// Index = shard.
    pub parts: Vec<Part<'a>>,
    /// Ids assigned to the `Insert` updates, in update order.
    pub inserted: Vec<SiteId>,
    /// Updates the router already knew to be dead.
    pub missed: usize,
    /// Moves rewritten as a remove plus a same-id insert on another shard.
    pub cross_moved: usize,
}

/// The writer state behind the engine's writer lock: the partitioner and
/// the global id allocator (inserts claim ids here *before* partitioning,
/// so every id maps to exactly one shard between rebalances).
pub(crate) struct Router {
    /// Boxed so that an [`Engine`], which callers hold by value, stays a
    /// few words wide.
    partitioner: Box<SpatialPartitioner>,
    next_id: SiteId,
    /// Rebalance rounds executed since construction.
    pub rebalances: u64,
}

impl Router {
    /// Partitions the initial sites (stable ids `0..n` in input order)
    /// through the same routing path live inserts take and bulk-loads each
    /// shard's slice, moved and under its global ids, as one bucket
    /// ([`DynamicSet::from_sites`]). `config` must already be resolved
    /// ([`resolve_shards`] & co. ran).
    pub(crate) fn load(set: DiscreteSet, config: &EngineConfig) -> (Router, Vec<Arc<DynamicSet>>) {
        let shards = config.shards.expect("resolved shard count");
        let mut cloud: Vec<(SiteId, Point)> = set
            .points
            .iter()
            .enumerate()
            .map(|(id, p)| (id, rep_point(p)))
            .collect();
        let mut partitioner = SpatialPartitioner::new(shards, config.rebalance_ratio, &mut cloud);
        let homes: Vec<usize> = set
            .points
            .iter()
            .enumerate()
            .map(|(id, p)| partitioner.route_insert(id, rep_point(p)))
            .collect();
        let mut parts: Vec<(Vec<SiteId>, Vec<DiscreteUncertainPoint>)> = partitioner
            .counts
            .iter()
            .map(|&c| (Vec::with_capacity(c), Vec::with_capacity(c)))
            .collect();
        let next_id = set.len();
        for ((id, p), s) in set.points.into_iter().enumerate().zip(homes) {
            parts[s].0.push(id);
            parts[s].1.push(p);
        }
        let sets = parts
            .into_iter()
            .map(|(ids, sites)| {
                Arc::new(DynamicSet::from_sites(ids, sites, DynamicConfig::default()))
            })
            .collect();
        let router = Router {
            partitioner: Box::new(partitioner),
            next_id,
            rebalances: 0,
        };
        (router, sets)
    }

    /// Splits `updates` into per-shard sub-batches, claiming insert ids in
    /// update order. A move the partitioner sends across shards becomes a
    /// remove on the old shard plus an insert (same id) on the new one.
    pub(crate) fn route<'a>(&mut self, updates: &'a [Update], shards: usize) -> Routed<'a> {
        let mut r = Routed {
            parts: vec![Part::default(); shards],
            inserted: vec![],
            missed: 0,
            cross_moved: 0,
        };
        for u in updates {
            match u {
                Update::Insert(p) => {
                    let id = self.next_id;
                    self.next_id += 1;
                    let (ups, ids) = &mut r.parts[self.partitioner.route_insert(id, rep_point(p))];
                    ups.push(Cow::Borrowed(u));
                    ids.push(id);
                    r.inserted.push(id);
                }
                Update::Remove(id) => match self.partitioner.route_remove(*id) {
                    Some(s) => r.parts[s].0.push(Cow::Borrowed(u)),
                    None => r.missed += 1,
                },
                Update::Move { id, to } => match self.partitioner.route_move(*id, rep_point(to)) {
                    Some((from, dest)) if from == dest => r.parts[from].0.push(Cow::Borrowed(u)),
                    Some((from, dest)) => {
                        r.cross_moved += 1;
                        r.parts[from].0.push(Cow::Owned(Update::Remove(*id)));
                        let (ups, ids) = &mut r.parts[dest];
                        ups.push(Cow::Owned(Update::Insert(to.clone())));
                        ids.push(*id);
                    }
                    None => r.missed += 1,
                },
            }
        }
        r
    }

    /// Re-derives the partitioner's directory from the published `shards`
    /// (see [`SpatialPartitioner::resync`]). Ids the failed apply claimed stay
    /// claimed: they were never published, so skipping them is harmless.
    pub(crate) fn resync(&mut self, shards: &[Arc<DynamicSet>]) {
        self.partitioner.resync(shards);
    }

    /// The migration round a rebalance runs now over `shards` (the state
    /// after this apply's user sub-batches), as per-shard sub-batches —
    /// remove at the old home, insert under the same id at the new one;
    /// `None` when the partition is balanced or the re-split moves nothing.
    pub(crate) fn rebalance(
        &mut self,
        shards: &[Arc<DynamicSet>],
    ) -> Option<Vec<(usize, Part<'static>)>> {
        if !self.partitioner.needs_rebalance() {
            return None;
        }
        let _span = uncertain_obs::span!("shard.rebalance");
        let mut live: Vec<(SiteId, Point)> = vec![];
        for d in shards {
            for id in d.live_ids() {
                live.push((id, rep_point(d.get(id).expect("live id resolves"))));
            }
        }
        live.sort_unstable_by_key(|&(id, _)| id);
        let migs = self.partitioner.plan_rebalance(&live);
        if migs.is_empty() {
            return None;
        }
        self.rebalances += 1;
        uncertain_obs::counter!("shard.rebalance.count").inc();
        uncertain_obs::counter!("shard.rebalance.migrated").add(migs.len() as u64);
        // Payloads are read from the pre-migration shards, before any
        // migration batch tombstones a site at its old home.
        let mut parts: Vec<Part> = vec![Part::default(); shards.len()];
        for m in &migs {
            let site = shards[m.from]
                .get(m.id)
                .expect("migrating site is live at its old shard");
            parts[m.from].0.push(Cow::Owned(Update::Remove(m.id)));
            parts[m.to].0.push(Cow::Owned(Update::Insert(site.clone())));
            parts[m.to].1.push(m.id);
        }
        Some(
            parts
                .into_iter()
                .enumerate()
                .filter(|(_, p)| !p.0.is_empty())
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::assert_oracle;
    use crate::{QueryRequest, QueryResult};
    use uncertain_nn::workload;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn sharded_engine_is_send_sync() {
        assert_send_sync::<ShardedEngine>();
    }

    fn config(shards: usize) -> EngineConfig {
        EngineConfig {
            shards: Some(shards),
            ..EngineConfig::default()
        }
    }

    fn spatial_config(shards: usize, ratio: f64) -> EngineConfig {
        EngineConfig {
            shards: Some(shards),
            rebalance_ratio: ratio,
            ..EngineConfig::default()
        }
    }

    fn mixed_batch(queries: &[Point]) -> Vec<QueryRequest> {
        let mut batch = vec![];
        for &q in queries {
            batch.push(QueryRequest::Nonzero { q });
            batch.push(QueryRequest::Threshold { q, tau: 0.2 });
            batch.push(QueryRequest::TopK { q, k: 4 });
        }
        batch
    }

    /// Serves `batch` before and after `updates` at S ∈ {1, 3, 8} and checks
    /// every answer bit for bit against the core-library oracle, plus the
    /// apply report against what the updates must do to `set`.
    fn assert_shard_counts_match_oracle(
        set: &DiscreteSet,
        updates: &[Update],
        cfg: impl Fn(usize) -> EngineConfig,
    ) {
        let batch = mixed_batch(&workload::random_queries(12, 60.0, 13));
        for shards in [1, 3, 8] {
            let eng = Engine::new(set.clone(), cfg(shards));
            assert_eq!(eng.num_shards(), shards);
            assert_oracle(&eng, &batch, &eng.run_batch(&batch).results);
            let report = eng.apply(updates);
            assert_eq!(report.inserted, vec![set.len(), set.len() + 1]);
            assert_eq!((report.removed, report.moved), (2, 1));
            assert_eq!(report.missed, 1);
            assert_eq!(report.live, set.len() + 2 - 2);
            let resp = eng.run_batch(&batch);
            assert_oracle(&eng, &batch, &resp.results);
            // Per-shard serving state is reported for every shard.
            assert_eq!(resp.stats.shard_stats.len(), shards);
            assert_eq!(
                resp.stats.shard_stats.iter().map(|s| s.live).sum::<usize>(),
                report.live
            );
        }
    }

    fn straddling_updates() -> Vec<Update> {
        vec![
            Update::Remove(3),
            Update::Insert(DiscreteUncertainPoint::certain(Point::new(0.5, -0.25))),
            Update::Remove(41),
            // A long-haul move — under spatial partitioning almost
            // certainly cross-region, exercising the remove+insert rewrite
            // and the report re-fold.
            Update::Move {
                id: 17,
                to: DiscreteUncertainPoint::certain(Point::new(-40.0, 35.0)),
            },
            Update::Remove(999), // miss
            Update::Insert(DiscreteUncertainPoint::certain(Point::new(9.0, 9.0))),
        ]
    }

    /// The headline guarantee, in-crate: answers equal the core-library
    /// oracle bit for bit at several shard counts, before and after
    /// shard-straddling updates. (`tests/sharded_differential.rs` runs the
    /// randomized-op-sequence version of this.)
    #[test]
    fn sharded_answers_are_bit_identical_to_monolithic() {
        let set = workload::random_discrete_set(80, 3, 6.0, 11);
        assert_shard_counts_match_oracle(&set, &straddling_updates(), config);
    }

    /// The same bit-identity with rebalancing off (a static split).
    #[test]
    fn spatial_answers_are_bit_identical_to_monolithic() {
        let set = workload::random_discrete_set(80, 3, 6.0, 11);
        assert_shard_counts_match_oracle(&set, &straddling_updates(), |s| spatial_config(s, 0.0));
    }

    /// The bulk load places each shard's slice where a carry would: slot
    /// `k` holds at most `2^k` entries, at one shard and at several.
    #[test]
    fn bulk_load_keeps_every_slot_within_its_size() {
        let set = workload::random_discrete_set(5_000, 2, 6.0, 25);
        for shards in [1, 4] {
            let eng = Engine::new(set.clone(), config(shards));
            for (s, d) in eng.snapshot().reader.shards().iter().enumerate() {
                let slots = d.slot_sizes();
                assert_eq!(slots.len(), 1, "S={shards} shard {s}: one bucket");
                for (k, n) in slots {
                    assert!(n <= 1 << k, "S={shards} shard {s}: slot {k} holds {n}");
                }
            }
        }
    }

    /// Skewed churn under spatial partitioning triggers a rebalance whose
    /// migrations (a) restore the balance, (b) keep every site in exactly
    /// one shard, and (c) leave answers bit-identical to the oracle.
    #[test]
    fn spatial_rebalance_triggers_and_stays_bit_identical() {
        let set = workload::random_discrete_set(60, 3, 6.0, 21);
        let eng = Engine::new(set, spatial_config(4, 2.0));
        let migrated = uncertain_obs::registry().counter("shard.rebalance.migrated");
        let migrated_before = migrated.get();

        // Pile new sites into one far corner: the corner shard's count
        // balloons past 2× the min.
        let skew: Vec<Update> = (0..120)
            .map(|i| {
                let t = i as f64 * 0.37;
                Update::Insert(DiscreteUncertainPoint::certain(Point::new(
                    200.0 + t.cos(),
                    200.0 + t.sin(),
                )))
            })
            .collect();
        let (_, epochs_before) = eng.shard_epochs();
        let report = eng.apply(&skew);
        assert!(
            eng.rebalances() >= 1,
            "skewed churn must trigger a rebalance"
        );
        assert!(migrated.get() > migrated_before);
        // User batch and migrations published as one generation.
        assert_eq!(report.epoch, 1);
        let (_, epochs) = eng.shard_epochs();
        assert!(epochs.iter().zip(&epochs_before).all(|(a, b)| a - b <= 1));

        // Single ownership: every live id in exactly one shard's census.
        let census = eng.shard_census();
        let mut seen = std::collections::HashMap::new();
        for (s, ids) in census.iter().enumerate() {
            for &id in ids {
                assert!(
                    seen.insert(id, s).is_none(),
                    "site {id} owned by two shards"
                );
            }
        }
        assert_eq!(seen.len(), report.live);

        // Balance restored: the trigger is quiet again.
        let counts: Vec<usize> = census.iter().map(|v| v.len()).collect();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            (max as f64) < 2.0 * (min.max(1) as f64),
            "rebalance left counts {counts:?}"
        );

        // And the answers still match the oracle bitwise.
        let batch = mixed_batch(&workload::random_queries(10, 220.0, 23));
        assert_oracle(&eng, &batch, &eng.run_batch(&batch).results);
    }

    /// Clustered queries against region-disjoint shards touch fewer than
    /// all shards; the batch stats expose the observed fan-out.
    #[test]
    fn spatial_partitioning_prunes_the_scatter_gather() {
        // Four well-separated clusters of 15 sites each.
        let mut pts = vec![];
        for (cx, cy) in [
            (-120.0, -120.0),
            (120.0, -120.0),
            (-120.0, 120.0),
            (120.0, 120.0),
        ] {
            for i in 0..15 {
                let t = i as f64 * 0.7;
                pts.push(DiscreteUncertainPoint::uniform(vec![
                    Point::new(cx + t.cos(), cy + t.sin()),
                    Point::new(cx + 2.0 * t.sin(), cy - t.cos()),
                ]));
            }
        }
        let set = DiscreteSet::new(pts);
        // cache off so every read executes (and is counted).
        let mut cfg = spatial_config(4, 0.0);
        cfg.cache_capacity = 0;
        let eng = Engine::new(set, cfg);

        // All-quantification batch: NN≠0 reads scatter and prune the same
        // way, but two merged-quant reads per query point keep the counted
        // reads at exactly four.
        let batch: Vec<QueryRequest> = [(-120.0, -120.0), (120.0, 120.0)]
            .iter()
            .flat_map(|&(x, y)| {
                let q = Point::new(x, y);
                [
                    QueryRequest::Threshold { q, tau: 0.2 },
                    QueryRequest::TopK { q, k: 3 },
                ]
            })
            .collect();
        let stats = eng.run_batch(&batch).stats;
        assert_eq!(stats.shard_reads, 4, "cache-off reads are all counted");
        let avg = stats.avg_shards_touched();
        assert!(
            (1.0..4.0).contains(&avg),
            "cluster-center queries must touch fewer than all 4 shards, got {avg}"
        );
    }

    /// An apply that panics after routing publishes nothing, and the next
    /// apply re-derives the spatial directory from the published shards:
    /// a site whose cross-shard move the failed apply routed is still
    /// where the directory says, so a later remove removes it.
    #[test]
    fn panicked_apply_leaves_the_spatial_directory_consistent() {
        let set = workload::random_discrete_set(60, 3, 6.0, 5);
        let eng = Engine::new(set, spatial_config(3, 0.0));
        // Shard 0 is the low side of the first cut; a far high point routes
        // elsewhere, so this move crosses shards.
        let victim = eng.shard_census()[0][0];
        let far = [Update::Move {
            id: victim,
            to: DiscreteUncertainPoint::certain(Point::new(1e3, 1e3)),
        }];
        // What a shard job panicking mid-apply leaves behind: the move is
        // routed under the writer lock, the lock is poisoned, and nothing
        // is published.
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut router = crate::lock_ok(&eng.writer);
            assert_eq!(router.route(&far, 3).cross_moved, 1);
            panic!("a shard apply job panicked");
        }));
        assert!(failed.is_err() && eng.writer.is_poisoned());
        assert_eq!(eng.shard_epochs(), (0, vec![0; 3]), "nothing published");

        let report = eng.apply(&[Update::Remove(victim)]);
        assert_eq!((report.removed, report.missed), (1, 0));
        assert!(!eng.writer.is_poisoned());
        assert!(!eng.site_ids().contains(&victim));
        let owned: usize = eng.shard_census().iter().map(Vec::len).sum();
        assert_eq!(owned, report.live);
        // The directory is whole again: moves keep landing too.
        let live = eng.site_ids()[0];
        let report = eng.apply(&[Update::Move {
            id: live,
            to: DiscreteUncertainPoint::certain(Point::new(-1e3, -1e3)),
        }]);
        assert_eq!((report.moved, report.missed), (1, 0));
        let batch = mixed_batch(&workload::random_queries(8, 6.0, 3));
        assert_oracle(&eng, &batch, &eng.run_batch(&batch).results);
    }

    #[test]
    fn straddling_apply_bumps_only_touched_shards_and_one_generation() {
        let set = workload::random_discrete_set(60, 3, 6.0, 7);
        let eng = Engine::new(set, config(4));
        let (g0, e0) = eng.shard_epochs();
        assert_eq!((g0, e0.as_slice()), (0, &[0u64; 4][..]));

        // Remove two sites, wherever they live.
        let census = eng.shard_census();
        let home = |id: SiteId| census.iter().position(|ids| ids.contains(&id)).unwrap();
        let touched = [home(0), home(1)];
        let report = eng.apply(&[Update::Remove(0), Update::Remove(1)]);
        assert_eq!(report.epoch, 1);
        let (g1, e1) = eng.shard_epochs();
        assert_eq!(g1, 1);
        for (s, &epoch) in e1.iter().enumerate() {
            assert_eq!(epoch, u64::from(touched.contains(&s)), "shard {s}");
        }
        // The batch stats carry the same vector.
        let stats = eng
            .run_batch(&[QueryRequest::Nonzero {
                q: Point::new(0.0, 0.0),
            }])
            .stats;
        assert_eq!(stats.epoch, 1);
        let rows: Vec<u64> = stats.shard_stats.iter().map(|s| s.epoch).collect();
        assert_eq!(rows, e1);
    }

    #[test]
    fn noop_apply_keeps_generation_and_cache() {
        let set = workload::random_discrete_set(40, 3, 6.0, 5);
        let eng = Engine::new(set, config(3));
        let q = Point::new(1.0, 1.0);
        let batch = [QueryRequest::Nonzero { q }];
        eng.run_batch(&batch);
        let cached = eng.cache_len();
        assert!(cached > 0);
        // Every update misses: dead/unknown ids only.
        let report = eng.apply(&[Update::Remove(999), Update::Remove(777)]);
        assert_eq!(report.epoch, 0);
        assert_eq!(report.missed, 2);
        assert_eq!(eng.shard_epochs(), (0, vec![0; 3]));
        let resp = eng.run_batch(&batch);
        assert_eq!(resp.stats.cache_hits, 1);
        assert_eq!(eng.cache_len(), cached);
    }

    #[test]
    fn display_prints_fixed_columns_and_per_shard_summaries() {
        let q = Point::new(0.0, 0.0);
        for shards in [1, 3] {
            let set = workload::random_discrete_set(30, 3, 6.0, 3);
            let eng = Engine::new(set, config(shards));
            let line = eng
                .run_batch(&[QueryRequest::Nonzero { q }])
                .stats
                .to_string();
            // All columns present even when zero, plus one token per shard.
            for needle in ["epoch=0", "tomb=0", "shard0=0/"] {
                assert!(line.contains(needle), "missing {needle:?} in {line:?}");
            }
            for s in 0..4 {
                let token = format!(" shard{s}=");
                assert_eq!(line.contains(&token), s < shards, "{token:?} in {line:?}");
            }
        }
    }

    #[test]
    fn display_aggregates_per_shard_tokens_past_eight_shards() {
        let set = workload::random_discrete_set(40, 2, 6.0, 9);
        let eng = Engine::new(set, config(9));
        let stats = eng
            .run_batch(&[QueryRequest::Nonzero {
                q: Point::new(0.0, 0.0),
            }])
            .stats;
        let line = stats.to_string();
        assert!(
            line.contains(" shards=9 lo=") && line.contains(" med=") && line.contains(" hi="),
            "{line:?}"
        );
        assert!(!line.contains("shard0="), "{line:?}");
    }

    #[test]
    fn resolve_shards_prefers_requested_and_floors_at_one() {
        // Can't touch the env var here (tests run concurrently), but the
        // non-env precedence is deterministic.
        if std::env::var(SHARDS_ENV).is_err() {
            assert_eq!(resolve_shards(Some(7)), 7);
            assert_eq!(resolve_shards(Some(0)), 1);
            assert_eq!(resolve_shards(None), 1, "the default engine is one shard");
            assert_eq!(
                Engine::new(DiscreteSet::default(), EngineConfig::default()).num_shards(),
                1
            );
        }
    }

    #[test]
    fn resolve_rebalance_prefers_config() {
        if std::env::var(REBALANCE_ENV).is_err() {
            assert_eq!(resolve_rebalance(3.5), 3.5);
        }
    }

    fn assert_empty_engine_serves_and_grows(cfg: EngineConfig) {
        let eng = Engine::new(DiscreteSet::new(vec![]), cfg);
        assert!(eng.site_ids().is_empty());
        let q = Point::new(0.0, 0.0);
        let resp = eng.run_batch(&mixed_batch(&[q]));
        assert_eq!(resp.results[0], QueryResult::Nonzero(vec![]));
        let report = eng.apply(&[Update::Insert(DiscreteUncertainPoint::certain(q))]);
        assert_eq!(report.inserted, vec![0]);
        assert_eq!(report.live, 1);
        let resp = eng.run_batch(&mixed_batch(&[q]));
        assert_eq!(resp.results[0], QueryResult::Nonzero(vec![0]));
    }

    #[test]
    fn empty_engine_serves_and_grows() {
        assert_empty_engine_serves_and_grows(config(3));
    }

    #[test]
    fn empty_spatial_engine_serves_and_grows() {
        assert_empty_engine_serves_and_grows(spatial_config(3, 2.0));
    }
}
