//! [`ShardedEngine`]: the multi-writer serving engine.
//!
//! The monolithic [`Engine`](crate::Engine) funnels every mutation through
//! one `DynamicSet` writer: concurrent `apply` calls serialize, and each
//! effective apply clones the whole structure (O(live) entries + handle
//! map) before publishing. This module partitions the site universe across
//! `S` independent shards, each shard owning its own Bentley–Saxe
//! [`DynamicSet`] behind its own writer mutex:
//!
//! * **applies to disjoint shards commit concurrently** — sub-batches run
//!   in parallel on the worker pool, each under only its shard's writer
//!   lock, and an apply clones only the shards it touched (O(live/S) per
//!   touched shard instead of O(live) for the whole set);
//! * **reads scatter-gather, bit-identically**: `NN≠0` folds per-shard
//!   two-min-Δ triples into the global Lemma 2.1 threshold exactly as
//!   per-bucket merging does within one set, quantification k-way-merges
//!   per-shard `SweepSource` streams into one Eq. (2) sweep, and
//!   expected-NN folds per-shard branch-and-bound minima (see
//!   [`ShardedReader`] for the proofs). Answers are **bit-identical** to
//!   the monolithic engine at every shard count — the differential suite
//!   in `tests/sharded_differential.rs` enforces this at S ∈ {1, 3, 8};
//! * **epoch vectors publish atomically**: each shard keeps its own epoch
//!   (bumped only when an apply touches it), and every apply publishes one
//!   immutable [`ShardedCore`] snapshot carrying the whole epoch vector
//!   plus a monotone publish *generation* — in-flight readers keep the
//!   snapshot they started on, and a reader can never observe some of a
//!   straddling batch's shards updated and others not
//!   (`tests/engine_epochs.rs` races this).
//!
//! # Partitioning
//!
//! *Which* shard owns a site is the [`Partitioner`]'s decision:
//!
//! * [`PartitionerKind::Hash`] (the default) assigns by a multiplicative
//!   hash of the stable [`SiteId`] ([`shard_of`]). Routing is stateless, so
//!   concurrent applies overlap fully — but sites land without regard to
//!   geometry, every shard's support box covers the whole cloud, and every
//!   query fans out to all `S` shards.
//! * [`PartitionerKind::Spatial`] kd-splits the live site cloud into `S`
//!   region-disjoint shards (median cuts on the wider axis, leaf counts
//!   proportional to `S`). Each shard's [`DynamicSet::support_aabb`] then
//!   covers only its own region, and the [`ShardedReader`]'s box pruning
//!   skips shards whose box lies outside the query's certified disk —
//!   clustered queries touch `≪ S` shards (experiment E33 measures the
//!   fan-out). The price: routing is stateful (a directory of live ids),
//!   so spatial applies serialize on the partitioner lock. When churn
//!   skews the per-shard live counts past
//!   [`EngineConfig::rebalance_ratio`], the apply that crossed the
//!   threshold re-splits the cloud and migrates the straddling sites as a
//!   normal remove+insert round — published **atomically in the same
//!   generation** as the user's batch, so no reader ever observes a site
//!   in zero or two shards (`tests/engine_epochs.rs` races a census over
//!   this).
//!
//! Cache keys are stamped with the generation (which advances exactly when
//! the shard-epoch vector changes), so stale entries become unreachable
//! without a flush — the same trick the monolithic engine plays with its
//! scalar epoch.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::{Duration, Instant};

use uncertain_geom::predicates::predicate_stats;
use uncertain_geom::Point;
pub use uncertain_nn::dynamic::shard::shard_of;
use uncertain_nn::dynamic::shard::ShardedReader;
use uncertain_nn::dynamic::{DynamicSet, RebuildStats, SiteId, Update, UpdateOutcome};
use uncertain_nn::model::{DiscreteSet, DiscreteUncertainPoint};
use uncertain_nn::nonzero::nonzero_nn_discrete;
use uncertain_nn::quantification::exact::quantification_discrete;
use uncertain_nn::queries::Guarantee;
use uncertain_spatial::soa::kernel_stats;

use crate::cache::{CacheKey, CachedValue, QuantTag, ResultCache};
use crate::planner::{self, NonzeroPlan, PlannerInputs, QuantPlan};
use crate::pool::{resolve_threads, ThreadPool};
use crate::{
    snap, snap_center, snap_radius, BatchCounters, BatchPlan, BatchResponse, EngineConfig,
    ExecStats, QueryRequest, QueryResult, ShardStat,
};

/// Environment override for the shard count (mirrors
/// [`THREADS_ENV`](crate::THREADS_ENV) for workers).
pub const SHARDS_ENV: &str = "UNC_ENGINE_SHARDS";

/// Environment override for [`EngineConfig::partitioner`]: `hash` or
/// `spatial` (case-insensitive). Invalid values warn on stderr and fall
/// back to the config value.
pub const PARTITIONER_ENV: &str = "UNC_ENGINE_PARTITIONER";

/// Environment override for [`EngineConfig::rebalance_ratio`] (`0` turns
/// rebalancing off).
pub const REBALANCE_ENV: &str = "UNC_ENGINE_REBALANCE";

/// Resolved shard count: `UNC_ENGINE_SHARDS` env > `requested` > detected
/// parallelism; always at least 1.
pub fn resolve_shards(requested: Option<usize>) -> usize {
    // An invalid value warns once on stderr (naming the variable and the
    // fallback) instead of silently misconfiguring the deployment.
    if let Some(n) =
        uncertain_obs::env_parse::<usize>(SHARDS_ENV, "the config/detected shard count")
    {
        return n.max(1);
    }
    requested
        .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
        .unwrap_or(1)
        .max(1)
}

/// Resolved partitioner: `UNC_ENGINE_PARTITIONER` env > `requested`.
pub fn resolve_partitioner(requested: PartitionerKind) -> PartitionerKind {
    match std::env::var(PARTITIONER_ENV) {
        Ok(v) => match v.to_ascii_lowercase().as_str() {
            "hash" => PartitionerKind::Hash,
            "spatial" => PartitionerKind::Spatial,
            _ => {
                eprintln!(
                    "warning: invalid {PARTITIONER_ENV}={v:?} (expected \"hash\" or \
                     \"spatial\"); using the configured partitioner"
                );
                requested
            }
        },
        Err(_) => requested,
    }
}

/// Resolved rebalance ratio: `UNC_ENGINE_REBALANCE` env > `requested`.
pub fn resolve_rebalance(requested: f64) -> f64 {
    uncertain_obs::env_parse::<f64>(REBALANCE_ENV, "the config rebalance ratio")
        .unwrap_or(requested)
}

/// How a [`ShardedEngine`] assigns sites to shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PartitionerKind {
    /// Stable-id multiplicative hash ([`shard_of`]). Stateless routing,
    /// fully concurrent applies, no read-side pruning (every shard's
    /// support box covers the whole cloud).
    #[default]
    Hash,
    /// kd-split of the live site cloud into region-disjoint shards.
    /// Clustered queries touch few shards; applies serialize and may
    /// trigger rebalancing migrations under skew.
    Spatial,
}

/// One site the rebalancer decided to move between shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Migration {
    pub id: SiteId,
    pub from: usize,
    pub to: usize,
}

/// The shard-assignment policy. `route_*` is consulted once per update
/// *before* dispatch; a stateful implementation (spatial) mirrors site
/// liveness in its own directory, which stays exact because such
/// implementations also demand whole-apply serialization
/// ([`Partitioner::serialize_applies`]).
pub trait Partitioner: Send {
    fn kind(&self) -> PartitionerKind;
    fn num_shards(&self) -> usize;
    /// Shard for a new site `id` whose representative location is `rep`.
    fn route_insert(&mut self, id: SiteId, rep: Point) -> usize;
    /// Shard holding `id`, or `None` when the router already knows the id
    /// is dead (counted as a miss without touching any shard). A stateless
    /// router returns `Some` unconditionally and lets the shard decide.
    fn route_remove(&mut self, id: SiteId) -> Option<usize>;
    /// `(old shard, new shard)` for a move of `id` to `rep`; `None` = miss.
    /// When the two differ the caller rewrites the move as a remove on the
    /// old shard plus an insert (with the same id) on the new one.
    fn route_move(&mut self, id: SiteId, rep: Point) -> Option<(usize, usize)>;
    /// Whether `apply` must hold the partitioner lock end-to-end (routing
    /// through publication). Stateful routers require it so the directory,
    /// the shard masters, and the published snapshot can never disagree.
    fn serialize_applies(&self) -> bool;
    /// Whether the live-count imbalance warrants a rebalance now.
    fn needs_rebalance(&self) -> bool;
    /// Recomputes the partition over the full live cloud and returns the
    /// sites whose shard changed. The router's directory is updated to the
    /// *new* assignment before returning — the caller must then execute
    /// every returned migration (remove at `from`, insert at `to`).
    fn plan_rebalance(&mut self, live: &[(SiteId, Point)]) -> Vec<Migration>;
}

/// The stateless id-hash policy (PR 8 behavior, bit-compatible).
struct HashPartitioner {
    shards: usize,
}

impl Partitioner for HashPartitioner {
    fn kind(&self) -> PartitionerKind {
        PartitionerKind::Hash
    }
    fn num_shards(&self) -> usize {
        self.shards
    }
    fn route_insert(&mut self, id: SiteId, _rep: Point) -> usize {
        shard_of(id, self.shards)
    }
    fn route_remove(&mut self, id: SiteId) -> Option<usize> {
        Some(shard_of(id, self.shards))
    }
    fn route_move(&mut self, id: SiteId, _rep: Point) -> Option<(usize, usize)> {
        let s = shard_of(id, self.shards);
        Some((s, s))
    }
    fn serialize_applies(&self) -> bool {
        false
    }
    fn needs_rebalance(&self) -> bool {
        false
    }
    fn plan_rebalance(&mut self, _live: &[(SiteId, Point)]) -> Vec<Migration> {
        vec![]
    }
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
/// of every live site's shard (exact because spatial applies serialize on
/// the partitioner lock) plus per-shard live counts for the imbalance
/// trigger.
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
    /// Builds the split over the initial cloud. The caller routes each
    /// initial site through [`route_insert`](Partitioner::route_insert) to
    /// fill the directory (the same code path live inserts take).
    fn new(shards: usize, ratio: f64, cloud: &[(SiteId, Point)]) -> Self {
        let mut sites = cloud.to_vec();
        let mut next_leaf = 0;
        let tree = SplitNode::build(&mut sites, shards, &mut next_leaf);
        SpatialPartitioner {
            shards,
            ratio,
            min_live: 16.max(4 * shards),
            tree,
            dir: HashMap::new(),
            counts: vec![0; shards],
        }
    }
}

impl Partitioner for SpatialPartitioner {
    fn kind(&self) -> PartitionerKind {
        PartitionerKind::Spatial
    }
    fn num_shards(&self) -> usize {
        self.shards
    }
    fn route_insert(&mut self, id: SiteId, rep: Point) -> usize {
        let s = self.tree.route(id, rep);
        self.dir.insert(id, s);
        self.counts[s] += 1;
        s
    }
    fn route_remove(&mut self, id: SiteId) -> Option<usize> {
        let s = self.dir.remove(&id)?;
        self.counts[s] -= 1;
        Some(s)
    }
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
    fn serialize_applies(&self) -> bool {
        true
    }
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
}

/// The location the partitioner files a site under: its first support
/// location. Any deterministic representative works — partition geometry
/// affects only *where* a site lives (and hence pruning efficiency), never
/// answers, which the differential suite certifies bitwise.
fn rep_point(p: &DiscreteUncertainPoint) -> Point {
    p.locations()[0]
}

/// What one [`ShardedEngine::apply`] call did.
#[derive(Clone, Debug)]
pub struct ShardedApplyReport {
    /// The publish generation the new snapshot serves under (unchanged on
    /// a no-op apply). Monotone across applies; the cache-key "epoch".
    pub generation: u64,
    /// The full per-shard epoch vector after this apply — published
    /// atomically: a concurrent reader sees either all of this apply's
    /// shard epochs or none of them.
    pub shard_epochs: Vec<u64>,
    /// Shards whose epoch this apply bumped (including by a rebalance
    /// round it triggered), ascending.
    pub touched: Vec<usize>,
    /// Ids assigned to the `Insert` updates, in update order.
    pub inserted: Vec<SiteId>,
    pub removed: usize,
    pub moved: usize,
    /// `Remove`/`Move` updates whose id was unknown or already removed.
    pub missed: usize,
    /// Sites this apply's rebalance round migrated between shards (0 when
    /// no rebalance triggered).
    pub migrated: usize,
    /// Live sites across all shards after this apply.
    pub live: usize,
    /// Tombstones still buried across all shards after this apply.
    pub tombstones: usize,
    /// Bucket merges this apply triggered (summed over touched shards,
    /// including rebalance migrations).
    pub merges: u64,
    /// Global compacting rebuilds this apply triggered.
    pub global_rebuilds: u64,
    /// Σ bucket sizes rebuilt during this apply.
    pub sites_rebuilt: u64,
}

/// One shard's mutable master copy. Only `apply` touches it, under the
/// shard's own mutex; readers serve from the immutable snapshots in the
/// current [`ShardedCore`].
struct ShardWriter {
    set: DynamicSet,
    /// Bumped on every effective apply to this shard.
    epoch: u64,
}

/// One immutable snapshot: per-shard set snapshots (shared with in-flight
/// batches via `Arc`), the atomically-published epoch vector, and the
/// usual lazily-materialized flat views.
struct ShardedCore {
    /// Monotone publish counter — advances exactly when the shard-epoch
    /// vector changes, so it is a collision-free cache stamp for the whole
    /// vector.
    generation: u64,
    /// Per-shard epochs, index = shard. Readers observe this vector
    /// atomically (it is immutable within one core).
    epochs: Arc<Vec<u64>>,
    reader: ShardedReader,
    /// Live-site count across shards (cheap shape summary).
    n: usize,
    /// Flat union set / id map / planner shape, materialized lazily by the
    /// first consumer (applies must stay O(batch + carry), exactly like
    /// the monolithic core).
    set: OnceLock<DiscreteSet>,
    ids: OnceLock<Arc<Vec<SiteId>>>,
    shape: OnceLock<(usize, usize, f64)>,
    config: EngineConfig,
    /// Shared across generations; generation-stamped keys keep entries
    /// from crossing snapshots.
    cache: Arc<ResultCache>,
}

impl ShardedCore {
    /// The flat union set, densely indexed in ascending-id order.
    fn set(&self) -> &DiscreteSet {
        self.set.get_or_init(|| self.reader.live_set())
    }

    /// Dense index → stable site id, ascending.
    fn ids(&self) -> &Arc<Vec<SiteId>> {
        self.ids.get_or_init(|| Arc::new(self.reader.live_ids()))
    }

    /// `(total locations, max k, weight spread)` of the live union.
    fn shape(&self) -> (usize, usize, f64) {
        *self.shape.get_or_init(|| self.reader.live_shape())
    }

    /// Per-shard `(epoch, live, tombstones, warm rate)` rows for
    /// [`ExecStats`].
    fn shard_stats(&self) -> Vec<ShardStat> {
        self.reader
            .shards()
            .iter()
            .enumerate()
            .map(|(s, d)| {
                let (warm, cold) = d.quant_summary_state();
                ShardStat {
                    shard: s,
                    epoch: self.epochs[s],
                    live: d.len(),
                    tombstones: d.tombstones(),
                    quant_warm_rate: if warm + cold == 0 {
                        0.0
                    } else {
                        warm as f64 / (warm + cold) as f64
                    },
                }
            })
            .collect()
    }
}

/// The per-batch execution context. Sharded serving only ever runs the
/// partition-independent exact strategies (the planner gates the rest), so
/// there is nothing to lazily build and no `Arc`s to pin: workers read the
/// shared core.
#[derive(Clone, Copy)]
struct SPrepared {
    nonzero: Option<NonzeroPlan>,
    quant: Option<QuantPlan>,
}

/// The sharded serving engine. See the [module docs](self) for the
/// concurrency model, the partitioners, and the bit-identity guarantee.
pub struct ShardedEngine {
    /// Per-shard mutable masters. `Arc` so parallel sub-batch jobs on the
    /// pool can borrow them `'static`-ly.
    writers: Arc<Vec<Mutex<ShardWriter>>>,
    /// The current snapshot; readers clone the `Arc` and drop the lock.
    core: RwLock<Arc<ShardedCore>>,
    /// Serializes snapshot publication (not shard mutation): concurrent
    /// applies run their sub-batches in parallel and only queue here for
    /// the final read-modify-write of the core pointer.
    publish_lock: Mutex<()>,
    /// The shard-assignment policy. Hash routing takes this only for the
    /// routing loop; spatial routing holds it across the whole apply
    /// (dispatch + rebalance + publish) so its directory can never drift
    /// from the masters.
    partitioner: Mutex<Box<dyn Partitioner>>,
    pool: ThreadPool,
    /// Global id allocator: inserts claim ids here *before* partitioning,
    /// so concurrent applies never collide and every id maps to exactly
    /// one shard for its lifetime (between rebalances).
    next_id: AtomicUsize,
    /// Rebalance rounds executed since construction.
    rebalances: AtomicU64,
    /// Scatter-gather feedback for the planner: Σ shards actually visited
    /// and the number of such reads, across all batches. Their ratio is
    /// the expected per-query fan-out the gather cost term uses instead of
    /// the worst-case `S`.
    touched_sum: AtomicU64,
    touched_reads: AtomicU64,
}

/// What one shard's sub-batch did (sent back from pool workers).
struct ShardOutcome {
    shard: usize,
    outcome: UpdateOutcome,
    /// The shard's epoch after the sub-batch (bumped only if effective).
    epoch: u64,
    effective: bool,
    /// Immutable snapshot of the shard taken right after mutation — only
    /// present when effective (ineffective sub-batches change nothing, so
    /// the published snapshot stays valid).
    snap: Option<Arc<DynamicSet>>,
    live: usize,
    tombstones: usize,
    delta: RebuildStats,
}

/// Applies one shard's sub-batch under that shard's writer lock, inside a
/// shard-suffixed span (`engine.apply.shard3`).
fn apply_shard(
    writers: &[Mutex<ShardWriter>],
    shard: usize,
    updates: &[Update],
    insert_ids: &[SiteId],
) -> ShardOutcome {
    let _span = uncertain_obs::span_dyn(&format!("engine.apply.shard{shard}"));
    let mut w = crate::lock_ok(&writers[shard]);
    let before = w.set.stats().rebuild;
    // A fully-missed sub-batch leaves the structure untouched (missed
    // removes/moves mutate nothing, and there are no inserts), so running
    // it directly on the master is safe and needs no pre-check.
    let outcome = w.set.apply_with_insert_ids(updates, insert_ids);
    let effective = !(outcome.inserted.is_empty() && outcome.removed == 0 && outcome.moved == 0);
    let snap = if effective {
        w.epoch += 1;
        Some(Arc::new(w.set.clone()))
    } else {
        None
    };
    ShardOutcome {
        shard,
        epoch: w.epoch,
        effective,
        live: w.set.len(),
        tombstones: w.set.tombstones(),
        delta: w.set.stats().rebuild.since(&before),
        snap,
        outcome,
    }
}

impl ShardedEngine {
    /// Builds a sharded engine over `set`. Sites receive the stable ids
    /// `0..set.len()` in input order (identical to the monolithic engine)
    /// and land in the shard the resolved [`Partitioner`] routes them to;
    /// the shard count resolves via [`resolve_shards`] from
    /// `config.shards`, the partitioner via [`resolve_partitioner`] from
    /// `config.partitioner`.
    pub fn new(set: DiscreteSet, config: EngineConfig) -> Self {
        let shards = resolve_shards(config.shards);
        let threads = resolve_threads(config.threads);
        let n = set.len();
        let mut partitioner: Box<dyn Partitioner> = match resolve_partitioner(config.partitioner) {
            PartitionerKind::Hash => Box::new(HashPartitioner { shards }),
            PartitionerKind::Spatial => {
                let cloud: Vec<(SiteId, Point)> = set
                    .points
                    .iter()
                    .enumerate()
                    .map(|(id, p)| (id, rep_point(p)))
                    .collect();
                Box::new(SpatialPartitioner::new(
                    shards,
                    resolve_rebalance(config.rebalance_ratio),
                    &cloud,
                ))
            }
        };
        // Partition the initial sites through the same routing path live
        // inserts take (filling a spatial partitioner's directory); each
        // shard bulk-loads its slice in one batch (a single Bentley–Saxe
        // carry per shard).
        let mut parts: Vec<(Vec<Update>, Vec<SiteId>)> =
            (0..shards).map(|_| default_part()).collect();
        for (id, p) in set.points.iter().enumerate() {
            let (ups, ids) = &mut parts[partitioner.route_insert(id, rep_point(p))];
            ups.push(Update::Insert(p.clone()));
            ids.push(id);
        }
        let writers: Vec<Mutex<ShardWriter>> = parts
            .into_iter()
            .map(|(ups, ids)| {
                let mut d = DynamicSet::new(config.dynamic);
                d.apply_with_insert_ids(&ups, &ids);
                Mutex::new(ShardWriter { set: d, epoch: 0 })
            })
            .collect();
        let snaps: Vec<Arc<DynamicSet>> = writers
            .iter()
            .map(|w| Arc::new(crate::lock_ok(w).set.clone()))
            .collect();
        let spread = if set.is_empty() { 1.0 } else { set.spread() };
        let core = Arc::new(ShardedCore {
            generation: 0,
            epochs: Arc::new(vec![0; shards]),
            reader: ShardedReader::new(snaps),
            n,
            ids: OnceLock::from(Arc::new((0..n).collect())),
            shape: OnceLock::from((set.total_locations(), set.max_k(), spread)),
            cache: Arc::new(ResultCache::new(config.cache_capacity, config.cache_grid)),
            config,
            set: OnceLock::from(set),
        });
        ShardedEngine {
            writers: Arc::new(writers),
            core: RwLock::new(core),
            publish_lock: Mutex::new(()),
            partitioner: Mutex::new(partitioner),
            pool: ThreadPool::new(threads),
            next_id: AtomicUsize::new(n),
            rebalances: AtomicU64::new(0),
            touched_sum: AtomicU64::new(0),
            touched_reads: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> Arc<ShardedCore> {
        crate::read_ok(&self.core).clone()
    }

    /// Resolved shard count.
    pub fn num_shards(&self) -> usize {
        self.writers.len()
    }

    /// Resolved partitioner kind.
    pub fn partitioner_kind(&self) -> PartitionerKind {
        crate::lock_ok(&self.partitioner).kind()
    }

    /// Rebalance rounds executed since construction.
    pub fn rebalances(&self) -> u64 {
        self.rebalances.load(Ordering::Relaxed)
    }

    /// Resolved worker count.
    pub fn threads(&self) -> usize {
        self.pool.len()
    }

    /// The current publish generation (the sharded analog of
    /// [`Engine::epoch`](crate::Engine::epoch); 0 until the first
    /// effective apply).
    pub fn generation(&self) -> u64 {
        self.snapshot().generation
    }

    /// One atomic observation of `(generation, per-shard epoch vector)` —
    /// both read from the same immutable snapshot, never torn across a
    /// concurrent apply's publication.
    pub fn shard_epochs(&self) -> (u64, Vec<u64>) {
        let core = self.snapshot();
        (core.generation, core.epochs.as_ref().clone())
    }

    /// Per-shard `(epoch, live, tombstones, warm rate)` rows of the
    /// current snapshot.
    pub fn shard_stats(&self) -> Vec<ShardStat> {
        self.snapshot().shard_stats()
    }

    /// Per-shard live-id lists, all read from **one** published snapshot —
    /// the observable for the single-ownership invariant: every live site
    /// id appears in exactly one shard's list, in every snapshot, even
    /// while rebalance migrations race (`tests/engine_epochs.rs` asserts
    /// this from racing reader threads).
    pub fn shard_census(&self) -> Vec<Vec<SiteId>> {
        let core = self.snapshot();
        core.reader.shards().iter().map(|d| d.live_ids()).collect()
    }

    /// Live sites across all shards.
    pub fn len(&self) -> usize {
        self.snapshot().n
    }

    /// Whether no sites are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The surviving sites, densely in ascending-id order (the same view
    /// the monolithic engine serves).
    pub fn live_set(&self) -> DiscreteSet {
        self.snapshot().set().clone()
    }

    /// Stable ids of the live sites, ascending.
    pub fn site_ids(&self) -> Vec<SiteId> {
        self.snapshot().ids().as_ref().clone()
    }

    /// Current number of cached entries.
    pub fn cache_len(&self) -> usize {
        self.snapshot().cache.len()
    }

    /// Applies a batch of site updates and atomically publishes a new
    /// snapshot carrying the updated shard-epoch vector.
    ///
    /// The batch is partitioned by the configured [`Partitioner`] (inserts
    /// claim their id from the global allocator first, in update order); a
    /// move the router sends across shards is rewritten as a remove on the
    /// old shard plus an insert (same id) on the new one. Sub-batches for
    /// distinct shards run **concurrently** on the worker pool, each under
    /// only its shard's writer lock, and each effective sub-batch clones
    /// only its own shard (O(live/S)). Under `Hash`, concurrent `apply`
    /// calls proceed in parallel when they touch disjoint shards; under
    /// `Spatial` they serialize on the partitioner lock (the directory
    /// must mirror the masters exactly). Publication is a short
    /// read-modify-write of the core pointer with per-shard
    /// monotonic-epoch guards, so racing publications can interleave in
    /// any order without losing or reverting a shard.
    ///
    /// A spatial apply that pushes the live-count imbalance past the
    /// rebalance ratio additionally runs a migration round (remove+insert
    /// batches over the straddling sites) *before* publishing — the user's
    /// updates and the migrations land in **one** generation, so no
    /// reader-visible snapshot ever holds a site in zero or two shards.
    ///
    /// A no-op apply (empty batch, or every update missed, and no
    /// rebalance) returns the current generation and publishes nothing —
    /// warm cache entries survive, exactly like the monolithic engine.
    pub fn apply(&self, updates: &[Update]) -> ShardedApplyReport {
        let _span = uncertain_obs::span!("engine.apply");
        uncertain_obs::counter!("engine.apply.updates").add(updates.len() as u64);
        let shards = self.writers.len();
        let num_inserts = updates
            .iter()
            .filter(|u| matches!(u, Update::Insert(_)))
            .count();
        let base = self.next_id.fetch_add(num_inserts, Ordering::Relaxed);
        let mut parts: Vec<(Vec<Update>, Vec<SiteId>)> =
            (0..shards).map(|_| default_part()).collect();
        let mut routed_missed = 0usize;
        let mut cross_moved = 0usize;

        let mut router = crate::lock_ok(&self.partitioner);
        let mut next = base;
        for u in updates {
            match u {
                Update::Insert(p) => {
                    let id = next;
                    next += 1;
                    let (ups, ids) = &mut parts[router.route_insert(id, rep_point(p))];
                    ups.push(u.clone());
                    ids.push(id);
                }
                Update::Remove(id) => match router.route_remove(*id) {
                    Some(s) => parts[s].0.push(u.clone()),
                    // The router's directory already knows the id is dead:
                    // count the miss here without waking any shard.
                    None => routed_missed += 1,
                },
                Update::Move { id, to } => match router.route_move(*id, rep_point(to)) {
                    Some((from, dest)) if from == dest => parts[from].0.push(u.clone()),
                    Some((from, dest)) => {
                        // Cross-shard move: remove at the old home, insert
                        // (keeping the same stable id) at the new one. The
                        // shard masters see a remove + an insert; the
                        // user-visible report re-folds them into one move.
                        cross_moved += 1;
                        parts[from].0.push(Update::Remove(*id));
                        let (ups, ids) = &mut parts[dest];
                        ups.push(Update::Insert(to.clone()));
                        ids.push(*id);
                    }
                    None => routed_missed += 1,
                },
            }
        }
        // Hash routing is stateless — release the lock so disjoint applies
        // overlap (PR 8 behavior). A stateful router keeps the guard
        // through dispatch, rebalance, and publication.
        let mut router: Option<MutexGuard<'_, Box<dyn Partitioner>>> = if router.serialize_applies()
        {
            Some(router)
        } else {
            None
        };

        let touched: Vec<usize> = (0..shards).filter(|&s| !parts[s].0.is_empty()).collect();
        let results: Vec<ShardOutcome> = if touched.len() > 1 && self.pool.len() > 1 {
            let (tx, rx) = std::sync::mpsc::channel();
            for &s in &touched {
                let writers = Arc::clone(&self.writers);
                let (ups, ids) = std::mem::take(&mut parts[s]);
                let tx = tx.clone();
                self.pool.execute(move || {
                    let _ = tx.send(apply_shard(&writers, s, &ups, &ids));
                });
            }
            drop(tx);
            rx.iter().collect()
        } else {
            touched
                .iter()
                .map(|&s| {
                    let (ups, ids) = std::mem::take(&mut parts[s]);
                    apply_shard(&self.writers, s, &ups, &ids)
                })
                .collect()
        };

        let mut report = ShardedApplyReport {
            generation: 0,
            shard_epochs: vec![],
            touched: vec![],
            inserted: (base..next).collect(),
            removed: 0,
            moved: 0,
            missed: routed_missed,
            migrated: 0,
            live: 0,
            tombstones: 0,
            merges: 0,
            global_rebuilds: 0,
            sites_rebuilt: 0,
        };
        for r in &results {
            report.removed += r.outcome.removed;
            report.moved += r.outcome.moved;
            report.missed += r.outcome.missed;
            report.merges += r.delta.merges;
            report.global_rebuilds += r.delta.global_rebuilds;
            report.sites_rebuilt += r.delta.sites_rebuilt;
            if r.effective {
                report.touched.push(r.shard);
            }
        }
        // Re-fold cross-shard moves: each produced one remove (old shard)
        // and one same-id insert (new shard) at the masters, but to the
        // caller it is exactly one move.
        report.removed -= cross_moved;
        report.moved += cross_moved;

        // Rebalance round: if this apply pushed the live-count imbalance
        // past the ratio, re-split the cloud and migrate the straddling
        // sites now, while still holding the partitioner lock — the
        // migrations publish in the same generation as the user's batch.
        let mut rebalance_results: Vec<ShardOutcome> = vec![];
        if let Some(router) = router.as_deref_mut() {
            if router.needs_rebalance() {
                let _span = uncertain_obs::span!("shard.rebalance");
                // The masters are quiescent (spatial applies serialize),
                // so this is a consistent view of the whole live cloud.
                let mut live: Vec<(SiteId, Point)> = vec![];
                for w in self.writers.iter() {
                    let w = crate::lock_ok(w);
                    for id in w.set.live_ids() {
                        let p = w.set.get(id).expect("live id resolves");
                        live.push((id, rep_point(p)));
                    }
                }
                live.sort_unstable_by_key(|&(id, _)| id);
                let migs = router.plan_rebalance(&live);
                if !migs.is_empty() {
                    self.rebalances.fetch_add(1, Ordering::Relaxed);
                    uncertain_obs::counter!("shard.rebalance.count").inc();
                    uncertain_obs::counter!("shard.rebalance.migrated").add(migs.len() as u64);
                    report.migrated = migs.len();
                    // Snapshot every migrating payload *before* any
                    // migration batch runs (a remove tombstones the site at
                    // its old home).
                    let payloads: Vec<DiscreteUncertainPoint> = migs
                        .iter()
                        .map(|m| {
                            crate::lock_ok(&self.writers[m.from])
                                .set
                                .get(m.id)
                                .expect("migrating site is live at its old shard")
                                .clone()
                        })
                        .collect();
                    let mut mparts: Vec<(Vec<Update>, Vec<SiteId>)> =
                        (0..shards).map(|_| default_part()).collect();
                    for (m, p) in migs.iter().zip(payloads) {
                        mparts[m.from].0.push(Update::Remove(m.id));
                        let (ups, ids) = &mut mparts[m.to];
                        ups.push(Update::Insert(p));
                        ids.push(m.id);
                    }
                    for (s, part) in mparts.iter_mut().enumerate() {
                        if !part.0.is_empty() {
                            let (ups, ids) = std::mem::take(part);
                            rebalance_results.push(apply_shard(&self.writers, s, &ups, &ids));
                        }
                    }
                    for r in &rebalance_results {
                        report.merges += r.delta.merges;
                        report.global_rebuilds += r.delta.global_rebuilds;
                        report.sites_rebuilt += r.delta.sites_rebuilt;
                        if r.effective {
                            report.touched.push(r.shard);
                        }
                    }
                }
            }
        }
        report.touched.sort_unstable();
        report.touched.dedup();

        if report.touched.is_empty() {
            // Nothing changed anywhere: keep the published snapshot (and
            // every warm cache entry keyed to its generation).
            let core = self.snapshot();
            report.generation = core.generation;
            report.shard_epochs = core.epochs.as_ref().clone();
            report.live = core.n;
            report.tombstones = core.reader.tombstones();
            return report;
        }

        // Publish: replace exactly the touched shards' snapshots, guarded
        // per shard by epoch monotonicity (a racing apply that already
        // published a later epoch for a shard must not be reverted by our
        // older snapshot arriving late). User sub-batches and the
        // rebalance round fold into ONE new core — a shard both mutated by
        // the user and migrated takes its later (rebalance) epoch — so the
        // single pointer swap is what makes the migration atomic for
        // readers.
        {
            let _publish = crate::lock_ok(&self.publish_lock);
            let old = crate::read_ok(&self.core).clone();
            let mut sets: Vec<Arc<DynamicSet>> = old.reader.shards().to_vec();
            let mut epochs = (*old.epochs).clone();
            let mut changed = false;
            for r in results
                .iter()
                .chain(&rebalance_results)
                .filter(|r| r.effective)
            {
                if r.epoch > epochs[r.shard] {
                    epochs[r.shard] = r.epoch;
                    sets[r.shard] = r.snap.clone().expect("effective outcomes carry a snapshot");
                    changed = true;
                }
            }
            let core = if changed {
                let reader = ShardedReader::new(sets);
                let core = Arc::new(ShardedCore {
                    generation: old.generation + 1,
                    epochs: Arc::new(epochs),
                    n: reader.len(),
                    reader,
                    set: OnceLock::new(),
                    ids: OnceLock::new(),
                    shape: OnceLock::new(),
                    config: old.config,
                    cache: Arc::clone(&old.cache),
                });
                *crate::write_ok(&self.core) = Arc::clone(&core);
                core
            } else {
                // Every effective sub-batch was superseded by a racing
                // apply's later publication; the current snapshot already
                // reflects newer state for all our shards.
                old
            };
            report.generation = core.generation;
            report.shard_epochs = core.epochs.as_ref().clone();
            report.live = core.n;
            report.tombstones = core.reader.tombstones();
        }

        uncertain_obs::counter!("engine.apply.effective").inc();
        uncertain_obs::gauge!("engine.epoch").set(report.generation as f64);
        uncertain_obs::gauge!("engine.live_sites").set(report.live as f64);
        uncertain_obs::gauge!("engine.tombstones").set(report.tombstones as f64);
        let registry = uncertain_obs::registry();
        // Chain order matters for the gauges: rebalance outcomes ran after
        // the user sub-batches, so their values overwrite on shards both
        // touched.
        for r in results
            .iter()
            .chain(&rebalance_results)
            .filter(|r| r.effective)
        {
            let s = r.shard;
            registry
                .gauge(&format!("engine.epoch.shard{s}"))
                .set(r.epoch as f64);
            registry
                .gauge(&format!("engine.live_sites.shard{s}"))
                .set(r.live as f64);
            registry
                .gauge(&format!("engine.tombstones.shard{s}"))
                .set(r.tombstones as f64);
            if let Some(snap) = &r.snap {
                let b = snap.support_aabb();
                if !b.is_empty() {
                    registry
                        .gauge(&format!("shard.aabb.width.shard{s}"))
                        .set(b.width());
                    registry
                        .gauge(&format!("shard.aabb.height.shard{s}"))
                        .set(b.height());
                }
            }
        }
        report
    }

    /// Plans and executes one batch. Identical request/response semantics
    /// to [`Engine::run_batch`](crate::Engine::run_batch) — and identical
    /// answer bits — with [`ExecStats::shard_stats`] filled in and
    /// [`ExecStats::epoch`] carrying the publish generation.
    pub fn run_batch(&self, requests: &[QueryRequest]) -> BatchResponse {
        let t0 = Instant::now();
        let spans_before = uncertain_obs::registry().span_totals();
        let core = self.snapshot();
        let predicates_before = predicate_stats();
        let kernels_before = kernel_stats();
        let nonzero_count = requests.iter().filter(|r| r.is_nonzero()).count();
        // Expected per-query fan-out, fed back from every prior batch's
        // observed shards-touched counts; before any observation, assume
        // the worst case (every shard — exact for hash partitioning).
        let expected_touched = {
            let reads = self.touched_reads.load(Ordering::Relaxed);
            if reads == 0 {
                core.reader.num_shards() as f64
            } else {
                self.touched_sum.load(Ordering::Relaxed) as f64 / reads as f64
            }
        };
        let plan = {
            let _s = uncertain_obs::span!("engine.batch.plan");
            plan_for_sharded(
                &core,
                nonzero_count,
                requests.len() - nonzero_count,
                expected_touched,
            )
        };
        let prepared = SPrepared {
            nonzero: plan.nonzero,
            quant: plan.quant,
        };
        let counters = Arc::new(BatchCounters::default());

        let (results, worker_busy) = if requests.is_empty() {
            (vec![], vec![])
        } else if self.pool.len() == 1 || requests.len() == 1 {
            let e0 = Instant::now();
            let results = requests
                .iter()
                .map(|r| exec_one(&core, prepared, *r, &counters))
                .collect();
            (results, vec![e0.elapsed()])
        } else {
            let chunk_len = requests.len().div_ceil(self.pool.len());
            let (rtx, rrx) = std::sync::mpsc::channel();
            let mut jobs = 0usize;
            for (ji, chunk) in requests.chunks(chunk_len).enumerate() {
                let core = Arc::clone(&core);
                let counters = Arc::clone(&counters);
                let chunk: Vec<QueryRequest> = chunk.to_vec();
                let rtx = rtx.clone();
                self.pool.execute(move || {
                    let e0 = Instant::now();
                    let out: Vec<QueryResult> = chunk
                        .iter()
                        .map(|r| exec_one(&core, prepared, *r, &counters))
                        .collect();
                    let _ = rtx.send((ji, out, e0.elapsed()));
                });
                jobs += 1;
            }
            drop(rtx);
            let mut buf: Vec<Option<Vec<QueryResult>>> = (0..jobs).map(|_| None).collect();
            let mut busy = vec![Duration::ZERO; jobs];
            for (ji, out, dt) in rrx {
                buf[ji] = Some(out);
                busy[ji] = dt;
            }
            // Mirrors the monolithic engine: a lost job (panic outside
            // the per-request guard) degrades to typed failures for its
            // chunk instead of unwinding the batch caller.
            let results = buf
                .into_iter()
                .enumerate()
                .flat_map(|(ji, s)| {
                    s.unwrap_or_else(|| {
                        uncertain_obs::counter!("engine.exec.lost_jobs").inc();
                        let lo = ji * chunk_len;
                        let len = chunk_len.min(requests.len() - lo);
                        (0..len)
                            .map(|_| QueryResult::Failed {
                                reason: "worker job lost to a panic outside the request guard"
                                    .into(),
                            })
                            .collect()
                    })
                })
                .collect();
            (results, busy)
        };

        let wall = t0.elapsed();
        uncertain_obs::histogram!("engine.batch.wall").record(wall.as_nanos() as u64);
        uncertain_obs::counter!("engine.batch.requests").add(requests.len() as u64);
        crate::record_planner_observation(&plan, requests.len(), worker_busy.iter().sum());

        // Feed this batch's observed fan-out back to the planner's gather
        // term, and refresh the per-shard warm-rate gauges (the batch's
        // merged evaluations are what warms the summaries).
        let batch_touched = counters.shards_touched.load(Ordering::Relaxed);
        let batch_reads = counters.shard_reads.load(Ordering::Relaxed);
        if batch_reads > 0 {
            self.touched_sum
                .fetch_add(batch_touched as u64, Ordering::Relaxed);
            self.touched_reads
                .fetch_add(batch_reads as u64, Ordering::Relaxed);
        }
        let registry = uncertain_obs::registry();
        for (s, d) in core.reader.shards().iter().enumerate() {
            let (warm, cold) = d.quant_summary_state();
            let rate = if warm + cold == 0 {
                0.0
            } else {
                warm as f64 / (warm + cold) as f64
            };
            registry
                .gauge(&format!("shard.quant.warm_rate.shard{s}"))
                .set(rate);
        }

        let spans =
            uncertain_obs::span_delta(&spans_before, &uncertain_obs::registry().span_totals());
        let predicates = predicate_stats().since(&predicates_before);
        let kernels = kernel_stats().since(&kernels_before);
        BatchResponse {
            results,
            stats: ExecStats {
                nonzero_guarantee: (nonzero_count > 0).then_some(Guarantee::Exact),
                plan,
                built: vec![],
                wall,
                batch_len: requests.len(),
                cache_hits: counters.hits.load(Ordering::Relaxed),
                cache_misses: counters.misses.load(Ordering::Relaxed),
                workers: self.pool.len(),
                epoch: core.generation,
                live_sites: core.n,
                tombstones: core.reader.tombstones(),
                shard_stats: core.shard_stats(),
                worker_busy,
                predicate_filter_hits: predicates.filter_hits,
                predicate_exact_fallbacks: predicates.exact_fallbacks,
                kernel_lane_dists: kernels.lane_dists,
                kernel_scalar_dists: kernels.scalar_dists,
                quant_merged_evals: counters.quant_merged.load(Ordering::Relaxed),
                quant_fresh_evals: counters.quant_fresh.load(Ordering::Relaxed),
                quant_bucket_touches: counters.bucket_touches.load(Ordering::Relaxed),
                quant_bucket_warm: counters.bucket_warm.load(Ordering::Relaxed),
                shards_touched: batch_touched,
                shard_reads: batch_reads,
                spans,
            },
        }
    }
}

fn default_part() -> (Vec<Update>, Vec<SiteId>) {
    (vec![], vec![])
}

/// Sharded planner inputs: bucket fan-out summed across shards,
/// `shards ≥ 1` so only the partition-independent exact candidates are
/// priced. `expected_touched` is the observed mean scatter-gather
/// fan-out (== `S` under hash; `< S` once spatial pruning bites), which
/// prices the gather term and scales the bucket fan-out the dynamic
/// candidates actually visit.
fn plan_for_sharded(
    core: &ShardedCore,
    nonzero_count: usize,
    quant_count: usize,
    expected_touched: f64,
) -> BatchPlan {
    let (total_locations, max_k, spread) = core.shape();
    let (_, quant_cold) = core.reader.quant_summary_state();
    planner::plan(&PlannerInputs {
        n: core.n,
        total_locations,
        max_k,
        spread,
        nonzero_count,
        quant_count,
        guarantee: core.config.guarantee,
        diagram_cap: 0,
        index_built: false,
        diagram_built: false,
        spiral_built: false,
        mc_built_samples: None,
        dynamic_buckets: core.reader.bucket_count(),
        dynamic_quant_cold_locations: quant_cold,
        quant_snapped: core.cache.grid() > 0.0,
        shards: core.reader.num_shards(),
        expected_shards_touched: expected_touched,
    })
}

/// Executes one request with per-request panic isolation (the sharded twin
/// of the monolithic engine's guard): a panicking evaluation yields a
/// typed [`QueryResult::Failed`] before it can poison any shared lock.
fn exec_one(
    core: &ShardedCore,
    prepared: SPrepared,
    req: QueryRequest,
    counters: &BatchCounters,
) -> QueryResult {
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        exec_one_inner(core, prepared, req, counters)
    }));
    out.unwrap_or_else(|payload| {
        uncertain_obs::counter!("engine.exec.panics").inc();
        QueryResult::Failed {
            reason: crate::panic_reason(payload.as_ref()),
        }
    })
}

/// Records one scatter-gather read that visited `touched` shards.
fn record_touched(counters: &BatchCounters, touched: usize) {
    uncertain_obs::histogram!("engine.query.shards_touched").record(touched as u64);
    counters
        .shards_touched
        .fetch_add(touched, Ordering::Relaxed);
    counters.shard_reads.fetch_add(1, Ordering::Relaxed);
}

fn exec_one_inner(
    core: &ShardedCore,
    prepared: SPrepared,
    req: QueryRequest,
    counters: &BatchCounters,
) -> QueryResult {
    match req {
        QueryRequest::Nonzero { q } => {
            let _trace = uncertain_obs::trace::start("nonzero");
            let plan = prepared.nonzero.expect("nonzero plan");
            let key = CacheKey::nonzero(core.generation, q);
            if core.cache.enabled() {
                if let Some(CachedValue::Nonzero(ids)) = core.cache.get(&key) {
                    counters.hits.fetch_add(1, Ordering::Relaxed);
                    return QueryResult::Nonzero(ids.as_ref().clone());
                }
                counters.misses.fetch_add(1, Ordering::Relaxed);
            }
            let _exec = match plan {
                NonzeroPlan::Dynamic => uncertain_obs::span!("engine.exec.nonzero.dynamic"),
                _ => uncertain_obs::span!("engine.exec.nonzero.brute"),
            };
            let mut ids = match plan {
                // Scatter-gather over the per-shard bucket structures —
                // already in stable site ids. The box pruning decides how
                // many shards the fold actually visits.
                NonzeroPlan::Dynamic => {
                    let (ids, touched) = core.reader.nonzero_touched(q);
                    record_touched(counters, touched);
                    ids
                }
                // Brute over the flat union (the planner never picks the
                // monolithic-only static plans when shards ≥ 1).
                _ => {
                    let ids = core.ids();
                    nonzero_nn_discrete(core.set(), q)
                        .into_iter()
                        .map(|dense| ids[dense])
                        .collect()
                }
            };
            ids.sort_unstable();
            core.cache
                .insert(key, CachedValue::Nonzero(Arc::new(ids.clone())));
            QueryResult::Nonzero(ids)
        }
        QueryRequest::Threshold { q, tau } => {
            let _trace = uncertain_obs::trace::start("threshold");
            let (pi, guarantee) = quant_vector(core, prepared, q, counters);
            let slack = guarantee.slack();
            let mut items: Vec<(usize, f64)> = pi
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, p)| p >= tau - slack)
                .collect();
            crate::sort_ranked(&mut items);
            map_ranked(core, &mut items);
            QueryResult::Ranked { items, guarantee }
        }
        QueryRequest::TopK { q, k } => {
            let _trace = uncertain_obs::trace::start("topk");
            let (pi, guarantee) = quant_vector(core, prepared, q, counters);
            let mut items: Vec<(usize, f64)> = pi
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, p)| p > 0.0)
                .collect();
            crate::sort_ranked(&mut items);
            items.truncate(k);
            map_ranked(core, &mut items);
            QueryResult::Ranked { items, guarantee }
        }
    }
}

/// Rewrites dense indices to stable site ids, after sorting (the map is
/// monotone, so the tie order is unchanged).
fn map_ranked(core: &ShardedCore, items: &mut [(usize, f64)]) {
    let ids = core.ids();
    for (i, _) in items.iter_mut() {
        *i = ids[*i];
    }
}

/// The cached sharded quantification path. Both candidates are exact and
/// bit-identical (the k-way merge reproduces the fresh sweep's entry
/// sequence — see [`ShardedReader::quantification_merged`]), so they share
/// the `Exact` cache tag; with a snap grid the answer is the certified
/// interval evaluation over the flat union at the cell center, exactly as
/// in the monolithic engine.
fn quant_vector(
    core: &ShardedCore,
    prepared: SPrepared,
    q: Point,
    counters: &BatchCounters,
) -> (Arc<Vec<f64>>, Guarantee) {
    let plan = prepared.quant.expect("quant plan");
    let grid = core.cache.grid();
    let snapped = grid > 0.0;
    let key = CacheKey::quant(
        core.generation,
        q,
        if snapped { grid } else { 0.0 },
        QuantTag::Exact,
    );
    if core.cache.enabled() {
        if let Some(CachedValue::Quant { pi, guarantee }) = core.cache.get(&key) {
            counters.hits.fetch_add(1, Ordering::Relaxed);
            return (pi, guarantee);
        }
        counters.misses.fetch_add(1, Ordering::Relaxed);
    }
    let (pi, guarantee) = if snapped {
        let _exec = uncertain_obs::span!("engine.exec.quant.snapped");
        let center = snap_center(q, grid);
        let (mid, halfwidth) = snap::interval_quantification(core.set(), center, snap_radius(grid));
        let g = if halfwidth > 0.0 {
            Guarantee::Additive(halfwidth)
        } else {
            Guarantee::Exact
        };
        (mid, g)
    } else {
        let _exec = match plan {
            QuantPlan::Merged => uncertain_obs::span!("engine.exec.quant.merged"),
            _ => uncertain_obs::span!("engine.exec.quant.fresh"),
        };
        let pi = match plan {
            QuantPlan::Merged => {
                let (pi, st) = core.reader.quantification_merged_with_stats(q);
                counters.quant_merged.fetch_add(1, Ordering::Relaxed);
                counters
                    .bucket_touches
                    .fetch_add(st.buckets, Ordering::Relaxed);
                counters
                    .bucket_warm
                    .fetch_add(st.warm_buckets, Ordering::Relaxed);
                record_touched(counters, st.shards_touched);
                pi
            }
            _ => {
                counters.quant_fresh.fetch_add(1, Ordering::Relaxed);
                quantification_discrete(core.set(), q)
            }
        };
        (pi, Guarantee::Exact)
    };
    let pi = Arc::new(pi);
    core.cache.insert(
        key,
        CachedValue::Quant {
            pi: Arc::clone(&pi),
            guarantee,
        },
    );
    (pi, guarantee)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use uncertain_nn::model::DiscreteUncertainPoint;
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
            partitioner: PartitionerKind::Spatial,
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

    /// The headline guarantee, in-crate: identical answer bits to the
    /// monolithic engine at several shard counts, before and after
    /// shard-straddling updates. (`tests/sharded_differential.rs` runs the
    /// randomized-op-sequence version of this.)
    #[test]
    fn sharded_answers_are_bit_identical_to_monolithic() {
        let set = workload::random_discrete_set(80, 3, 6.0, 11);
        let queries = workload::random_queries(12, 60.0, 13);
        let batch = mixed_batch(&queries);
        let updates = vec![
            Update::Remove(3),
            Update::Insert(DiscreteUncertainPoint::certain(Point::new(0.5, -0.25))),
            Update::Remove(41),
            Update::Move {
                id: 17,
                to: DiscreteUncertainPoint::certain(Point::new(-4.0, 2.0)),
            },
            Update::Insert(DiscreteUncertainPoint::certain(Point::new(9.0, 9.0))),
        ];

        let mono = Engine::new(set.clone(), EngineConfig::default());
        let mono_before = mono.run_batch(&batch);
        let mono_report = mono.apply(&updates);
        let mono_after = mono.run_batch(&batch);

        for shards in [1, 4] {
            let sharded = ShardedEngine::new(set.clone(), config(shards));
            assert_eq!(sharded.num_shards(), shards);
            assert_eq!(sharded.run_batch(&batch).results, mono_before.results);
            let report = sharded.apply(&updates);
            assert_eq!(report.inserted, mono_report.inserted);
            assert_eq!(report.removed, mono_report.removed);
            assert_eq!(report.moved, mono_report.moved);
            assert_eq!(report.live, mono_report.live);
            let resp = sharded.run_batch(&batch);
            assert_eq!(resp.results, mono_after.results);
            // Per-shard serving state is reported for every shard.
            assert_eq!(resp.stats.shard_stats.len(), shards);
            assert_eq!(
                resp.stats.shard_stats.iter().map(|s| s.live).sum::<usize>(),
                mono_report.live
            );
        }
    }

    /// The same bit-identity under the spatial partitioner — including the
    /// cross-shard move rewrite and the user-visible report re-fold.
    #[test]
    fn spatial_answers_are_bit_identical_to_monolithic() {
        let set = workload::random_discrete_set(80, 3, 6.0, 11);
        let queries = workload::random_queries(12, 60.0, 13);
        let batch = mixed_batch(&queries);
        let updates = vec![
            Update::Remove(3),
            Update::Insert(DiscreteUncertainPoint::certain(Point::new(0.5, -0.25))),
            Update::Remove(41),
            // A long-haul move — almost certainly cross-region, exercising
            // the remove+insert rewrite.
            Update::Move {
                id: 17,
                to: DiscreteUncertainPoint::certain(Point::new(-40.0, 35.0)),
            },
            Update::Remove(999), // miss, counted by the router's directory
            Update::Insert(DiscreteUncertainPoint::certain(Point::new(9.0, 9.0))),
        ];

        let mono = Engine::new(set.clone(), EngineConfig::default());
        let mono_before = mono.run_batch(&batch);
        let mono_report = mono.apply(&updates);
        let mono_after = mono.run_batch(&batch);

        for shards in [1, 4] {
            let sharded = ShardedEngine::new(set.clone(), spatial_config(shards, 0.0));
            assert_eq!(sharded.partitioner_kind(), PartitionerKind::Spatial);
            assert_eq!(sharded.run_batch(&batch).results, mono_before.results);
            let report = sharded.apply(&updates);
            assert_eq!(report.inserted, mono_report.inserted);
            assert_eq!(report.removed, mono_report.removed);
            assert_eq!(report.moved, mono_report.moved);
            assert_eq!(report.missed, mono_report.missed);
            assert_eq!(report.live, mono_report.live);
            let resp = sharded.run_batch(&batch);
            assert_eq!(resp.results, mono_after.results);
        }
    }

    /// Skewed churn under spatial partitioning triggers a rebalance whose
    /// migrations (a) restore the balance, (b) keep every site in exactly
    /// one shard, and (c) leave answers bit-identical to monolithic.
    #[test]
    fn spatial_rebalance_triggers_and_stays_bit_identical() {
        let set = workload::random_discrete_set(60, 3, 6.0, 21);
        let mono = Engine::new(set.clone(), EngineConfig::default());
        let eng = ShardedEngine::new(set, spatial_config(4, 2.0));

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
        mono.apply(&skew);
        let report = eng.apply(&skew);
        assert!(
            eng.rebalances() >= 1,
            "skewed churn must trigger a rebalance"
        );
        assert!(report.migrated > 0);

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
        assert_eq!(seen.len(), eng.len());

        // Balance restored: the trigger is quiet again.
        let counts: Vec<usize> = census.iter().map(|v| v.len()).collect();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            (max as f64) < 2.0 * (min.max(1) as f64),
            "rebalance left counts {counts:?}"
        );

        // And the answers still match monolithic bitwise.
        let queries = workload::random_queries(10, 220.0, 23);
        let batch = mixed_batch(&queries);
        assert_eq!(
            eng.run_batch(&batch).results,
            mono.run_batch(&batch).results
        );
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
        let eng = ShardedEngine::new(set, cfg);

        // All-quantification batch: at this scale the planner serves NN≠0
        // by brute over the flat union (which never scatters), so only the
        // merged-quant reads exercise — and count — the box pruning.
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

        // Hash partitioning of the same workload touches every shard.
        let mut cfg = config(4);
        cfg.cache_capacity = 0;
        let eng = ShardedEngine::new(eng.live_set(), cfg);
        let stats = eng.run_batch(&batch).stats;
        assert_eq!(stats.avg_shards_touched(), 4.0);
    }

    #[test]
    fn straddling_apply_bumps_only_touched_shards_and_one_generation() {
        let set = workload::random_discrete_set(60, 3, 6.0, 7);
        let eng = ShardedEngine::new(set, config(4));
        let (g0, e0) = eng.shard_epochs();
        assert_eq!((g0, e0.as_slice()), (0, &[0u64; 4][..]));

        // Remove two sites in (generally) different shards.
        let report = eng.apply(&[Update::Remove(0), Update::Remove(1)]);
        assert_eq!(report.generation, 1);
        assert_eq!(
            report.touched,
            vec![shard_of(0, 4), shard_of(1, 4)]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect::<Vec<_>>()
        );
        let (g1, e1) = eng.shard_epochs();
        assert_eq!(g1, 1);
        for (s, &epoch) in e1.iter().enumerate() {
            let expect = if report.touched.contains(&s) { 1 } else { 0 };
            assert_eq!(epoch, expect, "shard {s}");
        }
    }

    #[test]
    fn noop_apply_keeps_generation_and_cache() {
        let set = workload::random_discrete_set(40, 3, 6.0, 5);
        let eng = ShardedEngine::new(set, config(3));
        let q = Point::new(1.0, 1.0);
        let batch = [QueryRequest::Nonzero { q }];
        eng.run_batch(&batch);
        let cached = eng.cache_len();
        assert!(cached > 0);
        // Every update misses: dead/unknown ids only.
        let report = eng.apply(&[Update::Remove(999), Update::Remove(777)]);
        assert_eq!(report.generation, 0);
        assert_eq!(report.missed, 2);
        assert!(report.touched.is_empty());
        let resp = eng.run_batch(&batch);
        assert_eq!(resp.stats.cache_hits, 1);
        assert_eq!(eng.cache_len(), cached);
    }

    #[test]
    fn display_prints_fixed_columns_and_per_shard_summaries() {
        let set = workload::random_discrete_set(30, 3, 6.0, 3);
        let eng = ShardedEngine::new(set, config(3));
        let q = Point::new(0.0, 0.0);
        let stats = eng.run_batch(&[QueryRequest::Nonzero { q }]).stats;
        let line = stats.to_string();
        // All columns present even when zero, plus one token per shard.
        for needle in ["epoch=0", "tomb=0", "shard0=0/", "shard1=0/", "shard2=0/"] {
            assert!(line.contains(needle), "missing {needle:?} in {line:?}");
        }
        // Monolithic batches print the same fixed columns, no shard tokens.
        let mono = Engine::new(
            workload::random_discrete_set(10, 2, 4.0, 1),
            EngineConfig::default(),
        );
        let line = mono
            .run_batch(&[QueryRequest::Nonzero { q }])
            .stats
            .to_string();
        assert!(
            line.contains("tomb=0") && !line.contains("shard0="),
            "{line:?}"
        );
    }

    #[test]
    fn display_aggregates_per_shard_tokens_past_eight_shards() {
        if std::env::var_os(crate::STATS_VERBOSE_ENV).is_some() {
            return; // escape hatch active in this environment
        }
        let set = workload::random_discrete_set(40, 2, 6.0, 9);
        let eng = ShardedEngine::new(set, config(9));
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
            assert!(resolve_shards(None) >= 1);
        }
    }

    #[test]
    fn resolve_partitioner_and_rebalance_prefer_config() {
        if std::env::var(PARTITIONER_ENV).is_err() {
            assert_eq!(
                resolve_partitioner(PartitionerKind::Spatial),
                PartitionerKind::Spatial
            );
            assert_eq!(
                resolve_partitioner(PartitionerKind::Hash),
                PartitionerKind::Hash
            );
        }
        if std::env::var(REBALANCE_ENV).is_err() {
            assert_eq!(resolve_rebalance(3.5), 3.5);
        }
    }

    #[test]
    fn empty_engine_serves_and_grows() {
        let eng = ShardedEngine::new(DiscreteSet::new(vec![]), config(3));
        assert!(eng.is_empty());
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
    fn empty_spatial_engine_serves_and_grows() {
        let eng = ShardedEngine::new(DiscreteSet::new(vec![]), spatial_config(3, 2.0));
        assert!(eng.is_empty());
        let q = Point::new(0.0, 0.0);
        let resp = eng.run_batch(&mixed_batch(&[q]));
        assert_eq!(resp.results[0], QueryResult::Nonzero(vec![]));
        let report = eng.apply(&[Update::Insert(DiscreteUncertainPoint::certain(q))]);
        assert_eq!(report.inserted, vec![0]);
        assert_eq!(report.live, 1);
        let resp = eng.run_batch(&mixed_batch(&[q]));
        assert_eq!(resp.results[0], QueryResult::Nonzero(vec![0]));
    }
}
