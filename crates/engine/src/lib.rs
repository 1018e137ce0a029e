//! `uncertain_engine`: the concurrent, batched query-serving layer above
//! [`uncertain_nn`].
//!
//! The core library answers one query at a time through explicit structure
//! choices; this crate serves query *batches* at volume and decides **how**
//! to answer them. There is one engine, [`Engine`]:
//!
//! * its snapshot is a vector of `S` Bentley–Saxe shards
//!   ([`uncertain_nn::dynamic`]), bulk-loaded by [`Engine::new`] so the
//!   first batch is already served by the dynamic plans and read through
//!   one scatter-gather reader whose answers are bit-identical at every
//!   `S`. `S = 1` is the default (`EngineConfig::shards = None` with
//!   `UNC_ENGINE_SHARDS` unset); [`shard`] covers partitioning, the
//!   partitioner's query pruning and rebalancing, and the env
//!   overrides. [`Engine::shard_stats`] always holds `S` rows;
//! * a std-only [thread pool](pool) (`std::thread` + channels) splits each
//!   batch across workers — `UNC_ENGINE_THREADS` pins the worker count for
//!   deterministic CI runs;
//! * one exact evaluator per query family: `NN≠0` requests scatter-gather
//!   over the Bentley–Saxe buckets (`nonzero:dynamic`), and probability
//!   requests take `quant:merged`, the Eq. (2) sweep over the live
//!   entries inside the Lemma 2.1 radius, bit-identical to the full sweep. Exact answers satisfy
//!   every [`Guarantee`] a caller can ask for, so there is no plan to
//!   choose: [`ExecStats`] records the plan taken, evaluation counters, the
//!   buckets collected from and the scatter-gather fan-out;
//! * an [LRU result cache](cache) keyed on the exact query bits and the
//!   epoch, so a hit returns the very answer a miss would compute;
//! * a typed request/response API: [`Engine`], [`QueryRequest`],
//!   [`BatchResponse`] with per-request [`QueryResult`]s plus [`ExecStats`]
//!   (plan taken, wall time, cache hit rate, worker utilization, epoch and
//!   live/tombstone site counts);
//! * an **epoch/snapshot update layer**: [`Engine::apply`] takes a batch of
//!   [`Update`]s (insert / remove / move uncertain sites) under one writer
//!   lock, copies only the shards they touch, advances their Bentley–Saxe
//!   structures, and publishes a new immutable snapshot behind an `Arc`
//!   swap — in-flight batches on worker threads keep serving the epoch
//!   they started on, and epoch-stamped cache keys make stale entries
//!   unreachable with no flush;
//! * a [network server](server) that fronts any engine, whatever its `S`.
//!
//! # Quickstart
//!
//! ```
//! use uncertain_engine::{Engine, EngineConfig, QueryRequest, QueryResult, Update};
//! use uncertain_nn::model::DiscreteUncertainPoint;
//! use uncertain_nn::workload;
//! use uncertain_geom::Point;
//!
//! let set = workload::random_discrete_set(40, 3, 6.0, 7);
//! let engine = Engine::new(set.clone(), EngineConfig::default());
//! let batch: Vec<QueryRequest> = workload::random_queries(16, 60.0, 8)
//!     .into_iter()
//!     .map(|q| QueryRequest::Nonzero { q })
//!     .collect();
//! let resp = engine.run_batch(&batch);
//! assert_eq!(resp.results.len(), 16);
//! assert_eq!(resp.stats.epoch, 0);
//! // Engine answers match the direct library call. Result indices are
//! // stable site ids: at epoch 0 they are `0..n` in input order, and they
//! // survive updates unchanged.
//! if let QueryResult::Nonzero(ids) = &resp.results[0] {
//!     let QueryRequest::Nonzero { q } = batch[0] else { unreachable!() };
//!     let mut direct = set.nonzero_nn(q);
//!     direct.sort_unstable();
//!     assert_eq!(ids, &direct);
//! }
//! println!("plan: {}", resp.stats.plan.summary());
//!
//! // Mutate the served set: every apply() publishes a new epoch snapshot.
//! let report = engine.apply(&[
//!     Update::Insert(DiscreteUncertainPoint::certain(Point::new(1.0, 2.0))),
//!     Update::Remove(3),
//! ]);
//! assert_eq!(report.epoch, 1);
//! assert_eq!(report.inserted, vec![40]); // fresh ids continue after 0..n
//! let resp = engine.run_batch(&batch);
//! assert_eq!(resp.stats.epoch, 1);
//! // Answers now reflect the surviving sites, by stable id.
//! if let QueryResult::Nonzero(ids) = &resp.results[0] {
//!     let QueryRequest::Nonzero { q } = batch[0] else { unreachable!() };
//!     let fresh = engine.live_set();
//!     let site_ids = engine.site_ids();
//!     let mut direct: Vec<usize> =
//!         fresh.nonzero_nn(q).into_iter().map(|dense| site_ids[dense]).collect();
//!     direct.sort_unstable();
//!     assert_eq!(ids, &direct);
//! }
//! ```

pub mod cache;
pub mod pool;
pub mod server;
pub mod shard;

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use uncertain_geom::Point;
use uncertain_nn::dynamic::shard::ShardedReader;
use uncertain_nn::dynamic::{DynamicSet, RebuildStats, UpdateOutcome};
use uncertain_nn::model::DiscreteSet;
use uncertain_nn::queries::Guarantee;
use uncertain_spatial::soa::kernel_stats;

use cache::{CacheKey, CachedValue, ResultCache};
pub use pool::{resolve_threads, ThreadPool, THREADS_ENV};
use shard::{Part, PartitionerKind, Router};
pub use uncertain_nn::dynamic::{DynamicStats, SiteId, Update};

/// One query in a batch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QueryRequest {
    /// `NN≠0(q)`: which points have nonzero probability of being nearest.
    Nonzero { q: Point },
    /// Exactly the points with `π_i(q) ≥ tau` (the threshold query of
    /// [DYM+05], answered from the exact probabilities). `tau` must be
    /// positive: `tau ≤ 0` would admit every live site, `π = 0` included,
    /// so it fails like a non-finite input.
    Threshold { q: Point, tau: f64 },
    /// The `k` most probable nearest neighbors (\[BSI08\]).
    TopK { q: Point, k: usize },
}

impl QueryRequest {
    /// The query location.
    pub fn point(&self) -> Point {
        match *self {
            QueryRequest::Nonzero { q }
            | QueryRequest::Threshold { q, .. }
            | QueryRequest::TopK { q, .. } => q,
        }
    }

    fn is_nonzero(&self) -> bool {
        matches!(self, QueryRequest::Nonzero { .. })
    }
}

/// One answer. Probability answers carry the guarantee they were served
/// under — always [`Guarantee::Exact`], kept in the type and on the wire
/// so readers of the `unc/1` reply tag keep compiling.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryResult {
    /// Sorted point indices with `π_i(q) > 0`.
    Nonzero(Vec<usize>),
    /// `(index, π̂)` pairs, sorted by decreasing estimate (ties by index).
    Ranked {
        items: Vec<(usize, f64)>,
        guarantee: Guarantee,
    },
    /// The request failed: a non-finite input or a non-positive threshold,
    /// or an evaluation that panicked. The panic is caught **inside** the
    /// request — before it can poison shared locks or strand the batch — so
    /// the other requests of the batch, and every later batch, are
    /// unaffected. Never cached.
    /// The serving front-end maps this to a typed error reply instead of
    /// dying.
    Failed { reason: String },
}

/// What one [`Engine::apply`] call did: the epoch it published plus the
/// amortized-rebuild accounting for exactly this batch of updates (summed
/// over the shards it touched, including a rebalance round it triggered).
#[derive(Clone, Debug)]
pub struct ApplyReport {
    /// The publish generation the new snapshot serves under (unchanged on
    /// a no-op apply) — the value [`Engine::epoch`] reports.
    pub epoch: u64,
    /// Ids assigned to the `Insert` updates, in update order.
    pub inserted: Vec<SiteId>,
    pub removed: usize,
    pub moved: usize,
    /// `Remove`/`Move` updates whose id was unknown or already removed.
    pub missed: usize,
    /// Live sites after this apply.
    pub live: usize,
    /// Tombstones still buried in buckets after this apply.
    pub tombstones: usize,
    /// Bucket merges this apply triggered.
    pub merges: u64,
    /// Global compacting rebuilds this apply triggered.
    pub global_rebuilds: u64,
    /// Σ bucket sizes rebuilt during this apply — the amortized update cost
    /// in sites (`O(log n)` per insert by the logarithmic-method bound).
    pub sites_rebuilt: u64,
}

/// Per-shard serving-state summary: one row per shard, in shard-index
/// order, describing the snapshot a batch was served from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardStat {
    /// Shard index in `0..shards`.
    pub shard: usize,
    /// The shard's own epoch (bumped only when an apply changes it).
    pub epoch: u64,
    /// Live sites owned by this shard.
    pub live: usize,
    /// Tombstones still buried in this shard's buckets.
    pub tombstones: usize,
}

/// Execution strategy for the `NN≠0` requests of a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NonzeroPlan {
    /// Scatter-gather over the Bentley–Saxe buckets every engine holds from
    /// construction: the Theorem 3.2 query shape, with stage 2 read from
    /// the same collect quantification sweeps.
    Dynamic,
}

/// Execution strategy for the probability (Threshold/TopK) requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuantPlan {
    /// The exact sweep over the live entries inside the Lemma 2.1 radius,
    /// range-reported from the Bentley–Saxe buckets' kd summaries, with the
    /// sweep's early exit — bit-identical to the Eq. (2) sweep over the
    /// live set.
    Merged,
}

impl std::fmt::Display for NonzeroPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NonzeroPlan::Dynamic => write!(f, "nonzero:dynamic"),
        }
    }
}

impl std::fmt::Display for QuantPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantPlan::Merged => write!(f, "quant:merged"),
        }
    }
}

/// The evaluators one batch ran: one per query family present in it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchPlan {
    pub nonzero: Option<NonzeroPlan>,
    pub quant: Option<QuantPlan>,
}

impl BatchPlan {
    /// Short human-readable summary, e.g. `"nonzero:dynamic + quant:merged"`.
    pub fn summary(&self) -> String {
        match (&self.nonzero, &self.quant) {
            (Some(nz), Some(qp)) => format!("{nz} + {qp}"),
            (Some(nz), None) => nz.to_string(),
            (None, Some(qp)) => qp.to_string(),
            (None, None) => "idle".to_string(),
        }
    }
}

/// Execution report for one batch.
#[derive(Clone, Debug)]
pub struct ExecStats {
    /// The evaluators the batch ran.
    pub plan: BatchPlan,
    /// Structures built during this batch. Always empty: every structure a
    /// plan reads is built by [`Engine::new`] or [`Engine::apply`]. Kept so
    /// existing readers compile.
    pub built: Vec<&'static str>,
    /// End-to-end wall time for the batch.
    pub wall: Duration,
    pub batch_len: usize,
    pub cache_hits: usize,
    pub cache_misses: usize,
    /// Worker count used for this batch.
    pub workers: usize,
    /// The publish generation this batch was served from (0 until the
    /// first effective [`Engine::apply`]). Every answer of the batch
    /// reflects exactly this snapshot's site set.
    pub epoch: u64,
    /// Live sites in the serving snapshot.
    pub live_sites: usize,
    /// Tombstoned sites still buried in the snapshot's buckets (0 until
    /// updates have been applied), summed across shards.
    pub tombstones: usize,
    /// One `(epoch, live, tombstones)` row per shard — always
    /// `S` rows, holding the per-shard epochs of the published vector.
    pub shard_stats: Vec<ShardStat>,
    /// Busy (execution) time of each chunk of this batch, measured inside
    /// the chunk's job. At most one chunk per worker.
    pub worker_busy: Vec<Duration>,
    /// Distances the SoA kernels (`uncertain_spatial::soa`) evaluated in
    /// full-width chunked lanes during this batch. These are process-global
    /// deltas, so concurrent batches on *other* engines fold into each
    /// other's numbers.
    pub kernel_lane_dists: u64,
    /// Distances the same kernels evaluated one at a time (chunk remainders
    /// and scalar fallback paths; see
    /// [`ExecStats::kernel_lane_dists`]).
    pub kernel_scalar_dists: u64,
    /// Quantification evaluations served by the merged path this
    /// batch (cache hits execute no evaluator and are not counted).
    pub quant_merged_evals: usize,
    /// Quantification evaluations served over a flat live set. Always 0:
    /// every evaluation is merged. Kept so existing readers compile.
    pub quant_fresh_evals: usize,
    /// Buckets the merged evaluations collected from.
    pub quant_bucket_touches: usize,
    /// Σ shards visited by this batch's scatter-gather reads (each
    /// cache-missed `NN≠0:dynamic` or `quant:merged` evaluation counts the
    /// shards its box pruning actually touched).
    pub shards_touched: usize,
    /// Scatter-gather reads behind [`ExecStats::shards_touched`] —
    /// `shards_touched / shard_reads` is the mean fan-out per query.
    pub shard_reads: usize,
    /// Registry span totals (`uncertain_obs` wall-clock histograms across
    /// the engine, cache, dynamic, and kernel layers) that
    /// advanced during this batch, merged by span name. Like the kernel
    /// counters these are process-global deltas, so concurrent batches on
    /// *other* engines fold into each other's numbers. The `.cycles` twins
    /// are dropped.
    pub spans: Vec<uncertain_obs::SpanStat>,
}

impl ExecStats {
    /// Hits / lookups, 0.0 when the batch did no cache lookups.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Σ busy / (workers · wall), in `[0, 1]` up to timer noise.
    pub fn worker_utilization(&self) -> f64 {
        if self.workers == 0 || self.wall.is_zero() {
            return 0.0;
        }
        let busy: Duration = self.worker_busy.iter().sum();
        (busy.as_secs_f64() / (self.workers as f64 * self.wall.as_secs_f64())).min(1.0)
    }

    /// Requests per second over the batch wall time.
    pub fn throughput_qps(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.batch_len as f64 / self.wall.as_secs_f64()
    }

    /// Fraction of the batch's kernel distance evaluations that ran in
    /// chunked lanes; `0.0` when the batch evaluated none (an idle batch
    /// reports no lanes, not a perfect rate — every ratio helper here
    /// shares that convention). Low values mean the workload evaluated
    /// nothing, lives in tiny kd leaves, or took scalar fallback paths.
    pub fn kernel_lane_fraction(&self) -> f64 {
        let total = self.kernel_lane_dists + self.kernel_scalar_dists;
        if total == 0 {
            0.0
        } else {
            self.kernel_lane_dists as f64 / total as f64
        }
    }

    /// Mean shards visited per scatter-gather read; `0.0` when the batch
    /// did none (every answer from the cache). `< shards` measures how
    /// much the partitioner's box pruning cut the fan-out.
    pub fn avg_shards_touched(&self) -> f64 {
        if self.shard_reads == 0 {
            0.0
        } else {
            self.shards_touched as f64 / self.shard_reads as f64
        }
    }
}

/// Largest shard count whose per-shard `Display` tokens stay readable on
/// one log line; above it the tokens aggregate to min/median/max.
const DISPLAY_SHARD_TOKENS_MAX: usize = 8;

impl std::fmt::Display for ExecStats {
    /// Compact one-line batch summary for logs and examples:
    /// `plan=[nonzero:dynamic] reqs=64 wall=1.2ms qps=53388 cache=75% util=88% epoch=3 live=4096 tomb=0 stouch=1.0 shard0=3/4096/0`.
    ///
    /// Every field is printed unconditionally (even when zero), followed by
    /// one fixed-shape `shardK=epoch/live/tomb` token per shard up to
    /// S = 8; past that the line would be unreadable, so the tokens
    /// aggregate to one `shards=S lo=… med=… hi=…` summary (min/median/max
    /// of each column) — log scrapers see the same columns at every epoch
    /// and a bounded line length at every shard count.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "plan=[{}] reqs={} wall={} qps={:.0} cache={:.0}% util={:.0}% epoch={} live={} tomb={} stouch={:.1}",
            self.plan.summary(),
            self.batch_len,
            uncertain_obs::fmt_ns(self.wall.as_nanos() as u64),
            self.throughput_qps(),
            100.0 * self.cache_hit_rate(),
            100.0 * self.worker_utilization(),
            self.epoch,
            self.live_sites,
            self.tombstones,
            self.avg_shards_touched(),
        )?;
        if self.shard_stats.len() <= DISPLAY_SHARD_TOKENS_MAX {
            for s in &self.shard_stats {
                write!(
                    f,
                    " shard{}={}/{}/{}",
                    s.shard, s.epoch, s.live, s.tombstones
                )?;
            }
            return Ok(());
        }
        // min/median/max per column, each rendered in the same
        // epoch/live/tomb shape as the per-shard tokens.
        fn col<T: Copy + Ord>(mut v: Vec<T>) -> (T, T, T) {
            v.sort_unstable();
            (v[0], v[v.len() / 2], v[v.len() - 1])
        }
        let (e_lo, e_med, e_hi) = col(self.shard_stats.iter().map(|s| s.epoch).collect());
        let (l_lo, l_med, l_hi) = col(self.shard_stats.iter().map(|s| s.live).collect());
        let (t_lo, t_med, t_hi) = col(self.shard_stats.iter().map(|s| s.tombstones).collect());
        write!(
            f,
            " shards={} lo={e_lo}/{l_lo}/{t_lo} med={e_med}/{l_med}/{t_med} hi={e_hi}/{l_hi}/{t_hi}",
            self.shard_stats.len()
        )
    }
}

/// A batch's answers (in request order) plus its execution report.
#[derive(Clone, Debug)]
pub struct BatchResponse {
    pub results: Vec<QueryResult>,
    pub stats: ExecStats,
}

/// Engine configuration. `Default` is a sensible serving setup: one shard,
/// a 4096-entry cache, auto-detected parallelism. Every shard is a
/// Bentley–Saxe structure with the default compaction thresholds
/// ([`DynamicConfig`](uncertain_nn::dynamic::DynamicConfig)).
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker count. Resolution: `UNC_ENGINE_THREADS` env > this field >
    /// detected parallelism.
    pub threads: Option<usize>,
    /// Result-cache capacity in entries; `0` disables the cache entirely
    /// (no lookups or lock traffic — for measuring raw execution).
    pub cache_capacity: usize,
    /// Shard count `S`. Resolution: `UNC_ENGINE_SHARDS` env > this field >
    /// 1.
    pub shards: Option<usize>,
    /// How sites are assigned to shards. [`PartitionerKind::Spatial`] is
    /// the only value (a kd-split of the site cloud, see [`shard`]); the
    /// field stays because the repository benchmark (`ladderbench/`) sets
    /// it.
    pub partitioner: PartitionerKind,
    /// Live-count imbalance ratio (max/min across shards) past which an
    /// apply schedules a rebalance; `0.0` disables rebalancing. Overridable
    /// via `UNC_ENGINE_REBALANCE`. Moot at one shard.
    pub rebalance_ratio: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: None,
            cache_capacity: 4096,
            shards: None,
            partitioner: PartitionerKind::Spatial,
            rebalance_ratio: 4.0,
        }
    }
}

/// One immutable epoch snapshot: the per-shard Bentley–Saxe structures the
/// epoch serves from. Batches pin the snapshot they started on via `Arc`,
/// so a concurrent [`Engine::apply`] never changes answers mid-batch.
struct EngineCore {
    /// The publish generation: advances exactly when the shard-epoch vector
    /// changes, so it is a collision-free cache stamp for the whole vector.
    epoch: u64,
    /// Per-shard epochs, index = shard.
    shard_epochs: Vec<u64>,
    /// Scatter-gather view over one `Arc` snapshot per shard.
    reader: ShardedReader,
    /// Resolved: `shards` and `rebalance_ratio` hold what the engine runs
    /// with, env overrides applied.
    config: EngineConfig,
    /// Shared across epochs; epoch-stamped keys keep entries from ever
    /// crossing snapshots.
    cache: Arc<ResultCache>,
}

impl EngineCore {
    /// The snapshot of `shards` at generation `epoch`.
    fn new(
        epoch: u64,
        shard_epochs: Vec<u64>,
        shards: Vec<Arc<DynamicSet>>,
        cache: Arc<ResultCache>,
        config: EngineConfig,
    ) -> Self {
        EngineCore {
            epoch,
            shard_epochs,
            reader: ShardedReader::new(shards),
            config,
            cache,
        }
    }

    /// One `(epoch, live, tombstones)` row per shard.
    fn shard_stats(&self) -> Vec<ShardStat> {
        self.reader
            .shards()
            .iter()
            .enumerate()
            .map(|(s, d)| ShardStat {
                shard: s,
                epoch: self.shard_epochs[s],
                live: d.len(),
                tombstones: d.tombstones(),
            })
            .collect()
    }
}

/// Locks a mutex, recovering the guard if a previous holder panicked.
/// Sound only where the guarded state is **valid-on-panic** — true for
/// every engine lock but two: `Arc` snapshot pointers are swapped
/// atomically, and the server's batch queue only ever gains or loses whole
/// entries. The two exceptions repair themselves on poison instead: the
/// writer lock's router, which a panicking apply leaves holding routes
/// that were never published ([`Engine::apply`] re-derives it from the
/// published shards), and the result cache's LRU, which clears itself
/// (see [`cache`]). Without
/// these, one panicking query poisons a lock and every later
/// `.lock().unwrap()` panics too — the cascade that turns a bad request
/// into a dead process.
pub(crate) fn lock_ok<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// [`lock_ok`] for read guards.
pub(crate) fn read_ok<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// [`lock_ok`] for write guards.
pub(crate) fn write_ok<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Renders a caught panic payload for [`QueryResult::Failed`].
pub(crate) fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The serving engine: owns the sharded uncertain-point set, its worker
/// pool and its cache.
/// [`Engine::apply`] swaps in a new epoch snapshot; queries always serve a
/// consistent epoch. See the [`shard`] module for what `S > 1` changes.
pub struct Engine {
    /// The current snapshot. Readers take the read lock only long enough to
    /// clone the `Arc` (no lock is held while serving), writers only to
    /// store a new one.
    core: RwLock<Arc<EngineCore>>,
    /// The writer lock: every apply holds it from routing to publication,
    /// so the partitioner's state, the shards and the published snapshot
    /// never disagree. Readers are never blocked by it.
    writer: Mutex<Router>,
    pool: ThreadPool,
}

#[derive(Default)]
struct BatchCounters {
    hits: AtomicUsize,
    misses: AtomicUsize,
    /// Quantification evaluations by the merged path (cache hits execute
    /// none).
    quant_merged: AtomicUsize,
    /// Buckets merged evaluations collected from.
    bucket_touches: AtomicUsize,
    /// Σ shards visited by scatter-gather reads, and the number of such
    /// reads.
    shards_touched: AtomicUsize,
    shard_reads: AtomicUsize,
}

impl BatchCounters {
    /// Records one scatter-gather read that visited `touched` shards.
    fn touched(&self, touched: usize) {
        uncertain_obs::histogram!("engine.query.shards_touched").record(touched as u64);
        self.shards_touched.fetch_add(touched, Ordering::Relaxed);
        self.shard_reads.fetch_add(1, Ordering::Relaxed);
    }
}

/// Applies one shard's sub-batch to that shard — copying it first unless
/// this apply already holds the only reference — inside a shard-suffixed
/// span (`engine.apply.shard3`). Returns the outcome and the rebuild work.
fn apply_shard(
    shard: usize,
    set: &mut Arc<DynamicSet>,
    part: &Part,
) -> (UpdateOutcome, RebuildStats) {
    let _span = uncertain_obs::span_dyn(&format!("engine.apply.shard{shard}"));
    if Arc::get_mut(set).is_none() {
        // Inserts and moves each append one entry: copy with room for
        // them, so the appends do not copy the slab a second time.
        let appends = part.0.iter().filter(|u| !matches!(***u, Update::Remove(_)));
        *set = Arc::new(set.clone_with_room(appends.count()));
    }
    let set = Arc::get_mut(set).expect("the copy is unshared");
    let before = set.stats().rebuild;
    let outcome = set.apply_with_insert_ids(part.0.iter().map(|u| &**u), &part.1);
    (outcome, set.stats().rebuild.since(&before))
}

impl Engine {
    /// Builds an engine over `set`, bulk-loading it into `S` Bentley–Saxe
    /// shards so the first batch is already served by the dynamic plans.
    /// Spawns the worker pool immediately. Sites receive the stable ids
    /// `0..set.len()` in input order. The shard count resolves via
    /// [`shard::resolve_shards`] from `config.shards`, the rebalance ratio
    /// via [`shard::resolve_rebalance`].
    pub fn new(set: DiscreteSet, config: EngineConfig) -> Self {
        let config = EngineConfig {
            shards: Some(shard::resolve_shards(config.shards)),
            rebalance_ratio: shard::resolve_rebalance(config.rebalance_ratio),
            ..config
        };
        let (router, shards) = Router::load(set, &config);
        let cache = Arc::new(ResultCache::new(config.cache_capacity));
        let core = EngineCore::new(0, vec![0; shards.len()], shards, cache, config);
        Engine {
            core: RwLock::new(Arc::new(core)),
            writer: Mutex::new(router),
            pool: ThreadPool::new(resolve_threads(config.threads)),
        }
    }

    /// The current snapshot (a cheap `Arc` clone; the read lock is released
    /// before returning).
    fn snapshot(&self) -> Arc<EngineCore> {
        read_ok(&self.core).clone()
    }

    /// The publish generation the engine currently serves (0 until the
    /// first effective [`apply`](Self::apply)).
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// One atomic observation of `(generation, per-shard epoch vector)` —
    /// both read from the same immutable snapshot, never torn across a
    /// concurrent apply's publication.
    pub fn shard_epochs(&self) -> (u64, Vec<u64>) {
        let core = self.snapshot();
        (core.epoch, core.shard_epochs.clone())
    }

    /// Resolved shard count `S`.
    pub fn num_shards(&self) -> usize {
        self.snapshot().reader.num_shards()
    }

    /// Rebalance rounds executed since construction.
    pub fn rebalances(&self) -> u64 {
        lock_ok(&self.writer).rebalances
    }

    /// One `(epoch, live, tombstones)` row per shard of the
    /// current snapshot — `S` rows.
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

    /// The surviving sites of the current epoch, densely in ascending-id
    /// order (index `dense` is site [`site_ids`](Self::site_ids)`[dense]`).
    /// Gathered from the shards on every call, `O(n)`: an oracle's input,
    /// never read on the serving path.
    pub fn live_set(&self) -> DiscreteSet {
        self.snapshot().reader.live_set()
    }

    /// Stable ids of the current epoch's live sites, ascending.
    pub fn site_ids(&self) -> Vec<SiteId> {
        self.snapshot().reader.live_ids()
    }

    /// Shape of the dynamic structure the current epoch serves from,
    /// summed over the shards. Always `Some`: every engine holds one from
    /// construction.
    pub fn dynamic_stats(&self) -> Option<DynamicStats> {
        Some(self.snapshot().reader.stats())
    }

    /// Applies a batch of site updates and publishes a new epoch snapshot.
    ///
    /// Applies serialize on the writer lock; concurrent
    /// [`run_batch`](Self::run_batch) calls are never blocked — a batch
    /// already in flight keeps serving the epoch it started on (its
    /// [`ExecStats::epoch`] says which), and the next batch picks up the
    /// new snapshot. The partitioner splits the batch by shard (inserts
    /// claim their ids first, in update order); each shard whose sub-batch
    /// changes something is copied and advanced by the Bentley–Saxe carry
    /// rule — **not** rebuilt — several shards in parallel on the worker
    /// pool, and untouched shards are shared with the old snapshot. An
    /// apply that pushes the live-count imbalance past the
    /// rebalance ratio also runs the migration round before publishing, so
    /// the user's updates and the migrations land in **one** generation.
    ///
    /// An apply that changes nothing — an empty batch, or one whose every
    /// update missed — returns the *current* epoch and does not publish a
    /// new snapshot, so warm cache entries survive no-op ticks.
    pub fn apply(&self, updates: &[Update]) -> ApplyReport {
        let _span = uncertain_obs::span!("engine.apply");
        uncertain_obs::counter!("engine.apply.updates").add(updates.len() as u64);
        let (mut router, old) = match self.writer.lock() {
            Ok(router) => (router, self.snapshot()),
            Err(poisoned) => {
                // An apply panicked after routing: the router may file ids
                // under shards the published snapshot never saw them move
                // to. Re-derive its state from what was published.
                let mut router = poisoned.into_inner();
                let old = self.snapshot();
                router.resync(old.reader.shards());
                self.writer.clear_poison();
                (router, old)
            }
        };
        let mut shards: Vec<Arc<DynamicSet>> = old.reader.shards().to_vec();
        let routed = router.route(updates, shards.len());
        let mut report = ApplyReport {
            epoch: old.epoch,
            inserted: routed.inserted,
            removed: 0,
            moved: 0,
            missed: routed.missed,
            live: 0,
            tombstones: 0,
            merges: 0,
            global_rebuilds: 0,
            sites_rebuilt: 0,
        };
        // Effectiveness pre-check, per shard: inserts always change a
        // shard; removes and moves only if the id is live there. Skipping
        // a shard *before* copying it keeps no-op sub-batches (replays of
        // stale ids) from paying an O(live/S) clone each.
        let mut jobs: Vec<(usize, Part)> = vec![];
        for (s, part) in routed.parts.into_iter().enumerate() {
            let effective = part.0.iter().any(|u| match &**u {
                Update::Insert(_) => true,
                Update::Remove(id) | Update::Move { id, .. } => shards[s].contains(*id),
            });
            if effective {
                jobs.push((s, part));
            } else {
                report.missed += part.0.len();
            }
        }
        if jobs.is_empty() {
            report.live = old.reader.len();
            report.tombstones = old.reader.tombstones();
            return report;
        }
        let mut done: Vec<(UpdateOutcome, RebuildStats)> = vec![];
        if jobs.len() > 1 && self.pool.len() > 1 {
            let dispatched = jobs.len();
            let (tx, rx) = std::sync::mpsc::channel();
            for (s, part) in jobs {
                let (tx, mut set) = (tx.clone(), Arc::clone(&shards[s]));
                // Pool jobs outlive this borrow of `updates`: they take
                // their sub-batch by value.
                let part: Part<'static> = (
                    part.0
                        .into_iter()
                        .map(|u| Cow::Owned(u.into_owned()))
                        .collect(),
                    part.1,
                );
                self.pool.execute(move || {
                    let r = apply_shard(s, &mut set, &part);
                    let _ = tx.send((s, set, r));
                });
            }
            drop(tx);
            for (s, set, r) in rx {
                shards[s] = set;
                done.push(r);
            }
            // A shard job that panicked sent nothing: fail the whole apply
            // (publishing nothing) rather than drop its updates silently.
            assert_eq!(done.len(), dispatched, "a shard apply job panicked");
        } else {
            for (s, part) in &jobs {
                done.push(apply_shard(*s, &mut shards[*s], part));
            }
        }
        for (outcome, _) in &done {
            report.removed += outcome.removed;
            report.moved += outcome.moved;
            report.missed += outcome.missed;
        }
        // A cross-shard move ran as a remove plus a same-id insert; to the
        // caller it is exactly one move.
        report.removed -= routed.cross_moved;
        report.moved += routed.cross_moved;
        if let Some(migrations) = router.rebalance(&shards) {
            for (s, part) in &migrations {
                done.push(apply_shard(*s, &mut shards[*s], part));
            }
        }
        for (_, delta) in &done {
            report.merges += delta.merges;
            report.global_rebuilds += delta.global_rebuilds;
            report.sites_rebuilt += delta.sites_rebuilt;
        }

        // Publish: one new core carrying every changed shard — the single
        // pointer swap is what makes straddling batches and migrations
        // atomic for readers.
        let changed: Vec<bool> = (0..shards.len())
            .map(|s| !Arc::ptr_eq(&shards[s], &old.reader.shards()[s]))
            .collect();
        let shard_epochs = (0..shards.len())
            .map(|s| old.shard_epochs[s] + u64::from(changed[s]))
            .collect();
        let core = EngineCore::new(
            old.epoch + 1,
            shard_epochs,
            shards,
            Arc::clone(&old.cache),
            old.config,
        );
        report.epoch = core.epoch;
        report.live = core.reader.len();
        report.tombstones = core.reader.tombstones();
        record_apply_gauges(&core, &changed);
        *write_ok(&self.core) = Arc::new(core);
        uncertain_obs::counter!("engine.apply.effective").inc();
        report
    }

    /// Resolved worker count.
    pub fn threads(&self) -> usize {
        self.pool.len()
    }

    /// Current number of cached entries.
    pub fn cache_len(&self) -> usize {
        self.snapshot().cache.len()
    }

    /// Executes one batch: answers are returned in request order,
    /// alongside the plan taken and the execution stats. The whole batch is
    /// served from one epoch snapshot ([`ExecStats::epoch`]).
    pub fn run_batch(&self, requests: &[QueryRequest]) -> BatchResponse {
        let t0 = Instant::now();
        let spans_before = uncertain_obs::registry().span_totals();
        let core = self.snapshot();
        let kernels_before = kernel_stats();
        let nonzero_count = requests.iter().filter(|r| r.is_nonzero()).count();
        let plan = BatchPlan {
            nonzero: (nonzero_count > 0).then_some(NonzeroPlan::Dynamic),
            quant: (nonzero_count < requests.len()).then_some(QuantPlan::Merged),
        };
        let counters = Arc::new(BatchCounters::default());

        let (results, worker_busy) = if requests.is_empty() {
            (vec![], vec![])
        } else if self.pool.len() == 1 || requests.len() == 1 {
            // Single worker: run inline, skipping the channel round-trip.
            let e0 = Instant::now();
            let results = requests
                .iter()
                .map(|r| exec_one(&core, *r, &counters))
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
                        .map(|r| exec_one(&core, *r, &counters))
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
            // Panics are caught per-request inside `exec_one`, so chunk
            // jobs normally always report. If a job is ever lost anyway
            // (a panic outside the per-request guard), degrade to typed
            // failures for exactly that chunk instead of unwinding the
            // caller — under the network server the caller is the batcher
            // thread, and its death would kill the whole serving process.
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
        let spans =
            uncertain_obs::span_delta(&spans_before, &uncertain_obs::registry().span_totals());
        let kernels = kernel_stats().since(&kernels_before);
        BatchResponse {
            results,
            stats: ExecStats {
                plan,
                built: vec![],
                wall,
                batch_len: requests.len(),
                cache_hits: counters.hits.load(Ordering::Relaxed),
                cache_misses: counters.misses.load(Ordering::Relaxed),
                workers: self.pool.len(),
                epoch: core.epoch,
                live_sites: core.reader.len(),
                tombstones: core.reader.tombstones(),
                shard_stats: core.shard_stats(),
                worker_busy,
                kernel_lane_dists: kernels.lane_dists,
                kernel_scalar_dists: kernels.scalar_dists,
                quant_merged_evals: counters.quant_merged.load(Ordering::Relaxed),
                quant_fresh_evals: 0,
                quant_bucket_touches: counters.bucket_touches.load(Ordering::Relaxed),
                shards_touched: counters.shards_touched.load(Ordering::Relaxed),
                shard_reads: counters.shard_reads.load(Ordering::Relaxed),
                spans,
            },
        }
    }

    /// Probability estimates for a single query through the evaluator and
    /// cache (the path Threshold/TopK answers are derived from). Dense over
    /// the current epoch's live sites in [`site_ids`](Self::site_ids) order
    /// — the served answer's positive estimates scattered into zeros, so
    /// `O(n)`. Exposed for tests and calibration.
    pub fn estimates(&self, q: Point) -> Vec<f64> {
        let core = self.snapshot();
        let ranked = quant_ranked(&core, q, &BatchCounters::default());
        let ids = core.reader.live_ids();
        let mut pi = vec![0.0; ids.len()];
        for &(id, p) in ranked.iter() {
            let dense = ids.binary_search(&id).expect("answer ids are live");
            pi[dense] = p;
        }
        pi
    }
}

/// Publishes one apply's serving state to the registry: engine-wide
/// epoch/live/tombstone gauges plus per-shard gauges for every shard the
/// apply changed.
fn record_apply_gauges(core: &EngineCore, changed: &[bool]) {
    uncertain_obs::gauge!("engine.epoch").set(core.epoch as f64);
    uncertain_obs::gauge!("engine.live_sites").set(core.reader.len() as f64);
    uncertain_obs::gauge!("engine.tombstones").set(core.reader.tombstones() as f64);
    let registry = uncertain_obs::registry();
    for (s, d) in core.reader.shards().iter().enumerate() {
        if !changed[s] {
            continue;
        }
        let gauge = |name: &str, v: f64| registry.gauge(&format!("{name}.shard{s}")).set(v);
        gauge("engine.epoch", core.shard_epochs[s] as f64);
        gauge("engine.live_sites", d.len() as f64);
        gauge("engine.tombstones", d.tombstones() as f64);
        let b = d.support_aabb();
        if !b.is_empty() {
            gauge("shard.aabb.width", b.width());
            gauge("shard.aabb.height", b.height());
        }
    }
}

/// Executes one request with per-request panic isolation: a panicking
/// evaluation (NaN coordinates violating a total-order assumption, a
/// pathological input tripping an internal assertion) yields a typed
/// [`QueryResult::Failed`] instead of unwinding through the worker. The
/// panic is contained *before* it can reach any shared lock, so nothing is
/// poisoned and the rest of the batch — and every later batch — answers
/// normally.
fn exec_one(core: &EngineCore, req: QueryRequest, counters: &BatchCounters) -> QueryResult {
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        exec_one_inner(core, req, counters)
    }));
    out.unwrap_or_else(|payload| {
        uncertain_obs::counter!("engine.exec.panics").inc();
        QueryResult::Failed {
            reason: panic_reason(payload.as_ref()),
        }
    })
}

fn exec_one_inner(core: &EngineCore, req: QueryRequest, counters: &BatchCounters) -> QueryResult {
    // Non-finite inputs violate the total-order assumptions every plan
    // shares (and would poison cache keys), and a threshold `τ ≤ 0` would
    // admit sites with `π = 0`; fail them deterministically here — in every
    // build profile — so `exec_one` turns the panic into a typed, uncached
    // `Failed` instead of the answer depending on NaN comparison accidents.
    // The wire protocol rejects them earlier; this guards direct
    // `run_batch` callers.
    let (q, tau) = match req {
        QueryRequest::Nonzero { q } | QueryRequest::TopK { q, .. } => (q, 1.0),
        QueryRequest::Threshold { q, tau } => (q, tau),
    };
    assert!(
        q.x.is_finite() && q.y.is_finite() && tau.is_finite(),
        "non-finite query input: q=({}, {}), tau={tau}",
        q.x,
        q.y
    );
    assert!(tau > 0.0, "threshold tau must be positive, got {tau}");
    match req {
        QueryRequest::Nonzero { q } => {
            let _trace = uncertain_obs::trace::start("nonzero");
            // Cached vectors hold stable site ids.
            let key = CacheKey::nonzero(core.epoch, q);
            if core.cache.enabled() {
                if let Some(CachedValue::Nonzero(ids)) = core.cache.get(&key) {
                    counters.hits.fetch_add(1, Ordering::Relaxed);
                    return QueryResult::Nonzero(ids.to_vec());
                }
                counters.misses.fetch_add(1, Ordering::Relaxed);
            }
            // Opened after the cache lookup, so the execution histogram
            // times actual evaluations only. Scatter-gather over the shards,
            // already in ascending stable site ids; box pruning decides how
            // many shards it visits.
            let _exec = uncertain_obs::span!("engine.exec.nonzero.dynamic");
            let (ids, touched) = core.reader.nonzero_touched(q);
            counters.touched(touched);
            core.cache
                .insert(key, CachedValue::Nonzero(Arc::from(ids.as_slice())));
            QueryResult::Nonzero(ids)
        }
        QueryRequest::Threshold { q, tau } => {
            let _trace = uncertain_obs::trace::start("threshold");
            // τ > 0, so the sites with `π ≥ τ` are a prefix of the ranked
            // positive estimates.
            let ranked = quant_ranked(core, q, counters);
            let end = ranked.partition_point(|&(_, p)| p >= tau);
            QueryResult::Ranked {
                items: ranked[..end].to_vec(),
                guarantee: Guarantee::Exact,
            }
        }
        QueryRequest::TopK { q, k } => {
            let _trace = uncertain_obs::trace::start("topk");
            let ranked = quant_ranked(core, q, counters);
            QueryResult::Ranked {
                items: ranked[..k.min(ranked.len())].to_vec(),
                guarantee: Guarantee::Exact,
            }
        }
    }
}

/// Decreasing estimate, ties by increasing id — the same order the
/// single-threaded `uncertain_nn::queries` helpers produce. Ids are unique,
/// so the unstable sort (which needs no merge buffer) gives that one order,
/// and `total_cmp` cannot panic on a corrupt estimate.
fn sort_ranked(items: &mut [(usize, f64)]) {
    items.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
}

/// The cached quantification path: returns the query's **ranked answer**
/// — every positive estimate as `(id, π)`, by decreasing estimate then
/// increasing id. TopK is a k-prefix of it and Threshold a prefix by
/// estimate, so one entry serves both, and its size is the answer's
/// (`|NN≠0(q)|` at most, by Lemma 2.1), not `n`.
fn quant_ranked(core: &EngineCore, q: Point, counters: &BatchCounters) -> Arc<Vec<(SiteId, f64)>> {
    let key = CacheKey::quant(core.epoch, q);
    if core.cache.enabled() {
        if let Some(CachedValue::Quant(ranked)) = core.cache.get(&key) {
            counters.hits.fetch_add(1, Ordering::Relaxed);
            return ranked;
        }
        counters.misses.fetch_add(1, Ordering::Relaxed);
    }
    // Same convention as the nonzero span: opened after the cache lookup,
    // so the histogram times evaluations, not hits.
    let _exec = uncertain_obs::span!("engine.exec.quant.merged");
    let (mut pi, st) = core.reader.quantification_merged_with_stats(q);
    counters.touched(st.shards_touched);
    counters.quant_merged.fetch_add(1, Ordering::Relaxed);
    counters
        .bucket_touches
        .fetch_add(st.buckets, Ordering::Relaxed);
    sort_ranked(&mut pi);
    let ranked = Arc::new(pi);
    core.cache
        .insert(key, CachedValue::Quant(Arc::clone(&ranked)));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use uncertain_nn::model::DiscreteUncertainPoint;
    use uncertain_nn::quantification::exact::quantification_discrete;
    use uncertain_nn::queries::{threshold_nn, top_k_probable, ExactQuantifier};
    use uncertain_nn::workload;

    fn assert_send_sync<T: Send + Sync>() {}

    /// Checks every answer bit for bit against the core library over the
    /// engine's current live set — the oracle every shard count must
    /// reproduce: `NN≠0` by Lemma 2.1 over the live set, probabilities by
    /// the exact Eq. (2) sweep, both mapped to stable ids.
    pub(crate) fn assert_oracle(eng: &Engine, batch: &[QueryRequest], results: &[QueryResult]) {
        let set = eng.live_set();
        let ids = eng.site_ids();
        assert_eq!(batch.len(), results.len());
        for (req, res) in batch.iter().zip(results) {
            let q = req.point();
            let (tau, k) = match (req, res) {
                (QueryRequest::Nonzero { .. }, QueryResult::Nonzero(got)) => {
                    let mut want: Vec<usize> =
                        set.nonzero_nn(q).into_iter().map(|d| ids[d]).collect();
                    want.sort_unstable();
                    assert_eq!(got, &want, "NN≠0 at {q}");
                    continue;
                }
                (QueryRequest::Threshold { tau, .. }, QueryResult::Ranked { .. }) => {
                    (Some(*tau), usize::MAX)
                }
                (QueryRequest::TopK { k, .. }, QueryResult::Ranked { .. }) => (None, *k),
                other => panic!("shape mismatch: {other:?}"),
            };
            let QueryResult::Ranked { items, guarantee } = res else {
                unreachable!()
            };
            assert_eq!(*guarantee, Guarantee::Exact);
            let mut want: Vec<(usize, f64)> = quantification_discrete(&set, q)
                .into_iter()
                .enumerate()
                .filter(|&(_, p)| tau.map_or(p > 0.0, |t| p >= t))
                .collect();
            sort_ranked(&mut want);
            want.truncate(k);
            assert_eq!(items.len(), want.len(), "ranked length at {q}");
            for (&(id, p), &(dense, w)) in items.iter().zip(&want) {
                assert_eq!(id, ids[dense], "ranked id at {q}");
                assert_eq!(p.to_bits(), w.to_bits(), "π_{id} at {q}");
            }
        }
    }

    /// Non-finite inputs and non-positive thresholds fail typed, uncached,
    /// at every shard count — they never reach
    /// a plan's total-order assumptions or a cache key, and `τ ≤ 0` never
    /// returns the sites with `π = 0`.
    #[test]
    fn invalid_inputs_fail_uncached_at_every_shard_count() {
        let set = workload::random_discrete_set(60, 3, 6.0, 71);
        let nan = Point::new(f64::NAN, 1.0);
        let ok = Point::new(0.5, -0.5);
        let batch = [
            QueryRequest::Nonzero { q: nan },
            QueryRequest::TopK { q: nan, k: 3 },
            QueryRequest::Threshold {
                q: ok,
                tau: f64::NAN,
            },
            QueryRequest::Threshold { q: nan, tau: 0.2 },
            QueryRequest::Threshold { q: ok, tau: 0.0 },
            QueryRequest::Threshold { q: ok, tau: -0.5 },
        ];
        for shards in [1, 3] {
            let eng = Engine::new(
                set.clone(),
                EngineConfig {
                    shards: Some(shards),
                    ..EngineConfig::default()
                },
            );
            let cached = eng.cache_len();
            for res in eng.run_batch(&batch).results {
                assert!(
                    matches!(res, QueryResult::Failed { .. }),
                    "S={shards}: got {res:?}"
                );
            }
            assert_eq!(eng.cache_len(), cached, "S={shards}");
        }
    }

    /// Tied estimates order by increasing id, whatever order they arrive
    /// in — also past the length where a sort stops using insertion sort.
    #[test]
    fn sort_ranked_orders_ties_by_increasing_id() {
        let mut items = vec![
            (9, 0.25),
            (4, 0.5),
            (7, 0.25),
            (1, 0.25),
            (3, 0.5),
            (2, 0.125),
        ];
        sort_ranked(&mut items);
        assert_eq!(
            items,
            [
                (3, 0.5),
                (4, 0.5),
                (1, 0.25),
                (7, 0.25),
                (9, 0.25),
                (2, 0.125)
            ]
        );
        let mut long: Vec<(usize, f64)> = (0..200)
            .rev()
            .map(|id| (id, [0.5, 0.25, 0.125][id % 3]))
            .collect();
        sort_ranked(&mut long);
        assert!(long
            .windows(2)
            .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0)));
        assert_eq!(long[0], (0, 0.5));
        assert_eq!(long[199], (197, 0.125));
    }

    #[test]
    fn engine_is_send_sync() {
        assert_send_sync::<Engine>();
        assert_send_sync::<EngineCore>();
    }

    fn engine(n: usize, config: EngineConfig) -> (DiscreteSet, Engine) {
        let set = workload::random_discrete_set(n, 3, 6.0, 42);
        (set.clone(), Engine::new(set, config))
    }

    #[test]
    fn batch_answers_match_direct_calls() {
        let (set, eng) = engine(30, EngineConfig::default());
        let queries = workload::random_queries(24, 60.0, 9);
        let mut batch = vec![];
        for &q in &queries {
            batch.push(QueryRequest::Nonzero { q });
            batch.push(QueryRequest::Threshold { q, tau: 0.25 });
            batch.push(QueryRequest::TopK { q, k: 3 });
        }
        let resp = eng.run_batch(&batch);
        assert_eq!(resp.results.len(), batch.len());
        let exact = ExactQuantifier(&set);
        for (req, res) in batch.iter().zip(&resp.results) {
            match (req, res) {
                (QueryRequest::Nonzero { q }, QueryResult::Nonzero(ids)) => {
                    let mut direct = set.nonzero_nn(*q);
                    direct.sort_unstable();
                    assert_eq!(ids, &direct);
                }
                (QueryRequest::Threshold { q, tau }, QueryResult::Ranked { items, .. }) => {
                    assert_eq!(items, &threshold_nn(&exact, *q, *tau));
                }
                (QueryRequest::TopK { q, k }, QueryResult::Ranked { items, .. }) => {
                    assert_eq!(items, &top_k_probable(&exact, *q, *k));
                }
                other => panic!("shape mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn fresh_engine_serves_the_dynamic_plans_from_epoch_0() {
        let set = workload::random_discrete_set(3000, 3, 4.0, 103);
        let eng = Engine::new(set, EngineConfig::default());
        let mut batch = vec![];
        for q in workload::random_queries(32, 60.0, 104) {
            batch.push(QueryRequest::Nonzero { q });
            batch.push(QueryRequest::TopK { q, k: 3 });
        }
        let resp = eng.run_batch(&batch);
        assert_eq!(resp.stats.epoch, 0);
        assert_eq!(resp.stats.plan.summary(), "nonzero:dynamic + quant:merged");
        assert_eq!(resp.stats.quant_fresh_evals, 0);
        assert!(resp.stats.built.is_empty(), "built {:?}", resp.stats.built);
        assert_oracle(&eng, &batch, &resp.results);
        // The bulk load happened in `new`: the first apply rebuilds nothing.
        let report = eng.apply(&[Update::Remove(0)]);
        assert_eq!(report.epoch, 1);
        assert_eq!(report.sites_rebuilt, 0);
    }

    /// A cached merged answer is the ranked positive estimates — by
    /// Lemma 2.1 a subset of `NN≠0(q)`, so its size never depends on `n`.
    #[test]
    fn cached_merged_answers_lie_in_nonzero() {
        let (_, eng) = engine(500, EngineConfig::default());
        let core = eng.snapshot();
        let counters = BatchCounters::default();
        for q in workload::random_queries(16, 60.0, 5) {
            let ranked = quant_ranked(&core, q, &counters);
            let nonzero = core.reader.nonzero(q);
            assert!(!ranked.is_empty() && ranked.len() <= nonzero.len());
            assert!(
                ranked
                    .iter()
                    .all(|(id, p)| *p > 0.0 && nonzero.binary_search(id).is_ok()),
                "answer ids outside NN≠0 at {q}"
            );
            assert!(
                ranked
                    .windows(2)
                    .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0)),
                "answer order at {q}"
            );
        }
        assert_eq!(counters.quant_merged.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn apply_publishes_new_epoch_with_stable_ids_and_fresh_answers() {
        let (set, eng) = engine(25, EngineConfig::default());
        let q = Point::new(0.0, 0.0);
        let batch = [QueryRequest::Nonzero { q }, QueryRequest::TopK { q, k: 4 }];
        let r0 = eng.run_batch(&batch);
        assert_eq!(r0.stats.epoch, 0);
        assert_eq!(r0.stats.tombstones, 0);
        assert_eq!(r0.stats.live_sites, set.len());

        // Remove every currently-possible NN and insert a certain site at q.
        let QueryResult::Nonzero(old_ids) = r0.results[0].clone() else {
            panic!("shape");
        };
        let mut updates: Vec<Update> = old_ids.iter().map(|&i| Update::Remove(i)).collect();
        updates.push(Update::Insert(DiscreteUncertainPoint::certain(q)));
        let report = eng.apply(&updates);
        assert_eq!(report.epoch, 1);
        assert_eq!(report.removed, old_ids.len());
        assert_eq!(report.inserted, vec![set.len()]);
        assert_eq!(report.live, set.len() - old_ids.len() + 1);
        assert_eq!(eng.epoch(), 1);

        let r1 = eng.run_batch(&batch);
        assert_eq!(r1.stats.epoch, 1);
        // The inserted certain site at q is now the unique possible NN, and
        // the epoch-stamped cache never replays the dead epoch's answer.
        assert_eq!(r1.results[0], QueryResult::Nonzero(vec![set.len()]));
        let QueryResult::Ranked { items, .. } = &r1.results[1] else {
            panic!("shape");
        };
        assert_eq!(items[0], (set.len(), 1.0));
        // Full consistency with a fresh static build over the survivors.
        assert_eq!(eng.site_ids().len(), report.live);
        assert_oracle(&eng, &batch, &r1.results);
        // Dead ids stay dead; unknown ids are reported as missed — and an
        // apply that changes nothing keeps the epoch (and its warm cache).
        let report2 = eng.apply(&[Update::Remove(old_ids[0]), Update::Remove(10_000)]);
        assert_eq!(report2.epoch, 1, "all-missed apply must not bump the epoch");
        assert_eq!(report2.missed, 2);
        assert_eq!(report2.live, report.live);
        let report3 = eng.apply(&[]);
        assert_eq!(report3.epoch, 1, "empty apply must not bump the epoch");
        let warm = eng.run_batch(&batch);
        assert_eq!(warm.stats.epoch, 1);
        assert_eq!(
            warm.stats.cache_hits,
            batch.len(),
            "no-op applies keep the cache warm"
        );
        assert_eq!(warm.results, r1.results);
    }

    #[test]
    fn dynamic_plan_serves_after_updates_and_matches_brute() {
        let set = workload::random_discrete_set(3000, 3, 4.0, 77);
        let eng = Engine::new(set, EngineConfig::default());
        let mut updates: Vec<Update> = (0..60).map(Update::Remove).collect();
        for q in workload::random_queries(20, 50.0, 78) {
            updates.push(Update::Insert(DiscreteUncertainPoint::certain(q)));
        }
        let report = eng.apply(&updates);
        assert!(report.merges > 0);
        assert_eq!(
            report.tombstones as usize + report.live,
            3000 - 60 + 20 + 60
        );
        let batch: Vec<QueryRequest> = workload::random_queries(128, 60.0, 79)
            .into_iter()
            .map(|q| QueryRequest::Nonzero { q })
            .collect();
        let resp = eng.run_batch(&batch);
        assert_eq!(resp.stats.plan.nonzero, Some(NonzeroPlan::Dynamic));
        assert!(resp.stats.built.is_empty(), "dynamic plan builds nothing");
        assert_oracle(&eng, &batch, &resp.results);
        assert!(eng.dynamic_stats().unwrap().buckets >= 1);
    }

    #[test]
    fn merged_quant_plan_serves_after_updates_and_matches_fresh_bitwise() {
        let set = workload::random_discrete_set(3000, 3, 4.0, 99);
        let eng = Engine::new(set, EngineConfig::default());
        let mut updates: Vec<Update> = (0..40).map(Update::Remove).collect();
        for q in workload::random_queries(10, 50.0, 98) {
            updates.push(Update::Insert(DiscreteUncertainPoint::certain(q)));
        }
        eng.apply(&updates);
        let batch: Vec<QueryRequest> = workload::random_queries(48, 60.0, 97)
            .into_iter()
            .map(|q| QueryRequest::TopK { q, k: 5 })
            .collect();
        let resp = eng.run_batch(&batch);
        assert_eq!(resp.stats.plan.quant, Some(QuantPlan::Merged));
        assert_eq!(resp.stats.quant_merged_evals, batch.len());
        assert_eq!(resp.stats.quant_fresh_evals, 0);
        assert!(resp.stats.quant_bucket_touches >= batch.len());

        // Bit-identical to the exact sweep over the surviving sites.
        assert_oracle(&eng, &batch, &resp.results);

        // A second identical batch is all cache hits — and therefore
        // executes neither evaluator.
        let warm = eng.run_batch(&batch);
        assert_eq!(warm.stats.cache_hits, batch.len());
        assert_eq!(warm.stats.quant_merged_evals, 0);
        assert_eq!(warm.results, resp.results);
        assert_eq!(warm.stats.quant_bucket_touches, 0);
    }

    #[test]
    fn apply_and_dynamic_plans_never_materialize_the_flat_set() {
        let set = workload::random_discrete_set(3000, 3, 4.0, 101);
        let eng = Engine::new(set, EngineConfig::default());
        // Nonzero batches (dynamic buckets) and quant batches (merged
        // path) both answer in stable ids, before and after an apply.
        let mut batch: Vec<QueryRequest> = vec![];
        for q in workload::random_queries(32, 60.0, 102) {
            batch.push(QueryRequest::Nonzero { q });
            batch.push(QueryRequest::Threshold { q, tau: 0.2 });
        }
        let serve_dynamic = || {
            let resp = eng.run_batch(&batch);
            assert_eq!(resp.stats.plan.nonzero, Some(NonzeroPlan::Dynamic));
            assert_eq!(resp.stats.plan.quant, Some(QuantPlan::Merged));
            assert_eq!(resp.stats.quant_fresh_evals, 0);
            assert_oracle(&eng, &batch, &resp.results);
        };
        serve_dynamic();
        let updates: Vec<Update> = (0..30).map(Update::Remove).collect();
        eng.apply(&updates);
        serve_dynamic();
    }

    #[test]
    fn repeated_batch_hits_cache_and_reuses_structures() {
        let (_, eng) = engine(25, EngineConfig::default());
        let batch: Vec<QueryRequest> = workload::random_queries(16, 50.0, 3)
            .into_iter()
            .map(|q| QueryRequest::Threshold { q, tau: 0.2 })
            .collect();
        let first = eng.run_batch(&batch);
        assert_eq!(first.stats.cache_hits, 0);
        assert_eq!(first.stats.cache_misses, batch.len());
        let second = eng.run_batch(&batch);
        assert_eq!(second.stats.cache_hits, batch.len());
        assert!(second.stats.built.is_empty());
        assert_eq!(first.results, second.results);
        assert!((second.stats.cache_hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let set = workload::random_discrete_set(40, 3, 6.0, 11);
        let mk = |threads| {
            Engine::new(
                set.clone(),
                EngineConfig {
                    threads: Some(threads),
                    ..EngineConfig::default()
                },
            )
        };
        let (e1, e4) = (mk(1), mk(4));
        let mut batch = vec![];
        for q in workload::random_queries(40, 60.0, 12) {
            batch.push(QueryRequest::Nonzero { q });
            batch.push(QueryRequest::TopK { q, k: 2 });
        }
        let (r1, r4) = (e1.run_batch(&batch), e4.run_batch(&batch));
        assert_eq!(r1.results, r4.results);
        // Under UNC_ENGINE_THREADS the pool sizes collapse to the env value;
        // without it they reflect the explicit overrides.
        if std::env::var(THREADS_ENV).is_err() {
            assert_eq!(e1.threads(), 1);
            assert_eq!(e4.threads(), 4);
        }
    }

    #[test]
    fn empty_batch_and_empty_set() {
        let (_, eng) = engine(10, EngineConfig::default());
        let resp = eng.run_batch(&[]);
        assert!(resp.results.is_empty());
        assert_eq!(resp.stats.plan.summary(), "idle");

        let empty = Engine::new(DiscreteSet::default(), EngineConfig::default());
        let resp = empty.run_batch(&[
            QueryRequest::Nonzero {
                q: Point::new(0.0, 0.0),
            },
            QueryRequest::TopK {
                q: Point::new(0.0, 0.0),
                k: 3,
            },
        ]);
        assert_eq!(
            resp.results[0],
            QueryResult::Nonzero(vec![]),
            "empty set has no nonzero NNs"
        );
        let QueryResult::Ranked { items, .. } = &resp.results[1] else {
            panic!("shape");
        };
        assert!(items.is_empty());
    }

    #[test]
    fn stats_are_populated() {
        let (_, eng) = engine(50, EngineConfig::default());
        let batch: Vec<QueryRequest> = workload::random_queries(64, 60.0, 13)
            .into_iter()
            .map(|q| QueryRequest::Nonzero { q })
            .collect();
        let resp = eng.run_batch(&batch);
        let s = &resp.stats;
        assert_eq!(s.batch_len, 64);
        assert_eq!(s.workers, eng.threads());
        assert!(!s.worker_busy.is_empty() && s.worker_busy.len() <= s.workers.max(1));
        assert!(s.worker_busy.iter().any(|d| *d > Duration::ZERO));
        assert!(s.wall > Duration::ZERO);
        assert!(s.throughput_qps() > 0.0);
        assert!((0.0..=1.0).contains(&s.worker_utilization()));
    }

    #[test]
    fn batches_report_kernel_stats() {
        // Quantification evaluates every site-location distance through the
        // SoA slab kernels, so a quant batch must account nonzero kernel
        // distances (mostly in chunked lanes at this location count).
        let set = workload::random_discrete_set(64, 4, 8.0, 9);
        let eng = Engine::new(set, EngineConfig::default());
        let batch: Vec<QueryRequest> = workload::random_queries(32, 60.0, 10)
            .iter()
            .map(|&q| QueryRequest::TopK { q, k: 1 })
            .collect();
        let s = eng.run_batch(&batch).stats;
        assert!(
            s.kernel_lane_dists + s.kernel_scalar_dists > 0,
            "quant batches should evaluate distances through the SoA kernels"
        );
        assert!((0.0..=1.0).contains(&s.kernel_lane_fraction()));
    }
}
