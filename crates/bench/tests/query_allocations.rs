//! Allocation gate for the warm query path: a served query allocates what
//! it returns and nothing else.
//!
//! The sweep keeps its drawn-site state and tie batch in a per-thread
//! scratch, the collect and the scatter order reuse per-thread buffers,
//! and every answer is built once at its exact length. So, averaged over
//! warm queries of a churned `churn-50k`-shaped set (uniform centers at
//! density 2, three locations per site in a cluster of diameter 5):
//!
//! * a single [`DynamicSet`] and a 4-shard [`ShardedReader`] make at most
//!   one allocation per `nonzero` and per `quantification_merged_with_stats`
//!   query — the returned vector. That holds from the first query after an
//!   apply that carries and after a compaction: the new buckets were built
//!   whole by the write, so no query builds a tree;
//! * the engine (`run_batch`, one worker, cache on, every query a miss)
//!   makes at most three per query beyond a per-batch constant: the answer,
//!   its cache entry, and the TopK/Threshold prefix it serves;
//! * a query whose sweep draws 65 536 sites leaves at most
//!   [`KEPT_AFTER_HUGE_SWEEP`] bytes more live heap behind than before it:
//!   the scratch gives back what it grew past its kept room.
//!
//! The binary installs [`CountingAlloc`] and holds a single test, so no
//! sibling test allocates while it counts.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uncertain_bench::churn::{ChurnConfig, ChurnStream};
use uncertain_bench::measure::{heap_counters, live_heap_bytes, CountingAlloc};
use uncertain_engine::{Engine, EngineConfig, QueryRequest, QueryResult};
use uncertain_geom::Point;
use uncertain_nn::dynamic::shard::ShardedReader;
use uncertain_nn::dynamic::{DynamicConfig, DynamicSet, SiteId, Update};
use uncertain_nn::model::{DiscreteSet, DiscreteUncertainPoint};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Sites at the start, before churn.
const N: usize = 8_192;
/// Sites per unit area, as in `churn-50k`.
const DENSITY: f64 = 2.0;
const K: usize = 3;
const CLUSTER: f64 = 5.0;
/// Churn rounds of 1% of the live sites each, so every set holds several
/// buckets of different ages.
const ROUNDS: usize = 20;
const RATE: f64 = 0.01;
/// Queries per measured pass.
const QUERIES: usize = 256;
/// Engine allocations per batch that do not depend on its length, past
/// those of an empty batch: the result vector, plus room for a scratch
/// buffer to grow to a query larger than every warm-up query.
const PER_BATCH: u64 = 16;
/// Live heap a huge sweep may leave behind: the room the sweep scratch
/// keeps for 2^14 drawn sites (its state, its key map and its tie batch,
/// about 1.3 MB), with slack. Without the shrink it would keep about
/// 5 MB for the 65 536 sites drawn.
const KEPT_AFTER_HUGE_SWEEP: i64 = 2 << 20;

fn side() -> f64 {
    (N as f64 / DENSITY).sqrt()
}

fn site(rng: &mut StdRng) -> DiscreteUncertainPoint {
    let half = side() / 2.0;
    let r = CLUSTER / 2.0;
    let c = Point::new(rng.gen_range(-half..half), rng.gen_range(-half..half));
    let locs = (0..K)
        .map(|_| Point::new(c.x + rng.gen_range(-r..r), c.y + rng.gen_range(-r..r)))
        .collect();
    let weights = (0..K).map(|_| rng.gen_range(0.2..1.0)).collect();
    DiscreteUncertainPoint::new(locs, weights)
}

fn sites(seed: u64) -> DiscreteSet {
    let mut rng = StdRng::seed_from_u64(seed);
    DiscreteSet::new((0..N).map(|_| site(&mut rng)).collect())
}

fn points(count: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    let half = side() / 2.0;
    (0..count)
        .map(|_| Point::new(rng.gen_range(-half..half), rng.gen_range(-half..half)))
        .collect()
}

fn churn_stream(seed: u64) -> ChurnStream {
    let cfg = ChurnConfig {
        k: K,
        cluster_diameter: CLUSTER,
        span: side(),
        ..ChurnConfig::default()
    };
    ChurnStream::new(seed, cfg, (0..N).collect())
}

/// The shard of a site: a quadrant of its first location (one shard when
/// `shards == 1`).
fn shard_of(p: &DiscreteUncertainPoint, shards: usize) -> usize {
    let l = p.locations()[0];
    (usize::from(l.x >= 0.0) + 2 * usize::from(l.y >= 0.0)) % shards
}

/// `shards` sets over [`sites`], split by [`shard_of`], after [`ROUNDS`]
/// rounds of churn, and the next fresh id. Ids are global: inserts take
/// fresh ones, and a remove or a move goes to the shard that holds its id.
fn churned(shards: usize) -> (Vec<DynamicSet>, SiteId) {
    let set = sites(7);
    let mut owner: Vec<usize> = set.points.iter().map(|p| shard_of(p, shards)).collect();
    let mut sets: Vec<DynamicSet> = (0..shards)
        .map(|s| {
            let ids: Vec<SiteId> = (0..N).filter(|&id| owner[id] == s).collect();
            let pts = ids.iter().map(|&id| set.points[id].clone()).collect();
            DynamicSet::from_sites(ids, pts, DynamicConfig::default())
        })
        .collect();
    // The stream never learns the insert ids, so it removes and moves only
    // initial sites; that is churn enough to layer the buckets.
    let mut stream = churn_stream(8);
    for _ in 0..ROUNDS {
        let mut per_shard: Vec<(Vec<&Update>, Vec<SiteId>)> = vec![(vec![], vec![]); shards];
        let updates = stream.tick(RATE);
        for u in &updates {
            let s = match u {
                Update::Insert(p) => {
                    let s = shard_of(p, shards);
                    per_shard[s].1.push(owner.len());
                    owner.push(s);
                    s
                }
                Update::Remove(id) | Update::Move { id, .. } => owner[*id],
            };
            per_shard[s].0.push(u);
        }
        for (set, (ups, ids)) in sets.iter_mut().zip(&per_shard) {
            set.apply_with_insert_ids(ups.iter().copied(), ids);
        }
    }
    (sets, owner.len())
}

/// Inserts [`RATE`] · [`N`] new sites into `sets`, each into its
/// [`shard_of`] under a fresh id from `next` up, in one apply per set.
/// Every set that receives a site carries; asserts at least one did.
fn insert_wave(sets: &mut [DynamicSet], next: &mut SiteId, seed: u64) {
    let merges =
        |sets: &[DynamicSet]| -> u64 { sets.iter().map(|s| s.stats().rebuild.merges).sum() };
    let before = merges(sets);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut per_shard: Vec<(Vec<Update>, Vec<SiteId>)> = vec![(vec![], vec![]); sets.len()];
    for _ in 0..(RATE * N as f64) as usize {
        let p = site(&mut rng);
        let s = shard_of(&p, sets.len());
        per_shard[s].0.push(Update::Insert(p));
        per_shard[s].1.push(*next);
        *next += 1;
    }
    for (set, (ups, ids)) in sets.iter_mut().zip(&per_shard) {
        set.apply_with_insert_ids(ups, ids);
    }
    assert!(merges(sets) > before, "the wave carried nothing");
}

/// Allocations per call of `f` over `queries`, on a second pass after a
/// first that sizes every per-thread buffer they need.
fn allocs_per_query<R>(queries: &[Point], mut f: impl FnMut(Point) -> R) -> f64 {
    for &q in queries {
        std::hint::black_box(f(q));
    }
    first_allocs_per_query(queries, f)
}

/// Allocations per call of `f` over `queries`, counted from the first call.
fn first_allocs_per_query<R>(queries: &[Point], mut f: impl FnMut(Point) -> R) -> f64 {
    let a0 = heap_counters().1;
    for &q in queries {
        std::hint::black_box(f(q));
    }
    (heap_counters().1 - a0) as f64 / queries.len() as f64
}

fn assert_one_alloc_per_query(layer: &str, nonzero: f64, quant: f64) {
    println!("{layer}: allocations/query nonzero {nonzero:.3}, quantification {quant:.3}");
    assert!(nonzero > 0.0, "{layer}: CountingAlloc is not installed");
    assert!(
        nonzero <= 1.0,
        "{layer}: nonzero allocates {nonzero:.3}/query"
    );
    assert!(
        quant <= 1.0,
        "{layer}: quantification allocates {quant:.3}/query"
    );
}

fn check_dynamic_set() {
    let set = churned(1).0.pop().expect("one set");
    assert!(set.stats().buckets > 1, "churn left one bucket");
    let queries = points(QUERIES, 9);
    let nonzero = allocs_per_query(&queries, |q| set.nonzero(q));
    let quant = allocs_per_query(&queries, |q| set.quantification_merged_with_stats(q));
    assert_one_alloc_per_query("DynamicSet", nonzero, quant);
}

fn check_sharded_reader() {
    let reader = ShardedReader::new(churned(4).0.into_iter().map(Arc::new).collect());
    assert!(reader.shards().iter().all(|s| !s.is_empty()));
    let queries = points(QUERIES, 10);
    let nonzero = allocs_per_query(&queries, |q| reader.nonzero(q));
    let quant = allocs_per_query(&queries, |q| reader.quantification_merged_with_stats(q));
    assert_one_alloc_per_query("ShardedReader (4 shards)", nonzero, quant);
}

/// `NN≠0` or quantification over `sets`, through a [`ShardedReader`] over
/// fresh snapshots of them; a single set is queried directly.
fn query_family(sets: &[DynamicSet], quant: bool) -> impl FnMut(Point) -> usize {
    let single = (sets.len() == 1).then(|| sets[0].clone());
    let reader = ShardedReader::new(sets.iter().cloned().map(Arc::new).collect());
    move |q| match (&single, quant) {
        (Some(set), false) => set.nonzero(q).len(),
        (Some(set), true) => set.quantification_merged_with_stats(q).0.len(),
        (None, false) => reader.nonzero(q).len(),
        (None, true) => reader.quantification_merged_with_stats(q).0.len(),
    }
}

/// The first [`QUERIES`] queries of each family after an apply that
/// carries, and again after a compaction, allocate only their answers:
/// every bucket is built whole when it is placed. Each family is measured
/// right after its own write, so neither family's queries run on buckets
/// the other has already read.
fn check_first_queries_after_writes(shards: usize) {
    let layer = if shards == 1 {
        "DynamicSet".to_string()
    } else {
        format!("ShardedReader ({shards} shards)")
    };
    let (mut sets, mut next) = churned(shards);
    let queries = points(QUERIES, 13);
    // Size the per-thread buffers on the pre-write sets.
    let mut warm = points(4 * QUERIES, 14);
    warm.extend_from_slice(&queries);
    for quant in [false, true] {
        let mut f = query_family(&sets, quant);
        for &q in &warm {
            std::hint::black_box(f(q));
        }
    }
    let mut after_carry = [0.0; 2];
    for (quant, per_query) in after_carry.iter_mut().enumerate() {
        insert_wave(&mut sets, &mut next, 15 + quant as u64);
        *per_query = first_allocs_per_query(&queries, query_family(&sets, quant == 1));
    }
    assert_one_alloc_per_query(
        &format!("{layer}, first queries after a carry"),
        after_carry[0],
        after_carry[1],
    );
    let mut after_rebuild = [0.0; 2];
    for (quant, per_query) in after_rebuild.iter_mut().enumerate() {
        sets.iter_mut().for_each(DynamicSet::rebuild_all);
        *per_query = first_allocs_per_query(&queries, query_family(&sets, quant == 1));
    }
    assert_one_alloc_per_query(
        &format!("{layer}, first queries after rebuild_all"),
        after_rebuild[0],
        after_rebuild[1],
    );
}

/// A mixed batch over `points`: `NN≠0`, TopK and Threshold in turn.
fn mixed(points: &[Point]) -> Vec<QueryRequest> {
    points
        .iter()
        .enumerate()
        .map(|(i, &q)| match i % 3 {
            0 => QueryRequest::Nonzero { q },
            1 => QueryRequest::TopK { q, k: 3 },
            _ => QueryRequest::Threshold { q, tau: 0.05 },
        })
        .collect()
}

fn check_engine() {
    let eng = Engine::new(
        sites(7),
        EngineConfig {
            threads: Some(1),
            shards: Some(4),
            cache_capacity: 64,
            ..EngineConfig::default()
        },
    );
    let mut stream = churn_stream(8);
    for _ in 0..ROUNDS {
        let report = eng.apply(&stream.tick(RATE));
        stream.observe(&report);
    }
    // Warm the lazy trees, the per-thread buffers and the cache, which
    // ends full, so a miss recycles its least recent entry.
    eng.run_batch(&mixed(&points(4 * QUERIES, 11)));
    let batch = mixed(&points(QUERIES, 12));
    let a0 = heap_counters().1;
    eng.run_batch(&[]);
    let empty = heap_counters().1 - a0;
    let a0 = heap_counters().1;
    let resp = eng.run_batch(&batch);
    let allocs = heap_counters().1 - a0;
    assert_eq!(resp.stats.cache_hits, 0, "the measured batch must miss");
    assert!(resp
        .results
        .iter()
        .all(|r| !matches!(r, QueryResult::Failed { .. })));
    let per_query = allocs.saturating_sub(empty) as f64 / QUERIES as f64;
    println!(
        "engine (1 worker, 4 shards, cache on): {allocs} allocations for {QUERIES} queries, \
         {empty} for an empty batch ({per_query:.3}/query beyond it)"
    );
    assert!(
        allocs <= empty + PER_BATCH + 3 * QUERIES as u64,
        "engine: {allocs} allocations for {QUERIES} queries, {empty} for an empty batch"
    );
}

/// 65 536 certain sites on the four axis points at distance exactly 1 from
/// the origin: a query there draws every site in its first tie batch.
fn check_huge_sweep_gives_back_its_room() {
    let axis = [
        Point::new(1.0, 0.0),
        Point::new(0.0, 1.0),
        Point::new(-1.0, 0.0),
        Point::new(0.0, -1.0),
    ];
    let n = 1 << 16;
    let set = DiscreteSet::new(
        (0..n)
            .map(|i| DiscreteUncertainPoint::certain(axis[i % 4]))
            .collect(),
    );
    let d = DynamicSet::from_set(&set, DynamicConfig::default());
    let q = Point::new(0.0, 0.0);
    // `NN≠0` runs the same collect, without sweeping.
    assert!(d.nonzero(q).is_empty());
    let before = live_heap_bytes();
    let (pi, stats) = d.quantification_merged_with_stats(q);
    assert!(pi.is_empty(), "every site ties: π = 0 for all");
    assert!(
        stats.entries_merged >= n,
        "the sweep drew {}",
        stats.entries_merged
    );
    drop(pi);
    let kept = live_heap_bytes() - before;
    println!("live heap kept after a {n}-site sweep: {kept} B");
    assert!(
        kept <= KEPT_AFTER_HUGE_SWEEP,
        "a {n}-site sweep left {kept} B behind (bound {KEPT_AFTER_HUGE_SWEEP} B)"
    );
}

#[test]
fn warm_queries_allocate_only_their_answers() {
    check_dynamic_set();
    check_sharded_reader();
    check_first_queries_after_writes(1);
    check_first_queries_after_writes(4);
    check_engine();
    check_huge_sweep_gives_back_its_room();
}
