//! Epoch/snapshot semantics of `Engine::apply` under concurrency: batches
//! racing `apply()` must each serve one *consistent* epoch — every answer
//! equals the oracle of the epoch the batch reports ([`ExecStats::epoch`]),
//! which must be one the batch overlapped — and cache hits must never
//! resurrect a dead epoch's answers.
//!
//! CI's `dynamic-gauntlet` job runs this suite at the environment's default
//! parallelism and pinned to `UNC_ENGINE_THREADS=1`; the explicit 1- and
//! 4-worker engines below degenerate to 1-vs-1 under the pinned run, which
//! is still a valid consistency check.

use std::sync::Mutex;

use uncertain_engine::shard::shard_of;
use uncertain_engine::{Engine, EngineConfig, QueryRequest, QueryResult, Update};
use uncertain_geom::Point;
use uncertain_nn::model::{DiscreteSet, DiscreteUncertainPoint};
use uncertain_nn::quantification::exact::quantification_discrete;
use uncertain_nn::workload;

/// One recorded epoch: the live set and the dense→id map right after the
/// apply that published it.
struct EpochOracle {
    set: DiscreteSet,
    ids: Vec<usize>,
}

fn record(engine: &Engine) -> EpochOracle {
    EpochOracle {
        set: engine.live_set(),
        ids: engine.site_ids(),
    }
}

/// Checks a full batch response against the oracle of the epoch the batch
/// reports having served.
fn assert_batch_matches_epoch(
    batch: &[QueryRequest],
    resp: &uncertain_engine::BatchResponse,
    oracle: &EpochOracle,
) {
    for (req, res) in batch.iter().zip(&resp.results) {
        match (req, res) {
            (QueryRequest::Nonzero { q }, QueryResult::Nonzero(got)) => {
                let mut want: Vec<usize> = oracle
                    .set
                    .nonzero_nn(*q)
                    .into_iter()
                    .map(|dense| oracle.ids[dense])
                    .collect();
                want.sort_unstable();
                assert_eq!(
                    got, &want,
                    "NN≠0 at {q} diverged from epoch {} oracle",
                    resp.stats.epoch
                );
            }
            (QueryRequest::TopK { q, k }, QueryResult::Ranked { items, .. }) => {
                let pi = quantification_discrete(&oracle.set, *q);
                let mut want: Vec<(usize, f64)> = pi
                    .into_iter()
                    .enumerate()
                    .filter(|&(_, p)| p > 0.0)
                    .collect();
                want.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
                want.truncate(*k);
                let want: Vec<(usize, f64)> =
                    want.into_iter().map(|(d, p)| (oracle.ids[d], p)).collect();
                assert_eq!(
                    items, &want,
                    "top-k at {q} diverged from epoch {} oracle",
                    resp.stats.epoch
                );
            }
            other => panic!("request/result shape mismatch: {other:?}"),
        }
    }
}

fn mixed_batch(queries: &[Point], k: usize) -> Vec<QueryRequest> {
    let mut batch = Vec::with_capacity(2 * queries.len());
    for &q in queries {
        batch.push(QueryRequest::Nonzero { q });
        batch.push(QueryRequest::TopK { q, k });
    }
    batch
}

fn churn_updates(round: usize, live_hint: &[usize]) -> Vec<Update> {
    let mut updates = vec![];
    // Remove a couple of (probably live) ids, move one, insert two.
    for j in 0..2 {
        if let Some(&id) = live_hint.get((round * 3 + j * 5) % live_hint.len().max(1)) {
            updates.push(Update::Remove(id));
        }
    }
    if let Some(&id) = live_hint.get((round * 7 + 1) % live_hint.len().max(1)) {
        updates.push(Update::Move {
            id,
            to: DiscreteUncertainPoint::certain(Point::new(
                (round as f64 * 3.7) % 40.0 - 20.0,
                (round as f64 * 5.3) % 40.0 - 20.0,
            )),
        });
    }
    for j in 0..2 {
        let v = (round * 2 + j) as f64;
        updates.push(Update::Insert(DiscreteUncertainPoint::uniform(vec![
            Point::new((v * 1.9) % 50.0 - 25.0, (v * 2.3) % 50.0 - 25.0),
            Point::new((v * 3.1) % 50.0 - 25.0, (v * 0.7) % 50.0 - 25.0),
        ])));
    }
    updates
}

/// Readers race the writer; every batch must serve exactly one epoch the
/// batch overlapped, with answers equal to that epoch's oracle.
#[test]
fn concurrent_batches_race_apply_and_stay_epoch_consistent() {
    for workers in [1usize, 4] {
        let set = workload::random_discrete_set(30, 3, 6.0, 501);
        let engine = Engine::new(
            set,
            EngineConfig {
                threads: Some(workers),
                ..EngineConfig::default()
            },
        );
        let batch = mixed_batch(&workload::random_queries(12, 60.0, 502), 3);
        // Oracles by epoch; epoch 0 recorded before any reader starts.
        let oracles = Mutex::new(vec![record(&engine)]);

        std::thread::scope(|scope| {
            let engine = &engine;
            let oracles = &oracles;
            let batch = &batch;
            let mut readers = vec![];
            for _ in 0..3 {
                readers.push(scope.spawn(move || {
                    for _ in 0..12 {
                        let lo = engine.epoch();
                        let resp = engine.run_batch(batch);
                        let hi = engine.epoch();
                        let served = resp.stats.epoch;
                        assert!(
                            (lo..=hi).contains(&served),
                            "served epoch {served} outside overlap window [{lo}, {hi}]"
                        );
                        // The writer records the oracle synchronously before
                        // publishing readers can observe the epoch, so the
                        // entry must exist.
                        let oracles = oracles.lock().unwrap();
                        assert_batch_matches_epoch(batch, &resp, &oracles[served as usize]);
                    }
                }));
            }
            // Writer: churn through 8 epochs while readers hammer batches.
            for round in 0..8 {
                let live = engine.site_ids();
                let updates = churn_updates(round, &live);
                let mut oracles_guard = oracles.lock().unwrap();
                let report = engine.apply(&updates);
                assert_eq!(report.epoch as usize, oracles_guard.len());
                oracles_guard.push(record(engine));
                drop(oracles_guard);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            for r in readers {
                r.join().unwrap();
            }
        });
    }
}

/// An answer cached at epoch `e` must never be served at epoch `e' ≠ e`,
/// even for bit-identical queries — the epoch-stamped keys guarantee it.
#[test]
fn cache_hits_never_serve_a_dead_epoch() {
    let set = workload::random_discrete_set(20, 3, 5.0, 503);
    let engine = Engine::new(
        set,
        EngineConfig {
            threads: Some(2),
            cache_capacity: 1 << 14,
            ..EngineConfig::default()
        },
    );
    let q = Point::new(0.5, -0.25);
    let batch = [QueryRequest::Nonzero { q }, QueryRequest::TopK { q, k: 3 }];

    // Warm epoch 0's cache, then prove re-running hits it.
    let cold = engine.run_batch(&batch);
    let warm = engine.run_batch(&batch);
    assert_eq!(warm.stats.cache_hits, batch.len());
    assert_eq!(cold.results, warm.results);

    // Kill every site the epoch-0 answer mentions and park a certain site
    // exactly at q: the correct answer *must* change.
    let QueryResult::Nonzero(old) = &cold.results[0] else {
        panic!("shape");
    };
    let mut updates: Vec<Update> = old.iter().map(|&id| Update::Remove(id)).collect();
    updates.push(Update::Insert(DiscreteUncertainPoint::certain(q)));
    let report = engine.apply(&updates);
    let new_id = report.inserted[0];

    let fresh = engine.run_batch(&batch);
    assert_eq!(fresh.stats.epoch, 1);
    // Same query bits, new epoch: the stale entries are unreachable, so the
    // first post-apply batch cannot hit.
    assert_eq!(fresh.stats.cache_hits, 0);
    assert_eq!(fresh.results[0], QueryResult::Nonzero(vec![new_id]));
    assert_ne!(&fresh.results[0], &cold.results[0]);

    // And the new epoch warms its own entries.
    let warm2 = engine.run_batch(&batch);
    assert_eq!(warm2.stats.cache_hits, batch.len());
    assert_eq!(warm2.results, fresh.results);
}

/// A sharded engine's apply whose batch straddles k shards must publish all
/// k shard epochs **atomically** with respect to in-flight readers: every
/// observed `(generation, epoch vector)` — whether via `shard_epochs()` or
/// a batch's `ExecStats` — must be exactly one the writer published, never
/// a torn mix of two publications.
#[test]
fn straddling_batches_publish_all_shard_epochs_atomically() {
    let set = workload::random_discrete_set(40, 3, 6.0, 601);
    let engine = Engine::new(
        set,
        EngineConfig {
            shards: Some(4),
            threads: Some(4),
            ..EngineConfig::default()
        },
    );
    assert_eq!(engine.num_shards(), 4);
    let q = Point::new(0.25, -0.75);
    // Every (generation, epoch vector) the writer has published. The
    // writer records synchronously (holding the lock across the apply)
    // before readers can observe the new snapshot, so lookups never miss.
    let published = Mutex::new(vec![engine.shard_epochs()]);
    let mut straddled = 0usize;

    std::thread::scope(|scope| {
        let engine = &engine;
        let published = &published;
        let mut readers = vec![];
        for _ in 0..3 {
            readers.push(scope.spawn(move || {
                for _ in 0..30 {
                    let (generation, epochs) = engine.shard_epochs();
                    {
                        let published = published.lock().unwrap();
                        assert!(
                            published
                                .iter()
                                .any(|(g, e)| *g == generation && e == &epochs),
                            "torn epoch vector: generation {generation} epochs {epochs:?}"
                        );
                    }
                    let resp = engine.run_batch(&[QueryRequest::Nonzero { q }]);
                    let stats_epochs: Vec<u64> =
                        resp.stats.shard_stats.iter().map(|s| s.epoch).collect();
                    let published = published.lock().unwrap();
                    assert!(
                        published
                            .iter()
                            .any(|(g, e)| *g == resp.stats.epoch && e == &stats_epochs),
                        "batch served torn epoch vector: generation {} epochs {stats_epochs:?}",
                        resp.stats.epoch
                    );
                }
            }));
        }
        for round in 0..10 {
            let live = engine.site_ids();
            let updates = churn_updates(round, &live);
            let mut guard = published.lock().unwrap();
            let (_, before) = engine.shard_epochs();
            let report = engine.apply(&updates);
            let (generation, epochs) = engine.shard_epochs();
            assert_eq!(report.epoch, generation);
            if epochs.iter().zip(&before).filter(|(a, b)| a != b).count() >= 2 {
                straddled += 1;
            }
            guard.push((generation, epochs));
            drop(guard);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        for r in readers {
            r.join().unwrap();
        }
    });
    // The scenario actually exercised multi-shard publication.
    assert!(
        straddled >= 2,
        "expected several straddling applies, got {straddled}"
    );
}

/// Two concurrent appliers touching **disjoint** shards both commit: no
/// update is lost or reverted, each bumps exactly its own shard's epoch in
/// its own generation, and the final answers equal the oracle over the
/// initial set minus both batches' removals (disjoint-shard updates
/// commute).
#[test]
fn concurrent_disjoint_shard_appliers_both_commit() {
    let n = 60usize;
    let shards = 4usize;
    let set = workload::random_discrete_set(n, 3, 6.0, 602);
    let engine = Engine::new(
        set.clone(),
        EngineConfig {
            shards: Some(shards),
            threads: Some(4),
            ..EngineConfig::default()
        },
    );
    // Partition the initial ids by their shard; the two appliers remove
    // sites from different shards only.
    let mut by_shard: Vec<Vec<usize>> = vec![vec![]; shards];
    for id in 0..n {
        by_shard[shard_of(id, shards)].push(id);
    }
    let (sa, sb) = (0usize, 1usize);
    let victims: Vec<usize> = by_shard[sa]
        .iter()
        .take(4)
        .chain(by_shard[sb].iter().take(4))
        .copied()
        .collect();
    let (batch_a, batch_b): (Vec<Update>, Vec<Update>) = (
        victims[..4].iter().map(|&id| Update::Remove(id)).collect(),
        victims[4..].iter().map(|&id| Update::Remove(id)).collect(),
    );
    assert_eq!((batch_a.len(), batch_b.len()), (4, 4));

    std::thread::scope(|scope| {
        let engine = &engine;
        let a = scope.spawn(move || engine.apply(&batch_a));
        let b = scope.spawn(move || engine.apply(&batch_b));
        let (ra, rb) = (a.join().unwrap(), b.join().unwrap());
        assert_eq!(ra.missed + rb.missed, 0, "concurrent applies lost updates");
        assert_eq!((ra.removed, rb.removed), (4, 4));
        let mut generations = [ra.epoch, rb.epoch];
        generations.sort_unstable();
        assert_eq!(generations, [1, 2], "one generation per apply");
    });

    let (generation, epochs) = engine.shard_epochs();
    assert_eq!(generation, 2);
    for (s, &e) in epochs.iter().enumerate() {
        assert_eq!(e, u64::from(s == sa || s == sb), "shard {s}");
    }

    // The end state is the initial set minus both batches' victims.
    let ids: Vec<usize> = (0..n).filter(|id| !victims.contains(id)).collect();
    let oracle = EpochOracle {
        set: DiscreteSet::new(ids.iter().map(|&id| set.points[id].clone()).collect()),
        ids,
    };
    assert_eq!(engine.site_ids(), oracle.ids);
    let batch = mixed_batch(&workload::random_queries(8, 60.0, 603), 3);
    assert_batch_matches_epoch(&batch, &engine.run_batch(&batch), &oracle);
}

/// Rebalance atomicity, raced: a spatial engine under corner-wave churn
/// (which provably triggers rebalances) is censused by racing reader
/// threads, and **every** observed snapshot must show every sentinel site
/// in exactly one shard — never zero (briefly removed but not yet
/// re-inserted) and never two (inserted before the remove landed). This is
/// the observable for migrations publishing in one generation: a
/// remove+insert migration published as two generations would be caught
/// here within a handful of iterations.
#[test]
fn rebalance_races_never_show_a_site_in_zero_or_two_shards() {
    use std::collections::HashSet;
    use uncertain_engine::shard::PartitionerKind;

    let n = 40usize;
    let set = workload::random_discrete_set(n, 3, 6.0, 701);
    let engine = Engine::new(
        set,
        EngineConfig {
            shards: Some(4),
            threads: Some(4),
            partitioner: PartitionerKind::Spatial,
            rebalance_ratio: 1.5,
            ..EngineConfig::default()
        },
    );
    // The initial sites are sentinels: the writer never removes them, so a
    // reader that ever fails to find one (or finds it twice) has witnessed
    // a torn migration.
    let sentinels: Vec<usize> = (0..n).collect();
    const CORNERS: [(f64, f64); 4] = [(90.0, 90.0), (-90.0, 90.0), (-90.0, -90.0), (90.0, -90.0)];

    std::thread::scope(|scope| {
        let engine = &engine;
        let sentinels = &sentinels;
        let mut readers = vec![];
        for _ in 0..3 {
            readers.push(scope.spawn(move || {
                for _ in 0..60 {
                    let census = engine.shard_census();
                    let mut seen: HashSet<usize> = HashSet::new();
                    for (shard, ids) in census.iter().enumerate() {
                        for &id in ids {
                            assert!(
                                seen.insert(id),
                                "site {id} censused in two shards (second: {shard})"
                            );
                        }
                    }
                    for &id in sentinels {
                        assert!(seen.contains(&id), "sentinel {id} censused in zero shards");
                    }
                }
            }));
        }
        // Writer: corner waves — insert a clump in one corner, drain the
        // clump from two rounds ago — driving repeated rebalances while the
        // readers census.
        let mut waves: Vec<Vec<usize>> = vec![];
        for round in 0..12 {
            let (cx, cy) = CORNERS[round % 4];
            let mut updates: Vec<Update> = (0..10)
                .map(|i| {
                    let t = (round * 10 + i) as f64 * 0.61;
                    Update::Insert(DiscreteUncertainPoint::certain(Point::new(
                        cx + 3.0 * t.cos(),
                        cy + 3.0 * t.sin(),
                    )))
                })
                .collect();
            if round >= 2 {
                updates.extend(waves[round - 2].iter().map(|&id| Update::Remove(id)));
            }
            let report = engine.apply(&updates);
            waves.push(report.inserted);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        for r in readers {
            r.join().unwrap();
        }
    });

    // The race actually crossed the migration path.
    assert!(
        engine.rebalances() >= 1,
        "corner waves never triggered a rebalance — the race tested nothing"
    );
}

/// Serial applies: every epoch's batch answers equal a from-scratch oracle;
/// worker count never changes any answer.
#[test]
fn per_epoch_answers_identical_across_worker_counts() {
    let set = workload::random_discrete_set(40, 3, 5.0, 504);
    let mk = |threads: usize| {
        Engine::new(
            set.clone(),
            EngineConfig {
                threads: Some(threads),
                ..EngineConfig::default()
            },
        )
    };
    let (e1, e4) = (mk(1), mk(4));
    let batch = mixed_batch(&workload::random_queries(16, 60.0, 505), 4);
    for round in 0..6 {
        let updates = churn_updates(round, &e1.site_ids());
        let r1 = e1.apply(&updates);
        let r4 = e4.apply(&updates);
        assert_eq!(r1.epoch, r4.epoch);
        assert_eq!(
            r1.inserted, r4.inserted,
            "id assignment must be deterministic"
        );
        assert_eq!(r1.live, r4.live);
        let (b1, b4) = (e1.run_batch(&batch), e4.run_batch(&batch));
        assert_eq!(b1.results, b4.results, "worker count changed answers");
        assert_batch_matches_epoch(&batch, &b1, &record(&e1));
        assert_eq!(b1.stats.live_sites, r1.live);
        assert_eq!(b1.stats.tombstones, r1.tombstones);
    }
}
