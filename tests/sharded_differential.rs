//! Engines-vs-oracle differential harness: proptest-generated interleavings
//! of insert / remove / move are applied to [`Engine`]s at S ∈ {1, 3, 8} and
//! to the harness's own model of the live universe, and after every op a
//! mixed batch (`NN≠0`, Threshold, TopK) served by every engine must equal
//! the core-library oracle over the model **bit for bit** (ids equal,
//! probability bits equal, exact guarantee) — `DiscreteSet::nonzero_nn`
//! and `quantification_discrete` over the model's live sites. The apply
//! reports must assign the ids the model predicts and agree on what was
//! removed, moved, missed and left live.
//!
//! Why this must hold at every S (the scatter-gather proofs live with
//! `uncertain_nn::dynamic::shard::ShardedReader`): the `NN≠0` two-min fold
//! over every (shard, bucket) is partition-independent, and the sorted
//! quantification collect over every shard inside the Lemma 2.1 radius
//! reproduces the fresh sweep's entry sequence exactly as far as the sweep
//! reads — so any divergence is a real bug, not float noise.
//!
//! CI's `shard-gauntlet` job runs this suite at default cases and again at
//! `PROPTEST_CASES=2048` pinned to one worker.

use std::collections::BTreeMap;

use proptest::prelude::*;
use uncertain_engine::shard::PartitionerKind;
use uncertain_engine::{Engine, EngineConfig, QueryRequest, QueryResult, SiteId, Update};
use uncertain_geom::Point;
use uncertain_nn::model::{DiscreteSet, DiscreteUncertainPoint};
use uncertain_nn::quantification::exact::quantification_discrete;
use uncertain_nn::queries::Guarantee;
use uncertain_nn::workload;

/// One encoded operation: `(selector, x, y, dx, dy, w)`.
type RawOp = (u8, f64, f64, f64, f64, f64);

fn raw_op() -> impl Strategy<Value = RawOp> {
    (
        0u8..=3,
        -30.0f64..30.0,
        -30.0f64..30.0,
        -8.0f64..8.0,
        -8.0f64..8.0,
        0.05f64..1.0,
    )
}

/// Decodes one op into an update batch, choosing remove/move victims from
/// the model's live ids (so the harness knows exactly what it asked for,
/// independent of any engine).
fn op_to_updates(op: RawOp, live: &[SiteId]) -> Vec<Update> {
    let (sel, x, y, dx, dy, w) = op;
    match sel {
        0 => vec![Update::Insert(DiscreteUncertainPoint::new(
            vec![Point::new(x, y), Point::new(x + dx, y + dy)],
            vec![w, 1.05 - w],
        ))],
        1 => vec![Update::Insert(DiscreteUncertainPoint::certain(Point::new(
            x, y,
        )))],
        2 if live.len() > 1 => {
            let victim = (w * live.len() as f64) as usize % live.len();
            vec![Update::Remove(live[victim])]
        }
        _ if !live.is_empty() => {
            let victim = ((w + dx.abs()) * live.len() as f64) as usize % live.len();
            vec![Update::Move {
                id: live[victim],
                to: DiscreteUncertainPoint::uniform(vec![
                    Point::new(x, y),
                    Point::new(x + dx, y + dy),
                    Point::new(x - dy, y + dx),
                ]),
            }]
        }
        _ => vec![],
    }
}

/// What an apply must report, as the model predicts it.
#[derive(Debug, PartialEq)]
struct Expected {
    inserted: Vec<SiteId>,
    removed: usize,
    moved: usize,
    missed: usize,
    live: usize,
}

/// The harness's model of the live universe: stable id → site, with fresh
/// ids continuing after the initial `0..n`.
struct Model {
    sites: BTreeMap<SiteId, DiscreteUncertainPoint>,
    next_id: SiteId,
}

impl Model {
    fn new(set: &DiscreteSet) -> Self {
        Model {
            sites: set.points.iter().cloned().enumerate().collect(),
            next_id: set.len(),
        }
    }

    fn live(&self) -> Vec<SiteId> {
        self.sites.keys().copied().collect()
    }

    /// The flat live set in ascending-id order plus its dense → id map.
    fn oracle(&self) -> (DiscreteSet, Vec<SiteId>) {
        (
            DiscreteSet::new(self.sites.values().cloned().collect()),
            self.live(),
        )
    }

    fn apply(&mut self, updates: &[Update]) -> Expected {
        let mut e = Expected {
            inserted: vec![],
            removed: 0,
            moved: 0,
            missed: 0,
            live: 0,
        };
        for u in updates {
            match u {
                Update::Insert(p) => {
                    self.sites.insert(self.next_id, p.clone());
                    e.inserted.push(self.next_id);
                    self.next_id += 1;
                }
                Update::Remove(id) => match self.sites.remove(id) {
                    Some(_) => e.removed += 1,
                    None => e.missed += 1,
                },
                Update::Move { id, to } => match self.sites.get_mut(id) {
                    Some(site) => {
                        *site = to.clone();
                        e.moved += 1;
                    }
                    None => e.missed += 1,
                },
            }
        }
        e.live = self.sites.len();
        e
    }
}

fn mixed_batch(queries: &[Point]) -> Vec<QueryRequest> {
    let mut batch = Vec::with_capacity(3 * queries.len());
    for &q in queries {
        batch.push(QueryRequest::Nonzero { q });
        batch.push(QueryRequest::Threshold { q, tau: 0.2 });
        batch.push(QueryRequest::TopK { q, k: 4 });
    }
    batch
}

/// Checks one answer bit for bit against the core-library oracle over
/// `set` (dense index `d` is site `ids[d]`).
fn assert_oracle(
    shards: usize,
    set: &DiscreteSet,
    ids: &[SiteId],
    req: &QueryRequest,
    got: &QueryResult,
) -> Result<(), TestCaseError> {
    let q = req.point();
    let (tau, k) = match (req, got) {
        (QueryRequest::Nonzero { .. }, QueryResult::Nonzero(g)) => {
            let mut want: Vec<SiteId> = set.nonzero_nn(q).into_iter().map(|d| ids[d]).collect();
            want.sort_unstable();
            prop_assert_eq!(g, &want, "NN≠0 at {} diverged at S={}", q, shards);
            return Ok(());
        }
        (QueryRequest::Threshold { tau, .. }, QueryResult::Ranked { .. }) => {
            (Some(*tau), usize::MAX)
        }
        (QueryRequest::TopK { k, .. }, QueryResult::Ranked { .. }) => (None, *k),
        other => {
            return Err(TestCaseError::fail(format!(
                "shape mismatch at S={shards}: {other:?}"
            )))
        }
    };
    let QueryResult::Ranked { items, guarantee } = got else {
        unreachable!()
    };
    prop_assert_eq!(*guarantee, Guarantee::Exact, "guarantee at S={}", shards);
    let mut want: Vec<(usize, f64)> = quantification_discrete(set, q)
        .into_iter()
        .enumerate()
        .filter(|&(_, p)| tau.map_or(p > 0.0, |t| p >= t))
        .collect();
    want.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    want.truncate(k);
    prop_assert_eq!(
        items.len(),
        want.len(),
        "ranked length at {} S={}",
        q,
        shards
    );
    for (&(gi, gp), &(d, wp)) in items.iter().zip(&want) {
        prop_assert_eq!(gi, ids[d], "ranked id at {} S={}", q, shards);
        prop_assert_eq!(
            gp.to_bits(),
            wp.to_bits(),
            "π bits diverged at {} S={}: engine {} vs oracle {}",
            q,
            shards,
            gp,
            wp
        );
    }
    Ok(())
}

const SHARD_COUNTS: [usize; 3] = [1, 3, 8];

/// `ratio ≤ 0` keeps rebalancing off (and `Hash` ignores it entirely).
fn sharded_config(shards: usize, partitioner: PartitionerKind, ratio: f64) -> EngineConfig {
    EngineConfig {
        shards: Some(shards),
        partitioner,
        rebalance_ratio: ratio,
        ..EngineConfig::default()
    }
}

/// The engines under test, one per shard count.
fn engines(base: &DiscreteSet, partitioner: PartitionerKind, ratio: f64) -> Vec<Engine> {
    SHARD_COUNTS
        .iter()
        .map(|&s| Engine::new(base.clone(), sharded_config(s, partitioner, ratio)))
        .collect()
}

/// Applies `updates` to the model and every engine, then checks every
/// engine's report, publication and answers to `batch` against the model.
fn step(
    model: &mut Model,
    engines: &[Engine],
    updates: &[Update],
    batch: &[QueryRequest],
) -> Result<(), TestCaseError> {
    let want = model.apply(updates);
    let effective = want.removed + want.moved + want.inserted.len() > 0;
    let (set, ids) = model.oracle();
    for (engine, &s) in engines.iter().zip(&SHARD_COUNTS) {
        let (g0, e0) = engine.shard_epochs();
        let r = engine.apply(updates);
        let got = Expected {
            inserted: r.inserted,
            removed: r.removed,
            moved: r.moved,
            missed: r.missed,
            live: r.live,
        };
        prop_assert_eq!(&got, &want, "apply report diverged at S={}", s);
        // One generation per effective apply; shard epochs only ever
        // advance, by one, and only for the shards the apply changed.
        let (g1, e1) = engine.shard_epochs();
        prop_assert_eq!(r.epoch, g1);
        prop_assert_eq!(g1, g0 + u64::from(effective), "generation at S={}", s);
        prop_assert_eq!(e1.len(), s);
        prop_assert!(e1.iter().zip(&e0).all(|(a, b)| a == b || *a == b + 1));
        prop_assert_eq!(effective, e1 != e0, "shard epochs at S={}", s);
        prop_assert_eq!(engine.site_ids(), ids.clone(), "live ids at S={}", s);

        let resp = engine.run_batch(batch);
        prop_assert_eq!(resp.results.len(), batch.len());
        for (req, res) in batch.iter().zip(&resp.results) {
            assert_oracle(s, &set, &ids, req, res)?;
        }
        prop_assert_eq!(resp.stats.live_sites, want.live);
        prop_assert_eq!(resp.stats.shard_stats.len(), s);
        prop_assert_eq!(
            resp.stats
                .shard_stats
                .iter()
                .map(|st| st.live)
                .sum::<usize>(),
            want.live
        );
    }
    Ok(())
}

fn run_differential(
    ops: &[RawOp],
    n0: usize,
    seed: u64,
    partitioner: PartitionerKind,
    ratio: f64,
) -> Result<(), TestCaseError> {
    let base = workload::random_discrete_set(n0, 3, 5.0, seed);
    let engines = engines(&base, partitioner, ratio);
    let mut model = Model::new(&base);
    let fixed_queries = workload::random_queries(2, 60.0, seed ^ 1);

    for &op in ops {
        let updates = op_to_updates(op, &model.live());
        // Query at the op's own coordinates (adversarially close to the
        // mutated site) plus two fixed far-field points.
        let (_, x, y, dx, dy, _) = op;
        let batch = mixed_batch(&[
            Point::new(x, y),
            Point::new(x + dx, y + dy),
            fixed_queries[0],
            fixed_queries[1],
        ]);
        step(&mut model, &engines, &updates, &batch)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: at S ∈ {1, 3, 8}, every answer of every
    /// family equals the monolithic core-library oracle bit for bit after
    /// every op.
    #[test]
    fn sharded_engines_match_monolithic_after_every_op(
        ops in prop::collection::vec(raw_op(), 1..14),
    ) {
        run_differential(&ops, 10, 0x5AAD, PartitionerKind::Hash, 0.0)?;
    }

    /// Same property starting from an empty universe: the first inserts
    /// land in (generally) different shards and the id allocator must
    /// hand out exactly the ids the model predicts.
    #[test]
    fn sharded_engines_match_monolithic_from_empty(
        ops in prop::collection::vec(raw_op(), 1..10),
    ) {
        run_differential(&ops, 0, 0x5AAD ^ 0xFF, PartitionerKind::Hash, 0.0)?;
    }

    /// The same interleavings under the **spatial** partitioner, with an
    /// aggressive rebalance ratio so migrations fire mid-stream: routing,
    /// the cross-shard move rewrite, and rebalance rounds must all leave
    /// every answer equal to the oracle after every op. (The larger seed
    /// set keeps the live count above the rebalancer's minimum, so the
    /// trigger is actually armed.)
    #[test]
    fn spatial_engines_match_monolithic_after_every_op(
        ops in prop::collection::vec(raw_op(), 1..14),
    ) {
        run_differential(&ops, 40, 0x5AAD ^ 0xA0, PartitionerKind::Spatial, 1.2)?;
    }

    /// Spatial from an empty universe: the first inserts all route through
    /// the degenerate (empty-cloud) split tree until the first rebalance
    /// re-cuts it.
    #[test]
    fn spatial_engines_match_monolithic_from_empty(
        ops in prop::collection::vec(raw_op(), 1..10),
    ) {
        run_differential(&ops, 0, 0x5AAD ^ 0xAF, PartitionerKind::Spatial, 1.2)?;
    }
}

/// A longer deterministic churn stream (bigger n, no proptest): batches of
/// several updates per apply — straddling multiple shards — checked every
/// round, so deeper Bentley–Saxe carries and per-shard compactions surface
/// even if the short proptest sequences miss them.
#[test]
fn long_straddling_churn_stays_bit_identical() {
    let base = workload::random_discrete_set(48, 3, 5.0, 0x51AB);
    let engines = engines(&base, PartitionerKind::Hash, 0.0);
    let mut model = Model::new(&base);
    let batch = mixed_batch(&workload::random_queries(3, 60.0, 0x51AB ^ 2));

    for round in 0usize..30 {
        // One straddling batch: two removes, one move, two inserts.
        let live = model.live();
        let mut updates = vec![];
        for j in 0..2 {
            updates.push(Update::Remove(live[(round * 3 + j * 5) % live.len()]));
        }
        updates.push(Update::Move {
            id: live[(round * 7 + 1) % live.len()],
            to: DiscreteUncertainPoint::certain(Point::new(
                (round as f64 * 3.7) % 40.0 - 20.0,
                (round as f64 * 5.3) % 40.0 - 20.0,
            )),
        });
        for j in 0..2 {
            let v = (round * 2 + j) as f64;
            updates.push(Update::Insert(DiscreteUncertainPoint::uniform(vec![
                Point::new((v * 1.9) % 50.0 - 25.0, (v * 2.3) % 50.0 - 25.0),
                Point::new((v * 3.1) % 50.0 - 25.0, (v * 0.7) % 50.0 - 25.0),
            ])));
        }
        step(&mut model, &engines, &updates, &batch).unwrap();
    }

    // End state: every engine's flat view is the model's.
    let (set, _) = model.oracle();
    for (engine, &s) in engines.iter().zip(&SHARD_COUNTS) {
        assert_eq!(engine.live_set().points, set.points, "flat view at S={s}");
    }
}

/// Deterministic spatial churn designed to *guarantee* rebalances: waves of
/// inserts pile into one corner of the plane (ballooning that corner's
/// shard), then drain while the next corner fills. Every round's answers
/// are bit-compared against the oracle, and at the end each multi-shard
/// engine must have actually executed at least one rebalance — so the
/// migration path (remove+insert batches, same-generation publish) is
/// provably on the differential's critical path, not dead code.
#[test]
fn spatial_rebalances_fire_and_stay_bit_identical() {
    let base = workload::random_discrete_set(48, 3, 5.0, 0xB1A5);
    let engines = engines(&base, PartitionerKind::Spatial, 1.5);
    let mut model = Model::new(&base);
    let batch = mixed_batch(&workload::random_queries(3, 90.0, 0xB1A5 ^ 2));
    const CORNERS: [(f64, f64); 4] = [(80.0, 80.0), (-80.0, 80.0), (-80.0, -80.0), (80.0, -80.0)];
    let mut waves: Vec<Vec<SiteId>> = vec![];

    for round in 0usize..12 {
        let (cx, cy) = CORNERS[round % 4];
        let mut updates: Vec<Update> = (0..10)
            .map(|i| {
                let t = (round * 10 + i) as f64 * 0.61;
                Update::Insert(DiscreteUncertainPoint::uniform(vec![
                    Point::new(cx + 3.0 * t.cos(), cy + 3.0 * t.sin()),
                    Point::new(cx - 2.0 * t.sin(), cy + 2.0 * t.cos()),
                ]))
            })
            .collect();
        // Drain the wave from two rounds ago (keeps the live count bounded
        // while the *current* corner is always the heaviest).
        if round >= 2 {
            updates.extend(waves[round - 2].iter().map(|&id| Update::Remove(id)));
        }
        let first = model.next_id;
        step(&mut model, &engines, &updates, &batch).unwrap();
        waves.push((first..model.next_id).collect());
    }

    for (engine, &s) in engines.iter().zip(&SHARD_COUNTS) {
        if s > 1 {
            assert!(
                engine.rebalances() >= 1,
                "corner waves at S={s} never triggered a rebalance"
            );
        } else {
            // A single shard can never be imbalanced.
            assert_eq!(engine.rebalances(), 0);
        }
    }
}

/// Integer points at exactly distance `r` from the origin.
fn lattice_ring(r: i32) -> Vec<Point> {
    let mut ring = vec![];
    for x in -r..=r {
        for y in -r..=r {
            if x * x + y * y == r * r {
                ring.push(Point::new(x as f64, y as f64));
            }
        }
    }
    ring
}

/// Ties at the Lemma 2.1 radius. Every site sits on the 3-4-5 lattice
/// rings of radius 5, 10 and 13 around the origin, and every query is an
/// integer point, so distances are square roots of integers: many entries
/// share one distance bit pattern, including the batch at `d2` itself.
/// Sites arrive over several applies (so tied entries come from different
/// buckets), moves relabel a bucket's ids into newer buckets (so ids
/// interleave across buckets at equal distance), and removes tombstone
/// tied sites. Every answer must equal the oracle bit for bit at S ∈ {1, 3}
/// under both partitioners, and no query may need the full collect: the
/// radius collect holds every entry at distance `≤ d2`, ties included.
#[test]
fn ties_at_the_radius_stay_bit_identical() {
    let rings = [lattice_ring(5), lattice_ring(10), lattice_ring(13)];
    let mut state = 0x7135_u64;
    let mut next = move |m: usize| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize % m
    };
    // A site whose farthest location lies on ring `outer`, so its Δ from
    // the origin is exactly that ring's radius.
    let mut site = |outer: usize| {
        let k = 1 + next(3);
        let locs: Vec<Point> = (0..k)
            .map(|j| {
                let ring = if j == 0 { outer } else { next(outer + 1) };
                rings[ring][next(rings[ring].len())]
            })
            .collect();
        let weights = (0..k).map(|_| 1.0 + next(3) as f64).collect();
        DiscreteUncertainPoint::new(locs, weights)
    };
    // One Δ = 5 site, the rest at 10 and 13: d1 = 5 < d2 = 10.
    let base = DiscreteSet::new(
        (0..12)
            .map(|i| site(if i == 0 { 0 } else { 1 + i % 2 }))
            .collect(),
    );
    let mut script: Vec<Vec<Update>> = vec![];
    for round in 0..10usize {
        // Inserts land in fresh small buckets.
        script.push(vec![
            Update::Insert(site(1)),
            Update::Insert(site(round % 3)),
        ]);
        // Move an old site: its id now lives in the newest bucket.
        script.push(vec![Update::Move {
            id: (3 * round + 1) % 12,
            to: site(1),
        }]);
        // Tombstone a tied site, and the Δ = 5 site once, making d1 = d2.
        let mut removes = vec![Update::Remove(12 + 2 * round)];
        if round == 6 {
            removes.push(Update::Remove(0));
        }
        script.push(removes);
    }
    let queries = [
        Point::new(0.0, 0.0),
        Point::new(3.0, 4.0),
        Point::new(-5.0, 0.0),
        Point::new(1.0, -2.0),
    ];
    let batch = mixed_batch(&queries);
    let full_collects = uncertain_obs::registry().counter("dynamic.quant.full_collects");
    let before = full_collects.get();
    for partitioner in [PartitionerKind::Hash, PartitionerKind::Spatial] {
        let engines: Vec<Engine> = [1, 3]
            .iter()
            .map(|&s| Engine::new(base.clone(), sharded_config(s, partitioner, 0.0)))
            .collect();
        let mut model = Model::new(&base);
        for updates in &script {
            step(&mut model, &engines, updates, &batch).unwrap();
        }
    }
    assert_eq!(
        full_collects.get(),
        before,
        "a query at a tied radius needed the full collect"
    );
}
