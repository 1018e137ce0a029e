//! Scatter-gather query drivers over a partition of the site universe into
//! independent [`DynamicSet`] shards.
//!
//! The reader is **partition-agnostic**: each site lives in exactly one
//! shard (the serving engine splits by spatial region; the reader never
//! asks how),
//! each shard is a full Bentley–Saxe structure (buckets, tombstone bitmaps,
//! warm quant summaries) that mutates independently. Every query family
//! recombines **bit-identically** to a single monolithic set holding the
//! union, because each already recombines across *buckets* by an operation
//! that is independent of how the union is partitioned:
//!
//! * `NN≠0` and quantification — the global Lemma 2.1 pair `(d1, d2)` is
//!   the min/second-min of `Δ_i(q)` over the union. Stage 1 is **one fold**
//!   over every (shard, bucket): each bucket's search starts from the
//!   running pair, whichever shard it lives in. Stage 2 collects every
//!   shard's live entries within the radius into one list (see `quant.rs`);
//!   each site is in exactly one shard, so the list holds the entries a
//!   monolithic set would collect. `NN≠0` filters it against the (globally
//!   identical) threshold floats; quantification sorts it by `(distance,
//!   id, location)` and sweeps it once. No cross-shard id map is needed: a
//!   site's dense index in the union is the rank of its id among the
//!   union's ascending live ids, a strictly increasing relabeling, so
//!   `(d, id)` ties order exactly as `(d, dense)` ties do in the static
//!   sweep over the union.
//!
//! # Spatial pruning
//!
//! Every read path additionally prunes whole shards against per-shard
//! **support boxes** ([`DynamicSet::support_aabb`]: a conservative cover of
//! every live site's locations). For each shard `s`, `dist(q, box_s)` lower
//! bounds both `δ_i(q)` and `Δ_i(q)` of every live site `i ∈ s` (every
//! location of `i` lies in `box_s`). Shards are visited in ascending
//! box-distance order so thresholds tighten before far shards are tested;
//! a shard is skipped exactly when the bound proves no site in it can
//! change any output bit (each skip rule carries its proof inline). When
//! the shards overlap (this module's tests also split by an id hash) every
//! shard's box covers essentially the whole cloud, so the bounds are all
//! ~0 and nothing is pruned — the pruned driver degrades to the plain
//! scatter-gather. Under the engine's spatial split the boxes are
//! near-disjoint and clustered queries touch `O(1)` shards.
//! The `*_touched` variants report how many shards a query actually
//! visited — the engine reports it as its per-batch fan-out.
//!
//! One driver serves every reader: `nonzero` and `quantify` take a
//! scatter order of sets with their bounds, and a [`DynamicSet`] queries
//! itself through them as the one-set order `[(set, 0.0)]`. A single-shard
//! reader therefore runs exactly the single set's code, so a serving
//! engine with `S = 1` answers exactly like the single set.
//!
//! `tests/sharded_differential.rs` checks engines built on this reader
//! after every op of randomized interleavings against the core-library
//! oracle at S ∈ {1, 3, 8}, with and without rebalancing.

use std::sync::{Arc, OnceLock};

use super::quant::{quantify_within, with_collect};
use super::{DynamicSet, DynamicStats, QuantMergeStats, SiteId, TwoMin};
use crate::model::DiscreteSet;
use uncertain_geom::{Aabb, Point};

/// A read-only scatter-gather view over one snapshot of every shard.
///
/// Holds `Arc` snapshots, so an in-flight reader is never disturbed by
/// appliers publishing new shard epochs. Construction is O(S); the
/// per-shard support boxes are built lazily and cached.
pub struct ShardedReader {
    shards: Vec<Arc<DynamicSet>>,
    /// Per-shard support boxes (see [`DynamicSet::support_aabb`]).
    aabbs: OnceLock<Vec<Aabb>>,
}

impl ShardedReader {
    /// A reader over one consistent snapshot (one `Arc` per shard).
    pub fn new(shards: Vec<Arc<DynamicSet>>) -> Self {
        assert!(!shards.is_empty(), "at least one shard");
        ShardedReader {
            shards,
            aabbs: OnceLock::new(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard snapshots, in shard order.
    pub fn shards(&self) -> &[Arc<DynamicSet>] {
        &self.shards
    }

    /// Live sites across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Tombstoned entries still occupying bucket slots, across all shards.
    pub fn tombstones(&self) -> usize {
        self.shards.iter().map(|s| s.tombstones()).sum()
    }

    /// Union of live ids, ascending — per-shard lists are each sorted and
    /// pairwise disjoint, so a merge of sorted runs suffices.
    pub fn live_ids(&self) -> Vec<SiteId> {
        let mut ids: Vec<SiteId> = self.shards.iter().flat_map(|s| s.live_ids()).collect();
        ids.sort_unstable();
        ids
    }

    /// Σ locations over the union's live sites, `O(S)`.
    pub fn live_locations(&self) -> usize {
        self.shards.iter().map(|s| s.live_locations()).sum()
    }

    /// Per-shard support boxes, built once per snapshot.
    pub fn support_aabbs(&self) -> &[Aabb] {
        self.aabbs
            .get_or_init(|| self.shards.iter().map(|s| s.support_aabb()).collect())
    }

    /// The scatter order for `q`: every non-empty shard with its lower
    /// bound `dist(q, box_s)`, ascending by `(bound, shard index)`.
    fn scatter_order(&self, q: Point) -> Vec<(&DynamicSet, f64)> {
        let mut order: Vec<(&DynamicSet, f64)> = self
            .shards
            .iter()
            .zip(self.support_aabbs())
            .filter(|(shard, _)| !shard.is_empty())
            .map(|(shard, aabb)| (&**shard, aabb.dist_to_point(q)))
            .collect();
        // Stable: equal bounds keep shard order.
        order.sort_by(|a, b| a.1.total_cmp(&b.1));
        order
    }

    /// Materializes the union as a static set in ascending id order —
    /// identical to the monolithic [`DynamicSet::live_set`], so oracle
    /// evaluation (brute `NN≠0`, the static quantification sweep) over it
    /// is bit-identical too. Gathers from whichever shard holds each site (no
    /// assumption about the partitioning scheme).
    pub fn live_set(&self) -> DiscreteSet {
        let mut sites: Vec<(SiteId, Arc<crate::model::DiscreteUncertainPoint>)> =
            Vec::with_capacity(self.len());
        for shard in &self.shards {
            sites.extend(
                shard
                    .entries
                    .iter()
                    .filter(|e| e.alive)
                    .map(|e| (e.id, e.site.clone())),
            );
        }
        sites.sort_unstable_by_key(|&(id, _)| id);
        DiscreteSet::new(sites.into_iter().map(|(_, s)| (*s).clone()).collect())
    }

    /// [`DynamicSet::stats`] summed over the shards (the merged path's
    /// fan-in is `buckets`).
    pub fn stats(&self) -> DynamicStats {
        let mut total = self.shards[0].stats();
        for s in &self.shards[1..] {
            let d = s.stats();
            total.live += d.live;
            total.tombstones += d.tombstones;
            total.slab_entries += d.slab_entries;
            total.buckets += d.buckets;
            let (r, t) = (&mut total.rebuild, d.rebuild);
            r.inserts += t.inserts;
            r.removes += t.removes;
            r.moves += t.moves;
            r.merges += t.merges;
            r.global_rebuilds += t.global_rebuilds;
            r.sites_rebuilt += t.sites_rebuilt;
        }
        total
    }

    /// `NN≠0(q)` over the union, ascending public ids — bit-identical to a
    /// monolithic [`DynamicSet::nonzero`] over the same live sites.
    pub fn nonzero(&self, q: Point) -> Vec<SiteId> {
        self.nonzero_touched(q).0
    }

    /// [`nonzero`](Self::nonzero) plus the number of shards the query
    /// actually visited (stage 1 ∪ stage 2) after box pruning.
    pub fn nonzero_touched(&self, q: Point) -> (Vec<SiteId>, usize) {
        nonzero(q, &self.scatter_order(q))
    }

    /// Quantification over the union: `(id, π)` for `π > 0` in ascending
    /// id order, bit-identical to the monolithic and fresh paths.
    pub fn quantification_merged(&self, q: Point) -> Vec<(SiteId, f64)> {
        self.quantification_merged_with_stats(q).0
    }

    /// [`quantification_merged`](Self::quantification_merged) plus the
    /// reuse metrics the serving engine aggregates (buckets and warm
    /// buckets count across the shards that collected; `shards_touched`
    /// counts every shard the query read in either stage).
    pub fn quantification_merged_with_stats(
        &self,
        q: Point,
    ) -> (Vec<(SiteId, f64)>, QuantMergeStats) {
        quantify(q, &self.scatter_order(q))
    }
}

/// Stage 1 over a scatter order: one fold of every live site's `Δ_i(q)`
/// across the sets (and, inside each, across its buckets), plus the number
/// of sets read.
///
/// Skip proof: every live site `i` of a set with bound `b` has
/// `Δ_i(q) ≥ b` (all its locations lie in the set's box). A fold step
/// changes nothing for a value `≥ d2` (and `d1 ≤ d2` throughout), so once
/// `b ≥ d2` no site of the set can change either float or the witness —
/// and, the order ascending by bound while `d2` only shrinks, neither can
/// any later set: `break`, not `continue`. The resulting `(d1, d2)` are
/// the min/second-min of a multiset and hence identical to any other fold
/// order; the witness can differ from another order only on an exact `Δ`
/// tie at `d1`, where `d2 == d1` makes the stage-2 bound
/// witness-independent (see `nonzero`).
fn two_min(q: Point, scatter: &[(&DynamicSet, f64)]) -> (Option<TwoMin>, usize) {
    let mut acc = TwoMin::EMPTY;
    let mut read = 0;
    for &(set, bound) in scatter {
        if bound >= acc.d2 {
            break;
        }
        read += 1;
        set.fold_two_min(q, &mut acc);
    }
    ((acc.id1 != SiteId::MAX).then_some(acc), read)
}

/// `NN≠0(q)` over a scatter order — sets ascending by a lower bound on
/// `δ_i(q)` and `Δ_i(q)` of their live sites — as ascending ids, plus the
/// number of sets read in either stage.
///
/// Stage 2 is the shared collect (`quant.rs`) at `r = d2`, keeping the
/// sites with an entry at `d < min_{j≠i} Δ_j(q)` (`d2` for the witness,
/// `d1` for the rest: Lemma 2.1's `δ_i(q) < min_{j≠i} Δ_j(q)`). Each bound
/// is `≤ d2`, so the closed disk holds every such entry. With `d2 = ∞` (a
/// single live site) `r = d1 ≥ δ` of that site, whose bound stays `+∞`.
pub(super) fn nonzero(q: Point, scatter: &[(&DynamicSet, f64)]) -> (Vec<SiteId>, usize) {
    let (Some(t), read) = two_min(q, scatter) else {
        return (vec![], 0);
    };
    let r = if t.d2.is_finite() { t.d2 } else { t.d1 };
    let mut stats = QuantMergeStats::default();
    let mut out: Vec<SiteId> = with_collect(q, scatter, r, &mut stats, |buf| {
        buf.iter()
            .filter(|&&(d, id, _, _)| d < if id == t.id1 { t.d2 } else { t.d1 })
            .map(|&(_, id, _, _)| id)
            .collect()
    });
    out.sort_unstable();
    out.dedup();
    (out, read.max(stats.shards_touched))
}

/// Quantification over a scatter order (as for [`nonzero`]): stage 1
/// gives the radius `d2` (`∞` with a single live site, which collects
/// everything), stage 2 collects and sweeps inside it.
///
/// Set-skip proof: every live entry of a set with bound `b > d2` lies at
/// distance `> d2`, outside the collect; the collect is exact whenever the
/// sweep exits early, and is repeated at `r = ∞` otherwise (`quant.rs`).
pub(super) fn quantify(
    q: Point,
    scatter: &[(&DynamicSet, f64)],
) -> (Vec<(SiteId, f64)>, QuantMergeStats) {
    let mut stats = QuantMergeStats {
        live_locations: scatter.iter().map(|(set, _)| set.live_locations()).sum(),
        ..QuantMergeStats::default()
    };
    let (Some(t), read) = two_min(q, scatter) else {
        return (vec![], stats);
    };
    let pi = quantify_within(q, scatter, t.d2, &mut stats);
    stats.shards_touched = stats.shards_touched.max(read);
    (pi, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::{DynamicConfig, Update};
    use crate::model::DiscreteUncertainPoint;
    use crate::quantification::exact::quantification_discrete;
    use crate::workload;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The shard owning `id` under an id-hash split into `shards` shards —
    /// overlapping shard boxes, the case box pruning cannot help.
    /// Fibonacci multiplicative hashing spreads the strictly-increasing id
    /// stream evenly instead of striping it.
    fn shard_of(id: SiteId, shards: usize) -> usize {
        (((id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % shards as u64) as usize
    }

    fn partitioned(n: usize, shards: usize, seed: u64) -> (DynamicSet, Vec<DynamicSet>) {
        let base = workload::random_discrete_set(n, 3, 8.0, seed);
        let mono = DynamicSet::from_set(&base, DynamicConfig::default());
        let mut parts = vec![DynamicSet::new(DynamicConfig::default()); shards];
        for (id, p) in base.points.iter().enumerate() {
            let s = shard_of(id, shards);
            parts[s].apply_with_insert_ids(&[Update::Insert(p.clone())], &[id]);
        }
        (mono, parts)
    }

    fn reader(parts: &[DynamicSet]) -> ShardedReader {
        ShardedReader::new(parts.iter().map(|p| Arc::new(p.clone())).collect())
    }

    fn assert_families_match(mono: &DynamicSet, r: &ShardedReader, queries: &[Point]) {
        assert_eq!(r.len(), mono.len());
        assert_eq!(r.live_ids(), mono.live_ids());
        let stats = r.stats();
        assert_eq!((stats.live, stats.tombstones), (r.len(), r.tombstones()));
        for &q in queries {
            assert_eq!(r.nonzero(q), mono.nonzero(q), "NN≠0 at {q}");
            let merged = r.quantification_merged(q);
            let want: Vec<(SiteId, f64)> = mono
                .live_ids()
                .into_iter()
                .zip(quantification_discrete(&mono.live_set(), q))
                .filter(|&(_, p)| p > 0.0)
                .collect();
            assert_eq!(merged.len(), want.len());
            for ((id, got), (wid, w)) in merged.iter().zip(&want) {
                assert_eq!(id, wid);
                assert_eq!(got.to_bits(), w.to_bits(), "π at {q}");
            }
        }
    }

    #[test]
    fn shard_of_is_total_and_stable() {
        for id in 0..1000 {
            assert_eq!(shard_of(id, 1), 0);
            for s in [2, 3, 8] {
                assert!(shard_of(id, s) < s);
                assert_eq!(shard_of(id, s), shard_of(id, s));
            }
        }
        // The hash spreads a dense id range across every shard.
        let mut seen = [false; 8];
        for id in 0..64 {
            seen[shard_of(id, 8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn static_partition_matches_monolithic_at_several_shard_counts() {
        let queries: Vec<Point> = workload::random_discrete_set(12, 1, 9.0, 42)
            .points
            .iter()
            .map(|p| p.locations()[0])
            .collect();
        for shards in [1, 3, 8] {
            let (mono, parts) = partitioned(60, shards, 7 + shards as u64);
            assert_families_match(&mono, &reader(&parts), &queries);
        }
    }

    #[test]
    fn churned_partition_stays_bit_identical() {
        let mut rng = StdRng::seed_from_u64(0xD15C);
        let shards = 3;
        let (mut mono, mut parts) = partitioned(40, shards, 11);
        let queries: Vec<Point> = (0..6)
            .map(|_| Point::new(rng.gen_range(-9.0..9.0), rng.gen_range(-9.0..9.0)))
            .collect();
        let mut next_id = 40usize;
        for round in 0..12 {
            let mut live = mono.live_ids();
            // Two removes, one move, two inserts per round — mirrors the
            // engine-epoch churn mix.
            let mut ops: Vec<Update> = vec![];
            for k in 0..2usize {
                if !live.is_empty() {
                    let id = live.remove((round * 7 + k * 3) % live.len());
                    ops.push(Update::Remove(id));
                }
            }
            if !live.is_empty() {
                let id = live[(round * 5) % live.len()];
                ops.push(Update::Move {
                    id,
                    to: DiscreteUncertainPoint::certain(Point::new(
                        round as f64 - 6.0,
                        -(round as f64) / 2.0,
                    )),
                });
            }
            for k in 0..2 {
                ops.push(Update::Insert(DiscreteUncertainPoint::uniform(vec![
                    Point::new(rng.gen_range(-8.0..8.0), rng.gen_range(-8.0..8.0)),
                    Point::new(round as f64, k as f64),
                ])));
            }
            // Monolithic gets the ids the sharded side will assign: the
            // monolithic set allocates next_id.. itself, so pre-assigning
            // the identical sequence keeps both id streams equal.
            let outcome = mono.apply(&ops);
            let mut insert_ids: Vec<SiteId> = (next_id..).take(outcome.inserted.len()).collect();
            assert_eq!(outcome.inserted, insert_ids);
            next_id += insert_ids.len();
            // Scatter the same ops to shards, preserving order.
            let mut per_shard: Vec<Vec<Update>> = vec![vec![]; shards];
            let mut per_shard_ids: Vec<Vec<SiteId>> = vec![vec![]; shards];
            for op in ops {
                let (target, insert_id) = match &op {
                    Update::Insert(_) => {
                        let id = insert_ids.remove(0);
                        (shard_of(id, shards), Some(id))
                    }
                    Update::Remove(id) => (shard_of(*id, shards), None),
                    Update::Move { id, .. } => (shard_of(*id, shards), None),
                };
                per_shard[target].push(op);
                if let Some(id) = insert_id {
                    per_shard_ids[target].push(id);
                }
            }
            for (s, part) in parts.iter_mut().enumerate() {
                part.apply_with_insert_ids(&per_shard[s], &per_shard_ids[s]);
            }
            assert_families_match(&mono, &reader(&parts), &queries);
        }
    }

    #[test]
    fn empty_reader_answers_empty() {
        let parts = vec![DynamicSet::new(DynamicConfig::default()); 4];
        let r = reader(&parts);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        let q = Point::new(0.5, -0.5);
        assert!(r.nonzero(q).is_empty());
        assert_eq!(r.nonzero_touched(q).1, 0);
        assert!(r.quantification_merged(q).is_empty());
        assert!(r.live_set().is_empty());
    }

    /// Four well-separated clusters, one shard each: a query inside one
    /// cluster must prune the other shards on every family, and still match
    /// the monolithic oracle bit-for-bit.
    #[test]
    fn region_disjoint_partition_prunes_far_shards() {
        let mut rng = StdRng::seed_from_u64(0xA2B);
        let centers = [
            Point::new(-120.0, -120.0),
            Point::new(120.0, -120.0),
            Point::new(-120.0, 120.0),
            Point::new(120.0, 120.0),
        ];
        let shards = centers.len();
        let mut mono = DynamicSet::new(DynamicConfig::default());
        let mut parts = vec![DynamicSet::new(DynamicConfig::default()); shards];
        let mut id = 0usize;
        for (s, c) in centers.iter().enumerate() {
            for _ in 0..20 {
                let p = DiscreteUncertainPoint::uniform(vec![
                    Point::new(
                        c.x + rng.gen_range(-3.0..3.0),
                        c.y + rng.gen_range(-3.0..3.0),
                    ),
                    Point::new(
                        c.x + rng.gen_range(-3.0..3.0),
                        c.y + rng.gen_range(-3.0..3.0),
                    ),
                ]);
                mono.apply_with_insert_ids(&[Update::Insert(p.clone())], &[id]);
                parts[s].apply_with_insert_ids(&[Update::Insert(p)], &[id]);
                id += 1;
            }
        }
        let r = reader(&parts);
        let queries: Vec<Point> = centers
            .iter()
            .map(|c| Point::new(c.x + 0.5, c.y - 0.5))
            .collect();
        assert_families_match(&mono, &r, &queries);
        for &q in &queries {
            let (_, nz_touched) = r.nonzero_touched(q);
            assert!(nz_touched < shards, "NN≠0 touched {nz_touched} at {q}");
            let (pi, stats) = r.quantification_merged_with_stats(q);
            let nonzero = r.nonzero(q);
            assert!(
                pi.iter().all(|(id, _)| nonzero.binary_search(id).is_ok()),
                "answer ids outside NN≠0 at {q} (Lemma 2.1)"
            );
            assert!(
                stats.shards_touched < shards,
                "quant touched {} at {q}",
                stats.shards_touched
            );
        }
    }

    /// Hash partitioning makes every shard's box cover the cloud, so an
    /// interior query touches all shards — the pruning must degrade to the
    /// plain scatter-gather, not mis-prune.
    #[test]
    fn hash_partition_touches_every_shard_for_interior_queries() {
        let shards = 3;
        let (_, parts) = partitioned(60, shards, 5);
        let r = reader(&parts);
        let q = Point::new(0.0, 0.0);
        assert_eq!(r.nonzero_touched(q).1, shards);
        assert_eq!(
            r.quantification_merged_with_stats(q).1.shards_touched,
            shards
        );
    }

    /// A spatial rebalance migrates an id out of a shard and (possibly)
    /// back later; the re-adoption must revive the stale live-list slot
    /// instead of duplicating it.
    #[test]
    fn readopting_a_migrated_id_revives_the_stale_slot() {
        let mut set = DynamicSet::new(DynamicConfig::default());
        let a = DiscreteUncertainPoint::certain(Point::new(1.0, 2.0));
        let b = DiscreteUncertainPoint::certain(Point::new(-3.0, 0.5));
        set.apply_with_insert_ids(&[Update::Insert(a.clone()), Update::Insert(b)], &[7, 9]);
        // Migrate id 7 away…
        set.apply(&[Update::Remove(7)]);
        assert_eq!(set.live_ids(), vec![9]);
        // …and back. The stale copy of 7 must be revived, not duplicated.
        set.apply_with_insert_ids(&[Update::Insert(a)], &[7]);
        assert_eq!(set.live_ids(), vec![7, 9]);
        assert_eq!(set.len(), 2);
        let hits = set.nonzero(Point::new(1.0, 2.0));
        assert!(hits.contains(&7), "{hits:?}");
    }
}
