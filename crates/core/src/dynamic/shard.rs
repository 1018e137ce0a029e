//! Scatter-gather query drivers over a partition of the site universe into
//! independent [`DynamicSet`] shards.
//!
//! The reader is **partition-agnostic**: each site lives in exactly one
//! shard (by id hash, by spatial region — the reader never asks which),
//! each shard is a full Bentley–Saxe structure (buckets, tombstone bitmaps,
//! warm quant summaries) that mutates independently. Every query family
//! recombines **bit-identically** to a single monolithic set holding the
//! union, because each already recombines across *buckets* by an operation
//! that is independent of how the union is partitioned:
//!
//! * `NN≠0` — the global Lemma 2.1 threshold pair `(d1, d2)` is the
//!   min/second-min of `Δ_i(q)` over the union; [`ShardedReader::nonzero`]
//!   folds per-shard [`DynamicSet::nonzero_two_min`] triples with the same
//!   fold the monolithic set applies per bucket, then gathers per-shard
//!   range reports against the (globally identical) threshold floats.
//! * Quantification — bucket streams emit stable site ids, the k-way merge
//!   heap orders entries by `(distance, id)`, and each site is in exactly
//!   one shard, so a merge over *all shards'* bucket streams draws the
//!   exact entry sequence the monolithic merge draws, into the same Eq. (2)
//!   sweep core. No cross-shard id map is needed: a site's dense index in
//!   the union is the rank of its id among the union's ascending live ids,
//!   a strictly increasing relabeling, so `(d, id)` ties order exactly as
//!   `(d, dense)` ties do in the static sweep over the union.
//! * Expected-distance NN — the minimum of per-shard branch-and-bound
//!   minima, folded with the monolithic cross-bucket tie rule (exact ties
//!   break to the smaller id; the witness among bitwise-equal values is
//!   unspecified either way, the *value* is always the exact minimum).
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
//! change any output bit (each skip rule carries its proof inline). Under
//! hash partitioning every shard's box covers essentially the whole cloud,
//! so the bounds are all ~0 and nothing is pruned — the pruned driver
//! degrades to the plain scatter-gather. Under a spatial partitioner the
//! boxes are near-disjoint and clustered queries touch `O(1)` shards.
//! The `*_touched` variants report how many shards a query actually
//! visited — the engine reports it as its per-batch fan-out.
//!
//! A single-shard reader runs the same code: its one shard is the whole
//! scatter order, nothing is pruned, and the gather is the shard's own
//! bucket merge — the same bits as the shard's own [`DynamicSet`] queries,
//! so a serving engine with `S = 1` answers exactly like the single set.
//!
//! `tests/sharded_differential.rs` checks engines built on this reader
//! after every op of randomized interleavings against the core-library
//! oracle at S ∈ {1, 3, 8} under both hash and spatial partitioners.

use std::sync::{Arc, OnceLock};

use super::{DynamicSet, DynamicStats, QuantMergeStats, SiteId};
use crate::model::DiscreteSet;
use crate::quantification::sweep::{sweep_sparse, KWayMerge};
use uncertain_geom::{Aabb, Point};

/// Relative pruning slack for the expected-NN shard skip, mirroring the
/// in-bucket branch-and-bound's `PRUNE_MARGIN` (`crate::expected`): the
/// computed `Σ_j w_j·d(q, p_ij)` can round a few ulps below its true value,
/// whose magnitude scales with the distances — so the skip test needs
/// headroom relative to both the incumbent and the shard bound.
const PRUNE_MARGIN: f64 = 1e-9;

/// The shard owning `id` under hash partitioning into `shards` shards.
/// Fibonacci multiplicative hashing: cheap, deterministic, and spreads the
/// strictly-increasing id stream evenly instead of striping it.
#[inline]
pub fn shard_of(id: SiteId, shards: usize) -> usize {
    debug_assert!(shards > 0);
    (((id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % shards as u64) as usize
}

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

    /// Per-shard lower bounds `dist(q, box_s)` (`∞` for shards with no live
    /// sites) plus the scatter visit order: non-empty shards ascending by
    /// `(bound, shard index)`.
    fn scatter_order(&self, q: Point) -> (Vec<f64>, Vec<usize>) {
        let boxes = self.support_aabbs();
        let mut dist = vec![f64::INFINITY; self.shards.len()];
        let mut order: Vec<usize> = Vec::with_capacity(self.shards.len());
        for (s, shard) in self.shards.iter().enumerate() {
            if shard.is_empty() {
                continue;
            }
            dist[s] = boxes[s].dist_to_point(q);
            order.push(s);
        }
        order.sort_unstable_by(|&a, &b| dist[a].total_cmp(&dist[b]).then(a.cmp(&b)));
        (dist, order)
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
            total.indexed_buckets += d.indexed_buckets;
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
        let (dist, order) = self.scatter_order(q);
        let mut visited = vec![false; self.shards.len()];
        let Some((d1, id1, d2)) = self.pruned_two_min(q, &dist, &order, &mut visited) else {
            return (vec![], 0);
        };
        // Gather: every visited shard range-reports against the same global
        // floats. Skip proof: a site is reported iff `δ_i(q) < bound(i)`
        // with `bound(i) ≤ d2` when d2 is finite — so `radius = d2` there,
        // and `dist[s] > radius` gives `δ_i ≥ dist[s] > radius ≥ bound(i)`
        // for every live `i ∈ s`: nothing in `s` reports. With `d2 = ∞`
        // (single live site) `radius = d1 ≥ δ` of that site, so its shard's
        // bound is never exceeded and it is never skipped. Strictness
        // matters: a shard at exactly `dist[s] == radius` may still hold a
        // reportable site (`δ == dist[s] < bound` is possible only when
        // `bound > radius`, i.e. the ∞ case — but skipping only the strict
        // exterior is what the proof licenses, so that is what we do).
        let radius = if d2.is_finite() { d2 } else { d1 };
        let mut out: Vec<SiteId> = vec![];
        for &s in &order {
            if dist[s] > radius {
                break; // ascending order: every later shard is outside too
            }
            visited[s] = true;
            self.shards[s].nonzero_report_into(q, id1, d1, d2, &mut out);
        }
        out.sort_unstable();
        (out, visited.iter().filter(|&&v| v).count())
    }

    /// Stage 1 with pruning: fold per-shard two-min triples in ascending
    /// box-distance order into the global `(d1, best id, d2)`, skipping the
    /// tail of shards whose bound proves they cannot contribute. Marks
    /// every visited shard in `visited`.
    ///
    /// Skip proof: every live site `i ∈ s` has `Δ_i(q) ≥ dist[s]` (all its
    /// locations lie in `box_s`). The fold updates `best` only on
    /// `d < best.0` and `second` only on `d < second`, and
    /// `best.0 ≤ second` throughout — so once `dist[s] ≥ second`, no site
    /// of `s` can change either float or the witness, and (visiting in
    /// ascending bound order, with `second` only shrinking) neither can any
    /// later shard: `break`, not `continue`. The resulting `(d1, d2)` are
    /// the min/second-min of a multiset and hence identical to any other
    /// fold order; the witness can differ from the monolithic bucket-order
    /// fold only on an exact `Δ` tie at `d1`, where `d2 == d1` makes the
    /// stage-2 bound witness-independent (see
    /// [`DynamicSet::nonzero_report_into`]).
    fn pruned_two_min(
        &self,
        q: Point,
        dist: &[f64],
        order: &[usize],
        visited: &mut [bool],
    ) -> Option<(f64, SiteId, f64)> {
        let mut best: (f64, SiteId) = (f64::INFINITY, SiteId::MAX);
        let mut second = f64::INFINITY;
        let mut any = false;
        for &s in order {
            if dist[s] >= second {
                break;
            }
            visited[s] = true;
            let Some((d, id, sec)) = self.shards[s].nonzero_two_min(q) else {
                continue;
            };
            any = true;
            if d < best.0 {
                second = best.0;
                best = (d, id);
            } else if d < second {
                second = d;
            }
            if sec < second {
                second = sec;
            }
        }
        any.then_some((best.0, best.1, second))
    }

    /// Merged quantification over the union: one k-way merge across the
    /// surviving shards' id-keyed bucket streams into the shared sweep
    /// core, answering `(id, π)` for `π > 0` in ascending id order.
    /// Bit-identical to the monolithic merged (and fresh) paths.
    pub fn quantification_merged(&self, q: Point) -> Vec<(SiteId, f64)> {
        self.quantification_merged_with_stats(q).0
    }

    /// [`quantification_merged`](Self::quantification_merged) plus the
    /// reuse metrics the serving engine aggregates (buckets and warm
    /// buckets count across the shards that joined the merge;
    /// `shards_touched` counts every shard the query read, including the
    /// threshold probe).
    ///
    /// Shard-exclusion proof: let `d2` be the global second-smallest
    /// `Δ_i(q)` over the live union (from the pruned stage-1 fold). Site
    /// weights are normalized at construction
    /// ([`crate::model::DiscreteUncertainPoint::new`]), so once all of a
    /// site's locations have entered the sweep its accumulated weight is 1
    /// up to a few ulps of summation error (`≪ ZERO_THRESH = 1e-12` for any
    /// realistic per-site location count) and its survival factor clamps to
    /// exactly 0 — the sweep's own early-exit contract. The sites attaining
    /// `d1` and `d2` have fully entered by the end of the equal-distance
    /// batch at `d2`, so the driver's `zeros >= 2` exit fires no later than
    /// that batch. Every live site of a shard with `dist[s] > d2` has *all*
    /// entries at distance `> d2`, i.e. strictly after the exit batch in
    /// the `(d, id)` merge order — the sweep never processes them. (At
    /// most one such entry is drawn as the driver's batch-boundary
    /// lookahead and discarded; only [`KWayMerge::consumed`] — a statistic,
    /// not an answer — can differ.) Dropping those shards' streams
    /// therefore changes no output bit. When every shard's bound is equal
    /// (hash partitioning: all ~0) no exclusion is possible — `d2 ≥ d1 ≥`
    /// the best shard's bound `=` every bound — so the threshold probe is
    /// skipped entirely and the driver degrades to the plain all-shards
    /// merge.
    pub fn quantification_merged_with_stats(
        &self,
        q: Point,
    ) -> (Vec<(SiteId, f64)>, QuantMergeStats) {
        let mut stats = QuantMergeStats {
            live_locations: self.live_locations(),
            ..QuantMergeStats::default()
        };
        let (dist, order) = self.scatter_order(q);
        let mut visited = vec![false; self.shards.len()];
        let uniform_bounds = match (order.first(), order.last()) {
            (Some(&first), Some(&last)) => dist[first] == dist[last],
            _ => true,
        };
        let cutoff = if uniform_bounds {
            f64::INFINITY
        } else {
            match self.pruned_two_min(q, &dist, &order, &mut visited) {
                Some((_, _, d2)) => d2, // ∞ (single live site) excludes nothing
                None => f64::INFINITY,
            }
        };
        let mut streams = vec![];
        for &s in &order {
            if dist[s] > cutoff {
                break; // ascending order: every later shard is beyond too
            }
            visited[s] = true;
            self.shards[s].open_quant_streams(q, &mut streams, &mut stats);
        }
        // Stream *indices* differ from the monolithic merge (and between
        // partitioners), but the heap's `(d, id, stream)` tie-break never
        // reaches the stream field on distinct sites (ordered by id) and a
        // single site's entries all share one stream — so the drawn entry
        // sequence is independent of stream numbering.
        let mut merge = KWayMerge::new(streams);
        let pi = sweep_sparse(&mut merge);
        stats.entries_merged = merge.consumed();
        stats.shards_touched = visited.iter().filter(|&&v| v).count();
        (pi, stats)
    }

    /// The live site minimizing expected distance to `q`, with that
    /// distance: the fold of per-shard branch-and-bound minima under the
    /// monolithic cross-bucket tie rule (exact ties to the smaller id).
    /// The value is bit-identical to the monolithic query; the witness
    /// among exact ties is unspecified there too.
    pub fn expected_nn(&self, q: Point) -> Option<(SiteId, f64)> {
        self.expected_nn_touched(q).0
    }

    /// [`expected_nn`](Self::expected_nn) plus the number of shards the
    /// query visited after box pruning.
    ///
    /// Skip proof: for every live site `i ∈ s`, `E[d(q, P_i)] =
    /// Σ_j w_j·d(q, p_ij)` with every `d(q, p_ij) ≥ dist[s]` and normalized
    /// weights, so its true value is `≥ dist[s]`; the computed f64 value
    /// can round below that by an error scaling with `ulp` of the distance
    /// magnitude, which `PRUNE_MARGIN·(1 + be + dist[s])` dominates by ~7
    /// orders (the same slack the in-bucket branch-and-bound uses, see
    /// [`crate::expected::ExpectedNnIndex::query_where`]). When the skip
    /// test holds, every site of `s` therefore computes `e > be` strictly —
    /// it can neither win (`e < be`) nor tie (`e == be`) under the fold
    /// rule, so the fold's value *and witness* are unchanged. `be` only
    /// shrinks and bounds only grow along the visit order, so the condition
    /// is monotone: `break`, not `continue`.
    pub fn expected_nn_touched(&self, q: Point) -> (Option<(SiteId, f64)>, usize) {
        let (dist, order) = self.scatter_order(q);
        let mut touched = 0usize;
        let mut best: Option<(SiteId, f64)> = None;
        for &s in &order {
            if let Some((_, be)) = best {
                if dist[s] > be + PRUNE_MARGIN * (1.0 + be + dist[s]) {
                    break;
                }
            }
            touched += 1;
            if let Some((id, e)) = self.shards[s].expected_nn(q) {
                let better = match best {
                    None => true,
                    Some((bid, be)) => e < be || (e == be && id < bid),
                };
                if better {
                    best = Some((id, e));
                }
            }
        }
        (best, touched)
    }
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
            match (r.expected_nn(q), mono.expected_nn(q)) {
                (None, None) => {}
                (Some((_, ge)), Some((_, we))) => {
                    assert_eq!(ge.to_bits(), we.to_bits(), "E[d] at {q}")
                }
                (got, want) => panic!("expected-NN mismatch: {got:?} vs {want:?}"),
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
        assert!(r.expected_nn(q).is_none());
        assert_eq!(r.expected_nn_touched(q).1, 0);
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
            let (_, e_touched) = r.expected_nn_touched(q);
            assert!(e_touched < shards, "E[d] touched {e_touched} at {q}");
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
        assert_eq!(r.expected_nn_touched(q).1, shards);
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
