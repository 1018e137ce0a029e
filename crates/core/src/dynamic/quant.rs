//! Stage 2 of both query families, and the radius-bounded exact
//! quantification built on it.
//!
//! A [`QuantIndex`] is a bucket's query-free summary and its only location
//! tree: a kd-tree over all of the bucket's locations plus the flat
//! `location → (local site, location index, weight)` tables. It is built
//! **lazily** on the first query that reaches the bucket and lives inside
//! the immutable, `Arc`-shared [`Bucket`](super::bucket::Bucket) — so it is
//! invalidated exactly when the bucket itself is replaced (a carry or a
//! global compaction) and stays warm across engine epoch snapshots that
//! share the bucket. The collect filters tombstones against the slot's
//! alive bitmap.
//!
//! Both families run `NN≠0`'s two stages. Stage 1 (the shared fold in
//! [`super::shard`]) gives Lemma 2.1's pair `(d1, d2)`: the two smallest
//! `Δ_i(q)` over the live sites. Stage 2 ([`with_collect`]) has every live
//! bucket within `d2` range-report its live locations at distance `≤ d2`
//! from its kd-tree; `NN≠0` filters them, quantification sorts them by
//! `(distance, site id, location index)` and feeds them to [`sweep_sparse`].
//!
//! Why the radius suffices: the sites attaining `d1` and `d2` have every
//! location at distance `≤ d2`, so by the end of the equal-distance batch
//! at `d2` both of their survival factors have clamped to 0 and the sweep
//! exits (`zeros ≥ 2`). The collect holds every live entry with
//! `d ≤ d2`, ties included, so up to that exit it *is* the full stream.
//! That argument rests on floats (weights summing to 1 within
//! `ZERO_THRESH`, `Δ_i` computed with the same distance bits as the
//! locations), so it is checked at run time, not assumed: when the sweep
//! reads the whole collect without exiting early, the collect is repeated
//! at `r = ∞`, which is complete and therefore exact, and the retry is
//! counted in the `dynamic.quant.full_collects` obs counter.
//!
//! Ordering contract (what makes answers bit-identical to the static
//! sweep over the live set): the kd leaf kernel yields exact `q.dist(loc)`
//! values, and `(d, id, location)` order is exactly the `(d, dense,
//! location)` order a stable distance sort of the canonical flat entry
//! list produces — a site's dense index in the static set is the rank of
//! its id among the ascending live ids, a strictly increasing relabeling.
//! Sites of every bucket and every shard sort into one list, so no
//! per-bucket stream or cross-bucket merge is needed, and the sweep keeps
//! state only for the sites it reads.

use std::cell::RefCell;
use std::sync::Arc;

use super::{DynamicSet, QuantMergeStats, SiteId};
use crate::model::DiscreteUncertainPoint;
use crate::quantification::sweep::{sweep_sparse, SweepEntry, SweepSource};
use uncertain_geom::Point;
use uncertain_spatial::soa::bitmap_get;
use uncertain_spatial::KdTree;

/// One collected live location: `(distance, site id, location index,
/// weight)`.
pub(crate) type QuantEntry = (f64, SiteId, u32, f64);

/// A bucket's query-free summary: kd-tree over locations + flat
/// per-location table.
pub(crate) struct QuantIndex {
    kd: KdTree,
    /// Flat location index → (local site index, location index within its
    /// site, weight): one load per hit.
    table: Vec<(u32, u32, f64)>,
}

impl QuantIndex {
    /// Builds the summary over a bucket's sites (local order). `O(m log m)`
    /// in the bucket's location count `m`.
    pub fn build(sites: &[Arc<DiscreteUncertainPoint>]) -> Self {
        let total: usize = sites.iter().map(|s| s.k()).sum();
        let mut items = Vec::with_capacity(total);
        let mut table = Vec::with_capacity(total);
        for (local, site) in sites.iter().enumerate() {
            for (li, (&loc, &w)) in site.locations().iter().zip(site.weights()).enumerate() {
                items.push((loc, items.len() as u32));
                table.push((local as u32, li as u32, w));
            }
        }
        QuantIndex {
            kd: KdTree::build(items),
            table,
        }
    }

    /// Appends every live location at distance `≤ r` from `q` to `out`,
    /// unsorted. `ids[local]` is the public id of the bucket's local site;
    /// `alive`, the slot's tombstone bitmap, filters dead locals.
    pub fn collect(
        &self,
        q: Point,
        r: f64,
        ids: &[SiteId],
        alive: &[u64],
        out: &mut Vec<QuantEntry>,
    ) {
        self.kd.for_each_in_disk_with_dist(q, r, |_, flat, d| {
            let (local, li, w) = self.table[flat as usize];
            if bitmap_get(alive, local as usize) {
                out.push((d, ids[local as usize], li, w));
            }
        });
    }
}

/// The sorted collect as a sweep source, counting the entries the sweep
/// reads.
struct Collected<'a> {
    entries: &'a [QuantEntry],
    read: usize,
}

impl SweepSource for Collected<'_> {
    #[inline]
    fn next_entry(&mut self) -> Option<SweepEntry> {
        let &(d, id, _, w) = self.entries.get(self.read)?;
        self.read += 1;
        Some((d, id, w))
    }
}

thread_local! {
    /// Each thread's collect buffer, reused across queries so a query
    /// allocates only its answer and the sweep's per-site state.
    static COLLECT: RefCell<Vec<QuantEntry>> = const { RefCell::new(Vec::new()) };
}

/// Entries a thread's collect buffer keeps room for between queries; a
/// rare larger collect (a far query, a full retry) is not pinned to the
/// thread afterwards.
const KEEP_ENTRIES: usize = 1 << 14;

/// Stage 2 of both query families over `scatter` (sets with lower bounds on
/// their sites' distances, ascending — see [`super::shard`]): fills the
/// calling thread's collect buffer with every live entry at distance `≤ r`
/// from `q`, unsorted, and returns `f` of it. Sets the bucket, warm-bucket
/// and shard (sets read) counts of `stats`.
pub(super) fn with_collect<T>(
    q: Point,
    scatter: &[(&DynamicSet, f64)],
    r: f64,
    stats: &mut QuantMergeStats,
    f: impl FnOnce(&mut [QuantEntry]) -> T,
) -> T {
    COLLECT.with_borrow_mut(|buf| {
        buf.clear();
        stats.buckets = 0;
        stats.warm_buckets = 0;
        stats.shards_touched = 0;
        for &(set, bound) in scatter {
            if bound > r {
                break; // ascending bounds: every later set is beyond too
            }
            stats.shards_touched += 1;
            set.collect_quant(q, r, buf, stats);
        }
        let out = f(buf);
        if buf.capacity() > KEEP_ENTRIES {
            buf.clear();
            buf.shrink_to(KEEP_ENTRIES);
        }
        out
    })
}

/// Sorts a collect by `(distance, site id, location)` and sweeps it:
/// `(answer, stopped early, entries read)`.
fn sort_and_sweep(entries: &mut [QuantEntry]) -> (Vec<(SiteId, f64)>, bool, usize) {
    uncertain_obs::counter!("dynamic.quant.entries_collected").add(entries.len() as u64);
    entries.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let mut source = Collected { entries, read: 0 };
    let (pi, stopped) = sweep_sparse(&mut source);
    (pi, stopped, source.read)
}

/// Quantification over `scatter` at radius `r`: sweeps the collect at `r`,
/// and again at `r = ∞` when the sweep did not exit early (see the module
/// docs). Returns the `(id, π)` pairs with `π > 0` in ascending id order.
/// Fills `stats` with the counts of the collect that produced the answer.
pub(super) fn quantify_within(
    q: Point,
    scatter: &[(&DynamicSet, f64)],
    r: f64,
    stats: &mut QuantMergeStats,
) -> Vec<(SiteId, f64)> {
    let (mut pi, stopped, mut read) = with_collect(q, scatter, r, stats, sort_and_sweep);
    if !stopped && r < f64::INFINITY {
        uncertain_obs::counter!("dynamic.quant.full_collects").inc();
        (pi, _, read) = with_collect(q, scatter, f64::INFINITY, stats, sort_and_sweep);
    }
    stats.entries_merged = read;
    pi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::DynamicConfig;
    use crate::model::DiscreteSet;
    use crate::quantification::exact::{quantification_discrete, sweep_entries};
    use crate::quantification::sweep::SortedSlab;
    use crate::workload;

    /// The static sweep's `π > 0` entries over `d`'s live set, keyed by id.
    fn oracle(d: &DynamicSet, q: Point) -> Vec<(SiteId, f64)> {
        d.live_ids()
            .into_iter()
            .zip(quantification_discrete(&d.live_set(), q))
            .filter(|&(_, p)| p > 0.0)
            .collect()
    }

    fn assert_bits(got: &[(SiteId, f64)], want: &[(SiteId, f64)], what: &str) {
        assert_eq!(got.len(), want.len(), "answer size: {what}");
        for ((gi, gp), (wi, wp)) in got.iter().zip(want) {
            assert_eq!(gi, wi, "ids: {what}");
            assert_eq!(gp.to_bits(), wp.to_bits(), "π of {gi}: {what}");
        }
    }

    #[test]
    fn stream_replays_the_stable_sorted_entry_order() {
        // The whole-disk collect, sorted by (d, id, location), is the entry
        // sequence the static sweep's stable distance sort produces.
        let set = workload::random_discrete_set(12, 3, 5.0, 91);
        let sites: Vec<Arc<DiscreteUncertainPoint>> =
            set.points.iter().map(|p| Arc::new(p.clone())).collect();
        let qi = QuantIndex::build(&sites);
        let alive = vec![u64::MAX; 1];
        let ids: Vec<SiteId> = (0..sites.len()).collect();
        for q in workload::random_queries(10, 50.0, 92) {
            let mut got = vec![];
            qi.collect(q, f64::INFINITY, &ids, &alive, &mut got);
            got.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then((a.1, a.2).cmp(&(b.1, b.2))));
            let mut slab = SortedSlab::new(sweep_entries(&set, q));
            let mut want = vec![];
            while let Some(e) = slab.next_entry() {
                want.push(e);
            }
            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.0.to_bits(), b.0.to_bits());
                assert_eq!(a.1, b.1);
                assert_eq!(a.3.to_bits(), b.2.to_bits());
            }
            // A finite radius keeps exactly the entries inside the closed
            // disk.
            let r = want[want.len() / 2].0;
            let mut inside = vec![];
            qi.collect(q, r, &ids, &alive, &mut inside);
            assert_eq!(inside.len(), want.iter().filter(|e| e.0 <= r).count());
        }
    }

    #[test]
    fn dead_sites_are_filtered_at_draw_time() {
        let set = workload::random_discrete_set(8, 2, 4.0, 93);
        let sites: Vec<Arc<DiscreteUncertainPoint>> =
            set.points.iter().map(|p| Arc::new(p.clone())).collect();
        let qi = QuantIndex::build(&sites);
        // Kill locals 1, 4, 5; label locals with sparse ascending ids.
        let mut alive = vec![u64::MAX; 1];
        for local in [1usize, 4, 5] {
            alive[0] &= !(1u64 << local);
        }
        let ids: Vec<SiteId> = (0..8).map(|local| 1000 + 7 * local).collect();
        let q = Point::new(0.5, -0.5);
        let mut entries = vec![];
        qi.collect(q, f64::INFINITY, &ids, &alive, &mut entries);
        entries.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then((a.1, a.2).cmp(&(b.1, b.2))));
        let survivors = DiscreteSet::new(
            set.points
                .iter()
                .enumerate()
                .filter(|&(i, _)| ![1usize, 4, 5].contains(&i))
                .map(|(_, p)| p.clone())
                .collect(),
        );
        let (pi, _) = sweep_sparse(&mut Collected {
            entries: &entries,
            read: 0,
        });
        let pi_fresh = quantification_discrete(&survivors, q);
        // Survivor `dense` is local `live_locals[dense]`, id `ids[local]`.
        let live_locals: Vec<usize> = (0..8).filter(|l| ![1, 4, 5].contains(l)).collect();
        let want: Vec<(SiteId, f64)> = pi_fresh
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p > 0.0)
            .map(|(dense, &p)| (ids[live_locals[dense]], p))
            .collect();
        assert_bits(&pi, &want, "dead locals filtered");
    }

    /// Radii below `d2` make the collect incomplete before the sweep can
    /// exit, so the run-time check must catch it and collect again in full;
    /// the query path, which collects at `d2`, must never have to.
    #[test]
    fn radii_below_d2_force_an_exact_full_collect() {
        let full_collects = uncertain_obs::registry().counter("dynamic.quant.full_collects");
        let mut counter_moved_at_d2 = 0usize;
        for seed in 0..6u64 {
            let base = workload::random_discrete_set(40, 3, 5.0, 300 + seed);
            let mut d = DynamicSet::from_set(&base, DynamicConfig::default());
            for id in (0..40).step_by(7) {
                d.remove(id);
            }
            for q in workload::random_queries(12, 50.0, 400 + seed) {
                let want = oracle(&d, q);
                let before = full_collects.get();
                let (got, stats) = d.quantification_merged_with_stats(q);
                counter_moved_at_d2 += usize::from(full_collects.get() != before);
                assert_bits(&got, &want, &format!("r = d2, seed {seed} q {q}"));
                assert!(stats.entries_merged <= stats.live_locations);
                let mut acc = crate::dynamic::TwoMin::EMPTY;
                d.fold_two_min(q, &mut acc);
                for r in [0.0, acc.d1 / 2.0, f64::from_bits(acc.d2.to_bits() - 1)] {
                    let before = full_collects.get();
                    let got = quantify_within(q, &[(&d, 0.0)], r, &mut QuantMergeStats::default());
                    assert!(
                        full_collects.get() > before,
                        "seed {seed} q {q} r {r}: no full collect"
                    );
                    assert_bits(&got, &want, &format!("r = {r}, seed {seed} q {q}"));
                }
            }
        }
        // The counter is process-wide, but only this test forces retries,
        // and it does so between the d2 reads above.
        assert_eq!(
            counter_moved_at_d2, 0,
            "a collect at d2 needed the full collect"
        );
    }
}
