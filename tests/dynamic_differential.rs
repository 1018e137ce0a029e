//! Randomized op-sequence differential harness for the dynamic
//! (Bentley–Saxe) layer: proptest-generated interleavings of
//! insert / remove / move / query are checked **after every operation**
//! against a brute-force oracle rebuilt from scratch over the surviving
//! sites, for both query families:
//!
//! * `NN≠0` — must equal the Lemma 2.1 evaluation of a fresh static build
//!   (and a fresh Theorem 3.2 index) exactly;
//! * quantification — the merged path, a sorted collect of the live
//!   entries inside the Lemma 2.1 radius from per-bucket kd summaries
//!   (twice, so a query after another on the same thread agrees too),
//!   must be **bit-identical** to the
//!   Eq. (2) sweep over the fresh build, as must that sweep over the
//!   dynamic set's own `live_set()`. Both paths share one sweep core fed
//!   the same entry order, so any divergence is a real bug, not float
//!   noise.
//!
//! Runs under the vendored deterministic proptest: failures print a
//! replayable `cc` seed line for `tests/proptest-regressions/
//! dynamic_differential.txt`. CI's `dynamic-gauntlet` and `quant-gauntlet`
//! jobs repeat the suite at `PROPTEST_CASES=2048`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uncertain_geom::Point;
use uncertain_nn::dynamic::{DynamicConfig, DynamicSet, SiteId};
use uncertain_nn::model::{DiscreteSet, DiscreteUncertainPoint};
use uncertain_nn::nonzero::{nonzero_nn_discrete, DiscreteNonzeroIndex};
use uncertain_nn::quantification::exact::quantification_discrete;
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

/// The mirror the oracle is rebuilt from: `(stable id, site)`, ascending id
/// (inserts append fresh ids, moves replace in place, removes delete).
type Mirror = Vec<(SiteId, DiscreteUncertainPoint)>;

fn oracle_set(mirror: &Mirror) -> (DiscreteSet, Vec<SiteId>) {
    let ids: Vec<SiteId> = mirror.iter().map(|&(id, _)| id).collect();
    let set = DiscreteSet::new(mirror.iter().map(|(_, p)| p.clone()).collect());
    (set, ids)
}

/// Applies one encoded op to both the dynamic structure and the mirror.
fn apply_op(d: &mut DynamicSet, mirror: &mut Mirror, op: RawOp) {
    let (sel, x, y, dx, dy, w) = op;
    match sel {
        0 => {
            // Two-location site; both weights positive by construction.
            let site = DiscreteUncertainPoint::new(
                vec![Point::new(x, y), Point::new(x + dx, y + dy)],
                vec![w, 1.05 - w],
            );
            let id = d.insert(site.clone());
            mirror.push((id, site));
        }
        1 => {
            let site = DiscreteUncertainPoint::certain(Point::new(x, y));
            let id = d.insert(site.clone());
            mirror.push((id, site));
        }
        2 if mirror.len() > 1 => {
            let victim = (w * mirror.len() as f64) as usize % mirror.len();
            let (id, _) = mirror.remove(victim);
            assert!(d.remove(id), "live id {id} failed to remove");
        }
        _ if !mirror.is_empty() => {
            let victim = ((w + dx.abs()) * mirror.len() as f64) as usize % mirror.len();
            let id = mirror[victim].0;
            let site = DiscreteUncertainPoint::uniform(vec![
                Point::new(x, y),
                Point::new(x + dx, y + dy),
                Point::new(x - dy, y + dx),
            ]);
            assert!(d.update_location(id, site.clone()));
            mirror[victim].1 = site;
        }
        _ => {}
    }
}

/// The full differential check at one query point.
fn check_all_families(d: &DynamicSet, mirror: &Mirror, q: Point) -> Result<(), TestCaseError> {
    let (fresh, ids) = oracle_set(mirror);
    prop_assert_eq!(d.len(), fresh.len());

    // NN≠0 vs the Lemma 2.1 oracle over the fresh build.
    let got = d.nonzero(q);
    let want: Vec<SiteId> = nonzero_nn_discrete(&fresh, q)
        .into_iter()
        .map(|dense| ids[dense])
        .collect();
    prop_assert_eq!(&got, &want, "NN≠0 mismatch at {}", q);

    // …and vs a fresh Theorem 3.2 index (static-structure cross-check).
    let mut via_index = DiscreteNonzeroIndex::build(&fresh).query(q);
    via_index.sort_unstable();
    let via_index: Vec<SiteId> = via_index.into_iter().map(|dense| ids[dense]).collect();
    prop_assert_eq!(&got, &via_index, "fresh-index mismatch at {}", q);

    // Quantification: the static Eq. (2) sweep over the mirror's build and
    // over the dynamic set's own live set, zipped with its live ids, agree
    // bit for bit.
    let pi_fresh = quantification_discrete(&fresh, q);
    let live_ids = d.live_ids();
    prop_assert_eq!(&live_ids, &ids);
    let pi_live = quantification_discrete(&d.live_set(), q);
    prop_assert_eq!(pi_live.len(), pi_fresh.len());
    for ((id, got_pi), want_pi) in live_ids.iter().zip(&pi_live).zip(&pi_fresh) {
        prop_assert_eq!(
            got_pi.to_bits(),
            want_pi.to_bits(),
            "π for site {} at {}: live set {} vs fresh {}",
            id,
            q,
            got_pi,
            want_pi
        );
    }

    // The merged path (the radius collect over per-bucket kd summaries,
    // tombstones filtered as it collects) must answer with the oracle's
    // π > 0 sites, ascending by id, bit-identical — and, by Lemma 2.1, a
    // subset of NN≠0(q) — on the first query and again on a repeat, which
    // reuses the thread's collect and sweep buffers.
    let want_merged: Vec<(SiteId, f64)> = pi_fresh
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p > 0.0)
        .map(|(dense, &p)| (ids[dense], p))
        .collect();
    for pass in ["first", "repeat"] {
        let (pi_merged, mstats) = d.quantification_merged_with_stats(q);
        prop_assert_eq!(
            pi_merged.len(),
            want_merged.len(),
            "merged answer size at {}",
            q
        );
        for (&(id, got_pi), &(want_id, want_pi)) in pi_merged.iter().zip(&want_merged) {
            prop_assert_eq!(id, want_id, "merged ids ({}) at {}", pass, q);
            prop_assert_eq!(
                got_pi.to_bits(),
                want_pi.to_bits(),
                "merged π ({}) for site {} at {}: merged {} vs fresh {}",
                pass,
                id,
                q,
                got_pi,
                want_pi
            );
            prop_assert!(
                got.binary_search(&id).is_ok(),
                "merged id {} outside NN≠0 at {}",
                id,
                q
            );
        }
        prop_assert!(mstats.entries_merged <= mstats.live_locations);
    }
    Ok(())
}

fn run_differential(ops: &[RawOp], config: DynamicConfig) -> Result<(), TestCaseError> {
    let base = workload::random_discrete_set(10, 3, 5.0, 0xD1FF);
    let mut d = DynamicSet::from_set(&base, config);
    let mut mirror: Mirror = base
        .points
        .iter()
        .enumerate()
        .map(|(i, p)| (i, p.clone()))
        .collect();
    let fixed_queries = workload::random_queries(2, 60.0, 0xD1FF ^ 1);
    for &op in ops {
        apply_op(&mut d, &mut mirror, op);
        // Check at the op's own coordinates (adversarially close to the
        // mutated site) and at two fixed far-field points.
        let (_, x, y, dx, dy, _) = op;
        for q in [Point::new(x, y), Point::new(x + dx, y + dy)]
            .into_iter()
            .chain(fixed_queries.iter().copied())
        {
            check_all_families(&d, &mirror, q)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Default configuration: lazy compaction.
    #[test]
    fn dynamic_matches_fresh_build_after_every_op(ops in prop::collection::vec(raw_op(), 1..28)) {
        run_differential(&ops, DynamicConfig::default())?;
    }

    /// Aggressive compaction: the same sequences exercise global rebuilds,
    /// which rebuild every bucket (each with its stage-1 group tree).
    #[test]
    fn dynamic_matches_fresh_build_with_indexed_buckets(ops in prop::collection::vec(raw_op(), 1..28)) {
        run_differential(&ops, DynamicConfig {
            max_dead_fraction: 0.15,
            min_dead_for_rebuild: 3,
        })?;
    }
}

/// A long deterministic churn stream (no proptest, bigger n): checks every
/// 10th op plus the final state, so regressions in amortized paths (deep
/// carries, repeated global rebuilds) surface even if the short proptest
/// sequences miss them.
#[test]
fn long_churn_stream_stays_consistent() {
    let base = workload::random_discrete_set(48, 3, 5.0, 0xBEEF);
    let mut d = DynamicSet::from_set(&base, DynamicConfig::default());
    let mut mirror: Mirror = base
        .points
        .iter()
        .enumerate()
        .map(|(i, p)| (i, p.clone()))
        .collect();
    let mut rng = StdRng::seed_from_u64(0xBEEF ^ 7);
    let queries = workload::random_queries(3, 60.0, 0xBEEF ^ 9);
    for step in 0..400 {
        let op: RawOp = (
            rng.gen_range(0..4u32) as u8,
            rng.gen_range(-30.0..30.0),
            rng.gen_range(-30.0..30.0),
            rng.gen_range(-8.0..8.0),
            rng.gen_range(-8.0..8.0),
            rng.gen_range(0.05..1.0),
        );
        apply_op(&mut d, &mut mirror, op);
        if step % 10 == 0 || step >= 396 {
            for &q in &queries {
                check_all_families(&d, &mirror, q).unwrap();
            }
        }
    }
    let s = d.stats();
    assert!(s.rebuild.merges > 0);
    assert!(
        s.rebuild.amortized_rebuild_cost() <= (s.live.max(2) as f64).log2() * 4.0 + 8.0,
        "amortized rebuild cost blew past the logarithmic bound: {:?}",
        s.rebuild
    );
}

/// Removing everything and refilling keeps ids stable and answers exact —
/// the tombstone → global-rebuild → reuse cycle end to end.
#[test]
fn drain_and_refill_cycle() {
    let base = workload::random_discrete_set(20, 2, 4.0, 0xACE);
    let mut d = DynamicSet::from_set(&base, DynamicConfig::default());
    let mut mirror: Mirror = base
        .points
        .iter()
        .enumerate()
        .map(|(i, p)| (i, p.clone()))
        .collect();
    let q = Point::new(1.0, 1.0);
    while mirror.len() > 1 {
        let (id, _) = mirror.remove(0);
        assert!(d.remove(id));
        check_all_families(&d, &mirror, q).unwrap();
    }
    for i in 0..20 {
        let site = DiscreteUncertainPoint::certain(Point::new(i as f64, -i as f64));
        let id = d.insert(site.clone());
        mirror.push((id, site));
        check_all_families(&d, &mirror, q).unwrap();
    }
    assert_eq!(d.len(), 21);
}
