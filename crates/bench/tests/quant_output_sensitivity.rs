//! Output-sensitivity of exact quantification serving: warm `quant:merged`
//! TopK batches must allocate per query in proportion to the answer, not
//! to the live site count. By Lemma 2.1 only `NN≠0(q)` can carry `π > 0`,
//! and at constant site density its size does not grow with `n`, so heap
//! bytes per query must stay flat from n = 4 096 to n = 65 536 (16× the
//! sites). A sweep or answer that kept `n`-length state would scale ~16×.
//! The same holds for the work: a query collects the live entries inside
//! its Lemma 2.1 radius, and at constant density that count must stay flat
//! too (read from the `dynamic.quant.entries_collected` obs counter — a
//! deterministic count, not a timing).
//!
//! Flat is not enough: the heap per query must also be the answer's own
//! bytes plus [`OVERHEAD_BYTES`]. A warm query allocates its ranked answer
//! (16 bytes per positive estimate), the `Arc` that shares it, and the
//! TopK prefix it returns; the sweep, the collect and the scatter order
//! run in per-thread scratch.
//!
//! The binary installs [`CountingAlloc`] to read heap traffic, and holds a
//! single test so no sibling test allocates or collects while it measures.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uncertain_bench::measure::{heap_counters, CountingAlloc};
use uncertain_engine::{Engine, EngineConfig, QuantPlan, QueryRequest};
use uncertain_geom::Point;
use uncertain_nn::model::{DiscreteSet, DiscreteUncertainPoint};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Sites per unit area, held constant across sizes.
const DENSITY: f64 = 2.0;
/// Locations per site, all within a box of this side around its center.
const K: usize = 3;
const CLUSTER: f64 = 4.0;
const BATCH: usize = 256;
/// Heap bytes per warm TopK query beyond its ranked answer: the answer's
/// `Arc` (40 B), the returned top-3 prefix (48 B), the query's share of the
/// batch's result vector, and the rest of the batch's fixed cost spread
/// over [`BATCH`] queries.
const OVERHEAD_BYTES: f64 = 256.0;

/// Side of the square holding `n` sites at [`DENSITY`].
fn side(n: usize) -> f64 {
    (n as f64 / DENSITY).sqrt()
}

fn sites(n: usize, seed: u64) -> DiscreteSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let half = side(n) / 2.0;
    let r = CLUSTER / 2.0;
    DiscreteSet::new(
        (0..n)
            .map(|_| {
                let c = Point::new(rng.gen_range(-half..half), rng.gen_range(-half..half));
                let locs = (0..K)
                    .map(|_| Point::new(c.x + rng.gen_range(-r..r), c.y + rng.gen_range(-r..r)))
                    .collect();
                let weights = (0..K).map(|_| rng.gen_range(0.2..1.0)).collect();
                DiscreteUncertainPoint::new(locs, weights)
            })
            .collect(),
    )
}

fn topk_batch(n: usize, seed: u64) -> Vec<QueryRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let half = side(n) / 2.0;
    (0..BATCH)
        .map(|_| QueryRequest::TopK {
            q: Point::new(rng.gen_range(-half..half), rng.gen_range(-half..half)),
            k: 3,
        })
        .collect()
}

/// Bytes of the ranked answer to `q`: one `(id, π)` pair per positive
/// estimate.
fn answer_bytes(eng: &Engine, q: Point) -> usize {
    let positive = eng.estimates(q).iter().filter(|&&p| p > 0.0).count();
    positive * std::mem::size_of::<(usize, f64)>()
}

/// Heap bytes, collected entries and ranked-answer bytes per query of a
/// warm, uncached, single-threaded merged TopK batch over `n` sites (for
/// the batch of the three with the fewest bytes, so a one-off allocation
/// cannot decide the figure).
fn per_query(n: usize) -> (f64, f64, f64) {
    let collected = uncertain_obs::registry().counter("dynamic.quant.entries_collected");
    let eng = Engine::new(
        sites(n, 7),
        EngineConfig {
            threads: Some(1),
            cache_capacity: 0,
            ..EngineConfig::default()
        },
    );
    // The first batch sizes the per-thread collect and sweep buffers.
    eng.run_batch(&topk_batch(n, 8));
    (0..3)
        .map(|round| {
            let batch = topk_batch(n, 9 + round);
            let answer: usize = batch.iter().map(|r| answer_bytes(&eng, r.point())).sum();
            let (b0, c0) = (heap_counters().0, collected.get());
            let resp = eng.run_batch(&batch);
            let bytes = heap_counters().0 - b0;
            let entries = collected.get() - c0;
            assert_eq!(resp.stats.plan.quant, Some(QuantPlan::Merged), "n = {n}");
            assert_eq!(resp.stats.quant_merged_evals, BATCH, "n = {n}");
            let per = |x: f64| x / BATCH as f64;
            (per(bytes as f64), per(entries as f64), per(answer as f64))
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("three batches")
}

#[test]
fn merged_topk_heap_per_query_is_independent_of_n() {
    let (small, small_entries, small_answer) = per_query(4_096);
    let (large, large_entries, large_answer) = per_query(65_536);
    println!("heap bytes/query: n = 4096: {small:.0}, n = 65536: {large:.0}");
    println!("answer bytes/query: n = 4096: {small_answer:.0}, n = 65536: {large_answer:.0}");
    println!(
        "entries collected/query: n = 4096: {small_entries:.1}, n = 65536: {large_entries:.1}"
    );
    assert!(small > 0.0, "CountingAlloc is not installed");
    assert!(
        large <= 2.0 * small,
        "heap per query grew {:.1}× for 16× the sites ({small:.0} → {large:.0} B)",
        large / small
    );
    for (n, bytes, answer) in [(4_096, small, small_answer), (65_536, large, large_answer)] {
        assert!(
            bytes <= answer + OVERHEAD_BYTES,
            "n = {n}: {bytes:.0} B/query for a {answer:.0} B answer (bound: answer + {OVERHEAD_BYTES} B)"
        );
    }
    assert!(small_entries > 0.0, "no entries collected");
    assert!(
        large_entries <= 2.0 * small_entries,
        "entries collected per query grew {:.1}× for 16× the sites ({small_entries:.1} → {large_entries:.1})",
        large_entries / small_entries
    );
}
