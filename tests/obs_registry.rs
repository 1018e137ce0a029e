//! Integration suite for the observability layer (`uncertain_obs`):
//! property tests for the log₂ histogram's bucket boundaries (every value
//! lands in exactly one bucket; boundaries are closed-lower/open-upper as
//! documented), plus an end-to-end check that serving a batch through
//! `uncertain_engine` populates the per-layer metrics the README's
//! Observability section promises.

use proptest::prelude::*;
use uncertain_obs::{bucket_index, bucket_upper, HIST_BUCKETS};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_value_lands_in_exactly_one_bucket(v in 0u64..=u64::MAX) {
        let b = bucket_index(v);
        prop_assert!(b < HIST_BUCKETS);
        // Bucket b covers (bucket_upper(b-1), bucket_upper(b)]: membership
        // in b excludes membership in every other bucket.
        prop_assert!(v <= bucket_upper(b));
        if b > 0 {
            prop_assert!(v > bucket_upper(b - 1));
        }
    }

    #[test]
    fn powers_of_two_open_a_new_bucket(k in 0u32..64) {
        // 2^k is the closed lower edge of bucket k+1 — the value itself
        // lands there, and its predecessor lands one bucket below, so the
        // boundary belongs to exactly one bucket.
        let v = 1u64 << k;
        prop_assert_eq!(bucket_index(v), (k + 1) as usize);
        prop_assert_eq!(bucket_index(v - 1), k as usize);
    }
}

#[test]
fn engine_batch_populates_per_layer_metrics() {
    use uncertain_engine::{Engine, EngineConfig, QueryRequest};
    use uncertain_nn::workload;

    let set = workload::random_discrete_set(300, 3, 5.0, 11);
    let engine = Engine::new(set, EngineConfig::default());
    let batch: Vec<QueryRequest> = workload::random_queries(32, 60.0, 3)
        .into_iter()
        .flat_map(|q| {
            [
                QueryRequest::Nonzero { q },
                QueryRequest::Threshold { q, tau: 0.2 },
            ]
        })
        .collect();
    let resp = engine.run_batch(&batch);
    assert!(
        resp.stats
            .spans
            .iter()
            .any(|s| s.name.starts_with("engine.exec.") && s.count > 0),
        "ExecStats must attribute per-plan execution spans to the batch: {:?}",
        resp.stats.spans
    );
    assert!(resp
        .stats
        .spans
        .iter()
        .all(|s| !s.name.ends_with(".cycles")));

    let snap = uncertain_obs::MetricsSnapshot::capture();
    let hist_count = |n: &str| {
        snap.histograms
            .iter()
            .find(|(name, _)| *name == n)
            .map_or(0, |(_, h)| h.count())
    };
    let counter = |n: &str| {
        snap.counters
            .iter()
            .find(|(name, _)| *name == n)
            .map_or(0, |(_, v)| *v)
    };
    assert!(hist_count("engine.batch.wall") > 0);
    assert!(hist_count("engine.exec.quant.merged") > 0);
    assert!(counter("engine.batch.requests") >= batch.len() as u64);

    // A second identical batch is all cache hits — the registry's cache
    // counters must reflect both the misses and the hits, and the batch
    // counter accumulates both batches.
    engine.run_batch(&batch);
    let snap = uncertain_obs::MetricsSnapshot::capture();
    let counter = |n: &str| {
        snap.counters
            .iter()
            .find(|(name, _)| *name == n)
            .map_or(0, |(_, v)| *v)
    };
    assert!(counter("engine.cache.hits") > 0);
    assert!(counter("engine.cache.misses") > 0);
    assert!(counter("engine.cache.inserts") > 0);
    assert!(counter("engine.batch.requests") >= 2 * batch.len() as u64);
}
