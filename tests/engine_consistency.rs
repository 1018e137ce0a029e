//! Engine ↔ library consistency: batched, multi-threaded engine answers must
//! be **identical** to the direct single-threaded library calls — nonzero
//! sets and probabilities alike — for all three request shapes, at 1 worker
//! and at >1 workers.
//!
//! CI runs this suite twice: once with `UNC_ENGINE_THREADS=1` and once with
//! the environment's default parallelism (the env var overrides the explicit
//! per-engine thread counts below, so the 1-vs-4 comparisons degenerate to
//! 1-vs-1 under the pinned run — still a valid identity check).

use uncertain_engine::{Engine, EngineConfig, QueryRequest, QueryResult};
use uncertain_geom::Point;
use uncertain_nn::queries::{threshold_nn, top_k_probable, ExactQuantifier, Guarantee, Quantifier};
use uncertain_nn::workload;

/// A mixed batch over shared query points: every shape at every point.
fn mixed_batch(queries: &[Point], tau: f64, k: usize) -> Vec<QueryRequest> {
    let mut batch = Vec::with_capacity(3 * queries.len());
    for &q in queries {
        batch.push(QueryRequest::Nonzero { q });
        batch.push(QueryRequest::Threshold { q, tau });
        batch.push(QueryRequest::TopK { q, k });
    }
    batch
}

fn engine_with(set: &uncertain_nn::DiscreteSet, threads: usize) -> Engine {
    Engine::new(
        set.clone(),
        EngineConfig {
            threads: Some(threads),
            ..EngineConfig::default()
        },
    )
}

#[test]
fn exact_engine_matches_library_at_one_and_many_workers() {
    let set = workload::random_discrete_set(60, 3, 6.0, 101);
    let queries = workload::random_queries(40, 60.0, 102);
    let batch = mixed_batch(&queries, 0.25, 3);
    let exact = ExactQuantifier(&set);

    for threads in [1usize, 4] {
        let engine = engine_with(&set, threads);
        let resp = engine.run_batch(&batch);
        assert_eq!(resp.results.len(), batch.len());
        for (req, res) in batch.iter().zip(&resp.results) {
            match (req, res) {
                (QueryRequest::Nonzero { q }, QueryResult::Nonzero(ids)) => {
                    let mut direct = set.nonzero_nn(*q);
                    direct.sort_unstable();
                    assert_eq!(ids, &direct, "NN≠0 mismatch at {q} ({threads} workers)");
                }
                (QueryRequest::Threshold { q, tau }, QueryResult::Ranked { items, guarantee }) => {
                    assert_eq!(*guarantee, Guarantee::Exact);
                    assert_eq!(
                        items,
                        &threshold_nn(&exact, *q, *tau),
                        "threshold mismatch at {q} ({threads} workers)"
                    );
                }
                (QueryRequest::TopK { q, k }, QueryResult::Ranked { items, .. }) => {
                    assert_eq!(
                        items,
                        &top_k_probable(&exact, *q, *k),
                        "top-k mismatch at {q} ({threads} workers)"
                    );
                }
                other => panic!("request/result shape mismatch: {other:?}"),
            }
        }
    }
}

#[test]
fn batched_results_are_identical_across_worker_counts() {
    // Threaded execution must be a pure performance knob: bit-identical
    // results regardless of how the batch is split across workers.
    let set = workload::random_discrete_set(80, 3, 5.0, 103);
    let batch = mixed_batch(&workload::random_queries(48, 60.0, 104), 0.2, 4);
    let r1 = engine_with(&set, 1).run_batch(&batch);
    let r4 = engine_with(&set, 4).run_batch(&batch);
    assert_eq!(
        r1.results, r4.results,
        "results diverged across worker counts"
    );
}

#[test]
fn engine_quantifier_agrees_with_library_quantifier_trait() {
    // `Engine::estimates` is the same quantity `Quantifier::estimate_all`
    // exposes; both are exact, so they must agree bit-for-bit.
    let set = workload::random_discrete_set(35, 3, 5.0, 107);
    let engine = engine_with(&set, 1);
    let exact = ExactQuantifier(&set);
    for q in workload::random_queries(20, 60.0, 108) {
        assert_eq!(engine.estimates(q), exact.estimate_all(q));
    }
}

#[test]
fn stats_report_plan_cache_and_utilization() {
    let set = workload::random_discrete_set(1500, 3, 5.0, 111);
    let engine = engine_with(&set, 2);
    let batch: Vec<QueryRequest> = workload::random_queries(24, 60.0, 112)
        .iter()
        .cycle()
        .take(192)
        .map(|&q| QueryRequest::Nonzero { q })
        .collect();
    let resp = engine.run_batch(&batch);
    let s = &resp.stats;
    assert_eq!(s.plan.summary(), "nonzero:dynamic");
    assert_eq!(s.cache_hits + s.cache_misses, batch.len());
    assert!(s.cache_hits > 0, "repeated queries in one batch must hit");
    assert!(s.wall.as_nanos() > 0);
    let repeat = engine.run_batch(&batch);
    assert_eq!(repeat.stats.cache_misses, 0);
    assert_eq!(resp.results, repeat.results);
}

/// The dense filter the ranked answers must reproduce: `(id, π̂)` for every
/// estimate passing `keep`, by decreasing estimate then increasing id.
fn dense_filter(pi: &[f64], ids: &[usize], keep: impl Fn(f64) -> bool) -> Vec<(usize, f64)> {
    let mut items: Vec<(usize, f64)> = pi
        .iter()
        .zip(ids)
        .filter(|&(&p, _)| keep(p))
        .map(|(&p, &id)| (id, p))
        .collect();
    items.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    items
}

/// The engine serves TopK and Threshold as prefixes of one cached ranked
/// answer. Both must equal the plain dense filter of `Engine::estimates(q)`
/// bit for bit: TopK its first `k` positive estimates, Threshold every
/// estimate `≥ τ`. `τ = f64::MIN_POSITIVE` is the smallest threshold a
/// request may carry, so it must return exactly the sites with `π > 0` and
/// never a site with `π = 0`.
#[test]
fn ranked_answers_equal_the_dense_filter_of_estimates() {
    let set = workload::random_discrete_set(300, 3, 6.0, 109);
    let queries = workload::random_queries(60, 60.0, 110);
    // A second engine learns each query's estimates, so the batch below
    // runs on a cold cache with a threshold that ties an actual estimate.
    let probe = engine_with(&set, 1);
    let mut batch = vec![];
    for &q in &queries {
        batch.push(QueryRequest::TopK { q, k: 4 });
        batch.push(QueryRequest::Threshold { q, tau: 0.25 });
        batch.push(QueryRequest::Threshold {
            q,
            tau: f64::MIN_POSITIVE,
        });
        let mut pi = probe.estimates(q);
        pi.sort_by(|a, b| b.total_cmp(a));
        if pi.len() > 1 && pi[1] > 0.0 {
            batch.push(QueryRequest::Threshold { q, tau: pi[1] });
        }
    }
    let engine = engine_with(&set, 1);
    let resp = engine.run_batch(&batch);
    assert_eq!(resp.stats.plan.summary(), "quant:merged");
    let ids = engine.site_ids();
    let mut zeros_excluded = 0;
    for (req, res) in batch.iter().zip(&resp.results) {
        let QueryResult::Ranked { items, guarantee } = res else {
            panic!("shape mismatch: {res:?}");
        };
        assert_eq!(*guarantee, Guarantee::Exact);
        let pi = engine.estimates(req.point());
        let want = match *req {
            QueryRequest::TopK { k, .. } => {
                let mut v = dense_filter(&pi, &ids, |p| p > 0.0);
                v.truncate(k);
                v
            }
            QueryRequest::Threshold { tau, .. } => {
                let v = dense_filter(&pi, &ids, |p| p >= tau);
                if tau == f64::MIN_POSITIVE {
                    assert_eq!(v, dense_filter(&pi, &ids, |p| p > 0.0), "{req:?}");
                    zeros_excluded += ids.len() - v.len();
                }
                v
            }
            QueryRequest::Nonzero { .. } => unreachable!(),
        };
        assert_eq!(items.len(), want.len(), "{req:?}");
        for (&(id, p), &(wid, w)) in items.iter().zip(&want) {
            assert_eq!(id, wid, "{req:?}");
            assert_eq!(p.to_bits(), w.to_bits(), "{req:?}");
        }
    }
    assert!(zeros_excluded > 0, "no site with π = 0 was exercised");
}
