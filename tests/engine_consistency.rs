//! Engine ↔ library consistency: batched, multi-threaded engine answers must
//! be **identical** to the direct single-threaded library calls for nonzero
//! sets, and within the declared `Guarantee` slack for probabilities — for
//! all three request shapes, at 1 worker and at >1 workers.
//!
//! CI runs this suite twice: once with `UNC_ENGINE_THREADS=1` and once with
//! the environment's default parallelism (the env var overrides the explicit
//! per-engine thread counts below, so the 1-vs-4 comparisons degenerate to
//! 1-vs-1 under the pinned run — still a valid identity check).

use uncertain_engine::{Engine, EngineConfig, QueryRequest, QueryResult};
use uncertain_geom::Point;
use uncertain_nn::quantification::exact::quantification_discrete;
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

fn engine_with(set: &uncertain_nn::DiscreteSet, threads: usize, guarantee: Guarantee) -> Engine {
    Engine::new(
        set.clone(),
        EngineConfig {
            threads: Some(threads),
            guarantee,
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
        let engine = engine_with(&set, threads, Guarantee::Exact);
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
    // results regardless of sharding, for every guarantee tier.
    let set = workload::random_discrete_set(80, 3, 5.0, 103);
    let batch = mixed_batch(&workload::random_queries(48, 60.0, 104), 0.2, 4);
    for guarantee in [
        Guarantee::Exact,
        Guarantee::Additive(0.05),
        Guarantee::Probabilistic {
            eps: 0.1,
            delta: 0.05,
        },
    ] {
        let r1 = engine_with(&set, 1, guarantee).run_batch(&batch);
        let r4 = engine_with(&set, 4, guarantee).run_batch(&batch);
        assert_eq!(
            r1.results, r4.results,
            "results diverged across worker counts under {guarantee:?}"
        );
    }
}

#[test]
fn approximate_engines_respect_declared_slack() {
    let set = workload::random_discrete_set(50, 3, 6.0, 105);
    let queries = workload::random_queries(30, 60.0, 106);
    let batch = mixed_batch(&queries, 0.2, 5);
    for (threads, requested) in [
        (1usize, Guarantee::Additive(0.05)),
        (4, Guarantee::Additive(0.05)),
        (
            1,
            Guarantee::Probabilistic {
                eps: 0.1,
                delta: 0.05,
            },
        ),
        (
            4,
            Guarantee::Probabilistic {
                eps: 0.1,
                delta: 0.05,
            },
        ),
    ] {
        let engine = engine_with(&set, threads, requested);
        let resp = engine.run_batch(&batch);
        for (req, res) in batch.iter().zip(&resp.results) {
            match (req, res) {
                (QueryRequest::Nonzero { q }, QueryResult::Nonzero(ids)) => {
                    // Nonzero sets stay exact under every guarantee tier.
                    let mut direct = set.nonzero_nn(*q);
                    direct.sort_unstable();
                    assert_eq!(ids, &direct);
                }
                (QueryRequest::Threshold { q, tau }, QueryResult::Ranked { items, guarantee }) => {
                    // The served guarantee is at least as tight as the one
                    // requested (an exact plan serves slack 0).
                    let slack = guarantee.slack();
                    assert!(
                        slack <= requested.slack(),
                        "served slack {slack} exceeds requested {}",
                        requested.slack()
                    );
                    let pi = quantification_discrete(&set, *q);
                    // Estimates within slack of exact values…
                    for &(i, est) in items {
                        assert!(
                            (est - pi[i]).abs() <= slack + 1e-9,
                            "π̂_{i} = {est} vs exact {} beyond slack {slack}",
                            pi[i]
                        );
                    }
                    // …and no false negatives at threshold τ.
                    let reported: Vec<usize> = items.iter().map(|&(i, _)| i).collect();
                    for (i, &p) in pi.iter().enumerate() {
                        if p >= *tau {
                            assert!(reported.contains(&i), "π_{i} = {p} ≥ τ missing at {q}");
                        }
                    }
                }
                (QueryRequest::TopK { q, k }, QueryResult::Ranked { items, guarantee }) => {
                    assert!(items.len() <= *k);
                    // Each reported winner is within 2·slack of the best
                    // unreported exact probability it displaced.
                    let pi = quantification_discrete(&set, *q);
                    let slack = guarantee.slack();
                    let mut best_missing: f64 = 0.0;
                    for (i, &p) in pi.iter().enumerate() {
                        if !items.iter().any(|&(j, _)| j == i) {
                            best_missing = best_missing.max(p);
                        }
                    }
                    if items.len() == *k {
                        for &(i, _) in items {
                            assert!(
                                pi[i] >= best_missing - 2.0 * slack - 1e-9,
                                "top-{k} member π_{i} = {} vs displaced {best_missing}",
                                pi[i]
                            );
                        }
                    }
                }
                other => panic!("shape mismatch: {other:?}"),
            }
        }
    }
}

#[test]
fn engine_quantifier_agrees_with_library_quantifier_trait() {
    // `Engine::estimates` is the same quantity `Quantifier::estimate_all`
    // exposes; under the exact guarantee they must agree bit-for-bit.
    let set = workload::random_discrete_set(35, 3, 5.0, 107);
    let engine = engine_with(&set, 1, Guarantee::Exact);
    let exact = ExactQuantifier(&set);
    for q in workload::random_queries(20, 60.0, 108) {
        let (pi, g) = engine.estimates(q);
        assert_eq!(g, Guarantee::Exact);
        assert_eq!(pi, exact.estimate_all(q));
    }
}

#[test]
fn snapped_cache_identity_within_cells_and_certified_error() {
    // With a positive grid every query in a cell gets the identical answer,
    // and the widened guarantee certifies the distance to the exact answer.
    let set = workload::random_discrete_set(25, 3, 6.0, 109);
    let grid = 0.75;
    let engine = Engine::new(
        set.clone(),
        EngineConfig {
            threads: Some(2),
            cache_grid: grid,
            ..EngineConfig::default()
        },
    );
    for center in workload::random_queries(15, 50.0, 110) {
        let jitter = [
            Point::new(center.x + 0.2 * grid, center.y - 0.1 * grid),
            Point::new(center.x - 0.15 * grid, center.y + 0.22 * grid),
        ];
        let (pi0, g0) = engine.estimates(center);
        for q in jitter {
            if uncertain_engine::quantize_point(q, grid)
                != uncertain_engine::quantize_point(center, grid)
            {
                continue; // jitter crossed a cell boundary: different key
            }
            let (pi, g) = engine.estimates(q);
            assert_eq!(pi0, pi, "same cell must serve identical answers");
            assert_eq!(g0, g);
            let exact = quantification_discrete(&set, q);
            for (i, (est, ex)) in pi.iter().zip(&exact).enumerate() {
                assert!(
                    (est - ex).abs() <= g.slack() + 1e-9,
                    "certified slack violated for π_{i}"
                );
            }
        }
    }
}

#[test]
fn stats_report_plan_cache_and_utilization() {
    let set = workload::random_discrete_set(1500, 3, 5.0, 111);
    let engine = engine_with(&set, 2, Guarantee::Exact);
    let batch: Vec<QueryRequest> = workload::random_queries(24, 60.0, 112)
        .iter()
        .cycle()
        .take(192)
        .map(|&q| QueryRequest::Nonzero { q })
        .collect();
    let resp = engine.run_batch(&batch);
    let s = &resp.stats;
    assert!(s.plan.nonzero.is_some());
    assert!(!s.plan.estimates.is_empty());
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

/// Approximate engines serve TopK and Threshold as prefixes of a cached
/// ranked answer, padding Threshold with the zero estimates when
/// `τ − slack ≤ 0`. Both must equal the plain dense filter of
/// `Engine::estimates(q)`, on either side of the slack.
#[test]
fn approximate_ranked_answers_equal_the_dense_filter_of_estimates() {
    // Unit spread and k = 2 keep the spiral budget small, so a large batch
    // plans the approximate evaluator rather than the exact merge.
    let set = workload::spread_discrete_set(1500, 2, 1.0, 109);
    let queries = workload::random_queries(100, 60.0, 110);
    for requested in [
        Guarantee::Additive(0.05),
        Guarantee::Probabilistic {
            eps: 0.1,
            delta: 0.05,
        },
    ] {
        let slack = requested.slack();
        let (below, above) = (0.5 * slack, slack + 0.05);
        let mut batch = vec![];
        for &q in &queries {
            batch.push(QueryRequest::TopK { q, k: 4 });
            batch.push(QueryRequest::Threshold { q, tau: below });
            batch.push(QueryRequest::Threshold { q, tau: above });
        }
        let engine = engine_with(&set, 1, requested);
        let resp = engine.run_batch(&batch);
        let plan = resp.stats.plan.summary();
        assert!(
            plan.contains("spiral") || plan.contains("mc"),
            "{requested:?} planned {plan}, not an approximate evaluator"
        );
        let ids = engine.site_ids();
        let mut padded = 0;
        for (req, res) in batch.iter().zip(&resp.results) {
            let QueryResult::Ranked { items, guarantee } = res else {
                panic!("shape mismatch: {res:?}");
            };
            let (pi, g) = engine.estimates(req.point());
            assert_eq!(*guarantee, g, "{requested:?} at {}", req.point());
            let want = match *req {
                QueryRequest::TopK { k, .. } => {
                    let mut v = dense_filter(&pi, &ids, |p| p > 0.0);
                    v.truncate(k);
                    v
                }
                QueryRequest::Threshold { tau, .. } => {
                    if tau <= g.slack() {
                        padded += 1;
                        assert_eq!(items.len(), ids.len(), "τ ≤ slack admits every site");
                    }
                    dense_filter(&pi, &ids, |p| p >= tau - g.slack())
                }
                QueryRequest::Nonzero { .. } => unreachable!(),
            };
            assert_eq!(items.len(), want.len(), "{req:?} under {requested:?}");
            for (&(id, p), &(wid, w)) in items.iter().zip(&want) {
                assert_eq!(id, wid, "{req:?} under {requested:?}");
                assert_eq!(p.to_bits(), w.to_bits(), "{req:?} under {requested:?}");
            }
        }
        assert_eq!(
            padded,
            queries.len(),
            "{requested:?}: τ ≤ slack never served"
        );
    }
}
