//! Criterion benches for the serving engine (experiment E24): batch
//! throughput vs worker count and cache effect.
//!
//! Reports queries/sec via the harness's `Throughput` hook. Honors
//! `UNC_ENGINE_THREADS` (pins every engine below to that worker count) and
//! `UNC_BENCH_SMOKE`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use uncertain_engine::{Engine, EngineConfig, QueryRequest};
use uncertain_nn::workload;

fn nonzero_batch(m: usize, seed: u64) -> Vec<QueryRequest> {
    workload::random_queries(m, 60.0, seed)
        .into_iter()
        .map(|q| QueryRequest::Nonzero { q })
        .collect()
}

/// E24: batch throughput scaling vs thread count (cold cache per engine,
/// shared prebuilt structures via a warm-up batch).
fn bench_thread_scaling(c: &mut Criterion) {
    let n = if criterion::smoke_mode() { 200 } else { 5_000 };
    let set = workload::random_discrete_set(n, 3, 5.0, 1);
    let batch = nonzero_batch(512, 2);
    let mut g = c.benchmark_group("engine_threads");
    g.sample_size(10);
    g.throughput(Throughput::Elements(batch.len() as u64));
    for &threads in uncertain_bench::sweep(&[1usize, 2, 4, 8]) {
        let engine = Engine::new(
            set.clone(),
            EngineConfig {
                threads: Some(threads),
                cache_capacity: 0, // cache off: measure raw execution
                ..EngineConfig::default()
            },
        );
        engine.run_batch(&batch); // warm: builds the planned structure
        g.bench_with_input(BenchmarkId::new("batch512", threads), &batch, |b, batch| {
            b.iter(|| engine.run_batch(batch));
        });
    }
    g.finish();
}

/// Cache effect: repeated batch (all hits) vs rotating batches (all misses,
/// LRU-bounded).
fn bench_cache(c: &mut Criterion) {
    let n = if criterion::smoke_mode() { 100 } else { 2_000 };
    let set = workload::random_discrete_set(n, 3, 5.0, 5);
    let mut g = c.benchmark_group("engine_cache");
    g.sample_size(10);
    let batch: Vec<QueryRequest> = workload::random_queries(256, 60.0, 6)
        .into_iter()
        .map(|q| QueryRequest::Threshold { q, tau: 0.2 })
        .collect();
    g.throughput(Throughput::Elements(batch.len() as u64));

    let engine = Engine::new(set.clone(), EngineConfig::default());
    engine.run_batch(&batch); // populate
    g.bench_with_input(BenchmarkId::new("repeat", "hits"), &batch, |b, batch| {
        b.iter(|| engine.run_batch(batch));
    });

    let cold = Engine::new(
        set,
        EngineConfig {
            cache_capacity: 0, // cache off entirely
            ..EngineConfig::default()
        },
    );
    cold.run_batch(&batch);
    let mut round = 0u64;
    g.bench_with_input(BenchmarkId::new("rotate", "misses"), &(), |b, _| {
        b.iter(|| {
            round += 1;
            let fresh: Vec<QueryRequest> = workload::random_queries(256, 60.0, 1000 + round)
                .into_iter()
                .map(|q| QueryRequest::Threshold { q, tau: 0.2 })
                .collect();
            cold.run_batch(&fresh)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_thread_scaling, bench_cache);
criterion_main!(benches);
