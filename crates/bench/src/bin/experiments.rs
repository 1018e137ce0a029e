//! Experiment harness: regenerates every quantitative artifact of the paper.
//!
//! Usage: `cargo run --release -p uncertain_bench --bin experiments [-- ARGS]`
//! where ARGS is any subset of {E1..E17, E24..E33, A1..A6} (default: all)
//! plus:
//!
//! * `--list` — print every experiment id with a one-line description;
//! * `--smoke` / `-s` — shrink every workload to a token size (tiny n, same
//!   fixed seeds) so the full sweep finishes in seconds — used by CI to
//!   keep every experiment code path exercised.
//!
//! Output is the set of tables recorded in `EXPERIMENTS.md`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use uncertain_bench::{
    fmt, fmt_time, loglog_slope, scaled, sweep, sweep_hi, time, time_avg, Table,
};
use uncertain_geom::{Aabb, Circle, Point};
use uncertain_nn::model::{distance, ContinuousUncertainPoint};
use uncertain_nn::nonzero::{
    nonzero_nn_discrete, nonzero_nn_disks, DiscreteNonzeroIndex, DiskNonzeroIndex,
};
use uncertain_nn::quantification::exact::{quantification_continuous, quantification_discrete};
use uncertain_nn::quantification::monte_carlo::{
    samples_for_queries, MonteCarloPnn, SampleBackend,
};
use uncertain_nn::quantification::spiral::{low_weight_counterexample, SpiralSearch};
use uncertain_nn::quantification::ProbabilisticVoronoiDiagram;
use uncertain_nn::vnz::{
    constructions, vertices_brute, DiscreteNonzeroDiagram, NonzeroVoronoiDiagram, WitnessKind,
};
use uncertain_nn::workload;
use uncertain_nn::{DiscreteSet, DiskSet};

// Heap accounting for the per-experiment `bench.exp.<id>` scopes (and any
// `measure::heap_counters` use) — without this every heap metric reads 0.
#[global_allocator]
static ALLOC: uncertain_bench::measure::CountingAlloc = uncertain_bench::measure::CountingAlloc;

/// Every experiment: `(id, one-line description, runner)`.
const EXPERIMENTS: &[(&str, &str, fn())] = &[
    (
        "E1",
        "distance pdf g_{q,i} vs Monte-Carlo histogram (Figure 1)",
        e1_figure1,
    ),
    (
        "E2",
        "V≠0 complexity µ(n): cubic upper-bound sweep (Theorem 2.5)",
        e2_cubic_upper,
    ),
    (
        "E3",
        "Ω(n²) lower-bound construction (Theorem 2.7)",
        e3_lower_2_7,
    ),
    (
        "E4",
        "Ω(n³) lower-bound construction (Theorem 2.8)",
        e4_lower_2_8,
    ),
    (
        "E5",
        "disjoint-disk diagrams: near-linear complexity (Theorem 2.10)",
        e5_disjoint,
    ),
    (
        "E6",
        "discrete V≠0 diagram complexity O(kn³) (Theorem 2.14)",
        e6_discrete_diagram,
    ),
    ("E7", "V≠0 construction time scaling", e7_construction_time),
    (
        "E8",
        "disk NN≠0 queries: Theorem 3.1 structure vs brute",
        e8_disk_queries,
    ),
    (
        "E9",
        "discrete NN≠0 queries: Theorem 3.2 structure vs brute",
        e9_discrete_queries,
    ),
    (
        "E10",
        "probabilistic Voronoi diagram V_Pr size/queries (Lemma 4.1)",
        e10_vpr,
    ),
    (
        "E11",
        "Monte-Carlo quantification error vs s (Theorem 4.3)",
        e11_monte_carlo,
    ),
    (
        "E12",
        "continuous Monte-Carlo quantification (Theorem 4.5)",
        e12_continuous_mc,
    ),
    (
        "E13",
        "spiral-search error vs retrieval budget (Theorem 4.7)",
        e13_spiral,
    ),
    (
        "E14",
        "low-weight counterexample to naive truncation (Remark i)",
        e14_counterexample,
    ),
    (
        "E15",
        "guaranteed-NN region G(P) constructions (Section 2.3)",
        e15_guaranteed,
    ),
    ("E16", "nonzero k-NN extension over both models", e16_knn),
    (
        "E17",
        "discrete query-path internals (stages, candidates)",
        e17_discrete_query_path,
    ),
    (
        "E24",
        "engine: batch throughput vs threads, plans, cache hits",
        e24_engine_serving,
    ),
    (
        "E25",
        "quantifier cost: exact merge vs spiral vs Monte Carlo",
        e25_quantifier_costs,
    ),
    (
        "E26",
        "predicate filter: hit rate & exact fallbacks vs degeneracy",
        e26_predicate_filter,
    ),
    (
        "E27",
        "dynamic updates: serving under churn vs rebuild-from-scratch",
        e27_churn_serving,
    ),
    (
        "E28",
        "dynamic updates: amortized Bentley–Saxe update cost vs n",
        e28_amortized_updates,
    ),
    (
        "E29",
        "dynamic quantification: radius-bounded collect vs fresh sweep under churn",
        e29_merged_quantification,
    ),
    (
        "E30",
        "dynamic quantification: merged-vs-fresh crossover vs bucket count",
        e30_merge_crossover,
    ),
    (
        "E31",
        "sharded engine: apply throughput scaling at 1/2/4/8/16 shards",
        e31_shard_scaling,
    ),
    (
        "E32",
        "serving front-end: overload p99 with vs without shedding",
        e32_server_overload,
    ),
    (
        "E33",
        "spatial partitioning: shards touched & q/s under skew",
        e33_partitioner_locality,
    ),
    (
        "A1",
        "ablation: vertex enumeration strategies",
        a1_enumeration_ablation,
    ),
    (
        "A2",
        "ablation: Monte-Carlo sample backend (kd vs Delaunay)",
        a2_backend_ablation,
    ),
    (
        "A3",
        "ablation: Δ(q) branch-and-bound vs linear scan",
        a3_delta_ablation,
    ),
    (
        "A4",
        "ablation: expected-NN vs most-probable-NN disagreement, query cost",
        a4_expected_vs_probable,
    ),
    (
        "A5",
        "ablation: L∞ (square support) variant",
        a5_linf_variant,
    ),
    (
        "A6",
        "ablation: spiral retrieval-count sensitivity",
        a6_retrieval_ablation,
    ),
];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list" || a == "-l") {
        println!("available experiments ({} total):", EXPERIMENTS.len());
        for (id, desc, _) in EXPERIMENTS {
            println!("  {id:<5} {desc}");
        }
        println!("\nflags: --smoke/-s (token-size workloads), --obs-dump (print the");
        println!("obs/v1 metrics snapshot after the runs), --list/-l (this listing);");
        println!("UNC_OBS_FLUSH=<file> streams JSON-lines snapshots during the run");
        println!("(interval UNC_OBS_FLUSH_MS, default 1000).");
        return;
    }
    let smoke_requested = args.iter().any(|a| a == "--smoke" || a == "-s");
    args.retain(|a| a != "--smoke" && a != "-s");
    if smoke_requested {
        uncertain_bench::set_smoke(true);
        println!("[smoke mode: workloads shrunk, same fixed seeds]\n");
    }
    let obs_dump = args.iter().any(|a| a == "--obs-dump");
    args.retain(|a| a != "--obs-dump");
    // With UNC_OBS_FLUSH set, stream obs/v1 snapshots for the whole run
    // (the drop at the end of main writes the final line).
    let _flusher = uncertain_obs::Flusher::from_env();
    let unknown: Vec<&String> = args
        .iter()
        .filter(|a| {
            !EXPERIMENTS
                .iter()
                .any(|(id, _, _)| id.eq_ignore_ascii_case(a))
        })
        .collect();
    if !unknown.is_empty() {
        eprintln!("error: unknown argument(s): {unknown:?}");
        eprintln!("run with --list to see every experiment id and what it does");
        std::process::exit(2);
    }
    let selected: Vec<&(&str, &str, fn())> = if args.is_empty() {
        EXPERIMENTS.iter().collect()
    } else {
        EXPERIMENTS
            .iter()
            .filter(|(id, _, _)| args.iter().any(|a| a.eq_ignore_ascii_case(id)))
            .collect()
    };
    for (id, _, run) in selected {
        // Per-experiment wall span + heap scope: `bench.exp.<id>` in the
        // registry (span_dyn interns the dynamic id).
        let scope_name = format!("bench.exp.{id}");
        let _heap = uncertain_bench::measure::heap_scope(&scope_name);
        let _span = uncertain_obs::span_dyn(&scope_name);
        run();
        println!();
    }
    if obs_dump {
        print!("{}", uncertain_obs::MetricsSnapshot::capture().dump());
    }
}

fn header(id: &str, title: &str, claim: &str) {
    println!("== {id}: {title}");
    println!("   paper: {claim}");
}

// ---------------------------------------------------------------------------

fn e1_figure1() {
    header(
        "E1",
        "distance pdf g_{q,i} (Figure 1)",
        "uniform disk R=5 at O, q=(6,8): support [5,15], unimodal arc-length shape",
    );
    let p = ContinuousUncertainPoint::uniform(Circle::new(Point::new(0.0, 0.0), 5.0));
    let q = Point::new(6.0, 8.0);
    // Monte-Carlo histogram.
    let mut rng = StdRng::seed_from_u64(1);
    let samples = scaled(1_000_000);
    let bins = 20usize;
    let (lo, hi) = (5.0, 15.0);
    let mut hist = vec![0usize; bins];
    for _ in 0..samples {
        let d = q.dist(p.sample(&mut rng));
        let b = (((d - lo) / (hi - lo) * bins as f64) as usize).min(bins - 1);
        hist[b] += 1;
    }
    let mut t = Table::new(&["bin [r0,r1)", "analytic mass", "sampled mass", "pdf mid"]);
    let mut worst: f64 = 0.0;
    #[allow(clippy::needless_range_loop)] // `b` also drives the bin bounds
    for b in 0..bins {
        let r0 = lo + (hi - lo) * b as f64 / bins as f64;
        let r1 = lo + (hi - lo) * (b + 1) as f64 / bins as f64;
        let mass = distance::cdf(&p, q, r1) - distance::cdf(&p, q, r0);
        let emp = hist[b] as f64 / samples as f64;
        worst = worst.max((mass - emp).abs());
        t.row(&[
            format!("[{r0:.1},{r1:.1})"),
            fmt(mass),
            fmt(emp),
            fmt(distance::pdf(&p, q, 0.5 * (r0 + r1))),
        ]);
    }
    t.print();
    println!("   max |analytic − sampled| bin mass = {}", fmt(worst));
}

fn e2_cubic_upper() {
    header(
        "E2",
        "V≠0 complexity, random disks (Theorem 2.5)",
        "complexity O(n^3); random instances are far below the worst case",
    );
    let mut t = Table::new(&["n", "vertices", "edges", "faces", "µ=V+E+F", "build"]);
    let (mut xs, mut ys) = (vec![], vec![]);
    for &n in sweep(&[8usize, 12, 16, 24, 32, 48, 64]) {
        let set = workload::random_disk_set(n, 0.5, 3.0, 42 + n as u64);
        let (d, secs) = time(|| NonzeroVoronoiDiagram::build(set.regions()));
        let c = d.complexity();
        xs.push(n as f64);
        ys.push(c.total().max(1) as f64);
        t.row(&[
            n.to_string(),
            c.vertices.to_string(),
            c.edges.to_string(),
            c.faces.to_string(),
            c.total().to_string(),
            fmt_time(secs),
        ]);
    }
    t.print();
    println!(
        "   measured log-log slope of µ(n) = {:.2}  (paper upper bound: 3)",
        loglog_slope(&xs, &ys)
    );
}

fn e3_lower_2_7() {
    header(
        "E3",
        "Ω(n^3) lower-bound family, two radius classes (Theorem 2.7, Fig. 5)",
        "each (i,j,k) triple contributes 2 crossing vertices: ≥ 4m³ for n = 4m",
    );
    let mut t = Table::new(&[
        "m",
        "n",
        "predicted ≥",
        "crossings",
        "all vertices",
        "build",
    ]);
    let (mut xs, mut ys) = (vec![], vec![]);
    for m in 1..=sweep_hi(1, 5) {
        let (disks, predicted) = constructions::theorem_2_7(m);
        let (d, secs) = time(|| NonzeroVoronoiDiagram::build(disks));
        let crossings = d
            .vertices
            .iter()
            .filter(|v| matches!(v.kind, WitnessKind::Crossing { .. }))
            .count();
        xs.push((4 * m) as f64);
        ys.push(crossings.max(1) as f64);
        t.row(&[
            m.to_string(),
            (4 * m).to_string(),
            predicted.to_string(),
            crossings.to_string(),
            d.num_vertices().to_string(),
            fmt_time(secs),
        ]);
    }
    t.print();
    println!(
        "   measured log-log slope of crossings(n) = {:.2}  (paper: 3)",
        loglog_slope(&xs, &ys)
    );
}

fn e4_lower_2_8() {
    header(
        "E4",
        "Ω(n^3) lower-bound family, equal radii (Theorem 2.8, Fig. 6)",
        "each (i,j,k) triple contributes ≥ 1 crossing vertex: ≥ m³ for n = 3m",
    );
    let mut t = Table::new(&[
        "m",
        "n",
        "predicted ≥",
        "crossings",
        "all vertices",
        "build",
    ]);
    let (mut xs, mut ys) = (vec![], vec![]);
    for m in 2..=sweep_hi(2, 6) {
        let (disks, predicted) = constructions::theorem_2_8(m);
        let (d, secs) = time(|| NonzeroVoronoiDiagram::build(disks));
        let crossings = d
            .vertices
            .iter()
            .filter(|v| matches!(v.kind, WitnessKind::Crossing { .. }))
            .count();
        xs.push((3 * m) as f64);
        ys.push(crossings.max(1) as f64);
        t.row(&[
            m.to_string(),
            (3 * m).to_string(),
            predicted.to_string(),
            crossings.to_string(),
            d.num_vertices().to_string(),
            fmt_time(secs),
        ]);
    }
    t.print();
    println!(
        "   measured log-log slope of crossings(n) = {:.2}  (paper: 3)",
        loglog_slope(&xs, &ys)
    );
}

fn e5_disjoint() {
    header(
        "E5",
        "disjoint disks (Theorem 2.10, Fig. 8)",
        "complexity O(λn²) for disjoint disks with radius ratio λ; Ω(n²) lower bound",
    );
    println!("   upper-bound regime (random disjoint instances):");
    let mut t = Table::new(&["λ", "n", "vertices", "µ=V+E+F", "build"]);
    for &lambda in sweep(&[1.0f64, 2.0, 4.0, 8.0]) {
        let (mut xs, mut ys) = (vec![], vec![]);
        for &n in sweep(&[16usize, 32, 64]) {
            let set = workload::disjoint_disk_set(n, lambda, 7 + n as u64);
            let (d, secs) = time(|| NonzeroVoronoiDiagram::build(set.regions()));
            let c = d.complexity();
            xs.push(n as f64);
            ys.push(c.total().max(1) as f64);
            t.row(&[
                format!("{lambda}"),
                n.to_string(),
                c.vertices.to_string(),
                c.total().to_string(),
                fmt_time(secs),
            ]);
        }
        t.row(&[
            format!("{lambda}"),
            "slope".into(),
            format!("{:.2}", loglog_slope(&xs, &ys)),
            "(≤ 2 expected)".into(),
            "-".into(),
        ]);
    }
    t.print();
    println!("   lower-bound construction (collinear equal disks):");
    let mut t = Table::new(&["m", "n", "predicted ≥ (n−1)(n−2)", "vertices"]);
    for m in 2..=sweep_hi(2, 6) {
        let (disks, predicted) = constructions::theorem_2_10_lower(m);
        let d = NonzeroVoronoiDiagram::build(disks);
        t.row(&[
            m.to_string(),
            (2 * m).to_string(),
            predicted.to_string(),
            d.num_vertices().to_string(),
        ]);
    }
    t.print();
}

fn e6_discrete_diagram() {
    header(
        "E6",
        "discrete V≠0 complexity (Theorem 2.14)",
        "complexity O(k·n³) for n points with k locations each",
    );
    let bbox = Aabb::from_corners(Point::new(-60.0, -60.0), Point::new(60.0, 60.0));
    let mut t = Table::new(&["n", "k", "γ segments", "V", "E", "F", "µ", "build"]);
    let (mut xs, mut ys) = (vec![], vec![]);
    for &(n, k) in sweep(&[
        (4usize, 2usize),
        (6, 2),
        (8, 2),
        (12, 2),
        (16, 2),
        (6, 3),
        (6, 4),
        (6, 6),
        (6, 8),
    ]) {
        let set = workload::random_discrete_set(n, k, 8.0, 100 + (n * k) as u64);
        let (d, secs) = time(|| DiscreteNonzeroDiagram::build(&set, &bbox));
        if k == 2 {
            xs.push(n as f64);
            ys.push(d.complexity().max(1) as f64);
        }
        t.row(&[
            n.to_string(),
            k.to_string(),
            d.gamma_segment_count().to_string(),
            d.subdivision.num_vertices().to_string(),
            d.subdivision.num_edges().to_string(),
            d.subdivision.num_faces().to_string(),
            d.complexity().to_string(),
            fmt_time(secs),
        ]);
    }
    t.print();
    println!(
        "   measured log-log slope of µ(n) at k=2: {:.2}  (paper upper bound: 3)",
        loglog_slope(&xs, &ys)
    );
}

fn e7_construction_time() {
    header(
        "E7",
        "diagram construction and query (Theorems 2.5/2.11)",
        "construction O(n² log n + µ) expected; queries O(log n + t)",
    );
    let mut t = Table::new(&["n", "µ", "build", "query (diagram)", "query (brute)"]);
    for &n in sweep(&[16usize, 32, 64, 128]) {
        let set = workload::random_disk_set(n, 0.5, 3.0, 5 + n as u64);
        let (d, secs) = time(|| NonzeroVoronoiDiagram::build(set.regions()));
        let queries = workload::random_queries(scaled(200), 70.0, 99);
        let tq = time_avg(1, || {
            for &q in &queries {
                std::hint::black_box(d.query(q));
            }
        }) / queries.len() as f64;
        let disks = set.regions();
        let tb = time_avg(1, || {
            for &q in &queries {
                std::hint::black_box(nonzero_nn_disks(&disks, q));
            }
        }) / queries.len() as f64;
        t.row(&[
            n.to_string(),
            d.complexity().total().to_string(),
            fmt_time(secs),
            fmt_time(tq),
            fmt_time(tb),
        ]);
    }
    t.print();
}

fn e8_disk_queries() {
    header(
        "E8",
        "NN≠0 queries, disks (Theorem 3.1)",
        "near-linear space, O(log n + t)-type queries vs O(n) brute force",
    );
    let mut t = Table::new(&[
        "n",
        "build",
        "query (index)",
        "query (brute)",
        "speedup",
        "avg |out|",
    ]);
    for &n in sweep(&[1_000usize, 10_000, 100_000]) {
        let n = scaled(n);
        let set = workload::random_disk_set(n, 0.05, 0.5, n as u64);
        let disks = set.regions();
        let (idx, build) = time(|| DiskNonzeroIndex::build(&set));
        let queries = workload::random_queries(scaled(500), 60.0, 3);
        let mut out_total = 0usize;
        let tq = time_avg(1, || {
            for &q in &queries {
                out_total += std::hint::black_box(idx.query(q)).len();
            }
        }) / queries.len() as f64;
        let tb = time_avg(1, || {
            for &q in &queries {
                std::hint::black_box(nonzero_nn_disks(&disks, q));
            }
        }) / queries.len() as f64;
        t.row(&[
            n.to_string(),
            fmt_time(build),
            fmt_time(tq),
            fmt_time(tb),
            format!("{:.0}x", tb / tq),
            format!("{:.1}", out_total as f64 / (2 * queries.len()) as f64),
        ]);
    }
    t.print();
}

fn e9_discrete_queries() {
    header(
        "E9",
        "NN≠0 queries, discrete (Theorem 3.2)",
        "O(√N polylog + t)-type queries at N = nk locations vs O(N) brute force",
    );
    let mut t = Table::new(&[
        "n",
        "k",
        "N",
        "build",
        "query (index)",
        "query (brute)",
        "speedup",
    ]);
    for &(n, k) in sweep(&[(1_000usize, 4usize), (10_000, 4), (50_000, 4), (10_000, 16)]) {
        let n = scaled(n);
        let set = workload::random_discrete_set(n, k, 0.8, n as u64);
        let (idx, build) = time(|| DiscreteNonzeroIndex::build(&set));
        let queries = workload::random_queries(scaled(300), 60.0, 4);
        let tq = time_avg(1, || {
            for &q in &queries {
                std::hint::black_box(idx.query(q));
            }
        }) / queries.len() as f64;
        let tb = time_avg(1, || {
            for &q in &queries {
                std::hint::black_box(nonzero_nn_discrete(&set, q));
            }
        }) / queries.len() as f64;
        t.row(&[
            n.to_string(),
            k.to_string(),
            (n * k).to_string(),
            fmt_time(build),
            fmt_time(tq),
            fmt_time(tb),
            format!("{:.0}x", tb / tq),
        ]);
    }
    t.print();
}

fn e10_vpr() {
    header(
        "E10",
        "probabilistic Voronoi diagram V_Pr (Lemma 4.1 + Theorem 4.2)",
        "size Θ(N⁴) with N = nk; exact O(log N + t) queries; Ω(n⁴) via the k=2 family",
    );
    let bbox = Aabb::from_corners(Point::new(-3.0, -3.0), Point::new(3.0, 3.0));
    let mut t = Table::new(&[
        "n",
        "N",
        "bisectors",
        "cells",
        "distinct π-vectors",
        "build",
        "query",
    ]);
    let (mut xs, mut ys) = (vec![], vec![]);
    for &n in sweep(&[3usize, 4, 5, 6, 7]) {
        let set = constructions::lemma_4_1(n, 11);
        let (vpr, secs) = time(|| ProbabilisticVoronoiDiagram::build(&set, &bbox));
        let queries = workload::random_queries(scaled(200), 2.0, 5);
        let tq = time_avg(1, || {
            for &q in &queries {
                std::hint::black_box(vpr.query(q));
            }
        }) / queries.len() as f64;
        xs.push(n as f64);
        ys.push(vpr.num_distinct_vectors().max(1) as f64);
        t.row(&[
            n.to_string(),
            (2 * n).to_string(),
            vpr.num_bisectors().to_string(),
            vpr.num_cells().to_string(),
            vpr.num_distinct_vectors().to_string(),
            fmt_time(secs),
            fmt_time(tq),
        ]);
    }
    t.print();
    println!(
        "   measured log-log slope of distinct vectors(n) = {:.2}  (paper: 4)",
        loglog_slope(&xs, &ys)
    );
}

fn e11_monte_carlo() {
    header(
        "E11",
        "Monte-Carlo quantification (Theorem 4.3)",
        "s = ⌈ln(2n|Q|/δ)/(2ε²)⌉ instantiations give additive error ≤ ε w.p. 1−δ",
    );
    let set = workload::random_discrete_set(15, 3, 6.0, 21);
    let queries = workload::random_queries(scaled(100), 60.0, 5);
    let mut t = Table::new(&["ε", "δ", "s", "max error", "build", "query"]);
    for &eps in sweep(&[0.2f64, 0.1, 0.05, 0.02]) {
        let delta = 0.05;
        let s = samples_for_queries(eps, delta, set.len(), queries.len());
        let mut rng = StdRng::seed_from_u64(2);
        let (mc, build) =
            time(|| MonteCarloPnn::build_discrete(&set, s, SampleBackend::KdTree, &mut rng));
        let mut max_err: f64 = 0.0;
        let tq = time_avg(1, || {
            for &q in &queries {
                let est = mc.estimate_all(q);
                let exact = quantification_discrete(&set, q);
                for i in 0..set.len() {
                    max_err = max_err.max((est[i] - exact[i]).abs());
                }
            }
        }) / queries.len() as f64;
        t.row(&[
            format!("{eps}"),
            format!("{delta}"),
            s.to_string(),
            fmt(max_err),
            fmt_time(build),
            fmt_time(tq),
        ]);
    }
    t.print();
}

fn e12_continuous_mc() {
    header(
        "E12",
        "continuous Monte Carlo (Lemma 4.4 / Theorem 4.5)",
        "sampling the continuous pdfs inherits the additive-ε guarantee",
    );
    // All-uniform disks: the Eq. (1) reference uses the *analytic* cdf, so
    // the quadrature error stays well below the Monte-Carlo error.
    let set: DiskSet = workload::random_disk_set(8, 0.5, 2.5, 55);
    let queries = workload::random_queries(10, 40.0, 4);
    let exact: Vec<Vec<f64>> = queries
        .iter()
        .map(|&q| quantification_continuous(&set, q, 8192))
        .collect();
    let mut t = Table::new(&["s", "max error vs Eq.(1) quadrature"]);
    for &s in sweep(&[100usize, 400, 1600, 6400]) {
        let mut rng = StdRng::seed_from_u64(3);
        let mc = MonteCarloPnn::build_continuous(&set, s, SampleBackend::KdTree, &mut rng);
        let mut max_err: f64 = 0.0;
        for (qi, &q) in queries.iter().enumerate() {
            let est = mc.estimate_all(q);
            for i in 0..set.len() {
                max_err = max_err.max((est[i] - exact[qi][i]).abs());
            }
        }
        t.row(&[s.to_string(), fmt(max_err)]);
    }
    t.print();
    println!("   expected error decay ~ 1/√s");
}

fn e13_spiral() {
    header(
        "E13",
        "spiral search (Lemma 4.6 / Theorem 4.7)",
        "m(ρ,ε) = ⌈ρk ln(1/ε)⌉ + k − 1 nearest locations give one-sided error ≤ ε",
    );
    let mut t = Table::new(&[
        "ρ",
        "ε",
        "m(ρ,ε)",
        "N",
        "max error",
        "query (spiral)",
        "query (exact)",
    ]);
    for &rho in sweep(&[1.0f64, 4.0, 16.0, 64.0]) {
        let set = workload::spread_discrete_set(scaled(2000), 3, rho, 9);
        let ss = SpiralSearch::build(&set);
        let queries = workload::random_queries(scaled(50), 60.0, 6);
        for &eps in &[0.1f64, 0.01] {
            let m = ss.retrieval_budget(eps);
            let mut max_err: f64 = 0.0;
            let tq = time_avg(1, || {
                for &q in &queries {
                    let est = ss.estimate_all(q, eps);
                    std::hint::black_box(&est);
                }
            }) / queries.len() as f64;
            for &q in &queries {
                let est = ss.estimate_all(q, eps);
                let exact = quantification_discrete(&set, q);
                for i in 0..set.len() {
                    max_err = max_err.max(exact[i] - est[i]); // one-sided
                }
            }
            let te = time_avg(1, || {
                for &q in &queries {
                    std::hint::black_box(quantification_discrete(&set, q));
                }
            }) / queries.len() as f64;
            t.row(&[
                format!("{rho}"),
                format!("{eps}"),
                m.to_string(),
                set.total_locations().to_string(),
                fmt(max_err),
                fmt_time(tq),
                fmt_time(te),
            ]);
        }
    }
    t.print();
}

fn e14_counterexample() {
    header(
        "E14",
        "low-weight truncation counterexample (Section 4.3, Remark (i))",
        "dropping locations with w < ε/k flips the NN ranking by > 2ε; spiral search does not",
    );
    let eps = 0.01;
    // The construction needs n > 4/ε so the swarm's weight falls below the
    // naive truncation threshold; keep that floor even in smoke mode.
    let n = scaled(2000).max((4.0 / eps) as usize + 2);
    let (set, q) = low_weight_counterexample(n, eps);
    let exact = quantification_discrete(&set, q);
    // Naive truncation.
    let k = set.max_k();
    let naive_set = DiscreteSet::new(
        set.points
            .iter()
            .map(|p| {
                let kept: Vec<(Point, f64)> = p
                    .locations()
                    .iter()
                    .zip(p.weights())
                    .filter(|&(_, &w)| w >= eps / k as f64)
                    .map(|(&l, &w)| (l, w))
                    .collect();
                let (locs, ws): (Vec<Point>, Vec<f64>) = kept.into_iter().unzip();
                uncertain_nn::DiscreteUncertainPoint::new(locs, ws)
            })
            .collect(),
    );
    let naive = quantification_discrete(&naive_set, q);
    let ss = SpiralSearch::build(&set);
    let spiral = ss.estimate_all(q, eps);
    let mut t = Table::new(&["method", "π_0 (true winner)", "π_1", "ranking"]);
    for (name, v) in [
        ("exact", &exact),
        ("naive truncation", &naive),
        ("spiral search", &spiral),
    ] {
        t.row(&[
            name.into(),
            fmt(v[0]),
            fmt(v[1]),
            if v[0] > v[1] {
                "π_0 > π_1 ✓".into()
            } else {
                "π_1 > π_0 ✗ (flipped)".to_string()
            },
        ]);
    }
    t.print();
}

fn e17_discrete_query_path() {
    header(
        "E17",
        "Theorem 2.14 query path: point location + delta-encoded labels",
        "the diagram answers NN≠0 in O(log µ + t) after O(µ) label storage ([DSST89])",
    );
    let bbox = Aabb::from_corners(Point::new(-60.0, -60.0), Point::new(60.0, 60.0));
    let mut t = Table::new(&[
        "n",
        "k",
        "faces",
        "locator size",
        "labels: delta/explicit",
        "query (located)",
        "query (brute)",
    ]);
    for &(n, k) in sweep(&[(6usize, 2usize), (10, 2), (14, 2), (8, 4)]) {
        let set = workload::random_discrete_set(n, k, 8.0, 300 + (n * k) as u64);
        let d = DiscreteNonzeroDiagram::build(&set, &bbox);
        let explicit: usize = d.faces.iter().map(|f| f.label.len()).sum();
        let queries = workload::random_queries(scaled(500), 100.0, 17);
        let tq = time_avg(1, || {
            for &q in &queries {
                std::hint::black_box(d.query_located(q));
            }
        }) / queries.len() as f64;
        let tb = time_avg(1, || {
            for &q in &queries {
                std::hint::black_box(d.query(q));
            }
        }) / queries.len() as f64;
        t.row(&[
            n.to_string(),
            k.to_string(),
            d.faces.len().to_string(),
            d.locator_size().to_string(),
            format!("{}/{}", d.label_store.storage_cost(), explicit),
            fmt_time(tq),
            fmt_time(tb),
        ]);
    }
    t.print();
}

fn a1_enumeration_ablation() {
    header(
        "A1",
        "ablation: envelope-guided vs brute-force vertex enumeration",
        "both are exact; envelope grouping does the work the Theorem 2.5 charging argument predicts",
    );
    let mut t = Table::new(&[
        "n",
        "vertices (env)",
        "vertices (brute)",
        "time env",
        "time brute",
    ]);
    for &n in sweep(&[8usize, 12, 16, 24, 32]) {
        let set = workload::random_disk_set(n, 0.4, 2.0, 1234 + n as u64);
        let disks = set.regions();
        let (d, te) = time(|| NonzeroVoronoiDiagram::build(disks.clone()));
        let (vb, tb) = time(|| vertices_brute(&disks));
        t.row(&[
            n.to_string(),
            d.num_vertices().to_string(),
            vb.len().to_string(),
            fmt_time(te),
            fmt_time(tb),
        ]);
    }
    t.print();
}

fn a2_backend_ablation() {
    header(
        "A2",
        "ablation: Monte-Carlo per-sample backend (kd-tree vs Delaunay point location)",
        "the paper describes Vor(R_j) + point location; a kd-tree answers the same query",
    );
    let set = workload::random_discrete_set(scaled(200), 4, 2.0, 77);
    let s = scaled(500);
    let queries = workload::random_queries(scaled(200), 60.0, 8);
    let mut t = Table::new(&["backend", "build", "query", "agreement"]);
    let mut rng1 = StdRng::seed_from_u64(4);
    let (kd, b1) =
        time(|| MonteCarloPnn::build_discrete(&set, s, SampleBackend::KdTree, &mut rng1));
    let mut rng2 = StdRng::seed_from_u64(4);
    let (del, b2) =
        time(|| MonteCarloPnn::build_discrete(&set, s, SampleBackend::Delaunay, &mut rng2));
    let q1 = time_avg(1, || {
        for &q in &queries {
            std::hint::black_box(kd.estimate_all(q));
        }
    }) / queries.len() as f64;
    let q2 = time_avg(1, || {
        for &q in &queries {
            std::hint::black_box(del.estimate_all(q));
        }
    }) / queries.len() as f64;
    let mut agree = true;
    for &q in &queries {
        let a = kd.estimate_all(q);
        let b = del.estimate_all(q);
        if a.iter().zip(&b).any(|(x, y)| (x - y).abs() > 1e-12) {
            agree = false;
        }
    }
    t.row(&["kd-tree".into(), fmt_time(b1), fmt_time(q1), "-".into()]);
    t.row(&[
        "Delaunay".into(),
        fmt_time(b2),
        fmt_time(q2),
        if agree {
            "identical votes".into()
        } else {
            "DIVERGED".to_string()
        },
    ]);
    t.print();
}

fn a3_delta_ablation() {
    header(
        "A3",
        "ablation: Δ(q) branch-and-bound vs linear scan",
        "stage 1 of the Theorem 3.1 query",
    );
    let mut t = Table::new(&["n", "Δ(q) b&b", "Δ(q) linear", "speedup"]);
    for &n in sweep(&[1_000usize, 10_000, 100_000]) {
        let n = scaled(n);
        let set = workload::random_disk_set(n, 0.05, 0.5, n as u64 + 1);
        let disks = set.regions();
        let idx = DiskNonzeroIndex::build(&set);
        let queries = workload::random_queries(scaled(500), 60.0, 9);
        let tq = time_avg(1, || {
            for &q in &queries {
                std::hint::black_box(idx.delta(q));
            }
        }) / queries.len() as f64;
        let tl = time_avg(1, || {
            for &q in &queries {
                let d = disks
                    .iter()
                    .map(|c| c.max_dist(q))
                    .fold(f64::INFINITY, f64::min);
                std::hint::black_box(d);
            }
        }) / queries.len() as f64;
        t.row(&[
            n.to_string(),
            fmt_time(tq),
            fmt_time(tl),
            format!("{:.0}x", tl / tq),
        ]);
    }
    t.print();
}

fn e15_guaranteed() {
    header(
        "E15",
        "guaranteed Voronoi diagram ([SE08], Section 1.2)",
        "cells with |NN≠0| = 1 have O(n) total complexity (vs Θ(n³) for the full diagram)",
    );
    use uncertain_nn::vnz::GuaranteedVoronoi;
    let mut t = Table::new(&[
        "n",
        "guaranteed complexity",
        "V≠0 vertices",
        "ratio",
        "build",
    ]);
    let (mut xs, mut ys) = (vec![], vec![]);
    for &n in sweep(&[16usize, 32, 64, 128, 256]) {
        let set = workload::random_disk_set(n, 0.2, 1.0, 3 + n as u64);
        let disks = set.regions();
        let (gv, build) = time(|| GuaranteedVoronoi::build(&disks));
        let gc = gv.total_complexity();
        let vz = if n <= 64 {
            NonzeroVoronoiDiagram::build(disks)
                .num_vertices()
                .to_string()
        } else {
            "-".into()
        };
        xs.push(n as f64);
        ys.push(gc.max(1) as f64);
        t.row(&[
            n.to_string(),
            gc.to_string(),
            vz,
            format!("{:.2}", gc as f64 / n as f64),
            fmt_time(build),
        ]);
    }
    t.print();
    println!(
        "   measured log-log slope of guaranteed complexity(n) = {:.2}  ([SE08]: 1)",
        loglog_slope(&xs, &ys)
    );
}

fn e16_knn() {
    header(
        "E16",
        "kNN≠0 queries (Section 1.2 kNN variant)",
        "P_i ∈ kNN≠0(q) ⟺ #{j≠i : Δ_j ≤ δ_i} ≤ k−1 (generalizes Lemma 2.1); index vs brute",
    );
    use uncertain_nn::nonzero::knn::nonzero_knn_disks;
    let mut t = Table::new(&["n", "k", "avg |out|", "query (index)", "query (brute)"]);
    for &n in sweep(&[10_000usize, 100_000]) {
        let n = scaled(n);
        let set = workload::random_disk_set(n, 0.05, 0.5, n as u64);
        let disks = set.regions();
        let idx = DiskNonzeroIndex::build(&set);
        let queries = workload::random_queries(scaled(200), 60.0, 12);
        for &k in &[1usize, 2, 4, 8] {
            let mut total = 0usize;
            let tq = time_avg(1, || {
                for &q in &queries {
                    total += std::hint::black_box(idx.query_k(q, k)).len();
                }
            }) / queries.len() as f64;
            let tb = time_avg(1, || {
                for &q in &queries {
                    std::hint::black_box(nonzero_knn_disks(&disks, q, k));
                }
            }) / queries.len() as f64;
            t.row(&[
                n.to_string(),
                k.to_string(),
                format!("{:.1}", total as f64 / (2 * queries.len()) as f64),
                fmt_time(tq),
                fmt_time(tb),
            ]);
        }
    }
    t.print();
}

fn a4_expected_vs_probable() {
    header(
        "A4",
        "expected-distance NN ([AESZ12]) vs most-probable NN",
        "Section 1.2: the expected NN \"is not a good indicator under large uncertainty\"",
    );
    use uncertain_nn::expected::{expected_vs_probable_divergence, ExpectedNnIndex};
    let (set, q) = expected_vs_probable_divergence();
    let idx = ExpectedNnIndex::build_discrete(&set);
    let (winner_e, dist_e) = idx.query(q).unwrap();
    let pi = quantification_discrete(&set, q);
    let winner_p = pi
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap()
        .0;
    let mut t = Table::new(&["criterion", "winner", "value"]);
    t.row(&[
        "expected distance".into(),
        format!("P_{winner_e}"),
        fmt(dist_e),
    ]);
    t.row(&[
        "max probability".into(),
        format!("P_{winner_p}"),
        fmt(pi[winner_p]),
    ]);
    t.print();
    println!(
        "   divergence instance: E picks P_{winner_e}, π picks P_{winner_p} (π = {:?})",
        pi
    );

    // Agreement rate on random instances — how often the two criteria
    // coincide when uncertainty is small vs large.
    let n_queries = scaled(200);
    let header = format!("agreement over {n_queries} queries");
    let mut t = Table::new(&["cluster diameter", &header]);
    for &diam in &[1.0f64, 8.0, 20.0] {
        let set = workload::random_discrete_set(20, 4, diam, 5);
        let idx = ExpectedNnIndex::build_discrete(&set);
        let mut agree = 0usize;
        let queries = workload::random_queries(n_queries, 60.0, 6);
        for &q in &queries {
            let (we, _) = idx.query(q).unwrap();
            let pi = quantification_discrete(&set, q);
            let wp = pi
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            if we == wp {
                agree += 1;
            }
        }
        t.row(&[
            format!("{diam}"),
            format!("{:.1}%", 100.0 * agree as f64 / queries.len() as f64),
        ]);
    }
    t.print();

    println!("   expected-NN query cost: index vs scanning every expected distance");
    let mut t = Table::new(&["n", "query (index)", "query (brute)"]);
    for &n in sweep(&[1_000usize, 10_000]) {
        let n = scaled(n);
        let set = workload::random_discrete_set(n, 4, 1.0, n as u64);
        let idx = ExpectedNnIndex::build_discrete(&set);
        let queries = workload::random_queries(scaled(200), 60.0, 13);
        let tq = time_avg(1, || {
            for &q in &queries {
                std::hint::black_box(idx.query(q));
            }
        }) / queries.len() as f64;
        let tb = time_avg(1, || {
            for &q in &queries {
                let all = idx.all_expected(q);
                std::hint::black_box(all.iter().copied().fold(f64::INFINITY, f64::min));
            }
        }) / queries.len() as f64;
        t.row(&[n.to_string(), fmt_time(tq), fmt_time(tb)]);
    }
    t.print();
}

fn a5_linf_variant() {
    header(
        "A5",
        "L∞ metric with square regions (remark after Theorem 3.1)",
        "the same two-stage query works verbatim under L∞",
    );
    use rand::Rng;
    use uncertain_nn::nonzero::linf::{nonzero_nn_linf, LinfNonzeroIndex, SquareRegion};
    let mut t = Table::new(&["n", "query (index)", "query (brute)", "speedup"]);
    for &n in sweep(&[10_000usize, 100_000]) {
        let n = scaled(n);
        let mut rng = StdRng::seed_from_u64(n as u64);
        let squares: Vec<SquareRegion> = (0..n)
            .map(|_| {
                SquareRegion::new(
                    Point::new(rng.gen_range(-25.0..25.0), rng.gen_range(-25.0..25.0)),
                    rng.gen_range(0.0..0.5),
                )
            })
            .collect();
        let idx = LinfNonzeroIndex::build(&squares);
        let queries = workload::random_queries(scaled(300), 60.0, 7);
        let tq = time_avg(1, || {
            for &q in &queries {
                std::hint::black_box(idx.query(q));
            }
        }) / queries.len() as f64;
        let tb = time_avg(1, || {
            for &q in &queries {
                std::hint::black_box(nonzero_nn_linf(&squares, q));
            }
        }) / queries.len() as f64;
        t.row(&[
            n.to_string(),
            fmt_time(tq),
            fmt_time(tb),
            format!("{:.0}x", tb / tq),
        ]);
    }
    t.print();
}

fn a6_retrieval_ablation() {
    header(
        "A6",
        "ablation: spiral-search retrieval backend (kd-tree vs quad-tree)",
        "§4.3 Remark (ii): \"one may use quad-trees and a branch-and-bound algorithm to retrieve m points\"",
    );
    use uncertain_spatial::{KdTree, QuadTree};
    let set = workload::random_discrete_set(scaled(20_000), 3, 1.0, 77);
    let items: Vec<(Point, u32)> = set
        .all_locations()
        .enumerate()
        .map(|(flat, (_, _, loc, _))| (loc, flat as u32))
        .collect();
    let kd = KdTree::build(items.clone());
    let qt = QuadTree::build(items);
    let queries = workload::random_queries(scaled(200), 60.0, 31);
    let mut t = Table::new(&["m (retrieval budget)", "kd-tree", "quad-tree"]);
    for &m in sweep(&[16usize, 128, 1024]) {
        let tk = time_avg(1, || {
            for &q in &queries {
                std::hint::black_box(kd.k_nearest(q, m));
            }
        }) / queries.len() as f64;
        let tq = time_avg(1, || {
            for &q in &queries {
                std::hint::black_box(qt.k_nearest(q, m));
            }
        }) / queries.len() as f64;
        t.row(&[m.to_string(), fmt_time(tk), fmt_time(tq)]);
    }
    t.print();
    // Retrieval sets must be identical (up to distance ties).
    for &q in queries.iter().take(20) {
        let a: Vec<f64> = kd.k_nearest(q, 64).iter().map(|&(_, _, d)| d).collect();
        let b: Vec<f64> = qt.k_nearest(q, 64).iter().map(|&(_, _, d)| d).collect();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12, "retrieval mismatch");
        }
    }
    println!("   retrieved sets identical on all sampled queries");
}

// Keep BTreeSet import alive for potential future experiment variants.
#[allow(dead_code)]
fn distinct_sets_of(d: &NonzeroVoronoiDiagram, queries: &[Point]) -> usize {
    let mut seen: BTreeSet<Vec<usize>> = BTreeSet::new();
    for &q in queries {
        let mut s = d.query(q);
        s.sort_unstable();
        seen.insert(s);
    }
    seen.len()
}

// ---------------------------------------------------------------------------

/// E24: the serving engine end to end — the exact plan across set sizes,
/// batch throughput scaling vs worker count, and the result cache on a
/// repeated-query batch.
fn e24_engine_serving() {
    use uncertain_engine::{Engine, EngineConfig, QueryRequest};
    header(
        "E24",
        "engine: batch serving (threads, plans, cache)",
        "serving layer over the Theorem 3.2 / Eq. (2) structures; exact answers at every n",
    );

    // (a) The plan across set sizes, fixed batch of 256 TopK queries: every
    // probability request is answered by the exact merged path (E25 prices
    // it against the approximate quantifiers).
    let batch: Vec<QueryRequest> = workload::random_queries(256, 60.0, 24)
        .into_iter()
        .map(|q| QueryRequest::TopK { q, k: 3 })
        .collect();
    let mut t = Table::new(&["n", "plan", "wall", "q/s"]);
    for &n in sweep(&[1_024usize, 16_384, 65_536]) {
        let set = workload::random_discrete_set(n, 3, 5.0, n as u64);
        let engine = Engine::new(set, EngineConfig::default());
        let resp = engine.run_batch(&batch);
        let plan = resp.stats.plan.summary();
        assert_eq!(plan, "quant:merged", "n = {n}");
        t.row(&[
            n.to_string(),
            plan,
            fmt_time(resp.stats.wall.as_secs_f64()),
            format!("{:.0}", resp.stats.throughput_qps()),
        ]);
    }
    t.print();

    // (b) Throughput scaling vs thread count (one mid-size set, warm
    // structures, cold cache per engine).
    let n = scaled(5_000).max(64);
    let set = workload::random_discrete_set(n, 3, 5.0, 5);
    let big_batch: Vec<QueryRequest> = workload::random_queries(scaled(2_048).max(64), 60.0, 25)
        .into_iter()
        .map(|q| QueryRequest::Nonzero { q })
        .collect();
    let mut t = Table::new(&["threads", "wall", "q/s", "worker util"]);
    for &threads in sweep(&[1usize, 2, 4, 8]) {
        let engine = Engine::new(
            set.clone(),
            EngineConfig {
                threads: Some(threads),
                cache_capacity: 0, // cache off: measure execution, not memoization
                ..EngineConfig::default()
            },
        );
        engine.run_batch(&big_batch); // warm the planned structures
        let resp = engine.run_batch(&big_batch);
        t.row(&[
            format!("{} (got {})", threads, engine.threads()),
            fmt_time(resp.stats.wall.as_secs_f64()),
            format!("{:.0}", resp.stats.throughput_qps()),
            format!("{:.0}%", 100.0 * resp.stats.worker_utilization()),
        ]);
    }
    t.print();
    println!("   (UNC_ENGINE_THREADS overrides the requested counts)");

    // (c) Result cache on a repeated-query batch.
    let engine = Engine::new(set, EngineConfig::default());
    let repeated: Vec<QueryRequest> = workload::random_queries(32, 60.0, 26)
        .iter()
        .cycle()
        .take(512)
        .map(|&q| QueryRequest::Threshold { q, tau: 0.25 })
        .collect();
    let resp = engine.run_batch(&repeated);
    println!(
        "   repeated-query batch: {} hits / {} misses (hit rate {:.0}%), wall {}",
        resp.stats.cache_hits,
        resp.stats.cache_misses,
        100.0 * resp.stats.cache_hit_rate(),
        fmt_time(resp.stats.wall.as_secs_f64()),
    );
    assert!(
        resp.stats.cache_hits > 0,
        "repeated queries must produce cache hits"
    );
    let again = engine.run_batch(&repeated);
    println!(
        "   same batch again:     {} hits / {} misses (hit rate {:.0}%), wall {}",
        again.stats.cache_hits,
        again.stats.cache_misses,
        100.0 * again.stats.cache_hit_rate(),
        fmt_time(again.stats.wall.as_secs_f64()),
    );

    // (d) The ExecStats one-liner plus the per-layer span timings the
    // observability layer attributed to the last batch.
    println!("   last batch: {}", again.stats);
    for s in &again.stats.spans {
        println!(
            "   span {:<28} count {:>6}  total {:>9}",
            s.name,
            s.count,
            uncertain_obs::fmt_ns(s.total_ns)
        );
    }
    assert!(
        again
            .stats
            .spans
            .iter()
            .any(|s| s.name.starts_with("engine.")),
        "a served batch must record engine-layer spans"
    );
}

/// `n` sites at unit density (mean spacing 1) in a square of side `√n`
/// centered on the origin, `k = 3` locations each within a box of side
/// `diameter` around the site's center — the constant-density family whose
/// `|NN≠0(q)|` does not grow with `n`.
fn unit_density_set(n: usize, diameter: f64, seed: u64) -> DiscreteSet {
    use rand::Rng;
    use uncertain_nn::model::DiscreteUncertainPoint;
    let mut rng = StdRng::seed_from_u64(seed);
    let (half, r) = ((n as f64).sqrt() / 2.0, diameter / 2.0);
    DiscreteSet::new(
        (0..n)
            .map(|_| {
                let c = Point::new(rng.gen_range(-half..half), rng.gen_range(-half..half));
                let locs = (0..3)
                    .map(|_| Point::new(c.x + rng.gen_range(-r..r), c.y + rng.gen_range(-r..r)))
                    .collect();
                let weights = (0..3).map(|_| rng.gen_range(0.2..1.0)).collect();
                DiscreteUncertainPoint::new(locs, weights)
            })
            .collect(),
    )
}

/// E25: the paper's three quantifiers measured on the core library, one
/// thread: the exact Eq. (2) radius-bounded sweep over bulk-loaded Bentley–Saxe
/// buckets (what the engine serves), spiral search (Theorem 4.7) and Monte
/// Carlo (Theorem 4.3), each warm, in µs/query, with the approximate
/// quantifiers' measured errors. The timings are printed, not asserted.
fn e25_quantifier_costs() {
    use std::sync::Arc;
    use uncertain_nn::dynamic::shard::ShardedReader;
    use uncertain_nn::dynamic::{DynamicConfig, DynamicSet};
    header(
        "E25",
        "quantifier cost: exact merge vs spiral search vs Monte Carlo",
        "Eq. (2) exact (Theorem 4.2) vs Theorems 4.3 / 4.7 approximations, per query",
    );
    const EPS: f64 = 0.05;
    const MC_SAMPLES: usize = 64;
    // (label, set, query span): two constant-density families at cluster
    // diameter 1.5× and 6× the mean site spacing, and the unit-spread set.
    type Family = (&'static str, fn(usize) -> (DiscreteSet, f64));
    let families: [Family; 3] = [
        ("low overlap (1.5×)", |n| {
            (unit_density_set(n, 1.5, 251), (n as f64).sqrt())
        }),
        ("heavy overlap (6×)", |n| {
            (unit_density_set(n, 6.0, 252), (n as f64).sqrt())
        }),
        ("spread ρ=1, k=2", |n| {
            (workload::spread_discrete_set(n, 2, 1.0, 253), 60.0)
        }),
    ];
    let m = scaled(256).max(8);
    let err_queries = m.min(32);
    let per_query = |f: &mut dyn FnMut()| {
        // Best of three warm passes over the batch, in µs per query.
        (0..3)
            .map(|_| time(&mut *f).1)
            .fold(f64::INFINITY, f64::min)
            * 1e6
            / m as f64
    };
    let mut t = Table::new(&[
        "set",
        "n",
        "merged µs",
        &format!("spiral(ε={EPS}) µs"),
        &format!("mc(s={MC_SAMPLES}) µs"),
        "spiral build",
        "mc build",
        "spiral max err",
        "mc max err",
    ]);
    for (label, make) in families {
        for &n in sweep(&[1_024usize, 16_384, 65_536]) {
            let (set, span) = make(n);
            let queries = workload::random_queries(m, span, n as u64 + 25);
            let reader = ShardedReader::new(vec![Arc::new(DynamicSet::from_set(
                &set,
                DynamicConfig::default(),
            ))]);
            let (spiral, spiral_build) = time(|| SpiralSearch::build(&set));
            let mut rng = StdRng::seed_from_u64(n as u64);
            let (mc, mc_build) = time(|| {
                MonteCarloPnn::build_discrete(&set, MC_SAMPLES, SampleBackend::KdTree, &mut rng)
            });
            for &q in &queries {
                // Warm-up: sizes the per-thread collect and sweep buffers.
                std::hint::black_box(reader.quantification_merged_with_stats(q));
            }
            let merged_us = per_query(&mut || {
                for &q in &queries {
                    std::hint::black_box(reader.quantification_merged_with_stats(q));
                }
            });
            let spiral_us = per_query(&mut || {
                for &q in &queries {
                    std::hint::black_box(spiral.estimate_all(q, EPS));
                }
            });
            let mc_us = per_query(&mut || {
                for &q in &queries {
                    std::hint::black_box(mc.estimate_all(q));
                }
            });
            let (mut spiral_err, mut mc_err) = (0.0f64, 0.0f64);
            for &q in &queries[..err_queries] {
                let exact = quantification_discrete(&set, q);
                // The merge is exact: its positive entries are the sweep's,
                // bit for bit.
                let (merged, _) = reader.quantification_merged_with_stats(q);
                assert_eq!(
                    merged.len(),
                    exact.iter().filter(|&&p| p > 0.0).count(),
                    "{label} n = {n} at {q}"
                );
                for (id, p) in merged {
                    assert_eq!(p.to_bits(), exact[id].to_bits(), "{label} n = {n} at {q}");
                }
                let (s, c) = (spiral.estimate_all(q, EPS), mc.estimate_all(q));
                for i in 0..set.len() {
                    spiral_err = spiral_err.max(exact[i] - s[i]); // one-sided
                    mc_err = mc_err.max((exact[i] - c[i]).abs());
                }
            }
            assert!(
                spiral_err <= EPS + 1e-9,
                "{label} n = {n}: spiral error {spiral_err} exceeds ε (Theorem 4.7)"
            );
            t.row(&[
                label.to_string(),
                n.to_string(),
                format!("{merged_us:.1}"),
                format!("{spiral_us:.1}"),
                format!("{mc_us:.1}"),
                fmt_time(spiral_build),
                fmt_time(mc_build),
                fmt(spiral_err),
                fmt(mc_err),
            ]);
        }
    }
    t.print();
    println!(
        "   {m} queries per row, errors over the first {err_queries}; the engine serves \
         the merged column for every request"
    );
}

/// E26: the adaptive predicate kernel — how often the f64 filter certifies
/// a sign vs falls back to exact expansion arithmetic, per input-degeneracy
/// family, together with the share of queries the certified `V≠0` point
/// location serves without the Lemma 2.1 fallback.
fn e26_predicate_filter() {
    use uncertain_geom::predicates::{predicate_stats, reset_predicate_stats};
    use uncertain_nn::model::DiscreteUncertainPoint;
    header(
        "E26",
        "predicate filter hit rate vs input degeneracy",
        "filtered exact predicates: fast path dominates except within ulp-shells of degeneracies",
    );
    let certain = |locs: Vec<Point>| -> DiscreteSet {
        DiscreteSet::new(
            locs.into_iter()
                .map(DiscreteUncertainPoint::certain)
                .collect(),
        )
    };
    let m = scaled(20_000);

    // Degeneracy families, most benign first. Each provides a site set and
    // a query stream aimed at its own degeneracies.
    let random_set = workload::random_discrete_set(8, 2, 6.0, 3);
    let random_queries = workload::random_queries(m, 80.0, 5);

    let grid_sites: Vec<Point> = (0..4)
        .flat_map(|i| (0..4).map(move |j| Point::new(4.0 * i as f64, 4.0 * j as f64)))
        .collect();
    let mut grid_queries = vec![];
    for i in 0..4 {
        for j in 0..3 {
            grid_queries.push(Point::new(4.0 * i as f64, 4.0 * j as f64 + 2.0));
            grid_queries.push(Point::new(4.0 * j as f64 + 2.0, 4.0 * i as f64));
            grid_queries.push(Point::new(4.0 * j as f64 + 2.0, 4.0 * j as f64 + 2.0));
        }
    }
    let grid_queries: Vec<Point> = grid_queries.iter().copied().cycle().take(m).collect();

    let ring_sites: Vec<Point> = [
        (7.0, 24.0),
        (24.0, 7.0),
        (24.0, -7.0),
        (7.0, -24.0),
        (-7.0, -24.0),
        (-24.0, -7.0),
        (-24.0, 7.0),
        (-7.0, 24.0),
        (15.0, 20.0),
        (20.0, -15.0),
        (-15.0, -20.0),
        (-20.0, 15.0),
    ]
    .iter()
    .map(|&(x, y)| Point::new(x, y))
    .collect();
    let mut ring_queries = vec![Point::new(0.0, 0.0)];
    for w in ring_sites.windows(2) {
        ring_queries.push(Point::new((w[0].x + w[1].x) / 2.0, (w[0].y + w[1].y) / 2.0));
    }
    let ring_queries: Vec<Point> = ring_queries.iter().copied().cycle().take(m).collect();

    let line_sites: Vec<Point> = (0..7).map(|i| Point::new(4.0 * i as f64, 0.0)).collect();
    let line_queries: Vec<Point> = (0..m)
        .map(|i| Point::new((i % 28) as f64, 0.0)) // on the line, many on bisectors
        .collect();

    let families: Vec<(&str, DiscreteSet, Vec<Point>)> = vec![
        ("random", random_set, random_queries),
        ("integer grid", certain(grid_sites), grid_queries),
        ("cocircular ring", certain(ring_sites), ring_queries),
        ("collinear line", certain(line_sites), line_queries),
    ];

    let mut t = Table::new(&[
        "family",
        "predicates",
        "filter hits",
        "exact fb",
        "hit rate",
        "certified loc",
    ]);
    for (name, set, queries) in &families {
        let bbox = {
            let locs = Aabb::from_points(set.all_locations().map(|(_, _, l, _)| l));
            locs.inflated(0.3 * locs.lo.dist(locs.hi) + 8.0)
        };
        reset_predicate_stats();
        let d = DiscreteNonzeroDiagram::build(set, &bbox);
        let mut located = 0usize;
        for &q in queries {
            if d.locate_face(q).is_some() {
                located += 1;
            } else {
                let _ = d.query(q); // the exact fallback the engine takes
            }
        }
        let stats = predicate_stats();
        t.row(&[
            name.to_string(),
            stats.total().to_string(),
            stats.filter_hits.to_string(),
            stats.exact_fallbacks.to_string(),
            format!("{:.4}", stats.filter_hit_rate()),
            format!("{:.4}", located as f64 / queries.len().max(1) as f64),
        ]);
    }
    t.print();
    println!(
        "   random inputs stay ≥ 0.99 filter hits; degenerate families trade\n   \
         fast-path locations for exact fallbacks instead of wrong answers"
    );
}

/// E27: serving under churn — a dynamic engine absorbing update batches via
/// `apply()` (Bentley–Saxe carries, epoch snapshots) against the baseline
/// that rebuilds a fresh engine (and therefore fresh indexes) from scratch
/// after every change. Both serve the identical query batch on the
/// identical surviving site set each round; answers are cross-checked.
fn e27_churn_serving() {
    use uncertain_bench::churn::{ChurnConfig, ChurnStream};
    use uncertain_engine::{Engine, EngineConfig, QueryRequest};
    header(
        "E27",
        "query serving under churn: dynamic apply() vs rebuild-from-scratch",
        "amortized O(log n) updates beat per-change O(N log N) rebuilds once churn is sustained",
    );
    let n = scaled(4_096).max(32);
    let rounds = if uncertain_bench::smoke() { 2 } else { 5 };
    // Moderate per-round batches: the regime where a per-change index
    // rebuild cannot amortize.
    let batch: Vec<QueryRequest> = workload::random_queries(scaled(128).max(32), 60.0, 27)
        .into_iter()
        .map(|q| QueryRequest::Nonzero { q })
        .collect();
    let mut t = Table::new(&[
        "churn/round",
        "dyn ms/round",
        "rebuild ms/round",
        "speedup",
        "dyn plan",
        "rebuilt sites/upd",
    ]);
    for &rate in sweep(&[0.01f64, 0.10, 0.25]) {
        let set = workload::random_discrete_set(n, 3, 5.0, 2700 + (rate * 100.0) as u64);
        let engine = Engine::new(set, EngineConfig::default());
        // Warm-up: one apply and one batch warm the serving path (the
        // Bentley–Saxe bulk load happened in `Engine::new`). The baseline
        // gets the same warm-up treatment.
        let mut stream = ChurnStream::new(271, ChurnConfig::default(), (0..n).collect());
        let warm = engine.apply(&stream.tick(rate));
        stream.observe(&warm);
        engine.run_batch(&batch);

        let mut dyn_secs = 0.0;
        let mut rebuild_secs = 0.0;
        let mut plan = String::new();
        let mut updates_applied = 0u64;
        let mut rebuilt_sites = 0u64;
        for _ in 0..rounds {
            let updates = stream.tick(rate);
            updates_applied += updates.len() as u64;
            // Dynamic path: absorb the updates, serve the batch.
            let (resp, secs) = time(|| {
                let report = engine.apply(&updates);
                stream.observe(&report);
                rebuilt_sites += report.sites_rebuilt;
                engine.run_batch(&batch)
            });
            dyn_secs += secs;
            plan = resp.stats.plan.summary();
            // Baseline: a brand-new engine over the identical live set pays
            // its bulk load and index builds from zero inside the timing.
            let live = engine.live_set();
            let batch_ref = &batch;
            let (baseline, secs) = time(move || {
                let fresh = Engine::new(live, EngineConfig::default());
                fresh.run_batch(batch_ref)
            });
            rebuild_secs += secs;
            assert_eq!(
                resp.results.len(),
                baseline.results.len(),
                "dynamic and rebuilt engines must answer the same batch"
            );
            // Dynamic results are in stable ids; map the baseline's dense
            // indices through the id table before comparing.
            let ids = engine.site_ids();
            for (a, b) in resp.results.iter().zip(&baseline.results) {
                let (
                    uncertain_engine::QueryResult::Nonzero(got),
                    uncertain_engine::QueryResult::Nonzero(dense),
                ) = (a, b)
                else {
                    panic!("shape");
                };
                let mut want: Vec<usize> = dense.iter().map(|&d| ids[d]).collect();
                want.sort_unstable();
                assert_eq!(got, &want, "dynamic ≠ rebuild-from-scratch");
            }
        }
        let r = rounds as f64;
        t.row(&[
            format!("{:.0}%", rate * 100.0),
            format!("{:.2}", dyn_secs / r * 1e3),
            format!("{:.2}", rebuild_secs / r * 1e3),
            format!("{:.2}x", rebuild_secs / dyn_secs),
            plan,
            format!(
                "{:.1}",
                rebuilt_sites as f64 / updates_applied.max(1) as f64
            ),
        ]);
    }
    t.print();
    println!(
        "   n = {n}, {} queries/round, {rounds} rounds; answers cross-checked per round",
        batch.len()
    );
}

/// E28: the amortized Bentley–Saxe update cost — mean sites rebuilt per
/// update (the logarithmic-method currency) and wall time per update, as n
/// grows. Theory: O(log n) rebuilt sites per insert, O(1) per remove.
fn e28_amortized_updates() {
    use rand::Rng;
    use uncertain_nn::dynamic::{DynamicConfig, DynamicSet};
    use uncertain_nn::model::DiscreteUncertainPoint;
    header(
        "E28",
        "amortized update cost of the Bentley–Saxe layer vs n",
        "sites rebuilt per update grows like log2(n); removes amortize to O(1) via compaction",
    );
    let mut rng = StdRng::seed_from_u64(28);
    let mut t = Table::new(&[
        "n",
        "updates",
        "rebuilt/update",
        "log2(n)",
        "µs/update",
        "global rebuilds",
        "buckets",
    ]);
    let mut ratios = vec![];
    for &n in sweep(&[1_024usize, 4_096, 16_384]) {
        let n = scaled(n).max(64);
        let base = workload::random_discrete_set(n, 3, 5.0, n as u64);
        let mut d = DynamicSet::from_set(&base, DynamicConfig::default());
        let before = d.stats().rebuild;
        let updates = 2 * n;
        // Victim pool maintained outside the timed loop (mirrors
        // ChurnStream), so µs/update times the structure, not the harness.
        let mut pool: Vec<usize> = (0..n).collect();
        let ops: Vec<(u32, Point, usize)> = (0..updates)
            .map(|_| {
                (
                    rng.gen_range(0..3u32),
                    Point::new(rng.gen_range(-25.0..25.0), rng.gen_range(-25.0..25.0)),
                    rng.gen_range(0..usize::MAX),
                )
            })
            .collect();
        let (_, secs) = time(|| {
            for &(kind, p, pick) in &ops {
                match kind {
                    0 => pool.push(d.insert(DiscreteUncertainPoint::certain(p))),
                    1 if pool.len() > 1 => {
                        let id = pool.swap_remove(pick % pool.len());
                        d.remove(id);
                    }
                    _ => {
                        let id = pool[pick % pool.len()];
                        d.update_location(id, DiscreteUncertainPoint::certain(p));
                    }
                }
            }
        });
        let delta = d.stats().rebuild.since(&before);
        let per_update = delta.sites_rebuilt as f64 / updates as f64;
        ratios.push(per_update / (n as f64).log2());
        let s = d.stats();
        t.row(&[
            n.to_string(),
            updates.to_string(),
            format!("{per_update:.2}"),
            format!("{:.1}", (n as f64).log2()),
            format!("{:.1}", secs / updates as f64 * 1e6),
            delta.global_rebuilds.to_string(),
            s.buckets.to_string(),
        ]);
    }
    t.print();
    println!(
        "   rebuilt/update ÷ log2(n) stays bounded across the sweep: {:?}",
        ratios.iter().map(|r| format!("{r:.2}")).collect::<Vec<_>>()
    );
    assert!(
        ratios.iter().all(|&r| r < 6.0),
        "amortized update cost is not logarithmic: {ratios:?}"
    );
}

/// E29: merged quantification vs the fresh sweep under churn — the same
/// dynamic structure absorbing update waves, then serving the identical
/// quantification batch through the merged path and the static sweep.
/// Fresh runs the static sweep over a location slab of the live set, built
/// once per round outside the timed region, so it pays the full
/// `O(N log N)` distance pass + sort per query; merged range-reports the
/// live entries inside the Lemma 2.1 radius from the per-bucket kd
/// summaries, sorts only those and stops at the sweep's early exit.
/// Answers are cross-checked bitwise every round.
fn e29_merged_quantification() {
    use rand::Rng;
    use uncertain_nn::dynamic::{DynamicConfig, DynamicSet, Update};
    use uncertain_nn::model::DiscreteUncertainPoint;
    use uncertain_nn::quantification::exact::quantification_sweep;
    use uncertain_nn::quantification::LocationSlab;
    header(
        "E29",
        "merged quantification vs fresh sweep under churn",
        "per-bucket kd summaries + the Lemma 2.1 radius make quantification churn-native (sublinear per query)",
    );
    let n = scaled(4_096).max(64);
    let rounds = if uncertain_bench::smoke() { 2 } else { 5 };
    let queries = workload::random_queries(scaled(64).max(8), 60.0, 29);
    let mut t = Table::new(&[
        "churn/round",
        "merged µs/q",
        "fresh µs/q",
        "speedup",
        "entries/N",
    ]);
    let mut low_churn_speedups = vec![];
    for &rate in sweep(&[0.01f64, 0.10, 0.25]) {
        let base = workload::random_discrete_set(n, 3, 5.0, 2900 + (rate * 100.0) as u64);
        let mut d = DynamicSet::from_set(&base, DynamicConfig::default());
        let mut rng = StdRng::seed_from_u64(291);
        let mut pool: Vec<usize> = (0..n).collect();
        // Warm-up: one untimed pass sizes the per-thread collect and
        // sweep buffers.
        for &q in &queries {
            let _ = d.quantification_merged(q);
        }
        let (mut merged_secs, mut fresh_secs) = (0.0, 0.0);
        let (mut entries, mut live_locs) = (0u64, 0u64);
        let mut checksum = 0.0f64;
        for round in 0..rounds {
            let count = ((n as f64 * rate).ceil() as usize).max(1);
            let mut updates = Vec::with_capacity(count);
            for _ in 0..count {
                match rng.gen_range(0..3u32) {
                    1 if pool.len() > 1 => {
                        let i = rng.gen_range(0..pool.len());
                        updates.push(Update::Remove(pool.swap_remove(i)));
                    }
                    sel => {
                        let c = Point::new(rng.gen_range(-25.0..25.0), rng.gen_range(-25.0..25.0));
                        let locs = (0..3)
                            .map(|_| {
                                Point::new(
                                    c.x + rng.gen_range(-2.5..2.5),
                                    c.y + rng.gen_range(-2.5..2.5),
                                )
                            })
                            .collect();
                        let site = DiscreteUncertainPoint::uniform(locs);
                        if sel == 0 || pool.is_empty() {
                            updates.push(Update::Insert(site));
                        } else {
                            let i = rng.gen_range(0..pool.len());
                            updates.push(Update::Move {
                                id: pool[i],
                                to: site,
                            });
                        }
                    }
                }
            }
            let outcome = d.apply(&updates);
            pool.extend(outcome.inserted);
            // Merged pass (collecting the entry counts as the engine does).
            let (_, secs) = time(|| {
                for &q in &queries {
                    let (pi, st) = d.quantification_merged_with_stats(q);
                    entries += st.entries_merged as u64;
                    live_locs += st.live_locations as u64;
                    checksum += pi.iter().map(|&(_, p)| p).sum::<f64>();
                }
            });
            merged_secs += secs;
            // Fresh pass over the identical live set and queries; the slab
            // is the epoch's setup, built before the clock starts.
            let (slab, ids) = (LocationSlab::from_set(&d.live_set()), d.live_ids());
            let (_, secs) = time(|| {
                for &q in &queries {
                    let pi = quantification_sweep(slab.entries(q), ids.len());
                    checksum -= pi.iter().sum::<f64>();
                }
            });
            fresh_secs += secs;
            // Cross-check bitwise on a sub-sample each round.
            for &q in queries.iter().take(4) {
                // The merged answer is the fresh one's π > 0 pairs.
                let merged = d.quantification_merged(q);
                let fresh: Vec<_> = ids
                    .iter()
                    .copied()
                    .zip(quantification_sweep(slab.entries(q), ids.len()))
                    .filter(|&(_, p)| p > 0.0)
                    .collect();
                assert_eq!(merged.len(), fresh.len());
                for ((mi, mp), (fi, fp)) in merged.iter().zip(&fresh) {
                    assert_eq!(mi, fi);
                    assert_eq!(
                        mp.to_bits(),
                        fp.to_bits(),
                        "merged ≠ fresh at {q} (round {round})"
                    );
                }
            }
        }
        assert!(checksum.abs() < 1e-9, "plan variants diverged: {checksum}");
        let per_q = (rounds * queries.len()) as f64;
        let speedup = fresh_secs / merged_secs;
        if rate <= 0.10 {
            low_churn_speedups.push(speedup);
        }
        t.row(&[
            format!("{:.0}%", rate * 100.0),
            format!("{:.1}", merged_secs / per_q * 1e6),
            format!("{:.1}", fresh_secs / per_q * 1e6),
            format!("{speedup:.1}x"),
            format!("{:.3}", entries as f64 / live_locs.max(1) as f64),
        ]);
    }
    t.print();
    println!(
        "   n = {n}, {} queries/round, {rounds} rounds; merged ≡ fresh bitwise each round",
        queries.len()
    );
    if !uncertain_bench::smoke() {
        assert!(
            low_churn_speedups.iter().all(|&s| s > 1.0),
            "merged path must beat the fresh sweep at ≤10% churn: {low_churn_speedups:?}"
        );
    }
}

/// E30: where the merged path starts winning as the structure's shape
/// varies — the per-query cost of the radius collect scales with the bucket
/// fan-out and the entries inside the radius (its answer holds only the `π > 0`
/// sites), while the fresh sweep scales with `N log N`. Each n is measured in both extreme layouts: one
/// compact bucket (a bulk load) and the maximally fragmented
/// popcount-of-n layout an insert-only history produces. `insert µs` prices
/// that history: one carry per insert, each building a bucket's group tree,
/// down to one-site buckets.
fn e30_merge_crossover() {
    use uncertain_nn::dynamic::{DynamicConfig, DynamicSet};
    use uncertain_nn::quantification::exact::quantification_sweep;
    use uncertain_nn::quantification::LocationSlab;
    header(
        "E30",
        "merged-vs-fresh crossover vs bucket count",
        "collect overhead grows with bucket fan-out; the fresh sweep with N log N — they cross at small n",
    );
    let mut t = Table::new(&[
        "n",
        "buckets=1 µs/q",
        "buckets",
        "fragmented µs/q",
        "insert µs",
        "fresh µs/q",
        "best speedup",
    ]);
    // 2^m − 1: an insert-only history leaves one bucket per set bit of n,
    // so these sizes fragment into 8, 10, 12 and 14 buckets.
    for &n in sweep(&[255usize, 1_023, 4_095, 16_383]) {
        let n = scaled(n).max(22);
        let base = workload::random_discrete_set(n, 3, 5.0, 3000 + n as u64);
        let queries = workload::random_queries(scaled(48).max(8), 60.0, 30);
        // Layout A: one compact bucket (bulk load).
        let compact = DynamicSet::from_set(&base, DynamicConfig::default());
        // Layout B: insert-built — popcount(n) buckets.
        let (fragmented, insert_secs) = time(|| {
            let mut d = DynamicSet::new(DynamicConfig::default());
            for p in &base.points {
                d.insert(p.clone());
            }
            d
        });
        // The fresh sweep's setup: the live set's location slab, built once
        // outside the timed region.
        let slab = LocationSlab::from_set(&compact.live_set());
        let mut checksum = 0.0f64;
        // Each evaluator answers `(answer length, first estimate)`.
        let mut measure = |eval: &dyn Fn(Point) -> (usize, f64)| {
            // Warm pass, then timed passes.
            for &q in &queries {
                checksum += eval(q).1;
            }
            let reps = if uncertain_bench::smoke() { 1 } else { 3 };
            let (_, secs) = time(|| {
                for _ in 0..reps {
                    for &q in &queries {
                        checksum += eval(q).0 as f64;
                    }
                }
            });
            secs / (reps * queries.len()) as f64
        };
        let merged = |d: &DynamicSet, q: Point| {
            let pi = d.quantification_merged(q);
            (pi.len(), pi.first().map_or(0.0, |&(_, p)| p))
        };
        let merged_compact = measure(&|q| merged(&compact, q));
        let merged_frag = measure(&|q| merged(&fragmented, q));
        let fresh = measure(&|q| {
            let pi = quantification_sweep(slab.entries(q), n);
            (pi.len(), pi.first().copied().unwrap_or(0.0))
        });
        assert!(checksum > 0.0);
        // Both layouts answer identically (ids 0..n in both).
        for &q in queries.iter().take(3) {
            assert_eq!(
                compact.quantification_merged(q),
                fragmented.quantification_merged(q)
            );
        }
        let buckets = fragmented.stats().buckets;
        t.row(&[
            n.to_string(),
            format!("{:.1}", merged_compact * 1e6),
            buckets.to_string(),
            format!("{:.1}", merged_frag * 1e6),
            format!("{:.2}", insert_secs * 1e6 / n as f64),
            format!("{:.1}", fresh * 1e6),
            format!("{:.1}x", fresh / merged_compact.min(merged_frag)),
        ]);
    }
    t.print();
    println!("   merged measured on 1-bucket and popcount(n)-bucket layouts of the same sites");
}

/// E31: apply-throughput scaling with the shard count. A one-shard engine
/// copies the **whole** set per apply (an `O(n)` clone); with S shards an
/// apply copies only the shards a batch touches, so a batch
/// confined to one shard pays `O(n/S)` — the speedup is algorithmic
/// (clone-volume reduction), not thread-count, and shows up even on one
/// core. The workload is "disjoint-shard batches": Move batches each
/// confined to a single shard, round-robin over shards. A move keeps the
/// site's first location, which is what the partitioner files it under, so
/// it never leaves its shard.
fn e31_shard_scaling() {
    use uncertain_engine::{Engine, EngineConfig, Update};
    use uncertain_nn::model::DiscreteUncertainPoint;
    header(
        "E31",
        "sharded apply throughput vs shard count",
        "disjoint-shard batches touch O(n/S) state per apply, so throughput scales ~S× over the one-shard clone",
    );
    let n = if uncertain_bench::smoke() {
        100_000
    } else {
        1_000_000
    };
    let applies = if uncertain_bench::smoke() { 24 } else { 48 };
    let batch = 16; // Move updates per apply, all in one shard.
    let base = workload::random_discrete_set(n, 3, 5.0, 31);
    let mut t = Table::new(&[
        "S",
        "applies",
        "updates",
        "wall",
        "updates/s",
        "speedup vs S=1",
    ]);
    let mut rng = StdRng::seed_from_u64(0xE31);
    let mut base_rate = 0.0f64;
    let mut speedups = vec![];
    // Not `sweep(..)`: higher S is *cheaper* per apply, and the S=4 point
    // is the acceptance bar, so the full shard ladder runs even in smoke.
    for s in [1usize, 2, 4, 8, 16] {
        let engine = Engine::new(
            base.clone(),
            EngineConfig {
                shards: Some(s),
                ..EngineConfig::default()
            },
        );
        // Per-shard victim pools, built outside the timed loop so the
        // apply loop times the engine, not the partitioner.
        let by_shard = engine.shard_census();
        let batches: Vec<Vec<Update>> = (0..applies)
            .map(|i| {
                use rand::Rng;
                let pool = &by_shard[i % s];
                (0..batch)
                    .map(|j| {
                        let id = pool[(i * 7919 + j * 104_729) % pool.len()];
                        Update::Move {
                            id,
                            to: DiscreteUncertainPoint::uniform(vec![
                                base.points[id].locations()[0],
                                Point::new(rng.gen_range(-25.0..25.0), rng.gen_range(-25.0..25.0)),
                            ]),
                        }
                    })
                    .collect()
            })
            .collect();
        let (moved, secs) = time(|| {
            let mut moved = 0usize;
            for b in &batches {
                let r = engine.apply(b);
                assert_eq!(r.missed, 0, "victim pool produced a dead id");
                moved += r.moved;
            }
            moved
        });
        assert_eq!(moved, applies * batch);
        let rate = moved as f64 / secs;
        if s == 1 {
            base_rate = rate;
        }
        let speedup = rate / base_rate;
        speedups.push((s, speedup));
        t.row(&[
            s.to_string(),
            applies.to_string(),
            moved.to_string(),
            fmt_time(secs),
            format!("{:.0}", rate),
            format!("{speedup:.2}x"),
        ]);
    }
    t.print();
    println!(
        "   n={n} live sites; every batch = {batch} moves confined to one shard (round-robin)"
    );
    println!("   speedup is clone-volume, not parallelism: valid on a single core");
    // Smoke stays assert-free on the scaling claim (CI boxes are noisy);
    // the full run enforces the ISSUE's >2x-at-4-shards acceptance bar.
    if !uncertain_bench::smoke() {
        let at4 = speedups
            .iter()
            .find(|&&(s, _)| s == 4)
            .map(|&(_, x)| x)
            .unwrap_or(0.0);
        assert!(
            at4 > 2.0,
            "expected >2x apply throughput at 4 shards, got {at4:.2}x"
        );
    }
}

// ---------------------------------------------------------------------------

/// E32: the network serving front-end under 2× overload — admission
/// control (shed at the queue bound) keeps the p99 of *admitted* requests
/// bounded by roughly `bound / capacity`, while the same overload against
/// an unbounded queue grows the backlog (and with it the tail) without
/// limit for as long as the overload lasts.
fn e32_server_overload() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};
    use uncertain_bench::measure::percentile;
    use uncertain_engine::server::protocol::{Client, ErrorCode, Reply, Request, WireError};
    use uncertain_engine::server::{Server, ServerConfig, ServerHandle};
    use uncertain_engine::{Engine, EngineConfig, QueryRequest};

    header(
        "E32",
        "serving front-end: overload with vs without shedding",
        "bounded queues trade availability for tail latency: shed keeps p99 ≈ bound/capacity under 2× overload; unbounded queues let it grow with the backlog",
    );

    let n = scaled(5_000).max(200);
    let set = workload::random_discrete_set(n, 3, 5.0, 32);
    let engine = Arc::new(Engine::new(set, EngineConfig::default()));
    // Every request gets a *unique* query point (a splitmix hash of its
    // index) — cache hits would otherwise quietly raise capacity during
    // the run and soften the very overload being measured.
    let uq = |i: u64| -> Point {
        let mix = |x: u64| -> u64 {
            let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Point::new(
            (mix(i) % 60_000) as f64 / 1000.0 - 30.0,
            (mix(i ^ 0xE32) % 60_000) as f64 / 1000.0 - 30.0,
        )
    };
    let (probe_burst, phase_secs) = if uncertain_bench::smoke() {
        (1_000u64, 0.8)
    } else {
        (20_000u64, 4.0)
    };
    let bound = 64usize;
    let start = |queue_bound: usize| -> ServerHandle {
        Server::start(
            Arc::clone(&engine),
            ServerConfig {
                queue_bound,
                batch_window: Duration::from_micros(500),
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback")
    };

    // Phase 1: saturated-capacity probe — pipeline a burst against an
    // unbounded queue and time first-send → last-reply. Pipelining (not a
    // closed loop) is what saturates the batching window, so this is the
    // true batched capacity; offering 2× of it genuinely overloads.
    let capacity = {
        let burst = probe_burst;
        let h = start(0);
        let addr = h.local_addr().to_string();
        let client = Client::connect_retry(&addr, Duration::from_secs(5)).unwrap();
        let (mut tx, mut rx) = client.split().unwrap();
        let t0 = Instant::now();
        for i in 0..burst {
            let q = uq(i | (1 << 40)); // probe's own query namespace
            tx.send(&Request::Query(QueryRequest::TopK { q, k: 3 }))
                .unwrap();
        }
        tx.finish();
        let mut replies = 0u64;
        while rx.recv().is_ok() {
            replies += 1;
        }
        let secs = t0.elapsed().as_secs_f64();
        h.shutdown();
        assert_eq!(replies, burst, "probe burst must be fully served");
        (replies as f64 / secs).max(50.0)
    };
    let offered = 2.0 * capacity;
    println!(
        "   capacity ≈ {capacity:.0} q/s (pipelined burst, saturated batching) → offering {offered:.0} q/s"
    );

    // Phases 2–3: identical 2×-overload open-loop runs against a bounded
    // and an unbounded queue. Arrivals are paced on an absolute schedule
    // (no coordinated omission) and latency is charged from the scheduled
    // arrival time, so server-side queueing shows up in the client's tail.
    struct PhaseResult {
        sent: u64,
        served: u64,
        shed: u64,
        p50: f64,
        p99: f64,
        max_depth: usize,
    }
    let overload = |queue_bound: usize| -> PhaseResult {
        let h = start(queue_bound);
        let addr = h.local_addr().to_string();
        let stop_sampler = AtomicBool::new(false);
        let lats: Mutex<Vec<f64>> = Mutex::new(Vec::new());
        let (mut sent, mut served, mut shed) = (0u64, 0u64, 0u64);
        let mut max_depth = 0usize;
        std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut max_depth = 0usize;
                while !stop_sampler.load(Ordering::Relaxed) {
                    max_depth = max_depth.max(h.queue_depth());
                    std::thread::sleep(Duration::from_millis(2));
                }
                max_depth
            });
            let client = Client::connect_retry(&addr, Duration::from_secs(5)).unwrap();
            let (mut tx, mut rx) = client.split().unwrap();
            let in_flight: Mutex<std::collections::HashMap<u64, Instant>> =
                Mutex::new(std::collections::HashMap::new());
            std::thread::scope(|inner| {
                let receiver = inner.spawn(|| {
                    let (mut served, mut shed) = (0u64, 0u64);
                    loop {
                        match rx.recv() {
                            Ok((id, reply)) => {
                                let sched = in_flight.lock().unwrap().remove(&id);
                                match reply {
                                    Reply::Error {
                                        code: ErrorCode::Shed,
                                        ..
                                    } => shed += 1,
                                    Reply::Error { .. } => {}
                                    _ => {
                                        served += 1;
                                        if let Some(s) = sched {
                                            lats.lock()
                                                .unwrap()
                                                .push(s.elapsed().as_nanos() as f64);
                                        }
                                    }
                                }
                            }
                            Err(WireError::Eof) | Err(_) => return (served, shed),
                        }
                    }
                });
                let interval = Duration::from_secs_f64(1.0 / offered);
                let start_t = Instant::now();
                let mut i = 0u64;
                loop {
                    let sched = start_t + interval.mul_f64(i as f64);
                    if sched.duration_since(start_t).as_secs_f64() >= phase_secs {
                        break;
                    }
                    let now = Instant::now();
                    if sched > now {
                        std::thread::sleep(sched - now);
                    }
                    let q = uq(i ^ (u64::from(queue_bound == 0) << 41));
                    let req = Request::Query(QueryRequest::TopK { q, k: 3 });
                    sent += 1;
                    match tx.send(&req) {
                        Ok(id) => {
                            in_flight.lock().unwrap().insert(id, sched.max(start_t));
                        }
                        Err(_) => break,
                    }
                    i += 1;
                }
                // Half-close; the receiver drains the (possibly large)
                // backlog of replies, then sees the server's clean EOF.
                tx.finish();
                (served, shed) = receiver.join().unwrap();
            });
            stop_sampler.store(true, Ordering::Relaxed);
            max_depth = sampler.join().unwrap();
        });
        h.shutdown();
        let lats = lats.into_inner().unwrap();
        let (p50, p99) = if lats.is_empty() {
            (0.0, 0.0)
        } else {
            (percentile(&lats, 0.50), percentile(&lats, 0.99))
        };
        PhaseResult {
            sent,
            served,
            shed,
            p50,
            p99,
            max_depth,
        }
    };

    let with_shed = overload(bound);
    let unbounded = overload(0);

    let mut t = Table::new(&["queue", "sent", "served", "shed", "p50", "p99", "max depth"]);
    for (label, r) in [
        (format!("bound {bound}"), &with_shed),
        ("unbounded".to_string(), &unbounded),
    ] {
        t.row(&[
            label,
            r.sent.to_string(),
            r.served.to_string(),
            r.shed.to_string(),
            uncertain_obs::fmt_ns(r.p50 as u64),
            uncertain_obs::fmt_ns(r.p99 as u64),
            r.max_depth.to_string(),
        ]);
    }
    t.print();
    println!(
        "   2× overload for {phase_secs}s: shedding holds the queue at ≤{bound} and p99 near bound/capacity;"
    );
    println!(
        "   the unbounded queue absorbs the same excess as backlog, so p99 grows with the run"
    );

    // Smoke boxes are too noisy (and the runs too short) for latency
    // assertions; the full run enforces the ISSUE's acceptance bar.
    if !uncertain_bench::smoke() {
        assert!(with_shed.shed > 0, "2× overload against a bound must shed");
        assert_eq!(unbounded.shed, 0, "no admission control, no sheds");
        assert!(
            with_shed.max_depth <= bound,
            "admission control must hold the queue at the bound (saw {})",
            with_shed.max_depth
        );
        assert!(
            unbounded.max_depth > 2 * bound,
            "2× overload must grow the unbounded queue past the bound (saw {})",
            unbounded.max_depth
        );
        // The tail-latency comparison only means something when the
        // backlog genuinely ran away (cache warm-up can quietly raise
        // capacity past the offered rate on fast boxes).
        if unbounded.max_depth > 10 * bound {
            assert!(
                with_shed.p99 < unbounded.p99 / 2.0,
                "shedding must bound p99 under overload ({} vs {})",
                uncertain_obs::fmt_ns(with_shed.p99 as u64),
                uncertain_obs::fmt_ns(unbounded.p99 as u64),
            );
        }
    }
}

// ---------------------------------------------------------------------------

/// E33: the partitioning experiment. Region-disjoint spatial partitioning
/// lets the reader's box pruning skip shards strictly outside the query's
/// certified disk, so clustered queries touch `≪ S` shards; a read that
/// visits every shard is the baseline (`S` per query). A hot-cluster
/// arrival wave (then drain) runs before measurement so the clustered legs
/// also cross the rebalance path — the steady state being measured is
/// post-migration, not the pristine initial split.
fn e33_partitioner_locality() {
    use uncertain_bench::cluster::{ClusterConfig, ClusterWorkload};
    use uncertain_engine::{Engine, EngineConfig, QueryRequest, Update};

    header(
        "E33",
        "spatial partitioning: scatter-gather fan-out under skew",
        "region-disjoint shards + box pruning: clustered queries touch ≪ S shards (a read of every shard touches S), cutting per-query gather work",
    );

    let n = scaled(20_000).max(600);
    let nq = if uncertain_bench::smoke() { 60 } else { 400 };
    let mut t = Table::new(&[
        "workload",
        "S",
        "rebalances",
        "shards touched (mean)",
        "q/s",
    ]);
    let mut clustered_s8 = f64::NAN;
    let mut clustered_s8_qps = f64::NAN;

    for &clustered in &[false, true] {
        let cfg = ClusterConfig::default();
        let (set, queries) = if clustered {
            let mut w = ClusterWorkload::new(0xE33, cfg);
            (DiscreteSet::new(w.sites(n)), w.queries(nq))
        } else {
            (
                workload::random_discrete_set(n, 3, 5.0, 0xE33),
                workload::random_queries(nq, cfg.span * 0.4, 0xE33 ^ 1),
            )
        };
        // All-quantification batch: merged quantification is the scatter-
        // gather read whose fan-out the box pruning cuts.
        let batch: Vec<QueryRequest> = queries
            .iter()
            .map(|&q| QueryRequest::TopK { q, k: 4 })
            .collect();

        for &s in &[4usize, 8, 16] {
            let engine = Engine::new(
                set.clone(),
                EngineConfig {
                    shards: Some(s),
                    rebalance_ratio: 2.0,
                    // Cache off: every read executes and is counted.
                    cache_capacity: 0,
                    ..EngineConfig::default()
                },
            );
            // Pre-measurement skew: pile a wave into the hottest cluster,
            // then drain it — identical live set afterwards, but the
            // partition has crossed a rebalance.
            if clustered {
                let mut w = ClusterWorkload::new(0xE33 ^ 7, cfg);
                let report = engine.apply(&w.arrivals(n / 4, 0));
                let drain: Vec<Update> = report
                    .inserted
                    .iter()
                    .map(|&id| Update::Remove(id))
                    .collect();
                engine.apply(&drain);
            }
            // One warm-up batch sizes the per-thread query buffers, so
            // the timed batch is steady state.
            engine.run_batch(&batch);
            let (stats, secs) = time(|| engine.run_batch(&batch).stats);
            let mean = stats.avg_shards_touched();
            let qps = batch.len() as f64 / secs;
            let workload_name = if clustered { "clustered" } else { "uniform" };
            t.row(&[
                workload_name.into(),
                s.to_string(),
                engine.rebalances().to_string(),
                format!("{mean:.2}"),
                format!("{qps:.0}"),
            ]);

            assert_eq!(
                stats.shard_reads,
                batch.len(),
                "cache-off quant reads must all be counted"
            );
            if clustered && !uncertain_bench::smoke() {
                assert!(
                    engine.rebalances() >= 1,
                    "the hot-cluster wave must trigger a rebalance at S={s}"
                );
            }
            if clustered && s == 8 {
                clustered_s8 = mean;
                clustered_s8_qps = qps;
            }
        }
    }
    t.print();
    println!("   n={n} sites, {nq} TopK queries/batch, cache off, rebalance ratio 2.0;");
    println!("   clustered legs run a hot-cluster wave+drain before measurement (rebalances ≥1)");
    println!(
        "   clustered S=8: touches {clustered_s8:.2} shards/query (every-shard baseline: 8.00), \
         q/s {clustered_s8_qps:.0}"
    );
    // The acceptance bar: under clustered load at S=8 the fan-out must stay
    // below S/2. (Smoke boxes run the same path without the assertion.)
    if !uncertain_bench::smoke() {
        assert!(
            clustered_s8 < 4.0,
            "clustered S=8 fan-out must be < S/2 = 4, got {clustered_s8:.2}"
        );
    }
}
