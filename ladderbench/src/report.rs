//! The metrics the benchmark reports, why each per-layer metric is there,
//! and the result line. `BENCHMARK.json` at the repository root lists the
//! same names, units and directions; a test keeps the two in step.

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// For a per-layer metric: the end-to-end metric it should move.
    pub moves: &'static str,
    /// …and the workload it should move it on.
    pub on: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves: "",
        on: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves,
        on,
    }
}

/// Reported with tracing off.
///
/// * `setup_s`: engine construction, server bind and the workload's
///   warm-up, median of several set-ups in one run.
/// * `qps`: wire — answered ÷ wall time of the closed-loop saturation
///   phase; `churn-50k` — answered ÷ summed `run_batch` wall time.
/// * `p50_ms`, `p99_ms`: wire — latency from each request's send to its
///   reply in the closed-loop saturation phase; `churn-50k` — a query's
///   latency is the wall time of the `run_batch` call that answered it.
/// * `apply_ups`: updates ÷ summed wall time of the applies (`APPLY`
///   frames over the wire on the wire workloads).
/// * `peak_heap_mb`: highest live heap during the timed phases.
/// * `heap_kb_per_query`: allocation traffic per answered query during the
///   timed query phases.
/// * `ok_frac`: operations answered correctly ÷ operations attempted (one
///   minus the failed fraction; sheds, error replies, failed results,
///   answers that fail the check and requests never answered all fail).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("qps", "queries/s", "higher"),
    m("p50_ms", "ms", "lower"),
    m("p99_ms", "ms", "lower"),
    m("apply_ups", "updates/s", "higher"),
    m("peak_heap_mb", "MB", "lower"),
    m("heap_kb_per_query", "KB", "lower"),
    m("ok_frac", "fraction", "higher"),
];

/// Reported by the traced run, each with the end-to-end metric and the
/// workload it should move. `churn-50k` has no server and no open loop:
/// there the `server.*` times describe the in-process caller (a request's
/// wall is its `run_batch` wall, the overhead is the caller's own time per
/// query) and `gen.late_p99_ms` is the generator's time per round.
/// `server.open_*` is the wire latency at a fixed rate below saturation,
/// counted from each request's scheduled send; a shared machine's CPU
/// stalls swing it between runs too much for an end-to-end bound.
#[rustfmt::skip]
pub const PER_LAYER: &[Metric] = &[
    layer("server.request_p50_ms", "ms", "lower", "p50_ms", "wire-hot"),
    layer("server.request_p99_ms", "ms", "lower", "p99_ms", "wire-hot"),
    layer("server.open_p50_ms", "ms", "lower", "p50_ms", "wire-*"),
    layer("server.open_p99_ms", "ms", "lower", "p99_ms", "wire-*"),
    layer("server.batch_size_mean", "count", "higher", "qps", "wire-fresh"),
    layer("server.overhead_us_per_query", "us", "lower", "qps", "wire-hot"),
    layer("server.shed", "count", "lower", "ok_frac", "wire-*"),
    layer("server.queue_peak", "count", "lower", "p99_ms", "wire-*"),
    layer("gen.late_p99_ms", "ms", "lower", "none (diagnostic)", "wire-*"),
    layer("engine.us_per_query", "us", "lower", "qps", "wire-fresh, churn-50k"),
    layer("engine.worker_util", "fraction", "higher", "qps", "churn-50k"),
    layer("engine.quant_fresh_share", "fraction", "lower", "qps, p50_ms", "wire-fresh"),
    layer("engine.built", "count", "lower", "setup_s", "wire-fresh"),
    layer("cache.hit_rate", "fraction", "higher", "qps, p50_ms", "wire-hot"),
    layer("cache.entries", "count", "lower", "peak_heap_mb", "churn-50k"),
    layer("apply.us_per_update", "us", "lower", "apply_ups", "churn-50k"),
    layer("apply.sites_rebuilt_per_update", "count", "lower", "apply_ups", "churn-50k"),
    layer("apply.heap_kb_per_update", "KB", "lower", "apply_ups, peak_heap_mb", "churn-50k"),
    layer("apply.global_rebuilds", "count", "lower", "apply_ups", "churn-50k"),
    layer("apply.rebalances", "count", "lower", "apply_ups", "churn-50k"),
    layer("shard.touched_mean", "count", "lower", "qps", "churn-50k"),
    layer("shard.tombstone_frac", "fraction", "lower", "qps", "churn-50k"),
    layer("dynamic.quant_us", "us", "lower", "qps", "churn-50k"),
    layer("dynamic.entries_per_query", "count", "lower", "qps", "churn-50k"),
    layer("dynamic.quant_heap_kb", "KB", "lower", "heap_kb_per_query", "churn-50k"),
    layer("dynamic.nonzero_us", "us", "lower", "qps", "churn-50k"),
    layer("quant.fresh_us", "us", "lower", "qps", "wire-fresh"),
    layer("nonzero.index_us", "us", "lower", "qps", "wire-fresh"),
    layer("nonzero.answer_size_mean", "count", "lower", "none (workload property)", "wire-fresh, churn-50k"),
    layer("kernel.dists_per_query", "count", "lower", "qps", "churn-50k"),
    layer("kernel.lane_frac", "fraction", "higher", "qps", "churn-50k"),
    layer("trace.overhead_frac", "fraction", "lower", "none", "all"),
];

/// Renders the result line. Every metric of `table` must appear in
/// `values` exactly once, with a finite value.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[Metric],
    values: &[(&str, f64)],
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|m| {
            let mut found = values.iter().filter(|(n, _)| *n == m.name);
            let (_, v) = found
                .next()
                .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
            assert!(found.next().is_none(), "metric {} measured twice", m.name);
            assert!(v.is_finite(), "metric {} is not finite: {v}", m.name);
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    assert_eq!(values.len(), table.len(), "unexpected extra metrics");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
