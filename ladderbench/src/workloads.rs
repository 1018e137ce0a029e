//! The three workloads. Each runs its set-up several times, then its timed
//! phases, then the answer check; a traced run adds the per-layer probes.
//! Every phase prints its accounting line as it ends.

use std::io;
use std::time::{Duration, Instant};

use uncertain_bench::measure::{heap_counters, heap_scope, peak_heap_bytes};
use uncertain_engine::server::{Server, ServerConfig};
use uncertain_engine::{ExecStats, QueryRequest, QueryResult, SiteId, Update};
use uncertain_geom::Point;
use uncertain_nn::dynamic::{DynamicConfig, DynamicSet};
use uncertain_nn::model::DiscreteSet;
use uncertain_nn::nonzero::DiscreteNonzeroIndex;
use uncertain_nn::quantification::exact::quantification_discrete;
use uncertain_nn::workload;

use crate::engines::{build_engine, Eng, EngineKind};
use crate::gen::{self, QueryStream, Stream};
use crate::oracle::{Answer, Check};
use crate::stats::{chunked, hist_quantile, median, percentile, LATENCY_CHUNK, WINDOWS};
use crate::trace::Tracer;
use crate::wire::{apply_loop, closed_loop, ms, open_loop, ApplyRound, LoadOut, Phase, Source};

/// Live heap past which a run aborts as failed: well above `churn-50k`'s
/// peak of about 2.3 GB, so a memory regression fails the run before it
/// can exhaust a shared machine. The benchmark's global allocator refuses
/// any allocation past it.
pub const HEAP_CEILING_BYTES: i64 = 4 << 30;

/// Set-ups per run; `setup_s` is their median.
const WIRE_SETUPS: usize = 7;
const CHURN_SETUPS: usize = 3;
/// Requests each closed-loop connection keeps outstanding. Two connections
/// keep at most 256 queued, well below the server's admission bound of
/// 1024, so a saturated server queues but never sheds. Batches that large
/// run long enough that a stalled CPU stretches each one by a similar
/// share, which keeps the saturated latency percentiles steady.
const WINDOW: usize = 128;
/// Open-loop rates on a 2-core machine: about 45% of `wire-fresh`'s
/// saturated capacity (≈ 2.2k q/s) and 12% of `wire-hot`'s (≈ 85k q/s).
/// Latency at a fixed rate below saturation is set by multi-millisecond
/// stalls of a shared machine's CPUs rather than by the server, and swings
/// up to threefold between runs; the open loop's percentiles are therefore
/// per-layer figures, and `p50_ms`/`p99_ms` come from the saturated phase,
/// where a stall costs throughput and latency in proportion.
const FRESH_RATE: f64 = 1_000.0;
const HOT_RATE: f64 = 10_000.0;
/// The first batch a fresh engine serves (it pays the lazy builds).
const WARMUP_QUERIES: usize = 64;
/// Wire queries sent after the apply phase to check answers at its epoch.
const FINAL_CHECK_QUERIES: usize = 30;
/// The write phases run a fixed amount of work per requested second, so
/// every run of a seed applies the same batches and pays the same carries
/// and compactions: `APPLY` frames after the wire workloads' reads (about
/// a fifth of the run on a 2-core machine)…
const WIRE_APPLY_FRAMES_PER_SECOND: f64 = 250.0;
/// …and `churn-50k` rounds (about 80 ms each on a 2-core machine; the
/// 250 rounds of a 20 s run span several global compactions).
const CHURN_ROUNDS_PER_SECOND: f64 = 12.5;
const CHURN_MIN_ROUNDS: u64 = 20;
const CHURN_SHARDS: usize = 4;
const CHURN_BATCH: usize = 256;
/// `churn-50k` checks answers every this many rounds…
const CHURN_CHECK_EVERY: u64 = 16;
/// …taking this many answers of the round's batch (3 per family).
const CHURN_CHECK_ANSWERS: usize = 9;
/// Probe sizes of the traced run's single-thread layer calls.
const PROBE_FRESH: usize = 48;
const PROBE_MERGED: usize = 256;
const PROBE_NONZERO: usize = 1024;

/// What the command line asked for.
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A finished run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub values: Vec<(&'static str, f64)>,
    pub tracer: Tracer,
}

/// Concurrent load comes from at most this many connections and generator
/// threads.
fn lanes() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

fn mb(bytes: f64) -> f64 {
    bytes / 1e6
}

fn kb(bytes: f64) -> f64 {
    bytes / 1e3
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Operations per second over `(operations, wall seconds)` rounds.
fn per_second(rounds: &[(usize, f64)]) -> Option<f64> {
    let wall: f64 = rounds.iter().map(|r| r.1).sum();
    (wall > 0.0).then(|| rounds.iter().map(|r| r.0).sum::<usize>() as f64 / wall)
}

fn required(v: Option<f64>, what: &str) -> io::Result<f64> {
    v.ok_or_else(|| {
        io::Error::other(format!(
            "{what}: fewer than {} samples beyond the percentile; the phase is too short",
            crate::stats::MIN_BEYOND
        ))
    })
}

/// The latencies of one or more phases' replies, each phase's in send
/// order.
fn in_send_order(phases: Vec<Vec<(f64, f64)>>) -> Vec<f64> {
    phases
        .into_iter()
        .flat_map(|mut replies| {
            replies.sort_by(|a, b| a.0.total_cmp(&b.0));
            replies.into_iter().map(|r| r.1)
        })
        .collect()
}

/// The median over consecutive chunks of about [`LATENCY_CHUNK`] latencies
/// of each chunk's `p`-percentile.
fn chunked_pct(latency: &[f64], p: f64, what: &str) -> io::Result<f64> {
    let chunks = (latency.len() / LATENCY_CHUNK).max(1);
    required(chunked(latency, chunks, |c| percentile(c, p)), what)
}

/// Sums the execution reports of in-process batches.
#[derive(Default)]
struct BatchTotals {
    queries: u64,
    wall: Duration,
    busy: Duration,
    worker_wall: Duration,
    hits: u64,
    misses: u64,
    fresh: u64,
    merged: u64,
    lane_dists: u64,
    scalar_dists: u64,
    touched: u64,
    reads: u64,
    failed: u64,
}

impl BatchTotals {
    fn add(&mut self, s: &ExecStats, results: &[QueryResult], wall: Duration) {
        self.queries += s.batch_len as u64;
        self.wall += wall;
        self.busy += s.worker_busy.iter().sum::<Duration>();
        self.worker_wall += s.wall * s.workers as u32;
        self.hits += s.cache_hits as u64;
        self.misses += s.cache_misses as u64;
        self.fresh += s.quant_fresh_evals as u64;
        self.merged += s.quant_merged_evals as u64;
        self.lane_dists += s.kernel_lane_dists;
        self.scalar_dists += s.kernel_scalar_dists;
        self.touched += s.shards_touched as u64;
        self.reads += s.shard_reads as u64;
        self.failed += results
            .iter()
            .filter(|r| matches!(r, QueryResult::Failed { .. }))
            .count() as u64;
    }

    fn layer_values(&self) -> Vec<(&'static str, f64)> {
        let dists = (self.lane_dists + self.scalar_dists) as f64;
        vec![
            (
                "engine.us_per_query",
                ratio(self.wall.as_secs_f64() * 1e6, self.queries as f64),
            ),
            (
                "engine.worker_util",
                ratio(self.busy.as_secs_f64(), self.worker_wall.as_secs_f64()).min(1.0),
            ),
            (
                "engine.quant_fresh_share",
                ratio(self.fresh as f64, (self.fresh + self.merged) as f64),
            ),
            (
                "cache.hit_rate",
                ratio(self.hits as f64, (self.hits + self.misses) as f64),
            ),
            (
                "shard.touched_mean",
                ratio(self.touched as f64, self.reads as f64),
            ),
            ("kernel.dists_per_query", ratio(dists, self.queries as f64)),
            ("kernel.lane_frac", ratio(self.lane_dists as f64, dists)),
        ]
    }
}

/// One closed-loop source per stream, each continuing its stream.
fn sources(streams: &mut [QueryStream]) -> Vec<Source<'_>> {
    streams
        .iter_mut()
        .map(|s| Box::new(move || Some(s.next_request())) as Source<'_>)
        .collect()
}

/// The first `n` `(request, answer)` pairs of an in-process batch.
fn sample_of(
    reqs: &[QueryRequest],
    results: &[QueryResult],
    n: usize,
) -> Vec<(QueryRequest, Answer)> {
    reqs.iter()
        .zip(results)
        .take(n)
        .map(|(r, a)| (*r, Answer::from_result(a)))
        .collect()
}

/// Running totals of attempted and failed operations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn phase(&mut self, p: &Phase) {
        println!("{}", p.line());
        self.attempted += p.sent;
        self.failed += p.not_answered();
    }

    fn batch(&mut self, queries: usize, failed: u64) {
        self.attempted += queries as u64;
        self.failed += failed;
    }
}

/// The traced run's single-thread calls into the core layers over the
/// final live set, and into a harness-held `DynamicSet` that received the
/// same update batches as the engine.
fn probe_layers(
    tracer: &Tracer,
    live: &DiscreteSet,
    dynset: &DynamicSet,
    points: &[Point],
) -> Vec<(&'static str, f64)> {
    let root = tracer.enter("phase.probe", 0, 0);
    let per_call = |name: &'static str, n: usize, f: &mut dyn FnMut(Point)| -> f64 {
        let t = Instant::now();
        for (i, &q) in points.iter().take(n).enumerate() {
            let _s = tracer.enter(name, i as u64, root.id());
            f(q);
        }
        t.elapsed().as_secs_f64() * 1e6 / n.min(points.len()) as f64
    };
    let fresh_us = per_call("core.quant_fresh", PROBE_FRESH, &mut |q| {
        std::hint::black_box(quantification_discrete(live, q));
    });
    let index = DiscreteNonzeroIndex::build(live);
    let mut sizes = 0usize;
    let index_us = per_call("core.nonzero_index", PROBE_NONZERO, &mut |q| {
        sizes += std::hint::black_box(index.query(q)).len();
    });
    // The first merged query builds the lazy per-bucket summaries; the
    // probe times the warm per-query cost.
    std::hint::black_box(dynset.quantification_merged_with_stats(points[0]));
    let (mut entries, b0) = (0usize, heap_counters().0);
    let merged_us = per_call("dynamic.quant_merged", PROBE_MERGED, &mut |q| {
        let (pi, st) = dynset.quantification_merged_with_stats(q);
        std::hint::black_box(pi);
        entries += st.entries_merged;
    });
    let merged_bytes = (heap_counters().0 - b0) as f64;
    let dyn_nonzero_us = per_call("dynamic.nonzero", PROBE_NONZERO, &mut |q| {
        std::hint::black_box(dynset.nonzero(q));
    });
    let probes = |n: usize| n.min(points.len()) as f64;
    vec![
        ("quant.fresh_us", fresh_us),
        ("nonzero.index_us", index_us),
        (
            "nonzero.answer_size_mean",
            sizes as f64 / probes(PROBE_NONZERO),
        ),
        ("dynamic.quant_us", merged_us),
        (
            "dynamic.entries_per_query",
            entries as f64 / probes(PROBE_MERGED),
        ),
        (
            "dynamic.quant_heap_kb",
            kb(merged_bytes) / probes(PROBE_MERGED),
        ),
        ("dynamic.nonzero_us", dyn_nonzero_us),
    ]
}

/// Replays `batches` into a `DynamicSet` bulk-loaded from `set0`, checking
/// that it assigns the same insert ids the engine did.
fn replay_updates<'a>(
    set0: &DiscreteSet,
    batches: impl Iterator<Item = (&'a [Update], &'a [SiteId])>,
    tracer: &Tracer,
) -> io::Result<DynamicSet> {
    let _s = tracer.enter("dynamic.apply_replay", 0, 0);
    let mut d = DynamicSet::from_set(set0, DynamicConfig::default());
    for (batch, inserted) in batches {
        if d.apply(batch).inserted != inserted {
            return Err(io::Error::other(
                "harness DynamicSet assigned different insert ids than the engine",
            ));
        }
    }
    Ok(d)
}

/// `wire-fresh` (`hot = false`) and `wire-hot` (`hot = true`).
pub fn wire(hot: bool, a: &Args) -> io::Result<Outcome> {
    let tracer = Tracer::new(a.trace);
    let span = gen::WIRE_SPAN;
    let set0 = workload::random_discrete_set(
        gen::WIRE_N,
        gen::K,
        gen::CLUSTER_DIAMETER,
        gen::sub_seed(a.seed, Stream::Sites, 0),
    );
    let stream = |lane: u64| {
        if hot {
            QueryStream::zipf_pool(a.seed, lane, span)
        } else {
            QueryStream::uniform(a.seed, Stream::Queries, lane, span)
        }
    };
    let warmup = QueryStream::uniform(a.seed, Stream::Warmup, 0, span).take(WARMUP_QUERIES);
    let mut tally = Tally::default();
    let mut sample: Vec<(QueryRequest, Answer)> = vec![];
    let (rate, sat_s, open_s) = (
        if hot { HOT_RATE } else { FRESH_RATE },
        0.6 * a.seconds,
        0.4 * a.seconds,
    );

    // Set-up: engine construction, server bind, the first batch's lazy
    // builds and (wire-hot) one pass over the pool. The last set-up serves.
    let mut setups = vec![];
    let mut warm_pool = Phase {
        name: "warm-pool".into(),
        ..Phase::default()
    };
    let mut served = None;
    for _ in 0..WIRE_SETUPS {
        drop(served.take());
        let set = set0.clone();
        let t0 = Instant::now();
        let eng = build_engine(EngineKind::Monolithic, set);
        let server = Server::start(
            eng.servable()
                .expect("wire workloads serve an unsharded engine"),
            ServerConfig::default(),
        )?;
        let warm = eng.run_batch(&warmup);
        if hot {
            let pool: Vec<QueryRequest> = stream(0)
                .pool()
                .iter()
                .flat_map(|&q| {
                    [
                        QueryRequest::Nonzero { q },
                        QueryRequest::TopK { q, k: gen::TOPK_K },
                    ]
                })
                .collect();
            let mut it = pool.into_iter();
            let out = closed_loop(
                server.local_addr(),
                "warm-pool",
                vec![Box::new(move || it.next())],
                WINDOW,
                Duration::from_secs(3600),
                &Tracer::new(false),
                0,
            )?;
            warm_pool.absorb(&out.phase);
        }
        setups.push(t0.elapsed().as_secs_f64());
        served = Some((eng, server, warm));
    }
    let (eng, server, warm) = served.expect("at least one set-up");
    let addr = server.local_addr();
    let mut warm_totals = BatchTotals::default();
    warm_totals.add(&warm.stats, &warm.results, warm.stats.wall);
    tally.batch(warmup.len(), warm_totals.failed);
    sample.extend(sample_of(&warmup, &warm.results, warmup.len()));
    if hot {
        tally.phase(&warm_pool);
    }
    println!(
        "setup: {WIRE_SETUPS} set-ups, median {:.4}s (n = {}, built {:?})",
        median(&setups),
        gen::WIRE_N,
        warm.stats.built
    );

    // Timed phases.
    let reg = uncertain_obs::registry();
    let mut lane_streams: Vec<QueryStream> = (0..lanes() as u64).map(stream).collect();
    let open_reqs = stream(lanes() as u64).take((rate * open_s) as usize);
    let shed0 = reg.counter("server.shed").get();
    reg.gauge("server.queue.peak").set(0.0);
    let _peak_scope = heap_scope("ladderbench.timed");
    let bytes0 = heap_counters().0;
    let mut answered = 0u64;
    // Saturation. The traced run splits it into four segments — traced,
    // untraced, untraced, traced — so drift across the phase (the cache
    // filling up, say) cancels out of the tracing-overhead ratio.
    let batch0 = reg.histogram("server.batch.size").snapshot();
    let wall0 = reg.histogram("server.request.wall").snapshot();
    let segments: &[bool] = if a.trace {
        &[true, false, false, true]
    } else {
        &[false]
    };
    // (answered, wall seconds), untraced then traced.
    let mut sat = [(0u64, 0.0f64); 2];
    let mut windowed_qps = None;
    let mut sat_replies = vec![];
    for &on in segments {
        let off = Tracer::new(false);
        let tr = if on { &tracer } else { &off };
        let name = match (a.trace, on) {
            (false, _) => "saturate",
            (true, true) => "saturate-on",
            (true, false) => "saturate-off",
        };
        let root = tr.enter("phase.saturate", 0, 0);
        let dur = secs(sat_s / segments.len() as f64);
        let out = closed_loop(
            addr,
            name,
            sources(&mut lane_streams),
            WINDOW,
            dur,
            tr,
            root.id(),
        )?;
        drop(root);
        windowed_qps = Some(median(&out.window_qps));
        tally.phase(&out.phase);
        answered += out.phase.answered;
        sample.extend(out.sample);
        sat_replies.push(out.replies);
        sat[on as usize].0 += out.phase.answered;
        sat[on as usize].1 += out.phase.wall_s;
    }
    let sat_latency = in_send_order(sat_replies);
    let batch_hist = reg.histogram("server.batch.size").snapshot().since(&batch0);
    let wall_hist = reg
        .histogram("server.request.wall")
        .snapshot()
        .since(&wall0);
    let qps_of = |(n, wall): (u64, f64)| n as f64 / wall;
    // The end-to-end figure is the median over windows; the traced run
    // compares whole segments.
    let qps = if a.trace {
        qps_of(sat[1])
    } else {
        windowed_qps.expect("every window of a saturated phase is answered")
    };
    let open: LoadOut = {
        let root = tracer.enter("phase.open", 0, 0);
        open_loop(addr, "open", &open_reqs, rate, &tracer, root.id())?
    };
    tally.phase(&open.phase);
    answered += open.phase.answered;
    let query_bytes = (heap_counters().0 - bytes0) as f64;
    sample.extend(open.sample.iter().cloned());

    // Traced run: replay the saturation stream in process at the server's
    // mean batch size — the engine rung of the ladder, still at epoch 0.
    let mut replay = BatchTotals::default();
    if a.trace {
        let root = tracer.enter("phase.replay", 0, 0);
        let size = (batch_hist.mean().round() as usize).max(1);
        let t = Instant::now();
        let mut b = 0u64;
        while t.elapsed() < secs(0.2 * a.seconds) {
            let reqs = lane_streams[0].take(size);
            let t0 = Instant::now();
            let resp = {
                let _s = tracer.enter("engine.run_batch", b, root.id());
                eng.run_batch(&reqs)
            };
            replay.add(&resp.stats, &resp.results, t0.elapsed());
            tally.batch(reqs.len(), 0);
            if b < 4 {
                sample.extend(sample_of(&reqs, &resp.results, 6));
            }
            b += 1;
        }
        tally.failed += replay.failed;
        println!(
            "phase {:<14} batches {b} of {size}  queries {}  wall {:.3}s",
            "replay",
            replay.queries,
            replay.wall.as_secs_f64()
        );
    }

    // Writes over the wire. The first APPLY bulk-loads the engine's dynamic
    // structure; it is the phase's warm-up and is not timed.
    let mut ups = gen::updates(a.seed, span, (0..gen::WIRE_N).collect());
    let (warm_apply, mut rounds) = apply_loop(addr, "apply-warmup", &mut ups, 1, &tracer, 0)?;
    tally.phase(&warm_apply);
    let rebuilt0 = reg.counter("dynamic.sites_rebuilt").get();
    let global0 = reg.counter("dynamic.global_rebuilds").get();
    let apply_bytes0 = heap_counters().0;
    let (apply_phase, timed_rounds) = {
        let root = tracer.enter("phase.apply", 0, 0);
        let frames = (WIRE_APPLY_FRAMES_PER_SECOND * a.seconds).round() as usize;
        apply_loop(addr, "apply", &mut ups, frames, &tracer, root.id())?
    };
    let apply_bytes = (heap_counters().0 - apply_bytes0) as f64;
    let sites_rebuilt = reg.counter("dynamic.sites_rebuilt").get() - rebuilt0;
    let global_rebuilds = reg.counter("dynamic.global_rebuilds").get() - global0;
    tally.phase(&apply_phase);
    let peak = peak_heap_bytes() as f64;
    let shed = reg.counter("server.shed").get() - shed0;
    let queue_peak = reg.gauge("server.queue.peak").get();
    let updates: usize = timed_rounds.iter().map(|r| r.batch.len()).sum();
    let apply_wall: Duration = timed_rounds.iter().map(|r| r.wall).sum();
    // Median over chunks of frames, like the latency percentiles.
    let frames: Vec<(usize, f64)> = timed_rounds
        .iter()
        .map(|r| (r.batch.len(), r.wall.as_secs_f64()))
        .collect();
    let apply_ups = chunked(&frames, WINDOWS, per_second);
    rounds.extend(timed_rounds);

    // Answer check: epoch-0 answers against the initial set, then a wire
    // sample at the epoch the writes left behind.
    let mut check = Check::default();
    let ids0: Vec<SiteId> = (0..gen::WIRE_N).collect();
    check.run(&set0, &ids0, &sample);
    let mut final_reqs = QueryStream::uniform(a.seed, Stream::Probe, 1, span)
        .take(FINAL_CHECK_QUERIES)
        .into_iter();
    let final_out = closed_loop(
        addr,
        "final-check",
        vec![Box::new(move || final_reqs.next())],
        8,
        Duration::from_secs(3600),
        &Tracer::new(false),
        0,
    )?;
    tally.phase(&final_out.phase);
    let live = eng.live_set();
    let ids = eng.site_ids();
    check.run(&live, &ids, &final_out.sample);
    println!("{}", check.summary());

    let open_latency = in_send_order(vec![open.replies.clone()]);
    let (p50, p99) = (
        chunked_pct(&sat_latency, 0.50, "p50_ms")?,
        chunked_pct(&sat_latency, 0.99, "p99_ms")?,
    );
    let (open_p50, open_p99) = (
        chunked_pct(&open_latency, 0.50, "server.open_p50_ms")?,
        chunked_pct(&open_latency, 0.99, "server.open_p99_ms")?,
    );
    println!(
        "latency: saturated p50 {p50:.3}ms p99 {p99:.3}ms (n = {}); open loop at {rate} q/s p50 {open_p50:.3}ms p99 {open_p99:.3}ms (n = {})",
        sat_latency.len(),
        open_latency.len()
    );
    let mut values = vec![
        ("setup_s", median(&setups)),
        ("qps", qps),
        ("p50_ms", p50),
        ("p99_ms", p99),
        ("apply_ups", required(apply_ups, "apply_ups")?),
        ("peak_heap_mb", mb(peak)),
        (
            "heap_kb_per_query",
            kb(query_bytes) / answered.max(1) as f64,
        ),
    ];
    if a.trace {
        values.clear();
        let (live_n, tombs) = eng.live_and_tombstones();
        let engine_us = ratio(replay.wall.as_secs_f64() * 1e6, replay.queries as f64);
        values.extend(replay.layer_values());
        values.extend([
            (
                "server.request_p50_ms",
                hist_quantile(&wall_hist, 0.50) / 1e6,
            ),
            (
                "server.request_p99_ms",
                hist_quantile(&wall_hist, 0.99) / 1e6,
            ),
            ("server.open_p50_ms", open_p50),
            ("server.open_p99_ms", open_p99),
            ("server.batch_size_mean", batch_hist.mean()),
            ("server.overhead_us_per_query", 1e6 / qps - engine_us),
            ("server.shed", shed as f64),
            ("server.queue_peak", queue_peak),
            (
                "gen.late_p99_ms",
                required(open.phase.late_p99_ms, "gen.late_p99_ms")?,
            ),
            ("engine.built", warm.stats.built.len() as f64),
            ("cache.entries", eng.cache_len() as f64),
            (
                "apply.us_per_update",
                ratio(apply_wall.as_secs_f64() * 1e6, updates as f64),
            ),
            (
                "apply.sites_rebuilt_per_update",
                ratio(sites_rebuilt as f64, updates as f64),
            ),
            (
                "apply.heap_kb_per_update",
                ratio(kb(apply_bytes), updates as f64),
            ),
            ("apply.global_rebuilds", global_rebuilds as f64),
            ("apply.rebalances", eng.rebalances() as f64),
            ("shard.tombstone_frac", ratio(tombs as f64, live_n as f64)),
            ("trace.overhead_frac", 1.0 - qps / qps_of(sat[0])),
        ]);
        let dynset = replay_updates(
            &set0,
            rounds
                .iter()
                .map(|r: &ApplyRound| (&r.batch[..], &r.inserted[..])),
            &tracer,
        )?;
        let points = QueryStream::uniform(a.seed, Stream::Probe, 0, span).points(PROBE_NONZERO);
        values.extend(probe_layers(&tracer, &live, &dynset, &points));
    }
    finish(tally, check, values, tracer)
}

/// One `churn-50k` round's batch: `(queries, run_batch wall seconds)`.
type Round = (usize, f64);

/// `churn-50k`.
pub fn churn(a: &Args) -> io::Result<Outcome> {
    let tracer = Tracer::new(a.trace);
    let span = gen::churn_span();
    let set0 = gen::sites(gen::CHURN_N, span, a.seed);
    let warmup = QueryStream::uniform(a.seed, Stream::Warmup, 0, span).take(CHURN_BATCH);
    let mut tally = Tally::default();

    let mut setups = vec![];
    let mut built = None;
    for _ in 0..CHURN_SETUPS {
        drop(built.take());
        let set = set0.clone();
        let t0 = Instant::now();
        let eng = build_engine(
            EngineKind::ShardedSpatial {
                shards: CHURN_SHARDS,
            },
            set,
        );
        let warm = eng.run_batch(&warmup);
        setups.push(t0.elapsed().as_secs_f64());
        built = Some((eng, warm));
    }
    let (eng, warm): (Eng, _) = built.expect("at least one set-up");
    let mut warm_totals = BatchTotals::default();
    warm_totals.add(&warm.stats, &warm.results, warm.stats.wall);
    tally.batch(warmup.len(), warm_totals.failed);
    let mut check = Check::default();
    let ids0: Vec<SiteId> = (0..gen::CHURN_N).collect();
    check.run(
        &set0,
        &ids0,
        &sample_of(&warmup, &warm.results, CHURN_CHECK_ANSWERS),
    );
    println!(
        "setup: {CHURN_SETUPS} set-ups, median {:.4}s (n = {}, {} spatial shards, built {:?})",
        median(&setups),
        gen::CHURN_N,
        CHURN_SHARDS,
        warm.stats.built
    );

    // Timed phase: one thread alternates an apply and a run_batch.
    let mut ups = gen::updates(a.seed, span, (0..gen::CHURN_N).collect());
    let mut queries = QueryStream::uniform(a.seed, Stream::Queries, 0, span);
    let _peak_scope = heap_scope("ladderbench.timed");
    let mut totals = BatchTotals::default();
    let mut traced_totals = (0u64, Duration::ZERO, 0u64, Duration::ZERO);
    let (mut latency_ms, mut gen_ms) = (vec![], vec![]);
    let mut per_round: Vec<Round> = vec![];
    let (mut query_bytes, mut apply_bytes) = (0u64, 0u64);
    let mut check_wall = Duration::ZERO;
    let (mut updates, mut apply_wall, mut sites_rebuilt, mut global_rebuilds) =
        (0usize, Duration::ZERO, 0u64, 0u64);
    let mut rounds: Vec<ApplyRound> = vec![];
    let mut loop_phase = Phase {
        name: "churn".into(),
        ..Phase::default()
    };
    let start = Instant::now();
    let mut round = 0u64;
    let total_rounds = ((CHURN_ROUNDS_PER_SECOND * a.seconds).round() as u64).max(CHURN_MIN_ROUNDS);
    while round < total_rounds {
        let round_t0 = Instant::now();
        // In the traced run every other round is traced; comparing their
        // throughput with the untraced rounds gives the tracing overhead.
        let traced = a.trace && round.is_multiple_of(2);
        let off = Tracer::new(false);
        let tr = if traced { &tracer } else { &off };
        let root = tr.enter("round", round, 0);
        let (batch, reqs) = {
            let _s = tr.enter("gen", round, root.id());
            (ups.tick(gen::CHURN_RATE), queries.take(CHURN_BATCH))
        };
        let gen_done = Instant::now();

        let b0 = heap_counters().0;
        let t0 = Instant::now();
        let applied = {
            let _s = tr.enter("engine.apply", round, root.id());
            eng.apply(&batch)
        };
        let apply_dt = t0.elapsed();
        apply_bytes += heap_counters().0 - b0;
        apply_wall += apply_dt;
        updates += batch.len();
        sites_rebuilt += applied.sites_rebuilt;
        global_rebuilds += applied.global_rebuilds;
        loop_phase.sent += 1;
        if applied.missed > 0 {
            loop_phase.failed += 1; // the stream never names a dead id
        } else {
            loop_phase.answered += 1;
        }
        gen::observe_inserted(&mut ups, applied.inserted.clone());

        let b0 = heap_counters().0;
        let t0 = Instant::now();
        let resp = {
            let _s = tr.enter("engine.run_batch", round, root.id());
            eng.run_batch(&reqs)
        };
        let batch_dt = t0.elapsed();
        query_bytes += heap_counters().0 - b0;
        totals.add(&resp.stats, &resp.results, batch_dt);
        latency_ms.extend(std::iter::repeat_n(ms(batch_dt), reqs.len()));
        per_round.push((reqs.len(), batch_dt.as_secs_f64()));
        if a.trace {
            let t = if traced {
                (&mut traced_totals.0, &mut traced_totals.1)
            } else {
                (&mut traced_totals.2, &mut traced_totals.3)
            };
            *t.0 += reqs.len() as u64;
            *t.1 += batch_dt;
        }

        // Outside the timed calls: the answer check at this epoch.
        if round.is_multiple_of(CHURN_CHECK_EVERY) {
            let _s = tr.enter("check", round, root.id());
            let t0 = Instant::now();
            let live = eng.live_set();
            let ids = eng.site_ids();
            check.run(
                &live,
                &ids,
                &sample_of(&reqs, &resp.results, CHURN_CHECK_ANSWERS),
            );
            check_wall += t0.elapsed();
        }
        if a.trace {
            rounds.push(ApplyRound {
                batch,
                inserted: applied.inserted,
                wall: apply_dt,
            });
        }
        drop(root);
        // Every query of the round waited for the round's inputs.
        gen_ms.extend(std::iter::repeat_n(ms(gen_done - round_t0), reqs.len()));
        round += 1;
    }
    let loop_wall = start.elapsed();
    let peak = peak_heap_bytes() as f64;
    loop_phase.wall_s = loop_wall.as_secs_f64();
    tally.phase(&loop_phase);
    let query_phase = Phase {
        name: "churn-queries".into(),
        sent: totals.queries,
        answered: totals.queries - totals.failed,
        failed: totals.failed,
        wall_s: totals.wall.as_secs_f64(),
        ..Phase::default()
    };
    tally.phase(&query_phase);
    println!(
        "churn: {round} rounds, {updates} updates, {global_rebuilds} global rebuilds, {} rebalances",
        eng.rebalances()
    );
    println!("{}", check.summary());

    // Medians over windows of rounds; a query's latency is its batch's wall.
    let win = |f: &dyn Fn(&[Round]) -> Option<f64>, what: &str| {
        required(chunked(&per_round, WINDOWS, f), what)
    };
    let batch_latency = |w: &[Round], p: f64| {
        let lat: Vec<f64> = w
            .iter()
            .flat_map(|&(q, bw)| std::iter::repeat_n(bw * 1e3, q))
            .collect();
        percentile(&lat, p)
    };
    let qps = win(&per_second, "qps")?;
    let p50 = win(&|w| batch_latency(w, 0.50), "p50_ms")?;
    let p99 = win(&|w| batch_latency(w, 0.99), "p99_ms")?;
    let mut values = vec![
        ("setup_s", median(&setups)),
        ("qps", qps),
        ("p50_ms", p50),
        ("p99_ms", p99),
        ("apply_ups", ratio(updates as f64, apply_wall.as_secs_f64())),
        ("peak_heap_mb", mb(peak)),
        (
            "heap_kb_per_query",
            kb(query_bytes as f64) / totals.queries.max(1) as f64,
        ),
    ];
    if a.trace {
        values.clear();
        let (live_n, tombs) = eng.live_and_tombstones();
        // The caller's own time: the loop minus its timed calls, input
        // generation and the answer check.
        let caller_s = loop_wall.as_secs_f64()
            - totals.wall.as_secs_f64()
            - apply_wall.as_secs_f64()
            - check_wall.as_secs_f64()
            - gen_ms.iter().sum::<f64>() / 1e3 / CHURN_BATCH as f64;
        let (tq, tw, uq, uw) = traced_totals;
        values.extend(totals.layer_values());
        values.extend([
            (
                "server.request_p50_ms",
                required(percentile(&latency_ms, 0.50), "p50")?,
            ),
            (
                "server.request_p99_ms",
                required(percentile(&latency_ms, 0.99), "p99")?,
            ),
            // No open loop: the caller's fixed round pace stands in for it.
            ("server.open_p50_ms", p50),
            ("server.open_p99_ms", p99),
            ("server.batch_size_mean", CHURN_BATCH as f64),
            (
                "server.overhead_us_per_query",
                ratio(caller_s * 1e6, totals.queries as f64),
            ),
            ("server.shed", 0.0),
            ("server.queue_peak", 0.0),
            (
                "gen.late_p99_ms",
                required(percentile(&gen_ms, 0.99), "gen")?,
            ),
            ("engine.built", warm.stats.built.len() as f64),
            ("cache.entries", eng.cache_len() as f64),
            (
                "apply.us_per_update",
                ratio(apply_wall.as_secs_f64() * 1e6, updates as f64),
            ),
            (
                "apply.sites_rebuilt_per_update",
                ratio(sites_rebuilt as f64, updates as f64),
            ),
            (
                "apply.heap_kb_per_update",
                ratio(kb(apply_bytes as f64), updates as f64),
            ),
            ("apply.global_rebuilds", global_rebuilds as f64),
            ("apply.rebalances", eng.rebalances() as f64),
            ("shard.tombstone_frac", ratio(tombs as f64, live_n as f64)),
            (
                "trace.overhead_frac",
                1.0 - ratio(tq as f64, tw.as_secs_f64()) / ratio(uq as f64, uw.as_secs_f64()),
            ),
        ]);
        let dynset = replay_updates(
            &set0,
            rounds.iter().map(|r| (&r.batch[..], &r.inserted[..])),
            &tracer,
        )?;
        let live = eng.live_set();
        let points = QueryStream::uniform(a.seed, Stream::Probe, 0, span).points(PROBE_NONZERO);
        values.extend(probe_layers(&tracer, &live, &dynset, &points));
    }
    finish(tally, check, values, tracer)
}

fn finish(
    mut tally: Tally,
    check: Check,
    mut values: Vec<(&'static str, f64)>,
    tracer: Tracer,
) -> io::Result<Outcome> {
    // A mismatched answer was counted as answered by its phase; it fails
    // here instead.
    tally.failed += check.mismatches;
    let ok = 1.0 - ratio(tally.failed as f64, tally.attempted as f64);
    if !tracer.on() {
        values.push(("ok_frac", ok));
    }
    println!(
        "operations: {} attempted, {} failed (failed_frac {:.6})",
        tally.attempted,
        tally.failed,
        1.0 - ok
    );
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        mismatches: check.mismatches,
        values,
        tracer,
    })
}
