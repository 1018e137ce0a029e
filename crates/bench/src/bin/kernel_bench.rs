//! Kernel micro-benchmarks backing `BENCH_kernels.json`, the repo's
//! committed perf baseline: the SoA chunked-lane distance kernels
//! (`uncertain_spatial::soa`) against their scalar reference forms, under
//! wall/cycle/heap counters (see `uncertain_bench::measure`).
//!
//! Two kernels the kd-tree leaves run are measured at several sizes:
//!
//! * `disk_filter_leaf` — the in-disk filter `KdTree::range_rec` runs on
//!   every visited leaf (the Theorem 3.2 stage-2 range report and the
//!   merged quantification's radius collect), called over consecutive
//!   [`LEAF_SIZE`]-point ranges covering the slab.
//! * `dist_all` — the distance fill behind `nearest_iter` leaves (spiral
//!   search) and the static Eq. (2) oracle's entry assembly (chunked lanes
//!   vs one `Point::dist` per location).
//!
//! Usage: `kernel_bench [--smoke] [--out PATH] [--check BASELINE]
//! [--overhead-check]`
//!
//! `--smoke` drops to a few reps per cell — enough for CI to exercise every
//! kernel and emit a schema-valid artifact, too noisy for real ratios.
//! `--out` writes the JSON document. `--check` compares this run's
//! scalar-over-SoA speedups against a baseline document with a generous
//! tolerance (ratios, not absolute times, so it holds across machines) and
//! exits nonzero on a gross regression or on a baseline row this run did
//! not measure. `--overhead-check` measures the per-invocation cost of the
//! kernels' registry instrumentation against the fastest measured kernel
//! and fails above 5%.

use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uncertain_bench::measure::{
    measure_reps, parse_speedups, BenchDoc, CountingAlloc, KernelReport, Speedup,
};
use uncertain_geom::Point;
use uncertain_spatial::kdtree::LEAF_SIZE;
use uncertain_spatial::PointSlab;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A run's speedup may sit this factor below the baseline's before the
/// check fails — generous on purpose: CI machines are noisy and smoke runs
/// take few samples. The check catches "the SoA path silently became 10×
/// slower", not percent-level drift.
const CHECK_TOLERANCE: f64 = 4.0;

const SIZES: [usize; 3] = [1024, 4096, 16384];

fn main() -> ExitCode {
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut overhead_check = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--smoke" => uncertain_bench::set_smoke(true),
            "--out" => out_path = argv.next(),
            "--check" => check_path = argv.next(),
            "--overhead-check" => overhead_check = true,
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let smoke = uncertain_bench::smoke();
    let reps = if smoke { 5 } else { 400 };

    let mut doc = BenchDoc {
        created_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        smoke,
        kernels: vec![],
        speedups: vec![],
    };

    for &n in &SIZES {
        let (slab, q, r) = workload(n);
        bench_pair(&mut doc, "disk_filter_leaf", n, reps, {
            let slab = &slab;
            move |soa| {
                let mut acc = 0.0f64;
                for start in (0..n).step_by(LEAF_SIZE) {
                    let end = (start + LEAF_SIZE).min(n);
                    if soa {
                        slab.for_each_in_disk_in_range(start, end, q, r, |_, d| acc += d);
                    } else {
                        slab.for_each_in_disk_in_range_scalar(start, end, q, r, |_, d| acc += d);
                    }
                }
                std::hint::black_box(acc);
            }
        });
        let mut dists = Vec::with_capacity(n);
        bench_pair(&mut doc, "dist_all", n, reps, {
            let (slab, dists) = (&slab, &mut dists);
            move |soa| {
                if soa {
                    slab.dist_all_into(q, dists);
                } else {
                    slab.dist_all_into_scalar(q, dists);
                }
                std::hint::black_box(dists.last().copied());
            }
        });
    }
    doc.compute_speedups();

    for k in &doc.kernels {
        println!(
            "{:<20} {:<7} n={:<6} median {:>10.1} ns  ({:.2} Melem/s)",
            k.name,
            k.variant,
            k.n,
            k.wall_ns.median,
            k.elements_per_sec() / 1e6
        );
    }
    for s in &doc.speedups {
        println!(
            "speedup {:<20} n={:<6} scalar/soa = {:.2}x",
            s.kernel, s.n, s.scalar_over_soa
        );
    }

    let json = doc.to_json();
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    if let Some(path) = check_path {
        let baseline = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("failed to read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if !check_against(&doc, &parse_speedups(&baseline)) {
            return ExitCode::FAILURE;
        }
        println!("baseline check passed (tolerance {CHECK_TOLERANCE}x)");
    }

    if overhead_check && !overhead_check_passes(&doc) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Acceptance gate for the observability layer: the SoA kernels record
/// into the process-global registry **once per invocation** (two relaxed
/// counter adds; see `uncertain_spatial::soa::KernelStats`), so the
/// relative overhead is the measured cost of one such record against the
/// fastest measured SoA kernel cell — the worst case. Fails above 5%.
fn overhead_check_passes(doc: &BenchDoc) -> bool {
    let probe = uncertain_obs::registry().counter("bench.overhead.probe");
    let reps: u64 = 1_000_000;
    let t0 = std::time::Instant::now();
    for i in 0..reps {
        // The same shape as KernelStats::record(lane, scalar).
        probe.add(i & 1);
        probe.add(1);
    }
    let per_record_ns = t0.elapsed().as_nanos() as f64 / reps as f64;
    let fastest = doc
        .kernels
        .iter()
        .filter(|k| k.variant == "soa")
        .map(|k| k.wall_ns.median)
        .fold(f64::INFINITY, f64::min);
    if !fastest.is_finite() || fastest <= 0.0 {
        eprintln!("overhead check: no SoA kernel cells measured");
        return false;
    }
    let frac = per_record_ns / fastest;
    println!(
        "instrumentation overhead: {per_record_ns:.2} ns/record vs fastest SoA cell \
         {fastest:.1} ns = {:.3}% (limit 5%)",
        100.0 * frac
    );
    if frac > 0.05 {
        eprintln!("OVERHEAD: instrumentation costs {:.3}% > 5%", 100.0 * frac);
        return false;
    }
    true
}

/// Random workload for size `n`: points uniform in a square, query at the
/// center, radius catching roughly half the points.
fn workload(n: usize) -> (PointSlab, Point, f64) {
    let mut rng = StdRng::seed_from_u64(0x5eed ^ n as u64);
    let mut slab = PointSlab::with_capacity(n);
    for _ in 0..n {
        slab.push(Point::new(
            rng.gen_range(-50.0..50.0),
            rng.gen_range(-50.0..50.0),
        ));
    }
    (slab, Point::new(0.0, 0.0), 40.0)
}

/// Benches the scalar and SoA variants of one kernel at one size.
fn bench_pair(doc: &mut BenchDoc, name: &str, n: usize, reps: usize, mut body: impl FnMut(bool)) {
    for (variant, soa) in [("scalar", false), ("soa", true)] {
        let runs = measure_reps(reps, || body(soa));
        doc.kernels
            .push(KernelReport::from_runs(name, variant, n, &runs));
    }
}

/// Every baseline (kernel, n) must be measured by this run and must not
/// have regressed by more than [`CHECK_TOLERANCE`]. A baseline row the run
/// lacks fails the check: `SIZES` is fixed and smoke runs measure the same
/// cells, so a missing row means a kernel was renamed or dropped without
/// regenerating the baseline.
fn check_against(doc: &BenchDoc, baseline: &[Speedup]) -> bool {
    let mut ok = true;
    for b in baseline {
        match doc
            .speedups
            .iter()
            .find(|s| s.kernel == b.kernel && s.n == b.n)
        {
            Some(cur) if cur.scalar_over_soa * CHECK_TOLERANCE < b.scalar_over_soa => {
                eprintln!(
                    "REGRESSION {} n={}: speedup {:.2}x vs baseline {:.2}x (tolerance {}x)",
                    b.kernel, b.n, cur.scalar_over_soa, b.scalar_over_soa, CHECK_TOLERANCE
                );
                ok = false;
            }
            Some(_) => {}
            None => {
                eprintln!("MISSING {} n={}: baseline row not measured", b.kernel, b.n);
                ok = false;
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc_with(speedups: &[(&str, usize, f64)]) -> BenchDoc {
        BenchDoc {
            created_unix: 0,
            smoke: true,
            kernels: vec![],
            speedups: speedups
                .iter()
                .map(|&(kernel, n, scalar_over_soa)| Speedup {
                    kernel: kernel.into(),
                    n,
                    scalar_over_soa,
                })
                .collect(),
        }
    }

    #[test]
    fn check_requires_every_baseline_row() {
        let baseline =
            doc_with(&[("dist_all", 1024, 1.0), ("disk_filter_leaf", 1024, 2.0)]).speedups;
        let matching = doc_with(&[("dist_all", 1024, 1.1), ("disk_filter_leaf", 1024, 1.9)]);
        assert!(check_against(&matching, &baseline));
        // A renamed kernel leaves its baseline row unmeasured: that fails.
        let renamed = doc_with(&[("dist_all", 1024, 1.1), ("disk_filter_new", 1024, 1.9)]);
        assert!(!check_against(&renamed, &baseline));
        // So does a gross ratio regression.
        let slow = doc_with(&[("dist_all", 1024, 1.1), ("disk_filter_leaf", 1024, 0.4)]);
        assert!(!check_against(&slow, &baseline));
    }
}
