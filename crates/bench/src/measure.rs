//! Per-run measurement layer for the kernel benches: wall clock, hardware
//! cycle counter, and heap counters, aggregated into nearest-rank summary
//! statistics and emitted as the std-only `bench-kernels/v1` JSON schema
//! that `BENCH_kernels.json` (the repo's committed perf baseline) uses.
//!
//! Heap accounting needs the *binary* to install [`CountingAlloc`] as its
//! global allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: uncertain_bench::measure::CountingAlloc =
//!     uncertain_bench::measure::CountingAlloc;
//! ```
//!
//! Without it the heap fields read 0 — wall/cycle measurement still works.
//! The cycle counter is `rdtsc` on x86_64 and absent elsewhere (`cycles`
//! becomes `null` in the JSON). Everything here is std-only: no serde, no
//! external counter crates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// Bytes requested from the global allocator since process start (counts
/// `alloc`/`alloc_zeroed` sizes plus `realloc` growth; frees don't subtract
/// — this is cumulative traffic, not live footprint).
static HEAP_BYTES: AtomicU64 = AtomicU64::new(0);
/// Allocation calls since process start (same convention).
static HEAP_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Live heap footprint: allocations add, frees subtract, reallocs add the
/// signed size change. Signed because relaxed concurrent updates may be
/// observed transiently out of order.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
/// High-water mark of [`LIVE_BYTES`] (`fetch_max` after every increase).
/// [`heap_scope`] resets it to the current live footprint, making it a
/// per-scope peak for single-threaded bench bodies.
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn live_add(delta: i64) {
    let live = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    if delta > 0 {
        PEAK_BYTES.fetch_max(live.max(0) as u64, Ordering::Relaxed);
    }
}

/// A [`System`]-backed allocator that counts allocation traffic plus the
/// live/peak footprint. Install it with `#[global_allocator]` in the bench
/// binary (see module docs).
pub struct CountingAlloc;

// SAFETY: delegates every operation verbatim to `System`; the counters are
// relaxed atomics touched outside the allocation itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        HEAP_ALLOCS.fetch_add(1, Ordering::Relaxed);
        live_add(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        HEAP_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        HEAP_ALLOCS.fetch_add(1, Ordering::Relaxed);
        live_add(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_add(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        HEAP_ALLOCS.fetch_add(1, Ordering::Relaxed);
        live_add(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

/// Current `(bytes, allocs)` heap-traffic counters (0 until the binary
/// installs [`CountingAlloc`]).
pub fn heap_counters() -> (u64, u64) {
    (
        HEAP_BYTES.load(Ordering::Relaxed),
        HEAP_ALLOCS.load(Ordering::Relaxed),
    )
}

/// Current live heap footprint in bytes (0 without [`CountingAlloc`]).
pub fn live_heap_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// High-water live footprint since process start or the last
/// [`heap_scope`] reset (0 without [`CountingAlloc`]).
pub fn peak_heap_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// An open heap-accounting scope from [`heap_scope`].
pub struct HeapScope {
    name: String,
    bytes0: u64,
    allocs0: u64,
    live0: i64,
}

/// Opens a named heap scope: on drop, the scope's allocation traffic lands
/// on the registry counters `<name>.heap_bytes` / `<name>.heap_allocs`,
/// and the gauges `<name>.heap_net_bytes` (live footprint change across
/// the scope) and `<name>.heap_peak_bytes` (high-water live footprint
/// inside the scope) are set — so experiment runs report allocation
/// behavior next to their timings.
///
/// Opening the scope resets the process-wide peak to the current live
/// footprint; concurrent or nested scopes therefore see a shared peak
/// (accurate for the single-threaded top level of bench runs, best-effort
/// otherwise). All values read 0 without [`CountingAlloc`] installed.
pub fn heap_scope(name: &str) -> HeapScope {
    let (bytes0, allocs0) = heap_counters();
    let live0 = live_heap_bytes();
    PEAK_BYTES.store(live0.max(0) as u64, Ordering::Relaxed);
    HeapScope {
        name: name.to_string(),
        bytes0,
        allocs0,
        live0,
    }
}

impl Drop for HeapScope {
    fn drop(&mut self) {
        let (bytes1, allocs1) = heap_counters();
        let reg = uncertain_obs::registry();
        reg.counter(&format!("{}.heap_bytes", self.name))
            .add(bytes1.saturating_sub(self.bytes0));
        reg.counter(&format!("{}.heap_allocs", self.name))
            .add(allocs1.saturating_sub(self.allocs0));
        reg.gauge(&format!("{}.heap_net_bytes", self.name))
            .set((live_heap_bytes() - self.live0) as f64);
        reg.gauge(&format!("{}.heap_peak_bytes", self.name))
            .set(peak_heap_bytes() as f64);
    }
}

/// Reads the CPU cycle counter, `None` where no cheap one exists. `rdtsc`
/// counts reference cycles (constant-rate on every CPU this repo targets);
/// it is *not* serializing, so treat single-run deltas as noisy and lean on
/// the aggregate statistics.
#[inline]
pub fn cycle_counter() -> Option<u64> {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `rdtsc` has no preconditions; baseline x86_64 includes it.
        Some(unsafe { core::arch::x86_64::_rdtsc() })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        None
    }
}

/// Counters for one timed run of a bench body.
#[derive(Clone, Copy, Debug)]
pub struct RunMeasure {
    pub wall_ns: u64,
    /// Elapsed reference cycles; `None` off x86_64.
    pub cycles: Option<u64>,
    /// Heap bytes the run allocated (0 without [`CountingAlloc`]).
    pub heap_bytes: u64,
    /// Heap allocation calls the run made.
    pub heap_allocs: u64,
}

/// Times one call of `f` under all three counters.
pub fn measure_once(f: &mut dyn FnMut()) -> RunMeasure {
    let (b0, a0) = heap_counters();
    let c0 = cycle_counter();
    let t0 = Instant::now();
    f();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let c1 = cycle_counter();
    let (b1, a1) = heap_counters();
    RunMeasure {
        wall_ns,
        cycles: c0.zip(c1).map(|(s, e)| e.saturating_sub(s)),
        heap_bytes: b1 - b0,
        heap_allocs: a1 - a0,
    }
}

/// Runs `f` once untimed (warm-up), then `reps` timed runs.
pub fn measure_reps(reps: usize, mut f: impl FnMut()) -> Vec<RunMeasure> {
    f();
    (0..reps).map(|_| measure_once(&mut f)).collect()
}

/// Nearest-rank summary of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub mean: f64,
    pub median: f64,
    pub p95: f64,
}

fn pick_sorted(sorted: &[f64], p: f64) -> f64 {
    // Snap `p·n` to the integer it mathematically equals before `ceil`:
    // 0.95 × 20 and 0.07 × 100 land an ulp high in f64, and a bare `ceil`
    // then overshoots the nearest rank by one.
    let exact = p * sorted.len() as f64;
    let nearest = exact.round();
    let rank = if (exact - nearest).abs() <= 1e-9 * nearest.max(1.0) {
        nearest
    } else {
        exact.ceil()
    };
    sorted[(rank as usize).clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile (`p ∈ (0, 1]`) of a nonempty sample set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty());
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    pick_sorted(&sorted, p)
}

/// Summarizes a nonempty sample set (nearest-rank percentiles).
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty());
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Summary {
        min: sorted[0],
        mean: samples.iter().sum::<f64>() / samples.len() as f64,
        median: pick_sorted(&sorted, 0.50),
        p95: pick_sorted(&sorted, 0.95),
    }
}

/// One (kernel, variant, n) cell of the report.
#[derive(Clone, Debug)]
pub struct KernelReport {
    /// Kernel under test, e.g. `"disk_filter_leaf"`.
    pub name: String,
    /// `"scalar"` or `"soa"`.
    pub variant: String,
    /// Elements one run processes.
    pub n: usize,
    pub reps: usize,
    /// Wall time per run, nanoseconds.
    pub wall_ns: Summary,
    /// Reference cycles per run; `None` off x86_64.
    pub cycles: Option<Summary>,
    /// Mean heap bytes allocated per run.
    pub heap_bytes_per_rep: f64,
    /// Mean heap allocation calls per run.
    pub heap_allocs_per_rep: f64,
}

impl KernelReport {
    /// Aggregates raw runs into a report cell.
    pub fn from_runs(name: &str, variant: &str, n: usize, runs: &[RunMeasure]) -> Self {
        let wall: Vec<f64> = runs.iter().map(|r| r.wall_ns as f64).collect();
        let cycles: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.cycles)
            .map(|c| c as f64)
            .collect();
        let k = runs.len() as f64;
        KernelReport {
            name: name.into(),
            variant: variant.into(),
            n,
            reps: runs.len(),
            wall_ns: summarize(&wall),
            cycles: (cycles.len() == runs.len()).then(|| summarize(&cycles)),
            heap_bytes_per_rep: runs.iter().map(|r| r.heap_bytes as f64).sum::<f64>() / k,
            heap_allocs_per_rep: runs.iter().map(|r| r.heap_allocs as f64).sum::<f64>() / k,
        }
    }

    /// Elements per second at the median wall time.
    pub fn elements_per_sec(&self) -> f64 {
        if self.wall_ns.median <= 0.0 {
            0.0
        } else {
            self.n as f64 / (self.wall_ns.median * 1e-9)
        }
    }
}

/// One scalar-over-SoA speedup ratio (median wall over median wall; > 1
/// means the SoA kernel is faster).
#[derive(Clone, Debug, PartialEq)]
pub struct Speedup {
    pub kernel: String,
    pub n: usize,
    pub scalar_over_soa: f64,
}

/// The whole `bench-kernels/v1` document.
#[derive(Clone, Debug)]
pub struct BenchDoc {
    /// Unix seconds the run started.
    pub created_unix: u64,
    /// Whether the run was a smoke run (few reps; ratios noisy).
    pub smoke: bool,
    pub kernels: Vec<KernelReport>,
    pub speedups: Vec<Speedup>,
}

impl BenchDoc {
    /// Derives the speedup table from `kernels`: for every (name, n) with
    /// both variants present, median scalar wall / median SoA wall.
    pub fn compute_speedups(&mut self) {
        self.speedups.clear();
        for k in &self.kernels {
            if k.variant != "soa" {
                continue;
            }
            let scalar = self
                .kernels
                .iter()
                .find(|s| s.variant == "scalar" && s.name == k.name && s.n == k.n);
            if let Some(s) = scalar {
                if k.wall_ns.median > 0.0 {
                    self.speedups.push(Speedup {
                        kernel: k.name.clone(),
                        n: k.n,
                        scalar_over_soa: s.wall_ns.median / k.wall_ns.median,
                    });
                }
            }
        }
    }

    /// Serializes the document (hand-rolled std-only JSON; keep
    /// [`parse_speedups`] in sync with the exact `speedups` formatting).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"bench-kernels/v1\",\n");
        out.push_str(&format!("  \"created_unix\": {},\n", self.created_unix));
        out.push_str(&format!(
            "  \"host\": {{\"arch\": \"{}\", \"os\": \"{}\", \"smoke\": {}}},\n",
            std::env::consts::ARCH,
            std::env::consts::OS,
            self.smoke
        ));
        out.push_str("  \"kernels\": [\n");
        for (i, k) in self.kernels.iter().enumerate() {
            let cycles = match &k.cycles {
                Some(c) => summary_json(c, 1),
                None => "null".into(),
            };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"variant\": \"{}\", \"n\": {}, \"reps\": {}, \
                 \"wall_ns\": {}, \"cycles\": {}, \
                 \"heap\": {{\"bytes_per_rep\": {}, \"allocs_per_rep\": {}}}, \
                 \"elements_per_sec\": {}}}{}\n",
                k.name,
                k.variant,
                k.n,
                k.reps,
                summary_json(&k.wall_ns, 1),
                cycles,
                json_f64(k.heap_bytes_per_rep),
                json_f64(k.heap_allocs_per_rep),
                json_f64(k.elements_per_sec()),
                if i + 1 < self.kernels.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"speedups\": [\n");
        for (i, s) in self.speedups.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"kernel\": \"{}\", \"n\": {}, \"scalar_over_soa\": {}}}{}\n",
                s.kernel,
                s.n,
                json_f64(s.scalar_over_soa),
                if i + 1 < self.speedups.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn summary_json(s: &Summary, decimals: usize) -> String {
    format!(
        "{{\"min\": {:.d$}, \"mean\": {:.d$}, \"median\": {:.d$}, \"p95\": {:.d$}}}",
        s.min,
        s.mean,
        s.median,
        s.p95,
        d = decimals
    )
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".into()
    }
}

/// Extracts the `speedups` entries from a `bench-kernels/v1` document.
/// Not a general JSON parser — it scans for the exact object layout
/// [`BenchDoc::to_json`] emits, which is all the `--check` baseline
/// comparison needs.
pub fn parse_speedups(json: &str) -> Vec<Speedup> {
    let mut out = vec![];
    for chunk in json.split("{\"kernel\": \"").skip(1) {
        let Some(kernel) = chunk.split('"').next() else {
            continue;
        };
        let field = |key: &str| -> Option<f64> {
            let rest = chunk.split(&format!("\"{key}\": ")).nth(1)?;
            let num: String = rest
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
                .collect();
            num.parse().ok()
        };
        if let (Some(n), Some(ratio)) = (field("n"), field("scalar_over_soa")) {
            out.push(Speedup {
                kernel: kernel.to_string(),
                n: n as usize,
                scalar_over_soa: ratio,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_nearest_rank() {
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.p95, 5.0);
        // p95 ≥ median on tiny samples too.
        for n in 1..20usize {
            let xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let s = summarize(&xs);
            assert!(s.p95 >= s.median, "n = {n}");
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&xs, 0.50), 5.0);
        assert_eq!(percentile(&xs, 0.95), 10.0);
        assert_eq!(percentile(&xs, 1.0), 10.0);
        assert_eq!(percentile(&[3.5], 0.5), 3.5);
        assert_eq!(percentile(&[3.5], 0.95), 3.5);
    }

    #[test]
    fn percentile_snaps_fp_noise_before_ceil() {
        // 0.07 × 100 evaluates to 7.000000000000001 in f64; naive ceil
        // reads rank 8 where nearest-rank says 7.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.07), 7.0);
        // Sweep every integer percent over several sizes against the
        // integer-arithmetic ground truth ⌈p·n⌉ computed exactly.
        for n in [1usize, 2, 3, 10, 19, 100, 997] {
            let xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            for pct in 1..=100u32 {
                let rank = (pct as usize * n).div_ceil(100).max(1);
                assert_eq!(
                    percentile(&xs, pct as f64 / 100.0),
                    rank as f64,
                    "p = {pct}%, n = {n}"
                );
            }
        }
    }

    #[test]
    fn percentile_tiny_samples() {
        // n = 1: every percentile is the sample.
        for p in [0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(percentile(&[42.0], p), 42.0);
        }
        // n = 2: median is the first element (⌈0.5·2⌉ = 1), p95 the second.
        assert_eq!(percentile(&[1.0, 9.0], 0.50), 1.0);
        assert_eq!(percentile(&[1.0, 9.0], 0.95), 9.0);
    }

    /// Serializes the tests that read or reset the process-wide live/peak
    /// counters ([`heap_scope`] resets the peak). Sibling tests on other
    /// threads still allocate concurrently, so assertions keep margins far
    /// above their traffic.
    static HEAP_COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn heap_counters_lock() -> std::sync::MutexGuard<'static, ()> {
        HEAP_COUNTERS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn heap_scope_records_registry_metrics() {
        let _serial = heap_counters_lock();
        // The lib test binary installs CountingAlloc (see crate root), so
        // live/peak accounting is active here. As in
        // `live_and_peak_track_alloc_dealloc`: a 64 MiB block (zeroed pages,
        // never touched) dwarfs whatever sibling test threads allocate or
        // free meanwhile, and every margin is half the block.
        const BLOCK: usize = 1 << 26;
        let live0 = live_heap_bytes();
        {
            let _scope = heap_scope("test.measure.scope");
            let v = vec![0u8; BLOCK];
            std::hint::black_box(&v);
            assert!(peak_heap_bytes() >= (live0 + BLOCK as i64 / 2).max(0) as u64);
        }
        let reg = uncertain_obs::registry();
        let bytes = reg.counter("test.measure.scope.heap_bytes").get();
        assert!(
            bytes >= BLOCK as u64,
            "scope traffic recorded (got {bytes})"
        );
        assert!(reg.counter("test.measure.scope.heap_allocs").get() >= 1);
        let snap = uncertain_obs::MetricsSnapshot::capture();
        let peak = snap
            .gauges
            .iter()
            .find(|(n, _)| *n == "test.measure.scope.heap_peak_bytes")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(peak >= (BLOCK / 2) as f64);
        // The block was dropped inside the scope: the net change is far
        // below half a block, however sibling threads moved meanwhile.
        let net = snap
            .gauges
            .iter()
            .find(|(n, _)| *n == "test.measure.scope.heap_net_bytes")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(net < (BLOCK / 2) as f64, "net {net} after the block's drop");
    }

    #[test]
    fn live_and_peak_track_alloc_dealloc() {
        let _serial = heap_counters_lock();
        // 64 MiB (zeroed pages, never touched): far more than any sibling
        // test allocates or frees meanwhile, so their traffic cannot mask
        // the block's arrival or departure. Margins are half the block.
        const BLOCK: i64 = 1 << 26;
        let before = live_heap_bytes();
        let v = vec![0u8; BLOCK as usize];
        let during = live_heap_bytes();
        assert!(during >= before + BLOCK / 2);
        assert!(peak_heap_bytes() >= (before + BLOCK / 2).max(0) as u64);
        drop(v);
        assert!(live_heap_bytes() < during - BLOCK / 2);
    }

    #[test]
    fn measure_reps_counts_runs() {
        let mut hits = 0usize;
        let runs = measure_reps(5, || hits += 1);
        assert_eq!(runs.len(), 5);
        assert_eq!(hits, 6); // warm-up + 5 timed
        #[cfg(target_arch = "x86_64")]
        assert!(runs.iter().all(|r| r.cycles.is_some()));
    }

    #[test]
    fn doc_roundtrips_speedups_through_json() {
        let runs = measure_reps(3, || {
            std::hint::black_box((0..100).sum::<u64>());
        });
        let mut doc = BenchDoc {
            created_unix: 1_700_000_000,
            smoke: true,
            kernels: vec![
                KernelReport::from_runs("disk_filter_leaf", "scalar", 4096, &runs),
                KernelReport::from_runs("disk_filter_leaf", "soa", 4096, &runs),
            ],
            speedups: vec![],
        };
        doc.compute_speedups();
        assert_eq!(doc.speedups.len(), 1);
        let json = doc.to_json();
        assert!(json.contains("\"schema\": \"bench-kernels/v1\""));
        let parsed = parse_speedups(&json);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].kernel, "disk_filter_leaf");
        assert_eq!(parsed[0].n, 4096);
        assert!((parsed[0].scalar_over_soa - doc.speedups[0].scalar_over_soa).abs() < 1e-3);
    }
}
