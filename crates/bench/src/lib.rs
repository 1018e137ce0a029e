//! Shared helpers for the experiment harness, the kernel bench and the
//! serving binaries.
//!
//! The paper is a theory paper: its "evaluation" is a set of theorems
//! (complexity bounds) plus explicit lower-bound constructions and one
//! illustrative figure. Each becomes an experiment (see `DESIGN.md` §5 and
//! `EXPERIMENTS.md`); this crate hosts the code that regenerates every one
//! of them.

pub mod churn;
pub mod cluster;
pub mod measure;
pub mod obs_schema;

// Let the lib's own test binary exercise the live/peak heap accounting in
// `measure` (release binaries opt in individually; see measure's docs).
#[cfg(test)]
#[global_allocator]
static TEST_ALLOC: measure::CountingAlloc = measure::CountingAlloc;

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static SMOKE: AtomicBool = AtomicBool::new(false);

/// Turns smoke mode on or off for this process (see [`smoke`]).
pub fn set_smoke(on: bool) {
    SMOKE.store(on, Ordering::Relaxed);
}

/// True when experiments and benches should shrink to token workloads that
/// still exercise every code path: enabled by `--smoke` on the
/// `experiments` and `kernel_bench` binaries (via [`set_smoke`]).
pub fn smoke() -> bool {
    SMOKE.load(Ordering::Relaxed)
}

/// Scales a workload size down (÷100, floor 8) in smoke mode.
pub fn scaled(n: usize) -> usize {
    if smoke() {
        (n / 100).max(8).min(n)
    } else {
        n
    }
}

/// Truncates a size sweep to its two smallest entries in smoke mode — two
/// rather than one so downstream [`loglog_slope`] fits still have the two
/// points they assert on.
pub fn sweep<T>(xs: &[T]) -> &[T] {
    if smoke() {
        &xs[..xs.len().min(2)]
    } else {
        xs
    }
}

/// Upper bound for a `lo..=hi` sweep: clamps to two iterations in smoke mode.
pub fn sweep_hi(lo: usize, hi: usize) -> usize {
    if smoke() {
        hi.min(lo + 1)
    } else {
        hi
    }
}

/// Least-squares slope of `log y` against `log x` — the measured growth
/// exponent for complexity sweeps (e.g. Theorem 2.5 predicts slope ≤ 3 for
/// `µ(n)`).
pub fn loglog_slope(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2);
    let pts: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .filter(|&(&x, &y)| x > 0.0 && y > 0.0)
        .map(|(&x, &y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Times a closure, returning `(result, seconds)`.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Times a closure averaged over `reps` runs (for fast operations),
/// returning seconds per run.
pub fn time_avg(reps: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// A minimal fixed-width table printer for experiment output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: vec![],
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells.to_vec());
    }

    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let body: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("| {} |", body.join(" | "));
        };
        line(&self.headers);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Formats a float compactly.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 || x.abs() < 0.001 {
        format!("{x:.2e}")
    } else {
        format!("{x:.4}")
    }
}

/// Formats seconds with a sensible unit.
pub fn fmt_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.0} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.1} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.2} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_cubic_is_three() {
        let xs: Vec<f64> = (1..=6).map(|k| (8 * k) as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 0.5 * x * x * x).collect();
        let s = loglog_slope(&xs, &ys);
        assert!((s - 3.0).abs() < 1e-9);
    }

    #[test]
    fn table_prints() {
        let mut t = Table::new(&["n", "value"]);
        t.row(&["1".into(), "2".into()]);
        t.print(); // visual smoke test
        assert_eq!(fmt(0.0), "0");
        assert!(fmt_time(2e-9).ends_with("ns"));
        assert!(fmt_time(2e-5).ends_with("µs"));
        assert!(fmt_time(2e-2).ends_with("ms"));
        assert!(fmt_time(2.0).ends_with("s"));
    }
}
