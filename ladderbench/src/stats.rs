//! Sample statistics for reported timings.

use uncertain_obs::{bucket_upper, HistSnapshot, HIST_BUCKETS};

/// Fewest samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-percentile of `samples` (`p ∈ (0, 1]`), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it — a tail estimate
/// resting on a handful of samples is noise, not a measurement.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = nearest_rank(p, n);
    if n == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Some(sorted[rank - 1])
}

/// `⌈p·n⌉` in `1..=n`, with `p·n` snapped to the integer it equals
/// mathematically first (`0.99 × 100` lands an ulp off 99 in f64).
fn nearest_rank(p: f64, n: usize) -> usize {
    let exact = p * n as f64;
    let rank = if (exact - exact.round()).abs() <= 1e-9 * exact.max(1.0) {
        exact.round()
    } else {
        exact.ceil()
    };
    (rank as usize).clamp(1, n.max(1))
}

/// Windows a closed-loop phase and `churn-50k`'s rounds are cut into.
pub const WINDOWS: usize = 5;

/// Requests per chunk of an open-loop phase's latencies: the fewest that
/// let a p99 have ten samples beyond it.
pub const LATENCY_CHUNK: usize = 1000;

/// Cuts `samples` into `chunks` consecutive, near-equal runs, applies `f`
/// to each and returns the median of the results (`None` if `f` is `None`
/// for any run, or there are fewer samples than runs). A burst of noise
/// from a shared machine then moves a few runs, not the reported figure.
pub fn chunked<T>(samples: &[T], chunks: usize, f: impl Fn(&[T]) -> Option<f64>) -> Option<f64> {
    if chunks == 0 || samples.len() < chunks {
        return None;
    }
    let results: Option<Vec<f64>> = (0..chunks)
        .map(|c| f(&samples[c * samples.len() / chunks..(c + 1) * samples.len() / chunks]))
        .collect();
    Some(median(&results?))
}

/// Median of a nonempty sample (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted[(sorted.len() - 1) / 2]
}

/// The `p`-quantile of a log₂ histogram, interpolated linearly inside the
/// bucket that holds it (the registry's own quantile reports the bucket's
/// upper edge, a value that barely moves between runs).
pub fn hist_quantile(h: &HistSnapshot, p: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let rank = nearest_rank(p, n as usize) as f64;
    let mut seen = 0.0;
    for b in 0..HIST_BUCKETS {
        let c = h.buckets[b] as f64;
        if c > 0.0 && seen + c >= rank {
            let (lo, hi) = if b == 0 {
                (0.0, 0.0)
            } else {
                ((1u64 << (b - 1)) as f64, bucket_upper(b) as f64)
            };
            return lo + (hi - lo) * (rank - seen) / c;
        }
        seen += c;
    }
    bucket_upper(HIST_BUCKETS - 1) as f64
}
