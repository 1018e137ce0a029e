//! Structure-of-arrays distance kernels.
//!
//! The two hot loops behind every query family — the Theorem 3.2 stage-2
//! range scan and the Eq. (2) sweep's distance-evaluation pass — spend their
//! time computing `‖q − p‖` over many points. Stored as an array of
//! `(Point, u32)` structs those loops defeat autovectorization (strided
//! loads, a payload dragged through every iteration, a branch per element).
//! This module provides the flat alternative:
//!
//! * [`PointSlab`] — parallel `x[]` / `y[]` coordinate arrays ("structure of
//!   arrays"), so a distance pass reads two contiguous f64 streams.
//! * Chunked-lane kernels ([`PointSlab::dist_range_into`],
//!   [`PointSlab::for_each_in_disk_in_range`]) that process [`LANES`] points
//!   per step with branch-free hit masks. They are written in plain `std`
//!   Rust in the shape LLVM reliably autovectorizes (fixed-width inner
//!   loops over slices, no early exits, mask accumulation instead of
//!   per-element branches); `std::simd` is nightly-only and this workspace
//!   builds on stable, so no explicit-SIMD feature is wired up.
//!
//! Both run on kd-tree leaves of at most [`crate::kdtree::LEAF_SIZE`]
//! points: range reporting filters each visited leaf with
//! `for_each_in_disk_in_range` (callers such as the dynamic layer's buckets
//! test liveness per hit), and nearest-neighbor iteration fills leaf
//! distances with `dist_range_into`. `dist_all_into` is the same fill over
//! a whole slab.
//!
//! # Exactness contract
//!
//! Every kernel evaluates the *same* per-element expression as
//! [`Point::dist`]: `dx = qx − x; dy = qy − y; (dx·dx + dy·dy).sqrt()`.
//! IEEE 754 arithmetic is deterministic per element and the kernels never
//! reassociate across elements (no horizontal sums), so chunked and scalar
//! evaluation produce **bit-identical** distances, and `d <= r` filtering
//! admits exactly the same index sets in the same (ascending-index) order.
//! Only this f64 filter phase is vectorized — ordering and comparison
//! *decisions* downstream stay on the adaptive exact predicates
//! (`uncertain_geom::predicates`), so the refactor cannot change any answer.
//!
//! Each chunked kernel has a `_scalar` reference twin (the naive
//! branch-per-element loop) used by the differential tests and the kernel
//! bench; both sides tally into the process-global [`KernelStats`]
//! counters so `ExecStats` can report what fraction of distance work ran
//! through the lane kernels.

use uncertain_geom::Point;

/// Chunk width of the lane kernels, in f64 elements.
///
/// Four doubles = one AVX2 register (or two SSE2 / NEON registers); LLVM
/// turns the fixed-width inner loops into packed `sub/mul/add/sqrt` at every
/// x86-64 baseline this workspace targets. The value is a compile-time
/// constant so the remainder loop is at most `LANES - 1` elements.
pub const LANES: usize = 4;

// ---------------------------------------------------------------------------
// Kernel statistics
// ---------------------------------------------------------------------------

/// Registry handle for the lane-distance counter (resolved once; the
/// counters live in the `uncertain_obs` registry so they share the
/// snapshot/export path with every other layer's metrics).
#[inline]
fn lane_dists_counter() -> &'static uncertain_obs::Counter {
    uncertain_obs::counter!("spatial.kernel.lane_dists")
}

/// Registry handle for the scalar-distance counter (resolved once).
#[inline]
fn scalar_dists_counter() -> &'static uncertain_obs::Counter {
    uncertain_obs::counter!("spatial.kernel.scalar_dists")
}

/// Cumulative counts of distance evaluations across every SoA kernel in the
/// process, split by path. Counters are monotone; diff two snapshots with
/// [`KernelStats::since`] to measure one workload (the same pattern as
/// `uncertain_geom::predicates::PredicateStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Distances evaluated inside full [`LANES`]-wide chunks.
    pub lane_dists: u64,
    /// Distances evaluated one at a time (chunk remainders and the
    /// `_scalar` reference kernels).
    pub scalar_dists: u64,
}

impl KernelStats {
    /// Total distance evaluations recorded.
    pub fn total(&self) -> u64 {
        self.lane_dists + self.scalar_dists
    }

    /// Fraction of evaluations that ran in full-width chunks; `0.0` when no
    /// evaluations ran (an empty window reports no lane work, not full
    /// coverage).
    pub fn lane_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.lane_dists as f64 / self.total() as f64
        }
    }

    /// Counts accumulated since the `earlier` snapshot (saturating, so a
    /// stale snapshot can never underflow).
    pub fn since(&self, earlier: &KernelStats) -> KernelStats {
        KernelStats {
            lane_dists: self.lane_dists.saturating_sub(earlier.lane_dists),
            scalar_dists: self.scalar_dists.saturating_sub(earlier.scalar_dists),
        }
    }
}

/// Snapshot of the process-global kernel counters. Concurrent kernel calls
/// from other threads are included — diff snapshots around a single-threaded
/// region (or accept the aggregate) accordingly.
pub fn kernel_stats() -> KernelStats {
    KernelStats {
        lane_dists: lane_dists_counter().get(),
        scalar_dists: scalar_dists_counter().get(),
    }
}

/// Resets the global counters to zero (single-threaded harnesses only).
pub fn reset_kernel_stats() {
    lane_dists_counter().reset();
    scalar_dists_counter().reset();
}

#[inline]
fn record(lane: u64, scalar: u64) {
    if lane > 0 {
        lane_dists_counter().add(lane);
    }
    if scalar > 0 {
        scalar_dists_counter().add(scalar);
    }
}

/// The one distance expression every kernel (and [`Point::dist`]) computes.
#[inline(always)]
fn dist_xy(qx: f64, qy: f64, x: f64, y: f64) -> f64 {
    let dx = qx - x;
    let dy = qy - y;
    (dx * dx + dy * dy).sqrt()
}

/// Tests bit `i` of a `u64` bitmap (little-endian within each word:
/// index `i` lives at `bitmap[i >> 6]` bit `i & 63`).
#[inline(always)]
pub fn bitmap_get(bitmap: &[u64], i: usize) -> bool {
    bitmap[i >> 6] & (1u64 << (i & 63)) != 0
}

/// Allocates an all-`live` bitmap covering `n` indices (trailing bits of the
/// last word are zero so popcounts stay honest).
pub fn bitmap_filled(n: usize, live: bool) -> Vec<u64> {
    let words = n.div_ceil(64);
    let mut v = vec![if live { u64::MAX } else { 0 }; words];
    if live && !n.is_multiple_of(64) {
        if let Some(last) = v.last_mut() {
            *last = (1u64 << (n % 64)) - 1;
        }
    }
    v
}

// ---------------------------------------------------------------------------
// PointSlab
// ---------------------------------------------------------------------------

/// Flat structure-of-arrays point storage: `xs[i]`/`ys[i]` are the
/// coordinates of point `i`. Payloads (ids, weights, owners) live in
/// parallel arrays owned by the caller, keyed by the same index.
#[derive(Clone, Debug, Default)]
pub struct PointSlab {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl PointSlab {
    pub fn new() -> Self {
        PointSlab::default()
    }

    pub fn with_capacity(n: usize) -> Self {
        PointSlab {
            xs: Vec::with_capacity(n),
            ys: Vec::with_capacity(n),
        }
    }

    pub fn from_points<I: IntoIterator<Item = Point>>(points: I) -> Self {
        let iter = points.into_iter();
        let mut slab = PointSlab::with_capacity(iter.size_hint().0);
        for p in iter {
            slab.push(p);
        }
        slab
    }

    #[inline]
    pub fn push(&mut self, p: Point) {
        self.xs.push(p.x);
        self.ys.push(p.y);
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    pub fn clear(&mut self) {
        self.xs.clear();
        self.ys.clear();
    }

    /// The point at index `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Point {
        Point::new(self.xs[i], self.ys[i])
    }

    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    // -- distance fill ------------------------------------------------------

    /// Writes `‖q − p_i‖` for `i ∈ [start, end)` into `out` (which must have
    /// length `end - start`). Chunked-lane evaluation; bit-identical to
    /// calling [`Point::dist`] per element.
    pub fn dist_range_into(&self, start: usize, end: usize, q: Point, out: &mut [f64]) {
        let xs = &self.xs[start..end];
        let ys = &self.ys[start..end];
        assert_eq!(out.len(), xs.len());
        let n = xs.len();
        let chunks = n / LANES;
        for c in 0..chunks {
            let base = c * LANES;
            // Fixed-width inner loop over contiguous slices: LLVM emits
            // packed sub/mul/add/sqrt here.
            for l in 0..LANES {
                out[base + l] = dist_xy(q.x, q.y, xs[base + l], ys[base + l]);
            }
        }
        for i in chunks * LANES..n {
            out[i] = dist_xy(q.x, q.y, xs[i], ys[i]);
        }
        record((chunks * LANES) as u64, (n - chunks * LANES) as u64);
    }

    /// [`Self::dist_range_into`] over the whole slab, resizing `out`.
    pub fn dist_all_into(&self, q: Point, out: &mut Vec<f64>) {
        out.resize(self.len(), 0.0);
        self.dist_range_into(0, self.len(), q, out);
    }

    /// Scalar reference for [`Self::dist_all_into`]: the naive per-element
    /// loop the chunked kernel must match bit for bit.
    pub fn dist_all_into_scalar(&self, q: Point, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            self.xs
                .iter()
                .zip(&self.ys)
                .map(|(&x, &y)| q.dist(Point::new(x, y))),
        );
        record(0, self.len() as u64);
    }

    // -- in-disk filtering --------------------------------------------------

    /// Calls `f(i, dist_i)` for every `i ∈ [start, end)` with
    /// `‖q − p_i‖ <= r`, in ascending index order. Distances are evaluated
    /// in chunks and hits extracted from a branch-free comparison mask.
    pub fn for_each_in_disk_in_range<F: FnMut(usize, f64)>(
        &self,
        start: usize,
        end: usize,
        q: Point,
        r: f64,
        mut f: F,
    ) {
        let xs = &self.xs[start..end];
        let ys = &self.ys[start..end];
        let n = xs.len();
        let chunks = n / LANES;
        for c in 0..chunks {
            let base = c * LANES;
            let mut d = [0.0f64; LANES];
            let mut mask = 0u32;
            for l in 0..LANES {
                d[l] = dist_xy(q.x, q.y, xs[base + l], ys[base + l]);
            }
            for (l, &dl) in d.iter().enumerate() {
                mask |= ((dl <= r) as u32) << l;
            }
            while mask != 0 {
                let l = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                f(start + base + l, d[l]);
            }
        }
        for i in chunks * LANES..n {
            let d = dist_xy(q.x, q.y, xs[i], ys[i]);
            if d <= r {
                f(start + i, d);
            }
        }
        record((chunks * LANES) as u64, (n - chunks * LANES) as u64);
    }

    /// Scalar reference for [`Self::for_each_in_disk_in_range`].
    pub fn for_each_in_disk_in_range_scalar<F: FnMut(usize, f64)>(
        &self,
        start: usize,
        end: usize,
        q: Point,
        r: f64,
        mut f: F,
    ) {
        for i in start..end {
            let d = q.dist(self.get(i));
            if d <= r {
                f(i, d);
            }
        }
        record(0, (end - start) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slab_of(n: usize, seed: u64) -> PointSlab {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0 - 50.0
        };
        PointSlab::from_points((0..n).map(|_| Point::new(next(), next())))
    }

    #[test]
    fn dist_kernels_bit_identical_to_point_dist() {
        for n in [0, 1, 3, 4, 7, 8, 64, 257] {
            let slab = slab_of(n, 42);
            let q = Point::new(3.25, -11.5);
            let mut lanes = vec![];
            let mut scalar = vec![];
            slab.dist_all_into(q, &mut lanes);
            slab.dist_all_into_scalar(q, &mut scalar);
            assert_eq!(lanes.len(), n);
            for i in 0..n {
                assert_eq!(
                    lanes[i].to_bits(),
                    scalar[i].to_bits(),
                    "n={n} i={i}: lane kernel diverged from Point::dist"
                );
            }
        }
    }

    #[test]
    fn in_disk_matches_scalar_including_order() {
        for n in [1, 5, 16, 100, 131] {
            let slab = slab_of(n, 7);
            let q = Point::new(0.0, 0.0);
            for r in [0.0, 10.0, 45.0, 1e9] {
                let mut a = vec![];
                let mut b = vec![];
                slab.for_each_in_disk_in_range(0, n, q, r, |i, d| a.push((i, d.to_bits())));
                slab.for_each_in_disk_in_range_scalar(0, n, q, r, |i, d| b.push((i, d.to_bits())));
                assert_eq!(a, b, "n={n} r={r}");
            }
        }
    }

    #[test]
    fn dist_range_subranges() {
        let n = 37;
        let slab = slab_of(n, 3);
        let q = Point::new(-2.0, 8.0);
        let mut full = vec![];
        slab.dist_all_into(q, &mut full);
        for (s, e) in [(0, 0), (0, 5), (8, 16), (30, 37), (4, 37)] {
            let mut part = vec![0.0; e - s];
            slab.dist_range_into(s, e, q, &mut part);
            for (k, d) in part.iter().enumerate() {
                assert_eq!(d.to_bits(), full[s + k].to_bits());
            }
        }
    }

    #[test]
    fn bitmap_helpers() {
        let m = bitmap_filled(70, true);
        assert_eq!(m.len(), 2);
        assert!(bitmap_get(&m, 0) && bitmap_get(&m, 63) && bitmap_get(&m, 69));
        assert_eq!(m[1], (1 << 6) - 1, "trailing bits must stay clear");
        let z = bitmap_filled(70, false);
        assert!(!bitmap_get(&z, 69));
        assert_eq!(bitmap_filled(0, true).len(), 0);
        assert_eq!(bitmap_filled(64, true), vec![u64::MAX]);
    }

    #[test]
    fn stats_accumulate_by_path() {
        let before = kernel_stats();
        let slab = slab_of(10, 1);
        let mut out = vec![];
        slab.dist_all_into(Point::new(0.0, 0.0), &mut out);
        slab.dist_all_into_scalar(Point::new(0.0, 0.0), &mut out);
        let delta = kernel_stats().since(&before);
        // Chunked call: 8 lane + 2 remainder; scalar call: 10 scalar.
        assert_eq!(delta.lane_dists, 8);
        assert_eq!(delta.scalar_dists, 12);
        assert_eq!(delta.total(), 20);
        assert!(delta.lane_fraction() > 0.0 && delta.lane_fraction() < 1.0);
        // Empty window: no work means no lane coverage, not full coverage.
        assert_eq!(KernelStats::default().lane_fraction(), 0.0);
    }
}
