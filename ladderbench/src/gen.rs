//! Seeded inputs. Everything a run feeds the program comes from here and
//! depends only on `--seed`: the site sets, the query streams and the
//! update streams. The program under test receives only these generated
//! inputs, never the seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uncertain_bench::churn::{ChurnConfig, ChurnStream};
use uncertain_engine::{ApplyReport, QueryRequest, SiteId};
use uncertain_geom::Point;
use uncertain_nn::model::{DiscreteSet, DiscreteUncertainPoint};

/// Sites in the wire workloads (the `serve` binary's default size).
pub const WIRE_N: usize = 5_000;
/// Sites in `churn-50k`.
pub const CHURN_N: usize = 50_000;
/// Locations per site.
pub const K: usize = 3;
/// Diameter of each site's location cluster.
pub const CLUSTER_DIAMETER: f64 = 5.0;
/// Side of the square holding the site centres of a 5 000-site set
/// (`workload::random_discrete_set` draws them from `[-25, 25]²`).
pub const WIRE_SPAN: f64 = 50.0;
/// Query points `wire-hot` draws from.
pub const HOT_POOL: usize = 512;
/// Zipf exponent of `wire-hot`'s draws over its pool.
pub const HOT_ZIPF_S: f64 = 1.0;
/// `k` of the TopK family.
pub const TOPK_K: usize = 3;
/// `τ` of the Threshold family.
pub const THRESHOLD_TAU: f64 = 0.05;
/// Share of live sites one churn batch changes.
pub const CHURN_RATE: f64 = 0.01;

/// Side of `churn-50k`'s square: √10 times [`WIRE_SPAN`], so ten times the
/// sites cover ten times the area and site density (hence |NN≠0(q)|)
/// matches the wire workloads.
pub fn churn_span() -> f64 {
    WIRE_SPAN * 10f64.sqrt()
}

/// Independent streams of one run, each seeded from `--seed` and its tag.
#[derive(Clone, Copy)]
pub enum Stream {
    Sites = 1,
    Queries = 2,
    Pool = 3,
    Updates = 4,
    Warmup = 5,
    Probe = 6,
}

/// The seed of one stream (a SplitMix64 finalizer over the pair, so nearby
/// run seeds give unrelated streams).
pub fn sub_seed(seed: u64, stream: Stream, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_add((stream as u64) << 32)
        .wrapping_add(lane)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` sites shaped like `workload::random_discrete_set`'s (`K` locations
/// in a cluster of diameter [`CLUSTER_DIAMETER`], weights uniform in
/// `[0.2, 1)`), with centres uniform over a `span`-wide square.
pub fn sites(n: usize, span: f64, seed: u64) -> DiscreteSet {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, Stream::Sites, 0));
    let half = span / 2.0;
    let r = CLUSTER_DIAMETER / 2.0;
    let points = (0..n)
        .map(|_| {
            let c = Point::new(rng.gen_range(-half..half), rng.gen_range(-half..half));
            let locs: Vec<Point> = (0..K)
                .map(|_| Point::new(c.x + rng.gen_range(-r..r), c.y + rng.gen_range(-r..r)))
                .collect();
            let weights: Vec<f64> = (0..K).map(|_| rng.gen_range(0.2..1.0)).collect();
            DiscreteUncertainPoint::new(locs, weights)
        })
        .collect();
    DiscreteSet::new(points)
}

/// Request `i` of the 1:1:1 mix of NN≠0, TopK and Threshold at `q`.
pub fn mixed(i: u64, q: Point) -> QueryRequest {
    match i % 3 {
        0 => QueryRequest::Nonzero { q },
        1 => QueryRequest::TopK { q, k: TOPK_K },
        _ => QueryRequest::Threshold {
            q,
            tau: THRESHOLD_TAU,
        },
    }
}

/// The three query families, in mix order.
pub const FAMILIES: [&str; 3] = ["nonzero", "topk", "threshold"];

/// Index of `req`'s family in [`FAMILIES`].
pub fn family(req: &QueryRequest) -> usize {
    match req {
        QueryRequest::Nonzero { .. } => 0,
        QueryRequest::TopK { .. } => 1,
        QueryRequest::Threshold { .. } => 2,
    }
}

/// A deterministic stream of mixed requests.
pub struct QueryStream {
    rng: StdRng,
    half: f64,
    /// `wire-hot`'s pool and the cumulative zipf weights over it; empty
    /// for the unique-point streams.
    pool: Vec<Point>,
    cdf: Vec<f64>,
    next: u64,
}

impl QueryStream {
    /// Unique points, uniform over a `span`-wide square. `lane` separates
    /// the streams of concurrent connections.
    pub fn uniform(seed: u64, stream: Stream, lane: u64, span: f64) -> Self {
        QueryStream {
            rng: StdRng::seed_from_u64(sub_seed(seed, stream, lane)),
            half: span / 2.0,
            pool: vec![],
            cdf: vec![],
            next: 0,
        }
    }

    /// Points drawn zipf from a fixed pool of [`HOT_POOL`] uniform points.
    /// The pool depends on `seed` only; `lane` selects the draw sequence.
    pub fn zipf_pool(seed: u64, lane: u64, span: f64) -> Self {
        let mut pool_gen = QueryStream::uniform(seed, Stream::Pool, 0, span);
        let pool: Vec<Point> = (0..HOT_POOL).map(|_| pool_gen.point()).collect();
        let mut acc = 0.0;
        let cdf = (0..HOT_POOL)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(HOT_ZIPF_S);
                acc
            })
            .collect();
        QueryStream {
            rng: StdRng::seed_from_u64(sub_seed(seed, Stream::Queries, lane)),
            half: span / 2.0,
            pool,
            cdf,
            next: 0,
        }
    }

    /// The zipf pool (empty for unique-point streams).
    pub fn pool(&self) -> &[Point] {
        &self.pool
    }

    fn point(&mut self) -> Point {
        if self.pool.is_empty() {
            let h = self.half;
            return Point::new(self.rng.gen_range(-h..h), self.rng.gen_range(-h..h));
        }
        let total = *self.cdf.last().expect("pool is nonempty");
        let u = self.rng.gen_range(0.0..total);
        let i = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.pool.len() - 1);
        self.pool[i]
    }

    /// The next request of the mix.
    pub fn next_request(&mut self) -> QueryRequest {
        let q = self.point();
        let req = mixed(self.next, q);
        self.next += 1;
        req
    }

    /// The next `n` points, without the request mix.
    pub fn points(&mut self, n: usize) -> Vec<Point> {
        (0..n).map(|_| self.point()).collect()
    }

    /// The next `n` requests.
    pub fn take(&mut self, n: usize) -> Vec<QueryRequest> {
        (0..n).map(|_| self.next_request()).collect()
    }
}

/// The update stream: equal parts arrivals, expiries and moves over a
/// `span`-wide square, each batch [`CHURN_RATE`] of the live sites.
pub fn updates(seed: u64, span: f64, initial: Vec<SiteId>) -> ChurnStream {
    let cfg = ChurnConfig {
        k: K,
        cluster_diameter: CLUSTER_DIAMETER,
        span,
        arrival_weight: 1.0,
        expiry_weight: 1.0,
        drift_weight: 1.0,
    };
    ChurnStream::new(sub_seed(seed, Stream::Updates, 0), cfg, initial)
}

/// Feeds the ids an apply assigned back into the update stream.
pub fn observe_inserted(stream: &mut ChurnStream, inserted: Vec<SiteId>) {
    stream.observe(&ApplyReport {
        epoch: 0,
        inserted,
        removed: 0,
        moved: 0,
        missed: 0,
        live: 0,
        tombstones: 0,
        merges: 0,
        global_rebuilds: 0,
        sites_rebuilt: 0,
    });
}
