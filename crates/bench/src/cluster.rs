//! Clustered / zipf workload generator for the locality experiments
//! (experiment E33).
//!
//! Real tracking workloads are not uniform: sites arrive in geographic
//! hot spots and queries follow the same skew. A [`ClusterWorkload`] draws
//! a fixed palette of cluster centers, ranks them by a zipf popularity law,
//! and then emits sites, queries, and hot-cluster arrival waves all biased
//! toward the popular clusters — the workload shape under which spatial
//! partitioning's box pruning pays off (queries touch the one or two
//! shards owning their hot spot). Composes with
//! [`crate::churn::ChurnStream`]: run background churn for liveness, and
//! layer [`ClusterWorkload::arrivals`] waves on top to skew the spatial
//! balance and force rebalances.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uncertain_engine::Update;
use uncertain_geom::Point;
use uncertain_nn::model::DiscreteUncertainPoint;

/// Shape of the clustered workload.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of hot-spot clusters.
    pub clusters: usize,
    /// Side of the square the cluster centers are scattered over.
    pub span: f64,
    /// Radius of each cluster (site centers scatter within it).
    pub cluster_radius: f64,
    /// Radius of one site's own location scatter (its uncertainty support).
    pub site_radius: f64,
    /// Locations per site.
    pub k: usize,
    /// Zipf exponent for cluster popularity: cluster `i` (0-ranked) is
    /// drawn with weight `1/(i+1)^s`. `0` = uniform over clusters.
    pub zipf_s: f64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            clusters: 12,
            span: 240.0,
            cluster_radius: 6.0,
            site_radius: 1.5,
            k: 3,
            zipf_s: 1.1,
        }
    }
}

/// Deterministic clustered site/query/arrival generator. All draws come
/// from one seeded [`StdRng`], so a given `(seed, config)` replays the
/// same workload bit-for-bit.
pub struct ClusterWorkload {
    rng: StdRng,
    cfg: ClusterConfig,
    centers: Vec<Point>,
    /// Cumulative zipf distribution over cluster ranks.
    cum: Vec<f64>,
}

impl ClusterWorkload {
    pub fn new(seed: u64, cfg: ClusterConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let half = cfg.span / 2.0;
        let m = cfg.clusters.max(1);
        let centers: Vec<Point> = (0..m)
            .map(|_| Point::new(rng.gen_range(-half..half), rng.gen_range(-half..half)))
            .collect();
        let weights: Vec<f64> = (0..m)
            .map(|i| 1.0 / ((i + 1) as f64).powf(cfg.zipf_s))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cum = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        ClusterWorkload {
            rng,
            cfg,
            centers,
            cum,
        }
    }

    /// The cluster centers, rank order (rank 0 = most popular).
    pub fn centers(&self) -> &[Point] {
        &self.centers
    }

    /// Draws a cluster rank by zipf popularity.
    fn pick(&mut self) -> usize {
        let r = self.rng.gen_range(0.0..1.0);
        self.cum
            .partition_point(|&c| c < r)
            .min(self.centers.len() - 1)
    }

    /// One site inside cluster `rank`: the site's own center scatters
    /// within the cluster radius, its `k` locations within the site radius.
    pub fn site_in(&mut self, rank: usize) -> DiscreteUncertainPoint {
        let c = self.centers[rank % self.centers.len()];
        let cr = self.cfg.cluster_radius;
        let sc = Point::new(
            c.x + self.rng.gen_range(-cr..cr),
            c.y + self.rng.gen_range(-cr..cr),
        );
        let sr = self.cfg.site_radius;
        let locs: Vec<Point> = (0..self.cfg.k.max(1))
            .map(|_| {
                Point::new(
                    sc.x + self.rng.gen_range(-sr..sr),
                    sc.y + self.rng.gen_range(-sr..sr),
                )
            })
            .collect();
        DiscreteUncertainPoint::uniform(locs)
    }

    /// One zipf-popular site.
    pub fn site(&mut self) -> DiscreteUncertainPoint {
        let rank = self.pick();
        self.site_in(rank)
    }

    /// `n` zipf-popular sites.
    pub fn sites(&mut self, n: usize) -> Vec<DiscreteUncertainPoint> {
        (0..n).map(|_| self.site()).collect()
    }

    /// One zipf-popular query point (inside a hot cluster).
    pub fn query(&mut self) -> Point {
        let rank = self.pick();
        let c = self.centers[rank];
        let cr = self.cfg.cluster_radius;
        Point::new(
            c.x + self.rng.gen_range(-cr..cr),
            c.y + self.rng.gen_range(-cr..cr),
        )
    }

    /// `n` zipf-popular query points.
    pub fn queries(&mut self, n: usize) -> Vec<Point> {
        (0..n).map(|_| self.query()).collect()
    }

    /// An arrival wave: `count` inserts all inside cluster `rank` — the
    /// skew hammer. Piling a wave into one cluster balloons the shard(s)
    /// owning that region past any rebalance ratio.
    pub fn arrivals(&mut self, count: usize, rank: usize) -> Vec<Update> {
        (0..count)
            .map(|_| Update::Insert(self.site_in(rank)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        let mk = || {
            let mut w = ClusterWorkload::new(7, ClusterConfig::default());
            format!("{:?} {:?}", w.sites(5), w.queries(5))
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn sites_land_inside_their_cluster() {
        let cfg = ClusterConfig::default();
        let mut w = ClusterWorkload::new(11, cfg);
        let centers = w.centers().to_vec();
        let max_r = cfg.cluster_radius + cfg.site_radius;
        for site in w.sites(200) {
            let near = site.locations().iter().all(|p| {
                centers
                    .iter()
                    .any(|c| (p.x - c.x).abs() <= max_r && (p.y - c.y).abs() <= max_r)
            });
            assert!(near, "site location escaped every cluster box");
        }
    }

    #[test]
    fn zipf_skews_toward_the_hot_cluster() {
        let cfg = ClusterConfig::default();
        let mut w = ClusterWorkload::new(13, cfg);
        let hot = w.centers()[0];
        let cold = w.centers()[cfg.clusters - 1];
        let (mut near_hot, mut near_cold) = (0usize, 0usize);
        let r = cfg.cluster_radius;
        for q in w.queries(600) {
            if (q.x - hot.x).abs() <= r && (q.y - hot.y).abs() <= r {
                near_hot += 1;
            }
            if (q.x - cold.x).abs() <= r && (q.y - cold.y).abs() <= r {
                near_cold += 1;
            }
        }
        assert!(
            near_hot > 2 * near_cold.max(1),
            "rank 0 ({near_hot}) should dominate rank {} ({near_cold})",
            cfg.clusters - 1
        );
    }

    #[test]
    fn arrival_waves_pin_one_cluster() {
        let cfg = ClusterConfig::default();
        let mut w = ClusterWorkload::new(17, cfg);
        let c = w.centers()[2];
        let max_r = cfg.cluster_radius + cfg.site_radius;
        let wave = w.arrivals(50, 2);
        assert_eq!(wave.len(), 50);
        for u in &wave {
            let Update::Insert(site) = u else {
                panic!("arrival waves are inserts only");
            };
            for p in site.locations() {
                assert!((p.x - c.x).abs() <= max_r && (p.y - c.y).abs() <= max_r);
            }
        }
    }
}
