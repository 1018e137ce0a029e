//! The one place the benchmark creates engines. Every workload gets its
//! engine from [`build_engine`] and drives it through [`Eng`], so a change
//! to how engines are built or merged edits only this file.

use std::sync::Arc;

use uncertain_engine::shard::{PartitionerKind, ShardedEngine};
use uncertain_engine::{BatchResponse, Engine, EngineConfig, QueryRequest, SiteId, Update};
use uncertain_nn::model::DiscreteSet;

/// Which engine a workload serves from.
#[derive(Clone, Copy, Debug)]
pub enum EngineKind {
    /// `Engine` with the default config, as the `serve` binary builds it.
    Monolithic,
    /// `ShardedEngine` with `shards` spatial shards and otherwise default
    /// config (default cache, default threads).
    ShardedSpatial { shards: usize },
}

/// A built engine.
pub enum Eng {
    Mono(Arc<Engine>),
    Sharded(ShardedEngine),
}

/// What one apply did, whichever engine ran it.
pub struct Applied {
    pub inserted: Vec<SiteId>,
    pub missed: usize,
    pub global_rebuilds: u64,
    pub sites_rebuilt: u64,
}

/// Builds the engine of `kind` over `set`.
pub fn build_engine(kind: EngineKind, set: DiscreteSet) -> Eng {
    match kind {
        EngineKind::Monolithic => Eng::Mono(Arc::new(Engine::new(set, EngineConfig::default()))),
        EngineKind::ShardedSpatial { shards } => Eng::Sharded(ShardedEngine::new(
            set,
            EngineConfig {
                shards: Some(shards),
                partitioner: PartitionerKind::Spatial,
                ..EngineConfig::default()
            },
        )),
    }
}

impl Eng {
    pub fn run_batch(&self, requests: &[QueryRequest]) -> BatchResponse {
        match self {
            Eng::Mono(e) => e.run_batch(requests),
            Eng::Sharded(e) => e.run_batch(requests),
        }
    }

    pub fn apply(&self, updates: &[Update]) -> Applied {
        match self {
            Eng::Mono(e) => {
                let r = e.apply(updates);
                Applied {
                    inserted: r.inserted,
                    missed: r.missed,
                    global_rebuilds: r.global_rebuilds,
                    sites_rebuilt: r.sites_rebuilt,
                }
            }
            Eng::Sharded(e) => {
                let r = e.apply(updates);
                Applied {
                    inserted: r.inserted,
                    missed: r.missed,
                    global_rebuilds: r.global_rebuilds,
                    sites_rebuilt: r.sites_rebuilt,
                }
            }
        }
    }

    /// The live sites, densely in ascending-id order.
    pub fn live_set(&self) -> DiscreteSet {
        match self {
            Eng::Mono(e) => e.live_set(),
            Eng::Sharded(e) => e.live_set(),
        }
    }

    /// Stable ids of the live sites, ascending.
    pub fn site_ids(&self) -> Vec<SiteId> {
        match self {
            Eng::Mono(e) => e.site_ids(),
            Eng::Sharded(e) => e.site_ids(),
        }
    }

    pub fn cache_len(&self) -> usize {
        match self {
            Eng::Mono(e) => e.cache_len(),
            Eng::Sharded(e) => e.cache_len(),
        }
    }

    /// `(live, tombstones)` of the current snapshot.
    pub fn live_and_tombstones(&self) -> (usize, usize) {
        match self {
            Eng::Mono(e) => e
                .dynamic_stats()
                .map_or((e.site_ids().len(), 0), |d| (d.live, d.tombstones)),
            Eng::Sharded(e) => e
                .shard_stats()
                .iter()
                .fold((0, 0), |(l, t), s| (l + s.live, t + s.tombstones)),
        }
    }

    /// Rebalance rounds since construction (0 for an unsharded engine).
    pub fn rebalances(&self) -> u64 {
        match self {
            Eng::Mono(_) => 0,
            Eng::Sharded(e) => e.rebalances(),
        }
    }

    /// The engine a `server::Server` can front (only the unsharded engine
    /// has a network server).
    pub fn servable(&self) -> Option<Arc<Engine>> {
        match self {
            Eng::Mono(e) => Some(Arc::clone(e)),
            Eng::Sharded(_) => None,
        }
    }
}
