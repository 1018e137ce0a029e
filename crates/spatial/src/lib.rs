//! `uncertain-spatial`: spatial indexes backing the paper's query structures.
//!
//! The paper's near-linear `NN≠0` structures (Theorems 3.1 and 3.2) and the
//! spiral-search quantification algorithm (Theorem 4.7) need three query
//! primitives, all provided here:
//!
//! * [`kdtree::KdTree`] — points: nearest neighbor, best-first incremental
//!   k-nearest-neighbor iteration, and circular range reporting (the
//!   practical stand-in for partition-tree range searching, with the same
//!   `O(√N + t)` worst-case query shape).
//! * [`disk_index::DiskIndex`] — disks: `Δ(q) = min_i (‖q − c_i‖ + r_i)` by
//!   branch-and-bound, and "report all disks intersecting a query disk"
//!   (the two stages of the Theorem 3.1 query).
//! * [`group_index::GroupIndex`] — grouped point sets summarized by their
//!   smallest enclosing circles: `Δ(q) = min_i max_j ‖q − p_ij‖` by
//!   branch-and-bound with exact refinement (the first stage of the
//!   Theorem 3.2 query); [`group_index::GroupTree`] is the same search
//!   for callers that keep each group's circle and hull themselves.
//!
//! The kd-tree's leaf scans run on the structure-of-arrays kernels in
//! [`soa`]: flat `x[]`/`y[]` slabs scanned in fixed-width chunks with
//! branch-free hit masks, over leaves of at most [`kdtree::LEAF_SIZE`]
//! points, bit-identical to the scalar `Point::dist` loops they replace (see
//! the module docs for the exactness contract and the process-global
//! [`soa::KernelStats`] counters).

pub mod disk_index;
pub mod group_index;
pub mod kdtree;
pub mod quadtree;
pub mod soa;

pub use disk_index::DiskIndex;
pub use group_index::{GroupIndex, GroupTree};
pub use kdtree::KdTree;
pub use quadtree::QuadTree;
pub use soa::{KernelStats, PointSlab};
