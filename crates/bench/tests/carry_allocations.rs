//! Carry certificate: the allocations of a Bentley–Saxe carry do not grow
//! with the number of sites it gathers.
//!
//! A site's smallest enclosing circle and farthest-point hull are computed
//! once, when the site arrives, and travel with its shared payload. A carry
//! that gathers `m` stored sites therefore allocates a fixed set of
//! vectors — the gathered entry list, the bucket's id and site lists, its
//! group tree, its stage-2 kd-tree and table, the slot's bitmaps — and
//! nothing per site; the same holds for a compaction (`rebuild_all`).
//!
//! Measured at `m + 1 = 256` and `m + 1 = 4096`: `m = 2^k − 1` unit inserts
//! fill every slot below `k`, so the next insert gathers all `m` stored
//! sites into one bucket of `2^k`. The two counts may differ by at most
//! [`SLACK`]. A per-site allocation would add thousands.
//!
//! The binary installs [`CountingAlloc`] and holds a single test, so no
//! sibling test allocates while it counts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uncertain_bench::measure::{heap_counters, CountingAlloc};
use uncertain_geom::Point;
use uncertain_nn::dynamic::{DynamicConfig, DynamicSet};
use uncertain_nn::model::DiscreteUncertainPoint;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations the larger carry may make beyond the smaller one: growth of
/// the entry slab, the id list and the id map, each at most once per write,
/// with room to spare.
const SLACK: u64 = 8;

/// A site of `k = 4` locations in a cluster of diameter 5, centered in a
/// square of side 100.
fn site(rng: &mut StdRng) -> DiscreteUncertainPoint {
    let c = Point::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0));
    let locs = (0..4)
        .map(|_| {
            Point::new(
                c.x + rng.gen_range(-2.5..2.5),
                c.y + rng.gen_range(-2.5..2.5),
            )
        })
        .collect();
    DiscreteUncertainPoint::uniform(locs)
}

/// Allocations of `f`.
fn allocs(f: impl FnOnce()) -> u64 {
    let a0 = heap_counters().1;
    f();
    heap_counters().1 - a0
}

/// `(carry, compaction)` allocations at a bucket of `2^k` sites: the insert
/// that gathers the `2^k − 1` stored sites, then a `rebuild_all` of the
/// `2^k` it leaves. The new site is built before counting, so only the
/// carry is measured.
fn carry_and_compaction(k: u32) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(u64::from(k));
    let mut d = DynamicSet::new(DynamicConfig::default());
    for _ in 1..1usize << k {
        d.insert(site(&mut rng));
    }
    assert_eq!(d.stats().buckets, k as usize, "one bucket per slot below k");
    let last = site(&mut rng);
    let carry = allocs(|| {
        d.insert(last);
    });
    assert_eq!(
        d.slot_sizes(),
        vec![(k as usize, 1 << k)],
        "one gathered bucket"
    );
    let compaction = allocs(|| d.rebuild_all());
    assert_eq!(d.slot_sizes(), vec![(k as usize, 1 << k)]);
    (carry, compaction)
}

#[test]
fn carry_allocations_do_not_grow_with_the_sites_gathered() {
    let (small_carry, small_rebuild) = carry_and_compaction(8);
    let (big_carry, big_rebuild) = carry_and_compaction(12);
    println!(
        "allocations: carry {small_carry} (256-site bucket) vs {big_carry} (4096), \
         rebuild_all {small_rebuild} vs {big_rebuild}"
    );
    assert!(small_carry > 0, "CountingAlloc is not installed");
    assert!(
        big_carry <= small_carry + SLACK,
        "a carry of 4096 sites allocates {big_carry} times, of 256 {small_carry}"
    );
    assert!(
        big_rebuild <= small_rebuild + SLACK,
        "rebuild_all of 4096 sites allocates {big_rebuild} times, of 256 {small_rebuild}"
    );
}
