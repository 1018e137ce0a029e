//! Quantization-keyed LRU result cache.
//!
//! Keys are query points snapped to a configurable grid (cell side
//! [`EngineConfig::cache_grid`](crate::EngineConfig); `0` disables snapping
//! and keys on the exact f64 bits, which still de-duplicates repeated
//! identical queries). Snapped entries are **evaluated at the cell center**
//! with a certified interval (see [`crate::snap`]), so every query in the
//! cell receives the identical answer together with a `Guarantee` whose
//! slack is widened by the certified snap error — correctness is preserved
//! by construction, and answers do not depend on cache state.
//!
//! Snapping applies to the quantification paths. `NN≠0` answers are sets
//! with no slack vocabulary to absorb a perturbation, so nonzero entries
//! always use exact-bits keys.
//!
//! An entry is `O(|answer|)` bytes, independent of the live site count:
//! `NN≠0` entries hold the answer's ids, and quantification entries hold
//! the *ranked* positive estimates — for merged answers a subset of
//! `NN≠0(q)` (Lemma 2.1) — from which TopK and Threshold answers are
//! prefixes.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard};
use uncertain_geom::Point;
use uncertain_nn::queries::Guarantee;

/// Snaps a point to grid cell indices (cell side `grid`). The cell center
/// is `(kx·grid, ky·grid)`; every point of the cell is within
/// [`snap_radius`] of it.
pub fn quantize_point(q: Point, grid: f64) -> (i64, i64) {
    assert!(grid > 0.0);
    ((q.x / grid).round() as i64, (q.y / grid).round() as i64)
}

/// The cell center of the cell containing `q`.
pub fn snap_center(q: Point, grid: f64) -> Point {
    let (kx, ky) = quantize_point(q, grid);
    Point::new(kx as f64 * grid, ky as f64 * grid)
}

/// Max distance from any point of a cell to its center: `grid·√2/2`.
pub fn snap_radius(grid: f64) -> f64 {
    grid * std::f64::consts::FRAC_1_SQRT_2
}

/// Cache key: exact query bits for nonzero sets, snapped cell or exact bits
/// for ranked probability answers.
///
/// Every variant carries the engine **epoch** the answer was computed
/// under. Applying updates ([`crate::Engine::apply`]) bumps the epoch, so
/// entries from superseded site sets can never be looked up again — stale
/// epochs are invalidated "for free" and their entries age out of the LRU
/// under normal traffic, with no flush or scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheKey {
    /// `NN≠0` answers are exact, so one key per query point and epoch.
    Nonzero {
        epoch: u64,
        qx: u64,
        qy: u64,
    },
    QuantCell {
        epoch: u64,
        kx: i64,
        ky: i64,
    },
    QuantExact {
        epoch: u64,
        qx: u64,
        qy: u64,
    },
}

impl CacheKey {
    pub fn nonzero(epoch: u64, q: Point) -> Self {
        CacheKey::Nonzero {
            epoch,
            qx: q.x.to_bits(),
            qy: q.y.to_bits(),
        }
    }

    /// Quantification key: snapped when `grid > 0`, exact bits otherwise.
    pub fn quant(epoch: u64, q: Point, grid: f64) -> Self {
        if grid > 0.0 {
            let (kx, ky) = quantize_point(q, grid);
            CacheKey::QuantCell { epoch, kx, ky }
        } else {
            CacheKey::QuantExact {
                epoch,
                qx: q.x.to_bits(),
                qy: q.y.to_bits(),
            }
        }
    }
}

/// A cached answer. `Arc`s keep hits allocation-free across worker threads.
#[derive(Clone, Debug)]
pub enum CachedValue {
    /// `NN≠0(q)` as ascending site ids.
    Nonzero(Arc<Vec<usize>>),
    /// Every positive estimate as `(site id, π̂)`, in answer order:
    /// decreasing estimate, ties by increasing id.
    Quant {
        ranked: Arc<Vec<(usize, f64)>>,
        guarantee: Guarantee,
    },
}

/// A classic O(1) LRU: hash map into a slab of doubly-linked nodes.
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    head: usize, // most recent
    tail: usize, // least recent
    capacity: usize,
}

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::new(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity: capacity.max(1),
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks `key` up, promoting it to most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let &i = self.map.get(key)?;
        self.unlink(i);
        self.push_front(i);
        Some(self.nodes[i].value.clone())
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used entry
    /// when over capacity.
    pub fn insert(&mut self, key: K, value: V) {
        if let Some(&i) = self.map.get(&key) {
            self.nodes[i].value = value;
            self.unlink(i);
            self.push_front(i);
            return;
        }
        let i = if self.map.len() >= self.capacity {
            // Recycle the tail node in place.
            let i = self.tail;
            self.unlink(i);
            self.map.remove(&self.nodes[i].key);
            self.nodes[i].key = key.clone();
            self.nodes[i].value = value;
            i
        } else {
            self.nodes.push(Node {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.nodes.len() - 1
        };
        self.map.insert(key, i);
        self.push_front(i);
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else if self.head == i {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else if self.tail == i {
            self.tail = prev;
        }
        self.nodes[i].prev = NIL;
        self.nodes[i].next = NIL;
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }
}

/// The engine's shared, thread-safe result cache. `capacity == 0` disables
/// it entirely — no lookups, no inserts, no lock traffic — the knob for
/// measuring raw execution (benches, E24's thread-scaling sweep). The lock
/// is a single global mutex; if profiles ever show it hot on many-core
/// serving, shard it by key hash.
pub struct ResultCache {
    inner: Option<Mutex<LruCache<CacheKey, CachedValue>>>,
    grid: f64,
}

impl ResultCache {
    pub fn new(capacity: usize, grid: f64) -> Self {
        assert!(grid >= 0.0, "cache grid must be non-negative");
        ResultCache {
            inner: (capacity > 0).then(|| Mutex::new(LruCache::new(capacity))),
            grid,
        }
    }

    /// Grid cell side (`0` = exact-bits keying).
    pub fn grid(&self) -> f64 {
        self.grid
    }

    /// `false` when built with capacity 0.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    pub fn len(&self) -> usize {
        self.lock().map_or(0, |g| g.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Locks the LRU, recovering from poison by **clearing** it. A thread
    /// that panics while holding this lock (a pathological query dying
    /// mid-insert) may leave the LRU's intrusive links torn, so the
    /// valid-on-panic recovery other engine locks use is not sound here —
    /// but the cache is only an accelerator, so the cheap safe recovery is
    /// to drop every entry and keep serving. Without this, one bad query
    /// turns every later `get`/`insert` into a panic and takes the whole
    /// serving process down with it (the mutex-poison cascade).
    fn lock(&self) -> Option<MutexGuard<'_, LruCache<CacheKey, CachedValue>>> {
        let m = self.inner.as_ref()?;
        Some(match m.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                m.clear_poison();
                let mut g = poisoned.into_inner();
                *g = LruCache::new(g.capacity());
                uncertain_obs::counter!("engine.cache.poison_clears").inc();
                g
            }
        })
    }

    pub fn get(&self, key: &CacheKey) -> Option<CachedValue> {
        let hit = self.lock()?.get(key);
        // Process-global registry twins of the per-batch counters in
        // `ExecStats` — a disabled cache (capacity 0) records nothing.
        match &hit {
            Some(_) => uncertain_obs::counter!("engine.cache.hits").inc(),
            None => uncertain_obs::counter!("engine.cache.misses").inc(),
        }
        hit
    }

    pub fn insert(&self, key: CacheKey, value: CachedValue) {
        if let Some(mut g) = self.lock() {
            uncertain_obs::counter!("engine.cache.inserts").inc();
            g.insert(key, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut lru: LruCache<u32, u32> = LruCache::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.get(&1), Some(10)); // 1 now most recent
        lru.insert(3, 30); // evicts 2
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.get(&3), Some(30));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn lru_refresh_updates_value_without_growth() {
        let mut lru: LruCache<u32, u32> = LruCache::new(3);
        lru.insert(1, 10);
        lru.insert(1, 11);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&1), Some(11));
    }

    #[test]
    fn lru_heavy_churn_stays_consistent() {
        let mut lru: LruCache<u64, u64> = LruCache::new(16);
        for i in 0..1000u64 {
            lru.insert(i % 40, i);
            assert!(lru.len() <= 16);
        }
        // The most recent insert must be present.
        assert_eq!(lru.get(&(999 % 40)), Some(999));
    }

    #[test]
    fn poisoned_cache_clears_and_keeps_serving() {
        let cache = ResultCache::new(8, 0.0);
        let key = CacheKey::nonzero(0, Point::new(1.0, 2.0));
        cache.insert(key, CachedValue::Nonzero(Arc::new(vec![3])));
        assert_eq!(cache.len(), 1);
        // Poison the inner mutex: panic while holding the guard, exactly
        // what a panicking query inside the locked region would do.
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = cache.inner.as_ref().unwrap().lock().unwrap();
            panic!("query died while holding the cache lock");
        }));
        assert!(poison.is_err());
        assert!(cache.inner.as_ref().unwrap().is_poisoned());
        // Clear-on-poison: the next access recovers (entries dropped, no
        // panic), and the cache serves reads and writes again.
        assert!(cache.get(&key).is_none(), "poisoned cache must clear");
        assert_eq!(cache.len(), 0);
        cache.insert(key, CachedValue::Nonzero(Arc::new(vec![4])));
        match cache.get(&key) {
            Some(CachedValue::Nonzero(ids)) => assert_eq!(*ids, vec![4]),
            other => panic!("expected a hit after recovery, got {other:?}"),
        }
        assert!(!cache.inner.as_ref().unwrap().is_poisoned());
    }

    #[test]
    fn quantize_is_stable_within_cell() {
        let g = 0.5;
        let q = Point::new(3.1, -2.2);
        let c = snap_center(q, g);
        assert!(q.dist(c) <= snap_radius(g) + 1e-12);
        // Points well inside the same cell share the key.
        let k0 = quantize_point(c, g);
        for (dx, dy) in [(0.2, 0.1), (-0.24, 0.24), (0.0, -0.2)] {
            let p = Point::new(c.x + dx * g / 0.5, c.y + dy * g / 0.5);
            // stay strictly inside ±g/2 of the center
            let p = Point::new(
                c.x + (p.x - c.x).clamp(-0.49 * g, 0.49 * g),
                c.y + (p.y - c.y).clamp(-0.49 * g, 0.49 * g),
            );
            assert_eq!(quantize_point(p, g), k0);
        }
    }

    #[test]
    fn keys_do_not_alias_across_query_families() {
        // One query point keys a nonzero set and a ranked probability
        // answer apart, snapped or not.
        let q = Point::new(1.0, 2.0);
        let exact = CacheKey::quant(0, q, 0.0);
        assert_ne!(CacheKey::nonzero(0, q), exact);
        assert_ne!(CacheKey::nonzero(0, q), CacheKey::quant(0, q, 0.5));
        // Identical queries share a key.
        assert_eq!(
            CacheKey::nonzero(0, q),
            CacheKey::nonzero(0, Point::new(1.0, 2.0))
        );
        assert_eq!(exact, CacheKey::quant(0, Point::new(1.0, 2.0), 0.0));
    }

    #[test]
    fn keys_do_not_alias_across_epochs() {
        // The same query under different epochs never shares an entry —
        // this is the whole stale-epoch invalidation mechanism.
        let q = Point::new(1.0, 2.0);
        assert_ne!(CacheKey::nonzero(0, q), CacheKey::nonzero(1, q));
        assert_ne!(CacheKey::quant(0, q, 0.0), CacheKey::quant(1, q, 0.0));
        assert_ne!(CacheKey::quant(3, q, 0.5), CacheKey::quant(4, q, 0.5));
    }
}
