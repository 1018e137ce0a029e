//! Exact-bits LRU result cache.
//!
//! Keys are the query's exact f64 bits plus the serving epoch, so repeated
//! identical queries share one entry and a hit returns the very answer a
//! miss would compute: answers never depend on cache state.
//!
//! An entry is `O(|answer|)` bytes, independent of the live site count:
//! `NN≠0` entries hold the answer's ids, and quantification entries hold
//! the *ranked* positive estimates — a subset of `NN≠0(q)` (Lemma 2.1) —
//! from which TopK and Threshold answers are prefixes.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard};
use uncertain_geom::Point;

/// Cache key: the exact query bits, one variant per query family.
///
/// Every variant carries the engine **epoch** the answer was computed
/// under. Applying updates ([`crate::Engine::apply`]) bumps the epoch, so
/// entries from superseded site sets can never be looked up again — stale
/// epochs are invalidated "for free" and their entries age out of the LRU
/// under normal traffic, with no flush or scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheKey {
    /// `NN≠0` answers are exact, so one key per query point and epoch.
    Nonzero { epoch: u64, qx: u64, qy: u64 },
    /// Ranked probability answers are exact too, and one entry serves both
    /// TopK and Threshold.
    Quant { epoch: u64, qx: u64, qy: u64 },
}

impl CacheKey {
    pub fn nonzero(epoch: u64, q: Point) -> Self {
        CacheKey::Nonzero {
            epoch,
            qx: q.x.to_bits(),
            qy: q.y.to_bits(),
        }
    }

    pub fn quant(epoch: u64, q: Point) -> Self {
        CacheKey::Quant {
            epoch,
            qx: q.x.to_bits(),
            qy: q.y.to_bits(),
        }
    }
}

/// A cached answer. `Arc`s keep hits allocation-free across worker threads.
#[derive(Clone, Debug)]
pub enum CachedValue {
    /// `NN≠0(q)` as ascending site ids, copied once from the answer.
    Nonzero(Arc<[usize]>),
    /// Every positive estimate as `(site id, π)`, in answer order:
    /// decreasing estimate, ties by increasing id.
    Quant(Arc<Vec<(usize, f64)>>),
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
}

impl ResultCache {
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: (capacity > 0).then(|| Mutex::new(LruCache::new(capacity))),
        }
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
        let cache = ResultCache::new(8);
        let key = CacheKey::nonzero(0, Point::new(1.0, 2.0));
        cache.insert(key, CachedValue::Nonzero(Arc::from([3])));
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
        cache.insert(key, CachedValue::Nonzero(Arc::from([4])));
        match cache.get(&key) {
            Some(CachedValue::Nonzero(ids)) => assert_eq!(*ids, [4]),
            other => panic!("expected a hit after recovery, got {other:?}"),
        }
        assert!(!cache.inner.as_ref().unwrap().is_poisoned());
    }

    #[test]
    fn keys_do_not_alias_across_query_families() {
        // One query point keys a nonzero set and a ranked probability
        // answer apart.
        let q = Point::new(1.0, 2.0);
        let exact = CacheKey::quant(0, q);
        assert_ne!(CacheKey::nonzero(0, q), exact);
        // Identical queries share a key.
        assert_eq!(
            CacheKey::nonzero(0, q),
            CacheKey::nonzero(0, Point::new(1.0, 2.0))
        );
        assert_eq!(exact, CacheKey::quant(0, Point::new(1.0, 2.0)));
    }

    #[test]
    fn keys_do_not_alias_across_epochs() {
        // The same query under different epochs never shares an entry —
        // this is the whole stale-epoch invalidation mechanism.
        let q = Point::new(1.0, 2.0);
        assert_ne!(CacheKey::nonzero(0, q), CacheKey::nonzero(1, q));
        assert_ne!(CacheKey::quant(0, q), CacheKey::quant(1, q));
        assert_ne!(CacheKey::quant(3, q), CacheKey::quant(4, q));
    }
}
