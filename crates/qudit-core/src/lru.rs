//! One bounded least-recently-used cache for every memo layer of the
//! workspace: the simulator's plan cache, the executor's compile and result
//! caches, and the per-model noise-site caches.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A snapshot of one cache's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Counted lookups that found nothing (a [`Lru::probe`] miss is not
    /// counted).
    pub misses: usize,
    /// Entries dropped to make room for a newer one.
    pub evictions: usize,
    /// Entries currently held.
    pub entries: usize,
    /// The entry bound.
    pub capacity: usize,
    /// Total weight of the held values (0 for an unweighted cache).
    pub weight: usize,
}

/// A thread-safe map bounded by entry count and, optionally, by the total
/// weight of its values, that evicts the least-recently-used entries first.
///
/// # Contract
///
/// * The cache owns its `Mutex` and recovers from poisoning in one place.
///   Each critical section is one map update that cannot panic midway: map
///   operations run before the bookkeeping that depends on them, so even a
///   panicking key `Hash` leaves the cache consistent.
/// * Callers build values *outside* the lock: [`Lru::get`], and on a miss
///   build, then [`Lru::insert`]. A concurrent duplicate build is benign —
///   the first insert wins, and `insert` hands that stored value back to
///   every caller.
/// * An insert evicts least-recently-used entries until both the entry cap
///   and the optional weight cap admit the new value. A value heavier than
///   the whole weight cap is returned but never stored, and evicts nothing.
/// * Eviction is a linear scan. It runs only on an insert at capacity, and
///   that insert follows a miss that has already paid for a plan build, a
///   compile or a simulation.
///
/// Values are handed out by `Clone`, so a value is normally an `Arc` or a
/// type whose clone shares its payload.
pub struct Lru<K, V> {
    capacity: usize,
    max_weight: usize,
    weigh: fn(&V) -> usize,
    inner: Mutex<Inner<K, V>>,
}

struct Slot<V> {
    /// Last use; stamps are unique, so the minimum names one entry.
    stamp: u64,
    weight: usize,
    value: V,
}

struct Inner<K, V> {
    map: HashMap<K, Slot<V>>,
    weight: usize,
    stamp: u64,
    hits: usize,
    misses: usize,
    evictions: usize,
}

impl<K: Hash + Eq, V: Clone> Lru<K, V> {
    /// A cache of at most `capacity` entries (0 stores nothing).
    pub fn new(capacity: usize) -> Self {
        Lru::weighted(capacity, usize::MAX, |_| 0)
    }

    /// A cache of at most `capacity` entries whose values, weighed by
    /// `weigh`, together weigh at most `max_weight`.
    pub fn weighted(capacity: usize, max_weight: usize, weigh: fn(&V) -> usize) -> Self {
        Lru {
            capacity,
            max_weight,
            weigh,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                weight: 0,
                stamp: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// The entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks `key` up, marking a hit as most recently used. Counts a hit or
    /// a miss.
    pub fn get(&self, key: &K) -> Option<V> {
        self.lookup(key, true)
    }

    /// [`Lru::get`] for a caller that will not fill a miss itself: a hit
    /// counts, a miss does not.
    pub fn probe(&self, key: &K) -> Option<V> {
        self.lookup(key, false)
    }

    fn lookup(&self, key: &K, count_miss: bool) -> Option<V> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.stamp += 1;
        match inner.map.get_mut(key) {
            Some(slot) => {
                slot.stamp = inner.stamp;
                inner.hits += 1;
                Some(slot.value.clone())
            }
            None => {
                if count_miss {
                    inner.misses += 1;
                }
                None
            }
        }
    }

    /// Stores `value` under `key` unless the key is already held, and
    /// returns the value the cache now holds for `key`: the earlier one if
    /// another caller inserted first, else `value` itself (also when it is
    /// too heavy to store).
    pub fn insert(&self, key: K, value: V) -> V {
        let weight = (self.weigh)(&value);
        if self.capacity == 0 || weight > self.max_weight {
            return value;
        }
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.stamp += 1;
        if let Some(slot) = inner.map.get_mut(&key) {
            slot.stamp = inner.stamp;
            return slot.value.clone();
        }
        while inner.map.len() >= self.capacity || inner.weight + weight > self.max_weight {
            if !inner.evict_oldest() {
                break;
            }
        }
        inner.map.insert(
            key,
            Slot {
                stamp: inner.stamp,
                weight,
                value: value.clone(),
            },
        );
        inner.weight += weight;
        value
    }

    /// Clones of every held value, taken under one lock, for aggregating
    /// over the entries outside it.
    pub fn values(&self) -> Vec<V> {
        self.lock()
            .map
            .values()
            .map(|slot| slot.value.clone())
            .collect()
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
            capacity: self.capacity,
            weight: inner.weight,
        }
    }

    /// The locked interior. Poisoning is recovered from here and nowhere
    /// else: no critical section can leave the interior half-updated.
    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<K: Hash + Eq, V> Inner<K, V> {
    /// Drops the least-recently-used entry; false if there was none.
    fn evict_oldest(&mut self) -> bool {
        let Some(oldest) = self.map.values().map(|slot| slot.stamp).min() else {
            return false;
        };
        let mut freed = 0;
        self.map.retain(|_, slot| {
            let keep = slot.stamp != oldest;
            if !keep {
                freed = slot.weight;
            }
            keep
        });
        self.weight -= freed;
        self.evictions += 1;
        true
    }
}

impl<K: Hash + Eq, V: Clone> fmt::Debug for Lru<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lru").field("stats", &self.stats()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A weighted cache of `Arc<Vec<u8>>` values weighing their length.
    fn bytes_cache(capacity: usize, max_weight: usize) -> Lru<u32, Arc<Vec<u8>>> {
        Lru::weighted(capacity, max_weight, |v| v.len())
    }

    /// The weight the cache reports, checked against its held slots.
    fn held_weight(cache: &Lru<u32, Arc<Vec<u8>>>) -> usize {
        let summed = cache.lock().map.values().map(|slot| slot.weight).sum();
        assert_eq!(cache.stats().weight, summed);
        summed
    }

    #[test]
    fn evicts_by_weight_and_refuses_oversized_values() {
        // Room for three 100-byte values by weight, ten by entries.
        let cache = bytes_cache(10, 350);
        for key in 0..8u32 {
            let value = Arc::new(vec![key as u8; 100]);
            cache.insert(key, Arc::clone(&value));
            assert!(held_weight(&cache) <= 350);
            // The newest entry is always held, and a hit shares its payload.
            let hit = cache.get(&key).unwrap();
            assert!(Arc::ptr_eq(&hit, &value));
        }
        assert_eq!(cache.stats().entries, 3);
        assert!(cache.get(&4).is_none(), "the LRU entry went first");
        // A value heavier than the whole budget is returned, never stored,
        // and storing it evicts nothing.
        let before = held_weight(&cache);
        let heavy = Arc::new(vec![0; 1000]);
        assert!(Arc::ptr_eq(&cache.insert(99, Arc::clone(&heavy)), &heavy));
        assert!(cache.get(&99).is_none());
        assert_eq!(held_weight(&cache), before);
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn entry_cap_evicts_the_least_recently_used() {
        let cache: Lru<u32, u32> = Lru::new(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        // Touch 1 so 2 is the victim when 3 arrives.
        assert_eq!(cache.get(&1), Some(10));
        cache.insert(3, 30);
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.get(&3), Some(30));
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let cache: Lru<u32, u32> = Lru::new(0);
        assert_eq!(cache.insert(1, 10), 10);
        assert_eq!(cache.get(&1), None);
        assert_eq!(
            cache.stats(),
            CacheStats {
                misses: 1,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn first_insert_wins() {
        let cache: Lru<u32, Arc<u32>> = Lru::new(4);
        let first = Arc::new(1);
        assert!(Arc::ptr_eq(&cache.insert(7, Arc::clone(&first)), &first));
        // A concurrent duplicate build gets the stored value back.
        let duplicate = cache.insert(7, Arc::new(1));
        assert!(Arc::ptr_eq(&duplicate, &first));
        assert!(Arc::ptr_eq(&cache.get(&7).unwrap(), &first));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn stats_count_hits_misses_and_evictions() {
        let cache: Lru<u32, u32> = Lru::new(2);
        assert_eq!(cache.get(&1), None);
        cache.insert(1, 10);
        assert_eq!(cache.get(&1), Some(10));
        // A probe hit counts; a probe miss does not.
        assert_eq!(cache.probe(&1), Some(10));
        assert_eq!(cache.probe(&2), None);
        cache.insert(2, 20);
        cache.insert(3, 30);
        cache.insert(4, 40);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 2,
                misses: 1,
                evictions: 2,
                entries: 2,
                capacity: 2,
                weight: 0,
            }
        );
        let mut values = cache.values();
        values.sort_unstable();
        assert_eq!(values, vec![30, 40]);
    }

    #[test]
    fn a_poisoned_lock_is_recovered() {
        let cache: Lru<u32, u32> = Lru::new(2);
        cache.insert(1, 10);
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cache.inner.lock().unwrap();
            panic!("panicked while holding the cache lock");
        }));
        assert!(poison.is_err());
        assert!(cache.inner.is_poisoned(), "test must actually poison");
        assert_eq!(cache.get(&1), Some(10));
        cache.insert(2, 20);
        assert_eq!(cache.stats().entries, 2);
    }
}
