//! The generic sharded LRU behind every query stage.
//!
//! Same discipline as the match cache (DESIGN.md §12): shards keyed by
//! hash, per-shard entry *and* byte caps with whichever trips first
//! driving eviction, lazy recency queues, and poison recovery that
//! clears only the affected shard — a memo table may always drop
//! entries, never serve half-written ones. Keys here are
//! [`ContentHash`]es (already uniform), values are `Arc`s so readers
//! never hold a shard lock while using an entry.

use repro_ir::ContentHash;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

const SHARDS: usize = 8;

/// Counter snapshot for one stage store.
#[derive(Clone, Copy, Debug, Default, serde::Serialize)]
pub struct StoreMetrics {
    pub entries: usize,
    pub capacity: usize,
    pub capacity_bytes: usize,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub approx_bytes: u64,
    pub poison_recoveries: u64,
}

struct Slot<V> {
    value: Arc<V>,
    stamp: u64,
    bytes: usize,
}

struct Shard<V> {
    map: HashMap<u128, Slot<V>>,
    recency: VecDeque<(u128, u64)>,
    clock: u64,
    bytes: usize,
}

impl<V> Default for Shard<V> {
    fn default() -> Self {
        Shard {
            map: HashMap::new(),
            recency: VecDeque::new(),
            clock: 0,
            bytes: 0,
        }
    }
}

impl<V> Shard<V> {
    fn touch(&mut self, key: u128) {
        if let Some(slot) = self.map.get_mut(&key) {
            self.clock += 1;
            slot.stamp = self.clock;
            self.recency.push_back((key, self.clock));
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.recency.clear();
        self.bytes = 0;
    }

    fn insert(
        &mut self,
        key: u128,
        value: Arc<V>,
        bytes: usize,
        cap: usize,
        byte_cap: usize,
    ) -> u64 {
        self.clock += 1;
        let old = self.map.insert(
            key,
            Slot {
                value,
                stamp: self.clock,
                bytes,
            },
        );
        self.bytes += bytes;
        if let Some(old) = old {
            self.bytes -= old.bytes;
        }
        self.recency.push_back((key, self.clock));
        let mut evicted = 0;
        while (self.map.len() > cap || self.bytes > byte_cap) && !self.map.is_empty() {
            match self.recency.pop_front() {
                Some((k, stamp)) => {
                    if self.map.get(&k).is_some_and(|slot| slot.stamp == stamp) {
                        let slot = self.map.remove(&k).unwrap();
                        self.bytes -= slot.bytes;
                        evicted += 1;
                    }
                }
                None => break,
            }
        }
        if self.recency.len() > 4 * self.map.len() + 16 {
            let map = &self.map;
            self.recency
                .retain(|(k, stamp)| map.get(k).is_some_and(|slot| slot.stamp == *stamp));
        }
        evicted
    }
}

/// A size-capped, sharded, content-addressed memo store for one query
/// stage. `name` labels the stage's `query.<name>.hit` / `.miss`
/// registry counters.
pub struct Store<V> {
    /// Registry counter handles, resolved once — stage probes are hot
    /// (one per sub-DDG task), a name lookup per probe is not.
    hit_counter: obs::Counter,
    miss_counter: obs::Counter,
    eviction_counter: obs::Counter,
    shards: Vec<Mutex<Shard<V>>>,
    shard_cap: usize,
    capacity: usize,
    shard_byte_cap: usize,
    capacity_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    poison_recoveries: AtomicU64,
}

impl<V> Store<V> {
    /// A store bounded at `capacity` entries and `capacity_bytes`
    /// approximate bytes (0 = unbounded, independently per cap).
    pub fn new(name: &'static str, capacity: usize, capacity_bytes: usize) -> Store<V> {
        let shards = if capacity == 0 {
            SHARDS
        } else {
            SHARDS.min(capacity)
        };
        Store {
            hit_counter: obs::counter(&format!("query.{name}.hit")),
            miss_counter: obs::counter(&format!("query.{name}.miss")),
            eviction_counter: obs::counter(&format!("query.{name}.evictions")),
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_cap: if capacity == 0 {
                usize::MAX
            } else {
                capacity / shards
            },
            capacity,
            shard_byte_cap: if capacity_bytes == 0 {
                usize::MAX
            } else {
                capacity_bytes / shards
            },
            capacity_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            poison_recoveries: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: u128) -> MutexGuard<'_, Shard<V>> {
        // The key is already a content hash; fold it for shard choice.
        let idx = ((key >> 64) as u64 ^ key as u64) as usize % self.shards.len();
        let shard = &self.shards[idx];
        match shard.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.clear();
                shard.clear_poison();
                self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
                guard
            }
        }
    }

    /// Looks a key up, counting the hit or miss (registry counters
    /// `query.<name>.hit` / `query.<name>.miss`). A hit is a touch.
    pub fn get(&self, key: ContentHash) -> Option<Arc<V>> {
        let found = {
            let mut shard = self.shard_for(key.0);
            let found = shard.map.get(&key.0).map(|slot| Arc::clone(&slot.value));
            if found.is_some() {
                shard.touch(key.0);
            }
            found
        };
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.hit_counter.inc();
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.miss_counter.inc();
        }
        found
    }

    /// Looks a key up without counting a hit or a miss — for the
    /// persistence writer and other bookkeeping that must not skew the
    /// hit-rate statistics.
    pub fn peek(&self, key: ContentHash) -> Option<Arc<V>> {
        self.shard_for(key.0)
            .map
            .get(&key.0)
            .map(|slot| Arc::clone(&slot.value))
    }

    /// Inserts a value with a caller-estimated byte cost.
    pub fn put(&self, key: ContentHash, value: Arc<V>, bytes: usize) {
        let (cap, byte_cap) = (self.shard_cap, self.shard_byte_cap);
        let evicted = self
            .shard_for(key.0)
            .insert(key.0, value, bytes, cap, byte_cap);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            self.eviction_counter.add(evicted);
        }
    }

    /// Visits every resident entry (persistence writer). Shard locks
    /// are taken one at a time; entries inserted concurrently may or
    /// may not be seen.
    pub fn for_each(&self, mut f: impl FnMut(ContentHash, &Arc<V>)) {
        for shard in &self.shards {
            let guard = match shard.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            for (k, slot) in &guard.map {
                f(ContentHash(*k), &slot.value);
            }
        }
    }

    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .map
                    .len()
            })
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn approx_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .bytes as u64
            })
            .sum()
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn metrics(&self) -> StoreMetrics {
        StoreMetrics {
            entries: self.len(),
            capacity: self.capacity,
            capacity_bytes: self.capacity_bytes,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            approx_bytes: self.approx_bytes(),
            poison_recoveries: self.poison_recoveries.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_ir::fingerprint_str;

    #[test]
    fn entry_cap_evicts_lru() {
        let store: Store<u64> = Store::new("test", 1, 0);
        let (a, b) = (fingerprint_str("a"), fingerprint_str("b"));
        store.put(a, Arc::new(1), 8);
        store.put(b, Arc::new(2), 8);
        assert_eq!(store.len(), 1);
        assert!(store.get(a).is_none());
        assert_eq!(*store.get(b).unwrap(), 2);
        let m = store.metrics();
        assert_eq!(m.evictions, 1);
        assert_eq!(m.hits, 1);
        assert_eq!(m.misses, 1);
    }

    #[test]
    fn byte_cap_bounds_footprint() {
        let store: Store<u64> = Store::new("test", 1000, 100);
        // One shard would get 100/8 = 12 bytes; insert 20-byte entries
        // so each insert evicts the previous resident of its shard.
        for i in 0..50u64 {
            store.put(fingerprint_str(&i.to_string()), Arc::new(i), 20);
        }
        assert!(store.approx_bytes() <= 100);
        assert!(store.metrics().evictions > 0);
    }

    #[test]
    fn poisoned_shards_recover_by_clearing() {
        let store: Store<u64> = Store::new("test", 0, 0);
        let k = fingerprint_str("k");
        store.put(k, Arc::new(7), 8);
        for shard in &store.shards {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = shard.lock().unwrap();
                panic!("die holding the store lock");
            }));
            assert!(caught.is_err());
        }
        assert!(store.get(k).is_none(), "poisoned shard must clear");
        assert!(store.metrics().poison_recoveries >= 1);
        store.put(k, Arc::new(7), 8);
        assert_eq!(*store.get(k).unwrap(), 7);
    }
}
