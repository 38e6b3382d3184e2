//! The one sharded LRU behind every query stage, the match stage
//! included (DESIGN.md §14).
//!
//! Shards keyed by hash, per-shard entry *and* byte caps with whichever
//! trips first driving eviction, lazy recency queues, and poison
//! recovery that clears only the affected shard — a memo table may
//! always drop entries, never serve half-written ones. Each key is held
//! once behind an `Arc` that the map and the recency queue share, so a
//! key is never copied; values are `Arc`s so readers never hold a shard
//! lock while using an entry.

use repro_ir::ContentHash;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Maximum shard count: enough to spread concurrent workers, small
/// enough that clearing one poisoned shard (or evicting from one) loses
/// little. Smaller capacities use one shard per entry so the global
/// bound — and the eviction order — stays exact.
const SHARDS: usize = 8;

/// A store key: hashable for the shard maps, plus the hash that picks
/// its shard.
pub trait ShardKey: Hash + Eq {
    /// SipHash with fixed keys unless overridden, so a key lands in the
    /// same shard in every process.
    fn shard_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// Content hashes fold their two 64-bit lanes. For a `ContentHasher`
/// digest both lanes are FNV-1a over the same bytes, so the fold's low
/// three bits take only two values: an 8-shard store keyed by such
/// hashes fills 2 of its shards and holds at most a quarter of its
/// entry and byte caps. `WordHasher` digests mix each lane on its own
/// and fold evenly.
impl ShardKey for ContentHash {
    fn shard_hash(&self) -> u64 {
        (self.0 >> 64) as u64 ^ self.0 as u64
    }
}

/// Counter snapshot for one stage store.
#[derive(Clone, Copy, Debug, Default, serde::Serialize)]
pub struct StoreMetrics {
    pub entries: usize,
    /// Entry capacity (0 = unbounded).
    pub capacity: usize,
    /// Byte capacity (0 = unbounded); eviction honors whichever of the
    /// entry and byte caps trips first.
    pub capacity_bytes: usize,
    pub hits: u64,
    pub misses: u64,
    /// Entries dropped to keep the store under capacity.
    pub evictions: u64,
    /// Approximate resident footprint, as estimated by the callers.
    pub approx_bytes: u64,
    /// Poisoned shards recovered (cleared and reused). Each event is a
    /// shard's worth of memoized entries dropped, never wrong data
    /// served.
    pub poison_recoveries: u64,
}

struct Slot<K, V> {
    /// The map's own key, so a touch can queue it without a second
    /// lookup.
    key: Arc<K>,
    value: Arc<V>,
    /// Last-touch stamp; recency-queue pairs with an older stamp are
    /// stale and skipped at eviction time.
    stamp: u64,
    bytes: usize,
}

/// One shard: the memo map plus its lazy recency queue. All state that
/// eviction and poison recovery must keep coherent lives under one lock.
struct Shard<K, V> {
    map: HashMap<Arc<K>, Slot<K, V>>,
    /// `(key, stamp)` in touch order; an entry's *current* stamp lives
    /// in its [`Slot`], so only the newest pair per key is live.
    recency: VecDeque<(Arc<K>, u64)>,
    clock: u64,
    bytes: usize,
}

impl<K: ShardKey, V> Shard<K, V> {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            recency: VecDeque::new(),
            clock: 0,
            bytes: 0,
        }
    }

    /// Looks a key up; a hit is a touch.
    fn get(&mut self, key: &K) -> Option<Arc<V>> {
        let slot = self.map.get_mut(key)?;
        self.clock += 1;
        slot.stamp = self.clock;
        self.recency.push_back((Arc::clone(&slot.key), self.clock));
        Some(Arc::clone(&slot.value))
    }

    fn clear(&mut self) {
        self.map.clear();
        self.recency.clear();
        self.bytes = 0;
    }

    /// Inserts an entry, then evicts least-recently-touched entries
    /// until the shard is back under `cap` entries *and* `byte_cap`
    /// approximate bytes. Returns evictions performed.
    fn insert(&mut self, key: K, value: Arc<V>, bytes: usize, cap: usize, byte_cap: usize) -> u64 {
        self.clock += 1;
        let stamp = self.clock;
        let slot = |key: &Arc<K>| Slot {
            key: Arc::clone(key),
            value,
            stamp,
            bytes,
        };
        let key = match self.map.entry(Arc::new(key)) {
            // Re-inserting a resident key (say, two workers fulfilling
            // one miss) keeps the resident copy; the equal new one is
            // dropped here instead of living on in the slot.
            Entry::Occupied(mut e) => {
                let key = Arc::clone(e.key());
                self.bytes -= e.insert(slot(&key)).bytes;
                key
            }
            Entry::Vacant(e) => {
                let key = Arc::clone(e.key());
                e.insert(slot(&key));
                key
            }
        };
        self.bytes += bytes;
        self.recency.push_back((key, stamp));
        let mut evicted = 0;
        while (self.map.len() > cap || self.bytes > byte_cap) && !self.map.is_empty() {
            let Some((k, stamp)) = self.recency.pop_front() else {
                break; // unreachable: every entry has a live pair
            };
            // Live pair (stamp matches the slot's): evict. Stale pair
            // (touched again later, or already gone): skip; its live
            // pair is further back.
            if let Entry::Occupied(e) = self.map.entry(k) {
                if e.get().stamp == stamp {
                    self.bytes -= e.remove().bytes;
                    evicted += 1;
                }
            }
        }
        // Compact the lazy queue when stale pairs dominate, so repeated
        // touches of a hot entry cannot grow it without bound.
        if self.recency.len() > 4 * self.map.len() + 16 {
            let map = &self.map;
            self.recency
                .retain(|(k, stamp)| map.get(&**k).is_some_and(|slot| slot.stamp == *stamp));
        }
        evicted
    }
}

/// A size-capped, sharded memo store for one query stage. `name`
/// labels the stage's `query.<name>.{hit,miss,evictions}` registry
/// counters.
pub struct Store<K, V> {
    /// Registry counter handles, resolved once — stage probes are hot
    /// (one per sub-DDG task), a name lookup per probe is not.
    hit_counter: obs::Counter,
    miss_counter: obs::Counter,
    eviction_counter: obs::Counter,
    shards: Vec<Mutex<Shard<K, V>>>,
    shard_cap: usize,
    capacity: usize,
    shard_byte_cap: usize,
    capacity_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    poison_recoveries: AtomicU64,
}

impl<K: ShardKey, V> Store<K, V> {
    /// A store bounded at `capacity` entries and `capacity_bytes`
    /// approximate bytes (0 = unbounded, independently per cap). Both
    /// budgets split evenly across shards, so the effective totals
    /// round down to a multiple of the shard count — never above the
    /// caps; a capacity-1 store is a single deterministic LRU slot.
    pub fn new(name: &'static str, capacity: usize, capacity_bytes: usize) -> Store<K, V> {
        let shards = if capacity == 0 {
            SHARDS
        } else {
            SHARDS.min(capacity)
        };
        Store::with_shards(name, capacity, capacity_bytes, shards)
    }

    /// [`Store::new`] with the shard count pinned (tests pin one shard
    /// so the eviction order is a single global LRU).
    fn with_shards(
        name: &'static str,
        capacity: usize,
        capacity_bytes: usize,
        shards: usize,
    ) -> Store<K, V> {
        Store {
            hit_counter: obs::counter(&format!("query.{name}.hit")),
            miss_counter: obs::counter(&format!("query.{name}.miss")),
            eviction_counter: obs::counter(&format!("query.{name}.evictions")),
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
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

    /// Locks the shard holding `key`. A poisoned shard — a thread
    /// panicked mid-update, e.g. an injected model fault — is *cleared*
    /// and recovered: dropping entries only costs future hits, whereas
    /// serving a half-updated one could break parity. Its siblings keep
    /// their entries, and the event is counted in
    /// [`StoreMetrics::poison_recoveries`].
    fn shard_for(&self, key: &K) -> MutexGuard<'_, Shard<K, V>> {
        let shard = &self.shards[key.shard_hash() as usize % self.shards.len()];
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

    /// Looks a key up, counting the hit or miss. A hit is a touch: the
    /// entry moves to the back of its shard's eviction order.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let found = self.shard_for(key).get(key);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.hit_counter.inc();
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.miss_counter.inc();
        }
        found
    }

    /// Whether a key is resident, counting neither a hit nor a miss (a
    /// gate consulted before a stage, which counts its own outcome) and
    /// leaving the eviction order as it is: a key that is only ever
    /// checked ages out in insertion order.
    pub fn contains(&self, key: &K) -> bool {
        self.shard_for(key).map.contains_key(key)
    }

    /// Inserts a value with a caller-estimated byte cost, evicting the
    /// shard's least recently used entries if it runs over either cap.
    pub fn put(&self, key: K, value: Arc<V>, bytes: usize) {
        let (cap, byte_cap) = (self.shard_cap, self.shard_byte_cap);
        let evicted = self
            .shard_for(&key)
            .insert(key, value, bytes, cap, byte_cap);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            self.eviction_counter.add(evicted);
        }
    }

    /// Visits every resident entry without counting hits or misses
    /// (persistence writer). Shard locks are taken one at a time;
    /// entries inserted concurrently may or may not be seen.
    pub fn for_each(&self, mut f: impl FnMut(&K, &Arc<V>)) {
        for shard in &self.shards {
            let guard = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for (k, slot) in &guard.map {
                f(k, &slot.value);
            }
        }
    }

    /// Sums one per-shard figure across shards.
    fn sum(&self, f: impl Fn(&Shard<K, V>) -> usize) -> usize {
        self.shards
            .iter()
            .map(|s| f(&s.lock().unwrap_or_else(std::sync::PoisonError::into_inner)))
            .sum()
    }

    pub fn len(&self) -> usize {
        self.sum(|s| s.map.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn approx_bytes(&self) -> u64 {
        self.sum(|s| s.bytes) as u64
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

    impl ShardKey for &'static str {}
    impl ShardKey for u64 {}

    /// A single-shard store: one global LRU, so eviction order is exact.
    fn one_shard(capacity: usize, capacity_bytes: usize) -> Store<&'static str, u64> {
        Store::with_shards("test", capacity, capacity_bytes, 1)
    }

    #[test]
    fn byte_cap_bounds_footprint() {
        let store: Store<ContentHash, u64> = Store::new("test", 1000, 100);
        // One shard would get 100/8 = 12 bytes; insert 20-byte entries
        // so each insert evicts the previous resident of its shard.
        for i in 0..50u64 {
            store.put(fingerprint_str(&i.to_string()), Arc::new(i), 20);
        }
        assert!(store.approx_bytes() <= 100);
        assert!(store.metrics().evictions > 0);
    }

    #[test]
    fn poisoned_shards_are_cleared_and_recovered() {
        let store: Store<&str, u64> = Store::new("test", 0, 0);
        store.put("k", Arc::new(7), 8);
        assert_eq!(store.len(), 1);

        // Panic while holding every shard lock: all shards poisoned.
        for shard in &store.shards {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = shard.lock().unwrap();
                panic!("die holding the store lock");
            }));
            assert!(caught.is_err());
        }

        // The next lookup recovers its shard (cleared, so it misses) and
        // the store keeps working: put + get hits again.
        assert!(store.get(&"k").is_none(), "poisoned shard must clear");
        assert!(store.metrics().poison_recoveries >= 1);
        store.put("k", Arc::new(7), 8);
        assert_eq!(*store.get(&"k").unwrap(), 7);
        let m = store.metrics();
        assert!(m.poison_recoveries >= 1);
        assert_eq!(m.hits, 1);
        assert_eq!(m.approx_bytes, 8, "recovery resets the byte count");
    }

    #[test]
    fn capacity_one_cache_evicts_deterministically() {
        let store: Store<&str, u64> = Store::new("test", 1, 0);
        assert_eq!(store.metrics().capacity, 1);
        store.put("a", Arc::new(1), 8);
        assert_eq!(store.len(), 1);
        assert!(store.approx_bytes() > 0);
        assert_eq!(*store.get(&"a").unwrap(), 1);

        // Inserting a second key evicts the first — the store never
        // exceeds one entry.
        store.put("b", Arc::new(2), 8);
        assert_eq!(store.len(), 1);
        assert!(store.get(&"a").is_none(), "evicted key must miss");
        assert_eq!(*store.get(&"b").unwrap(), 2, "resident key must hit");
        let m = store.metrics();
        assert_eq!(m.evictions, 1);
        assert_eq!(m.hits, 2);
        assert_eq!(m.misses, 1);
    }

    #[test]
    fn hits_refresh_recency_so_the_cold_entry_evicts() {
        // Single shard, three slots: A, B, C resident, A touched, D
        // inserted → B (the least recently touched) evicts.
        let store = one_shard(3, 0);
        for k in ["a", "b", "c"] {
            store.put(k, Arc::new(0), 8);
        }
        assert!(store.get(&"a").is_some());
        store.put("d", Arc::new(0), 8);
        assert_eq!(store.len(), 3);
        assert_eq!(store.metrics().evictions, 1);
        assert!(store.get(&"a").is_some());
        assert!(
            store.get(&"b").is_none(),
            "B was the least recently used entry"
        );
        assert!(store.get(&"c").is_some());
        assert!(store.get(&"d").is_some());
    }

    #[test]
    fn repeated_hits_do_not_grow_the_recency_queue_without_bound() {
        let store = one_shard(2, 0);
        store.put("a", Arc::new(0), 8);
        for _ in 0..1000 {
            assert!(store.get(&"a").is_some());
        }
        // The lazy queue compacts on insert; after one more put it must
        // be proportional to the live entry count, not the touch count.
        store.put("b", Arc::new(0), 8);
        let queue_len = store.shards[0].lock().unwrap().recency.len();
        assert!(queue_len <= 4 * 2 + 16, "queue grew to {queue_len}");
        assert_eq!(store.len(), 2);
        assert_eq!(store.metrics().evictions, 0);
    }

    #[test]
    fn contains_neither_counts_nor_touches() {
        let store = one_shard(2, 0);
        store.put("a", Arc::new(0), 8);
        store.put("b", Arc::new(0), 8);
        assert!(store.contains(&"a"));
        assert!(!store.contains(&"z"));
        let m = store.metrics();
        assert_eq!((m.hits, m.misses), (0, 0));
        // "a" was only checked, so it is still the oldest entry.
        store.put("c", Arc::new(0), 8);
        assert!(!store.contains(&"a") && store.contains(&"b"));
        assert_eq!(
            store.shards[0].lock().unwrap().recency.len(),
            2,
            "checks queue nothing"
        );
    }

    #[test]
    fn unbounded_capacity_never_evicts() {
        let store: Store<u64, u64> = Store::new("test", 0, 0);
        assert_eq!(store.metrics().capacity, 0);
        for i in 2..40u64 {
            store.put(i, Arc::new(i), 8);
        }
        assert_eq!(store.len(), 38);
        assert_eq!(store.metrics().evictions, 0);
    }

    #[test]
    fn bytes_accounting_tracks_insert_and_evict() {
        let store = one_shard(1, 0);
        store.put("small", Arc::new(0), 24);
        let small = store.approx_bytes();
        assert_eq!(small, 24);
        store.put("big", Arc::new(0), 72); // evicts the small entry
        let big = store.approx_bytes();
        assert!(big > small);
        let m = store.metrics();
        assert_eq!(m.entries, 1);
        assert_eq!(m.evictions, 1);
        assert_eq!(m.approx_bytes, big);
        assert_eq!(m.approx_bytes, 72, "the evicted entry's bytes are returned");
        assert_eq!(m.capacity, 1);
    }

    /// Byte cost of one entry in the byte-cap tests.
    const UNIT: usize = 40;

    #[test]
    fn byte_cap_alone_bounds_the_footprint() {
        // Entry cap unbounded; byte budget fits two unit entries.
        let store = one_shard(0, 2 * UNIT);
        for k in ["fadd", "fmul", "fsub"] {
            store.put(k, Arc::new(0), UNIT);
        }
        assert_eq!(store.len(), 2, "third insert must evict by bytes");
        assert_eq!(store.metrics().evictions, 1);
        assert!(store.approx_bytes() as usize <= 2 * UNIT);
        // LRU order: the first-inserted key is the one gone.
        assert!(store.get(&"fadd").is_none());
        assert!(store.get(&"fsub").is_some());
        let m = store.metrics();
        assert_eq!(m.capacity, 0);
        assert_eq!(m.capacity_bytes, 2 * UNIT);
        assert_eq!(m.entries, 2);
    }

    #[test]
    fn whichever_cap_trips_first_wins() {
        // Byte budget generous, entry cap of 1: entries evict first.
        let by_entries = one_shard(1, 100 * UNIT);
        by_entries.put("fadd", Arc::new(0), UNIT);
        by_entries.put("fmul", Arc::new(0), UNIT);
        assert_eq!(by_entries.len(), 1);
        assert_eq!(by_entries.metrics().evictions, 1);

        // Entry cap generous, byte budget of one entry: bytes evict
        // first, holding entries below the entry cap.
        let by_bytes = one_shard(100, UNIT);
        by_bytes.put("fadd", Arc::new(0), UNIT);
        by_bytes.put("fmul", Arc::new(0), UNIT);
        assert_eq!(by_bytes.len(), 1);
        assert_eq!(by_bytes.metrics().evictions, 1);
        assert!(by_bytes.approx_bytes() as usize <= UNIT);
    }

    #[test]
    fn entry_larger_than_the_byte_budget_is_not_retained() {
        // A budget smaller than any single entry: the store keeps
        // nothing, but every get/put cycle still works (the value is
        // simply recomputed each time).
        let store = one_shard(0, 8);
        store.put("k", Arc::new(0), UNIT);
        assert_eq!(store.len(), 0);
        assert_eq!(store.approx_bytes(), 0);
        assert!(
            store.get(&"k").is_none(),
            "oversized entry must not be resident"
        );
        store.put("k", Arc::new(0), UNIT);
        assert_eq!(store.len(), 0);
    }
}
