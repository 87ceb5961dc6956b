//! A byte-bounded LRU cache for task input caching (§3.2.7).
//!
//! Executors cache broadcast inputs (e.g. the latest ML model) so that
//! tasks scheduled on the same executor do not need the data re-sent from
//! reserved executors. When the cache fills, the least recently used entry
//! is evicted.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use pado_dag::Block;

use crate::runtime::store::block_bytes;

/// Cache key: the plan-wide id of the fused operator whose output is
/// cached, qualified by the consumer-side routing (broadcast inputs are
/// whole datasets, so the fop id suffices).
pub type CacheKey = usize;

/// A byte-bounded LRU cache of materialized input datasets.
#[derive(Debug)]
pub struct LruCache {
    capacity_bytes: usize,
    used_bytes: usize,
    clock: u64,
    entries: BTreeMap<CacheKey, Entry>,
    /// Pin counts of entries currently read by running tasks: pinned
    /// entries are never evicted or shed (a put that would need to
    /// evict a pinned entry is refused instead).
    pins: HashMap<CacheKey, usize>,
}

#[derive(Debug)]
struct Entry {
    data: Block,
    bytes: usize,
    last_used: u64,
}

impl LruCache {
    /// Creates a cache bounded to `capacity_bytes`.
    pub fn new(capacity_bytes: usize) -> Self {
        LruCache {
            capacity_bytes,
            used_bytes: 0,
            clock: 0,
            entries: BTreeMap::new(),
            pins: HashMap::new(),
        }
    }

    /// Bytes currently held.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// The configured capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Number of cached datasets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a dataset, refreshing its recency.
    pub fn get(&mut self, key: CacheKey) -> Option<Block> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(&key).map(|e| {
            e.last_used = clock;
            Arc::clone(&e.data)
        })
    }

    /// Inserts a dataset, evicting least-recently-used unpinned entries
    /// as needed.
    ///
    /// Datasets larger than the whole capacity are not cached at all, but
    /// any older version under the same key is still dropped so the cache
    /// never serves stale data. A put that could only fit by evicting
    /// pinned entries is refused. Returns whether the dataset was cached.
    pub fn put(&mut self, key: CacheKey, data: Block) -> bool {
        let bytes = block_bytes(&data);
        // Drop any existing version of this key *before* deciding whether
        // the new one fits: rejecting an oversized dataset must not leave a
        // stale version behind for `get` to serve.
        if let Some(old) = self.entries.remove(&key) {
            self.used_bytes -= old.bytes;
        }
        if bytes > self.capacity_bytes {
            return false;
        }
        while self.used_bytes + bytes > self.capacity_bytes {
            if self.shed_lru_unpinned().is_none() {
                // Only pinned entries remain: refuse rather than evict
                // data a running task is reading.
                return false;
            }
        }
        self.clock += 1;
        self.entries.insert(
            key,
            Entry {
                data,
                bytes,
                last_used: self.clock,
            },
        );
        self.used_bytes += bytes;
        true
    }

    /// Keys currently cached, ascending.
    pub fn keys(&self) -> Vec<CacheKey> {
        self.entries.keys().copied().collect()
    }

    /// Pins a cached entry for the duration of a task that reads it.
    /// Returns false when the key is not cached.
    pub fn pin(&mut self, key: CacheKey) -> bool {
        if !self.entries.contains_key(&key) {
            return false;
        }
        *self.pins.entry(key).or_insert(0) += 1;
        true
    }

    /// Drops one pin of an entry; unknown keys are tolerated.
    pub fn unpin(&mut self, key: CacheKey) {
        if let Some(n) = self.pins.get_mut(&key) {
            *n -= 1;
            if *n == 0 {
                self.pins.remove(&key);
            }
        }
    }

    /// Evicts the least-recently-used unpinned entry, returning the
    /// bytes freed (None when every entry is pinned or the cache is
    /// empty). Used for its own evictions and when the executor store
    /// needs combined-budget headroom.
    pub fn shed_lru_unpinned(&mut self) -> Option<usize> {
        let lru = self
            .entries
            .iter()
            .filter(|(k, _)| self.pins.get(*k).copied().unwrap_or(0) == 0)
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| *k)?;
        let evicted = self.entries.remove(&lru)?;
        self.used_bytes -= evicted.bytes;
        Some(evicted.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pado_dag::{block_from_vec, Value};

    fn dataset(n_records: usize) -> Block {
        block_from_vec((0..n_records).map(|i| Value::from(i as i64)).collect())
    }

    /// Encoded size of the `n`-record test dataset (what the cache
    /// accounts); strictly increasing in `n` for these contents.
    fn sz(n: usize) -> usize {
        block_bytes(&dataset(n))
    }

    #[test]
    fn get_refreshes_recency() {
        let mut c = LruCache::new(3 * sz(1));
        c.put(1, dataset(1));
        c.put(2, dataset(1));
        c.put(3, dataset(1));
        // Touch 1 so 2 becomes the LRU.
        assert!(c.get(1).is_some());
        c.put(4, dataset(1));
        assert!(c.get(2).is_none(), "2 was least recently used");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert!(c.get(4).is_some());
    }

    #[test]
    fn oversized_entry_is_rejected() {
        let mut c = LruCache::new(sz(2) - 1);
        assert!(!c.put(1, dataset(2)));
        assert!(c.is_empty());
    }

    #[test]
    fn oversized_reinsert_drops_the_stale_version() {
        assert!(sz(2) > sz(1));
        let mut c = LruCache::new(sz(1));
        assert!(c.put(1, dataset(1)));
        // The new version no longer fits; the cache must not keep serving
        // the old one.
        assert!(!c.put(1, dataset(2)));
        assert!(c.get(1).is_none(), "stale entry survived oversized put");
        assert_eq!(c.used_bytes(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn reinsert_replaces_bytes() {
        let mut c = LruCache::new(1000);
        c.put(1, dataset(5));
        assert_eq!(c.used_bytes(), sz(5));
        c.put(1, dataset(2));
        assert_eq!(c.used_bytes(), sz(2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_frees_enough_space() {
        assert!(sz(8) > sz(5));
        let mut c = LruCache::new(2 * sz(5));
        c.put(1, dataset(5));
        c.put(2, dataset(5));
        c.put(3, dataset(8)); // does not fit beside either 5-record entry
        assert!(c.get(1).is_none());
        assert!(c.get(2).is_none());
        assert!(c.get(3).is_some());
        assert_eq!(c.used_bytes(), sz(8));
    }

    #[test]
    fn pinned_entries_are_never_evicted() {
        let mut c = LruCache::new(sz(1) + sz(2));
        c.put(1, dataset(1));
        c.put(2, dataset(1));
        assert!(c.pin(1));
        assert!(c.pin(2));
        assert!(!c.pin(99), "cannot pin what is not cached");
        // Fitting the 2-record dataset would need an eviction, but both
        // entries are pinned: the put is refused and nothing is evicted.
        assert!(!c.put(3, dataset(2)));
        assert!(c.get(1).is_some());
        assert!(c.get(2).is_some());
        c.unpin(2);
        assert!(c.put(3, dataset(2)));
        assert!(c.get(2).is_none(), "unpinned entry was shed");
        assert!(c.get(1).is_some(), "pinned entry survived");
    }

    #[test]
    fn keys_lists_entries() {
        let mut c = LruCache::new(1000);
        c.put(7, dataset(1));
        c.put(9, dataset(1));
        let mut keys = c.keys();
        keys.sort_unstable();
        assert_eq!(keys, vec![7, 9]);
    }
}
