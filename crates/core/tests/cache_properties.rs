//! Property tests of the executor store's cache tier against a
//! straightforward `BTreeMap` reference model: for arbitrary seeded
//! sequences of `cache_put`/`cache_get` on an unlimited store, both
//! must agree on every return value, on the cached key set, and on
//! byte accounting — and the tier must never exceed its capacity.
//!
//! Also pins the PR-2 stale-same-key bug as a named regression: a `put`
//! that rejects an oversized dataset must still drop the older version
//! cached under the same key, never leaving stale data for `get`.

use std::collections::BTreeMap;

use pado_core::runtime::store::UNLIMITED;
use pado_core::runtime::{CacheKey, ExecutorStore, Journal};
use pado_dag::{block_from_vec, Block, Value};
use proptest::prelude::*;

/// A dataset of `n` distinct I64 records.
fn dataset(salt: usize, n: usize) -> Block {
    block_from_vec(
        (0..n)
            .map(|i| Value::from((salt * 1_000 + i) as i64))
            .collect(),
    )
}

fn contents(b: &Block) -> Vec<i64> {
    b.iter().map(|v| v.as_i64().unwrap()).collect()
}

/// An unlimited store whose cache tier holds `capacity` bytes.
fn cache(capacity: usize) -> ExecutorStore {
    ExecutorStore::new(1, UNLIMITED, capacity, Journal::new())
}

/// Reference model: same policy as the cache tier, written against a plain
/// `BTreeMap` with explicit recency stamps.
struct Model {
    capacity: usize,
    clock: u64,
    used: usize,
    entries: BTreeMap<CacheKey, (Vec<i64>, usize, u64)>,
}

impl Model {
    fn new(capacity: usize) -> Self {
        Model {
            capacity,
            clock: 0,
            used: 0,
            entries: BTreeMap::new(),
        }
    }

    fn get(&mut self, key: CacheKey) -> Option<Vec<i64>> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(&key).map(|e| {
            e.2 = clock;
            e.0.clone()
        })
    }

    fn put(&mut self, key: CacheKey, data: Vec<i64>, bytes: usize) -> bool {
        // Stale same-key versions go first, even if the new one is then
        // rejected for size (the PR-2 rule).
        if let Some((_, old_bytes, _)) = self.entries.remove(&key) {
            self.used -= old_bytes;
        }
        if bytes > self.capacity {
            return false;
        }
        while self.used + bytes > self.capacity {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.2)
                .map(|(k, _)| *k)
                .expect("over capacity implies an entry");
            let (_, evicted_bytes, _) = self.entries.remove(&lru).unwrap();
            self.used -= evicted_bytes;
        }
        self.clock += 1;
        self.entries.insert(key, (data, bytes, self.clock));
        self.used += bytes;
        true
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary op sequences: the cache agrees with the model on every
    /// `put` acceptance, every `get` hit/miss and its contents, and on
    /// its keys and bytes after every step — and never holds more than
    /// its capacity.
    #[test]
    fn cache_matches_reference_model(
        capacity in 8usize..64,
        ops in proptest::collection::vec((0u8..3, 0usize..6, 0usize..10), 1..80),
    ) {
        let mut cache = cache(capacity);
        let mut model = Model::new(capacity);
        for (step, &(kind, key, size)) in ops.iter().enumerate() {
            if kind == 0 {
                let got = cache.cache_get(key).map(|b| contents(&b));
                let want = model.get(key);
                prop_assert_eq!(
                    &got, &want,
                    "step {}: get({}) disagreed (got {:?}, model {:?})",
                    step, key, got, want
                );
            } else {
                // Two put kinds so the same key sees different datasets
                // (exercises the stale-version replacement path).
                let salt = key * 10 + kind as usize;
                let data = dataset(salt, size);
                let modeled = model.put(key, contents(&data), data.encoded_len());
                let cached = cache.cache_put(key, data);
                prop_assert_eq!(
                    cached, modeled,
                    "step {}: put({}, {} records) acceptance disagreed",
                    step, key, size
                );
            }
            let model_keys: Vec<CacheKey> = model.entries.keys().copied().collect();
            prop_assert_eq!(cache.cache_keys(), model_keys, "step {}: keys", step);
            prop_assert_eq!(cache.cache_bytes(), model.used, "step {}: cache_bytes", step);
            prop_assert!(
                cache.cache_bytes() <= capacity,
                "step {}: cache over capacity ({} > {})",
                step, cache.cache_bytes(), capacity
            );
        }
        // Final sweep: every key the model holds is servable with the
        // exact same contents, and no extra keys survive in the cache.
        let model_keys: Vec<CacheKey> = model.entries.keys().copied().collect();
        prop_assert_eq!(cache.cache_keys(), model_keys);
        for (key, (data, _, _)) in &model.entries {
            let got = cache.cache_get(*key).map(|b| contents(&b));
            prop_assert_eq!(got.as_ref(), Some(data));
        }
    }
}

/// The PR-2 regression, by name: rejecting an oversized dataset must not
/// leave the *previous* version under the same key servable.
#[test]
fn oversized_put_drops_stale_same_key_version() {
    let mut cache = cache(dataset(1, 2).encoded_len());
    assert!(cache.cache_put(7, dataset(1, 2)), "small dataset fits");
    assert!(cache.cache_get(7).is_some());
    assert!(
        !cache.cache_put(7, dataset(2, 100)),
        "oversized dataset must be rejected"
    );
    assert!(
        cache.cache_get(7).is_none(),
        "stale version must not survive the rejected put"
    );
    assert_eq!(cache.cache_bytes(), 0);
    assert!(cache.cache_keys().is_empty());
}
