//! Sharded LRU result cache.
//!
//! Keys are [`Identity::key`](onion_routing::Identity::key) hex digests
//! of the request's spec and options (the run policies `threads` and
//! `keep_going` excluded), values are whole JSON response bodies behind
//! an [`Arc`] so hits are O(1) clones. Sharding by key
//! hash keeps lock contention proportional to `1/shards` under
//! concurrent workers; within a shard, eviction is exact LRU by a
//! monotonic touch stamp (an O(shard-size) scan on insert, which is
//! fine at the few-hundred-entry capacities this daemon runs with).
//!
//! This is the only cache of whole responses. When the daemon runs
//! with `--store <dir>`, the durable [`crate::store`] log sits beneath
//! the computation instead, as its row cache: an LRU miss reruns the
//! sweep, which replays every stored row — so eviction from this map
//! never loses a computed result, only its memory residency.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A fixed-capacity, sharded, thread-safe LRU map from fingerprint to
/// response body.
#[derive(Debug)]
pub struct ShardedLru {
    shards: Vec<Mutex<Shard>>,
    per_shard: usize,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<String, Entry>,
    clock: u64,
}

#[derive(Debug)]
struct Entry {
    value: Arc<String>,
    stamp: u64,
}

/// FNV-1a over the key bytes; stable, fast, and dependency-free.
fn fnv1a(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl ShardedLru {
    /// A cache holding at most `capacity` entries spread over `shards`
    /// locks. `capacity == 0` disables caching entirely (every `get`
    /// misses, every `insert` is a no-op); `shards` is clamped to at
    /// least 1 and at most `capacity` so every shard can hold an entry.
    pub fn new(capacity: usize, shards: usize) -> ShardedLru {
        let shards = shards.max(1).min(capacity.max(1));
        let per_shard = capacity.div_ceil(shards);
        ShardedLru {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard,
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        &self.shards[(fnv1a(key) % self.shards.len() as u64) as usize]
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<Arc<String>> {
        if self.per_shard == 0 {
            return None;
        }
        let mut shard = self.shard(key).lock().unwrap();
        shard.clock += 1;
        let clock = shard.clock;
        shard.map.get_mut(key).map(|entry| {
            entry.stamp = clock;
            Arc::clone(&entry.value)
        })
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used
    /// entry of its shard when the shard is full.
    pub fn insert(&self, key: &str, value: Arc<String>) {
        if self.per_shard == 0 {
            return;
        }
        let mut shard = self.shard(key).lock().unwrap();
        shard.clock += 1;
        let stamp = shard.clock;
        if shard.map.len() >= self.per_shard && !shard.map.contains_key(key) {
            if let Some(oldest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            {
                shard.map.remove(&oldest);
            }
        }
        shard.map.insert(key.to_string(), Entry { value, stamp });
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().map.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc(s: &str) -> Arc<String> {
        Arc::new(s.to_string())
    }

    #[test]
    fn get_after_insert_hits() {
        let cache = ShardedLru::new(8, 2);
        assert!(cache.get("k").is_none());
        cache.insert("k", arc("v"));
        assert_eq!(cache.get("k").unwrap().as_str(), "v");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let cache = ShardedLru::new(0, 4);
        cache.insert("k", arc("v"));
        assert!(cache.get("k").is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn eviction_is_lru_within_a_shard() {
        // One shard, capacity 2: inserting a third key evicts the least
        // recently touched of the first two.
        let cache = ShardedLru::new(2, 1);
        cache.insert("a", arc("1"));
        cache.insert("b", arc("2"));
        assert!(cache.get("a").is_some()); // refresh a; b is now LRU
        cache.insert("c", arc("3"));
        assert!(cache.get("b").is_none(), "b should have been evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinserting_a_present_key_does_not_evict() {
        let cache = ShardedLru::new(2, 1);
        cache.insert("a", arc("1"));
        cache.insert("b", arc("2"));
        cache.insert("a", arc("updated"));
        assert_eq!(cache.get("a").unwrap().as_str(), "updated");
        assert!(cache.get("b").is_some());
    }

    #[test]
    fn keys_spread_over_shards() {
        let cache = ShardedLru::new(64, 8);
        for i in 0..64 {
            cache.insert(&format!("key-{i}"), arc("x"));
        }
        // With 8 shards of 8, a uniform-ish hash keeps most entries
        // resident; grossly skewed sharding would evict far more.
        assert!(cache.len() > 32, "len = {}", cache.len());
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = std::sync::Arc::new(ShardedLru::new(128, 4));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = std::sync::Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..200 {
                        let key = format!("k{}", (t * 31 + i) % 50);
                        cache.insert(&key, arc("v"));
                        let _ = cache.get(&key);
                    }
                });
            }
        });
        assert!(!cache.is_empty());
    }
}
