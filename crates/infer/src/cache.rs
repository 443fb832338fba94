//! The serving-side result cache.
//!
//! Production inference traffic is heavily repetitive: the same sample is
//! retried, the same canonical inputs recur, and preprocessing pipelines
//! quantise nearby raw inputs onto identical normalised features. The cache
//! keys on the **encoding fingerprint** — the exact bit pattern of the
//! sample's rotation-angle vector — so any two inputs the quantum circuits
//! cannot distinguish share one entry, and a hit returns the *identical*
//! fidelity vector a fresh evaluation would produce (deterministic
//! estimators only; stochastic estimators bypass the cache entirely).
//!
//! Eviction is least-recently-used over a fixed capacity. The
//! implementation is dependency-free: a `HashMap` from fingerprint to
//! `(fidelities, last-use tick)`, plus a `BTreeMap` from tick to
//! fingerprint that orders the residents by recency. A hit moves one entry
//! in the index and an eviction pops its first entry, both `O(log n)`.
//! A full scan per eviction would not be noise: with distinct inputs at
//! the default capacity it cost about 10 µs per miss, more than a compiled
//! product-state model spends scoring the sample.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Counters describing cache effectiveness, retrievable through
/// `CompiledModel::cache_stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to circuit evaluation.
    pub misses: u64,
    /// Resident entries displaced to make room for new ones.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries (0 = caching disabled).
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The encoding fingerprint of a sample: the exact bits of its rotation
/// angles. Equal fingerprints ⇒ indistinguishable inputs downstream.
pub(crate) fn fingerprint(angles: &[f64]) -> Vec<u64> {
    angles.iter().map(|a| a.to_bits()).collect()
}

/// A resident's fingerprint, shared by the map and the recency index.
type Fingerprint = Arc<[u64]>;

/// A fixed-capacity LRU map from encoding fingerprint to per-class
/// fidelities.
#[derive(Clone, Debug)]
pub(crate) struct EncodingCache {
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    map: HashMap<Fingerprint, (Box<[f64]>, u64)>,
    /// Every resident's last-use tick → its fingerprint (shared with
    /// `map`, not copied); the first entry is the least recently used.
    recency: BTreeMap<u64, Fingerprint>,
}

impl EncodingCache {
    pub(crate) fn new(capacity: usize) -> Self {
        EncodingCache {
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            map: HashMap::with_capacity(capacity.min(1024)),
            recency: BTreeMap::new(),
        }
    }

    /// Looks a fingerprint up, refreshing its recency on a hit.
    pub(crate) fn get(&mut self, key: &[u64]) -> Option<Vec<f64>> {
        if self.capacity == 0 {
            return None;
        }
        self.tick += 1;
        match self.map.get_mut(key) {
            Some((fidelities, last_used)) => {
                touch(&mut self.recency, last_used, self.tick);
                self.hits += 1;
                Some(fidelities.to_vec())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) an entry, evicting the least-recently-used
    /// one when at capacity.
    pub(crate) fn insert(&mut self, key: Vec<u64>, fidelities: Vec<f64>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if let Some((value, last_used)) = self.map.get_mut(key.as_slice()) {
            touch(&mut self.recency, last_used, self.tick);
            *value = fidelities.into_boxed_slice();
            return;
        }
        if self.map.len() >= self.capacity {
            if let Some((_, oldest)) = self.recency.pop_first() {
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
        let key: Fingerprint = key.into();
        self.recency.insert(self.tick, Arc::clone(&key));
        self.map
            .insert(key, (fidelities.into_boxed_slice(), self.tick));
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
            capacity: self.capacity,
        }
    }
}

/// Moves a resident from its last-use tick to `tick` in the recency index.
fn touch(recency: &mut BTreeMap<u64, Fingerprint>, last_used: &mut u64, tick: u64) {
    let key = recency
        .remove(last_used)
        .expect("every resident is indexed by its tick");
    recency.insert(tick, key);
    *last_used = tick;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = EncodingCache::new(2);
        c.insert(vec![1], vec![0.1]);
        c.insert(vec![2], vec![0.2]);
        // Touch key 1 so key 2 becomes the LRU entry.
        assert_eq!(c.get(&[1]), Some(vec![0.1]));
        c.insert(vec![3], vec![0.3]);
        assert_eq!(c.get(&[2]), None, "LRU entry should have been evicted");
        assert_eq!(c.get(&[1]), Some(vec![0.1]));
        assert_eq!(c.get(&[3]), Some(vec![0.3]));
        assert_eq!(c.stats().entries, 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = EncodingCache::new(0);
        c.insert(vec![1], vec![0.1]);
        assert_eq!(c.get(&[1]), None);
        let s = c.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.hits, 0);
        // Disabled lookups are not counted as misses either.
        assert_eq!(s.misses, 0);
        assert_eq!(s.capacity, 0);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut c = EncodingCache::new(4);
        assert!(c.get(&[9]).is_none());
        c.insert(vec![9], vec![1.0]);
        assert!(c.get(&[9]).is_some());
        assert!(c.get(&[9]).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn fingerprints_are_exact_bit_patterns() {
        assert_eq!(
            fingerprint(&[0.5, -0.0]),
            vec![0.5f64.to_bits(), (-0.0f64).to_bits()]
        );
        // -0.0 and 0.0 differ as fingerprints: they are different bit
        // patterns, and exactness is the contract.
        assert_ne!(fingerprint(&[0.0]), fingerprint(&[-0.0]));
    }

    #[test]
    fn reinserting_refreshes_instead_of_duplicating() {
        let mut c = EncodingCache::new(2);
        c.insert(vec![1], vec![0.1]);
        c.insert(vec![1], vec![0.9]);
        assert_eq!(c.stats().entries, 1);
        assert_eq!(c.get(&[1]), Some(vec![0.9]));
    }

    #[test]
    fn capacity_one_keeps_exactly_the_most_recent_insertion() {
        let mut c = EncodingCache::new(1);
        c.insert(vec![1], vec![0.1]);
        assert_eq!(c.get(&[1]), Some(vec![0.1]));
        // Inserting a second key evicts the first (the only possible LRU
        // victim at capacity 1)…
        c.insert(vec![2], vec![0.2]);
        assert_eq!(c.stats().entries, 1);
        assert_eq!(c.get(&[1]), None);
        assert_eq!(c.get(&[2]), Some(vec![0.2]));
        // …and the order keeps rotating: every new key displaces the last.
        c.insert(vec![3], vec![0.3]);
        assert_eq!(c.get(&[2]), None);
        assert_eq!(c.get(&[3]), Some(vec![0.3]));
        assert_eq!(c.stats().entries, 1);
    }

    #[test]
    fn reinserting_at_capacity_does_not_evict_another_entry() {
        // A duplicate-key insert is a refresh, not a new resident: with the
        // map full, re-inserting an existing key must leave every other
        // entry alone.
        let mut c = EncodingCache::new(2);
        c.insert(vec![1], vec![0.1]);
        c.insert(vec![2], vec![0.2]);
        c.insert(vec![1], vec![0.15]);
        assert_eq!(c.stats().entries, 2);
        assert_eq!(c.get(&[2]), Some(vec![0.2]), "untouched entry survives");
        assert_eq!(c.get(&[1]), Some(vec![0.15]), "refresh updated the value");
    }

    #[test]
    fn reinsertion_refreshes_recency_for_eviction_purposes() {
        let mut c = EncodingCache::new(2);
        c.insert(vec![1], vec![0.1]);
        c.insert(vec![2], vec![0.2]);
        // Re-inserting key 1 makes key 2 the LRU victim.
        c.insert(vec![1], vec![0.11]);
        c.insert(vec![3], vec![0.3]);
        assert_eq!(c.get(&[2]), None, "stale entry should have been evicted");
        assert_eq!(c.get(&[1]), Some(vec![0.11]));
        assert_eq!(c.get(&[3]), Some(vec![0.3]));
    }

    #[test]
    fn accounting_survives_eviction_churn() {
        // hits/misses are lookup counters, not residency counters: eviction
        // churn must not rewrite history, and `entries` tracks only the
        // current residents.
        let mut c = EncodingCache::new(2);
        for k in 0..6u64 {
            assert_eq!(c.get(&[k]), None); // 6 misses
            c.insert(vec![k], vec![k as f64]);
        }
        assert_eq!(c.stats().entries, 2);
        assert_eq!(c.stats().misses, 6);
        assert_eq!(c.stats().hits, 0);
        // 6 inserts into a capacity-2 cache displaced 4 residents.
        assert_eq!(c.stats().evictions, 4);
        // The two most recent keys are resident; older ones miss again.
        assert!(c.get(&[5]).is_some());
        assert!(c.get(&[4]).is_some());
        assert!(c.get(&[0]).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 7));
        assert!((s.hit_rate() - 2.0 / 9.0).abs() < 1e-12);
        assert_eq!(s.capacity, 2);
    }

    /// The eviction policy spelled out the slow way: a list ordered from
    /// least to most recently used.
    struct NaiveLru {
        capacity: usize,
        order: Vec<(Vec<u64>, Vec<f64>)>,
        evictions: u64,
    }

    impl NaiveLru {
        fn get(&mut self, key: &[u64]) -> Option<Vec<f64>> {
            let i = self.order.iter().position(|(k, _)| k == key)?;
            let entry = self.order.remove(i);
            self.order.push(entry);
            self.order.last().map(|(_, v)| v.clone())
        }

        fn insert(&mut self, key: Vec<u64>, value: Vec<f64>) {
            if let Some(i) = self.order.iter().position(|(k, _)| *k == key) {
                self.order.remove(i);
            } else if self.order.len() >= self.capacity {
                self.order.remove(0);
                self.evictions += 1;
            }
            self.order.push((key, value));
        }
    }

    #[test]
    fn churn_at_default_capacity_evicts_in_naive_lru_order() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let capacity = crate::compiled::DEFAULT_CACHE_CAPACITY;
        let mut cache = EncodingCache::new(capacity);
        let mut naive = NaiveLru {
            capacity,
            order: Vec::new(),
            evictions: 0,
        };
        let mut rng = StdRng::seed_from_u64(17);
        // Keys drawn from a pool 1.5× the capacity: a mix of hits, misses,
        // refreshes of residents and evictions.
        for step in 0..20_000u64 {
            let key = vec![rng.gen_range(0..(capacity as u64 * 3 / 2)), 7];
            if rng.gen_bool(0.6) {
                assert_eq!(cache.get(&key), naive.get(&key), "step {step}");
            } else {
                let value = vec![step as f64];
                cache.insert(key.clone(), value.clone());
                naive.insert(key, value);
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, naive.order.len());
        assert_eq!(stats.evictions, naive.evictions);
        assert!(stats.evictions > 1000, "the churn must evict");
        // The residents agree, and evict in the same order from here on.
        for (key, value) in naive.order.clone() {
            assert_eq!(
                cache.map.get(key.as_slice()).map(|(v, _)| v.to_vec()),
                Some(value)
            );
        }
        let lru_first: Vec<Vec<u64>> = cache.recency.values().map(|k| k.to_vec()).collect();
        let naive_first: Vec<Vec<u64>> = naive.order.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(lru_first, naive_first);
    }
}
