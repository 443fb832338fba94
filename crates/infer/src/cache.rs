//! The serving-side result cache.
//!
//! The cache keys on the **encoding fingerprint** — the exact bit pattern of
//! the sample's rotation-angle vector — so any two inputs the quantum
//! circuits cannot distinguish share one entry, and a hit returns the
//! *identical* fidelity vector a fresh evaluation would produce
//! (deterministic estimators only; stochastic estimators bypass the cache
//! entirely).
//!
//! A cache is only worth its misses. Served one at a time through
//! `CompiledModel::predict_from_angles` (2-vCPU Intel Xeon, pinned to one
//! CPU, product-state QC-S artifacts, distinct inputs cycled through the
//! default capacity), a miss cost 700 ns on the 17-qubit MNIST shape and
//! 361 ns on the 5-qubit Iris shape, against 562 and 238 ns with the cache
//! off: about 0.12–0.14 µs of hashing, locking and copying. A hit cost 151
//! and 122 ns, saving 0.41 and 0.12 µs. So the cache pays once roughly one
//! lookup in four (MNIST) or one in two (Iris) repeats an encoding.
//!
//! Eviction is least-recently-used over a fixed capacity. The cache is a
//! slab: every resident is a slot holding its fingerprint bits, its
//! fidelities and the neighbours of an intrusive recency list, and an
//! open-addressed index maps the fingerprint's hash to its slot (linear
//! probing; equal hashes are told apart by comparing the full fingerprint).
//! The slab grows on demand up to the capacity; from then on every new
//! entry takes over the least recently used slot and overwrites its
//! buffers in place, so churn allocates nothing. Lookup, refresh and
//! eviction are `O(1)` expected. The hash is keyed ([`RandomState`]):
//! fingerprints come from untrusted wire clients, and an unkeyed hash would
//! let them flood one probe chain.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

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

/// An empty index position, or the missing neighbour at either end of the
/// recency list.
const NIL: usize = usize::MAX;

/// One resident: its fingerprint, its fidelities and its place in the
/// recency list.
#[derive(Clone, Debug)]
struct Slot {
    /// The keyed hash of `key`, kept so that probing and re-indexing never
    /// rehash.
    hash: u64,
    /// The fingerprint: the exact bits of the sample's rotation angles.
    key: Vec<u64>,
    fidelities: Vec<f64>,
    /// The next less recently used slot.
    older: usize,
    /// The next more recently used slot.
    newer: usize,
}

/// A fixed-capacity LRU map from encoding fingerprint to per-class
/// fidelities.
#[derive(Clone, Debug)]
pub(crate) struct EncodingCache<S = RandomState> {
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    hasher: S,
    /// Every resident; never longer than `capacity`.
    slots: Vec<Slot>,
    /// Slot numbers by `hash & (len - 1)`, linearly probed; a power of two
    /// at least twice `slots.len()` once anything is resident, so every
    /// probe reaches a `NIL`.
    index: Vec<usize>,
    /// The least recently used slot: the next victim.
    oldest: usize,
    /// The most recently used slot.
    newest: usize,
}

impl EncodingCache {
    pub(crate) fn new(capacity: usize) -> Self {
        EncodingCache::with_hasher(capacity, RandomState::new())
    }
}

impl<S: BuildHasher> EncodingCache<S> {
    pub(crate) fn with_hasher(capacity: usize, hasher: S) -> Self {
        EncodingCache {
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
            hasher,
            slots: Vec::new(),
            index: Vec::new(),
            oldest: NIL,
            newest: NIL,
        }
    }

    /// The keyed hash of a sample's fingerprint, taken straight from its
    /// angles. Pass it to the [`EncodingCache::get`] and
    /// [`EncodingCache::insert`] calls for the same angles.
    pub(crate) fn hash(&self, angles: &[f64]) -> u64 {
        let mut hasher = self.hasher.build_hasher();
        for angle in angles {
            hasher.write_u64(angle.to_bits());
        }
        hasher.finish()
    }

    /// Looks a sample up, refreshing its recency on a hit.
    pub(crate) fn get(&mut self, hash: u64, angles: &[f64]) -> Option<&[f64]> {
        if self.capacity == 0 {
            return None;
        }
        match self.find(hash, angles) {
            Some(slot) => {
                self.touch(slot);
                self.hits += 1;
                Some(&self.slots[slot].fidelities)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) an entry, evicting the least-recently-used
    /// one when at capacity.
    pub(crate) fn insert(&mut self, hash: u64, angles: &[f64], fidelities: &[f64]) {
        if self.capacity == 0 {
            return;
        }
        if let Some(slot) = self.find(hash, angles) {
            self.touch(slot);
            overwrite(&mut self.slots[slot].fidelities, fidelities);
            return;
        }
        let slot = if self.slots.len() < self.capacity {
            self.reserve_index(self.slots.len() + 1);
            self.slots.push(Slot {
                hash,
                key: Vec::with_capacity(angles.len()),
                fidelities: Vec::with_capacity(fidelities.len()),
                older: NIL,
                newer: NIL,
            });
            self.slots.len() - 1
        } else {
            let victim = self.oldest;
            self.unlink(victim);
            self.unindex(victim);
            self.evictions += 1;
            victim
        };
        let resident = &mut self.slots[slot];
        resident.hash = hash;
        resident.key.clear();
        resident.key.extend(angles.iter().map(|a| a.to_bits()));
        overwrite(&mut resident.fidelities, fidelities);
        self.link_newest(slot);
        let position = self.probe(hash, |_| false);
        self.index[position] = slot;
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.slots.len(),
            capacity: self.capacity,
        }
    }

    /// The resident slot whose fingerprint is `angles`' bits.
    fn find(&self, hash: u64, angles: &[f64]) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let slot = self.index[self.probe(hash, |slot| {
            slot.hash == hash
                && slot.key.len() == angles.len()
                && slot.key.iter().zip(angles).all(|(k, a)| *k == a.to_bits())
        })];
        (slot != NIL).then_some(slot)
    }

    /// The index position along `hash`'s probe chain that holds the first
    /// slot accepted by `hit`, or the chain's first empty position.
    fn probe(&self, hash: u64, hit: impl Fn(&Slot) -> bool) -> usize {
        let mask = self.index.len() - 1;
        let mut position = hash as usize & mask;
        loop {
            let slot = self.index[position];
            if slot == NIL || hit(&self.slots[slot]) {
                return position;
            }
            position = (position + 1) & mask;
        }
    }

    /// Removes `victim` from the index, shifting later members of its
    /// probe chain back so that no chain is left broken.
    fn unindex(&mut self, victim: usize) {
        let resident = &self.slots[victim];
        let mut hole = self.probe(resident.hash, |slot| std::ptr::eq(slot, resident));
        let mask = self.index.len() - 1;
        let mut next = hole;
        loop {
            next = (next + 1) & mask;
            let slot = self.index[next];
            if slot == NIL {
                break;
            }
            // `slot` may fill the hole unless its home position lies
            // cyclically after the hole, up to `next`.
            let home = self.slots[slot].hash as usize & mask;
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.index[hole] = slot;
                hole = next;
            }
        }
        self.index[hole] = NIL;
    }

    /// Grows the index so that `residents` slots keep it at most half
    /// full, re-placing every resident.
    fn reserve_index(&mut self, residents: usize) {
        if 2 * residents <= self.index.len() {
            return;
        }
        let len = (2 * residents).next_power_of_two().max(8);
        self.index = vec![NIL; len];
        for slot in 0..self.slots.len() {
            let position = self.probe(self.slots[slot].hash, |_| false);
            self.index[position] = slot;
        }
    }

    /// Makes `slot` the most recently used resident.
    fn touch(&mut self, slot: usize) {
        if slot != self.newest {
            self.unlink(slot);
            self.link_newest(slot);
        }
    }

    fn unlink(&mut self, slot: usize) {
        let Slot { older, newer, .. } = self.slots[slot];
        match older {
            NIL => self.oldest = newer,
            older => self.slots[older].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            newer => self.slots[newer].older = older,
        }
    }

    fn link_newest(&mut self, slot: usize) {
        self.slots[slot].older = self.newest;
        self.slots[slot].newer = NIL;
        match self.newest {
            NIL => self.oldest = slot,
            newest => self.slots[newest].newer = slot,
        }
        self.newest = slot;
    }
}

/// Replaces `buffer`'s contents with `values`, reusing its allocation.
fn overwrite(buffer: &mut Vec<f64>, values: &[f64]) {
    buffer.clear();
    buffer.extend_from_slice(values);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasherDefault;

    /// Hashes every fingerprint to one of `N` values, so that residents
    /// share `N` probe chains: with `N = 1` every key collides, and with a
    /// few chains an eviction must also repair chains that run through
    /// another home position.
    #[derive(Default)]
    struct FewHashes<const N: u64>(u64);

    impl<const N: u64> Hasher for FewHashes<N> {
        fn finish(&self) -> u64 {
            (self.0 ^ self.0 >> 29) % N
        }

        fn write(&mut self, bytes: &[u8]) {
            for &byte in bytes {
                self.0 = self.0.wrapping_mul(0x100_0000_01B3) ^ u64::from(byte);
            }
        }
    }

    fn colliding<const N: u64>(capacity: usize) -> EncodingCache<BuildHasherDefault<FewHashes<N>>> {
        EncodingCache::with_hasher(capacity, BuildHasherDefault::default())
    }

    /// `get` by angles alone, hashing them as the callers do.
    fn get<S: BuildHasher>(c: &mut EncodingCache<S>, angles: &[f64]) -> Option<Vec<f64>> {
        let hash = c.hash(angles);
        c.get(hash, angles).map(<[f64]>::to_vec)
    }

    /// `insert` by angles alone, hashing them as the callers do.
    fn put<S: BuildHasher>(c: &mut EncodingCache<S>, angles: &[f64], fidelities: &[f64]) {
        let hash = c.hash(angles);
        c.insert(hash, angles, fidelities);
    }

    /// Every resident's fingerprint and fidelities, least recently used
    /// first, walked along the recency list.
    fn residents<S>(c: &EncodingCache<S>) -> Vec<(Vec<u64>, Vec<f64>)> {
        let mut out = Vec::new();
        let mut slot = c.oldest;
        while slot != NIL {
            out.push((c.slots[slot].key.clone(), c.slots[slot].fidelities.clone()));
            slot = c.slots[slot].newer;
        }
        out
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = EncodingCache::new(2);
        put(&mut c, &[1.0], &[0.1]);
        put(&mut c, &[2.0], &[0.2]);
        // Touch key 1 so key 2 becomes the LRU entry.
        assert_eq!(get(&mut c, &[1.0]), Some(vec![0.1]));
        put(&mut c, &[3.0], &[0.3]);
        assert_eq!(
            get(&mut c, &[2.0]),
            None,
            "LRU entry should have been evicted"
        );
        assert_eq!(get(&mut c, &[1.0]), Some(vec![0.1]));
        assert_eq!(get(&mut c, &[3.0]), Some(vec![0.3]));
        assert_eq!(c.stats().entries, 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = EncodingCache::new(0);
        put(&mut c, &[1.0], &[0.1]);
        assert_eq!(get(&mut c, &[1.0]), None);
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
        assert!(get(&mut c, &[9.0]).is_none());
        put(&mut c, &[9.0], &[1.0]);
        assert!(get(&mut c, &[9.0]).is_some());
        assert!(get(&mut c, &[9.0]).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn fingerprints_are_exact_bit_patterns() {
        let mut c = EncodingCache::new(4);
        put(&mut c, &[0.5, 0.0], &[1.0]);
        assert_eq!(get(&mut c, &[0.5, 0.0]), Some(vec![1.0]));
        // -0.0 and 0.0 differ as fingerprints: they are different bit
        // patterns, and exactness is the contract.
        assert_eq!(get(&mut c, &[0.5, -0.0]), None);
        // A prefix is a different fingerprint too.
        assert_eq!(get(&mut c, &[0.5]), None);
    }

    #[test]
    fn reinserting_refreshes_instead_of_duplicating() {
        let mut c = EncodingCache::new(2);
        put(&mut c, &[1.0], &[0.1]);
        put(&mut c, &[1.0], &[0.9]);
        assert_eq!(c.stats().entries, 1);
        assert_eq!(get(&mut c, &[1.0]), Some(vec![0.9]));
    }

    #[test]
    fn capacity_one_keeps_exactly_the_most_recent_insertion() {
        let mut c = EncodingCache::new(1);
        put(&mut c, &[1.0], &[0.1]);
        assert_eq!(get(&mut c, &[1.0]), Some(vec![0.1]));
        // Inserting a second key evicts the first (the only possible LRU
        // victim at capacity 1)…
        put(&mut c, &[2.0], &[0.2]);
        assert_eq!(c.stats().entries, 1);
        assert_eq!(get(&mut c, &[1.0]), None);
        assert_eq!(get(&mut c, &[2.0]), Some(vec![0.2]));
        // …and the order keeps rotating: every new key displaces the last.
        put(&mut c, &[3.0], &[0.3]);
        assert_eq!(get(&mut c, &[2.0]), None);
        assert_eq!(get(&mut c, &[3.0]), Some(vec![0.3]));
        assert_eq!(c.stats().entries, 1);
    }

    #[test]
    fn reinserting_at_capacity_does_not_evict_another_entry() {
        // A duplicate-key insert is a refresh, not a new resident: with the
        // cache full, re-inserting an existing key must leave every other
        // entry alone.
        let mut c = EncodingCache::new(2);
        put(&mut c, &[1.0], &[0.1]);
        put(&mut c, &[2.0], &[0.2]);
        put(&mut c, &[1.0], &[0.15]);
        assert_eq!(c.stats().entries, 2);
        assert_eq!(
            get(&mut c, &[2.0]),
            Some(vec![0.2]),
            "untouched entry survives"
        );
        assert_eq!(
            get(&mut c, &[1.0]),
            Some(vec![0.15]),
            "refresh updated the value"
        );
    }

    #[test]
    fn reinsertion_refreshes_recency_for_eviction_purposes() {
        let mut c = EncodingCache::new(2);
        put(&mut c, &[1.0], &[0.1]);
        put(&mut c, &[2.0], &[0.2]);
        // Re-inserting key 1 makes key 2 the LRU victim.
        put(&mut c, &[1.0], &[0.11]);
        put(&mut c, &[3.0], &[0.3]);
        assert_eq!(
            get(&mut c, &[2.0]),
            None,
            "stale entry should have been evicted"
        );
        assert_eq!(get(&mut c, &[1.0]), Some(vec![0.11]));
        assert_eq!(get(&mut c, &[3.0]), Some(vec![0.3]));
    }

    #[test]
    fn accounting_survives_eviction_churn() {
        // hits/misses are lookup counters, not residency counters: eviction
        // churn must not rewrite history, and `entries` tracks only the
        // current residents.
        let mut c = EncodingCache::new(2);
        for k in 0..6 {
            let key = [f64::from(k)];
            assert_eq!(get(&mut c, &key), None); // 6 misses
            put(&mut c, &key, &key);
        }
        assert_eq!(c.stats().entries, 2);
        assert_eq!(c.stats().misses, 6);
        assert_eq!(c.stats().hits, 0);
        // 6 inserts into a capacity-2 cache displaced 4 residents.
        assert_eq!(c.stats().evictions, 4);
        // The two most recent keys are resident; older ones miss again.
        assert!(get(&mut c, &[5.0]).is_some());
        assert!(get(&mut c, &[4.0]).is_some());
        assert!(get(&mut c, &[0.0]).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 7));
        assert!((s.hit_rate() - 2.0 / 9.0).abs() < 1e-12);
        assert_eq!(s.capacity, 2);
    }

    #[test]
    fn colliding_hashes_are_told_apart_by_their_bits() {
        let mut c = colliding::<1>(3);
        put(&mut c, &[1.0], &[0.1]);
        put(&mut c, &[2.0], &[0.2]);
        put(&mut c, &[3.0], &[0.3]);
        assert_eq!(c.hash(&[1.0]), c.hash(&[2.0]));
        assert_eq!(get(&mut c, &[2.0]), Some(vec![0.2]));
        assert_eq!(get(&mut c, &[4.0]), None);
        // Evicting the head of the chain (key 1) keeps the rest reachable.
        put(&mut c, &[4.0], &[0.4]);
        assert_eq!(get(&mut c, &[1.0]), None);
        assert_eq!(get(&mut c, &[3.0]), Some(vec![0.3]));
        assert_eq!(get(&mut c, &[2.0]), Some(vec![0.2]));
        assert_eq!(get(&mut c, &[4.0]), Some(vec![0.4]));
        assert_eq!(c.stats().entries, 3);
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

    /// Random gets and inserts over a key pool 1.5× the capacity — a mix of
    /// hits, misses, refreshes of residents and evictions — agree with
    /// [`NaiveLru`] step by step and leave the same residents in the same
    /// recency order.
    fn churn_matches_naive_lru<S: BuildHasher>(mut cache: EncodingCache<S>, steps: u64) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let capacity = cache.capacity;
        let mut naive = NaiveLru {
            capacity,
            order: Vec::new(),
            evictions: 0,
        };
        let mut rng = StdRng::seed_from_u64(17);
        for step in 0..steps {
            let key = [rng.gen_range(0..(capacity as u64 * 3 / 2)) as f64, 7.0];
            let bits: Vec<u64> = key.iter().map(|a| a.to_bits()).collect();
            if rng.gen_bool(0.6) {
                assert_eq!(get(&mut cache, &key), naive.get(&bits), "step {step}");
            } else {
                let value = [step as f64];
                put(&mut cache, &key, &value);
                naive.insert(bits, value.to_vec());
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, naive.order.len());
        assert_eq!(stats.evictions, naive.evictions);
        assert!(stats.evictions > steps / 20, "the churn must evict");
        // The residents agree, and evict in the same order from here on.
        assert_eq!(residents(&cache), naive.order);
    }

    #[test]
    fn churn_at_default_capacity_evicts_in_naive_lru_order() {
        let capacity = crate::compiled::DEFAULT_CACHE_CAPACITY;
        churn_matches_naive_lru(EncodingCache::new(capacity), 20_000);
    }

    #[test]
    fn churn_with_one_hash_for_every_key_evicts_in_naive_lru_order() {
        // Every key collides, so every lookup, refresh and eviction walks
        // one probe chain.
        churn_matches_naive_lru(colliding::<1>(64), 5_000);
    }

    #[test]
    fn churn_over_three_interleaved_chains_evicts_in_naive_lru_order() {
        // Three hashes for every key: the chains run into each other, so an
        // eviction has to shift members of other chains back into its hole.
        churn_matches_naive_lru(colliding::<3>(64), 5_000);
    }

    #[test]
    fn churn_at_capacity_reuses_every_slot_buffer() {
        let capacity = crate::compiled::DEFAULT_CACHE_CAPACITY;
        let mut c = EncodingCache::new(capacity);
        let angles = |k: usize| [k as f64, 0.25, 0.5, 0.75];
        let fidelities = |k: usize| [k as f64, 1.0 / (k as f64 + 1.0), 0.5];
        for k in 0..capacity {
            put(&mut c, &angles(k), &fidelities(k));
        }
        let buffers = |c: &EncodingCache| -> Vec<(*const u64, *const f64)> {
            c.slots
                .iter()
                .map(|s| (s.key.as_ptr(), s.fidelities.as_ptr()))
                .collect()
        };
        let before = buffers(&c);
        let index = c.index.as_ptr();
        for k in capacity..capacity + 10_000 {
            put(&mut c, &angles(k), &fidelities(k));
        }
        assert_eq!(buffers(&c), before, "a key or value buffer was reallocated");
        assert_eq!(c.index.as_ptr(), index, "the index was reallocated");
        assert_eq!(c.stats().evictions, 10_000);
        let last = capacity + 9_999;
        assert_eq!(get(&mut c, &angles(last)), Some(fidelities(last).to_vec()));
    }
}
