//! Capacity-bounded operation caches.
//!
//! The memoisation tables of a long-running BDD manager are its dominant
//! memory consumer after the node store itself. Instead of unbounded hash
//! maps, each operation uses a *direct-mapped* cache: a power-of-two array
//! of slots indexed by a deterministic hash of the key, where a colliding
//! insert simply overwrites the previous entry. This bounds memory exactly,
//! keeps lookups O(1) with no probing, and — because the hash is fixed
//! rather than randomly seeded — makes cache behaviour (and therefore node
//! allocation and the statistics reported by [`crate::BddStats`])
//! reproducible from run to run.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::manager::Ref;

/// A hash set keyed through [`FxHasher`]: the traversal-dedup set of
/// [`crate::Bdd::support`] and [`crate::Bdd::node_count`], where `std`'s
/// SipHash cost a measurable share of a whole-model pass.
pub(crate) type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// A deterministic, seed-free hasher (FxHash-style multiply-rotate mix).
///
/// `std`'s default hasher is randomly seeded per process, which would make
/// eviction patterns — and hence allocation statistics — non-reproducible.
#[derive(Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.add(u64::from(byte));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Per-cache counters, folded into [`crate::BddStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// A direct-mapped, capacity-bounded memoisation cache.
pub(crate) struct BoundedCache<K> {
    slots: Vec<Option<(K, Ref)>>,
    mask: u64,
    occupied: usize,
    pub counters: CacheCounters,
}

impl<K: Copy + Eq + Hash> BoundedCache<K> {
    /// Creates a cache with at least `capacity` slots (rounded up to the
    /// next power of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.next_power_of_two().max(2);
        BoundedCache {
            slots: vec![None; capacity],
            mask: capacity as u64 - 1,
            occupied: 0,
            counters: CacheCounters::default(),
        }
    }

    #[inline]
    fn slot_of(&self, key: &K) -> usize {
        let mut hasher = FxHasher::default();
        key.hash(&mut hasher);
        (hasher.finish() & self.mask) as usize
    }

    /// Looks up `key`, counting a hit or a miss.
    #[inline]
    pub fn get(&mut self, key: &K) -> Option<Ref> {
        match &self.slots[self.slot_of(key)] {
            Some((stored, value)) if stored == key => {
                self.counters.hits += 1;
                Some(*value)
            }
            _ => {
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Stores `key → value`, evicting whatever previously occupied the slot.
    #[inline(always)] // on `Bdd::ite`'s miss path: see the comment there
    pub fn insert(&mut self, key: K, value: Ref) {
        let slot = self.slot_of(&key);
        match &mut self.slots[slot] {
            Some((stored, stored_value)) => {
                if *stored != key {
                    self.counters.evictions += 1;
                }
                *stored = key;
                *stored_value = value;
            }
            empty @ None => {
                *empty = Some((key, value));
                self.occupied += 1;
            }
        }
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Number of slots (the capacity bound).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Drops every entry; the counters are left untouched (the garbage
    /// collector clears entries without ending a statistics epoch).
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        self.occupied = 0;
    }

    /// Resets the hit/miss/eviction counters (starts a new epoch).
    pub fn reset_counters(&mut self) {
        self.counters = CacheCounters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_cache_hits_misses_and_evictions() {
        let mut cache: BoundedCache<(u32, u32)> = BoundedCache::new(2);
        assert_eq!(cache.capacity(), 2);
        assert_eq!(cache.get(&(0, 0)), None);
        assert_eq!(cache.counters.misses, 1);
        cache.insert((0, 0), Ref::TRUE);
        assert_eq!(cache.get(&(0, 0)), Some(Ref::TRUE));
        assert_eq!(cache.counters.hits, 1);
        // Fill every slot, forcing at least one eviction.
        for key in 1..64u32 {
            cache.insert((key, key), Ref::FALSE);
        }
        assert!(cache.counters.evictions > 0, "64 inserts into 2 slots must evict");
        assert!(cache.len() <= cache.capacity());
        cache.clear();
        assert_eq!(cache.len(), 0);
        let evictions = cache.counters.evictions;
        cache.reset_counters();
        assert_eq!(cache.counters.evictions, 0);
        assert!(evictions > 0);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let cache: BoundedCache<u32> = BoundedCache::new(5);
        assert_eq!(cache.capacity(), 8);
        let tiny: BoundedCache<u32> = BoundedCache::new(0);
        assert_eq!(tiny.capacity(), 2);
    }

    #[test]
    fn cache_keys_distinguish_the_complement_bit() {
        // `Ref` hashes (and compares) its full packed word, complement bit
        // included, so an entry memoised for `f` can never be returned for
        // `¬f`: even when the two keys land in the same direct-mapped slot,
        // the full-key equality check in `get` rejects the stale entry.
        let f = Ref::TRUE; // regular edge
        let nf = Ref::FALSE; // the same slot, complemented
        let mut a = FxHasher::default();
        f.hash(&mut a);
        let mut b = FxHasher::default();
        nf.hash(&mut b);
        assert_ne!(a.finish(), b.finish(), "complement bit must reach the hash");

        let mut cache: BoundedCache<(Ref, Ref)> = BoundedCache::new(2);
        let cube = Ref::TRUE;
        cache.insert((f, cube), Ref::TRUE);
        assert_eq!(
            cache.get(&(nf, cube)),
            None,
            "a lookup differing only in the complement bit must miss"
        );
        assert_eq!(cache.get(&(f, cube)), Some(Ref::TRUE));
    }

    #[test]
    fn hashing_is_deterministic() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        (42u32, 7u32).hash(&mut a);
        (42u32, 7u32).hash(&mut b);
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        (7u32, 42u32).hash(&mut c);
        assert_ne!(a.finish(), c.finish());
    }
}
