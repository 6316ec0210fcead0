//! Content-hash memoization of check verdicts.
//!
//! Checking is a pure function of `(unit name, source text)`, so the
//! service can memoize [`vault_core::CheckSummary`] values under a
//! 64-bit FNV-1a fingerprint of both. The cache is a classic LRU: a
//! hash map into a slab of entries threaded on an intrusive
//! doubly-linked recency list, giving O(1) lookup, insert, touch, and
//! eviction with no non-std dependencies.

use std::collections::HashMap;

use vault_syntax::intern::{fnv1a, FNV_OFFSET};

/// 64-bit FNV-1a over an arbitrary byte stream.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// Fingerprint of one compilation unit.
///
/// The unit name participates because rendered diagnostics embed it
/// (`--> name:line:col`): two units with identical sources but different
/// names must not share a cache entry. An explicit `0x00` separator byte
/// between the fields keeps `("ab", "c")` and `("a", "bc")` distinct
/// (unit names cannot contain NUL, so the framing is unambiguous).
pub fn unit_fingerprint(name: &str, source: &str) -> u64 {
    let h = fnv1a(FNV_OFFSET, name.as_bytes());
    let h = fnv1a(h, &[0x00]);
    fnv1a(h, source.as_bytes())
}

const NONE: usize = usize::MAX;

struct Entry<V> {
    key: u64,
    value: V,
    /// How much of the capacity this entry takes (see
    /// [`LruCache::put_weighted`]).
    weight: usize,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used map from 64-bit fingerprints to
/// cached values (whole-unit summaries, per-function verdicts, or
/// elaboration environments — anything cheap to clone, typically an
/// `Arc`).
pub struct LruCache<V> {
    map: HashMap<u64, usize>,
    slab: Vec<Entry<V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
    /// Sum of the live entries' weights; at most `capacity` unless one
    /// entry alone outweighs it.
    weight: usize,
}

impl<V: Clone> LruCache<V> {
    /// An empty cache holding at most `capacity` entries (min 1), or
    /// entries of at most that total weight.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LruCache {
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NONE,
            tail: NONE,
            capacity,
            weight: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Total weight of the live entries.
    pub fn weight(&self) -> usize {
        self.weight
    }

    /// The live entries' values, in no particular order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values().map(|&i| &self.slab[i].value)
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Unlink slot `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        if prev == NONE {
            self.head = next;
        } else {
            self.slab[prev].next = next;
        }
        if next == NONE {
            self.tail = prev;
        } else {
            self.slab[next].prev = prev;
        }
    }

    /// Link slot `i` at the head (most recently used).
    fn link_front(&mut self, i: usize) {
        self.slab[i].prev = NONE;
        self.slab[i].next = self.head;
        if self.head != NONE {
            self.slab[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NONE {
            self.tail = i;
        }
    }

    /// Look up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: u64) -> Option<V> {
        let &i = self.map.get(&key)?;
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
        Some(self.slab[i].value.clone())
    }

    /// Insert (or refresh) `key`, evicting the least recently used
    /// entry if the cache is full.
    pub fn put(&mut self, key: u64, value: V) {
        self.put_weighted(key, value, 1);
    }

    /// Insert (or refresh) `key` as `weight` units of the capacity (at
    /// least 1), evicting least recently used entries until the total
    /// fits. An entry heavier than the whole capacity stays, alone.
    pub fn put_weighted(&mut self, key: u64, value: V, weight: usize) {
        let weight = weight.max(1);
        let i = match self.map.get(&key) {
            Some(&i) => {
                self.weight -= self.slab[i].weight;
                self.slab[i].value = value;
                self.slab[i].weight = weight;
                if self.head != i {
                    self.unlink(i);
                    self.link_front(i);
                }
                i
            }
            None => {
                let entry = Entry {
                    key,
                    value,
                    weight,
                    prev: NONE,
                    next: NONE,
                };
                let i = match self.free.pop() {
                    Some(slot) => {
                        self.slab[slot] = entry;
                        slot
                    }
                    None => {
                        self.slab.push(entry);
                        self.slab.len() - 1
                    }
                };
                self.map.insert(key, i);
                self.link_front(i);
                i
            }
        };
        self.weight += weight;
        while self.weight > self.capacity && self.tail != i {
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slab[victim].key);
            self.weight -= self.slab[victim].weight;
            self.free.push(victim);
        }
    }

    /// Drop every entry (counters elsewhere are unaffected).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NONE;
        self.tail = NONE;
        self.weight = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vault_core::{CheckSummary, Verdict};

    fn summary(tag: &str) -> Arc<CheckSummary> {
        Arc::new(CheckSummary {
            name: tag.to_string(),
            verdict: Verdict::Accepted,
            diagnostics: Vec::new(),
            stats: Default::default(),
        })
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Canonical FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn unit_fingerprint_is_pinned() {
        // Unit verdicts persist under this key: a change to the hash or
        // its framing must bump the store's format version.
        assert_eq!(
            unit_fingerprint("a.vlt", "void f() { }"),
            0x32c3_bc90_6e88_4915
        );
    }

    #[test]
    fn fingerprint_separates_name_and_source() {
        assert_ne!(unit_fingerprint("ab", "c"), unit_fingerprint("a", "bc"));
        assert_ne!(unit_fingerprint("x", "s"), unit_fingerprint("y", "s"));
        assert_eq!(unit_fingerprint("x", "s"), unit_fingerprint("x", "s"));
        // The separator is a real 0x00 round, not just field order:
        // hashing name ++ source with no separator must differ.
        assert_ne!(unit_fingerprint("ab", "c"), fnv1a_64(b"abc"));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.put(1, summary("one"));
        c.put(2, summary("two"));
        assert!(c.get(1).is_some()); // 1 is now MRU
        c.put(3, summary("three")); // evicts 2
        assert!(c.get(2).is_none());
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn put_refreshes_existing_key() {
        let mut c = LruCache::new(2);
        c.put(1, summary("one"));
        c.put(2, summary("two"));
        c.put(1, summary("one'")); // refresh, 2 becomes LRU
        c.put(3, summary("three")); // evicts 2
        assert_eq!(c.get(1).unwrap().name, "one'");
        assert!(c.get(2).is_none());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn clear_empties_and_slots_recycle() {
        let mut c = LruCache::new(3);
        for k in 0..10 {
            c.put(k, summary("s"));
        }
        assert_eq!(c.len(), 3);
        // Only the three most recent survive.
        assert!(c.get(7).is_some());
        assert!(c.get(8).is_some());
        assert!(c.get(9).is_some());
        assert!(c.get(6).is_none());
        c.clear();
        assert!(c.is_empty());
        c.put(42, summary("s"));
        assert!(c.get(42).is_some());
    }

    #[test]
    fn weighted_entries_share_the_capacity() {
        let mut c = LruCache::new(4);
        c.put_weighted(1, summary("a"), 2);
        c.put_weighted(2, summary("b"), 2);
        assert_eq!((c.len(), c.weight()), (2, 4));
        // Growing 2 to three units evicts 1, the least recently used.
        c.put_weighted(2, summary("b'"), 3);
        assert!(c.get(1).is_none());
        assert_eq!((c.len(), c.weight()), (1, 3));
        // An entry heavier than the capacity evicts the rest and stays.
        c.put_weighted(3, summary("c"), 9);
        assert!(c.get(2).is_none());
        assert_eq!(c.get(3).unwrap().name, "c");
        assert_eq!((c.len(), c.weight()), (1, 9));
        c.put(4, summary("d"));
        assert!(c.get(3).is_none());
        assert_eq!((c.len(), c.weight()), (1, 1));
    }

    #[test]
    fn capacity_one_works() {
        let mut c = LruCache::new(1);
        c.put(1, summary("a"));
        c.put(2, summary("b"));
        assert!(c.get(1).is_none());
        assert!(c.get(2).is_some());
    }
}
