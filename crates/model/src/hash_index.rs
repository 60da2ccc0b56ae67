//! [`HashIndex`]: the workspace's one hash map, with no iteration.
//!
//! Hash order depends on the hasher's per-process seed, so any result
//! computed by walking a hash map can differ between two runs of the same
//! `(config, seed)`. The root `clippy.toml` disallows
//! `std::collections::HashMap` and `HashSet` everywhere else (DESIGN §9);
//! what remains is this newtype, which forwards only the operations whose
//! result does not depend on order. Iterating a `HashIndex` does not
//! compile, and its `Debug` output lists entries in key order.
#![expect(
    clippy::disallowed_types,
    reason = "the one reviewed hash map: HashIndex exposes no iteration order"
)]

use std::borrow::Borrow;
use std::collections::hash_map::{Entry, HashMap};
use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hash;

/// A `HashMap` with the same default hasher that offers O(1) lookup but no
/// `iter`, `keys`, `values` or `IntoIterator`.
#[derive(Clone)]
pub struct HashIndex<K, V>(HashMap<K, V>);

impl<K, V> Default for HashIndex<K, V> {
    #[inline]
    fn default() -> Self {
        HashIndex(HashMap::default())
    }
}

impl<K: Eq + Hash, V> HashIndex<K, V> {
    /// An empty index.
    #[inline]
    pub fn new() -> Self {
        HashIndex(HashMap::new())
    }

    /// The value stored under `key`, if any.
    #[inline]
    pub fn get<Q: Eq + Hash + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.0.get(key)
    }

    /// Stores `value` under `key`, returning the value it replaced.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.0.insert(key, value)
    }

    /// Removes and returns the value stored under `key`.
    #[inline]
    pub fn remove<Q: Eq + Hash + ?Sized>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        self.0.remove(key)
    }

    /// The slot for `key`, for in-place insert-or-update.
    #[inline]
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        self.0.entry(key)
    }

    /// Number of keys stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no key is stored (`len`'s pair, per `clippy::len_without_is_empty`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Removes every entry, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

impl<K: Eq + Hash, V> FromIterator<(K, V)> for HashIndex<K, V> {
    #[inline]
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        HashIndex(iter.into_iter().collect())
    }
}

/// Entries in key order, so two equal indexes always render identically.
impl<K: Ord + fmt::Debug, V: fmt::Debug> fmt::Debug for HashIndex<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0.iter().collect::<BTreeMap<_, _>>(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_lists_entries_in_key_order_whatever_the_insert_order() {
        let keys = [17u32, 3, 250, 42, 9, 1000, 0];
        let forward: HashIndex<u32, u32> = keys.iter().map(|&k| (k, k * 2)).collect();
        let backward: HashIndex<u32, u32> = keys.iter().rev().map(|&k| (k, k * 2)).collect();
        let expected = "{0: 0, 3: 6, 9: 18, 17: 34, 42: 84, 250: 500, 1000: 2000}";
        assert_eq!(format!("{forward:?}"), expected);
        assert_eq!(format!("{backward:?}"), expected);
    }
}
