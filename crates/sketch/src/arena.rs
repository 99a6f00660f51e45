//! Cache-resident sketch arenas: compact, contiguous storage primitives
//! shared by every sketch family.
//!
//! PR 8's space ledger attributed most of the estimator's resident words
//! — and `maxkcov prof` most of its sketch-update time — to thousands of
//! small node-based containers: a `BTreeSet` per KMV summary, a
//! `HashMap` per heavy-hitter candidate list, a `HashMap` per
//! `LargeSet` repetition. Each hides pointer-chasing, per-node
//! allocation and poor locality behind an innocent API. This module
//! replaces them with two flat structures:
//!
//! * [`SortedSlab`] — a bottom-k summary as one sorted array. The
//!   saturated hot path rejects a non-improving value with a single
//!   compare against the cached maximum (the last slot), and an
//!   accepted value costs one `memmove` inside a line-sized buffer.
//! * [`OaMap`] — an open-addressing hash table (power-of-two capacity,
//!   linear probing) keyed by `u64`. Lookups touch one cache line in
//!   the common case instead of walking `std` hash-map metadata.
//!
//! Both are *logically* equivalent to the containers they replaced: the
//! sketch state they hold (the value set, the key→count map) is the
//! same, every consumer canonicalizes iteration order before it affects
//! an estimate, a trace byte or a wire byte, and the space ledger counts
//! logical entries, not slots. The replaced containers survive only as
//! models in this module's tests, and `tests/storage_pinned.rs` pins the
//! CLI outputs and replica bytes they produced end to end.

/// SplitMix64 finalizer — the probe mix for [`OaMap`], also exported
/// for salted one-compare gates over keys that are themselves hash
/// outputs (e.g. `LargeSet`'s per-repetition element-sampling gate,
/// where the input pseudo-element already carries 4-wise independence
/// and the finalizer only decorrelates repetitions).
#[inline]
pub fn probe_mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

// ---- SortedSlab ------------------------------------------------------

/// A bottom-k summary stored as one sorted (ascending) flat array.
///
/// Replaces `BTreeSet<u64>` in KMV summaries: same value set, same
/// ascending iteration, but the saturated reject path is one compare
/// against the last slot and an accepted insert is one binary search
/// plus one `memmove` — no per-node allocation, no pointer chasing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedSlab {
    cap: usize,
    vals: Vec<u64>,
}

impl SortedSlab {
    /// An empty slab keeping at most `cap` values.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "SortedSlab needs capacity >= 1");
        SortedSlab {
            cap,
            vals: Vec::with_capacity(cap),
        }
    }

    /// Number of kept values.
    #[inline]
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True when no values are kept.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// The most values the slab keeps.
    #[inline]
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// True once `cap` values are resident.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.vals.len() == self.cap
    }

    /// The current maximum (the eviction cut-off), if any.
    #[inline]
    pub fn max(&self) -> Option<u64> {
        self.vals.last().copied()
    }

    /// Insert `v` while below capacity. Returns `false` on duplicates.
    /// Panics when full — callers must switch to
    /// [`SortedSlab::insert_evict`] at saturation.
    pub fn insert_unsaturated(&mut self, v: u64) -> bool {
        assert!(!self.is_full(), "insert_unsaturated on a full slab");
        match self.vals.binary_search(&v) {
            Ok(_) => false,
            Err(idx) => {
                self.vals.insert(idx, v);
                true
            }
        }
    }

    /// Insert `v` into a full slab, evicting the current maximum.
    /// Returns `false` (no state change) when `v` is a duplicate or does
    /// not beat the maximum.
    #[inline]
    pub fn insert_evict(&mut self, v: u64) -> bool {
        debug_assert!(self.is_full());
        if v >= self.vals[self.cap - 1] {
            return false;
        }
        match self.vals.binary_search(&v) {
            Ok(_) => false,
            Err(idx) => {
                // One shift drops the maximum and opens slot `idx`.
                self.vals.copy_within(idx..self.cap - 1, idx + 1);
                self.vals[idx] = v;
                true
            }
        }
    }

    /// The kept values, ascending.
    #[inline]
    pub fn values(&self) -> &[u64] {
        &self.vals
    }

    /// Rebuild from arbitrary values (sorted + deduplicated; the caller
    /// checks the pre-dedup length against its own capacity contract).
    pub fn from_values(cap: usize, mut vals: Vec<u64>) -> Self {
        assert!(cap >= 1, "SortedSlab needs capacity >= 1");
        vals.sort_unstable();
        vals.dedup();
        assert!(vals.len() <= cap, "values exceed slab capacity");
        // No up-front reservation: `cap` may come from untrusted wire
        // bytes (the decoder validates value counts, not capacities),
        // and the slab only ever grows to the values actually inserted.
        SortedSlab { cap, vals }
    }
}

// ---- OaMap -----------------------------------------------------------

/// Open-addressing `u64 → V` map: power-of-two slot array, linear
/// probing, growth at ¾ load. Replaces `std` `HashMap`s in candidate
/// lists and per-repetition sample tables.
///
/// Iteration order is slot order — deterministic for a fixed insertion
/// sequence but *not* canonical; consumers sort by key before any
/// order-sensitive use, exactly as they already did for the `std` maps.
#[derive(Debug, Clone)]
pub struct OaMap<V> {
    slots: Vec<Option<(u64, V)>>,
    len: usize,
}

impl<V> Default for OaMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> OaMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        OaMap {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// An empty map with room for `n` entries before regrowth.
    pub fn with_capacity(n: usize) -> Self {
        let mut m = Self::new();
        if n > 0 {
            m.rehash((n * 4 / 3 + 1).next_power_of_two().max(8));
        }
        m
    }

    /// Number of resident entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are resident.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn rehash(&mut self, new_cap: usize) {
        debug_assert!(new_cap.is_power_of_two() && new_cap * 4 > self.len * 4);
        let old = std::mem::take(&mut self.slots);
        self.slots.resize_with(new_cap, || None);
        for (k, v) in old.into_iter().flatten() {
            let mask = self.mask();
            let mut i = probe_mix(k) as usize & mask;
            while self.slots[i].is_some() {
                i = (i + 1) & mask;
            }
            self.slots[i] = Some((k, v));
        }
    }

    #[inline]
    fn grow_if_needed(&mut self) {
        if self.slots.is_empty() {
            self.rehash(8);
        } else if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.rehash(self.slots.len() * 2);
        }
    }

    /// Shared probe: index of `key`'s slot, or of the empty slot where
    /// it would be inserted.
    #[inline]
    fn probe(&self, key: u64) -> usize {
        debug_assert!(!self.slots.is_empty());
        let mask = self.mask();
        let mut i = probe_mix(key) as usize & mask;
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k == key => return i,
                None => return i,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Borrow the value for `key`, if present.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        if self.slots.is_empty() {
            return None;
        }
        match &self.slots[self.probe(key)] {
            Some((_, v)) => Some(v),
            None => None,
        }
    }

    /// Mutably borrow the value for `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        if self.slots.is_empty() {
            return None;
        }
        let i = self.probe(key);
        match &mut self.slots[i] {
            Some((_, v)) => Some(v),
            None => None,
        }
    }

    /// Mutably borrow the value for `key`, inserting `default()` first
    /// when absent.
    #[inline]
    pub fn get_or_insert_with(&mut self, key: u64, default: impl FnOnce() -> V) -> &mut V {
        self.grow_if_needed();
        let i = self.probe(key);
        if self.slots[i].is_none() {
            self.slots[i] = Some((key, default()));
            self.len += 1;
        }
        match &mut self.slots[i] {
            Some((_, v)) => v,
            None => unreachable!("slot just filled"),
        }
    }

    /// Insert or overwrite.
    #[inline]
    pub fn set(&mut self, key: u64, value: V) {
        self.grow_if_needed();
        let i = self.probe(key);
        if self.slots[i].is_none() {
            self.len += 1;
        }
        self.slots[i] = Some((key, value));
    }

    /// Iterate entries in slot order (not canonical — sort before any
    /// order-sensitive use).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.slots.iter().filter_map(|s| s.as_ref().map(|(k, v)| (*k, v)))
    }

    /// Iterate entries mutably in slot order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut V)> {
        self.slots
            .iter_mut()
            .filter_map(|s| s.as_mut().map(|(k, v)| (*k, &mut *v)))
    }

    /// Keep only entries satisfying the predicate, rebuilding the slot
    /// array (tombstone-free removal; cost is one pass).
    pub fn retain(&mut self, mut pred: impl FnMut(u64, &mut V) -> bool) {
        let cap = self.slots.len();
        let old = std::mem::take(&mut self.slots);
        self.slots.resize_with(cap, || None);
        self.len = 0;
        for (k, mut v) in old.into_iter().flatten() {
            if pred(k, &mut v) {
                let mask = self.mask();
                let mut i = probe_mix(k) as usize & mask;
                while self.slots[i].is_some() {
                    i = (i + 1) & mask;
                }
                self.slots[i] = Some((k, v));
                self.len += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashMap};

    /// Seeded model check against a `BTreeSet` bottom-k: every insert's
    /// verdict, `max`, `len` and the kept values agree after each step,
    /// over duplicate, improving and non-improving values, and a slab
    /// periodically rebuilt by `from_values` from a shuffled, duplicated
    /// copy of the model equals the live one.
    #[test]
    fn slab_matches_btreeset_bottom_k() {
        let mut x = 7u64;
        let mut next = || {
            x = probe_mix(x);
            x
        };
        for cap in [1usize, 2, 5, 16, 64] {
            let mut slab = SortedSlab::new(cap);
            let mut model: BTreeSet<u64> = BTreeSet::new();
            for step in 0..4_000 {
                let max = model.iter().next_back().copied();
                let v = match (next() % 4, max) {
                    // A resident value.
                    (0, Some(_)) => *model.iter().nth(next() as usize % model.len()).unwrap(),
                    // Strictly below the current maximum.
                    (1, Some(max)) if max > 0 => next() % max,
                    // At or above the current maximum.
                    (2, Some(max)) => max + next() % 3,
                    _ => next() % 997,
                };
                if slab.is_full() {
                    let max = *model.iter().next_back().unwrap();
                    let fresh = v < max && model.insert(v);
                    if fresh {
                        model.remove(&max);
                    }
                    assert_eq!(
                        slab.insert_evict(v),
                        fresh,
                        "cap {cap} step {step}: evict {v}"
                    );
                } else {
                    let fresh = model.insert(v);
                    assert_eq!(
                        slab.insert_unsaturated(v),
                        fresh,
                        "cap {cap} step {step}: fill {v}"
                    );
                }
                assert_eq!(slab.len(), model.len());
                assert_eq!(slab.is_full(), model.len() == cap);
                assert_eq!(slab.max(), model.iter().next_back().copied());
                let want: Vec<u64> = model.iter().copied().collect();
                assert_eq!(slab.values(), &want[..], "cap {cap} step {step}");
                if step % 97 == 0 {
                    let mut vals: Vec<u64> = want.iter().chain(&want).copied().collect();
                    vals.sort_unstable_by_key(|&v| probe_mix(v ^ step));
                    assert_eq!(SortedSlab::from_values(cap, vals), slab);
                }
            }
        }
    }

    #[test]
    fn slab_saturated_reject_is_stateless() {
        let mut slab = SortedSlab::new(4);
        for v in [10u64, 20, 30, 40] {
            assert!(slab.insert_unsaturated(v));
        }
        let before = slab.values().to_vec();
        assert!(!slab.insert_evict(40)); // equal to max
        assert!(!slab.insert_evict(99)); // above max
        assert!(!slab.insert_evict(20)); // duplicate below max
        assert_eq!(slab.values(), &before[..]);
        assert!(slab.insert_evict(15));
        assert_eq!(slab.values(), &[10, 15, 20, 30]);
    }

    #[test]
    fn slab_from_values_sorts_and_dedups() {
        let slab = SortedSlab::from_values(8, vec![5, 1, 5, 3]);
        assert_eq!(slab.values(), &[1, 3, 5]);
        assert_eq!(slab.len(), 3);
        assert!(!slab.is_full());
    }

    #[test]
    #[should_panic(expected = "values exceed slab capacity")]
    fn slab_from_values_rejects_overflow() {
        let _ = SortedSlab::from_values(2, vec![1, 2, 3]);
    }

    /// Seeded model check against a `std` `HashMap`: interleaved
    /// `get_or_insert_with`, `set`, `get_mut` and `retain` leave the same
    /// entries, and `get` agrees on resident and absent keys.
    #[test]
    fn oamap_matches_std_hashmap() {
        let mut oa: OaMap<i64> = OaMap::new();
        let mut model: HashMap<u64, i64> = HashMap::new();
        let mut x = 3u64;
        for round in 0..6_000i64 {
            x = probe_mix(x);
            let key = x % 513;
            match (x >> 32) % 16 {
                0..=7 => {
                    *oa.get_or_insert_with(key, || 0) += round;
                    *model.entry(key).or_insert(0) += round;
                }
                8..=10 => {
                    oa.set(key, -round);
                    model.insert(key, -round);
                }
                11..=14 => {
                    if let Some(v) = oa.get_mut(key) {
                        *v ^= round;
                    }
                    if let Some(v) = model.get_mut(&key) {
                        *v ^= round;
                    }
                }
                _ => {
                    let salt = x >> 40;
                    oa.retain(|k, v| !(k ^ salt).is_multiple_of(3) || *v % 2 == 0);
                    model.retain(|&k, v| !(k ^ salt).is_multiple_of(3) || *v % 2 == 0);
                }
            }
            assert_eq!(oa.len(), model.len(), "round {round}");
            assert_eq!(oa.get(key), model.get(&key), "round {round}");
        }
        let mut got: Vec<(u64, i64)> = oa.iter().map(|(k, v)| (k, *v)).collect();
        got.sort_unstable();
        let mut want: Vec<(u64, i64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        want.sort_unstable();
        assert_eq!(got, want);
        for key in 0..1_024u64 {
            assert_eq!(oa.get(key), model.get(&key), "key {key}");
        }
        assert_eq!(oa.get(u64::MAX), None);
    }

    #[test]
    fn oamap_retain_rebuilds_without_loss() {
        let mut oa: OaMap<i64> = OaMap::new();
        for k in 0..100u64 {
            oa.set(k, k as i64);
        }
        oa.retain(|k, _| k % 3 == 0);
        assert_eq!(oa.len(), 34);
        for k in 0..100u64 {
            assert_eq!(oa.get(k).is_some(), k % 3 == 0, "key {k}");
        }
        // Post-retain inserts still probe correctly.
        oa.set(1, -1);
        assert_eq!(oa.get(1), Some(&-1));
        assert_eq!(oa.len(), 35);
    }

    #[test]
    fn oamap_get_mut_and_overwrite() {
        let mut oa: OaMap<u64> = OaMap::with_capacity(4);
        assert!(oa.is_empty());
        oa.set(9, 1);
        *oa.get_mut(9).unwrap() += 5;
        assert_eq!(oa.get(9), Some(&6));
        oa.set(9, 0);
        assert_eq!(oa.get(9), Some(&0));
        assert_eq!(oa.len(), 1);
        assert!(oa.get_mut(10).is_none());
    }

    #[test]
    fn oamap_zero_key_and_growth() {
        let mut oa: OaMap<u64> = OaMap::new();
        oa.set(0, 42); // 0 must be an ordinary key, not a sentinel
        for k in 1..1_000u64 {
            oa.set(k, k);
        }
        assert_eq!(oa.get(0), Some(&42));
        assert_eq!(oa.len(), 1_000);
    }
}
