//! Bounded, deterministic fingerprint memoization.
//!
//! The evaluation engine used to memoize scores in an unbounded
//! `HashMap<u64, f64>`; a GPT-3-sized search touches ~9 million genomes,
//! so the map grew for the life of the search (hundreds of MB) and every
//! probe paid a SipHash pass over the key. [`FingerprintRing`] replaces
//! it with a direct-mapped table of `capacity` *virtual* slots:
//!
//! * **Bounded** — at most `capacity` live entries (rounded up to a power
//!   of two at construction).
//! * **Deterministic** — the slot for a fingerprint is `fp & mask`, and
//!   an insert simply overwrites whatever occupied the slot. Eviction is
//!   a pure function of the insertion sequence, so two runs (the engine
//!   probes and inserts in population-index order) hit and miss
//!   identically.
//! * **Exact** — a collision between two *different* fingerprints is a
//!   miss (the stored fingerprint is compared in full), never an alias.
//!
//! Storage holds only the occupied slots: they sit in a power-of-two
//! bucket array, open-addressed (linear probing) by slot index, that
//! doubles once it is more than half full. A slot is only ever
//! overwritten, never removed, so the array needs no tombstones. Once the
//! array reaches `capacity` buckets it *is* the direct-mapped layout
//! (bucket = slot) and stops growing. A caller that knows how many
//! entries it will write reserves their buckets up front
//! ([`FingerprintRing::with_reserve`]): a short search then pays for the
//! entries it stores rather than for every virtual slot, and a search
//! within its budget never reallocates.

/// A direct-mapped fingerprint → value table with overwrite eviction,
/// storing only its occupied slots.
///
/// `T` is the memoized value (`f64` scores for the engine's memo,
/// `u32` population indices for its within-generation dedup pass).
#[derive(Debug, Clone)]
pub struct FingerprintRing<T: Copy + Default> {
    /// Occupied slots, open-addressed by slot index; a power-of-two
    /// length of at most `mask + 1`.
    buckets: Vec<Bucket<T>>,
    /// Virtual slot mask: `capacity - 1`.
    mask: usize,
    len: usize,
}

#[derive(Debug, Clone, Copy)]
struct Bucket<T: Copy> {
    fp: u64,
    value: T,
    live: bool,
}

impl<T: Copy + Default> Bucket<T> {
    fn empty() -> Self {
        Self {
            fp: 0,
            value: T::default(),
            live: false,
        }
    }
}

impl<T: Copy + Default> FingerprintRing<T> {
    /// Creates a ring of at least `capacity` virtual slots (rounded up to
    /// a power of two, minimum 2). Storage starts at one bucket and grows
    /// with the entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_reserve(capacity, 0)
    }

    /// Creates a ring of at least `capacity` virtual slots with buckets
    /// reserved for `entries` entries: at least twice that many, rounded
    /// up to a power of two and capped at the capacity. Up to `entries`
    /// live entries never reallocate.
    #[must_use]
    pub fn with_reserve(capacity: usize, entries: usize) -> Self {
        let mask = capacity.max(2).next_power_of_two() - 1;
        Self {
            buckets: vec![Bucket::empty(); buckets_for(entries, mask)],
            mask,
            len: 0,
        }
    }

    /// Number of live entries (inserted since the last clear and not
    /// overwritten by a colliding fingerprint).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds no live entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Virtual slot count — the hard bound on [`Self::len`].
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Allocated buckets: at most [`Self::capacity`].
    #[must_use]
    pub fn buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Grows the storage so that `entries` live entries fit without
    /// reallocating. Never shrinks it.
    pub fn reserve(&mut self, entries: usize) {
        let want = buckets_for(entries, self.mask);
        if want > self.buckets.len() {
            self.rehash(want);
        }
    }

    /// Invalidates every entry, keeping the storage.
    pub fn clear(&mut self) {
        if self.len > 0 {
            self.buckets.fill(Bucket::empty());
            self.len = 0;
        }
    }

    /// Looks up a fingerprint; `None` on an empty slot or a slot occupied
    /// by a different fingerprint.
    #[inline]
    #[must_use]
    pub fn get(&self, fp: u64) -> Option<T> {
        let b = &self.buckets[self.find(self.slot(fp))];
        (b.live && b.fp == fp).then_some(b.value)
    }

    /// Inserts (or overwrites) the value for a fingerprint. Whatever
    /// occupied the slot — an older entry or a colliding fingerprint —
    /// is evicted deterministically.
    #[inline]
    pub fn insert(&mut self, fp: u64, value: T) {
        let slot = self.slot(fp);
        let mut b = self.find(slot);
        if !self.buckets[b].live {
            if (self.len + 1) * 2 > self.buckets.len() && self.buckets.len() <= self.mask {
                self.rehash(self.buckets.len() * 2);
                b = self.find(slot);
            }
            self.len += 1;
        }
        self.buckets[b] = Bucket {
            fp,
            value,
            live: true,
        };
    }

    fn slot(&self, fp: u64) -> usize {
        (fp as usize) & self.mask
    }

    /// The bucket holding `slot`, or the empty bucket that ends its probe
    /// sequence. Terminates because the array is at most half full below
    /// full size, and at full size every slot sits in its own bucket.
    #[inline]
    fn find(&self, slot: usize) -> usize {
        let bmask = self.buckets.len() - 1;
        let mut b = slot & bmask;
        loop {
            let e = &self.buckets[b];
            if !e.live || self.slot(e.fp) == slot {
                return b;
            }
            b = (b + 1) & bmask;
        }
    }

    fn rehash(&mut self, buckets: usize) {
        let old = std::mem::replace(&mut self.buckets, vec![Bucket::empty(); buckets]);
        for e in old.into_iter().filter(|e| e.live) {
            let b = self.find(self.slot(e.fp));
            self.buckets[b] = e;
        }
    }
}

/// Buckets that hold `entries` at no more than half load: `2 · entries`
/// rounded up to a power of two, between 1 and the capacity `mask + 1`.
fn buckets_for(entries: usize, mask: usize) -> usize {
    entries
        .saturating_mul(2)
        .max(1)
        .checked_next_power_of_two()
        .map_or(mask + 1, |b| b.min(mask + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_counts() {
        let mut ring: FingerprintRing<f64> = FingerprintRing::new(8);
        assert!(ring.is_empty());
        ring.insert(0x1234, 1.5);
        ring.insert(0x9999, -2.0);
        assert_eq!(ring.get(0x1234), Some(1.5));
        assert_eq!(ring.get(0x9999), Some(-2.0));
        assert_eq!(ring.get(0x5678), None);
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn capacity_rounds_up_and_bounds_len() {
        let mut ring: FingerprintRing<u32> = FingerprintRing::new(5);
        assert_eq!(ring.capacity(), 8);
        for fp in 0..1_000u64 {
            ring.insert(fp.wrapping_mul(0x9E37_79B9_7F4A_7C15), fp as u32);
        }
        assert!(ring.len() <= ring.capacity());
        assert_eq!(ring.buckets(), ring.capacity());
    }

    #[test]
    fn collision_evicts_deterministically() {
        // Same slot (fp & mask equal), different fingerprints: the later
        // insert wins and the earlier entry reads as a miss, never as an
        // aliased hit.
        let mut ring: FingerprintRing<f64> = FingerprintRing::new(4);
        let (a, b) = (0x11_u64, 0x21_u64); // same low bits → same slot under mask 3
        assert_eq!(a & 3, b & 3);
        ring.insert(a, 1.0);
        ring.insert(b, 2.0);
        assert_eq!(ring.get(a), None);
        assert_eq!(ring.get(b), Some(2.0));
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn clear_is_complete() {
        let mut ring: FingerprintRing<f64> = FingerprintRing::new(16);
        for fp in 0..16u64 {
            ring.insert(fp, fp as f64);
        }
        ring.clear();
        assert!(ring.is_empty());
        for fp in 0..16u64 {
            assert_eq!(ring.get(fp), None);
        }
        ring.insert(3, 9.0);
        assert_eq!(ring.get(3), Some(9.0));
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn storage_grows_with_entries_and_honours_the_reservation() {
        let mut ring: FingerprintRing<f64> = FingerprintRing::with_reserve(1 << 20, 100);
        assert_eq!(ring.capacity(), 1 << 20);
        assert_eq!(ring.buckets(), 256);
        for fp in 0..100u64 {
            ring.insert(fp.wrapping_mul(0x9E37_79B9_7F4A_7C15), fp as f64);
        }
        assert_eq!((ring.len(), ring.buckets()), (100, 256));
        ring.insert(7, 0.5);
        assert_eq!(ring.buckets(), 256, "101 entries still fit at half load");
        for fp in 200..400u64 {
            ring.insert(fp, 1.0);
        }
        assert_eq!(ring.buckets(), 1024);
        ring.reserve(10);
        assert_eq!(ring.buckets(), 1024, "reserve never shrinks");
        assert_eq!(ring.get(7), Some(0.5));
    }
}
