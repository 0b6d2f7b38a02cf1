//! Bounded, deterministic fingerprint memoization.
//!
//! The evaluation engine used to memoize scores in an unbounded
//! `HashMap<u64, f64>`; a GPT-3-sized search touches ~9 million genomes,
//! so the map grew for the life of the search (hundreds of MB) and every
//! probe paid a SipHash pass over the key. [`FingerprintRing`] replaces
//! it with a fixed-capacity, direct-mapped table:
//!
//! * **Bounded** — capacity is fixed at construction (rounded up to a
//!   power of two); memory never grows afterwards.
//! * **Deterministic** — the slot for a fingerprint is `fp & mask`, and
//!   an insert simply overwrites whatever occupied the slot. Eviction is
//!   a pure function of the insertion sequence, so two runs (the engine
//!   probes and inserts in population-index order) hit and miss
//!   identically.
//! * **O(1)** — no hashing beyond the mask, no probing chains, no
//!   tombstones. A collision between two *different* fingerprints is a
//!   miss (the stored fingerprint is compared in full), never an alias.
//!
//! Epoch stamping makes [`FingerprintRing::clear`] O(1): entries written
//! under an older epoch are invisible, so per-generation scoping costs
//! one counter bump instead of a table wipe.

/// A direct-mapped fingerprint → value table with overwrite eviction.
///
/// `T` is the memoized value (`f64` scores for the engine's memo,
/// `u32` population indices for its within-generation dedup pass).
#[derive(Debug, Clone)]
pub struct FingerprintRing<T: Copy + Default> {
    slots: Vec<Slot<T>>,
    mask: usize,
    len: usize,
    epoch: u32,
}

#[derive(Debug, Clone, Copy)]
struct Slot<T: Copy> {
    fp: u64,
    value: T,
    epoch: u32,
}

impl<T: Copy + Default> FingerprintRing<T> {
    /// Creates a ring with at least `capacity` slots (rounded up to a
    /// power of two, minimum 2).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        Self {
            slots: vec![
                Slot {
                    fp: 0,
                    value: T::default(),
                    epoch: 0,
                };
                cap
            ],
            mask: cap - 1,
            len: 0,
            epoch: 1,
        }
    }

    /// Number of live entries (inserted this epoch and not overwritten).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds no live entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot count — the hard bound on [`Self::len`].
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Invalidates every entry in O(1) (epoch bump). The rare epoch
    /// wrap-around falls back to an explicit wipe so stale stamps can
    /// never be mistaken for live ones.
    pub fn clear(&mut self) {
        if self.epoch == u32::MAX {
            for s in &mut self.slots {
                s.epoch = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        self.len = 0;
    }

    /// Looks up a fingerprint; `None` on empty slot, stale epoch, or a
    /// slot occupied by a different fingerprint.
    #[inline]
    #[must_use]
    pub fn get(&self, fp: u64) -> Option<T> {
        let s = &self.slots[(fp as usize) & self.mask];
        if s.epoch == self.epoch && s.fp == fp {
            Some(s.value)
        } else {
            None
        }
    }

    /// Inserts (or overwrites) the value for a fingerprint. Whatever
    /// occupied the slot — an older entry or a colliding fingerprint —
    /// is evicted deterministically.
    #[inline]
    pub fn insert(&mut self, fp: u64, value: T) {
        let slot = &mut self.slots[(fp as usize) & self.mask];
        if slot.epoch != self.epoch {
            self.len += 1;
        }
        *slot = Slot {
            fp,
            value,
            epoch: self.epoch,
        };
    }
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
    fn clear_is_cheap_and_complete() {
        let mut ring: FingerprintRing<f64> = FingerprintRing::new(16);
        for fp in 0..16u64 {
            ring.insert(fp, fp as f64);
        }
        ring.clear();
        assert!(ring.is_empty());
        for fp in 0..16u64 {
            assert_eq!(ring.get(fp), None);
        }
        // Reinsert after clear works under the new epoch.
        ring.insert(3, 9.0);
        assert_eq!(ring.get(3), Some(9.0));
        assert_eq!(ring.len(), 1);
    }
}
