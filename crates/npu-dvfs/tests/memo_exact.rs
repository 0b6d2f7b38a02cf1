//! Differential test: [`FingerprintRing`], which stores only its occupied
//! slots, answers every `get` and `len` exactly like a dense direct-mapped
//! table of the same virtual capacity — the layout it replaced, kept here
//! as the reference model.

use npu_dvfs::FingerprintRing;
use proptest::prelude::*;

/// The dense layout: one slot per virtual slot, epoch-stamped so that
/// `clear` is a counter bump.
struct DenseEpochRing {
    slots: Vec<(u64, f64, u32)>,
    mask: usize,
    len: usize,
    epoch: u32,
}

impl DenseEpochRing {
    fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        Self {
            slots: vec![(0, 0.0, 0); cap],
            mask: cap - 1,
            len: 0,
            epoch: 1,
        }
    }

    fn clear(&mut self) {
        self.epoch += 1;
        self.len = 0;
    }

    fn get(&self, fp: u64) -> Option<f64> {
        let (sfp, value, epoch) = self.slots[fp as usize & self.mask];
        (epoch == self.epoch && sfp == fp).then_some(value)
    }

    fn insert(&mut self, fp: u64, value: f64) {
        let slot = &mut self.slots[fp as usize & self.mask];
        if slot.2 != self.epoch {
            self.len += 1;
        }
        *slot = (fp, value, self.epoch);
    }
}

const CAPACITIES: [usize; 4] = [2, 16, 4_096, 1 << 20];

/// A fingerprint built to collide: `lo` picks among four bucket indices
/// (low bits), `mid` moves the virtual slot by multiples of `1 << shift`
/// (the same bucket index in any array of at most `1 << shift` buckets),
/// and `hi` changes only bits above every virtual slot (the same slot, a
/// different fingerprint). One draw in eight is a random fingerprint.
fn fingerprint(lo: u64, mid: u64, hi: u64, shift: u32, random: u64, pick: u8) -> u64 {
    if pick == 0 {
        random
    } else {
        lo | (mid << shift) | (hi << 40)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn ring_matches_the_dense_table(
        cap_pick in 0usize..4,
        reserve_pick in 0usize..5,
        shift in 1u32..22,
        ops in prop::collection::vec(
            (0u8..16, 0u64..4, 0u64..4, 0u64..3, any::<u64>(), 0u8..8),
            1..600,
        ),
    ) {
        let capacity = CAPACITIES[cap_pick];
        let reserve = [0, 1, 7, capacity, capacity + 5][reserve_pick];
        let mut ring: FingerprintRing<f64> = FingerprintRing::with_reserve(capacity, reserve);
        let mut model = DenseEpochRing::new(capacity);
        prop_assert_eq!(ring.capacity(), capacity);
        for (step, &(op, lo, mid, hi, random, pick)) in ops.iter().enumerate() {
            let fp = fingerprint(lo, mid, hi, shift, random, pick);
            match op {
                0 => {
                    ring.clear();
                    model.clear();
                }
                1..=7 => {
                    let value = step as f64 + 0.5;
                    ring.insert(fp, value);
                    model.insert(fp, value);
                }
                _ => prop_assert_eq!(
                    ring.get(fp).map(f64::to_bits),
                    model.get(fp).map(f64::to_bits),
                    "cap {} reserve {} step {} fp {:#x}", capacity, reserve, step, fp
                ),
            }
            prop_assert_eq!(ring.len(), model.len, "cap {} step {}", capacity, step);
            prop_assert!(ring.buckets() <= capacity);
        }
        // Every fingerprint the stream touched reads back the same.
        for &(_, lo, mid, hi, random, pick) in &ops {
            let fp = fingerprint(lo, mid, hi, shift, random, pick);
            prop_assert_eq!(ring.get(fp).map(f64::to_bits), model.get(fp).map(f64::to_bits));
        }
    }
}
