//! Peak live-heap accounting: a global allocator that forwards to the
//! system allocator and tracks the live byte count and its high-water
//! mark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live and peak byte counters. Counting is lock-free; the peak is a
/// monotone `fetch_max` over every live value the counter passes.
#[derive(Debug, Default)]
pub struct HeapCounter {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl HeapCounter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Self {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Records `bytes` newly allocated.
    pub fn grow(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    /// Records `bytes` freed.
    pub fn shrink(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// The largest live byte count seen.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

/// The process-wide counter behind [`CountingAlloc`].
pub static HEAP: HeapCounter = HeapCounter::new();

/// The benchmark binary's global allocator.
#[derive(Debug)]
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds counter updates, so `System`'s guarantees hold.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            HEAP.grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            HEAP.grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        HEAP.shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                HEAP.grow(new_size - layout.size());
            } else {
                HEAP.shrink(layout.size() - new_size);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_is_the_high_water_mark_not_the_final_level() {
        let c = HeapCounter::new();
        c.grow(100);
        c.grow(50);
        c.shrink(120);
        c.grow(10);
        assert_eq!(c.peak(), 150);
        // 40 bytes stay live, so the next peak is 40 + 200.
        c.grow(200);
        assert_eq!(c.peak(), 240);
    }

    #[test]
    fn global_allocator_counts_a_large_allocation() {
        let v = vec![1u8; 64 << 20];
        assert!(HEAP.peak() >= 64 << 20);
        drop(std::hint::black_box(v));
    }
}
