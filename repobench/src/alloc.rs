//! A counting global allocator: the traced pass switches it on to count
//! heap allocations per layer call; with it off each allocation pays one
//! relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// How many callers currently want allocations counted (counting is on
/// while it is nonzero). A statistic only: it publishes no other data, so
/// relaxed ordering suffices.
static COUNTING: AtomicUsize = AtomicUsize::new(0);
/// Allocations (including reallocations) seen while counting.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator with an allocation counter in front of it.
pub struct CountingAlloc;

impl CountingAlloc {
    fn note(&self) {
        if COUNTING.load(Ordering::Relaxed) > 0 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no memory
// the caller owns.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: the caller's guarantees for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: the caller's guarantees for `alloc_zeroed` are passed
        // through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note();
        // SAFETY: the caller's guarantees for `realloc` are passed
        // through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Asks for allocations to be counted until the matching [`stop`].
pub fn start() {
    COUNTING.fetch_add(1, Ordering::Relaxed);
}

/// Withdraws one [`start`].
pub fn stop() {
    COUNTING.fetch_sub(1, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_while_switched_on() {
        // The test binary's global allocator is this one (see main.rs), so
        // a boxed value is one counted allocation. Other test threads may
        // allocate concurrently, hence the lower bound.
        start();
        let before = count();
        let boxed = std::hint::black_box(Box::new([0u8; 64]));
        assert!(count() > before);
        drop(boxed);
        stop();
    }
}
