//! Allocation guard for the delay regressor: `predict` evaluates the
//! stored fit and must not allocate, and `observe` refits in storage the
//! regressor owns, so once the window is full it must not allocate either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cvr_net::estimate::PolyRegression;

/// Counts the heap allocations made by the current thread, so tests
/// running in parallel do not see each other's.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// A rate–delay sample shaped like the simulator's measurements.
fn sample(i: usize) -> (f64, f64) {
    let rate = 5.0 + (i % 37) as f64 * 1.3;
    (rate, rate / (60.0 - rate) + 0.01 * (i % 5) as f64)
}

#[test]
fn predict_never_allocates() {
    let mut p = PolyRegression::paper_default();
    for i in 0..10 {
        let (x, y) = sample(i);
        p.observe(x, y);
    }
    let mut sink = 0.0;
    let n = allocations(|| {
        for level in 0..600 {
            sink += p.predict(level as f64 * 0.1).expect("fitted");
        }
    });
    assert!(sink.is_finite());
    assert_eq!(n, 0, "predict allocated {n} times");
}

#[test]
fn observe_on_a_full_window_never_allocates() {
    for degree in 1..=3 {
        let window = 64;
        let mut p = PolyRegression::new(degree, window);
        for i in 0..window {
            let (x, y) = sample(i);
            p.observe(x, y);
        }
        let n = allocations(|| {
            for i in window..window + 500 {
                let (x, y) = sample(i);
                p.observe(x, y);
            }
            p.reset();
            for i in 0..window {
                let (x, y) = sample(i);
                p.observe(x, y);
            }
        });
        assert_eq!(n, 0, "degree {degree}: observe allocated {n} times");
        assert_eq!(p.len(), window);
        assert!(p.predict(20.0).is_some());
    }
}
