//! Allocation guard for the per-user slot work of the live server: once
//! warmed up, the pose predictor, the FoV tile test and multicast group
//! discovery run without touching the heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cvr_content::grid::CellId;
use cvr_content::tile::{tiles_for_pose_into, TileId};
use cvr_mcast::{GroupKey, GroupTracker};
use cvr_motion::fov::FovSpec;
use cvr_motion::pose::{Orientation, Pose, Vec3};
use cvr_motion::predict::LinearPredictor;

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

/// A walking, turning pose.
fn pose(t: usize) -> Pose {
    let t = t as f64;
    Pose::new(
        Vec3::new(0.03 * t, 1.7, -0.02 * t),
        Orientation::new(7.0 * t, 20.0 * (0.1 * t).sin(), 0.0),
    )
}

#[test]
fn predictor_observe_and_predict_never_allocate_on_a_full_window() {
    let mut p = LinearPredictor::paper_default();
    for t in 0..8 {
        p.observe(&pose(t));
    }
    let mut sink = 0.0;
    let n = allocations(|| {
        for t in 8..508 {
            p.observe(&pose(t));
            for h in 1..=4 {
                sink += p
                    .predict_fractional(h as f64 + 0.5)
                    .expect("fitted")
                    .position
                    .x;
            }
        }
    });
    assert!(sink.is_finite());
    assert_eq!(n, 0, "observe/predict_fractional allocated {n} times");
}

#[test]
fn tile_test_never_allocates_into_a_grown_buffer() {
    let spec = FovSpec::paper_default();
    let mut out: Vec<TileId> = Vec::with_capacity(usize::from(TileId::COUNT));
    let mut total = 0;
    let n = allocations(|| {
        for t in 0..2000 {
            tiles_for_pose_into(&spec, &pose(t), &mut out);
            total += out.len();
        }
    });
    assert!(total > 0);
    assert_eq!(n, 0, "tiles_for_pose_into allocated {n} times");
}

#[test]
fn group_tracker_observe_never_allocates_after_warm_up() {
    let key = |k: usize| GroupKey {
        cell: CellId {
            x: (k % 5) as i32,
            z: 0,
        },
        orientation: ((k % 3) as i64, 0),
        content: k as u64,
    };
    // 64 users over 16 keys: groups of four, plus singletons for users
    // whose key is their own index.
    let slot_keys = |slot: u64, user: usize| {
        if user.is_multiple_of(4) {
            key(100 + user)
        } else {
            key((user + slot as usize) % 16)
        }
    };
    let mut tracker = GroupTracker::new(8);
    for slot in 0..4 {
        tracker.begin_slot(slot);
        for user in 0..64 {
            tracker.observe(user, slot_keys(slot, user));
        }
        tracker.finish_slot();
    }
    let mut groups = 0;
    let n = allocations(|| {
        for slot in 4..40 {
            tracker.begin_slot(slot);
            for user in 0..64 {
                tracker.observe(user, slot_keys(slot, user));
            }
            groups += tracker.finish_slot().len();
        }
    });
    assert!(groups > 0);
    assert_eq!(n, 0, "GroupTracker::observe allocated {n} times");
}
