//! Bounded-memory guard for the spill log's cleaning pass.
//!
//! A counting global allocator (per-thread counters, so the harness's own
//! threads do not show) tracks the bytes this thread has on the heap and
//! their high-water mark. A pass that relocates records must hold one of
//! them at a time: its peak above the level it started from stays below
//! three records, however many it moves. Reading every live record into
//! memory first — what the whole-log rewrite this pass replaced did —
//! needs all sixty-four.

use mrts::storage::{SegmentStore, StorageBackend};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static HELD: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    let held = HELD.with(|c| {
        c.set(c.get() + bytes);
        c.get()
    });
    PEAK.with(|c| c.set(c.get().max(held)));
}

fn shrink(bytes: usize) {
    // Memory another thread allocated may be freed here.
    HELD.with(|c| c.set(c.get().saturating_sub(bytes)));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is thread-local counter arithmetic, which neither
// allocates (const-initialized, no destructor) nor touches the returned
// memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Peak heap growth of this thread while `f` runs, over its level at entry.
fn peak_growth(f: impl FnOnce()) -> usize {
    let base = HELD.with(|c| c.get());
    PEAK.with(|c| c.set(base));
    f();
    PEAK.with(|c| c.get()) - base
}

#[test]
fn relocating_pass_holds_one_record() {
    const RECORD: usize = 256 << 10;
    const KEYS: u64 = 64;
    // Four records to a segment, each staged (below half a segment).
    let mut s = SegmentStore::new_temp("bounded", 1 << 20, 0.3).unwrap();
    let payload = vec![0x6bu8; RECORD];
    for key in 0..KEYS {
        s.store(key, &payload).unwrap();
    }
    assert!(s.take_compaction_reports().is_empty());
    // Overwriting the even keys leaves every old segment half dead, so no
    // segment dies whole and the pass has to move records.
    let mut moved = 0;
    for key in (0..KEYS).step_by(2) {
        let growth = peak_growth(|| s.store(key, &payload).unwrap());
        if let Some(report) = s.take_compaction_reports().first() {
            moved = report.relocated;
            assert!(
                growth < 3 * RECORD,
                "a pass that moved {moved} records of {RECORD} bytes grew the heap by {growth}"
            );
            break;
        }
    }
    assert!(
        moved >= 8,
        "the pass relocated {moved} records: too few to tell one buffer from many"
    );
    for key in 0..KEYS {
        assert_eq!(s.load(key).unwrap().len(), RECORD);
    }
}
