//! Counting global allocator: allocations and live heap bytes, per thread
//! and for the whole process.
//!
//! Each thread counts into a slot of its own (a cache line apart from the
//! others), so counting adds no contention between the threads of the
//! measured service; process-wide figures sum the slots, and a span reads
//! its own thread's slot to charge the allocations that thread made.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

const SLOTS: usize = 256;

#[repr(align(128))]
struct Slot {
    allocs: AtomicU64,
    /// Bytes allocated minus bytes freed by the threads of this slot; a
    /// slot goes negative when its threads free what others allocated.
    /// Updated with a plain load and store, not a locked add: only the
    /// owning thread writes it, unless more than `SLOTS` threads have
    /// started (or one is tearing down), when a rare update may be lost.
    /// It feeds only the sampled heap peak.
    live: AtomicI64,
}

static SLOT: [Slot; SLOTS] =
    [const { Slot { allocs: AtomicU64::new(0), live: AtomicI64::new(0) } }; SLOTS];

static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // `const` initialisation and a `Copy` payload: touching it never
    // allocates and registers no destructor, so the allocator may use them.
    static MINE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's slot.
pub fn slot_index() -> usize {
    // A thread tearing down has lost its slot index; slot 0 takes its
    // last few counts.
    MINE.try_with(|m| {
        if m.get() == usize::MAX {
            m.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
        }
        m.get()
    })
    .unwrap_or(0)
}

fn slot() -> &'static Slot {
    &SLOT[slot_index()]
}

/// [`System`] with allocation counters on the side.
pub struct Counting;

fn grow(bytes: usize) {
    let s = slot();
    s.allocs.fetch_add(1, Ordering::Relaxed);
    s.live.store(s.live.load(Ordering::Relaxed) + bytes as i64, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    let s = slot();
    s.live.store(s.live.load(Ordering::Relaxed) - bytes as i64, Ordering::Relaxed);
}

// SAFETY: every operation is delegated unchanged to `System`; the counters
// are side effects that never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations (including reallocations) made by every thread so far.
pub fn total() -> u64 {
    SLOT.iter().map(|s| s.allocs.load(Ordering::Relaxed)).sum()
}

/// Heap bytes currently allocated by the whole process, less what the
/// threads of the `without` slots hold.
pub fn live_bytes(without: &[usize]) -> u64 {
    let all: i64 = SLOT.iter().map(|s| s.live.load(Ordering::Relaxed)).sum();
    let held: i64 = without.iter().map(|&i| SLOT[i].live.load(Ordering::Relaxed)).sum();
    (all - held).max(0) as u64
}

/// Allocations made so far by the calling thread (and by any thread that
/// shares its slot, which takes more than `SLOTS` threads).
pub fn thread() -> u64 {
    slot().allocs.load(Ordering::Relaxed)
}
