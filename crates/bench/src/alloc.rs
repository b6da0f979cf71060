//! A counting global allocator for allocation-per-request accounting.
//!
//! [`CountingAlloc`] wraps [`std::alloc::System`] and bumps one relaxed
//! atomic per `alloc`/`realloc` call — cheap enough to leave on for bench
//! runs, and a deterministic figure where wall-clock throughput jitters.
//! It is registered as the `#[global_allocator]` in two places:
//!
//! * the `experiments` binary (always), so `experiments batch --json`
//!   reports measured heap allocations per request and
//!   `scripts/check_qps.sh` can gate on the count;
//! * this crate's test build (`#[cfg(test)]` in `lib.rs`), so the batch
//!   smoke test can assert the counter is live.
//!
//! When no registration is active (other binaries linking `bench`), the
//! counter stays at zero and [`allocations`] reports that; callers treat
//! an all-zero delta as "counting disabled" rather than "zero allocs".

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// System allocator with a heap-allocation counter on the side.
pub struct CountingAlloc;

// SAFETY: delegates every operation verbatim to `System`; the counter is
// a side effect that never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations observed so far (process-wide, monotone). Zero means
/// the counting allocator is not registered in this build.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_observes_heap_traffic() {
        // The test build registers CountingAlloc (see lib.rs), so any
        // fresh allocation must move the counter.
        let before = allocations();
        let v: Vec<u64> = (0..64).collect();
        assert_eq!(v.len(), 64);
        assert!(allocations() > before, "counting allocator not registered?");
    }
}
