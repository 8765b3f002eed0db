//! A counting global allocator for allocation-discipline gates.
//!
//! The zero-allocation claim behind the forward-plan engine (see
//! `neuspin_core::HardwareModel::forward_planned`) is load-bearing:
//! `exp_throughput --check` fails the build if the steady-state MC
//! hot path ever allocates again. That gate needs a way to *count*
//! heap allocations, so this crate installs a pass-through
//! [`System`] wrapper as the global allocator. Counting is off by
//! default (one relaxed atomic load per `malloc`, unmeasurable next
//! to the allocation itself) and enabled only inside
//! [`count_allocs`] windows.
//!
//! Accuracy contract: counts are exact for single-threaded windows
//! (the experiment binaries' measurement sections). Concurrent
//! threads allocating during a window are attributed to it — callers
//! measuring a zero floor must keep the window single-threaded.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Pass-through [`System`] allocator that counts allocation events
/// (alloc, alloc_zeroed, and growth reallocs) while armed.
pub struct CountingAllocator;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);
/// Number of open [`count_allocs`] windows, across all threads: a
/// depth, not a flag, so one window closing never disarms another
/// still open on a different thread.
static COUNTING: AtomicUsize = AtomicUsize::new(0);

#[inline]
fn tally() {
    if COUNTING.load(Ordering::Relaxed) != 0 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc acquires memory just like an alloc; shrinks count
        // too — the hot path is not supposed to touch the heap at all.
        tally();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` with allocation counting armed and returns its result
/// plus the number of allocation events observed during the call.
///
/// Windows nest safely, on one thread or across threads (counting
/// stays armed until the last open window closes), but counts are only
/// exact while the window is single-threaded — see the module docs.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNTING.fetch_add(1, Ordering::SeqCst);
    let before = ALLOC_EVENTS.load(Ordering::SeqCst);
    let out = f();
    let after = ALLOC_EVENTS.load(Ordering::SeqCst);
    COUNTING.fetch_sub(1, Ordering::SeqCst);
    (out, after - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_vector_allocations() {
        let (v, n) = count_allocs(|| Vec::<u64>::with_capacity(1024));
        assert_eq!(v.capacity(), 1024);
        assert!(n >= 1, "a fresh 8 KiB vector must register at least one alloc");
    }

    #[test]
    fn counts_growth_reallocs() {
        let mut v: Vec<u64> = Vec::with_capacity(4);
        let (_, n) = count_allocs(|| {
            for i in 0..1024u64 {
                v.push(i);
            }
        });
        assert!(n >= 1, "growing 4 -> 1024 elements must register reallocs");
    }

    #[test]
    fn windows_are_differential_and_disarm() {
        // Each window reports a delta, not a lifetime total: a window
        // opened after previous ones still starts near zero (other
        // test threads may contribute a few events; they cannot
        // contribute the thousands a leaking total would).
        for _ in 0..8 {
            let _ = count_allocs(|| std::hint::black_box(vec![0u8; 512]));
        }
        let (_, n) = count_allocs(|| ());
        assert!(n < 1000, "an empty window must not inherit prior totals, saw {n}");
    }
}
