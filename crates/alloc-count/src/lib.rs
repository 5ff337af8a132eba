//! A counting global allocator: how many allocations and bytes a scope
//! asks for, and how many bytes it leaves live.
//!
//! Std only, for tests and measurements. A test binary installs it and
//! wraps the code under test in [`measure`]:
//!
//! ```
//! #[global_allocator]
//! static ALLOC: dc_alloc_count::Counting = dc_alloc_count::Counting;
//!
//! fn main() {
//!     let (v, counts) = dc_alloc_count::measure(|| vec![7u64; 100]);
//!     assert_eq!((counts.allocs, counts.bytes, counts.live), (1, 800, 800));
//!     let ((), counts) = dc_alloc_count::measure(|| drop(v));
//!     assert_eq!((counts.allocs, counts.live, counts.peak), (0, -800, 0));
//! }
//! ```
//!
//! Counts are kept per thread, so tests running side by side in one
//! binary do not see each other's allocations. The flip side: work a
//! measured scope hands to another thread is not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting per thread. Install it with
/// `#[global_allocator]`; without that, [`measure`] reports zeros.
pub struct Counting;

/// What one scope allocated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes those calls requested; a `realloc` counts its new size.
    pub bytes: u64,
    /// Bytes allocated in the scope and not freed by its end (negative if
    /// the scope freed more than it allocated).
    pub live: i64,
    /// The most bytes live at once during the scope, above its start.
    pub peak: i64,
}

/// Running per-thread totals; `peak` is the high-water mark of `live`.
#[derive(Clone, Copy)]
struct Tally {
    allocs: u64,
    bytes: u64,
    live: i64,
    peak: i64,
}

thread_local! {
    // `const`-initialised and `Copy`: no lazy init and no destructor, so
    // touching it from inside the allocator never allocates.
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally { allocs: 0, bytes: 0, live: 0, peak: 0 })
    };
}

fn record(allocated: usize, freed: usize, is_alloc: bool) {
    // `try_with` fails only while the thread is being torn down.
    let _ = TALLY.try_with(|cell| {
        let mut t = cell.get();
        if is_alloc {
            t.allocs += 1;
            t.bytes += allocated as u64;
        }
        t.live += allocated as i64 - freed as i64;
        t.peak = t.peak.max(t.live);
        cell.set(t);
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// around it touches only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            record(layout.size(), 0, true);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            record(layout.size(), 0, true);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        record(0, layout.size(), false);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            record(new_size, layout.size(), true);
        }
        p
    }
}

/// Run `f` and report what it allocated on this thread. Scopes nest.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    let start = TALLY.with(Cell::get);
    TALLY.with(|cell| {
        cell.set(Tally {
            peak: start.live,
            ..start
        })
    });
    let out = f();
    let end = TALLY.with(Cell::get);
    // An enclosing scope keeps its own high-water mark.
    TALLY.with(|cell| {
        cell.set(Tally {
            peak: end.peak.max(start.peak),
            ..end
        })
    });
    let counts = Counts {
        allocs: end.allocs - start.allocs,
        bytes: end.bytes - start.bytes,
        live: end.live - start.live,
        peak: end.peak - start.live,
    };
    (out, counts)
}
