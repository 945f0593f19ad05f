//! A counting `#[global_allocator]` wrapper around [`std::alloc::System`].
//!
//! The pipeline's hot paths (the compiled predictor walk, the cycle
//! core) are sold on their per-design cost, so "how many heap
//! allocations did that cost" must be a measured number, not a comment.
//! [`CountingAlloc`] counts every allocation twice — into process-wide
//! atomics (totals, live bytes, peak) and into plain per-thread cells —
//! so both a whole-run `resources` manifest section and per-span deltas
//! ([`crate::span`]) fall out of the same counters.
//!
//! The wrapper is **opt-in per binary**: a crate that wants counting
//! declares
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: udse_obs::alloc::CountingAlloc = udse_obs::alloc::CountingAlloc::new();
//! ```
//!
//! Library code never installs it, so embedders keep their own
//! allocator and pay nothing. When the wrapper is *not* installed every
//! probe in this module reads zeros and [`counting`] returns `false`;
//! consumers (manifest, span table) suppress the columns instead of
//! printing zeros that would read as "allocation-free".
//!
//! Counting costs a handful of relaxed atomic adds and two thread-local
//! cell bumps per malloc/free — noise next to the allocator call itself.
//! The per-thread cells use `const`-initialized `Cell<u64>`s, which
//! neither allocate nor register TLS destructors, so touching them from
//! inside the allocator cannot recurse.
//!
//! [`assert_no_alloc`] is the test guard built on the thread-local
//! counters: it runs a closure and panics if the current thread
//! allocated inside it. It also panics when the counting allocator is
//! not installed, so a mis-wired test fails loudly instead of passing
//! vacuously.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static BYTES_DEALLOCATED: AtomicU64 = AtomicU64::new(0);
static CURRENT_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counting allocator; see the module docs for installation.
#[derive(Debug, Default)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// A new wrapper (all state is in statics; the value is a token for
    /// the `#[global_allocator]` slot).
    pub const fn new() -> Self {
        CountingAlloc
    }
}

#[inline]
fn note_alloc(size: usize) {
    let size = size as u64;
    ALLOCS.fetch_add(1, Relaxed);
    BYTES_ALLOCATED.fetch_add(size, Relaxed);
    let live = CURRENT_BYTES.fetch_add(size, Relaxed) + size;
    PEAK_BYTES.fetch_max(live, Relaxed);
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
    THREAD_BYTES.with(|c| c.set(c.get() + size));
}

#[inline]
fn note_dealloc(size: usize) {
    let size = size as u64;
    DEALLOCS.fetch_add(1, Relaxed);
    BYTES_DEALLOCATED.fetch_add(size, Relaxed);
    // Saturating: a `dealloc` of memory obtained before this wrapper was
    // swapped in (impossible for `#[global_allocator]`, but cheap to be
    // safe about) must not wrap the live-bytes gauge.
    let _ = CURRENT_BYTES.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(size)));
}

// SAFETY: every method delegates the actual memory management to
// `System` unchanged; the wrapper only updates counters around it.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        note_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Counted as a fresh allocation plus a free of the old block:
            // a grow-in-place still round-trips through the allocator, and
            // `assert_no_alloc` should flag it (a "no allocation" hot loop
            // must not realloc either).
            note_alloc(new_size);
            note_dealloc(layout.size());
        }
        p
    }
}

/// Process-wide allocation totals since startup (all threads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocations served (mallocs + reallocs + zeroed allocs).
    pub allocs: u64,
    /// Deallocations served (frees + the release half of reallocs).
    pub deallocs: u64,
    /// Total bytes ever allocated.
    pub bytes_allocated: u64,
    /// Total bytes ever freed.
    pub bytes_deallocated: u64,
    /// Bytes currently live.
    pub current_bytes: u64,
    /// High-water mark of live heap bytes.
    pub peak_bytes: u64,
}

/// Per-thread allocation totals (monotone counters; subtract two
/// snapshots for a delta).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadAllocStats {
    /// Allocations served on this thread.
    pub allocs: u64,
    /// Bytes allocated on this thread.
    pub bytes: u64,
}

/// Snapshot of the process-wide counters. All zeros when the counting
/// allocator is not installed.
pub fn stats() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.load(Relaxed),
        deallocs: DEALLOCS.load(Relaxed),
        bytes_allocated: BYTES_ALLOCATED.load(Relaxed),
        bytes_deallocated: BYTES_DEALLOCATED.load(Relaxed),
        current_bytes: CURRENT_BYTES.load(Relaxed),
        peak_bytes: PEAK_BYTES.load(Relaxed),
    }
}

/// Snapshot of the current thread's counters. All zeros when the
/// counting allocator is not installed.
pub fn thread_stats() -> ThreadAllocStats {
    ThreadAllocStats { allocs: THREAD_ALLOCS.with(Cell::get), bytes: THREAD_BYTES.with(Cell::get) }
}

/// Whether the counting allocator is actually serving this process.
///
/// Any Rust program allocates long before user code runs, so "the
/// global alloc counter is still zero" is a reliable "not installed"
/// signal by the time anything calls this.
pub fn counting() -> bool {
    ALLOCS.load(Relaxed) > 0
}

/// Runs `f` and panics if the current thread heap-allocated (or
/// realloc'd) inside it; returns `f`'s value otherwise.
///
/// Panics with an explanatory message when the counting allocator is
/// not installed — a binary that forgot the `#[global_allocator]`
/// declaration would otherwise pass every no-alloc assertion vacuously.
///
/// Only the calling thread is watched: allocations on other threads
/// (e.g. the [`crate::pool`] workers) are not attributed to `f`. Run
/// the code under test on the asserting thread.
pub fn assert_no_alloc<T>(context: &str, f: impl FnOnce() -> T) -> T {
    assert!(
        counting(),
        "assert_no_alloc({context}): the counting allocator is not installed; \
         declare `#[global_allocator] static A: udse_obs::alloc::CountingAlloc = \
         udse_obs::alloc::CountingAlloc::new();` in the test binary"
    );
    let before = thread_stats();
    let out = f();
    let after = thread_stats();
    let (allocs, bytes) = (after.allocs - before.allocs, after.bytes - before.bytes);
    assert!(
        allocs == 0,
        "assert_no_alloc({context}): {allocs} heap allocation(s) totalling {bytes} byte(s) \
         on the asserting thread"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The obs test binary installs `CountingAlloc` (see `lib.rs`), so
    // these tests exercise real counting.

    #[test]
    fn counting_allocator_is_installed_in_tests() {
        assert!(counting(), "obs unit tests must run under CountingAlloc");
    }

    #[test]
    fn allocations_move_every_counter() {
        let g0 = stats();
        let t0 = thread_stats();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let g1 = stats();
        let t1 = thread_stats();
        assert!(g1.allocs > g0.allocs);
        assert!(g1.bytes_allocated >= g0.bytes_allocated + 4096);
        assert!(g1.peak_bytes >= 4096);
        assert!(t1.allocs > t0.allocs);
        assert!(t1.bytes >= t0.bytes + 4096);
        drop(v);
        let g2 = stats();
        assert!(g2.deallocs > g1.deallocs);
        assert!(g2.bytes_deallocated >= g1.bytes_deallocated + 4096);
    }

    #[test]
    fn peak_tracks_high_water_not_current() {
        let before = stats();
        {
            let _big: Vec<u8> = vec![0; 1 << 20];
        }
        let after = stats();
        assert!(after.peak_bytes >= 1 << 20, "peak {} after a 1MiB vec", after.peak_bytes);
        assert!(after.peak_bytes >= before.peak_bytes, "peak is monotone");
        // The vec is freed: live bytes dropped back down.
        assert!(after.current_bytes < after.peak_bytes + (1 << 20));
    }

    #[test]
    fn assert_no_alloc_passes_on_arithmetic() {
        let x = assert_no_alloc("pure arithmetic", || (0u64..1000).map(|i| i * i).sum::<u64>());
        assert_eq!(x, 332_833_500);
    }

    #[test]
    fn assert_no_alloc_catches_an_allocation() {
        let err = std::panic::catch_unwind(|| {
            assert_no_alloc("deliberate vec", || Vec::<u64>::with_capacity(8).capacity())
        })
        .expect_err("allocation must panic the guard");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("deliberate vec"), "panic names the context: {msg}");
    }

    #[test]
    fn assert_no_alloc_catches_realloc() {
        let mut v: Vec<u64> = Vec::with_capacity(2);
        v.push(1);
        v.push(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            assert_no_alloc("grow past capacity", || v.push(3));
        }));
        assert!(result.is_err(), "growing a full vec reallocs and must be caught");
    }

    #[test]
    fn thread_counters_are_per_thread() {
        let t0 = thread_stats();
        std::thread::spawn(|| {
            let _v: Vec<u8> = vec![7; 1 << 16];
        })
        .join()
        .expect("worker thread");
        let t1 = thread_stats();
        // The worker's 64KiB does not land on this thread's counters.
        // (This thread may still allocate a little via the join itself.)
        assert!(t1.bytes - t0.bytes < 1 << 16, "worker bytes leaked into spawner counters");
    }
}
