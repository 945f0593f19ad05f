//! A std-only scoped-thread work pool with deterministic result order.
//!
//! [`map`] fans a slice of jobs out across worker threads and returns the
//! results **in input order**: workers pull indexed jobs from a shared
//! cursor and every result lands in the slot reserved for its index, so
//! parallel output is bitwise-identical to a sequential run of the same
//! closure. The ground-truth oracle layer (`udse-core::oracle`) runs all
//! simulation batches through here; `repro --jobs N` sizes the pool via
//! [`set_max_workers`] (`--jobs 1` restores fully sequential execution on
//! the calling thread — no worker threads are spawned at all).
//!
//! Worker threads inherit the spawning thread's open span path (see
//! [`crate::span::adopt`]), so spans opened inside jobs are attributed
//! under the span that dispatched the batch, and two pool metrics are
//! maintained:
//!
//! - `pool.jobs` (counter) — jobs executed through the pool;
//! - `pool.workers` (gauge) — workers used by the most recent batch.
//!
//! # Examples
//!
//! ```
//! use udse_obs::pool;
//!
//! let squares = pool::map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide worker cap; 0 means "not configured yet" (resolve from
/// the hardware at first use).
static MAX_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker cap. `1` disables threading entirely
/// (every [`map`] runs inline on the caller); values are clamped to at
/// least 1. Callable repeatedly — tests flip between serial and parallel
/// modes.
pub fn set_max_workers(workers: usize) {
    MAX_WORKERS.store(workers.max(1), Ordering::Relaxed);
}

/// The configured worker cap, defaulting to
/// [`std::thread::available_parallelism`] when unset.
pub fn max_workers() -> usize {
    match MAX_WORKERS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map(usize::from).unwrap_or(1),
        n => n,
    }
}

/// Applies `f` to every element of `jobs`, in parallel when the pool has
/// more than one worker, returning results in input order regardless of
/// scheduling. Panics in `f` propagate to the caller.
pub fn map<T, R, F>(jobs: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = max_workers().min(jobs.len());
    if workers <= 1 {
        return jobs.iter().map(f).collect();
    }
    crate::metrics::counter("pool.jobs").add(jobs.len() as u64);
    crate::metrics::gauge("pool.workers").set(workers as f64);
    let parent_path = crate::span::current_path();
    let cursor = AtomicUsize::new(0);
    let mut harvested: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let f = &f;
                let cursor = &cursor;
                let parent_path = parent_path.as_deref();
                scope.spawn(move || {
                    let _ctx = parent_path.map(crate::span::adopt);
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() {
                            break;
                        }
                        local.push((i, f(&jobs[i])));
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("pool worker panicked")).collect()
    });
    // Deterministic reassembly: each result drops into its input slot.
    let mut slots: Vec<Option<R>> = Vec::with_capacity(jobs.len());
    slots.resize_with(jobs.len(), || None);
    for (i, r) in harvested.drain(..).flatten() {
        debug_assert!(slots[i].is_none(), "job {i} produced twice");
        slots[i] = Some(r);
    }
    slots.into_iter().map(|r| r.expect("every job produced a result")).collect()
}

/// Splits the half-open range `0..total` into contiguous chunks, about
/// four per worker so uneven chunk costs still balance, **in range
/// order**: concatenated, they are exactly `0..total`. A caller fans the
/// chunks out through [`map`] and either concatenates per-chunk results
/// or, as the fused sweep does, hands each chunk its own disjoint
/// sub-slice of preallocated output, so the result equals a sequential
/// left-to-right pass.
///
/// Chunk *boundaries* depend on the worker cap, so a reduction that is
/// sensitive to association order (e.g. "last maximal element wins")
/// must tie-break on the global ordinal inside each chunk *and* when
/// folding the chunk results, or `--jobs 1` and `--jobs N` runs will
/// disagree. Order-insensitive folds (`f64::max`, sums of integers,
/// concatenation) need no extra care.
///
/// # Examples
///
/// ```
/// use udse_obs::pool;
///
/// let partials = pool::map(&pool::chunk_ranges(10), |r| r.clone().sum::<u64>());
/// assert_eq!(partials.iter().sum::<u64>(), 45);
/// ```
pub fn chunk_ranges(total: u64) -> Vec<std::ops::Range<u64>> {
    if total == 0 {
        return Vec::new();
    }
    let chunks = ((max_workers() as u64) * 4).clamp(1, total);
    let per = total.div_ceil(chunks);
    (0..chunks).map(|c| (c * per)..((c + 1) * per).min(total)).filter(|r| !r.is_empty()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Runs `body` with the pool pinned to `workers`, restoring the
    /// previous configuration afterwards so tests don't leak settings
    /// into each other (the cap is process-global).
    fn with_workers<R>(workers: usize, body: impl FnOnce() -> R) -> R {
        static LOCK: Mutex<()> = Mutex::new(());
        let _serial = LOCK.lock().expect("pool test lock poisoned");
        let prev = MAX_WORKERS.load(Ordering::Relaxed);
        set_max_workers(workers);
        let out = body();
        MAX_WORKERS.store(prev, Ordering::Relaxed);
        out
    }

    #[test]
    fn map_preserves_input_order() {
        let jobs: Vec<u64> = (0..1_000).collect();
        let parallel = with_workers(8, || map(&jobs, |&x| x * 3 + 1));
        let serial: Vec<u64> = jobs.iter().map(|&x| x * 3 + 1).collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn single_worker_runs_inline() {
        // With one worker no threads spawn, so thread-locals of the
        // caller remain visible to the closure.
        thread_local! {
            static MARK: std::cell::Cell<u64> = const { std::cell::Cell::new(7) };
        }
        let out = with_workers(1, || map(&[0u8; 4], |_| MARK.with(|m| m.get())));
        assert_eq!(out, vec![7, 7, 7, 7]);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let none: Vec<u32> = with_workers(4, || map(&[] as &[u32], |&x| x));
        assert!(none.is_empty());
        let one = with_workers(4, || map(&[41u32], |&x| x + 1));
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn workers_clamp_to_job_count() {
        // More workers than jobs must not deadlock or drop results.
        let out = with_workers(64, || map(&[1u32, 2, 3], |&x| x));
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn uneven_job_costs_still_order_correctly() {
        let jobs: Vec<u64> = (0..64).collect();
        let out = with_workers(4, || {
            map(&jobs, |&x| {
                if x % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                x
            })
        });
        assert_eq!(out, jobs);
    }

    #[test]
    fn pool_metrics_accumulate() {
        let before = crate::metrics::counter("pool.jobs").get();
        // Read the gauge while `with_workers` still holds the test lock:
        // once it is released, another test's batch may reset it.
        let workers = with_workers(4, || {
            map(&[0u8; 100], |_| ());
            crate::metrics::gauge("pool.workers").get()
        });
        assert!(crate::metrics::counter("pool.jobs").get() >= before + 100);
        assert_eq!(workers, 4.0);
    }

    #[test]
    fn worker_spans_attribute_under_spawner() {
        with_workers(3, || {
            let _root = crate::span::enter("pool_attr_test");
            map(&[0u8; 12], |_| {
                let _g = crate::span::enter("job");
            });
        });
        let stats = crate::span::global().snapshot();
        let (_, s) = stats
            .iter()
            .find(|(p, _)| p == "pool_attr_test/job")
            .expect("worker spans nest under the dispatching span");
        assert_eq!(s.count, 12);
    }

    #[test]
    fn chunk_ranges_concatenate_to_sequential_order() {
        for workers in [1, 3, 4, 13] {
            let collected: Vec<u64> =
                with_workers(workers, || chunk_ranges(1_000)).into_iter().flatten().collect();
            let expected: Vec<u64> = (0..1_000).collect();
            assert_eq!(collected, expected, "workers={workers}");
        }
    }

    #[test]
    fn chunk_ranges_cover_small_and_empty_totals() {
        assert!(with_workers(4, || chunk_ranges(0)).is_empty());
        // Fewer indices than chunk slots: every index appears exactly once.
        let tiny: Vec<u64> = with_workers(8, || chunk_ranges(3)).into_iter().flatten().collect();
        assert_eq!(tiny, vec![0, 1, 2]);
    }

    #[test]
    fn set_max_workers_clamps_zero() {
        with_workers(1, || {
            set_max_workers(0);
            assert_eq!(max_workers(), 1);
        });
    }
}
