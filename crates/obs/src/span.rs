//! Hierarchical RAII wall-clock spans with a thread-safe collector.
//!
//! [`enter`] starts a span and returns a guard; dropping the guard stops
//! the clock and records the duration under the span's *path* — the
//! `/`-joined names of every span still open on the current thread, so
//! nested work is attributed hierarchically (`all/fig3/sweep`). Per-path
//! statistics (call count, total, max) accumulate in a global
//! [`Collector`] that [`report_table`](Collector::report_table) renders
//! as the end-of-run timing summary.
//!
//! Each guard also snapshots the executing thread's resource counters
//! at enter — heap allocations/bytes from [`crate::alloc`] (when the
//! counting allocator is installed) and thread CPU time from
//! [`crate::cputime`] — and records the deltas at drop, so the same
//! table answers "what did that span *cost*", not just how long it
//! took. Attribution is strictly per-thread: see [`ResourceDelta`].
//!
//! # Threads
//!
//! Each thread keeps its own open-span path, and every thread records
//! into the same global [`Collector`], so per-thread paths merge into one
//! path table. A worker thread starts with an empty path; [`adopt`]
//! seeds it with the spawning thread's path (captured via
//! [`current_path`]) so work fanned out by the [`crate::pool`] work pool
//! is attributed *under* the span that spawned it rather than appearing
//! as a disconnected root.
//!
//! The open path is one thread-local string plus the end offset of each
//! segment, so entering and dropping a span whose path the collector has
//! already seen allocates nothing. Guards close innermost first, as
//! scoped locals do.
//!
//! [`folded`] renders a collector snapshot in the folded-stack format
//! (`a;b;c self_microseconds` per line) consumed by inferno /
//! `flamegraph.pl`.
//!
//! # Examples
//!
//! ```
//! use udse_obs::span;
//!
//! {
//!     let _study = span::enter("depth_study");
//!     let _inner = span::enter("sweep");
//! } // both recorded on drop
//! let stats = span::global().snapshot();
//! assert!(stats.iter().any(|(path, _)| path == "depth_study/sweep"));
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The spans open on one thread: their `/`-joined path and the end
/// offset of each segment in it.
struct OpenPath {
    path: String,
    ends: Vec<usize>,
}

impl OpenPath {
    /// Appends one segment and returns the new depth.
    fn push(&mut self, segment: &str) -> usize {
        if !self.ends.is_empty() {
            self.path.push('/');
        }
        self.path.push_str(segment);
        self.ends.push(self.path.len());
        self.ends.len()
    }

    /// Closes every segment past `depth`.
    fn truncate(&mut self, depth: usize) {
        self.ends.truncate(depth);
        self.path.truncate(self.ends.last().copied().unwrap_or(0));
    }
}

thread_local! {
    static OPEN: RefCell<OpenPath> =
        const { RefCell::new(OpenPath { path: String::new(), ends: Vec::new() }) };
}

/// Accumulated timing for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStat {
    /// Completed executions.
    pub count: u64,
    /// Total wall time across executions.
    pub total: Duration,
    /// Longest single execution.
    pub max: Duration,
    /// Total CPU time (user + system) of the *executing thread* across
    /// executions, at microsecond resolution; zero where the thread CPU
    /// clock is unavailable (see [`crate::cputime`]).
    pub cpu: Duration,
    /// Heap allocations on the executing thread across executions;
    /// zero when the counting allocator is not installed.
    pub allocs: u64,
    /// Heap bytes allocated on the executing thread across executions.
    pub alloc_bytes: u64,
}

/// Resource consumption of one completed span execution, measured on
/// the executing thread between enter and drop. Wall time still covers
/// blocking on other threads (a dispatching span waiting on the pool),
/// but these columns deliberately do **not**: work fanned out to
/// [`crate::pool`] workers is attributed to the workers' own
/// ([`adopt`]ed) span paths, never double-counted into the parent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceDelta {
    /// Thread CPU time consumed, microseconds.
    pub cpu_us: u64,
    /// Heap allocations on the thread.
    pub allocs: u64,
    /// Heap bytes allocated on the thread.
    pub alloc_bytes: u64,
}

/// Thread-safe sink of completed span timings.
#[derive(Debug, Default)]
pub struct Collector {
    stats: Mutex<HashMap<String, SpanStat>>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Records one completed execution of `path` with no resource
    /// attribution (equivalent to a zero [`ResourceDelta`]).
    pub fn record(&self, path: &str, elapsed: Duration) {
        self.record_resources(path, elapsed, ResourceDelta::default());
    }

    /// Records one completed execution of `path` along with what it
    /// consumed on the executing thread.
    pub fn record_resources(&self, path: &str, elapsed: Duration, res: ResourceDelta) {
        let mut stats = self.stats.lock().expect("span collector poisoned");
        // Look up before inserting: a path seen before costs no key
        // allocation, and spans repeat far more often than they appear.
        let s = match stats.get_mut(path) {
            Some(s) => s,
            None => stats.entry(path.to_string()).or_default(),
        };
        s.count += 1;
        s.total += elapsed;
        s.max = s.max.max(elapsed);
        s.cpu += Duration::from_micros(res.cpu_us);
        s.allocs += res.allocs;
        s.alloc_bytes += res.alloc_bytes;
    }

    /// All recorded paths with their statistics, sorted by path so
    /// parents precede children.
    pub fn snapshot(&self) -> Vec<(String, SpanStat)> {
        let stats = self.stats.lock().expect("span collector poisoned");
        let mut out: Vec<(String, SpanStat)> = stats.iter().map(|(k, v)| (k.clone(), *v)).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Renders the timing summary table. Returns `None` when nothing was
    /// recorded. Resource columns (thread CPU, allocation count/bytes)
    /// appear only when at least one span recorded a nonzero value —
    /// a run without the counting allocator would otherwise print
    /// all-zero columns that read as "allocation-free".
    pub fn report_table(&self) -> Option<String> {
        let snap = self.snapshot();
        if snap.is_empty() {
            return None;
        }
        let with_resources =
            snap.iter().any(|(_, s)| s.cpu > Duration::ZERO || s.allocs > 0 || s.alloc_bytes > 0);
        let name_width = snap.iter().map(|(p, _)| p.len()).max().unwrap_or(4).max("span".len());
        let mut out = String::new();
        out.push_str(&format!(
            "{:<name_width$}  {:>6}  {:>10}  {:>10}  {:>10}",
            "span", "calls", "total", "mean", "max"
        ));
        if with_resources {
            out.push_str(&format!("  {:>10}  {:>10}  {:>10}", "cpu", "allocs", "alloc"));
        }
        out.push('\n');
        for (path, s) in &snap {
            let mean = s.total.as_secs_f64() / s.count.max(1) as f64;
            out.push_str(&format!(
                "{:<name_width$}  {:>6}  {:>10}  {:>10}  {:>10}",
                path,
                s.count,
                fmt_duration(s.total.as_secs_f64()),
                fmt_duration(mean),
                fmt_duration(s.max.as_secs_f64()),
            ));
            if with_resources {
                out.push_str(&format!(
                    "  {:>10}  {:>10}  {:>10}",
                    fmt_duration(s.cpu.as_secs_f64()),
                    s.allocs,
                    fmt_bytes(s.alloc_bytes),
                ));
            }
            out.push('\n');
        }
        Some(out)
    }
}

/// Formats a byte count with a binary unit keeping 3–4 significant
/// digits. Shared by every report surface that prints allocation
/// volumes (span tables here, `udse-inspect show`/`report`).
pub fn fmt_bytes(bytes: u64) -> String {
    const KIB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= KIB * KIB * KIB {
        format!("{:.2} GiB", b / (KIB * KIB * KIB))
    } else if b >= KIB * KIB {
        format!("{:.2} MiB", b / (KIB * KIB))
    } else if b >= KIB {
        format!("{:.1} KiB", b / KIB)
    } else {
        format!("{bytes} B")
    }
}

/// Formats seconds with a unit that keeps 3–4 significant digits.
fn fmt_duration(secs: f64) -> String {
    if secs >= 100.0 {
        format!("{secs:.0} s")
    } else if secs >= 1.0 {
        format!("{secs:.2} s")
    } else if secs >= 1e-3 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{:.1} us", secs * 1e6)
    }
}

/// The process-wide collector used by [`enter`].
pub fn global() -> &'static Collector {
    static GLOBAL: OnceLock<Collector> = OnceLock::new();
    GLOBAL.get_or_init(Collector::new)
}

/// An open span; dropping it records the elapsed time plus the
/// resources the executing thread consumed (thread CPU time and, when
/// the counting allocator is installed, allocation count/bytes).
#[derive(Debug)]
#[must_use = "dropping the guard immediately records a ~zero-length span"]
pub struct SpanGuard {
    /// Number of spans open on this thread, this one included.
    depth: usize,
    start: Instant,
    /// Thread CPU time at enter, µs; `None` where the clock is absent.
    cpu_start_us: Option<u64>,
    /// This thread's allocation counters at enter (zeros when the
    /// counting allocator is not installed — the exit snapshot then
    /// reads zeros too, so the delta stays zero).
    alloc_start: crate::alloc::ThreadAllocStats,
}

/// Opens a span named `name` nested under the thread's currently open
/// spans.
pub fn enter(name: &str) -> SpanGuard {
    let depth = OPEN.with(|open| open.borrow_mut().push(name));
    SpanGuard {
        depth,
        // Resource snapshots before the wall clock starts, so probe
        // cost (a clock read) lands outside the measured window.
        cpu_start_us: crate::cputime::thread_cpu_us(),
        alloc_start: crate::alloc::thread_stats(),
        start: Instant::now(),
    }
}

/// The `/`-joined path of the spans currently open on this thread, or
/// `None` when no span is open. The work pool captures this on the
/// spawning thread and hands it to [`adopt`] on each worker.
pub fn current_path() -> Option<String> {
    OPEN.with(|open| {
        let open = open.borrow();
        (!open.ends.is_empty()).then(|| open.path.clone())
    })
}

/// Seeds the current thread's span stack with an inherited path so
/// subsequent [`enter`] calls nest under it; dropping the guard restores
/// the stack. The inherited segments themselves are *not* timed (the
/// spawning thread's own guard records them) — adoption only provides
/// attribution context.
///
/// # Examples
///
/// ```
/// use udse_obs::span;
///
/// let _outer = span::enter("spawner");
/// let parent = span::current_path().unwrap();
/// std::thread::scope(|s| {
///     s.spawn(move || {
///         let _ctx = span::adopt(&parent);
///         let g = span::enter("worker_job");
///         assert_eq!(g.path(), "spawner/worker_job");
///     });
/// });
/// ```
#[must_use = "dropping the guard immediately un-adopts the path"]
pub fn adopt(parent_path: &str) -> AdoptGuard {
    let depth = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let depth = open.ends.len();
        for segment in parent_path.split('/').filter(|s| !s.is_empty()) {
            open.push(segment);
        }
        depth
    });
    AdoptGuard { depth }
}

/// Restores the thread's open path when an [`adopt`]ed context ends.
#[derive(Debug)]
pub struct AdoptGuard {
    /// Spans open on this thread before the adoption.
    depth: usize,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        OPEN.with(|open| open.borrow_mut().truncate(self.depth));
    }
}

/// Renders span statistics in the folded-stack format understood by
/// inferno and Brendan Gregg's `flamegraph.pl`: one line per path with
/// `/` rewritten to `;`, followed by the path's *self* time in
/// microseconds (total minus the time attributed to its direct
/// children, clamped at zero). Zero-self-time interior paths are
/// omitted — their time lives entirely in their children — so the
/// flamegraph's column widths sum correctly.
pub fn folded(snapshot: &[(String, SpanStat)]) -> String {
    let total_us = |stat: &SpanStat| -> u64 { stat.total.as_micros().min(u64::MAX as u128) as u64 };
    let mut out = String::new();
    let mut sorted: Vec<&(String, SpanStat)> = snapshot.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    for (path, stat) in &sorted {
        let children_us: u64 = sorted
            .iter()
            .filter(|(p, _)| {
                p.len() > path.len()
                    && p.starts_with(path.as_str())
                    && p.as_bytes()[path.len()] == b'/'
                    && !p[path.len() + 1..].contains('/')
            })
            .map(|(_, s)| total_us(s))
            .sum();
        let self_us = total_us(stat).saturating_sub(children_us);
        if self_us > 0 {
            out.push_str(&path.replace('/', ";"));
            out.push(' ');
            out.push_str(&self_us.to_string());
            out.push('\n');
        }
    }
    out
}

impl SpanGuard {
    /// The full `/`-joined path of this span.
    pub fn path(&self) -> String {
        OPEN.with(|open| {
            let open = open.borrow();
            open.path[..open.ends[self.depth - 1]].to_string()
        })
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        let alloc_end = crate::alloc::thread_stats();
        let cpu_us = match (self.cpu_start_us, crate::cputime::thread_cpu_us()) {
            (Some(t0), Some(t1)) => t1.saturating_sub(t0),
            _ => 0,
        };
        let res = ResourceDelta {
            cpu_us,
            allocs: alloc_end.allocs - self.alloc_start.allocs,
            alloc_bytes: alloc_end.bytes - self.alloc_start.bytes,
        };
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            // A guard dropped out of order, after an enclosing one, may
            // find its segment already closed; it then records nothing.
            if let Some(&end) = open.ends.get(self.depth - 1) {
                let path = &open.path[..end];
                global().record_resources(path, elapsed, res);
                crate::trace::record_complete(path, elapsed);
                // `fmt_duration` allocates, so format only when logged.
                if crate::log::enabled(crate::Level::Trace) {
                    crate::trace!("span", "{path} took {}", fmt_duration(elapsed.as_secs_f64()));
                }
            }
            open.truncate(self.depth - 1);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_builds_paths() {
        let outer = enter("outer_span_test");
        assert_eq!(outer.path(), "outer_span_test");
        let inner = enter("inner");
        assert_eq!(inner.path(), "outer_span_test/inner");
        drop(inner);
        let sibling = enter("sibling");
        assert_eq!(sibling.path(), "outer_span_test/sibling");
        drop(sibling);
        drop(outer);
        let stats = global().snapshot();
        assert!(stats.iter().any(|(p, s)| p == "outer_span_test" && s.count >= 1));
        assert!(stats.iter().any(|(p, _)| p == "outer_span_test/inner"));
    }

    #[test]
    fn timing_is_monotone_and_nested_time_bounded_by_parent() {
        let c = Collector::new();
        let t0 = Instant::now();
        {
            let outer_start = Instant::now();
            std::thread::sleep(Duration::from_millis(5));
            {
                let inner_start = Instant::now();
                std::thread::sleep(Duration::from_millis(5));
                c.record("outer/inner", inner_start.elapsed());
            }
            c.record("outer", outer_start.elapsed());
        }
        let wall = t0.elapsed();
        let snap: HashMap<String, SpanStat> = c.snapshot().into_iter().collect();
        let outer = snap["outer"];
        let inner = snap["outer/inner"];
        assert!(inner.total >= Duration::from_millis(5), "inner {:?}", inner.total);
        assert!(outer.total >= inner.total, "parent must cover child");
        assert!(outer.total <= wall, "span cannot exceed wall clock");
    }

    #[test]
    fn repeated_spans_accumulate() {
        let c = Collector::new();
        for _ in 0..3 {
            c.record("repeat", Duration::from_micros(100));
        }
        c.record("repeat", Duration::from_micros(700));
        let snap = c.snapshot();
        let (_, s) = snap.iter().find(|(p, _)| p == "repeat").expect("recorded");
        assert_eq!(s.count, 4);
        assert_eq!(s.total, Duration::from_micros(1_000));
        assert_eq!(s.max, Duration::from_micros(700));
    }

    #[test]
    fn report_table_lists_every_path() {
        let c = Collector::new();
        assert!(c.report_table().is_none());
        c.record("a", Duration::from_millis(2));
        c.record("a/b", Duration::from_millis(1));
        let table = c.report_table().expect("non-empty");
        assert!(table.contains("span"));
        assert!(table.contains("a/b"));
        assert!(table.contains("calls"));
    }

    #[test]
    fn spans_on_different_threads_do_not_interleave_paths() {
        let t = std::thread::spawn(|| {
            let g = enter("thread_root");
            assert_eq!(g.path(), "thread_root");
        });
        let g = enter("main_root_span");
        assert_eq!(g.path(), "main_root_span");
        t.join().expect("thread panicked");
    }

    #[test]
    fn current_path_reflects_open_spans() {
        assert_eq!(current_path(), None);
        let _a = enter("cp_outer");
        let _b = enter("cp_inner");
        assert_eq!(current_path().as_deref(), Some("cp_outer/cp_inner"));
    }

    #[test]
    fn adopted_threads_nest_under_spawner() {
        let outer = enter("adopt_root");
        let parent = current_path().expect("open span");
        drop(outer);
        let t = std::thread::spawn(move || {
            {
                let _ctx = adopt(&parent);
                let g = enter("adopted_child");
                assert_eq!(g.path(), "adopt_root/adopted_child");
            }
            // Guard dropped: the stack is empty again.
            assert_eq!(current_path(), None);
            let g = enter("post_adopt");
            assert_eq!(g.path(), "post_adopt");
        });
        t.join().expect("thread panicked");
        let stats = global().snapshot();
        assert!(stats.iter().any(|(p, _)| p == "adopt_root/adopted_child"));
    }

    fn wall_stat(count: u64, total_us: u64, max_us: u64) -> SpanStat {
        SpanStat {
            count,
            total: Duration::from_micros(total_us),
            max: Duration::from_micros(max_us),
            ..SpanStat::default()
        }
    }

    #[test]
    fn folded_emits_self_time_per_stack() {
        let snapshot = vec![
            ("all".to_string(), wall_stat(1, 1_000, 1_000)),
            ("all/fit".to_string(), wall_stat(2, 400, 300)),
            ("all/sweep".to_string(), wall_stat(1, 600, 600)),
            ("all/sweep/inner".to_string(), wall_stat(1, 250, 250)),
            ("other".to_string(), wall_stat(1, 70, 70)),
        ];
        let text = folded(&snapshot);
        // `all` has zero self time (children cover it) and is omitted;
        // every other line is `stack;path self_us`.
        assert_eq!(text, "all;fit 400\nall;sweep 350\nall;sweep;inner 250\nother 70\n");
        for line in text.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("two fields");
            assert!(!stack.contains('/'), "folded stacks use `;`: {stack}");
            assert!(count.parse::<u64>().is_ok(), "count is integral us: {count}");
        }
    }

    #[test]
    fn folded_clamps_overspent_parents() {
        // A parent whose recorded children total more than itself (clock
        // skew across threads) must clamp to zero, not underflow.
        let snapshot = vec![
            ("p".to_string(), wall_stat(1, 10, 10)),
            ("p/c".to_string(), wall_stat(1, 25, 25)),
        ];
        assert_eq!(folded(&snapshot), "p;c 25\n");
    }

    #[test]
    fn spans_attribute_thread_allocations() {
        // The obs test binary installs the counting allocator, so a
        // span that allocates must show a nonzero alloc delta.
        {
            let _g = enter("alloc_attr_span");
            let v: Vec<u8> = vec![0; 100 * 1024];
            assert!(!v.is_empty());
        }
        let snap = global().snapshot();
        let (_, s) = snap.iter().find(|(p, _)| p == "alloc_attr_span").expect("recorded");
        assert!(s.allocs >= 1, "span saw {} allocs", s.allocs);
        assert!(s.alloc_bytes >= 100 * 1024, "span saw {} bytes", s.alloc_bytes);
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn a_busy_span_records_its_thread_cpu() {
        {
            let _g = enter("busy_cpu_span");
            crate::cputime::tests::burn(Duration::from_millis(20));
        }
        let snap = global().snapshot();
        let (_, s) = snap.iter().find(|(p, _)| p == "busy_cpu_span").expect("recorded");
        assert!(s.cpu > Duration::ZERO, "a 20 ms busy span recorded no CPU");
    }

    #[test]
    fn resource_columns_appear_only_when_nonzero() {
        let c = Collector::new();
        c.record("plain", Duration::from_millis(1));
        let table = c.report_table().expect("non-empty");
        assert!(!table.contains("allocs"), "zero-resource table stays narrow:\n{table}");
        c.record_resources(
            "plain",
            Duration::from_millis(1),
            ResourceDelta { cpu_us: 500, allocs: 3, alloc_bytes: 2048 },
        );
        let table = c.report_table().expect("non-empty");
        assert!(table.contains("cpu"), "resource header:\n{table}");
        assert!(table.contains("allocs"), "resource header:\n{table}");
        assert!(table.contains("2.0 KiB"), "humanized bytes:\n{table}");
        let snap: HashMap<String, SpanStat> = c.snapshot().into_iter().collect();
        assert_eq!(snap["plain"].count, 2);
        assert_eq!(snap["plain"].allocs, 3);
        assert_eq!(snap["plain"].cpu, Duration::from_micros(500));
    }

    #[test]
    fn fmt_bytes_picks_binary_units() {
        assert_eq!(fmt_bytes(0), "0 B");
        assert_eq!(fmt_bytes(999), "999 B");
        assert_eq!(fmt_bytes(4 * 1024), "4.0 KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024 / 2), "1.50 MiB");
        assert_eq!(fmt_bytes(5 * 1024 * 1024 * 1024), "5.00 GiB");
    }
}
