//! Best-effort resource probes: CPU time and resident-set size.
//!
//! Every probe returns `Option` — `None` on an unsupported platform or a
//! failed read, never an error and never a panic. The manifest stamps
//! its `resources` section with these, and [`crate::span`] samples
//! thread CPU time at every span enter and exit.
//!
//! CPU time comes from `clock_gettime` on the per-thread and
//! per-process CPU clocks: one system call, with microsecond
//! resolution, so even microsecond spans read their real CPU. It is
//! declared directly against the libc that `std` already links; on
//! targets other than 64-bit Linux the CPU probes return `None`.
//!
//! Peak resident-set size still reads `/proc/self/status` (`VmHWM`).
//! That read runs only when a manifest is written, never per span.

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` from
/// `<time.h>`; the same on every Linux architecture.
const PROCESS_CPUTIME: i32 = 2;
const THREAD_CPUTIME: i32 = 3;

/// Reads the CPU clock `clock` in microseconds; `None` if the call
/// fails.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_clock_us(clock: i32) -> Option<u64> {
    /// `struct timespec` on 64-bit Linux, glibc and musl alike: two
    /// 64-bit fields (`time_t`, `long`). 32-bit targets disagree on
    /// the width of `time_t`, so they take the fallback below.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }

    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer and keeps nothing. `Timespec` has that struct's layout on
    // this target (see its docs), and `ts` is a live, writable local for
    // the whole call. Both clock ids exist on every Linux kernel, and an
    // unknown id would only make the call return -1.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return None;
    }
    Some(u64::try_from(ts.tv_sec).ok()? * 1_000_000 + u64::try_from(ts.tv_nsec).ok()? / 1_000)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_clock_us(_clock: i32) -> Option<u64> {
    None
}

/// Looks up a `kB`-valued field in `/proc/self/status` text.
fn status_kb(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// CPU time (user + system) consumed by the **calling thread**, in
/// microseconds (`CLOCK_THREAD_CPUTIME_ID`). `None` off 64-bit Linux.
pub fn thread_cpu_us() -> Option<u64> {
    cpu_clock_us(THREAD_CPUTIME)
}

/// CPU time (user + system) consumed by the **whole process** across
/// all threads, in microseconds (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn process_cpu_us() -> Option<u64> {
    cpu_clock_us(PROCESS_CPUTIME)
}

/// Peak resident-set size of this process in KiB (`VmHWM` — the
/// high-water mark since exec), read from `/proc/self/status`. `None`
/// where `/proc` is unavailable — callers treat RSS as best-effort.
pub fn peak_rss_kb() -> Option<u64> {
    status_kb(&std::fs::read_to_string("/proc/self/status").ok()?, "VmHWM:")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Spins on arithmetic until `wall` has passed.
    pub(crate) fn burn(wall: Duration) {
        let started = Instant::now();
        let mut acc = 0u64;
        while started.elapsed() < wall {
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(i.wrapping_mul(2_654_435_761));
            }
        }
        std::hint::black_box(acc);
    }

    #[test]
    fn status_kb_finds_keyed_lines() {
        let status = "Name:\trepro\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\n";
        assert_eq!(status_kb(status, "VmRSS:"), Some(102_400));
        assert_eq!(status_kb(status, "VmHWM:"), Some(204_800));
        assert_eq!(status_kb(status, "VmSwap:"), None);
    }

    #[test]
    fn live_rss_probes_are_best_effort_and_sane() {
        // On Linux this reads a real value; elsewhere it returns None.
        // Either way it must not panic.
        if let Some(kb) = peak_rss_kb() {
            assert!(kb > 0, "a live process has a nonzero RSS high-water mark");
        }
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn two_milliseconds_of_work_read_as_positive_thread_cpu_within_wall() {
        let started = Instant::now();
        let t0 = thread_cpu_us().expect("thread CPU clock on Linux");
        burn(Duration::from_millis(2));
        let t1 = thread_cpu_us().expect("thread CPU clock on Linux");
        let wall = started.elapsed().as_micros() as u64;
        let cpu = t1 - t0;
        assert!(cpu > 0, "2 ms of arithmetic read as zero thread CPU");
        // The wall clock brackets both CPU reads. Each side truncates to
        // whole microseconds, which is the only slack allowed.
        assert!(cpu <= wall + 2, "thread CPU {cpu} µs exceeds the {wall} µs wall it ran in");
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn thread_cpu_never_exceeds_process_cpu() {
        burn(Duration::from_millis(1));
        // Thread first: the process clock read afterwards has seen at
        // least everything the thread clock had.
        let thread = thread_cpu_us().expect("thread CPU clock on Linux");
        let process = process_cpu_us().expect("process CPU clock on Linux");
        assert!(process >= thread, "process CPU {process} trails this thread's {thread}");
    }
}
