//! Rate-limited progress meters for long-running sweeps.
//!
//! [`Progress`] writes an in-place updating line to stderr, but only when
//! [`Level::Info`](crate::Level::Info) logging is enabled *and* stderr is
//! a terminal (carriage-return repainting is noise in a redirected log),
//! at most a few times per second, so the exhaustive sweep can report
//! position without flooding the terminal or slowing the loop.
//! [`Progress::finish`] clears the line and returns the overall rate in
//! items per second.

use std::io::{IsTerminal, Write};
use std::time::{Duration, Instant};

use crate::log::{enabled, Level};

/// Minimum interval between repaints of the progress line.
const REFRESH: Duration = Duration::from_millis(200);

/// A progress meter over a known number of items.
#[derive(Debug)]
pub struct Progress {
    label: String,
    total: u64,
    done: u64,
    start: Instant,
    last_draw: Option<Instant>,
    drew_anything: bool,
    stderr_is_tty: bool,
}

impl Progress {
    /// Starts a meter for `total` items under the given label.
    pub fn new(label: &str, total: u64) -> Self {
        Progress {
            label: label.to_string(),
            total,
            done: 0,
            start: Instant::now(),
            last_draw: None,
            drew_anything: false,
            stderr_is_tty: std::io::stderr().is_terminal(),
        }
    }

    /// Advances the meter by `n` items, repainting at most every
    /// [`REFRESH`] interval.
    pub fn advance(&mut self, n: u64) {
        self.done += n;
        if !self.stderr_is_tty || !enabled(Level::Info) {
            return;
        }
        let due = match self.last_draw {
            None => true,
            Some(t) => t.elapsed() >= REFRESH,
        };
        if due {
            self.draw();
            self.last_draw = Some(Instant::now());
        }
    }

    fn draw(&mut self) {
        let elapsed = self.start.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 { self.done as f64 / elapsed } else { 0.0 };
        let pct = if self.total > 0 { 100.0 * self.done as f64 / self.total as f64 } else { 0.0 };
        let mut err = std::io::stderr().lock();
        let _ = write!(
            err,
            "\r{}: {}/{} ({:.1}%) {:.0}/s   ",
            self.label, self.done, self.total, pct, rate
        );
        let _ = err.flush();
        self.drew_anything = true;
    }

    /// Items recorded so far.
    pub fn done(&self) -> u64 {
        self.done
    }

    /// Clears the progress line and returns the overall rate in items per
    /// second over the meter's lifetime.
    pub fn finish(mut self) -> f64 {
        let elapsed = self.start.elapsed().as_secs_f64();
        if self.drew_anything {
            let mut err = std::io::stderr().lock();
            let _ = write!(err, "\r{:width$}\r", "", width = self.label.len() + 40);
            let _ = err.flush();
            self.drew_anything = false;
        }
        if elapsed > 0.0 {
            self.done as f64 / elapsed
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_reports_rate() {
        // Logging may be off in tests; advance must still count.
        let mut p = Progress::new("test sweep", 1_000);
        for _ in 0..10 {
            p.advance(100);
        }
        assert_eq!(p.done(), 1_000);
        std::thread::sleep(Duration::from_millis(2));
        let rate = p.finish();
        assert!(rate > 0.0, "rate {rate} should be positive");
        assert!(rate <= 1_000.0 / 0.002 + 1.0, "rate {rate} bounded by elapsed");
    }

    #[test]
    fn zero_total_does_not_divide_by_zero() {
        let mut p = Progress::new("empty", 0);
        p.advance(0);
        let rate = p.finish();
        assert!(rate.is_finite());
    }
}
