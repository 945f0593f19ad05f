//! Chrome `trace_event` export: discrete timeline events for Perfetto.
//!
//! The span collector ([`crate::span`]) keeps *aggregates* (count, total,
//! max per path); this module keeps the *timeline*. Once [`enable`] is
//! called (`repro --trace <path>` does), every completed span also
//! appends a discrete [`TraceEvent`] to a bounded global buffer, which
//! [`chrome_trace_json`] writes as the Chrome `trace_event` JSON-array
//! format: `ph: "X"` complete events with microsecond timestamps,
//! loadable directly in Perfetto / `chrome://tracing`.
//!
//! Runs that only kept a manifest can still get a (coarser) timeline:
//! [`synthesize_from_spans`] lays the per-path span totals out as nested
//! complete events.
//!
//! # Examples
//!
//! ```
//! use udse_obs::trace;
//!
//! trace::enable();
//! {
//!     let _g = udse_obs::span::enter("traced_work");
//! }
//! let events = trace::global().snapshot();
//! assert!(events.iter().any(|e| e.name == "traced_work"));
//! let doc = trace::chrome_trace_json(&events);
//! assert!(doc.as_arr().is_some());
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::json::Json;

/// The Chrome `pid` every event is written with. Real OS pids are
/// meaningless after a run ends, and a trace holds one process.
const PID: i64 = 1;

/// Hard cap on buffered events; beyond it events are counted as dropped
/// rather than grown without bound (a paper-scale sweep can open
/// millions of spans).
pub const CAPACITY: usize = 262_144;

/// One completed span on the timeline, written as a Chrome `ph: "X"`
/// complete event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span path.
    pub name: String,
    /// Microseconds since the trace epoch (first enable/record).
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Recording thread, as a small stable per-process ordinal.
    pub tid: u64,
}

impl TraceEvent {
    /// The Chrome `trace_event` object for this event.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name.as_str())),
            ("cat", Json::str("span")),
            ("ph", Json::str("X")),
            ("ts", Json::Int(self.ts_us as i64)),
            ("dur", Json::Int(self.dur_us as i64)),
            ("pid", Json::Int(PID)),
            ("tid", Json::Int(self.tid as i64)),
        ])
    }
}

/// Bounded, thread-safe buffer of discrete events.
#[derive(Debug, Default)]
pub struct EventBuffer {
    events: Mutex<Vec<TraceEvent>>,
    dropped: AtomicU64,
}

impl EventBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        EventBuffer::default()
    }

    /// Appends an event, counting it as dropped once [`CAPACITY`] is
    /// reached.
    pub fn push(&self, event: TraceEvent) {
        let mut events = self.events.lock().expect("trace buffer poisoned");
        if events.len() < CAPACITY {
            events.push(event);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// All buffered events in record order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace buffer poisoned").clone()
    }

    /// Events rejected after the buffer filled.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// The process-wide event buffer.
pub fn global() -> &'static EventBuffer {
    static GLOBAL: OnceLock<EventBuffer> = OnceLock::new();
    GLOBAL.get_or_init(EventBuffer::new)
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns on discrete event recording (idempotent) and pins the trace
/// epoch.
pub fn enable() {
    let _ = epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// The trace epoch: the monotonic instant all event timestamps are
/// measured from.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed since the trace epoch.
fn since_epoch_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// A small stable ordinal for the current thread (Chrome `tid`).
fn current_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Records a completed span occupying `[end - elapsed, end]`. Called by
/// the span guard on drop; cheap no-op when recording is disabled.
pub fn record_complete(path: &str, elapsed: Duration) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let end_us = since_epoch_us();
    let dur_us = elapsed.as_micros() as u64;
    global().push(TraceEvent {
        name: path.to_string(),
        ts_us: end_us.saturating_sub(dur_us),
        dur_us,
        tid: current_tid(),
    });
}

/// Assembles the Chrome `trace_event` document: a JSON array of event
/// objects, which Perfetto and `chrome://tracing` load directly.
pub fn chrome_trace_json(events: &[TraceEvent]) -> Json {
    Json::Arr(events.iter().map(TraceEvent::to_json).collect())
}

/// Synthesizes a nested timeline from per-path span *totals* (the only
/// timing a manifest retains). Paths sort so parents precede children;
/// each child is laid out sequentially inside its parent's window, and
/// top-level paths follow one another on a single track. The result is
/// coarser than a native trace (per-call boundaries are lost) but shows
/// the same hierarchy and proportions in Perfetto.
pub fn synthesize_from_spans(span_totals: &[(String, f64)]) -> Vec<TraceEvent> {
    let mut sorted: Vec<(&str, f64)> = span_totals.iter().map(|(p, t)| (p.as_str(), *t)).collect();
    sorted.sort_by(|a, b| a.0.cmp(b.0));
    // Per-path start plus a cursor advancing as children are placed.
    let mut layout: Vec<(&str, u64)> = Vec::new(); // (path, next child start)
    let mut events = Vec::with_capacity(sorted.len());
    let mut root_cursor = 0u64;
    for (path, total_seconds) in sorted {
        let dur_us = (total_seconds * 1e6).max(0.0) as u64;
        let parent_cursor = path
            .rfind('/')
            .and_then(|cut| layout.iter_mut().find(|(p, _)| *p == &path[..cut]))
            .map(|slot| &mut slot.1);
        let start = match parent_cursor {
            Some(cursor) => {
                let s = *cursor;
                *cursor += dur_us;
                s
            }
            None => {
                let s = root_cursor;
                root_cursor += dur_us;
                s
            }
        };
        layout.push((path, start));
        events.push(TraceEvent { name: path.to_string(), ts_us: start, dur_us, tid: 1 });
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent { name: name.to_string(), ts_us: ts, dur_us: dur, tid: 1 }
    }

    #[test]
    fn chrome_trace_is_schema_valid() {
        let events = vec![ev("a", 0, 10), ev("a/b", 5, 3)];
        let doc = chrome_trace_json(&events);
        let arr = doc.as_arr().expect("trace_event documents are arrays");
        assert_eq!(arr.len(), 2);
        for e in arr {
            // Fields Perfetto requires on every complete event.
            assert!(e.get("name").and_then(Json::as_str).is_some());
            assert_eq!(e.get("cat").and_then(Json::as_str), Some("span"));
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
            assert!(e.get("ts").and_then(Json::as_i64).is_some());
            assert!(e.get("pid").and_then(Json::as_i64).is_some());
            assert!(e.get("tid").and_then(Json::as_i64).is_some());
        }
        assert_eq!(arr[0].get("dur").and_then(Json::as_i64), Some(10));
        // And the serialized form re-parses as JSON.
        assert!(Json::parse(&doc.to_string_pretty()).is_ok());
    }

    #[test]
    fn recording_gated_by_enable() {
        enable();
        let before = global().snapshot().len();
        record_complete("trace_test_span", Duration::from_millis(1));
        let events = global().snapshot();
        assert!(events.len() > before);
        let span = events.iter().find(|e| e.name == "trace_test_span").expect("recorded");
        assert!(span.dur_us >= 1_000);
    }

    #[test]
    fn synthesis_nests_children_inside_parents() {
        let spans = vec![
            ("all".to_string(), 1.0),
            ("all/fit".to_string(), 0.4),
            ("all/sweep".to_string(), 0.5),
            ("other".to_string(), 0.25),
        ];
        let events = synthesize_from_spans(&spans);
        assert_eq!(events.len(), 4);
        let by_name = |n: &str| events.iter().find(|e| e.name == n).expect("present");
        let all = by_name("all");
        let fit = by_name("all/fit");
        let sweep = by_name("all/sweep");
        let other = by_name("other");
        // Children start at the parent and are laid out sequentially.
        assert_eq!(fit.ts_us, all.ts_us);
        assert_eq!(sweep.ts_us, fit.ts_us + fit.dur_us);
        assert!(sweep.ts_us + sweep.dur_us <= all.ts_us + all.dur_us);
        // Top-level spans do not overlap.
        assert_eq!(other.ts_us, all.ts_us + all.dur_us);
    }

    #[test]
    fn epoch_is_pinned_once() {
        let a = since_epoch_us();
        std::thread::sleep(Duration::from_millis(2));
        assert!(since_epoch_us() >= a + 2_000, "elapsed time accumulates");
    }

    #[test]
    fn buffer_caps_and_counts_drops() {
        let b = EventBuffer::new();
        b.push(ev("only", 0, 1));
        assert_eq!(b.snapshot().len(), 1);
        assert_eq!(b.dropped(), 0);
        // Capacity behavior is exercised structurally (filling 262k
        // events here would dominate test time): push directly at cap.
        let full = EventBuffer::new();
        {
            let mut events = full.events.lock().unwrap();
            events.extend(std::iter::repeat_with(|| ev("fill", 0, 0)).take(CAPACITY));
        }
        full.push(ev("overflow", 0, 0));
        assert_eq!(full.dropped(), 1);
        assert_eq!(full.snapshot().len(), CAPACITY);
    }
}
