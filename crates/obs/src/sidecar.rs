//! Worker telemetry sidecars for multi-process runs.
//!
//! A sharded run forks workers, and without help each one is a
//! telemetry black hole: its spans, trace events, and progress die with
//! the process, leaving only a result shard behind. The sidecar is the
//! fix — a JSONL file the worker streams next to its result shard,
//! which the parent tails while the worker runs and harvests after it
//! exits. Each line is one self-describing record (a `"rec"`
//! discriminator field), so a reader can act on what it understands and
//! skip what it does not:
//!
//! - `meta` — written first: OS pid, plan label, shard index/count, job
//!   range size, and the wall-clock reading of the worker's trace epoch
//!   ([`crate::trace::anchor_unix_us`]) that clock normalization needs;
//! - `heartbeat` — periodic liveness: elapsed time, jobs done, the last
//!   job id touched, and resident-set size when `/proc` offers it;
//! - `span` — one per span path at exit: the worker's aggregate span
//!   table;
//! - `event` — one per buffered trace event at exit (only when tracing
//!   was enabled);
//! - `summary` — written last: final job count, wall time, how many
//!   trace events the bounded buffer dropped, and best-effort resource
//!   totals (process CPU time, allocation counts/bytes from
//!   [`crate::alloc`], peak RSS) the parent folds into per-shard skew
//!   tables.
//!
//! The format is append-only and flushed per line, so a reader may see
//! a torn final line while the worker is mid-write — and a killed
//! worker leaves one permanently. [`SidecarDoc::parse`] therefore
//! tolerates a malformed *final* line (reporting it as a problem)
//! while treating malformed interior lines as corruption, and
//! [`parse_tail`] gives the parent incremental reads that only consume
//! complete lines.
//!
//! # Examples
//!
//! ```
//! use udse_obs::sidecar::{Heartbeat, SidecarDoc, SidecarMeta, SidecarWriter, Summary};
//!
//! let dir = std::env::temp_dir().join(format!("udse_sidecar_doc_{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("fig1.shard-0of2.telemetry.jsonl");
//! let meta = SidecarMeta {
//!     pid: std::process::id() as u64,
//!     plan_label: "fig1".to_string(),
//!     shard_index: 0,
//!     shard_count: 2,
//!     jobs: 10,
//!     anchor_unix_us: udse_obs::trace::anchor_unix_us(),
//! };
//! let writer = SidecarWriter::create(&path, &meta).unwrap();
//! writer.heartbeat(&Heartbeat { t_us: 5, done: 10, total: 10, last_job: Some(9), rss_kb: None });
//! writer.finish(&[], &[], &Summary { done: 10, wall_us: 6, ..Summary::default() }).unwrap();
//! let doc = SidecarDoc::read_from_path(&path).unwrap();
//! assert_eq!(doc.summary.as_ref().unwrap().done, 10);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use crate::json::Json;
use crate::span::SpanStat;
use crate::trace::TraceEvent;

/// Version stamped into every `meta` record; bump on incompatible
/// format changes.
pub const SIDECAR_SCHEMA_VERSION: u64 = 1;

/// Filename suffix that marks a file as a telemetry sidecar.
pub const SIDECAR_SUFFIX: &str = ".telemetry.jsonl";

/// The identifying first record of a sidecar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SidecarMeta {
    /// OS process id of the worker (diagnostic only; lane identity
    /// comes from `shard_index`).
    pub pid: u64,
    /// Label of the evaluation plan the worker is serving.
    pub plan_label: String,
    /// Which shard of the plan this worker holds.
    pub shard_index: u64,
    /// Total shards in the run.
    pub shard_count: u64,
    /// Jobs in this worker's range.
    pub jobs: u64,
    /// Wall-clock microseconds since the Unix epoch at the worker's
    /// trace anchor; the clock-normalization key for trace merging.
    pub anchor_unix_us: i64,
}

/// A periodic liveness record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heartbeat {
    /// Microseconds since the worker's trace anchor.
    pub t_us: u64,
    /// Jobs completed so far in the worker's range.
    pub done: u64,
    /// Jobs in the worker's range (repeated for self-contained lines).
    pub total: u64,
    /// Plan-global id of the most recently completed job, if any.
    pub last_job: Option<u64>,
    /// Resident-set size in KiB when cheaply readable, else `None`.
    pub rss_kb: Option<u64>,
}

/// One span path's aggregate timing, as persisted in the sidecar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanLine {
    /// Full `/`-separated span path.
    pub path: String,
    /// Completed executions.
    pub count: u64,
    /// Total wall time across executions, microseconds.
    pub total_us: u64,
    /// Longest single execution, microseconds.
    pub max_us: u64,
}

/// The closing record of a cleanly-exiting worker.
///
/// The resource fields are all best-effort `Option`s: `None` when the
/// probe is unavailable (not Linux, counting allocator not
/// installed) *and* when reading a sidecar written before they existed
/// — readers must treat "absent" and "unmeasured" identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    /// Jobs completed over the worker's lifetime.
    pub done: u64,
    /// Worker wall time in microseconds (anchor to exit).
    pub wall_us: u64,
    /// Trace events rejected by the worker's bounded buffer.
    pub dropped_events: u64,
    /// Process CPU time (user + system) at exit, microseconds
    /// ([`crate::cputime::process_cpu_us`]).
    pub cpu_us: Option<u64>,
    /// Heap allocations served over the worker's lifetime
    /// ([`crate::alloc::stats`]); `None` when the counting allocator is
    /// not installed.
    pub allocs: Option<u64>,
    /// Heap bytes allocated over the worker's lifetime.
    pub alloc_bytes: Option<u64>,
    /// Peak resident-set size in KiB ([`crate::cputime::peak_rss_kb`]).
    pub peak_rss_kb: Option<u64>,
    /// Memoized-stream lookups served from the worker's stream store
    /// (`sim.precompute.hits`); `None` for pre-decomposition sidecars
    /// and workers that ran no simulations.
    pub precompute_hits: Option<u64>,
    /// Memoized-stream lookups that resolved a fresh stream
    /// (`sim.precompute.misses`).
    pub precompute_misses: Option<u64>,
}

/// Any one line of a sidecar stream.
#[derive(Debug, Clone, PartialEq)]
pub enum SidecarRecord {
    /// The identifying first record.
    Meta(SidecarMeta),
    /// A periodic liveness record.
    Heartbeat(Heartbeat),
    /// One span path's aggregate timing.
    Span(SpanLine),
    /// One buffered trace event.
    Event(TraceEvent),
    /// The closing record.
    Summary(Summary),
}

impl SidecarRecord {
    /// The JSON object for this record (one JSONL line, compact).
    pub fn to_json(&self) -> Json {
        match self {
            SidecarRecord::Meta(m) => Json::obj(vec![
                ("rec", Json::str("meta")),
                ("schema_version", Json::Int(SIDECAR_SCHEMA_VERSION as i64)),
                ("pid", Json::Int(m.pid as i64)),
                ("plan_label", Json::str(m.plan_label.as_str())),
                ("shard_index", Json::Int(m.shard_index as i64)),
                ("shard_count", Json::Int(m.shard_count as i64)),
                ("jobs", Json::Int(m.jobs as i64)),
                ("anchor_unix_us", Json::Int(m.anchor_unix_us)),
            ]),
            SidecarRecord::Heartbeat(h) => Json::obj(vec![
                ("rec", Json::str("heartbeat")),
                ("t_us", Json::Int(h.t_us as i64)),
                ("done", Json::Int(h.done as i64)),
                ("total", Json::Int(h.total as i64)),
                ("last_job", h.last_job.map_or(Json::Null, |j| Json::Int(j as i64))),
                ("rss_kb", h.rss_kb.map_or(Json::Null, |r| Json::Int(r as i64))),
            ]),
            SidecarRecord::Span(s) => Json::obj(vec![
                ("rec", Json::str("span")),
                ("path", Json::str(s.path.as_str())),
                ("count", Json::Int(s.count as i64)),
                ("total_us", Json::Int(s.total_us as i64)),
                ("max_us", Json::Int(s.max_us as i64)),
            ]),
            SidecarRecord::Event(e) => {
                let mut fields = vec![("rec".to_string(), Json::str("event"))];
                if let Json::Obj(pairs) = e.to_json() {
                    fields.extend(pairs);
                }
                Json::Obj(fields)
            }
            SidecarRecord::Summary(s) => Json::obj(vec![
                ("rec", Json::str("summary")),
                ("done", Json::Int(s.done as i64)),
                ("wall_us", Json::Int(s.wall_us as i64)),
                ("dropped_events", Json::Int(s.dropped_events as i64)),
                ("cpu_us", s.cpu_us.map_or(Json::Null, |v| Json::Int(v as i64))),
                ("allocs", s.allocs.map_or(Json::Null, |v| Json::Int(v as i64))),
                ("alloc_bytes", s.alloc_bytes.map_or(Json::Null, |v| Json::Int(v as i64))),
                ("peak_rss_kb", s.peak_rss_kb.map_or(Json::Null, |v| Json::Int(v as i64))),
                ("precompute_hits", s.precompute_hits.map_or(Json::Null, |v| Json::Int(v as i64))),
                (
                    "precompute_misses",
                    s.precompute_misses.map_or(Json::Null, |v| Json::Int(v as i64)),
                ),
            ]),
        }
    }

    /// Rebuilds a record from its JSON object form.
    ///
    /// # Errors
    ///
    /// Names the missing/invalid field or unknown `rec` tag.
    pub fn from_json(doc: &Json) -> Result<SidecarRecord, String> {
        let rec = doc.get("rec").and_then(Json::as_str).ok_or("missing rec tag")?;
        let int = |key: &str| -> Result<i64, String> {
            doc.get(key).and_then(Json::as_i64).ok_or_else(|| format!("missing {key}"))
        };
        let uint = |key: &str| -> Result<u64, String> { Ok(int(key)?.max(0) as u64) };
        let opt_uint = |key: &str| -> Option<u64> {
            doc.get(key).and_then(Json::as_i64).map(|v| v.max(0) as u64)
        };
        match rec {
            "meta" => {
                let version = uint("schema_version")?;
                if version > SIDECAR_SCHEMA_VERSION {
                    return Err(format!(
                        "sidecar schema v{version} is newer than supported v{SIDECAR_SCHEMA_VERSION}"
                    ));
                }
                Ok(SidecarRecord::Meta(SidecarMeta {
                    pid: uint("pid")?,
                    plan_label: doc
                        .get("plan_label")
                        .and_then(Json::as_str)
                        .ok_or("missing plan_label")?
                        .to_string(),
                    shard_index: uint("shard_index")?,
                    shard_count: uint("shard_count")?,
                    jobs: uint("jobs")?,
                    anchor_unix_us: int("anchor_unix_us")?,
                }))
            }
            "heartbeat" => Ok(SidecarRecord::Heartbeat(Heartbeat {
                t_us: uint("t_us")?,
                done: uint("done")?,
                total: uint("total")?,
                last_job: opt_uint("last_job"),
                rss_kb: opt_uint("rss_kb"),
            })),
            "span" => Ok(SidecarRecord::Span(SpanLine {
                path: doc.get("path").and_then(Json::as_str).ok_or("missing path")?.to_string(),
                count: uint("count")?,
                total_us: uint("total_us")?,
                max_us: uint("max_us")?,
            })),
            "event" => TraceEvent::from_json(doc)
                .map(SidecarRecord::Event)
                .ok_or_else(|| "malformed event record".to_string()),
            "summary" => Ok(SidecarRecord::Summary(Summary {
                done: uint("done")?,
                wall_us: uint("wall_us")?,
                dropped_events: uint("dropped_events")?,
                // Resource totals arrived after v1 sidecars shipped:
                // absent fields parse as "unmeasured", not as errors.
                cpu_us: opt_uint("cpu_us"),
                allocs: opt_uint("allocs"),
                alloc_bytes: opt_uint("alloc_bytes"),
                peak_rss_kb: opt_uint("peak_rss_kb"),
                precompute_hits: opt_uint("precompute_hits"),
                precompute_misses: opt_uint("precompute_misses"),
            })),
            other => Err(format!("unknown rec tag {other:?}")),
        }
    }
}

/// Converts a span-collector snapshot into sidecar span lines.
pub fn span_lines(snapshot: &[(String, SpanStat)]) -> Vec<SpanLine> {
    snapshot
        .iter()
        .map(|(path, stat)| SpanLine {
            path: path.clone(),
            count: stat.count,
            total_us: stat.total.as_micros() as u64,
            max_us: stat.max.as_micros() as u64,
        })
        .collect()
}

/// Streaming sidecar writer: one flushed JSONL line per record, so the
/// parent sees heartbeats promptly and a crash loses at most the line
/// being written.
#[derive(Debug)]
pub struct SidecarWriter {
    out: Mutex<BufWriter<File>>,
}

impl SidecarWriter {
    /// Creates (truncating) the sidecar and writes the `meta` line.
    ///
    /// # Errors
    ///
    /// Propagates file creation/write failures with the path named.
    pub fn create(path: &Path, meta: &SidecarMeta) -> Result<SidecarWriter, String> {
        let file =
            File::create(path).map_err(|e| format!("create sidecar {}: {e}", path.display()))?;
        let writer = SidecarWriter { out: Mutex::new(BufWriter::new(file)) };
        writer
            .write_record(&SidecarRecord::Meta(meta.clone()))
            .map_err(|e| format!("write sidecar meta {}: {e}", path.display()))?;
        Ok(writer)
    }

    fn write_record(&self, record: &SidecarRecord) -> std::io::Result<()> {
        let mut out = self.out.lock().expect("sidecar writer poisoned");
        out.write_all(record.to_json().to_string_compact().as_bytes())?;
        out.write_all(b"\n")?;
        out.flush()
    }

    /// Appends a heartbeat line. Errors are swallowed: liveness
    /// reporting must never take down the work it reports on.
    pub fn heartbeat(&self, beat: &Heartbeat) {
        let _ = self.write_record(&SidecarRecord::Heartbeat(*beat));
    }

    /// Writes the closing records: the span table, the trace event
    /// buffer (pass empty when tracing is off), and the summary.
    ///
    /// # Errors
    ///
    /// Propagates the first write failure.
    pub fn finish(
        &self,
        spans: &[SpanLine],
        events: &[TraceEvent],
        summary: &Summary,
    ) -> Result<(), String> {
        for span in spans {
            self.write_record(&SidecarRecord::Span(span.clone()))
                .map_err(|e| format!("write sidecar span: {e}"))?;
        }
        for event in events {
            self.write_record(&SidecarRecord::Event(event.clone()))
                .map_err(|e| format!("write sidecar event: {e}"))?;
        }
        self.write_record(&SidecarRecord::Summary(*summary))
            .map_err(|e| format!("write sidecar summary: {e}"))
    }
}

/// A fully-read sidecar, grouped by record kind in stream order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SidecarDoc {
    /// The identifying record; `None` only for a truncated-at-birth file.
    pub meta: Option<SidecarMeta>,
    /// All heartbeats in write order.
    pub heartbeats: Vec<Heartbeat>,
    /// The worker's span table.
    pub spans: Vec<SpanLine>,
    /// The worker's trace event buffer.
    pub events: Vec<TraceEvent>,
    /// The closing record; `None` means the worker did not exit cleanly.
    pub summary: Option<Summary>,
    /// Non-fatal anomalies observed while parsing (e.g. a torn final
    /// line from a killed worker).
    pub problems: Vec<String>,
}

impl SidecarDoc {
    /// Parses a complete sidecar stream. A malformed **final** line is
    /// tolerated (a worker killed mid-write leaves one) and reported in
    /// `problems`; a malformed interior line is corruption and errors.
    ///
    /// # Errors
    ///
    /// Returns the 1-based line number and cause for interior
    /// corruption.
    pub fn parse(text: &str) -> Result<SidecarDoc, String> {
        let mut doc = SidecarDoc::default();
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        for (i, line) in lines.iter().enumerate() {
            let parsed = Json::parse(line)
                .map_err(|e| e.to_string())
                .and_then(|j| SidecarRecord::from_json(&j));
            match parsed {
                Ok(record) => doc.push(record),
                Err(cause) if i + 1 == lines.len() => {
                    doc.problems.push(format!("truncated final line: {cause}"));
                }
                Err(cause) => return Err(format!("line {}: {cause}", i + 1)),
            }
        }
        if doc.meta.is_none() {
            doc.problems.push("no meta record".to_string());
        }
        if doc.summary.is_none() {
            doc.problems.push("no summary record (worker did not exit cleanly)".to_string());
        }
        Ok(doc)
    }

    fn push(&mut self, record: SidecarRecord) {
        match record {
            SidecarRecord::Meta(m) => self.meta = Some(m),
            SidecarRecord::Heartbeat(h) => self.heartbeats.push(h),
            SidecarRecord::Span(s) => self.spans.push(s),
            SidecarRecord::Event(e) => self.events.push(e),
            SidecarRecord::Summary(s) => self.summary = Some(s),
        }
    }

    /// Reads and parses a sidecar file.
    ///
    /// # Errors
    ///
    /// I/O failures and interior corruption, with the path named.
    pub fn read_from_path(path: &Path) -> Result<SidecarDoc, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read sidecar {}: {e}", path.display()))?;
        SidecarDoc::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Wall time covered by the heartbeat stream: anchor to the last
    /// heartbeat (the live view of a worker's age).
    pub fn last_heartbeat_t(&self) -> Option<Duration> {
        self.heartbeats.last().map(|h| Duration::from_micros(h.t_us))
    }
}

/// Incremental tail: parses the complete lines of `text` past byte
/// `offset` and returns the records plus the new offset (the byte after
/// the last newline consumed). A trailing partial line is left for the
/// next call, so the parent can poll a live file without ever seeing a
/// torn record. Unparseable complete lines are skipped — the strict
/// pass at harvest time ([`SidecarDoc::parse`]) owns corruption
/// reporting.
pub fn parse_tail(text: &str, offset: usize) -> (Vec<SidecarRecord>, usize) {
    let mut records = Vec::new();
    let mut consumed = offset.min(text.len());
    while let Some(nl) = text[consumed..].find('\n') {
        let line = &text[consumed..consumed + nl];
        consumed += nl + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Ok(record) =
            Json::parse(line).map_err(|e| e.to_string()).and_then(|j| SidecarRecord::from_json(&j))
        {
            records.push(record);
        }
    }
    (records, consumed)
}

/// All sidecars in `dir`, sorted by filename for deterministic order.
/// Unreadable or interior-corrupt files become entries in the returned
/// problem list rather than failing the collection — after a partially
/// failed run, the surviving telemetry is exactly what's wanted.
pub fn collect(dir: &Path) -> (Vec<(PathBuf, SidecarDoc)>, Vec<String>) {
    let mut docs = Vec::new();
    let mut problems = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            problems.push(format!("read sidecar dir {}: {e}", dir.display()));
            return (docs, problems);
        }
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.ends_with(SIDECAR_SUFFIX))
        })
        .collect();
    paths.sort();
    for path in paths {
        match SidecarDoc::read_from_path(&path) {
            Ok(doc) => docs.push((path, doc)),
            Err(e) => problems.push(e),
        }
    }
    (docs, problems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Phase, PARENT_PID};

    fn meta() -> SidecarMeta {
        SidecarMeta {
            pid: 4242,
            plan_label: "fig1".to_string(),
            shard_index: 1,
            shard_count: 3,
            jobs: 40,
            anchor_unix_us: 1_700_000_000_000_000,
        }
    }

    fn beat(t_us: u64, done: u64) -> Heartbeat {
        Heartbeat { t_us, done, total: 40, last_job: Some(done.saturating_sub(1)), rss_kb: None }
    }

    #[test]
    fn records_round_trip_through_json() {
        let records = vec![
            SidecarRecord::Meta(meta()),
            SidecarRecord::Heartbeat(Heartbeat {
                t_us: 17,
                done: 3,
                total: 40,
                last_job: None,
                rss_kb: Some(5_120),
            }),
            SidecarRecord::Span(SpanLine {
                path: "worker/evaluate".to_string(),
                count: 3,
                total_us: 900,
                max_us: 400,
            }),
            SidecarRecord::Event(TraceEvent {
                name: "worker".to_string(),
                cat: "span".to_string(),
                phase: Phase::Complete,
                ts_us: 10,
                dur_us: 5,
                pid: PARENT_PID,
                tid: 1,
            }),
            SidecarRecord::Summary(Summary {
                done: 40,
                wall_us: 1_234,
                dropped_events: 2,
                cpu_us: Some(800),
                allocs: Some(12_345),
                alloc_bytes: Some(1 << 20),
                peak_rss_kb: Some(64_000),
                precompute_hits: Some(1_800),
                precompute_misses: Some(225),
            }),
            // Unmeasured resources round-trip as explicit nulls.
            SidecarRecord::Summary(Summary { done: 1, wall_us: 2, ..Summary::default() }),
        ];
        for record in &records {
            let line = record.to_json().to_string_compact();
            let back = SidecarRecord::from_json(&Json::parse(&line).unwrap()).expect("parses");
            assert_eq!(&back, record, "line: {line}");
        }
    }

    #[test]
    fn doc_groups_records_and_flags_missing_summary() {
        let mut text = String::new();
        for r in [
            SidecarRecord::Meta(meta()),
            SidecarRecord::Heartbeat(beat(10, 1)),
            SidecarRecord::Heartbeat(beat(20, 2)),
        ] {
            text.push_str(&r.to_json().to_string_compact());
            text.push('\n');
        }
        let doc = SidecarDoc::parse(&text).expect("parses");
        assert_eq!(doc.meta.as_ref().unwrap().shard_index, 1);
        assert_eq!(doc.heartbeats.len(), 2);
        assert_eq!(doc.last_heartbeat_t(), Some(Duration::from_micros(20)));
        assert!(doc.summary.is_none());
        assert!(
            doc.problems.iter().any(|p| p.contains("no summary")),
            "unclean exit must be flagged: {:?}",
            doc.problems
        );
    }

    #[test]
    fn torn_final_line_is_tolerated_interior_corruption_is_not() {
        let meta_line = SidecarRecord::Meta(meta()).to_json().to_string_compact();
        let beat_line = SidecarRecord::Heartbeat(beat(10, 1)).to_json().to_string_compact();
        // A worker killed mid-write tears the last line.
        let torn = format!("{meta_line}\n{beat_line}\n{{\"rec\":\"heartb");
        let doc = SidecarDoc::parse(&torn).expect("torn tail tolerated");
        assert_eq!(doc.heartbeats.len(), 1);
        assert!(doc.problems.iter().any(|p| p.contains("truncated final line")));
        // The same garbage mid-stream is corruption.
        let corrupt = format!("{meta_line}\n{{\"rec\":\"heartb\n{beat_line}\n");
        let err = SidecarDoc::parse(&corrupt).expect_err("interior corruption errors");
        assert!(err.starts_with("line 2:"), "names the line: {err}");
    }

    #[test]
    fn tail_consumes_only_complete_lines() {
        let meta_line = SidecarRecord::Meta(meta()).to_json().to_string_compact();
        let beat_line = SidecarRecord::Heartbeat(beat(10, 1)).to_json().to_string_compact();
        let partial = format!("{meta_line}\n{beat_line}\n{{\"rec\":\"hea");
        let (records, offset) = parse_tail(&partial, 0);
        assert_eq!(records.len(), 2);
        assert_eq!(offset, meta_line.len() + beat_line.len() + 2);
        // The torn tail completes; resuming from the offset sees it.
        let full = format!("{partial}rtbeat\",\"t_us\":20,\"done\":2,\"total\":40}}\n");
        let (more, end) = parse_tail(&full, offset);
        assert_eq!(more.len(), 1);
        assert!(matches!(&more[0], SidecarRecord::Heartbeat(h) if h.t_us == 20));
        assert_eq!(end, full.len());
        // Idempotent at the end of input.
        let (none, same) = parse_tail(&full, end);
        assert!(none.is_empty());
        assert_eq!(same, end);
    }

    #[test]
    fn writer_reader_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("udse_sidecar_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("x.shard-0of1{SIDECAR_SUFFIX}"));
        let writer = SidecarWriter::create(&path, &meta()).expect("create");
        writer.heartbeat(&beat(5, 1));
        let spans =
            vec![SpanLine { path: "worker".to_string(), count: 1, total_us: 99, max_us: 99 }];
        let events = vec![TraceEvent {
            name: "worker".to_string(),
            cat: "span".to_string(),
            phase: Phase::Complete,
            ts_us: 0,
            dur_us: 99,
            pid: PARENT_PID,
            tid: 1,
        }];
        writer
            .finish(&spans, &events, &Summary { done: 40, wall_us: 100, ..Summary::default() })
            .expect("finish");
        let doc = SidecarDoc::read_from_path(&path).expect("reads");
        assert!(doc.problems.is_empty(), "clean file: {:?}", doc.problems);
        assert_eq!(doc.meta.as_ref().unwrap(), &meta());
        assert_eq!(doc.heartbeats, vec![beat(5, 1)]);
        assert_eq!(doc.spans, spans);
        assert_eq!(doc.events, events);
        assert_eq!(doc.summary.unwrap().done, 40);

        // collect() finds it by suffix and ignores other files.
        std::fs::write(dir.join("x.shard-0of1.json"), "{}").unwrap();
        let (docs, problems) = collect(&dir);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].0, path);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn collect_reports_unreadable_dir_as_problem() {
        let missing = std::env::temp_dir().join("udse_sidecar_no_such_dir_xyz");
        let (docs, problems) = collect(&missing);
        assert!(docs.is_empty());
        assert_eq!(problems.len(), 1);
    }

    #[test]
    fn span_lines_convert_collector_snapshots() {
        let collector = crate::span::Collector::new();
        collector.record("a/b", Duration::from_micros(250));
        collector.record("a/b", Duration::from_micros(750));
        let lines = span_lines(&collector.snapshot());
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].path, "a/b");
        assert_eq!(lines[0].count, 2);
        assert_eq!(lines[0].total_us, 1_000);
        assert_eq!(lines[0].max_us, 750);
    }

    #[test]
    fn newer_schema_versions_are_rejected() {
        let line = format!(
            "{{\"rec\":\"meta\",\"schema_version\":{},\"pid\":1,\"plan_label\":\"x\",\
             \"shard_index\":0,\"shard_count\":1,\"jobs\":1,\"anchor_unix_us\":0}}",
            SIDECAR_SCHEMA_VERSION + 1
        );
        let doc = Json::parse(&line).unwrap();
        let err = SidecarRecord::from_json(&doc).expect_err("future schema refused");
        assert!(err.contains("newer than supported"), "{err}");
    }

    #[test]
    fn v1_summaries_without_resource_fields_still_parse() {
        let line = "{\"rec\":\"summary\",\"done\":40,\"wall_us\":123,\"dropped_events\":0}";
        let back = SidecarRecord::from_json(&Json::parse(line).unwrap()).expect("v1 parses");
        let SidecarRecord::Summary(s) = back else { panic!("not a summary: {back:?}") };
        assert_eq!(s.done, 40);
        assert_eq!(s.cpu_us, None);
        assert_eq!(s.allocs, None);
        assert_eq!(s.alloc_bytes, None);
        assert_eq!(s.peak_rss_kb, None);
    }
}
