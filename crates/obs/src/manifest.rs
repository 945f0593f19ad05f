//! Run manifests: a machine-readable record of what a run did.
//!
//! A [`RunManifest`] accumulates per-artifact wall times plus arbitrary
//! configuration entries (seeds, study config, command line), and at
//! write time folds in a snapshot of the global metrics registry and
//! span collector. The result is a single JSON document (see
//! [`crate::json`]) that answers "what ran, how long did each piece
//! take, and what did the counters say" without scraping logs.
//!
//! # Examples
//!
//! ```
//! use udse_obs::{Json, RunManifest};
//!
//! let mut m = RunManifest::new("repro");
//! m.set("quick", Json::Bool(true));
//! m.record_artifact("fig3", 0.25);
//! let doc = m.to_json();
//! assert_eq!(doc.get("tool").and_then(Json::as_str), Some("repro"));
//! ```

use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::metrics::MetricValue;
use crate::quality::QualityRecord;
use crate::{metrics, quality, span};

/// Manifest JSON layout version, bumped on incompatible changes.
///
/// v2 added the `quality` section (model-quality records, see
/// [`crate::quality`]); v3 (this version) adds the `resources` section
/// (process allocation totals, peak RSS, CPU time — see
/// [`ResourceTotals`]) and per-span `cpu_seconds`/`allocs`/`alloc_bytes`
/// columns. [`ParsedManifest`] reads v3 only.
pub const SCHEMA_VERSION: i64 = 3;

/// One produced artifact and how long it took.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactRecord {
    /// Artifact name as passed to the producing command (e.g. `fig3`).
    pub name: String,
    /// Wall-clock seconds spent producing it.
    pub wall_seconds: f64,
}

/// Whole-process resource totals, captured at manifest-write time and
/// stored in the v3 `resources` section. The default is "nothing
/// measured": no counting allocator, zero allocation fields, and no
/// RSS or CPU probe.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResourceTotals {
    /// Whether the counting allocator served this process; the four
    /// allocation fields are meaningful only when `true` (they read
    /// zero otherwise, which is *not* the same as "allocation-free").
    pub alloc_counting: bool,
    /// Heap allocations served since startup.
    pub allocs: u64,
    /// Heap deallocations served since startup.
    pub deallocs: u64,
    /// Total heap bytes ever allocated.
    pub alloc_bytes: u64,
    /// High-water mark of live heap bytes.
    pub peak_bytes: u64,
    /// Peak resident-set size in KiB (`VmHWM`); `None` off-Linux.
    pub peak_rss_kb: Option<u64>,
    /// Process CPU time (user + system), seconds; `None` off-Linux.
    pub cpu_seconds: Option<f64>,
}

impl ResourceTotals {
    /// Snapshots this process's counters and resource probes.
    pub fn capture() -> Self {
        let a = crate::alloc::stats();
        ResourceTotals {
            alloc_counting: crate::alloc::counting(),
            allocs: a.allocs,
            deallocs: a.deallocs,
            alloc_bytes: a.bytes_allocated,
            peak_bytes: a.peak_bytes,
            peak_rss_kb: crate::cputime::peak_rss_kb(),
            cpu_seconds: crate::cputime::process_cpu_us().map(|us| us as f64 / 1e6),
        }
    }

    /// The `resources` section object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("alloc_counting", Json::Bool(self.alloc_counting)),
            ("allocs", Json::Int(self.allocs as i64)),
            ("deallocs", Json::Int(self.deallocs as i64)),
            ("alloc_bytes", Json::Int(self.alloc_bytes as i64)),
            ("peak_bytes", Json::Int(self.peak_bytes as i64)),
            ("peak_rss_kb", self.peak_rss_kb.map_or(Json::Null, |v| Json::Int(v as i64))),
            ("cpu_seconds", self.cpu_seconds.map_or(Json::Null, Json::Float)),
        ])
    }

    /// Reads a `resources` section.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let f = Fields::of(doc, "resources")?;
        Ok(ResourceTotals {
            alloc_counting: f.bool("alloc_counting")?,
            allocs: f.u64("allocs")?,
            deallocs: f.u64("deallocs")?,
            alloc_bytes: f.u64("alloc_bytes")?,
            peak_bytes: f.u64("peak_bytes")?,
            peak_rss_kb: f.nullable("peak_rss_kb", Fields::u64)?,
            cpu_seconds: f.nullable("cpu_seconds", Fields::f64)?,
        })
    }
}

/// An in-progress record of a run, serialized to JSON at the end.
#[derive(Debug)]
pub struct RunManifest {
    tool: String,
    command: Vec<String>,
    custom: Vec<(String, Json)>,
    artifacts: Vec<ArtifactRecord>,
}

impl RunManifest {
    /// Starts a manifest for the named tool, capturing the process
    /// command line.
    pub fn new(tool: &str) -> Self {
        RunManifest {
            tool: tool.to_string(),
            command: std::env::args().collect(),
            custom: Vec::new(),
            artifacts: Vec::new(),
        }
    }

    /// Adds (or replaces) a configuration entry such as a seed or flag.
    pub fn set(&mut self, key: &str, value: Json) {
        if let Some(slot) = self.custom.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.custom.push((key.to_string(), value));
        }
    }

    /// Records that `name` was produced in `wall_seconds`.
    pub fn record_artifact(&mut self, name: &str, wall_seconds: f64) {
        self.artifacts.push(ArtifactRecord { name: name.to_string(), wall_seconds });
    }

    /// Artifacts recorded so far, in execution order.
    pub fn artifacts(&self) -> &[ArtifactRecord] {
        &self.artifacts
    }

    /// Assembles the manifest document, snapshotting the global metrics
    /// registry, span collector, and quality collector at call time.
    ///
    /// Serialization is deterministic for deterministic content: config
    /// keys are sorted here, and the metrics, span, and quality
    /// snapshots are each sorted by their collectors, so two runs that
    /// measured the same things produce byte-identical documents modulo
    /// timings (`udse-inspect diff` and committed baselines rely on
    /// this).
    pub fn to_json(&self) -> Json {
        let created_unix_ms =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as i64).unwrap_or(0);

        let mut config = self.custom.clone();
        config.sort_by(|a, b| a.0.cmp(&b.0));

        let artifacts = Json::Arr(
            self.artifacts
                .iter()
                .map(|a| {
                    Json::obj([
                        ("name", Json::str(a.name.as_str())),
                        ("wall_seconds", Json::Float(a.wall_seconds)),
                    ])
                })
                .collect(),
        );

        let metrics = Json::Obj(
            metrics::global()
                .snapshot()
                .into_iter()
                .map(|m| (m.name.to_string(), metric_to_json(&m.value)))
                .collect(),
        );

        let spans = Json::Obj(
            span::global()
                .snapshot()
                .into_iter()
                .map(|(path, s)| {
                    (
                        path,
                        Json::obj([
                            ("count", Json::Int(s.count as i64)),
                            ("total_seconds", Json::Float(s.total.as_secs_f64())),
                            ("max_seconds", Json::Float(s.max.as_secs_f64())),
                            ("cpu_seconds", Json::Float(s.cpu.as_secs_f64())),
                            ("allocs", Json::Int(s.allocs as i64)),
                            ("alloc_bytes", Json::Int(s.alloc_bytes as i64)),
                        ]),
                    )
                })
                .collect(),
        );

        Json::obj([
            ("schema_version", Json::Int(SCHEMA_VERSION)),
            ("tool", Json::str(self.tool.as_str())),
            ("created_unix_ms", Json::Int(created_unix_ms)),
            ("command", Json::Arr(self.command.iter().map(|a| Json::str(a.as_str())).collect())),
            ("config", Json::Obj(config)),
            ("artifacts", artifacts),
            ("metrics", metrics),
            ("spans", spans),
            ("quality", quality::global().to_json()),
            ("resources", ResourceTotals::capture().to_json()),
        ])
    }

    /// Writes the pretty-printed manifest to `path`, creating missing
    /// parent directories.
    ///
    /// # Errors
    ///
    /// Any I/O failure is returned with the offending path in the error
    /// message, so callers can surface it verbatim.
    pub fn write_to_path(&self, path: &std::path::Path) -> std::io::Result<()> {
        write_with_parents(path, &self.to_json().to_string_pretty())
    }
}

/// Writes `contents` to `path`, creating missing parent directories and
/// wrapping any failure with the path it concerns.
///
/// # Errors
///
/// Propagates directory-creation and write failures, annotated with the
/// path.
pub fn write_with_parents(path: &std::path::Path, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| {
                std::io::Error::new(
                    e.kind(),
                    format!("creating directory {} for {}: {e}", parent.display(), path.display()),
                )
            })?;
        }
    }
    std::fs::write(path, contents)
        .map_err(|e| std::io::Error::new(e.kind(), format!("writing {}: {e}", path.display())))
}

fn metric_to_json(value: &MetricValue) -> Json {
    match value {
        MetricValue::Counter(v) => Json::Int(*v as i64),
        MetricValue::Gauge(v) => Json::Float(*v),
    }
}

/// Required-field access to one object of a manifest document: every
/// accessor fails, naming the object and field, when the field is
/// missing or has the wrong type.
pub(crate) struct Fields<'a> {
    doc: &'a Json,
    ctx: &'a str,
}

impl<'a> Fields<'a> {
    /// Wraps `doc`, which must be an object; `ctx` names it in errors.
    pub(crate) fn of(doc: &'a Json, ctx: &'a str) -> Result<Self, String> {
        match doc {
            Json::Obj(_) => Ok(Fields { doc, ctx }),
            _ => Err(format!("{ctx}: expected an object")),
        }
    }

    fn get(&self, key: &str) -> Result<&'a Json, String> {
        self.doc.get(key).ok_or_else(|| format!("{}: missing {key}", self.ctx))
    }

    fn typed<T>(
        &self,
        key: &str,
        what: &str,
        f: impl Fn(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        f(self.get(key)?).ok_or_else(|| format!("{}.{key}: expected {what}", self.ctx))
    }

    pub(crate) fn f64(&self, key: &str) -> Result<f64, String> {
        self.typed(key, "a number", Json::as_f64)
    }

    pub(crate) fn u64(&self, key: &str) -> Result<u64, String> {
        self.typed(key, "a non-negative integer", |v| v.as_i64().filter(|&n| n >= 0))
            .map(|n| n as u64)
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        self.typed(key, "a boolean", Json::as_bool)
    }

    fn str(&self, key: &str) -> Result<&'a str, String> {
        self.typed(key, "a string", Json::as_str)
    }

    fn arr(&self, key: &str) -> Result<&'a [Json], String> {
        self.typed(key, "an array", Json::as_arr)
    }

    fn obj(&self, key: &str) -> Result<&'a [(String, Json)], String> {
        self.typed(key, "an object", |v| match v {
            Json::Obj(pairs) => Some(pairs.as_slice()),
            _ => None,
        })
    }

    /// A field that must be present but may be `null` ("not measured").
    pub(crate) fn nullable<T>(
        &self,
        key: &str,
        read: fn(&Self, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.get(key)? {
            Json::Null => Ok(None),
            _ => read(self, key).map(Some),
        }
    }
}

/// Aggregated timing of one span path, as stored in a manifest.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotal {
    /// Completed executions.
    pub count: u64,
    /// Total wall time across executions, seconds.
    pub total_seconds: f64,
    /// Longest single execution, seconds.
    pub max_seconds: f64,
    /// Total executing-thread CPU time, seconds (0 where the thread CPU
    /// clock is unavailable).
    pub cpu_seconds: f64,
    /// Heap allocations on the executing thread (0 without the counting
    /// allocator).
    pub allocs: u64,
    /// Heap bytes allocated on the executing thread.
    pub alloc_bytes: u64,
}

/// A manifest read back from disk. Only the layout this build writes
/// ([`SCHEMA_VERSION`]) is accepted, and every field the writer emits
/// is required: a missing or mistyped field is an error, never a
/// default.
#[derive(Debug, Clone)]
pub struct ParsedManifest {
    /// The document's declared layout version.
    pub schema_version: i64,
    /// Producing tool (`repro`, …).
    pub tool: String,
    /// Creation time, milliseconds since the Unix epoch.
    pub created_unix_ms: i64,
    /// Configuration entries (seeds, flags), sorted by key.
    pub config: Vec<(String, Json)>,
    /// Artifacts in execution order.
    pub artifacts: Vec<ArtifactRecord>,
    /// Metric snapshots by name; values keep their raw JSON form
    /// (`Int` counters, `Float` gauges; older baselines also hold
    /// histogram objects).
    pub metrics: Vec<(String, Json)>,
    /// Span totals by path.
    pub spans: Vec<(String, SpanTotal)>,
    /// Model-quality records, sorted by key.
    pub quality: Vec<QualityRecord>,
    /// Whole-process resource totals.
    pub resources: ResourceTotals,
}

impl ParsedManifest {
    /// Reads and parses a manifest file.
    ///
    /// # Errors
    ///
    /// Returns a message naming `path` for I/O, JSON, and schema
    /// failures alike.
    pub fn read_from_path(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading manifest {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("manifest {}: {e}", path.display()))
    }

    /// Parses a manifest document.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, a schema version other than
    /// [`SCHEMA_VERSION`], or a missing or mistyped field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json(&doc)
    }

    /// Interprets an already-parsed document as a manifest.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ParsedManifest::parse`].
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let version = doc
            .get("schema_version")
            .and_then(Json::as_i64)
            .ok_or("missing schema_version — not a run manifest")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (this build reads {SCHEMA_VERSION})"
            ));
        }
        let f = Fields::of(doc, "manifest")?;
        for (i, arg) in f.arr("command")?.iter().enumerate() {
            arg.as_str().ok_or_else(|| format!("command[{i}]: expected a string"))?;
        }
        let artifacts = f
            .arr("artifacts")?
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let ctx = format!("artifacts[{i}]");
                let a = Fields::of(a, &ctx)?;
                Ok(ArtifactRecord {
                    name: a.str("name")?.to_string(),
                    wall_seconds: a.f64("wall_seconds")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let spans = f
            .obj("spans")?
            .iter()
            .map(|(path, s)| {
                let ctx = format!("spans.{path}");
                let s = Fields::of(s, &ctx)?;
                let total = SpanTotal {
                    count: s.u64("count")?,
                    total_seconds: s.f64("total_seconds")?,
                    max_seconds: s.f64("max_seconds")?,
                    cpu_seconds: s.f64("cpu_seconds")?,
                    allocs: s.u64("allocs")?,
                    alloc_bytes: s.u64("alloc_bytes")?,
                };
                Ok((path.clone(), total))
            })
            .collect::<Result<_, String>>()?;
        let quality = f
            .obj("quality")?
            .iter()
            .map(|(key, rec)| QualityRecord::from_json(key, rec))
            .collect::<Result<_, String>>()?;
        Ok(ParsedManifest {
            schema_version: version,
            tool: f.str("tool")?.to_string(),
            created_unix_ms: f.typed("created_unix_ms", "an integer", Json::as_i64)?,
            config: f.obj("config")?.to_vec(),
            artifacts,
            metrics: f.obj("metrics")?.to_vec(),
            spans,
            quality,
            resources: ResourceTotals::from_json(f.get("resources")?)?,
        })
    }

    /// Sum of per-artifact wall times, seconds.
    pub fn total_wall_seconds(&self) -> f64 {
        self.artifacts.iter().map(|a| a.wall_seconds).sum()
    }

    /// The named artifact's wall time, if recorded.
    pub fn artifact_wall_seconds(&self, name: &str) -> Option<f64> {
        self.artifacts.iter().find(|a| a.name == name).map(|a| a.wall_seconds)
    }

    /// The named metric's raw JSON value.
    pub fn metric(&self, name: &str) -> Option<&Json> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// The named quality record.
    pub fn quality_record(&self, key: &str) -> Option<&QualityRecord> {
        self.quality.iter().find(|r| r.key == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_through_json() {
        let mut m = RunManifest::new("repro-test");
        m.set("seed", Json::Int(20071215));
        m.set("quick", Json::Bool(true));
        m.set("seed", Json::Int(42)); // replace, not duplicate
        m.record_artifact("fig3", 0.125);
        m.record_artifact("tab4", 2.5);

        let text = m.to_json().to_string_pretty();
        let back = Json::parse(&text).expect("manifest is valid JSON");

        assert_eq!(back.get("schema_version").and_then(Json::as_i64), Some(SCHEMA_VERSION));
        assert_eq!(back.get("tool").and_then(Json::as_str), Some("repro-test"));
        assert!(back.get("created_unix_ms").and_then(Json::as_i64).unwrap_or(0) > 0);
        let config = back.get("config").expect("config object");
        assert_eq!(config.get("seed").and_then(Json::as_i64), Some(42));
        assert_eq!(config.get("quick"), Some(&Json::Bool(true)));

        let artifacts = back.get("artifacts").and_then(Json::as_arr).expect("artifacts");
        assert_eq!(artifacts.len(), 2);
        assert_eq!(artifacts[0].get("name").and_then(Json::as_str), Some("fig3"));
        assert_eq!(artifacts[1].get("wall_seconds").and_then(Json::as_f64), Some(2.5));

        // Metrics and spans sections exist even when empty.
        assert!(back.get("metrics").is_some());
        assert!(back.get("spans").is_some());
    }

    #[test]
    fn manifest_includes_global_metrics_and_spans() {
        metrics::counter("manifest.test.counter").add(7);
        {
            let _g = span::enter("manifest_test_span");
        }
        let m = RunManifest::new("t");
        let doc = m.to_json();
        let metrics = doc.get("metrics").expect("metrics");
        // The registry is process-global, so other tests may also bump it.
        assert!(metrics.get("manifest.test.counter").and_then(Json::as_i64).unwrap_or(0) >= 7);
        let spans = doc.get("spans").expect("spans");
        assert!(spans.get("manifest_test_span").is_some());
    }

    #[test]
    fn write_to_path_emits_parseable_file() {
        let mut m = RunManifest::new("writer");
        m.record_artifact("a", 0.0);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("udse_obs_manifest_test_{}.json", std::process::id()));
        m.write_to_path(&path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        let back = Json::parse(&text).expect("valid JSON on disk");
        assert_eq!(back.get("tool").and_then(Json::as_str), Some("writer"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn write_to_path_creates_missing_parents_and_names_path_on_failure() {
        let m = RunManifest::new("nested");
        let dir =
            std::env::temp_dir().join(format!("udse_obs_manifest_parents_{}", std::process::id()));
        let path = dir.join("deep/run.manifest.json");
        m.write_to_path(&path).expect("parents are created on demand");
        assert!(path.is_file());
        let _ = std::fs::remove_dir_all(&dir);

        // A path whose parent is a *file* cannot be created; the error
        // must name the offending path instead of panicking.
        let blocker =
            std::env::temp_dir().join(format!("udse_obs_manifest_blocker_{}", std::process::id()));
        std::fs::write(&blocker, "not a directory").expect("fixture");
        let bad = blocker.join("child.json");
        let err = m.write_to_path(&bad).expect_err("file-as-parent must fail");
        assert!(err.to_string().contains(&blocker.display().to_string()), "error: {err}");
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn serialization_is_deterministic_and_byte_identical_on_round_trip() {
        let mut m = RunManifest::new("det");
        // Insert config keys out of order; serialization must sort them.
        m.set("zeta", Json::Int(1));
        m.set("alpha", Json::Bool(false));
        m.record_artifact("fig1", 1.5);
        let doc = m.to_json();
        let config = doc.get("config").expect("config");
        match config {
            Json::Obj(pairs) => {
                let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, vec!["alpha", "zeta"], "config keys sorted");
            }
            other => panic!("config must be an object, got {other:?}"),
        }
        // parse → serialize is byte-identical: the committed BENCH
        // baselines and `udse-inspect diff` depend on a stable layout.
        let first = doc.to_string_pretty();
        let second = Json::parse(&first).expect("valid").to_string_pretty();
        assert_eq!(first, second, "round trip must be byte-identical");
    }

    #[test]
    fn manifest_carries_quality_records() {
        quality::record(
            crate::quality::QualityRecord::from_signed_errors(
                "manifest.test.bips",
                &[0.01, -0.03, 0.05],
            )
            .with_r_squared(0.99),
        );
        let doc = RunManifest::new("q").to_json();
        assert_eq!(doc.get("schema_version").and_then(Json::as_i64), Some(SCHEMA_VERSION));
        let q = doc.get("quality").expect("quality section");
        let rec = q.get("manifest.test.bips").expect("recorded key");
        assert_eq!(rec.get("n").and_then(Json::as_i64), Some(3));
        assert!(rec.get("p50").and_then(Json::as_f64).expect("p50") > 0.0);
    }

    #[test]
    fn manifest_v3_carries_resources_and_span_resource_columns() {
        {
            let _g = span::enter("manifest_resource_span");
            let v: Vec<u8> = vec![0; 64 * 1024];
            assert!(!v.is_empty());
        }
        let doc = RunManifest::new("r").to_json();
        // The obs test binary runs under the counting allocator, so the
        // captured totals are live.
        let res = doc.get("resources").expect("resources section");
        assert_eq!(res.get("alloc_counting"), Some(&Json::Bool(true)));
        assert!(res.get("allocs").and_then(Json::as_i64).unwrap_or(0) > 0);
        assert!(res.get("peak_bytes").and_then(Json::as_i64).unwrap_or(0) > 0);
        let span = doc.get("spans").and_then(|s| s.get("manifest_resource_span")).expect("span");
        assert!(span.get("allocs").and_then(Json::as_i64).unwrap_or(0) >= 1);
        assert!(span.get("alloc_bytes").and_then(Json::as_i64).unwrap_or(0) >= 64 * 1024);
        assert!(span.get("cpu_seconds").and_then(Json::as_f64).is_some());

        // And the whole thing reads back.
        let parsed = ParsedManifest::parse(&doc.to_string_pretty()).expect("parses");
        let back = parsed.resources;
        assert!(back.alloc_counting);
        assert!(back.allocs > 0);
        let (_, s) =
            parsed.spans.iter().find(|(p, _)| p == "manifest_resource_span").expect("span");
        assert!(s.allocs >= 1);
        assert!(s.alloc_bytes >= 64 * 1024);
    }

    #[test]
    fn resource_totals_round_trip_including_unmeasured_probes() {
        for r in [
            ResourceTotals {
                alloc_counting: true,
                allocs: 123,
                deallocs: 120,
                alloc_bytes: 1 << 30,
                peak_bytes: 1 << 24,
                peak_rss_kb: Some(65_536),
                cpu_seconds: Some(1.25),
            },
            ResourceTotals {
                alloc_counting: false,
                allocs: 0,
                deallocs: 0,
                alloc_bytes: 0,
                peak_bytes: 0,
                peak_rss_kb: None,
                cpu_seconds: None,
            },
        ] {
            let text = r.to_json().to_string_compact();
            let back = ResourceTotals::from_json(&Json::parse(&text).unwrap()).expect("parses");
            assert_eq!(back, r, "round trip of {text}");
        }
        assert!(ResourceTotals::from_json(&Json::Null).is_err(), "the section is required");
    }

    #[test]
    fn parsed_manifest_reads_v3_and_rejects_every_other_version() {
        quality::record(crate::quality::QualityRecord::from_signed_errors(
            "parse.test.watts",
            &[0.02],
        ));
        let mut native = RunManifest::new("v3");
        native.record_artifact("a", 1.0);
        let text = native.to_json().to_string_pretty();
        let m = ParsedManifest::parse(&text).expect("v3 parses");
        assert_eq!(m.schema_version, SCHEMA_VERSION);
        assert!(m.quality_record("parse.test.watts").is_some());
        assert_eq!(m.artifact_wall_seconds("a"), Some(1.0));
        assert_eq!(m.total_wall_seconds(), 1.0);

        for version in [1, 2, 99] {
            let old = text.replacen(
                "\"schema_version\": 3",
                &format!("\"schema_version\": {version}"),
                1,
            );
            let err = ParsedManifest::parse(&old).expect_err("other versions rejected");
            assert!(err.contains(&format!("unsupported schema_version {version}")), "err: {err}");
        }
        assert!(ParsedManifest::parse("{}").is_err(), "missing version rejected");
        assert!(ParsedManifest::parse("not json").is_err());
    }

    #[test]
    fn malformed_entries_are_errors_not_defaults() {
        quality::record(crate::quality::QualityRecord::from_signed_errors(
            "strict.test.bips",
            &[0.02, -0.04],
        ));
        {
            let _g = span::enter("strict_test_span");
        }
        let mut m = RunManifest::new("strict");
        m.record_artifact("fig1", 1.0);
        let text = m.to_json().to_string_pretty();
        let doc = Json::parse(&text).unwrap();
        let edit = |section: &str, entry: Option<&str>, field: &str, value: Option<Json>| {
            let mut doc = doc.clone();
            let Json::Obj(top) = &mut doc else { unreachable!() };
            let mut target = &mut top.iter_mut().find(|(k, _)| k == section).unwrap().1;
            if let Some(entry) = entry {
                let Json::Obj(pairs) = target else { unreachable!() };
                target = &mut pairs.iter_mut().find(|(k, _)| k == entry).unwrap().1;
            }
            if let Json::Arr(items) = target {
                target = &mut items[0];
            }
            let Json::Obj(pairs) = target else { unreachable!() };
            let slot = pairs.iter().position(|(k, _)| k == field).unwrap();
            match value {
                Some(v) => pairs[slot].1 = v,
                None => drop(pairs.remove(slot)),
            }
            ParsedManifest::from_json(&doc)
        };
        let garbled = || Some(Json::str("garbled"));
        for (section, entry, field) in [
            ("quality", Some("strict.test.bips"), "p50"),
            ("quality", Some("strict.test.bips"), "bias"),
            ("spans", Some("strict_test_span"), "cpu_seconds"),
            ("artifacts", None, "wall_seconds"),
            ("resources", None, "allocs"),
        ] {
            for value in [None, Some(Json::Null), garbled()] {
                let err = edit(section, entry, field, value.clone()).expect_err("rejected");
                assert!(err.contains(field), "{section}/{field} = {value:?}: {err}");
            }
        }
        // `null` is the "not measured" encoding where the writer uses it.
        let m = edit("quality", Some("strict.test.bips"), "r_squared", Some(Json::Null)).unwrap();
        assert!(m.quality_record("strict.test.bips").unwrap().r_squared.is_nan());
        let m = edit("resources", None, "peak_rss_kb", Some(Json::Null)).unwrap();
        assert_eq!(m.resources.peak_rss_kb, None);
        assert!(edit("resources", None, "peak_rss_kb", None).is_err(), "present even if null");
    }
}
