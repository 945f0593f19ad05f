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
/// [`crate::quality`]) and p50/p90/p99 quantile fields on histogram
/// metrics. v3 (this version) adds the `resources` section (process
/// allocation totals, peak RSS, CPU time — see [`ResourceTotals`]) and
/// per-span `cpu_seconds`/`allocs`/`alloc_bytes` columns.
/// [`ParsedManifest`] still reads v1 and v2 documents, treating the
/// additions as absent (no resources section, zero span resources).
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
/// stored in the v3 `resources` section.
#[derive(Debug, Clone, Copy, PartialEq)]
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

    /// Reads a `resources` section; `None` when `doc` is not an object
    /// (v1/v2 manifests have no such section).
    pub fn from_json(doc: &Json) -> Option<Self> {
        if !matches!(doc, Json::Obj(_)) {
            return None;
        }
        let uint = |key: &str| doc.get(key).and_then(Json::as_i64).map(|v| v.max(0) as u64);
        Some(ResourceTotals {
            alloc_counting: doc.get("alloc_counting").and_then(Json::as_bool).unwrap_or(false),
            allocs: uint("allocs").unwrap_or(0),
            deallocs: uint("deallocs").unwrap_or(0),
            alloc_bytes: uint("alloc_bytes").unwrap_or(0),
            peak_bytes: uint("peak_bytes").unwrap_or(0),
            peak_rss_kb: uint("peak_rss_kb"),
            cpu_seconds: doc.get("cpu_seconds").and_then(Json::as_f64),
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
        MetricValue::Histogram { count, sum, buckets } => Json::obj([
            ("count", Json::Int(*count as i64)),
            ("sum", Json::Float(*sum)),
            ("p50", value.histogram_quantile(0.5).map(Json::Float).unwrap_or(Json::Null)),
            ("p90", value.histogram_quantile(0.9).map(Json::Float).unwrap_or(Json::Null)),
            ("p99", value.histogram_quantile(0.99).map(Json::Float).unwrap_or(Json::Null)),
            (
                "buckets",
                Json::Arr(
                    buckets
                        .iter()
                        .map(|(le, n)| {
                            Json::obj([
                                (
                                    "le",
                                    if le.is_finite() {
                                        Json::Float(*le)
                                    } else {
                                        Json::str("+inf")
                                    },
                                ),
                                ("count", Json::Int(*n as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
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
    /// Total executing-thread CPU time, seconds (0 in pre-v3 docs and
    /// where the thread CPU clock is unavailable).
    pub cpu_seconds: f64,
    /// Heap allocations on the executing thread (0 in pre-v3 docs and
    /// without the counting allocator).
    pub allocs: u64,
    /// Heap bytes allocated on the executing thread.
    pub alloc_bytes: u64,
}

/// A manifest read back from disk, accepting any schema version this
/// build understands (1 through 3): v1 documents simply have no quality
/// records and no histogram quantile fields, and pre-v3 documents have
/// no `resources` section and zero span resource columns.
#[derive(Debug, Clone)]
pub struct ParsedManifest {
    /// The document's declared layout version.
    pub schema_version: i64,
    /// Producing tool (`repro`, …).
    pub tool: String,
    /// Creation time, milliseconds since the Unix epoch.
    pub created_unix_ms: i64,
    /// Configuration entries (seeds, flags), sorted by key in v2 docs.
    pub config: Vec<(String, Json)>,
    /// Artifacts in execution order.
    pub artifacts: Vec<ArtifactRecord>,
    /// Metric snapshots by name; values keep their raw JSON form
    /// (`Int` counters, `Float` gauges, objects for histograms).
    pub metrics: Vec<(String, Json)>,
    /// Span totals by path.
    pub spans: Vec<(String, SpanTotal)>,
    /// Model-quality records, sorted by key (empty for v1 documents).
    pub quality: Vec<QualityRecord>,
    /// Whole-process resource totals (`None` for pre-v3 documents).
    pub resources: Option<ResourceTotals>,
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
    /// Fails on malformed JSON, a missing or non-object layout, or a
    /// schema version newer than this build writes.
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
        if !(1..=SCHEMA_VERSION).contains(&version) {
            return Err(format!(
                "unsupported schema_version {version} (this build reads 1..={SCHEMA_VERSION})"
            ));
        }
        let obj_entries = |key: &str| -> Vec<(String, Json)> {
            match doc.get(key) {
                Some(Json::Obj(pairs)) => pairs.clone(),
                _ => Vec::new(),
            }
        };
        let artifacts = doc
            .get("artifacts")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|a| {
                Some(ArtifactRecord {
                    name: a.get("name")?.as_str()?.to_string(),
                    wall_seconds: a.get("wall_seconds")?.as_f64()?,
                })
            })
            .collect();
        let spans = obj_entries("spans")
            .into_iter()
            .filter_map(|(path, s)| {
                Some((
                    path,
                    SpanTotal {
                        count: s.get("count")?.as_i64()?.max(0) as u64,
                        total_seconds: s.get("total_seconds")?.as_f64()?,
                        max_seconds: s.get("max_seconds")?.as_f64()?,
                        // Resource columns are v3 additions: absent in
                        // older documents, defaulting to zero.
                        cpu_seconds: s.get("cpu_seconds").and_then(Json::as_f64).unwrap_or(0.0),
                        allocs: s.get("allocs").and_then(Json::as_i64).unwrap_or(0).max(0) as u64,
                        alloc_bytes: s.get("alloc_bytes").and_then(Json::as_i64).unwrap_or(0).max(0)
                            as u64,
                    },
                ))
            })
            .collect();
        let quality = obj_entries("quality")
            .into_iter()
            .filter_map(|(key, rec)| QualityRecord::from_json(&key, &rec))
            .collect();
        Ok(ParsedManifest {
            schema_version: version,
            tool: doc.get("tool").and_then(Json::as_str).unwrap_or("").to_string(),
            created_unix_ms: doc.get("created_unix_ms").and_then(Json::as_i64).unwrap_or(0),
            config: obj_entries("config"),
            artifacts,
            metrics: obj_entries("metrics"),
            spans,
            quality,
            resources: doc.get("resources").and_then(ResourceTotals::from_json),
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

/// Aggregates several run manifests into one schema-v3 document, for
/// flaky-machine CI (merge repeated runs and keep the best wall numbers)
/// and for sharded runs (merge the parent manifest with the per-shard
/// worker manifests so counters reconstruct single-process totals).
///
/// Rules, per section:
///
/// - **config**: the first manifest's entries, plus a `merged_inputs`
///   provenance array listing every input label in order; keys sorted.
/// - **artifacts**: union by name, keeping the *minimum* wall time
///   (first manifest's order, unseen names appended).
/// - **spans**: union by path, minimum `total_seconds` and
///   `max_seconds`, maximum `count`; sorted by path. Resource columns
///   merge conservatively: minimum `cpu_seconds` (timing, like wall),
///   maximum `allocs`/`alloc_bytes` (deterministic, so inputs that are
///   runs of the same experiment agree anyway).
/// - **metrics**: union by name, sorted. Integer counters that agree
///   across inputs pass through; disagreeing counters are *summed*
///   (shard manifests partition the work, so their counters add up to
///   the single-process totals). Gauges keep the maximum; structured
///   metrics (histograms) keep the first occurrence.
/// - **resources**: present when any input has the section. Counter
///   fields (`allocs`, `deallocs`, `alloc_bytes`) follow the metrics
///   rule — agree → pass through, disagree → sum (shards partition the
///   work); `peak_bytes`/`peak_rss_kb` keep the maximum;
///   `cpu_seconds` is summed (a sharded run's total CPU bill across
///   processes — compare against min wall for parallel efficiency);
///   `alloc_counting` is true only when *every* contributing input
///   counted (a mixed merge would under-report).
/// - **quality**: union by key, first occurrence passed through
///   verbatim. A key present in several inputs must agree within
///   `quality_tol` (absolute, on p50/p90/max/bias) or the merge fails —
///   quality is deterministic, so disagreement means the inputs are not
///   runs of the same experiment.
/// - `created_unix_ms` is the minimum; `tool` comes from the first.
///
/// # Errors
///
/// Fails on an empty input list or a quality disagreement, naming the
/// key, statistic, and both values.
pub fn merge_manifests(
    inputs: &[(String, ParsedManifest)],
    quality_tol: f64,
) -> Result<Json, String> {
    let (_, first) = inputs.first().ok_or("no manifests to merge")?;

    let mut config = first.config.clone();
    config.retain(|(k, _)| k != "merged_inputs");
    config.push((
        "merged_inputs".to_string(),
        Json::Arr(inputs.iter().map(|(label, _)| Json::str(label.as_str())).collect()),
    ));
    config.sort_by(|a, b| a.0.cmp(&b.0));

    let mut artifacts: Vec<ArtifactRecord> = Vec::new();
    for (_, m) in inputs {
        for a in &m.artifacts {
            match artifacts.iter_mut().find(|e| e.name == a.name) {
                Some(e) => e.wall_seconds = e.wall_seconds.min(a.wall_seconds),
                None => artifacts.push(a.clone()),
            }
        }
    }

    let mut spans: Vec<(String, SpanTotal)> = Vec::new();
    for (_, m) in inputs {
        for (path, s) in &m.spans {
            match spans.iter_mut().find(|(p, _)| p == path) {
                Some((_, e)) => {
                    e.total_seconds = e.total_seconds.min(s.total_seconds);
                    e.max_seconds = e.max_seconds.min(s.max_seconds);
                    e.count = e.count.max(s.count);
                    e.cpu_seconds = e.cpu_seconds.min(s.cpu_seconds);
                    e.allocs = e.allocs.max(s.allocs);
                    e.alloc_bytes = e.alloc_bytes.max(s.alloc_bytes);
                }
                None => spans.push((path.clone(), *s)),
            }
        }
    }
    spans.sort_by(|a, b| a.0.cmp(&b.0));

    let resources = merge_resources(inputs);

    let mut metrics: Vec<(String, Vec<&Json>)> = Vec::new();
    for (_, m) in inputs {
        for (name, value) in &m.metrics {
            match metrics.iter_mut().find(|(n, _)| n == name) {
                Some((_, seen)) => seen.push(value),
                None => metrics.push((name.clone(), vec![value])),
            }
        }
    }
    metrics.sort_by(|a, b| a.0.cmp(&b.0));
    let metrics: Vec<(String, Json)> = metrics
        .into_iter()
        .map(|(name, seen)| {
            let merged = if seen.iter().all(|v| v.as_i64().is_some()) {
                let values: Vec<i64> = seen.iter().map(|v| v.as_i64().expect("checked")).collect();
                if values.windows(2).all(|w| w[0] == w[1]) {
                    Json::Int(values[0])
                } else {
                    Json::Int(values.iter().sum())
                }
            } else if seen.iter().all(|v| matches!(v, Json::Float(_) | Json::Int(_))) {
                Json::Float(
                    seen.iter().filter_map(|v| v.as_f64()).fold(f64::NEG_INFINITY, f64::max),
                )
            } else {
                seen[0].clone()
            };
            (name, merged)
        })
        .collect();

    let mut quality: Vec<&QualityRecord> = Vec::new();
    for (label, m) in inputs {
        for rec in &m.quality {
            match quality.iter().find(|r| r.key == rec.key) {
                Some(kept) => {
                    for (stat, a, b) in [
                        ("p50", kept.p50, rec.p50),
                        ("p90", kept.p90, rec.p90),
                        ("max", kept.max, rec.max),
                        ("bias", kept.bias, rec.bias),
                    ] {
                        let agree = (a - b).abs() <= quality_tol || (a.is_nan() && b.is_nan());
                        if !agree {
                            return Err(format!(
                                "quality record `{}` disagrees between inputs on {stat}: \
                                 {a} vs {b} (from {label}) exceeds tolerance {quality_tol}",
                                rec.key
                            ));
                        }
                    }
                }
                None => quality.push(rec),
            }
        }
    }
    quality.sort_by(|a, b| a.key.cmp(&b.key));

    Ok(Json::obj([
        ("schema_version", Json::Int(SCHEMA_VERSION)),
        ("tool", Json::str(first.tool.as_str())),
        (
            "created_unix_ms",
            Json::Int(inputs.iter().map(|(_, m)| m.created_unix_ms).min().unwrap_or(0)),
        ),
        ("config", Json::Obj(config)),
        (
            "artifacts",
            Json::Arr(
                artifacts
                    .iter()
                    .map(|a| {
                        Json::obj([
                            ("name", Json::str(a.name.as_str())),
                            ("wall_seconds", Json::Float(a.wall_seconds)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics", Json::Obj(metrics)),
        (
            "spans",
            Json::Obj(
                spans
                    .into_iter()
                    .map(|(path, s)| {
                        (
                            path,
                            Json::obj([
                                ("count", Json::Int(s.count as i64)),
                                ("total_seconds", Json::Float(s.total_seconds)),
                                ("max_seconds", Json::Float(s.max_seconds)),
                                ("cpu_seconds", Json::Float(s.cpu_seconds)),
                                ("allocs", Json::Int(s.allocs as i64)),
                                ("alloc_bytes", Json::Int(s.alloc_bytes as i64)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("quality", Json::Obj(quality.into_iter().map(|r| (r.key.clone(), r.to_json())).collect())),
        ("resources", resources.map_or(Json::Null, |r| r.to_json())),
    ]))
}

/// Folds the inputs' `resources` sections per the rules documented on
/// [`merge_manifests`]; `None` when no input has the section.
fn merge_resources(inputs: &[(String, ParsedManifest)]) -> Option<ResourceTotals> {
    let seen: Vec<ResourceTotals> = inputs.iter().filter_map(|(_, m)| m.resources).collect();
    if seen.is_empty() {
        return None;
    }
    let counter = |field: fn(&ResourceTotals) -> u64| -> u64 {
        let values: Vec<u64> = seen.iter().map(field).collect();
        if values.windows(2).all(|w| w[0] == w[1]) {
            values[0]
        } else {
            values.iter().sum()
        }
    };
    Some(ResourceTotals {
        alloc_counting: seen.iter().all(|r| r.alloc_counting),
        allocs: counter(|r| r.allocs),
        deallocs: counter(|r| r.deallocs),
        alloc_bytes: counter(|r| r.alloc_bytes),
        peak_bytes: seen.iter().map(|r| r.peak_bytes).max().unwrap_or(0),
        peak_rss_kb: seen.iter().filter_map(|r| r.peak_rss_kb).max(),
        cpu_seconds: seen
            .iter()
            .filter_map(|r| r.cpu_seconds)
            .fold(None, |acc, v| Some(acc.unwrap_or(0.0) + v)),
    })
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
    fn manifest_v2_carries_quality_and_histogram_quantiles() {
        quality::record(
            crate::quality::QualityRecord::from_signed_errors(
                "manifest.test.bips",
                &[0.01, -0.03, 0.05],
            )
            .with_r_squared(0.99),
        );
        metrics::histogram("manifest.test.hist", &[0.1, 1.0, 10.0]).observe(0.5);
        let doc = RunManifest::new("q").to_json();
        assert_eq!(doc.get("schema_version").and_then(Json::as_i64), Some(SCHEMA_VERSION));
        let q = doc.get("quality").expect("quality section");
        let rec = q.get("manifest.test.bips").expect("recorded key");
        assert_eq!(rec.get("n").and_then(Json::as_i64), Some(3));
        assert!(rec.get("p50").and_then(Json::as_f64).expect("p50") > 0.0);
        let hist = doc.get("metrics").and_then(|m| m.get("manifest.test.hist")).expect("hist");
        for field in ["p50", "p90", "p99"] {
            assert!(hist.get(field).and_then(Json::as_f64).is_some(), "missing {field}");
        }
    }

    fn merge_fixture(wall: f64, counter: i64, p50: f64) -> ParsedManifest {
        let text = format!(
            r#"{{
            "schema_version": 2,
            "tool": "repro",
            "created_unix_ms": {ms},
            "config": {{"quick": true, "seed": 2007}},
            "artifacts": [{{"name": "fig1", "wall_seconds": {wall}}}],
            "metrics": {{"pool.jobs": {counter}, "sweep.designs_per_sec": {rate}}},
            "spans": {{"fig1": {{"count": 1, "total_seconds": {wall}, "max_seconds": {wall}}}}},
            "quality": {{"validation.pooled.bips": {{"n": 25, "p50": {p50}, "p90": 0.2,
                "max": 0.3, "bias": 0.0, "rmse": 0.1, "r_squared": null}}}}
        }}"#,
            ms = (wall * 1000.0) as i64 + 1000,
            rate = 100.0 * wall + 0.5,
        );
        ParsedManifest::parse(&text).expect("fixture parses")
    }

    #[test]
    fn merge_keeps_min_wall_sums_counters_and_checks_quality() {
        let a = merge_fixture(2.0, 100, 0.07);
        let b = merge_fixture(1.5, 40, 0.07);
        let doc =
            merge_manifests(&[("a.json".to_string(), a.clone()), ("b.json".to_string(), b)], 0.02)
                .expect("merge succeeds");
        let merged = ParsedManifest::from_json(&doc).expect("merged doc is a valid manifest");
        assert_eq!(merged.schema_version, SCHEMA_VERSION);
        assert_eq!(merged.artifact_wall_seconds("fig1"), Some(1.5), "min wall per artifact");
        assert_eq!(merged.spans[0].1.total_seconds, 1.5, "min wall per span");
        // Disagreeing counters sum (shards partition the work)...
        assert_eq!(merged.metric("pool.jobs").and_then(Json::as_i64), Some(140));
        // ...gauges keep the best observed value.
        assert_eq!(merged.metric("sweep.designs_per_sec").and_then(Json::as_f64), Some(200.5));
        // Quality passes through verbatim; provenance lists the inputs.
        assert_eq!(merged.quality_record("validation.pooled.bips").map(|r| r.p50), Some(0.07));
        let inputs = doc.get("config").and_then(|c| c.get("merged_inputs")).expect("provenance");
        assert_eq!(inputs.as_arr().map(<[Json]>::len), Some(2));
        assert_eq!(merged.created_unix_ms, 2500, "earliest creation time");

        // Agreeing counters pass through unsummed.
        let doc =
            merge_manifests(&[("a".to_string(), a.clone()), ("a2".to_string(), a.clone())], 0.02)
                .expect("identical runs merge");
        assert_eq!(
            ParsedManifest::from_json(&doc).unwrap().metric("pool.jobs").and_then(Json::as_i64),
            Some(100)
        );
    }

    #[test]
    fn merge_rejects_quality_disagreement_and_empty_input() {
        let a = merge_fixture(2.0, 100, 0.07);
        let b = merge_fixture(2.0, 100, 0.20);
        let err = merge_manifests(&[("a".to_string(), a), ("b".to_string(), b)], 0.02)
            .expect_err("quality drift");
        assert!(err.contains("validation.pooled.bips"), "names the key: {err}");
        assert!(err.contains("p50"), "names the stat: {err}");
        assert!(merge_manifests(&[], 0.02).is_err(), "empty input rejected");
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
        let back = parsed.resources.expect("parsed resources");
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
        assert_eq!(ResourceTotals::from_json(&Json::Null), None, "pre-v3: no section");
    }

    #[test]
    fn merge_folds_resources_per_documented_rules() {
        let with_resources = |allocs: i64, peak_rss: i64, cpu: f64| -> ParsedManifest {
            let text = format!(
                r#"{{
                "schema_version": 3, "tool": "repro", "created_unix_ms": 1,
                "config": {{}}, "artifacts": [], "metrics": {{}}, "spans": {{}},
                "quality": {{}},
                "resources": {{"alloc_counting": true, "allocs": {allocs},
                    "deallocs": {allocs}, "alloc_bytes": {b}, "peak_bytes": 10,
                    "peak_rss_kb": {peak_rss}, "cpu_seconds": {cpu}}}
            }}"#,
                b = allocs * 100,
            );
            ParsedManifest::parse(&text).expect("fixture parses")
        };
        let a = with_resources(50, 9_000, 1.5);
        let b = with_resources(70, 11_000, 2.5);
        let doc = merge_manifests(&[("a".to_string(), a.clone()), ("b".to_string(), b)], 0.02)
            .expect("merges");
        let merged = ParsedManifest::from_json(&doc).expect("valid").resources.expect("resources");
        assert_eq!(merged.allocs, 120, "disagreeing counters sum");
        assert_eq!(merged.alloc_bytes, 12_000);
        assert_eq!(merged.peak_rss_kb, Some(11_000), "peaks keep the max");
        assert_eq!(merged.cpu_seconds, Some(4.0), "CPU sums across processes");
        assert!(merged.alloc_counting);

        // Identical inputs pass counters through unsummed.
        let doc = merge_manifests(&[("a".to_string(), a.clone()), ("a2".to_string(), a)], 0.02)
            .expect("merges");
        let merged = ParsedManifest::from_json(&doc).expect("valid").resources.expect("resources");
        assert_eq!(merged.allocs, 50);

        // Pre-v3 inputs merge with no resources section.
        let doc = merge_manifests(&[("old".to_string(), merge_fixture(1.0, 10, 0.07))], 0.02)
            .expect("merges");
        assert!(ParsedManifest::from_json(&doc).expect("valid").resources.is_none());
    }

    #[test]
    fn parsed_manifest_reads_v1_through_v3_but_rejects_future() {
        let v1 = r#"{
            "schema_version": 1,
            "tool": "repro",
            "created_unix_ms": 5,
            "command": ["repro"],
            "config": {"seed": 2007},
            "artifacts": [{"name": "fig1", "wall_seconds": 2.0}],
            "metrics": {"sim.instructions": 100},
            "spans": {"fig1": {"count": 1, "total_seconds": 2.0, "max_seconds": 2.0}}
        }"#;
        let m = ParsedManifest::parse(v1).expect("v1 parses");
        assert_eq!(m.schema_version, 1);
        assert_eq!(m.tool, "repro");
        assert!(m.quality.is_empty(), "v1 has no quality section");
        assert!(m.resources.is_none(), "v1 has no resources section");
        assert_eq!(m.spans[0].1.allocs, 0, "pre-v3 span resources default to zero");
        assert_eq!(m.artifact_wall_seconds("fig1"), Some(2.0));
        assert_eq!(m.total_wall_seconds(), 2.0);
        assert_eq!(m.metric("sim.instructions").and_then(Json::as_i64), Some(100));
        assert_eq!(m.spans[0].1.count, 1);

        quality::record(crate::quality::QualityRecord::from_signed_errors(
            "parse.test.watts",
            &[0.02],
        ));
        let mut native = RunManifest::new("v2");
        native.record_artifact("a", 1.0);
        let m = ParsedManifest::parse(&native.to_json().to_string_pretty()).expect("v3 parses");
        assert_eq!(m.schema_version, SCHEMA_VERSION);
        assert!(m.quality_record("parse.test.watts").is_some());
        assert!(m.resources.is_some(), "native manifests carry resources");

        let future = r#"{"schema_version": 99, "tool": "x"}"#;
        let err = ParsedManifest::parse(future).expect_err("future version rejected");
        assert!(err.contains("unsupported schema_version 99"), "err: {err}");
        assert!(ParsedManifest::parse("{}").is_err(), "missing version rejected");
        assert!(ParsedManifest::parse("not json").is_err());
    }
}
