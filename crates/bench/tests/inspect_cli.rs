//! End-to-end tests of the `udse-inspect` binary: regression gating exit
//! codes, strict manifest reading, and Chrome-trace schema validity.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use udse_obs::{Json, ParsedManifest};

fn manifest_text(wall: f64, p50: f64) -> String {
    format!(
        r#"{{
  "schema_version": 3,
  "tool": "repro",
  "created_unix_ms": 1,
  "command": ["repro", "--quick", "fig1"],
  "config": {{"quick": true, "seed": 2007}},
  "artifacts": [{{"name": "fig1", "wall_seconds": {wall}}}],
  "metrics": {{"sim.instructions": 40500000}},
  "spans": {{
    "fig1": {{"count": 1, "total_seconds": {wall}, "max_seconds": {wall},
              "cpu_seconds": 0.0, "allocs": 0, "alloc_bytes": 0}},
    "fig1/train": {{"count": 1, "total_seconds": 2.0, "max_seconds": 2.0,
                    "cpu_seconds": 0.0, "allocs": 0, "alloc_bytes": 0}}
  }},
  "quality": {{
    "validation.pooled.bips": {{
      "n": 225, "p50": {p50}, "p90": 0.0525, "max": 0.12,
      "bias": 0.0016, "rmse": 0.03, "r_squared": null
    }}
  }},
  "resources": {{
    "alloc_counting": false, "allocs": 0, "deallocs": 0, "alloc_bytes": 0,
    "peak_bytes": 0, "peak_rss_kb": null, "cpu_seconds": null
  }}
}}
"#
    )
}

fn write_fixture(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("udse_inspect_cli_{}_{name}", std::process::id()));
    std::fs::write(&path, text).expect("fixture written");
    path
}

fn inspect(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_udse-inspect")).args(args).output().expect("udse-inspect runs")
}

#[test]
fn diff_gates_on_quality_and_wall_regressions() {
    let base = write_fixture("base.json", &manifest_text(3.0, 0.016));
    let same = write_fixture("same.json", &manifest_text(3.0, 0.016));
    let slow = write_fixture("slow.json", &manifest_text(9.0, 0.016));
    let bad = write_fixture("bad.json", &manifest_text(3.0, 0.09));

    // Identical fixed-seed runs pass.
    let out = inspect(&["diff", base.to_str().unwrap(), same.to_str().unwrap()]);
    assert!(out.status.success(), "identical runs must pass: {out:?}");

    // Quality beyond tolerance fails with exit code 1.
    let out = inspect(&["diff", base.to_str().unwrap(), bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "quality regression must gate");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("REGRESSION"), "stdout: {text}");

    // A widened tolerance lets the same pair pass. The fixture key is
    // pooled, so its center statistics answer to the pooled budget —
    // widening only the per-benchmark default must NOT unlock it.
    let out =
        inspect(&["diff", base.to_str().unwrap(), bad.to_str().unwrap(), "--tol-quality", "0.2"]);
    assert_eq!(out.status.code(), Some(1), "pooled records ignore the per-benchmark budget");
    let out = inspect(&[
        "diff",
        base.to_str().unwrap(),
        bad.to_str().unwrap(),
        "--tol-quality-pooled",
        "0.2",
    ]);
    assert!(out.status.success(), "pooled tolerance is configurable");

    // Wall-time blowup fails by default but is demotable to a warning.
    let out = inspect(&["diff", base.to_str().unwrap(), slow.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "wall regression must gate");
    let out = inspect(&["diff", base.to_str().unwrap(), slow.to_str().unwrap(), "--warn-wall"]);
    assert!(out.status.success(), "--warn-wall demotes wall regressions");
    assert!(String::from_utf8_lossy(&out.stdout).contains("warning"));

    for p in [base, same, slow, bad] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn diff_reports_missing_files_cleanly() {
    let out = inspect(&["diff", "/nonexistent/a.json", "/nonexistent/b.json"]);
    assert_eq!(out.status.code(), Some(2), "I/O errors are usage errors, not regressions");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("/nonexistent/a.json"), "error names the path: {err}");
}

#[test]
fn show_summarizes_a_manifest() {
    let path = write_fixture("show.json", &manifest_text(3.0, 0.016));
    let out = inspect(&["show", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["tool: repro", "fig1", "validation.pooled.bips", "sim.instructions"] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn trace_emits_perfetto_loadable_json() {
    let path = write_fixture("trace.json", &manifest_text(3.0, 0.016));
    let out = inspect(&["trace", path.to_str().unwrap()]);
    assert!(out.status.success());
    let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    let arr = doc.as_arr().expect("trace_event documents are arrays");
    assert_eq!(arr.len(), 2, "one event per span path");
    for e in arr {
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert!(e.get("ts").and_then(Json::as_i64).is_some());
        assert!(e.get("dur").and_then(Json::as_i64).is_some());
        assert!(e.get("pid").and_then(Json::as_i64).is_some());
        assert!(e.get("tid").and_then(Json::as_i64).is_some());
    }
    // The nested child starts where its parent starts.
    let parent = arr.iter().find(|e| e.get("name").unwrap().as_str() == Some("fig1")).unwrap();
    let child = arr.iter().find(|e| e.get("name").unwrap().as_str() == Some("fig1/train")).unwrap();
    assert_eq!(parent.get("ts"), child.get("ts"));

    // `-o` writes the file, creating parent directories on demand.
    let out_dir =
        std::env::temp_dir().join(format!("udse_inspect_trace_out_{}", std::process::id()));
    let out_path = out_dir.join("nested/run.trace.json");
    let out = inspect(&["trace", path.to_str().unwrap(), "-o", out_path.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&out_path).expect("written through new directories");
    assert!(Json::parse(&text).is_ok());
    let _ = std::fs::remove_dir_all(out_dir);
    let _ = std::fs::remove_file(path);
}

#[test]
fn trace_folded_emits_flamegraph_stacks() {
    let path = write_fixture("folded.json", &manifest_text(3.0, 0.016));
    let out = inspect(&["trace", path.to_str().unwrap(), "--folded"]);
    assert!(out.status.success(), "{out:?}");
    // Golden output: flamegraph.pl folded format, one `stack count` line
    // per span with nonzero self time, frames joined by ';', sorted.
    // fig1 totals 3.0s with 2.0s in fig1/train -> 1.0s self.
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text, "fig1 1000000\nfig1;train 2000000\n");
    for line in text.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("`stack count` shape");
        assert!(!stack.is_empty() && count.parse::<u64>().is_ok(), "bad line: {line}");
    }

    // `-o` writes the folded file too.
    let out_path = std::env::temp_dir()
        .join(format!("udse_inspect_folded_{}", std::process::id()))
        .join("run.folded");
    let out =
        inspect(&["trace", path.to_str().unwrap(), "--folded", "-o", out_path.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let written = std::fs::read_to_string(&out_path).expect("folded file written");
    assert_eq!(written, "fig1 1000000\nfig1;train 2000000\n");

    let _ = std::fs::remove_dir_all(out_path.parent().unwrap());
    let _ = std::fs::remove_file(path);
}

#[test]
fn trace_reads_manifests_only() {
    // A Chrome trace array (what `repro --trace` writes) is not a
    // manifest: both views reject it as an input error.
    let array = write_fixture(
        "trace_array.json",
        r#"[{"name":"fit","cat":"span","ph":"X","ts":10,"dur":90,"pid":1,"tid":1}]"#,
    );
    for args in
        [vec!["trace", array.to_str().unwrap()], vec!["trace", array.to_str().unwrap(), "--folded"]]
    {
        let out = inspect(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
    }
    let _ = std::fs::remove_file(array);
}

/// The repository root, where the committed `BENCH_*.json` baselines
/// live.
fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn every_committed_baseline_reads_as_schema_v3() {
    let mut baselines: Vec<PathBuf> = std::fs::read_dir(repo_root())
        .expect("repository root lists")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .collect();
    baselines.sort();
    assert!(!baselines.is_empty(), "no BENCH_*.json baselines found");
    for path in &baselines {
        let m = ParsedManifest::read_from_path(path).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(m.schema_version, 3, "{}", path.display());
        assert!(!m.quality.is_empty(), "{} carries no quality records", path.display());
    }
}

#[test]
fn diff_fails_on_a_garbled_quality_record() {
    let baseline = repo_root().join("BENCH_2c9a099.json");
    let doc = Json::parse(&std::fs::read_to_string(&baseline).expect("baseline reads"))
        .expect("baseline is JSON");
    // Rewrites one statistic of the pooled bips record: `None` deletes
    // it, `Some(v)` replaces its value.
    let garble = |stat: &str, value: Option<Json>| -> String {
        let mut doc = doc.clone();
        let Json::Obj(top) = &mut doc else { panic!("manifest is an object") };
        let quality = &mut top.iter_mut().find(|(k, _)| k == "quality").expect("quality").1;
        let Json::Obj(records) = quality else { panic!("quality is an object") };
        let record =
            &mut records.iter_mut().find(|(k, _)| k == "validation.pooled.bips").expect("record").1;
        let Json::Obj(fields) = record else { panic!("record is an object") };
        let slot = fields.iter().position(|(k, _)| k == stat).expect("stat present");
        match value {
            Some(v) => fields[slot].1 = v,
            None => drop(fields.remove(slot)),
        }
        doc.to_string_pretty()
    };
    let base = baseline.to_str().unwrap();
    for stat in ["p50", "p90", "max", "bias"] {
        for (how, value) in
            [("missing", None), ("null", Some(Json::Null)), ("garbled", Some(Json::str("garbled")))]
        {
            let bad = write_fixture(&format!("garbled_{stat}_{how}.json"), &garble(stat, value));
            let out = inspect(&["diff", base, bad.to_str().unwrap(), "--warn-wall"]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{stat} {how} must fail: {out:?}");
            assert!(stderr.contains(stat), "{stat} {how}: error does not name the field: {stderr}");
            let _ = std::fs::remove_file(bad);
        }
    }
    // The untouched baseline still diffs clean against itself.
    let out = inspect(&["diff", base, base, "--warn-wall"]);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn usage_errors_exit_2() {
    assert_eq!(inspect(&[]).status.code(), Some(2));
    assert_eq!(inspect(&["bogus"]).status.code(), Some(2));
    assert_eq!(inspect(&["diff", "only-one.json"]).status.code(), Some(2));
    assert_eq!(inspect(&["diff", "a", "b", "--tol-wall", "not-a-number"]).status.code(), Some(2));
}

#[test]
fn unknown_flags_are_usage_errors_before_any_output() {
    let base = write_fixture("flags_base.json", &manifest_text(3.0, 0.016));
    let new = write_fixture("flags_new.json", &manifest_text(9.0, 0.09));
    let (b, n) = (base.to_str().unwrap(), new.to_str().unwrap());
    for args in [
        // A misspelt tolerance must not gate with the default band.
        vec!["diff", b, n, "--tol-wal", "500"],
        vec!["diff", b, n, "--warn-walls"],
        // Flags of another command are unknown too.
        vec!["show", b, "--folded"],
        vec!["trace", b, "--warn-wall"],
        vec!["show", b, "-o", "out.json"],
    ] {
        let out = inspect(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout: {out:?}");
        assert!(stderr.contains("unknown option"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: udse-inspect"), "{args:?}: no usage text:\n{stderr}");
    }
    let _ = std::fs::remove_file(base);
    let _ = std::fs::remove_file(new);
}
