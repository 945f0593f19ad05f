//! End-to-end tests of the `repro` command line: a bad option or
//! artifact name must fail before any artifact runs, so nothing reaches
//! stdout and the exit code is non-zero.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro runs")
}

/// Asserts the run was rejected up front: non-zero exit, empty stdout,
/// and `needle` plus the usage text on stderr.
fn assert_rejected(args: &[&str], needle: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} must fail: {out:?}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout: {out:?}");
    assert!(stderr.contains(needle), "{args:?}: stderr lacks {needle:?}:\n{stderr}");
    assert!(stderr.contains("usage: repro"), "{args:?}: no usage text:\n{stderr}");
}

#[test]
fn unknown_flags_are_rejected_before_anything_runs() {
    // A misspelt --quick must not silently run at full paper scale.
    assert_rejected(&["--quik", "fig1"], "unknown option `--quik`");
    // An unknown option that looks value-taking is reported as the
    // option, not as an unknown artifact `2`.
    assert_rejected(&["--quick", "--threads", "2", "fig1"], "unknown option `--threads`");
    assert_rejected(&["--quick", "fig1", "--jobs"], "--jobs expects a value");
    assert_rejected(&["--quick", "--jobs", "0", "fig1"], "--jobs expects a positive integer");
}

#[test]
fn unknown_artifacts_are_rejected_before_earlier_ones_run() {
    // fig1 comes first and is valid; the typo behind it must still stop
    // the run before fig1 prints anything.
    assert_rejected(&["--quick", "fig1", "fig99"], "unknown artifact `fig99`");
    assert_rejected(&["--quick", "worker"], "unknown artifact `worker`");
}

#[test]
fn help_succeeds_and_no_artifact_fails_with_usage() {
    let out = repro(&["--help"]);
    assert!(out.status.success(), "{out:?}");
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: repro"));
    let out = repro(&["--quick"]);
    assert!(!out.status.success(), "{out:?}");
    assert!(out.stdout.is_empty());
}
