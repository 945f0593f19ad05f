//! `udse-inspect` — summarize, diff, and trace-export run manifests.
//!
//! Usage:
//!
//! ```text
//! udse-inspect show <manifest>
//! udse-inspect diff <baseline> <new> [--tol-wall <pct>] [--tol-quality <abs>]
//!                                    [--tol-quality-pooled <abs>]
//!                                    [--tol-quality-max <abs>] [--warn-wall]
//!                                    [--tol-gauge <name>:<pct> ...]
//!                                    [--min-gauge <name>:<value> ...]
//!                                    [--tol-resource <name>:<pct>[:<floor>] ...]
//! udse-inspect trace <manifest> [--folded] [-o <out>]
//! ```
//!
//! `show` prints a human-readable summary (artifacts, model quality,
//! spans, metrics). `diff` compares a new run against a baseline and
//! exits nonzero when wall time or model quality regressed beyond
//! tolerance — the CI gate used by `scripts/ci.sh`. Quality budgets are
//! per-study: `--tol-quality` is the per-benchmark default,
//! `--tol-quality-pooled` the tighter budget for pooled records, and
//! `--tol-quality-max` the looser budget for worst-single-error (`max`)
//! statistics. `--tol-gauge name:pct` (repeatable) watches a gauge
//! metric and warns — never gates — when it falls more than `pct`
//! percent below the baseline (e.g.
//! `--tol-gauge sweep.designs_per_sec:50` catches prediction-throughput
//! collapses). `--min-gauge name:value` (repeatable) is the hard floor
//! variant: the run *fails* when the named gauge in the NEW manifest
//! falls below the absolute `value` (or is missing) — e.g.
//! `--min-gauge sweep.designs_per_sec:50000000` locks in a step-change
//! throughput win that a relative watch against a refreshed baseline
//! would let erode. `--tol-resource name:pct[:floor]` (repeatable) is its
//! gating mirror image for resource metrics: the run fails when the
//! named metric *rises* more than `pct` percent above the baseline and
//! the absolute rise exceeds `floor` (default 0) — e.g.
//! `--tol-resource sweep.allocs_per_design:100:0.05` keeps the compiled
//! sweep allocation-free; `resources.`-prefixed names read the manifest
//! `resources` section (`resources.alloc_bytes`, `resources.peak_rss_kb`,
//! …). `trace` synthesizes a Chrome `trace_event` timeline (open in
//! Perfetto or `chrome://tracing`) from a manifest's span totals, for
//! runs that were not recorded with `repro --trace`; `trace --folded`
//! instead emits folded stacks (`path;to;span self_us` lines)
//! consumable by `flamegraph.pl` and inferno.
//!
//! Exit codes: 0 success / within tolerance, 1 regression detected,
//! 2 usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use udse_bench::inspect::{self, DiffTolerances};
use udse_obs::manifest::{write_with_parents, ParsedManifest};

// Same counting allocator the `repro` binary installs: `udse-inspect`
// produces no manifests, but keeping every workspace binary under the
// counter means its cost stays continuously exercised end to end.
#[global_allocator]
static ALLOC: udse_obs::CountingAlloc = udse_obs::CountingAlloc::new();

const USAGE: &str = "usage: udse-inspect <command>\n\
  show  <manifest>                                 summarize one run\n\
  diff  <baseline> <new> [--tol-wall <pct>] [--tol-quality <abs>]\n\
        [--tol-quality-pooled <abs>] [--tol-quality-max <abs>] [--warn-wall]\n\
        [--tol-gauge <name>:<pct> ...] [--min-gauge <name>:<value> ...]\n\
        [--tol-resource <name>:<pct>[:<floor>] ...] gate a run against a baseline\n\
  trace <manifest> [--folded] [-o <path>]          timeline or folded stacks from span totals";

fn fail(message: &str) -> ExitCode {
    eprintln!("udse-inspect: {message}");
    ExitCode::from(2)
}

fn load(path: &str) -> Result<ParsedManifest, String> {
    ParsedManifest::read_from_path(Path::new(path))
}

fn main() -> ExitCode {
    udse_obs::log::init();
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Flags that consume the next argument; everything else non-dashed
    // is positional.
    const VALUE_FLAGS: [&str; 8] = [
        "--tol-wall",
        "--tol-quality",
        "--tol-quality-pooled",
        "--tol-quality-max",
        "--tol-gauge",
        "--min-gauge",
        "--tol-resource",
        "-o",
    ];
    let mut positional: Vec<&String> = Vec::new();
    let mut flags: Vec<&str> = Vec::new();
    let mut skip_next = false;
    for a in &args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a.starts_with('-') {
            flags.push(a);
            skip_next = VALUE_FLAGS.contains(&a.as_str());
        } else {
            positional.push(a);
        }
    }
    if flags.iter().any(|&f| f == "--help" || f == "-h") || positional.is_empty() {
        eprintln!("{USAGE}");
        return if positional.is_empty() { ExitCode::from(2) } else { ExitCode::SUCCESS };
    }
    // Every flag must belong to the command, so a misspelt tolerance
    // fails instead of silently gating with the default.
    let known: &[&str] = match positional[0].as_str() {
        "diff" => &[
            "--tol-wall",
            "--tol-quality",
            "--tol-quality-pooled",
            "--tol-quality-max",
            "--tol-gauge",
            "--min-gauge",
            "--tol-resource",
            "--warn-wall",
        ],
        "trace" => &["--folded", "-o"],
        _ => &[],
    };
    if let Some(flag) = flags.iter().find(|f| !known.contains(f)) {
        return fail(&format!("unknown option `{flag}` for `{}`\n{USAGE}", positional[0]));
    }
    let flag_value = |flag: &str| -> Option<&String> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1))
    };
    let parse_f64 = |flag: &str| -> Result<Option<f64>, String> {
        flag_value(flag)
            .map(|v| v.parse::<f64>().map_err(|_| format!("{flag} expects a number, got `{v}`")))
            .transpose()
    };

    match positional[0].as_str() {
        "show" => {
            let [_, path] = positional[..] else {
                return fail("show expects exactly one manifest path");
            };
            match load(path) {
                Ok(m) => {
                    print!("{}", inspect::show(&m));
                    ExitCode::SUCCESS
                }
                Err(e) => fail(&e),
            }
        }
        "diff" => {
            let [_, old_path, new_path] = positional[..] else {
                return fail("diff expects exactly two manifest paths");
            };
            let mut tol = DiffTolerances {
                warn_wall: args.iter().any(|a| a == "--warn-wall"),
                ..DiffTolerances::default()
            };
            let overrides = [
                ("--tol-wall", &mut tol.wall_pct),
                ("--tol-quality", &mut tol.quality_abs),
                ("--tol-quality-pooled", &mut tol.quality_pooled_abs),
                ("--tol-quality-max", &mut tol.quality_max_abs),
            ];
            for (flag, slot) in overrides {
                match parse_f64(flag) {
                    Ok(Some(v)) => *slot = v,
                    Ok(None) => {}
                    Err(e) => return fail(&e),
                }
            }
            // Repeatable --tol-gauge name:pct occurrences.
            for (i, a) in args.iter().enumerate() {
                if a != "--tol-gauge" {
                    continue;
                }
                let Some(spec) = args.get(i + 1) else {
                    return fail("--tol-gauge expects <name>:<pct>");
                };
                let parsed = spec
                    .rsplit_once(':')
                    .and_then(|(name, pct)| Some((name, pct.parse::<f64>().ok()?)))
                    .filter(|(name, _)| !name.is_empty());
                match parsed {
                    Some((name, pct)) => tol.gauge_warn.push((name.to_string(), pct)),
                    None => {
                        return fail(&format!("--tol-gauge expects <name>:<pct>, got `{spec}`"))
                    }
                }
            }
            // Repeatable --min-gauge name:value occurrences.
            for (i, a) in args.iter().enumerate() {
                if a != "--min-gauge" {
                    continue;
                }
                let Some(spec) = args.get(i + 1) else {
                    return fail("--min-gauge expects <name>:<value>");
                };
                let parsed = spec
                    .rsplit_once(':')
                    .and_then(|(name, value)| Some((name, value.parse::<f64>().ok()?)))
                    .filter(|(name, _)| !name.is_empty());
                match parsed {
                    Some((name, value)) => tol.min_gauge.push((name.to_string(), value)),
                    None => {
                        return fail(&format!("--min-gauge expects <name>:<value>, got `{spec}`"))
                    }
                }
            }
            // Repeatable --tol-resource name:pct[:floor] occurrences
            // (metric names are dotted, never contain colons).
            for (i, a) in args.iter().enumerate() {
                if a != "--tol-resource" {
                    continue;
                }
                let Some(spec) = args.get(i + 1) else {
                    return fail("--tol-resource expects <name>:<pct>[:<floor>]");
                };
                let parsed = spec.split_once(':').and_then(|(name, rest)| {
                    let (pct, floor) = match rest.split_once(':') {
                        Some((p, f)) => (p.parse::<f64>().ok()?, f.parse::<f64>().ok()?),
                        None => (rest.parse::<f64>().ok()?, 0.0),
                    };
                    (!name.is_empty()).then(|| (name.to_string(), pct, floor))
                });
                match parsed {
                    Some(gate) => tol.resource_gate.push(gate),
                    None => {
                        return fail(&format!(
                            "--tol-resource expects <name>:<pct>[:<floor>], got `{spec}`"
                        ))
                    }
                }
            }
            let (old, new) = match (load(old_path), load(new_path)) {
                (Ok(o), Ok(n)) => (o, n),
                (Err(e), _) | (_, Err(e)) => return fail(&e),
            };
            let report = inspect::diff(&old, &new, &tol);
            print!("{}", report.render());
            if report.is_regression() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "trace" => {
            let [_, input] = positional[..] else {
                return fail("trace expects exactly one manifest path");
            };
            let m = match load(input) {
                Ok(m) => m,
                Err(e) => return fail(&e),
            };
            let text = if args.iter().any(|a| a == "--folded") {
                inspect::folded_from_manifest(&m)
            } else {
                inspect::trace_from_manifest(&m).to_string_pretty()
            };
            match flag_value("-o") {
                Some(out) => {
                    let out = PathBuf::from(out);
                    if let Err(e) = write_with_parents(&out, &text) {
                        return fail(&e.to_string());
                    }
                    eprintln!("udse-inspect: wrote {}", out.display());
                }
                None => print!("{text}"),
            }
            ExitCode::SUCCESS
        }
        other => fail(&format!("unknown command `{other}`\n{USAGE}")),
    }
}
