//! The repository benchmark: three workloads, each loading a different
//! layer of the trace -> sim -> oracle -> regress -> query -> studies stack
//! at the paper's shapes, driven only through the libraries' public calls.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload pipeline|query|adhoc --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run is untimed inside and reports the end-to-end
//! metrics. With `--trace 1` it also makes a traced run with timers around
//! every layer call, prints the layer table on stderr, and reports the
//! per-layer metrics. The last line of stdout is the JSON result. See
//! `NOTES.md` for the workloads, the metrics and their measured spreads.

mod adhoc;
mod measure;
mod pipeline;
mod query;
mod traced;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::OnceLock;

use udse_obs::Json;

/// A metric list of `BENCHMARK.json`: `(name, unit)` per entry.
type MetricList = Vec<(String, String)>;

/// The end-to-end and per-layer metric lists of `BENCHMARK.json`, built
/// into the binary. Every workload reports the end-to-end list with
/// tracing off and the per-layer list with tracing on; a layer the
/// workload does not exercise reads 0.
fn metric_lists() -> &'static (MetricList, MetricList) {
    static LISTS: OnceLock<(MetricList, MetricList)> = OnceLock::new();
    LISTS.get_or_init(|| {
        let doc = Json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is valid JSON");
        let list = |key: &str| -> MetricList {
            let field = |m: &Json, f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("metric entries carry a name and a unit")
                    .to_string()
            };
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks a {key} list"))
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        (list("end_to_end"), list("per_layer"))
    })
}

/// Set-up repetitions per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Share of a traced run's wall the named layers must account for, so no
/// unmeasured layer hides.
const MIN_COVERAGE_PCT: f64 = 90.0;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args { workload: String::new(), seed: 1, seconds: 30.0, trace: false };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !args.seconds.is_finite() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".to_string());
        }
        Ok(args)
    }
}

/// What a workload measured and checked.
pub struct Report {
    /// Operations attempted (simulations, queries).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Violated workload-property guards; any one invalidates the run.
    pub guards: Vec<String>,
    values: BTreeMap<String, f64>,
}

impl Report {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Report { attempted, failed, guards: Vec::new(), values: BTreeMap::new() }
    }

    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is in neither metric list.
    pub fn set(&mut self, name: &str, value: f64) {
        let (end_to_end, per_layer) = metric_lists();
        assert!(end_to_end.iter().chain(per_layer).any(|m| m.0 == name), "unlisted metric {name}");
        self.values.insert(name.to_string(), value);
    }

    /// The result line: `metrics` holds every metric of the run's list.
    fn to_json(&self, trace: bool) -> Result<String, String> {
        let (end_to_end, per_layer) = metric_lists();
        let list = if trace { per_layer } else { end_to_end };
        let mut metrics = Vec::with_capacity(list.len());
        for (name, unit) in list {
            let value = match (self.values.get(name), trace) {
                (Some(&v), _) => v,
                (None, true) => 0.0,
                (None, false) => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.guards.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Pool width is pinned per workload: the parallel workloads take every
    // core (the `repro` default), adhoc runs on one thread as its callers do.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = if args.workload == "adhoc" { 1 } else { cores };
    udse_obs::pool::set_max_workers(workers);
    eprintln!("perfbench: workload {} seed {} pool width {workers}", args.workload, args.seed);
    let outcome = match args.workload.as_str() {
        "pipeline" => pipeline::run(&args),
        "query" => query::run(&args),
        "adhoc" => adhoc::run(&args),
        other => Err(format!("unknown workload {other:?} (pipeline, query, adhoc)")),
    };
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        report.set("pool.workers", workers as f64);
        let coverage = report.values.get("layers.coverage_pct").copied().unwrap_or(0.0);
        if coverage < MIN_COVERAGE_PCT {
            report.guards.push(format!(
                "named layers cover {coverage:.1}% of the traced wall, below {MIN_COVERAGE_PCT}%"
            ));
        }
    }
    match report.to_json(args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    for g in &report.guards {
        eprintln!("perfbench: workload guard failed: {g}");
    }
    if report.failed > 0 {
        eprintln!(
            "perfbench: {} of {} operations failed their output check",
            report.failed, report.attempted
        );
    }
    if report.guards.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_holds_every_listed_metric() {
        let (end_to_end, per_layer) = metric_lists();
        assert!(end_to_end.iter().any(|m| m.0 == "setup_s"), "setup_s is end-to-end");
        let mut report = Report::new(3, 0);
        for (name, _) in end_to_end {
            report.set(name, 1.5);
        }
        let line = report.to_json(false).expect("all end-to-end metrics set");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(end_to_end.iter().all(|(name, _)| line.contains(&format!("\"{name}\""))));
        assert!(
            Report::new(1, 0).to_json(false).is_err(),
            "a missing end-to-end metric is an error"
        );
        let traced = Report::new(1, 0).to_json(true).expect("unmeasured layers read 0");
        assert_eq!(traced.matches("\"value\": 0,").count(), per_layer.len());
    }
}
