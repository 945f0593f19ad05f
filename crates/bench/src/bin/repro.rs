//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro [--quick] [--verbose] [--jobs N] [--csv <dir>] [--manifest <path>]
//!       [--trace <path>] <artifact>...
//! repro query [--quick] [--jobs N] [--manifest <path>] (--file <path> | '<json>')
//!
//! artifacts:
//!   space     Table 1 design space summary
//!   baseline  Table 3 baseline machine
//!   fig1      validation error boxplots
//!   fig2      design space characterization
//!   fig3      pareto frontiers, predicted vs simulated
//!   fig4      frontier error distributions
//!   table2    per-benchmark bips^3/w optima
//!   fig5a     depth study: original line + enhanced boxplots
//!   fig5b     D-L1 distribution of top designs per depth
//!   fig6      depth study validation (efficiency)
//!   fig7      depth study validation (bips & watts)
//!   table4    K=4 compromise architectures
//!   fig8      optima vs compromises scatter
//!   fig9      heterogeneity gains vs cluster count
//!   search    heuristic search vs exhaustive prediction (paper §8)
//!   stalls    per-benchmark bottleneck attribution on the baseline
//!   assoc     cache-associativity extension (paper §8) + significance
//!   inorder   in-order vs out-of-order execution (paper §8)
//!   workloads synthetic-workload characterization diagnostics
//!   residuals residual analysis of the power model (paper §3)
//!   significance  coefficient t-tests for one fitted model
//!   ablations knots/interactions/transforms/sample-size ablations
//!   all       everything above
//! ```
//!
//! `--quick` uses reduced samples and short traces (smoke test); the
//! default is the paper-scale configuration (1,000 training samples,
//! exhaustive 262,500-point evaluation).
//!
//! `--jobs N` caps the simulation/fitting worker pool at `N` threads
//! (default: all available cores; `--jobs 1` runs fully sequentially on
//! the calling thread). Results are deterministic regardless of `N` —
//! every simulation is a pure function of its inputs and the pool
//! preserves input order — so parallel runs differ only in wall time.
//!
//! `--verbose` raises logging to `info` (equivalent to `UDSE_LOG=info`;
//! never lowers an explicit `UDSE_LOG`) and prints an end-of-run span
//! timing table to stderr. `--manifest <path>` writes a JSON run manifest
//! with per-artifact wall times, metric snapshots (simulated
//! instructions, oracle cache hits/misses, sweep throughput, …), span
//! totals, and model-quality records (`udse-inspect` consumes these).
//! `--trace <path>` records discrete span events and writes them as
//! Chrome `trace_event` JSON loadable in Perfetto.
//! Only the paper's tables and figures go to stdout.
//!
//! Unknown options and unknown artifact names are rejected up front,
//! with the usage text on stderr and a non-zero exit, before any
//! artifact runs.
//!
//! `query` answers a single design-space question from the command line:
//! it trains the model suite (or reuses nothing — training is cheap at
//! `--quick` scale), parses the canonical query JSON (inline argument or
//! `--file <path>`), executes it on the unified query engine, and prints
//! the canonical `QueryResult` JSON to stdout. Errors (malformed JSON,
//! unknown fields, invalid constraints) go to stderr with a non-zero
//! exit. `--manifest <path>` snapshots the engine's `query.*` counters
//! (executed, cache hits/misses, designs/sec) for `udse-inspect`.

use std::path::PathBuf;
use std::process::ExitCode;

use udse_bench::{
    ablations, csv_export, depth_figs, extensions, figures, hetero_figs, plot_export, Context,
};
use udse_core::report::format_table;
use udse_core::space::DesignSpace;
use udse_core::Query;
use udse_obs::{span, trace, Json, Level, RunManifest};
use udse_sim::MachineConfig;

// Count every heap allocation so manifests and span attribution report
// measured numbers instead of "not measured".
// See `udse_obs::alloc` for the near-zero disabled/enabled cost.
#[global_allocator]
static ALLOC: udse_obs::CountingAlloc = udse_obs::CountingAlloc::new();

fn print_space() -> String {
    let rows = vec![
        vec!["S1 depth (FO4)".into(), "9::3::36".into(), "10".into()],
        vec![
            "S2 width (decode/LSQ/SQ/FU)".into(),
            "(2,15,14,1) (4,30,28,2) (8,45,42,4)".into(),
            "3".into(),
        ],
        vec![
            "S3 registers (GPR/FPR/SPR)".into(),
            "40::10::130 / 40::8::112 / 42::6::96".into(),
            "10".into(),
        ],
        vec![
            "S4 reservations (BR/FX/FP)".into(),
            "6::1::15 / 10::2::28 / 5::1::14".into(),
            "10".into(),
        ],
        vec!["S5 I-L1 (KB)".into(), "16::2x::256".into(), "5".into()],
        vec!["S6 D-L1 (KB)".into(), "8::2x::128".into(), "5".into()],
        vec!["S7 L2 (MB)".into(), "0.25::2x::4".into(), "5".into()],
    ];
    format!(
        "Table 1: design space ({} sampling points, {} exploration points)\n\n{}",
        DesignSpace::paper().len(),
        DesignSpace::exploration().len(),
        format_table(&["set", "range", "|Si|"], &rows)
    )
}

fn print_baseline() -> String {
    let cfg = MachineConfig::power4_baseline();
    let t = cfg.timing();
    format!(
        "Table 3: POWER4-like baseline\n\n\
         depth: {} FO4/stage ({:.2} GHz, {} front-end stages)\n\
         width: {}-decode / {}-dispatch, {} units per class\n\
         registers: {} GPR, {} FPR, {} SPR\n\
         reservations: BR {}, FX {}, FP {}; LSQ {}, SQ {}\n\
         caches: I-L1 {} KB ({}-way), D-L1 {} KB ({}-way), L2 {} KB ({}-way)\n\
         latencies (cycles): L1D {}, L2 {}, memory {}\n\
         predictor: {} x 1-bit BHT; ROB {}\n",
        cfg.fo4_per_stage,
        t.frequency_ghz,
        t.front_stages,
        cfg.decode_width,
        cfg.dispatch_width(),
        cfg.units_per_class,
        cfg.gpr,
        cfg.fpr,
        cfg.spr,
        cfg.resv_br,
        cfg.resv_fx,
        cfg.resv_fp,
        cfg.lsq_entries,
        cfg.store_queue_entries,
        cfg.il1_kb,
        cfg.il1_assoc,
        cfg.dl1_kb,
        cfg.dl1_assoc,
        cfg.l2_kb,
        cfg.l2_assoc,
        t.dl1_latency,
        t.l2_latency,
        t.memory_latency,
        cfg.bht_entries,
        cfg.rob_entries,
    )
}

/// Renders one artifact.
type Render = fn(&Context) -> String;

/// Every artifact in `all` order, with the function that renders it.
const ARTIFACTS: [(&str, Render); 22] = [
    ("space", |_| print_space()),
    ("baseline", |_| print_baseline()),
    ("fig1", figures::fig1),
    ("fig2", figures::fig2),
    ("fig3", figures::fig3),
    ("fig4", figures::fig4),
    ("table2", figures::table2),
    ("fig5a", depth_figs::fig5a),
    ("fig5b", depth_figs::fig5b),
    ("fig6", depth_figs::fig6),
    ("fig7", depth_figs::fig7),
    ("table4", hetero_figs::table4),
    ("fig8", hetero_figs::fig8),
    ("fig9", hetero_figs::fig9),
    ("search", extensions::search),
    ("stalls", extensions::stalls),
    ("assoc", extensions::associativity),
    ("inorder", extensions::inorder),
    ("workloads", extensions::workloads),
    ("residuals", extensions::residuals),
    ("significance", extensions::significance),
    ("ablations", |ctx| {
        format!(
            "{}\n{}\n{}\n{}",
            ablations::knots(ctx),
            ablations::interactions(ctx),
            ablations::transforms(ctx),
            ablations::sample_size(ctx)
        )
    }),
];

const USAGE: &str = "usage: repro [--quick] [--verbose] [--jobs N] [--csv <dir>] \
     [--manifest <path>] [--trace <path>] <artifact>...";

const QUERY_USAGE: &str =
    "usage: repro query [--quick] [--jobs N] [--manifest <path>] (--file <path> | '<json>')";

/// `repro query`: execute one canonical query JSON document against the
/// unified query engine and print the canonical result JSON. Exit codes:
/// 0 on success, 1 for usage/IO problems, 2 when the query itself is
/// rejected (parse error or engine validation).
fn query_main(args: &[String]) -> ExitCode {
    let opts = match QueryOptions::parse(args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("repro query: {e}\n{QUERY_USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if opts.help {
        eprintln!("{QUERY_USAGE}");
        return ExitCode::SUCCESS;
    }
    if let Some(n) = opts.jobs {
        udse_obs::pool::set_max_workers(n);
    }
    // The query text is either the one positional argument or --file.
    let text = match (&opts.file, opts.inline.as_slice()) {
        (Some(path), []) => match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                udse_obs::error!("query", "cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        (None, [inline]) => inline.clone(),
        _ => {
            eprintln!("expected exactly one query: inline JSON or --file <path>\n{QUERY_USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let query = match Query::parse(&text) {
        Ok(q) => q,
        Err(e) => {
            udse_obs::error!("query", "invalid query: {e}");
            return ExitCode::from(2);
        }
    };
    let quick = opts.quick;
    let ctx = Context::new(quick);
    let started = std::time::Instant::now();
    let engine = ctx.engine();
    let result = match engine.execute(&query) {
        Ok(r) => r,
        Err(e) => {
            udse_obs::error!("query", "{e}");
            return ExitCode::from(2);
        }
    };
    // Pretty output already ends in a newline; `print!` avoids a blank
    // trailing line so stdout is byte-stable for smoke-test diffs.
    print!("{}", result.to_json().to_string_pretty());
    if let Some(mpath) = &opts.manifest {
        let mut manifest = RunManifest::new("repro-query");
        manifest.set("quick", Json::Bool(quick));
        manifest.set("seed", Json::Int(ctx.config().seed as i64));
        manifest.set("eval_stride", Json::Int(ctx.config().eval_stride as i64));
        manifest.record_artifact("query", started.elapsed().as_secs_f64());
        if let Err(e) = manifest.write_to_path(mpath) {
            udse_obs::error!("query", "cannot write manifest: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The artifact run's command line, validated.
#[derive(Debug, Default)]
struct Options {
    quick: bool,
    verbose: bool,
    help: bool,
    jobs: Option<usize>,
    csv: Option<PathBuf>,
    manifest: Option<PathBuf>,
    trace: Option<PathBuf>,
    artifacts: Vec<&'static (&'static str, Render)>,
}

impl Options {
    /// Parses the artifact command line. Every option must be known,
    /// every value-taking option must have its value, and every artifact
    /// must name one of [`ARTIFACTS`] (or `all`), so a typo fails here
    /// instead of running at full paper scale or after earlier artifacts.
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut all = false;
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let mut value =
                || args.next().map(PathBuf::from).ok_or_else(|| format!("{arg} expects a value"));
            match arg.as_str() {
                "--quick" => opts.quick = true,
                "--verbose" | "-v" => opts.verbose = true,
                "--help" | "-h" => opts.help = true,
                "--csv" => opts.csv = Some(value()?),
                "--manifest" => opts.manifest = Some(value()?),
                "--trace" => opts.trace = Some(value()?),
                "--jobs" => opts.jobs = Some(parse_jobs(&value()?)?),
                flag if flag.starts_with('-') => return Err(format!("unknown option `{flag}`")),
                "all" => all = true,
                name => match ARTIFACTS.iter().find(|(n, _)| *n == name) {
                    Some(artifact) => opts.artifacts.push(artifact),
                    None => return Err(format!("unknown artifact `{name}`")),
                },
            }
        }
        if all {
            opts.artifacts = ARTIFACTS.iter().collect();
        }
        Ok(opts)
    }
}

/// The `repro query` command line, validated like [`Options`]: every
/// option must be known, so a misspelt `--quick` fails here instead of
/// training at paper scale.
#[derive(Debug, Default)]
struct QueryOptions {
    quick: bool,
    help: bool,
    jobs: Option<usize>,
    manifest: Option<PathBuf>,
    file: Option<PathBuf>,
    /// Positional arguments: the inline query, when there is exactly one.
    inline: Vec<String>,
}

impl QueryOptions {
    fn parse(args: &[String]) -> Result<QueryOptions, String> {
        let mut opts = QueryOptions::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let mut value =
                || args.next().map(PathBuf::from).ok_or_else(|| format!("{arg} expects a value"));
            match arg.as_str() {
                "--quick" => opts.quick = true,
                "--help" | "-h" => opts.help = true,
                "--manifest" => opts.manifest = Some(value()?),
                "--file" => opts.file = Some(value()?),
                "--jobs" => opts.jobs = Some(parse_jobs(&value()?)?),
                flag if flag.starts_with('-') => return Err(format!("unknown option `{flag}`")),
                text => opts.inline.push(text.to_string()),
            }
        }
        Ok(opts)
    }
}

/// The value of `--jobs`: a positive worker count.
fn parse_jobs(value: &std::path::Path) -> Result<usize, String> {
    let n = value.to_string_lossy().parse::<usize>().ok().filter(|&n| n >= 1);
    n.ok_or_else(|| "--jobs expects a positive integer".to_string())
}

fn main() -> ExitCode {
    udse_obs::log::init();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("query") {
        return query_main(&args[1..]);
    }
    let usage = || {
        let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
        format!("{USAGE}\nartifacts: {} all", names.join(" "))
    };
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("repro: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if opts.help || opts.artifacts.is_empty() {
        eprintln!("{}", usage());
        return if opts.help { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    if opts.verbose {
        udse_obs::log::raise_level(Level::Info);
    }
    if opts.trace.is_some() {
        udse_obs::trace::enable();
    }
    // --jobs N: cap the simulation/fitting worker pool. Default is all
    // available cores; 1 restores fully sequential execution.
    if let Some(n) = opts.jobs {
        udse_obs::pool::set_max_workers(n);
    }
    let jobs = udse_obs::pool::max_workers();
    let quick = opts.quick;
    let ctx = Context::new(quick);
    let mut manifest = RunManifest::new("repro");
    manifest.set("quick", Json::Bool(quick));
    manifest.set("jobs", Json::Int(jobs as i64));
    manifest.set("seed", Json::Int(ctx.config().seed as i64));
    manifest.set("train_samples", Json::Int(ctx.config().train_samples as i64));
    manifest.set("eval_stride", Json::Int(ctx.config().eval_stride as i64));
    manifest.set("trace_len", Json::Int(ctx.sim_oracle().trace_len() as i64));
    let t0 = std::time::Instant::now();
    if let Some(dir) = &opts.csv {
        if let Err(e) = std::fs::create_dir_all(dir) {
            udse_obs::error!("repro", "cannot create csv directory {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    for &&(artifact, render) in &opts.artifacts {
        println!("==================== {artifact} ====================");
        let started = std::time::Instant::now();
        let guard = span::enter(artifact);
        println!("{}", render(&ctx));
        drop(guard);
        manifest.record_artifact(artifact, started.elapsed().as_secs_f64());
        if let Some(dir) = &opts.csv {
            match csv_export::export(&ctx, artifact, dir) {
                Ok(Some(path)) => udse_obs::info!("csv", "wrote {}", path.display()),
                Ok(None) => {}
                Err(e) => {
                    udse_obs::error!("repro", "csv export for {artifact}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            match plot_export::export(artifact, dir) {
                Ok(Some(path)) => udse_obs::info!("gp", "wrote {}", path.display()),
                Ok(None) => {}
                Err(e) => {
                    udse_obs::error!("repro", "gnuplot export for {artifact}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    manifest.set(
        "oracle_cache",
        Json::obj([
            ("hits", Json::Int(ctx.oracle().hits() as i64)),
            ("misses", Json::Int(ctx.oracle().misses() as i64)),
        ]),
    );
    // Surface trace-buffer overflow as a counter so the manifest (and
    // the diff gate reading it) records it, not just a stderr warning.
    let dropped = trace::global().dropped();
    if opts.trace.is_some() {
        udse_obs::metrics::counter("trace.dropped_events").add(dropped);
    }
    // Allocation totals as counters so `udse-inspect diff
    // --tol-resource alloc.bytes:pct[:floor]` can gate allocation
    // regressions between runs (the `resources` section carries the
    // same totals).
    if udse_obs::alloc::counting() {
        let a = udse_obs::alloc::stats();
        udse_obs::metrics::counter("alloc.count").add(a.allocs);
        udse_obs::metrics::counter("alloc.bytes").add(a.bytes_allocated);
    }
    if let Some(path) = &opts.manifest {
        match manifest.write_to_path(path) {
            Ok(()) => udse_obs::info!("repro", "wrote manifest {}", path.display()),
            Err(e) => {
                udse_obs::error!("repro", "cannot write manifest: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &opts.trace {
        let events = trace::global().snapshot();
        if dropped > 0 {
            udse_obs::warn!("repro", "trace buffer full: {dropped} events dropped");
        }
        let doc = trace::chrome_trace_json(&events);
        match udse_obs::manifest::write_with_parents(path, &doc.to_string_pretty()) {
            Ok(()) => {
                udse_obs::info!(
                    "repro",
                    "wrote {} trace events to {}",
                    events.len(),
                    path.display()
                );
            }
            Err(e) => {
                udse_obs::error!("repro", "cannot write trace: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if udse_obs::log::enabled(Level::Info) {
        if let Some(table) = span::global().report_table() {
            eprintln!("\n{table}");
        }
    }
    udse_obs::info!("repro", "completed in {:.1}s", t0.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}
