//! `repro-bench` — the experiment harness: one binary per table and
//! figure of the paper's evaluation (§6), plus Criterion micro-benches.
//!
//! | paper artifact | binary | what it regenerates |
//! |---|---|---|
//! | Table 2 | `table2` | analysis vs reference input parameters |
//! | Table 3 | `table3` | found/missed patterns per benchmark × version |
//! | §6.1 accuracy | `accuracy` | additional patterns; the false maps via a second input |
//! | Fig. 7 | `fig7` | finding time vs DDG size, phase breakdown, simplification stats |
//! | Fig. 8 | `fig8` | portability speedups on the two modeled machines |
//! | Fig. 6 | `report` | HTML report with highlighted source lines |
//!
//! Every binary prints a human-readable table and appends a JSON record
//! under `target/experiments/` for EXPERIMENTS.md bookkeeping.

use serde::Serialize;
use starbench::{evaluate, Benchmark, Evaluation, Version};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Command-line options shared by the experiment binaries.
///
/// - `--budget-ms <ms>` — per-sub-DDG solver/matcher time budget
///   (default 60 000 ms, the paper's per-solver-run limit);
/// - `--deadline-ms <ms>` — wall-clock deadline per analysis request;
///   an expired request returns its best-so-far patterns flagged
///   `degraded` (default: none);
/// - `--workers <n>` — match workers for the engine-driven binaries
///   (default: one per hardware thread);
/// - `--trace-out <path>` — enable span tracing and write a Chrome
///   trace-event JSON (open in <https://ui.perfetto.dev>) when the
///   binary finishes;
/// - `--metrics-json <path>` — enable metrics and write the flat
///   `ObsReport` JSON when the binary finishes;
/// - everything else passes through as positional arguments.
pub struct Cli {
    /// Finder configuration with the budget applied.
    pub config: discovery::FinderConfig,
    /// Engine worker count; 0 means the engine default.
    pub workers: usize,
    /// Chrome trace output path (tracing enabled when set).
    pub trace_out: Option<PathBuf>,
    /// Flat metrics JSON output path (tracing enabled when set).
    pub metrics_json: Option<PathBuf>,
    pub positional: Vec<String>,
}

impl Cli {
    /// True when either observability output was requested.
    pub fn obs_requested(&self) -> bool {
        self.trace_out.is_some() || self.metrics_json.is_some()
    }
}

/// Parses the process arguments, switching the process-wide obs layer on
/// when `--trace-out`/`--metrics-json` ask for it (tracing is off — and
/// every instrumentation site inert — otherwise).
pub fn cli() -> Cli {
    let cli = parse_args(std::env::args().skip(1));
    if cli.obs_requested() {
        obs::enable();
    }
    cli
}

/// Parses one flag value, naming the flag in the error instead of
/// panicking with a bare `expect` backtrace.
pub fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid value for {flag}: got {value:?}"))
}

/// [`parse_value`] for binaries: prints the error and exits 2 — a usage
/// failure, distinct from a failed check (1).
pub fn parse_or_exit<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    parse_value(flag, value).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn parse_args(args: impl Iterator<Item = String>) -> Cli {
    let mut config = discovery::FinderConfig::default();
    let mut workers = 0usize;
    let mut trace_out = None;
    let mut metrics_json = None;
    let mut positional = Vec::new();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--budget-ms" => {
                let ms: u64 = parse_or_exit("--budget-ms", &take("--budget-ms"));
                config.budget.time = Duration::from_millis(ms);
            }
            "--deadline-ms" => {
                let ms: u64 = parse_or_exit("--deadline-ms", &take("--deadline-ms"));
                config.deadline = Some(Duration::from_millis(ms));
            }
            "--workers" => {
                workers = parse_or_exit("--workers", &take("--workers"));
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(take("--trace-out")));
            }
            "--metrics-json" => {
                metrics_json = Some(PathBuf::from(take("--metrics-json")));
            }
            _ => positional.push(arg),
        }
    }
    Cli {
        config,
        workers,
        trace_out,
        metrics_json,
        positional,
    }
}

/// Writes the observability outputs the command line asked for: drains
/// the recorded spans into `--trace-out` and the caller-assembled
/// [`obs::ObsReport`] into `--metrics-json`. A no-op for paths that were
/// not requested, so binaries call it unconditionally at exit.
pub fn export_obs(opts: &Cli, report: &obs::ObsReport) {
    if let Some(path) = &opts.trace_out {
        let threads = obs::take_events();
        match obs::write_chrome_trace(path, &threads) {
            Ok(()) => eprintln!(
                "(trace with {} thread track(s) written to {})",
                threads.len(),
                path.display()
            ),
            Err(e) => eprintln!("cannot write trace {}: {e}", path.display()),
        }
    }
    if let Some(path) = &opts.metrics_json {
        match report.write(path) {
            Ok(()) => eprintln!("(metrics written to {})", path.display()),
            Err(e) => eprintln!("cannot write metrics {}: {e}", path.display()),
        }
    }
}

/// An engine sized by [`Cli::workers`] (0 = hardware threads).
pub fn engine(workers: usize) -> repro_engine::Engine {
    repro_engine::Engine::new(repro_engine::EngineConfig {
        workers,
        ..repro_engine::EngineConfig::default()
    })
}

/// Prints the engine-wide scheduler and cache counters, and — when the
/// batch saw any faults, degradation, or failures — the robustness
/// counters too.
pub fn print_engine_metrics(engine: &repro_engine::Engine) {
    let m = engine.metrics();
    println!(
        "engine: {} workers, {} match jobs ({} stolen, peak queue {}), \
         cache {:.0}% hit ({} hits / {} misses, {} entries)",
        m.workers,
        m.jobs_executed,
        m.jobs_stolen,
        m.peak_queue_depth,
        100.0 * m.cache_hit_rate(),
        m.cache_hits,
        m.cache_misses,
        m.cache_entries,
    );
    if m.jobs_panicked + m.match_faults + m.requests_degraded + m.requests_failed > 0
        || m.cache_poison_recoveries > 0
    {
        println!(
            "faults: {} match faults ({} worker panics contained), \
             {} requests degraded, {} failed, {} cache shards recovered",
            m.match_faults,
            m.jobs_panicked,
            m.requests_degraded,
            m.requests_failed,
            m.cache_poison_recoveries,
        );
    }
}

/// A standard [`obs::ObsReport`] for an engine-driven experiment: the
/// registry snapshot, run parameters, and the engine's own counters as
/// an embedded section.
pub fn obs_report(experiment: &str, opts: &Cli, engine: &repro_engine::Engine) -> obs::ObsReport {
    let mut r = obs::ObsReport::snapshot();
    r.meta("experiment", experiment);
    r.meta_num("workers", engine.metrics().workers as f64);
    r.meta_num("budget_ms", opts.config.budget.time.as_millis() as f64);
    r.section("engine", &engine.metrics());
    r
}

/// One analysis run: trace, find patterns, evaluate against Table 3.
pub struct AnalysisRun {
    pub benchmark: &'static str,
    pub version: Version,
    pub trace_seconds: f64,
    pub find_seconds: f64,
    pub result: discovery::FinderResult,
    pub evaluation: Evaluation,
}

/// Traces and analyzes one benchmark version on its analysis input.
pub fn analyze(
    bench: &'static Benchmark,
    version: Version,
    config: &discovery::FinderConfig,
) -> AnalysisRun {
    let program = bench.program(version);
    let cfg = (bench.analysis_input)();
    let t0 = Instant::now();
    let run = trace::run(&program, &cfg)
        .unwrap_or_else(|e| panic!("{} {}: {e}", bench.name, version.name()));
    let trace_seconds = t0.elapsed().as_secs_f64();
    (bench.verify)(&run)
        .unwrap_or_else(|e| panic!("{} {} wrong result: {e}", bench.name, version.name()));
    let ddg = run.ddg.expect("tracing enabled");
    let t0 = Instant::now();
    let result = discovery::find_patterns(&ddg, config);
    let find_seconds = t0.elapsed().as_secs_f64();
    let evaluation = evaluate(bench.name, version, &result);
    AnalysisRun {
        benchmark: bench.name,
        version,
        trace_seconds,
        find_seconds,
        result,
        evaluation,
    }
}

/// Renders a simple aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Writes an experiment record as JSON under `target/experiments/`.
pub fn write_record<T: Serialize>(name: &str, record: &T) {
    let dir = std::path::Path::new("target/experiments");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(mut f) = std::fs::File::create(&path) {
        let _ = writeln!(f, "{}", serde_json::to_string_pretty(record).unwrap());
        eprintln!("(record written to {})", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_runs_end_to_end() {
        let b = starbench::benchmark("rgbyuv").unwrap();
        let run = analyze(b, Version::Seq, &discovery::FinderConfig::default());
        assert!(run.evaluation.perfect());
        assert!(run.result.ddg_size > 0);
        assert!(run.find_seconds >= 0.0);
    }

    #[test]
    fn cli_parses_budget_workers_and_positionals() {
        let cli = parse_args(
            ["--budget-ms", "1500", "fig7", "--workers", "3", "1,4"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(cli.config.budget.time, Duration::from_millis(1500));
        assert_eq!(cli.workers, 3);
        assert_eq!(cli.positional, vec!["fig7".to_string(), "1,4".to_string()]);
        assert_eq!(cli.config.deadline, None);
    }

    #[test]
    fn cli_parses_a_request_deadline() {
        let cli = parse_args(
            ["--deadline-ms", "250", "table3"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(cli.config.deadline, Some(Duration::from_millis(250)));
        assert_eq!(cli.positional, vec!["table3".to_string()]);
    }

    #[test]
    fn parse_value_names_the_flag_in_its_error() {
        assert_eq!(parse_value::<u64>("--budget-ms", "1500"), Ok(1500));
        let err = parse_value::<u64>("--workers", "many").unwrap_err();
        assert_eq!(err, "invalid value for --workers: got \"many\"");
    }

    #[test]
    fn table_rendering_aligns_columns() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("long-name"));
    }
}
