//! Batch-analyze the whole Starbench suite (both versions of every
//! benchmark) on the parallel engine, streaming results as they finish.
//!
//! ```sh
//! cargo run --release --example batch_analyze
//! cargo run --release --example batch_analyze -- 8 2000   # workers, budget ms
//! cargo run --release --example batch_analyze -- --workers 8 --budget-ms 2000
//! cargo run --release --example batch_analyze -- \
//!     --bench rgbyuv --bench kmeans \
//!     --trace-out trace.json --metrics-json metrics.json
//! ```
//!
//! Demonstrates the `repro-engine` crate: the sixteen requests run
//! concurrently on a work-stealing pool, per-sub-DDG match jobs are
//! parallelized within each request, and a structural-hash cache shares
//! match outcomes across isomorphic sub-DDGs. The patterns are
//! byte-identical to the sequential `discovery::find_patterns`.
//!
//! `--trace-out <path>` switches span tracing on and writes a Chrome
//! trace (open in <https://ui.perfetto.dev>); `--metrics-json <path>`
//! writes the flat `ObsReport`; `--bench <name>` (repeatable) restricts
//! the batch to the named Starbench programs.

use repro_engine::{AnalysisRequest, Engine, EngineConfig};
use starbench::{all_benchmarks, Version};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Parses a flag value, or exits 2 with the flag and offending value
/// named — bad CLI input is a usage error, not a panic.
fn parse_or_exit<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("invalid value for {flag}: got {value:?}");
        std::process::exit(2);
    })
}

fn main() {
    let mut workers = 0usize;
    let mut budget_ms = 60_000u64;
    let mut trace_out: Option<PathBuf> = None;
    let mut metrics_json: Option<PathBuf> = None;
    let mut only: Vec<String> = Vec::new();
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--trace-out" => trace_out = Some(PathBuf::from(take("--trace-out"))),
            "--metrics-json" => metrics_json = Some(PathBuf::from(take("--metrics-json"))),
            "--bench" => {
                let name = take("--bench");
                if starbench::benchmark(&name).is_none() {
                    eprintln!("{}", starbench::unknown_benchmark_message(&name));
                    std::process::exit(2);
                }
                only.push(name);
            }
            "--workers" => workers = parse_or_exit("--workers", &take("--workers")),
            "--budget-ms" => budget_ms = parse_or_exit("--budget-ms", &take("--budget-ms")),
            _ => positional.push(arg),
        }
    }
    if let Some(w) = positional.first() {
        workers = parse_or_exit("--workers", w);
    }
    if let Some(b) = positional.get(1) {
        budget_ms = parse_or_exit("--budget-ms", b);
    }
    if trace_out.is_some() || metrics_json.is_some() {
        obs::enable();
    }

    let mut config = discovery::FinderConfig::default();
    config.budget.time = Duration::from_millis(budget_ms);

    let mut requests = Vec::new();
    for bench in all_benchmarks() {
        if !only.is_empty() && !only.iter().any(|n| n == bench.name) {
            continue;
        }
        for version in Version::BOTH {
            requests.push(AnalysisRequest {
                id: format!("{}-{}", bench.name, version.name()),
                program: bench.program(version),
                input: (bench.analysis_input)(),
                config: config.clone(),
            });
        }
    }
    if requests.is_empty() {
        eprintln!("no benchmark matched the --bench filter {only:?}");
        std::process::exit(2);
    }
    let n = requests.len();

    let engine = Engine::new(EngineConfig {
        workers,
        ..EngineConfig::default()
    });
    println!(
        "analyzing {n} benchmark runs on {} workers (budget {budget_ms} ms per solver run)\n",
        engine.metrics().workers
    );

    let t0 = Instant::now();
    // Results stream in completion order; `index` recovers submission order.
    for res in engine.analyze_batch(requests) {
        match &res.outcome {
            Ok(analysis) => {
                let reported = analysis.result.reported().count();
                println!(
                    "[{:>2}] {:<22} {:>3} patterns  trace {:>7.1?}  find {:>7.1?}  \
                     {} match jobs ({} cache hits){}",
                    res.index,
                    res.id,
                    reported,
                    res.metrics.trace_time,
                    res.metrics.find_time,
                    res.metrics.match_jobs,
                    res.metrics.cache_hits,
                    if res.metrics.degraded {
                        "  DEGRADED"
                    } else {
                        ""
                    },
                );
            }
            Err(e) => println!("[{:>2}] {:<22} FAILED: {e}", res.index, res.id),
        }
    }
    println!("\nbatch wall clock: {:.2?}", t0.elapsed());

    let m = engine.metrics();
    println!(
        "engine: {} match jobs executed, {} stolen, peak queue {}; \
         cache: {} hits / {} misses ({:.0}% hit rate, {} entries)",
        m.jobs_executed,
        m.jobs_stolen,
        m.peak_queue_depth,
        m.cache_hits,
        m.cache_misses,
        100.0 * m.cache_hit_rate(),
        m.cache_entries,
    );
    if m.match_faults + m.requests_degraded + m.requests_failed > 0 {
        println!(
            "faults: {} match faults, {} requests degraded, {} failed",
            m.match_faults, m.requests_degraded, m.requests_failed,
        );
    }

    if let Some(path) = &trace_out {
        let threads = obs::take_events();
        match obs::write_chrome_trace(path, &threads) {
            Ok(()) => eprintln!("chrome trace written to {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &metrics_json {
        let mut report = obs::ObsReport::snapshot();
        report.meta("experiment", "batch_analyze");
        report.meta_num("workers", m.workers as f64);
        report.meta_num("budget_ms", budget_ms as f64);
        report.meta_num("requests", n as f64);
        report.section("engine", &m);
        match report.write(path) {
            Ok(()) => eprintln!("metrics written to {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}
